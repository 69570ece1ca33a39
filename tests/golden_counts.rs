//! Golden timing contract: per-workload launch sums pinned for scheduler
//! and dispatch policies the benchmark never runs (it is Fermi / LRR /
//! default scale only). Any change to the issue stage, the scoreboard, the
//! LD/ST path or the interconnect must leave every row byte-identical —
//! the simulator's speed may move, its answers may not.
//!
//! Each row is `config workload cycles warp_insts thread_insts
//! l1[hit,hit_reserved,miss,rsrv_tag,rsrv_mshr,rsrv_queue] digest` under
//! `GpuConfig::small()` with the sanitizer on (the digest folds every issue,
//! writeback and fill event of every SM). On a mismatch the failure message
//! carries the complete actual table, ready to diff against `GOLDEN`.

use gcl::prelude::*;
use gcl::sim::{CtaSchedPolicy, WarpSchedPolicy};
use gcl::workloads::tiny_workloads;
use gcl_mem::AccessOutcome;
use std::fmt::Write as _;

const GOLDEN: &str = "\
lrr 2mm 3524 3744 119808 608,96,96,0,0,0 d801d35146ebbb9b
lrr gaus 6576 1613 35782 88,27,127,0,0,0 4c4c20eaa8a97e2d
lrr grm 13571 8610 191095 155,40,141,0,0,0 7f8b872e2b1ef179
lrr lu 7311 3426 75158 66,122,186,0,467,0 3032f9415f44e29c
lrr spmv 785 249 7842 104,6,43,0,0,0 4e6573bf75bfb7f8
lrr htw 6237 17316 554112 2,50,96,0,0,0 56332961a7be8ce0
lrr mriq 824 410 13120 0,0,6,0,0,0 c5f84e037ce7f414
lrr dwt 683 312 9984 0,16,40,0,0,0 a60f4ea315170967
lrr bpr 1356 1193 35520 24,28,45,0,0,0 f98bbba5528e5f52
lrr srad 914 1208 38656 112,74,49,0,0,0 68c97ec9c3965832
lrr bfs 6457 1509 15189 181,2,169,0,0,0 c947e8124e138795
lrr sssp 6912 3102 17528 871,2,68,0,0,0 c50df1e5010582e4
lrr ccl 3012 914 27731 258,2,51,0,0,0 df58e36076c8ec53
lrr mst 4490 1402 32487 325,2,73,0,0,0 7559b5b63e803bf1
lrr mis 5826 2036 26968 502,2,91,0,0,0 ec4c19d4a33dfe81
gto 2mm 3490 3744 119808 608,96,96,0,0,0 743a610ee93c6e90
gto gaus 6561 1613 35782 88,27,127,0,0,0 2093c631c4e45a7f
gto grm 13726 8610 191095 146,40,150,0,0,0 c72eca9dcbbc605b
gto lu 7242 3426 75158 47,141,186,0,378,0 bc0d27633901b3bd
gto spmv 785 249 7842 104,6,43,0,0,0 4e6573bf75bfb7f8
gto htw 6276 17316 554112 2,50,96,0,0,0 b9d9293dec488f1d
gto mriq 824 410 13120 0,0,6,0,0,0 c5f84e037ce7f414
gto dwt 683 312 9984 0,16,40,0,0,0 a60f4ea315170967
gto bpr 1316 1193 35520 28,24,45,0,0,0 0736408dcda500fd
gto srad 880 1208 38656 111,75,49,0,0,0 8becf01d19a33f4d
gto bfs 6457 1509 15189 181,2,169,0,0,0 c947e8124e138795
gto sssp 6912 3102 17528 871,2,68,0,0,0 c50df1e5010582e4
gto ccl 3012 914 27731 258,2,51,0,0,0 df58e36076c8ec53
gto mst 4490 1402 32487 325,2,73,0,0,0 7559b5b63e803bf1
gto mis 5826 2036 26968 502,2,91,0,0,0 ec4c19d4a33dfe81
clustered2 2mm 3515 3744 119808 608,112,80,0,0,0 e84e25520fa674d7
clustered2 bfs 6545 1509 15189 180,5,167,0,0,0 dc649b9b697124f1
split2 spmv 786 249 7842 104,6,43,0,0,0 6aaf707e58d7a7c8
split2 htw 6239 17316 554112 3,49,96,0,0,0 aaf8b21ed496b1ab
";

fn cfg(edit: impl FnOnce(&mut GpuConfig)) -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    edit(&mut cfg);
    cfg
}

fn row(out: &mut String, config: &str, cfg: &GpuConfig, w: &dyn Workload) {
    let mut gpu = Gpu::new(cfg.clone()).expect("golden configs are valid");
    let s = w
        .run(&mut gpu)
        .unwrap_or_else(|e| panic!("{config} {}: {e}", w.name()))
        .stats;
    let l1: Vec<String> = AccessOutcome::ALL
        .iter()
        .map(|o| s.l1.outcome_total(*o).to_string())
        .collect();
    writeln!(
        out,
        "{config} {} {} {} {} {} {:016x}",
        w.name(),
        s.cycles,
        s.sm.warp_insts,
        s.sm.thread_insts,
        l1.join(","),
        s.digest.expect("sanitize produces a digest"),
    )
    .expect("writing to a String cannot fail");
}

#[test]
fn launch_sums_match_the_golden_table() {
    let workloads = tiny_workloads();
    let mut actual = String::new();
    for (name, policy) in [("lrr", WarpSchedPolicy::Lrr), ("gto", WarpSchedPolicy::Gto)] {
        let cfg = cfg(|c| c.warp_sched = policy);
        for w in &workloads {
            row(&mut actual, name, &cfg, w.as_ref());
        }
    }
    let clustered = cfg(|c| c.cta_sched = CtaSchedPolicy::Clustered { group: 2 });
    let split = cfg(|c| c.warp_split_nd = Some(2));
    for w in workloads
        .iter()
        .filter(|w| matches!(w.name(), "2mm" | "bfs"))
    {
        row(&mut actual, "clustered2", &clustered, w.as_ref());
    }
    for w in workloads
        .iter()
        .filter(|w| matches!(w.name(), "spmv" | "htw"))
    {
        row(&mut actual, "split2", &split, w.as_ref());
    }
    assert!(
        actual == GOLDEN,
        "golden launch sums moved; actual table:\n{actual}"
    );
}
