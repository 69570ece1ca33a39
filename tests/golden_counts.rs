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
//!
//! `GOLDEN` alone cannot tell LRR from GTO on 8 of the 15 workloads (tiny
//! graph inputs never leave two ready warps on one scheduler) and never sees
//! a tag reservation failure. `GOLDEN_PRESSURED` runs all 15 under LRR and
//! GTO on a machine squeezed until they do: 2 SMs with one scheduler each,
//! CTAs dispatched in pairs (`Clustered { group: 2 }`, so the two one-warp
//! CTAs of a tiny graph launch share an SM), a 2-set direct-mapped L1 with 4
//! MSHRs that merge nothing, a one-entry miss queue behind two L1 ports and
//! a two-entry interconnect input queue. Every workload's `lrr` row differs
//! from its `gto` row, and `rsrv_tag` / `rsrv_mshr` / `rsrv_queue` are
//! nonzero on 14 / 13 / 13 of 15. The L1 checks tags, then MSHRs, then the
//! miss queue, and counts a request only under the first check it fails, so
//! a zero is "never the *first* obstacle", not "never short". The zero
//! columns that remain: `mriq`, all three (six L1 requests in the whole run,
//! never two outstanding); `dwt` `rsrv_mshr` (56 streaming misses over two
//! lines: the set's only way is reserved long before four MSHRs are); `bpr`
//! `rsrv_queue` (no cycle offers a second miss while the queue is full).

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

const GOLDEN_PRESSURED: &str = "\
p-lrr 2mm 6813 3744 119808 192,0,608,5897,4361,80 6a69ab2a80b43d9f
p-lrr gaus 9003 1613 35782 84,0,158,1101,2344,22 153b16b308b06d24
p-lrr grm 16232 8610 191095 118,0,218,634,3891,47 9d3d5a4f3903930c
p-lrr lu 13006 3426 75158 158,0,216,1665,3855,36 52b412ed6782fde4
p-lrr spmv 2031 249 7842 13,0,140,2667,313,22 4b2b8e2bfd4763cc
p-lrr htw 22689 17316 554112 48,0,100,1412,2038,6 dffa9beec2841adf
p-lrr mriq 882 410 13120 0,0,6,0,0,0 11ee185123005ef1
p-lrr dwt 1020 312 9984 0,0,56,1052,0,12 5d8dcf5872ac8ddc
p-lrr bpr 2739 1193 35520 42,0,55,810,314,0 30b771dbb6618067
p-lrr srad 2358 1208 38656 89,0,146,1575,1797,3 7eafb558dc8d35e9
p-lrr bfs 8658 1509 15189 48,0,304,1120,444,27 3c78e823f46dac2a
p-lrr sssp 16545 3102 17528 120,0,821,6827,747,72 bfec752c963604ef
p-lrr ccl 5354 914 27731 84,0,227,1558,953,21 ef52febf610c4de1
p-lrr mst 7516 1402 32487 99,0,301,2274,1146,44 b43ca4dedfeee518
p-lrr mis 10998 2036 26968 127,0,468,3885,2275,51 c64916858dc89c2f
p-gto 2mm 7017 3744 119808 64,0,736,11130,1280,148 17e174c6f02b47e9
p-gto gaus 9182 1613 35782 56,0,186,1664,2137,26 e44f266b76183c7d
p-gto grm 15632 8610 191095 70,0,266,2549,783,49 43d7a3ac7f26aefa
p-gto lu 12930 3426 75158 122,0,252,3466,3270,35 40531bca27dab7bf
p-gto spmv 2031 249 7842 13,0,140,2670,315,22 5646f3459db9ea3a
p-gto htw 24584 17316 554112 18,0,130,3265,855,20 b3620f161c35efd8
p-gto mriq 846 410 13120 0,0,6,0,0,0 91841f2ebc83b0e3
p-gto dwt 1009 312 9984 0,0,56,1048,0,12 1e66a178819c3cda
p-gto bpr 2681 1193 35520 32,0,65,855,347,0 ad8f87ea19d204e1
p-gto srad 2656 1208 38656 78,0,157,3021,836,6 209b54f71a0832da
p-gto bfs 8600 1509 15189 48,0,304,1122,450,27 d5b94d70b8773b79
p-gto sssp 16418 3102 17528 126,0,815,6623,803,63 3b3597e0eea2a631
p-gto ccl 5293 914 27731 84,0,227,1558,972,21 1786e0e91cf73952
p-gto mst 7687 1402 32467 99,0,301,2282,1041,44 48945a66a1c15c93
p-gto mis 10903 2036 26968 127,0,468,3878,2280,51 e67b8f32a2255874
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

#[test]
fn pressured_launch_sums_match_the_golden_table() {
    let workloads = tiny_workloads();
    let mut actual = String::new();
    for (name, policy) in [
        ("p-lrr", WarpSchedPolicy::Lrr),
        ("p-gto", WarpSchedPolicy::Gto),
    ] {
        let cfg = cfg(|c| {
            c.warp_sched = policy;
            c.n_schedulers = 1;
            c.cta_sched = CtaSchedPolicy::Clustered { group: 2 };
            c.l1_ports = 2;
            c.l1.sets = 2;
            c.l1.ways = 1;
            c.l1.mshr_entries = 4;
            c.l1.mshr_max_merge = 1;
            c.l1.miss_queue_len = 1;
            c.icnt.input_queue_len = 2;
        });
        for w in &workloads {
            row(&mut actual, name, &cfg, w.as_ref());
        }
    }
    assert!(
        actual == GOLDEN_PRESSURED,
        "pressured golden launch sums moved; actual table:\n{actual}"
    );
}
