//! Cross-crate invariants: determinism, cache warmth, and functional
//! correctness under every microarchitectural configuration the ablations
//! exercise, and the kernel fingerprint those results are keyed by.

use gcl::prelude::*;
use gcl::sim::CtaSchedPolicy;
use gcl_mem::L2Topology;
use gcl_workloads::graph_apps::{Bfs, Sssp};
use gcl_workloads::linear::Mm2;

/// The simulator is fully deterministic: identical runs produce identical
/// statistics, cycle for cycle.
#[test]
fn simulation_is_deterministic() {
    let run = || {
        let mut gpu = Gpu::new(GpuConfig::small()).unwrap();
        Bfs::tiny().run(&mut gpu).unwrap().stats
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// L1/L2 contents persist across launches: relaunching the same kernel on
/// the same data gets faster and hits more.
#[test]
fn caches_stay_warm_across_launches() {
    let mut b = KernelBuilder::new("reader");
    let p = b.param("buf", Type::U64);
    let base = b.ld_param(Type::U64, p);
    let tid = b.thread_linear_id();
    let a = b.index64(base, tid, 4);
    let v = b.ld_global(Type::U32, a);
    let dummy = b.add(Type::U32, v, 1i64);
    let _ = dummy;
    b.exit();
    let kernel = b.build().unwrap();

    let mut gpu = Gpu::new(GpuConfig::small()).unwrap();
    let buf = gpu.mem().alloc_array(Type::U32, 256).unwrap();
    let params = pack_params(&kernel, &[buf]);
    let cold = gpu
        .launch(&kernel, Dim3::x(2), Dim3::x(128), &params)
        .unwrap();
    let warm = gpu
        .launch(&kernel, Dim3::x(2), Dim3::x(128), &params)
        .unwrap();
    let hit = |s: &LaunchStats| {
        s.l1.outcome_class(
            gcl_mem::AccessOutcome::Hit,
            gcl_mem::ClassTag::Deterministic,
        )
    };
    assert!(
        hit(&warm) > hit(&cold),
        "warm {} vs cold {}",
        hit(&warm),
        hit(&cold)
    );
    assert!(
        warm.cycles < cold.cycles,
        "warm {} vs cold {}",
        warm.cycles,
        cold.cycles
    );
}

/// Functional results are identical under every scheduler / topology /
/// warp-split configuration — the knobs change timing only.
#[test]
fn config_knobs_do_not_change_results() {
    let baseline_dist = sssp_distances(GpuConfig::small());

    let mut clustered = GpuConfig::small();
    clustered.cta_sched = CtaSchedPolicy::Clustered { group: 2 };
    assert_eq!(
        sssp_distances(clustered),
        baseline_dist,
        "clustered CTA sched"
    );

    let mut semi = GpuConfig::small();
    semi.l2_topology = L2Topology::Clustered { clusters: 2 };
    assert_eq!(sssp_distances(semi), baseline_dist, "semi-global L2");

    let mut split = GpuConfig::small();
    split.warp_split_nd = Some(4);
    assert_eq!(sssp_distances(split), baseline_dist, "warp splitting");

    let mut gto = GpuConfig::small();
    gto.warp_sched = gcl::sim::WarpSchedPolicy::Gto;
    assert_eq!(sssp_distances(gto), baseline_dist, "GTO warp sched");
}

fn sssp_distances(cfg: GpuConfig) -> Vec<u32> {
    let w = Sssp::tiny();
    let mut gpu = Gpu::new(cfg).unwrap();
    w.run(&mut gpu).unwrap();
    // dist is the 4th allocation; recompute from graph sizes.
    let csr = gcl_workloads::graph::Csr::rmat(w.scale, w.edge_factor, 0x555A);
    let align = |v: u64| v.div_ceil(128) * 128;
    let mut addr = gcl::sim::HEAP_BASE;
    for words in [csr.row_ptr.len(), csr.col_idx.len(), csr.weight.len()] {
        addr = align(addr) + (words * 4) as u64;
    }
    gpu.mem_ref().read_u32_slice(align(addr), csr.n())
}

/// Warp splitting reduces the L1 burst pressure of non-deterministic loads
/// without changing how many requests exist in total.
#[test]
fn warp_split_preserves_request_counts() {
    let run = |split: Option<usize>| {
        let mut cfg = GpuConfig::small();
        cfg.warp_split_nd = split;
        let mut gpu = Gpu::new(cfg).unwrap();
        Sssp::tiny().run(&mut gpu).unwrap().stats
    };
    let base = run(None);
    let split = run(Some(2));
    let nd = gcl_core::LoadClass::NonDeterministic;
    assert_eq!(base.class(nd).requests, split.class(nd).requests);
    assert_eq!(base.class(nd).warp_loads, split.class(nd).warp_loads);
}

/// The GTO scheduler completes the same work in a comparable cycle count
/// (sanity: both schedulers are functional, neither deadlocks).
#[test]
fn gto_scheduler_completes_workloads() {
    let mut cfg = GpuConfig::small();
    cfg.warp_sched = gcl::sim::WarpSchedPolicy::Gto;
    let mut gpu = Gpu::new(cfg).unwrap();
    let run = Mm2::tiny().run(&mut gpu).unwrap();
    assert!(run.stats.cycles > 0);
    assert_eq!(run.stats.nondet_load_fraction(), 0.0);
}

/// Timeout protection: an infinite kernel reports `SimError::Timeout`
/// instead of hanging.
#[test]
fn runaway_kernel_times_out() {
    let mut b = KernelBuilder::new("spin");
    let head = b.new_label();
    b.place(head);
    let t = b.setp(CmpOp::Eq, Type::U32, 0i64, 0i64);
    b.bra_if(t, head);
    b.exit();
    let kernel = b.build().unwrap();
    let mut cfg = GpuConfig::small();
    cfg.max_cycles = 5_000;
    let mut gpu = Gpu::new(cfg).unwrap();
    let err = gpu
        .launch(&kernel, Dim3::x(1), Dim3::x(32), &[])
        .unwrap_err();
    assert!(matches!(err, gcl::sim::SimError::Timeout { .. }), "{err}");
}

/// Oversized CTAs are rejected up front.
#[test]
fn oversized_cta_is_rejected() {
    let mut b = KernelBuilder::new("big");
    b.exit();
    let kernel = b.build().unwrap();
    let mut gpu = Gpu::new(GpuConfig::small()).unwrap();
    let err = gpu
        .launch(&kernel, Dim3::x(1), Dim3::x(512), &[])
        .unwrap_err();
    assert!(
        matches!(err, gcl::sim::SimError::CtaTooLarge { .. }),
        "{err}"
    );
}

/// A kernel's fingerprint is stored in the kernel after the first call.
/// Both calls must equal the FNV-1a fold of the kernel's `Debug` text, which
/// snapshots, trace containers and job keys have always recorded.
#[test]
fn memoised_kernel_fingerprint_is_the_debug_fold() {
    let mut kernels = Vec::new();
    for w in gcl_workloads::all_workloads() {
        for k in w.kernels() {
            if !kernels
                .iter()
                .any(|seen: &gcl_ptx::Kernel| seen.name() == k.name())
            {
                kernels.push(k);
            }
        }
    }
    assert_eq!(kernels.len(), 25, "distinct workload kernels");
    for k in &kernels {
        let uncached = gcl_mem::fnv_fold_bytes(gcl_mem::FNV_OFFSET, format!("{k:?}").as_bytes());
        for _ in 0..2 {
            assert_eq!(gcl_sim::kernel_fingerprint(k), uncached, "{}", k.name());
        }
        assert_eq!(k.clone().fingerprint(), uncached, "clone of {}", k.name());
        assert_eq!(format!("{:?}", k.clone()), format!("{k:?}"));
    }
}
