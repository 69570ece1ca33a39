//! Robustness matrix: the simulator must produce identical functional
//! results and complete without deadlock across extreme configurations —
//! single SM, single partition, tiny queues, tiny caches, degenerate
//! interconnects.

use gcl::prelude::*;
use gcl_workloads::graph_apps::Bfs;
use gcl_workloads::linear::Mm2;

fn bfs_cost_signature(cfg: GpuConfig) -> u64 {
    let w = Bfs::tiny();
    let mut gpu = Gpu::new(cfg).unwrap();
    w.run(&mut gpu).unwrap();
    // Hash all of device memory's bfs cost range indirectly via the block
    // summary access count + a sample of the cost array.
    let csr = gcl_workloads::graph::Csr::rmat(w.scale, w.edge_factor, 0xBF5);
    let align = |v: u64| v.div_ceil(128) * 128;
    let mut addr = gcl::sim::HEAP_BASE;
    for words in [
        csr.row_ptr.len(),
        csr.col_idx.len(),
        csr.n(),
        csr.n(),
        csr.n(),
    ] {
        addr = align(addr) + (words * 4) as u64;
    }
    let cost = gpu.mem_ref().read_u32_slice(align(addr), csr.n());
    cost.iter().fold(0u64, |h, &v| {
        h.wrapping_mul(1_000_003).wrapping_add(u64::from(v))
    })
}

fn base() -> GpuConfig {
    GpuConfig::small()
}

#[test]
fn single_sm_single_partition() {
    let mut cfg = base();
    cfg.n_sms = 1;
    cfg.n_partitions = 1;
    let want = bfs_cost_signature(base());
    assert_eq!(bfs_cost_signature(cfg), want);
}

#[test]
fn many_sms_odd_partitions() {
    let mut cfg = base();
    cfg.n_sms = 7;
    cfg.n_partitions = 3;
    let want = bfs_cost_signature(base());
    assert_eq!(bfs_cost_signature(cfg), want);
}

#[test]
fn starved_queues_still_complete() {
    let mut cfg = base();
    cfg.ldst_queue_len = 1;
    cfg.l1.miss_queue_len = 1;
    cfg.l1.mshr_entries = 2;
    cfg.l1.mshr_max_merge = 1;
    cfg.icnt.input_queue_len = 1;
    cfg.partition.input_queue_len = 1;
    cfg.partition.dram.queue_len = 1;
    let want = bfs_cost_signature(base());
    assert_eq!(bfs_cost_signature(cfg), want);
}

#[test]
fn tiny_direct_mapped_l1() {
    let mut cfg = base();
    cfg.l1.sets = 2;
    cfg.l1.ways = 1;
    let want = bfs_cost_signature(base());
    assert_eq!(bfs_cost_signature(cfg), want);
}

#[test]
fn slow_interconnect_and_dram() {
    let mut cfg = base();
    cfg.icnt.hop_latency = 64;
    cfg.partition.dram.access_latency = 500;
    cfg.partition.dram.data_bus_gap = 16;
    let want = bfs_cost_signature(base());
    assert_eq!(bfs_cost_signature(cfg), want);
}

#[test]
fn narrow_warps() {
    // A 16-lane machine still computes the right matmul.
    let mut cfg = base();
    cfg.warp_size = 16;
    let w = Mm2::tiny();
    let n = w.n as usize;
    let mut gpu = Gpu::new(cfg).unwrap();
    w.run(&mut gpu).unwrap();
    let a = gcl_workloads::gen::dense_matrix(n, n, 0x2001);
    let bm = gcl_workloads::gen::dense_matrix(n, n, 0x2003);
    let want_d = Mm2::reference(&a, &bm, n);
    // D is the 4th allocation.
    let align = |v: u64| v.div_ceil(128) * 128;
    let sz = (n * n * 4) as u64;
    let mut addr = gcl::sim::HEAP_BASE;
    for _ in 0..3 {
        addr = align(addr) + sz;
    }
    let dd = align(addr);
    let got = gpu.mem_ref().read_f32_slice(dd, n * n);
    for (i, (g, w_)) in got.iter().zip(want_d.iter()).enumerate() {
        assert!(
            (g - w_).abs() <= w_.abs() * 1e-4 + 1e-3,
            "D[{i}] = {g}, want {w_}"
        );
    }
}

#[test]
fn warps_wider_than_32_lanes_are_rejected() {
    // Lane masks are `u32`: lane 32+k has no bit of its own.
    for warp_size in [33, 64] {
        let mut cfg = base();
        cfg.warp_size = warp_size;
        cfg.max_threads_per_sm = 1024;
        match Gpu::new(cfg) {
            Err(SimError::InvalidConfig(e)) => assert_eq!(e.field, "warp_size", "{e}"),
            other => panic!("warp_size {warp_size} accepted: {other:?}"),
        }
    }
}

#[test]
fn single_scheduler_and_one_cta_slot() {
    let mut cfg = base();
    cfg.n_schedulers = 1;
    cfg.max_ctas_per_sm = 1;
    let want = bfs_cost_signature(base());
    assert_eq!(bfs_cost_signature(cfg), want);
}
