//! Functional pins: what every workload leaves in device memory and what
//! the three locality reports say about it, byte for byte, plus the bytes
//! of two mid-launch snapshots, of snapshot streams through a whole
//! execution and a whole replay launch, and of the idle GPU after an
//! abandoned launch.
//!
//! The workloads' own unit tests check results against a host `reference()`
//! only at their test sizes; nothing else pins device memory at the default
//! scale the benchmark runs, nor the locality reports at any scale. A change
//! to functional execution, to `GlobalMem` or to `BlockTracker` must leave
//! every line here identical — the simulator's speed may move, its answers
//! may not.
//!
//! Per workload the golden files under `tests/golden/` hold
//!
//! * `mem`: one `base+len:fnv` per allocation, the FNV-1a of the
//!   allocation's bytes read back through [`GlobalMem::read_le`] (never
//!   through checkpoint bytes, whose page order is pinned separately below);
//! * `blocks`: every field of `Gpu::block_summary()`;
//! * `dist`: every `(distance, fraction)` of `Gpu::distance_histogram()`,
//!   fractions in shortest round-trip form;
//! * `pc`: one line per `Gpu::pc_sharing()` row, the CTA-pair list folded to
//!   its length and the FNV of its `(i, j, n)` triples.
//!
//! Tiny scale on `GpuConfig::small()` runs in tier-1; default scale on
//! `GpuConfig::fermi()` is `#[ignore]`d (half a minute in debug) and run in
//! release by CI: `cargo test --release --test functional_pins --
//! --include-ignored`. On a mismatch the actual text is left under
//! `target/tmp/functional_pins/` ready to diff against the golden file.

use gcl::prelude::*;
use gcl::sim::{CtaSchedPolicy, GlobalMem, MemorySink, PrefetchFilter, WarpSchedPolicy};
use gcl::workloads::graph_apps::Bfs;
use gcl::workloads::linear::Mm2;
use gcl::workloads::{all_workloads, tiny_workloads, upload_f32, upload_u32};
use gcl_mem::{fnv_fold, fnv_fold_bytes, FNV_OFFSET};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// FNV-1a of `[base, base + len)` read eight bytes at a time (the tail in
/// one shorter read) through the public scalar read path.
fn allocation_digest(mem: &GlobalMem, base: u64, len: u64) -> u64 {
    let mut h = FNV_OFFSET;
    let mut off = 0;
    while off < len {
        let n = (len - off).min(8) as u32;
        h = fnv_fold(h, mem.read_le(base + off, n));
        off += u64::from(n);
    }
    h
}

fn render(out: &mut String, w: &dyn Workload, cfg: GpuConfig) {
    let name = w.name();
    let mut gpu = Gpu::new(cfg).expect("preset configurations are valid");
    w.run(&mut gpu)
        .unwrap_or_else(|e| panic!("{name} failed: {e}"));

    let mem = gpu.mem_ref();
    write!(out, "{name} mem").unwrap();
    for &(base, len) in mem.allocations() {
        let digest = allocation_digest(mem, base, len);
        write!(out, " {base:#x}+{len}:{digest:016x}").unwrap();
    }
    out.push('\n');

    let s = gpu.block_summary();
    writeln!(
        out,
        "{name} blocks blocks={} accesses={} cold_miss={:?} per_block={:?} shared_blocks={:?} \
         shared_accesses={:?} ctas_per_shared={:?}",
        s.blocks,
        s.accesses,
        s.cold_miss_ratio,
        s.mean_accesses_per_block,
        s.shared_block_ratio,
        s.shared_access_ratio,
        s.mean_ctas_per_shared_block,
    )
    .unwrap();

    write!(out, "{name} dist").unwrap();
    for (d, frac) in gpu.distance_histogram() {
        write!(out, " {d}:{frac:?}").unwrap();
    }
    out.push('\n');

    for p in gpu.pc_sharing() {
        let pairs = p.pairs.iter().fold(FNV_OFFSET, |h, &((i, j), n)| {
            fnv_fold(fnv_fold(fnv_fold(h, i), j), n)
        });
        writeln!(
            out,
            "{name} pc {} {} accesses={} blocks={} shared={} max_ctas={} pairs={}:{pairs:016x}",
            p.kernel,
            p.pc,
            p.accesses,
            p.blocks,
            p.shared_blocks,
            p.max_ctas_per_block,
            p.pairs.len(),
        )
        .unwrap();
    }
}

fn check(golden: &str, file: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("functional_pins");
    std::fs::create_dir_all(&dir).expect("create the actual-text directory");
    std::fs::write(dir.join(file), actual).expect("write actual text");
    let line = golden
        .lines()
        .zip(actual.lines())
        .position(|(g, a)| g != a)
        .unwrap_or_else(|| golden.lines().count().min(actual.lines().count()));
    panic!(
        "tests/golden/{file} moved at line {}:\n  golden: {}\n  actual: {}\nfull actual text: \
         target/tmp/functional_pins/{file}",
        line + 1,
        golden.lines().nth(line).unwrap_or("<end of file>"),
        actual.lines().nth(line).unwrap_or("<end of file>"),
    );
}

#[test]
fn tiny_workloads_on_small() {
    let mut actual = String::new();
    for w in tiny_workloads() {
        render(&mut actual, w.as_ref(), GpuConfig::small());
    }
    check(
        include_str!("golden/functional_pins.tiny.txt"),
        "functional_pins.tiny.txt",
        &actual,
    );
}

#[test]
#[ignore = "default scale: half a minute in debug; CI runs it in release"]
fn default_workloads_on_fermi() {
    let mut actual = String::new();
    for w in all_workloads() {
        render(&mut actual, w.as_ref(), GpuConfig::fermi());
    }
    check(
        include_str!("golden/functional_pins.default.txt"),
        "functional_pins.default.txt",
        &actual,
    );
}

/// Step the active launch to relative cycle `at` and digest the snapshot
/// taken there.
fn snapshot_digest_at(gpu: &mut Gpu, kernel: &Kernel, at: u64) -> u64 {
    while gpu.launch_cycle() != Some(at) {
        assert!(
            gpu.launch_step(kernel).expect("launch steps").is_none(),
            "launch completed before cycle {at}"
        );
    }
    fnv_fold_bytes(FNV_OFFSET, &gpu.snapshot().to_bytes())
}

fn sanitized_small() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg
}

/// Tiny `2mm` (set up exactly as `Mm2::run` does): the first launch
/// complete, the second interrupted at cycle 700 — resident heap pages, a
/// folded launch and a live one in the block tracker, warps mid-flight.
#[test]
fn snapshot_bytes_mid_launch_2mm() {
    let w = Mm2::tiny();
    let n = w.n as usize;
    let mut gpu = Gpu::new(sanitized_small()).unwrap();
    let dense = |seed| gcl::workloads::gen::dense_matrix(n, n, seed);
    let da = upload_f32(&mut gpu, &dense(0x2001)).unwrap();
    let db = upload_f32(&mut gpu, &dense(0x2003)).unwrap();
    let dc = upload_f32(&mut gpu, &dense(0x2002)).unwrap();
    let dd = gpu.mem().alloc_array(Type::F32, (n * n) as u64).unwrap();
    let de = gpu.mem().alloc_array(Type::F32, (n * n) as u64).unwrap();
    let kernel = Mm2::kernel();
    let gdim = w.n.div_ceil(w.tile);
    let (grid, block) = (Dim3::xy(gdim, gdim), Dim3::xy(w.tile, w.tile));
    let n64 = u64::from(w.n);
    gpu.launch(
        &kernel,
        grid,
        block,
        &pack_params(&kernel, &[da, db, dd, n64]),
    )
    .unwrap();
    gpu.launch_begin(
        &kernel,
        grid,
        block,
        &pack_params(&kernel, &[dd, dc, de, n64]),
    )
    .unwrap();
    assert_eq!(
        snapshot_digest_at(&mut gpu, &kernel, 700),
        0xdf37_af49_ec4d_d476
    );
}

/// Tiny `bfs` (set up exactly as `Bfs::run` does): level 0 complete, the
/// level-1 expand interrupted at cycle 150 with its gathers in flight.
#[test]
fn snapshot_bytes_mid_launch_bfs() {
    let w = Bfs::tiny();
    let csr = gcl::workloads::graph::Csr::rmat(w.scale, w.edge_factor, 0xBF5);
    let n = csr.n();
    let mut gpu = Gpu::new(sanitized_small()).unwrap();
    let drp = upload_u32(&mut gpu, &csr.row_ptr).unwrap();
    let dedge = upload_u32(&mut gpu, &csr.col_idx).unwrap();
    let src = w.source as usize;
    let mut mask = vec![0u32; n];
    let mut cost = vec![u32::MAX - 1; n];
    mask[src] = 1;
    cost[src] = 0;
    let dmask = upload_u32(&mut gpu, &mask).unwrap();
    let dupd = upload_u32(&mut gpu, &vec![0u32; n]).unwrap();
    let dvis = upload_u32(&mut gpu, &mask).unwrap();
    let dcost = upload_u32(&mut gpu, &cost).unwrap();
    let dflag = upload_u32(&mut gpu, &[0u32]).unwrap();
    let (expand, commit) = (Bfs::expand_kernel(), Bfs::commit_kernel());
    let n64 = n as u64;
    let grid = Dim3::x((n as u32).div_ceil(w.block));
    let block = Dim3::x(w.block);
    let expand_params = pack_params(&expand, &[dmask, dupd, dvis, drp, dedge, dcost, n64]);
    let commit_params = pack_params(&commit, &[dmask, dupd, dvis, dflag, n64]);
    gpu.launch(&expand, grid, block, &expand_params).unwrap();
    gpu.launch(&commit, grid, block, &commit_params).unwrap();
    assert_eq!(gpu.mem().read_u32_slice(dflag, 1), [1], "level 1 exists");
    gpu.mem().write_u32_slice(dflag, &[0]);
    gpu.launch_begin(&expand, grid, block, &expand_params)
        .unwrap();
    assert_eq!(
        snapshot_digest_at(&mut gpu, &expand, 150),
        0x632b_4ba9_a1c8_3e1c
    );
}

const MIX_BLOCK: u32 = 64;
const MIX_CTAS: u32 = 16;
const MIX_SRC: u32 = 4096;

/// Every kind of LD/ST work in one kernel: `ld.param`, a coalesced load, a
/// shared store, `bar.sync`, a shared load of a neighbour's word, an index
/// load and the scattered gather it feeds (non-deterministic, one request
/// per lane), a re-load of the first line while it is likely still in the
/// L1, and a global store.
fn ldst_mix_kernel() -> Kernel {
    let mut b = KernelBuilder::new("ldst_mix");
    let p_src = b.param("src", Type::U64);
    let p_idx = b.param("idx", Type::U64);
    let p_out = b.param("out", Type::U64);
    b.shared(MIX_BLOCK * 4);
    let src = b.ld_param(Type::U64, p_src);
    let idx = b.ld_param(Type::U64, p_idx);
    let out = b.ld_param(Type::U64, p_out);
    let tid = b.sreg(Special::TidX);
    let gid = b.thread_linear_id();
    let mine = b.index64(src, gid, 4);
    let a = b.ld_global(Type::U32, mine);
    let saddr = b.mul(Type::U32, tid, 4i64);
    b.st_shared(Type::U32, saddr, a);
    b.bar();
    let plus1 = b.add(Type::U32, tid, 1i64);
    let rot = b.rem(Type::U32, plus1, i64::from(MIX_BLOCK));
    let raddr = b.mul(Type::U32, rot, 4i64);
    let nb = b.ld_shared(Type::U32, raddr);
    let iaddr = b.index64(idx, gid, 4);
    let j = b.ld_global(Type::U32, iaddr);
    let gaddr = b.index64(src, j, 4);
    let g = b.ld_global(Type::U32, gaddr);
    let again = b.ld_global(Type::U32, mine);
    let s = b.add(Type::U32, a, nb);
    let s = b.add(Type::U32, s, g);
    let s = b.add(Type::U32, s, again);
    let oaddr = b.index64(out, gid, 4);
    b.st_global(Type::U32, oaddr, s);
    b.exit();
    b.build().unwrap()
}

/// A GPU holding [`ldst_mix_kernel`]'s buffers: its `(src, idx, out)`
/// addresses, in parameter order.
fn mix_gpu(cfg: GpuConfig) -> (Gpu, [u64; 3]) {
    let n = MIX_BLOCK * MIX_CTAS;
    let mut gpu = Gpu::new(cfg).unwrap();
    let src = upload_u32(
        &mut gpu,
        &(0..MIX_SRC)
            .map(|v| v.wrapping_mul(2_654_435_761))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    // 1057 is odd, so `i -> 1057 i mod 4096` is a permutation whose 32
    // lanes of a warp land on 32 different lines.
    let idx = upload_u32(
        &mut gpu,
        &(0..n).map(|i| i * 1057 % MIX_SRC).collect::<Vec<_>>(),
    )
    .unwrap();
    let out = gpu.mem().alloc_array(Type::U32, u64::from(n)).unwrap();
    (gpu, [src, idx, out])
}

/// Drive the active launch to completion with `step`, folding the snapshot
/// bytes into one FNV every 8 cycles. Returns the digest and the launch's
/// statistics.
fn fold_snapshots(
    gpu: &mut Gpu,
    mut step: impl FnMut(&mut Gpu) -> Result<Option<LaunchStats>, SimError>,
) -> (u64, LaunchStats) {
    let mut h = FNV_OFFSET;
    loop {
        if gpu.launch_cycle().expect("launch active").is_multiple_of(8) {
            h = fnv_fold_bytes(h, &gpu.snapshot().to_bytes());
        }
        if let Some(stats) = step(gpu).expect("launch steps") {
            return (h, stats);
        }
    }
}

/// Run [`ldst_mix_kernel`] to completion, folding the snapshot bytes into
/// one FNV every 8 cycles. Returns the digest and the launch's statistics.
fn snapshot_stream(cfg: GpuConfig) -> (u64, LaunchStats) {
    let kernel = ldst_mix_kernel();
    let (mut gpu, bufs) = mix_gpu(cfg);
    let params = pack_params(&kernel, &bufs);
    gpu.launch_begin(&kernel, Dim3::x(MIX_CTAS), Dim3::x(MIX_BLOCK), &params)
        .unwrap();
    fold_snapshots(&mut gpu, |gpu| gpu.launch_step(&kernel))
}

fn split_prefetch() -> GpuConfig {
    let mut cfg = sanitized_small();
    cfg.warp_split_nd = Some(4);
    cfg.prefetch = PrefetchFilter::All;
    cfg
}

/// Warp split, next-line prefetch on every class, L1 hits, shared and
/// parameter loads: a snapshot every 8 cycles holds each kind of LD/ST
/// state at some point of the launch.
#[test]
fn snapshot_stream_ldst_mix_split_prefetch() {
    let (digest, stats) = snapshot_stream(split_prefetch());
    assert!(
        stats.sm.prefetches_issued > 0,
        "the stream must see prefetches"
    );
    assert_eq!(digest, 0x70c6_0b41_a1c5_11ef);
}

/// The same stream on `golden_counts.rs`'s pressured machine (LRR), where
/// the L1 refuses requests for want of tags, MSHRs and miss-queue slots.
#[test]
fn snapshot_stream_ldst_mix_pressured() {
    let mut cfg = sanitized_small();
    cfg.warp_sched = WarpSchedPolicy::Lrr;
    cfg.n_schedulers = 1;
    cfg.cta_sched = CtaSchedPolicy::Clustered { group: 2 };
    cfg.l1_ports = 2;
    cfg.l1.sets = 2;
    cfg.l1.ways = 1;
    cfg.l1.mshr_entries = 4;
    cfg.l1.mshr_max_merge = 1;
    cfg.l1.miss_queue_len = 1;
    cfg.icnt.input_queue_len = 2;
    let (digest, _) = snapshot_stream(cfg);
    assert_eq!(digest, 0x1f72_cd97_3a71_ab24);
}

/// The split + prefetch launch captured through a [`MemorySink`], then
/// replayed on a GPU with the same buffers, folding a snapshot every 8
/// cycles: replay cursors, the empty parameter block and the trace
/// fingerprint at every point of a replay launch.
#[test]
fn snapshot_stream_ldst_mix_replay() {
    let kernel = ldst_mix_kernel();
    let (grid, block) = (Dim3::x(MIX_CTAS), Dim3::x(MIX_BLOCK));
    let (mut gpu, bufs) = mix_gpu(split_prefetch());
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let exec = gpu
        .launch(&kernel, grid, block, &pack_params(&kernel, &bufs))
        .unwrap();
    gpu.set_trace_sink(None);
    let rep = Arc::try_unwrap(sink)
        .expect("sink detached")
        .into_inner()
        .unwrap()
        .into_replays()
        .remove(0);

    let (mut gpu, _) = mix_gpu(split_prefetch());
    gpu.launch_replay_begin(&kernel, &rep).unwrap();
    let (digest, stats) = fold_snapshots(&mut gpu, |gpu| gpu.launch_step(&kernel));
    assert_eq!(stats, exec, "replay reproduces the execution launch");
    assert_eq!(digest, 0xffbf_23cf_2ac6_fd72);
}

/// A launch abandoned mid-flight, then a clean launch on the same GPU. The
/// second half of the CTAs gathers from 1 GiB past `src`, so memcheck fails
/// the launch while the first half's gathers are still in the hierarchy.
/// Pins the idle snapshot after the failure (fresh L1s, crossbar and
/// partitions, the clock moved past the failed launch) and the one after
/// the clean launch that follows it.
#[test]
fn snapshot_after_abandoned_ldst_mix() {
    let mut cfg = sanitized_small();
    cfg.memcheck = true;
    let kernel = ldst_mix_kernel();
    let (grid, block) = (Dim3::x(MIX_CTAS), Dim3::x(MIX_BLOCK));
    let (mut gpu, [src, idx, out]) = mix_gpu(cfg);
    let n = MIX_BLOCK * MIX_CTAS;
    let wild = upload_u32(
        &mut gpu,
        &(0..n)
            .map(|i| {
                if i < n / 2 {
                    i * 1057 % MIX_SRC
                } else {
                    1 << 28
                }
            })
            .collect::<Vec<_>>(),
    )
    .unwrap();
    match gpu.launch(
        &kernel,
        grid,
        block,
        &pack_params(&kernel, &[src, wild, out]),
    ) {
        Err(SimError::MemFault(_)) => {}
        other => panic!("expected a memcheck fault, got {other:?}"),
    }
    assert!(!gpu.launch_active());
    let h = fnv_fold_bytes(FNV_OFFSET, &gpu.snapshot().to_bytes());
    let stats = gpu
        .launch(
            &kernel,
            grid,
            block,
            &pack_params(&kernel, &[src, idx, out]),
        )
        .unwrap();
    let h = fnv_fold_bytes(h, &gpu.snapshot().to_bytes());
    assert_eq!((stats.cycles, h), (1424, 0xeee1_142f_b243_edfc));
}
