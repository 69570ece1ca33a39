//! SM-level integration tests: barriers across warps, divergence inside
//! loops, atomics across CTAs, LD/ST backpressure, prefetching, scheduler
//! equivalence, launches rejected before they start, and repeat launches
//! that reuse what a GPU derived from a kernel.

use gcl_ptx::{CmpOp, KernelBuilder, Special, Type};
use gcl_sim::{pack_params, Dim3, Gpu, GpuConfig, MemorySink, PrefetchFilter, SimError, Trace};
use std::sync::{Arc, Mutex};

fn small_gpu() -> Gpu {
    Gpu::new(GpuConfig::small()).expect("small config is valid")
}

/// Multi-warp CTA barrier: warp 0 writes shared memory, all other warps
/// read it after the barrier.
#[test]
fn barrier_orders_shared_memory_across_warps() {
    let nt = 128u32; // 4 warps
    let mut b = KernelBuilder::new("bar_test");
    b.shared(4);
    let pout = b.param("out", Type::U64);
    let out = b.ld_param(Type::U64, pout);
    let tid = b.sreg(Special::TidX);
    // Thread 0 stores 777 to shared[0].
    let is0 = b.setp(CmpOp::Eq, Type::U32, tid, 0i64);
    let skip = b.new_label();
    b.bra_unless(is0, skip);
    let zero = b.imm32(0);
    b.st_shared(Type::U32, zero, 777i64);
    b.place(skip);
    b.bar();
    let zero2 = b.imm32(0);
    let v = b.ld_shared(Type::U32, zero2);
    let a = b.index64(out, tid, 4);
    b.st_global(Type::U32, a, v);
    b.exit();
    let k = b.build().unwrap();

    let mut gpu = small_gpu();
    let out = gpu.mem().alloc_array(Type::U32, u64::from(nt)).unwrap();
    let params = pack_params(&k, &[out]);
    gpu.launch(&k, Dim3::x(1), Dim3::x(nt), &params).unwrap();
    let got = gpu.mem().read_u32_slice(out, nt as usize);
    assert!(got.iter().all(|&v| v == 777), "{got:?}");
}

/// Divergent loop trip counts inside one warp: lane `i` iterates `i` times,
/// accumulating into global memory; reconvergence must not lose lanes.
#[test]
fn divergent_loops_converge_correctly_across_ctas() {
    let mut b = KernelBuilder::new("divloop");
    let pout = b.param("out", Type::U64);
    let out = b.ld_param(Type::U64, pout);
    let gid = b.thread_linear_id();
    let lane = b.sreg(Special::LaneId);
    let acc = b.imm32(0);
    let i = b.imm32(0);
    let head = b.new_label();
    let done = b.new_label();
    b.place(head);
    let cond = b.setp(CmpOp::Ge, Type::U32, i, lane);
    b.bra_if(cond, done);
    crate_add(&mut b, acc, 2);
    crate_add(&mut b, i, 1);
    b.bra(head);
    b.place(done);
    let a = b.index64(out, gid, 4);
    b.st_global(Type::U32, a, acc);
    b.exit();
    let k = b.build().unwrap();

    let mut gpu = small_gpu();
    let n = 4 * 64u32;
    let out = gpu.mem().alloc_array(Type::U32, u64::from(n)).unwrap();
    let params = pack_params(&k, &[out]);
    gpu.launch(&k, Dim3::x(4), Dim3::x(64), &params).unwrap();
    let got = gpu.mem().read_u32_slice(out, n as usize);
    for (t, v) in got.iter().enumerate() {
        assert_eq!(*v, 2 * (t as u32 % 32), "thread {t}");
    }
}

fn crate_add(b: &mut KernelBuilder, dst: gcl_ptx::Reg, v: i64) {
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U32,
        dst,
        a: dst.into(),
        b: v.into(),
    });
}

/// Atomic increments from every thread of every CTA across both SMs land
/// exactly once each.
#[test]
fn atomics_are_exact_across_ctas_and_sms() {
    let mut b = KernelBuilder::new("count");
    let pctr = b.param("ctr", Type::U64);
    let ctr = b.ld_param(Type::U64, pctr);
    let addr = b.mov(Type::U64, ctr);
    let _ = b.atom(gcl_ptx::AtomOp::Add, Type::U32, addr, 1i64);
    b.exit();
    let k = b.build().unwrap();

    let mut gpu = small_gpu();
    let ctr = gpu.mem().alloc_array(Type::U32, 1).unwrap();
    let params = pack_params(&k, &[ctr]);
    let (grid, block) = (8u32, 96u32);
    gpu.launch(&k, Dim3::x(grid), Dim3::x(block), &params)
        .unwrap();
    assert_eq!(gpu.mem().read_u32_slice(ctr, 1)[0], grid * block);
}

/// A long dependent chain of uncoalesced loads exercises LD/ST queue
/// backpressure without deadlock, and finishes with correct data.
#[test]
fn ldst_backpressure_resolves() {
    // p[i] forms one big cycle; each thread chases `steps` hops.
    let steps = 16u32;
    let n = 256u32;
    let mut b = KernelBuilder::new("chase");
    let pp = b.param("p", Type::U64);
    let pout = b.param("out", Type::U64);
    let p = b.ld_param(Type::U64, pp);
    let out = b.ld_param(Type::U64, pout);
    let gid = b.thread_linear_id();
    let cur = b.mov(Type::U32, gid);
    let l = gcl_workless_loop(&mut b, steps);
    let a = b.index64(p, cur, 4);
    let nxt = b.ld_global(Type::U32, a);
    b.push(gcl_ptx::Op::Mov {
        ty: Type::U32,
        dst: cur,
        src: nxt.into(),
    });
    gcl_workless_loop_end(&mut b, l);
    let oa = b.index64(out, gid, 4);
    b.st_global(Type::U32, oa, cur);
    b.exit();
    let k = b.build().unwrap();

    let mut gpu = small_gpu();
    let pbuf = gpu.mem().alloc_array(Type::U32, u64::from(n)).unwrap();
    // Pointer-cycle with a large stride so loads never coalesce.
    let table: Vec<u32> = (0..n).map(|i| (i + 97) % n).collect();
    gpu.mem().write_u32_slice(pbuf, &table);
    let outb = gpu.mem().alloc_array(Type::U32, u64::from(n)).unwrap();
    let params = pack_params(&k, &[pbuf, outb]);
    gpu.launch(&k, Dim3::x(n / 64), Dim3::x(64), &params)
        .unwrap();
    let got = gpu.mem().read_u32_slice(outb, n as usize);
    for t in 0..n {
        let mut want = t;
        for _ in 0..steps {
            want = (want + 97) % n;
        }
        assert_eq!(got[t as usize], want, "thread {t}");
    }
}

fn gcl_workless_loop(b: &mut KernelBuilder, bound: u32) -> gcl_workloads_shim::LoopCtx {
    gcl_workloads_shim::loop_begin(b, 0i64, i64::from(bound))
}

fn gcl_workless_loop_end(b: &mut KernelBuilder, l: gcl_workloads_shim::LoopCtx) {
    gcl_workloads_shim::loop_end(b, l)
}

/// Minimal local copy of the workloads crate's loop helper (gcl-sim cannot
/// depend on gcl-workloads).
mod gcl_workloads_shim {
    use gcl_ptx::{CmpOp, KernelBuilder, Label, Operand, Reg, Type};

    #[derive(Clone, Copy)]
    pub struct LoopCtx {
        pub counter: Reg,
        head: Label,
        exit: Label,
    }

    pub fn loop_begin(
        b: &mut KernelBuilder,
        init: impl Into<Operand>,
        bound: impl Into<Operand>,
    ) -> LoopCtx {
        let counter = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: counter,
            src: init.into(),
        });
        let head = b.new_label();
        let exit = b.new_label();
        b.place(head);
        let done = b.setp(CmpOp::Ge, Type::U32, counter, bound);
        b.bra_if(done, exit);
        LoopCtx {
            counter,
            head,
            exit,
        }
    }

    pub fn loop_end(b: &mut KernelBuilder, l: LoopCtx) {
        b.push(gcl_ptx::Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: l.counter,
            a: l.counter.into(),
            b: 1i64.into(),
        });
        b.bra(l.head);
        b.place(l.exit);
    }
}

/// Deterministic-only prefetching speeds up a kernel whose warps walk
/// 128-byte lines sequentially over loop iterations (the pattern next-line
/// prefetch exists for); an N-only filter issues no prefetches for it, and
/// results are identical either way.
#[test]
fn prefetcher_is_class_selective() {
    // Each warp streams its own region: address = base + warp*iters*128 +
    // k*128 + lane*4, so iteration k+1 touches exactly the next line.
    let iters = 32u32;
    let mut b = KernelBuilder::new("warp_stream");
    let pin = b.param("input", Type::U64);
    let pout = b.param("out", Type::U64);
    let piters = b.param("iters", Type::U32);
    let input = b.ld_param(Type::U64, pin);
    let out = b.ld_param(Type::U64, pout);
    let itv = b.ld_param(Type::U32, piters);
    let gid = b.thread_linear_id();
    let warp = b.shr(Type::U32, gid, 5i64);
    let lane = b.and(Type::U32, gid, 31i64);
    let region = b.mul(Type::U32, itv, 128i64);
    let warp_off = b.mul(Type::U32, warp, region);
    let lane_off = b.mul(Type::U32, lane, 4i64);
    let start = b.add(Type::U32, warp_off, lane_off);
    let ptr = b.reg();
    let start64 = b.cvt(Type::U64, Type::U32, start);
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U64,
        dst: ptr,
        a: input.into(),
        b: start64.into(),
    });
    let acc = b.imm32(0);
    let l = gcl_workloads_shim::loop_begin(&mut b, 0i64, itv);
    let v = b.ld_global(Type::U32, ptr);
    crate_add_reg(&mut b, acc, v);
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U64,
        dst: ptr,
        a: ptr.into(),
        b: 128i64.into(),
    });
    gcl_workloads_shim::loop_end(&mut b, l);
    let oa = b.index64(out, gid, 4);
    b.st_global(Type::U32, oa, acc);
    b.exit();
    let k = b.build().unwrap();

    let n_threads = 256u32; // 8 warps
    let words = (n_threads / 32) * iters * 32;
    let run = |filter: PrefetchFilter| {
        let mut cfg = GpuConfig::small();
        cfg.prefetch = filter;
        let mut gpu = Gpu::new(cfg).unwrap();
        let input = gpu.mem().alloc_array(Type::U32, u64::from(words)).unwrap();
        gpu.mem()
            .write_u32_slice(input, &(0..words).map(|v| v % 7).collect::<Vec<_>>());
        let outb = gpu
            .mem()
            .alloc_array(Type::U32, u64::from(n_threads))
            .unwrap();
        let params = pack_params(&k, &[input, outb, u64::from(iters)]);
        let stats = gpu
            .launch(&k, Dim3::x(n_threads / 128), Dim3::x(128), &params)
            .unwrap();
        (stats, gpu.mem().read_u32_slice(outb, n_threads as usize))
    };
    let (off, off_result) = run(PrefetchFilter::Off);
    let (d_only, d_result) = run(PrefetchFilter::DeterministicOnly);
    let (n_only, n_result) = run(PrefetchFilter::NonDeterministicOnly);
    assert_eq!(off_result, d_result, "prefetching changed results");
    assert_eq!(off_result, n_result);
    assert_eq!(off.sm.prefetches_issued, 0);
    assert!(d_only.sm.prefetches_issued > 0);
    assert_eq!(n_only.sm.prefetches_issued, 0, "kernel has no N loads");
    assert!(
        d_only.cycles < off.cycles,
        "prefetch did not help: {} vs {}",
        d_only.cycles,
        off.cycles
    );
}

fn crate_add_reg(b: &mut KernelBuilder, dst: gcl_ptx::Reg, v: gcl_ptx::Reg) {
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U32,
        dst,
        a: dst.into(),
        b: v.into(),
    });
}

/// LRR and GTO produce identical functional results on a reduction-style
/// kernel, and both complete.
#[test]
fn schedulers_agree_functionally() {
    let mut b = KernelBuilder::new("sum_squares");
    let pout = b.param("out", Type::U64);
    let out = b.ld_param(Type::U64, pout);
    let gid = b.thread_linear_id();
    let sq = b.mul(Type::U32, gid, gid);
    let a = b.index64(out, gid, 4);
    b.st_global(Type::U32, a, sq);
    b.exit();
    let k = b.build().unwrap();

    let run = |policy| {
        let mut cfg = GpuConfig::small();
        cfg.warp_sched = policy;
        let mut gpu = Gpu::new(cfg).unwrap();
        let out = gpu.mem().alloc_array(Type::U32, 512).unwrap();
        let params = pack_params(&k, &[out]);
        gpu.launch(&k, Dim3::x(4), Dim3::x(128), &params).unwrap();
        gpu.mem().read_u32_slice(out, 512)
    };
    let lrr = run(gcl_sim::WarpSchedPolicy::Lrr);
    let gto = run(gcl_sim::WarpSchedPolicy::Gto);
    assert_eq!(lrr, gto);
    assert_eq!(lrr[3], 9);
}

/// Guarded (predicated) stores only write where the guard holds, across a
/// 2-D launch geometry.
#[test]
fn predication_masks_stores_in_2d_grids() {
    let mut b = KernelBuilder::new("checker");
    let pout = b.param("out", Type::U64);
    let pw = b.param("w", Type::U32);
    let out = b.ld_param(Type::U64, pout);
    let w = b.ld_param(Type::U32, pw);
    let ctaidy = b.sreg(Special::CtaIdY);
    let ntidy = b.sreg(Special::NTidY);
    let tidy = b.sreg(Special::TidY);
    let y = b.mad(Type::U32, ctaidy, ntidy, tidy);
    let x = b.thread_linear_id();
    let idx = b.mad(Type::U32, y, w, x);
    let sum = b.add(Type::U32, x, y);
    let parity = b.and(Type::U32, sum, 1i64);
    let is_even = b.setp(CmpOp::Eq, Type::U32, parity, 0i64);
    let a = b.index64(out, idx, 4);
    b.guard_next(is_even, false);
    b.st_global(Type::U32, a, 1i64);
    b.exit();
    let k = b.build().unwrap();

    let mut gpu = small_gpu();
    let (w, h) = (32u32, 16u32);
    let out = gpu.mem().alloc_array(Type::U32, u64::from(w * h)).unwrap();
    let params = pack_params(&k, &[out, u64::from(w)]);
    gpu.launch(&k, Dim3::xy(2, 4), Dim3::xy(16, 4), &params)
        .unwrap();
    let got = gpu.mem().read_u32_slice(out, (w * h) as usize);
    for y in 0..h {
        for x in 0..w {
            let want = u32::from((x + y) % 2 == 0);
            assert_eq!(got[(y * w + x) as usize], want, "({x},{y})");
        }
    }
}

/// Divergence statistics: a checkerboard branch splits every warp; a
/// uniform kernel splits none. SIMD utilization reflects active lanes.
#[test]
fn divergence_statistics_are_tracked() {
    // Divergent: lanes branch on parity.
    let mut b = KernelBuilder::new("diverge");
    let lane = b.sreg(Special::LaneId);
    let parity = b.and(Type::U32, lane, 1i64);
    let p = b.setp(CmpOp::Eq, Type::U32, parity, 0i64);
    let l = b.new_label();
    b.bra_if(p, l);
    b.imm32(1);
    b.place(l);
    b.exit();
    let k = b.build().unwrap();
    let mut gpu = small_gpu();
    let stats = gpu.launch(&k, Dim3::x(2), Dim3::x(64), &[]).unwrap();
    assert!(stats.sm.branches >= 4);
    assert_eq!(stats.sm.branches, stats.sm.divergent_branches);
    assert_eq!(stats.branch_divergence(), 1.0);

    // Uniform: all lanes agree.
    let mut b = KernelBuilder::new("uniform");
    let t = b.setp(CmpOp::Eq, Type::U32, 0i64, 0i64);
    let l = b.new_label();
    b.bra_if(t, l);
    b.imm32(1);
    b.place(l);
    b.exit();
    let k = b.build().unwrap();
    let mut gpu = small_gpu();
    let stats = gpu.launch(&k, Dim3::x(1), Dim3::x(64), &[]).unwrap();
    assert!(stats.sm.branches > 0);
    assert_eq!(stats.sm.divergent_branches, 0);
    assert_eq!(stats.branch_divergence(), 0.0);
    // Full warps, no predication: utilization 1.0.
    assert!((stats.simd_utilization(32) - 1.0).abs() < 1e-12);
}

/// Traced launches record every issued instruction (given capacity) in
/// nondecreasing cycle order with valid pcs, and dropped counts kick in
/// when capacity is exceeded.
#[test]
fn traced_launch_records_issues() {
    let mut b = KernelBuilder::new("tiny");
    let v = b.imm32(3);
    let _ = b.add(Type::U32, v, 4i64);
    b.exit();
    let k = b.build().unwrap();
    // A bounded debug trace is a trace sink like any other.
    let launch_traced = |capacity: usize| {
        let shared = Arc::new(Mutex::new(Trace::new(capacity)));
        let mut gpu = small_gpu();
        gpu.set_trace_sink(Some(Box::new(Arc::clone(&shared))));
        let stats = gpu.launch(&k, Dim3::x(2), Dim3::x(64), &[]).unwrap();
        drop(gpu);
        let trace = Arc::into_inner(shared).unwrap().into_inner().unwrap();
        (stats, trace)
    };
    let (stats, trace) = launch_traced(10_000);
    assert_eq!(trace.dropped(), 0);
    assert_eq!(trace.events().len() as u64, stats.sm.warp_insts);
    for w in trace.events().windows(2) {
        if w[0].sm == w[1].sm {
            assert!(w[0].cycle <= w[1].cycle);
        }
    }
    assert!(trace
        .events()
        .iter()
        .all(|e| (e.pc as usize) < k.insts().len()));
    assert!(trace.events().iter().all(|e| e.active != 0));

    // Capacity 2: the rest are counted as dropped.
    let (stats2, trace2) = launch_traced(2);
    assert_eq!(trace2.events().len(), 2);
    assert_eq!(trace2.dropped(), stats2.sm.warp_insts - 2);
}

/// A block with a zero dimension and a parameter block shorter than the
/// kernel's are structured errors raised before anything is queued: no
/// trace-sink bracket opens, and the GPU runs the next launch normally.
#[test]
fn malformed_launches_rejected_before_anything_is_queued() {
    let mut b = KernelBuilder::new("iota");
    let p = b.param("out", Type::U64);
    let base = b.ld_param(Type::U64, p);
    let tid = b.thread_linear_id();
    let a = b.index64(base, tid, 4);
    b.st_global(Type::U32, a, tid);
    b.exit();
    let k = b.build().unwrap();

    let mut gpu = small_gpu();
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let out = gpu.mem().alloc_array(Type::U32, 64).unwrap();
    let params = pack_params(&k, &[out]);
    for block in [
        Dim3 { x: 0, y: 1, z: 1 },
        Dim3 { x: 32, y: 0, z: 1 },
        Dim3 { x: 32, y: 1, z: 0 },
    ] {
        match gpu.launch(&k, Dim3::x(2), block, &params) {
            Err(SimError::InvalidLaunch(why)) => assert!(why.contains("zero dimension"), "{why}"),
            other => panic!("block {block:?}: expected InvalidLaunch, got {other:?}"),
        }
        assert!(!gpu.launch_active());
    }
    for short in [&params[..0], &params[..params.len() - 1]] {
        match gpu.launch_begin(&k, Dim3::x(2), Dim3::x(32), short) {
            Err(SimError::InvalidLaunch(why)) => assert!(why.contains("parameter block"), "{why}"),
            other => panic!("{} parameter bytes: got {other:?}", short.len()),
        }
        assert!(!gpu.launch_active());
    }

    gpu.launch(&k, Dim3::x(2), Dim3::x(32), &params).unwrap();
    assert_eq!(gpu.mem().read_u32_slice(out, 4), vec![0, 1, 2, 3]);
    gpu.set_trace_sink(None);
    let captured = Arc::try_unwrap(sink).unwrap().into_inner().unwrap();
    assert_eq!(captured.into_replays().len(), 1, "only the clean launch");
}

/// `out[i] = (i + ntid.x * nctaid.x) * scale` for every `i < n`, by a
/// grid-stride loop: the stride and the stored value read the geometry.
fn grid_stride(name: &str, scale: i64) -> gcl_ptx::Kernel {
    let mut b = KernelBuilder::new(name);
    let pout = b.param("out", Type::U64);
    let pn = b.param("n", Type::U32);
    let out = b.ld_param(Type::U64, pout);
    let n = b.ld_param(Type::U32, pn);
    let ntid = b.sreg(Special::NTidX);
    let nctaid = b.sreg(Special::NCtaIdX);
    let stride = b.mul(Type::U32, ntid, nctaid);
    let i = b.thread_linear_id();
    let (top, done) = (b.new_label(), b.new_label());
    b.place(top);
    let past = b.setp(CmpOp::Ge, Type::U32, i, n);
    b.bra_if(past, done);
    let v = b.add(Type::U32, i, stride);
    let v = b.mul(Type::U32, v, scale);
    let a = b.index64(out, i, 4);
    b.st_global(Type::U32, a, v);
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U32,
        dst: i,
        a: i.into(),
        b: stride.into(),
    });
    b.bra(top);
    b.place(done);
    b.exit();
    b.build().unwrap()
}

/// One GPU runs kernel A at three geometries, then kernel B, then A' (A's
/// name, another body). Each launch must produce the statistics and memory
/// a fresh GPU restored to the same state produces: reusing what the GPU
/// derived from an earlier launch (the classification, the decoded rows,
/// the fingerprint) must not change a result.
#[test]
fn repeat_launches_match_a_fresh_gpu() {
    let a = grid_stride("stride", 1);
    let b = {
        let mut b = KernelBuilder::new("other");
        let pout = b.param("out", Type::U64);
        let out = b.ld_param(Type::U64, pout);
        let tid = b.thread_linear_id();
        let addr = b.index64(out, tid, 4);
        let v = b.ld_global(Type::U32, addr);
        let w = b.add(Type::U32, v, 7i64);
        b.st_global(Type::U32, addr, w);
        b.exit();
        b.build().unwrap()
    };
    let a2 = grid_stride("stride", 3);
    assert_eq!(a.name(), a2.name());
    assert_ne!(a.fingerprint(), a2.fingerprint());

    let n = 1000u32;
    let mut gpu = small_gpu();
    let out = gpu.mem().alloc_array(Type::U32, u64::from(n)).unwrap();
    let runs = [
        (&a, 2, 64),
        (&a, 3, 96),
        (&a, 2, 64),
        (&a, 5, 32),
        (&b, 4, 64),
        (&a2, 3, 96),
    ];
    for (k, grid, block) in runs {
        let params = if k.params().len() == 2 {
            pack_params(k, &[out, u64::from(n)])
        } else {
            pack_params(k, &[out])
        };
        let before = gpu.snapshot();
        let got = gpu
            .launch(k, Dim3::x(grid), Dim3::x(block), &params)
            .unwrap();
        let mut fresh = small_gpu();
        fresh.restore(&before).unwrap();
        let want = fresh
            .launch(k, Dim3::x(grid), Dim3::x(block), &params)
            .unwrap();
        let what = format!("{} at grid {grid} x block {block}", k.name());
        assert_eq!(got, want, "{what}");
        assert_eq!(gpu.snapshot(), fresh.snapshot(), "{what}");
    }
    let vals = gpu.mem().read_u32_slice(out, n as usize);
    let stride = 3 * 96;
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, (i as u32 + stride) * 3, "out[{i}]");
    }
}
