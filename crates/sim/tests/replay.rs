//! Capture → replay integration at the simulator level: a launch captured
//! through a [`TraceSink`] and replayed into the timing model must
//! reproduce the execution-driven event digest, cycle count, statistics,
//! and inter-CTA locality observations exactly; and every structured
//! rejection path (wrong kernel, wrong stream count, wrong trace after
//! restore, replay/execution mode confusion) must fail with
//! `SimError::Replay`, never silently.

use std::sync::{Arc, Mutex};

use gcl_ptx::{CmpOp, Kernel, KernelBuilder, Special, Type};
use gcl_sim::{
    pack_params, Dim3, Gpu, GpuConfig, LaunchInfo, LaunchReplay, LaunchStats, MemorySink,
    ReplayError, ReplayRecord, ReplayStream, SimError, Snapshot, Trace, TraceEvent, TraceSink,
};

const N: u32 = 256;

fn san_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg
}

/// Divergent strided gather + store: exercises ALU, branches (taken and
/// divergent), global loads with varying coalescing, and exits.
fn gather_kernel() -> Kernel {
    let mut b = KernelBuilder::new("replay_gather");
    let pin = b.param("in", Type::U64);
    let pout = b.param("out", Type::U64);
    let src = b.ld_param(Type::U64, pin);
    let out = b.ld_param(Type::U64, pout);
    let gid = b.thread_linear_id();
    let lane = b.sreg(Special::LaneId);
    let acc = b.imm32(0);
    let i = b.imm32(0);
    let head = b.new_label();
    let done = b.new_label();
    b.place(head);
    let rem = b.rem(Type::U32, lane, 5i64);
    let trips = b.add(Type::U32, rem, 4i64);
    let cond = b.setp(CmpOp::Ge, Type::U32, i, trips);
    b.bra_if(cond, done);
    let a7 = b.mul(Type::U32, gid, 7i64);
    let b13 = b.mul(Type::U32, i, 13i64);
    let sum = b.add(Type::U32, a7, b13);
    let idx = b.rem(Type::U32, sum, i64::from(N));
    let addr = b.index64(src, idx, 4);
    let v = b.ld_global(Type::U32, addr);
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U32,
        dst: acc,
        a: acc.into(),
        b: v.into(),
    });
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U32,
        dst: i,
        a: i.into(),
        b: 1i64.into(),
    });
    b.bra(head);
    b.place(done);
    let oaddr = b.index64(out, gid, 4);
    b.st_global(Type::U32, oaddr, acc);
    b.exit();
    b.build().unwrap()
}

/// Barrier + shared-memory kernel: exercises barrier records, shared
/// accesses, and the sanitizer's epoch tracking under replay.
fn barrier_kernel() -> Kernel {
    let mut b = KernelBuilder::new("replay_barrier");
    let pout = b.param("out", Type::U64);
    b.shared(64 * 4);
    let out = b.ld_param(Type::U64, pout);
    let tid = b.sreg(Special::TidX);
    let gid = b.thread_linear_id();
    let saddr = b.mul(Type::U32, tid, 4i64);
    b.st_shared(Type::U32, saddr, gid);
    b.bar();
    // Read a rotated neighbor's value after the barrier.
    let plus1 = b.add(Type::U32, tid, 1i64);
    let rot = b.rem(Type::U32, plus1, 64i64);
    let raddr = b.mul(Type::U32, rot, 4i64);
    let v = b.ld_shared(Type::U32, raddr);
    let oaddr = b.index64(out, gid, 4);
    b.st_global(Type::U32, oaddr, v);
    b.exit();
    b.build().unwrap()
}

fn setup_gather(gpu: &mut Gpu) -> Vec<u8> {
    let kernel = gather_kernel();
    let src = gpu.mem().alloc_array(Type::U32, u64::from(N)).unwrap();
    let out = gpu.mem().alloc_array(Type::U32, u64::from(N)).unwrap();
    gpu.mem().write_u32_slice(
        src,
        &(0..N).map(|v| v.wrapping_mul(31) ^ 7).collect::<Vec<_>>(),
    );
    pack_params(&kernel, &[src, out])
}

/// `records` re-encoded as the one stream of a launch a [`MemorySink`]
/// captured.
fn stream_of(records: &[ReplayRecord]) -> ReplayStream {
    let mut sink = MemorySink::new();
    sink.begin_launch(&LaunchInfo {
        kernel_fp: 0,
        kernel_name: String::new(),
        grid: Dim3::x(1),
        block: Dim3::x(32),
        n_streams: 1,
    });
    for r in records {
        let ev = TraceEvent {
            cycle: 0,
            sm: 0,
            warp_slot: 0,
            cta: 0,
            pc: r.pc,
            active: r.mask,
        };
        sink.issue(0, &ev, &r.kind);
    }
    sink.end_launch();
    sink.into_replays().remove(0).streams.remove(0)
}

/// Capture `launches` launches of the gather kernel on one GPU and return
/// (per-launch stats, per-launch replays).
fn capture_gather(launches: usize) -> (Vec<LaunchStats>, Vec<LaunchReplay>) {
    let kernel = gather_kernel();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let params = setup_gather(&mut gpu);
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let mut stats = Vec::new();
    for _ in 0..launches {
        stats.push(
            gpu.launch(&kernel, Dim3::x(4), Dim3::x(64), &params)
                .unwrap(),
        );
    }
    gpu.set_trace_sink(None);
    let replays = Arc::try_unwrap(sink)
        .expect("sink detached")
        .into_inner()
        .unwrap()
        .into_replays();
    (stats, replays)
}

/// The core contract: digest, cycles, and the full statistics structure of
/// every captured launch are reproduced by replay — including the warm-L1
/// second launch, which only matches if replay runs on the same GPU in the
/// same order.
#[test]
fn replay_reproduces_digest_cycles_and_stats() {
    let (exec_stats, replays) = capture_gather(2);
    assert_eq!(replays.len(), 2);
    assert!(replays[0].n_records() > 0);

    let kernel = gather_kernel();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    // Same allocation sequence so blocktrack/addr layout observations line
    // up; replay itself never reads the buffers.
    let _params = setup_gather(&mut gpu);
    for (i, rep) in replays.iter().enumerate() {
        let stats = gpu.launch_replay(&kernel, rep).unwrap();
        assert_eq!(
            stats.digest, exec_stats[i].digest,
            "digest of launch {i} (warm-cache state must carry over)"
        );
        assert_eq!(stats.cycles, exec_stats[i].cycles, "cycles of launch {i}");
        assert_eq!(stats, exec_stats[i], "full stats of launch {i}");
    }
}

/// Inter-CTA locality observation (`pc_sharing`) is driven by the same
/// dispatch path under replay and must match.
#[test]
fn replay_reproduces_pc_sharing() {
    let kernel = gather_kernel();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let params = setup_gather(&mut gpu);
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    gpu.launch(&kernel, Dim3::x(4), Dim3::x(64), &params)
        .unwrap();
    gpu.set_trace_sink(None);
    let exec_sharing = gpu.pc_sharing();
    let rep = Arc::try_unwrap(sink)
        .expect("sink detached")
        .into_inner()
        .unwrap()
        .into_replays()
        .remove(0);
    assert!(!exec_sharing.is_empty(), "gather must share blocks");

    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let _params = setup_gather(&mut gpu);
    gpu.launch_replay(&kernel, &rep).unwrap();
    assert_eq!(gpu.pc_sharing(), exec_sharing);
}

/// Barriers and shared memory survive the round trip (same digest and
/// cycle count), with the sanitizer on throughout.
#[test]
fn replay_handles_barriers_and_shared_memory() {
    let kernel = barrier_kernel();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let out = gpu.mem().alloc_array(Type::U32, 256).unwrap();
    let params = pack_params(&kernel, &[out]);
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let exec = gpu
        .launch(&kernel, Dim3::x(4), Dim3::x(64), &params)
        .unwrap();
    gpu.set_trace_sink(None);
    let rep = Arc::try_unwrap(sink)
        .expect("sink detached")
        .into_inner()
        .unwrap()
        .into_replays()
        .remove(0);

    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let _out = gpu.mem().alloc_array(Type::U32, 256).unwrap();
    let stats = gpu.launch_replay(&kernel, &rep).unwrap();
    assert_eq!(stats.digest, exec.digest);
    assert_eq!(stats.cycles, exec.cycles);
}

/// Replaying against the wrong kernel, or with a stream count that
/// contradicts the geometry, is rejected by name before any state changes.
#[test]
fn replay_validation_rejects_mismatches() {
    let (_, mut replays) = capture_gather(1);
    let rep = replays.remove(0);

    let mut imposter = KernelBuilder::new("imposter");
    imposter.exit();
    let imposter = imposter.build().unwrap();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    match gpu.launch_replay(&imposter, &rep) {
        Err(SimError::Replay(ReplayError::KernelMismatch { .. })) => {}
        other => panic!("expected KernelMismatch, got {other:?}"),
    }
    assert!(
        !gpu.launch_active(),
        "rejected replay left no launch behind"
    );

    let kernel = gather_kernel();
    let mut short = rep.clone();
    short.streams.pop();
    match gpu.launch_replay(&kernel, &short) {
        Err(SimError::Replay(ReplayError::StreamCount { found, expected })) => {
            assert_eq!(found + 1, expected);
        }
        other => panic!("expected StreamCount, got {other:?}"),
    }
    assert!(!gpu.launch_active());

    // The GPU is still fully usable for the real replay.
    gpu.launch_replay(&kernel, &rep).unwrap();
}

/// A replay launch restored from a snapshot stepped without its trace, or
/// an execution launch handed a trace, is a structured error.
#[test]
fn replay_mode_confusion_rejected() {
    let (_, mut replays) = capture_gather(1);
    let rep = replays.remove(0);
    let kernel = gather_kernel();

    let mut gpu = Gpu::new(san_cfg()).unwrap();
    gpu.launch_replay_begin(&kernel, &rep).unwrap();
    assert!(gpu.launch_step(&kernel).unwrap().is_none());
    let snap = Snapshot::from_bytes(&gpu.snapshot().to_bytes()).unwrap();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    gpu.restore(&snap).unwrap();
    match gpu.launch_step(&kernel) {
        Err(SimError::Replay(ReplayError::MissingReplay)) => {}
        other => panic!("expected MissingReplay, got {other:?}"),
    }
    // The error is non-destructive: the replay still completes.
    gpu.launch_replay_resume(&kernel, &rep).unwrap();

    let params = setup_gather(&mut gpu);
    gpu.launch_begin(&kernel, Dim3::x(4), Dim3::x(64), &params)
        .unwrap();
    match gpu.launch_replay_resume(&kernel, &rep) {
        Err(SimError::Replay(ReplayError::NotReplayLaunch)) => {}
        other => panic!("expected NotReplayLaunch, got {other:?}"),
    }
    gpu.launch_resume(&kernel).unwrap();
}

/// Replay ∘ checkpoint: snapshot a replay mid-flight, restore into a fresh
/// GPU, resume with the same trace — digest and cycles match the reference;
/// resuming with a *different* trace is rejected as TraceMismatch.
#[test]
fn replay_composes_with_checkpoint() {
    let (exec_stats, mut replays) = capture_gather(1);
    let rep = replays.remove(0);
    let kernel = gather_kernel();

    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let reference = gpu.launch_replay(&kernel, &rep).unwrap();
    assert_eq!(reference.digest, exec_stats[0].digest);

    for off in [0, reference.cycles / 2, reference.cycles - 1] {
        let mut gpu = Gpu::new(san_cfg()).unwrap();
        gpu.launch_replay_begin(&kernel, &rep).unwrap();
        while gpu.launch_cycle() != Some(off) {
            assert!(
                gpu.launch_step(&kernel).unwrap().is_none(),
                "replay completed before offset {off}"
            );
        }
        let snap = Snapshot::from_bytes(&gpu.snapshot().to_bytes()).unwrap();

        let mut fresh = Gpu::new(san_cfg()).unwrap();
        fresh.restore(&snap).unwrap();
        assert!(fresh.launch_active());

        // Wrong trace at resume: one flipped record must be caught.
        let mut wrong = rep.clone();
        let mut s0: Vec<_> = wrong.streams[0].records().collect();
        s0[0].mask ^= 1;
        wrong.streams[0] = stream_of(&s0);
        match fresh.launch_replay_resume(&kernel, &wrong) {
            Err(SimError::Replay(ReplayError::TraceMismatch { .. })) => {}
            other => panic!("expected TraceMismatch at offset {off}, got {other:?}"),
        }

        // Right trace: cycle-exact completion.
        assert!(fresh.launch_active(), "rejection left the launch intact");
        let stats = fresh.launch_replay_resume(&kernel, &rep).unwrap();
        assert_eq!(stats.digest, reference.digest, "digest at offset {off}");
        assert_eq!(stats.cycles, reference.cycles, "cycles at offset {off}");
    }
}

/// The in-process resume self-test hook (snapshot + restore at cycle K
/// inside `step_inner`) also holds under replay.
#[test]
fn replay_survives_resume_selftest() {
    let (_, mut replays) = capture_gather(1);
    let rep = replays.remove(0);
    let kernel = gather_kernel();

    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let reference = gpu.launch_replay(&kernel, &rep).unwrap();

    for off in [0, reference.cycles / 2, reference.cycles - 1] {
        let mut gpu = Gpu::new(san_cfg()).unwrap();
        gpu.set_resume_selftest(Some(off));
        let stats = gpu.launch_replay(&kernel, &rep).unwrap();
        assert_eq!(stats.digest, reference.digest, "selftest at cycle {off}");
        assert_eq!(stats.cycles, reference.cycles);
    }
}

/// An armed debug trace surfaces its drop count in the launch stats
/// (satellite of `gcl run --trace`).
#[test]
fn armed_debug_trace_reports_drops_in_stats() {
    let kernel = gather_kernel();
    let mut gpu = Gpu::new(GpuConfig::small()).unwrap();
    let params = setup_gather(&mut gpu);
    let shared = Arc::new(Mutex::new(Trace::new(8)));
    gpu.set_trace_sink(Some(Box::new(Arc::clone(&shared))));
    let stats = gpu
        .launch(&kernel, Dim3::x(4), Dim3::x(64), &params)
        .unwrap();
    let trace = shared.lock().unwrap();
    assert!(stats.trace_dropped > 0, "8-slot trace must overflow");
    assert_eq!(stats.trace_dropped, trace.dropped());
    assert_eq!(trace.events().len(), 8);

    // Unarmed launches report zero.
    let mut gpu = Gpu::new(GpuConfig::small()).unwrap();
    let params = setup_gather(&mut gpu);
    let stats = gpu
        .launch(&kernel, Dim3::x(4), Dim3::x(64), &params)
        .unwrap();
    assert_eq!(stats.trace_dropped, 0);
}
