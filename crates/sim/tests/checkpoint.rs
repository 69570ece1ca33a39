//! Checkpoint/restore integration: a launch interrupted at any cycle and
//! resumed — in the same process or in a freshly built GPU — must finish
//! with the identical event digest, cycle count, and memory image as an
//! uninterrupted run; and every rejection path (truncation, corruption,
//! version/config/kernel mismatch) must surface `SimError::Checkpoint`
//! while leaving the target GPU untouched.

use gcl_ptx::{CmpOp, Kernel, KernelBuilder, Special, Type};
use gcl_sim::{
    pack_params, CheckpointError, Dim3, Gpu, GpuConfig, MemorySink, SimError, Snapshot,
    SNAPSHOT_VERSION,
};
use std::sync::{Arc, Mutex};

const N: u32 = 256;

fn add_in_place(b: &mut KernelBuilder, dst: gcl_ptx::Reg, v: gcl_ptx::Operand) {
    b.push(gcl_ptx::Op::Alu {
        op: gcl_ptx::AluOp::Add,
        ty: Type::U32,
        dst,
        a: dst.into(),
        b: v,
    });
}

fn san_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg
}

/// A workload with enough going on to exercise every snapshotted structure:
/// a per-thread loop of strided global loads (L1/L2/DRAM traffic in flight
/// at most cycles), divergence, and a final store.
fn workload() -> Kernel {
    let mut b = KernelBuilder::new("ckpt_gather");
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
    // Lane l iterates 4 + (l % 5) times: divergent trip counts.
    let rem = b.rem(Type::U32, lane, 5i64);
    let trips = b.add(Type::U32, rem, 4i64);
    let cond = b.setp(CmpOp::Ge, Type::U32, i, trips);
    b.bra_if(cond, done);
    // Strided gather: index = (gid * 7 + i * 13) % N.
    let a7 = b.mul(Type::U32, gid, 7i64);
    let b13 = b.mul(Type::U32, i, 13i64);
    let sum = b.add(Type::U32, a7, b13);
    let idx = b.rem(Type::U32, sum, i64::from(N));
    let addr = b.index64(src, idx, 4);
    let v = b.ld_global(Type::U32, addr);
    add_in_place(&mut b, acc, v.into());
    add_in_place(&mut b, i, 1i64.into());
    b.bra(head);
    b.place(done);
    let oaddr = b.index64(out, gid, 4);
    b.st_global(Type::U32, oaddr, acc);
    b.exit();
    b.build().unwrap()
}

/// Fresh GPU with the workload's buffers allocated and filled; allocation
/// order is deterministic, so two calls produce byte-identical setups.
fn setup(cfg: GpuConfig) -> (Gpu, Vec<u8>, u64) {
    let kernel = workload();
    let mut gpu = Gpu::new(cfg).unwrap();
    let src = gpu.mem().alloc_array(Type::U32, u64::from(N)).unwrap();
    let out = gpu.mem().alloc_array(Type::U32, u64::from(N)).unwrap();
    gpu.mem().write_u32_slice(
        src,
        &(0..N).map(|v| v.wrapping_mul(31) ^ 7).collect::<Vec<_>>(),
    );
    let params = pack_params(&kernel, &[src, out]);
    (gpu, params, out)
}

fn launch_dims() -> (Dim3, Dim3) {
    (Dim3::x(4), Dim3::x(64))
}

/// Uninterrupted reference run: (digest, cycles, final out[] image).
fn reference() -> (u64, u64, Vec<u32>) {
    let kernel = workload();
    let (mut gpu, params, out) = setup(san_cfg());
    let (grid, block) = launch_dims();
    let stats = gpu.launch(&kernel, grid, block, &params).unwrap();
    let image = gpu.mem().read_u32_slice(out, N as usize);
    (stats.digest.unwrap(), stats.cycles, image)
}

/// Interrupt at several relative cycles — including 0 (before any work) and
/// one cycle before completion — serialize, restore into a *fresh* GPU, and
/// resume. Digest, cycle count, and memory must match the reference run.
#[test]
fn resume_digest_identical_at_every_offset() {
    let (ref_digest, ref_cycles, ref_image) = reference();
    assert!(
        ref_cycles > 4,
        "workload too short to interrupt: {ref_cycles}"
    );
    let kernel = workload();
    let (grid, block) = launch_dims();
    for off in [0, 1, ref_cycles / 3, ref_cycles / 2, ref_cycles - 1] {
        let (mut gpu, params, _) = setup(san_cfg());
        gpu.launch_begin(&kernel, grid, block, &params).unwrap();
        while gpu.launch_cycle() != Some(off) {
            assert!(
                gpu.launch_step(&kernel).unwrap().is_none(),
                "completed before reaching offset {off}"
            );
        }
        let snap = Snapshot::from_bytes(&gpu.snapshot().to_bytes()).unwrap();

        let (mut fresh, _, out) = setup(san_cfg());
        fresh.restore(&snap).unwrap();
        assert!(fresh.launch_active());
        assert_eq!(fresh.launch_cycle(), Some(off));
        assert_eq!(fresh.launch_kernel_name(), Some("ckpt_gather"));
        let stats = fresh.launch_resume(&kernel).unwrap();
        assert_eq!(stats.digest.unwrap(), ref_digest, "digest at offset {off}");
        assert_eq!(stats.cycles, ref_cycles, "cycles at offset {off}");
        assert_eq!(
            fresh.mem().read_u32_slice(out, N as usize),
            ref_image,
            "memory at offset {off}"
        );
    }
}

/// The in-process resume self-test hook (serialize + restore at cycle K,
/// then continue) must be digest-invisible.
#[test]
fn resume_selftest_hook_is_digest_invisible() {
    let (ref_digest, ref_cycles, _) = reference();
    let kernel = workload();
    let (grid, block) = launch_dims();
    for off in [0, ref_cycles / 2, ref_cycles - 1] {
        let (mut gpu, params, _) = setup(san_cfg());
        gpu.set_resume_selftest(Some(off));
        let stats = gpu.launch(&kernel, grid, block, &params).unwrap();
        assert_eq!(stats.digest.unwrap(), ref_digest, "selftest at cycle {off}");
        assert_eq!(stats.cycles, ref_cycles);
    }
}

/// An idle snapshot (memory + warm caches, no launch) restores into a fresh
/// GPU that then reproduces the reference run exactly.
#[test]
fn idle_snapshot_roundtrips_into_fresh_gpu() {
    let (ref_digest, ref_cycles, ref_image) = reference();
    let kernel = workload();
    let (gpu, params, out) = setup(san_cfg());
    let snap = Snapshot::from_bytes(&gpu.snapshot().to_bytes()).unwrap();

    let mut fresh = Gpu::new(san_cfg()).unwrap();
    fresh.restore(&snap).unwrap();
    assert!(!fresh.launch_active());
    let (grid, block) = launch_dims();
    let stats = fresh.launch(&kernel, grid, block, &params).unwrap();
    assert_eq!(stats.digest.unwrap(), ref_digest);
    assert_eq!(stats.cycles, ref_cycles);
    assert_eq!(fresh.mem().read_u32_slice(out, N as usize), ref_image);
}

/// Mid-launch snapshot of a real run: every strided truncation of the byte
/// image is rejected, and every strided single-byte corruption is caught by
/// the container checksum.
#[test]
fn real_snapshot_truncation_and_corruption_rejected() {
    let kernel = workload();
    let (mut gpu, params, _) = setup(san_cfg());
    let (grid, block) = launch_dims();
    gpu.launch_begin(&kernel, grid, block, &params).unwrap();
    for _ in 0..20 {
        gpu.launch_step(&kernel).unwrap();
    }
    let bytes = gpu.snapshot().to_bytes();
    for n in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
        assert!(
            Snapshot::from_bytes(&bytes[..n]).is_err(),
            "truncation to {n} of {} accepted",
            bytes.len()
        );
    }
    for i in (0..bytes.len()).step_by(89).chain([8, bytes.len() - 1]) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x20;
        assert!(
            Snapshot::from_bytes(&bad).is_err(),
            "flip at byte {i} of {} accepted",
            bytes.len()
        );
    }
}

/// A truncated or trailing-garbage *payload* (container intact) is rejected
/// by restore, and the rejected GPU is left fully usable.
#[test]
fn malformed_payload_rejected_without_corrupting_gpu() {
    let kernel = workload();
    let (mut gpu, params, _) = setup(san_cfg());
    let (grid, block) = launch_dims();
    gpu.launch_begin(&kernel, grid, block, &params).unwrap();
    for _ in 0..20 {
        gpu.launch_step(&kernel).unwrap();
    }
    let snap = gpu.snapshot();

    let (ref_digest, _, _) = reference();
    let (mut victim, vparams, _) = setup(san_cfg());
    for cut in [0, 1, snap.payload.len() / 2, snap.payload.len() - 1] {
        let mut bad = snap.clone();
        bad.payload.truncate(cut);
        let err = victim
            .restore(&bad)
            .expect_err("truncated payload accepted");
        assert!(matches!(err, SimError::Checkpoint(_)), "{err}");
    }
    let mut bad = snap.clone();
    bad.payload.push(0);
    let err = victim
        .restore(&bad)
        .expect_err("trailing payload byte accepted");
    assert!(
        matches!(
            &err,
            SimError::Checkpoint(CheckpointError::Malformed(_) | CheckpointError::Truncated)
        ),
        "{err}"
    );
    // The victim never picked up any partial state: it still runs the
    // reference workload to the reference digest.
    let stats = victim.launch(&kernel, grid, block, &vparams).unwrap();
    assert_eq!(stats.digest.unwrap(), ref_digest);
}

/// Version and configuration mismatches are rejected by name.
#[test]
fn version_and_config_mismatch_rejected() {
    let (gpu, _, _) = setup(san_cfg());
    let snap = gpu.snapshot();

    let mut wrong_version = snap.clone();
    wrong_version.version = SNAPSHOT_VERSION + 1;
    let mut target = Gpu::new(san_cfg()).unwrap();
    match target.restore(&wrong_version) {
        Err(SimError::Checkpoint(CheckpointError::VersionMismatch { found, expected })) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }

    let mut other_cfg = san_cfg();
    other_cfg.hang_cycles += 1;
    let mut target = Gpu::new(other_cfg).unwrap();
    match target.restore(&snap) {
        Err(SimError::Checkpoint(CheckpointError::ConfigMismatch { .. })) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
}

/// Resuming a restored launch with the wrong kernel is rejected without
/// destroying the launch; the right kernel still resumes to completion.
#[test]
fn resume_with_wrong_kernel_rejected() {
    let kernel = workload();
    let (mut gpu, params, _) = setup(san_cfg());
    let (grid, block) = launch_dims();
    gpu.launch_begin(&kernel, grid, block, &params).unwrap();
    for _ in 0..10 {
        gpu.launch_step(&kernel).unwrap();
    }
    let snap = gpu.snapshot();

    let mut imposter = KernelBuilder::new("imposter");
    imposter.exit();
    let imposter = imposter.build().unwrap();

    let (mut fresh, _, _) = setup(san_cfg());
    fresh.restore(&snap).unwrap();
    match fresh.launch_resume(&imposter) {
        Err(SimError::Checkpoint(CheckpointError::KernelMismatch { .. })) => {}
        other => panic!("expected KernelMismatch, got {other:?}"),
    }
    // The rejection is non-destructive: the true kernel still finishes.
    assert!(fresh.launch_active());
    let (ref_digest, _, _) = reference();
    let stats = fresh.launch_resume(&kernel).unwrap();
    assert_eq!(stats.digest.unwrap(), ref_digest);
}

/// `snap` with its launch's parameter block cut to nothing: the payload
/// holds `params` behind a `u64` length, and `to_bytes` reseals the
/// container, so the result is checksum-valid.
fn without_params(mut snap: Snapshot, params: &[u8]) -> Snapshot {
    let mut field = (params.len() as u64).to_le_bytes().to_vec();
    field.extend_from_slice(params);
    let at = snap
        .payload
        .windows(field.len())
        .position(|w| w == field)
        .expect("the parameter block is in the payload");
    snap.payload
        .splice(at..at + field.len(), 0u64.to_le_bytes());
    snap
}

/// A restored launch whose parameter block is shorter than the kernel's is
/// rejected as malformed on its first step, not by a panic at the first
/// `ld.param`; like a kernel mismatch, the rejection leaves it in place.
#[test]
fn restored_short_parameter_block_rejected() {
    let kernel = workload();
    let (mut gpu, params, _) = setup(san_cfg());
    let (grid, block) = launch_dims();
    gpu.launch_begin(&kernel, grid, block, &params).unwrap();
    let snap = without_params(gpu.snapshot(), &params);
    let snap = Snapshot::from_bytes(&snap.to_bytes()).unwrap();

    let (mut fresh, _, _) = setup(san_cfg());
    fresh.restore(&snap).unwrap();
    match fresh.launch_step(&kernel) {
        Err(SimError::Checkpoint(CheckpointError::Malformed(why))) => {
            assert!(why.contains("parameter block"), "{why}");
        }
        other => panic!("expected a malformed checkpoint, got {other:?}"),
    }
    assert!(fresh.launch_active());
}

/// Stepping or resuming with no launch in flight is a structured error,
/// not a panic.
#[test]
fn step_without_launch_is_an_error() {
    let kernel = workload();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    assert!(matches!(
        gpu.launch_step(&kernel),
        Err(SimError::Checkpoint(CheckpointError::Malformed(_)))
    ));
    assert!(matches!(
        gpu.launch_resume(&kernel),
        Err(SimError::Checkpoint(CheckpointError::Malformed(_)))
    ));
}

/// Replay ∘ checkpoint composition, from the checkpoint side: a snapshot
/// taken mid-flight through a *replay-driven* launch of the divergent
/// gather workload must serialize the per-warp replay cursors through
/// `to_bytes`/`from_bytes`, restore into a fresh GPU, and resume — with
/// the original trace — to the digest and cycle count of the uninterrupted
/// run. Divergent trip counts make the cursors genuinely non-uniform, which
/// `replay.rs`'s uniform gather does not; the replay-side rejection matrix
/// (wrong trace, mode confusion) lives there.
#[test]
fn replay_launch_checkpoints_like_an_execution_launch() {
    let (ref_digest, ref_cycles, _) = reference();
    let kernel = workload();
    let (grid, block) = launch_dims();

    // Capture the reference launch through a memory sink.
    let (mut gpu, params, _) = setup(san_cfg());
    let sink = Arc::new(Mutex::new(MemorySink::new()));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let stats = gpu.launch(&kernel, grid, block, &params).unwrap();
    gpu.set_trace_sink(None);
    assert_eq!(stats.digest.unwrap(), ref_digest, "capture is invisible");
    let rep = Arc::try_unwrap(sink)
        .expect("capture sink detached")
        .into_inner()
        .unwrap()
        .into_replays()
        .remove(0);

    for off in [0, ref_cycles / 2, ref_cycles - 1] {
        let (mut gpu, _, _) = setup(san_cfg());
        gpu.launch_replay_begin(&kernel, &rep).unwrap();
        while gpu.launch_cycle() != Some(off) {
            assert!(
                gpu.launch_step(&kernel).unwrap().is_none(),
                "replay completed before offset {off}"
            );
        }
        let snap = Snapshot::from_bytes(&gpu.snapshot().to_bytes()).unwrap();

        let (mut fresh, _, _) = setup(san_cfg());
        fresh.restore(&snap).unwrap();
        assert!(fresh.launch_active());
        let stats = fresh.launch_replay_resume(&kernel, &rep).unwrap();
        assert_eq!(stats.digest.unwrap(), ref_digest, "digest at offset {off}");
        assert_eq!(stats.cycles, ref_cycles, "cycles at offset {off}");
    }
}

/// The hang watchdog leaves a parseable snapshot of the wedged launch
/// behind; restoring it reproduces the hang (the state really is the
/// mid-flight deadlock, not a post-teardown husk).
#[test]
fn hang_watchdog_dumps_restorable_snapshot() {
    let mut b = KernelBuilder::new("bar_mismatch");
    let tid = b.sreg(Special::TidX);
    let hi = b.setp(CmpOp::Ge, Type::U32, tid, 32i64);
    let other = b.new_label();
    let done = b.new_label();
    b.bra_if(hi, other);
    b.bar_id(0); // warp 0 waits at barrier 0 ...
    b.bra(done);
    b.place(other);
    b.bar_id(1); // ... warp 1 at barrier 1: nobody ever releases either.
    b.place(done);
    b.exit();
    let kernel = b.build().unwrap();

    let mut cfg = GpuConfig::small();
    cfg.hang_cycles = 2_000;
    cfg.max_cycles = 10_000_000;
    let mut gpu = Gpu::new(cfg.clone()).unwrap();
    let params = pack_params(&kernel, &[]);
    let err = gpu
        .launch(&kernel, Dim3::x(1), Dim3::x(64), &params)
        .expect_err("mismatched barriers must deadlock");
    assert!(matches!(err, SimError::Hang(_)), "{err}");
    let snap = gpu
        .take_hang_snapshot()
        .expect("watchdog dumped a snapshot");
    assert!(gpu.take_hang_snapshot().is_none(), "dump is taken once");

    let restored = Snapshot::from_bytes(&snap.to_bytes()).unwrap();
    let mut fresh = Gpu::new(cfg).unwrap();
    fresh.restore(&restored).unwrap();
    assert!(fresh.launch_active(), "hang dump is a mid-launch snapshot");
    match fresh.launch_resume(&kernel) {
        Err(SimError::Hang(report)) => {
            let stuck: Vec<_> = report
                .sms
                .iter()
                .flat_map(|sm| &sm.warps)
                .filter(|w| w.at_barrier.is_some())
                .collect();
            assert_eq!(stuck.len(), 2, "both warps still parked at barriers");
        }
        other => panic!("restored deadlock must hang again, got {other:?}"),
    }
}
