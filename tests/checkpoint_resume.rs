//! Resume-equivalence over the whole benchmark suite: snapshotting any
//! tiny workload mid-launch, serialising the snapshot to bytes, restoring
//! it and continuing must reproduce the exact event digest of an
//! uninterrupted run. This is the correctness anchor of the checkpoint
//! subsystem — a checkpoint that loses any timing-relevant state shows up
//! here as a digest mismatch on at least one workload. The same holds
//! through `gcl run --checkpoint-every` and `--resume`, whose checkpoint
//! files are the bytes the library writes.

use gcl::prelude::*;
use gcl::workloads::tiny_workloads;
use std::process::{Command, Output};

fn sanitized_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg
}

/// Every tiny workload, interrupted at several cycle offsets (the snapshot
/// round-trips through bytes each time, on every launch the workload
/// performs), finishes with the digest, cycle count and output of an
/// uninterrupted run.
#[test]
fn every_tiny_workload_resumes_digest_identical() {
    for w in tiny_workloads() {
        let mut gpu = Gpu::new(sanitized_cfg()).expect("small config is valid");
        let reference = w.run(&mut gpu).expect("uninterrupted run completes");
        let ref_digest = reference.stats.digest.expect("sanitize produces a digest");

        // Cycle 0 (before the first step), cycle 1, mid-run, and one cycle
        // before the end of the longest launch. Offsets past a launch's
        // length simply never fire for that launch; offset 0 fires for all.
        let cycles = reference.stats.cycles;
        let offsets = [0, 1, cycles / 2, cycles.saturating_sub(1)];
        for at in offsets {
            let mut gpu = Gpu::new(sanitized_cfg()).expect("small config is valid");
            gpu.set_resume_selftest(Some(at));
            let run = w
                .run(&mut gpu)
                .unwrap_or_else(|e| panic!("{} interrupted at cycle {at}: {e}", w.name()));
            assert_eq!(
                run.stats.digest,
                Some(ref_digest),
                "{} resumed at cycle {at} diverged from the uninterrupted run",
                w.name()
            );
            assert_eq!(
                run.stats.cycles,
                reference.stats.cycles,
                "{} resumed at cycle {at} took a different number of cycles",
                w.name()
            );
        }
    }
}

fn gcl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("run gcl binary")
}

/// The `event digest` line of a `gcl run`.
fn event_digest(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    text.lines()
        .find(|l| l.starts_with("event digest"))
        .unwrap_or_else(|| panic!("no event digest in:\n{text}"))
        .to_string()
}

/// A run checkpointed every 50 cycles, resumed from its last checkpoint
/// file, prints the uninterrupted run's event digest; the same file cut to
/// 100 bytes is refused.
#[test]
fn cli_resume_prints_the_uninterrupted_digest() {
    let dir = std::env::temp_dir().join(format!("gcl-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let ckpt = dir.join("gather.ckpt");
    let ckpt = ckpt.to_str().expect("utf8 path");
    let full = gcl(&[
        "run",
        "examples/gather.ptx",
        "--grid",
        "8",
        "--block",
        "64",
        "--alloc",
        "2048",
        "--alloc",
        "2048",
        "--param",
        "512",
        "--sanitize",
        "--checkpoint-every",
        "50",
        "--checkpoint-file",
        ckpt,
    ]);
    let resumed = gcl(&["run", "examples/gather.ptx", "--sanitize", "--resume", ckpt]);
    let resumed_from = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed_from.starts_with("(resuming `gather` at cycle "),
        "{resumed_from}"
    );
    assert_eq!(event_digest(&resumed), event_digest(&full));

    let truncated = dir.join("truncated.ckpt");
    let bytes = std::fs::read(ckpt).expect("read checkpoint");
    std::fs::write(&truncated, &bytes[..100]).expect("write truncated checkpoint");
    let out = gcl(&[
        "run",
        "examples/gather.ptx",
        "--sanitize",
        "--resume",
        truncated.to_str().expect("utf8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a truncated checkpoint is refused: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}
