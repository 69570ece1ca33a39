//! Random-kernel fuzzing under the sanitizer and memcheck.
//!
//! Each seed generates a kernel from a constrained PTX subset — integer
//! arithmetic, predicated branches, shared-memory traffic, uniform
//! `bar.sync`, and masked global loads/stores — that is race-free and
//! in-bounds *by construction*: every thread owns a private shared slot,
//! barriers are only emitted at top level (never inside a predicated
//! region), and every global index is masked to the buffer. Any sanitizer
//! or memcheck report is therefore a simulator bug, and every launch must
//! also be cycle-deterministic (equal digests across two runs from
//! identical initial state).

#[path = "common/fuzz_kernel.rs"]
mod fuzz_kernel;

use fuzz_kernel::{fuzz_kernel, SEEDS, THREADS, WORDS};
use gcl_ptx::Kernel;
use gcl_sim::{check_digests, pack_params, Dim3, Gpu, GpuConfig};

fn run_once(kernel: &Kernel, seed: u64) -> Option<u64> {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg.memcheck = true;
    let mut gpu = Gpu::new(cfg).unwrap();
    let buf = gpu.mem().alloc(u64::from(WORDS) * 4, 128).unwrap();
    let params = pack_params(kernel, &[buf]);
    let stats = gpu
        .launch(kernel, Dim3::x(2), Dim3::x(THREADS), &params)
        .unwrap_or_else(|e| panic!("seed {seed}: sanitized launch failed: {e}"));
    stats.digest
}

/// Every generated kernel must run clean under sanitize + memcheck, and
/// deterministically: two runs from identical initial state agree on the
/// event digest.
#[test]
fn random_kernels_run_sanitizer_and_memcheck_clean() {
    for seed in 0..SEEDS {
        let kernel = fuzz_kernel(seed);
        let first = run_once(&kernel, seed);
        let second = run_once(&kernel, seed);
        assert!(first.is_some(), "seed {seed}: digest missing");
        check_digests("fuzz", first, second).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
