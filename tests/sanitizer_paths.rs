//! Integration tests of the simsan runtime sanitizer: each injectable
//! violation produces its structured report, the shared-memory race
//! detector separates racy from barrier-correct kernels, and the whole
//! tiny suite runs sanitizer-clean with reproducible digests.

use gcl_ptx::{Kernel, KernelBuilder, Special, Type};
use gcl_sim::{
    check_digests, pack_params, ConservationKind, Dim3, Gpu, GpuConfig, SanInject, SanitizerReport,
    SimError,
};
use gcl_workloads::{tiny_workloads, Workload};

fn sanitize_gpu(inject: SanInject) -> Gpu {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg.san_inject = inject;
    Gpu::new(cfg).expect("small config with sanitize is valid")
}

/// One store per thread: `buf[tid] = tid`.
fn store_kernel() -> Kernel {
    let mut b = KernelBuilder::new("san_store");
    let p = b.param("buf", Type::U64);
    let base = b.ld_param(Type::U64, p);
    let tid = b.thread_linear_id();
    let addr = b.index64(base, tid, 4);
    b.st_global(Type::U32, addr, tid);
    b.exit();
    b.build().unwrap()
}

/// One load + store per thread: `buf[tid] <<= 1`.
fn load_kernel() -> Kernel {
    let mut b = KernelBuilder::new("san_load");
    let p = b.param("buf", Type::U64);
    let base = b.ld_param(Type::U64, p);
    let tid = b.thread_linear_id();
    let addr = b.index64(base, tid, 4);
    let v = b.ld_global(Type::U32, addr);
    let v2 = b.shl(Type::U32, v, 1i64);
    b.st_global(Type::U32, addr, v2);
    b.exit();
    b.build().unwrap()
}

fn launch(gpu: &mut Gpu, kernel: &Kernel) -> Result<gcl_sim::LaunchStats, SimError> {
    let buf = gpu.mem().alloc(4 * 64, 128).unwrap();
    let params = pack_params(kernel, &[buf]);
    gpu.launch(kernel, Dim3::x(1), Dim3::x(32), &params)
}

fn expect_conservation(err: SimError) -> gcl_sim::ConservationReport {
    match err {
        SimError::Sanitizer(report) => match *report {
            SanitizerReport::Conservation(r) => r,
            other => panic!("expected a conservation report, got {other}"),
        },
        other => panic!("expected SimError::Sanitizer, got {other}"),
    }
}

/// A store silently dropped between the L1 miss queue and the interconnect
/// leaves nothing waiting — the launch completes normally, and ONLY the
/// end-of-launch drain check can see the loss. The leak report must name
/// the store, its block, and its last-known stage.
#[test]
fn dropped_store_is_reported_as_a_leak_at_launch_end() {
    let mut gpu = sanitize_gpu(SanInject::DropIcntStore { nth: 1 });
    let kernel = store_kernel();
    let err = launch(&mut gpu, &kernel).expect_err("dropped store must leak");
    let r = expect_conservation(err);
    assert!(
        matches!(r.kind, ConservationKind::Leak { live: 1 }),
        "one tracked request leaked: {:?}",
        r.kind
    );
    assert!(r.is_write, "the leaked request is the dropped store");
    assert_eq!(r.stage, gcl_sim::SanStage::MissQueue);
    let rendered = r.to_string();
    assert!(rendered.contains("still live at launch end"), "{rendered}");
    assert!(rendered.contains("store of block"), "{rendered}");
    // The GPU stays usable, and the injection (part of its config) re-fires
    // deterministically: the rerun reports the same leak, not corruption.
    let again = expect_conservation(
        launch(&mut gpu, &kernel).expect_err("injection re-fires on the rerun"),
    );
    assert_eq!(again.kind, r.kind);
}

/// A read response delivered twice must be caught on its second delivery,
/// as a double response for an already-completed request.
#[test]
fn duplicated_response_is_reported_as_a_double_response() {
    let mut gpu = sanitize_gpu(SanInject::DuplicateResponse { nth: 1 });
    let kernel = load_kernel();
    let err = launch(&mut gpu, &kernel).expect_err("duplicated response must be caught");
    let r = expect_conservation(err);
    assert!(
        matches!(r.kind, ConservationKind::DoubleResponse { .. }),
        "{:?}",
        r.kind
    );
    assert!(!r.is_write);
    let rendered = r.to_string();
    assert!(rendered.contains("double response"), "{rendered}");
}

/// A fill whose MSHR entry vanished has no waiting request to release; the
/// sanitizer must report it instead of silently dropping the data (or
/// panicking, as the debug assertion otherwise would).
#[test]
fn dropped_mshr_entry_is_reported_as_response_without_request() {
    let mut gpu = sanitize_gpu(SanInject::DropMshrEntry { nth: 1 });
    let kernel = load_kernel();
    let err = launch(&mut gpu, &kernel).expect_err("orphaned fill must be caught");
    let r = expect_conservation(err);
    assert_eq!(r.kind, ConservationKind::ResponseWithoutRequest);
    let rendered = r.to_string();
    assert!(rendered.contains("no waiting request"), "{rendered}");
}

/// The determinism audit: identical runs produce identical digests; the
/// DigestNoise injection makes them diverge and `check_digests` must
/// report exactly that.
#[test]
fn digest_noise_fails_the_determinism_audit() {
    let kernel = load_kernel();
    let run = |inject| {
        let mut gpu = sanitize_gpu(inject);
        launch(&mut gpu, &kernel).expect("launch completes").digest
    };

    let clean_a = run(SanInject::None);
    let clean_b = run(SanInject::None);
    assert!(clean_a.is_some(), "sanitized runs expose a digest");
    assert_eq!(clean_a, clean_b, "identical runs must agree");
    check_digests("san_load", clean_a, clean_b).expect("clean digests compare equal");

    let noisy_a = run(SanInject::DigestNoise);
    let noisy_b = run(SanInject::DigestNoise);
    let err = check_digests("san_load", noisy_a, noisy_b).expect_err("salted digests must diverge");
    match *err {
        SanitizerReport::Determinism(r) => {
            assert_eq!(r.workload, "san_load");
            assert_ne!(r.first, r.second);
            let rendered = r.to_string();
            assert!(rendered.contains("determinism violated"), "{rendered}");
        }
        other => panic!("expected a determinism report, got {other}"),
    }
}

/// Build the two-warp shared-memory exchange kernel: every thread stores
/// to its own shared slot, then reads its cross-warp partner's slot
/// (`tid ^ 32`). Without a barrier between the phases that is a textbook
/// cross-warp race; with one it is the canonical correct idiom.
fn exchange_kernel(with_barrier: bool) -> Kernel {
    let name = if with_barrier {
        "exchange_ok"
    } else {
        "exchange_racy"
    };
    let mut b = KernelBuilder::new(name);
    let p = b.param("out", Type::U64);
    let out = b.ld_param(Type::U64, p);
    b.shared(64 * 4);
    let tid = b.sreg(Special::TidX);
    let mine = b.mul(Type::U32, tid, 4i64);
    b.st_shared(Type::U32, mine, tid);
    if with_barrier {
        b.bar();
    }
    let partner = b.xor(Type::U32, tid, 32i64);
    let theirs = b.mul(Type::U32, partner, 4i64);
    let v = b.ld_shared(Type::U32, theirs);
    let oaddr = b.index64(out, tid, 4);
    b.st_global(Type::U32, oaddr, v);
    b.exit();
    b.build().unwrap()
}

/// Reading another warp's shared slot without an intervening barrier is a
/// race; the report must name both accesses' warps and pcs, the byte
/// range, and that it happened before the CTA's first barrier.
#[test]
fn missing_barrier_race_is_detected_with_both_pcs() {
    let mut gpu = sanitize_gpu(SanInject::None);
    let kernel = exchange_kernel(false);
    let buf = gpu.mem().alloc(4 * 64, 128).unwrap();
    let params = pack_params(&kernel, &[buf]);
    let err = gpu
        .launch(&kernel, Dim3::x(1), Dim3::x(64), &params)
        .expect_err("cross-warp exchange without a barrier must race");
    match err {
        SimError::Sanitizer(report) => match *report {
            SanitizerReport::Race(r) => {
                assert_ne!(
                    r.prev.warp_in_cta, r.curr.warp_in_cta,
                    "the race is between different warps"
                );
                assert!(
                    r.prev.is_write || r.curr.is_write,
                    "at least one side writes"
                );
                assert_ne!(r.prev.pc, r.curr.pc, "store and load are distinct pcs");
                assert!(r.byte_hi > r.byte_lo);
                assert_eq!(r.barrier, None, "no barrier released before the race");
                let rendered = r.to_string();
                assert!(rendered.contains("shared-memory race"), "{rendered}");
                assert!(
                    rendered.contains("before the CTA's first barrier"),
                    "{rendered}"
                );
            }
            other => panic!("expected a race report, got {other}"),
        },
        other => panic!("expected SimError::Sanitizer, got {other}"),
    }
}

/// The same exchange with a `bar.sync` between store and load phases is
/// the canonical correct pattern and must run clean, producing the
/// exchanged values.
#[test]
fn barrier_separated_exchange_runs_clean() {
    let mut gpu = sanitize_gpu(SanInject::None);
    let kernel = exchange_kernel(true);
    let buf = gpu.mem().alloc(4 * 64, 128).unwrap();
    let params = pack_params(&kernel, &[buf]);
    gpu.launch(&kernel, Dim3::x(1), Dim3::x(64), &params)
        .expect("barrier-correct exchange is race-free");
    let got = gpu.mem().read_u32_slice(buf, 64);
    let want: Vec<u32> = (0..64u32).map(|t| t ^ 32).collect();
    assert_eq!(got, want, "each thread read its partner's value");
}

/// The sanitizer is a pure observer: every tiny workload completes clean
/// under it, and a second run from an identical initial state produces an
/// identical digest.
#[test]
fn all_tiny_workloads_run_sanitizer_clean_with_stable_digests() {
    for w in tiny_workloads() {
        let digest_of = || {
            let mut cfg = GpuConfig::small();
            cfg.sanitize = true;
            let mut gpu = Gpu::new(cfg).unwrap();
            let run = w
                .run(&mut gpu)
                .unwrap_or_else(|e| panic!("{} must be sanitizer-clean: {e}", w.name()));
            run.stats.digest
        };
        let first = digest_of();
        let second = digest_of();
        assert!(
            first.is_some(),
            "{}: sanitized runs expose a digest",
            w.name()
        );
        check_digests(w.name(), first, second).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// The sanitizer costs under 15% on the tiny suite. Timing-sensitive, so
/// ignored by default; run with
/// `cargo test --release -- --ignored sanitizer_overhead`.
///
/// Every run is timed by the calling thread's CPU time (wall time where
/// `/proc/thread-self/schedstat` is unreadable), so time spent descheduled
/// on a loaded machine does not count. Each of forty sweeps runs every
/// workload plain and then checked, so drift in the machine's speed hits
/// both sides alike; each side keeps every workload's fastest run, and the
/// ratio compares their sums.
#[test]
#[ignore = "timing measurement; run explicitly in release mode"]
fn sanitizer_overhead_is_under_fifteen_percent() {
    use std::time::{Duration, Instant};
    /// Nanoseconds the calling thread has run: the first field of its
    /// schedstat line. The kernel folds a running thread's time into that
    /// field only at a scheduler tick (4 ms here) or event; yielding is such
    /// an event, so the value read right after it is current.
    fn cpu_ns() -> Option<u64> {
        std::thread::yield_now();
        let line = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        line.split_whitespace().next()?.parse().ok()
    }
    fn run(w: &dyn Workload, sanitize: bool) -> Duration {
        let (wall, cpu) = (Instant::now(), cpu_ns());
        let mut cfg = GpuConfig::small();
        cfg.sanitize = sanitize;
        let mut gpu = Gpu::new(cfg).unwrap();
        w.run(&mut gpu).unwrap();
        match (cpu, cpu_ns()) {
            (Some(start), Some(end)) => Duration::from_nanos(end - start),
            _ => wall.elapsed(),
        }
    }
    let workloads = tiny_workloads();
    // The first sweep warms both sides up and is not kept.
    let mut best = vec![[Duration::MAX; 2]; workloads.len()];
    for sweep in 0..41 {
        for (w, best) in workloads.iter().zip(&mut best) {
            for (side, sanitize) in [false, true].into_iter().enumerate() {
                let took = run(w.as_ref(), sanitize);
                if sweep > 0 {
                    best[side] = best[side].min(took);
                }
            }
        }
    }
    let plain: Duration = best.iter().map(|b| b[0]).sum();
    let checked: Duration = best.iter().map(|b| b[1]).sum();
    let ratio = checked.as_secs_f64() / plain.as_secs_f64();
    assert!(
        ratio < 1.15,
        "sanitizer slowdown {ratio:.3}x exceeds 15% ({checked:?} vs {plain:?})"
    );
}
