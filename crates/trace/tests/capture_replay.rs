//! Capstone gate: for every tiny workload, capture → container round trip →
//! replay reproduces the execution-driven per-launch event digests, cycle
//! counts, merged statistics, and `pc_sharing()` exactly; and the
//! corruption matrix (truncated / bit-flipped / version-skewed /
//! geometry-mismatched containers) fails structured, never silently.

use std::sync::{Arc, Mutex};

use gcl_sim::{
    config_fingerprint, kernel_fingerprint, Gpu, GpuConfig, LaunchStats, PcSharing, ReplayError,
    SimError,
};
use gcl_trace::{parse_trace, read_trace, TraceError, TraceWriter, TRACE_VERSION};
use gcl_workloads::{tiny_workloads, Workload};

fn san_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    cfg
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "gcl-trace-test-{}-{name}.gcltrace",
        std::process::id()
    ));
    p
}

/// Capture one workload into a container file; returns its execution-driven
/// reference (merged stats + locality observations).
fn capture(w: &dyn Workload, path: &std::path::Path) -> (LaunchStats, Vec<PcSharing>) {
    let cfg = san_cfg();
    let mut gpu = Gpu::new(cfg.clone()).unwrap();
    let writer = TraceWriter::create(path, config_fingerprint(&cfg)).unwrap();
    let sink = Arc::new(Mutex::new(writer));
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let result = w.run(&mut gpu).unwrap();
    gpu.set_trace_sink(None);
    let sharing = gpu.pc_sharing();
    let writer = Arc::try_unwrap(sink)
        .expect("sink detached")
        .into_inner()
        .unwrap();
    let summary = writer.finish().unwrap();
    assert_eq!(
        summary.launches,
        result.stats.launches,
        "{}: every launch captured",
        w.name()
    );
    assert!(summary.records > 0, "{}: non-empty capture", w.name());
    (result.stats, sharing)
}

/// Replay a container against a workload's kernels on a fresh GPU,
/// returning (merged stats, locality observations).
fn replay(w: &dyn Workload, path: &std::path::Path) -> (LaunchStats, Vec<PcSharing>) {
    let cfg = san_cfg();
    let trace = read_trace(path).unwrap();
    assert_eq!(
        trace.config_fp,
        config_fingerprint(&cfg),
        "{}: config fingerprint recorded",
        w.name()
    );
    let kernels = w.kernels();
    let mut gpu = Gpu::new(cfg).unwrap();
    let mut merged = LaunchStats::default();
    for launch in &trace.launches {
        let kernel = kernels
            .iter()
            .find(|k| kernel_fingerprint(k) == launch.replay.kernel_fp)
            .unwrap_or_else(|| panic!("{}: no kernel for {}", w.name(), launch.kernel_name));
        let stats = gpu.launch_replay(kernel, &launch.replay).unwrap();
        merged.merge(&stats);
    }
    (merged, gpu.pc_sharing())
}

/// The gate itself, over all 15 tiny workloads.
#[test]
fn replay_reproduces_all_tiny_workloads() {
    for w in tiny_workloads() {
        let path = tmp_path(w.name());
        let (exec_stats, exec_sharing) = capture(w.as_ref(), &path);
        let (mut rep_stats, rep_sharing) = replay(w.as_ref(), &path);
        assert_eq!(
            rep_stats.digest,
            exec_stats.digest,
            "{}: merged event digest",
            w.name()
        );
        assert_eq!(rep_stats.cycles, exec_stats.cycles, "{}: cycles", w.name());
        assert_eq!(rep_sharing, exec_sharing, "{}: pc_sharing", w.name());
        // The merged statistics match in full, not just the digest.
        rep_stats.name = exec_stats.name.clone();
        assert_eq!(rep_stats, exec_stats, "{}: full merged stats", w.name());
        std::fs::remove_file(&path).unwrap();
    }
}

/// Corruption matrix: truncations at every stride, bit flips at every
/// stride, a version-skewed header, and a geometry-mismatched replay all
/// fail with structured errors.
#[test]
fn corruption_matrix_fails_structured() {
    let workloads = tiny_workloads();
    let w = workloads
        .iter()
        .find(|w| w.name() == "spmv")
        .expect("spmv in tiny set");
    let path = tmp_path("spmv-corrupt");
    capture(w.as_ref(), &path);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    parse_trace(&bytes).expect("pristine container parses");

    // Truncation at every stride (including the empty file and one byte
    // short) is Truncated/Malformed, never a panic or silent success.
    for n in (0..bytes.len()).step_by(131).chain([bytes.len() - 1]) {
        match parse_trace(&bytes[..n]) {
            Err(
                TraceError::Truncated
                | TraceError::Malformed(_)
                | TraceError::ChecksumMismatch { .. },
            ) => {}
            other => panic!("truncation to {n} gave {other:?}"),
        }
    }

    // Any single bit flip is caught (checksum layers cover every byte).
    for i in (0..bytes.len()).step_by(127).chain([0, bytes.len() - 1]) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            parse_trace(&bad).is_err(),
            "bit flip at byte {i} of {} accepted",
            bytes.len()
        );
    }

    // Version skew reports the versions by name, even with a checksum
    // recomputed to match (a genuinely future-format file).
    let mut skewed = bytes.clone();
    skewed[8..12].copy_from_slice(&(TRACE_VERSION + 1).to_le_bytes());
    let body_end = skewed.len() - 8;
    let fp = gcl_sim::fnv_fold_bytes(gcl_sim::FNV_OFFSET, &skewed[..body_end]);
    skewed[body_end..].copy_from_slice(&fp.to_le_bytes());
    match parse_trace(&skewed) {
        Err(TraceError::VersionMismatch { found, expected }) => {
            assert_eq!(found, TRACE_VERSION + 1);
            assert_eq!(expected, TRACE_VERSION);
        }
        other => panic!("version skew gave {other:?}"),
    }

    // A section length no file can hold, in a file whose header and
    // trailing checksum are otherwise perfect, is a truncation — in debug
    // and release alike, never an overflowing add or an out-of-range slice.
    for len in [u64::MAX - 3, u64::MAX, 1 << 40] {
        let mut crafted = bytes[..20].to_vec();
        crafted.extend_from_slice(&1u64.to_le_bytes());
        crafted.extend_from_slice(&len.to_le_bytes());
        crafted.extend_from_slice(&[0u8; 32]);
        let fp = gcl_sim::fnv_fold_bytes(gcl_sim::FNV_OFFSET, &crafted);
        crafted.extend_from_slice(&fp.to_le_bytes());
        match parse_trace(&crafted) {
            Err(TraceError::Truncated) => {}
            other => panic!("section length {len:#x} gave {other:?}"),
        }
    }

    // A stream count the launch payload cannot hold — every stream block
    // takes at least 33 bytes — in a container whose checksums all verify
    // is malformed, caught before anything is allocated for it. One
    // minimal block parses; the same bytes claiming two do not.
    for (n_streams, verdict) in [(1u64, true), (2, false)] {
        let mut payload = gcl_mem::Enc::new();
        payload.u64(0x1234);
        payload.str("k");
        for v in [1u32, 1, 1, 32, 1, 1] {
            payload.u32(v);
        }
        payload.u64(n_streams);
        payload.raw(&[0u8; 33]);
        let mut crafted = bytes[..20].to_vec();
        crafted.extend_from_slice(&1u64.to_le_bytes());
        gcl_mem::write_section(&mut crafted, &payload.into_bytes()).unwrap();
        let fp = gcl_sim::fnv_fold_bytes(gcl_sim::FNV_OFFSET, &crafted);
        crafted.extend_from_slice(&fp.to_le_bytes());
        match (parse_trace(&crafted), verdict) {
            (Ok(t), true) => assert_eq!(t.launches[0].replay.streams.len(), 1),
            (Err(TraceError::Malformed(_)), false) => {}
            (other, _) => panic!("{n_streams} streams in 33 bytes gave {other:?}"),
        }
    }

    // Geometry mismatch: replaying against the wrong kernel set (a kernel
    // whose fingerprint matches nothing) or dropping a stream is rejected
    // by the replay driver, not silently absorbed.
    let trace = parse_trace(&bytes).unwrap();
    let mut gpu = Gpu::new(san_cfg()).unwrap();
    let kernels = w.kernels();
    let launch = &trace.launches[0];
    let kernel = kernels
        .iter()
        .find(|k| kernel_fingerprint(k) == launch.replay.kernel_fp)
        .unwrap();
    let mut short = launch.replay.clone();
    short.streams.pop();
    match gpu.launch_replay(kernel, &short) {
        Err(SimError::Replay(ReplayError::StreamCount { .. })) => {}
        other => panic!("geometry mismatch gave {other:?}"),
    }
    let other_kernel = kernels
        .iter()
        .find(|k| kernel_fingerprint(k) != launch.replay.kernel_fp);
    if let Some(other_k) = other_kernel {
        match gpu.launch_replay(other_k, &launch.replay) {
            Err(SimError::Replay(ReplayError::KernelMismatch { .. })) => {}
            other => panic!("kernel mismatch gave {other:?}"),
        }
    }
}

/// An aborted launch (fault mid-run) is discarded from the container and
/// the writer stays usable for subsequent launches.
#[test]
fn aborted_launch_discarded_from_container() {
    use gcl_ptx::{KernelBuilder, Type};
    use gcl_sim::{pack_params, Dim3};

    // A kernel that faults: stores through an unallocated address.
    let mut bad = KernelBuilder::new("oob_store");
    let tid = bad.thread_linear_id();
    let addr = bad.imm64(0xdead_0000);
    let a2 = bad.index64(addr, tid, 4);
    bad.st_global(Type::U32, a2, tid);
    bad.exit();
    let bad = bad.build().unwrap();

    let mut ok = KernelBuilder::new("fine");
    ok.exit();
    let ok = ok.build().unwrap();

    let mut cfg = san_cfg();
    cfg.memcheck = true;
    let path = tmp_path("abort");
    let writer = TraceWriter::create(&path, config_fingerprint(&cfg)).unwrap();
    let sink = Arc::new(Mutex::new(writer));
    let mut gpu = Gpu::new(cfg).unwrap();
    gpu.set_trace_sink(Some(Box::new(sink.clone())));
    let params = pack_params(&bad, &[]);
    gpu.launch(&bad, Dim3::x(1), Dim3::x(32), &params)
        .expect_err("out-of-bounds store must fault");
    let params = pack_params(&ok, &[]);
    gpu.launch(&ok, Dim3::x(1), Dim3::x(32), &params).unwrap();
    gpu.set_trace_sink(None);
    let writer = Arc::try_unwrap(sink)
        .expect("sink detached")
        .into_inner()
        .unwrap();
    let summary = writer.finish().unwrap();
    assert_eq!(summary.launches, 1, "faulted launch discarded");

    let trace = read_trace(&path).unwrap();
    assert_eq!(trace.launches.len(), 1);
    assert_eq!(trace.launches[0].kernel_name, "fine");
    std::fs::remove_file(&path).unwrap();
}
