//! Pins what a coordinator's `result` frame carries for a finished job,
//! in every place the coordinator can keep that result: in memory (no
//! journal), in the journal's `Done` record, folded back from the journal
//! by `--recover`, and moved by a journal compaction. In each state the
//! frame's `stats` and `sum` are exactly the hex and checksum of the
//! in-process run's `LaunchStats`, and `cycles`, `warp_insts` and
//! `digest` are that run's.

use gcl_exec::fleet::encode_stats_payload;
use gcl_exec::{
    run_job, run_worker, ClientOptions, Coordinator, CoordinatorOptions, FleetInject, JobSpec,
    ServeClient, WorkerOptions, WorkerReport,
};
use gcl_sim::{GpuConfig, LaunchStats};
use gcl_stats::Json;
use std::net::SocketAddr;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tiny workloads and whether each runs sanitized (a sanitized run
/// carries a digest).
const SWEEP: [(&str, bool); 3] = [("spmv", false), ("bfs", true), ("lu", false)];

fn journal_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gcl-rframes-{}-{name}.journal", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

fn start_coordinator(opts: CoordinatorOptions) -> (SocketAddr, JoinHandle<()>) {
    let coordinator = Coordinator::bind(CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        print_outcomes: false,
        ..opts
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().expect("read bound address");
    let handle = std::thread::spawn(move || coordinator.run().expect("coordinator loop"));
    (addr, handle)
}

fn spawn_worker(addr: SocketAddr) -> JoinHandle<Result<WorkerReport, String>> {
    let opts = WorkerOptions {
        coord: addr.to_string(),
        name: "w0".to_string(),
        slots: 2,
        cache: None,
        inject: FleetInject::none(),
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || run_worker(opts))
}

fn client(addr: SocketAddr) -> ServeClient {
    ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    })
    .expect("connect client")
}

/// The statistics an in-process run of the sweep's `i`th job produces.
fn expected(i: usize) -> LaunchStats {
    let (workload, sanitize) = SWEEP[i];
    let mut cfg = GpuConfig::small();
    cfg.sanitize = sanitize;
    let spec = JobSpec::new(workload, true, cfg);
    run_job(&spec, None).outcome.expect("in-process run").stats
}

/// Assert that job `id`'s `result` frame carries `want`, byte for byte.
fn assert_frame(c: &mut ServeClient, id: u64, want: &LaunchStats, state: &str) {
    let r = c
        .wait(id, Duration::from_secs(300))
        .unwrap_or_else(|e| panic!("{state}: job {id}: {e}"));
    assert_eq!(
        r.get("state").and_then(Json::as_str),
        Some("done"),
        "{state}: {r}"
    );
    let ctx = format!("{state}: job {id}");
    let (hex, sum) = encode_stats_payload(want);
    let text = |field| r.get(field).and_then(Json::as_str);
    assert!(text("stats") == Some(hex.as_str()), "{ctx}: stats bytes");
    assert_eq!(text("sum"), Some(sum.as_str()), "{ctx}");
    let uint = |field| r.get(field).and_then(Json::as_u64);
    assert_eq!(uint("cycles"), Some(want.cycles), "{ctx}");
    assert_eq!(uint("warp_insts"), Some(want.sm.warp_insts), "{ctx}");
    let digest = want.digest.map(|d| Json::Str(format!("0x{d:016x}")));
    assert_eq!(
        r.get("digest"),
        Some(&digest.unwrap_or(Json::Null)),
        "{ctx}"
    );
}

/// Run the sweep on a fresh coordinator with one worker, check every
/// result frame, and stop. Returns the job ids.
fn run_sweep(opts: CoordinatorOptions, want: &[LaunchStats], state: &str) -> Vec<u64> {
    let (addr, coord) = start_coordinator(opts);
    let worker = spawn_worker(addr);
    let mut c = client(addr);
    let ids: Vec<u64> = SWEEP
        .iter()
        .map(|&(w, sanitize)| c.submit(w, true, sanitize).expect("submit"))
        .collect();
    for (&id, stats) in ids.iter().zip(want) {
        assert_frame(&mut c, id, stats, state);
    }
    c.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
    worker.join().expect("worker thread").expect("worker ran");
    ids
}

/// Recover a coordinator over `path`, with no worker, and check every
/// result frame once `ready` holds.
fn recover_and_check(
    path: &Path,
    compact_bytes: u64,
    ready: impl Fn() -> bool,
    ids: &[u64],
    want: &[LaunchStats],
    state: &str,
) {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        journal: Some(path.to_path_buf()),
        recover: true,
        journal_compact_bytes: compact_bytes,
        ..CoordinatorOptions::default()
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ready() {
        assert!(Instant::now() < deadline, "{state}: never ready");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut c = client(addr);
    for (&id, stats) in ids.iter().zip(want) {
        assert_frame(&mut c, id, stats, state);
    }
    c.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
}

#[test]
fn result_frames_carry_the_in_process_bytes_in_every_coordinator_state() {
    let want: Vec<LaunchStats> = (0..SWEEP.len()).map(expected).collect();
    assert!(
        want.iter().any(|s| s.digest.is_some()),
        "one job is sanitized"
    );

    run_sweep(CoordinatorOptions::default(), &want, "in memory");

    let path = journal_path("states");
    let journaled = CoordinatorOptions {
        journal: Some(path.clone()),
        ..CoordinatorOptions::default()
    };
    let ids = run_sweep(journaled, &want, "journaled");

    // The default threshold is far above this journal: no compaction.
    let default_threshold = CoordinatorOptions::default().journal_compact_bytes;
    assert!(std::fs::metadata(&path).unwrap().len() < default_threshold);
    recover_and_check(&path, default_threshold, || true, &ids, &want, "recovered");

    // A one-byte threshold compacts at the first upkeep. Compaction renames
    // a replacement over the journal, so the path's inode changes.
    let inode = |p: &Path| std::fs::metadata(p).map(|m| m.ino()).ok();
    let before = inode(&path);
    let compacted = || inode(&path).is_some_and(|now| Some(now) != before);
    recover_and_check(&path, 1, compacted, &ids, &want, "compacted");
    std::fs::remove_file(&path).ok();
}
