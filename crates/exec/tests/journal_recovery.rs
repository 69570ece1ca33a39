//! The durability contract end to end: a coordinator killed at an
//! arbitrary instant and restarted with `--recover` loses no acknowledged
//! job and re-runs nothing already done. Plus the journal corruption matrix — torn
//! tails, bit flips, stale snapshots, version skew — each recovering (or
//! refusing) exactly as specified.

use gcl_exec::fleet::{
    decode_stats_payload, JCounter, Journal, JournalError, Record, SnapJobState, JOURNAL_MAGIC,
    JOURNAL_VERSION,
};
use gcl_exec::{
    run_worker, ClientOptions, Coordinator, CoordinatorOptions, FleetInject, ServeClient,
    SessionClient, WorkerOptions, WorkerReport,
};
use gcl_sim::LaunchStats;
use gcl_stats::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn journal_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("gcl-jrec-{}-{name}.journal", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

fn start_coordinator(
    opts: CoordinatorOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let coordinator = Coordinator::bind(CoordinatorOptions {
        print_outcomes: false,
        ..opts
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().expect("read bound address");
    let handle = std::thread::spawn(move || coordinator.run().expect("coordinator loop"));
    (addr, handle)
}

fn spawn_worker(
    addr: std::net::SocketAddr,
    name: &str,
) -> std::thread::JoinHandle<Result<WorkerReport, String>> {
    let opts = WorkerOptions {
        coord: addr.to_string(),
        name: name.to_string(),
        slots: 2,
        // No local result cache: the coordinator's `sims` counter counts
        // real simulations exactly.
        cache: None,
        inject: FleetInject::none(),
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || run_worker(opts))
}

fn client_opts(addr: std::net::SocketAddr) -> ClientOptions {
    ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    }
}

fn client(addr: std::net::SocketAddr) -> ServeClient {
    ServeClient::connect(client_opts(addr)).expect("connect client")
}

fn await_workers(client: &mut ServeClient, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.status().expect("status");
        let alive = status
            .get("workers")
            .and_then(Json::as_arr)
            .map(|ws| {
                ws.iter()
                    .filter(|w| w.get("alive").and_then(Json::as_bool) == Some(true))
                    .count() as u64
            })
            .unwrap_or(0);
        if alive == n {
            return;
        }
        assert!(Instant::now() < deadline, "never saw {n} workers: {status}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn cache_counter(client: &mut ServeClient, field: &str) -> u64 {
    let status = client.status().expect("status");
    status
        .get("cache")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no cache counter `{field}` in {status}"))
}

fn wait_stats(client: &mut ServeClient, id: u64) -> LaunchStats {
    let r = client
        .wait(id, Duration::from_secs(300))
        .unwrap_or_else(|e| panic!("job {id}: {e}"));
    assert_eq!(
        r.get("state").and_then(Json::as_str),
        Some("done"),
        "job {id} must succeed: {r}"
    );
    let hex = r.get("stats").and_then(Json::as_str).expect("stats");
    let sum = r.get("sum").and_then(Json::as_str).expect("checksum");
    decode_stats_payload(hex, sum).expect("payload verifies")
}

fn sample_tail() -> Vec<Record> {
    vec![
        Record::Submit {
            id: 1,
            key: 0xfeed,
            workload: "bfs".to_string(),
            tiny: true,
            sanitize: false,
            max_cycles: None,
            session: None,
        },
        Record::Lease {
            id: 1,
            worker: "w0".to_string(),
        },
        Record::Done {
            id: 1,
            cached: false,
            wall_ms: 1.0,
            worker_wall_ms: 1.0,
            worker: "w0".to_string(),
            payload: vec![9, 9, 9],
        },
        Record::Counter {
            counter: JCounter::DedupHits,
            delta: 2,
        },
        Record::Submit {
            id: 2,
            key: 0xbeef,
            workload: "spmv".to_string(),
            tiny: true,
            sanitize: false,
            max_cycles: None,
            session: None,
        },
        Record::Lease {
            id: 2,
            worker: "w1".to_string(),
        },
    ]
}

/// A single flipped bit anywhere in a record invalidates its checksum;
/// recovery keeps the clean prefix, physically truncates the rest, and
/// a second recovery sees a pristine file.
#[test]
fn bit_flipped_record_truncates_to_last_valid_prefix() {
    let path = journal_path("bitflip");
    let boundary;
    {
        let mut j = Journal::create(&path).unwrap();
        let tail = sample_tail();
        for r in &tail[..5] {
            j.append(r).unwrap();
        }
        boundary = j.bytes();
        j.append(&tail[5]).unwrap();
        j.sync().unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip one payload bit of the final record (payload starts 8 bytes
    // past the record boundary, after the length word).
    let target = boundary as usize + 8 + 2;
    bytes[target] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let (_, rec) = Journal::open_recover(&path).unwrap();
    assert!(rec.truncated, "corruption detected");
    assert_eq!(rec.records, 5, "clean prefix survives intact");
    assert_eq!(rec.state.next_id, 2, "job 2's submit is in the prefix");
    assert_eq!(
        rec.state.jobs[1].state,
        SnapJobState::Queued { was_leased: false },
        "the corrupt lease record is gone; job 2 requeues"
    );
    assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary);

    let (_, again) = Journal::open_recover(&path).unwrap();
    assert!(!again.truncated, "second recovery sees a clean file");
    assert_eq!(again.records, 5);

    // A tail record declaring a length no file can hold is one more torn
    // tail: same prefix, same truncation, no arithmetic overflow.
    let clean = std::fs::read(&path).unwrap();
    for len in [u64::MAX, u64::MAX - 3, u64::MAX - 15] {
        let mut crafted = clean.clone();
        crafted.extend_from_slice(&len.to_le_bytes());
        crafted.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &crafted).unwrap();
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert!(rec.truncated, "length {len:#x}");
        assert_eq!(rec.records, 5);
        assert_eq!(std::fs::read(&path).unwrap(), clean);
    }
    std::fs::remove_file(&path).ok();
}

/// Records appended after a compaction snapshot replay *on top of* it:
/// the snapshot is a starting point, never a mask over newer history.
#[test]
fn stale_snapshot_with_newer_tail_replays_both() {
    let path = journal_path("staletail");
    let tail = sample_tail();
    {
        let mut j = Journal::create(&path).unwrap();
        // First job reaches Done, then the journal compacts...
        for r in &tail[..4] {
            j.append(r).unwrap();
        }
        let snap = Journal::open_recover(&path).unwrap().1.state;
        j.compact(&snap).unwrap();
        // ...and the second job's submit + lease land after the snapshot.
        for r in &tail[4..] {
            j.append(r).unwrap();
        }
        j.sync().unwrap();
    }
    let (_, rec) = Journal::open_recover(&path).unwrap();
    assert!(!rec.truncated);
    assert_eq!(rec.records, 3, "snapshot + two tail records");
    assert_eq!(rec.state.next_id, 2);
    assert_eq!(rec.state.jobs.len(), 2);
    assert!(matches!(rec.state.jobs[0].state, SnapJobState::Done { .. }));
    assert_eq!(
        rec.state.jobs[1].state,
        SnapJobState::Queued { was_leased: true },
        "tail lease applied over the snapshot"
    );
    assert_eq!(rec.state.counters.dedup_hits, 2, "snapshot carried it");
    std::fs::remove_file(&path).ok();
}

/// Version skew — a journal written by a different format revision — is
/// refused outright even when every record in it is internally valid.
#[test]
fn version_skew_is_unrecoverable_even_with_valid_records() {
    let path = journal_path("skew");
    {
        let mut j = Journal::create(&path).unwrap();
        for r in sample_tail() {
            j.append(&r).unwrap();
        }
        j.sync().unwrap();
    }
    let mut bytes = std::fs::read(&path).unwrap();
    // A newer format, and the version 1 header of a journal that may hold
    // records this build has no decoder for: both are refused, and the
    // file is left exactly as found — never truncated as a torn tail.
    for skew in [JOURNAL_VERSION + 1, 1] {
        let v = skew.to_le_bytes();
        bytes[8] = v[0];
        bytes[9] = v[1];
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open_recover(&path) {
            Err(JournalError::Unrecoverable { reason, .. }) => {
                assert!(reason.contains(&format!("version {skew}")), "{reason}")
            }
            other => panic!("version skew must be unrecoverable: {other:?}"),
        }
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "version {skew}");
    }
    // Sanity: the magic itself still matched (it is our magic).
    assert_eq!(&bytes[..8], JOURNAL_MAGIC);
    std::fs::remove_file(&path).ok();
}

/// The headline recovery property, in-process: stop a journaling
/// coordinator after a sweep, restart a fresh one over the same journal
/// with brand-new (empty) workers, and (a) every acknowledged result is
/// still served byte-identically, (b) re-submitting the sweep dedups
/// against the recovered jobs instead of re-simulating.
#[test]
fn recovered_coordinator_serves_acked_results_without_resimulating() {
    let path = journal_path("e2e");
    let sweep = ["bfs", "spmv", "lu"];

    let opts = CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        journal: Some(path.clone()),
        recover: true,
        heartbeat_ms: 200,
        heartbeat_timeout_ms: 2_000,
        ..CoordinatorOptions::default()
    };

    // Epoch one: run the sweep and stop cleanly.
    let (addr, coord) = start_coordinator(opts.clone());
    let workers: Vec<_> = ["a0", "a1"].iter().map(|n| spawn_worker(addr, n)).collect();
    let mut c = client(addr);
    await_workers(&mut c, 2);
    let ids: Vec<u64> = sweep
        .iter()
        .map(|w| c.submit(w, true, false).expect("submit"))
        .collect();
    let before: Vec<LaunchStats> = ids.iter().map(|&id| wait_stats(&mut c, id)).collect();
    assert_eq!(cache_counter(&mut c, "sims"), sweep.len() as u64);
    c.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread").expect("worker ran");
    }

    // Epoch two: same journal, brand-new empty workers.
    let (addr2, _coord2) = start_coordinator(opts);
    let workers2: Vec<_> = ["b0", "b1"]
        .iter()
        .map(|n| spawn_worker(addr2, n))
        .collect();
    let mut c2 = client(addr2);
    await_workers(&mut c2, 2);

    // (a) Zero lost acknowledged jobs: the old ids answer with the exact
    // stats the pre-restart coordinator acknowledged.
    for (&id, stats) in ids.iter().zip(&before) {
        assert_eq!(&wait_stats(&mut c2, id), stats, "job {id} after recovery");
    }

    // (b) The sweep dedups against recovered terminal jobs: same ids
    // back, and the sims counter carries over without growing.
    for (w, &id) in sweep.iter().zip(&ids) {
        assert_eq!(c2.submit(w, true, false).expect("resubmit"), id);
    }
    assert_eq!(
        cache_counter(&mut c2, "sims"),
        sweep.len() as u64,
        "nothing re-simulated for already-done keys"
    );
    assert_eq!(cache_counter(&mut c2, "dedup_hits"), sweep.len() as u64);

    c2.shutdown().expect("shutdown");
    for w in workers2 {
        w.join().expect("worker thread").expect("worker ran");
    }
    std::fs::remove_file(&path).ok();
}

/// The journal holds the bytes the coordinator checksummed, not a second
/// decode of the frame: each recovered payload folds to exactly the `sum`
/// the `result` verb serves for that id, and a resubmit that joined a
/// finished job journals no second payload.
#[test]
fn journaled_payloads_fold_to_the_sums_the_result_verb_serves() {
    let path = journal_path("payload");
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        journal: Some(path.clone()),
        ..CoordinatorOptions::default()
    });
    let workers: Vec<_> = ["p0", "p1"].iter().map(|n| spawn_worker(addr, n)).collect();
    let mut c = client(addr);
    await_workers(&mut c, 2);
    let bfs = c.submit("bfs", true, false).expect("submit");
    wait_stats(&mut c, bfs);
    let again = c.submit("bfs", true, false).expect("resubmit");
    let spmv = c.submit("spmv", true, false).expect("submit");
    assert_eq!(again, bfs, "the resubmit joined the finished job");
    let mut served = Vec::new();
    for id in [bfs, spmv] {
        wait_stats(&mut c, id);
        let r = c.result(id).expect("result");
        let sum = r.get("sum").and_then(Json::as_str).expect("sum");
        served.push((id, sum.to_string()));
    }
    assert_eq!(cache_counter(&mut c, "dedup_hits"), 1, "the bfs resubmit");
    assert_eq!(cache_counter(&mut c, "sims"), 2, "bfs once, spmv once");
    c.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
    for w in workers {
        w.join().expect("worker thread").expect("worker ran");
    }

    let (_, rec) = Journal::open_recover(&path).unwrap();
    assert_eq!(rec.state.jobs.len(), 2, "one job per key");
    for (id, sum) in served {
        let job = rec
            .state
            .jobs
            .iter()
            .find(|j| j.id == id)
            .expect("job recovered");
        let SnapJobState::Done { payload, .. } = &job.state else {
            panic!("job {id} must recover done: {:?}", job.state);
        };
        let folded = gcl_sim::fnv_fold_bytes(gcl_sim::FNV_OFFSET, payload);
        assert_eq!(format!("0x{folded:016x}"), sum, "job {id}");
    }
    std::fs::remove_file(&path).ok();
}

/// A streaming session rides a coordinator restart: the recovered
/// coordinator still knows the session id (it was journaled), so the
/// client re-attaches and keeps submitting instead of surfacing a
/// transport error.
#[test]
fn session_reattaches_across_coordinator_restart() {
    let path = journal_path("session");
    let opts = CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        journal: Some(path.clone()),
        recover: true,
        ..CoordinatorOptions::default()
    };

    let (addr, coord) = start_coordinator(opts.clone());
    let worker = spawn_worker(addr, "w0");
    let mut session = SessionClient::open(client_opts(addr), None).expect("open session");
    let sid = session.id().to_string();
    let first = session.submit("bfs", true, false).expect("submit");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        assert!(Instant::now() < deadline, "no terminal event");
        let Some(event) = session
            .next_event(Duration::from_secs(5))
            .expect("event stream")
        else {
            continue;
        };
        if event.get("event").and_then(Json::as_str) == Some("done")
            && event.get("job").and_then(Json::as_u64) == Some(first.id)
        {
            break;
        }
    }
    let mut c = client(addr);
    c.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
    worker.join().expect("worker thread").expect("worker ran");

    // Restart on the *same* address so the session client's redial loop
    // finds the recovered coordinator.
    let (addr2, _coord2) = start_coordinator(CoordinatorOptions {
        addr: addr.to_string(),
        ..opts
    });
    assert_eq!(addr2, addr, "rebind reuses the address");
    let worker2 = spawn_worker(addr2, "w1");

    // The quiet interval while the coordinator was down surfaces as
    // `Ok(None)` ticks, never a transport error.
    let quiet = session.next_event(Duration::from_millis(50));
    assert!(quiet.is_ok(), "restart must stay quiet: {quiet:?}");

    let second = session
        .submit("spmv", true, false)
        .expect("submit rides restart");
    assert_eq!(session.id(), sid, "same session across the restart");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        assert!(Instant::now() < deadline, "no terminal event after restart");
        let Some(event) = session
            .next_event(Duration::from_secs(5))
            .expect("event stream after restart")
        else {
            continue;
        };
        if event.get("event").and_then(Json::as_str) == Some("done")
            && event.get("job").and_then(Json::as_u64) == Some(second.id)
        {
            break;
        }
    }

    let mut c2 = client(addr2);
    c2.shutdown().expect("shutdown");
    worker2.join().expect("worker thread").expect("worker ran");
    std::fs::remove_file(&path).ok();
}
