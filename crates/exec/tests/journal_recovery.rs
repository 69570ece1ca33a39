//! The durability contract end to end: a coordinator killed at an
//! arbitrary instant and restarted with `--recover` loses no acknowledged
//! job and re-runs nothing already done. Plus the journal corruption matrix — torn
//! tails, bit flips, a tail appended after a compaction, version skew — each
//! recovering (or refusing) exactly as specified.

use gcl_exec::fleet::{
    decode_stats_payload, JCounter, Journal, JournalError, Record, JOURNAL_MAGIC, JOURNAL_VERSION,
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
            payload: stats_bytes(77, 0x9999),
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
    assert_eq!(
        rec.log,
        sample_tail()[..5],
        "job 2's submit is in the prefix; the corrupt lease record is gone"
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

/// Records appended after a compaction replay *on top of* it: the
/// compacted records are a starting point, never a mask over newer history.
#[test]
fn stale_snapshot_with_newer_tail_replays_both() {
    let path = journal_path("staletail");
    let tail = sample_tail();
    {
        let mut j = Journal::create(&path).unwrap();
        // First job reaches Done, then the journal compacts to what the
        // coordinator would write for that table (no lease on a done job)...
        for r in &tail[..4] {
            j.append(r).unwrap();
        }
        j.compact(&[tail[0].clone(), tail[2].clone(), tail[3].clone()])
            .unwrap();
        // ...and the second job's submit + lease land after the compaction.
        for r in &tail[4..] {
            j.append(r).unwrap();
        }
        j.sync().unwrap();
    }
    let (_, rec) = Journal::open_recover(&path).unwrap();
    assert!(!rec.truncated);
    assert_eq!(rec.records, 5, "three compacted records + two tail records");

    // Fold it for real: a recovering coordinator, compacting on its first
    // tick, serves both jobs and writes the tail's lease back out.
    let (addr, stop, coord) = start_recovering(&path, 1);
    let mut c = client(addr);
    let state = |r: Json| r.get("state").and_then(Json::as_str).map(str::to_string);
    assert_eq!(state(c.result(1).unwrap()).as_deref(), Some("done"));
    assert_eq!(state(c.result(2).unwrap()).as_deref(), Some("queued"));
    assert_eq!(
        cache_counter(&mut c, "dedup_hits"),
        2,
        "compaction carried it"
    );
    std::thread::sleep(Duration::from_millis(200));
    stop();
    coord.join().expect("coordinator thread").ok();
    let (_, again) = Journal::open_recover(&path).unwrap();
    assert!(
        again.log.contains(&tail[5]),
        "tail lease applied over the compaction: {:?}",
        again.log
    );
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
    // A newer format, and the version 1 and 2 headers of journals that may
    // hold records this build has no decoder for: all are refused, and the
    // file is left exactly as found — never truncated as a torn tail.
    for skew in [JOURNAL_VERSION + 1, 1, 2] {
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
    let submits = rec
        .log
        .iter()
        .filter(|r| matches!(r, Record::Submit { .. }));
    assert_eq!(submits.count(), 2, "one job per key");
    let payloads: Vec<(u64, &Vec<u8>)> = (rec.log.iter())
        .filter_map(|r| match r {
            Record::Done { id, payload, .. } => Some((*id, payload)),
            _ => None,
        })
        .collect();
    assert_eq!(payloads.len(), 2, "the resubmit journals no second payload");
    for (id, sum) in served {
        let (_, payload) = payloads
            .iter()
            .find(|(done, _)| *done == id)
            .unwrap_or_else(|| panic!("job {id} must recover done"));
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

/// Wire bytes of a real `LaunchStats`, as a worker's `done` frame carries
/// them and the journal keeps them.
fn stats_bytes(cycles: u64, digest: u64) -> Vec<u8> {
    let stats = LaunchStats {
        name: "pin".to_string(),
        cycles,
        launches: 1,
        digest: Some(digest),
        ..LaunchStats::default()
    };
    let mut enc = gcl_mem::Enc::new();
    stats.ckpt_encode(&mut enc);
    enc.into_bytes()
}

fn pin_submit(id: u64, workload: &str, session: Option<&str>) -> Record {
    Record::Submit {
        id,
        key: 0xa000 + id,
        workload: workload.to_string(),
        tiny: true,
        sanitize: false,
        max_cycles: None,
        session: session.map(str::to_string),
    }
}

fn pin_lease(id: u64, worker: &str) -> Record {
    Record::Lease {
        id,
        worker: worker.to_string(),
    }
}

/// A fixed journal using every live record kind. Job 1 (s-1) is leased
/// then done; job 2 (no session, joined by s-2) is leased, reclaimed and
/// leased again, and left leased; job 3 (s-1) failed; job 4 is a cached
/// done; s-2 then joins done job 1. `with_leased: false` drops job 2, so
/// every job is terminal and a `shutdown` drains at once.
fn pin_journal(with_leased: bool) -> Vec<Record> {
    let session = |s: &str| s.to_string();
    let mut records = vec![
        Record::SessionOpen {
            session: session("s-1"),
        },
        Record::SessionOpen {
            session: session("s-2"),
        },
        pin_submit(1, "bfs", Some("s-1")),
        pin_lease(1, "w0"),
        Record::Done {
            id: 1,
            cached: false,
            wall_ms: 1.5,
            worker_wall_ms: 2.25,
            worker: "w0".to_string(),
            payload: stats_bytes(1234, 0xfeed_face),
        },
    ];
    if with_leased {
        records.extend([
            pin_submit(2, "spmv", None),
            Record::Subscribe {
                id: 2,
                session: session("s-2"),
            },
            pin_lease(2, "w0"),
            Record::Reclaim {
                id: 2,
                reason: "lease expired".to_string(),
            },
            pin_lease(2, "w1"),
        ]);
    }
    records.extend([
        pin_submit(3, "lu", Some("s-1")),
        Record::Failed {
            id: 3,
            error: "boom".to_string(),
        },
        pin_submit(4, "gaus", None),
        Record::Done {
            id: 4,
            cached: true,
            wall_ms: 0.5,
            worker_wall_ms: 0.75,
            worker: "w1".to_string(),
            payload: stats_bytes(99, 0xbead),
        },
        Record::Subscribe {
            id: 1,
            session: session("s-2"),
        },
        Record::SessionDetach {
            session: session("s-1"),
        },
        Record::Counter {
            counter: JCounter::DedupHits,
            delta: 2,
        },
        Record::Counter {
            counter: JCounter::Sheds,
            delta: 3,
        },
        Record::Counter {
            counter: JCounter::Resumed,
            delta: 1,
        },
    ]);
    records
}

fn write_journal(path: &std::path::Path, records: &[Record]) {
    let mut j = Journal::create(path).unwrap();
    for r in records {
        j.append(r).unwrap();
    }
    j.sync().unwrap();
}

/// A recovering coordinator with no workers, plus the handle that stops
/// it without a drain.
fn start_recovering(
    path: &std::path::Path,
    compact_bytes: u64,
) -> (
    std::net::SocketAddr,
    impl Fn(),
    std::thread::JoinHandle<Result<(), gcl_exec::ServeError>>,
) {
    let coordinator = Coordinator::bind(CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        journal: Some(path.to_path_buf()),
        recover: true,
        journal_compact_bytes: compact_bytes,
        print_outcomes: false,
        ..CoordinatorOptions::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().expect("read bound address");
    let stop = coordinator.stopper();
    (addr, stop, std::thread::spawn(move || coordinator.run()))
}

/// What a recovered coordinator shows: `status`'s jobs per state and
/// cache counters, `result` for each id, and each session's re-attach
/// (truncation flag and the replayed events), one line each.
fn observe_recovered(addr: std::net::SocketAddr, ids: &[u64]) -> Vec<String> {
    let show = |v: Option<&Json>| match v {
        None => "-".to_string(),
        Some(Json::Str(s)) => s.clone(),
        Some(j) => j.to_string(),
    };
    let mut c = client(addr);
    let status = c.status().expect("status");
    let jobs = status.get("jobs").expect("jobs");
    let cache = status.get("cache").expect("cache");
    let mut lines = vec![format!(
        "status queued={} running={} done={} failed={} sims={} dedup_hits={} resumed={} \
         hit_rate={} sheds={}",
        show(jobs.get("queued")),
        show(jobs.get("running")),
        show(jobs.get("done")),
        show(jobs.get("failed")),
        show(cache.get("sims")),
        show(cache.get("dedup_hits")),
        show(cache.get("resumed")),
        show(cache.get("hit_rate")),
        show(status.get("sheds")),
    )];
    for &id in ids {
        let r = c.result(id).expect("result");
        let fields = [
            "state",
            "assigns",
            "cached",
            "worker",
            "wall_ms",
            "worker_wall_ms",
            "sum",
            "error",
        ];
        let shown: Vec<String> = fields
            .iter()
            .map(|f| format!("{f}={}", show(r.get(f))))
            .collect();
        lines.push(format!("result {id} {}", shown.join(" ")));
    }
    for sid in ["s-1", "s-2"] {
        let mut session = SessionClient::open(client_opts(addr), Some(sid)).expect("re-attach");
        let mut events = Vec::new();
        // The replayed log arrives first, then the attach's first `depth`
        // heartbeat.
        loop {
            let event = session
                .next_event(Duration::from_secs(10))
                .expect("event stream")
                .expect("replay before the first heartbeat");
            if event.get("event").and_then(Json::as_str) == Some("depth") {
                break;
            }
            events.push(format!(
                "{}@{}:job{}{}",
                show(event.get("event")),
                show(event.get("seq")),
                show(event.get("job")),
                if event.get("recovered").is_some() {
                    format!(":recovered={}", show(event.get("recovered")))
                } else {
                    String::new()
                },
            ));
        }
        lines.push(format!(
            "session {sid} truncated={} {}",
            session.truncated(),
            events.join(" ")
        ));
    }
    lines
}

/// Pins what `--recover` rebuilds from a fixed journal holding every live
/// record kind: job states, counters, per-job results and each session's
/// restarted event numbering with its synthetic `recovered` replay.
#[test]
fn recovery_of_every_record_kind_is_pinned() {
    let path = journal_path("pin-kinds");
    write_journal(&path, &pin_journal(true));
    let (addr, stop, coord) = start_recovering(&path, 1024 * 1024);
    let seen = observe_recovered(addr, &[1, 2, 3, 4]);
    stop();
    coord.join().expect("coordinator thread").ok();
    let want = PIN_EVERY_KIND;
    assert_eq!(seen.join("\n"), want.trim());
    std::fs::remove_file(&path).ok();
}

/// Pins a coordinator recovering a journal that a previous coordinator
/// compacted itself: the second recovery shows the same jobs, results
/// and counters, and the sessions restart exactly where the compacting
/// coordinator's numbering stood.
#[test]
fn recovery_of_a_self_compacted_journal_is_pinned() {
    let path = journal_path("pin-compacted");
    write_journal(&path, &pin_journal(false));
    // Coordinator one: recover, let >= 10 supervisor ticks compact at a
    // one-byte threshold, then drain (every job is terminal).
    let (addr, _stop, coord) = start_recovering(&path, 1);
    std::thread::sleep(Duration::from_millis(400));
    client(addr).shutdown().expect("shutdown");
    coord
        .join()
        .expect("coordinator thread")
        .expect("drained at once");
    // Coordinator two recovers the compacted file.
    let (addr2, stop2, coord2) = start_recovering(&path, 1024 * 1024);
    let seen = observe_recovered(addr2, &[1, 3, 4]);
    stop2();
    coord2.join().expect("coordinator thread").ok();
    let want = PIN_SELF_COMPACTED;
    assert_eq!(seen.join("\n"), want.trim());
    std::fs::remove_file(&path).ok();
}

const PIN_EVERY_KIND: &str = "
status queued=1 running=0 done=2 failed=1 sims=1 dedup_hits=2 resumed=1 hit_rate=0.6666666666666666 sheds=3
result 1 state=done assigns=1 cached=false worker=w0 wall_ms=1.5 worker_wall_ms=2.25 sum=0x9b762bd268d98342 error=-
result 2 state=queued assigns=- cached=- worker=- wall_ms=- worker_wall_ms=- sum=- error=-
result 3 state=failed assigns=- cached=- worker=- wall_ms=- worker_wall_ms=- sum=- error=boom
result 4 state=done assigns=1 cached=true worker=w1 wall_ms=0.5 worker_wall_ms=0.75 sum=0x1f3510d805c04a19 error=-
session s-1 truncated=true queued@5:job1:recovered=true done@6:job1 queued@7:job3:recovered=true failed@8:job3
session s-2 truncated=true queued@7:job1:recovered=true done@8:job1 queued@9:job2:recovered=true
";

const PIN_SELF_COMPACTED: &str = "
status queued=0 running=0 done=2 failed=1 sims=1 dedup_hits=2 resumed=1 hit_rate=0.6666666666666666 sheds=3
result 1 state=done assigns=1 cached=false worker=w0 wall_ms=1.5 worker_wall_ms=2.25 sum=0x9b762bd268d98342 error=-
result 3 state=failed assigns=- cached=- worker=- wall_ms=- worker_wall_ms=- sum=- error=boom
result 4 state=done assigns=1 cached=true worker=w1 wall_ms=0.5 worker_wall_ms=0.75 sum=0x1f3510d805c04a19 error=-
session s-1 truncated=true queued@9:job1:recovered=true done@10:job1 queued@11:job3:recovered=true failed@12:job3
session s-2 truncated=true queued@4:job1:recovered=true done@5:job1
";
