//! Fault-tolerance tests for fleet mode: every [`FleetInject`] chaos mode
//! is exercised against a live coordinator and must be both *detected*
//! (visible in the status verb's per-worker table) and *recovered from*
//! (every job still reaches `done` with the correct result). The capstone
//! sweeps all 15 workloads through a fleet containing a killer, a
//! straggler, and a corrupter, and requires every statistic — digest
//! included — to be identical to a serial in-process run.

use gcl_exec::fleet::decode_stats_payload;
use gcl_exec::{
    run_job, run_worker, ClientOptions, Coordinator, CoordinatorOptions, FleetInject, JobSpec,
    ServeClient, WorkerOptions, WorkerReport,
};
use gcl_sim::{GpuConfig, LaunchStats};
use gcl_stats::Json;
use std::time::{Duration, Instant};

fn start_coordinator(
    opts: CoordinatorOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
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

fn spawn_worker(
    addr: std::net::SocketAddr,
    name: &str,
    slots: usize,
    inject: FleetInject,
) -> std::thread::JoinHandle<Result<WorkerReport, String>> {
    let opts = WorkerOptions {
        coord: addr.to_string(),
        name: name.to_string(),
        slots,
        cache: None,
        inject,
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || run_worker(opts))
}

fn client(addr: std::net::SocketAddr) -> ServeClient {
    ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    })
    .expect("connect client")
}

fn tiny_spec(name: &str, sanitize: bool) -> JobSpec {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = sanitize;
    JobSpec::new(name, true, cfg)
}

/// Submit one tiny job, returning its id.
fn submit(client: &mut ServeClient, workload: &str, sanitize: bool) -> u64 {
    client
        .submit(workload, true, sanitize)
        .unwrap_or_else(|e| panic!("submit {workload}: {e}"))
}

/// Wait for `id` to complete and return the decoded, checksum-verified
/// stats from its result frame.
fn wait_stats(client: &mut ServeClient, id: u64) -> LaunchStats {
    let r = client
        .wait(id, Duration::from_secs(300))
        .unwrap_or_else(|e| panic!("job {id}: {e}"));
    assert_eq!(
        r.get("state").and_then(Json::as_str),
        Some("done"),
        "job {id} must succeed: {r}"
    );
    let hex = r
        .get("stats")
        .and_then(Json::as_str)
        .expect("stats payload");
    let sum = r.get("sum").and_then(Json::as_str).expect("checksum");
    decode_stats_payload(hex, sum).expect("payload verifies")
}

/// The per-worker status row for `name`, if that worker has joined yet.
fn try_worker_row(status: &Json, name: &str) -> Option<Json> {
    status
        .get("workers")
        .and_then(Json::as_arr)
        .expect("workers array")
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        .cloned()
}

/// The per-worker status row for `name`.
fn worker_row(status: &Json, name: &str) -> Json {
    try_worker_row(status, name).unwrap_or_else(|| panic!("no worker `{name}` in {status}"))
}

fn row_u64(row: &Json, field: &str) -> u64 {
    row.get(field).and_then(Json::as_u64).unwrap_or(0)
}

/// Poll status until `name` has joined and is reported dead (detection),
/// bounded. Tolerates the worker not having registered yet.
fn await_dead(client: &mut ServeClient, name: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status().expect("status");
        if let Some(row) = try_worker_row(&status, name) {
            if row.get("alive").and_then(Json::as_bool) == Some(false) {
                return status;
            }
        }
        assert!(
            Instant::now() < deadline,
            "`{name}` never declared dead: {status}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The capstone: all 15 workloads through a fleet whose chaos layer kills
/// one worker mid-job, corrupts its one delivered result, and stalls
/// another past its lease — and every statistic must still be identical to
/// a serial in-process run of the same specs.
#[test]
fn fleet_sweep_matches_serial_run_under_combined_chaos() {
    let workloads: Vec<&'static str> = gcl_workloads::tiny_workloads()
        .iter()
        .map(|w| w.name())
        .collect();
    assert_eq!(workloads.len(), 15, "the paper's Table I suite");

    // Serial ground truth, no cache: exactly what `gcl suite -j1` runs.
    let serial: Vec<LaunchStats> = workloads
        .iter()
        .map(|name| {
            run_job(&tiny_spec(name, true), None)
                .outcome
                .unwrap_or_else(|e| panic!("serial {name}: {e}"))
                .stats
        })
        .collect();

    let (addr, coord) = start_coordinator(CoordinatorOptions {
        lease_ms: 2_500,
        heartbeat_ms: 200,
        heartbeat_timeout_ms: 2_000,
        ..CoordinatorOptions::default()
    });
    let good1 = spawn_worker(addr, "good-1", 2, FleetInject::none());
    let good2 = spawn_worker(addr, "good-2", 2, FleetInject::none());
    // The killer's only completed result is corrupt; its second assignment
    // kills it mid-job.
    let killer = spawn_worker(
        addr,
        "killer",
        1,
        FleetInject::parse("corrupt=1,kill-after=2").unwrap(),
    );
    // The straggler holds every lease far past its deadline.
    let staller = spawn_worker(
        addr,
        "staller",
        1,
        FleetInject::parse("stall=60000").unwrap(),
    );

    let mut c = client(addr);
    let ids: Vec<u64> = workloads.iter().map(|w| submit(&mut c, w, true)).collect();
    for (i, id) in ids.iter().enumerate() {
        let stats = wait_stats(&mut c, *id);
        assert_eq!(
            stats, serial[i],
            "`{}`: fleet result must be identical to the serial run",
            workloads[i]
        );
        assert_eq!(
            stats.digest, serial[i].digest,
            "`{}`: digest must survive the chaos",
            workloads[i]
        );
    }
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits after drain");
    good1.join().unwrap().expect("good-1 exits cleanly");
    good2.join().unwrap().expect("good-2 exits cleanly");
    // The chaos workers survive as threads even when their sockets die.
    let _ = killer.join().unwrap();
    let _ = staller.join().unwrap();
}

#[test]
fn drop_heartbeat_is_detected_and_work_reassigned() {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        heartbeat_ms: 100,
        heartbeat_timeout_ms: 800,
        ..CoordinatorOptions::default()
    });
    // Deaf: never answers pings, and stalls so it cannot finish its job
    // before the pong deadline unmasks it.
    let deaf = spawn_worker(
        addr,
        "deaf",
        1,
        FleetInject::parse("drop-heartbeat,stall=3000").unwrap(),
    );
    let mut c = client(addr);
    // Submit while deaf is the only worker, so it must take the job.
    let id = submit(&mut c, "bfs", false);
    let status = await_dead(&mut c, "deaf");
    assert_eq!(
        row_u64(&worker_row(&status, "deaf"), "done"),
        0,
        "deaf never delivered a result"
    );
    // Recovery: a healthy worker joins and the reclaimed job completes.
    let good = spawn_worker(addr, "good", 1, FleetInject::none());
    let stats = wait_stats(&mut c, id);
    assert!(stats.cycles > 0);
    let status = c.status().expect("status");
    assert!(row_u64(&worker_row(&status, "good"), "done") >= 1);
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    good.join().unwrap().expect("good exits cleanly");
    let _ = deaf.join().unwrap();
}

#[test]
fn stalled_lease_expires_and_is_reassigned_without_killing_the_worker() {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        lease_ms: 600,
        heartbeat_ms: 200,
        heartbeat_timeout_ms: 10_000,
        ..CoordinatorOptions::default()
    });
    // Slow answers every ping (it is alive, just useless) but sits on each
    // job far past the lease deadline.
    let slow = spawn_worker(addr, "slow", 1, FleetInject::parse("stall=60000").unwrap());
    let mut c = client(addr);
    let id1 = submit(&mut c, "bfs", false);
    let id2 = submit(&mut c, "2mm", false);
    // Wait until the straggler's lease has been reclaimed at least once.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = c.status().expect("status");
        let reclaimed = try_worker_row(&status, "slow")
            .map(|row| row_u64(&row, "reassigned"))
            .unwrap_or(0);
        if reclaimed >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "lease never expired: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let quick = spawn_worker(addr, "quick", 2, FleetInject::none());
    assert!(wait_stats(&mut c, id1).cycles > 0);
    assert!(wait_stats(&mut c, id2).cycles > 0);
    let status = c.status().expect("status");
    let slow_row = worker_row(&status, "slow");
    assert_eq!(
        slow_row.get("alive").and_then(Json::as_bool),
        Some(true),
        "a straggler loses its lease, not its membership: {status}"
    );
    assert!(row_u64(&worker_row(&status, "quick"), "done") >= 2);
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    quick.join().unwrap().expect("quick exits cleanly");
    let _ = slow.join().unwrap();
}

/// A closed worker stops at once: it neither sits out its injected stall
/// nor runs the duplicate assignments buffered behind it. While the
/// straggler is the only candidate every expired lease goes straight back
/// to it, so it ends up stalling on one copy of the job with the later
/// copies queued in its channel.
#[test]
fn closed_straggler_abandons_its_stall_and_its_queued_assignments() {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        lease_ms: 300,
        heartbeat_ms: 200,
        heartbeat_timeout_ms: 10_000,
        ..CoordinatorOptions::default()
    });
    let slow = spawn_worker(addr, "slow", 1, FleetInject::parse("stall=60000").unwrap());
    let mut c = client(addr);
    let id = submit(&mut c, "bfs", false);
    // Three reclaims mean at least three assignments were delivered: one
    // is being stalled on, two or more wait behind it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = c.status().expect("status");
        let reclaimed =
            try_worker_row(&status, "slow").map_or(0, |row| row_u64(&row, "reassigned"));
        if reclaimed >= 3 {
            break;
        }
        assert!(Instant::now() < deadline, "leases never expired: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
    let quick = spawn_worker(addr, "quick", 1, FleetInject::none());
    assert!(wait_stats(&mut c, id).cycles > 0);
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    let closed = Instant::now();
    quick.join().unwrap().expect("quick exits cleanly");
    let report = slow.join().unwrap().expect("slow exits cleanly");
    assert!(
        closed.elapsed() < Duration::from_secs(2),
        "a closed worker must not serve out 60 s stalls: took {:?}",
        closed.elapsed()
    );
    assert_eq!(
        report.jobs_run, 0,
        "nothing was simulated for a closed socket"
    );
}

#[test]
fn killed_worker_is_detected_by_eof_and_jobs_rerun_elsewhere() {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        heartbeat_ms: 200,
        heartbeat_timeout_ms: 5_000,
        ..CoordinatorOptions::default()
    });
    // Dies like `kill -9` the moment its first assignment arrives.
    let victim = spawn_worker(
        addr,
        "victim",
        1,
        FleetInject::parse("kill-after=1").unwrap(),
    );
    let mut c = client(addr);
    let id1 = submit(&mut c, "bfs", false);
    let id2 = submit(&mut c, "gaus", false);
    // EOF detection beats the heartbeat deadline — the socket died.
    let status = await_dead(&mut c, "victim");
    assert_eq!(row_u64(&worker_row(&status, "victim"), "done"), 0);
    let good = spawn_worker(addr, "good", 2, FleetInject::none());
    assert!(wait_stats(&mut c, id1).cycles > 0);
    assert!(wait_stats(&mut c, id2).cycles > 0);
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    good.join().unwrap().expect("good exits cleanly");
    let report = victim
        .join()
        .unwrap()
        .expect("victim survives as a process");
    assert!(report.killed, "the kill injection fired");
}

#[test]
fn corrupt_result_is_rejected_by_checksum_and_job_rerun() {
    let serial = run_job(&tiny_spec("bfs", true), None)
        .outcome
        .expect("serial bfs")
        .stats;
    let (addr, coord) = start_coordinator(CoordinatorOptions::default());
    // One worker whose first result frame is corrupted: the coordinator
    // must detect the flip, requeue, and accept the honest second try from
    // the same (sole) worker.
    let liar = spawn_worker(addr, "liar", 1, FleetInject::parse("corrupt=1").unwrap());
    let mut c = client(addr);
    let id = submit(&mut c, "bfs", true);
    let stats = wait_stats(&mut c, id);
    assert_eq!(stats, serial, "the accepted result is the honest one");
    let r = c.result(id).expect("result");
    assert_eq!(
        r.get("assigns").and_then(Json::as_u64),
        Some(2),
        "the job ran twice: {r}"
    );
    let status = c.status().expect("status");
    let row = worker_row(&status, "liar");
    assert_eq!(
        row_u64(&row, "corrupt"),
        1,
        "corruption was counted: {status}"
    );
    assert_eq!(
        row.get("alive").and_then(Json::as_bool),
        Some(true),
        "one corrupt frame does not bury a worker"
    );
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    liar.join().unwrap().expect("liar exits cleanly");
}

#[test]
fn partitioned_worker_is_detected_by_pong_deadline() {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        heartbeat_ms: 100,
        heartbeat_timeout_ms: 800,
        ..CoordinatorOptions::default()
    });
    // Ghost joins, then the network "partitions" immediately: the socket
    // stays open but nothing crosses it — only the pong deadline can tell.
    let ghost = spawn_worker(
        addr,
        "ghost",
        1,
        FleetInject::parse("partition-after=0,partition-hold=4000").unwrap(),
    );
    let mut c = client(addr);
    let id = submit(&mut c, "bfs", false);
    let status = await_dead(&mut c, "ghost");
    assert_eq!(row_u64(&worker_row(&status, "ghost"), "done"), 0);
    let good = spawn_worker(addr, "good", 1, FleetInject::none());
    assert!(wait_stats(&mut c, id).cycles > 0);
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    good.join().unwrap().expect("good exits cleanly");
    let report = ghost.join().unwrap().expect("ghost survives as a process");
    assert!(report.partitioned, "the partition injection fired");
}

#[test]
fn resubmitting_a_spec_dedups_by_cache_key() {
    let (addr, coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "solo", 1, FleetInject::none());
    let mut c = client(addr);
    let id1 = submit(&mut c, "bfs", false);
    // Identical spec: joins the existing job instead of running twice.
    let r = c
        .call(&Json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("workload", Json::Str("bfs".into())),
            ("tiny", Json::Bool(true)),
            ("sanitize", Json::Bool(false)),
        ]))
        .expect("resubmit");
    assert_eq!(r.get("id").and_then(Json::as_u64), Some(id1), "{r}");
    assert_eq!(r.get("deduped").and_then(Json::as_bool), Some(true), "{r}");
    // A different spec (sanitize flips the cache key) is a new job.
    let id2 = submit(&mut c, "bfs", true);
    assert_ne!(id2, id1);
    assert!(wait_stats(&mut c, id1).cycles > 0);
    assert!(wait_stats(&mut c, id2).cycles > 0);
    // Dedup survives completion: the done job keeps answering for its key.
    let r = c
        .call(&Json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("workload", Json::Str("bfs".into())),
            ("tiny", Json::Bool(true)),
            ("sanitize", Json::Bool(false)),
        ]))
        .expect("resubmit after done");
    assert_eq!(r.get("id").and_then(Json::as_u64), Some(id1), "{r}");
    c.shutdown().expect("drain");
    drop(c);
    coord.join().expect("coordinator exits");
    worker.join().unwrap().expect("solo exits cleanly");
}

#[test]
fn coordinator_queue_cap_rejects_with_queue_full_backpressure() {
    let (addr, coord) = start_coordinator(CoordinatorOptions {
        queue_cap: 2,
        ..CoordinatorOptions::default()
    });
    // No workers yet: the queue can only fill.
    let mut impatient = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        retries: 1,
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    })
    .expect("connect");
    let id1 = submit(&mut impatient, "bfs", false);
    let id2 = submit(&mut impatient, "2mm", false);
    let err = impatient
        .submit("gaus", true, false)
        .expect_err("third distinct submit must overflow a 2-slot queue");
    assert!(err.contains("queue full"), "structured backpressure: {err}");
    // A worker joins; the queued jobs drain and capacity returns.
    let worker = spawn_worker(addr, "late", 2, FleetInject::none());
    assert!(wait_stats(&mut impatient, id1).cycles > 0);
    assert!(wait_stats(&mut impatient, id2).cycles > 0);
    let id3 = submit(&mut impatient, "gaus", false);
    assert!(wait_stats(&mut impatient, id3).cycles > 0);
    impatient.shutdown().expect("drain");
    drop(impatient);
    coord.join().expect("coordinator exits");
    worker.join().unwrap().expect("late exits cleanly");
}
