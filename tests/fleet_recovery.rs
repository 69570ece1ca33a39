//! Deterministic coordinator crash-recovery through the real CLI: a
//! `gcl coordinate --journal --recover` process is `kill -9`ed after
//! acknowledging a sweep, a replacement recovers the journal on the same
//! address, the `--rejoin` workers re-attach with their lease inventories,
//! and the fleet proves zero lost acknowledged jobs and no duplicate
//! simulations for already-done keys — with every statistic byte-identical
//! to a serial run.

use gcl::exec::fleet::decode_stats_payload;
use gcl::prelude::*;
use gcl::stats::Json;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SWEEP: &[&str] = &["bfs", "spmv", "lu", "dwt"];

fn free_addr() -> String {
    let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = holder.local_addr().expect("addr").to_string();
    drop(holder);
    addr
}

fn spawn_coordinator(addr: &str, journal: &std::path::Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args([
            "coordinate",
            "--addr",
            addr,
            "--journal",
            journal.to_str().expect("utf8 path"),
            "--recover",
            "--heartbeat-ms",
            "200",
            "--heartbeat-timeout-ms",
            "2000",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator")
}

fn spawn_worker(addr: &str, name: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args([
            "serve",
            "--join",
            addr,
            "--name",
            name,
            "--jobs",
            "2",
            "--no-cache",
            "--rejoin",
            "--connect-retries",
            "200",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker")
}

/// Dial until the coordinator answers (fresh boot or post-crash rebind).
fn connect(addr: &str) -> ServeClient {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match ServeClient::connect(ClientOptions {
            addr: addr.to_string(),
            max_frame: 1024 * 1024,
            ..ClientOptions::default()
        }) {
            Ok(c) => return c,
            Err(e) => {
                assert!(Instant::now() < deadline, "coordinator never listened: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
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
        if alive >= n {
            return;
        }
        assert!(Instant::now() < deadline, "never saw {n} workers: {status}");
        std::thread::sleep(Duration::from_millis(50));
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

#[test]
fn coordinator_kill_nine_recovers_acked_sweep() {
    let addr = free_addr();
    let journal = {
        let mut p = std::env::temp_dir();
        p.push(format!("gcl-fleet-recovery-{}.journal", std::process::id()));
        std::fs::remove_file(&p).ok();
        p
    };

    let mut coordinator = spawn_coordinator(&addr, &journal);
    let mut workers = vec![spawn_worker(&addr, "r0"), spawn_worker(&addr, "r1")];

    let mut c = connect(&addr);
    await_workers(&mut c, 2);
    let ids: Vec<u64> = SWEEP
        .iter()
        .map(|w| c.submit(w, true, false).expect("submit"))
        .collect();
    let acked: Vec<LaunchStats> = ids.iter().map(|&id| wait_stats(&mut c, id)).collect();
    assert_eq!(cache_counter(&mut c, "sims"), SWEEP.len() as u64);

    // Serial ground truth: the fleet's answers must match byte-for-byte.
    for (w, stats) in SWEEP.iter().zip(&acked) {
        let serial = run_job(&JobSpec::new(*w, true, GpuConfig::small()), None)
            .outcome
            .expect("serial run")
            .stats;
        assert_eq!(serial, *stats, "{w}: fleet result differs from serial");
    }

    // SIGKILL the coordinator: no drain, no goodbye, journal is all that
    // survives. The --rejoin workers outlive it and redial.
    coordinator.kill().expect("kill -9 coordinator");
    coordinator.wait().expect("reap coordinator");

    let mut coordinator2 = spawn_coordinator(&addr, &journal);
    let mut c2 = connect(&addr);
    await_workers(&mut c2, 2);

    // Zero lost acknowledged jobs: every pre-crash id still answers with
    // the exact acknowledged stats.
    for (&id, stats) in ids.iter().zip(&acked) {
        assert_eq!(&wait_stats(&mut c2, id), stats, "job {id} lost in crash");
    }

    // No finished key was re-simulated after the coordinator kill:
    // resubmitting the sweep joins the recovered terminal jobs, the
    // recovered sims counter stands, and no worker ran a sixth job.
    for (w, &id) in SWEEP.iter().zip(&ids) {
        assert_eq!(c2.submit(w, true, false).expect("resubmit"), id);
    }
    assert_eq!(
        cache_counter(&mut c2, "sims"),
        SWEEP.len() as u64,
        "already-done keys must not re-simulate"
    );
    assert_eq!(cache_counter(&mut c2, "dedup_hits"), SWEEP.len() as u64);
    let status = c2.status().expect("status");
    let rows = status.get("workers").and_then(Json::as_arr).expect("rows");
    for row in rows {
        let field = |name| row.get(name).and_then(Json::as_u64);
        assert_eq!(
            (field("done"), field("leased")),
            (Some(0), Some(0)),
            "nothing was dispatched after recovery: {status}"
        );
    }

    c2.shutdown().expect("shutdown");
    let code = coordinator2.wait().expect("coordinator exit");
    assert!(code.success(), "recovered coordinator exits clean: {code}");
    for w in &mut workers {
        let code = w.wait().expect("worker exit");
        assert!(code.success(), "worker exits clean: {code}");
    }
    std::fs::remove_file(&journal).ok();
}
