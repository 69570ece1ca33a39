//! `gcl soak` — a long-haul fleet soak harness with an optional chaos
//! director.
//!
//! The harness owns the whole fleet as child processes: it spawns a
//! journaled coordinator (`gcl coordinate --journal … --recover`) and N
//! rejoin-capable workers (`gcl serve --join … --rejoin`), drives them
//! with loadgen's closed loop (`client::ClosedLoop`), and — with `--chaos`
//! — runs a seeded chaos schedule that `kill -9`s and respawns workers
//! *and the coordinator itself* mid-sweep. Because the children are real
//! processes killed with real signals, this exercises exactly the failure
//! the write-ahead journal exists for: a coordinator that vanishes
//! between one frame and the next.
//!
//! After the traffic window the harness drains and audits two invariants,
//! failing loudly on any violation:
//!
//! 1. **Zero lost acknowledged jobs** — every job id the coordinator ever
//!    acked reaches a terminal `done` state after recovery.
//! 2. **Digest identity with serial** — each distinct spec's fleet result
//!    payload is byte-identical to a local serial [`run_job`] run.
//!
//! The report also carries how many submits each path served — fresh
//! simulations versus joins of a live or finished job — read from the
//! final `status`. A window that acked nothing audited nothing, and fails.
//!
//! Readiness, the audit, that `status` and the final `shutdown` go through
//! one retrying [`ServeClient`] that rides out coordinator restarts.

use crate::client::{ClientOptions, ClosedLoop, ServeClient};
use crate::job::{run_job, JobSpec};
use crate::proto::error_text;
use gcl_rng::Rng;
use gcl_stats::Json;
use std::collections::hash_map::{Entry, HashMap};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How a soak run is shaped.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Coordinator address; empty picks a free loopback port.
    pub addr: String,
    /// Path to the `gcl` binary to spawn for coordinator and workers;
    /// `None` uses the currently running executable.
    pub gcl_bin: Option<PathBuf>,
    /// Worker processes in the fleet.
    pub workers: usize,
    /// Slots per worker.
    pub slots: usize,
    /// Traffic window, in milliseconds.
    pub duration_ms: u64,
    /// Arm the chaos director (kill/restart workers and coordinator).
    pub chaos: bool,
    /// Interval between coordinator `kill -9` + `--recover` cycles
    /// (0 = never; only honored with `chaos`).
    pub kill_coordinator_ms: u64,
    /// Interval between worker kills (0 = never; only with `chaos`).
    pub kill_worker_ms: u64,
    /// Concurrent submitter threads.
    pub submitters: usize,
    /// Mean think time between submits, per submitter.
    pub think_ms: u64,
    /// Distinct cache-key variants per workload (`max_cycles` nudges).
    pub distinct: usize,
    /// Workloads to cycle through.
    pub workloads: Vec<String>,
    /// Seed for submit jitter and the chaos schedule.
    pub seed: u64,
    /// Where the coordinator's write-ahead journal lives.
    pub journal: PathBuf,
    /// Where the JSON soak report lands.
    pub out: PathBuf,
}

impl Default for SoakOptions {
    fn default() -> SoakOptions {
        SoakOptions {
            addr: String::new(),
            gcl_bin: None,
            workers: 3,
            slots: 1,
            duration_ms: 20_000,
            chaos: false,
            kill_coordinator_ms: 7_000,
            kill_worker_ms: 3_000,
            submitters: 4,
            think_ms: 25,
            distinct: 3,
            workloads: vec!["bfs".to_string(), "spmv".to_string()],
            seed: 0x0073_6f61_6b00, // "soak"
            journal: PathBuf::from("results/soak/journal.bin"),
            out: PathBuf::from("results/soak/soak.json"),
        }
    }
}

/// What a soak run did and proved.
#[derive(Debug, Clone, Default)]
pub struct SoakReport {
    /// Submit round trips attempted.
    pub submits: u64,
    /// Submits the coordinator acked with a job id.
    pub acked: u64,
    /// Distinct acknowledged job ids audited to `done`.
    pub audited: u64,
    /// Distinct specs whose fleet payload matched the serial run.
    pub digest_matches: u64,
    /// Coordinator `kill -9` + recover cycles the chaos director ran.
    pub coordinator_kills: u64,
    /// Worker kill/respawn cycles the chaos director ran.
    pub worker_kills: u64,
    /// Simulations the fleet ran, from the final `status`.
    pub sims: u64,
    /// Submits that joined a live or finished job, from the final `status`.
    pub dedup_hits: u64,
    /// In-flight leases resumed from worker inventories.
    pub resumed: u64,
}

fn resolve_bin(opts: &SoakOptions) -> Result<PathBuf, String> {
    match &opts.gcl_bin {
        Some(p) => Ok(p.clone()),
        None => std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}")),
    }
}

fn pick_addr(opts: &SoakOptions) -> Result<String, String> {
    if !opts.addr.is_empty() {
        return Ok(opts.addr.clone());
    }
    // Bind port 0, read the assignment back, release it for the child.
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot probe for a port: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot read probed address: {e}"))?;
    Ok(addr.to_string())
}

fn spawn_coordinator(bin: &PathBuf, addr: &str, opts: &SoakOptions) -> Result<Child, String> {
    Command::new(bin)
        .args([
            "coordinate",
            "--addr",
            addr,
            "--journal",
            &opts.journal.display().to_string(),
            "--recover",
            "--lease-ms",
            "15000",
            "--heartbeat-ms",
            "200",
            "--heartbeat-timeout-ms",
            "1500",
            "--queue-cap",
            "1024",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn coordinator: {e}"))
}

fn spawn_worker(
    bin: &PathBuf,
    addr: &str,
    idx: usize,
    opts: &SoakOptions,
) -> Result<Child, String> {
    Command::new(bin)
        .args([
            "serve",
            "--join",
            addr,
            "--name",
            &format!("soak-w{idx}"),
            "--jobs",
            &opts.slots.max(1).to_string(),
            "--rejoin",
            "--connect-retries",
            "200",
            "--no-cache",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn worker {idx}: {e}"))
}

/// The chaos director's view of the fleet's children.
struct Fleet {
    coordinator: Child,
    workers: Vec<Child>,
}

impl Fleet {
    fn kill_all(&mut self) {
        let _ = self.coordinator.kill();
        let _ = self.coordinator.wait();
        for w in &mut self.workers {
            let _ = w.kill();
            let _ = w.wait();
        }
    }
}

fn write_report(opts: &SoakOptions, report: &SoakReport) -> Result<(), String> {
    let doc = Json::obj(vec![
        ("version", Json::UInt(2)),
        ("duration_ms", Json::UInt(opts.duration_ms)),
        ("chaos", Json::Bool(opts.chaos)),
        ("workers", Json::UInt(opts.workers as u64)),
        ("seed", Json::UInt(opts.seed)),
        ("submits", Json::UInt(report.submits)),
        ("acked", Json::UInt(report.acked)),
        ("audited", Json::UInt(report.audited)),
        ("digest_matches", Json::UInt(report.digest_matches)),
        ("coordinator_kills", Json::UInt(report.coordinator_kills)),
        ("worker_kills", Json::UInt(report.worker_kills)),
        ("sims", Json::UInt(report.sims)),
        ("dedup_hits", Json::UInt(report.dedup_hits)),
        ("resumed", Json::UInt(report.resumed)),
    ]);
    gcl_mem::publish(&opts.out, format!("{doc}\n").as_bytes(), true)
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))
}

/// Drain and audit: every acked id must reach `done` with the payload a
/// local serial run of its spec produces. Then read which path served the
/// traffic from the final `status` and ask the fleet to shut down; `admin`
/// is dropped on return, which lets the drained coordinator exit.
fn audit(
    mut admin: ServeClient,
    acked: HashMap<u64, JobSpec>,
    report: &mut SoakReport,
) -> Result<(), String> {
    let mut ledger: Vec<(u64, JobSpec)> = acked.into_iter().collect();
    ledger.sort_unstable_by_key(|&(id, _)| id);
    report.acked = ledger.len() as u64;
    // A generous budget for the recovered fleet to finish everything it
    // ever acked.
    let deadline = Instant::now() + Duration::from_secs(120);
    // Serial ground truth, one local run per distinct cache key.
    let mut serial: HashMap<u64, String> = HashMap::new();
    for (id, spec) in &ledger {
        let key = spec.fingerprint().map_err(|e| e.to_string())?.key();
        if let Entry::Vacant(slot) = serial.entry(key) {
            let out = run_job(spec, None)
                .outcome
                .map_err(|e| format!("serial ground-truth run failed: {e}"))?;
            slot.insert(crate::fleet::encode_stats_payload(&out.stats).0);
        }
        let r = admin
            .wait(*id, deadline.saturating_duration_since(Instant::now()))
            .map_err(|e| format!("acknowledged job {id} was lost or never finished: {e}"))?;
        if r.get("state").and_then(Json::as_str) == Some("failed") {
            return Err(format!("acknowledged job {id} failed: {}", error_text(&r)));
        }
        let hex = r.get("stats").and_then(Json::as_str).unwrap_or("");
        let want = &serial[&key];
        if hex != want {
            return Err(format!(
                "job {id} ({}) diverged from serial: fleet payload {} bytes, serial {} bytes",
                spec.workload,
                hex.len() / 2,
                want.len() / 2,
            ));
        }
        report.audited += 1;
    }
    // Every key that got a serial run matched it, or the loop returned.
    report.digest_matches = serial.len() as u64;

    // Which path served the traffic, while the coordinator still runs.
    let status = admin.status()?;
    let cache = status.get("cache");
    let counter = |name| cache.and_then(|c| c.get(name)?.as_u64()).unwrap_or(0);
    report.sims = counter("sims");
    report.dedup_hits = counter("dedup_hits");
    report.resumed = counter("resumed");
    // Graceful drain so the children exit on their own.
    let _ = admin.shutdown();
    Ok(())
}

/// Run one soak session: spawn the fleet, drive traffic (optionally under
/// chaos), then drain and audit the durability invariants.
///
/// # Errors
///
/// A human-readable message when the options are inconsistent (an unknown
/// workload among them), the fleet cannot be spawned, nothing was acked,
/// or an invariant is violated (lost acknowledged job, serial divergence).
pub fn run_soak(opts: &SoakOptions) -> Result<SoakReport, String> {
    if opts.workers == 0 {
        return Err("soak needs at least one worker (--workers 1)".to_string());
    }
    if opts.duration_ms == 0 {
        return Err("soak needs a positive duration (--duration-ms)".to_string());
    }
    let bin = resolve_bin(opts)?;
    let addr = pick_addr(opts)?;
    let specs = ClosedLoop::specs(&opts.workloads, true, true)?;
    let traffic = ClosedLoop::new(
        &addr,
        opts.submitters,
        opts.think_ms,
        opts.seed,
        opts.distinct,
        specs,
    )?;
    if let Some(dir) = opts.journal.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    // A soak run owns its journal from genesis: a stale file from a
    // previous run would make "zero lost acked jobs" unfalsifiable.
    let _ = std::fs::remove_file(&opts.journal);

    let mut fleet = Fleet {
        coordinator: spawn_coordinator(&bin, &addr, opts)?,
        workers: Vec::new(),
    };
    // One retrying client outlives every coordinator restart: it waits
    // here for the first listener (~11 s of backoff) and drives the audit.
    let admin = ServeClient::connect(ClientOptions {
        addr: addr.clone(),
        retries: 12,
        seed: opts.seed,
        response_timeout_ms: 10_000,
        max_frame: 4 * 1024 * 1024,
        ..ClientOptions::default()
    })
    .and_then(|admin| {
        for idx in 0..opts.workers {
            fleet.workers.push(spawn_worker(&bin, &addr, idx, opts)?);
        }
        Ok(admin)
    });
    let admin = match admin {
        Ok(admin) => admin,
        Err(e) => {
            fleet.kill_all();
            return Err(e);
        }
    };

    // Traffic window: the submitters on their threads, the chaos director
    // on this one.
    let mut report = SoakReport::default();
    let started = Instant::now();
    let deadline = started + Duration::from_millis(opts.duration_ms);
    // A stream no submitter draws (submitter i seeds with seed ^ i·GOLDEN).
    let mut chaos_rng = Rng::new(!opts.seed);
    let first = |ms: u64| (opts.chaos && ms > 0).then(|| started + Duration::from_millis(ms));
    let mut next_worker_kill = first(opts.kill_worker_ms);
    let mut next_coord_kill = first(opts.kill_coordinator_ms);
    let (tally, directed) = traffic.run(|_| -> Result<(), String> {
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            if let Some(t) = next_worker_kill.filter(|&t| Instant::now() >= t) {
                next_worker_kill = Some(t + Duration::from_millis(opts.kill_worker_ms));
                let victim = chaos_rng.usize_below(fleet.workers.len());
                let _ = fleet.workers[victim].kill();
                let _ = fleet.workers[victim].wait();
                report.worker_kills += 1;
                fleet.workers[victim] = spawn_worker(&bin, &addr, victim, opts)?;
            }
            if let Some(t) = next_coord_kill.filter(|&t| Instant::now() >= t) {
                next_coord_kill = Some(t + Duration::from_millis(opts.kill_coordinator_ms));
                // The point of the whole exercise: SIGKILL, no goodbye,
                // then a --recover respawn on the same journal.
                let _ = fleet.coordinator.kill();
                let _ = fleet.coordinator.wait();
                report.coordinator_kills += 1;
                fleet.coordinator = spawn_coordinator(&bin, &addr, opts)?;
            }
        }
        Ok(())
    });
    if let Err(e) = directed {
        fleet.kill_all();
        return Err(e);
    }
    report.submits = tally.submits;
    let audited = audit(admin, tally.acked, &mut report);

    // Reap the fleet whether the audit passed or not.
    let reap_deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < reap_deadline {
        if let Ok(Some(_)) = fleet.coordinator.try_wait() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    fleet.kill_all();
    audited?;
    if report.acked == 0 {
        return Err(format!(
            "no submit was acked in {} ms: the soak audited nothing",
            opts.duration_ms
        ));
    }
    write_report(opts, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::variant;
    use gcl_sim::GpuConfig;
    use std::collections::HashSet;

    #[test]
    fn options_are_validated() {
        let mut opts = SoakOptions {
            workers: 0,
            ..SoakOptions::default()
        };
        assert!(run_soak(&opts).unwrap_err().contains("worker"));
        opts.workers = 1;
        opts.duration_ms = 0;
        assert!(run_soak(&opts).unwrap_err().contains("duration"));
        opts.duration_ms = 100;
        opts.workloads.clear();
        assert!(run_soak(&opts).unwrap_err().contains("workload"));
        opts.workloads = vec!["nope".to_string()];
        let err = run_soak(&opts).unwrap_err();
        assert!(err.contains("no workload named `nope`"), "{err}");
        opts.workloads = vec!["bfs".to_string()];
        opts.submitters = 0;
        assert!(run_soak(&opts).unwrap_err().contains("submitter"));
    }

    #[test]
    fn variants_mint_distinct_specs() {
        // The keys the soak has always minted: small() + sanitize, with
        // max_cycles nudged by the variant.
        let opts = SoakOptions::default();
        let mut keys = HashSet::new();
        for spec in ClosedLoop::specs(&opts.workloads, true, true).unwrap() {
            for v in 0..opts.distinct as u64 {
                let mut cfg = GpuConfig::small();
                cfg.sanitize = true;
                cfg.max_cycles += v;
                let minted = variant(&spec, v);
                assert_eq!(minted, JobSpec::new(&spec.workload, true, cfg));
                keys.insert(minted.fingerprint().expect("fingerprint").key());
            }
        }
        assert_eq!(keys.len(), 6, "every variant must be a distinct cache key");
    }
}
