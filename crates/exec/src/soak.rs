//! `gcl soak` — a long-haul fleet soak harness with an optional chaos
//! director.
//!
//! The harness owns the whole fleet as child processes: it spawns a
//! journaled coordinator (`gcl coordinate --journal … --recover`) and N
//! rejoin-capable workers (`gcl serve --join … --rejoin`), drives them
//! with closed-ish loadgen-style submitter threads, and — with `--chaos`
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
//! final `status`.

use crate::job::{run_job, JobSpec};
use crate::loadgen::{dial, GOLDEN};
use crate::proto::{error_text, result_frame, submit_frame, Conn};
use gcl_rng::Rng;
use gcl_sim::GpuConfig;
use gcl_stats::Json;
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
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

/// One distinct spec the soak traffic cycles through.
struct Variant {
    workload: String,
    max_cycles: Option<u64>,
}

impl Variant {
    fn spec(&self) -> JobSpec {
        let mut cfg = GpuConfig::small();
        cfg.sanitize = true;
        if let Some(mc) = self.max_cycles {
            cfg.max_cycles = mc;
        }
        JobSpec::new(&self.workload, true, cfg)
    }

    fn submit_request(&self) -> Json {
        submit_frame(&self.workload, true, true, self.max_cycles, None)
    }
}

fn variants(opts: &SoakOptions) -> Vec<Variant> {
    // Variant 0 is the stock tiny config; the rest nudge max_cycles off
    // the default to mint distinct fingerprints, loadgen-style.
    let base = GpuConfig::small().max_cycles;
    let mut out = Vec::new();
    for w in &opts.workloads {
        for v in 0..opts.distinct.max(1) as u64 {
            out.push(Variant {
                workload: w.clone(),
                max_cycles: (v > 0).then_some(base + v),
            });
        }
    }
    out
}

/// Round-trip with redial: the soak client's whole job is to outlive
/// coordinator restarts, so a dead connection is redialed until
/// `deadline`, not reported.
fn call_resilient(
    line: &mut Option<Conn>,
    addr: &str,
    request: &Json,
    deadline: Instant,
) -> Result<Json, String> {
    let mut last = String::new();
    loop {
        if Instant::now() >= deadline {
            return Err(format!("coordinator unreachable: {last}"));
        }
        if line.is_none() {
            match dial(addr) {
                Ok(l) => *line = Some(l),
                Err(e) => {
                    last = format!("cannot connect to {addr}: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                    continue;
                }
            }
        }
        let reply_by = Instant::now() + Duration::from_secs(10);
        match line.as_mut().expect("dialed").request(request, reply_by) {
            Ok(r) => return Ok(r),
            Err(e) => {
                last = e.to_string();
                *line = None;
            }
        }
    }
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

fn wait_listening(addr: &str, budget: Duration) -> Result<(), String> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(_) => return Ok(()),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("coordinator never listened on {addr}: {e}"));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

fn submitter_loop(
    idx: usize,
    addr: &str,
    opts: &SoakOptions,
    specs: &[Variant],
    acked: &Mutex<HashMap<u64, usize>>,
    submits: &AtomicU64,
    stop: &AtomicBool,
) {
    let mut rng = Rng::new(opts.seed ^ (idx as u64).wrapping_mul(GOLDEN));
    let mut line: Option<Conn> = None;
    while !stop.load(Ordering::SeqCst) {
        let think = opts.think_ms / 2 + u64::from(rng.u32_below(opts.think_ms.max(1) as u32 + 1));
        std::thread::sleep(Duration::from_millis(think));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let which = rng.u32_below(specs.len() as u32) as usize;
        let request = specs[which].submit_request();
        submits.fetch_add(1, Ordering::SeqCst);
        // Each submit gets a few seconds to land; a coordinator mid-kill
        // shows up as redials inside call_resilient, and a submit that
        // never acks this round is simply retried as fresh traffic (the
        // coordinator dedups by key, so retries cannot double-run).
        let deadline = Instant::now() + Duration::from_millis(5_000);
        match call_resilient(&mut line, addr, &request, deadline) {
            Ok(r) if matches!(r.get("ok"), Some(Json::Bool(true))) => {
                if let Some(id) = r.get("id").and_then(Json::as_u64) {
                    acked.lock().expect("ledger poisoned").insert(id, which);
                }
            }
            Ok(_) | Err(_) => {}
        }
    }
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

/// Run one soak session: spawn the fleet, drive traffic (optionally under
/// chaos), then drain and audit the durability invariants.
///
/// # Errors
///
/// A human-readable message when an invariant is violated (lost
/// acknowledged job, serial divergence) or the fleet cannot be spawned.
pub fn run_soak(opts: &SoakOptions) -> Result<SoakReport, String> {
    if opts.workers == 0 {
        return Err("soak needs at least one worker (--workers 1)".to_string());
    }
    if opts.duration_ms == 0 {
        return Err("soak needs a positive duration (--duration-ms)".to_string());
    }
    if opts.workloads.is_empty() {
        return Err("soak needs at least one workload".to_string());
    }
    let bin = resolve_bin(opts)?;
    let addr = pick_addr(opts)?;
    if let Some(dir) = opts.journal.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    // A soak run owns its journal from genesis: a stale file from a
    // previous run would make "zero lost acked jobs" unfalsifiable.
    let _ = std::fs::remove_file(&opts.journal);

    let specs = variants(opts);
    let mut fleet = Fleet {
        coordinator: spawn_coordinator(&bin, &addr, opts)?,
        workers: Vec::new(),
    };
    if let Err(e) = wait_listening(&addr, Duration::from_secs(10)) {
        fleet.kill_all();
        return Err(e);
    }
    for idx in 0..opts.workers {
        match spawn_worker(&bin, &addr, idx, opts) {
            Ok(w) => fleet.workers.push(w),
            Err(e) => {
                fleet.kill_all();
                return Err(e);
            }
        }
    }

    // Traffic window: submitters in scoped threads, the chaos director on
    // the main thread.
    let acked: Mutex<HashMap<u64, usize>> = Mutex::new(HashMap::new());
    let submits = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let mut report = SoakReport::default();
    let started = Instant::now();
    let deadline = started + Duration::from_millis(opts.duration_ms);
    let mut chaos_rng = Rng::new(opts.seed ^ GOLDEN);
    let mut next_worker_kill = (opts.chaos && opts.kill_worker_ms > 0)
        .then(|| started + Duration::from_millis(opts.kill_worker_ms));
    let mut next_coord_kill = (opts.chaos && opts.kill_coordinator_ms > 0)
        .then(|| started + Duration::from_millis(opts.kill_coordinator_ms));
    let spawn_err: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for idx in 0..opts.submitters.max(1) {
            let (acked, submits, stop, addr, specs) = (&acked, &submits, &stop, &addr, &specs[..]);
            scope.spawn(move || submitter_loop(idx, addr, opts, specs, acked, submits, stop));
        }
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            if let Some(t) = next_worker_kill {
                if Instant::now() >= t {
                    next_worker_kill = Some(t + Duration::from_millis(opts.kill_worker_ms));
                    let victim = chaos_rng.u32_below(fleet.workers.len() as u32) as usize;
                    let _ = fleet.workers[victim].kill();
                    let _ = fleet.workers[victim].wait();
                    report.worker_kills += 1;
                    match spawn_worker(&bin, &addr, victim, opts) {
                        Ok(w) => fleet.workers[victim] = w,
                        Err(e) => {
                            *spawn_err.lock().expect("spawn_err poisoned") = Some(e);
                            break;
                        }
                    }
                }
            }
            if let Some(t) = next_coord_kill {
                if Instant::now() >= t {
                    next_coord_kill = Some(t + Duration::from_millis(opts.kill_coordinator_ms));
                    // The point of the whole exercise: SIGKILL, no
                    // goodbye, then a --recover respawn on the same
                    // journal.
                    let _ = fleet.coordinator.kill();
                    let _ = fleet.coordinator.wait();
                    report.coordinator_kills += 1;
                    match spawn_coordinator(&bin, &addr, opts) {
                        Ok(c) => fleet.coordinator = c,
                        Err(e) => {
                            *spawn_err.lock().expect("spawn_err poisoned") = Some(e);
                            break;
                        }
                    }
                }
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    if let Some(e) = spawn_err.lock().expect("spawn_err poisoned").take() {
        fleet.kill_all();
        return Err(e);
    }
    report.submits = submits.load(Ordering::SeqCst);

    // Audit phase. Give the recovered fleet a generous budget to finish
    // everything it ever acked.
    let audit = (|| -> Result<(), String> {
        let ledger: Vec<(u64, usize)> = {
            let a = acked.lock().expect("ledger poisoned");
            let mut v: Vec<(u64, usize)> = a.iter().map(|(&id, &w)| (id, w)).collect();
            v.sort_unstable();
            v
        };
        report.acked = ledger.len() as u64;
        let mut line: Option<Conn> = None;
        let audit_deadline = Instant::now() + Duration::from_secs(120);

        // Serial ground truth, one local run per distinct spec.
        let mut serial: HashMap<usize, String> = HashMap::new();
        for &(_, which) in &ledger {
            if serial.contains_key(&which) {
                continue;
            }
            let result = run_job(&specs[which].spec(), None);
            match result.outcome {
                Ok(out) => {
                    let (hex, _) = crate::fleet::encode_stats_payload(&out.stats);
                    serial.insert(which, hex);
                }
                Err(e) => return Err(format!("serial ground-truth run failed: {e}")),
            }
        }

        let mut matched: HashSet<usize> = HashSet::new();
        for &(id, which) in &ledger {
            let poll = result_frame(id);
            loop {
                let r = call_resilient(&mut line, &addr, &poll, audit_deadline)?;
                match r.get("state").and_then(Json::as_str) {
                    Some("done") => {
                        let hex = r.get("stats").and_then(Json::as_str).unwrap_or("");
                        let want = serial.get(&which).map(String::as_str).unwrap_or("?");
                        if hex != want {
                            return Err(format!(
                                "job {id} ({}) diverged from serial: fleet payload {} bytes, \
                                 serial {} bytes",
                                specs[which].workload,
                                hex.len() / 2,
                                want.len() / 2,
                            ));
                        }
                        matched.insert(which);
                        report.audited += 1;
                        break;
                    }
                    Some("failed") => {
                        let err = error_text(&r);
                        return Err(format!("acknowledged job {id} failed: {err}"));
                    }
                    None if matches!(r.get("ok"), Some(Json::Bool(false))) => {
                        let err = error_text(&r);
                        return Err(format!("acknowledged job {id} was lost: {err}"));
                    }
                    _ => {
                        if Instant::now() >= audit_deadline {
                            return Err(format!("acknowledged job {id} never finished"));
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
        }
        report.digest_matches = matched.len() as u64;

        // Which path served the traffic, while the coordinator still runs.
        let status = Json::obj(vec![("op", Json::Str("status".into()))]);
        let s = call_resilient(&mut line, &addr, &status, audit_deadline)?;
        let cache = s.get("cache");
        let counter = |name| cache.and_then(|c| c.get(name)?.as_u64()).unwrap_or(0);
        report.sims = counter("sims");
        report.dedup_hits = counter("dedup_hits");
        report.resumed = counter("resumed");

        // Graceful drain so the children exit on their own.
        let shutdown = Json::obj(vec![("op", Json::Str("shutdown".into()))]);
        let _ = call_resilient(
            &mut line,
            &addr,
            &shutdown,
            Instant::now() + Duration::from_secs(10),
        );
        Ok(())
    })();

    // Reap the fleet whether the audit passed or not.
    let reap_deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < reap_deadline {
        if let Ok(Some(_)) = fleet.coordinator.try_wait() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    fleet.kill_all();
    audit?;
    write_report(opts, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn variants_mint_distinct_specs() {
        let opts = SoakOptions {
            workloads: vec!["bfs".to_string(), "spmv".to_string()],
            distinct: 3,
            ..SoakOptions::default()
        };
        let vs = variants(&opts);
        assert_eq!(vs.len(), 6);
        let keys: HashSet<u64> = vs
            .iter()
            .map(|v| v.spec().fingerprint().expect("fingerprint").key())
            .collect();
        assert_eq!(keys.len(), 6, "every variant must be a distinct cache key");
    }
}
