//! `fleet-warm` and `fleet-cold`: a real `gcl coordinate` plus one
//! `gcl serve --join --jobs 1` worker, driven over the NDJSON protocol by
//! closed-loop clients with zero think time.
//!
//! `fleet-cold` (the write path) runs the coordinator with `--journal` and
//! two clients on session connections, each with one job at a time, reading
//! pushed events. `fleet-warm` (the read path) runs without a journal and
//! on one plain connection: with a journal its throughput followed the
//! sandbox disk's fsync latency (2,600 against 4,400 jobs/s an hour apart,
//! same binaries), and on a session the coordinator's un-flushed small
//! writes meet the kernel's delayed ACK and every job takes 43 ms however
//! fast `gcl-exec` is. Both effects are measured on their own:
//! `exec.journal_ack_overhead_us` and `exec.event_push_stall_ms`.
//!
//! `fleet-warm` keeps a window of `WARM_WINDOW` jobs in flight on its
//! connection and polls the socket instead of sleeping on it. One job at a
//! time from a client that sleeps made every job two sleep/wake-up pairs
//! between processes, and the run measured where the host of a shared
//! two-core VM scheduled them (jobs/s spread 15-60 % between runs of the
//! same binaries). With the window and the polling client the
//! coordinator's connection thread always has a request waiting, so the
//! run measures the CPU time `gcl-exec` spends per job, on two busy
//! threads for two cores.
//!
//! The daemons are child processes of the `gcl` binary, started on an
//! OS-assigned port in this run's scratch directory and always shut down
//! and reaped — also when a check fails or the harness panics.

use crate::client::Client;
use crate::common::{peak_rss_mb, Ctx, Outcome, Rng, ALL_APPS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{spec_for, SimTotals};
use gcl_exec::run_job;
use gcl_mem::Dec;
use gcl_sim::LaunchStats;
use gcl_stats::Json;
use std::collections::{BTreeMap, VecDeque};
use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `fleet-cold`'s closed-loop clients, each on its own session connection.
const CLIENTS: usize = 2;
/// Distinct cache keys `fleet-warm` draws from.
const HOT_KEYS: usize = 16;
/// Jobs `fleet-warm` keeps in flight on its one connection.
const WARM_WINDOW: usize = 8;
/// Jobs per pass. `fleet-warm`'s passes are stretches of one unbroken
/// stream, about half a second each, so the median is over some twenty.
const WARM_JOBS_PER_PASS: usize = 2000;
const COLD_JOBS_PER_PASS: usize = 70;
/// Jobs `fleet-warm` streams before the clock starts.
const WARM_UP_JOBS: usize = 1000;
/// Compaction is kept off the measured path so journal growth per job can
/// be read from the file size.
const JOURNAL_COMPACT_BYTES: &str = "268435456";

/// Kernel clock ticks per second `/proc/<pid>/stat` counts in (Linux
/// `USER_HZ`, 100 on every supported configuration).
const USER_HZ: f64 = 100.0;

/// A child process that is killed and reaped when dropped.
struct Daemon(Child);

impl Daemon {
    fn spawn(gcl: &Path, args: &[&str], dir: &Path, log: &str) -> Result<Daemon, String> {
        let log = File::create(dir.join(log)).map_err(|e| format!("log file: {e}"))?;
        Command::new(gcl)
            .args(args)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map(Daemon)
            .map_err(|e| format!("spawn {}: {e}", gcl.display()))
    }

    /// Wait up to `limit` for the process to exit on its own.
    fn wait_exit(&mut self, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if matches!(self.0.try_wait(), Ok(Some(_))) {
                return true;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }

    /// CPU time (user + system) consumed so far, milliseconds.
    fn cpu_ms(&self) -> f64 {
        std::fs::read_to_string(format!("/proc/{}/stat", self.0.id()))
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name; utime and
                // stime are the 12th and 13th of those.
                let rest = s.rsplit_once(')')?.1;
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
            })
            .map_or(0.0, |ticks| ticks * 1e3 / USER_HZ)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A running coordinator + worker pair.
pub struct Fleet {
    coordinator: Daemon,
    worker: Daemon,
    /// `127.0.0.1:<port>` the coordinator listens on.
    pub addr: String,
    journal: Option<PathBuf>,
    /// Spawn of the coordinator → worker reported alive by `status`.
    pub startup_ms: f64,
}

impl Fleet {
    /// Start the pair in `dir` and wait (polling `status`) until the worker
    /// has joined.
    pub fn start(gcl: &Path, dir: &Path, journal: bool) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        // The port is free when probed; if another process takes it before
        // the coordinator binds, the readiness poll fails and we retry.
        let mut last = String::new();
        for _ in 0..3 {
            match Fleet::start_once(gcl, dir, journal) {
                Ok(f) => return Ok(f),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn start_once(gcl: &Path, dir: &Path, journal: bool) -> Result<Fleet, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let journal = journal.then(|| dir.join(format!("journal-{port}.wal")));
        let mut args = vec!["coordinate", "--addr", &addr];
        let journal_arg = journal.as_ref().map(|p| p.display().to_string());
        if let Some(j) = &journal_arg {
            args.extend([
                "--journal",
                j,
                "--journal-compact-bytes",
                JOURNAL_COMPACT_BYTES,
            ]);
        }
        let t0 = Instant::now();
        let mut coordinator = Daemon::spawn(gcl, &args, dir, "coordinator.log")?;
        let mut worker = Daemon::spawn(
            gcl,
            &["serve", "--join", &addr, "--jobs", "1", "--name", "w0"],
            dir,
            "worker.log",
        )?;
        let deadline = t0 + Duration::from_secs(20);
        loop {
            let joined = Client::connect(&addr)
                .and_then(|mut c| c.status())
                .map(|s| {
                    s.get("workers").and_then(Json::as_arr).is_some_and(|w| {
                        w.iter()
                            .any(|w| w.get("alive").and_then(Json::as_bool) == Some(true))
                    })
                })
                .unwrap_or(false);
            if joined {
                break;
            }
            let died = matches!(coordinator.0.try_wait(), Ok(Some(_)))
                || matches!(worker.0.try_wait(), Ok(Some(_)));
            if died || Instant::now() >= deadline {
                return Err(format!("fleet on {addr} did not become ready"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Fleet {
            coordinator,
            worker,
            addr,
            journal,
            startup_ms: t0.elapsed().as_secs_f64() * 1e3,
        })
    }

    /// Bytes the journal holds now (0 without `--journal`).
    fn journal_bytes(&self) -> u64 {
        self.journal
            .as_ref()
            .and_then(|p| std::fs::metadata(p).ok())
            .map_or(0, |m| m.len())
    }

    /// Peak RSS of coordinator + worker, MiB.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.coordinator.0.id()) + peak_rss_mb(self.worker.0.id())
    }

    /// `shutdown` verb, then reap both children (killed if they linger).
    pub fn stop(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        self.coordinator.wait_exit(Duration::from_secs(5));
        self.worker.wait_exit(Duration::from_secs(5));
    }
}

/// One job as a client saw it; times in milliseconds.
#[derive(Debug, Clone, Default)]
struct JobSample {
    /// Submit sent → `done` event received.
    latency_ms: f64,
    ack_us: f64,
    queued_to_leased_ms: Option<f64>,
    leased_to_done_ms: Option<f64>,
    done_to_result_ms: f64,
    /// For a freshly simulated job (not one served from a store): the
    /// statistics the worker shipped and the seconds its simulation took.
    simulated: Option<(&'static str, LaunchStats, f64)>,
}

/// `(cycles, warp_insts)` of every tiny app, from in-process `run_job`.
type Reference = BTreeMap<&'static str, (u64, u64)>;

fn reference() -> Reference {
    ALL_APPS
        .iter()
        .map(|&app| {
            let stats = run_job(&spec_for(app, true), None)
                .outcome
                .unwrap_or_else(|e| panic!("reference run of {app} failed: {e}"))
                .stats;
            (app, (stats.cycles, stats.sm.warp_insts))
        })
        .collect()
}

/// When each lifecycle event of one job reached the client.
type Timeline = (Option<Instant>, Option<Instant>, Instant);

/// Read session events until job `id` is `done`.
fn wait_done(client: &mut Client, id: u64, app: &str) -> Result<Timeline, String> {
    let (mut queued, mut leased) = (None, None);
    loop {
        let (event, at) = client.next_event()?;
        if event.get("job").and_then(Json::as_u64) != Some(id) {
            continue;
        }
        match event.get("event").and_then(Json::as_str) {
            Some("queued") => queued = Some(at),
            Some("leased") => leased = Some(at),
            Some("done") => return Ok((queued, leased, at)),
            Some("failed") => return Err(format!("{app}: job {id} failed: {event}")),
            _ => {}
        }
    }
}

/// Ask for job `id`'s result until it is `done` (the first answer already
/// is for a finished key; otherwise re-ask every millisecond).
fn poll_done(client: &mut Client, id: u64, app: &str) -> Result<Json, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let r = client.result(id)?;
        match r.get("state").and_then(Json::as_str) {
            Some("done") => return Ok(r),
            Some("failed") => return Err(format!("{app}: job {id} failed: {r}")),
            _ if Instant::now() >= deadline => return Err(format!("{app}: job {id} timed out")),
            _ => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// One closed-loop job, checked against the in-process reference.
///
/// On a session connection: submit, read pushed events until `done`,
/// fetch the result. On a plain connection: submit, then ask for the
/// result until it is done — request/response pairs only.
fn one_job(
    client: &mut Client,
    tracer: &mut Tracer,
    op: u64,
    (app, max_cycles): (&'static str, Option<u64>),
    reference: &Reference,
) -> Result<JobSample, String> {
    let span = tracer.begin("bench.op", op);
    let sent = Instant::now();
    let s = tracer.begin("exec.wire_submit", op);
    let id = client.submit(app, max_cycles);
    tracer.end(s);
    let acked = Instant::now();
    let s = tracer.begin("exec.wire_wait", op);
    let waited = id.and_then(|id| {
        if client.in_session() {
            Ok((id, None, wait_done(client, id, app)?))
        } else {
            let r = poll_done(client, id, app)?;
            Ok((id, Some(r), (None, None, Instant::now())))
        }
    });
    tracer.end(s);
    let s = tracer.begin("exec.wire_result", op);
    let fetched = waited.and_then(|(id, polled, timeline)| {
        let r = match polled {
            Some(r) => r,
            None => client.result(id)?,
        };
        Ok((r, timeline, Instant::now()))
    });
    tracer.end(s);
    tracer.end(span);
    let (r, (queued, leased, done), got) = fetched?;
    let counts = (
        r.get("cycles").and_then(Json::as_u64),
        r.get("warp_insts").and_then(Json::as_u64),
    );
    let want = reference[app];
    if counts != (Some(want.0), Some(want.1)) {
        return Err(format!(
            "{app}: fleet result {counts:?} differs from in-process run_job {want:?}"
        ));
    }
    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    Ok(JobSample {
        latency_ms: ms(sent, done),
        ack_us: ms(sent, acked) * 1e3,
        queued_to_leased_ms: queued.zip(leased).map(|(q, l)| ms(q, l)),
        leased_to_done_ms: leased.map(|l| ms(l, done)),
        done_to_result_ms: ms(done, got),
        simulated: match r.get("cached").and_then(Json::as_bool) {
            Some(false) => Some((app, shipped_stats(&r)?, worker_s(&r))),
            _ => None,
        },
    })
}

/// The full `LaunchStats` a `result` frame carries in wire form.
fn shipped_stats(result: &Json) -> Result<LaunchStats, String> {
    let hex = result
        .get("stats")
        .and_then(Json::as_str)
        .ok_or("result has no `stats`")?;
    let bytes = gcl_exec::proto::hex_decode(hex)?;
    LaunchStats::ckpt_decode(&mut Dec::new(&bytes)).map_err(|e| format!("result stats: {e}"))
}

/// Seconds the worker spent simulating, as the `result` frame reports.
fn worker_s(result: &Json) -> f64 {
    result
        .get("worker_wall_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
        / 1e3
}

/// The coordinator's counters the per-layer metrics are deltas of.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    sims: f64,
    dedup_hits: f64,
    stores: f64,
    sheds: f64,
    reassigned: f64,
}

fn counters(addr: &str) -> Result<Counters, String> {
    let s = Client::connect(addr)?.status()?;
    let cache = |k: &str| {
        s.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(Counters {
        sims: cache("sims"),
        dedup_hits: cache("dedup_hits"),
        stores: cache("stores"),
        sheds: s.get("sheds").and_then(Json::as_f64).unwrap_or(0.0),
        reassigned: s.get("workers").and_then(Json::as_arr).map_or(0.0, |w| {
            w.iter()
                .filter_map(|w| w.get("reassigned").and_then(Json::as_f64))
                .sum()
        }),
    })
}

/// The `max_cycles` that makes job `n` of this run a cache key nobody has
/// used: same simulation (the cap is far above any tiny run), new
/// fingerprint.
fn nudge(seed: u64, n: u64) -> u64 {
    gcl_sim::GpuConfig::small().max_cycles + 1 + (seed % 1000) * 10_000_000 + n
}

/// What a `fleet-cold` pass of `jobs_per_client` jobs per client draws.
#[derive(Debug, Clone, Copy)]
struct Draw {
    seed: u64,
    /// First job number of this batch (cold keys never repeat).
    base: u64,
    jobs_per_client: usize,
}

/// Run one batch of never-seen keys on every client in parallel; returns
/// the samples and the failures, and merges the clients' spans into
/// `tracer`.
fn batch(
    clients: &mut [Client],
    tracer: &mut Tracer,
    draw: Draw,
    reference: &Reference,
) -> (Vec<JobSample>, Vec<String>) {
    let (origin, traced) = (tracer.origin(), tracer.enabled());
    let per_client: Vec<(Vec<JobSample>, Vec<String>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut tr = Tracer::new(origin);
                    tr.set_enabled(traced);
                    // The same draw every pass, so per-pass counts repeat exactly.
                    let mut rng = Rng::new(draw.seed, c as u64);
                    let (mut ok, mut bad) = (Vec::new(), Vec::new());
                    for j in 0..draw.jobs_per_client {
                        let n = draw.base + (c * draw.jobs_per_client + j) as u64;
                        let app = ALL_APPS[rng.below(ALL_APPS.len() as u64) as usize];
                        let key = (app, Some(nudge(draw.seed, n)));
                        match one_job(client, &mut tr, n, key, reference) {
                            Ok(s) => ok.push(s),
                            Err(e) => bad.push(e),
                        }
                    }
                    (ok, bad, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let (mut samples, mut failures) = (Vec::new(), Vec::new());
    for (ok, bad, tr) in per_client {
        samples.extend(ok);
        failures.extend(bad);
        tracer.absorb(tr);
    }
    (samples, failures)
}

/// A request of the stream that has not been answered yet.
#[derive(Debug)]
struct InFlight {
    /// Job number, the span op id.
    n: u64,
    app: &'static str,
    /// When the job's `submit` was sent.
    sent: Instant,
    /// When its ack arrived; `None` while the `submit` is the open request.
    acked: Option<Instant>,
}

/// `fleet-warm`'s client: one plain connection with [`WARM_WINDOW`] jobs in
/// flight, each a `submit` and then a `result`. The coordinator answers in
/// request order, so the open requests are a queue. Every answer read is
/// followed by exactly one request sent, which keeps the window full and
/// lets the kernel piggyback its ACKs (a reader that only reads meets the
/// delayed-ACK timer, see `exec.event_push_stall_ms`).
struct Stream<'a> {
    client: Client,
    rng: Rng,
    next: u64,
    open: VecDeque<InFlight>,
    reference: &'a Reference,
}

impl<'a> Stream<'a> {
    /// Connect and fill the window.
    fn start(addr: &str, seed: u64, reference: &'a Reference) -> Result<Stream<'a>, String> {
        let mut client = Client::connect(addr)?;
        client.poll()?;
        let mut s = Stream {
            client,
            rng: Rng::new(seed, 0),
            next: 1,
            open: VecDeque::new(),
            reference,
        };
        for _ in 0..WARM_WINDOW {
            s.submit_next()?;
        }
        Ok(s)
    }

    /// Submit the next job of the seeded draw from the hot keys.
    fn submit_next(&mut self) -> Result<(), String> {
        let (app, max_cycles) = hot_key(self.rng.below(HOT_KEYS as u64) as usize);
        let sent = Instant::now();
        self.client.send_submit(app, max_cycles)?;
        self.open.push_back(InFlight {
            n: self.next,
            app,
            sent,
            acked: None,
        });
        self.next += 1;
        Ok(())
    }

    /// Read answers until `jobs` more jobs have finished. A job that fails
    /// is a line in the second list; `Err` means the connection is gone.
    fn run(
        &mut self,
        jobs: usize,
        tracer: &mut Tracer,
    ) -> Result<(Vec<JobSample>, Vec<String>), String> {
        let (mut ok, mut bad) = (Vec::new(), Vec::new());
        while ok.len() + bad.len() < jobs {
            let job = self.open.pop_front().ok_or("no request in flight")?;
            let answer = tracer.time("exec.wire_wait", job.n, || self.client.recv())?;
            let now = Instant::now();
            let Some(acked) = job.acked else {
                // The ack of a `submit`: ask for the job's result.
                match Client::job_id(&answer) {
                    Ok(id) => {
                        self.client.send_result(id)?;
                        self.open.push_back(InFlight {
                            acked: Some(now),
                            ..job
                        });
                    }
                    Err(e) => {
                        bad.push(format!("{}: {e}", job.app));
                        self.submit_next()?;
                    }
                }
                continue;
            };
            // A hot key is finished, so the first `result` already is final.
            let want = self.reference[job.app];
            let counts = (
                answer.get("cycles").and_then(Json::as_u64),
                answer.get("warp_insts").and_then(Json::as_u64),
            );
            let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
            if answer.get("state").and_then(Json::as_str) != Some("done") {
                bad.push(format!("{}: hot key not done: {answer}", job.app));
            } else if counts != (Some(want.0), Some(want.1)) {
                bad.push(format!(
                    "{}: fleet result {counts:?} differs from in-process run_job {want:?}",
                    job.app
                ));
            } else {
                ok.push(JobSample {
                    latency_ms: ms(job.sent, now),
                    ack_us: ms(job.sent, acked) * 1e3,
                    ..JobSample::default()
                });
            }
            self.submit_next()?;
        }
        Ok((ok, bad))
    }
}

/// Hot key `i`: the 15 tiny apps, then `2mm` again under a nudged cap.
fn hot_key(i: usize) -> (&'static str, Option<u64>) {
    if i < ALL_APPS.len() {
        (ALL_APPS[i], None)
    } else {
        (
            ALL_APPS[i - ALL_APPS.len()],
            Some(gcl_sim::GpuConfig::small().max_cycles - 1),
        )
    }
}

/// One connection per closed-loop client; `session` upgrades each to an
/// event stream.
fn open_clients(addr: &str, session: bool) -> Result<Vec<Client>, String> {
    (0..CLIENTS)
        .map(|_| {
            let mut c = Client::connect(addr)?;
            if session {
                c.session()?;
            }
            Ok(c)
        })
        .collect()
}

fn p50(samples: &[JobSample], f: impl Fn(&JobSample) -> Option<f64>) -> f64 {
    median(&samples.iter().filter_map(f).collect::<Vec<_>>())
}

/// Every `exec.*` metric a workload derives, at zero: what a workload that
/// never touches the fleet reports.
pub fn zero_layer(layer: &mut BTreeMap<String, f64>) {
    for name in [
        "exec.startup_to_ready_ms",
        "exec.frame_roundtrip_us",
        "exec.event_push_stall_ms",
        "exec.submit_ack_us_p50",
        "exec.journal_ack_overhead_us",
        "exec.journal_bytes_per_job",
        "exec.queued_to_leased_ms_p50",
        "exec.leased_to_done_ms_p50",
        "exec.done_to_result_ms_p50",
        "exec.coordinator_cpu_ms_per_job",
        "exec.worker_cpu_ms_per_job",
        "exec.sims_per_op",
        "exec.dedup_hits_per_op",
        "exec.stores_per_op",
        "exec.sheds_per_op",
        "exec.reassigned_per_op",
    ] {
        layer.insert(name.into(), 0.0);
    }
}

fn fleet_workload(ctx: &Ctx, cold: bool) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let dir = ctx.scratch.join("fleet");
    // Set-up: in-process reference results, daemon start-to-ready, session
    // attach, one job per hot key (warm: fills the stores; cold: pages the
    // worker in on keys the timed part never uses) and, warm, the first
    // stretch of the stream.
    let t = Instant::now();
    let reference = reference();
    let fleet = Fleet::start(&ctx.gcl_bin, &dir, cold)?;
    let mut clients = open_clients(&fleet.addr, cold)?;
    // Jobs outside the timed passes record no spans.
    let mut idle = Tracer::new(Instant::now());
    for i in 0..HOT_KEYS {
        one_job(
            &mut clients[i % CLIENTS],
            &mut idle,
            0,
            hot_key(i),
            &reference,
        )?;
    }
    let stream = if cold {
        None
    } else {
        let mut s = Stream::start(&fleet.addr, ctx.seed, &reference)?;
        let (_, bad) = s.run(if ctx.smoke { 20 } else { WARM_UP_JOBS }, &mut idle)?;
        if let Some(e) = bad.into_iter().next() {
            return Err(e);
        }
        Some(s)
    };
    out.setup_s.push(t.elapsed().as_secs_f64());

    let before = counters(&fleet.addr)?;
    let journal_before = fleet.journal_bytes();
    let cpu_before = (fleet.coordinator.cpu_ms(), fleet.worker.cpu_ms());
    let mut samples: Vec<JobSample> = Vec::new();
    if let Some(mut stream) = stream {
        let jobs = if ctx.smoke { 180 } else { WARM_JOBS_PER_PASS };
        out.drive(ctx, |out, _| match stream.run(jobs, &mut out.tracer) {
            Ok((ok, bad)) => {
                out.attempted += (ok.len() + bad.len()) as u64;
                bad.into_iter().for_each(|e| out.fail(e));
                samples.extend(ok);
            }
            Err(e) => {
                out.attempted += jobs as u64;
                out.fail(e);
                out.stop = true;
            }
        });
        // The jobs still in flight belong to no pass; closing the
        // connection abandons them.
        drop(stream);
    } else {
        let jobs_per_client = if ctx.smoke {
            10
        } else {
            COLD_JOBS_PER_PASS / CLIENTS
        };
        let mut next_job = 1u64;
        out.drive(ctx, |out, _| {
            let draw = Draw {
                seed: ctx.seed,
                base: next_job,
                jobs_per_client,
            };
            next_job += (jobs_per_client * CLIENTS) as u64;
            let (ok, bad) = batch(&mut clients, &mut out.tracer, draw, &reference);
            out.attempted += (ok.len() + bad.len()) as u64;
            bad.into_iter().for_each(|e| out.fail(e));
            samples.extend(ok);
        });
    }
    let ops = out.attempted.max(1) as f64;
    let after = counters(&fleet.addr)?;
    out.op_ms = samples.iter().map(|s| s.latency_ms).collect();
    out.child_rss_mb = fleet.peak_rss_mb();

    let mut layer = BTreeMap::new();
    zero_layer(&mut layer);
    let mut put = |k: &str, v: f64| {
        layer.insert(k.to_string(), v);
    };
    put("exec.startup_to_ready_ms", fleet.startup_ms);
    put("exec.submit_ack_us_p50", p50(&samples, |s| Some(s.ack_us)));
    put(
        "exec.queued_to_leased_ms_p50",
        p50(&samples, |s| s.queued_to_leased_ms),
    );
    put(
        "exec.leased_to_done_ms_p50",
        p50(&samples, |s| s.leased_to_done_ms),
    );
    put(
        "exec.done_to_result_ms_p50",
        p50(&samples, |s| Some(s.done_to_result_ms)),
    );
    put(
        "exec.journal_bytes_per_job",
        fleet.journal_bytes().saturating_sub(journal_before) as f64 / ops,
    );
    put(
        "exec.coordinator_cpu_ms_per_job",
        (fleet.coordinator.cpu_ms() - cpu_before.0) / ops,
    );
    put(
        "exec.worker_cpu_ms_per_job",
        (fleet.worker.cpu_ms() - cpu_before.1) / ops,
    );
    put("exec.sims_per_op", (after.sims - before.sims) / ops);
    put(
        "exec.dedup_hits_per_op",
        (after.dedup_hits - before.dedup_hits) / ops,
    );
    put("exec.stores_per_op", (after.stores - before.stores) / ops);
    put("exec.sheds_per_op", (after.sheds - before.sheds) / ops);
    put(
        "exec.reassigned_per_op",
        (after.reassigned - before.reassigned) / ops,
    );

    // Useful-outcome check: warm jobs must be dedup joins, cold jobs fresh
    // simulations; anything else means the workload measured another path.
    let simulated = samples.iter().filter(|s| s.simulated.is_some()).count() as f64;
    let useful = if cold {
        (after.sims - before.sims).min(simulated)
    } else {
        after.dedup_hits - before.dedup_hits
    };
    if useful / ops < 0.99 {
        out.fail(format!(
            "only {useful} of {ops} jobs took the {} path",
            if cold { "simulate" } else { "dedup" }
        ));
    }

    if ctx.traced {
        // Idle-fleet probes on the same daemons, after the timed part.
        let mut c = Client::connect(&fleet.addr)?;
        let mut rtt = Vec::new();
        for _ in 0..200 {
            let t = Instant::now();
            c.status()?;
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
        put("exec.frame_roundtrip_us", median(&rtt));
        // A finished key resubmitted by a client that stays silent after
        // the ack: how long the pushed `done` event takes to arrive.
        let mut pushed = open_clients(&fleet.addr, true)?.remove(0);
        let stalls: Vec<f64> = (0..if ctx.smoke { 3 } else { 20 })
            .map(|i| one_job(&mut pushed, &mut idle, 0, hot_key(i % HOT_KEYS), &reference))
            .collect::<Result<Vec<_>, _>>()?
            .iter()
            .map(|s| s.latency_ms)
            .collect();
        put("exec.event_push_stall_ms", median(&stalls));
        // Ack latency of fresh submits with and without a journal (the
        // journaled ack waits for the Submit record's fsync): this fleet
        // is one kind, a second one started here is the other.
        let n = if ctx.smoke { 8 } else { 40 };
        let here = ack_us(
            &mut pushed,
            &mut idle,
            n,
            nudge(ctx.seed, 5_000_000),
            &reference,
        )?;
        let other = Fleet::start(&ctx.gcl_bin, &ctx.scratch.join("fleet-other"), !cold)?;
        let mut other_client = open_clients(&other.addr, true)?.remove(0);
        let there = ack_us(
            &mut other_client,
            &mut idle,
            n,
            nudge(ctx.seed, 6_000_000),
            &reference,
        );
        drop(other_client);
        other.stop();
        let (journaled, bare) = if cold { (here, there?) } else { (there?, here) };
        put("exec.journal_ack_overhead_us", journaled - bare);
    }
    drop(clients);
    fleet.stop();
    // What the worker simulated, from the statistics it shipped.
    let mut sim = SimTotals::default();
    for (app, stats, host_s) in samples.iter().filter_map(|s| s.simulated.as_ref()) {
        sim.add(app, stats, *host_s);
    }
    sim.end_passes(out.all_pass_s().len() as u64);
    sim.into_layer(&mut layer);
    out.layer = layer;
    Ok(out)
}

/// Median submit→ack latency of `n` never-seen keys, microseconds.
fn ack_us(
    client: &mut Client,
    idle: &mut Tracer,
    n: usize,
    first_cap: u64,
    reference: &Reference,
) -> Result<f64, String> {
    let mut acks = Vec::new();
    for i in 0..n {
        let app = ALL_APPS[i % ALL_APPS.len()];
        let key = (app, Some(first_cap + i as u64));
        acks.push(one_job(client, idle, 0, key, reference)?.ack_us);
    }
    Ok(median(&acks))
}

fn run(ctx: &Ctx, cold: bool) -> Outcome {
    fleet_workload(ctx, cold).unwrap_or_else(|e| {
        // A fleet that cannot start or answer is one failed op, not a crash.
        let mut out = Outcome::new();
        out.attempted = 1;
        out.fail(e);
        out.setup_s.push(0.0);
        out.pass_s.push(0.0);
        out.pass_ops_per_s.push(0.0);
        out
    })
}

/// `fleet-warm`: every job is a dedup join on a finished key — the
/// coordinator's read path.
pub fn fleet_warm(ctx: &Ctx) -> Outcome {
    run(ctx, false)
}

/// `fleet-cold`: every job is leased, simulated, verified, stored and
/// journaled — the write path.
pub fn fleet_cold(ctx: &Ctx) -> Outcome {
    run(ctx, true)
}
