//! The worker side of fleet mode: `gcl serve --join COORD:PORT`.
//!
//! A worker dials the coordinator (capped-backoff retry on connect),
//! introduces itself with a `join` frame, and then serves one full-duplex
//! NDJSON connection: it answers `ping` with `pong`, runs every `assign`
//! on one of its runner threads (consulting the shared result cache when
//! configured), and reports `done`/`fail` frames. The result payload is
//! the complete wire-encoded `LaunchStats` plus an FNV checksum over the
//! honest bytes, so the coordinator can tell a corrupt frame from a valid
//! one.
//!
//! All [`FleetInject`] chaos modes act here — the worker is the component
//! that fails in production, so it is the component the chaos layer
//! breaks.

use super::inject::FleetInject;
use crate::cache::ResultCache;
use crate::job::run_job_from;
use crate::proto::{
    inventory_frame, parse_submit, write_frame, Conn, FrameError, FrameReader, MAX_FRAME,
};
use crate::trace_store::TraceStore;
use gcl_rng::{backoff::Backoff, Rng};
use gcl_stats::Json;
use std::collections::HashSet;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// How a worker joins and runs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Coordinator address, `HOST:PORT`.
    pub coord: String,
    /// Name reported in the coordinator's per-worker outcome table.
    pub name: String,
    /// Concurrent jobs this worker runs (its advertised lease capacity).
    pub slots: usize,
    /// Consult (and fill) this result cache.
    pub cache: Option<ResultCache>,
    /// Serve assigned jobs by replaying shipped trace containers instead
    /// of functional execution; absent or mismatched containers fail the
    /// job structurally (reported as `fail` frames), never fall back.
    pub traces: Option<TraceStore>,
    /// Chaos injection (inert by default).
    pub inject: FleetInject,
    /// Extra connect attempts before giving up on the coordinator.
    pub connect_retries: u64,
    /// Backoff policy between connect attempts.
    pub backoff: Backoff,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
    /// Redial and re-join when the coordinator connection drops, instead
    /// of exiting. Held leases are re-announced with an `inventory` frame
    /// so a recovered coordinator resumes them.
    pub rejoin: bool,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            coord: "127.0.0.1:7177".to_string(),
            name: "worker".to_string(),
            slots: 1,
            cache: None,
            traces: None,
            inject: FleetInject::none(),
            connect_retries: 8,
            backoff: Backoff::default(),
            seed: 0x0077_726b, // "wrk"
            rejoin: false,
        }
    }
}

/// What a worker did before its connection ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Jobs this worker completed (successfully or with a structured
    /// failure) and reported.
    pub jobs_run: u64,
    /// The kill-mid-job injection fired.
    pub killed: bool,
    /// The partition injection fired.
    pub partitioned: bool,
    /// Times the worker redialled and re-joined after losing the
    /// coordinator connection (always 0 without `--rejoin`).
    pub rejoins: u64,
}

/// Everything runner threads share with the reader loop.
struct WorkerState {
    writer: Mutex<TcpStream>,
    /// Suppress all writes: a partitioned or killed worker is silent.
    silent: AtomicBool,
    /// The worker is exiting for good: runners stop retrying reports.
    closing: AtomicBool,
    /// Rejoin mode: a runner whose report write fails retries on the
    /// (re-dialled) socket instead of giving up.
    rejoin: bool,
    jobs_run: AtomicU64,
    corrupt_budget: AtomicU64,
    cache: Option<ResultCache>,
    traces: Option<TraceStore>,
    inject: FleetInject,
    /// Job ids accepted but not yet reported: what an `inventory` frame
    /// re-announces as held leases after a reconnect.
    running: Mutex<HashSet<u64>>,
    /// A second handle on the socket so a runner can tear it down abruptly
    /// (the kill-mid-job injection).
    sock: Mutex<TcpStream>,
}

fn dial(opts: &WorkerOptions, rng: &mut Rng) -> Result<Conn, String> {
    let mut last = String::new();
    for attempt in 0..=opts.connect_retries {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(opts.backoff.delay_ms(attempt, rng)));
        }
        match Conn::dial(
            &opts.coord,
            Duration::from_millis(50),
            Duration::from_millis(2_000),
            MAX_FRAME,
        ) {
            Ok(conn) => return Ok(conn),
            Err(e) => last = format!("cannot reach coordinator {}: {e}", opts.coord),
        }
    }
    Err(format!(
        "{last} (after {} attempts)",
        opts.connect_retries + 1
    ))
}

/// Dial and run the join handshake. Returns the frame reader plus two
/// handles on the socket (writer, teardown).
fn connect_handshake(
    opts: &WorkerOptions,
    rng: &mut Rng,
) -> Result<(FrameReader<TcpStream>, TcpStream, TcpStream), String> {
    let mut conn = dial(opts, rng)?;
    let sock = conn
        .writer
        .try_clone()
        .map_err(|e| format!("cannot clone stream: {e}"))?;
    let join = Json::obj(vec![
        ("op", Json::Str("join".into())),
        ("name", Json::Str(opts.name.clone())),
        ("slots", Json::UInt(opts.slots.max(1) as u64)),
    ]);
    let ack = conn
        .request(&join, Instant::now() + Duration::from_secs(10))
        .map_err(|e| match e {
            FrameError::Timeout => "coordinator never acknowledged join".to_string(),
            FrameError::BadJson(e) => format!("bad join ack: {e}"),
            e => format!("join failed: {e}"),
        })?;
    if !matches!(ack.get("ok"), Some(Json::Bool(true))) {
        return Err(format!("coordinator refused join: {ack}"));
    }
    Ok((conn.reader, conn.writer, sock))
}

/// Re-announce held leases right after a join ack.
fn send_inventory(state: &WorkerState) -> Result<(), String> {
    let running: Vec<u64> = {
        let running = state.running.lock().expect("running poisoned");
        let mut ids: Vec<u64> = running.iter().copied().collect();
        ids.sort_unstable();
        ids
    };
    let mut w = state.writer.lock().expect("writer poisoned");
    write_frame(&mut *w, &inventory_frame(&running)).map_err(|e| format!("inventory failed: {e}"))
}

/// Why one connection's reader loop ended.
enum ConnEnd {
    /// The coordinator said `close`: clean shutdown.
    Close,
    /// A chaos injection (partition) ended the worker deliberately.
    Chaos,
    /// The connection dropped (read error / coordinator death).
    Dropped,
}

/// Join the coordinator at `opts.coord` and serve assignments until the
/// coordinator closes the connection (or a chaos injection ends the worker
/// first). With [`WorkerOptions::rejoin`], a dropped connection triggers a
/// redial + re-join + `inventory` reconciliation instead of an exit.
/// Returns what happened, for tests and CLI logging.
///
/// # Errors
///
/// A human-readable message when the coordinator cannot be reached or the
/// join handshake fails.
pub fn run_worker(opts: WorkerOptions) -> Result<WorkerReport, String> {
    let mut rng = Rng::new(opts.seed);
    let (mut reader, writer, sock) = connect_handshake(&opts, &mut rng)?;
    let state = WorkerState {
        writer: Mutex::new(writer),
        silent: AtomicBool::new(false),
        closing: AtomicBool::new(false),
        rejoin: opts.rejoin,
        jobs_run: AtomicU64::new(0),
        corrupt_budget: AtomicU64::new(opts.inject.corrupt_results),
        cache: opts.cache.clone(),
        traces: opts.traces.clone(),
        inject: opts.inject.clone(),
        running: Mutex::new(HashSet::new()),
        sock: Mutex::new(sock),
    };
    // The first inventory is empty but still sent: it tells the
    // coordinator this worker speaks the reconciliation protocol, and a
    // recovering coordinator needs it even from first-time joiners.
    send_inventory(&state).map_err(|e| format!("join failed: {e}"))?;

    // Serve: the main thread reads frames; `slots` runner threads execute
    // assignments pulled off a local channel. The channel (and the
    // runners) survive reconnects — only the socket is replaced.
    let (tx, rx) = mpsc::channel::<Assignment>();
    let rx = Mutex::new(rx);
    let killed = AtomicBool::new(false);
    let mut partitioned = false;
    let mut rejoins = 0u64;
    let started = Instant::now();
    let mut assigns = 0u64;
    let served: Result<(), String> = std::thread::scope(|scope| {
        for _ in 0..opts.slots.max(1) {
            scope.spawn(|| runner_loop(&state, &rx, &killed));
        }
        let result = loop {
            let end = serve_connection(
                &state,
                &mut reader,
                &tx,
                &started,
                &mut partitioned,
                &mut assigns,
            );
            match end {
                ConnEnd::Close | ConnEnd::Chaos => break Ok(()),
                ConnEnd::Dropped => {
                    if !opts.rejoin || killed.load(Ordering::SeqCst) {
                        break Ok(());
                    }
                    // Redial with a fresh retry budget, swap the socket
                    // handles under the runners, and reconcile. The
                    // handshake itself also gets the budget: a redial can
                    // land in the dying coordinator's accept backlog and
                    // be reset mid-join, which is the same transient as a
                    // refused connect, not a reason to exit.
                    let mut attempt = 0u64;
                    let handshake = loop {
                        match connect_handshake(&opts, &mut rng) {
                            Ok(conn) => break Ok(conn),
                            Err(e) => {
                                attempt += 1;
                                if attempt > opts.connect_retries {
                                    break Err(e);
                                }
                                std::thread::sleep(Duration::from_millis(
                                    opts.backoff.delay_ms(attempt, &mut rng),
                                ));
                            }
                        }
                    };
                    match handshake {
                        Ok((new_reader, new_writer, new_sock)) => {
                            reader = new_reader;
                            *state.writer.lock().expect("writer poisoned") = new_writer;
                            *state.sock.lock().expect("sock poisoned") = new_sock;
                            rejoins += 1;
                            if let Err(e) = send_inventory(&state) {
                                eprintln!("worker `{}`: {e}", opts.name);
                            }
                        }
                        Err(e) => break Err(e),
                    }
                }
            }
        };
        // Closing the channel lets idle runners exit; busy ones finish
        // their current job first, then discard whatever is still
        // buffered. `closing` also stops rejoin-mode runners from
        // retrying reports forever against a dead fleet.
        state.closing.store(true, Ordering::SeqCst);
        drop(tx);
        result
    });
    served?;
    Ok(WorkerReport {
        jobs_run: state.jobs_run.load(Ordering::SeqCst),
        killed: killed.load(Ordering::SeqCst),
        partitioned,
        rejoins,
    })
}

/// Read and serve frames on the current connection until it ends.
fn serve_connection(
    state: &WorkerState,
    reader: &mut FrameReader<TcpStream>,
    tx: &mpsc::Sender<Assignment>,
    started: &Instant,
    partitioned: &mut bool,
    assigns: &mut u64,
) -> ConnEnd {
    loop {
        if let Some(after) = state.inject.partition_after_ms {
            if !*partitioned && started.elapsed() >= Duration::from_millis(after) {
                // Network partition: go silent with the socket still
                // open, so only a heartbeat deadline can unmask us.
                *partitioned = true;
                state.silent.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(state.inject.partition_hold_ms));
                return ConnEnd::Chaos;
            }
        }
        let line = match reader.next_frame() {
            Ok(line) => line,
            Err(FrameError::Timeout) => continue,
            Err(_) => return ConnEnd::Dropped,
        };
        let Ok(frame) = Json::parse(&line) else {
            continue;
        };
        match frame.get("op").and_then(Json::as_str) {
            Some("ping") => {
                if state.inject.drop_heartbeat || state.silent.load(Ordering::SeqCst) {
                    continue;
                }
                let seq = frame.get("seq").and_then(Json::as_u64).unwrap_or(0);
                let mut w = state.writer.lock().expect("writer poisoned");
                let _ = write_frame(
                    &mut *w,
                    &Json::obj(vec![
                        ("op", Json::Str("pong".into())),
                        ("seq", Json::UInt(seq)),
                    ]),
                );
            }
            Some("assign") => {
                let Some(id) = frame.get("job").and_then(Json::as_u64) else {
                    continue;
                };
                *assigns += 1;
                let fatal = state.inject.kill_after_assigns == Some(*assigns);
                match parse_submit(&frame) {
                    Ok(spec) => {
                        state.running.lock().expect("running poisoned").insert(id);
                        let _ = tx.send(Assignment { id, spec, fatal });
                    }
                    Err(e) => {
                        let mut w = state.writer.lock().expect("writer poisoned");
                        let _ = write_frame(&mut *w, &fail_frame(id, e));
                    }
                }
            }
            Some("close") => return ConnEnd::Close,
            _ => {}
        }
    }
}

fn fail_frame(job: u64, error: String) -> Json {
    Json::obj(vec![
        ("op", Json::Str("fail".into())),
        ("job", Json::UInt(job)),
        ("error", Json::Str(error)),
    ])
}

struct Assignment {
    id: u64,
    spec: crate::job::JobSpec,
    fatal: bool,
}

fn runner_loop(state: &WorkerState, rx: &Mutex<mpsc::Receiver<Assignment>>, killed: &AtomicBool) {
    loop {
        let assignment = {
            let rx = rx.lock().expect("assignment queue poisoned");
            rx.recv()
        };
        let Ok(Assignment { id, spec, fatal }) = assignment else {
            break;
        };
        // A worker that is exiting has no socket left to report on: what
        // is still buffered in the channel is dropped, not simulated.
        let closing = || state.closing.load(Ordering::SeqCst);
        let discard = || state.running.lock().expect("running poisoned").remove(&id);
        if closing() {
            discard();
            continue;
        }
        if fatal {
            // kill -9 mid-job: the lease is held, the job is "running",
            // and the worker vanishes without a goodbye.
            std::thread::sleep(Duration::from_millis(30));
            state.silent.store(true, Ordering::SeqCst);
            killed.store(true, Ordering::SeqCst);
            let _ = state
                .sock
                .lock()
                .expect("sock poisoned")
                .shutdown(Shutdown::Both);
            break;
        }
        let lease_start = Instant::now();
        // Straggle: hold the lease well past its deadline — in slices, so
        // a closed worker stops stalling (and drops the job) at once.
        let stall = Duration::from_millis(state.inject.stall_ms);
        while !closing() && lease_start.elapsed() < stall {
            let left = stall.saturating_sub(lease_start.elapsed());
            std::thread::sleep(left.min(Duration::from_millis(20)));
        }
        if closing() {
            discard();
            continue;
        }
        let result = run_job_from(&spec, state.cache.as_ref(), state.traces.as_ref());
        // Wall time the worker held the lease: the stall is deliberately
        // included so straggler injection shows up in the timing column.
        let worker_wall_ms = lease_start.elapsed().as_secs_f64() * 1_000.0;
        state.jobs_run.fetch_add(1, Ordering::SeqCst);
        let frame = match result.outcome {
            Ok(out) => {
                // The checksum always describes the honest payload; the
                // corrupt-result injection then flips a payload nibble,
                // which is exactly what the coordinator's verification
                // must catch.
                let (mut hex, sum) = super::encode_stats_payload(&out.stats);
                if state
                    .corrupt_budget
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                    .is_ok()
                {
                    let flipped = if hex.starts_with('0') { '1' } else { '0' };
                    hex.replace_range(0..1, &flipped.to_string());
                }
                Json::obj(vec![
                    ("op", Json::Str("done".into())),
                    ("job", Json::UInt(id)),
                    ("cached", Json::Bool(out.cached)),
                    ("wall_ms", Json::Float(out.wall_ms)),
                    ("worker_wall_ms", Json::Float(worker_wall_ms)),
                    ("stats", Json::Str(hex)),
                    ("sum", Json::Str(sum)),
                ])
            }
            Err(e) => fail_frame(id, e.to_string()),
        };
        let mut reported = state.silent.load(Ordering::SeqCst);
        while !reported {
            let sent = {
                let mut w = state.writer.lock().expect("writer poisoned");
                write_frame(&mut *w, &frame).is_ok()
            };
            if sent {
                reported = true;
            } else if !state.rejoin || closing() {
                // Without rejoin the socket is gone for good: the old
                // behaviour (give up, let the lease be reclaimed).
                discard();
                return;
            } else {
                // The reader loop is redialling; once it swaps the writer
                // in, this report lands on the fresh connection — the job
                // stays in `running` so the inventory re-announces it.
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        discard();
    }
}
