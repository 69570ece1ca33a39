//! The fleet coordinator: `gcl coordinate --addr HOST:PORT`, and — with
//! one in-process worker — `gcl serve` ([`crate::serve`]).
//!
//! One listener serves two populations. Workers dial in, send a `join`
//! frame, and from then on hold a full-duplex connection over which the
//! coordinator pushes `assign` frames and `ping` heartbeats and receives
//! `done` / `fail` / `pong`. Clients speak `submit` / `status` / `result` /
//! `shutdown`; the first frame on a connection decides which role it
//! plays. A client connection silent for [`IDLE_TIMEOUT`] is closed.
//!
//! Supervision is two independent deadlines:
//!
//! * **Heartbeat.** Every [`CoordinatorOptions::heartbeat_ms`] the
//!   coordinator pings each live worker; a worker whose last pong is older
//!   than [`CoordinatorOptions::heartbeat_timeout_ms`] is declared dead
//!   ([`WORKER_DEAD`]) and every lease it held returns to the front of the
//!   queue. This catches crashes, partitions, and heartbeat loss alike.
//! * **Lease.** Every assignment carries a deadline
//!   ([`CoordinatorOptions::lease_ms`] out). A lease that expires —
//!   typically a stalled worker — is reclaimed ([`LEASE_EXPIRED`]) and the
//!   job reassigned, even if the worker still looks alive.
//!
//! Both paths give at-least-once execution; results are deduplicated by
//! first-result-wins per job and by content-addressed cache key across
//! submits, so duplicated work never changes an answer (see the
//! [`crate::fleet`] module docs for the determinism argument).
//!
//! This file is the shell: the sockets, the threads, the journal and the
//! verbs. The tables and every decision live in [`super::state`], which
//! does no I/O; a handler here parses its frame, takes the one lock, and
//! calls an edge, whose effects the [`Shell`] performs before release.

use super::journal::{Journal, JournalError, Record};
use super::state::{Effect, Fleet, FleetJobState, FleetResult, Stats, WorkerEntry};
use crate::proto::{
    encode_key, error_response, error_text, hex_encode, parse_submit, write_frame, Conn,
    FrameError, FrameReader, ServeError,
};
use gcl_stats::Json;
use std::borrow::Cow;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Reason logged when a heartbeat deadline declares a worker dead.
pub const WORKER_DEAD: &str = "worker dead";

/// Reason logged when a lease deadline reclaims a running job.
pub const LEASE_EXPIRED: &str = "lease expired";

/// Reason logged when a `decommission` verb retires a worker.
pub const DECOMMISSIONED: &str = "decommissioned";

/// A plain-request connection that sends nothing for this long is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// Per-connection write deadline.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Period of the supervisor's upkeep: heartbeats, lease expiry, the
/// queue-depth sample and the journal's batched fsync.
const UPKEEP: Duration = Duration::from_millis(20);

/// After `--recover`, hold recovered non-terminal jobs this long before
/// dispatching, so re-joining workers can reconcile running leases instead
/// of the coordinator re-running work that is still in flight.
const RECOVER_GRACE: Duration = Duration::from_secs(3);

/// How the coordinator runs.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Address to bind, e.g. `127.0.0.1:7177` (port 0 picks a free port).
    pub addr: String,
    /// Maximum queued (not yet leased) jobs before submits are rejected
    /// with [`crate::QUEUE_FULL`] backpressure.
    pub queue_cap: usize,
    /// Lease duration per assignment; an expired lease is reassigned.
    pub lease_ms: u64,
    /// Ping interval for worker heartbeats.
    pub heartbeat_ms: u64,
    /// A worker whose last pong is older than this is dead.
    pub heartbeat_timeout_ms: u64,
    /// Largest frame accepted, from clients and workers alike (result
    /// frames carry several KiB of hex-encoded stats).
    pub max_frame: usize,
    /// Print the per-worker outcome table on drain.
    pub print_outcomes: bool,
    /// Admission control: a session with this many unfinished submits gets
    /// structured shed responses instead of deeper queueing (0 disables).
    pub session_inflight_cap: u64,
    /// Write-ahead journal path; `None` keeps state purely in memory.
    pub journal: Option<PathBuf>,
    /// Replay the journal on startup instead of truncating it. Requires
    /// `journal` to be set.
    pub recover: bool,
    /// Expose the destructive chaos verb (`decommission`) to clients. Off
    /// by default: a production coordinator sheds it with a structured
    /// error.
    pub chaos_verbs: bool,
    /// Journal size that triggers compaction: the live table rewritten as
    /// records, again only once the file has doubled since.
    pub journal_compact_bytes: u64,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            addr: "127.0.0.1:7177".to_string(),
            queue_cap: 64,
            lease_ms: 60_000,
            heartbeat_ms: 500,
            heartbeat_timeout_ms: 2_000,
            max_frame: 1024 * 1024,
            print_outcomes: true,
            session_inflight_cap: 1_024,
            journal: None,
            recover: false,
            chaos_verbs: false,
            journal_compact_bytes: 1024 * 1024,
        }
    }
}

/// What the one mutex guards: the [`Fleet`], and the worker writers (by
/// index, `None` once closed) and journal that perform its effects.
#[derive(Default)]
struct Shell {
    fleet: Fleet,
    writers: Vec<Option<TcpStream>>,
    journal: Option<Journal>,
    /// Wake the threads sleeping on the fleet when the lock is released:
    /// set by a performed `Wake`, or by the shell itself.
    woken: bool,
}

impl Shell {
    /// Perform the fleet's outbox in order; what a failed write buries is
    /// performed at once, before the rest.
    fn perform(&mut self) {
        for effect in std::mem::take(&mut self.fleet.out) {
            match effect {
                Effect::Send { worker, frame } => {
                    let writer = self.writers[worker].as_mut();
                    if writer.is_none_or(|w| write_frame(w, &frame).is_err()) {
                        self.fleet.mark_dead(worker, WORKER_DEAD);
                        self.perform();
                    }
                }
                Effect::Close(worker) => {
                    _ = self.writers[worker]
                        .take()
                        .map(|w| w.shutdown(Shutdown::Both));
                }
                Effect::Append(rec) => match self.journal.as_mut().map(|j| j.append(&rec)) {
                    Some(Ok(at)) => self.fleet.journaled(&rec, at),
                    Some(Err(e)) => eprintln!("warning: {e}"),
                    None => {}
                },
                Effect::Sync => {
                    if let Some(Err(e)) = self.journal.as_mut().map(Journal::sync) {
                        eprintln!("warning: {e}");
                    }
                }
                Effect::Log(line) => eprintln!("{line}"),
                Effect::Wake => self.woken = true,
            }
        }
    }

    /// The wire bytes of a finished job's statistics, read back from the
    /// journal when [`Fleet::complete`] left them there.
    fn payload<'a>(&self, stats: &'a Stats) -> Result<Cow<'a, [u8]>, String> {
        let at = match stats {
            Stats::Held(bytes) => return Ok(Cow::Borrowed(bytes)),
            Stats::Journaled(at) => *at,
        };
        let journal = self.journal.as_ref().ok_or("the journal is gone")?;
        match journal.read_at(at).map_err(|e| e.to_string())? {
            Record::Done { payload, .. } => Ok(Cow::Owned(payload)),
            _ => Err(format!("journal byte {at} holds no result")),
        }
    }

    /// One batched fsync per 20 ms supervisor upkeep, and compaction once
    /// the file outgrows `compact_bytes` and has doubled since the last
    /// one. Both run under the lock, so this keeps its cadence and never
    /// runs once per wake-up.
    fn journal_upkeep(&mut self, compact_bytes: u64) {
        if let Some(before) = (self.journal.as_ref())
            .filter(|j| j.due(compact_bytes))
            .map(Journal::bytes)
        {
            match self.compact() {
                Ok(after) => eprintln!("fleet: journal compacted ({before} -> {after} bytes)"),
                Err(e) => eprintln!("warning: journal compaction failed: {e}"),
            }
        }
        self.fleet.out.push(Effect::Sync);
        self.perform();
    }

    /// Replace the journal with [`Fleet::compaction_records`], and point
    /// every finished job at its `Done` record's place in the replacement
    /// (a recovered result held in memory moves there too). Returns the
    /// new size.
    fn compact(&mut self) -> Result<u64, String> {
        let records = (self.fleet).compaction_records(|s| self.payload(s).map(Cow::into_owned))?;
        let journal = self.journal.as_mut().expect("compaction needs a journal");
        let placed = journal.compact(&records).map_err(|e| e.to_string())?;
        let after = journal.bytes();
        for (rec, at) in records.iter().zip(placed) {
            self.fleet.journaled(rec, at);
        }
        Ok(after)
    }
}

/// Everything the accept loop, session handlers, and supervisor share:
/// the [`Shell`] behind one mutex, the condvar its waiters sleep on, and
/// the flag the read loops check without the lock. The flag is set under
/// the lock, so a waiter cannot miss it.
struct CoordShared {
    opts: CoordinatorOptions,
    state: Mutex<Shell>,
    /// Paired with `state`. The supervisor and every session stream wait
    /// on it; [`Locked`] notifies it when a `Wake` was performed.
    wake: Condvar,
    /// The listener's address, which [`CoordShared::finish`] dials to wake
    /// the blocking accept.
    addr: SocketAddr,
    /// Set once the drain completes; accept and supervisor loops exit.
    finished: AtomicBool,
}

impl CoordShared {
    fn fleet(&self) -> Locked<'_> {
        let guard = self.state.lock().expect("fleet state poisoned");
        Locked {
            guard: Some(guard),
            condvar: &self.wake,
        }
    }

    /// End the run: set `finished`, wake every waiter, then dial the
    /// listener so the accept loop sees the flag. Only the first call acts.
    fn finish(&self, mut fleet: Locked<'_>) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        fleet.woken = true;
        drop(fleet);
        if let Err(e) = TcpStream::connect_timeout(&self.addr, WRITE_TIMEOUT) {
            eprintln!("warning: cannot wake the accept loop: {e}");
        }
    }
}

/// The fleet lock. Releasing it — dropping the guard, or waiting —
/// performs the outbox, then wakes every thread waiting on the fleet if an
/// edge taken under it queued a `Wake`; a read, a pong or a dedup join
/// without a session wakes nobody.
struct Locked<'a> {
    /// `None` only inside [`Locked::wait`].
    guard: Option<MutexGuard<'a, Shell>>,
    condvar: &'a Condvar,
}

impl Locked<'_> {
    fn notify(&mut self) {
        if let Some(shell) = &mut self.guard {
            shell.perform();
            if std::mem::take(&mut shell.woken) {
                self.condvar.notify_all();
            }
        }
    }

    /// Release the lock until an edge wakes the fleet or `timeout` passes.
    fn wait(&mut self, timeout: Duration) {
        self.notify();
        let guard = self.guard.take().expect("fleet lock held");
        let (guard, _) = (self.condvar.wait_timeout(guard, timeout)).expect("fleet state poisoned");
        self.guard = Some(guard);
    }
}

impl Deref for Locked<'_> {
    type Target = Shell;
    fn deref(&self) -> &Shell {
        self.guard.as_ref().expect("fleet lock held")
    }
}

impl DerefMut for Locked<'_> {
    fn deref_mut(&mut self) -> &mut Shell {
        self.guard.as_mut().expect("fleet lock held")
    }
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.notify();
    }
}

/// The address that reaches `bound` from this host: an unspecified bind
/// address is dialled on loopback.
fn dialable(bound: SocketAddr) -> SocketAddr {
    let ip = match bound {
        SocketAddr::V4(a) if a.ip().is_unspecified() => Ipv4Addr::LOCALHOST.into(),
        SocketAddr::V6(a) if a.ip().is_unspecified() => Ipv6Addr::LOCALHOST.into(),
        _ => bound.ip(),
    };
    SocketAddr::new(ip, bound.port())
}

/// A bound, not-yet-running coordinator. Binding is separated from running
/// so callers (and tests) can learn the actual address before blocking.
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<CoordShared>,
}

impl Coordinator {
    /// Bind the listener and set up shared state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if the options are inconsistent,
    /// [`ServeError::Bind`] if the address cannot be bound.
    pub fn bind(opts: CoordinatorOptions) -> Result<Coordinator, ServeError> {
        if opts.queue_cap == 0 {
            return Err(ServeError::Config(
                "coordinator needs a positive queue capacity".to_string(),
            ));
        }
        if opts.lease_ms == 0 || opts.heartbeat_ms == 0 || opts.heartbeat_timeout_ms == 0 {
            return Err(ServeError::Config(
                "coordinator deadlines must be positive".to_string(),
            ));
        }
        if opts.heartbeat_timeout_ms <= opts.heartbeat_ms {
            return Err(ServeError::Config(format!(
                "heartbeat timeout ({} ms) must exceed the ping interval ({} ms)",
                opts.heartbeat_timeout_ms, opts.heartbeat_ms
            )));
        }
        // Open the journal before binding: an unusable journal is a
        // config error the operator must fix, not something to retry.
        let (journal, recovered) = match (&opts.journal, opts.recover) {
            (Some(path), true) => {
                let (j, rec) = Journal::open_recover(path).map_err(journal_error)?;
                (Some(j), Some(rec))
            }
            (Some(path), false) => (Some(Journal::create(path).map_err(journal_error)?), None),
            (None, true) => {
                return Err(ServeError::Config(
                    "--recover needs --journal PATH".to_string(),
                ))
            }
            (None, false) => (None, None),
        };
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| ServeError::Bind(format!("cannot bind {}: {e}", opts.addr)))?;
        let addr = bound_addr(&listener)?;
        let mut shell = Shell {
            journal,
            ..Shell::default()
        };
        if let Some(rec) = recovered {
            shell.fleet.recover(rec, Instant::now() + RECOVER_GRACE);
            shell.perform();
        }
        let shared = Arc::new(CoordShared {
            state: Mutex::new(shell),
            wake: Condvar::new(),
            addr: dialable(addr),
            finished: AtomicBool::new(false),
            opts,
        });
        Ok(Coordinator { listener, shared })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] if the socket address cannot be read.
    pub fn addr(&self) -> Result<SocketAddr, ServeError> {
        bound_addr(&self.listener)
    }

    /// Run until a `shutdown` request drains every job to a terminal
    /// state. Blocks the calling thread; sessions and the supervisor run
    /// on their own threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] on listener failure, or when a
    /// [`Coordinator::stopper`] ended the run before the drain did.
    pub fn run(self) -> Result<(), ServeError> {
        let shared = &*self.shared;
        std::thread::scope(|scope| {
            scope.spawn(|| supervisor_loop(shared));
            loop {
                let accepted = self.listener.accept();
                // `finish` sets the flag before it dials: whatever woke
                // the accept, a finished coordinator takes nothing more.
                if shared.finished.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        scope.spawn(move || handle_session(stream, shared));
                    }
                    Err(e) => eprintln!("warning: accept failed: {e}"),
                }
            }
        });
        let fleet = &shared.fleet().fleet;
        if shared.opts.print_outcomes {
            print_outcome_table(fleet);
        }
        if fleet.draining && fleet.jobs.all_terminal() {
            Ok(())
        } else {
            Err(ServeError::Net(
                "coordinator stopped before its jobs drained".to_string(),
            ))
        }
    }

    /// A handle that ends [`Coordinator::run`] without waiting for a
    /// drain, for an owner whose in-process worker has exited and left
    /// nothing to run the queue. It holds the shared state weakly, so it
    /// never keeps alive the worker sockets that owner waits to see closed.
    pub fn stopper(&self) -> impl Fn() + Send + 'static {
        let shared = Arc::downgrade(&self.shared);
        move || {
            if let Some(shared) = shared.upgrade() {
                shared.finish(shared.fleet());
            }
        }
    }
}

/// The listener's bound address.
fn bound_addr(listener: &TcpListener) -> Result<SocketAddr, ServeError> {
    listener
        .local_addr()
        .map_err(|e| ServeError::Bind(format!("cannot read bound address: {e}")))
}

/// Map a journal failure onto the exit-code scheme: a journal this build
/// cannot read is a configuration error (exit 1 — fix the path, don't
/// retry), while an I/O failure is an environment fault (exit 3).
fn journal_error(e: JournalError) -> ServeError {
    match e {
        JournalError::Unrecoverable { .. } => ServeError::Config(e.to_string()),
        JournalError::Io { .. } => ServeError::Net(e.to_string()),
    }
}

/// Print the per-worker outcome table a drain leaves behind: graceful
/// degradation is only trustworthy when you can see who did what.
fn print_outcome_table(fleet: &Fleet) {
    eprintln!("fleet outcome ({} workers):", fleet.workers.len());
    eprintln!("  worker            state  done  failed  corrupt  reassigned");
    for w in &fleet.workers {
        eprintln!(
            "  {:<16} {:>6}  {:>4}  {:>6}  {:>7}  {:>10}",
            w.name,
            if w.alive { "alive" } else { "dead" },
            w.done,
            w.failed,
            w.corrupt,
            w.reassigned
        );
    }
    let depth = &fleet.depth;
    if depth.count > 0 {
        eprintln!(
            "  queue depth: mean {:.1}, max {:.0} over {} samples",
            depth.mean(),
            depth.max,
            depth.count
        );
    }
    let c = &fleet.counters;
    eprintln!(
        "  cache: {} sims, {} dedup, {} sheds, {} resumed",
        c.sims, c.dedup_hits, c.sheds, c.resumed
    );
}

/// The supervisor, under the lock and asleep on the fleet's condvar
/// between passes. Every wake-up assigns what it can and checks the
/// drain. Every [`UPKEEP`] it also pings and buries workers, reclaims
/// expired leases (which picks up a lapsed recovery hold too), samples the
/// queue depth and fsyncs the journal: `expire` scans the whole job table
/// and the fsync holds the lock, so neither may run once per event. A
/// write that fails buries its worker before the next edge is taken.
fn supervisor_loop(shared: &CoordShared) {
    let opts = &shared.opts;
    let lease = Duration::from_millis(opts.lease_ms);
    let mut shell = shared.fleet();
    let mut next_upkeep = Instant::now();
    while !shared.finished.load(Ordering::SeqCst) {
        let now = Instant::now();
        let upkeep = now >= next_upkeep;
        if upkeep {
            shell.fleet.heartbeat(now, opts);
            shell.perform();
            shell.fleet.expire(now);
        }
        shell.perform();
        while let Some((id, worker)) = shell.fleet.dispatch(now) {
            shell.perform();
            shell.fleet.assigned(id, worker, now + lease);
        }
        if upkeep {
            let depth = shell.fleet.jobs.queue.len() as f64;
            shell.fleet.depth.add(depth);
        }
        // Drain: once every job is terminal, dismiss the fleet.
        if shell.fleet.drain() {
            shell.journal_upkeep(opts.journal_compact_bytes);
            return shared.finish(shell);
        }
        if upkeep {
            shell.journal_upkeep(opts.journal_compact_bytes);
            next_upkeep = now + UPKEEP;
        }
        shell.wait(next_upkeep.saturating_duration_since(Instant::now()));
    }
}

/// Whether a plain-request connection silent since `since` has outlived
/// [`IDLE_TIMEOUT`] at `now`.
fn idle_expired(since: Instant, now: Instant) -> bool {
    now.duration_since(since) >= IDLE_TIMEOUT
}

/// Wait for the next frame of a connection that is neither a joined worker
/// nor a streaming session (heartbeats and depth events bound those).
/// `None` ends the connection: EOF or a transport error, an oversized
/// frame (answered with a structured error first), the coordinator
/// finishing, or [`IDLE_TIMEOUT`] of silence — so a client that connects
/// and never sends cannot park this handler thread for good.
fn next_request(
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &CoordShared,
) -> Option<String> {
    let since = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(line) => return Some(line),
            Err(FrameError::Timeout) => {
                if shared.finished.load(Ordering::SeqCst) || idle_expired(since, Instant::now()) {
                    return None;
                }
            }
            Err(e @ FrameError::TooLarge { .. }) => {
                let _ = write_frame(writer, &error_response(e.to_string()));
                return None;
            }
            Err(_) => return None,
        }
    }
}

/// First frame decides the role: `join` starts a worker session, anything
/// else is a client request.
fn handle_session(stream: TcpStream, shared: &CoordShared) {
    let conn = Conn::from_stream(
        stream,
        Duration::from_millis(50),
        WRITE_TIMEOUT,
        shared.opts.max_frame,
    );
    let Ok(Conn {
        mut reader,
        mut writer,
    }) = conn.inspect_err(|e| eprintln!("warning: connection setup failed: {e}"))
    else {
        return;
    };
    let Some(first) = next_request(&mut reader, &mut writer, shared) else {
        return;
    };
    let request = match Json::parse(&first) {
        Ok(j) => j,
        Err(e) => {
            let _ = write_frame(&mut writer, &error_response(format!("bad request: {e}")));
            return;
        }
    };
    if request.get("op").and_then(Json::as_str) == Some("join") {
        worker_session(&request, reader, writer, shared);
    } else {
        client_session(&request, reader, writer, shared);
    }
}

/// Register the worker and relay its frames until the connection ends.
fn worker_session(
    join: &Json,
    mut reader: FrameReader<TcpStream>,
    mut writer: TcpStream,
    shared: &CoordShared,
) {
    let name = join.get("name").and_then(Json::as_str).unwrap_or("worker");
    let slots = join.get("slots").and_then(Json::as_u64).unwrap_or(1).max(1) as usize;
    // Joins are welcome during a drain: queued work needs someone to run
    // it. The ack goes out before the worker is registered, so it is the
    // first frame the worker reads — once registered, the supervisor may
    // push an `assign` at any moment.
    if write_frame(&mut writer, &Json::obj(vec![("ok", Json::Bool(true))])).is_err() {
        return;
    }
    let idx = {
        let mut shell = shared.fleet();
        shell.writers.push(Some(writer));
        shell.fleet.join(name, slots, Instant::now())
    };
    loop {
        let line = match reader.next_frame() {
            Ok(line) => line,
            Err(FrameError::Timeout) => {
                if shared.finished.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            // EOF or transport error: the worker is gone. (TooLarge from a
            // worker means a result overflow — same recovery: bury it.)
            Err(_) => return shared.fleet().fleet.mark_dead(idx, WORKER_DEAD),
        };
        let Ok(frame) = Json::parse(&line) else {
            continue;
        };
        let job = frame.get("job").and_then(Json::as_u64);
        match (frame.get("op").and_then(Json::as_str), job) {
            (Some("pong"), _) => shared.fleet().fleet.workers[idx].last_pong = Instant::now(),
            // Verified outside the lock; a bad checksum or an undecodable
            // payload is the `corrupt` edge.
            (Some("done"), Some(id)) => {
                let verified = verified_payload(&frame);
                let fleet = &mut shared.fleet().fleet;
                match verified {
                    Ok(result) => fleet.complete(id, idx, result),
                    Err(why) => fleet.corrupt(id, idx, &why),
                }
            }
            (Some("fail"), Some(id)) => shared.fleet().fleet.fail(id, idx, error_text(&frame)),
            (Some("inventory"), _) => {
                let running = frame.get("running").and_then(Json::as_arr).unwrap_or(&[]);
                let running: Vec<u64> = running.iter().filter_map(Json::as_u64).collect();
                let deadline = Instant::now() + Duration::from_millis(shared.opts.lease_ms);
                shared.fleet().fleet.inventory(idx, &running, deadline);
            }
            _ => {}
        }
    }
}

/// Decode and checksum-verify the `stats` payload a `done` frame carries —
/// outside the lock, and exactly once: the bytes that were checksummed are
/// the bytes the journal and every later `result` frame will carry.
fn verified_payload(frame: &Json) -> Result<FleetResult, String> {
    let text = |field| frame.get(field).and_then(Json::as_str);
    let hex = text("stats").ok_or("missing stats payload")?;
    let sum = text("sum").ok_or("missing checksum")?;
    let (bytes, summary) = super::verify_stats_payload(hex, sum)?;
    let ms = |field| frame.get(field).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(FleetResult {
        stats: Stats::Held(bytes.into_boxed_slice()),
        summary,
        wall_ms: ms("wall_ms"),
        worker_wall_ms: ms("worker_wall_ms"),
        cached: frame.get("cached").and_then(Json::as_bool).unwrap_or(false),
        worker: String::new(),
    })
}

/// Serve client verbs on this connection until EOF or drain. A `session`
/// request upgrades the connection to an event stream (see
/// [`session_stream`]); everything else is request/response.
fn client_session(
    first: &Json,
    mut reader: FrameReader<TcpStream>,
    mut writer: TcpStream,
    shared: &CoordShared,
) {
    let mut request = Ok(first.clone());
    loop {
        let response = match request {
            Err(e) => error_response(format!("bad request: {e}")),
            Ok(r) if r.get("op").and_then(Json::as_str) != Some("session") => {
                handle_client_request(&r, shared)
            }
            Ok(r) => match session_attach(&r, shared) {
                Ok((sid, start, ack)) => {
                    if write_frame(&mut writer, &ack).is_ok() {
                        session_stream(&sid, start, &mut reader, &mut writer, shared);
                        shared.fleet().fleet.detach(sid);
                    }
                    return;
                }
                Err(refusal) => refusal,
            },
        };
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
        let Some(line) = next_request(&mut reader, &mut writer, shared) else {
            return;
        };
        request = Json::parse(&line);
    }
}

/// Resolve a `session` request: create a fresh session, or re-attach to an
/// existing one at the requested replay position. Returns
/// `(id, start_seq, ack)`, or the error response to send.
fn session_attach(request: &Json, shared: &CoordShared) -> Result<(String, u64, Json), Json> {
    let fleet = &mut shared.fleet().fleet;
    let (sid, start, truncated) = match request.get("id").and_then(Json::as_str) {
        None => (fleet.open_session(), 0, false),
        Some(sid) => {
            let Some(s) = fleet.sessions.map.get(sid) else {
                return Err(error_response(format!("unknown session `{sid}`")));
            };
            let from = request.get("from").and_then(Json::as_u64).unwrap_or(0);
            // Events older than base_seq were truncated by the log cap;
            // the client learns it missed some and starts at the cut.
            let start = from.max(s.base_seq).min(s.next_seq);
            (sid.to_string(), start, from < s.base_seq)
        }
    };
    let ack = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("session", Json::Str(sid.clone())),
        ("from", Json::UInt(start)),
        ("truncated", Json::Bool(truncated)),
    ]);
    Ok((sid, start, ack))
}

/// A live-only (never logged, no sequence number) queue heartbeat event.
fn depth_event(fleet: &Fleet) -> Json {
    let (queued, running, _, _) = fleet.jobs.count_states();
    Json::obj(vec![
        ("event", Json::Str("depth".to_string())),
        ("queue", Json::UInt(fleet.jobs.queue.len() as u64)),
        ("queued", Json::UInt(queued)),
        ("running", Json::UInt(running)),
        ("draining", Json::Bool(fleet.draining)),
    ])
}

/// Stream a session's events over this connection while still answering
/// interleaved requests (responses carry `"ok"`, events carry `"event"`).
/// A pusher thread replays the log from `cursor`, then follows it live
/// with queue-depth heartbeats; this thread answers requests. Both write
/// through one writer. Returns when the client disconnects (the session
/// and its log survive for a later re-attach), or once the coordinator has
/// finished and every event is delivered.
fn session_stream(
    sid: &str,
    cursor: u64,
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &CoordShared,
) {
    let writer = Mutex::new(writer);
    let gone = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| push_events(sid, cursor, &writer, &gone, shared));
        if answer_requests(reader, &writer, shared) {
            // The pusher sleeps on the fleet: set the flag under the lock
            // and wake it.
            let mut shell = shared.fleet();
            gone.store(true, Ordering::SeqCst);
            shell.woken = true;
        }
    });
}

/// Answer the requests of a streaming connection. Each response is
/// written under the writer lock taken before its request is handled, so
/// it precedes every event the request causes. Returns `true` when the
/// client is gone, `false` when the coordinator finished.
fn answer_requests(
    reader: &mut FrameReader<TcpStream>,
    writer: &Mutex<&mut TcpStream>,
    shared: &CoordShared,
) -> bool {
    while !shared.finished.load(Ordering::SeqCst) {
        let line = reader.next_frame();
        let mut w = writer.lock().expect("session writer poisoned");
        let line = match line {
            Ok(line) => line,
            Err(FrameError::Timeout) => continue,
            Err(e @ FrameError::TooLarge { .. }) => {
                let _ = write_frame(&mut **w, &error_response(e.to_string()));
                return true;
            }
            Err(_) => return true,
        };
        let response = match Json::parse(&line) {
            Ok(request) => handle_client_request(&request, shared),
            Err(e) => error_response(format!("bad request: {e}")),
        };
        if write_frame(&mut **w, &response).is_err() {
            return true;
        }
    }
    false
}

/// Push session `sid`'s events from `cursor` as they are logged, and a
/// queue-depth heartbeat on attach and every heartbeat interval after,
/// sleeping on the fleet in between. Ends when the client is `gone`, a
/// write fails (the socket is then shut so the request side ends too), or
/// the coordinator finished and everything logged has been written.
fn push_events(
    sid: &str,
    mut cursor: u64,
    writer: &Mutex<&mut TcpStream>,
    gone: &AtomicBool,
    shared: &CoordShared,
) {
    let hb = Duration::from_millis(shared.opts.heartbeat_ms.max(100));
    let mut next_beat = Instant::now();
    loop {
        // Every frame due, newline-terminated, for one write.
        let mut frames = String::new();
        let finished = {
            let mut shell = shared.fleet();
            loop {
                if gone.load(Ordering::SeqCst) {
                    return;
                }
                // Every event is logged before `finished` is set, and both
                // happen under the lock: finished + this drain is the
                // whole stream.
                let finished = shared.finished.load(Ordering::SeqCst);
                let fleet = &shell.fleet;
                let Some(s) = fleet.sessions.map.get(sid) else {
                    return;
                };
                let now = Instant::now();
                let beat = now >= next_beat;
                if cursor < s.next_seq || beat || finished {
                    cursor = cursor.max(s.base_seq);
                    let skip = (cursor - s.base_seq) as usize;
                    for event in s.log.iter().skip(skip) {
                        frames.push_str(event);
                        frames.push('\n');
                    }
                    cursor = s.next_seq;
                    if beat {
                        frames.push_str(&depth_event(fleet).render_compact());
                        frames.push('\n');
                        next_beat = now + hb;
                    }
                    break finished;
                }
                shell.wait(next_beat - now);
            }
        };
        let mut w = writer.lock().expect("session writer poisoned");
        if w.write_all(frames.as_bytes()).is_err() {
            let _ = w.shutdown(Shutdown::Both);
            return;
        }
        if finished {
            return;
        }
    }
}

fn handle_client_request(request: &Json, shared: &CoordShared) -> Json {
    match request.get("op").and_then(Json::as_str) {
        Some("submit") => handle_submit(request, shared),
        Some("status") => handle_status(&shared.fleet().fleet),
        Some("result") => handle_result(request, &shared.fleet()),
        // The destructive chaos-test verb is opt-in: a production
        // coordinator refuses it with a structured error.
        Some("decommission") if !shared.opts.chaos_verbs => error_response("chaos verbs disabled"),
        Some("decommission") => handle_decommission(request, &mut shared.fleet().fleet),
        // A `session` frame inside an already-streaming connection (the
        // stream loop dispatches here) cannot re-upgrade.
        Some("session") => error_response("session already active on this connection"),
        Some("shutdown") => {
            // The supervisor checks the drain on its next wake-up.
            let pending = shared.fleet().fleet.shutdown();
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
                ("pending", Json::UInt(pending as u64)),
            ])
        }
        Some(other) => error_response(format!(
            "unknown op `{other}` (expected submit, status, result, session, \
             decommission, shutdown)"
        )),
        None => error_response("missing `op` field"),
    }
}

/// Administratively retire a live worker by name: exactly what a heartbeat
/// death does, but deterministic — chaos tests use it to kill a specific
/// worker without racing the failure detector.
fn handle_decommission(request: &Json, fleet: &mut Fleet) -> Json {
    let Some(name) = request.get("worker").and_then(Json::as_str) else {
        return error_response("decommission needs a `worker` field");
    };
    let live = |w: &WorkerEntry| w.alive && w.name == name;
    let Some(idx) = fleet.workers.iter().position(live) else {
        return error_response(format!("no live worker named `{name}`"));
    };
    fleet.mark_dead(idx, DECOMMISSIONED);
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("worker", Json::Str(name.to_string())),
    ])
}

fn handle_submit(request: &Json, shared: &CoordShared) -> Json {
    let spec = match parse_submit(request) {
        Ok(spec) => spec,
        Err(e) => return error_response(e),
    };
    let key = match spec.fingerprint() {
        Ok(fp) => fp.key(),
        Err(e) => return error_response(e.to_string()),
    };
    let sid = request.get("session").and_then(Json::as_str);
    let (id, deduped) = match shared.fleet().fleet.submit(&shared.opts, spec, key, sid) {
        Ok(admitted) => admitted,
        Err(refusal) => return refusal,
    };
    let mut ack = vec![("ok", Json::Bool(true)), ("id", Json::UInt(id))];
    if deduped {
        ack.push(("deduped", Json::Bool(true)));
    }
    Json::obj(ack)
}

fn handle_status(fleet: &Fleet) -> Json {
    let (jobs, workers) = (&fleet.jobs, &fleet.workers);
    let (queued, running, done, failed) = jobs.count_states();
    let worker_rows = workers
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("name", Json::Str(w.name.clone())),
                ("alive", Json::Bool(w.alive)),
                ("slots", Json::UInt(w.slots as u64)),
                ("leased", Json::UInt(w.leased.len() as u64)),
                ("done", Json::UInt(w.done)),
                ("failed", Json::UInt(w.failed)),
                ("corrupt", Json::UInt(w.corrupt)),
                ("reassigned", Json::UInt(w.reassigned)),
            ])
        })
        .collect();
    let c = &fleet.counters;
    // The share of submits answered without a simulation: joins of a live
    // or finished job over joins plus fresh runs.
    let hit_rate = if c.dedup_hits + c.sims > 0 {
        c.dedup_hits as f64 / (c.dedup_hits + c.sims) as f64
    } else {
        0.0
    };
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("queue_depth", Json::UInt(jobs.queue.len() as u64)),
        ("draining", Json::Bool(fleet.draining)),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::UInt(queued)),
                ("running", Json::UInt(running)),
                ("done", Json::UInt(done)),
                ("failed", Json::UInt(failed)),
            ]),
        ),
        ("workers", Json::Arr(worker_rows)),
        (
            "cache",
            Json::obj(vec![
                ("sims", Json::UInt(c.sims)),
                ("dedup_hits", Json::UInt(c.dedup_hits)),
                ("resumed", Json::UInt(c.resumed)),
                ("hit_rate", Json::Float(hit_rate)),
            ]),
        ),
        ("sheds", Json::UInt(c.sheds)),
        ("sessions", Json::UInt(fleet.sessions.map.len() as u64)),
        ("queue_depth_stats", fleet.depth.to_json()),
    ])
}

fn handle_result(request: &Json, shell: &Shell) -> Json {
    let fleet = &shell.fleet;
    let Some(id) = request.get("id").and_then(Json::as_u64) else {
        return error_response("result needs a numeric `id` field");
    };
    let Some(job) = fleet.jobs.map.get(&id) else {
        return error_response(format!("no job with id {id}"));
    };
    let mut fields = vec![("ok", Json::Bool(true)), ("id", Json::UInt(id))];
    match &job.state {
        FleetJobState::Queued { .. } => fields.push(("state", Json::Str("queued".into()))),
        FleetJobState::Leased { .. } => fields.push(("state", Json::Str("running".into()))),
        FleetJobState::Failed(msg) => {
            fields.push(("state", Json::Str("failed".into())));
            fields.push(("error", Json::Str(msg.clone())));
        }
        FleetJobState::Done(result) => {
            let bytes = match shell.payload(&result.stats) {
                Ok(bytes) => bytes,
                Err(e) => return error_response(format!("job {id}: cannot read its result: {e}")),
            };
            let summary = &result.summary;
            fields.push(("state", Json::Str("done".into())));
            fields.push(("workload", Json::Str(job.spec.workload.clone())));
            fields.push(("cached", Json::Bool(result.cached)));
            fields.push(("cycles", Json::UInt(summary.cycles)));
            fields.push(("warp_insts", Json::UInt(summary.warp_insts)));
            fields.push(("wall_ms", Json::Float(result.wall_ms)));
            fields.push(("worker_wall_ms", Json::Float(result.worker_wall_ms)));
            let digest = summary.digest.map(|d| Json::Str(encode_key(d)));
            fields.push(("digest", digest.unwrap_or(Json::Null)));
            fields.push(("worker", Json::Str(result.worker.clone())));
            fields.push(("assigns", Json::UInt(job.assigns)));
            fields.push(("key", Json::Str(encode_key(job.key))));
            fields.push(("stats", Json::Str(hex_encode(&bytes))));
            fields.push(("sum", Json::Str(encode_key(summary.sum))));
        }
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::encode_stats_payload;
    use crate::job::JobSpec;
    use gcl_sim::{GpuConfig, LaunchStats};

    /// A shell journaling to a fresh file named for `test`, with no
    /// workers' sockets.
    fn shell(test: &str) -> (Shell, PathBuf) {
        let file = format!("gcl-fleet-{test}-{}.journal", std::process::id());
        let path = std::env::temp_dir().join(file);
        let shell = Shell {
            journal: Some(Journal::create(&path).unwrap()),
            ..Shell::default()
        };
        (shell, path)
    }

    /// A compacted state that is still over the threshold is not rewritten
    /// again on the next supervisor upkeep: with no new records, the second
    /// upkeep leaves the file (its inode) alone.
    #[test]
    fn journal_upkeep_does_not_rewrite_an_unchanged_journal() {
        use std::os::unix::fs::MetadataExt;
        let (mut shell, path) = shell("upkeep");
        shell.fleet.open_session();
        shell.perform();
        let inode = || std::fs::metadata(&path).unwrap().ino();
        let created = inode();
        shell.journal_upkeep(1);
        let compacted = inode();
        assert_ne!(compacted, created, "the first upkeep compacts");
        shell.journal_upkeep(1);
        assert_eq!(
            inode(),
            compacted,
            "the second finds nothing new to compact"
        );
        std::fs::remove_file(&path).ok();
    }

    /// With a journal, a finished job's payload bytes live only in its
    /// `Done` record. They read back whole, and still do after a compaction
    /// has moved that record; the summary stays in the job table.
    #[test]
    fn a_journaled_result_reads_back_across_a_compaction() {
        let (mut shell, path) = shell("journaled");
        let now = Instant::now();
        shell.writers.push(None);
        shell.fleet.join("w0", 2, now);
        let stats = LaunchStats {
            cycles: 4242,
            digest: Some(7),
            ..LaunchStats::default()
        };
        let (hex, sum) = encode_stats_payload(&stats);
        let frame = Json::obj(vec![
            ("stats", Json::Str(hex)),
            ("sum", Json::Str(sum.clone())),
            ("wall_ms", Json::Float(1.5)),
        ]);
        let result = verified_payload(&frame).unwrap();
        let (Stats::Held(bytes), summary) = (result.stats.clone(), result.summary) else {
            panic!("a verified result holds its bytes");
        };
        assert_eq!(format!("0x{:016x}", summary.sum), sum);
        assert_eq!((summary.cycles, summary.digest), (4242, Some(7)));
        let spec = JobSpec::new("bfs", true, GpuConfig::small());
        let opts = CoordinatorOptions::default();
        let (id, _) = shell.fleet.submit(&opts, spec, 1, None).unwrap();
        shell.fleet.jobs.queue.clear();
        shell.fleet.lease(id, 0, false, now);
        shell.fleet.complete(id, 0, result);
        shell.perform();
        let read = |shell: &Shell| {
            let FleetJobState::Done(result) = &shell.fleet.jobs.map[&id].state else {
                panic!("job {id} is done");
            };
            let Stats::Journaled(at) = result.stats else {
                panic!("a journaling fleet holds no payload");
            };
            assert_eq!(result.summary, summary);
            (at, shell.payload(&result.stats).unwrap().into_owned())
        };
        let (before, read_back) = read(&shell);
        assert_eq!(*read_back, *bytes);
        shell.journal_upkeep(1);
        let (after, read_back) = read(&shell);
        assert_ne!(
            after, before,
            "compaction drops the lease: the record moves"
        );
        assert_eq!(*read_back, *bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_deadline_expires_at_the_timeout_not_before() {
        let since = Instant::now();
        assert!(!idle_expired(since, since));
        let just_short = IDLE_TIMEOUT - Duration::from_millis(1);
        assert!(!idle_expired(since, since + just_short));
        assert!(idle_expired(since, since + IDLE_TIMEOUT));
        assert!(idle_expired(since, since + 2 * IDLE_TIMEOUT));
    }
}
