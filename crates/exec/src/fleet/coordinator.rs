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

use super::journal::{
    JCounter, Journal, JournalError, Record, RecoveredState, SnapCounters, SnapJob, SnapJobState,
    SnapSession, SnapState,
};
use crate::job::JobSpec;
use crate::proto::{
    decode_key, encode_key, error_response, error_text, fetch_frame, hex_decode, parse_submit,
    shed_response, store_frame, write_frame, Conn, FrameError, FrameReader, ServeError, QUEUE_FULL,
};
use gcl_mem::{fnv_fold, Dec};
use gcl_sim::LaunchStats;
use gcl_stats::{Accumulator, Json};
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Reason logged when a heartbeat deadline declares a worker dead.
pub const WORKER_DEAD: &str = "worker dead";

/// Reason logged when a lease deadline reclaims a running job.
pub const LEASE_EXPIRED: &str = "lease expired";

/// Reason logged when a `decommission` verb retires a worker.
pub const DECOMMISSIONED: &str = "decommissioned";

/// Events a session's replay log retains; older events are truncated and
/// a late re-attach learns it missed some (`"truncated":true` in the ack).
const EVENT_LOG_CAP: usize = 8192;

/// A plain-request connection that sends nothing for this long is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// How the coordinator runs.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Address to bind, e.g. `127.0.0.1:7177` (port 0 picks a free port).
    pub addr: String,
    /// Maximum queued (not yet leased) jobs before submits are rejected
    /// with [`QUEUE_FULL`] backpressure.
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
    /// Per-connection write deadline.
    pub write_timeout_ms: u64,
    /// Print the per-worker outcome table on drain.
    pub print_outcomes: bool,
    /// Replica-set size R: every verified result is fanned out to the top
    /// R rendezvous-ranked live workers, so a key survives any node loss
    /// short of its entire replica set dying.
    pub replicas: usize,
    /// How long a replica `fetch` probe may go unanswered before the
    /// lookup advances to the next replica (or to recomputation).
    pub probe_timeout_ms: u64,
    /// Admission control: a session with this many unfinished submits gets
    /// structured shed responses instead of deeper queueing (0 disables).
    pub session_inflight_cap: u64,
    /// Write-ahead journal path; `None` keeps state purely in memory.
    pub journal: Option<PathBuf>,
    /// Replay the journal on startup instead of truncating it. Requires
    /// `journal` to be set.
    pub recover: bool,
    /// Expose the destructive chaos verbs (`decommission`, `reset`) to
    /// clients. Off by default: a production coordinator sheds them with a
    /// structured error.
    pub chaos_verbs: bool,
    /// Interval for the proactive replica rebalancer, which re-fans
    /// under-replicated keys back to R = `replicas` after any membership
    /// change (0 disables; repair then only happens on a read miss).
    pub rebalance_ms: u64,
    /// Journal size that triggers compaction into a snapshot record.
    pub journal_compact_bytes: u64,
    /// After `--recover`, hold recovered non-terminal jobs this long
    /// before dispatching, so re-joining workers can reconcile running
    /// leases and replica inventories instead of the coordinator
    /// re-running (or vainly probing) work that is still in flight.
    pub recover_grace_ms: u64,
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
            write_timeout_ms: 5_000,
            print_outcomes: true,
            replicas: 2,
            probe_timeout_ms: 2_000,
            session_inflight_cap: 1_024,
            journal: None,
            recover: false,
            chaos_verbs: false,
            rebalance_ms: 0,
            journal_compact_bytes: 1024 * 1024,
            recover_grace_ms: 3_000,
        }
    }
}

/// A completed job's payload, as verified from a worker's `done` frame or
/// decoded from a replica `fetched` hit.
#[derive(Debug, Clone)]
struct FleetResult {
    stats: LaunchStats,
    wall_ms: f64,
    /// Wall time measured on the worker that executed the job, including
    /// any stall injection — the fleet-side counterpart of the local
    /// manifest's wall column (0 for replica hits; nothing executed).
    worker_wall_ms: f64,
    cached: bool,
    worker: String,
}

/// Lifecycle of one fleet job.
#[derive(Debug)]
enum FleetJobState {
    Queued,
    /// A replica `fetch` is in flight at `worker` for replica-set rank
    /// `rank`; a miss, a timeout or the worker's death advances the rank.
    Probing {
        worker: usize,
        rank: usize,
        deadline: Instant,
    },
    Leased {
        worker: usize,
        deadline: Instant,
    },
    Done(Box<FleetResult>),
    Failed(String),
}

struct FleetJob {
    spec: JobSpec,
    key: u64,
    state: FleetJobState,
    /// Times this job has been assigned (> 1 means it was reassigned).
    assigns: u64,
    /// The worker that last held this job's lease. Rendezvous placement is
    /// deterministic per (key, worker), so without anti-affinity a
    /// reclaimed job would bounce back to the same straggler forever;
    /// assignment avoids this worker whenever any other candidate exists.
    last_worker: Option<usize>,
    /// Next replica rank to probe for this job's key.
    probe_rank: usize,
    /// Every replica rank answered "miss" (or died): stop probing and
    /// recompute.
    probe_done: bool,
    /// Sessions subscribed to this job's lifecycle events.
    sessions: Vec<String>,
    /// Recovery grace: dispatch skips this job until the deadline, giving
    /// re-joining workers time to reclaim it via their `inventory` frame.
    hold_until: Option<Instant>,
}

/// All jobs ever submitted, plus the dispatch queue and the cache-key
/// dedup index.
#[derive(Default)]
struct JobTable {
    map: HashMap<u64, FleetJob>,
    /// Dispatch order; reclaimed jobs go to the *front* so recovery work
    /// is not starved by a deep queue.
    queue: VecDeque<u64>,
    /// Cache key → job id: a resubmitted spec joins the existing job.
    by_key: HashMap<u64, u64>,
    /// Keys whose payload was fanned out to a replica set at least once.
    /// Only these are worth probing — a never-stored key can only miss.
    stored: HashSet<u64>,
    /// Keys with a rebalance `fetch` probe in flight (value: its
    /// deadline), so the rebalancer does not re-probe every tick.
    rebalance_inflight: HashMap<u64, Instant>,
    next_id: u64,
}

impl JobTable {
    fn all_terminal(&self) -> bool {
        self.map
            .values()
            .all(|j| matches!(j.state, FleetJobState::Done(_) | FleetJobState::Failed(_)))
    }
}

/// One registered worker, live or dead.
struct WorkerEntry {
    name: String,
    slots: usize,
    /// Write half of the worker's connection; `None` once dead.
    writer: Option<TcpStream>,
    alive: bool,
    last_pong: Instant,
    last_ping: Instant,
    ping_seq: u64,
    /// Job ids currently leased to this worker.
    leased: HashSet<u64>,
    /// Job ids with a replica probe in flight at this worker.
    probing: HashSet<u64>,
    /// Cache keys the coordinator believes this worker's replica store
    /// holds: seeded from successful `store` sends, corrected by the
    /// worker's own `inventory` frame (ground truth on rejoin) and by
    /// `fetched` misses. The rebalancer reads this to find
    /// under-replicated keys.
    keys: HashSet<u64>,
    // Outcome counters for the drain-time table.
    done: u64,
    failed: u64,
    corrupt: u64,
    reassigned: u64,
}

/// Fleet-wide cache and admission counters, exposed by `status` and
/// asserted on by the chaos tests (recomputation accounting).
#[derive(Debug, Default, Clone)]
struct FleetCounters {
    /// Accepted `done` results that were actually simulated (not served
    /// from any cache) — the fleet's recomputation count.
    sims: u64,
    /// `store` frames successfully sent to replica holders.
    stores: u64,
    /// Replica hits answered by rank 0 (the key's primary).
    primary_hits: u64,
    /// Replica hits answered by a surviving non-primary replica.
    read_through: u64,
    /// Write-repair fan-outs triggered by a non-primary hit.
    repairs: u64,
    /// Stored keys whose entire replica set missed — truly lost.
    misses: u64,
    /// Submits answered by joining an existing job (cache-key dedup).
    dedup_hits: u64,
    /// Submits refused with a structured shed response.
    sheds: u64,
    /// Under-replicated keys proactively re-fanned by the rebalancer.
    rebalances: u64,
    /// Leases resumed from a re-joining worker's inventory after
    /// `--recover` (work that kept running across a coordinator crash).
    resumed: u64,
}

/// One client session: a durable event log and an inflight count for
/// admission control. Survives the connection that created it.
#[derive(Debug, Default)]
struct Session {
    /// Replay log; `front()` has sequence number `base_seq`.
    log: VecDeque<Json>,
    base_seq: u64,
    next_seq: u64,
    /// Submitted-but-not-terminal jobs attributed to this session.
    inflight: u64,
}

#[derive(Default)]
struct SessionTable {
    map: HashMap<String, Session>,
    next: u64,
}

impl SessionTable {
    /// Append one event (with a per-session sequence number) to every
    /// subscribed session's log, truncating from the front at the cap.
    fn log_event(&mut self, subscribers: &[String], kind: &str, fields: &[(&str, Json)]) {
        for sid in subscribers {
            let Some(s) = self.map.get_mut(sid) else {
                continue;
            };
            let seq = s.next_seq;
            s.next_seq += 1;
            let mut pairs = vec![
                ("event", Json::Str(kind.to_string())),
                ("seq", Json::UInt(seq)),
            ];
            pairs.extend(fields.iter().map(|(k, v)| (*k, v.clone())));
            s.log.push_back(Json::obj(pairs));
            while s.log.len() > EVENT_LOG_CAP {
                s.log.pop_front();
                s.base_seq += 1;
            }
        }
    }
}

/// Decrement the inflight count of every session subscribed to a job that
/// just reached a terminal state.
fn settle_subscribers(sessions: &mut SessionTable, subscribers: &[String]) {
    for sid in subscribers {
        if let Some(s) = sessions.map.get_mut(sid) {
            s.inflight = s.inflight.saturating_sub(1);
        }
    }
}

/// Everything the accept loop, session handlers, and supervisor share.
///
/// Lock order: `jobs` → `workers` → `sessions` → `counters` → `depth` →
/// `journal`; never the reverse of any pair. The journal is innermost so
/// any handler can append a record while holding whatever state locks it
/// already has.
struct CoordShared {
    opts: CoordinatorOptions,
    jobs: Mutex<JobTable>,
    workers: Mutex<Vec<WorkerEntry>>,
    sessions: Mutex<SessionTable>,
    counters: Mutex<FleetCounters>,
    draining: AtomicBool,
    /// Set once the drain completes; accept and supervisor loops exit.
    /// Shared on its own so a [`Coordinator::stopper`] holds only the flag,
    /// never the worker sockets it is waiting to see closed.
    finished: Arc<AtomicBool>,
    /// Queue-depth samples, taken each supervisor tick.
    depth: Mutex<Accumulator>,
    /// Write-ahead journal, when `--journal` is set.
    journal: Option<Mutex<Journal>>,
}

/// Append one record to the journal (no-op without `--journal`). Append
/// failures are warned about, never fatal: the fleet keeps serving and
/// the journal simply ends at its last good record.
fn jlog(shared: &CoordShared, rec: &Record) {
    if let Some(journal) = &shared.journal {
        let mut j = journal.lock().expect("journal poisoned");
        if let Err(e) = j.append(rec) {
            eprintln!("warning: {e}");
        }
    }
}

/// Journal one increment of a recovered-with-the-journal counter; the
/// caller bumps the live [`FleetCounters`] field itself.
fn jcount(shared: &CoordShared, counter: JCounter) {
    jlog(shared, &Record::Counter { counter, delta: 1 });
}

/// Flush batched journal appends (fsync), once per supervisor tick and
/// after accepting a submit.
fn jsync(shared: &CoordShared) {
    if let Some(journal) = &shared.journal {
        let mut j = journal.lock().expect("journal poisoned");
        if let Err(e) = j.sync() {
            eprintln!("warning: {e}");
        }
    }
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
        if opts.lease_ms == 0
            || opts.heartbeat_ms == 0
            || opts.heartbeat_timeout_ms == 0
            || opts.probe_timeout_ms == 0
        {
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
        if opts.replicas == 0 {
            return Err(ServeError::Config(
                "coordinator needs at least one replica (--replicas 1)".to_string(),
            ));
        }
        // Open the journal before binding: an unusable journal is a
        // config error the operator must fix, not something to retry.
        let mut recovered: Option<RecoveredState> = None;
        let journal = match (&opts.journal, opts.recover) {
            (Some(path), true) => {
                let (j, rec) = Journal::open_recover(path).map_err(journal_error)?;
                recovered = Some(rec);
                Some(Mutex::new(j))
            }
            (Some(path), false) => Some(Mutex::new(Journal::create(path).map_err(journal_error)?)),
            (None, true) => {
                return Err(ServeError::Config(
                    "--recover needs --journal PATH".to_string(),
                ))
            }
            (None, false) => None,
        };
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| ServeError::Bind(format!("cannot bind {}: {e}", opts.addr)))?;
        let shared = Arc::new(CoordShared {
            jobs: Mutex::new(JobTable::default()),
            workers: Mutex::new(Vec::new()),
            sessions: Mutex::new(SessionTable::default()),
            counters: Mutex::new(FleetCounters::default()),
            draining: AtomicBool::new(false),
            finished: Arc::new(AtomicBool::new(false)),
            depth: Mutex::new(Accumulator::default()),
            journal,
            opts,
        });
        if let Some(rec) = recovered {
            restore_state(&shared, rec);
        }
        Ok(Coordinator { listener, shared })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] if the socket address cannot be read.
    pub fn addr(&self) -> Result<std::net::SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::Bind(format!("cannot read bound address: {e}")))
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
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Net(format!("cannot set nonblocking accept: {e}")))?;
        std::thread::scope(|scope| {
            {
                let shared = Arc::clone(&self.shared);
                scope.spawn(move || supervisor_loop(&shared));
            }
            loop {
                if self.shared.finished.load(Ordering::SeqCst) {
                    break;
                }
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let shared = Arc::clone(&self.shared);
                        scope.spawn(move || handle_session(stream, &shared));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => eprintln!("warning: accept failed: {e}"),
                }
            }
        });
        if self.shared.opts.print_outcomes {
            print_outcome_table(&self.shared);
        }
        let jobs = self.shared.jobs.lock().expect("jobs poisoned");
        if self.shared.draining.load(Ordering::SeqCst) && jobs.all_terminal() {
            Ok(())
        } else {
            Err(ServeError::Net(
                "coordinator stopped before its jobs drained".to_string(),
            ))
        }
    }

    /// A handle that ends [`Coordinator::run`] without waiting for a
    /// drain, for an owner whose in-process worker has exited and left
    /// nothing to run the queue.
    pub fn stopper(&self) -> impl Fn() + Send + 'static {
        let finished = Arc::clone(&self.shared.finished);
        move || finished.store(true, Ordering::SeqCst)
    }
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

/// Rebuild the in-memory tables from a replayed journal.
///
/// Recovered sessions restart their event numbering at the journal's
/// per-session watermark (an upper bound on what was delivered pre-crash),
/// so any cursor a surviving client holds is ≤ `base_seq` and a re-attach
/// replays every post-recovery event. Each recovered job replays its
/// lifecycle as synthetic events ("queued" plus a terminal event if it
/// has one); non-terminal jobs are requeued under a grace hold so
/// re-joining workers can resume still-running leases via `inventory`
/// instead of the coordinator re-running them.
fn restore_state(shared: &CoordShared, rec: RecoveredState) {
    let now = Instant::now();
    let grace = Duration::from_millis(shared.opts.recover_grace_ms);
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    let mut counters = shared.counters.lock().expect("counters poisoned");
    sessions.next = rec.state.session_next;
    for s in &rec.state.sessions {
        sessions.map.insert(
            s.id.clone(),
            Session {
                log: VecDeque::new(),
                base_seq: s.events,
                next_seq: s.events,
                inflight: 0,
            },
        );
    }
    jobs.next_id = rec.state.next_id;
    let mut snap_jobs = rec.state.jobs;
    snap_jobs.sort_by_key(|j| j.id);
    let mut resumable = 0u64;
    for sj in snap_jobs {
        let mut cfg = if sj.tiny {
            gcl_sim::GpuConfig::small()
        } else {
            gcl_sim::GpuConfig::fermi()
        };
        cfg.sanitize = sj.sanitize;
        if let Some(mc) = sj.max_cycles {
            cfg.max_cycles = mc;
        }
        let spec = JobSpec::new(sj.workload.clone(), sj.tiny, cfg);
        let (state, was_leased) = match sj.state {
            SnapJobState::Queued { was_leased } => (FleetJobState::Queued, was_leased),
            SnapJobState::Done {
                cached,
                wall_ms,
                worker_wall_ms,
                worker,
                payload,
            } => {
                let mut d = Dec::new(&payload);
                match LaunchStats::ckpt_decode(&mut d) {
                    Ok(stats) => (
                        FleetJobState::Done(Box::new(FleetResult {
                            stats,
                            wall_ms,
                            worker_wall_ms,
                            cached,
                            worker,
                        })),
                        false,
                    ),
                    // A payload the journal preserved but this build
                    // cannot decode: recompute rather than refuse.
                    Err(_) => (FleetJobState::Queued, false),
                }
            }
            SnapJobState::Failed(msg) => (FleetJobState::Failed(msg), false),
        };
        let terminal = matches!(state, FleetJobState::Done(_) | FleetJobState::Failed(_));
        if was_leased {
            resumable += 1;
        }
        sessions.log_event(
            &sj.sessions,
            "queued",
            &[
                ("job", Json::UInt(sj.id)),
                ("workload", Json::Str(sj.workload.clone())),
                ("deduped", Json::Bool(false)),
                ("recovered", Json::Bool(true)),
            ],
        );
        match &state {
            FleetJobState::Done(result) => {
                sessions.log_event(
                    &sj.sessions,
                    "done",
                    &[
                        ("job", Json::UInt(sj.id)),
                        ("workload", Json::Str(sj.workload.clone())),
                        ("cached", Json::Bool(result.cached)),
                        ("wall_ms", Json::Float(result.wall_ms)),
                        ("worker_wall_ms", Json::Float(result.worker_wall_ms)),
                        ("worker", Json::Str(result.worker.clone())),
                    ],
                );
            }
            FleetJobState::Failed(msg) => {
                sessions.log_event(
                    &sj.sessions,
                    "failed",
                    &[
                        ("job", Json::UInt(sj.id)),
                        ("error", Json::Str(msg.clone())),
                    ],
                );
            }
            _ => {
                for sid in &sj.sessions {
                    if let Some(s) = sessions.map.get_mut(sid) {
                        s.inflight += 1;
                    }
                }
            }
        }
        jobs.by_key.insert(sj.key, sj.id);
        if !terminal {
            jobs.queue.push_back(sj.id);
        }
        jobs.map.insert(
            sj.id,
            FleetJob {
                spec,
                key: sj.key,
                state,
                assigns: u64::from(terminal || was_leased),
                last_worker: None,
                probe_rank: 0,
                probe_done: false,
                sessions: sj.sessions,
                hold_until: (!terminal).then_some(now + grace),
            },
        );
    }
    for key in rec.state.stored {
        jobs.stored.insert(key);
    }
    let c = rec.state.counters;
    *counters = FleetCounters {
        sims: c.sims,
        stores: c.stores,
        primary_hits: c.primary_hits,
        read_through: c.read_through,
        repairs: c.repairs,
        misses: c.misses,
        dedup_hits: c.dedup_hits,
        sheds: c.sheds,
        rebalances: c.rebalances,
        resumed: c.resumed,
    };
    let pending = jobs.queue.len();
    eprintln!(
        "fleet: recovered {} record(s): {} job(s) ({} pending, {} resumable), \
         {} session(s), {} stored key(s){}",
        rec.records,
        jobs.map.len(),
        pending,
        resumable,
        sessions.map.len(),
        jobs.stored.len(),
        if rec.truncated {
            " — torn tail truncated"
        } else {
            ""
        }
    );
}

/// Print the per-worker outcome table a drain leaves behind: graceful
/// degradation is only trustworthy when you can see who did what.
fn print_outcome_table(shared: &CoordShared) {
    let workers = shared.workers.lock().expect("workers poisoned");
    eprintln!("fleet outcome ({} workers):", workers.len());
    eprintln!("  worker            state  done  failed  corrupt  reassigned");
    for w in workers.iter() {
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
    let depth = shared.depth.lock().expect("depth poisoned");
    if depth.count > 0 {
        eprintln!(
            "  queue depth: mean {:.1}, max {:.0} over {} samples",
            depth.mean(),
            depth.max,
            depth.count
        );
    }
    let c = shared.counters.lock().expect("counters poisoned").clone();
    eprintln!(
        "  cache: {} sims, {} stores, {} primary hits, {} read-through, \
         {} repairs, {} lost, {} dedup, {} sheds, {} rebalances, {} resumed",
        c.sims,
        c.stores,
        c.primary_hits,
        c.read_through,
        c.repairs,
        c.misses,
        c.dedup_hits,
        c.sheds,
        c.rebalances,
        c.resumed
    );
}

/// Declare worker `idx` dead for `reason`: tear down its socket, return
/// every lease it held to the front of the queue, advance every probe it
/// owed past its rank. Caller holds jobs, workers and sessions locks (in
/// that order); the journal (innermost) is taken per reclaim.
fn mark_dead(
    shared: &CoordShared,
    jobs: &mut JobTable,
    workers: &mut [WorkerEntry],
    sessions: &mut SessionTable,
    idx: usize,
    reason: &str,
) {
    let w = &mut workers[idx];
    if !w.alive {
        return;
    }
    w.alive = false;
    if let Some(writer) = w.writer.take() {
        let _ = writer.shutdown(Shutdown::Both);
    }
    w.keys.clear();
    let leases: Vec<u64> = w.leased.drain().collect();
    let probes: Vec<u64> = w.probing.drain().collect();
    if !leases.is_empty() {
        eprintln!(
            "fleet: {reason}: `{}` loses {} lease(s), reassigning",
            w.name,
            leases.len()
        );
    } else {
        eprintln!("fleet: {reason}: `{}`", w.name);
    }
    for id in leases {
        w.reassigned += 1;
        let subscribers = jobs
            .map
            .get(&id)
            .map(|j| j.sessions.clone())
            .unwrap_or_default();
        jlog(
            shared,
            &Record::Reclaim {
                id,
                reason: reason.to_string(),
            },
        );
        sessions.log_event(
            &subscribers,
            "reassigned",
            &[
                ("job", Json::UInt(id)),
                ("reason", Json::Str(reason.to_string())),
            ],
        );
        requeue_front(jobs, id);
    }
    for id in probes {
        probe_requeue(jobs, id, idx);
    }
}

/// The spec's cycle budget when it is not its scale's default (loadgen's
/// cache-busting variants). It must survive the trip to a worker and
/// through the journal, or the digest would differ.
fn cycle_override(spec: &JobSpec) -> Option<u64> {
    let default = if spec.tiny {
        gcl_sim::GpuConfig::small()
    } else {
        gcl_sim::GpuConfig::fermi()
    };
    (spec.cfg.max_cycles != default.max_cycles).then_some(spec.cfg.max_cycles)
}

/// Return a leased job to the front of the queue (if it has not already
/// reached a terminal state through a late result).
fn requeue_front(jobs: &mut JobTable, id: u64) {
    if let Some(job) = jobs.map.get_mut(&id) {
        if matches!(job.state, FleetJobState::Leased { .. }) {
            job.state = FleetJobState::Queued;
            jobs.queue.push_front(id);
        }
    }
}

/// Return a probing job to the queue front, advancing past the rank that
/// was being probed at `worker` (miss, timeout, or a dead worker).
fn probe_requeue(jobs: &mut JobTable, id: u64, worker: usize) {
    if let Some(job) = jobs.map.get_mut(&id) {
        if let FleetJobState::Probing {
            worker: w, rank, ..
        } = job.state
        {
            if w == worker {
                job.probe_rank = rank + 1;
                job.state = FleetJobState::Queued;
                jobs.queue.push_front(id);
            }
        }
    }
}

/// Live workers ranked by rendezvous weight for `key`, highest first. The
/// top [`CoordinatorOptions::replicas`] entries are the key's replica set
/// for the current fleet; the ranking degrades gracefully as workers die
/// (survivors keep their relative order).
fn ranked_live(workers: &[WorkerEntry], key: u64) -> Vec<usize> {
    let mut live: Vec<usize> = workers
        .iter()
        .enumerate()
        .filter(|(_, w)| w.alive && w.writer.is_some())
        .map(|(i, _)| i)
        .collect();
    live.sort_by_key(|&i| std::cmp::Reverse(fnv_fold(key, i as u64)));
    live
}

/// Fan a verified payload out to `key`'s replica set (minus `exclude`,
/// which already holds it). Dead sends bury the worker; returns how many
/// stores landed. Caller holds jobs, workers and sessions locks.
#[allow(clippy::too_many_arguments)]
fn fan_out_store(
    shared: &CoordShared,
    jobs: &mut JobTable,
    workers: &mut [WorkerEntry],
    sessions: &mut SessionTable,
    key: u64,
    hex: &str,
    sum: &str,
    wall_ms: f64,
    exclude: Option<usize>,
) -> u64 {
    let targets: Vec<usize> = ranked_live(workers, key)
        .into_iter()
        .take(shared.opts.replicas)
        .filter(|widx| Some(*widx) != exclude)
        .collect();
    let frame = store_frame(key, hex, sum, wall_ms);
    let mut sent = 0;
    for widx in targets {
        if send_to_worker(&mut workers[widx], &frame).is_err() {
            mark_dead(shared, jobs, workers, sessions, widx, WORKER_DEAD);
        } else {
            workers[widx].keys.insert(key);
            sent += 1;
        }
    }
    if let Some(holder) = exclude {
        if let Some(w) = workers.get_mut(holder) {
            w.keys.insert(key);
        }
    }
    if sent > 0 || exclude.is_some() {
        jobs.stored.insert(key);
        jlog(shared, &Record::Stored { key, count: sent });
    }
    sent
}

/// The supervisor: heartbeats, deadline enforcement, assignment,
/// rebalancing, journal upkeep, drain.
fn supervisor_loop(shared: &Arc<CoordShared>) {
    let tick = Duration::from_millis(20);
    let mut next_rebalance = Instant::now();
    loop {
        if shared.finished.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        {
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            let mut workers = shared.workers.lock().expect("workers poisoned");
            let mut sessions = shared.sessions.lock().expect("sessions poisoned");

            // Heartbeats: ping on schedule, bury on deadline.
            let hb = Duration::from_millis(shared.opts.heartbeat_ms);
            let hb_timeout = Duration::from_millis(shared.opts.heartbeat_timeout_ms);
            for idx in 0..workers.len() {
                if !workers[idx].alive {
                    continue;
                }
                if now.duration_since(workers[idx].last_pong) > hb_timeout {
                    mark_dead(
                        shared,
                        &mut jobs,
                        &mut workers,
                        &mut sessions,
                        idx,
                        WORKER_DEAD,
                    );
                    continue;
                }
                if now.duration_since(workers[idx].last_ping) >= hb {
                    workers[idx].ping_seq += 1;
                    let seq = workers[idx].ping_seq;
                    workers[idx].last_ping = now;
                    let ping = Json::obj(vec![
                        ("op", Json::Str("ping".into())),
                        ("seq", Json::UInt(seq)),
                    ]);
                    if send_to_worker(&mut workers[idx], &ping).is_err() {
                        mark_dead(
                            shared,
                            &mut jobs,
                            &mut workers,
                            &mut sessions,
                            idx,
                            WORKER_DEAD,
                        );
                    }
                }
            }

            // Leases: reclaim expired ones even from live workers — a
            // straggler keeps its connection but loses the job.
            let expired: Vec<(u64, usize)> = jobs
                .map
                .iter()
                .filter_map(|(id, job)| match job.state {
                    FleetJobState::Leased { worker, deadline } if now >= deadline => {
                        Some((*id, worker))
                    }
                    _ => None,
                })
                .collect();
            for (id, widx) in expired {
                if let Some(w) = workers.get_mut(widx) {
                    w.leased.remove(&id);
                    w.reassigned += 1;
                    eprintln!(
                        "fleet: {LEASE_EXPIRED}: job {id} reclaimed from `{}`",
                        w.name
                    );
                }
                let subscribers = jobs
                    .map
                    .get(&id)
                    .map(|j| j.sessions.clone())
                    .unwrap_or_default();
                jlog(
                    shared,
                    &Record::Reclaim {
                        id,
                        reason: LEASE_EXPIRED.to_string(),
                    },
                );
                sessions.log_event(
                    &subscribers,
                    "reassigned",
                    &[
                        ("job", Json::UInt(id)),
                        ("reason", Json::Str(LEASE_EXPIRED.to_string())),
                    ],
                );
                requeue_front(&mut jobs, id);
            }

            // Replica probes that never got an answer: advance the rank.
            let stale_probes: Vec<(u64, usize)> = jobs
                .map
                .iter()
                .filter_map(|(id, job)| match job.state {
                    FleetJobState::Probing {
                        worker, deadline, ..
                    } if now >= deadline => Some((*id, worker)),
                    _ => None,
                })
                .collect();
            for (id, widx) in stale_probes {
                if let Some(w) = workers.get_mut(widx) {
                    w.probing.remove(&id);
                }
                eprintln!("fleet: replica probe for job {id} timed out; advancing");
                probe_requeue(&mut jobs, id, widx);
            }

            // Dispatch: pop the queue; a key known to be replicated is
            // probed (read-through) before costing a simulation, everything
            // else is sharded across live workers with free slots,
            // rendezvous-hashing on the content-addressed key so placement
            // is deterministic for a fixed fleet.
            let mut stuck = VecDeque::new();
            while let Some(id) = jobs.queue.pop_front() {
                let Some(job) = jobs.map.get(&id) else {
                    continue;
                };
                if !matches!(job.state, FleetJobState::Queued) {
                    continue;
                }
                // Recovery grace: leave held jobs alone until the deadline
                // so a re-joining worker's inventory can resume them.
                if job.hold_until.is_some_and(|t| now < t) {
                    stuck.push_back(id);
                    continue;
                }
                let key = job.key;
                let avoid = job.last_worker;
                let probe_rank = job.probe_rank;
                let probe_pending = jobs.stored.contains(&key) && !job.probe_done;
                if probe_pending {
                    let ranked = ranked_live(&workers, key);
                    let max_rank = shared.opts.replicas.min(ranked.len());
                    if probe_rank < max_rank {
                        let widx = ranked[probe_rank];
                        if send_to_worker(&mut workers[widx], &fetch_frame(id, key)).is_err() {
                            mark_dead(
                                shared,
                                &mut jobs,
                                &mut workers,
                                &mut sessions,
                                widx,
                                WORKER_DEAD,
                            );
                            jobs.queue.push_front(id);
                            continue;
                        }
                        let job = jobs.map.get_mut(&id).expect("job exists");
                        job.state = FleetJobState::Probing {
                            worker: widx,
                            rank: probe_rank,
                            deadline: now + Duration::from_millis(shared.opts.probe_timeout_ms),
                        };
                        workers[widx].probing.insert(id);
                        continue;
                    }
                    // Every replica rank missed or died: the key is truly
                    // lost; fall through and recompute it.
                    let job = jobs.map.get_mut(&id).expect("job exists");
                    job.probe_done = true;
                    jcount(shared, JCounter::Misses);
                    shared.counters.lock().expect("counters poisoned").misses += 1;
                }
                let free =
                    |w: &WorkerEntry| w.alive && w.writer.is_some() && w.leased.len() < w.slots;
                let candidates: Vec<usize> = workers
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| free(w))
                    .map(|(widx, _)| widx)
                    .collect();
                let chosen = candidates
                    .iter()
                    .copied()
                    // Anti-affinity: never hand a reclaimed job straight
                    // back to the worker it was just taken from, unless it
                    // is the only one left.
                    .filter(|widx| candidates.len() == 1 || Some(*widx) != avoid)
                    .max_by_key(|widx| fnv_fold(key, *widx as u64));
                let Some(widx) = chosen else {
                    // No capacity (or no fleet yet): hold the job.
                    stuck.push_back(id);
                    continue;
                };
                let job = jobs.map.get_mut(&id).expect("job exists");
                let mut assign_fields = vec![
                    ("op", Json::Str("assign".into())),
                    ("job", Json::UInt(id)),
                    ("workload", Json::Str(job.spec.workload.clone())),
                    ("tiny", Json::Bool(job.spec.tiny)),
                    ("sanitize", Json::Bool(job.spec.cfg.sanitize)),
                ];
                if let Some(max_cycles) = cycle_override(&job.spec) {
                    assign_fields.push(("max_cycles", Json::UInt(max_cycles)));
                }
                let assign = Json::obj(assign_fields);
                if send_to_worker(&mut workers[widx], &assign).is_err() {
                    mark_dead(
                        shared,
                        &mut jobs,
                        &mut workers,
                        &mut sessions,
                        widx,
                        WORKER_DEAD,
                    );
                    // mark_dead may have requeued other jobs; this one is
                    // still ours to put back.
                    jobs.queue.push_front(id);
                    continue;
                }
                let wname = workers[widx].name.clone();
                let job = jobs.map.get_mut(&id).expect("job exists");
                job.assigns += 1;
                job.last_worker = Some(widx);
                job.state = FleetJobState::Leased {
                    worker: widx,
                    deadline: now + Duration::from_millis(shared.opts.lease_ms),
                };
                let subscribers = job.sessions.clone();
                workers[widx].leased.insert(id);
                jlog(
                    shared,
                    &Record::Lease {
                        id,
                        worker: wname.clone(),
                    },
                );
                sessions.log_event(
                    &subscribers,
                    "leased",
                    &[("job", Json::UInt(id)), ("worker", Json::Str(wname))],
                );
            }
            // Jobs with nowhere to go wait at the front, in order.
            for id in stuck.into_iter().rev() {
                jobs.queue.push_front(id);
            }

            // Proactive rebalancing: scan the replica directory and re-fan
            // any under-replicated key back to R, without waiting for a
            // read miss. The payload comes from a terminal job when one is
            // still in the table, else it is fetched back from a surviving
            // holder (the `fetched` handler finishes that fan-out).
            if shared.opts.rebalance_ms > 0 && now >= next_rebalance {
                next_rebalance = now + Duration::from_millis(shared.opts.rebalance_ms);
                rebalance(shared, &mut jobs, &mut workers, &mut sessions, now);
            }

            shared
                .depth
                .lock()
                .expect("depth poisoned")
                .add(jobs.queue.len() as f64);

            // Drain: once every job is terminal, dismiss the fleet.
            if shared.draining.load(Ordering::SeqCst) && jobs.all_terminal() {
                let close = Json::obj(vec![("op", Json::Str("close".into()))]);
                for w in workers.iter_mut() {
                    if w.alive {
                        let _ = send_to_worker(w, &close);
                    }
                    if let Some(writer) = w.writer.take() {
                        let _ = writer.shutdown(Shutdown::Both);
                    }
                }
                shared.finished.store(true, Ordering::SeqCst);
            }

            // Journal upkeep: one batched fsync per tick, and compaction
            // into a snapshot once the file outgrows its budget.
            if let Some(journal) = &shared.journal {
                let needs_compact = {
                    let j = journal.lock().expect("journal poisoned");
                    j.bytes() > shared.opts.journal_compact_bytes
                };
                if needs_compact {
                    let snap = {
                        let counters = shared.counters.lock().expect("counters poisoned");
                        snapshot_state(&jobs, &sessions, &counters)
                    };
                    let mut j = journal.lock().expect("journal poisoned");
                    let before = j.bytes();
                    match j.compact(&snap) {
                        Ok(()) => {
                            eprintln!("fleet: journal compacted ({before} -> {} bytes)", j.bytes())
                        }
                        Err(e) => eprintln!("warning: journal compaction failed: {e}"),
                    }
                }
            }
            jsync(shared);
        }
        std::thread::sleep(tick);
    }
}

/// Re-fan every under-replicated stored key toward R live replicas.
/// Caller holds jobs, workers and sessions locks.
fn rebalance(
    shared: &CoordShared,
    jobs: &mut JobTable,
    workers: &mut [WorkerEntry],
    sessions: &mut SessionTable,
    now: Instant,
) {
    jobs.rebalance_inflight
        .retain(|_, deadline| now < *deadline);
    let stored: Vec<u64> = jobs.stored.iter().copied().collect();
    for key in stored {
        if jobs.rebalance_inflight.contains_key(&key) {
            continue;
        }
        let targets: Vec<usize> = ranked_live(workers, key)
            .into_iter()
            .take(shared.opts.replicas)
            .collect();
        if targets.is_empty()
            || targets
                .iter()
                .all(|widx| workers[*widx].keys.contains(&key))
        {
            continue;
        }
        // Prefer a payload still in the job table: re-fan it directly.
        let payload = jobs
            .by_key
            .get(&key)
            .and_then(|id| jobs.map.get(id))
            .and_then(|j| match &j.state {
                FleetJobState::Done(result) => Some((result.stats.clone(), result.wall_ms)),
                _ => None,
            });
        if let Some((stats, wall_ms)) = payload {
            let (hex, sum) = super::encode_stats_payload(&stats);
            let sent = fan_out_store(
                shared, jobs, workers, sessions, key, &hex, &sum, wall_ms, None,
            );
            if sent > 0 {
                jcount(shared, JCounter::Rebalances);
                let mut c = shared.counters.lock().expect("counters poisoned");
                c.rebalances += 1;
                c.stores += sent;
            }
            continue;
        }
        // The job table no longer has the bytes (reset, or recovery with
        // the payload on a worker): fetch them back from the best-ranked
        // surviving holder. Job id 0 marks the reply as a rebalance fetch.
        let holder = ranked_live(workers, key)
            .into_iter()
            .find(|widx| workers[*widx].keys.contains(&key));
        let Some(widx) = holder else {
            continue;
        };
        if send_to_worker(&mut workers[widx], &fetch_frame(0, key)).is_err() {
            mark_dead(shared, jobs, workers, sessions, widx, WORKER_DEAD);
            continue;
        }
        jobs.rebalance_inflight.insert(
            key,
            now + Duration::from_millis(shared.opts.probe_timeout_ms),
        );
    }
}

/// Capture the complete durable state for a compaction snapshot. Caller
/// holds the jobs, sessions and counters locks.
fn snapshot_state(jobs: &JobTable, sessions: &SessionTable, counters: &FleetCounters) -> SnapState {
    let mut snap_jobs: Vec<SnapJob> = jobs
        .map
        .iter()
        .map(|(id, job)| {
            let state = match &job.state {
                FleetJobState::Queued | FleetJobState::Probing { .. } => {
                    SnapJobState::Queued { was_leased: false }
                }
                FleetJobState::Leased { .. } => SnapJobState::Queued { was_leased: true },
                FleetJobState::Done(result) => {
                    let mut enc = gcl_mem::Enc::new();
                    result.stats.ckpt_encode(&mut enc);
                    SnapJobState::Done {
                        cached: result.cached,
                        wall_ms: result.wall_ms,
                        worker_wall_ms: result.worker_wall_ms,
                        worker: result.worker.clone(),
                        payload: enc.into_bytes(),
                    }
                }
                FleetJobState::Failed(msg) => SnapJobState::Failed(msg.clone()),
            };
            SnapJob {
                id: *id,
                key: job.key,
                workload: job.spec.workload.clone(),
                tiny: job.spec.tiny,
                sanitize: job.spec.cfg.sanitize,
                max_cycles: cycle_override(&job.spec),
                sessions: job.sessions.clone(),
                state,
            }
        })
        .collect();
    snap_jobs.sort_by_key(|j| j.id);
    let mut stored: Vec<u64> = jobs.stored.iter().copied().collect();
    stored.sort_unstable();
    let mut snap_sessions: Vec<SnapSession> = sessions
        .map
        .iter()
        .map(|(sid, s)| SnapSession {
            id: sid.clone(),
            events: s.next_seq,
        })
        .collect();
    snap_sessions.sort_by(|a, b| a.id.cmp(&b.id));
    SnapState {
        next_id: jobs.next_id,
        jobs: snap_jobs,
        stored,
        session_next: sessions.next,
        sessions: snap_sessions,
        counters: SnapCounters {
            sims: counters.sims,
            stores: counters.stores,
            primary_hits: counters.primary_hits,
            read_through: counters.read_through,
            repairs: counters.repairs,
            misses: counters.misses,
            dedup_hits: counters.dedup_hits,
            sheds: counters.sheds,
            rebalances: counters.rebalances,
            resumed: counters.resumed,
        },
    }
}

fn send_to_worker(worker: &mut WorkerEntry, frame: &Json) -> Result<(), FrameError> {
    let Some(writer) = worker.writer.as_mut() else {
        return Err(FrameError::Closed);
    };
    write_frame(writer, frame)
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
fn handle_session(stream: TcpStream, shared: &Arc<CoordShared>) {
    let conn = Conn::from_stream(
        stream,
        Duration::from_millis(50),
        Duration::from_millis(shared.opts.write_timeout_ms.max(1)),
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
    shared: &Arc<CoordShared>,
) {
    let name = join
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("worker")
        .to_string();
    let slots = join.get("slots").and_then(Json::as_u64).unwrap_or(1).max(1) as usize;
    let entry_writer = match writer.try_clone() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("warning: worker stream clone failed: {e}");
            return;
        }
    };
    // Joins are welcome during a drain: queued work needs someone to run
    // it. The ack goes out before the worker is registered, so it is the
    // first frame the worker reads — once registered, the supervisor may
    // push an `assign` at any moment.
    if write_frame(&mut writer, &Json::obj(vec![("ok", Json::Bool(true))])).is_err() {
        return;
    }
    let idx = {
        let mut workers = shared.workers.lock().expect("workers poisoned");
        let now = Instant::now();
        workers.push(WorkerEntry {
            name: name.clone(),
            slots,
            writer: Some(entry_writer),
            alive: true,
            last_pong: now,
            last_ping: now,
            ping_seq: 0,
            leased: HashSet::new(),
            probing: HashSet::new(),
            keys: HashSet::new(),
            done: 0,
            failed: 0,
            corrupt: 0,
            reassigned: 0,
        });
        workers.len() - 1
    };
    eprintln!("fleet: worker `{name}` joined with {slots} slot(s)");
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
            Err(_) => {
                let mut jobs = shared.jobs.lock().expect("jobs poisoned");
                let mut workers = shared.workers.lock().expect("workers poisoned");
                let mut sessions = shared.sessions.lock().expect("sessions poisoned");
                mark_dead(
                    shared,
                    &mut jobs,
                    &mut workers,
                    &mut sessions,
                    idx,
                    WORKER_DEAD,
                );
                return;
            }
        };
        let Ok(frame) = Json::parse(&line) else {
            continue;
        };
        match frame.get("op").and_then(Json::as_str) {
            Some("pong") => {
                let mut workers = shared.workers.lock().expect("workers poisoned");
                if let Some(w) = workers.get_mut(idx) {
                    w.last_pong = Instant::now();
                }
            }
            Some("done") => handle_done(&frame, idx, shared),
            Some("fail") => handle_fail(&frame, idx, shared),
            Some("fetched") => handle_fetched(&frame, idx, shared),
            Some("inventory") => handle_inventory(&frame, idx, shared),
            _ => {}
        }
    }
}

/// Reconcile a (re-)joining worker's `inventory` frame: its replica-store
/// keys become ground truth for the directory, and any job it reports
/// still running has its lease resumed — a recovered coordinator then
/// waits for the in-flight result instead of re-running the simulation.
fn handle_inventory(frame: &Json, idx: usize, shared: &Arc<CoordShared>) {
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut workers = shared.workers.lock().expect("workers poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    let keys: HashSet<u64> = match frame.get("keys") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|k| k.as_str().and_then(|s| decode_key(s).ok()))
            .collect(),
        _ => HashSet::new(),
    };
    for key in &keys {
        jobs.stored.insert(*key);
    }
    let name = match workers.get_mut(idx) {
        Some(w) => {
            w.keys = keys;
            w.name.clone()
        }
        None => return,
    };
    let running: Vec<u64> = match frame.get("running") {
        Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
        _ => Vec::new(),
    };
    let now = Instant::now();
    let mut resumed = 0u64;
    for id in running {
        let Some(job) = jobs.map.get_mut(&id) else {
            continue;
        };
        if !matches!(job.state, FleetJobState::Queued) {
            continue;
        }
        job.state = FleetJobState::Leased {
            worker: idx,
            deadline: now + Duration::from_millis(shared.opts.lease_ms),
        };
        job.hold_until = None;
        job.last_worker = Some(idx);
        job.assigns = job.assigns.max(1);
        let subscribers = job.sessions.clone();
        workers[idx].leased.insert(id);
        jlog(
            shared,
            &Record::Lease {
                id,
                worker: name.clone(),
            },
        );
        jcount(shared, JCounter::Resumed);
        sessions.log_event(
            &subscribers,
            "leased",
            &[
                ("job", Json::UInt(id)),
                ("worker", Json::Str(name.clone())),
                ("resumed", Json::Bool(true)),
            ],
        );
        resumed += 1;
    }
    if resumed > 0 {
        shared.counters.lock().expect("counters poisoned").resumed += resumed;
        eprintln!("fleet: resumed {resumed} in-flight lease(s) from `{name}`'s inventory");
    }
}

/// Verify and record a worker's `done` frame. A bad checksum or an
/// undecodable payload is treated exactly like a lost worker's job: the
/// corruption is counted and the job reassigned.
fn handle_done(frame: &Json, idx: usize, shared: &Arc<CoordShared>) {
    let Some(id) = frame.get("job").and_then(Json::as_u64) else {
        return;
    };
    let verified = verify_result(frame);
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut workers = shared.workers.lock().expect("workers poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    if let Some(w) = workers.get_mut(idx) {
        w.leased.remove(&id);
    }
    if !jobs.map.contains_key(&id) {
        return;
    }
    match verified {
        Ok((stats, wall_ms, worker_wall_ms, cached)) => {
            // First result wins; a duplicate from a reassigned job carries
            // identical bytes (the run is a pure function of the spec), so
            // dropping it is sound.
            let job = jobs.map.get_mut(&id).expect("job exists");
            if !matches!(
                job.state,
                FleetJobState::Leased { .. } | FleetJobState::Queued
            ) {
                return;
            }
            let worker_name = workers
                .get(idx)
                .map_or_else(String::new, |w| w.name.clone());
            let key = job.key;
            let workload = job.spec.workload.clone();
            let subscribers = job.sessions.clone();
            job.state = FleetJobState::Done(Box::new(FleetResult {
                stats,
                wall_ms,
                worker_wall_ms,
                cached,
                worker: worker_name.clone(),
            }));
            // It may have been requeued by a pessimistic deadline; drop
            // the stale queue entry lazily (assignment skips non-Queued
            // ids).
            if let Some(w) = workers.get_mut(idx) {
                w.done += 1;
            }
            // Journal before the event log: the per-session watermark the
            // journal accumulates must never fall below what clients see.
            let payload = frame
                .get("stats")
                .and_then(Json::as_str)
                .and_then(|hex| hex_decode(hex).ok())
                .unwrap_or_default();
            jlog(
                shared,
                &Record::Done {
                    id,
                    cached,
                    wall_ms,
                    worker_wall_ms,
                    worker: worker_name.clone(),
                    payload,
                },
            );
            sessions.log_event(
                &subscribers,
                "done",
                &[
                    ("job", Json::UInt(id)),
                    ("workload", Json::Str(workload)),
                    ("cached", Json::Bool(cached)),
                    ("wall_ms", Json::Float(wall_ms)),
                    ("worker_wall_ms", Json::Float(worker_wall_ms)),
                    ("worker", Json::Str(worker_name)),
                ],
            );
            settle_subscribers(&mut sessions, &subscribers);
            if !cached {
                shared.counters.lock().expect("counters poisoned").sims += 1;
            }
            // Durability: fan the already-verified payload bytes out to
            // the key's replica set; a later submit of this key can then
            // be served by any surviving replica.
            if let (Some(hex), Some(sum)) = (
                frame.get("stats").and_then(Json::as_str),
                frame.get("sum").and_then(Json::as_str),
            ) {
                let sent = fan_out_store(
                    shared,
                    &mut jobs,
                    &mut workers,
                    &mut sessions,
                    key,
                    hex,
                    sum,
                    wall_ms,
                    None,
                );
                shared.counters.lock().expect("counters poisoned").stores += sent;
            }
        }
        Err(why) => {
            eprintln!("fleet: corrupt result for job {id}: {why}; reassigning");
            if let Some(w) = workers.get_mut(idx) {
                w.corrupt += 1;
                w.reassigned += 1;
            }
            let subscribers = jobs
                .map
                .get(&id)
                .map(|j| j.sessions.clone())
                .unwrap_or_default();
            jlog(
                shared,
                &Record::Reclaim {
                    id,
                    reason: "corrupt result".to_string(),
                },
            );
            sessions.log_event(
                &subscribers,
                "reassigned",
                &[
                    ("job", Json::UInt(id)),
                    ("reason", Json::Str("corrupt result".to_string())),
                ],
            );
            requeue_front(&mut jobs, id);
        }
    }
}

/// Decode and checksum-verify the `stats` payload of a `done` frame.
/// Returns `(stats, wall_ms, worker_wall_ms, cached)`.
fn verify_result(frame: &Json) -> Result<(LaunchStats, f64, f64, bool), String> {
    let hex = frame
        .get("stats")
        .and_then(Json::as_str)
        .ok_or("missing stats payload")?;
    let sum_text = frame
        .get("sum")
        .and_then(Json::as_str)
        .ok_or("missing checksum")?;
    let stats = super::decode_stats_payload(hex, sum_text)?;
    let wall_ms = frame.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let worker_wall_ms = frame
        .get("worker_wall_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let cached = frame.get("cached").and_then(Json::as_bool).unwrap_or(false);
    Ok((stats, wall_ms, worker_wall_ms, cached))
}

/// A worker's answer to a replica probe. A verified hit completes the job
/// from the replica store (and write-repairs the set when a non-primary
/// answered); a miss or a corrupt payload advances to the next rank.
fn handle_fetched(frame: &Json, idx: usize, shared: &Arc<CoordShared>) {
    let Some(id) = frame.get("job").and_then(Json::as_u64) else {
        return;
    };
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut workers = shared.workers.lock().expect("workers poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    if let Some(w) = workers.get_mut(idx) {
        w.probing.remove(&id);
    }
    // Job id 0 never exists: this is the rebalancer's fetch coming back.
    if id == 0 {
        handle_rebalance_fetched(frame, idx, shared, &mut jobs, &mut workers, &mut sessions);
        return;
    }
    let Some(job) = jobs.map.get_mut(&id) else {
        return;
    };
    let (worker, rank) = match &job.state {
        FleetJobState::Probing { worker, rank, .. } => (*worker, *rank),
        // Stale answer: the probe already timed out and moved on.
        _ => return,
    };
    if worker != idx {
        return;
    }
    let hit = frame.get("hit").and_then(Json::as_bool).unwrap_or(false);
    if hit {
        let payload = match (
            frame.get("stats").and_then(Json::as_str),
            frame.get("sum").and_then(Json::as_str),
        ) {
            (Some(hex), Some(sum)) => super::decode_stats_payload(hex, sum)
                .map(|stats| (stats, hex.to_string(), sum.to_string())),
            _ => Err("fetched hit without payload".to_string()),
        };
        match payload {
            Ok((stats, hex, sum)) => {
                let wall_ms = frame.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
                let worker_name = workers
                    .get(idx)
                    .map_or_else(String::new, |w| w.name.clone());
                let key = job.key;
                let workload = job.spec.workload.clone();
                let subscribers = job.sessions.clone();
                job.state = FleetJobState::Done(Box::new(FleetResult {
                    stats,
                    wall_ms,
                    worker_wall_ms: 0.0,
                    cached: true,
                    worker: worker_name.clone(),
                }));
                if let Some(w) = workers.get_mut(idx) {
                    w.keys.insert(key);
                }
                jlog(
                    shared,
                    &Record::Done {
                        id,
                        cached: true,
                        wall_ms,
                        worker_wall_ms: 0.0,
                        worker: worker_name.clone(),
                        payload: hex_decode(&hex).unwrap_or_default(),
                    },
                );
                jcount(
                    shared,
                    if rank == 0 {
                        JCounter::PrimaryHits
                    } else {
                        JCounter::ReadThrough
                    },
                );
                sessions.log_event(
                    &subscribers,
                    "done",
                    &[
                        ("job", Json::UInt(id)),
                        ("workload", Json::Str(workload)),
                        ("cached", Json::Bool(true)),
                        ("wall_ms", Json::Float(wall_ms)),
                        ("worker_wall_ms", Json::Float(0.0)),
                        ("worker", Json::Str(worker_name)),
                    ],
                );
                settle_subscribers(&mut sessions, &subscribers);
                {
                    let mut c = shared.counters.lock().expect("counters poisoned");
                    if rank == 0 {
                        c.primary_hits += 1;
                    } else {
                        c.read_through += 1;
                    }
                }
                if rank > 0 {
                    // Write-repair: the primary is gone; re-replicate onto
                    // the current replica set so the key survives the next
                    // node loss too.
                    let sent = fan_out_store(
                        shared,
                        &mut jobs,
                        &mut workers,
                        &mut sessions,
                        key,
                        &hex,
                        &sum,
                        wall_ms,
                        Some(idx),
                    );
                    jcount(shared, JCounter::Repairs);
                    let mut c = shared.counters.lock().expect("counters poisoned");
                    c.repairs += 1;
                    c.stores += sent;
                }
            }
            Err(why) => {
                eprintln!("fleet: corrupt replica payload for job {id}: {why}; advancing");
                probe_requeue(&mut jobs, id, idx);
            }
        }
    } else {
        if let (Some(w), Some(key)) = (
            workers.get_mut(idx),
            frame
                .get("key")
                .and_then(Json::as_str)
                .and_then(|s| decode_key(s).ok()),
        ) {
            // The probe said miss: correct the directory's view.
            w.keys.remove(&key);
        }
        probe_requeue(&mut jobs, id, idx);
    }
}

/// Finish a rebalance fetch (job id 0): a verified hit is re-fanned to
/// the key's current replica set; a miss corrects the directory so the
/// next rebalance pass tries another holder (or gives the key up for
/// lost — a later submit recomputes it).
fn handle_rebalance_fetched(
    frame: &Json,
    idx: usize,
    shared: &Arc<CoordShared>,
    jobs: &mut JobTable,
    workers: &mut [WorkerEntry],
    sessions: &mut SessionTable,
) {
    let Some(key) = frame
        .get("key")
        .and_then(Json::as_str)
        .and_then(|s| decode_key(s).ok())
    else {
        return;
    };
    jobs.rebalance_inflight.remove(&key);
    let hit = frame.get("hit").and_then(Json::as_bool).unwrap_or(false);
    if !hit {
        if let Some(w) = workers.get_mut(idx) {
            w.keys.remove(&key);
        }
        return;
    }
    let verified = match (
        frame.get("stats").and_then(Json::as_str),
        frame.get("sum").and_then(Json::as_str),
    ) {
        (Some(hex), Some(sum)) => {
            super::decode_stats_payload(hex, sum).map(|_| (hex.to_string(), sum.to_string()))
        }
        _ => Err("fetched hit without payload".to_string()),
    };
    match verified {
        Ok((hex, sum)) => {
            let wall_ms = frame.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0);
            if let Some(w) = workers.get_mut(idx) {
                w.keys.insert(key);
            }
            let sent = fan_out_store(
                shared,
                jobs,
                workers,
                sessions,
                key,
                &hex,
                &sum,
                wall_ms,
                Some(idx),
            );
            if sent > 0 {
                jcount(shared, JCounter::Rebalances);
                let mut c = shared.counters.lock().expect("counters poisoned");
                c.rebalances += 1;
                c.stores += sent;
            }
        }
        Err(why) => {
            eprintln!(
                "fleet: corrupt rebalance payload for key {}: {why}",
                encode_key(key)
            );
            if let Some(w) = workers.get_mut(idx) {
                w.keys.remove(&key);
            }
        }
    }
}

/// Record a worker's structured `fail` frame. Failures are deterministic
/// (the simulation is a pure function of the spec), so a failed job is
/// terminal — rerunning it elsewhere would fail identically.
fn handle_fail(frame: &Json, idx: usize, shared: &Arc<CoordShared>) {
    let Some(id) = frame.get("job").and_then(Json::as_u64) else {
        return;
    };
    let error = error_text(frame).to_string();
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut workers = shared.workers.lock().expect("workers poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    if let Some(w) = workers.get_mut(idx) {
        w.leased.remove(&id);
    }
    if let Some(job) = jobs.map.get_mut(&id) {
        if matches!(
            job.state,
            FleetJobState::Leased { .. } | FleetJobState::Queued
        ) {
            let subscribers = job.sessions.clone();
            job.state = FleetJobState::Failed(error.clone());
            if let Some(w) = workers.get_mut(idx) {
                w.failed += 1;
            }
            jlog(
                shared,
                &Record::Failed {
                    id,
                    error: error.clone(),
                },
            );
            sessions.log_event(
                &subscribers,
                "failed",
                &[("job", Json::UInt(id)), ("error", Json::Str(error))],
            );
            settle_subscribers(&mut sessions, &subscribers);
        }
    }
}

/// Serve client verbs on this connection until EOF or drain. A `session`
/// request upgrades the connection to an event stream (see
/// [`session_stream`]); everything else is request/response.
fn client_session(
    first: &Json,
    mut reader: FrameReader<TcpStream>,
    mut writer: TcpStream,
    shared: &Arc<CoordShared>,
) {
    let mut request = first.clone();
    loop {
        if request.get("op").and_then(Json::as_str) == Some("session") {
            match session_attach(&request, shared) {
                Ok((sid, start, truncated)) => {
                    let ack = Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("session", Json::Str(sid.clone())),
                        ("from", Json::UInt(start)),
                        ("truncated", Json::Bool(truncated)),
                    ]);
                    if write_frame(&mut writer, &ack).is_err() {
                        return;
                    }
                    session_stream(&sid, start, &mut reader, &mut writer, shared);
                    jlog(
                        shared,
                        &Record::SessionDetach {
                            session: sid.clone(),
                        },
                    );
                    return;
                }
                Err(resp) => {
                    if write_frame(&mut writer, &resp).is_err() {
                        return;
                    }
                }
            }
        } else {
            let response = handle_client_request(&request, shared);
            if write_frame(&mut writer, &response).is_err() {
                return;
            }
        }
        request = loop {
            let Some(line) = next_request(&mut reader, &mut writer, shared) else {
                return;
            };
            match Json::parse(&line) {
                Ok(j) => break j,
                Err(e) => {
                    let bad = error_response(format!("bad request: {e}"));
                    if write_frame(&mut writer, &bad).is_err() {
                        return;
                    }
                }
            }
        };
    }
}

/// Resolve a `session` request: create a fresh session, or re-attach to an
/// existing one at the requested replay position. Returns
/// `(id, start_seq, truncated)`, or the error response to send.
fn session_attach(request: &Json, shared: &Arc<CoordShared>) -> Result<(String, u64, bool), Json> {
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    match request.get("id").and_then(Json::as_str) {
        None => {
            sessions.next += 1;
            let sid = format!("s-{}", sessions.next);
            sessions.map.insert(sid.clone(), Session::default());
            jlog(
                shared,
                &Record::SessionOpen {
                    session: sid.clone(),
                },
            );
            Ok((sid, 0, false))
        }
        Some(sid) => {
            let Some(s) = sessions.map.get(sid) else {
                return Err(error_response(format!("unknown session `{sid}`")));
            };
            let from = request.get("from").and_then(Json::as_u64).unwrap_or(0);
            // Events older than base_seq were truncated by the log cap;
            // the client learns it missed some and starts at the cut.
            let truncated = from < s.base_seq;
            Ok((
                sid.to_string(),
                from.max(s.base_seq).min(s.next_seq),
                truncated,
            ))
        }
    }
}

/// A live-only (never logged, no sequence number) queue heartbeat event.
fn depth_event(shared: &Arc<CoordShared>) -> Json {
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    let (queued, probing, running, _, _) = count_states(&jobs);
    Json::obj(vec![
        ("event", Json::Str("depth".to_string())),
        ("queue", Json::UInt(jobs.queue.len() as u64)),
        ("queued", Json::UInt(queued + probing)),
        ("running", Json::UInt(running)),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
    ])
}

/// Stream a session's events over this connection while still answering
/// interleaved requests (responses carry `"ok"`, events carry `"event"`).
/// Replays the log from `cursor`, then follows it live with queue-depth
/// heartbeats; returns when the client disconnects (the session and its
/// log survive for a later re-attach) or the coordinator finishes.
fn session_stream(
    sid: &str,
    mut cursor: u64,
    reader: &mut FrameReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Arc<CoordShared>,
) {
    let hb = Duration::from_millis(shared.opts.heartbeat_ms.max(100));
    let mut last_beat = Instant::now();
    let mut first_beat = true;
    loop {
        // Observe `finished` before draining the log: events are logged
        // before the flag is set, so finished + an empty drain means the
        // stream is complete.
        let finished = shared.finished.load(Ordering::SeqCst);
        let pending: Vec<Json> = {
            let sessions = shared.sessions.lock().expect("sessions poisoned");
            let Some(s) = sessions.map.get(sid) else {
                return;
            };
            if cursor < s.base_seq {
                cursor = s.base_seq;
            }
            let skip = (cursor - s.base_seq) as usize;
            let out: Vec<Json> = s.log.iter().skip(skip).cloned().collect();
            cursor = s.next_seq;
            out
        };
        for event in &pending {
            if write_frame(writer, event).is_err() {
                return;
            }
        }
        if first_beat || last_beat.elapsed() >= hb {
            first_beat = false;
            last_beat = Instant::now();
            if write_frame(writer, &depth_event(shared)).is_err() {
                return;
            }
        }
        if finished && pending.is_empty() {
            return;
        }
        match reader.next_frame() {
            Ok(line) => {
                let response = match Json::parse(&line) {
                    Ok(request) => handle_client_request(&request, shared),
                    Err(e) => error_response(format!("bad request: {e}")),
                };
                if write_frame(writer, &response).is_err() {
                    return;
                }
            }
            Err(FrameError::Timeout) => {}
            Err(e @ FrameError::TooLarge { .. }) => {
                let _ = write_frame(writer, &error_response(e.to_string()));
                return;
            }
            Err(_) => return,
        }
    }
}

fn handle_client_request(request: &Json, shared: &Arc<CoordShared>) -> Json {
    match request.get("op").and_then(Json::as_str) {
        Some("submit") => handle_submit(request, shared),
        Some("status") => handle_status(shared),
        Some("result") => handle_result(request, shared),
        // Destructive chaos-test verbs are opt-in: a production
        // coordinator refuses them with a structured error.
        Some("decommission") if !shared.opts.chaos_verbs => error_response("chaos verbs disabled"),
        Some("reset") if !shared.opts.chaos_verbs => error_response("chaos verbs disabled"),
        Some("decommission") => handle_decommission(request, shared),
        Some("reset") => handle_reset(shared),
        // A `session` frame inside an already-streaming connection (the
        // stream loop dispatches here) cannot re-upgrade.
        Some("session") => error_response("session already active on this connection"),
        Some("shutdown") => {
            shared.draining.store(true, Ordering::SeqCst);
            let pending = {
                let jobs = shared.jobs.lock().expect("jobs poisoned");
                jobs.queue.len()
            };
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("draining", Json::Bool(true)),
                ("pending", Json::UInt(pending as u64)),
            ])
        }
        Some(other) => error_response(format!(
            "unknown op `{other}` (expected submit, status, result, session, \
             decommission, reset, shutdown)"
        )),
        None => error_response("missing `op` field"),
    }
}

/// Administratively retire a live worker by name: exactly what a heartbeat
/// death does, but deterministic — chaos tests use it to kill a specific
/// replica holder without racing the failure detector.
fn handle_decommission(request: &Json, shared: &Arc<CoordShared>) -> Json {
    let Some(name) = request.get("worker").and_then(Json::as_str) else {
        return error_response("decommission needs a `worker` field");
    };
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut workers = shared.workers.lock().expect("workers poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    let Some(idx) = workers.iter().position(|w| w.alive && w.name == name) else {
        return error_response(format!("no live worker named `{name}`"));
    };
    mark_dead(
        shared,
        &mut jobs,
        &mut workers,
        &mut sessions,
        idx,
        DECOMMISSIONED,
    );
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("worker", Json::Str(name.to_string())),
    ])
}

/// Start a new measurement epoch on a warm fleet: clear the job table and
/// dedup index while keeping workers, sessions, counters, and — crucially
/// — the replica stores (`stored` keys), so the next sweep exercises the
/// replicated cache instead of the dedup index.
fn handle_reset(shared: &Arc<CoordShared>) -> Json {
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    if !jobs.all_terminal() {
        return error_response("reset requires every job to be terminal");
    }
    let cleared = jobs.map.len() as u64;
    jobs.map.clear();
    jobs.queue.clear();
    jobs.by_key.clear();
    jlog(shared, &Record::Reset);
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    for s in sessions.map.values_mut() {
        s.inflight = 0;
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("cleared", Json::UInt(cleared)),
    ])
}

fn handle_submit(request: &Json, shared: &Arc<CoordShared>) -> Json {
    if shared.draining.load(Ordering::SeqCst) {
        return error_response("coordinator is draining (shutdown requested)");
    }
    let spec = match parse_submit(request) {
        Ok(spec) => spec,
        Err(e) => return error_response(e),
    };
    let key = match spec.fingerprint() {
        Ok(fp) => fp.key(),
        Err(e) => return error_response(e.to_string()),
    };
    let workload = spec.workload.clone();
    let sid = request.get("session").and_then(Json::as_str);
    let mut jobs = shared.jobs.lock().expect("jobs poisoned");
    let mut sessions = shared.sessions.lock().expect("sessions poisoned");
    if let Some(sid) = sid {
        if !sessions.map.contains_key(sid) {
            return error_response(format!("unknown session `{sid}`"));
        }
    }
    // Dedup by content-addressed key: a resubmit of the same spec joins
    // the existing job (unless that job failed — a client retrying a
    // failure deserves a fresh attempt). A joining session still gets the
    // job's lifecycle events; a job already terminal replays its outcome
    // as synthetic events so the subscriber never waits on silence.
    if let Some(&existing) = jobs.by_key.get(&key) {
        if let Some(job) = jobs.map.get_mut(&existing) {
            if !matches!(job.state, FleetJobState::Failed(_)) {
                shared
                    .counters
                    .lock()
                    .expect("counters poisoned")
                    .dedup_hits += 1;
                jcount(shared, JCounter::DedupHits);
                if let Some(sid) = sid {
                    jlog(
                        shared,
                        &Record::Subscribe {
                            id: existing,
                            session: sid.to_string(),
                        },
                    );
                    let subscriber = [sid.to_string()];
                    sessions.log_event(
                        &subscriber,
                        "queued",
                        &[
                            ("job", Json::UInt(existing)),
                            ("workload", Json::Str(workload.clone())),
                            ("deduped", Json::Bool(true)),
                        ],
                    );
                    if let FleetJobState::Done(result) = &job.state {
                        sessions.log_event(
                            &subscriber,
                            "done",
                            &[
                                ("job", Json::UInt(existing)),
                                ("workload", Json::Str(workload)),
                                ("cached", Json::Bool(true)),
                                ("wall_ms", Json::Float(result.wall_ms)),
                                ("worker_wall_ms", Json::Float(result.worker_wall_ms)),
                                ("worker", Json::Str(result.worker.clone())),
                            ],
                        );
                    } else {
                        job.sessions.push(sid.to_string());
                        if let Some(s) = sessions.map.get_mut(sid) {
                            s.inflight += 1;
                        }
                    }
                }
                return Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("id", Json::UInt(existing)),
                    ("deduped", Json::Bool(true)),
                ]);
            }
        }
    }
    // Admission control: per-session inflight bound, then the global
    // queue bound. Both shed with a structured response so overloaded
    // clients can tell deliberate backpressure from failure.
    if let Some(sid) = sid {
        let cap = shared.opts.session_inflight_cap;
        let inflight = sessions.map.get(sid).map_or(0, |s| s.inflight);
        if cap > 0 && inflight >= cap {
            shared.counters.lock().expect("counters poisoned").sheds += 1;
            jcount(shared, JCounter::Sheds);
            return shed_response(format!(
                "session inflight cap reached ({inflight} inflight, cap {cap})"
            ));
        }
    }
    if jobs.queue.len() >= shared.opts.queue_cap {
        shared.counters.lock().expect("counters poisoned").sheds += 1;
        jcount(shared, JCounter::Sheds);
        return shed_response(format!(
            "{QUEUE_FULL} ({} pending, cap {})",
            jobs.queue.len(),
            shared.opts.queue_cap
        ));
    }
    jobs.next_id += 1;
    let id = jobs.next_id;
    jlog(
        shared,
        &Record::Submit {
            id,
            key,
            workload: workload.clone(),
            tiny: spec.tiny,
            sanitize: spec.cfg.sanitize,
            max_cycles: cycle_override(&spec),
            session: sid.map(str::to_string),
        },
    );
    jobs.map.insert(
        id,
        FleetJob {
            spec,
            key,
            state: FleetJobState::Queued,
            assigns: 0,
            last_worker: None,
            probe_rank: 0,
            probe_done: false,
            hold_until: None,
            sessions: sid.map(|s| vec![s.to_string()]).unwrap_or_default(),
        },
    );
    jobs.queue.push_back(id);
    jobs.by_key.insert(key, id);
    if let Some(sid) = sid {
        let subscriber = [sid.to_string()];
        sessions.log_event(
            &subscriber,
            "queued",
            &[
                ("job", Json::UInt(id)),
                ("workload", Json::Str(workload)),
                ("deduped", Json::Bool(false)),
            ],
        );
        if let Some(s) = sessions.map.get_mut(sid) {
            s.inflight += 1;
        }
    }
    // The ack promises durability: flush the Submit record before the
    // client can observe the job id.
    jsync(shared);
    Json::obj(vec![("ok", Json::Bool(true)), ("id", Json::UInt(id))])
}

fn count_states(jobs: &MutexGuard<'_, JobTable>) -> (u64, u64, u64, u64, u64) {
    let (mut queued, mut probing, mut running, mut done, mut failed) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for job in jobs.map.values() {
        match job.state {
            FleetJobState::Queued => queued += 1,
            FleetJobState::Probing { .. } => probing += 1,
            FleetJobState::Leased { .. } => running += 1,
            FleetJobState::Done(_) => done += 1,
            FleetJobState::Failed(_) => failed += 1,
        }
    }
    (queued, probing, running, done, failed)
}

fn handle_status(shared: &Arc<CoordShared>) -> Json {
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    let workers = shared.workers.lock().expect("workers poisoned");
    let (queued, probing, running, done, failed) = count_states(&jobs);
    // Replica convergence: a key is "full" when every member of its
    // current top-R rendezvous set holds it (per worker inventory).
    let replicas = shared.opts.replicas.max(1);
    let full_keys = jobs
        .stored
        .iter()
        .filter(|&&key| {
            let ranked = ranked_live(&workers, key);
            let targets: Vec<usize> = ranked.into_iter().take(replicas).collect();
            !targets.is_empty() && targets.iter().all(|&w| workers[w].keys.contains(&key))
        })
        .count() as u64;
    let replica_summary = Json::obj(vec![
        ("keys", Json::UInt(jobs.stored.len() as u64)),
        ("full", Json::UInt(full_keys)),
    ]);
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
    let sessions = shared.sessions.lock().expect("sessions poisoned");
    let session_count = sessions.map.len() as u64;
    drop(sessions);
    let c = shared.counters.lock().expect("counters poisoned").clone();
    let hits = c.primary_hits + c.read_through;
    let hit_rate = if hits + c.sims > 0 {
        hits as f64 / (hits + c.sims) as f64
    } else {
        0.0
    };
    let depth = shared.depth.lock().expect("depth poisoned");
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("queue_depth", Json::UInt(jobs.queue.len() as u64)),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::UInt(queued)),
                ("probing", Json::UInt(probing)),
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
                ("stores", Json::UInt(c.stores)),
                ("primary_hits", Json::UInt(c.primary_hits)),
                ("read_through", Json::UInt(c.read_through)),
                ("repairs", Json::UInt(c.repairs)),
                ("misses", Json::UInt(c.misses)),
                ("dedup_hits", Json::UInt(c.dedup_hits)),
                ("rebalances", Json::UInt(c.rebalances)),
                ("resumed", Json::UInt(c.resumed)),
                ("hit_rate", Json::Float(hit_rate)),
            ]),
        ),
        ("replicas", replica_summary),
        ("sheds", Json::UInt(c.sheds)),
        ("sessions", Json::UInt(session_count)),
        ("queue_depth_stats", depth.to_json()),
    ])
}

fn handle_result(request: &Json, shared: &Arc<CoordShared>) -> Json {
    let Some(id) = request.get("id").and_then(Json::as_u64) else {
        return error_response("result needs a numeric `id` field");
    };
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    let Some(job) = jobs.map.get(&id) else {
        return error_response(format!("no job with id {id}"));
    };
    let mut fields = vec![("ok", Json::Bool(true)), ("id", Json::UInt(id))];
    match &job.state {
        FleetJobState::Queued => fields.push(("state", Json::Str("queued".into()))),
        FleetJobState::Probing { .. } => fields.push(("state", Json::Str("probing".into()))),
        FleetJobState::Leased { .. } => fields.push(("state", Json::Str("running".into()))),
        FleetJobState::Failed(msg) => {
            fields.push(("state", Json::Str("failed".into())));
            fields.push(("error", Json::Str(msg.clone())));
        }
        FleetJobState::Done(result) => {
            let (hex, sum) = super::encode_stats_payload(&result.stats);
            fields.push(("state", Json::Str("done".into())));
            fields.push(("workload", Json::Str(job.spec.workload.clone())));
            fields.push(("cached", Json::Bool(result.cached)));
            fields.push(("cycles", Json::UInt(result.stats.cycles)));
            fields.push(("warp_insts", Json::UInt(result.stats.sm.warp_insts)));
            fields.push(("wall_ms", Json::Float(result.wall_ms)));
            fields.push(("worker_wall_ms", Json::Float(result.worker_wall_ms)));
            fields.push((
                "digest",
                match result.stats.digest {
                    Some(d) => Json::Str(format!("0x{d:016x}")),
                    None => Json::Null,
                },
            ));
            fields.push(("worker", Json::Str(result.worker.clone())));
            fields.push(("assigns", Json::UInt(job.assigns)));
            fields.push(("key", Json::Str(encode_key(job.key))));
            let workers = shared.workers.lock().expect("workers poisoned");
            let replicas = ranked_live(&workers, job.key)
                .into_iter()
                .take(shared.opts.replicas)
                .map(|i| Json::Str(workers[i].name.clone()))
                .collect();
            fields.push(("replicas", Json::Arr(replicas)));
            fields.push(("stats", Json::Str(hex)));
            fields.push(("sum", Json::Str(sum)));
        }
    }
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

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
