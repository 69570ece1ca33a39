//! The coordinator's state: one [`Fleet`] holding every table, one
//! method per job-table edge, and the one fold of the journal.
//!
//! Each edge — [`Fleet::submit`], `subscribe`, [`Fleet::lease`],
//! [`Fleet::reclaim`], [`Fleet::complete`], [`Fleet::fail`] — performs its
//! state change, its journal record, its session event, its counters, its
//! worker bookkeeping and its wake-up ([`Fleet::wake`]) exactly once;
//! handlers and the supervisor only decide *which* edge to take
//! (DESIGN.md §13 has the table). A finished job keeps its result as the
//! checksummed bytes the worker sent, plus their [`Summary`]; with a
//! journal the bytes live only in its `Done` record ([`Stats`]). Only this
//! module knows what a journal record means: [`Fleet::replay`] folds one
//! into the tables the edges write, and [`Fleet::compaction_records`]
//! writes the tables back out as records. Recovery rests on one ordering
//! rule, kept inside every edge: the journal record precedes the session
//! event, so the per-session watermark a replayed journal folds to never
//! falls below what that session's client saw. The property test at the
//! foot of this file recovers the journal cut at every edge boundary and
//! compares its compaction records with the live state's.
//!
//! Nothing here takes a lock or sees [`super::coordinator`]'s shared
//! handle: callers hold the one mutex and pass `&mut Fleet`, so a nested
//! lock cannot be written and the journal is innermost by construction.

use super::coordinator::{CoordinatorOptions, WORKER_DEAD};
use super::journal::{JCounter, Journal, Record, Recovered};
use super::Summary;
use crate::job::JobSpec;
use crate::proto::{error_response, shed_response, write_frame, QUEUE_FULL};
use gcl_sim::GpuConfig;
use gcl_stats::{Accumulator, Json};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::time::Instant;

/// Events a session's replay log retains; older events are truncated and
/// a late re-attach learns it missed some (`"truncated":true` in the ack).
const EVENT_LOG_CAP: usize = 8192;

/// A completed job's payload, as verified from a worker's `done` frame.
#[derive(Debug)]
pub(super) struct FleetResult {
    pub(super) stats: Stats,
    /// The checksum and the fields a `result` frame reports beside the
    /// bytes.
    pub(super) summary: Summary,
    pub(super) wall_ms: f64,
    /// Wall time measured on the worker that executed the job, including
    /// any stall injection — the fleet-side counterpart of the local
    /// manifest's wall column.
    pub(super) worker_wall_ms: f64,
    pub(super) cached: bool,
    pub(super) worker: String,
}

/// A finished job's statistics, as the wire bytes the worker sent. With a
/// journal they stay only in the journal's `Done` record, so the table of
/// a long run holds no payloads (`result` and compaction read them back);
/// without one, and after recovery, in memory.
#[derive(Debug)]
pub(super) enum Stats {
    Held(Box<[u8]>),
    /// The payload of the `Done` record at this journal byte offset.
    Journaled(u64),
}

impl FleetResult {
    /// The `Done` record of job `id`, whose result's wire bytes are `payload`.
    fn done_record(&self, id: u64, payload: Vec<u8>) -> Record {
        Record::Done {
            id,
            cached: self.cached,
            wall_ms: self.wall_ms,
            worker_wall_ms: self.worker_wall_ms,
            worker: self.worker.clone(),
            payload,
        }
    }
}

/// Lifecycle of one fleet job. `Queued::held_by` names the worker a
/// replayed lease went to: after recovery it may still be running the job.
/// The edges themselves always queue with `None`.
#[derive(Debug)]
pub(super) enum FleetJobState {
    Queued { held_by: Option<String> },
    Leased { worker: usize, deadline: Instant },
    Done(Box<FleetResult>),
    Failed(String),
}

pub(super) struct FleetJob {
    pub(super) spec: JobSpec,
    pub(super) key: u64,
    pub(super) state: FleetJobState,
    /// Times this job has been assigned (> 1 means it was reassigned).
    pub(super) assigns: u64,
    /// The worker that last held this job's lease. Rendezvous placement is
    /// deterministic per (key, worker), so without anti-affinity a
    /// reclaimed job would bounce back to the same straggler forever;
    /// assignment avoids this worker whenever any other candidate exists.
    pub(super) last_worker: Option<usize>,
    /// Sessions subscribed to this job's lifecycle events.
    pub(super) sessions: Vec<String>,
    /// Recovery grace: dispatch skips this job until the deadline, giving
    /// re-joining workers time to reclaim it via their `inventory` frame.
    pub(super) hold_until: Option<Instant>,
}

impl FleetJob {
    /// A just-submitted job, queued for dispatch.
    fn queued(spec: JobSpec, key: u64, sessions: Vec<String>) -> FleetJob {
        FleetJob {
            spec,
            key,
            state: FleetJobState::Queued { held_by: None },
            assigns: 0,
            last_worker: None,
            sessions,
            hold_until: None,
        }
    }

    /// The `Submit` record that recreates job `id`, with its first listed
    /// session as the submitter.
    fn submit_record(&self, id: u64) -> Record {
        Record::Submit {
            id,
            key: self.key,
            workload: self.spec.workload.clone(),
            tiny: self.spec.tiny,
            sanitize: self.spec.cfg.sanitize,
            max_cycles: cycle_override(&self.spec),
            session: self.sessions.first().cloned(),
        }
    }

    /// Not yet terminal: a worker's `done` or `fail` still settles it. That
    /// includes `Queued` — a reclaimed job's old holder may answer first.
    fn awaits_result(&self) -> bool {
        matches!(
            self.state,
            FleetJobState::Leased { .. } | FleetJobState::Queued { .. }
        )
    }
}

/// All jobs ever submitted, plus the dispatch queue and the cache-key
/// dedup index.
#[derive(Default)]
pub(super) struct JobTable {
    /// Every job by id; iteration runs in id order.
    pub(super) map: BTreeMap<u64, FleetJob>,
    /// Dispatch order; reclaimed jobs go to the *front* so recovery work
    /// is not starved by a deep queue.
    pub(super) queue: VecDeque<u64>,
    /// Cache key → job id: a resubmitted spec joins the existing job.
    pub(super) by_key: HashMap<u64, u64>,
    pub(super) next_id: u64,
}

impl JobTable {
    pub(super) fn all_terminal(&self) -> bool {
        self.map.values().all(|j| !j.awaits_result())
    }

    /// Jobs per state: `(queued, running, done, failed)`.
    pub(super) fn count_states(&self) -> (u64, u64, u64, u64) {
        let (mut queued, mut running, mut done, mut failed) = (0u64, 0u64, 0u64, 0u64);
        for job in self.map.values() {
            match job.state {
                FleetJobState::Queued { .. } => queued += 1,
                FleetJobState::Leased { .. } => running += 1,
                FleetJobState::Done(_) => done += 1,
                FleetJobState::Failed(_) => failed += 1,
            }
        }
        (queued, running, done, failed)
    }
}

/// One registered worker, live or dead.
pub(super) struct WorkerEntry {
    pub(super) name: String,
    pub(super) slots: usize,
    /// Write half of the worker's connection; `None` once dead.
    pub(super) writer: Option<TcpStream>,
    pub(super) alive: bool,
    pub(super) last_pong: Instant,
    pub(super) last_ping: Instant,
    pub(super) ping_seq: u64,
    /// Job ids currently leased to this worker.
    pub(super) leased: HashSet<u64>,
    // Outcome counters for the drain-time table.
    pub(super) done: u64,
    pub(super) failed: u64,
    pub(super) corrupt: u64,
    pub(super) reassigned: u64,
}

impl WorkerEntry {
    pub(super) fn new(name: String, slots: usize, writer: TcpStream) -> WorkerEntry {
        let now = Instant::now();
        WorkerEntry {
            name,
            slots,
            writer: Some(writer),
            alive: true,
            last_pong: now,
            last_ping: now,
            ping_seq: 0,
            leased: HashSet::new(),
            done: 0,
            failed: 0,
            corrupt: 0,
            reassigned: 0,
        }
    }
}

/// One client session: a durable event log and an inflight count for
/// admission control. Survives the connection that created it.
#[derive(Debug, Default)]
pub(super) struct Session {
    /// Replay log of rendered event frames (no newline); `front()` has
    /// sequence number `base_seq`. Rendered once, when logged: a `Json`
    /// tree costs several times the bytes, and every job logs three.
    pub(super) log: VecDeque<Box<str>>,
    pub(super) base_seq: u64,
    pub(super) next_seq: u64,
    /// Submitted-but-not-terminal jobs attributed to this session.
    pub(super) inflight: u64,
}

#[derive(Default)]
pub(super) struct SessionTable {
    /// Every session by id; iteration runs in id order.
    pub(super) map: BTreeMap<String, Session>,
    pub(super) next: u64,
}

/// The fields of one session event, after `event` and `seq`.
type Fields = Vec<(&'static str, Json)>;

fn queued_fields(id: u64, workload: &str, deduped: bool) -> Fields {
    vec![
        ("job", Json::UInt(id)),
        ("workload", Json::Str(workload.to_string())),
        ("deduped", Json::Bool(deduped)),
    ]
}

fn done_fields(id: u64, workload: &str, cached: bool, result: &FleetResult) -> Fields {
    vec![
        ("job", Json::UInt(id)),
        ("workload", Json::Str(workload.to_string())),
        ("cached", Json::Bool(cached)),
        ("wall_ms", Json::Float(result.wall_ms)),
        ("worker_wall_ms", Json::Float(result.worker_wall_ms)),
        ("worker", Json::Str(result.worker.clone())),
    ]
}

fn failed_fields(id: u64, error: &str) -> Fields {
    vec![
        ("job", Json::UInt(id)),
        ("error", Json::Str(error.to_string())),
    ]
}

impl SessionTable {
    /// Append one event (with a per-session sequence number) to every
    /// subscribed session's log, truncating from the front at the cap.
    fn log_event(&mut self, subscribers: &[String], kind: &str, fields: &Fields) {
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
            pairs.extend(fields.iter().cloned());
            s.log
                .push_back(Json::obj(pairs).render_compact().into_boxed_str());
            while s.log.len() > EVENT_LOG_CAP {
                s.log.pop_front();
                s.base_seq += 1;
            }
        }
    }

    /// Apply `f` to every subscriber that is a known session.
    fn each(&mut self, subscribers: &[String], mut f: impl FnMut(&mut Session)) {
        for sid in subscribers {
            if let Some(s) = self.map.get_mut(sid) {
                f(s);
            }
        }
    }

    /// Advance every subscriber's numbering by `events` without logging
    /// them: replay only needs the watermark.
    fn advance(&mut self, subscribers: &[String], events: u64) {
        self.each(subscribers, |s| s.next_seq += events);
    }

    /// Count one more unfinished job against every subscriber.
    fn track(&mut self, subscribers: &[String]) {
        self.each(subscribers, |s| s.inflight += 1);
    }

    /// Decrement the inflight count of every session subscribed to a job
    /// that just reached a terminal state.
    fn settle(&mut self, subscribers: &[String]) {
        self.each(subscribers, |s| s.inflight = s.inflight.saturating_sub(1));
    }
}

/// A worker's checksum-verified `done` frame: the verified bytes, and
/// their summary for the job table.
pub(super) struct Payload {
    pub(super) bytes: Vec<u8>,
    pub(super) summary: Summary,
    pub(super) wall_ms: f64,
    pub(super) worker_wall_ms: f64,
    /// The worker served the job from its own result cache.
    pub(super) cached: bool,
}

/// The default configuration of a job's scale.
fn scale_config(tiny: bool) -> GpuConfig {
    if tiny {
        GpuConfig::small()
    } else {
        GpuConfig::fermi()
    }
}

/// The spec's cycle budget when it is not its scale's default (loadgen's
/// cache-busting variants). It must survive the trip to a worker and
/// through the journal, or the digest would differ.
pub(super) fn cycle_override(spec: &JobSpec) -> Option<u64> {
    let default = scale_config(spec.tiny).max_cycles;
    (spec.cfg.max_cycles != default).then_some(spec.cfg.max_cycles)
}

/// Fresh simulations, deduplicated submits, structured sheds, and leases
/// resumed from a re-joining worker's inventory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(super) struct Counters {
    pub(super) sims: u64,
    pub(super) dedup_hits: u64,
    pub(super) sheds: u64,
    pub(super) resumed: u64,
}

impl Counters {
    fn bump(&mut self, c: JCounter, delta: u64) {
        let slot = match c {
            JCounter::DedupHits => &mut self.dedup_hits,
            JCounter::Sheds => &mut self.sheds,
            JCounter::Resumed => &mut self.resumed,
        };
        *slot = slot.saturating_add(delta);
    }
}

/// Everything the coordinator knows. The accept loop, the session
/// handlers and the supervisor share it behind one mutex.
#[derive(Default)]
pub(super) struct Fleet {
    pub(super) jobs: JobTable,
    pub(super) workers: Vec<WorkerEntry>,
    pub(super) sessions: SessionTable,
    /// Fleet-wide cache and admission counters, exposed by `status`,
    /// asserted on by the chaos tests (recomputation accounting) and
    /// carried across a restart by the journal.
    pub(super) counters: Counters,
    /// Queue-depth samples, one per 20 ms supervisor upkeep.
    pub(super) depth: Accumulator,
    /// Write-ahead journal, when `--journal` is set.
    pub(super) journal: Option<Journal>,
    /// Set by every edge that gives another coordinator thread work: a
    /// queued job or a freed slot for dispatch, a logged event for a
    /// session stream, a worker to assign to. The coordinator's lock guard
    /// clears it and wakes those threads when it releases the lock.
    pub(super) wake: bool,
}

impl Fleet {
    /// Append one record to the journal (no-op without `--journal`) and
    /// return the byte offset it starts at. Append failures are warned
    /// about, never fatal: the fleet keeps serving and the journal simply
    /// ends at its last good record.
    pub(super) fn log(&mut self, rec: &Record) -> Option<u64> {
        let journal = self.journal.as_mut()?;
        let at = journal.bytes();
        match journal.append(rec) {
            Ok(()) => Some(at),
            Err(e) => {
                eprintln!("warning: {e}");
                None
            }
        }
    }

    /// The wire bytes of finished job `result`'s statistics, read back from
    /// the journal when [`Fleet::complete`] left them there.
    pub(super) fn payload<'a>(&self, result: &'a FleetResult) -> Result<Cow<'a, [u8]>, String> {
        let at = match &result.stats {
            Stats::Held(bytes) => return Ok(Cow::Borrowed(bytes)),
            Stats::Journaled(at) => *at,
        };
        let journal = self.journal.as_ref().ok_or("the journal is gone")?;
        match journal.read_at(at).map_err(|e| e.to_string())? {
            Record::Done { payload, .. } => Ok(Cow::Owned(payload)),
            _ => Err(format!("journal byte {at} holds no result")),
        }
    }

    /// Flush batched journal appends (fsync): in the supervisor's 20 ms
    /// upkeep, and after accepting a submit.
    pub(super) fn sync(&mut self) {
        if let Some(journal) = &mut self.journal {
            if let Err(e) = journal.sync() {
                eprintln!("warning: {e}");
            }
        }
    }

    /// Advance a journaled counter: the record and the live total move
    /// together, so they cannot drift.
    pub(super) fn bump(&mut self, counter: JCounter) {
        self.log(&Record::Counter { counter, delta: 1 });
        self.counters.bump(counter, 1);
    }

    /// Create a fresh session, journaled so it outlives a restart.
    pub(super) fn open_session(&mut self) -> String {
        self.sessions.next += 1;
        let sid = format!("s-{}", self.sessions.next);
        self.sessions.map.insert(sid.clone(), Session::default());
        self.log(&Record::SessionOpen {
            session: sid.clone(),
        });
        sid
    }

    /// Edge `submit`: admit `spec` as a new queued job, or join the job
    /// that already answers for `key`. Returns `(id, deduped)`, or the
    /// refusal to send back.
    pub(super) fn submit(
        &mut self,
        opts: &CoordinatorOptions,
        spec: JobSpec,
        key: u64,
        sid: Option<&str>,
    ) -> Result<(u64, bool), Json> {
        if let Some(sid) = sid {
            if !self.sessions.map.contains_key(sid) {
                return Err(error_response(format!("unknown session `{sid}`")));
            }
        }
        // Dedup by content-addressed key: a resubmit of the same spec joins
        // the existing job (unless that job failed — a client retrying a
        // failure deserves a fresh attempt).
        if let Some(&existing) = self.jobs.by_key.get(&key) {
            let joinable = |j: &FleetJob| !matches!(j.state, FleetJobState::Failed(_));
            if self.jobs.map.get(&existing).is_some_and(joinable) {
                self.bump(JCounter::DedupHits);
                if let Some(sid) = sid {
                    self.subscribe(existing, sid);
                }
                return Ok((existing, true));
            }
        }
        // Admission control: per-session inflight bound, then the global
        // queue bound. Both shed with a structured response so overloaded
        // clients can tell deliberate backpressure from failure.
        if let Some(sid) = sid {
            let cap = opts.session_inflight_cap;
            let inflight = self.sessions.map.get(sid).map_or(0, |s| s.inflight);
            if cap > 0 && inflight >= cap {
                self.bump(JCounter::Sheds);
                return Err(shed_response(format!(
                    "session inflight cap reached ({inflight} inflight, cap {cap})"
                )));
            }
        }
        if self.jobs.queue.len() >= opts.queue_cap {
            self.bump(JCounter::Sheds);
            return Err(shed_response(format!(
                "{QUEUE_FULL} ({} pending, cap {})",
                self.jobs.queue.len(),
                opts.queue_cap
            )));
        }
        self.jobs.next_id += 1;
        let id = self.jobs.next_id;
        let job = FleetJob::queued(spec, key, sid.map(str::to_string).into_iter().collect());
        self.log(&job.submit_record(id));
        let queued = queued_fields(id, &job.spec.workload, false);
        self.sessions.log_event(&job.sessions, "queued", &queued);
        self.sessions.track(&job.sessions);
        self.jobs.map.insert(id, job);
        self.jobs.queue.push_back(id);
        self.jobs.by_key.insert(key, id);
        self.wake = true;
        // The ack promises durability: flush the Submit record before the
        // client can observe the job id.
        self.sync();
        Ok((id, false))
    }

    /// Edge `subscribe`: session `sid` joins existing job `id`. It gets
    /// the job's lifecycle events from here on; a job already done replays
    /// its outcome as a synthetic event so the subscriber never waits on
    /// silence.
    fn subscribe(&mut self, id: u64, sid: &str) {
        let subscriber = [sid.to_string()];
        self.log(&Record::Subscribe {
            id,
            session: sid.to_string(),
        });
        self.wake = true;
        let job = self.jobs.map.get_mut(&id).expect("job exists");
        let workload = &job.spec.workload;
        let queued = queued_fields(id, workload, true);
        self.sessions.log_event(&subscriber, "queued", &queued);
        if let FleetJobState::Done(result) = &job.state {
            let done = done_fields(id, workload, true, result);
            self.sessions.log_event(&subscriber, "done", &done);
            // Listed once, so a recovery replays the outcome to it too.
            if !job.sessions.contains(&subscriber[0]) {
                job.sessions.extend(subscriber);
            }
        } else {
            self.sessions.track(&subscriber);
            job.sessions.extend(subscriber);
        }
    }

    /// Edge `lease`: queued job `id` is now running at `worker` until
    /// `deadline`. `resumed` marks a lease a re-joining worker's inventory
    /// re-announced after recovery — the job was assigned before the crash.
    pub(super) fn lease(&mut self, id: u64, worker: usize, resumed: bool, deadline: Instant) {
        let name = self.workers[worker].name.clone();
        self.workers[worker].leased.insert(id);
        self.log(&Record::Lease {
            id,
            worker: name.clone(),
        });
        let mut fields = vec![("job", Json::UInt(id)), ("worker", Json::Str(name))];
        if resumed {
            self.bump(JCounter::Resumed);
            fields.push(("resumed", Json::Bool(true)));
        }
        let job = self.jobs.map.get_mut(&id).expect("job exists");
        job.assigns = if resumed {
            job.assigns.max(1)
        } else {
            job.assigns + 1
        };
        job.last_worker = Some(worker);
        job.hold_until = None;
        job.state = FleetJobState::Leased { worker, deadline };
        self.sessions.log_event(&job.sessions, "leased", &fields);
        self.wake = true;
    }

    /// Edge `reclaim`: `worker` loses job `id` for `reason` (its death,
    /// the lease deadline, a corrupt result). The job returns to the queue
    /// front — unless a late result already made it terminal, in which
    /// case only the audit record and the event remain.
    pub(super) fn reclaim(&mut self, id: u64, worker: usize, reason: &str) {
        self.workers[worker].leased.remove(&id);
        self.workers[worker].reassigned += 1;
        self.log(&Record::Reclaim {
            id,
            reason: reason.to_string(),
        });
        self.wake = true;
        let Some(job) = self.jobs.map.get_mut(&id) else {
            return;
        };
        let fields = vec![
            ("job", Json::UInt(id)),
            ("reason", Json::Str(reason.to_string())),
        ];
        self.sessions
            .log_event(&job.sessions, "reassigned", &fields);
        if matches!(job.state, FleetJobState::Leased { .. }) {
            job.state = FleetJobState::Queued { held_by: None };
            self.jobs.queue.push_front(id);
        }
    }

    /// Edge `complete`: job `id` is done with the verified `payload` that
    /// `worker` delivered. First result wins; a duplicate from a reassigned
    /// job carries identical bytes (the run is a pure function of the
    /// spec), so dropping it is sound. A job requeued by a pessimistic
    /// deadline leaves a stale queue entry that dispatch skips lazily.
    pub(super) fn complete(&mut self, id: u64, worker: usize, payload: Payload) {
        let w = &mut self.workers[worker];
        w.leased.remove(&id);
        if !self.jobs.map.get(&id).is_some_and(FleetJob::awaits_result) {
            return;
        }
        w.done += 1;
        let mut result = FleetResult {
            stats: Stats::Held(payload.bytes.into_boxed_slice()),
            summary: payload.summary,
            wall_ms: payload.wall_ms,
            worker_wall_ms: payload.worker_wall_ms,
            cached: payload.cached,
            worker: w.name.clone(),
        };
        // With a journal the bytes move to the `Done` record; a failed
        // append leaves them held here.
        if let (Some(_), Stats::Held(bytes)) = (&self.journal, &result.stats) {
            if let Some(at) = self.log(&result.done_record(id, bytes.to_vec())) {
                result.stats = Stats::Journaled(at);
            }
        }
        if !result.cached {
            self.counters.sims += 1;
        }
        let job = self.jobs.map.get_mut(&id).expect("checked above");
        let done = done_fields(id, &job.spec.workload, result.cached, &result);
        self.sessions.log_event(&job.sessions, "done", &done);
        self.sessions.settle(&job.sessions);
        job.state = FleetJobState::Done(Box::new(result));
        self.wake = true;
    }

    /// Edge `fail`: the leased worker reported a structured failure.
    /// Failures are deterministic (the simulation is a pure function of the
    /// spec), so a failed job is terminal — rerunning it elsewhere would
    /// fail identically.
    pub(super) fn fail(&mut self, id: u64, worker: usize, error: &str) {
        self.workers[worker].leased.remove(&id);
        if !self.jobs.map.get(&id).is_some_and(FleetJob::awaits_result) {
            return;
        }
        self.workers[worker].failed += 1;
        self.log(&Record::Failed {
            id,
            error: error.to_string(),
        });
        let job = self.jobs.map.get_mut(&id).expect("checked above");
        job.state = FleetJobState::Failed(error.to_string());
        let failed = failed_fields(id, error);
        self.sessions.log_event(&job.sessions, "failed", &failed);
        self.sessions.settle(&job.sessions);
        self.wake = true;
    }

    /// Register a worker that just joined; returns its index.
    pub(super) fn join(&mut self, worker: WorkerEntry) -> usize {
        self.workers.push(worker);
        self.wake = true;
        self.workers.len() - 1
    }

    /// Write one frame to worker `idx`; a worker that cannot be written to
    /// is buried. Returns whether the frame went out.
    pub(super) fn send(&mut self, idx: usize, frame: &Json) -> bool {
        let sent = match self.workers[idx].writer.as_mut() {
            Some(writer) => write_frame(writer, frame).is_ok(),
            None => false,
        };
        if !sent {
            self.mark_dead(idx, WORKER_DEAD);
        }
        sent
    }

    /// Declare worker `idx` dead for `reason`: tear down its socket and
    /// reclaim every lease it held.
    pub(super) fn mark_dead(&mut self, idx: usize, reason: &str) {
        let w = &mut self.workers[idx];
        if !w.alive {
            return;
        }
        w.alive = false;
        if let Some(writer) = w.writer.take() {
            let _ = writer.shutdown(Shutdown::Both);
        }
        let leases: Vec<u64> = w.leased.drain().collect();
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
            self.reclaim(id, idx, reason);
        }
    }

    /// One batched fsync per 20 ms supervisor upkeep, and compaction once
    /// the file outgrows `compact_bytes` and has doubled since the last
    /// one. Both run under the lock, so this keeps its cadence and never
    /// runs once per wake-up.
    pub(super) fn journal_upkeep(&mut self, compact_bytes: u64) {
        if let Some(before) = (self.journal.as_ref())
            .filter(|j| j.due(compact_bytes))
            .map(Journal::bytes)
        {
            match self.compact() {
                Ok(after) => eprintln!("fleet: journal compacted ({before} -> {after} bytes)"),
                Err(e) => eprintln!("warning: journal compaction failed: {e}"),
            }
        }
        self.sync();
    }

    /// Replace the journal with [`Fleet::compaction_records`], and point
    /// every finished job at its `Done` record's place in the replacement
    /// (a recovered result held in memory moves there too). Returns the
    /// new size.
    fn compact(&mut self) -> Result<u64, String> {
        let records = self.compaction_records()?;
        let journal = self.journal.as_mut().expect("compaction needs a journal");
        let placed = journal.compact(&records).map_err(|e| e.to_string())?;
        let after = journal.bytes();
        for (rec, at) in records.iter().zip(placed) {
            let Record::Done { id, .. } = rec else {
                continue;
            };
            if let Some(FleetJobState::Done(result)) =
                self.jobs.map.get_mut(id).map(|j| &mut j.state)
            {
                result.stats = Stats::Journaled(at);
            }
        }
        Ok(after)
    }

    /// The durable state as ordinary records, for compaction: every
    /// session, every job in id order (its submit, its further listings,
    /// then its lease or its outcome), the counter totals, and last each
    /// session's exact watermark. `sims` is left to the `Done` records.
    ///
    /// # Errors
    ///
    /// A result the journal should hold cannot be read back.
    pub(super) fn compaction_records(&self) -> Result<Vec<Record>, String> {
        let mut out: Vec<Record> = (self.sessions.map.keys())
            .map(|sid| Record::SessionOpen {
                session: sid.clone(),
            })
            .collect();
        for (&id, job) in &self.jobs.map {
            out.push(job.submit_record(id));
            out.extend(job.sessions.iter().skip(1).map(|sid| Record::Subscribe {
                id,
                session: sid.clone(),
            }));
            let lease = |worker: &String| Record::Lease {
                id,
                worker: worker.clone(),
            };
            out.extend(match &job.state {
                FleetJobState::Queued { held_by } => held_by.as_ref().map(lease),
                FleetJobState::Leased { worker, .. } => Some(lease(&self.workers[*worker].name)),
                FleetJobState::Done(result) => {
                    Some(result.done_record(id, self.payload(result)?.into_owned()))
                }
                FleetJobState::Failed(error) => Some(Record::Failed {
                    id,
                    error: error.clone(),
                }),
            });
        }
        let c = &self.counters;
        let totals = [
            (JCounter::DedupHits, c.dedup_hits),
            (JCounter::Sheds, c.sheds),
            (JCounter::Resumed, c.resumed),
        ];
        out.extend(totals.map(|(counter, delta)| Record::Counter { counter, delta }));
        out.extend(self.session_seqs());
        Ok(out)
    }

    /// One `SessionSeq` per session, carrying its next sequence number.
    fn session_seqs(&self) -> Vec<Record> {
        let seq = |(sid, s): (&String, &Session)| Record::SessionSeq {
            session: sid.clone(),
            next_seq: s.next_seq,
        };
        self.sessions.map.iter().map(seq).collect()
    }

    /// The one fold: apply journaled record `rec` to the tables, journaling
    /// nothing and logging no event. A replayed lease leaves its job queued,
    /// `held_by` the worker it names. Watermarks count the events each
    /// record delivered, rounding up where it does not say: too high costs
    /// a re-attach its `truncated` flag, too low would skip events.
    pub(super) fn replay(&mut self, rec: Record) {
        match rec {
            Record::Submit {
                id,
                key,
                workload,
                tiny,
                sanitize,
                max_cycles,
                session,
            } => {
                let mut cfg = scale_config(tiny);
                cfg.sanitize = sanitize;
                cfg.max_cycles = max_cycles.unwrap_or(cfg.max_cycles);
                let sessions: Vec<String> = session.into_iter().collect();
                // The submitter saw one "queued" event.
                self.sessions.advance(&sessions, 1);
                self.jobs.next_id = self.jobs.next_id.max(id);
                self.jobs.by_key.insert(key, id);
                let job = FleetJob::queued(JobSpec::new(workload, tiny, cfg), key, sessions);
                self.jobs.map.insert(id, job);
            }
            Record::Subscribe { id, session } => {
                // A dedup join delivers "queued" and, for a done job,
                // "done": count two either way.
                self.sessions.advance(std::slice::from_ref(&session), 2);
                if let Some(job) = self.jobs.map.get_mut(&id) {
                    // A done job lists a session once, as `subscribe` does.
                    let done = matches!(job.state, FleetJobState::Done(_));
                    if !done || !job.sessions.contains(&session) {
                        job.sessions.push(session);
                    }
                }
            }
            Record::Lease { id, worker } => self.replay_event(id, |state| {
                if let FleetJobState::Queued { held_by } = state {
                    *held_by = Some(worker);
                }
            }),
            Record::Reclaim { id, .. } => self.replay_event(id, |state| {
                if let FleetJobState::Queued { held_by } = state {
                    *held_by = None;
                }
            }),
            Record::Done {
                id,
                cached,
                wall_ms,
                worker_wall_ms,
                worker,
                payload,
            } => {
                self.counters.sims += u64::from(!cached);
                // A payload the journal preserved but this build cannot
                // decode: recompute rather than refuse.
                let outcome = match Summary::of_payload(&payload) {
                    Ok(summary) => FleetJobState::Done(Box::new(FleetResult {
                        stats: Stats::Held(payload.into_boxed_slice()),
                        summary,
                        wall_ms,
                        worker_wall_ms,
                        cached,
                        worker,
                    })),
                    Err(_) => FleetJobState::Queued { held_by: None },
                };
                self.replay_event(id, |state| *state = outcome);
            }
            Record::Failed { id, error } => {
                self.replay_event(id, |state| *state = FleetJobState::Failed(error));
            }
            Record::SessionOpen { session } => {
                if let Some(n) = session.strip_prefix("s-").and_then(|d| d.parse().ok()) {
                    self.sessions.next = self.sessions.next.max(n);
                }
                self.sessions.map.entry(session).or_default();
            }
            // Sessions stay resumable after the client detaches; the
            // record is an audit line, not a deletion.
            Record::SessionDetach { .. } => {}
            Record::Counter { counter, delta } => self.counters.bump(counter, delta),
            Record::SessionSeq { session, next_seq } => {
                if let Some(s) = self.sessions.map.get_mut(&session) {
                    s.next_seq = next_seq;
                }
            }
        }
    }

    /// Replay one lifecycle event of job `id`: `change` its state, and
    /// count the event once per listed session.
    fn replay_event(&mut self, id: u64, change: impl FnOnce(&mut FleetJobState)) {
        if let Some(job) = self.jobs.map.get_mut(&id) {
            change(&mut job.state);
            self.sessions.advance(&job.sessions, 1);
        }
    }

    /// Rebuild the tables from a journal's valid prefix.
    ///
    /// Recovered sessions restart their event numbering at the replayed
    /// watermark, so any cursor a surviving client holds is ≤ `base_seq`.
    /// Each job replays its lifecycle as synthetic events ("queued" plus a
    /// terminal event if it has one); non-terminal jobs are requeued in id
    /// order on hold until `hold_until`, so re-joining workers can resume
    /// still-running leases via `inventory`. The watermarks those synthetic
    /// events moved are journaled, so a later recovery starts past them.
    pub(super) fn recover(&mut self, rec: Recovered, hold_until: Instant) {
        rec.log.into_iter().for_each(|record| self.replay(record));
        for s in self.sessions.map.values_mut() {
            s.base_seq = s.next_seq;
        }
        let mut resumable = 0u64;
        for (&id, job) in &mut self.jobs.map {
            let held = matches!(job.state, FleetJobState::Queued { held_by: Some(_) });
            resumable += u64::from(held);
            let mut queued = queued_fields(id, &job.spec.workload, false);
            queued.push(("recovered", Json::Bool(true)));
            self.sessions.log_event(&job.sessions, "queued", &queued);
            let terminal = match &job.state {
                FleetJobState::Done(result) => Some((
                    "done",
                    done_fields(id, &job.spec.workload, result.cached, result),
                )),
                FleetJobState::Failed(msg) => Some(("failed", failed_fields(id, msg))),
                _ => None,
            };
            match &terminal {
                Some((kind, fields)) => self.sessions.log_event(&job.sessions, kind, fields),
                None => {
                    self.sessions.track(&job.sessions);
                    self.jobs.queue.push_back(id);
                    job.hold_until = Some(hold_until);
                }
            }
            job.assigns = u64::from(terminal.is_some() || held);
        }
        for seq in self.session_seqs() {
            self.log(&seq);
        }
        self.sync();
        let (jobs, pending) = (self.jobs.map.len(), self.jobs.queue.len());
        let torn = if rec.truncated {
            " — torn tail truncated"
        } else {
            ""
        };
        eprintln!(
            "fleet: recovered {} record(s): {jobs} job(s) ({pending} pending, {resumable} \
             resumable), {} session(s){torn}",
            rec.records,
            self.sessions.map.len(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{encode_stats_payload, verify_stats_payload};
    use gcl_rng::{cases, Rng};
    use gcl_sim::LaunchStats;
    use std::net::TcpListener;

    /// Register a worker over a real loopback socket; the test keeps the
    /// peer end open (no edge writes to it).
    fn join(fleet: &mut Fleet, listener: &TcpListener, peers: &mut Vec<TcpStream>) {
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (peer, _) = listener.accept().unwrap();
        peers.push(peer);
        let name = format!("w{}", fleet.workers.len());
        fleet.join(WorkerEntry::new(name, 2, writer));
    }

    /// Ids (ascending, so a seed replays) of the jobs satisfying `pred`.
    fn jobs_where(fleet: &Fleet, pred: impl Fn(&FleetJob) -> bool) -> Vec<u64> {
        let jobs = fleet.jobs.map.iter().filter(|(_, j)| pred(j));
        jobs.map(|(id, _)| *id).collect()
    }

    fn alive(fleet: &Fleet) -> Vec<usize> {
        (0..fleet.workers.len())
            .filter(|w| fleet.workers[*w].alive)
            .collect()
    }

    /// One random legal edge; returns what it did, for the failure message.
    fn step(
        fleet: &mut Fleet,
        opts: &CoordinatorOptions,
        sessions: &[String],
        rng: &mut Rng,
        listener: &TcpListener,
        peers: &mut Vec<TcpStream>,
    ) -> String {
        let far = Instant::now() + std::time::Duration::from_secs(3600);
        let queued = jobs_where(fleet, |j| matches!(j.state, FleetJobState::Queued { .. }));
        let leased = jobs_where(fleet, |j| matches!(j.state, FleetJobState::Leased { .. }));
        let held = jobs_where(fleet, |j| j.last_worker.is_some());
        let live = alive(fleet);
        let (hex, sum) = {
            let stats = LaunchStats {
                cycles: rng.next_u64() % 1_000,
                ..LaunchStats::default()
            };
            encode_stats_payload(&stats)
        };
        let (bytes, summary) = verify_stats_payload(&hex, &sum).unwrap();
        let payload = Payload {
            bytes,
            summary,
            wall_ms: 1.5,
            worker_wall_ms: 2.5,
            cached: rng.chance(0.2),
        };
        match rng.u32_below(10) {
            0 | 1 if !queued.is_empty() && !live.is_empty() => {
                let (id, w) = (*rng.pick(&queued), *rng.pick(&live));
                // Off the dispatch queue, the way `dispatch` pops it.
                fleet.jobs.queue.retain(|q| *q != id);
                let resumed = rng.chance(0.2);
                fleet.lease(id, w, resumed, far);
                format!("lease {id} to {w} resumed {resumed}")
            }
            2 if !leased.is_empty() => {
                let id = *rng.pick(&leased);
                let FleetJobState::Leased { worker, .. } = fleet.jobs.map[&id].state else {
                    unreachable!()
                };
                fleet.reclaim(id, worker, "lease expired");
                format!("lease on {id} expires at {worker}")
            }
            // A frame from the lease holder — or a late one from whoever
            // held the job before it was reclaimed or finished elsewhere.
            3..=5 if !held.is_empty() => {
                let id = *rng.pick(&held);
                let worker = fleet.jobs.map[&id].last_worker.unwrap();
                match rng.u32_below(6) {
                    0 => {
                        fleet.fail(id, worker, "boom");
                        format!("fail {id} at {worker}")
                    }
                    1 => {
                        fleet.workers[worker].corrupt += 1;
                        fleet.reclaim(id, worker, "corrupt result");
                        format!("corrupt done {id} from {worker}")
                    }
                    _ => {
                        fleet.complete(id, worker, payload);
                        format!("done {id} from {worker}")
                    }
                }
            }
            6 if live.len() > 1 => {
                let w = *rng.pick(&live);
                fleet.mark_dead(w, WORKER_DEAD);
                format!("worker {w} dies")
            }
            7 if live.len() < 4 => {
                join(fleet, listener, peers);
                "worker joins".to_string()
            }
            // submit / dedup-subscribe / shed: six keys, with or without a
            // session, so resubmits meet queued, running, done and failed
            // jobs, from the session that submitted them and from the other.
            _ => {
                let key = u64::from(rng.u32_below(6));
                let mut cfg = GpuConfig::small();
                cfg.max_cycles += key;
                let sid = rng.chance(0.7).then(|| rng.pick(sessions).as_str());
                let r = fleet.submit(opts, JobSpec::new("bfs", true, cfg), key, sid);
                format!(
                    "submit key {key} sid {sid:?} -> {:?}",
                    r.map_err(|e| e.to_string())
                )
            }
        }
    }

    /// What the live fleet was at an edge boundary: its compaction records,
    /// and the totals those leave to be re-derived.
    type Noted = (Vec<Record>, Counters, u64, u64);

    fn note(fleet: &Fleet) -> Noted {
        let totals = (fleet.counters, fleet.jobs.next_id, fleet.sessions.next);
        let records = fleet.compaction_records().expect("live records");
        (records, totals.0, totals.1, totals.2)
    }

    /// A fresh fleet recovered from `log`.
    fn recovered(log: Vec<Record>) -> Fleet {
        let mut fleet = Fleet::default();
        let records = log.len() as u64;
        let rec = Recovered {
            log,
            records,
            truncated: false,
        };
        fleet.recover(rec, Instant::now());
        fleet
    }

    /// Recovery must reproduce the `live` state exactly, except that a
    /// session may restart its numbering past the live watermark (`exact`:
    /// at it) — never below what the live session's client had been shown.
    fn assert_recovers(recovered: &Fleet, live: &Noted, exact: bool, trace: &[String]) {
        let (records, counters, next_id, session_next) = live;
        let not_seq = |r: &&Record| !matches!(r, Record::SessionSeq { .. });
        let got = recovered.compaction_records().expect("recovered records");
        assert_eq!(
            got.iter().filter(not_seq).collect::<Vec<_>>(),
            records.iter().filter(not_seq).collect::<Vec<_>>(),
            "compaction records after {trace:#?}"
        );
        assert_eq!(
            (&recovered.counters, &recovered.jobs.next_id),
            (counters, next_id),
            "counters after {trace:#?}"
        );
        assert_eq!(recovered.sessions.next, *session_next);
        for rec in records {
            let Record::SessionSeq { session, next_seq } = rec else {
                continue;
            };
            let restart = recovered.sessions.map[session].base_seq;
            assert!(
                restart == *next_seq || (!exact && restart > *next_seq),
                "session {session} restarts at {restart}, its client saw up to {next_seq}, \
                 after {trace:#?}"
            );
        }
    }

    /// Random legal edge sequences on a journaling [`Fleet`]: whatever the
    /// journal holds at any edge boundary — a crash between edges — recovers
    /// to the live state noted at that boundary, and so do the compaction
    /// records of that state.
    #[test]
    fn every_journal_prefix_recovers_the_live_state_of_its_edge_boundary() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gcl-fleet-prop-{}.journal", std::process::id()));
        let cut = dir.join(format!("gcl-fleet-prop-{}.cut.journal", std::process::id()));
        let opts = CoordinatorOptions {
            queue_cap: 4,
            session_inflight_cap: 3,
            ..CoordinatorOptions::default()
        };
        cases(0xF1EE7, 200, |rng| {
            let mut fleet = Fleet {
                journal: Some(Journal::create(&path).unwrap()),
                ..Fleet::default()
            };
            let mut peers = Vec::new();
            for _ in 0..3 {
                join(&mut fleet, &listener, &mut peers);
            }
            let sessions = [fleet.open_session(), fleet.open_session()];
            let mut trace = Vec::new();
            let mut boundaries = Vec::new();
            for _ in 0..rng.u32_range_inclusive(10, 40) {
                trace.push(step(
                    &mut fleet, &opts, &sessions, rng, &listener, &mut peers,
                ));
                let bytes = fleet.journal.as_ref().unwrap().bytes();
                boundaries.push((bytes as usize, note(&fleet), trace.len()));
            }
            drop(fleet);
            let journal = std::fs::read(&path).unwrap();
            for (len, live, steps) in &boundaries {
                std::fs::write(&cut, &journal[..*len]).unwrap();
                let (_, rec) = Journal::open_recover(&cut).unwrap();
                assert!(!rec.truncated, "an edge boundary is a record boundary");
                let trace = &trace[..*steps];
                assert_recovers(&recovered(rec.log), live, false, trace);
                assert_recovers(&recovered(live.0.clone()), live, true, trace);
            }
        });
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&cut).ok();
    }

    /// A compacted state that is still over the threshold is not rewritten
    /// again on the next supervisor upkeep: with no new records, the second
    /// upkeep leaves the file (its inode) alone.
    #[test]
    fn journal_upkeep_does_not_rewrite_an_unchanged_journal() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gcl-fleet-upkeep-{}.journal", std::process::id()));
        let mut fleet = Fleet {
            journal: Some(Journal::create(&path).unwrap()),
            ..Fleet::default()
        };
        fleet.open_session();
        let inode = || std::fs::metadata(&path).unwrap().ino();
        let created = inode();
        fleet.journal_upkeep(1);
        let compacted = inode();
        assert_ne!(compacted, created, "the first upkeep compacts");
        fleet.journal_upkeep(1);
        assert_eq!(
            inode(),
            compacted,
            "the second finds nothing new to compact"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Recovery journals the watermarks its synthetic events moved, so a
    /// second recovery of the same journal restarts each session past
    /// everything the first one's clients could have seen.
    #[test]
    fn a_second_recovery_restarts_sessions_past_the_first() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("gcl-fleet-epochs-{}.journal", std::process::id()));
        let mut live = Fleet {
            journal: Some(Journal::create(&path).unwrap()),
            ..Fleet::default()
        };
        let sid = live.open_session();
        let spec = JobSpec::new("bfs", true, GpuConfig::small());
        let opts = CoordinatorOptions::default();
        live.submit(&opts, spec, 1, Some(&sid)).unwrap();
        drop(live);
        let epoch = || {
            let (journal, rec) = Journal::open_recover(&path).unwrap();
            let mut fleet = Fleet {
                journal: Some(journal),
                ..Fleet::default()
            };
            fleet.recover(rec, Instant::now());
            fleet
        };
        let seen = epoch().sessions.map[&sid].next_seq;
        assert_eq!(seen, 2, "one live `queued`, one recovered `queued`");
        assert_eq!(epoch().sessions.map[&sid].base_seq, seen);
        std::fs::remove_file(&path).ok();
    }

    /// A replayed `Done` record keeps the journal's bytes as they are and
    /// summarises them once; bytes this build cannot decode requeue the
    /// job instead.
    #[test]
    fn a_replayed_result_keeps_its_bytes_or_requeues_its_job() {
        let stats = LaunchStats {
            cycles: 99,
            digest: Some(3),
            ..LaunchStats::default()
        };
        let (hex, sum) = encode_stats_payload(&stats);
        let (bytes, summary) = verify_stats_payload(&hex, &sum).unwrap();
        let mut fleet = Fleet::default();
        for (id, payload) in [(1, bytes.clone()), (2, vec![0xff; 5])] {
            fleet.replay(Record::Submit {
                id,
                key: id,
                workload: "bfs".to_string(),
                tiny: true,
                sanitize: false,
                max_cycles: None,
                session: None,
            });
            fleet.replay(Record::Done {
                id,
                cached: false,
                wall_ms: 1.0,
                worker_wall_ms: 1.0,
                worker: "w0".to_string(),
                payload,
            });
        }
        let FleetJobState::Done(result) = &fleet.jobs.map[&1].state else {
            panic!("job 1 replays as done");
        };
        assert_eq!(result.summary, summary);
        assert_eq!(fleet.payload(result).unwrap().as_ref(), bytes.as_slice());
        assert!(matches!(
            fleet.jobs.map[&2].state,
            FleetJobState::Queued { held_by: None }
        ));
    }

    /// With a journal, a finished job's payload bytes live only in its
    /// `Done` record. They read back whole, and still do after a compaction
    /// has moved that record; the summary stays in the job table.
    #[test]
    fn a_journaled_result_reads_back_across_a_compaction() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let path = std::env::temp_dir().join(format!(
            "gcl-fleet-journaled-{}.journal",
            std::process::id()
        ));
        let mut fleet = Fleet {
            journal: Some(Journal::create(&path).unwrap()),
            ..Fleet::default()
        };
        let mut peers = Vec::new();
        join(&mut fleet, &listener, &mut peers);
        let stats = LaunchStats {
            cycles: 4242,
            digest: Some(7),
            ..LaunchStats::default()
        };
        let (hex, sum) = encode_stats_payload(&stats);
        let (bytes, summary) = verify_stats_payload(&hex, &sum).unwrap();
        assert_eq!(format!("0x{:016x}", summary.sum), sum);
        assert_eq!((summary.cycles, summary.digest), (4242, Some(7)));
        let spec = JobSpec::new("bfs", true, GpuConfig::small());
        let opts = CoordinatorOptions::default();
        let (id, _) = fleet.submit(&opts, spec, 1, None).unwrap();
        fleet.jobs.queue.clear();
        fleet.lease(id, 0, false, Instant::now());
        let payload = Payload {
            bytes: bytes.clone(),
            summary,
            wall_ms: 1.5,
            worker_wall_ms: 2.5,
            cached: false,
        };
        fleet.complete(id, 0, payload);
        let read = |fleet: &Fleet| {
            let FleetJobState::Done(result) = &fleet.jobs.map[&id].state else {
                panic!("job {id} is done");
            };
            let Stats::Journaled(at) = result.stats else {
                panic!("a journaling fleet holds no payload");
            };
            assert_eq!(result.summary, summary);
            (at, fleet.payload(result).unwrap().into_owned())
        };
        let (before, read_back) = read(&fleet);
        assert_eq!(read_back, bytes);
        fleet.journal_upkeep(1);
        let (after, read_back) = read(&fleet);
        assert_ne!(
            after, before,
            "compaction drops the lease: the record moves"
        );
        assert_eq!(read_back, bytes);
        std::fs::remove_file(&path).ok();
    }
}
