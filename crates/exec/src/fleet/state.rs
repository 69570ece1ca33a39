//! The coordinator's state: one [`Fleet`] holding every table, one
//! method per edge, and the one fold of the journal.
//!
//! `Fleet` does no I/O and reads no clock. Each edge ([`Fleet::submit`],
//! [`Fleet::dispatch`], [`Fleet::complete`], [`Fleet::expire`], …) takes
//! `now` where time matters, performs its state change, session event,
//! counters and worker bookkeeping exactly once, and appends the I/O that
//! implies to one ordered outbox of [`Effect`]s; every scheduling decision
//! is made here (DESIGN.md §13 has the table). A finished job keeps its
//! result as the checksummed bytes the worker sent, plus their
//! [`Summary`]; with a journal the bytes live only in its `Done` record
//! ([`Stats`]). Only this module knows what a journal record means:
//! [`Fleet::replay`] folds one into the tables the edges write, and
//! [`Fleet::compaction_records`] writes the tables back out as records.
//! Recovery rests on one ordering rule, kept inside every edge: the
//! journal record precedes the session event, so the per-session
//! watermark a replayed journal folds to never falls below what that
//! session's client saw. The checker at the foot of this file drives the
//! edges breadth-first within small bounds and recovers the journal at
//! every record boundary.
//!
//! Nothing here takes a lock: [`super::coordinator`]'s shell holds the one
//! mutex, performs the outbox before releasing it, and feeds outcomes back
//! as edges ([`Fleet::mark_dead`], [`Fleet::journaled`]).

use super::coordinator::{CoordinatorOptions, LEASE_EXPIRED, WORKER_DEAD};
use super::journal::{JCounter, Record, Recovered};
use super::Summary;
use crate::job::JobSpec;
use crate::proto::{assign_frame, error_response, shed_response, QUEUE_FULL};
use gcl_mem::fnv_fold;
use gcl_stats::{Accumulator, Json};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::time::{Duration, Instant};

/// Events a session's replay log retains; older events are truncated and
/// a late re-attach learns it missed some (`"truncated":true` in the ack).
const EVENT_LOG_CAP: usize = 8192;

/// A completed job's payload, as verified from a worker's `done` frame;
/// [`Fleet::complete`] names the worker.
#[derive(Debug, Clone)]
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
    /// The worker served the job from its own result cache.
    pub(super) cached: bool,
    pub(super) worker: String,
}

/// A finished job's statistics, as the wire bytes the worker sent. With a
/// journal they stay only in the journal's `Done` record, so the table of
/// a long run holds no payloads (`result` and compaction read them back);
/// without one, and after recovery, in memory.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub(super) enum FleetJobState {
    Queued { held_by: Option<String> },
    Leased { worker: usize, deadline: Instant },
    Done(Box<FleetResult>),
    Failed(String),
}

#[derive(Clone)]
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
            max_cycles: self.spec.cycle_override(),
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
#[derive(Default, Clone)]
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
#[derive(Clone)]
pub(super) struct WorkerEntry {
    pub(super) name: String,
    pub(super) slots: usize,
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

/// One client session: a durable event log and an inflight count for
/// admission control. Survives the connection that created it.
#[derive(Debug, Default, Clone)]
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

#[derive(Default, Clone)]
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

/// One piece of I/O an edge asks of the shell. A failed `Send` is
/// [`Fleet::mark_dead`]; an appended `Done` record's offset is
/// [`Fleet::journaled`]; `Wake` wakes the threads sleeping on the fleet.
#[derive(Debug, Clone)]
pub(super) enum Effect {
    Send { worker: usize, frame: Json },
    Close(usize),
    Append(Record),
    Sync,
    Log(String),
    Wake,
}

/// Everything the coordinator knows. The accept loop, the session
/// handlers and the supervisor share it behind one mutex.
#[derive(Default, Clone)]
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
    /// `shutdown` was requested: submits are refused.
    pub(super) draining: bool,
    /// Effects not yet performed, oldest first.
    pub(super) out: Vec<Effect>,
}

impl Fleet {
    fn log(&mut self, rec: Record) {
        self.out.push(Effect::Append(rec));
    }

    fn say(&mut self, line: String) {
        self.out.push(Effect::Log(line));
    }

    /// Advance a journaled counter: the record and the live total move
    /// together, so they cannot drift.
    pub(super) fn bump(&mut self, counter: JCounter) {
        self.log(Record::Counter { counter, delta: 1 });
        self.counters.bump(counter, 1);
    }

    /// Create a fresh session, journaled so it outlives a restart.
    pub(super) fn open_session(&mut self) -> String {
        self.sessions.next += 1;
        let sid = format!("s-{}", self.sessions.next);
        self.sessions.map.insert(sid.clone(), Session::default());
        self.log(Record::SessionOpen {
            session: sid.clone(),
        });
        sid
    }

    /// A session's client detached; the session stays resumable.
    pub(super) fn detach(&mut self, session: String) {
        self.log(Record::SessionDetach { session });
    }

    /// Edge `submit`: admit `spec` as a new queued job, or join the job
    /// that already answers for `key`. Returns `(id, deduped)`, or the
    /// refusal to send back — every submit once `shutdown` was requested.
    pub(super) fn submit(
        &mut self,
        opts: &CoordinatorOptions,
        spec: JobSpec,
        key: u64,
        sid: Option<&str>,
    ) -> Result<(u64, bool), Json> {
        if self.draining {
            return Err(error_response(
                "coordinator is draining (shutdown requested)",
            ));
        }
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
        self.log(job.submit_record(id));
        let queued = queued_fields(id, &job.spec.workload, false);
        self.sessions.log_event(&job.sessions, "queued", &queued);
        self.sessions.track(&job.sessions);
        self.jobs.map.insert(id, job);
        self.jobs.queue.push_back(id);
        self.jobs.by_key.insert(key, id);
        self.out.push(Effect::Wake);
        // The ack promises durability: flush the Submit record before the
        // client can observe the job id.
        self.out.push(Effect::Sync);
        Ok((id, false))
    }

    /// Edge `subscribe`: session `sid` joins existing job `id`. It gets
    /// the job's lifecycle events from here on; a job already done replays
    /// its outcome as a synthetic event so the subscriber never waits on
    /// silence.
    fn subscribe(&mut self, id: u64, sid: &str) {
        let subscriber = [sid.to_string()];
        self.log(Record::Subscribe {
            id,
            session: sid.to_string(),
        });
        self.out.push(Effect::Wake);
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
        self.log(Record::Lease {
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
        self.out.push(Effect::Wake);
    }

    /// Edge `reclaim`: `worker` loses job `id` for `reason` (its death,
    /// the lease deadline, a corrupt result). The job returns to the queue
    /// front — unless a late result already made it terminal, in which
    /// case only the audit record and the event remain.
    pub(super) fn reclaim(&mut self, id: u64, worker: usize, reason: &str) {
        self.workers[worker].leased.remove(&id);
        self.workers[worker].reassigned += 1;
        self.log(Record::Reclaim {
            id,
            reason: reason.to_string(),
        });
        self.out.push(Effect::Wake);
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
    pub(super) fn complete(&mut self, id: u64, worker: usize, mut result: FleetResult) {
        let w = &mut self.workers[worker];
        w.leased.remove(&id);
        if !self.jobs.map.get(&id).is_some_and(FleetJob::awaits_result) {
            return;
        }
        w.done += 1;
        result.worker = w.name.clone();
        // With a journal the bytes move to the `Done` record once it is
        // appended ([`Fleet::journaled`]); a failed append leaves them here.
        if let Stats::Held(bytes) = &result.stats {
            self.log(result.done_record(id, bytes.to_vec()));
        }
        if !result.cached {
            self.counters.sims += 1;
        }
        let job = self.jobs.map.get_mut(&id).expect("checked above");
        let done = done_fields(id, &job.spec.workload, result.cached, &result);
        self.sessions.log_event(&job.sessions, "done", &done);
        self.sessions.settle(&job.sessions);
        job.state = FleetJobState::Done(Box::new(result));
        self.out.push(Effect::Wake);
    }

    /// Record `rec` was appended, or placed by a compaction, at journal
    /// byte `at`: if it is a job's `Done` record, the result drops the bytes
    /// it held.
    pub(super) fn journaled(&mut self, rec: &Record, at: u64) {
        let Record::Done { id, .. } = rec else {
            return;
        };
        if let Some(FleetJobState::Done(result)) = self.jobs.map.get_mut(id).map(|j| &mut j.state) {
            result.stats = Stats::Journaled(at);
        }
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
        self.log(Record::Failed {
            id,
            error: error.to_string(),
        });
        let job = self.jobs.map.get_mut(&id).expect("checked above");
        job.state = FleetJobState::Failed(error.to_string());
        let failed = failed_fields(id, error);
        self.sessions.log_event(&job.sessions, "failed", &failed);
        self.sessions.settle(&job.sessions);
        self.out.push(Effect::Wake);
    }

    /// Edge `corrupt`: `worker`'s `done` for job `id` failed its checksum
    /// or would not decode. It counts against the reporter, but only the
    /// lease holder's bad frame reclaims the job.
    pub(super) fn corrupt(&mut self, id: u64, worker: usize, why: &str) {
        self.workers[worker].corrupt += 1;
        self.workers[worker].leased.remove(&id);
        let holds = |j: &FleetJob| matches!(j.state, FleetJobState::Leased { worker: w, .. } if w == worker);
        if !self.jobs.map.get(&id).is_some_and(holds) {
            let line = format!("fleet: corrupt result for job {id}: {why}; a stale lease, ignored");
            return self.say(line);
        }
        self.say(format!(
            "fleet: corrupt result for job {id}: {why}; reassigning"
        ));
        self.reclaim(id, worker, "corrupt result");
    }

    /// Edge `join`: a worker with `slots` slots; returns its index.
    pub(super) fn join(&mut self, name: &str, slots: usize, now: Instant) -> usize {
        self.say(format!(
            "fleet: worker `{name}` joined with {slots} slot(s)"
        ));
        self.workers.push(WorkerEntry {
            name: name.to_string(),
            slots,
            alive: true,
            last_pong: now,
            last_ping: now,
            ping_seq: 0,
            leased: HashSet::new(),
            done: 0,
            failed: 0,
            corrupt: 0,
            reassigned: 0,
        });
        self.out.push(Effect::Wake);
        self.workers.len() - 1
    }

    /// Declare worker `idx` dead for `reason`: have its connection closed
    /// and reclaim every lease it held.
    pub(super) fn mark_dead(&mut self, idx: usize, reason: &str) {
        let w = &mut self.workers[idx];
        if !w.alive {
            return;
        }
        w.alive = false;
        let leases: Vec<u64> = w.leased.drain().collect();
        let name = &w.name;
        let line = match leases.len() {
            0 => format!("fleet: {reason}: `{name}`"),
            n => format!("fleet: {reason}: `{name}` loses {n} lease(s), reassigning"),
        };
        self.out.push(Effect::Close(idx));
        self.say(line);
        for id in leases {
            self.reclaim(id, idx, reason);
        }
    }

    /// Edge `heartbeat`: ping on schedule, bury on deadline.
    pub(super) fn heartbeat(&mut self, now: Instant, opts: &CoordinatorOptions) {
        let ms = Duration::from_millis;
        for idx in 0..self.workers.len() {
            let Some(w) = self.workers.get_mut(idx).filter(|w| w.alive) else {
                continue;
            };
            if now.duration_since(w.last_pong) > ms(opts.heartbeat_timeout_ms) {
                self.mark_dead(idx, WORKER_DEAD);
            } else if now.duration_since(w.last_ping) >= ms(opts.heartbeat_ms) {
                w.ping_seq += 1;
                w.last_ping = now;
                let frame = Json::obj(vec![
                    ("op", Json::Str("ping".into())),
                    ("seq", Json::UInt(w.ping_seq)),
                ]);
                self.out.push(Effect::Send { worker: idx, frame });
            }
        }
    }

    /// Edge `expire`: reclaim expired leases even from live workers — a
    /// straggler keeps its connection but loses the job.
    pub(super) fn expire(&mut self, now: Instant) {
        let expired = |(id, job): (&u64, &FleetJob)| match job.state {
            FleetJobState::Leased { worker, deadline } if now >= deadline => Some((*id, worker)),
            _ => None,
        };
        let leases: Vec<(u64, usize)> = self.jobs.map.iter().filter_map(expired).collect();
        for (id, worker) in leases {
            let name = &self.workers[worker].name;
            self.say(format!(
                "fleet: {LEASE_EXPIRED}: job {id} reclaimed from `{name}`"
            ));
            self.reclaim(id, worker, LEASE_EXPIRED);
        }
    }

    /// Edge `dispatch`: take the first queued job not on a recovery hold
    /// off the queue for a live worker with a free slot, rendezvous-hashing
    /// on the key so placement is deterministic for a fixed fleet, and
    /// queue its `assign`. The shell performs it, then takes
    /// [`Fleet::assigned`]. `None` once nothing more can be placed; stale
    /// queue entries are then dropped.
    pub(super) fn dispatch(&mut self, now: Instant) -> Option<(u64, usize)> {
        let ws = &self.workers;
        let free: Vec<usize> = (0..ws.len())
            .filter(|w| ws[*w].alive && ws[*w].leased.len() < ws[*w].slots)
            .collect();
        let jobs = &self.jobs.map;
        let queued = |id: &u64| matches!(jobs.get(id), Some(j) if matches!(j.state, FleetJobState::Queued { .. }));
        let runnable = |id: &u64| queued(id) && jobs[id].hold_until.is_none_or(|t| now >= t);
        let at = (self.jobs.queue.iter().position(runnable)).filter(|_| !free.is_empty());
        let Some(id) = at.and_then(|at| self.jobs.queue.remove(at)) else {
            self.jobs.queue.retain(queued);
            return None;
        };
        let job = &self.jobs.map[&id];
        let worker = (free.iter().copied())
            // Anti-affinity: never hand a reclaimed job straight back to
            // the worker it was just taken from, unless it is the only one
            // left.
            .filter(|w| free.len() == 1 || Some(*w) != job.last_worker)
            .max_by_key(|w| fnv_fold(job.key, *w as u64))
            .expect("a free worker");
        let frame = assign_frame(id, &job.spec);
        self.out.push(Effect::Send { worker, frame });
        Some((id, worker))
    }

    /// Edge `assigned`: if the `assign` went out (the worker is still
    /// alive) the job is leased until `deadline`; otherwise it goes back
    /// to the queue front, unleased.
    pub(super) fn assigned(&mut self, id: u64, worker: usize, deadline: Instant) {
        if self.workers[worker].alive {
            self.lease(id, worker, false, deadline);
        } else {
            self.jobs.queue.push_front(id);
        }
    }

    /// Edge `inventory`: any job a (re-)joining worker reports still
    /// running has its lease resumed — a recovered coordinator then waits
    /// for the in-flight result instead of re-running the simulation.
    pub(super) fn inventory(&mut self, idx: usize, running: &[u64], deadline: Instant) {
        let queued = |j: &FleetJob| matches!(j.state, FleetJobState::Queued { .. });
        let mut resumed = 0u64;
        for &id in running {
            if self.jobs.map.get(&id).is_some_and(queued) {
                self.lease(id, idx, true, deadline);
                resumed += 1;
            }
        }
        if resumed > 0 {
            let name = &self.workers[idx].name;
            self.say(format!(
                "fleet: resumed {resumed} in-flight lease(s) from `{name}`'s inventory"
            ));
        }
    }

    /// Edge `shutdown`: refuse submits from now on; [`Fleet::drain`]
    /// dismisses the fleet once every job is terminal. Returns the queue
    /// length.
    pub(super) fn shutdown(&mut self) -> usize {
        self.draining = true;
        self.out.push(Effect::Wake);
        self.jobs.queue.len()
    }

    /// Edge `drain`: once shutdown was requested and every job is terminal,
    /// send each live worker `close` and shut its connection. Returns
    /// whether the fleet is dismissed.
    pub(super) fn drain(&mut self) -> bool {
        if !self.draining || !self.jobs.all_terminal() {
            return false;
        }
        for worker in (0..self.workers.len()).filter(|w| self.workers[*w].alive) {
            let frame = Json::obj(vec![("op", Json::Str("close".into()))]);
            self.out
                .extend([Effect::Send { worker, frame }, Effect::Close(worker)]);
        }
        true
    }

    /// The durable state as ordinary records, for compaction: every
    /// session, every job in id order (its submit, its further listings,
    /// then its lease or its outcome), the counter totals, and last each
    /// session's exact watermark. `sims` is left to the `Done` records.
    ///
    /// # Errors
    ///
    /// A result's bytes cannot be read back through `payload`.
    pub(super) fn compaction_records(
        &self,
        payload: impl Fn(&Stats) -> Result<Vec<u8>, String>,
    ) -> Result<Vec<Record>, String> {
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
                    Some(result.done_record(id, payload(&result.stats)?))
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
                let spec = JobSpec::submitted(workload, tiny, sanitize, max_cycles);
                let sessions: Vec<String> = session.into_iter().collect();
                // The submitter saw one "queued" event.
                self.sessions.advance(&sessions, 1);
                self.jobs.next_id = self.jobs.next_id.max(id);
                self.jobs.by_key.insert(key, id);
                let job = FleetJob::queued(spec, key, sessions);
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
        self.out
            .extend(self.session_seqs().into_iter().map(Effect::Append));
        self.out.push(Effect::Sync);
        let (jobs, pending) = (self.jobs.map.len(), self.jobs.queue.len());
        let torn = if rec.truncated {
            " — torn tail truncated"
        } else {
            ""
        };
        self.say(format!(
            "fleet: recovered {} record(s): {jobs} job(s) ({pending} pending, {resumable} \
             resumable), {} session(s){torn}",
            rec.records,
            self.sessions.map.len(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::journal::{framed, valid_prefix, JOURNAL_MAGIC, JOURNAL_VERSION};
    use crate::fleet::{encode_stats_payload, verify_stats_payload};
    use gcl_sim::{GpuConfig, LaunchStats};
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    /// Magic plus version: where every journal image's records start.
    const HEADER: usize = 10;
    const LEASE: Duration = Duration::from_secs(60);

    fn opts() -> CoordinatorOptions {
        // Small enough that two keys meet both sheds.
        CoordinatorOptions {
            queue_cap: 1,
            session_inflight_cap: 1,
            ..CoordinatorOptions::default()
        }
    }

    fn spec(key: u64) -> JobSpec {
        let mut cfg = GpuConfig::small();
        cfg.max_cycles += key;
        JobSpec::new("bfs", true, cfg)
    }

    /// What a worker reports for `key`: the same verified bytes every time,
    /// since a run is a pure function of its spec (key 1 from its cache).
    fn result(key: u64) -> FleetResult {
        let stats = LaunchStats {
            cycles: 100 + key,
            digest: Some(key),
            ..LaunchStats::default()
        };
        let (hex, sum) = encode_stats_payload(&stats);
        let (bytes, summary) = verify_stats_payload(&hex, &sum).unwrap();
        FleetResult {
            stats: Stats::Held(bytes.into_boxed_slice()),
            summary,
            wall_ms: 1.5,
            worker_wall_ms: 2.5,
            cached: key == 1,
            worker: String::new(),
        }
    }

    fn held(stats: &Stats) -> Vec<u8> {
        let Stats::Held(bytes) = stats else {
            panic!("bytes held in memory");
        };
        bytes.to_vec()
    }

    fn empty_image() -> Vec<u8> {
        [&JOURNAL_MAGIC[..], &JOURNAL_VERSION.to_le_bytes()].concat()
    }

    /// The payload of the `Done` record framed at byte `at` of `image`.
    fn read(image: &[u8], stats: &Stats) -> Result<Vec<u8>, String> {
        let at = match stats {
            Stats::Held(bytes) => return Ok(bytes.to_vec()),
            Stats::Journaled(at) => *at as usize,
        };
        match valid_prefix(&image[at..]).0.into_iter().next() {
            Some(Record::Done { payload, .. }) => Ok(payload),
            other => Err(format!("journal byte {at} holds {other:?}")),
        }
    }

    /// A journal image: the records appended so far, framed as the file
    /// frames them.
    #[derive(Clone)]
    struct Image(Vec<u8>);

    impl Image {
        /// Perform `fleet`'s outbox the way the coordinator's shell does:
        /// appends go to the image (an appended `Done` record's offset back
        /// to the fleet), and a write `sent` is false for buries its worker,
        /// whose effects are performed at once. Returns the image length
        /// after each append, and every `(job, worker)` an assign reached.
        fn perform(&mut self, fleet: &mut Fleet, sent: bool, out: &mut Performed) {
            for effect in std::mem::take(&mut fleet.out) {
                match effect {
                    Effect::Send { worker, .. } if !sent => {
                        fleet.mark_dead(worker, WORKER_DEAD);
                        self.perform(fleet, true, out);
                    }
                    Effect::Send { worker, frame } => {
                        if frame.get("op").and_then(Json::as_str) == Some("assign") {
                            let job = frame.get("job").and_then(Json::as_u64).unwrap();
                            out.assigns.push((job, worker));
                        }
                    }
                    Effect::Append(rec) => {
                        let at = self.0.len() as u64;
                        self.0.extend(framed(&rec));
                        out.cuts.push(self.0.len());
                        fleet.journaled(&rec, at);
                    }
                    Effect::Close(_) | Effect::Sync | Effect::Log(_) | Effect::Wake => {}
                }
            }
        }

        /// A coordinator restarted on the first `len` bytes: the valid
        /// prefix replayed, recovery's own records appended.
        fn recover(&self, len: usize, now: Instant) -> (Fleet, Image, bool) {
            let (log, valid) = valid_prefix(&self.0[HEADER..len]);
            let truncated = HEADER + valid != len;
            let records = log.len() as u64;
            let mut fleet = Fleet::default();
            fleet.recover(
                Recovered {
                    log,
                    records,
                    truncated,
                },
                now,
            );
            let mut image = Image(self.0[..HEADER + valid].to_vec());
            image.perform(&mut fleet, true, &mut Performed::default());
            (fleet, image, truncated)
        }

        fn compaction_records(&self, fleet: &Fleet) -> Result<Vec<Record>, String> {
            fleet.compaction_records(|s| read(&self.0, s))
        }
    }

    #[derive(Default)]
    struct Performed {
        cuts: Vec<usize>,
        assigns: Vec<(u64, usize)>,
    }

    /// One edge the checker takes. Workers are indices into the live
    /// fleet's table; sessions are `s-1` and `s-2`.
    #[derive(Debug, Clone)]
    enum Edge {
        Submit { key: u64, session: Option<u64> },
        Dispatch { sent: bool },
        Done { job: u64, worker: usize },
        Corrupt { job: u64, worker: usize },
        Fail { job: u64, worker: usize },
        LeaseExpiry,
        HeartbeatTimeout,
        Join,
        Inventory { worker: usize },
        Compact,
        CrashRecover,
        Shutdown,
    }

    /// The checker's world: the live fleet and its journal, plus what
    /// the workers and clients outside it have seen.
    #[derive(Clone)]
    struct World {
        fleet: Fleet,
        image: Image,
        /// Every `(job, worker name)` an `assign` reached: who may report
        /// on the job, and what its inventory lists until it does.
        assigned: BTreeSet<(u64, String)>,
        reported: BTreeSet<(u64, String)>,
        /// The worker whose lease on a job has not been lost: an assign
        /// reached it, and it has not died, seen the lease expire, sent a
        /// corrupt result, finished the job or outlived a crash.
        holder: BTreeMap<u64, String>,
        /// Each session's watermark at the last edge boundary: what its
        /// client may have been shown.
        seen: BTreeMap<String, u64>,
        /// The drain dismissed the fleet.
        finished: bool,
    }

    /// A canonical rendering of `fleet`, for telling states apart.
    fn canon(fleet: &Fleet, base: Instant, out: &mut String) {
        let at = |t: Instant| t.duration_since(base).as_millis();
        for (id, j) in &fleet.jobs.map {
            let state = match &j.state {
                FleetJobState::Queued { held_by } => format!("q{held_by:?}"),
                FleetJobState::Leased { worker, deadline } => {
                    format!("l{worker}@{}", at(*deadline))
                }
                FleetJobState::Done(r) => format!("d{}", matches!(r.stats, Stats::Held(_))),
                FleetJobState::Failed(e) => format!("f{e}"),
            };
            let hold = j.hold_until.map(at);
            let (assigns, last) = (j.assigns, j.last_worker);
            write!(
                out,
                "{id}:{}:{state}:{assigns}:{last:?}:{:?}:{hold:?};",
                j.key, j.sessions
            )
            .unwrap();
        }
        let by_key: BTreeMap<_, _> = fleet.jobs.by_key.iter().collect();
        write!(
            out,
            "|{:?}|{by_key:?}|{}|",
            fleet.jobs.queue, fleet.jobs.next_id
        )
        .unwrap();
        for w in &fleet.workers {
            let leased: BTreeSet<_> = w.leased.iter().collect();
            let c = (w.done, w.failed, w.corrupt, w.reassigned);
            let beat = (at(w.last_pong), at(w.last_ping), w.ping_seq);
            write!(
                out,
                "{}:{}:{}:{leased:?}:{c:?}:{beat:?};",
                w.name, w.alive, w.slots
            )
            .unwrap();
        }
        for (sid, s) in &fleet.sessions.map {
            let log: Vec<_> = s.log.iter().collect();
            write!(
                out,
                "{sid}:{}:{}:{}:{log:?};",
                s.base_seq, s.next_seq, s.inflight
            )
            .unwrap();
        }
        let c = &fleet.counters;
        write!(out, "|{c:?}|{}|{}", fleet.sessions.next, fleet.draining).unwrap();
    }

    /// A recovered fleet must hold the live one's jobs, counters and
    /// sessions, restarting each session at or past what its client saw.
    fn same_table(
        live: &Fleet,
        image: &Image,
        got: &Fleet,
        got_image: &Image,
    ) -> Result<(), String> {
        let not_seq = |r: &&Record| !matches!(r, Record::SessionSeq { .. });
        let want = image.compaction_records(live)?;
        let have = got_image.compaction_records(got)?;
        let want: Vec<_> = want.iter().filter(not_seq).collect();
        let have: Vec<_> = have.iter().filter(not_seq).collect();
        if want != have {
            return Err(format!(
                "recovered records {have:#?}\nlive records {want:#?}"
            ));
        }
        let totals = |f: &Fleet| (f.counters, f.jobs.next_id, f.sessions.next);
        if totals(live) != totals(got) {
            return Err(format!(
                "recovered totals {:?}, live {:?}",
                totals(got),
                totals(live)
            ));
        }
        Ok(())
    }

    /// Every session of `got` restarts at or past the watermark `seen`.
    fn seqs_never_fall(seen: &BTreeMap<String, u64>, got: &Fleet) -> Result<(), String> {
        for (sid, &saw) in seen {
            let restart = got.sessions.map.get(sid).map_or(0, |s| s.base_seq);
            if restart < saw {
                return Err(format!(
                    "session {sid} restarts at {restart}; its client saw {saw}"
                ));
            }
        }
        Ok(())
    }

    impl World {
        fn new(base: Instant) -> World {
            let mut fleet = Fleet::default();
            fleet.join("w0", 1, base);
            fleet.join("w1", 1, base);
            fleet.open_session();
            fleet.open_session();
            let mut world = World {
                fleet,
                image: Image(empty_image()),
                assigned: BTreeSet::new(),
                reported: BTreeSet::new(),
                holder: BTreeMap::new(),
                seen: BTreeMap::new(),
                finished: false,
            };
            world
                .image
                .perform(&mut world.fleet, true, &mut Performed::default());
            world.note_seen();
            world
        }

        fn note_seen(&mut self) {
            let seqs = self
                .fleet
                .sessions
                .map
                .iter()
                .map(|(sid, s)| (sid.clone(), s.next_seq));
            self.seen = seqs.collect();
        }

        fn name(&self, worker: usize) -> String {
            self.fleet.workers[worker].name.clone()
        }

        /// Every edge enabled here.
        fn edges(&self) -> Vec<Edge> {
            if self.finished {
                return Vec::new();
            }
            let mut edges = Vec::new();
            for key in 0..2 {
                for session in [None, Some(1), Some(2)] {
                    edges.push(Edge::Submit { key, session });
                }
            }
            let mut probe = self.fleet.clone();
            if probe.dispatch(self.now()).is_some() {
                edges.extend([
                    Edge::Dispatch { sent: true },
                    Edge::Dispatch { sent: false },
                ]);
            }
            let alive = |w: &usize| self.fleet.workers[*w].alive;
            for (job, name) in self.assigned.difference(&self.reported) {
                let Some(worker) = self.fleet.workers.iter().position(|w| &w.name == name) else {
                    continue;
                };
                if alive(&worker) {
                    let (job, worker) = (*job, worker);
                    edges.extend([Edge::Done { job, worker }, Edge::Corrupt { job, worker }]);
                    edges.push(Edge::Fail { job, worker });
                }
            }
            edges.extend([Edge::LeaseExpiry, Edge::HeartbeatTimeout]);
            let live = (0..self.fleet.workers.len()).filter(alive).count();
            if live < 2 && self.fleet.workers.len() < 3 {
                edges.push(Edge::Join);
            }
            for worker in (0..self.fleet.workers.len()).filter(alive) {
                edges.push(Edge::Inventory { worker });
            }
            edges.extend([Edge::Compact, Edge::CrashRecover, Edge::Shutdown]);
            edges
        }

        fn now(&self) -> Instant {
            BASE.with(|b| *b)
        }

        /// Take `edge`, perform its effects and check every invariant.
        fn step(&mut self, edge: &Edge) -> Result<(), String> {
            let now = self.now();
            let before = self.image.0.len();
            let mut performed = Performed::default();
            match *edge {
                Edge::Submit { key, session } => {
                    let sid = session.map(|s| format!("s-{s}"));
                    let jobs = self.fleet.jobs.map.len();
                    let draining = self.fleet.draining;
                    let admitted = self.fleet.submit(&opts(), spec(key), key, sid.as_deref());
                    if draining && (admitted.is_ok() || self.fleet.jobs.map.len() != jobs) {
                        return Err("a submit was admitted after shutdown".into());
                    }
                }
                Edge::Dispatch { sent } => {
                    let (id, worker) = self.fleet.dispatch(now).expect("enabled");
                    self.image.perform(&mut self.fleet, sent, &mut performed);
                    self.fleet.assigned(id, worker, now + LEASE);
                }
                Edge::Done { job, worker } => {
                    let key = self.fleet.jobs.map[&job].key;
                    self.reported.insert((job, self.name(worker)));
                    self.fleet.complete(job, worker, result(key));
                }
                Edge::Corrupt { job, worker } => {
                    self.reported.insert((job, self.name(worker)));
                    self.fleet.corrupt(job, worker, "checksum mismatch");
                }
                Edge::Fail { job, worker } => {
                    self.reported.insert((job, self.name(worker)));
                    self.fleet.fail(job, worker, "boom");
                }
                Edge::LeaseExpiry => self.fleet.expire(now + LEASE),
                Edge::HeartbeatTimeout => {
                    let late = now + Duration::from_millis(opts().heartbeat_timeout_ms + 1);
                    self.fleet.heartbeat(late, &opts());
                }
                Edge::Join => {
                    let name = format!("w{}", self.fleet.workers.len());
                    self.fleet.join(&name, 1, now);
                }
                Edge::Inventory { worker } => {
                    let name = self.name(worker);
                    let running: Vec<u64> = (self.assigned.difference(&self.reported))
                        .filter(|(_, n)| *n == name)
                        .map(|(job, _)| *job)
                        .collect();
                    self.fleet.inventory(worker, &running, now + LEASE);
                }
                Edge::Compact => {
                    let records = self.image.compaction_records(&self.fleet)?;
                    let mut image = Image(empty_image());
                    for rec in &records {
                        let at = image.0.len() as u64;
                        image.0.extend(framed(rec));
                        self.fleet.journaled(rec, at);
                    }
                    let (compacted, compacted_image, _) = image.recover(image.0.len(), now);
                    let (replayed, replayed_image, _) = self.image.recover(self.image.0.len(), now);
                    same_table(&replayed, &replayed_image, &compacted, &compacted_image)
                        .map_err(|e| format!("compacting then recovering: {e}"))?;
                    // Compaction journals each watermark exactly.
                    for (sid, s) in &self.fleet.sessions.map {
                        let restart = compacted.sessions.map[sid].base_seq;
                        if restart != s.next_seq {
                            return Err(format!(
                                "compacted {sid} restarts at {restart}, not {}",
                                s.next_seq
                            ));
                        }
                    }
                    self.image = image;
                }
                Edge::CrashRecover => {
                    let (fleet, image, _) = self.image.recover(self.image.0.len(), now);
                    seqs_never_fall(&self.seen, &fleet)?;
                    (self.fleet, self.image) = (fleet, image);
                    self.holder.clear();
                }
                Edge::Shutdown => _ = self.fleet.shutdown(),
            }
            self.image.perform(&mut self.fleet, true, &mut performed);
            // The supervisor checks the drain on every wake-up.
            if self.fleet.drain() {
                if !self.fleet.jobs.all_terminal() {
                    return Err("the drain dismissed a fleet with unfinished jobs".into());
                }
                self.finished = true;
                self.image.perform(&mut self.fleet, true, &mut performed);
            }
            self.track_leases(edge, &performed)?;
            self.check_prefixes(before, &performed.cuts)?;
            self.check_live()?;
            self.note_seen();
            Ok(())
        }

        /// Who holds which lease after `edge`: a job may be assigned again
        /// only once its holder lost the lease.
        fn track_leases(&mut self, edge: &Edge, performed: &Performed) -> Result<(), String> {
            let dead: BTreeSet<String> = (self.fleet.workers.iter())
                .filter(|w| !w.alive)
                .map(|w| w.name.clone())
                .collect();
            self.holder.retain(|_, name| !dead.contains(name));
            match *edge {
                Edge::LeaseExpiry => self.holder.clear(),
                Edge::Done { job, worker }
                | Edge::Corrupt { job, worker }
                | Edge::Fail { job, worker }
                    if self.holder.get(&job) == Some(&self.name(worker)) =>
                {
                    self.holder.remove(&job);
                }
                Edge::Inventory { worker } => {
                    for (id, j) in &self.fleet.jobs.map {
                        if matches!(j.state, FleetJobState::Leased { worker: w, .. } if w == worker)
                        {
                            self.holder
                                .entry(*id)
                                .or_insert_with(|| self.fleet.workers[worker].name.clone());
                        }
                    }
                }
                _ => {}
            }
            for (job, holder) in &self.holder {
                let queued = |j: &FleetJob| matches!(j.state, FleetJobState::Queued { .. });
                if self.fleet.jobs.map.get(job).is_some_and(queued) {
                    return Err(format!(
                        "job {job} went back to the queue while {holder} holds its lease"
                    ));
                }
            }
            for &(job, worker) in &performed.assigns {
                let name = self.name(worker);
                if let Some(holder) = self.holder.get(&job) {
                    return Err(format!(
                        "job {job} assigned to {name} while {holder} holds its lease"
                    ));
                }
                self.assigned.insert((job, name.clone()));
                self.reported.remove(&(job, name.clone()));
                if self.fleet.workers[worker].alive {
                    self.holder.insert(job, name);
                }
            }
            Ok(())
        }

        /// A crash at each record boundary the edge appended, and inside
        /// its last record, recovers, never restarting a session below what
        /// its client saw before the edge.
        fn check_prefixes(&self, before: usize, cuts: &[usize]) -> Result<(), String> {
            let now = self.now();
            for &cut in cuts {
                let (fleet, _, truncated) = self.image.recover(cut, now);
                if truncated {
                    return Err(format!("a record boundary at byte {cut} reads as torn"));
                }
                seqs_never_fall(&self.seen, &fleet)
                    .map_err(|e| format!("cut at byte {cut}: {e}"))?;
            }
            let (start, end) = match cuts {
                [] => return Ok(()),
                [end] => (before, *end),
                [.., start, end] => (*start, *end),
            };
            let torn = start + (end - start) / 2;
            let (fleet, image, truncated) = self.image.recover(torn, now);
            let (whole, whole_image, _) = self.image.recover(start, now);
            if !truncated {
                return Err(format!(
                    "a cut inside the record at {start}..{end} was not torn"
                ));
            }
            same_table(&whole, &whole_image, &fleet, &image)
                .map_err(|e| format!("torn at byte {torn}: {e}"))
        }

        /// The live table against its own journal and its own promises.
        fn check_live(&self) -> Result<(), String> {
            let now = self.now();
            let (recovered, image, _) = self.image.recover(self.image.0.len(), now);
            same_table(&self.fleet, &self.image, &recovered, &image)?;
            seqs_never_fall(&self.live_seqs(), &recovered)?;
            for (fleet, image) in [(&self.fleet, &self.image), (&recovered, &image)] {
                for (id, job) in &fleet.jobs.map {
                    let FleetJobState::Done(done) = &job.state else {
                        continue;
                    };
                    let bytes = read(&image.0, &done.stats)?;
                    if bytes != held(&result(job.key).stats) {
                        return Err(format!("job {id}'s result bytes changed"));
                    }
                    for sid in &job.sessions {
                        let needle = "\"event\":\"done\",\"seq\":";
                        let tag = format!("\"job\":{id},");
                        let log = &fleet.sessions.map[sid].log;
                        if !log.iter().any(|e| e.contains(needle) && e.contains(&tag)) {
                            return Err(format!("session {sid} never got job {id}'s `done`"));
                        }
                    }
                }
            }
            Ok(())
        }

        fn live_seqs(&self) -> BTreeMap<String, u64> {
            let seqs = self
                .fleet
                .sessions
                .map
                .iter()
                .map(|(sid, s)| (sid.clone(), s.next_seq));
            seqs.collect()
        }

        /// A hash of everything that can tell two worlds apart.
        fn key(&self) -> u64 {
            let base = self.now();
            let mut key = String::new();
            canon(&self.fleet, base, &mut key);
            // The journal, by what it folds to.
            let mut folded = Fleet::default();
            valid_prefix(&self.image.0[HEADER..])
                .0
                .into_iter()
                .for_each(|r| folded.replay(r));
            key.push('#');
            canon(&folded, base, &mut key);
            write!(
                key,
                "#{:?}{:?}{:?}{}",
                self.assigned, self.reported, self.holder, self.finished
            )
            .unwrap();
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(&key, &mut hasher);
            std::hash::Hasher::finish(&hasher)
        }
    }

    thread_local! {
        static BASE: Instant = Instant::now();
    }

    /// Breadth-first over distinct worlds up to `depth` edges from the
    /// start; a violation panics with the shortest edge sequence that
    /// reaches it. Returns the number of distinct states.
    fn check(depth: usize) -> usize {
        let start = World::new(BASE.with(|b| *b));
        let mut seen = HashSet::from([start.key()]);
        let mut paths: Vec<(Option<usize>, Option<Edge>)> = vec![(None, None)];
        let mut frontier = vec![(start, 0usize)];
        let path = |paths: &[(Option<usize>, Option<Edge>)], mut at: usize| {
            let mut edges = Vec::new();
            while let (Some(parent), Some(edge)) = &paths[at] {
                edges.push(edge.clone());
                at = *parent;
            }
            edges.reverse();
            edges
        };
        for level in 1..=depth {
            let mut next = Vec::new();
            for (world, at) in frontier {
                for edge in world.edges() {
                    let mut w = world.clone();
                    if let Err(e) = w.step(&edge) {
                        let mut edges = path(&paths, at);
                        edges.push(edge);
                        panic!("{e}\nafter {} edge(s): {edges:#?}", edges.len());
                    }
                    // The last level is checked, not expanded.
                    if seen.insert(w.key()) && level < depth {
                        paths.push((Some(at), Some(edge)));
                        next.push((w, paths.len() - 1));
                    }
                }
            }
            frontier = next;
        }
        seen.len()
    }

    /// Recovery journals the watermarks its synthetic events moved, so a
    /// second recovery of the same journal restarts each session past
    /// everything the first one's clients could have seen.
    #[test]
    fn a_second_recovery_restarts_sessions_past_the_first() {
        let now = Instant::now();
        let mut live = Fleet::default();
        let sid = live.open_session();
        live.submit(&opts(), spec(1), 1, Some(&sid)).unwrap();
        let mut image = Image(empty_image());
        image.perform(&mut live, true, &mut Performed::default());
        let (first, image, _) = image.recover(image.0.len(), now);
        let seen = first.sessions.map[&sid].next_seq;
        assert_eq!(seen, 2, "one live `queued`, one recovered `queued`");
        let (second, _, _) = image.recover(image.0.len(), now);
        assert_eq!(second.sessions.map[&sid].base_seq, seen);
    }

    /// A replayed `Done` record keeps the journal's bytes as they are and
    /// summarises them once; bytes this build cannot decode requeue the
    /// job instead.
    #[test]
    fn a_replayed_result_keeps_its_bytes_or_requeues_its_job() {
        let good = result(3);
        let bytes = held(&good.stats);
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
        assert_eq!(result.summary, good.summary);
        assert_eq!(held(&result.stats), bytes);
        assert!(matches!(
            fleet.jobs.map[&2].state,
            FleetJobState::Queued { held_by: None }
        ));
    }

    /// Once `shutdown` was requested the `submit` edge refuses every
    /// submit, a dedup join included, and queues nothing.
    #[test]
    fn submit_is_refused_after_shutdown() {
        let mut fleet = Fleet::default();
        let (id, _) = fleet.submit(&opts(), spec(0), 0, None).unwrap();
        assert_eq!(fleet.shutdown(), 1);
        for key in [0, 1] {
            let refusal = fleet.submit(&opts(), spec(key), key, None).unwrap_err();
            assert_eq!(
                refusal.get("error").and_then(Json::as_str),
                Some("coordinator is draining (shutdown requested)")
            );
        }
        assert_eq!(fleet.jobs.map.keys().collect::<Vec<_>>(), [&id]);
        assert_eq!(fleet.jobs.queue, [id]);
        assert_eq!(fleet.counters, Counters::default());
    }

    /// A corrupt `done` from a worker whose lease expired counts against
    /// it, but leaves the job leased to the worker that holds it now.
    #[test]
    fn a_stale_holders_corrupt_result_leaves_the_new_lease() {
        let now = Instant::now();
        let mut fleet = Fleet::default();
        let (a, b) = (fleet.join("a", 1, now), fleet.join("b", 1, now));
        let (id, _) = fleet.submit(&opts(), spec(0), 0, None).unwrap();
        fleet.jobs.queue.clear();
        fleet.lease(id, a, false, now);
        fleet.expire(now);
        fleet.jobs.queue.clear();
        fleet.lease(id, b, false, now + LEASE);
        fleet.corrupt(id, a, "checksum mismatch");
        assert!(matches!(
            fleet.jobs.map[&id].state,
            FleetJobState::Leased { worker, .. } if worker == b
        ));
        assert!(fleet.jobs.queue.is_empty(), "nothing to run twice");
        assert_eq!((fleet.workers[a].corrupt, fleet.workers[b].corrupt), (1, 0));
        assert!(fleet.workers[b].leased.contains(&id));
    }

    #[test]
    fn every_reachable_table_recovers_and_keeps_its_promises() {
        let states = check(5);
        eprintln!("{states} distinct states");
    }

    #[test]
    #[ignore = "deeper bound: run in release"]
    fn every_reachable_table_recovers_and_keeps_its_promises_deeper() {
        let states = check(6);
        eprintln!("{states} distinct states");
    }
}
