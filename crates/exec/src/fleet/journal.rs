//! Write-ahead journal for the fleet coordinator.
//!
//! `gcl coordinate --journal PATH` appends one checksummed record per
//! job-table transition (submit / lease / done / failed / reclaim) and
//! session attach/detach, so a coordinator killed at an arbitrary instant
//! can be restarted with `--recover` and resume the sweep with zero lost
//! acknowledged jobs. The format reuses
//! the checkpoint wire codec ([`gcl_mem::Enc`]/[`gcl_mem::Dec`]): the file
//! opens with an 8-byte magic and a little-endian `u16` version, then
//! carries one [`gcl_mem::wire`] section (`length | payload | FNV`) per
//! record.
//!
//! Appends are fsync-batched: the coordinator calls [`Journal::sync`] once
//! per supervisor tick (and before acknowledging a submit), not per
//! record. Replay tolerates a torn tail — a record cut short by the crash,
//! or one whose checksum no longer folds — by truncating the file back to
//! the last valid record and recovering the clean prefix; only a foreign
//! magic or an unknown format version is unrecoverable (the operator
//! pointed the coordinator at the wrong file). Periodic compaction
//! rewrites the journal as a single [`Record::Snapshot`] so it stays
//! bounded no matter how long the fleet runs.

use gcl_mem::{write_section, Dec, Enc, WireError};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The journal's opening magic: file format identity, checked verbatim.
pub const JOURNAL_MAGIC: &[u8; 8] = b"gcljrnl\n";

/// Current journal format version, written after the magic. Version 1
/// files can hold records this build has no decoder for (tags 8 and 10,
/// below) and a wider snapshot; refusing the version keeps replay from
/// mistaking the first such record for a torn tail and truncating every
/// acknowledged job behind it.
pub const JOURNAL_VERSION: u16 = 2;

/// Magic plus version: every journal starts with exactly these bytes.
const HEADER_LEN: u64 = 10;

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The filesystem said no; retrying with the same path is pointless.
    Io {
        /// Journal path the operation touched.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        error: String,
    },
    /// The file is not a journal this build can read: wrong magic or a
    /// format version from a different build. Torn tails are *not* this —
    /// they are truncated and recovered silently.
    Unrecoverable {
        /// Journal path that was rejected.
        path: PathBuf,
        /// What exactly disqualified it.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal {}: {error}", path.display())
            }
            JournalError::Unrecoverable { path, reason } => {
                write!(f, "journal {} is unrecoverable: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// A coordinator counter mirrored into the journal, so recovered `status`
/// output (and the outcome table) carries on from the pre-crash totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JCounter {
    /// Submits deduplicated against a live or finished job.
    DedupHits,
    /// Structured overload sheds.
    Sheds,
    /// Leases resumed from worker inventory after recovery.
    Resumed,
}

impl JCounter {
    // Ids 0-3 and 6 belonged to version 1 counters and are never reused.
    fn to_u8(self) -> u8 {
        match self {
            JCounter::DedupHits => 4,
            JCounter::Sheds => 5,
            JCounter::Resumed => 7,
        }
    }

    fn from_u8(v: u8) -> Result<JCounter, WireError> {
        Ok(match v {
            4 => JCounter::DedupHits,
            5 => JCounter::Sheds,
            7 => JCounter::Resumed,
            _ => return Err(WireError::Malformed("counter id")),
        })
    }
}

/// One durable coordinator event.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job was accepted into the table.
    Submit {
        /// Job id (coordinator-assigned, starts at 1).
        id: u64,
        /// Content-addressed cache key of the spec.
        key: u64,
        /// Workload name.
        workload: String,
        /// Tiny input scale.
        tiny: bool,
        /// Sanitizer on.
        sanitize: bool,
        /// Explicit cycle budget, when the submit carried one.
        max_cycles: Option<u64>,
        /// Session subscribed at submit time, if any.
        session: Option<String>,
    },
    /// An additional session subscribed to an existing job (dedup join).
    Subscribe {
        /// Job id.
        id: u64,
        /// Session id.
        session: String,
    },
    /// The job was leased (or a recovered lease was resumed) to a worker.
    Lease {
        /// Job id.
        id: u64,
        /// Worker name, for the audit trail.
        worker: String,
    },
    /// A lease was pulled back (worker death, expiry, corrupt result) and
    /// the job requeued.
    Reclaim {
        /// Job id.
        id: u64,
        /// Why the lease was reclaimed.
        reason: String,
    },
    /// The job finished; `payload` is the raw wire-encoded `LaunchStats`
    /// (already checksum-verified by the coordinator before journaling).
    Done {
        /// Job id.
        id: u64,
        /// The worker served it from its result cache, not a fresh run.
        cached: bool,
        /// Wall-clock ms of the producing simulation.
        wall_ms: f64,
        /// Wall-clock ms the executing worker held the lease.
        worker_wall_ms: f64,
        /// Worker that produced (or served) the result.
        worker: String,
        /// Wire-encoded `LaunchStats` bytes.
        payload: Vec<u8>,
    },
    /// The job failed terminally.
    Failed {
        /// Job id.
        id: u64,
        /// The structured error message.
        error: String,
    },
    /// A streaming session was created.
    SessionOpen {
        /// Session id (`s-N`).
        session: String,
    },
    /// A streaming session's client went away (sessions stay resumable;
    /// this record is audit trail, not deletion).
    SessionDetach {
        /// Session id.
        session: String,
    },
    /// A counter advanced by `delta`.
    Counter {
        /// Which counter.
        counter: JCounter,
        /// Amount added.
        delta: u64,
    },
    /// A compaction checkpoint: complete coordinator state at a point in
    /// time. Replay restarts from the latest one.
    Snapshot(SnapState),
}

/// Terminal-or-queued state of one job inside a snapshot / recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapJobState {
    /// Not finished: requeue on recovery.
    Queued {
        /// A worker may still hold this job (lease journaled, no reclaim
        /// or done seen). Recovery holds it briefly so a re-joining
        /// worker's inventory can resume the lease instead of re-running.
        was_leased: bool,
    },
    /// Finished successfully; the payload is the wire-encoded stats.
    Done {
        /// Served from the worker's result cache.
        cached: bool,
        /// Producing simulation's wall ms.
        wall_ms: f64,
        /// Lease-holder wall ms.
        worker_wall_ms: f64,
        /// Producing worker.
        worker: String,
        /// Wire-encoded `LaunchStats`.
        payload: Vec<u8>,
    },
    /// Failed terminally with this message.
    Failed(String),
}

/// One job in a snapshot / recovered state.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapJob {
    /// Job id.
    pub id: u64,
    /// Content-addressed cache key.
    pub key: u64,
    /// Workload name.
    pub workload: String,
    /// Tiny input scale.
    pub tiny: bool,
    /// Sanitizer on.
    pub sanitize: bool,
    /// Explicit cycle budget, when one was submitted.
    pub max_cycles: Option<u64>,
    /// Sessions subscribed to this job.
    pub sessions: Vec<String>,
    /// Where the job stands.
    pub state: SnapJobState,
}

/// Counter totals inside a snapshot / recovered state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapCounters {
    /// Fresh simulations run.
    pub sims: u64,
    /// Deduplicated submits.
    pub dedup_hits: u64,
    /// Structured sheds.
    pub sheds: u64,
    /// Leases resumed from inventory.
    pub resumed: u64,
}

impl SnapCounters {
    pub(super) fn bump(&mut self, c: JCounter, delta: u64) {
        let slot = match c {
            JCounter::DedupHits => &mut self.dedup_hits,
            JCounter::Sheds => &mut self.sheds,
            JCounter::Resumed => &mut self.resumed,
        };
        *slot = slot.saturating_add(delta);
    }
}

/// One streaming session inside a snapshot / recovered state.
///
/// `events` counts (an upper bound on) the sequenced events the
/// pre-crash coordinator delivered to this session. Recovery restarts
/// the session's sequence numbering *at* this count, so a client whose
/// replay cursor points anywhere into the lost in-memory log re-attaches
/// cleanly: everything the recovered coordinator emits carries a `seq`
/// at or past any cursor the client could hold. Over-counting only costs
/// a `truncated` flag on re-attach; under-counting would make clients
/// skip events, so the bookkeeping rounds up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapSession {
    /// Session id (`s-N`).
    pub id: String,
    /// Upper bound on sequenced events delivered pre-crash.
    pub events: u64,
}

/// Complete durable coordinator state: what a snapshot holds and what
/// replay produces. Worker membership is deliberately absent — workers are
/// ground truth and re-announce themselves (plus the jobs they are still
/// running) when they rejoin.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapState {
    /// Next job id to assign.
    pub next_id: u64,
    /// Every live-or-terminal job, in id order.
    pub jobs: Vec<SnapJob>,
    /// Next session number to assign.
    pub session_next: u64,
    /// Sessions that have been opened, with their event watermarks.
    pub sessions: Vec<SnapSession>,
    /// Counter totals.
    pub counters: SnapCounters,
}

impl SnapState {
    fn apply(&mut self, rec: Record) {
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
                self.next_id = self.next_id.max(id);
                let subscriber = session.clone();
                self.jobs.push(SnapJob {
                    id,
                    key,
                    workload,
                    tiny,
                    sanitize,
                    max_cycles,
                    sessions: session.into_iter().collect(),
                    state: SnapJobState::Queued { was_leased: false },
                });
                // The subscriber saw one sequenced "queued" event.
                if let Some(sid) = subscriber {
                    self.bump_session(&sid, 1);
                }
            }
            Record::Subscribe { id, session } => {
                // A dedup join delivers a synthetic "queued" and, for an
                // already-done job, a synthetic "done": count two (rounding
                // up is safe, see [`SnapSession`]).
                self.bump_session(&session, 2);
                if let Some(j) = self.job_mut(id) {
                    // An unfinished job lists a session once per join, as
                    // the live table does: each later event reaches the
                    // session that many times and the watermark must count
                    // every one. A done job has nothing left to deliver, so
                    // one listing (for the replay after recovery) is enough.
                    let done = matches!(j.state, SnapJobState::Done { .. });
                    if !done || !j.sessions.contains(&session) {
                        j.sessions.push(session);
                    }
                }
            }
            Record::Lease { id, .. } => {
                let subs = if let Some(j) = self.job_mut(id) {
                    if matches!(j.state, SnapJobState::Queued { .. }) {
                        j.state = SnapJobState::Queued { was_leased: true };
                    }
                    j.sessions.clone()
                } else {
                    Vec::new()
                };
                self.bump_each(&subs);
            }
            Record::Reclaim { id, .. } => {
                let subs = if let Some(j) = self.job_mut(id) {
                    if matches!(j.state, SnapJobState::Queued { .. }) {
                        j.state = SnapJobState::Queued { was_leased: false };
                    }
                    j.sessions.clone()
                } else {
                    Vec::new()
                };
                self.bump_each(&subs);
            }
            Record::Done {
                id,
                cached,
                wall_ms,
                worker_wall_ms,
                worker,
                payload,
            } => {
                if !cached {
                    self.counters.sims = self.counters.sims.saturating_add(1);
                }
                let subs = if let Some(j) = self.job_mut(id) {
                    j.state = SnapJobState::Done {
                        cached,
                        wall_ms,
                        worker_wall_ms,
                        worker,
                        payload,
                    };
                    j.sessions.clone()
                } else {
                    Vec::new()
                };
                self.bump_each(&subs);
            }
            Record::Failed { id, error } => {
                let subs = if let Some(j) = self.job_mut(id) {
                    j.state = SnapJobState::Failed(error);
                    j.sessions.clone()
                } else {
                    Vec::new()
                };
                self.bump_each(&subs);
            }
            Record::SessionOpen { session } => {
                if let Some(n) = session
                    .strip_prefix("s-")
                    .and_then(|d| d.parse::<u64>().ok())
                {
                    self.session_next = self.session_next.max(n);
                }
                if !self.sessions.iter().any(|s| s.id == session) {
                    self.sessions.push(SnapSession {
                        id: session,
                        events: 0,
                    });
                }
            }
            // Sessions stay resumable after the client detaches; the
            // record is an audit line, not a deletion.
            Record::SessionDetach { .. } => {}
            Record::Counter { counter, delta } => self.counters.bump(counter, delta),
            Record::Snapshot(state) => *self = state,
        }
    }

    fn job_mut(&mut self, id: u64) -> Option<&mut SnapJob> {
        self.jobs.iter_mut().find(|j| j.id == id)
    }

    fn bump_session(&mut self, sid: &str, delta: u64) {
        match self.sessions.iter_mut().find(|s| s.id == sid) {
            Some(s) => s.events = s.events.saturating_add(delta),
            // Subscription seen before its SessionOpen (torn prefix):
            // materialize the session so the watermark still counts.
            None => self.sessions.push(SnapSession {
                id: sid.to_string(),
                events: delta,
            }),
        }
    }

    fn bump_each(&mut self, sids: &[String]) {
        for sid in sids {
            self.bump_session(sid, 1);
        }
    }
}

/// What [`Journal::open_recover`] reconstructed.
#[derive(Debug)]
pub struct RecoveredState {
    /// The folded state: latest snapshot plus every tail record.
    pub state: SnapState,
    /// Whether a torn tail was truncated away.
    pub truncated: bool,
    /// Records replayed (snapshot counts as one).
    pub records: u64,
}

// Record tags are file format: 8 and 10 were version 1 records and stay
// retired, so every surviving tag keeps its number.
fn enc_record(rec: &Record) -> Vec<u8> {
    let mut e = Enc::new();
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
            e.u8(0);
            e.u64(*id);
            e.u64(*key);
            e.str(workload);
            e.bool(*tiny);
            e.bool(*sanitize);
            e.opt(max_cycles, |e, v| e.u64(*v));
            e.opt(session, |e, v| e.str(v));
        }
        Record::Subscribe { id, session } => {
            e.u8(1);
            e.u64(*id);
            e.str(session);
        }
        Record::Lease { id, worker } => {
            e.u8(2);
            e.u64(*id);
            e.str(worker);
        }
        Record::Reclaim { id, reason } => {
            e.u8(3);
            e.u64(*id);
            e.str(reason);
        }
        Record::Done {
            id,
            cached,
            wall_ms,
            worker_wall_ms,
            worker,
            payload,
        } => {
            e.u8(4);
            e.u64(*id);
            e.bool(*cached);
            e.f64(*wall_ms);
            e.f64(*worker_wall_ms);
            e.str(worker);
            e.bytes(payload);
        }
        Record::Failed { id, error } => {
            e.u8(5);
            e.u64(*id);
            e.str(error);
        }
        Record::SessionOpen { session } => {
            e.u8(6);
            e.str(session);
        }
        Record::SessionDetach { session } => {
            e.u8(7);
            e.str(session);
        }
        Record::Counter { counter, delta } => {
            e.u8(9);
            e.u8(counter.to_u8());
            e.u64(*delta);
        }
        Record::Snapshot(state) => {
            e.u8(11);
            enc_snapshot(&mut e, state);
        }
    }
    e.into_bytes()
}

fn enc_snapshot(e: &mut Enc, s: &SnapState) {
    e.u64(s.next_id);
    e.seq(&s.jobs, |e, j| {
        e.u64(j.id);
        e.u64(j.key);
        e.str(&j.workload);
        e.bool(j.tiny);
        e.bool(j.sanitize);
        e.opt(&j.max_cycles, |e, v| e.u64(*v));
        e.seq(&j.sessions, |e, sid| e.str(sid));
        match &j.state {
            SnapJobState::Queued { was_leased } => {
                e.u8(0);
                e.bool(*was_leased);
            }
            SnapJobState::Done {
                cached,
                wall_ms,
                worker_wall_ms,
                worker,
                payload,
            } => {
                e.u8(1);
                e.bool(*cached);
                e.f64(*wall_ms);
                e.f64(*worker_wall_ms);
                e.str(worker);
                e.bytes(payload);
            }
            SnapJobState::Failed(msg) => {
                e.u8(2);
                e.str(msg);
            }
        }
    });
    e.u64(s.session_next);
    e.seq(&s.sessions, |e, sess| {
        e.str(&sess.id);
        e.u64(sess.events);
    });
    let c = &s.counters;
    for v in [c.sims, c.dedup_hits, c.sheds, c.resumed] {
        e.u64(v);
    }
}

fn dec_record(bytes: &[u8]) -> Result<Record, WireError> {
    let mut d = Dec::new(bytes);
    let rec = match d.u8()? {
        0 => Record::Submit {
            id: d.u64()?,
            key: d.u64()?,
            workload: d.str()?,
            tiny: d.bool()?,
            sanitize: d.bool()?,
            max_cycles: d.opt(|d| d.u64())?,
            session: d.opt(|d| d.str())?,
        },
        1 => Record::Subscribe {
            id: d.u64()?,
            session: d.str()?,
        },
        2 => Record::Lease {
            id: d.u64()?,
            worker: d.str()?,
        },
        3 => Record::Reclaim {
            id: d.u64()?,
            reason: d.str()?,
        },
        4 => Record::Done {
            id: d.u64()?,
            cached: d.bool()?,
            wall_ms: d.f64()?,
            worker_wall_ms: d.f64()?,
            worker: d.str()?,
            payload: d.bytes()?.to_vec(),
        },
        5 => Record::Failed {
            id: d.u64()?,
            error: d.str()?,
        },
        6 => Record::SessionOpen { session: d.str()? },
        7 => Record::SessionDetach { session: d.str()? },
        9 => Record::Counter {
            counter: JCounter::from_u8(d.u8()?)?,
            delta: d.u64()?,
        },
        11 => Record::Snapshot(dec_snapshot(&mut d)?),
        _ => return Err(WireError::Malformed("record kind")),
    };
    if !d.is_done() {
        return Err(WireError::Malformed("trailing record bytes"));
    }
    Ok(rec)
}

fn dec_snapshot(d: &mut Dec) -> Result<SnapState, WireError> {
    let next_id = d.u64()?;
    let jobs = d.seq(|d| {
        let id = d.u64()?;
        let key = d.u64()?;
        let workload = d.str()?;
        let tiny = d.bool()?;
        let sanitize = d.bool()?;
        let max_cycles = d.opt(|d| d.u64())?;
        let sessions = d.seq(|d| d.str())?;
        let state = match d.u8()? {
            0 => SnapJobState::Queued {
                was_leased: d.bool()?,
            },
            1 => SnapJobState::Done {
                cached: d.bool()?,
                wall_ms: d.f64()?,
                worker_wall_ms: d.f64()?,
                worker: d.str()?,
                payload: d.bytes()?.to_vec(),
            },
            2 => SnapJobState::Failed(d.str()?),
            _ => return Err(WireError::Malformed("snapshot job state tag")),
        };
        Ok(SnapJob {
            id,
            key,
            workload,
            tiny,
            sanitize,
            max_cycles,
            sessions,
            state,
        })
    })?;
    let session_next = d.u64()?;
    let sessions = d.seq(|d| {
        Ok(SnapSession {
            id: d.str()?,
            events: d.u64()?,
        })
    })?;
    let counters = SnapCounters {
        sims: d.u64()?,
        dedup_hits: d.u64()?,
        sheds: d.u64()?,
        resumed: d.u64()?,
    };
    Ok(SnapState {
        next_id,
        jobs,
        session_next,
        sessions,
        counters,
    })
}

/// An open write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    len: u64,
    dirty: bool,
}

impl Journal {
    fn io(path: &Path, e: std::io::Error) -> JournalError {
        JournalError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        }
    }

    /// Create (or truncate) a fresh journal at `path` and write the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the file cannot be created or written.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).map_err(|e| Journal::io(path, e))?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Journal::io(path, e))?;
        file.write_all(JOURNAL_MAGIC)
            .and_then(|()| file.write_all(&JOURNAL_VERSION.to_le_bytes()))
            .and_then(|()| file.sync_data())
            .map_err(|e| Journal::io(path, e))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            len: HEADER_LEN,
            dirty: false,
        })
    }

    /// Open `path` and replay it. A missing (or torn-header) file becomes
    /// a fresh empty journal — `--recover` never refuses to start on a
    /// clean prefix, and "nothing yet" is the cleanest prefix there is. A
    /// torn tail is truncated back to the last valid record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Unrecoverable`] when the magic or version belongs
    /// to something other than this format, [`JournalError::Io`]
    /// otherwise.
    pub fn open_recover(path: &Path) -> Result<(Journal, RecoveredState), JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Journal::io(path, e)),
        };
        if (bytes.len() as u64) < HEADER_LEN {
            // Missing file, or a crash beat the header write. Either way
            // the only valid prefix is empty — unless the bytes already
            // contradict the magic, in which case this is not our file.
            if !JOURNAL_MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                return Err(JournalError::Unrecoverable {
                    path: path.to_path_buf(),
                    reason: "bad magic (not a gcl journal)".to_string(),
                });
            }
            let journal = Journal::create(path)?;
            return Ok((
                journal,
                RecoveredState {
                    state: SnapState::default(),
                    truncated: !bytes.is_empty(),
                    records: 0,
                },
            ));
        }
        if &bytes[..8] != JOURNAL_MAGIC {
            return Err(JournalError::Unrecoverable {
                path: path.to_path_buf(),
                reason: "bad magic (not a gcl journal)".to_string(),
            });
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != JOURNAL_VERSION {
            return Err(JournalError::Unrecoverable {
                path: path.to_path_buf(),
                reason: format!("format version {version} (this build reads {JOURNAL_VERSION})"),
            });
        }
        let mut state = SnapState::default();
        let mut valid = HEADER_LEN as usize;
        let mut records = 0u64;
        // A torn or corrupt record ends the valid prefix just as clean
        // EOF does; everything past it is truncated below.
        let mut tail = Dec::new(&bytes[valid..]);
        while !tail.is_done() {
            let Ok(rec) = tail.section().and_then(dec_record) else {
                break;
            };
            state.apply(rec);
            records += 1;
            valid = bytes.len() - tail.remaining();
        }
        let truncated = valid as u64 != bytes.len() as u64;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Journal::io(path, e))?;
        if truncated {
            file.set_len(valid as u64)
                .map_err(|e| Journal::io(path, e))?;
            file.sync_data().map_err(|e| Journal::io(path, e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| Journal::io(path, e))?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file,
                len: valid as u64,
                dirty: false,
            },
            RecoveredState {
                state,
                truncated,
                records,
            },
        ))
    }

    /// Append one record. The bytes reach the kernel immediately (so a
    /// `kill -9` of the coordinator loses nothing already appended);
    /// [`Journal::sync`] batches the fsync that defends against an OS
    /// crash.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write fails.
    pub fn append(&mut self, rec: &Record) -> Result<(), JournalError> {
        // Framed in memory so the record reaches the kernel in one write.
        let payload = enc_record(rec);
        let mut framed = Vec::with_capacity(payload.len() + 16);
        write_section(&mut framed, &payload).expect("writing to a Vec cannot fail");
        self.file
            .write_all(&framed)
            .map_err(|e| Journal::io(&self.path, e))?;
        self.len += framed.len() as u64;
        self.dirty = true;
        Ok(())
    }

    /// Flush batched appends to stable storage (no-op when clean).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.dirty {
            self.file
                .sync_data()
                .map_err(|e| Journal::io(&self.path, e))?;
            self.dirty = false;
        }
        Ok(())
    }

    /// Compact: rewrite the journal as header + one snapshot record, via a
    /// temp file and an atomic rename so a crash mid-compaction leaves the
    /// old journal intact.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when any step fails.
    pub fn compact(&mut self, snap: &SnapState) -> Result<(), JournalError> {
        let tmp = self.path.with_extension("journal.tmp");
        {
            let mut replacement = Journal::create(&tmp)?;
            replacement.append(&Record::Snapshot(snap.clone()))?;
            replacement.sync()?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| Journal::io(&self.path, e))?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| Journal::io(&self.path, e))?;
        let len = file
            .seek(SeekFrom::End(0))
            .map_err(|e| Journal::io(&self.path, e))?;
        self.file = file;
        self.len = len;
        self.dirty = false;
        Ok(())
    }

    /// Current journal size in bytes (compaction trigger input).
    pub fn bytes(&self) -> u64 {
        self.len
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("gcl-journal-{}-{name}.journal", std::process::id()));
        p
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::SessionOpen {
                session: "s-1".to_string(),
            },
            Record::Submit {
                id: 1,
                key: 0xdead_beef,
                workload: "bfs".to_string(),
                tiny: true,
                sanitize: false,
                max_cycles: Some(123),
                session: Some("s-1".to_string()),
            },
            Record::Lease {
                id: 1,
                worker: "w1".to_string(),
            },
            Record::Done {
                id: 1,
                cached: false,
                wall_ms: 1.5,
                worker_wall_ms: 2.5,
                worker: "w1".to_string(),
                payload: vec![1, 2, 3],
            },
            Record::Counter {
                counter: JCounter::DedupHits,
                delta: 1,
            },
        ]
    }

    #[test]
    fn append_replay_round_trips() {
        let path = tmp_path("roundtrip");
        {
            let mut j = Journal::create(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
            j.sync().unwrap();
        }
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.records, 5);
        let s = rec.state;
        assert_eq!(s.next_id, 1);
        assert_eq!(s.jobs.len(), 1);
        assert!(matches!(s.jobs[0].state, SnapJobState::Done { .. }));
        assert_eq!(s.jobs[0].sessions, vec!["s-1".to_string()]);
        // SessionOpen, then 1 queued + 1 leased + 1 done for the one
        // subscribed job: watermark 3.
        assert_eq!(
            s.sessions,
            vec![SnapSession {
                id: "s-1".to_string(),
                events: 3,
            }]
        );
        assert_eq!(s.counters.sims, 1);
        assert_eq!(s.counters.dedup_hits, 1);
        assert_eq!(s.session_next, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lease_without_done_recovers_as_was_leased() {
        let path = tmp_path("leased");
        {
            let mut j = Journal::create(&path).unwrap();
            for r in &sample_records()[..3] {
                j.append(r).unwrap();
            }
            j.sync().unwrap();
        }
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert_eq!(
            rec.state.jobs[0].state,
            SnapJobState::Queued { was_leased: true }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_preserves_state_and_shrinks() {
        let path = tmp_path("compact");
        let mut j = Journal::create(&path).unwrap();
        let big_payload = vec![7u8; 4096];
        for i in 1..=50u64 {
            j.append(&Record::Submit {
                id: i,
                key: i,
                workload: "bfs".to_string(),
                tiny: true,
                sanitize: false,
                max_cycles: None,
                session: None,
            })
            .unwrap();
            j.append(&Record::Done {
                id: i,
                cached: false,
                wall_ms: 1.0,
                worker_wall_ms: 1.0,
                worker: "w".to_string(),
                payload: big_payload.clone(),
            })
            .unwrap();
        }
        j.sync().unwrap();
        let before = j.bytes();
        let (_, rec) = Journal::open_recover(&path).unwrap();
        j = Journal::open_recover(&path).unwrap().0;
        j.compact(&rec.state).unwrap();
        assert!(j.bytes() < before, "{} !< {before}", j.bytes());
        let (_, again) = Journal::open_recover(&path).unwrap();
        assert_eq!(again.state, rec.state);
        assert_eq!(again.records, 1, "one snapshot record after compaction");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let path = tmp_path("torn");
        {
            let mut j = Journal::create(&path).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
            j.sync().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-record: replay must keep the clean prefix.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.records, 4, "last record lost, prefix kept");
        let after = std::fs::read(&path).unwrap().len();
        assert!(after < full.len() - 5, "file physically truncated");
        // A second recovery sees a clean file.
        let (_, rec2) = Journal::open_recover(&path).unwrap();
        assert!(!rec2.truncated);
        assert_eq!(rec2.records, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_and_version_skew_are_unrecoverable() {
        let path = tmp_path("magic");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(
            Journal::open_recover(&path),
            Err(JournalError::Unrecoverable { .. })
        ));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&99u16.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open_recover(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_record_kind_round_trips() {
        let mut all = sample_records();
        all.extend([
            Record::Subscribe {
                id: 1,
                session: "s-2".to_string(),
            },
            Record::Reclaim {
                id: 1,
                reason: "worker dead".to_string(),
            },
            Record::Failed {
                id: 2,
                error: "boom".to_string(),
            },
            Record::SessionDetach {
                session: "s-1".to_string(),
            },
            Record::Snapshot(SnapState {
                next_id: 9,
                jobs: vec![SnapJob {
                    id: 9,
                    key: 7,
                    workload: "lu".to_string(),
                    tiny: false,
                    sanitize: true,
                    max_cycles: None,
                    sessions: vec!["s-3".to_string()],
                    state: SnapJobState::Failed("x".to_string()),
                }],
                session_next: 3,
                sessions: vec![SnapSession {
                    id: "s-3".to_string(),
                    events: 4,
                }],
                counters: SnapCounters {
                    sims: 1,
                    ..SnapCounters::default()
                },
            }),
        ]);
        for rec in all {
            let bytes = enc_record(&rec);
            assert_eq!(dec_record(&bytes).unwrap(), rec, "{rec:?}");
        }
    }
}
