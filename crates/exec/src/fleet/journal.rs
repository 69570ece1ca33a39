//! Write-ahead journal for the fleet coordinator: a record log and
//! nothing more.
//!
//! `gcl coordinate --journal PATH` appends one checksummed [`Record`] per
//! job-table transition (submit / lease / done / failed / reclaim) and
//! session attach/detach, so a coordinator killed at an arbitrary instant
//! can be restarted with `--recover` and resume the sweep with zero lost
//! acknowledged jobs. The format reuses the checkpoint wire codec
//! ([`gcl_mem::Enc`]/[`gcl_mem::Dec`]): the file opens with an 8-byte
//! magic and a little-endian `u16` version, then carries one
//! [`gcl_mem::wire`] section (`length | payload | FNV`) per record.
//!
//! This module frames, checks and truncates; what a record *means* is
//! `state.rs`'s business alone (`Fleet::replay` is the one fold).
//! Appends are fsync-batched: the coordinator calls [`Journal::sync`] in
//! its 20 ms upkeep (and before acknowledging a submit), not per record.
//! A record can be read back by the offset it was appended at, which is
//! how the coordinator answers for results it keeps only here.
//! [`Journal::open_recover`] tolerates a torn tail — a record cut
//! short by the crash, or one whose checksum no longer folds — by
//! truncating the file back to the last valid record and returning the
//! clean prefix; only a foreign magic or an unknown format version is
//! unrecoverable (the operator pointed the coordinator at the wrong
//! file). [`Journal::compact`] replaces the file with the records the
//! coordinator hands it (the live table, rewritten as ordinary records),
//! so it stays bounded no matter how long the fleet runs.

use gcl_mem::{write_section, Dec, Enc, Wire, WireError, BYTES};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The journal's opening magic: file format identity, checked verbatim.
pub const JOURNAL_MAGIC: &[u8; 8] = b"gcljrnl\n";

/// Current journal format version, written after the magic. Older files
/// can hold records this build has no decoder for — tags 8 and 10 in
/// version 1, the tag 11 snapshot a version 2 compaction wrote; refusing
/// the version keeps replay from mistaking the first such record for a
/// torn tail and truncating every acknowledged job behind it.
pub const JOURNAL_VERSION: u16 = 3;

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

// Ids 0-3 and 6 belonged to version 1 counters and are never reused.
gcl_mem::declare_wire!(enum JCounter "counter id" { DedupHits = 4, Sheds = 5, Resumed = 7 });

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
    /// A session's event watermark, written by compaction and recovery:
    /// replay *sets* the session's next sequence number to `next_seq`.
    SessionSeq {
        /// Session id.
        session: String,
        /// The session's next event sequence number.
        next_seq: u64,
    },
}

/// What [`Journal::open_recover`] read back.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The valid prefix's records, in file order.
    pub log: Vec<Record>,
    /// Records in the valid prefix.
    pub records: u64,
    /// Whether a torn tail was truncated away.
    pub truncated: bool,
}

// Record tags are file format: 8 and 10 (version 1) and 11 (version 2's
// snapshot) stay retired, so every surviving tag keeps its number.
gcl_mem::declare_wire!(enum Record "record kind" {
    Submit = 0 { id, key, workload, tiny, sanitize, max_cycles, session },
    Subscribe = 1 { id, session },
    Lease = 2 { id, worker },
    Reclaim = 3 { id, reason },
    Done = 4 { id, cached, wall_ms, worker_wall_ms, worker, payload: BYTES },
    Failed = 5 { id, error },
    SessionOpen = 6 { session },
    SessionDetach = 7 { session },
    Counter = 9 { counter, delta },
    SessionSeq = 12 { session, next_seq },
});

fn enc_record(rec: &Record) -> Vec<u8> {
    let mut e = Enc::new();
    rec.put(&mut e);
    e.into_bytes()
}

fn dec_record(bytes: &[u8]) -> Result<Record, WireError> {
    let mut d = Dec::new(bytes);
    let rec = Record::get(&mut d)?;
    if !d.is_done() {
        return Err(WireError::Malformed("trailing record bytes"));
    }
    Ok(rec)
}

/// `rec` as one journal section: `length | payload | FNV`.
pub(super) fn framed(rec: &Record) -> Vec<u8> {
    let payload = enc_record(rec);
    let mut framed = Vec::with_capacity(payload.len() + 16);
    write_section(&mut framed, &payload).expect("writing to a Vec cannot fail");
    framed
}

/// The records of a journal body (the bytes after the header) up to its
/// first torn or corrupt record, which ends the valid prefix just as clean
/// EOF does, and that prefix's length.
pub(super) fn valid_prefix(body: &[u8]) -> (Vec<Record>, usize) {
    let (mut log, mut valid) = (Vec::new(), 0);
    let mut tail = Dec::new(body);
    while let Ok(rec) = tail.section().and_then(dec_record) {
        log.push(rec);
        valid = body.len() - tail.remaining();
    }
    (log, valid)
}

/// An open write-ahead journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    /// A second handle on the same file for [`Journal::read_at`], so a
    /// read never moves the append position.
    reader: File,
    len: u64,
    dirty: bool,
    /// Size right after this handle's last compaction (0 before one).
    compacted: u64,
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
        Journal::appending(path, file, HEADER_LEN)
    }

    /// The journal at `path`, appending through `file` at byte `len`.
    fn appending(path: &Path, file: File, len: u64) -> Result<Journal, JournalError> {
        Ok(Journal {
            path: path.to_path_buf(),
            file,
            reader: File::open(path).map_err(|e| Journal::io(path, e))?,
            len,
            dirty: false,
            compacted: 0,
        })
    }

    /// Open `path` and read back its valid prefix. A missing (or torn-header) file becomes
    /// a fresh empty journal — `--recover` never refuses to start on a
    /// clean prefix, and "nothing yet" is the cleanest prefix there is. A
    /// torn tail is truncated back to the last valid record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Unrecoverable`] when the magic or version belongs
    /// to something other than this format, [`JournalError::Io`]
    /// otherwise.
    pub fn open_recover(path: &Path) -> Result<(Journal, Recovered), JournalError> {
        let bad_magic = || JournalError::Unrecoverable {
            path: path.to_path_buf(),
            reason: "bad magic (not a gcl journal)".to_string(),
        };
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
                return Err(bad_magic());
            }
            let truncated = !bytes.is_empty();
            let empty = Recovered {
                truncated,
                ..Recovered::default()
            };
            return Ok((Journal::create(path)?, empty));
        }
        if &bytes[..8] != JOURNAL_MAGIC {
            return Err(bad_magic());
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != JOURNAL_VERSION {
            return Err(JournalError::Unrecoverable {
                path: path.to_path_buf(),
                reason: format!("format version {version} (this build reads {JOURNAL_VERSION})"),
            });
        }
        let (log, body) = valid_prefix(&bytes[HEADER_LEN as usize..]);
        let valid = HEADER_LEN as usize + body;
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
            Journal::appending(path, file, valid as u64)?,
            Recovered {
                records: log.len() as u64,
                log,
                truncated,
            },
        ))
    }

    /// Append one record and return the byte offset it starts at. The
    /// bytes reach the kernel immediately (so a `kill -9` of the
    /// coordinator loses nothing already appended); [`Journal::sync`]
    /// batches the fsync that defends against an OS crash.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when the write fails.
    pub fn append(&mut self, rec: &Record) -> Result<u64, JournalError> {
        // Framed in memory so the record reaches the kernel in one write.
        let (at, framed) = (self.len, framed(rec));
        self.file
            .write_all(&framed)
            .map_err(|e| Journal::io(&self.path, e))?;
        self.len += framed.len() as u64;
        self.dirty = true;
        Ok(at)
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

    /// Replace the journal with header + `records`, via a temp file and
    /// an atomic rename so a crash mid-compaction leaves the old journal
    /// intact. Appends then go to the replacement's handle: the rename
    /// keeps its inode, so nothing is reopened by path. Returns the byte
    /// offset each record landed at, for reading it back later.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] when any step fails; the journal then still
    /// appends to the old file.
    pub fn compact(&mut self, records: &[Record]) -> Result<Vec<u64>, JournalError> {
        let tmp = self.path.with_extension("journal.tmp");
        let mut replacement = Journal::create(&tmp)?;
        let placed = (records.iter())
            .map(|rec| replacement.append(rec))
            .collect::<Result<_, _>>()?;
        replacement.sync()?;
        std::fs::rename(&tmp, &self.path).map_err(|e| Journal::io(&self.path, e))?;
        self.file = replacement.file;
        self.reader = replacement.reader;
        self.len = replacement.len;
        self.dirty = false;
        self.compacted = self.len;
        Ok(placed)
    }

    /// Read back the record that starts at byte `at`: where
    /// [`Journal::bytes`] stood just before it was appended, or where
    /// [`Journal::compact`] put it.
    pub(crate) fn read_at(&self, at: u64) -> Result<Record, JournalError> {
        let io = |e| Journal::io(&self.path, e);
        let mut file = &self.reader;
        file.seek(SeekFrom::Start(at)).map_err(io)?;
        let mut len = [0u8; 8];
        file.read_exact(&mut len).map_err(io)?;
        let body = u64::from_le_bytes(len);
        if at.saturating_add(body) > self.len {
            return Err(Journal::io(
                &self.path,
                std::io::Error::other(format!("record at byte {at} runs past the end")),
            ));
        }
        // Length, payload and checksum, as `Dec::section` reads them.
        let mut section = len.to_vec();
        section.resize(16 + body as usize, 0);
        file.read_exact(&mut section[8..]).map_err(io)?;
        Dec::new(&section)
            .section()
            .and_then(dec_record)
            .map_err(|e| io(std::io::Error::other(format!("record at byte {at}: {e}"))))
    }

    /// Whether the journal is over `threshold` *and* at least doubled since
    /// this handle's last compaction: a compacted state that itself
    /// outgrows the threshold must not be rewritten on every call.
    pub fn due(&self, threshold: u64) -> bool {
        self.len > threshold && self.len >= 2 * self.compacted
    }

    /// Current journal size in bytes (compaction trigger input).
    pub fn bytes(&self) -> u64 {
        self.len
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

    fn write(path: &Path, records: &[Record]) {
        let mut j = Journal::create(path).unwrap();
        for r in records {
            j.append(r).unwrap();
        }
        j.sync().unwrap();
    }

    #[test]
    fn append_replay_round_trips() {
        let path = tmp_path("roundtrip");
        write(&path, &sample_records());
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert!(!rec.truncated);
        assert_eq!(rec.records, 5);
        assert_eq!(rec.log, sample_records());
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
        assert!(j.due(before - 1) && !j.due(before));
        // The coordinator hands compaction the live table as records; any
        // shorter list stands in for it here.
        let kept = sample_records();
        j.compact(&kept).unwrap();
        assert!(j.bytes() < before, "{} !< {before}", j.bytes());
        // Not due again until the compacted size has doubled.
        assert!(!j.due(0));
        j.append(&kept[4]).unwrap();
        j.sync().unwrap();
        let (_, again) = Journal::open_recover(&path).unwrap();
        assert!(!again.truncated);
        let mut want = kept.clone();
        want.push(kept[4].clone());
        assert_eq!(again.log, want, "appends land in the compacted file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let path = tmp_path("torn");
        write(&path, &sample_records());
        let full = std::fs::read(&path).unwrap();
        // Chop mid-record: replay must keep the clean prefix.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert!(rec.truncated);
        assert_eq!(rec.records, 4, "last record lost, prefix kept");
        assert_eq!(rec.log, sample_records()[..4]);
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
            Record::SessionSeq {
                session: "s-3".to_string(),
                next_seq: 4,
            },
        ]);
        for rec in all {
            let bytes = enc_record(&rec);
            assert_eq!(dec_record(&bytes).unwrap(), rec, "{rec:?}");
        }
        // Retired tags and counter ids stay undecodable: 8 and 10 were
        // version 1 records, 11 version 2's snapshot, 6 a version 1 counter.
        for tag in [8, 10, 11, 13] {
            assert_eq!(
                dec_record(&[tag, 1, 0, 0, 0, 0, 0, 0, 0]),
                Err(WireError::Malformed("record kind")),
                "tag {tag}"
            );
        }
        for id in [0, 3, 6, 8] {
            assert_eq!(
                dec_record(&[9, id, 1, 0, 0, 0, 0, 0, 0, 0]),
                Err(WireError::Malformed("counter id")),
                "counter id {id}"
            );
        }
        assert_eq!(
            dec_record(&[7, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::Malformed("trailing record bytes"))
        );
    }
}
