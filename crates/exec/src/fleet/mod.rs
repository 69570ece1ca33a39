//! The one daemon: a coordinator supervising N workers.
//!
//! `gcl coordinate` runs the job engine as a fault-tolerant fleet, and
//! `gcl serve` is the same coordinator with a single in-process worker
//! ([`crate::serve`]). Workers dial in with `gcl serve --join COORD:PORT`
//! and hold one full-duplex NDJSON connection each; clients speak the
//! `submit` / `status` / `result` / `shutdown` verbs to the same port. The
//! coordinator shards queued jobs across workers by content-addressed
//! cache key, supervises them with heartbeats (ping/pong with a pong
//! deadline) and per-job leases, and reassigns work from dead, partitioned
//! or stalled workers — at-least-once execution whose results are deduped
//! by cache key, so reassignment can never change an answer (each result
//! is a pure function of its spec; the sanitizer's digest audit proves
//! it). A sweep through the fleet is digest-identical to `gcl suite -j1`.
//!
//! The failure matrix is exercised, not hoped for: [`FleetInject`] is the
//! fleet's chaos layer (mirroring simsan's `SanInject`), with one injected
//! mode per failure class — drop-heartbeat, stall-worker, kill-mid-job,
//! corrupt-result-frame, partition — and one test per mode proving both
//! detection and recovery.
//!
//! A finished result lives in one place per role. The coordinator's job
//! table keeps every verified `done` payload and answers each later submit
//! of the same spec from it, whichever workers have died since; `--journal
//! PATH` makes the table durable — every job-table transition is appended
//! to a checksummed write-ahead [`journal`](Journal), which then also
//! holds the table's payloads (read back by offset); `--recover` replays
//! it after a crash (tolerating a torn tail), and re-joining workers
//! re-announce the leases they still hold over an `inventory` frame. On
//! the worker, the on-disk [`ResultCache`](crate::ResultCache) remembers
//! what that worker ran. Clients can open a `session` for an NDJSON event
//! stream with resumable cursors, and the coordinator sheds structured
//! errors under overload instead of stalling.
//!
//! Inside the coordinator the split is tables versus threads versus
//! bytes: `state` holds one `Fleet` (job table, workers, sessions,
//! counters, journal) with one method per job-table edge and the one fold
//! that replays a journal record into those tables; `coordinator` holds
//! the sockets, the supervisor and the verbs, which take the one mutex
//! around the `Fleet` and call those edges; and `journal` is a plain
//! record log — framing, torn-tail truncation, fsync batching, and
//! compaction as "replace the file with these records".

mod coordinator;
mod inject;
mod journal;
mod state;
mod worker;

pub use coordinator::{
    Coordinator, CoordinatorOptions, DECOMMISSIONED, LEASE_EXPIRED, WORKER_DEAD,
};
pub use inject::FleetInject;
pub use journal::{
    JCounter, Journal, JournalError, Record, Recovered, JOURNAL_MAGIC, JOURNAL_VERSION,
};
pub use worker::{run_worker, WorkerOptions, WorkerReport};

use crate::proto::{decode_key, hex_decode, hex_encode};
use gcl_mem::{fnv_fold_bytes, Dec, Enc, FNV_OFFSET};
use gcl_sim::LaunchStats;

/// Encode a result payload for the wire: the complete wire-format
/// [`LaunchStats`] as hex, plus an FNV checksum over the bytes. The
/// checksum is what lets the coordinator (and `suite --fleet` clients)
/// reject a corrupted frame instead of recording a wrong result.
pub fn encode_stats_payload(stats: &LaunchStats) -> (String, String) {
    let mut enc = Enc::new();
    stats.ckpt_encode(&mut enc);
    let bytes = enc.into_bytes();
    let sum = fnv_fold_bytes(FNV_OFFSET, &bytes);
    (hex_encode(&bytes), format!("0x{sum:016x}"))
}

/// Decode and checksum-verify a result payload produced by
/// [`encode_stats_payload`].
///
/// # Errors
///
/// A human-readable message on a checksum mismatch, bad hex, or an
/// undecodable stats body — all treated by callers as frame corruption.
pub fn decode_stats_payload(hex: &str, sum_text: &str) -> Result<LaunchStats, String> {
    decode_stats_bytes(hex, sum_text).map(|(stats, _)| stats)
}

/// [`decode_stats_payload`], also handing back the bytes the checksum was
/// verified over, so a caller that must keep them (the journal) holds
/// exactly what was checked and decodes the hex once.
fn decode_stats_bytes(hex: &str, sum_text: &str) -> Result<(LaunchStats, Vec<u8>), String> {
    let sum = decode_key(sum_text).map_err(|_| format!("bad checksum field `{sum_text}`"))?;
    let bytes = hex_decode(hex)?;
    let actual = fnv_fold_bytes(FNV_OFFSET, &bytes);
    if actual != sum {
        return Err(format!(
            "checksum mismatch (frame says 0x{sum:016x}, payload folds to 0x{actual:016x})"
        ));
    }
    let mut dec = Dec::new(&bytes);
    let stats =
        LaunchStats::ckpt_decode(&mut dec).map_err(|e| format!("undecodable stats: {e}"))?;
    if !dec.is_done() {
        return Err("trailing bytes after stats payload".to_string());
    }
    Ok((stats, bytes))
}

#[cfg(test)]
mod payload_tests {
    use super::*;

    #[test]
    fn stats_payload_round_trips_and_detects_corruption() {
        let stats = LaunchStats::default();
        let (hex, sum) = encode_stats_payload(&stats);
        let back = decode_stats_payload(&hex, &sum).unwrap();
        assert_eq!(back, stats);
        // A signed pair is not a hex byte, even when it folds to the same
        // bytes: "+0" would otherwise decode as 0x00 and pass the checksum.
        assert!(hex.starts_with("00"), "{hex}");
        let signed = format!("+0{}", &hex[2..]);
        let err = decode_stats_payload(&signed, &sum).unwrap_err();
        assert_eq!(err, "bad hex byte `+0`");
        // Flip one payload byte: the checksum must catch it.
        let mut corrupt = hex.into_bytes();
        corrupt[0] = if corrupt[0] == b'0' { b'1' } else { b'0' };
        let corrupt = String::from_utf8(corrupt).unwrap();
        let err = decode_stats_payload(&corrupt, &sum).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(decode_stats_payload("zz", &sum).is_err());
        assert!(decode_stats_payload("", "0xnope").is_err());
    }

    #[test]
    fn a_signed_checksum_is_a_bad_field() {
        let (hex, sum) = encode_stats_payload(&LaunchStats::default());
        let signed = format!("0x+{}", &sum[3..]);
        let err = decode_stats_payload(&hex, &signed).unwrap_err();
        assert_eq!(err, format!("bad checksum field `{signed}`"));
    }
}
