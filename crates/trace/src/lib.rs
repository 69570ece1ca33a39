//! # gcl-trace — the `GCLTRACE1` capture/replay container
//!
//! A versioned, checksummed, columnar on-disk format for
//! [`gcl_sim`] issue traces, making trace-driven replay a first-class
//! simulation backend: capture once with a [`TraceWriter`] attached as the
//! GPU's [`TraceSink`](gcl_sim::TraceSink), then feed the recorded
//! [`LaunchReplay`](gcl_sim::LaunchReplay)s back through
//! [`Gpu::launch_replay`](gcl_sim::Gpu::launch_replay) — reproducing the
//! execution-driven event digests, cycle counts, and locality observations
//! exactly, without functional execution.
//!
//! ## File layout
//!
//! ```text
//! [0..8)    magic "GCLTRACE"
//! [8..12)   format version, u32 LE (currently 1)
//! [12..20)  config fingerprint of the capturing GPU, u64 LE
//! [20..28)  launch count, u64 LE
//! then per launch one [`gcl_mem::wire`] *section* (length, payload,
//! payload checksum) holding the launch payload described below
//! trailing:
//!   [8]     FNV-1a checksum of every preceding byte, u64 LE
//! ```
//!
//! Every length is validated against the remaining input before use (the
//! section reader is the wire codec's), both checksum layers must verify,
//! and the format version is checked by exact equality — a truncated, bit-flipped, or version-skewed file fails with a
//! structured [`TraceError`], never silently.
//!
//! ## Launch payload
//!
//! Wire-encoded ([`gcl_mem::Enc`]) as a header — kernel fingerprint, kernel
//! name, grid/block geometry, stream count — followed by one record block
//! per warp stream (stream `linear_cta * warps_per_cta + warp_in_cta`).
//! Each stream is stored *columnar*: a record count, then four
//! length-prefixed columns holding, for all records of the stream, the
//! delta-encoded pcs (zigzag varints against the previous pc), the active
//! masks (varints), the kind tags (one byte each), and the kind payloads.
//! Memory payloads delta-encode lane ids (ascending) and per-lane byte
//! addresses (zigzag varints against a per-stream running predictor), which
//! is where the bulk of the compression comes from: sequential access
//! streams collapse to one or two bytes per lane.
//!
//! The column codec is [`gcl_sim`]'s, shared with
//! [`MemorySink`](gcl_sim::MemorySink); a parsed container's streams are
//! [`ReplayStream`](gcl_sim::ReplayStream) handles into its bytes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod reader;
mod writer;

pub use reader::{parse_trace, read_trace, TraceFile, TraceLaunch};
pub use writer::{TraceSummary, TraceWriter};

use gcl_mem::WireError;
use std::fmt;

/// Leading magic of every trace file.
pub const TRACE_MAGIC: [u8; 8] = *b"GCLTRACE";

/// Current trace format version. Bumped whenever the layout changes;
/// reading rejects any other version by name.
pub const TRACE_VERSION: u32 = 1;

/// Why a trace container could not be written, read, or validated.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The file ended before a declared structure was complete.
    Truncated,
    /// The file was written by a different format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build reads ([`TRACE_VERSION`]).
        expected: u32,
    },
    /// A checksum did not verify; `what` names the failing layer
    /// (`"file"` or `"launch section"`).
    ChecksumMismatch {
        /// Which checksum layer failed.
        what: &'static str,
    },
    /// A structural invariant of the payload did not hold.
    Malformed(&'static str),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::Truncated => write!(f, "trace file truncated"),
            TraceError::VersionMismatch { found, expected } => {
                write!(f, "trace format version {found}, expected {expected}")
            }
            TraceError::ChecksumMismatch { what } => {
                write!(f, "trace {what} checksum mismatch (corrupt file)")
            }
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl From<WireError> for TraceError {
    fn from(e: WireError) -> TraceError {
        match e {
            WireError::Truncated => TraceError::Truncated,
            WireError::Malformed(what) => TraceError::Malformed(what),
            WireError::BadMagic => TraceError::BadMagic,
            // Sections are the only checksummed frame the wire codec
            // verifies for this container; the file trailer is checked by
            // the reader itself.
            WireError::Checksum => TraceError::ChecksumMismatch {
                what: "launch section",
            },
        }
    }
}
