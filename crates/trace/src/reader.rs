//! Trace container reading: full structural validation — magic, version,
//! whole-file checksum, per-section checksums, and every column decoded and
//! bounds-checked — before any launch is handed to replay. Validation keeps
//! no decoded record: a launch's streams are
//! [`ReplayStream`](gcl_sim::ReplayStream) handles into the container's
//! bytes, held once.

use crate::{TraceError, TRACE_MAGIC, TRACE_VERSION};
use gcl_mem::{fnv_fold_bytes, Dec, FNV_OFFSET};
use gcl_sim::LaunchReplay;
use std::fs::File;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// A fully validated trace container.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Configuration fingerprint of the capturing GPU
    /// ([`gcl_sim::config_fingerprint`]); replay must run under a
    /// configuration with the same fingerprint to reproduce timing.
    pub config_fp: u64,
    /// The container's trailing whole-file checksum — its content address.
    pub file_fp: u64,
    /// Captured launches, in capture order.
    pub launches: Vec<TraceLaunch>,
}

impl TraceFile {
    /// Warp instructions recorded across all launches.
    pub fn n_records(&self) -> u64 {
        self.launches.iter().map(|l| l.replay.n_records()).sum()
    }
}

/// One captured launch.
#[derive(Debug, Clone)]
pub struct TraceLaunch {
    /// Kernel name at capture (diagnostic; the fingerprint inside
    /// [`LaunchReplay`] is authoritative).
    pub kernel_name: String,
    /// The replayable launch.
    pub replay: LaunchReplay,
}

/// Read and validate a trace container from disk.
///
/// # Errors
///
/// [`TraceError::Io`] when the file cannot be read; otherwise as
/// [`parse_trace`].
pub fn read_trace(path: impl AsRef<Path>) -> Result<TraceFile, TraceError> {
    parse_shared(read_shared(path.as_ref())?)
}

/// Read a whole file straight into shared bytes, with no second copy.
fn read_shared(path: &Path) -> std::io::Result<Arc<[u8]>> {
    let mut f = File::open(path)?;
    let len = usize::try_from(f.metadata()?.len())
        .map_err(|_| std::io::Error::other("trace file larger than the address space"))?;
    let mut bytes: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    f.read_exact(Arc::get_mut(&mut bytes).expect("fresh buffer"))?;
    Ok(bytes)
}

/// Validate and decode a trace container from bytes.
///
/// # Errors
///
/// * [`TraceError::BadMagic`] — not a trace file.
/// * [`TraceError::VersionMismatch`] — written by another format version.
/// * [`TraceError::Truncated`] — bytes end before a declared structure.
/// * [`TraceError::ChecksumMismatch`] — file or section checksum failed.
/// * [`TraceError::Malformed`] — a structural invariant did not hold.
pub fn parse_trace(bytes: &[u8]) -> Result<TraceFile, TraceError> {
    parse_shared(bytes.into())
}

fn parse_shared(file: Arc<[u8]>) -> Result<TraceFile, TraceError> {
    let bytes = &file[..];
    if bytes.len() < 8 {
        return Err(TraceError::Truncated);
    }
    if bytes[..8] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    // Header + trailing checksum. Version is checked before the checksum so
    // a future-format file reports the version skew, not a checksum error.
    const HEADER: usize = 8 + 4 + 8 + 8;
    if bytes.len() < HEADER + 8 {
        return Err(TraceError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("header slice"));
    if version != TRACE_VERSION {
        return Err(TraceError::VersionMismatch {
            found: version,
            expected: TRACE_VERSION,
        });
    }
    let body = &bytes[..bytes.len() - 8];
    let declared = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("tail slice"));
    let file_fp = fnv_fold_bytes(FNV_OFFSET, body);
    if declared != file_fp {
        return Err(TraceError::ChecksumMismatch { what: "file" });
    }
    let config_fp = u64::from_le_bytes(bytes[12..20].try_into().expect("header slice"));
    let n_launches = u64::from_le_bytes(bytes[20..28].try_into().expect("header slice"));
    let mut sections = Dec::new(&body[HEADER..]);
    let mut launches = Vec::new();
    for _ in 0..n_launches {
        let (kernel_name, replay) = LaunchReplay::read_launch(&file, sections.section()?)?;
        launches.push(TraceLaunch {
            kernel_name,
            replay,
        });
    }
    if !sections.is_done() {
        return Err(TraceError::Malformed("trailing bytes after last section"));
    }
    Ok(TraceFile {
        config_fp,
        file_fp,
        launches,
    })
}
