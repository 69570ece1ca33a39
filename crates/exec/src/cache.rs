//! Content-addressed result cache.
//!
//! Launches are deterministic (PR 2's digest audit proves it), so a
//! simulation's complete statistics are a pure function of the
//! [`SpecFingerprint`]: configuration fingerprint,
//! kernel fingerprint, workload parameters, and format version. Entries
//! live under `results/cache/<key>.bin`, sealed in the same
//! [`gcl_mem::wire`] envelope as checkpoints with:
//!
//! ```text
//! magic    "GCLEXEC1"
//! version  CACHE_VERSION
//! tag      cache key
//! payload  fingerprint fields + wall_ms + wire-encoded stats
//! ```
//!
//! Every rejection — absent, truncated, corrupt checksum, version skew,
//! key or fingerprint mismatch, malformed payload — is a silent cache
//! *miss*: the job recomputes and rewrites the entry. A broken cache can
//! cost time but never correctness, mirroring the checkpoint rejection
//! matrix. [`ResultCache::load_checked`] exposes the precise miss reason
//! for tests and diagnostics.

use crate::job::SpecFingerprint;
use gcl_mem::{open, seal, Dec, Enc, Wire, WireError};
use gcl_sim::LaunchStats;
use std::fmt;
use std::path::{Path, PathBuf};

/// Leading magic of every cache entry.
pub const CACHE_MAGIC: [u8; 8] = *b"GCLEXEC1";

/// Cache format version; part of both the container header and the cache
/// key, so bumping it orphans (rather than misreads) old entries.
///
/// Version 2: `LaunchStats` gained the debug-trace drop counter
/// (`trace_dropped`) in its wire encoding.
pub const CACHE_VERSION: u32 = 2;

/// Why a lookup did not produce a result. Every variant is handled the same
/// way — recompute and rewrite — but tests pin each path down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMiss {
    /// No entry file for this key.
    Absent,
    /// The entry ends before the declared payload and checksum.
    Truncated,
    /// The file does not start with the cache magic.
    BadMagic,
    /// The trailing checksum does not match the entry contents.
    ChecksumMismatch,
    /// The entry was written by a different format version.
    VersionSkew {
        /// Version found in the entry.
        found: u32,
    },
    /// The key recorded in the entry is not the key it was filed under.
    KeyMismatch,
    /// The entry's full fingerprint differs from the requested spec's: a
    /// 64-bit key collision, detected instead of served.
    FingerprintCollision,
    /// The payload failed structural validation while decoding.
    Malformed(&'static str),
}

impl fmt::Display for CacheMiss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMiss::Absent => write!(f, "no cache entry"),
            CacheMiss::Truncated => write!(f, "cache entry truncated"),
            CacheMiss::BadMagic => write!(f, "not a cache entry (bad magic)"),
            CacheMiss::ChecksumMismatch => write!(f, "cache entry checksum mismatch"),
            CacheMiss::VersionSkew { found } => write!(
                f,
                "cache entry format version {found} (this build writes {CACHE_VERSION})"
            ),
            CacheMiss::KeyMismatch => write!(f, "cache entry filed under the wrong key"),
            CacheMiss::FingerprintCollision => {
                write!(f, "cache key collision (fingerprints differ)")
            }
            CacheMiss::Malformed(what) => write!(f, "cache entry malformed: {what}"),
        }
    }
}

impl From<WireError> for CacheMiss {
    fn from(e: WireError) -> CacheMiss {
        match e {
            WireError::Truncated => CacheMiss::Truncated,
            WireError::Malformed(what) => CacheMiss::Malformed(what),
            WireError::BadMagic => CacheMiss::BadMagic,
            WireError::Checksum => CacheMiss::ChecksumMismatch,
        }
    }
}

/// A cached simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The complete statistics of the original run.
    pub stats: LaunchStats,
    /// Wall-clock milliseconds the original simulation took.
    pub wall_ms: f64,
}

/// A directory of content-addressed result entries.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into() }
    }

    /// The conventional location: `results/cache` under the working
    /// directory, next to the suite's `results/run.json` manifest.
    pub fn default_dir() -> ResultCache {
        ResultCache::new("results/cache")
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.bin"))
    }

    /// Look up `fp`, reporting exactly why a miss missed.
    ///
    /// # Errors
    ///
    /// The [`CacheMiss`] reason; callers on the hot path use [`load`]
    /// (any miss is simply "recompute").
    ///
    /// [`load`]: Self::load
    pub fn load_checked(&self, fp: &SpecFingerprint) -> Result<CachedResult, CacheMiss> {
        let key = fp.key();
        let bytes = std::fs::read(self.entry_path(key)).map_err(|_| CacheMiss::Absent)?;
        let env = open(&bytes, &CACHE_MAGIC)?;
        if env.version != CACHE_VERSION {
            return Err(CacheMiss::VersionSkew { found: env.version });
        }
        if env.tag != key {
            return Err(CacheMiss::KeyMismatch);
        }
        let mut d = Dec::new(env.payload?);
        if SpecFingerprint::get(&mut d)? != *fp {
            return Err(CacheMiss::FingerprintCollision);
        }
        let (wall_ms, stats) = Wire::get(&mut d)?;
        if !d.is_done() {
            return Err(CacheMiss::Malformed("trailing bytes"));
        }
        Ok(CachedResult { stats, wall_ms })
    }

    /// Look up `fp`; any rejection is a plain miss.
    pub fn load(&self, fp: &SpecFingerprint) -> Option<CachedResult> {
        self.load_checked(fp).ok()
    }

    /// Store a fresh result under `fp`'s key, atomically
    /// ([`gcl_mem::publish`], not fsynced): a crash mid-store never leaves
    /// a torn entry under the final name — it would be rejected anyway —
    /// and two workers storing one key concurrently each publish a
    /// complete image, either of which is valid.
    ///
    /// # Errors
    ///
    /// A human-readable message on i/o failure. Callers treat store
    /// failures as a warning: the cache is an accelerator, not a ledger.
    pub fn store(
        &self,
        fp: &SpecFingerprint,
        stats: &LaunchStats,
        wall_ms: f64,
    ) -> Result<(), String> {
        let key = fp.key();
        let mut enc = Enc::new();
        fp.put(&mut enc);
        wall_ms.put(&mut enc);
        stats.put(&mut enc);
        let out = seal(&CACHE_MAGIC, CACHE_VERSION, key, &enc.into_bytes());

        let path = self.entry_path(key);
        gcl_mem::publish(&path, &out, false)
            .map_err(|e| format!("cannot store {}: {e}", path.display()))
    }
}
