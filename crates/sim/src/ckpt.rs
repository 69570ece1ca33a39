//! Versioned checkpoint container for [`Gpu::snapshot`](crate::Gpu::snapshot)
//! / [`Gpu::restore`](crate::Gpu::restore).
//!
//! A snapshot is a compact binary image of the complete simulator state —
//! idle or mid-launch — sealed in the [`gcl_mem::wire`] envelope with:
//!
//! ```text
//! magic    "GCLSNAP1"
//! version  SNAPSHOT_VERSION
//! tag      config fingerprint (FNV-1a over the GpuConfig Debug form)
//! payload  the wire-encoded simulator state
//! ```
//!
//! [`Snapshot::from_bytes`] rejects truncated images, bad magic, checksum
//! mismatches (any flipped byte), and unknown versions; [`Gpu::restore`]
//! additionally rejects snapshots taken under a different configuration and
//! decodes the payload into temporaries before touching any live state, so
//! a rejected restore never leaves the GPU corrupted.
//!
//! [`Gpu::snapshot`]: crate::Gpu::snapshot
//! [`Gpu::restore`]: crate::Gpu::restore

use crate::GpuConfig;
use gcl_mem::{fnv_fold_bytes, open, seal, WireError, FNV_OFFSET};
use gcl_ptx::Kernel;
use std::cell::RefCell;
use std::fmt;
use std::path::Path;

/// Leading magic of every checkpoint file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"GCLSNAP1";

/// Current checkpoint format version. Bumped whenever the payload layout
/// changes; restore rejects any other version. Version 3 added the replay
/// fingerprint and per-warp replay cursors (trace-driven launches).
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a checkpoint could not be loaded or restored. The payload of
/// [`SimError::Checkpoint`](crate::SimError::Checkpoint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The image ends before the declared payload and checksum.
    Truncated,
    /// The trailing checksum does not match the image contents.
    ChecksumMismatch,
    /// The image was written by a different format version.
    VersionMismatch {
        /// Version found in the image.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot was taken under a different GPU configuration.
    ConfigMismatch {
        /// Configuration fingerprint in the image.
        found: u64,
        /// Fingerprint of the restoring GPU's configuration.
        expected: u64,
    },
    /// A resume was attempted with a different kernel than the one the
    /// snapshot's launch was running.
    KernelMismatch {
        /// Kernel fingerprint in the snapshot.
        found: u64,
        /// Fingerprint of the kernel supplied at resume.
        expected: u64,
    },
    /// The payload failed structural validation while decoding.
    Malformed(&'static str),
    /// Reading or writing the checkpoint file failed.
    Io(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} unsupported (this build reads {expected})"
            ),
            CheckpointError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint taken under a different GPU configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::KernelMismatch { found, expected } => write!(
                f,
                "checkpoint's launch ran a different kernel \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            CheckpointError::Malformed(what) => write!(f, "checkpoint malformed: {what}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> CheckpointError {
        match e {
            WireError::Truncated => CheckpointError::Truncated,
            WireError::Malformed(what) => CheckpointError::Malformed(what),
            WireError::BadMagic => CheckpointError::BadMagic,
            WireError::Checksum => CheckpointError::ChecksumMismatch,
        }
    }
}

thread_local! {
    /// The last configuration this thread fingerprinted, and its fold.
    static LAST_CONFIG: RefCell<Option<(GpuConfig, u64)>> = const { RefCell::new(None) };
}

/// Fingerprint of a GPU configuration (FNV-1a over its `Debug` form).
/// Stored in every snapshot; restore requires an exact match.
///
/// Each thread keeps the last configuration it folded and answers an equal
/// one without formatting it. Every field of [`GpuConfig`] is an integer, a
/// `bool` or an enum of those, so equal configurations print alike; debug
/// builds fold anyway and check the answer.
pub fn config_fingerprint(cfg: &GpuConfig) -> u64 {
    LAST_CONFIG.with_borrow_mut(|last| match last {
        Some((seen, fp)) if seen == cfg => {
            debug_assert_eq!(*fp, debug_fold(cfg), "equal configs print alike");
            *fp
        }
        _ => {
            let fp = debug_fold(cfg);
            *last = Some((cfg.clone(), fp));
            fp
        }
    })
}

/// The FNV-1a fold of `cfg`'s `Debug` form.
fn debug_fold(cfg: &GpuConfig) -> u64 {
    fnv_fold_bytes(FNV_OFFSET, format!("{cfg:?}").as_bytes())
}

/// Fingerprint of a kernel (FNV-1a over its `Debug` form, covering name,
/// parameters, and every instruction): [`Kernel::fingerprint`], computed
/// once per kernel value. Stored in mid-launch snapshots; resume requires
/// an exact match.
pub fn kernel_fingerprint(kernel: &Kernel) -> u64 {
    kernel.fingerprint()
}

/// One checkpoint image: the versioned, fingerprinted, wire-encoded
/// simulator state. Produced by [`Gpu::snapshot`](crate::Gpu::snapshot),
/// consumed by [`Gpu::restore`](crate::Gpu::restore).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Format version ([`SNAPSHOT_VERSION`] when produced by this build).
    pub version: u32,
    /// Fingerprint of the configuration the snapshot was taken under.
    pub config_fp: u64,
    /// The wire-encoded simulator state.
    pub payload: Vec<u8>,
}

impl Snapshot {
    /// Serialize to the on-disk container format (magic, version,
    /// fingerprint, length-prefixed payload, trailing checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(&SNAPSHOT_MAGIC, self.version, self.config_fp, &self.payload)
    }

    /// Parse a container written by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadMagic`], [`CheckpointError::Truncated`],
    /// [`CheckpointError::ChecksumMismatch`] (any corrupted byte), or
    /// [`CheckpointError::VersionMismatch`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
        let env = open(bytes, &SNAPSHOT_MAGIC)?;
        if env.version != SNAPSHOT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: env.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        Ok(Snapshot {
            version: env.version,
            config_fp: env.tag,
            payload: env.payload?.to_vec(),
        })
    }

    /// Write the container to a file, atomically ([`gcl_mem::publish`]): a
    /// crash mid-write never leaves a half-written checkpoint under the
    /// final name. Not fsynced — a torn file fails its checksum on read.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] with the underlying error's message.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        gcl_mem::publish(path, &self.to_bytes(), false)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))
    }

    /// Read and parse a container from a file.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on read failure, else as
    /// [`from_bytes`](Self::from_bytes).
    pub fn read_file(path: impl AsRef<Path>) -> Result<Snapshot, CheckpointError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Snapshot::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads alternate three configurations, two of them one cycle
    /// apart: every answer is the plain `Debug` fold.
    #[test]
    fn config_fingerprint_is_the_debug_fold_across_threads_and_configs() {
        let mut near = GpuConfig::small();
        near.max_cycles -= 1;
        let configs = [GpuConfig::small(), near, GpuConfig::fermi()];
        let want: Vec<u64> = configs.iter().map(debug_fold).collect();
        assert_ne!(want[0], want[1], "one cycle apart folds apart");
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (configs, want) = (&configs, &want);
                scope.spawn(move || {
                    for round in 0..30 {
                        let i = (round + t) % 3;
                        assert_eq!(config_fingerprint(&configs[i]), want[i], "thread {t}");
                        assert_eq!(config_fingerprint(&configs[i]), want[i], "repeat");
                    }
                });
            }
        });
    }

    fn sample() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            config_fp: 0xDEAD_BEEF,
            payload: (0..=255u8).collect(),
        }
    }

    #[test]
    fn container_roundtrip() {
        let s = sample();
        let bytes = s.to_bytes();
        assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn every_truncation_rejected() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch
                ),
                "truncation to {n} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_rejected() {
        let good = sample().to_bytes();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {i} accepted"
            );
        }
    }

    #[test]
    fn version_mismatch_named() {
        let mut s = sample();
        s.version = 99;
        let err = Snapshot::from_bytes(&s.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            CheckpointError::VersionMismatch {
                found: 99,
                expected: SNAPSHOT_VERSION
            }
        );
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn bad_magic_named() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        // Magic is checked before the checksum: garbage files get the
        // clearer report.
        assert_eq!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn file_roundtrip_and_io_error() {
        let dir = std::env::temp_dir().join("gcl-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.ckpt");
        let s = sample();
        s.write_file(&path).unwrap();
        assert_eq!(Snapshot::read_file(&path).unwrap(), s);
        std::fs::remove_file(&path).unwrap();
        let err = Snapshot::read_file(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
