//! Content-addressed trace store: captured `GCLTRACE1` containers filed
//! under the same spec key the result cache uses.
//!
//! A trace is a pure function of the
//! [`SpecFingerprint`](crate::SpecFingerprint) — configuration, kernels,
//! workload parameters — exactly
//! like a cached result, so the two stores share one addressing scheme:
//! `results/traces/<key>.gcltrace` next to `results/cache/<key>.bin`. A
//! suite run under `--replay` resolves each job to its trace by fingerprint
//! and feeds the timing model from the container instead of functional
//! execution; a fleet can ship a trace directory to workers and sweep
//! configurations without ever re-executing the workloads.
//!
//! Unlike the result cache, a broken trace is **not** a silent miss: replay
//! was explicitly requested, so an unreadable or mismatched container is a
//! structured job failure ([`ExecError::TraceUnreadable`] /
//! [`ExecError::TraceMismatch`]) — never a quiet fallback to execution,
//! which would invalidate any replay-speed measurement built on top.

use crate::job::{ExecError, JobSpec};
use gcl_sim::{kernel_fingerprint, Gpu, LaunchStats};
use gcl_trace::{read_trace, TraceError, TraceSummary, TraceWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A directory of content-addressed trace containers.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    /// A store rooted at `dir` (created lazily on first capture).
    pub fn new(dir: impl Into<PathBuf>) -> TraceStore {
        TraceStore { dir: dir.into() }
    }

    /// The conventional location: `results/traces` under the working
    /// directory, next to the result cache.
    pub fn default_dir() -> TraceStore {
        TraceStore::new("results/traces")
    }

    /// The directory containers live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the container for `key` (a [`SpecFingerprint::key`]).
    ///
    /// [`SpecFingerprint::key`]: crate::job::SpecFingerprint::key
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.gcltrace"))
    }

    /// Path of the container `spec` resolves to.
    ///
    /// # Errors
    ///
    /// [`ExecError::UnknownWorkload`] if the spec names no workload.
    pub fn path_for(&self, spec: &JobSpec) -> Result<PathBuf, ExecError> {
        Ok(self.entry_path(spec.fingerprint()?.key()))
    }

    /// Whether a container exists for `spec` (existence only; [`replay`]
    /// still validates it fully).
    ///
    /// [`replay`]: Self::replay
    pub fn contains(&self, spec: &JobSpec) -> Result<bool, ExecError> {
        Ok(self.path_for(spec)?.exists())
    }

    /// Execute `spec` once with a capture sink attached, filing the
    /// container under the spec's key. Returns the execution-driven
    /// statistics (the replay reference) and the capture summary.
    ///
    /// A failed simulation removes the partial container: the store only
    /// ever holds complete, checksummed captures.
    ///
    /// # Errors
    ///
    /// [`ExecError::UnknownWorkload`], [`ExecError::Sim`], or
    /// [`ExecError::Io`] when the container cannot be written.
    pub fn capture(&self, spec: &JobSpec) -> Result<(LaunchStats, TraceSummary), ExecError> {
        let fp = spec.fingerprint()?;
        let w = spec.find_workload()?;
        let path = self.entry_path(fp.key());
        std::fs::create_dir_all(&self.dir).map_err(|e| ExecError::Io {
            path: self.dir.display().to_string(),
            error: e.to_string(),
        })?;
        let io_err = |e: TraceError| ExecError::Io {
            path: path.display().to_string(),
            error: e.to_string(),
        };
        let writer = TraceWriter::create(&path, fp.config_fp).map_err(io_err)?;
        let sink = Arc::new(Mutex::new(writer));
        let mut gpu = Gpu::new(spec.cfg.clone())?;
        gpu.set_trace_sink(Some(Box::new(sink.clone())));
        let run = w.run(&mut gpu);
        gpu.set_trace_sink(None);
        let writer = Arc::try_unwrap(sink)
            .expect("capture sink detached")
            .into_inner()
            .expect("capture sink lock poisoned");
        match run {
            Ok(run) => {
                let summary = writer.finish().map_err(io_err)?;
                Ok((run.stats, summary))
            }
            Err(e) => {
                // Dropping the writer removes its scratch files; no partial
                // container was published (finish is what renames into
                // place).
                drop(writer);
                Err(ExecError::Sim(e))
            }
        }
    }

    /// Replay `spec` from its stored container: feed the timing model the
    /// captured instruction streams, launch by launch in capture order on
    /// one GPU (so warm-cache state carries across launches exactly as it
    /// did at capture), and return the merged statistics.
    ///
    /// # Errors
    ///
    /// * [`ExecError::TraceUnreadable`] — no container for this spec, or
    ///   the container fails structural validation.
    /// * [`ExecError::TraceMismatch`] — the container is valid but was
    ///   captured under a different format version, configuration, or
    ///   kernel set than the spec resolves to.
    /// * [`ExecError::Sim`] — the replay itself faulted.
    pub fn replay(&self, spec: &JobSpec) -> Result<LaunchStats, ExecError> {
        let fp = spec.fingerprint()?;
        let path = self.entry_path(fp.key());
        let path_str = path.display().to_string();
        let trace = read_trace(&path).map_err(|e| match e {
            // A version-skewed container is a protocol mismatch (the file
            // is fine, this build just speaks another format); everything
            // else means the container cannot be trusted at all.
            TraceError::VersionMismatch { .. } => ExecError::TraceMismatch {
                path: path_str.clone(),
                error: e.to_string(),
            },
            _ => ExecError::TraceUnreadable {
                path: path_str.clone(),
                error: e.to_string(),
            },
        })?;
        if trace.config_fp != fp.config_fp {
            return Err(ExecError::TraceMismatch {
                path: path_str,
                error: format!(
                    "captured under configuration {:016x}, spec resolves to {:016x}",
                    trace.config_fp, fp.config_fp
                ),
            });
        }
        let w = spec.find_workload()?;
        let kernels = w.kernels();
        let mut gpu = Gpu::new(spec.cfg.clone())?;
        let mut merged = LaunchStats::default();
        for launch in &trace.launches {
            let kernel = kernels
                .iter()
                .find(|k| kernel_fingerprint(k) == launch.replay.kernel_fp)
                .ok_or_else(|| ExecError::TraceMismatch {
                    path: path_str.clone(),
                    error: format!(
                        "captured kernel `{}` ({:016x}) matches no kernel of `{}`",
                        launch.kernel_name, launch.replay.kernel_fp, spec.workload
                    ),
                })?;
            let stats = gpu.launch_replay(kernel, &launch.replay)?;
            merged.merge(&stats);
        }
        // The runner names merged stats after the workload; replay output
        // must compare equal to the execution-driven result.
        merged.name = spec.workload.clone();
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_sim::GpuConfig;

    fn store() -> (TraceStore, tempdir::Guard) {
        tempdir::fresh("trace-store")
    }

    /// Minimal self-cleaning temp directory (no external crates).
    mod tempdir {
        use super::TraceStore;
        use std::path::PathBuf;

        pub struct Guard(PathBuf);
        impl Drop for Guard {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }

        pub fn fresh(tag: &str) -> (TraceStore, Guard) {
            static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let mut p = std::env::temp_dir();
            p.push(format!(
                "gcl-exec-{tag}-{}-{}",
                std::process::id(),
                N.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            (TraceStore::new(&p), Guard(p))
        }
    }

    fn spec(name: &str) -> JobSpec {
        let mut cfg = GpuConfig::small();
        cfg.sanitize = true;
        JobSpec::new(name, true, cfg)
    }

    #[test]
    fn capture_then_replay_reproduces_stats() {
        let (store, _guard) = store();
        let spec = spec("2mm");
        assert!(!store.contains(&spec).unwrap());
        let (exec_stats, summary) = store.capture(&spec).unwrap();
        assert!(store.contains(&spec).unwrap());
        assert_eq!(summary.launches, exec_stats.launches);
        let replayed = store.replay(&spec).unwrap();
        assert_eq!(replayed, exec_stats);
    }

    #[test]
    fn missing_trace_is_unreadable_not_a_fallback() {
        let (store, _guard) = store();
        match store.replay(&spec("2mm")) {
            Err(ExecError::TraceUnreadable { path, .. }) => {
                assert!(path.ends_with(".gcltrace"));
            }
            other => panic!("missing container gave {other:?}"),
        }
    }

    #[test]
    fn config_mismatch_is_structured() {
        let (store, _guard) = store();
        let captured = spec("2mm");
        store.capture(&captured).unwrap();
        // Same key would be a different file; force the mismatch by moving
        // the container under the other spec's key.
        let mut other = captured.clone();
        other.cfg.max_cycles += 1;
        std::fs::rename(
            store.path_for(&captured).unwrap(),
            store.path_for(&other).unwrap(),
        )
        .unwrap();
        match store.replay(&other) {
            Err(ExecError::TraceMismatch { error, .. }) => {
                assert!(error.contains("configuration"), "got: {error}");
            }
            other => panic!("config mismatch gave {other:?}"),
        }
    }

    #[test]
    fn unknown_workload_rejected_before_touching_disk() {
        let (store, _guard) = store();
        assert!(matches!(
            store.capture(&spec("nope")),
            Err(ExecError::UnknownWorkload(_))
        ));
        assert!(!store.dir().exists());
    }
}
