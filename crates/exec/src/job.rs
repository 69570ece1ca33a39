//! The unit of work: one workload simulated under one configuration.
//!
//! A [`JobSpec`] names everything that determines a simulation's outcome —
//! the workload (by Table I name), the input scale, and the complete
//! [`GpuConfig`] — which is exactly what the result cache fingerprints.
//! [`run_job`] executes one spec on the calling thread with panic
//! isolation: a panicking simulation becomes a failed [`JobResult`], never
//! a dead worker.

use crate::cache::ResultCache;
use crate::trace_store::TraceStore;
use gcl_mem::{fnv_fold, fnv_fold_bytes, FNV_OFFSET};
use gcl_sim::{config_fingerprint, kernel_fingerprint, Gpu, GpuConfig, LaunchStats, SimError};
use gcl_workloads::{all_workloads, tiny_workloads, Workload};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel fold of every workload at both scales, keyed by name and
/// `tiny`, built once on first use. Building a workload's kernels and
/// hashing their `Debug` text costs tens of microseconds, and the result
/// cannot change while the process runs.
static KERNELS_FP: OnceLock<HashMap<(&'static str, bool), u64>> = OnceLock::new();

/// Why a job failed. String payloads keep the type `Send` and cheap to ship
/// across worker threads and the serve protocol.
#[derive(Debug)]
pub enum ExecError {
    /// The spec names a workload the toolkit does not have.
    UnknownWorkload(String),
    /// The simulation itself failed (structured simulator error).
    Sim(SimError),
    /// The simulation panicked; the payload is the panic message. The
    /// worker that ran it survives.
    Panic(String),
    /// A fleet worker reported this failure over the wire; the payload is
    /// its structured error message verbatim.
    Remote(String),
    /// Reading or parsing a file failed; carries the path so the caller
    /// can say *which* file without re-deriving it.
    Io {
        /// The file that failed to read or parse.
        path: String,
        /// What went wrong (I/O error or parse diagnostic).
        error: String,
    },
    /// Replay was requested but the trace container is missing or fails
    /// structural validation (truncated, corrupt, bad magic). The CLI maps
    /// this to exit code 2.
    TraceUnreadable {
        /// The container that could not be read.
        path: String,
        /// The structural rejection.
        error: String,
    },
    /// Replay was requested and the container is structurally sound, but it
    /// does not match the spec: format version skew, configuration
    /// fingerprint drift, or a captured kernel the workload no longer has.
    /// The CLI maps this to exit code 3.
    TraceMismatch {
        /// The container that mismatched.
        path: String,
        /// Which fingerprint or version disagreed, and how.
        error: String,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownWorkload(name) => {
                write!(f, "no workload named `{name}`")
            }
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Panic(msg) => write!(f, "job panicked: {msg}"),
            ExecError::Remote(msg) => write!(f, "{msg}"),
            ExecError::Io { path, error } => write!(f, "{path}: {error}"),
            ExecError::TraceUnreadable { path, error } => {
                write!(f, "cannot replay {path}: {error}")
            }
            ExecError::TraceMismatch { path, error } => {
                write!(f, "trace {path} does not match this spec: {error}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> ExecError {
        ExecError::Sim(e)
    }
}

/// The default configuration of a job's scale: [`GpuConfig::small`] for the
/// tiny inputs, [`GpuConfig::fermi`] for the benchmark scale.
fn scale_config(tiny: bool) -> GpuConfig {
    if tiny {
        GpuConfig::small()
    } else {
        GpuConfig::fermi()
    }
}

/// One simulation to run: workload name, input scale, configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Workload name as in the paper's Table I (`"bfs"`, `"2mm"`, ...).
    pub workload: String,
    /// Run the tiny (test) inputs instead of the benchmark scale.
    pub tiny: bool,
    /// Complete GPU configuration (flags like `sanitize`, `memcheck` and
    /// `max_cycles` live here and are part of the cache identity).
    pub cfg: GpuConfig,
}

impl JobSpec {
    /// Build a spec.
    pub fn new(workload: impl Into<String>, tiny: bool, cfg: GpuConfig) -> JobSpec {
        JobSpec {
            workload: workload.into(),
            tiny,
            cfg,
        }
    }

    /// The spec a submit names: the scale's configuration with the
    /// sanitizer switch and, when given, a cycle budget over the scale's
    /// own. These four values are all of a spec that leaves the process —
    /// in a `submit` or `assign` frame and in the journal's `Submit`
    /// record — and [`cycle_override`](Self::cycle_override) reads the
    /// fourth back.
    pub fn submitted(
        workload: impl Into<String>,
        tiny: bool,
        sanitize: bool,
        max_cycles: Option<u64>,
    ) -> JobSpec {
        let mut cfg = scale_config(tiny);
        cfg.sanitize = sanitize;
        cfg.max_cycles = max_cycles.unwrap_or(cfg.max_cycles);
        JobSpec::new(workload, tiny, cfg)
    }

    /// The cycle budget when it is not the scale's default (loadgen's
    /// cache-busting variants, a starved `--force-fail` run). It must
    /// survive the trip to a worker and through the journal, or the digest
    /// would differ.
    pub fn cycle_override(&self) -> Option<u64> {
        let default = scale_config(self.tiny).max_cycles;
        (self.cfg.max_cycles != default).then_some(self.cfg.max_cycles)
    }

    /// Instantiate the workload this spec names.
    ///
    /// # Errors
    ///
    /// [`ExecError::UnknownWorkload`] if the name matches nothing.
    pub fn find_workload(&self) -> Result<Box<dyn Workload>, ExecError> {
        let set = if self.tiny {
            tiny_workloads()
        } else {
            all_workloads()
        };
        set.into_iter()
            .find(|w| w.name() == self.workload)
            .ok_or_else(|| ExecError::UnknownWorkload(self.workload.clone()))
    }

    /// Compute the spec's cache identity: configuration fingerprint, kernel
    /// fingerprint (folded over every kernel the workload launches, in
    /// order), and the workload parameters (name + scale).
    ///
    /// # Errors
    ///
    /// [`ExecError::UnknownWorkload`] if the name matches nothing.
    pub fn fingerprint(&self) -> Result<SpecFingerprint, ExecError> {
        Ok(SpecFingerprint {
            workload: self.workload.clone(),
            tiny: self.tiny,
            config_fp: config_fingerprint(&self.cfg),
            kernels_fp: self.kernels_fp()?,
        })
    }

    /// The fold of every kernel's fingerprint the workload launches, read
    /// from a table of all 30 (workload, scale) pairs.
    fn kernels_fp(&self) -> Result<u64, ExecError> {
        let memo = KERNELS_FP.get_or_init(|| {
            let mut memo = HashMap::new();
            for (tiny, set) in [(false, all_workloads()), (true, tiny_workloads())] {
                for w in set {
                    let fp = w
                        .kernels()
                        .iter()
                        .map(kernel_fingerprint)
                        .fold(FNV_OFFSET, fnv_fold);
                    memo.insert((w.name(), tiny), fp);
                }
            }
            memo
        });
        memo.get(&(self.workload.as_str(), self.tiny))
            .copied()
            .ok_or_else(|| ExecError::UnknownWorkload(self.workload.clone()))
    }
}

/// The content identity of a [`JobSpec`]: everything the result depends on,
/// reduced to fingerprints. Stored verbatim inside each cache entry so a
/// 64-bit key collision is detected instead of serving a wrong result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecFingerprint {
    /// Workload name.
    pub workload: String,
    /// Input scale.
    pub tiny: bool,
    /// FNV fingerprint of the [`GpuConfig`] (from `gcl-sim`'s checkpoint
    /// layer, so cache identity and checkpoint identity agree).
    pub config_fp: u64,
    /// FNV fold of every kernel's fingerprint, in launch-declaration order.
    pub kernels_fp: u64,
}

// Stored at the head of every cache entry's payload.
gcl_mem::declare_wire! { SpecFingerprint { workload, tiny, config_fp, kernels_fp } }

impl SpecFingerprint {
    /// The content-addressed cache key: an FNV fold over the config
    /// fingerprint, kernel fingerprint, workload parameters, and the cache
    /// format version (so a format bump invalidates every old entry by
    /// construction).
    pub fn key(&self) -> u64 {
        let mut h = fnv_fold_bytes(FNV_OFFSET, self.workload.as_bytes());
        h = fnv_fold(h, u64::from(self.tiny));
        h = fnv_fold(h, self.config_fp);
        h = fnv_fold(h, self.kernels_fp);
        fnv_fold(h, u64::from(crate::cache::CACHE_VERSION))
    }
}

/// What a successful job produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Merged statistics over the workload's launches (the digest, when the
    /// sanitizer was on, is `stats.digest`).
    pub stats: LaunchStats,
    /// Wall-clock milliseconds the simulation took (the *original* run's
    /// time when served from cache).
    pub wall_ms: f64,
    /// Whether the result came from the content-addressed cache instead of
    /// a fresh simulation.
    pub cached: bool,
}

/// The outcome of one job: its spec plus either the output or the error
/// that stopped it.
#[derive(Debug)]
pub struct JobResult {
    /// The spec that ran.
    pub spec: JobSpec,
    /// Output, or why the job failed.
    pub outcome: Result<JobOutput, ExecError>,
    /// Attempts consumed (1 for a first-try success; 0 for a cache hit).
    pub attempts: u64,
}

impl JobResult {
    /// The digest of a successful run, if the sanitizer produced one.
    pub fn digest(&self) -> Option<u64> {
        self.outcome.as_ref().ok().and_then(|o| o.stats.digest)
    }
}

/// Simulate `spec` once (no cache, no retries), with the same semantics
/// `gcl suite` has: under `cfg.sanitize` the workload runs twice and the
/// two event digests must agree (determinism audit).
fn simulate(spec: &JobSpec) -> Result<LaunchStats, ExecError> {
    let w = spec.find_workload()?;
    let run = Gpu::new(spec.cfg.clone()).and_then(|mut gpu| w.run(&mut gpu))?;
    if spec.cfg.sanitize {
        let second = Gpu::new(spec.cfg.clone()).and_then(|mut gpu| w.run(&mut gpu))?;
        gcl_sim::check_digests(w.name(), run.stats.digest, second.stats.digest)
            .map_err(SimError::Sanitizer)?;
    }
    Ok(run.stats)
}

/// Execute one job on the calling thread: consult the cache (when given),
/// simulate on a miss, store the fresh result back, and convert panics into
/// [`ExecError::Panic`] so the caller's thread always survives.
pub fn run_job(spec: &JobSpec, cache: Option<&ResultCache>) -> JobResult {
    run_job_from(spec, cache, None)
}

/// [`run_job`], optionally sourcing results from captured traces instead of
/// functional execution. With a [`TraceStore`], a cache miss replays the
/// spec's container (structured failure if it is absent or mismatched —
/// never a silent fallback to execution); without one, it simulates.
pub fn run_job_from(
    spec: &JobSpec,
    cache: Option<&ResultCache>,
    traces: Option<&TraceStore>,
) -> JobResult {
    let fp = match spec.fingerprint() {
        Ok(fp) => Some(fp),
        Err(e) => {
            // Unknown workload: fail without touching the simulator.
            return JobResult {
                spec: spec.clone(),
                outcome: Err(e),
                attempts: 1,
            };
        }
    };
    if let (Some(cache), Some(fp)) = (cache, fp.as_ref()) {
        if let Some(hit) = cache.load(fp) {
            return JobResult {
                spec: spec.clone(),
                outcome: Ok(JobOutput {
                    stats: hit.stats,
                    wall_ms: hit.wall_ms,
                    cached: true,
                }),
                attempts: 0,
            };
        }
    }
    let t0 = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(|| match traces {
        Some(store) => store.replay(spec),
        None => simulate(spec),
    })) {
        Ok(r) => r,
        Err(payload) => Err(ExecError::Panic(panic_message(payload.as_ref()))),
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let outcome = outcome.map(|stats| {
        if let (Some(cache), Some(fp)) = (cache, fp.as_ref()) {
            if let Err(e) = cache.store(fp, &stats, wall_ms) {
                eprintln!("warning: result cache write failed: {e}");
            }
        }
        JobOutput {
            stats,
            wall_ms,
            cached: false,
        }
    });
    JobResult {
        spec: spec.clone(),
        outcome,
        attempts: 1,
    }
}

/// Extract a readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> JobSpec {
        JobSpec::new(name, true, GpuConfig::small())
    }

    #[test]
    fn unknown_workload_is_structured() {
        let r = run_job(&spec("nope"), None);
        assert!(matches!(r.outcome, Err(ExecError::UnknownWorkload(_))));
        assert!(r.outcome.unwrap_err().to_string().contains("`nope`"));
    }

    #[test]
    fn fingerprint_distinguishes_config_scale_and_workload() {
        let base = spec("bfs").fingerprint().unwrap();
        assert_eq!(spec("bfs").fingerprint().unwrap().key(), base.key());
        assert_ne!(spec("sssp").fingerprint().unwrap().key(), base.key());
        let full = JobSpec::new("bfs", false, GpuConfig::small());
        assert_ne!(full.fingerprint().unwrap().key(), base.key());
        let mut cfg = GpuConfig::small();
        cfg.sanitize = true;
        let sanitized = JobSpec::new("bfs", true, cfg);
        assert_ne!(sanitized.fingerprint().unwrap().key(), base.key());
    }

    #[test]
    fn fingerprint_equals_the_uncached_fold_for_every_workload_and_scale() {
        let mut pairs = 0;
        for tiny in [true, false] {
            let set = if tiny {
                tiny_workloads()
            } else {
                all_workloads()
            };
            for w in set {
                let mut cfg = GpuConfig::small();
                cfg.sanitize = tiny;
                let spec = JobSpec::new(w.name(), tiny, cfg);
                let uncached = SpecFingerprint {
                    workload: w.name().to_string(),
                    tiny,
                    config_fp: config_fingerprint(&spec.cfg),
                    kernels_fp: w
                        .kernels()
                        .iter()
                        .map(kernel_fingerprint)
                        .fold(FNV_OFFSET, fnv_fold),
                };
                // The first call may fill a memo and the second read it.
                for _ in 0..2 {
                    let fp = spec.fingerprint().unwrap();
                    assert_eq!(fp, uncached, "{} tiny={tiny}", w.name());
                    assert_eq!(fp.key(), uncached.key());
                }
                pairs += 1;
            }
        }
        assert_eq!(pairs, 30);
        for tiny in [true, false] {
            for _ in 0..2 {
                let unknown = JobSpec::new("nope", tiny, GpuConfig::small()).fingerprint();
                assert!(
                    matches!(&unknown, Err(ExecError::UnknownWorkload(name)) if name == "nope"),
                    "{unknown:?}"
                );
            }
        }
    }

    #[test]
    fn job_runs_and_reports_stats() {
        let r = run_job(&spec("2mm"), None);
        let out = r.outcome.expect("2mm tiny must complete");
        assert!(out.stats.cycles > 0);
        assert!(!out.cached);
        assert_eq!(r.attempts, 1);
    }

    #[test]
    fn sim_error_propagates_structurally() {
        let mut cfg = GpuConfig::small();
        cfg.max_cycles = 10;
        let r = run_job(&JobSpec::new("bfs", true, cfg), None);
        assert!(matches!(
            r.outcome,
            Err(ExecError::Sim(SimError::Timeout { .. }))
        ));
    }
}
