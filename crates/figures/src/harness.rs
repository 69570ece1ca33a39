//! Shared harness: run every workload on a configured GPU and collect the
//! per-workload results every figure draws from.

use gcl_exec::args::{Command, Flag};
use gcl_ptx::Kernel;
use gcl_sim::{BlockSummary, Gpu, GpuConfig, LaunchStats, SimError};
use gcl_workloads::{all_workloads, tiny_workloads, Category, Workload};

/// Everything one workload produced in one full run.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name (Table I).
    pub name: &'static str,
    /// Application category.
    pub category: Category,
    /// Merged launch statistics.
    pub stats: LaunchStats,
    /// Total CTAs launched.
    pub total_ctas: u64,
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Static classification counts over the workload's kernels (D, N).
    pub static_loads: (usize, usize),
    /// The distinct kernels the run launched — the subjects the static
    /// analyses (classification provenance, affine coalescing prediction)
    /// join against when a figure needs per-load static columns.
    pub kernels: Vec<Kernel>,
    /// Block-locality summary (Figures 10–11).
    pub blocks: BlockSummary,
    /// CTA-distance histogram (Figure 12).
    pub distance_hist: Vec<(u64, f64)>,
}

/// Input-size selection for a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Default benchmark scale (used for the reported figures).
    Full,
    /// Tiny scale for tests and smoke runs.
    Tiny,
}

/// Parsed command line of a figure/ablation binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Input-size selection (`--tiny`).
    pub scale: Scale,
    /// Optional positional workload name (only some binaries accept one).
    pub workload: Option<String>,
    /// Worker threads for the workload sweep (`--jobs N`, default 1).
    pub jobs: usize,
}

impl BenchArgs {
    /// Strictly parse the process arguments of an ablation/figure binary.
    ///
    /// # Errors
    ///
    /// Describes the first unknown flag or stray positional argument.
    pub fn from_env(allow_workload: bool) -> Result<BenchArgs, String> {
        parse_scale_args(std::env::args().skip(1), allow_workload)
    }
}

/// What every figure binary accepts, as the workspace's one flag-table
/// parser ([`gcl_exec::args`]) reads it.
const FLAGS: &[Flag] = &[Flag::switch("--tiny"), Flag::taking("--jobs", "N")];

/// Strictly parse a figure-binary command line: `--tiny`, `--jobs N`, plus
/// — only when `allow_workload` — one optional positional workload name.
/// Unknown flags and unexpected positionals are errors, never silently
/// ignored.
///
/// # Errors
///
/// Describes the offending argument and what the binary accepts.
pub fn parse_scale_args(
    args: impl Iterator<Item = String>,
    allow_workload: bool,
) -> Result<BenchArgs, String> {
    let cmd = Command {
        name: "gcl-figures",
        positional: allow_workload.then_some("[workload]"),
        flags: FLAGS,
    };
    let argv: Vec<String> = args.collect();
    let usage = |e| format!("{e} (usage: {})", cmd.synopsis());
    let a = cmd.parse(&argv).map_err(usage)?;
    let (tiny, jobs) = (a.has("--tiny"), a.int("--jobs")?.unwrap_or(1));
    if jobs == 0 {
        return Err("--jobs needs a positive integer, got `0`".to_string());
    }
    Ok(BenchArgs {
        scale: if tiny { Scale::Tiny } else { Scale::Full },
        workload: a.positional().map(str::to_string),
        jobs,
    })
}

/// The outcome of attempting one workload end to end: either its results or
/// why it stopped (a rendered [`SimError`], or a panic message when the
/// workload crashed outright — worker panics are isolated per workload).
/// One failed benchmark never takes down a harness sweep.
#[derive(Debug)]
pub struct BenchRun {
    /// Workload name (Table I).
    pub name: &'static str,
    /// Application category.
    pub category: Category,
    /// The workload's results, or why it failed.
    pub outcome: Result<BenchResult, String>,
}

impl BenchRun {
    /// The results, if the workload completed.
    pub fn result(&self) -> Option<&BenchResult> {
        self.outcome.as_ref().ok()
    }
}

/// Run every workload of the paper on `cfg`, each on a fresh GPU, fanned
/// out over `jobs` worker threads (results stay in Table I order for any
/// `jobs`; 1 reproduces the serial sweep). Failures are captured per
/// workload — a [`SimError`] structurally, a panic as a failure message —
/// never panicked: the remaining benchmarks still run and the caller
/// decides how to report the casualties (see [`completed`]).
pub fn run_all(cfg: &GpuConfig, scale: Scale, jobs: usize) -> Vec<BenchRun> {
    let workloads = match scale {
        Scale::Full => all_workloads(),
        Scale::Tiny => tiny_workloads(),
    };
    let meta: Vec<(&'static str, Category)> =
        workloads.iter().map(|w| (w.name(), w.category())).collect();
    gcl_exec::parallel_map(jobs, workloads, |w| run_one(w.as_ref(), cfg))
        .into_iter()
        .zip(meta)
        .map(|(outcome, (name, category))| BenchRun {
            name,
            category,
            outcome: match outcome {
                Ok(r) => r.map_err(|e| e.to_string()),
                Err(panic) => Err(format!("workload panicked: {panic}")),
            },
        })
        .collect()
}

/// Keep the completed results of a sweep, warning on stderr about each
/// failed benchmark. Figures built from the survivors simply render the
/// failed workloads as absent.
pub fn completed(runs: &[BenchRun]) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for run in runs {
        match &run.outcome {
            Ok(r) => out.push(r.clone()),
            Err(e) => eprintln!(
                "warning: workload {} failed, omitted from figures: {e}",
                run.name
            ),
        }
    }
    out
}

/// Run a single workload on a fresh GPU with `cfg`.
///
/// # Errors
///
/// Returns the first [`SimError`] the configuration, an allocation, or a
/// launch produced.
pub fn run_one(w: &dyn Workload, cfg: &GpuConfig) -> Result<BenchResult, SimError> {
    let mut gpu = Gpu::new(cfg.clone())?;
    let run = w.run(&mut gpu)?;
    let static_loads = run
        .kernels
        .iter()
        .map(|k| gcl_core::classify(k).global_load_counts())
        .fold((0, 0), |acc, (d, n)| (acc.0 + d, acc.1 + n));
    Ok(BenchResult {
        name: w.name(),
        category: w.category(),
        stats: run.stats,
        total_ctas: run.total_ctas,
        threads_per_cta: run.threads_per_cta,
        static_loads,
        kernels: run.kernels,
        blocks: gpu.block_summary(),
        distance_hist: gpu.distance_histogram(),
    })
}

/// The benchmark names in Table I order.
pub fn names(results: &[BenchResult]) -> Vec<&'static str> {
    results.iter().map(|r| r.name).collect()
}

/// Write a JSON artifact under `results/` (best effort; prints the path).
pub fn save_json(id: &str, json: &str) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{id}.json"));
        if std::fs::write(&path, json).is_ok() {
            eprintln!("(wrote {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_scale_args, BenchArgs, Scale};

    fn args(list: &'static [&'static str]) -> impl Iterator<Item = String> {
        list.iter().map(|s| s.to_string())
    }

    #[test]
    fn tiny_flag_jobs_and_workload_parse() {
        assert_eq!(
            parse_scale_args(args(&[]), false).unwrap(),
            BenchArgs {
                scale: Scale::Full,
                workload: None,
                jobs: 1
            }
        );
        assert_eq!(
            parse_scale_args(args(&["--tiny", "--jobs", "4"]), false).unwrap(),
            BenchArgs {
                scale: Scale::Tiny,
                workload: None,
                jobs: 4
            }
        );
        assert_eq!(
            parse_scale_args(args(&["bfs", "--tiny"]), true).unwrap(),
            BenchArgs {
                scale: Scale::Tiny,
                workload: Some("bfs".to_string()),
                jobs: 1
            }
        );
    }

    /// Unknown flags, stray positionals and bad --jobs values are rejected,
    /// not ignored.
    #[test]
    fn unknown_arguments_rejected() {
        let err = parse_scale_args(args(&["--huge"]), false).unwrap_err();
        assert!(err.contains("unknown option `--huge`"), "{err}");
        let err = parse_scale_args(args(&["bfs"]), false).unwrap_err();
        assert!(err.contains("unexpected argument `bfs`"), "{err}");
        let err = parse_scale_args(args(&["bfs", "sssp"]), true).unwrap_err();
        assert!(err.contains("unexpected argument `sssp`"), "{err}");
        let err = parse_scale_args(args(&["--jobs", "0"]), false).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = parse_scale_args(args(&["--jobs"]), false).unwrap_err();
        assert!(err.contains("--jobs needs a value"), "{err}");
    }
}
