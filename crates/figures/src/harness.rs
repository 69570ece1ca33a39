//! The one sweep every artifact is read off: each workload once on each
//! machine the requested artifacts need, fanned out over worker threads.

use gcl_mem::L2Topology;
use gcl_ptx::Kernel;
use gcl_sim::{
    BlockSummary, CtaSchedPolicy, Gpu, GpuConfig, LaunchStats, PrefetchFilter, SimError,
};
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
    /// The distinct kernels the run launched — the subjects the static
    /// analyses (classification provenance, affine coalescing prediction)
    /// join against when a figure needs per-load static columns.
    pub kernels: Vec<Kernel>,
    /// Block-locality summary (Figures 10–11).
    pub blocks: BlockSummary,
    /// CTA-distance histogram (Figure 12).
    pub distance_hist: Vec<(u64, f64)>,
}

/// Sub-warp request chunk of [`Machine::WarpSplit`] (ablation A3).
pub const WARP_SPLIT_CHUNK: usize = 4;

/// A machine of the evaluation: the baseline every table and figure
/// characterises, or that baseline with one Section X suggestion applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Machine {
    /// The unmodified base configuration (`GpuConfig::fermi()` for `gcl
    /// figures`). Also the `Off` column of every ablation.
    Fermi,
    /// A1: clustered CTA scheduling, groups of 2.
    ClusteredCta,
    /// A2: semi-global L2, 2 clusters.
    SemiGlobalL2,
    /// A3: non-deterministic loads split into [`WARP_SPLIT_CHUNK`]-lane
    /// requests.
    WarpSplit,
    /// A4: next-line prefetch on deterministic misses only.
    PrefetchD,
    /// A4: next-line prefetch on non-deterministic misses only.
    PrefetchN,
    /// A4: class-oblivious next-line prefetch.
    PrefetchAll,
}

impl Machine {
    /// `base` with this machine's one change applied.
    pub fn configure(self, base: &GpuConfig) -> GpuConfig {
        let mut cfg = base.clone();
        match self {
            Machine::Fermi => {}
            Machine::ClusteredCta => cfg.cta_sched = CtaSchedPolicy::Clustered { group: 2 },
            Machine::SemiGlobalL2 => cfg.l2_topology = L2Topology::Clustered { clusters: 2 },
            Machine::WarpSplit => cfg.warp_split_nd = Some(WARP_SPLIT_CHUNK),
            Machine::PrefetchD => cfg.prefetch = PrefetchFilter::DeterministicOnly,
            Machine::PrefetchN => cfg.prefetch = PrefetchFilter::NonDeterministicOnly,
            Machine::PrefetchAll => cfg.prefetch = PrefetchFilter::All,
        }
        cfg
    }
}

/// The completed runs of one sweep, per machine in Table I order, and the
/// runs that did not complete.
#[derive(Debug)]
pub struct Sweep {
    /// The configuration every [`Machine`] was derived from.
    pub base: GpuConfig,
    runs: Vec<(Machine, Vec<BenchResult>)>,
    /// One `workload on Machine: reason` line per failed run — a rendered
    /// [`SimError`], or the panic message when the workload crashed
    /// outright (panics are isolated per run). The artifacts render the
    /// failed workloads as absent.
    pub casualties: Vec<String>,
}

impl Sweep {
    /// Run every workload of the paper once on each of `machines`, each
    /// (machine, workload) pair on a fresh GPU, over `jobs` worker threads.
    /// The results do not depend on `jobs`. A failed run never stops the
    /// sweep: it is warned about on stderr and recorded in
    /// [`Sweep::casualties`].
    pub fn run(base: &GpuConfig, machines: &[Machine], tiny: bool, jobs: usize) -> Sweep {
        let workloads: fn() -> Vec<Box<dyn Workload>> =
            if tiny { tiny_workloads } else { all_workloads };
        let configs: Vec<GpuConfig> = machines.iter().map(|m| m.configure(base)).collect();
        let pairs: Vec<(usize, Box<dyn Workload>)> = (0..machines.len())
            .flat_map(|m| workloads().into_iter().map(move |w| (m, w)))
            .collect();
        let labels: Vec<(usize, &'static str)> =
            pairs.iter().map(|(m, w)| (*m, w.name())).collect();
        let outcomes =
            gcl_exec::parallel_map(jobs, pairs, |(m, w)| run_one(w.as_ref(), &configs[m]));
        let mut sweep = Sweep {
            base: base.clone(),
            runs: machines.iter().map(|m| (*m, Vec::new())).collect(),
            casualties: Vec::new(),
        };
        for (outcome, (m, name)) in outcomes.into_iter().zip(labels) {
            let failure = match outcome {
                Ok(Ok(result)) => {
                    sweep.runs[m].1.push(result);
                    continue;
                }
                Ok(Err(e)) => e.to_string(),
                Err(panic) => format!("workload panicked: {panic}"),
            };
            let line = format!("{name} on {:?}: {failure}", machines[m]);
            eprintln!("warning: {line}; omitted from every artifact");
            sweep.casualties.push(line);
        }
        sweep
    }

    /// The completed runs on `machine`, in Table I order.
    ///
    /// # Panics
    ///
    /// When the sweep did not run `machine`: the artifact reading it did
    /// not declare it.
    pub fn on(&self, machine: Machine) -> &[BenchResult] {
        let run = self.runs.iter().find(|(m, _)| *m == machine);
        &run.unwrap_or_else(|| panic!("the sweep did not run {machine:?}"))
            .1
    }

    /// `Err` naming every casualty, once the survivors have been rendered.
    pub fn verdict(&self) -> Result<(), String> {
        if self.casualties.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{} run(s) of the sweep failed and are missing from the artifacts:\n  {}",
            self.casualties.len(),
            self.casualties.join("\n  ")
        ))
    }
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
    Ok(BenchResult {
        name: w.name(),
        category: w.category(),
        stats: run.stats,
        total_ctas: run.total_ctas,
        threads_per_cta: run.threads_per_cta,
        kernels: run.kernels,
        blocks: gpu.block_summary(),
        distance_hist: gpu.distance_histogram(),
    })
}

/// Write `results/<id>.json`, creating `results/` when absent.
///
/// # Errors
///
/// Names the path that could not be created or written, and why.
pub fn save_json(id: &str, json: &str) -> Result<(), String> {
    let dir = std::path::Path::new("results");
    let path = dir.join(format!("{id}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("(wrote {})", path.display());
    Ok(())
}
