//! Section X ablations: the paper *suggests* three microarchitectural
//! responses to the deterministic/non-deterministic split but does not
//! evaluate them. We implement and measure all three.

use crate::harness::{run_one, BenchResult, Scale};
use gcl_mem::{AccessOutcome, ClassTag, L2Topology};
use gcl_sim::{CtaSchedPolicy, GpuConfig, PrefetchFilter};
use gcl_stats::{Cell, Table};
use gcl_workloads::{all_workloads, tiny_workloads, Workload};

fn workloads(scale: Scale) -> Vec<Box<dyn Workload>> {
    match scale {
        Scale::Full => all_workloads(),
        Scale::Tiny => tiny_workloads(),
    }
}

/// Evaluate `per_workload` for every benchmark on `jobs` worker threads and
/// append the produced rows to `t` in Table I order (identical for any
/// `jobs`). A workload whose closure returns `None` (a failed attempt,
/// already warned about) is omitted; a panicking closure is isolated to its
/// workload and reported as a warning.
fn sweep_rows(
    scale: Scale,
    jobs: usize,
    t: &mut Table,
    per_workload: impl Fn(&dyn Workload) -> Option<Vec<Cell>> + Sync,
) {
    let names: Vec<&'static str> = workloads(scale).iter().map(|w| w.name()).collect();
    let rows = gcl_exec::parallel_map(jobs, workloads(scale), |w| per_workload(w.as_ref()));
    for (name, row) in names.into_iter().zip(rows) {
        match row {
            Ok(Some(cells)) => {
                t.row(cells);
            }
            Ok(None) => {}
            Err(panic) => eprintln!("warning: ablation row for {name} panicked: {panic}"),
        }
    }
}

/// Run one configuration of one workload; on failure, warn and return
/// `None` so the ablation table simply omits that row.
fn attempt(w: &dyn Workload, cfg: &GpuConfig) -> Option<BenchResult> {
    match run_one(w, cfg) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("warning: ablation skipped {}: {e}", w.name());
            None
        }
    }
}

fn total_reservation_fails(r: &BenchResult) -> u64 {
    [
        AccessOutcome::ReservationFailTags,
        AccessOutcome::ReservationFailMshr,
        AccessOutcome::ReservationFailIcnt,
    ]
    .iter()
    .map(|o| r.stats.l1.outcome_total(*o))
    .sum()
}

fn overall_l1_miss(r: &BenchResult) -> f64 {
    let hits = r
        .stats
        .l1
        .outcome_class(AccessOutcome::Hit, ClassTag::Deterministic)
        + r.stats
            .l1
            .outcome_class(AccessOutcome::Hit, ClassTag::NonDeterministic);
    let total = r.stats.l1.accepted(ClassTag::Deterministic)
        + r.stats.l1.accepted(ClassTag::NonDeterministic);
    if total == 0 {
        f64::NAN
    } else {
        1.0 - hits as f64 / total as f64
    }
}

/// A1 (Section X-B): round-robin vs. clustered CTA scheduling. Neighboring
/// CTAs share data (Figure 12); co-locating them on an SM should improve L1
/// locality.
pub fn cta_sched(scale: Scale, jobs: usize) -> Table {
    let mut t = Table::new(
        "Ablation A1 — CTA scheduling: round-robin vs clustered (group=2)",
        vec![
            "workload",
            "L1 miss (RR)",
            "L1 miss (clustered)",
            "cycles (RR)",
            "cycles (clustered)",
            "speedup",
        ],
    );
    sweep_rows(scale, jobs, &mut t, |w| {
        let base_cfg = GpuConfig::fermi();
        let mut clustered_cfg = GpuConfig::fermi();
        clustered_cfg.cta_sched = CtaSchedPolicy::Clustered { group: 2 };
        let base = attempt(w, &base_cfg)?;
        let clus = attempt(w, &clustered_cfg)?;
        Some(vec![
            w.name().into(),
            Cell::Percent(overall_l1_miss(&base)),
            Cell::Percent(overall_l1_miss(&clus)),
            base.stats.cycles.into(),
            clus.stats.cycles.into(),
            (base.stats.cycles as f64 / clus.stats.cycles as f64).into(),
        ])
    });
    t
}

/// A2 (Section X-C): unified vs. semi-global (clustered) L2. Each cluster of
/// SMs gets a private slice group; locality improves, aggregate capacity
/// per SM shrinks.
pub fn semiglobal_l2(scale: Scale, jobs: usize) -> Table {
    let mut t = Table::new(
        "Ablation A2 — L2 topology: unified vs semi-global (2 clusters)",
        vec![
            "workload",
            "L2 miss (unified)",
            "L2 miss (semi-global)",
            "DRAM latency (unified)",
            "DRAM latency (semi)",
            "speedup",
        ],
    );
    sweep_rows(scale, jobs, &mut t, |w| {
        let base_cfg = GpuConfig::fermi();
        let mut semi_cfg = GpuConfig::fermi();
        semi_cfg.l2_topology = L2Topology::Clustered { clusters: 2 };
        let base = attempt(w, &base_cfg)?;
        let semi = attempt(w, &semi_cfg)?;
        let l2_miss = |r: &BenchResult| {
            let hits = r
                .stats
                .l2
                .outcome_class(AccessOutcome::Hit, ClassTag::Deterministic)
                + r.stats
                    .l2
                    .outcome_class(AccessOutcome::Hit, ClassTag::NonDeterministic);
            let total = r.stats.l2.accepted(ClassTag::Deterministic)
                + r.stats.l2.accepted(ClassTag::NonDeterministic);
            if total == 0 {
                f64::NAN
            } else {
                1.0 - hits as f64 / total as f64
            }
        };
        Some(vec![
            w.name().into(),
            Cell::Percent(l2_miss(&base)),
            Cell::Percent(l2_miss(&semi)),
            base.stats.dram_mean_latency().into(),
            semi.stats.dram_mean_latency().into(),
            (base.stats.cycles as f64 / semi.stats.cycles as f64).into(),
        ])
    });
    t
}

/// A3 (Section X-A): split non-deterministic loads into sub-warp request
/// chunks to de-burst the L1. Measures reservation failures and the mean
/// N-load turnaround.
pub fn warp_split(scale: Scale, chunk: usize, jobs: usize) -> Table {
    let mut t = Table::new(
        format!("Ablation A3 — warp splitting of N loads (chunk={chunk})"),
        vec![
            "workload",
            "rsrv fails (off)",
            "rsrv fails (split)",
            "N turnaround (off)",
            "N turnaround (split)",
            "speedup",
        ],
    );
    sweep_rows(scale, jobs, &mut t, |w| {
        let base_cfg = GpuConfig::fermi();
        let mut split_cfg = GpuConfig::fermi();
        split_cfg.warp_split_nd = Some(chunk);
        let base = attempt(w, &base_cfg)?;
        let split = attempt(w, &split_cfg)?;
        let nd = gcl_core::LoadClass::NonDeterministic;
        Some(vec![
            w.name().into(),
            total_reservation_fails(&base).into(),
            total_reservation_fails(&split).into(),
            base.stats.class(nd).turnaround.mean().into(),
            split.stats.class(nd).turnaround.mean().into(),
            (base.stats.cycles as f64 / split.stats.cycles as f64).into(),
        ])
    });
    t
}

/// A4 (Section X-A, after the paper's reference \[16\]): class-selective
/// next-line prefetching.
/// The paper argues prefetchers should be load-class aware; this compares
/// no prefetch, prefetch-on-D-miss, prefetch-on-N-miss, and class-oblivious
/// prefetch.
pub fn prefetch(scale: Scale, jobs: usize) -> Table {
    let mut t = Table::new(
        "Ablation A4 — class-selective next-line L1 prefetch",
        vec![
            "workload",
            "cycles (off)",
            "cycles (D-only)",
            "cycles (N-only)",
            "cycles (all)",
            "speedup (D-only)",
            "prefetches (D-only)",
        ],
    );
    sweep_rows(scale, jobs, &mut t, |w| {
        let mut cycles = Vec::new();
        let mut d_prefetches = 0;
        for filter in [
            PrefetchFilter::Off,
            PrefetchFilter::DeterministicOnly,
            PrefetchFilter::NonDeterministicOnly,
            PrefetchFilter::All,
        ] {
            let mut cfg = GpuConfig::fermi();
            cfg.prefetch = filter;
            let r = attempt(w, &cfg)?;
            if filter == PrefetchFilter::DeterministicOnly {
                d_prefetches = r.stats.sm.prefetches_issued;
            }
            cycles.push(r.stats.cycles);
        }
        Some(vec![
            w.name().into(),
            cycles[0].into(),
            cycles[1].into(),
            cycles[2].into(),
            cycles[3].into(),
            (cycles[0] as f64 / cycles[1] as f64).into(),
            d_prefetches.into(),
        ])
    });
    t
}
