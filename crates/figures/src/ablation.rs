//! Section X ablations: the paper *suggests* three microarchitectural
//! responses to the deterministic/non-deterministic split but does not
//! evaluate them. We implement and measure all three. Each table compares
//! the sweep's baseline runs with the runs on one or more variant
//! [`Machine`](crate::harness::Machine)s; a workload that failed on any
//! machine a table reads has no row in it.

use crate::harness::{BenchResult, WARP_SPLIT_CHUNK};
use gcl_mem::{AccessOutcome, CacheStats, ClassTag};
use gcl_stats::{Cell, Table};

/// The run of `base`'s workload among `runs`, if it completed there.
fn same_workload<'a>(runs: &'a [BenchResult], base: &BenchResult) -> Option<&'a BenchResult> {
    runs.iter().find(|r| r.name == base.name)
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

/// Miss ratio of `cache` over both load classes.
fn overall_miss(cache: &CacheStats) -> f64 {
    let classes = [ClassTag::Deterministic, ClassTag::NonDeterministic];
    let hits: u64 = classes
        .iter()
        .map(|c| cache.outcome_class(AccessOutcome::Hit, *c))
        .sum();
    let total: u64 = classes.iter().map(|c| cache.accepted(*c)).sum();
    if total == 0 {
        f64::NAN
    } else {
        1.0 - hits as f64 / total as f64
    }
}

/// A1 (Section X-B): round-robin vs. clustered CTA scheduling. Neighboring
/// CTAs share data (Figure 12); co-locating them on an SM should improve L1
/// locality.
pub fn cta_sched(fermi: &[BenchResult], clustered: &[BenchResult]) -> Table {
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
    for base in fermi {
        let Some(clus) = same_workload(clustered, base) else {
            continue;
        };
        t.row(vec![
            base.name.into(),
            Cell::Percent(overall_miss(&base.stats.l1)),
            Cell::Percent(overall_miss(&clus.stats.l1)),
            base.stats.cycles.into(),
            clus.stats.cycles.into(),
            (base.stats.cycles as f64 / clus.stats.cycles as f64).into(),
        ]);
    }
    t
}

/// A2 (Section X-C): unified vs. semi-global (clustered) L2. Each cluster of
/// SMs gets a private slice group; locality improves, aggregate capacity
/// per SM shrinks.
pub fn semiglobal_l2(fermi: &[BenchResult], semi_global: &[BenchResult]) -> Table {
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
    for base in fermi {
        let Some(semi) = same_workload(semi_global, base) else {
            continue;
        };
        t.row(vec![
            base.name.into(),
            Cell::Percent(overall_miss(&base.stats.l2)),
            Cell::Percent(overall_miss(&semi.stats.l2)),
            base.stats.dram_mean_latency().into(),
            semi.stats.dram_mean_latency().into(),
            (base.stats.cycles as f64 / semi.stats.cycles as f64).into(),
        ]);
    }
    t
}

/// A3 (Section X-A): split non-deterministic loads into sub-warp request
/// chunks to de-burst the L1. Measures reservation failures and the mean
/// N-load turnaround.
pub fn warp_split(fermi: &[BenchResult], split: &[BenchResult]) -> Table {
    let mut t = Table::new(
        format!("Ablation A3 — warp splitting of N loads (chunk={WARP_SPLIT_CHUNK})"),
        vec![
            "workload",
            "rsrv fails (off)",
            "rsrv fails (split)",
            "N turnaround (off)",
            "N turnaround (split)",
            "speedup",
        ],
    );
    let nd = gcl_core::LoadClass::NonDeterministic;
    for base in fermi {
        let Some(split) = same_workload(split, base) else {
            continue;
        };
        t.row(vec![
            base.name.into(),
            total_reservation_fails(base).into(),
            total_reservation_fails(split).into(),
            base.stats.class(nd).turnaround.mean().into(),
            split.stats.class(nd).turnaround.mean().into(),
            (base.stats.cycles as f64 / split.stats.cycles as f64).into(),
        ]);
    }
    t
}

/// A4 (Section X-A, after the paper's reference \[16\]): class-selective
/// next-line prefetching.
/// The paper argues prefetchers should be load-class aware; this compares
/// no prefetch (the baseline), prefetch-on-D-miss, prefetch-on-N-miss, and
/// class-oblivious prefetch.
pub fn prefetch(
    fermi: &[BenchResult],
    d_only: &[BenchResult],
    n_only: &[BenchResult],
    all: &[BenchResult],
) -> Table {
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
    for off in fermi {
        let on = |runs| same_workload(runs, off);
        let (Some(d), Some(n), Some(all)) = (on(d_only), on(n_only), on(all)) else {
            continue;
        };
        t.row(vec![
            off.name.into(),
            off.stats.cycles.into(),
            d.stats.cycles.into(),
            n.stats.cycles.into(),
            all.stats.cycles.into(),
            (off.stats.cycles as f64 / d.stats.cycles as f64).into(),
            d.stats.sm.prefetches_issued.into(),
        ]);
    }
    t
}
