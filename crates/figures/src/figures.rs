//! Builders turning harness results into the paper's tables and figures.

use crate::harness::BenchResult;
use gcl_core::LoadClass;
use gcl_mem::{AccessOutcome, ClassTag};
use gcl_stats::{FigureSeries, Series, Table};

fn labels(results: &[BenchResult]) -> Vec<String> {
    results.iter().map(|r| r.name.to_string()).collect()
}

/// Table I: application characteristics.
pub fn table1(results: &[BenchResult]) -> Table {
    let mut t = Table::new(
        "Table I — application characteristics (our scales)",
        vec![
            "category",
            "name",
            "no. of CTAs",
            "threads/CTA",
            "warp insts",
            "global loads",
            "frac of global loads",
        ],
    );
    for r in results {
        t.row(vec![
            r.category.to_string().into(),
            r.name.into(),
            r.total_ctas.into(),
            u64::from(r.threads_per_cta).into(),
            r.stats.sm.warp_insts.into(),
            r.stats.profiler().gld_request.into(),
            gcl_stats::Cell::Percent(r.stats.global_load_fraction()),
        ]);
    }
    t
}

/// Figure 1: deterministic / non-deterministic distribution of global load
/// warps.
pub fn fig1(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new(
        "fig1",
        "Deterministic and non-deterministic load distribution (fraction of global load warps)",
        labels(results),
    );
    let nd: Vec<f64> = results
        .iter()
        .map(|r| r.stats.nondet_load_fraction())
        .collect();
    f.push(Series::new("Non-deterministic", nd.clone()));
    f.push(Series::new(
        "Deterministic",
        nd.iter().map(|v| 1.0 - v).collect(),
    ));
    f
}

/// Figure 2: memory requests per warp and per active thread, by class.
pub fn fig2(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new(
        "fig2",
        "Average memory requests per warp / per active thread (N vs D)",
        labels(results),
    );
    for (cls, tag) in [
        (LoadClass::NonDeterministic, "N"),
        (LoadClass::Deterministic, "D"),
    ] {
        f.push(Series::new(
            format!("{tag} req/warp"),
            results
                .iter()
                .map(|r| r.stats.class(cls).requests_per_warp())
                .collect(),
        ));
        f.push(Series::new(
            format!("{tag} req/active thread"),
            results
                .iter()
                .map(|r| r.stats.class(cls).requests_per_active_thread())
                .collect(),
        ));
    }
    f
}

/// Figure 3: breakdown of L1 data-cache access cycles.
pub fn fig3(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new("fig3", "Breakdown of L1 data cache cycles", labels(results));
    let legends = [
        (AccessOutcome::Hit, "L1 hit"),
        (AccessOutcome::HitReserved, "L1 hit reserved"),
        (AccessOutcome::MissIssued, "L1 miss"),
        (AccessOutcome::ReservationFailTags, "rsrv fail by tags"),
        (AccessOutcome::ReservationFailMshr, "rsrv fail by MSHRs"),
        (AccessOutcome::ReservationFailIcnt, "rsrv fail by icnt"),
    ];
    for (outcome, name) in legends {
        let vals: Vec<f64> = results
            .iter()
            .map(|r| {
                let total: u64 = AccessOutcome::ALL
                    .iter()
                    .map(|o| r.stats.l1.outcome_total(*o))
                    .sum();
                if total == 0 {
                    f64::NAN
                } else {
                    r.stats.l1.outcome_total(outcome) as f64 / total as f64
                }
            })
            .collect();
        f.push(Series::new(name, vals));
    }
    f
}

/// Figure 4: idle fraction of SP / SFU / LD-ST first pipeline stages.
pub fn fig4(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new("fig4", "Fraction of idle cycles per unit", labels(results));
    for (i, unit) in ["SP", "SFU", "LD/ST"].iter().enumerate() {
        f.push(Series::new(
            *unit,
            results
                .iter()
                .map(|r| r.stats.unit_idle_fractions()[i])
                .collect(),
        ));
    }
    f
}

/// Figure 5: average turnaround-time breakdown per load class. Labels are
/// `name:N` / `name:D` pairs.
pub fn fig5(results: &[BenchResult], unloaded_latency: u64) -> FigureSeries {
    let mut lbls = Vec::new();
    for r in results {
        lbls.push(format!("{}:N", r.name));
        lbls.push(format!("{}:D", r.name));
    }
    let mut f = FigureSeries::new(
        "fig5",
        "Average turnaround time of loads (cycles), stacked components",
        lbls,
    );
    let mut unloaded = Vec::new();
    let mut prev = Vec::new();
    let mut cur = Vec::new();
    let mut wasted = Vec::new();
    for r in results {
        for cls in [LoadClass::NonDeterministic, LoadClass::Deterministic] {
            let agg = r.stats.class(cls);
            let mem = agg.memory_time.mean();
            let unl = mem.min(unloaded_latency as f64);
            unloaded.push(unl);
            prev.push(agg.wait_prev_warps.mean());
            cur.push(agg.wait_current_warp.mean());
            wasted.push(if mem.is_nan() { f64::NAN } else { mem - unl });
        }
    }
    f.push(Series::new("Un-loaded memory system latency", unloaded));
    f.push(Series::new("Rsrv fails by previous warps", prev));
    f.push(Series::new("Rsrv fails by current warp", cur));
    f.push(Series::new("Wasted cycles in L2 and DRAMs", wasted));
    f
}

/// One Figure 6 line: mean turnaround by request count for the load at
/// (`kernel`, `pc`).
fn turnaround_by_requests(r: &BenchResult, kernel: &str, pc: usize, max_req: u32) -> Vec<f64> {
    (1..=max_req)
        .map(|n| {
            r.stats
                .pc_agg(kernel, pc, n)
                .map(|a| a.turnaround.mean())
                .unwrap_or(f64::NAN)
        })
        .collect()
}

/// Pick the (kernel, pc) of the busiest load of `class` in a workload (most
/// dynamic samples), if any. Equally busy loads tie to the lowest
/// (kernel, pc), so the pick does not depend on map iteration order.
pub fn busiest_pc(r: &BenchResult, class: LoadClass) -> Option<(String, usize)> {
    let mut by_pc: std::collections::BTreeMap<(&str, usize), u64> =
        std::collections::BTreeMap::new();
    for (key, agg) in &r.stats.per_pc {
        if key.class == class {
            *by_pc.entry((key.kernel.as_str(), key.pc)).or_default() += agg.turnaround.count;
        }
    }
    by_pc
        .into_iter()
        .max_by_key(|(key, count)| (*count, std::cmp::Reverse(*key)))
        .map(|((kernel, pc), _)| (kernel.to_string(), pc))
}

/// Figure 6: turnaround time vs. number of generated requests for selected
/// loads of the given workloads (the paper uses bfs, sssp, spmv).
pub fn fig6(results: &[BenchResult], picks: &[&str]) -> FigureSeries {
    let max_req = 32u32;
    let lbls: Vec<String> = (1..=max_req).map(|n| n.to_string()).collect();
    let mut f = FigureSeries::new(
        "fig6",
        "Load turnaround time vs number of generated memory requests",
        lbls,
    );
    for r in results.iter().filter(|r| picks.contains(&r.name)) {
        if let Some((kernel, pc)) = busiest_pc(r, LoadClass::NonDeterministic) {
            f.push(Series::new(
                format!("{} (0x{pc:x}, N)", r.name),
                turnaround_by_requests(r, &kernel, pc, max_req),
            ));
        }
        if let Some((kernel, pc)) = busiest_pc(r, LoadClass::Deterministic) {
            f.push(Series::new(
                format!("{} (0x{pc:x}, D)", r.name),
                turnaround_by_requests(r, &kernel, pc, max_req),
            ));
        }
    }
    f
}

/// Figure 7: per-request-count turnaround breakdown for the busiest
/// multi-request (non-deterministic) load of `workload`.
pub fn fig7(results: &[BenchResult], workload: &str, unloaded_latency: u64) -> FigureSeries {
    let Some(r) = results.iter().find(|r| r.name == workload) else {
        return FigureSeries::new(
            "fig7",
            format!("Turnaround breakdown unavailable: `{workload}` did not complete"),
            Vec::<String>::new(),
        );
    };
    let Some((kernel, pc)) = busiest_pc(r, LoadClass::NonDeterministic) else {
        return FigureSeries::new(
            "fig7",
            format!("Turnaround breakdown unavailable: `{workload}` has no non-deterministic load"),
            Vec::<String>::new(),
        );
    };
    let max_req = 32u32;
    let lbls: Vec<String> = (1..=max_req).map(|n| n.to_string()).collect();
    let mut f = FigureSeries::new(
        "fig7",
        format!("Turnaround breakdown for load 0x{pc:x} in {workload} by request count"),
        lbls,
    );
    let get = |n: u32| r.stats.pc_agg(&kernel, pc, n);
    f.push(Series::new(
        "Common latency",
        (1..=max_req)
            .map(|n| get(n).map(|_| unloaded_latency as f64).unwrap_or(f64::NAN))
            .collect(),
    ));
    f.push(Series::new(
        "Gap at L1D",
        (1..=max_req)
            .map(|n| get(n).map(|a| a.gap_l1d.mean()).unwrap_or(f64::NAN))
            .collect(),
    ));
    f.push(Series::new(
        "Gap at icnt-L2",
        (1..=max_req)
            .map(|n| get(n).map(|a| a.gap_icnt_l2.mean()).unwrap_or(f64::NAN))
            .collect(),
    ));
    f.push(Series::new(
        "Gap at L2-icnt",
        (1..=max_req)
            .map(|n| get(n).map(|a| a.gap_l2_icnt.mean()).unwrap_or(f64::NAN))
            .collect(),
    ));
    f
}

/// Figure 8: L1 and L2 miss ratios by load class.
pub fn fig8(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new("fig8", "L1 / L2 miss ratio (N vs D)", labels(results));
    for (tag, cls) in [
        ("N", ClassTag::NonDeterministic),
        ("D", ClassTag::Deterministic),
    ] {
        f.push(Series::new(
            format!("L1 miss ({tag})"),
            results.iter().map(|r| r.stats.l1.miss_ratio(cls)).collect(),
        ));
        f.push(Series::new(
            format!("L2 miss ({tag})"),
            results.iter().map(|r| r.stats.l2.miss_ratio(cls)).collect(),
        ));
    }
    f
}

/// Figure 9: shared-memory loads per global load.
pub fn fig9(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new(
        "fig9",
        "Shared memory loads per global memory load",
        labels(results),
    );
    f.push(Series::new(
        "shared/global",
        results
            .iter()
            .map(|r| r.stats.profiler().shared_per_global())
            .collect(),
    ));
    f
}

/// Figure 10: cold-miss ratio and mean accesses per 128 B block.
pub fn fig10(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new(
        "fig10",
        "Cold miss ratio and accesses per 128B data block",
        labels(results),
    );
    f.push(Series::new(
        "Cold miss ratio",
        results.iter().map(|r| r.blocks.cold_miss_ratio).collect(),
    ));
    f.push(Series::new(
        "Mean accesses per block",
        results
            .iter()
            .map(|r| r.blocks.mean_accesses_per_block)
            .collect(),
    ));
    f
}

/// Figure 11: inter-CTA data sharing.
pub fn fig11(results: &[BenchResult]) -> FigureSeries {
    let mut f = FigureSeries::new(
        "fig11",
        "Data space accessed by multiple CTAs",
        labels(results),
    );
    f.push(Series::new(
        "Blocks shared by 2+ CTAs",
        results
            .iter()
            .map(|r| r.blocks.shared_block_ratio)
            .collect(),
    ));
    f.push(Series::new(
        "Accesses to shared blocks",
        results
            .iter()
            .map(|r| r.blocks.shared_access_ratio)
            .collect(),
    ));
    f.push(Series::new(
        "Mean CTAs per shared block",
        results
            .iter()
            .map(|r| r.blocks.mean_ctas_per_shared_block)
            .collect(),
    ));
    f
}

/// Figure 12: CTA-distance histogram, bucketed to powers of two. One
/// series per workload; call per category to reproduce the three panels.
pub fn fig12(results: &[BenchResult], category: gcl_workloads::Category) -> FigureSeries {
    let buckets: Vec<u64> = vec![1, 2, 4, 8, 16, 32, 64, 128];
    let mut lbls: Vec<String> = buckets.iter().map(|b| format!("≤{b}")).collect();
    lbls.push(">128".to_string());
    let mut f = FigureSeries::new(
        "fig12",
        format!("CTA-distance distribution of shared-block accesses ({category})"),
        lbls,
    );
    for r in results.iter().filter(|r| r.category == category) {
        let mut vals = vec![0.0f64; buckets.len() + 1];
        for &(d, frac) in &r.distance_hist {
            let slot = buckets
                .iter()
                .position(|&b| d <= b)
                .unwrap_or(buckets.len());
            vals[slot] += frac;
        }
        f.push(Series::new(r.name, vals));
    }
    f
}

/// The "critical loads" report of the paper's title: every static load of a
/// workload, joined with its dynamic impact — executions, mean requests per
/// warp, mean turnaround, and its share of the workload's total load
/// latency — plus the static side of the story: the classifier's provenance
/// trace (the terminal sources the address derives from) and `gcl-analyze`'s
/// coalescing prediction. Non-deterministic loads near the top of this table
/// are the paper's critical loads.
pub fn critical_loads(results: &[BenchResult], workload: &str) -> gcl_stats::Table {
    const COLUMNS: [&str; 9] = [
        "kernel",
        "pc",
        "class",
        "execs",
        "req/warp",
        "mean turnaround",
        "share",
        "sources",
        "static",
    ];
    let Some(r) = results.iter().find(|r| r.name == workload) else {
        return gcl_stats::Table::new(
            format!("Critical loads unavailable: `{workload}` did not complete"),
            COLUMNS.to_vec(),
        );
    };

    // Static columns, joined by (kernel, pc): the classifier's terminal
    // sources and the affine analysis's request-count prediction.
    let mut sources: std::collections::BTreeMap<(String, usize), String> =
        std::collections::BTreeMap::new();
    let mut predictions: std::collections::BTreeMap<(String, usize), String> =
        std::collections::BTreeMap::new();
    for k in &r.kernels {
        let name = k.name().to_string();
        for l in gcl_core::classify(k).loads() {
            let trace: Vec<String> = l.sources.iter().map(|s| s.to_string()).collect();
            sources.insert((name.clone(), l.pc), trace.join(" "));
        }
        for p in gcl_analyze::affine_loads(k) {
            predictions.insert((name.clone(), p.pc), p.prediction.label());
        }
    }

    // Aggregate per (kernel, pc) over request counts.
    #[derive(Default)]
    struct Row {
        class: Option<LoadClass>,
        executions: u64,
        requests: u64,
        turnaround_sum: f64,
    }
    let mut rows: std::collections::BTreeMap<(String, usize), Row> =
        std::collections::BTreeMap::new();
    for (key, agg) in &r.stats.per_pc {
        let row = rows.entry((key.kernel.clone(), key.pc)).or_default();
        row.class = Some(key.class);
        row.executions += agg.turnaround.count;
        row.requests += agg.turnaround.count * u64::from(key.n_requests);
        row.turnaround_sum += agg.turnaround.sum;
    }
    let total_turnaround: f64 = rows.values().map(|r| r.turnaround_sum).sum();

    let mut sorted: Vec<_> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1.turnaround_sum.total_cmp(&a.1.turnaround_sum));

    let mut t = gcl_stats::Table::new(
        format!("Critical loads of `{workload}` (by total turnaround share)"),
        COLUMNS.to_vec(),
    );
    for ((kernel, pc), row) in sorted {
        let class = row.class.expect("row without class");
        let key = (kernel.clone(), pc);
        t.row(vec![
            kernel.into(),
            format!("0x{pc:x}").into(),
            class.letter().to_string().into(),
            row.executions.into(),
            (row.requests as f64 / row.executions as f64).into(),
            (row.turnaround_sum / row.executions as f64).into(),
            gcl_stats::Cell::Percent(if total_turnaround == 0.0 {
                f64::NAN
            } else {
                row.turnaround_sum / total_turnaround
            }),
            sources.get(&key).cloned().unwrap_or_default().into(),
            predictions
                .get(&key)
                .cloned()
                .unwrap_or_else(|| "-".to_string())
                .into(),
        ]);
    }
    t
}

/// One line per workload of the headline counters of a sweep: a text
/// report, not a JSON artifact.
pub fn summary(results: &[BenchResult]) -> String {
    let mut lines = vec![format!(
        "{:6} {:7} {:>9} {:>10} {:>9} {:>6} {:>8} {:>6} {:>6} {:>6}",
        "name", "cat", "cycles", "warp insts", "gld", "N%", "L1miss%", "ipc", "simd%", "bdiv%"
    )];
    for r in results {
        let p = r.stats.profiler();
        lines.push(format!(
            "{:6} {:7} {:>9} {:>10} {:>9} {:>5.1} {:>8.1} {:>6.2} {:>6.1} {:>6.1}",
            r.name,
            r.category.to_string(),
            r.stats.cycles,
            r.stats.sm.warp_insts,
            p.gld_request,
            r.stats.nondet_load_fraction() * 100.0,
            p.l1_miss_ratio() * 100.0,
            r.stats.sm.warp_insts as f64 / r.stats.cycles as f64,
            r.stats.simd_utilization(32) * 100.0,
            r.stats.branch_divergence() * 100.0,
        ));
    }
    lines.join("\n")
}
