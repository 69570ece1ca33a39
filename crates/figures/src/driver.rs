//! Shared entry point for the per-figure binaries.
//!
//! Every `fig*`/`table1`/`summary`/`critical_loads` binary is a three-line
//! `main` delegating to [`figure_main`]; the workload sweep, artifact
//! printing and JSON saving live here once. The ablation binaries keep
//! their own mains — they sweep configurations, not figures.

use crate::figures;
use crate::harness::{completed, parse_scale_args, run_all, save_json, BenchResult};
use gcl_sim::GpuConfig;
use gcl_workloads::Category;
use std::process::ExitCode;

/// Every artifact id [`figure_main`] can regenerate.
pub const ARTIFACT_IDS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "table1",
    "critical_loads",
    "summary",
];

/// Run the benchmark sweep once and regenerate the named artifact
/// (see [`ARTIFACT_IDS`]).
///
/// Parses the process arguments strictly: `--tiny` selects the tiny scale,
/// `--jobs N` fans the workload sweep out over N worker threads (results
/// and artifacts are identical for any N), `critical_loads` additionally
/// takes one optional workload name (default `bfs`), and anything else —
/// including an unknown `id` — is reported to stderr with a nonzero exit
/// instead of being ignored or panicking.
pub fn figure_main(id: &str) -> ExitCode {
    match figure_main_inner(id) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn figure_main_inner(id: &str) -> Result<(), String> {
    if !ARTIFACT_IDS.contains(&id) {
        return Err(format!(
            "no figure or table named `{id}` (valid: {})",
            ARTIFACT_IDS.join(", ")
        ));
    }
    let args = parse_scale_args(std::env::args().skip(1), id == "critical_loads")?;
    let cfg = GpuConfig::fermi();
    let results = completed(&run_all(&cfg, args.scale, args.jobs));
    match id {
        "fig1" => emit(id, &figures::fig1(&results)),
        "fig2" => emit(id, &figures::fig2(&results)),
        "fig3" => emit(id, &figures::fig3(&results)),
        "fig4" => emit(id, &figures::fig4(&results)),
        "fig5" => emit(id, &figures::fig5(&results, cfg.unloaded_miss_latency())),
        "fig6" => emit(id, &figures::fig6(&results, &["bfs", "sssp", "spmv"])),
        "fig7" => emit(
            id,
            &figures::fig7(&results, "bfs", cfg.unloaded_miss_latency()),
        ),
        "fig8" => emit(id, &figures::fig8(&results)),
        "fig9" => emit(id, &figures::fig9(&results)),
        "fig10" => emit(id, &figures::fig10(&results)),
        "fig11" => emit(id, &figures::fig11(&results)),
        "fig12" => {
            for (panel, cat) in [
                ("a", Category::Linear),
                ("b", Category::Image),
                ("c", Category::Graph),
            ] {
                emit(&format!("fig12{panel}"), &figures::fig12(&results, cat));
            }
        }
        "table1" => emit(id, &figures::table1(&results)),
        "critical_loads" => {
            let workload = args.workload.unwrap_or_else(|| "bfs".to_string());
            emit(
                &format!("critical_loads_{workload}"),
                &figures::critical_loads(&results, &workload),
            );
        }
        "summary" => summary(&results),
        other => unreachable!("id `{other}` validated against ARTIFACT_IDS"),
    }
    Ok(())
}

/// Print one artifact and save its JSON form under `results/`.
fn emit<T: std::fmt::Display + Json>(id: &str, artifact: &T) {
    println!("{artifact}");
    save_json(id, &artifact.to_json());
}

/// The two artifact types both encode themselves; unify them for [`emit`].
trait Json {
    fn to_json(&self) -> String;
}

impl Json for gcl_stats::FigureSeries {
    fn to_json(&self) -> String {
        gcl_stats::FigureSeries::to_json(self)
    }
}

impl Json for gcl_stats::Table {
    fn to_json(&self) -> String {
        gcl_stats::Table::to_json(self)
    }
}

/// One-line-per-workload summary of a full harness run (no JSON artifact).
fn summary(results: &[BenchResult]) {
    println!(
        "{:6} {:7} {:>9} {:>10} {:>9} {:>6} {:>8} {:>6} {:>6} {:>6}",
        "name", "cat", "cycles", "warp insts", "gld", "N%", "L1miss%", "ipc", "simd%", "bdiv%"
    );
    for r in results {
        let p = r.stats.profiler();
        println!(
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
        );
    }
}

#[cfg(test)]
mod tests {
    use super::{figure_main_inner, ARTIFACT_IDS};

    /// An unknown artifact id is a structured error naming every valid id,
    /// not a panic.
    #[test]
    fn unknown_id_lists_valid_names() {
        let err = figure_main_inner("fig99").unwrap_err();
        assert!(err.contains("no figure or table named `fig99`"), "{err}");
        for id in ARTIFACT_IDS {
            assert!(err.contains(id), "error must list `{id}`: {err}");
        }
    }
}
