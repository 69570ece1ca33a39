//! Unit tests of the figure builders on synthesized harness results, plus
//! a tiny-scale end-to-end check that every builder produces well-formed
//! output from a real run.

use gcl_core::LoadClass;
use gcl_figures::figures;
use gcl_figures::harness::{BenchResult, Machine, Sweep};
use gcl_sim::{BlockSummary, GpuConfig, LaunchStats, PcKey};
use gcl_workloads::{tiny_workloads, Category};

fn fake_result(name: &'static str, category: Category) -> BenchResult {
    let mut stats = LaunchStats {
        name: name.into(),
        launches: 1,
        cycles: 1000,
        ..Default::default()
    };
    stats.sm.cycles = 1000;
    stats.sm.warp_insts = 500;
    stats.sm.global_load_warps = [60, 40];
    stats.sm.unit_busy = [100, 0, 400];
    stats.class_agg[0].warp_loads = 60;
    stats.class_agg[0].requests = 90;
    stats.class_agg[0].active_threads = 60 * 32;
    stats.class_agg[1].warp_loads = 40;
    stats.class_agg[1].requests = 400;
    stats.class_agg[1].active_threads = 40 * 32;
    stats.class_agg[1].turnaround.add(500.0);
    stats.class_agg[0].turnaround.add(150.0);
    let key = PcKey {
        kernel: format!("{name}_kernel"),
        pc: 7,
        class: LoadClass::NonDeterministic,
        n_requests: 4,
    };
    let mut agg = gcl_sim::PcReqAgg::default();
    agg.turnaround.add(321.0);
    agg.gap_l1d.add(3.0);
    agg.gap_icnt_l2.add(1.0);
    agg.gap_l2_icnt.add(10.0);
    stats.per_pc.push((key, agg));
    BenchResult {
        name,
        category,
        stats,
        total_ctas: 16,
        threads_per_cta: 128,
        kernels: Vec::new(),
        blocks: BlockSummary {
            blocks: 100,
            accesses: 1000,
            cold_miss_ratio: 0.1,
            mean_accesses_per_block: 10.0,
            shared_block_ratio: 0.5,
            shared_access_ratio: 0.8,
            mean_ctas_per_shared_block: 4.0,
        },
        distance_hist: vec![(1, 0.6), (2, 0.2), (40, 0.2)],
    }
}

fn fakes() -> Vec<BenchResult> {
    vec![
        fake_result("alpha", Category::Linear),
        fake_result("beta", Category::Graph),
    ]
}

#[test]
fn table1_has_one_row_per_workload() {
    let t = figures::table1(&fakes());
    assert_eq!(t.rows.len(), 2);
    assert_eq!(t.headers.len(), 7);
}

#[test]
fn fig1_fractions_sum_to_one() {
    let f = figures::fig1(&fakes());
    assert_eq!(f.series.len(), 2);
    for i in 0..2 {
        let total = f.series[0].values[i] + f.series[1].values[i];
        assert!((total - 1.0).abs() < 1e-12);
    }
    assert!((f.series[0].values[0] - 0.4).abs() < 1e-12);
}

#[test]
fn fig2_orders_n_above_d() {
    let f = figures::fig2(&fakes());
    let n_rpw = &f.series[0];
    let d_rpw = &f.series[2];
    assert!(n_rpw.name.starts_with('N'));
    assert!(d_rpw.name.starts_with('D'));
    assert!(n_rpw.values[0] > d_rpw.values[0]);
}

#[test]
fn fig4_idle_complements_busy() {
    let f = figures::fig4(&fakes());
    // unit_busy = [100, 0, 400] of 1000 cycles.
    assert!((f.series[0].values[0] - 0.9).abs() < 1e-12);
    assert!((f.series[1].values[0] - 1.0).abs() < 1e-12);
    assert!((f.series[2].values[0] - 0.6).abs() < 1e-12);
}

#[test]
fn fig5_emits_n_and_d_labels_per_workload() {
    let f = figures::fig5(&fakes(), 121);
    assert_eq!(f.labels.len(), 4);
    assert_eq!(f.labels[0], "alpha:N");
    assert_eq!(f.labels[1], "alpha:D");
    assert_eq!(f.series.len(), 4);
}

#[test]
fn fig6_and_fig7_find_the_synthetic_pc() {
    let f = figures::fig6(&fakes(), &["beta"]);
    // The synthetic N load at pc 7 with 4 requests must appear.
    let n_series = f
        .series
        .iter()
        .find(|s| s.name.contains("(0x7, N)"))
        .expect("N series missing");
    assert!((n_series.values[3] - 321.0).abs() < 1e-9);

    let f7 = figures::fig7(&fakes(), "beta", 121);
    assert_eq!(f7.series.len(), 4);
    assert!((f7.series[1].values[3] - 3.0).abs() < 1e-9); // gap at L1D
}

/// Equally busy loads tie to the lowest (kernel, pc): Figures 6 and 7 must
/// not depend on hash order (at tiny scale ties are the rule).
#[test]
fn busiest_pc_breaks_ties_by_lowest_pc() {
    let mut r = fake_result("alpha", Category::Graph);
    let (key, agg) = r.stats.per_pc[0].clone();
    for pc in [3, 11, 5] {
        r.stats
            .per_pc
            .push((PcKey { pc, ..key.clone() }, agg.clone()));
    }
    for _ in 0..8 {
        assert_eq!(
            figures::busiest_pc(&r, LoadClass::NonDeterministic),
            Some(("alpha_kernel".to_string(), 3))
        );
    }
}

#[test]
fn fig10_fig11_read_block_summary() {
    let f10 = figures::fig10(&fakes());
    assert!((f10.series[0].values[0] - 0.1).abs() < 1e-12);
    assert!((f10.series[1].values[0] - 10.0).abs() < 1e-12);
    let f11 = figures::fig11(&fakes());
    assert!((f11.series[2].values[1] - 4.0).abs() < 1e-12);
}

#[test]
fn fig12_buckets_by_category() {
    let f = figures::fig12(&fakes(), Category::Graph);
    assert_eq!(f.series.len(), 1, "only beta is a graph workload");
    // Distances 1 (0.6), 2 (0.2) and 40 (0.2 → ≤64 bucket).
    assert!((f.series[0].values[0] - 0.6).abs() < 1e-12);
    assert!((f.series[0].values[1] - 0.2).abs() < 1e-12);
    assert!((f.series[0].values[6] - 0.2).abs() < 1e-12);
    // Fractions still sum to 1 after bucketing.
    let total: f64 = f.series[0].values.iter().sum();
    assert!((total - 1.0).abs() < 1e-12);
}

#[test]
fn critical_loads_ranks_by_share() {
    let t = figures::critical_loads(&fakes(), "beta");
    assert_eq!(t.headers.len(), 9);
    assert_eq!(t.rows.len(), 1);
    // Single synthetic load owns 100% of the turnaround.
    assert_eq!(t.rows[0][2], gcl_stats::Cell::Text("N".into()));
    assert_eq!(t.rows[0][6], gcl_stats::Cell::Percent(1.0));
    // The fake result carries no kernels, so the static columns are empty.
    assert_eq!(t.rows[0][7], gcl_stats::Cell::Text(String::new()));
    assert_eq!(t.rows[0][8], gcl_stats::Cell::Text("-".into()));
}

/// End-to-end smoke: the tiny harness feeds every builder without panics
/// and with one label per workload.
#[test]
fn tiny_harness_feeds_every_builder() {
    let cfg = GpuConfig::small();
    // Exercise the parallel sweep path: results must be Table I-ordered
    // and complete exactly as in a serial run.
    let sweep = Sweep::run(&cfg, &[Machine::Fermi], true, 4);
    let results = sweep.on(Machine::Fermi);
    assert_eq!(results.len(), 15, "every tiny workload completes");
    let names: Vec<&str> = results.iter().map(|r| r.name).collect();
    let table1: Vec<&str> = tiny_workloads().iter().map(|w| w.name()).collect();
    assert_eq!(names, table1);
    let t = figures::table1(results);
    assert_eq!(t.rows.len(), 15);
    for f in [
        figures::fig1(results),
        figures::fig2(results),
        figures::fig3(results),
        figures::fig4(results),
        figures::fig8(results),
        figures::fig9(results),
        figures::fig10(results),
        figures::fig11(results),
    ] {
        assert_eq!(f.labels.len(), 15, "{}", f.id);
        assert!(!f.series.is_empty(), "{}", f.id);
    }
    let f5 = figures::fig5(results, cfg.unloaded_miss_latency());
    assert_eq!(f5.labels.len(), 30);
    let f6 = figures::fig6(results, &["bfs", "sssp", "spmv"]);
    assert!(f6.series.len() >= 4);
    let f7 = figures::fig7(results, "bfs", cfg.unloaded_miss_latency());
    assert_eq!(f7.series.len(), 4);
    for cat in [Category::Linear, Category::Image, Category::Graph] {
        let f12 = figures::fig12(results, cat);
        assert_eq!(f12.series.len(), 5);
    }
    // Real kernels flowed through: the static columns are populated.
    let cl = figures::critical_loads(results, "spmv");
    assert!(!cl.rows.is_empty());
    assert!(
        cl.rows
            .iter()
            .any(|r| matches!(&r[7], gcl_stats::Cell::Text(t) if t.contains("param@"))),
        "no provenance trace in {cl}"
    );
    assert!(
        cl.rows
            .iter()
            .any(|r| matches!(&r[8], gcl_stats::Cell::Text(t) if t == "coalesced")),
        "no coalescing prediction in {cl}"
    );
}

/// A run that fails mid-sweep is left out of every drawing — the survivors
/// still render, an ablation keeps only the workloads that completed on
/// every machine it reads — and the sweep's verdict names each casualty.
#[test]
fn a_starved_sweep_draws_the_survivors_and_names_the_casualties() {
    let mut starved = GpuConfig::fermi();
    starved.max_cycles = 600;
    let machines = [Machine::Fermi, Machine::ClusteredCta];
    let sweep = Sweep::run(&starved, &machines, true, 2);
    let survivors: Vec<&str> = sweep.on(Machine::Fermi).iter().map(|r| r.name).collect();
    assert!(!survivors.is_empty(), "600 cycles finish the short kernels");
    assert!(survivors.len() < 15, "600 cycles starve the long ones");
    assert_eq!(figures::fig1(sweep.on(Machine::Fermi)).labels, survivors);

    let table =
        gcl_figures::ablation::cta_sched(sweep.on(Machine::Fermi), sweep.on(Machine::ClusteredCta));
    let clustered = sweep.on(Machine::ClusteredCta);
    let on_both = survivors
        .iter()
        .filter(|name| clustered.iter().any(|r| r.name == **name));
    assert_eq!(table.rows.len(), on_both.count());

    let ran = sweep.on(Machine::Fermi).len() + sweep.on(Machine::ClusteredCta).len();
    assert_eq!(ran + sweep.casualties.len(), 30);
    let verdict = sweep.verdict().unwrap_err();
    for w in tiny_workloads() {
        let casualty = format!("{} on Fermi: ", w.name());
        assert_eq!(
            verdict.contains(&casualty),
            !survivors.contains(&w.name()),
            "{verdict}"
        );
    }
    assert!(
        verdict.contains("did not finish within 600 cycles"),
        "{verdict}"
    );
}
