//! Turning one run's measurements into named metrics, the contract's
//! result line, and the result file.

use crate::common::{peak_rss_mb, Outcome};
use crate::probes::Probes;
use crate::spec::{check_names, BenchSpec, MetricSpec};
use crate::stats::{highest_supported, median, percentile, samples_beyond, MIN_BEYOND};
use crate::trace::layer_self_s;
use gcl_stats::Json;
use std::collections::BTreeMap;

/// Layers whose span self time a traced run reports as `<layer>.self_s`.
const SPAN_LAYERS: [&str; 6] = ["bench", "ptx", "core", "analyze", "workloads", "exec"];

/// Spans written to the span file at most (totals cover all of them).
const MAX_SPANS_WRITTEN: usize = 20_000;

/// The end-to-end metrics of one run.
pub fn end_to_end(out: &Outcome) -> BTreeMap<String, f64> {
    let passes = out.all_pass_s();
    let own_rss = if out.child_rss_mb > 0.0 {
        // Fleet workloads report the daemons, not the client harness.
        out.child_rss_mb
    } else {
        peak_rss_mb(std::process::id())
    };
    BTreeMap::from([
        ("setup_s".to_string(), median(&out.setup_s)),
        ("wall_s".to_string(), median(&passes)),
        ("ops_per_s".to_string(), median(&out.pass_ops_per_s)),
        ("op_p50_ms".to_string(), median(&out.op_ms)),
        ("peak_rss_mb".to_string(), own_rss),
    ])
}

/// The per-layer metrics of one traced run: workload-derived values, span
/// self times, the tracing overhead, and the probes.
pub fn per_layer(out: &Outcome, probes: &Probes) -> BTreeMap<String, f64> {
    let mut m = out.layer.clone();
    let totals = out.tracer.totals();
    for layer in SPAN_LAYERS {
        m.insert(format!("{layer}.self_s"), layer_self_s(&totals, layer));
    }
    // Tail latency is a per-layer metric: it did not repeat within any
    // bound the contract allows on a two-core sandbox.
    m.insert("bench.op_p95_ms".to_string(), percentile(&out.op_ms, 95.0));
    m.insert("bench.op_p99_ms".to_string(), percentile(&out.op_ms, 99.0));
    let (on, off) = (median(&out.traced_pass_s), median(&out.pass_s));
    m.insert(
        "bench.tracing_overhead_ratio".to_string(),
        if off > 0.0 { on / off } else { 0.0 },
    );
    m.extend(probes.iter().map(|(k, p)| (k.clone(), p.median)));
    // NaN never reaches the result line: a ratio with an empty base is 0.
    for v in m.values_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }
    m
}

/// Human-readable lines: every metric by name with its unit.
pub fn print_metrics(declared: &[MetricSpec], values: &BTreeMap<String, f64>) {
    for spec in declared {
        if let Some(v) = values.get(&spec.name) {
            println!("  {:<36} {:>16.6} {}", spec.name, v, spec.unit);
        }
    }
}

/// Pass and sample counts printed beside the timings.
pub fn print_detail(out: &Outcome) {
    let passes = out.all_pass_s();
    let min = passes.iter().copied().fold(f64::INFINITY, f64::min);
    let max = passes.iter().copied().fold(0.0, f64::max);
    println!(
        "  wall_s over {} pass(es): min {min:.6} s, max {max:.6} s; set-up repeated {} time(s)",
        passes.len(),
        out.setup_s.len()
    );
    let n = out.op_ms.len();
    let ladder = [50.0, 90.0, 95.0, 99.0];
    println!(
        "  op latency: {n} sample(s); p95 {:.6} ms ({} beyond it), p99 {:.6} ms ({} beyond it); \
         highest percentile with at least {MIN_BEYOND} samples beyond it: {}",
        percentile(&out.op_ms, 95.0),
        samples_beyond(n, 95.0),
        percentile(&out.op_ms, 99.0),
        samples_beyond(n, 99.0),
        highest_supported(n, &ladder).map_or("none".to_string(), |p| format!("p{p}")),
    );
    println!("  ops: {} attempted, {} failed", out.attempted, out.failed);
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

fn metrics_json(declared: &[MetricSpec], values: &BTreeMap<String, f64>) -> Json {
    Json::Obj(
        declared
            .iter()
            .filter_map(|spec| {
                values.get(&spec.name).map(|v| {
                    (
                        spec.name.clone(),
                        Json::obj(vec![
                            ("value", Json::Float(*v)),
                            ("unit", Json::Str(spec.unit.clone())),
                        ]),
                    )
                })
            })
            .collect(),
    )
}

/// The contract's result object: `correct`, `attempted`, `failed`,
/// `metrics`. Fails when the produced names are not exactly the declared
/// ones.
pub fn result_line(
    out: &Outcome,
    declared: &[MetricSpec],
    values: &BTreeMap<String, f64>,
) -> Result<Json, String> {
    check_names(declared, values.keys())?;
    Ok(Json::obj(vec![
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::UInt(out.attempted.max(1))),
        ("failed", Json::UInt(out.failed)),
        ("metrics", metrics_json(declared, values)),
    ]))
}

/// What the suite keeps of a run beyond the result line: pass statistics
/// and the exact simulated counts (which must not differ between runs).
pub fn detail_json(out: &Outcome) -> Json {
    let passes = out.all_pass_s();
    let count = |k: &str| Json::Float(out.layer.get(k).copied().unwrap_or(0.0));
    Json::obj(vec![
        ("passes", Json::UInt(passes.len() as u64)),
        (
            "pass_min_s",
            Json::Float(passes.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        (
            "pass_max_s",
            Json::Float(passes.iter().copied().fold(0.0, f64::max)),
        ),
        ("setup_reps", Json::UInt(out.setup_s.len() as u64)),
        ("op_samples", Json::UInt(out.op_ms.len() as u64)),
        ("sim.cycles", count("sim.cycles")),
        ("sim.warp_insts", count("sim.warp_insts")),
        ("sim.mem_reqs", count("sim.mem_reqs")),
    ])
}

/// The span file: per-name totals over every span, and the first
/// [`MAX_SPANS_WRITTEN`] spans themselves.
pub fn span_file(out: &Outcome, workload: &str, seed: u64) -> Json {
    Json::obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::UInt(seed)),
        ("trace", out.tracer.to_json(MAX_SPANS_WRITTEN)),
    ])
}

/// Probe distributions for the result file.
pub fn probes_json(probes: &Probes, spec: &BenchSpec) -> Json {
    Json::Obj(
        probes
            .iter()
            .map(|(name, p)| {
                let unit = spec
                    .per_layer
                    .iter()
                    .find(|m| &m.name == name)
                    .map_or("", |m| m.unit.as_str());
                (
                    name.clone(),
                    Json::obj(vec![
                        ("median", Json::Float(p.median)),
                        ("p10", Json::Float(p.p10)),
                        ("p90", Json::Float(p.p90)),
                        ("iters", Json::UInt(p.iters)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}
