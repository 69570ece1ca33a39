//! `--compare A.json B.json`: one row per (workload, end-to-end metric)
//! with both values, the ratio B ÷ A, and a verdict against the bound in
//! `BENCHMARK.json`.

use crate::spec::BenchSpec;
use gcl_stats::Json;

/// How B's value stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound, and the recorded run-to-run spread of
    /// either file is wider than the bound, so the difference is not
    /// resolved.
    Unresolved,
    /// Worse by more than the bound.
    Worse,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
        }
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A (the base).
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge `b` against base `a`: the share of `a` by which `b` is worse is
/// compared with `bound`; `spread` is the wider of the two files' recorded
/// run-to-run spreads for this metric (0 when none was recorded).
pub fn judge(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if a == 0.0 {
        return if b == 0.0 {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if higher_is_better { a - b } else { b - a } / a.abs();
    if worse_by <= bound {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn lookup(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<f64> {
    let v = doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?;
    v.get("value").unwrap_or(v).as_f64()
}

/// Compare two result files metric by metric. A pair present in only one
/// file is skipped.
pub fn compare(spec: &BenchSpec, a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let (Some(va), Some(vb)) = (
                lookup(a, workload, "end_to_end", &m.name),
                lookup(b, workload, "end_to_end", &m.name),
            ) else {
                continue;
            };
            let spread = [a, b]
                .iter()
                .filter_map(|doc| lookup(doc, workload, "spread", &m.name))
                .fold(0.0, f64::max);
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                verdict: judge(va, vb, m.higher_is_better, m.bound.unwrap_or(0.0), spread),
            });
        }
    }
    rows
}

/// Print the table; returns whether any row is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<16} {:<12} {:>16} {:>16} {:>10}  verdict",
        "workload", "metric", "A (base)", "B", "B/A"
    );
    for r in rows {
        println!(
            "{:<16} {:<12} {:>16.6} {:>16.6} {:>10.4}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            if r.a == 0.0 { 0.0 } else { r.b / r.a },
            r.verdict.label()
        );
    }
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"run_seconds":10,
        "workloads":[{"name":"w","why":"x"}],
        "end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1},
                      {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1}],
        "per_layer":[]}"#;

    fn file(wall: f64, ops: f64, spread: Option<f64>) -> Json {
        let spread = spread.map_or(String::new(), |s| format!(r#","spread":{{"wall_s":{s}}}"#));
        Json::parse(&format!(
            r#"{{"workloads":{{"w":{{"end_to_end":{{
                "wall_s":{{"value":{wall},"unit":"s"}},
                "ops_per_s":{{"value":{ops},"unit":"1/s"}}}}{spread}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_on_synthetic_files() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        let base = file(10.0, 100.0, None);
        // Within the bound both ways, and better is always ok.
        let rows = compare(&spec, &base, &file(10.9, 91.0, None));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok), "{rows:?}");
        let rows = compare(&spec, &base, &file(5.0, 300.0, None));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        // Slower by 20 %: worse; throughput down 20 %: worse.
        let rows = compare(&spec, &base, &file(12.0, 80.0, None));
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert_eq!(rows[1].verdict, Verdict::Worse);
        assert!(print(&rows));
        // The same slowdown with a recorded 15 % spread is unresolved.
        let rows = compare(&spec, &base, &file(12.0, 100.0, Some(0.15)));
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert!(!print(&rows));
    }

    #[test]
    fn judge_handles_a_zero_base() {
        assert_eq!(judge(0.0, 0.0, false, 0.1, 0.0), Verdict::Ok);
        assert_eq!(judge(0.0, 1.0, false, 0.1, 0.0), Verdict::Unresolved);
    }
}
