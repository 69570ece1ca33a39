//! `BENCHMARK.json` as the harness reads it: the names, units, directions
//! and regression bounds are defined there once; the harness only checks
//! that what it measured matches that list exactly.

use gcl_stats::Json;
use std::collections::BTreeSet;
use std::path::Path;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed beside every value.
    pub unit: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness uses.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    /// Seconds one run measures when `--seconds` is not given.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry has no `{k}`"))
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                higher_is_better: field("better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl BenchSpec {
    /// Parse the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: `workloads` is not a list")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no `run_seconds`")?,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Read and parse `path`.
    pub fn load(path: &Path) -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchSpec::parse(&text)
    }
}

/// Check that `produced` is exactly the declared list: no unknown name,
/// none missing.
pub fn check_names<'a>(
    declared: &[MetricSpec],
    produced: impl Iterator<Item = &'a String>,
) -> Result<(), String> {
    let want: BTreeSet<&str> = declared.iter().map(|m| m.name.as_str()).collect();
    let got: BTreeSet<&str> = produced.map(String::as_str).collect();
    let unknown: Vec<&&str> = got.difference(&want).collect();
    let missing: Vec<&&str> = want.difference(&got).collect();
    if unknown.is_empty() && missing.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metric names differ from BENCHMARK.json: unknown {unknown:?}, missing {missing:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"command":["bash","benchmark/run.sh"],"paths":["benchmark"],
        "run_seconds":10,
        "workloads":[{"name":"a","why":"x"},{"name":"b","why":"y"}],
        "end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}],
        "per_layer":[{"name":"sim.cycles","unit":"count","better":"lower"}]}"#;

    #[test]
    fn parses_names_units_and_bounds() {
        let s = BenchSpec::parse(DOC).unwrap();
        assert_eq!(s.workloads, ["a", "b"]);
        assert_eq!(s.end_to_end[0].bound, Some(0.1));
        assert!(!s.end_to_end[0].higher_is_better);
        assert_eq!(s.per_layer[0].unit, "count");
        assert_eq!(s.per_layer[0].bound, None);
    }

    /// The committed `BENCHMARK.json` obeys the contract's limits, and
    /// `layers.json` (the "should move" table the contract's schema has no
    /// room for) names exactly its workloads and per-layer metrics.
    #[test]
    fn committed_files_agree_and_fit_the_contract() {
        let spec = BenchSpec::load(Path::new("../BENCHMARK.json")).unwrap();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(!setup.higher_is_better && setup.unit == "s");
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let name_ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(
                m.name.len() <= 64 && m.name.chars().all(name_ok),
                "{}",
                m.name
            );
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(
                m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
                "{}",
                m.unit
            );
        }
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap();
            assert!(
                bound > 0.0 && bound <= 0.25 && bound <= setup.bound.unwrap(),
                "{}",
                m.name
            );
        }
        let layers = Json::parse(&std::fs::read_to_string("layers.json").unwrap()).unwrap();
        let Some(Json::Obj(workloads)) = layers.get("workloads") else {
            panic!("layers.json has no `workloads` object");
        };
        let listed: Vec<&String> = workloads.iter().map(|(k, _)| k).collect();
        assert_eq!(listed, spec.workloads.iter().collect::<Vec<_>>());
        let in_layers: Vec<String> = layers
            .get("layers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .flat_map(|l| l.get("metrics").and_then(Json::as_arr).unwrap())
            .map(|m| m.as_str().unwrap().to_string())
            .collect();
        assert_eq!(
            in_layers.len(),
            spec.per_layer.len(),
            "a metric is listed twice"
        );
        check_names(&spec.per_layer, in_layers.iter()).unwrap();
    }

    #[test]
    fn name_check_reports_unknown_and_missing() {
        let s = BenchSpec::parse(DOC).unwrap();
        let ok = ["wall_s".to_string()];
        assert!(check_names(&s.end_to_end, ok.iter()).is_ok());
        let bad = ["wall_ms".to_string()];
        let e = check_names(&s.end_to_end, bad.iter()).unwrap_err();
        assert!(e.contains("wall_ms") && e.contains("wall_s"), "{e}");
    }
}
