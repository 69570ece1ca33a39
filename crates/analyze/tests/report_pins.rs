//! Byte pins of everything [`Report`] prints: the `Display` text and the
//! CSV rows of every kernel of the 15 workloads (default and tiny scale),
//! every `lint_corpus/*.ptx` and `examples/gather.ptx`, under three launch
//! geometries with the locality and criticality layers on. The other
//! suites check predictions against measurement within a margin; this one
//! holds every class, affine form, prediction, footprint, sharing label,
//! block count, CTA stride, rank and score to the committed bytes, so a
//! refactor of the analyses is judged against behaviour.
//!
//! One golden pair per kernel set and geometry under `tests/golden/`:
//! `<set>.<geometry>.txt` is the reports as `gcl analyze` prints them
//! (blank line between kernels), `<set>.<geometry>.csv` is the schema
//! line, the header and the rows — `workloads.b64-g4.csv` is byte for byte
//! the stdout of `gcl analyze all --locality --critical --csv`, which
//! `tests/cli_analyze.rs` compares with it. The workload kernels do not
//! depend on the input scale, so both scales are held to the one
//! `workloads` set.
//!
//! On a mismatch the actual text is written under `CARGO_TARGET_TMPDIR`
//! and the failure names both files; copying the actual file over the
//! golden accepts the change.

use gcl_analyze::{analyze_with, AnalyzeOptions, LaunchCtx, Report, CSV_SCHEMA};
use gcl_ptx::{parse_module, Kernel};
use gcl_workloads::{all_workloads, tiny_workloads, Workload};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const GEOMETRIES: [(&str, [u32; 3], [u32; 3]); 3] = [
    ("b64-g4", [64, 1, 1], [4, 1, 1]),
    ("b16x16-g4x4", [16, 16, 1], [4, 4, 1]),
    ("b256-g16", [256, 1, 1], [16, 1, 1]),
];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn workload_kernels(ws: Vec<Box<dyn Workload>>) -> Vec<Kernel> {
    ws.iter().flat_map(|w| w.kernels()).collect()
}

/// Every `lint_corpus/*.ptx` in name order, then `examples/gather.ptx`.
fn corpus_kernels() -> Vec<Kernel> {
    let mut paths: Vec<PathBuf> = fs::read_dir(manifest_dir().join("tests/lint_corpus"))
        .expect("read lint_corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ptx"))
        .collect();
    paths.sort();
    paths.push(manifest_dir().join("../../examples/gather.ptx"));
    paths
        .iter()
        .flat_map(|p| {
            let src = fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            parse_module(&src).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect()
}

/// Compare `actual` with the golden file `name`; on a difference leave the
/// actual text beside the build and describe the first differing line.
fn check(name: &str, actual: &str, failures: &mut Vec<String>) {
    let golden = manifest_dir().join("tests/golden").join(name);
    let expected = fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("report_pins");
    fs::create_dir_all(&out).expect("create actual dir");
    let out = out.join(name);
    fs::write(&out, actual).expect("write actual");
    let line = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    failures.push(format!(
        "{name}: line {} differs\n  golden: {}\n  actual: {}\n  (golden {}, actual {})",
        line + 1,
        expected.lines().nth(line).unwrap_or("<end of file>"),
        actual.lines().nth(line).unwrap_or("<end of file>"),
        golden.display(),
        out.display(),
    ));
}

fn pin_set(set: &str, kernels: &[Kernel]) {
    let mut failures = Vec::new();
    for (geom, block, grid) in GEOMETRIES {
        let opts = AnalyzeOptions {
            locality: Some(LaunchCtx::new(block, grid)),
            critical: true,
        };
        let mut text = String::new();
        let mut csv = format!("{CSV_SCHEMA}\n{}\n", Report::csv_header());
        for (i, k) in kernels.iter().enumerate() {
            let report = analyze_with(k, &opts);
            if i > 0 {
                text.push('\n');
            }
            write!(text, "{report}").expect("write to string");
            for row in report.csv_rows() {
                csv.push_str(&row);
                csv.push('\n');
            }
        }
        check(&format!("{set}.{geom}.txt"), &text, &mut failures);
        check(&format!("{set}.{geom}.csv"), &csv, &mut failures);
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn workload_reports_are_pinned_at_both_scales() {
    pin_set("workloads", &workload_kernels(all_workloads()));
    pin_set("workloads", &workload_kernels(tiny_workloads()));
}

#[test]
fn lint_corpus_and_example_reports_are_pinned() {
    pin_set("corpus", &corpus_kernels());
}
