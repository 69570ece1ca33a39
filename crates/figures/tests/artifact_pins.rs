//! Byte pins of every JSON artifact the evaluation writes under `results/`
//! at `--tiny` scale on the Fermi machine: Table I, Figures 1–11, the three
//! panels of Figure 12, the critical-loads report of `bfs`, and the four
//! Section X ablation tables. `figures_test.rs` checks shapes on synthetic
//! results; this holds every label, series and cell of a real sweep to the
//! committed bytes, so a change to how the sweep is driven or how an
//! artifact is derived from it is judged against what the files said.
//!
//! One golden file per artifact under `tests/golden/`, named as the file
//! under `results/` is. Only [`artifacts`] knows how the pairs are
//! produced; everything below it compares bytes.
//!
//! On a mismatch the actual text is written under `CARGO_TARGET_TMPDIR`
//! and the failure names both files; copying the actual file over the
//! golden accepts the change.

use gcl_figures::driver::{draw, plan, select};
use gcl_figures::harness::Sweep;
use gcl_sim::GpuConfig;
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Every `(file stem under results/, JSON text)` pair of a tiny run.
fn artifacts() -> Vec<(String, String)> {
    let all = select("all").expect("`all` selects");
    let sweep = Sweep::run(&GpuConfig::fermi(), &plan(&all), true, 2);
    sweep.verdict().expect("every tiny run completes");
    let files = draw(&all, &sweep).into_iter();
    files
        .filter_map(|(stem, drawn)| Some((stem, drawn.json?)))
        .collect()
}

fn golden_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compare `actual` with the golden file `name`; on a difference leave the
/// actual text beside the build and describe the first differing line.
fn check(name: &str, actual: &str, failures: &mut Vec<String>) {
    let golden = golden_dir().join(name);
    let expected = fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("artifact_pins");
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

#[test]
fn tiny_artifacts_are_pinned() {
    let mut failures = Vec::new();
    let mut produced = BTreeSet::new();
    for (id, json) in artifacts() {
        let name = format!("{id}.json");
        check(&name, &json, &mut failures);
        assert!(produced.insert(name), "`{id}` produced twice");
    }
    let committed: BTreeSet<String> = fs::read_dir(golden_dir())
        .expect("read tests/golden")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf8")
        })
        .collect();
    assert_eq!(
        produced, committed,
        "the set of artifacts and the set of golden files differ"
    );
    assert_eq!(produced.len(), 20, "16 figure / table files + 4 ablations");
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
