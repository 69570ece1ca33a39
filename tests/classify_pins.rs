//! Byte pins of `gcl classify --json`: every load's class, terminal
//! sources and witness chain for every kernel of the 15 workloads, every
//! `crates/analyze/tests/lint_corpus/*.ptx` and `examples/gather.ptx`.
//!
//! `crates/analyze/tests/report_pins.rs` holds classes, ranks and scores,
//! but no source set and no witness; this suite holds those, through the
//! real binary. The workload kernels reach it as one PTX module written
//! from their `Display` text, so the parser is on the path too.
//!
//! On a mismatch the actual text is written under `CARGO_TARGET_TMPDIR`
//! and the failure names the first differing line; copying the actual
//! file over `tests/golden/classify.json.txt` accepts the change.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `gcl classify --json <path>`'s stdout; the command must succeed.
fn classify_json(path: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gcl"))
        .arg("classify")
        .arg("--json")
        .arg(path)
        .output()
        .expect("run gcl binary");
    assert!(
        out.status.success(),
        "gcl classify --json {}: {}",
        path.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn classify_json_is_pinned() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("classify_pins");
    fs::create_dir_all(&tmp).expect("create tmp dir");

    // Every workload kernel, one module in registry order.
    let module: String = gcl::workloads::all_workloads()
        .iter()
        .flat_map(|w| w.kernels())
        .map(|k| format!("{k}\n"))
        .collect();
    let workloads = tmp.join("workloads.ptx");
    fs::write(&workloads, module).expect("write workload module");

    let mut corpus: Vec<PathBuf> = fs::read_dir(root().join("crates/analyze/tests/lint_corpus"))
        .expect("read lint_corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ptx"))
        .collect();
    corpus.sort();
    corpus.push(root().join("examples/gather.ptx"));

    let mut actual = format!("== workloads ==\n{}", classify_json(&workloads));
    for path in &corpus {
        let name = path
            .strip_prefix(root())
            .expect("path under the repository");
        actual += &format!("== {} ==\n{}", name.display(), classify_json(path));
    }

    let golden = root().join("tests/golden/classify.json.txt");
    let expected = fs::read_to_string(&golden).unwrap_or_default();
    if expected != actual {
        let out = tmp.join("classify.json.txt");
        fs::write(&out, &actual).expect("write actual");
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "classify pins: line {} differs\n  golden: {}\n  actual: {}\n  (golden {}, actual {})",
            line + 1,
            expected.lines().nth(line).unwrap_or("<end>"),
            actual.lines().nth(line).unwrap_or("<end>"),
            golden.display(),
            out.display()
        );
    }
}
