//! `gcl analyze` through the real binary: its flag parsing and printing
//! produce the bytes `crates/analyze/tests/report_pins.rs` holds the
//! library to, its exit code is the verifier's verdict, and `gcl suite
//! --analyze` prints the same pre-flight and runs regardless.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn gcl(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run gcl binary")
}

fn golden(name: &str) -> PathBuf {
    root().join("crates/analyze/tests/golden").join(name)
}

/// The CLI's stdout equals a library pin byte for byte.
fn assert_prints(args: &[&str], pin: &str) {
    let out = gcl(root(), args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let want = std::fs::read(golden(pin)).expect("read golden report");
    if out.stdout != want {
        let at = out
            .stdout
            .iter()
            .zip(&want)
            .position(|(a, b)| a != b)
            .unwrap_or(out.stdout.len().min(want.len()));
        panic!(
            "`gcl {}` differs from {pin} at byte {at} ({} vs {} bytes)",
            args.join(" "),
            out.stdout.len(),
            want.len()
        );
    }
}

#[test]
fn csv_and_text_reports_are_the_library_pins() {
    assert_prints(
        &["analyze", "all", "--locality", "--critical", "--csv"],
        "workloads.b64-g4.csv",
    );
    assert_prints(
        &[
            "analyze",
            "all",
            "--locality",
            "--critical",
            "--grid",
            "4,4",
            "--block",
            "16,16",
        ],
        "workloads.b16x16-g4x4.txt",
    );
}

#[test]
fn exit_code_is_the_verifiers_verdict() {
    for target in ["all", "examples/gather.ptx"] {
        let out = gcl(root(), &["analyze", target]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "`{target}` is verifier-clean: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    let out = gcl(
        root(),
        &[
            "analyze",
            "crates/analyze/tests/lint_corpus/divergent_bar.ptx",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "a divergent bar.sync is flagged: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn suite_preflight_is_advisory() {
    let dir = std::env::temp_dir().join(format!("gcl-cli-analyze-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = gcl(&dir, &["suite", "--tiny", "--analyze", "--no-cache"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(
        text.starts_with("static pre-flight (gcl-analyze):\n"),
        "{text}"
    );
    assert!(text.contains("15 of 15 benchmarks completed"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
