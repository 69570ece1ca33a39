//! Integration tests of the `gcl suite` CLI — the parallel job pool, the
//! content-addressed result cache, and `--resume` composing with `--jobs` —
//! and of `gcl figures`: one sweep for `all` writes what 19 single-id
//! sweeps write, whatever `--jobs` says. Each test drives the real binary
//! in its own scratch directory (the manifest, the cache and the artifacts
//! live under the working directory).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcl-cli-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn gcl(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run gcl binary")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The digest column of a suite table, in row order.
fn digests(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.split_whitespace().find(|t| t.starts_with("0x")))
        .map(str::to_string)
        .collect()
}

#[test]
fn parallel_suite_matches_serial_and_replays_from_cache() {
    let dir = scratch("parallel");
    // Cold parallel run (cache fills), then a serial run with the cache
    // bypassed: same 15 digests in the same order.
    let par = gcl(&dir, &["suite", "--tiny", "--sanitize", "--jobs", "4"]);
    assert!(
        par.status.success(),
        "{}",
        String::from_utf8_lossy(&par.stderr)
    );
    let par_digests = digests(&stdout(&par));
    assert_eq!(par_digests.len(), 15);

    let ser = gcl(&dir, &["suite", "--tiny", "--sanitize", "--no-cache"]);
    assert!(ser.status.success());
    assert_eq!(
        digests(&stdout(&ser)),
        par_digests,
        "-j4 == -j1, digest for digest"
    );

    // Warm rerun: all 15 served from cache, zero simulations.
    let warm = gcl(&dir, &["suite", "--tiny", "--sanitize", "--jobs", "4"]);
    assert!(warm.status.success());
    let text = stdout(&warm);
    assert!(text.contains("(15 from cache)"), "{text}");
    assert_eq!(
        digests(&text),
        par_digests,
        "cached digests are the originals"
    );
}

#[test]
fn resume_composes_with_different_jobs() {
    let dir = scratch("resume");
    // Serial run with one forced failure: 14 ok, bfs failed, exit nonzero.
    let first = gcl(
        &dir,
        &[
            "suite",
            "--tiny",
            "--jobs",
            "1",
            "--no-cache",
            "--force-fail",
            "bfs",
        ],
    );
    assert!(
        !first.status.success(),
        "forced failure must fail the suite"
    );
    let text = stdout(&first);
    assert!(text.contains("FAILED"), "{text}");

    // Resuming with a different --jobs is NOT a config mismatch: the
    // parallelism of the recording run is irrelevant to its results. Only
    // bfs reruns; the other 14 are skipped from the manifest.
    let resumed = gcl(
        &dir,
        &["suite", "--tiny", "--resume", "--jobs", "4", "--no-cache"],
    );
    assert!(
        resumed.status.success(),
        "resume -j1 -> -j4 must work: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let text = stdout(&resumed);
    assert_eq!(
        text.matches("skipped (ok in manifest)").count(),
        14,
        "{text}"
    );
    assert!(text.contains("15 of 15 benchmarks completed"), "{text}");

    // Scale and sanitize remain hard mismatches.
    let wrong = gcl(&dir, &["suite", "--tiny", "--sanitize", "--resume"]);
    assert!(!wrong.status.success());
    let err = String::from_utf8_lossy(&wrong.stderr);
    assert!(err.contains("resume with the same flags"), "{err}");
}

/// Every file under `dir/results`, by name.
fn artifacts(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir.join("results"))
        .expect("list results")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), std::fs::read(&p).expect("read artifact"))
        })
        .collect()
}

/// `gcl figures all` runs each (machine, workload) pair once for all 19
/// artifacts; 19 single-id invocations run only the machines each needs.
/// Both write the same 20 files and print the same text, byte for byte,
/// and neither depends on `--jobs`.
#[test]
fn figures_all_equals_nineteen_single_ids_at_any_jobs() {
    let (all, par, single) = (scratch("fig-all"), scratch("fig-par"), scratch("fig-one"));
    let serial = gcl(&all, &["figures", "all", "--tiny", "--jobs", "1"]);
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let parallel = gcl(&par, &["figures", "all", "--tiny", "--jobs", "4"]);
    assert!(parallel.status.success());
    assert_eq!(
        stdout(&parallel),
        stdout(&serial),
        "--jobs 4 prints --jobs 1"
    );
    assert_eq!(artifacts(&par), artifacts(&all), "--jobs 4 writes --jobs 1");

    let ids = [
        "table1",
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
        "critical_loads",
        "summary",
        "ablation_cta_sched",
        "ablation_semiglobal_l2",
        "ablation_warp_split",
        "ablation_prefetch",
    ];
    let mut printed = String::new();
    for id in ids {
        let one = gcl(&single, &["figures", id, "--tiny"]);
        assert!(
            one.status.success(),
            "{id}: {}",
            String::from_utf8_lossy(&one.stderr)
        );
        printed += &stdout(&one);
    }
    assert_eq!(
        printed,
        stdout(&serial),
        "19 single ids print what `all` prints"
    );
    let files = artifacts(&all);
    assert_eq!(
        artifacts(&single),
        files,
        "19 single ids write what `all` writes"
    );
    assert_eq!(files.len(), 20, "{:?}", files.keys());

    // The one artifact about one workload names it in its file.
    let spmv = gcl(&single, &["figures", "critical_loads:spmv", "--tiny"]);
    assert!(spmv.status.success());
    assert!(artifacts(&single).contains_key("critical_loads_spmv.json"));

    for dir in [all, par, single] {
        std::fs::remove_dir_all(dir).ok();
    }
}
