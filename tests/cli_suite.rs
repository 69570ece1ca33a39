//! Integration tests of the `gcl suite` CLI — the parallel job pool, the
//! content-addressed result cache, a fleet sweep that loses a worker,
//! `--resume` composing with `--jobs` and `--fleet`, and `--replay` from
//! the trace store with no fallback to execution — and of `gcl figures`:
//! one sweep for `all` writes what 19 single-id sweeps write, whatever
//! `--jobs` says. Each test drives the real binary in its own scratch
//! directory (the manifest, the cache, the traces and the artifacts live
//! under the working directory).

use gcl::prelude::*;
use gcl::stats::Json;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// The digest column of a suite, trace or replay table, in row order.
fn digests(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.split_whitespace().find(|t| t.starts_with("0x")))
        .map(str::to_string)
        .collect()
}

/// A child process that is killed and reaped however the test ends.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `gcl` in `dir`, its output piped to the test or discarded.
fn spawn_gcl(dir: &Path, args: &[&str], piped: bool) -> Reaped {
    let out = || if piped { Stdio::piped() } else { Stdio::null() };
    Reaped(
        Command::new(env!("CARGO_BIN_EXE_gcl"))
            .args(args)
            .current_dir(dir)
            .stdout(out())
            .stderr(out())
            .spawn()
            .expect("spawn gcl binary"),
    )
}

fn free_addr() -> String {
    let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    holder.local_addr().expect("addr").to_string()
}

/// Poll the coordinator's status until `done` says it is settled.
fn await_status(client: &mut ServeClient, what: &str, done: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status().expect("status");
        if done(&status) {
            return status;
        }
        assert!(Instant::now() < deadline, "never saw {what}: {status}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Whether status lists worker `name` with `alive` set as given.
fn worker_alive(status: &Json, name: &str, alive: bool) -> bool {
    status
        .get("workers")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .any(|w| {
            w.get("name").and_then(Json::as_str) == Some(name)
                && w.get("alive").and_then(Json::as_bool) == Some(alive)
        })
}

/// `gcl suite --fleet` against a coordinator and two workers prints the
/// `serial` digests. The worker named in the suite's first `leased to`
/// line is SIGKILLed there and then, so a worker dies mid-sweep in every
/// run. A `--fleet --resume` rerun re-attaches to the session and takes
/// all 15 from the manifest.
fn fleet_sweep_losing_a_worker(dir: &Path, serial: &[String]) {
    let addr = free_addr();
    let coordinator = spawn_gcl(
        dir,
        &[
            "coordinate",
            "--addr",
            &addr,
            "--lease-ms",
            "10000",
            "--heartbeat-ms",
            "200",
            "--heartbeat-timeout-ms",
            "2000",
        ],
        false,
    );
    let connect_deadline = Instant::now() + Duration::from_secs(30);
    let mut client = loop {
        match ServeClient::connect(ClientOptions {
            addr: addr.clone(),
            max_frame: 1024 * 1024,
            ..ClientOptions::default()
        }) {
            Ok(c) => break c,
            Err(e) => {
                assert!(Instant::now() < connect_deadline, "never listened: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    // --no-cache: the workers simulate, whatever the directory's cache holds.
    let mut workers: Vec<(&str, Reaped)> = ["w1", "w2"]
        .into_iter()
        .map(|name| {
            let args = [
                "serve",
                "--join",
                &addr,
                "--name",
                name,
                "--jobs",
                "2",
                "--no-cache",
            ];
            (name, spawn_gcl(dir, &args, false))
        })
        .collect();
    await_status(&mut client, "two live workers", |s| {
        worker_alive(s, "w1", true) && worker_alive(s, "w2", true)
    });

    let fleet_args = ["suite", "--tiny", "--sanitize", "--fleet", &addr];
    let mut suite = spawn_gcl(dir, &fleet_args, true);
    let mut killed = None;
    let stderr = BufReader::new(suite.0.stderr.take().expect("piped stderr"));
    for line in stderr.lines() {
        let line = line.expect("suite stderr");
        if killed.is_some() {
            continue;
        }
        if let Some((_, name)) = line.split_once("` leased to ") {
            let (_, worker) = workers
                .iter_mut()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("lease to an unknown worker: {line}"));
            worker.0.kill().expect("SIGKILL worker");
            worker.0.wait().expect("reap worker");
            killed = Some(name.to_string());
        }
    }
    let mut sweep = String::new();
    let mut pipe = suite.0.stdout.take().expect("piped stdout");
    pipe.read_to_string(&mut sweep).expect("suite stdout");
    let code = suite.0.wait().expect("suite exit");
    assert!(code.success(), "fleet sweep failed: {code}\n{sweep}");
    assert_eq!(digests(&sweep), serial, "fleet == serial:\n{sweep}");
    let killed = killed.expect("the suite reported a lease");

    let status = await_status(&mut client, "the killed worker dead", |s| {
        worker_alive(s, &killed, false)
    });
    let jobs_done = status.get("jobs").and_then(|j| j.get("done"));
    assert_eq!(jobs_done.and_then(Json::as_u64), Some(15), "{status}");

    let resumed = gcl(dir, &[&fleet_args[..], &["--resume"]].concat());
    let (text, err) = (stdout(&resumed), String::from_utf8_lossy(&resumed.stderr));
    assert!(resumed.status.success(), "{err}");
    assert!(err.contains("re-attached to session"), "{err}");
    assert!(text.contains("(15 from manifest)"), "{text}");
    assert_eq!(digests(&text), serial, "resumed:\n{text}");

    client.shutdown().expect("shutdown");
    drop(client);
    let survivors = workers.into_iter().filter(|(n, _)| *n != killed);
    for mut child in std::iter::once(coordinator).chain(survivors.map(|(_, w)| w)) {
        let code = child.0.wait().expect("fleet process exit");
        assert!(code.success(), "fleet process exits clean: {code}");
    }
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

    // A fleet sweep that loses a worker mid-sweep, then a `--fleet
    // --resume` that re-attaches to its session: the serial digests again.
    fleet_sweep_losing_a_worker(&dir, &par_digests);
    std::fs::remove_dir_all(&dir).ok();
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
    let manifest = std::fs::read_to_string(dir.join("results/run.json")).expect("manifest");
    assert!(manifest.contains(r#""status": "failed""#), "{manifest}");

    // Resuming with a different --jobs is NOT a config mismatch: the
    // parallelism of the recording run is irrelevant to its results. Only
    // bfs reruns; the other 14 are skipped from the manifest, with the
    // cache on or off.
    let resumed = gcl(&dir, &["suite", "--tiny", "--resume", "--jobs", "4"]);
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
    assert!(
        text.contains("15 of 15 benchmarks completed (14 from manifest)"),
        "{text}"
    );

    // Scale and sanitize remain hard mismatches.
    let wrong = gcl(&dir, &["suite", "--tiny", "--sanitize", "--resume"]);
    assert!(!wrong.status.success());
    let err = String::from_utf8_lossy(&wrong.stderr);
    assert!(err.contains("resume with the same flags"), "{err}");
}

/// `gcl trace` captures; `gcl replay --verify` re-executes and agrees with
/// every container; `suite --replay` sources every benchmark from them, and
/// without them fails every benchmark instead of executing it.
#[test]
fn replay_verifies_and_suite_replay_never_falls_back() {
    let dir = scratch("replay");
    let capture = gcl(&dir, &["trace", "all", "--tiny", "--sanitize"]);
    assert!(
        capture.status.success(),
        "{}",
        String::from_utf8_lossy(&capture.stderr)
    );
    let captured = digests(&stdout(&capture));
    assert_eq!(captured.len(), 15);

    let replay = gcl(&dir, &["replay", "all", "--tiny", "--sanitize", "--verify"]);
    assert!(replay.status.success());
    let text = stdout(&replay);
    assert!(
        text.lines().skip(1).all(|r| r.ends_with("  verified")),
        "{text}"
    );
    assert_eq!(digests(&text), captured, "{text}");

    let replayed = gcl(
        &dir,
        &["suite", "--tiny", "--sanitize", "--replay", "--no-cache"],
    );
    assert!(replayed.status.success());
    assert_eq!(digests(&stdout(&replayed)), captured);

    for entry in std::fs::read_dir(dir.join("results/traces")).expect("list traces") {
        std::fs::remove_file(entry.expect("dir entry").path()).expect("remove container");
    }
    let missing = gcl(
        &dir,
        &["suite", "--tiny", "--sanitize", "--replay", "--no-cache"],
    );
    let text = stdout(&missing);
    assert_eq!(missing.status.code(), Some(1), "{text}");
    assert_eq!(text.matches("FAILED").count(), 15, "{text}");
    assert!(digests(&text).is_empty(), "a row was executed:\n{text}");
    std::fs::remove_dir_all(&dir).ok();
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
