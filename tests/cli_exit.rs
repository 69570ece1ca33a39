//! Exit-code contract of the long-running fleet commands: supervisors
//! restarting `gcl coordinate` / `gcl serve` need to tell "the address is
//! taken or unreachable" (exit 2 — retry elsewhere or wait) apart from
//! "the protocol broke" (exit 3 — investigate) and plain usage errors
//! (exit 1 — don't bother retrying). `gcl replay` reuses the same two
//! slots: an unreadable trace container is exit 2 (fetch or recapture it),
//! a version- or fingerprint-mismatched one is exit 3 (wrong artifact for
//! this build — no amount of retrying helps).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn gcl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args(args)
        .output()
        .expect("run gcl binary")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn usage_errors_exit_one() {
    let out = gcl(&["coordinate", "--no-such-flag"]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));

    let out = gcl(&["coordinate", "--queue-cap", "0"]);
    assert_eq!(
        code(&out),
        1,
        "config errors are usage errors: {}",
        stderr(&out)
    );

    let out = gcl(&["serve", "--connect-retries", "3"]);
    assert_eq!(
        code(&out),
        1,
        "--connect-retries without --join is a usage error: {}",
        stderr(&out)
    );

    // The standalone daemon is a coordinator now; its own config errors
    // and the worker-only flags still exit 1, with the same messages.
    for (args, says) in [
        (&["serve", "--jobs", "0"][..], "--jobs"),
        (&["serve", "--queue-cap", "0"][..], "queue capacity"),
        (
            &["serve", "--name", "w"][..],
            "--name and --inject only apply",
        ),
        (
            &["serve", "--inject", "stall=5"][..],
            "--name and --inject only apply",
        ),
        (
            &["serve", "--connect-retries", "3"][..],
            "--connect-retries only applies",
        ),
        (&["serve", "--rejoin"][..], "--rejoin only applies"),
    ] {
        let out = gcl(args);
        assert_eq!(code(&out), 1, "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }

    // What the one flag table changed on purpose. Arguments a command used
    // to ignore, integers it used to truncate and a flag it used to take
    // for a value are usage errors, worded by one format.
    let k = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/gather.ptx");
    for (args, says) in [
        (
            &["classify", k, "--jsno"][..],
            "classify: unknown option `--jsno`",
        ),
        (
            &["disasm", k, "--bogus", "extra"][..],
            "disasm: unknown option `--bogus`",
        ),
        (
            &["disasm", k, "extra"][..],
            "disasm: unexpected argument `extra`",
        ),
        (&["suite", "bfs"][..], "suite: unexpected argument `bfs`"),
        (
            &["run", k, "--grid", "4294967297"][..],
            "--grid: `4294967297` out of range",
        ),
        (
            &["run", k, "--block", "0x100000020"][..],
            "--block: `4294967328` out of range",
        ),
        (
            &["analyze", k, "--locality", "--grid", "4294967300"][..],
            "bad dimension `4294967300`",
        ),
        (
            &["analyze", k, "--grid", "8"][..],
            "--grid and --block only apply with --locality",
        ),
        (
            &["analyze", k, "--critical", "--block", "128"][..],
            "--grid and --block only apply with --locality",
        ),
        (&["run", k, "--grid"][..], "--grid needs a value (G)"),
        (
            &["coordinate", "--journal", "--recover"][..],
            "--journal needs a value (PATH)",
        ),
        (&["run", "--sanitize"][..], "run: missing <kernel.ptx>"),
    ] {
        let out = gcl(args);
        assert_eq!(code(&out), 1, "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }
    assert!(
        !std::path::Path::new("--recover").exists(),
        "`--journal --recover` must not journal to a file named --recover"
    );

    // The traffic commands check workload names and the submitter count
    // before they spawn or send anything, and a soak that acked nothing
    // audited nothing: it fails without a report.
    let dir = std::env::temp_dir().join(format!("gcl-cli-traffic-{}", std::process::id()));
    let (journal, report) = (dir.join("soak.journal"), dir.join("soak.json"));
    let (journal, report) = (
        journal.to_str().expect("utf8"),
        report.to_str().expect("utf8"),
    );
    for (args, says) in [
        (
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:9",
                "--workloads",
                "bfs,nope",
            ][..],
            "no workload named `nope`",
        ),
        (
            &["soak", "--workloads", "nope"][..],
            "no workload named `nope`",
        ),
        (&["soak", "--submitters", "0"][..], "at least one submitter"),
        (
            &["loadgen", "--submitters", "0"][..],
            "at least one submitter",
        ),
        (
            &[
                "soak",
                "--workers",
                "1",
                "--duration-ms",
                "300",
                "--think-ms",
                "60000",
                "--journal",
                journal,
                "--out",
                report,
            ][..],
            "no submit was acked in 300 ms",
        ),
    ] {
        let out = gcl(args);
        assert_eq!(code(&out), 1, "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }
    assert!(
        !std::path::Path::new(report).exists(),
        "no report for a failed soak"
    );
    std::fs::remove_dir_all(&dir).ok();

    // The operand may stand anywhere among the flags.
    for args in [
        &["classify", "--json", k][..],
        &["classify", k, "--json"][..],
        &["analyze", "--csv", k, "--critical"][..],
    ] {
        let out = gcl(args);
        assert_eq!(code(&out), 0, "{args:?}: {}", stderr(&out));
    }
}

/// `gcl figures`: a bad operand or flag is a usage error that says what
/// is valid, and an artifact that cannot be written fails the command
/// naming the path instead of exiting 0 without the file.
#[test]
fn figures_usage_and_write_errors_exit_one() {
    let out = gcl(&["figures", "fig99", "--tiny"]);
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(
        stderr(&out).contains(
            "no figure or table named `fig99` (valid: all, table1, fig1, fig2, fig3, fig4, \
             fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, critical_loads, summary, \
             ablation_cta_sched, ablation_semiglobal_l2, ablation_warp_split, ablation_prefetch)"
        ),
        "{}",
        stderr(&out)
    );

    for (args, says) in [
        (&["figures"][..], "figures: missing <id|all>"),
        (
            &["figures", "fig3", "--huge"][..],
            "figures: unknown option `--huge`",
        ),
        (
            &["figures", "fig3", "bfs"][..],
            "figures: unexpected argument `bfs`",
        ),
        (
            &["figures", "fig3:bfs"][..],
            "`fig3` is not about one workload",
        ),
        (
            &["figures", "fig3", "--jobs", "0"][..],
            "--jobs must be at least 1",
        ),
        (
            &["figures", "fig3", "--jobs"][..],
            "--jobs needs a value (N)",
        ),
        (
            &["figures", "fig3", "--jobs", "many"][..],
            "--jobs: bad integer `many`",
        ),
    ] {
        let out = gcl(args);
        assert_eq!(code(&out), 1, "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(says), "{args:?}: {}", stderr(&out));
    }

    // `results` is a regular file: nothing can be written under it.
    let dir = std::env::temp_dir().join(format!("gcl-cli-figures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    std::fs::write(dir.join("results"), "in the way").expect("block results/");
    let out = Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args(["figures", "fig3", "--tiny"])
        .current_dir(&dir)
        .output()
        .expect("run gcl binary");
    assert_eq!(code(&out), 1, "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error: cannot write results/fig3.json: "),
        "{}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Think times and key-variant counts are drawn in u64: at 2^32 and
/// beyond, loadgen against an unreachable target runs its window and
/// exits 0 (a think longer than the window is cut short by its end)
/// instead of panicking with exit 101.
#[test]
fn traffic_flags_beyond_u32_exit_zero() {
    let dir = std::env::temp_dir().join(format!("gcl-cli-u32-{}", std::process::id()));
    let series = dir.join("series.json");
    let series = series.to_str().expect("utf8 path");
    for (flag, value) in [("--think-ms", "4294967295"), ("--distinct", "4294967296")] {
        let args = [
            "loadgen",
            "--addr",
            "127.0.0.1:9",
            "--submitters",
            "2",
            "--duration-ms",
            "300",
            flag,
            value,
            "--out",
            series,
        ];
        let t0 = Instant::now();
        let out = gcl(&args);
        assert_eq!(code(&out), 0, "{args:?}: {}", stderr(&out));
        assert!(t0.elapsed() < Duration::from_secs(10), "{args:?} overran");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_survives_grids_beyond_u64() {
    // Three u32 extents multiply to ~2^96 CTAs: a report, not an overflow
    // panic (exit 101 in a debug build).
    let huge = "4294967295,4294967295,4294967295";
    let out = gcl(&["analyze", "2mm", "--locality", "--grid", huge]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("locality over 4294967295x"), "{text}");

    // Exactly 2^64 CTAs used to wrap to 0 in release, take the single-CTA
    // branch and call every load private; mask[tid] does not read %ctaid.y
    // or .z, so it is broadcast along them like on any smaller grid.
    let out = gcl(&[
        "analyze",
        "bfs",
        "--locality",
        "--grid",
        "4194304,2097152,2097152",
    ]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    let expand = text.split("\n\n").find(|r| r.contains("`bfs_expand`"));
    let row = expand.and_then(|r| r.lines().find(|l| l.starts_with("  pc  15 ")));
    assert!(row.is_some_and(|l| l.contains("broadcast")), "{text}");
}

#[test]
fn coordinator_bind_failure_exits_two() {
    // Occupy a port, then ask the coordinator to bind it.
    let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = holder.local_addr().expect("addr").to_string();
    let out = gcl(&["coordinate", "--addr", &addr]);
    assert_eq!(code(&out), 2, "bind conflict is exit 2: {}", stderr(&out));
    assert!(
        stderr(&out).contains("bind"),
        "says what failed: {}",
        stderr(&out)
    );
}

#[test]
fn serve_bind_failure_exits_two() {
    let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = holder.local_addr().expect("addr").to_string();
    let out = gcl(&["serve", "--addr", &addr]);
    assert_eq!(code(&out), 2, "bind conflict is exit 2: {}", stderr(&out));
    assert!(
        stderr(&out).contains("bind"),
        "says what failed: {}",
        stderr(&out)
    );
}

#[test]
fn worker_unreachable_coordinator_exits_two() {
    // Nothing listens on the reserved-then-released port: connect refused.
    let addr = {
        let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
        holder.local_addr().expect("addr").to_string()
    };
    let out = gcl(&["serve", "--join", &addr, "--connect-retries", "0"]);
    assert_eq!(
        code(&out),
        2,
        "unreachable coordinator is exit 2: {}",
        stderr(&out)
    );
}

#[test]
fn unrecoverable_journal_exits_one() {
    // A journal with a foreign magic is the operator pointing the
    // coordinator at the wrong file, and one with another build's format
    // version (here 1, whose records this build cannot all decode) is the
    // wrong build for the file: configuration errors (exit 1), not network
    // ones — supervisors must not retry, and the file is left as found.
    let mut old = b"gcljrnl\n".to_vec();
    old.extend_from_slice(&1u16.to_le_bytes());
    old.extend_from_slice(&[0x20; 40]);
    for (tag, bytes) in [
        ("badmagic", &b"this is not a journal at all"[..]),
        ("v1", &old),
    ] {
        let mut path = std::env::temp_dir();
        path.push(format!("gcl-cli-{tag}-{}.journal", std::process::id()));
        std::fs::write(&path, bytes).expect("write bad journal");
        let out = gcl(&[
            "coordinate",
            "--addr",
            "127.0.0.1:0",
            "--journal",
            path.to_str().expect("utf8 path"),
            "--recover",
        ]);
        assert_eq!(
            code(&out),
            1,
            "unrecoverable journal is a config error: {}",
            stderr(&out)
        );
        assert!(
            stderr(&out).contains("is unrecoverable"),
            "says what failed: {}",
            stderr(&out)
        );
        assert_eq!(std::fs::read(&path).expect("still there"), bytes, "{tag}");
        std::fs::remove_file(&path).ok();
    }

    let out = gcl(&["coordinate", "--recover"]);
    assert_eq!(
        code(&out),
        1,
        "--recover without --journal is a usage error: {}",
        stderr(&out)
    );
}

/// Spawn a coordinator child on a fresh port and wait until it accepts.
fn start_coordinator_child(extra: &[&str]) -> (Child, String) {
    let addr = {
        let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
        holder.local_addr().expect("addr").to_string()
    };
    let child = Command::new(env!("CARGO_BIN_EXE_gcl"))
        .args(["coordinate", "--addr", &addr])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match TcpStream::connect(&addr) {
            Ok(_) => return (child, addr),
            Err(e) => {
                assert!(Instant::now() < deadline, "never listened: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// One NDJSON round trip on a fresh connection.
fn roundtrip(addr: &str, request: &str) -> String {
    let stream = TcpStream::connect(addr).expect("dial coordinator");
    let mut writer = stream.try_clone().expect("clone stream");
    writeln!(writer, "{request}").expect("send request");
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .expect("read response");
    line
}

#[test]
fn chaos_verbs_refused_unless_enabled() {
    // Default: `decommission` answers a structured refusal.
    let (mut child, addr) = start_coordinator_child(&[]);
    let response = roundtrip(&addr, r#"{"op":"decommission","worker":"w0"}"#);
    assert!(
        response.contains(r#""ok":false"#),
        "gated verb must fail: {response}"
    );
    assert!(
        response.contains("chaos verbs disabled"),
        "refusal names the gate: {response}"
    );
    let _ = roundtrip(&addr, r#"{"op":"shutdown"}"#);
    let code = child.wait().expect("coordinator exit");
    assert!(code.success(), "clean drain after refusals: {code}");

    // Opted in: the verb reaches its handler (and fails differently —
    // there is no such worker). There is no `reset` verb, gate or no gate.
    let (mut child, addr) = start_coordinator_child(&["--chaos-verbs"]);
    let response = roundtrip(&addr, r#"{"op":"decommission","worker":"w0"}"#);
    assert!(
        !response.contains("chaos verbs disabled"),
        "gate is open: {response}"
    );
    let response = roundtrip(&addr, r#"{"op":"reset"}"#);
    assert!(
        response.contains("unknown op `reset`"),
        "reset is not a verb: {response}"
    );
    let _ = roundtrip(&addr, r#"{"op":"shutdown"}"#);
    let code = child.wait().expect("coordinator exit");
    assert!(code.success(), "clean drain: {code}");
}

/// `gcl replay` exit codes, pinned end to end through the real binary:
/// absent or corrupt container → 2 (resource unusable), version-skewed
/// container with a *valid* checksum → 3 (protocol mismatch), intact
/// container → 0. Replay never silently falls back to execution, so these
/// codes are what a sweep supervisor scripts against.
#[test]
fn replay_trace_exit_codes() {
    use gcl::sim::{fnv_fold_bytes, FNV_OFFSET};

    let mut dir = std::env::temp_dir();
    dir.push(format!("gcl-cli-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let dirs = dir.to_str().expect("utf8 path");

    // No container captured yet: exit 2, with the path in the message.
    let out = gcl(&["replay", "2mm", "--tiny", "--sanitize", "--in", dirs]);
    assert_eq!(
        code(&out),
        2,
        "absent container is exit 2: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("cannot replay"),
        "says what failed: {}",
        stderr(&out)
    );

    // Capture, then the happy path.
    let out = gcl(&["trace", "2mm", "--tiny", "--sanitize", "--out", dirs]);
    assert_eq!(code(&out), 0, "capture failed: {}", stderr(&out));
    let container = std::fs::read_dir(&dir)
        .expect("list trace dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "gcltrace"))
        .expect("capture published a container");
    let out = gcl(&["replay", "2mm", "--tiny", "--sanitize", "--in", dirs]);
    assert_eq!(code(&out), 0, "valid replay: {}", stderr(&out));

    // One flipped byte mid-payload: the container checksum catches it and
    // the container is unusable — exit 2.
    let good = std::fs::read(&container).expect("read container");
    let mut bad = good.clone();
    bad[good.len() / 2] ^= 0x40;
    std::fs::write(&container, &bad).expect("write corrupt container");
    let out = gcl(&["replay", "2mm", "--tiny", "--sanitize", "--in", dirs]);
    assert_eq!(
        code(&out),
        2,
        "corrupt container is exit 2: {}",
        stderr(&out)
    );

    // Version skew with the trailing checksum *recomputed*: the file is
    // structurally perfect, this build just speaks another format — the
    // protocol slot, exit 3. (Version is the u32 at offset 8; the file
    // checksum is the trailing u64.)
    let mut skewed = good.clone();
    skewed[8] ^= 0xff;
    let n = skewed.len();
    let sum = fnv_fold_bytes(FNV_OFFSET, &skewed[..n - 8]);
    skewed[n - 8..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&container, &skewed).expect("write skewed container");
    let out = gcl(&["replay", "2mm", "--tiny", "--sanitize", "--in", dirs]);
    assert_eq!(code(&out), 3, "version skew is exit 3: {}", stderr(&out));

    // A correctly sealed file whose one section declares a length no file
    // can hold (the file checksum is not a MAC; anyone can seal one): a
    // truncation report and exit 2, not an arithmetic panic (exit 101).
    let mut crafted = good[..20].to_vec();
    crafted.extend_from_slice(&1u64.to_le_bytes());
    crafted.extend_from_slice(&(u64::MAX - 3).to_le_bytes());
    crafted.extend_from_slice(&[0u8; 32]);
    let sum = fnv_fold_bytes(FNV_OFFSET, &crafted);
    crafted.extend_from_slice(&sum.to_le_bytes());
    std::fs::write(&container, &crafted).expect("write crafted container");
    let out = gcl(&["replay", "2mm", "--tiny", "--sanitize", "--in", dirs]);
    assert_eq!(
        code(&out),
        2,
        "absurd section length is exit 2: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("truncated"),
        "says the file is cut short: {}",
        stderr(&out)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_protocol_failure_exits_three() {
    // A listener that accepts the connection and slams it shut: the
    // worker reaches the "coordinator", then the join handshake dies —
    // a protocol failure, not a connectivity one.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("addr").to_string();
    // The stub thread is deliberately not joined: it blocks in accept
    // until the test process exits.
    std::thread::spawn(move || {
        while let Ok((conn, _)) = listener.accept() {
            drop(conn)
        }
    });
    let out = gcl(&["serve", "--join", &addr, "--connect-retries", "0"]);
    assert_eq!(
        code(&out),
        3,
        "broken handshake is exit 3: {}",
        stderr(&out)
    );
}
