//! The gcl benchmark harness; see `benchmark/README.md`.
//!
//! `benchmark/run.sh` builds `gcl` and this binary and runs it from the
//! repository root. With `--workload` it measures one workload in this
//! process and prints the contract's result object as its last line;
//! without, it runs every workload of `BENCHMARK.json`, each in a child
//! process of its own, and writes a result file under `benchmark/out/`.

mod client;
mod common;
mod compare;
mod fleet;
mod probes;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use common::{Ctx, Outcome};
use gcl_stats::Json;
use probes::Probes;
use spec::BenchSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const OUT_DIR: &str = "benchmark/out";
const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--seconds S] [--traced] [--out FILE]
       benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
       benchmark/run.sh --repeat K [--seed N]
       benchmark/run.sh --steady N [--workload W]
       benchmark/run.sh --compare A.json B.json
       benchmark/run.sh --smoke";

#[derive(Debug, Clone, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    no_probes: bool,
    repeat: Option<usize>,
    steady: Option<usize>,
    compare: Option<(PathBuf, PathBuf)>,
    out: Option<PathBuf>,
    gcl_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        gcl_bin: PathBuf::from("target/release/gcl"),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => a.traced = value("0 or 1")? == "1",
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--no-probes" => a.no_probes = true,
            "--repeat" => {
                a.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--steady" => {
                a.steady = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--steady: {e}"))?,
                )
            }
            "--compare" => {
                a.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--out" => a.out = Some(value("a path")?.into()),
            "--gcl-bin" => a.gcl_bin = value("a path")?.into(),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(a)
}

/// Removes this process's scratch directory on every exit path.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    Ok(match name {
        "sim-regular" => workloads::sim_regular(ctx),
        "sim-irregular" => workloads::sim_irregular(ctx),
        "trace-capture" => workloads::trace_capture(ctx),
        "trace-replay" => workloads::trace_replay(ctx),
        "static-analysis" => workloads::static_analysis(ctx),
        "fleet-warm" => fleet::fleet_warm(ctx),
        "fleet-cold" => fleet::fleet_cold(ctx),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Driver mode: one workload in this process. Returns whether every check
/// passed.
fn one_workload(name: &str, args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    let scratch = Scratch(Path::new(OUT_DIR).join(format!("scratch-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let abs = |p: &Path| std::fs::canonicalize(p).map_err(|e| format!("{}: {e}", p.display()));
    // Daemons and CLI probes run with their own working directories.
    let gcl_bin = abs(&args.gcl_bin).map_err(|e| format!("{e} (benchmark/run.sh builds it)"))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: if args.smoke {
            0.0
        } else {
            args.seconds.unwrap_or(spec.run_seconds)
        },
        traced: args.traced,
        smoke: args.smoke,
        gcl_bin,
        scratch: abs(&scratch.0)?,
    };
    let mut out = run_workload(name, &ctx)?;
    // A layer the workload never calls reports zeros.
    let mut layer = std::collections::BTreeMap::new();
    fleet::zero_layer(&mut layer);
    workloads::SimTotals::default().into_layer(&mut layer);
    layer.append(&mut out.layer);
    out.layer = layer;
    println!(
        "workload {name} (seed {}, {} s, trace {})",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced)
    );
    let e2e = report::end_to_end(&out);
    report::print_metrics(&spec.end_to_end, &e2e);
    report::print_detail(&out);
    let line = if ctx.traced {
        // In suite mode only the first traced child runs the probes; the
        // others report the workload-derived metrics alone.
        let probes = if args.no_probes {
            Probes::new()
        } else {
            probes::run(&ctx)
        };
        let layer = report::per_layer(&out, &probes);
        let declared: Vec<_> = spec
            .per_layer
            .iter()
            .filter(|m| !args.no_probes || layer.contains_key(&m.name))
            .cloned()
            .collect();
        report::print_metrics(&declared, &layer);
        if !probes.is_empty() {
            println!(
                "probes {}",
                report::probes_json(&probes, spec).render_compact()
            );
        }
        report::result_line(&out, &declared, &layer)?
    } else {
        report::result_line(&out, &spec.end_to_end, &e2e)?
    };
    if ctx.traced {
        let path = Path::new(OUT_DIR).join(format!("trace-{}-{name}.json", ctx.seed));
        std::fs::write(
            &path,
            report::span_file(&out, name, ctx.seed).render_pretty(),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!("detail {}", report::detail_json(&out).render_compact());
    println!("{}", line.render_compact());
    Ok(out.failed == 0)
}

/// Output of one child run, parsed.
struct Child {
    ok: bool,
    result: Json,
    detail: Json,
    probes: Option<Json>,
}

/// Run `--workload name` in a child process of this executable, echoing
/// its output.
fn child(name: &str, args: &Args, traced: bool, no_probes: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--gcl-bin")
        .arg(&args.gcl_bin)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if no_probes {
        cmd.arg("--no-probes");
    }
    let output = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines
        .pop()
        .ok_or(format!("{name}: child printed nothing"))?;
    let result = Json::parse(last).map_err(|e| format!("{name}: bad result line: {e}"))?;
    let (mut detail, mut probes) = (Json::Null, None);
    for l in lines {
        if let Some(d) = l.strip_prefix("detail ") {
            detail = Json::parse(d).map_err(|e| format!("{name}: bad detail line: {e}"))?;
        } else if let Some(p) = l.strip_prefix("probes ") {
            probes = Some(Json::parse(p).map_err(|e| format!("{name}: bad probes line: {e}"))?);
        } else {
            println!("{l}");
        }
    }
    Ok(Child {
        ok: output.status.success(),
        result,
        detail,
        probes,
    })
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `HEAD`, marked when the working tree differs from it; `unknown` outside
/// a git checkout.
fn commit() -> String {
    let head = first_line("git", &["rev-parse", "HEAD"]);
    let dirty = Command::new("git")
        .args(["status", "--porcelain"])
        .stderr(Stdio::null())
        .output()
        .is_ok_and(|o| o.status.success() && !o.stdout.is_empty());
    if dirty && head != "unknown" {
        format!("{head}+uncommitted")
    } else {
        head
    }
}

/// Where and on what a result file was measured.
fn stamp(args: &Args, spec: &BenchSpec) -> Json {
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or("unknown".to_string(), |h| h.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    Json::obj(vec![
        ("host", Json::Str(host)),
        ("nproc", Json::UInt(nproc as u64)),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        ("commit", Json::Str(commit())),
        ("seed", Json::UInt(args.seed)),
        (
            "run_seconds",
            Json::Float(args.seconds.unwrap_or(spec.run_seconds)),
        ),
        ("smoke", Json::Bool(args.smoke)),
        ("unix_s", Json::UInt(unix_s)),
    ])
}

/// Suite mode: every workload in its own child process, untraced; with
/// `traced`, a second, traced child per workload supplies the per-layer
/// metrics (the probes run once, in the first). End-to-end numbers always
/// come from the untraced child. Returns the result document and whether
/// every check passed.
fn suite(args: &Args, spec: &BenchSpec, traced: bool) -> Result<(Json, bool), String> {
    let mut all_ok = true;
    let mut entries = Vec::new();
    let mut probes = None;
    for (i, name) in spec.workloads.iter().enumerate() {
        let plain = child(name, args, false, false)?;
        all_ok &= plain.ok;
        let field = |k: &str| plain.result.get(k).cloned().unwrap_or(Json::Null);
        let mut entry = vec![
            ("correct", field("correct")),
            ("attempted", field("attempted")),
            ("failed", field("failed")),
            ("end_to_end", field("metrics")),
            ("detail", plain.detail.clone()),
        ];
        if traced {
            let t = child(name, args, true, i > 0)?;
            all_ok &= t.ok;
            for k in ["sim.cycles", "sim.warp_insts", "sim.mem_reqs"] {
                if t.detail.get(k) != plain.detail.get(k) {
                    all_ok = false;
                    println!("FAILED: {name}: {k} differs between the traced and the untraced run");
                }
            }
            entry.push((
                "per_layer",
                t.result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
            probes = probes.or(t.probes);
        }
        entries.push((name.clone(), Json::obj(entry)));
    }
    let mut doc = vec![
        ("stamp", stamp(args, spec)),
        ("workloads", Json::Obj(entries)),
    ];
    if let Some(p) = probes {
        doc.push(("probes", p));
    }
    Ok((Json::obj(doc), all_ok))
}

fn write_result(doc: &Json, path: &Path) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result written to {}", path.display());
    Ok(())
}

/// `--repeat K`: the untraced suite K times on the same seed; every
/// end-to-end metric of every workload must agree with the first run
/// within its bound, and the simulated counts must be identical.
fn repeat(args: &Args, spec: &BenchSpec, k: usize) -> Result<bool, String> {
    let mut docs = Vec::new();
    let mut ok = true;
    for i in 0..k.max(2) {
        let (doc, run_ok) = suite(args, spec, false)?;
        ok &= run_ok;
        write_result(
            &doc,
            &Path::new(OUT_DIR).join(format!("result-{}-r{i}.json", args.seed)),
        )?;
        docs.push(doc);
    }
    for (i, doc) in docs.iter().enumerate().skip(1) {
        println!("run {i} against run 0:");
        let mut rows = compare::compare(spec, &docs[0], doc);
        // Agreement is symmetric: worse in either direction fails.
        rows.extend(compare::compare(spec, doc, &docs[0]));
        ok &= !compare::print(&rows);
        for name in &spec.workloads {
            let detail = |d: &Json| d.get("workloads")?.get(name)?.get("detail").cloned();
            for key in ["sim.cycles", "sim.warp_insts", "sim.mem_reqs"] {
                let get = |d: &Json| detail(d).and_then(|d| d.get(key).cloned());
                if get(&docs[0]) != get(doc) {
                    ok = false;
                    println!("FAILED: {name}: {key} differs between run 0 and run {i}");
                }
            }
        }
    }
    Ok(ok)
}

/// `--steady N`: the acceptance check of the benchmark contract, run
/// locally. Each workload runs untraced under seeds 1..=N; for every
/// end-to-end metric the distance between the first and third quartile of
/// the N values, as a share of their median, must stay within the metric's
/// bound (`setup_s` excepted), and should stay below a third of it.
fn steady(args: &Args, spec: &BenchSpec, n: usize) -> Result<bool, String> {
    let mut ok = true;
    let names: Vec<&String> = spec
        .workloads
        .iter()
        .filter(|w| args.workload.as_ref().is_none_or(|only| only == *w))
        .collect();
    for name in names {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        for seed in 1..=n as u64 {
            let run = child(
                name,
                &Args {
                    seed,
                    ..args.clone()
                },
                false,
                false,
            )?;
            ok &= run.ok;
            for (m, v) in spec.end_to_end.iter().zip(values.iter_mut()) {
                let value = run
                    .result
                    .get("metrics")
                    .and_then(|x| x.get(&m.name)?.get("value")?.as_f64());
                v.push(value.ok_or(format!("{name}: no `{}` in the result line", m.name))?);
            }
        }
        println!("{name}: {n} seeds");
        for (m, v) in spec.end_to_end.iter().zip(&values) {
            let (spread, bound) = (stats::quartile_spread(v), m.bound.unwrap_or(0.0));
            let verdict = if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound || m.name == "setup_s" {
                "loose (above a third of the bound)"
            } else {
                ok = false;
                "FAILED (above the bound)"
            };
            println!(
                "  {:<12} median {:>14.6} {:<6} spread {:>7.4} bound {:>5.2}  {verdict}",
                m.name,
                stats::median(v),
                m.unit,
                spread,
                bound
            );
        }
    }
    Ok(ok)
}

/// `--smoke`: every workload and every probe at tiny scale, one pass each,
/// traced, with the produced names validated against `BENCHMARK.json`.
fn smoke(args: &Args, spec: &BenchSpec) -> Result<bool, String> {
    let (doc, ok) = suite(args, spec, true)?;
    let mut names_ok = true;
    let probe_names: Vec<String> = match doc.get("probes") {
        Some(Json::Obj(p)) => p.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    for name in &spec.workloads {
        let section = |s: &str| -> Vec<String> {
            match doc
                .get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get(s))
            {
                Some(Json::Obj(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
                _ => Vec::new(),
            }
        };
        let mut layer = section("per_layer");
        layer.extend(probe_names.iter().cloned());
        layer.sort();
        layer.dedup();
        for (declared, produced) in [
            (&spec.end_to_end, section("end_to_end")),
            (&spec.per_layer, layer),
        ] {
            if let Err(e) = spec::check_names(declared, produced.iter()) {
                names_ok = false;
                println!("FAILED: {name}: {e}");
            }
        }
    }
    write_result(&doc, &Path::new(OUT_DIR).join("smoke.json"))?;
    println!("smoke: {}", if ok && names_ok { "ok" } else { "FAILED" });
    Ok(ok && names_ok)
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = BenchSpec::load(Path::new("BENCHMARK.json"))?;
    if let Some((a, b)) = &args.compare {
        let read = |p: &Path| {
            std::fs::read_to_string(p)
                .map_err(|e| format!("{}: {e}", p.display()))
                .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
        };
        let worse = compare::print(&compare::compare(&spec, &read(a)?, &read(b)?));
        return Ok(!worse);
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    if let Some(n) = args.steady {
        return steady(&args, &spec, n);
    }
    if let Some(name) = &args.workload {
        return one_workload(name, &args, &spec);
    }
    if args.smoke {
        return smoke(&args, &spec);
    }
    if let Some(k) = args.repeat {
        return repeat(&args, &spec, k);
    }
    let (doc, ok) = suite(&args, &spec, args.traced)?;
    let default = Path::new(OUT_DIR).join(format!(
        "result-{}{}.json",
        args.seed,
        if args.traced { "-traced" } else { "" }
    ));
    write_result(&doc, args.out.as_deref().unwrap_or(&default))?;
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gcl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
