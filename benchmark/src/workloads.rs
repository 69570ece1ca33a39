//! The five in-process workloads: `sim-regular`, `sim-irregular`,
//! `trace-capture`, `trace-replay` and `static-analysis`.
//!
//! Every call into a `gcl-*` crate sits inside a span, and every op's
//! result is checked: simulated counts must repeat exactly from pass to
//! pass, replayed statistics must equal the captured ones, and the static
//! pipeline must report the same D/N counts and no error every sweep.

use crate::common::{Ctx, Outcome, Rng, ALL_APPS};
use crate::stats::median;
use gcl_analyze::{analyze_with, AnalyzeOptions, LaunchCtx};
use gcl_core::classify;
use gcl_exec::{run_job, JobSpec, TraceStore};
use gcl_mem::AccessOutcome;
use gcl_ptx::{parse_kernel, Cfg, Kernel};
use gcl_sim::{GpuConfig, LaunchStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Apps whose dynamic N-load share is at most 50 %: issue-bound.
pub const REGULAR_APPS: [&str; 9] = [
    "2mm", "gaus", "grm", "lu", "htw", "mriq", "dwt", "bpr", "srad",
];
/// Apps whose dynamic N-load share is at least 80 %: memory-bound.
pub const IRREGULAR_APPS: [&str; 6] = ["spmv", "bfs", "sssp", "ccl", "mst", "mis"];
/// Single-launch and 94-launch apps, D and N, for the trace workloads.
pub const TRACE_APPS: [&str; 6] = ["2mm", "lu", "htw", "spmv", "bfs", "mst"];

/// Repetitions of a set-up that costs tens of milliseconds. Five left the
/// median at the mercy of one scheduling hiccup: `--repeat 2` disagreed by
/// 34-49 % on exactly these set-ups while every other metric agreed.
const CHEAP_SETUP_REPS: usize = 15;

/// The spec `gcl suite` runs for `app`: default scale on the Fermi model,
/// or the tiny inputs on the small model.
pub fn spec_for(app: &str, tiny: bool) -> JobSpec {
    let cfg = if tiny {
        GpuConfig::small()
    } else {
        GpuConfig::fermi()
    };
    JobSpec::new(app, tiny, cfg)
}

/// Memory requests the L1s accepted (reads of every class plus forwarded
/// writes).
pub fn mem_reqs(s: &LaunchStats) -> u64 {
    AccessOutcome::ALL
        .iter()
        .filter(|o| o.accepted())
        .map(|o| s.l1.outcome_total(*o))
        .sum::<u64>()
        + s.l1.writes_forwarded
}

/// L1 access attempts turned away for lack of a line, an MSHR or a
/// miss-queue slot.
pub fn rsrv_fails(s: &LaunchStats) -> u64 {
    AccessOutcome::ALL
        .iter()
        .filter(|o| !o.accepted())
        .map(|o| s.l1.outcome_total(*o))
        .sum()
}

/// Simulated work of the ops a run completed, for the `sim.*` metrics.
#[derive(Debug, Default)]
pub struct SimTotals {
    cycles: u64,
    warp_insts: u64,
    mem_reqs: u64,
    rsrv_fails: u64,
    l1_hits: u64,
    l1_reads: u64,
    host_s: f64,
    passes: u64,
    app_s: BTreeMap<String, Vec<f64>>,
}

impl SimTotals {
    /// Account one simulated app run that took `host_s`.
    pub fn add(&mut self, app: &str, s: &LaunchStats, host_s: f64) {
        self.cycles += s.cycles;
        self.warp_insts += s.sm.warp_insts;
        self.mem_reqs += mem_reqs(s);
        self.rsrv_fails += rsrv_fails(s);
        self.l1_hits += s.l1.outcome_total(AccessOutcome::Hit);
        self.l1_reads += mem_reqs(s) - s.l1.writes_forwarded;
        self.host_s += host_s;
        self.app_s.entry(app.to_string()).or_default().push(host_s);
    }

    /// Close `n` passes (counts are reported per pass).
    pub fn end_passes(&mut self, n: u64) {
        self.passes += n;
    }

    /// The `sim.*` per-layer metrics. Counts are per pass and exact; a
    /// workload that simulates nothing reports zeros.
    pub fn into_layer(self, layer: &mut BTreeMap<String, f64>) {
        let per_pass = |v: u64| v as f64 / self.passes.max(1) as f64;
        let per = |n: u64| {
            if n == 0 {
                0.0
            } else {
                self.host_s * 1e9 / n as f64
            }
        };
        layer.insert("sim.cycles".into(), per_pass(self.cycles));
        layer.insert("sim.warp_insts".into(), per_pass(self.warp_insts));
        layer.insert("sim.mem_reqs".into(), per_pass(self.mem_reqs));
        layer.insert("sim.rsrv_fails".into(), per_pass(self.rsrv_fails));
        layer.insert(
            "sim.l1_miss_ratio".into(),
            if self.l1_reads == 0 {
                0.0
            } else {
                1.0 - self.l1_hits as f64 / self.l1_reads as f64
            },
        );
        layer.insert("sim.host_ns_per_cycle".into(), per(self.cycles));
        layer.insert("sim.host_ns_per_warp_inst".into(), per(self.warp_insts));
        layer.insert("sim.host_ns_per_mem_req".into(), per(self.mem_reqs));
        for app in ALL_APPS {
            let s = self.app_s.get(app).map_or(0.0, |v| median(v));
            layer.insert(format!("sim.app_s.{app}"), s);
        }
    }
}

/// Which backend an app pass goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Execute,
    Capture,
    Replay,
}

/// Shared body of `sim-*` and `trace-*`: each pass runs every app of
/// `apps` once, in seeded order, through `backend`.
fn app_passes(ctx: &Ctx, apps: &[&str], backend: Backend) -> Outcome {
    let mut out = Outcome::new();
    let store_dir = ctx.scratch.join("traces");
    // Set-up: a tiny-scale run of every app through the same backend pages
    // the code in; trace-replay also captures its containers here.
    let reference: BTreeMap<String, LaunchStats> = match backend {
        Backend::Replay => out.setup(1, || {
            let store = TraceStore::new(&store_dir);
            apps.iter()
                .map(|app| {
                    let (stats, _) = store
                        .capture(&spec_for(app, ctx.smoke))
                        .unwrap_or_else(|e| panic!("set-up capture of {app} failed: {e}"));
                    (app.to_string(), stats)
                })
                .collect()
        }),
        _ => {
            out.setup(CHEAP_SETUP_REPS, || {
                let warm = TraceStore::new(ctx.scratch.join("warm"));
                for app in apps {
                    let spec = spec_for(app, true);
                    match backend {
                        Backend::Capture => {
                            black_box(warm.capture(&spec).expect("tiny warm-up capture"));
                        }
                        _ => {
                            black_box(run_job(&spec, None).outcome.expect("tiny warm-up run"));
                        }
                    }
                }
                let _ = std::fs::remove_dir_all(warm.dir());
            });
            BTreeMap::new()
        }
    };
    let mut first: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut sim = SimTotals::default();
    let mut op = 0u64;
    out.drive(ctx, |out, pass| {
        let mut order: Vec<&str> = apps.to_vec();
        Rng::new(ctx.seed, pass as u64).shuffle(&mut order);
        // Capture publishes into a directory that starts empty every pass.
        let pass_dir = ctx.scratch.join(format!("capture-{pass}"));
        let store = match backend {
            Backend::Capture => TraceStore::new(&pass_dir),
            _ => TraceStore::new(&store_dir),
        };
        for app in order {
            op += 1;
            out.attempted += 1;
            let spec = spec_for(app, ctx.smoke);
            let t = Instant::now();
            let result = match backend {
                Backend::Execute => out
                    .tracer
                    .time("exec.run_job", op, || run_job(&spec, None))
                    .outcome
                    .map(|o| o.stats),
                Backend::Capture => out
                    .tracer
                    .time("exec.trace_capture", op, || store.capture(&spec))
                    .map(|(stats, _)| stats),
                Backend::Replay => out
                    .tracer
                    .time("exec.trace_replay", op, || store.replay(&spec)),
            };
            let host_s = t.elapsed().as_secs_f64();
            out.op_ms.push(host_s * 1e3);
            let stats = match result {
                Ok(stats) => stats,
                Err(e) => {
                    out.fail(format!("{app}: {e}"));
                    continue;
                }
            };
            sim.add(app, &stats, host_s);
            if let Err(why) = check_app_run(&mut first, reference.get(app), app, &stats) {
                out.fail(format!("pass {pass}: {why}"));
            }
        }
        sim.end_passes(1);
        if backend == Backend::Capture {
            let _ = std::fs::remove_dir_all(&pass_dir);
        }
    });
    sim.into_layer(&mut out.layer);
    out
}

/// The checks on one app run: `(cycles, warp_insts)` must repeat the first
/// pass's exactly, and a replay's whole `LaunchStats` must equal the
/// capture's (`captured` is `None` for the other backends).
fn check_app_run(
    first: &mut BTreeMap<String, (u64, u64)>,
    captured: Option<&LaunchStats>,
    app: &str,
    stats: &LaunchStats,
) -> Result<(), String> {
    let counts = (stats.cycles, stats.sm.warp_insts);
    let want = *first.entry(app.to_string()).or_insert(counts);
    if counts != want {
        return Err(format!(
            "{app}: (cycles, warp_insts) {counts:?} differ from the first pass's {want:?}"
        ));
    }
    if captured.is_some_and(|c| c != stats) {
        return Err(format!(
            "{app}: replayed LaunchStats differ from the capture's"
        ));
    }
    Ok(())
}

/// `sim-regular`: functional execution and issue dominate.
pub fn sim_regular(ctx: &Ctx) -> Outcome {
    app_passes(ctx, &REGULAR_APPS, Backend::Execute)
}

/// `sim-irregular`: the memory system and idle cycles dominate.
pub fn sim_irregular(ctx: &Ctx) -> Outcome {
    app_passes(ctx, &IRREGULAR_APPS, Backend::Execute)
}

/// `trace-capture`: execution plus the container write side.
pub fn trace_capture(ctx: &Ctx) -> Outcome {
    app_passes(ctx, &TRACE_APPS, Backend::Capture)
}

/// `trace-replay`: container parse plus the timing model, functional
/// execution bypassed.
pub fn trace_replay(ctx: &Ctx) -> Outcome {
    app_passes(ctx, &TRACE_APPS, Backend::Replay)
}

/// Every kernel of all 15 apps, built through `Workload::kernels`.
pub fn all_kernels() -> Vec<Kernel> {
    gcl_workloads::all_workloads()
        .iter()
        .flat_map(|w| w.kernels())
        .collect()
}

/// The launch geometry `gcl analyze --locality` defaults to.
pub fn default_launch() -> LaunchCtx {
    LaunchCtx::new([64, 1, 1], [4, 1, 1])
}

/// What one kernel's trip through the static pipeline yields for checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticVerdict {
    /// Static deterministic global loads.
    pub d_loads: usize,
    /// Static non-deterministic global loads.
    pub n_loads: usize,
    /// Error-severity diagnostics.
    pub errors: usize,
    /// All diagnostics.
    pub diagnostics: usize,
}

/// One op of `static-analysis`: text → parse → CFG + ipdom + loops →
/// classify → analyze (locality + critical), a span around each layer call.
pub fn static_pipeline(
    out: &mut Outcome,
    op: u64,
    kernel: &Kernel,
) -> Result<StaticVerdict, String> {
    let tr = &mut out.tracer;
    let text = tr.time("ptx.fmt", op, || kernel.to_string());
    let parsed = tr
        .time("ptx.parse", op, || parse_kernel(&text))
        .map_err(|e| format!("{}: {e}", kernel.name()))?;
    let cfg = tr.time("ptx.cfg_ipdom", op, || {
        let cfg = Cfg::build(&parsed);
        black_box(cfg.immediate_post_dominators());
        cfg
    });
    black_box(tr.time("ptx.loops", op, || cfg.loop_forest()));
    let classes = tr.time("core.classify", op, || classify(&parsed));
    let opts = AnalyzeOptions {
        locality: Some(default_launch()),
        critical: true,
    };
    let report = tr.time("analyze.analyze_with", op, || analyze_with(&parsed, &opts));
    let (d_loads, n_loads) = classes.global_load_counts();
    Ok(StaticVerdict {
        d_loads,
        n_loads,
        errors: report.error_count(),
        diagnostics: report.diagnostics.len(),
    })
}

/// `static-analysis`: the paper's own analysis and its neighbours; the
/// simulator does nothing. One pass is one sweep over every kernel.
pub fn static_analysis(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let kernels = out.setup(CHEAP_SETUP_REPS, || {
        let kernels = all_kernels();
        let mut scratch = Outcome::new();
        for (i, k) in kernels.iter().enumerate() {
            black_box(static_pipeline(&mut scratch, i as u64, k).expect("warm-up sweep"));
        }
        kernels
    });
    let mut first: Vec<Option<StaticVerdict>> = vec![None; kernels.len()];
    let mut op = 0u64;
    out.drive(ctx, |out, pass| {
        let mut order: Vec<usize> = (0..kernels.len()).collect();
        Rng::new(ctx.seed, pass as u64).shuffle(&mut order);
        for i in order {
            op += 1;
            out.attempted += 1;
            let t = Instant::now();
            let span = out.tracer.begin("bench.op", op);
            let verdict = static_pipeline(out, op, &kernels[i]);
            out.tracer.end(span);
            out.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let name = kernels[i].name();
            match verdict {
                Err(e) => out.fail(e),
                Ok(v) if v.errors > 0 => {
                    out.fail(format!("{name}: {} error diagnostic(s)", v.errors))
                }
                Ok(v) => {
                    let want = *first[i].get_or_insert(v);
                    if v != want {
                        out.fail(format!(
                            "{name}: sweep {pass} gave {v:?}, first sweep {want:?}"
                        ));
                    }
                }
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx(tag: &str) -> Ctx {
        // Tests run from `benchmark/`; `out/` is ignored by git.
        let scratch =
            std::path::Path::new("out").join(format!("test-{tag}-{}", std::process::id()));
        Ctx {
            seed: 1,
            seconds: 0.0,
            traced: false,
            smoke: true,
            gcl_bin: std::path::PathBuf::new(),
            scratch,
        }
    }

    #[test]
    fn a_corrupted_replay_comparison_fails_the_op_and_the_run() {
        let ctx = tiny_ctx("corrupt");
        let store = TraceStore::new(ctx.scratch.join("traces"));
        let spec = spec_for("2mm", true);
        let (captured, _) = store.capture(&spec).unwrap();
        let replayed = store.replay(&spec).unwrap();
        let mut first = BTreeMap::new();
        assert_eq!(
            check_app_run(&mut first, Some(&captured), "2mm", &replayed),
            Ok(())
        );
        // One counter off in the replayed statistics: the op must fail...
        let mut corrupted = replayed.clone();
        corrupted.l2.fills += 1;
        let verdict = check_app_run(&mut first, Some(&captured), "2mm", &corrupted);
        assert!(verdict.unwrap_err().contains("replayed LaunchStats differ"));
        // ...and so must a cycle count that moved between passes.
        corrupted = replayed.clone();
        corrupted.cycles += 1;
        assert!(check_app_run(&mut first, None, "2mm", &corrupted).is_err());
        // A failed op makes the result line say so; the exit code follows it.
        let mut out = Outcome::new();
        out.attempted = 1;
        out.fail("2mm: replayed LaunchStats differ".into());
        let line = crate::report::result_line(&out, &[], &BTreeMap::new()).unwrap();
        assert_eq!(line.get("correct"), Some(&gcl_stats::Json::Bool(false)));
        assert_eq!(
            line.get("failed").and_then(gcl_stats::Json::as_u64),
            Some(1)
        );
        let _ = std::fs::remove_dir_all(&ctx.scratch);
    }

    #[test]
    fn trace_replay_smoke_pass_checks_every_app() {
        let ctx = tiny_ctx("replay");
        let out = trace_replay(&ctx);
        assert_eq!(
            (out.attempted, out.failed),
            (TRACE_APPS.len() as u64, 0),
            "{:?}",
            out.failures
        );
        assert!(out.layer["sim.cycles"] > 0.0);
        let _ = std::fs::remove_dir_all(&ctx.scratch);
    }

    #[test]
    fn static_pipeline_is_clean_and_repeats() {
        let mut out = Outcome::new();
        for (i, k) in all_kernels().iter().enumerate() {
            let a = static_pipeline(&mut out, i as u64, k).unwrap();
            let b = static_pipeline(&mut out, i as u64, k).unwrap();
            assert_eq!(a, b);
            assert_eq!(a.errors, 0, "{}", k.name());
        }
    }

    #[test]
    fn the_two_sim_workloads_partition_the_apps() {
        let mut all: Vec<&str> = REGULAR_APPS
            .iter()
            .chain(&IRREGULAR_APPS)
            .copied()
            .collect();
        all.sort_unstable();
        let mut want = ALL_APPS.to_vec();
        want.sort_unstable();
        assert_eq!(all, want);
    }
}
