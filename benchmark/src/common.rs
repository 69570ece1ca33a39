//! What every workload shares: run context, the seeded stream, the timed
//! pass loop and the record a run produces.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The 15 apps in Table I order (`gcl_workloads::all_workloads` order).
pub const ALL_APPS: [&str; 15] = [
    "2mm", "gaus", "grm", "lu", "spmv", "htw", "mriq", "dwt", "bpr", "srad", "bfs", "sssp", "ccl",
    "mst", "mis",
];

/// How one workload run was asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Seeds app order, fleet key draws and probe address streams.
    pub seed: u64,
    /// Timed seconds per run; whole passes run until this has elapsed.
    pub seconds: f64,
    /// Record spans and collect per-layer metrics.
    pub traced: bool,
    /// Tiny inputs and short passes (`--smoke`).
    pub smoke: bool,
    /// The `gcl` binary the fleet and CLI probes drive.
    pub gcl_bin: PathBuf,
    /// Private scratch directory of this process (under `benchmark/out`).
    pub scratch: PathBuf,
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed pass with tracing off.
    pub pass_s: Vec<f64>,
    /// Host seconds of each timed pass with tracing on (traced run only).
    pub traced_pass_s: Vec<f64>,
    /// Ops that passed their checks per second, of each timed pass.
    pub pass_ops_per_s: Vec<f64>,
    /// Set by a pass that cannot be repeated (the fleet went away): the
    /// timed part ends with it.
    pub stop: bool,
    /// Latency of every op, milliseconds.
    pub op_ms: Vec<f64>,
    /// Ops attempted in timed passes.
    pub attempted: u64,
    /// Ops that errored, were refused, timed out or failed a check.
    pub failed: u64,
    /// One line per failure (first few).
    pub failures: Vec<String>,
    /// Peak RSS of daemon children, MiB (0 for in-process workloads).
    pub child_rss_mb: f64,
    /// Workload-derived per-layer metrics.
    pub layer: BTreeMap<String, f64>,
    /// Spans of the traced passes.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty record measuring spans from now.
    pub fn new() -> Outcome {
        Outcome {
            setup_s: Vec::new(),
            pass_s: Vec::new(),
            traced_pass_s: Vec::new(),
            pass_ops_per_s: Vec::new(),
            stop: false,
            op_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            child_rss_mb: 0.0,
            layer: BTreeMap::new(),
            tracer: Tracer::new(Instant::now()),
        }
    }

    /// Count one failed op, keeping the first few reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Every timed pass, traced or not.
    pub fn all_pass_s(&self) -> Vec<f64> {
        self.pass_s
            .iter()
            .chain(&self.traced_pass_s)
            .copied()
            .collect()
    }

    /// Time `setup` `reps` times (the contract asks for a median set-up
    /// time) and keep the last repetition's product.
    pub fn setup<T>(&mut self, reps: usize, mut setup: impl FnMut() -> T) -> T {
        let mut last = None;
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            last = Some(setup());
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        last.expect("at least one set-up repetition")
    }

    /// Run whole passes until `ctx.seconds` of timed work have elapsed. In
    /// a traced run passes alternate between tracing on and off, at least
    /// one of each, so the tracing overhead is measured inside the run.
    pub fn drive(&mut self, ctx: &Ctx, mut pass: impl FnMut(&mut Outcome, usize)) {
        let mut timed = 0.0;
        let mut idx = 0;
        loop {
            let traced = ctx.traced && idx % 2 == 0;
            self.tracer.set_enabled(traced);
            let passed_before = self.attempted.saturating_sub(self.failed);
            let t = Instant::now();
            let span = self.tracer.begin("bench.pass", idx as u64);
            pass(self, idx);
            self.tracer.end(span);
            let s = t.elapsed().as_secs_f64();
            self.tracer.set_enabled(false);
            let passed = self.attempted.saturating_sub(self.failed) - passed_before;
            self.pass_ops_per_s.push(passed as f64 / s.max(1e-9));
            if traced {
                self.traced_pass_s.push(s);
            } else {
                self.pass_s.push(s);
            }
            timed += s;
            idx += 1;
            let both = !ctx.traced || (!self.pass_s.is_empty() && !self.traced_pass_s.is_empty());
            if (timed >= ctx.seconds && both) || self.stop {
                break;
            }
        }
    }
}

/// splitmix64: the harness's own seeded stream, so a change to `gcl-rng`
/// cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `lane` (thread, pass).
    pub fn new(seed: u64, lane: u64) -> Rng {
        Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle_permutes() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut v: Vec<u32> = (0..15).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn traced_drive_runs_both_kinds_of_pass() {
        let ctx = Ctx {
            seed: 1,
            seconds: 0.0,
            traced: true,
            smoke: true,
            gcl_bin: PathBuf::new(),
            scratch: PathBuf::new(),
        };
        let mut out = Outcome::new();
        out.drive(&ctx, |o, _| {
            o.tracer.time("exec.run_job", 0, || ());
        });
        assert_eq!((out.traced_pass_s.len(), out.pass_s.len()), (1, 1));
        // Only the traced pass left spans: the pass and its one call.
        assert_eq!(out.tracer.spans().len(), 2);
    }
}
