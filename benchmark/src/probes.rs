//! Micro-probes: one small timed loop per layer-level operation, run in
//! every traced run after the workload. They do not depend on which
//! workload ran, so a probe that moves between two commits points at its
//! layer no matter which end-to-end number moved with it.
//!
//! Each probe warms up, sizes an inner loop so that one sample spans a few
//! hundred microseconds, then samples for the probe budget and reports the
//! median (p10, p90 and the iteration count go to the result file).

use crate::common::{Ctx, Rng, ALL_APPS};
use crate::stats::{median, percentile};
use crate::workloads::{all_kernels, default_launch, spec_for};
use gcl_analyze::{affine_loads, critical_loads, divergence, footprints, verify};
use gcl_core::classify;
use gcl_exec::{run_job, run_pool, JobSpec, PoolConfig, ResultCache, TraceStore};
use gcl_mem::{
    AccessOutcome, Cache, CacheConfig, ClassTag, Dec, DramChannel, DramConfig, Enc, Icnt,
    IcntConfig, L2Partition, MemRequest, PartitionConfig,
};
use gcl_ptx::{parse_kernel, Cfg, Kernel, KernelBuilder, Type};
use gcl_sim::{coalesce, pack_params, Dim3, Gpu, GpuConfig};
use gcl_stats::{Histogram, Json};
use gcl_trace::parse_trace;
use gcl_workloads::graph::Csr;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Seconds each micro-probe samples for after its warm-up.
pub const PROBE_SECONDS: f64 = 0.2;

/// One probe's distribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Median of the samples (the reported value).
    pub median: f64,
    /// 10th percentile.
    pub p10: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Iterations of the measured operation, over all samples.
    pub iters: u64,
}

impl Probe {
    fn exact(v: f64) -> Probe {
        Probe {
            median: v,
            p10: v,
            p90: v,
            iters: 1,
        }
    }

    fn of(samples: &[f64], iters: u64) -> Probe {
        Probe {
            median: median(samples),
            p10: percentile(samples, 10.0),
            p90: percentile(samples, 90.0),
            iters,
        }
    }

    fn scaled(self, k: f64) -> Probe {
        Probe {
            median: self.median * k,
            p10: self.p10 * k,
            p90: self.p90 * k,
            iters: self.iters,
        }
    }
}

/// The probe suite's results, by metric name.
pub type Probes = BTreeMap<String, Probe>;

struct Bench {
    budget: f64,
    out: Probes,
}

impl Bench {
    /// Nanoseconds per call of `f`; records nothing.
    fn sample(&self, mut f: impl FnMut()) -> Probe {
        // Warm-up and calibration: how many calls make a ~200 µs sample.
        let t = Instant::now();
        let mut calls = 0u64;
        while t.elapsed().as_secs_f64() < self.budget / 6.0 || calls == 0 {
            f();
            calls += 1;
        }
        let per_call = t.elapsed().as_secs_f64() / calls as f64;
        let inner = ((200e-6 / per_call) as u64).clamp(1, 1 << 20);
        let (mut samples, mut iters) = (Vec::new(), 0u64);
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < self.budget || samples.len() < 3 {
            let s = Instant::now();
            for _ in 0..inner {
                f();
            }
            samples.push(s.elapsed().as_secs_f64() * 1e9 / inner as f64);
            iters += inner;
        }
        Probe::of(&samples, iters)
    }

    /// Record nanoseconds per call of `f`.
    fn ns(&mut self, name: &str, f: impl FnMut()) {
        let p = self.sample(f);
        self.out.insert(name.to_string(), p);
    }

    /// Record microseconds per `unit` (e.g. per kernel) of `f`.
    fn us_per(&mut self, name: &str, units: usize, f: impl FnMut()) {
        let p = self.sample(f).scaled(1e-3 / units as f64);
        self.out.insert(name.to_string(), p);
    }

    /// Record milliseconds per call of `f`.
    fn ms(&mut self, name: &str, f: impl FnMut()) {
        let p = self.sample(f).scaled(1e-6);
        self.out.insert(name.to_string(), p);
    }

    fn put(&mut self, name: &str, v: f64) {
        self.out.insert(name.to_string(), Probe::exact(v));
    }
}

/// `y[i] = 2·x[i] + y[i]`: deterministic loads only.
pub fn axpy_kernel() -> Kernel {
    let mut b = KernelBuilder::new("axpy");
    let px = b.param("x", Type::U64);
    let py = b.param("y", Type::U64);
    let x = b.ld_param(Type::U64, px);
    let y = b.ld_param(Type::U64, py);
    let tid = b.thread_linear_id();
    let xa = b.index64(x, tid, 4);
    let xv = b.ld_global(Type::F32, xa);
    let ya = b.index64(y, tid, 4);
    let yv = b.ld_global(Type::F32, ya);
    let r = b.mad(Type::F32, xv, gcl_ptx::Operand::f32(2.0), yv);
    b.st_global(Type::F32, ya, r);
    b.exit();
    b.build().expect("axpy is well-formed")
}

/// `idx[i] = data[idx[i]]`: one deterministic and one non-deterministic
/// load.
pub fn gather_kernel() -> Kernel {
    let mut b = KernelBuilder::new("gather");
    let pi = b.param("idx", Type::U64);
    let pd = b.param("data", Type::U64);
    let ib = b.ld_param(Type::U64, pi);
    let db = b.ld_param(Type::U64, pd);
    let tid = b.thread_linear_id();
    let ia = b.index64(ib, tid, 4);
    let i = b.ld_global(Type::U32, ia);
    let da = b.index64(db, i, 4);
    let v = b.ld_global(Type::U32, da);
    b.st_global(Type::U32, ia, v);
    b.exit();
    b.build().expect("gather is well-formed")
}

fn exit_kernel() -> Kernel {
    let mut b = KernelBuilder::new("nop");
    b.exit();
    b.build().expect("exit-only kernel is well-formed")
}

const STEP_THREADS: u32 = 16 * 1024;

/// A GPU with the two buffers the step kernels take, gather indices drawn
/// from `seed`.
fn step_gpu(cfg: GpuConfig, seed: u64) -> (Gpu, Vec<u64>) {
    let mut gpu = Gpu::new(cfg).expect("valid configuration");
    let n = u64::from(STEP_THREADS);
    let a = gpu.mem().alloc_array(Type::U32, n).expect("alloc");
    let mut rng = Rng::new(seed, 0x57e9);
    let idx: Vec<u32> = (0..n).map(|_| rng.below(n) as u32).collect();
    gpu.mem().write_u32_slice(a, &idx);
    let d = gpu.mem().alloc_array(Type::U32, n).expect("alloc");
    (gpu, vec![a, d])
}

fn launch_steps(kernel: &Kernel, cfg: &GpuConfig, seed: u64) -> u64 {
    let (mut gpu, bufs) = step_gpu(cfg.clone(), seed);
    let params = pack_params(kernel, &bufs);
    gpu.launch(kernel, Dim3::x(STEP_THREADS / 256), Dim3::x(256), &params)
        .expect("probe kernel runs")
        .cycles
}

/// Host nanoseconds per simulated cycle of `kernel`, sampled in chunks of
/// 64 `launch_step` calls (elapsed ÷ Δ`launch_cycle`).
fn step_probe(b: &mut Bench, name: &str, kernel: &Kernel, seed: u64) {
    let mut samples = Vec::new();
    let mut cycles = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < b.budget || samples.len() < 3 {
        let (mut gpu, bufs) = step_gpu(GpuConfig::fermi(), seed);
        let params = pack_params(kernel, &bufs);
        gpu.launch_begin(kernel, Dim3::x(STEP_THREADS / 256), Dim3::x(256), &params)
            .expect("probe launch begins");
        'launch: loop {
            let c0 = gpu.launch_cycle().unwrap_or(0);
            let s = Instant::now();
            let mut c1 = c0;
            for _ in 0..64 {
                let done = gpu.launch_step(kernel).expect("probe step").is_some();
                c1 = gpu.launch_cycle().unwrap_or(c1 + 1);
                if done {
                    break 'launch;
                }
            }
            samples.push(s.elapsed().as_secs_f64() * 1e9 / (c1 - c0).max(1) as f64);
            cycles += c1 - c0;
        }
    }
    let p = Probe::of(&samples, cycles);
    b.put(&format!("sim.step_ns_per_cycle_p50.{name}"), p.median);
    b.put(&format!("sim.step_ns_per_cycle_p90.{name}"), p.p90);
}

fn ptx_core_analyze(b: &mut Bench, kernels: &[Kernel]) {
    let n = kernels.len();
    let texts: Vec<String> = kernels.iter().map(Kernel::to_string).collect();
    let cfgs: Vec<Cfg> = kernels.iter().map(Cfg::build).collect();
    b.us_per("ptx.fmt_us_per_kernel", n, || {
        for k in kernels {
            black_box(k.to_string());
        }
    });
    b.us_per("ptx.parse_us_per_kernel", n, || {
        for t in &texts {
            black_box(parse_kernel(t).expect("round-trips"));
        }
    });
    b.us_per("ptx.build_us_per_kernel", n, || {
        black_box(all_kernels());
    });
    b.us_per("ptx.cfg_ipdom_us_per_kernel", n, || {
        for k in kernels {
            black_box(Cfg::build(k).immediate_post_dominators());
        }
    });
    b.us_per("ptx.loops_us_per_kernel", n, || {
        for c in &cfgs {
            black_box(c.loop_forest());
        }
    });
    b.us_per("core.classify_us_per_kernel", n, || {
        for k in kernels {
            black_box(classify(k));
        }
    });
    let (d, nn) = kernels
        .iter()
        .map(|k| classify(k).global_load_counts())
        .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    b.put("core.loads_classified", (d + nn) as f64);
    b.put("core.n_load_share", nn as f64 / (d + nn).max(1) as f64);
    b.us_per("analyze.verify_us_per_kernel", n, || {
        for (k, c) in kernels.iter().zip(&cfgs) {
            black_box(verify(k, c));
        }
    });
    b.us_per("analyze.divergence_us_per_kernel", n, || {
        for (k, c) in kernels.iter().zip(&cfgs) {
            black_box(divergence(k, c));
        }
    });
    b.us_per("analyze.affine_us_per_kernel", n, || {
        for k in kernels {
            black_box(affine_loads(k));
        }
    });
    let ctx = default_launch();
    b.us_per("analyze.footprint_us_per_kernel", n, || {
        for k in kernels {
            black_box(footprints(k, &ctx));
        }
    });
    b.us_per("analyze.critical_us_per_kernel", n, || {
        for k in kernels {
            black_box(critical_loads(k));
        }
    });
    let diagnostics: usize = kernels
        .iter()
        .map(|k| gcl_analyze::analyze(k).diagnostics.len())
        .sum();
    b.put("analyze.diagnostics", diagnostics as f64);
}

fn read(id: u64, block: u64) -> MemRequest {
    MemRequest::read(id, block * 128, 0, ClassTag::NonDeterministic, 0, id)
}

fn mem(b: &mut Bench, seed: u64) {
    let mut rng = Rng::new(seed, 0x3e3);
    // Hit: 64 resident lines, seeded order.
    let mut l1 = Cache::new(CacheConfig::fermi_l1());
    for blk in 0..64u64 {
        if l1.access(read(blk, blk), blk) == AccessOutcome::MissIssued {
            let m = l1.pop_miss().expect("queued miss");
            l1.fill(m.block_addr, blk);
        }
    }
    let stream: Vec<u64> = (0..4096).map(|_| rng.below(64)).collect();
    let mut i = 0usize;
    b.ns("mem.cache_hit_ns", || {
        i = (i + 1) % stream.len();
        black_box(l1.access(read(i as u64, stream[i]), i as u64));
    });
    // Miss + fill: a block the cache has never held.
    let mut l1 = Cache::new(CacheConfig::fermi_l1());
    let mut blk = 1u64 << 20;
    b.ns("mem.cache_miss_fill_ns", || {
        blk += 1;
        if l1.access(read(blk, blk), blk) == AccessOutcome::MissIssued {
            let m = l1.pop_miss().expect("queued miss");
            black_box(l1.fill(m.block_addr, blk));
        }
    });
    // Reservation failure: every MSHR holds an unfilled miss.
    let mut l1 = Cache::new(CacheConfig::fermi_l1());
    let mut filled = 0u64;
    while l1.access(read(filled, filled), filled).accepted() {
        l1.pop_miss();
        filled += 1;
    }
    b.ns("mem.cache_rsrv_fail_ns", || {
        blk += 1;
        black_box(l1.access(read(blk, blk), blk));
    });

    // Interconnect: 14 SMs, 6 partitions; loaded = every SM injects each
    // cycle it can and every partition drains.
    let mut icnt = Icnt::new(IcntConfig::fermi(), 14, 6);
    let mut cycle = 0u64;
    b.ns("mem.icnt_loaded_tick_ns", || {
        cycle += 1;
        for sm in 0..14 {
            if icnt.can_inject_request(sm) {
                icnt.inject_request(sm, (cycle as usize + sm) % 6, read(cycle, cycle));
            }
        }
        icnt.tick(cycle);
        for part in 0..6 {
            black_box(icnt.pop_request(part, cycle));
        }
    });
    let mut icnt = Icnt::new(IcntConfig::fermi(), 14, 6);
    b.ns("mem.icnt_idle_tick_ns", || {
        cycle += 1;
        icnt.tick(cycle);
    });

    // L2 partition: a working set four times the slice, so hits, misses and
    // DRAM traffic all occur.
    let cfg = PartitionConfig::fermi();
    let span = (cfg.l2.capacity_bytes() / 128 * 4) as u64;
    let mut part = L2Partition::new(cfg);
    b.ns("mem.l2_loaded_tick_ns", || {
        cycle += 1;
        if part.can_enqueue() {
            part.enqueue(read(cycle, rng.below(span)));
        }
        part.tick(cycle);
        black_box(part.pop_response(cycle));
    });
    let mut part = L2Partition::new(cfg);
    b.ns("mem.l2_idle_tick_ns", || {
        cycle += 1;
        part.tick(cycle);
    });

    let mut dram = DramChannel::new(DramConfig::fermi());
    b.ns("mem.dram_loaded_tick_ns", || {
        cycle += 1;
        dram.try_push(read(cycle, rng.below(1 << 16)), cycle);
        dram.tick(cycle);
        black_box(dram.pop_ready(cycle));
    });
    let mut dram = DramChannel::new(DramConfig::fermi());
    b.ns("mem.dram_idle_tick_ns", || {
        cycle += 1;
        dram.tick(cycle);
    });

    // Wire codec: fixed-width, varint and zigzag fields in equal parts.
    let values: Vec<u64> = (0..16 * 1024)
        .map(|_| rng.next_u64() >> rng.below(64))
        .collect();
    let encode = |values: &[u64]| {
        let mut e = Enc::new();
        for &v in values {
            e.u64(v);
            e.varint(v);
            e.svarint(v as i64);
        }
        e.into_bytes()
    };
    let bytes = encode(&values);
    let mb = bytes.len() as f64 / (1024.0 * 1024.0);
    let enc = b.sample(|| {
        black_box(encode(&values));
    });
    b.put("mem.wire_enc_mb_per_s", mb / (enc.median * 1e-9));
    let dec = b.sample(|| {
        let mut d = Dec::new(&bytes);
        while !d.is_done() {
            let fields = (d.u64(), d.varint(), d.svarint());
            debug_assert!(fields.0.is_ok() && fields.1.is_ok() && fields.2.is_ok());
            let _ = black_box(fields);
        }
    });
    b.put("mem.wire_dec_mb_per_s", mb / (dec.median * 1e-9));
}

fn sim(b: &mut Bench, seed: u64) {
    let mut rng = Rng::new(seed, 0xc0a1);
    let seq: Vec<(u32, u64)> = (0..32).map(|l| (l, 0x1000 + 4 * u64::from(l))).collect();
    let scatter: Vec<(u32, u64)> = (0..32).map(|l| (l, 4 * rng.below(1 << 20))).collect();
    b.ns("sim.coalesce_seq_ns", || {
        black_box(coalesce(&seq, 4, 128));
    });
    b.ns("sim.coalesce_scatter_ns", || {
        black_box(coalesce(&scatter, 4, 128));
    });
    b.us_per("sim.gpu_new_us", 1, || {
        black_box(Gpu::new(GpuConfig::fermi()).expect("valid configuration"));
    });
    let nop = exit_kernel();
    let mut gpu = Gpu::new(GpuConfig::fermi()).expect("valid configuration");
    b.us_per("sim.launch_overhead_us", 1, || {
        black_box(
            gpu.launch(&nop, Dim3::x(1), Dim3::x(32), &[])
                .expect("nop runs"),
        );
    });
    let (axpy, gather) = (axpy_kernel(), gather_kernel());
    step_probe(b, "axpy", &axpy, seed);
    step_probe(b, "gather", &gather, seed);

    // Snapshot and restore in the middle of a gather launch.
    let (mut gpu, bufs) = step_gpu(GpuConfig::fermi(), seed);
    let params = pack_params(&gather, &bufs);
    gpu.launch_begin(&gather, Dim3::x(STEP_THREADS / 256), Dim3::x(256), &params)
        .expect("probe launch begins");
    for _ in 0..500 {
        if gpu.launch_step(&gather).expect("probe step").is_some() {
            break;
        }
    }
    let snap = gpu.snapshot();
    b.put("sim.snapshot_bytes", snap.to_bytes().len() as f64);
    b.ms("sim.snapshot_ms", || {
        black_box(gpu.snapshot());
    });
    b.ms("sim.restore_ms", || {
        gpu.restore(&snap).expect("own snapshot restores");
    });

    // Checker overheads: the same gather launch with the checker on.
    let launch_ns = |b: &Bench, cfg: GpuConfig| {
        b.sample(|| {
            black_box(launch_steps(&gather, &cfg, seed));
        })
        .median
    };
    let plain = launch_ns(b, GpuConfig::fermi());
    let mut cfg = GpuConfig::fermi();
    cfg.sanitize = true;
    let sanitized = launch_ns(b, cfg);
    b.put("sim.sanitize_overhead_ratio", sanitized / plain);
    let mut cfg = GpuConfig::fermi();
    cfg.memcheck = true;
    let checked = launch_ns(b, cfg);
    b.put("sim.memcheck_overhead_ratio", checked / plain);
}

/// Capture, execution and replay of two default-scale apps (a 94-launch
/// D-only app and a single-launch app with N loads), twice each.
fn trace(b: &mut Bench, ctx: &Ctx) {
    let store = TraceStore::new(ctx.scratch.join("probe-traces"));
    let specs: Vec<JobSpec> = ["lu", "htw"]
        .iter()
        .map(|a| spec_for(a, ctx.smoke))
        .collect();
    let (mut exec_s, mut cap_s, mut rep_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes, mut records) = (0u64, 0u64);
    for rep in 0..2 {
        let t = Instant::now();
        for s in &specs {
            black_box(run_job(s, None).outcome.expect("probe execution"));
        }
        exec_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for s in &specs {
            let (_, summary) = store.capture(s).expect("probe capture");
            if rep == 0 {
                bytes += summary.bytes;
                records += summary.records;
            }
        }
        cap_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for s in &specs {
            black_box(store.replay(s).expect("probe replay"));
        }
        rep_s.push(t.elapsed().as_secs_f64());
    }
    let (exec, cap, rep) = (median(&exec_s), median(&cap_s), median(&rep_s));
    let mb = bytes as f64 / (1024.0 * 1024.0);
    b.put("trace.capture_overhead_ratio", cap / exec);
    b.put("trace.replay_speedup", exec / rep);
    // Capture minus execution is what the write side cost.
    b.put("trace.encode_mb_per_s", mb / (cap - exec).max(1e-6));
    b.put(
        "trace.bytes_per_record",
        bytes as f64 / records.max(1) as f64,
    );
    b.put("trace.container_bytes", bytes as f64);
    b.put("trace.records", records as f64);
    let images: Vec<Vec<u8>> = specs
        .iter()
        .map(|s| std::fs::read(store.path_for(s).expect("known app")).expect("container"))
        .collect();
    let parse = b.sample(|| {
        for image in &images {
            black_box(parse_trace(image).expect("own container parses"));
        }
    });
    b.put("trace.parse_mb_per_s", mb / (parse.median * 1e-9));
}

fn workloads_stats(b: &mut Bench) {
    b.us_per("workloads.registry_us", 1, || {
        black_box(gcl_workloads::all_workloads());
    });
    let registry = gcl_workloads::all_workloads();
    b.us_per("workloads.kernels_us", 1, || {
        for w in &registry {
            black_box(w.kernels());
        }
    });
    // The default graph apps' R-MAT (scale 12, 8 edges per vertex) and the
    // default 2mm operand (64 × 64).
    b.ms("workloads.rmat_build_ms", || {
        black_box(Csr::rmat(12, 8, 0xBF5));
    });
    b.ms("workloads.dense_build_ms", || {
        black_box(gcl_workloads::gen::dense_matrix(64, 64, 0x2001));
    });

    // A real `result` frame: the tiny 2mm statistics in wire form.
    let stats = run_job(&spec_for("2mm", true), None)
        .outcome
        .expect("tiny 2mm runs")
        .stats;
    let mut e = Enc::new();
    stats.ckpt_encode(&mut e);
    let frame = Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::UInt(42)),
        ("state", Json::Str("done".into())),
        ("workload", Json::Str("2mm".into())),
        ("cached", Json::Bool(false)),
        ("cycles", Json::UInt(stats.cycles)),
        ("warp_insts", Json::UInt(stats.sm.warp_insts)),
        ("wall_ms", Json::Float(12.5)),
        ("worker", Json::Str("w0".into())),
        (
            "stats",
            Json::Str(gcl_exec::proto::hex_encode(&e.into_bytes())),
        ),
    ]);
    let line = frame.render_compact();
    b.us_per("stats.json_parse_us", 1, || {
        black_box(Json::parse(&line).expect("own frame parses"));
    });
    b.us_per("stats.json_emit_us", 1, || {
        black_box(frame.render_compact());
    });
    let mut h = Histogram::new();
    let mut v = 1u64;
    b.ns("stats.histogram_record_ns", || {
        v = v
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        h.add(v >> 40);
    });
}

fn exec(b: &mut Bench, ctx: &Ctx) {
    let spec = spec_for("bfs", true);
    b.us_per("exec.fingerprint_us", 1, || {
        black_box(spec.fingerprint().expect("known app"));
    });
    let cache = ResultCache::new(ctx.scratch.join("probe-cache"));
    let fp = spec.fingerprint().expect("known app");
    let stats = run_job(&spec, None).outcome.expect("tiny bfs runs").stats;
    b.us_per("exec.cache_store_us", 1, || {
        cache.store(&fp, &stats, 1.0).expect("store");
    });
    b.us_per("exec.cache_load_us", 1, || {
        black_box(cache.load(&fp).expect("just stored"));
    });
    // run_job minus the bare workload run it wraps.
    let dwt = spec_for("dwt", true);
    let job = b.sample(|| {
        black_box(run_job(&dwt, None).outcome.expect("tiny dwt runs"));
    });
    let w = dwt.find_workload().expect("known app");
    let bare = b.sample(|| {
        let mut gpu = Gpu::new(dwt.cfg.clone()).expect("valid configuration");
        black_box(w.run(&mut gpu).expect("tiny dwt runs"));
    });
    b.put(
        "exec.run_job_overhead_us",
        (job.median - bare.median) * 1e-3,
    );
    // Tiny suite on two pool workers over one.
    let specs: Vec<JobSpec> = ALL_APPS.iter().map(|a| spec_for(a, true)).collect();
    let pool_s = |jobs: usize| {
        let cfg = PoolConfig {
            jobs,
            ..PoolConfig::default()
        };
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(run_pool(&specs, &cfg, |_| {}));
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&runs)
    };
    let (j1, j2) = (pool_s(1), pool_s(2));
    b.put("exec.pool_scaling_j2", j2 / j1);
}

/// Wall milliseconds of `gcl <args>` in `dir`, median of `reps`.
fn cli_ms(ctx: &Ctx, dir: &std::path::Path, args: &[&str], reps: usize) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let status = Command::new(&ctx.gcl_bin)
                .args(args)
                .current_dir(dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .unwrap_or_else(|e| panic!("cannot run {}: {e}", ctx.gcl_bin.display()));
            assert!(status.success(), "gcl {args:?} exited {status}");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

fn cli(b: &mut Bench, ctx: &Ctx) {
    let dir = ctx.scratch.join("probe-cli");
    std::fs::create_dir_all(&dir).expect("scratch is writable");
    std::fs::write(dir.join("gather.ptx"), gather_kernel().to_string())
        .expect("scratch is writable");
    b.put("cli.startup_ms", cli_ms(ctx, &dir, &["--help"], 15));
    b.put(
        "cli.classify_file_ms",
        cli_ms(ctx, &dir, &["classify", "gather.ptx"], 15),
    );
    b.put(
        "cli.suite_tiny_ms",
        cli_ms(ctx, &dir, &["suite", "--tiny", "--no-cache"], 3),
    );
    // The first run fills results/cache under `dir`; the timed ones are
    // served from it.
    cli_ms(ctx, &dir, &["suite", "--tiny"], 1);
    b.put(
        "cli.suite_warm_cache_ms",
        cli_ms(ctx, &dir, &["suite", "--tiny"], 3),
    );
}

/// Run every probe.
pub fn run(ctx: &Ctx) -> Probes {
    let mut b = Bench {
        budget: if ctx.smoke { 0.01 } else { PROBE_SECONDS },
        out: Probes::new(),
    };
    b.ns("bench.timer_ns", || {
        black_box(Instant::now().elapsed());
    });
    let kernels = all_kernels();
    ptx_core_analyze(&mut b, &kernels);
    mem(&mut b, ctx.seed);
    sim(&mut b, ctx.seed);
    trace(&mut b, ctx);
    workloads_stats(&mut b);
    exec(&mut b, ctx);
    cli(&mut b, ctx);
    b.out
}
