//! `gcl loadgen` — closed-loop load generation against a serve daemon or
//! fleet coordinator, with the harness itself as a measured system.
//!
//! N submitter threads each run a closed loop: think (seeded jitter from
//! [`gcl_rng`]), submit one job, record the submit round-trip latency,
//! then wait for the job to reach a terminal state before thinking again.
//! Closed-loop means offered load self-limits to what the server can
//! absorb — the interesting signal is *where* the latency and shedding go
//! as N grows, which is exactly what the periodic sampler records: p50/p99
//! submit latency (log2-bucketed [`Histogram`]), server queue depth,
//! cache-hit rate, and shed counts, as a JSON time series under
//! `results/load/`.
//!
//! Sheds are a success condition, not an error: a coordinator under
//! overload must answer `{"ok":false,"shed":true,…}` quickly instead of
//! stalling, and the generator counts those separately from transport
//! errors so the distinction is visible in the series.

use crate::job::ExecError;
use crate::proto::{result_frame, submit_frame, Conn};
use gcl_rng::Rng;
use gcl_stats::{Histogram, Json};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Weyl-sequence increment used to derive per-submitter seeds (here and
/// in the soak harness).
pub(crate) const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// How a load generation run drives its target.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server or coordinator address, `HOST:PORT`.
    pub addr: String,
    /// Concurrent closed-loop submitters.
    pub submitters: usize,
    /// How long to generate load, in milliseconds.
    pub duration_ms: u64,
    /// Mean think time between a completed job and the next submit.
    pub think_ms: u64,
    /// Seed for every jitter stream (submitter i uses `seed ^ i·GOLDEN`).
    pub seed: u64,
    /// Submit tiny-scale workloads (keep this on for smoke runs).
    pub tiny: bool,
    /// Distinct cache-key variants per workload (`max_cycles` nudges);
    /// smaller values mean hotter keys and a higher hit rate.
    pub distinct: usize,
    /// Sampling period for the time series, in milliseconds.
    pub sample_ms: u64,
    /// Workloads to cycle through.
    pub workloads: Vec<String>,
    /// Where the JSON time series lands.
    pub out: PathBuf,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            addr: "127.0.0.1:7177".to_string(),
            submitters: 100,
            duration_ms: 5_000,
            think_ms: 10,
            seed: 0x006c_6f61_6400, // "load"
            tiny: true,
            distinct: 8,
            sample_ms: 500,
            workloads: vec![
                "bfs".to_string(),
                "spmv".to_string(),
                "2mm".to_string(),
                "dwt".to_string(),
            ],
            out: PathBuf::from("results/load/loadgen.json"),
        }
    }
}

/// Totals from one load generation run (the series itself is on disk).
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Submit round trips attempted.
    pub submits: u64,
    /// Submits the server accepted.
    pub accepted: u64,
    /// Structured shed responses (queue full / inflight cap).
    pub sheds: u64,
    /// Transport-level failures (connect, timeout, torn frame).
    pub errors: u64,
    /// Jobs observed reaching a terminal state.
    pub finished: u64,
    /// Upper-bound p50 submit latency, microseconds.
    pub p50_us: u64,
    /// Upper-bound p99 submit latency, microseconds.
    pub p99_us: u64,
    /// Rows in the emitted time series.
    pub samples: usize,
}

#[derive(Default)]
struct Agg {
    submit_us: Histogram,
    submits: u64,
    accepted: u64,
    sheds: u64,
    errors: u64,
    finished: u64,
}

struct SampleRow {
    t_ms: u64,
    submits: u64,
    accepted: u64,
    sheds: u64,
    errors: u64,
    finished: u64,
    p50_us: u64,
    p99_us: u64,
    queue_depth: u64,
    hit_rate: f64,
}

impl SampleRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("t_ms", Json::UInt(self.t_ms)),
            ("submits", Json::UInt(self.submits)),
            ("accepted", Json::UInt(self.accepted)),
            ("sheds", Json::UInt(self.sheds)),
            ("errors", Json::UInt(self.errors)),
            ("finished", Json::UInt(self.finished)),
            ("p50_us", Json::UInt(self.p50_us)),
            ("p99_us", Json::UInt(self.p99_us)),
            ("queue_depth", Json::UInt(self.queue_depth)),
            ("hit_rate", Json::Float(self.hit_rate)),
        ])
    }
}

/// One submitter's private connection: raw frames, no retry magic — a
/// failed round trip is counted and the connection redialed, because the
/// generator's job is to *measure* failures, not to hide them. Result
/// payloads carry full wire-encoded stats, hence the frame headroom.
pub(crate) fn dial(addr: &str) -> std::io::Result<Conn> {
    Conn::dial(
        addr,
        Duration::from_millis(50),
        Duration::from_millis(5_000),
        4 * 1024 * 1024,
    )
}

/// How long a submitter waits for one submit or poll response.
const REPLY: Duration = Duration::from_secs(10);

fn submitter_loop(idx: usize, opts: &LoadgenOptions, agg: &Mutex<Agg>, stop: &AtomicBool) {
    let mut rng = Rng::new(opts.seed ^ (idx as u64).wrapping_mul(GOLDEN));
    let mut line: Option<Conn> = None;
    let base_cycles: u64 = if opts.tiny { 20_000_000 } else { 200_000_000 };
    while !stop.load(Ordering::SeqCst) {
        // Think first so a freshly started fleet of N submitters does not
        // arrive as one synchronized thundering herd.
        let think = opts.think_ms / 2 + u64::from(rng.u32_below(opts.think_ms.max(1) as u32 + 1));
        std::thread::sleep(Duration::from_millis(think));
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if line.is_none() {
            match dial(&opts.addr) {
                Ok(l) => line = Some(l),
                Err(_) => {
                    agg.lock().expect("agg poisoned").errors += 1;
                    std::thread::sleep(Duration::from_millis(20 + u64::from(rng.u32_below(80))));
                    continue;
                }
            }
        }
        let workload = &opts.workloads[rng.u32_below(opts.workloads.len() as u32) as usize];
        let variant = u64::from(rng.u32_below(opts.distinct.max(1) as u32));
        // Nudge max_cycles to mint a distinct cache key: same simulation,
        // different fingerprint.
        let max_cycles = (variant > 0).then_some(base_cycles + variant);
        let request = submit_frame(workload, opts.tiny, false, max_cycles, None);
        let conn = line.as_mut().expect("dialed");
        let t0 = Instant::now();
        let response = conn.request(&request, Instant::now() + REPLY);
        let rtt_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let id = {
            let mut a = agg.lock().expect("agg poisoned");
            a.submits += 1;
            a.submit_us.add(rtt_us);
            match &response {
                Ok(r) if matches!(r.get("ok"), Some(Json::Bool(true))) => {
                    a.accepted += 1;
                    r.get("id").and_then(Json::as_u64)
                }
                Ok(r) if matches!(r.get("shed"), Some(Json::Bool(true))) => {
                    a.sheds += 1;
                    None
                }
                Ok(_) => {
                    a.errors += 1;
                    None
                }
                Err(_) => {
                    a.errors += 1;
                    line = None;
                    None
                }
            }
        };
        // Closed loop: wait for our accepted job to finish before the
        // next think. Terminal state is what closes the loop — a lost
        // connection mid-wait just abandons the wait (the job still runs).
        if let Some(id) = id {
            let poll = result_frame(id);
            while !stop.load(Ordering::SeqCst) {
                let Some(l) = line.as_mut() else { break };
                match l.request(&poll, Instant::now() + REPLY) {
                    Ok(r) => match r.get("state").and_then(Json::as_str) {
                        Some("done" | "failed") => {
                            agg.lock().expect("agg poisoned").finished += 1;
                            break;
                        }
                        _ => std::thread::sleep(Duration::from_millis(
                            5 + u64::from(rng.u32_below(20)),
                        )),
                    },
                    Err(_) => {
                        agg.lock().expect("agg poisoned").errors += 1;
                        line = None;
                    }
                }
            }
        }
    }
}

/// Ask the target for queue depth and cache hit rate; zeros when the
/// status call fails (the sampler must never stall the run).
fn sample_status(addr: &str) -> (u64, f64) {
    let Ok(mut line) = dial(addr) else {
        return (0, 0.0);
    };
    let status = Json::obj(vec![("op", Json::Str("status".into()))]);
    let Ok(status) = line.request(&status, Instant::now() + Duration::from_secs(2)) else {
        return (0, 0.0);
    };
    let depth = status
        .get("queue_depth")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let hit_rate = status
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    (depth, hit_rate)
}

fn write_series(
    opts: &LoadgenOptions,
    rows: &[SampleRow],
    report: &LoadgenReport,
) -> Result<(), String> {
    let doc = Json::obj(vec![
        ("version", Json::UInt(1)),
        ("addr", Json::Str(opts.addr.clone())),
        ("submitters", Json::UInt(opts.submitters as u64)),
        ("duration_ms", Json::UInt(opts.duration_ms)),
        ("think_ms", Json::UInt(opts.think_ms)),
        ("distinct", Json::UInt(opts.distinct as u64)),
        ("seed", Json::UInt(opts.seed)),
        (
            "workloads",
            Json::Arr(
                opts.workloads
                    .iter()
                    .map(|w| Json::Str(w.clone()))
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Arr(rows.iter().map(SampleRow::to_json).collect()),
        ),
        (
            "totals",
            Json::obj(vec![
                ("submits", Json::UInt(report.submits)),
                ("accepted", Json::UInt(report.accepted)),
                ("sheds", Json::UInt(report.sheds)),
                ("errors", Json::UInt(report.errors)),
                ("finished", Json::UInt(report.finished)),
                ("p50_us", Json::UInt(report.p50_us)),
                ("p99_us", Json::UInt(report.p99_us)),
            ]),
        ),
    ]);
    gcl_mem::publish(&opts.out, format!("{doc}\n").as_bytes(), true)
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))
}

/// Read back a series document produced by a loadgen (or soak) run.
///
/// # Errors
///
/// [`ExecError::Io`] naming the file on a read or parse failure, so
/// callers report *which* artifact is missing or corrupt.
pub fn read_series(path: &std::path::Path) -> Result<Json, ExecError> {
    let text = std::fs::read_to_string(path).map_err(|e| ExecError::Io {
        path: path.display().to_string(),
        error: e.to_string(),
    })?;
    Json::parse(&text).map_err(|e| ExecError::Io {
        path: path.display().to_string(),
        error: format!("bad series JSON: {e}"),
    })
}

/// Run one load generation session against `opts.addr` and write the time
/// series to `opts.out`.
///
/// # Errors
///
/// A human-readable message when the options are inconsistent or the
/// series file cannot be written. Transport failures during the run are
/// *data* (counted in the series), not errors.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    if opts.submitters == 0 {
        return Err("loadgen needs at least one submitter (--submitters 1)".to_string());
    }
    if opts.duration_ms == 0 {
        return Err("loadgen needs a positive duration (--duration-ms)".to_string());
    }
    if opts.workloads.is_empty() {
        return Err("loadgen needs at least one workload".to_string());
    }
    let agg = Mutex::new(Agg::default());
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let mut rows: Vec<SampleRow> = Vec::new();
    std::thread::scope(|scope| {
        for idx in 0..opts.submitters {
            let agg = &agg;
            let stop = &stop;
            // Submitter threads are shallow (no simulation runs locally),
            // so a small stack keeps thousands of them cheap.
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .name(format!("loadgen-{idx}"))
                .spawn_scoped(scope, move || submitter_loop(idx, opts, agg, stop))
                .expect("spawn submitter");
        }
        // The main thread is the sampler.
        let period = Duration::from_millis(opts.sample_ms.max(50));
        let deadline = started + Duration::from_millis(opts.duration_ms);
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep(period.min(deadline - now));
            let (queue_depth, hit_rate) = sample_status(&opts.addr);
            let a = agg.lock().expect("agg poisoned");
            rows.push(SampleRow {
                t_ms: started.elapsed().as_millis() as u64,
                submits: a.submits,
                accepted: a.accepted,
                sheds: a.sheds,
                errors: a.errors,
                finished: a.finished,
                p50_us: a.submit_us.percentile(0.50),
                p99_us: a.submit_us.percentile(0.99),
                queue_depth,
                hit_rate,
            });
        }
        stop.store(true, Ordering::SeqCst);
    });
    let a = agg.lock().expect("agg poisoned");
    let report = LoadgenReport {
        submits: a.submits,
        accepted: a.accepted,
        sheds: a.sheds,
        errors: a.errors,
        finished: a.finished,
        p50_us: a.submit_us.percentile(0.50),
        p99_us: a.submit_us.percentile(0.99),
        samples: rows.len(),
    };
    drop(a);
    write_series(opts, &rows, &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_are_validated() {
        let mut opts = LoadgenOptions {
            submitters: 0,
            ..LoadgenOptions::default()
        };
        assert!(run_loadgen(&opts).unwrap_err().contains("submitter"));
        opts.submitters = 1;
        opts.duration_ms = 0;
        assert!(run_loadgen(&opts).unwrap_err().contains("duration"));
        opts.duration_ms = 100;
        opts.workloads.clear();
        assert!(run_loadgen(&opts).unwrap_err().contains("workload"));
    }

    #[test]
    fn unreachable_target_yields_errors_not_hangs() {
        let dir = std::env::temp_dir().join(format!("gcl-loadgen-test-{}", std::process::id()));
        let opts = LoadgenOptions {
            addr: "127.0.0.1:9".to_string(), // discard port: nothing listens
            submitters: 2,
            duration_ms: 300,
            think_ms: 5,
            sample_ms: 100,
            out: dir.join("series.json"),
            ..LoadgenOptions::default()
        };
        let report = run_loadgen(&opts).expect("run completes");
        assert!(report.errors > 0, "connect failures must be counted");
        assert_eq!(report.accepted, 0);
        assert!(opts.out.exists(), "series file written even on failure");
        let doc = read_series(&opts.out).expect("series reads back");
        assert!(doc.get("samples").is_some());
        assert!(doc.get("totals").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_series_errors_carry_the_path() {
        let dir = std::env::temp_dir().join(format!("gcl-series-err-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        let err = read_series(&missing).unwrap_err();
        assert!(matches!(&err, ExecError::Io { path, .. } if path.contains("nope.json")));
        assert!(err.to_string().contains("nope.json"), "{err}");

        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "{not json").unwrap();
        let err = read_series(&garbled).unwrap_err();
        assert!(
            matches!(&err, ExecError::Io { path, error }
                if path.contains("garbled.json") && error.contains("bad series JSON")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
