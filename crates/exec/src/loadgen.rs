//! `gcl loadgen` — closed-loop load generation against a serve daemon or
//! fleet coordinator, with the harness itself as a measured system.
//!
//! N submitters run the client's closed loop (`client::ClosedLoop`):
//! think (seeded jitter from [`gcl_rng`]), submit one job, record the
//! submit round-trip latency, then wait for the job to reach a terminal
//! state before thinking again.
//! Closed-loop means offered load self-limits to what the server can
//! absorb — the interesting signal is *where* the latency and shedding go
//! as N grows, which is exactly what the periodic sampler records: p50/p99
//! submit latency (log2-bucketed [`Histogram`](gcl_stats::Histogram)),
//! server queue depth, cache-hit rate, and shed counts, as a JSON time
//! series under `results/load/`.
//!
//! Sheds are a success condition, not an error: a coordinator under
//! overload must answer `{"ok":false,"shed":true,…}` quickly instead of
//! stalling, and the generator counts those separately from transport
//! errors so the distinction is visible in the series.

use crate::client::{ClientOptions, ClosedLoop, ServeClient, Tally};
use gcl_stats::Json;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// The counters a sample row and the totals share, in document order.
fn counters(t: &Tally) -> Vec<(&'static str, Json)> {
    vec![
        ("submits", Json::UInt(t.submits)),
        ("accepted", Json::UInt(t.accepted)),
        ("sheds", Json::UInt(t.sheds)),
        ("errors", Json::UInt(t.errors)),
        ("finished", Json::UInt(t.finished)),
        ("p50_us", Json::UInt(t.submit_us.percentile(0.50))),
        ("p99_us", Json::UInt(t.submit_us.percentile(0.99))),
    ]
}

/// Ask the target for queue depth and cache hit rate; zeros when the
/// status call fails (the sampler must never stall the run).
fn sample_status(addr: &str) -> (u64, f64) {
    let status = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        retries: 0,
        response_timeout_ms: 2_000,
        max_frame: 4 * 1024 * 1024,
        ..ClientOptions::default()
    })
    .and_then(|mut c| c.status());
    let Ok(status) = status else {
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

fn write_series(opts: &LoadgenOptions, rows: Vec<Json>, tally: &Tally) -> Result<(), String> {
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
        ("samples", Json::Arr(rows)),
        ("totals", Json::obj(counters(tally))),
    ]);
    gcl_mem::publish(&opts.out, format!("{doc}\n").as_bytes(), true)
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))
}

/// Run one load generation session against `opts.addr` and write the time
/// series to `opts.out`.
///
/// # Errors
///
/// A human-readable message when the options are inconsistent (an
/// unknown workload among them) or the series file cannot be written.
/// Transport failures during the run are *data* (counted in the series),
/// not errors.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    if opts.duration_ms == 0 {
        return Err("loadgen needs a positive duration (--duration-ms)".to_string());
    }
    let specs = ClosedLoop::specs(&opts.workloads, opts.tiny, false)?;
    let traffic = ClosedLoop::new(
        &opts.addr,
        opts.submitters,
        opts.think_ms,
        opts.seed,
        opts.distinct,
        specs,
    )?;
    let started = Instant::now();
    let deadline = started + Duration::from_millis(opts.duration_ms);
    // The main thread is the sampler.
    let (tally, rows) = traffic.run(|live| {
        let period = Duration::from_millis(opts.sample_ms.max(50));
        let mut rows = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return rows;
            }
            std::thread::sleep(period.min(left));
            let (queue_depth, hit_rate) = sample_status(&opts.addr);
            let mut row = vec![("t_ms", Json::UInt(started.elapsed().as_millis() as u64))];
            row.extend(counters(&live.lock().expect("tally poisoned")));
            row.push(("queue_depth", Json::UInt(queue_depth)));
            row.push(("hit_rate", Json::Float(hit_rate)));
            rows.push(Json::obj(row));
        }
    });
    let report = LoadgenReport {
        submits: tally.submits,
        accepted: tally.accepted,
        sheds: tally.sheds,
        errors: tally.errors,
        finished: tally.finished,
        p50_us: tally.submit_us.percentile(0.50),
        p99_us: tally.submit_us.percentile(0.99),
        samples: rows.len(),
    };
    write_series(opts, rows, &tally)?;
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
        opts.workloads = vec!["bfs".to_string(), "nope".to_string()];
        let err = run_loadgen(&opts).unwrap_err();
        assert!(err.contains("no workload named `nope`"), "{err}");
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
        let text = std::fs::read_to_string(&opts.out).expect("series reads back");
        let doc = Json::parse(&text).expect("series parses");
        assert!(doc.get("samples").is_some());
        assert!(doc.get("totals").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_think_longer_than_the_run_still_stops_on_time() {
        let dir = std::env::temp_dir().join(format!("gcl-loadgen-think-{}", std::process::id()));
        let opts = LoadgenOptions {
            addr: "127.0.0.1:9".to_string(),
            submitters: 2,
            duration_ms: 300,
            think_ms: 60_000,
            sample_ms: 100,
            out: dir.join("series.json"),
            ..LoadgenOptions::default()
        };
        let t0 = Instant::now();
        run_loadgen(&opts).expect("run completes");
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(2), "took {took:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
