//! Integration tests for `gcl loadgen` against a live fleet: a healthy
//! run produces a latency time series and finishes jobs; an overloaded
//! coordinator sheds structurally instead of collapsing.

use gcl_exec::{
    run_loadgen, run_worker, ClientOptions, Coordinator, CoordinatorOptions, FleetInject,
    LoadgenOptions, ServeClient, WorkerOptions, WorkerReport,
};
use gcl_stats::Json;
use std::path::PathBuf;

fn start_coordinator(
    opts: CoordinatorOptions,
) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let coordinator = Coordinator::bind(CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        print_outcomes: false,
        ..opts
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().expect("read bound address");
    let handle = std::thread::spawn(move || coordinator.run().expect("coordinator loop"));
    (addr, handle)
}

fn spawn_worker(
    addr: std::net::SocketAddr,
    name: &str,
) -> std::thread::JoinHandle<Result<WorkerReport, String>> {
    let opts = WorkerOptions {
        coord: addr.to_string(),
        name: name.to_string(),
        slots: 2,
        cache: None,
        inject: FleetInject::none(),
        ..WorkerOptions::default()
    };
    std::thread::spawn(move || run_worker(opts))
}

fn series_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gcl-loadgen-{tag}-{}.json", std::process::id()))
}

#[test]
fn loadgen_produces_time_series_against_live_fleet() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let workers: Vec<_> = ["w0", "w1"].iter().map(|n| spawn_worker(addr, n)).collect();
    let out = series_path("fleet");

    let report = run_loadgen(&LoadgenOptions {
        addr: addr.to_string(),
        submitters: 8,
        duration_ms: 3_000,
        think_ms: 5,
        distinct: 3,
        sample_ms: 250,
        workloads: vec!["bfs".to_string(), "spmv".to_string()],
        out: out.clone(),
        ..LoadgenOptions::default()
    })
    .expect("loadgen run");

    assert!(report.submits > 0);
    assert!(report.accepted > 0, "fleet accepted no submits: {report:?}");
    assert!(report.finished > 0, "no job reached terminal: {report:?}");
    assert_eq!(report.errors, 0, "healthy fleet, no transport errors");
    assert!(report.p99_us > 0, "p99 recorded: {report:?}");
    assert!(report.p50_us <= report.p99_us);
    assert!(report.samples > 0, "time series sampled: {report:?}");

    // The emitted series is a self-describing JSON document with one row
    // per sampling period and run totals.
    let text = std::fs::read_to_string(&out).expect("series file");
    let doc = Json::parse(&text).expect("series parses");
    assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
    assert_eq!(doc.get("submitters").and_then(Json::as_u64), Some(8));
    let samples = doc.get("samples").and_then(Json::as_arr).expect("samples");
    assert_eq!(samples.len(), report.samples);
    for row in samples {
        assert!(row.get("t_ms").and_then(Json::as_u64).is_some());
        assert!(row.get("p99_us").and_then(Json::as_u64).is_some());
        assert!(row.get("queue_depth").is_some());
        assert!(row.get("hit_rate").is_some());
    }
    // Six keys under thousands of closed-loop submits: nearly every submit
    // joins a job that is already running or done.
    let last = samples.last().expect("at least one sample");
    let hit_rate = last.get("hit_rate").and_then(Json::as_f64);
    assert!(hit_rate.is_some_and(|r| r > 0.5), "last sample: {last}");
    let totals = doc.get("totals").expect("totals");
    assert_eq!(
        totals.get("accepted").and_then(Json::as_u64),
        Some(report.accepted)
    );
    std::fs::remove_file(&out).ok();

    let mut c = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    })
    .expect("admin client");
    c.shutdown().expect("shutdown");
    for w in workers {
        w.join().expect("worker thread").expect("worker ran");
    }
}

#[test]
fn overloaded_coordinator_sheds_instead_of_collapsing() {
    // A one-slot queue and no workers at all: nearly every submit must be
    // answered with a structured shed, and the generator must register
    // them as sheds — not errors, not hangs.
    let (addr, _coord) = start_coordinator(CoordinatorOptions {
        queue_cap: 1,
        ..CoordinatorOptions::default()
    });
    let out = series_path("overload");

    let report = run_loadgen(&LoadgenOptions {
        addr: addr.to_string(),
        submitters: 12,
        duration_ms: 1_500,
        think_ms: 1,
        distinct: 8,
        sample_ms: 250,
        workloads: vec!["bfs".to_string(), "spmv".to_string(), "lu".to_string()],
        out: out.clone(),
        ..LoadgenOptions::default()
    })
    .expect("loadgen run");

    assert!(report.submits > 0);
    assert!(
        report.sheds >= 1,
        "overload must shed structurally: {report:?}"
    );
    assert_eq!(report.errors, 0, "sheds are not transport errors");
    std::fs::remove_file(&out).ok();

    let mut c = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    })
    .expect("admin client");
    c.shutdown().expect("shutdown");
}
