//! Where a finished result lives: in the coordinator's job table. Losing
//! the workers that computed a sweep costs nothing — a resubmit of every
//! key, from a client that has never seen the fleet, is answered from the
//! table without a simulation, byte-identical to a serial run. Worker loss
//! is injected deterministically with the `decommission` verb.

use gcl_exec::fleet::encode_stats_payload;
use gcl_exec::{
    run_job, run_worker, ClientOptions, Coordinator, CoordinatorOptions, JobSpec, ServeClient,
    WorkerOptions,
};
use gcl_sim::GpuConfig;
use gcl_stats::Json;
use std::time::{Duration, Instant};

const SWEEP: &[&str] = &["2mm", "gaus", "lu", "spmv", "dwt", "bfs"];

fn client(addr: std::net::SocketAddr) -> ServeClient {
    ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    })
    .expect("connect client")
}

fn cache_counter(client: &mut ServeClient, field: &str) -> u64 {
    let status = client.status().expect("status");
    status
        .get("cache")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no cache counter `{field}` in {status}"))
}

/// Submit the whole sweep and return each done job's `sum` field.
fn sweep_sums(client: &mut ServeClient) -> Vec<String> {
    let ids: Vec<u64> = SWEEP
        .iter()
        .map(|w| client.submit(w, true, false).expect("submit"))
        .collect();
    ids.iter()
        .map(|&id| {
            let r = client
                .wait(id, Duration::from_secs(300))
                .unwrap_or_else(|e| panic!("job {id}: {e}"));
            assert_eq!(r.get("state").and_then(Json::as_str), Some("done"), "{r}");
            r.get("sum")
                .and_then(Json::as_str)
                .expect("sum")
                .to_string()
        })
        .collect()
}

#[test]
fn finished_results_outlive_the_workers_that_computed_them() {
    let coordinator = Coordinator::bind(CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        print_outcomes: false,
        chaos_verbs: true,
        ..CoordinatorOptions::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().expect("read bound address");
    let coord = std::thread::spawn(move || coordinator.run().expect("coordinator loop"));
    let workers: Vec<_> = ["alpha", "bravo", "charlie"]
        .iter()
        .map(|name| {
            let opts = WorkerOptions {
                coord: addr.to_string(),
                name: name.to_string(),
                slots: 2,
                // No local result cache: every execution is a real
                // simulation, so the coordinator's `sims` counter is exact.
                cache: None,
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || run_worker(opts))
        })
        .collect();
    let mut c = client(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = c.status().expect("status");
        let rows = status.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
        if rows.len() == 3 {
            break;
        }
        assert!(Instant::now() < deadline, "never saw 3 workers: {status}");
        std::thread::sleep(Duration::from_millis(25));
    }

    let serial: Vec<String> = SWEEP
        .iter()
        .map(|w| {
            let spec = JobSpec::new(*w, true, GpuConfig::small());
            let out = run_job(&spec, None).outcome.expect("serial run");
            encode_stats_payload(&out.stats).1
        })
        .collect();

    assert_eq!(sweep_sums(&mut c), serial, "cold sweep matches serial");
    assert_eq!(cache_counter(&mut c, "sims"), SWEEP.len() as u64);
    let dedup_before = cache_counter(&mut c, "dedup_hits");

    for worker in ["alpha", "bravo"] {
        let r = c
            .call(&Json::obj(vec![
                ("op", Json::Str("decommission".into())),
                ("worker", Json::Str(worker.into())),
            ]))
            .expect("decommission call");
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{worker}: {r}");
    }

    let mut fresh = client(addr);
    assert_eq!(
        sweep_sums(&mut fresh),
        serial,
        "resubmits after node loss match serial"
    );
    assert_eq!(
        cache_counter(&mut fresh, "sims"),
        SWEEP.len() as u64,
        "nothing re-simulated"
    );
    assert_eq!(
        cache_counter(&mut fresh, "dedup_hits"),
        dedup_before + SWEEP.len() as u64,
        "every resubmit joined its finished job"
    );

    fresh.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
    for w in workers {
        // Decommissioned workers see an abrupt close.
        let _ = w.join().expect("worker thread");
    }
}
