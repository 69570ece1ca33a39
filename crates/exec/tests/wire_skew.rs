//! Mixed-build fleets: an older coordinator still sends `store` / `fetch`
//! frames and an older worker still sends `inventory.keys` and `fetched`.
//! This build has no use for any of them, and none of them may cost the
//! peer its membership: an unknown frame is skipped, the connection and the
//! work on it carry on.

use gcl_exec::fleet::encode_stats_payload;
use gcl_exec::proto::{parse_submit, submit_frame, Conn};
use gcl_exec::{
    run_job, run_worker, ClientOptions, Coordinator, CoordinatorOptions, ServeClient,
    WorkerOptions, MAX_FRAME,
};
use gcl_stats::Json;
use std::net::TcpListener;
use std::time::{Duration, Instant};

const KEY: &str = "0x00000000deadbeef";

fn soon() -> Instant {
    Instant::now() + Duration::from_secs(60)
}

fn op(frame: &Json) -> Option<&str> {
    frame.get("op").and_then(Json::as_str)
}

#[test]
fn a_worker_skips_the_store_and_fetch_frames_of_an_older_coordinator() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let worker = std::thread::spawn(move || {
        run_worker(WorkerOptions {
            coord: addr.to_string(),
            name: "new".to_string(),
            ..WorkerOptions::default()
        })
    });
    let (stream, _) = listener.accept().expect("worker dials");
    let (tick, write) = (Duration::from_millis(50), Duration::from_secs(5));
    let mut c = Conn::from_stream(stream, tick, write, MAX_FRAME).expect("conn");
    assert_eq!(op(&c.recv_by(soon()).expect("join")), Some("join"));
    c.send(&Json::obj(vec![("ok", Json::Bool(true))]))
        .expect("ack");
    let inventory = c.recv_by(soon()).expect("inventory");
    assert_eq!(op(&inventory), Some("inventory"));
    assert!(inventory.get("running").is_some(), "{inventory}");
    assert!(inventory.get("keys").is_none(), "{inventory}");

    c.send(&Json::obj(vec![
        ("op", Json::Str("store".into())),
        ("key", Json::Str(KEY.into())),
        ("stats", Json::Str("00ff".into())),
        ("sum", Json::Str("0x1".into())),
        ("wall_ms", Json::Float(1.0)),
    ]))
    .expect("store");
    c.send(&Json::obj(vec![
        ("op", Json::Str("fetch".into())),
        ("job", Json::UInt(9)),
        ("key", Json::Str(KEY.into())),
    ]))
    .expect("fetch");
    // The next thing the worker says answers the ping: neither frame drew
    // a reply, and neither closed the connection.
    let ping = Json::obj(vec![
        ("op", Json::Str("ping".into())),
        ("seq", Json::UInt(1)),
    ]);
    assert_eq!(op(&c.request(&ping, soon()).expect("pong")), Some("pong"));

    let assign = Json::obj(vec![
        ("op", Json::Str("assign".into())),
        ("job", Json::UInt(1)),
        ("workload", Json::Str("bfs".into())),
        ("tiny", Json::Bool(true)),
        ("sanitize", Json::Bool(false)),
    ]);
    let done = c.request(&assign, soon()).expect("done");
    assert_eq!(op(&done), Some("done"), "{done}");
    c.send(&Json::obj(vec![("op", Json::Str("close".into()))]))
        .expect("close");
    let report = worker.join().expect("worker thread").expect("worker ran");
    assert_eq!(report.jobs_run, 1);
}

#[test]
fn a_coordinator_skips_the_inventory_keys_and_fetched_frames_of_an_older_worker() {
    let coordinator = Coordinator::bind(CoordinatorOptions {
        addr: "127.0.0.1:0".to_string(),
        print_outcomes: false,
        ..CoordinatorOptions::default()
    })
    .expect("bind coordinator");
    let addr = coordinator.addr().expect("addr").to_string();
    let coord = std::thread::spawn(move || coordinator.run().expect("coordinator loop"));

    let tick = Duration::from_millis(50);
    let mut w = Conn::dial(&addr, tick, Duration::from_secs(5), MAX_FRAME).expect("dial");
    let join = Json::obj(vec![
        ("op", Json::Str("join".into())),
        ("name", Json::Str("old".into())),
        ("slots", Json::UInt(1)),
    ]);
    let ack = w.request(&join, soon()).expect("join ack");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{ack}");
    w.send(&Json::obj(vec![
        ("op", Json::Str("inventory".into())),
        ("running", Json::Arr(vec![])),
        ("keys", Json::Arr(vec![Json::Str(KEY.into())])),
    ]))
    .expect("inventory");
    // A rebalance reply (job 0) and a probe reply, miss and "hit".
    for (job, hit) in [(0, false), (7, true)] {
        w.send(&Json::obj(vec![
            ("op", Json::Str("fetched".into())),
            ("job", Json::UInt(job)),
            ("key", Json::Str(KEY.into())),
            ("hit", Json::Bool(hit)),
            ("stats", Json::Str("00ff".into())),
            ("sum", Json::Str("0x1".into())),
        ]))
        .expect("fetched");
    }

    // Still a member: the next job is assigned to it and its answer counts.
    let mut client = ServeClient::connect(ClientOptions {
        addr: addr.clone(),
        ..ClientOptions::default()
    })
    .expect("connect client");
    let id = client.submit("bfs", true, false).expect("submit");
    let assign = next_assign(&mut w);
    // The raw line an older worker parses: every field, in this order.
    assert_eq!(
        assign.render_compact(),
        format!(r#"{{"op":"assign","job":{id},"workload":"bfs","tiny":true,"sanitize":false}}"#)
    );
    let sum = answer(&mut w, id, &assign);
    let r = client.wait(id, Duration::from_secs(60)).expect("result");
    assert_eq!(r.get("sum").and_then(Json::as_str), Some(sum.as_str()));

    // A cycle override rides last, after the scale's fields.
    let submit = submit_frame("bfs", true, true, Some(20_000_001), None);
    let ack = client.call(&submit).expect("submit with max_cycles");
    let id = ack.get("id").and_then(Json::as_u64).expect("job id");
    let assign = next_assign(&mut w);
    assert_eq!(
        assign.render_compact(),
        format!(
            r#"{{"op":"assign","job":{id},"workload":"bfs","tiny":true,"sanitize":true,"max_cycles":20000001}}"#
        )
    );
    let sum = answer(&mut w, id, &assign);
    let r = client.wait(id, Duration::from_secs(60)).expect("result");
    assert_eq!(r.get("sum").and_then(Json::as_str), Some(sum.as_str()));
    let status = client.status().expect("status");
    let rows = status.get("workers").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 1, "{status}");
    assert_eq!(rows[0].get("alive"), Some(&Json::Bool(true)), "{status}");

    client.shutdown().expect("shutdown");
    coord.join().expect("coordinator thread");
}

/// The next `assign` a fake worker receives, answering pings on the way.
fn next_assign(w: &mut Conn) -> Json {
    loop {
        let f = w.recv_by(soon()).expect("frame from coordinator");
        match op(&f) {
            Some("assign") => return f,
            Some("ping") => w
                .send(&Json::obj(vec![("op", Json::Str("pong".into()))]))
                .expect("pong"),
            other => panic!("unexpected frame {other:?}: {f}"),
        }
    }
}

/// Answer `assign` as job `id` with an in-process run of the spec it
/// parses as; returns the payload's `sum`.
fn answer(w: &mut Conn, id: u64, assign: &Json) -> String {
    let spec = parse_submit(assign).expect("assign parses as a spec");
    let stats = run_job(&spec, None).outcome.expect("run").stats;
    let (hex, sum) = encode_stats_payload(&stats);
    w.send(&Json::obj(vec![
        ("op", Json::Str("done".into())),
        ("job", Json::UInt(id)),
        ("cached", Json::Bool(false)),
        ("wall_ms", Json::Float(1.0)),
        ("worker_wall_ms", Json::Float(1.0)),
        ("stats", Json::Str(hex)),
        ("sum", Json::Str(sum.clone())),
    ]))
    .expect("done");
    sum
}
