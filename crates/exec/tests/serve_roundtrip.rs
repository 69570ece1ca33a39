//! End-to-end exercise of the `gcl serve` daemon: a real TCP client
//! submits jobs as newline-delimited JSON, polls status and results, sees
//! backpressure when the bounded queue fills, and shuts the server down
//! gracefully.

use gcl_exec::fleet::decode_stats_payload;
use gcl_exec::proto::parse_submit;
use gcl_exec::{run_job, ClientOptions, ServeClient, ServeError, ServeOptions, Server};
use gcl_rng::Backoff;
use gcl_stats::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve daemon");
        let writer = stream.try_clone().expect("clone stream");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    /// Send one request object, read one response line.
    fn call(&mut self, request: &Json) -> Json {
        let mut line = request.render_compact();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("receive");
        Json::parse(response.trim()).expect("response is valid JSON")
    }
}

fn ok(j: &Json) -> bool {
    matches!(j.get("ok"), Some(Json::Bool(true)))
}

fn submit(workload: &str) -> Json {
    Json::obj(vec![
        ("op", Json::Str("submit".into())),
        ("workload", Json::Str(workload.into())),
        ("tiny", Json::Bool(true)),
        ("sanitize", Json::Bool(true)),
    ])
}

/// Start a daemon on an ephemeral port, returning its address and the
/// thread that runs it (joined to prove graceful shutdown terminates).
fn start(opts: ServeOptions) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(opts).expect("bind ephemeral port");
    let addr = server.addr().expect("read bound address");
    let handle = std::thread::spawn(move || server.run().expect("serve loop"));
    (addr, handle)
}

#[test]
fn submit_poll_result_shutdown_roundtrip() {
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        queue_cap: 16,
        cache: None,
        ..ServeOptions::default()
    });
    let mut c = Client::connect(addr);

    // Bad requests are answered, not dropped.
    let r = c.call(&Json::obj(vec![("op", Json::Str("dance".into()))]));
    assert!(!ok(&r));
    let r = c.call(&submit("no-such-workload"));
    assert!(!ok(&r), "unknown workload is a submit-time error");

    // Submit two real jobs; ids are distinct and sequential.
    let r1 = c.call(&submit("bfs"));
    assert!(ok(&r1), "{r1}");
    let id1 = r1.get("id").and_then(Json::as_u64).expect("id");
    let r2 = c.call(&submit("2mm"));
    let id2 = r2.get("id").and_then(Json::as_u64).expect("id");
    assert_ne!(id1, id2);

    // Poll until both are done (tiny workloads: well under the deadline).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut done = Vec::new();
    for id in [id1, id2] {
        loop {
            assert!(Instant::now() < deadline, "job {id} never finished");
            let r = c.call(&Json::obj(vec![
                ("op", Json::Str("result".into())),
                ("id", Json::UInt(id)),
            ]));
            assert!(ok(&r), "{r}");
            match r.get("state").and_then(Json::as_str) {
                Some("done") => {
                    assert!(r.get("cycles").and_then(Json::as_u64).unwrap() > 0);
                    let digest = r.get("digest").and_then(Json::as_str).unwrap().to_string();
                    assert!(digest.starts_with("0x"), "sanitized job has a digest");
                    done.push(digest);
                    break;
                }
                Some("failed") => panic!("job {id} failed: {r}"),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
    assert_eq!(done.len(), 2);

    // Status reflects the finished work and per-worker counters.
    let s = c.call(&Json::obj(vec![("op", Json::Str("status".into()))]));
    assert!(ok(&s), "{s}");
    assert_eq!(
        s.get("jobs")
            .and_then(|j| j.get("done"))
            .and_then(Json::as_u64),
        Some(2)
    );
    let workers = s.get("workers").and_then(Json::as_arr).expect("workers");
    assert_eq!(workers.len(), 1, "one local worker: {s}");
    assert_eq!(workers[0].get("slots").and_then(Json::as_u64), Some(2));
    assert_eq!(workers[0].get("done").and_then(Json::as_u64), Some(2));

    // Graceful shutdown: acknowledged, then the server thread exits once
    // we disconnect.
    let r = c.call(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
    assert!(ok(&r), "{r}");
    // A submit after shutdown is refused while draining.
    let r = c.call(&submit("bfs"));
    assert!(!ok(&r), "submits during drain must be rejected: {r}");
    drop(c);
    handle.join().expect("serve thread exits after drain");
}

#[test]
fn bounded_queue_rejects_submits_under_backpressure() {
    // One worker, queue of one: a burst of submits must overflow. srad is
    // the slowest tiny workload, so the first job pins the worker while
    // the burst lands. The keys are distinct: a resubmit of one spec would
    // be deduplicated onto the first job, never queued.
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        queue_cap: 1,
        cache: None,
        ..ServeOptions::default()
    });
    let mut c = Client::connect(addr);
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for workload in [
        "srad", "bfs", "2mm", "spmv", "gaus", "lu", "htw", "mriq", "dwt", "bpr",
    ] {
        let r = c.call(&submit(workload));
        if ok(&r) {
            accepted += 1;
        } else {
            let msg = r.get("error").and_then(Json::as_str).unwrap_or("");
            assert!(msg.contains("queue full"), "unexpected rejection: {r}");
            rejected += 1;
        }
    }
    assert!(accepted >= 1, "the first submit always fits");
    assert!(
        rejected >= 1,
        "a 10-burst into a 1-slot queue must see backpressure"
    );
    let r = c.call(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
    assert!(ok(&r));
    drop(c);
    handle.join().expect("drain finishes the queued jobs");
}

#[test]
fn oversized_frame_gets_structured_error_and_close() {
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_frame: 256,
        ..ServeOptions::default()
    });
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // A single frame far past the cap, no newline needed — the reader
    // must reject it while buffering, not after.
    let huge = vec![b'x'; 4096];
    writer.write_all(&huge).expect("send oversized frame");
    let mut response = String::new();
    reader.read_line(&mut response).expect("structured error");
    let r = Json::parse(response.trim()).expect("error frame is valid JSON");
    assert!(!ok(&r));
    let msg = r.get("error").and_then(Json::as_str).unwrap_or("");
    assert!(msg.contains("frame too large"), "got: {r}");
    assert!(msg.contains("256"), "error names the cap: {r}");
    // The connection is closed afterwards: the next read sees EOF.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("EOF"), 0);
    // And the daemon itself is unharmed.
    let mut c = Client::connect(addr);
    let r = c.call(&Json::obj(vec![("op", Json::Str("status".into()))]));
    assert!(ok(&r));
    let r = c.call(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
    assert!(ok(&r));
    drop(c);
    handle.join().expect("serve thread exits");
}

#[test]
fn idle_client_does_not_block_drain() {
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    });
    // A client that connects and then says nothing, held open across the
    // shutdown: the drain must not wait for it.
    let _silent = TcpStream::connect(addr).expect("connect silent client");
    let mut c = Client::connect(addr);
    let r = c.call(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
    assert!(ok(&r));
    drop(c);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut joined = false;
    while Instant::now() < deadline {
        if handle.is_finished() {
            joined = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(joined, "drain completed despite the idle connection");
    handle.join().expect("serve thread exits");
}

#[test]
fn serve_client_rides_out_backpressure_with_retries() {
    // One worker, queue of one, and a srad pinning the worker: direct
    // submits overflow, but ServeClient::submit retries with backoff until
    // capacity frees up.
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        queue_cap: 1,
        cache: None,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        retries: 40,
        backoff: Backoff::new(25, 250),
        ..ClientOptions::default()
    })
    .expect("connect");
    // Drive the queue past capacity: with one slot and one worker, a
    // burst of 4 distinct keys (one spec four times would dedup onto one
    // job) must hit `queue full` at least once, and every submit must
    // nonetheless be accepted eventually.
    let mut ids = Vec::new();
    for workload in ["srad", "bfs", "2mm", "spmv"] {
        ids.push(
            client
                .submit(workload, true, false)
                .expect("backpressure retried"),
        );
    }
    assert_eq!(ids.len(), 4);
    for id in ids {
        let r = client
            .wait(id, Duration::from_secs(120))
            .expect("job finishes");
        assert_eq!(r.get("state").and_then(Json::as_str), Some("done"), "{r}");
    }
    client.shutdown().expect("drain");
    drop(client);
    handle.join().expect("serve thread exits");
}

#[test]
fn resubmit_of_an_identical_spec_joins_the_first_job() {
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    });
    let mut c = Client::connect(addr);
    let first = c.call(&submit("bfs"));
    assert!(ok(&first), "{first}");
    assert_eq!(first.get("deduped"), None, "a new key is not a dedup");
    let again = c.call(&submit("bfs"));
    assert!(ok(&again), "{again}");
    assert_eq!(again.get("id"), first.get("id"), "same spec, same job");
    assert_eq!(again.get("deduped"), Some(&Json::Bool(true)), "{again}");
    let s = c.call(&Json::obj(vec![("op", Json::Str("status".into()))]));
    assert_eq!(
        s.get("cache")
            .and_then(|c| c.get("dedup_hits"))
            .and_then(Json::as_u64),
        Some(1),
        "{s}"
    );
    let r = c.call(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
    assert!(ok(&r));
    drop(c);
    handle.join().expect("serve thread exits");
}

#[test]
fn served_stats_equal_a_serial_run_of_the_same_spec() {
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        ..ClientOptions::default()
    })
    .expect("connect");
    for workload in ["bfs", "2mm", "spmv"] {
        let spec = parse_submit(&submit(workload)).expect("spec");
        let serial = run_job(&spec, None).outcome.expect("serial run").stats;
        let id = client.submit(workload, true, true).expect("submit");
        let r = client.wait(id, Duration::from_secs(120)).expect("result");
        assert_eq!(r.get("state").and_then(Json::as_str), Some("done"), "{r}");
        let hex = r.get("stats").and_then(Json::as_str).expect("stats");
        let sum = r.get("sum").and_then(Json::as_str).expect("sum");
        let served = decode_stats_payload(hex, sum).expect("payload verifies");
        assert_eq!(
            served, serial,
            "{workload}: served stats differ from serial"
        );
    }
    client.shutdown().expect("drain");
    drop(client);
    handle.join().expect("serve thread exits");
}

/// The keys of a JSON object, sorted.
fn keys(j: &Json) -> Vec<&str> {
    let Json::Obj(pairs) = j else {
        panic!("not an object: {j}");
    };
    let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys
}

/// The reply surface, pinned by name: a field added to or dropped from
/// `status` or a done `result` shows up as a diff of these literals.
#[test]
fn status_and_result_replies_carry_exactly_the_pinned_keys() {
    let (addr, handle) = start(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        cache: None,
        ..ServeOptions::default()
    });
    let mut client = ServeClient::connect(ClientOptions {
        addr: addr.to_string(),
        ..ClientOptions::default()
    })
    .expect("connect");
    let id = client.submit("bfs", true, true).expect("submit");
    let result = client.wait(id, Duration::from_secs(120)).expect("result");
    let status = client.status().expect("status");

    assert_eq!(
        keys(&status),
        [
            "cache",
            "draining",
            "jobs",
            "ok",
            "queue_depth",
            "queue_depth_stats",
            "sessions",
            "sheds",
            "workers",
        ]
    );
    assert_eq!(
        keys(status.get("jobs").expect("jobs")),
        ["done", "failed", "queued", "running"]
    );
    assert_eq!(
        keys(status.get("cache").expect("cache")),
        ["dedup_hits", "hit_rate", "resumed", "sims"]
    );
    let workers = status.get("workers").and_then(Json::as_arr).expect("rows");
    assert_eq!(
        keys(&workers[0]),
        [
            "alive",
            "corrupt",
            "done",
            "failed",
            "leased",
            "name",
            "reassigned",
            "slots",
        ]
    );
    assert_eq!(
        keys(&result),
        [
            "assigns",
            "cached",
            "cycles",
            "digest",
            "id",
            "key",
            "ok",
            "state",
            "stats",
            "sum",
            "wall_ms",
            "warp_insts",
            "worker",
            "worker_wall_ms",
            "workload",
        ]
    );
    client.shutdown().expect("drain");
    drop(client);
    handle.join().expect("serve thread exits");
}

#[test]
fn a_local_worker_that_cannot_join_fails_the_run_instead_of_hanging() {
    // A frame cap below the size of the worker's own `join` frame: the
    // coordinator refuses it, so nothing could ever run a job.
    let server = Server::bind(ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_frame: 16,
        ..ServeOptions::default()
    })
    .expect("bind");
    match server.run() {
        Err(ServeError::Net(msg)) => assert!(msg.contains("local worker"), "{msg}"),
        other => panic!("expected a Net error, got {other:?}"),
    }
}
