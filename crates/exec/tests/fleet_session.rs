//! Tests for coordinator client sessions: the NDJSON event stream, the
//! replay cursor, dedup semantics, and admission-control sheds.

use gcl_exec::proto::{session_frame, submit_frame, write_frame};
use gcl_exec::{
    run_worker, ClientOptions, Coordinator, CoordinatorOptions, FleetInject, FrameError,
    FrameReader, ServeClient, SessionClient, WorkerOptions, WorkerReport,
};
use gcl_stats::Json;
use std::net::TcpStream;
use std::time::{Duration, Instant};

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

fn client_opts(addr: std::net::SocketAddr) -> ClientOptions {
    ClientOptions {
        addr: addr.to_string(),
        max_frame: 1024 * 1024,
        ..ClientOptions::default()
    }
}

/// Collect events until a terminal (`done`/`failed`) event for `job`
/// arrives; returns everything seen, terminal included.
fn collect_until_terminal(session: &mut SessionClient, job: u64) -> Vec<Json> {
    let deadline = Instant::now() + Duration::from_secs(300);
    let mut seen = Vec::new();
    loop {
        assert!(Instant::now() < deadline, "no terminal event: {seen:?}");
        let Some(event) = session
            .next_event(Duration::from_secs(5))
            .expect("event stream")
        else {
            continue;
        };
        let kind = event.get("event").and_then(Json::as_str).unwrap_or("");
        let is_terminal = (kind == "done" || kind == "failed")
            && event.get("job").and_then(Json::as_u64) == Some(job);
        seen.push(event);
        if is_terminal {
            return seen;
        }
    }
}

/// A session connection read frame by frame, in the order the coordinator
/// wrote them. `SessionClient` buffers events that arrive ahead of a
/// response, which hides exactly that order.
struct RawSession {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    sid: String,
    /// Every event read so far, heartbeats included, in arrival order.
    events: Vec<Json>,
}

impl RawSession {
    fn open(addr: std::net::SocketAddr) -> RawSession {
        let stream = TcpStream::connect(addr).expect("dial coordinator");
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .expect("read timeout");
        let writer = stream.try_clone().expect("clone stream");
        let mut raw = RawSession {
            reader: FrameReader::new(stream, 1024 * 1024),
            writer,
            sid: String::new(),
            events: Vec::new(),
        };
        write_frame(&mut raw.writer, &session_frame(None)).expect("send attach");
        let ack = raw.response();
        raw.sid = ack
            .get("session")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("session ack: {ack}"))
            .to_string();
        raw
    }

    /// The next frame, or `None` once the coordinator closed the stream.
    fn next(&mut self) -> Option<Json> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            match self.reader.next_frame() {
                Ok(line) => return Some(Json::parse(&line).expect("frame is JSON")),
                Err(FrameError::Timeout) => assert!(Instant::now() < deadline, "stream stalled"),
                Err(_) => return None,
            }
        }
    }

    /// Read one frame into `events` if it is an event; return it otherwise.
    fn read_one(&mut self) -> Option<Json> {
        let frame = self.next().expect("stream ended early");
        if frame.get("event").is_some() {
            self.events.push(frame);
            return None;
        }
        Some(frame)
    }

    /// The next response, keeping the events that arrive ahead of it.
    fn response(&mut self) -> Json {
        loop {
            if let Some(response) = self.read_one() {
                return response;
            }
        }
    }

    /// Submit `workload` with a cycle budget of `max_cycles` on this
    /// session; the ack must arrive before any event of the job it names.
    fn submit(&mut self, workload: &str, max_cycles: Option<u64>) -> u64 {
        let frame = submit_frame(workload, true, false, max_cycles, Some(&self.sid));
        write_frame(&mut self.writer, &frame).expect("send submit");
        let ack = self.response();
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{ack}");
        let id = ack
            .get("id")
            .and_then(Json::as_u64)
            .expect("ack carries the id");
        let early = kinds_for_job(&self.events, id);
        assert!(early.is_empty(), "job {id}'s {early:?} preceded its ack");
        id
    }

    /// Read until job `id`'s terminal event has arrived.
    fn until_terminal(&mut self, id: u64) {
        while !self.events.iter().any(|e| is_terminal(e, id)) {
            if let Some(response) = self.read_one() {
                panic!("response with no request: {response}");
            }
        }
    }
}

fn is_terminal(event: &Json, job: u64) -> bool {
    let kind = event.get("event").and_then(Json::as_str);
    matches!(kind, Some("done" | "failed")) && event.get("job").and_then(Json::as_u64) == Some(job)
}

/// The sequence numbers of the sequenced events in `events`.
fn seqs(events: &[Json]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| e.get("seq").and_then(Json::as_u64))
        .collect()
}

fn kinds_for_job(events: &[Json], job: u64) -> Vec<String> {
    events
        .iter()
        .filter(|e| e.get("job").and_then(Json::as_u64) == Some(job))
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .map(str::to_string)
        .collect()
}

#[test]
fn session_streams_lifecycle_events_with_monotonic_seq() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions {
        // Fast heartbeats so the depth event shows up quickly.
        heartbeat_ms: 120,
        heartbeat_timeout_ms: 2_000,
        ..CoordinatorOptions::default()
    });
    let worker = spawn_worker(addr, "w0");

    let mut session = SessionClient::open(client_opts(addr), None).expect("open session");
    assert!(!session.id().is_empty(), "coordinator assigns a session id");
    let submit = session.submit("bfs", true, false).expect("submit");
    assert!(!submit.deduped);

    let events = collect_until_terminal(&mut session, submit.id);
    let kinds = kinds_for_job(&events, submit.id);
    assert_eq!(kinds.first().map(String::as_str), Some("queued"));
    assert!(
        kinds.iter().any(|k| k == "leased"),
        "lease is announced: {kinds:?}"
    );
    assert_eq!(kinds.last().map(String::as_str), Some("done"));

    // Sequenced events are strictly increasing; depth heartbeats are
    // live-only and unsequenced.
    let seqs: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("seq").and_then(Json::as_u64))
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order: {seqs:?}");
    let done = events.last().expect("terminal");
    assert_eq!(done.get("workload").and_then(Json::as_str), Some("bfs"));
    assert_eq!(done.get("cached"), Some(&Json::Bool(false)));
    assert!(done.get("wall_ms").and_then(Json::as_f64).is_some());
    assert!(done.get("worker_wall_ms").and_then(Json::as_f64).is_some());
    assert_eq!(done.get("worker").and_then(Json::as_str), Some("w0"));

    // Idle stream: the queue-depth heartbeat keeps flowing.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "no depth heartbeat");
        let Some(event) = session
            .next_event(Duration::from_secs(2))
            .expect("event stream")
        else {
            continue;
        };
        if event.get("event").and_then(Json::as_str) == Some("depth") {
            assert!(event.get("seq").is_none(), "depth is unsequenced: {event}");
            assert!(event.get("queued").and_then(Json::as_u64).is_some());
            assert!(event.get("running").and_then(Json::as_u64).is_some());
            break;
        }
    }

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
    worker.join().expect("worker thread").expect("worker ran");
}

#[test]
fn resumed_session_replays_events_missed_while_disconnected() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "w0");

    // Submit, then vanish before anything happens on the stream.
    let mut session = SessionClient::open(client_opts(addr), None).expect("open session");
    let submit = session.submit("spmv", true, false).expect("submit");
    let sid = session.id().to_string();
    drop(session);

    // The job finishes while no one is listening.
    let mut c = ServeClient::connect(client_opts(addr)).expect("poll client");
    let r = c.wait(submit.id, Duration::from_secs(300)).expect("wait");
    assert_eq!(r.get("state").and_then(Json::as_str), Some("done"));

    // Resume: the whole history replays from the session log.
    let mut resumed = SessionClient::open(client_opts(addr), Some(&sid)).expect("resume session");
    assert_eq!(resumed.id(), sid);
    assert!(!resumed.truncated(), "log never overflowed");
    let events = collect_until_terminal(&mut resumed, submit.id);
    let kinds = kinds_for_job(&events, submit.id);
    assert_eq!(kinds.first().map(String::as_str), Some("queued"));
    assert!(kinds.iter().any(|k| k == "leased"), "{kinds:?}");
    assert_eq!(kinds.last().map(String::as_str), Some("done"));

    c.shutdown().expect("shutdown");
    worker.join().expect("worker thread").expect("worker ran");
}

#[test]
fn duplicate_submit_dedups_and_emits_synthetic_done() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "w0");

    let mut session = SessionClient::open(client_opts(addr), None).expect("open session");
    let first = session.submit("lu", true, false).expect("submit");
    assert!(!first.deduped);
    let _ = collect_until_terminal(&mut session, first.id);

    // Same spec again: no new job, and — because the job is already
    // terminal — the stream immediately carries a synthetic done so the
    // subscriber doesn't hang waiting for an event that already fired.
    let second = session.submit("lu", true, false).expect("resubmit");
    assert!(second.deduped, "same spec joins the existing job");
    assert_eq!(second.id, first.id);
    let events = collect_until_terminal(&mut session, first.id);
    let kinds = kinds_for_job(&events, first.id);
    assert!(kinds.iter().any(|k| k == "done"), "{kinds:?}");

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    let status = c.status().expect("status");
    let dedup_hits = status
        .get("cache")
        .and_then(|cc| cc.get("dedup_hits"))
        .and_then(Json::as_u64);
    assert_eq!(dedup_hits, Some(1));

    c.shutdown().expect("shutdown");
    worker.join().expect("worker thread").expect("worker ran");
}

#[test]
fn unknown_resume_id_is_rejected_without_retries() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let started = Instant::now();
    let err = match SessionClient::open(client_opts(addr), Some("sess-nope")) {
        Err(e) => e,
        Ok(_) => panic!("attach with a bogus session id must be rejected"),
    };
    assert!(err.contains("unknown session"), "got: {err}");
    // The rejection is final — no backoff-retry loop burning the budget.
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "retried a fatal error"
    );

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
}

#[test]
fn session_inflight_cap_sheds_structurally() {
    // Cap of 1 with no workers: the first submit sits queued forever, the
    // second must be shed with a structured response, not an opaque error
    // and not a hang.
    let (addr, _coord) = start_coordinator(CoordinatorOptions {
        session_inflight_cap: 1,
        ..CoordinatorOptions::default()
    });
    let mut session = SessionClient::open(client_opts(addr), None).expect("open session");
    let first = session.submit("bfs", true, false).expect("first submit");
    assert!(!first.deduped);

    let sid = session.id().to_string();
    let response = session
        .call(&Json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("workload", Json::Str("spmv".into())),
            ("tiny", Json::Bool(true)),
            ("sanitize", Json::Bool(false)),
            ("session", Json::Str(sid)),
        ]))
        .expect("transport ok");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(response.get("shed"), Some(&Json::Bool(true)), "{response}");
    assert!(
        response.get("error").and_then(Json::as_str).is_some(),
        "shed carries a reason: {response}"
    );

    // Dedup joins are exempt: re-submitting the *same* spec attaches to
    // the inflight job instead of shedding.
    let again = session.submit("bfs", true, false).expect("dedup join");
    assert!(again.deduped);
    assert_eq!(again.id, first.id);

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    let status = c.status().expect("status");
    assert_eq!(status.get("sheds").and_then(Json::as_u64), Some(1));
    c.shutdown().expect("shutdown");
}

#[test]
fn queue_cap_sheds_with_structured_response() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions {
        queue_cap: 1,
        ..CoordinatorOptions::default()
    });
    let mut c = ServeClient::connect(client_opts(addr)).expect("client");
    let first = c.submit("bfs", true, false);
    assert!(first.is_ok(), "first submit fits the queue: {first:?}");

    let response = c
        .call(&Json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("workload", Json::Str("spmv".into())),
            ("tiny", Json::Bool(true)),
            ("sanitize", Json::Bool(false)),
        ]))
        .expect("transport ok");
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(response.get("shed"), Some(&Json::Bool(true)), "{response}");
    let error = response
        .get("error")
        .and_then(Json::as_str)
        .expect("shed reason");
    assert!(error.starts_with("queue full"), "got: {error}");

    c.shutdown().expect("shutdown");
}

/// A cycle budget no workload finishes in: the worker answers a structured
/// `fail` as soon as the launch starts, so the job costs next to nothing
/// even in a debug build. Offset by `n`, each one is a fresh cache key.
fn cheap_budget(n: u64) -> Option<u64> {
    Some(1 + n)
}

#[test]
fn a_submit_ack_precedes_every_event_of_its_job() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "w0");
    let mut raw = RawSession::open(addr);
    // Back to back, so a job's events race the next submit's ack.
    let ids: Vec<u64> = (0..8).map(|n| raw.submit("bfs", cheap_budget(n))).collect();
    for id in &ids {
        raw.until_terminal(*id);
    }

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
    worker.join().expect("worker thread").expect("worker ran");
}

#[test]
fn a_fresh_job_streams_queued_leased_done_on_contiguous_seqs() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "w0");
    let mut raw = RawSession::open(addr);
    for workload in ["bfs", "spmv"] {
        let id = raw.submit(workload, None);
        raw.until_terminal(id);
        assert_eq!(
            kinds_for_job(&raw.events, id),
            ["queued", "leased", "done"],
            "{workload}"
        );
    }
    let seqs = seqs(&raw.events);
    assert_eq!(
        seqs,
        (0..6).collect::<Vec<u64>>(),
        "one session, one numbering"
    );

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
    worker.join().expect("worker thread").expect("worker ran");
}

#[test]
fn an_idle_stream_beats_unsequenced_depth_events_at_the_heartbeat() {
    let heartbeat_ms = 120;
    let (addr, _coord) = start_coordinator(CoordinatorOptions {
        heartbeat_ms,
        ..CoordinatorOptions::default()
    });
    let mut raw = RawSession::open(addr);
    let attached = Instant::now();
    // One beat on attach, then one per heartbeat: four take three periods.
    while raw.events.len() < 4 {
        if let Some(response) = raw.read_one() {
            panic!("response with no request: {response}");
        }
    }
    let elapsed = attached.elapsed();
    for event in &raw.events {
        assert_eq!(event.get("event").and_then(Json::as_str), Some("depth"));
        assert!(event.get("seq").is_none(), "depth is unsequenced: {event}");
        assert_eq!(event.get("queued").and_then(Json::as_u64), Some(0));
    }
    let floor = Duration::from_millis(3 * heartbeat_ms - 60);
    assert!(
        elapsed >= floor,
        "four beats in {elapsed:?}: faster than the heartbeat"
    );

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
}

#[test]
fn after_shutdown_the_stream_delivers_every_event_then_ends() {
    let (addr, coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "w0");
    let mut raw = RawSession::open(addr);
    let mut ids = vec![raw.submit("bfs", None)];
    ids.extend((0..4).map(|n| raw.submit("spmv", cheap_budget(n))));

    // Drain with every job still outstanding on the stream.
    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
    while let Some(frame) = raw.next() {
        assert!(
            frame.get("event").is_some(),
            "response with no request: {frame}"
        );
        raw.events.push(frame);
    }
    let (real, cheap) = ids.split_first().expect("jobs");
    assert_eq!(
        kinds_for_job(&raw.events, *real),
        ["queued", "leased", "done"]
    );
    for id in cheap {
        assert_eq!(
            kinds_for_job(&raw.events, *id),
            ["queued", "leased", "failed"]
        );
    }
    let seqs = seqs(&raw.events);
    assert_eq!(seqs, (0..3 * ids.len() as u64).collect::<Vec<u64>>());

    coord.join().expect("coordinator thread joins");
    worker.join().expect("worker thread").expect("worker ran");
}

/// An event leaves when it is logged: twenty near-free jobs, one at a time
/// on one session, each from submit to its terminal event in a median well
/// under one 50 ms read tick.
#[test]
fn a_terminal_event_is_pushed_when_it_is_logged() {
    let (addr, _coord) = start_coordinator(CoordinatorOptions::default());
    let worker = spawn_worker(addr, "w0");
    let mut raw = RawSession::open(addr);
    let mut waits: Vec<Duration> = (0..20)
        .map(|n| {
            let sent = Instant::now();
            let id = raw.submit("bfs", cheap_budget(n));
            raw.until_terminal(id);
            sent.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(
        median < Duration::from_millis(25),
        "median submit -> terminal event {median:?}: {waits:?}"
    );

    let mut c = ServeClient::connect(client_opts(addr)).expect("admin client");
    c.shutdown().expect("shutdown");
    worker.join().expect("worker thread").expect("worker ran");
}
