//! One scripted fleet run through the real `gcl coordinate --journal`,
//! pinned byte for byte: the journal file, every frame the scripted
//! workers receive, the session's sequenced events, the final `status`
//! counters and the coordinator's `fleet:` stderr lines.
//!
//! Two raw-frame workers (`a` and `b`, one slot each) and one
//! `SessionClient` drive it, one step at a time, each step waiting for the
//! event it causes, so every record and event has one order:
//!
//! 1. `a` joins; the session submits `bfs` (job 1), which `a` leases and
//!    holds.
//! 2. `b` joins; the session submits `spmv` (job 2), which goes to `b`
//!    because `a` is full; `b` disconnects holding it, and job 2 is
//!    reclaimed.
//! 3. `a` finishes job 1, is assigned job 2 and finishes it.
//! 4. The session submits `lu` (job 3); `a` answers with a structured
//!    `fail`.
//! 5. The session resubmits `bfs`, a dedup join of the finished job 1.
//! 6. `a` disconnects; `status`, then `shutdown` drains the empty queue
//!    and the coordinator exits 0.
//!
//! The heartbeat and lease deadlines are far beyond the run, so no timer
//! fires. On a mismatch the actual text is written under
//! `CARGO_TARGET_TMPDIR` and the failure names the first differing line;
//! copying it over `tests/golden/fleet_script.txt` accepts the change.

use gcl::exec::fleet::encode_stats_payload;
use gcl::exec::proto::{write_frame, FrameReader};
use gcl::prelude::*;
use gcl::stats::Json;
use std::fmt::Write as _;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PATIENCE: Duration = Duration::from_secs(30);

fn free_addr() -> String {
    let holder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    holder.local_addr().expect("addr").to_string()
}

/// The coordinator process, killed and reaped if the test fails early.
struct Coordinator(Child);

impl Drop for Coordinator {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A worker speaking raw frames: every frame it receives is noted in
/// `seen`, in order.
struct Worker {
    name: &'static str,
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    seen: Vec<String>,
}

impl Worker {
    /// Dial (until the coordinator listens), send `join` and read the ack.
    fn join(addr: &str, name: &'static str) -> Worker {
        let deadline = Instant::now() + PATIENCE;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "coordinator never listened: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        stream.set_read_timeout(Some(PATIENCE)).expect("timeout");
        let writer = stream.try_clone().expect("clone");
        let mut worker = Worker {
            name,
            reader: FrameReader::new(stream, 1 << 20),
            writer,
            seen: Vec::new(),
        };
        worker.send(&Json::obj(vec![
            ("op", Json::Str("join".into())),
            ("name", Json::Str(name.into())),
            ("slots", Json::UInt(1)),
        ]));
        worker.recv();
        worker
    }

    fn send(&mut self, frame: &Json) {
        write_frame(&mut self.writer, frame).expect("worker write");
    }

    fn recv(&mut self) -> Json {
        let line = (self.reader.next_frame())
            .unwrap_or_else(|e| panic!("worker `{}` read: {e:?}", self.name));
        self.seen.push(line.clone());
        Json::parse(&line).expect("frame json")
    }

    /// Read the next frame, which must assign job `id`.
    fn expect_assign(&mut self, id: u64) {
        let frame = self.recv();
        assert_eq!(frame.get("op").and_then(Json::as_str), Some("assign"));
        assert_eq!(frame.get("job").and_then(Json::as_u64), Some(id));
    }

    fn done(&mut self, id: u64, cycles: u64) {
        let stats = LaunchStats {
            cycles,
            digest: Some(cycles * 7),
            ..LaunchStats::default()
        };
        let (hex, sum) = encode_stats_payload(&stats);
        self.send(&Json::obj(vec![
            ("op", Json::Str("done".into())),
            ("job", Json::UInt(id)),
            ("cached", Json::Bool(false)),
            ("wall_ms", Json::Float(1.5)),
            ("worker_wall_ms", Json::Float(2.25)),
            ("stats", Json::Str(hex)),
            ("sum", Json::Str(sum)),
        ]));
    }
}

/// The session and the sequenced events it has seen (`depth` beats are
/// live-only and timing-dependent, so they are dropped).
struct Session {
    client: SessionClient,
    events: Vec<String>,
}

impl Session {
    /// Read events until one of `kind` for job `id` arrives.
    fn await_event(&mut self, kind: &str, id: u64) {
        let deadline = Instant::now() + PATIENCE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "no `{kind}` event for job {id}");
            let Some(event) = self.client.next_event(left).expect("session stream") else {
                continue;
            };
            let name = event.get("event").and_then(Json::as_str).unwrap_or("");
            if name == "depth" {
                continue;
            }
            self.events.push(event.render_compact());
            if name == kind && event.get("job").and_then(Json::as_u64) == Some(id) {
                return;
            }
        }
    }

    fn submit(&mut self, workload: &str) -> SessionSubmit {
        self.client.submit(workload, true, false).expect("submit")
    }

    fn call(&mut self, op: &str) -> Json {
        let request = Json::obj(vec![("op", Json::Str(op.into()))]);
        self.client.call(&request).expect("request")
    }
}

/// Ask `status` until worker `name` is no longer alive.
fn await_dead(session: &mut Session, name: &str) {
    let deadline = Instant::now() + PATIENCE;
    loop {
        let status = session.call("status");
        let rows = status.get("workers").and_then(Json::as_arr).unwrap_or(&[]);
        let row = rows
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name));
        if row.and_then(|w| w.get("alive")).and_then(Json::as_bool) == Some(false) {
            return;
        }
        assert!(Instant::now() < deadline, "`{name}` never died: {status}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_scripted_fleet_run_is_pinned() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet_script_pin");
    std::fs::create_dir_all(&tmp).expect("tmp dir");
    let journal = tmp.join(format!("script-{}.journal", std::process::id()));
    let addr = free_addr();
    let mut coordinator = Coordinator(
        Command::new(env!("CARGO_BIN_EXE_gcl"))
            .args(["coordinate", "--addr", &addr, "--journal"])
            .arg(&journal)
            .args(["--lease-ms", "600000", "--heartbeat-ms", "600000"])
            .args(["--heartbeat-timeout-ms", "1200000"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn coordinator"),
    );
    let mut stderr = coordinator.0.stderr.take().expect("stderr pipe");
    let stderr = std::thread::spawn(move || {
        let mut text = String::new();
        stderr.read_to_string(&mut text).expect("read stderr");
        text
    });

    let mut a = Worker::join(&addr, "a");
    let client = SessionClient::open(
        ClientOptions {
            addr: addr.clone(),
            ..ClientOptions::default()
        },
        None,
    )
    .expect("open session");
    let mut s = Session {
        client,
        events: Vec::new(),
    };
    let fresh = |id| SessionSubmit { id, deduped: false };

    // 1. `a` leases job 1 and holds it.
    assert_eq!(s.submit("bfs"), fresh(1));
    a.expect_assign(1);
    s.await_event("leased", 1);

    // 2. `a` is full, so job 2 goes to `b`, which vanishes holding it.
    let mut b = Worker::join(&addr, "b");
    assert_eq!(s.submit("spmv"), fresh(2));
    b.expect_assign(2);
    s.await_event("leased", 2);
    let b_seen = std::mem::take(&mut b.seen);
    drop(b);
    s.await_event("reassigned", 2);

    // 3. `a` finishes job 1, then runs the reclaimed job 2.
    a.done(1, 1234);
    a.expect_assign(2);
    s.await_event("done", 1);
    s.await_event("leased", 2);
    a.done(2, 5678);
    s.await_event("done", 2);

    // 4. A structured failure.
    assert_eq!(s.submit("lu"), fresh(3));
    a.expect_assign(3);
    s.await_event("leased", 3);
    a.send(&Json::obj(vec![
        ("op", Json::Str("fail".into())),
        ("job", Json::UInt(3)),
        ("error", Json::Str("scripted failure".into())),
    ]));
    s.await_event("failed", 3);

    // 5. A dedup join of the finished job 1.
    let dedup = SessionSubmit {
        id: 1,
        deduped: true,
    };
    assert_eq!(s.submit("bfs"), dedup);
    s.await_event("done", 1);

    // 6. `a` leaves, the counters are read, and shutdown drains.
    let a_seen = std::mem::take(&mut a.seen);
    drop(a);
    await_dead(&mut s, "a");
    let status = s.call("status");
    let shutdown = s.call("shutdown");
    let deadline = Instant::now() + PATIENCE;
    let exit = loop {
        if let Some(exit) = coordinator.0.try_wait().expect("wait") {
            break exit;
        }
        assert!(Instant::now() < deadline, "the coordinator never exited");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(exit.success(), "coordinator exit: {exit}");
    let stderr = stderr.join().expect("stderr reader");

    let mut actual = String::from("== journal ==\n");
    let bytes = std::fs::read(&journal).expect("read journal");
    // 32 bytes a row; a run of repeated rows is one row and its count,
    // as `hexdump` folds it (a result payload is mostly zero bytes).
    let mut rows = bytes.chunks(32).peekable();
    while let Some(row) = rows.next() {
        let hex: String = row.iter().map(|b| format!("{b:02x}")).collect();
        let mut repeats = 0;
        while rows.next_if_eq(&row).is_some() {
            repeats += 1;
        }
        match repeats {
            0 => writeln!(actual, "{hex}").unwrap(),
            n => writeln!(actual, "{hex} (x{})", n + 1).unwrap(),
        }
    }
    for (name, seen) in [("a", a_seen), ("b", b_seen)] {
        writeln!(actual, "== worker {name} received ==").unwrap();
        seen.iter().for_each(|f| writeln!(actual, "{f}").unwrap());
    }
    actual += "== session events ==\n";
    s.events
        .iter()
        .for_each(|e| writeln!(actual, "{e}").unwrap());
    actual += "== status ==\n";
    for field in [
        "queue_depth",
        "jobs",
        "workers",
        "cache",
        "sheds",
        "sessions",
    ] {
        let value = status
            .get(field)
            .map(Json::render_compact)
            .unwrap_or_default();
        writeln!(actual, "{field}: {value}").unwrap();
    }
    writeln!(actual, "== shutdown ==\n{}", shutdown.render_compact()).unwrap();
    actual += "== stderr ==\n";
    for line in stderr.lines().filter(|l| l.starts_with("fleet:")) {
        writeln!(actual, "{line}").unwrap();
    }
    std::fs::remove_file(&journal).ok();

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet_script.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected != actual {
        let out = tmp.join("fleet_script.txt");
        std::fs::write(&out, &actual).expect("write actual");
        let line = (expected.lines().zip(actual.lines()))
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
        panic!(
            "fleet script pin: line {} differs\n  golden: {}\n  actual: {}\n  (actual text in {})",
            line + 1,
            expected.lines().nth(line).unwrap_or("<end>"),
            actual.lines().nth(line).unwrap_or("<end>"),
            out.display()
        );
    }
}
