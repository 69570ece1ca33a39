//! Property-style tests for `proto::FrameReader`: the framing layer must
//! deliver every frame exactly once — never torn, never duplicated — no
//! matter how the transport fragments the byte stream, and an oversized
//! frame must be rejected without inventing or dropping any frame that
//! came before it.

use gcl_exec::proto::inventory_frame;
use gcl_exec::{FrameError, FrameReader};
use std::io::{ErrorKind, Read};

/// A scripted reader: each `read` call pops one step — either a byte
/// chunk or a `WouldBlock` (socket read timeout). Exhausted scripts
/// return EOF.
struct Script {
    steps: Vec<Option<Vec<u8>>>,
    next: usize,
}

impl Script {
    fn new(steps: Vec<Option<Vec<u8>>>) -> Script {
        Script { steps, next: 0 }
    }
}

impl Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(step) = self.steps.get(self.next) else {
            return Ok(0);
        };
        self.next += 1;
        match step {
            None => Err(std::io::Error::from(ErrorKind::WouldBlock)),
            Some(bytes) => {
                assert!(buf.len() >= bytes.len(), "script chunk exceeds read buf");
                buf[..bytes.len()].copy_from_slice(bytes);
                Ok(bytes.len())
            }
        }
    }
}

/// Drain a reader to EOF, treating timeouts as "try again" exactly as the
/// serve/worker loops do. Returns the delivered frames.
fn drain(reader: &mut FrameReader<Script>) -> Vec<String> {
    let mut frames = Vec::new();
    loop {
        match reader.next_frame() {
            Ok(frame) => frames.push(frame),
            Err(FrameError::Timeout) => continue,
            Err(FrameError::Closed) => return frames,
            Err(e) => panic!("unexpected frame error: {e}"),
        }
    }
}

/// Frames of assorted lengths (including some at tricky sizes: empty-ish,
/// one byte, exactly-chunk-adjacent) with distinct contents.
fn corpus() -> Vec<String> {
    let mut frames = vec![
        "a".to_string(),
        "{\"op\":\"ping\",\"seq\":1}".to_string(),
        "x".repeat(63),
        "y".repeat(64),
        "z".repeat(65),
        "{\"op\":\"done\",\"job\":42,\"stats\":\"00ff00ff\"}".to_string(),
        inventory_frame(&[3, 9]).render_compact(),
    ];
    for i in 0..8 {
        frames.push(format!("frame-{i}-{}", "p".repeat(i * 7 + 1)));
    }
    frames
}

fn wire(frames: &[String]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for f in frames {
        bytes.extend_from_slice(f.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn frames_survive_a_split_at_every_byte_boundary() {
    let frames = corpus();
    let bytes = wire(&frames);
    for split in 0..=bytes.len() {
        // One split point, with a read timeout injected at the seam —
        // exactly what a socket delivering a frame in two pieces looks
        // like.
        let steps = vec![
            Some(bytes[..split].to_vec()),
            None,
            Some(bytes[split..].to_vec()),
        ];
        let steps = steps
            .into_iter()
            .filter(|s| s != &Some(Vec::new()))
            .collect();
        let mut reader = FrameReader::new(Script::new(steps), 4096);
        assert_eq!(
            drain(&mut reader),
            frames,
            "frames torn or duplicated when split at byte {split}"
        );
    }
}

#[test]
fn frames_survive_byte_at_a_time_delivery_with_timeouts() {
    let frames = corpus();
    let bytes = wire(&frames);
    // Worst-case fragmentation: every byte its own read, a timeout
    // between each pair.
    let mut steps = Vec::with_capacity(bytes.len() * 2);
    for (i, b) in bytes.iter().enumerate() {
        steps.push(Some(vec![*b]));
        if i % 3 == 0 {
            steps.push(None);
        }
    }
    let mut reader = FrameReader::new(Script::new(steps), 4096);
    assert_eq!(drain(&mut reader), frames);
}

#[test]
fn frames_survive_every_chunk_size() {
    let frames = corpus();
    let bytes = wire(&frames);
    for chunk in 1..=64 {
        let steps = bytes.chunks(chunk).map(|c| Some(c.to_vec())).collect();
        let mut reader = FrameReader::new(Script::new(steps), 4096);
        assert_eq!(drain(&mut reader), frames, "chunk size {chunk}");
    }
}

#[test]
fn oversized_frame_rejects_without_tearing_prior_frames() {
    let cap = 64usize;
    // Every prefix length of good frames, then one oversized frame: the
    // good frames must arrive exactly once, then TooLarge — and the
    // reader must keep saying TooLarge instead of resynthesizing frames
    // from the poisoned buffer.
    let good: Vec<String> = (0..6).map(|i| format!("ok-{i}")).collect();
    for keep in 0..=good.len() {
        let mut bytes = wire(&good[..keep]);
        bytes.extend_from_slice("B".repeat(cap * 3).as_bytes());
        bytes.push(b'\n');
        for chunk in [1usize, 7, 64, 4096] {
            let steps = bytes.chunks(chunk).map(|c| Some(c.to_vec())).collect();
            let mut reader = FrameReader::new(Script::new(steps), cap);
            let mut seen = Vec::new();
            let rejected = loop {
                match reader.next_frame() {
                    Ok(frame) => seen.push(frame),
                    Err(FrameError::Timeout) => continue,
                    Err(FrameError::TooLarge { limit }) => break limit,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            };
            assert_eq!(rejected, cap);
            assert_eq!(seen, good[..keep], "prefix {keep} chunk {chunk}");
            // The stream is unrecoverable by contract; it must stay
            // rejected, not cough up torn bytes as frames.
            for _ in 0..3 {
                match reader.next_frame() {
                    Err(FrameError::TooLarge { .. }) | Err(FrameError::Closed) => {}
                    other => panic!("poisoned reader produced {other:?}"),
                }
            }
        }
    }
}

#[test]
fn interleaved_oversized_streams_never_duplicate_across_readers() {
    // Model a server handling rejects per connection: each connection is
    // a fresh reader; frames delivered on one must never leak into
    // another even when the previous reader died mid-oversized-frame.
    let cap = 32usize;
    let mut all_delivered = Vec::new();
    for conn in 0..4 {
        let frames: Vec<String> = (0..3).map(|i| format!("c{conn}-f{i}")).collect();
        let mut bytes = wire(&frames);
        bytes.extend_from_slice("X".repeat(cap * 2).as_bytes()); // no newline: torn + oversized
        let steps = bytes.chunks(5).map(|c| Some(c.to_vec())).collect();
        let mut reader = FrameReader::new(Script::new(steps), cap);
        loop {
            match reader.next_frame() {
                Ok(f) => all_delivered.push(f),
                Err(FrameError::Timeout) => continue,
                Err(_) => break,
            }
        }
    }
    let mut unique = all_delivered.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all_delivered.len(), "duplicated frame");
    assert_eq!(all_delivered.len(), 12, "lost a frame: {all_delivered:?}");
}

/// `Conn`'s deadline contract over a real socket: a reply arrives through
/// `request`, a complete non-JSON line is `BadJson` (and the stream stays
/// usable), a silent peer is `Timeout` only once the deadline has passed,
/// and a frame that is already there is returned even past the deadline.
#[test]
fn conn_request_and_recv_by_honor_the_deadline_contract() {
    use gcl_exec::proto::Conn;
    use gcl_stats::Json;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut lines = BufReader::new(stream.try_clone().expect("clone")).lines();
        let mut out = stream;
        // One request in, then: a reply, a garbage line, two late frames.
        let request = lines.next().expect("request").expect("read");
        assert_eq!(request, "{\"op\":\"status\"}");
        out.write_all(b"{\"ok\":true}\nnot json\n").expect("reply");
        let go = lines.next().expect("go").expect("read");
        assert_eq!(go, "{\"op\":\"go\"}");
        out.write_all(b"{\"late\":1}\n{\"late\":2}\n")
            .expect("late frames");
        // Hold the socket open until the client hangs up.
        assert!(lines.next().is_none());
    });

    let tick = Duration::from_millis(10);
    let mut conn = Conn::dial(&addr, tick, Duration::from_secs(5), 1024).expect("dial");
    let soon = || Instant::now() + Duration::from_secs(5);
    let status = Json::obj(vec![("op", Json::Str("status".into()))]);
    let reply = conn.request(&status, soon()).expect("reply");
    assert!(matches!(reply.get("ok"), Some(Json::Bool(true))));
    assert!(matches!(conn.recv_by(soon()), Err(FrameError::BadJson(_))));

    // Nothing more is coming yet: Timeout, and not before the deadline.
    let wait = Duration::from_millis(60);
    let t0 = Instant::now();
    assert_eq!(conn.recv_by(t0 + wait).unwrap_err(), FrameError::Timeout);
    assert!(t0.elapsed() >= wait, "gave up after {:?}", t0.elapsed());

    // Two frames written together arrive in one read; the second is then
    // already buffered and is returned even by a deadline in the past.
    let go = Json::obj(vec![("op", Json::Str("go".into()))]);
    let first = conn.request(&go, soon()).expect("first late frame");
    assert_eq!(first.get("late").and_then(Json::as_u64), Some(1));
    let second = conn.recv_by(Instant::now() - tick).expect("buffered frame");
    assert_eq!(second.get("late").and_then(Json::as_u64), Some(2));

    drop(conn);
    peer.join().expect("peer");
}

/// Every `Conn` disables Nagle, whichever side built it: frames are small
/// request/reply pairs, and a second frame queued behind the peer's
/// delayed ACK would stall for tens of milliseconds.
#[test]
fn conn_sets_nodelay_on_dialled_and_accepted_streams() {
    use gcl_exec::proto::Conn;
    use std::net::TcpListener;
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (tick, write) = (Duration::from_millis(10), Duration::from_secs(5));
    let dialled = Conn::dial(&addr, tick, write, 1024).expect("dial");
    let (stream, _) = listener.accept().expect("accept");
    let accepted = Conn::from_stream(stream, tick, write, 1024).expect("from_stream");
    assert!(dialled.writer.nodelay().expect("dialled nodelay"));
    assert!(accepted.writer.nodelay().expect("accepted nodelay"));
}
