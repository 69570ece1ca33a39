//! Bounded, deadline-aware NDJSON framing shared by the coordinator and
//! worker sockets and the client.
//!
//! Every socket in the toolkit speaks the same wire form — one compact
//! JSON object per line — but a raw `BufRead::lines()` loop has two
//! robustness holes this module closes:
//!
//! * **Unbounded frames.** A malicious or broken peer can stream gigabytes
//!   without a newline; `lines()` buffers it all. [`FrameReader`] caps the
//!   bytes a single frame may occupy ([`MAX_FRAME`] by default) and
//!   reports [`FrameError::TooLarge`] instead of growing without limit.
//! * **Indefinite blocking.** With no read deadline a stalled peer wedges
//!   the thread (and, during drain, the whole process) forever. Callers
//!   set a read timeout on the socket; [`FrameReader`] surfaces the
//!   resulting `WouldBlock`/`TimedOut` as [`FrameError::Timeout`] so the
//!   loop can check a drain flag or an idle deadline and keep going —
//!   partial frames survive across timeouts.
//!
//! Writes go through [`write_frame`]; with a write timeout set on the
//! socket, a peer that stops reading (slow-loris) turns into a
//! [`FrameError::Timeout`] instead of a hung thread. A timed-out write may
//! have landed partially, so the only safe continuation is dropping the
//! connection — callers do.
//!
//! [`Conn`] is the one place a TCP stream is turned into that pair of
//! deadline-carrying halves, for the dialling side ([`Conn::dial`]) and the
//! accepting side ([`Conn::from_stream`]) alike, and the one
//! request/response loop ([`Conn::request`]). The frame builders and the
//! submit parser every daemon and client shares live here too, so no peer
//! has to import another peer's module to speak the protocol.

use crate::job::JobSpec;
use gcl_sim::GpuConfig;
use gcl_stats::Json;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Default cap on one frame's size in bytes, newline included. Far above
/// any request or result the protocol produces, far below a memory hazard.
pub const MAX_FRAME: usize = 64 * 1024;

/// Why a frame could not be read or written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection (EOF at a frame boundary, or with a
    /// partial frame outstanding — either way the stream is over).
    Closed,
    /// A read or write deadline elapsed. Reads may continue (partial frame
    /// state is kept); a timed-out write leaves the stream unusable.
    Timeout,
    /// The incoming frame exceeded the size cap before its newline.
    TooLarge {
        /// The configured cap in bytes.
        limit: usize,
    },
    /// Any other socket error.
    Io(String),
    /// The peer sent a complete line that is not JSON.
    BadJson(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Timeout => write!(f, "socket deadline elapsed"),
            FrameError::TooLarge { limit } => {
                write!(f, "frame too large (cap {limit} bytes)")
            }
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::BadJson(e) => write!(f, "bad frame: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn io_error(e: std::io::Error) -> FrameError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::Timeout,
        _ => FrameError::Io(e.to_string()),
    }
}

/// A newline-delimited frame reader with a per-frame size cap.
///
/// Keeps partially-read frame bytes across [`FrameError::Timeout`] returns,
/// so a read deadline on the underlying socket turns into a poll tick
/// rather than data loss.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    carry: Vec<u8>,
    /// How many leading bytes of `carry` are known to hold no newline, so
    /// each read scans only the bytes it added.
    scanned: usize,
    max: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap `inner`, capping frames at `max` bytes.
    pub fn new(inner: R, max: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            carry: Vec::new(),
            scanned: 0,
            max: max.max(2),
        }
    }

    /// Read the next non-empty line, trimmed, without its newline.
    ///
    /// # Errors
    ///
    /// [`FrameError::Timeout`] when the socket's read deadline elapses
    /// (call again to continue), [`FrameError::Closed`] on EOF,
    /// [`FrameError::TooLarge`] when a frame outgrows the cap (the stream
    /// cannot be resynchronized afterwards), or [`FrameError::Io`].
    pub fn next_frame(&mut self) -> Result<String, FrameError> {
        loop {
            let fresh = &self.carry[self.scanned..];
            if let Some(offset) = fresh.iter().position(|&b| b == b'\n') {
                let pos = self.scanned + offset;
                if pos >= self.max {
                    // An oversized frame whose newline arrived in the same
                    // read burst as its body: the carry-length guard below
                    // never fired, but the cap is a cap. Leave the carry
                    // untouched — the stream is poisoned either way.
                    return Err(FrameError::TooLarge { limit: self.max });
                }
                // Valid UTF-8 borrows: the trimmed line is the one copy.
                let text = String::from_utf8_lossy(&self.carry[..pos])
                    .trim()
                    .to_string();
                self.carry.drain(..=pos);
                self.scanned = 0;
                if text.is_empty() {
                    continue;
                }
                return Ok(text);
            }
            self.scanned = self.carry.len();
            if self.carry.len() >= self.max {
                return Err(FrameError::TooLarge { limit: self.max });
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => return Err(FrameError::Closed),
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_error(e)),
            }
        }
    }
}

/// Write one compact JSON frame and its trailing newline.
///
/// # Errors
///
/// [`FrameError::Timeout`] when the socket's write deadline elapses (the
/// frame may be partially written — drop the connection), or the mapped
/// socket error.
pub fn write_frame(writer: &mut impl Write, frame: &Json) -> Result<(), FrameError> {
    let mut line = frame.render_compact();
    line.push('\n');
    writer.write_all(line.as_bytes()).map_err(io_error)
}

/// One NDJSON connection: a [`FrameReader`] over the socket and a second
/// handle on the same socket for writes, both carrying deadlines. The
/// fields are public because server loops own their stop conditions and
/// the fleet worker shares the write half between threads.
#[derive(Debug)]
pub struct Conn {
    /// The read half; a blocked read wakes every `read_tick`.
    pub reader: FrameReader<TcpStream>,
    /// The write half; a write blocked past `write_timeout` fails.
    pub writer: TcpStream,
}

impl Conn {
    /// Connect to `addr` and set up both halves.
    ///
    /// # Errors
    ///
    /// The connect or socket-option error.
    pub fn dial(
        addr: &str,
        read_tick: Duration,
        write_timeout: Duration,
        max_frame: usize,
    ) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        Conn::from_stream(stream, read_tick, write_timeout, max_frame)
    }

    /// Set up both halves over an accepted (or freshly connected) stream.
    ///
    /// # Errors
    ///
    /// The socket-option or handle-clone error.
    pub fn from_stream(
        stream: TcpStream,
        read_tick: Duration,
        write_timeout: Duration,
        max_frame: usize,
    ) -> std::io::Result<Conn> {
        stream.set_read_timeout(Some(read_tick))?;
        stream.set_write_timeout(Some(write_timeout))?;
        // Frames are small and each one waits on a reply: with Nagle on, a
        // second frame written before the peer's delayed ACK stalls ~40 ms.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            reader: FrameReader::new(stream, max_frame),
            writer,
        })
    }

    /// Write one frame; see [`write_frame`].
    ///
    /// # Errors
    ///
    /// As [`write_frame`]; drop the connection on any of them.
    pub fn send(&mut self, frame: &Json) -> Result<(), FrameError> {
        write_frame(&mut self.writer, frame)
    }

    /// Read and parse the next frame, waking every read tick to compare
    /// the clock with `deadline`. At least one read is always attempted,
    /// so a frame already buffered is returned even past the deadline.
    ///
    /// # Errors
    ///
    /// [`FrameError::Timeout`] once `deadline` has passed with no complete
    /// frame, [`FrameError::BadJson`] for a line that does not parse, or
    /// the reader's own error.
    pub fn recv_by(&mut self, deadline: Instant) -> Result<Json, FrameError> {
        loop {
            match self.reader.next_frame() {
                Ok(line) => {
                    return Json::parse(&line).map_err(|e| FrameError::BadJson(e.to_string()))
                }
                Err(FrameError::Timeout) if Instant::now() < deadline => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Send `request` and wait for one frame in reply.
    ///
    /// # Errors
    ///
    /// As [`Conn::send`] and [`Conn::recv_by`].
    pub fn request(&mut self, request: &Json, deadline: Instant) -> Result<Json, FrameError> {
        self.send(request)?;
        self.recv_by(deadline)
    }
}

/// The error message prefix every bounded queue in the toolkit uses to
/// signal backpressure; clients match on it to retry with backoff.
pub const QUEUE_FULL: &str = "queue full";

/// Why a daemon (serve or coordinator) failed to start or run, split so
/// the CLI can exit with distinct codes: misconfiguration, a bind that
/// lost its address, or a protocol/socket failure after startup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Invalid options (zero workers, zero queue capacity, bad deadline).
    Config(String),
    /// The listener could not bind (or report) its address.
    Bind(String),
    /// A socket or protocol failure after the listener was up.
    Net(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Config(m) | ServeError::Bind(m) | ServeError::Net(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ServeError {}

/// A structured rejection: `{"ok":false,"error":msg}`.
pub fn error_response(msg: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(msg.into())),
    ])
}

/// A structured load-shedding rejection. `"shed":true` tells clients this
/// is deliberate backpressure (retry later, count it) rather than a hard
/// error; the message still carries the [`QUEUE_FULL`] prefix where the
/// queue is the reason, for older clients that match on text.
pub fn shed_response(msg: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("shed", Json::Bool(true)),
        ("error", Json::Str(msg.into())),
    ])
}

/// The `error` text of a rejection or `fail` frame.
pub fn error_text(response: &Json) -> &str {
    response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or("unknown error")
}

/// A `submit` frame. `max_cycles` overrides the scale's cycle budget
/// (loadgen and soak use it to mint distinct cache keys); `session` tags
/// the job's lifecycle events onto a coordinator session.
pub fn submit_frame(
    workload: &str,
    tiny: bool,
    sanitize: bool,
    max_cycles: Option<u64>,
    session: Option<&str>,
) -> Json {
    let mut fields = vec![
        ("op", Json::Str("submit".into())),
        ("workload", Json::Str(workload.into())),
        ("tiny", Json::Bool(tiny)),
        ("sanitize", Json::Bool(sanitize)),
    ];
    if let Some(max_cycles) = max_cycles {
        fields.push(("max_cycles", Json::UInt(max_cycles)));
    }
    if let Some(session) = session {
        fields.push(("session", Json::Str(session.into())));
    }
    Json::obj(fields)
}

/// A `session` frame: open a fresh coordinator session, or re-attach to
/// `resume = (id, cursor)` and replay its events from `cursor`.
pub fn session_frame(resume: Option<(&str, u64)>) -> Json {
    let mut fields = vec![("op", Json::Str("session".into()))];
    if let Some((id, cursor)) = resume {
        fields.push(("id", Json::Str(id.into())));
        fields.push(("from", Json::UInt(cursor)));
    }
    Json::obj(fields)
}

/// A `result` frame: poll job `id`.
pub fn result_frame(id: u64) -> Json {
    Json::obj(vec![
        ("op", Json::Str("result".into())),
        ("id", Json::UInt(id)),
    ])
}

/// Build and validate the [`JobSpec`] a submit-style request names: the
/// daemons' `submit` verb and the coordinator's `assign` frame share it.
///
/// # Errors
///
/// A human-readable message naming the missing or invalid field, or the
/// unknown workload.
pub fn parse_submit(request: &Json) -> Result<JobSpec, String> {
    let Some(workload) = request.get("workload").and_then(Json::as_str) else {
        return Err("submit needs a `workload` field".to_string());
    };
    let tiny = matches!(request.get("tiny"), Some(Json::Bool(true)));
    let sanitize = matches!(request.get("sanitize"), Some(Json::Bool(true)));
    let mut cfg = if tiny {
        GpuConfig::small()
    } else {
        GpuConfig::fermi()
    };
    cfg.sanitize = sanitize;
    // Optional cycle-budget override; loadgen uses distinct budgets as
    // cache-busting workload variants with distinct fingerprints.
    if let Some(max_cycles) = request.get("max_cycles") {
        let Some(v) = max_cycles.as_u64() else {
            return Err("`max_cycles` must be a positive integer".to_string());
        };
        if v == 0 {
            return Err("`max_cycles` must be a positive integer".to_string());
        }
        cfg.max_cycles = v;
    }
    let spec = JobSpec::new(workload, tiny, cfg);
    // Validate the name up front so a typo is a submit error, not a
    // queued-then-failed job.
    spec.find_workload().map_err(|e| e.to_string())?;
    Ok(spec)
}

/// Wire form of a 64-bit cache key: `0x`-prefixed, zero-padded lower hex.
///
/// Cache keys ride in `result` replies as strings because JSON numbers
/// cannot carry a full u64 faithfully through every decoder.
pub fn encode_key(key: u64) -> String {
    format!("0x{key:016x}")
}

/// Decode [`encode_key`] output, the form every 64-bit key, digest and
/// checksum takes in a frame or a manifest.
///
/// # Errors
///
/// A human-readable message when the prefix or hex digits are malformed.
pub fn decode_key(text: &str) -> Result<u64, String> {
    let digits = text
        .strip_prefix("0x")
        .ok_or_else(|| format!("cache key `{text}` missing 0x prefix"))?;
    let bad = || format!("bad cache key `{text}`");
    // Digits only: `from_str_radix` would also take a leading `+`.
    if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(bad());
    }
    u64::from_str_radix(digits, 16).map_err(|_| bad())
}

/// An `inventory` frame: a worker re-announcing, right after a (re-)join
/// ack, the job ids it is still running. A recovering coordinator
/// reconciles its journal state against this ground truth — leases resume
/// instead of re-running.
pub fn inventory_frame(running: &[u64]) -> Json {
    Json::obj(vec![
        ("op", Json::Str("inventory".into())),
        (
            "running",
            Json::Arr(running.iter().map(|&id| Json::UInt(id)).collect()),
        ),
    ])
}

/// The two lower-hex digits of each byte value.
const HEX_PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut pairs = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        pairs[b] = [DIGITS[b >> 4], DIGITS[b & 0x0f]];
        b += 1;
    }
    pairs
};

/// Lower-hex encoding of arbitrary bytes, for carrying wire-encoded
/// payloads (e.g. `LaunchStats`) inside a JSON frame. Each byte's digit
/// pair is written into a buffer sized up front.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = vec![0; bytes.len() * 2];
    for (pair, &b) in out.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
    }
    String::from_utf8(out).expect("hex digits are ascii")
}

/// The value of one hex digit, either case.
fn hex_nibble(digit: u8) -> Option<u8> {
    match digit {
        b'0'..=b'9' => Some(digit - b'0'),
        b'a'..=b'f' => Some(digit - b'a' + 10),
        b'A'..=b'F' => Some(digit - b'A' + 10),
        _ => None,
    }
}

/// Decode [`hex_encode`] output. Each byte is exactly two hex digits: no
/// sign, no space.
///
/// # Errors
///
/// A human-readable message on odd length or non-hex characters.
pub fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err(format!("odd hex length {}", text.len()));
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        let (Some(hi), Some(lo)) = (hex_nibble(pair[0]), hex_nibble(pair[1])) else {
            return Err(match std::str::from_utf8(pair) {
                Ok(s) => format!("bad hex byte `{s}`"),
                Err(_) => "non-ascii hex".to_string(),
            });
        };
        out.push(hi << 4 | lo);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_split_on_newlines_and_skip_blanks() {
        let data = b"{\"a\":1}\n\n  \n{\"b\":2}\n";
        let mut r = FrameReader::new(Cursor::new(&data[..]), MAX_FRAME);
        assert_eq!(r.next_frame().unwrap(), "{\"a\":1}");
        assert_eq!(r.next_frame().unwrap(), "{\"b\":2}");
        assert_eq!(r.next_frame().unwrap_err(), FrameError::Closed);
    }

    #[test]
    fn oversized_frames_are_rejected_not_buffered() {
        let mut data = vec![b'x'; 4 * 1024];
        data.push(b'\n');
        let mut r = FrameReader::new(Cursor::new(data), 1024);
        assert!(matches!(
            r.next_frame().unwrap_err(),
            FrameError::TooLarge { limit: 1024 }
        ));
    }

    #[test]
    fn a_frame_at_the_cap_still_parses() {
        let body = "y".repeat(1023);
        let data = format!("{body}\n");
        let mut r = FrameReader::new(Cursor::new(data.into_bytes()), 1024);
        assert_eq!(r.next_frame().unwrap(), body);
    }

    /// A reader that yields `WouldBlock` between chunks, like a socket with
    /// a read timeout.
    struct Chunky {
        chunks: Vec<Vec<u8>>,
        blocked: bool,
    }

    impl Read for Chunky {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.blocked {
                self.blocked = true;
                return Err(std::io::Error::from(ErrorKind::WouldBlock));
            }
            self.blocked = false;
            match self.chunks.first() {
                None => Ok(0),
                Some(c) => {
                    let n = c.len().min(buf.len());
                    buf[..n].copy_from_slice(&c[..n]);
                    let rest = c[n..].to_vec();
                    if rest.is_empty() {
                        self.chunks.remove(0);
                    } else {
                        self.chunks[0] = rest;
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn partial_frames_survive_timeouts() {
        let mut r = FrameReader::new(
            Chunky {
                chunks: vec![b"{\"op\":".to_vec(), b"\"ping\"}\n".to_vec()],
                blocked: false,
            },
            MAX_FRAME,
        );
        let mut timeouts = 0;
        loop {
            match r.next_frame() {
                Ok(frame) => {
                    assert_eq!(frame, "{\"op\":\"ping\"}");
                    break;
                }
                Err(FrameError::Timeout) => timeouts += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(timeouts >= 1, "the timeout path never ran");
    }

    #[test]
    fn frames_split_and_batched_across_reads_come_out_whole() {
        let mut r = FrameReader::new(
            Chunky {
                chunks: vec![
                    b"{\"a\":1}\n{\"b\"".to_vec(),
                    b":2}\n \n{\"c\":".to_vec(),
                    b"3".to_vec(),
                    b"}\n{\"d\":4}\n".to_vec(),
                ],
                blocked: false,
            },
            MAX_FRAME,
        );
        let mut frames = Vec::new();
        loop {
            match r.next_frame() {
                Ok(frame) => frames.push(frame),
                Err(FrameError::Timeout) => {}
                Err(FrameError::Closed) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(frames, ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}", "{\"d\":4}"]);
    }

    #[test]
    fn a_frame_outgrowing_the_cap_over_several_reads_is_too_large() {
        let mut r = FrameReader::new(
            Chunky {
                chunks: vec![vec![b'x'; 600], vec![b'x'; 600], b"x\n".to_vec()],
                blocked: false,
            },
            1024,
        );
        let err = loop {
            match r.next_frame() {
                Err(FrameError::Timeout) => {}
                other => break other.unwrap_err(),
            }
        };
        assert_eq!(err, FrameError::TooLarge { limit: 1024 });
    }

    #[test]
    fn cache_keys_round_trip_and_reject_garbage() {
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let text = encode_key(key);
            assert_eq!(text.len(), 18, "{text}");
            assert_eq!(decode_key(&text).unwrap(), key);
        }
        assert!(decode_key("12ab").is_err(), "missing prefix");
        assert!(decode_key("0xzz").is_err(), "non-hex");
        assert!(decode_key("0x").is_err(), "empty digits");
        assert!(decode_key("0x+1").is_err(), "signed digits");
    }

    #[test]
    fn inventory_frames_reparse_faithfully() {
        let inv = inventory_frame(&[3, 9]);
        let v = Json::parse(&inv.render_compact()).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("inventory"));
        let running: Vec<u64> = match v.get("running") {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_u64).collect(),
            other => panic!("bad running field: {other:?}"),
        };
        assert_eq!(running, vec![3, 9]);
        assert!(v.get("keys").is_none());

        let empty = inventory_frame(&[]);
        let v = Json::parse(&empty.render_compact()).unwrap();
        assert!(matches!(v.get("running"), Some(Json::Arr(a)) if a.is_empty()));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = hex_encode(&bytes);
        assert_eq!(hex_decode(&text).unwrap(), bytes);
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn every_byte_value_encodes_as_two_lower_hex_digits_and_decodes_back() {
        let bytes: Vec<u8> = (0..=255).collect();
        let text = hex_encode(&bytes);
        assert_eq!(text.len(), 512);
        for (b, pair) in bytes.iter().zip(text.as_bytes().chunks_exact(2)) {
            assert_eq!(pair, format!("{b:02x}").as_bytes(), "byte {b}");
        }
        assert_eq!(hex_decode(&text).unwrap(), bytes);
        assert_eq!(hex_decode(&text.to_uppercase()).unwrap(), bytes);
    }

    #[test]
    fn hex_decode_inverts_hex_encode_at_every_length_to_64() {
        let bytes: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(0x9d) ^ 0x5a).collect();
        for len in 0..=64 {
            let text = hex_encode(&bytes[..len]);
            assert_eq!(text.len(), 2 * len);
            assert_eq!(hex_decode(&text).unwrap(), &bytes[..len], "length {len}");
        }
    }

    #[test]
    fn hex_decode_error_texts_are_pinned() {
        assert_eq!(hex_decode("abc").unwrap_err(), "odd hex length 3");
        assert_eq!(hex_decode("00zz").unwrap_err(), "bad hex byte `zz`");
        assert_eq!(hex_decode("0g").unwrap_err(), "bad hex byte `0g`");
        assert_eq!(hex_decode(" 0").unwrap_err(), "bad hex byte ` 0`");
        // A pair that is one two-byte UTF-8 character names it; a pair that
        // splits a character is not text at all.
        assert_eq!(hex_decode("00\u{e9}").unwrap_err(), "bad hex byte `\u{e9}`");
        assert_eq!(hex_decode("a\u{e9}b").unwrap_err(), "non-ascii hex");
        assert_eq!(hex_decode("\u{20ac}0").unwrap_err(), "non-ascii hex");
    }

    #[test]
    fn a_signed_hex_pair_is_a_bad_byte() {
        // `u8::from_str_radix` reads "+f" as 0x0f; on the wire it is two
        // characters that are not both hex digits.
        assert_eq!(hex_decode("+f").unwrap_err(), "bad hex byte `+f`");
        assert_eq!(hex_decode("00+0").unwrap_err(), "bad hex byte `+0`");
        assert_eq!(hex_decode("-0").unwrap_err(), "bad hex byte `-0`");
    }
}
