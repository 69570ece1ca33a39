//! A resilient NDJSON client for `gcl serve` daemons and the fleet
//! coordinator.
//!
//! [`ServeClient`] owns one TCP connection and makes it look reliable:
//!
//! * **Reconnect-and-resume.** Every request/response round trip retries
//!   over a fresh connection (capped-exponential backoff with seeded
//!   jitter from [`gcl_rng::backoff`]) when the socket dies. The protocol
//!   verbs are idempotent — `status`/`result` are reads, and `submit` is
//!   deduplicated by cache key on the fleet coordinator — so replaying the
//!   request after a reconnect resumes the session instead of corrupting
//!   it.
//! * **Backpressure retry.** [`ServeClient::submit`] treats a
//!   `queue full` rejection as a signal, not a failure: it sleeps a
//!   jittered backoff and resubmits, up to the configured attempt budget.
//! * **Deadlines everywhere.** Reads and writes carry timeouts, so a
//!   stalled server produces a structured error instead of a hung client.
//!
//! `ClosedLoop` is the one traffic driver on top of it, behind `gcl
//! loadgen` and `gcl soak`: N submitters, each with a one-attempt
//! `ServeClient`, think, submit and wait for the job in a closed loop.

use crate::job::JobSpec;
use crate::proto::{
    error_text, parse_submit, result_frame, session_frame, submit_frame, Conn, FrameError,
    QUEUE_FULL,
};
use gcl_rng::{backoff::Backoff, Rng};
use gcl_stats::{Histogram, Json};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How a [`ServeClient`] connects and retries.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Server or coordinator address, `HOST:PORT`.
    pub addr: String,
    /// Extra attempts for connects, dropped connections, and `queue full`
    /// rejections (each class budgeted separately).
    pub retries: u64,
    /// Backoff policy between attempts.
    pub backoff: Backoff,
    /// Seed for the backoff jitter stream.
    pub seed: u64,
    /// Deadline for one response, in milliseconds.
    pub response_timeout_ms: u64,
    /// Largest response frame accepted.
    pub max_frame: usize,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            addr: "127.0.0.1:7077".to_string(),
            retries: 8,
            backoff: Backoff::default(),
            seed: 0x0066_6c74, // "flt"
            response_timeout_ms: 120_000,
            max_frame: crate::proto::MAX_FRAME,
        }
    }
}

impl ClientOptions {
    fn response_timeout(&self) -> Duration {
        Duration::from_millis(self.response_timeout_ms.max(1))
    }

    /// Render a failed wait for `what`, naming the deadline on a timeout.
    fn no_response(&self, what: &str, e: FrameError) -> String {
        match e {
            FrameError::Timeout => format!(
                "no {what} from {} within {} ms",
                self.addr, self.response_timeout_ms
            ),
            e => e.to_string(),
        }
    }
}

/// The session half of a client: identity, replay cursor, and the events
/// received but not yet handed to the caller. Inert unless `attach` is set.
#[derive(Default)]
struct Stream {
    /// Attach to a coordinator session after every (re)dial.
    attach: bool,
    id: Option<String>,
    cursor: u64,
    truncated: bool,
    events: VecDeque<Json>,
}

impl Stream {
    /// Record an inbound event frame, advancing the replay cursor.
    fn buffer(&mut self, frame: Json) {
        if let Some(seq) = frame.get("seq").and_then(Json::as_u64) {
            self.cursor = self.cursor.max(seq + 1);
        }
        self.events.push_back(frame);
    }
}

/// One logical session with a serve daemon or fleet coordinator; see the
/// module docs for the reliability contract.
pub struct ServeClient {
    opts: ClientOptions,
    conn: Option<Conn>,
    rng: Rng,
    stream: Stream,
}

impl ServeClient {
    /// Connect to `opts.addr`, retrying with backoff.
    ///
    /// # Errors
    ///
    /// A human-readable message once the attempt budget is exhausted.
    pub fn connect(opts: ClientOptions) -> Result<ServeClient, String> {
        ServeClient::link(opts, Stream::default())
    }

    fn link(opts: ClientOptions, stream: Stream) -> Result<ServeClient, String> {
        let mut client = ServeClient::unlinked(opts, stream);
        client.ensure_conn()?;
        Ok(client)
    }

    /// A client that dials on its first request.
    fn unlinked(opts: ClientOptions, stream: Stream) -> ServeClient {
        ServeClient {
            rng: Rng::new(opts.seed),
            opts,
            conn: None,
            stream,
        }
    }

    /// Sleep the jittered backoff before retry number `attempt`.
    fn back_off(&mut self, attempt: u64) {
        if attempt > 0 {
            let delay = self.opts.backoff.delay_ms(attempt, &mut self.rng);
            std::thread::sleep(Duration::from_millis(delay));
        }
    }

    /// One dial, plus the session attach on a session client.
    fn dial_once(&mut self) -> Result<(), String> {
        let mut conn = Conn::dial(
            &self.opts.addr,
            Duration::from_millis(100),
            Duration::from_millis(5_000),
            self.opts.max_frame,
        )
        .map_err(|e| format!("cannot connect to {}: {e}", self.opts.addr))?;
        if self.stream.attach {
            let stream = &mut self.stream;
            let attach = session_frame(stream.id.as_deref().map(|sid| (sid, stream.cursor)));
            let deadline = Instant::now() + self.opts.response_timeout();
            let ack = conn
                .request(&attach, deadline)
                .map_err(|e| self.opts.no_response("session ack", e))?;
            if !matches!(ack.get("ok"), Some(Json::Bool(true))) {
                return Err(error_text(&ack).to_string());
            }
            let sid = ack
                .get("session")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("session ack has no id: {ack}"))?;
            stream.id = Some(sid.to_string());
            stream.truncated |= matches!(ack.get("truncated"), Some(Json::Bool(true)));
        }
        self.conn = Some(conn);
        Ok(())
    }

    /// Connect-with-backoff. The coordinator disowning the session id is
    /// final; every other failure spends the retry budget.
    fn ensure_conn(&mut self) -> Result<(), String> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last = String::new();
        for attempt in 0..=self.opts.retries {
            self.back_off(attempt);
            match self.dial_once() {
                Ok(()) => return Ok(()),
                Err(e) if e.contains("unknown session") => return Err(e),
                Err(e) => last = e,
            }
        }
        Err(format!("{last} (after {} attempts)", self.opts.retries + 1))
    }

    /// One request/response round trip on the current connection; events
    /// that arrive ahead of the response are buffered.
    fn roundtrip(&mut self, request: &Json) -> Result<Json, String> {
        let conn = self.conn.as_mut().expect("ensure_conn ran");
        conn.send(request).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + self.opts.response_timeout();
        loop {
            match conn.recv_by(deadline) {
                Ok(frame) if frame.get("event").is_some() => self.stream.buffer(frame),
                Ok(frame) => return Ok(frame),
                Err(e) => return Err(self.opts.no_response("response", e)),
            }
        }
    }

    /// Send `request`, returning the parsed response; reconnects (with
    /// backoff) and replays the request when the connection drops.
    ///
    /// # Errors
    ///
    /// A human-readable message once the retry budget is exhausted.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        let mut last = String::new();
        for attempt in 0..=self.opts.retries {
            self.back_off(attempt);
            match self.ensure_conn().and_then(|()| self.roundtrip(request)) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    // Anything that breaks the round trip invalidates the
                    // stream; reconnect before the replay.
                    self.conn = None;
                    last = e;
                }
            }
        }
        Err(format!("{last} (after {} attempts)", self.opts.retries + 1))
    }

    /// Submit-with-backpressure-retry, tagged with the session when there
    /// is one.
    fn submit_job(
        &mut self,
        workload: &str,
        tiny: bool,
        sanitize: bool,
    ) -> Result<SessionSubmit, String> {
        let session = self.stream.id.as_deref();
        let request = submit_frame(workload, tiny, sanitize, None, session);
        let mut last = String::new();
        for attempt in 0..=self.opts.retries {
            self.back_off(attempt);
            let response = self.call(&request)?;
            if matches!(response.get("ok"), Some(Json::Bool(true))) {
                let id = response.get("id").and_then(Json::as_u64);
                let id = id.ok_or_else(|| format!("submit response has no id: {response}"))?;
                let deduped = matches!(response.get("deduped"), Some(Json::Bool(true)));
                return Ok(SessionSubmit { id, deduped });
            }
            let error = error_text(&response).to_string();
            let shed = matches!(response.get("shed"), Some(Json::Bool(true)));
            if !shed && !error.starts_with(QUEUE_FULL) {
                return Err(error);
            }
            last = error;
        }
        let retries = self.opts.retries;
        Err(format!("{last} (after {retries} backpressure retries)"))
    }

    /// Submit one job, honoring `queue full` backpressure with bounded
    /// jittered retries. Returns the job id.
    ///
    /// # Errors
    ///
    /// The server's structured rejection, or the backpressure budget
    /// running out.
    pub fn submit(&mut self, workload: &str, tiny: bool, sanitize: bool) -> Result<u64, String> {
        Ok(self.submit_job(workload, tiny, sanitize)?.id)
    }

    /// Fetch the state of job `id` (`queued` / `running` / `done` /
    /// `failed`) as the raw response object.
    ///
    /// # Errors
    ///
    /// The server's structured rejection or a transport failure.
    pub fn result(&mut self, id: u64) -> Result<Json, String> {
        let response = self.call(&result_frame(id))?;
        if !matches!(response.get("ok"), Some(Json::Bool(true))) {
            return Err(error_text(&response).to_string());
        }
        Ok(response)
    }

    /// Poll job `id` until it reaches `done` or `failed`, or `timeout`
    /// elapses. Returns the terminal response object.
    ///
    /// # Errors
    ///
    /// A transport failure, a structured rejection, or the deadline.
    pub fn wait(&mut self, id: u64, timeout: Duration) -> Result<Json, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let response = self.result(id)?;
            if let Some("done" | "failed") = response.get("state").and_then(Json::as_str) {
                return Ok(response);
            }
            if Instant::now() >= deadline {
                return Err(format!("job {id} did not finish within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Fetch the server's status object.
    ///
    /// # Errors
    ///
    /// A transport failure or a structured rejection.
    pub fn status(&mut self) -> Result<Json, String> {
        self.call(&Json::obj(vec![("op", Json::Str("status".into()))]))
    }

    /// Request a graceful drain.
    ///
    /// # Errors
    ///
    /// A transport failure.
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.call(&Json::obj(vec![("op", Json::Str("shutdown".into()))]))
    }
}

/// What a session submit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSubmit {
    /// The coordinator's job id.
    pub id: u64,
    /// The submit joined an existing job instead of queueing a new one.
    pub deduped: bool,
}

/// A streaming session with the fleet coordinator.
///
/// Where [`ServeClient`] polls, a `SessionClient` attaches with the
/// `session` verb and receives the coordinator's NDJSON event stream —
/// `queued` / `leased` / `reassigned` / `done` / `failed` per subscribed
/// job, plus unsequenced `depth` heartbeats. Events carry a monotonic
/// `seq`; the client tracks its cursor so a dropped connection re-attaches
/// with `{"op":"session","id":…,"from":cursor}` and the coordinator
/// replays everything missed from the session's event log. The same
/// connection still accepts request verbs ([`SessionClient::call`]):
/// responses are told apart from events by the absence of an `event`
/// field, and any events that arrive while waiting are buffered for the
/// next [`SessionClient::next_event`].
pub struct SessionClient {
    client: ServeClient,
}

impl SessionClient {
    /// Open a fresh session, or re-attach to `resume` and replay missed
    /// events.
    ///
    /// # Errors
    ///
    /// A human-readable message when the coordinator cannot be reached,
    /// refuses the attach (e.g. an unknown resume id), or the retry
    /// budget runs out.
    pub fn open(opts: ClientOptions, resume: Option<&str>) -> Result<SessionClient, String> {
        let stream = Stream {
            attach: true,
            id: resume.map(str::to_string),
            ..Stream::default()
        };
        let client = ServeClient::link(opts, stream)?;
        Ok(SessionClient { client })
    }

    /// The coordinator-assigned session id (stable across re-attaches).
    pub fn id(&self) -> &str {
        self.client.stream.id.as_deref().unwrap_or("")
    }

    /// Whether any replay skipped events the coordinator had already
    /// evicted from the session's bounded log.
    pub fn truncated(&self) -> bool {
        self.client.stream.truncated
    }

    /// [`ServeClient::call`] on the session connection: events that arrive
    /// ahead of the response are buffered for [`SessionClient::next_event`],
    /// and a reconnect re-attaches at the cursor before the replay.
    ///
    /// # Errors
    ///
    /// A human-readable message once the retry budget is exhausted.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.client.call(request)
    }

    /// Pop the next event, waiting up to `timeout` for one to arrive.
    /// Returns `Ok(None)` on a quiet timeout. Transparently re-attaches
    /// (replaying missed events) when the connection drops mid-wait — a
    /// coordinator restart shows up as quiet timeouts while it redials,
    /// never as a transport error, so `gcl suite --fleet` rides out a
    /// `kill -9` + `--recover` cycle on its quiet-limit budget alone.
    ///
    /// # Errors
    ///
    /// The coordinator explicitly rejecting this session id (it restarted
    /// without recovering the session log); plain connect failures are
    /// retried until `timeout` instead.
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<Json>, String> {
        let client = &mut self.client;
        let deadline = Instant::now() + timeout;
        let mut redial_attempt = 0u64;
        loop {
            if let Some(event) = client.stream.events.pop_front() {
                return Ok(Some(event));
            }
            if let Err(e) = client.ensure_conn() {
                // Disowned is fatal; down or mid-restart is redialled on
                // the backoff schedule until the caller's timeout.
                if e.contains("unknown session") {
                    return Err(e);
                }
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                redial_attempt += 1;
                client.back_off(redial_attempt);
                continue;
            }
            redial_attempt = 0;
            let conn = client.conn.as_mut().expect("ensure_conn ran");
            match conn.recv_by(deadline) {
                Ok(frame) if frame.get("event").is_some() => client.stream.buffer(frame),
                // A response with no waiting request (stale reply from
                // before a reconnect) or an unparseable line is dropped.
                Ok(_) | Err(FrameError::BadJson(_)) => {}
                Err(FrameError::Timeout) => return Ok(None),
                Err(_) => {
                    // Stream died: the next spin re-attaches at the cursor.
                    client.conn = None;
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// Submit one job tagged with this session (its lifecycle events flow
    /// into the stream), honoring shed backpressure with bounded jittered
    /// retries.
    ///
    /// # Errors
    ///
    /// The coordinator's structured rejection, or the backpressure budget
    /// running out.
    pub fn submit(
        &mut self,
        workload: &str,
        tiny: bool,
        sanitize: bool,
    ) -> Result<SessionSubmit, String> {
        self.client.submit_job(workload, tiny, sanitize)
    }

    /// Fetch the state of job `id` on the session connection.
    ///
    /// # Errors
    ///
    /// The coordinator's structured rejection or a transport failure.
    pub fn result(&mut self, id: u64) -> Result<Json, String> {
        self.client.result(id)
    }
}

/// Weyl-sequence increment: submitter `i` seeds its jitter with
/// `seed ^ i·GOLDEN`.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a [`ClosedLoop`] run did: live while it runs, final after.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Submit round trips attempted.
    pub submits: u64,
    /// Submits the server accepted.
    pub accepted: u64,
    /// Structured shed responses (queue full / inflight cap).
    pub sheds: u64,
    /// Failed dials, round trips and polls, and rejections other than sheds.
    pub errors: u64,
    /// Acked jobs seen reaching `done` or `failed`.
    pub finished: u64,
    /// Submit round-trip latency, microseconds.
    pub submit_us: Histogram,
    /// Every acked job id, with the spec the server built for it.
    pub acked: HashMap<u64, JobSpec>,
}

/// Closed-loop traffic against one server or coordinator: the submitter
/// loop of `gcl loadgen` and `gcl soak`.
///
/// Each submitter thinks (seeded jitter around `think_ms`, cut short when
/// the run stops), submits one spec drawn from `specs` × `distinct`
/// cache-key variants, records the round trip, then polls `result` until
/// the job is terminal before thinking again, so offered load self-limits
/// to what the server absorbs. Every request goes through a
/// [`ServeClient`] with `retries: 0`: one attempt, so a failure is counted
/// and never retried away, and a dead connection is redialled before the
/// next submit, outside its timed round trip.
#[derive(Debug)]
pub(crate) struct ClosedLoop {
    addr: String,
    submitters: usize,
    think_ms: u64,
    seed: u64,
    distinct: u64,
    specs: Vec<JobSpec>,
}

impl ClosedLoop {
    /// The specs a `submit` of each of `workloads` names, built and checked
    /// exactly as the server's `submit` verb builds them.
    ///
    /// # Errors
    ///
    /// The first unknown workload, named.
    pub(crate) fn specs(
        workloads: &[String],
        tiny: bool,
        sanitize: bool,
    ) -> Result<Vec<JobSpec>, String> {
        let spec = |w: &String| parse_submit(&submit_frame(w, tiny, sanitize, None, None));
        workloads.iter().map(spec).collect()
    }

    /// `submitters` loops against `addr`, each submit one of `specs` in one
    /// of `distinct` variants (variant v > 0 adds v to `max_cycles`: the
    /// same simulation under another cache key).
    ///
    /// # Errors
    ///
    /// No submitter, or no spec.
    pub(crate) fn new(
        addr: &str,
        submitters: usize,
        think_ms: u64,
        seed: u64,
        distinct: usize,
        specs: Vec<JobSpec>,
    ) -> Result<ClosedLoop, String> {
        if submitters == 0 {
            return Err("at least one submitter is needed (--submitters 1)".to_string());
        }
        if specs.is_empty() {
            return Err("at least one workload is needed (--workloads)".to_string());
        }
        Ok(ClosedLoop {
            addr: addr.to_string(),
            submitters,
            think_ms,
            seed,
            distinct: (distinct as u64).max(1),
            specs,
        })
    }

    /// Run the submitters while `body` runs on the calling thread with the
    /// live tally; they stop when it returns.
    pub(crate) fn run<R>(&self, body: impl FnOnce(&Mutex<Tally>) -> R) -> (Tally, R) {
        let tally = Mutex::new(Tally::default());
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|scope| {
            for idx in 0..self.submitters {
                let (tally, stop) = (&tally, &stop);
                // Submitters are shallow (no simulation runs locally), so a
                // small stack keeps thousands of them cheap.
                std::thread::Builder::new()
                    .stack_size(256 * 1024)
                    .name(format!("submitter-{idx}"))
                    .spawn_scoped(scope, move || self.submitter(idx, tally, stop))
                    .expect("spawn submitter");
            }
            let out = body(&tally);
            stop.store(true, Ordering::SeqCst);
            out
        });
        (tally.into_inner().expect("tally poisoned"), out)
    }

    fn submitter(&self, idx: usize, tally: &Mutex<Tally>, stop: &AtomicBool) {
        let seed = self.seed ^ (idx as u64).wrapping_mul(GOLDEN);
        let mut rng = Rng::new(seed);
        let opts = ClientOptions {
            addr: self.addr.clone(),
            retries: 0,
            seed,
            response_timeout_ms: 10_000,
            // Result payloads carry full wire-encoded stats.
            max_frame: 4 * 1024 * 1024,
            ..ClientOptions::default()
        };
        let mut client = ServeClient::unlinked(opts, Stream::default());
        let lock = || tally.lock().expect("tally poisoned");
        let (half, jitter) = (self.think_ms / 2, self.think_ms.max(1).saturating_add(1));
        // Think first so N fresh submitters do not arrive as one herd.
        while nap(stop, half.saturating_add(rng.u64_below(jitter))) {
            if client.ensure_conn().is_err() {
                lock().errors += 1;
                nap(stop, 20 + rng.u64_below(80));
                continue;
            }
            let v = rng.u64_below(self.distinct);
            let spec = variant(rng.pick(&self.specs), v);
            let max_cycles = (v > 0).then_some(spec.cfg.max_cycles);
            let request = submit_frame(
                &spec.workload,
                spec.tiny,
                spec.cfg.sanitize,
                max_cycles,
                None,
            );
            let t0 = Instant::now();
            let response = client.call(&request);
            let rtt_us = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            let id = {
                let mut t = lock();
                t.submits += 1;
                t.submit_us.add(rtt_us);
                let flag = |r: &Json, name| matches!(r.get(name), Some(Json::Bool(true)));
                match &response {
                    Ok(r) if flag(r, "ok") => {
                        t.accepted += 1;
                        let id = r.get("id").and_then(Json::as_u64);
                        if let Some(id) = id {
                            t.acked.insert(id, spec);
                        }
                        id
                    }
                    Ok(r) if flag(r, "shed") => {
                        t.sheds += 1;
                        None
                    }
                    _ => {
                        t.errors += 1;
                        None
                    }
                }
            };
            // Closed loop: the acked job is terminal before the next think.
            let Some(id) = id else { continue };
            while !stop.load(Ordering::SeqCst) {
                let polled = client.result(id);
                match polled
                    .as_ref()
                    .map(|r| r.get("state").and_then(Json::as_str))
                {
                    Ok(Some("done" | "failed")) => {
                        lock().finished += 1;
                        break;
                    }
                    Ok(_) => {
                        nap(stop, 5 + rng.u64_below(20));
                    }
                    Err(_) => {
                        lock().errors += 1;
                        break;
                    }
                }
            }
        }
    }
}

/// Variant `v` of `base`: `max_cycles` nudged by `v` (variant 0 is `base`),
/// the same simulation under another cache key.
pub(crate) fn variant(base: &JobSpec, v: u64) -> JobSpec {
    let mut spec = base.clone();
    spec.cfg.max_cycles = spec.cfg.max_cycles.saturating_add(v);
    spec
}

/// Sleep `ms` in short slices, returning early once `stop` is raised; true
/// when the whole sleep ran.
fn nap(stop: &AtomicBool, ms: u64) -> bool {
    let (start, span) = (Instant::now(), Duration::from_millis(ms));
    while !stop.load(Ordering::SeqCst) {
        let left = span.saturating_sub(start.elapsed());
        if left.is_zero() {
            return true;
        }
        std::thread::sleep(left.min(Duration::from_millis(20)));
    }
    false
}
