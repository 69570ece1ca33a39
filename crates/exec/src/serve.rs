//! `gcl serve` — a simulation daemon on a plain [`TcpListener`].
//!
//! The protocol is newline-delimited JSON: each request is one JSON object
//! on one line, each response one JSON object on one line. Verbs:
//!
//! ```text
//! → {"op":"submit","workload":"bfs","tiny":true,"sanitize":false}
//! ← {"ok":true,"id":1}                          accepted, queued
//! ← {"ok":false,"error":"queue full (8 pending, cap 8)"}   backpressure
//!
//! → {"op":"status"}
//! ← {"ok":true,"queue_depth":3,"draining":false,
//!    "jobs":{"queued":3,"running":2,"done":7,"failed":0},
//!    "workers":[{"jobs_run":5,"cache_hits":2},{"jobs_run":4,"cache_hits":0}]}
//!
//! → {"op":"result","id":1}
//! ← {"ok":true,"id":1,"state":"running"}
//! ← {"ok":true,"id":1,"state":"done","workload":"bfs","cached":false,
//!    "cycles":912,"warp_insts":1024,"wall_ms":3.2,"digest":"0x9e1c..."}
//! ← {"ok":true,"id":1,"state":"failed","error":"..."}
//!
//! → {"op":"shutdown"}
//! ← {"ok":true,"draining":2}                    graceful drain, then exit
//! ```
//!
//! The job queue is bounded: submits beyond [`ServeOptions::queue_cap`]
//! are rejected with an explicit error rather than queued without limit —
//! callers see backpressure instead of unbounded memory growth. Shutdown
//! is graceful: queued jobs finish, new submits are refused, and
//! [`Server::run`] returns once the last worker drains.
//!
//! Connections are hardened against misbehaving clients: every socket
//! carries read/write deadlines, frames larger than
//! [`ServeOptions::max_frame`] are answered with a structured error and a
//! close (never buffered without bound), idle connections are dropped
//! after [`ServeOptions::idle_timeout_ms`], and a drain closes idle
//! connections instead of waiting on them — a stalled or malicious client
//! cannot wedge the daemon.

use crate::cache::ResultCache;
use crate::job::{run_job, JobOutput, JobSpec};
use crate::proto::{
    error_response, parse_submit, shed_response, write_frame, Conn, FrameError, MAX_FRAME,
};
use gcl_stats::Json;
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

pub use crate::proto::{ServeError, QUEUE_FULL};

/// How often a blocked connection read wakes to check drain/idle deadlines.
const READ_TICK_MS: u64 = 100;

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7077` (port 0 picks a free port;
    /// see [`Server::addr`]).
    pub addr: String,
    /// Worker threads simulating jobs.
    pub jobs: usize,
    /// Maximum queued (not yet running) jobs before submits are rejected.
    pub queue_cap: usize,
    /// Consult (and fill) this result cache.
    pub cache: Option<ResultCache>,
    /// Largest request frame accepted, in bytes; oversized frames get a
    /// structured error and the connection closes.
    pub max_frame: usize,
    /// Per-connection write deadline: a client that stops reading loses its
    /// connection instead of parking a handler thread.
    pub write_timeout_ms: u64,
    /// Close a connection that sends nothing for this long (0 disables the
    /// idle deadline; draining always closes idle connections).
    pub idle_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7077".to_string(),
            jobs: 2,
            queue_cap: 64,
            cache: None,
            max_frame: MAX_FRAME,
            write_timeout_ms: 5_000,
            idle_timeout_ms: 300_000,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done(Box<JobOutput>),
    Failed(String),
}

/// Per-worker counters, exposed by the `status` verb.
#[derive(Debug, Default, Clone)]
struct WorkerCounters {
    jobs_run: u64,
    cache_hits: u64,
}

/// Everything the handler, worker and accept threads share.
struct Shared {
    opts: ServeOptions,
    /// Queued job ids, bounded by `opts.queue_cap`.
    queue: Mutex<VecDeque<(u64, JobSpec)>>,
    /// Wakes idle workers when a job is queued or a drain begins.
    work_ready: Condvar,
    /// Every job ever submitted, by id.
    jobs: Mutex<HashMap<u64, (JobSpec, JobState)>>,
    /// Next job id.
    next_id: Mutex<u64>,
    /// Per-worker counters.
    workers: Mutex<Vec<WorkerCounters>>,
    /// Set by the `shutdown` verb: refuse submits, drain, exit.
    draining: AtomicBool,
}

/// A bound, not-yet-running daemon. Binding is separated from running so
/// callers (and tests) can learn the actual address before blocking.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listener and set up shared state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid options, [`ServeError::Bind`]
    /// if the address cannot be bound.
    pub fn bind(opts: ServeOptions) -> Result<Server, ServeError> {
        if opts.jobs == 0 {
            return Err(ServeError::Config(
                "serve needs at least one worker (--jobs 1)".to_string(),
            ));
        }
        if opts.queue_cap == 0 {
            return Err(ServeError::Config(
                "serve needs a positive queue capacity".to_string(),
            ));
        }
        let listener = TcpListener::bind(&opts.addr)
            .map_err(|e| ServeError::Bind(format!("cannot bind {}: {e}", opts.addr)))?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            next_id: Mutex::new(1),
            workers: Mutex::new(vec![WorkerCounters::default(); opts.jobs]),
            draining: AtomicBool::new(false),
            opts,
        });
        Ok(Server { listener, shared })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] if the socket address cannot be read.
    pub fn addr(&self) -> Result<std::net::SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::Bind(format!("cannot read bound address: {e}")))
    }

    /// Serve until a `shutdown` request drains the queue. Blocks the
    /// calling thread; connection handlers and workers run on their own
    /// threads.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] on listener failure.
    pub fn run(self) -> Result<(), ServeError> {
        // Poll accept so the loop notices a drain promptly; 20 ms is
        // imperceptible next to any simulation.
        self.listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Net(format!("cannot set nonblocking accept: {e}")))?;
        std::thread::scope(|scope| {
            for worker in 0..self.shared.opts.jobs {
                let shared = Arc::clone(&self.shared);
                scope.spawn(move || worker_loop(worker, &shared));
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let shared = Arc::clone(&self.shared);
                        scope.spawn(move || handle_connection(stream, &shared));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if self.shared.draining.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => eprintln!("warning: accept failed: {e}"),
                }
            }
            // Drain: wake every idle worker so each observes the flag and
            // exits once the queue is empty; the scope joins them.
            self.shared.work_ready.notify_all();
        });
        Ok(())
    }
}

/// One worker: pop jobs until draining and the queue is empty.
fn worker_loop(worker: usize, shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _timeout) = shared
                    .work_ready
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue poisoned");
                queue = q;
            }
        };
        let Some((id, spec)) = job else { break };
        set_state(shared, id, JobState::Running);
        let result = run_job(&spec, shared.opts.cache.as_ref());
        {
            let mut workers = shared.workers.lock().expect("workers poisoned");
            workers[worker].jobs_run += 1;
            if matches!(&result.outcome, Ok(o) if o.cached) {
                workers[worker].cache_hits += 1;
            }
        }
        match result.outcome {
            Ok(output) => set_state(shared, id, JobState::Done(Box::new(output))),
            Err(e) => set_state(shared, id, JobState::Failed(e.to_string())),
        }
    }
}

fn set_state(shared: &Shared, id: u64, state: JobState) {
    if let Some(entry) = shared.jobs.lock().expect("jobs poisoned").get_mut(&id) {
        entry.1 = state;
    }
}

/// One connection: read bounded request frames under read/write deadlines,
/// answering each, until EOF, an idle deadline, an oversized frame, or a
/// drain.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let conn = Conn::from_stream(
        stream,
        Duration::from_millis(READ_TICK_MS),
        Duration::from_millis(shared.opts.write_timeout_ms.max(1)),
        shared.opts.max_frame,
    );
    let Ok(Conn {
        mut reader,
        mut writer,
    }) = conn.inspect_err(|e| eprintln!("warning: connection setup failed: {e}"))
    else {
        return;
    };
    let mut last_activity = Instant::now();
    loop {
        let line = match reader.next_frame() {
            Ok(line) => line,
            Err(FrameError::Timeout) => {
                // Idle tick: never let a silent client block a drain, and
                // enforce the idle deadline when one is configured.
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                let idle = shared.opts.idle_timeout_ms;
                if idle > 0 && last_activity.elapsed() >= Duration::from_millis(idle) {
                    break;
                }
                continue;
            }
            Err(e @ FrameError::TooLarge { .. }) => {
                // The stream cannot be resynchronized after an unbounded
                // line; answer with a structured error and hang up.
                let _ = write_frame(&mut writer, &error_response(e.to_string()));
                break;
            }
            Err(_) => break,
        };
        last_activity = Instant::now();
        let response = handle_request(&line, shared);
        if write_frame(&mut writer, &response).is_err() {
            break;
        }
    }
}

/// Dispatch one request line.
fn handle_request(line: &str, shared: &Shared) -> Json {
    let request = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return error_response(format!("bad request: {e}")),
    };
    match request.get("op").and_then(Json::as_str) {
        Some("submit") => handle_submit(&request, shared),
        Some("status") => handle_status(shared),
        Some("result") => handle_result(&request, shared),
        Some("shutdown") => handle_shutdown(shared),
        Some(other) => error_response(format!(
            "unknown op `{other}` (expected submit, status, result, shutdown)"
        )),
        None => error_response("missing `op` field"),
    }
}

fn handle_submit(request: &Json, shared: &Shared) -> Json {
    if shared.draining.load(Ordering::SeqCst) {
        return error_response("server is draining (shutdown requested)");
    }
    let spec = match parse_submit(request) {
        Ok(spec) => spec,
        Err(e) => return error_response(e),
    };
    let mut queue = shared.queue.lock().expect("queue poisoned");
    if queue.len() >= shared.opts.queue_cap {
        return shed_response(format!(
            "{QUEUE_FULL} ({} pending, cap {})",
            queue.len(),
            shared.opts.queue_cap
        ));
    }
    let id = {
        let mut next = shared.next_id.lock().expect("id poisoned");
        let id = *next;
        *next += 1;
        id
    };
    shared
        .jobs
        .lock()
        .expect("jobs poisoned")
        .insert(id, (spec.clone(), JobState::Queued));
    queue.push_back((id, spec));
    drop(queue);
    shared.work_ready.notify_one();
    Json::obj(vec![("ok", Json::Bool(true)), ("id", Json::UInt(id))])
}

fn handle_status(shared: &Shared) -> Json {
    let queue_depth = shared.queue.lock().expect("queue poisoned").len();
    let (mut queued, mut running, mut done, mut failed) = (0u64, 0u64, 0u64, 0u64);
    for (_, (_, state)) in shared.jobs.lock().expect("jobs poisoned").iter() {
        match state {
            JobState::Queued => queued += 1,
            JobState::Running => running += 1,
            JobState::Done(_) => done += 1,
            JobState::Failed(_) => failed += 1,
        }
    }
    let workers = shared
        .workers
        .lock()
        .expect("workers poisoned")
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("jobs_run", Json::UInt(w.jobs_run)),
                ("cache_hits", Json::UInt(w.cache_hits)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("queue_depth", Json::UInt(queue_depth as u64)),
        (
            "draining",
            Json::Bool(shared.draining.load(Ordering::SeqCst)),
        ),
        (
            "jobs",
            Json::obj(vec![
                ("queued", Json::UInt(queued)),
                ("running", Json::UInt(running)),
                ("done", Json::UInt(done)),
                ("failed", Json::UInt(failed)),
            ]),
        ),
        ("workers", Json::Arr(workers)),
    ])
}

fn handle_result(request: &Json, shared: &Shared) -> Json {
    let Some(id) = request.get("id").and_then(Json::as_u64) else {
        return error_response("result needs a numeric `id` field");
    };
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    let Some((spec, state)) = jobs.get(&id) else {
        return error_response(format!("no job with id {id}"));
    };
    let mut fields = vec![("ok", Json::Bool(true)), ("id", Json::UInt(id))];
    match state {
        JobState::Queued => fields.push(("state", Json::Str("queued".into()))),
        JobState::Running => fields.push(("state", Json::Str("running".into()))),
        JobState::Failed(msg) => {
            fields.push(("state", Json::Str("failed".into())));
            fields.push(("error", Json::Str(msg.clone())));
        }
        JobState::Done(output) => {
            fields.push(("state", Json::Str("done".into())));
            fields.push(("workload", Json::Str(spec.workload.clone())));
            fields.push(("cached", Json::Bool(output.cached)));
            fields.push(("cycles", Json::UInt(output.stats.cycles)));
            fields.push(("warp_insts", Json::UInt(output.stats.sm.warp_insts)));
            fields.push(("wall_ms", Json::Float(output.wall_ms)));
            fields.push((
                "digest",
                match output.stats.digest {
                    Some(d) => Json::Str(format!("0x{d:016x}")),
                    None => Json::Null,
                },
            ));
        }
    }
    Json::obj(fields)
}

fn handle_shutdown(shared: &Shared) -> Json {
    shared.draining.store(true, Ordering::SeqCst);
    let pending = shared.queue.lock().expect("queue poisoned").len();
    shared.work_ready.notify_all();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("draining", Json::Bool(true)),
        ("pending", Json::UInt(pending as u64)),
    ])
}
