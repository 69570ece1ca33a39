//! `gcl serve` — the single-node daemon: a [`Coordinator`] plus one
//! in-process worker, so there is one job engine. [`Server::bind`] binds
//! the coordinator; [`Server::run`] starts a [`run_worker`] thread named
//! `local` with [`ServeOptions::jobs`] slots, which dials the bound address
//! over loopback and joins through the ordinary `join` frame, then runs the
//! coordinator until a `shutdown` request drains it. Clients speak the
//! coordinator's protocol:
//!
//! ```text
//! → {"op":"submit","workload":"bfs","tiny":true,"sanitize":false}
//! ← {"ok":true,"id":1}                          accepted, queued
//! ← {"ok":true,"id":1,"deduped":true}           same spec again: same job
//! → {"op":"result","id":1}
//! ← {"ok":true,"id":1,"state":"done","cycles":912,"digest":"0x9e1c...",...}
//! → {"op":"shutdown"}
//! ← {"ok":true,"draining":true,"pending":2}     graceful drain, then exit
//! ```
//!
//! The price of one code path is latency: a submit wakes the coordinator's
//! supervisor, which assigns the job at once, and the job crosses loopback
//! (`assign`, then `done`).

use crate::cache::ResultCache;
use crate::fleet::{run_worker, Coordinator, CoordinatorOptions, WorkerOptions};
use crate::proto::{ServeError, MAX_FRAME};
use std::net::SocketAddr;

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Address to bind, e.g. `127.0.0.1:7077` (port 0 picks a free port).
    pub addr: String,
    /// Jobs the local worker simulates concurrently.
    pub jobs: usize,
    /// Maximum queued (not yet running) jobs before submits are rejected.
    pub queue_cap: usize,
    /// Consult (and fill) this result cache.
    pub cache: Option<ResultCache>,
    /// Largest frame accepted, in bytes; a larger one closes the connection.
    pub max_frame: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:7077".to_string(),
            jobs: 2,
            queue_cap: 64,
            cache: None,
            max_frame: MAX_FRAME,
        }
    }
}

/// A bound, not-yet-running daemon: bind, read [`Server::addr`], then run.
pub struct Server {
    coordinator: Coordinator,
    worker: WorkerOptions,
}

impl Server {
    /// Bind the coordinator and prepare the local worker.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for invalid options, [`ServeError::Bind`]
    /// if the address cannot be bound.
    pub fn bind(opts: ServeOptions) -> Result<Server, ServeError> {
        if opts.jobs == 0 {
            return Err(ServeError::Config("serve needs --jobs 1 or more".into()));
        }
        let coordinator = Coordinator::bind(CoordinatorOptions {
            addr: opts.addr,
            queue_cap: opts.queue_cap,
            max_frame: opts.max_frame,
            ..CoordinatorOptions::default()
        })?;
        let worker = WorkerOptions {
            coord: coordinator.addr()?.to_string(),
            name: "local".to_string(),
            slots: opts.jobs,
            cache: opts.cache,
            ..WorkerOptions::default()
        };
        Ok(Server {
            coordinator,
            worker,
        })
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] if the socket address cannot be read.
    pub fn addr(&self) -> Result<SocketAddr, ServeError> {
        self.coordinator.addr()
    }

    /// Serve, blocking, until a `shutdown` request drains every job.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] on listener failure, or if the local worker
    /// ends before the drain does: the coordinator is stopped, not hung.
    pub fn run(self) -> Result<(), ServeError> {
        let stop = self.coordinator.stopper();
        std::thread::scope(|scope| {
            let local = scope.spawn(move || {
                let report = run_worker(self.worker);
                stop();
                report
            });
            let served = self.coordinator.run();
            match local.join().expect("local worker panicked") {
                Err(e) if served.is_err() => Err(ServeError::Net(format!("local worker: {e}"))),
                _ => served,
            }
        })
    }
}
