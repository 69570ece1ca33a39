//! # gcl-exec — parallel job engine, result cache, and serving daemon
//!
//! The execution layer of the `gcl` toolkit: everything between "a list of
//! simulations to run" and "their results, fast, in order". Three layers,
//! each usable without the ones above it:
//!
//! * **Jobs** ([`job`]): a [`JobSpec`] names a workload, an input scale,
//!   and a complete [`GpuConfig`](gcl_sim::GpuConfig); [`run_job`] executes
//!   it with panic isolation, so a crashing simulation becomes a failed
//!   [`JobResult`] instead of a dead thread.
//! * **Pool + cache** ([`pool`], [`cache`]): [`run_pool`] fans specs out
//!   over a fixed set of worker threads with deterministic (submission-
//!   index) result ordering, seeded-jitter retry backoff, and a single
//!   event stream so exactly one thread owns shared output. The
//!   [`ResultCache`] is content-addressed by the spec's fingerprint;
//!   because launches are deterministic (the sanitizer's digest audit
//!   proves it), a warm cache replays a whole suite without simulating
//!   anything. Corrupt, truncated or version-skewed entries are silent
//!   misses, never errors.
//! * **Trace store** ([`trace_store`]): captured `GCLTRACE1` containers
//!   filed under the same content address as cached results. `gcl suite
//!   --replay` resolves each job to its trace by fingerprint and drives
//!   the timing model from the recorded instruction streams instead of
//!   functional execution — same digests, same statistics, a fraction of
//!   the wall-clock. An absent or mismatched container is a structured
//!   job failure, never a silent fallback to execution.
//! * **Serving** ([`serve`], [`proto`], [`client`]): `gcl serve` is the
//!   fleet coordinator below with one in-process worker — a TCP daemon
//!   speaking newline-delimited JSON (submit / status / result /
//!   shutdown), with a bounded queue that rejects submits under
//!   backpressure, dedup by cache key, read/write deadlines and a
//!   frame-size cap on every connection, and a graceful drain on shutdown.
//!   [`ServeClient`] is the matching resilient client: reconnect-and-replay
//!   on transport failure, jittered-backoff retry on `queue full`.
//!   `client::ClosedLoop` is the one traffic driver built on it: N
//!   submitters, each thinking, submitting through a one-attempt
//!   `ServeClient` and waiting for its job — [`loadgen`] samples it,
//!   [`soak`] runs chaos beside it.
//! * **Fleet** ([`fleet`]): `gcl coordinate` is the one daemon, run as a
//!   fault-tolerant fleet — workers join with `gcl serve --join`, the
//!   coordinator shards jobs by content-addressed cache key, supervises
//!   with heartbeats and per-job leases, and reassigns work from dead or
//!   stalled workers. A finished result lives in the coordinator's job
//!   table, which answers every resubmit of its spec, clients can
//!   stream progress over resumable sessions ([`SessionClient`]), and
//!   [`loadgen`] measures the whole stack under thousands of concurrent
//!   closed-loop submitters. [`FleetInject`] is the chaos layer that
//!   proves every failure mode is detected and recovered. The
//!   coordinator journals every state transition to a checksummed
//!   write-ahead log ([`fleet::Journal`]) and replays it on `--recover`,
//!   re-joining workers re-announce the leases they still hold, and
//!   [`soak`] is the long-haul harness that `kill -9`s the whole fleet —
//!   coordinator included — under the same closed loop while proving no
//!   acknowledged job is ever lost.
//! * **Arguments** ([`args`]): the one flag-table parser behind every
//!   `gcl` subcommand. It lives here because this crate owns the option
//!   structs the flags fill ([`ServeOptions`], [`CoordinatorOptions`],
//!   [`WorkerOptions`], [`LoadgenOptions`], [`SoakOptions`], …).
//!
//! The invariant the whole crate is built around: **parallel execution
//! never changes results**. Suite digests from `--jobs 8` are
//! byte-identical to `--jobs 1`, a cache hit returns the same
//! [`LaunchStats`](gcl_sim::LaunchStats) the original simulation produced,
//! and a fleet sweep surviving injected kills, stalls and partitions is
//! digest-identical to a serial run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod cache;
pub mod client;
pub mod fleet;
pub mod job;
pub mod loadgen;
pub mod pool;
pub mod proto;
pub mod serve;
pub mod soak;
pub mod trace_store;

pub use cache::{CacheMiss, CachedResult, ResultCache, CACHE_MAGIC, CACHE_VERSION};
pub use client::{ClientOptions, ServeClient, SessionClient, SessionSubmit};
pub use fleet::{
    run_worker, Coordinator, CoordinatorOptions, FleetInject, WorkerOptions, WorkerReport,
    DECOMMISSIONED, LEASE_EXPIRED, WORKER_DEAD,
};
pub use job::{run_job, run_job_from, ExecError, JobOutput, JobResult, JobSpec, SpecFingerprint};
pub use loadgen::{run_loadgen, LoadgenOptions, LoadgenReport};
pub use pool::{backoff_ms, parallel_map, run_pool, JobEvent, PoolConfig};
pub use proto::{FrameError, FrameReader, ServeError, MAX_FRAME, QUEUE_FULL};
pub use serve::{ServeOptions, Server};
pub use soak::{run_soak, SoakOptions, SoakReport};
pub use trace_store::{TraceStore, DEFAULT_CAPTURE_BUDGET};
