//! Fixed worker pool executing [`JobSpec`]s with deterministic result
//! ordering, per-worker panic isolation, retries with seeded-jitter
//! backoff, and a single event stream so exactly one thread (the caller's)
//! owns any manifest or progress output.
//!
//! Workers claim jobs by atomic index, run them (consulting the shared
//! result cache when configured), and report [`JobEvent`]s over a channel.
//! The caller's thread drains that channel, invoking its `on_event`
//! callback serially — this is the "single writer" of the suite manifest:
//! no worker ever touches `results/run.json`.

use crate::cache::ResultCache;
use crate::job::{run_job_from, JobResult, JobSpec};
use crate::trace_store::TraceStore;
use gcl_rng::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

// The toolkit-wide retry schedule (50 ms doubling, 2 s cap, upper-half
// seeded jitter) lives in `gcl_rng::backoff`; re-exported here because the
// pool popularized it.
pub use gcl_rng::backoff::backoff_ms;

/// Seed for the retry-backoff jitter ("gcl"). Each job derives its own
/// stream from this and its index, so two retrying workers never share a
/// wake-up schedule.
const BACKOFF_SEED: u64 = 0x006c_6367;

/// How a pool run executes.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (at least 1; a value of 1 reproduces serial order of
    /// execution, though results are index-ordered either way).
    pub jobs: usize,
    /// Extra attempts per job after the first failure.
    pub retries: u64,
    /// Consult (and fill) this result cache.
    pub cache: Option<ResultCache>,
    /// Source results by replaying captured traces from this store instead
    /// of functional execution (`gcl suite --replay`). A job whose
    /// container is absent or mismatched fails structurally; replay never
    /// silently falls back to execution.
    pub traces: Option<TraceStore>,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            jobs: 1,
            retries: 0,
            cache: None,
            traces: None,
        }
    }
}

/// Progress notifications delivered, in event order, to the caller's
/// `on_event` callback — always on the caller's thread.
#[derive(Debug)]
pub enum JobEvent {
    /// A worker picked up job `index`.
    Started {
        /// Index into the submitted spec list.
        index: usize,
    },
    /// Job `index` failed attempt `attempt` and will retry after
    /// `backoff_ms`.
    Retried {
        /// Index into the submitted spec list.
        index: usize,
        /// The attempt that just failed (1-based).
        attempt: u64,
        /// Why it failed.
        error: String,
        /// Jittered delay before the next attempt.
        backoff_ms: u64,
    },
    /// Job `index` finished (ok, cached, or exhausted its retries).
    Finished {
        /// Index into the submitted spec list.
        index: usize,
        /// The outcome (boxed: a [`JobResult`] carries full launch stats).
        result: Box<JobResult>,
    },
}

/// Run one job with the pool's retry policy, reporting retries through
/// `events`. Returns the final result (its `attempts` field counts every
/// attempt made).
fn run_with_retries(
    index: usize,
    spec: &JobSpec,
    cfg: &PoolConfig,
    events: &mpsc::Sender<JobEvent>,
) -> JobResult {
    let mut rng = Rng::new(BACKOFF_SEED ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut attempts = 0u64;
    loop {
        let mut result = run_job_from(spec, cfg.cache.as_ref(), cfg.traces.as_ref());
        attempts += result.attempts;
        result.attempts = attempts;
        match &result.outcome {
            Ok(_) => return result,
            Err(e) => {
                if attempts > cfg.retries {
                    return result;
                }
                let backoff = backoff_ms(attempts, &mut rng);
                let _ = events.send(JobEvent::Retried {
                    index,
                    attempt: attempts,
                    error: e.to_string(),
                    backoff_ms: backoff,
                });
                std::thread::sleep(std::time::Duration::from_millis(backoff));
            }
        }
    }
}

/// Execute every spec on a fixed pool of `cfg.jobs` workers.
///
/// Results come back ordered by submission index, regardless of completion
/// order, so parallel and serial runs are byte-comparable. `on_event` runs
/// serially on the calling thread for every [`JobEvent`]; use it to own
/// shared output (progress table, run manifest) without worker races.
pub fn run_pool(
    specs: &[JobSpec],
    cfg: &PoolConfig,
    mut on_event: impl FnMut(&JobEvent),
) -> Vec<JobResult> {
    assert!(cfg.jobs >= 1, "pool needs at least one worker");
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<JobEvent>();
    let mut slots: Vec<Option<JobResult>> = Vec::new();
    slots.resize_with(specs.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..cfg.jobs.min(specs.len().max(1)) {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(index) else { break };
                let _ = tx.send(JobEvent::Started { index });
                let result = run_with_retries(index, spec, cfg, &tx);
                let _ = tx.send(JobEvent::Finished {
                    index,
                    result: Box::new(result),
                });
            });
        }
        // The workers' clones keep the channel open; dropping ours lets the
        // drain loop end exactly when the last worker exits.
        drop(tx);
        for event in rx {
            on_event(&event);
            if let JobEvent::Finished { index, result } = event {
                slots[index] = Some(*result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every job reports exactly once"))
        .collect()
}

/// Generic fixed-pool parallel map with panic isolation and deterministic
/// output ordering: `out[i]` is `f(items[i])`, or `Err(panic message)` if
/// that call panicked. `gcl figures` uses this to fan its (machine, workload)
/// sweep out over workers without the [`JobSpec`] machinery.
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(jobs >= 1, "pool needs at least one worker");
    let n = items.len();
    let work: Vec<std::sync::Mutex<Option<T>>> = items
        .into_iter()
        .map(|it| std::sync::Mutex::new(Some(it)))
        .collect();
    let mut out: Vec<std::sync::Mutex<Option<Result<R, String>>>> = Vec::new();
    out.resize_with(n, || std::sync::Mutex::new(None));
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n.max(1)) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let item = work[index]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each slot is claimed once");
                let result =
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(item))) {
                        Ok(r) => Ok(r),
                        Err(payload) => Err(crate::job::panic_message(payload.as_ref())),
                    };
                *out[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item maps exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexported_backoff_is_the_shared_schedule() {
        // The pool's historical schedule and the shared helper are one
        // function: identical draws from identical seeds.
        let mut a = Rng::new(11);
        let mut b = Rng::new(11);
        for attempt in 1..=8 {
            assert_eq!(
                backoff_ms(attempt, &mut a),
                gcl_rng::backoff::backoff_ms(attempt, &mut b)
            );
        }
    }

    #[test]
    fn parallel_map_orders_results_and_isolates_panics() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(8, items, |v| {
            if v == 13 {
                panic!("unlucky {v}");
            }
            v * 2
        });
        assert_eq!(out.len(), 64);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                assert_eq!(r.as_ref().unwrap_err(), "unlucky 13");
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u64) * 2);
            }
        }
    }
}
