//! Fuzzes the content-addressed result cache's rejection matrix under
//! live traffic: a corruptor thread bit-flips and truncates entries in
//! `results/cache/` while a warm `-j4` sweep is reading them. The cache's
//! contract is that a broken entry can cost time but never correctness —
//! every corruption must surface as a silent miss that recomputes, and the
//! sweep's statistics must stay byte-identical to the cold run's.

use gcl_exec::{run_pool, JobSpec, PoolConfig, ResultCache};
use gcl_rng::Rng;
use gcl_sim::GpuConfig;
use gcl_workloads::tiny_workloads;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcl-exec-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sanitized_specs() -> Vec<JobSpec> {
    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    tiny_workloads()
        .iter()
        .map(|w| JobSpec::new(w.name(), true, cfg.clone()))
        .collect()
}

/// The committed (`.bin`) entries currently in the cache directory.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let Ok(read) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<PathBuf> = read
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    found.sort();
    found
}

/// Damage one cache entry in place: flip a random byte, truncate at a
/// random offset, or chop the trailing checksum. Returns whether a file
/// was actually touched (it may have been replaced under us — fine, the
/// pool's rewrite is atomic and either image is self-validating).
fn corrupt_one(path: &Path, rng: &mut Rng) -> bool {
    let Ok(mut file) = OpenOptions::new().read(true).write(true).open(path) else {
        return false;
    };
    let Ok(len) = file.metadata().map(|m| m.len()) else {
        return false;
    };
    if len == 0 {
        return false;
    }
    match rng.u32_below(3) {
        0 => {
            // Bit-flip one byte anywhere in the entry: header, payload, or
            // checksum — all must be caught by the trailing FNV sum.
            let offset = rng.next_u64() % len;
            let mut byte = [0u8];
            if file.seek(SeekFrom::Start(offset)).is_err() || file.read_exact(&mut byte).is_err() {
                return false;
            }
            byte[0] ^= 1 << rng.u32_below(8);
            file.seek(SeekFrom::Start(offset)).is_ok() && file.write_all(&byte).is_ok()
        }
        1 => {
            // Truncate somewhere inside the entry.
            let keep = rng.next_u64() % len;
            file.set_len(keep).is_ok()
        }
        _ => {
            // Chop exactly the checksum off the tail.
            file.set_len(len.saturating_sub(8)).is_ok()
        }
    }
}

/// The satellite's headline test: corruption under live concurrent load.
#[test]
fn corrupted_entries_are_silent_misses_and_never_change_results() {
    let specs = sanitized_specs();
    let dir = scratch("live");
    let cache = ResultCache::new(&dir);

    // Cold ground truth, populating the cache.
    let cold = run_pool(
        &specs,
        &PoolConfig {
            jobs: 4,
            cache: Some(cache.clone()),
            ..PoolConfig::default()
        },
        |_| {},
    );
    for r in &cold {
        assert!(r.outcome.is_ok(), "cold `{}` must run", r.spec.workload);
    }
    assert!(!entries(&dir).is_empty(), "the cold sweep filled the cache");

    // Warm sweep with a corruptor racing it: flip/truncate random entries
    // until the sweep finishes.
    let stop = AtomicBool::new(false);
    let corruptions = AtomicU64::new(0);
    let warm = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = Rng::new(0xfacc_0fff);
            while !stop.load(Ordering::Relaxed) {
                let files = entries(&dir);
                if !files.is_empty() {
                    let victim = &files[rng.usize_below(files.len())];
                    if corrupt_one(victim, &mut rng) {
                        corruptions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        // An all-hits sweep can finish inside the corruptor's first pass:
        // start it only once an entry has actually been damaged.
        while corruptions.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let warm = run_pool(
            &specs,
            &PoolConfig {
                jobs: 4,
                cache: Some(cache.clone()),
                ..PoolConfig::default()
            },
            |_| {},
        );
        stop.store(true, Ordering::Relaxed);
        warm
    });
    assert!(
        corruptions.load(Ordering::Relaxed) > 0,
        "the corruptor must have actually damaged entries"
    );

    // A broken cache can cost time but never correctness: every job ok,
    // every statistic identical to the cold ground truth.
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.spec, w.spec, "results keep submission order");
        let cold_out = c.outcome.as_ref().expect("cold outcome");
        let warm_out = w
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("warm `{}` failed under fuzz: {e}", w.spec.workload));
        assert_eq!(
            warm_out.stats, cold_out.stats,
            "stats of `{}` changed under cache corruption",
            w.spec.workload
        );
        assert_eq!(w.digest(), c.digest(), "digest of `{}`", w.spec.workload);
    }
}

/// The deterministic counterpart: every single committed entry, once
/// damaged, is rejected as a miss — no timing involved.
#[test]
fn every_damaged_entry_is_rejected_on_reload() {
    let specs = sanitized_specs();
    let dir = scratch("every");
    let cache = ResultCache::new(&dir);
    let results = run_pool(
        &specs,
        &PoolConfig {
            jobs: 4,
            cache: Some(cache.clone()),
            ..PoolConfig::default()
        },
        |_| {},
    );

    let mut rng = Rng::new(0x0bad_cafe);
    for r in &results {
        let fp = r.spec.fingerprint().expect("tiny specs fingerprint");
        assert!(cache.load(&fp).is_some(), "`{}` warm hit", r.spec.workload);
        assert!(corrupt_one(&cache.entry_path(fp.key()), &mut rng));
        assert!(
            cache.load(&fp).is_none(),
            "damaged `{}` entry must be a silent miss",
            r.spec.workload
        );
        // And the recompute path heals it: a fresh store round-trips.
        let out = r.outcome.as_ref().expect("outcome");
        cache
            .store(&fp, &out.stats, out.wall_ms)
            .expect("rewrite heals the entry");
        assert_eq!(
            cache.load(&fp).expect("healed entry hits").stats,
            out.stats,
            "`{}` healed entry round-trips",
            r.spec.workload
        );
    }
}
