//! The result cache's rejection matrix: every way an entry can be wrong —
//! absent, truncated, corrupt, version-skewed, filed under the wrong key,
//! or a genuine 64-bit key collision — must read as a silent *miss* that
//! [`run_job`] answers by recomputing and rewriting the entry. A broken
//! cache may cost time, never correctness.

use gcl_exec::{run_job, CacheMiss, JobSpec, ResultCache, CACHE_MAGIC};
use gcl_sim::{fnv_fold_bytes, GpuConfig, FNV_OFFSET};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per test (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "gcl-exec-cache-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spec(name: &str) -> JobSpec {
    JobSpec::new(name, true, GpuConfig::small())
}

/// Fill `cache` with one entry by running `s`, returning the entry path.
fn populate(cache: &ResultCache, s: &JobSpec) -> PathBuf {
    let r = run_job(s, Some(cache));
    let out = r.outcome.expect("tiny workload completes");
    assert!(!out.cached, "first run must simulate");
    let path = cache.entry_path(s.fingerprint().unwrap().key());
    assert!(path.is_file(), "store must create {}", path.display());
    path
}

/// Rewrite an entry's trailing checksum so deliberate header edits are
/// *not* masked by the checksum check (we want to reach the later
/// rejection stages).
fn refresh_checksum(bytes: &mut [u8]) {
    let body_len = bytes.len() - 8;
    let sum = fnv_fold_bytes(FNV_OFFSET, &bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn absent_entry_is_a_miss_then_recomputed_and_cached() {
    let cache = ResultCache::new(scratch("absent"));
    let s = spec("2mm");
    let fp = s.fingerprint().unwrap();
    assert_eq!(cache.load_checked(&fp).unwrap_err(), CacheMiss::Absent);

    let r = run_job(&s, Some(&cache));
    assert!(!r.outcome.as_ref().unwrap().cached);
    // The miss was rewritten: a second run is a pure cache hit with the
    // exact same statistics.
    let r2 = run_job(&s, Some(&cache));
    let out2 = r2.outcome.unwrap();
    assert!(out2.cached);
    assert_eq!(out2.stats, r.outcome.unwrap().stats);
    assert_eq!(r2.attempts, 0, "cache hits consume no attempts");
}

#[test]
fn truncated_entry_is_a_miss_and_rewritten() {
    let cache = ResultCache::new(scratch("trunc"));
    let s = spec("bfs");
    let fp = s.fingerprint().unwrap();
    let path = populate(&cache, &s);

    let full = std::fs::read(&path).unwrap();
    // Every strict prefix must be rejected as truncation, never decoded:
    // probe a few cut points including an empty file and a bare header.
    for cut in [0, 4, 8, 20, 28, full.len() / 2, full.len() - 1] {
        std::fs::write(&path, &full[..cut]).unwrap();
        assert_eq!(
            cache.load_checked(&fp).unwrap_err(),
            CacheMiss::Truncated,
            "prefix of {cut} bytes"
        );
    }
    // The job layer shrugs: recompute, rewrite, and the entry is whole again.
    let r = run_job(&s, Some(&cache));
    assert!(!r.outcome.unwrap().cached);
    assert!(cache.load_checked(&fp).is_ok());
}

#[test]
fn corrupt_checksum_and_magic_are_distinct_misses() {
    let cache = ResultCache::new(scratch("corrupt"));
    let s = spec("spmv");
    let fp = s.fingerprint().unwrap();
    let path = populate(&cache, &s);
    let clean = std::fs::read(&path).unwrap();

    // Flip one payload byte: checksum mismatch.
    let mut evil = clean.clone();
    evil[CACHE_MAGIC.len() + 25] ^= 0x40;
    std::fs::write(&path, &evil).unwrap();
    assert_eq!(
        cache.load_checked(&fp).unwrap_err(),
        CacheMiss::ChecksumMismatch
    );

    // Stomp the magic: rejected before anything else is believed.
    let mut evil = clean;
    evil[..8].copy_from_slice(b"GCLSNAP1");
    std::fs::write(&path, &evil).unwrap();
    assert_eq!(cache.load_checked(&fp).unwrap_err(), CacheMiss::BadMagic);

    assert!(run_job(&s, Some(&cache)).outcome.unwrap().stats.cycles > 0);
    assert!(cache.load_checked(&fp).is_ok(), "rewritten after the miss");
}

#[test]
fn version_skew_orphans_the_entry() {
    let cache = ResultCache::new(scratch("skew"));
    let s = spec("lu");
    let fp = s.fingerprint().unwrap();
    let path = populate(&cache, &s);

    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    refresh_checksum(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        cache.load_checked(&fp).unwrap_err(),
        CacheMiss::VersionSkew { found: 99 }
    );
    let r = run_job(&s, Some(&cache));
    assert!(
        !r.outcome.unwrap().cached,
        "skewed entry must not be served"
    );
    assert!(cache.load_checked(&fp).is_ok());

    // A sealed entry whose declared payload length disagrees with the
    // file — up to the length no file can have — is malformed, not a
    // slice out of range.
    let rewritten = std::fs::read(&path).unwrap();
    for declared in [0u64, (rewritten.len() - 36) as u64 + 1, u64::MAX] {
        let mut bytes = rewritten.clone();
        bytes[20..28].copy_from_slice(&declared.to_le_bytes());
        refresh_checksum(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            cache.load_checked(&fp).unwrap_err(),
            CacheMiss::Malformed("payload length mismatch"),
            "declared length {declared:#x}"
        );
    }
}

#[test]
fn wrong_key_and_fingerprint_collision_are_detected() {
    let cache = ResultCache::new(scratch("collide"));
    let a = spec("bfs");
    let b = spec("sssp");
    let fp_b = b.fingerprint().unwrap();
    let path_a = populate(&cache, &a);

    // File a's (valid) entry under b's key: the stored key betrays it.
    let path_b = cache.entry_path(fp_b.key());
    std::fs::copy(&path_a, &path_b).unwrap();
    assert_eq!(
        cache.load_checked(&fp_b).unwrap_err(),
        CacheMiss::KeyMismatch
    );

    // Now forge the stored key to b's — a perfect 64-bit key collision.
    // The full fingerprint inside the payload still says "bfs", so the
    // entry is rejected instead of serving bfs's results as sssp's.
    let mut bytes = std::fs::read(&path_a).unwrap();
    bytes[12..20].copy_from_slice(&fp_b.key().to_le_bytes());
    refresh_checksum(&mut bytes);
    std::fs::write(&path_b, &bytes).unwrap();
    assert_eq!(
        cache.load_checked(&fp_b).unwrap_err(),
        CacheMiss::FingerprintCollision
    );

    // And the collision resolves by recomputing sssp, never reusing bfs.
    let r = run_job(&b, Some(&cache));
    let out = r.outcome.unwrap();
    assert!(!out.cached);
    let hit = cache
        .load_checked(&fp_b)
        .expect("rewritten after collision");
    assert_eq!(hit.stats, out.stats);
}

#[test]
fn config_changes_never_share_entries() {
    // Not a corruption case but the matrix's foundation: the key derives
    // from the full config fingerprint, so flag variants (sanitize,
    // max_cycles, memcheck) are distinct cache identities.
    let cache = ResultCache::new(scratch("cfgkey"));
    let base = spec("gaus");
    populate(&cache, &base);

    let mut cfg = GpuConfig::small();
    cfg.sanitize = true;
    let sanitized = JobSpec::new("gaus", true, cfg);
    let fp = sanitized.fingerprint().unwrap();
    assert_eq!(
        cache.load_checked(&fp).unwrap_err(),
        CacheMiss::Absent,
        "sanitize variant must not alias the plain entry"
    );
    let r = run_job(&sanitized, Some(&cache));
    let out = r.outcome.unwrap();
    assert!(!out.cached);
    assert!(out.stats.digest.is_some(), "sanitized run carries a digest");
    // Both entries now coexist.
    assert!(cache.load_checked(&base.fingerprint().unwrap()).is_ok());
    assert!(cache.load_checked(&fp).is_ok());
}

#[test]
fn failures_are_never_cached() {
    let cache = ResultCache::new(scratch("fail"));
    let mut cfg = GpuConfig::small();
    cfg.max_cycles = 10; // starve: times out
    let s = JobSpec::new("bfs", true, cfg);
    let r = run_job(&s, Some(&cache));
    assert!(r.outcome.is_err());
    assert_eq!(
        cache.load_checked(&s.fingerprint().unwrap()).unwrap_err(),
        CacheMiss::Absent,
        "a failed run must leave no entry behind"
    );
}
