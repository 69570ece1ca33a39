//! What replaying a trace keeps in memory. A counting global allocator
//! measures the peak live heap of one `TraceStore::replay` call, which
//! must stay under the container's byte length, plus the heap of a bare
//! `Gpu::new` of the same configuration, plus a stated slack. Holding the
//! container's encoded columns meets that bound; decoding its records into
//! memory first costs several times the container and does not.
//!
//! Tiny-scale rows run by default; the default-scale rows (one large
//! launch, and 94 launches) are ignored and run in release CI.

use gcl_exec::{JobSpec, TraceStore};
use gcl_sim::{Gpu, GpuConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One measurement at a time: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// Run `f`, returning its result and the peak live heap above the level
/// at entry.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed).saturating_sub(base))
}

/// Beyond the container and a fresh GPU, replay holds the launch's
/// simulation state: warps and their register files, queues, per-pc
/// statistics, the kernels and their decoded tables, and one small handle
/// per warp stream. It measured 84-300 KiB at tiny scale on the small
/// model and 2.8-3.5 MiB at default scale on the Fermi model.
const TINY_SLACK: usize = 512 << 10;
const DEFAULT_SLACK: usize = 4 << 20;

/// Capture `app` into a scratch store, then replay it under the counter.
fn check(app: &str, tiny: bool) {
    let (cfg, slack) = if tiny {
        (GpuConfig::small(), TINY_SLACK)
    } else {
        (GpuConfig::fermi(), DEFAULT_SLACK)
    };
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!(
        "gcl-replay-memory-{}-{app}-{tiny}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = TraceStore::new(&dir);
    let spec = JobSpec::new(app, tiny, cfg.clone());
    let (reference, summary) = store.capture(&spec).expect("capture");
    let (gpu, gpu_bytes) = peak_during(|| Gpu::new(cfg).expect("gpu"));
    drop(gpu);
    let (replayed, replay_bytes) = peak_during(|| store.replay(&spec).expect("replay"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(replayed, reference, "{app}: replay reproduces execution");
    let container = summary.bytes as usize;
    let bound = container + gpu_bytes + slack;
    eprintln!(
        "{app} (tiny: {tiny}): container {container} B, Gpu::new {gpu_bytes} B, \
         replay peak {replay_bytes} B, bound {bound} B"
    );
    assert!(
        replay_bytes <= bound,
        "{app}: replay peaked at {replay_bytes} B live heap, over the bound of {bound} B \
         (container {container} + Gpu::new {gpu_bytes} + slack {slack})"
    );
}

#[test]
fn tiny_replays_hold_no_more_than_their_containers() {
    for app in ["htw", "2mm", "spmv", "mst"] {
        check(app, true);
    }
}

#[test]
#[ignore = "default scale: run in release"]
fn default_scale_htw_replay_holds_no_more_than_its_container() {
    check("htw", false);
}

#[test]
#[ignore = "default scale: run in release"]
fn default_scale_mst_replay_holds_no_more_than_its_container() {
    check("mst", false);
}
