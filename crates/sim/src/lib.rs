//! # gcl-sim — a cycle-level SIMT GPU simulator
//!
//! The execution substrate for the `gcl` reproduction of *"Revealing
//! Critical Loads and Hidden Data Locality in GPGPU Applications"*
//! (IISWC 2015). It plays the role GPGPU-Sim plays in the paper: a
//! Fermi-class GPU ([`GpuConfig::fermi`], Table II) that runs kernels
//! written in the [`gcl_ptx`] subset and reports memory-system behavior
//! *separately for deterministic and non-deterministic loads*.
//!
//! ## Model
//!
//! * **Execution-driven, cycle-level.** Instructions execute functionally at
//!   issue (real addresses, real data); timing is modeled by a scoreboard,
//!   per-unit latencies, and the full memory hierarchy of [`gcl_mem`]
//!   (L1 with tag/MSHR/miss-queue reservation, crossbar, L2 slices, DRAM
//!   channels with bank/bus contention).
//! * **SIMT control flow** via an immediate-post-dominator reconvergence
//!   stack; predication for guarded non-branch instructions.
//! * **Coalescing** in front of the L1 ([`coalesce`]): the mechanism that
//!   separates the two load classes' behavior.
//! * **Per-class accounting** everywhere: requests per warp (Fig 2), L1
//!   cycle outcomes (Fig 3), unit occupancy (Fig 4), turnaround breakdowns
//!   (Fig 5–7), miss ratios (Fig 8), and inter-CTA block locality
//!   (Fig 10–12).
//!
//! ## Quick start
//!
//! ```
//! use gcl_sim::{pack_params, Dim3, Gpu, GpuConfig};
//! use gcl_ptx::{KernelBuilder, Type};
//!
//! let mut b = KernelBuilder::new("double");
//! let p = b.param("buf", Type::U64);
//! let base = b.ld_param(Type::U64, p);
//! let tid = b.thread_linear_id();
//! let addr = b.index64(base, tid, 4);
//! let v = b.ld_global(Type::U32, addr);
//! let v2 = b.shl(Type::U32, v, 1i64);
//! b.st_global(Type::U32, addr, v2);
//! b.exit();
//! let kernel = b.build()?;
//!
//! let mut gpu = Gpu::new(GpuConfig::small())?;
//! let buf = gpu.mem().alloc_array(Type::U32, 128)?;
//! gpu.mem().write_u32_slice(buf, &(0..128).collect::<Vec<_>>());
//! let params = pack_params(&kernel, &[buf]);
//! let stats = gpu.launch(&kernel, Dim3::x(4), Dim3::x(32), &params)?;
//! assert_eq!(gpu.mem().read_u32_slice(buf, 3), vec![0, 2, 4]);
//! // One deterministic global load per warp, fully coalesced:
//! assert_eq!(stats.sm.global_load_warps, [4, 0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Fault model
//!
//! Launches fail *structurally*, never by panicking: [`SimError`] covers
//! rejected configurations ([`ConfigError`]), failed allocations
//! ([`AllocError`]), out-of-bounds device accesses caught by memcheck
//! ([`MemFaultReport`], with the faulting load's D/N class and def-chain
//! witness attached), hangs caught by the forward-progress watchdog
//! ([`HangReport`], with a per-warp state dump), and — with
//! [`GpuConfig::sanitize`](GpuConfig) on — violations from the *simsan*
//! runtime sanitizer ([`SanitizerReport`]): request-conservation breaks
//! anywhere on the L1→icnt→L2→DRAM path, shared-memory races between warps
//! of a CTA within one barrier epoch, and cross-run digest divergence from
//! the determinism auditor (see [`check_digests`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod blocktrack;
mod ckpt;
mod coalesce;
mod config;
mod decode;
mod fault;
mod gmem;
mod gpu;
mod grid;
mod launch;
mod ldst;
mod loadtrack;
mod memsys;
mod replay;
mod san;
mod scoreboard;
mod simt;
mod sm;
mod stats;
mod trace;
mod value;
mod warp;
mod warp_sched;

pub use blocktrack::{BlockSummary, BlockTracker, PcSharing};
pub use ckpt::{
    config_fingerprint, kernel_fingerprint, CheckpointError, Snapshot, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use coalesce::coalesce;
pub use config::{CtaSchedPolicy, GpuConfig, PrefetchFilter, WarpSchedPolicy};
pub use fault::{
    AccessKind, AllocError, ConfigError, HangReport, MemFaultReport, MemViolation, SmSnapshot,
    WarpSnapshot,
};
pub use gmem::{GlobalMem, HEAP_BASE};
pub use gpu::{pack_params, Gpu, SimError};
pub use grid::Dim3;
pub use ldst::bank_conflict_degree;
pub use loadtrack::{ClassAgg, PcReqAgg};
pub use replay::{
    warps_per_cta, write_launch, ColBufs, LaunchInfo, LaunchReplay, MemAccess, MemorySink,
    ReplayError, ReplayKind, ReplayRecord, ReplayStream, TraceSink,
};
pub use san::{
    check_digests, DeterminismReport, RaceAccess, RaceReport, SanInject, SanitizerReport,
};
pub use stats::{LaunchStats, PcKey, SmStats};
pub use trace::{Trace, TraceEvent};
pub use value::{canon, eval_alu, eval_atom, eval_cmp, eval_cvt, eval_mad, eval_sfu, eval_unary};

pub use gcl_mem::{
    fnv_fold, fnv_fold_bytes, ConservationKind, ConservationReport, RequestLedger, SanStage,
    FNV_OFFSET,
};
