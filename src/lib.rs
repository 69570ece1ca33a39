//! # gcl — GPU critical-load classification and hidden-data-locality analysis
//!
//! A from-scratch Rust reproduction of *"Revealing Critical Loads and Hidden
//! Data Locality in GPGPU Applications"* (Koo, Jeon, Annavaram — IISWC
//! 2015). This facade crate re-exports the whole toolkit:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`ptx`] | `gcl-ptx` | PTX-subset ISA, kernel builder/parser, CFG analyses |
//! | [`load_class`] | `gcl-core` | **the paper's contribution**: backward-dataflow load classification |
//! | [`analyze`] | `gcl-analyze` | static verifier, divergence analysis, affine coalescing prediction |
//! | [`mem`] | `gcl-mem` | caches with reservation semantics, interconnect, L2, DRAM |
//! | [`sim`] | `gcl-sim` | cycle-level SIMT GPU simulator (GPGPU-Sim's role) |
//! | [`workloads`] | `gcl-workloads` | the 15 benchmarks of Table I, rebuilt |
//! | [`stats`] | `gcl-stats` | profiler counters, tables, figure series |
//! | [`exec`] | `gcl-exec` | parallel job pool, content-addressed result cache, `gcl serve` daemon, fleet coordinator |
//!
//! ## Thirty-second tour
//!
//! ```
//! use gcl::prelude::*;
//!
//! // 1. Write a kernel (or parse one from PTX-subset text).
//! let mut b = KernelBuilder::new("gather");
//! let idx = b.param("idx", Type::U64);
//! let data = b.param("data", Type::U64);
//! let ib = b.ld_param(Type::U64, idx);
//! let db = b.ld_param(Type::U64, data);
//! let tid = b.thread_linear_id();
//! let ia = b.index64(ib, tid, 4);
//! let i = b.ld_global(Type::U32, ia);      // idx[tid]       — deterministic
//! let da = b.index64(db, i, 4);
//! let v = b.ld_global(Type::U32, da);      // data[idx[tid]] — non-deterministic
//! b.st_global(Type::U32, ia, v);
//! b.exit();
//! let kernel = b.build()?;
//!
//! // 2. Classify its loads (the paper's Section V analysis).
//! let classes = classify(&kernel);
//! assert_eq!(classes.global_load_counts(), (1, 1));
//!
//! // 3. Run it on the simulated Fermi GPU and observe per-class behavior.
//! let mut gpu = Gpu::new(GpuConfig::small())?;
//! let idx_buf = gpu.mem().alloc_array(Type::U32, 64)?;
//! gpu.mem().write_u32_slice(idx_buf, &(0..64).rev().collect::<Vec<_>>());
//! let data_buf = gpu.mem().alloc_array(Type::U32, 64)?;
//! let params = pack_params(&kernel, &[idx_buf, data_buf]);
//! let stats = gpu.launch(&kernel, Dim3::x(2), Dim3::x(32), &params)?;
//! assert!(stats.class(LoadClass::NonDeterministic).warp_loads > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for larger programs; `gcl figures all` (`crates/figures`)
//! regenerates every table and figure of the paper from one sweep.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gcl_analyze as analyze;
pub use gcl_core as load_class;
pub use gcl_exec as exec;
pub use gcl_mem as mem;
pub use gcl_ptx as ptx;
pub use gcl_sim as sim;
pub use gcl_stats as stats;
pub use gcl_trace as trace;
pub use gcl_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use gcl_analyze::{
        affine_loads, analyze, analyze_with, critical_loads, footprints, AnalyzeOptions,
        CriticalLoad, KernelLocality, LaunchCtx, Prediction, Report, Severity, Sharing, CSV_SCHEMA,
    };
    pub use gcl_core::{classify, AddressSource, Classification, LoadClass};
    pub use gcl_exec::{
        run_job, run_job_from, run_loadgen, run_pool, run_soak, run_worker, ClientOptions,
        Coordinator, CoordinatorOptions, ExecError, FleetInject, JobEvent, JobOutput, JobResult,
        JobSpec, LoadgenOptions, LoadgenReport, PoolConfig, ResultCache, ServeClient, ServeError,
        ServeOptions, Server, SessionClient, SessionSubmit, SoakOptions, SoakReport, TraceStore,
        WorkerOptions,
    };
    pub use gcl_ptx::{
        parse_kernel, Cfg, CmpOp, Kernel, KernelBuilder, Operand, Reg, Space, Special, Type,
    };
    pub use gcl_sim::{
        pack_params, CheckpointError, Dim3, Gpu, GpuConfig, LaunchStats, ReplayError, SimError,
        Snapshot,
    };
    pub use gcl_stats::{FigureSeries, Series, Table};
    pub use gcl_trace::{parse_trace, read_trace, TraceError, TraceFile, TraceWriter};
    pub use gcl_workloads::{Category, RunResult, Workload};
}
