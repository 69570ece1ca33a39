//! # gcl-core — deterministic / non-deterministic load classification
//!
//! The primary contribution of *"Revealing Critical Loads and Hidden Data
//! Locality in GPGPU Applications"* (Koo, Jeon, Annavaram — IISWC 2015) is
//! the observation that GPU global loads split into two classes with very
//! different memory behavior, and a **backward dataflow analysis** that
//! separates them:
//!
//! * **Deterministic loads** compute their effective address only from
//!   *parameterized data*: thread/CTA ids (special registers), kernel
//!   parameters (`ld.param`), and constants. They are known at launch time
//!   and tend to generate coalesced accesses.
//! * **Non-deterministic loads** compute their address (transitively) from
//!   values produced by *prior loads* (`ld.global/local/shared/tex`,
//!   atomics) — data-dependent indexing. They tend to be uncoalesced and
//!   dominate memory-system bottlenecks.
//!
//! [`classify`] runs the analysis on a [`gcl_ptx::Kernel`]: it computes
//! flow-sensitive reaching definitions over the CFG, then traces each load's
//! address register backwards to its terminal [`AddressSource`]s. The
//! sources are computed once per strongly connected component of the def
//! graph — the loop-safe fixpoint — so that induction variables
//! (`i = i + 1`) inherit the class of their initialization rather than
//! diverging, and no verdict depends on the order loads are traced in.
//!
//! ```
//! use gcl_core::{classify, LoadClass};
//! use gcl_ptx::{KernelBuilder, Type};
//!
//! let mut b = KernelBuilder::new("gather");
//! let idx = b.param("idx", Type::U64);
//! let data = b.param("data", Type::U64);
//! let idx_base = b.ld_param(Type::U64, idx);
//! let data_base = b.ld_param(Type::U64, data);
//! let tid = b.thread_linear_id();
//! let ia = b.index64(idx_base, tid, 4);
//! let i = b.ld_global(Type::U32, ia);      // idx[tid]   — deterministic
//! let da = b.index64(data_base, i, 4);
//! let v = b.ld_global(Type::U32, da);      // data[idx[tid]] — non-deterministic
//! b.st_global(Type::U32, da, v);
//! b.exit();
//! let k = b.build()?;
//!
//! let c = classify(&k);
//! assert_eq!(c.global_load_counts(), (1, 1));
//! # Ok::<(), gcl_ptx::ValidateError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod classify;
mod reaching;
#[cfg(test)]
mod test_kernels;

pub use classify::{classify, classify_with, AddressSource, Classification, LoadClass, LoadInfo};
pub use reaching::{DefSite, ReachingDefs};
