//! # gcl-mem — GPU memory-hierarchy components
//!
//! Timing models for the memory system the paper measures: L1/L2 caches with
//! **reservation semantics** (tag, MSHR and miss-queue resources whose
//! exhaustion produces the paper's three reservation-failure classes), a
//! crossbar [`Icnt`] with bounded buffers, [`DramChannel`]s with bank and bus
//! contention, and [`L2Partition`]s composing an L2 slice with its channel.
//!
//! The components are *timing-only*: data movement is functional and handled
//! by the simulator ([`gcl-sim`](https://docs.rs/gcl-sim)); what flows here
//! are [`MemRequest`] descriptors stamped with per-stage timestamps, which
//! the simulator turns into the turnaround-time breakdowns of the paper's
//! Figures 5–7.
//!
//! ```
//! use gcl_mem::{AccessOutcome, Cache, CacheConfig, ClassTag, MemRequest};
//!
//! let mut l1 = Cache::new(CacheConfig::fermi_l1());
//! let req = MemRequest::read(1, 0x2000, 0, ClassTag::NonDeterministic, 0, 0);
//! assert_eq!(l1.access(req, 0), AccessOutcome::MissIssued);
//! let to_l2 = l1.pop_miss().unwrap();
//! // ... travels through Icnt -> L2Partition -> back ...
//! let done = l1.fill(to_l2.block_addr, 400);
//! assert_eq!(done.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod addrmap;
mod cache;
mod dram;
mod icnt;
mod l2;
mod mshr;
mod request;
mod san;
pub mod wire;

pub use addrmap::{AddrMap, L2Topology};
pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats};
pub use dram::{DramChannel, DramConfig, DramStats};
pub use icnt::{Icnt, IcntConfig};
pub use l2::{L2Partition, PartitionConfig, PartitionEvent};
pub use mshr::Mshr;
pub use request::{ClassTag, Cycle, MemRequest};
pub use san::{ConservationKind, ConservationReport, ReqInfo, RequestLedger, SanStage};
pub use wire::{
    fnv_fold, fnv_fold_bytes, open, publish, seal, unzigzag, write_section, zigzag, Codec, Dec,
    Enc, Envelope, Wire, WireError, BYTES, FNV_OFFSET,
};
