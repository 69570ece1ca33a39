//! # gcl-figures — harnesses regenerating the paper's evaluation
//!
//! One binary per table/figure of *"Revealing Critical Loads and Hidden
//! Data Locality in GPGPU Applications"* (IISWC 2015), plus the Section X
//! ablations:
//!
//! ```text
//! cargo run --release -p gcl-figures --bin table1
//! cargo run --release -p gcl-figures --bin fig1     # ... fig12
//! cargo run --release -p gcl-figures --bin ablation_cta_sched
//! cargo run --release -p gcl-figures --bin ablation_semiglobal_l2
//! cargo run --release -p gcl-figures --bin ablation_warp_split
//! cargo run --release -p gcl-figures --bin summary
//! ```
//!
//! Pass `--tiny` to any binary for a fast smoke run. Each binary prints its
//! table and writes a JSON artifact under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod driver;
pub mod figures;
pub mod harness;
