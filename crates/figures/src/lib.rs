//! # gcl-figures — the paper's evaluation, read off one sweep
//!
//! Every table and figure of *"Revealing Critical Loads and Hidden Data
//! Locality in GPGPU Applications"* (IISWC 2015) and the three Section X
//! suggestions, built as ablations, behind one command:
//!
//! ```text
//! gcl figures all                    # everything, 7 machines x 15 workloads
//! gcl figures fig7 --tiny            # one artifact, fast smoke scale
//! gcl figures critical_loads:spmv    # the one artifact about one workload
//! gcl figures ablation_prefetch --jobs 4
//! ```
//!
//! [`driver::ARTIFACTS`] names each artifact, the [`harness::Machine`]s it
//! reads and the pure function ([`figures`], [`ablation`]) that draws it.
//! The command runs each (machine, workload) pair the requested artifacts
//! need exactly once ([`harness::Sweep`]), prints every drawing and writes
//! its JSON under `results/`. A run that fails is left out of the drawings
//! and fails the command after the survivors are written.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablation;
pub mod driver;
pub mod figures;
pub mod harness;
