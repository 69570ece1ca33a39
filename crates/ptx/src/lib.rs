//! # gcl-ptx — a PTX subset for GPU load analysis
//!
//! This crate defines the instruction set, kernel representation, textual
//! parser and control-flow analyses used throughout the `gcl` toolkit, a
//! reproduction of *"Revealing Critical Loads and Hidden Data Locality in
//! GPGPU Applications"* (IISWC 2015).
//!
//! The subset mirrors how NVCC lowers CUDA: kernel parameters are read with
//! `ld.param`, thread identity comes from special registers (`%tid`,
//! `%ctaid`, ...), array indexing is `mul.wide` + `add`, and control flow is
//! predicated branches. This is exactly the vocabulary the paper's backward
//! dataflow analysis needs to distinguish *deterministic* loads (addresses
//! from parameterized data) from *non-deterministic* loads (addresses from
//! prior loads).
//!
//! ## Building kernels
//!
//! Programmatically, with [`KernelBuilder`]:
//!
//! ```
//! use gcl_ptx::{KernelBuilder, Type};
//!
//! let mut b = KernelBuilder::new("saxpy_ish");
//! let x = b.param("x", Type::U64);
//! let base = b.ld_param(Type::U64, x);
//! let tid = b.thread_linear_id();
//! let addr = b.index64(base, tid, 4);
//! let v = b.ld_global(Type::F32, addr);
//! b.st_global(Type::F32, addr, v);
//! b.exit();
//! let kernel = b.build()?;
//! assert_eq!(kernel.global_load_pcs().len(), 1);
//! # Ok::<(), gcl_ptx::ValidateError>(())
//! ```
//!
//! Or from text, with [`parse_kernel`]:
//!
//! ```
//! let k = gcl_ptx::parse_kernel(
//!     ".entry noop () { exit; }",
//! )?;
//! assert_eq!(k.name(), "noop");
//! # Ok::<(), gcl_ptx::ParseError>(())
//! ```
//!
//! ## Control flow
//!
//! [`Cfg`] builds basic blocks and computes immediate post-dominators, which
//! the simulator uses as SIMT reconvergence points and the classifier uses
//! for reaching-definitions dataflow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod cfg;
mod fmt;
mod inst;
mod kernel;
mod loops;
mod parse;
mod reg;
mod types;

pub use builder::{KernelBuilder, Label, ParamRef};
pub use cfg::{BasicBlock, BlockId, Cfg, Dominators, RECONV_EXIT};
pub use inst::{
    Address, AluOp, AtomOp, CmpOp, Guard, Instruction, Op, Operand, SfuOp, UnaryOp, Unit,
};
pub use kernel::{Kernel, ParamDecl, ValidateError};
pub use loops::{Loop, LoopForest};
pub use parse::{parse_kernel, parse_module, ParseError};
pub use reg::{Reg, Special};
pub use types::{Space, Type};
