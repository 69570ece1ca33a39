//! Kernel container: parameters, instructions, validation.

use crate::{Instruction, Op, Type};
use std::fmt;
use std::sync::OnceLock;

/// A kernel parameter declaration (`.param .u64 g_nodes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Parameter name, used by the parser and for diagnostics.
    pub name: String,
    /// Parameter type. Pointers are `u64`.
    pub ty: Type,
}

impl ParamDecl {
    /// Create a parameter declaration.
    pub fn new(name: impl Into<String>, ty: Type) -> ParamDecl {
        ParamDecl {
            name: name.into(),
            ty,
        }
    }
}

/// Errors produced when assembling a [`Kernel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A branch at instruction `pc` targets an out-of-range index.
    BranchOutOfRange {
        /// The branch instruction index.
        pc: usize,
        /// The invalid target.
        target: usize,
    },
    /// The kernel is empty.
    Empty,
    /// The final instruction can fall through past the end of the kernel.
    FallsOffEnd,
    /// A `ld.param` reads past the end of the parameter block.
    ParamOutOfRange {
        /// The load instruction index.
        pc: usize,
        /// The byte offset accessed.
        offset: i64,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range index {target}")
            }
            ValidateError::Empty => write!(f, "kernel has no instructions"),
            ValidateError::FallsOffEnd => {
                write!(f, "control can fall through past the last instruction")
            }
            ValidateError::ParamOutOfRange { pc, offset } => {
                write!(
                    f,
                    "ld.param at pc {pc} reads offset {offset} past the parameter block"
                )
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// A complete kernel in the PTX subset.
///
/// Instructions are stored flat; branch targets are instruction indices
/// ("PCs"). Build kernels with [`KernelBuilder`](crate::KernelBuilder) or
/// parse them from text with [`parse_kernel`](crate::parse_kernel).
///
/// # Examples
///
/// ```
/// use gcl_ptx::{KernelBuilder, Special, Type};
///
/// let mut b = KernelBuilder::new("copy");
/// let src = b.param("src", Type::U64);
/// let dst = b.param("dst", Type::U64);
/// let base_src = b.ld_param(Type::U64, src);
/// let base_dst = b.ld_param(Type::U64, dst);
/// let tid = b.thread_linear_id();
/// let a_src = b.index64(base_src, tid, 4);
/// let a_dst = b.index64(base_dst, tid, 4);
/// let v = b.ld_global(Type::U32, a_src);
/// b.st_global(Type::U32, a_dst, v);
/// b.exit();
/// let kernel = b.build().unwrap();
/// assert_eq!(kernel.global_load_pcs().len(), 1);
/// ```
#[derive(Clone)]
pub struct Kernel {
    name: String,
    params: Vec<ParamDecl>,
    shared_bytes: u32,
    insts: Vec<Instruction>,
    num_regs: u32,
    /// [`fingerprint`](Self::fingerprint), computed on first use. A kernel
    /// is immutable, so the value never goes stale; neither `Debug` nor
    /// `==` sees it.
    fingerprint: OnceLock<u64>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("shared_bytes", &self.shared_bytes)
            .field("insts", &self.insts)
            .field("num_regs", &self.num_regs)
            .finish()
    }
}

impl PartialEq for Kernel {
    fn eq(&self, other: &Kernel) -> bool {
        self.name == other.name
            && self.params == other.params
            && self.shared_bytes == other.shared_bytes
            && self.insts == other.insts
            && self.num_regs == other.num_regs
    }
}

impl Kernel {
    /// Assemble a kernel from parts, validating it.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] if any branch target is out of range, the
    /// kernel is empty, control can fall off the end, or a `ld.param` reads
    /// beyond the declared parameter block.
    pub fn new(
        name: impl Into<String>,
        params: Vec<ParamDecl>,
        shared_bytes: u32,
        insts: Vec<Instruction>,
    ) -> Result<Kernel, ValidateError> {
        let mut num_regs = 0;
        for inst in &insts {
            inst.for_each_src_reg(|r| num_regs = num_regs.max(r.0 + 1));
            if let Some(r) = inst.dst_reg() {
                num_regs = num_regs.max(r.0 + 1);
            }
        }
        let k = Kernel {
            name: name.into(),
            params,
            shared_bytes,
            insts,
            num_regs,
            fingerprint: OnceLock::new(),
        };
        k.validate()?;
        Ok(k)
    }

    fn validate(&self) -> Result<(), ValidateError> {
        if self.insts.is_empty() {
            return Err(ValidateError::Empty);
        }
        for (pc, inst) in self.insts.iter().enumerate() {
            if let Op::Bra { target } = inst.op {
                if target >= self.insts.len() {
                    return Err(ValidateError::BranchOutOfRange { pc, target });
                }
            }
            if let Op::Ld {
                space: crate::Space::Param,
                ty,
                addr,
                ..
            } = &inst.op
            {
                if addr.base.is_none() {
                    let end = addr.offset + i64::from(ty.size_bytes());
                    if addr.offset < 0 || end > i64::from(self.param_bytes()) {
                        return Err(ValidateError::ParamOutOfRange {
                            pc,
                            offset: addr.offset,
                        });
                    }
                }
            }
        }
        // The last instruction must not fall through: it has to be an exit or
        // an unconditional branch.
        let last = &self.insts[self.insts.len() - 1];
        let terminates = match last.op {
            Op::Exit => last.guard.is_none(),
            Op::Bra { .. } => last.guard.is_none(),
            _ => false,
        };
        if !terminates {
            return Err(ValidateError::FallsOffEnd);
        }
        Ok(())
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared parameters, in order.
    pub fn params(&self) -> &[ParamDecl] {
        &self.params
    }

    /// Statically allocated shared memory, in bytes.
    pub fn shared_bytes(&self) -> u32 {
        self.shared_bytes
    }

    /// The instruction stream. Branch targets are indices into this slice.
    pub fn insts(&self) -> &[Instruction] {
        &self.insts
    }

    /// Number of virtual registers used (max register id + 1).
    pub fn num_regs(&self) -> u32 {
        self.num_regs
    }

    /// 64-bit FNV-1a over the kernel's `Debug` text, which covers the
    /// name, parameters, shared-memory size and every instruction. Formatted
    /// and folded on the first call only; later calls (and clones made
    /// after it) read the stored value.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        *self.fingerprint.get_or_init(|| {
            let text = format!("{self:?}");
            text.bytes().fold(FNV_OFFSET, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
            })
        })
    }

    /// Byte offset of parameter `index` within the parameter block.
    ///
    /// Parameters are laid out in declaration order, each aligned to its own
    /// size (as the CUDA ABI does).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param_offset(&self, index: usize) -> u32 {
        assert!(
            index < self.params.len(),
            "parameter index {index} out of range"
        );
        let mut off = 0u32;
        for (i, p) in self.params.iter().enumerate() {
            let sz = p.ty.size_bytes();
            off = off.div_ceil(sz) * sz;
            if i == index {
                return off;
            }
            off += sz;
        }
        unreachable!()
    }

    /// Total size of the parameter block in bytes.
    pub fn param_bytes(&self) -> u32 {
        if self.params.is_empty() {
            return 0;
        }
        let last = self.params.len() - 1;
        self.param_offset(last) + self.params[last].ty.size_bytes()
    }

    /// Look up a parameter's index by name.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name == name)
    }

    /// Instruction indices of all global-memory loads (the loads the paper
    /// classifies as deterministic / non-deterministic).
    pub fn global_load_pcs(&self) -> Vec<usize> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, i)| i.op.is_global_load())
            .map(|(pc, _)| pc)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Address, Guard, Operand, Reg, Space};

    fn exit() -> Instruction {
        Instruction::new(Op::Exit)
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(
            Kernel::new("k", vec![], 0, vec![]),
            Err(ValidateError::Empty)
        );
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let insts = vec![Instruction::new(Op::Bra { target: 7 }), exit()];
        assert_eq!(
            Kernel::new("k", vec![], 0, insts),
            Err(ValidateError::BranchOutOfRange { pc: 0, target: 7 })
        );
    }

    #[test]
    fn falls_off_end_rejected() {
        let insts = vec![Instruction::new(Op::Mov {
            ty: Type::U32,
            dst: Reg(0),
            src: Operand::Imm(1),
        })];
        assert_eq!(
            Kernel::new("k", vec![], 0, insts),
            Err(ValidateError::FallsOffEnd)
        );
        // A guarded exit can also fall through.
        let insts = vec![Instruction::guarded(Guard::when(Reg(0)), Op::Exit)];
        assert_eq!(
            Kernel::new("k", vec![], 0, insts),
            Err(ValidateError::FallsOffEnd)
        );
    }

    #[test]
    fn param_layout_is_aligned() {
        let k = Kernel::new(
            "k",
            vec![
                ParamDecl::new("a", Type::U32),
                ParamDecl::new("b", Type::U64),
                ParamDecl::new("c", Type::U32),
            ],
            0,
            vec![exit()],
        )
        .unwrap();
        assert_eq!(k.param_offset(0), 0);
        assert_eq!(k.param_offset(1), 8); // aligned up from 4
        assert_eq!(k.param_offset(2), 16);
        assert_eq!(k.param_bytes(), 20);
        assert_eq!(k.param_index("b"), Some(1));
        assert_eq!(k.param_index("z"), None);
    }

    #[test]
    fn param_load_bounds_checked() {
        let insts = vec![
            Instruction::new(Op::Ld {
                space: Space::Param,
                ty: Type::U64,
                dst: Reg(0),
                addr: Address::abs(4),
            }),
            exit(),
        ];
        let err = Kernel::new("k", vec![ParamDecl::new("a", Type::U64)], 0, insts).unwrap_err();
        assert_eq!(err, ValidateError::ParamOutOfRange { pc: 0, offset: 4 });
    }

    #[test]
    fn num_regs_counts_max_plus_one() {
        let insts = vec![
            Instruction::new(Op::Mov {
                ty: Type::U32,
                dst: Reg(11),
                src: Operand::Imm(0),
            }),
            exit(),
        ];
        let k = Kernel::new("k", vec![], 0, insts).unwrap();
        assert_eq!(k.num_regs(), 12);
    }

    #[test]
    fn global_load_pcs_reports_global_backed_loads_only() {
        let insts = vec![
            Instruction::new(Op::Ld {
                space: Space::Global,
                ty: Type::U32,
                dst: Reg(0),
                addr: Address::reg(Reg(1)),
            }),
            Instruction::new(Op::Ld {
                space: Space::Shared,
                ty: Type::U32,
                dst: Reg(2),
                addr: Address::reg(Reg(1)),
            }),
            Instruction::new(Op::Ld {
                space: Space::Tex,
                ty: Type::U32,
                dst: Reg(3),
                addr: Address::reg(Reg(1)),
            }),
            exit(),
        ];
        let k = Kernel::new("k", vec![], 0, insts).unwrap();
        assert_eq!(k.global_load_pcs(), vec![0, 2]);
    }
}
