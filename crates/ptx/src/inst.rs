//! Instructions of the PTX subset: operands, addressing, opcodes.

use crate::{Reg, Space, Special, Type};
use std::fmt;

/// A source operand: register, immediate, or special register.
///
/// Floating-point immediates are stored as raw `f64` bits so that `Operand`
/// can implement `Eq`/`Hash`; use [`Operand::f32`]/[`Operand::f64`] to build
/// them and [`Operand::as_f64`] to read them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// An integer immediate (sign-extended to 64 bits).
    Imm(i64),
    /// A floating-point immediate, stored as the raw bits of an `f64`.
    FImm(u64),
    /// A special register such as `%tid.x`.
    Special(Special),
}

impl Operand {
    /// Build a floating-point immediate from an `f32` value.
    pub fn f32(v: f32) -> Operand {
        Operand::FImm((v as f64).to_bits())
    }

    /// Build a floating-point immediate from an `f64` value.
    pub fn f64(v: f64) -> Operand {
        Operand::FImm(v.to_bits())
    }

    /// The floating-point value of an [`Operand::FImm`], if this is one.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Operand::FImm(bits) => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// The register, if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this operand reads launch-invariant state (immediate or
    /// special register) rather than a register.
    pub fn is_launch_invariant(self) -> bool {
        !matches!(self, Operand::Reg(_))
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<Special> for Operand {
    fn from(s: Special) -> Operand {
        Operand::Special(s)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::FImm(bits) => write!(f, "0F{bits:016x}"),
            Operand::Special(s) => write!(f, "{s}"),
        }
    }
}

/// A memory address expression: optional base register plus byte offset.
///
/// `ld.param` addresses usually have no base (the offset selects the
/// parameter); global/shared accesses usually have a register base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Address {
    /// Base register, added to `offset` if present.
    pub base: Option<Reg>,
    /// Constant byte offset.
    pub offset: i64,
}

impl Address {
    /// Address that is a register plus zero offset.
    pub fn reg(base: Reg) -> Address {
        Address {
            base: Some(base),
            offset: 0,
        }
    }

    /// Address that is a register plus a byte offset.
    pub fn reg_offset(base: Reg, offset: i64) -> Address {
        Address {
            base: Some(base),
            offset,
        }
    }

    /// Absolute address (no base register).
    pub fn abs(offset: i64) -> Address {
        Address { base: None, offset }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.base, self.offset) {
            (Some(r), 0) => write!(f, "[{r}]"),
            (Some(r), o) if o >= 0 => write!(f, "[{r}+{o}]"),
            (Some(r), o) => write!(f, "[{r}{o}]"),
            (None, o) => write!(f, "[{o}]"),
        }
    }
}

/// Two-source integer/float ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `add`
    Add,
    /// `sub`
    Sub,
    /// `mul.lo` / floating `mul`
    Mul,
    /// `mul.hi` — upper half of the full product (integer only).
    MulHi,
    /// `mul.wide` — full product, result twice the operand width (integer only).
    MulWide,
    /// `div`
    Div,
    /// `rem` (integer only)
    Rem,
    /// `min`
    Min,
    /// `max`
    Max,
    /// `and` (integer/bits only)
    And,
    /// `or`
    Or,
    /// `xor`
    Xor,
    /// `shl`
    Shl,
    /// `shr`
    Shr,
}

impl AluOp {
    /// PTX mnemonic body (without type suffix).
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul.lo",
            AluOp::MulHi => "mul.hi",
            AluOp::MulWide => "mul.wide",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::Min => "min",
            AluOp::Max => "max",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        }
    }
}

/// One-source ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `neg` — arithmetic negation (integer two's complement or float sign).
    Neg,
    /// `not` — bitwise complement (integer only).
    Not,
    /// `abs` — absolute value.
    Abs,
    /// `popc` — population count (integer only; result is u32).
    Popc,
    /// `clz` — count leading zeros (integer only; result is u32).
    Clz,
}

impl UnaryOp {
    /// PTX mnemonic body.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnaryOp::Neg => "neg",
            UnaryOp::Not => "not",
            UnaryOp::Abs => "abs",
            UnaryOp::Popc => "popc",
            UnaryOp::Clz => "clz",
        }
    }
}

/// Transcendental / special-function-unit operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfuOp {
    /// `sin.approx`
    Sin,
    /// `cos.approx`
    Cos,
    /// `sqrt.approx`
    Sqrt,
    /// `rsqrt.approx`
    Rsqrt,
    /// `rcp.approx`
    Rcp,
    /// `ex2.approx` (2^x)
    Ex2,
    /// `lg2.approx` (log2 x)
    Lg2,
}

impl SfuOp {
    /// PTX mnemonic body.
    pub fn mnemonic(self) -> &'static str {
        match self {
            SfuOp::Sin => "sin.approx",
            SfuOp::Cos => "cos.approx",
            SfuOp::Sqrt => "sqrt.approx",
            SfuOp::Rsqrt => "rsqrt.approx",
            SfuOp::Rcp => "rcp.approx",
            SfuOp::Ex2 => "ex2.approx",
            SfuOp::Lg2 => "lg2.approx",
        }
    }
}

/// Comparison operators for `setp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `eq`
    Eq,
    /// `ne`
    Ne,
    /// `lt`
    Lt,
    /// `le`
    Le,
    /// `gt`
    Gt,
    /// `ge`
    Ge,
}

impl CmpOp {
    /// PTX mnemonic body.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The comparison with swapped operand order (`a op b` == `b swap(op) a`).
    pub fn swapped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of this comparison.
    pub fn negated(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Atomic read-modify-write operations on global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomOp {
    /// `atom.add`
    Add,
    /// `atom.min`
    Min,
    /// `atom.max`
    Max,
    /// `atom.exch`
    Exch,
    /// `atom.and`
    And,
    /// `atom.or`
    Or,
}

impl AtomOp {
    /// PTX mnemonic body.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AtomOp::Add => "add",
            AtomOp::Min => "min",
            AtomOp::Max => "max",
            AtomOp::Exch => "exch",
            AtomOp::And => "and",
            AtomOp::Or => "or",
        }
    }
}

/// The execution unit an instruction occupies inside an SM.
///
/// Used by the simulator for Figure 4 of the paper (idle fraction of the
/// first pipeline stage of SP / SFU / LD-ST units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Stream processor (integer/float ALU).
    Sp,
    /// Special function unit (transcendentals).
    Sfu,
    /// Load/store unit (all memory operations).
    LdSt,
    /// Control: branches, barriers, exit — handled at issue, no unit.
    Ctrl,
}

/// Opcode plus operands of one instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Load `ty` from `addr` in `space` into `dst`.
    Ld {
        /// State space read.
        space: Space,
        /// Element type.
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Effective address expression.
        addr: Address,
    },
    /// Store `src` of `ty` to `addr` in `space`.
    St {
        /// State space written.
        space: Space,
        /// Element type.
        ty: Type,
        /// Effective address expression.
        addr: Address,
        /// Value stored.
        src: Operand,
    },
    /// Register move / immediate or special-register materialization.
    Mov {
        /// Value type.
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Convert `src` from `src_ty` to `dst_ty`.
    Cvt {
        /// Destination type.
        dst_ty: Type,
        /// Source type.
        src_ty: Type,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// One-source ALU operation `dst = op a`.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Source.
        a: Operand,
    },
    /// Two-source ALU operation `dst = a op b`.
    Alu {
        /// The operation.
        op: AluOp,
        /// Operand type.
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Left source.
        a: Operand,
        /// Right source.
        b: Operand,
    },
    /// Multiply-add `dst = a * b + c`. With `wide`, the product (and `c`) are
    /// at twice the operand width (`mad.wide`).
    Mad {
        /// Operand type of `a` and `b`.
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Multiplicand.
        a: Operand,
        /// Multiplier.
        b: Operand,
        /// Addend.
        c: Operand,
        /// `mad.wide` (integer only): result twice the operand width.
        wide: bool,
    },
    /// Special-function operation `dst = op(a)`.
    Sfu {
        /// The operation.
        op: SfuOp,
        /// Operand type (F32 or F64).
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Source.
        a: Operand,
    },
    /// Set predicate `dst = (a cmp b)`.
    Setp {
        /// Comparison operator.
        cmp: CmpOp,
        /// Operand type.
        ty: Type,
        /// Destination predicate register.
        dst: Reg,
        /// Left source.
        a: Operand,
        /// Right source.
        b: Operand,
    },
    /// Select `dst = pred ? a : b`.
    Selp {
        /// Value type.
        ty: Type,
        /// Destination register.
        dst: Reg,
        /// Value when `pred` is true.
        a: Operand,
        /// Value when `pred` is false.
        b: Operand,
        /// Predicate register.
        pred: Reg,
    },
    /// Branch to instruction index `target`. A guarded `Bra` is a conditional
    /// branch; an unguarded one is unconditional.
    Bra {
        /// Destination instruction index within the kernel.
        target: usize,
    },
    /// CTA-wide barrier (`bar.sync id`). Warps of a CTA waiting on
    /// different barrier ids never release each other — the classic named-
    /// barrier deadlock.
    Bar {
        /// Named barrier index.
        id: u32,
    },
    /// Atomic read-modify-write: `dst = [addr]; [addr] = dst op src`.
    Atom {
        /// The read-modify-write operation.
        op: AtomOp,
        /// Element type.
        ty: Type,
        /// Destination register (receives the old value).
        dst: Reg,
        /// Effective address (global space).
        addr: Address,
        /// Operation source value.
        src: Operand,
    },
    /// Terminate this thread.
    Exit,
}

impl Op {
    /// Destination register written by this instruction, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        match *self {
            Op::Ld { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Cvt { dst, .. }
            | Op::Unary { dst, .. }
            | Op::Alu { dst, .. }
            | Op::Mad { dst, .. }
            | Op::Sfu { dst, .. }
            | Op::Setp { dst, .. }
            | Op::Selp { dst, .. }
            | Op::Atom { dst, .. } => Some(dst),
            Op::St { .. } | Op::Bra { .. } | Op::Bar { .. } | Op::Exit => None,
        }
    }

    /// Visit every operand this instruction reads, in operand order and
    /// without allocating: the address base first, then the value
    /// operands; `selp`'s predicate comes last, as an [`Operand::Reg`]. The
    /// guard predicate lives on [`Instruction`] and is not visited.
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        if let Some(base) = self.addr().and_then(|a| a.base) {
            f(Operand::Reg(base));
        }
        match *self {
            Op::St { src, .. }
            | Op::Atom { src, .. }
            | Op::Mov { src, .. }
            | Op::Cvt { src, .. }
            | Op::Unary { a: src, .. }
            | Op::Sfu { a: src, .. } => f(src),
            Op::Alu { a, b, .. } | Op::Setp { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::Mad { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
            Op::Selp { a, b, pred, .. } => {
                f(a);
                f(b);
                f(Operand::Reg(pred));
            }
            Op::Ld { .. } | Op::Bra { .. } | Op::Bar { .. } | Op::Exit => {}
        }
    }

    /// Visit every register this instruction reads: the registers of
    /// [`Op::for_each_operand`], in its order.
    pub fn for_each_src_reg(&self, mut f: impl FnMut(Reg)) {
        self.for_each_operand(|o| {
            if let Operand::Reg(r) = o {
                f(r);
            }
        });
    }

    /// All registers read by this instruction (excluding the guard predicate,
    /// which lives on [`Instruction`]).
    pub fn src_regs(&self) -> Vec<Reg> {
        let mut out = Vec::with_capacity(3);
        self.for_each_src_reg(|r| out.push(r));
        out
    }

    /// Whether this is a load (any space). Atomics count as loads: they
    /// return memory data into a register.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Ld { .. } | Op::Atom { .. })
    }

    /// Whether this is a load from global memory (including local/tex, which
    /// are global-backed). This is the set of loads the paper classifies.
    pub fn is_global_load(&self) -> bool {
        match self {
            Op::Ld { space, .. } => {
                matches!(space, Space::Global | Space::Local | Space::Tex)
            }
            Op::Atom { .. } => true,
            _ => false,
        }
    }

    /// The state space this instruction accesses, if it is a memory op.
    pub fn space(&self) -> Option<Space> {
        match self {
            Op::Ld { space, .. } | Op::St { space, .. } => Some(*space),
            Op::Atom { .. } => Some(Space::Global),
            _ => None,
        }
    }

    /// The memory address expression, if this is a memory op.
    pub fn addr(&self) -> Option<Address> {
        match self {
            Op::Ld { addr, .. } | Op::St { addr, .. } | Op::Atom { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// The access size in bytes, if this is a memory op.
    pub fn access_bytes(&self) -> Option<u32> {
        match self {
            Op::Ld { ty, .. } | Op::St { ty, .. } | Op::Atom { ty, .. } => Some(ty.size_bytes()),
            _ => None,
        }
    }

    /// Which SM execution unit this instruction occupies.
    pub fn unit(&self) -> Unit {
        match self {
            Op::Ld { .. } | Op::St { .. } | Op::Atom { .. } => Unit::LdSt,
            Op::Sfu { .. } => Unit::Sfu,
            Op::Bra { .. } | Op::Bar { .. } | Op::Exit => Unit::Ctrl,
            // Divides and remainders are iterative and execute on the SFU
            // path in Fermi-class hardware.
            Op::Alu {
                op: AluOp::Div | AluOp::Rem,
                ..
            } => Unit::Sfu,
            _ => Unit::Sp,
        }
    }

    /// Whether this op ends a basic block (transfers or terminates control).
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Bra { .. } | Op::Exit)
    }
}

/// An optional guard predicate: `@%p` executes when the predicate is true,
/// `@!%p` when it is false.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The predicate register consulted.
    pub pred: Reg,
    /// If true, the instruction executes when the predicate is *false*.
    pub negate: bool,
}

impl Guard {
    /// Guard that fires when `pred` is true (`@%p`).
    pub fn when(pred: Reg) -> Guard {
        Guard {
            pred,
            negate: false,
        }
    }

    /// Guard that fires when `pred` is false (`@!%p`).
    pub fn unless(pred: Reg) -> Guard {
        Guard { pred, negate: true }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// One (optionally guarded) instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// The operation.
    pub op: Op,
    /// Optional guard predicate.
    pub guard: Option<Guard>,
}

impl Instruction {
    /// An unguarded instruction.
    pub fn new(op: Op) -> Instruction {
        Instruction { op, guard: None }
    }

    /// A guarded instruction.
    pub fn guarded(guard: Guard, op: Op) -> Instruction {
        Instruction {
            op,
            guard: Some(guard),
        }
    }

    /// Visit every register this instruction reads, the guard predicate
    /// last, without allocating.
    pub fn for_each_src_reg(&self, mut f: impl FnMut(Reg)) {
        self.op.for_each_src_reg(&mut f);
        if let Some(g) = self.guard {
            f(g.pred);
        }
    }

    /// All registers this instruction reads, including the guard predicate.
    pub fn src_regs(&self) -> Vec<Reg> {
        let mut regs = Vec::with_capacity(4);
        self.for_each_src_reg(|r| regs.push(r));
        regs
    }

    /// The register this instruction writes, if any.
    pub fn dst_reg(&self) -> Option<Reg> {
        self.op.dst_reg()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ld_global(dst: u32, base: u32) -> Op {
        Op::Ld {
            space: Space::Global,
            ty: Type::U32,
            dst: Reg(dst),
            addr: Address::reg(Reg(base)),
        }
    }

    /// Every operand of `op`, in visiting order.
    fn operands(op: &Op) -> Vec<Operand> {
        let mut out = Vec::new();
        op.for_each_operand(|o| out.push(o));
        out
    }

    #[test]
    fn dst_and_src_regs() {
        let op = Op::Mad {
            ty: Type::U32,
            dst: Reg(5),
            a: Operand::Reg(Reg(1)),
            b: Operand::Imm(4),
            c: Operand::Reg(Reg(2)),
            wide: true,
        };
        assert_eq!(op.dst_reg(), Some(Reg(5)));
        assert_eq!(op.src_regs(), vec![Reg(1), Reg(2)]);

        let st = Op::St {
            space: Space::Global,
            ty: Type::U32,
            addr: Address::reg_offset(Reg(3), 8),
            src: Operand::Reg(Reg(4)),
        };
        assert_eq!(st.dst_reg(), None);
        assert_eq!(st.src_regs(), vec![Reg(3), Reg(4)]);
        assert_eq!(
            operands(&st),
            vec![Operand::Reg(Reg(3)), Operand::Reg(Reg(4))]
        );

        // A special register and an immediate are operands, not registers.
        let mad = Op::Mad {
            ty: Type::U32,
            dst: Reg(6),
            a: Operand::Special(Special::TidX),
            b: Operand::Reg(Reg(7)),
            c: Operand::Imm(3),
            wide: false,
        };
        assert_eq!(
            operands(&mad),
            vec![
                Operand::Special(Special::TidX),
                Operand::Reg(Reg(7)),
                Operand::Imm(3)
            ]
        );
        assert_eq!(mad.src_regs(), vec![Reg(7)]);

        // `selp`'s predicate comes after both values.
        let selp = Op::Selp {
            ty: Type::U32,
            dst: Reg(8),
            a: Operand::Imm(1),
            b: Operand::Reg(Reg(9)),
            pred: Reg(10),
        };
        assert_eq!(
            operands(&selp),
            vec![Operand::Imm(1), Operand::Reg(Reg(9)), Operand::Reg(Reg(10))]
        );
        assert_eq!(selp.src_regs(), vec![Reg(9), Reg(10)]);

        // The address base comes before the value operand.
        let atom = Op::Atom {
            op: AtomOp::Add,
            ty: Type::U32,
            dst: Reg(11),
            addr: Address::reg_offset(Reg(12), 4),
            src: Operand::Reg(Reg(13)),
        };
        assert_eq!(
            operands(&atom),
            vec![Operand::Reg(Reg(12)), Operand::Reg(Reg(13))]
        );
        assert_eq!(atom.src_regs(), vec![Reg(12), Reg(13)]);
        let ld = ld_global(0, 14);
        assert_eq!(operands(&ld), vec![Operand::Reg(Reg(14))]);
        assert!(operands(&Op::Ld {
            space: Space::Param,
            ty: Type::U64,
            dst: Reg(0),
            addr: Address::abs(8),
        })
        .is_empty());

        // At the instruction level the guard comes last.
        let guarded = Instruction::guarded(Guard::unless(Reg(15)), selp);
        assert_eq!(guarded.src_regs(), vec![Reg(9), Reg(10), Reg(15)]);
    }

    #[test]
    fn guard_pred_is_a_source() {
        let inst = Instruction::guarded(Guard::when(Reg(9)), Op::Bra { target: 0 });
        assert_eq!(inst.src_regs(), vec![Reg(9)]);
        assert_eq!(inst.dst_reg(), None);
    }

    #[test]
    fn load_classification_helpers() {
        assert!(ld_global(0, 1).is_load());
        assert!(ld_global(0, 1).is_global_load());
        let sh = Op::Ld {
            space: Space::Shared,
            ty: Type::F32,
            dst: Reg(0),
            addr: Address::reg(Reg(1)),
        };
        assert!(sh.is_load());
        assert!(!sh.is_global_load());
        let atom = Op::Atom {
            op: AtomOp::Add,
            ty: Type::U32,
            dst: Reg(0),
            addr: Address::reg(Reg(1)),
            src: Operand::Imm(1),
        };
        assert!(atom.is_load());
        assert!(atom.is_global_load());
    }

    #[test]
    fn units() {
        assert_eq!(ld_global(0, 1).unit(), Unit::LdSt);
        assert_eq!(
            Op::Sfu {
                op: SfuOp::Sin,
                ty: Type::F32,
                dst: Reg(0),
                a: Operand::f32(1.0)
            }
            .unit(),
            Unit::Sfu
        );
        assert_eq!(Op::Bar { id: 0 }.unit(), Unit::Ctrl);
        assert_eq!(
            Op::Alu {
                op: AluOp::Add,
                ty: Type::U32,
                dst: Reg(0),
                a: Operand::Imm(1),
                b: Operand::Imm(2)
            }
            .unit(),
            Unit::Sp
        );
    }

    #[test]
    fn cmp_op_algebra() {
        for c in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(c.negated().negated(), c);
            assert_eq!(c.swapped().swapped(), c);
        }
        assert_eq!(CmpOp::Lt.negated(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.swapped(), CmpOp::Gt);
    }

    #[test]
    fn operand_float_round_trip() {
        let o = Operand::f64(3.25);
        assert_eq!(o.as_f64(), Some(3.25));
        assert_eq!(Operand::Imm(3).as_f64(), None);
        assert!(Operand::Imm(0).is_launch_invariant());
        assert!(Operand::Special(Special::TidX).is_launch_invariant());
        assert!(!Operand::Reg(Reg(0)).is_launch_invariant());
    }

    #[test]
    fn address_display() {
        assert_eq!(format!("{}", Address::reg(Reg(1))), "[%r1]");
        assert_eq!(format!("{}", Address::reg_offset(Reg(1), 4)), "[%r1+4]");
        assert_eq!(format!("{}", Address::reg_offset(Reg(1), -4)), "[%r1-4]");
        assert_eq!(format!("{}", Address::abs(16)), "[16]");
    }
}
