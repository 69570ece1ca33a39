//! Decode once: everything about a static instruction that is a pure
//! function of the kernel and the launch geometry, computed once per kernel
//! per [`Gpu`](crate::Gpu) and indexed by pc afterwards; a launch of another
//! shape re-decodes only the rows that read the geometry.
//!
//! One [`MicroOp`] row per instruction holds what the issue stage asks
//! (hazard mask, execution unit, a load's D/N class) and what
//! [`Warp::step`](crate::warp::Warp::step) executes: the micro-op kind, each
//! operand resolved to a [`Src`], a guarded branch's reconvergence pc, and —
//! for register-to-register instructions — the *lane function* mapped over a
//! warp. The lane function is a [`value`](crate::value) `eval_*` call with
//! its `(op, type)` arguments made constants (`specialise!` below), so the
//! compiler folds the operation and type matches away and `value.rs` stays
//! the only statement of instruction semantics.

use crate::scoreboard::{fill_mask, words_for};
use crate::value::{
    canon, eval_alu, eval_atom, eval_cmp, eval_cvt, eval_mad, eval_sfu, eval_unary,
};
use crate::Dim3;
use gcl_core::{Classification, LoadClass};
use gcl_ptx::{
    Address, AluOp, AtomOp, Cfg, CmpOp, Guard, Instruction, Kernel, Op, Operand, Reg, SfuOp, Space,
    Special, Type, UnaryOp, Unit, RECONV_EXIT,
};

/// Lanes in the widest warp ([`GpuConfig::validate`](crate::GpuConfig::validate)
/// rejects wider ones): lane masks are `u32` and gathered operands are
/// `[u64; MAX_LANES]`.
pub(crate) const MAX_LANES: usize = 32;

/// One operand (or one address, or one result) per lane.
pub(crate) type Lanes = [u64; MAX_LANES];

/// An `N`-source lane function mapped over the lanes of `mask`:
/// `dst[l] = f([srcs[0][l], ..])`. `dst` is the destination register's row.
pub(crate) type Map<const N: usize> = fn(dst: &mut [u64], srcs: [&Lanes; N], mask: u32);
/// An atomic's combine step `old op src`, applied lane by lane because each
/// lane's read-modify-write must see the previous lane's.
pub(crate) type Combine = fn(old: u64, src: u64) -> u64;

/// Call `f` with each set bit of `mask`, in ascending lane order.
#[inline(always)]
pub(crate) fn for_lanes(mask: u32, mut f: impl FnMut(usize)) {
    let mut m = mask;
    while m != 0 {
        f(m.trailing_zeros() as usize);
        m &= m - 1;
    }
}

/// Where a source operand's per-lane values come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A register's row of the warp's register file.
    Reg(Reg),
    /// The same bits in every lane of every warp: an immediate (a float
    /// immediate already narrowed to the instruction's type), `%ntid.*` or
    /// `%nctaid.*`.
    Const(u64),
    /// `%ctaid.*` or `%warpid`: one value per warp, read once per issue.
    Uniform(Special),
    /// `%tid.*` or `%laneid`: one value per lane.
    Lane(Special),
}

impl Src {
    /// Resolve `op` as read by an instruction of type `ty` in a launch of
    /// `nctaid` CTAs of `ntid` threads.
    fn new(op: Operand, ty: Type, ntid: Dim3, nctaid: Dim3) -> Src {
        match op {
            Operand::Reg(r) => Src::Reg(r),
            Operand::Imm(v) => Src::Const(v as u64),
            // Float immediates are stored as `f64` bits; `f32`-typed
            // instructions read them narrowed.
            Operand::FImm(bits) if ty == Type::F32 => {
                Src::Const(u64::from((f64::from_bits(bits) as f32).to_bits()))
            }
            Operand::FImm(bits) => Src::Const(bits),
            Operand::Special(s) => match s {
                Special::NTidX => Src::Const(ntid.x.into()),
                Special::NTidY => Src::Const(ntid.y.into()),
                Special::NTidZ => Src::Const(ntid.z.into()),
                Special::NCtaIdX => Src::Const(nctaid.x.into()),
                Special::NCtaIdY => Src::Const(nctaid.y.into()),
                Special::NCtaIdZ => Src::Const(nctaid.z.into()),
                Special::CtaIdX | Special::CtaIdY | Special::CtaIdZ | Special::WarpId => {
                    Src::Uniform(s)
                }
                Special::TidX | Special::TidY | Special::TidZ | Special::LaneId => Src::Lane(s),
            },
        }
    }
}

/// What [`Warp::step`](crate::warp::Warp::step) does for one static instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// Branch to `target`; lanes that fall through rejoin at `reconv`
    /// ([`RECONV_EXIT`] for an unguarded branch, which cannot diverge).
    Bra { target: usize, reconv: usize },
    /// Retire the executing lanes.
    Exit,
    /// Park at named barrier `id`.
    Bar { id: u32 },
    /// `dst = f(a)`: `mov`, `cvt`, unary ALU and SFU operations.
    Map1 { dst: Reg, srcs: [Src; 1], f: Map<1> },
    /// `dst = f(a, b)`: two-source ALU operations and `setp`.
    Map2 { dst: Reg, srcs: [Src; 2], f: Map<2> },
    /// `dst = f(a, b, c)`: `mad`, and `selp` as `f(pred, a, b)`.
    Map3 { dst: Reg, srcs: [Src; 3], f: Map<3> },
    /// Load `ty` from `addr` in `space` into `dst`.
    Ld {
        space: Space,
        ty: Type,
        dst: Reg,
        addr: Address,
    },
    /// Store `src` as `ty` to `addr` in `space`.
    St {
        space: Space,
        ty: Type,
        addr: Address,
        src: Src,
    },
    /// `dst = [addr]; [addr] = f(dst, src)` in global memory.
    Atom {
        ty: Type,
        dst: Reg,
        addr: Address,
        src: Src,
        f: Combine,
    },
}

/// The decoded row of one static instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroOp {
    /// Guard predicate; for a branch, the branch condition.
    pub(crate) guard: Option<Guard>,
    /// What to execute.
    pub(crate) kind: Kind,
    unit: Unit,
    class: LoadClass,
}

/// A kernel decoded for one launch geometry: per static instruction, the
/// register hazard mask and execution unit the issue stage polls, the D/N
/// class the LD/ST path tags a global load's requests with, and the
/// micro-op [`Warp::step`](crate::warp::Warp::step) executes. A pure
/// function of the kernel and the geometry, never serialised: a
/// [`Gpu`](crate::Gpu) decodes each kernel once and
/// [`at_geometry`](Self::at_geometry) re-decodes only the rows that read
/// `%ntid.*` or `%nctaid.*` for a launch of another shape.
#[derive(Debug, Clone)]
pub(crate) struct DecodedKernel {
    ops: Vec<MicroOp>,
    /// `words` scoreboard words per instruction.
    masks: Vec<u64>,
    words: usize,
    /// `(ntid, nctaid)` the rows were decoded for.
    geometry: (Dim3, Dim3),
    /// The pcs whose rows bake in a `%ntid.*` or `%nctaid.*` value.
    geometric_pcs: Vec<usize>,
}

impl DecodedKernel {
    /// Decode `kernel` for a launch of `nctaid` CTAs of `ntid` threads;
    /// `classification` is `gcl_core::classify(kernel)`.
    pub fn new(
        kernel: &Kernel,
        classification: &Classification,
        ntid: Dim3,
        nctaid: Dim3,
    ) -> DecodedKernel {
        let reconv = Cfg::build(kernel).reconvergence_pcs(kernel);
        let words = words_for(kernel.num_regs());
        let mut masks = vec![0; words * kernel.insts().len()];
        for (inst, row) in kernel.insts().iter().zip(masks.chunks_exact_mut(words)) {
            fill_mask(inst, row);
        }
        let mut geometric_pcs = Vec::new();
        let ops = kernel
            .insts()
            .iter()
            .enumerate()
            .map(|(pc, inst)| {
                let reconv = match (&inst.op, inst.guard) {
                    (Op::Bra { .. }, Some(_)) => *reconv
                        .get(&pc)
                        .expect("missing reconvergence pc for branch"),
                    _ => RECONV_EXIT,
                };
                let mut geometric = false;
                let kind = kind(inst, reconv, ntid, nctaid, &mut geometric);
                if geometric {
                    geometric_pcs.push(pc);
                }
                MicroOp {
                    guard: inst.guard,
                    kind,
                    unit: inst.op.unit(),
                    class: classification
                        .class_of(pc)
                        .unwrap_or(LoadClass::Deterministic),
                }
            })
            .collect();
        DecodedKernel {
            ops,
            masks,
            words,
            geometry: (ntid, nctaid),
            geometric_pcs,
        }
    }

    /// Whether these rows hold for a launch of `nctaid` CTAs of `ntid`
    /// threads as they stand.
    pub fn fits(&self, ntid: Dim3, nctaid: Dim3) -> bool {
        self.geometric_pcs.is_empty() || self.geometry == (ntid, nctaid)
    }

    /// `kernel` (the kernel these rows were decoded from) decoded for a
    /// launch of `nctaid` CTAs of `ntid` threads: a copy of these rows with
    /// only the geometry-reading ones decoded again.
    pub fn at_geometry(&self, kernel: &Kernel, ntid: Dim3, nctaid: Dim3) -> DecodedKernel {
        let mut decoded = self.clone();
        for &pc in &self.geometric_pcs {
            let op = &mut decoded.ops[pc];
            let reconv = match op.kind {
                Kind::Bra { reconv, .. } => reconv,
                _ => RECONV_EXIT,
            };
            op.kind = kind(&kernel.insts()[pc], reconv, ntid, nctaid, &mut false);
        }
        decoded.geometry = (ntid, nctaid);
        decoded
    }

    /// Read|write register mask of the instruction at `pc`, in the
    /// [`Scoreboard`](crate::scoreboard::Scoreboard)'s layout.
    pub fn mask(&self, pc: usize) -> &[u64] {
        &self.masks[pc * self.words..(pc + 1) * self.words]
    }

    /// Execution unit of the instruction at `pc`.
    pub fn unit(&self, pc: usize) -> Unit {
        self.ops[pc].unit
    }

    /// D/N class of the load at `pc` (deterministic for anything the
    /// classifier does not list).
    pub fn class(&self, pc: usize) -> LoadClass {
        self.ops[pc].class
    }

    pub(crate) fn op(&self, pc: usize) -> &MicroOp {
        &self.ops[pc]
    }
}

/// The micro-op kind of `inst` in a launch of `nctaid` CTAs of `ntid`
/// threads; `reconv` is a guarded branch's reconvergence pc. Sets
/// `*geometric` when an operand resolves to a `%ntid.*` or `%nctaid.*`
/// constant.
fn kind(inst: &Instruction, reconv: usize, ntid: Dim3, nctaid: Dim3, geometric: &mut bool) -> Kind {
    let mut src = |op: Operand, ty: Type| {
        *geometric |= matches!(
            op,
            Operand::Special(
                Special::NTidX
                    | Special::NTidY
                    | Special::NTidZ
                    | Special::NCtaIdX
                    | Special::NCtaIdY
                    | Special::NCtaIdZ
            )
        );
        Src::new(op, ty, ntid, nctaid)
    };
    match inst.op {
        Op::Bra { target } => Kind::Bra { target, reconv },
        Op::Exit => Kind::Exit,
        Op::Bar { id } => Kind::Bar { id },
        Op::Mov { ty, dst, src: a } => Kind::Map1 {
            dst,
            srcs: [src(a, ty)],
            f: mov_fn(ty),
        },
        Op::Cvt {
            dst_ty,
            src_ty,
            dst,
            src: a,
        } => Kind::Map1 {
            dst,
            srcs: [src(a, src_ty)],
            f: cvt_fn(dst_ty, src_ty),
        },
        Op::Unary { op, ty, dst, a } => Kind::Map1 {
            dst,
            srcs: [src(a, ty)],
            f: unary_fn(op, ty),
        },
        Op::Sfu { op, ty, dst, a } => Kind::Map1 {
            dst,
            srcs: [src(a, ty)],
            f: sfu_fn(op, ty),
        },
        Op::Alu { op, ty, dst, a, b } => Kind::Map2 {
            dst,
            srcs: [src(a, ty), src(b, ty)],
            f: alu_fn(op, ty),
        },
        Op::Setp { cmp, ty, dst, a, b } => Kind::Map2 {
            dst,
            srcs: [src(a, ty), src(b, ty)],
            f: cmp_fn(cmp, ty),
        },
        Op::Mad {
            ty,
            dst,
            a,
            b,
            c,
            wide,
        } => Kind::Map3 {
            dst,
            srcs: [src(a, ty), src(b, ty), src(c, ty)],
            f: mad_fn(ty, wide),
        },
        Op::Selp {
            ty,
            dst,
            a,
            b,
            pred,
        } => Kind::Map3 {
            dst,
            srcs: [Src::Reg(pred), src(a, ty), src(b, ty)],
            f: selp_fn(ty),
        },
        Op::Ld {
            space,
            ty,
            dst,
            addr,
        } => Kind::Ld {
            space,
            ty,
            dst,
            addr,
        },
        Op::St {
            space,
            ty,
            addr,
            src: v,
        } => Kind::St {
            space,
            ty,
            addr,
            src: src(v, ty),
        },
        Op::Atom {
            op,
            ty,
            dst,
            addr,
            src: v,
        } => Kind::Atom {
            ty,
            dst,
            addr,
            src: src(v, ty),
            f: atom_fn(op, ty),
        },
    }
}

/// Apply lane function `f` to the lanes of `mask`.
#[inline(always)]
fn map<const N: usize>(dst: &mut [u64], srcs: [&Lanes; N], mask: u32, f: impl Fn([u64; N]) -> u64) {
    match <&mut Lanes>::try_from(&mut *dst) {
        // A full warp needs no bit scan and may vectorise.
        Ok(dst) if mask == u32::MAX => {
            for (l, d) in dst.iter_mut().enumerate() {
                *d = f(srcs.map(|s| s[l]));
            }
        }
        _ => for_lanes(mask, |l| dst[l] = f(srcs.map(|s| s[l]))),
    }
}

/// `match $value` over the listed variants of enum `$E`, evaluating `$body`
/// in each arm with `$C` bound to that variant *as a constant*. A closure in
/// `$body` that mentions `$C` captures nothing, so it coerces to a plain
/// function pointer, and an `eval_*` call inside it is compiled with that
/// argument known. Leaving a variant out of the list is a compile error
/// (the `match` has no wildcard arm).
macro_rules! specialise {
    ($value:expr, $C:ident: $E:ident [$($variant:ident)*] => $body:expr) => {
        match $value {
            $($E::$variant => {
                const $C: $E = $E::$variant;
                $body
            })*
        }
    };
}

macro_rules! each_type {
    ($value:expr, $C:ident => $body:expr) => {
        specialise!($value, $C: Type [U8 U16 U32 U64 S32 S64 F32 F64 B32 B64 Pred] => $body)
    };
}

/// Lane function `$f` of `$n` sources, mapped over a warp, as a plain `fn`.
macro_rules! mapped {
    ($n:literal, $f:expr) => {
        (|dst: &mut [u64], srcs: [&Lanes; $n], mask: u32| map(dst, srcs, mask, $f)) as Map<$n>
    };
}

pub(crate) fn alu_fn(op: AluOp, ty: Type) -> Map<2> {
    specialise!(op, OP: AluOp [Add Sub Mul MulHi MulWide Div Rem Min Max And Or Xor Shl Shr] =>
        each_type!(ty, T => mapped!(2, |[a, b]| eval_alu(OP, T, a, b))))
}

pub(crate) fn cmp_fn(cmp: CmpOp, ty: Type) -> Map<2> {
    specialise!(cmp, CMP: CmpOp [Eq Ne Lt Le Gt Ge] =>
        each_type!(ty, T => mapped!(2, |[a, b]| eval_cmp(CMP, T, a, b))))
}

pub(crate) fn unary_fn(op: UnaryOp, ty: Type) -> Map<1> {
    specialise!(op, OP: UnaryOp [Neg Not Abs Popc Clz] =>
        each_type!(ty, T => mapped!(1, |[a]| eval_unary(OP, T, a))))
}

pub(crate) fn sfu_fn(op: SfuOp, ty: Type) -> Map<1> {
    specialise!(op, OP: SfuOp [Sin Cos Sqrt Rsqrt Rcp Ex2 Lg2] =>
        each_type!(ty, T => mapped!(1, |[a]| eval_sfu(OP, T, a))))
}

pub(crate) fn cvt_fn(dst_ty: Type, src_ty: Type) -> Map<1> {
    each_type!(dst_ty, D => each_type!(src_ty, S => mapped!(1, |[a]| eval_cvt(D, S, a))))
}

pub(crate) fn mov_fn(ty: Type) -> Map<1> {
    each_type!(ty, T => mapped!(1, |[a]| canon(T, a)))
}

pub(crate) fn mad_fn(ty: Type, wide: bool) -> Map<3> {
    if wide {
        each_type!(ty, T => mapped!(3, |[a, b, c]| eval_mad(T, true, a, b, c)))
    } else {
        each_type!(ty, T => mapped!(3, |[a, b, c]| eval_mad(T, false, a, b, c)))
    }
}

/// `selp` as a three-source lane function of `(pred, a, b)`.
pub(crate) fn selp_fn(ty: Type) -> Map<3> {
    each_type!(ty, T => mapped!(3, |[p, a, b]| canon(T, if p != 0 { a } else { b })))
}

pub(crate) fn atom_fn(op: AtomOp, ty: Type) -> Combine {
    specialise!(op, OP: AtomOp [Add Min Max Exch And Or] =>
        each_type!(ty, T => (|old, src| eval_atom(OP, T, old, src)) as Combine))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TYPES: [Type; 11] = [
        Type::U8,
        Type::U16,
        Type::U32,
        Type::U64,
        Type::S32,
        Type::S64,
        Type::F32,
        Type::F64,
        Type::B32,
        Type::B64,
        Type::Pred,
    ];

    /// Zero, one, the sign bit and the all-ones pattern of every width,
    /// shift counts around every width, and the float specials of both
    /// float widths.
    fn edges() -> Vec<u64> {
        let mut v = vec![0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 63, 64, 65, 100];
        for bits in [8, 16, 32, 64] {
            let sign = 1u64 << (bits - 1);
            v.extend([
                sign - 1,
                sign,
                sign + 1,
                sign.wrapping_mul(2).wrapping_sub(1),
            ]);
        }
        v.push(0x1_0000_0000);
        let floats = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            3.9,
            -3.9,
            1e10,
            -1e10,
            1e-40,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        v.extend(floats.iter().map(|f| u64::from((*f as f32).to_bits())));
        v.extend(floats.iter().map(|f| f.to_bits()));
        v.extend([f64::MAX.to_bits(), u64::from(f32::MAX.to_bits())]);
        v
    }

    /// Every `n`-tuple of `values`, column by column, padded to whole warps
    /// by repeating the last tuple.
    fn tuples<const N: usize>(values: &[u64]) -> Vec<[Lanes; N]> {
        let total = values.len().pow(N as u32);
        (0..total.div_ceil(MAX_LANES))
            .map(|batch| {
                let mut cols = [[0; MAX_LANES]; N];
                for lane in 0..MAX_LANES {
                    let mut i = (batch * MAX_LANES + lane).min(total - 1);
                    for col in &mut cols {
                        col[lane] = values[i % values.len()];
                        i /= values.len();
                    }
                }
                cols
            })
            .collect()
    }

    /// A partial mask over a 16-lane row leaves the other lanes alone.
    const NARROW_MASK: u32 = 0xA5C3;
    const UNTOUCHED: u64 = 0xDEAD_BEEF_DEAD_BEEF;

    /// Equal bits, or both a NaN of float type `ty`: which operand's payload
    /// a NaN result carries is the compiler's choice of operand order, and
    /// it may choose differently in two copies of one expression.
    fn same(ty: Type, a: u64, b: u64) -> bool {
        a == b
            || match ty {
                Type::F32 => f32::from_bits(a as u32).is_nan() && f32::from_bits(b as u32).is_nan(),
                Type::F64 => f64::from_bits(a).is_nan() && f64::from_bits(b).is_nan(),
                _ => false,
            }
    }

    /// `run` the table entry over a full warp and over [`NARROW_MASK`] of a
    /// 16-lane row; every written lane must hold `want(lane)`, a value of
    /// type `ty`.
    fn check(
        what: &str,
        ty: Type,
        batch: &[Lanes],
        run: impl Fn(&mut [u64], u32),
        want: impl Fn(usize) -> u64,
    ) {
        let mut full = [UNTOUCHED; MAX_LANES];
        run(&mut full, u32::MAX);
        let mut narrow = [UNTOUCHED; 16];
        run(&mut narrow, NARROW_MASK);
        for lane in 0..MAX_LANES {
            let args: Vec<String> = batch.iter().map(|c| format!("{:#x}", c[lane])).collect();
            let (got, want) = (full[lane], want(lane));
            assert!(
                same(ty, got, want),
                "{what}({}) = {got:#x}, eval says {want:#x}",
                args.join(", ")
            );
            if lane < narrow.len() {
                let got = narrow[lane];
                let ok = match NARROW_MASK >> lane & 1 {
                    0 => got == UNTOUCHED,
                    _ => same(ty, got, want),
                };
                assert!(
                    ok,
                    "{what}({}) under a partial mask = {got:#x}",
                    args.join(", ")
                );
            }
        }
    }

    #[test]
    fn two_source_entries_equal_eval_alu_and_eval_cmp() {
        use AluOp::*;
        let pairs = tuples::<2>(&edges());
        for ty in TYPES {
            for op in [
                Add, Sub, Mul, MulHi, MulWide, Div, Rem, Min, Max, And, Or, Xor, Shl, Shr,
            ] {
                if ty.is_float() && matches!(op, And | Or | Xor | Shl | Shr) {
                    continue; // `eval_alu` rejects bitwise operations on floats
                }
                let f = alu_fn(op, ty);
                for [a, b] in &pairs {
                    check(
                        &format!("{op:?}.{ty}"),
                        ty,
                        &[*a, *b],
                        |dst, mask| f(dst, [a, b], mask),
                        |l| eval_alu(op, ty, a[l], b[l]),
                    );
                }
            }
            for cmp in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                let f = cmp_fn(cmp, ty);
                for [a, b] in &pairs {
                    check(
                        &format!("setp.{cmp:?}.{ty}"),
                        Type::Pred,
                        &[*a, *b],
                        |dst, mask| f(dst, [a, b], mask),
                        |l| eval_cmp(cmp, ty, a[l], b[l]),
                    );
                }
            }
        }
    }

    #[test]
    fn one_source_entries_equal_eval_unary_sfu_cvt_and_canon() {
        use UnaryOp::*;
        let values = tuples::<1>(&edges());
        for ty in TYPES {
            for op in [Neg, Not, Abs, Popc, Clz] {
                if ty.is_float() && matches!(op, Not | Popc | Clz) {
                    continue; // `eval_unary` rejects bitwise operations on floats
                }
                let f = unary_fn(op, ty);
                for [a] in &values {
                    check(
                        &format!("{op:?}.{ty}"),
                        ty,
                        &[*a],
                        |dst, mask| f(dst, [a], mask),
                        |l| eval_unary(op, ty, a[l]),
                    );
                }
            }
            if ty.is_float() {
                use SfuOp::*;
                for op in [Sin, Cos, Sqrt, Rsqrt, Rcp, Ex2, Lg2] {
                    let f = sfu_fn(op, ty);
                    for [a] in &values {
                        check(
                            &format!("{op:?}.{ty}"),
                            ty,
                            &[*a],
                            |dst, mask| f(dst, [a], mask),
                            |l| eval_sfu(op, ty, a[l]),
                        );
                    }
                }
            }
            for src_ty in TYPES {
                let f = cvt_fn(ty, src_ty);
                for [a] in &values {
                    check(
                        &format!("cvt.{ty}.{src_ty}"),
                        ty,
                        &[*a],
                        |dst, mask| f(dst, [a], mask),
                        |l| eval_cvt(ty, src_ty, a[l]),
                    );
                }
            }
            let f = mov_fn(ty);
            for [a] in &values {
                check(
                    &format!("mov.{ty}"),
                    ty,
                    &[*a],
                    |dst, mask| f(dst, [a], mask),
                    |l| canon(ty, a[l]),
                );
            }
        }
    }

    #[test]
    fn three_source_entries_equal_eval_mad_and_selp() {
        // A third of the edge values: triples grow with the cube.
        let some: Vec<u64> = edges().into_iter().step_by(3).collect();
        let triples = tuples::<3>(&some);
        for ty in TYPES {
            for wide in [false, true] {
                let f = mad_fn(ty, wide);
                for [a, b, c] in &triples {
                    check(
                        &format!("mad{}.{ty}", if wide { ".wide" } else { "" }),
                        ty,
                        &[*a, *b, *c],
                        |dst, mask| f(dst, [a, b, c], mask),
                        |l| eval_mad(ty, wide, a[l], b[l], c[l]),
                    );
                }
            }
            let f = selp_fn(ty);
            for [p, a, b] in &triples {
                check(
                    &format!("selp.{ty}"),
                    ty,
                    &[*p, *a, *b],
                    |dst, mask| f(dst, [p, a, b], mask),
                    |l| canon(ty, if p[l] != 0 { a[l] } else { b[l] }),
                );
            }
        }
    }

    #[test]
    fn atomic_combines_equal_eval_atom() {
        use AtomOp::*;
        let values = edges();
        for ty in TYPES.into_iter().filter(|ty| !ty.is_float()) {
            for op in [Add, Min, Max, Exch, And, Or] {
                let f = atom_fn(op, ty);
                for &old in &values {
                    for &src in &values {
                        assert_eq!(
                            f(old, src),
                            eval_atom(op, ty, old, src),
                            "atom.{op:?}.{ty}({old:#x}, {src:#x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn operands_resolve_once_per_launch() {
        let (ntid, nctaid) = (Dim3::xy(16, 4), Dim3::x(9));
        let src = |op: Operand, ty| Src::new(op, ty, ntid, nctaid);
        assert_eq!(src(Operand::Reg(Reg(3)), Type::U32), Src::Reg(Reg(3)));
        assert_eq!(src(Operand::Imm(-1), Type::U32), Src::Const(u64::MAX));
        // A float immediate is stored as f64 bits and narrowed for `.f32`.
        let third = Operand::f64(1.0 / 3.0);
        assert_eq!(
            src(third, Type::F32),
            Src::Const(u64::from((1.0f32 / 3.0).to_bits()))
        );
        assert_eq!(src(third, Type::F64), Src::Const((1.0f64 / 3.0).to_bits()));
        assert_eq!(src(Special::NTidY.into(), Type::U32), Src::Const(4));
        assert_eq!(src(Special::NCtaIdX.into(), Type::U32), Src::Const(9));
        assert_eq!(
            src(Special::CtaIdX.into(), Type::U32),
            Src::Uniform(Special::CtaIdX)
        );
        assert_eq!(
            src(Special::WarpId.into(), Type::U32),
            Src::Uniform(Special::WarpId)
        );
        assert_eq!(
            src(Special::TidX.into(), Type::U32),
            Src::Lane(Special::TidX)
        );
        assert_eq!(
            src(Special::LaneId.into(), Type::U32),
            Src::Lane(Special::LaneId)
        );
    }
}
