//! The random dependence-chain kernels of `proptest_classify.rs`, shared
//! with `gcl-core`'s unit tests, which hold the use-def table and the
//! classifier's source sets to their oracles on the same kernels.

use gcl_ptx::{Address, AluOp, CmpOp, Guard, Instruction, Kernel, Op, Operand, Reg, Space, Type};
use gcl_rng::Rng;

/// A random arithmetic chain: each step combines two earlier registers (or
/// launch-invariant sources). Register 0 starts as a parameter value;
/// whether register 1 starts from a load is the controlled taint source.
#[derive(Debug, Clone)]
pub struct Chain {
    pub taint_origin: bool,
    /// (lhs, rhs) choices per step, as indices into prior registers.
    pub steps: Vec<(u8, u8)>,
    /// `(from, into)` picks for one back edge around `steps[from..]`: the
    /// loop's last ALU instruction copies the last chain register into a
    /// register defined before the loop, which the loop's steps may read,
    /// so taint can travel around the cycle.
    pub back_edge: Option<(u8, u8)>,
    /// Per step, an optional pick of an earlier register that a guarded
    /// `@%pg mov` then copies into the step's destination: a may-def, so
    /// later reads see both definitions.
    pub overwrites: Vec<Option<u8>>,
    /// Register picks for extra global loads whose values nothing reads:
    /// even ones sit inside the loop (when there is one), odd ones after
    /// it, so one load's trace can meet a cycle another load's trace
    /// entered first.
    pub probes: Vec<u8>,
}

/// The predicate guarding every overwrite, above every chain register.
const GUARD: Reg = Reg(255);

pub fn chain(r: &mut Rng) -> Chain {
    let taint_origin = r.chance(0.5);
    let nsteps = 1 + r.usize_below(11);
    let steps = (0..nsteps)
        .map(|_| (r.u32_below(256) as u8, r.u32_below(256) as u8))
        .collect();
    let back_edge = r
        .chance(0.5)
        .then(|| (r.u32_below(256) as u8, r.u32_below(256) as u8));
    let overwrites = (0..nsteps)
        .map(|_| r.chance(0.25).then(|| r.u32_below(256) as u8))
        .collect();
    let probes = (0..r.usize_below(4))
        .map(|_| r.u32_below(256) as u8)
        .collect();
    Chain {
        taint_origin,
        steps,
        back_edge,
        overwrites,
        probes,
    }
}

/// The loop of a chain with a back edge: `(first looped step, register
/// the loop copies the last chain register into)`.
fn loop_of(c: &Chain) -> Option<(usize, Reg)> {
    let (from, into) = c.back_edge?;
    let from = usize::from(from) % c.steps.len();
    // Any register defined before the loop but the base pointer.
    let into = Reg(1 + u32::from(into) % (1 + from as u32));
    Some((from, into))
}

/// Exact taint of every chain register (index = register number) as the
/// loop's fixpoint: a read of the copied-into register inside the loop
/// sees both its definition before the loop and the loop-carried copy.
fn taints(c: &Chain) -> Vec<bool> {
    let lp = loop_of(c);
    let mut carried = false;
    loop {
        let mut tainted = vec![false, c.taint_origin];
        for (i, &(a_pick, b_pick)) in c.steps.iter().enumerate() {
            let next = 2 + i as u32;
            let read = |r: u32| {
                tainted[r as usize]
                    || matches!(lp, Some((from, into)) if carried && i >= from && into.0 == r)
            };
            let mut t = read(u32::from(a_pick) % next) || read(u32::from(b_pick) % next);
            if let Some(c_pick) = c.overwrites[i] {
                t |= read(u32::from(c_pick) % next);
            }
            tainted.push(t);
        }
        let last = *tainted.last().unwrap();
        if lp.is_none() || carried == last {
            return tainted;
        }
        carried = last;
    }
}

/// Build the kernel for a chain. Returns (kernel, final load pc, whether the
/// final load's address is tainted).
pub fn build(c: &Chain) -> (Kernel, usize, bool) {
    let mut insts: Vec<Instruction> = Vec::new();
    let base = Reg(0); // pointer parameter
    insts.push(Instruction::new(Op::Ld {
        space: Space::Param,
        ty: Type::U64,
        dst: base,
        addr: Address::abs(0),
    }));
    // r1: the controlled origin — parameter-derived or load-derived.
    let origin = Reg(1);
    if c.taint_origin {
        insts.push(Instruction::new(Op::Ld {
            space: Space::Global,
            ty: Type::U32,
            dst: origin,
            addr: Address::reg(base),
        }));
    } else {
        insts.push(Instruction::new(Op::Mov {
            ty: Type::U32,
            dst: origin,
            src: Operand::Special(gcl_ptx::Special::TidX),
        }));
    }
    insts.push(Instruction::new(Op::Setp {
        cmp: CmpOp::Ne,
        ty: Type::U32,
        dst: GUARD,
        a: Operand::Reg(origin),
        b: Operand::Imm(0),
    }));
    let lp = loop_of(c);
    // Arithmetic chain over registers 2..: each step picks two earlier regs.
    let mut next = 2u32;
    let mut head = None;
    for (i, &(a_pick, b_pick)) in c.steps.iter().enumerate() {
        if matches!(lp, Some((from, _)) if from == i) {
            head = Some(insts.len());
        }
        let a = Reg(u32::from(a_pick) % next);
        let b = Reg(u32::from(b_pick) % next);
        insts.push(Instruction::new(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: Reg(next),
            a: Operand::Reg(a),
            b: Operand::Reg(b),
        }));
        if let Some(c_pick) = c.overwrites[i] {
            insts.push(Instruction::guarded(
                Guard {
                    pred: GUARD,
                    negate: false,
                },
                Op::Mov {
                    ty: Type::U32,
                    dst: Reg(next),
                    src: Operand::Reg(Reg(u32::from(c_pick) % next)),
                },
            ));
        }
        next += 1;
    }
    let last = Reg(next - 1);
    let chain_regs = next;
    let probe = |insts: &mut Vec<Instruction>, k: usize| {
        insts.push(Instruction::new(Op::Ld {
            space: Space::Global,
            ty: Type::U32,
            dst: Reg(200 + k as u32),
            addr: Address::reg(Reg(u32::from(c.probes[k]) % chain_regs)),
        }));
    };
    let in_loop = |k: usize| lp.is_some() && k.is_multiple_of(2);
    for k in (0..c.probes.len()).filter(|&k| in_loop(k)) {
        probe(&mut insts, k);
    }
    if let (Some((_, into)), Some(head)) = (lp, head) {
        // into = last; @p bra head (while last < 1000)
        insts.push(Instruction::new(Op::Mov {
            ty: Type::U32,
            dst: into,
            src: Operand::Reg(last),
        }));
        let p = Reg(next);
        next += 1;
        insts.push(Instruction::new(Op::Setp {
            cmp: CmpOp::Lt,
            ty: Type::U32,
            dst: p,
            a: Operand::Reg(last),
            b: Operand::Imm(1000),
        }));
        insts.push(Instruction::guarded(
            Guard {
                pred: p,
                negate: false,
            },
            Op::Bra { target: head },
        ));
    }
    for k in (0..c.probes.len()).filter(|&k| !in_loop(k)) {
        probe(&mut insts, k);
    }
    // Final: a load whose address mixes the base pointer and the last chain
    // register.
    let addr_reg = Reg(next);
    insts.push(Instruction::new(Op::Alu {
        op: AluOp::Add,
        ty: Type::U64,
        dst: addr_reg,
        a: Operand::Reg(base),
        b: Operand::Reg(last),
    }));
    let load_pc = insts.len();
    insts.push(Instruction::new(Op::Ld {
        space: Space::Global,
        ty: Type::U32,
        dst: Reg(next + 1),
        addr: Address::reg(addr_reg),
    }));
    insts.push(Instruction::new(Op::Exit));
    let expect_taint = *taints(c).last().unwrap();
    let kernel = Kernel::new(
        "chain",
        vec![gcl_ptx::ParamDecl::new("p", Type::U64)],
        0,
        insts,
    )
    .unwrap();
    (kernel, load_pc, expect_taint)
}
