//! The kernel verifier: structural lints over one kernel.
//!
//! Checks, in pc order of their anchors:
//!
//! * **use-before-def** — a register read with no reaching definition;
//! * **type-mismatch** — an operand whose reaching definitions produce a
//!   different width class (predicate / 32-bit / 64-bit) than the consuming
//!   instruction expects;
//! * **unreachable** — basic blocks no path from the entry reaches;
//! * **dead-store** / **dead-load** — a register definition whose value no
//!   path ever reads again;
//! * **no-exit** — no `exit` instruction is reachable (the kernel loops
//!   forever by construction; [`gcl_ptx::Kernel`] validation already rules
//!   out falling off the end).

use crate::dataflow::{solve, Analysis, Direction, RegSet};
use crate::diag::{Diagnostic, Severity};
use gcl_core::ReachingDefs;
use gcl_ptx::{AluOp, Cfg, Instruction, Kernel, Op, Reg, Type, UnaryOp};
use std::collections::BTreeSet;
use std::fmt;

/// Width class of a register value, as far as the lints care: predicates
/// never mix with data, and 32-bit values never mix with 64-bit ones.
/// Signedness and float-vs-integer are deliberately not distinguished —
/// `mov.b32`/`mov.b64` legitimately blur them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Pred,
    W32,
    W64,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kind::Pred => write!(f, "pred"),
            Kind::W32 => write!(f, "32-bit"),
            Kind::W64 => write!(f, "64-bit"),
        }
    }
}

fn kind(ty: Type) -> Kind {
    if ty == Type::Pred {
        Kind::Pred
    } else if ty.size_bytes() == 8 {
        Kind::W64
    } else {
        Kind::W32
    }
}

/// The width class an instruction's destination register holds.
fn def_kind(inst: &Instruction) -> Option<Kind> {
    Some(match &inst.op {
        Op::Ld { ty, .. } | Op::Mov { ty, .. } | Op::Sfu { ty, .. } => kind(*ty),
        Op::Cvt { dst_ty, .. } => kind(*dst_ty),
        Op::Unary { op, ty, .. } => match op {
            UnaryOp::Popc | UnaryOp::Clz => Kind::W32,
            _ => kind(*ty),
        },
        Op::Alu { op, ty, .. } => match op {
            AluOp::MulWide => Kind::W64,
            _ => kind(*ty),
        },
        Op::Mad { ty, wide, .. } => {
            if *wide {
                Kind::W64
            } else {
                kind(*ty)
            }
        }
        Op::Setp { .. } => Kind::Pred,
        Op::Selp { ty, .. } => kind(*ty),
        Op::Atom { ty, .. } => kind(*ty),
        Op::St { .. } | Op::Bra { .. } | Op::Bar { .. } | Op::Exit => return None,
    })
}

/// What a use site requires of a register operand.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Exact(Kind),
    /// Address bases may be 32- or 64-bit, but never predicates.
    NotPred,
}

/// Register uses of one instruction with their expected width class.
fn use_expectations(inst: &Instruction) -> Vec<(Reg, Expect)> {
    let mut out = Vec::new();
    if let Some(g) = inst.guard {
        out.push((g.pred, Expect::Exact(Kind::Pred)));
    }
    match &inst.op {
        Op::Ld { addr, .. } => {
            if let Some(b) = addr.base {
                out.push((b, Expect::NotPred));
            }
        }
        Op::St { ty, addr, src, .. } => {
            if let Some(b) = addr.base {
                out.push((b, Expect::NotPred));
            }
            if let Some(r) = src.reg() {
                out.push((r, Expect::Exact(kind(*ty))));
            }
        }
        Op::Mov { ty, src, .. } => {
            if let Some(r) = src.reg() {
                out.push((r, Expect::Exact(kind(*ty))));
            }
        }
        Op::Cvt { src_ty, src, .. } => {
            if let Some(r) = src.reg() {
                out.push((r, Expect::Exact(kind(*src_ty))));
            }
        }
        Op::Unary { ty, a, .. } | Op::Sfu { ty, a, .. } => {
            if let Some(r) = a.reg() {
                out.push((r, Expect::Exact(kind(*ty))));
            }
        }
        Op::Alu { op, ty, a, b, .. } => {
            if let Some(r) = a.reg() {
                out.push((r, Expect::Exact(kind(*ty))));
            }
            if let Some(r) = b.reg() {
                // Shift amounts may be any integer width in PTX.
                let e = match op {
                    AluOp::Shl | AluOp::Shr => Expect::NotPred,
                    _ => Expect::Exact(kind(*ty)),
                };
                out.push((r, e));
            }
        }
        Op::Mad {
            ty, a, b, c, wide, ..
        } => {
            for o in [a, b] {
                if let Some(r) = o.reg() {
                    out.push((r, Expect::Exact(kind(*ty))));
                }
            }
            if let Some(r) = c.reg() {
                // mad.wide accumulates into the widened type.
                let k = if *wide { Kind::W64 } else { kind(*ty) };
                out.push((r, Expect::Exact(k)));
            }
        }
        Op::Setp { ty, a, b, .. } => {
            for o in [a, b] {
                if let Some(r) = o.reg() {
                    out.push((r, Expect::Exact(kind(*ty))));
                }
            }
        }
        Op::Selp { ty, a, b, pred, .. } => {
            for o in [a, b] {
                if let Some(r) = o.reg() {
                    out.push((r, Expect::Exact(kind(*ty))));
                }
            }
            out.push((*pred, Expect::Exact(Kind::Pred)));
        }
        Op::Atom { ty, addr, src, .. } => {
            if let Some(b) = addr.base {
                out.push((b, Expect::NotPred));
            }
            if let Some(r) = src.reg() {
                out.push((r, Expect::Exact(kind(*ty))));
            }
        }
        Op::Bra { .. } | Op::Bar { .. } | Op::Exit => {}
    }
    out
}

/// Backward liveness of registers: a register is live where some later path
/// still reads it.
struct Liveness {
    num_regs: u32,
}

impl Analysis for Liveness {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> RegSet {
        RegSet::empty(self.num_regs)
    }

    fn init(&self) -> RegSet {
        RegSet::empty(self.num_regs)
    }

    fn transfer(&self, _pc: usize, inst: &Instruction, fact: &mut RegSet) {
        if let Some(d) = inst.dst_reg() {
            // A guarded definition may not execute; it cannot kill liveness.
            if inst.guard.is_none() {
                fact.remove(d);
            }
        }
        inst.for_each_src_reg(|r| fact.insert(r));
    }
}

fn diag(
    kernel: &Kernel,
    pc: usize,
    severity: Severity,
    code: &'static str,
    message: String,
) -> Diagnostic {
    Diagnostic {
        pc,
        severity,
        code,
        message,
        inst: kernel.insts()[pc].to_string(),
    }
}

/// Run every verifier lint over `kernel` and return the findings in pc
/// order.
pub fn verify(kernel: &Kernel, cfg: &Cfg) -> Vec<Diagnostic> {
    lints(kernel, cfg, &ReachingDefs::compute(kernel))
}

/// [`verify`] over reaching definitions the caller already has.
pub(crate) fn lints(kernel: &Kernel, cfg: &Cfg, reaching: &ReachingDefs) -> Vec<Diagnostic> {
    let insts = kernel.insts();
    let mut out = Vec::new();

    // Reachability.
    let reachable_blocks: BTreeSet<usize> = cfg.reverse_post_order().into_iter().collect();
    let mut reachable = vec![false; insts.len()];
    for &b in &reachable_blocks {
        for pc in cfg.blocks()[b].pcs() {
            reachable[pc] = true;
        }
    }
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable_blocks.contains(&b) {
            out.push(diag(
                kernel,
                block.start,
                Severity::Warning,
                "unreachable",
                format!(
                    "block at pc {}..{} is unreachable from the entry",
                    block.start,
                    block.end - 1
                ),
            ));
        }
    }

    // A kernel with no reachable `exit` cannot terminate. (Falling off the
    // end is already rejected by `Kernel` validation.)
    let has_exit = insts
        .iter()
        .enumerate()
        .any(|(pc, i)| reachable[pc] && matches!(i.op, Op::Exit));
    if !has_exit {
        out.push(diag(
            kernel,
            0,
            Severity::Error,
            "no-exit",
            "no exit instruction is reachable from the entry (the kernel cannot terminate)"
                .to_string(),
        ));
    }

    // Use-before-def and type/width checks over reaching definitions.
    for (pc, inst) in insts.iter().enumerate() {
        if !reachable[pc] {
            continue;
        }
        let mut seen: BTreeSet<Reg> = BTreeSet::new();
        for (reg, expect) in use_expectations(inst) {
            if !seen.insert(reg) {
                continue;
            }
            let defs = reaching.defs_reaching_use(pc, reg);
            if defs.is_empty() {
                out.push(diag(
                    kernel,
                    pc,
                    Severity::Error,
                    "use-before-def",
                    format!("{reg} is read but no definition reaches this use"),
                ));
                continue;
            }
            for def in defs {
                let Some(dk) = def_kind(&insts[def.pc]) else {
                    continue;
                };
                let bad = match expect {
                    Expect::Exact(k) => dk != k,
                    Expect::NotPred => dk == Kind::Pred,
                };
                if bad {
                    let want = match expect {
                        Expect::Exact(k) => k.to_string(),
                        Expect::NotPred => "an address".to_string(),
                    };
                    out.push(diag(
                        kernel,
                        pc,
                        Severity::Error,
                        "type-mismatch",
                        format!(
                            "{reg} is defined as {dk} at pc {} but used as {want}",
                            def.pc
                        ),
                    ));
                    break;
                }
            }
        }
    }

    // Dead definitions: the value written is never read on any later path.
    let liveness = Liveness {
        num_regs: kernel.num_regs(),
    };
    let live_out = solve(&liveness, kernel, cfg).per_pc(&liveness, kernel, cfg);
    for (pc, inst) in insts.iter().enumerate() {
        if !reachable[pc] {
            continue;
        }
        // Atomics mutate memory; an ignored result is idiomatic.
        if matches!(inst.op, Op::Atom { .. }) {
            continue;
        }
        let Some(d) = inst.dst_reg() else { continue };
        if !live_out[pc].contains(d) {
            let (code, what) = if inst.op.is_load() {
                ("dead-load", "loaded value")
            } else {
                ("dead-store", "value")
            };
            out.push(diag(
                kernel,
                pc,
                Severity::Warning,
                code,
                format!("the {what} written to {d} is never read"),
            ));
        }
    }

    out.sort_by(|a, b| (a.pc, a.code).cmp(&(b.pc, b.code)));
    out
}
