//! Divergence (uniformity) analysis.
//!
//! Propagates *tid-dependence* forward through registers and predicates:
//! a register is **divergent** when threads of the same warp may hold
//! different values in it. Sources of divergence are the per-thread special
//! registers (`%tid.*`, `%laneid`), atomic return values, and — via control
//! dependence — any definition executed under a divergent branch.
//!
//! The hazard this exists to catch is the divergent barrier: a `bar.sync`
//! reachable only by some threads of a warp. In the simulator that
//! manifests dynamically as a watchdog hang; here it is flagged statically
//! as a `divergent-barrier` error. Each branch is also annotated
//! uniform/divergent, which feeds the affine coalescing predictor and the
//! report.
//!
//! The control-dependence region of a branch is everything between it and
//! its reconvergence point ([`Cfg::reconvergence_pcs`], the immediate
//! post-dominator). Divergent-branch discovery and region tainting feed
//! each other, so the analysis runs an outer fixpoint: solve uniformity,
//! taint regions of divergent branches, re-solve until stable. Both sets
//! grow monotonically, so this terminates.

use crate::dataflow::{solve, Analysis, Direction, RegSet};
use crate::diag::{Diagnostic, Severity};
use gcl_ptx::{Cfg, Instruction, Kernel, Op, Operand, Special, RECONV_EXIT};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Whether one branch is warp-uniform or may split the warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchDivergence {
    /// Instruction index of the guarded branch.
    pub pc: usize,
    /// True when threads of one warp may disagree on the branch condition.
    pub divergent: bool,
}

/// Result of the divergence analysis over one kernel.
#[derive(Debug, Clone)]
pub struct DivergenceInfo {
    /// Every conditional branch, annotated uniform/divergent, in pc order.
    pub branches: Vec<BranchDivergence>,
    /// Instruction indices control-dependent on some divergent branch.
    pub divergent_pcs: BTreeSet<usize>,
    /// Divergent-barrier findings.
    pub diagnostics: Vec<Diagnostic>,
}

/// Whether reading `s` can differ between threads of one warp.
fn special_divergent(s: Special) -> bool {
    matches!(
        s,
        // tid.y/tid.z differ within a warp whenever the CTA x-extent is not
        // a multiple of the warp width, so they are conservatively divergent.
        Special::TidX | Special::TidY | Special::TidZ | Special::LaneId
    )
}

/// Forward taint analysis: the fact is the set of divergent registers.
struct Uniformity<'a> {
    num_regs: u32,
    /// Pcs control-dependent on a divergent branch (this round).
    tainted: &'a BTreeSet<usize>,
}

impl Analysis for Uniformity<'_> {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> RegSet {
        // Kernel parameters and launch geometry are warp-uniform; every
        // register starts out uniform until proven otherwise.
        RegSet::empty(self.num_regs)
    }

    fn init(&self) -> RegSet {
        RegSet::empty(self.num_regs)
    }

    fn transfer(&self, pc: usize, inst: &Instruction, fact: &mut RegSet) {
        let Some(dst) = inst.dst_reg() else { return };
        // Atomics return the pre-op memory value, which differs per lane.
        let mut data_div =
            matches!(inst.op, Op::Atom { .. }) || inst.guard.is_some_and(|g| fact.contains(g.pred));
        inst.op.for_each_operand(|o| {
            data_div |= match o {
                Operand::Reg(r) => fact.contains(r),
                Operand::Special(s) => special_divergent(s),
                Operand::Imm(_) | Operand::FImm(_) => false,
            }
        });
        if data_div || self.tainted.contains(&pc) {
            fact.insert(dst);
        } else if inst.guard.is_none() {
            fact.remove(dst);
        }
        // A guarded uniform def may not execute: the old value survives, so
        // the register stays in whatever state it was.
    }
}

/// All pcs strictly between `branch_pc` and its reconvergence point,
/// walking forward over blocks.
fn region_pcs(cfg: &Cfg, branch_pc: usize, reconv_pc: usize) -> Vec<usize> {
    let start = cfg.block_of(branch_pc);
    let stop = if reconv_pc == RECONV_EXIT {
        None
    } else {
        Some(cfg.block_of(reconv_pc))
    };
    let mut seen = vec![false; cfg.blocks().len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in &cfg.blocks()[start].succs {
        if Some(s) != stop && !seen[s] {
            seen[s] = true;
            queue.push_back(s);
        }
    }
    let mut out = Vec::new();
    while let Some(b) = queue.pop_front() {
        out.extend(cfg.blocks()[b].pcs());
        for &s in &cfg.blocks()[b].succs {
            if Some(s) != stop && !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
    }
    out
}

/// Run the divergence analysis over `kernel`.
pub fn divergence(kernel: &Kernel, cfg: &Cfg) -> DivergenceInfo {
    let insts = kernel.insts();
    let reconv = cfg.reconvergence_pcs(kernel);

    let mut tainted: BTreeSet<usize> = BTreeSet::new();
    // Region pc -> the divergent branch that tainted it (for messages).
    let mut witness: BTreeMap<usize, usize> = BTreeMap::new();
    let mut facts;
    loop {
        let analysis = Uniformity {
            num_regs: kernel.num_regs(),
            tainted: &tainted,
        };
        let sol = solve(&analysis, kernel, cfg);
        facts = sol.per_pc(&analysis, kernel, cfg);

        let mut grew = false;
        for (pc, inst) in insts.iter().enumerate() {
            if !matches!(inst.op, Op::Bra { .. }) {
                continue;
            }
            let Some(g) = inst.guard else { continue };
            let div = facts[pc].contains(g.pred) || tainted.contains(&pc);
            if !div {
                continue;
            }
            let reconv_pc = reconv.get(&pc).copied().unwrap_or(RECONV_EXIT);
            for p in region_pcs(cfg, pc, reconv_pc) {
                if tainted.insert(p) {
                    witness.insert(p, pc);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    let mut branches = Vec::new();
    let mut diagnostics = Vec::new();
    for (pc, inst) in insts.iter().enumerate() {
        if let Op::Bra { .. } = inst.op {
            if let Some(g) = inst.guard {
                branches.push(BranchDivergence {
                    pc,
                    divergent: facts[pc].contains(g.pred) || tainted.contains(&pc),
                });
            }
        }
        if let Op::Bar { id } = inst.op {
            let guard_div = inst.guard.is_some_and(|g| facts[pc].contains(g.pred));
            if tainted.contains(&pc) || guard_div {
                let why = match witness.get(&pc) {
                    Some(b) => format!("divergent branch at pc {b}"),
                    None => "divergent guard predicate".to_string(),
                };
                diagnostics.push(Diagnostic {
                    pc,
                    severity: Severity::Error,
                    code: "divergent-barrier",
                    message: format!(
                        "bar.sync {id} may execute under divergent control flow ({why}); \
                         warps that split here deadlock"
                    ),
                    inst: insts[pc].to_string(),
                });
            }
        }
    }

    DivergenceInfo {
        branches,
        divergent_pcs: tainted,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{CmpOp, KernelBuilder, Type};

    #[test]
    fn uniform_branch_stays_uniform() {
        // if (param > 0) { ... }  — condition depends only on a parameter.
        let mut b = KernelBuilder::new("k");
        let p = b.param("n", Type::U32);
        let n = b.ld_param(Type::U32, p);
        let pr = b.setp(CmpOp::Gt, Type::U32, n, 0i64);
        let l = b.new_label();
        b.bra_if(pr, l);
        b.bar();
        b.place(l);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let info = divergence(&k, &cfg);
        assert_eq!(info.branches.len(), 1);
        assert!(!info.branches[0].divergent);
        assert!(info.diagnostics.is_empty());
    }

    #[test]
    fn tid_branch_is_divergent_and_bar_flagged() {
        // if (tid.x > 0) { bar.sync 0; }
        let mut b = KernelBuilder::new("k");
        let t = b.sreg(Special::TidX);
        let pr = b.setp(CmpOp::Gt, Type::U32, t, 0i64);
        let l = b.new_label();
        b.bra_unless(pr, l);
        b.bar();
        b.place(l);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let info = divergence(&k, &cfg);
        assert_eq!(info.branches.len(), 1);
        assert!(info.branches[0].divergent);
        assert_eq!(info.diagnostics.len(), 1);
        assert_eq!(info.diagnostics[0].code, "divergent-barrier");
    }

    #[test]
    fn bar_after_reconvergence_is_clean() {
        // if (tid.x > 0) { nop-ish } bar.sync 0;  — barrier after reconv.
        let mut b = KernelBuilder::new("k");
        let t = b.sreg(Special::TidX);
        let pr = b.setp(CmpOp::Gt, Type::U32, t, 0i64);
        let l = b.new_label();
        b.bra_unless(pr, l);
        let one = b.mov(Type::U32, 1i64);
        let _ = b.add(Type::U32, one, one);
        b.place(l);
        b.bar();
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let info = divergence(&k, &cfg);
        assert!(info.diagnostics.is_empty(), "{:?}", info.diagnostics);
        // The defs inside the divergent region are still tainted.
        assert!(info.divergent_pcs.contains(&3));
    }
}
