//! Reaching-definitions dataflow over a kernel CFG.
//!
//! This is the flow-sensitive foundation of the load classifier: for every
//! register *use* we need the set of definitions that may reach it, so that
//! a register that first holds a loaded value and is later overwritten with
//! parameter-derived data is not spuriously tainted.

use gcl_ptx::{Cfg, Kernel, Reg};
use std::collections::HashMap;

/// A definition site: the instruction at `pc` writes register `reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefSite {
    /// Instruction index of the definition.
    pub pc: usize,
    /// The register defined.
    pub reg: Reg,
}

/// Reaching-definition sets for one kernel.
///
/// Built once per kernel by [`ReachingDefs::compute`]; queried per use with
/// [`ReachingDefs::defs_reaching_use`].
///
/// Guarded (predicated) instructions are *may*-definitions: they do not kill
/// earlier definitions of the same register, because at runtime the guard
/// may be false for some threads.
#[derive(Debug)]
pub struct ReachingDefs {
    /// All definition sites, indexed by def id.
    defs: Vec<DefSite>,
    /// Def ids per register.
    defs_of_reg: HashMap<Reg, Vec<usize>>,
    /// Bitset (as `Vec<u64>` words) of defs live at entry of each block.
    block_in: Vec<Vec<u64>>,
    /// Block boundaries for per-use resolution.
    cfg: Cfg,
}

fn bit_get(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

impl ReachingDefs {
    /// Run the reaching-definitions analysis for `kernel`.
    pub fn compute(kernel: &Kernel) -> ReachingDefs {
        let cfg = Cfg::build(kernel);
        let insts = kernel.insts();

        // Enumerate definition sites.
        let mut defs = Vec::new();
        let mut defs_of_reg: HashMap<Reg, Vec<usize>> = HashMap::new();
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(reg) = inst.dst_reg() {
                let id = defs.len();
                defs.push(DefSite { pc, reg });
                defs_of_reg.entry(reg).or_default().push(id);
            }
        }
        let nd = defs.len();
        let words = nd.div_ceil(64).max(1);
        let nb = cfg.blocks().len();

        // GEN/KILL per block. A guarded def generates but does not kill.
        let mut gen = vec![vec![0u64; words]; nb];
        let mut kill = vec![vec![0u64; words]; nb];
        let mut def_id_at_pc: HashMap<usize, usize> = HashMap::new();
        for (id, d) in defs.iter().enumerate() {
            def_id_at_pc.insert(d.pc, id);
        }
        for (bid, block) in cfg.blocks().iter().enumerate() {
            for pc in block.pcs() {
                let Some(&id) = def_id_at_pc.get(&pc) else {
                    continue;
                };
                let reg = defs[id].reg;
                let unconditional = insts[pc].guard.is_none();
                if unconditional {
                    // Kill every other def of this register.
                    for &other in &defs_of_reg[&reg] {
                        if other != id {
                            bit_set(&mut kill[bid], other);
                            bit_clear(&mut gen[bid], other);
                        }
                    }
                }
                bit_set(&mut gen[bid], id);
                bit_clear(&mut kill[bid], id);
            }
        }

        // Forward fixpoint: IN = union of preds' OUT; OUT = GEN | (IN & !KILL).
        let mut block_in = vec![vec![0u64; words]; nb];
        let mut block_out = vec![vec![0u64; words]; nb];
        let rpo = cfg.reverse_post_order();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let mut inset = vec![0u64; words];
                for &p in &cfg.blocks()[b].preds {
                    for w in 0..words {
                        inset[w] |= block_out[p][w];
                    }
                }
                let mut outset = vec![0u64; words];
                for w in 0..words {
                    outset[w] = gen[b][w] | (inset[w] & !kill[b][w]);
                }
                if inset != block_in[b] || outset != block_out[b] {
                    block_in[b] = inset;
                    block_out[b] = outset;
                    changed = true;
                }
            }
        }

        ReachingDefs {
            defs,
            defs_of_reg,
            block_in,
            cfg,
        }
    }

    /// All definition sites in the kernel.
    pub fn defs(&self) -> &[DefSite] {
        &self.defs
    }

    /// The control-flow graph the analysis ran over.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Definitions of `reg` that may reach the *use* at instruction `use_pc`.
    ///
    /// Resolution is flow-sensitive within the block: an unguarded
    /// definition of `reg` earlier in the same block kills everything that
    /// reached the block entry.
    pub fn defs_reaching_use(&self, kernel: &Kernel, use_pc: usize, reg: Reg) -> Vec<DefSite> {
        let Some(ids) = self.defs_of_reg.get(&reg) else {
            return Vec::new();
        };
        let bid = self.cfg.block_of(use_pc);
        let block = &self.cfg.blocks()[bid];
        let insts = kernel.insts();

        // Walk the block up to (not including) use_pc, tracking the live set
        // of this register's defs.
        let mut live: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| bit_get(&self.block_in[bid], id))
            .collect();
        for (pc, inst) in insts.iter().enumerate().take(use_pc).skip(block.start) {
            if inst.dst_reg() == Some(reg) {
                let id = ids
                    .iter()
                    .copied()
                    .find(|&id| self.defs[id].pc == pc)
                    .unwrap();
                if inst.guard.is_none() {
                    live.clear();
                }
                if !live.contains(&id) {
                    live.push(id);
                }
            }
        }
        live.sort_unstable();
        live.into_iter().map(|id| self.defs[id]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{CmpOp, KernelBuilder, Special, Type};

    #[test]
    fn straight_line_latest_def_wins() {
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 1i64.into(),
        }); // pc 0
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 2i64.into(),
        }); // pc 1
        b.st_global(Type::U32, r, r); // pc 2 uses r
        b.exit();
        let k = b.build().unwrap();
        let rd = ReachingDefs::compute(&k);
        let reaching = rd.defs_reaching_use(&k, 2, r);
        assert_eq!(reaching, vec![DefSite { pc: 1, reg: r }]);
    }

    #[test]
    fn guarded_def_does_not_kill() {
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 1i64.into(),
        }); // pc 0
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64); // pc 1
        b.guard_next(p, false);
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 2i64.into(),
        }); // pc 2, guarded
        b.st_global(Type::U32, r, r); // pc 3
        b.exit();
        let k = b.build().unwrap();
        let rd = ReachingDefs::compute(&k);
        let reaching = rd.defs_reaching_use(&k, 3, r);
        let pcs: Vec<usize> = reaching.iter().map(|d| d.pc).collect();
        assert_eq!(pcs, vec![0, 2]);
    }

    #[test]
    fn defs_merge_across_branches() {
        // if tid==0 { r = 1 } else { r = 2 }; use r
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64); // pc 0
        let else_l = b.new_label();
        let merge = b.new_label();
        b.bra_unless(p, else_l); // pc 1
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 1i64.into(),
        }); // pc 2
        b.bra(merge); // pc 3
        b.place(else_l);
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 2i64.into(),
        }); // pc 4
        b.place(merge);
        b.st_global(Type::U32, r, r); // pc 5
        b.exit();
        let k = b.build().unwrap();
        let rd = ReachingDefs::compute(&k);
        let pcs: Vec<usize> = rd
            .defs_reaching_use(&k, 5, r)
            .iter()
            .map(|d| d.pc)
            .collect();
        assert_eq!(pcs, vec![2, 4]);
    }

    #[test]
    fn loop_carried_defs_reach_loop_head() {
        // r = 0; L: r = r + 1; if (r < 10) goto L
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 0i64.into(),
        }); // pc 0
        let head = b.new_label();
        b.place(head);
        b.push(gcl_ptx::Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: r,
            a: r.into(),
            b: 1i64.into(),
        }); // pc 1, uses r
        let p = b.setp(CmpOp::Lt, Type::U32, r, 10i64); // pc 2
        b.bra_if(p, head); // pc 3
        b.exit();
        let k = b.build().unwrap();
        let rd = ReachingDefs::compute(&k);
        // The use of r inside the loop (pc 1) sees both the init (pc 0) and
        // the loop-carried def (pc 1 itself).
        let pcs: Vec<usize> = rd
            .defs_reaching_use(&k, 1, r)
            .iter()
            .map(|d| d.pc)
            .collect();
        assert_eq!(pcs, vec![0, 1]);
    }

    #[test]
    fn unwritten_register_has_no_defs() {
        let mut b = KernelBuilder::new("k");
        let ghost = b.reg();
        b.st_global(Type::U32, ghost, 0i64); // pc 0 uses unwritten reg
        b.exit();
        let k = b.build().unwrap();
        let rd = ReachingDefs::compute(&k);
        assert!(rd.defs_reaching_use(&k, 0, ghost).is_empty());
    }

    #[test]
    fn use_in_same_instruction_as_def_sees_prior_defs() {
        // r = 5; r = r + 1 — the use of r in pc 1 must see pc 0, not pc 1.
        let mut b = KernelBuilder::new("k");
        let r = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: 5i64.into(),
        }); // pc 0
        b.push(gcl_ptx::Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: r,
            a: r.into(),
            b: 1i64.into(),
        }); // pc 1
        b.exit();
        let k = b.build().unwrap();
        let rd = ReachingDefs::compute(&k);
        let pcs: Vec<usize> = rd
            .defs_reaching_use(&k, 1, r)
            .iter()
            .map(|d| d.pc)
            .collect();
        assert_eq!(pcs, vec![0]);
    }
}
