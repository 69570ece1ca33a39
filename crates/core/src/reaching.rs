//! Reaching-definitions dataflow over a kernel CFG, and the use-def table
//! it yields.
//!
//! This is the flow-sensitive foundation of the load classifier: for every
//! register *use* we need the set of definitions that may reach it, so that
//! a register that first holds a loaded value and is later overwritten with
//! parameter-derived data is not spuriously tainted. The fixpoint runs once
//! per kernel, then one forward pass per block resolves every use into a
//! flat table; every pass reads that table instead of walking blocks again.

use gcl_ptx::{Cfg, Kernel, Reg};

/// A definition site: the instruction at `pc` writes register `reg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefSite {
    /// Instruction index of the definition.
    pub pc: usize,
    /// The register defined.
    pub reg: Reg,
}

/// One register one instruction reads, and the range of
/// [`ReachingDefs::use_defs`] holding the definitions that reach it.
#[derive(Debug, Clone, Copy)]
struct Use {
    reg: Reg,
    start: u32,
    end: u32,
}

/// Reaching-definition sets for one kernel, resolved per use.
///
/// Built once per kernel by [`ReachingDefs::compute`]; queried per use with
/// [`ReachingDefs::defs_reaching_use`], which reads a precomputed table.
///
/// Guarded (predicated) instructions are *may*-definitions: they do not kill
/// earlier definitions of the same register, because at runtime the guard
/// may be false for some threads.
#[derive(Debug)]
pub struct ReachingDefs {
    /// All definition sites, indexed by def id. Ids follow pc order.
    defs: Vec<DefSite>,
    /// The def id of the instruction at each pc, if it writes a register.
    def_id_at_pc: Vec<Option<usize>>,
    /// `uses[use_start[pc]..use_start[pc + 1]]` are the registers the
    /// instruction at `pc` reads: its sources, then its guard, each once.
    use_start: Vec<u32>,
    uses: Vec<Use>,
    /// The definitions reaching each use, in def-id order.
    use_defs: Vec<DefSite>,
    /// Bitset rows of the defs live at each block's entry, for the test
    /// oracle's block walk.
    #[cfg(test)]
    block_in: Vec<u64>,
    /// Block boundaries the analysis ran over.
    cfg: Cfg,
}

fn bit_set(words: &mut [u64], i: usize) {
    words[i / 64] |= 1 << (i % 64);
}

fn bit_clear(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1 << (i % 64));
}

/// Insert `id` into the sorted list `ids` unless it is already there.
fn insert_sorted(ids: &mut Vec<usize>, id: usize) {
    if let Err(at) = ids.binary_search(&id) {
        ids.insert(at, id);
    }
}

impl ReachingDefs {
    /// Run the reaching-definitions analysis for `kernel` and resolve every
    /// register use.
    pub fn compute(kernel: &Kernel) -> ReachingDefs {
        let cfg = Cfg::build(kernel);
        let insts = kernel.insts();

        // Enumerate definition sites.
        let mut defs = Vec::new();
        let mut defs_of_reg: Vec<Vec<usize>> = vec![Vec::new(); kernel.num_regs() as usize];
        let mut def_id_at_pc = vec![None; insts.len()];
        for (pc, inst) in insts.iter().enumerate() {
            if let Some(reg) = inst.dst_reg() {
                def_id_at_pc[pc] = Some(defs.len());
                defs_of_reg[reg.index()].push(defs.len());
                defs.push(DefSite { pc, reg });
            }
        }
        let words = defs.len().div_ceil(64).max(1);
        let nb = cfg.blocks().len();
        let row = |b: usize| b * words..(b + 1) * words;

        // GEN/KILL per block. A guarded def generates but does not kill.
        let mut gen = vec![0u64; nb * words];
        let mut kill = vec![0u64; nb * words];
        for (b, block) in cfg.blocks().iter().enumerate() {
            let (gen, kill) = (&mut gen[row(b)], &mut kill[row(b)]);
            for pc in block.pcs() {
                let Some(id) = def_id_at_pc[pc] else {
                    continue;
                };
                if insts[pc].guard.is_none() {
                    // Kill every other def of this register.
                    for &other in &defs_of_reg[defs[id].reg.index()] {
                        bit_set(kill, other);
                        bit_clear(gen, other);
                    }
                }
                bit_set(gen, id);
                bit_clear(kill, id);
            }
        }

        // Forward fixpoint: IN = union of preds' OUT; OUT = GEN | (IN & !KILL).
        let mut block_in = vec![0u64; nb * words];
        let mut block_out = vec![0u64; nb * words];
        let mut inset = vec![0u64; words];
        let rpo = cfg.reverse_post_order();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                inset.fill(0);
                for &p in &cfg.blocks()[b].preds {
                    for (i, o) in inset.iter_mut().zip(&block_out[row(p)]) {
                        *i |= o;
                    }
                }
                if block_in[row(b)] != inset[..] {
                    block_in[row(b)].copy_from_slice(&inset);
                    changed = true;
                }
                for (w, &i) in inset.iter().enumerate() {
                    let o = gen[b * words + w] | (i & !kill[b * words + w]);
                    if block_out[b * words + w] != o {
                        block_out[b * words + w] = o;
                        changed = true;
                    }
                }
            }
        }

        // Resolve every use: one forward pass per block from its IN set,
        // tracking per register number the sorted def ids live so far.
        let mut use_start = Vec::with_capacity(insts.len() + 1);
        let mut uses = Vec::new();
        let mut use_defs = Vec::new();
        let mut live: Vec<Vec<usize>> = vec![Vec::new(); defs_of_reg.len()];
        for (b, block) in cfg.blocks().iter().enumerate() {
            live.iter_mut().for_each(Vec::clear);
            for (w, &bits) in block_in[row(b)].iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let id = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    live[defs[id].reg.index()].push(id);
                }
            }
            for pc in block.pcs() {
                let inst = &insts[pc];
                let first = uses.len();
                use_start.push(first as u32);
                inst.for_each_src_reg(|reg| {
                    if uses[first..].iter().any(|u: &Use| u.reg == reg) {
                        return;
                    }
                    let start = use_defs.len() as u32;
                    use_defs.extend(live[reg.index()].iter().map(|&id| defs[id]));
                    uses.push(Use {
                        reg,
                        start,
                        end: use_defs.len() as u32,
                    });
                });
                if let Some(id) = def_id_at_pc[pc] {
                    let ids = &mut live[defs[id].reg.index()];
                    if inst.guard.is_none() {
                        ids.clear();
                    }
                    insert_sorted(ids, id);
                }
            }
        }
        use_start.push(uses.len() as u32);

        ReachingDefs {
            defs,
            def_id_at_pc,
            use_start,
            uses,
            use_defs,
            #[cfg(test)]
            block_in,
            cfg,
        }
    }

    /// All definition sites in the kernel, indexed by def id.
    pub fn defs(&self) -> &[DefSite] {
        &self.defs
    }

    /// The def id of the instruction at `pc`, if it writes a register.
    pub fn def_id_at_pc(&self, pc: usize) -> Option<usize> {
        self.def_id_at_pc[pc]
    }

    /// The control-flow graph the analysis ran over.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Every register the instruction at `pc` reads — its sources, then its
    /// guard, each once — with the definitions that reach that read.
    pub fn reads(&self, pc: usize) -> impl Iterator<Item = (Reg, &[DefSite])> + '_ {
        let span = self.use_start[pc] as usize..self.use_start[pc + 1] as usize;
        self.uses[span]
            .iter()
            .map(|u| (u.reg, &self.use_defs[u.start as usize..u.end as usize]))
    }

    /// Definitions of `reg` that may reach its read at instruction `use_pc`,
    /// in def-id (so pc) order.
    ///
    /// Resolution is flow-sensitive within the block: an unguarded
    /// definition of `reg` earlier in the same block kills everything that
    /// reached the block entry. Asking about a register the instruction
    /// does not read is a caller bug (a debug assertion; release builds
    /// answer with no definitions).
    pub fn defs_reaching_use(&self, use_pc: usize, reg: Reg) -> &[DefSite] {
        match self.reads(use_pc).find(|&(r, _)| r == reg) {
            Some((_, defs)) => defs,
            None => {
                debug_assert!(false, "pc {use_pc} does not read {reg}");
                &[]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{CmpOp, KernelBuilder, Special, Type};

    fn bit_get(words: &[u64], i: usize) -> bool {
        words[i / 64] >> (i % 64) & 1 == 1
    }

    impl ReachingDefs {
        /// The per-use block walk the table replaced, kept as its oracle:
        /// start from the block's IN set and replay the block's defs of
        /// `reg` up to (not including) `use_pc`.
        fn walk_reaching_use(&self, kernel: &Kernel, use_pc: usize, reg: Reg) -> Vec<DefSite> {
            let ids: Vec<usize> = (0..self.defs.len())
                .filter(|&id| self.defs[id].reg == reg)
                .collect();
            let words = self.defs.len().div_ceil(64).max(1);
            let bid = self.cfg.block_of(use_pc);
            let block = &self.cfg.blocks()[bid];
            let block_in = &self.block_in[bid * words..(bid + 1) * words];
            let mut live: Vec<usize> = ids
                .iter()
                .copied()
                .filter(|&id| bit_get(block_in, id))
                .collect();
            for (pc, inst) in kernel
                .insts()
                .iter()
                .enumerate()
                .take(use_pc)
                .skip(block.start)
            {
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

    /// The table equals the block walk at every (pc, read register), and
    /// lists exactly the registers each instruction reads.
    pub(crate) fn assert_table_matches_walk(kernel: &Kernel) {
        let rd = ReachingDefs::compute(kernel);
        for (pc, inst) in kernel.insts().iter().enumerate() {
            let mut want = inst.src_regs();
            let mut seen = Vec::new();
            want.retain(|r| {
                let first = !seen.contains(r);
                seen.push(*r);
                first
            });
            let got: Vec<Reg> = rd.reads(pc).map(|(r, _)| r).collect();
            assert_eq!(got, want, "{}: registers read at pc {pc}", kernel.name());
            for reg in want {
                assert_eq!(
                    rd.defs_reaching_use(pc, reg),
                    rd.walk_reaching_use(kernel, pc, reg),
                    "{}: defs reaching {reg} at pc {pc}",
                    kernel.name()
                );
            }
        }
    }

    #[test]
    fn table_matches_the_block_walk_on_every_test_kernel() {
        let kernels = crate::test_kernels::all();
        assert!(kernels.len() > 25 + 12 + 24, "{} kernels", kernels.len());
        for k in &kernels {
            assert_table_matches_walk(k);
        }
    }

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
        let reaching = rd.defs_reaching_use(2, r);
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
        let reaching = rd.defs_reaching_use(3, r);
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
        let pcs: Vec<usize> = rd.defs_reaching_use(5, r).iter().map(|d| d.pc).collect();
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
        let pcs: Vec<usize> = rd.defs_reaching_use(1, r).iter().map(|d| d.pc).collect();
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
        assert!(rd.defs_reaching_use(0, ghost).is_empty());
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
        let pcs: Vec<usize> = rd.defs_reaching_use(1, r).iter().map(|d| d.pc).collect();
        assert_eq!(pcs, vec![0]);
    }
}
