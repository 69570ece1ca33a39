//! A small reusable forward/backward dataflow framework over the PTX CFG.
//!
//! [`gcl_core`]'s reaching-definitions pass hard-codes its own bitset
//! fixpoint; this module factors the shape out so the verifier's liveness
//! pass and the divergence analysis share one engine: a [`Lattice`] of
//! facts, an [`Analysis`] providing boundary facts and a per-instruction
//! transfer function, and a worklist [`solve`] that iterates blocks in
//! (reverse) post-order until the facts stop changing.

use gcl_ptx::{BlockId, Cfg, Instruction, Kernel, Reg};
use std::collections::VecDeque;

/// A join-semilattice of dataflow facts.
pub trait Lattice: Clone {
    /// Join `other` into `self`, returning whether `self` changed.
    fn join_from(&mut self, other: &Self) -> bool;
}

/// Propagation direction of an [`Analysis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along control-flow edges.
    Forward,
    /// Facts flow from the exits against control-flow edges.
    Backward,
}

/// One dataflow analysis: a fact lattice plus its transfer function.
pub trait Analysis {
    /// The fact propagated through the CFG.
    type Fact: Lattice;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// Fact at the boundary: the entry block (forward) or every
    /// exit-terminated block (backward).
    fn boundary(&self) -> Self::Fact;

    /// Initial fact everywhere else (the lattice bottom).
    fn init(&self) -> Self::Fact;

    /// Apply instruction `pc` to `fact`, in the analysis direction (backward
    /// analyses see instructions last-to-first).
    fn transfer(&self, pc: usize, inst: &Instruction, fact: &mut Self::Fact);
}

/// Fixpoint solution: one fact per block edge in the analysis direction.
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Fact entering each block in the analysis direction (at the block
    /// start for forward analyses, at the block end for backward ones).
    pub entry: Vec<F>,
    /// Fact after transferring the whole block.
    pub exit: Vec<F>,
}

impl<F: Lattice> Solution<F> {
    /// The fact *incoming* to every instruction in the analysis direction:
    /// for a forward analysis the fact just before the instruction executes,
    /// for a backward analysis the fact just after it (e.g. liveness:
    /// live-out). Indexed by pc.
    pub fn per_pc<A: Analysis<Fact = F>>(&self, a: &A, kernel: &Kernel, cfg: &Cfg) -> Vec<F> {
        let insts = kernel.insts();
        let mut out: Vec<F> = vec![a.init(); insts.len()];
        for (b, block) in cfg.blocks().iter().enumerate() {
            let mut fact = self.entry[b].clone();
            match a.direction() {
                Direction::Forward => {
                    for pc in block.pcs() {
                        out[pc] = fact.clone();
                        a.transfer(pc, &insts[pc], &mut fact);
                    }
                }
                Direction::Backward => {
                    for pc in block.pcs().rev() {
                        out[pc] = fact.clone();
                        a.transfer(pc, &insts[pc], &mut fact);
                    }
                }
            }
        }
        out
    }
}

/// Run `a` to fixpoint over `cfg` with a block worklist.
pub fn solve<A: Analysis>(a: &A, kernel: &Kernel, cfg: &Cfg) -> Solution<A::Fact> {
    let insts = kernel.insts();
    let nb = cfg.blocks().len();
    let dir = a.direction();

    let mut entry: Vec<A::Fact> = vec![a.init(); nb];
    let mut exit: Vec<A::Fact> = vec![a.init(); nb];
    match dir {
        Direction::Forward => {
            entry[0] = a.boundary();
        }
        Direction::Backward => {
            for (b, block) in cfg.blocks().iter().enumerate() {
                if block.succs.is_empty() {
                    entry[b] = a.boundary();
                }
            }
        }
    }

    // Seed the worklist in an order that minimizes iterations: reverse
    // post-order for forward analyses, its reverse for backward ones.
    let mut queue: VecDeque<BlockId> = cfg.reverse_post_order().into();
    if dir == Direction::Backward {
        queue.make_contiguous().reverse();
    }
    let mut queued = vec![false; nb];
    for &b in &queue {
        queued[b] = true;
    }
    // Unreachable blocks still get processed once so their facts exist.
    for (b, queued) in queued.iter_mut().enumerate() {
        if !*queued {
            *queued = true;
            queue.push_back(b);
        }
    }
    while let Some(b) = queue.pop_front() {
        queued[b] = false;
        let block = &cfg.blocks()[b];
        let mut fact = entry[b].clone();
        match dir {
            Direction::Forward => {
                for pc in block.pcs() {
                    a.transfer(pc, &insts[pc], &mut fact);
                }
            }
            Direction::Backward => {
                for pc in block.pcs().rev() {
                    a.transfer(pc, &insts[pc], &mut fact);
                }
            }
        }
        exit[b] = fact;
        let targets: &[BlockId] = match dir {
            Direction::Forward => &block.succs,
            Direction::Backward => &block.preds,
        };
        for &t in targets {
            if entry[t].join_from(&exit[b]) && !queued[t] {
                queued[t] = true;
                queue.push_back(t);
            }
        }
    }

    Solution { entry, exit }
}

/// A set of registers as a bit vector — the fact used by liveness and
/// divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    bits: Vec<u64>,
}

impl RegSet {
    /// The empty set sized for `num_regs` registers.
    pub fn empty(num_regs: u32) -> RegSet {
        RegSet {
            bits: vec![0; (num_regs as usize).div_ceil(64)],
        }
    }

    /// Membership test.
    pub fn contains(&self, r: Reg) -> bool {
        let i = r.index();
        self.bits
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Insert `r`, growing if needed.
    pub fn insert(&mut self, r: Reg) {
        let i = r.index();
        if i / 64 >= self.bits.len() {
            self.bits.resize(i / 64 + 1, 0);
        }
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Remove `r`.
    pub fn remove(&mut self, r: Reg) {
        let i = r.index();
        if let Some(w) = self.bits.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }
}

impl Lattice for RegSet {
    fn join_from(&mut self, other: &Self) -> bool {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        let mut changed = false;
        for (s, o) in self.bits.iter_mut().zip(other.bits.iter()) {
            let joined = *s | *o;
            if joined != *s {
                *s = joined;
                changed = true;
            }
        }
        changed
    }
}
