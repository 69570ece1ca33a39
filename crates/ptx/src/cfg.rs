//! Control-flow graph construction and dominance.
//!
//! The simulator uses immediate post-dominators as SIMT reconvergence points
//! (the standard "ipdom stack" scheme); the classifier uses the CFG for
//! reaching-definitions dataflow; the loop forest and the footprint
//! analysis use dominators. Both dominator trees come from one
//! Cooper–Harvey–Kennedy routine over one depth-first post-order, run
//! forward from the entry or backward from a virtual exit.

use crate::{Kernel, Op};
use std::collections::HashMap;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// Sentinel "reconverge at thread exit" program counter.
///
/// Returned by [`Cfg::reconvergence_pcs`] for branches whose immediate
/// post-dominator is the virtual exit node.
pub const RECONV_EXIT: usize = usize::MAX;

/// A basic block: a maximal straight-line instruction range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// First instruction index (inclusive).
    pub start: usize,
    /// One past the last instruction index (exclusive).
    pub end: usize,
    /// Successor blocks.
    pub succs: Vec<BlockId>,
    /// Predecessor blocks.
    pub preds: Vec<BlockId>,
}

impl BasicBlock {
    /// Index of the block's terminator instruction.
    pub fn terminator_pc(&self) -> usize {
        self.end - 1
    }

    /// Iterate over the instruction indices in this block.
    pub fn pcs(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

/// Control-flow graph of one kernel.
///
/// # Examples
///
/// ```
/// use gcl_ptx::{Cfg, CmpOp, KernelBuilder, Type};
///
/// let mut b = KernelBuilder::new("diamond");
/// let p = b.setp(CmpOp::Eq, Type::U32, gcl_ptx::Special::TidX, 0i64);
/// let merge = b.new_label();
/// b.bra_if(p, merge);
/// b.imm32(1);
/// b.place(merge);
/// b.exit();
/// let k = b.build()?;
/// let cfg = Cfg::build(&k);
/// assert!(cfg.blocks().len() >= 2);
/// # Ok::<(), gcl_ptx::ValidateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<BasicBlock>,
    block_of_pc: Vec<BlockId>,
}

impl Cfg {
    /// Build the CFG of `kernel`.
    ///
    /// Blocks are created in program order; block 0 is the entry. A guarded
    /// branch ends its block with two successors (target, fall-through); an
    /// unguarded branch or `exit` ends it with one or zero. Guarded `exit`
    /// and other guarded non-branch instructions are treated as straight-line
    /// predication and do not end blocks.
    pub fn build(kernel: &Kernel) -> Cfg {
        let insts = kernel.insts();
        let n = insts.len();

        // Mark leaders.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, inst) in insts.iter().enumerate() {
            match inst.op {
                Op::Bra { target } => {
                    leader[target] = true;
                    if pc + 1 < n {
                        leader[pc + 1] = true;
                    }
                }
                Op::Exit if inst.guard.is_none() && pc + 1 < n => {
                    leader[pc + 1] = true;
                }
                _ => {}
            }
        }

        // Carve blocks.
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut block_of_pc = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &lead) in leader.iter().enumerate() {
            if pc > start && lead {
                blocks.push(BasicBlock {
                    start,
                    end: pc,
                    succs: vec![],
                    preds: vec![],
                });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(BasicBlock {
                start,
                end: n,
                succs: vec![],
                preds: vec![],
            });
        }
        for (id, b) in blocks.iter().enumerate() {
            for pc in b.pcs() {
                block_of_pc[pc] = id;
            }
        }

        // Successors.
        let nb = blocks.len();
        for b in blocks.iter_mut() {
            let term = b.terminator_pc();
            let inst = &insts[term];
            let mut succs = Vec::new();
            match inst.op {
                Op::Bra { target } => {
                    succs.push(block_of_pc[target]);
                    if inst.guard.is_some() && term + 1 < n {
                        succs.push(block_of_pc[term + 1]);
                    }
                }
                Op::Exit if inst.guard.is_none() => {}
                _ => {
                    if term + 1 < n {
                        succs.push(block_of_pc[term + 1]);
                    }
                }
            }
            succs.dedup();
            b.succs = succs;
        }

        // Predecessors.
        for id in 0..nb {
            let succs = blocks[id].succs.clone();
            for s in succs {
                blocks[s].preds.push(id);
            }
        }

        Cfg {
            blocks,
            block_of_pc,
        }
    }

    /// The blocks, in program order. Block 0 is the entry.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block containing instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn block_of(&self, pc: usize) -> BlockId {
        self.block_of_pc[pc]
    }

    /// Reverse post-order of blocks reachable from the entry, each block's
    /// successors visited in `succs` order.
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut order = post_order(self.blocks.len(), 0, |b| &self.blocks[b].succs);
        order.reverse();
        order
    }

    /// The dominator tree: the entry dominates itself; blocks unreachable
    /// from the entry have no dominator.
    pub fn immediate_dominators(&self) -> Dominators {
        let idom = dominator_tree(
            self.blocks.len(),
            0,
            |b| &self.blocks[b].succs,
            |b| &self.blocks[b].preds,
        );
        Dominators { idom }
    }

    /// Immediate post-dominator of each block, or `None` for blocks that do
    /// not reach an exit and for blocks whose ipdom is the virtual exit node.
    ///
    /// The dominator tree of the reverse CFG rooted at a virtual exit that
    /// every block without successors flows into.
    pub fn immediate_post_dominators(&self) -> Vec<Option<BlockId>> {
        let n = self.blocks.len();
        let exit = n;
        let exits: Vec<BlockId> = (0..n)
            .filter(|&b| self.blocks[b].succs.is_empty())
            .collect();
        let to_exit = [exit];
        let ipdom = dominator_tree(
            n + 1,
            exit,
            |b| {
                if b == exit {
                    &exits
                } else {
                    &self.blocks[b].preds
                }
            },
            |b| match &self.blocks[b].succs[..] {
                [] => &to_exit,
                succs => succs,
            },
        );
        ipdom[..n]
            .iter()
            .map(|&d| d.filter(|&d| d != exit))
            .collect()
    }

    /// Reconvergence pc for every *guarded* (conditional) branch.
    ///
    /// The reconvergence point of a branch is the first instruction of the
    /// immediate post-dominator of its block, or [`RECONV_EXIT`] when the
    /// paths only rejoin at thread exit.
    pub fn reconvergence_pcs(&self, kernel: &Kernel) -> HashMap<usize, usize> {
        let ipdom = self.immediate_post_dominators();
        let mut out = HashMap::new();
        for (pc, inst) in kernel.insts().iter().enumerate() {
            if matches!(inst.op, Op::Bra { .. }) && inst.guard.is_some() {
                let b = self.block_of(pc);
                let reconv = match ipdom[b] {
                    Some(d) => self.blocks[d].start,
                    None => RECONV_EXIT,
                };
                out.insert(pc, reconv);
            }
        }
        out
    }
}

/// The dominator tree of a [`Cfg`], from [`Cfg::immediate_dominators`].
#[derive(Debug, Clone)]
pub struct Dominators {
    idom: Vec<Option<BlockId>>,
}

impl Dominators {
    /// Immediate dominator of `b`: the entry is its own; a block
    /// unreachable from the entry has none.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b]
    }

    /// Whether `a` dominates `b` (every block dominates itself).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// Depth-first post-order of the `nodes`-node graph from `root`, each
/// node's `succs` visited in order.
fn post_order<'a>(nodes: usize, root: usize, succs: impl Fn(usize) -> &'a [usize]) -> Vec<usize> {
    let mut visited = vec![false; nodes];
    let mut post = Vec::with_capacity(nodes);
    // (node, next successor to visit) per node on the DFS path.
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    visited[root] = true;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        if let Some(&s) = succs(b).get(*next) {
            *next += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post
}

/// Immediate dominator of every node of the `nodes`-node graph rooted at
/// `root`, by the Cooper–Harvey–Kennedy iteration: the root is its own,
/// nodes unreachable from it have none.
fn dominator_tree<'a>(
    nodes: usize,
    root: usize,
    succs: impl Fn(usize) -> &'a [usize],
    preds: impl Fn(usize) -> &'a [usize],
) -> Vec<Option<usize>> {
    const UNDEF: usize = usize::MAX;
    let post = post_order(nodes, root, succs);
    let mut post_index = vec![UNDEF; nodes];
    for (i, &b) in post.iter().enumerate() {
        post_index[b] = i;
    }
    // Climb the tree from both fingers until they meet: the deeper finger
    // is the one earlier in post-order.
    let intersect = |idom: &[usize], mut f1: usize, mut f2: usize| {
        while f1 != f2 {
            while post_index[f1] < post_index[f2] {
                f1 = idom[f1];
            }
            while post_index[f2] < post_index[f1] {
                f2 = idom[f2];
            }
        }
        f1
    };

    let mut idom = vec![UNDEF; nodes];
    idom[root] = root;
    let mut changed = true;
    while changed {
        changed = false;
        // Reverse post-order; the root comes last in post-order.
        for &b in post.iter().rev().skip(1) {
            let mut new_idom = UNDEF;
            for &p in preds(b) {
                if idom[p] == UNDEF {
                    continue;
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    intersect(&idom, new_idom, p)
                };
            }
            if new_idom != UNDEF && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }
    idom.into_iter()
        .map(|d| (d != UNDEF).then_some(d))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, KernelBuilder, Special, Type};

    /// if (tid == 0) { x } ; merge ; exit
    fn diamondish() -> Kernel {
        let mut b = KernelBuilder::new("d");
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64); // pc 0
        let merge = b.new_label();
        b.bra_if(p, merge); // pc 1
        b.imm32(1); // pc 2 (then side)
        b.place(merge);
        b.imm32(2); // pc 3 (merge)
        b.exit(); // pc 4
        b.build().unwrap()
    }

    #[test]
    fn blocks_and_succs() {
        let k = diamondish();
        let cfg = Cfg::build(&k);
        // Blocks: [0..2) branch, [2..3) then, [3..5) merge+exit
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.blocks()[0].succs, vec![2, 1]);
        assert_eq!(cfg.blocks()[1].succs, vec![2]);
        assert!(cfg.blocks()[2].succs.is_empty());
        assert_eq!(cfg.block_of(0), 0);
        assert_eq!(cfg.block_of(2), 1);
        assert_eq!(cfg.block_of(4), 2);
        // preds
        assert_eq!(cfg.blocks()[2].preds.len(), 2);
    }

    #[test]
    fn reconvergence_at_merge() {
        let k = diamondish();
        let cfg = Cfg::build(&k);
        let reconv = cfg.reconvergence_pcs(&k);
        assert_eq!(reconv.len(), 1);
        assert_eq!(reconv[&1], 3); // branch at pc 1 reconverges at merge pc 3
    }

    #[test]
    fn reverse_post_order_starts_at_entry() {
        let k = diamondish();
        let cfg = Cfg::build(&k);
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 3);
        // Every successor appears after its predecessor in RPO for this
        // acyclic CFG.
        let pos: Vec<_> = (0..3)
            .map(|b| rpo.iter().position(|&x| x == b).unwrap())
            .collect();
        assert!(pos[0] < pos[1]);
        assert!(pos[1] < pos[2]);
    }

    #[test]
    fn loop_cfg() {
        // i = 0; do { i++ } while (i < 3); exit
        let mut b = KernelBuilder::new("l");
        let i0 = b.imm32(0); // pc 0
        let head = b.new_label();
        b.place(head);
        let i1 = b.add(Type::U32, i0, 1i64); // pc 1
        let p = b.setp(CmpOp::Lt, Type::U32, i1, 3i64); // pc 2
        b.bra_if(p, head); // pc 3
        b.exit(); // pc 4
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks().len(), 3);
        // Loop block succs: itself (head) and exit block.
        let loop_block = cfg.block_of(1);
        assert!(cfg.blocks()[loop_block].succs.contains(&loop_block));
        let reconv = cfg.reconvergence_pcs(&k);
        // Back-branch reconverges at the loop exit (pc 4).
        assert_eq!(reconv[&3], 4);
    }

    #[test]
    fn branch_to_exit_reconverges_at_exit_sentinel() {
        // @p exit-as-branch: both paths end in different exits.
        let mut b = KernelBuilder::new("e");
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64); // 0
        let other = b.new_label();
        b.bra_if(p, other); // 1
        b.exit(); // 2
        b.place(other);
        b.exit(); // 3
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let reconv = cfg.reconvergence_pcs(&k);
        assert_eq!(reconv[&1], RECONV_EXIT);
    }

    #[test]
    fn guarded_exit_is_predication_not_terminator() {
        let mut b = KernelBuilder::new("ge");
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64); // 0
        b.guard_next(p, false);
        b.exit(); // 1 — guarded: predication
        b.imm32(1); // 2
        b.exit(); // 3
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks().len(), 1);
    }

    #[test]
    fn straight_line_single_block() {
        let mut b = KernelBuilder::new("s");
        b.imm32(1);
        b.imm32(2);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.blocks()[0].pcs(), 0..3);
        assert_eq!(cfg.immediate_post_dominators(), vec![None]);
    }

    #[test]
    fn nested_if_reconvergence() {
        // if (p) { if (q) { a } b } c
        let mut b = KernelBuilder::new("n");
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64); // 0
        let outer = b.new_label();
        b.bra_unless(p, outer); // 1
        let q = b.setp(CmpOp::Eq, Type::U32, Special::TidY, 0i64); // 2
        let inner = b.new_label();
        b.bra_unless(q, inner); // 3
        b.imm32(10); // 4 (a)
        b.place(inner);
        b.imm32(11); // 5 (b)
        b.place(outer);
        b.imm32(12); // 6 (c)
        b.exit(); // 7
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let reconv = cfg.reconvergence_pcs(&k);
        assert_eq!(reconv[&3], 5); // inner reconverges at b
        assert_eq!(reconv[&1], 6); // outer reconverges at c
    }
}
