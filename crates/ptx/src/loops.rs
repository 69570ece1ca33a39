//! Natural-loop analysis: back edges and the loop nesting forest.
//!
//! The footprint analysis of `gcl-analyze` needs to know, for every load,
//! which loops enclose it, where each loop's induction variables are
//! initialized and stepped, and through which edges the loop exits (the
//! guard comparisons there bound the trip count). All of that starts from
//! the classical construction implemented here over the dominator tree
//! ([`Cfg::immediate_dominators`]): back edges `t -> h` where `h`
//! dominates `t`, and the natural loop of each back edge (reverse flood
//! from the latch that stops at the header). Loops sharing a header are
//! merged; nesting is containment of the merged bodies.
//!
//! Only blocks reachable from the entry participate: unreachable code has
//! no dominator and therefore belongs to no loop.

use crate::cfg::{BlockId, Cfg, Dominators};
use std::collections::BTreeSet;

/// One natural loop (after merging all back edges that share a header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loop {
    /// The unique entry block of the loop.
    pub header: BlockId,
    /// Sources of the back edges into `header`, in ascending order.
    pub latches: Vec<BlockId>,
    /// Every block of the loop body, including `header` and the latches.
    pub blocks: BTreeSet<BlockId>,
    /// Edges leaving the loop: `(from, to)` with `from` inside and `to`
    /// outside, in ascending order.
    pub exit_edges: Vec<(BlockId, BlockId)>,
    /// Index (into [`LoopForest::loops`]) of the innermost enclosing loop.
    pub parent: Option<usize>,
    /// Nesting depth: 1 for outermost loops, 2 for loops inside them, ...
    pub depth: usize,
}

impl Loop {
    /// Whether block `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of one kernel, with their nesting relation.
#[derive(Debug, Clone, Default)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop of each block, if any.
    innermost: Vec<Option<usize>>,
}

impl LoopForest {
    /// The loops, ordered by header block. Indexes into this slice are the
    /// loop ids used by [`LoopForest::innermost_of`] and [`Loop::parent`].
    pub fn loops(&self) -> &[Loop] {
        &self.loops
    }

    /// The innermost loop containing block `b`, if any.
    pub fn innermost_of(&self, b: BlockId) -> Option<usize> {
        self.innermost.get(b).copied().flatten()
    }

    /// The chain of loops containing block `b`, innermost first.
    pub fn loops_of(&self, b: BlockId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut cur = self.innermost_of(b);
        while let Some(l) = cur {
            out.push(l);
            cur = self.loops[l].parent;
        }
        out
    }
}

impl Cfg {
    /// The natural-loop nesting forest of this CFG.
    pub fn loop_forest(&self) -> LoopForest {
        self.immediate_dominators().loop_forest(self)
    }
}

impl Dominators {
    /// The natural-loop nesting forest of `cfg`, whose dominator tree this
    /// is.
    pub fn loop_forest(&self, cfg: &Cfg) -> LoopForest {
        let n = cfg.blocks().len();

        // Back edges t -> h (h dominates t), grouped by header.
        let mut by_header: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
        for t in 0..n {
            if self.idom(t).is_none() {
                continue; // unreachable
            }
            for &h in &cfg.blocks()[t].succs {
                if self.dominates(h, t) {
                    match by_header.iter_mut().find(|(hh, _)| *hh == h) {
                        Some((_, latches)) => latches.push(t),
                        None => by_header.push((h, vec![t])),
                    }
                }
            }
        }
        by_header.sort_by_key(|(h, _)| *h);

        // Natural loop body: header plus everything that reaches a latch
        // backwards without passing through the header.
        let mut loops: Vec<Loop> = Vec::new();
        for (header, mut latches) in by_header {
            latches.sort_unstable();
            latches.dedup();
            let mut blocks: BTreeSet<BlockId> = BTreeSet::new();
            blocks.insert(header);
            let mut stack: Vec<BlockId> = Vec::new();
            for &l in &latches {
                if blocks.insert(l) {
                    stack.push(l);
                }
            }
            while let Some(b) = stack.pop() {
                for &p in &cfg.blocks()[b].preds {
                    if self.idom(p).is_some() && blocks.insert(p) {
                        stack.push(p);
                    }
                }
            }
            let mut exit_edges: Vec<(BlockId, BlockId)> = Vec::new();
            for &b in &blocks {
                for &s in &cfg.blocks()[b].succs {
                    if !blocks.contains(&s) {
                        exit_edges.push((b, s));
                    }
                }
            }
            exit_edges.sort_unstable();
            exit_edges.dedup();
            loops.push(Loop {
                header,
                latches,
                blocks,
                exit_edges,
                parent: None,
                depth: 1,
            });
        }

        // Nesting: the parent of L is the smallest other loop whose body
        // contains L's header (bodies of natural loops sharing no header
        // are either disjoint or nested for reducible CFGs).
        let order: Vec<usize> = {
            let mut idx: Vec<usize> = (0..loops.len()).collect();
            idx.sort_by_key(|&i| loops[i].blocks.len());
            idx
        };
        for (pos, &i) in order.iter().enumerate() {
            for &j in &order[pos + 1..] {
                if j != i && loops[j].blocks.contains(&loops[i].header) {
                    loops[i].parent = Some(j);
                    break;
                }
            }
        }
        // Depths, outermost-in: parents always have strictly larger bodies,
        // so resolving in ascending body order terminates.
        for &i in order.iter().rev() {
            loops[i].depth = match loops[i].parent {
                Some(p) => loops[p].depth + 1,
                None => 1,
            };
        }

        // Innermost loop per block: the smallest body containing it.
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for &i in order.iter().rev() {
            for &b in &loops[i].blocks {
                innermost[b] = Some(i);
            }
        }

        LoopForest { loops, innermost }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Kernel, KernelBuilder, Op, Special, Type};

    /// for (i = 0; i < 7; i++) { body }
    fn counted_loop() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        let done = b.new_label();
        b.place(head);
        let p = b.setp(CmpOp::Ge, Type::U32, i, 7i64);
        b.bra_if(p, done);
        b.imm32(1); // body
        b.push(Op::Alu {
            op: crate::AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        b.bra(head);
        b.place(done);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn dominators_of_counted_loop() {
        let k = counted_loop();
        let cfg = Cfg::build(&k);
        let dom = cfg.immediate_dominators();
        assert_eq!(dom.idom(0), Some(0));
        // Every reachable block is dominated by the entry.
        for b in 1..cfg.blocks().len() {
            assert!(dom.dominates(0, b), "entry must dominate block {b}");
        }
    }

    #[test]
    fn counted_loop_is_one_loop() {
        let k = counted_loop();
        let cfg = Cfg::build(&k);
        let forest = cfg.loop_forest();
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.depth, 1);
        assert_eq!(l.parent, None);
        assert_eq!(l.latches.len(), 1);
        // Header is the guard block (contains the setp at pc 1).
        assert_eq!(l.header, cfg.block_of(1));
        assert!(l.contains(cfg.block_of(2))); // body
        assert_eq!(l.exit_edges.len(), 1);
        let (from, to) = l.exit_edges[0];
        assert_eq!(from, l.header);
        assert!(!l.contains(to));
        assert_eq!(forest.innermost_of(cfg.block_of(2)), Some(0));
        assert_eq!(forest.innermost_of(cfg.block_of(0)), None);
    }

    #[test]
    fn nested_loops_have_depths() {
        // for i { for j { body } }
        let mut b = KernelBuilder::new("k");
        let i = b.reg();
        let j = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let ihead = b.new_label();
        let idone = b.new_label();
        b.place(ihead);
        let pi = b.setp(CmpOp::Ge, Type::U32, i, 4i64);
        b.bra_if(pi, idone);
        b.push(Op::Mov {
            ty: Type::U32,
            dst: j,
            src: 0i64.into(),
        });
        let jhead = b.new_label();
        let jdone = b.new_label();
        b.place(jhead);
        let pj = b.setp(CmpOp::Ge, Type::U32, j, 4i64);
        b.bra_if(pj, jdone);
        let body = b.imm32(1);
        let _ = b.add(Type::U32, body, 1i64);
        b.push(Op::Alu {
            op: crate::AluOp::Add,
            ty: Type::U32,
            dst: j,
            a: j.into(),
            b: 1i64.into(),
        });
        b.bra(jhead);
        b.place(jdone);
        b.push(Op::Alu {
            op: crate::AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        b.bra(ihead);
        b.place(idone);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let forest = cfg.loop_forest();
        assert_eq!(forest.loops().len(), 2);
        let outer = forest
            .loops()
            .iter()
            .position(|l| l.depth == 1)
            .expect("outer loop");
        let inner = forest
            .loops()
            .iter()
            .position(|l| l.depth == 2)
            .expect("inner loop");
        assert_eq!(forest.loops()[inner].parent, Some(outer));
        assert!(forest.loops()[outer]
            .blocks
            .is_superset(&forest.loops()[inner].blocks));
        // A body block of the inner loop reports the inner loop innermost,
        // with the chain [inner, outer].
        let body_block = forest.loops()[inner]
            .blocks
            .iter()
            .copied()
            .find(|&b| b != forest.loops()[inner].header)
            .unwrap_or(forest.loops()[inner].header);
        let chain = forest.loops_of(body_block);
        assert_eq!(chain, vec![inner, outer]);
    }

    #[test]
    fn do_while_latch_loop() {
        // do { i-- } while (i > 0): single block loops to itself.
        let mut b = KernelBuilder::new("k");
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 8i64.into(),
        });
        let head = b.new_label();
        b.place(head);
        b.push(Op::Alu {
            op: crate::AluOp::Sub,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        let p = b.setp(CmpOp::Gt, Type::U32, i, 0i64);
        b.bra_if(p, head);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let forest = cfg.loop_forest();
        assert_eq!(forest.loops().len(), 1);
        let l = &forest.loops()[0];
        assert_eq!(l.header, cfg.block_of(1));
        assert_eq!(l.latches, vec![l.header]);
        assert_eq!(l.blocks.len(), 1);
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = KernelBuilder::new("k");
        let p = b.setp(CmpOp::Eq, Type::U32, Special::TidX, 0i64);
        let l = b.new_label();
        b.bra_if(p, l);
        b.imm32(1);
        b.place(l);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        assert!(cfg.loop_forest().loops().is_empty());
    }

    #[test]
    fn unreachable_block_is_loopless_and_undominated() {
        // entry -> exit; then an unreachable self-loop after it.
        let mut b = KernelBuilder::new("k");
        let skip = b.new_label();
        b.bra(skip);
        let dead = b.new_label();
        b.place(dead);
        b.imm32(1);
        b.bra(dead);
        b.place(skip);
        b.exit();
        let k = b.build().unwrap();
        let cfg = Cfg::build(&k);
        let dom = cfg.immediate_dominators();
        let dead_block = cfg.block_of(1);
        assert_eq!(dom.idom(dead_block), None);
        let forest = cfg.loop_forest();
        assert!(forest.loops().is_empty());
        assert_eq!(forest.innermost_of(dead_block), None);
    }
}
