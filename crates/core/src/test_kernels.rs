//! The kernels the unit tests hold the use-def table and the source sets to
//! their oracles on: every workload kernel, every lint-corpus kernel and
//! `examples/gather.ptx`, every `tests/fuzz_kernels.rs` seed, and a run of
//! `proptest_classify.rs`'s chain generator.

use gcl_ptx::{parse_module, Kernel};
use std::path::Path;

#[path = "../tests/common/chain.rs"]
mod chain;

#[allow(dead_code)]
#[path = "../../../tests/common/fuzz_kernel.rs"]
mod fuzz_kernel;

/// Chain-generator cases drawn into [`all`].
const CHAIN_CASES: usize = 256;

/// Every lint-corpus kernel in name order, then `examples/gather.ptx`.
fn corpus() -> Vec<Kernel> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut paths: Vec<_> = std::fs::read_dir(root.join("crates/analyze/tests/lint_corpus"))
        .expect("read lint_corpus")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ptx"))
        .collect();
    paths.sort();
    paths.push(root.join("examples/gather.ptx"));
    paths
        .iter()
        .flat_map(|p| {
            let src = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            parse_module(&src).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
        })
        .collect()
}

/// Every kernel of the 15 workloads.
fn workloads() -> Vec<Kernel> {
    gcl_workloads::all_workloads()
        .iter()
        .flat_map(|w| w.kernels())
        .collect()
}

/// `CHAIN_CASES` chain kernels, half of them with a back edge.
fn chains() -> Vec<Kernel> {
    let mut out = Vec::new();
    gcl_rng::cases(0xC1A8, CHAIN_CASES, |r| {
        out.push(chain::build(&chain::chain(r)).0)
    });
    out
}

/// Every kernel above.
pub(crate) fn all() -> Vec<Kernel> {
    let mut out = workloads();
    out.extend(corpus());
    out.extend((0..fuzz_kernel::SEEDS).map(fuzz_kernel::fuzz_kernel));
    out.extend(chains());
    out
}

/// `immediate_dominators` and `immediate_post_dominators` held to the
/// definition of dominance rather than to another dominator algorithm.
mod dominance {
    use super::all;
    use gcl_ptx::{BlockId, Cfg};

    /// Blocks reachable from `roots` along `edges`, never entering `cut`.
    fn reach<'a>(
        n: usize,
        roots: &[BlockId],
        cut: Option<BlockId>,
        edges: impl Fn(BlockId) -> &'a [BlockId],
    ) -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack: Vec<BlockId> = roots.iter().copied().filter(|&r| Some(r) != cut).collect();
        for &r in &stack {
            seen[r] = true;
        }
        while let Some(b) = stack.pop() {
            for &s in edges(b) {
                if Some(s) != cut && !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// `strict[a][b]`: `b` is reachable from the roots, `a != b`, and `b`
    /// is unreachable once `a` is removed.
    fn strict_dominance<'a>(
        n: usize,
        roots: &[BlockId],
        edges: impl Fn(BlockId) -> &'a [BlockId],
    ) -> Vec<Vec<bool>> {
        let reachable = reach(n, roots, None, &edges);
        (0..n)
            .map(|a| {
                let without_a = reach(n, roots, Some(a), &edges);
                (0..n)
                    .map(|b| b != a && reachable[b] && !without_a[b])
                    .collect()
            })
            .collect()
    }

    /// The immediate dominator the definition implies: the strict
    /// dominator of `b` that every other strict dominator of `b` dominates.
    fn immediate(strict: &[Vec<bool>], b: BlockId) -> Option<BlockId> {
        let doms: Vec<BlockId> = (0..strict.len()).filter(|&a| strict[a][b]).collect();
        let idom: Vec<BlockId> = doms
            .iter()
            .copied()
            .filter(|&d| doms.iter().all(|&o| o == d || strict[o][d]))
            .collect();
        assert!(idom.len() <= 1, "strict dominators of {b} are not a chain");
        idom.first().copied()
    }

    #[test]
    fn dominators_match_the_path_definition_on_every_test_kernel() {
        for k in all() {
            let cfg = Cfg::build(&k);
            let blocks = cfg.blocks();
            let n = blocks.len();
            let dom = cfg.immediate_dominators();
            let strict = strict_dominance(n, &[0], |b| &blocks[b].succs);
            for b in 0..n {
                // The entry is its own idom; an unreachable block has none.
                let want = if b == 0 {
                    Some(0)
                } else {
                    immediate(&strict, b)
                };
                assert_eq!(dom.idom(b), want, "{}: idom of block {b}", k.name());
                for (a, strict_a) in strict.iter().enumerate() {
                    assert_eq!(
                        dom.dominates(a, b),
                        a == b || strict_a[b],
                        "{}: does {a} dominate {b}",
                        k.name()
                    );
                }
            }

            // Post-dominance: the same definition on the reverse CFG, rooted
            // at the virtual exit (every block without successors).
            let exits: Vec<BlockId> = (0..n).filter(|&b| blocks[b].succs.is_empty()).collect();
            let ipdom = cfg.immediate_post_dominators();
            let strict = strict_dominance(n, &exits, |b| &blocks[b].preds);
            for (b, &ipdom) in ipdom.iter().enumerate() {
                // `None` both for a block that reaches no exit and for one
                // whose ipdom is the virtual exit.
                assert_eq!(
                    ipdom,
                    immediate(&strict, b),
                    "{}: ipdom of block {b}",
                    k.name()
                );
            }
        }
    }
}
