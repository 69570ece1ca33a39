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
