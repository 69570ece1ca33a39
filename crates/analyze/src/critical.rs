//! Static critical-load ranking.
//!
//! The paper's headline observation is that a small set of loads — above
//! all the N-loads at the head of dependent-load chains — account for most
//! of the memory stall time. This module ranks every global-backed load of
//! a kernel by a *static* criticality score built from the kernel DDG, so
//! optimization effort (and the simulator's cross-validation) can focus on
//! the top of the list:
//!
//! * **chain depth** — length of the dependent-load chain feeding this
//!   load's address (1 = deterministic address, 2+ = N-load fed by other
//!   loads; the `A[B[C[i]]]` pattern). Dominant term: a miss at depth `d`
//!   serializes `d` memory round-trips.
//! * **slice height** — longest def-use chain from any DDG root to the
//!   load: deep slices sit late in the iteration and gate more completed
//!   work.
//! * **consumer count** — instructions transitively data-dependent on the
//!   loaded value: how much of the kernel stalls while this load is in
//!   flight (cf. the warp-criticality heuristics of Ausavarungnirun et
//!   al.).
//! * **divergence context** — loads under divergent control flow execute
//!   with partial warps, lowering MLP and raising per-lane cost.
//! * **predicted requests** — the [`crate::affine`] coalescing prediction;
//!   serialized loads occupy the LSU proportionally longer. Unpredictable
//!   addresses count as fully serialized, which matches how N-loads behave
//!   in the measured distributions.
//!
//! The score is a fixed integer combination (documented at
//! [`CriticalLoad::score`]) so rankings are stable across runs and
//! platforms; ties break toward the lower pc.

use crate::affine::{predictions, LoadPrediction, Prediction};
use crate::divergence::{divergence, DivergenceInfo};
use crate::facts::Facts;
use gcl_core::{AddressSource, Classification, LoadClass, ReachingDefs};
use gcl_ptx::{Kernel, Op, Space};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Criticality facts and score for one global-backed load.
#[derive(Debug, Clone)]
pub struct CriticalLoad {
    /// Instruction index of the load.
    pub pc: usize,
    /// State space accessed.
    pub space: Space,
    /// Deterministic / non-deterministic address verdict.
    pub class: LoadClass,
    /// Dependent-load chain depth feeding the address (1 = no load feeds
    /// it).
    pub chain_depth: u32,
    /// Longest def-use path from a DDG root to this load.
    pub slice_height: u32,
    /// Instructions transitively dependent on the loaded value.
    pub consumers: u32,
    /// Whether the load sits under divergent control flow.
    pub divergent: bool,
    /// Predicted coalescer requests (32 when unpredictable).
    pub requests: u32,
    /// `16·chain_depth + 2·slice_height + min(consumers, 8) +
    /// 4·divergent + min(requests, 32)`.
    pub score: u64,
    /// 1-based rank within the kernel (1 = most critical).
    pub rank: u32,
}

/// Dependent-load chain depth per load pc, from the terminal address
/// sources: `depth(l) = 1 + max(depth of loads feeding l's address)`.
fn chain_depths(cls: &Classification) -> BTreeMap<usize, u32> {
    let feeders: BTreeMap<usize, Vec<usize>> = cls
        .loads()
        .map(|l| {
            let f = l
                .sources
                .iter()
                .filter_map(|s| match s {
                    AddressSource::MemoryLoad { pc, .. } => Some(*pc),
                    _ => None,
                })
                .collect();
            (l.pc, f)
        })
        .collect();
    fn depth(
        pc: usize,
        feeders: &BTreeMap<usize, Vec<usize>>,
        memo: &mut BTreeMap<usize, u32>,
        visiting: &mut BTreeSet<usize>,
    ) -> u32 {
        if let Some(&d) = memo.get(&pc) {
            return d;
        }
        if !visiting.insert(pc) {
            return 1; // cyclic chase: cut, the depth is unbounded anyway
        }
        let d = 1 + feeders
            .get(&pc)
            .map(|fs| {
                fs.iter()
                    .map(|&f| depth(f, feeders, memo, visiting))
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        visiting.remove(&pc);
        memo.insert(pc, d);
        d
    }
    let mut memo = BTreeMap::new();
    let mut visiting = BTreeSet::new();
    let pcs: Vec<usize> = feeders.keys().copied().collect();
    for pc in pcs {
        depth(pc, &feeders, &mut memo, &mut visiting);
    }
    memo
}

/// Longest def-use path from any root to each instruction, cycles cut.
fn slice_heights(kernel: &Kernel, reaching: &ReachingDefs) -> Vec<u32> {
    let n = kernel.insts().len();
    let mut memo: Vec<Option<u32>> = vec![None; n];
    let mut visiting = vec![false; n];
    fn height(
        pc: usize,
        reaching: &ReachingDefs,
        memo: &mut Vec<Option<u32>>,
        visiting: &mut [bool],
    ) -> u32 {
        if let Some(h) = memo[pc] {
            return h;
        }
        if std::mem::replace(&mut visiting[pc], true) {
            return 0; // loop-carried edge: the acyclic slice is what counts
        }
        let mut h = 0;
        for (_, defs) in reaching.reads(pc) {
            for d in defs {
                h = h.max(1 + height(d.pc, reaching, memo, visiting));
            }
        }
        visiting[pc] = false;
        memo[pc] = Some(h);
        h
    }
    (0..n)
        .map(|pc| height(pc, reaching, &mut memo, &mut visiting))
        .collect()
}

/// Def-to-use edges of one kernel, as a CSR over pcs: the instructions
/// reading the value defined at `pc` are `user[start[pc]..start[pc + 1]]`.
/// `seen` and `queue` are the consumer walk's buffers, reused per load.
struct Users {
    start: Vec<u32>,
    user: Vec<u32>,
    seen: Vec<u64>,
    queue: Vec<u32>,
}

impl Users {
    fn new(n: usize, reaching: &ReachingDefs) -> Users {
        let mut start = vec![0u32; n + 1];
        for pc in 0..n {
            for (_, defs) in reaching.reads(pc) {
                for d in defs {
                    start[d.pc + 1] += 1;
                }
            }
        }
        for pc in 0..n {
            start[pc + 1] += start[pc];
        }
        let mut fill = start.clone();
        let mut user = vec![0u32; start[n] as usize];
        for pc in 0..n {
            for (_, defs) in reaching.reads(pc) {
                for d in defs {
                    user[fill[d.pc] as usize] = pc as u32;
                    fill[d.pc] += 1;
                }
            }
        }
        Users {
            start,
            user,
            seen: vec![0; n.div_ceil(64)],
            queue: Vec::new(),
        }
    }

    /// Instructions transitively data-dependent on the value defined at
    /// `def_pc`, not counting `def_pc` itself.
    fn consumers(&mut self, def_pc: usize) -> u32 {
        self.seen.fill(0);
        self.queue.clear();
        let (start, user) = (&self.start, &self.user);
        let of = |pc: usize| &user[start[pc] as usize..start[pc + 1] as usize];
        self.queue.extend_from_slice(of(def_pc));
        let mut count = 0;
        while let Some(u) = self.queue.pop() {
            let u = u as usize;
            let (w, bit) = (u / 64, 1u64 << (u % 64));
            if u == def_pc || self.seen[w] & bit != 0 {
                continue;
            }
            self.seen[w] |= bit;
            count += 1;
            self.queue.extend_from_slice(of(u));
        }
        count
    }
}

/// Rank every global-backed load of `kernel` by static criticality,
/// most critical first.
pub fn critical_loads(kernel: &Kernel) -> Vec<CriticalLoad> {
    let facts = Facts::new(kernel);
    rank(
        &facts,
        &divergence(kernel, facts.cfg()),
        &predictions(&facts),
    )
}

/// [`critical_loads`] over the facts, divergence and predictions the
/// caller already has.
pub(crate) fn rank(
    facts: &Facts<'_>,
    div: &DivergenceInfo,
    predictions: &[LoadPrediction],
) -> Vec<CriticalLoad> {
    let kernel = facts.kernel;
    let depths = chain_depths(&facts.classes);
    let heights = slice_heights(kernel, &facts.reaching);
    let mut users = Users::new(kernel.insts().len(), &facts.reaching);
    let predictions: HashMap<usize, Prediction> =
        predictions.iter().map(|l| (l.pc, l.prediction)).collect();

    let mut out = Vec::new();
    for (pc, inst) in kernel.insts().iter().enumerate() {
        let Op::Ld { space, .. } = &inst.op else {
            continue;
        };
        if !matches!(space, Space::Global | Space::Local | Space::Tex) {
            continue;
        }
        let chain_depth = depths.get(&pc).copied().unwrap_or(1);
        let slice_height = heights[pc];
        let cons = users.consumers(pc);
        let divergent = div.divergent_pcs.contains(&pc);
        let requests = match predictions.get(&pc) {
            Some(Prediction::Requests(n)) => *n,
            Some(Prediction::BankDegree(n)) => *n,
            _ => 32,
        };
        let score = 16 * u64::from(chain_depth)
            + 2 * u64::from(slice_height)
            + u64::from(cons.min(8))
            + if divergent { 4 } else { 0 }
            + u64::from(requests.min(32));
        out.push(CriticalLoad {
            pc,
            space: *space,
            class: facts.class_of(pc),
            chain_depth,
            slice_height,
            consumers: cons,
            divergent,
            requests,
            score,
            rank: 0,
        });
    }
    out.sort_by(|a, b| b.score.cmp(&a.score).then(a.pc.cmp(&b.pc)));
    for (i, l) in out.iter_mut().enumerate() {
        l.rank = (i + 1) as u32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{KernelBuilder, Type};

    /// The paper's Code 1 shape: a D-load feeding an N-load. The N-load
    /// must outrank the D-load.
    #[test]
    fn n_load_outranks_its_feeder() {
        let mut b = KernelBuilder::new("bfs_ish");
        let pi = b.param("edges", Type::U64);
        let pd = b.param("visited", Type::U64);
        let edges = b.ld_param(Type::U64, pi);
        let visited = b.ld_param(Type::U64, pd);
        let tid = b.thread_linear_id();
        let ea = b.index64(edges, tid, 4);
        let id = b.ld_global(Type::U32, ea);
        let va = b.index64(visited, id, 4);
        let v = b.ld_global(Type::U32, va);
        b.st_global(Type::U32, va, v);
        b.exit();
        let k = b.build().unwrap();
        let ranked = critical_loads(&k);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].chain_depth, 2);
        assert_eq!(ranked[0].class, LoadClass::NonDeterministic);
        assert_eq!(ranked[0].rank, 1);
        assert!(ranked[0].score > ranked[1].score);
        // The feeder itself is depth 1.
        assert_eq!(ranked[1].chain_depth, 1);
    }

    #[test]
    fn slice_and_consumers_are_counted() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.thread_linear_id();
        let a = b.index64(base, tid, 4);
        let v = b.ld_global(Type::U32, a);
        let w = b.add(Type::U32, v, 1i64);
        let x = b.add(Type::U32, w, 2i64);
        b.st_global(Type::U32, a, x);
        b.exit();
        let k = b.build().unwrap();
        let ranked = critical_loads(&k);
        assert_eq!(ranked.len(), 1);
        // ld <- addr <- mad(tid) <- cvt/mov chain: height at least 3.
        assert!(ranked[0].slice_height >= 3);
        // add, add, st depend on the value.
        assert_eq!(ranked[0].consumers, 3);
        assert_eq!(ranked[0].chain_depth, 1);
    }
}
