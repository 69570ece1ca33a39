//! Backward-dataflow classification of loads into deterministic and
//! non-deterministic classes.
//!
//! This module implements Section V of the paper: starting from each load's
//! address register, trace the definition chains backwards until every
//! terminal source is known. If every terminal is *parameterized data*
//! (`ld.param`, `ld.const`, special registers, immediates) the load is
//! **deterministic**; if any terminal is a prior memory load
//! (`ld.global/local/shared/tex` or an atomic result) the load is
//! **non-deterministic**.

use crate::reaching::ReachingDefs;
use gcl_ptx::{Kernel, Op, Operand, Reg, Space, Special};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The two load classes of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LoadClass {
    /// Address derives only from parameterized data (thread/CTA ids, kernel
    /// parameters, constants). Tends to coalesce.
    Deterministic,
    /// Address derives (transitively) from data produced by prior loads or
    /// other non-parameterized values. Tends not to coalesce.
    NonDeterministic,
}

impl LoadClass {
    /// One-letter label used in the paper's figures (`D` / `N`).
    pub fn letter(self) -> char {
        match self {
            LoadClass::Deterministic => 'D',
            LoadClass::NonDeterministic => 'N',
        }
    }
}

impl fmt::Display for LoadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadClass::Deterministic => write!(f, "deterministic"),
            LoadClass::NonDeterministic => write!(f, "non-deterministic"),
        }
    }
}

/// A terminal source reached by the backward trace of an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddressSource {
    /// `ld.param` at `pc` — parameterized.
    Param {
        /// The defining `ld.param` instruction.
        pc: usize,
    },
    /// `ld.const` at `pc` — parameterized (host-initialized constant bank).
    Const {
        /// The defining `ld.const` instruction.
        pc: usize,
    },
    /// A special register (`%tid.x`, `%ctaid.x`, ...) — parameterized.
    Special(Special),
    /// An immediate operand — parameterized.
    Immediate,
    /// A memory load at `pc` from `space` — **not** parameterized.
    MemoryLoad {
        /// The defining load instruction.
        pc: usize,
        /// The space it reads.
        space: Space,
    },
    /// The result of an atomic RMW at `pc` — **not** parameterized.
    AtomicResult {
        /// The defining atomic instruction.
        pc: usize,
    },
    /// A register read with no reaching definition — treated as
    /// non-parameterized (and worth a diagnostic).
    Uninitialized {
        /// The register that was read undefined.
        reg: Reg,
    },
}

impl AddressSource {
    /// Whether this source is parameterized (launch-invariant).
    pub fn is_parameterized(self) -> bool {
        match self {
            AddressSource::Param { .. }
            | AddressSource::Const { .. }
            | AddressSource::Special(_)
            | AddressSource::Immediate => true,
            AddressSource::MemoryLoad { .. }
            | AddressSource::AtomicResult { .. }
            | AddressSource::Uninitialized { .. } => false,
        }
    }
}

impl fmt::Display for AddressSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressSource::Param { pc } => write!(f, "param@{pc}"),
            AddressSource::Const { pc } => write!(f, "const@{pc}"),
            AddressSource::Special(sp) => write!(f, "{sp}"),
            AddressSource::Immediate => write!(f, "imm"),
            AddressSource::MemoryLoad { pc, space } => write!(f, "load.{space}@{pc}"),
            AddressSource::AtomicResult { pc } => write!(f, "atom@{pc}"),
            AddressSource::Uninitialized { reg } => write!(f, "uninit:{reg}"),
        }
    }
}

/// Classification result for one load instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadInfo {
    /// Instruction index of the load.
    pub pc: usize,
    /// The space the load reads.
    pub space: Space,
    /// Deterministic / non-deterministic verdict.
    pub class: LoadClass,
    /// Every terminal source the backward trace reached.
    pub sources: BTreeSet<AddressSource>,
    /// For non-deterministic loads: one witness def-chain from the load's
    /// address register back to a non-parameterized source (instruction
    /// indices, load first). Empty for deterministic loads.
    pub witness: Vec<usize>,
}

/// Classification of every load in one kernel.
///
/// # Examples
///
/// Code 1 of the paper (`bfs`): `g_graph_mask[tid]` is deterministic,
/// `g_graph_visited[id]` with `id` loaded from `g_graph_edges` is not.
///
/// ```
/// use gcl_core::{classify, LoadClass};
///
/// let k = gcl_ptx::parse_kernel(r#"
/// .entry bfs_like (.param .u64 mask, .param .u64 edges, .param .u64 visited)
/// {
///   ld.param.u64 %rd1, [mask];
///   ld.param.u64 %rd2, [edges];
///   ld.param.u64 %rd3, [visited];
///   mov.u32 %r1, %ctaid.x;
///   mov.u32 %r2, %ntid.x;
///   mov.u32 %r3, %tid.x;
///   mad.lo.u32 %r4, %r1, %r2, %r3;      // tid
///   mul.wide.u32 %rd4, %r4, 4;
///   add.u64 %rd5, %rd1, %rd4;
///   ld.global.u32 %r5, [%rd5];          // mask[tid]     -> D
///   add.u64 %rd6, %rd2, %rd4;
///   ld.global.u32 %r6, [%rd6];          // id = edges[i] -> D
///   mul.wide.u32 %rd7, %r6, 4;
///   add.u64 %rd8, %rd3, %rd7;
///   ld.global.u32 %r7, [%rd8];          // visited[id]   -> N
///   exit;
/// }
/// "#).unwrap();
/// let c = classify(&k);
/// assert_eq!(c.class_of(9), Some(LoadClass::Deterministic));
/// assert_eq!(c.class_of(11), Some(LoadClass::Deterministic));
/// assert_eq!(c.class_of(14), Some(LoadClass::NonDeterministic));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    kernel_name: String,
    loads: BTreeMap<usize, LoadInfo>,
}

impl Classification {
    /// Name of the classified kernel.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// The class of the load at `pc`, or `None` if `pc` is not a load.
    pub fn class_of(&self, pc: usize) -> Option<LoadClass> {
        self.loads.get(&pc).map(|l| l.class)
    }

    /// Full info for the load at `pc`.
    pub fn load(&self, pc: usize) -> Option<&LoadInfo> {
        self.loads.get(&pc)
    }

    /// All classified loads, in pc order.
    pub fn loads(&self) -> impl Iterator<Item = &LoadInfo> {
        self.loads.values()
    }

    /// Only the global-memory loads (the set the paper reports on).
    pub fn global_loads(&self) -> impl Iterator<Item = &LoadInfo> {
        self.loads
            .values()
            .filter(|l| matches!(l.space, Space::Global | Space::Local | Space::Tex))
    }

    /// Static counts of (deterministic, non-deterministic) global loads.
    pub fn global_load_counts(&self) -> (usize, usize) {
        let mut d = 0;
        let mut n = 0;
        for l in self.global_loads() {
            match l.class {
                LoadClass::Deterministic => d += 1,
                LoadClass::NonDeterministic => n += 1,
            }
        }
        (d, n)
    }
}

/// Classify every load instruction of `kernel`.
///
/// Atomics are classified too (their address is traced the same way); shared
/// and other non-global loads appear in the result but are excluded from
/// [`Classification::global_loads`].
pub fn classify(kernel: &Kernel) -> Classification {
    classify_with(kernel, &ReachingDefs::compute(kernel))
}

/// [`classify`] over reaching definitions the caller already computed for
/// `kernel`, for analyses that share one [`ReachingDefs`] between passes.
pub fn classify_with(kernel: &Kernel, reaching: &ReachingDefs) -> Classification {
    let mut sets = SourceSets::new(kernel, reaching);
    let mut loads = BTreeMap::new();
    for (pc, inst) in kernel.insts().iter().enumerate() {
        let (space, addr) = match &inst.op {
            Op::Ld { space, addr, .. } => (*space, *addr),
            Op::Atom { addr, .. } => (Space::Global, *addr),
            _ => continue,
        };
        // `ld.param`/`ld.const` themselves are parameterized reads; they
        // are sources for other loads, not classification subjects.
        if space.is_parameterized() {
            continue;
        }
        let sources: BTreeSet<AddressSource> = match addr.base {
            Some(base) => {
                let defs = reaching.defs_reaching_use(pc, base);
                if defs.is_empty() {
                    BTreeSet::from([AddressSource::Uninitialized { reg: base }])
                } else {
                    let mut out = BTreeSet::new();
                    for d in defs {
                        out.extend(sets.of_def(d.pc).iter().copied());
                    }
                    out
                }
            }
            // Absolute address: launch-invariant.
            None => BTreeSet::from([AddressSource::Immediate]),
        };
        let class = if sources.iter().all(|s| s.is_parameterized()) {
            LoadClass::Deterministic
        } else {
            LoadClass::NonDeterministic
        };
        let witness = match addr.base {
            Some(base) if class == LoadClass::NonDeterministic => sets.witness_path(pc, base),
            _ => Vec::new(),
        };
        loads.insert(
            pc,
            LoadInfo {
                pc,
                space,
                class,
                sources,
                witness,
            },
        );
    }
    Classification {
        kernel_name: kernel.name().to_string(),
        loads,
    }
}

/// Not yet visited by the SCC pass.
const UNVISITED: u32 = u32::MAX;

/// The terminal sources of every traced definition, computed once per
/// strongly connected component of the def graph.
///
/// A def's edges go to the defs reaching each operand register it reads
/// (for `selp`, its predicate too); a load or atomic is a terminal and has
/// none. Every def of one SCC reaches every other, so all of them share one
/// set: the SCC's own terminals plus those of every SCC it reaches. A
/// loop-carried recurrence (`i = i + 1`) is thus as deterministic as its
/// entry values, and no answer depends on which load was traced first.
/// The pass is an iterative Tarjan walk, started lazily from the defs
/// reaching each load's address; its state persists across walks.
struct SourceSets<'k> {
    kernel: &'k Kernel,
    reaching: &'k ReachingDefs,
    /// SCC id per def id, [`UNVISITED`] until its SCC is complete.
    scc_of: Vec<u32>,
    /// Sorted terminal sources per SCC id.
    sets: Vec<Vec<AddressSource>>,
    /// Tarjan's visit index and low-link per def id.
    index: Vec<u32>,
    low: Vec<u32>,
    on_stack: Vec<bool>,
    next_index: u32,
    /// Visited defs whose SCC is not complete yet.
    stack: Vec<usize>,
    /// Each visited def's own terminals (`local[local_span[id]]`) and
    /// successors (`succ[succ_span[id]]`).
    local: Vec<AddressSource>,
    local_span: Vec<(usize, usize)>,
    succ: Vec<usize>,
    succ_span: Vec<(usize, usize)>,
}

impl<'k> SourceSets<'k> {
    fn new(kernel: &'k Kernel, reaching: &'k ReachingDefs) -> SourceSets<'k> {
        let n = reaching.defs().len();
        SourceSets {
            kernel,
            reaching,
            scc_of: vec![UNVISITED; n],
            sets: Vec::new(),
            index: vec![UNVISITED; n],
            low: vec![0; n],
            on_stack: vec![false; n],
            next_index: 0,
            stack: Vec::new(),
            local: Vec::new(),
            local_span: vec![(0, 0); n],
            succ: Vec::new(),
            succ_span: vec![(0, 0); n],
        }
    }

    fn def_id(&self, pc: usize) -> usize {
        self.reaching
            .def_id_at_pc(pc)
            .expect("a reaching definition writes a register")
    }

    /// Terminal sources of the definition at `pc`.
    fn of_def(&mut self, pc: usize) -> &[AddressSource] {
        let id = self.def_id(pc);
        if self.scc_of[id] == UNVISITED {
            self.condense(id);
        }
        &self.sets[self.scc_of[id] as usize]
    }

    /// Append the def's own terminal sources to `local` and its edges to
    /// `succ`, recording both spans.
    fn expand(&mut self, id: usize) {
        let (reaching, kernel) = (self.reaching, self.kernel);
        let pc = reaching.defs()[id].pc;
        let (l0, s0) = (self.local.len(), self.succ.len());
        let (local, succ) = (&mut self.local, &mut self.succ);
        let operand = |o: Operand| match o {
            Operand::Reg(reg) => {
                let defs = reaching.defs_reaching_use(pc, reg);
                if defs.is_empty() {
                    local.push(AddressSource::Uninitialized { reg });
                }
                succ.extend(defs.iter().filter_map(|d| reaching.def_id_at_pc(d.pc)));
            }
            Operand::Imm(_) | Operand::FImm(_) => local.push(AddressSource::Immediate),
            Operand::Special(s) => local.push(AddressSource::Special(s)),
        };
        match &kernel.insts()[pc].op {
            // The loaded *value* is what taints; the load's own address
            // chain is irrelevant.
            Op::Ld { space, .. } => {
                self.local.push(match space {
                    Space::Param => AddressSource::Param { pc },
                    Space::Const => AddressSource::Const { pc },
                    _ => AddressSource::MemoryLoad { pc, space: *space },
                });
            }
            Op::Atom { .. } => self.local.push(AddressSource::AtomicResult { pc }),
            // Every other def's value flows from its operands; for `selp`
            // the predicate too, a data dependence of the selected value.
            op => {
                debug_assert!(
                    op.dst_reg().is_some(),
                    "definition site at {pc} defines nothing"
                );
                op.for_each_operand(operand);
            }
        }
        self.local_span[id] = (l0, self.local.len());
        self.succ_span[id] = (s0, self.succ.len());
    }

    fn enter(&mut self, id: usize, frames: &mut Vec<(usize, usize)>) {
        self.index[id] = self.next_index;
        self.low[id] = self.next_index;
        self.next_index += 1;
        self.stack.push(id);
        self.on_stack[id] = true;
        self.expand(id);
        frames.push((id, self.succ_span[id].0));
    }

    /// Tarjan's walk from `root`: completes the SCC, and the source set, of
    /// every def reachable from it that has none yet.
    fn condense(&mut self, root: usize) {
        // (def, next successor to visit) per def on the walk's path.
        let mut frames = Vec::new();
        self.enter(root, &mut frames);
        while let Some(&mut (v, ref mut next)) = frames.last_mut() {
            if *next < self.succ_span[v].1 {
                let w = self.succ[*next];
                *next += 1;
                if self.scc_of[w] != UNVISITED {
                    // Complete already: its set is final.
                } else if self.index[w] == UNVISITED {
                    self.enter(w, &mut frames);
                } else if self.on_stack[w] {
                    self.low[v] = self.low[v].min(self.index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                self.low[parent] = self.low[parent].min(self.low[v]);
            }
            if self.low[v] == self.index[v] {
                self.complete(v);
            }
        }
    }

    /// Pop the SCC rooted at `v` and give it the union of its members'
    /// terminals and of the sets of the SCCs they reach.
    fn complete(&mut self, v: usize) {
        let scc = self.sets.len() as u32;
        let split = self
            .stack
            .iter()
            .rposition(|&m| m == v)
            .expect("the SCC root is on the stack");
        for &m in &self.stack[split..] {
            self.on_stack[m] = false;
            self.scc_of[m] = scc;
        }
        let mut set = Vec::new();
        for &m in &self.stack[split..] {
            let (l0, l1) = self.local_span[m];
            set.extend_from_slice(&self.local[l0..l1]);
            let (s0, s1) = self.succ_span[m];
            for &w in &self.succ[s0..s1] {
                let c = self.scc_of[w];
                if c != scc {
                    set.extend_from_slice(&self.sets[c as usize]);
                }
            }
        }
        self.stack.truncate(split);
        set.sort_unstable();
        set.dedup();
        self.sets.push(set);
    }

    /// A shortest-found def-chain from the use of `reg` at `use_pc` to any
    /// non-parameterized source, as instruction indices starting with
    /// `use_pc`. Best-effort (DFS order), for diagnostics.
    fn witness_path(&mut self, use_pc: usize, reg: Reg) -> Vec<usize> {
        let mut path = vec![use_pc];
        let mut visited = vec![false; self.scc_of.len()];
        if self.witness_dfs(use_pc, reg, &mut path, &mut visited) {
            path
        } else {
            Vec::new()
        }
    }

    fn witness_dfs(
        &mut self,
        use_pc: usize,
        reg: Reg,
        path: &mut Vec<usize>,
        visited: &mut [bool],
    ) -> bool {
        let (reaching, kernel) = (self.reaching, self.kernel);
        let defs = reaching.defs_reaching_use(use_pc, reg);
        if defs.is_empty() {
            return true; // uninitialized register: the path ends here
        }
        for def in defs {
            if std::mem::replace(&mut visited[self.def_id(def.pc)], true) {
                continue;
            }
            // Does this def lead to a non-parameterized source at all?
            if self.of_def(def.pc).iter().all(|s| s.is_parameterized()) {
                continue;
            }
            path.push(def.pc);
            let op = &kernel.insts()[def.pc].op;
            match op {
                Op::Ld { space, .. } if !space.is_parameterized() => return true,
                Op::Atom { .. } => return true,
                _ => {
                    let mut operand_regs: Vec<Reg> = op.src_regs();
                    // Selp's pred is already in src_regs.
                    operand_regs.dedup();
                    for r in operand_regs {
                        if self.witness_dfs(def.pc, r, path, visited) {
                            return true;
                        }
                    }
                }
            }
            path.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{AtomOp, CmpOp, KernelBuilder, Type};
    use std::collections::BTreeSet;

    fn classify_built(b: KernelBuilder) -> Classification {
        classify(&b.build().unwrap())
    }

    /// Deterministic: address = param + f(tid).
    #[test]
    fn param_indexed_load_is_deterministic() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.thread_linear_id();
        let addr = b.index64(base, tid, 4);
        let _ = b.ld_global(Type::U32, addr);
        b.exit();
        let c = classify_built(b);
        let (d, n) = c.global_load_counts();
        assert_eq!((d, n), (1, 0));
        let info = c.global_loads().next().unwrap();
        assert!(info.witness.is_empty());
        assert!(info.sources.contains(&AddressSource::Param { pc: 0 }));
    }

    /// Non-deterministic: address uses a value loaded from global memory.
    #[test]
    fn load_fed_address_is_non_deterministic() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("idx", Type::U64);
        let q = b.param("data", Type::U64);
        let idx_base = b.ld_param(Type::U64, p);
        let data_base = b.ld_param(Type::U64, q);
        let tid = b.thread_linear_id();
        let idx_addr = b.index64(idx_base, tid, 4);
        let idx = b.ld_global(Type::U32, idx_addr); // D
        let data_addr = b.index64(data_base, idx, 4);
        let _ = b.ld_global(Type::U32, data_addr); // N
        b.exit();
        let c = classify_built(b);
        assert_eq!(c.global_load_counts(), (1, 1));
        let nd = c
            .global_loads()
            .find(|l| l.class == LoadClass::NonDeterministic)
            .unwrap();
        assert!(!nd.witness.is_empty());
        // The witness chain must end at the feeding load's pc.
        let feeder = c
            .global_loads()
            .find(|l| l.class == LoadClass::Deterministic)
            .unwrap();
        assert_eq!(*nd.witness.last().unwrap(), feeder.pc);
    }

    /// Loop induction variables derived from parameters stay deterministic.
    #[test]
    fn param_derived_loop_induction_is_deterministic() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let i = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        b.place(head);
        let addr = b.index64(base, i, 4);
        let _ = b.ld_global(Type::U32, addr);
        b.push(gcl_ptx::Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        let pr = b.setp(CmpOp::Lt, Type::U32, i, 16i64);
        b.bra_if(pr, head);
        b.exit();
        let c = classify_built(b);
        assert_eq!(c.global_load_counts(), (1, 0));
    }

    /// A loop that accumulates loaded values taints the address.
    #[test]
    fn load_carried_loop_variable_is_non_deterministic() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let i = b.reg();
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        b.place(head);
        let addr = b.index64(base, i, 4);
        let v = b.ld_global(Type::U32, addr);
        // i = v (pointer chasing)
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: i,
            src: v.into(),
        });
        let pr = b.setp(CmpOp::Ne, Type::U32, i, 0i64);
        b.bra_if(pr, head);
        b.exit();
        let c = classify_built(b);
        // The single static load is reached with i=0 (D path) and i=v (N
        // path); the merged verdict must be non-deterministic.
        assert_eq!(c.global_load_counts(), (0, 1));
    }

    /// Flow-sensitivity: a register that held a loaded value but is
    /// unconditionally overwritten with parameterized data is clean.
    #[test]
    fn overwritten_register_is_not_tainted() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let r = b.reg();
        let tid = b.thread_linear_id();
        let addr0 = b.index64(base, tid, 4);
        let loaded = b.ld_global(Type::U32, addr0);
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: loaded.into(),
        });
        // Unconditional overwrite with tid.
        b.push(gcl_ptx::Op::Mov {
            ty: Type::U32,
            dst: r,
            src: tid.into(),
        });
        let addr1 = b.index64(base, r, 4);
        let _ = b.ld_global(Type::U32, addr1);
        b.exit();
        let c = classify_built(b);
        assert_eq!(c.global_load_counts(), (2, 0));
    }

    /// Shared-memory loads taint like any other load (the paper lists
    /// ld.shared among non-deterministic sources).
    #[test]
    fn shared_load_taints_address() {
        let mut b = KernelBuilder::new("k");
        b.shared(128);
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(gcl_ptx::Special::TidX);
        let shaddr = b.mul(Type::U32, tid, 4i64);
        let idx = b.ld_shared(Type::U32, shaddr);
        let addr = b.index64(base, idx, 4);
        let _ = b.ld_global(Type::U32, addr);
        b.exit();
        let c = classify_built(b);
        assert_eq!(c.global_load_counts(), (0, 1));
        let info = c.global_loads().next().unwrap();
        assert!(info.sources.iter().any(|s| matches!(
            s,
            AddressSource::MemoryLoad {
                space: Space::Shared,
                ..
            }
        )));
    }

    /// Atomic results are non-parameterized sources.
    #[test]
    fn atomic_result_taints_address() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("ctr", Type::U64);
        let q = b.param("data", Type::U64);
        let ctr = b.ld_param(Type::U64, p);
        let base = b.ld_param(Type::U64, q);
        let slot = b.atom(AtomOp::Add, Type::U32, ctr, 1i64);
        let addr = b.index64(base, slot, 4);
        let _ = b.ld_global(Type::U32, addr);
        b.exit();
        let c = classify_built(b);
        // The atomic itself is classified (its address is param-derived, so
        // deterministic) and the dependent load is non-deterministic.
        let atom_info = c.loads().find(|l| l.pc == 2).expect("atomic classified");
        assert_eq!(atom_info.class, LoadClass::Deterministic);
        let n: usize = c
            .global_loads()
            .filter(|l| l.class == LoadClass::NonDeterministic)
            .count();
        assert_eq!(n, 1);
        let nd = c
            .global_loads()
            .find(|l| l.class == LoadClass::NonDeterministic)
            .unwrap();
        assert!(nd
            .sources
            .iter()
            .any(|s| matches!(s, AddressSource::AtomicResult { pc: 2 })));
    }

    /// Uninitialized registers are flagged and classified non-deterministic.
    #[test]
    fn uninitialized_address_is_non_deterministic() {
        let mut b = KernelBuilder::new("k");
        let ghost = b.reg();
        let _ = b.ld_global(Type::U32, ghost);
        b.exit();
        let c = classify_built(b);
        let info = c.global_loads().next().unwrap();
        assert_eq!(info.class, LoadClass::NonDeterministic);
        assert!(info
            .sources
            .iter()
            .any(|s| matches!(s, AddressSource::Uninitialized { .. })));
    }

    /// selp's predicate is a data dependence.
    #[test]
    fn selp_predicate_taints_selected_value() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(gcl_ptx::Special::TidX);
        let addr0 = b.index64(base, tid, 4);
        let v = b.ld_global(Type::U32, addr0);
        let cond = b.setp(CmpOp::Gt, Type::U32, v, 0i64); // tainted predicate
        let sel = b.selp(Type::U32, 1i64, 2i64, cond);
        let addr1 = b.index64(base, sel, 4);
        let _ = b.ld_global(Type::U32, addr1);
        b.exit();
        let c = classify_built(b);
        assert_eq!(c.global_load_counts(), (1, 1));
    }

    /// Texture loads count as global-backed loads and as tainting sources.
    #[test]
    fn tex_load_is_classified_and_taints() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(gcl_ptx::Special::TidX);
        let a0 = b.index64(base, tid, 4);
        let t = b.ld(Space::Tex, Type::U32, gcl_ptx::Address::reg(a0));
        let a1 = b.index64(base, t, 4);
        let _ = b.ld_global(Type::U32, a1);
        b.exit();
        let c = classify_built(b);
        assert_eq!(c.global_load_counts(), (1, 1));
    }

    /// Classification is stable: classifying twice yields identical results.
    #[test]
    fn classification_is_deterministic_itself() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("idx", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.thread_linear_id();
        let a0 = b.index64(base, tid, 4);
        let i = b.ld_global(Type::U32, a0);
        let a1 = b.index64(base, i, 4);
        let _ = b.ld_global(Type::U32, a1);
        b.exit();
        let k = b.build().unwrap();
        assert_eq!(classify(&k), classify(&k));
    }

    /// A load through a loop-carried ALU cycle: `b = a; a = b + 8` in a
    /// loop, `a` first loaded from `*buf`. X at `[b]` inside the loop is
    /// traced first and meets the cycle; Y at `[a]` after the loop must
    /// still see the loaded value through it.
    #[test]
    fn a_cycle_cut_does_not_leak_into_a_later_load() {
        let k = gcl_ptx::parse_kernel(
            r#"
.entry cycle_cut (.param .u64 buf)
{
  ld.param.u64 %rd1, [buf];
  ld.global.u64 %rd2, [%rd1];
LOOP:
  mov.u64 %rd3, %rd2;
  add.u64 %rd2, %rd3, 8;
  ld.global.u32 %r1, [%rd3];
  setp.lt.u32 %p1, %r1, 100;
  @%p1 bra LOOP;
  ld.global.u32 %r2, [%rd2];
  exit;
}
"#,
        )
        .unwrap();
        let c = classify(&k);
        // Memoizing `a = b + 8` under X's cut once made Y `{imm}`, so D.
        let want = BTreeSet::from([
            AddressSource::Immediate,
            AddressSource::MemoryLoad {
                pc: 1,
                space: Space::Global,
            },
        ]);
        let x = c.load(4).unwrap();
        let y = c.load(7).unwrap();
        assert_eq!(x.class, LoadClass::NonDeterministic);
        assert_eq!(y.class, LoadClass::NonDeterministic);
        assert_eq!(y.sources, want);
        assert_eq!(y.sources, x.sources);
        assert_eq!(*y.witness.last().unwrap(), 1, "{:?}", y.witness);
        assert_eq!(brute_sources(&k, &ReachingDefs::compute(&k), 7), want);
    }

    /// The memo-free backward trace: from the load's address use, visit
    /// every def reachable over operand edges once and collect each one's
    /// own terminals. No set is shared between loads or defs.
    fn brute_sources(
        kernel: &Kernel,
        rd: &ReachingDefs,
        load_pc: usize,
    ) -> BTreeSet<AddressSource> {
        let Some(base) = kernel.insts()[load_pc].op.addr().and_then(|a| a.base) else {
            return BTreeSet::from([AddressSource::Immediate]);
        };
        let mut out = BTreeSet::new();
        let mut seen = BTreeSet::new();
        let mut work: Vec<(usize, Reg)> = vec![(load_pc, base)];
        while let Some((pc, reg)) = work.pop() {
            let defs = rd.defs_reaching_use(pc, reg);
            if defs.is_empty() {
                out.insert(AddressSource::Uninitialized { reg });
            }
            for d in defs {
                if !seen.insert(*d) {
                    continue;
                }
                let mut operand = |o: &Operand| match *o {
                    Operand::Reg(r) => work.push((d.pc, r)),
                    Operand::Imm(_) | Operand::FImm(_) => {
                        out.insert(AddressSource::Immediate);
                    }
                    Operand::Special(s) => {
                        out.insert(AddressSource::Special(s));
                    }
                };
                match &kernel.insts()[d.pc].op {
                    Op::Ld {
                        space: Space::Param,
                        ..
                    } => {
                        out.insert(AddressSource::Param { pc: d.pc });
                    }
                    Op::Ld {
                        space: Space::Const,
                        ..
                    } => {
                        out.insert(AddressSource::Const { pc: d.pc });
                    }
                    Op::Ld { space, .. } => {
                        out.insert(AddressSource::MemoryLoad {
                            pc: d.pc,
                            space: *space,
                        });
                    }
                    Op::Atom { .. } => {
                        out.insert(AddressSource::AtomicResult { pc: d.pc });
                    }
                    Op::Mov { src, .. }
                    | Op::Cvt { src, .. }
                    | Op::Sfu { a: src, .. }
                    | Op::Unary { a: src, .. } => operand(src),
                    Op::Alu { a, b, .. } | Op::Setp { a, b, .. } => {
                        operand(a);
                        operand(b);
                    }
                    Op::Mad { a, b, c, .. } => {
                        operand(a);
                        operand(b);
                        operand(c);
                    }
                    Op::Selp { a, b, pred, .. } => {
                        operand(a);
                        operand(b);
                        operand(&Operand::Reg(*pred));
                    }
                    op => panic!("definition at {op}"),
                }
            }
        }
        out
    }

    /// Every classified load's sources equal the memo-free trace's, on
    /// every workload, corpus, fuzz and chain kernel.
    #[test]
    fn sources_equal_the_memo_free_trace_on_every_test_kernel() {
        for k in crate::test_kernels::all() {
            let rd = ReachingDefs::compute(&k);
            for load in classify_with(&k, &rd).loads() {
                assert_eq!(
                    load.sources,
                    brute_sources(&k, &rd, load.pc),
                    "{}: load at pc {}",
                    k.name(),
                    load.pc
                );
            }
        }
    }
}
