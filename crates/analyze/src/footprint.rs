//! Loop-aware footprint analysis: per-load per-CTA 128 B-block footprints
//! and the static inter-CTA sharing they imply.
//!
//! This is the static side of the paper's "hidden data locality" result:
//! CTAs of real kernels touch overlapping 128 B block sets, which clustered
//! CTA scheduling and a semi-global L2 can exploit. The dynamic side
//! (`gcl_sim`'s block tracker) *measures* that overlap; this module
//! *predicts* it from the PTX alone, given only the launch geometry:
//!
//! 1. Every load address is evaluated under the launch geometry to a
//!    [`SymAffine`] form over `{tid.*, ctaid.*, %laneid, %warpid, loop
//!    induction variables}` by the crate's one address evaluator (the
//!    coalescing predictor of [`crate::affine`] reads the same evaluation
//!    without a geometry). Loop trip counts are recovered from the exit
//!    guard when the bound is a static constant.
//! 2. The per-CTA byte footprint is the Minkowski sum of one strided
//!    [`ARange`] per non-CTA term; quantizing by 128 B gives the block
//!    footprint. The CTA terms only *shift* that range, so inter-CTA overlap
//!    reduces to intersecting one range with a shifted copy of itself —
//!    one CRT intersection per distinct CTA-coordinate delta.
//! 3. Per load, the deltas classify into a [`Sharing`] verdict; per kernel
//!    they aggregate into a [`SharingMatrix`] and a suggested [`ClusterMap`]
//!    (the smallest run of consecutive linear CTA ids that captures the
//!    majority of predicted sharing — directly consumable by the
//!    simulator's clustered CTA scheduler).
//!
//! Soundness: `Private` is only claimed from *over-approximate* disjointness
//! and `Shared` only from *exact* nonempty intersections, so both verdicts
//! survive the range arithmetic's approximations. Addresses that depend on
//! loaded values (pointer chasing) report [`Sharing::Unbounded`] rather
//! than a wrong range. Base pointers are assumed 128 B-aligned (the
//! simulator's allocator guarantees it); when an address carries an unknown
//! uniform addend the analysis falls back to byte-level reasoning with a
//! full block of slack.

use crate::eval::SymEval;
use crate::facts::Facts;
use crate::symaff::{ARange, Coeff, LaunchCtx, SymAffine, Term};
use gcl_core::AddressSource;
use gcl_ptx::{Kernel, Op, Space};
use std::fmt;

/// Block granularity of the footprint model (the simulator's L2 line).
pub const BLOCK_BYTES: i64 = 128;

/// Per-dimension cap on the CTA-delta scan for very large grids.
const MAX_DELTA: i64 = 32;

/// Largest grid for which the full [`SharingMatrix`] is materialized.
const MAX_MATRIX_CTAS: u64 = 256;

/// Static inter-CTA sharing verdict for one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Some grid dimension with more than one CTA has coefficient zero:
    /// CTAs differing only along it read *identical* footprints.
    Broadcast,
    /// Some CTA pair provably shares at least one 128 B block.
    Shared,
    /// Every CTA pair provably touches disjoint blocks.
    Private,
    /// The address depends on loaded data (pointer chase); the footprint
    /// is statically unbounded.
    Unbounded,
    /// The analysis could not decide (unknown coefficients, unknown trip
    /// counts, or inexact ranges in the way).
    Unknown,
}

impl Sharing {
    /// Short lowercase label, stable for CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Sharing::Broadcast => "broadcast",
            Sharing::Shared => "shared",
            Sharing::Private => "private",
            Sharing::Unbounded => "unbounded",
            Sharing::Unknown => "unknown",
        }
    }
}

impl fmt::Display for Sharing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Footprint and sharing prediction for one global-backed load.
#[derive(Debug, Clone)]
pub struct LoadFootprint {
    /// Instruction index of the load.
    pub pc: usize,
    /// State space accessed.
    pub space: Space,
    /// Access size in bytes.
    pub bytes: u32,
    /// Symbolic affine form of the address, when one was found.
    pub sym: Option<SymAffine>,
    /// Inter-CTA sharing verdict.
    pub sharing: Sharing,
    /// Per-CTA 128 B-block footprint (CTA 0, base taken as 0), when the
    /// range is computable.
    pub blocks: Option<ARange>,
    /// Number of blocks in [`LoadFootprint::blocks`] (an upper bound when
    /// the range is inexact).
    pub block_count: Option<u64>,
    /// Bytes between the footprints of x-adjacent CTAs, when known.
    pub cta_stride_x: Option<i64>,
    /// Whether the footprint claims are exact (unguarded load, exact
    /// ranges, no unknown uniform addend).
    pub exact: bool,
}

/// Symmetric CTA-pair sharing counts: entry `(i, j)` is the number of
/// static loads predicted to share at least one block between linear CTAs
/// `i` and `j`.
#[derive(Debug, Clone)]
pub struct SharingMatrix {
    n: usize,
    counts: Vec<u32>,
}

impl SharingMatrix {
    fn new(n: usize) -> SharingMatrix {
        SharingMatrix {
            n,
            counts: vec![0; n * n],
        }
    }

    /// Number of CTAs covered (0 when the grid was too large to
    /// materialize the matrix).
    pub fn n_ctas(&self) -> usize {
        self.n
    }

    /// Sharing count for the unordered pair `(i, j)`.
    pub fn at(&self, i: usize, j: usize) -> u32 {
        self.counts[i * self.n + j]
    }

    fn bump(&mut self, i: usize, j: usize) {
        self.counts[i * self.n + j] += 1;
        if i != j {
            self.counts[j * self.n + i] += 1;
        }
    }

    /// Total sharing units over unordered pairs `i < j`.
    pub fn total(&self) -> u64 {
        let mut t = 0u64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                t += u64::from(self.at(i, j));
            }
        }
        t
    }

    /// Sharing units falling within clusters of `g` consecutive linear ids.
    pub fn within(&self, g: usize) -> u64 {
        let g = g.max(1);
        let mut t = 0u64;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if i / g == j / g {
                    t += u64::from(self.at(i, j));
                }
            }
        }
        t
    }
}

/// Suggested clustered-CTA-scheduler group size derived from the
/// [`SharingMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterMap {
    /// Smallest group of consecutive linear CTA ids capturing at least
    /// half of the predicted sharing (1 when there is no sharing to
    /// capture).
    pub group: u64,
    /// Fraction of predicted sharing falling within those groups.
    pub within_fraction: f64,
}

/// Locality analysis of one kernel under one launch geometry.
#[derive(Debug, Clone)]
pub struct KernelLocality {
    /// Kernel name.
    pub kernel: String,
    /// The launch geometry analyzed.
    pub launch: LaunchCtx,
    /// Per-load footprints, in pc order.
    pub loads: Vec<LoadFootprint>,
    /// CTA-pair sharing counts (empty when the grid exceeds the matrix
    /// cap).
    pub matrix: SharingMatrix,
    /// Suggested scheduler cluster size.
    pub cluster: ClusterMap,
}

impl fmt::Display for KernelLocality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel `{}` locality over {}x{}x{} CTAs of {}x{}x{} threads:",
            self.kernel,
            self.launch.nctaid[0],
            self.launch.nctaid[1],
            self.launch.nctaid[2],
            self.launch.ntid[0],
            self.launch.ntid[1],
            self.launch.ntid[2],
        )?;
        for l in &self.loads {
            let sym = l
                .sym
                .as_ref()
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".to_string());
            let blocks = match (l.block_count, &l.blocks) {
                (Some(n), Some(r)) => format!("{n} block(s) {r}"),
                _ => "unbounded".to_string(),
            };
            writeln!(
                f,
                "  pc {:>3} {:<9} [{}] {} — {}{}",
                l.pc,
                l.sharing.label(),
                sym,
                blocks,
                if l.exact { "exact" } else { "approx" },
                match l.cta_stride_x {
                    Some(s) => format!(", cta-stride-x {s} B"),
                    None => String::new(),
                },
            )?;
        }
        let total = self.matrix.total();
        writeln!(
            f,
            "  sharing pairs: {total} unit(s); suggested cluster group {} ({:.0}% within)",
            self.cluster.group,
            self.cluster.within_fraction * 100.0,
        )
    }
}

/// Per-CTA-pair sharing verdict, before aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PairShare {
    /// The two footprints are identical (all differing dims have zero
    /// coefficient).
    All,
    /// Exactly intersecting block ranges: provably shares blocks.
    Blocks,
    /// Provably disjoint.
    Disjoint,
    /// Cannot tell.
    Unknown,
}

/// Quantize a byte-offset range of `bytes`-wide accesses to 128 B block
/// indices. Inexact results are supersets.
fn blockify(r: &ARange, bytes: u32) -> ARange {
    let s = i64::from(bytes.max(1));
    let lo_b = r.lo.div_euclid(BLOCK_BYTES);
    let hi_b = (r.hi + s - 1).div_euclid(BLOCK_BYTES);
    if r.step <= BLOCK_BYTES {
        // Consecutive accesses land at most one block apart: contiguous.
        return ARange::new(lo_b, hi_b, 1, r.exact);
    }
    if r.step % BLOCK_BYTES == 0 {
        let first = ARange::new(
            lo_b,
            r.hi.div_euclid(BLOCK_BYTES),
            r.step / BLOCK_BYTES,
            r.exact,
        );
        // Accesses straddling a block boundary touch the next block too.
        if r.lo.rem_euclid(BLOCK_BYTES) + s > BLOCK_BYTES {
            return first.merge(&first.shift(1));
        }
        return first;
    }
    ARange::new(lo_b, hi_b, 1, false)
}

/// Blocks that execute on every path from entry to an exit: a block
/// dominating every exit-carrying block runs in every thread, so a load
/// there carries *exact* footprint claims (no guard, predicate or branch
/// can mask part of its index space off).
fn always_executed(facts: &Facts<'_>) -> Vec<bool> {
    let blocks = facts.cfg().blocks();
    let exits: Vec<usize> = (0..blocks.len())
        .filter(|&b| blocks[b].succs.is_empty())
        .collect();
    (0..blocks.len())
        .map(|b| !exits.is_empty() && exits.iter().all(|&e| facts.dom.dominates(b, e)))
        .collect()
}

/// Whether the instruction at `pc` executes in every thread that enters
/// the kernel: its block dominates every exit, or it sits in a counted
/// loop (trip count recovered, >= 1) whose header does. In the latter case
/// the block must dominate all the loop's latches, so it runs on every
/// iteration rather than under a conditional inside the body.
fn runs_unconditionally(eval: &mut SymEval<'_>, unconditional: &[bool], pc: usize) -> bool {
    let facts = eval.facts;
    let mut b = facts.cfg().block_of(pc);
    loop {
        if unconditional[b] {
            return true;
        }
        let Some(l) = facts.forest.innermost_of(b) else {
            return false;
        };
        let lp = &facts.forest.loops()[l];
        // Must run on every iteration, not under a conditional in the body
        // (the header trivially dominates its latches).
        if !lp.latches.iter().all(|&lt| facts.dom.dominates(b, lt)) {
            return false;
        }
        if !matches!(eval.loop_trips(l), Some(t) if t >= 1) {
            return false;
        }
        // The loop body runs iff the loop is entered: continue from the
        // header's immediate dominator, which sits outside the loop (the
        // entry block is its own idom — stop if the header is the entry).
        let Some(pre) = facts.dom.idom(lp.header).filter(|&d| d != lp.header) else {
            return false;
        };
        b = pre;
    }
}

/// Compute per-load footprints, the sharing matrix and the cluster map for
/// `kernel` under launch geometry `ctx`.
pub fn footprints(kernel: &Kernel, ctx: &LaunchCtx) -> KernelLocality {
    locality(&Facts::new(kernel), ctx)
}

/// [`footprints`] over facts the caller already has.
pub(crate) fn locality(facts: &Facts<'_>, ctx: &LaunchCtx) -> KernelLocality {
    let mut eval = SymEval::new(facts, Some(*ctx));
    let unconditional = always_executed(facts);
    let mut loads = Vec::new();
    for (pc, inst) in facts.kernel.insts().iter().enumerate() {
        let Op::Ld {
            space, ty, addr, ..
        } = &inst.op
        else {
            continue;
        };
        if !matches!(space, Space::Global | Space::Local | Space::Tex) {
            continue;
        }
        let sym = eval.address(pc, addr);
        // A load is guarded if predicated directly, or if its block is
        // reachable only through a branch (some threads/CTAs may skip it).
        // Loop bodies are an exception: with a recovered trip count >= 1
        // the body runs whenever its header does, so the loop's own exit
        // branch does not make the load conditional.
        let guarded = inst.guard.is_some() || !runs_unconditionally(&mut eval, &unconditional, pc);
        loads.push(build_footprint(
            &mut eval,
            ctx,
            pc,
            *space,
            ty.size_bytes(),
            sym,
            guarded,
        ));
    }

    let n = ctx.n_ctas();
    let matrix_n = if n <= MAX_MATRIX_CTAS { n as usize } else { 0 };
    let mut matrix = SharingMatrix::new(matrix_n);
    if matrix_n > 1 {
        let coords = cta_coords(ctx);
        for load in &loads {
            let Some(f) = &load.sym else { continue };
            let f0 = footprint_bytes(&mut eval, ctx, f);
            for i in 0..matrix_n {
                for j in (i + 1)..matrix_n {
                    let delta = [
                        i64::from(coords[j][0]) - i64::from(coords[i][0]),
                        i64::from(coords[j][1]) - i64::from(coords[i][1]),
                        i64::from(coords[j][2]) - i64::from(coords[i][2]),
                    ];
                    if matches!(
                        pair_share(f, &f0, delta, load.bytes),
                        PairShare::All | PairShare::Blocks
                    ) {
                        matrix.bump(i, j);
                    }
                }
            }
        }
    }
    let cluster = cluster_map(&matrix);

    KernelLocality {
        kernel: facts.kernel.name().to_string(),
        launch: *ctx,
        loads,
        matrix,
        cluster,
    }
}

/// Grid coordinates of every linear CTA id, x-major like the simulator.
fn cta_coords(ctx: &LaunchCtx) -> Vec<[u32; 3]> {
    let mut out = Vec::new();
    for z in 0..ctx.nctaid[2].max(1) {
        for y in 0..ctx.nctaid[1].max(1) {
            for x in 0..ctx.nctaid[0].max(1) {
                out.push([x, y, z]);
            }
        }
    }
    out
}

/// Per-CTA byte footprint (CTA terms excluded): the Minkowski sum of one
/// strided range per non-CTA term, plus the constant. `None` when a
/// coefficient or domain is unknown. The bool is the unknown-uniform flag.
fn footprint_bytes(
    eval: &mut SymEval<'_>,
    ctx: &LaunchCtx,
    f: &SymAffine,
) -> Option<(ARange, bool)> {
    let mut r = ARange::singleton(f.k);
    for (t, c) in f.terms() {
        if matches!(t, Term::CtaIdX | Term::CtaIdY | Term::CtaIdZ) {
            continue;
        }
        let Coeff::Known(c) = c else { return None };
        if c == 0 {
            continue;
        }
        // The value domain of the term: geometry for tids and the lane,
        // the trip count for an induction variable.
        let dom = match t {
            Term::Iv(l) => eval.loop_trips(l),
            other => ctx.term_domain(other),
        }?;
        r = r.add(&ARange::strided(c, dom.max(1)));
    }
    Some((r, f.ubase))
}

/// Sharing verdict for one CTA-coordinate delta.
fn pair_share(
    f: &SymAffine,
    f0: &Option<(ARange, bool)>,
    delta: [i64; 3],
    bytes: u32,
) -> PairShare {
    let dims = [Term::CtaIdX, Term::CtaIdY, Term::CtaIdZ];
    let mut shift = 0i64;
    let mut all_zero = true;
    for (d, &dv) in dims.iter().zip(&delta) {
        if dv == 0 {
            continue;
        }
        match f.coeff(*d) {
            Coeff::Known(0) => {}
            Coeff::Known(c) => {
                all_zero = false;
                shift += c * dv;
            }
            Coeff::Unknown => return PairShare::Unknown,
        }
    }
    if all_zero {
        return PairShare::All;
    }
    let Some((r0, ubase)) = f0 else {
        return PairShare::Unknown;
    };
    if shift == 0 {
        // Distinct CTAs, same footprint start: identical ranges.
        return PairShare::All;
    }
    let shifted = r0.shift(shift);
    if *ubase {
        // Unknown uniform addend: block alignment is unknowable, but byte
        // identity survives (the addend shifts both CTAs equally).
        if let Some(i) = r0.intersect(&shifted) {
            if i.exact {
                return PairShare::Blocks;
            }
            return PairShare::Unknown;
        }
        // Disjoint byte progressions may still share a block; only a full
        // block of clearance rules it out.
        let gap_clear = shifted.lo - r0.hi > i64::from(bytes) + BLOCK_BYTES
            || r0.lo - shifted.hi > i64::from(bytes) + BLOCK_BYTES;
        let dense = r0.step == 1 || r0.count() == 1;
        if gap_clear && dense {
            return PairShare::Disjoint;
        }
        return PairShare::Unknown;
    }
    let b0 = blockify(r0, bytes);
    let bd = blockify(&shifted, bytes);
    match b0.intersect(&bd) {
        Some(i) if i.exact => PairShare::Blocks,
        Some(_) => PairShare::Unknown,
        // Supersets disjoint ⇒ the true block sets are disjoint.
        None => PairShare::Disjoint,
    }
}

fn build_footprint(
    eval: &mut SymEval<'_>,
    ctx: &LaunchCtx,
    pc: usize,
    space: Space,
    bytes: u32,
    sym: Option<SymAffine>,
    guarded: bool,
) -> LoadFootprint {
    let Some(f) = sym else {
        // Not affine at all. Loaded-value addresses are the paper's
        // pointer-chase pattern: statically unbounded footprint.
        let chased = eval.facts.classes.load(pc).is_some_and(|l| {
            l.sources
                .iter()
                .any(|s| matches!(s, AddressSource::MemoryLoad { .. }))
        });
        return LoadFootprint {
            pc,
            space,
            bytes,
            sym: None,
            sharing: if chased {
                Sharing::Unbounded
            } else {
                Sharing::Unknown
            },
            blocks: None,
            block_count: None,
            cta_stride_x: None,
            exact: false,
        };
    };
    let f0 = footprint_bytes(eval, ctx, &f);
    let (blocks, block_count) = match &f0 {
        Some((r, false)) => {
            let b = blockify(r, bytes);
            let c = b.count();
            (Some(b), Some(c))
        }
        _ => (None, None),
    };
    let cta_stride_x = match f.coeff(Term::CtaIdX) {
        Coeff::Known(c) => Some(c),
        Coeff::Unknown => None,
    };
    let sharing = if ctx.n_ctas() <= 1 {
        Sharing::Private
    } else {
        classify_sharing(&f, &f0, ctx, bytes)
    };
    let exact = !guarded && !f.ubase && f0.is_some_and(|(r, _)| r.exact);
    LoadFootprint {
        pc,
        space,
        bytes,
        sym: Some(f),
        sharing,
        blocks,
        block_count,
        cta_stride_x,
        exact,
    }
}

/// Aggregate per-delta verdicts into the load's [`Sharing`] label.
fn classify_sharing(
    f: &SymAffine,
    f0: &Option<(ARange, bool)>,
    ctx: &LaunchCtx,
    bytes: u32,
) -> Sharing {
    // Broadcast: some dimension with >1 CTA has a zero coefficient — CTAs
    // differing only along it read identical footprints. This survives
    // unknown coefficients elsewhere (the mmXn `row*n` pattern).
    let dims = [
        (Term::CtaIdX, ctx.nctaid[0]),
        (Term::CtaIdY, ctx.nctaid[1]),
        (Term::CtaIdZ, ctx.nctaid[2]),
    ];
    if dims
        .iter()
        .any(|&(t, n)| n > 1 && f.coeff(t) == Coeff::Known(0))
    {
        return Sharing::Broadcast;
    }

    let mut any_shared = false;
    let mut any_unknown = false;
    let mut capped = false;
    let lim = |n: u32| -> i64 {
        let d = i64::from(n.max(1)) - 1;
        if d > MAX_DELTA {
            d.min(MAX_DELTA)
        } else {
            d
        }
    };
    let (dx, dy, dz) = (lim(ctx.nctaid[0]), lim(ctx.nctaid[1]), lim(ctx.nctaid[2]));
    capped |= i64::from(ctx.nctaid[0].max(1)) - 1 > dx
        || i64::from(ctx.nctaid[1].max(1)) - 1 > dy
        || i64::from(ctx.nctaid[2].max(1)) - 1 > dz;
    for ddz in 0..=dz {
        for ddy in -dy..=dy {
            for ddx in -dx..=dx {
                // Unordered pairs: skip the identity and mirrored deltas.
                if ddz == 0 && (ddy < 0 || (ddy == 0 && ddx <= 0)) {
                    continue;
                }
                match pair_share(f, f0, [ddx, ddy, ddz], bytes) {
                    PairShare::All | PairShare::Blocks => any_shared = true,
                    PairShare::Unknown => any_unknown = true,
                    PairShare::Disjoint => {}
                }
            }
        }
    }
    if any_shared {
        Sharing::Shared
    } else if any_unknown || capped {
        Sharing::Unknown
    } else {
        Sharing::Private
    }
}

/// Smallest consecutive-linear-id group capturing at least half of the
/// predicted sharing.
fn cluster_map(m: &SharingMatrix) -> ClusterMap {
    let total = m.total();
    if total == 0 || m.n_ctas() <= 1 {
        return ClusterMap {
            group: 1,
            within_fraction: 1.0,
        };
    }
    for g in 1..=m.n_ctas() {
        let w = m.within(g);
        if 2 * w >= total {
            return ClusterMap {
                group: g as u64,
                within_fraction: w as f64 / total as f64,
            };
        }
    }
    ClusterMap {
        group: m.n_ctas() as u64,
        within_fraction: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{AluOp, CmpOp, KernelBuilder, Special, Type};

    fn ctx_1d(ntid: u32, nctaid: u32) -> LaunchCtx {
        LaunchCtx::new([ntid, 1, 1], [nctaid, 1, 1])
    }

    /// addr = buf + gid.x * 4 — classic streaming kernel.
    fn streaming_kernel() -> Kernel {
        let mut b = KernelBuilder::new("stream");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let gid = b.thread_linear_id();
        let a = b.index64(base, gid, 4);
        let _ = b.ld_global(Type::U32, a);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn streaming_load_is_private() {
        let k = streaming_kernel();
        let ctx = ctx_1d(64, 4);
        let loc = footprints(&k, &ctx);
        assert_eq!(loc.loads.len(), 1);
        let l = &loc.loads[0];
        assert_eq!(l.sharing, Sharing::Private, "form {:?}", l.sym);
        // 64 threads * 4 B = 256 B = 2 blocks per CTA.
        assert_eq!(l.block_count, Some(2));
        assert_eq!(l.cta_stride_x, Some(256));
        assert!(l.exact);
        assert_eq!(loc.matrix.total(), 0);
        assert_eq!(loc.cluster.group, 1);
    }

    /// addr = buf + tid.x * 4 — every CTA reads the same 256 B.
    #[test]
    fn tid_only_load_is_broadcast() {
        let mut b = KernelBuilder::new("bcast");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let a = b.index64(base, tid, 4);
        let _ = b.ld_global(Type::U32, a);
        b.exit();
        let k = b.build().unwrap();
        let loc = footprints(&k, &ctx_1d(64, 4));
        assert_eq!(loc.loads[0].sharing, Sharing::Broadcast);
        // All 6 CTA pairs share, for the single load.
        assert_eq!(loc.matrix.total(), 6);
    }

    /// Halo pattern: addr = buf + (gid.x + tid.x_extent) — CTA footprints
    /// offset by half a CTA overlap with their neighbor.
    #[test]
    fn overlapping_windows_are_shared() {
        // addr = buf + 4*(ctaid.x*32 + tid.x), 64 threads: each CTA reads
        // 256 B starting at ctaid.x*128 — adjacent CTAs overlap one block.
        let mut b = KernelBuilder::new("halo");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let cta = b.sreg(Special::CtaIdX);
        let tid = b.sreg(Special::TidX);
        let half = b.mul(Type::U32, cta, 32i64);
        let idx = b.add(Type::U32, half, tid);
        let a = b.index64(base, idx, 4);
        let _ = b.ld_global(Type::U32, a);
        b.exit();
        let k = b.build().unwrap();
        let loc = footprints(&k, &ctx_1d(64, 4));
        let l = &loc.loads[0];
        assert_eq!(l.sharing, Sharing::Shared, "form {:?}", l.sym);
        assert_eq!(l.cta_stride_x, Some(128));
        // Adjacent pairs share; the matrix should prefer small clusters.
        assert!(loc.matrix.at(0, 1) > 0);
        assert_eq!(loc.matrix.at(0, 3), 0);
    }

    /// Pointer chase: addr = *p — unbounded.
    #[test]
    fn pointer_chase_is_unbounded() {
        let mut b = KernelBuilder::new("chase");
        let p = b.param("head", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let next = b.ld_global(Type::U64, base);
        let _ = b.ld_global(Type::U32, next);
        b.exit();
        let k = b.build().unwrap();
        let loc = footprints(&k, &ctx_1d(32, 2));
        assert_eq!(loc.loads[1].sharing, Sharing::Unbounded);
        assert!(loc.loads[1].blocks.is_none());
    }

    /// Counted loop: for (i = 0; i < 8; i++) load buf[gid*8 + i].
    #[test]
    fn counted_loop_footprint_uses_trip_count() {
        let mut b = KernelBuilder::new("looped");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let gid = b.thread_linear_id();
        let row = b.mul(Type::U32, gid, 8i64);
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        let done = b.new_label();
        b.place(head);
        let pr = b.setp(CmpOp::Ge, Type::U32, i, 8i64);
        b.bra_if(pr, done);
        let idx = b.add(Type::U32, row, i);
        let a = b.index64(base, idx, 4);
        let _ = b.ld_global(Type::U32, a);
        b.push(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        b.bra(head);
        b.place(done);
        b.exit();
        let k = b.build().unwrap();
        let ctx = ctx_1d(32, 2);
        let loc = footprints(&k, &ctx);
        let l = &loc.loads[0];
        let f = l.sym.as_ref().expect("affine form");
        // 8 iterations * 4 B contiguous per thread, 32 threads per CTA:
        // 32*8*4 = 1024 B = 8 blocks, private per CTA.
        assert_eq!(l.block_count, Some(8), "form {f}");
        assert_eq!(l.sharing, Sharing::Private);
        assert!(l.exact);
    }

    /// Unknown trip count (bound from a scalar param) keeps broadcast
    /// detection alive but blocks the footprint.
    #[test]
    fn unknown_trip_still_detects_broadcast() {
        let mut b = KernelBuilder::new("mmrow");
        let p = b.param("buf", Type::U64);
        let pn = b.param("n", Type::U32);
        let base = b.ld_param(Type::U64, p);
        let n = b.ld_param(Type::U32, pn);
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        let done = b.new_label();
        b.place(head);
        let pr = b.setp(CmpOp::Ge, Type::U32, i, n);
        b.bra_if(pr, done);
        let a = b.index64(base, i, 4);
        let _ = b.ld_global(Type::U32, a);
        b.push(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        b.bra(head);
        b.place(done);
        b.exit();
        let k = b.build().unwrap();
        let loc = footprints(&k, &ctx_1d(32, 4));
        let l = &loc.loads[0];
        assert_eq!(l.sharing, Sharing::Broadcast, "form {:?}", l.sym);
        assert_eq!(l.block_count, None);
    }

    /// Down-counting do-while loop: i = 8; do { ... i -= 1 } while (i > 0).
    #[test]
    fn down_counting_latch_loop_trip() {
        let mut b = KernelBuilder::new("down");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 8i64.into(),
        });
        let head = b.new_label();
        b.place(head);
        let a = b.index64(base, i, 4);
        let _ = b.ld_global(Type::U32, a);
        b.push(Op::Alu {
            op: AluOp::Sub,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        let pr = b.setp(CmpOp::Gt, Type::U32, i, 0i64);
        b.bra_if(pr, head);
        b.exit();
        let k = b.build().unwrap();
        let loc = footprints(&k, &ctx_1d(1, 2));
        let l = &loc.loads[0];
        // i takes 8, 7, ..., 1 at the load: 8 words = 32 B, 1 block.
        assert_eq!(l.block_count, Some(1), "form {:?}", l.sym);
        assert_eq!(l.sharing, Sharing::Broadcast);
    }
}
