//! Data-block access tracking across CTAs: cold misses, reuse, and the
//! hidden inter-CTA locality of the paper's Figures 10–12.
//!
//! Every coalesced block of every global load is recorded, so the per-record
//! path hashes nothing: the blocks of the device heap sit in one dense table
//! indexed by `(addr - HEAP_BASE) / line`, and one probe of it reaches
//! everything a record updates. Blocks outside the heap keep a side map.

use crate::HEAP_BASE;
use gcl_mem::{Dec, Enc, Wire, WireError};
use std::collections::{BTreeMap, HashMap};

/// Summary statistics extracted from a [`BlockTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSummary {
    /// Distinct 128 B blocks touched.
    pub blocks: u64,
    /// Total (global-load) memory requests.
    pub accesses: u64,
    /// Cold-miss ratio: first-touches over all accesses (Figure 10).
    pub cold_miss_ratio: f64,
    /// Mean accesses per block (Figure 10's line).
    pub mean_accesses_per_block: f64,
    /// Fraction of blocks touched by ≥ 2 CTAs (Figure 11, blue bars).
    pub shared_block_ratio: f64,
    /// Fraction of accesses that go to such shared blocks (Figure 11, red).
    pub shared_access_ratio: f64,
    /// Mean number of CTAs touching a shared block (Figure 11, line).
    pub mean_ctas_per_shared_block: f64,
}

/// Tracks, per data block (one L1 line), how often and by which CTAs it is
/// accessed.
///
/// CTA distances (Figure 12) use the *consecutive-accessor* definition: each
/// access to a block by a CTA different from the block's previous accessor
/// contributes one sample `|cta - prev_cta|`. This is linear in the access
/// count (the all-pairs definition is quadratic in sharers) and reflects the
/// runtime proximity of sharing that a scheduler could actually exploit.
#[derive(Debug)]
pub struct BlockTracker {
    /// `log2` of the block size.
    shift: u32,
    /// Bytes of device heap the dense table may index: the allocated heap as
    /// of the latest launch, capped at [`MAX_HEAP_BLOCKS`] blocks.
    heap_bytes: u64,
    /// Heap blocks by index `(addr - HEAP_BASE) >> shift`, grown to the
    /// highest block recorded. An entry with `count == 0` is untouched.
    heap: Vec<Block>,
    /// Blocks the dense table does not hold, by address.
    other: HashMap<u64, Block>,
    total_accesses: u64,
    /// Samples per CTA distance below [`NEAR_DISTANCES`], indexed by
    /// distance and grown to the largest seen.
    near_distances: Vec<u64>,
    /// Samples per CTA distance from [`NEAR_DISTANCES`] up.
    far_distances: BTreeMap<u64, u64>,
    /// Interned kernel names of launches seen via
    /// [`begin_launch`](Self::begin_launch).
    kernels: Vec<String>,
    /// Index into `kernels` for the launch in flight.
    current_kernel: Option<u32>,
    /// Current launch only: addresses of the blocks whose `live` list is
    /// non-empty. [`begin_launch`](Self::begin_launch) folds exactly these
    /// into `per_pc` and empties their lists, so a launch boundary costs
    /// O(blocks the launch touched), and CTA-id reuse across launches never
    /// counts as sharing.
    touched: Vec<u64>,
    /// Current launch only: accesses per pc, indexed by pc.
    live_accesses: Vec<u64>,
    /// Per-(kernel, pc) sharing statistics of the launches already folded.
    per_pc: BTreeMap<(u32, u64), PcAgg>,
}

/// Most blocks the dense table holds (512 MiB of heap at 128 B lines), so an
/// absurd allocation cannot size it; blocks past it go to the side map.
const MAX_HEAP_BLOCKS: u64 = 1 << 22;

/// Distances the histogram counts in a vector; a grid needs more CTAs than
/// this before a sample lands in the map beside it.
const NEAR_DISTANCES: u64 = 1 << 16;

#[derive(Debug, Default, Clone)]
struct Block {
    count: u64,
    last_cta: u64,
    /// `(cta, accesses)`, sorted by CTA.
    ctas: Vec<(u64, u64)>,
    /// Current launch only: the distinct `(pc, cta)` pairs that touched the
    /// block, sorted.
    live: Vec<(u64, u64)>,
}

#[derive(Debug, Default, Clone)]
struct PcAgg {
    accesses: u64,
    blocks: u64,
    shared_blocks: u64,
    max_ctas_per_block: u64,
    pairs: BTreeMap<(u64, u64), u64>,
}

gcl_mem::declare_wire! { PcAgg { accesses, blocks, shared_blocks, max_ctas_per_block, pairs } }

/// A block as written: address, count, `(cta, accesses)` pairs, last CTA.
type BlockRow = (u64, u64, Vec<(u64, u64)>, u64);

/// The launch in flight as written: a pc and, per block it touched, the
/// block's address and CTAs.
type LiveRow = (u64, Vec<(u64, Vec<u64>)>);

/// Measured inter-CTA sharing for one static load (one pc of one kernel),
/// aggregated over launches but with CTA sets scoped *per launch* — two
/// launches reusing CTA id 0 do not make a block "shared".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcSharing {
    /// Kernel name the pc belongs to.
    pub kernel: String,
    /// Instruction index of the load.
    pub pc: u64,
    /// Memory requests recorded for this pc.
    pub accesses: u64,
    /// Block-launch instances touched (a block touched in two launches
    /// counts twice).
    pub blocks: u64,
    /// Instances touched by ≥ 2 CTAs within one launch.
    pub shared_blocks: u64,
    /// Largest CTA count on a single instance.
    pub max_ctas_per_block: u64,
    /// Per unordered CTA pair `(i, j)`, `i < j`: instances both touched.
    pub pairs: Vec<((u64, u64), u64)>,
}

impl PcSharing {
    /// Fraction of this pc's block instances shared by ≥ 2 CTAs.
    pub fn shared_ratio(&self) -> f64 {
        ratio(self.shared_blocks, self.blocks)
    }
}

impl BlockTracker {
    /// An empty tracker of `line_bytes`-sized blocks (a power of two).
    pub fn new(line_bytes: u32) -> BlockTracker {
        debug_assert!(line_bytes.is_power_of_two());
        BlockTracker {
            shift: line_bytes.trailing_zeros(),
            heap_bytes: 0,
            heap: Vec::new(),
            other: HashMap::new(),
            total_accesses: 0,
            near_distances: Vec::new(),
            far_distances: BTreeMap::new(),
            kernels: Vec::new(),
            current_kernel: None,
            touched: Vec::new(),
            live_accesses: Vec::new(),
            per_pc: BTreeMap::new(),
        }
    }

    /// Index of `block_addr` in the dense table: a line-aligned address
    /// inside the allocated heap.
    fn heap_index(&self, block_addr: u64) -> Option<usize> {
        let off = block_addr.wrapping_sub(HEAP_BASE);
        (off < self.heap_bytes && off.trailing_zeros() >= self.shift)
            .then(|| (off >> self.shift) as usize)
    }

    /// The device heap now ends at `heap_end`: widen the dense table's
    /// window to it and adopt the blocks the side map held for that range.
    fn set_heap_end(&mut self, heap_end: u64) {
        let bytes = heap_end
            .saturating_sub(HEAP_BASE)
            .min(MAX_HEAP_BLOCKS << self.shift);
        if bytes <= self.heap_bytes {
            return;
        }
        self.heap_bytes = bytes;
        let adopted: Vec<u64> = self
            .other
            .keys()
            .copied()
            .filter(|&addr| self.heap_index(addr).is_some())
            .collect();
        for addr in adopted {
            let block = self.other.remove(&addr).expect("key just listed");
            *self.block_mut(addr) = block;
        }
    }

    fn block(&self, block_addr: u64) -> Option<&Block> {
        match self.heap_index(block_addr) {
            Some(i) => self.heap.get(i),
            None => self.other.get(&block_addr),
        }
    }

    fn block_mut(&mut self, block_addr: u64) -> &mut Block {
        let index = self.heap_index(block_addr);
        slot(&mut self.heap, &mut self.other, index, block_addr)
    }

    /// Every touched block as `(address, block)`, in no particular order.
    fn blocks(&self) -> impl Iterator<Item = (u64, &Block)> {
        let heap = self.heap.iter().enumerate();
        heap.filter(|(_, b)| b.count > 0)
            .map(|(i, b)| (HEAP_BASE + ((i as u64) << self.shift), b))
            .chain(self.other.iter().map(|(&addr, b)| (addr, b)))
    }

    /// Record one memory request for `block_addr` issued by (linearized)
    /// CTA `cta`.
    pub fn record(&mut self, block_addr: u64, cta: u64) {
        self.update(block_addr, cta, None);
    }

    /// Start a new launch of `kernel` on a device heap that ends at
    /// `heap_end`: folds the previous launch's per-PC CTA sets into the
    /// aggregate and scopes subsequent [`record_at`](Self::record_at) calls
    /// to this launch.
    pub fn begin_launch(&mut self, kernel: &str, heap_end: u64) {
        self.flush_live();
        self.set_heap_end(heap_end);
        let id = match self.kernels.iter().position(|k| k == kernel) {
            Some(i) => i as u32,
            None => {
                self.kernels.push(kernel.to_string());
                (self.kernels.len() - 1) as u32
            }
        };
        self.current_kernel = Some(id);
    }

    /// [`record`](Self::record), attributed to the static load at `pc` of
    /// the kernel most recently passed to [`begin_launch`](Self::begin_launch).
    pub fn record_at(&mut self, block_addr: u64, cta: u64, pc: u64) {
        let pc = self.current_kernel.map(|_| pc);
        self.update(block_addr, cta, pc);
    }

    /// One probe of the block's entry serves everything a record updates.
    fn update(&mut self, block_addr: u64, cta: u64, live_pc: Option<u64>) {
        self.total_accesses += 1;
        let index = self.heap_index(block_addr);
        let block = slot(&mut self.heap, &mut self.other, index, block_addr);
        if block.count > 0 && block.last_cta != cta {
            let distance = block.last_cta.abs_diff(cta);
            if distance < NEAR_DISTANCES {
                bump(&mut self.near_distances, distance, 1);
            } else {
                *self.far_distances.entry(distance).or_insert(0) += 1;
            }
        }
        block.count += 1;
        block.last_cta = cta;
        match block.ctas.binary_search_by_key(&cta, |&(c, _)| c) {
            Ok(i) => block.ctas[i].1 += 1,
            Err(i) => block.ctas.insert(i, (cta, 1)),
        }
        let Some(pc) = live_pc else { return };
        bump(&mut self.live_accesses, pc, 1);
        if block.live.is_empty() {
            self.touched.push(block_addr);
        }
        if let Err(i) = block.live.binary_search(&(pc, cta)) {
            block.live.insert(i, (pc, cta));
        }
    }

    /// Fold the launch in flight into `per_pc` and empty its live state.
    fn flush_live(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        if let Some(k) = self.current_kernel {
            fold_accesses(&mut self.per_pc, k, &self.live_accesses);
        }
        for &addr in &touched {
            let index = self.heap_index(addr);
            let block = slot(&mut self.heap, &mut self.other, index, addr);
            if let Some(k) = self.current_kernel {
                fold_block(&mut self.per_pc, k, &block.live);
            }
            block.live.clear();
        }
        self.live_accesses.fill(0);
        touched.clear();
        self.touched = touched;
    }

    /// `per_pc` with the launch in flight folded in.
    fn per_pc_now(&self) -> BTreeMap<(u32, u64), PcAgg> {
        let mut agg = self.per_pc.clone();
        if let Some(k) = self.current_kernel {
            fold_accesses(&mut agg, k, &self.live_accesses);
            for &addr in &self.touched {
                let block = self.block(addr).expect("touched blocks exist");
                fold_block(&mut agg, k, &block.live);
            }
        }
        agg
    }

    /// Measured per-(kernel, pc) sharing, including the launch in flight,
    /// sorted by kernel name then pc.
    pub fn pc_sharing(&self) -> Vec<PcSharing> {
        self.per_pc_now()
            .into_iter()
            .map(|((k, pc), a)| PcSharing {
                kernel: self.kernels[k as usize].clone(),
                pc,
                accesses: a.accesses,
                blocks: a.blocks,
                shared_blocks: a.shared_blocks,
                max_ctas_per_block: a.max_ctas_per_block,
                pairs: a.pairs.into_iter().collect(),
            })
            .collect()
    }

    /// Compute the Figure 10/11 summary.
    pub fn summary(&self) -> BlockSummary {
        let blocks = self.blocks().count() as u64;
        let accesses = self.total_accesses;
        let shared = || self.blocks().map(|(_, b)| b).filter(|b| b.ctas.len() >= 2);
        let shared_blocks = shared().count() as u64;
        let shared_accesses: u64 = shared().map(|b| b.count).sum();
        let shared_cta_total: u64 = shared().map(|b| b.ctas.len() as u64).sum();
        BlockSummary {
            blocks,
            accesses,
            cold_miss_ratio: ratio(blocks, accesses),
            mean_accesses_per_block: ratio(accesses, blocks),
            shared_block_ratio: ratio(shared_blocks, blocks),
            shared_access_ratio: ratio(shared_accesses, accesses),
            mean_ctas_per_shared_block: ratio(shared_cta_total, shared_blocks),
        }
    }

    /// `(distance, samples)` of every distance seen, ascending.
    fn distances(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let near = self.near_distances.iter().enumerate();
        near.filter(|(_, &c)| c > 0)
            .map(|(d, &c)| (d as u64, c))
            .chain(self.far_distances.iter().map(|(&d, &c)| (d, c)))
    }

    /// The CTA-distance histogram (Figure 12), normalized to fractions.
    /// Returns `(distance, fraction)` pairs sorted by distance.
    pub fn distance_histogram(&self) -> Vec<(u64, f64)> {
        let total: u64 = self.distances().map(|(_, c)| c).sum();
        self.distances()
            .map(|(d, c)| (d, c as f64 / total as f64))
            .collect()
    }

    /// Checkpoint-encode the tracker: blocks in address order, then the
    /// distance histogram, the launch in flight as pc → block → CTAs, and
    /// the per-pc aggregate (its access counts including that launch's).
    pub fn ckpt_encode(&self, e: &mut Enc) {
        let mut blocks: Vec<(u64, &Block)> = self.blocks().collect();
        blocks.sort_unstable_by_key(|&(addr, _)| addr);
        e.seq(&blocks, |e, (addr, block)| {
            (*addr, block.count).put(e);
            block.ctas.put(e);
            block.last_cta.put(e);
        });
        self.total_accesses.put(e);
        self.distances().collect::<Vec<_>>().put(e);
        self.kernels.put(e);
        self.current_kernel.unwrap_or(u32::MAX).put(e);
        let mut live: Vec<(u64, u64, u64)> = Vec::new();
        for &addr in &self.touched {
            let block = self.block(addr).expect("touched blocks exist");
            live.extend(block.live.iter().map(|&(pc, cta)| (pc, addr, cta)));
        }
        live.sort_unstable();
        let by_pc: Vec<&[(u64, u64, u64)]> = live.chunk_by(|a, b| a.0 == b.0).collect();
        e.seq(&by_pc, |e, blocks| {
            blocks[0].0.put(e);
            let by_block: Vec<&[(u64, u64, u64)]> = blocks.chunk_by(|a, b| a.1 == b.1).collect();
            e.seq(&by_block, |e, ctas| {
                ctas[0].1.put(e);
                e.seq(ctas, |e, &(_, _, cta)| cta.put(e));
            });
        });
        let mut per_pc = self.per_pc.clone();
        if let Some(k) = self.current_kernel {
            fold_accesses(&mut per_pc, k, &self.live_accesses);
        }
        per_pc.put(e);
    }

    /// Checkpoint-decode a tracker of `line_bytes`-sized blocks written by
    /// [`ckpt_encode`](Self::ckpt_encode), for a device heap that ends at
    /// `heap_end`.
    pub fn ckpt_decode(
        d: &mut Dec<'_>,
        line_bytes: u32,
        heap_end: u64,
    ) -> Result<BlockTracker, WireError> {
        let mut t = BlockTracker::new(line_bytes);
        t.set_heap_end(heap_end);
        let blocks: Vec<BlockRow> = Wire::get(d)?;
        for (addr, count, mut ctas, last_cta) in blocks {
            ctas.sort_unstable_by_key(|&(c, _)| c);
            *t.block_mut(addr) = Block {
                count,
                last_cta,
                ctas,
                live: Vec::new(),
            };
        }
        let distances: Vec<(u64, u64)>;
        (t.total_accesses, distances, t.kernels) = Wire::get(d)?;
        for (distance, samples) in distances {
            if distance < NEAR_DISTANCES {
                bump(&mut t.near_distances, distance, samples);
            } else {
                *t.far_distances.entry(distance).or_insert(0) += samples;
            }
        }
        let ck = u32::get(d)?;
        t.current_kernel = (ck != u32::MAX).then_some(ck);
        let by_pc: Vec<LiveRow> = Wire::get(d)?;
        let mut live = Vec::new();
        for (pc, blocks) in by_pc {
            for (addr, ctas) in blocks {
                live.extend(ctas.into_iter().map(|cta| (addr, pc, cta)));
            }
        }
        live.sort_unstable();
        live.dedup();
        for (addr, pc, cta) in live {
            let index = t.heap_index(addr);
            let block = slot(&mut t.heap, &mut t.other, index, addr);
            if block.live.is_empty() {
                t.touched.push(addr);
            }
            block.live.push((pc, cta));
        }
        t.per_pc = Wire::get(d)?;
        Ok(t)
    }
}

/// The entry of a block: its dense slot (the table grows to reach it) when
/// `heap_index` is its index there, else its side-map entry. A free function
/// over the two tables so the caller keeps the tracker's other fields.
fn slot<'a>(
    heap: &'a mut Vec<Block>,
    other: &'a mut HashMap<u64, Block>,
    heap_index: Option<usize>,
    block_addr: u64,
) -> &'a mut Block {
    match heap_index {
        Some(i) => {
            if i >= heap.len() {
                heap.resize(i + 1, Block::default());
            }
            &mut heap[i]
        }
        None => other.entry(block_addr).or_default(),
    }
}

/// `counts[index] += n`, growing the vector to reach `index`.
fn bump(counts: &mut Vec<u64>, index: u64, n: u64) {
    let index = index as usize;
    if index >= counts.len() {
        counts.resize(index + 1, 0);
    }
    counts[index] += n;
}

/// Add one launch's per-pc access counts (indexed by pc) to the aggregate.
fn fold_accesses(per_pc: &mut BTreeMap<(u32, u64), PcAgg>, kernel: u32, accesses: &[u64]) {
    for (pc, &n) in accesses.iter().enumerate().filter(|(_, &n)| n > 0) {
        per_pc.entry((kernel, pc as u64)).or_default().accesses += n;
    }
}

/// Fold one block's sorted `(pc, cta)` list of one launch into the
/// aggregate: one block instance per pc that touched it.
fn fold_block(per_pc: &mut BTreeMap<(u32, u64), PcAgg>, kernel: u32, live: &[(u64, u64)]) {
    for ctas in live.chunk_by(|a, b| a.0 == b.0) {
        let agg = per_pc.entry((kernel, ctas[0].0)).or_default();
        agg.blocks += 1;
        agg.max_ctas_per_block = agg.max_ctas_per_block.max(ctas.len() as u64);
        if ctas.len() >= 2 {
            agg.shared_blocks += 1;
            for (n, &(_, i)) in ctas.iter().enumerate() {
                for &(_, j) in &ctas[n + 1..] {
                    *agg.pairs.entry((i, j)).or_insert(0) += 1;
                }
            }
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_miss_ratio_counts_first_touches() {
        let mut t = BlockTracker::new(128);
        t.record(0, 0);
        t.record(0, 0);
        t.record(128, 0);
        t.record(0, 0);
        let s = t.summary();
        assert_eq!(s.blocks, 2);
        assert_eq!(s.accesses, 4);
        assert!((s.cold_miss_ratio - 0.5).abs() < 1e-12);
        assert!((s.mean_accesses_per_block - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sharing_ratios() {
        let mut t = BlockTracker::new(128);
        // Block 0: CTAs 0 and 1 (shared). Block 128: only CTA 0.
        t.record(0, 0);
        t.record(0, 1);
        t.record(0, 1);
        t.record(128, 0);
        let s = t.summary();
        assert!((s.shared_block_ratio - 0.5).abs() < 1e-12);
        assert!((s.shared_access_ratio - 0.75).abs() < 1e-12);
        assert!((s.mean_ctas_per_shared_block - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_histogram_uses_consecutive_accessors() {
        let mut t = BlockTracker::new(128);
        t.record(0, 0); // first touch: no sample
        t.record(0, 1); // |1-0| = 1
        t.record(0, 1); // same CTA: no sample
        t.record(0, 33); // |33-1| = 32
        t.record(0, 1); // |1-33| = 32
        let h = t.distance_histogram();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].0, 1);
        assert!((h[0].1 - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(h[1].0, 32);
        assert!((h[1].1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_has_nan_ratios_and_empty_hist() {
        let t = BlockTracker::new(128);
        let s = t.summary();
        assert!(s.cold_miss_ratio.is_nan());
        assert!(t.distance_histogram().is_empty());
    }

    #[test]
    fn per_pc_sharing_is_launch_scoped() {
        let mut t = BlockTracker::new(128);
        t.begin_launch("k", HEAP_BASE);
        t.record_at(0, 0, 7); // CTA 0 and 1 share block 0 at pc 7
        t.record_at(0, 1, 7);
        t.record_at(128, 0, 9); // pc 9 private
                                // Second launch reuses CTA id 0 on the same block: NOT sharing.
        t.begin_launch("k", HEAP_BASE);
        t.record_at(128, 0, 9);
        let s = t.pc_sharing();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].pc, s[0].shared_blocks, s[0].blocks), (7, 1, 1));
        assert_eq!(s[0].pairs, vec![((0, 1), 1)]);
        assert_eq!(s[0].max_ctas_per_block, 2);
        // pc 9: two block instances (one per launch), neither shared.
        assert_eq!((s[1].pc, s[1].shared_blocks, s[1].blocks), (9, 0, 2));
        assert!(s[1].pairs.is_empty());
        // The flat tracker still sees one block with one CTA.
        assert_eq!(t.summary().accesses, 4);
    }

    #[test]
    fn per_pc_sharing_round_trips_through_checkpoint() {
        let mut t = BlockTracker::new(128);
        t.begin_launch("a", HEAP_BASE);
        t.record_at(0, 0, 1);
        t.record_at(0, 3, 1);
        t.begin_launch("b", HEAP_BASE);
        t.record_at(256, 2, 4); // left in the live map on purpose
        let mut e = Enc::new();
        t.ckpt_encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let t2 = BlockTracker::ckpt_decode(&mut d, 128, HEAP_BASE).expect("decode");
        assert!(d.is_done());
        assert_eq!(t.pc_sharing(), t2.pc_sharing());
        // And the restored tracker keeps scoping new launches correctly.
        let mut t2 = t2;
        t2.begin_launch("a", HEAP_BASE);
        t2.record_at(256, 9, 4);
        let s = t2.pc_sharing();
        let b4 = s.iter().find(|p| p.kernel == "b" && p.pc == 4).unwrap();
        assert_eq!(b4.shared_blocks, 0);
    }

    const HEAP_END: u64 = HEAP_BASE + (1 << 20);

    fn encode(t: &BlockTracker) -> Vec<u8> {
        let mut e = Enc::new();
        t.ckpt_encode(&mut e);
        e.into_bytes()
    }

    /// A deterministic stream of `(block, cta, pc)` records over heap
    /// blocks, an unaligned heap address, and blocks below and past the heap.
    fn stream(launch: u64) -> Vec<(u64, u64, u64)> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(launch + 1);
        (0..600)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let block = match x % 16 {
                    0 => 0x80 * (x >> 8 & 3),                 // below the heap
                    1 => HEAP_END + 0x80 * (x >> 8 & 3),      // past it
                    2 => HEAP_BASE + 0x80 * (x >> 8 & 7) + 4, // not line-aligned
                    _ => HEAP_BASE + 0x80 * (x >> 8 & 31),
                };
                (block, x >> 20 & 7, 10 + (x >> 30 & 3))
            })
            .collect()
    }

    /// The dense table is an index, not a different answer: the same records
    /// with every block in the side map (a heap of no bytes) give the same
    /// reports and the same checkpoint bytes — between launches, with a
    /// launch in flight, and after that checkpoint is resumed.
    #[test]
    fn dense_and_side_map_blocks_report_identically() {
        let mut dense = BlockTracker::new(128);
        let mut sparse = BlockTracker::new(128);
        for launch in 0..3 {
            dense.begin_launch(["a", "b", "a"][launch], HEAP_END);
            sparse.begin_launch(["a", "b", "a"][launch], HEAP_BASE);
            for (i, (block, cta, pc)) in stream(launch as u64).into_iter().enumerate() {
                dense.record_at(block, cta, pc);
                sparse.record_at(block, cta, pc);
                if i == 300 {
                    let bytes = encode(&dense);
                    assert_eq!(bytes, encode(&sparse), "launch {launch} in flight");
                    let mut d = Dec::new(&bytes);
                    dense = BlockTracker::ckpt_decode(&mut d, 128, HEAP_END).expect("decode");
                    assert!(d.is_done());
                    assert_eq!(encode(&dense), bytes, "launch {launch} resumed");
                }
            }
            assert_eq!(dense.pc_sharing(), sparse.pc_sharing(), "launch {launch}");
        }
        assert!(dense.heap.len() == 32 && sparse.heap.is_empty());
        assert!(!dense.other.is_empty() && dense.other.len() < sparse.other.len());
        assert_eq!(dense.summary(), sparse.summary());
        assert_eq!(dense.distance_histogram(), sparse.distance_histogram());
        assert_eq!(encode(&dense), encode(&sparse));
    }

    /// Launch 2 touches nothing launches 1 and 3 touch. Launch 1's CTA sets
    /// must not be folded again at the 2 → 3 boundary, nor join launch 3's.
    #[test]
    fn live_state_does_not_leak_across_an_unrelated_launch() {
        let (x, y) = (HEAP_BASE, HEAP_BASE + 0x80);
        let mut t = BlockTracker::new(128);
        t.begin_launch("k", HEAP_END);
        t.record_at(x, 0, 7);
        t.record_at(x, 1, 7);
        t.begin_launch("k", HEAP_END);
        t.record_at(y, 5, 7);
        t.begin_launch("k", HEAP_END);
        t.record_at(x, 2, 7);
        assert!(t.touched == [x] && t.block(y).unwrap().live.is_empty());
        let s = t.pc_sharing();
        assert_eq!(s.len(), 1);
        // Three launches, one block instance each; only launch 1's is shared.
        assert_eq!((s[0].accesses, s[0].blocks, s[0].shared_blocks), (4, 3, 1));
        assert_eq!(s[0].max_ctas_per_block, 2);
        assert_eq!(s[0].pairs, vec![((0, 1), 1)]);
        // Across launches the flat view still sees CTAs 0, 1 and 2 on `x`.
        assert_eq!(t.block(x).unwrap().ctas, [(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn growing_the_heap_adopts_side_map_blocks() {
        let late = HEAP_BASE + 0x4000;
        let mut t = BlockTracker::new(128);
        t.begin_launch("k", HEAP_BASE + 0x1000);
        t.record_at(late, 1, 3);
        t.record_at(late, 4, 3);
        assert!(t.heap.is_empty() && t.other.contains_key(&late));
        let (before, sharing) = (encode(&t), t.pc_sharing());
        t.set_heap_end(HEAP_BASE + 0x8000);
        assert!(t.other.is_empty() && t.heap.len() == 0x4000 / 128 + 1);
        assert_eq!(encode(&t), before);
        assert_eq!(t.pc_sharing(), sharing);
        t.record_at(late, 6, 3);
        assert_eq!(t.summary().blocks, 1);
        assert_eq!(t.distance_histogram(), vec![(2, 0.5), (3, 0.5)]);
    }

    #[test]
    fn far_distances_sort_after_near_ones() {
        let mut t = BlockTracker::new(128);
        t.record(0, 0);
        t.record(0, NEAR_DISTANCES + 5);
        t.record(0, NEAR_DISTANCES + 4);
        assert!(t.near_distances.len() == 2 && t.far_distances.len() == 1);
        assert_eq!(
            t.distance_histogram(),
            vec![(1, 0.5), (NEAR_DISTANCES + 5, 0.5)]
        );
        let bytes = encode(&t);
        let back = BlockTracker::ckpt_decode(&mut Dec::new(&bytes), 128, HEAP_BASE).unwrap();
        assert_eq!(encode(&back), bytes);
    }
}
