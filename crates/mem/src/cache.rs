//! Set-associative cache with tag-array reservation, MSHR merging and a
//! bounded miss queue — the L1/L2 data cache model of the paper.
//!
//! Every access attempt consumes one cache cycle and produces one of the six
//! outcomes of the paper's Figure 3: *hit*, *hit reserved*, *miss* (issued),
//! or a reservation failure by *tags*, *MSHRs* or *interconnect* (miss-queue
//! space). Failed accesses are retried by the caller on a later cycle.

use crate::wire::{Dec, Enc, Wire, WireError};
use crate::{ClassTag, Cycle, MemRequest, Mshr};
use std::collections::VecDeque;

/// Geometry and resource limits of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets. Must be a power of two.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: u32,
    /// MSHR entries.
    pub mshr_entries: usize,
    /// Maximum requests merged per MSHR entry.
    pub mshr_max_merge: usize,
    /// Miss-queue depth (models interconnect injection buffering).
    pub miss_queue_len: usize,
    /// Hit latency in cycles (pipelined).
    pub hit_latency: u32,
}

impl CacheConfig {
    /// The paper's Tesla C2050 L1: 16 KB, 128 B lines, 4-way, 64 MSHRs.
    pub fn fermi_l1() -> CacheConfig {
        CacheConfig {
            sets: 32,
            ways: 4,
            line_bytes: 128,
            mshr_entries: 64,
            mshr_max_merge: 8,
            miss_queue_len: 8,
            hit_latency: 1,
        }
    }

    /// One slice of the paper's 768 KB unified 8-way L2 (per partition,
    /// 6 partitions): 128 KB, 128 B lines, 8-way, 32 MSHRs.
    pub fn fermi_l2_slice() -> CacheConfig {
        CacheConfig {
            sets: 128,
            ways: 8,
            line_bytes: 128,
            mshr_entries: 32,
            mshr_max_merge: 8,
            miss_queue_len: 8,
            hit_latency: 4,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_bytes as usize
    }

    /// Align an address down to its line base.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr & !u64::from(self.line_bytes - 1)
    }
}

/// Outcome of one access attempt (the categories of the paper's Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Data present: completes after [`CacheConfig::hit_latency`].
    Hit,
    /// Line is in flight for an earlier miss; request merged into its MSHR.
    HitReserved,
    /// Miss accepted: line reserved, MSHR allocated, request queued downstream.
    MissIssued,
    /// No evictable line in the set (all reserved) — retry later.
    ReservationFailTags,
    /// No MSHR entry available (or merge limit reached) — retry later.
    ReservationFailMshr,
    /// Miss queue (interconnect injection buffer) full — retry later.
    ReservationFailIcnt,
}

impl AccessOutcome {
    /// Whether the access was accepted (no retry needed).
    pub fn accepted(self) -> bool {
        matches!(
            self,
            AccessOutcome::Hit | AccessOutcome::HitReserved | AccessOutcome::MissIssued
        )
    }

    /// Dense index for counter arrays, in Figure 3's legend order.
    pub fn index(self) -> usize {
        match self {
            AccessOutcome::Hit => 0,
            AccessOutcome::HitReserved => 1,
            AccessOutcome::MissIssued => 2,
            AccessOutcome::ReservationFailTags => 3,
            AccessOutcome::ReservationFailMshr => 4,
            AccessOutcome::ReservationFailIcnt => 5,
        }
    }

    /// All outcomes in [`index`](Self::index) order.
    pub const ALL: [AccessOutcome; 6] = [
        AccessOutcome::Hit,
        AccessOutcome::HitReserved,
        AccessOutcome::MissIssued,
        AccessOutcome::ReservationFailTags,
        AccessOutcome::ReservationFailMshr,
        AccessOutcome::ReservationFailIcnt,
    ];
}

/// Per-cache statistics: access attempts by outcome, split by load class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `attempts[outcome][class]` — access attempts (cache cycles consumed).
    pub attempts: [[u64; 3]; 6],
    /// Fills received from downstream.
    pub fills: u64,
    /// Write (write-through) accesses forwarded downstream.
    pub writes_forwarded: u64,
}

impl CacheStats {
    /// Record one access attempt.
    fn record(&mut self, outcome: AccessOutcome, class: ClassTag) {
        self.attempts[outcome.index()][class.index()] += 1;
    }

    /// Total attempts for `outcome` across classes.
    pub fn outcome_total(&self, outcome: AccessOutcome) -> u64 {
        self.attempts[outcome.index()].iter().sum()
    }

    /// Total attempts for (`outcome`, `class`).
    pub fn outcome_class(&self, outcome: AccessOutcome, class: ClassTag) -> u64 {
        self.attempts[outcome.index()][class.index()]
    }

    /// Read accesses *accepted* for `class` (hit + hit-reserved + miss).
    pub fn accepted(&self, class: ClassTag) -> u64 {
        AccessOutcome::ALL
            .iter()
            .filter(|o| o.accepted())
            .map(|o| self.outcome_class(*o, class))
            .sum()
    }

    /// Miss ratio for `class`: misses (issued or merged) over accepted
    /// accesses. Hit-reserved counts as a miss — the data was not present.
    pub fn miss_ratio(&self, class: ClassTag) -> f64 {
        let hits = self.outcome_class(AccessOutcome::Hit, class);
        let total = self.accepted(class);
        if total == 0 {
            f64::NAN
        } else {
            1.0 - hits as f64 / total as f64
        }
    }

    /// Merge another cache's stats into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        for o in 0..6 {
            for c in 0..3 {
                self.attempts[o][c] += other.attempts[o][c];
            }
        }
        self.fills += other.fills;
        self.writes_forwarded += other.writes_forwarded;
    }
}

// Shared by cache checkpoints and the simulator's launch statistics.
crate::declare_wire! { CacheStats { attempts, fills, writes_forwarded } }

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Invalid,
    /// Tag allocated, data still in flight (the *hit reserved* state).
    Reserved,
    Valid,
}

crate::declare_wire! { enum LineState "line state tag" { Invalid = 0, Reserved = 1, Valid = 2 } }

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    last_use: u64,
}

crate::declare_wire! { Line { tag, state, last_use } }

/// A set-associative, LRU, write-through/no-write-allocate cache with
/// reservation semantics.
///
/// The cache does not move data (the simulator executes functionally); it
/// models *timing and resource occupancy*. Misses are pulled from the miss
/// queue by the downstream component via [`Cache::pop_miss`], and completed
/// by calling [`Cache::fill`].
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    mshr: Mshr,
    miss_queue: VecDeque<MemRequest>,
    stats: CacheStats,
    use_tick: u64,
}

impl Cache {
    /// Create a cache with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, or any
    /// resource limit is zero.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways > 0 && cfg.miss_queue_len > 0);
        Cache {
            cfg,
            lines: vec![
                Line {
                    tag: 0,
                    state: LineState::Invalid,
                    last_use: 0
                };
                cfg.sets * cfg.ways
            ],
            mshr: Mshr::new(cfg.mshr_entries, cfg.mshr_max_merge),
            miss_queue: VecDeque::new(),
            stats: CacheStats::default(),
            use_tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Take and reset the statistics (used when the cache persists across
    /// kernel launches but stats are reported per launch).
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    fn set_of(&self, block_addr: u64) -> usize {
        ((block_addr / u64::from(self.cfg.line_bytes)) % self.cfg.sets as u64) as usize
    }

    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        let w = self.cfg.ways;
        &mut self.lines[set * w..(set + 1) * w]
    }

    /// Attempt one access. Consumes a cache cycle; records stats; on
    /// `MissIssued`/`HitReserved` the request is retained internally and will
    /// be returned by a later [`fill`](Self::fill).
    ///
    /// Writes are write-through / no-write-allocate: they require miss-queue
    /// space only, invalidate a matching valid line (write-evict), and are
    /// forwarded downstream. A write to a *reserved* line fails with
    /// `ReservationFailTags` (must wait for the in-flight fill).
    pub fn access(&mut self, mut req: MemRequest, cycle: Cycle) -> AccessOutcome {
        debug_assert_eq!(
            req.block_addr,
            self.cfg.block_of(req.block_addr),
            "request address must be block-aligned"
        );
        self.use_tick += 1;
        let tick = self.use_tick;
        let set = self.set_of(req.block_addr);
        let class = req.class;

        if req.is_write {
            let outcome = self.access_write(req, set, tick);
            self.stats.record(outcome, class);
            return outcome;
        }

        // Probe tags.
        let ways = self.cfg.ways;
        let mut hit_way = None;
        let mut reserved_way = None;
        {
            let lines = self.set_lines(set);
            for (w, line) in lines.iter().enumerate().take(ways) {
                if line.tag == req.block_addr {
                    match line.state {
                        LineState::Valid => hit_way = Some(w),
                        LineState::Reserved => reserved_way = Some(w),
                        LineState::Invalid => {}
                    }
                }
            }
        }

        if let Some(w) = hit_way {
            self.set_lines(set)[w].last_use = tick;
            let _ = cycle; // hits complete locally; the caller stamps them
            self.stats.record(AccessOutcome::Hit, class);
            return AccessOutcome::Hit;
        }

        if reserved_way.is_some() {
            // Data in flight: merge into the MSHR if allowed.
            if self.mshr.can_merge(req.block_addr) {
                req.t_l1_accepted = cycle;
                self.mshr.merge(req);
                self.stats.record(AccessOutcome::HitReserved, class);
                return AccessOutcome::HitReserved;
            }
            self.stats.record(AccessOutcome::ReservationFailMshr, class);
            return AccessOutcome::ReservationFailMshr;
        }

        // True miss: need a victim line, an MSHR entry, and miss-queue space.
        // (If another block in this set is already in flight the MSHR may
        // hold an entry for it; this block needs its own.)
        let victim = {
            let lines = self.set_lines(set);
            let mut best: Option<(usize, u64, bool)> = None; // (way, last_use, invalid)
            for (w, line) in lines.iter().enumerate().take(ways) {
                match line.state {
                    LineState::Invalid => {
                        best = Some((w, 0, true));
                        break;
                    }
                    LineState::Valid => {
                        if best.is_none_or(|(_, lu, inv)| !inv && line.last_use < lu) {
                            best = Some((w, line.last_use, false));
                        }
                    }
                    LineState::Reserved => {}
                }
            }
            best.map(|(w, _, _)| w)
        };
        let Some(victim) = victim else {
            self.stats.record(AccessOutcome::ReservationFailTags, class);
            return AccessOutcome::ReservationFailTags;
        };
        if !self.mshr.can_allocate() {
            self.stats.record(AccessOutcome::ReservationFailMshr, class);
            return AccessOutcome::ReservationFailMshr;
        }
        if self.miss_queue.len() >= self.cfg.miss_queue_len {
            self.stats.record(AccessOutcome::ReservationFailIcnt, class);
            return AccessOutcome::ReservationFailIcnt;
        }

        // All three resources available: reserve and issue.
        {
            let line = &mut self.set_lines(set)[victim];
            line.tag = req.block_addr;
            line.state = LineState::Reserved;
            line.last_use = tick;
        }
        req.t_l1_accepted = cycle;
        self.mshr.allocate(req);
        self.miss_queue.push_back(req);
        self.stats.record(AccessOutcome::MissIssued, class);
        AccessOutcome::MissIssued
    }

    fn access_write(&mut self, mut req: MemRequest, set: usize, tick: u64) -> AccessOutcome {
        let ways = self.cfg.ways;
        // A reserved matching line blocks the write (would race the fill).
        let mut matching_reserved = false;
        {
            let lines = self.set_lines(set);
            for line in lines.iter().take(ways) {
                if line.tag == req.block_addr && line.state == LineState::Reserved {
                    matching_reserved = true;
                }
            }
        }
        if matching_reserved {
            return AccessOutcome::ReservationFailTags;
        }
        if self.miss_queue.len() >= self.cfg.miss_queue_len {
            return AccessOutcome::ReservationFailIcnt;
        }
        // Write-evict a matching valid line.
        {
            let lines = self.set_lines(set);
            for line in lines.iter_mut().take(ways) {
                if line.tag == req.block_addr && line.state == LineState::Valid {
                    line.state = LineState::Invalid;
                    line.last_use = tick;
                }
            }
        }
        req.t_l1_accepted = tick;
        self.miss_queue.push_back(req);
        self.stats.writes_forwarded += 1;
        AccessOutcome::MissIssued
    }

    /// Pull the next queued miss (or forwarded write) for downstream, if any.
    pub fn pop_miss(&mut self) -> Option<MemRequest> {
        self.miss_queue.pop_front()
    }

    /// Peek the next queued miss without removing it.
    pub fn peek_miss(&self) -> Option<&MemRequest> {
        self.miss_queue.front()
    }

    /// Complete an in-flight block: mark its line valid and return every
    /// request that was waiting on it (allocation + merges).
    ///
    /// Returns an empty vec if no line was reserved for `block_addr` (e.g. a
    /// write completion, which allocates nothing).
    pub fn fill(&mut self, block_addr: u64, _cycle: Cycle) -> Vec<MemRequest> {
        self.stats.fills += 1;
        let set = self.set_of(block_addr);
        let ways = self.cfg.ways;
        let tick = self.use_tick;
        let lines = self.set_lines(set);
        for line in lines.iter_mut().take(ways) {
            if line.tag == block_addr && line.state == LineState::Reserved {
                line.state = LineState::Valid;
                line.last_use = tick;
                break;
            }
        }
        self.mshr.take(block_addr)
    }

    /// Number of in-flight MSHR entries (for occupancy stats / debugging).
    pub fn inflight(&self) -> usize {
        self.mshr.len()
    }

    /// Drop the MSHR entry for `block_addr` without releasing its waiters,
    /// returning whether one existed. The reserved line is left dangling.
    ///
    /// **Fault-injection hook** (see [`Mshr::forget`]): models losing MSHR
    /// bookkeeping so sanitizer tests can assert the conservation checker
    /// reports the resulting response-without-request. Never called on the
    /// normal simulation path.
    pub fn forget_mshr(&mut self, block_addr: u64) -> bool {
        self.mshr.forget(block_addr)
    }

    /// Checkpoint-encode the full cache state: tag array (with LRU stamps),
    /// MSHRs, miss queue, statistics and the use tick.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.lines.put(e);
        self.mshr.ckpt_encode(e);
        self.miss_queue.put(e);
        self.stats.put(e);
        self.use_tick.put(e);
    }

    /// Checkpoint-decode a cache written by [`ckpt_encode`](Self::ckpt_encode)
    /// against the (already validated) configuration `cfg`.
    pub fn ckpt_decode(d: &mut Dec<'_>, cfg: CacheConfig) -> Result<Cache, WireError> {
        let lines: Vec<Line> = Wire::get(d)?;
        if lines.len() != cfg.sets * cfg.ways {
            return Err(WireError::Malformed("tag array size mismatch"));
        }
        let mshr = Mshr::ckpt_decode(d, cfg.mshr_entries, cfg.mshr_max_merge)?;
        let miss_queue: VecDeque<MemRequest> = Wire::get(d)?;
        if miss_queue.len() > cfg.miss_queue_len {
            return Err(WireError::Malformed("miss queue overflow"));
        }
        let (stats, use_tick) = Wire::get(d)?;
        Ok(Cache {
            cfg,
            lines,
            mshr,
            miss_queue,
            stats,
            use_tick,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 128B, 2 MSHRs with merge 2, miss queue 2.
        Cache::new(CacheConfig {
            sets: 2,
            ways: 2,
            line_bytes: 128,
            mshr_entries: 2,
            mshr_max_merge: 2,
            miss_queue_len: 2,
            hit_latency: 1,
        })
    }

    fn rd(id: u64, addr: u64) -> MemRequest {
        MemRequest::read(id, addr, 0, ClassTag::Deterministic, 0, id)
    }

    /// Addresses mapping to set 0 of the tiny cache: multiples of 256.
    const S0: [u64; 4] = [0, 256, 512, 768];

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.access(rd(1, 0), 10), AccessOutcome::MissIssued);
        let downstream = c.pop_miss().unwrap();
        assert_eq!(downstream.block_addr, 0);
        let done = c.fill(0, 50);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(c.access(rd(2, 0), 60), AccessOutcome::Hit);
    }

    #[test]
    fn second_access_merges_as_hit_reserved() {
        let mut c = tiny();
        assert_eq!(c.access(rd(1, 0), 1), AccessOutcome::MissIssued);
        assert_eq!(c.access(rd(2, 0), 2), AccessOutcome::HitReserved);
        // Merge limit (2) reached: further accesses fail on MSHRs.
        assert_eq!(c.access(rd(3, 0), 3), AccessOutcome::ReservationFailMshr);
        let done = c.fill(0, 10);
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn all_lines_reserved_fails_tags() {
        let mut c = tiny();
        assert_eq!(c.access(rd(1, S0[0]), 1), AccessOutcome::MissIssued);
        assert_eq!(c.access(rd(2, S0[1]), 2), AccessOutcome::MissIssued);
        // Set 0 now has both ways reserved; a third block cannot evict.
        assert_eq!(
            c.access(rd(3, S0[2]), 3),
            AccessOutcome::ReservationFailTags
        );
        let stats = c.stats();
        assert_eq!(stats.outcome_total(AccessOutcome::ReservationFailTags), 1);
    }

    #[test]
    fn mshr_exhaustion_fails_mshr() {
        // 4 ways so tags aren't the bottleneck; 2 MSHRs.
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways: 4,
            line_bytes: 128,
            mshr_entries: 2,
            mshr_max_merge: 2,
            miss_queue_len: 4,
            hit_latency: 1,
        });
        assert_eq!(c.access(rd(1, 0), 1), AccessOutcome::MissIssued);
        assert_eq!(c.access(rd(2, 128), 2), AccessOutcome::MissIssued);
        assert_eq!(c.access(rd(3, 256), 3), AccessOutcome::ReservationFailMshr);
    }

    #[test]
    fn miss_queue_full_fails_icnt() {
        // Plenty of tags and MSHRs, miss queue of 1, nothing draining it.
        let mut c = Cache::new(CacheConfig {
            sets: 1,
            ways: 4,
            line_bytes: 128,
            mshr_entries: 4,
            mshr_max_merge: 2,
            miss_queue_len: 1,
            hit_latency: 1,
        });
        assert_eq!(c.access(rd(1, 0), 1), AccessOutcome::MissIssued);
        assert_eq!(c.access(rd(2, 128), 2), AccessOutcome::ReservationFailIcnt);
        // Draining the queue unblocks.
        let _ = c.pop_miss();
        assert_eq!(c.access(rd(3, 128), 3), AccessOutcome::MissIssued);
    }

    #[test]
    fn lru_evicts_least_recently_used_valid_line() {
        let mut c = tiny();
        for (i, &a) in S0[..2].iter().enumerate() {
            assert_eq!(
                c.access(rd(i as u64, a), i as u64),
                AccessOutcome::MissIssued
            );
            c.pop_miss();
            c.fill(a, 10 + i as u64);
        }
        // Touch S0[0] so S0[1] is LRU.
        assert_eq!(c.access(rd(10, S0[0]), 20), AccessOutcome::Hit);
        // New block evicts S0[1].
        assert_eq!(c.access(rd(11, S0[2]), 21), AccessOutcome::MissIssued);
        c.pop_miss();
        c.fill(S0[2], 30);
        assert_eq!(c.access(rd(12, S0[0]), 31), AccessOutcome::Hit);
        assert_eq!(c.access(rd(13, S0[1]), 32), AccessOutcome::MissIssued);
    }

    #[test]
    fn write_through_no_allocate_and_write_evict() {
        let mut c = tiny();
        // Fill a line.
        c.access(rd(1, 0), 1);
        c.pop_miss();
        c.fill(0, 5);
        assert_eq!(c.access(rd(2, 0), 6), AccessOutcome::Hit);
        // Write to the same block: forwarded, line evicted.
        let w = MemRequest::write(3, 0, 0, 7);
        assert_eq!(c.access(w, 7), AccessOutcome::MissIssued);
        assert_eq!(c.pop_miss().unwrap().id, 3);
        // The line is gone: next read misses.
        assert_eq!(c.access(rd(4, 0), 8), AccessOutcome::MissIssued);
        assert_eq!(c.stats().writes_forwarded, 1);
    }

    #[test]
    fn write_to_reserved_line_blocks() {
        let mut c = tiny();
        c.access(rd(1, 0), 1);
        let w = MemRequest::write(2, 0, 0, 2);
        assert_eq!(c.access(w, 2), AccessOutcome::ReservationFailTags);
    }

    #[test]
    fn stats_split_by_class() {
        let mut c = tiny();
        c.access(rd(1, 0), 1);
        let mut nreq = rd(2, 128);
        nreq.class = ClassTag::NonDeterministic;
        c.access(nreq, 2);
        let s = c.stats();
        assert_eq!(
            s.outcome_class(AccessOutcome::MissIssued, ClassTag::Deterministic),
            1
        );
        assert_eq!(
            s.outcome_class(AccessOutcome::MissIssued, ClassTag::NonDeterministic),
            1
        );
        assert_eq!(s.accepted(ClassTag::Deterministic), 1);
    }

    #[test]
    fn miss_ratio_counts_hit_reserved_as_miss() {
        let mut c = tiny();
        c.access(rd(1, 0), 1); // miss
        c.access(rd(2, 0), 2); // hit reserved
        c.pop_miss();
        c.fill(0, 5);
        c.access(rd(3, 0), 6); // hit
        let r = c.stats().miss_ratio(ClassTag::Deterministic);
        assert!((r - 2.0 / 3.0).abs() < 1e-12, "{r}");
    }

    #[test]
    fn fermi_configs_have_paper_capacities() {
        assert_eq!(CacheConfig::fermi_l1().capacity_bytes(), 16 * 1024);
        assert_eq!(CacheConfig::fermi_l2_slice().capacity_bytes(), 128 * 1024);
    }
}
