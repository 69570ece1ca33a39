//! The LD/ST unit of one SM: the coalescer's requests retried against the
//! L1 (the cycle outcomes of Fig 3), shared-memory and parameter accesses,
//! fills from the interconnect, and the load tracker that times every warp
//! load (Figs 2, 5–7).
//!
//! The SM drives it through [`dispatch`](LdstUnit::dispatch) (behind an
//! [`is_full`](LdstUnit::is_full) check), a tick and
//! [`is_idle`](LdstUnit::is_idle). The tick comes in two halves because the
//! SM's issue stage sits between them: [`complete`](LdstUnit::complete)
//! runs before issue, so a load finishing this cycle unblocks its warp this
//! cycle, and [`tick`](LdstUnit::tick) runs after it, so an instruction
//! issued this cycle reaches the L1 this cycle. Both hand back the
//! `(warp slot, dst)` pairs whose operations finished.

use crate::coalesce::coalesce_into;
use crate::loadtrack::LoadTracker;
use crate::replay::MemAccess;
use crate::san::{SanRun, SanitizerReport, SmSan, TickError};
use crate::sm::TickCtx;
use crate::{GpuConfig, SmStats};
use gcl_core::LoadClass;
use gcl_mem::{
    AccessOutcome, Cache, CacheStats, ClassTag, ConservationKind, ConservationReport, Cycle, Dec,
    Enc, MemRequest, ReqInfo, SanStage, Wire, WireError,
};
use gcl_ptx::{Reg, Space};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// Sentinel `meta` value marking prefetch requests (no load-tracker entry).
const PREFETCH_META: u64 = u64::MAX;

/// A finished operation: the warp slot it belongs to and the register it
/// releases (`None` for a store).
pub(crate) type Completion = (usize, Option<Reg>);

/// A request's id packs the issuing warp slot and the load's destination
/// register (0 for a store), which is how a fill finds its warp.
fn pack_id(slot: usize, dst: Option<Reg>) -> u64 {
    (slot as u64) << 32 | u64::from(dst.map_or(0, |d| d.0))
}

/// A local completion as written: `at`, `seq`, an L1 hit's `meta` and key
/// (its `seq`), and an operation's warp slot and register.
type DoneRow = ((Cycle, u64, Option<u64>, Option<u64>), (usize, Option<u32>));

/// A register as its wire number.
fn reg_no(r: Option<Reg>) -> Option<u32> {
    r.map(|r| r.0)
}

fn unpack_id(id: u64) -> (usize, Reg) {
    ((id >> 32) as usize, Reg((id & 0xFFFF_FFFF) as u32))
}

/// Shared-memory bank-conflict degree: the maximum number of distinct words
/// mapped to one of the 32 four-byte-interleaved banks (broadcasts of the
/// same word are conflict-free).
pub fn bank_conflict_degree(lane_addrs: &[(u32, u64)]) -> u32 {
    let mut per_bank = [0u32; 32];
    for (i, &(_, addr)) in lane_addrs.iter().enumerate() {
        let word = addr / 4;
        if !lane_addrs[..i].iter().any(|&(_, a)| a / 4 == word) {
            per_bank[(word % 32) as usize] += 1;
        }
    }
    per_bank.into_iter().max().unwrap_or(1).max(1)
}

#[derive(Debug)]
enum LdstEntry {
    /// Global-backed access: requests retried against the L1 until accepted.
    Global {
        warp_slot: usize,
        /// Load-tracker handle (loads only).
        meta: Option<u64>,
        is_store: bool,
        pending: VecDeque<MemRequest>,
        /// Warp-split chunk (Section X-A): rotate to the back of the queue
        /// after accepting this many requests.
        split: Option<usize>,
        accepted_since_rotate: usize,
    },
    /// Shared-memory (`shared`) or parameter/constant access: occupies the
    /// unit for `cycles_left` cycles (the bank-conflict degree, or one),
    /// then completes after its space's fixed latency.
    Fixed {
        shared: bool,
        warp_slot: usize,
        dst: Option<Reg>,
        cycles_left: u32,
    },
}

/// An event completing inside the unit at `at`; `seq` orders equal `at`s.
#[derive(Debug)]
struct LocalDone {
    at: Cycle,
    seq: u64,
    what: Done,
}

#[derive(Debug)]
enum Done {
    /// An L1 hit of a tracked load; the request keeps its timestamps.
    Hit(MemRequest),
    /// A shared or parameter/constant access.
    Op(Completion),
}

impl PartialEq for LocalDone {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl Eq for LocalDone {}

impl Ord for LocalDone {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for LocalDone {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What a decoded request id or register must stay below: the SM's warp
/// slots and its scoreboard's registers per warp.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bounds {
    pub(crate) warps: usize,
    pub(crate) regs: usize,
}

impl Bounds {
    fn slot(self, slot: usize, what: &'static str) -> Result<(), WireError> {
        if slot < self.warps {
            Ok(())
        } else {
            Err(WireError::Malformed(what))
        }
    }

    fn reg(self, reg: Option<Reg>, what: &'static str) -> Result<(), WireError> {
        match reg {
            Some(r) if r.index() >= self.regs => Err(WireError::Malformed(what)),
            _ => Ok(()),
        }
    }

    fn request(self, req: &MemRequest) -> Result<(), WireError> {
        let (slot, dst) = unpack_id(req.id);
        self.slot(slot, "request id warp slot out of range")?;
        self.reg(Some(dst), "request id register out of range")
    }
}

/// One SM's LD/ST unit: the L1 and everything that queues in front of it.
#[derive(Debug)]
pub(crate) struct LdstUnit {
    sm: u16,
    l1: Cache,
    queue: VecDeque<LdstEntry>,
    local_done: BinaryHeap<Reverse<LocalDone>>,
    next_seq: u64,
    loadtrack: LoadTracker,
    /// Whether a memory instruction was dispatched this cycle.
    dispatched: bool,
    /// Buffers recycled from one memory instruction to the next: coalesced
    /// blocks and emptied request queues.
    block_buf: Vec<u64>,
    spare_pending: Vec<VecDeque<MemRequest>>,
}

impl LdstUnit {
    /// The unit of SM `sm`, attached to a (possibly warm) L1.
    pub(crate) fn new(sm: u16, l1: Cache) -> LdstUnit {
        LdstUnit {
            sm,
            l1,
            queue: VecDeque::new(),
            local_done: BinaryHeap::new(),
            next_seq: 0,
            loadtrack: LoadTracker::new(),
            dispatched: false,
            block_buf: Vec::new(),
            spare_pending: Vec::new(),
        }
    }

    /// Whether the queue can take no further instruction this cycle.
    pub(crate) fn is_full(&self, cfg: &GpuConfig) -> bool {
        self.queue.len() >= cfg.ldst_queue_len
    }

    /// Whether nothing is queued, pending completion or in the L1's MSHRs.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.local_done.is_empty() && self.l1.inflight() == 0
    }

    /// Whether the next tick has work that does not wait on the clock: a
    /// queued instruction, a miss waiting for the crossbar, or this cycle's
    /// dispatch flag to clear.
    pub(crate) fn busy(&self) -> bool {
        !self.queue.is_empty() || self.dispatched || self.l1.peek_miss().is_some()
    }

    /// When the earliest local completion falls due, if any is pending.
    pub(crate) fn next_done(&self) -> Option<Cycle> {
        self.local_done.peek().map(|d| d.0.at)
    }

    /// What a tick that finds nothing to do must leave unchanged.
    pub(crate) fn sleep_probe(&self) -> (CacheStats, [u64; 6]) {
        let sizes = [
            u64::from(self.dispatched),
            self.queue.len() as u64,
            self.local_done.len() as u64,
            self.next_seq,
            self.l1.inflight() as u64,
            self.loadtrack.inflight_count() as u64,
        ];
        (self.l1.stats().clone(), sizes)
    }

    /// `(queued instructions, L1 MSHRs in flight)`, for a hang report.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        (self.queue.len(), self.l1.inflight())
    }

    /// Assert the unit drained (debug builds, end of a completed launch).
    pub(crate) fn assert_drained(&self) {
        let sm = self.sm;
        assert!(self.queue.is_empty(), "SM{sm}: LD/ST queue not drained");
        assert!(
            self.local_done.is_empty(),
            "SM{sm}: local-done heap not drained"
        );
        assert_eq!(self.l1.inflight(), 0, "SM{sm}: L1 MSHRs not drained");
        assert_eq!(
            self.loadtrack.inflight_count(),
            0,
            "SM{sm}: load tracker not drained"
        );
    }

    /// Consume the unit, returning the L1 (warm, for the next launch) and
    /// the load tracker.
    pub(crate) fn into_parts(self) -> (Cache, LoadTracker) {
        (self.l1, self.loadtrack)
    }

    /// Queue the memory instruction at `pc` of warp `slot`. The caller
    /// reserves its destination register and counts the pending operation.
    pub(crate) fn dispatch(
        &mut self,
        slot: usize,
        linear_cta: u64,
        pc: usize,
        access: &MemAccess,
        ctx: &mut TickCtx<'_>,
        stats: &mut SmStats,
    ) {
        self.dispatched = true;
        let entry = match access.space {
            Space::Param | Space::Const => LdstEntry::Fixed {
                shared: false,
                warp_slot: slot,
                dst: access.dst,
                cycles_left: 1,
            },
            Space::Shared => {
                if !access.is_store {
                    stats.shared_load_warps += 1;
                }
                let degree = bank_conflict_degree(&access.lane_addrs);
                stats.bank_conflict_cycles += u64::from(degree - 1);
                LdstEntry::Fixed {
                    shared: true,
                    warp_slot: slot,
                    dst: access.dst,
                    cycles_left: degree,
                }
            }
            Space::Global | Space::Local | Space::Tex => {
                self.coalesce(slot, linear_cta, pc, access, ctx, stats)
            }
        };
        self.queue.push_back(entry);
    }

    /// Coalesce a global-backed access into one request per block.
    fn coalesce(
        &mut self,
        slot: usize,
        linear_cta: u64,
        pc: usize,
        access: &MemAccess,
        ctx: &mut TickCtx<'_>,
        stats: &mut SmStats,
    ) -> LdstEntry {
        let (cycle, is_store) = (ctx.cycle, access.is_store);
        let mut blocks = mem::take(&mut self.block_buf);
        coalesce_into(
            &access.lane_addrs,
            access.bytes,
            ctx.cfg.l1.line_bytes,
            &mut blocks,
        );
        let (class_tag, meta) = if is_store {
            (ClassTag::Other, None)
        } else {
            let class = ctx.decoded.class(pc);
            let (index, tag) = match class {
                LoadClass::Deterministic => (0, ClassTag::Deterministic),
                LoadClass::NonDeterministic => (1, ClassTag::NonDeterministic),
            };
            stats.global_load_warps[index] += 1;
            let active = access.lane_addrs.len() as u32;
            let meta = self
                .loadtrack
                .begin(pc, class, blocks.len() as u32, active, cycle);
            for &b in &blocks {
                ctx.blocktrack.record_at(b, linear_cta, pc as u64);
            }
            (tag, Some(meta))
        };
        let id = pack_id(slot, access.dst);
        let mut pending = self.spare_pending.pop().unwrap_or_default();
        for &b in &blocks {
            let mut req = if is_store {
                MemRequest::write(id, b, self.sm, cycle)
            } else {
                MemRequest::read(id, b, self.sm, class_tag, meta.unwrap_or(0), cycle)
            };
            if let Some(sr) = ctx.san.as_deref_mut() {
                req.san = sr.ledger.create(
                    ReqInfo {
                        pc: Some(pc),
                        class: class_tag,
                        is_write: is_store,
                        block_addr: b,
                        sm: self.sm,
                    },
                    cycle,
                );
            }
            pending.push_back(req);
        }
        self.block_buf = blocks;
        let split = match (ctx.cfg.warp_split_nd, class_tag) {
            (Some(k), ClassTag::NonDeterministic) => Some(k),
            _ => None,
        };
        LdstEntry::Global {
            warp_slot: slot,
            meta,
            is_store,
            pending,
            split,
            accepted_since_rotate: 0,
        }
    }

    /// First half of a cycle, before issue: accept the fills the
    /// interconnect delivers and retire the local completions now due.
    /// `san` is the SM's digest, which folds every fill. Returns whether
    /// anything arrived or retired.
    pub(crate) fn complete(
        &mut self,
        ctx: &mut TickCtx<'_>,
        san: &mut Option<SmSan>,
        done: &mut Vec<Completion>,
    ) -> Result<bool, TickError> {
        self.dispatched = false;
        let cycle = ctx.cycle;
        let mut any = false;
        while let Some(resp) = ctx.mem.pop_response(self.sm.into(), cycle) {
            any = true;
            let duplicate = ctx
                .san
                .as_deref_mut()
                .is_some_and(SanRun::should_duplicate_response);
            self.accept_response(resp, ctx, san, done)?;
            if duplicate {
                // Injected fault: the packet arrives a second time. The
                // conservation checker must report a double response.
                self.accept_response(resp, ctx, san, done)?;
            }
        }
        while self.local_done.peek().is_some_and(|d| d.0.at <= cycle) {
            any = true;
            let Reverse(head) = self.local_done.pop().expect("peeked above");
            match head.what {
                Done::Hit(mut req) => {
                    req.t_returned = cycle;
                    if req.san != 0 {
                        if let Some(sr) = ctx.san.as_deref_mut() {
                            sr.ledger.retire(req.san, cycle)?;
                        }
                    }
                    self.finish_request(req, cycle, done);
                }
                Done::Op(op) => done.push(op),
            }
        }
        Ok(any)
    }

    /// Handle one response from the interconnect: fill the L1 and release
    /// its waiters.
    fn accept_response(
        &mut self,
        resp: MemRequest,
        ctx: &mut TickCtx<'_>,
        san: &mut Option<SmSan>,
        done: &mut Vec<Completion>,
    ) -> Result<(), TickError> {
        let cycle = ctx.cycle;
        if resp.is_write {
            return Ok(()); // stores are fire-and-forget
        }
        if let Some(s) = san {
            s.fold(cycle);
            s.fold(resp.block_addr);
        }
        if let Some(sr) = ctx.san.as_deref_mut() {
            if resp.san != 0 {
                sr.ledger.transition(resp.san, SanStage::Returned, cycle)?;
            }
            if sr.should_drop_mshr() {
                // Injected fault: lose the MSHR bookkeeping just before the
                // fill; the empty fill below must be reported.
                self.l1.forget_mshr(resp.block_addr);
            }
        }
        let waiters = self.l1.fill(resp.block_addr, cycle);
        if waiters.is_empty() {
            // A fill with no waiting request means MSHR bookkeeping was lost
            // somewhere in the hierarchy. With the sanitizer on, the ledger
            // attributes the violation; without it, surface a bare
            // conservation report instead of panicking or silently dropping
            // the response.
            if let Some(sr) = ctx.san.as_deref_mut() {
                return Err(sr
                    .ledger
                    .response_without_request(resp.san, resp.block_addr, self.sm, resp.class, cycle)
                    .into());
            }
            return Err(TickError::San(Box::new(SanitizerReport::Conservation(
                ConservationReport {
                    kind: ConservationKind::ResponseWithoutRequest,
                    san_id: resp.san,
                    pc: None,
                    class: resp.class,
                    is_write: false,
                    block_addr: resp.block_addr,
                    sm: self.sm,
                    stage: SanStage::Returned,
                    cycle,
                },
            ))));
        }
        for mut w in waiters {
            w.t_icnt_inject = resp.t_icnt_inject;
            w.t_l2_done = resp.t_l2_done;
            w.t_returned = cycle;
            if w.san != 0 {
                if let Some(sr) = ctx.san.as_deref_mut() {
                    sr.ledger.retire(w.san, cycle)?;
                }
            }
            self.finish_request(w, cycle, done);
        }
        Ok(())
    }

    /// One request of a load returned; the load's last one completes it.
    fn finish_request(&mut self, req: MemRequest, cycle: Cycle, done: &mut Vec<Completion>) {
        if req.meta == PREFETCH_META {
            return; // prefetched data is now resident; nothing waits on it
        }
        if self.loadtrack.complete_request(req.meta, &req, cycle) {
            let (slot, dst) = unpack_id(req.id);
            done.push((slot, Some(dst)));
        }
    }

    /// Second half of a cycle, after issue: advance the head of the queue
    /// (a countdown step, or L1 access attempts for a global access), then
    /// move L1 misses into the interconnect. Returns whether the head moved
    /// (a countdown advanced or the L1 accepted a request).
    pub(crate) fn tick(
        &mut self,
        ctx: &mut TickCtx<'_>,
        stats: &mut SmStats,
        done: &mut Vec<Completion>,
    ) -> Result<bool, TickError> {
        if self.dispatched || !self.queue.is_empty() {
            stats.unit_busy[2] += 1;
        }
        let moved = match self.queue.front_mut() {
            None => false,
            Some(LdstEntry::Fixed {
                shared,
                warp_slot,
                dst,
                cycles_left,
            }) => {
                *cycles_left -= 1;
                if *cycles_left == 0 {
                    let latency = if *shared {
                        ctx.cfg.shared_latency
                    } else {
                        ctx.cfg.const_latency
                    };
                    self.local_done.push(Reverse(LocalDone {
                        at: ctx.cycle + Cycle::from(latency),
                        seq: self.next_seq,
                        what: Done::Op((*warp_slot, *dst)),
                    }));
                    self.next_seq += 1;
                    self.queue.pop_front();
                }
                true
            }
            Some(LdstEntry::Global { .. }) => self.process_global_head(ctx, stats, done)?,
        };
        self.drain_misses(ctx)?;
        Ok(moved)
    }

    fn process_global_head(
        &mut self,
        ctx: &mut TickCtx<'_>,
        stats: &mut SmStats,
        done: &mut Vec<Completion>,
    ) -> Result<bool, TickError> {
        let cycle = ctx.cycle;
        let hit_latency = Cycle::from(ctx.cfg.l1.hit_latency);
        let Some(LdstEntry::Global {
            warp_slot,
            meta,
            is_store,
            pending,
            split,
            accepted_since_rotate,
        }) = self.queue.front_mut()
        else {
            unreachable!("called with a global entry at the head")
        };
        let mut rotate = false;
        let mut accepted = false;
        for _port in 0..ctx.cfg.l1_ports {
            let Some(req) = pending.front().copied() else {
                break;
            };
            let outcome = self.l1.access(req, cycle);
            if !outcome.accepted() {
                break; // retry next cycle; head-of-line blocks
            }
            pending.pop_front();
            accepted = true;
            if req.san != 0 {
                if let Some(sr) = ctx.san.as_deref_mut() {
                    // Stores only ever return MissIssued when accepted
                    // (write-through), so the Hit/HitReserved arms are
                    // load-only.
                    let stage = match outcome {
                        AccessOutcome::Hit => SanStage::L1Hit,
                        AccessOutcome::HitReserved => SanStage::MshrMerged,
                        _ => SanStage::MissQueue,
                    };
                    sr.ledger.transition(req.san, stage, cycle)?;
                }
            }
            if let Some(m) = meta {
                self.loadtrack.note_accept(*m, cycle);
            }
            if outcome == AccessOutcome::Hit && !*is_store {
                let mut r = req;
                r.t_l1_accepted = cycle;
                self.local_done.push(Reverse(LocalDone {
                    at: cycle + hit_latency,
                    seq: self.next_seq,
                    what: Done::Hit(r),
                }));
                self.next_seq += 1;
            }
            if outcome == AccessOutcome::MissIssued
                && !*is_store
                && ctx.cfg.prefetch.triggers(req.class)
            {
                // Section X-A: class-selective next-line prefetch. Best
                // effort — reservation failures are simply dropped.
                let mut pf = MemRequest::read(
                    req.id,
                    req.block_addr + u64::from(ctx.cfg.l1.line_bytes),
                    self.sm,
                    ClassTag::Other,
                    PREFETCH_META,
                    cycle,
                );
                if let Some(sr) = ctx.san.as_deref_mut() {
                    // Tag before the access: on MissIssued/HitReserved the
                    // MSHR stores a copy of `pf`, so the id must be set now.
                    pf.san = sr.ledger.create(
                        ReqInfo {
                            pc: None,
                            class: ClassTag::Other,
                            is_write: false,
                            block_addr: pf.block_addr,
                            sm: self.sm,
                        },
                        cycle,
                    );
                }
                let pf_outcome = self.l1.access(pf, cycle);
                if pf_outcome == AccessOutcome::MissIssued {
                    stats.prefetches_issued += 1;
                }
                if pf.san != 0 {
                    if let Some(sr) = ctx.san.as_deref_mut() {
                        match pf_outcome {
                            AccessOutcome::MissIssued => {
                                sr.ledger.transition(pf.san, SanStage::MissQueue, cycle)?;
                            }
                            // Merged into an existing MSHR entry: it will
                            // come back with the fill, so it must stay live
                            // or the fill would double-retire it.
                            AccessOutcome::HitReserved => {
                                sr.ledger.transition(pf.san, SanStage::MshrMerged, cycle)?;
                            }
                            // Hit or reservation failure: dropped prefetch.
                            _ => sr.ledger.retire(pf.san, cycle)?,
                        }
                    }
                }
            }
            if let Some(k) = split {
                *accepted_since_rotate += 1;
                if *accepted_since_rotate >= *k && !pending.is_empty() {
                    *accepted_since_rotate = 0;
                    rotate = true;
                    break;
                }
            }
        }
        if pending.is_empty() {
            if *is_store {
                // All store requests handed to the memory system; the
                // LD/ST slot is free.
                done.push((*warp_slot, None));
            }
            if let Some(LdstEntry::Global { pending, .. }) = self.queue.pop_front() {
                self.spare_pending.push(pending);
            }
        } else if rotate {
            let entry = self.queue.pop_front().expect("head present");
            self.queue.push_back(entry);
        }
        Ok(accepted)
    }

    /// Move L1 misses into the interconnect.
    fn drain_misses(&mut self, ctx: &mut TickCtx<'_>) -> Result<(), TickError> {
        let cycle = ctx.cycle;
        while self.l1.peek_miss().is_some() && ctx.mem.can_inject_request(self.sm.into()) {
            let mut req = self.l1.pop_miss().expect("peeked above");
            if ctx
                .san
                .as_deref_mut()
                .is_some_and(|s| s.should_drop_store(req.is_write))
            {
                // Injected fault: the store vanishes between the L1 miss
                // queue and the interconnect. Nothing waits on a store, so
                // only the conservation ledger can notice.
                continue;
            }
            if req.san != 0 {
                if let Some(sr) = ctx.san.as_deref_mut() {
                    sr.ledger.transition(req.san, SanStage::IcntReq, cycle)?;
                }
            }
            req.t_icnt_inject = cycle;
            let ok = ctx.mem.inject_request(self.sm.into(), req);
            debug_assert!(ok, "inject after can_inject check");
        }
        Ok(())
    }

    // Snapshot v3 interleaves the unit's state with the SM's (see
    // `Sm::ckpt_encode`), so the unit is written and read in three pieces:
    // the L1, the queues, and a tail that carries the SM's statistics.

    /// Encode the L1.
    pub(crate) fn ckpt_encode_l1(&self, e: &mut Enc) {
        self.l1.ckpt_encode(e);
    }

    /// Decode a unit's L1 written by [`ckpt_encode_l1`](Self::ckpt_encode_l1),
    /// returning the unit with everything else empty.
    pub(crate) fn ckpt_decode_l1(
        d: &mut Dec<'_>,
        sm: u16,
        cfg: &GpuConfig,
    ) -> Result<LdstUnit, WireError> {
        Ok(LdstUnit::new(sm, Cache::ckpt_decode(d, cfg.l1)?))
    }

    /// Encode the LD/ST queue and the local completions. An L1 hit's
    /// request is written in a table after the completions, keyed by the
    /// completion's `seq`; the heap is written sorted, so equal states
    /// produce identical bytes.
    pub(crate) fn ckpt_encode_queues(&self, e: &mut Enc) {
        e.usize(self.queue.len());
        for entry in &self.queue {
            match entry {
                LdstEntry::Global {
                    warp_slot,
                    meta,
                    is_store,
                    pending,
                    split,
                    accepted_since_rotate,
                } => {
                    (0u8, *warp_slot, *meta, *is_store).put(e);
                    pending.put(e);
                    (*split, *accepted_since_rotate).put(e);
                }
                LdstEntry::Fixed {
                    shared,
                    warp_slot,
                    dst,
                    cycles_left,
                } => {
                    let tag: u8 = if *shared { 1 } else { 2 };
                    (tag, *warp_slot, reg_no(*dst), *cycles_left).put(e);
                }
            }
        }
        let mut done: Vec<&LocalDone> = self.local_done.iter().map(|r| &r.0).collect();
        done.sort_unstable();
        e.seq(&done, |e, ld| {
            let (meta, key, (warp_slot, dst)) = match &ld.what {
                Done::Hit(req) => (Some(req.meta), Some(ld.seq), (0, None)),
                Done::Op(op) => (None, None, *op),
            };
            ((ld.at, ld.seq, meta, key), (warp_slot, reg_no(dst))).put(e);
        });
        done.sort_unstable_by_key(|ld| ld.seq);
        let hits: Vec<(u64, MemRequest)> = done
            .iter()
            .filter_map(|ld| match &ld.what {
                Done::Hit(req) => Some((ld.seq, *req)),
                Done::Op(_) => None,
            })
            .collect();
        hits.put(e);
    }

    /// Decode what [`ckpt_encode_queues`](Self::ckpt_encode_queues) wrote,
    /// rejecting anything the first tick after a restore would trip over:
    /// a countdown at zero, a warp slot, register or request id outside
    /// `bounds`, and an L1-hit request not referenced by exactly one
    /// completion.
    pub(crate) fn ckpt_decode_queues(
        &mut self,
        d: &mut Dec<'_>,
        bounds: Bounds,
    ) -> Result<(), WireError> {
        let n_queue = d.seq_len()?;
        let mut queue = VecDeque::with_capacity(n_queue);
        for _ in 0..n_queue {
            let (tag, warp_slot) = <(u8, usize)>::get(d)?;
            bounds.slot(warp_slot, "LD/ST warp slot out of range")?;
            let entry = match tag {
                0 => {
                    let (meta, is_store, pending) = <(_, _, VecDeque<MemRequest>)>::get(d)?;
                    pending.iter().try_for_each(|r| bounds.request(r))?;
                    let (split, accepted_since_rotate) = Wire::get(d)?;
                    LdstEntry::Global {
                        warp_slot,
                        meta,
                        is_store,
                        pending,
                        split,
                        accepted_since_rotate,
                    }
                }
                1 | 2 => {
                    let (dst, cycles_left) = <(Option<u32>, u32)>::get(d)?;
                    let dst = dst.map(Reg);
                    bounds.reg(dst, "LD/ST destination register out of range")?;
                    if cycles_left == 0 {
                        return Err(WireError::Malformed("LD/ST countdown at zero"));
                    }
                    LdstEntry::Fixed {
                        shared: tag == 1,
                        warp_slot,
                        dst,
                        cycles_left,
                    }
                }
                _ => return Err(WireError::Malformed("bad LD/ST entry tag")),
            };
            queue.push_back(entry);
        }
        let rows: Vec<DoneRow> = Wire::get(d)?;
        let mut done = Vec::with_capacity(rows.len());
        for ((at, seq, meta, key), (warp_slot, dst)) in rows {
            let dst = dst.map(Reg);
            let what = match (meta, key) {
                (None, None) => {
                    bounds.slot(warp_slot, "local-done warp slot out of range")?;
                    bounds.reg(dst, "local-done register out of range")?;
                    Done::Op((warp_slot, dst))
                }
                // A placeholder holding `meta` until the request itself is
                // read from the table below.
                (Some(meta), Some(key)) if key == seq && warp_slot == 0 && dst.is_none() => {
                    Done::Hit(MemRequest::read(0, 0, 0, ClassTag::Other, meta, 0))
                }
                _ => return Err(WireError::Malformed("malformed L1-hit completion")),
            };
            done.push(LocalDone { at, seq, what });
        }
        let mut hits: Vec<&mut LocalDone> = done
            .iter_mut()
            .filter(|ld| matches!(ld.what, Done::Hit(_)))
            .collect();
        hits.sort_unstable_by_key(|ld| ld.seq);
        if d.seq_len()? != hits.len() {
            return Err(WireError::Malformed("L1-hit request count mismatch"));
        }
        let mut prev_key = None;
        for ld in hits {
            let (key, req) = <(u64, MemRequest)>::get(d)?;
            bounds.request(&req)?;
            let Done::Hit(slot) = &mut ld.what else {
                unreachable!("filtered to hits above")
            };
            if key != ld.seq || prev_key == Some(key) || req.meta != slot.meta {
                return Err(WireError::Malformed("L1-hit request key mismatch"));
            }
            prev_key = Some(key);
            *slot = req;
        }
        self.queue = queue;
        self.local_done = done.into_iter().map(Reverse).collect();
        Ok(())
    }

    /// Encode the load tracker, `stats` (the SM's, which sit between it and
    /// the rest of the unit), the completion sequence counter and the
    /// dispatch flag.
    pub(crate) fn ckpt_encode_tail(&self, e: &mut Enc, stats: &SmStats) {
        self.loadtrack.put(e);
        stats.put(e);
        (self.next_seq, self.dispatched).put(e);
    }

    /// Decode what [`ckpt_encode_tail`](Self::ckpt_encode_tail) wrote,
    /// returning the SM's statistics.
    pub(crate) fn ckpt_decode_tail(&mut self, d: &mut Dec<'_>) -> Result<SmStats, WireError> {
        let stats;
        (self.loadtrack, stats, self.next_seq, self.dispatched) = Wire::get(d)?;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sm::{Sm, Writebacks};
    use gcl_ptx::{KernelBuilder, Type};

    type Plant = fn(&mut LdstUnit, &mut Writebacks);

    const AT: Cycle = 0xA7A7_A7A7;
    const SEQ: u64 = 0x5E05_5E05;

    /// A load request whose id packs `slot` and `reg`.
    fn load(slot: usize, reg: u32) -> MemRequest {
        let id = pack_id(slot, Some(Reg(reg)));
        MemRequest::read(id, 0x80, 0, ClassTag::Deterministic, 0, 0)
    }

    fn fixed(shared: bool, dst: u32, cycles_left: u32) -> LdstEntry {
        LdstEntry::Fixed {
            shared,
            warp_slot: 1,
            dst: Some(Reg(dst)),
            cycles_left,
        }
    }

    fn global(req: MemRequest) -> LdstEntry {
        LdstEntry::Global {
            warp_slot: 1,
            meta: Some(0),
            is_store: false,
            pending: VecDeque::from([req]),
            split: None,
            accepted_since_rotate: 0,
        }
    }

    fn local(what: Done) -> Reverse<LocalDone> {
        Reverse(LocalDone {
            at: AT,
            seq: SEQ,
            what,
        })
    }

    /// The encoding of an SM of `GpuConfig::small()` (8 warp slots) running
    /// a one-register kernel (one scoreboard word: registers 0..64), with
    /// `plant` applied.
    fn encoded(plant: Plant) -> Vec<u8> {
        let cfg = GpuConfig::small();
        let mut b = KernelBuilder::new("k");
        b.mov(Type::U32, 1i64);
        b.exit();
        let kernel = b.build().unwrap();
        let mut sm = Sm::new(0, &cfg, &kernel, 2, Cache::new(cfg.l1));
        let (unit, writebacks) = sm.planted();
        plant(unit, writebacks);
        let mut e = Enc::new();
        sm.ckpt_encode(&mut e);
        e.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        let sm = Sm::ckpt_decode(&mut Dec::new(bytes), &GpuConfig::small(), 0)?;
        let mut e = Enc::new();
        sm.ckpt_encode(&mut e);
        Ok(e.into_bytes())
    }

    /// A checksum-valid snapshot must not panic the first tick after a
    /// restore: each field that tick would index with, or count down from,
    /// is range-checked at decode. The in-range twin of every case decodes
    /// and re-encodes to the same bytes.
    #[test]
    fn decode_rejects_what_the_next_tick_would_trip_over() {
        let good: [Plant; 6] = [
            |u, _| u.queue.push_back(fixed(true, 63, 1)),
            |u, _| u.queue.push_back(fixed(false, 63, 1)),
            |u, _| u.queue.push_back(global(load(7, 63))),
            |u, _| u.local_done.push(local(Done::Op((7, Some(Reg(63)))))),
            |u, _| u.local_done.push(local(Done::Hit(load(7, 63)))),
            |_, w| w.push(Reverse((AT, 7, Reg(63)))),
        ];
        for (i, plant) in good.into_iter().enumerate() {
            let bytes = encoded(plant);
            assert_eq!(decode(&bytes).as_deref(), Ok(&bytes[..]), "good case {i}");
        }
        let bad: [(&str, Plant); 11] = [
            ("shared countdown at zero", |u, _| {
                u.queue.push_back(fixed(true, 1, 0))
            }),
            ("parameter countdown at zero", |u, _| {
                u.queue.push_back(fixed(false, 1, 0))
            }),
            ("LD/ST dst past the scoreboard row", |u, _| {
                u.queue.push_back(fixed(true, 64, 1))
            }),
            ("queued request's warp slot", |u, _| {
                u.queue.push_back(global(load(8, 1)))
            }),
            ("queued request's register", |u, _| {
                u.queue.push_back(global(load(1, 64)))
            }),
            ("local completion's warp slot", |u, _| {
                u.local_done.push(local(Done::Op((8, None))))
            }),
            ("local completion's register", |u, _| {
                u.local_done.push(local(Done::Op((1, Some(Reg(64))))))
            }),
            ("L1 hit's warp slot", |u, _| {
                u.local_done.push(local(Done::Hit(load(8, 1))))
            }),
            ("L1 hit's register", |u, _| {
                u.local_done.push(local(Done::Hit(load(1, 64))))
            }),
            ("writeback register", |_, w| {
                w.push(Reverse((AT, 1, Reg(64))))
            }),
            ("writeback warp slot", |_, w| {
                w.push(Reverse((AT, 8, Reg(1))))
            }),
        ];
        for (what, plant) in bad {
            assert!(decode(&encoded(plant)).is_err(), "{what} accepted");
        }

        // A keyed request no completion references: rewrite an L1-hit
        // completion into a parameter completion of slot 0, leaving its
        // request in the table behind it.
        let bytes = encoded(|u, _| u.local_done.push(local(Done::Hit(load(1, 1)))));
        let mut hit = Enc::new();
        hit.u64(AT);
        hit.u64(SEQ);
        hit.opt(&Some(0u64), |e, &m| e.u64(m));
        hit.opt(&Some(SEQ), |e, &k| e.u64(k));
        hit.usize(0);
        hit.u8(0);
        let hit = hit.into_bytes();
        let mut op = Enc::new();
        op.u64(AT);
        op.u64(SEQ);
        op.u8(0);
        op.u8(0);
        op.usize(0);
        op.u8(0);
        let at = bytes
            .windows(hit.len())
            .position(|w| w == hit)
            .expect("the hit completion is encoded");
        let orphan = [&bytes[..at], &op.into_bytes(), &bytes[at + hit.len()..]].concat();
        assert!(
            decode(&orphan).is_err(),
            "unreferenced L1-hit request accepted"
        );
    }

    #[test]
    fn bank_conflicts_counted() {
        // All lanes hit the same bank, different words: degree 4.
        let addrs: Vec<(u32, u64)> = (0..4).map(|l| (l, u64::from(l) * 128)).collect();
        assert_eq!(bank_conflict_degree(&addrs), 4);
        // Conflict-free: consecutive words.
        let addrs: Vec<(u32, u64)> = (0..32).map(|l| (l, u64::from(l) * 4)).collect();
        assert_eq!(bank_conflict_degree(&addrs), 1);
        // Broadcast: same word everywhere.
        let addrs: Vec<(u32, u64)> = (0..32).map(|l| (l, 64)).collect();
        assert_eq!(bank_conflict_degree(&addrs), 1);
        assert_eq!(bank_conflict_degree(&[]), 1);
    }
}
