//! The streaming multiprocessor: warp scheduling, issue, LD/ST unit with
//! coalescing and L1 access retry, writeback, barriers and CTA retirement.

use crate::coalesce::coalesce_into;
use crate::fault::{MemFaultReport, SmSnapshot, WarpSnapshot};
use crate::replay::{warps_per_cta, LaunchReplay, ReplayKind, TraceSink};
use crate::san::{SanRun, SmSan, TickError};
use crate::warp::{ExecCtx, MemAccess, ReplayCursor, StepResult, Warp};
use crate::{
    BlockTracker, DecodedKernel, Dim3, GlobalMem, GpuConfig, LoadTracker, Scoreboard, Trace,
    WarpScheduler,
};
use gcl_core::LoadClass;
use gcl_mem::{
    AccessOutcome, AddrMap, Cache, ClassTag, Cycle, Dec, Enc, Icnt, MemRequest, ReqInfo, SanStage,
    WireError,
};
use gcl_ptx::{Kernel, Reg, Space, Unit};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::mem;

/// Sentinel `meta` value marking prefetch requests (no load-tracker entry).
const PREFETCH_META: u64 = u64::MAX;

/// Per-SM execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp-level instructions issued.
    pub warp_insts: u64,
    /// Thread-level instructions (warp instructions × active lanes).
    pub thread_insts: u64,
    /// Dynamic global-load warp instructions by class `[D, N]`.
    pub global_load_warps: [u64; 2],
    /// Dynamic shared-load warp instructions (profiler `shared_load`).
    pub shared_load_warps: u64,
    /// Cycles each unit's first stage was occupied `[SP, SFU, LDST]`.
    pub unit_busy: [u64; 3],
    /// Cycles this SM was ticked.
    pub cycles: u64,
    /// Extra cycles spent serializing shared-memory bank conflicts.
    pub bank_conflict_cycles: u64,
    /// CTAs retired.
    pub ctas_retired: u64,
    /// Next-line prefetches issued into the L1.
    pub prefetches_issued: u64,
    /// Branch warp instructions executed.
    pub branches: u64,
    /// Branches that split the warp (control-flow divergence).
    pub divergent_branches: u64,
}

impl SmStats {
    /// Merge another SM's stats into this one.
    pub fn merge(&mut self, o: &SmStats) {
        self.warp_insts += o.warp_insts;
        self.thread_insts += o.thread_insts;
        self.global_load_warps[0] += o.global_load_warps[0];
        self.global_load_warps[1] += o.global_load_warps[1];
        self.shared_load_warps += o.shared_load_warps;
        for u in 0..3 {
            self.unit_busy[u] += o.unit_busy[u];
        }
        self.cycles += o.cycles;
        self.bank_conflict_cycles += o.bank_conflict_cycles;
        self.ctas_retired += o.ctas_retired;
        self.prefetches_issued += o.prefetches_issued;
        self.branches += o.branches;
        self.divergent_branches += o.divergent_branches;
    }
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
struct CtaState {
    warp_slots: Vec<usize>,
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
    /// Shared-memory access: occupies the unit for the conflict-serialized
    /// cycles, then completes after the shared latency.
    Shared {
        warp_slot: usize,
        dst: Option<Reg>,
        cycles_left: u32,
    },
    /// Parameter/constant-cache access: ideal, fixed latency.
    Const {
        warp_slot: usize,
        dst: Option<Reg>,
        cycles_left: u32,
    },
}

/// Events completing inside the SM (L1 hits, shared/const loads).
#[derive(Debug, PartialEq, Eq)]
struct LocalDone {
    at: Cycle,
    seq: u64,
    meta: Option<u64>,
    req: Option<MemRequestOrd>,
    warp_slot: usize,
    dst: Option<Reg>,
}

/// Wrapper to keep `MemRequest` out of the heap's Ord.
#[derive(Debug, PartialEq, Eq)]
struct MemRequestOrd(u64);

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

/// Everything an SM needs from the GPU for one cycle.
pub struct TickCtx<'a> {
    /// Current cycle.
    pub cycle: Cycle,
    /// The running kernel.
    pub kernel: &'a Kernel,
    /// The running kernel decoded for this launch: hazard masks, units, load
    /// classes and the micro-ops warps execute.
    pub decoded: &'a DecodedKernel,
    /// Kernel parameter block.
    pub params: &'a [u8],
    /// Device memory.
    pub gmem: &'a mut GlobalMem,
    /// Interconnect.
    pub icnt: &'a mut Icnt,
    /// Address-to-partition mapping.
    pub addrmap: &'a AddrMap,
    /// Cross-SM block locality tracker.
    pub blocktrack: &'a mut BlockTracker,
    /// GPU configuration.
    pub cfg: &'a GpuConfig,
    /// CTA dimensions of the launch.
    pub ntid: Dim3,
    /// Optional trace sink observing every issued instruction.
    pub sink: &'a mut Option<Box<dyn TraceSink>>,
    /// Per-launch sanitizer state (ledger + injection), present when
    /// [`GpuConfig::sanitize`] is on.
    pub san: Option<&'a mut SanRun>,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: u16,
    l1: Cache,
    warps: Vec<Option<Warp>>,
    warp_age: Vec<u64>,
    pending_ops: Vec<u32>,
    next_age: u64,
    cta_slots: Vec<Option<CtaState>>,
    smem: Vec<Vec<u8>>,
    scoreboard: Scoreboard,
    schedulers: Vec<WarpScheduler>,
    ldst_queue: VecDeque<LdstEntry>,
    local_done: BinaryHeap<Reverse<LocalDone>>,
    /// Side table for requests riding `local_done` (L1 hits keep stamps).
    local_reqs: HashMap<u64, MemRequest>,
    writebacks: BinaryHeap<Reverse<(Cycle, usize, Reg)>>,
    loadtrack: LoadTracker,
    stats: SmStats,
    next_seq: u64,
    issued_mem_this_cycle: bool,
    /// Per-SM sanitizer state (digest + shared-memory shadow), present when
    /// [`GpuConfig::sanitize`] is on.
    san: Option<SmSan>,
    /// Occupied CTA slots (derived from `cta_slots`).
    live_ctas: usize,
    /// Buffers recycled from one memory instruction to the next: per-lane
    /// addresses, coalesced blocks, and emptied request queues.
    lane_buf: Vec<(u32, u64)>,
    block_buf: Vec<u64>,
    spare_pending: Vec<VecDeque<MemRequest>>,
}

impl Sm {
    /// Create an SM for one kernel launch, attaching a (possibly warm) L1.
    pub fn new(id: u16, cfg: &GpuConfig, kernel: &Kernel, n_cta_slots: usize, l1: Cache) -> Sm {
        let max_warps = (cfg.max_threads_per_sm / cfg.warp_size) as usize;
        Sm {
            id,
            l1,
            warps: (0..max_warps).map(|_| None).collect(),
            warp_age: vec![0; max_warps],
            pending_ops: vec![0; max_warps],
            next_age: 0,
            cta_slots: (0..n_cta_slots).map(|_| None).collect(),
            smem: (0..n_cta_slots)
                .map(|_| vec![0u8; kernel.shared_bytes() as usize])
                .collect(),
            scoreboard: Scoreboard::new(max_warps, kernel.num_regs()),
            schedulers: (0..cfg.n_schedulers)
                .map(|_| WarpScheduler::new(cfg.warp_sched, max_warps))
                .collect(),
            ldst_queue: VecDeque::new(),
            local_done: BinaryHeap::new(),
            local_reqs: HashMap::new(),
            writebacks: BinaryHeap::new(),
            loadtrack: LoadTracker::new(),
            stats: SmStats::default(),
            next_seq: 0,
            issued_mem_this_cycle: false,
            san: cfg
                .sanitize
                .then(|| SmSan::new(n_cta_slots, kernel.shared_bytes() as usize)),
            live_ctas: 0,
            lane_buf: Vec::new(),
            block_buf: Vec::new(),
            spare_pending: Vec::new(),
        }
    }

    /// Whether a CTA slot is free.
    pub fn has_free_cta_slot(&self) -> bool {
        self.live_ctas < self.cta_slots.len()
    }

    /// Whether this SM has any resident work.
    pub fn is_idle(&self) -> bool {
        self.live_ctas == 0
            && self.ldst_queue.is_empty()
            && self.local_done.is_empty()
            && self.writebacks.is_empty()
            && self.l1.inflight() == 0
    }

    /// Assert that every per-launch structure has fully drained. Called on
    /// the success path of a launch (debug builds): a completed launch with
    /// residue here means a request or op-count leaked.
    pub(crate) fn assert_drained(&self) {
        assert!(
            self.ldst_queue.is_empty(),
            "SM{}: LD/ST queue not drained",
            self.id
        );
        assert!(
            self.local_done.is_empty(),
            "SM{}: local-done heap not drained",
            self.id
        );
        assert!(
            self.local_reqs.is_empty(),
            "SM{}: local request map not drained",
            self.id
        );
        assert!(
            self.writebacks.is_empty(),
            "SM{}: writeback heap not drained",
            self.id
        );
        assert_eq!(self.l1.inflight(), 0, "SM{}: L1 MSHRs not drained", self.id);
        assert_eq!(
            self.loadtrack.inflight_count(),
            0,
            "SM{}: load tracker not drained",
            self.id
        );
        for (slot, &n) in self.pending_ops.iter().enumerate() {
            assert_eq!(n, 0, "SM{}: warp slot {slot} has pending ops", self.id);
        }
    }

    /// This SM's event digest for the launch, when sanitizing.
    pub(crate) fn san_digest(&self) -> Option<u64> {
        self.san.as_ref().map(|s| s.digest)
    }

    /// Re-attach stream contents to replay cursors decoded from a snapshot
    /// (only the cursor position is serialized). Validates each cursor
    /// against the supplied trace.
    pub(crate) fn relink_replay(
        &mut self,
        rep: &LaunchReplay,
    ) -> Result<(), crate::ckpt::CheckpointError> {
        use crate::ckpt::CheckpointError;
        for warp in self.warps.iter_mut().flatten() {
            let Some(c) = &mut warp.replay else { continue };
            if c.recs.is_some() {
                continue;
            }
            let stream = rep
                .streams
                .get(c.stream as usize)
                .ok_or(CheckpointError::Malformed("replay stream out of range"))?;
            if c.pos > stream.len() {
                return Err(CheckpointError::Malformed(
                    "replay cursor past end of stream",
                ));
            }
            c.recs = Some(stream.clone());
        }
        Ok(())
    }

    /// Place one CTA onto this SM.
    ///
    /// # Panics
    ///
    /// Panics if no CTA slot or not enough warp slots are free (the GPU's
    /// occupancy computation should prevent this).
    #[allow(clippy::too_many_arguments)]
    pub fn dispatch_cta(
        &mut self,
        linear_cta: u64,
        ctaid: (u32, u32, u32),
        ntid: Dim3,
        cfg: &GpuConfig,
        kernel: &Kernel,
        decoded: &DecodedKernel,
        replay: Option<&LaunchReplay>,
    ) {
        let cta_slot = self
            .cta_slots
            .iter()
            .position(Option::is_none)
            .expect("no free CTA slot");
        let n_warps = ntid.count().div_ceil(u64::from(cfg.warp_size)) as usize;
        let free_slots: Vec<usize> = self
            .warps
            .iter()
            .enumerate()
            .filter(|(_, w)| w.is_none())
            .map(|(i, _)| i)
            .take(n_warps)
            .collect();
        assert_eq!(free_slots.len(), n_warps, "not enough free warp slots");
        for (w, &slot) in free_slots.iter().enumerate() {
            let mut warp = Warp::new(
                slot,
                cta_slot,
                linear_cta,
                ctaid,
                w as u32,
                ntid,
                cfg.warp_size,
                kernel.num_regs(),
            );
            if let Some(rep) = replay {
                let stream = linear_cta * warps_per_cta(ntid, cfg.warp_size) + w as u64;
                warp.replay = Some(ReplayCursor {
                    stream,
                    pos: 0,
                    recs: Some(rep.streams[stream as usize].clone()),
                });
            }
            self.warps[slot] = Some(warp);
            self.warp_age[slot] = self.next_age;
            self.next_age += 1;
            self.pending_ops[slot] = 0;
            self.refresh_ready(slot, decoded);
        }
        self.smem[cta_slot].iter_mut().for_each(|b| *b = 0);
        if let Some(s) = &mut self.san {
            s.clear_slot(cta_slot);
        }
        self.cta_slots[cta_slot] = Some(CtaState {
            warp_slots: free_slots,
        });
        self.live_ctas += 1;
    }

    /// Whether the warp in `slot` could issue its next instruction: `None`
    /// when the slot is empty or the warp is finished, parked at a barrier
    /// or blocked on the scoreboard; otherwise whether that instruction
    /// needs the LD/ST unit. This full poll defines the schedulers' ready
    /// sets, which cache it between the events that can change it.
    fn poll_ready(&self, slot: usize, decoded: &DecodedKernel) -> Option<bool> {
        let w = self.warps[slot].as_ref()?;
        if w.is_finished() || w.at_barrier.is_some() {
            return None;
        }
        let pc = w.pc();
        (!self.scoreboard.blocked(slot, decoded.mask(pc))).then(|| decoded.unit(pc) == Unit::LdSt)
    }

    /// Re-poll `slot` after an event that can change its readiness: its own
    /// issue, a scoreboard release, a barrier release, or its dispatch.
    fn refresh_ready(&mut self, slot: usize, decoded: &DecodedKernel) {
        let ready = self.poll_ready(slot, decoded);
        let n_sched = self.schedulers.len();
        self.schedulers[slot % n_sched].set_ready(slot, ready);
    }

    /// Rebuild every scheduler's ready set from scratch (first step after a
    /// launch begins or a snapshot is restored; the sets are not serialised).
    pub(crate) fn rebuild_ready(&mut self, decoded: &DecodedKernel) {
        for slot in 0..self.warps.len() {
            self.refresh_ready(slot, decoded);
        }
    }

    /// A pending operation of `slot` finished: release its destination
    /// register, which may unblock the warp.
    fn complete_op(&mut self, slot: usize, dst: Option<Reg>, decoded: &DecodedKernel) {
        self.pending_ops[slot] -= 1;
        if let Some(d) = dst {
            self.scoreboard.release(slot, d);
            self.refresh_ready(slot, decoded);
        }
    }

    fn class_tag(class: LoadClass) -> ClassTag {
        match class {
            LoadClass::Deterministic => ClassTag::Deterministic,
            LoadClass::NonDeterministic => ClassTag::NonDeterministic,
        }
    }

    /// Advance this SM one cycle.
    ///
    /// Returns whether the SM made forward progress this cycle (issued an
    /// instruction, completed a writeback or memory response, accepted a
    /// request into the L1, or retired a CTA) — the signal the GPU's hang
    /// watchdog integrates.
    ///
    /// # Errors
    ///
    /// Under [`GpuConfig::memcheck`], returns [`TickError::Mem`] with a
    /// partially attributed [`MemFaultReport`] (placement filled in;
    /// classification context is added by the GPU) on the first
    /// out-of-bounds device access. Under [`GpuConfig::sanitize`], returns
    /// [`TickError::San`] when a sanitizer checker fires.
    pub fn tick(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        self.stats.cycles += 1;
        self.issued_mem_this_cycle = false;
        if self.live_ctas == 0 {
            // No resident CTA, so no warp, pending op or LD/ST entry. Stores
            // are fire-and-forget though: their acks (and prefetch fills)
            // still arrive and their misses may still sit in the L1's queue.
            debug_assert!(self.ldst_queue.is_empty() && self.writebacks.is_empty());
            debug_assert!(self.local_done.is_empty());
            let progress = self.process_responses(ctx)?;
            self.drain_misses(ctx)?;
            return Ok(progress);
        }
        // Every stage below costs O(1) when it has nothing to do (a heap or
        // queue head not yet due, empty ready sets), so a resident but
        // quiescent SM — all warps waiting on memory — falls straight through.
        let mut progress = false;

        progress |= self.process_writebacks(ctx);
        progress |= self.process_responses(ctx)?;
        progress |= self.process_local_done(ctx)?;
        let (sp_issued, sfu_issued, any_issued) = self.issue(ctx)?;
        progress |= any_issued;
        if any_issued {
            // Only an issue (a warp parking or exiting) can complete a barrier.
            self.release_barriers(ctx.decoded);
        }
        let ldst_active = !self.ldst_queue.is_empty();
        progress |= self.process_ldst(ctx)?;
        self.drain_misses(ctx)?;

        if sp_issued {
            self.stats.unit_busy[0] += 1;
        }
        if sfu_issued {
            self.stats.unit_busy[1] += 1;
        }
        if ldst_active || self.issued_mem_this_cycle {
            self.stats.unit_busy[2] += 1;
        }

        // A CTA retires when its last warp exits or its last pending op
        // completes; every such event is an issue, a completion, or the
        // LD/ST unit handing off a store.
        if progress || ldst_active {
            progress |= self.retire_ctas();
        }
        Ok(progress)
    }

    fn process_writebacks(&mut self, ctx: &TickCtx<'_>) -> bool {
        let cycle = ctx.cycle;
        let mut any = false;
        while let Some(&Reverse((at, slot, reg))) = self.writebacks.peek() {
            if at > cycle {
                break;
            }
            self.writebacks.pop();
            self.complete_op(slot, Some(reg), ctx.decoded);
            if let Some(s) = &mut self.san {
                s.fold(at);
                s.fold(((slot as u64) << 32) | u64::from(reg.0));
            }
            any = true;
        }
        any
    }

    /// Accept fills coming back from the interconnect.
    fn process_responses(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        let cycle = ctx.cycle;
        let mut any = false;
        while let Some(resp) = ctx.icnt.pop_response(self.id.into(), cycle) {
            any = true;
            let duplicate = ctx
                .san
                .as_deref_mut()
                .is_some_and(SanRun::should_duplicate_response);
            self.accept_response(resp, ctx)?;
            if duplicate {
                // Injected fault: the packet arrives a second time. The
                // conservation checker must report a double response.
                self.accept_response(resp, ctx)?;
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
    ) -> Result<(), TickError> {
        let cycle = ctx.cycle;
        if resp.is_write {
            return Ok(()); // stores are fire-and-forget
        }
        if let Some(s) = &mut self.san {
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
                    .response_without_request(resp.san, resp.block_addr, self.id, resp.class, cycle)
                    .into());
            }
            return Err(TickError::San(Box::new(
                crate::san::SanitizerReport::Conservation(gcl_mem::ConservationReport {
                    kind: gcl_mem::ConservationKind::ResponseWithoutRequest,
                    san_id: resp.san,
                    pc: None,
                    class: resp.class,
                    is_write: false,
                    block_addr: resp.block_addr,
                    sm: self.id,
                    stage: SanStage::Returned,
                    cycle,
                }),
            )));
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
            self.finish_request(w, cycle, ctx.decoded);
        }
        Ok(())
    }

    fn finish_request(&mut self, req: MemRequest, cycle: Cycle, decoded: &DecodedKernel) {
        let meta = req.meta;
        if meta == PREFETCH_META {
            return; // prefetched data is now resident; nothing waits on it
        }
        if self.loadtrack.complete_request(meta, &req, cycle) {
            // Whole warp load finished: find its record (dst/warp) via the
            // request's packed routing info.
            let warp_slot = (req.id >> 32) as usize;
            let dst = Reg((req.id & 0xFFFF_FFFF) as u32);
            self.complete_op(warp_slot, Some(dst), decoded);
        }
    }

    fn process_local_done(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        let cycle = ctx.cycle;
        let mut any = false;
        while let Some(Reverse(head)) = self.local_done.peek() {
            if head.at > cycle {
                break;
            }
            any = true;
            let Reverse(done) = self.local_done.pop().unwrap();
            match (done.meta, done.req) {
                // An L1-hit request of a tracked load.
                (Some(_meta), Some(MemRequestOrd(key))) => {
                    let mut req = self.local_reqs.remove(&key).expect("missing local request");
                    req.t_returned = cycle;
                    if req.san != 0 {
                        if let Some(sr) = ctx.san.as_deref_mut() {
                            sr.ledger.retire(req.san, cycle)?;
                        }
                    }
                    self.finish_request(req, cycle, ctx.decoded);
                }
                // Shared/const load completion.
                _ => self.complete_op(done.warp_slot, done.dst, ctx.decoded),
            }
        }
        Ok(any)
    }

    /// Issue up to one instruction per scheduler. Returns
    /// `(sp, sfu, any_issued)` flags for occupancy accounting and the hang
    /// watchdog.
    fn issue(&mut self, ctx: &mut TickCtx<'_>) -> Result<(bool, bool, bool), TickError> {
        let n_sched = self.schedulers.len();
        if cfg!(debug_assertions) {
            for slot in 0..self.warps.len() {
                assert_eq!(
                    self.schedulers[slot % n_sched].ready(slot),
                    self.poll_ready(slot, ctx.decoded),
                    "SM{}: ready set of warp slot {slot} diverged from a full poll",
                    self.id
                );
            }
        }
        let mut sp = false;
        let mut sfu = false;
        let mut any = false;
        for s in 0..n_sched {
            let ldst_full = self.ldst_queue.len() >= ctx.cfg.ldst_queue_len;
            let (warps, ages) = (&self.warps, &self.warp_age);
            let picked = self.schedulers[s].pick(
                ldst_full,
                |l| l % n_sched == s && warps.get(l).is_some_and(Option::is_some),
                |slot| ages[slot],
            );
            let Some(slot) = picked else { continue };
            match self.issue_warp(slot, ctx)? {
                Unit::Sp => sp = true,
                Unit::Sfu => sfu = true,
                _ => {}
            }
            any = true;
        }
        Ok((sp, sfu, any))
    }

    /// Issue the next instruction of the warp in `slot`; returns the unit it
    /// occupies.
    fn issue_warp(&mut self, slot: usize, ctx: &mut TickCtx<'_>) -> Result<Unit, TickError> {
        let cycle = ctx.cycle;
        let mut warp = self.warps[slot].take().expect("issuing empty warp slot");
        let active_mask = warp.active_mask();
        let active = active_mask.count_ones();
        let cta_slot = warp.cta_slot;
        let pc = warp.pc();
        let inst_unit = ctx.decoded.unit(pc);
        let result = if warp.replay.is_some() {
            // Replay: re-inject the recorded step outcome; no functional
            // execution (a recorded stream cannot fault).
            Ok(warp.step_replay(&mut self.lane_buf))
        } else {
            let mut ectx = ExecCtx {
                decoded: ctx.decoded,
                params: ctx.params,
                gmem: ctx.gmem,
                smem: &mut self.smem[cta_slot],
                memcheck: ctx.cfg.memcheck,
                lane_buf: &mut self.lane_buf,
            };
            warp.step(&mut ectx)
        };
        let result = match result {
            Ok(r) => r,
            Err(violation) => {
                // Leave the warp in place (pc still at the faulting
                // instruction) so the state is inspectable, and hand the
                // placement-attributed report up; the GPU attaches the
                // classification context.
                let cta = warp.linear_cta;
                self.warps[slot] = Some(warp);
                return Err(TickError::Mem(Box::new(MemFaultReport {
                    kernel: ctx.kernel.name().to_string(),
                    sm: self.id,
                    warp_slot: slot,
                    cta,
                    violation,
                    class: None,
                    witness: Vec::new(),
                })));
            }
        };
        self.stats.warp_insts += 1;
        self.stats.thread_insts += u64::from(active);
        if let Some(s) = &mut self.san {
            s.fold(cycle);
            s.fold(((pc as u64) << 32) | u64::from(active_mask));
        }
        let linear_cta = warp.linear_cta;
        if let Some(sink) = ctx.sink.as_deref_mut() {
            let ev = Trace::event(
                cycle,
                self.id,
                slot as u16,
                linear_cta,
                pc as u32,
                active_mask,
            );
            let stream = linear_cta * warps_per_cta(ctx.ntid, ctx.cfg.warp_size)
                + u64::from(warp.warp_in_cta);
            let kind = ReplayKind::of_step(&result, warp.at_barrier);
            sink.issue(stream, &ev, &kind);
        }
        self.warps[slot] = Some(warp);

        match result {
            StepResult::Alu { dst } => {
                let latency = match inst_unit {
                    Unit::Sfu => ctx.cfg.sfu_latency,
                    _ => ctx.cfg.sp_latency,
                };
                if let Some(d) = dst {
                    self.scoreboard.reserve(slot, d);
                    self.pending_ops[slot] += 1;
                    self.writebacks
                        .push(Reverse((cycle + Cycle::from(latency), slot, d)));
                }
            }
            StepResult::Mem(access) => {
                self.issued_mem_this_cycle = true;
                self.dispatch_mem(slot, linear_cta, pc, access, ctx)?;
            }
            StepResult::Branch { diverged } => {
                self.stats.branches += 1;
                if diverged {
                    self.stats.divergent_branches += 1;
                }
            }
            StepResult::Predicated | StepResult::Exit => {}
            StepResult::Barrier => {}
        }
        self.refresh_ready(slot, ctx.decoded);
        Ok(inst_unit)
    }

    fn dispatch_mem(
        &mut self,
        slot: usize,
        linear_cta: u64,
        pc: usize,
        access: MemAccess,
        ctx: &mut TickCtx<'_>,
    ) -> Result<(), TickError> {
        let cycle = ctx.cycle;
        match access.space {
            Space::Param | Space::Const => {
                if let Some(d) = access.dst {
                    self.scoreboard.reserve(slot, d);
                }
                self.pending_ops[slot] += 1;
                self.ldst_queue.push_back(LdstEntry::Const {
                    warp_slot: slot,
                    dst: access.dst,
                    cycles_left: 1,
                });
            }
            Space::Shared => {
                if let Some(s) = &mut self.san {
                    let w = self.warps[slot]
                        .as_ref()
                        .expect("warp resident at dispatch");
                    s.check_shared(
                        w.cta_slot,
                        self.id,
                        linear_cta,
                        w.warp_in_cta,
                        pc,
                        access.is_store,
                        &access.lane_addrs,
                        access.bytes,
                    )?;
                }
                if !access.is_store {
                    self.stats.shared_load_warps += 1;
                }
                let degree = bank_conflict_degree(&access.lane_addrs);
                self.stats.bank_conflict_cycles += u64::from(degree - 1);
                if let Some(d) = access.dst {
                    self.scoreboard.reserve(slot, d);
                }
                self.pending_ops[slot] += 1;
                self.ldst_queue.push_back(LdstEntry::Shared {
                    warp_slot: slot,
                    dst: access.dst,
                    cycles_left: degree,
                });
            }
            Space::Global | Space::Local | Space::Tex => {
                let mut blocks = mem::take(&mut self.block_buf);
                coalesce_into(
                    &access.lane_addrs,
                    access.bytes,
                    ctx.cfg.l1.line_bytes,
                    &mut blocks,
                );
                let n_requests = blocks.len() as u32;
                let is_store = access.is_store;
                let (class_tag, meta) = if is_store {
                    (ClassTag::Other, None)
                } else {
                    let class = ctx.decoded.class(pc);
                    self.stats.global_load_warps[match class {
                        LoadClass::Deterministic => 0,
                        LoadClass::NonDeterministic => 1,
                    }] += 1;
                    let active = access.lane_addrs.len() as u32;
                    let meta = self.loadtrack.begin(pc, class, n_requests, active, cycle);
                    for &b in &blocks {
                        ctx.blocktrack.record_at(b, linear_cta, pc as u64);
                    }
                    (Self::class_tag(class), Some(meta))
                };
                let dst = access.dst;
                if let Some(d) = dst {
                    self.scoreboard.reserve(slot, d);
                }
                self.pending_ops[slot] += 1;
                let mut pending = self.spare_pending.pop().unwrap_or_default();
                for &b in &blocks {
                    let id = (slot as u64) << 32 | u64::from(dst.map_or(0, |d| d.0));
                    let mut req = if is_store {
                        MemRequest::write(id, b, self.id, cycle)
                    } else {
                        MemRequest::read(id, b, self.id, class_tag, meta.unwrap_or(0), cycle)
                    };
                    req.class = class_tag;
                    if let Some(sr) = ctx.san.as_deref_mut() {
                        req.san = sr.ledger.create(
                            ReqInfo {
                                pc: Some(pc),
                                class: class_tag,
                                is_write: is_store,
                                block_addr: b,
                                sm: self.id,
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
                self.ldst_queue.push_back(LdstEntry::Global {
                    warp_slot: slot,
                    meta,
                    is_store,
                    pending,
                    split,
                    accepted_since_rotate: 0,
                });
            }
        }
        self.lane_buf = access.lane_addrs;
        Ok(())
    }

    fn release_barriers(&mut self, decoded: &DecodedKernel) {
        for idx in 0..self.cta_slots.len() {
            let Some(cta) = self.cta_slots[idx].take() else {
                continue;
            };
            // A barrier releases only when every live warp of the CTA waits
            // at the SAME named barrier. Warps parked on different ids never
            // release each other (the named-barrier deadlock the watchdog
            // reports as a hang).
            let mut barrier: Option<u32> = None;
            let mut releasable = true;
            let mut any_live = false;
            for &slot in &cta.warp_slots {
                if let Some(w) = &self.warps[slot] {
                    if !w.is_finished() {
                        any_live = true;
                        match (w.at_barrier, barrier) {
                            (None, _) => {
                                releasable = false;
                                break;
                            }
                            (Some(id), Some(prev)) if id != prev => {
                                releasable = false;
                                break;
                            }
                            (Some(id), _) => barrier = Some(id),
                        }
                    }
                }
            }
            if any_live && releasable {
                for &slot in &cta.warp_slots {
                    if let Some(w) = self.warps[slot].as_mut() {
                        w.at_barrier = None;
                    }
                    self.refresh_ready(slot, decoded);
                }
                // A barrier release opens a new race-detection epoch: accesses
                // before the barrier can no longer conflict with accesses after.
                if let Some(s) = &mut self.san {
                    s.barrier_release(idx, barrier.unwrap_or(0));
                }
            }
            self.cta_slots[idx] = Some(cta);
        }
    }

    /// Process the head of the LD/ST queue: shared/const countdowns and L1
    /// access attempts for global requests. Returns whether the unit moved
    /// (countdown advanced or a request was accepted by the L1).
    fn process_ldst(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        let cycle = ctx.cycle;
        let Some(head) = self.ldst_queue.front_mut() else {
            return Ok(false);
        };
        match head {
            LdstEntry::Const {
                warp_slot,
                dst,
                cycles_left,
            } => {
                *cycles_left -= 1;
                if *cycles_left == 0 {
                    let done = LocalDone {
                        at: cycle + Cycle::from(ctx.cfg.const_latency),
                        seq: self.next_seq,
                        meta: None,
                        req: None,
                        warp_slot: *warp_slot,
                        dst: *dst,
                    };
                    self.next_seq += 1;
                    self.local_done.push(Reverse(done));
                    self.ldst_queue.pop_front();
                }
                Ok(true)
            }
            LdstEntry::Shared {
                warp_slot,
                dst,
                cycles_left,
            } => {
                *cycles_left -= 1;
                if *cycles_left == 0 {
                    let done = LocalDone {
                        at: cycle + Cycle::from(ctx.cfg.shared_latency),
                        seq: self.next_seq,
                        meta: None,
                        req: None,
                        warp_slot: *warp_slot,
                        dst: *dst,
                    };
                    self.next_seq += 1;
                    self.local_done.push(Reverse(done));
                    self.ldst_queue.pop_front();
                }
                Ok(true)
            }
            LdstEntry::Global { .. } => self.process_global_head(ctx),
        }
    }

    fn process_global_head(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        let cycle = ctx.cycle;
        let hit_latency = Cycle::from(ctx.cfg.l1.hit_latency);
        let mut rotate = false;
        let mut finished = false;
        let mut accepted = false;
        {
            let Some(LdstEntry::Global {
                meta,
                is_store,
                pending,
                split,
                accepted_since_rotate,
                warp_slot,
                ..
            }) = self.ldst_queue.front_mut()
            else {
                unreachable!()
            };
            let warp_slot = *warp_slot;
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
                    let key = self.next_seq;
                    self.next_seq += 1;
                    self.local_reqs.insert(key, r);
                    self.local_done.push(Reverse(LocalDone {
                        at: cycle + hit_latency,
                        seq: key,
                        meta: Some(r.meta),
                        req: Some(MemRequestOrd(key)),
                        warp_slot: 0,
                        dst: None,
                    }));
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
                        self.id,
                        ClassTag::Other,
                        PREFETCH_META,
                        cycle,
                    );
                    pf.meta = PREFETCH_META;
                    if let Some(sr) = ctx.san.as_deref_mut() {
                        // Tag before the access: on MissIssued/HitReserved the
                        // MSHR stores a copy of `pf`, so the id must be set now.
                        pf.san = sr.ledger.create(
                            ReqInfo {
                                pc: None,
                                class: ClassTag::Other,
                                is_write: false,
                                block_addr: pf.block_addr,
                                sm: self.id,
                            },
                            cycle,
                        );
                    }
                    let pf_outcome = self.l1.access(pf, cycle);
                    if pf_outcome == AccessOutcome::MissIssued {
                        self.stats.prefetches_issued += 1;
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
                finished = true;
                if *is_store {
                    // All store requests handed to the memory system; the
                    // LD/ST slot is free.
                    self.pending_ops[warp_slot] -= 1;
                }
            }
        }
        if finished {
            if let Some(LdstEntry::Global { pending, .. }) = self.ldst_queue.pop_front() {
                self.spare_pending.push(pending);
            }
        } else if rotate {
            let entry = self.ldst_queue.pop_front().unwrap();
            self.ldst_queue.push_back(entry);
        }
        Ok(accepted)
    }

    /// Move L1 misses into the interconnect.
    fn drain_misses(&mut self, ctx: &mut TickCtx<'_>) -> Result<(), TickError> {
        let cycle = ctx.cycle;
        while self.l1.peek_miss().is_some() && ctx.icnt.can_inject_request(self.id.into()) {
            let mut req = self.l1.pop_miss().unwrap();
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
            let part = ctx.addrmap.partition_of(req.block_addr, self.id.into());
            let ok = ctx.icnt.inject_request(self.id.into(), part, req);
            debug_assert!(ok, "inject after can_inject check");
        }
        Ok(())
    }

    /// Retire CTAs whose warps have finished and drained. Returns whether
    /// any CTA retired.
    fn retire_ctas(&mut self) -> bool {
        let mut any = false;
        for cta_idx in 0..self.cta_slots.len() {
            let Some(cta) = &self.cta_slots[cta_idx] else {
                continue;
            };
            let done = cta.warp_slots.iter().all(|&slot| {
                self.warps[slot].as_ref().is_some_and(|w| w.is_finished())
                    && self.pending_ops[slot] == 0
            });
            if done {
                let cta = self.cta_slots[cta_idx].take().unwrap();
                for slot in cta.warp_slots {
                    self.warps[slot] = None;
                    self.scoreboard.clear(slot);
                }
                self.stats.ctas_retired += 1;
                self.live_ctas -= 1;
                any = true;
            }
        }
        any
    }

    /// Freeze this SM's scheduling-relevant state for a hang report: every
    /// resident warp's pc/barrier/in-flight status plus LD/ST queue and
    /// MSHR occupancy.
    pub fn snapshot(&self) -> SmSnapshot {
        let warps = self
            .warps
            .iter()
            .enumerate()
            .filter_map(|(slot, w)| {
                let w = w.as_ref()?;
                Some(WarpSnapshot {
                    slot,
                    cta: w.linear_cta,
                    pc: (!w.is_finished()).then(|| w.pc()),
                    at_barrier: w.at_barrier,
                    pending_ops: self.pending_ops[slot],
                    scoreboard_busy: self.scoreboard.busy(slot),
                })
            })
            .collect();
        SmSnapshot {
            id: self.id,
            ldst_queue: self.ldst_queue.len(),
            l1_inflight: self.l1.inflight(),
            warps,
        }
    }

    /// This SM's L1 cache (for statistics).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// This SM's execution statistics.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// This SM's load tracker.
    pub fn loadtrack(&self) -> &LoadTracker {
        &self.loadtrack
    }

    /// Consume the SM, returning (stats, the L1 cache, load tracker). The
    /// cache keeps its contents so it can stay warm across launches.
    pub fn into_parts(self) -> (SmStats, Cache, LoadTracker) {
        (self.stats, self.l1, self.loadtrack)
    }

    /// Checkpoint-encode the complete mid-launch state of this SM: warps,
    /// CTA slots, shared memory, scoreboard, schedulers, LD/ST queue, local
    /// completion heaps, writebacks, load tracker, statistics and (when
    /// sanitizing) the per-SM sanitizer state. Heaps are written as sorted
    /// vectors and hash maps in sorted key order so equal states produce
    /// identical bytes.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        e.u16(self.id);
        self.l1.ckpt_encode(e);
        e.seq(&self.warps, |e, w| e.opt(w, |e, w| w.ckpt_encode(e)));
        e.seq(&self.warp_age, |e, &a| e.u64(a));
        e.seq(&self.pending_ops, |e, &p| e.u32(p));
        e.u64(self.next_age);
        e.seq(&self.cta_slots, |e, slot| {
            e.opt(slot, |e, cta| {
                e.seq(&cta.warp_slots, |e, &s| e.usize(s));
            });
        });
        e.seq(&self.smem, |e, mem| e.bytes(mem));
        self.scoreboard.ckpt_encode(e);
        e.seq(&self.schedulers, |e, s| s.ckpt_encode(e));
        e.usize(self.ldst_queue.len());
        for entry in &self.ldst_queue {
            match entry {
                LdstEntry::Global {
                    warp_slot,
                    meta,
                    is_store,
                    pending,
                    split,
                    accepted_since_rotate,
                } => {
                    e.u8(0);
                    e.usize(*warp_slot);
                    e.opt(meta, |e, &m| e.u64(m));
                    e.bool(*is_store);
                    e.usize(pending.len());
                    for req in pending {
                        req.ckpt_encode(e);
                    }
                    e.opt(split, |e, &k| e.usize(k));
                    e.usize(*accepted_since_rotate);
                }
                LdstEntry::Shared {
                    warp_slot,
                    dst,
                    cycles_left,
                } => {
                    e.u8(1);
                    e.usize(*warp_slot);
                    e.opt(dst, |e, d| e.u32(d.0));
                    e.u32(*cycles_left);
                }
                LdstEntry::Const {
                    warp_slot,
                    dst,
                    cycles_left,
                } => {
                    e.u8(2);
                    e.usize(*warp_slot);
                    e.opt(dst, |e, d| e.u32(d.0));
                    e.u32(*cycles_left);
                }
            }
        }
        let mut done: Vec<&LocalDone> = self.local_done.iter().map(|r| &r.0).collect();
        done.sort_unstable_by_key(|d| (d.at, d.seq));
        e.usize(done.len());
        for ld in done {
            e.u64(ld.at);
            e.u64(ld.seq);
            e.opt(&ld.meta, |e, &m| e.u64(m));
            e.opt(&ld.req, |e, r| e.u64(r.0));
            e.usize(ld.warp_slot);
            e.opt(&ld.dst, |e, d| e.u32(d.0));
        }
        let mut keys: Vec<&u64> = self.local_reqs.keys().collect();
        keys.sort_unstable();
        e.usize(keys.len());
        for k in keys {
            e.u64(*k);
            self.local_reqs[k].ckpt_encode(e);
        }
        let mut wbs: Vec<(Cycle, usize, Reg)> = self.writebacks.iter().map(|r| r.0).collect();
        wbs.sort_unstable();
        e.usize(wbs.len());
        for (at, slot, reg) in wbs {
            e.u64(at);
            e.usize(slot);
            e.u32(reg.0);
        }
        self.loadtrack.ckpt_encode(e);
        e.u64(self.stats.warp_insts);
        e.u64(self.stats.thread_insts);
        e.u64(self.stats.global_load_warps[0]);
        e.u64(self.stats.global_load_warps[1]);
        e.u64(self.stats.shared_load_warps);
        for u in self.stats.unit_busy {
            e.u64(u);
        }
        e.u64(self.stats.cycles);
        e.u64(self.stats.bank_conflict_cycles);
        e.u64(self.stats.ctas_retired);
        e.u64(self.stats.prefetches_issued);
        e.u64(self.stats.branches);
        e.u64(self.stats.divergent_branches);
        e.u64(self.next_seq);
        e.bool(self.issued_mem_this_cycle);
        e.opt(&self.san, |e, s| s.ckpt_encode(e));
    }

    /// Checkpoint-decode an SM written by
    /// [`ckpt_encode`](Self::ckpt_encode), validating the state against the
    /// configuration and the kernel's shared-memory footprint (recorded in
    /// the snapshot, since the kernel itself is re-supplied only at resume).
    pub fn ckpt_decode(
        d: &mut Dec<'_>,
        cfg: &GpuConfig,
        shared_bytes: usize,
    ) -> Result<Sm, WireError> {
        let max_warps = (cfg.max_threads_per_sm / cfg.warp_size) as usize;
        let id = d.u16()?;
        let l1 = Cache::ckpt_decode(d, cfg.l1)?;
        let warps = d.seq(|d| d.opt(Warp::ckpt_decode))?;
        if warps.len() != max_warps {
            return Err(WireError::Malformed("warp slot count mismatch"));
        }
        let warp_age = d.seq(|d| d.u64())?;
        let pending_ops = d.seq(|d| d.u32())?;
        if warp_age.len() != max_warps || pending_ops.len() != max_warps {
            return Err(WireError::Malformed("warp side-table size mismatch"));
        }
        let next_age = d.u64()?;
        let cta_slots = d.seq(|d| {
            d.opt(|d| {
                let warp_slots = d.seq(|d| d.usize())?;
                if warp_slots.iter().any(|&s| s >= max_warps) {
                    return Err(WireError::Malformed("CTA warp slot out of range"));
                }
                Ok(CtaState { warp_slots })
            })
        })?;
        let smem = d.seq(|d| Ok(d.bytes()?.to_vec()))?;
        if smem.len() != cta_slots.len() {
            return Err(WireError::Malformed("shared-memory slot count mismatch"));
        }
        if smem.iter().any(|m| m.len() != shared_bytes) {
            return Err(WireError::Malformed("shared-memory size mismatch"));
        }
        let scoreboard = Scoreboard::ckpt_decode(d)?;
        let schedulers = d.seq(|d| WarpScheduler::ckpt_decode(d, cfg.warp_sched, max_warps))?;
        if schedulers.len() != cfg.n_schedulers {
            return Err(WireError::Malformed("scheduler count mismatch"));
        }
        let n_ldst = d.seq_len()?;
        let mut ldst_queue = VecDeque::with_capacity(n_ldst);
        for _ in 0..n_ldst {
            let entry = match d.u8()? {
                0 => {
                    let warp_slot = d.usize()?;
                    let meta = d.opt(|d| d.u64())?;
                    let is_store = d.bool()?;
                    let n = d.seq_len()?;
                    let mut pending = VecDeque::with_capacity(n);
                    for _ in 0..n {
                        pending.push_back(MemRequest::ckpt_decode(d)?);
                    }
                    let split = d.opt(|d| d.usize())?;
                    let accepted_since_rotate = d.usize()?;
                    LdstEntry::Global {
                        warp_slot,
                        meta,
                        is_store,
                        pending,
                        split,
                        accepted_since_rotate,
                    }
                }
                1 => LdstEntry::Shared {
                    warp_slot: d.usize()?,
                    dst: d.opt(|d| Ok(Reg(d.u32()?)))?,
                    cycles_left: d.u32()?,
                },
                2 => LdstEntry::Const {
                    warp_slot: d.usize()?,
                    dst: d.opt(|d| Ok(Reg(d.u32()?)))?,
                    cycles_left: d.u32()?,
                },
                _ => return Err(WireError::Malformed("bad LD/ST entry tag")),
            };
            let slot = match &entry {
                LdstEntry::Global { warp_slot, .. }
                | LdstEntry::Shared { warp_slot, .. }
                | LdstEntry::Const { warp_slot, .. } => *warp_slot,
            };
            if slot >= max_warps {
                return Err(WireError::Malformed("LD/ST warp slot out of range"));
            }
            ldst_queue.push_back(entry);
        }
        let n_done = d.seq_len()?;
        let mut local_done = BinaryHeap::with_capacity(n_done);
        let mut done_keys = Vec::new();
        for _ in 0..n_done {
            let at = d.u64()?;
            let seq = d.u64()?;
            let meta = d.opt(|d| d.u64())?;
            let req = d.opt(|d| Ok(MemRequestOrd(d.u64()?)))?;
            let warp_slot = d.usize()?;
            let dst = d.opt(|d| Ok(Reg(d.u32()?)))?;
            if warp_slot >= max_warps {
                return Err(WireError::Malformed("local-done warp slot out of range"));
            }
            if let Some(MemRequestOrd(k)) = req {
                done_keys.push(k);
            }
            local_done.push(Reverse(LocalDone {
                at,
                seq,
                meta,
                req,
                warp_slot,
                dst,
            }));
        }
        let n_reqs = d.seq_len()?;
        let mut local_reqs = HashMap::with_capacity(n_reqs);
        for _ in 0..n_reqs {
            let k = d.u64()?;
            let req = MemRequest::ckpt_decode(d)?;
            if local_reqs.insert(k, req).is_some() {
                return Err(WireError::Malformed("duplicate local request key"));
            }
        }
        if done_keys.iter().any(|k| !local_reqs.contains_key(k)) {
            return Err(WireError::Malformed("dangling local request key"));
        }
        let n_wb = d.seq_len()?;
        let mut writebacks = BinaryHeap::with_capacity(n_wb);
        for _ in 0..n_wb {
            let at = d.u64()?;
            let slot = d.usize()?;
            let reg = Reg(d.u32()?);
            if slot >= max_warps {
                return Err(WireError::Malformed("writeback warp slot out of range"));
            }
            writebacks.push(Reverse((at, slot, reg)));
        }
        let loadtrack = LoadTracker::ckpt_decode(d)?;
        let stats = SmStats {
            warp_insts: d.u64()?,
            thread_insts: d.u64()?,
            global_load_warps: [d.u64()?, d.u64()?],
            shared_load_warps: d.u64()?,
            unit_busy: [d.u64()?, d.u64()?, d.u64()?],
            cycles: d.u64()?,
            bank_conflict_cycles: d.u64()?,
            ctas_retired: d.u64()?,
            prefetches_issued: d.u64()?,
            branches: d.u64()?,
            divergent_branches: d.u64()?,
        };
        let next_seq = d.u64()?;
        let issued_mem_this_cycle = d.bool()?;
        let n_cta_slots = cta_slots.len();
        let live_ctas = cta_slots.iter().flatten().count();
        let san = d.opt(|d| SmSan::ckpt_decode(d, n_cta_slots, shared_bytes))?;
        if san.is_some() != cfg.sanitize {
            return Err(WireError::Malformed("sanitizer state presence mismatch"));
        }
        Ok(Sm {
            id,
            l1,
            warps,
            warp_age,
            pending_ops,
            next_age,
            cta_slots,
            smem,
            scoreboard,
            schedulers,
            ldst_queue,
            local_done,
            local_reqs,
            writebacks,
            loadtrack,
            stats,
            next_seq,
            issued_mem_this_cycle,
            san,
            live_ctas,
            lane_buf: Vec::new(),
            block_buf: Vec::new(),
            spare_pending: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
