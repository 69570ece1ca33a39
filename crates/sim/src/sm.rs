//! The streaming multiprocessor: warp scheduling, issue, writeback,
//! barriers and CTA retirement. Memory instructions go to the SM's LD/ST
//! unit ([`crate::ldst`]).

use crate::decode::DecodedKernel;
use crate::fault::{MemFaultReport, SmSnapshot, WarpSnapshot};
use crate::ldst::{Bounds, Completion, LdstUnit};
use crate::loadtrack::LoadTracker;
use crate::memsys::MemSys;
use crate::replay::{
    warps_per_cta, LaunchReplay, ReplayKind, ReplayStream, StreamReader, TraceSink,
};
use crate::san::{SanRun, SmSan, TickError};
use crate::scoreboard::Scoreboard;
use crate::warp::{ExecCtx, ReplayCursor, Warp};
use crate::warp_sched::WarpScheduler;
use crate::{BlockTracker, Dim3, GlobalMem, GpuConfig, SmStats, TraceEvent};
use gcl_mem::{Cache, CacheStats, Cycle, Dec, Enc, Wire, WireError};
use gcl_ptx::{Kernel, Reg, Space, Unit};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Pending ALU writebacks: `(due cycle, warp slot, register)`.
pub(crate) type Writebacks = BinaryHeap<Reverse<(Cycle, usize, Reg)>>;

#[derive(Debug)]
struct CtaState {
    warp_slots: Vec<usize>,
}

gcl_mem::declare_wire! { CtaState { warp_slots } }

/// Everything an SM needs from the GPU for one cycle.
pub(crate) struct TickCtx<'a> {
    /// Current cycle.
    pub cycle: Cycle,
    /// The running kernel decoded for this launch: hazard masks, units, load
    /// classes and the micro-ops warps execute.
    pub decoded: &'a DecodedKernel,
    /// Kernel parameter block.
    pub params: &'a [u8],
    /// Device memory.
    pub gmem: &'a mut GlobalMem,
    /// The memory side: crossbar, partitions and address map.
    pub mem: &'a mut MemSys,
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
pub(crate) struct Sm {
    id: u16,
    ldst: LdstUnit,
    warps: Vec<Option<Warp>>,
    warp_age: Vec<u64>,
    pending_ops: Vec<u32>,
    next_age: u64,
    cta_slots: Vec<Option<CtaState>>,
    smem: Vec<Vec<u8>>,
    scoreboard: Scoreboard,
    schedulers: Vec<WarpScheduler>,
    writebacks: Writebacks,
    stats: SmStats,
    /// Per-SM sanitizer state (digest + shared-memory shadow), present when
    /// [`GpuConfig::sanitize`] is on.
    san: Option<SmSan>,
    /// Occupied CTA slots (derived from `cta_slots`).
    live_ctas: usize,
    /// Buffers recycled from one cycle to the next: per-lane addresses of
    /// a memory instruction, and the completions the LD/ST unit hands back.
    lane_buf: Vec<(u32, u64)>,
    done: Vec<Completion>,
    /// The first cycle whose tick can do more than count itself, unless a
    /// crossbar response arrives first (see [`tick`](Self::tick)). Derived,
    /// never serialised: 0, so the next tick runs, after a CTA dispatch or
    /// a restore.
    wake: Cycle,
}

impl Sm {
    /// Create an SM for one kernel launch, attaching a (possibly warm) L1.
    pub fn new(id: u16, cfg: &GpuConfig, kernel: &Kernel, n_cta_slots: usize, l1: Cache) -> Sm {
        let max_warps = (cfg.max_threads_per_sm / cfg.warp_size) as usize;
        Sm {
            id,
            ldst: LdstUnit::new(id, l1),
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
            writebacks: BinaryHeap::new(),
            stats: SmStats::default(),
            san: cfg
                .sanitize
                .then(|| SmSan::new(n_cta_slots, kernel.shared_bytes() as usize)),
            live_ctas: 0,
            lane_buf: Vec::new(),
            done: Vec::new(),
            wake: 0,
        }
    }

    /// Whether a CTA slot is free.
    pub fn has_free_cta_slot(&self) -> bool {
        self.live_ctas < self.cta_slots.len()
    }

    /// Whether this SM has any resident work.
    pub fn is_idle(&self) -> bool {
        self.live_ctas == 0 && self.writebacks.is_empty() && self.ldst.is_idle()
    }

    /// Assert that every per-launch structure has fully drained. Called on
    /// the success path of a launch (debug builds): a completed launch with
    /// residue here means a request or op-count leaked.
    pub(crate) fn assert_drained(&self) {
        self.ldst.assert_drained();
        assert!(
            self.writebacks.is_empty(),
            "SM{}: writeback heap not drained",
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
    /// (only the cursor position is serialized), reading each stream up to
    /// its cursor. Validates each cursor against the supplied trace.
    pub(crate) fn relink_replay(
        &mut self,
        rep: &LaunchReplay,
    ) -> Result<(), crate::ckpt::CheckpointError> {
        use crate::ckpt::CheckpointError;
        for warp in self.warps.iter_mut().flatten() {
            let Some(c) = &mut warp.replay else { continue };
            let stream = rep
                .streams
                .get(c.stream as usize)
                .ok_or(CheckpointError::Malformed("replay stream out of range"))?;
            if c.pos > stream.len() {
                return Err(CheckpointError::Malformed(
                    "replay cursor past end of stream",
                ));
            }
            c.reader = Some(StreamReader::seek(stream.clone(), c.pos));
        }
        Ok(())
    }

    /// Place one CTA onto this SM. `streams` is a replay launch's table of
    /// per-warp recorded streams (empty when executing).
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
        streams: &[ReplayStream],
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
            let stream = linear_cta * n_warps as u64 + w as u64;
            if let Some(s) = streams.get(stream as usize) {
                warp.replay = Some(ReplayCursor {
                    stream,
                    pos: 0,
                    reader: Some(StreamReader::seek(s.clone(), 0)),
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
        self.wake = 0;
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

    /// Apply the completions the LD/ST unit handed back; returns whether
    /// there were any.
    fn apply_done(&mut self, decoded: &DecodedKernel) -> bool {
        let mut done = std::mem::take(&mut self.done);
        let any = !done.is_empty();
        for (slot, dst) in done.drain(..) {
            self.complete_op(slot, dst, decoded);
        }
        self.done = done;
        any
    }

    /// Advance this SM one cycle.
    ///
    /// Returns whether the SM made forward progress this cycle (issued an
    /// instruction, completed a writeback or memory response, accepted a
    /// request into the L1, or retired a CTA) — the signal the launch's hang
    /// watchdog integrates.
    ///
    /// A quiescent SM sleeps: until its wake cycle, and while no crossbar
    /// response for it is due, a tick only counts the cycle. Debug builds
    /// run the full tick anyway and assert that it made no progress and
    /// changed nothing but the cycle count, so every simulation checks the
    /// wake predicate.
    ///
    /// # Errors
    ///
    /// Under [`GpuConfig::memcheck`], returns [`TickError::Mem`] with a
    /// partially attributed [`MemFaultReport`] (placement filled in; the
    /// launch adds the kernel's name and classification) on the first
    /// out-of-bounds device access. Under [`GpuConfig::sanitize`], returns
    /// [`TickError::San`] when a sanitizer checker fires.
    pub fn tick(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        let cycle = ctx.cycle;
        if self.wake <= cycle || ctx.mem.response_due(self.id.into(), cycle) {
            let progress = self.tick_awake(ctx)?;
            self.wake = self.next_wake(cycle);
            return Ok(progress);
        }
        if !cfg!(debug_assertions) {
            self.stats.cycles += 1;
            return Ok(false);
        }
        let mut expected = self.sleep_probe();
        expected.0.cycles += 1;
        let moved = self.tick_awake(ctx)?;
        assert!(
            !moved && self.sleep_probe() == expected,
            "SM{}: a tick at cycle {cycle} did work although the SM sleeps until {}",
            self.id,
            self.wake
        );
        Ok(false)
    }

    /// The wake cycle after a tick at `cycle`: the next cycle while a warp
    /// is ready or the LD/ST unit has work that does not wait on time,
    /// otherwise the earliest pending writeback or local completion.
    fn next_wake(&self, cycle: Cycle) -> Cycle {
        if self.ldst.busy() || self.schedulers.iter().any(WarpScheduler::any_ready) {
            return cycle + 1;
        }
        let writeback = self.writebacks.peek().map(|r| r.0 .0);
        writeback
            .into_iter()
            .chain(self.ldst.next_done())
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// What a tick that finds nothing to do must leave unchanged (debug
    /// builds' check of a sleeping SM's tick).
    fn sleep_probe(&self) -> (SmStats, [usize; 3], (CacheStats, [u64; 6])) {
        let sizes = [self.writebacks.len(), self.live_ctas, self.done.len()];
        (self.stats, sizes, self.ldst.sleep_probe())
    }

    /// The full cycle [`tick`](Self::tick) runs unless the SM sleeps.
    fn tick_awake(&mut self, ctx: &mut TickCtx<'_>) -> Result<bool, TickError> {
        self.stats.cycles += 1;
        if self.live_ctas == 0 {
            // No resident CTA, so no warp, pending op, writeback or LD/ST
            // entry. Stores are fire-and-forget though: their acks (and
            // prefetch fills) still arrive and their misses may still sit
            // in the L1's queue.
            let progress = self.ldst.complete(ctx, &mut self.san, &mut self.done)?;
            self.ldst.tick(ctx, &mut self.stats, &mut self.done)?;
            debug_assert!(self.done.is_empty() && self.writebacks.is_empty());
            return Ok(progress);
        }
        // Every stage below costs O(1) when it has nothing to do (a heap or
        // queue head not yet due, empty ready sets).
        let mut progress = self.process_writebacks(ctx);
        progress |= self.ldst.complete(ctx, &mut self.san, &mut self.done)?;
        self.apply_done(ctx.decoded);
        let (sp_issued, sfu_issued, any_issued) = self.issue(ctx)?;
        progress |= any_issued;
        if any_issued {
            // Only an issue (a warp parking or exiting) can complete a barrier.
            self.release_barriers(ctx.decoded);
        }
        progress |= self.ldst.tick(ctx, &mut self.stats, &mut self.done)?;
        let handed_off = self.apply_done(ctx.decoded);
        self.stats.unit_busy[0] += u64::from(sp_issued);
        self.stats.unit_busy[1] += u64::from(sfu_issued);

        // A CTA retires when its last warp exits or its last pending op
        // completes; every such event is an issue, a completion, or the
        // LD/ST unit handing off a store.
        if progress || handed_off {
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
            let ldst_full = self.ldst.is_full(ctx.cfg);
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
        // The warp steps where it sits; everything else it touches is a
        // different field of the SM.
        let warp = self.warps[slot].as_mut().expect("issuing empty warp slot");
        let active_mask = warp.active_mask();
        let active = active_mask.count_ones();
        let (cta_slot, linear_cta, warp_in_cta) =
            (warp.cta_slot, warp.linear_cta, warp.warp_in_cta);
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
                // The warp stays as it is (pc still at the faulting
                // instruction) so the state is inspectable; hand the
                // placement-attributed report up, and the launch attaches
                // the kernel's name and classification.
                return Err(TickError::Mem(Box::new(MemFaultReport {
                    kernel: String::new(),
                    sm: self.id,
                    warp_slot: slot,
                    cta: linear_cta,
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
        if let Some(sink) = ctx.sink.as_deref_mut() {
            let ev = TraceEvent {
                cycle,
                sm: self.id,
                warp_slot: slot as u16,
                cta: linear_cta,
                pc: pc as u32,
                active: active_mask,
            };
            let stream =
                linear_cta * warps_per_cta(ctx.ntid, ctx.cfg.warp_size) + u64::from(warp_in_cta);
            sink.issue(stream, &ev, &result);
        }

        // Each arm counts its pending operation; the destination it names
        // is reserved below, and `complete_op` undoes both.
        let dst = match result {
            ReplayKind::Alu { dst } => {
                if let Some(d) = dst {
                    let latency = match inst_unit {
                        Unit::Sfu => ctx.cfg.sfu_latency,
                        _ => ctx.cfg.sp_latency,
                    };
                    self.writebacks
                        .push(Reverse((cycle + Cycle::from(latency), slot, d)));
                    self.pending_ops[slot] += 1;
                }
                dst
            }
            ReplayKind::Mem(access) => {
                if access.space == Space::Shared {
                    if let Some(s) = &mut self.san {
                        s.check_shared(
                            cta_slot,
                            self.id,
                            linear_cta,
                            warp_in_cta,
                            pc,
                            access.is_store,
                            &access.lane_addrs,
                            access.bytes,
                        )?;
                    }
                }
                self.ldst
                    .dispatch(slot, linear_cta, pc, &access, ctx, &mut self.stats);
                self.pending_ops[slot] += 1;
                let dst = access.dst;
                self.lane_buf = access.lane_addrs;
                dst
            }
            ReplayKind::Branch { diverged } => {
                self.stats.branches += 1;
                self.stats.divergent_branches += u64::from(diverged);
                None
            }
            ReplayKind::Predicated | ReplayKind::Exit | ReplayKind::Barrier { .. } => None,
        };
        if let Some(d) = dst {
            self.scoreboard.reserve(slot, d);
        }
        self.refresh_ready(slot, ctx.decoded);
        Ok(inst_unit)
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
        let (ldst_queue, l1_inflight) = self.ldst.occupancy();
        SmSnapshot {
            id: self.id,
            ldst_queue,
            l1_inflight,
            warps,
        }
    }

    /// Consume the SM, returning (stats, the L1 cache, load tracker). The
    /// cache keeps its contents so it can stay warm across launches.
    pub fn into_parts(self) -> (SmStats, Cache, LoadTracker) {
        let (l1, loadtrack) = self.ldst.into_parts();
        (self.stats, l1, loadtrack)
    }

    /// Checkpoint-encode the complete mid-launch state of this SM: warps,
    /// CTA slots, shared memory, scoreboard, schedulers, the LD/ST unit,
    /// writebacks, statistics and (when sanitizing) the per-SM sanitizer
    /// state. Heaps are written as sorted vectors so equal states produce
    /// identical bytes.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.id.put(e);
        self.ldst.ckpt_encode_l1(e);
        self.warps.put(e);
        self.warp_age.put(e);
        self.pending_ops.put(e);
        self.next_age.put(e);
        self.cta_slots.put(e);
        e.seq(&self.smem, |e, mem| e.bytes(mem));
        self.scoreboard.ckpt_encode(e);
        e.seq(&self.schedulers, |e, s| s.ckpt_encode(e));
        self.ldst.ckpt_encode_queues(e);
        let mut wbs: Vec<(Cycle, usize, u32)> = self
            .writebacks
            .iter()
            .map(|&Reverse((at, slot, reg))| (at, slot, reg.0))
            .collect();
        wbs.sort_unstable();
        wbs.put(e);
        self.ldst.ckpt_encode_tail(e, &self.stats);
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
        let id = u16::get(d)?;
        let mut ldst = LdstUnit::ckpt_decode_l1(d, id, cfg)?;
        let warps: Vec<Option<Warp>> = Wire::get(d)?;
        if warps.len() != max_warps {
            return Err(WireError::Malformed("warp slot count mismatch"));
        }
        let (warp_age, pending_ops, next_age): (Vec<u64>, Vec<u32>, u64) = Wire::get(d)?;
        if warp_age.len() != max_warps || pending_ops.len() != max_warps {
            return Err(WireError::Malformed("warp side-table size mismatch"));
        }
        let cta_slots: Vec<Option<CtaState>> = Wire::get(d)?;
        if cta_slots
            .iter()
            .flatten()
            .flat_map(|c| &c.warp_slots)
            .any(|&s| s >= max_warps)
        {
            return Err(WireError::Malformed("CTA warp slot out of range"));
        }
        let smem = d.seq(|d| Ok(d.bytes()?.to_vec()))?;
        if smem.len() != cta_slots.len() {
            return Err(WireError::Malformed("shared-memory slot count mismatch"));
        }
        if smem.iter().any(|m| m.len() != shared_bytes) {
            return Err(WireError::Malformed("shared-memory size mismatch"));
        }
        let scoreboard = Scoreboard::ckpt_decode(d, max_warps)?;
        let schedulers = d.seq(|d| WarpScheduler::ckpt_decode(d, cfg.warp_sched, max_warps))?;
        if schedulers.len() != cfg.n_schedulers {
            return Err(WireError::Malformed("scheduler count mismatch"));
        }
        let bounds = Bounds {
            warps: max_warps,
            regs: scoreboard.regs(),
        };
        ldst.ckpt_decode_queues(d, bounds)?;
        let wbs: Vec<(Cycle, usize, u32)> = Wire::get(d)?;
        if wbs.iter().any(|&(_, slot, _)| slot >= max_warps) {
            return Err(WireError::Malformed("writeback warp slot out of range"));
        }
        if wbs.iter().any(|&(_, _, reg)| reg as usize >= bounds.regs) {
            return Err(WireError::Malformed("writeback register out of range"));
        }
        let writebacks = wbs
            .into_iter()
            .map(|(at, slot, reg)| Reverse((at, slot, Reg(reg))))
            .collect();
        let stats = ldst.ckpt_decode_tail(d)?;
        let n_cta_slots = cta_slots.len();
        let live_ctas = cta_slots.iter().flatten().count();
        let san = d.opt(|d| SmSan::ckpt_decode(d, n_cta_slots, shared_bytes))?;
        if san.is_some() != cfg.sanitize {
            return Err(WireError::Malformed("sanitizer state presence mismatch"));
        }
        Ok(Sm {
            id,
            ldst,
            warps,
            warp_age,
            pending_ops,
            next_age,
            cta_slots,
            smem,
            scoreboard,
            schedulers,
            writebacks,
            stats,
            san,
            live_ctas,
            lane_buf: Vec::new(),
            done: Vec::new(),
            wake: 0,
        })
    }
}

#[cfg(test)]
impl Sm {
    /// The LD/ST unit and the writeback heap, for tests that plant state.
    pub(crate) fn planted(&mut self) -> (&mut LdstUnit, &mut Writebacks) {
        self.wake = 0;
        (&mut self.ldst, &mut self.writebacks)
    }
}
