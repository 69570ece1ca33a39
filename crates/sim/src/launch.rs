//! One in-flight launch: its SMs, CTA queues, cycle counter, watchdog and
//! sanitizer run, plus the trace a replay launch feeds its warps from. One
//! driver, [`Launch::step`], runs execution and replay alike: a replaying
//! warp differs only in where its step outcomes come from.

use crate::ckpt::{kernel_fingerprint, CheckpointError};
use crate::decode::DecodedKernel;
use crate::fault::HangReport;
use crate::memsys::MemSys;
use crate::replay::{warps_per_cta, LaunchInfo, LaunchReplay, ReplayError, TraceSink};
use crate::san::{SanRun, SanitizerReport, TickError};
use crate::sm::{Sm, TickCtx};
use crate::{
    BlockTracker, CtaSchedPolicy, Dim3, GlobalMem, GpuConfig, LaunchStats, PcKey, SimError,
};
use gcl_core::{classify, Classification, LoadClass};
use gcl_mem::{Cache, ConservationReport, Dec, Enc, Wire};
use gcl_ptx::Kernel;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

/// Everything belonging to one in-flight launch. Serialized wholesale into
/// mid-launch snapshots, except `derived` and `replay`.
#[derive(Debug)]
pub(crate) struct Launch {
    kernel_name: String,
    kernel_fp: u64,
    grid: Dim3,
    block: Dim3,
    params: Vec<u8>,
    /// The kernel's shared-memory footprint, recorded so SMs can be decoded
    /// before the kernel is re-supplied at resume.
    shared_bytes: u32,
    san_run: Option<SanRun>,
    sms: Vec<Sm>,
    global_queue: VecDeque<u64>,
    per_sm_queue: Vec<VecDeque<u64>>,
    start_cycle: u64,
    cycle: u64,
    last_progress: u64,
    /// Built by [`prepare`](Self::prepare) on the first step.
    derived: Option<Derived>,
    /// Whether this launch is a trace-driven replay.
    replaying: bool,
    /// A replay launch's trace fingerprint: the snapshot's value for a
    /// restored launch, otherwise folded from the held trace the first time
    /// a snapshot or [`attach_replay`](Self::attach_replay) asks for it.
    replay_fp: OnceLock<u64>,
    /// The trace itself: a restored replay launch has none until
    /// [`attach_replay`](Self::attach_replay).
    replay: Option<LaunchReplay>,
}

/// What a launch derives from its kernel and geometry. The first launch of
/// a kernel on a [`Gpu`](crate::Gpu) builds it; later launches share it,
/// re-decoding only the geometry-reading rows when their shape differs.
#[derive(Debug, Clone)]
pub(crate) struct Derived {
    classification: Arc<Classification>,
    decoded: Arc<DecodedKernel>,
}

/// Each kernel's [`Derived`] state, keyed by its fingerprint.
pub(crate) type KernelCache = HashMap<u64, Derived>;

/// Resident CTAs per SM for this kernel and block.
fn occupancy(cfg: &GpuConfig, kernel: &Kernel, block: Dim3) -> Result<usize, SimError> {
    let threads = block.count();
    let reason = if threads > u64::from(cfg.max_threads_per_sm) {
        "thread limit"
    } else if kernel.shared_bytes() > cfg.shared_mem_per_sm {
        "shared memory"
    } else {
        let by_threads = u64::from(cfg.max_threads_per_sm) / threads;
        // No shared memory: no shared-memory limit.
        let by_shared = cfg.shared_mem_per_sm.checked_div(kernel.shared_bytes());
        let by_shared = by_shared.unwrap_or(u32::MAX).min(cfg.max_ctas_per_sm);
        return Ok(by_threads.min(u64::from(by_shared)).max(1) as usize);
    };
    Err(SimError::CtaTooLarge { threads, reason })
}

fn conservation(report: ConservationReport) -> SimError {
    SimError::Sanitizer(Box::new(SanitizerReport::Conservation(report)))
}

impl Launch {
    /// Set up a launch: check the block, the parameter block (unless the
    /// launch replays, which never reads it) and a `replay` trace against
    /// the kernel, check that a CTA fits, build the SMs around the L1s taken
    /// out of `l1s`, and queue every CTA per the dispatch policy.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cfg: &GpuConfig,
        kernel: &Kernel,
        grid: Dim3,
        block: Dim3,
        params: &[u8],
        replay: Option<&LaunchReplay>,
        l1s: &mut [Option<Cache>],
        now: u64,
    ) -> Result<Launch, SimError> {
        if [block.x, block.y, block.z].contains(&0) {
            let (x, y, z) = (block.x, block.y, block.z);
            let why = format!("block {x}x{y}x{z} has a zero dimension");
            return Err(SimError::InvalidLaunch(why));
        }
        let needed = kernel.param_bytes() as usize;
        if replay.is_none() && params.len() < needed {
            let why = format!(
                "parameter block of {} bytes is shorter than the {needed} kernel `{}` declares",
                params.len(),
                kernel.name()
            );
            return Err(SimError::InvalidLaunch(why));
        }
        let kernel_fp = kernel_fingerprint(kernel);
        if let Some(rep) = replay {
            let (found, expected) = (rep.kernel_fp, kernel_fp);
            if found != expected {
                return Err(ReplayError::KernelMismatch { found, expected }.into());
            }
            let expected = grid.count() * warps_per_cta(block, cfg.warp_size);
            let found = rep.streams.len() as u64;
            if found != expected {
                return Err(ReplayError::StreamCount { found, expected }.into());
            }
        }
        let ctas_per_sm = occupancy(cfg, kernel, block)?;
        let mut sms = Vec::with_capacity(cfg.n_sms);
        for (i, slot) in l1s.iter_mut().enumerate() {
            let l1 = slot.take().expect("L1 not returned by previous launch");
            sms.push(Sm::new(i as u16, cfg, kernel, ctas_per_sm, l1));
        }
        let n_ctas = grid.count();
        let mut global_queue = VecDeque::new();
        let mut per_sm_queue = vec![VecDeque::new(); cfg.n_sms];
        match cfg.cta_sched {
            CtaSchedPolicy::RoundRobin => global_queue.extend(0..n_ctas),
            CtaSchedPolicy::Clustered { group } => {
                for cta in 0..n_ctas {
                    let sm = ((cta / u64::from(group.max(1))) % cfg.n_sms as u64) as usize;
                    per_sm_queue[sm].push_back(cta);
                }
            }
        }
        Ok(Launch {
            kernel_name: kernel.name().to_string(),
            kernel_fp,
            grid,
            block,
            params: params.to_vec(),
            shared_bytes: kernel.shared_bytes(),
            // One sanitizer run per launch: the conservation ledger and the
            // fault-injection counters both describe a single launch.
            san_run: cfg.sanitize.then(|| SanRun::new(cfg.san_inject)),
            sms,
            global_queue,
            per_sm_queue,
            start_cycle: now,
            cycle: now,
            last_progress: now,
            derived: None,
            replaying: replay.is_some(),
            replay_fp: OnceLock::new(),
            replay: replay.cloned(),
        })
    }

    /// The launch as a trace sink sees it.
    pub(crate) fn info(&self, warp_size: u32) -> LaunchInfo {
        LaunchInfo {
            kernel_fp: self.kernel_fp,
            kernel_name: self.kernel_name.clone(),
            grid: self.grid,
            block: self.block,
            n_streams: self.grid.count() * warps_per_cta(self.block, warp_size),
        }
    }

    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    pub(crate) fn relative_cycle(&self) -> u64 {
        self.cycle - self.start_cycle
    }

    pub(crate) fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    pub(crate) fn replay(&self) -> Option<&LaunchReplay> {
        self.replay.as_ref()
    }

    /// The trace fingerprint of a replay launch.
    fn replay_fingerprint(&self) -> Option<u64> {
        self.replaying.then(|| {
            *self.replay_fp.get_or_init(|| {
                let held = self.replay.as_ref();
                held.expect("a launch not restored holds its trace")
                    .fingerprint()
            })
        })
    }

    /// Give a replay launch its trace back after a restore (a snapshot
    /// keeps only the fingerprint), or check the one it holds. Fails with
    /// `NotReplayLaunch` or `TraceMismatch`, leaving the launch as it was.
    pub(crate) fn attach_replay(&mut self, rep: &LaunchReplay) -> Result<(), SimError> {
        let Some(expected) = self.replay_fingerprint() else {
            return Err(ReplayError::NotReplayLaunch.into());
        };
        let found = rep.fingerprint();
        if found != expected {
            return Err(ReplayError::TraceMismatch { found, expected }.into());
        }
        if self.replay.is_none() {
            for sm in &mut self.sms {
                sm.relink_replay(rep)?;
            }
            self.replay = Some(rep.clone());
        }
        Ok(())
    }

    /// On the first step since the begin or a restore, check the caller's
    /// kernel against the launch's (and the parameter block against the
    /// kernel) and take the derived state from `kernels`, building it on
    /// the kernel's first launch.
    pub(crate) fn prepare(
        &mut self,
        kernel: &Kernel,
        kernels: &mut KernelCache,
    ) -> Result<(), SimError> {
        if self.derived.is_some() {
            return Ok(());
        }
        if self.replaying && self.replay.is_none() {
            return Err(ReplayError::MissingReplay.into());
        }
        let (found, expected) = (self.kernel_fp, kernel_fingerprint(kernel));
        if found != expected {
            return Err(CheckpointError::KernelMismatch { found, expected }.into());
        }
        // Checked at begin for a fresh launch; a restored one carries the
        // snapshot's bytes.
        if !self.replaying && self.params.len() < kernel.param_bytes() as usize {
            let why = "parameter block shorter than the kernel's parameters";
            return Err(CheckpointError::Malformed(why).into());
        }
        let (ntid, nctaid) = (self.block, self.grid);
        let first = kernels.entry(self.kernel_fp).or_insert_with(|| {
            let classification = classify(kernel);
            let decoded = DecodedKernel::new(kernel, &classification, ntid, nctaid);
            Derived {
                classification: Arc::new(classification),
                decoded: Arc::new(decoded),
            }
        });
        let mut derived = first.clone();
        if !derived.decoded.fits(ntid, nctaid) {
            derived.decoded = Arc::new(derived.decoded.at_geometry(kernel, ntid, nctaid));
        }
        // The schedulers' ready sets are derived state too: empty after a
        // begin or a restore, rebuilt here by polling every warp slot once.
        for sm in &mut self.sms {
            sm.rebuild_ready(&derived.decoded);
        }
        self.derived = Some(derived);
        Ok(())
    }

    /// Advance one cycle: dispatch CTAs, tick every SM, tick the memory
    /// side, then test for completion, a hang or a timeout. Returns whether
    /// the launch is done; after an error the caller abandons it.
    pub(crate) fn step(
        &mut self,
        kernel: &Kernel,
        cfg: &GpuConfig,
        gmem: &mut GlobalMem,
        blocktrack: &mut BlockTracker,
        sink: &mut Option<Box<dyn TraceSink>>,
        mem: &mut MemSys,
    ) -> Result<bool, SimError> {
        let derived = self.derived.as_ref().expect("prepare runs before step");
        let now = self.cycle;
        let mut progress = false;

        // Dispatch CTAs to free slots (one per SM per cycle).
        for (i, sm) in self.sms.iter_mut().enumerate() {
            if !sm.has_free_cta_slot() {
                continue;
            }
            let next = match cfg.cta_sched {
                CtaSchedPolicy::RoundRobin => self.global_queue.pop_front(),
                CtaSchedPolicy::Clustered { .. } => self.per_sm_queue[i].pop_front(),
            };
            if let Some(cta) = next {
                let streams = self.replay.as_ref().map_or(&[][..], |r| &r.streams);
                let ctaid = self.grid.coords(cta);
                let decoded = &derived.decoded;
                sm.dispatch_cta(cta, ctaid, self.block, cfg, kernel, decoded, streams);
                progress = true;
            }
        }

        // Cores.
        for sm in &mut self.sms {
            let mut ctx = TickCtx {
                cycle: now,
                decoded: &derived.decoded,
                params: &self.params,
                gmem,
                mem,
                blocktrack,
                cfg,
                ntid: self.block,
                sink,
                san: self.san_run.as_mut(),
            };
            match sm.tick(&mut ctx) {
                Ok(moved) => progress |= moved,
                Err(TickError::Mem(mut fault)) => {
                    // Attach the kernel and what the classifier knows about
                    // the faulting instruction: its D/N class and the
                    // def-chain witness of its address.
                    fault.kernel = kernel.name().to_string();
                    if let Some(load) = derived.classification.load(fault.violation.pc) {
                        fault.class = Some(load.class);
                        fault.witness = load.witness.clone();
                    }
                    return Err(SimError::MemFault(fault));
                }
                Err(TickError::San(report)) => return Err(SimError::Sanitizer(report)),
            }
        }

        // Interconnect and memory partitions.
        mem.tick(now, self.san_run.as_mut())
            .map_err(|r| conservation(*r))?;

        let next = now + 1;
        self.cycle = next;
        // Forward-progress watchdog: the last cycle on which any SM issued
        // an instruction, completed a memory op, or a CTA was dispatched or
        // retired.
        if progress {
            self.last_progress = next;
        }
        // Completion: all work dispatched, all SMs drained, memory side
        // empty.
        let work_left =
            !self.global_queue.is_empty() || self.per_sm_queue.iter().any(|q| !q.is_empty());
        if !work_left && self.sms.iter().all(Sm::is_idle) && mem.is_empty() {
            return Ok(true);
        }
        if next - self.last_progress >= cfg.hang_cycles {
            return Err(SimError::Hang(Box::new(HangReport {
                cycle: next - self.start_cycle,
                last_progress: self.last_progress - self.start_cycle,
                hang_cycles: cfg.hang_cycles,
                ctas_outstanding: (self.global_queue.len()
                    + self.per_sm_queue.iter().map(VecDeque::len).sum::<usize>())
                    as u64,
                sms: self.sms.iter().map(Sm::snapshot).collect(),
            })));
        }
        if next - self.start_cycle >= cfg.max_cycles {
            return Err(SimError::Timeout {
                cycles: next - self.start_cycle,
            });
        }
        Ok(false)
    }

    /// Success path: drain checks, the determinism digest and the SMs'
    /// statistics; every L1 goes back to its slot in `l1s`, warm.
    pub(crate) fn finish(
        mut self,
        kernel: &Kernel,
        l1s: &mut [Option<Cache>],
    ) -> Result<LaunchStats, SimError> {
        let (sms, cycle, start_cycle) = (self.sms, self.cycle, self.start_cycle);
        let derived = self
            .derived
            .expect("a launch completes only after its first step");
        let classification = derived.classification;

        // Success-path drain check: a completed launch must leave no
        // residue in any per-launch structure (satellite of the sanitizer's
        // conservation checker; always on in debug builds).
        if cfg!(debug_assertions) {
            for sm in &sms {
                sm.assert_drained();
            }
        }
        let mut digest = None;
        if let Some(sr) = &mut self.san_run {
            sr.ledger
                .check_drained(cycle)
                .map_err(|r| conservation(*r))?;
            // Determinism digest: per-SM event digests folded in SM order,
            // then the launch length. Any scheduling divergence between two
            // runs of the same workload lands here.
            let mut d = gcl_mem::FNV_OFFSET;
            for sm in &sms {
                d = gcl_mem::fnv_fold(d, sm.san_digest().unwrap_or(0));
            }
            d = gcl_mem::fnv_fold(d, cycle - start_cycle);
            if sr.digest_noise() {
                // DigestNoise injection: fold a process-global counter in so
                // two otherwise-identical runs diverge.
                static NOISE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
                d = gcl_mem::fnv_fold(d, NOISE.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
            }
            digest = Some(d);
        }

        let mut stats = LaunchStats {
            name: kernel.name().to_string(),
            launches: 1,
            cycles: cycle - start_cycle,
            static_loads: classification.global_load_counts(),
            digest,
            ..LaunchStats::default()
        };
        for (sm, slot) in sms.into_iter().zip(l1s) {
            let (sm_stats, mut l1, loadtrack) = sm.into_parts();
            stats.sm.merge(&sm_stats);
            stats.l1.merge(&l1.take_stats());
            *slot = Some(l1);
            let (class_agg, per_pc) = loadtrack.into_parts();
            for (agg, merged) in class_agg.iter().zip(stats.class_agg.iter_mut()) {
                merged.merge(agg);
            }
            let mut per_pc: Vec<_> = per_pc.into_iter().collect();
            per_pc.sort_by_key(|&((pc, n), _)| (pc, n));
            for ((pc, n_requests), v) in per_pc {
                let class = classification
                    .class_of(pc)
                    .unwrap_or(LoadClass::Deterministic);
                let kernel = kernel.name().to_string();
                let key = PcKey {
                    kernel,
                    pc,
                    class,
                    n_requests,
                };
                stats.add_pc(key, &v);
            }
        }
        Ok(stats)
    }

    /// Checkpoint-encode everything but the derived state and the trace.
    pub(crate) fn ckpt_encode(&self, e: &mut Enc) {
        self.kernel_name.put(e);
        (self.kernel_fp, self.grid, self.block).put(e);
        self.params.put(e);
        (self.shared_bytes, self.replay_fingerprint()).put(e);
        (self.start_cycle, self.cycle, self.last_progress).put(e);
        self.global_queue.put(e);
        self.per_sm_queue.put(e);
        e.seq(&self.sms, |e, sm| sm.ckpt_encode(e));
        e.opt(&self.san_run, |e, s| s.ckpt_encode(e));
    }

    /// Decode a launch written by [`ckpt_encode`](Self::ckpt_encode).
    pub(crate) fn ckpt_decode(d: &mut Dec<'_>, cfg: &GpuConfig) -> Result<Launch, CheckpointError> {
        let (kernel_name, kernel_fp, grid, block) = Wire::get(d)?;
        let (params, shared_bytes, replay_fp): (_, u32, Option<u64>) = Wire::get(d)?;
        let (start_cycle, cycle, last_progress): (u64, u64, u64) = Wire::get(d)?;
        if cycle < start_cycle || last_progress < start_cycle || last_progress > cycle {
            return Err(CheckpointError::Malformed("launch cycle ordering"));
        }
        let (global_queue, per_sm_queue): (_, Vec<_>) = Wire::get(d)?;
        if per_sm_queue.len() != cfg.n_sms {
            return Err(CheckpointError::Malformed("per-SM queue count mismatch"));
        }
        let sms = d.seq(|d| Sm::ckpt_decode(d, cfg, shared_bytes as usize))?;
        if sms.len() != cfg.n_sms {
            return Err(CheckpointError::Malformed("SM count mismatch"));
        }
        let san_run = d.opt(|d| SanRun::ckpt_decode(d, cfg.san_inject))?;
        if san_run.is_some() != cfg.sanitize {
            return Err(CheckpointError::Malformed(
                "sanitizer run presence mismatch",
            ));
        }
        Ok(Launch {
            kernel_name,
            kernel_fp,
            grid,
            block,
            params,
            shared_bytes,
            san_run,
            sms,
            global_queue,
            per_sm_queue,
            start_cycle,
            cycle,
            last_progress,
            derived: None,
            replaying: replay_fp.is_some(),
            replay_fp: replay_fp.map_or_else(OnceLock::new, OnceLock::from),
            replay: None,
        })
    }
}
