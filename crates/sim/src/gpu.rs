//! The whole GPU: SMs, interconnect, memory partitions, CTA dispatch, and
//! the cycle loop.

use crate::ckpt::{
    config_fingerprint, kernel_fingerprint, CheckpointError, Snapshot, SNAPSHOT_VERSION,
};
use crate::decode::DecodedKernel;
use crate::fault::{AllocError, ConfigError, HangReport, MemFaultReport};
use crate::replay::{warps_per_cta, LaunchInfo, LaunchReplay, ReplayError, TraceSink};
use crate::san::{SanRun, SanitizerReport, TickError};
use crate::sm::{Sm, TickCtx};
use crate::{BlockSummary, BlockTracker, CtaSchedPolicy, Dim3, GlobalMem, GpuConfig, LaunchStats};
use gcl_core::{classify, Classification};
use gcl_mem::{AddrMap, ConservationReport, Dec, Enc, Icnt, L2Partition, PartitionEvent, SanStage};
use gcl_ptx::Kernel;
use std::collections::VecDeque;
use std::fmt;

/// Everything that can go wrong constructing a [`Gpu`] or running a
/// launch. Each variant carries the full structured report; the `Display`
/// form is what `gcl` prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration failed [`GpuConfig::validate`].
    InvalidConfig(ConfigError),
    /// A device allocation failed (bad alignment, overflowing size).
    Alloc(AllocError),
    /// Memcheck caught an out-of-bounds device access.
    MemFault(Box<MemFaultReport>),
    /// The forward-progress watchdog fired (barrier deadlock, scheduler
    /// livelock): no instruction issued, response landed, or CTA moved for
    /// [`GpuConfig::hang_cycles`] consecutive cycles.
    Hang(Box<HangReport>),
    /// The launch made progress but did not finish within
    /// [`GpuConfig::max_cycles`].
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
    },
    /// The kernel's CTA cannot fit on an SM under this configuration.
    CtaTooLarge {
        /// Threads per CTA requested.
        threads: u64,
        /// The limiting resource.
        reason: &'static str,
    },
    /// The simsan runtime sanitizer ([`GpuConfig::sanitize`]) caught a
    /// violation: broken request conservation, a shared-memory race, or
    /// digest divergence between runs.
    Sanitizer(Box<SanitizerReport>),
    /// A checkpoint could not be loaded, restored, or resumed: corrupted or
    /// truncated image, format-version / configuration / kernel mismatch,
    /// or an i/o failure (see [`CheckpointError`]).
    Checkpoint(CheckpointError),
    /// A trace-driven replay was rejected: wrong kernel, wrong stream
    /// count for the geometry, or a resumed replay given a different trace
    /// (see [`ReplayError`]).
    Replay(ReplayError),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(e) => write!(f, "{e}"),
            SimError::Alloc(e) => write!(f, "device allocation failed: {e}"),
            SimError::MemFault(report) => write!(f, "{report}"),
            SimError::Hang(report) => write!(f, "{report}"),
            SimError::Timeout { cycles } => {
                write!(f, "kernel did not finish within {cycles} cycles")
            }
            SimError::CtaTooLarge { threads, reason } => {
                write!(
                    f,
                    "CTA of {threads} threads does not fit on an SM: {reason}"
                )
            }
            SimError::Sanitizer(report) => write!(f, "sanitizer: {report}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            SimError::Replay(e) => write!(f, "replay: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidConfig(e) => Some(e),
            SimError::Alloc(e) => Some(e),
            SimError::Checkpoint(e) => Some(e),
            SimError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> SimError {
        SimError::Checkpoint(e)
    }
}

impl From<ReplayError> for SimError {
    fn from(e: ReplayError) -> SimError {
        SimError::Replay(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::InvalidConfig(e)
    }
}

impl From<AllocError> for SimError {
    fn from(e: AllocError) -> SimError {
        SimError::Alloc(e)
    }
}

/// Pack kernel parameter values (one raw 64-bit value per declared
/// parameter) into the launch's parameter block.
///
/// # Panics
///
/// Panics if the value count does not match the kernel's parameter count.
pub fn pack_params(kernel: &Kernel, values: &[u64]) -> Vec<u8> {
    assert_eq!(
        values.len(),
        kernel.params().len(),
        "kernel `{}` takes {} parameters, got {}",
        kernel.name(),
        kernel.params().len(),
        values.len()
    );
    let mut block = vec![0u8; kernel.param_bytes() as usize];
    for (i, &v) in values.iter().enumerate() {
        let off = kernel.param_offset(i) as usize;
        let n = kernel.params()[i].ty.size_bytes() as usize;
        for k in 0..n {
            block[off + k] = (v >> (8 * k)) as u8;
        }
    }
    block
}

/// A simulated GPU: owns device memory and cross-launch locality tracking;
/// cores and the memory hierarchy are instantiated per launch.
///
/// # Examples
///
/// ```
/// use gcl_sim::{pack_params, Dim3, Gpu, GpuConfig};
/// use gcl_ptx::{KernelBuilder, Type};
///
/// // out[tid] = tid
/// let mut b = KernelBuilder::new("iota");
/// let p = b.param("out", Type::U64);
/// let base = b.ld_param(Type::U64, p);
/// let tid = b.thread_linear_id();
/// let a = b.index64(base, tid, 4);
/// b.st_global(Type::U32, a, tid);
/// b.exit();
/// let k = b.build()?;
///
/// let mut gpu = Gpu::new(GpuConfig::small())?;
/// let out = gpu.mem().alloc_array(Type::U32, 64)?;
/// let params = pack_params(&k, &[out]);
/// let stats = gpu.launch(&k, Dim3::x(2), Dim3::x(32), &params)?;
/// assert!(stats.cycles > 0);
/// assert_eq!(gpu.mem().read_u32_slice(out, 4), vec![0, 1, 2, 3]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    gmem: GlobalMem,
    blocktrack: BlockTracker,
    /// Per-SM L1 caches, kept warm across kernel launches (slots are taken
    /// during a launch and returned afterwards).
    l1s: Vec<Option<gcl_mem::Cache>>,
    icnt: Icnt,
    partitions: Vec<L2Partition>,
    /// Monotonic device clock: launches continue from where the previous
    /// one ended, so persistent component timestamps stay consistent.
    now: gcl_mem::Cycle,
    /// The launch currently in flight (between [`Gpu::launch_begin`] and
    /// completion), if any.
    active: Option<LaunchState>,
    /// Snapshot captured by the hang watchdog just before the launch was
    /// torn down, retrievable via [`Gpu::take_hang_snapshot`].
    hang_snapshot: Option<Snapshot>,
    /// Testing hook: at this relative launch cycle, snapshot, serialize,
    /// restore, and continue — proving resume equivalence in-process.
    resume_selftest: Option<u64>,
    selftest_done: bool,
    /// Trace sink observing every launch's issue stream, if attached: a
    /// capture writer or the bounded debug [`Trace`](crate::Trace).
    sink: Option<Box<dyn TraceSink>>,
}

/// Everything belonging to one in-flight launch. Serialized wholesale into
/// mid-launch snapshots; `derived` holds state recomputed from the kernel
/// (never serialized, verified against `kernel_fp` at resume).
#[derive(Debug)]
struct LaunchState {
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
    derived: Option<Derived>,
    /// `Some(trace fingerprint)` when this launch is a trace-driven replay;
    /// every step must re-supply a trace with this fingerprint.
    replay_fp: Option<u64>,
}

/// Kernel-derived launch state, recomputed (not serialized) because it is a
/// pure function of the kernel, the launch geometry and the configuration.
#[derive(Debug)]
struct Derived {
    classification: Classification,
    addrmap: AddrMap,
    decoded: DecodedKernel,
}

/// How one simulated cycle ended (collected inside the borrow region of
/// [`Gpu::step_inner`], handled after it).
enum StepEnd {
    Continue,
    Done,
    Fault(TickError),
    SanFault(Box<ConservationReport>),
    Hang(Box<HangReport>),
    Timeout(u64),
}

impl Gpu {
    /// Create a GPU with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// inconsistent (see [`GpuConfig::validate`]).
    pub fn new(cfg: GpuConfig) -> Result<Gpu, SimError> {
        cfg.validate()?;
        let l1s = (0..cfg.n_sms)
            .map(|_| Some(gcl_mem::Cache::new(cfg.l1)))
            .collect();
        let icnt = Icnt::new(cfg.icnt, cfg.n_sms, cfg.n_partitions);
        let partitions = (0..cfg.n_partitions)
            .map(|_| L2Partition::new(cfg.partition))
            .collect();
        Ok(Gpu {
            blocktrack: BlockTracker::new(cfg.l1.line_bytes),
            cfg,
            gmem: GlobalMem::new(),
            l1s,
            icnt,
            partitions,
            now: 0,
            active: None,
            hang_snapshot: None,
            resume_selftest: None,
            selftest_done: false,
            sink: None,
        })
    }

    /// Attach (or detach, with `None`) a trace sink. The sink observes
    /// every subsequent launch: a `begin_launch`/`end_launch` bracket per
    /// completed launch, `abort_launch` for abandoned ones, and one `issue`
    /// call per issued warp instruction; what it reports as
    /// [`TraceSink::dropped`] when a launch ends becomes that launch's
    /// [`LaunchStats::trace_dropped`].
    pub fn set_trace_sink(&mut self, sink: Option<Box<dyn TraceSink>>) {
        self.sink = sink;
    }

    /// Detach and return the trace-capture sink, if one was attached.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Device memory (allocate and initialize buffers here, inspect results
    /// after launches).
    pub fn mem(&mut self) -> &mut GlobalMem {
        &mut self.gmem
    }

    /// Read-only view of device memory.
    pub fn mem_ref(&self) -> &GlobalMem {
        &self.gmem
    }

    /// Cross-launch block locality summary (the paper's Figures 10–11).
    pub fn block_summary(&self) -> BlockSummary {
        self.blocktrack.summary()
    }

    /// Cross-launch CTA-distance histogram (Figure 12).
    pub fn distance_histogram(&self) -> Vec<(u64, f64)> {
        self.blocktrack.distance_histogram()
    }

    /// Per-(kernel, pc) measured inter-CTA block sharing, for
    /// cross-validating the static locality analysis load by load.
    pub fn pc_sharing(&self) -> Vec<crate::blocktrack::PcSharing> {
        self.blocktrack.pc_sharing()
    }

    /// Resident CTAs per SM for this kernel/launch geometry.
    fn occupancy(&self, kernel: &Kernel, block: Dim3) -> Result<usize, SimError> {
        let threads = block.count();
        let cfg = &self.cfg;
        if threads > u64::from(cfg.max_threads_per_sm) {
            return Err(SimError::CtaTooLarge {
                threads,
                reason: "thread limit",
            });
        }
        if kernel.shared_bytes() > cfg.shared_mem_per_sm {
            return Err(SimError::CtaTooLarge {
                threads,
                reason: "shared memory",
            });
        }
        let by_threads = u64::from(cfg.max_threads_per_sm) / threads;
        let by_shared = if kernel.shared_bytes() == 0 {
            u64::MAX
        } else {
            u64::from(cfg.shared_mem_per_sm / kernel.shared_bytes())
        };
        let ctas = by_threads
            .min(by_shared)
            .min(u64::from(cfg.max_ctas_per_sm))
            .max(1) as usize;
        Ok(ctas)
    }

    /// Tear down a launch abandoned mid-flight so the GPU stays usable:
    /// the partially-run SMs are dropped, every L1 slot (taken by the
    /// failed launch, possibly holding MSHR entries whose fills will never
    /// arrive) is replaced by a fresh cache, the interconnect and
    /// partitions are rebuilt empty, and the device clock advances past
    /// the failure. Warm-cache state is deliberately sacrificed — stale
    /// in-flight requests must never leak into the next launch.
    fn abandon_launch(&mut self) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.abort_launch();
        }
        let cycle = self.active.as_ref().map_or(self.now, |a| a.cycle);
        self.active = None;
        for slot in self.l1s.iter_mut() {
            *slot = Some(gcl_mem::Cache::new(self.cfg.l1));
        }
        self.icnt = Icnt::new(self.cfg.icnt, self.cfg.n_sms, self.cfg.n_partitions);
        self.partitions = (0..self.cfg.n_partitions)
            .map(|_| L2Partition::new(self.cfg.partition))
            .collect();
        self.now = cycle;
    }

    /// Run one kernel to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::CtaTooLarge`] if a CTA cannot fit on an SM.
    /// * [`SimError::MemFault`] if [`GpuConfig::memcheck`] is on and the
    ///   kernel touches memory outside every live allocation; the report
    ///   names the faulting pc, SM/warp/lane, address, the load's D/N
    ///   class, and its address def-chain witness.
    /// * [`SimError::Hang`] if nothing makes forward progress for
    ///   [`GpuConfig::hang_cycles`] consecutive cycles (e.g. a barrier
    ///   deadlock); carries a per-SM, per-warp state dump.
    /// * [`SimError::Timeout`] if the launch exceeds
    ///   [`GpuConfig::max_cycles`] while still making progress.
    /// * [`SimError::Sanitizer`] if [`GpuConfig::sanitize`] is on and a
    ///   checker fires: a request left the conservation state machine (or
    ///   leaked past launch end), or two warps of a CTA raced on shared
    ///   memory within one barrier epoch.
    ///
    /// Any error leaves the GPU reusable: L1 caches are reclaimed and the
    /// device clock advances past the failed launch.
    pub fn launch(
        &mut self,
        kernel: &Kernel,
        grid: Dim3,
        block: Dim3,
        params: &[u8],
    ) -> Result<LaunchStats, SimError> {
        self.launch_begin(kernel, grid, block, params)?;
        self.launch_resume(kernel)
    }

    /// Run one recorded launch of `trace` through the timing model, with no
    /// functional execution: pcs, active masks, and resolved per-lane
    /// addresses come from the trace; scheduling, coalescing, the cache
    /// hierarchy, DRAM, the sanitizer ledger, and the event digest all run
    /// exactly as in [`Gpu::launch`]. A faithful replay of a trace captured
    /// under this configuration reproduces the execution-driven cycle
    /// count, statistics, and digest byte for byte.
    ///
    /// # Errors
    ///
    /// [`SimError::Replay`] if `kernel` is not the kernel the trace was
    /// captured from or the trace's stream count contradicts its geometry;
    /// timing-model errors as for [`Gpu::launch`].
    pub fn launch_replay(
        &mut self,
        kernel: &Kernel,
        rep: &LaunchReplay,
    ) -> Result<LaunchStats, SimError> {
        self.launch_replay_begin(kernel, rep)?;
        self.launch_replay_resume(kernel, rep)
    }

    /// Start a replay launch without running it; drive it with
    /// [`Gpu::launch_replay_step`] or [`Gpu::launch_replay_resume`].
    ///
    /// # Errors
    ///
    /// As the validation phase of [`Gpu::launch_replay`].
    ///
    /// # Panics
    ///
    /// Panics if a launch is already active.
    pub fn launch_replay_begin(
        &mut self,
        kernel: &Kernel,
        rep: &LaunchReplay,
    ) -> Result<(), SimError> {
        let kfp = kernel_fingerprint(kernel);
        if rep.kernel_fp != kfp {
            return Err(ReplayError::KernelMismatch {
                found: rep.kernel_fp,
                expected: kfp,
            }
            .into());
        }
        let expected = rep.grid.count() * warps_per_cta(rep.block, self.cfg.warp_size);
        if rep.streams.len() as u64 != expected {
            return Err(ReplayError::StreamCount {
                found: rep.streams.len() as u64,
                expected,
            }
            .into());
        }
        // The parameter block is never read during replay (no functional
        // execution); launch with an empty one.
        self.launch_begin(kernel, rep.grid, rep.block, &[])?;
        self.active
            .as_mut()
            .expect("launch_begin just succeeded")
            .replay_fp = Some(rep.fingerprint());
        Ok(())
    }

    /// Advance the active replay launch by one cycle.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch_replay`], plus [`SimError::Checkpoint`] when no
    /// launch is active.
    pub fn launch_replay_step(
        &mut self,
        kernel: &Kernel,
        rep: &LaunchReplay,
    ) -> Result<Option<LaunchStats>, SimError> {
        self.step_inner(kernel, Some(rep))
    }

    /// Run the active replay launch — possibly one just restored from a
    /// [`Snapshot`] — to completion.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch_replay_step`]. A restored replay additionally
    /// rejects a trace whose fingerprint differs from the snapshot's
    /// ([`ReplayError::TraceMismatch`]).
    pub fn launch_replay_resume(
        &mut self,
        kernel: &Kernel,
        rep: &LaunchReplay,
    ) -> Result<LaunchStats, SimError> {
        loop {
            if let Some(stats) = self.step_inner(kernel, Some(rep))? {
                return Ok(stats);
            }
        }
    }

    /// Start a launch without running it: CTAs are queued, SMs built, and
    /// the first cycle is ready to step. Drive it with [`Gpu::launch_step`]
    /// or [`Gpu::launch_resume`].
    ///
    /// # Errors
    ///
    /// As the setup phase of [`Gpu::launch`] ([`SimError::CtaTooLarge`]).
    ///
    /// # Panics
    ///
    /// Panics if a launch is already active.
    pub fn launch_begin(
        &mut self,
        kernel: &Kernel,
        grid: Dim3,
        block: Dim3,
        params: &[u8],
    ) -> Result<(), SimError> {
        assert!(
            self.active.is_none(),
            "launch_begin while a launch is active"
        );
        let cfg = self.cfg.clone();
        let ctas_per_sm = self.occupancy(kernel, block)?;
        // One sanitizer run per launch: the conservation ledger and the
        // fault-injection counters both describe a single launch.
        let san_run = cfg.sanitize.then(|| SanRun::new(cfg.san_inject));
        let sms: Vec<Sm> = (0..cfg.n_sms)
            .map(|i| {
                let l1 = self.l1s[i]
                    .take()
                    .expect("L1 not returned by previous launch");
                Sm::new(i as u16, &cfg, kernel, ctas_per_sm, l1)
            })
            .collect();

        // CTA work queues per dispatch policy.
        let n_ctas = grid.count();
        let mut global_queue: VecDeque<u64> = VecDeque::new();
        let mut per_sm_queue: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.n_sms];
        match cfg.cta_sched {
            CtaSchedPolicy::RoundRobin => {
                global_queue.extend(0..n_ctas);
            }
            CtaSchedPolicy::Clustered { group } => {
                for cta in 0..n_ctas {
                    let sm = ((cta / u64::from(group.max(1))) % cfg.n_sms as u64) as usize;
                    per_sm_queue[sm].push_back(cta);
                }
            }
        }

        self.blocktrack
            .begin_launch(kernel.name(), self.gmem.heap_end());
        let start_cycle = self.now;
        let kernel_fp = kernel_fingerprint(kernel);
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.begin_launch(&LaunchInfo {
                kernel_fp,
                kernel_name: kernel.name().to_string(),
                grid,
                block,
                n_streams: grid.count() * warps_per_cta(block, cfg.warp_size),
            });
        }
        self.active = Some(LaunchState {
            kernel_name: kernel.name().to_string(),
            kernel_fp,
            grid,
            block,
            params: params.to_vec(),
            shared_bytes: kernel.shared_bytes(),
            san_run,
            sms,
            global_queue,
            per_sm_queue,
            start_cycle,
            cycle: start_cycle,
            last_progress: start_cycle,
            derived: None,
            replay_fp: None,
        });
        self.selftest_done = false;
        Ok(())
    }

    /// Advance the active launch by one cycle. Returns the final statistics
    /// once the launch completes, `None` while it is still running.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch`], plus [`SimError::Checkpoint`] when no launch is
    /// active or `kernel` differs from the kernel the launch was started
    /// (or snapshotted) with.
    pub fn launch_step(&mut self, kernel: &Kernel) -> Result<Option<LaunchStats>, SimError> {
        self.step_inner(kernel, None)
    }

    /// Run the active launch — typically one just restored from a
    /// [`Snapshot`] — to completion.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch_step`].
    pub fn launch_resume(&mut self, kernel: &Kernel) -> Result<LaunchStats, SimError> {
        loop {
            if let Some(stats) = self.step_inner(kernel, None)? {
                return Ok(stats);
            }
        }
    }

    /// Whether a launch is currently in flight.
    pub fn launch_active(&self) -> bool {
        self.active.is_some()
    }

    /// Relative cycle of the active launch (0 at launch start), if any.
    pub fn launch_cycle(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.cycle - a.start_cycle)
    }

    /// Name of the kernel the active launch is running, if any.
    pub fn launch_kernel_name(&self) -> Option<&str> {
        self.active.as_ref().map(|a| a.kernel_name.as_str())
    }

    /// Testing hook: at relative launch cycle `at`, serialize a snapshot,
    /// restore the GPU from those bytes, and continue — an in-process proof
    /// that interrupt-and-resume is digest-identical. Re-arms on each call;
    /// fires at most once per arming.
    pub fn set_resume_selftest(&mut self, at: Option<u64>) {
        self.resume_selftest = at;
        self.selftest_done = false;
    }

    /// The snapshot captured by the hang watchdog just before it tore the
    /// launch down, if a hang fired since the last call.
    pub fn take_hang_snapshot(&mut self) -> Option<Snapshot> {
        self.hang_snapshot.take()
    }

    fn step_inner(
        &mut self,
        kernel: &Kernel,
        replay: Option<&LaunchReplay>,
    ) -> Result<Option<LaunchStats>, SimError> {
        // Resume self-test: prove interrupt-and-resume equivalence by
        // round-tripping the complete state through snapshot bytes
        // mid-launch and continuing from the decoded copy.
        if let Some(at) = self.resume_selftest {
            if !self.selftest_done && self.launch_cycle() == Some(at) {
                self.selftest_done = true;
                let snap = Snapshot::from_bytes(&self.snapshot().to_bytes())
                    .map_err(SimError::Checkpoint)?;
                self.restore(&snap)?;
            }
        }
        let cfg = &self.cfg;
        {
            let Some(active) = self.active.as_mut() else {
                return Err(SimError::Checkpoint(CheckpointError::Malformed(
                    "no active launch to step",
                )));
            };
            // Cheap per-step guard: a replay launch must be driven with its
            // trace and an execution launch without one. The expensive
            // fingerprint comparison happens once, in the derived-init
            // block below.
            match (active.replay_fp, replay) {
                (Some(_), None) => return Err(ReplayError::MissingReplay.into()),
                (None, Some(_)) => return Err(ReplayError::NotReplayLaunch.into()),
                _ => {}
            }
            if active.derived.is_none() {
                // First step since launch_begin or restore: verify the
                // caller's kernel is the one the launch was started with
                // before deriving per-kernel state from it. Checked only
                // here — recomputing the fingerprint (a Debug-format of the
                // whole kernel) every cycle would dominate the step cost.
                let kfp = kernel_fingerprint(kernel);
                if active.kernel_fp != kfp {
                    return Err(SimError::Checkpoint(CheckpointError::KernelMismatch {
                        found: active.kernel_fp,
                        expected: kfp,
                    }));
                }
                if let (Some(fp), Some(rep)) = (active.replay_fp, replay) {
                    // First step of a replay launch (or first after a
                    // restore): the trace the caller supplies must be the
                    // trace the launch was started with — the snapshot
                    // records only a fingerprint, so warp cursors need
                    // relinking to live record streams here.
                    let found = rep.fingerprint();
                    if found != fp {
                        return Err(ReplayError::TraceMismatch {
                            found,
                            expected: fp,
                        }
                        .into());
                    }
                    for sm in &mut active.sms {
                        sm.relink_replay(rep).map_err(SimError::Checkpoint)?;
                    }
                }
                let classification = classify(kernel);
                let decoded =
                    DecodedKernel::new(kernel, &classification, active.block, active.grid);
                // The schedulers' ready sets are derived state too: empty
                // after launch_begin or a restore, rebuilt here by polling
                // every warp slot once.
                for sm in &mut active.sms {
                    sm.rebuild_ready(&decoded);
                }
                active.derived = Some(Derived {
                    classification,
                    addrmap: AddrMap::new(cfg.n_partitions, cfg.n_sms, cfg.l2_topology),
                    decoded,
                });
            }
        }

        let end = {
            let active = self.active.as_mut().expect("active launch checked above");
            let LaunchState {
                grid,
                block,
                params,
                san_run,
                sms,
                global_queue,
                per_sm_queue,
                start_cycle,
                cycle,
                last_progress,
                derived,
                ..
            } = active;
            let derived = derived.as_ref().expect("derived state ensured above");
            let (grid, block, start_cycle) = (*grid, *block, *start_cycle);
            let now_cycle = *cycle;
            let mut progress = false;

            // Dispatch CTAs to free slots (one per SM per cycle).
            for (i, sm) in sms.iter_mut().enumerate() {
                if !sm.has_free_cta_slot() {
                    continue;
                }
                let next = match cfg.cta_sched {
                    CtaSchedPolicy::RoundRobin => global_queue.pop_front(),
                    CtaSchedPolicy::Clustered { .. } => per_sm_queue[i].pop_front(),
                };
                if let Some(cta) = next {
                    let (x, y, z) = grid.coords(cta);
                    sm.dispatch_cta(cta, (x, y, z), block, cfg, kernel, &derived.decoded, replay);
                    progress = true;
                }
            }

            // Cores.
            let mut fault: Option<TickError> = None;
            for sm in sms.iter_mut() {
                let mut ctx = TickCtx {
                    cycle: now_cycle,
                    kernel,
                    decoded: &derived.decoded,
                    params,
                    gmem: &mut self.gmem,
                    icnt: &mut self.icnt,
                    addrmap: &derived.addrmap,
                    blocktrack: &mut self.blocktrack,
                    cfg,
                    ntid: block,
                    sink: &mut self.sink,
                    san: san_run.as_mut(),
                };
                match sm.tick(&mut ctx) {
                    Ok(moved) => progress |= moved,
                    Err(f) => {
                        fault = Some(f);
                        break;
                    }
                }
            }
            if let Some(f) = fault {
                StepEnd::Fault(f)
            } else {
                // Interconnect and memory partitions. Conservation
                // transitions at every seam the simulator can observe;
                // partition-internal ones arrive via `pop_event`. A
                // violation is collected rather than returned mid-loop so
                // every partition still ticks.
                let mut san_fault: Option<Box<ConservationReport>> = None;
                self.icnt.tick(now_cycle);
                for (p, part) in self.partitions.iter_mut().enumerate() {
                    if part.can_enqueue() {
                        if let Some(req) = self.icnt.pop_request(p, now_cycle) {
                            if req.san != 0 {
                                if let Some(sr) = san_run.as_mut() {
                                    if let Err(r) =
                                        sr.ledger.transition(req.san, SanStage::L2, now_cycle)
                                    {
                                        san_fault.get_or_insert(r);
                                    }
                                }
                            }
                            let ok = part.enqueue(req);
                            debug_assert!(ok);
                        }
                    }
                    part.tick(now_cycle);
                    if let Some(sr) = san_run.as_mut() {
                        while let Some((id, ev)) = part.pop_event() {
                            let res = match ev {
                                PartitionEvent::DramEntered => {
                                    sr.ledger.transition(id, SanStage::Dram, now_cycle)
                                }
                                PartitionEvent::WriteRetired => sr.ledger.retire(id, now_cycle),
                            };
                            if let Err(r) = res {
                                san_fault.get_or_insert(r);
                            }
                        }
                    }
                    while self.icnt.can_inject_response(p) {
                        match part.pop_response(now_cycle) {
                            Some(resp) => {
                                if resp.san != 0 {
                                    if let Some(sr) = san_run.as_mut() {
                                        if let Err(r) = sr.ledger.transition(
                                            resp.san,
                                            SanStage::IcntResp,
                                            now_cycle,
                                        ) {
                                            san_fault.get_or_insert(r);
                                        }
                                    }
                                }
                                let ok = self.icnt.inject_response(p, resp);
                                debug_assert!(ok);
                            }
                            None => break,
                        }
                    }
                }
                if let Some(report) = san_fault {
                    StepEnd::SanFault(report)
                } else {
                    let next_cycle = now_cycle + 1;
                    *cycle = next_cycle;
                    // Forward-progress watchdog: the last cycle on which any
                    // SM issued an instruction, completed a memory op, or a
                    // CTA was dispatched or retired.
                    if progress {
                        *last_progress = next_cycle;
                    }

                    // Completion: all work dispatched, all SMs drained,
                    // hierarchy empty.
                    let work_left =
                        !global_queue.is_empty() || per_sm_queue.iter().any(|q| !q.is_empty());
                    if !work_left
                        && sms.iter().all(Sm::is_idle)
                        && self.icnt.is_empty()
                        && self.partitions.iter().all(L2Partition::is_empty)
                    {
                        StepEnd::Done
                    } else if next_cycle - *last_progress >= cfg.hang_cycles {
                        StepEnd::Hang(Box::new(HangReport {
                            cycle: next_cycle - start_cycle,
                            last_progress: *last_progress - start_cycle,
                            hang_cycles: cfg.hang_cycles,
                            ctas_outstanding: global_queue.len() as u64
                                + per_sm_queue.iter().map(|q| q.len() as u64).sum::<u64>(),
                            sms: sms.iter().map(Sm::snapshot).collect(),
                        }))
                    } else if next_cycle - start_cycle >= cfg.max_cycles {
                        StepEnd::Timeout(next_cycle - start_cycle)
                    } else {
                        StepEnd::Continue
                    }
                }
            }
        };

        match end {
            StepEnd::Continue => Ok(None),
            StepEnd::Done => {
                let mut stats = self.finish_launch(kernel)?;
                if let Some(sink) = &self.sink {
                    stats.trace_dropped = sink.dropped();
                }
                Ok(Some(stats))
            }
            StepEnd::Fault(fault) => {
                let classification = self
                    .active
                    .as_mut()
                    .and_then(|a| a.derived.take())
                    .map(|d| d.classification);
                self.abandon_launch();
                Err(match fault {
                    TickError::Mem(mut fault) => {
                        // Attach what the classifier knows about the faulting
                        // instruction: its D/N class and the def-chain witness
                        // of its address.
                        if let Some(load) = classification
                            .as_ref()
                            .and_then(|c| c.load(fault.violation.pc))
                        {
                            fault.class = Some(load.class);
                            fault.witness = load.witness.clone();
                        }
                        SimError::MemFault(fault)
                    }
                    TickError::San(report) => SimError::Sanitizer(report),
                })
            }
            StepEnd::SanFault(report) => {
                self.abandon_launch();
                Err(SimError::Sanitizer(Box::new(
                    SanitizerReport::Conservation(*report),
                )))
            }
            StepEnd::Hang(report) => {
                // Dump the complete mid-flight state for post-mortem
                // inspection (surfaced by `gcl run` as a checkpoint file)
                // before tearing the launch down.
                self.hang_snapshot = Some(self.snapshot());
                self.abandon_launch();
                Err(SimError::Hang(report))
            }
            StepEnd::Timeout(cycles) => {
                self.abandon_launch();
                Err(SimError::Timeout { cycles })
            }
        }
    }

    /// Success path of a completed launch: drain checks, determinism
    /// digest, statistics assembly, and returning the warm L1s to their
    /// slots.
    fn finish_launch(&mut self, kernel: &Kernel) -> Result<LaunchStats, SimError> {
        let active = self.active.take().expect("finishing without active launch");
        let LaunchState {
            sms,
            mut san_run,
            start_cycle,
            cycle,
            derived,
            ..
        } = active;
        self.now = cycle;

        // Success-path drain check: a completed launch must leave no
        // residue in any per-launch structure (satellite of the sanitizer's
        // conservation checker; always on in debug builds).
        if cfg!(debug_assertions) {
            for sm in &sms {
                sm.assert_drained();
            }
        }
        let mut digest = None;
        if let Some(sr) = san_run.as_mut() {
            if let Err(report) = sr.ledger.check_drained(cycle) {
                self.abandon_launch();
                return Err(SimError::Sanitizer(Box::new(
                    SanitizerReport::Conservation(*report),
                )));
            }
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
        // Capture hook: the launch completed cleanly, so the recorded
        // stream set is complete — seal it. (Faulted launches go through
        // `abandon_launch`, which discards the open capture instead.)
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.end_launch();
        }
        let classification = match derived {
            Some(d) => d.classification,
            None => classify(kernel),
        };

        // Assemble stats.
        let mut stats = LaunchStats {
            name: kernel.name().to_string(),
            launches: 1,
            cycles: cycle - start_cycle,
            static_loads: classification.global_load_counts(),
            digest,
            ..LaunchStats::default()
        };
        for (i, sm) in sms.into_iter().enumerate() {
            let (sm_stats, mut l1, loadtrack) = sm.into_parts();
            stats.sm.merge(&sm_stats);
            stats.l1.merge(&l1.take_stats());
            self.l1s[i] = Some(l1);
            let (class_agg, per_pc) = loadtrack.into_parts();
            for (agg, merged) in class_agg.iter().zip(stats.class_agg.iter_mut()) {
                merged.merge(agg);
            }
            let mut per_pc: Vec<_> = per_pc.into_iter().collect();
            per_pc.sort_by_key(|&((pc, n), _)| (pc, n));
            for ((pc, n_requests), v) in per_pc {
                let class = classification
                    .class_of(pc)
                    .unwrap_or(gcl_core::LoadClass::Deterministic);
                let key = crate::stats::PcKey {
                    kernel: kernel.name().to_string(),
                    pc,
                    class,
                    n_requests,
                };
                stats.add_pc(key, &v);
            }
        }
        for part in &mut self.partitions {
            let (l2_stats, dram_stats) = part.take_stats();
            stats.l2.merge(&l2_stats);
            stats.add_dram(&dram_stats);
        }
        Ok(stats)
    }

    /// Capture the complete simulator state — idle or mid-launch — as a
    /// versioned, checksummed [`Snapshot`].
    ///
    /// Mid-launch snapshots include every SM's warp contexts, SIMT stacks,
    /// scoreboards, register values, shared memory, L1 tag/MSHR arrays,
    /// the interconnect and DRAM queues, the in-flight request ledger, and
    /// all accumulated statistics, so a restored launch continues
    /// cycle-exactly with an identical event digest. An attached trace
    /// sink is diagnostic-only and not captured.
    pub fn snapshot(&self) -> Snapshot {
        let mut e = Enc::new();
        self.gmem.ckpt_encode(&mut e);
        self.blocktrack.ckpt_encode(&mut e);
        e.u64(self.now);
        self.icnt.ckpt_encode(&mut e);
        e.usize(self.partitions.len());
        for p in &self.partitions {
            p.ckpt_encode(&mut e);
        }
        match &self.active {
            Some(a) => {
                e.bool(true);
                e.str(&a.kernel_name);
                e.u64(a.kernel_fp);
                for v in [
                    a.grid.x, a.grid.y, a.grid.z, a.block.x, a.block.y, a.block.z,
                ] {
                    e.u32(v);
                }
                e.bytes(&a.params);
                e.u32(a.shared_bytes);
                e.opt(&a.replay_fp, |e, &v| e.u64(v));
                e.u64(a.start_cycle);
                e.u64(a.cycle);
                e.u64(a.last_progress);
                e.usize(a.global_queue.len());
                for &c in &a.global_queue {
                    e.u64(c);
                }
                e.usize(a.per_sm_queue.len());
                for q in &a.per_sm_queue {
                    e.usize(q.len());
                    for &c in q {
                        e.u64(c);
                    }
                }
                e.usize(a.sms.len());
                for sm in &a.sms {
                    sm.ckpt_encode(&mut e);
                }
                e.opt(&a.san_run, |e, s| s.ckpt_encode(e));
            }
            None => {
                e.bool(false);
                e.usize(self.l1s.len());
                for l1 in &self.l1s {
                    l1.as_ref()
                        .expect("L1 present on an idle GPU")
                        .ckpt_encode(&mut e);
                }
            }
        }
        Snapshot {
            version: SNAPSHOT_VERSION,
            config_fp: config_fingerprint(&self.cfg),
            payload: e.into_bytes(),
        }
    }

    /// Replace the simulator state with `snap`'s.
    ///
    /// The payload is decoded into temporaries and validated end to end
    /// before any live state is touched: a rejected restore leaves the GPU
    /// exactly as it was.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on a format-version mismatch, a
    /// configuration-fingerprint mismatch, or a payload that fails
    /// structural validation.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SimError> {
        self.restore_inner(snap).map_err(SimError::Checkpoint)
    }

    fn restore_inner(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        if snap.version != SNAPSHOT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: snap.version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let expected = config_fingerprint(&self.cfg);
        if snap.config_fp != expected {
            return Err(CheckpointError::ConfigMismatch {
                found: snap.config_fp,
                expected,
            });
        }
        let cfg = &self.cfg;
        let mut d = Dec::new(&snap.payload);
        let gmem = GlobalMem::ckpt_decode(&mut d)?;
        let blocktrack = BlockTracker::ckpt_decode(&mut d, cfg.l1.line_bytes, gmem.heap_end())?;
        let now = d.u64()?;
        let icnt = Icnt::ckpt_decode(&mut d, cfg.icnt, cfg.n_sms, cfg.n_partitions)?;
        let n_parts = d.seq_len()?;
        if n_parts != cfg.n_partitions {
            return Err(CheckpointError::Malformed("partition count mismatch"));
        }
        let mut partitions = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            partitions.push(L2Partition::ckpt_decode(&mut d, cfg.partition)?);
        }
        let (active, l1s) = if d.bool()? {
            let kernel_name = d.str()?;
            let kernel_fp = d.u64()?;
            let grid = Dim3 {
                x: d.u32()?,
                y: d.u32()?,
                z: d.u32()?,
            };
            let block = Dim3 {
                x: d.u32()?,
                y: d.u32()?,
                z: d.u32()?,
            };
            let params = d.bytes()?.to_vec();
            let shared_bytes = d.u32()?;
            let replay_fp = d.opt(|d| d.u64())?;
            let start_cycle = d.u64()?;
            let cycle = d.u64()?;
            let last_progress = d.u64()?;
            if cycle < start_cycle || last_progress < start_cycle || last_progress > cycle {
                return Err(CheckpointError::Malformed("launch cycle ordering"));
            }
            let global_queue: VecDeque<u64> = d.seq(|d| d.u64())?.into();
            let nq = d.seq_len()?;
            if nq != cfg.n_sms {
                return Err(CheckpointError::Malformed("per-SM queue count mismatch"));
            }
            let mut per_sm_queue: Vec<VecDeque<u64>> = Vec::with_capacity(nq);
            for _ in 0..nq {
                per_sm_queue.push(d.seq(|d| d.u64())?.into());
            }
            let n_sms = d.seq_len()?;
            if n_sms != cfg.n_sms {
                return Err(CheckpointError::Malformed("SM count mismatch"));
            }
            let mut sms = Vec::with_capacity(n_sms);
            for _ in 0..n_sms {
                sms.push(Sm::ckpt_decode(&mut d, cfg, shared_bytes as usize)?);
            }
            let san_run = d.opt(|d| SanRun::ckpt_decode(d, cfg.san_inject))?;
            if san_run.is_some() != cfg.sanitize {
                return Err(CheckpointError::Malformed(
                    "sanitizer run presence mismatch",
                ));
            }
            let l1s = (0..cfg.n_sms).map(|_| None).collect();
            (
                Some(LaunchState {
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
                    replay_fp,
                }),
                l1s,
            )
        } else {
            let n = d.seq_len()?;
            if n != cfg.n_sms {
                return Err(CheckpointError::Malformed("L1 count mismatch"));
            }
            let mut l1s = Vec::with_capacity(n);
            for _ in 0..n {
                l1s.push(Some(gcl_mem::Cache::ckpt_decode(&mut d, cfg.l1)?));
            }
            (None, l1s)
        };
        if !d.is_done() {
            return Err(CheckpointError::Malformed("trailing bytes in payload"));
        }
        // Point of no return: everything decoded and validated, so the
        // assignment below can no longer fail partway.
        self.gmem = gmem;
        self.blocktrack = blocktrack;
        self.now = now;
        self.icnt = icnt;
        self.partitions = partitions;
        self.l1s = l1s;
        self.active = active;
        Ok(())
    }
}
