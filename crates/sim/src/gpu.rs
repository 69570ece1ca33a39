//! The simulated device: what outlives a launch, the public launch API over
//! the in-flight [`Launch`], snapshots, and the error type.

use crate::ckpt::{config_fingerprint, CheckpointError, Snapshot, SNAPSHOT_VERSION};
use crate::fault::{AllocError, ConfigError, HangReport, MemFaultReport};
use crate::launch::{KernelCache, Launch};
use crate::memsys::MemSys;
use crate::replay::{LaunchReplay, ReplayError, TraceSink};
use crate::san::SanitizerReport;
use crate::{BlockSummary, BlockTracker, Dim3, GlobalMem, GpuConfig, LaunchStats};
use gcl_mem::{Cache, Dec, Enc};
use gcl_ptx::Kernel;
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
    /// The launch cannot run the kernel as given: a block with a zero
    /// dimension, or a parameter block shorter than the kernel's
    /// parameters.
    InvalidLaunch(String),
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
            SimError::InvalidLaunch(why) => write!(f, "invalid launch: {why}"),
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

/// A simulated GPU. It owns what persists across launches: device memory,
/// cross-launch locality tracking, and the per-SM L1s and memory side
/// (crossbar, L2, DRAM), so a launch finds the caches as the previous one
/// left them; only an abandoned launch empties them.
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
    l1s: Vec<Option<Cache>>,
    mem: MemSys,
    /// Monotonic device clock: launches continue from where the previous
    /// one ended, so persistent component timestamps stay consistent.
    now: gcl_mem::Cycle,
    /// The launch currently in flight (between [`Gpu::launch_begin`] and
    /// completion), if any.
    active: Option<Launch>,
    /// What launches derive from each kernel run on this GPU (its
    /// classification and decoded rows), keyed by kernel fingerprint: a
    /// repeat launch of a kernel rebuilds none of it.
    kernels: KernelCache,
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

impl Gpu {
    /// Create a GPU with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration is
    /// inconsistent (see [`GpuConfig::validate`]).
    pub fn new(cfg: GpuConfig) -> Result<Gpu, SimError> {
        cfg.validate()?;
        Ok(Gpu {
            blocktrack: BlockTracker::new(cfg.l1.line_bytes),
            gmem: GlobalMem::new(),
            l1s: (0..cfg.n_sms).map(|_| Some(Cache::new(cfg.l1))).collect(),
            mem: MemSys::new(&cfg),
            cfg,
            now: 0,
            active: None,
            kernels: KernelCache::new(),
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

    /// Tear down a launch abandoned mid-flight so the GPU stays usable: the
    /// SMs are dropped, every L1 (whose MSHRs may await fills that will
    /// never arrive) and the memory side are replaced by empty ones, and
    /// the clock advances past the failure. Warm-cache state is sacrificed
    /// so that no stale in-flight request leaks into the next launch.
    fn abandon_launch(&mut self) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.abort_launch();
        }
        if let Some(launch) = self.active.take() {
            self.now = launch.cycle();
        }
        self.l1s.fill_with(|| Some(Cache::new(self.cfg.l1)));
        self.mem = MemSys::new(&self.cfg);
    }

    /// Run one kernel to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::CtaTooLarge`] if a CTA cannot fit on an SM.
    /// * [`SimError::InvalidLaunch`] if `block` has a zero dimension or
    ///   `params` is shorter than the kernel's parameters.
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
        self.launch_resume(kernel)
    }

    /// Start a replay launch without running it. The launch keeps the
    /// trace: drive it with [`Gpu::launch_step`] or [`Gpu::launch_resume`]
    /// like an execution launch.
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
        // The parameter block is never read during replay (no functional
        // execution); launch with an empty one.
        self.begin(kernel, rep.grid, rep.block, &[], Some(rep))
    }

    /// Give the active replay launch its trace and run it to completion:
    /// how a replay launch restored from a [`Snapshot`], which records only
    /// the trace's fingerprint, gets its trace back.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch_step`], plus [`ReplayError::NotReplayLaunch`] or
    /// [`ReplayError::TraceMismatch`], which leave the launch intact.
    pub fn launch_replay_resume(
        &mut self,
        kernel: &Kernel,
        rep: &LaunchReplay,
    ) -> Result<LaunchStats, SimError> {
        self.active
            .as_mut()
            .ok_or(CheckpointError::Malformed("no active launch to step"))?
            .attach_replay(rep)?;
        self.launch_resume(kernel)
    }

    /// Start a launch without running it: CTAs are queued, SMs built, and
    /// the first cycle is ready to step. Drive it with [`Gpu::launch_step`]
    /// or [`Gpu::launch_resume`].
    ///
    /// # Errors
    ///
    /// As the setup phase of [`Gpu::launch`]: [`SimError::CtaTooLarge`], or
    /// [`SimError::InvalidLaunch`] for a block with a zero dimension or a
    /// parameter block shorter than the kernel's parameters.
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
        self.begin(kernel, grid, block, params, None)
    }

    fn begin(
        &mut self,
        kernel: &Kernel,
        grid: Dim3,
        block: Dim3,
        params: &[u8],
        replay: Option<&LaunchReplay>,
    ) -> Result<(), SimError> {
        assert!(self.active.is_none(), "a launch is already active");
        let cfg = &self.cfg;
        let launch = Launch::new(
            cfg,
            kernel,
            grid,
            block,
            params,
            replay,
            &mut self.l1s,
            self.now,
        )?;
        self.blocktrack
            .begin_launch(kernel.name(), self.gmem.heap_end());
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.begin_launch(&launch.info(cfg.warp_size));
        }
        self.active = Some(launch);
        self.selftest_done = false;
        Ok(())
    }

    /// Advance the active launch, execution or replay, by one cycle.
    /// Returns the final statistics once the launch completes.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch`], plus [`SimError::Checkpoint`] when no launch is
    /// active or `kernel` is not the launch's, and
    /// [`ReplayError::MissingReplay`] for a restored replay launch not yet
    /// given its trace ([`Gpu::launch_replay_resume`]).
    pub fn launch_step(&mut self, kernel: &Kernel) -> Result<Option<LaunchStats>, SimError> {
        // Resume self-test: round-trip the complete state through snapshot
        // bytes mid-launch and continue from the decoded copy, handing a
        // replay launch its trace back.
        if let Some(at) = self.resume_selftest {
            if !self.selftest_done && self.launch_cycle() == Some(at) {
                self.selftest_done = true;
                let replay = self.active.as_ref().and_then(|a| a.replay().cloned());
                let snap = Snapshot::from_bytes(&self.snapshot().to_bytes())?;
                self.restore(&snap)?;
                if let (Some(rep), Some(launch)) = (replay, self.active.as_mut()) {
                    launch.attach_replay(&rep)?;
                }
            }
        }
        let Some(launch) = self.active.as_mut() else {
            return Err(CheckpointError::Malformed("no active launch to step").into());
        };
        launch.prepare(kernel, &mut self.kernels)?;
        let done = launch.step(
            kernel,
            &self.cfg,
            &mut self.gmem,
            &mut self.blocktrack,
            &mut self.sink,
            &mut self.mem,
        );
        let finished = match done {
            Ok(false) => return Ok(None),
            Ok(true) => {
                let launch = self.active.take().expect("stepped above");
                self.now = launch.cycle();
                launch.finish(kernel, &mut self.l1s)
            }
            Err(e) => Err(e),
        };
        match finished {
            Ok(mut stats) => {
                // Capture hook: the launch completed cleanly, so the
                // recorded stream set is complete — seal it. (An abandoned
                // launch discards the open capture instead.)
                if let Some(sink) = self.sink.as_deref_mut() {
                    sink.end_launch();
                    stats.trace_dropped = sink.dropped();
                }
                self.mem.harvest(&mut stats);
                Ok(Some(stats))
            }
            Err(e) => {
                if matches!(e, SimError::Hang(_)) {
                    // Dump the complete mid-flight state for post-mortem
                    // inspection (surfaced by `gcl run` as a checkpoint
                    // file) before tearing the launch down.
                    self.hang_snapshot = Some(self.snapshot());
                }
                self.abandon_launch();
                Err(e)
            }
        }
    }

    /// Run the active launch — typically one just restored from a
    /// [`Snapshot`] — to completion.
    ///
    /// # Errors
    ///
    /// As [`Gpu::launch_step`].
    pub fn launch_resume(&mut self, kernel: &Kernel) -> Result<LaunchStats, SimError> {
        loop {
            if let Some(stats) = self.launch_step(kernel)? {
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
        self.active.as_ref().map(Launch::relative_cycle)
    }

    /// Name of the kernel the active launch is running, if any.
    pub fn launch_kernel_name(&self) -> Option<&str> {
        self.active.as_ref().map(Launch::kernel_name)
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
        self.mem.ckpt_encode(&mut e);
        e.bool(self.active.is_some());
        match &self.active {
            Some(launch) => launch.ckpt_encode(&mut e),
            None => e.seq(&self.l1s, |e, l1| {
                l1.as_ref()
                    .expect("L1 present on an idle GPU")
                    .ckpt_encode(e)
            }),
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
        let (found, expected) = (snap.version, SNAPSHOT_VERSION);
        if found != expected {
            return Err(CheckpointError::VersionMismatch { found, expected });
        }
        let (found, expected) = (snap.config_fp, config_fingerprint(&self.cfg));
        if found != expected {
            return Err(CheckpointError::ConfigMismatch { found, expected });
        }
        let cfg = &self.cfg;
        let mut d = Dec::new(&snap.payload);
        let gmem = GlobalMem::ckpt_decode(&mut d)?;
        let blocktrack = BlockTracker::ckpt_decode(&mut d, cfg.l1.line_bytes, gmem.heap_end())?;
        let now = d.u64()?;
        let mem = self.mem.ckpt_decode(&mut d, cfg)?;
        let (active, l1s) = if d.bool()? {
            let launch = Launch::ckpt_decode(&mut d, cfg)?;
            (Some(launch), (0..cfg.n_sms).map(|_| None).collect())
        } else {
            let l1s: Vec<_> = d.seq(|d| Ok(Some(Cache::ckpt_decode(d, cfg.l1)?)))?;
            if l1s.len() != cfg.n_sms {
                return Err(CheckpointError::Malformed("L1 count mismatch"));
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
        self.mem = mem;
        self.l1s = l1s;
        self.active = active;
        Ok(())
    }
}
