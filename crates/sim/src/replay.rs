//! Trace-driven replay: the shared issue-event schema, the capture sink at
//! the SM issue boundary, and the per-launch replay streams that feed the
//! timing model without functional execution.
//!
//! ## Capture / replay contract
//!
//! Execution-driven simulation and replay share one issue path
//! (`Sm::issue_warp`): the only difference is where the
//! [`StepResult`] comes from. At capture time a [`TraceSink`] observes, per
//! issued warp instruction, exactly the payload the timing model consumes —
//! pc, active mask, and the step outcome (ALU destination, resolved
//! per-lane addresses, branch divergence, barrier id). At replay time the
//! same payloads are fed back as [`ReplayRecord`]s, so the scheduler,
//! scoreboard, coalescer, caches, interconnect, DRAM, sanitizer ledger, and
//! event digest all see byte-identical inputs and therefore produce
//! identical timing, statistics, and digests.
//!
//! Streams are per *warp*: stream `linear_cta * warps_per_cta + warp_in_cta`
//! holds that warp's issued instructions in issue order, where
//! `warps_per_cta = ceil(block.count() / warp_size)`.

use crate::warp::{MemAccess, StepResult};
use crate::{Dim3, TraceEvent};
use gcl_mem::{fnv_fold, FNV_OFFSET};
use gcl_ptx::{Reg, Space};
use std::fmt;
use std::sync::Arc;

/// The step outcome of one issued warp instruction, as recorded at capture
/// and re-injected at replay. Mirrors the executing warp's step result
/// minus anything the timing model does not consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayKind {
    /// Arithmetic/move: schedule a writeback for `dst` on the unit latency.
    Alu {
        /// Register awaiting writeback, if any.
        dst: Option<Reg>,
    },
    /// A memory access with its resolved per-lane addresses.
    Mem {
        /// Space accessed.
        space: Space,
        /// True for stores.
        is_store: bool,
        /// Destination register for loads/atomics.
        dst: Option<Reg>,
        /// Bytes accessed per lane.
        bytes: u32,
        /// Per-lane effective byte addresses `(lane, addr)`, ascending lanes.
        lane_addrs: Vec<(u32, u64)>,
    },
    /// A branch; `diverged` is true when the warp split.
    Branch {
        /// Whether this branch split the warp.
        diverged: bool,
    },
    /// The warp reached named barrier `id`.
    Barrier {
        /// Barrier id.
        id: u32,
    },
    /// Lanes exited.
    Exit,
    /// All lanes predicated off.
    Predicated,
}

impl ReplayKind {
    /// Build the record payload from a successful [`StepResult`].
    /// `at_barrier` is the warp's barrier id after the step (set by a
    /// barrier instruction; the `StepResult` itself does not carry it).
    pub(crate) fn of_step(result: &StepResult, at_barrier: Option<u32>) -> ReplayKind {
        match result {
            StepResult::Alu { dst } => ReplayKind::Alu { dst: *dst },
            StepResult::Mem(a) => ReplayKind::Mem {
                space: a.space,
                is_store: a.is_store,
                dst: a.dst,
                bytes: a.bytes,
                lane_addrs: a.lane_addrs.clone(),
            },
            StepResult::Branch { diverged } => ReplayKind::Branch {
                diverged: *diverged,
            },
            StepResult::Barrier => ReplayKind::Barrier {
                id: at_barrier.unwrap_or(0),
            },
            StepResult::Exit => ReplayKind::Exit,
            StepResult::Predicated => ReplayKind::Predicated,
        }
    }

    fn fold(&self, mut h: u64) -> u64 {
        match self {
            ReplayKind::Alu { dst } => {
                h = fnv_fold(h, 0);
                fnv_fold(h, dst.map_or(0, |d| u64::from(d.0) + 1))
            }
            ReplayKind::Mem {
                space,
                is_store,
                dst,
                bytes,
                lane_addrs,
            } => {
                h = fnv_fold(h, 1);
                h = fnv_fold(h, u64::from(space_code(*space)));
                h = fnv_fold(h, u64::from(*is_store));
                h = fnv_fold(h, dst.map_or(0, |d| u64::from(d.0) + 1));
                h = fnv_fold(h, u64::from(*bytes));
                h = fnv_fold(h, lane_addrs.len() as u64);
                for &(lane, addr) in lane_addrs {
                    h = fnv_fold(h, u64::from(lane));
                    h = fnv_fold(h, addr);
                }
                h
            }
            ReplayKind::Branch { diverged } => {
                h = fnv_fold(h, 2);
                fnv_fold(h, u64::from(*diverged))
            }
            ReplayKind::Barrier { id } => {
                h = fnv_fold(h, 3);
                fnv_fold(h, u64::from(*id))
            }
            ReplayKind::Exit => fnv_fold(h, 4),
            ReplayKind::Predicated => fnv_fold(h, 5),
        }
    }
}

/// Stable one-byte encoding of [`Space`] for trace containers and
/// fingerprints (never reorder: recorded traces depend on it).
pub fn space_code(space: Space) -> u8 {
    match space {
        Space::Global => 0,
        Space::Shared => 1,
        Space::Param => 2,
        Space::Const => 3,
        Space::Local => 4,
        Space::Tex => 5,
    }
}

/// Inverse of [`space_code`].
pub fn space_from_code(code: u8) -> Option<Space> {
    Some(match code {
        0 => Space::Global,
        1 => Space::Shared,
        2 => Space::Param,
        3 => Space::Const,
        4 => Space::Local,
        5 => Space::Tex,
        _ => return None,
    })
}

/// One recorded issued instruction of one warp stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRecord {
    /// Program counter at issue.
    pub pc: u32,
    /// Active-lane mask at issue.
    pub mask: u32,
    /// Step outcome payload.
    pub kind: ReplayKind,
}

/// Identity of a launch as seen by a [`TraceSink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchInfo {
    /// Kernel fingerprint ([`crate::kernel_fingerprint`]).
    pub kernel_fp: u64,
    /// Kernel name (diagnostic; the fingerprint is authoritative).
    pub kernel_name: String,
    /// Grid dimensions.
    pub grid: Dim3,
    /// Block dimensions.
    pub block: Dim3,
    /// Number of warp streams: `grid.count() * warps_per_cta`.
    pub n_streams: u64,
}

/// Observer of the SM issue boundary, attached with
/// [`Gpu::set_trace_sink`](crate::Gpu::set_trace_sink). Receives every
/// issued warp instruction of every launch, bracketed by launch begin/end.
pub trait TraceSink: fmt::Debug + Send {
    /// A launch is starting.
    fn begin_launch(&mut self, info: &LaunchInfo);
    /// One warp instruction issued on stream `stream`.
    fn issue(&mut self, stream: u64, ev: &TraceEvent, kind: &ReplayKind);
    /// The launch completed successfully.
    fn end_launch(&mut self);
    /// The launch was abandoned (fault/hang/timeout); discard its partial
    /// capture. May be called with no launch open (then a no-op).
    fn abort_launch(&mut self) {}
    /// Issue events this sink received and did not keep, reported as
    /// [`LaunchStats::trace_dropped`](crate::LaunchStats::trace_dropped)
    /// when a launch ends. A capture sink keeps everything; only the
    /// bounded [`Trace`](crate::Trace) drops.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Number of warps per CTA for a block geometry.
pub fn warps_per_cta(block: Dim3, warp_size: u32) -> u64 {
    block.count().div_ceil(u64::from(warp_size))
}

/// One launch's worth of replay streams, ready to feed
/// [`Gpu::launch_replay`](crate::Gpu::launch_replay).
#[derive(Debug, Clone)]
pub struct LaunchReplay {
    /// Fingerprint of the kernel the trace was captured from; replay
    /// validates the supplied kernel against it.
    pub kernel_fp: u64,
    /// Grid dimensions of the captured launch.
    pub grid: Dim3,
    /// Block dimensions of the captured launch.
    pub block: Dim3,
    /// Per-warp record streams, indexed
    /// `linear_cta * warps_per_cta + warp_in_cta`.
    pub streams: Vec<Arc<[ReplayRecord]>>,
}

impl LaunchReplay {
    /// Content fingerprint over geometry and every record. Stored in
    /// mid-replay snapshots so a resumed replay rejects a different trace.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv_fold(FNV_OFFSET, self.kernel_fp);
        for v in [
            self.grid.x,
            self.grid.y,
            self.grid.z,
            self.block.x,
            self.block.y,
            self.block.z,
        ] {
            h = fnv_fold(h, u64::from(v));
        }
        h = fnv_fold(h, self.streams.len() as u64);
        for s in &self.streams {
            h = fnv_fold(h, s.len() as u64);
            for r in s.iter() {
                h = fnv_fold(h, u64::from(r.pc));
                h = fnv_fold(h, u64::from(r.mask));
                h = r.kind.fold(h);
            }
        }
        h
    }

    /// Total recorded warp instructions across all streams.
    pub fn n_records(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }
}

/// Why a replay launch was rejected or diverged structurally. The payload
/// of [`SimError::Replay`](crate::SimError::Replay).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The supplied kernel is not the one the trace was captured from.
    KernelMismatch {
        /// Kernel fingerprint recorded in the trace.
        found: u64,
        /// Fingerprint of the kernel supplied at replay.
        expected: u64,
    },
    /// The trace's stream count does not match its launch geometry.
    StreamCount {
        /// Streams present in the trace.
        found: u64,
        /// Streams the geometry requires.
        expected: u64,
    },
    /// A resumed replay was given a different trace than the snapshot's
    /// launch was replaying.
    TraceMismatch {
        /// Fingerprint of the supplied trace.
        found: u64,
        /// Fingerprint recorded in the snapshot.
        expected: u64,
    },
    /// A replay launch restored from a snapshot was stepped before
    /// [`Gpu::launch_replay_resume`](crate::Gpu::launch_replay_resume) gave
    /// it its trace back.
    MissingReplay,
    /// A trace was supplied but the active launch is execution-driven.
    NotReplayLaunch,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::KernelMismatch { found, expected } => write!(
                f,
                "trace was captured from a different kernel \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            ReplayError::StreamCount { found, expected } => write!(
                f,
                "trace has {found} warp streams but its geometry requires {expected}"
            ),
            ReplayError::TraceMismatch { found, expected } => write!(
                f,
                "resumed replay was given a different trace \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            ReplayError::MissingReplay => {
                write!(f, "active launch is a replay but no trace was supplied")
            }
            ReplayError::NotReplayLaunch => {
                write!(
                    f,
                    "a trace was supplied but the active launch is execution-driven"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// An in-memory [`TraceSink`] that keeps every captured launch, convertible
/// into [`LaunchReplay`]s. The zero-dependency capture path used by tests
/// and by anything that replays in-process without a container file.
#[derive(Debug, Default)]
pub struct MemorySink {
    launches: Vec<CapturedLaunch>,
    open: bool,
}

/// One launch captured by [`MemorySink`].
#[derive(Debug)]
pub struct CapturedLaunch {
    /// Launch identity.
    pub info: LaunchInfo,
    /// Per-warp streams (same indexing as [`LaunchReplay::streams`]).
    pub streams: Vec<Vec<ReplayRecord>>,
}

impl CapturedLaunch {
    /// Convert into the replay form.
    pub fn into_replay(self) -> LaunchReplay {
        LaunchReplay {
            kernel_fp: self.info.kernel_fp,
            grid: self.info.grid,
            block: self.info.block,
            streams: self.streams.into_iter().map(Arc::from).collect(),
        }
    }
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The completed captured launches, in launch order.
    pub fn into_launches(self) -> Vec<CapturedLaunch> {
        self.launches
    }

    /// Convert every completed launch into its replay form.
    pub fn into_replays(self) -> Vec<LaunchReplay> {
        self.launches
            .into_iter()
            .map(CapturedLaunch::into_replay)
            .collect()
    }
}

impl TraceSink for MemorySink {
    fn begin_launch(&mut self, info: &LaunchInfo) {
        assert!(!self.open, "begin_launch with a launch already open");
        self.open = true;
        self.launches.push(CapturedLaunch {
            info: info.clone(),
            streams: vec![Vec::new(); info.n_streams as usize],
        });
    }

    fn issue(&mut self, stream: u64, ev: &TraceEvent, kind: &ReplayKind) {
        let launch = self.launches.last_mut().expect("issue without a launch");
        launch.streams[stream as usize].push(ReplayRecord {
            pc: ev.pc,
            mask: ev.active,
            kind: kind.clone(),
        });
    }

    fn end_launch(&mut self) {
        assert!(self.open, "end_launch without a launch open");
        self.open = false;
    }

    fn abort_launch(&mut self) {
        if self.open {
            self.open = false;
            self.launches.pop();
        }
    }
}

/// Forwarding impl so a capture sink can be shared between the GPU and the
/// caller: install a clone of an `Arc<Mutex<sink>>` with
/// [`Gpu::set_trace_sink`](crate::Gpu::set_trace_sink), run, detach, and
/// harvest the capture from the retained clone.
impl<S: TraceSink> TraceSink for std::sync::Arc<std::sync::Mutex<S>> {
    fn begin_launch(&mut self, info: &LaunchInfo) {
        self.lock()
            .expect("trace sink lock poisoned")
            .begin_launch(info);
    }

    fn issue(&mut self, stream: u64, ev: &TraceEvent, kind: &ReplayKind) {
        self.lock()
            .expect("trace sink lock poisoned")
            .issue(stream, ev, kind);
    }

    fn end_launch(&mut self) {
        self.lock().expect("trace sink lock poisoned").end_launch();
    }

    fn abort_launch(&mut self) {
        self.lock()
            .expect("trace sink lock poisoned")
            .abort_launch();
    }

    fn dropped(&self) -> u64 {
        self.lock().expect("trace sink lock poisoned").dropped()
    }
}

/// Rebuild a [`MemAccess`] from a recorded memory payload (replay's input
/// to the LD/ST dispatch path), copying the lane addresses into `buf`.
pub(crate) fn mem_access_of_record(
    pc: u32,
    kind: &ReplayKind,
    mut buf: Vec<(u32, u64)>,
) -> Option<MemAccess> {
    match kind {
        ReplayKind::Mem {
            space,
            is_store,
            dst,
            bytes,
            lane_addrs,
        } => {
            buf.extend_from_slice(lane_addrs);
            Some(MemAccess {
                pc: pc as usize,
                space: *space,
                is_store: *is_store,
                dst: *dst,
                lane_addrs: buf,
                bytes: *bytes,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u32, kind: ReplayKind) -> ReplayRecord {
        ReplayRecord {
            pc,
            mask: 0xF,
            kind,
        }
    }

    #[test]
    fn space_codes_roundtrip() {
        for s in [
            Space::Global,
            Space::Shared,
            Space::Param,
            Space::Const,
            Space::Local,
            Space::Tex,
        ] {
            assert_eq!(space_from_code(space_code(s)), Some(s));
        }
        assert_eq!(space_from_code(6), None);
    }

    #[test]
    fn fingerprint_sensitive_to_content() {
        let base = LaunchReplay {
            kernel_fp: 1,
            grid: Dim3::x(1),
            block: Dim3::x(32),
            streams: vec![Arc::from(vec![
                rec(0, ReplayKind::Alu { dst: Some(Reg(3)) }),
                rec(1, ReplayKind::Exit),
            ])],
        };
        let fp = base.fingerprint();
        assert_eq!(fp, base.clone().fingerprint(), "fingerprint is stable");

        let mut other = base.clone();
        other.kernel_fp = 2;
        assert_ne!(fp, other.fingerprint());

        let mut other = base.clone();
        other.streams = vec![Arc::from(vec![
            rec(0, ReplayKind::Alu { dst: Some(Reg(4)) }),
            rec(1, ReplayKind::Exit),
        ])];
        assert_ne!(fp, other.fingerprint());

        let mut other = base.clone();
        other.block = Dim3::x(64);
        assert_ne!(fp, other.fingerprint());
    }

    #[test]
    fn memory_sink_collects_streams_and_discards_aborts() {
        let info = LaunchInfo {
            kernel_fp: 7,
            kernel_name: "k".into(),
            grid: Dim3::x(1),
            block: Dim3::x(64),
            n_streams: 2,
        };
        let ev = |pc: u32| TraceEvent {
            cycle: 0,
            sm: 0,
            warp_slot: 0,
            cta: 0,
            pc,
            active: 0xF,
        };
        let mut sink = MemorySink::new();
        sink.begin_launch(&info);
        sink.issue(0, &ev(0), &ReplayKind::Exit);
        sink.issue(1, &ev(5), &ReplayKind::Exit);
        sink.end_launch();
        sink.begin_launch(&info);
        sink.issue(0, &ev(9), &ReplayKind::Exit);
        sink.abort_launch();
        // A stray abort with nothing open is a no-op.
        sink.abort_launch();

        let replays = sink.into_replays();
        assert_eq!(replays.len(), 1, "aborted launch discarded");
        assert_eq!(replays[0].streams.len(), 2);
        assert_eq!(replays[0].streams[0][0].pc, 0);
        assert_eq!(replays[0].streams[1][0].pc, 5);
        assert_eq!(replays[0].n_records(), 2);
    }

    #[test]
    fn of_step_maps_every_variant() {
        assert_eq!(
            ReplayKind::of_step(&StepResult::Barrier, Some(3)),
            ReplayKind::Barrier { id: 3 }
        );
        assert_eq!(
            ReplayKind::of_step(&StepResult::Alu { dst: None }, None),
            ReplayKind::Alu { dst: None }
        );
        assert_eq!(
            ReplayKind::of_step(&StepResult::Branch { diverged: true }, None),
            ReplayKind::Branch { diverged: true }
        );
        let m = MemAccess {
            pc: 4,
            space: Space::Global,
            is_store: false,
            dst: Some(Reg(2)),
            lane_addrs: vec![(0, 128), (1, 132)],
            bytes: 4,
        };
        let kind = ReplayKind::of_step(&StepResult::Mem(m.clone()), None);
        let back = mem_access_of_record(4, &kind, Vec::new()).unwrap();
        assert_eq!(back, m);
        assert_eq!(mem_access_of_record(0, &ReplayKind::Exit, Vec::new()), None);
    }
}
