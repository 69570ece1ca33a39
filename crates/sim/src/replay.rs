//! Trace-driven replay: the shared issue-event schema, the capture sink at
//! the SM issue boundary, the column codec every recorded stream is held
//! in, and the per-launch replay streams that feed the timing model without
//! functional execution.
//!
//! ## Capture / replay contract
//!
//! Execution-driven simulation and replay share one issue path
//! (`Sm::issue_warp`) and one step outcome: the warp's step, the sink and
//! the replay cursor all produce a [`ReplayKind`]. At capture time a
//! [`TraceSink`] observes, per issued warp instruction, exactly the payload
//! the timing model consumes — pc, active mask, and the step outcome (ALU
//! destination, resolved per-lane addresses, branch divergence, barrier
//! id). At replay time the cursor decodes the same outcome, so the
//! scheduler, scoreboard, coalescer, caches, interconnect, DRAM, sanitizer
//! ledger, and event digest all see byte-identical inputs and therefore
//! produce identical timing, statistics, and digests.
//!
//! Streams are per *warp*: stream `linear_cta * warps_per_cta + warp_in_cta`
//! holds that warp's issued instructions in issue order, where
//! `warps_per_cta = ceil(block.count() / warp_size)`.
//!
//! A stream exists in memory only encoded, as the `GCLTRACE` container's
//! stream block (layout in `gcl-trace`'s crate docs): capture appends to a
//! [`ColBufs`], and a replaying warp decodes one record per issue from a
//! [`ReplayStream`], so no decoded record outlives its step.

use crate::{Dim3, TraceEvent};
use gcl_mem::{fnv_fold, Dec, Enc, Wire, WireError, FNV_OFFSET};
use gcl_ptx::{Reg, Space};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The outcome of one issued warp instruction: what the warp's step
/// produces, what a [`TraceSink`] records, and what replay decodes. It
/// carries only what the timing model consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayKind {
    /// Arithmetic/move: schedule a writeback for `dst` on the unit latency.
    Alu {
        /// Register awaiting writeback, if any.
        dst: Option<Reg>,
    },
    /// A memory access for the LD/ST unit.
    Mem(MemAccess),
    /// A branch; `diverged` is true when the warp split.
    Branch {
        /// Whether this branch split the warp.
        diverged: bool,
    },
    /// The warp reached named barrier `id`; the SM holds it until release.
    Barrier {
        /// Barrier id.
        id: u32,
    },
    /// Lanes exited (possibly retiring the warp).
    Exit,
    /// All lanes predicated off.
    Predicated,
}

/// A memory access of one warp instruction, with its resolved per-lane
/// addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemAccess {
    /// Space accessed.
    pub space: Space,
    /// True for stores.
    pub is_store: bool,
    /// Destination register for loads/atomics (already written functionally;
    /// the LD/ST unit releases its scoreboard entry on completion).
    pub dst: Option<Reg>,
    /// Bytes accessed per lane.
    pub bytes: u32,
    /// Per-lane effective byte addresses `(lane, addr)`, ascending lanes.
    pub lane_addrs: Vec<(u32, u64)>,
}

impl ReplayKind {
    /// The kind's tag, in a stream's tag column and in fingerprints.
    fn tag(&self) -> u8 {
        match self {
            ReplayKind::Alu { .. } => TAG_ALU,
            ReplayKind::Mem(_) => TAG_MEM,
            ReplayKind::Branch { .. } => TAG_BRANCH,
            ReplayKind::Barrier { .. } => TAG_BARRIER,
            ReplayKind::Exit => TAG_EXIT,
            ReplayKind::Predicated => TAG_PREDICATED,
        }
    }

    fn fold(&self, h: u64) -> u64 {
        let mut h = fnv_fold(h, u64::from(self.tag()));
        match self {
            ReplayKind::Alu { dst } => fnv_fold(h, dst.map_or(0, |d| u64::from(d.0) + 1)),
            ReplayKind::Mem(MemAccess {
                space,
                is_store,
                dst,
                bytes,
                lane_addrs,
            }) => {
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
            ReplayKind::Branch { diverged } => fnv_fold(h, u64::from(*diverged)),
            ReplayKind::Barrier { id } => fnv_fold(h, u64::from(*id)),
            ReplayKind::Exit | ReplayKind::Predicated => h,
        }
    }
}

/// Memory spaces in the order of their one-byte code in trace containers
/// and fingerprints. Never reorder: recorded traces depend on it.
const SPACES: [Space; 6] = [
    Space::Global,
    Space::Shared,
    Space::Param,
    Space::Const,
    Space::Local,
    Space::Tex,
];

fn space_code(space: Space) -> u8 {
    SPACES
        .iter()
        .position(|&s| s == space)
        .expect("every space has a code") as u8
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

/// Kind tags of the tag column and of fingerprints. Never reorder:
/// recorded traces and snapshots depend on them.
const TAG_ALU: u8 = 0;
const TAG_MEM: u8 = 1;
const TAG_BRANCH: u8 = 2;
const TAG_BARRIER: u8 = 3;
const TAG_EXIT: u8 = 4;
const TAG_PREDICATED: u8 = 5;

/// Column indices of a stream block, in block order.
const PC: usize = 0;
const MASK: usize = 1;
const TAG: usize = 2;
const PAYLOAD: usize = 3;

/// Why decoding a [`ReplayStream`] cannot fail: building one decodes it.
const VALIDATED: &str = "replay streams are validated when built";

/// Per-stream delta predictors.
#[derive(Debug, Clone, Copy, Default)]
struct ColState {
    prev_pc: i64,
    prev_addr: i64,
}

/// One warp stream's columns as capture appends to them, with the
/// predictors the next record is encoded against.
#[derive(Debug, Default)]
pub struct ColBufs {
    n: u64,
    pc: Enc,
    mask: Enc,
    tag: Enc,
    payload: Enc,
    st: ColState,
}

fn enc_reg(e: &mut Enc, dst: Option<Reg>) {
    e.varint(dst.map_or(0, |r| u64::from(r.0) + 1));
}

fn dec_reg(d: &mut Dec<'_>) -> Result<Option<Reg>, WireError> {
    let v = d.varint()?;
    if v == 0 {
        return Ok(None);
    }
    let idx = u32::try_from(v - 1).map_err(|_| WireError::Malformed("register index overflow"))?;
    Ok(Some(Reg(idx)))
}

impl ColBufs {
    /// Append one record, advancing the predictors.
    pub fn encode_record(&mut self, pc: u32, mask: u32, kind: &ReplayKind) {
        self.n += 1;
        self.pc.svarint(i64::from(pc) - self.st.prev_pc);
        self.st.prev_pc = i64::from(pc);
        self.mask.varint(u64::from(mask));
        self.tag.u8(kind.tag());
        match kind {
            ReplayKind::Alu { dst } => enc_reg(&mut self.payload, *dst),
            ReplayKind::Mem(MemAccess {
                space,
                is_store,
                dst,
                bytes,
                lane_addrs,
            }) => {
                let p = &mut self.payload;
                p.u8(space_code(*space));
                p.bool(*is_store);
                enc_reg(p, *dst);
                p.varint(u64::from(*bytes));
                p.varint(lane_addrs.len() as u64);
                let mut prev_lane: i64 = -1;
                for &(lane, addr) in lane_addrs {
                    // Lanes are strictly ascending, so `delta - 1` keeps
                    // consecutive lanes at zero.
                    p.varint((i64::from(lane) - prev_lane - 1) as u64);
                    prev_lane = i64::from(lane);
                    p.svarint((addr as i64).wrapping_sub(self.st.prev_addr));
                    self.st.prev_addr = addr as i64;
                }
            }
            ReplayKind::Branch { diverged } => self.payload.bool(*diverged),
            ReplayKind::Barrier { id } => self.payload.varint(u64::from(*id)),
            ReplayKind::Exit | ReplayKind::Predicated => {}
        }
    }

    /// Append the stream block: the record count, then the four columns,
    /// each length-prefixed.
    fn write_block(self, e: &mut Enc) {
        e.varint(self.n);
        for col in [self.pc, self.mask, self.tag, self.payload] {
            e.bytes(&col.into_bytes());
        }
    }
}

/// Decode one record's kind from the payload column. A memory record's
/// lanes go into `lanes`'s allocation, which the record then owns, or are
/// checked and dropped when `lanes` is `None`.
fn decode_kind(
    tag: u8,
    d: &mut Dec<'_>,
    st: &mut ColState,
    mut lanes: Option<&mut Vec<(u32, u64)>>,
) -> Result<ReplayKind, WireError> {
    Ok(match tag {
        TAG_ALU => ReplayKind::Alu { dst: dec_reg(d)? },
        TAG_MEM => {
            let space = *SPACES
                .get(usize::from(d.u8()?))
                .ok_or(WireError::Malformed("memory space code"))?;
            let is_store = d.bool()?;
            let dst = dec_reg(d)?;
            let bytes =
                u32::try_from(d.varint()?).map_err(|_| WireError::Malformed("access width"))?;
            let n_lanes = d.varint()?;
            if n_lanes > 64 {
                return Err(WireError::Malformed("lane count"));
            }
            if let Some(v) = lanes.as_deref_mut() {
                v.clear();
            }
            let mut next_lane = 0u64;
            for _ in 0..n_lanes {
                let lane = u32::try_from(next_lane.saturating_add(d.varint()?))
                    .map_err(|_| WireError::Malformed("lane id out of range"))?;
                next_lane = u64::from(lane) + 1;
                st.prev_addr = st.prev_addr.wrapping_add(d.svarint()?);
                if let Some(v) = lanes.as_deref_mut() {
                    v.push((lane, st.prev_addr as u64));
                }
            }
            let lane_addrs = lanes.map(std::mem::take).unwrap_or_default();
            ReplayKind::Mem(MemAccess {
                space,
                is_store,
                dst,
                bytes,
                lane_addrs,
            })
        }
        TAG_BRANCH => ReplayKind::Branch {
            diverged: d.bool()?,
        },
        TAG_BARRIER => ReplayKind::Barrier {
            id: u32::try_from(d.varint()?).map_err(|_| WireError::Malformed("barrier id"))?,
        },
        TAG_EXIT => ReplayKind::Exit,
        TAG_PREDICATED => ReplayKind::Predicated,
        _ => return Err(WireError::Malformed("record kind tag")),
    })
}

/// One warp's recorded stream, held encoded: its record count and the
/// ranges of its four columns within shared bytes (a trace container, or
/// the blocks a [`MemorySink`] wrote). Only
/// [`LaunchReplay::read_launch`] builds one, after decoding every record,
/// so replay decodes it without checks.
#[derive(Debug, Clone)]
pub struct ReplayStream {
    bytes: Arc<[u8]>,
    n: usize,
    cols: [Range<usize>; 4],
}

impl ReplayStream {
    /// Read one stream block from `d`, which reads `bytes`, decoding every
    /// record and keeping none: a bad tag or value, a tag column whose
    /// length is not the record count, or a column with bytes left over is
    /// an error.
    fn read_block(bytes: &Arc<[u8]>, d: &mut Dec<'_>) -> Result<ReplayStream, WireError> {
        let n = usize::try_from(d.varint()?)
            .map_err(|_| WireError::Malformed("stream record count"))?;
        let cols = [d.bytes()?, d.bytes()?, d.bytes()?, d.bytes()?].map(|col| {
            let start = col.as_ptr().addr().wrapping_sub(bytes.as_ptr().addr());
            let room = bytes.len().checked_sub(col.len());
            assert!(room.is_some_and(|r| start <= r), "column outside its bytes");
            start..start + col.len()
        });
        if cols[TAG].len() != n {
            return Err(WireError::Malformed("tag column length"));
        }
        let bytes = Arc::clone(bytes);
        let mut r = StreamReader::start(ReplayStream { bytes, n, cols })?;
        while r.head.is_some() {
            r.decode(None)?;
        }
        if (0..4).any(|c| r.off[c] != r.stream.cols[c].len()) {
            return Err(WireError::Malformed("trailing bytes in stream column"));
        }
        Ok(r.stream)
    }

    /// Records in the stream.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// The records, decoded one at a time as the iterator advances.
    pub fn records(&self) -> impl Iterator<Item = ReplayRecord> + '_ {
        let mut r = StreamReader::seek(self.clone(), 0);
        std::iter::from_fn(move || r.head.is_some().then(|| r.next(&mut Vec::new())))
    }
}

/// A read position in a [`ReplayStream`]: the bytes consumed of each
/// column (of the tag column, the records consumed), the predictors, and
/// the next record's `(pc, mask)`, decoded ahead so the scheduler can read
/// them before the record issues.
#[derive(Debug, Clone)]
pub(crate) struct StreamReader {
    stream: ReplayStream,
    off: [usize; 4],
    st: ColState,
    head: Option<(u32, u32)>,
}

impl StreamReader {
    /// A reader at the first record; fails only on a stream not yet
    /// validated.
    fn start(stream: ReplayStream) -> Result<StreamReader, WireError> {
        let (off, st) = ([0; 4], ColState::default());
        let mut r = StreamReader {
            stream,
            off,
            st,
            head: None,
        };
        r.peek()?;
        Ok(r)
    }

    /// A reader at record `pos`, reached by decoding the records before it
    /// (a cursor restored from a snapshot keeps only its position).
    pub(crate) fn seek(stream: ReplayStream, pos: usize) -> StreamReader {
        let mut r = StreamReader::start(stream).expect(VALIDATED);
        for _ in 0..pos {
            r.decode(None).expect(VALIDATED);
        }
        r
    }

    /// The next record's `(pc, mask)`; `None` once the stream is exhausted.
    pub(crate) fn head(&self) -> Option<(u32, u32)> {
        self.head
    }

    /// Decode with `f` from column `c` at its offset, advancing the offset.
    fn read<T>(
        &mut self,
        c: usize,
        f: impl FnOnce(&mut Dec<'_>, &mut ColState) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let rest =
            &self.stream.bytes[self.stream.cols[c].start + self.off[c]..self.stream.cols[c].end];
        let mut d = Dec::new(rest);
        let v = f(&mut d, &mut self.st)?;
        self.off[c] += rest.len() - d.remaining();
        Ok(v)
    }

    /// Decode the next record's pc and mask into `head`.
    fn peek(&mut self) -> Result<(), WireError> {
        self.head = None;
        if self.off[TAG] < self.stream.n {
            const PC_RANGE: WireError = WireError::Malformed("pc delta out of range");
            let pc = self.read(PC, |d, st| {
                st.prev_pc = st.prev_pc.checked_add(d.svarint()?).ok_or(PC_RANGE)?;
                u32::try_from(st.prev_pc).map_err(|_| PC_RANGE)
            })?;
            let mask = self.read(MASK, |d, _| {
                u32::try_from(d.varint()?).map_err(|_| WireError::Malformed("mask out of range"))
            })?;
            self.head = Some((pc, mask));
        }
        Ok(())
    }

    /// Consume the next record (see [`decode_kind`] for `lanes`).
    fn decode(&mut self, lanes: Option<&mut Vec<(u32, u64)>>) -> Result<ReplayRecord, WireError> {
        let (pc, mask) = self.head.expect("decode past the end of a replay stream");
        let tag = self.read(TAG, |d, _| d.u8())?;
        let kind = self.read(PAYLOAD, |d, st| decode_kind(tag, d, st, lanes))?;
        self.peek()?;
        Ok(ReplayRecord { pc, mask, kind })
    }

    /// Consume the next record, decoding its lane addresses into `lanes`'s
    /// allocation.
    pub(crate) fn next(&mut self, lanes: &mut Vec<(u32, u64)>) -> ReplayRecord {
        self.decode(Some(lanes)).expect(VALIDATED)
    }
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

// The header of a trace container's launch section, before its stream
// blocks.
gcl_mem::declare_wire! { LaunchInfo { kernel_fp, kernel_name, grid, block, n_streams } }

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
    pub streams: Vec<ReplayStream>,
}

/// Write a trace container's launch section: `info`, then each stream's
/// block. Returns the records written.
pub fn write_launch(info: &LaunchInfo, streams: Vec<ColBufs>, e: &mut Enc) -> u64 {
    info.put(e);
    let records = streams.iter().map(|s| s.n).sum();
    streams.into_iter().for_each(|s| s.write_block(e));
    records
}

impl LaunchReplay {
    /// Read a launch section written by [`write_launch`] from `payload`,
    /// which lies within `bytes`, decoding every record and keeping none:
    /// the streams are handles into `bytes`. Returns the kernel name too.
    ///
    /// # Errors
    ///
    /// [`WireError`] for a section that is truncated or malformed anywhere.
    pub fn read_launch(
        bytes: &Arc<[u8]>,
        payload: &[u8],
    ) -> Result<(String, LaunchReplay), WireError> {
        let mut d = Dec::new(payload);
        let info = LaunchInfo::get(&mut d)?;
        let n =
            usize::try_from(info.n_streams).map_err(|_| WireError::Malformed("stream count"))?;
        // A stream block takes at least 33 bytes (a one-byte record count
        // and four 8-byte column lengths): bound the count before allocating.
        if n > d.remaining() / 33 {
            return Err(WireError::Malformed("stream count exceeds payload"));
        }
        let streams = (0..n)
            .map(|_| ReplayStream::read_block(bytes, &mut d))
            .collect::<Result<_, _>>()?;
        if !d.is_done() {
            return Err(WireError::Malformed("trailing bytes in launch payload"));
        }
        let (kernel_fp, grid, block) = (info.kernel_fp, info.grid, info.block);
        let replay = LaunchReplay {
            kernel_fp,
            grid,
            block,
            streams,
        };
        Ok((info.kernel_name, replay))
    }

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
            for r in s.records() {
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

/// An in-memory [`TraceSink`] that keeps every captured launch,
/// convertible into [`LaunchReplay`]s. The zero-dependency capture path used
/// by tests and by anything that replays in-process without a container
/// file. It encodes through the container's column codec, so it holds the
/// stream blocks a container of the same launches would.
#[derive(Debug, Default)]
pub struct MemorySink {
    launches: Vec<LaunchReplay>,
    open: Option<(LaunchInfo, Vec<ColBufs>)>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Every completed launch in its replay form, in launch order.
    pub fn into_replays(self) -> Vec<LaunchReplay> {
        self.launches
    }
}

impl TraceSink for MemorySink {
    fn begin_launch(&mut self, info: &LaunchInfo) {
        assert!(
            self.open.is_none(),
            "begin_launch with a launch already open"
        );
        let n = usize::try_from(info.n_streams).expect("stream count");
        let streams = (0..n).map(|_| ColBufs::default()).collect();
        self.open = Some((info.clone(), streams));
    }

    fn issue(&mut self, stream: u64, ev: &TraceEvent, kind: &ReplayKind) {
        let (_, streams) = self.open.as_mut().expect("issue without a launch");
        streams[stream as usize].encode_record(ev.pc, ev.active, kind);
    }

    fn end_launch(&mut self) {
        let (info, streams) = self.open.take().expect("end_launch without a launch open");
        let mut e = Enc::new();
        write_launch(&info, streams, &mut e);
        let bytes: Arc<[u8]> = e.into_bytes().into();
        let (_, replay) = LaunchReplay::read_launch(&bytes, &bytes).expect(VALIDATED);
        self.launches.push(replay);
    }

    fn abort_launch(&mut self) {
        self.open = None;
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

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_rng::Rng;

    fn rec(pc: u32, kind: ReplayKind) -> ReplayRecord {
        ReplayRecord {
            pc,
            mask: 0xF,
            kind,
        }
    }

    /// The materialising decoder replay used before streams stayed
    /// encoded: every record of a stream at once, each memory record with
    /// its own lane vector. Kept as the oracle the lazy reader must match.
    fn oracle_decode(
        n: u64,
        pc_col: &[u8],
        mask_col: &[u8],
        tag_col: &[u8],
        payload_col: &[u8],
    ) -> Result<Vec<ReplayRecord>, WireError> {
        let n = usize::try_from(n).map_err(|_| WireError::Malformed("stream record count"))?;
        if tag_col.len() != n {
            return Err(WireError::Malformed("tag column length"));
        }
        let mut pcs = Dec::new(pc_col);
        let mut masks = Dec::new(mask_col);
        let mut payloads = Dec::new(payload_col);
        let mut st = ColState::default();
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for &tag in tag_col {
            let pc_v = st.prev_pc + pcs.svarint()?;
            let pc =
                u32::try_from(pc_v).map_err(|_| WireError::Malformed("pc delta out of range"))?;
            st.prev_pc = pc_v;
            let mask_v = masks.varint()?;
            let mask =
                u32::try_from(mask_v).map_err(|_| WireError::Malformed("mask out of range"))?;
            let kind = match tag {
                TAG_ALU => ReplayKind::Alu {
                    dst: dec_reg(&mut payloads)?,
                },
                TAG_MEM => {
                    let space = SPACES
                        .get(usize::from(payloads.u8()?))
                        .copied()
                        .ok_or(WireError::Malformed("memory space code"))?;
                    let is_store = payloads.bool()?;
                    let dst = dec_reg(&mut payloads)?;
                    let bytes = u32::try_from(payloads.varint()?)
                        .map_err(|_| WireError::Malformed("access width"))?;
                    let n_lanes = payloads.varint()?;
                    if n_lanes > 64 {
                        return Err(WireError::Malformed("lane count"));
                    }
                    let mut lane_addrs = Vec::with_capacity(n_lanes as usize);
                    let mut prev_lane: i64 = -1;
                    for _ in 0..n_lanes {
                        let lane_v = prev_lane + 1 + payloads.varint()? as i64;
                        let lane = u32::try_from(lane_v)
                            .map_err(|_| WireError::Malformed("lane id out of range"))?;
                        prev_lane = lane_v;
                        let addr = st.prev_addr.wrapping_add(payloads.svarint()?);
                        st.prev_addr = addr;
                        lane_addrs.push((lane, addr as u64));
                    }
                    ReplayKind::Mem(MemAccess {
                        space,
                        is_store,
                        dst,
                        bytes,
                        lane_addrs,
                    })
                }
                TAG_BRANCH => ReplayKind::Branch {
                    diverged: payloads.bool()?,
                },
                TAG_BARRIER => ReplayKind::Barrier {
                    id: u32::try_from(payloads.varint()?)
                        .map_err(|_| WireError::Malformed("barrier id"))?,
                },
                TAG_EXIT => ReplayKind::Exit,
                TAG_PREDICATED => ReplayKind::Predicated,
                _ => return Err(WireError::Malformed("record kind tag")),
            };
            out.push(ReplayRecord { pc, mask, kind });
        }
        if !pcs.is_done() || !masks.is_done() || !payloads.is_done() {
            return Err(WireError::Malformed("trailing bytes in stream column"));
        }
        Ok(out)
    }

    /// The fingerprint fold over materialised streams, as it was.
    fn oracle_fingerprint(rep: &LaunchReplay, streams: &[Vec<ReplayRecord>]) -> u64 {
        let mut h = fnv_fold(FNV_OFFSET, rep.kernel_fp);
        for v in [
            rep.grid.x,
            rep.grid.y,
            rep.grid.z,
            rep.block.x,
            rep.block.y,
            rep.block.z,
        ] {
            h = fnv_fold(h, u64::from(v));
        }
        h = fnv_fold(h, streams.len() as u64);
        for s in streams {
            h = fnv_fold(h, s.len() as u64);
            for r in s {
                h = fnv_fold(h, u64::from(r.pc));
                h = fnv_fold(h, u64::from(r.mask));
                h = r.kind.fold(h);
            }
        }
        h
    }

    /// A stream block from raw columns.
    fn block(n: u64, cols: [&[u8]; 4]) -> Vec<u8> {
        let mut e = Enc::new();
        e.varint(n);
        for c in cols {
            e.bytes(c);
        }
        e.into_bytes()
    }

    fn read_one(bytes: Vec<u8>) -> Result<ReplayStream, WireError> {
        let bytes: Arc<[u8]> = bytes.into();
        ReplayStream::read_block(&bytes, &mut Dec::new(&bytes))
    }

    /// `records` as a stream of their own.
    fn stream_of(records: &[ReplayRecord]) -> ReplayStream {
        let (n, cols) = columns(records);
        let [pc, mask, tag, payload] = &cols;
        read_one(block(n, [pc, mask, tag, payload])).unwrap()
    }

    /// The four columns of `recs`, encoded.
    fn columns(recs: &[ReplayRecord]) -> (u64, [Vec<u8>; 4]) {
        let mut bufs = ColBufs::default();
        for r in recs {
            bufs.encode_record(r.pc, r.mask, &r.kind);
        }
        let cols = [bufs.pc, bufs.mask, bufs.tag, bufs.payload].map(Enc::into_bytes);
        (bufs.n, cols)
    }

    fn random_reg(rng: &mut Rng) -> Option<Reg> {
        match rng.u32_below(4) {
            0 => None,
            1 => Some(Reg(u32::MAX - 1)),
            _ => Some(Reg(rng.u32_below(256))),
        }
    }

    /// A seeded random stream: every kind, 0–64 lanes per memory record,
    /// pcs jumping both ways, and addresses that run sequentially, jump
    /// anywhere, or sit at either end of the address space so the
    /// predictor's deltas wrap.
    fn random_stream(rng: &mut Rng) -> Vec<ReplayRecord> {
        let spaces = [
            Space::Global,
            Space::Shared,
            Space::Param,
            Space::Const,
            Space::Local,
            Space::Tex,
        ];
        let mut addr = 0u64;
        (0..rng.usize_below(48))
            .map(|_| {
                let kind = match rng.u32_below(6) {
                    0 => ReplayKind::Alu {
                        dst: random_reg(rng),
                    },
                    1 => {
                        let n_lanes = rng.u32_below(65);
                        let stride = [1, 4, 1 << 20][rng.usize_below(3)];
                        let mut lane = rng.u32_below(8);
                        let lane_addrs = (0..n_lanes)
                            .map(|i| {
                                if i > 0 {
                                    lane += 1 + rng.u32_below(stride);
                                }
                                addr = match rng.u32_below(4) {
                                    0 => rng.next_u64(),
                                    1 => u64::MAX - rng.u64_below(64),
                                    2 => rng.u64_below(64),
                                    _ => addr.wrapping_add(4),
                                };
                                (lane, addr)
                            })
                            .collect();
                        ReplayKind::Mem(MemAccess {
                            space: *rng.pick(&spaces),
                            is_store: rng.chance(0.5),
                            dst: random_reg(rng),
                            bytes: [1, 4, 8, 16, u32::MAX][rng.usize_below(5)],
                            lane_addrs,
                        })
                    }
                    2 => ReplayKind::Branch {
                        diverged: rng.chance(0.5),
                    },
                    3 => ReplayKind::Barrier { id: rng.next_u32() },
                    4 => ReplayKind::Exit,
                    _ => ReplayKind::Predicated,
                };
                let pc = if rng.chance(0.1) {
                    u32::MAX - rng.u32_below(4)
                } else {
                    rng.u32_below(4096)
                };
                ReplayRecord {
                    pc,
                    mask: rng.next_u32(),
                    kind,
                }
            })
            .collect()
    }

    /// The lazy reader yields exactly what the materialising decoder did,
    /// the fingerprint folds to the old value, and a reader re-seeked at
    /// every position continues identically.
    #[test]
    fn lazy_reader_matches_the_materialising_oracle() {
        gcl_rng::cases(0x5eed_c0de, 96, |rng| {
            let streams: Vec<Vec<ReplayRecord>> = (0..1 + rng.usize_below(4))
                .map(|_| random_stream(rng))
                .collect();
            for recs in &streams {
                let (n, cols) = columns(recs);
                let [pc, mask, tag, payload] = &cols;
                let oracle = oracle_decode(n, pc, mask, tag, payload).unwrap();
                assert_eq!(&oracle, recs, "oracle round trip");
                let stream = read_one(block(n, [pc, mask, tag, payload])).unwrap();
                assert_eq!(stream.len(), oracle.len());
                assert_eq!(stream.records().collect::<Vec<_>>(), oracle);
                // One lane buffer reused across records, as a warp does.
                let mut r = StreamReader::seek(stream.clone(), 0);
                let mut lanes = Vec::new();
                for want in &oracle {
                    assert_eq!(r.head(), Some((want.pc, want.mask)));
                    let got = r.next(&mut lanes);
                    assert_eq!(&got, want);
                    if let ReplayKind::Mem(m) = got.kind {
                        lanes = m.lane_addrs;
                    }
                }
                assert_eq!(r.head(), None);
                for pos in 0..=oracle.len() {
                    let rest: Vec<_> = {
                        let mut r = StreamReader::seek(stream.clone(), pos);
                        std::iter::from_fn(|| r.head().map(|_| r.next(&mut Vec::new()))).collect()
                    };
                    assert_eq!(rest, oracle[pos..], "continuation from {pos}");
                }
            }
            let rep = LaunchReplay {
                kernel_fp: rng.next_u64(),
                grid: Dim3::x(1 + rng.u32_below(8)),
                block: Dim3::x(32),
                streams: streams.iter().map(|s| stream_of(s)).collect(),
            };
            assert_eq!(rep.fingerprint(), oracle_fingerprint(&rep, &streams));
            assert_eq!(
                rep.n_records(),
                streams.iter().map(|s| s.len() as u64).sum::<u64>()
            );
        });
    }

    #[test]
    fn space_codes_roundtrip() {
        let codes = [
            (Space::Global, 0),
            (Space::Shared, 1),
            (Space::Param, 2),
            (Space::Const, 3),
            (Space::Local, 4),
            (Space::Tex, 5),
        ];
        for (space, code) in codes {
            assert_eq!(
                (space_code(space), SPACES[usize::from(code)]),
                (code, space)
            );
        }
    }

    #[test]
    fn roundtrips_every_kind() {
        let recs = vec![
            ReplayRecord {
                pc: 0,
                mask: 0xFFFF_FFFF,
                kind: ReplayKind::Alu { dst: Some(Reg(7)) },
            },
            ReplayRecord {
                pc: 1,
                mask: 0xFFFF_FFFF,
                kind: ReplayKind::Mem(MemAccess {
                    space: Space::Global,
                    is_store: false,
                    dst: Some(Reg(2)),
                    bytes: 4,
                    lane_addrs: vec![(0, 0x1000), (1, 0x1004), (5, 0x0800)],
                }),
            },
            rec(2, ReplayKind::Branch { diverged: true }),
            rec(0, ReplayKind::Barrier { id: 9 }),
            rec(3, ReplayKind::Predicated),
            rec(
                4,
                ReplayKind::Mem(MemAccess {
                    space: Space::Shared,
                    is_store: true,
                    dst: None,
                    bytes: 8,
                    lane_addrs: vec![(31, 0)],
                }),
            ),
            rec(5, ReplayKind::Exit),
        ];
        assert_eq!(stream_of(&recs).records().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn sequential_addresses_compress_to_bytes() {
        let recs: Vec<ReplayRecord> = (0..64u32)
            .map(|i| ReplayRecord {
                pc: 10,
                mask: 0xFFFF_FFFF,
                kind: ReplayKind::Mem(MemAccess {
                    space: Space::Global,
                    is_store: false,
                    dst: Some(Reg(1)),
                    bytes: 4,
                    lane_addrs: (0..32)
                        .map(|l| (l, u64::from(i) * 128 + u64::from(l) * 4))
                        .collect(),
                }),
            })
            .collect();
        let (_, cols) = columns(&recs);
        let bytes: usize = cols.iter().map(Vec::len).sum();
        // 64 records × 32 lanes of raw (u32, u64) would be 24 KiB; the
        // delta columns land far below that.
        assert!(bytes < 6 * 1024, "columns too large: {bytes} bytes");
        let stream = stream_of(&recs);
        assert_eq!(stream.records().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn corrupt_columns_rejected() {
        let (n, cols) = columns(&[rec(1, ReplayKind::Alu { dst: None })]);
        let [pc, mask, tag, payload] = &cols;
        assert!(read_one(block(n, [pc, mask, tag, payload])).is_ok());
        // Wrong tag count.
        assert!(read_one(block(2, [pc, mask, tag, payload])).is_err());
        // Unknown tag.
        assert!(read_one(block(1, [pc, mask, &[9], payload])).is_err());
        // Trailing payload bytes.
        let mut fat = payload.clone();
        fat.push(0);
        assert!(read_one(block(1, [pc, mask, tag, &fat])).is_err());
        // Truncated pc column.
        assert!(read_one(block(1, [&[], mask, tag, payload])).is_err());
        // A pc delta past the predictor's range, and a lane id past u32.
        let mut huge = Enc::new();
        huge.svarint(i64::MAX);
        assert!(read_one(block(1, [&huge.into_bytes(), mask, tag, payload])).is_err());
        let mut lanes = Enc::new();
        lanes.u8(0);
        lanes.bool(false);
        lanes.varint(0);
        lanes.varint(4);
        lanes.varint(2);
        lanes.varint(u64::from(u32::MAX));
        lanes.svarint(0);
        lanes.varint(0);
        lanes.svarint(0);
        let lanes = lanes.into_bytes();
        assert!(read_one(block(1, [pc, mask, &[TAG_MEM], &lanes])).is_err());
    }

    #[test]
    fn fingerprint_sensitive_to_content() {
        let base = LaunchReplay {
            kernel_fp: 1,
            grid: Dim3::x(1),
            block: Dim3::x(32),
            streams: vec![stream_of(&[
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
        other.streams = vec![stream_of(&[
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
        assert_eq!(
            replays[0].streams[0].records().next().unwrap(),
            rec(0, ReplayKind::Exit)
        );
        assert_eq!(
            replays[0].streams[1].records().next().unwrap(),
            rec(5, ReplayKind::Exit)
        );
        assert_eq!(replays[0].n_records(), 2);
    }
}
