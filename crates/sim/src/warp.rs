//! Warp state and functional execution of the PTX subset.
//!
//! The simulator is *execution-driven*: when an instruction issues, its
//! architectural effects (register writes, memory reads/writes, atomics)
//! happen immediately and exactly, while the *timing* of result availability
//! is modeled separately (scoreboard + writeback events + the memory
//! hierarchy). Intra-warp dependences are ordered by the scoreboard;
//! inter-warp communication is ordered by barriers and kernel relaunches,
//! matching the synchronization the workloads actually use.

use crate::decode::{for_lanes, DecodedKernel, Kind, Lanes, Map, Src, MAX_LANES};
use crate::fault::{AccessKind, MemViolation};
use crate::replay::{MemAccess, ReplayKind, StreamReader};
use crate::simt::SimtStack;
use crate::{Dim3, GlobalMem};
use gcl_mem::WireError;
use gcl_ptx::{Address, Guard, Reg, Space, Special, Type};

/// Execution context shared by the warps of one CTA during one step.
pub(crate) struct ExecCtx<'a> {
    /// The running kernel, decoded for this launch.
    pub decoded: &'a DecodedKernel,
    /// The launch's parameter block.
    pub params: &'a [u8],
    /// Device global memory.
    pub gmem: &'a mut GlobalMem,
    /// This CTA's shared memory.
    pub smem: &'a mut [u8],
    /// Validate global-backed accesses against the allocation table and
    /// fail with [`MemViolation`] on the first out-of-bounds lane.
    pub memcheck: bool,
    /// Spare buffer a memory instruction's [`MemAccess::lane_addrs`] is
    /// built in; hand a finished access's vector back here and its
    /// allocation is reused.
    pub lane_buf: &'a mut Vec<(u32, u64)>,
}

/// Whether memcheck polices `space`: the global-backed spaces whose
/// addresses come from `cudaMalloc`-style allocations. Param, const, and
/// shared accesses are bounds-checked against their own regions already.
fn memchecked_space(space: Space) -> bool {
    matches!(space, Space::Global | Space::Local | Space::Tex)
}

/// One warp's architectural state.
#[derive(Debug)]
pub(crate) struct Warp {
    /// Warp index within the SM (slot id).
    pub slot: usize,
    /// Resident-CTA slot this warp belongs to.
    pub cta_slot: usize,
    /// Linearized CTA id (for locality tracking).
    pub linear_cta: u64,
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
    /// SIMT divergence stack.
    pub stack: SimtStack,
    /// Lanes that have executed `exit`.
    pub exited: u32,
    /// Lanes that exist (tail warps of odd-sized CTAs have fewer).
    pub valid: u32,
    /// Register file: `num_regs × warp_size`, indexed `reg * warp_size + lane`.
    regs: Vec<u64>,
    /// Per-lane thread coordinates.
    lane_tid: Vec<(u32, u32, u32)>,
    /// CTA coordinates.
    ctaid: (u32, u32, u32),
    /// The named barrier this warp is waiting at, if any.
    pub at_barrier: Option<u32>,
    warp_size: u32,
    /// Replay cursor: when set, this warp is timing-replayed from a
    /// recorded stream instead of functionally executed.
    pub replay: Option<ReplayCursor>,
}

gcl_mem::declare_wire! {
    Warp {
        slot, cta_slot, linear_cta, warp_in_cta, stack, exited, valid, regs, lane_tid, ctaid,
        at_barrier, warp_size, replay,
    }
    check Warp::check
}

/// Position of a replaying warp within its recorded stream.
#[derive(Debug, Clone)]
pub(crate) struct ReplayCursor {
    /// Stream index within the launch's trace
    /// (`linear_cta * warps_per_cta + warp_in_cta`).
    pub stream: u64,
    /// Next record to issue.
    pub pos: usize,
    /// The stream, read up to `pos`. `None` only between checkpoint
    /// restore and the relink performed on the first subsequent step (the
    /// stream contents are not serialized into snapshots; the trace is
    /// re-supplied at resume, validated by fingerprint, and re-read up to
    /// `pos`).
    pub reader: Option<StreamReader>,
}

// The position only: the stream is re-supplied (and fingerprint-validated)
// at resume, then relinked.
gcl_mem::declare_wire! { ReplayCursor { stream, pos } default { reader: None } }

impl ReplayCursor {
    /// The next record's `(pc, mask)`, `None` once the stream is exhausted.
    fn head(&self) -> Option<(u32, u32)> {
        self.reader
            .as_ref()
            .expect("replay cursor used before relink")
            .head()
    }
}

impl Warp {
    /// Create the `warp_in_cta`-th warp of a CTA.
    ///
    /// `threads_in_cta` bounds the valid lanes of the tail warp.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        slot: usize,
        cta_slot: usize,
        linear_cta: u64,
        ctaid: (u32, u32, u32),
        warp_in_cta: u32,
        ntid: Dim3,
        warp_size: u32,
        num_regs: u32,
    ) -> Warp {
        let threads_in_cta = ntid.count();
        let base = u64::from(warp_in_cta) * u64::from(warp_size);
        let mut valid = 0u32;
        let mut lane_tid = Vec::with_capacity(warp_size as usize);
        for lane in 0..warp_size {
            let t = base + u64::from(lane);
            if t < threads_in_cta {
                valid |= 1 << lane;
                lane_tid.push(ntid.coords(t));
            } else {
                lane_tid.push((0, 0, 0));
            }
        }
        Warp {
            slot,
            cta_slot,
            linear_cta,
            warp_in_cta,
            stack: SimtStack::new(valid),
            exited: 0,
            valid,
            regs: vec![0; num_regs as usize * warp_size as usize],
            lane_tid,
            ctaid,
            at_barrier: None,
            warp_size,
            replay: None,
        }
    }

    /// Whether every lane has retired (replay: the stream is exhausted).
    pub fn is_finished(&self) -> bool {
        match &self.replay {
            Some(c) => c.head().is_none(),
            None => self.stack.is_empty(),
        }
    }

    /// Current pc (only valid while not finished).
    pub fn pc(&self) -> usize {
        match &self.replay {
            Some(c) => c.head().expect("pc of a finished replay warp").0 as usize,
            None => self.stack.pc(),
        }
    }

    /// Lanes that would execute the next instruction.
    pub fn active_mask(&self) -> u32 {
        match &self.replay {
            Some(c) => c.head().expect("mask of a finished replay warp").1,
            None => self.stack.active_mask(self.exited),
        }
    }

    /// Read a register for one lane.
    #[cfg(test)]
    pub fn reg(&self, lane: u32, r: Reg) -> u64 {
        self.regs[r.index() * self.warp_size as usize + lane as usize]
    }

    /// Reject a lane table or register file that does not fit the warp size.
    fn check(&self) -> Result<(), WireError> {
        if self.warp_size == 0 || self.lane_tid.len() != self.warp_size as usize {
            return Err(WireError::Malformed("warp lane table size"));
        }
        if !self.regs.len().is_multiple_of(self.warp_size as usize) {
            return Err(WireError::Malformed("warp register file size"));
        }
        Ok(())
    }

    /// The row of `r` in the register file: one value per lane.
    fn row(&self, r: Reg) -> &[u64] {
        let ws = self.warp_size as usize;
        &self.regs[r.index() * ws..][..ws]
    }

    fn row_mut(&mut self, r: Reg) -> &mut [u64] {
        let ws = self.warp_size as usize;
        &mut self.regs[r.index() * ws..][..ws]
    }

    /// Read an operand for every lane at once. Lanes past the warp's width
    /// read zero; no exec mask selects them.
    fn gather(&self, src: Src) -> Lanes {
        let mut out = [0; MAX_LANES];
        self.gather_into(src, &mut out);
        out
    }

    fn gather_into(&self, src: Src, out: &mut Lanes) {
        match src {
            Src::Reg(r) => {
                let row = self.row(r);
                out[..row.len()].copy_from_slice(row);
            }
            Src::Const(v) => *out = [v; MAX_LANES],
            Src::Uniform(s) => {
                let v = match s {
                    Special::CtaIdX => self.ctaid.0,
                    Special::CtaIdY => self.ctaid.1,
                    Special::CtaIdZ => self.ctaid.2,
                    Special::WarpId => self.warp_in_cta,
                    _ => unreachable!("{s} is not warp-uniform"),
                };
                *out = [u64::from(v); MAX_LANES];
            }
            Src::Lane(s) => {
                for (lane, (o, &(x, y, z))) in out.iter_mut().zip(&self.lane_tid).enumerate() {
                    *o = u64::from(match s {
                        Special::TidX => x,
                        Special::TidY => y,
                        Special::TidZ => z,
                        Special::LaneId => lane as u32,
                        _ => unreachable!("{s} is not per-lane"),
                    });
                }
            }
        }
    }

    /// `dst = f(srcs)` on the lanes of `exec`; the sources are gathered
    /// before the destination row is written.
    fn map<const N: usize>(
        &mut self,
        dst: Reg,
        srcs: [Src; N],
        f: Map<N>,
        exec: u32,
    ) -> ReplayKind {
        let mut rows = [[0; MAX_LANES]; N];
        for (row, src) in rows.iter_mut().zip(srcs) {
            self.gather_into(src, row);
        }
        f(self.row_mut(dst), rows.each_ref(), exec);
        ReplayKind::Alu { dst: Some(dst) }
    }

    /// Every lane's effective address.
    fn addresses(&self, addr: Address) -> Lanes {
        let mut ea = match addr.base {
            Some(r) => self.gather(Src::Reg(r)),
            None => [0; MAX_LANES],
        };
        for a in &mut ea {
            *a = a.wrapping_add(addr.offset as u64);
        }
        ea
    }

    /// Lanes (⊆ `active`) whose guard predicate allows execution.
    fn guard_mask(&self, guard: Option<Guard>, active: u32) -> u32 {
        let Some(g) = guard else { return active };
        let pred = self.row(g.pred);
        let mut mask = 0u32;
        for_lanes(active, |lane| {
            if (pred[lane] != 0) != g.negate {
                mask |= 1 << lane;
            }
        });
        mask
    }

    /// Issue and functionally execute the instruction at the current pc.
    ///
    /// Source operands are gathered for the whole warp before the
    /// destination row is written, and memory side effects happen in
    /// ascending lane order: the last lane wins a same-address store, an
    /// atomic serialises by lane, and a memcheck fault leaves the earlier
    /// lanes' effects applied.
    ///
    /// # Errors
    ///
    /// When [`ExecCtx::memcheck`] is set, returns a [`MemViolation`] for
    /// the first global-backed access outside every live allocation. The
    /// warp's pc stays at the faulting instruction.
    ///
    /// # Panics
    ///
    /// Panics if the warp is finished, or on out-of-bounds shared-memory
    /// accesses (a kernel bug worth failing loudly on).
    pub fn step(&mut self, ctx: &mut ExecCtx<'_>) -> Result<ReplayKind, MemViolation> {
        assert!(!self.is_finished(), "stepping a finished warp");
        let pc = self.pc();
        let op = ctx.decoded.op(pc);
        let active = self.active_mask();
        debug_assert_ne!(active, 0, "active entry with no live lanes at pc {pc}");
        let exec = self.guard_mask(op.guard, active);

        // Branches consume the guard as the branch condition.
        if let Kind::Bra { target, reconv } = op.kind {
            let diverged = exec != 0 && exec != active;
            self.stack.branch(exec, active, target, pc + 1, reconv);
            return Ok(ReplayKind::Branch { diverged });
        }

        if exec == 0 {
            self.stack.advance();
            return Ok(ReplayKind::Predicated);
        }

        let result = match op.kind {
            Kind::Exit => {
                self.exited |= exec;
                self.stack.advance();
                self.stack.prune_exited(self.exited);
                return Ok(ReplayKind::Exit);
            }
            Kind::Bar { id } => {
                self.at_barrier = Some(id);
                ReplayKind::Barrier { id }
            }
            Kind::Map1 { dst, srcs, f } => self.map(dst, srcs, f, exec),
            Kind::Map2 { dst, srcs, f } => self.map(dst, srcs, f, exec),
            Kind::Map3 { dst, srcs, f } => self.map(dst, srcs, f, exec),
            Kind::Ld {
                space,
                ty,
                dst,
                addr,
            } => {
                let ea = self.addresses(addr);
                let (done, fault) = memcheck(ctx, pc, space, AccessKind::Load, exec, &ea, ty);
                let row = self.row_mut(dst);
                match space {
                    // No register base: every lane reads the same bytes.
                    Space::Param if addr.base.is_none() => {
                        let v = sign_extend_load(ty, read_param(ctx.params, ea[0], ty));
                        for_lanes(done, |l| row[l] = v);
                    }
                    Space::Param => for_lanes(done, |l| {
                        row[l] = sign_extend_load(ty, read_param(ctx.params, ea[l], ty));
                    }),
                    Space::Shared => for_lanes(done, |l| {
                        row[l] = sign_extend_load(ty, read_smem(ctx.smem, ea[l], ty));
                    }),
                    // Const and the global-backed spaces read device
                    // memory functionally.
                    _ => ctx.gmem.read_lanes(done, &ea, ty.size_bytes(), |l, bits| {
                        row[l] = sign_extend_load(ty, bits);
                    }),
                }
                if let Some(violation) = fault {
                    return Err(violation);
                }
                ReplayKind::Mem(MemAccess {
                    space,
                    is_store: false,
                    dst: Some(dst),
                    bytes: ty.size_bytes(),
                    lane_addrs: lane_addrs(ctx.lane_buf, exec, &ea),
                })
            }
            Kind::St {
                space,
                ty,
                addr,
                src,
            } => {
                let ea = self.addresses(addr);
                let v = self.gather(src);
                let (done, fault) = memcheck(ctx, pc, space, AccessKind::Store, exec, &ea, ty);
                match space {
                    Space::Shared => for_lanes(done, |l| write_smem(ctx.smem, ea[l], ty, v[l])),
                    Space::Param => panic!("stores to param space are invalid"),
                    _ => ctx.gmem.write_lanes(done, &ea, ty.size_bytes(), &v),
                }
                if let Some(violation) = fault {
                    return Err(violation);
                }
                ReplayKind::Mem(MemAccess {
                    space,
                    is_store: true,
                    dst: None,
                    bytes: ty.size_bytes(),
                    lane_addrs: lane_addrs(ctx.lane_buf, exec, &ea),
                })
            }
            Kind::Atom {
                ty,
                dst,
                addr,
                src,
                f,
            } => {
                let ea = self.addresses(addr);
                let v = self.gather(src);
                let (done, fault) =
                    memcheck(ctx, pc, Space::Global, AccessKind::Atomic, exec, &ea, ty);
                let row = self.row_mut(dst);
                // Lanes of a warp perform the RMW in lane order, which is a
                // valid serialization.
                for_lanes(done, |l| {
                    let old = ctx.gmem.read_scalar(ea[l], ty);
                    ctx.gmem.write_scalar(ea[l], ty, f(old, v[l]));
                    row[l] = sign_extend_load(ty, old);
                });
                if let Some(violation) = fault {
                    return Err(violation);
                }
                ReplayKind::Mem(MemAccess {
                    space: Space::Global,
                    is_store: false,
                    dst: Some(dst),
                    bytes: ty.size_bytes(),
                    lane_addrs: lane_addrs(ctx.lane_buf, exec, &ea),
                })
            }
            Kind::Bra { .. } => unreachable!("handled above"),
        };

        self.stack.advance();
        Ok(result)
    }

    /// Issue the next recorded instruction of a replaying warp: decode one
    /// record from the stream's columns and return its outcome. No
    /// functional execution happens — registers and device memory are
    /// untouched; a barrier record parks the warp as executing one does. A
    /// memory record's lane addresses are decoded into `lane_buf`'s
    /// allocation (see [`ExecCtx::lane_buf`]).
    ///
    /// # Panics
    ///
    /// Panics if the warp has no replay cursor, the cursor has not been
    /// relinked after a restore, or the stream is exhausted.
    pub fn step_replay(&mut self, lane_buf: &mut Vec<(u32, u64)>) -> ReplayKind {
        let c = self.replay.as_mut().expect("step_replay without a cursor");
        let reader = c.reader.as_mut().expect("replay cursor used before relink");
        let kind = reader.next(lane_buf).kind;
        c.pos += 1;
        if let ReplayKind::Barrier { id } = kind {
            self.at_barrier = Some(id);
        }
        kind
    }
}

/// The memcheck predicate over a warp: `[ea, ea + size_of(ty))` of every
/// lane of `exec` must sit inside one live allocation. Returns the lanes
/// below the first violating one (all of `exec` when memcheck is off, the
/// space is not policed, or nothing violates) and that lane's
/// [`MemViolation`] with nearest-allocation attribution.
fn memcheck(
    ctx: &ExecCtx<'_>,
    pc: usize,
    space: Space,
    kind: AccessKind,
    exec: u32,
    ea: &Lanes,
    ty: Type,
) -> (u32, Option<MemViolation>) {
    if !(ctx.memcheck && memchecked_space(space)) {
        return (exec, None);
    }
    let bytes = ty.size_bytes();
    let mut bad = 0u32;
    for_lanes(exec, |l| {
        bad |= u32::from(!ctx.gmem.is_allocated(ea[l], bytes)) << l
    });
    if bad == 0 {
        return (exec, None);
    }
    let lane = bad.trailing_zeros();
    let addr = ea[lane as usize];
    let violation = MemViolation {
        pc,
        space,
        kind,
        lane,
        addr,
        bytes,
        nearest: ctx.gmem.nearest_allocation(addr),
    };
    (exec & ((1 << lane) - 1), Some(violation))
}

/// `(lane, address)` of every executing lane, built in `buf`'s allocation.
fn lane_addrs(buf: &mut Vec<(u32, u64)>, exec: u32, ea: &Lanes) -> Vec<(u32, u64)> {
    let mut v = take_cleared(buf);
    for_lanes(exec, |l| v.push((l as u32, ea[l])));
    v
}

/// Take `buf`'s allocation, emptied.
fn take_cleared(buf: &mut Vec<(u32, u64)>) -> Vec<(u32, u64)> {
    let mut v = std::mem::take(buf);
    v.clear();
    v
}

fn sign_extend_load(ty: Type, bits: u64) -> u64 {
    match ty {
        Type::S32 => bits as u32 as i32 as i64 as u64,
        _ => bits,
    }
}

fn read_param(params: &[u8], addr: u64, ty: Type) -> u64 {
    let n = ty.size_bytes() as usize;
    let start = addr as usize;
    assert!(
        start + n <= params.len(),
        "ld.param reads [{start}, {}) past the {}-byte parameter block",
        start + n,
        params.len()
    );
    let mut v = 0u64;
    for (i, b) in params[start..start + n].iter().enumerate() {
        v |= u64::from(*b) << (8 * i);
    }
    v
}

fn read_smem(smem: &[u8], addr: u64, ty: Type) -> u64 {
    let n = ty.size_bytes() as usize;
    let start = addr as usize;
    assert!(
        start + n <= smem.len(),
        "ld.shared reads [{start}, {}) past the {}-byte shared memory",
        start + n,
        smem.len()
    );
    let mut v = 0u64;
    for (i, b) in smem[start..start + n].iter().enumerate() {
        v |= u64::from(*b) << (8 * i);
    }
    v
}

fn write_smem(smem: &mut [u8], addr: u64, ty: Type, v: u64) {
    let n = ty.size_bytes() as usize;
    let start = addr as usize;
    assert!(
        start + n <= smem.len(),
        "st.shared writes [{start}, {}) past the {}-byte shared memory",
        start + n,
        smem.len()
    );
    for i in 0..n {
        smem[start + i] = (v >> (8 * i)) as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{LaunchInfo, MemorySink, TraceSink};
    use crate::TraceEvent;
    use gcl_core::classify;
    use gcl_ptx::{CmpOp, Kernel, KernelBuilder, Op, Operand};

    fn decode(kernel: &Kernel, ntid: Dim3) -> DecodedKernel {
        DecodedKernel::new(kernel, &classify(kernel), ntid, Dim3::x(4))
    }

    fn make_ctx<'a>(
        decoded: &'a DecodedKernel,
        params: &'a [u8],
        gmem: &'a mut GlobalMem,
        smem: &'a mut [u8],
        lane_buf: &'a mut Vec<(u32, u64)>,
    ) -> ExecCtx<'a> {
        ExecCtx {
            lane_buf,
            decoded,
            params,
            gmem,
            smem,
            memcheck: false,
        }
    }

    fn run_warp(kernel: &Kernel, params: &[u8], gmem: &mut GlobalMem, ntid: Dim3) -> Warp {
        let warp = Warp::new(0, 0, 0, (0, 0, 0), 0, ntid, 32, kernel.num_regs());
        run(kernel, params, gmem, ntid, warp)
    }

    /// Step `warp` through `kernel` until it retires.
    fn run(
        kernel: &Kernel,
        params: &[u8],
        gmem: &mut GlobalMem,
        ntid: Dim3,
        mut warp: Warp,
    ) -> Warp {
        let decoded = decode(kernel, ntid);
        let mut smem = vec![0u8; kernel.shared_bytes() as usize];
        let mut lane_buf = Vec::new();
        let mut ctx = make_ctx(&decoded, params, gmem, &mut smem, &mut lane_buf);
        let mut steps = 0;
        while !warp.is_finished() {
            let r = warp.step(&mut ctx).expect("memcheck off");
            if matches!(r, ReplayKind::Barrier { .. }) {
                warp.at_barrier = None; // single-warp CTA: barrier is a no-op
            }
            steps += 1;
            assert!(steps < 100_000, "warp did not finish");
        }
        warp
    }

    #[test]
    fn straight_line_arithmetic_per_lane() {
        // out[tid] = tid * 3 + 1
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let v = b.mad(Type::U32, tid, 3i64, 1i64);
        let a = b.index64(base, tid, 4);
        b.st_global(Type::U32, a, v);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        let params = out.to_le_bytes().to_vec();
        run_warp(&k, &params, &mut gmem, Dim3::x(32));
        let vals = gmem.read_u32_slice(out, 32);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, i as u32 * 3 + 1);
        }
    }

    #[test]
    fn divergent_branch_gives_per_lane_results() {
        // out[tid] = tid < 16 ? 7 : 9
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let pr = b.setp(CmpOp::Lt, Type::U32, tid, 16i64);
        let val = b.reg();
        let else_l = b.new_label();
        let done = b.new_label();
        b.bra_unless(pr, else_l);
        b.push(Op::Mov {
            ty: Type::U32,
            dst: val,
            src: 7i64.into(),
        });
        b.bra(done);
        b.place(else_l);
        b.push(Op::Mov {
            ty: Type::U32,
            dst: val,
            src: 9i64.into(),
        });
        b.place(done);
        let a = b.index64(base, tid, 4);
        b.st_global(Type::U32, a, val);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        run_warp(&k, &out.to_le_bytes(), &mut gmem, Dim3::x(32));
        let vals = gmem.read_u32_slice(out, 32);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, if i < 16 { 7 } else { 9 }, "lane {i}");
        }
    }

    #[test]
    fn tail_warp_masks_invalid_lanes() {
        // CTA of 20 threads: lanes 20..32 must not store.
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let a = b.index64(base, tid, 4);
        b.st_global(Type::U32, a, 1i64);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        let w = run_warp(&k, &out.to_le_bytes(), &mut gmem, Dim3::x(20));
        assert_eq!(w.valid.count_ones(), 20);
        let vals = gmem.read_u32_slice(out, 32);
        assert!(vals[..20].iter().all(|&v| v == 1));
        assert!(vals[20..].iter().all(|&v| v == 0));
    }

    #[test]
    fn shared_memory_round_trip() {
        // smem[tid] = tid*2; out[tid] = smem[tid]
        let mut b = KernelBuilder::new("k");
        b.shared(128);
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let two_tid = b.mul(Type::U32, tid, 2i64);
        let saddr = b.mul(Type::U32, tid, 4i64);
        b.st_shared(Type::U32, saddr, two_tid);
        b.bar();
        let v = b.ld_shared(Type::U32, saddr);
        let a = b.index64(base, tid, 4);
        b.st_global(Type::U32, a, v);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        run_warp(&k, &out.to_le_bytes(), &mut gmem, Dim3::x(32));
        let vals = gmem.read_u32_slice(out, 32);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(*v, 2 * i as u32);
        }
    }

    #[test]
    fn loop_executes_correct_trip_count() {
        // out[tid] = sum(0..tid)
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let acc = b.reg();
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: acc,
            src: 0i64.into(),
        });
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        let done = b.new_label();
        b.place(head);
        let cond = b.setp(CmpOp::Ge, Type::U32, i, tid);
        b.bra_if(cond, done);
        b.push(Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: acc,
            a: acc.into(),
            b: i.into(),
        });
        b.push(Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        b.bra(head);
        b.place(done);
        let a = b.index64(base, tid, 4);
        b.st_global(Type::U32, a, acc);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        run_warp(&k, &out.to_le_bytes(), &mut gmem, Dim3::x(32));
        let vals = gmem.read_u32_slice(out, 32);
        for (t, v) in vals.iter().enumerate() {
            let want: u32 = (0..t as u32).sum();
            assert_eq!(*v, want, "lane {t}");
        }
    }

    #[test]
    fn atomics_serialize_within_warp() {
        // Every lane atomically increments the same counter; old values must
        // be a permutation of 0..n_active.
        let mut b = KernelBuilder::new("k");
        let pc_ = b.param("ctr", Type::U64);
        let po = b.param("out", Type::U64);
        let ctr = b.ld_param(Type::U64, pc_);
        let outb = b.ld_param(Type::U64, po);
        let old = b.atom(gcl_ptx::AtomOp::Add, Type::U32, ctr, 1i64);
        let tid = b.sreg(Special::TidX);
        let a = b.index64(outb, tid, 4);
        b.st_global(Type::U32, a, old);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let ctr = gmem.alloc_array(Type::U32, 1).unwrap();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        let mut params = ctr.to_le_bytes().to_vec();
        params.extend_from_slice(&out.to_le_bytes());
        run_warp(&k, &params, &mut gmem, Dim3::x(32));
        assert_eq!(gmem.read_u32_slice(ctr, 1)[0], 32);
        let mut olds = gmem.read_u32_slice(out, 32);
        olds.sort_unstable();
        let want: Vec<u32> = (0..32).collect();
        assert_eq!(olds, want);
    }

    #[test]
    #[should_panic(expected = "past the")]
    fn shared_out_of_bounds_panics() {
        let mut b = KernelBuilder::new("k");
        b.shared(16);
        let addr = b.imm32(64);
        let _ = b.ld_shared(Type::U32, addr);
        b.exit();
        let k = b.build().unwrap();
        let mut gmem = GlobalMem::new();
        run_warp(&k, &[], &mut gmem, Dim3::x(1));
    }

    #[test]
    fn mem_access_reports_active_lane_addrs() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("data", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let a = b.index64(base, tid, 4);
        let _ = b.ld_global(Type::U32, a);
        b.exit();
        let k = b.build().unwrap();
        let mut gmem = GlobalMem::new();
        let buf = gmem.alloc_array(Type::U32, 32).unwrap();
        let params = buf.to_le_bytes().to_vec();
        let mut smem = vec![];
        let ntid = Dim3::x(8);
        let decoded = decode(&k, ntid);
        let mut warp = Warp::new(0, 0, 0, (0, 0, 0), 0, ntid, 32, k.num_regs());
        let mut lane_buf = Vec::new();
        let mut ctx = make_ctx(&decoded, &params, &mut gmem, &mut smem, &mut lane_buf);
        // Step to the global load.
        let mut access = None;
        while !warp.is_finished() {
            if let ReplayKind::Mem(m) = warp.step(&mut ctx).unwrap() {
                if m.space == Space::Global {
                    access = Some(m);
                }
            }
        }
        let m = access.expect("no global access seen");
        assert_eq!(m.lane_addrs.len(), 8);
        for (lane, addr) in &m.lane_addrs {
            assert_eq!(*addr, buf + u64::from(*lane) * 4);
        }
    }

    /// `dst = dst + lane` under a guard that holds on odd lanes: the sources
    /// are gathered before the destination row is written, and lanes the
    /// guard masks off keep their value.
    #[test]
    fn guarded_add_into_its_own_source_writes_only_the_guarded_lanes() {
        let mut b = KernelBuilder::new("k");
        let lane = b.sreg(Special::LaneId);
        let odd = b.and(Type::U32, lane, 1i64);
        let p = b.setp(CmpOp::Eq, Type::U32, odd, 1i64);
        let acc = b.imm32(100);
        b.guard_next(p, false);
        b.push(Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: acc,
            a: acc.into(),
            b: lane.into(),
        });
        let twice = b.reg();
        b.push(Op::Alu {
            op: gcl_ptx::AluOp::Add,
            ty: Type::U32,
            dst: twice,
            a: acc.into(),
            b: acc.into(),
        });
        b.push(Op::Alu {
            op: gcl_ptx::AluOp::Sub,
            ty: Type::U32,
            dst: twice,
            a: twice.into(),
            b: twice.into(),
        });
        b.exit();
        let k = b.build().unwrap();
        let w = run_warp(&k, &[], &mut GlobalMem::new(), Dim3::x(32));
        for l in 0..32 {
            let want = if l % 2 == 1 { 100 + u64::from(l) } else { 100 };
            assert_eq!(w.reg(l, acc), want, "lane {l}");
            assert_eq!(w.reg(l, twice), 0, "lane {l}: r - r");
        }
    }

    /// A 16-lane machine running the 12-thread tail warp of CTA (3, 0, 0):
    /// rows are 16 wide, lanes 12..16 never execute, and the warp-uniform
    /// specials read this warp's coordinates.
    #[test]
    fn narrow_tail_warp_sees_only_valid_lanes_and_its_own_coordinates() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let lane = b.sreg(Special::LaneId);
        let cta = b.sreg(Special::CtaIdX);
        let v = b.mad(Type::U32, cta, 1000i64, Special::WarpId);
        let v = b.mad(Type::U32, v, 100i64, Special::NTidX);
        let v = b.add(Type::U32, v, Special::TidX);
        let a = b.index64(base, lane, 4);
        b.st_global(Type::U32, a, v);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 32).unwrap();
        let ntid = Dim3::x(28); // warps of 16: one full, one of 12
        let warp = Warp::new(0, 0, 3, (3, 0, 0), 1, ntid, 16, k.num_regs());
        assert_eq!(warp.valid, 0x0FFF);
        let w = run(&k, &out.to_le_bytes(), &mut gmem, ntid, warp);
        assert_eq!(w.regs.len(), k.num_regs() as usize * 16);
        let vals = gmem.read_u32_slice(out, 32);
        for (l, &got) in vals.iter().enumerate() {
            // (ctaid 3 * 1000 + warpid 1) * 100 + ntid 28 + tid (16 + lane)
            let want = if l < 12 { 300_128 + 16 + l as u32 } else { 0 };
            assert_eq!(got, want, "lane {l}");
        }
    }

    #[test]
    fn float_immediates_narrow_under_f32_and_stay_wide_under_f64() {
        let third = Operand::f64(1.0 / 3.0);
        let mut b = KernelBuilder::new("k");
        let narrow = b.mov(Type::F32, third);
        let wide = b.mov(Type::F64, third);
        let sum = b.add(Type::F32, narrow, third);
        b.exit();
        let k = b.build().unwrap();
        let w = run_warp(&k, &[], &mut GlobalMem::new(), Dim3::x(32));
        let third32 = 1.0f32 / 3.0;
        for l in [0, 31] {
            assert_eq!(w.reg(l, narrow), u64::from(third32.to_bits()));
            assert_eq!(w.reg(l, wide), (1.0f64 / 3.0).to_bits());
            assert_eq!(w.reg(l, sum), u64::from((third32 + third32).to_bits()));
        }
    }

    /// Stores happen in ascending lane order, so the highest executing lane
    /// wins an address every lane writes.
    #[test]
    fn same_address_store_keeps_the_last_executing_lane() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let lane = b.sreg(Special::LaneId);
        b.st_global(Type::U32, base, lane);
        let low = b.setp(CmpOp::Lt, Type::U32, lane, 7i64);
        b.guard_next(low, false);
        b.st(Space::Global, Type::U32, Address::reg_offset(base, 4), lane);
        b.exit();
        let k = b.build().unwrap();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 2).unwrap();
        run_warp(&k, &out.to_le_bytes(), &mut gmem, Dim3::x(20));
        assert_eq!(gmem.read_u32_slice(out, 2), [19, 6]);
    }

    #[test]
    fn param_loads_broadcast_and_sign_extend() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("v", Type::S32);
        let signed = b.ld_param(Type::S32, p);
        let unsigned = b.ld(Space::Param, Type::U32, Address::abs(0));
        // A register-based parameter address: lane l reads byte l % 4.
        let lane = b.sreg(Special::LaneId);
        let byte = b.and(Type::U64, lane, 3i64);
        let per_lane = b.ld(Space::Param, Type::U8, Address::reg(byte));
        b.exit();
        let k = b.build().unwrap();
        let params = 0xFFFF_FF80u32.to_le_bytes();
        let w = run_warp(&k, &params, &mut GlobalMem::new(), Dim3::x(20));
        for l in 0..20 {
            assert_eq!(w.reg(l, signed), 0xFFFF_FFFF_FFFF_FF80, "lane {l}");
            assert_eq!(w.reg(l, unsigned), 0xFFFF_FF80, "lane {l}");
            assert_eq!(
                w.reg(l, per_lane),
                u64::from(params[l as usize % 4]),
                "lane {l}"
            );
        }
        assert_eq!(w.reg(20, signed), 0, "lanes past the tail never load");
    }

    /// Memcheck reports the first out-of-bounds lane, with the stores of the
    /// lanes below it applied, none above it, and the pc left on the store.
    #[test]
    fn memcheck_fault_applies_earlier_lanes_and_keeps_the_pc() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("out", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let lane = b.sreg(Special::LaneId);
        let a = b.index64(base, lane, 4);
        let store_pc = b.here();
        b.st_global(Type::U32, a, 7i64);
        b.exit();
        let k = b.build().unwrap();

        let mut gmem = GlobalMem::new();
        let out = gmem.alloc_array(Type::U32, 5).unwrap();
        let params = out.to_le_bytes();
        let ntid = Dim3::x(32);
        let decoded = decode(&k, ntid);
        let mut warp = Warp::new(0, 0, 0, (0, 0, 0), 0, ntid, 32, k.num_regs());
        let (mut smem, mut lane_buf) = (vec![], Vec::new());
        let mut ctx = make_ctx(&decoded, &params, &mut gmem, &mut smem, &mut lane_buf);
        ctx.memcheck = true;
        while warp.pc() != store_pc {
            warp.step(&mut ctx).expect("in bounds so far");
        }
        for _ in 0..2 {
            let v = warp.step(&mut ctx).expect_err("lane 5 is out of bounds");
            assert_eq!((v.pc, v.lane, v.addr), (store_pc, 5, out + 20));
            assert_eq!(v.kind, AccessKind::Store);
            assert_eq!(v.nearest, Some((out, 20)));
            assert_eq!(warp.pc(), store_pc);
        }
        assert_eq!(gmem.read_u32_slice(out, 8), [7, 7, 7, 7, 7, 0, 0, 0]);
    }

    #[test]
    fn guarded_branch_taken_by_some_lanes_diverges_and_reconverges() {
        let mut b = KernelBuilder::new("k");
        let lane = b.sreg(Special::LaneId);
        let low = b.setp(CmpOp::Lt, Type::U32, lane, 10i64);
        let v = b.imm32(1);
        let skip = b.new_label();
        b.bra_if(low, skip);
        b.push(Op::Mov {
            ty: Type::U32,
            dst: v,
            src: 2i64.into(),
        });
        b.place(skip);
        let after = b.add(Type::U32, v, 10i64);
        b.exit();
        let k = b.build().unwrap();

        let ntid = Dim3::x(32);
        let decoded = decode(&k, ntid);
        let mut gmem = GlobalMem::new();
        let mut warp = Warp::new(0, 0, 0, (0, 0, 0), 0, ntid, 32, k.num_regs());
        let (mut smem, mut lane_buf) = (vec![], Vec::new());
        let mut ctx = make_ctx(&decoded, &[], &mut gmem, &mut smem, &mut lane_buf);
        let mut branches = Vec::new();
        while !warp.is_finished() {
            if let ReplayKind::Branch { diverged } = warp.step(&mut ctx).unwrap() {
                branches.push((diverged, warp.active_mask()));
            }
        }
        // The fall-through lanes run first; all 32 meet again at `skip`.
        assert_eq!(branches, [(true, !0x3FF)]);
        for l in 0..32 {
            assert_eq!(warp.reg(l, after), if l < 10 { 11 } else { 12 }, "lane {l}");
        }
    }

    /// Executing `bar.sync 3` and replaying its record both report
    /// barrier 3 and park the warp there.
    #[test]
    fn barrier_id_comes_from_the_step_on_both_paths() {
        let mut b = KernelBuilder::new("k");
        b.bar_id(3);
        b.exit();
        let k = b.build().unwrap();
        let ntid = Dim3::x(32);
        let decoded = decode(&k, ntid);
        let mut gmem = GlobalMem::new();
        let mut warp = Warp::new(0, 0, 0, (0, 0, 0), 0, ntid, 32, k.num_regs());
        let (mut smem, mut lane_buf) = (vec![], Vec::new());
        let mut ctx = make_ctx(&decoded, &[], &mut gmem, &mut smem, &mut lane_buf);
        assert_eq!(warp.step(&mut ctx), Ok(ReplayKind::Barrier { id: 3 }));
        assert_eq!(warp.at_barrier, Some(3));

        let mut sink = MemorySink::new();
        sink.begin_launch(&LaunchInfo {
            kernel_fp: 0,
            kernel_name: "k".into(),
            grid: Dim3::x(1),
            block: ntid,
            n_streams: 1,
        });
        let ev = TraceEvent {
            cycle: 0,
            sm: 0,
            warp_slot: 0,
            cta: 0,
            pc: 0,
            active: u32::MAX,
        };
        sink.issue(0, &ev, &ReplayKind::Barrier { id: 3 });
        sink.end_launch();
        let stream = sink.into_replays().remove(0).streams.remove(0);
        let mut warp = Warp::new(0, 0, 0, (0, 0, 0), 0, ntid, 32, k.num_regs());
        warp.replay = Some(ReplayCursor {
            stream: 0,
            pos: 0,
            reader: Some(StreamReader::seek(stream, 0)),
        });
        assert_eq!(
            warp.step_replay(&mut Vec::new()),
            ReplayKind::Barrier { id: 3 }
        );
        assert_eq!(warp.at_barrier, Some(3));
    }
}
