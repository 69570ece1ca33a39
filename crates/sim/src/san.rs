//! `simsan` — the opt-in runtime sanitizer ([`GpuConfig::sanitize`]).
//!
//! Three checkers, all zero-cost when off:
//!
//! 1. **Request-lifecycle conservation** — every [`gcl_mem::MemRequest`] is
//!    tagged with a launch-unique id at coalescing and driven through the
//!    [`RequestLedger`](gcl_mem::RequestLedger) state machine at every
//!    observable seam (L1 outcome, miss-queue drain, interconnect
//!    inject/eject, partition enqueue, DRAM entry, response return). Illegal
//!    transitions, double responses, responses without a waiting request,
//!    and end-of-launch leaks raise
//!    [`SimError::Sanitizer`](crate::SimError::Sanitizer).
//! 2. **Shared-memory race detection** — per-CTA shadow state over shared
//!    memory records last-writer / last-reader `(warp, pc)` pairs within a
//!    barrier epoch; epochs reset at each `bar.sync N` release. Conflicting
//!    accesses from different warps in one epoch produce a [`RaceReport`]
//!    naming both pcs, the byte range, and the barrier id.
//! 3. **Determinism audit** — a per-launch FNV-1a digest folded over issue,
//!    writeback and response events, exposed as
//!    [`LaunchStats::digest`](crate::LaunchStats::digest); running a
//!    workload twice and comparing digests ([`check_digests`]) hard-fails
//!    on divergence.
//!
//! Violations are *injectable* for testing via [`SanInject`]: documented
//! chaos hooks that corrupt one request's bookkeeping so integration tests
//! can assert each report kind fires (`tests/sanitizer_paths.rs`).
//!
//! [`GpuConfig::sanitize`]: crate::GpuConfig::sanitize

use crate::fault::MemFaultReport;
use gcl_mem::{
    fnv_fold, Codec, ConservationReport, Dec, Enc, RequestLedger, Wire, WireError, FNV_OFFSET,
};
use std::fmt;

/// One side of a shared-memory race: who touched the bytes, from where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceAccess {
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
    /// Instruction index of the shared-memory access.
    pub pc: usize,
    /// Whether the access was a store.
    pub is_write: bool,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dir = if self.is_write { "write" } else { "read" };
        write!(f, "{dir} by warp {} at pc {}", self.warp_in_cta, self.pc)
    }
}

/// A shared-memory race: two warps of one CTA touched overlapping bytes
/// within one barrier epoch, at least one of them writing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// SM the CTA ran on.
    pub sm: u16,
    /// Linear CTA id.
    pub cta: u64,
    /// Barrier epoch (0 before the first release, +1 per release).
    pub epoch: u64,
    /// The `bar.sync` id whose release opened this epoch (`None` for the
    /// epoch before the CTA's first barrier).
    pub barrier: Option<u32>,
    /// First conflicting shared-memory byte offset.
    pub byte_lo: u64,
    /// One past the last byte of the conflicting access.
    pub byte_hi: u64,
    /// The earlier access recorded in the shadow state.
    pub prev: RaceAccess,
    /// The access that completed the race.
    pub curr: RaceAccess,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shared-memory race in CTA {} on SM {}: {} conflicts with earlier {} \
             on shared bytes [0x{:x}, 0x{:x})\n  barrier epoch {}",
            self.cta, self.sm, self.curr, self.prev, self.byte_lo, self.byte_hi, self.epoch
        )?;
        match self.barrier {
            Some(id) => write!(f, " (after release of bar.sync {id})"),
            None => write!(f, " (before the CTA's first barrier)"),
        }
    }
}

/// Two runs of the same workload produced different event digests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismReport {
    /// The workload that diverged.
    pub workload: String,
    /// Digest of the first run.
    pub first: u64,
    /// Digest of the rerun.
    pub second: u64,
}

impl fmt::Display for DeterminismReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "determinism violated for `{}`: launch digest {:#018x} on first run, \
             {:#018x} on identical rerun",
            self.workload, self.first, self.second
        )
    }
}

/// A structured violation from one of the three sanitizer checkers — the
/// payload of [`SimError::Sanitizer`](crate::SimError::Sanitizer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SanitizerReport {
    /// Request-lifecycle conservation broke (see [`ConservationReport`]).
    Conservation(ConservationReport),
    /// The shared-memory race detector fired.
    Race(RaceReport),
    /// The determinism audit found digest divergence.
    Determinism(DeterminismReport),
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SanitizerReport::Conservation(r) => write!(f, "{r}"),
            SanitizerReport::Race(r) => write!(f, "{r}"),
            SanitizerReport::Determinism(r) => write!(f, "{r}"),
        }
    }
}

/// Compare the digests of two sanitized runs of `workload`.
///
/// # Errors
///
/// A [`SanitizerReport::Determinism`] if both digests are present and differ.
/// Missing digests (unsanitized runs) compare clean.
pub fn check_digests(
    workload: &str,
    first: Option<u64>,
    second: Option<u64>,
) -> Result<(), Box<SanitizerReport>> {
    match (first, second) {
        (Some(a), Some(b)) if a != b => {
            Err(Box::new(SanitizerReport::Determinism(DeterminismReport {
                workload: workload.to_string(),
                first: a,
                second: b,
            })))
        }
        _ => Ok(()),
    }
}

/// What can go wrong inside one SM cycle: a memcheck fault or a sanitizer
/// violation. The GPU maps these onto
/// [`SimError::MemFault`](crate::SimError::MemFault) /
/// [`SimError::Sanitizer`](crate::SimError::Sanitizer).
#[derive(Debug)]
pub(crate) enum TickError {
    /// Memcheck caught an out-of-bounds device access.
    Mem(Box<MemFaultReport>),
    /// A sanitizer checker fired.
    San(Box<SanitizerReport>),
}

impl From<Box<MemFaultReport>> for TickError {
    fn from(r: Box<MemFaultReport>) -> TickError {
        TickError::Mem(r)
    }
}

impl From<Box<ConservationReport>> for TickError {
    fn from(r: Box<ConservationReport>) -> TickError {
        TickError::San(Box::new(SanitizerReport::Conservation(*r)))
    }
}

impl From<Box<RaceReport>> for TickError {
    fn from(r: Box<RaceReport>) -> TickError {
        TickError::San(Box::new(SanitizerReport::Race(*r)))
    }
}

/// Sanitizer fault injection: deliberately corrupt one request's
/// bookkeeping so tests can assert the conservation checker reports it.
///
/// These are **documented chaos hooks**, compiled unconditionally (so
/// integration tests outside the crate can reach them) but rejected by
/// [`GpuConfig::validate`](crate::GpuConfig::validate) unless
/// [`sanitize`](crate::GpuConfig::sanitize) is on, and never active on the
/// default [`SanInject::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanInject {
    /// No injection (the only setting valid outside tests).
    #[default]
    None,
    /// Silently drop the `nth` (1-based) store at interconnect injection.
    /// Stores are fire-and-forget, so nothing hangs and the launch
    /// completes — only the end-of-launch drain check can catch the loss.
    DropIcntStore {
        /// Which store to drop (1-based).
        nth: u64,
    },
    /// Deliver the `nth` read response twice, modeling a duplicated packet;
    /// the second delivery must report a double response.
    DuplicateResponse {
        /// Which response to duplicate (1-based).
        nth: u64,
    },
    /// Forget the L1 MSHR entry just before the `nth` fill, modeling lost
    /// MSHR bookkeeping; the fill must report response-without-request.
    DropMshrEntry {
        /// Which fill to corrupt (1-based).
        nth: u64,
    },
    /// Salt the launch digest with a process-global counter so two
    /// otherwise identical runs diverge; the determinism audit must fail.
    DigestNoise,
}

/// Per-launch sanitizer state shared across SMs: the conservation ledger
/// and the fault-injection counters. Created by the GPU when
/// [`GpuConfig::sanitize`](crate::GpuConfig::sanitize) is on and handed to
/// each SM through `TickCtx`.
#[derive(Debug)]
pub(crate) struct SanRun {
    /// The request-conservation ledger.
    pub ledger: RequestLedger,
    inject: SanInject,
    seen: u64,
    fired: bool,
}

impl SanRun {
    /// Create the per-launch sanitizer state.
    pub fn new(inject: SanInject) -> SanRun {
        SanRun {
            ledger: RequestLedger::new(),
            inject,
            seen: 0,
            fired: false,
        }
    }

    fn fire(&mut self, nth: u64) -> bool {
        self.seen += 1;
        if !self.fired && self.seen == nth {
            self.fired = true;
            return true;
        }
        false
    }

    /// Whether to silently drop this store at interconnect injection.
    pub(crate) fn should_drop_store(&mut self, is_write: bool) -> bool {
        match self.inject {
            SanInject::DropIcntStore { nth } if is_write => self.fire(nth),
            _ => false,
        }
    }

    /// Whether to deliver this read response a second time.
    pub(crate) fn should_duplicate_response(&mut self) -> bool {
        match self.inject {
            SanInject::DuplicateResponse { nth } => self.fire(nth),
            _ => false,
        }
    }

    /// Whether to forget the MSHR entry before this fill.
    pub(crate) fn should_drop_mshr(&mut self) -> bool {
        match self.inject {
            SanInject::DropMshrEntry { nth } => self.fire(nth),
            _ => false,
        }
    }

    /// Whether the digest should be salted with process-global noise.
    pub(crate) fn digest_noise(&self) -> bool {
        self.inject == SanInject::DigestNoise
    }

    /// Checkpoint-encode the per-launch sanitizer state. The injection
    /// setting comes from the configuration, so only the ledger and the
    /// injection counters are written.
    pub(crate) fn ckpt_encode(&self, e: &mut Enc) {
        self.ledger.put(e);
        (self.seen, self.fired).put(e);
    }

    /// Checkpoint-decode sanitizer state written by
    /// [`ckpt_encode`](Self::ckpt_encode), with the injection setting
    /// supplied by the configuration.
    pub(crate) fn ckpt_decode(d: &mut Dec<'_>, inject: SanInject) -> Result<SanRun, WireError> {
        let (ledger, seen, fired) = Wire::get(d)?;
        Ok(SanRun {
            ledger,
            inject,
            seen,
            fired,
        })
    }
}

/// One shared-memory access `(warp_in_cta, pc)` packed as
/// `warp_in_cta << 32 | pc`, or [`NO_ACCESS`].
type Access = u64;

/// The empty access slot. `warp_in_cta` indexes the warps of one CTA, whose
/// thread count is at most `max_threads_per_sm` (a `u32`): a CTA has at most
/// `u32::MAX` warps, so no warp index is `u32::MAX` and no real access packs
/// to a word whose high half is all ones. [`warp_of`] therefore reads an
/// empty slot as a warp that matches no real one.
const NO_ACCESS: Access = u64::MAX;

fn pack(warp_in_cta: u32, pc: u32) -> Access {
    u64::from(warp_in_cta) << 32 | u64::from(pc)
}

fn warp_of(a: Access) -> u32 {
    (a >> 32) as u32
}

fn unpack(a: Access) -> Option<(u32, u32)> {
    (a != NO_ACCESS).then_some((warp_of(a), a as u32))
}

/// Per-byte shadow record of one CTA's shared memory within the current
/// barrier epoch: 24 bytes. Two reader slots are enough: the detector only
/// needs to know *some* other-warp reader exists, and a warp already
/// recorded never evicts another.
#[derive(Debug, Clone, Copy)]
struct ShadowByte {
    /// Last writer this epoch.
    writer: Access,
    /// Up to two distinct-warp readers this epoch.
    readers: [Access; 2],
}

/// An access slot on the wire: `None` when empty, else `(warp_in_cta, pc)`.
const ACCESS: Codec<Access> = Codec {
    put: |&a, e| unpack(a).put(e),
    get: |d| match Wire::get(d)? {
        None => Ok(NO_ACCESS),
        Some((u32::MAX, _)) => Err(WireError::Malformed("shadow warp index out of range")),
        Some((w, pc)) => Ok(pack(w, pc)),
    },
};

const READERS: Codec<[Access; 2]> = Codec {
    put: |r, e| r.iter().for_each(|a| (ACCESS.put)(a, e)),
    get: |d| Ok([(ACCESS.get)(d)?, (ACCESS.get)(d)?]),
};

gcl_mem::declare_wire! { ShadowByte { writer: ACCESS, readers: READERS } }

impl Default for ShadowByte {
    fn default() -> ShadowByte {
        ShadowByte {
            writer: NO_ACCESS,
            readers: [NO_ACCESS; 2],
        }
    }
}

#[derive(Debug)]
struct SmemShadow {
    epoch: u64,
    barrier: Option<u32>,
    bytes: Vec<ShadowByte>,
}

gcl_mem::declare_wire! { SmemShadow { epoch, barrier, bytes } }

/// Per-SM sanitizer state: the determinism digest and the shared-memory
/// shadow of each resident CTA.
#[derive(Debug)]
pub(crate) struct SmSan {
    pub(crate) digest: u64,
    shadows: Vec<SmemShadow>,
}

impl SmSan {
    pub(crate) fn new(n_cta_slots: usize, shared_bytes: usize) -> SmSan {
        SmSan {
            digest: FNV_OFFSET,
            shadows: (0..n_cta_slots)
                .map(|_| SmemShadow {
                    epoch: 0,
                    barrier: None,
                    bytes: vec![ShadowByte::default(); shared_bytes],
                })
                .collect(),
        }
    }

    /// Fold one event value into the determinism digest.
    pub(crate) fn fold(&mut self, v: u64) {
        self.digest = fnv_fold(self.digest, v);
    }

    /// Reset the shadow for a freshly dispatched CTA.
    pub(crate) fn clear_slot(&mut self, cta_slot: usize) {
        let shadow = &mut self.shadows[cta_slot];
        shadow.epoch = 0;
        shadow.barrier = None;
        shadow.bytes.fill(ShadowByte::default());
    }

    /// A `bar.sync barrier` released in this CTA: open a new epoch.
    pub(crate) fn barrier_release(&mut self, cta_slot: usize, barrier: u32) {
        let shadow = &mut self.shadows[cta_slot];
        shadow.epoch += 1;
        shadow.barrier = Some(barrier);
        shadow.bytes.fill(ShadowByte::default());
    }

    /// Check one warp shared-memory access against the CTA's shadow state
    /// and record it.
    ///
    /// # Errors
    ///
    /// A [`RaceReport`] if any touched byte was accessed by a different
    /// warp within this barrier epoch with at least one side writing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_shared(
        &mut self,
        cta_slot: usize,
        sm: u16,
        cta: u64,
        warp_in_cta: u32,
        pc: usize,
        is_store: bool,
        lane_addrs: &[(u32, u64)],
        bytes: u32,
    ) -> Result<(), Box<RaceReport>> {
        let shadow = &mut self.shadows[cta_slot];
        let this = pack(warp_in_cta, pc as u32);
        let other_warp = |a: Access| a != NO_ACCESS && warp_of(a) != warp_in_cta;
        let mut prev = None;
        for &(_lane, addr) in lane_addrs {
            // A lane repeating the previous lane's address (a broadcast)
            // finds the bytes as that lane left them: checking them again
            // can neither fail nor change them.
            if prev.replace(addr) == Some(addr) {
                continue;
            }
            let lo = addr as usize;
            let hi = (lo + bytes as usize).min(shadow.bytes.len());
            for off in lo..hi {
                let b = &mut shadow.bytes[off];
                let conflict = if other_warp(b.writer) {
                    Some((b.writer, true))
                } else if is_store {
                    b.readers
                        .iter()
                        .find(|&&r| other_warp(r))
                        .map(|&r| (r, false))
                } else {
                    None
                };
                if let Some((prev, prev_write)) = conflict {
                    return Err(Box::new(RaceReport {
                        sm,
                        cta,
                        epoch: shadow.epoch,
                        barrier: shadow.barrier,
                        byte_lo: addr,
                        byte_hi: addr + u64::from(bytes),
                        prev: RaceAccess {
                            warp_in_cta: warp_of(prev),
                            pc: prev as u32 as usize,
                            is_write: prev_write,
                        },
                        curr: RaceAccess {
                            warp_in_cta,
                            pc,
                            is_write: is_store,
                        },
                    }));
                }
                if is_store {
                    b.writer = this;
                } else if !b.readers.iter().any(|&r| warp_of(r) == warp_in_cta) {
                    if let Some(slot) = b.readers.iter_mut().find(|r| **r == NO_ACCESS) {
                        *slot = this;
                    }
                }
            }
        }
        Ok(())
    }

    /// Checkpoint-encode the per-SM sanitizer state.
    pub(crate) fn ckpt_encode(&self, e: &mut Enc) {
        self.digest.put(e);
        self.shadows.put(e);
    }

    /// Checkpoint-decode per-SM sanitizer state written by
    /// [`ckpt_encode`](Self::ckpt_encode), validated against the expected
    /// CTA-slot count and shared-memory size.
    pub(crate) fn ckpt_decode(
        d: &mut Dec<'_>,
        n_cta_slots: usize,
        shared_bytes: usize,
    ) -> Result<SmSan, WireError> {
        let (digest, shadows): (u64, Vec<SmemShadow>) = Wire::get(d)?;
        if shadows.iter().any(|s| s.bytes.len() != shared_bytes) {
            return Err(WireError::Malformed("shadow byte count mismatch"));
        }
        if shadows.len() != n_cta_slots {
            return Err(WireError::Malformed("shadow CTA slot count mismatch"));
        }
        Ok(SmSan { digest, shadows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_compare_clean_unless_both_present_and_different() {
        check_digests("w", None, None).unwrap();
        check_digests("w", Some(1), None).unwrap();
        check_digests("w", Some(7), Some(7)).unwrap();
        let report = check_digests("w", Some(7), Some(8)).unwrap_err();
        let SanitizerReport::Determinism(d) = report.as_ref() else {
            panic!("wrong report kind: {report:?}");
        };
        assert_eq!((d.first, d.second), (7, 8));
        assert!(report.to_string().contains("determinism violated"));
    }

    fn lanes(addr: u64) -> Vec<(u32, u64)> {
        vec![(0, addr)]
    }

    #[test]
    fn same_warp_accesses_never_race() {
        let mut s = SmSan::new(1, 64);
        s.check_shared(0, 0, 0, 3, 10, true, &lanes(0), 4).unwrap();
        s.check_shared(0, 0, 0, 3, 11, false, &lanes(0), 4).unwrap();
        s.check_shared(0, 0, 0, 3, 12, true, &lanes(2), 4).unwrap();
    }

    #[test]
    fn cross_warp_write_read_races_with_both_pcs() {
        let mut s = SmSan::new(1, 64);
        s.check_shared(0, 1, 9, 0, 10, true, &lanes(8), 4).unwrap();
        let r = s
            .check_shared(0, 1, 9, 1, 20, false, &lanes(8), 4)
            .unwrap_err();
        assert_eq!(r.prev.pc, 10);
        assert!(r.prev.is_write);
        assert_eq!(r.curr.pc, 20);
        assert!(!r.curr.is_write);
        assert_eq!((r.byte_lo, r.byte_hi), (8, 12));
        assert_eq!(r.barrier, None);
        let text = r.to_string();
        assert!(text.contains("shared-memory race"), "{text}");
        assert!(text.contains("before the CTA's first barrier"), "{text}");
    }

    #[test]
    fn barrier_release_separates_epochs() {
        let mut s = SmSan::new(1, 64);
        s.check_shared(0, 0, 0, 0, 10, true, &lanes(0), 4).unwrap();
        s.barrier_release(0, 2);
        // Same bytes, different warp, new epoch: clean.
        s.check_shared(0, 0, 0, 1, 20, false, &lanes(0), 4).unwrap();
        // But a write inside this epoch now races and names the barrier.
        let r = s
            .check_shared(0, 0, 0, 2, 30, true, &lanes(0), 4)
            .unwrap_err();
        assert_eq!(r.barrier, Some(2));
        assert_eq!(r.epoch, 1);
        assert!(!r.prev.is_write, "reader recorded in new epoch");
        assert!(r.to_string().contains("bar.sync 2"), "{r}");
    }

    #[test]
    fn reader_slots_keep_two_distinct_warps() {
        let mut s = SmSan::new(1, 16);
        for warp in 0..4 {
            s.check_shared(0, 0, 0, warp, 10, false, &lanes(0), 4)
                .unwrap();
        }
        // Any writer still conflicts with a recorded reader.
        let r = s
            .check_shared(0, 0, 0, 9, 50, true, &lanes(0), 4)
            .unwrap_err();
        assert!(!r.prev.is_write);
    }

    /// The packed shadow writes the bytes the `Option<(u32, u32)>` slots
    /// did: a tag byte, then `warp_in_cta` and `pc` for a recorded access.
    /// The largest real warp index and pc survive a round trip; a snapshot
    /// naming warp `u32::MAX`, which no CTA has, is refused.
    #[test]
    fn packed_shadow_keeps_its_bytes_and_refuses_the_empty_word() {
        assert_eq!(std::mem::size_of::<ShadowByte>(), 24);
        let mut s = SmSan::new(1, 2);
        let top = u32::MAX - 1;
        s.check_shared(0, 0, 0, top, u32::MAX as usize, true, &lanes(0), 1)
            .unwrap();
        s.check_shared(0, 0, 0, 0, 7, false, &lanes(1), 1).unwrap();
        let mut e = Enc::new();
        s.ckpt_encode(&mut e);
        let bytes = e.into_bytes();
        let mut want = Enc::new();
        want.u64(s.digest);
        want.usize(1); // one CTA slot
        want.u64(0); // epoch
        want.u8(0); // no barrier yet
        want.usize(2); // shared bytes
        let slots = [
            [Some((top, u32::MAX)), None, None],
            [None, Some((0, 7)), None],
        ];
        for slot in slots.iter().flatten() {
            want.opt(slot, |e, &(w, pc)| {
                e.u32(w);
                e.u32(pc);
            });
        }
        assert_eq!(bytes, want.into_bytes());
        let back = SmSan::ckpt_decode(&mut Dec::new(&bytes), 1, 2).unwrap();
        let mut e = Enc::new();
        back.ckpt_encode(&mut e);
        assert_eq!(e.into_bytes(), bytes);
        let mut bad = bytes.clone();
        // Byte 0's writer: its warp follows the header and the tag byte.
        let at = 8 + 8 + 8 + 1 + 8 + 1;
        bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            SmSan::ckpt_decode(&mut Dec::new(&bad), 1, 2).unwrap_err(),
            WireError::Malformed("shadow warp index out of range")
        );
    }

    #[test]
    fn injection_counters_fire_once_on_nth() {
        let mut run = SanRun::new(SanInject::DuplicateResponse { nth: 2 });
        assert!(!run.should_duplicate_response());
        assert!(run.should_duplicate_response());
        assert!(!run.should_duplicate_response());
        let mut run = SanRun::new(SanInject::DropIcntStore { nth: 1 });
        assert!(!run.should_drop_store(false), "reads never dropped");
        assert!(run.should_drop_store(true));
        assert!(!run.should_drop_store(true));
        let mut none = SanRun::new(SanInject::None);
        assert!(!none.should_drop_mshr());
        assert!(!none.digest_noise());
    }
}
