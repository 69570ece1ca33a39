//! Request-conservation ledger: the memory-path half of the `simsan`
//! runtime sanitizer.
//!
//! Every aggregate the reproduction publishes is a fold over millions of
//! [`MemRequest`](crate::MemRequest) events, so a single request silently
//! lost or duplicated anywhere on the L1 → interconnect → L2 → DRAM path
//! corrupts results without failing a test. When sanitizing, the simulator
//! assigns each request a launch-unique nonzero tag (`MemRequest::san`) at
//! coalescing and drives its lifecycle through this ledger. The ledger
//! enforces the legal state machine at every transition and proves full
//! drainage at launch end; any deviation produces a structured
//! [`ConservationReport`].
//!
//! The ledger is deliberately component-agnostic: caches, the interconnect
//! and the partitions never see it. The simulator observes requests at the
//! seams it already touches (L1 access outcome, miss-queue drain,
//! interconnect inject/eject, partition enqueue/response) and the partition
//! surfaces its two internal transitions — DRAM entry and write
//! retirement — as [`PartitionEvent`](crate::PartitionEvent)s.

use crate::wire::{get_map, put_sorted, Codec};
use crate::{ClassTag, Cycle};
use std::collections::HashMap;
use std::fmt;

/// Lifecycle stage of one tracked request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanStage {
    /// Created by the coalescer, not yet accepted by the L1.
    Coalesced,
    /// L1 hit: completes locally after the hit latency.
    L1Hit,
    /// Merged into an existing L1 MSHR entry; released by that entry's fill.
    MshrMerged,
    /// L1 miss issued: line reserved, MSHR allocated, request in the miss
    /// queue awaiting interconnect injection.
    MissQueue,
    /// In flight toward a memory partition in the interconnect.
    IcntReq,
    /// Inside an L2 partition (input queue, L2 slice, or an L2 MSHR).
    L2,
    /// In a DRAM bank queue or being serviced by the channel.
    Dram,
    /// Response in flight back toward the SM in the interconnect.
    IcntResp,
    /// Response arrived at the SM; about to release its L1 waiters.
    Returned,
}

impl SanStage {
    fn can_advance_to(self, to: SanStage) -> bool {
        use SanStage::*;
        matches!(
            (self, to),
            (Coalesced, L1Hit | MshrMerged | MissQueue)
                | (MissQueue, IcntReq)
                | (IcntReq, L2)
                | (L2, Dram | IcntResp)
                | (Dram, IcntResp)
                | (IcntResp, Returned)
        )
    }

    fn can_retire(self) -> bool {
        use SanStage::*;
        // Reads retire when their fill releases them (lead from `Returned`,
        // merged waiters straight from `MshrMerged`, hits from `L1Hit`);
        // writes retire at DRAM; dropped prefetches retire unaccepted.
        matches!(self, Coalesced | L1Hit | MshrMerged | Returned | Dram)
    }
}

crate::declare_wire! {
    enum SanStage "sanitizer stage tag" {
        Coalesced = 0, L1Hit = 1, MshrMerged = 2, MissQueue = 3, IcntReq = 4,
        L2 = 5, Dram = 6, IcntResp = 7, Returned = 8,
    }
}

impl fmt::Display for SanStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SanStage::Coalesced => "coalesced (awaiting L1)",
            SanStage::L1Hit => "L1 hit",
            SanStage::MshrMerged => "L1 MSHR (merged)",
            SanStage::MissQueue => "L1 miss queue",
            SanStage::IcntReq => "interconnect (request)",
            SanStage::L2 => "L2 partition",
            SanStage::Dram => "DRAM",
            SanStage::IcntResp => "interconnect (response)",
            SanStage::Returned => "returned to SM",
        })
    }
}

/// What a conservation check found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConservationKind {
    /// A request moved between two stages the state machine does not
    /// connect (e.g. a response for a request still in a miss queue).
    IllegalTransition {
        /// Stage the request was last seen in.
        from: SanStage,
        /// Stage the illegal event tried to move it to.
        to: SanStage,
    },
    /// An event arrived for an id the ledger no longer (or never) tracks —
    /// the signature of a duplicated response or completion.
    DoubleResponse {
        /// Stage the duplicate event tried to move the request to.
        to: SanStage,
    },
    /// A fill or response arrived for a block with no waiting request.
    ResponseWithoutRequest,
    /// Live requests remained at launch end: something in the hierarchy
    /// dropped them (leaked MSHR entry, lost packet, stuck queue).
    Leak {
        /// How many tracked requests never completed.
        live: u64,
    },
}

/// A structured request-conservation violation: which request, where it was
/// last seen, and what rule broke. The payload of
/// `SimError::Sanitizer` on the conservation path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationReport {
    /// The violated rule.
    pub kind: ConservationKind,
    /// The sanitizer tag of the offending request (zero if unknown).
    pub san_id: u64,
    /// Issuing pc (`None` for prefetches and requests the ledger lost).
    pub pc: Option<usize>,
    /// D/N class of the request.
    pub class: ClassTag,
    /// Whether it was a store.
    pub is_write: bool,
    /// Block address the request targeted.
    pub block_addr: u64,
    /// SM that issued it.
    pub sm: u16,
    /// Last-known stage.
    pub stage: SanStage,
    /// Cycle of the request's last observed transition (for leaks) or of
    /// the violating event itself.
    pub cycle: Cycle,
}

impl fmt::Display for ConservationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request conservation violated: ")?;
        match self.kind {
            ConservationKind::IllegalTransition { from, to } => {
                write!(f, "illegal transition from `{from}` to `{to}`")?;
            }
            ConservationKind::DoubleResponse { to } => {
                write!(
                    f,
                    "event `{to}` for a request already completed (double response)"
                )?;
            }
            ConservationKind::ResponseWithoutRequest => {
                write!(f, "response arrived with no waiting request")?;
            }
            ConservationKind::Leak { live } => {
                write!(f, "{live} request(s) still live at launch end")?;
            }
        }
        let dir = if self.is_write { "store" } else { "load" };
        write!(
            f,
            "\n  request #{}: {dir} of block 0x{:x} from SM {}",
            self.san_id, self.block_addr, self.sm
        )?;
        if let Some(pc) = self.pc {
            write!(f, ", pc {pc}")?;
        }
        write!(
            f,
            "\n  class {:?}, last seen at stage `{}` (cycle {})",
            self.class, self.stage, self.cycle
        )
    }
}

/// Static facts about a request, recorded at creation time so violation
/// and leak reports can name the pc and class even after the request
/// vanished downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqInfo {
    /// Issuing pc (`None` for hardware prefetches).
    pub pc: Option<usize>,
    /// D/N class.
    pub class: ClassTag,
    /// Whether it is a store.
    pub is_write: bool,
    /// Target block address.
    pub block_addr: u64,
    /// Issuing SM.
    pub sm: u16,
}

crate::declare_wire! { ReqInfo { pc, class, is_write, block_addr, sm } }

#[derive(Debug, Clone, Copy)]
struct Tracked {
    info: ReqInfo,
    stage: SanStage,
    last_cycle: Cycle,
}

crate::declare_wire! { Tracked { info, stage, last_cycle } }

/// The conservation checker: every tracked request's current stage, with
/// legality enforced on each transition and a drainage proof at launch end.
#[derive(Debug, Default)]
pub struct RequestLedger {
    live: HashMap<u64, Tracked>,
    next_id: u64,
    created: u64,
    retired: u64,
}

/// Live requests in sorted tag order, for byte stability.
const LIVE: Codec<HashMap<u64, Tracked>> = Codec {
    put: put_sorted,
    get: |d| get_map(d, "duplicate ledger id"),
};

crate::declare_wire! { RequestLedger { live: LIVE, next_id, created, retired } }

impl RequestLedger {
    /// Create an empty ledger.
    pub fn new() -> RequestLedger {
        RequestLedger::default()
    }

    /// Register a freshly coalesced request and return its unique nonzero
    /// tag (to be stored in [`MemRequest::san`](crate::MemRequest::san)).
    pub fn create(&mut self, info: ReqInfo, cycle: Cycle) -> u64 {
        self.next_id += 1;
        self.created += 1;
        let id = self.next_id;
        self.live.insert(
            id,
            Tracked {
                info,
                stage: SanStage::Coalesced,
                last_cycle: cycle,
            },
        );
        id
    }

    fn unknown_report(&self, san_id: u64, to: SanStage, cycle: Cycle) -> Box<ConservationReport> {
        Box::new(ConservationReport {
            kind: ConservationKind::DoubleResponse { to },
            san_id,
            pc: None,
            class: ClassTag::Other,
            is_write: false,
            block_addr: 0,
            sm: 0,
            stage: to,
            cycle,
        })
    }

    /// Move a request to `to`, checking the transition is legal.
    ///
    /// # Errors
    ///
    /// [`ConservationKind::DoubleResponse`] if the id is not live,
    /// [`ConservationKind::IllegalTransition`] if the state machine does
    /// not connect the request's current stage to `to`.
    pub fn transition(
        &mut self,
        san_id: u64,
        to: SanStage,
        cycle: Cycle,
    ) -> Result<(), Box<ConservationReport>> {
        let Some(t) = self.live.get_mut(&san_id) else {
            return Err(self.unknown_report(san_id, to, cycle));
        };
        if !t.stage.can_advance_to(to) {
            return Err(Box::new(ConservationReport {
                kind: ConservationKind::IllegalTransition { from: t.stage, to },
                san_id,
                pc: t.info.pc,
                class: t.info.class,
                is_write: t.info.is_write,
                block_addr: t.info.block_addr,
                sm: t.info.sm,
                stage: t.stage,
                cycle,
            }));
        }
        t.stage = to;
        t.last_cycle = cycle;
        Ok(())
    }

    /// Complete a request (fill released it, local hit finished, or a write
    /// retired at DRAM) and drop it from the live set.
    ///
    /// # Errors
    ///
    /// [`ConservationKind::DoubleResponse`] if the id is not live (a second
    /// completion), [`ConservationKind::IllegalTransition`] if its current
    /// stage cannot retire.
    pub fn retire(&mut self, san_id: u64, cycle: Cycle) -> Result<(), Box<ConservationReport>> {
        let Some(t) = self.live.get(&san_id) else {
            return Err(self.unknown_report(san_id, SanStage::Returned, cycle));
        };
        if !t.stage.can_retire() {
            return Err(Box::new(ConservationReport {
                kind: ConservationKind::IllegalTransition {
                    from: t.stage,
                    to: SanStage::Returned,
                },
                san_id,
                pc: t.info.pc,
                class: t.info.class,
                is_write: t.info.is_write,
                block_addr: t.info.block_addr,
                sm: t.info.sm,
                stage: t.stage,
                cycle,
            }));
        }
        self.live.remove(&san_id);
        self.retired += 1;
        Ok(())
    }

    /// Build the report for a response that found no waiting request
    /// (empty fill) — the ledger cannot observe this itself, so the caller
    /// supplies the response's facts.
    pub fn response_without_request(
        &self,
        san_id: u64,
        block_addr: u64,
        sm: u16,
        class: ClassTag,
        cycle: Cycle,
    ) -> Box<ConservationReport> {
        Box::new(ConservationReport {
            kind: ConservationKind::ResponseWithoutRequest,
            san_id,
            pc: self.live.get(&san_id).and_then(|t| t.info.pc),
            class,
            is_write: false,
            block_addr,
            sm,
            stage: SanStage::Returned,
            cycle,
        })
    }

    /// Number of tracked requests not yet completed.
    pub fn live(&self) -> u64 {
        self.live.len() as u64
    }

    /// Total requests registered / completed so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.created, self.retired)
    }

    /// Prove full drainage at launch end.
    ///
    /// # Errors
    ///
    /// [`ConservationKind::Leak`] naming the oldest-tagged live request as
    /// witness if anything is still tracked.
    pub fn check_drained(&self, _end_cycle: Cycle) -> Result<(), Box<ConservationReport>> {
        let Some((&id, t)) = self.live.iter().min_by_key(|(&id, _)| id) else {
            return Ok(());
        };
        Err(Box::new(ConservationReport {
            kind: ConservationKind::Leak {
                live: self.live.len() as u64,
            },
            san_id: id,
            pc: t.info.pc,
            class: t.info.class,
            is_write: t.info.is_write,
            block_addr: t.info.block_addr,
            sm: t.info.sm,
            stage: t.stage,
            cycle: t.last_cycle,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(block: u64) -> ReqInfo {
        ReqInfo {
            pc: Some(7),
            class: ClassTag::NonDeterministic,
            is_write: false,
            block_addr: block,
            sm: 1,
        }
    }

    #[test]
    fn full_read_lifecycle_is_legal() {
        let mut led = RequestLedger::new();
        let id = led.create(info(0x80), 10);
        assert_ne!(id, 0);
        for (stage, cyc) in [
            (SanStage::MissQueue, 11),
            (SanStage::IcntReq, 12),
            (SanStage::L2, 20),
            (SanStage::Dram, 25),
            (SanStage::IcntResp, 130),
            (SanStage::Returned, 140),
        ] {
            led.transition(id, stage, cyc).unwrap();
        }
        led.retire(id, 140).unwrap();
        assert_eq!(led.live(), 0);
        assert_eq!(led.totals(), (1, 1));
        led.check_drained(200).unwrap();
    }

    #[test]
    fn merged_and_hit_requests_retire_from_their_stage() {
        let mut led = RequestLedger::new();
        let hit = led.create(info(0x80), 1);
        led.transition(hit, SanStage::L1Hit, 1).unwrap();
        led.retire(hit, 3).unwrap();
        let merged = led.create(info(0x100), 2);
        led.transition(merged, SanStage::MshrMerged, 2).unwrap();
        led.retire(merged, 90).unwrap();
        assert_eq!(led.live(), 0);
    }

    #[test]
    fn illegal_transition_reports_both_stages_and_pc() {
        let mut led = RequestLedger::new();
        let id = led.create(info(0x40), 5);
        // Coalesced -> Returned skips the entire path.
        let report = led.transition(id, SanStage::Returned, 6).unwrap_err();
        assert_eq!(
            report.kind,
            ConservationKind::IllegalTransition {
                from: SanStage::Coalesced,
                to: SanStage::Returned,
            }
        );
        assert_eq!(report.pc, Some(7));
        assert_eq!(report.san_id, id);
        let text = report.to_string();
        assert!(text.contains("illegal transition"), "{text}");
        assert!(text.contains("coalesced"), "{text}");
        assert!(text.contains("pc 7"), "{text}");
    }

    #[test]
    fn double_retire_is_a_double_response() {
        let mut led = RequestLedger::new();
        let id = led.create(info(0x80), 1);
        led.transition(id, SanStage::L1Hit, 1).unwrap();
        led.retire(id, 2).unwrap();
        let report = led.retire(id, 3).unwrap_err();
        assert!(matches!(
            report.kind,
            ConservationKind::DoubleResponse { .. }
        ));
        assert!(report.to_string().contains("double response"));
    }

    #[test]
    fn leak_reports_oldest_live_request() {
        let mut led = RequestLedger::new();
        let a = led.create(info(0x80), 1);
        let b = led.create(info(0x100), 2);
        led.transition(a, SanStage::MissQueue, 3).unwrap();
        led.transition(a, SanStage::IcntReq, 4).unwrap();
        let report = led.check_drained(1000).unwrap_err();
        assert_eq!(report.kind, ConservationKind::Leak { live: 2 });
        assert_eq!(report.san_id, a.min(b));
        assert_eq!(report.stage, SanStage::IcntReq);
        assert_eq!(report.cycle, 4);
        let text = report.to_string();
        assert!(text.contains("still live"), "{text}");
        assert!(text.contains("interconnect (request)"), "{text}");
    }

    #[test]
    fn response_without_request_renders() {
        let led = RequestLedger::new();
        let report = led.response_without_request(42, 0x1200, 3, ClassTag::Deterministic, 77);
        assert_eq!(report.kind, ConservationKind::ResponseWithoutRequest);
        let text = report.to_string();
        assert!(text.contains("no waiting request"), "{text}");
        assert!(text.contains("0x1200"), "{text}");
        assert!(text.contains("SM 3"), "{text}");
    }

    #[test]
    fn writes_retire_from_dram() {
        let mut led = RequestLedger::new();
        let w = led.create(
            ReqInfo {
                is_write: true,
                ..info(0x80)
            },
            1,
        );
        led.transition(w, SanStage::MissQueue, 1).unwrap();
        led.transition(w, SanStage::IcntReq, 2).unwrap();
        led.transition(w, SanStage::L2, 3).unwrap();
        led.transition(w, SanStage::Dram, 4).unwrap();
        led.retire(w, 110).unwrap();
        led.check_drained(200).unwrap();
    }
}
