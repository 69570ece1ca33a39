//! The memory side: the crossbar, the L2/DRAM partitions behind it and the
//! address map. It outlives launches (the L2 stays warm); an abandoned
//! launch replaces it with an empty one.

use crate::ckpt::CheckpointError;
use crate::san::SanRun;
use crate::{GpuConfig, LaunchStats};
use gcl_mem::{
    AddrMap, ConservationReport, Cycle, Dec, Enc, Icnt, L2Partition, MemRequest, PartitionEvent,
    SanStage,
};

/// SMs inject requests and pop responses; the launch ticks it once a
/// cycle, after every SM.
#[derive(Debug)]
pub(crate) struct MemSys {
    icnt: Icnt,
    partitions: Vec<L2Partition>,
    /// A pure function of the configuration, kept across restores.
    addrmap: AddrMap,
}

impl MemSys {
    /// An empty memory side for `cfg`.
    pub(crate) fn new(cfg: &GpuConfig) -> MemSys {
        MemSys {
            icnt: Icnt::new(cfg.icnt, cfg.n_sms, cfg.n_partitions),
            partitions: (0..cfg.n_partitions)
                .map(|_| L2Partition::new(cfg.partition))
                .collect(),
            addrmap: AddrMap::new(cfg.n_partitions, cfg.n_sms, cfg.l2_topology),
        }
    }

    pub(crate) fn can_inject_request(&self, sm: usize) -> bool {
        self.icnt.can_inject_request(sm)
    }

    /// Send SM `sm`'s request towards the partition that owns its block.
    pub(crate) fn inject_request(&mut self, sm: usize, req: MemRequest) -> bool {
        let part = self.addrmap.partition_of(req.block_addr, sm);
        self.icnt.inject_request(sm, part, req)
    }

    pub(crate) fn pop_response(&mut self, sm: usize, now: Cycle) -> Option<MemRequest> {
        self.icnt.pop_response(sm, now)
    }

    /// Whether a response for SM `sm` can be popped at `now`.
    pub(crate) fn response_due(&self, sm: usize, now: Cycle) -> bool {
        self.icnt.next_response_at(sm).is_some_and(|at| at <= now)
    }

    /// One cycle: the crossbar, then each partition (take one request, tick
    /// L2 and DRAM, return responses while the crossbar has room). Every hop
    /// of a tagged request is a ledger transition; the first violation is
    /// returned once every partition has ticked.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        mut san: Option<&mut SanRun>,
    ) -> Result<(), Box<ConservationReport>> {
        let mut first = None;
        // `None` retires the request (a write-through copy left DRAM).
        let mut ledger = |id: u64, stage: Option<SanStage>| {
            let Some(sr) = san.as_deref_mut().filter(|_| id != 0) else {
                return;
            };
            let res = match stage {
                Some(stage) => sr.ledger.transition(id, stage, now),
                None => sr.ledger.retire(id, now),
            };
            if let Err(r) = res {
                first.get_or_insert(r);
            }
        };
        self.icnt.tick(now);
        for (p, part) in self.partitions.iter_mut().enumerate() {
            if part.can_enqueue() {
                if let Some(req) = self.icnt.pop_request(p, now) {
                    ledger(req.san, Some(SanStage::L2));
                    let ok = part.enqueue(req);
                    debug_assert!(ok);
                }
            }
            part.tick(now);
            // Events exist only for tagged requests, so only when sanitizing.
            while let Some((id, ev)) = part.pop_event() {
                ledger(
                    id,
                    (ev == PartitionEvent::DramEntered).then_some(SanStage::Dram),
                );
            }
            while self.icnt.can_inject_response(p) {
                let Some(resp) = part.pop_response(now) else {
                    break;
                };
                ledger(resp.san, Some(SanStage::IcntResp));
                let ok = self.icnt.inject_response(p, resp);
                debug_assert!(ok);
            }
        }
        first.map_or(Ok(()), Err)
    }

    /// Whether no request is anywhere on the memory side.
    pub(crate) fn is_empty(&self) -> bool {
        self.icnt.is_empty() && self.partitions.iter().all(L2Partition::is_empty)
    }

    /// Move the partitions' L2 and DRAM statistics into `stats`.
    pub(crate) fn harvest(&mut self, stats: &mut LaunchStats) {
        for part in &mut self.partitions {
            let (l2_stats, dram_stats) = part.take_stats();
            stats.l2.merge(&l2_stats);
            stats.add_dram(&dram_stats);
        }
    }

    /// Checkpoint-encode the crossbar, then the partitions.
    pub(crate) fn ckpt_encode(&self, e: &mut Enc) {
        self.icnt.ckpt_encode(e);
        e.seq(&self.partitions, |e, p| p.ckpt_encode(e));
    }

    /// Decode what [`ckpt_encode`](Self::ckpt_encode) wrote, keeping this
    /// address map.
    pub(crate) fn ckpt_decode(
        &self,
        d: &mut Dec<'_>,
        cfg: &GpuConfig,
    ) -> Result<MemSys, CheckpointError> {
        let icnt = Icnt::ckpt_decode(d, cfg.icnt, cfg.n_sms, cfg.n_partitions)?;
        let partitions = d.seq(|d| L2Partition::ckpt_decode(d, cfg.partition))?;
        if partitions.len() != cfg.n_partitions {
            return Err(CheckpointError::Malformed("partition count mismatch"));
        }
        Ok(MemSys {
            icnt,
            partitions,
            addrmap: self.addrmap,
        })
    }
}
