//! A memory partition: one L2 cache slice fronting one DRAM channel.

use crate::wire::{Dec, Enc, Wire, WireError};
use crate::{
    AccessOutcome, Cache, CacheConfig, CacheStats, Cycle, DramChannel, DramConfig, DramStats,
    MemRequest,
};
use std::collections::VecDeque;

/// Configuration of one memory partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// The L2 slice.
    pub l2: CacheConfig,
    /// The DRAM channel behind it.
    pub dram: DramConfig,
    /// Input queue depth (requests arriving from the interconnect).
    pub input_queue_len: usize,
}

impl PartitionConfig {
    /// Fermi-like defaults (Table II).
    pub fn fermi() -> PartitionConfig {
        PartitionConfig {
            l2: CacheConfig::fermi_l2_slice(),
            dram: DramConfig::fermi(),
            input_queue_len: 8,
        }
    }
}

/// A partition-internal lifecycle event, surfaced for the sanitizer's
/// request-conservation checker.
///
/// The conservation ledger lives outside the memory components, but two
/// transitions happen *inside* the partition where the simulator cannot
/// observe them: a miss entering the DRAM bank queues, and a write-through
/// store retiring at DRAM. When sanitizing, the partition records them here
/// (only for tagged requests, `san != 0`) and the simulator drains them via
/// [`L2Partition::pop_event`]. When sanitizing is off no request carries a
/// tag and the queue stays empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionEvent {
    /// A request left the L2 miss queue and entered a DRAM bank queue.
    DramEntered,
    /// A write-through store finished at DRAM (its final stage).
    WriteRetired,
}

crate::declare_wire! {
    enum PartitionEvent "partition event tag" { DramEntered = 0, WriteRetired = 1 }
}

/// One L2-slice + DRAM-channel memory partition.
///
/// Requests enter via [`enqueue`](Self::enqueue) (from the interconnect),
/// progress on each [`tick`](Self::tick), and leave as responses via
/// [`pop_response`](Self::pop_response). Write requests are write-through
/// and produce no response.
#[derive(Debug)]
pub struct L2Partition {
    cache: Cache,
    dram: DramChannel,
    input: VecDeque<MemRequest>,
    input_queue_len: usize,
    /// Head request that failed an L2 reservation, retried next cycle.
    retry: Option<MemRequest>,
    /// Miss popped from the L2 that found DRAM full, retried next cycle.
    miss_retry: Option<MemRequest>,
    responses: VecDeque<(Cycle, MemRequest)>,
    /// Sanitizer events for tagged requests (empty unless sanitizing).
    events: VecDeque<(u64, PartitionEvent)>,
}

impl L2Partition {
    /// Create a partition.
    pub fn new(cfg: PartitionConfig) -> L2Partition {
        L2Partition {
            cache: Cache::new(cfg.l2),
            dram: DramChannel::new(cfg.dram),
            input: VecDeque::new(),
            input_queue_len: cfg.input_queue_len,
            retry: None,
            miss_retry: None,
            responses: VecDeque::new(),
            events: VecDeque::new(),
        }
    }

    /// Whether the input queue has space this cycle.
    pub fn can_enqueue(&self) -> bool {
        self.input.len() < self.input_queue_len
    }

    /// Accept a request from the interconnect. Returns false when full.
    pub fn enqueue(&mut self, req: MemRequest) -> bool {
        if !self.can_enqueue() {
            return false;
        }
        self.input.push_back(req);
        true
    }

    /// Advance one cycle.
    pub fn tick(&mut self, cycle: Cycle) {
        // 1. DRAM completions fill the L2 and release waiting requests.
        while let Some(done) = self.dram.pop_ready(cycle) {
            if done.is_write {
                // Write-through completion: nothing waits on it.
                if done.san != 0 {
                    self.events
                        .push_back((done.san, PartitionEvent::WriteRetired));
                }
                continue;
            }
            let mut waiters = self.cache.fill(done.block_addr, cycle);
            if waiters.is_empty() {
                // No reserved line (shouldn't happen for reads) — respond to
                // the request itself so it is not lost.
                waiters.push(done);
            }
            for mut w in waiters {
                w.t_l2_done = cycle;
                self.responses.push_back((cycle + 1, w));
            }
        }

        // 2. Service the head input request (or the blocked retry).
        if let Some(req) = self.retry.take().or_else(|| self.input.pop_front()) {
            let hit_latency = Cycle::from(self.cache.config().hit_latency);
            match self.cache.access(req, cycle) {
                AccessOutcome::Hit => {
                    let mut done = req;
                    done.t_l2_done = cycle + hit_latency;
                    self.responses.push_back((cycle + hit_latency, done));
                }
                AccessOutcome::HitReserved | AccessOutcome::MissIssued => {}
                AccessOutcome::ReservationFailTags
                | AccessOutcome::ReservationFailMshr
                | AccessOutcome::ReservationFailIcnt => {
                    self.retry = Some(req);
                }
            }
        }

        // 3. Move one queued miss into DRAM.
        if let Some(miss) = self.miss_retry.take().or_else(|| self.cache.pop_miss()) {
            if self.dram.try_push(miss, cycle) {
                if miss.san != 0 {
                    self.events
                        .push_back((miss.san, PartitionEvent::DramEntered));
                }
            } else {
                self.miss_retry = Some(miss);
            }
        }

        // 4. DRAM scheduling.
        self.dram.tick(cycle);
    }

    /// Pop a ready response (read completions only).
    pub fn pop_response(&mut self, cycle: Cycle) -> Option<MemRequest> {
        if let Some(&(ready, _)) = self.responses.front() {
            if ready <= cycle {
                return self.responses.pop_front().map(|(_, r)| r);
            }
        }
        None
    }

    /// Pop a sanitizer lifecycle event for a tagged request, if any (see
    /// [`PartitionEvent`]). Always empty when sanitizing is off.
    pub fn pop_event(&mut self) -> Option<(u64, PartitionEvent)> {
        self.events.pop_front()
    }

    /// The partition's L2 slice, for fault-injection hooks in sanitizer
    /// tests (e.g. [`Cache::forget_mshr`]). Never used on the normal path.
    pub fn cache_mut(&mut self) -> &mut Cache {
        &mut self.cache
    }

    /// Whether the partition is fully drained.
    pub fn is_empty(&self) -> bool {
        self.input.is_empty()
            && self.retry.is_none()
            && self.miss_retry.is_none()
            && self.responses.is_empty()
            && self.dram.is_empty()
            && self.cache.inflight() == 0
    }

    /// The L2 slice's statistics.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// The DRAM channel's statistics.
    pub fn dram_stats(&self) -> &DramStats {
        self.dram.stats()
    }

    /// Take and reset both the L2 and DRAM statistics.
    pub fn take_stats(&mut self) -> (CacheStats, DramStats) {
        (self.cache.take_stats(), self.dram.take_stats())
    }

    /// Checkpoint-encode the partition: L2 slice, DRAM channel, input queue,
    /// retry slots, response queue and pending sanitizer events.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.cache.ckpt_encode(e);
        self.dram.ckpt_encode(e);
        self.input.put(e);
        self.retry.put(e);
        self.miss_retry.put(e);
        self.responses.put(e);
        self.events.put(e);
    }

    /// Checkpoint-decode a partition written by
    /// [`ckpt_encode`](Self::ckpt_encode) against configuration `cfg`.
    pub fn ckpt_decode(d: &mut Dec<'_>, cfg: PartitionConfig) -> Result<L2Partition, WireError> {
        let cache = Cache::ckpt_decode(d, cfg.l2)?;
        let dram = DramChannel::ckpt_decode(d, cfg.dram)?;
        let input: VecDeque<MemRequest> = Wire::get(d)?;
        if input.len() > cfg.input_queue_len {
            return Err(WireError::Malformed("partition input queue overflow"));
        }
        let (retry, miss_retry, responses, events) = Wire::get(d)?;
        Ok(L2Partition {
            cache,
            dram,
            input,
            input_queue_len: cfg.input_queue_len,
            retry,
            miss_retry,
            responses,
            events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassTag;

    fn rd(id: u64, addr: u64) -> MemRequest {
        MemRequest::read(id, addr, 0, ClassTag::NonDeterministic, id, 0)
    }

    fn run(part: &mut L2Partition, until: Cycle) -> Vec<(Cycle, MemRequest)> {
        let mut out = Vec::new();
        for cycle in 0..until {
            part.tick(cycle);
            while let Some(r) = part.pop_response(cycle) {
                out.push((cycle, r));
            }
        }
        out
    }

    #[test]
    fn read_misses_to_dram_then_hits() {
        let mut part = L2Partition::new(PartitionConfig::fermi());
        assert!(part.enqueue(rd(1, 0x80)));
        let done = run(&mut part, 300);
        assert_eq!(done.len(), 1);
        let (t1, r1) = done[0];
        assert!(t1 >= 100, "DRAM latency not paid: {t1}");
        assert_eq!(r1.id, 1);
        assert_eq!(r1.t_l2_done, t1 - 1);

        // Same block again (the helper restarts the clock): L2 hit, fast.
        assert!(part.enqueue(rd(2, 0x80)));
        let done = run(&mut part, 400);
        assert_eq!(done.len(), 1);
        assert!(done[0].0 < 20, "expected L2 hit latency, got {}", done[0].0);
    }

    #[test]
    fn concurrent_same_block_requests_merge() {
        let mut part = L2Partition::new(PartitionConfig::fermi());
        part.enqueue(rd(1, 0x100));
        part.enqueue(rd(2, 0x100));
        let done = run(&mut part, 300);
        assert_eq!(done.len(), 2);
        // Both released by the same fill, one cycle apart at most.
        assert!(done[1].0 - done[0].0 <= 1);
    }

    #[test]
    fn writes_produce_no_response() {
        let mut part = L2Partition::new(PartitionConfig::fermi());
        part.enqueue(MemRequest::write(1, 0x80, 0, 0));
        let done = run(&mut part, 300);
        assert!(done.is_empty());
        assert!(part.is_empty());
        assert_eq!(part.cache_stats().writes_forwarded, 1);
        assert_eq!(part.dram_stats().serviced, 1);
    }

    #[test]
    fn input_queue_bound() {
        let cfg = PartitionConfig {
            input_queue_len: 2,
            ..PartitionConfig::fermi()
        };
        let mut part = L2Partition::new(cfg);
        assert!(part.enqueue(rd(1, 0x0)));
        assert!(part.enqueue(rd(2, 0x80)));
        assert!(!part.can_enqueue());
        assert!(!part.enqueue(rd(3, 0x100)));
    }

    #[test]
    fn drains_to_empty() {
        let mut part = L2Partition::new(PartitionConfig::fermi());
        for i in 0..8 {
            part.enqueue(rd(i, 0x80 * i));
        }
        run(&mut part, 2000);
        assert!(part.is_empty());
    }
}
