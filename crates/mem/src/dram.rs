//! DRAM channel model: per-bank serialization, shared data bus, fixed access
//! latency plus load-dependent queueing.
//!
//! This is deliberately simpler than a full GDDR5 timing model; what the
//! paper's Figures 5 and 7 need is that (a) an unloaded access costs a fixed
//! latency and (b) bursty traffic queues behind busy banks and a
//! bandwidth-limited bus, stretching the tail of multi-request loads.

use crate::wire::{Dec, Enc, Wire, WireError};
use crate::{Cycle, MemRequest};
use std::collections::{BinaryHeap, VecDeque};

/// DRAM channel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per channel.
    pub banks: usize,
    /// Fixed access latency in core cycles (the paper's Table II uses 100).
    pub access_latency: u32,
    /// Minimum cycles between successive completions on the channel's data
    /// bus (burst length / bandwidth model).
    pub data_bus_gap: u32,
    /// Cycles a bank stays busy per access (row activate + CAS + precharge).
    pub bank_busy: u32,
    /// Input queue depth.
    pub queue_len: usize,
}

impl DramConfig {
    /// Fermi-like defaults matching the paper's Table II (`DRAM latency 100`).
    pub fn fermi() -> DramConfig {
        DramConfig {
            banks: 8,
            access_latency: 100,
            data_bus_gap: 4,
            bank_busy: 16,
            queue_len: 32,
        }
    }
}

/// A scheduled request, waiting in the completion heap until its data
/// returns.
#[derive(Debug)]
struct Completion {
    ready: Cycle,
    seq: u64,
    /// Position in the checkpoint's request table (the count of requests
    /// scheduled before this one).
    req_index: usize,
    req: MemRequest,
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by ready time (then by sequence for determinism).
        other.ready.cmp(&self.ready).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Completion {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Completion {}

/// Per-channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DramStats {
    /// Requests serviced.
    pub serviced: u64,
    /// Sum of (completion - arrival) latencies.
    pub total_latency: u64,
    /// Peak queue occupancy observed.
    pub peak_queue: usize,
}

crate::declare_wire! { DramStats { serviced, total_latency, peak_queue } }

impl DramStats {
    /// Mean service latency, or `NaN` when nothing was serviced.
    pub fn mean_latency(&self) -> f64 {
        if self.serviced == 0 {
            f64::NAN
        } else {
            self.total_latency as f64 / self.serviced as f64
        }
    }
}

/// One DRAM channel.
///
/// Push requests with [`DramChannel::try_push`]; each call to
/// [`DramChannel::tick`] schedules newly-arrived requests onto banks; pull
/// finished requests with [`DramChannel::pop_ready`]. A request is held only
/// while it is queued or in flight: the completion heap owns it until
/// `pop_ready` hands it back.
#[derive(Debug)]
pub struct DramChannel {
    cfg: DramConfig,
    queue: VecDeque<(Cycle, MemRequest)>,
    bank_free_at: Vec<Cycle>,
    bus_free_at: Cycle,
    completions: BinaryHeap<Completion>,
    /// Requests ever scheduled: the length of the checkpoint's request
    /// table.
    scheduled: usize,
    seq: u64,
    stats: DramStats,
}

impl DramChannel {
    /// Create a channel.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `queue_len` is zero.
    pub fn new(cfg: DramConfig) -> DramChannel {
        assert!(cfg.banks > 0 && cfg.queue_len > 0);
        DramChannel {
            cfg,
            queue: VecDeque::new(),
            bank_free_at: vec![0; cfg.banks],
            bus_free_at: 0,
            completions: BinaryHeap::new(),
            scheduled: 0,
            seq: 0,
            stats: DramStats::default(),
        }
    }

    /// Whether the input queue has space.
    pub fn can_push(&self) -> bool {
        self.queue.len() < self.cfg.queue_len
    }

    /// Enqueue a request arriving at `cycle`. Returns false if full.
    pub fn try_push(&mut self, req: MemRequest, cycle: Cycle) -> bool {
        if !self.can_push() {
            return false;
        }
        self.queue.push_back((cycle, req));
        self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
        true
    }

    fn bank_of(&self, block_addr: u64) -> usize {
        ((block_addr >> 7) % self.cfg.banks as u64) as usize
    }

    /// Schedule queued requests whose bank and bus are available.
    pub fn tick(&mut self, cycle: Cycle) {
        // FCFS: schedule from the head while resources allow. One schedule
        // per cycle models command bandwidth.
        if let Some(&(arrival, req)) = self.queue.front() {
            let bank = self.bank_of(req.block_addr);
            let start = cycle.max(self.bank_free_at[bank]).max(arrival);
            let done = start.max(self.bus_free_at) + Cycle::from(self.cfg.access_latency);
            self.bank_free_at[bank] = start + Cycle::from(self.cfg.bank_busy);
            self.bus_free_at = self.bus_free_at.max(start) + Cycle::from(self.cfg.data_bus_gap);
            self.queue.pop_front();
            self.completions.push(Completion {
                ready: done,
                seq: self.seq,
                req_index: self.scheduled,
                req,
            });
            self.scheduled += 1;
            self.seq += 1;
            self.stats.serviced += 1;
            self.stats.total_latency += done - arrival;
        }
    }

    /// Pop a completed request at `cycle`, if any.
    pub fn pop_ready(&mut self, cycle: Cycle) -> Option<MemRequest> {
        if let Some(c) = self.completions.peek() {
            if c.ready <= cycle {
                return self.completions.pop().map(|c| c.req);
            }
        }
        None
    }

    /// Whether the channel has no queued or in-flight requests.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.completions.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Take and reset the statistics.
    pub fn take_stats(&mut self) -> DramStats {
        std::mem::take(&mut self.stats)
    }

    /// Checkpoint-encode the channel. The completion heap is written as a
    /// vector sorted by `(ready, seq)` so the encoding is byte-stable. The
    /// in-flight requests follow as a table with one entry per request ever
    /// scheduled, indexed by `req_index`: every entry a completion does not
    /// reference is an empty option (one byte), written without being held.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.queue.put(e);
        self.bank_free_at.put(e);
        self.bus_free_at.put(e);
        let mut comps: Vec<&Completion> = self.completions.iter().collect();
        comps.sort_unstable_by_key(|c| (c.ready, c.seq));
        e.seq(&comps, |e, c| (c.ready, c.seq, c.req_index).put(e));
        comps.sort_unstable_by_key(|c| c.req_index);
        e.usize(self.scheduled);
        let mut next = 0;
        for c in comps {
            for _ in next..c.req_index {
                e.u8(0);
            }
            e.u8(1);
            c.req.put(e);
            next = c.req_index + 1;
        }
        for _ in next..self.scheduled {
            e.u8(0);
        }
        (self.seq, self.stats).put(e);
    }

    /// Checkpoint-decode a channel written by
    /// [`ckpt_encode`](Self::ckpt_encode) against configuration `cfg`.
    ///
    /// The request table is read as a stream, each entry handed to the
    /// completion that references it. A completion whose entry is empty or
    /// missing is rejected, and so is an entry no completion references:
    /// an encode never writes one, and the channel could not write it back.
    pub fn ckpt_decode(d: &mut Dec<'_>, cfg: DramConfig) -> Result<DramChannel, WireError> {
        let queue: VecDeque<(Cycle, MemRequest)> = Wire::get(d)?;
        if queue.len() > cfg.queue_len {
            return Err(WireError::Malformed("DRAM queue overflow"));
        }
        let bank_free_at: Vec<Cycle> = Wire::get(d)?;
        if bank_free_at.len() != cfg.banks {
            return Err(WireError::Malformed("DRAM bank count mismatch"));
        }
        let bus_free_at = Cycle::get(d)?;
        const DANGLING: WireError = WireError::Malformed("DRAM completion index dangling");
        let mut pending: Vec<(Cycle, u64, usize)> = Wire::get(d)?;
        pending.sort_unstable_by_key(|&(_, _, req_index)| req_index);
        let scheduled = d.seq_len()?;
        let mut completions = BinaryHeap::with_capacity(pending.len());
        let mut waiting = pending.into_iter().peekable();
        for i in 0..scheduled {
            let entry = Option::<MemRequest>::get(d)?;
            match (entry, waiting.next_if(|&(_, _, at)| at == i)) {
                (Some(req), Some((ready, seq, req_index))) => completions.push(Completion {
                    ready,
                    seq,
                    req_index,
                    req,
                }),
                (None, Some(_)) => return Err(DANGLING),
                (Some(_), None) => {
                    return Err(WireError::Malformed("DRAM table entry unreferenced"))
                }
                (None, None) => {}
            }
        }
        // Left over: a completion past the table, or a second one on an
        // entry an earlier completion took.
        if waiting.next().is_some() {
            return Err(DANGLING);
        }
        let (seq, stats) = Wire::get(d)?;
        Ok(DramChannel {
            cfg,
            queue,
            bank_free_at,
            bus_free_at,
            completions,
            scheduled,
            seq,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassTag;

    fn rd(id: u64, addr: u64) -> MemRequest {
        MemRequest::read(id, addr, 0, ClassTag::Deterministic, 0, 0)
    }

    fn drain(ch: &mut DramChannel, until: Cycle) -> Vec<(Cycle, u64)> {
        let mut out = Vec::new();
        for cycle in 0..until {
            ch.tick(cycle);
            while let Some(r) = ch.pop_ready(cycle) {
                out.push((cycle, r.id));
            }
        }
        out
    }

    #[test]
    fn unloaded_access_costs_fixed_latency() {
        let cfg = DramConfig {
            banks: 4,
            access_latency: 100,
            data_bus_gap: 4,
            bank_busy: 16,
            queue_len: 8,
        };
        let mut ch = DramChannel::new(cfg);
        assert!(ch.try_push(rd(1, 0), 0));
        let done = drain(&mut ch, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, 100);
    }

    #[test]
    fn same_bank_requests_serialize() {
        let cfg = DramConfig {
            banks: 4,
            access_latency: 100,
            data_bus_gap: 1,
            bank_busy: 50,
            queue_len: 8,
        };
        let mut ch = DramChannel::new(cfg);
        // Same bank: addresses differing by banks*128.
        ch.try_push(rd(1, 0), 0);
        ch.try_push(rd(2, 4 * 128), 0);
        let done = drain(&mut ch, 400);
        assert_eq!(done.len(), 2);
        let gap = done[1].0 - done[0].0;
        assert!(gap >= 49, "same-bank gap was {gap}");
    }

    #[test]
    fn different_banks_overlap() {
        let cfg = DramConfig {
            banks: 4,
            access_latency: 100,
            data_bus_gap: 1,
            bank_busy: 50,
            queue_len: 8,
        };
        let mut ch = DramChannel::new(cfg);
        ch.try_push(rd(1, 0), 0);
        ch.try_push(rd(2, 128), 0); // next bank
        let done = drain(&mut ch, 400);
        assert_eq!(done.len(), 2);
        let gap = done[1].0 - done[0].0;
        assert!(gap <= 3, "different-bank gap was {gap}");
    }

    #[test]
    fn bus_gap_limits_throughput() {
        let cfg = DramConfig {
            banks: 8,
            access_latency: 10,
            data_bus_gap: 20,
            bank_busy: 1,
            queue_len: 16,
        };
        let mut ch = DramChannel::new(cfg);
        for i in 0..4 {
            ch.try_push(rd(i, i * 128), 0);
        }
        let done = drain(&mut ch, 400);
        assert_eq!(done.len(), 4);
        for w in done.windows(2) {
            assert!(w[1].0 - w[0].0 >= 19, "{done:?}");
        }
    }

    #[test]
    fn queue_bound_back_pressures() {
        let cfg = DramConfig {
            banks: 1,
            access_latency: 100,
            data_bus_gap: 1,
            bank_busy: 100,
            queue_len: 2,
        };
        let mut ch = DramChannel::new(cfg);
        assert!(ch.try_push(rd(1, 0), 0));
        assert!(ch.try_push(rd(2, 0), 0));
        assert!(!ch.try_push(rd(3, 0), 0));
        ch.tick(0);
        assert!(ch.can_push());
    }

    #[test]
    fn mean_latency_tracks_queueing() {
        let cfg = DramConfig {
            banks: 1,
            access_latency: 100,
            data_bus_gap: 1,
            bank_busy: 100,
            queue_len: 8,
        };
        let mut ch = DramChannel::new(cfg);
        ch.try_push(rd(1, 0), 0);
        ch.try_push(rd(2, 0), 0);
        drain(&mut ch, 500);
        // Second request waited ~100 cycles behind the first.
        assert!(ch.stats().mean_latency() > 100.0);
        assert_eq!(ch.stats().serviced, 2);
    }

    /// The table-based channel this one replaced, kept as the oracle the
    /// new layout is tested against: every scheduled request keeps a slot in
    /// `finished` for the channel's whole life, and `pop_ready` only empties
    /// it.
    struct TableChannel {
        cfg: DramConfig,
        queue: VecDeque<(Cycle, MemRequest)>,
        bank_free_at: Vec<Cycle>,
        bus_free_at: Cycle,
        completions: BinaryHeap<(std::cmp::Reverse<(Cycle, u64)>, usize)>,
        finished: Vec<Option<MemRequest>>,
        seq: u64,
        stats: DramStats,
    }

    impl TableChannel {
        fn new(cfg: DramConfig) -> TableChannel {
            TableChannel {
                cfg,
                queue: VecDeque::new(),
                bank_free_at: vec![0; cfg.banks],
                bus_free_at: 0,
                completions: BinaryHeap::new(),
                finished: Vec::new(),
                seq: 0,
                stats: DramStats::default(),
            }
        }

        fn try_push(&mut self, req: MemRequest, cycle: Cycle) -> bool {
            if self.queue.len() >= self.cfg.queue_len {
                return false;
            }
            self.queue.push_back((cycle, req));
            self.stats.peak_queue = self.stats.peak_queue.max(self.queue.len());
            true
        }

        fn tick(&mut self, cycle: Cycle) {
            if let Some((arrival, req)) = self.queue.pop_front() {
                let bank = ((req.block_addr >> 7) % self.cfg.banks as u64) as usize;
                let start = cycle.max(self.bank_free_at[bank]).max(arrival);
                let done = start.max(self.bus_free_at) + Cycle::from(self.cfg.access_latency);
                self.bank_free_at[bank] = start + Cycle::from(self.cfg.bank_busy);
                self.bus_free_at = self.bus_free_at.max(start) + Cycle::from(self.cfg.data_bus_gap);
                self.completions
                    .push((std::cmp::Reverse((done, self.seq)), self.finished.len()));
                self.finished.push(Some(req));
                self.seq += 1;
                self.stats.serviced += 1;
                self.stats.total_latency += done - arrival;
            }
        }

        fn pop_ready(&mut self, cycle: Cycle) -> Option<MemRequest> {
            let &(std::cmp::Reverse((ready, _)), _) = self.completions.peek()?;
            if ready > cycle {
                return None;
            }
            let (_, idx) = self.completions.pop().unwrap();
            self.finished[idx].take()
        }

        fn ckpt_encode(&self, e: &mut Enc) {
            let q: Vec<(Cycle, MemRequest)> = self.queue.iter().copied().collect();
            e.seq(&q, |e, (at, r)| {
                e.u64(*at);
                r.put(e);
            });
            e.seq(&self.bank_free_at, |e, &c| e.u64(c));
            e.u64(self.bus_free_at);
            let mut comps: Vec<_> = self.completions.iter().collect();
            comps.sort_unstable_by_key(|(std::cmp::Reverse(key), _)| *key);
            e.usize(comps.len());
            for (std::cmp::Reverse((ready, seq)), idx) in comps {
                e.u64(*ready);
                e.u64(*seq);
                e.usize(*idx);
            }
            e.seq(&self.finished, |e, f| {
                e.opt(f, |e, r| r.put(e));
            });
            e.u64(self.seq);
            e.u64(self.stats.serviced);
            e.u64(self.stats.total_latency);
            e.usize(self.stats.peak_queue);
        }
    }

    fn encoded(f: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        f(&mut e);
        e.into_bytes()
    }

    /// The channel returns the same requests at the same cycles as the
    /// table it replaced, and writes the same checkpoint bytes every cycle,
    /// under bursts, bank conflicts, full queues, requests left unpopped
    /// and long idle gaps. Now and then the channel is rebuilt from the
    /// oracle's bytes, so the decoder is held to the table layout too.
    #[test]
    fn in_flight_channel_matches_the_table_oracle() {
        gcl_rng::cases(0xD7A4, 100, |rng| {
            let cfg = DramConfig {
                banks: 1 + rng.usize_below(8),
                access_latency: rng.u32_below(120),
                data_bus_gap: rng.u32_below(8),
                bank_busy: rng.u32_below(24),
                queue_len: 1 + rng.usize_below(8),
            };
            let mut new = DramChannel::new(cfg);
            let mut old = TableChannel::new(cfg);
            let conflict_stride = cfg.banks as u64 * 128;
            let mut cycle: Cycle = 0;
            let mut id = 0;
            for _ in 0..300 {
                if rng.chance(0.05) {
                    // A long idle gap: the clock jumps with nothing ticked.
                    cycle += 50 + rng.u64_below(400);
                }
                let burst = if rng.chance(0.2) {
                    // Overfill the queue so some pushes are refused.
                    cfg.queue_len + 1 + rng.usize_below(4)
                } else {
                    usize::from(rng.chance(0.3))
                };
                for _ in 0..burst {
                    id += 1;
                    let addr = if rng.chance(0.5) {
                        rng.u64_below(4) * conflict_stride
                    } else {
                        rng.u64_below(1 << 20) * 128
                    };
                    let req = MemRequest {
                        is_write: rng.chance(0.2),
                        sm_id: rng.u32_below(16) as u16,
                        ..rd(id, addr)
                    };
                    assert_eq!(new.try_push(req, cycle), old.try_push(req, cycle));
                }
                new.tick(cycle);
                old.tick(cycle);
                // Drain only sometimes, so finished requests wait too.
                while rng.chance(0.8) {
                    let got = new.pop_ready(cycle);
                    assert_eq!(got, old.pop_ready(cycle), "cycle {cycle}");
                    if got.is_none() {
                        break;
                    }
                }
                let want = encoded(|e| old.ckpt_encode(e));
                assert_eq!(encoded(|e| new.ckpt_encode(e)), want, "cycle {cycle}");
                if rng.chance(0.1) {
                    let mut d = Dec::new(&want);
                    new = DramChannel::ckpt_decode(&mut d, cfg).unwrap();
                    assert!(d.is_done());
                }
                assert_eq!(new.stats(), &old.stats);
                cycle += 1;
            }
        });
    }

    /// A checkpoint of an otherwise idle one-bank channel whose completions
    /// reference `comps` in ready order, over a request table spelled one
    /// character an entry: `-` a hole, a letter a request.
    fn snapshot(comps: &[usize], table: &str) -> Vec<u8> {
        encoded(|e| {
            e.usize(0);
            e.seq(&[0u64], |e, &c| e.u64(c));
            e.u64(0);
            e.usize(comps.len());
            for (k, &idx) in comps.iter().enumerate() {
                e.u64(10 + k as u64);
                e.u64(idx as u64);
                e.usize(idx);
            }
            e.usize(table.len());
            for (id, entry) in table.bytes().enumerate() {
                let req = (entry != b'-').then(|| rd(id as u64, u64::from(entry) * 128));
                e.opt(&req, |e, r| r.put(e));
            }
            e.u64(table.len() as u64);
            e.u64(0);
            e.u64(0);
            e.usize(0);
        })
    }

    /// Each row is a table and the completions that reference it; the
    /// decoder accepts exactly the ones an encode can write, and writes
    /// those back byte for byte.
    #[test]
    fn decode_rejects_tables_an_encode_cannot_write() {
        let cfg = DramConfig {
            banks: 1,
            ..DramConfig::fermi()
        };
        let dangling = Err(WireError::Malformed("DRAM completion index dangling"));
        let unreferenced = Err(WireError::Malformed("DRAM table entry unreferenced"));
        type Row<'a> = (&'a str, &'a [usize], &'a str, Result<(), WireError>);
        let rows: [Row; 9] = [
            ("empty", &[], "", Ok(())),
            ("holes only", &[], "---", Ok(())),
            ("two live among holes", &[1, 3], "-a-b", Ok(())),
            ("live entry at the end", &[2], "--a", Ok(())),
            ("completion on a hole", &[0], "-a", dangling),
            ("completion past the table", &[2], "--", dangling),
            ("two completions on one entry", &[1, 1], "-a", dangling),
            ("entry no completion references", &[], "-a", unreferenced),
            ("entry beside a referenced one", &[0], "ab", unreferenced),
        ];
        for (name, comps, table, want) in rows {
            let bytes = snapshot(comps, table);
            let mut d = Dec::new(&bytes);
            match (DramChannel::ckpt_decode(&mut d, cfg), want) {
                (Ok(ch), Ok(())) => {
                    assert!(d.is_done(), "{name}");
                    assert_eq!(encoded(|e| ch.ckpt_encode(e)), bytes, "{name}");
                }
                (got, want) => assert_eq!(got.map(drop), want, "{name}"),
            }
        }
    }

    /// The channel holds a request only while it is queued or in flight:
    /// after 100,000 requests in bursts and a drain, what it keeps does not
    /// grow with the count.
    #[test]
    fn a_drained_channel_holds_no_returned_request() {
        const REQUESTS: u64 = 100_000;
        let mut ch = DramChannel::new(DramConfig::fermi());
        let (mut pushed, mut returned) = (0, 0);
        let mut cycle = 0;
        while pushed < REQUESTS || !ch.is_empty() {
            // A burst fills the queue every 256 cycles, which is time
            // enough for the bus to drain it.
            if cycle % 256 == 0 {
                while pushed < REQUESTS && ch.try_push(rd(pushed, pushed * 128), cycle) {
                    pushed += 1;
                }
                assert!(!ch.can_push() || pushed == REQUESTS);
            }
            ch.tick(cycle);
            while let Some(r) = ch.pop_ready(cycle) {
                assert_eq!(r.id, returned);
                returned += 1;
            }
            cycle += 1;
        }
        assert_eq!(returned, REQUESTS);
        assert_eq!(ch.stats().serviced, REQUESTS);
        // Neither what the channel holds nor the buffers it keeps for it
        // depend on how many requests went through.
        let shown = format!("{ch:?}");
        assert!(shown.len() < 1024, "{} bytes of Debug", shown.len());
        let slots = ch.queue.capacity() + ch.completions.capacity();
        assert!(slots <= 256, "{slots} request slots held");
    }
}
