//! Per-warp-load tracking: turnaround times and their component breakdown
//! (the paper's Figures 2, 5, 6 and 7).

use gcl_core::LoadClass;
use gcl_mem::wire::{get_map, put_sorted};
use gcl_mem::{Codec, Cycle, MemRequest, Wire, WireError};
use gcl_stats::{Accumulator, Histogram};
use std::collections::HashMap;

/// The codecs of the `gcl-stats` and `gcl-core` types the statistics carry.
const ACC: Codec<Accumulator> = Codec {
    put: |a, e| (a.count, a.sum, a.min, a.max).put(e),
    get: |d| {
        let (count, sum, min, max) = Wire::get(d)?;
        Ok(Accumulator {
            count,
            sum,
            min,
            max,
        })
    },
};

const HIST: Codec<Histogram> = Codec {
    put: |h, e| e.seq(h.raw_buckets(), |e, b| b.put(e)),
    get: |d| {
        Histogram::from_raw_buckets(Wire::get(d)?)
            .ok_or(WireError::Malformed("bad histogram bucket count"))
    },
};

/// The one load-class tag: `0` deterministic, `1` non-deterministic.
pub(crate) const LOAD_CLASS: Codec<LoadClass> = Codec {
    put: |c, e| e.u8(class_index(*c) as u8),
    get: |d| match d.u8()? {
        0 => Ok(LoadClass::Deterministic),
        1 => Ok(LoadClass::NonDeterministic),
        _ => Err(WireError::Malformed("bad load class tag")),
    },
};

/// Aggregated behavior of one load class (Figure 2 + Figure 5).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassAgg {
    /// Dynamic warp-level load instructions.
    pub warp_loads: u64,
    /// Memory requests generated.
    pub requests: u64,
    /// Active threads summed over warp loads.
    pub active_threads: u64,
    /// Full turnaround time (issue → last data written back).
    pub turnaround: Accumulator,
    /// Cycles waiting for the *first* request to be accepted by the L1
    /// (resources held by previous warps).
    pub wait_prev_warps: Accumulator,
    /// Cycles between the first and last request acceptance (reservation of
    /// the current warp's own burst).
    pub wait_current_warp: Accumulator,
    /// Cycles from last acceptance to last data return (memory system time,
    /// split into unloaded latency + wasted cycles at reporting time).
    pub memory_time: Accumulator,
    /// Log2 distribution of turnaround times (for tail-latency reporting).
    pub turnaround_hist: Histogram,
}

// Shared by SM checkpoints and the `gcl-exec` result cache, so equal
// aggregates always produce identical bytes.
gcl_mem::declare_wire! {
    ClassAgg {
        warp_loads, requests, active_threads, turnaround: ACC, wait_prev_warps: ACC,
        wait_current_warp: ACC, memory_time: ACC, turnaround_hist: HIST,
    }
}

impl ClassAgg {
    /// Mean memory requests per warp-level load.
    pub fn requests_per_warp(&self) -> f64 {
        if self.warp_loads == 0 {
            f64::NAN
        } else {
            self.requests as f64 / self.warp_loads as f64
        }
    }

    /// Mean memory requests per active thread.
    pub fn requests_per_active_thread(&self) -> f64 {
        if self.active_threads == 0 {
            f64::NAN
        } else {
            self.requests as f64 / self.active_threads as f64
        }
    }

    /// Merge another aggregate into this one.
    pub fn merge(&mut self, other: &ClassAgg) {
        self.warp_loads += other.warp_loads;
        self.requests += other.requests;
        self.active_threads += other.active_threads;
        self.turnaround.merge(&other.turnaround);
        self.wait_prev_warps.merge(&other.wait_prev_warps);
        self.wait_current_warp.merge(&other.wait_current_warp);
        self.memory_time.merge(&other.memory_time);
        self.turnaround_hist.merge(&other.turnaround_hist);
    }
}

/// Aggregates for one (load pc, request count) pair — the Figure 6 lines and
/// Figure 7 stack components.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcReqAgg {
    /// Turnaround time samples.
    pub turnaround: Accumulator,
    /// Gap at L1D: first → last request acceptance.
    pub gap_l1d: Accumulator,
    /// Gap at icnt→L2: mean per-request delay from L1 acceptance to
    /// interconnect injection.
    pub gap_icnt_l2: Accumulator,
    /// Gap at L2→icnt: spread between the first and last serviced response.
    pub gap_l2_icnt: Accumulator,
}

gcl_mem::declare_wire! {
    PcReqAgg { turnaround: ACC, gap_l1d: ACC, gap_icnt_l2: ACC, gap_l2_icnt: ACC }
}

impl PcReqAgg {
    /// Merge another aggregate into this one.
    pub fn merge(&mut self, other: &PcReqAgg) {
        self.turnaround.merge(&other.turnaround);
        self.gap_l1d.merge(&other.gap_l1d);
        self.gap_icnt_l2.merge(&other.gap_icnt_l2);
        self.gap_l2_icnt.merge(&other.gap_l2_icnt);
    }
}

/// One in-flight warp-level load.
#[derive(Debug, Clone)]
struct InflightLoad {
    pc: usize,
    class: LoadClass,
    n_requests: u32,
    t_issue: Cycle,
    completed: u32,
    first_accept: Cycle,
    last_accept: Cycle,
    first_done: Cycle,
    last_done: Cycle,
    inject_delay_sum: u64,
    injected: u32,
    accepted: u32,
}

gcl_mem::declare_wire! {
    InflightLoad {
        pc, class: LOAD_CLASS, n_requests, t_issue, completed, first_accept, last_accept,
        first_done, last_done, inject_delay_sum, injected, accepted,
    }
}

/// Tracks in-flight warp loads and folds finished ones into per-class and
/// per-pc aggregates.
#[derive(Debug, Default)]
pub(crate) struct LoadTracker {
    inflight: Vec<Option<InflightLoad>>,
    free: Vec<usize>,
    per_class: [ClassAgg; 2],
    per_pc: HashMap<(usize, u32), PcReqAgg>,
}

/// The per-pc aggregate in sorted key order.
const PER_PC: Codec<HashMap<(usize, u32), PcReqAgg>> = Codec {
    put: put_sorted,
    get: |d| get_map(d, "duplicate per-pc key"),
};

// Slot holes and free-list order are kept verbatim: slot indices live in
// in-flight requests' `meta` fields.
gcl_mem::declare_wire! {
    LoadTracker { inflight, free, per_class, per_pc: PER_PC } check LoadTracker::check
}

fn class_index(c: LoadClass) -> usize {
    match c {
        LoadClass::Deterministic => 0,
        LoadClass::NonDeterministic => 1,
    }
}

impl LoadTracker {
    /// Create an empty tracker.
    pub fn new() -> LoadTracker {
        LoadTracker::default()
    }

    /// Register a new warp-level load entering the LD/ST queue. Returns the
    /// handle to pass in the requests' `meta` field.
    pub fn begin(
        &mut self,
        pc: usize,
        class: LoadClass,
        n_requests: u32,
        active_threads: u32,
        cycle: Cycle,
    ) -> u64 {
        let rec = InflightLoad {
            pc,
            class,
            n_requests,
            t_issue: cycle,
            completed: 0,
            first_accept: 0,
            last_accept: 0,
            first_done: 0,
            last_done: 0,
            inject_delay_sum: 0,
            injected: 0,
            accepted: 0,
        };
        let agg = &mut self.per_class[class_index(class)];
        agg.warp_loads += 1;
        agg.requests += u64::from(n_requests);
        agg.active_threads += u64::from(active_threads);
        let idx = if let Some(i) = self.free.pop() {
            self.inflight[i] = Some(rec);
            i
        } else {
            self.inflight.push(Some(rec));
            self.inflight.len() - 1
        };
        idx as u64
    }

    /// Record one request of load `meta` being accepted by the L1 at `cycle`.
    pub fn note_accept(&mut self, meta: u64, cycle: Cycle) {
        let rec = self.inflight[meta as usize]
            .as_mut()
            .expect("accept on finished load");
        if rec.accepted == 0 {
            rec.first_accept = cycle;
        }
        rec.last_accept = cycle;
        rec.accepted += 1;
        debug_assert!(rec.accepted <= rec.n_requests);
    }

    /// Record one request of load `meta` completing at `cycle`. The request
    /// carries its per-stage timestamps. Returns true when the whole warp
    /// load is finished (all requests returned).
    pub fn complete_request(&mut self, meta: u64, req: &MemRequest, cycle: Cycle) -> bool {
        let idx = meta as usize;
        let rec = self.inflight[idx]
            .as_mut()
            .expect("completion on finished load");
        if rec.completed == 0 {
            rec.first_done = cycle;
        }
        rec.last_done = cycle;
        rec.completed += 1;
        if req.t_icnt_inject > 0 {
            rec.inject_delay_sum += req.t_icnt_inject.saturating_sub(req.t_l1_accepted);
            rec.injected += 1;
        }
        if rec.completed < rec.n_requests {
            return false;
        }
        // Finalize.
        let rec = self.inflight[idx].take().expect("double finalize");
        self.free.push(idx);
        let agg = &mut self.per_class[class_index(rec.class)];
        let turnaround = rec.last_done.saturating_sub(rec.t_issue);
        agg.turnaround.add(turnaround as f64);
        agg.turnaround_hist.add(turnaround);
        agg.wait_prev_warps
            .add(rec.first_accept.saturating_sub(rec.t_issue) as f64);
        agg.wait_current_warp
            .add(rec.last_accept.saturating_sub(rec.first_accept) as f64);
        agg.memory_time
            .add(rec.last_done.saturating_sub(rec.last_accept) as f64);

        let pa = self.per_pc.entry((rec.pc, rec.n_requests)).or_default();
        pa.turnaround.add(turnaround as f64);
        pa.gap_l1d
            .add(rec.last_accept.saturating_sub(rec.first_accept) as f64);
        if rec.injected > 0 {
            pa.gap_icnt_l2
                .add(rec.inject_delay_sum as f64 / f64::from(rec.injected));
        } else {
            pa.gap_icnt_l2.add(0.0);
        }
        pa.gap_l2_icnt
            .add(rec.last_done.saturating_sub(rec.first_done) as f64);
        true
    }

    /// Number of loads still in flight.
    pub fn inflight_count(&self) -> usize {
        self.inflight.iter().filter(|r| r.is_some()).count()
    }

    /// Consume the tracker, returning (per-class, per-pc) aggregates.
    pub fn into_parts(self) -> ([ClassAgg; 2], HashMap<(usize, u32), PcReqAgg>) {
        (self.per_class, self.per_pc)
    }

    /// Reject a free slot that is out of range or still in flight.
    fn check(&self) -> Result<(), WireError> {
        for &f in &self.free {
            if self.inflight.get(f).is_none_or(Option::is_some) {
                return Err(WireError::Malformed("bad load-tracker free slot"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_mem::ClassTag;

    fn req_with_stamps(accept: Cycle, inject: Cycle) -> MemRequest {
        let mut r = MemRequest::read(0, 0, 0, ClassTag::NonDeterministic, 0, 0);
        r.t_l1_accepted = accept;
        r.t_icnt_inject = inject;
        r
    }

    #[test]
    fn single_request_load_lifecycle() {
        let mut t = LoadTracker::new();
        let m = t.begin(0x10, LoadClass::Deterministic, 1, 32, 100);
        t.note_accept(m, 105);
        let done = t.complete_request(m, &req_with_stamps(105, 0), 205);
        assert!(done);
        assert_eq!(t.inflight_count(), 0);
        let agg = &t.into_parts().0[0];
        assert_eq!(agg.warp_loads, 1);
        assert_eq!(agg.requests, 1);
        assert_eq!(agg.active_threads, 32);
        assert_eq!(agg.turnaround.mean(), 105.0);
        assert_eq!(agg.wait_prev_warps.mean(), 5.0);
        assert_eq!(agg.wait_current_warp.mean(), 0.0);
        assert_eq!(agg.memory_time.mean(), 100.0);
    }

    #[test]
    fn multi_request_load_components() {
        let mut t = LoadTracker::new();
        let m = t.begin(0x110, LoadClass::NonDeterministic, 3, 30, 0);
        t.note_accept(m, 10);
        t.note_accept(m, 12);
        t.note_accept(m, 20);
        assert!(!t.complete_request(m, &req_with_stamps(10, 15), 150));
        assert!(!t.complete_request(m, &req_with_stamps(12, 16), 180));
        assert!(t.complete_request(m, &req_with_stamps(20, 30), 260));
        let (per_class, per_pc) = t.into_parts();
        let agg = &per_class[1];
        assert_eq!(agg.requests_per_warp(), 3.0);
        assert_eq!(agg.requests_per_active_thread(), 0.1);
        assert_eq!(agg.wait_prev_warps.mean(), 10.0);
        assert_eq!(agg.wait_current_warp.mean(), 10.0);
        assert_eq!(agg.memory_time.mean(), 240.0);
        assert_eq!(agg.turnaround.mean(), 260.0);
        let pa = &per_pc[&(0x110, 3)];
        assert_eq!(pa.gap_l1d.mean(), 10.0);
        // Inject delays: 5, 4, 10 → mean 19/3.
        assert!((pa.gap_icnt_l2.mean() - 19.0 / 3.0).abs() < 1e-9);
        assert_eq!(pa.gap_l2_icnt.mean(), 110.0);
    }

    #[test]
    fn slots_are_recycled() {
        let mut t = LoadTracker::new();
        let a = t.begin(0, LoadClass::Deterministic, 1, 1, 0);
        t.note_accept(a, 1);
        t.complete_request(a, &req_with_stamps(1, 0), 2);
        let b = t.begin(0, LoadClass::Deterministic, 1, 1, 3);
        assert_eq!(a, b, "slot should be reused");
        t.note_accept(b, 4);
        t.complete_request(b, &req_with_stamps(4, 0), 5);
        assert_eq!(t.into_parts().0[0].warp_loads, 2);
    }

    #[test]
    fn l1_hits_do_not_pollute_inject_gap() {
        let mut t = LoadTracker::new();
        let m = t.begin(0, LoadClass::Deterministic, 2, 8, 0);
        t.note_accept(m, 1);
        t.note_accept(m, 2);
        // Both requests hit in L1 (t_icnt_inject stays 0).
        t.complete_request(m, &req_with_stamps(1, 0), 2);
        t.complete_request(m, &req_with_stamps(2, 0), 3);
        let pa = &t.into_parts().1[&(0, 2)];
        assert_eq!(pa.gap_icnt_l2.mean(), 0.0);
    }

    #[test]
    fn class_agg_merge() {
        let mut a = ClassAgg {
            warp_loads: 2,
            requests: 10,
            active_threads: 40,
            ..Default::default()
        };
        a.turnaround.add(100.0);
        let mut b = ClassAgg {
            warp_loads: 1,
            requests: 1,
            active_threads: 32,
            ..Default::default()
        };
        b.turnaround.add(50.0);
        a.merge(&b);
        assert_eq!(a.warp_loads, 3);
        assert_eq!(a.requests, 11);
        assert_eq!(a.turnaround.count, 2);
        assert!((a.requests_per_warp() - 11.0 / 3.0).abs() < 1e-12);
    }
}
