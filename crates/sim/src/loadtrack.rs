//! Per-warp-load tracking: turnaround times and their component breakdown
//! (the paper's Figures 2, 5, 6 and 7).

use gcl_core::LoadClass;
use gcl_mem::{Cycle, Dec, Enc, MemRequest, WireError};
use gcl_stats::{Accumulator, Histogram};
use std::collections::HashMap;

fn enc_acc(e: &mut Enc, a: &Accumulator) {
    e.u64(a.count);
    e.f64(a.sum);
    e.f64(a.min);
    e.f64(a.max);
}

fn dec_acc(d: &mut Dec<'_>) -> Result<Accumulator, WireError> {
    Ok(Accumulator {
        count: d.u64()?,
        sum: d.f64()?,
        min: d.f64()?,
        max: d.f64()?,
    })
}

fn enc_hist(e: &mut Enc, h: &Histogram) {
    e.seq(h.raw_buckets(), |e, &b| e.u64(b));
}

fn dec_hist(d: &mut Dec<'_>) -> Result<Histogram, WireError> {
    let buckets = d.seq(|d| d.u64())?;
    Histogram::from_raw_buckets(buckets).ok_or(WireError::Malformed("bad histogram bucket count"))
}

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

impl ClassAgg {
    /// Wire-encode this aggregate (used by both SM checkpoints and the
    /// `gcl-exec` result cache; the byte layout is shared so equal
    /// aggregates always produce identical bytes).
    pub fn ckpt_encode(&self, e: &mut Enc) {
        e.u64(self.warp_loads);
        e.u64(self.requests);
        e.u64(self.active_threads);
        enc_acc(e, &self.turnaround);
        enc_acc(e, &self.wait_prev_warps);
        enc_acc(e, &self.wait_current_warp);
        enc_acc(e, &self.memory_time);
        enc_hist(e, &self.turnaround_hist);
    }

    /// Wire-decode an aggregate written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input.
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<ClassAgg, WireError> {
        Ok(ClassAgg {
            warp_loads: d.u64()?,
            requests: d.u64()?,
            active_threads: d.u64()?,
            turnaround: dec_acc(d)?,
            wait_prev_warps: dec_acc(d)?,
            wait_current_warp: dec_acc(d)?,
            memory_time: dec_acc(d)?,
            turnaround_hist: dec_hist(d)?,
        })
    }

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

impl PcReqAgg {
    /// Wire-encode this aggregate (shared by SM checkpoints and the
    /// `gcl-exec` result cache).
    pub fn ckpt_encode(&self, e: &mut Enc) {
        enc_acc(e, &self.turnaround);
        enc_acc(e, &self.gap_l1d);
        enc_acc(e, &self.gap_icnt_l2);
        enc_acc(e, &self.gap_l2_icnt);
    }

    /// Wire-decode an aggregate written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input.
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<PcReqAgg, WireError> {
        Ok(PcReqAgg {
            turnaround: dec_acc(d)?,
            gap_l1d: dec_acc(d)?,
            gap_icnt_l2: dec_acc(d)?,
            gap_l2_icnt: dec_acc(d)?,
        })
    }

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

/// Tracks in-flight warp loads and folds finished ones into per-class and
/// per-pc aggregates.
#[derive(Debug, Default)]
pub(crate) struct LoadTracker {
    inflight: Vec<Option<InflightLoad>>,
    free: Vec<usize>,
    per_class: [ClassAgg; 2],
    per_pc: HashMap<(usize, u32), PcReqAgg>,
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

    /// Checkpoint-encode the tracker. Slot holes and free-list order are
    /// preserved verbatim (slot indices live inside in-flight request
    /// `meta` fields); maps are written in sorted key order.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        e.seq(&self.inflight, |e, slot| {
            e.opt(slot, |e, rec| {
                e.usize(rec.pc);
                e.u8(class_index(rec.class) as u8);
                e.u32(rec.n_requests);
                e.u64(rec.t_issue);
                e.u32(rec.completed);
                e.u64(rec.first_accept);
                e.u64(rec.last_accept);
                e.u64(rec.first_done);
                e.u64(rec.last_done);
                e.u64(rec.inject_delay_sum);
                e.u32(rec.injected);
                e.u32(rec.accepted);
            });
        });
        e.seq(&self.free, |e, &i| e.usize(i));
        for agg in &self.per_class {
            agg.ckpt_encode(e);
        }
        let mut keys: Vec<&(usize, u32)> = self.per_pc.keys().collect();
        keys.sort_unstable();
        e.usize(keys.len());
        for k in keys {
            e.usize(k.0);
            e.u32(k.1);
            self.per_pc[k].ckpt_encode(e);
        }
    }

    /// Checkpoint-decode a tracker written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<LoadTracker, WireError> {
        let inflight = d.seq(|d| {
            d.opt(|d| {
                let pc = d.usize()?;
                let class = match d.u8()? {
                    0 => LoadClass::Deterministic,
                    1 => LoadClass::NonDeterministic,
                    _ => return Err(WireError::Malformed("bad load class tag")),
                };
                Ok(InflightLoad {
                    pc,
                    class,
                    n_requests: d.u32()?,
                    t_issue: d.u64()?,
                    completed: d.u32()?,
                    first_accept: d.u64()?,
                    last_accept: d.u64()?,
                    first_done: d.u64()?,
                    last_done: d.u64()?,
                    inject_delay_sum: d.u64()?,
                    injected: d.u32()?,
                    accepted: d.u32()?,
                })
            })
        })?;
        let free = d.seq(|d| d.usize())?;
        for &f in &free {
            if f >= inflight.len() || inflight[f].is_some() {
                return Err(WireError::Malformed("bad load-tracker free slot"));
            }
        }
        let mut per_class: [ClassAgg; 2] = Default::default();
        for agg in &mut per_class {
            *agg = ClassAgg::ckpt_decode(d)?;
        }
        let n = d.seq_len()?;
        let mut per_pc = HashMap::with_capacity(n);
        for _ in 0..n {
            let pc = d.usize()?;
            let nr = d.u32()?;
            let pa = PcReqAgg::ckpt_decode(d)?;
            if per_pc.insert((pc, nr), pa).is_some() {
                return Err(WireError::Malformed("duplicate per-pc key"));
            }
        }
        Ok(LoadTracker {
            inflight,
            free,
            per_class,
            per_pc,
        })
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
