//! Aggregated simulation statistics for one kernel launch (or a merge of
//! several).

use crate::loadtrack::{ClassAgg, PcReqAgg, LOAD_CLASS};
use gcl_core::LoadClass;
use gcl_mem::{AccessOutcome, CacheStats, ClassTag, Dec, DramStats, Enc, Wire, WireError};
use gcl_stats::ProfilerCounters;

/// Per-SM execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmStats {
    /// Warp-level instructions issued.
    pub warp_insts: u64,
    /// Thread-level instructions (warp instructions × active lanes).
    pub thread_insts: u64,
    /// Dynamic global-load warp instructions by class `[D, N]`.
    pub global_load_warps: [u64; 2],
    /// Dynamic shared-load warp instructions (profiler `shared_load`).
    pub shared_load_warps: u64,
    /// Cycles each unit's first stage was occupied `[SP, SFU, LDST]`.
    pub unit_busy: [u64; 3],
    /// Cycles this SM was ticked.
    pub cycles: u64,
    /// Extra cycles spent serializing shared-memory bank conflicts.
    pub bank_conflict_cycles: u64,
    /// CTAs retired.
    pub ctas_retired: u64,
    /// Next-line prefetches issued into the L1.
    pub prefetches_issued: u64,
    /// Branch warp instructions executed.
    pub branches: u64,
    /// Branches that split the warp (control-flow divergence).
    pub divergent_branches: u64,
}

impl SmStats {
    /// Merge another SM's stats into this one.
    pub fn merge(&mut self, o: &SmStats) {
        self.warp_insts += o.warp_insts;
        self.thread_insts += o.thread_insts;
        self.global_load_warps[0] += o.global_load_warps[0];
        self.global_load_warps[1] += o.global_load_warps[1];
        self.shared_load_warps += o.shared_load_warps;
        for u in 0..3 {
            self.unit_busy[u] += o.unit_busy[u];
        }
        self.cycles += o.cycles;
        self.bank_conflict_cycles += o.bank_conflict_cycles;
        self.ctas_retired += o.ctas_retired;
        self.prefetches_issued += o.prefetches_issued;
        self.branches += o.branches;
        self.divergent_branches += o.divergent_branches;
    }
}

// Shared by SM checkpoints and `LaunchStats::ckpt_encode`.
gcl_mem::declare_wire! {
    SmStats {
        warp_insts, thread_insts, global_load_warps, shared_load_warps, unit_busy, cycles,
        bank_conflict_cycles, ctas_retired, prefetches_issued, branches, divergent_branches,
    }
}

/// Identifies one static load at one dynamic request count, across merged
/// launches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PcKey {
    /// Kernel the load belongs to.
    pub kernel: String,
    /// Instruction index of the load.
    pub pc: usize,
    /// Its classification.
    pub class: LoadClass,
    /// The number of memory requests the warp load generated.
    pub n_requests: u32,
}

gcl_mem::declare_wire! { PcKey { kernel, pc, class: LOAD_CLASS, n_requests } }

/// Statistics of one kernel launch; merge several with
/// [`LaunchStats::merge`] to get whole-application numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaunchStats {
    /// Kernel (or, after merging, workload) name.
    pub name: String,
    /// Number of launches merged in.
    pub launches: u64,
    /// GPU cycles to completion (summed across launches).
    pub cycles: u64,
    /// Merged per-SM execution stats.
    pub sm: SmStats,
    /// Merged L1 stats across SMs.
    pub l1: CacheStats,
    /// Merged L2 stats across partitions.
    pub l2: CacheStats,
    /// Merged DRAM stats across channels.
    pub dram_serviced: u64,
    /// Sum of DRAM latencies (for the mean).
    pub dram_total_latency: u64,
    /// Per-class warp-load aggregates `[D, N]`.
    pub class_agg: [ClassAgg; 2],
    /// Per (kernel, load pc, class, request count) aggregates for
    /// Figures 6–7.
    pub per_pc: Vec<(PcKey, PcReqAgg)>,
    /// Static load classification counts (deterministic, non-deterministic).
    pub static_loads: (usize, usize),
    /// Per-launch event digest from the sanitizer's determinism auditor
    /// (`Some` only when [`GpuConfig::sanitize`](crate::GpuConfig) is on).
    /// Merging folds digests together so a workload's digest covers every
    /// launch.
    pub digest: Option<u64>,
    /// Events the armed debug trace (`gcl run --trace`) had dropped by the
    /// end of this launch. The trace buffer persists across launches, so
    /// the count is cumulative; merging keeps the maximum, which is the
    /// final total.
    pub trace_dropped: u64,
}

gcl_mem::declare_wire! {
    LaunchStats {
        name, launches, cycles, sm, l1, l2, dram_serviced, dram_total_latency, class_agg,
        per_pc, static_loads, digest, trace_dropped,
    }
}

impl LaunchStats {
    /// Per-class aggregate accessor.
    pub fn class(&self, class: LoadClass) -> &ClassAgg {
        match class {
            LoadClass::Deterministic => &self.class_agg[0],
            LoadClass::NonDeterministic => &self.class_agg[1],
        }
    }

    /// Table III profiler counters derived from the hierarchy stats.
    pub fn profiler(&self) -> ProfilerCounters {
        let d = ClassTag::Deterministic;
        let n = ClassTag::NonDeterministic;
        let l1_hits = self.l1.outcome_class(AccessOutcome::Hit, d)
            + self.l1.outcome_class(AccessOutcome::Hit, n);
        let l1_misses = [AccessOutcome::MissIssued, AccessOutcome::HitReserved]
            .iter()
            .map(|o| self.l1.outcome_class(*o, d) + self.l1.outcome_class(*o, n))
            .sum::<u64>();
        let l2_queries = self.l2.accepted(d) + self.l2.accepted(n);
        let l2_hits = self.l2.outcome_class(AccessOutcome::Hit, d)
            + self.l2.outcome_class(AccessOutcome::Hit, n);
        ProfilerCounters {
            gld_request: self.sm.global_load_warps[0] + self.sm.global_load_warps[1],
            shared_load: self.sm.shared_load_warps,
            l1_global_load_hit: l1_hits,
            l1_global_load_miss: l1_misses,
            l2_read_hit_sectors: l2_hits,
            l2_read_sector_queries: l2_queries,
        }
    }

    /// Fraction of dynamic global-load warp instructions that are
    /// non-deterministic (Figure 1).
    pub fn nondet_load_fraction(&self) -> f64 {
        let total = self.sm.global_load_warps[0] + self.sm.global_load_warps[1];
        if total == 0 {
            f64::NAN
        } else {
            self.sm.global_load_warps[1] as f64 / total as f64
        }
    }

    /// Idle fraction of each unit's first pipeline stage `[SP, SFU, LDST]`
    /// (Figure 4).
    pub fn unit_idle_fractions(&self) -> [f64; 3] {
        let total = self.sm.cycles as f64;
        if total == 0.0 {
            return [f64::NAN; 3];
        }
        let mut out = [0.0; 3];
        for (i, v) in out.iter_mut().enumerate() {
            *v = 1.0 - self.sm.unit_busy[i] as f64 / total;
        }
        out
    }

    /// Mean DRAM service latency.
    pub fn dram_mean_latency(&self) -> f64 {
        if self.dram_serviced == 0 {
            f64::NAN
        } else {
            self.dram_total_latency as f64 / self.dram_serviced as f64
        }
    }

    /// Mean SIMD lane utilization: active threads per warp instruction over
    /// the warp width (Burtscher et al.'s memory/control irregularity
    /// companion metric, discussed in the paper's related work).
    pub fn simd_utilization(&self, warp_size: u32) -> f64 {
        if self.sm.warp_insts == 0 {
            f64::NAN
        } else {
            self.sm.thread_insts as f64 / (self.sm.warp_insts as f64 * f64::from(warp_size))
        }
    }

    /// Fraction of branch instructions that split their warp.
    pub fn branch_divergence(&self) -> f64 {
        if self.sm.branches == 0 {
            f64::NAN
        } else {
            self.sm.divergent_branches as f64 / self.sm.branches as f64
        }
    }

    /// Fraction of total warp instructions that are global loads (Table I's
    /// last column).
    pub fn global_load_fraction(&self) -> f64 {
        if self.sm.warp_insts == 0 {
            f64::NAN
        } else {
            (self.sm.global_load_warps[0] + self.sm.global_load_warps[1]) as f64
                / self.sm.warp_insts as f64
        }
    }

    /// Wire-encode the complete statistics (every field, including the
    /// per-pc aggregates and digest) with the checkpoint codec. Equal stats
    /// always produce identical bytes — `per_pc` keeps its insertion order,
    /// which is deterministic because the simulator itself is — so the
    /// `gcl-exec` result cache can checksum entries meaningfully.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.put(e);
    }

    /// Wire-decode stats written by [`ckpt_encode`](Self::ckpt_encode).
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input.
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<LaunchStats, WireError> {
        LaunchStats::get(d)
    }

    /// Merge another launch's stats into this one.
    pub fn merge(&mut self, other: &LaunchStats) {
        if self.name.is_empty() {
            self.name = other.name.clone();
        }
        self.launches += other.launches;
        self.cycles += other.cycles;
        self.sm.merge(&other.sm);
        self.l1.merge(&other.l1);
        self.l2.merge(&other.l2);
        self.dram_serviced += other.dram_serviced;
        self.dram_total_latency += other.dram_total_latency;
        for i in 0..2 {
            self.class_agg[i].merge(&other.class_agg[i]);
        }
        for (k, v) in &other.per_pc {
            self.add_pc(k.clone(), v);
        }
        self.static_loads.0 += other.static_loads.0;
        self.static_loads.1 += other.static_loads.1;
        self.digest = match (self.digest, other.digest) {
            (Some(a), Some(b)) => Some(gcl_mem::fnv_fold(a, b)),
            (a, b) => a.or(b),
        };
        self.trace_dropped = self.trace_dropped.max(other.trace_dropped);
    }

    /// Merge one per-pc aggregate in by key.
    pub fn add_pc(&mut self, key: PcKey, agg: &PcReqAgg) {
        if let Some((_, existing)) = self.per_pc.iter_mut().find(|(k, _)| *k == key) {
            existing.merge(agg);
        } else {
            self.per_pc.push((key, agg.clone()));
        }
    }

    /// Look up the aggregate for a (kernel, pc, class, request-count) tuple.
    pub fn pc_agg(&self, kernel: &str, pc: usize, n_requests: u32) -> Option<&PcReqAgg> {
        self.per_pc
            .iter()
            .find(|(k, _)| k.kernel == kernel && k.pc == pc && k.n_requests == n_requests)
            .map(|(_, v)| v)
    }

    /// Fold in one DRAM channel's stats.
    pub fn add_dram(&mut self, d: &DramStats) {
        self.dram_serviced += d.serviced;
        self.dram_total_latency += d.total_latency;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_counters_derive_from_cache_stats() {
        let mut s = LaunchStats::default();
        s.sm.global_load_warps = [3, 2];
        s.sm.shared_load_warps = 7;
        s.l1.attempts[AccessOutcome::Hit.index()][ClassTag::Deterministic.index()] = 10;
        s.l1.attempts[AccessOutcome::MissIssued.index()][ClassTag::NonDeterministic.index()] = 4;
        s.l1.attempts[AccessOutcome::HitReserved.index()][ClassTag::Deterministic.index()] = 1;
        let p = s.profiler();
        assert_eq!(p.gld_request, 5);
        assert_eq!(p.shared_load, 7);
        assert_eq!(p.l1_global_load_hit, 10);
        assert_eq!(p.l1_global_load_miss, 5);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = LaunchStats {
            name: "k".into(),
            launches: 1,
            cycles: 100,
            ..Default::default()
        };
        a.sm.warp_insts = 10;
        a.static_loads = (2, 1);
        let mut b = LaunchStats {
            name: "k".into(),
            launches: 1,
            cycles: 50,
            ..Default::default()
        };
        b.sm.warp_insts = 5;
        b.static_loads = (2, 1);
        let key = PcKey {
            kernel: "k".into(),
            pc: 4,
            class: LoadClass::Deterministic,
            n_requests: 2,
        };
        b.per_pc.push((key.clone(), PcReqAgg::default()));
        a.merge(&b);
        assert_eq!(a.launches, 2);
        assert_eq!(a.cycles, 150);
        assert_eq!(a.sm.warp_insts, 15);
        assert_eq!(a.static_loads, (4, 2));
        assert!(a.pc_agg("k", 4, 2).is_some());
        // Merging the same key again accumulates rather than duplicating.
        a.merge(&b);
        assert_eq!(a.per_pc.len(), 1);
    }

    #[test]
    fn wire_roundtrip_preserves_everything() {
        let mut s = LaunchStats {
            name: "bfs".into(),
            launches: 3,
            cycles: 1234,
            dram_serviced: 17,
            dram_total_latency: 990,
            static_loads: (4, 2),
            digest: Some(0xfeed_beef),
            ..Default::default()
        };
        s.sm.warp_insts = 100;
        s.sm.unit_busy = [1, 2, 3];
        s.l1.attempts[0][1] = 9;
        s.l2.fills = 5;
        s.class_agg[1].warp_loads = 6;
        s.class_agg[1].turnaround.add(42.0);
        s.per_pc.push((
            PcKey {
                kernel: "k".into(),
                pc: 7,
                class: LoadClass::NonDeterministic,
                n_requests: 32,
            },
            PcReqAgg::default(),
        ));
        let mut e = Enc::new();
        s.ckpt_encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = LaunchStats::ckpt_decode(&mut d).unwrap();
        assert!(d.is_done());
        assert_eq!(back, s);
        // Byte stability: re-encoding the decoded value is identical.
        let mut e2 = Enc::new();
        back.ckpt_encode(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn wire_truncation_rejected() {
        let s = LaunchStats {
            name: "k".into(),
            ..Default::default()
        };
        let mut e = Enc::new();
        s.ckpt_encode(&mut e);
        let bytes = e.into_bytes();
        for n in 0..bytes.len() {
            assert!(
                LaunchStats::ckpt_decode(&mut Dec::new(&bytes[..n])).is_err(),
                "truncation to {n} bytes accepted"
            );
        }
    }

    #[test]
    fn fractions_handle_empty() {
        let s = LaunchStats::default();
        assert!(s.nondet_load_fraction().is_nan());
        assert!(s.global_load_fraction().is_nan());
        assert!(s.dram_mean_latency().is_nan());
        assert!(s.unit_idle_fractions()[0].is_nan());
    }

    #[test]
    fn idle_fractions_complement_busy() {
        let mut s = LaunchStats::default();
        s.sm.cycles = 100;
        s.sm.unit_busy = [10, 20, 50];
        let idle = s.unit_idle_fractions();
        assert!((idle[0] - 0.9).abs() < 1e-12);
        assert!((idle[1] - 0.8).abs() < 1e-12);
        assert!((idle[2] - 0.5).abs() < 1e-12);
    }
}
