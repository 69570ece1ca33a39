//! GPU configuration (the paper's Table II, Tesla C2050-like defaults).

use crate::fault::ConfigError;
use crate::san::SanInject;
use gcl_mem::{CacheConfig, IcntConfig, L2Topology, PartitionConfig};

/// CTA-to-SM dispatch policy (Section X-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtaSchedPolicy {
    /// Baseline: CTAs are handed out in issue order to whichever SM has a
    /// free slot, which interleaves neighbors across SMs (the paper's
    /// "round-robin" behavior).
    RoundRobin,
    /// Section X-B proposal: consecutive groups of `group` CTAs go to the
    /// same SM, so neighboring CTAs share an L1.
    Clustered {
        /// CTAs per group.
        group: u32,
    },
}

/// Which load classes a next-line L1 prefetcher reacts to (Section X-A:
/// "instruction-feature-aware mechanisms that can be selectively applied to
/// load instructions according to their characteristics").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchFilter {
    /// No prefetching (baseline).
    Off,
    /// Prefetch only on deterministic-load misses (streaming-friendly).
    DeterministicOnly,
    /// Prefetch only on non-deterministic-load misses.
    NonDeterministicOnly,
    /// Prefetch on every global-load miss (class-oblivious).
    All,
}

impl PrefetchFilter {
    /// Whether a miss of class `tag` should trigger a prefetch.
    pub fn triggers(self, tag: gcl_mem::ClassTag) -> bool {
        match self {
            PrefetchFilter::Off => false,
            PrefetchFilter::DeterministicOnly => tag == gcl_mem::ClassTag::Deterministic,
            PrefetchFilter::NonDeterministicOnly => tag == gcl_mem::ClassTag::NonDeterministic,
            PrefetchFilter::All => tag != gcl_mem::ClassTag::Other,
        }
    }
}

/// Warp scheduler policy within an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpSchedPolicy {
    /// Loose round-robin.
    Lrr,
    /// Greedy-then-oldest.
    Gto,
}

/// Full GPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of SMs (paper: 14).
    pub n_sms: usize,
    /// Threads per warp (paper: 32).
    pub warp_size: u32,
    /// Max resident threads per SM (paper: 1536).
    pub max_threads_per_sm: u32,
    /// Max resident CTAs per SM (Fermi: 8).
    pub max_ctas_per_sm: u32,
    /// Shared memory per SM in bytes (paper: 48 KB).
    pub shared_mem_per_sm: u32,
    /// Warp schedulers per SM (Fermi: 2).
    pub n_schedulers: usize,
    /// Warp scheduling policy.
    pub warp_sched: WarpSchedPolicy,
    /// CTA dispatch policy.
    pub cta_sched: CtaSchedPolicy,
    /// SP (ALU) result latency in cycles.
    pub sp_latency: u32,
    /// SFU result latency in cycles.
    pub sfu_latency: u32,
    /// Latency of `ld.param` / `ld.const` (ideal constant cache).
    pub const_latency: u32,
    /// Shared-memory access latency (no bank conflicts).
    pub shared_latency: u32,
    /// LD/ST queue depth per SM (pending warp memory instructions).
    pub ldst_queue_len: usize,
    /// L1 accesses attempted per cycle (cache ports).
    pub l1_ports: usize,
    /// L1 data cache configuration.
    pub l1: CacheConfig,
    /// Number of L2 partitions / DRAM channels (Fermi C2050: 6).
    pub n_partitions: usize,
    /// One L2 slice + DRAM channel.
    pub partition: PartitionConfig,
    /// L2 topology (unified baseline or Section X-C clusters).
    pub l2_topology: L2Topology,
    /// Interconnect configuration.
    pub icnt: IcntConfig,
    /// Split non-deterministic loads into sub-warps generating at most this
    /// many requests each (Section X-A proposal). `None` = off.
    pub warp_split_nd: Option<usize>,
    /// Class-selective next-line L1 prefetcher (Section X-A proposal).
    pub prefetch: PrefetchFilter,
    /// Safety limit on simulated cycles per launch.
    pub max_cycles: u64,
    /// Device memcheck: validate every global/local/tex access against the
    /// live allocation ranges and fail the launch with
    /// [`SimError::MemFault`](crate::SimError::MemFault) on the first
    /// out-of-bounds access. Off by default (small but nonzero cost).
    pub memcheck: bool,
    /// Forward-progress watchdog: if no instruction issues, no memory
    /// response lands, and no CTA is dispatched or retired for this many
    /// consecutive cycles, the launch fails with
    /// [`SimError::Hang`](crate::SimError::Hang) carrying a per-warp state
    /// dump. Must be positive; far larger than any legitimate memory
    /// round-trip.
    pub hang_cycles: u64,
    /// `simsan` runtime sanitizer: request-lifecycle
    /// conservation checking, shared-memory race detection, and a per-launch
    /// determinism digest in
    /// [`LaunchStats::digest`](crate::LaunchStats::digest). Violations fail
    /// the launch with [`SimError::Sanitizer`](crate::SimError::Sanitizer).
    /// Off by default; zero-cost when off.
    pub sanitize: bool,
    /// Sanitizer fault injection for tests (requires `sanitize`); see
    /// [`SanInject`]. Always [`SanInject::None`] outside sanitizer tests.
    pub san_inject: SanInject,
}

impl GpuConfig {
    /// The paper's simulated configuration (Table II): Tesla C2050,
    /// 14 SMs @ 32 lanes, 16 KB L1 (128 B lines, 4-way, 64 MSHRs),
    /// 768 KB unified L2, GDDR5 with ~100-cycle latency.
    pub fn fermi() -> GpuConfig {
        GpuConfig {
            n_sms: 14,
            warp_size: 32,
            max_threads_per_sm: 1536,
            max_ctas_per_sm: 8,
            shared_mem_per_sm: 48 * 1024,
            n_schedulers: 2,
            warp_sched: WarpSchedPolicy::Lrr,
            cta_sched: CtaSchedPolicy::RoundRobin,
            sp_latency: 4,
            sfu_latency: 16,
            const_latency: 8,
            shared_latency: 24,
            ldst_queue_len: 8,
            l1_ports: 1,
            l1: CacheConfig::fermi_l1(),
            n_partitions: 6,
            partition: PartitionConfig::fermi(),
            l2_topology: L2Topology::Unified,
            icnt: IcntConfig::fermi(),
            warp_split_nd: None,
            prefetch: PrefetchFilter::Off,
            max_cycles: 200_000_000,
            memcheck: false,
            hang_cycles: 2_000_000,
            sanitize: false,
            san_inject: SanInject::None,
        }
    }

    /// A scaled-down configuration for fast tests: 2 SMs, 2 partitions,
    /// small caches. Behavior-preserving, just smaller.
    pub fn small() -> GpuConfig {
        let mut cfg = GpuConfig::fermi();
        cfg.n_sms = 2;
        cfg.n_partitions = 2;
        cfg.max_threads_per_sm = 256;
        cfg.max_ctas_per_sm = 4;
        cfg.max_cycles = 20_000_000;
        cfg.hang_cycles = 100_000;
        cfg
    }

    /// Unloaded L1-miss round-trip latency implied by this configuration:
    /// L1 hit check + two interconnect hops + L2 hit + DRAM access. Used as
    /// the "un-loaded memory system latency" baseline of Figures 5 and 7.
    pub fn unloaded_miss_latency(&self) -> u64 {
        u64::from(self.l1.hit_latency)
            + 2 * u64::from(self.icnt.hop_latency)
            + u64::from(self.partition.l2.hit_latency)
            + u64::from(self.partition.dram.access_latency)
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field on
    /// inconsistent configurations (zero SMs, zero warp size, a clustered
    /// L2 that does not divide evenly, ...).
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn err(field: &'static str, message: impl Into<String>) -> Result<(), ConfigError> {
            Err(ConfigError {
                field,
                message: message.into(),
            })
        }
        if self.n_sms == 0 {
            return err("n_sms", "need at least one SM");
        }
        // Every active / valid / exited / guard mask is a `u32`.
        if self.warp_size == 0 || self.warp_size > 32 {
            return err(
                "warp_size",
                format!("warp size must be 1..=32, got {}", self.warp_size),
            );
        }
        if self.max_threads_per_sm < self.warp_size {
            return err(
                "max_threads_per_sm",
                format!(
                    "must hold at least one warp ({} < warp size {})",
                    self.max_threads_per_sm, self.warp_size
                ),
            );
        }
        if self.max_ctas_per_sm == 0 {
            return err("max_ctas_per_sm", "need at least one CTA slot per SM");
        }
        if self.n_schedulers == 0 {
            return err("n_schedulers", "need at least one warp scheduler");
        }
        if self.n_partitions == 0 {
            return err("n_partitions", "need at least one memory partition");
        }
        if self.ldst_queue_len == 0 {
            return err("ldst_queue_len", "LD/ST queue must hold at least one entry");
        }
        if self.l1_ports == 0 {
            return err("l1_ports", "need at least one L1 port");
        }
        if let L2Topology::Clustered { clusters } = self.l2_topology {
            if clusters == 0 {
                return err("l2_topology", "cluster count must be positive");
            }
            if !self.n_partitions.is_multiple_of(clusters) {
                return err(
                    "l2_topology",
                    format!(
                        "{} partitions do not divide into {clusters} clusters",
                        self.n_partitions
                    ),
                );
            }
            if !self.n_sms.is_multiple_of(clusters) {
                return err(
                    "l2_topology",
                    format!("{} SMs do not divide into {clusters} clusters", self.n_sms),
                );
            }
        }
        if let Some(k) = self.warp_split_nd {
            if k == 0 {
                return err("warp_split_nd", "warp split chunk must be positive");
            }
        }
        if self.max_cycles == 0 {
            return err("max_cycles", "cycle budget must be positive");
        }
        if self.hang_cycles == 0 {
            return err("hang_cycles", "hang watchdog threshold must be positive");
        }
        if self.san_inject != SanInject::None && !self.sanitize {
            return err(
                "san_inject",
                "sanitizer fault injection requires `sanitize` to be on",
            );
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        GpuConfig::fermi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_matches_table_ii() {
        let c = GpuConfig::fermi();
        c.validate().expect("fermi config is self-consistent");
        assert_eq!(c.n_sms, 14);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_threads_per_sm, 1536);
        assert_eq!(c.l1.capacity_bytes(), 16 * 1024);
        assert_eq!(c.n_partitions * c.partition.l2.capacity_bytes(), 768 * 1024);
        assert_eq!(c.partition.dram.access_latency, 100);
    }

    #[test]
    fn unloaded_latency_is_sum_of_stages() {
        let c = GpuConfig::fermi();
        let want = 1 + 16 + 4 + 100;
        assert_eq!(c.unloaded_miss_latency(), want);
    }

    #[test]
    fn zero_sms_rejected() {
        let mut c = GpuConfig::fermi();
        c.n_sms = 0;
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "n_sms");
        assert!(e.to_string().contains("at least one SM"), "{e}");
    }

    #[test]
    fn warp_wider_than_the_lane_masks_rejected() {
        for warp_size in [0, 33, 64] {
            let mut c = GpuConfig::fermi();
            c.warp_size = warp_size;
            let e = c.validate().unwrap_err();
            assert_eq!(e.field, "warp_size");
            assert!(e.to_string().contains("1..=32"), "{e}");
        }
        let mut c = GpuConfig::fermi();
        c.warp_size = 16;
        c.validate().expect("narrower warps are valid");
    }

    #[test]
    fn watchdog_thresholds_must_be_positive() {
        let mut c = GpuConfig::small();
        c.hang_cycles = 0;
        assert_eq!(c.validate().unwrap_err().field, "hang_cycles");
        let mut c = GpuConfig::small();
        c.max_cycles = 0;
        assert_eq!(c.validate().unwrap_err().field, "max_cycles");
    }

    #[test]
    fn memcheck_defaults_off() {
        assert!(!GpuConfig::fermi().memcheck);
        let mut c = GpuConfig::small();
        c.memcheck = true;
        c.validate().expect("memcheck is a valid mode everywhere");
    }

    #[test]
    fn sanitize_defaults_off_and_gates_injection() {
        let c = GpuConfig::fermi();
        assert!(!c.sanitize);
        assert_eq!(c.san_inject, SanInject::None);
        let mut c = GpuConfig::small();
        c.sanitize = true;
        c.validate().expect("sanitize is a valid mode everywhere");
        c.san_inject = SanInject::DropIcntStore { nth: 1 };
        c.validate().expect("injection under sanitize is valid");
        c.sanitize = false;
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "san_inject");
        assert!(e.to_string().contains("requires `sanitize`"), "{e}");
    }

    #[test]
    fn prefetch_filter_triggers() {
        use gcl_mem::ClassTag;
        assert!(!PrefetchFilter::Off.triggers(ClassTag::Deterministic));
        assert!(PrefetchFilter::DeterministicOnly.triggers(ClassTag::Deterministic));
        assert!(!PrefetchFilter::DeterministicOnly.triggers(ClassTag::NonDeterministic));
        assert!(PrefetchFilter::NonDeterministicOnly.triggers(ClassTag::NonDeterministic));
        assert!(PrefetchFilter::All.triggers(ClassTag::Deterministic));
        assert!(PrefetchFilter::All.triggers(ClassTag::NonDeterministic));
        assert!(!PrefetchFilter::All.triggers(ClassTag::Other));
    }

    #[test]
    fn bad_l2_clustering_rejected() {
        let mut c = GpuConfig::fermi();
        c.l2_topology = L2Topology::Clustered { clusters: 4 }; // 6 % 4 != 0
        let e = c.validate().unwrap_err();
        assert_eq!(e.field, "l2_topology");
        assert!(e.to_string().contains("divide"), "{e}");
    }
}
