//! Memory requests flowing through the hierarchy.

/// Simulation time, in GPU core cycles.
pub type Cycle = u64;

/// Load-class tag carried by requests for per-class accounting.
///
/// Mirrors [`gcl_core::LoadClass`](https://docs.rs/gcl-core) plus the cases
/// the classifier does not cover (stores, instruction fills, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClassTag {
    /// Request from a deterministic load.
    Deterministic,
    /// Request from a non-deterministic load.
    NonDeterministic,
    /// Anything else (stores, atomics' write half, ...).
    Other,
}

impl ClassTag {
    /// Dense index for per-class counter arrays.
    pub fn index(self) -> usize {
        match self {
            ClassTag::Deterministic => 0,
            ClassTag::NonDeterministic => 1,
            ClassTag::Other => 2,
        }
    }

    /// All tags in [`index`](Self::index) order.
    pub const ALL: [ClassTag; 3] = [
        ClassTag::Deterministic,
        ClassTag::NonDeterministic,
        ClassTag::Other,
    ];
}

crate::declare_wire! {
    enum ClassTag "class tag" { Deterministic = 0, NonDeterministic = 1, Other = 2 }
}

/// One cache-line-granular memory request.
///
/// Requests are small and `Copy`: the hierarchy clones them freely into MSHR
/// wait lists and queues. The `meta` field is opaque to the memory system —
/// the simulator packs whatever it needs to route completions back (e.g. an
/// index into its in-flight load table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRequest {
    /// Unique id, assigned by the producer.
    pub id: u64,
    /// Block-aligned address (to [`crate::CacheConfig::line_bytes`]).
    pub block_addr: u64,
    /// True for stores (write-through, no-allocate).
    pub is_write: bool,
    /// Issuing SM, used to route the response back.
    pub sm_id: u16,
    /// Load-class tag for statistics.
    pub class: ClassTag,
    /// Opaque producer metadata (e.g. in-flight-load table index).
    pub meta: u64,
    /// Sanitizer tag: a launch-unique id assigned at coalescing when the
    /// request-conservation checker is on (see [`crate::RequestLedger`]).
    /// Zero means untracked; the memory system carries it but never reads it.
    pub san: u64,
    /// Cycle the coalescer created the request.
    pub t_created: Cycle,
    /// Cycle the L1 accepted the request (hit, merge, or miss reservation).
    pub t_l1_accepted: Cycle,
    /// Cycle the request was injected into the interconnect toward L2.
    pub t_icnt_inject: Cycle,
    /// Cycle L2 (or DRAM behind it) finished servicing the request.
    pub t_l2_done: Cycle,
    /// Cycle the response arrived back at the L1 / core.
    pub t_returned: Cycle,
}

impl MemRequest {
    /// Create a read request at `cycle`; timestamps other than `t_created`
    /// start at zero.
    pub fn read(
        id: u64,
        block_addr: u64,
        sm_id: u16,
        class: ClassTag,
        meta: u64,
        cycle: Cycle,
    ) -> MemRequest {
        MemRequest {
            id,
            block_addr,
            is_write: false,
            sm_id,
            class,
            meta,
            san: 0,
            t_created: cycle,
            t_l1_accepted: 0,
            t_icnt_inject: 0,
            t_l2_done: 0,
            t_returned: 0,
        }
    }

    /// Create a write request at `cycle`.
    pub fn write(id: u64, block_addr: u64, sm_id: u16, cycle: Cycle) -> MemRequest {
        MemRequest {
            is_write: true,
            ..MemRequest::read(id, block_addr, sm_id, ClassTag::Other, 0, cycle)
        }
    }
}

crate::declare_wire! {
    MemRequest {
        id, block_addr, is_write, sm_id, class, meta, san,
        t_created, t_l1_accepted, t_icnt_inject, t_l2_done, t_returned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_tag_indices_are_dense_and_unique() {
        let idx: Vec<usize> = ClassTag::ALL.iter().map(|c| c.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn constructors_set_direction() {
        let r = MemRequest::read(1, 0x80, 3, ClassTag::Deterministic, 7, 100);
        assert!(!r.is_write);
        assert_eq!(r.t_created, 100);
        assert_eq!(r.meta, 7);
        let w = MemRequest::write(2, 0x100, 3, 101);
        assert!(w.is_write);
        assert_eq!(w.class, ClassTag::Other);
    }
}
