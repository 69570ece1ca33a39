//! Miss-status holding registers with request merging.

use crate::wire::{get_map, put_sorted, Dec, Enc, WireError};
use crate::{Cycle, MemRequest};
use std::collections::HashMap;

/// A fixed-capacity MSHR file.
///
/// One entry tracks one in-flight cache block; requests to the same block
/// merge into the entry up to a per-entry limit. This is the resource whose
/// exhaustion the paper calls *reservation fail by MSHRs*.
#[derive(Debug)]
pub struct Mshr {
    entries: HashMap<u64, Vec<MemRequest>>,
    capacity: usize,
    max_merged: usize,
}

impl Mshr {
    /// Create an MSHR file with `capacity` entries, each holding up to
    /// `max_merged` merged requests.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_merged` is zero.
    pub fn new(capacity: usize, max_merged: usize) -> Mshr {
        assert!(capacity > 0, "MSHR capacity must be positive");
        assert!(max_merged > 0, "MSHR merge limit must be positive");
        Mshr {
            entries: HashMap::new(),
            capacity,
            max_merged,
        }
    }

    /// Whether a *new* entry can be allocated.
    pub fn can_allocate(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Whether `block_addr` already has an in-flight entry.
    pub fn has_entry(&self, block_addr: u64) -> bool {
        self.entries.contains_key(&block_addr)
    }

    /// Whether a request for `block_addr` can merge into an existing entry.
    pub fn can_merge(&self, block_addr: u64) -> bool {
        self.entries
            .get(&block_addr)
            .is_some_and(|v| v.len() < self.max_merged)
    }

    /// Allocate a new entry for the request's block.
    ///
    /// # Panics
    ///
    /// Panics if the file is full or the block already has an entry; callers
    /// must check [`can_allocate`](Self::can_allocate) /
    /// [`has_entry`](Self::has_entry) first.
    pub fn allocate(&mut self, req: MemRequest) {
        assert!(self.can_allocate(), "MSHR file full");
        let prev = self.entries.insert(req.block_addr, vec![req]);
        assert!(prev.is_none(), "MSHR entry already exists for block");
    }

    /// Merge a request into the existing entry for its block.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists or the entry is at its merge limit.
    pub fn merge(&mut self, req: MemRequest) {
        let entry = self
            .entries
            .get_mut(&req.block_addr)
            .expect("merging into missing MSHR entry");
        assert!(entry.len() < self.max_merged, "MSHR entry at merge limit");
        entry.push(req);
    }

    /// Remove and return all requests waiting on `block_addr` (called when
    /// the fill arrives). Returns an empty vec if there is no entry.
    pub fn take(&mut self, block_addr: u64) -> Vec<MemRequest> {
        self.entries.remove(&block_addr).unwrap_or_default()
    }

    /// Drop the entry for `block_addr` without releasing its waiters,
    /// returning whether one existed.
    ///
    /// This is a **fault-injection hook** for sanitizer tests (see
    /// `SanInject` in `gcl-sim`): it models a bookkeeping bug that loses an
    /// MSHR entry, which the conservation checker must catch as a
    /// response-without-request when the fill arrives. Never called on the
    /// normal simulation path.
    pub fn forget(&mut self, block_addr: u64) -> bool {
        self.entries.remove(&block_addr).is_some()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Oldest creation cycle among all pending requests, for deadlock
    /// diagnostics. `None` when empty.
    pub fn oldest_pending(&self) -> Option<Cycle> {
        self.entries
            .values()
            .flat_map(|v| v.iter().map(|r| r.t_created))
            .min()
    }

    /// Checkpoint-encode the live entries in sorted block-address order;
    /// the merged-request order inside each entry (the fill release order)
    /// is preserved as-is.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        put_sorted(&self.entries, e);
    }

    /// Checkpoint-decode an MSHR file written by
    /// [`ckpt_encode`](Self::ckpt_encode), with limits from the (already
    /// validated) cache configuration.
    pub fn ckpt_decode(
        d: &mut Dec<'_>,
        capacity: usize,
        max_merged: usize,
    ) -> Result<Mshr, WireError> {
        let entries: HashMap<u64, Vec<MemRequest>> = get_map(d, "duplicate MSHR block")?;
        if entries.len() > capacity {
            return Err(WireError::Malformed("MSHR entries exceed capacity"));
        }
        if entries
            .values()
            .any(|r| r.is_empty() || r.len() > max_merged)
        {
            return Err(WireError::Malformed("MSHR entry size out of range"));
        }
        Ok(Mshr {
            entries,
            capacity,
            max_merged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassTag;

    fn req(id: u64, addr: u64) -> MemRequest {
        MemRequest::read(id, addr, 0, ClassTag::Deterministic, 0, id)
    }

    #[test]
    fn allocate_then_merge_then_take() {
        let mut m = Mshr::new(2, 4);
        assert!(m.can_allocate());
        m.allocate(req(1, 0x80));
        assert!(m.has_entry(0x80));
        assert!(m.can_merge(0x80));
        m.merge(req(2, 0x80));
        let drained = m.take(0x80);
        assert_eq!(drained.len(), 2);
        assert!(m.is_empty());
        assert!(m.take(0x80).is_empty());
    }

    #[test]
    fn capacity_limits_new_entries() {
        let mut m = Mshr::new(1, 4);
        m.allocate(req(1, 0x0));
        assert!(!m.can_allocate());
        assert!(!m.can_merge(0x80)); // different block: no entry to merge into
    }

    #[test]
    fn merge_limit_enforced() {
        let mut m = Mshr::new(4, 2);
        m.allocate(req(1, 0x0));
        m.merge(req(2, 0x0));
        assert!(!m.can_merge(0x0));
    }

    #[test]
    #[should_panic(expected = "MSHR file full")]
    fn allocate_past_capacity_panics() {
        let mut m = Mshr::new(1, 1);
        m.allocate(req(1, 0x0));
        m.allocate(req(2, 0x80));
    }

    #[test]
    fn oldest_pending_scans_all_entries() {
        let mut m = Mshr::new(4, 4);
        assert_eq!(m.oldest_pending(), None);
        m.allocate(req(5, 0x0));
        m.allocate(req(3, 0x80));
        assert_eq!(m.oldest_pending(), Some(3));
    }
}
