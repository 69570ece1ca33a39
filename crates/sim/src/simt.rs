//! Per-warp SIMT divergence stack with ipdom reconvergence.

use gcl_mem::WireError;
use gcl_ptx::RECONV_EXIT;

/// One stack entry: execute from `pc` with `mask` until `reconv`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SimtEntry {
    /// Next pc to execute for this entry.
    pub pc: usize,
    /// Lanes active under this entry.
    pub mask: u32,
    /// Reconvergence pc ([`RECONV_EXIT`] = only thread exit rejoins).
    pub reconv: usize,
}

gcl_mem::declare_wire! { SimtEntry { pc, mask, reconv } }

/// The per-warp SIMT stack (the standard immediate-post-dominator scheme).
///
/// Lanes that execute `exit` are tracked by the *warp* in an `exited` mask;
/// the stack prunes entries whose live lanes have all exited.
#[derive(Debug, Clone)]
pub(crate) struct SimtStack {
    entries: Vec<SimtEntry>,
}

/// Generous divergence-depth bound; exceeding it indicates runaway
/// divergence (or a simulator bug).
const MAX_DEPTH: usize = 64;

// The entries, bottom to top.
gcl_mem::declare_wire! {
    SimtStack { entries } check |s: &SimtStack| match s.entries.len() {
        0..=MAX_DEPTH => Ok(()),
        _ => Err(WireError::Malformed("SIMT stack too deep")),
    }
}

impl SimtStack {
    /// A fresh stack: all `mask` lanes at pc 0, reconverging only at exit.
    pub fn new(mask: u32) -> SimtStack {
        SimtStack {
            entries: vec![SimtEntry {
                pc: 0,
                mask,
                reconv: RECONV_EXIT,
            }],
        }
    }

    /// Whether the stack has no live entries (warp retired).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The current pc.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pc(&self) -> usize {
        self.entries.last().expect("empty SIMT stack").pc
    }

    /// Lanes active right now, excluding `exited` lanes.
    pub fn active_mask(&self, exited: u32) -> u32 {
        self.entries.last().map_or(0, |e| e.mask & !exited)
    }

    /// Current stack depth.
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Advance past a non-branch instruction, popping at reconvergence.
    pub fn advance(&mut self) {
        let top = self.entries.last_mut().expect("empty SIMT stack");
        top.pc += 1;
        self.pop_reconverged();
    }

    /// Apply a branch executed at the top entry.
    ///
    /// * `taken` — lanes (⊆ active) that take the branch to `target`.
    /// * `fallthrough` — pc of the next instruction.
    /// * `reconv` — the branch's reconvergence pc.
    ///
    /// # Panics
    ///
    /// Panics if divergence exceeds the internal depth bound.
    pub fn branch(
        &mut self,
        taken: u32,
        active: u32,
        target: usize,
        fallthrough: usize,
        reconv: usize,
    ) {
        let not_taken = active & !taken;
        let top = self.entries.last_mut().expect("empty SIMT stack");
        if not_taken == 0 {
            // Uniformly taken.
            top.pc = target;
        } else if taken == 0 {
            // Uniformly not taken.
            top.pc = fallthrough;
        } else {
            // Divergence: the current entry waits at the reconvergence
            // point; the two sides execute on top of it, fall-through first
            // (so the taken side runs first, matching GPGPU-Sim).
            top.pc = reconv;
            self.entries.push(SimtEntry {
                pc: fallthrough,
                mask: not_taken,
                reconv,
            });
            self.entries.push(SimtEntry {
                pc: target,
                mask: taken,
                reconv,
            });
            assert!(self.entries.len() <= MAX_DEPTH, "SIMT stack depth exceeded");
        }
        self.pop_reconverged();
    }

    /// Drop entries whose live lanes (under `exited`) are all gone, e.g.
    /// after lanes execute `exit`.
    pub fn prune_exited(&mut self, exited: u32) {
        while let Some(top) = self.entries.last() {
            if top.mask & !exited == 0 {
                self.entries.pop();
            } else {
                break;
            }
        }
        self.pop_reconverged();
    }

    fn pop_reconverged(&mut self) {
        // An entry that has reached its reconvergence point merges into the
        // entry below (which is parked at the same pc).
        while self.entries.len() > 1 {
            let top = *self.entries.last().unwrap();
            if top.reconv != RECONV_EXIT && top.pc == top.reconv {
                // Reveals either the sibling divergent side (at its own pc)
                // or the parked original entry (at the reconvergence pc).
                self.entries.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: u32 = 0xFFFF_FFFF;

    #[test]
    fn uniform_branch_moves_pc() {
        let mut s = SimtStack::new(ALL);
        s.branch(ALL, ALL, 10, 1, 20);
        assert_eq!(s.pc(), 10);
        assert_eq!(s.depth(), 1);
        s.branch(0, ALL, 5, 11, 20);
        assert_eq!(s.pc(), 11);
    }

    #[test]
    fn divergent_branch_runs_taken_side_first_then_reconverges() {
        let mut s = SimtStack::new(0b1111);
        // Lanes 0-1 take the branch to pc 10; reconvergence at pc 20.
        s.branch(0b0011, 0b1111, 10, 1, 20);
        assert_eq!(s.pc(), 10);
        assert_eq!(s.active_mask(0), 0b0011);
        assert_eq!(s.depth(), 3);
        // Taken side runs 10..20.
        for _ in 10..20 {
            s.advance();
        }
        // Now the fall-through side is on top.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(0), 0b1100);
        for _ in 1..20 {
            s.advance();
        }
        // Reconverged: full mask at pc 20.
        assert_eq!(s.pc(), 20);
        assert_eq!(s.active_mask(0), 0b1111);
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0b1111);
        s.branch(0b0011, 0b1111, 10, 1, 30);
        // Inside the taken side, diverge again.
        s.branch(0b0001, 0b0011, 15, 11, 25);
        assert_eq!(s.pc(), 15);
        assert_eq!(s.active_mask(0), 0b0001);
        assert_eq!(s.depth(), 5);
        // Run lane 0 to inner reconv (25), then lane 1's side (11..25).
        for _ in 15..25 {
            s.advance();
        }
        assert_eq!(s.pc(), 11);
        assert_eq!(s.active_mask(0), 0b0010);
        for _ in 11..25 {
            s.advance();
        }
        // Inner reconverged at 25 with mask 0b0011.
        assert_eq!(s.pc(), 25);
        assert_eq!(s.active_mask(0), 0b0011);
        assert_eq!(s.depth(), 3);
    }

    #[test]
    fn exited_lanes_prune_entries() {
        let mut s = SimtStack::new(0b1111);
        s.branch(0b0011, 0b1111, 10, 1, gcl_ptx::RECONV_EXIT);
        // Taken lanes exit.
        let exited = 0b0011;
        s.prune_exited(exited);
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(exited), 0b1100);
        // Remaining lanes exit too.
        s.prune_exited(0b1111);
        assert!(s.is_empty());
    }

    #[test]
    fn active_mask_excludes_exited() {
        let s = SimtStack::new(0b1111);
        assert_eq!(s.active_mask(0b0101), 0b1010);
    }

    #[test]
    #[should_panic(expected = "depth exceeded")]
    fn runaway_divergence_detected() {
        let mut s = SimtStack::new(0b11);
        for _ in 0..40 {
            s.branch(0b01, 0b11, 10, 1, 1000);
            // Never advance to reconvergence: keep splitting the same entry.
            let top_mask = s.active_mask(0);
            s.branch(top_mask & 0b01, top_mask, 10, 1, 1000);
        }
    }
}
