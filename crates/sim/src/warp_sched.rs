//! Warp schedulers: loose round-robin and greedy-then-oldest, selecting
//! from an event-maintained ready set instead of polling every warp.

use crate::WarpSchedPolicy;
use gcl_mem::{Dec, Enc, Wire, WireError};

/// One warp scheduler's selection state. The SM owns one per scheduler,
/// tells it whenever a supervised warp becomes or stops being issuable
/// ([`set_ready`](Self::set_ready)), and asks it to pick among the ready
/// ones.
#[derive(Debug)]
pub(crate) struct WarpScheduler {
    policy: WarpSchedPolicy,
    /// Last warp slot issued (for LRR rotation / GTO greediness).
    last: Option<usize>,
    /// Supervised slots that could issue right now, one bit per SM warp
    /// slot. Derived from warp and scoreboard state; never serialised.
    ready: Vec<u64>,
    /// The subset of `ready` whose next instruction needs the LD/ST unit
    /// (masked out of a pick while the LD/ST queue is full).
    ldst: Vec<u64>,
}

impl WarpScheduler {
    /// Create a scheduler with the given policy for an SM of `n_slots` warp
    /// slots, with an empty ready set.
    pub fn new(policy: WarpSchedPolicy, n_slots: usize) -> WarpScheduler {
        let words = n_slots.div_ceil(64);
        WarpScheduler {
            policy,
            last: None,
            ready: vec![0; words],
            ldst: vec![0; words],
        }
    }

    /// Record whether `slot` can issue: `None` when it cannot (blocked on
    /// the scoreboard, parked at a barrier, finished or empty), otherwise
    /// whether its next instruction needs the LD/ST unit.
    pub fn set_ready(&mut self, slot: usize, ready: Option<bool>) {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        self.ready[w] &= !bit;
        self.ldst[w] &= !bit;
        if let Some(needs_ldst) = ready {
            self.ready[w] |= bit;
            if needs_ldst {
                self.ldst[w] |= bit;
            }
        }
    }

    /// The state last recorded for `slot` by [`set_ready`](Self::set_ready).
    pub fn ready(&self, slot: usize) -> Option<bool> {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        (self.ready[w] & bit != 0).then(|| self.ldst[w] & bit != 0)
    }

    /// Whether any supervised slot could issue.
    pub fn any_ready(&self) -> bool {
        self.ready.iter().any(|&w| w != 0)
    }

    /// Word `w` of the set a pick may choose from.
    fn eligible(&self, w: usize, ldst_full: bool) -> u64 {
        if ldst_full {
            self.ready[w] & !self.ldst[w]
        } else {
            self.ready[w]
        }
    }

    /// Lowest eligible slot at or above `from`.
    fn first_from(&self, from: usize, ldst_full: bool) -> Option<usize> {
        let mut w = from / 64;
        let mut keep = !0u64 << (from % 64);
        while w < self.ready.len() {
            let bits = self.eligible(w, ldst_full) & keep;
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
            keep = !0;
            w += 1;
        }
        None
    }

    /// Pick a ready warp slot, skipping LD/ST instructions while
    /// `ldst_full`. `resident(slot)` says whether the slot still holds a
    /// warp of this scheduler (LRR restarts at the lowest slot once its
    /// last pick has retired) and `age(slot)` is a warp's dispatch order
    /// (smaller = older).
    ///
    /// Returns `None` if nothing can issue.
    pub fn pick(
        &mut self,
        ldst_full: bool,
        resident: impl FnOnce(usize) -> bool,
        age: impl Fn(usize) -> u64,
    ) -> Option<usize> {
        let chosen = match self.policy {
            WarpSchedPolicy::Lrr => {
                // Start after the last issued warp and wrap.
                let start = self.last.filter(|&l| resident(l)).map_or(0, |l| l + 1);
                self.first_from(start, ldst_full)
                    .or_else(|| self.first_from(0, ldst_full))
            }
            WarpSchedPolicy::Gto => {
                // Greedy: keep issuing the same warp while it is ready (the
                // lowest eligible slot at or above it is itself); otherwise
                // the oldest ready warp.
                let greedy = self
                    .last
                    .filter(|&l| self.first_from(l, ldst_full) == Some(l));
                greedy.or_else(|| {
                    let mut oldest = None;
                    let mut next = self.first_from(0, ldst_full);
                    while let Some(slot) = next {
                        if oldest.is_none_or(|o| age(slot) < age(o)) {
                            oldest = Some(slot);
                        }
                        next = self.first_from(slot + 1, ldst_full);
                    }
                    oldest
                })
            }
        };
        if chosen.is_some() {
            self.last = chosen;
        }
        chosen
    }

    /// The polling pick this scheduler replaced, kept as the oracle the
    /// ready-set pick is tested against: choose from `candidates` (resident
    /// slots supervised by this scheduler, ascending) by asking `ready` of
    /// each.
    #[cfg(test)]
    fn pick_polling(
        &mut self,
        candidates: &[usize],
        mut ready: impl FnMut(usize) -> bool,
        mut age: impl FnMut(usize) -> u64,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            WarpSchedPolicy::Lrr => {
                let start = self
                    .last
                    .and_then(|l| candidates.iter().position(|&c| c == l))
                    .map(|p| p + 1)
                    .unwrap_or(0);
                (0..candidates.len())
                    .map(|k| candidates[(start + k) % candidates.len()])
                    .find(|&slot| ready(slot))
            }
            WarpSchedPolicy::Gto => match self.last {
                Some(l) if candidates.contains(&l) && ready(l) => Some(l),
                _ => candidates
                    .iter()
                    .copied()
                    .filter(|&s| ready(s))
                    .min_by_key(|&s| age(s)),
            },
        };
        if chosen.is_some() {
            self.last = chosen;
        }
        chosen
    }

    /// Checkpoint-encode the selection state (the policy comes from the
    /// configuration and the ready set is derived, so only `last` is
    /// written).
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.last.put(e);
    }

    /// Checkpoint-decode a scheduler written by
    /// [`ckpt_encode`](Self::ckpt_encode), with the policy and slot count
    /// from the configuration. The ready set starts empty; the SM rebuilds
    /// it before the next cycle.
    pub fn ckpt_decode(
        d: &mut Dec<'_>,
        policy: WarpSchedPolicy,
        n_slots: usize,
    ) -> Result<WarpScheduler, WireError> {
        Ok(WarpScheduler {
            last: Wire::get(d)?,
            ..WarpScheduler::new(policy, n_slots)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scheduler over `slots` with every listed slot ready.
    fn sched(policy: WarpSchedPolicy, ready: &[usize]) -> WarpScheduler {
        let mut s = WarpScheduler::new(policy, 8);
        for &slot in ready {
            s.set_ready(slot, Some(false));
        }
        s
    }

    #[test]
    fn lrr_rotates_through_ready_warps() {
        let mut s = sched(WarpSchedPolicy::Lrr, &[0, 2, 4]);
        let picks: Vec<usize> = (0..6)
            .map(|_| s.pick(false, |_| true, |x| x as u64).unwrap())
            .collect();
        assert_eq!(picks, vec![0, 2, 4, 0, 2, 4]);
    }

    #[test]
    fn lrr_skips_unready() {
        let mut s = sched(WarpSchedPolicy::Lrr, &[1, 2]);
        assert_eq!(s.pick(false, |_| true, |x| x as u64), Some(1));
        s.set_ready(0, Some(false));
        s.set_ready(2, None);
        assert_eq!(s.pick(false, |_| true, |x| x as u64), Some(0));
    }

    #[test]
    fn gto_sticks_with_current_warp() {
        let mut s = sched(WarpSchedPolicy::Gto, &[0, 1, 2]);
        // Oldest is warp 1 (age 0).
        let age = |w: usize| match w {
            1 => 0,
            0 => 1,
            _ => 2,
        };
        assert_eq!(s.pick(false, |_| true, age), Some(1));
        assert_eq!(s.pick(false, |_| true, age), Some(1));
        // Warp 1 stalls: falls back to the next oldest.
        s.set_ready(1, None);
        assert_eq!(s.pick(false, |_| true, age), Some(0));
        // Greedy on warp 0 now.
        s.set_ready(1, Some(false));
        assert_eq!(s.pick(false, |_| true, age), Some(0));
    }

    #[test]
    fn full_ldst_queue_masks_memory_instructions() {
        let mut s = sched(WarpSchedPolicy::Lrr, &[3]);
        s.set_ready(1, Some(true));
        assert_eq!(s.ready(1), Some(true));
        assert_eq!(s.pick(true, |_| true, |x| x as u64), Some(3));
        assert_eq!(s.pick(false, |_| true, |x| x as u64), Some(1));
        s.set_ready(3, None);
        assert_eq!(s.pick(true, |_| true, |x| x as u64), None);
    }

    #[test]
    fn returns_none_when_nothing_ready() {
        let mut s = sched(WarpSchedPolicy::Lrr, &[]);
        assert_eq!(s.pick(false, |_| true, |x| x as u64), None);
        assert_eq!(s.ready(0), None);
    }

    /// The ready-set pick equals the polling pick it replaced on random
    /// (resident set, ready set, LD/ST set, ages, `last`) patterns for both
    /// policies — including `last` naming a retired slot, a slot of another
    /// scheduler, multi-word slot counts and an empty candidate set.
    #[test]
    fn bitmask_pick_matches_the_polling_oracle() {
        gcl_rng::cases(0x5C4ED, 4000, |rng| {
            let max_slots = if rng.chance(0.2) { 150 } else { 48 };
            let n_slots = 1 + rng.usize_below(max_slots);
            let n_sched = 1 + rng.usize_below(3);
            let me = rng.usize_below(n_sched);
            let policy = *rng.pick(&[WarpSchedPolicy::Lrr, WarpSchedPolicy::Gto]);
            let density = rng.f64();
            let resident: Vec<bool> = (0..n_slots).map(|_| rng.chance(density)).collect();
            let candidates: Vec<usize> = (0..n_slots)
                .filter(|&s| s % n_sched == me && resident[s])
                .collect();
            let mut ages: Vec<u64> = (0..n_slots as u64).collect();
            for i in (1..n_slots).rev() {
                ages.swap(i, rng.usize_below(i + 1));
            }
            let last = match rng.usize_below(4) {
                0 => None,
                1 if !candidates.is_empty() => Some(*rng.pick(&candidates)),
                _ => Some(rng.usize_below(n_slots + 2)),
            };
            let mut new = WarpScheduler::new(policy, n_slots);
            let mut old = WarpScheduler::new(policy, n_slots);
            (new.last, old.last) = (last, last);
            // Several picks against one evolving ready set, so `last`
            // carries from pick to pick as it does in the SM.
            for _ in 0..4 {
                let p_ready = rng.f64();
                let state: Vec<Option<bool>> = (0..n_slots)
                    .map(|s| {
                        let needs_ldst = rng.chance(0.4);
                        (candidates.contains(&s) && rng.chance(p_ready)).then_some(needs_ldst)
                    })
                    .collect();
                for (slot, st) in state.iter().enumerate() {
                    new.set_ready(slot, *st);
                    assert_eq!(new.ready(slot), *st);
                }
                let ldst_full = rng.chance(0.3);
                let got = new.pick(ldst_full, |l| candidates.contains(&l), |s| ages[s]);
                let want = old.pick_polling(
                    &candidates,
                    |s| state[s].is_some_and(|ldst| !(ldst && ldst_full)),
                    |s| ages[s],
                );
                assert_eq!(got, want, "{policy:?} last={last:?} ldst_full={ldst_full}");
                assert_eq!(new.last, old.last);
            }
        });
    }
}
