//! # gcl-rng — a tiny deterministic PRNG
//!
//! The toolkit needs reproducible pseudo-random streams in two places:
//! synthetic workload inputs (matrices, images, graphs) and property-style
//! tests that sweep randomized cases. Both must be bit-stable across runs
//! and platforms so that every figure regeneration sees identical inputs.
//! This crate implements xoshiro256** seeded via splitmix64 — the same
//! construction `rand`'s `SmallRng` used on 64-bit targets — with the small
//! range/float helpers the call sites need, and no dependencies.
//!
//! It also hosts [`backoff`], the toolkit's single implementation of
//! capped-exponential-backoff-with-seeded-jitter, shared by the job pool's
//! retry path, `gcl suite --retries`, the serve/fleet clients, and the
//! fleet worker's reconnect loop.
//!
//! ```
//! use gcl_rng::Rng;
//!
//! let mut a = Rng::new(42);
//! let mut b = Rng::new(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!(a.f32_range(0.1, 1.0) < 1.0);
//! assert!(a.u32_below(10) < 10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// A deterministic xoshiro256** generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Seed a generator. Equal seeds give equal streams, forever.
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// Next raw 32-bit value (the high half of [`Rng::next_u64`]).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn f32(&mut self) -> f32 {
        // 24 mantissa bits.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.f32()
    }

    /// Uniform `u32` in `[0, bound)` via Lemire's multiply-shift reduction
    /// (unbiased enough for input generation; exact bias < 2^-32).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn u32_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "u32_below(0)");
        ((u64::from(self.next_u32()) * u64::from(bound)) >> 32) as u32
    }

    /// Uniform `u32` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn u32_range_inclusive(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u32::MAX {
            return self.next_u32();
        }
        lo + self.u32_below(span + 1)
    }

    /// Uniform `u64` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "u64_below(0)");
        self.next_u64() % bound
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn usize_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "usize_below(0)");
        (self.next_u64() % bound as u64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_below(items.len())]
    }
}

pub mod backoff {
    //! Capped exponential backoff with seeded jitter.
    //!
    //! Every retry loop in the toolkit — pool job retries, `gcl suite
    //! --retries`, serve/fleet client reconnects and queue-full submits,
    //! fleet worker joins — draws its delays from one [`Backoff`] policy so
    //! the schedule is defined (and unit-tested) exactly once. The delay
    //! for attempt `n` (1-based) doubles a base window up to a cap, then
    //! draws uniformly from the *upper half* of that window: the jitter
    //! keeps N peers that failed together from waking in lockstep, while
    //! the seeded [`Rng`] keeps any single run's schedule reproducible.

    use crate::Rng;

    /// A backoff policy: base delay window and its cap, in milliseconds.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Backoff {
        /// Window for the first attempt, in milliseconds.
        pub base_ms: u64,
        /// Largest window any attempt can reach, in milliseconds.
        pub cap_ms: u64,
    }

    /// The house default: 50 ms doubling, capped at 2 s — the schedule the
    /// job pool has always used.
    pub const DEFAULT: Backoff = Backoff {
        base_ms: 50,
        cap_ms: 2_000,
    };

    impl Default for Backoff {
        fn default() -> Backoff {
            DEFAULT
        }
    }

    impl Backoff {
        /// A policy with the given base and cap.
        pub const fn new(base_ms: u64, cap_ms: u64) -> Backoff {
            Backoff { base_ms, cap_ms }
        }

        /// The jittered delay before retry `attempt` (1-based): the window
        /// is `base · 2^(attempt-1)` capped at `cap_ms`, and the delay is
        /// drawn uniformly from `[window/2, window]`.
        ///
        /// Safe for unbounded attempt counts: a long-lived reconnect loop
        /// can pass any `attempt` (including `u64::MAX`) and the doubling
        /// saturates instead of overflowing the shift.
        pub fn delay_ms(&self, attempt: u64, rng: &mut Rng) -> u64 {
            let shift = attempt.saturating_sub(1);
            // `1u64 << shift` is undefined for shift >= 64, and a plain
            // doubling would debug-overflow long before the cap bites on a
            // small base. Saturate the factor explicitly; the cap and the
            // u32 jitter clamp bound the window from there.
            let doubling = if shift >= 64 { u64::MAX } else { 1u64 << shift };
            let window = self
                .base_ms
                .saturating_mul(doubling)
                .min(self.cap_ms)
                // Keep the jitter draw inside u32 range whatever the cap.
                .min(u64::from(u32::MAX) - 1);
            let half = window / 2;
            half + u64::from(rng.u32_below((window - half + 1) as u32))
        }
    }

    /// The default schedule's delay before retry `attempt` (1-based).
    pub fn backoff_ms(attempt: u64, rng: &mut Rng) -> u64 {
        DEFAULT.delay_ms(attempt, rng)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn default_doubles_and_caps_with_upper_half_jitter() {
            let mut rng = Rng::new(1);
            for attempt in 1..=12u64 {
                let cap = 50u64
                    .saturating_mul(1 << (attempt - 1).min(6))
                    .min(2_000u64);
                for _ in 0..100 {
                    let b = backoff_ms(attempt, &mut rng);
                    assert!(b >= cap / 2, "attempt {attempt}: {b} below {}", cap / 2);
                    assert!(b <= cap, "attempt {attempt}: {b} above cap {cap}");
                }
            }
            // The cap holds forever, even for absurd attempt numbers.
            assert!(backoff_ms(u64::MAX, &mut Rng::new(2)) <= 2_000);
        }

        #[test]
        fn schedules_are_seeded_and_jittered() {
            // Same seed: same schedule. Different seeds: schedules diverge
            // somewhere (peers that failed together don't wake in lockstep).
            let schedule = |seed: u64| -> Vec<u64> {
                let mut rng = Rng::new(seed);
                (1..=8).map(|a| backoff_ms(a, &mut rng)).collect()
            };
            assert_eq!(schedule(7), schedule(7));
            assert_ne!(schedule(7), schedule(8));
            // And the jitter is real: one attempt number draws distinct
            // values across calls.
            let mut r1 = Rng::new(1);
            let distinct: std::collections::HashSet<u64> =
                (0..50).map(|_| backoff_ms(6, &mut r1)).collect();
            assert!(distinct.len() > 1, "no jitter in backoff");
        }

        #[test]
        fn shift_saturates_at_overflow_boundary_attempts() {
            // The doubling shift must not wrap or debug-overflow at the
            // attempt counts where `1u64 << (attempt-1)` leaves u64 range.
            // Pin the cap across every boundary: 32/33 (u32 shift width),
            // 63/64/65 (u64 shift width), and u64::MAX.
            let boundaries = [1u64, 31, 32, 33, 63, 64, 65, u64::MAX];
            let policies = [
                DEFAULT,
                Backoff::new(1, u64::MAX),
                Backoff::new(u64::MAX, u64::MAX),
                Backoff::new(3, 1_000),
            ];
            for policy in policies {
                for &attempt in &boundaries {
                    let mut rng = Rng::new(attempt ^ policy.base_ms);
                    let d = policy.delay_ms(attempt, &mut rng);
                    let ceiling = policy.cap_ms.min(u64::from(u32::MAX) - 1);
                    assert!(
                        d <= ceiling,
                        "base {} cap {} attempt {attempt}: delay {d} above {ceiling}",
                        policy.base_ms,
                        policy.cap_ms
                    );
                }
            }
            // Once the window saturates, deeper attempts draw from the same
            // capped window: the lower bound (window/2) is still honored.
            let mut rng = Rng::new(11);
            for &attempt in &[33u64, 64, 65, u64::MAX] {
                let d = DEFAULT.delay_ms(attempt, &mut rng);
                assert!(
                    (1_000..=2_000).contains(&d),
                    "attempt {attempt}: saturated delay {d} outside [1000, 2000]"
                );
            }
        }

        #[test]
        fn custom_policies_respect_base_and_cap() {
            let fast = Backoff::new(5, 40);
            let mut rng = Rng::new(3);
            for attempt in 1..=10 {
                let d = fast.delay_ms(attempt, &mut rng);
                assert!(d <= 40, "attempt {attempt}: {d} above cap");
            }
            // First attempt stays inside the base window.
            let first = fast.delay_ms(1, &mut Rng::new(4));
            assert!(first <= 5, "first delay {first} above base");
            // Degenerate zero policy never panics and never sleeps.
            assert_eq!(Backoff::new(0, 0).delay_ms(9, &mut rng), 0);
        }
    }
}

pub use backoff::Backoff;

/// Run `n` seeded pseudo-random cases of a property. Each case receives a
/// generator derived from `seed` and the case index, so failures reproduce
/// by running the same seed again. Panics (assert failures) inside the
/// closure surface with the case index attached via a labeled message.
pub fn cases(seed: u64, n: usize, mut f: impl FnMut(&mut Rng)) {
    for i in 0..n {
        let mut rng = Rng::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        f(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(8);
        assert_ne!(Rng::new(7).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            assert!(r.u32_below(17) < 17);
            let v = r.u32_range_inclusive(3, 9);
            assert!((3..=9).contains(&v));
            let f = r.f32_range(-2.0, 2.0);
            assert!((-2.0..2.0).contains(&f));
            let d = r.f64();
            assert!((0.0..1.0).contains(&d));
        }
    }

    #[test]
    fn values_cover_the_range() {
        // A crude uniformity check: all 8 buckets of u32_below(8) hit.
        let mut r = Rng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.u32_below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cases_are_reproducible() {
        let mut first = Vec::new();
        cases(9, 5, |r| first.push(r.next_u64()));
        let mut second = Vec::new();
        cases(9, 5, |r| second.push(r.next_u64()));
        assert_eq!(first, second);
        assert_eq!(first.len(), 5);
    }
}
