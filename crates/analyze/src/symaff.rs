//! Symbolic affine address forms and strided-range arithmetic.
//!
//! Every address analysis of this crate reads one evaluation of the index
//! expression. This module supplies the value domains of that evaluator
//! and of the footprint arithmetic over its results:
//!
//! * [`SymAffine`] — a linear form `Σ cᵢ·termᵢ + k` over the terms
//!   `{tid.*, ctaid.*, %laneid, %warpid, loop induction variables}` plus a
//!   set of base-pointer parameters and an "unknown uniform addend" flag.
//!   Launch geometry (`%ntid.*`, `%nctaid.*`) is substituted concretely
//!   from a [`LaunchCtx`] when there is one, so `ctaid.x * ntid.x + tid.x`
//!   stays linear. A coefficient the evaluation cannot name — a term scaled
//!   by a runtime scalar, or fed through an operation that is not linear —
//!   becomes [`Coeff::Unknown`]: the form then still says *which* ids the
//!   address depends on, which is exactly what broadcast detection needs,
//!   and [`crate::affine`]'s per-warp view only asks that the per-thread
//!   coefficients be known.
//! * [`ARange`] — a finite arithmetic progression `{lo, lo+step, ..., hi}`
//!   with an exactness bit. Addition (Minkowski sum), scaling, hull and
//!   intersection are closed on the domain; inexact results are always
//!   *supersets* of the true set, and the `exact` flag certifies equality.
//!   Footprints are sums of per-term ranges; inter-CTA sharing is range
//!   intersection.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A symbolic term of a [`SymAffine`] form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// `%tid.x` — thread index within the CTA.
    TidX,
    /// `%tid.y`
    TidY,
    /// `%tid.z`
    TidZ,
    /// `%ctaid.x` — CTA index within the grid.
    CtaIdX,
    /// `%ctaid.y`
    CtaIdY,
    /// `%ctaid.z`
    CtaIdZ,
    /// `%laneid` — lane within the warp (domain `0..32`).
    Lane,
    /// `%warpid` — warp within the CTA. The same for all lanes of a warp and
    /// a function of the tids, so it has no value domain of its own.
    Warp,
    /// The induction variable of loop `id` (a [`gcl_ptx::LoopForest`]
    /// index), counting iterations from 0.
    Iv(usize),
}

impl Term {
    /// Whether the term differs between the threads of one warp.
    pub fn per_thread(self) -> bool {
        matches!(self, Term::TidX | Term::TidY | Term::TidZ | Term::Lane)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::TidX => write!(f, "tid.x"),
            Term::TidY => write!(f, "tid.y"),
            Term::TidZ => write!(f, "tid.z"),
            Term::CtaIdX => write!(f, "ctaid.x"),
            Term::CtaIdY => write!(f, "ctaid.y"),
            Term::CtaIdZ => write!(f, "ctaid.z"),
            Term::Lane => write!(f, "laneid"),
            Term::Warp => write!(f, "warpid"),
            Term::Iv(l) => write!(f, "iv{l}"),
        }
    }
}

/// A term coefficient: a known integer, or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coeff {
    /// Exactly this many bytes per unit of the term.
    Known(i64),
    /// The address depends on the term in a way the form cannot name: a
    /// runtime scale (multiplied by a parameter value), or an operation
    /// that is not linear. Consumers may conclude nothing from it except
    /// that the dependence exists.
    Unknown,
}

impl Coeff {
    fn add(self, other: Coeff) -> Coeff {
        match (self, other) {
            (Coeff::Known(a), Coeff::Known(b)) => Coeff::Known(a.wrapping_add(b)),
            _ => Coeff::Unknown,
        }
    }

    fn scale(self, c: i64) -> Coeff {
        match self {
            Coeff::Known(a) => Coeff::Known(a.wrapping_mul(c)),
            Coeff::Unknown => Coeff::Unknown,
        }
    }

    fn is_zero(self) -> bool {
        matches!(self, Coeff::Known(0))
    }
}

/// Concrete launch geometry the evaluation substitutes for `%ntid.*` /
/// `%nctaid.*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchCtx {
    /// CTA shape (threads per CTA in x, y, z).
    pub ntid: [u32; 3],
    /// Grid shape (CTAs in x, y, z).
    pub nctaid: [u32; 3],
}

impl LaunchCtx {
    /// A launch context from CTA and grid shapes.
    pub fn new(ntid: [u32; 3], nctaid: [u32; 3]) -> LaunchCtx {
        LaunchCtx { ntid, nctaid }
    }

    /// Total CTAs in the grid, saturating: three `u32` extents can exceed
    /// a `u64`.
    pub fn n_ctas(&self) -> u64 {
        let [x, y, z] = self.nctaid.map(|d| u64::from(d.max(1)));
        x.saturating_mul(y).saturating_mul(z)
    }

    /// Linearize a CTA coordinate x-major (the simulator's CTA id order),
    /// saturating like [`LaunchCtx::n_ctas`].
    pub fn linear_cta(&self, c: [u32; 3]) -> u64 {
        let [nx, ny, _] = self.nctaid.map(|d| u64::from(d.max(1)));
        let rows = u64::from(c[1]).saturating_add(ny.saturating_mul(u64::from(c[2])));
        u64::from(c[0]).saturating_add(nx.saturating_mul(rows))
    }

    /// The value domain size of a term under this geometry, if bounded by
    /// the geometry alone (`Iv` domains come from trip counts instead, and
    /// `%warpid` has none of its own).
    pub fn term_domain(&self, t: Term) -> Option<u64> {
        Some(match t {
            Term::TidX => u64::from(self.ntid[0].max(1)),
            Term::TidY => u64::from(self.ntid[1].max(1)),
            Term::TidZ => u64::from(self.ntid[2].max(1)),
            Term::CtaIdX => u64::from(self.nctaid[0].max(1)),
            Term::CtaIdY => u64::from(self.nctaid[1].max(1)),
            Term::CtaIdZ => u64::from(self.nctaid[2].max(1)),
            Term::Lane => 32,
            Term::Warp | Term::Iv(_) => return None,
        })
    }
}

/// A symbolic affine form: `Σ coeff·term + k`, plus the base-pointer
/// parameters that enter additively and an unknown-uniform-addend flag.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymAffine {
    terms: BTreeMap<Term, Coeff>,
    /// Known constant addend, in bytes.
    pub k: i64,
    /// Byte offsets (within the param block) of `ld.param` values that
    /// enter the form additively with coefficient 1 — in practice, the
    /// base pointers of the arrays the address walks.
    pub bases: BTreeSet<u32>,
    /// Whether an unknown grid-uniform addend is present (scalar parameter
    /// values, merged control paths). Uniform addends shift every thread of
    /// every CTA identically, so they never affect sharing.
    pub ubase: bool,
}

impl SymAffine {
    /// The constant `k`.
    pub fn constant(k: i64) -> SymAffine {
        SymAffine {
            k,
            ..SymAffine::default()
        }
    }

    /// An unknown-but-uniform value.
    pub fn unknown_uniform() -> SymAffine {
        SymAffine {
            ubase: true,
            ..SymAffine::default()
        }
    }

    /// The form `1·t`.
    pub fn term(t: Term) -> SymAffine {
        let mut s = SymAffine::default();
        s.terms.insert(t, Coeff::Known(1));
        s
    }

    /// The value of parameter-block offset `off` (a `ld.param` result).
    pub fn param(off: u32) -> SymAffine {
        let mut s = SymAffine::default();
        s.bases.insert(off);
        s
    }

    /// The coefficient of `t` (`Known(0)` when absent).
    pub fn coeff(&self, t: Term) -> Coeff {
        self.terms.get(&t).copied().unwrap_or(Coeff::Known(0))
    }

    /// The terms with nonzero coefficient, in `Term` order.
    pub fn terms(&self) -> impl Iterator<Item = (Term, Coeff)> + '_ {
        self.terms.iter().map(|(&t, &c)| (t, c))
    }

    /// Whether the form is the pure constant `k` (no terms, no bases, no
    /// unknown addend).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty() && self.bases.is_empty() && !self.ubase
    }

    /// Whether the value is grid-uniform: the same for every thread of
    /// every CTA (only constants, parameters, and unknown uniform parts).
    pub fn is_uniform(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether every thread of a warp sees the same value: CTA ids, the
    /// warp id and loop counters may enter, tids and the lane id may not.
    pub fn is_warp_uniform(&self) -> bool {
        !self.terms.keys().any(|t| t.per_thread())
    }

    /// This form made an unknown function of every term `other` depends
    /// on: each gets [`Coeff::Unknown`].
    pub fn depending_on(mut self, other: &SymAffine) -> SymAffine {
        for &t in other.terms.keys() {
            self.terms.insert(t, Coeff::Unknown);
        }
        self
    }

    fn insert_coeff(&mut self, t: Term, c: Coeff) {
        if c.is_zero() {
            self.terms.remove(&t);
        } else {
            self.terms.insert(t, c);
        }
    }

    /// Sum of two forms.
    pub fn add(&self, other: &SymAffine) -> SymAffine {
        let mut out = self.clone();
        for (&t, &c) in &other.terms {
            let merged = out.coeff(t).add(c);
            out.insert_coeff(t, merged);
        }
        out.k = out.k.wrapping_add(other.k);
        // A parameter added twice stops being "the base pointer, once";
        // degrade the duplicate to an unknown uniform addend.
        for &b in &other.bases {
            if !out.bases.insert(b) {
                out.ubase = true;
            }
        }
        out.ubase |= other.ubase;
        out
    }

    /// Negation. Base pointers cannot be negated meaningfully; they
    /// degrade to an unknown uniform addend.
    pub fn neg(&self) -> SymAffine {
        let mut out = SymAffine::default();
        for (&t, &c) in &self.terms {
            out.insert_coeff(t, c.scale(-1));
        }
        out.k = self.k.wrapping_neg();
        out.ubase = self.ubase || !self.bases.is_empty();
        out
    }

    /// Scale by a known constant.
    pub fn scale(&self, c: i64) -> SymAffine {
        if c == 0 {
            return SymAffine::constant(0);
        }
        let mut out = SymAffine::default();
        for (&t, &co) in &self.terms {
            out.insert_coeff(t, co.scale(c));
        }
        out.k = self.k.wrapping_mul(c);
        out.ubase = self.ubase || !self.bases.is_empty();
        if c == 1 {
            out.bases = self.bases.clone();
            out.ubase = self.ubase;
        }
        out
    }

    /// Multiply by an unknown grid-uniform scalar: term support survives
    /// with [`Coeff::Unknown`] coefficients; constants become unknown
    /// uniform. Returns `None` (not representable) when `self` carries a
    /// base pointer — scaled pointers are not addresses we can reason
    /// about.
    pub fn scale_unknown(&self) -> Option<SymAffine> {
        if !self.bases.is_empty() {
            return None;
        }
        let mut out = SymAffine::default();
        for (&t, &c) in &self.terms {
            if !c.is_zero() {
                out.terms.insert(t, Coeff::Unknown);
            }
        }
        out.ubase = self.ubase || self.k != 0 || out.terms.is_empty();
        Some(out)
    }

    /// Least upper bound over merging control paths: agreeing coefficients
    /// survive, disagreeing ones widen to [`Coeff::Unknown`]; differing
    /// constants fold into the unknown uniform addend; base sets union.
    pub fn join(&self, other: &SymAffine) -> SymAffine {
        let mut out = SymAffine::default();
        let keys: BTreeSet<Term> = self
            .terms
            .keys()
            .chain(other.terms.keys())
            .copied()
            .collect();
        for t in keys {
            let c = match (self.coeff(t), other.coeff(t)) {
                (Coeff::Known(a), Coeff::Known(b)) if a == b => Coeff::Known(a),
                _ => Coeff::Unknown,
            };
            out.insert_coeff(t, c);
        }
        if self.k == other.k {
            out.k = self.k;
        } else {
            out.ubase = true;
        }
        out.bases = self.bases.union(&other.bases).copied().collect();
        out.ubase |= self.ubase || other.ubase || self.bases != other.bases;
        out
    }
}

impl fmt::Display for SymAffine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &b in &self.bases {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "param@{b}")?;
            first = false;
        }
        if self.ubase {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "u")?;
            first = false;
        }
        for (&t, &c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            match c {
                Coeff::Known(v) => write!(f, "{v}*{t}")?,
                Coeff::Unknown => write!(f, "?*{t}")?,
            }
            first = false;
        }
        if self.k != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.k)?;
        }
        Ok(())
    }
}

/// A finite arithmetic progression `{lo, lo+step, ..., hi}` of byte or
/// block offsets, with an exactness certificate.
///
/// Invariants: `step >= 1`, `lo <= hi`, `(hi - lo) % step == 0`. When
/// `exact` is false the range is a *superset* of the abstracted set (same
/// bounds, possibly finer step than reality warrants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ARange {
    /// Smallest element.
    pub lo: i64,
    /// Largest element.
    pub hi: i64,
    /// Distance between consecutive elements (`>= 1`).
    pub step: i64,
    /// Whether the progression equals the abstracted set, rather than
    /// over-approximating it.
    pub exact: bool,
}

impl ARange {
    /// The one-element range `{v}`.
    pub fn singleton(v: i64) -> ARange {
        ARange {
            lo: v,
            hi: v,
            step: 1,
            exact: true,
        }
    }

    /// A range from bounds and step; `hi` is clipped down onto the
    /// progression.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `step < 1`.
    pub fn new(lo: i64, hi: i64, step: i64, exact: bool) -> ARange {
        assert!(step >= 1, "ARange step must be >= 1");
        assert!(lo <= hi, "ARange lo must be <= hi");
        let hi = lo + ((hi - lo) / step) * step;
        let step = if lo == hi { 1 } else { step };
        ARange {
            lo,
            hi,
            step,
            exact,
        }
    }

    /// `{0, c, 2c, ..., (n-1)·c}` — the contribution of a term with
    /// coefficient `c` over a domain of `n` values (exact). Negative `c`
    /// walks downward; the result is normalized to `lo <= hi`.
    pub fn strided(c: i64, n: u64) -> ARange {
        let n = n.max(1) as i64;
        if c == 0 || n == 1 {
            return ARange::singleton(0);
        }
        let end = c * (n - 1);
        ARange::new(end.min(0), end.max(0), c.abs(), true)
    }

    /// Number of elements.
    pub fn count(&self) -> u64 {
        ((self.hi - self.lo) / self.step + 1) as u64
    }

    /// The extent `hi - lo` in the range's unit.
    pub fn extent(&self) -> i64 {
        self.hi - self.lo
    }

    /// Whether `v` is an element (of the progression; for inexact ranges
    /// this is membership in the superset).
    pub fn contains(&self, v: i64) -> bool {
        v >= self.lo && v <= self.hi && (v - self.lo) % self.step == 0
    }

    /// Shift every element by `d`.
    pub fn shift(&self, d: i64) -> ARange {
        ARange {
            lo: self.lo + d,
            hi: self.hi + d,
            ..*self
        }
    }

    /// Minkowski sum `{a + b}`. Exact when one side is a singleton, or
    /// when the finer progression tiles the coarser step completely
    /// (`span(fine) + step(fine) >= step(coarse)` with divisible steps);
    /// otherwise a gcd-step superset.
    pub fn add(&self, other: &ARange) -> ARange {
        let lo = self.lo + other.lo;
        let hi = self.hi + other.hi;
        if self.count() == 1 {
            return ARange::new(lo, hi, other.step, other.exact && self.exact);
        }
        if other.count() == 1 {
            return ARange::new(lo, hi, self.step, self.exact && other.exact);
        }
        let g = gcd(self.step, other.step);
        let (fine, coarse) = if self.step <= other.step {
            (self, other)
        } else {
            (other, self)
        };
        let tiles = coarse.step % fine.step == 0 && fine.extent() + fine.step >= coarse.step;
        ARange::new(lo, hi, g, self.exact && other.exact && tiles)
    }

    /// Scale every element by `c != 0`.
    pub fn scale(&self, c: i64) -> ARange {
        assert!(c != 0, "scale by zero collapses the range; handle earlier");
        let (a, b) = (self.lo * c, self.hi * c);
        ARange::new(a.min(b), a.max(b), (self.step * c).abs(), self.exact)
    }

    /// Convex-ish hull of two ranges: bounds union, gcd step (including
    /// the offset between the progressions). Exact only when the result
    /// provably enumerates exactly the union.
    pub fn merge(&self, other: &ARange) -> ARange {
        let lo = self.lo.min(other.lo);
        let hi = self.hi.max(other.hi);
        let mut g = gcd(self.step, other.step);
        g = gcd(g, (self.lo - other.lo).abs());
        let g = g.max(1);
        // Exact iff same effective step, aligned, and no gap between them.
        let exact = self.exact
            && other.exact
            && self.step == other.step
            && g == self.step
            && self.lo.max(other.lo) <= self.hi.min(other.hi) + self.step;
        ARange::new(lo, hi, g, exact)
    }

    /// Intersection of the two progressions, `None` when empty. Solves the
    /// congruence pair exactly (CRT); on exact inputs the result is the
    /// exact set intersection, on inexact inputs it is a superset of the
    /// true intersection.
    pub fn intersect(&self, other: &ARange) -> Option<ARange> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        if lo > hi {
            return None;
        }
        // x ≡ self.lo (mod self.step), x ≡ other.lo (mod other.step)
        let (g, _, _) = egcd(self.step, other.step);
        if (other.lo - self.lo).rem_euclid(g) != 0 {
            return None;
        }
        let l = self.step / g * other.step; // lcm
                                            // One solution via CRT, in i128 to dodge overflow.
        let (_, p, _) = egcd(self.step, other.step);
        let diff = i128::from(other.lo) - i128::from(self.lo);
        let x0 = i128::from(self.lo)
            + diff / i128::from(g) * i128::from(p) % (i128::from(l) / i128::from(g))
                * i128::from(self.step);
        // Smallest solution >= lo.
        let li = i128::from(l);
        let mut first = x0 + (i128::from(lo) - x0).div_euclid(li) * li;
        if first < i128::from(lo) {
            first += li;
        }
        if first > i128::from(hi) {
            return None;
        }
        Some(ARange::new(first as i64, hi, l, self.exact && other.exact))
    }
}

impl fmt::Display for ARange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.lo == self.hi {
            write!(f, "{{{}}}", self.lo)
        } else {
            write!(f, "{}..={}/{}", self.lo, self.hi, self.step)?;
            if !self.exact {
                write!(f, "~")?;
            }
            Ok(())
        }
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.max(1)
}

/// Extended gcd: returns `(g, x, y)` with `a·x + b·y = g`.
fn egcd(a: i64, b: i64) -> (i64, i64, i64) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = egcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enumerate(r: &ARange) -> Vec<i64> {
        (0..r.count() as i64).map(|i| r.lo + i * r.step).collect()
    }

    #[test]
    fn strided_term_ranges() {
        let r = ARange::strided(4, 8);
        assert_eq!((r.lo, r.hi, r.step), (0, 28, 4));
        assert!(r.exact);
        let d = ARange::strided(-4, 8);
        assert_eq!((d.lo, d.hi, d.step), (-28, 0, 4));
        assert_eq!(ARange::strided(0, 5), ARange::singleton(0));
    }

    #[test]
    fn add_exactness() {
        // Fine range tiles the coarse step: exact.
        let a = ARange::strided(4, 32); // 0..124/4
        let b = ARange::strided(128, 4); // 0..384/128
        let s = a.add(&b);
        assert_eq!((s.lo, s.hi, s.step), (0, 508, 4));
        assert!(s.exact);
        // Gap between copies: inexact superset.
        let c = ARange::strided(4, 8); // 0..28/4
        let s2 = c.add(&b);
        assert!(!s2.exact);
        // Still a superset of the true sum.
        for x in enumerate(&c) {
            for y in enumerate(&b) {
                assert!(s2.contains(x + y));
            }
        }
    }

    #[test]
    fn intersect_congruences() {
        let a = ARange::new(0, 100, 4, true);
        let b = ARange::new(2, 100, 6, true);
        // 4x ≡ 2 mod 6 → x ≡ 2 mod 12 over the clipped window.
        let i = a.intersect(&b).expect("nonempty");
        assert_eq!(i.step, 12);
        for v in enumerate(&i) {
            assert!(a.contains(v) && b.contains(v));
        }
        assert!(i.exact);
        // Disjoint residues: empty.
        let c = ARange::new(1, 101, 4, true);
        assert_eq!(a.intersect(&c), None);
        // Disjoint windows: empty.
        let d = ARange::new(200, 300, 4, true);
        assert_eq!(a.intersect(&d), None);
    }

    #[test]
    fn merge_hull() {
        let a = ARange::new(0, 12, 4, true);
        let b = ARange::new(16, 28, 4, true);
        let m = a.merge(&b);
        assert_eq!((m.lo, m.hi, m.step), (0, 28, 4));
        assert!(m.exact); // adjacent, same step, aligned
        let c = ARange::new(100, 112, 4, true);
        let m2 = a.merge(&c);
        assert!(!m2.exact); // gap
    }

    #[test]
    fn sym_affine_algebra() {
        let tid = SymAffine::term(Term::TidX);
        let cta = SymAffine::term(Term::CtaIdX);
        let gid = cta.scale(64).add(&tid); // ctaid.x*64 + tid.x
        assert_eq!(gid.coeff(Term::CtaIdX), Coeff::Known(64));
        assert_eq!(gid.coeff(Term::TidX), Coeff::Known(1));
        let addr = SymAffine::param(0).add(&gid.scale(4));
        assert_eq!(addr.coeff(Term::CtaIdX), Coeff::Known(256));
        assert!(addr.bases.contains(&0));
        assert!(!addr.ubase);
        // Times an unknown scalar: support survives, magnitude does not.
        let scaled = gid.scale_unknown().expect("no bases");
        assert_eq!(scaled.coeff(Term::CtaIdX), Coeff::Unknown);
        assert_eq!(scaled.coeff(Term::TidY), Coeff::Known(0));
        // A scaled pointer is unrepresentable.
        assert!(addr.scale_unknown().is_none());
    }

    #[test]
    fn sym_affine_join() {
        let a = SymAffine::term(Term::TidX).scale(4);
        let b = SymAffine::term(Term::TidX).scale(4);
        assert_eq!(a.join(&b), a);
        let c = SymAffine::term(Term::TidX).scale(8);
        let j = a.join(&c);
        assert_eq!(j.coeff(Term::TidX), Coeff::Unknown);
        let d = SymAffine::constant(4);
        let e = SymAffine::constant(8);
        assert!(d.join(&e).ubase);
    }

    #[test]
    fn launch_ctx_domains() {
        let ctx = LaunchCtx::new([64, 2, 1], [8, 4, 1]);
        assert_eq!(ctx.term_domain(Term::TidX), Some(64));
        assert_eq!(ctx.term_domain(Term::CtaIdY), Some(4));
        assert_eq!(ctx.term_domain(Term::Iv(0)), None);
        assert_eq!(ctx.n_ctas(), 32);
        assert_eq!(ctx.linear_cta([3, 2, 0]), 19);
        assert_eq!(ctx.term_domain(Term::Warp), None);
        // 2^64 CTAs and beyond saturate instead of wrapping to 0.
        let wrap = LaunchCtx::new([1, 1, 1], [1 << 22, 1 << 21, 1 << 21]);
        assert_eq!(wrap.n_ctas(), u64::MAX);
        let huge = LaunchCtx::new([1, 1, 1], [u32::MAX; 3]);
        assert_eq!(huge.n_ctas(), u64::MAX);
        assert_eq!(huge.linear_cta([u32::MAX - 1; 3]), u64::MAX);
    }
}
