//! Tid-affine address analysis: static coalescing and bank-conflict
//! prediction for loads.
//!
//! Each address is abstracted as `base + cx·tid.x + cy·tid.y + cz·tid.z + k`
//! where `base` stands for any warp-uniform but statically unknown component
//! (kernel parameters, `%ctaid` and `%warpid` terms, loop counters). This is
//! the per-warp *projection* of the crate's one address evaluation, run
//! without a launch geometry (`%ntid.*` / `%nctaid.*` are unknown
//! uniforms): when the per-thread coefficients of the
//! [`SymAffine`] form are known, the per-lane
//! addresses of one warp are known up to a uniform offset, which is enough
//! to predict how many memory requests the coalescer emits (global loads,
//! `gcl_sim`'s 128 B-line rule) or the bank-conflict degree (shared loads,
//! 32 four-byte banks).
//!
//! Soundness caveats (also in DESIGN.md §11):
//!
//! * lanes are assumed to map to consecutive `tid.x` (x-major warps, true in
//!   the simulator); predictions with `cy`/`cz` components are reported
//!   [`Prediction::Unknown`] rather than guessed;
//! * the uniform base is assumed 128-byte aligned — a misaligned base can
//!   double the real request count, so the cross-validation margin is 2;
//! * `%laneid` is treated like `tid.x` (exact for x-major warps);
//! * a loop-carried register is affine only as a recognized induction
//!   variable (`i += step` with a warp-uniform step); its counter joins the
//!   base and `k` is the iteration-0 constant. Any other recurrence is not
//!   affine.

use crate::eval::SymEval;
use crate::facts::Facts;
use crate::symaff::{Coeff, SymAffine, Term};
use gcl_ptx::{Kernel, Op, Space};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// An affine address expression `base? + cx·tid.x + cy·tid.y + cz·tid.z + k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffineVal {
    /// Coefficient of `tid.x` (and `%laneid`).
    pub cx: i64,
    /// Coefficient of `tid.y`.
    pub cy: i64,
    /// Coefficient of `tid.z`.
    pub cz: i64,
    /// Known constant term, in bytes.
    pub k: i64,
    /// Whether an unknown warp-uniform component is present.
    pub base: bool,
}

impl AffineVal {
    /// Whether all threads of a warp see the same value.
    pub fn is_uniform(&self) -> bool {
        self.cx == 0 && self.cy == 0 && self.cz == 0
    }

    /// The per-warp view of a symbolic address: the per-thread coefficients
    /// (`%laneid` counting as `tid.x`) and the constant, everything else —
    /// parameters, CTA and warp ids, loop counters, unknown addends — folded
    /// into `base`. `None` when a per-thread coefficient is unknown.
    fn project(f: &SymAffine) -> Option<AffineVal> {
        let known = |t| match f.coeff(t) {
            Coeff::Known(c) => Some(c),
            Coeff::Unknown => None,
        };
        Some(AffineVal {
            cx: known(Term::TidX)?.wrapping_add(known(Term::Lane)?),
            cy: known(Term::TidY)?,
            cz: known(Term::TidZ)?,
            k: f.k,
            base: f.ubase || !f.bases.is_empty() || f.terms().any(|(t, _)| !t.per_thread()),
        })
    }
}

impl fmt::Display for AffineVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        if self.base {
            write!(f, "base")?;
            first = false;
        }
        for (c, name) in [(self.cx, "tid.x"), (self.cy, "tid.y"), (self.cz, "tid.z")] {
            if c != 0 {
                if !first {
                    write!(f, " + ")?;
                }
                write!(f, "{c}*{name}")?;
                first = false;
            }
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

/// Static memory-behaviour prediction for one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prediction {
    /// Global-backed load: requests one warp's access generates in the
    /// coalescer (1 = fully coalesced, 32 = fully serialized).
    Requests(u32),
    /// Shared load: bank-conflict degree (1 = conflict-free).
    BankDegree(u32),
    /// The address is not tid-affine (or not x-affine); no prediction.
    Unknown,
}

impl Prediction {
    /// Short human label (`coalesced`, `strided(4)`, `serialized(32)`, ...).
    pub fn label(&self) -> String {
        match self {
            Prediction::Requests(1) => "coalesced".to_string(),
            Prediction::Requests(n) if *n >= 16 => format!("serialized({n})"),
            Prediction::Requests(n) => format!("strided({n})"),
            Prediction::BankDegree(1) => "conflict-free".to_string(),
            Prediction::BankDegree(n) => format!("bank-conflict({n})"),
            Prediction::Unknown => "unknown".to_string(),
        }
    }
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Warp width the predictions assume.
pub const WARP_LANES: i64 = 32;
/// Coalescer line size the predictions assume (the simulator's L1 line).
pub const LINE_BYTES: i64 = 128;
/// Shared-memory bank count.
pub const BANKS: i64 = 32;

/// Per-lane byte addresses of a full warp for an affine address, taking the
/// unknown uniform base as 0 (assumed [`LINE_BYTES`]-aligned).
fn lane_addrs(v: &AffineVal) -> Vec<i64> {
    let start = if v.base { 0 } else { v.k };
    (0..WARP_LANES).map(|l| start + l * v.cx).collect()
}

/// Predict the request count / bank degree for an affine address of an
/// access of `bytes` bytes in `space`.
pub fn predict(space: Space, bytes: u32, v: &AffineVal) -> Prediction {
    if v.cy != 0 || v.cz != 0 {
        // Lanes map to tid.x; y/z strides need the (unknown) CTA x-extent.
        return Prediction::Unknown;
    }
    match space {
        Space::Shared => {
            // Mirror of gcl_sim::bank_conflict_degree: 4-byte interleaved
            // banks, broadcasts of one word are free.
            let mut per_bank: HashMap<i64, BTreeSet<i64>> = HashMap::new();
            for a in lane_addrs(v) {
                let word = a.div_euclid(4);
                per_bank
                    .entry(word.rem_euclid(BANKS))
                    .or_default()
                    .insert(word);
            }
            let deg = per_bank.values().map(|w| w.len()).max().unwrap_or(1).max(1);
            Prediction::BankDegree(deg as u32)
        }
        Space::Global | Space::Local | Space::Tex => {
            // Mirror of gcl_sim::coalesce with 128 B lines.
            let mut lines: BTreeSet<i64> = BTreeSet::new();
            for a in lane_addrs(v) {
                lines.insert(a.div_euclid(LINE_BYTES));
                lines.insert((a + i64::from(bytes) - 1).div_euclid(LINE_BYTES));
            }
            Prediction::Requests(lines.len() as u32)
        }
        Space::Param | Space::Const => Prediction::Requests(1),
    }
}

/// One static load with its affine address and prediction.
#[derive(Debug, Clone)]
pub struct LoadPrediction {
    /// Instruction index of the load.
    pub pc: usize,
    /// State space accessed.
    pub space: Space,
    /// Access size in bytes.
    pub bytes: u32,
    /// Affine form of the address, when the analysis found one.
    pub affine: Option<AffineVal>,
    /// Predicted memory behaviour.
    pub prediction: Prediction,
}

/// Analyze every data load (global-backed and shared) of `kernel`.
pub fn affine_loads(kernel: &Kernel) -> Vec<LoadPrediction> {
    predictions(&Facts::new(kernel))
}

/// [`affine_loads`] over facts the caller already has.
pub(crate) fn predictions(facts: &Facts<'_>) -> Vec<LoadPrediction> {
    let mut eval = SymEval::new(facts, None);
    let mut out = Vec::new();
    for (pc, inst) in facts.kernel.insts().iter().enumerate() {
        let Op::Ld {
            space, ty, addr, ..
        } = &inst.op
        else {
            continue;
        };
        // The classifier's subjects exactly: parameterized reads are
        // sources for other loads, not loads to predict.
        if space.is_parameterized() {
            continue;
        }
        let bytes = ty.size_bytes();
        let affine = eval.address(pc, addr).and_then(|f| AffineVal::project(&f));
        out.push(LoadPrediction {
            pc,
            space: *space,
            bytes,
            affine,
            prediction: affine.map_or(Prediction::Unknown, |av| predict(*space, bytes, &av)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{AluOp, KernelBuilder, Special, Type};

    fn tid_scaled_kernel(elem: u32) -> Kernel {
        // addr = param + tid.x * elem; ld.global.u32
        let mut b = KernelBuilder::new("k");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let tid = b.sreg(Special::TidX);
        let a = b.index64(base, tid, elem);
        let _ = b.ld_global(Type::U32, a);
        b.exit();
        b.build().unwrap()
    }

    #[test]
    fn unit_stride_is_coalesced() {
        let k = tid_scaled_kernel(4);
        let loads = affine_loads(&k);
        assert_eq!(loads.len(), 1);
        let av = loads[0].affine.expect("affine");
        assert_eq!(av.cx, 4);
        assert!(av.base);
        assert_eq!(loads[0].prediction, Prediction::Requests(1));
    }

    #[test]
    fn line_stride_is_serialized() {
        let k = tid_scaled_kernel(128);
        let loads = affine_loads(&k);
        assert_eq!(loads[0].prediction, Prediction::Requests(32));
    }

    #[test]
    fn uniform_address_is_one_request() {
        let mut b = KernelBuilder::new("k");
        let p = b.param("buf", Type::U64);
        let base = b.ld_param(Type::U64, p);
        let _ = b.ld_global(Type::U32, base);
        b.exit();
        let k = b.build().unwrap();
        let loads = affine_loads(&k);
        assert_eq!(loads[0].prediction, Prediction::Requests(1));
    }

    #[test]
    fn load_derived_address_is_unknown() {
        // addr = param + x[tid]*4 — classic gather.
        let mut b = KernelBuilder::new("k");
        let pi = b.param("idx", Type::U64);
        let pd = b.param("data", Type::U64);
        let idx = b.ld_param(Type::U64, pi);
        let data = b.ld_param(Type::U64, pd);
        let tid = b.sreg(Special::TidX);
        let ia = b.index64(idx, tid, 4);
        let iv = b.ld_global(Type::U32, ia);
        let da = b.index64(data, iv, 4);
        let _ = b.ld_global(Type::U32, da);
        b.exit();
        let k = b.build().unwrap();
        let loads = affine_loads(&k);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].prediction, Prediction::Requests(1));
        assert_eq!(loads[1].prediction, Prediction::Unknown);
        assert!(loads[1].affine.is_none());
    }

    #[test]
    fn shared_stride_banks() {
        // smem[tid*4] conflict-free; smem[tid*8] 2-way (u32 accesses).
        for (elem, deg) in [(4u32, 1u32), (8, 2), (128, 32)] {
            let mut b = KernelBuilder::new("k");
            b.shared(4096);
            let tid = b.sreg(Special::TidX);
            let off = b.mul(Type::U32, tid, i64::from(elem));
            let a = b.cvt(Type::U64, Type::U32, off);
            let _ = b.ld_shared(Type::U32, a);
            b.exit();
            let k = b.build().unwrap();
            let loads = affine_loads(&k);
            assert_eq!(
                loads[0].prediction,
                Prediction::BankDegree(deg),
                "elem {elem}"
            );
        }
    }

    #[test]
    fn loop_counter_stays_uniform() {
        // for (i = 0; i < n; i++) load buf[i]  — uniform every iteration.
        let mut b = KernelBuilder::new("k");
        let p = b.param("buf", Type::U64);
        let pn = b.param("n", Type::U32);
        let base = b.ld_param(Type::U64, p);
        let n = b.ld_param(Type::U32, pn);
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        let done = b.new_label();
        b.place(head);
        let pr = b.setp(gcl_ptx::CmpOp::Ge, Type::U32, i, n);
        b.bra_if(pr, done);
        let a = b.index64(base, i, 4);
        let _ = b.ld_global(Type::U32, a);
        b.push(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: 1i64.into(),
        });
        b.bra(head);
        b.place(done);
        b.exit();
        let k = b.build().unwrap();
        let loads = affine_loads(&k);
        assert_eq!(loads.len(), 1);
        let av = loads[0].affine.expect("loop counter is affine-uniform");
        assert!(av.is_uniform());
        assert_eq!(loads[0].prediction, Prediction::Requests(1));
    }

    #[test]
    fn tid_accumulating_loop_is_top() {
        // i += tid each iteration: coefficient grows, must refuse to guess.
        let mut b = KernelBuilder::new("k");
        let p = b.param("buf", Type::U64);
        let pn = b.param("n", Type::U32);
        let base = b.ld_param(Type::U64, p);
        let n = b.ld_param(Type::U32, pn);
        let tid = b.sreg(Special::TidX);
        let i = b.reg();
        b.push(Op::Mov {
            ty: Type::U32,
            dst: i,
            src: 0i64.into(),
        });
        let head = b.new_label();
        let done = b.new_label();
        b.place(head);
        let pr = b.setp(gcl_ptx::CmpOp::Ge, Type::U32, i, n);
        b.bra_if(pr, done);
        let a = b.index64(base, i, 4);
        let _ = b.ld_global(Type::U32, a);
        b.push(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: i,
            a: i.into(),
            b: tid.into(),
        });
        b.bra(head);
        b.place(done);
        b.exit();
        let k = b.build().unwrap();
        let loads = affine_loads(&k);
        assert_eq!(loads[0].prediction, Prediction::Unknown);
    }
}
