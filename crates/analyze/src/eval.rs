//! The one address evaluator: a memoized walk over reaching-definition
//! chains into the [`SymAffine`] domain.
//!
//! This is the paper's backward walk over address def-chains — the
//! traversal `gcl_core`'s D/N classifier runs to collect terminal sources —
//! run once more to collect *values*. Both address passes read it:
//! [`crate::footprint`] evaluates under a launch geometry and keeps the
//! whole form, [`crate::affine`] evaluates without one and keeps the
//! per-thread coefficients.
//!
//! What the walk knows beyond straight-line linear arithmetic:
//!
//! * **induction variables** — a register with exactly one unguarded
//!   in-loop `i = i ± step` and initializations outside that loop reads as
//!   `init + step·iv` inside it, over [`gcl_ptx::LoopForest`]; the trip
//!   count of a loop is recovered from its exit guard when that compares
//!   such a counter with a static constant;
//! * **warp-uniform non-linearity** — an operation the domain cannot track
//!   linearly (shifts, division, bit logic, comparisons, a product of two
//!   unknowns) over operands every thread of a warp agrees on yields an
//!   unknown function of the terms they depend on ([`Coeff::Unknown`] on
//!   that support), not a refusal;
//! * **nothing else about cycles** — a recurrence that is not a recognized
//!   induction variable is not affine. Every consumer needs either the
//!   constants or the coefficients to be right, so a cycle is never
//!   guessed through.

use crate::facts::Facts;
use crate::symaff::{Coeff, LaunchCtx, SymAffine, Term};
use gcl_core::DefSite;
use gcl_ptx::{Address, AluOp, CmpOp, Op, Operand, Reg, Space, Special, Type, UnaryOp};
use std::collections::HashMap;

/// Iteration cap when scanning a loop guard for its trip count.
const MAX_TRIP_SCAN: i64 = 1 << 16;

/// An abstract value of the evaluator: an affine form, or `None` for "not
/// affine" (load-derived, non-linear in a tid, or an unrecognized
/// recurrence).
type Sym = Option<SymAffine>;

fn add(a: Sym, b: Sym) -> Sym {
    Some(a?.add(&b?))
}

/// Least upper bound over merging control paths.
fn join(a: Sym, b: Sym) -> Sym {
    Some(a?.join(&b?))
}

/// An operation the domain does not track linearly. Over operands every
/// thread of a warp agrees on, the result is an unknown function of the
/// terms they depend on; anything per-thread is not affine.
fn opaque(ops: &[&Sym]) -> Sym {
    let mut out = SymAffine::unknown_uniform();
    for o in ops {
        out = out.depending_on(o.as_ref().filter(|v| v.is_warp_uniform())?);
    }
    Some(out)
}

fn mul(a: &Sym, b: &Sym) -> Sym {
    let (x, y) = (a.as_ref()?, b.as_ref()?);
    if x.is_constant() {
        return Some(y.scale(x.k));
    }
    if y.is_constant() {
        return Some(x.scale(y.k));
    }
    // One side grid-uniform but unknown: the term support of the other
    // side survives with unknown magnitudes.
    let scaled = if x.is_uniform() {
        y.scale_unknown()
    } else if y.is_uniform() {
        x.scale_unknown()
    } else {
        None
    };
    scaled.or_else(|| opaque(&[a, b]))
}

/// One evaluation of a kernel's addresses, memoized per definition site.
pub(crate) struct SymEval<'f> {
    pub facts: &'f Facts<'f>,
    /// Launch geometry substituted for `%ntid.*` / `%nctaid.*`; without one
    /// they are unknown uniforms.
    geometry: Option<LaunchCtx>,
    /// Value per def id: `None` until evaluated.
    memo: Vec<Option<Sym>>,
    /// Defs on the current walk, per def id.
    in_progress: Vec<bool>,
    trips: HashMap<usize, Option<u64>>,
}

impl<'f> SymEval<'f> {
    pub fn new(facts: &'f Facts<'f>, geometry: Option<LaunchCtx>) -> SymEval<'f> {
        SymEval {
            facts,
            geometry,
            memo: vec![None; facts.reaching.defs().len()],
            in_progress: vec![false; facts.reaching.defs().len()],
            trips: HashMap::new(),
        }
    }

    /// The address the memory instruction at `pc` forms from `addr`.
    pub fn address(&mut self, pc: usize, addr: &Address) -> Sym {
        let offset = Some(SymAffine::constant(addr.offset));
        match addr.base {
            Some(base) => add(self.value_of_use(pc, base), offset),
            None => offset,
        }
    }

    /// `reg = reg ± step` at `pc`, unguarded, with `step` some other
    /// operand: `(step, subtracted)`.
    fn iv_step(&self, pc: usize, reg: Reg) -> Option<(Operand, bool)> {
        let inst = &self.facts.kernel.insts()[pc];
        let Op::Alu { op, dst, a, b, .. } = &inst.op else {
            return None;
        };
        if inst.guard.is_some() || *dst != reg {
            return None;
        }
        let me = Operand::Reg(reg);
        match op {
            AluOp::Add if *a == me && *b != me => Some((*b, false)),
            AluOp::Add if *b == me && *a != me => Some((*a, false)),
            AluOp::Sub if *a == me && *b != me => Some((*b, true)),
            _ => None,
        }
    }

    fn value_of_use(&mut self, use_pc: usize, reg: Reg) -> Sym {
        let Facts {
            reaching, forest, ..
        } = self.facts;
        let cfg = reaching.cfg();
        let defs = reaching.defs_reaching_use(use_pc, reg);
        // Induction-variable recognition: exactly one in-loop self-increment
        // plus initializations from outside that loop, with the use inside
        // it, evaluates to `init + step·iv` instead of chasing the cycle.
        let ivs: Vec<(DefSite, usize, Operand, bool)> = defs
            .iter()
            .filter_map(|d| {
                let (step, subtracted) = self.iv_step(d.pc, reg)?;
                let l = forest.innermost_of(cfg.block_of(d.pc))?;
                Some((*d, l, step, subtracted))
            })
            .collect();
        if let [(inc, l, step, subtracted)] = ivs[..] {
            let lp = &forest.loops()[l];
            // Needs the init defs in the reaching set: a use that sees only
            // the increment resolves through `value_of_def(inc)` instead,
            // whose own operand use does see the {init, increment} pair.
            if defs.len() > 1
                && lp.contains(cfg.block_of(use_pc))
                && defs
                    .iter()
                    .all(|d| d.pc == inc.pc || !lp.contains(cfg.block_of(d.pc)))
            {
                let init = defs
                    .iter()
                    .filter(|d| d.pc != inc.pc)
                    .map(|d| self.value_of_def(*d))
                    .reduce(join)
                    .flatten();
                // A step held in a register is as good as an immediate when
                // the warp agrees on it: `mul` names the stride it can and
                // leaves an unknown one otherwise.
                let mut step = self.value_of_operand(inc.pc, &step);
                if subtracted {
                    step = step.map(|v| v.neg());
                }
                return add(init, mul(&step, &Some(SymAffine::term(Term::Iv(l)))));
            }
        }
        // No definition at all is the verifier's finding: predict nothing.
        defs.iter()
            .map(|d| self.value_of_def(*d))
            .reduce(join)
            .flatten()
    }

    /// A launch extent: its value under the geometry, else an unknown
    /// uniform.
    fn extent(&self, pick: impl Fn(&LaunchCtx) -> u32) -> SymAffine {
        match &self.geometry {
            Some(g) => SymAffine::constant(i64::from(pick(g))),
            None => SymAffine::unknown_uniform(),
        }
    }

    fn value_of_operand(&mut self, pc: usize, o: &Operand) -> Sym {
        Some(match o {
            Operand::Reg(r) => return self.value_of_use(pc, *r),
            Operand::Imm(v) => SymAffine::constant(*v),
            // Float immediates never feed integer addresses usefully.
            Operand::FImm(_) => SymAffine::unknown_uniform(),
            Operand::Special(s) => match s {
                Special::TidX => SymAffine::term(Term::TidX),
                Special::TidY => SymAffine::term(Term::TidY),
                Special::TidZ => SymAffine::term(Term::TidZ),
                Special::CtaIdX => SymAffine::term(Term::CtaIdX),
                Special::CtaIdY => SymAffine::term(Term::CtaIdY),
                Special::CtaIdZ => SymAffine::term(Term::CtaIdZ),
                Special::LaneId => SymAffine::term(Term::Lane),
                Special::WarpId => SymAffine::term(Term::Warp),
                Special::NTidX => self.extent(|g| g.ntid[0]),
                Special::NTidY => self.extent(|g| g.ntid[1]),
                Special::NTidZ => self.extent(|g| g.ntid[2]),
                Special::NCtaIdX => self.extent(|g| g.nctaid[0]),
                Special::NCtaIdY => self.extent(|g| g.nctaid[1]),
                Special::NCtaIdZ => self.extent(|g| g.nctaid[2]),
            },
        })
    }

    fn value_of_def(&mut self, def: DefSite) -> Sym {
        let id = self
            .facts
            .reaching
            .def_id_at_pc(def.pc)
            .expect("a reaching definition writes a register");
        if let Some(v) = &self.memo[id] {
            return v.clone();
        }
        if std::mem::replace(&mut self.in_progress[id], true) {
            // Unrecognized recurrence: refuse, do not pretend.
            return None;
        }
        let pc = def.pc;
        let v = match &self.facts.kernel.insts()[pc].op {
            // A pointer-typed parameter at a declared offset is a base; any
            // other parameterized read is an unknown uniform.
            Op::Ld {
                space: Space::Param,
                addr,
                ..
            } if addr.base.is_none() => self.param_value(addr.offset),
            Op::Ld {
                space: Space::Param | Space::Const,
                ..
            } => Some(SymAffine::unknown_uniform()),
            Op::Ld { .. } | Op::Atom { .. } => None,
            Op::Mov { src, .. } | Op::Cvt { src, .. } => self.value_of_operand(pc, src),
            Op::Unary { op, a, .. } => {
                let va = self.value_of_operand(pc, a);
                match op {
                    UnaryOp::Neg => va.map(|v| v.neg()),
                    _ => opaque(&[&va]),
                }
            }
            Op::Alu { op, a, b, .. } => {
                let va = self.value_of_operand(pc, a);
                let vb = self.value_of_operand(pc, b);
                match op {
                    AluOp::Add => add(va, vb),
                    AluOp::Sub => add(va, vb.map(|v| v.neg())),
                    AluOp::Mul | AluOp::MulWide => mul(&va, &vb),
                    AluOp::Shl => match &vb {
                        Some(s) if s.is_constant() && (0..=32).contains(&s.k) => {
                            va.map(|v| v.scale(1i64 << s.k))
                        }
                        _ => opaque(&[&va, &vb]),
                    },
                    _ => opaque(&[&va, &vb]),
                }
            }
            Op::Mad { a, b, c, .. } => {
                let va = self.value_of_operand(pc, a);
                let vb = self.value_of_operand(pc, b);
                let vc = self.value_of_operand(pc, c);
                add(mul(&va, &vb), vc)
            }
            Op::Sfu { a, .. } => {
                let va = self.value_of_operand(pc, a);
                opaque(&[&va])
            }
            Op::Setp { a, b, .. } => {
                let va = self.value_of_operand(pc, a);
                let vb = self.value_of_operand(pc, b);
                opaque(&[&va, &vb])
            }
            Op::Selp { a, b, pred, .. } => {
                let va = self.value_of_operand(pc, a);
                let vb = self.value_of_operand(pc, b);
                match self.value_of_use(pc, *pred) {
                    _ if va == vb => va,
                    // The warp selects as one: either value, and which of
                    // them depends on whatever the predicate does.
                    Some(p) if p.is_warp_uniform() => join(va, vb).map(|v| v.depending_on(&p)),
                    _ => None,
                }
            }
            Op::St { .. } | Op::Bra { .. } | Op::Bar { .. } | Op::Exit => None,
        };
        self.in_progress[id] = false;
        self.memo[id] = Some(v.clone());
        v
    }

    fn param_value(&self, offset: i64) -> Sym {
        let kernel = self.facts.kernel;
        let pointer = u32::try_from(offset).ok().filter(|&off| {
            (0..kernel.params().len())
                .any(|i| kernel.param_offset(i) == off && kernel.params()[i].ty == Type::U64)
        });
        Some(pointer.map_or_else(SymAffine::unknown_uniform, SymAffine::param))
    }

    /// Trip count of loop `l`, when the exit guard compares a recognized
    /// induction variable against a static constant.
    pub fn loop_trips(&mut self, l: usize) -> Option<u64> {
        if let Some(t) = self.trips.get(&l) {
            return *t;
        }
        self.trips.insert(l, None); // cut re-entrancy
        let t = self.compute_trips(l);
        self.trips.insert(l, t);
        t
    }

    fn compute_trips(&mut self, l: usize) -> Option<u64> {
        let Facts {
            kernel,
            reaching,
            forest,
            ..
        } = self.facts;
        let cfg = reaching.cfg();
        let lp = &forest.loops()[l];
        let (gb, exit_target) = *lp.exit_edges.first()?;
        if !lp.exit_edges.iter().all(|e| e.0 == gb) {
            return None;
        }
        let term_pc = cfg.blocks()[gb].terminator_pc();
        let (target, guard) = match &kernel.insts()[term_pc] {
            gcl_ptx::Instruction {
                op: Op::Bra { target },
                guard: Some(g),
            } => (*target, *g),
            _ => return None,
        };
        let branch_block = cfg.block_of(target);
        if term_pc + 1 >= kernel.insts().len() {
            return None;
        }
        let fall_block = cfg.block_of(term_pc + 1);
        if branch_block == fall_block {
            return None;
        }
        let exit_on_taken = exit_target == branch_block;
        let defs = reaching.defs_reaching_use(term_pc, guard.pred);
        let [pdef] = defs[..] else { return None };
        let sp = pdef.pc;
        let (cmp, a, b) = match &kernel.insts()[sp] {
            gcl_ptx::Instruction {
                op: Op::Setp { cmp, a, b, .. },
                guard: None,
            } => (*cmp, a, b),
            _ => return None,
        };
        let (ka, sa) = as_iv_line(&self.value_of_operand(sp, a), l)?;
        let (kb, sb) = as_iv_line(&self.value_of_operand(sp, b), l)?;
        for j in 0..=MAX_TRIP_SCAN {
            let taken = eval_cmp(cmp, ka + sa * j, kb + sb * j) != guard.negate;
            let exits_now = if exit_on_taken { taken } else { !taken };
            if exits_now {
                // A latch guard (incl. a single-block do-while, where the
                // header is its own latch) tests after the body ran, so
                // iteration j executed; a pure header guard tests first.
                let t = if lp.latches.contains(&gb) { j + 1 } else { j };
                return u64::try_from(t).ok();
            }
        }
        None
    }
}

/// `v` as `k + s·iv(l)` with everything else absent: `(k, s)`.
fn as_iv_line(v: &Sym, l: usize) -> Option<(i64, i64)> {
    let f = v.as_ref()?;
    if !f.bases.is_empty() || f.ubase {
        return None;
    }
    let mut s = 0i64;
    for (t, c) in f.terms() {
        match (t, c) {
            (Term::Iv(tl), Coeff::Known(cs)) if tl == l => s = cs,
            _ => return None,
        }
    }
    Some((f.k, s))
}

fn eval_cmp(cmp: CmpOp, a: i64, b: i64) -> bool {
    match cmp {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::parse_kernel;

    /// The form of the first global load of `body`, under 64x1x1 threads
    /// and 4x1x1 CTAs.
    fn load_form(body: &str) -> Sym {
        let src = format!(".entry k (.param .u64 buf, .param .u32 n)\n{{\n{body}\n}}");
        let k = parse_kernel(&src).unwrap();
        let facts = Facts::new(&k);
        let ctx = LaunchCtx::new([64, 1, 1], [4, 1, 1]);
        let mut eval = SymEval::new(&facts, Some(ctx));
        let (pc, addr) = (k.insts().iter().enumerate())
            .find_map(|(pc, i)| match &i.op {
                Op::Ld {
                    space: Space::Global,
                    addr,
                    ..
                } => Some((pc, *addr)),
                _ => None,
            })
            .expect("a global load");
        eval.address(pc, &addr)
    }

    const LOOP_HEAD: &str = "
        ld.param.u64 %rd1, [buf];
        ld.param.u32 %r9, [n];
        mov.u32 %r1, %tid.x;
        mov.u32 %r2, 1;";
    const LOOP_BODY: &str = "
        mul.wide.u32 %rd2, %r1, 4;
        add.u64 %rd3, %rd1, %rd2;
        ld.global.u32 %r3, [%rd3];
        setp.lt.u32 %p1, %r1, %r9;
        @%p1 bra LOOP;
        st.global.u32 [%rd1], %r3;
        exit;";

    #[test]
    fn counter_stepped_by_a_runtime_scalar_has_an_unknown_stride() {
        let f = load_form(&format!(
            "{LOOP_HEAD}\nLOOP:\n add.u32 %r1, %r1, %r9;{LOOP_BODY}"
        ))
        .expect("affine");
        assert_eq!(f.coeff(Term::TidX), Coeff::Known(4));
        assert_eq!(f.coeff(Term::Iv(0)), Coeff::Unknown);
    }

    #[test]
    fn counter_stepped_by_another_counter_is_an_unknown_function_of_the_trip() {
        // s += 1; i += s — the step moves, so i is not linear in the trip
        // count, but it still depends on nothing else.
        let f = load_form(&format!(
            "{LOOP_HEAD}\nLOOP:\n add.u32 %r2, %r2, 1;\n add.u32 %r1, %r1, %r2;{LOOP_BODY}"
        ))
        .expect("affine");
        assert_eq!(f.coeff(Term::TidX), Coeff::Known(4));
        assert_eq!(f.coeff(Term::Iv(0)), Coeff::Unknown);
        assert!(f.ubase);
    }

    #[test]
    fn self_feeding_recurrences_are_refused() {
        // i += i and i += tid.x: not induction variables, so not affine.
        for step in ["%r1", "%tid.x"] {
            let f = load_form(&format!(
                "{LOOP_HEAD}\nLOOP:\n add.u32 %r1, %r1, {step};{LOOP_BODY}"
            ));
            assert_eq!(f, None, "step {step}");
        }
    }

    #[test]
    fn value_selected_by_a_cta_predicate_depends_on_the_cta() {
        // off = ctaid.x == 0 ? 0 : 1024. The warp agrees on it, so the
        // per-thread shape survives; CTAs do not, so ctaid.x must show.
        let f = load_form(
            "ld.param.u64 %rd1, [buf];
             mov.u32 %r1, %ctaid.x;
             setp.eq.u32 %p1, %r1, 0;
             selp.u32 %r2, 0, 1024, %p1;
             mov.u32 %r3, %tid.x;
             add.u32 %r4, %r2, %r3;
             mul.wide.u32 %rd2, %r4, 4;
             add.u64 %rd3, %rd1, %rd2;
             ld.global.u32 %r5, [%rd3];
             st.global.u32 [%rd3], %r5;
             exit;",
        )
        .expect("affine");
        assert_eq!(f.coeff(Term::TidX), Coeff::Known(4));
        assert_eq!(f.coeff(Term::CtaIdX), Coeff::Unknown);
    }
}
