//! Property-style tests of the load classifier: soundness of the taint
//! rules on randomly generated dependence chains (half of them with one
//! back edge around an ALU cycle, some steps with a guarded overwrite),
//! driven by the in-tree seeded generator so failures are bit-reproducible.

#[path = "common/chain.rs"]
mod chain;

use chain::{build, chain};
use gcl_core::{classify, LoadClass};
use gcl_ptx::Op;
use gcl_rng::cases;

/// The classifier's verdict on the final load matches exact taint
/// propagation through the chain.
#[test]
fn classifier_matches_exact_taint() {
    cases(0xC1A5, 512, |r| {
        let c = chain(r);
        let (kernel, load_pc, tainted) = build(&c);
        let classes = classify(&kernel);
        let got = classes.class_of(load_pc).expect("final load classified");
        let want = if tainted {
            LoadClass::NonDeterministic
        } else {
            LoadClass::Deterministic
        };
        assert_eq!(got, want, "chain {c:?}");
    });
}

/// Non-deterministic verdicts always come with a witness chain that starts
/// at the load and ends at a memory-read instruction.
#[test]
fn witnesses_are_well_formed() {
    cases(0xC1A6, 512, |r| {
        let c = chain(r);
        let (kernel, load_pc, _) = build(&c);
        let classes = classify(&kernel);
        let info = classes.load(load_pc).unwrap();
        if info.class == LoadClass::NonDeterministic {
            assert!(!info.witness.is_empty());
            assert_eq!(info.witness[0], load_pc);
            let last = *info.witness.last().unwrap();
            let op = &kernel.insts()[last].op;
            assert!(
                matches!(op, Op::Ld { space, .. } if !space.is_parameterized())
                    || matches!(op, Op::Atom { .. }),
                "witness terminal {op}"
            );
        } else {
            assert!(info.witness.is_empty());
        }
    });
}

/// Classification is idempotent and source sets are non-empty.
#[test]
fn classification_is_stable() {
    cases(0xC1A7, 256, |r| {
        let c = chain(r);
        let (kernel, load_pc, _) = build(&c);
        let a = classify(&kernel);
        let b = classify(&kernel);
        assert_eq!(a, b);
        assert!(!a.load(load_pc).unwrap().sources.is_empty());
    });
}
