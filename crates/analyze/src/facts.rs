//! What every pass needs to know about one kernel, computed once.
//!
//! The passes of this crate all start from the same prerequisites: the
//! CFG, reaching definitions over it, the D/N classification those chains
//! imply, and (for the address passes) the dominator tree and loop forest.
//! [`crate::analyze_with`] builds one [`Facts`] and lends it to each pass;
//! the public one-kernel entry points build their own.

use gcl_core::{classify_with, Classification, LoadClass, ReachingDefs};
use gcl_ptx::{Cfg, Dominators, Kernel, LoopForest};

/// One kernel and the analyses over it that the passes share.
pub(crate) struct Facts<'k> {
    pub kernel: &'k Kernel,
    /// Reaching definitions; they own the [`Cfg`] they ran over.
    pub reaching: ReachingDefs,
    /// The paper's D/N classification, with every load's terminal sources.
    pub classes: Classification,
    /// The dominator tree the loop forest was built from.
    pub dom: Dominators,
    /// Natural loops, for induction-variable and trip-count recovery.
    pub forest: LoopForest,
}

impl<'k> Facts<'k> {
    pub fn new(kernel: &'k Kernel) -> Facts<'k> {
        let reaching = ReachingDefs::compute(kernel);
        let classes = classify_with(kernel, &reaching);
        let dom = reaching.cfg().immediate_dominators();
        let forest = dom.loop_forest(reaching.cfg());
        Facts {
            kernel,
            reaching,
            classes,
            dom,
            forest,
        }
    }

    pub fn cfg(&self) -> &Cfg {
        self.reaching.cfg()
    }

    /// The class of the data load at `pc`: the passes report on exactly
    /// the loads the classifier takes as subjects (every `ld` outside the
    /// param and const spaces).
    pub fn class_of(&self, pc: usize) -> LoadClass {
        self.classes
            .class_of(pc)
            .expect("every data load is a classification subject")
    }
}
