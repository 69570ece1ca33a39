//! `gcl-analyze` — static analysis suite over the PTX subset.
//!
//! Five passes read one set of per-kernel facts (CFG, reaching definitions,
//! D/N classification, dominators and loops — built once per kernel):
//!
//! * a **verifier** ([`verify()`]) with structural lints — use-before-def,
//!   type/width mismatches, unreachable blocks, dead stores/loads, missing
//!   `exit`;
//! * a **divergence analysis** ([`divergence()`]) that annotates each branch
//!   uniform/divergent and statically flags barriers reachable under
//!   divergent control flow (which hang the simulator's watchdog at
//!   runtime); it and the verifier's liveness share the [`dataflow`] engine;
//! * a **tid-affine address analysis** ([`affine`]) that predicts, per
//!   static load, the coalescer request count (global) or bank-conflict
//!   degree (shared), cross-validated against dynamic measurement in the
//!   test suite;
//! * a **footprint analysis** ([`footprint`]) that, given a launch geometry,
//!   bounds each load's per-CTA 128 B-block set and predicts inter-CTA
//!   sharing;
//! * a **critical-load ranking** ([`critical`]) over the classification,
//!   the divergence regions and the predictions.
//!
//! The two address passes are views of one evaluator: a backward walk over
//! address def-chains into the [`SymAffine`] domain, of which the affine
//! predictor keeps the per-thread coefficients and the footprint pass the
//! whole form.
//!
//! [`analyze`] runs the first three, [`analyze_with`] optionally the other
//! two, and both bundle the result in a [`Report`] with human-readable
//! ([`std::fmt::Display`]) and CSV output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affine;
pub mod critical;
pub mod dataflow;
pub mod diag;
pub mod divergence;
mod eval;
mod facts;
pub mod footprint;
pub mod symaff;
pub mod verify;

pub use affine::{affine_loads, AffineVal, LoadPrediction, Prediction};
pub use critical::{critical_loads, CriticalLoad};
pub use diag::{Diagnostic, Severity};
pub use divergence::{divergence, BranchDivergence, DivergenceInfo};
pub use footprint::{
    footprints, ClusterMap, KernelLocality, LoadFootprint, Sharing, SharingMatrix,
};
pub use symaff::{ARange, Coeff, LaunchCtx, SymAffine, Term};
pub use verify::verify;

use facts::Facts;
use gcl_core::LoadClass;
use gcl_ptx::Kernel;
use std::fmt;

/// Schema/version line emitted ahead of the CSV header so downstream
/// consumers can detect column drift. Bump the version whenever
/// [`Report::csv_header`] changes.
pub const CSV_SCHEMA: &str = "#schema gcl-analyze csv v2";

/// Optional analyses layered on top of [`analyze`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Compute per-load footprints and inter-CTA sharing under this launch
    /// geometry ([`footprint::footprints`]).
    pub locality: Option<LaunchCtx>,
    /// Rank loads by static criticality ([`critical::critical_loads`]).
    pub critical: bool,
}

/// One load in a [`Report`]: static prediction joined with the paper's
/// D/N classification.
#[derive(Debug, Clone)]
pub struct ReportLoad {
    /// The static prediction (pc, space, affine form, requests/banks).
    pub prediction: LoadPrediction,
    /// The D/N class of the load (deterministic addresses tend to coalesce).
    pub class: LoadClass,
    /// The load instruction, rendered.
    pub inst: String,
}

/// Combined result of the analyses over one kernel.
#[derive(Debug, Clone)]
pub struct Report {
    /// Kernel name.
    pub kernel: String,
    /// Verifier and divergence findings, sorted by (pc, code).
    pub diagnostics: Vec<Diagnostic>,
    /// Conditional branches annotated uniform/divergent.
    pub branches: Vec<BranchDivergence>,
    /// Data loads with class and prediction.
    pub loads: Vec<ReportLoad>,
    /// Footprint / inter-CTA sharing analysis, when requested via
    /// [`AnalyzeOptions::locality`].
    pub locality: Option<KernelLocality>,
    /// Critical-load ranking, when requested via
    /// [`AnalyzeOptions::critical`] (empty otherwise).
    pub critical: Vec<CriticalLoad>,
}

impl Report {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Whether the kernel passed every lint.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Header row for [`Report::csv_rows`]. The column order is part of
    /// the [`CSV_SCHEMA`] contract and pinned by a golden-file test.
    pub fn csv_header() -> &'static str {
        "kernel,pc,space,class,affine,prediction,sharing,blocks,cta_stride_x,crit_rank,crit_score"
    }

    /// One CSV row per analyzed load, `-` for columns whose analysis was
    /// not requested or produced no value.
    pub fn csv_rows(&self) -> Vec<String> {
        let dash = || "-".to_string();
        self.loads
            .iter()
            .map(|l| {
                let pc = l.prediction.pc;
                let affine = match &l.prediction.affine {
                    Some(v) => v.to_string(),
                    None => dash(),
                };
                let fp = self
                    .locality
                    .as_ref()
                    .and_then(|loc| loc.loads.iter().find(|f| f.pc == pc));
                let sharing = fp
                    .map(|f| f.sharing.label().to_string())
                    .unwrap_or_else(dash);
                let blocks = fp
                    .and_then(|f| f.block_count)
                    .map(|n| n.to_string())
                    .unwrap_or_else(dash);
                let stride = fp
                    .and_then(|f| f.cta_stride_x)
                    .map(|s| s.to_string())
                    .unwrap_or_else(dash);
                let crit = self.critical.iter().find(|c| c.pc == pc);
                let rank = crit.map(|c| c.rank.to_string()).unwrap_or_else(dash);
                let score = crit.map(|c| c.score.to_string()).unwrap_or_else(dash);
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{}",
                    self.kernel,
                    pc,
                    l.prediction.space,
                    l.class.letter(),
                    affine,
                    l.prediction.prediction.label(),
                    sharing,
                    blocks,
                    stride,
                    rank,
                    score,
                )
            })
            .collect()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let divergent = self.branches.iter().filter(|b| b.divergent).count();
        writeln!(
            f,
            "kernel `{}`: {} error(s), {} warning(s), {} branch(es) ({} divergent), {} load(s)",
            self.kernel,
            self.error_count(),
            self.warning_count(),
            self.branches.len(),
            divergent,
            self.loads.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        for b in &self.branches {
            writeln!(
                f,
                "  branch pc {}: {}",
                b.pc,
                if b.divergent { "divergent" } else { "uniform" }
            )?;
        }
        for l in &self.loads {
            let affine = match &l.prediction.affine {
                Some(v) => format!("addr = {v}"),
                None => "addr not affine".to_string(),
            };
            writeln!(
                f,
                "  load pc {} ({}, {}): {} -> {}",
                l.prediction.pc,
                l.prediction.space,
                l.class.letter(),
                affine,
                l.prediction.prediction.label()
            )?;
        }
        if let Some(loc) = &self.locality {
            write!(f, "{loc}")?;
        }
        for c in &self.critical {
            writeln!(
                f,
                "  critical #{}: pc {} ({}, {}) score {} — chain {}, slice {}, {} consumer(s), {} request(s){}",
                c.rank,
                c.pc,
                c.space,
                c.class.letter(),
                c.score,
                c.chain_depth,
                c.slice_height,
                c.consumers,
                c.requests,
                if c.divergent { ", divergent" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// Run the verifier, the divergence analysis and the affine address
/// analysis over one kernel.
pub fn analyze(kernel: &Kernel) -> Report {
    analyze_with(kernel, &AnalyzeOptions::default())
}

/// [`analyze`], plus the optional locality and criticality layers. Every
/// pass reads the one set of per-kernel facts built here.
pub fn analyze_with(kernel: &Kernel, opts: &AnalyzeOptions) -> Report {
    let facts = Facts::new(kernel);
    let mut diagnostics = verify::lints(kernel, facts.cfg(), &facts.reaching);
    let div = divergence::divergence(kernel, facts.cfg());
    diagnostics.extend(div.diagnostics.iter().cloned());
    diagnostics.sort_by(|a, b| (a.pc, a.code).cmp(&(b.pc, b.code)));
    // Passes can anchor several findings of one kind to the same
    // instruction (e.g. use-before-def once per undefined register);
    // rendering each would double-report. Keep the first per (pc, code).
    diagnostics.dedup_by(|a, b| (a.pc, a.code) == (b.pc, b.code));

    let predictions = affine::predictions(&facts);
    let critical = if opts.critical {
        critical::rank(&facts, &div, &predictions)
    } else {
        Vec::new()
    };
    let insts = kernel.insts();
    let loads = predictions
        .into_iter()
        .map(|p| ReportLoad {
            inst: insts[p.pc].to_string(),
            class: facts.class_of(p.pc),
            prediction: p,
        })
        .collect();

    Report {
        kernel: kernel.name().to_string(),
        diagnostics,
        branches: div.branches,
        loads,
        locality: opts.locality.map(|ctx| footprint::locality(&facts, &ctx)),
        critical,
    }
}
