//! Golden-diagnostic corpus: intentionally-broken PTX files must produce
//! exactly the expected structured diagnostics, and every shipped kernel
//! (the 15 workloads plus the example PTX) must be verifier-clean.

use gcl_analyze::{analyze, footprints, LaunchCtx, Severity, Sharing};
use gcl_ptx::parse_kernel;
use gcl_workloads::all_workloads;
use std::fs;
use std::path::Path;

fn corpus(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_corpus")
        .join(name);
    fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

#[test]
fn use_before_def_corpus() {
    let k = parse_kernel(&corpus("use_before_def.ptx")).unwrap();
    let r = analyze(&k);
    assert_eq!(r.diagnostics.len(), 1, "{r}");
    let d = &r.diagnostics[0];
    assert_eq!(d.code, "use-before-def");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.pc, 1);
    assert_eq!(d.message, "%r7 is read but no definition reaches this use");
    assert_eq!(d.inst, "st.global.u32 [%r8], %r7;");
}

#[test]
fn divergent_bar_corpus() {
    let k = parse_kernel(&corpus("divergent_bar.ptx")).unwrap();
    let r = analyze(&k);
    let bars: Vec<_> = r
        .diagnostics
        .iter()
        .filter(|d| d.code == "divergent-barrier")
        .collect();
    assert_eq!(bars.len(), 1, "{r}");
    let d = bars[0];
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.pc, 3);
    assert_eq!(d.inst, "bar.sync 0;");
    assert!(
        d.message.contains("divergent branch at pc 2"),
        "{}",
        d.message
    );
    // The barrier after reconvergence is NOT flagged.
    assert!(!r.diagnostics.iter().any(|d| d.pc == 5), "{r}");
    // And the branch itself is annotated divergent.
    assert_eq!(r.branches.len(), 1);
    assert!(r.branches[0].divergent);
}

#[test]
fn dead_store_corpus() {
    let k = parse_kernel(&corpus("dead_store.ptx")).unwrap();
    let r = analyze(&k);
    assert_eq!(r.diagnostics.len(), 1, "{r}");
    let d = &r.diagnostics[0];
    assert_eq!(d.code, "dead-store");
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.pc, 1);
    assert_eq!(d.message, "the value written to %r1 is never read");
    assert_eq!(d.inst, "mov.u32 %r1, 5;");
}

#[test]
fn type_mismatch_corpus() {
    let k = parse_kernel(&corpus("type_mismatch.ptx")).unwrap();
    let r = analyze(&k);
    assert_eq!(r.diagnostics.len(), 1, "{r}");
    let d = &r.diagnostics[0];
    assert_eq!(d.code, "type-mismatch");
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(d.pc, 2);
    assert_eq!(
        d.message,
        "%r1 is defined as 32-bit at pc 1 but used as 64-bit"
    );
}

#[test]
fn use_before_def_dual_corpus_deduplicates() {
    // Two undefined registers on one instruction: the verifier proves both
    // violations but reports one diagnostic per (pc, code).
    let k = parse_kernel(&corpus("use_before_def_dual.ptx")).unwrap();
    let r = analyze(&k);
    assert_eq!(r.diagnostics.len(), 1, "{r}");
    let d = &r.diagnostics[0];
    assert_eq!(d.code, "use-before-def");
    assert_eq!(d.pc, 0);
}

#[test]
fn loop_down_corpus_recovers_trip_count() {
    let k = parse_kernel(&corpus("loop_down.ptx")).unwrap();
    let r = analyze(&k);
    assert!(r.is_clean(), "{r}");
    let loc = footprints(&k, &LaunchCtx::new([1, 1, 1], [2, 1, 1]));
    assert_eq!(loc.loads.len(), 1);
    let l = &loc.loads[0];
    // i runs 8, 7, ..., 1 at the load: buf[1..=8], 32 B, one block — the
    // down-counting latch guard must yield exactly 8 trips.
    assert_eq!(l.block_count, Some(1), "form {:?}", l.sym);
    // The CTA id never enters the address: identical across the grid.
    assert_eq!(l.sharing, Sharing::Broadcast);
    // A do-while body runs whenever the loop is entered: exact claims.
    assert!(l.exact);
}

#[test]
fn loop_tiled2d_corpus_is_private_and_exact() {
    let k = parse_kernel(&corpus("loop_tiled2d.ptx")).unwrap();
    let r = analyze(&k);
    assert!(r.is_clean(), "{r}");
    let loc = footprints(&k, &LaunchCtx::new([1, 1, 1], [4, 1, 1]));
    assert_eq!(loc.loads.len(), 1);
    let l = &loc.loads[0];
    // 4 rows of 64 B tiled by 16 4-B columns: the inner range tiles the
    // outer stride exactly, so the 256 B per-CTA window is exact — two
    // 128 B blocks, disjoint across CTAs.
    assert_eq!(l.block_count, Some(2), "form {:?}", l.sym);
    assert_eq!(l.cta_stride_x, Some(256));
    assert_eq!(l.sharing, Sharing::Private);
    assert!(l.exact, "nested counted-loop body must stay unconditional");
    assert_eq!(loc.matrix.total(), 0);
}

#[test]
fn loop_chase_corpus_reports_unbounded() {
    let k = parse_kernel(&corpus("loop_chase.ptx")).unwrap();
    let r = analyze(&k);
    assert!(r.is_clean(), "{r}");
    let loc = footprints(&k, &LaunchCtx::new([1, 1, 1], [2, 1, 1]));
    // The chased load's address comes from loaded data: even with the trip
    // count known, no static bound exists.
    let chase = loc
        .loads
        .iter()
        .find(|l| l.sharing == Sharing::Unbounded)
        .expect("pointer-chase load reported unbounded");
    assert!(chase.blocks.is_none());
    assert!(!chase.exact);
}

#[test]
fn warp_uniform_address_parts_keep_the_load_coalesced() {
    // A register-held grid stride, a non-linear function of the CTA id and
    // the warp id are all the same for every lane: they belong to the
    // unknown base and must not cost the load its per-thread shape.
    for name in ["grid_stride.ptx", "row_shift.ptx", "warp_lane.ptx"] {
        let k = parse_kernel(&corpus(name)).unwrap();
        let r = analyze(&k);
        assert!(r.is_clean(), "{name}: {r}");
        assert_eq!(r.loads.len(), 1, "{name}: {r}");
        let p = &r.loads[0].prediction;
        let form = p.affine.map(|v| v.to_string());
        assert_eq!(form.as_deref(), Some("base + 4*tid.x"), "{name}: {r}");
        assert_eq!(p.prediction.label(), "coalesced", "{name}: {r}");
    }
}

#[test]
fn workload_corpus_is_verifier_clean() {
    for w in all_workloads() {
        for k in w.kernels() {
            let r = analyze(&k);
            assert!(
                r.is_clean(),
                "workload {} kernel {} has diagnostics:\n{r}",
                w.name(),
                k.name()
            );
        }
    }
}

#[test]
fn example_ptx_is_verifier_clean() {
    let src =
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/gather.ptx"))
            .unwrap();
    let k = parse_kernel(&src).unwrap();
    let r = analyze(&k);
    assert!(r.is_clean(), "{r}");
    // The gather load is correctly predicted: idx[tid] coalesced, data[i]
    // unknown (load-derived address).
    assert_eq!(r.loads.len(), 2);
    assert_eq!(r.loads[0].prediction.prediction.label(), "coalesced");
    assert_eq!(r.loads[1].prediction.prediction.label(), "unknown");
}
