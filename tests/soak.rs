//! `gcl soak` through the real binary: a short chaos run that kills the
//! journaled coordinator and a worker at least once each, then holds the
//! harness to relations between its own counters (never to counts, which
//! depend on timing) and the report to the key set it has always written.

use gcl::exec::{run_soak, SoakOptions};
use gcl::stats::Json;
use std::path::PathBuf;

#[test]
fn chaos_soak_audits_every_acked_job() {
    let dir = std::env::temp_dir().join(format!("gcl-soak-{}", std::process::id()));
    let opts = SoakOptions {
        gcl_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_gcl"))),
        workers: 2,
        duration_ms: 4_000,
        chaos: true,
        kill_worker_ms: 1_000,
        kill_coordinator_ms: 2_000,
        journal: dir.join("journal.bin"),
        out: dir.join("soak.json"),
        ..SoakOptions::default()
    };
    let report = run_soak(&opts).expect("soak passes its own audit");

    assert!(report.acked > 0, "nothing acked: {report:?}");
    assert_eq!(report.audited, report.acked, "{report:?}");
    // The coordinator joins every submit of a known key to that key's
    // first job, so each acked id is one distinct spec.
    assert_eq!(report.digest_matches, report.acked, "{report:?}");
    let specs = (opts.workloads.len() * opts.distinct) as u64;
    assert!(report.digest_matches <= specs, "{report:?}");
    assert!(report.coordinator_kills >= 1, "{report:?}");
    assert!(report.worker_kills >= 1, "{report:?}");
    assert!(
        report.sims + report.dedup_hits <= report.submits,
        "a submit was served twice: {report:?}"
    );

    let text = std::fs::read_to_string(&opts.out).expect("report written");
    let Json::Obj(pairs) = Json::parse(&text).expect("report parses") else {
        panic!("report is not an object: {text}");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "version",
            "duration_ms",
            "chaos",
            "workers",
            "seed",
            "submits",
            "acked",
            "audited",
            "digest_matches",
            "coordinator_kills",
            "worker_kills",
            "sims",
            "dedup_hits",
            "resumed",
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}
