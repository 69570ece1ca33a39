//! Byte-level pins for the four on-disk containers: one checkpoint image,
//! one result-cache entry, two journals (the second holding every record
//! kind and counter id), one trace container — each built
//! from fixed inputs and compared by length and FNV of its bytes — and for
//! the result payload two real runs produce. A
//! refactor of the framing code must leave every pin untouched; a change
//! here is a format change and needs a version bump to go with it.

use gcl_exec::fleet::{JCounter, Journal, Record};
use gcl_exec::{run_job, JobSpec, ResultCache, SpecFingerprint};
use gcl_mem::{
    write_section, ClassTag, Dec, Enc, L2Partition, MemRequest, PartitionConfig, PartitionEvent,
};
use gcl_ptx::{Reg, Space};
use gcl_sim::{
    fnv_fold_bytes, Dim3, GpuConfig, LaunchInfo, LaunchStats, MemAccess, ReplayKind, Snapshot,
    TraceEvent, TraceSink, FNV_OFFSET, SNAPSHOT_VERSION,
};
use gcl_trace::{parse_trace, TraceWriter};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcl-format-pins-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `(length, FNV-1a of the bytes)` — what each pin records.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), fnv_fold_bytes(FNV_OFFSET, bytes))
}

#[test]
fn snapshot_container_bytes_are_pinned() {
    let snap = Snapshot {
        version: SNAPSHOT_VERSION,
        config_fp: 0x0123_4567_89ab_cdef,
        payload: (0u8..64).collect(),
    };
    let bytes = snap.to_bytes();
    // The envelope is small enough to pin whole: magic, version 3,
    // fingerprint, length 64, payload, trailing FNV.
    assert_eq!(&bytes[..8], b"GCLSNAP1");
    assert_eq!(bytes[8..12], 3u32.to_le_bytes());
    assert_eq!(bytes[12..20], 0x0123_4567_89ab_cdef_u64.to_le_bytes());
    assert_eq!(bytes[20..28], 64u64.to_le_bytes());
    assert_eq!(bytes[28..92], snap.payload[..]);
    assert_eq!(
        bytes[92..],
        fnv_fold_bytes(FNV_OFFSET, &bytes[..92]).to_le_bytes()
    );
    assert_eq!(pin(&bytes), (100, 0x740f_71fa_8406_a8f4));
    assert_eq!(Snapshot::from_bytes(&bytes).unwrap(), snap);
}

#[test]
fn cache_entry_bytes_are_pinned() {
    let dir = scratch("cache");
    let cache = ResultCache::new(&dir);
    let fp = SpecFingerprint {
        workload: "pin".to_string(),
        tiny: true,
        config_fp: 0x1111_2222_3333_4444,
        kernels_fp: 0x5555_6666_7777_8888,
    };
    let stats = LaunchStats {
        cycles: 1234,
        launches: 2,
        digest: Some(0xfeed_face),
        ..LaunchStats::default()
    };
    cache.store(&fp, &stats, 12.5).unwrap();
    let bytes = std::fs::read(cache.entry_path(fp.key())).unwrap();
    assert_eq!(fp.key(), 0x6532_df76_eae5_f927);
    assert_eq!(pin(&bytes), (1929, 0xe955_2291_c77f_9c82));
    let back = cache.load_checked(&fp).unwrap();
    assert_eq!((back.stats, back.wall_ms), (stats, 12.5));
    std::fs::remove_dir_all(&dir).ok();
}

/// The result payload of a real run: the bytes every cache entry and fleet
/// `done` frame carry, with populated per-pc rows, histograms and a
/// sanitizer digest. `2mm` is mostly D loads, `bfs` mostly N loads.
#[test]
fn launch_stats_of_real_runs_are_pinned() {
    for (workload, want) in [
        ("2mm", (2178, 0xca9e_1d1d_09e9_667a)),
        ("bfs", (3609, 0x5ae6_95f9_efe5_f924)),
    ] {
        let mut cfg = GpuConfig::small();
        cfg.sanitize = true;
        let stats = run_job(&JobSpec::new(workload, true, cfg), None)
            .outcome
            .expect("tiny run")
            .stats;
        assert!(stats.digest.is_some(), "{workload}: sanitizer digest");
        assert!(!stats.per_pc.is_empty(), "{workload}: per-pc rows");
        let mut e = Enc::new();
        stats.ckpt_encode(&mut e);
        let bytes = e.into_bytes();
        assert_eq!(pin(&bytes), want, "{workload}");
        let back = LaunchStats::ckpt_decode(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(back, stats, "{workload}: round trip");
    }
}

/// An L2 partition's checkpoint image while it holds pending sanitizer
/// events of both kinds, so the event tags are held by bytes. A whole-GPU
/// snapshot never shows one: the memory system drains every event in the
/// tick that raised it.
#[test]
fn pending_partition_events_are_pinned() {
    let mut part = L2Partition::new(PartitionConfig::fermi());
    let mut read = MemRequest::read(1, 0x80, 0, ClassTag::NonDeterministic, 1, 0);
    read.san = 11;
    let mut write = MemRequest::write(2, 0x1000, 0, 0);
    write.san = 12;
    assert!(part.enqueue(read) && part.enqueue(write));
    for cycle in 0..300 {
        part.tick(cycle);
        while part.pop_response(cycle).is_some() {}
    }
    let mut e = Enc::new();
    part.ckpt_encode(&mut e);
    let bytes = e.into_bytes();
    assert_eq!(pin(&bytes), (17791, 0x6faf_761b_5f06_1849));
    let mut back = L2Partition::ckpt_decode(&mut Dec::new(&bytes), PartitionConfig::fermi())
        .expect("partition image decodes");
    let events: Vec<_> = std::iter::from_fn(|| back.pop_event()).collect();
    assert_eq!(
        events,
        [
            (11, PartitionEvent::DramEntered),
            (12, PartitionEvent::DramEntered),
            (12, PartitionEvent::WriteRetired),
        ]
    );
}

#[test]
fn journal_bytes_are_pinned() {
    let dir = scratch("journal");
    let path = dir.join("pins.journal");
    {
        let mut j = Journal::create(&path).unwrap();
        j.append(&Record::Submit {
            id: 7,
            key: 0xfeed_beef,
            workload: "bfs".to_string(),
            tiny: true,
            sanitize: false,
            max_cycles: Some(20_000_001),
            session: Some("s-1".to_string()),
        })
        .unwrap();
        j.append(&Record::Done {
            id: 7,
            cached: false,
            wall_ms: 1.5,
            worker_wall_ms: 2.25,
            worker: "w0".to_string(),
            payload: vec![1, 2, 3, 4, 5],
        })
        .unwrap();
        j.sync().unwrap();
        assert_eq!(j.bytes(), 142);
    }
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(pin(&bytes), (142, 0x68f8_fe06_ce7d_08bf));
    // Everything after magic + version: the records and their framing. A
    // version bump that retires records moves the pin above, not this one.
    assert_eq!(pin(&bytes[10..]), (132, 0x7690_b122_a665_6bae));
    let (_, rec) = Journal::open_recover(&path).unwrap();
    assert!(!rec.truncated);
    assert_eq!(rec.records, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// One record of each live kind and one `Counter` per counter id, with
/// distinct field values, so a swapped field, a moved tag or a swapped id
/// moves the pin.
fn every_record_kind() -> Vec<Record> {
    let s = |v: &str| v.to_string();
    vec![
        Record::SessionOpen { session: s("s-1") },
        Record::Submit {
            id: 3,
            key: 0x0123_4567_89ab_cdef,
            workload: s("spmv"),
            tiny: false,
            sanitize: true,
            max_cycles: None,
            session: None,
        },
        Record::Subscribe {
            id: 3,
            session: s("s-1"),
        },
        Record::Lease {
            id: 3,
            worker: s("w1"),
        },
        Record::Reclaim {
            id: 3,
            reason: s("worker dead"),
        },
        Record::Done {
            id: 3,
            cached: true,
            wall_ms: 0.75,
            worker_wall_ms: 4.0,
            worker: s("w2"),
            payload: vec![9, 8, 7],
        },
        Record::Failed {
            id: 4,
            error: s("boom"),
        },
        Record::SessionDetach { session: s("s-1") },
        Record::Counter {
            counter: JCounter::DedupHits,
            delta: 11,
        },
        Record::Counter {
            counter: JCounter::Sheds,
            delta: 22,
        },
        Record::Counter {
            counter: JCounter::Resumed,
            delta: 33,
        },
        Record::SessionSeq {
            session: s("s-2"),
            next_seq: 44,
        },
    ]
}

#[test]
fn every_journal_record_kind_is_pinned() {
    let dir = scratch("journal-kinds");
    let path = dir.join("kinds.journal");
    let records = every_record_kind();
    {
        let mut j = Journal::create(&path).unwrap();
        for r in &records {
            j.append(r).unwrap();
        }
        j.sync().unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(pin(&bytes[10..]), (434, 0xa9dc_6a9e_0df9_0d51));
    let (_, rec) = Journal::open_recover(&path).unwrap();
    assert!(!rec.truncated);
    assert_eq!(rec.log, records);

    // A retired record tag (8 and 10 from version 1, 11 from version 2)
    // or counter id (6) is not a record: recovery keeps the prefix before
    // it and truncates it as a torn tail.
    let lease_body = [&[3u8; 8][..], &2u64.to_le_bytes(), b"w1"].concat();
    for retired in [
        [&[8u8][..], &lease_body].concat(),
        [&[10u8][..], &lease_body].concat(),
        [&[11u8][..], &lease_body].concat(),
        [&[9u8, 6][..], &1u64.to_le_bytes()].concat(),
    ] {
        let mut torn = bytes.clone();
        write_section(&mut torn, &retired).unwrap();
        std::fs::write(&path, &torn).unwrap();
        let (_, rec) = Journal::open_recover(&path).unwrap();
        assert!(rec.truncated, "tag {}", retired[0]);
        assert_eq!(rec.log, records, "tag {}", retired[0]);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "tag {}", retired[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_container_bytes_are_pinned() {
    let dir = scratch("trace");
    let path = dir.join("pins.gcltrace");
    let mut w = TraceWriter::create(&path, 0x0abc_def0_1234_5678).unwrap();
    let ev = |pc: u32, active: u32| TraceEvent {
        cycle: 0,
        sm: 0,
        warp_slot: 0,
        cta: 0,
        pc,
        active,
    };
    for (launch, name) in ["first", "second"].into_iter().enumerate() {
        w.begin_launch(&LaunchInfo {
            kernel_fp: 0x1000 + launch as u64,
            kernel_name: name.to_string(),
            grid: Dim3 { x: 2, y: 1, z: 1 },
            block: Dim3 { x: 32, y: 1, z: 1 },
            n_streams: 2,
        });
        for stream in 0..2u64 {
            w.issue(
                stream,
                &ev(0, u32::MAX),
                &ReplayKind::Alu { dst: Some(Reg(3)) },
            );
            w.issue(
                stream,
                &ev(1, 0x0000_ffff),
                &ReplayKind::Mem(MemAccess {
                    space: Space::Global,
                    is_store: false,
                    dst: Some(Reg(4)),
                    bytes: 4,
                    lane_addrs: (0..16)
                        .map(|l| (l, 0x8000_0000 + 128 * stream + 4 * u64::from(l)))
                        .collect(),
                }),
            );
            w.issue(
                stream,
                &ev(2, u32::MAX),
                &ReplayKind::Branch { diverged: false },
            );
            w.issue(stream, &ev(3, u32::MAX), &ReplayKind::Barrier { id: 0 });
            w.issue(stream, &ev(4, u32::MAX), &ReplayKind::Exit);
        }
        w.end_launch();
    }
    let summary = w.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(summary.bytes, bytes.len() as u64);
    assert_eq!((summary.launches, summary.records), (2, 20));
    assert_eq!(summary.file_fp, 0xc0e0_50d1_f133_1ea4);
    assert_eq!(pin(&bytes), (615, 0x41c9_6bf6_6965_a35f));
    let trace = parse_trace(&bytes).unwrap();
    assert_eq!(trace.launches.len(), 2);
    assert_eq!(trace.launches[1].kernel_name, "second");
    assert_eq!(trace.n_records(), 20);
    std::fs::remove_dir_all(&dir).ok();
}
