//! The two file framings of `gcl_mem::wire` — the sealed envelope and the
//! checksummed section — judged from outside the crate: exact bytes for a
//! fixed input, the envelope's rejection order, and lengths no file can
//! hold; and the one way a finished image becomes a file, `publish`.

use gcl_mem::{fnv_fold_bytes, open, publish, seal, write_section, Dec, WireError, FNV_OFFSET};

/// The envelope's bytes, field by field, for a fixed input.
#[test]
fn seal_bytes_are_pinned() {
    let bytes = seal(b"GCLTEST1", 7, 0x0102_0304_0506_0708, b"abc");
    assert_eq!(bytes.len(), 28 + 3 + 8);
    assert_eq!(&bytes[..8], b"GCLTEST1");
    assert_eq!(bytes[8..12], [7, 0, 0, 0]);
    assert_eq!(bytes[12..20], [8, 7, 6, 5, 4, 3, 2, 1]);
    assert_eq!(bytes[20..28], [3, 0, 0, 0, 0, 0, 0, 0]);
    assert_eq!(&bytes[28..31], b"abc");
    assert_eq!(bytes[31..], 0xac58_5472_d2a2_b0f4_u64.to_le_bytes());
    let env = open(&bytes, b"GCLTEST1").unwrap();
    assert_eq!((env.version, env.tag), (7, 0x0102_0304_0506_0708));
    assert_eq!(env.payload.unwrap(), b"abc");
}

/// Overwrite the trailing checksum so a deliberate edit reaches the
/// checks behind it.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv_fold_bytes(FNV_OFFSET, &bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn open_rejection_order() {
    let good = seal(b"GCLTEST1", 1, 2, &[9u8; 40]);
    // Every strict prefix is a truncation or (cut inside the checksum
    // word, payload complete) a checksum failure — never accepted.
    for n in 0..good.len() {
        let err = open(&good[..n], b"GCLTEST1").unwrap_err();
        assert!(
            matches!(err, WireError::Truncated | WireError::Checksum),
            "cut at {n} gave {err:?}"
        );
    }
    for i in 0..good.len() {
        let mut bad = good.clone();
        bad[i] ^= 0x40;
        assert!(open(&bad, b"GCLTEST1").is_err(), "flip at {i} accepted");
    }
    // Magic is judged before the checksum, and on short inputs too.
    assert_eq!(open(&good, b"GCLOTHER").unwrap_err(), WireError::BadMagic);
    assert_eq!(
        open(&good[..12], b"GCLOTHER").unwrap_err(),
        WireError::BadMagic
    );
    // A sealed file whose declared length disagrees with its size
    // opens (version and tag stay readable) but yields no payload —
    // including the length no slice can have.
    for declared in [39u64, 41, u64::MAX] {
        let mut bad = good.clone();
        bad[20..28].copy_from_slice(&declared.to_le_bytes());
        reseal(&mut bad);
        let env = open(&bad, b"GCLTEST1").unwrap();
        assert_eq!((env.version, env.tag), (1, 2));
        assert_eq!(
            env.payload.unwrap_err(),
            WireError::Malformed("payload length mismatch")
        );
    }
}

#[test]
fn sections_round_trip_and_reject_damage() {
    let mut buf = Vec::new();
    write_section(&mut buf, b"first").unwrap();
    write_section(&mut buf, b"").unwrap();
    assert_eq!(buf.len(), (8 + 5 + 8) + (8 + 8));
    assert_eq!(buf[..8], 5u64.to_le_bytes());
    let mut d = Dec::new(&buf);
    assert_eq!(d.section().unwrap(), b"first");
    assert_eq!(d.section().unwrap(), b"");
    assert!(d.is_done());

    for n in 0..21 {
        assert_eq!(
            Dec::new(&buf[..n]).section().unwrap_err(),
            WireError::Truncated,
            "cut at {n}"
        );
    }
    let mut flipped = buf.clone();
    flipped[9] ^= 1;
    assert_eq!(
        Dec::new(&flipped).section().unwrap_err(),
        WireError::Checksum
    );
    // A length no buffer can satisfy is a truncation, not an
    // arithmetic overflow.
    for len in [u64::MAX, u64::MAX - 3, 1 << 40] {
        let mut huge = len.to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 32]);
        assert_eq!(Dec::new(&huge).section().unwrap_err(), WireError::Truncated);
    }
}

/// Two threads publish different images to one path 200 times each while a
/// reader polls it: every read is one whole image, never a mix or a
/// prefix, and no temp file outlives its publish. Under the old
/// `path.with_extension("tmp")` scheme both writers shared one temp name.
#[test]
fn concurrent_publish_is_atomic_and_leaves_no_temp() {
    let dir = std::env::temp_dir().join(format!("gcl-publish-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // `publish` creates the missing parent directories itself.
    let path = dir.join("nested").join("image.bin");
    let images = [vec![0xaau8; 64 * 1024], vec![0x55u8; 48 * 1024]];
    let start = std::sync::Barrier::new(3);
    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for (image, fsync) in images.iter().zip([false, true]) {
            let (path, start, done) = (&path, &start, &done);
            s.spawn(move || {
                start.wait();
                for _ in 0..200 {
                    publish(path, image, fsync).expect("publish");
                }
                done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
        }
        start.wait();
        let mut reads = 0;
        while done.load(std::sync::atomic::Ordering::SeqCst) < 2 || reads == 0 {
            if let Ok(seen) = std::fs::read(&path) {
                assert!(images.contains(&seen), "torn read of {} bytes", seen.len());
                reads += 1;
            }
        }
    });
    let left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["image.bin"], "a temp file survived");

    // A publish that cannot complete reports the error and removes its temp.
    let blocked = dir.join("nested");
    assert!(
        publish(&blocked, b"x", false).is_err(),
        "a directory is in the way"
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}
