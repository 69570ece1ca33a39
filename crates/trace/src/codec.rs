//! Columnar record codec: one warp stream's records split into four
//! delta-compressed columns (pcs, masks, kind tags, kind payloads), with
//! per-stream predictor state kept apart from the buffers — concatenating
//! a stream's chunk columns in order yields exactly the encoding of the
//! whole stream.

use gcl_mem::{Dec, Enc, WireError};
use gcl_ptx::Reg;
use gcl_sim::{space_code, space_from_code, ReplayKind, ReplayRecord};

/// Kind tags of the tag column. Never reorder: recorded traces depend on
/// them (they also match `ReplayKind`'s fingerprint tags).
const TAG_ALU: u8 = 0;
const TAG_MEM: u8 = 1;
const TAG_BRANCH: u8 = 2;
const TAG_BARRIER: u8 = 3;
const TAG_EXIT: u8 = 4;
const TAG_PREDICATED: u8 = 5;

/// Per-stream delta predictors. Chunks encoded under one state
/// concatenate seamlessly.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColState {
    prev_pc: i64,
    prev_addr: i64,
}

/// One stream's (possibly partial) column buffers.
#[derive(Debug, Default)]
pub(crate) struct ColBufs {
    /// Records encoded into these buffers.
    pub n: u64,
    /// Delta-encoded pcs.
    pub pc: Enc,
    /// Active masks.
    pub mask: Enc,
    /// Kind tags.
    pub tag: Enc,
    /// Kind payloads.
    pub payload: Enc,
}

impl ColBufs {
    /// Total bytes currently buffered across the four columns.
    #[cfg(test)]
    pub fn bytes(&self) -> usize {
        self.pc.len() + self.mask.len() + self.tag.len() + self.payload.len()
    }
}

fn enc_reg(e: &mut Enc, dst: Option<Reg>) {
    e.varint(dst.map_or(0, |r| u64::from(r.0) + 1));
}

fn dec_reg(d: &mut Dec<'_>) -> Result<Option<Reg>, WireError> {
    let v = d.varint()?;
    if v == 0 {
        return Ok(None);
    }
    let idx = u32::try_from(v - 1).map_err(|_| WireError::Malformed("register index overflow"))?;
    Ok(Some(Reg(idx)))
}

/// Append one record to a stream's columns, advancing its predictors.
pub(crate) fn encode_record(
    bufs: &mut ColBufs,
    st: &mut ColState,
    pc: u32,
    mask: u32,
    kind: &ReplayKind,
) {
    bufs.n += 1;
    bufs.pc.svarint(i64::from(pc) - st.prev_pc);
    st.prev_pc = i64::from(pc);
    bufs.mask.varint(u64::from(mask));
    match kind {
        ReplayKind::Alu { dst } => {
            bufs.tag.u8(TAG_ALU);
            enc_reg(&mut bufs.payload, *dst);
        }
        ReplayKind::Mem {
            space,
            is_store,
            dst,
            bytes,
            lane_addrs,
        } => {
            bufs.tag.u8(TAG_MEM);
            let p = &mut bufs.payload;
            p.u8(space_code(*space));
            p.bool(*is_store);
            enc_reg(p, *dst);
            p.varint(u64::from(*bytes));
            p.varint(lane_addrs.len() as u64);
            let mut prev_lane: i64 = -1;
            for &(lane, addr) in lane_addrs {
                // Lanes are strictly ascending, so `delta - 1` keeps
                // consecutive lanes at zero.
                p.varint((i64::from(lane) - prev_lane - 1) as u64);
                prev_lane = i64::from(lane);
                p.svarint((addr as i64).wrapping_sub(st.prev_addr));
                st.prev_addr = addr as i64;
            }
        }
        ReplayKind::Branch { diverged } => {
            bufs.tag.u8(TAG_BRANCH);
            bufs.payload.bool(*diverged);
        }
        ReplayKind::Barrier { id } => {
            bufs.tag.u8(TAG_BARRIER);
            bufs.payload.varint(u64::from(*id));
        }
        ReplayKind::Exit => bufs.tag.u8(TAG_EXIT),
        ReplayKind::Predicated => bufs.tag.u8(TAG_PREDICATED),
    }
}

/// Decode one stream: `n` records from its four concatenated columns.
/// Rejects columns with leftover bytes — every record must account for
/// exactly the bytes present.
pub(crate) fn decode_stream(
    n: u64,
    pc_col: &[u8],
    mask_col: &[u8],
    tag_col: &[u8],
    payload_col: &[u8],
) -> Result<Vec<ReplayRecord>, WireError> {
    let n = usize::try_from(n).map_err(|_| WireError::Malformed("stream record count"))?;
    if tag_col.len() != n {
        return Err(WireError::Malformed("tag column length"));
    }
    let mut pcs = Dec::new(pc_col);
    let mut masks = Dec::new(mask_col);
    let mut payloads = Dec::new(payload_col);
    let mut st = ColState::default();
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for &tag in tag_col {
        let pc_v = st.prev_pc + pcs.svarint()?;
        let pc = u32::try_from(pc_v).map_err(|_| WireError::Malformed("pc delta out of range"))?;
        st.prev_pc = pc_v;
        let mask_v = masks.varint()?;
        let mask = u32::try_from(mask_v).map_err(|_| WireError::Malformed("mask out of range"))?;
        let kind = match tag {
            TAG_ALU => ReplayKind::Alu {
                dst: dec_reg(&mut payloads)?,
            },
            TAG_MEM => {
                let space = space_from_code(payloads.u8()?)
                    .ok_or(WireError::Malformed("memory space code"))?;
                let is_store = payloads.bool()?;
                let dst = dec_reg(&mut payloads)?;
                let bytes = u32::try_from(payloads.varint()?)
                    .map_err(|_| WireError::Malformed("access width"))?;
                let n_lanes = payloads.varint()?;
                if n_lanes > 64 {
                    return Err(WireError::Malformed("lane count"));
                }
                let mut lane_addrs = Vec::with_capacity(n_lanes as usize);
                let mut prev_lane: i64 = -1;
                for _ in 0..n_lanes {
                    let lane_v = prev_lane + 1 + payloads.varint()? as i64;
                    let lane = u32::try_from(lane_v)
                        .map_err(|_| WireError::Malformed("lane id out of range"))?;
                    prev_lane = lane_v;
                    let addr = st.prev_addr.wrapping_add(payloads.svarint()?);
                    st.prev_addr = addr;
                    lane_addrs.push((lane, addr as u64));
                }
                ReplayKind::Mem {
                    space,
                    is_store,
                    dst,
                    bytes,
                    lane_addrs,
                }
            }
            TAG_BRANCH => ReplayKind::Branch {
                diverged: payloads.bool()?,
            },
            TAG_BARRIER => ReplayKind::Barrier {
                id: u32::try_from(payloads.varint()?)
                    .map_err(|_| WireError::Malformed("barrier id"))?,
            },
            TAG_EXIT => ReplayKind::Exit,
            TAG_PREDICATED => ReplayKind::Predicated,
            _ => return Err(WireError::Malformed("record kind tag")),
        };
        out.push(ReplayRecord { pc, mask, kind });
    }
    if !pcs.is_done() || !masks.is_done() || !payloads.is_done() {
        return Err(WireError::Malformed("trailing bytes in stream column"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::Space;

    fn roundtrip(recs: &[ReplayRecord]) -> Vec<ReplayRecord> {
        let mut bufs = ColBufs::default();
        let mut st = ColState::default();
        for r in recs {
            encode_record(&mut bufs, &mut st, r.pc, r.mask, &r.kind);
        }
        decode_stream(
            bufs.n,
            &bufs.pc.into_bytes(),
            &bufs.mask.into_bytes(),
            &bufs.tag.into_bytes(),
            &bufs.payload.into_bytes(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrips_every_kind() {
        let recs = vec![
            ReplayRecord {
                pc: 0,
                mask: 0xFFFF_FFFF,
                kind: ReplayKind::Alu { dst: Some(Reg(7)) },
            },
            ReplayRecord {
                pc: 1,
                mask: 0xFFFF_FFFF,
                kind: ReplayKind::Mem {
                    space: Space::Global,
                    is_store: false,
                    dst: Some(Reg(2)),
                    bytes: 4,
                    lane_addrs: vec![(0, 0x1000), (1, 0x1004), (5, 0x0800)],
                },
            },
            ReplayRecord {
                pc: 2,
                mask: 0x3,
                kind: ReplayKind::Branch { diverged: true },
            },
            ReplayRecord {
                pc: 0,
                mask: 0x3,
                kind: ReplayKind::Barrier { id: 9 },
            },
            ReplayRecord {
                pc: 3,
                mask: 0x1,
                kind: ReplayKind::Predicated,
            },
            ReplayRecord {
                pc: 4,
                mask: 0x1,
                kind: ReplayKind::Mem {
                    space: Space::Shared,
                    is_store: true,
                    dst: None,
                    bytes: 8,
                    lane_addrs: vec![(31, 0)],
                },
            },
            ReplayRecord {
                pc: 5,
                mask: 0x1,
                kind: ReplayKind::Exit,
            },
        ];
        assert_eq!(roundtrip(&recs), recs);
    }

    #[test]
    fn sequential_addresses_compress_to_bytes() {
        let recs: Vec<ReplayRecord> = (0..64u32)
            .map(|i| ReplayRecord {
                pc: 10,
                mask: 0xFFFF_FFFF,
                kind: ReplayKind::Mem {
                    space: Space::Global,
                    is_store: false,
                    dst: Some(Reg(1)),
                    bytes: 4,
                    lane_addrs: (0..32)
                        .map(|l| (l, u64::from(i) * 128 + u64::from(l) * 4))
                        .collect(),
                },
            })
            .collect();
        let mut bufs = ColBufs::default();
        let mut st = ColState::default();
        for r in &recs {
            encode_record(&mut bufs, &mut st, r.pc, r.mask, &r.kind);
        }
        // 64 records × 32 lanes of raw (u32, u64) would be 24 KiB; the
        // delta columns land far below that.
        assert!(
            bufs.bytes() < 6 * 1024,
            "columns too large: {} bytes",
            bufs.bytes()
        );
        let decoded = decode_stream(
            bufs.n,
            &bufs.pc.into_bytes(),
            &bufs.mask.into_bytes(),
            &bufs.tag.into_bytes(),
            &bufs.payload.into_bytes(),
        )
        .unwrap();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn chunked_encoding_concatenates_seamlessly() {
        let recs: Vec<ReplayRecord> = (0..10u32)
            .map(|i| ReplayRecord {
                pc: i * 3,
                mask: 0xF,
                kind: ReplayKind::Mem {
                    space: Space::Global,
                    is_store: i % 2 == 0,
                    dst: None,
                    bytes: 4,
                    lane_addrs: vec![(0, u64::from(i) * 64)],
                },
            })
            .collect();
        // Encode in two chunks sharing one predictor state, concatenate.
        let mut st = ColState::default();
        let mut a = ColBufs::default();
        for r in &recs[..4] {
            encode_record(&mut a, &mut st, r.pc, r.mask, &r.kind);
        }
        let mut b = ColBufs::default();
        for r in &recs[4..] {
            encode_record(&mut b, &mut st, r.pc, r.mask, &r.kind);
        }
        let cat = |x: Enc, y: Enc| {
            let mut v = x.into_bytes();
            v.extend_from_slice(&y.into_bytes());
            v
        };
        let decoded = decode_stream(
            a.n + b.n,
            &cat(a.pc, b.pc),
            &cat(a.mask, b.mask),
            &cat(a.tag, b.tag),
            &cat(a.payload, b.payload),
        )
        .unwrap();
        assert_eq!(decoded, recs);
    }

    #[test]
    fn corrupt_columns_rejected() {
        let recs = vec![ReplayRecord {
            pc: 1,
            mask: 2,
            kind: ReplayKind::Alu { dst: None },
        }];
        let mut bufs = ColBufs::default();
        let mut st = ColState::default();
        for r in &recs {
            encode_record(&mut bufs, &mut st, r.pc, r.mask, &r.kind);
        }
        let (pc, mask, tag, payload) = (
            bufs.pc.into_bytes(),
            bufs.mask.into_bytes(),
            bufs.tag.into_bytes(),
            bufs.payload.into_bytes(),
        );
        // Wrong tag count.
        assert!(decode_stream(2, &pc, &mask, &tag, &payload).is_err());
        // Unknown tag.
        assert!(decode_stream(1, &pc, &mask, &[9], &payload).is_err());
        // Trailing payload bytes.
        let mut fat = payload.clone();
        fat.push(0);
        assert!(decode_stream(1, &pc, &mask, &tag, &fat).is_err());
        // Truncated pc column.
        assert!(decode_stream(1, &[], &mask, &tag, &payload).is_err());
    }
}
