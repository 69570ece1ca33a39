//! The memory-access coalescer: collapses a warp's per-lane addresses into
//! cache-line-granular memory requests.
//!
//! This sits in front of the L1 (as on real GPUs): a fully coalesced warp
//! load touches one or two 128 B lines; a scattered (non-deterministic) one
//! can touch up to 32 — the paper's central mechanism.

/// Coalesce per-lane byte accesses of `bytes` each into block-aligned
/// requests of `line_bytes`. Returns unique block addresses in first-touch
/// (lane) order. Accesses straddling a block boundary contribute both blocks.
///
/// # Examples
///
/// ```
/// use gcl_sim::coalesce;
///
/// // 32 consecutive 4-byte accesses: one 128 B request.
/// let addrs: Vec<(u32, u64)> = (0..32).map(|l| (l, 0x1000 + 4 * u64::from(l))).collect();
/// assert_eq!(coalesce(&addrs, 4, 128), vec![0x1000]);
///
/// // Stride-128: every lane its own line.
/// let addrs: Vec<(u32, u64)> = (0..32).map(|l| (l, 128 * u64::from(l))).collect();
/// assert_eq!(coalesce(&addrs, 4, 128).len(), 32);
/// ```
pub fn coalesce(lane_addrs: &[(u32, u64)], bytes: u32, line_bytes: u32) -> Vec<u64> {
    let mut blocks = Vec::with_capacity(4);
    coalesce_into(lane_addrs, bytes, line_bytes, &mut blocks);
    blocks
}

/// [`coalesce`] into a caller-owned buffer (cleared first), so the LD/ST
/// path reuses one allocation across memory instructions.
pub(crate) fn coalesce_into(
    lane_addrs: &[(u32, u64)],
    bytes: u32,
    line_bytes: u32,
    blocks: &mut Vec<u64>,
) {
    blocks.clear();
    let mask = !u64::from(line_bytes - 1);
    let push = |b: u64, blocks: &mut Vec<u64>| {
        if !blocks.contains(&b) {
            blocks.push(b);
        }
    };
    for &(_lane, addr) in lane_addrs {
        let first = addr & mask;
        push(first, blocks);
        let last = (addr + u64::from(bytes) - 1) & mask;
        if last != first {
            push(last, blocks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: u32, f: impl Fn(u32) -> u64) -> Vec<(u32, u64)> {
        (0..n).map(|l| (l, f(l))).collect()
    }

    #[test]
    fn fully_coalesced_single_block() {
        let a = seq(32, |l| 0x8000 + 4 * u64::from(l));
        assert_eq!(coalesce(&a, 4, 128), vec![0x8000]);
    }

    #[test]
    fn misaligned_warp_touches_two_blocks() {
        // Base offset 64 with 4-byte accesses: lanes 0..15 in block 0,
        // 16..31 in block 1.
        let a = seq(32, |l| 64 + 4 * u64::from(l));
        assert_eq!(coalesce(&a, 4, 128), vec![0, 128]);
    }

    #[test]
    fn scattered_accesses_one_block_each() {
        let a = seq(32, |l| 4096 * u64::from(l));
        let blocks = coalesce(&a, 4, 128);
        assert_eq!(blocks.len(), 32);
    }

    #[test]
    fn duplicate_addresses_merge() {
        // All lanes read the same word (broadcast).
        let a = seq(32, |_| 0x4000);
        assert_eq!(coalesce(&a, 4, 128), vec![0x4000 & !127]);
    }

    #[test]
    fn straddling_access_takes_both_blocks() {
        // 8-byte access at line_end-4 crosses into the next line.
        let a = vec![(0u32, 124u64)];
        assert_eq!(coalesce(&a, 8, 128), vec![0, 128]);
    }

    #[test]
    fn order_is_first_touch() {
        let a = vec![(0u32, 256u64), (1, 0), (2, 300)];
        assert_eq!(coalesce(&a, 4, 128), vec![256, 0]);
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(coalesce(&[], 4, 128).is_empty());
    }

    #[test]
    fn works_with_64_byte_lines() {
        let a = seq(32, |l| 4 * u64::from(l));
        assert_eq!(coalesce(&a, 4, 64), vec![0, 64]);
    }
}
