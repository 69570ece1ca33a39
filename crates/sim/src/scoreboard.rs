//! Per-warp register scoreboard: blocks issue of instructions whose source
//! or destination registers have writes in flight.

use gcl_mem::{Dec, Enc, Wire, WireError};
use gcl_ptx::{Instruction, Reg};

/// Scoreboard words per warp (and per hazard mask) for `num_regs` registers.
pub(crate) fn words_for(num_regs: u32) -> usize {
    (num_regs as usize).div_ceil(64).max(1)
}

/// Set the bit of every register `inst` reads (guard included) or writes.
pub(crate) fn fill_mask(inst: &Instruction, row: &mut [u64]) {
    let mut set = |r: Reg| row[r.index() / 64] |= 1 << (r.index() % 64);
    inst.for_each_src_reg(&mut set);
    if let Some(d) = inst.dst_reg() {
        set(d);
    }
}

/// Scoreboard for all warps of one SM running one kernel.
#[derive(Debug)]
pub(crate) struct Scoreboard {
    /// One bit per register, `words` words per warp.
    pending: Vec<u64>,
    words: usize,
}

impl Scoreboard {
    /// Create a scoreboard for `n_warps` warps of a kernel with `num_regs`
    /// registers.
    pub fn new(n_warps: usize, num_regs: u32) -> Scoreboard {
        let words = words_for(num_regs);
        Scoreboard {
            pending: vec![0; words * n_warps],
            words,
        }
    }

    fn row(&self, warp: usize) -> &[u64] {
        &self.pending[warp * self.words..(warp + 1) * self.words]
    }

    /// Whether an instruction with read|write register `mask` (a
    /// [`DecodedKernel::mask`](crate::decode::DecodedKernel::mask) row) must wait
    /// for `warp`'s in-flight writes (RAW or WAW hazard).
    pub fn blocked(&self, warp: usize, mask: &[u64]) -> bool {
        self.row(warp).iter().zip(mask).any(|(p, m)| p & m != 0)
    }

    /// Mark `reg` as having a write in flight for `warp`.
    pub fn reserve(&mut self, warp: usize, reg: Reg) {
        let i = reg.index();
        self.pending[warp * self.words + i / 64] |= 1 << (i % 64);
    }

    /// Clear the in-flight write of `reg` for `warp` (writeback).
    pub fn release(&mut self, warp: usize, reg: Reg) {
        let i = reg.index();
        self.pending[warp * self.words + i / 64] &= !(1 << (i % 64));
    }

    /// Whether `warp` has any writes in flight.
    pub fn busy(&self, warp: usize) -> bool {
        self.row(warp).iter().any(|w| *w != 0)
    }

    /// Drop all reservations of `warp` (when a warp slot is recycled).
    pub fn clear(&mut self, warp: usize) {
        let words = self.words;
        self.pending[warp * words..(warp + 1) * words].fill(0);
    }

    /// Checkpoint-encode the pending-write bitsets, one row per warp.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        self.words.put(e);
        e.usize(self.pending.len() / self.words);
        for warp in self.pending.chunks_exact(self.words) {
            e.seq(warp, |e, w| w.put(e));
        }
    }

    /// Registers per warp the scoreboard can track.
    pub fn regs(&self) -> usize {
        self.words * 64
    }

    /// Checkpoint-decode a scoreboard of `n_warps` warps written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    pub fn ckpt_decode(d: &mut Dec<'_>, n_warps: usize) -> Result<Scoreboard, WireError> {
        let (words, rows): (usize, Vec<Vec<u64>>) = Wire::get(d)?;
        if words == 0 {
            return Err(WireError::Malformed("scoreboard word count is zero"));
        }
        if rows.len() != n_warps {
            return Err(WireError::Malformed("scoreboard warp count mismatch"));
        }
        if rows.iter().any(|r| r.len() != words) {
            return Err(WireError::Malformed("scoreboard word count mismatch"));
        }
        Ok(Scoreboard {
            pending: rows.concat(),
            words,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_ptx::{AluOp, Guard, Op, Operand, Type};

    fn add(dst: u32, a: u32, b: u32) -> Instruction {
        Instruction::new(Op::Alu {
            op: AluOp::Add,
            ty: Type::U32,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        })
    }

    fn can_issue(sb: &Scoreboard, warp: usize, inst: &Instruction) -> bool {
        let mut mask = vec![0; sb.words];
        fill_mask(inst, &mut mask);
        !sb.blocked(warp, &mask)
    }

    #[test]
    fn raw_hazard_blocks_issue() {
        let mut sb = Scoreboard::new(2, 8);
        let inst = add(2, 0, 1);
        assert!(can_issue(&sb, 0, &inst));
        sb.reserve(0, Reg(1));
        assert!(!can_issue(&sb, 0, &inst));
        // Other warps unaffected.
        assert!(can_issue(&sb, 1, &inst));
        sb.release(0, Reg(1));
        assert!(can_issue(&sb, 0, &inst));
    }

    #[test]
    fn waw_hazard_blocks_issue() {
        let mut sb = Scoreboard::new(1, 8);
        sb.reserve(0, Reg(2));
        assert!(!can_issue(&sb, 0, &add(2, 0, 1)));
    }

    #[test]
    fn guard_predicate_is_a_hazard() {
        let mut sb = Scoreboard::new(1, 8);
        sb.reserve(0, Reg(5));
        let bra = Instruction::guarded(Guard::when(Reg(5)), Op::Bra { target: 0 });
        assert!(!can_issue(&sb, 0, &bra));
        sb.release(0, Reg(5));
        assert!(can_issue(&sb, 0, &bra));
    }

    #[test]
    fn decode_requires_one_row_per_warp_slot() {
        let mut e = Enc::new();
        Scoreboard::new(2, 8).ckpt_encode(&mut e);
        let bytes = e.into_bytes();
        assert!(Scoreboard::ckpt_decode(&mut Dec::new(&bytes), 2).is_ok());
        assert!(Scoreboard::ckpt_decode(&mut Dec::new(&bytes), 3).is_err());
    }

    #[test]
    fn busy_and_clear() {
        let mut sb = Scoreboard::new(1, 130);
        assert!(!sb.busy(0));
        sb.reserve(0, Reg(129));
        assert!(sb.busy(0));
        sb.clear(0);
        assert!(!sb.busy(0));
        assert!(can_issue(&sb, 0, &add(129, 0, 1)));
    }
}
