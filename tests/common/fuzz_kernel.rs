//! The random-kernel generator of `fuzz_kernels.rs`, shared with
//! `gcl-core`'s unit tests, which hold the use-def table to its oracle on
//! every seed.

use gcl_ptx::{CmpOp, Kernel, KernelBuilder, Reg, Special, Type};
use gcl_rng::Rng;

/// Words in the global buffer; indices are masked with `WORDS - 1`.
pub const WORDS: u32 = 64;
/// Threads per CTA: two warps, so cross-warp interleaving is exercised.
pub const THREADS: u32 = 64;
pub const SEEDS: u64 = 24;

/// Generate one random race-free, in-bounds kernel.
pub fn fuzz_kernel(seed: u64) -> Kernel {
    let mut rng = Rng::new(seed);
    let mut b = KernelBuilder::new("fuzz");
    let p = b.param("buf", Type::U64);
    let base = b.ld_param(Type::U64, p);
    let tid = b.sreg(Special::TidX);
    b.shared(THREADS * 4);
    // Each thread's private shared slot: races are impossible regardless
    // of barrier placement, so any RaceReport is a detector bug.
    let mine = b.mul(Type::U32, tid, 4i64);
    b.st_shared(Type::U32, mine, tid);

    // Pool of u32 values the generator draws operands from.
    let mut pool: Vec<Reg> = vec![tid];
    for _ in 0..3 {
        let c = rng.next_u32() & 0xffff;
        pool.push(b.imm32(c));
    }

    let pick = |rng: &mut Rng, pool: &[Reg]| pool[rng.usize_below(pool.len())];
    let n_ops = rng.u32_range_inclusive(6, 24);
    for _ in 0..n_ops {
        match rng.u32_below(8) {
            // Integer arithmetic between two pool values.
            0 | 1 => {
                let a = pick(&mut rng, &pool);
                let c = pick(&mut rng, &pool);
                let r = match rng.u32_below(4) {
                    0 => b.add(Type::U32, a, c),
                    1 => b.mul(Type::U32, a, c),
                    2 => b.xor(Type::U32, a, c),
                    _ => b.and(Type::U32, a, c),
                };
                pool.push(r);
            }
            // Store a pool value to the thread's private shared slot.
            2 => {
                let v = pick(&mut rng, &pool);
                b.st_shared(Type::U32, mine, v);
            }
            // Load it back.
            3 => {
                let v = b.ld_shared(Type::U32, mine);
                pool.push(v);
            }
            // Uniform barrier: only ever at top level, so every thread
            // reaches it and named-barrier deadlock is impossible.
            4 => b.bar_id(rng.u32_below(2)),
            // Masked global load; the index often derives from loaded
            // data, exercising the non-deterministic load path.
            5 => {
                let i = pick(&mut rng, &pool);
                let idx = b.and(Type::U32, i, i64::from(WORDS - 1));
                let addr = b.index64(base, idx, 4);
                let v = b.ld_global(Type::U32, addr);
                pool.push(v);
            }
            // Global store to the thread's own masked slot (tid < WORDS,
            // so threads never collide on a word).
            6 => {
                let v = pick(&mut rng, &pool);
                let addr = b.index64(base, tid, 4);
                b.st_global(Type::U32, addr, v);
            }
            // Predicated region: a couple of arithmetic / private-shared
            // ops under a divergent branch. No barriers inside.
            _ => {
                let a = pick(&mut rng, &pool);
                let bound = i64::from(rng.next_u32() & 0xffff);
                let pr = b.setp(CmpOp::Lt, Type::U32, a, bound);
                let skip = b.new_label();
                b.bra_unless(pr, skip);
                let x = pick(&mut rng, &pool);
                let y = pick(&mut rng, &pool);
                let s = b.add(Type::U32, x, y);
                b.st_shared(Type::U32, mine, s);
                b.place(skip);
            }
        }
    }
    let v = pool[pool.len() - 1];
    let addr = b.index64(base, tid, 4);
    b.st_global(Type::U32, addr, v);
    b.exit();
    b.build()
        .unwrap_or_else(|e| panic!("seed {seed}: generated kernel invalid: {e}"))
}
