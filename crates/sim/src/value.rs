//! Typed evaluation of PTX-subset operations on raw 64-bit register values.
//!
//! Registers hold untyped 64-bit patterns; instructions interpret them via
//! their type suffix, exactly as PTX does. Narrow results are stored
//! zero-extended.
//!
//! Every `eval_*` function is `#[inline(always)]`: the decoded table
//! (`decode.rs`) calls each with a constant `(op, type)`, and inlining
//! is what lets the compiler fold the matches on them away.

use gcl_ptx::{AluOp, AtomOp, CmpOp, SfuOp, Type, UnaryOp};

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn of_f32(v: f32) -> u64 {
    u64::from(v.to_bits())
}

fn of_f64(v: f64) -> u64 {
    v.to_bits()
}

/// Truncate/extend a raw value to the width and signedness of `ty`, returning
/// the canonical zero-extended storage form.
#[inline(always)]
pub fn canon(ty: Type, bits: u64) -> u64 {
    match ty.size_bytes() {
        1 => bits & 0xFF,
        2 => bits & 0xFFFF,
        4 => bits & 0xFFFF_FFFF,
        _ => bits,
    }
}

#[inline(always)]
fn as_signed(ty: Type, bits: u64) -> i64 {
    match ty.size_bytes() {
        1 => bits as u8 as i8 as i64,
        2 => bits as u16 as i16 as i64,
        4 => bits as u32 as i32 as i64,
        _ => bits as i64,
    }
}

/// Evaluate a two-source ALU operation. Division/remainder by zero yields 0
/// (CUDA leaves it undefined; a fixed result keeps simulation deterministic).
#[inline(always)]
pub fn eval_alu(op: AluOp, ty: Type, a: u64, b: u64) -> u64 {
    if ty.is_float() {
        return eval_alu_float(op, ty, a, b);
    }
    let (ua, ub) = (canon(ty, a), canon(ty, b));
    let (sa, sb) = (as_signed(ty, a), as_signed(ty, b));
    let width_bits = u32::from(ty.size_bytes() as u8) * 8;
    let shift_mask = u64::from(width_bits - 1);
    let raw = match op {
        AluOp::Add => ua.wrapping_add(ub),
        AluOp::Sub => ua.wrapping_sub(ub),
        AluOp::Mul => {
            if ty.is_signed() {
                sa.wrapping_mul(sb) as u64
            } else {
                ua.wrapping_mul(ub)
            }
        }
        AluOp::MulHi => {
            if ty.is_signed() {
                ((i128::from(sa) * i128::from(sb)) >> width_bits) as u64
            } else {
                ((u128::from(ua) * u128::from(ub)) >> width_bits) as u64
            }
        }
        AluOp::MulWide => {
            // Result is at double width; stored as-is in the 64-bit register.
            return if ty.is_signed() {
                (sa.wrapping_mul(sb)) as u64
            } else {
                ua.wrapping_mul(ub)
            };
        }
        AluOp::Div => {
            if ub == 0 {
                0
            } else if ty.is_signed() {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_div(sb) as u64
                }
            } else {
                ua / ub
            }
        }
        AluOp::Rem => {
            if ub == 0 {
                0
            } else if ty.is_signed() {
                if sb == 0 {
                    0
                } else {
                    sa.wrapping_rem(sb) as u64
                }
            } else {
                ua % ub
            }
        }
        AluOp::Min => {
            if ty.is_signed() {
                sa.min(sb) as u64
            } else {
                ua.min(ub)
            }
        }
        AluOp::Max => {
            if ty.is_signed() {
                sa.max(sb) as u64
            } else {
                ua.max(ub)
            }
        }
        AluOp::And => ua & ub,
        AluOp::Or => ua | ub,
        AluOp::Xor => ua ^ ub,
        AluOp::Shl => ua << (ub & shift_mask),
        AluOp::Shr => {
            if ty.is_signed() {
                (sa >> (ub & shift_mask)) as u64
            } else {
                ua >> (ub & shift_mask)
            }
        }
    };
    canon(ty, raw)
}

#[inline(always)]
fn eval_alu_float(op: AluOp, ty: Type, a: u64, b: u64) -> u64 {
    macro_rules! fop {
        ($fa:expr, $fb:expr, $pack:expr) => {{
            let (fa, fb) = ($fa, $fb);
            let r = match op {
                AluOp::Add => fa + fb,
                AluOp::Sub => fa - fb,
                AluOp::Mul | AluOp::MulWide | AluOp::MulHi => fa * fb,
                AluOp::Div => fa / fb,
                AluOp::Rem => fa % fb,
                AluOp::Min => fa.min(fb),
                AluOp::Max => fa.max(fb),
                AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Shl | AluOp::Shr => {
                    unreachable!("bitwise op on float type")
                }
            };
            $pack(r)
        }};
    }
    match ty {
        Type::F32 => fop!(f32_of(a), f32_of(b), of_f32),
        Type::F64 => fop!(f64_of(a), f64_of(b), of_f64),
        _ => unreachable!(),
    }
}

/// Evaluate a one-source ALU operation.
#[inline(always)]
pub fn eval_unary(op: UnaryOp, ty: Type, a: u64) -> u64 {
    if ty.is_float() {
        return match (op, ty) {
            (UnaryOp::Neg, Type::F32) => of_f32(-f32_of(a)),
            (UnaryOp::Neg, _) => of_f64(-f64_of(a)),
            (UnaryOp::Abs, Type::F32) => of_f32(f32_of(a).abs()),
            (UnaryOp::Abs, _) => of_f64(f64_of(a).abs()),
            _ => unreachable!("bitwise unary op on float type"),
        };
    }
    let width_bits = u32::from(ty.size_bytes() as u8) * 8;
    let ua = canon(ty, a);
    let sa = as_signed(ty, a);
    let raw = match op {
        UnaryOp::Neg => (ua ^ canon(ty, u64::MAX)).wrapping_add(1),
        UnaryOp::Not => ua ^ canon(ty, u64::MAX),
        UnaryOp::Abs => {
            if ty.is_signed() && sa < 0 {
                sa.unsigned_abs()
            } else {
                ua
            }
        }
        UnaryOp::Popc => u64::from(ua.count_ones()),
        UnaryOp::Clz => {
            // Leading zeros within the type's width.
            u64::from(ua.leading_zeros()) - u64::from(64 - width_bits)
        }
    };
    canon(ty, raw)
}

/// Evaluate `a * b + c`, optionally at double width (`mad.wide`).
#[inline(always)]
pub fn eval_mad(ty: Type, wide: bool, a: u64, b: u64, c: u64) -> u64 {
    match ty {
        Type::F32 => of_f32(f32_of(a) * f32_of(b) + f32_of(c)),
        Type::F64 => of_f64(f64_of(a) * f64_of(b) + f64_of(c)),
        _ => {
            if wide {
                let prod = eval_alu(AluOp::MulWide, ty, a, b);
                prod.wrapping_add(c)
            } else {
                let prod = eval_alu(AluOp::Mul, ty, a, b);
                canon(ty, prod.wrapping_add(canon(ty, c)))
            }
        }
    }
}

/// Evaluate a comparison, returning the predicate value (0 or 1).
#[inline(always)]
pub fn eval_cmp(cmp: CmpOp, ty: Type, a: u64, b: u64) -> u64 {
    let ord = if ty.is_float() {
        let (fa, fb) = match ty {
            Type::F32 => (f64::from(f32_of(a)), f64::from(f32_of(b))),
            _ => (f64_of(a), f64_of(b)),
        };
        fa.partial_cmp(&fb)
    } else if ty.is_signed() {
        Some(as_signed(ty, a).cmp(&as_signed(ty, b)))
    } else {
        Some(canon(ty, a).cmp(&canon(ty, b)))
    };
    use std::cmp::Ordering::*;
    let r = match (cmp, ord) {
        // Unordered (NaN) compares false except Ne.
        (CmpOp::Ne, None) => true,
        (_, None) => false,
        (CmpOp::Eq, Some(o)) => o == Equal,
        (CmpOp::Ne, Some(o)) => o != Equal,
        (CmpOp::Lt, Some(o)) => o == Less,
        (CmpOp::Le, Some(o)) => o != Greater,
        (CmpOp::Gt, Some(o)) => o == Greater,
        (CmpOp::Ge, Some(o)) => o != Less,
    };
    u64::from(r)
}

/// Evaluate a special-function operation.
#[inline(always)]
pub fn eval_sfu(op: SfuOp, ty: Type, a: u64) -> u64 {
    macro_rules! sfu {
        ($v:expr, $pack:expr) => {{
            let v = $v;
            let r = match op {
                SfuOp::Sin => v.sin(),
                SfuOp::Cos => v.cos(),
                SfuOp::Sqrt => v.sqrt(),
                SfuOp::Rsqrt => 1.0 / v.sqrt(),
                SfuOp::Rcp => 1.0 / v,
                SfuOp::Ex2 => v.exp2(),
                SfuOp::Lg2 => v.log2(),
            };
            $pack(r)
        }};
    }
    match ty {
        Type::F32 => sfu!(f32_of(a), of_f32),
        Type::F64 => sfu!(f64_of(a), of_f64),
        _ => unreachable!("SFU op on integer type"),
    }
}

/// Evaluate a type conversion.
#[inline(always)]
pub fn eval_cvt(dst_ty: Type, src_ty: Type, v: u64) -> u64 {
    // Decode the source to a wide intermediate.
    enum Wide {
        U(u64),
        S(i64),
        F(f64),
    }
    let w = if src_ty.is_float() {
        Wide::F(match src_ty {
            Type::F32 => f64::from(f32_of(v)),
            _ => f64_of(v),
        })
    } else if src_ty.is_signed() {
        Wide::S(as_signed(src_ty, v))
    } else {
        Wide::U(canon(src_ty, v))
    };
    // Encode into the destination.
    if dst_ty.is_float() {
        let f = match w {
            Wide::U(u) => u as f64,
            Wide::S(s) => s as f64,
            Wide::F(f) => f,
        };
        match dst_ty {
            Type::F32 => of_f32(f as f32),
            _ => of_f64(f),
        }
    } else {
        let raw = match w {
            Wide::U(u) => u,
            Wide::S(s) => s as u64,
            Wide::F(f) => {
                if dst_ty.is_signed() {
                    (f as i64) as u64
                } else {
                    // `as` saturates negatives to 0 for unsigned targets.
                    f as u64
                }
            }
        };
        canon(dst_ty, raw)
    }
}

/// Evaluate an atomic RMW's combine step: `old op src`.
#[inline(always)]
pub fn eval_atom(op: AtomOp, ty: Type, old: u64, src: u64) -> u64 {
    match op {
        AtomOp::Add => eval_alu(AluOp::Add, ty, old, src),
        AtomOp::Min => eval_alu(AluOp::Min, ty, old, src),
        AtomOp::Max => eval_alu(AluOp::Max, ty, old, src),
        AtomOp::And => eval_alu(AluOp::And, ty, old, src),
        AtomOp::Or => eval_alu(AluOp::Or, ty, old, src),
        AtomOp::Exch => canon(ty, src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_arithmetic_wraps_and_canonicalizes() {
        assert_eq!(eval_alu(AluOp::Add, Type::U32, 0xFFFF_FFFF, 1), 0);
        assert_eq!(eval_alu(AluOp::Sub, Type::U32, 0, 1), 0xFFFF_FFFF);
        assert_eq!(eval_alu(AluOp::Mul, Type::U32, 0x10000, 0x10000), 0);
    }

    #[test]
    fn signed_ops_sign_extend() {
        let neg1 = 0xFFFF_FFFFu64; // -1 as u32 bits
        assert_eq!(eval_alu(AluOp::Max, Type::S32, neg1, 1), 1);
        assert_eq!(eval_alu(AluOp::Min, Type::S32, neg1, 1), neg1);
        assert_eq!(eval_alu(AluOp::Div, Type::S32, neg1, 1), neg1);
        // Arithmetic shift.
        assert_eq!(eval_alu(AluOp::Shr, Type::S32, neg1, 4), neg1);
        assert_eq!(eval_alu(AluOp::Shr, Type::U32, neg1, 4), 0x0FFF_FFFF);
    }

    #[test]
    fn mul_wide_and_hi() {
        // 0xFFFF_FFFF^2 = 0xFFFF_FFFE_0000_0001
        let big = eval_alu(AluOp::MulWide, Type::U32, 0xFFFF_FFFF, 0xFFFF_FFFF);
        assert_eq!(big, 0xFFFF_FFFE_0000_0001);
        let hi = eval_alu(AluOp::MulHi, Type::U32, 0xFFFF_FFFF, 0xFFFF_FFFF);
        assert_eq!(hi, 0xFFFF_FFFE);
        // Signed wide: -2 * 3 = -6 at 64 bits.
        let m = eval_alu(AluOp::MulWide, Type::S32, 0xFFFF_FFFE, 3);
        assert_eq!(m as i64, -6);
    }

    #[test]
    fn division_by_zero_is_zero() {
        assert_eq!(eval_alu(AluOp::Div, Type::U32, 5, 0), 0);
        assert_eq!(eval_alu(AluOp::Rem, Type::S32, 5, 0), 0);
    }

    #[test]
    fn float_ops() {
        let a = u64::from(2.0f32.to_bits());
        let b = u64::from(0.5f32.to_bits());
        assert_eq!(
            f32::from_bits(eval_alu(AluOp::Add, Type::F32, a, b) as u32),
            2.5
        );
        assert_eq!(
            f32::from_bits(eval_alu(AluOp::Div, Type::F32, a, b) as u32),
            4.0
        );
        let x = 9.0f64.to_bits();
        assert_eq!(f64::from_bits(eval_sfu(SfuOp::Sqrt, Type::F64, x)), 3.0);
    }

    #[test]
    fn mad_matches_mul_add() {
        assert_eq!(eval_mad(Type::U32, false, 7, 6, 100), 142);
        // Wide: 0xFFFF_FFFF * 4 + 8 at 64 bits.
        assert_eq!(eval_mad(Type::U32, true, 0xFFFF_FFFF, 4, 8), 0x4_0000_0004);
        let a = u64::from(1.5f32.to_bits());
        let r = eval_mad(Type::F32, false, a, a, a);
        assert_eq!(f32::from_bits(r as u32), 1.5 * 1.5 + 1.5);
    }

    #[test]
    fn comparisons() {
        assert_eq!(eval_cmp(CmpOp::Lt, Type::U32, 1, 2), 1);
        assert_eq!(eval_cmp(CmpOp::Lt, Type::S32, 0xFFFF_FFFF, 2), 1); // -1 < 2
        assert_eq!(eval_cmp(CmpOp::Lt, Type::U32, 0xFFFF_FFFF, 2), 0);
        assert_eq!(eval_cmp(CmpOp::Ge, Type::U32, 5, 5), 1);
        // NaN: only Ne is true.
        let nan = u64::from(f32::NAN.to_bits());
        assert_eq!(eval_cmp(CmpOp::Eq, Type::F32, nan, nan), 0);
        assert_eq!(eval_cmp(CmpOp::Ne, Type::F32, nan, nan), 1);
        assert_eq!(eval_cmp(CmpOp::Lt, Type::F32, nan, nan), 0);
    }

    #[test]
    fn conversions() {
        // u32 -> f32
        let f = eval_cvt(Type::F32, Type::U32, 7);
        assert_eq!(f32::from_bits(f as u32), 7.0);
        // f32 -> u32 truncates; negative saturates to 0.
        let v = u64::from(3.9f32.to_bits());
        assert_eq!(eval_cvt(Type::U32, Type::F32, v), 3);
        let neg = u64::from((-3.9f32).to_bits());
        assert_eq!(eval_cvt(Type::U32, Type::F32, neg), 0);
        assert_eq!(eval_cvt(Type::S32, Type::F32, neg) as u32 as i32, -3);
        // s32 -> s64 sign-extends.
        assert_eq!(eval_cvt(Type::S64, Type::S32, 0xFFFF_FFFF) as i64, -1);
        // u32 -> u64 zero-extends.
        assert_eq!(eval_cvt(Type::U64, Type::U32, 0xFFFF_FFFF), 0xFFFF_FFFF);
        // u64 -> u32 truncates.
        assert_eq!(eval_cvt(Type::U32, Type::U64, 0x1_0000_0002), 2);
        // f64 -> f32 rounds.
        let d = 1.25f64.to_bits();
        assert_eq!(
            f32::from_bits(eval_cvt(Type::F32, Type::F64, d) as u32),
            1.25
        );
    }

    #[test]
    fn atomics_combine() {
        assert_eq!(eval_atom(AtomOp::Add, Type::U32, 10, 5), 15);
        assert_eq!(
            eval_atom(AtomOp::Min, Type::S32, 0xFFFF_FFFF, 3),
            0xFFFF_FFFF
        );
        assert_eq!(eval_atom(AtomOp::Exch, Type::U32, 10, 5), 5);
        assert_eq!(eval_atom(AtomOp::Or, Type::U32, 0b01, 0b10), 0b11);
    }

    #[test]
    fn unary_ops() {
        assert_eq!(eval_unary(UnaryOp::Neg, Type::U32, 1), 0xFFFF_FFFF);
        assert_eq!(eval_unary(UnaryOp::Neg, Type::S32, 0xFFFF_FFFF), 1);
        assert_eq!(eval_unary(UnaryOp::Not, Type::U32, 0), 0xFFFF_FFFF);
        assert_eq!(eval_unary(UnaryOp::Not, Type::U64, 0), u64::MAX);
        assert_eq!(eval_unary(UnaryOp::Abs, Type::S32, 0xFFFF_FFFB), 5); // |-5|
        assert_eq!(eval_unary(UnaryOp::Abs, Type::U32, 7), 7);
        assert_eq!(eval_unary(UnaryOp::Popc, Type::U32, 0b1011), 3);
        assert_eq!(eval_unary(UnaryOp::Clz, Type::U32, 1), 31);
        assert_eq!(eval_unary(UnaryOp::Clz, Type::U64, 1), 63);
        assert_eq!(eval_unary(UnaryOp::Clz, Type::U32, 0), 32);
        let f = u64::from((-2.5f32).to_bits());
        assert_eq!(
            f32::from_bits(eval_unary(UnaryOp::Abs, Type::F32, f) as u32),
            2.5
        );
        assert_eq!(
            f32::from_bits(eval_unary(UnaryOp::Neg, Type::F32, f) as u32),
            2.5
        );
    }

    #[test]
    fn shift_amounts_mask_to_width() {
        assert_eq!(eval_alu(AluOp::Shl, Type::U32, 1, 33), 2);
        assert_eq!(eval_alu(AluOp::Shl, Type::U64, 1, 65), 2);
    }
}
