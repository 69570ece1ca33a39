//! Scalar value types and memory spaces of the PTX subset.

use std::fmt;

/// Scalar type of a register operand or memory access.
///
/// This mirrors the PTX type suffixes (`.u32`, `.s64`, `.f32`, ...). Untyped
/// bit types (`.b32`/`.b64`) are used by moves and logical operations that do
/// not care about signedness.
///
/// # Examples
///
/// ```
/// use gcl_ptx::Type;
/// assert_eq!(Type::U32.size_bytes(), 4);
/// assert_eq!(Type::F64.size_bytes(), 8);
/// assert!(Type::S32.is_signed());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 8-bit unsigned integer (`.u8`).
    U8,
    /// 16-bit unsigned integer (`.u16`).
    U16,
    /// 32-bit unsigned integer (`.u32`).
    U32,
    /// 64-bit unsigned integer (`.u64`).
    U64,
    /// 32-bit signed integer (`.s32`).
    S32,
    /// 64-bit signed integer (`.s64`).
    S64,
    /// 32-bit IEEE-754 float (`.f32`).
    F32,
    /// 64-bit IEEE-754 float (`.f64`).
    F64,
    /// Untyped 32 bits (`.b32`).
    B32,
    /// Untyped 64 bits (`.b64`).
    B64,
    /// One-bit predicate (`.pred`).
    Pred,
}

impl Type {
    /// Size of a value of this type in bytes.
    ///
    /// Predicates occupy one byte for accounting purposes (they never touch
    /// memory in the subset).
    #[inline]
    pub fn size_bytes(self) -> u32 {
        match self {
            Type::U8 | Type::Pred => 1,
            Type::U16 => 2,
            Type::U32 | Type::S32 | Type::F32 | Type::B32 => 4,
            Type::U64 | Type::S64 | Type::F64 | Type::B64 => 8,
        }
    }

    /// Whether this is a signed integer type.
    #[inline]
    pub fn is_signed(self) -> bool {
        matches!(self, Type::S32 | Type::S64)
    }

    /// Whether this is a floating-point type.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Whether this is an integer (signed, unsigned or untyped-bits) type.
    pub fn is_integer(self) -> bool {
        !self.is_float() && self != Type::Pred
    }

    /// The PTX suffix for this type, without the leading dot.
    pub fn suffix(self) -> &'static str {
        match self {
            Type::U8 => "u8",
            Type::U16 => "u16",
            Type::U32 => "u32",
            Type::U64 => "u64",
            Type::S32 => "s32",
            Type::S64 => "s64",
            Type::F32 => "f32",
            Type::F64 => "f64",
            Type::B32 => "b32",
            Type::B64 => "b64",
            Type::Pred => "pred",
        }
    }

    /// Parse a PTX type suffix (`"u32"`, `"f64"`, ...).
    pub fn from_suffix(s: &str) -> Option<Type> {
        Some(match s {
            "u8" => Type::U8,
            "u16" => Type::U16,
            "u32" => Type::U32,
            "u64" => Type::U64,
            "s32" => Type::S32,
            "s64" => Type::S64,
            "f32" => Type::F32,
            "f64" => Type::F64,
            "b32" => Type::B32,
            "b64" => Type::B64,
            "pred" => Type::Pred,
            _ => return None,
        })
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

/// PTX state space of a memory access.
///
/// The classification analysis in [`gcl-core`](https://docs.rs/gcl-core)
/// treats `Param` and `Const` as *parameterized* (deterministic) sources and
/// every other space as a non-deterministic source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Space {
    /// Device global memory (`.global`) — backed by DRAM through L1/L2.
    Global,
    /// Per-CTA scratchpad (`.shared`).
    Shared,
    /// Kernel parameter space (`.param`) — written once at launch by the host.
    Param,
    /// Constant memory (`.const`) — read-only, host-initialized.
    Const,
    /// Per-thread local memory (`.local`) — spill space, backed by global.
    Local,
    /// Texture memory (`.tex`) — modeled as read-only global.
    Tex,
}

impl Space {
    /// The PTX suffix for this space, without the leading dot.
    pub fn suffix(self) -> &'static str {
        match self {
            Space::Global => "global",
            Space::Shared => "shared",
            Space::Param => "param",
            Space::Const => "const",
            Space::Local => "local",
            Space::Tex => "tex",
        }
    }

    /// Parse a PTX space suffix (`"global"`, `"shared"`, ...).
    pub fn from_suffix(s: &str) -> Option<Space> {
        Some(match s {
            "global" => Space::Global,
            "shared" => Space::Shared,
            "param" => Space::Param,
            "const" => Space::Const,
            "local" => Space::Local,
            "tex" => Space::Tex,
            _ => return None,
        })
    }

    /// Whether a load from this space yields host-provided, launch-invariant
    /// data (the paper's "parameterized data").
    ///
    /// Loads whose address derives only from such sources are classified
    /// deterministic.
    pub fn is_parameterized(self) -> bool {
        matches!(self, Space::Param | Space::Const)
    }
}

impl fmt::Display for Space {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_sizes() {
        assert_eq!(Type::U8.size_bytes(), 1);
        assert_eq!(Type::U16.size_bytes(), 2);
        assert_eq!(Type::U32.size_bytes(), 4);
        assert_eq!(Type::S32.size_bytes(), 4);
        assert_eq!(Type::F32.size_bytes(), 4);
        assert_eq!(Type::B32.size_bytes(), 4);
        assert_eq!(Type::U64.size_bytes(), 8);
        assert_eq!(Type::S64.size_bytes(), 8);
        assert_eq!(Type::F64.size_bytes(), 8);
        assert_eq!(Type::B64.size_bytes(), 8);
    }

    #[test]
    fn type_predicates() {
        assert!(Type::S32.is_signed());
        assert!(!Type::U32.is_signed());
        assert!(Type::F32.is_float());
        assert!(!Type::F32.is_integer());
        assert!(Type::B64.is_integer());
        assert!(!Type::Pred.is_integer());
    }

    #[test]
    fn type_suffix_round_trip() {
        for ty in [
            Type::U8,
            Type::U16,
            Type::U32,
            Type::U64,
            Type::S32,
            Type::S64,
            Type::F32,
            Type::F64,
            Type::B32,
            Type::B64,
            Type::Pred,
        ] {
            assert_eq!(Type::from_suffix(ty.suffix()), Some(ty));
            assert_eq!(format!("{ty}"), ty.suffix());
        }
        assert_eq!(Type::from_suffix("u128"), None);
    }

    #[test]
    fn space_suffix_round_trip() {
        for sp in [
            Space::Global,
            Space::Shared,
            Space::Param,
            Space::Const,
            Space::Local,
            Space::Tex,
        ] {
            assert_eq!(Space::from_suffix(sp.suffix()), Some(sp));
        }
        assert_eq!(Space::from_suffix("generic"), None);
    }

    #[test]
    fn parameterized_spaces() {
        assert!(Space::Param.is_parameterized());
        assert!(Space::Const.is_parameterized());
        assert!(!Space::Global.is_parameterized());
        assert!(!Space::Shared.is_parameterized());
        assert!(!Space::Local.is_parameterized());
        assert!(!Space::Tex.is_parameterized());
    }
}
