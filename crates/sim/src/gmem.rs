//! Device global memory: a sparse byte-addressable store plus a bump
//! allocator, playing the role of `cudaMalloc` + device DRAM contents.
//!
//! The allocator records every live `(base, len)` range so that memcheck
//! ([`GpuConfig::memcheck`](crate::GpuConfig::memcheck)) can reject
//! accesses that fall outside all allocations.

use crate::fault::AllocError;
use gcl_mem::{Dec, Enc, WireError};
use gcl_ptx::Type;
use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Base of the device heap. Nonzero so that address 0 stays an obvious
/// "null" and accidental null derefs read zeros rather than real data.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// Sparse device memory image with functional reads/writes.
///
/// Unwritten memory reads as zero (convenient for synthetic workloads).
///
/// # Examples
///
/// ```
/// use gcl_sim::GlobalMem;
/// use gcl_ptx::Type;
///
/// let mut mem = GlobalMem::new();
/// let buf = mem.alloc(16, 4).unwrap();
/// mem.write_scalar(buf, Type::U32, 42);
/// assert_eq!(mem.read_scalar(buf, Type::U32), 42);
/// assert_eq!(mem.read_scalar(buf + 4, Type::U32), 0);
/// ```
#[derive(Debug, Default)]
pub struct GlobalMem {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    next_alloc: u64,
    /// Live allocations as `(base, len)`, sorted by base (the bump
    /// allocator only moves upward, so pushes keep the order).
    allocs: Vec<(u64, u64)>,
}

impl GlobalMem {
    /// An empty memory image.
    pub fn new() -> GlobalMem {
        GlobalMem {
            pages: HashMap::new(),
            next_alloc: HEAP_BASE,
            allocs: Vec::new(),
        }
    }

    /// Allocate `bytes` of device memory aligned to `align` (a power of
    /// two). Returns the device address.
    ///
    /// Zero-byte requests still get a distinct one-byte range so every
    /// allocation has a unique, checkable address.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::BadAlign`] if `align` is zero or not a power
    /// of two, and [`AllocError::TooLarge`] if the allocation would
    /// overflow the 64-bit device address space.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> Result<u64, AllocError> {
        if align == 0 || !align.is_power_of_two() {
            return Err(AllocError::BadAlign { align });
        }
        let base = self
            .next_alloc
            .checked_add(align - 1)
            .ok_or(AllocError::TooLarge { bytes })?
            & !(align - 1);
        let len = bytes.max(1);
        let end = base
            .checked_add(len)
            .ok_or(AllocError::TooLarge { bytes })?;
        self.allocs.push((base, len));
        self.next_alloc = end;
        Ok(base)
    }

    /// Allocate room for `n` elements of `ty`, 128-byte aligned (so buffers
    /// start on cache-line boundaries like `cudaMalloc`'s 256 B alignment).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::CountOverflow`] if `n * size_of(ty)` does not
    /// fit in 64 bits, or any [`AllocError`] from [`GlobalMem::alloc`].
    pub fn alloc_array(&mut self, ty: Type, n: u64) -> Result<u64, AllocError> {
        let elem = ty.size_bytes();
        let bytes = n
            .checked_mul(u64::from(elem))
            .ok_or(AllocError::CountOverflow {
                count: n,
                elem_bytes: elem,
            })?;
        self.alloc(bytes, 128)
    }

    /// Whether `[addr, addr + bytes)` lies entirely inside one live
    /// allocation. This is the memcheck predicate.
    pub fn is_allocated(&self, addr: u64, bytes: u32) -> bool {
        match self.nearest_allocation(addr) {
            Some((base, len)) => addr - base < len && u64::from(bytes) <= len - (addr - base),
            None => false,
        }
    }

    /// The live allocation `(base, len)` with the greatest base at or below
    /// `addr` — the buffer an out-of-bounds access most likely ran off the
    /// end of. `None` if `addr` is below every allocation.
    pub fn nearest_allocation(&self, addr: u64) -> Option<(u64, u64)> {
        let i = self.allocs.partition_point(|&(base, _)| base <= addr);
        (i > 0).then(|| self.allocs[i - 1])
    }

    /// All live allocations as `(base, len)`, in address order.
    pub fn allocations(&self) -> &[(u64, u64)] {
        &self.allocs
    }

    /// Read one byte (zero if never written).
    pub fn read_u8(&self, addr: u64) -> u8 {
        let page = addr >> PAGE_SHIFT;
        match self.pages.get(&page) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let page = addr >> PAGE_SHIFT;
        let p = self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        p[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Read `n` bytes little-endian into a u64 (n ≤ 8).
    pub fn read_le(&self, addr: u64, n: u32) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let n = n as usize;
        if off + n > PAGE_SIZE {
            // Straddles a page boundary: byte by byte.
            return (0..n as u64).fold(0, |v, i| {
                v | u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i)
            });
        }
        let mut bytes = [0u8; 8];
        if let Some(p) = self.pages.get(&(addr >> PAGE_SHIFT)) {
            bytes[..n].copy_from_slice(&p[off..off + n]);
        }
        u64::from_le_bytes(bytes)
    }

    /// Write the low `n` bytes of `v` little-endian (n ≤ 8).
    pub fn write_le(&mut self, addr: u64, n: u32, v: u64) {
        debug_assert!(n <= 8);
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let n = n as usize;
        if n == 0 || off + n > PAGE_SIZE {
            // Straddles a page boundary (or writes nothing): byte by byte.
            for i in 0..n as u64 {
                self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
            }
            return;
        }
        let p = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        p[off..off + n].copy_from_slice(&v.to_le_bytes()[..n]);
    }

    /// Read a typed scalar as raw bits (sign/float interpretation is the
    /// caller's concern). Integers narrower than 64 bits are zero-extended.
    pub fn read_scalar(&self, addr: u64, ty: Type) -> u64 {
        self.read_le(addr, ty.size_bytes())
    }

    /// Write a typed scalar from raw bits.
    pub fn write_scalar(&mut self, addr: u64, ty: Type, bits: u64) {
        self.write_le(addr, ty.size_bytes(), bits);
    }

    /// Write a slice of `u32` values starting at `addr`.
    pub fn write_u32_slice(&mut self, addr: u64, data: &[u32]) {
        for (i, &v) in data.iter().enumerate() {
            self.write_le(addr + 4 * i as u64, 4, u64::from(v));
        }
    }

    /// Read `n` consecutive `u32` values.
    pub fn read_u32_slice(&self, addr: u64, n: usize) -> Vec<u32> {
        (0..n)
            .map(|i| self.read_le(addr + 4 * i as u64, 4) as u32)
            .collect()
    }

    /// Write a slice of `f32` values starting at `addr`.
    pub fn write_f32_slice(&mut self, addr: u64, data: &[f32]) {
        for (i, &v) in data.iter().enumerate() {
            self.write_le(addr + 4 * i as u64, 4, u64::from(v.to_bits()));
        }
    }

    /// Read `n` consecutive `f32` values.
    pub fn read_f32_slice(&self, addr: u64, n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| f32::from_bits(self.read_le(addr + 4 * i as u64, 4) as u32))
            .collect()
    }

    /// Number of resident (written) pages, for memory-footprint sanity.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Checkpoint-encode the memory image: resident pages (in sorted page
    /// order for byte stability), bump pointer and allocation table.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        let mut page_ids: Vec<&u64> = self.pages.keys().collect();
        page_ids.sort_unstable();
        e.usize(page_ids.len());
        for p in page_ids {
            e.u64(*p);
            e.bytes(&self.pages[p][..]);
        }
        e.u64(self.next_alloc);
        e.seq(&self.allocs, |e, &(base, len)| {
            e.u64(base);
            e.u64(len);
        });
    }

    /// Checkpoint-decode a memory image written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<GlobalMem, WireError> {
        let n = d.seq_len()?;
        let mut pages = HashMap::with_capacity(n);
        for _ in 0..n {
            let id = d.u64()?;
            let bytes = d.bytes()?;
            let arr: Box<[u8; PAGE_SIZE]> = bytes
                .to_vec()
                .into_boxed_slice()
                .try_into()
                .map_err(|_| WireError::Malformed("page size mismatch"))?;
            if pages.insert(id, arr).is_some() {
                return Err(WireError::Malformed("duplicate page"));
            }
        }
        let next_alloc = d.u64()?;
        let allocs = d.seq(|d| {
            let base = d.u64()?;
            let len = d.u64()?;
            Ok((base, len))
        })?;
        Ok(GlobalMem {
            pages,
            next_alloc,
            allocs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let mem = GlobalMem::new();
        assert_eq!(mem.read_u8(0xdead_beef), 0);
        assert_eq!(mem.read_scalar(0x42, Type::U64), 0);
    }

    #[test]
    fn read_write_round_trip_across_pages() {
        let mut mem = GlobalMem::new();
        // Straddle a page boundary.
        let addr = (1 << PAGE_SHIFT) - 3;
        mem.write_le(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_le(addr, 8), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn alloc_respects_alignment_and_no_overlap() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(100, 128).unwrap();
        let b = mem.alloc(10, 128).unwrap();
        assert_eq!(a % 128, 0);
        assert_eq!(b % 128, 0);
        assert!(b >= a + 100);
        assert!(a >= HEAP_BASE);
    }

    #[test]
    fn typed_slices() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc_array(Type::U32, 4).unwrap();
        mem.write_u32_slice(a, &[1, 2, 3, 4]);
        assert_eq!(mem.read_u32_slice(a, 4), vec![1, 2, 3, 4]);
        let f = mem.alloc_array(Type::F32, 2).unwrap();
        mem.write_f32_slice(f, &[1.5, -2.25]);
        assert_eq!(mem.read_f32_slice(f, 2), vec![1.5, -2.25]);
    }

    #[test]
    fn bad_allocations_are_rejected_not_wrapped() {
        let mut mem = GlobalMem::new();
        assert_eq!(
            mem.alloc(16, 0).unwrap_err(),
            AllocError::BadAlign { align: 0 }
        );
        assert_eq!(
            mem.alloc(16, 3).unwrap_err(),
            AllocError::BadAlign { align: 3 }
        );
        assert!(matches!(
            mem.alloc(u64::MAX, 4).unwrap_err(),
            AllocError::TooLarge { .. }
        ));
        assert!(matches!(
            mem.alloc_array(Type::U64, u64::MAX / 4).unwrap_err(),
            AllocError::CountOverflow { .. }
        ));
        // Failed allocations must not move the bump pointer or leave
        // phantom ranges behind.
        assert_eq!(mem.allocations().len(), 0);
        let a = mem.alloc(16, 4).unwrap();
        assert_eq!(a, HEAP_BASE);
    }

    #[test]
    fn allocation_ranges_answer_memcheck_queries() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(100, 128).unwrap();
        let b = mem.alloc(64, 128).unwrap();
        // Inside each allocation.
        assert!(mem.is_allocated(a, 4));
        assert!(mem.is_allocated(a + 96, 4));
        assert!(mem.is_allocated(b + 60, 4));
        // Straddling the end of `a` (the 128-byte alignment gap after it is
        // not allocated).
        assert!(!mem.is_allocated(a + 98, 4));
        assert!(!mem.is_allocated(a + 100, 1));
        // Below the heap, and past the last allocation.
        assert!(!mem.is_allocated(HEAP_BASE - 8, 4));
        assert!(!mem.is_allocated(b + 64, 1));
        // Nearest-allocation attribution.
        assert_eq!(mem.nearest_allocation(a + 100), Some((a, 100)));
        assert_eq!(mem.nearest_allocation(b + 1000), Some((b, 64)));
        assert_eq!(mem.nearest_allocation(HEAP_BASE - 1), None);
    }

    #[test]
    fn zero_byte_allocations_stay_distinct() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(0, 4).unwrap();
        let b = mem.alloc(0, 4).unwrap();
        assert_ne!(a, b);
        assert!(mem.is_allocated(a, 1));
    }

    #[test]
    fn narrow_writes_do_not_clobber_neighbors() {
        let mut mem = GlobalMem::new();
        mem.write_le(100, 4, 0xAAAA_AAAA);
        mem.write_le(104, 4, 0xBBBB_BBBB);
        mem.write_le(100, 2, 0x1111);
        assert_eq!(mem.read_le(100, 4), 0xAAAA_1111);
        assert_eq!(mem.read_le(104, 4), 0xBBBB_BBBB);
    }
}
