//! Device global memory: a byte-addressable store plus a bump allocator,
//! playing the role of `cudaMalloc` + device DRAM contents.
//!
//! The allocator records every live `(base, len)` range so that memcheck
//! ([`GpuConfig::memcheck`](crate::GpuConfig::memcheck)) can reject
//! accesses that fall outside all allocations.
//!
//! The bump allocator makes the heap one contiguous range from
//! [`HEAP_BASE`], so its pages sit in a flat table indexed by page number:
//! reaching one costs a subtraction and a bounds check, not a hash. Any
//! address stays readable and writable; pages outside the allocated heap
//! (wild addresses when memcheck is off) live in a sparse map beside it.

use crate::decode::{for_lanes, Lanes};
use crate::fault::AllocError;
use gcl_mem::{Dec, Enc, Wire, WireError};
use gcl_ptx::Type;
use std::collections::BTreeMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

type Page = [u8; PAGE_SIZE];

/// Base of the device heap. Nonzero so that address 0 stays an obvious
/// "null" and accidental null derefs read zeros rather than real data.
pub const HEAP_BASE: u64 = 0x1000_0000;

/// Page number of [`HEAP_BASE`].
const HEAP_PAGE0: u64 = HEAP_BASE >> PAGE_SHIFT;

/// Most pages the flat table covers (4 GiB of heap, an 8 MiB table), so an
/// absurd allocation size cannot size it; pages past it are sparse.
const MAX_HEAP_PAGES: u64 = 1 << 20;

/// Pages of the flat table when the bump pointer stands at `next_alloc`:
/// those covering `[HEAP_BASE, next_alloc)`, capped at [`MAX_HEAP_PAGES`].
fn heap_pages(next_alloc: u64) -> usize {
    let bytes = next_alloc.saturating_sub(HEAP_BASE);
    bytes.div_ceil(PAGE_SIZE as u64).min(MAX_HEAP_PAGES) as usize
}

fn zero_page() -> Box<Page> {
    Box::new([0; PAGE_SIZE])
}

/// Offset of `addr` within its page.
fn offset(addr: u64) -> usize {
    addr as usize & (PAGE_SIZE - 1)
}

/// Whether an `n`-byte access at `addr` crosses into the next page.
fn straddles(addr: u64, n: usize) -> bool {
    offset(addr) + n > PAGE_SIZE
}

/// Split the lanes of `mask`, in ascending order, into maximal runs of
/// consecutive lanes whose `n`-byte accesses fall inside one page —
/// `run(Some(page number), lanes)` — and single lanes whose access straddles
/// two — `run(None, lane)`.
fn for_page_runs(mask: u32, addrs: &Lanes, n: usize, mut run: impl FnMut(Option<u64>, u32)) {
    let mut m = mask;
    while m != 0 {
        let first = addrs[m.trailing_zeros() as usize];
        if straddles(first, n) {
            run(None, m & m.wrapping_neg());
            m &= m - 1;
            continue;
        }
        let id = first >> PAGE_SHIFT;
        let mut lanes = 0;
        while m != 0 {
            let addr = addrs[m.trailing_zeros() as usize];
            if addr >> PAGE_SHIFT != id || straddles(addr, n) {
                break;
            }
            lanes |= m & m.wrapping_neg();
            m &= m - 1;
        }
        run(Some(id), lanes);
    }
}

/// Read `n` ≤ 8 little-endian bytes at the start of `bytes`.
#[inline(always)]
fn load_le(bytes: &[u8], n: usize) -> u64 {
    match n {
        4 => u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")).into(),
        8 => u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")),
        _ => {
            let mut le = [0u8; 8];
            le[..n].copy_from_slice(&bytes[..n]);
            u64::from_le_bytes(le)
        }
    }
}

/// Write the low `n` ≤ 8 bytes of `v` little-endian at the start of `bytes`.
#[inline(always)]
fn store_le(bytes: &mut [u8], n: usize, v: u64) {
    match n {
        4 => bytes[..4].copy_from_slice(&(v as u32).to_le_bytes()),
        8 => bytes[..8].copy_from_slice(&v.to_le_bytes()),
        _ => bytes[..n].copy_from_slice(&v.to_le_bytes()[..n]),
    }
}

/// Device memory image with functional reads/writes.
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
    /// Pages of the allocated heap, indexed by `(addr >> 12) - HEAP_PAGE0`;
    /// [`heap_pages`]`(next_alloc)` slots, `None` until first written.
    heap: Vec<Option<Box<Page>>>,
    /// Written pages outside `heap`'s window, by page number. A page lives
    /// in exactly one of the two: [`alloc`](Self::alloc) moves the ones its
    /// new range covers into `heap`.
    stray: BTreeMap<u64, Box<Page>>,
    next_alloc: u64,
    /// Live allocations as `(base, len)`, sorted by base (the bump
    /// allocator only moves upward, so pushes keep the order).
    allocs: Vec<(u64, u64)>,
}

impl GlobalMem {
    /// An empty memory image.
    pub fn new() -> GlobalMem {
        GlobalMem {
            heap: Vec::new(),
            stray: BTreeMap::new(),
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
        self.grow_heap();
        Ok(base)
    }

    /// Extend the flat table to the bump pointer, adopting pages that were
    /// written before their range was allocated.
    fn grow_heap(&mut self) {
        let (old, new) = (self.heap.len(), heap_pages(self.next_alloc));
        if new <= old {
            return;
        }
        self.heap.resize_with(new, || None);
        let window = HEAP_PAGE0 + old as u64..HEAP_PAGE0 + new as u64;
        let adopted: Vec<u64> = self.stray.range(window).map(|(&id, _)| id).collect();
        for id in adopted {
            self.heap[(id - HEAP_PAGE0) as usize] = self.stray.remove(&id);
        }
    }

    /// The page numbered `id`, if it was ever written.
    fn page(&self, id: u64) -> Option<&Page> {
        match self.heap.get(id.wrapping_sub(HEAP_PAGE0) as usize) {
            Some(slot) => slot.as_deref(),
            None => self.stray.get(&id).map(|p| &**p),
        }
    }

    /// The page numbered `id`, created zeroed on first use.
    fn page_mut(&mut self, id: u64) -> &mut Page {
        let i = id.wrapping_sub(HEAP_PAGE0) as usize;
        if i < self.heap.len() {
            self.heap[i].get_or_insert_with(zero_page)
        } else {
            self.stray.entry(id).or_insert_with(zero_page)
        }
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

    /// One past the last allocated byte: where the bump pointer stands.
    pub fn heap_end(&self) -> u64 {
        self.next_alloc
    }

    /// All live allocations as `(base, len)`, in address order.
    pub fn allocations(&self) -> &[(u64, u64)] {
        &self.allocs
    }

    /// Read one byte (zero if never written).
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr >> PAGE_SHIFT) {
            Some(p) => p[offset(addr)],
            None => 0,
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        self.page_mut(addr >> PAGE_SHIFT)[offset(addr)] = v;
    }

    /// Read `n` bytes little-endian into a u64 (n ≤ 8).
    pub fn read_le(&self, addr: u64, n: u32) -> u64 {
        debug_assert!(n <= 8);
        let n = n as usize;
        if straddles(addr, n) {
            // Byte by byte across the page boundary.
            return (0..n as u64).fold(0, |v, i| {
                v | u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i)
            });
        }
        self.page(addr >> PAGE_SHIFT)
            .map_or(0, |p| load_le(&p[offset(addr)..], n))
    }

    /// Write the low `n` bytes of `v` little-endian (n ≤ 8).
    pub fn write_le(&mut self, addr: u64, n: u32, v: u64) {
        debug_assert!(n <= 8);
        let n = n as usize;
        if n == 0 {
            return; // touches no page
        }
        if straddles(addr, n) {
            // Byte by byte across the page boundary.
            for i in 0..n as u64 {
                self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
            }
            return;
        }
        store_le(&mut self.page_mut(addr >> PAGE_SHIFT)[offset(addr)..], n, v);
    }

    /// [`read_le`](Self::read_le) for every lane of `mask`, in ascending
    /// lane order: `put(lane, bits)`. A page is looked up once per run of
    /// consecutive lanes that fall on it.
    pub(crate) fn read_lanes(
        &self,
        mask: u32,
        addrs: &Lanes,
        n: u32,
        mut put: impl FnMut(usize, u64),
    ) {
        for_page_runs(mask, addrs, n as usize, |page, lanes| match page {
            None => for_lanes(lanes, |l| put(l, self.read_le(addrs[l], n))),
            Some(id) => {
                let page = self.page(id);
                for_lanes(lanes, |l| {
                    put(
                        l,
                        page.map_or(0, |p| load_le(&p[offset(addrs[l])..], n as usize)),
                    );
                });
            }
        });
    }

    /// [`write_le`](Self::write_le) of `vals[lane]` for every lane of
    /// `mask`, in ascending lane order (the last lane wins an address two
    /// lanes share). A page is looked up once per run of consecutive lanes
    /// that fall on it.
    pub(crate) fn write_lanes(&mut self, mask: u32, addrs: &Lanes, n: u32, vals: &Lanes) {
        for_page_runs(mask, addrs, n as usize, |page, lanes| match page {
            None => for_lanes(lanes, |l| self.write_le(addrs[l], n, vals[l])),
            Some(id) => {
                let page = self.page_mut(id);
                for_lanes(lanes, |l| {
                    store_le(&mut page[offset(addrs[l])..], n as usize, vals[l])
                });
            }
        });
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
        self.heap.iter().flatten().count() + self.stray.len()
    }

    /// Resident pages as `(page number, bytes)`, in ascending page order.
    fn pages(&self) -> impl Iterator<Item = (u64, &Page)> {
        let below = self.stray.range(..HEAP_PAGE0);
        let above = self.stray.range(HEAP_PAGE0..);
        let heap = self.heap.iter().enumerate();
        below
            .map(|(&id, p)| (id, &**p))
            .chain(heap.filter_map(|(i, p)| Some((HEAP_PAGE0 + i as u64, &**p.as_ref()?))))
            .chain(above.map(|(&id, p)| (id, &**p)))
    }

    /// Checkpoint-encode the memory image: resident pages (in ascending
    /// page order for byte stability), bump pointer and allocation table.
    pub fn ckpt_encode(&self, e: &mut Enc) {
        e.usize(self.resident_pages());
        for (id, page) in self.pages() {
            e.u64(id);
            e.bytes(page);
        }
        self.next_alloc.put(e);
        self.allocs.put(e);
    }

    /// Checkpoint-decode a memory image written by
    /// [`ckpt_encode`](Self::ckpt_encode).
    pub fn ckpt_decode(d: &mut Dec<'_>) -> Result<GlobalMem, WireError> {
        let n = d.seq_len()?;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let id = d.u64()?;
            let page: Box<Page> = d
                .bytes()?
                .to_vec()
                .into_boxed_slice()
                .try_into()
                .map_err(|_| WireError::Malformed("page size mismatch"))?;
            pages.push((id, page));
        }
        let (next_alloc, allocs) = Wire::get(d)?;
        let mut mem = GlobalMem {
            heap: Vec::new(),
            stray: BTreeMap::new(),
            next_alloc,
            allocs,
        };
        mem.heap.resize_with(heap_pages(next_alloc), || None);
        for (id, page) in pages {
            let old = match mem.heap.get_mut(id.wrapping_sub(HEAP_PAGE0) as usize) {
                Some(slot) => slot.replace(page),
                None => mem.stray.insert(id, page),
            };
            if old.is_some() {
                return Err(WireError::Malformed("duplicate page"));
            }
        }
        Ok(mem)
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

    fn encode(mem: &GlobalMem) -> Vec<u8> {
        let mut e = Enc::new();
        mem.ckpt_encode(&mut e);
        e.into_bytes()
    }

    /// Eight bytes across every page boundary there is a different pair of
    /// tables behind: sparse | sparse below the heap, sparse | flat at
    /// `HEAP_BASE`, flat | flat inside the heap, flat | sparse at its end.
    #[test]
    fn straddling_accesses_on_both_sides_of_the_heap() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(2 * PAGE_SIZE as u64, 128).unwrap();
        assert_eq!((a, mem.heap.len()), (HEAP_BASE, 2));
        let boundaries = [
            HEAP_BASE - PAGE_SIZE as u64,
            HEAP_BASE,
            HEAP_BASE + PAGE_SIZE as u64,
            HEAP_BASE + 2 * PAGE_SIZE as u64,
        ];
        for (i, boundary) in boundaries.into_iter().enumerate() {
            let v = 0x1122_3344_5566_7788 ^ i as u64;
            mem.write_le(boundary - 3, 8, v);
            assert_eq!(mem.read_le(boundary - 3, 8), v);
            assert_eq!(mem.read_le(boundary - 3, 4), v & 0xFFFF_FFFF);
            assert_eq!(mem.read_le(boundary, 4), v >> 24 & 0xFFFF_FFFF);
            assert_eq!(u64::from(mem.read_u8(boundary - 1)), v >> 16 & 0xFF);
        }
        // Two pages below the heap, two in it, one past it.
        assert_eq!((mem.stray.len(), mem.resident_pages()), (3, 5));
    }

    /// A page written past the end of the heap stays reachable when a later
    /// allocation grows the heap over it, and lives in one table only.
    #[test]
    fn allocation_adopts_pages_written_before_it() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(100, 128).unwrap();
        let wild = a + 5 * PAGE_SIZE as u64 + 40;
        mem.write_le(wild, 4, 0xABCD_EF01);
        mem.write_le(a, 4, 1);
        assert_eq!((mem.stray.len(), mem.resident_pages()), (1, 2));

        let b = mem.alloc(8 * PAGE_SIZE as u64, 128).unwrap();
        assert!(b < wild && wild < b + 8 * PAGE_SIZE as u64);
        assert_eq!(mem.read_le(wild, 4), 0xABCD_EF01);
        assert_eq!((mem.stray.len(), mem.resident_pages()), (0, 2));
        mem.write_le(wild, 4, 2);
        assert_eq!(mem.read_le(wild, 4), 2);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn checkpoint_round_trips_pages_of_both_tables_in_page_order() {
        let mut mem = GlobalMem::new();
        let a = mem.alloc(3 * PAGE_SIZE as u64, 128).unwrap();
        // Written out of address order, on both sides of the heap and in it.
        mem.write_le(a + 3 * PAGE_SIZE as u64 + 8, 8, 5);
        mem.write_le(a + 2 * PAGE_SIZE as u64, 8, 4);
        mem.write_le(0x40, 8, 1);
        mem.write_le(a, 8, 3);
        mem.write_le(HEAP_BASE - 8, 8, 2);
        let bytes = encode(&mem);

        let mut d = Dec::new(&bytes);
        let page_ids: Vec<u64> = (0..d.seq_len().unwrap())
            .map(|_| {
                let id = d.u64().unwrap();
                d.bytes().unwrap();
                id
            })
            .collect();
        assert_eq!(
            page_ids,
            [
                0,
                HEAP_PAGE0 - 1,
                HEAP_PAGE0,
                HEAP_PAGE0 + 2,
                HEAP_PAGE0 + 3
            ]
        );

        let mut d = Dec::new(&bytes);
        let back = GlobalMem::ckpt_decode(&mut d).expect("decode");
        assert!(d.is_done());
        assert_eq!(encode(&back), bytes);
        assert_eq!((back.heap.len(), back.stray.len()), (3, 3));
        assert_eq!(back.allocations(), mem.allocations());
        for (addr, v) in [(0x40, 1), (HEAP_BASE - 8, 2), (a, 3)] {
            assert_eq!(back.read_le(addr, 8), v);
        }
    }

    /// The warp-wide accessors agree with one `read_le` / `write_le` per
    /// lane in ascending order: runs on one page, page changes, straddles,
    /// unwritten and out-of-heap pages, two lanes on one address.
    #[test]
    fn lane_accessors_equal_per_lane_accesses() {
        let page = PAGE_SIZE as u64;
        let mut addrs = [0u64; 32];
        for (l, a) in addrs.iter_mut().enumerate() {
            let l = l as u64;
            *a = match l {
                0..8 => HEAP_BASE + 8 * l,              // one run
                8..12 => HEAP_BASE + page - 12 + 4 * l, // crosses into page 1
                12 => HEAP_BASE + 2 * page - 3,         // straddles 1 | 2
                13..16 => HEAP_BASE + 8 * (l - 13),     // back on page 0, aliases lanes 0..3
                16..20 => 0x100 + 8 * l,                // below the heap
                20..24 => HEAP_BASE + 64 * page + l,    // past the heap
                _ => HEAP_BASE + 3 * page + 16 * l,     // never written by the setup
            };
        }
        let mut vals = [0u64; 32];
        for (l, v) in vals.iter_mut().enumerate() {
            *v = 0x0101_0101_0101_0101 * (l as u64 + 1);
        }
        for n in [1, 2, 4, 8] {
            for mask in [u32::MAX, 0x0F0F_3355, 1 << 12, 0] {
                let mut lanes = GlobalMem::new();
                lanes.alloc(4 * page, 128).unwrap();
                lanes.write_le(HEAP_BASE + 4, 8, u64::MAX);
                let mut scalar = GlobalMem::new();
                scalar.alloc(4 * page, 128).unwrap();
                scalar.write_le(HEAP_BASE + 4, 8, u64::MAX);

                lanes.write_lanes(mask, &addrs, n, &vals);
                for l in (0..32).filter(|l| mask >> l & 1 == 1) {
                    scalar.write_le(addrs[l], n, vals[l]);
                }
                assert_eq!(encode(&lanes), encode(&scalar), "n {n} mask {mask:#x}");

                let mut got = [u64::MAX; 32];
                lanes.read_lanes(mask, &addrs, n, |l, bits| got[l] = bits);
                for l in 0..32 {
                    let want = match mask >> l & 1 {
                        1 => scalar.read_le(addrs[l], n),
                        _ => u64::MAX,
                    };
                    assert_eq!(got[l], want, "n {n} mask {mask:#x} lane {l}");
                }
            }
        }
    }
}
