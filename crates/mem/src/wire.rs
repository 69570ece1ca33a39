//! Minimal little-endian binary wire format for checkpoints, and the one
//! place a checksummed binary record is framed for a file.
//!
//! The simulator is dependency-free, so checkpoint serialization is an
//! encoder/decoder pair ([`Enc`] / [`Dec`]) plus the [`Wire`] trait, which
//! each simulator unit implements through one
//! [`declare_wire!`](crate::declare_wire!) declaration of its fields
//! (DESIGN.md §10). The format is deliberately simple:
//! fixed-width little-endian integers, `u64` length prefixes for sequences,
//! one tag byte for enums and `Option`s. Byte-stability matters more than
//! compactness — two encodings of the same logical state must be identical
//! so the checkpoint content checksum is meaningful, which is why callers
//! serialize hash maps in sorted key order and heaps as sorted vectors.
//!
//! Two framings sit on top of the codec, both checksummed with FNV-1a:
//! the **envelope** ([`seal`] / [`open`]), a whole file holding one
//! payload (checkpoints, result-cache entries), and the **section**
//! ([`write_section`] / [`Dec::section`]), one record among many in a
//! stream (trace launch sections, journal records). Lengths come from the
//! file, so every read is bounds-checked through the decoder before a byte
//! is touched. DESIGN.md §19 has the rationale and the caller table.
//!
//! [`publish`] is how a finished image becomes a file: written whole to a
//! uniquely named sibling and renamed into place, so a reader sees the old
//! file, the new file or no file — never a mix.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::Hash;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A decode failure. Encoding is infallible; decoding validates everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag byte or structural invariant did not match any known value.
    Malformed(&'static str),
    /// An envelope does not start with the expected magic.
    BadMagic,
    /// An envelope's or section's bytes do not fold to the stored checksum.
    Checksum,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::Malformed(what) => write!(f, "malformed input: {what}"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::Checksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// FNV-1a offset basis: the initial value of every digest and checksum.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold one 64-bit value into an FNV-1a digest (little-endian bytes).
#[inline]
pub fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold a byte slice into an FNV-1a digest (container checksums and
/// config/kernel fingerprints).
#[inline]
pub fn fnv_fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Envelope bytes before the payload: magic, version, tag, length.
const ENVELOPE_HEADER: usize = 8 + 4 + 8 + 8;

/// Wrap `payload` in the envelope:
///
/// ```text
/// magic[8] | version u32 | tag u64 | payload length u64 | payload
/// | FNV-1a u64 over every preceding byte
/// ```
///
/// `tag` is the caller's identity word: a configuration fingerprint for
/// checkpoints, the cache key for cache entries.
pub fn seal(magic: &[u8; 8], version: u32, tag: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_HEADER + payload.len() + 8);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv_fold_bytes(FNV_OFFSET, &out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// An envelope whose magic and checksum have been verified by [`open`].
#[derive(Debug, Clone, Copy)]
pub struct Envelope<'a> {
    /// Format version recorded in the header.
    pub version: u32,
    /// The identity word recorded in the header.
    pub tag: u64,
    /// The payload, or [`WireError::Malformed`] when the bytes between
    /// header and checksum are not the declared length — left for the
    /// caller to unwrap after its own version and tag checks.
    pub payload: Result<&'a [u8], WireError>,
}

/// Verify an envelope written by [`seal`] and split it into its fields.
///
/// # Errors
///
/// In this order: [`WireError::Truncated`] for fewer than 8 bytes,
/// [`WireError::BadMagic`], [`WireError::Truncated`] for less than a
/// header plus checksum, then on a checksum mismatch
/// [`WireError::Truncated`] when fewer payload bytes are present than the
/// header declares (a clean cut) and [`WireError::Checksum`] otherwise
/// (in-place corruption).
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8]) -> Result<Envelope<'a>, WireError> {
    if bytes.len() < 8 {
        return Err(WireError::Truncated);
    }
    if bytes[..8] != magic[..] {
        return Err(WireError::BadMagic);
    }
    if bytes.len() < ENVELOPE_HEADER + 8 {
        return Err(WireError::Truncated);
    }
    let (body, sum) = bytes.split_at(bytes.len() - 8);
    let mut header = Dec::new(&body[8..ENVELOPE_HEADER]);
    let (version, tag, declared) = (header.u32()?, header.u64()?, header.u64()?);
    let rest = &body[ENVELOPE_HEADER..];
    let sum = Dec::new(sum).u64()?;
    if fnv_fold_bytes(FNV_OFFSET, body) != sum {
        return Err(if (rest.len() as u64) < declared {
            WireError::Truncated
        } else {
            WireError::Checksum
        });
    }
    let payload = if rest.len() as u64 == declared {
        Ok(rest)
    } else {
        Err(WireError::Malformed("payload length mismatch"))
    };
    Ok(Envelope {
        version,
        tag,
        payload,
    })
}

/// Stream one section — `payload length u64 | payload | FNV-1a u64 over
/// the payload` — into `w` without copying the payload.
///
/// # Errors
///
/// Whatever `w` reports.
pub fn write_section(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&fnv_fold_bytes(FNV_OFFSET, payload).to_le_bytes())
}

/// Publish `bytes` as the file at `path`, atomically: create the parent
/// directory, write a sibling temp file `<path>.tmp.<pid>.<n>` — unique per
/// writer, so concurrent publishers of one path each rename a complete
/// image instead of interleaving writes into a shared temp —, `sync_all`
/// it when `fsync` is set, and rename it over `path`. A failed publish
/// removes its temp file.
///
/// `fsync` decides only whether the *contents* are forced to disk before
/// the rename; DESIGN.md §19 lists which artifact asks for it and why.
///
/// # Errors
///
/// The first i/o error of any step.
pub fn publish(path: &Path, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
    static WRITER: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    let writer = WRITER.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".tmp.{}.{writer}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = std::fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            if fsync {
                f.sync_all()?;
            }
            Ok(())
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// An append-only encoder writing the wire format into a byte vector.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Create an empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `usize` as a `u64` (the format is 64-bit regardless of host).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Write a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Write an `f64` via its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append raw bytes with no framing. For callers that assemble a
    /// length-prefixed region from multiple pieces (write the total with
    /// [`Enc::usize`], then the pieces with `raw`).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write an `Option` tag byte followed by the value when present.
    pub fn opt<T>(&mut self, v: &Option<T>, mut f: impl FnMut(&mut Enc, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Write a `u64`-length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Enc, &T)) {
        self.usize(items.len());
        for it in items {
            f(self, it);
        }
    }

    /// Write a `u64` as an LEB128-style varint: 7 value bits per byte,
    /// high bit set on every byte but the last. Small values take one
    /// byte; the trace columns lean on this for delta streams.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Write an `i64` as a zigzag-mapped varint (see [`zigzag`]), the
    /// encoding of choice for deltas that hover around zero in either
    /// direction.
    pub fn svarint(&mut self, v: i64) {
        self.varint(zigzag(v));
    }
}

/// Map an `i64` onto a `u64` so that values near zero — of either sign —
/// stay small: 0 → 0, -1 → 1, 1 → 2, -2 → 3, ... The inverse is
/// [`unzigzag`].
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked cursor decoding the wire format from a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Create a decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the whole buffer has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` encoded as `u64`, rejecting values the host cannot
    /// represent.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Malformed("usize overflow"))
    }

    /// Read a sequence length, additionally bounded by the remaining input
    /// so corrupt lengths cannot trigger huge allocations.
    pub fn seq_len(&mut self) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n > self.remaining() {
            // Every element takes at least one byte, so a length beyond the
            // remaining byte count is structurally impossible.
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Read a bool, rejecting tag bytes other than 0/1.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool tag")),
        }
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Read one section written by [`write_section`], borrowing its
    /// verified payload.
    ///
    /// # Errors
    ///
    /// [`WireError::Truncated`] when the declared length or the checksum
    /// word runs past the input, [`WireError::Checksum`] when the payload
    /// does not fold to the stored sum.
    pub fn section(&mut self) -> Result<&'a [u8], WireError> {
        let payload = self.bytes()?;
        let sum = self.u64()?;
        if fnv_fold_bytes(FNV_OFFSET, payload) != sum {
            return Err(WireError::Checksum);
        }
        Ok(payload)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::Malformed("utf8 string"))
    }

    /// Read an `Option` written by [`Enc::opt`].
    pub fn opt<T>(
        &mut self,
        mut f: impl FnMut(&mut Dec<'a>) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }

    /// Read a sequence written by [`Enc::seq`] into a `Vec`.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Dec<'a>) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Read a varint written by [`Enc::varint`]. Rejects encodings longer
    /// than ten bytes and non-canonical trailing bits that would overflow
    /// a `u64`.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let payload = (b & 0x7f) as u64;
            if shift == 63 && payload > 1 {
                return Err(WireError::Malformed("varint overflow"));
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::Malformed("varint too long"))
    }

    /// Read a zigzag varint written by [`Enc::svarint`].
    pub fn svarint(&mut self) -> Result<i64, WireError> {
        Ok(unzigzag(self.varint()?))
    }
}

/// A value with one wire encoding: [`put`](Wire::put) writes it and
/// [`get`](Wire::get) reads it back, rejecting bad tags. The impls below
/// write exactly what the matching [`Enc`] method writes: scalars and
/// `String` by name, `Option` as [`Enc::opt`], `Vec` and `VecDeque` as
/// [`Enc::seq`], arrays and tuples as their elements in order, and a
/// `BTreeMap` as the sequence of its `(key, value)` pairs. A struct or
/// tag enum declares its encoding once with
/// [`declare_wire!`](crate::declare_wire!).
pub trait Wire: Sized {
    /// Write `self`.
    fn put(&self, e: &mut Enc);
    /// Read a value written by [`put`](Wire::put).
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated or malformed input.
    fn get(d: &mut Dec<'_>) -> Result<Self, WireError>;
}

macro_rules! scalar_wire {
    ($($t:ident)*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$t(*self);
            }
            #[inline]
            fn get(d: &mut Dec<'_>) -> Result<$t, WireError> {
                d.$t()
            }
        }
    )*};
}

scalar_wire!(u8 u16 u32 u64 usize bool f64);

impl Wire for String {
    fn put(&self, e: &mut Enc) {
        e.str(self);
    }
    fn get(d: &mut Dec<'_>) -> Result<String, WireError> {
        d.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, e: &mut Enc) {
        e.opt(self, |e, v| v.put(e));
    }
    fn get(d: &mut Dec<'_>) -> Result<Option<T>, WireError> {
        d.opt(T::get)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, e: &mut Enc) {
        e.seq(self, |e, v| v.put(e));
    }
    fn get(d: &mut Dec<'_>) -> Result<Vec<T>, WireError> {
        d.seq(T::get)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn put(&self, e: &mut Enc) {
        e.usize(self.len());
        self.iter().for_each(|v| v.put(e));
    }
    fn get(d: &mut Dec<'_>) -> Result<VecDeque<T>, WireError> {
        Ok(d.seq(T::get)?.into())
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, e: &mut Enc) {
        self.iter().for_each(|v| v.put(e));
    }
    fn get(d: &mut Dec<'_>) -> Result<[T; N], WireError> {
        // Reads past a failed element fail too; the first error is returned.
        let read: [Result<T, WireError>; N] = std::array::from_fn(|_| T::get(d));
        if let Some(&e) = read.iter().find_map(|r| r.as_ref().err()) {
            return Err(e);
        }
        Ok(read.map(|r| r.unwrap_or_else(|_| unreachable!("errors returned above"))))
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, e: &mut Enc) {
        e.usize(self.len());
        for (k, v) in self {
            k.put(e);
            v.put(e);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<BTreeMap<K, V>, WireError> {
        Ok(Vec::<(K, V)>::get(d)?.into_iter().collect())
    }
}

macro_rules! tuple_wire {
    ($(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)*
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, WireError> {
                Ok(($($t::get(d)?,)*))
            }
        }
    )*};
}

tuple_wire!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

/// Both directions of one field's encoding, for a field whose type has no
/// [`Wire`] impl: a type from another crate, or a map whose decode names
/// its own duplicate-key rejection. A [`declare_wire!`](crate::declare_wire!)
/// declaration names it after the field (`turnaround: ACC`).
pub struct Codec<T> {
    /// Write the value.
    pub put: fn(&T, &mut Enc),
    /// Read a value written by `put`.
    pub get: fn(&mut Dec<'_>) -> Result<T, WireError>,
}

/// A byte vector as one [`Enc::bytes`] / [`Dec::bytes`] slice: what
/// `Vec<u8>`'s sequence encoding writes, copied whole, not per `u8`.
pub const BYTES: Codec<Vec<u8>> = Codec {
    put: |v, e| e.bytes(v),
    get: |d| Ok(d.bytes()?.to_vec()),
};

/// Write a hash map as a `u64` count and its `(key, value)` pairs in
/// ascending key order, so equal maps always produce identical bytes.
pub fn put_sorted<K: Wire + Ord, V: Wire>(map: &HashMap<K, V>, e: &mut Enc) {
    let mut pairs: Vec<(&K, &V)> = map.iter().collect();
    pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
    e.usize(pairs.len());
    for (k, v) in pairs {
        k.put(e);
        v.put(e);
    }
}

/// Read a map written by [`put_sorted`], rejecting a repeated key as
/// [`WireError::Malformed`]`(dup)`.
///
/// # Errors
///
/// [`WireError`] on truncated or malformed input.
pub fn get_map<K: Wire + Eq + Hash, V: Wire>(
    d: &mut Dec<'_>,
    dup: &'static str,
) -> Result<HashMap<K, V>, WireError> {
    let n = d.seq_len()?;
    let mut map = HashMap::with_capacity(n);
    for _ in 0..n {
        if map.insert(K::get(d)?, V::get(d)?).is_some() {
            return Err(WireError::Malformed(dup));
        }
    }
    Ok(map)
}

/// Declare a type's wire encoding once and get both directions: an
/// [`Wire`](crate::wire::Wire) impl that writes, and reads back, the
/// listed fields in the listed order.
///
/// ```
/// use gcl_mem::wire::{Dec, Enc, Wire, WireError};
///
/// #[derive(Debug, PartialEq)]
/// struct Span { lo: u64, hi: u64, seen: u32 }
/// gcl_mem::declare_wire!(Span { lo, hi } default { seen: 0 } check |s: &Span| {
///     if s.lo <= s.hi { Ok(()) } else { Err(WireError::Malformed("span order")) }
/// });
///
/// #[derive(Debug, PartialEq)]
/// enum Side { Left, Right }
/// gcl_mem::declare_wire!(enum Side "side tag" { Left = 0, Right = 1 });
///
/// #[derive(Debug, PartialEq)]
/// enum Op { Put { key: u64, blob: Vec<u8> }, Drop { key: u64 } }
/// gcl_mem::declare_wire!(enum Op "op tag" { Put = 0 { key, blob: gcl_mem::BYTES }, Drop = 2 { key } });
///
/// let mut e = Enc::new();
/// Span { lo: 1, hi: 2, seen: 9 }.put(&mut e);
/// Side::Right.put(&mut e);
/// Op::Drop { key: 5 }.put(&mut e);
/// let bytes = e.into_bytes();
/// let mut d = Dec::new(&bytes);
/// assert_eq!(Span::get(&mut d), Ok(Span { lo: 1, hi: 2, seen: 0 }));
/// assert_eq!(Side::get(&mut d), Ok(Side::Right));
/// assert_eq!(Op::get(&mut d), Ok(Op::Drop { key: 5 }));
/// assert_eq!(Side::get(&mut Dec::new(&[2])), Err(WireError::Malformed("side tag")));
/// assert_eq!(Op::get(&mut Dec::new(&[1])), Err(WireError::Malformed("op tag")));
/// ```
///
/// A struct lists its encoded fields; a field whose type has no `Wire`
/// impl names a [`Codec`](crate::wire::Codec) after a colon. Fields left
/// off the wire are filled on decode from `default { field: expr, .. }`,
/// and `check f` runs `f(&value)` on every decoded value. An `enum` of
/// unit variants writes each variant's tag byte and rejects any other byte
/// as `Malformed` with the given message. An `enum` whose variants carry
/// fields gives each variant its tag and its field list, `Variant = tag {
/// field, field: CODEC }`: the tag byte, then the fields as a struct's
/// are written. Editing a declaration changes the format (DESIGN.md §10).
#[macro_export]
macro_rules! declare_wire {
    (enum $ty:ident $what:literal { $($v:ident = $n:literal),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, e: &mut $crate::wire::Enc) {
                e.u8(match self { $($ty::$v => $n,)* });
            }
            fn get(d: &mut $crate::wire::Dec<'_>) -> Result<$ty, $crate::wire::WireError> {
                match d.u8()? {
                    $($n => Ok($ty::$v),)*
                    _ => Err($crate::wire::WireError::Malformed($what)),
                }
            }
        }
    };
    (enum $ty:ident $what:literal {
        $($v:ident = $n:literal { $($f:ident $(: $c:path)?),* $(,)? }),* $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, e: &mut $crate::wire::Enc) {
                match self {
                    $($ty::$v { $($f),* } => {
                        e.u8($n);
                        $($crate::declare_wire!(@put e, *$f $(, $c)?);)*
                    })*
                }
            }
            fn get(d: &mut $crate::wire::Dec<'_>) -> Result<$ty, $crate::wire::WireError> {
                match d.u8()? {
                    $($n => Ok($ty::$v { $($f: $crate::declare_wire!(@get d $(, $c)?),)* }),)*
                    _ => Err($crate::wire::WireError::Malformed($what)),
                }
            }
        }
    };
    ($ty:ident { $($f:ident $(: $c:path)?),* $(,)? }
     $(default { $($g:ident: $gv:expr),* $(,)? })? $(check $check:expr)?) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, e: &mut $crate::wire::Enc) {
                $($crate::declare_wire!(@put e, self.$f $(, $c)?);)*
            }
            fn get(d: &mut $crate::wire::Dec<'_>) -> Result<$ty, $crate::wire::WireError> {
                let v = $ty { $($f: $crate::declare_wire!(@get d $(, $c)?),)* $($($g: $gv,)*)? };
                $(($check)(&v)?;)?
                Ok(v)
            }
        }
    };
    (@put $e:ident, $v:expr) => { $crate::wire::Wire::put(&$v, $e) };
    (@put $e:ident, $v:expr, $c:path) => { ($c.put)(&$v, $e) };
    (@get $d:ident) => { $crate::wire::Wire::get($d)? };
    (@get $d:ident, $c:path) => { ($c.get)($d)? };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = Enc::new();
        e.u8(0xab);
        e.u16(0x1234);
        e.u32(0xdead_beef);
        e.u64(0x0123_4567_89ab_cdef);
        e.bool(true);
        e.bool(false);
        e.f64(-1.5);
        e.str("hello");
        e.opt(&Some(7u64), |e, v| e.u64(*v));
        e.opt(&None::<u64>, |e, v| e.u64(*v));
        e.seq(&[1u32, 2, 3], |e, v| e.u32(*v));
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xab);
        assert_eq!(d.u16().unwrap(), 0x1234);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f64().unwrap(), -1.5);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.opt(|d| d.u64()).unwrap(), Some(7));
        assert_eq!(d.opt(|d| d.u64()).unwrap(), None);
        assert_eq!(d.seq(|d| d.u32()).unwrap(), vec![1, 2, 3]);
        assert!(d.is_done());
    }

    #[test]
    fn truncation_detected() {
        let mut e = Enc::new();
        e.u64(42);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes[..5]);
        assert_eq!(d.u64(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.bool(), Err(WireError::Malformed("bool tag")));
        let mut d = Dec::new(&[9]);
        assert!(matches!(d.opt(|d| d.u8()), Err(WireError::Malformed(_))));
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        let pins: &[(u64, usize)] = &[
            (0, 1),
            (0x7f, 1),
            (0x80, 2),
            (0x3fff, 2),
            (0x4000, 3),
            (u64::MAX, 10),
        ];
        for &(v, len) in pins {
            let mut e = Enc::new();
            e.varint(v);
            let bytes = e.into_bytes();
            assert_eq!(bytes.len(), len, "encoded width of {v:#x}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.varint().unwrap(), v);
            assert!(d.is_done());
        }
    }

    #[test]
    fn varint_overflow_and_runon_rejected() {
        // Ten continuation bytes: an eleventh byte would be required.
        let mut d = Dec::new(&[0x80; 10]);
        assert!(matches!(d.varint(), Err(WireError::Malformed(_))));
        // Tenth byte carries more than the single bit a u64 has left.
        let mut d = Dec::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
        assert!(matches!(d.varint(), Err(WireError::Malformed(_))));
        // Truncated mid-value.
        let mut d = Dec::new(&[0x80, 0x80]);
        assert_eq!(d.varint(), Err(WireError::Truncated));
    }

    #[test]
    fn zigzag_pins() {
        for (v, z) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!(zigzag(v), z);
            assert_eq!(unzigzag(z), v);
        }
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
    }

    /// Random values across the full magnitude range round-trip through
    /// varint/svarint, including packed back-to-back in one buffer.
    #[test]
    fn varint_property_roundtrip() {
        gcl_rng::cases(0x7a5e_11a9, 300, |rng| {
            let n = rng.usize_below(20) + 1;
            let mut vals = Vec::with_capacity(n);
            let mut e = Enc::new();
            for _ in 0..n {
                // Bias toward small magnitudes with the occasional full
                // 64-bit value so every byte-width gets exercised.
                let shift = rng.u32_below(64);
                let u = rng.next_u64() >> shift;
                let s = unzigzag(rng.next_u64() >> shift);
                e.varint(u);
                e.svarint(s);
                vals.push((u, s));
            }
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            for (u, s) in vals {
                assert_eq!(d.varint().unwrap(), u);
                assert_eq!(d.svarint().unwrap(), s);
            }
            assert!(d.is_done());
        });
    }

    #[test]
    fn fnv_fold_is_deterministic_and_order_sensitive() {
        let a = fnv_fold(fnv_fold(FNV_OFFSET, 1), 2);
        let b = fnv_fold(fnv_fold(FNV_OFFSET, 1), 2);
        let c = fnv_fold(fnv_fold(FNV_OFFSET, 2), 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, FNV_OFFSET);
    }

    /// Each `Wire` impl writes what the `Enc` method it stands for writes.
    #[test]
    fn wire_impls_write_what_the_enc_methods_write() {
        let bytes = |f: &dyn Fn(&mut Enc)| {
            let mut e = Enc::new();
            f(&mut e);
            e.into_bytes()
        };
        let some: Option<u32> = Some(7);
        assert_eq!(
            bytes(&|e| some.put(e)),
            bytes(&|e| e.opt(&some, |e, v| e.u32(*v)))
        );
        let v = vec![1u64, 2, 3];
        assert_eq!(
            bytes(&|e| v.put(e)),
            bytes(&|e| e.seq(&v, |e, x| e.u64(*x)))
        );
        let q: VecDeque<u64> = v.clone().into();
        assert_eq!(bytes(&|e| q.put(e)), bytes(&|e| v.put(e)));
        let name = String::from("k");
        assert_eq!(bytes(&|e| name.put(e)), bytes(&|e| e.str("k")));
        assert_eq!(
            bytes(&|e| [1u16, 2].put(e)),
            bytes(&|e| (1u16, 2u16).put(e))
        );
        let map = BTreeMap::from([(2u32, true), (1, false)]);
        let pairs = vec![(1u32, false), (2, true)];
        assert_eq!(bytes(&|e| map.put(e)), bytes(&|e| pairs.put(e)));
        let hashed: HashMap<u32, bool> = map.clone().into_iter().collect();
        assert_eq!(bytes(&|e| put_sorted(&hashed, e)), bytes(&|e| map.put(e)));
        let b = bytes(&|e| map.put(e));
        assert_eq!(Wire::get(&mut Dec::new(&b)), Ok(map));
        assert_eq!(get_map(&mut Dec::new(&b), "dup"), Ok(hashed));
    }

    #[test]
    fn get_map_rejects_a_repeated_key() {
        let b = {
            let mut e = Enc::new();
            vec![(1u32, 5u8), (1, 6)].put(&mut e);
            e.into_bytes()
        };
        let got: Result<HashMap<u32, u8>, _> = get_map(&mut Dec::new(&b), "duplicate key");
        assert_eq!(got, Err(WireError::Malformed("duplicate key")));
    }

    #[test]
    fn absurd_seq_len_rejected() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.seq(|d| d.u8()).is_err());
    }
}
