//! Packed validity bitmap backed by a shared, windowed buffer.
//!
//! Each column may carry a [`Bitmap`] marking which entries are valid
//! (bit set) versus null (bit clear). A column without a bitmap has no
//! nulls. One bit per value, LSB-first within each byte, matching the
//! Arrow convention so the representation is familiar to readers.
//!
//! The backing bytes live in an `Arc`, and a bitmap is an `(offset, len)`
//! bit window over them: [`Bitmap::slice`] is an O(1) pointer bump that
//! shares the buffer with the parent, which is what makes partitioning a
//! [`crate::DataFrame`] copy-free. Mutation (`push`/`set`/`extend_from`)
//! is copy-on-write — it first re-packs the window into a fresh owned
//! buffer when the current one is shared or windowed, so builders that
//! own their bitmap pay nothing.

use std::sync::Arc;

use crate::heap::HeapSize;

/// A packed bitset tracking value validity, cheaply sliceable.
#[derive(Debug, Clone, Default)]
pub struct Bitmap {
    bytes: Arc<Vec<u8>>,
    /// Bit offset of the window start within `bytes`.
    offset: usize,
    /// Window length in bits.
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let fill = if value { 0xFF } else { 0x00 };
        let mut bytes = vec![fill; len.div_ceil(8)];
        // Keep the unused tail clear so whole-byte scans of freshly built
        // bitmaps never see garbage.
        let tail = len % 8;
        if tail != 0 {
            if let Some(last) = bytes.last_mut() {
                *last &= (1u8 << tail) - 1;
            }
        }
        Bitmap { bytes: Arc::new(bytes), offset: 0, len }
    }

    /// Build from an iterator of booleans (also available through the
    /// `FromIterator` impl below; the inherent method reads better at
    /// call sites that already have a `Bitmap` in scope).
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bytes = Vec::new();
        let mut len = 0usize;
        for b in iter {
            if len.is_multiple_of(8) {
                bytes.push(0);
            }
            if b {
                bytes[len / 8] |= 1 << (len % 8);
            }
            len += 1;
        }
        Bitmap { bytes: Arc::new(bytes), offset: 0, len }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether two bitmaps share one backing buffer (zero-copy views of
    /// the same allocation).
    pub fn shares_buffer(&self, other: &Bitmap) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Identity triple for fingerprinting: backing-buffer address plus the
    /// bit window. Two bitmaps with equal triples are the same view of the
    /// same allocation.
    pub(crate) fn identity_parts(&self) -> (u64, u64, u64) {
        (
            Arc::as_ptr(&self.bytes) as *const u8 as u64,
            self.offset as u64,
            self.len as u64,
        )
    }

    /// Re-pack the window into a fresh, uniquely owned, offset-0 buffer
    /// unless it already is one. All mutators funnel through here, so a
    /// builder that owns its bitmap stays on the in-place fast path while
    /// mutation of a shared view copies first (copy-on-write).
    fn make_unique(&mut self) {
        if self.offset == 0 && Arc::get_mut(&mut self.bytes).is_some() {
            return;
        }
        let repacked = Bitmap::from_iter(self.iter());
        self.bytes = repacked.bytes;
        self.offset = 0;
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
        self.make_unique();
        let len = self.len;
        let bytes = Arc::get_mut(&mut self.bytes).expect("unique after make_unique");
        if len / 8 >= bytes.len() {
            bytes.push(0);
        }
        let slot = &mut bytes[len / 8];
        let mask = 1u8 << (len % 8);
        // Clear first: the byte may hold stale bits from a longer parent
        // buffer this window was truncated from.
        *slot &= !mask;
        if value {
            *slot |= mask;
        }
        self.len += 1;
    }

    /// Read bit `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds for length {}", self.len);
        let j = self.offset + i;
        (self.bytes[j / 8] >> (j % 8)) & 1 == 1
    }

    /// Set bit `i` to `value`. Panics if out of bounds.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds for length {}", self.len);
        self.make_unique();
        let bytes = Arc::get_mut(&mut self.bytes).expect("unique after make_unique");
        if value {
            bytes[i / 8] |= 1 << (i % 8);
        } else {
            bytes[i / 8] &= !(1 << (i % 8));
        }
    }

    /// The byte at buffer index `byte`, with any bits outside the window
    /// masked to zero.
    #[inline]
    fn masked_byte(&self, byte: usize) -> u8 {
        let mut b = self.bytes[byte];
        let start = self.offset;
        let end = self.offset + self.len;
        if byte == start / 8 {
            b &= 0xFFu8 << (start % 8);
        }
        if byte == (end - 1) / 8 && !end.is_multiple_of(8) {
            b &= (1u8 << (end % 8)) - 1;
        }
        b
    }

    /// Number of set (valid) bits. Walks whole bytes (u64 gulps over the
    /// interior) rather than testing bit by bit, masking only the two
    /// window-edge bytes.
    pub fn count_set(&self) -> usize {
        if self.len == 0 {
            return 0;
        }
        let first = self.offset / 8;
        let last = (self.offset + self.len - 1) / 8;
        if first == last {
            return self.masked_byte(first).count_ones() as usize;
        }
        let mut total =
            self.masked_byte(first).count_ones() as usize + self.masked_byte(last).count_ones() as usize;
        let interior = &self.bytes[first + 1..last];
        let mut chunks = interior.chunks_exact(8);
        for w in &mut chunks {
            total += u64::from_le_bytes(w.try_into().expect("8-byte chunk")).count_ones() as usize;
        }
        total += chunks
            .remainder()
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum::<usize>();
        total
    }

    /// Number of clear (null) bits.
    pub fn count_unset(&self) -> usize {
        self.len - self.count_set()
    }

    /// Whether every bit is set (no nulls). Short-circuits on the first
    /// byte with a clear window bit — all-valid columns (the common
    /// case) cost one streaming equality scan, and columns with an early
    /// null answer in O(1) instead of a full popcount. Callers branch on
    /// this to hand the vector kernels whole contiguous slices.
    pub fn all_set(&self) -> bool {
        if self.len == 0 {
            return true;
        }
        let first = self.offset / 8;
        let last = (self.offset + self.len - 1) / 8;
        if first == last {
            return self.masked_byte(first).count_ones() as usize == self.len;
        }
        if self.masked_byte(first).count_ones() as usize != 8 - self.offset % 8 {
            return false;
        }
        if self.masked_byte(last).count_ones() as usize != (self.offset + self.len - 1) % 8 + 1 {
            return false;
        }
        let interior = &self.bytes[first + 1..last];
        let mut chunks = interior.chunks_exact(8);
        chunks.all(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")) == u64::MAX)
            && chunks.remainder().iter().all(|&b| b == 0xFF)
    }

    /// Iterate over the bits of the window.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        let (bytes, offset) = (&self.bytes[..], self.offset);
        (offset..offset + self.len).map(move |j| (bytes[j / 8] >> (j % 8)) & 1 == 1)
    }

    /// Bits `[64 * w, 64 * w + 64)` of the window as one little-endian
    /// word (bit `i` of the window is bit `i % 64` of word `i / 64`), with
    /// everything past the window's end zeroed. Two loads and a shift
    /// whatever the window's bit offset, which is what lets the walkers
    /// below treat sliced, non-byte-aligned windows like owned ones.
    #[inline]
    fn word(&self, w: usize) -> u64 {
        let start = self.offset + w * 64;
        let tail = self.bytes.get(start / 8..).unwrap_or(&[]);
        let lo = tail.first_chunk::<8>().copied().unwrap_or_else(|| {
            // Fewer than eight bytes left in the buffer: zero-pad.
            let mut padded = [0u8; 8];
            padded.iter_mut().zip(tail).for_each(|(dst, src)| *dst = *src);
            padded
        });
        let shift = start % 8;
        let mut word = u64::from_le_bytes(lo) >> shift;
        if shift != 0 {
            word |= u64::from(tail.get(8).copied().unwrap_or(0)) << (64 - shift);
        }
        word & full_word(self.len, w)
    }

    /// Call `f` with the index of every set bit of each word `word_of`
    /// yields for this window, in ascending order. Zero words cost one
    /// compare; set bits are found by trailing-zero scans.
    #[inline]
    fn for_each_bit(&self, word_of: impl Fn(usize) -> u64, mut f: impl FnMut(usize)) {
        for w in 0..self.len.div_ceil(64) {
            let mut bits = word_of(w);
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Call `f` with the window-relative index of every set bit. Walks
    /// 64-bit words, so sparse validity costs ~n/64 loads instead of n
    /// bit tests.
    pub fn for_each_set(&self, f: impl FnMut(usize)) {
        self.for_each_bit(|w| self.word(w), f);
    }

    /// Call `f` with the window-relative index of every clear bit — the
    /// null rows of a validity window, in O(n/64 + nulls).
    pub fn for_each_unset(&self, f: impl FnMut(usize)) {
        self.for_each_bit(|w| !self.word(w) & full_word(self.len, w), f);
    }

    /// Call `f` with every index set in both equal-length windows
    /// (`self & other`), without materialising the intersection.
    pub fn for_each_set_in_both(&self, other: &Bitmap, f: impl FnMut(usize)) {
        assert_eq!(self.len, other.len, "bitmap length mismatch in for_each_set_in_both()");
        self.for_each_bit(|w| self.word(w) & other.word(w), f);
    }

    /// Number of positions clear in both equal-length windows: over two
    /// validity windows, the rows where both columns are null. One AND
    /// and one popcount per 64 rows, nothing materialised.
    pub fn count_unset_in_both(&self, other: &Bitmap) -> usize {
        assert_eq!(self.len, other.len, "bitmap length mismatch in count_unset_in_both()");
        (0..self.len.div_ceil(64))
            .map(|w| (!(self.word(w) | other.word(w)) & full_word(self.len, w)).count_ones() as usize)
            .sum()
    }

    /// An O(1) zero-copy view of `len` bits starting at `start`; shares
    /// the backing buffer with `self`.
    pub fn slice(&self, start: usize, len: usize) -> Bitmap {
        assert!(start + len <= self.len, "slice out of bounds");
        Bitmap {
            bytes: Arc::clone(&self.bytes),
            offset: self.offset + start,
            len,
        }
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch in and()");
        if self.offset.is_multiple_of(8) && other.offset.is_multiple_of(8) {
            let a = &self.bytes[self.offset / 8..];
            let b = &other.bytes[other.offset / 8..];
            let nbytes = self.len.div_ceil(8);
            let bytes: Vec<u8> = (0..nbytes).map(|i| a[i] & b[i]).collect();
            let mut out = Bitmap { bytes: Arc::new(bytes), offset: 0, len: self.len };
            out.mask_tail();
            return out;
        }
        Bitmap::from_iter(self.iter().zip(other.iter()).map(|(a, b)| a && b))
    }

    /// Make the buffer uniquely owned and exactly as long as the window,
    /// with the unused bits of its last byte clear (the window may be a
    /// truncation of a longer buffer): the state bulk appends start from.
    fn owned_bytes(&mut self) -> &mut Vec<u8> {
        self.make_unique();
        let len = self.len;
        let bytes = Arc::make_mut(&mut self.bytes);
        bytes.truncate(len.div_ceil(8));
        if let Some(last) = bytes.last_mut().filter(|_| !len.is_multiple_of(8)) {
            *last &= (1u8 << (len % 8)) - 1;
        }
        bytes
    }

    /// Append `n` bits of `value`, whole bytes at a time.
    pub fn extend_filled(&mut self, n: usize, value: bool) {
        let (used, len) = (self.len % 8, self.len + n);
        let bytes = self.owned_bytes();
        if let Some(last) = bytes.last_mut().filter(|_| value && used != 0) {
            *last |= 0xFFu8 << used;
        }
        bytes.resize(len.div_ceil(8), if value { 0xFF } else { 0x00 });
        self.len = len;
        self.mask_tail();
    }

    /// Append all bits of `other`, a 64-bit word at a time.
    pub fn extend_from(&mut self, other: &Bitmap) {
        // A word is a multiple of eight bits, so every word lands at the
        // same bit offset within a byte as the first.
        let used = self.len % 8;
        let bytes = self.owned_bytes();
        for w in 0..other.len.div_ceil(64) {
            let word = other.word(w);
            let nbits = (other.len - w * 64).min(64);
            // The bits that complete the last byte, then the rest as new
            // bytes. `word` is zero past `nbits`, so the tail stays clear.
            let (rest, rest_bits) = match bytes.last_mut().filter(|_| used != 0) {
                Some(last) => {
                    *last |= (word << used) as u8;
                    (word >> (8 - used), nbits.saturating_sub(8 - used))
                }
                None => (word, nbits),
            };
            bytes.extend(rest.to_le_bytes().iter().take(rest_bits.div_ceil(8)));
        }
        self.len += other.len;
    }

    /// Clear the unused bits of the last byte so whole-byte scans stay
    /// well-defined after bulk fills. Only meaningful for owned,
    /// offset-0 buffers.
    fn mask_tail(&mut self) {
        let tail = self.len % 8;
        if tail != 0 {
            if let Some(last) = Arc::get_mut(&mut self.bytes).and_then(|b| b.last_mut()) {
                *last &= (1u8 << tail) - 1;
            }
        }
    }
}

/// A set of rows of one window, named by a validity window instead of
/// materialised. The rows where `x` is non-null are `x`'s set validity
/// bits and the rows where it is null are the clear ones, so a kernel
/// that aggregates "column `c` over the rows where `x` is null" walks two
/// bitmaps and copies nothing. Built by [`crate::Column::valid_rows`] and
/// [`crate::Column::null_rows`].
#[derive(Debug, Clone, Copy)]
pub enum Selection<'a> {
    /// Every row.
    All,
    /// No row.
    Empty,
    /// The rows whose bit is set.
    Set(&'a Bitmap),
    /// The rows whose bit is clear.
    Unset(&'a Bitmap),
}

impl Selection<'_> {
    /// Number of selected rows in a window of `len` rows.
    pub fn count(&self, len: usize) -> usize {
        match self {
            Selection::All => len,
            Selection::Empty => 0,
            Selection::Set(mask) => mask.count_set(),
            Selection::Unset(mask) => mask.count_unset(),
        }
    }

    /// Call `f`, in row order, with every selected row of a `len`-row
    /// window that is also set in `validity` (every selected row when
    /// `None`). Costs O(len/64) word operations plus one call per visited
    /// row; an [`Selection::Unset`] selection tests `validity` per
    /// selected row instead, which is O(nulls).
    pub fn for_each(&self, len: usize, validity: Option<&Bitmap>, mut f: impl FnMut(usize)) {
        match (*self, validity) {
            (Selection::Empty, _) => {}
            (Selection::All, None) => (0..len).for_each(f),
            (Selection::All, Some(only)) | (Selection::Set(only), None) => only.for_each_set(f),
            (Selection::Set(mask), Some(valid)) => mask.for_each_set_in_both(valid, f),
            (Selection::Unset(mask), None) => mask.for_each_unset(f),
            (Selection::Unset(mask), Some(valid)) => mask.for_each_unset(|i| {
                if valid.get(i) {
                    f(i);
                }
            }),
        }
    }
}

/// Word `w` of an all-set window of `len` bits: all ones, except that the
/// last word keeps only the bits inside the window.
#[inline]
fn full_word(len: usize, w: usize) -> u64 {
    match len.saturating_sub(w * 64) {
        n if n >= 64 => u64::MAX,
        n => (1u64 << n) - 1,
    }
}

/// Equality is logical — two bitmaps are equal when their windows hold
/// the same bits, regardless of buffer sharing or window offset.
impl PartialEq for Bitmap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Bitmap {}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

/// Its buffer when nothing else holds it: a window of a column's bitmap
/// shares the column's, which the column is charged for.
impl HeapSize for Bitmap {
    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitmap() {
        let bm = Bitmap::new();
        assert_eq!(bm.len(), 0);
        assert!(bm.is_empty());
        assert_eq!(bm.count_set(), 0);
        assert!(bm.all_set());
    }

    #[test]
    fn push_and_get() {
        let mut bm = Bitmap::new();
        for i in 0..20 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 20);
        for i in 0..20 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        assert_eq!(bm.count_set(), 7);
        assert_eq!(bm.count_unset(), 13);
    }

    #[test]
    fn filled_true_and_false() {
        let t = Bitmap::filled(13, true);
        assert_eq!(t.count_set(), 13);
        assert!(t.all_set());
        let f = Bitmap::filled(13, false);
        assert_eq!(f.count_set(), 0);
        assert!(!f.all_set());
    }

    #[test]
    fn set_flips_bits() {
        let mut bm = Bitmap::filled(10, false);
        bm.set(3, true);
        bm.set(9, true);
        assert!(bm.get(3));
        assert!(bm.get(9));
        assert_eq!(bm.count_set(), 2);
        bm.set(3, false);
        assert!(!bm.get(3));
        assert_eq!(bm.count_set(), 1);
    }

    #[test]
    fn slice_preserves_bits() {
        let bm = Bitmap::from_iter((0..30).map(|i| i % 2 == 0));
        let s = bm.slice(5, 10);
        assert_eq!(s.len(), 10);
        for i in 0..10 {
            assert_eq!(s.get(i), (i + 5) % 2 == 0);
        }
    }

    #[test]
    fn slice_is_zero_copy_and_composes() {
        let bm = Bitmap::from_iter((0..100).map(|i| i % 7 == 0));
        let s = bm.slice(13, 60);
        assert!(s.shares_buffer(&bm));
        let s2 = s.slice(10, 20);
        assert!(s2.shares_buffer(&bm));
        for i in 0..20 {
            assert_eq!(s2.get(i), (i + 23) % 7 == 0);
        }
        assert_eq!(s2.count_set(), (23..43).filter(|i| i % 7 == 0).count());
    }

    #[test]
    fn count_set_on_unaligned_windows() {
        let bits: Vec<bool> = (0..257).map(|i| i % 3 == 0).collect();
        let bm = Bitmap::from_iter(bits.iter().copied());
        for (start, len) in [(0, 257), (1, 250), (7, 9), (8, 64), (13, 0), (250, 7), (63, 65)] {
            let expected = bits[start..start + len].iter().filter(|b| **b).count();
            assert_eq!(bm.slice(start, len).count_set(), expected, "window ({start},{len})");
        }
    }

    #[test]
    fn all_set_on_unaligned_windows() {
        // All-true buffer: every window must report all-set, whatever
        // the edge-byte masking looks like.
        let bm = Bitmap::filled(257, true);
        for (start, len) in [(0, 257), (1, 250), (7, 9), (8, 64), (13, 0), (250, 7), (63, 65), (3, 4)] {
            assert!(bm.slice(start, len).all_set(), "window ({start},{len})");
        }
        // A single clear bit must be seen from every window covering it
        // (head byte, interior word, tail byte) and from no other.
        for hole in [0usize, 5, 64, 130, 256] {
            let mut one_null = Bitmap::filled(257, true);
            one_null.set(hole, false);
            assert!(!one_null.all_set());
            for (start, len) in [(0, 257), (1, 250), (7, 9), (8, 64), (250, 7), (63, 65)] {
                let covers = start <= hole && hole < start + len;
                assert_eq!(one_null.slice(start, len).all_set(), !covers, "hole {hole} window ({start},{len})");
            }
        }
    }

    #[test]
    fn for_each_set_matches_iter() {
        let bits: Vec<bool> = (0..133).map(|i| i % 5 == 0 || i % 11 == 3).collect();
        let bm = Bitmap::from_iter(bits.iter().copied());
        let view = bm.slice(9, 101);
        let mut seen = Vec::new();
        view.for_each_set(|i| seen.push(i));
        let expected: Vec<usize> = (0..101).filter(|&i| bits[i + 9]).collect();
        assert_eq!(seen, expected);
    }

    /// Windows that start and end off byte and word boundaries, are
    /// shorter than a word, span several, and touch the buffer's end.
    const WINDOWS: [(usize, usize); 10] =
        [(0, 257), (1, 250), (7, 9), (8, 64), (13, 0), (250, 7), (63, 65), (3, 4), (64, 128), (129, 128)];

    #[test]
    fn for_each_unset_on_sliced_windows() {
        let bits: Vec<bool> = (0..257).map(|i| i % 5 == 0 || i % 11 == 3).collect();
        let bm = Bitmap::from_iter(bits.iter().copied());
        for (start, len) in WINDOWS {
            let view = bm.slice(start, len);
            let mut seen = Vec::new();
            view.for_each_unset(|i| seen.push(i));
            let expected: Vec<usize> = (0..len).filter(|&i| !bits[start + i]).collect();
            assert_eq!(seen, expected, "window ({start},{len})");
            assert_eq!(seen.len(), view.count_unset());
            // A slice of a slice composes the offsets.
            if len > 10 {
                let mut inner = Vec::new();
                view.slice(5, len - 10).for_each_unset(|i| inner.push(i));
                let expected: Vec<usize> =
                    (0..len - 10).filter(|&i| !bits[start + 5 + i]).collect();
                assert_eq!(inner, expected, "inner window of ({start},{len})");
            }
        }
        // Bits past the window never leak in, even when the buffer holds
        // clear bits right after it.
        let mut none = Vec::new();
        Bitmap::filled(70, true).slice(0, 65).for_each_unset(|i| none.push(i));
        assert!(none.is_empty());
        let mut all = Vec::new();
        Bitmap::filled(70, false).slice(3, 65).for_each_unset(|i| all.push(i));
        assert_eq!(all, (0..65).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_set_in_both_matches_and() {
        let a_bits: Vec<bool> = (0..300).map(|i| i % 3 != 0).collect();
        let b_bits: Vec<bool> = (0..300).map(|i| i % 7 != 2).collect();
        let a = Bitmap::from_iter(a_bits.iter().copied());
        let b = Bitmap::from_iter(b_bits.iter().copied());
        // The two windows sit at different bit offsets of their buffers.
        for (start, len) in WINDOWS {
            let (va, vb) = (a.slice(start, len), b.slice(start + 19, len));
            let mut seen = Vec::new();
            va.for_each_set_in_both(&vb, |i| seen.push(i));
            let expected: Vec<usize> =
                (0..len).filter(|&i| a_bits[start + i] && b_bits[start + 19 + i]).collect();
            assert_eq!(seen, expected, "window ({start},{len})");
            let both_clear =
                (0..len).filter(|&i| !a_bits[start + i] && !b_bits[start + 19 + i]).count();
            assert_eq!(va.count_unset_in_both(&vb), both_clear, "window ({start},{len})");
        }
    }

    #[test]
    fn selection_visits_selected_valid_rows() {
        let mask_bits: Vec<bool> = (0..150).map(|i| i % 4 != 1).collect();
        let valid_bits: Vec<bool> = (0..150).map(|i| i % 6 != 0).collect();
        let mask = Bitmap::from_iter(mask_bits.iter().copied()).slice(5, 140);
        let valid = Bitmap::from_iter(valid_bits.iter().copied()).slice(5, 140);
        let run = |sel: Selection<'_>, validity: Option<&Bitmap>| {
            let mut seen = Vec::new();
            sel.for_each(140, validity, |i| seen.push(i));
            seen
        };
        let rows = |pick: &dyn Fn(usize) -> bool| (0..140).filter(|&i| pick(i + 5)).collect::<Vec<_>>();
        assert_eq!(run(Selection::All, None), (0..140).collect::<Vec<_>>());
        assert_eq!(run(Selection::All, Some(&valid)), rows(&|i| valid_bits[i]));
        assert_eq!(run(Selection::Empty, Some(&valid)), Vec::<usize>::new());
        assert_eq!(run(Selection::Set(&mask), None), rows(&|i| mask_bits[i]));
        assert_eq!(run(Selection::Set(&mask), Some(&valid)), rows(&|i| mask_bits[i] && valid_bits[i]));
        assert_eq!(run(Selection::Unset(&mask), None), rows(&|i| !mask_bits[i]));
        assert_eq!(run(Selection::Unset(&mask), Some(&valid)), rows(&|i| !mask_bits[i] && valid_bits[i]));
        assert_eq!(Selection::All.count(140), 140);
        assert_eq!(Selection::Empty.count(140), 0);
        assert_eq!(Selection::Set(&mask).count(140), mask.count_set());
        assert_eq!(Selection::Unset(&mask).count(140), mask.count_unset());
    }

    #[test]
    fn mutating_a_view_copies_on_write() {
        let bm = Bitmap::from_iter((0..16).map(|i| i % 2 == 0));
        let mut view = bm.slice(4, 8);
        view.push(true);
        assert!(!view.shares_buffer(&bm));
        assert_eq!(view.len(), 9);
        assert!(view.get(8));
        for i in 0..8 {
            assert_eq!(view.get(i), (i + 4) % 2 == 0);
        }
        // Parent untouched.
        assert_eq!(bm.len(), 16);
        assert_eq!(bm.count_set(), 8);

        let mut view2 = bm.slice(0, 8);
        view2.set(1, true);
        assert!(view2.get(1));
        assert!(!bm.get(1));
    }

    #[test]
    fn and_combines() {
        let a = Bitmap::from_iter([true, true, false, false]);
        let b = Bitmap::from_iter([true, false, true, false]);
        let c = a.and(&b);
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![true, false, false, false]);
    }

    #[test]
    fn and_on_unaligned_views() {
        let a = Bitmap::from_iter((0..40).map(|i| i % 2 == 0)).slice(3, 20);
        let b = Bitmap::from_iter((0..40).map(|i| i % 3 == 0)).slice(5, 20);
        let c = a.and(&b);
        for i in 0..20 {
            assert_eq!(c.get(i), (i + 3) % 2 == 0 && (i + 5) % 3 == 0, "bit {i}");
        }
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Bitmap::from_iter([true, false]);
        let b = Bitmap::from_iter([false, true, true]);
        a.extend_from(&b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![true, false, false, true, true]
        );
    }

    #[test]
    fn bulk_appends_match_bit_by_bit() {
        // Every destination bit offset x every source window offset and
        // length around the byte and word edges, on a destination that is
        // a truncation of a longer all-ones buffer (stale bits past its
        // end must not leak into the result).
        let bit = |i: usize| i % 3 == 1 || i % 7 == 2;
        let source = Bitmap::from_iter((0..200).map(bit));
        for dst_len in 0..18 {
            for (start, len) in [(0, 0), (0, 1), (3, 7), (5, 64), (8, 65), (1, 130), (62, 138)] {
                let mut want: Vec<bool> = vec![true; dst_len];
                want.extend((start..start + len).map(bit));
                let mut got = Bitmap::filled(40, true).slice(0, dst_len);
                got.extend_from(&source.slice(start, len));
                assert_eq!(got.iter().collect::<Vec<_>>(), want, "{dst_len} + [{start}; {len}]");
                assert_eq!(got, Bitmap::from_iter(want.iter().copied()), "tail bits stay clear");
                for value in [true, false] {
                    let mut filled = got.clone();
                    filled.extend_filled(len, value);
                    let mut want = want.clone();
                    want.extend(std::iter::repeat_n(value, len));
                    assert_eq!(filled.iter().collect::<Vec<_>>(), want, "fill {len} x {value}");
                    assert_eq!(filled.count_set(), want.iter().filter(|&&b| b).count());
                }
            }
        }
    }

    #[test]
    fn filled_equality_respects_tail_masking() {
        // filled(5, true) must equal a bit-by-bit construction.
        let a = Bitmap::filled(5, true);
        let b = Bitmap::from_iter([true; 5]);
        assert_eq!(a, b);
    }

    #[test]
    fn equality_is_logical_across_offsets() {
        let bm = Bitmap::from_iter((0..32).map(|i| i % 4 == 1));
        let view = bm.slice(4, 8);
        let rebuilt = Bitmap::from_iter((4..12).map(|i| i % 4 == 1));
        assert_eq!(view, rebuilt);
        assert!(!view.shares_buffer(&rebuilt));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::filled(3, true).get(3);
    }
}
