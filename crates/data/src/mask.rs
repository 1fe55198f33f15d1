//! Null masks: φ flags for typed register files, batched lane columns and
//! snapshot-buffer value columns.
//!
//! The typed kernel tier in `tilt-core` executes numeric expressions over
//! unboxed `f64`/`i64`/`bool` registers, and [`crate::SnapshotBuf`] stores
//! its values in unboxed columns; φ ("no value") then lives out of band in
//! a [`NullMask`] — one flag per slot — instead of inside a tagged
//! [`crate::Value`], so hot loops never touch the payload enum to test
//! for φ.
//!
//! Flags are bit-packed into `u64` words. The per-tick tier pays one
//! read-modify-write per flag store (measured in the noise next to the
//! dispatch loop around it), and in exchange everything that works on
//! *runs* gets what byte-backed flags cannot give: word-level φ algebra. A
//! mask over a run of ticks answers [`NullMask::none_null`] /
//! [`NullMask::all_null`] with one branch per 64 slots, combines operand
//! masks with [`NullMask::set_or`] a word at a time, fills span-shaped runs
//! with [`NullMask::set_range`], and finds the next live slot of a φ-heavy
//! column with [`NullMask::next_non_null`] — so φ handling over a batch
//! costs O(slots / 64) instead of one flag per slot per operation.
//!
//! A mask also grows: [`NullMask::push`] and [`NullMask::extend_from`]
//! append flags, which is how snapshot buffers keep theirs beside the
//! value column.

/// A null mask with one flag per slot (`true` = φ).
///
/// # Examples
///
/// ```
/// use tilt_data::NullMask;
/// let mut m = NullMask::new(3);
/// assert!(m.get(0), "slots start as φ");
/// m.set(0, false);
/// assert!(!m.get(0));
/// m.set(0, true);
/// assert!(m.get(0));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NullMask {
    words: Vec<u64>,
    len: usize,
}

/// Bits per storage word.
const W: usize = 64;

impl NullMask {
    /// A mask of `len` slots, all initially null.
    pub fn new(len: usize) -> NullMask {
        let mut m = NullMask { words: vec![0; len.div_ceil(W)], len };
        m.set_all();
        m
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask has zero slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn check(&self, i: usize) {
        assert!(i < self.len, "index out of bounds: the len is {} but the index is {i}", self.len);
    }

    /// Whether slot `i` is null.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.check(i);
        self.words[i / W] >> (i % W) & 1 != 0
    }

    /// Sets slot `i` to null (`true`) or non-null (`false`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, null: bool) {
        self.check(i);
        let bit = 1u64 << (i % W);
        let w = &mut self.words[i / W];
        if null {
            *w |= bit;
        } else {
            *w &= !bit;
        }
    }

    /// Resets every slot to null.
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.trim_tail();
    }

    /// Resets every slot to non-null.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Zeroes the unused high bits of the last word so whole-word scans
    /// never see ghost nulls past `len`.
    #[inline]
    fn trim_tail(&mut self) {
        let tail = self.len % W;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Whether the first `n` slots are all non-null — the batch fast path
    /// that lets a φ check over a run of lanes cost one branch per 64.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the mask length.
    #[inline]
    pub fn none_null(&self, n: usize) -> bool {
        assert!(n <= self.len, "index out of bounds: the len is {} but the index is {n}", self.len);
        let full = n / W;
        if self.words[..full].iter().any(|&w| w != 0) {
            return false;
        }
        let tail = n % W;
        tail == 0 || self.words[full] & ((1u64 << tail) - 1) == 0
    }

    /// Whether the first `n` slots are all null.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the mask length.
    #[inline]
    pub fn all_null(&self, n: usize) -> bool {
        assert!(n <= self.len, "index out of bounds: the len is {} but the index is {n}", self.len);
        let full = n / W;
        if self.words[..full].iter().any(|&w| w != !0) {
            return false;
        }
        let tail = n % W;
        tail == 0 || !self.words[full] & ((1u64 << tail) - 1) == 0
    }

    /// Sets slots `lo..hi` to `null` word-wise (span-shaped run fill).
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds the mask length or `lo > hi`.
    pub fn set_range(&mut self, lo: usize, hi: usize, null: bool) {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds (len {})", self.len);
        let mut i = lo;
        while i < hi {
            let w = i / W;
            let bit_lo = i % W;
            let bit_hi = if hi / W == w { hi % W } else { W };
            let span = if bit_hi - bit_lo == W {
                !0u64
            } else {
                ((1u64 << (bit_hi - bit_lo)) - 1) << bit_lo
            };
            if null {
                self.words[w] |= span;
            } else {
                self.words[w] &= !span;
            }
            i += bit_hi - bit_lo;
        }
    }

    /// Appends one slot.
    #[inline]
    pub fn push(&mut self, null: bool) {
        let bit = self.len % W;
        if bit == 0 {
            self.words.push(null as u64);
        } else if null {
            *self.words.last_mut().expect("a partial word exists") |= 1u64 << bit;
        }
        self.len += 1;
    }

    /// Appends `n ≤ 64` slots at once: the low `n` bits of `bits`, lowest
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds 64.
    #[inline]
    pub fn push_bits(&mut self, bits: u64, n: usize) {
        assert!(n <= W, "push_bits: {n} slots do not fit one word");
        if n == 0 {
            return;
        }
        let bits = if n == W { bits } else { bits & ((1u64 << n) - 1) };
        let off = self.len % W;
        if off == 0 {
            self.words.push(bits);
        } else {
            *self.words.last_mut().expect("a partial word exists") |= bits << off;
            if off + n > W {
                self.words.push(bits >> (W - off));
            }
        }
        self.len += n;
    }

    /// Slots `pos..pos + n` (`n ≤ 64`) as the low bits of one word.
    #[inline]
    fn bits_at(&self, pos: usize, n: usize) -> u64 {
        debug_assert!(n <= W && pos + n <= self.len);
        if n == 0 {
            return 0;
        }
        let (w, off) = (pos / W, pos % W);
        let mut bits = self.words[w] >> off;
        if off + n > W {
            bits |= self.words[w + 1] << (W - off);
        }
        if n == W {
            bits
        } else {
            bits & ((1u64 << n) - 1)
        }
    }

    /// Appends slots `lo..hi` of `src`, a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds `src`'s length or `lo > hi`.
    pub fn extend_from(&mut self, src: &NullMask, lo: usize, hi: usize) {
        assert!(lo <= hi && hi <= src.len, "range {lo}..{hi} out of bounds (len {})", src.len);
        self.words.reserve((hi - lo).div_ceil(W));
        let mut pos = lo;
        while pos < hi {
            let take = (hi - pos).min(W);
            self.push_bits(src.bits_at(pos, take), take);
            pos += take;
        }
    }

    /// Removes every slot, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Reserves room for `additional` more slots.
    pub fn reserve(&mut self, additional: usize) {
        self.words.reserve((self.len + additional).div_ceil(W).saturating_sub(self.words.len()));
    }

    /// The first non-null slot at or after `from`, if any — the φ-skipping
    /// scan: a run of 64 null slots costs one compare.
    #[inline]
    pub fn next_non_null(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut w = from / W;
        // Bits below `from` in the first word are not candidates.
        let mut word = !self.words[w] & (!0u64 << (from % W));
        loop {
            if word != 0 {
                let i = w * W + word.trailing_zeros() as usize;
                // Unused high bits of the last word read as non-null.
                return (i < self.len).then_some(i);
            }
            w += 1;
            if w == self.words.len() {
                return None;
            }
            word = !self.words[w];
        }
    }

    /// Iterates the non-null slots of `lo..hi` in order, a word at a time:
    /// 64 null slots cost one compare, each live slot one
    /// count-trailing-zeros.
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds the mask length or `lo > hi`.
    pub fn live(&self, lo: usize, hi: usize) -> Live<'_> {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds (len {})", self.len);
        let bits = if lo < hi { !self.words[lo / W] & (!0u64 << (lo % W)) } else { 0 };
        Live { words: &self.words, word: lo / W, bits, hi }
    }

    /// Number of null slots in `lo..hi`, by word popcount.
    ///
    /// # Panics
    ///
    /// Panics if `hi` exceeds the mask length or `lo > hi`.
    pub fn count_null(&self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds (len {})", self.len);
        let mut n = 0;
        let mut pos = lo;
        while pos < hi {
            let take = (hi - pos).min(W);
            n += self.bits_at(pos, take).count_ones() as usize;
            pos += take;
        }
        n
    }

    /// Overwrites the first `n` slots with `a[i] | b[i]` — the φ
    /// propagation rule of binary typed operations, one word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds any of the three masks.
    pub fn set_or(&mut self, a: &NullMask, b: &NullMask, n: usize) {
        assert!(n <= self.len && n <= a.len && n <= b.len, "set_or: {n} out of bounds");
        for w in 0..n.div_ceil(W) {
            self.words[w] = a.words[w] | b.words[w];
        }
    }

    /// Overwrites the first `n` slots with a copy of `src`'s first `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds either mask.
    pub fn copy_from(&mut self, src: &NullMask, n: usize) {
        assert!(n <= self.len && n <= src.len, "copy_from: {n} out of bounds");
        self.words[..n.div_ceil(W)].copy_from_slice(&src.words[..n.div_ceil(W)]);
    }

    /// Overwrites the first `n` slots with slots `lo..lo + n` of `src`, a
    /// word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds this mask or `lo + n` exceeds `src`.
    pub fn copy_range(&mut self, src: &NullMask, lo: usize, n: usize) {
        assert!(n <= self.len && lo + n <= src.len, "copy_range: {lo}+{n} out of bounds");
        let mut pos = 0;
        while pos < n {
            let take = (n - pos).min(W);
            let bits = src.bits_at(lo + pos, take);
            let w = &mut self.words[pos / W];
            *w = if take == W { bits } else { (*w & (!0u64 << take)) | bits };
            pos += take;
        }
    }

    /// Merges slots `lo..lo + n` of `src` into the first `n` slots
    /// (`self[i] |= src[lo + i]`), a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds this mask or `lo + n` exceeds `src`.
    pub fn or_range(&mut self, src: &NullMask, lo: usize, n: usize) {
        assert!(n <= self.len && lo + n <= src.len, "or_range: {lo}+{n} out of bounds");
        let mut pos = 0;
        while pos < n {
            let take = (n - pos).min(W);
            self.words[pos / W] |= src.bits_at(lo + pos, take);
            pos += take;
        }
    }

    /// Removes the first `n` slots, shifting the rest down.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the mask length.
    pub fn drain_front(&mut self, n: usize) {
        assert!(n <= self.len, "drain_front: {n} out of bounds (len {})", self.len);
        let len = self.len - n;
        // Word `w` is read at or ahead of where it is written.
        for w in 0..len.div_ceil(W) {
            self.words[w] = self.bits_at(n + w * W, (len - w * W).min(W));
        }
        self.words.truncate(len.div_ceil(W));
        self.len = len;
    }

    /// Storage word `w`: the flags of slots `64·w .. 64·w + 64`, lowest
    /// slot in the lowest bit.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of bounds.
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Overwrites storage word `w` (flags past the mask's length are
    /// dropped).
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of bounds.
    #[inline]
    pub fn set_word(&mut self, w: usize, bits: u64) {
        self.words[w] = bits;
        if w + 1 == self.words.len() {
            self.trim_tail();
        }
    }

    /// Merges `src`'s first `n` nulls into this mask (`self |= src`).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds either mask.
    pub fn or_with(&mut self, src: &NullMask, n: usize) {
        assert!(n <= self.len && n <= src.len, "or_with: {n} out of bounds");
        for w in 0..n.div_ceil(W) {
            self.words[w] |= src.words[w];
        }
    }
}

/// Iterator over the non-null slots of a range; see [`NullMask::live`].
#[derive(Clone, Debug)]
pub struct Live<'a> {
    words: &'a [u64],
    /// Index of the word `bits` was taken from.
    word: usize,
    /// Unvisited live slots of the current word, as set bits.
    bits: u64,
    hi: usize,
}

impl Iterator for Live<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            if self.word * W >= self.hi {
                return None;
            }
            self.bits = !self.words[self.word];
        }
        let i = self.word * W + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        // The last word may reach past `hi`.
        if i >= self.hi {
            self.bits = 0;
            self.word = self.hi.div_ceil(W);
            return None;
        }
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_null_and_toggles() {
        let mut m = NullMask::new(130);
        assert_eq!(m.len(), 130);
        assert!(!m.is_empty());
        assert!((0..130).all(|i| m.get(i)));
        m.set(0, false);
        m.set(63, false);
        m.set(64, false);
        m.set(129, false);
        assert!(!m.get(0) && !m.get(63) && !m.get(64) && !m.get(129));
        assert!(m.get(1) && m.get(65) && m.get(128));
        m.set(64, true);
        assert!(m.get(64));
        m.set_all();
        assert!((0..130).all(|i| m.get(i)));
    }

    #[test]
    fn empty_mask() {
        let m = NullMask::new(0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_bounds_get_panics() {
        let m = NullMask::new(4);
        let _ = m.get(4);
    }

    #[test]
    fn word_level_summaries_cross_boundaries() {
        for len in [63usize, 64, 65, 128, 130] {
            let mut m = NullMask::new(len);
            assert!(m.all_null(len), "len {len}");
            assert!(!m.none_null(len), "len {len}");
            m.clear_all();
            assert!(m.none_null(len), "len {len}");
            assert!(!m.all_null(len), "len {len}");
            // A single φ at the last slot must defeat none_null for any
            // prefix that covers it and no shorter prefix.
            m.set(len - 1, true);
            assert!(!m.none_null(len), "len {len}");
            assert!(m.none_null(len - 1), "len {len}");
        }
    }

    #[test]
    fn set_range_straddles_word_edges() {
        let mut m = NullMask::new(200);
        m.clear_all();
        m.set_range(60, 70, true);
        for i in 0..200 {
            assert_eq!(m.get(i), (60..70).contains(&i), "slot {i}");
        }
        m.set_range(0, 200, true);
        assert!(m.all_null(200));
        m.set_range(64, 128, false);
        assert!((64..128).all(|i| !m.get(i)));
        assert!(m.get(63) && m.get(128));
        m.set_range(5, 5, true); // empty range is a no-op
        assert!(!m.get(5) || m.get(5) == m.get(5));
    }

    #[test]
    fn set_or_and_copy() {
        let mut a = NullMask::new(100);
        let mut b = NullMask::new(100);
        a.clear_all();
        b.clear_all();
        a.set(3, true);
        a.set(64, true);
        b.set(65, true);
        let mut dst = NullMask::new(100);
        dst.set_or(&a, &b, 100);
        assert!(dst.get(3) && dst.get(64) && dst.get(65));
        assert!(!dst.get(4) && !dst.get(63) && !dst.get(66));

        let mut c = NullMask::new(100);
        c.copy_from(&dst, 100);
        assert_eq!(c, dst);
        let mut d = NullMask::new(100);
        d.clear_all();
        d.set(99, true);
        d.or_with(&a, 100);
        assert!(d.get(3) && d.get(64) && d.get(99) && !d.get(65));
    }

    /// The growth and scan API against a `Vec<bool>`, at lengths and
    /// offsets around the word edges.
    #[test]
    fn growing_masks_agree_with_a_bool_vector() {
        let pattern = |i: usize| i % 3 == 1 || (60..70).contains(&i) || i % 64 == 63;
        for len in [0usize, 1, 63, 64, 65, 127, 128, 130, 200] {
            let model: Vec<bool> = (0..len).map(pattern).collect();
            let mut m = NullMask::default();
            m.reserve(len);
            for &b in &model {
                m.push(b);
            }
            assert_eq!(m.len(), len);
            assert!((0..len).all(|i| m.get(i) == model[i]), "push, len {len}");

            for lo in [0usize, 1, 31, 63, 64, 65] {
                if lo > len {
                    continue;
                }
                let live: Vec<usize> = m.live(lo, len).collect();
                let expected: Vec<usize> = (lo..len).filter(|&i| !model[i]).collect();
                assert_eq!(live, expected, "live {lo}..{len}");
                assert_eq!(m.next_non_null(lo), expected.first().copied(), "len {len} from {lo}");
                assert_eq!(m.count_null(lo, len), len - lo - expected.len());

                // Appending a sub-range, overwriting a prefix with one,
                // merging one in, and dropping a prefix.
                let mut ext = NullMask::default();
                ext.push(true);
                ext.extend_from(&m, lo, len);
                assert!((lo..len).all(|i| ext.get(1 + i - lo) == model[i]), "extend_from {lo}");
                let mut over = NullMask::new(len.max(1));
                over.copy_range(&m, lo, len - lo);
                assert!((lo..len).all(|i| over.get(i - lo) == model[i]), "copy_range {lo}");
                assert!((len - lo..over.len()).all(|i| over.get(i)), "copy_range keeps the rest");
                let mut merged = NullMask::new(len.max(1));
                merged.clear_all();
                merged.set(0, true);
                merged.or_range(&m, lo, len - lo);
                assert!((lo..len).all(|i| merged.get(i - lo) == (model[i] || i == lo)));
                let mut drained = m.clone();
                drained.drain_front(lo);
                assert_eq!(drained.len(), len - lo);
                assert!((lo..len).all(|i| drained.get(i - lo) == model[i]), "drain_front {lo}");
                let mut rebuilt = NullMask::default();
                rebuilt.extend_from(&m, lo, len);
                assert_eq!(drained, rebuilt, "equal content, equal masks");
            }

            m.clear();
            assert!(m.is_empty() && m.next_non_null(0).is_none());
        }
        let mut bits = NullMask::default();
        bits.push_bits(0b101, 3);
        bits.push_bits(!0, 64);
        assert_eq!((bits.len(), bits.get(1), bits.get(3), bits.get(66)), (67, false, true, true));
        assert_eq!((bits.word(0), bits.word(1)), (!0 << 3 | 0b101, 0b111));
        bits.set_word(1, !0);
        assert_eq!(bits.word(1), 0b111, "flags past the length are dropped");
    }

    #[test]
    fn tail_bits_never_ghost() {
        // set_all on a non-word-multiple length must not set ghost bits
        // that would break none_null/all_null word scans.
        let mut m = NullMask::new(65);
        m.set_all();
        assert!(m.all_null(65));
        m.set_range(0, 65, false);
        assert!(m.none_null(65));
        m.set(64, true);
        assert!(!m.none_null(65));
        assert!(m.none_null(64));
    }
}
