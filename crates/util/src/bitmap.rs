//! Packed bitset with rank/select.
//!
//! The amnesia simulator marks every tuple as *active* or *forgotten* at the
//! granularity of a single record (paper §2.1). [`Bitmap`] is the backing
//! structure: a `Vec<u64>` of blocks with the operations policy code needs —
//! membership, population count, forward/backward scans for the next set
//! bit (the `area` policy grows holes in either direction), rank (ones
//! before a position) and select (position of the k-th one, used to pick a
//! uniformly random active tuple in O(blocks)).

use serde::{Deserialize, Serialize};

const BLOCK_BITS: usize = 64;

/// Bits per storage word, for word-at-a-time consumers.
///
/// The vectorized kernels in `amnesia-engine::batch` walk [`Bitmap::words`]
/// directly so that the active/forgotten check costs one load (and usually
/// one `trailing_zeros` chain) per 64 rows instead of a shift per row.
pub const WORD_BITS: usize = BLOCK_BITS;

/// `word` — the 64-bit block at word index `i` — restricted to absolute
/// bit positions `[lo, hi)`: bits below `lo` and at/above `hi` cleared;
/// zero when the word lies wholly outside the range.
///
/// This is the single home of the boundary-masking algebra; both
/// [`Bitmap::masked_word`] / [`masked_word`] and the word-at-a-time
/// kernels in `amnesia-engine::batch` (which also clip predicate masks,
/// not just stored words) call it, so range-clipping fixes land in one
/// place.
#[inline]
pub fn clip_word(word: u64, i: usize, lo: usize, hi: usize) -> u64 {
    let word_lo = i * BLOCK_BITS;
    let mut w = word;
    if lo > word_lo {
        let shift = lo - word_lo;
        if shift >= BLOCK_BITS {
            return 0;
        }
        w &= !0u64 << shift;
    }
    if hi < word_lo + BLOCK_BITS {
        if hi <= word_lo {
            return 0;
        }
        w &= (1u64 << (hi - word_lo)) - 1;
    }
    w
}

/// Word `i` of `words` restricted to absolute bit positions `[lo, hi)`;
/// indices past the slice come back zero. Slice form of [`clip_word`].
#[inline]
pub fn masked_word(words: &[u64], i: usize, lo: usize, hi: usize) -> u64 {
    clip_word(words.get(i).copied().unwrap_or(0), i, lo, hi)
}

/// Visit every set bit of `words` in absolute bit positions `[lo, hi)`,
/// ascending. Bits past the slice count as clear. One home for the
/// bit-range fan-out the RLE join kernels and codec visitors share.
#[inline]
pub fn for_each_set_bit_in(words: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize)) {
    if lo >= hi {
        return;
    }
    let first = lo / BLOCK_BITS;
    let last = (hi - 1) / BLOCK_BITS;
    for wi in first..=last {
        let mut w = masked_word(words, wi, lo, hi);
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            f(wi * BLOCK_BITS + bit);
        }
    }
}

/// The first set bit of `words` in `[lo, hi)`: one `trailing_zeros` on
/// the first non-zero word spanned. Bits past the slice count as clear.
#[inline]
pub fn first_set_bit_in(words: &[u64], lo: usize, hi: usize) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    (lo / BLOCK_BITS..=(hi - 1) / BLOCK_BITS).find_map(|wi| {
        let w = masked_word(words, wi, lo, hi);
        (w != 0).then(|| wi * BLOCK_BITS + w.trailing_zeros() as usize)
    })
}

/// Does `[lo, hi)` contain any set bit of `words`?
#[inline]
pub fn any_set_bit_in(words: &[u64], lo: usize, hi: usize) -> bool {
    first_set_bit_in(words, lo, hi).is_some()
}

/// The bits `[lo, hi)` of the one word they lie in, `lo < hi`
/// (absolute positions; word-relative mask).
#[inline]
fn one_word_mask(lo: usize, hi: usize) -> u64 {
    (!0u64 >> (BLOCK_BITS - (hi - lo))) << (lo % BLOCK_BITS)
}

/// Count the set bits of `words` in `[lo, hi)` — one popcount per word
/// spanned, O(words) not O(bits); a range inside one word is one mask
/// and one popcount.
#[inline]
pub fn count_set_bits_in(words: &[u64], lo: usize, hi: usize) -> usize {
    if lo >= hi {
        return 0;
    }
    let first = lo / BLOCK_BITS;
    let last = (hi - 1) / BLOCK_BITS;
    if first == last {
        let word = words.get(first).copied().unwrap_or(0);
        return (word & one_word_mask(lo, hi)).count_ones() as usize;
    }
    (first..=last)
        .map(|wi| masked_word(words, wi, lo, hi).count_ones() as usize)
        .sum()
}

/// A growable packed bitset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitmap {
    blocks: Vec<u64>,
    len: usize,
    ones: usize,
}

impl Bitmap {
    /// An empty bitmap of length 0.
    pub fn new() -> Self {
        Self {
            blocks: Vec::new(),
            len: 0,
            ones: 0,
        }
    }

    /// A bitmap of `len` bits, all set to `value`.
    pub fn with_len(len: usize, value: bool) -> Self {
        let nblocks = len.div_ceil(BLOCK_BITS);
        let mut blocks = vec![if value { !0u64 } else { 0u64 }; nblocks];
        if value && !len.is_multiple_of(BLOCK_BITS) {
            // Clear the bits past `len` in the last block.
            let last = nblocks - 1;
            blocks[last] = (1u64 << (len % BLOCK_BITS)) - 1;
        }
        Self {
            blocks,
            len,
            ones: if value { len } else { 0 },
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of clear bits.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        (self.blocks[i / BLOCK_BITS] >> (i % BLOCK_BITS)) & 1 == 1
    }

    /// Set bit `i` to `value`; returns the previous value.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) -> bool {
        assert!(i < self.len, "bit {i} out of range (len {})", self.len);
        let block = &mut self.blocks[i / BLOCK_BITS];
        let mask = 1u64 << (i % BLOCK_BITS);
        let old = *block & mask != 0;
        if value {
            *block |= mask;
        } else {
            *block &= !mask;
        }
        match (old, value) {
            (false, true) => self.ones += 1,
            (true, false) => self.ones -= 1,
            _ => {}
        }
        old
    }

    /// Append a bit.
    pub fn push(&mut self, value: bool) {
        let i = self.len;
        if i.is_multiple_of(BLOCK_BITS) {
            self.blocks.push(0);
        }
        self.len += 1;
        if value {
            self.blocks[i / BLOCK_BITS] |= 1u64 << (i % BLOCK_BITS);
            self.ones += 1;
        }
    }

    /// Extend with `n` copies of `value`, a word at a time.
    pub fn extend(&mut self, n: usize, value: bool) {
        let (lo, hi) = (self.len, self.len + n);
        self.blocks.resize(hi.div_ceil(BLOCK_BITS), 0);
        self.len = hi;
        if value && n > 0 {
            for i in lo / BLOCK_BITS..=(hi - 1) / BLOCK_BITS {
                self.blocks[i] |= clip_word(!0, i, lo, hi);
            }
            self.ones += n;
        }
    }

    /// Clear every bit in `[lo, hi)`, a word at a time; a range inside
    /// one word is one mask. Returns how many of them were set.
    #[inline]
    pub fn clear_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        if lo == hi {
            return 0;
        }
        let (first, last) = (lo / BLOCK_BITS, (hi - 1) / BLOCK_BITS);
        let mut cleared = 0;
        for i in first..=last {
            let mask = if first == last {
                one_word_mask(lo, hi)
            } else {
                clip_word(!0, i, lo, hi)
            };
            cleared += (self.blocks[i] & mask).count_ones() as usize;
            self.blocks[i] &= !mask;
        }
        self.ones -= cleared;
        cleared
    }

    /// Iterator over the positions of set bits, ascending.
    pub fn iter_ones(&self) -> Ones<'_> {
        Ones {
            bitmap: self,
            block_idx: 0,
            current: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// The packed 64-bit words backing the bitmap, low bit = low position.
    ///
    /// Invariant: bits at positions `>= len()` are always zero, so word
    /// consumers may popcount/scan whole words without masking the tail.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.blocks
    }

    /// Word `i` restricted to positions `[lo, hi)`: the block at index
    /// `i` with bits below `lo` and at/above `hi` cleared. Positions are
    /// absolute (not word-relative); words wholly outside the range come
    /// back zero. This is the boundary-masking primitive for kernels that
    /// process sub-ranges (zone-map blocks, parallel chunks); see the
    /// free function [`masked_word`] for the raw-slice form.
    #[inline]
    pub fn masked_word(&self, i: usize, lo: usize, hi: usize) -> u64 {
        masked_word(&self.blocks, i, lo, hi)
    }

    /// Iterator over set-bit positions within `[lo, hi)`, ascending.
    ///
    /// Word-masked: whole zero words are skipped with one comparison and
    /// set bits are found with `trailing_zeros`, so sparse regions cost
    /// ~1 instruction per 64 positions.
    pub fn iter_ones_in(&self, lo: usize, hi: usize) -> OnesInRange<'_> {
        let hi = hi.min(self.len);
        let lo = lo.min(hi);
        let block_idx = lo / BLOCK_BITS;
        OnesInRange {
            bitmap: self,
            hi,
            block_idx,
            current: self.masked_word(block_idx, lo, hi),
        }
    }

    /// Position of the first set bit at or after `from`, if any.
    pub fn next_one(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut bi = from / BLOCK_BITS;
        let mut cur = self.blocks[bi] & (!0u64 << (from % BLOCK_BITS));
        loop {
            if cur != 0 {
                let pos = bi * BLOCK_BITS + cur.trailing_zeros() as usize;
                return (pos < self.len).then_some(pos);
            }
            bi += 1;
            if bi >= self.blocks.len() {
                return None;
            }
            cur = self.blocks[bi];
        }
    }

    /// Position of the last set bit at or before `from`, if any.
    pub fn prev_one(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let from = from.min(self.len - 1);
        let mut bi = from / BLOCK_BITS;
        let shift = BLOCK_BITS - 1 - (from % BLOCK_BITS);
        let mut cur = self.blocks[bi] & (!0u64 >> shift);
        loop {
            if cur != 0 {
                let pos = bi * BLOCK_BITS + (BLOCK_BITS - 1 - cur.leading_zeros() as usize);
                return Some(pos);
            }
            if bi == 0 {
                return None;
            }
            bi -= 1;
            cur = self.blocks[bi];
        }
    }

    /// Number of set bits strictly before position `i` (i may equal `len`).
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank position {i} out of range");
        let full_blocks = i / BLOCK_BITS;
        let mut count: usize = self.blocks[..full_blocks]
            .iter()
            .map(|b| b.count_ones() as usize)
            .sum();
        if !i.is_multiple_of(BLOCK_BITS) {
            let mask = (1u64 << (i % BLOCK_BITS)) - 1;
            count += (self.blocks[full_blocks] & mask).count_ones() as usize;
        }
        count
    }

    /// Position of the `k`-th set bit (0-based), if it exists.
    pub fn select(&self, k: usize) -> Option<usize> {
        if k >= self.ones {
            return None;
        }
        let mut remaining = k;
        for (bi, &block) in self.blocks.iter().enumerate() {
            let pop = block.count_ones() as usize;
            if remaining < pop {
                // Find the `remaining`-th set bit inside `block`.
                let mut b = block;
                for _ in 0..remaining {
                    b &= b - 1; // clear lowest set bit
                }
                return Some(bi * BLOCK_BITS + b.trailing_zeros() as usize);
            }
            remaining -= pop;
        }
        unreachable!("ones counter disagrees with block contents")
    }

    /// Count set bits within `[lo, hi)`.
    pub fn count_ones_in(&self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.len, "range {lo}..{hi} out of bounds");
        count_set_bits_in(&self.blocks, lo, hi)
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<u64>() + std::mem::size_of::<Self>()
    }
}

impl Default for Bitmap {
    fn default() -> Self {
        Self::new()
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::new();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

/// Iterator over set-bit positions in a range. See [`Bitmap::iter_ones_in`].
pub struct OnesInRange<'a> {
    bitmap: &'a Bitmap,
    hi: usize,
    block_idx: usize,
    current: u64,
}

impl Iterator for OnesInRange<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.block_idx * BLOCK_BITS + bit);
            }
            self.block_idx += 1;
            let word_lo = self.block_idx * BLOCK_BITS;
            if word_lo >= self.hi {
                return None;
            }
            // Only the final word can need a high-side mask.
            self.current = self.bitmap.masked_word(self.block_idx, word_lo, self.hi);
        }
    }
}

/// Iterator over set-bit positions. See [`Bitmap::iter_ones`].
pub struct Ones<'a> {
    bitmap: &'a Bitmap,
    block_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let pos = self.block_idx * BLOCK_BITS + bit;
                return (pos < self.bitmap.len).then_some(pos);
            }
            self.block_idx += 1;
            if self.block_idx >= self.bitmap.blocks.len() {
                return None;
            }
            self.current = self.bitmap.blocks[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_range_helpers_match_naive() {
        let words = [0xDEAD_BEEF_0123_4567u64, 0xFFFF_0000_FFFF_0000, 0x1];
        let set = |i: usize| words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1);
        for (lo, hi) in [
            (0, 0),
            (0, 64),
            (3, 61),
            (60, 70),
            (64, 192),
            (80, 112),
            (150, 200),
        ] {
            let mut got = Vec::new();
            for_each_set_bit_in(&words, lo, hi, |i| got.push(i));
            let want: Vec<usize> = (lo..hi).filter(|&i| set(i)).collect();
            assert_eq!(got, want, "[{lo}, {hi})");
            assert_eq!(
                count_set_bits_in(&words, lo, hi),
                want.len(),
                "[{lo}, {hi})"
            );
            assert_eq!(
                any_set_bit_in(&words, lo, hi),
                !want.is_empty(),
                "[{lo}, {hi})"
            );
            assert_eq!(
                first_set_bit_in(&words, lo, hi),
                want.first().copied(),
                "[{lo}, {hi})"
            );
        }
        // Bits past the slice count as clear.
        assert_eq!(count_set_bits_in(&words, 191, 300), 0);
        assert!(!any_set_bit_in(&words, 193, 300));
    }

    #[test]
    fn with_len_all_true_has_exact_ones() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            let bm = Bitmap::with_len(len, true);
            assert_eq!(bm.count_ones(), len);
            assert_eq!(bm.len(), len);
            for i in 0..len {
                assert!(bm.get(i));
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bm = Bitmap::with_len(200, false);
        bm.set(0, true);
        bm.set(63, true);
        bm.set(64, true);
        bm.set(199, true);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(199));
        assert!(!bm.get(1) && !bm.get(100));
        assert_eq!(bm.count_ones(), 4);
        assert!(bm.set(0, false));
        assert_eq!(bm.count_ones(), 3);
        // Setting to the same value is idempotent.
        bm.set(63, true);
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn push_grows() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        assert_eq!(bm.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut bm = Bitmap::with_len(300, false);
        let expected = vec![0usize, 5, 63, 64, 65, 128, 299];
        for &i in &expected {
            bm.set(i, true);
        }
        let got: Vec<usize> = bm.iter_ones().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn next_prev_one() {
        let mut bm = Bitmap::with_len(256, false);
        for &i in &[10usize, 64, 200] {
            bm.set(i, true);
        }
        assert_eq!(bm.next_one(0), Some(10));
        assert_eq!(bm.next_one(10), Some(10));
        assert_eq!(bm.next_one(11), Some(64));
        assert_eq!(bm.next_one(201), None);
        assert_eq!(bm.prev_one(255), Some(200));
        assert_eq!(bm.prev_one(200), Some(200));
        assert_eq!(bm.prev_one(199), Some(64));
        assert_eq!(bm.prev_one(9), None);
    }

    #[test]
    fn rank_select_duality() {
        let mut bm = Bitmap::with_len(500, false);
        for i in (0..500).step_by(7) {
            bm.set(i, true);
        }
        for k in 0..bm.count_ones() {
            let pos = bm.select(k).unwrap();
            assert_eq!(bm.rank(pos), k);
            assert!(bm.get(pos));
        }
        assert_eq!(bm.select(bm.count_ones()), None);
        assert_eq!(bm.rank(500), bm.count_ones());
        assert_eq!(bm.rank(0), 0);
    }

    /// Every `(lo, hi)` of a three-word bitmap — inside one word, across
    /// one boundary, across both, empty — against a per-bit reference:
    /// the count, and what clearing the range leaves and returns.
    #[test]
    fn range_count_and_clear_equal_per_bit_at_every_range() {
        let words = [
            0xDEAD_BEEF_0123_4567u64,
            0xFFFF_0000_FFFF_0000,
            0x8000_0000_0000_0001,
        ];
        let bm = Bitmap {
            blocks: words.to_vec(),
            len: 192,
            ones: words.iter().map(|w| w.count_ones() as usize).sum(),
        };
        for lo in 0..=192 {
            for hi in lo..=192 {
                let want = (lo..hi).filter(|&i| bm.get(i)).count();
                assert_eq!(
                    count_set_bits_in(&words, lo, hi),
                    want,
                    "count [{lo}, {hi})"
                );
                let mut cleared = bm.clone();
                assert_eq!(cleared.clear_range(lo, hi), want, "clear [{lo}, {hi})");
                for i in 0..192 {
                    assert_eq!(cleared.get(i), bm.get(i) && !(lo..hi).contains(&i));
                }
                assert_eq!(cleared.count_ones(), bm.count_ones() - want);
            }
        }
        // Past the slice, bits count as clear.
        assert_eq!(count_set_bits_in(&words, 190, 300), 1);
        assert_eq!(count_set_bits_in(&words, 200, 260), 0);
    }

    #[test]
    fn count_ones_in_range() {
        let bm: Bitmap = (0..100).map(|i| i % 5 == 0).collect();
        assert_eq!(bm.count_ones_in(0, 100), 20);
        assert_eq!(bm.count_ones_in(0, 1), 1);
        assert_eq!(bm.count_ones_in(1, 5), 0);
        assert_eq!(bm.count_ones_in(1, 6), 1);
        assert_eq!(bm.count_ones_in(50, 50), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bm = Bitmap::with_len(10, false);
        bm.get(10);
    }

    #[test]
    fn words_tail_bits_are_zero() {
        for len in [1usize, 63, 64, 65, 127, 130] {
            let bm = Bitmap::with_len(len, true);
            let words = bm.words();
            assert_eq!(words.len(), len.div_ceil(64));
            let total: u32 = words.iter().map(|w| w.count_ones()).sum();
            assert_eq!(total as usize, len, "no stray bits past len {len}");
        }
        // Pushing keeps the invariant too.
        let mut bm = Bitmap::new();
        for i in 0..70 {
            bm.push(i % 2 == 0);
        }
        let total: u32 = bm.words().iter().map(|w| w.count_ones()).sum();
        assert_eq!(total as usize, bm.count_ones());
    }

    #[test]
    fn masked_word_clips_both_sides() {
        let bm = Bitmap::with_len(256, true);
        assert_eq!(bm.masked_word(0, 0, 256), !0u64);
        assert_eq!(bm.masked_word(0, 3, 256), !0u64 << 3);
        assert_eq!(bm.masked_word(0, 0, 10), (1u64 << 10) - 1);
        assert_eq!(bm.masked_word(0, 3, 10), ((1u64 << 10) - 1) & (!0u64 << 3));
        assert_eq!(bm.masked_word(1, 0, 256), !0u64);
        assert_eq!(bm.masked_word(1, 70, 130), !0u64 << 6);
        // Word wholly outside the range.
        assert_eq!(bm.masked_word(0, 64, 256), 0);
        assert_eq!(bm.masked_word(2, 0, 128), 0);
        // Out-of-bounds word index.
        assert_eq!(bm.masked_word(9, 0, 1000), 0);
    }

    #[test]
    fn iter_ones_in_respects_bounds() {
        let mut bm = Bitmap::with_len(300, false);
        let set = [0usize, 5, 63, 64, 65, 128, 200, 299];
        for &i in &set {
            bm.set(i, true);
        }
        for (lo, hi) in [
            (0, 300),
            (1, 300),
            (5, 66),
            (64, 65),
            (65, 65),
            (66, 128),
            (128, 299),
        ] {
            let got: Vec<usize> = bm.iter_ones_in(lo, hi).collect();
            let expect: Vec<usize> = set.iter().copied().filter(|&i| i >= lo && i < hi).collect();
            assert_eq!(got, expect, "range [{lo}, {hi})");
        }
        // hi beyond len clips.
        let all: Vec<usize> = bm.iter_ones_in(0, 10_000).collect();
        assert_eq!(all, set.to_vec());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn matches_vec_bool_model(bits in proptest::collection::vec(any::<bool>(), 0..600)) {
            let bm: Bitmap = bits.iter().copied().collect();
            prop_assert_eq!(bm.len(), bits.len());
            prop_assert_eq!(bm.count_ones(), bits.iter().filter(|&&b| b).count());
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(bm.get(i), b);
            }
            let ones: Vec<usize> = bm.iter_ones().collect();
            let expect: Vec<usize> = bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
            prop_assert_eq!(ones, expect);
        }

        #[test]
        fn rank_select_inverse(bits in proptest::collection::vec(any::<bool>(), 1..600), k_seed in any::<usize>()) {
            let bm: Bitmap = bits.iter().copied().collect();
            if bm.count_ones() > 0 {
                let k = k_seed % bm.count_ones();
                let pos = bm.select(k).unwrap();
                prop_assert!(bm.get(pos));
                prop_assert_eq!(bm.rank(pos), k);
            }
        }

        #[test]
        fn iter_ones_in_equals_filtered_iter_ones(
            bits in proptest::collection::vec(any::<bool>(), 0..400),
            lo in 0usize..450,
            hi in 0usize..450,
        ) {
            let bm: Bitmap = bits.iter().copied().collect();
            let got: Vec<usize> = bm.iter_ones_in(lo, hi).collect();
            let expect: Vec<usize> = bm.iter_ones().filter(|&i| i >= lo && i < hi).collect();
            prop_assert_eq!(got, expect);
        }

        #[test]
        fn extend_and_clear_range_equal_bit_at_a_time(
            chunks in proptest::collection::vec((0usize..150, any::<bool>()), 0..6),
            lo in 0usize..450,
            hi in 0usize..450,
        ) {
            let mut bm = Bitmap::new();
            let mut model: Vec<bool> = Vec::new();
            for &(n, value) in &chunks {
                bm.extend(n, value);
                model.resize(model.len() + n, value);
            }
            prop_assert_eq!(&bm, &model.iter().copied().collect::<Bitmap>());
            let hi = hi.min(model.len());
            let lo = lo.min(hi);
            let was_set = model[lo..hi].iter().filter(|&&b| b).count();
            prop_assert_eq!(bm.clear_range(lo, hi), was_set);
            model[lo..hi].fill(false);
            prop_assert_eq!(&bm, &model.iter().copied().collect::<Bitmap>());
        }

        #[test]
        fn next_one_scan_equals_iter(bits in proptest::collection::vec(any::<bool>(), 0..400)) {
            let bm: Bitmap = bits.iter().copied().collect();
            let mut scanned = Vec::new();
            let mut from = 0usize;
            while let Some(p) = bm.next_one(from) {
                scanned.push(p);
                from = p + 1;
            }
            let expect: Vec<usize> = bm.iter_ones().collect();
            prop_assert_eq!(scanned, expect);
        }
    }
}
