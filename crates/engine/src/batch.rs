//! Word-at-a-time vectorized batch kernels with selection vectors.
//!
//! # Why this layer exists
//!
//! The paper's argument for amnesia is that bounding the active set keeps
//! scans fast (§1, §6). The original kernels threw that advantage away by
//! walking row-at-a-time: a `column.get(r)` bounds check plus an
//! `activity.is_active(id)` bitmap shift *per physical row*. This module
//! is the batch-execution footing underneath every scan, aggregate and
//! join kernel: raw `&[Value]` slices on one side, the packed `u64`
//! activity words of [`amnesia_util::Bitmap`] on the other.
//!
//! # The selection-vector contract
//!
//! Work proceeds in units of one **activity word** = [`WORD_BITS`] = 64
//! rows; a logical *batch* is [`BATCH_ROWS`] = 1024 rows = 16 words
//! (matching `amnesia_columnar::DEFAULT_BLOCK_ROWS`, so a tier block is
//! exactly one batch). For each word the kernels build a *selection
//! mask*:
//!
//! ```text
//! sel = predicate_mask(values[w*64 .. w*64+64]) & activity_word[w]
//! ```
//!
//! * `predicate_mask` evaluates the range test as one unsigned compare
//!   per value with no data-dependent branches, dispatching to an
//!   AVX-512/AVX2 kernel at runtime on x86-64 (portable byte-lane
//!   fallback elsewhere). The tier is the one the packed-field kernels
//!   under the frozen blocks read too:
//!   [`amnesia_columnar::simd::mask_impl`], detected once per process.
//! * An all-forgotten word (`activity == 0`) is skipped before its values
//!   are ever touched: forgetting data makes scans *cheaper*, which is the
//!   paper's point.
//! * Word processing is **density-adaptive**: words with at least
//!   `DENSE_WORD_MIN_ACTIVE` active rows take the vectorized mask path;
//!   sparser words iterate just their set bits, so heavily-forgotten
//!   regions never pay for 64 evaluations to select 3 rows.
//! * An all-selected word (`sel == !0`) takes a fused fast path that
//!   folds the whole 64-value slice without per-row bit tests; partial
//!   selections extract bits with `trailing_zeros`, costing one short
//!   dependency chain per *selected* row, not per physical row.
//!
//! Positions in a selection mask are row ids relative to the word's base
//! row (`word_index * 64`); consumers materialize them as [`RowId`]s, feed
//! them to the fused aggregate, or count them with one `popcount`.
//!
//! # One scan family
//!
//! Every single-column scan runs on a [`TieredColumn`] — the storage's
//! resting state: frozen compressed blocks, then the hot uncompressed
//! tail. A fully hot column is simply a tiered column with zero frozen
//! blocks, so there is no separate "flat" path to keep in step:
//!
//! * every **full block**, frozen or hot, carries a cached
//!   [`BlockMeta`](amnesia_columnar::BlockMeta) (min/max, active count),
//!   and the active-only kernels prune it by that meta before a payload
//!   byte or a hot value is read — one pruning rule for both tiers;
//! * each surviving **frozen block** answers
//!   the predicate through the codec's fused `filter_range_masks` (RLE
//!   compares once per run, dictionaries compare bit-packed codes against
//!   a code range, FOR compares rebased offsets — see
//!   `amnesia_columnar::compress`), producing exactly the selection-mask
//!   words defined above, which AND with the block's activity words.
//!   Cold data is scanned without ever materializing a `Vec<Value>` — the
//!   paper's bargain: compression postpones forgetting only if the
//!   compressed form stays queryable at memory speed;
//! * each surviving **hot block**, and the open last block (which has
//!   no meta until it fills), runs the word loop above over the raw
//!   slice, block by block
//!   ([`TieredColumn::hot_blocks`](amnesia_columnar::TieredColumn::hot_blocks)).
//!
//! [`scan_tiered_active_into`], [`count_tiered_active`] and
//! [`aggregate_tiered_active`] see active rows only. Paper §1's "complete
//! scan", which still fetches forgotten rows, is the one-predicate
//! [`crate::kernels::selection_scan_all`]. The multi-predicate
//! selection-vector operators in [`crate::kernels`] are built on the
//! same word primitives.
//!
//! The row-at-a-time model these kernels are held to is the dev-only
//! `amnesia-model` crate: `tests/kernel_equivalence.rs` checks the
//! vectorized kernels against it on hot tables and frozen at every
//! prefix, and at every pool width.

use amnesia_columnar::compress::{dict, BlockAgg, Encoding};
pub(crate) use amnesia_columnar::simd::{mask_impl, MaskImpl};
use amnesia_columnar::{HotBlock, RowId, TieredColumn, Value, DEFAULT_BLOCK_ROWS};
use amnesia_util::WORD_BITS;
use amnesia_workload::query::{AggKind, RangePredicate};

use crate::hash::ValueMap;

/// Rows per logical batch (16 activity words, one tier block — tied to
/// the storage block size so the identities in the module doc hold by
/// construction).
pub const BATCH_ROWS: usize = DEFAULT_BLOCK_ROWS;

const _: () = assert!(
    BATCH_ROWS.is_multiple_of(WORD_BITS),
    "a batch must be a whole number of activity words"
);

/// Streaming aggregate state: COUNT/SUM/MIN/MAX folded in one pass, AVG
/// derived at finalize. SUM accumulates in `i128` so no `i64` input can
/// overflow it.
#[derive(Debug, Clone, Copy)]
pub struct AggState {
    count: u64,
    sum: i128,
    min: Value,
    max: Value,
}

impl AggState {
    /// Empty state.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: Value::MAX,
            max: Value::MIN,
        }
    }

    /// Fold one value.
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.count += 1;
        self.sum += v as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold every value of `values`, 64 at a time on the all-selected
    /// word path.
    pub(crate) fn push_slice(&mut self, values: &[Value]) {
        for chunk in values.chunks(WORD_BITS) {
            fold_selection(self, chunk, tail_word(&[!0], 0, chunk.len()));
        }
    }

    /// Fold a pre-aggregated block (the all-selected word fast path).
    #[inline]
    pub fn push_block(&mut self, count: u64, sum: i128, min: Value, max: Value) {
        self.count += count;
        self.sum += sum;
        self.min = self.min.min(min);
        self.max = self.max.max(max);
    }

    /// Number of folded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running sum of folded values.
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Minimum folded value (`None` when the selection was empty).
    pub fn min_value(&self) -> Option<Value> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum folded value (`None` when the selection was empty).
    pub fn max_value(&self) -> Option<Value> {
        (self.count > 0).then_some(self.max)
    }

    /// Fold another state in (parallel partial aggregation).
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Finalize for an aggregate kind; `None` when the selection was empty
    /// (COUNT returns 0 instead).
    pub fn finalize(&self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Count => Some(self.count as f64),
            AggKind::Sum => (self.count > 0).then_some(self.sum as f64),
            AggKind::Avg => (self.count > 0).then(|| self.sum as f64 / self.count as f64),
            AggKind::Min => (self.count > 0).then_some(self.min as f64),
            AggKind::Max => (self.count > 0).then_some(self.max as f64),
        }
    }
}

impl Default for AggState {
    fn default() -> Self {
        Self::new()
    }
}

/// Minimum active bits for a word to take the vectorized mask path.
///
/// Building a predicate mask costs ~64 branch-light compares regardless
/// of how many rows are active; iterating set bits costs ~2 ns per
/// *active* row. The crossover on current hardware sits around 20–25
/// active bits, so mostly-forgotten words keep the cheap sparse path —
/// forgetting data keeps making scans cheaper, per the paper's argument.
const DENSE_WORD_MIN_ACTIVE: u32 = 24;

/// Branch-light predicate evaluation over up to 64 values: bit `i` of the
/// result is set iff `pred` matches `values[i]`.
///
/// The range test is a single unsigned compare (`(v - lo) as u64 <
/// hi - lo`, the classic wrapping-subtract trick, valid for every `i64`
/// `lo < hi`). Full 64-value words dispatch on the pre-resolved
/// [`MaskImpl`]; the portable fallback builds eight independent byte
/// lanes so the dependency chain is 8 steps, not 64 — about 2x the naive
/// `mask |= test << i` loop.
#[inline]
fn predicate_mask(values: &[Value], lo: Value, hi: Value, imp: MaskImpl) -> u64 {
    debug_assert!(values.len() <= WORD_BITS);
    #[cfg(target_arch = "x86_64")]
    if values.len() == WORD_BITS {
        match imp {
            // SAFETY: mask_impl() verified the feature on this CPU.
            MaskImpl::Avx512 | MaskImpl::Avx512Vbmi => {
                return unsafe { simd::mask_avx512(values, lo, hi) }
            }
            // SAFETY: mask_impl() verified the feature on this CPU.
            MaskImpl::Avx2 => return unsafe { simd::mask_avx2(values, lo, hi) },
            MaskImpl::Portable => {}
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = imp;
    let width = range_width(lo, hi);
    let mut bytes = [0u8; 8];
    let mut chunks = values.chunks_exact(8);
    let mut group = 0usize;
    for chunk in &mut chunks {
        let mut b = 0u8;
        for (i, &v) in chunk.iter().enumerate() {
            b |= ((((v as u64).wrapping_sub(lo as u64)) < width) as u8) << i;
        }
        bytes[group] = b;
        group += 1;
    }
    let mut mask = u64::from_le_bytes(bytes);
    let base = group * 8;
    for (i, &v) in chunks.remainder().iter().enumerate() {
        mask |= ((((v as u64).wrapping_sub(lo as u64)) < width) as u64) << (base + i);
    }
    mask
}

/// `hi - lo` in the unsigned domain (fits `u64` for every `i64` pair;
/// callers guarantee `lo < hi` via the `is_empty` guards).
#[inline]
fn range_width(lo: Value, hi: Value) -> u64 {
    (hi as i128 - lo as i128) as u64
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! SIMD predicate-mask kernels over the hot tail's raw values,
    //! selected at runtime by the tier of `amnesia_columnar::simd` (the
    //! one CPU dispatch, shared with the packed-field kernels; its
    //! `PORTABLE_ONLY_ENV` pins both to their portable code).
    //!
    //! Both evaluate the same single-compare range test as the portable
    //! path. AVX-512 compares eight `i64` lanes straight into a `__mmask8`
    //! (`vpcmpuq`); AVX2 lacks unsigned 64-bit compares, so the operands
    //! are sign-bias-flipped and compared signed (`x <u w  ⇔
    //! x ^ MIN <s w ^ MIN`), then lane signs are extracted with
    //! `movmskpd`. Measured ~2x over the portable byte-lane loop at 1M
    //! rows (memory-bandwidth-bound from there).

    use super::{range_width, Value, WORD_BITS};

    /// Mask for exactly 64 values via AVX2.
    ///
    /// # Safety
    /// Caller must verify `avx2` is available and pass exactly 64 values.
    #[target_feature(enable = "avx2")]
    // SAFETY: sound iff `avx2` is present (callers dispatch through
    // `mask_impl()`, which feature-detects) and `values.len() == 64`, so
    // the 16 × 4-lane unaligned loads below never read past the slice.
    pub(super) unsafe fn mask_avx2(values: &[Value], lo: Value, hi: Value) -> u64 {
        use std::arch::x86_64::*;
        debug_assert_eq!(values.len(), WORD_BITS);
        let sign = _mm256_set1_epi64x(i64::MIN);
        let lo_v = _mm256_set1_epi64x(lo);
        let width_biased = _mm256_set1_epi64x((range_width(lo, hi) ^ (i64::MIN as u64)) as i64);
        let mut mask = 0u64;
        for group in 0..WORD_BITS / 4 {
            let v = _mm256_loadu_si256(values.as_ptr().add(group * 4) as *const __m256i);
            let t = _mm256_xor_si256(_mm256_sub_epi64(v, lo_v), sign);
            let m = _mm256_cmpgt_epi64(width_biased, t);
            let bits = _mm256_movemask_pd(_mm256_castsi256_pd(m)) as u64;
            mask |= bits << (group * 4);
        }
        mask
    }

    /// Mask for exactly 64 values via AVX-512F.
    ///
    /// # Safety
    /// Caller must verify `avx512f` is available and pass exactly 64
    /// values.
    #[target_feature(enable = "avx512f")]
    // SAFETY: sound iff `avx512f` is present (callers dispatch through
    // `mask_impl()`, which feature-detects) and `values.len() == 64`, so
    // the 8 × 8-lane unaligned loads below never read past the slice.
    pub(super) unsafe fn mask_avx512(values: &[Value], lo: Value, hi: Value) -> u64 {
        use std::arch::x86_64::*;
        debug_assert_eq!(values.len(), WORD_BITS);
        let lo_v = _mm512_set1_epi64(lo);
        let width_v = _mm512_set1_epi64(range_width(lo, hi) as i64);
        let mut mask = 0u64;
        for group in 0..WORD_BITS / 8 {
            let v = _mm512_loadu_si512(values.as_ptr().add(group * 8) as *const __m512i);
            let t = _mm512_sub_epi64(v, lo_v);
            let m = _mm512_cmplt_epu64_mask(t, width_v) as u64;
            mask |= m << (group * 8);
        }
        mask
    }
}

use amnesia_util::bitmap::for_each_set_bit_in;

/// Append `RowId`s for every set bit of `sel`, offset by `base` rows.
#[inline]
pub(crate) fn emit_selection(mut sel: u64, base: usize, out: &mut Vec<RowId>) {
    while sel != 0 {
        let bit = sel.trailing_zeros() as usize;
        sel &= sel - 1;
        out.push(RowId::from(base + bit));
    }
}

/// Selection mask for one word: `pred` over the values, restricted to
/// `active`. Density-adaptive: dense words evaluate all 64 values
/// branch-light (vectorizable), sparse words test only the active rows.
#[inline]
fn selection_word(chunk: &[Value], active: u64, pred: RangePredicate, imp: MaskImpl) -> u64 {
    if active.count_ones() >= DENSE_WORD_MIN_ACTIVE {
        predicate_mask(chunk, pred.lo, pred.hi, imp) & active
    } else {
        let mut sel = 0u64;
        let mut w = active;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            sel |= (pred.matches(chunk[bit]) as u64) << bit;
        }
        sel
    }
}

/// Bit `i` set iff `values[i]` lies in the *inclusive* range `[lo, hi]`
/// (no bit past the chunk), on the half-open vector kernel of every
/// tier: `[lo, hi + 1)` below the domain edge; at it — every `col > c` —
/// the complement of `[MIN, lo)`, as [`conj_block_masks`] does for frozen
/// blocks (the half-open width would overflow there); `[MIN, MAX]` is
/// every row.
#[inline]
fn predicate_mask_incl(values: &[Value], lo: Value, hi: Value, imp: MaskImpl) -> u64 {
    debug_assert!(lo <= hi);
    if hi < Value::MAX {
        return predicate_mask(values, lo, hi + 1, imp);
    }
    let present = tail_word(&[!0], 0, values.len());
    if lo == Value::MIN {
        present
    } else {
        !predicate_mask(values, Value::MIN, lo, imp) & present
    }
}

/// Narrow one word's selection by a pushed-down [`ColPred`]: surviving
/// bits of `sel` are those whose value passes the (possibly negated)
/// inclusive range. Density-adaptive like [`selection_word`]; negation
/// inverts the mask, and `& sel` clears any stray bits past the chunk.
#[inline]
pub(crate) fn conj_word(
    chunk: &[Value],
    sel: u64,
    p: &crate::physical::ColPred,
    imp: MaskImpl,
) -> u64 {
    if p.is_empty_range() {
        return if p.negated { sel } else { 0 };
    }
    if sel.count_ones() >= DENSE_WORD_MIN_ACTIVE {
        let m = predicate_mask_incl(chunk, p.lo, p.hi, imp);
        (if p.negated { !m } else { m }) & sel
    } else {
        let mut out = 0u64;
        let mut w = sel;
        while w != 0 {
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            out |= (p.matches(chunk[bit]) as u64) << bit;
        }
        out
    }
}

/// Selection-mask words for one frozen block under a [`ColPred`]: the
/// codec's fused `filter_range_masks` evaluates the inclusive range in
/// its own domain (run / code / offset space — the block is never
/// decoded), with negation folded in by complementing the mask words.
/// The `i64` domain edges route through the complement of the
/// representable half (`[lo, MAX]` = NOT `[MIN, lo)`). Stray high bits
/// in the last word are the caller's to clear via the activity AND.
pub(crate) fn conj_block_masks(
    block: &amnesia_columnar::compress::EncodedBlock,
    p: &crate::physical::ColPred,
    out: &mut Vec<u64>,
) {
    let nwords = block.len().div_ceil(WORD_BITS);
    let mut invert = p.negated;
    if p.is_empty_range() {
        out.clear();
        out.resize(nwords, 0);
    } else if p.hi < Value::MAX {
        block.filter_range_masks(p.lo, p.hi + 1, out);
    } else if p.lo > Value::MIN {
        // [lo, MAX] is the complement of [MIN, lo).
        block.filter_range_masks(Value::MIN, p.lo, out);
        invert = !invert;
    } else {
        // The whole domain.
        out.clear();
        out.resize(nwords, !0u64);
    }
    if invert {
        for w in out.iter_mut() {
            *w = !*w;
        }
    }
}

/// Sparse residual refinement: narrow an existing selection (`sel`) by a
/// further [`ColPred`](crate::physical::ColPred) without re-filtering the
/// whole block. When earlier conjuncts left at most one row in eight, the
/// survivors are read in ascending order through one
/// [`BlockReader`](amnesia_columnar::compress::BlockReader) and tested
/// individually: the header is parsed once, a plain / FOR / dict /
/// runbits read is one fixed-width unpack (dict decodes its entries at
/// most once, runbits ranks with one popcount), and the rle / delta
/// cursors only move forward, so the block costs one walk of its runs or
/// prefix sums up to the last survivor, not one per survivor. Otherwise the block-wide fused filter runs once and ANDs in.
/// Both paths compute the same conjunction (AND commutes), so the
/// selection is byte-identical to evaluating the predicate densely — only
/// the work differs. The block is never decoded either way.
pub(crate) fn refine_block_masks(
    block: &amnesia_columnar::compress::EncodedBlock,
    p: &crate::physical::ColPred,
    sel: &mut [u64],
    scratch: &mut Vec<u64>,
) {
    let surviving: usize = sel.iter().map(|w| w.count_ones() as usize).sum();
    if surviving == 0 {
        return;
    }
    if surviving * 8 <= block.len() {
        let mut reader = block.reader();
        for (k, w) in sel.iter_mut().enumerate() {
            let mut m = *w;
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                m &= m - 1;
                if !p.matches(reader.get(k * WORD_BITS + bit)) {
                    *w &= !(1u64 << bit);
                }
            }
        }
    } else {
        conj_block_masks(block, p, scratch);
        for (w, &m) in sel.iter_mut().zip(scratch.iter()) {
            *w &= m;
        }
    }
}

/// Fold the selected values of one word into `state`.
///
/// The hot accumulation runs on a word-local `i64` sum — `checked_add`
/// spills to the `i128` total on the (practically never taken) overflow
/// branch — because an `i128` add per row measurably drags the loop. A
/// fully-selected full word folds the slice with no bit tests at all.
#[inline]
pub(crate) fn fold_selection(state: &mut AggState, chunk: &[Value], sel: u64) {
    if sel == 0 {
        return;
    }
    let mut count = 0u64;
    let mut sum = 0i64;
    let mut spill = 0i128;
    let mut min = Value::MAX;
    let mut max = Value::MIN;
    if sel == !0u64 && chunk.len() == WORD_BITS {
        for &v in chunk {
            count += 1;
            match sum.checked_add(v) {
                Some(s) => sum = s,
                None => {
                    spill += sum as i128;
                    sum = v;
                }
            }
            min = min.min(v);
            max = max.max(v);
        }
    } else {
        let mut sel = sel;
        while sel != 0 {
            let bit = sel.trailing_zeros() as usize;
            sel &= sel - 1;
            let v = chunk[bit];
            count += 1;
            match sum.checked_add(v) {
                Some(s) => sum = s,
                None => {
                    spill += sum as i128;
                    sum = v;
                }
            }
            min = min.min(v);
            max = max.max(v);
        }
    }
    state.push_block(count, spill + sum as i128, min, max);
}

/// Activity (or selection) word `wi` clipped to the `chunk_len` rows of
/// the value chunk it pairs with. The word slice may cover more rows
/// than the values do — a partial last word, or a caller's words taken
/// after the table grew — and scanning those bits would index past the
/// chunk.
#[inline]
pub(crate) fn tail_word(words: &[u64], wi: usize, chunk_len: usize) -> u64 {
    let word = words.get(wi).copied().unwrap_or(0);
    if chunk_len >= WORD_BITS {
        word
    } else {
        word & ((1u64 << chunk_len) - 1)
    }
}

// ---------------------------------------------------------------------
// Tier-aware kernels: scans and aggregates straight over a TieredColumn
// (frozen compressed blocks + hot tail) — the storage's resting state,
// not a snapshot.
// ---------------------------------------------------------------------

/// Work accounting for the tier-aware kernels: how many full blocks the
/// cached [`BlockMeta`](amnesia_columnar::BlockMeta) pruned before their
/// payloads (frozen) or values (hot) were touched, and how many active
/// rows were examined.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Full blocks, frozen or hot, skipped because meta proved the
    /// predicate can't match (fully-forgotten blocks included). A hot
    /// block cut across two spans counts once, in the span holding its
    /// first row, so the count is the same at every morsel size.
    pub blocks_pruned: usize,
    /// Active rows whose values (compressed or hot) were examined.
    pub rows_scanned: usize,
}

impl TierStats {
    /// Fold in another chunk's accounting (parallel partials).
    pub fn merge(&mut self, other: TierStats) {
        self.blocks_pruned += other.blocks_pruned;
        self.rows_scanned += other.rows_scanned;
    }
}

/// The 64-row chunks of one hot block, each with its first row and its
/// activity (or selection) word clipped to the chunk. The block's rows
/// start word-aligned, so the word index is a shift, not a division.
#[inline]
pub(crate) fn hot_words<'a>(
    blk: &HotBlock<'a>,
    words: &'a [u64],
) -> impl Iterator<Item = (usize, &'a [Value], u64)> {
    let first = blk.rows.start / WORD_BITS;
    blk.values
        .chunks(WORD_BITS)
        .enumerate()
        .map(move |(j, chunk)| {
            let wi = first + j;
            (wi * WORD_BITS, chunk, tail_word(words, wi, chunk.len()))
        })
}

/// The activity words covering frozen block `b` of `tier` (block-local
/// indexing: bit `i` of word `i/64` is row `b * block_rows + i`). Blocks
/// are word-aligned by construction.
#[inline]
pub(crate) fn block_words<'a>(tier: &TieredColumn, words: &'a [u64], b: usize) -> &'a [u64] {
    let base_word = b * tier.block_rows() / WORD_BITS;
    let nwords = tier.block_rows() / WORD_BITS;
    words
        .get(base_word..(base_word + nwords).min(words.len()))
        .unwrap_or(&[])
}

/// Scan a tiered column for active rows matching `pred`, ascending.
/// Each full block is pruned by its cached meta (min/max, active count)
/// before it is read: a frozen survivor runs the codec's fused
/// `filter_range_masks`, whose masks AND with the activity words and
/// feed the shared emit loop; a hot survivor, and the open last block,
/// run the raw-slice selection kernel (the tail's start is word-aligned
/// because frozen blocks tile whole activity words). A fully hot column
/// has no frozen blocks and is all tail.
pub fn scan_tiered_active_into(
    tier: &TieredColumn,
    words: &[u64],
    pred: RangePredicate,
    out: &mut Vec<RowId>,
) -> TierStats {
    let mut stats = TierStats::default();
    if pred.is_empty() || tier.is_empty() {
        return stats;
    }
    let br = tier.block_rows();
    let mut mask_buf = Vec::new();
    for b in 0..tier.frozen_blocks() {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if !meta.may_match(pred.lo, pred.hi) {
            stats.blocks_pruned += 1;
            continue;
        }
        let bw = block_words(tier, words, b);
        f.encoded()
            .filter_range_masks(pred.lo, pred.hi, &mut mask_buf);
        stats.rows_scanned += meta.active;
        for (k, &m) in mask_buf.iter().enumerate() {
            let sel = m & bw.get(k).copied().unwrap_or(0);
            emit_selection(sel, b * br + k * WORD_BITS, out);
        }
    }
    let imp = mask_impl();
    for blk in tier.hot_blocks(tier.hot_start(), tier.len()) {
        if blk.meta.is_some_and(|m| !m.may_match(pred.lo, pred.hi)) {
            stats.blocks_pruned += 1;
            continue;
        }
        for (base, chunk, active) in hot_words(&blk, words) {
            if active == 0 {
                continue; // all-forgotten word: values never touched
            }
            stats.rows_scanned += active.count_ones() as usize;
            emit_selection(selection_word(chunk, active, pred, imp), base, out);
        }
    }
    stats
}

/// Count active matches in a tiered column without materializing row ids.
pub fn count_tiered_active(
    tier: &TieredColumn,
    words: &[u64],
    pred: RangePredicate,
) -> (usize, TierStats) {
    let mut stats = TierStats::default();
    if pred.is_empty() || tier.is_empty() {
        return (0, stats);
    }
    let mut count = 0usize;
    let mut mask_buf = Vec::new();
    for b in 0..tier.frozen_blocks() {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if !meta.may_match(pred.lo, pred.hi) {
            stats.blocks_pruned += 1;
            continue;
        }
        let bw = block_words(tier, words, b);
        f.encoded()
            .filter_range_masks(pred.lo, pred.hi, &mut mask_buf);
        stats.rows_scanned += meta.active;
        for (k, &m) in mask_buf.iter().enumerate() {
            count += (m & bw.get(k).copied().unwrap_or(0)).count_ones() as usize;
        }
    }
    let imp = mask_impl();
    for blk in tier.hot_blocks(tier.hot_start(), tier.len()) {
        if blk.meta.is_some_and(|m| !m.may_match(pred.lo, pred.hi)) {
            stats.blocks_pruned += 1;
            continue;
        }
        for (_, chunk, active) in hot_words(&blk, words) {
            if active == 0 {
                continue;
            }
            stats.rows_scanned += active.count_ones() as usize;
            count += selection_word(chunk, active, pred, imp).count_ones() as usize;
        }
    }
    (count, stats)
}

/// Fused filter+aggregate over a tiered column. Frozen blocks fold
/// through the codecs' fused `fold_range_masked` — SUM/COUNT/MIN/MAX
/// accumulate in code/offset/run space and the block is never decoded —
/// and the hot tail folds the raw slice, both behind the same meta
/// pruning as the scans. `rows_scanned` counts the active rows examined
/// (meta-pruned blocks are skipped, which is the work the metadata
/// saved). An empty
/// predicate selects nothing but still reports every active row as
/// scanned.
pub fn aggregate_tiered_active(
    tier: &TieredColumn,
    words: &[u64],
    pred: Option<RangePredicate>,
) -> (AggState, TierStats) {
    let mut state = AggState::new();
    let mut stats = TierStats::default();
    if tier.is_empty() {
        return (state, stats);
    }
    if pred.is_some_and(|p| p.is_empty()) {
        let n = tier.len();
        stats.rows_scanned = (0..n.div_ceil(WORD_BITS))
            .map(|wi| amnesia_util::bitmap::masked_word(words, wi, 0, n).count_ones() as usize)
            .sum();
        return (state, stats);
    }
    let filter = pred.map(|p| (p.lo, p.hi));
    for b in 0..tier.frozen_blocks() {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if meta.active == 0 || pred.is_some_and(|p| !meta.may_match(p.lo, p.hi)) {
            stats.blocks_pruned += 1;
            continue;
        }
        let mut agg = BlockAgg::new();
        f.encoded()
            .fold_range_masked(filter, block_words(tier, words, b), &mut agg);
        stats.rows_scanned += meta.active;
        if agg.count > 0 {
            state.push_block(agg.count, agg.sum, agg.min, agg.max);
        }
    }
    let imp = mask_impl();
    for blk in tier.hot_blocks(tier.hot_start(), tier.len()) {
        if blk
            .meta
            .is_some_and(|m| m.active == 0 || pred.is_some_and(|p| !m.may_match(p.lo, p.hi)))
        {
            stats.blocks_pruned += 1;
            continue;
        }
        for (_, chunk, active) in hot_words(&blk, words) {
            if active == 0 {
                continue;
            }
            stats.rows_scanned += active.count_ones() as usize;
            let sel = match pred {
                Some(p) => selection_word(chunk, active, p, imp),
                None => active,
            };
            fold_selection(&mut state, chunk, sel);
        }
    }
    (state, stats)
}

// ---------------------------------------------------------------------
// Tier-aware join kernels: hash-probe frozen blocks in compressed space.
//
// The build side streams keys through `EncodedBlock::for_each_active`
// (and its run/dictionary specializations) in `crate::join`; the probe
// side lives here because it shares the tier plumbing (block words, meta
// pruning, tail clipping) with the scan kernels above. The contract
// mirrors the scans: results are identical to materializing the probe
// column densely and walking it row-at-a-time, but frozen blocks are
// probed in their compressed domain — RLE touches the hash table once
// per run, dictionaries translate the whole lookup into a per-code match
// table computed once per block, FOR/delta/plain stream active rows
// through `for_each_active` without a `Vec<Value>` detour — and blocks
// whose cached meta cannot intersect the build side's key range are
// skipped before their payload is touched.
// ---------------------------------------------------------------------

/// Work accounting for the tiered join probe: full probe blocks, frozen
/// or hot, pruned against the build side's key range, and the active
/// probe rows those skips avoided streaming. The gap between the probe
/// side's active count and `probe_rows_skipped` is the work actually
/// done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Full probe blocks skipped (meta disjoint from the build keys,
    /// fully-forgotten, or probed against an empty build side); a hot
    /// block cut across two spans counts once.
    pub blocks_pruned: usize,
    /// Active probe rows inside those skipped blocks.
    pub probe_rows_skipped: usize,
}

impl ProbeStats {
    /// Fold in another chunk's accounting (parallel partials).
    pub fn merge(&mut self, other: ProbeStats) {
        self.blocks_pruned += other.blocks_pruned;
        self.probe_rows_skipped += other.probe_rows_skipped;
    }
}

/// Probe frozen blocks `[first, last)` of a tiered column against a hash
/// table *in compressed space* — the frozen half of the join-probe kernel
/// (`join::probe_span`). `on_hit(payload, probe_row)`
/// fires for every active probe row whose key is in `build`, in ascending
/// probe-row order (the order a dense probe would emit). `key_range` is
/// the inclusive `[min, max]` of the build keys; blocks whose cached meta
/// cannot intersect it are skipped before their payload is touched
/// (`None` means the build side is empty and every block skips).
pub fn probe_tiered_blocks_with<T>(
    tier: &TieredColumn,
    words: &[u64],
    first: usize,
    last: usize,
    build: &ValueMap<T>,
    key_range: Option<(Value, Value)>,
    mut on_hit: impl FnMut(&T, usize),
) -> ProbeStats {
    let mut stats = ProbeStats::default();
    let br = tier.block_rows();
    for b in first..last.min(tier.frozen_blocks()) {
        let f = tier.frozen(b).expect("frozen block in range");
        let meta = f.meta();
        if meta.active == 0 {
            stats.blocks_pruned += 1;
            continue;
        }
        let in_range = match key_range {
            Some((lo, hi)) => meta.may_match_inclusive(lo, hi),
            None => false,
        };
        if !in_range {
            stats.blocks_pruned += 1;
            stats.probe_rows_skipped += meta.active;
            continue;
        }
        let bw = block_words(tier, words, b);
        let base = b * br;
        let block = f.encoded();
        match block.encoding() {
            // One hash lookup per *run*, fanned over the run's active
            // rows — a long matching run costs its emits, a long missing
            // run costs one lookup.
            Encoding::Rle | Encoding::RunBits => block.for_each_run(|v, start, len| {
                if let Some(t) = build.get(&v) {
                    for_each_set_bit_in(bw, start, start + len, |row| on_hit(t, base + row));
                }
            }),
            // The whole hash lookup collapses to a code → match table
            // computed once per block dictionary; the row walk then tests
            // packed codes without reconstructing a single value.
            Encoding::Dict => {
                let dictionary = dict::read_dictionary(block.data());
                let matches: Vec<Option<&T>> = dictionary.iter().map(|v| build.get(v)).collect();
                dict::for_each_active_code(block.data(), bw, |row, code| {
                    if let Some(t) = matches[code as usize] {
                        on_hit(t, base + row);
                    }
                });
            }
            // FOR / delta / plain stream active rows in their own domain
            // (offset rebase, prefix walk, raw reads) — parsed once, no
            // dense materialization.
            _ => block.for_each_active(bw, |row, v| {
                if let Some(t) = build.get(&v) {
                    on_hit(t, base + row);
                }
            }),
        }
    }
    stats
}

/// Probe hot rows `[lo, hi)` of a tiered column (`lo` word-aligned, at or
/// past the hot start) — the hot half of the join-probe kernel: full hot
/// blocks are pruned against `key_range` by their meta exactly as
/// [`probe_tiered_blocks_with`] prunes frozen ones, survivors and the
/// open block are a direct slice walk, one hash lookup per selected row,
/// ascending.
pub(crate) fn probe_tiered_rows_with<T>(
    tier: &TieredColumn,
    words: &[u64],
    lo: usize,
    hi: usize,
    build: &ValueMap<T>,
    key_range: Option<(Value, Value)>,
    mut on_hit: impl FnMut(&T, usize),
) -> ProbeStats {
    let mut stats = ProbeStats::default();
    for blk in tier.hot_blocks(lo, hi) {
        if let Some(meta) = blk.meta {
            let in_range = key_range.is_some_and(|(min, max)| meta.may_match_inclusive(min, max));
            if !in_range {
                if blk.starts {
                    stats.blocks_pruned += 1;
                    stats.probe_rows_skipped += meta.active;
                }
                continue;
            }
        }
        for (base, chunk, mut selected) in hot_words(&blk, words) {
            while selected != 0 {
                let bit = selected.trailing_zeros() as usize;
                selected &= selected - 1;
                if let Some(t) = build.get(&chunk[bit]) {
                    on_hit(t, base + bit);
                }
            }
        }
    }
    stats
}

/// Probe a whole tiered column against a hash table: frozen blocks in
/// compressed space, then the hot tail as a direct slice walk, both
/// behind key-range meta pruning. `on_hit` fires in ascending probe-row
/// order — identical to probing a dense materialization of the column.
pub fn probe_tiered_with<T>(
    tier: &TieredColumn,
    words: &[u64],
    build: &ValueMap<T>,
    key_range: Option<(Value, Value)>,
    mut on_hit: impl FnMut(&T, usize),
) -> ProbeStats {
    let mut stats = probe_tiered_blocks_with(
        tier,
        words,
        0,
        tier.frozen_blocks(),
        build,
        key_range,
        &mut on_hit,
    );
    stats.merge(probe_tiered_rows_with(
        tier,
        words,
        tier.hot_start(),
        tier.len(),
        build,
        key_range,
        on_hit,
    ));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::{Schema, Table};
    use amnesia_util::SimRng;

    fn table(n: usize, forget_every: usize) -> Table {
        let mut rng = SimRng::new(42);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 1000)).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        if forget_every > 0 {
            for r in (0..n).step_by(forget_every) {
                t.forget(RowId::from(r), 1).unwrap();
            }
        }
        t
    }

    fn scan(t: &Table, pred: RangePredicate) -> Vec<RowId> {
        let mut out = Vec::new();
        scan_tiered_active_into(t.col_tier(0), t.activity_words(), pred, &mut out);
        out
    }

    #[test]
    fn predicate_mask_bits_match_predicate() {
        let values: Vec<i64> = (0..64).collect();
        let m = predicate_mask(&values, 10, 20, mask_impl());
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(m >> i & 1 == 1, (10..20).contains(&v), "bit {i}");
        }
        // Short (tail) chunk: high bits stay clear.
        let m = predicate_mask(&values[..5], 0, 1000, mask_impl());
        assert_eq!(m, 0b11111);
    }

    /// `col >= lo` (the inclusive range `[lo, MAX]`) at the domain edges,
    /// on every chunk length a hot word takes and every kernel tier this
    /// CPU runs: bit `i` is `values[i] >= lo`, and no bit is set past the
    /// chunk.
    #[test]
    fn inclusive_masks_at_the_domain_edge_on_every_tier() {
        let tiers = [
            MaskImpl::Portable,
            #[cfg(target_arch = "x86_64")]
            MaskImpl::Avx2,
            #[cfg(target_arch = "x86_64")]
            MaskImpl::Avx512,
            #[cfg(target_arch = "x86_64")]
            MaskImpl::Avx512Vbmi,
        ];
        let mut rng = SimRng::new(34);
        let edges = [
            Value::MIN,
            Value::MIN + 1,
            -1,
            0,
            1,
            Value::MAX - 1,
            Value::MAX,
        ];
        let values: Vec<Value> = (0..WORD_BITS)
            .map(|i| match edges.get(i % 9) {
                Some(&e) => e,
                None => rng.next_u64() as i64,
            })
            .collect();
        for imp in tiers.into_iter().filter(|&t| t <= mask_impl()) {
            for lo in [Value::MIN, Value::MIN + 1, 0, Value::MAX] {
                for len in [1, 63, 64] {
                    let chunk = &values[..len];
                    let want = chunk
                        .iter()
                        .enumerate()
                        .fold(0u64, |m, (i, &v)| m | u64::from(v >= lo) << i);
                    assert_eq!(
                        predicate_mask_incl(chunk, lo, Value::MAX, imp),
                        want,
                        "{imp:?} lo={lo} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn clip_word_bounds() {
        // The one clipping primitive the tiered kernels lean on: a short
        // last chunk keeps only its own rows' bits, words past the slice
        // read as all-forgotten.
        assert_eq!(tail_word(&[!0, !0], 0, 64), !0);
        assert_eq!(tail_word(&[!0, !0], 1, 6), (1 << 6) - 1);
        assert_eq!(tail_word(&[!0, !0], 1, 0), 0);
        assert_eq!(tail_word(&[!0, !0], 2, 64), 0);
    }

    #[test]
    fn count_equals_scan_len() {
        let t = table(5000, 7);
        let pred = RangePredicate::new(250, 500);
        let (count, _) = count_tiered_active(t.col_tier(0), t.activity_words(), pred);
        assert_eq!(count, scan(&t, pred).len());
    }

    #[test]
    fn aggregate_empty_predicate_still_scans() {
        let t = table(100, 3);
        let (state, stats) = aggregate_tiered_active(
            t.col_tier(0),
            t.activity_words(),
            Some(RangePredicate::new(50, 10)),
        );
        assert_eq!(state.count(), 0);
        assert_eq!(stats.rows_scanned, t.active_rows());
    }

    #[test]
    fn all_selected_fast_path_engages() {
        // No forgetting, predicate matches everything: every full word
        // takes the slice-fold path; result must still be exact.
        let t = table(640, 0);
        let (state, stats) = aggregate_tiered_active(
            t.col_tier(0),
            t.activity_words(),
            Some(RangePredicate::new(0, 1000)),
        );
        assert_eq!(state.count(), 640);
        assert_eq!(stats.rows_scanned, 640);
        let expect_sum: i128 = t.col_tier(0).hot_values().iter().map(|&v| v as i128).sum();
        assert_eq!(state.sum(), expect_sum);
    }

    #[test]
    fn agg_state_extremes() {
        let mut s = AggState::new();
        s.push(i64::MAX);
        s.push(i64::MAX);
        assert_eq!(s.finalize(AggKind::Sum), Some(2.0 * i64::MAX as f64));
        assert_eq!(s.finalize(AggKind::Avg), Some(i64::MAX as f64));
        let mut other = AggState::new();
        other.push(i64::MIN);
        s.merge(&other);
        assert_eq!(s.finalize(AggKind::Min), Some(i64::MIN as f64));
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn compressed_scan_tolerates_table_grown_past_snapshot() {
        // Regression: a clone is a point-in-time snapshot; if the live
        // table grows afterwards, its activity words carry bits for rows
        // the snapshot's hot tail does not hold (the hot tail grown past
        // the frozen prefix). Those bits must be clipped, not indexed.
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&(0..1_100).collect::<Vec<i64>>(), 0)
            .unwrap();
        for r in 1_060..1_100 {
            t.forget(RowId::from(r), 1).unwrap();
        }
        t.freeze_upto(1_024);
        let snapshot = t.clone(); // covers rows 0..1100
        t.insert_batch(&(1_100..1_110).collect::<Vec<i64>>(), 1)
            .unwrap();
        let pred = RangePredicate::new(0, 2_000);
        let tier = snapshot.col_tier(0);
        let mut got = Vec::new();
        scan_tiered_active_into(tier, t.activity_words(), pred, &mut got);
        let expect: Vec<RowId> = (0..1_060).map(RowId::from).collect();
        assert_eq!(got, expect, "snapshot scan covers snapshot rows only");
        let (count, _) = count_tiered_active(tier, t.activity_words(), pred);
        assert_eq!(count, expect.len());
    }

    #[test]
    fn tiered_meta_prunes_blocks() {
        // Sorted column: block meta is tight; a narrow predicate prunes
        // every frozen block but one.
        let values: Vec<i64> = (0..8_192).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        t.freeze_upto(8_192);
        assert_eq!(t.frozen_blocks(), 8);
        let tier = t.col_tier(0);
        let pred = RangePredicate::new(3_100, 3_200); // inside block 3
        let mut out = Vec::new();
        let stats = scan_tiered_active_into(tier, t.activity_words(), pred, &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(stats.blocks_pruned, 7, "only block 3 survives");
        assert!(stats.rows_scanned <= 1024);
        // Fully-forgotten blocks prune without the payload being touched.
        let mut t2 = Table::new(Schema::single("a"));
        t2.insert_batch(&values, 0).unwrap();
        for r in 0..1_024u64 {
            t2.forget(RowId(r), 1).unwrap();
        }
        t2.freeze_upto(8_192);
        let (state, stats) = aggregate_tiered_active(t2.col_tier(0), t2.activity_words(), None);
        assert_eq!(state.count(), 8_192 - 1_024);
        assert_eq!(stats.blocks_pruned, 1, "the dead block");
    }

    /// [`tiered_meta_prunes_blocks`] on the hot tail: full hot blocks
    /// carry metas and prune by the same rule; the open last block has
    /// none and is always scanned.
    #[test]
    fn hot_meta_prunes_blocks() {
        let values: Vec<i64> = (0..8_192 + 100).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        assert_eq!(t.frozen_blocks(), 0);
        let (tier, words) = (t.col_tier(0), t.activity_words());
        let pred = RangePredicate::new(3_100, 3_200); // inside block 3
        let mut out = Vec::new();
        let stats = scan_tiered_active_into(tier, words, pred, &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(
            stats.blocks_pruned, 7,
            "only block 3 and the open block survive"
        );
        assert_eq!(stats.rows_scanned, 1_024 + 100);
        let (count, counted) = count_tiered_active(tier, words, pred);
        assert_eq!((count, counted), (100, stats));
        let (state, folded) = aggregate_tiered_active(tier, words, Some(pred));
        assert_eq!((state.count(), folded), (100, stats));
        // The open block answers although no meta covers it.
        let tail = RangePredicate::new(8_192, 9_000);
        let (count, stats) = count_tiered_active(tier, words, tail);
        assert_eq!((count, stats.blocks_pruned), (100, 8));
        // Fully forgotten hot blocks prune without a value read.
        for r in 0..1_024u64 {
            t.forget(RowId(r), 1).unwrap();
        }
        let (state, stats) = aggregate_tiered_active(t.col_tier(0), t.activity_words(), None);
        assert_eq!(state.count(), 8_192 + 100 - 1_024);
        assert_eq!(stats.blocks_pruned, 1, "the dead block");
    }

    #[test]
    fn compressed_scan_skips_forgotten_blocks() {
        // Whole first block forgotten: the scan prunes it on meta alone
        // and the survivors still answer.
        let values: Vec<i64> = (0..2_048).collect();
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&values, 0).unwrap();
        for r in 0..1_024 {
            t.forget(RowId::from(r), 1).unwrap();
        }
        t.freeze_upto(2_048);
        let mut got = Vec::new();
        let stats = scan_tiered_active_into(
            t.col_tier(0),
            t.activity_words(),
            RangePredicate::new(0, 3_000),
            &mut got,
        );
        let expect: Vec<RowId> = (1_024..2_048).map(RowId::from).collect();
        assert_eq!(got, expect);
        assert_eq!(stats.blocks_pruned, 1);
        assert_eq!(stats.rows_scanned, 1_024);
    }
}
