//! Shared machinery for the fused decode+filter paths: the mask writer
//! and the packed-field **group primitive** under forpack, dict and plain.
//!
//! # The group primitive
//!
//! Frame-of-reference offsets, dictionary codes and plain values are all
//! [`Packed`] regions: `count` fields of `width` bits, LSB-first, the
//! region padded to whole 8-byte words. A **group** is 64 consecutive
//! fields — exactly one selection-mask word of rows, and exactly `width`
//! packed words (`8·width` bytes), so group `g` starts at byte
//! `g·8·width` whatever the width. Within a group every 8 fields (an
//! *octet*) fill exactly `width` bytes, so field `k` of an octet sits at
//! the constant byte offset `k·width/8` with the constant shift
//! `k·width % 8`. A region picks its **octet step** once, when it is
//! parsed ([`Packed::new`], from the width and the process's
//! [`MaskImpl`] tier):
//!
//! * **The vector step** (x86-64 with AVX-512 F + BW + VBMI, widths
//!   1–56; the private `vbmi` module, which runs the region's whole
//!   filter, visit or fold loop): one masked byte load of the octet's
//!   `width` bytes, one `vpermb` that gives 64-bit lane `k` the 8-byte
//!   window at byte `k·width/8`, one `vpsrlvq` by `k·width % 8`, one AND
//!   with `low_ones(width)` — eight fields in four instructions, the
//!   permutation and shifts per-width constants built at compile time.
//! * **The scalar step** (every other CPU, and width 64 — the plain
//!   codec): [`each_octet`] reads each field with one unaligned 8-byte
//!   load from the borrowed block bytes, no word buffer and no per-bit
//!   loop. The width is a const generic picked by the single `match` in
//!   [`group_kernel`], so every offset and shift folds to an immediate.
//!   It is also the reference the vector step is tested against (every
//!   tier the CPU has runs in one test process), and the code CI's
//!   portable leg ([`PORTABLE_ONLY_ENV`](crate::simd::PORTABLE_ONLY_ENV))
//!   runs end to end.
//!
//! Details both steps share:
//!
//! * **Why `width ≤ 56`.** The shift is at most 7, so a field of up to 56
//!   bits lies wholly inside its 8-byte window. `width = 64` also
//!   qualifies for the scalar step (the shift is always 0). Widths 57–63
//!   can straddle nine bytes and keep the two-word [`unpack_fixed`] path,
//!   one field at a time.
//! * **The last group.** A block's final group may be ragged, and the
//!   scalar load of a group's last field may reach 8 bytes past the
//!   group: [`Packed::with_group`] runs that one group from a zero-padded
//!   stack copy, so the scalar kernels never branch on a tail and never
//!   index out of the region. The vector step needs no copy: its load
//!   mask is **clipped** to the region's end, so no byte past
//!   `region.len()` is ever read and the missing bytes read as zero.
//! * **The flush rule.** The vector fold sums eight `u64` lanes; a group
//!   adds at most eight fields below `2^width` to each, so the lanes are
//!   reduced into the `u128` total at least every `2^(58−width)` groups
//!   (every 4 at width 56), before their sum could wrap.
//!
//! On top of it: [`Packed::filter_masks`] emits one whole mask word per
//! group (eight k-masks per group on the vector step),
//! [`Packed::for_each_selected`] computes `filter mask & activity word`
//! per group and visits only the surviving fields (point reads through
//! [`Packed::get`] when the AND left few, one whole-group unpack when it
//! left [`DENSE`] or more), [`Packed::fold_selected`] folds the selected
//! fields' COUNT/SUM/MIN/MAX (masked lane adds, mins and maxes on the
//! vector step, unless the block is sparser than [`VECTOR_FOLD`]), and
//! [`Packed::decode_each`] unpacks group by group. Predicates arrive as a
//! [`Band`] — already rebased into the region's unsigned field space, with
//! the empty and whole-domain cases split off as constant fills — and
//! compare in `u64`. [`pack_fields`] is the one writer of the layout (the
//! forpack and dict encoders), and [`packed_bytes`] its exact size.
//!
//! The [`MaskWriter`] serves the codecs without fixed-width fields (rle,
//! delta): it packs bits LSB-first and zero-fills the tail of the last
//! word; [`range_width`] / [`in_range`] are the single-unsigned-compare
//! range test the batch kernels use.

use bytes::{BufMut, BytesMut};

use crate::simd::{mask_impl, MaskImpl};
use crate::types::Value;

#[cfg(target_arch = "x86_64")]
mod vbmi;

/// Streaming COUNT/SUM/MIN/MAX accumulator for the fused masked-aggregate
/// paths (`fold_range_masked`). The engine folds it into its own
/// `AggState` via one `push_block`; keeping a local type here lets the
/// codecs aggregate in their own domain without a dependency on the
/// engine crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAgg {
    /// Number of folded values.
    pub count: u64,
    /// Sum of folded values (`i128`: no `i64` input can overflow it).
    pub sum: i128,
    /// Minimum folded value (undefined when `count == 0`).
    pub min: Value,
    /// Maximum folded value (undefined when `count == 0`).
    pub max: Value,
}

impl BlockAgg {
    /// Empty accumulator.
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

    /// Fold `n` copies of the same value (the RLE fan-out).
    #[inline]
    pub fn push_repeated(&mut self, v: Value, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += v as i128 * n as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

impl Default for BlockAgg {
    fn default() -> Self {
        Self::new()
    }
}

/// Is the row's bit set in the block-local selection words?
#[inline]
pub(crate) fn bit_set(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// All-ones mask of the low `n` bits (total for `n <= 64`).
#[inline]
pub(super) fn low_ones(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The `wi`-th little-endian u64 of a packed region, 0 past the end —
/// one unaligned load, no intermediate `Vec<u64>`.
#[inline]
fn read_packed_word(region: &[u8], wi: usize) -> u64 {
    let start = wi * 8;
    match region.get(start..start + 8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("8 bytes")),
        None => 0,
    }
}

/// Read the `width`-bit field at index `i` from a fixed-width packed
/// region: one branchless two-word unpack (the adjacent words are
/// widened to `u128`, shifted, masked) — no per-bit loop, no
/// allocation, valid for any width up to 64. Shared by the dict code
/// and frame-of-reference offset random-access paths.
#[inline]
pub(super) fn unpack_fixed(region: &[u8], width: u32, i: usize) -> u64 {
    let bit = i * width as usize;
    let wi = bit / 64;
    let shift = (bit % 64) as u32;
    let pair =
        read_packed_word(region, wi) as u128 | (read_packed_word(region, wi + 1) as u128) << 64;
    ((pair >> shift) as u64) & low_ones(width)
}

/// `hi − lo` in the unsigned domain; 0 when the range is empty, so the
/// wrapping compare in [`in_range`] rejects everything.
#[inline]
pub(super) fn range_width(lo: Value, hi: Value) -> u64 {
    (hi as i128 - lo as i128).max(0) as u64
}

/// Single-compare range test: `lo <= v < hi` given `width = hi − lo`.
#[inline]
pub(super) fn in_range(v: Value, lo: Value, width: u64) -> bool {
    (v as u64).wrapping_sub(lo as u64) < width
}

/// Rows per step of the group primitive: one selection-mask word.
const GROUP: usize = 64;

/// Selected rows from which [`Packed::for_each_selected`] unpacks a whole
/// group instead of point-reading its survivors: a scalar unpack of all
/// 64 fields costs about 16 point reads. The vector unpack breaks even
/// nearer 10 (measured as for [`VECTOR_FOLD`]), but from 10 to 16 rows the
/// two legs differ by less than the run-to-run noise, so one cutoff
/// serves both tiers.
const DENSE: u32 = 16;

/// Mean selected rows per touched group from which
/// [`Packed::fold_selected`] folds a block with the vector step. The
/// vector fold pays one octet step per octet of every group with an
/// active row, whatever it selects (30–40 ns a group); the per-row path
/// one point read per selected row (6–8 ns). On forpack blocks of 1 024
/// rows at widths 7, 20 and 56, rows spread uniformly, best of 30 passes
/// over 2 000 blocks on a 2-core x86-64 VM with AVX-512 VBMI, the two
/// cross between 3 and 4 rows a group. At `scatter`'s 0.4 % (about one
/// row per touched group) the per-row fold takes a third of the vector
/// fold's time; at 50 % the vector fold takes a quarter of the per-row
/// one.
const VECTOR_FOLD: u32 = 4;

/// The most bytes a group kernel reads: a 64-bit group plus the 8-byte
/// load of its last field.
const PADDED: usize = 8 * 64 + 8;

/// An inclusive interval of a packed region's unsigned field space:
/// `field` matches iff `field − lo <= span` (wrapping). Inclusive so the
/// whole `u64` domain is expressible without widening the compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FieldRange {
    lo: u64,
    span: u64,
}

impl FieldRange {
    /// Every field: the vector fold's range when there is no filter.
    #[cfg(target_arch = "x86_64")]
    const ALL: FieldRange = FieldRange {
        lo: 0,
        span: u64::MAX,
    };

    #[inline]
    fn contains(self, field: u64) -> bool {
        field.wrapping_sub(self.lo) <= self.span
    }
}

/// A `[lo, hi)` value predicate rebased into a block's field space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Band {
    /// No field can match: constant-fill zeros, fold nothing.
    Empty,
    /// Every field matches (also "no filter"): constant-fill ones.
    All,
    /// Fields must be compared.
    Some(FieldRange),
}

impl Band {
    /// The fields in `[lo, hi)` of a region whose fields span `0..=max`.
    /// The bounds are already translated into field space (offset from the
    /// frame minimum, or dictionary code), in `i128` because `hi − min`
    /// can exceed either 64-bit domain.
    pub(super) fn clip(lo: i128, hi: i128, max: u64) -> Band {
        let lo = lo.max(0);
        let last = (hi - 1).min(max as i128);
        if last < lo {
            Band::Empty
        } else if lo == 0 && last == max as i128 {
            Band::All
        } else {
            Band::Some(FieldRange {
                lo: lo as u64,
                span: (last - lo) as u64,
            })
        }
    }

    /// `[lo, hi)` over plain blocks, whose fields are the values' own
    /// two's-complement bits: the wrapping compare needs no rebasing.
    pub(super) fn of_values(lo: Value, hi: Value) -> Band {
        match range_width(lo, hi) {
            0 => Band::Empty,
            width => Band::Some(FieldRange {
                lo: lo as u64,
                span: width - 1,
            }),
        }
    }
}

/// Visit one group of `W`-bit fields an octet at a time: `f(j, fields)`
/// receives fields `8j..8j + 8` of the group. `bytes` must hold the
/// group's `8·W` bytes plus 8 (see the module docs); every offset and
/// shift below is a compile-time constant once the inner loop unrolls.
#[inline(always)]
fn each_octet<const W: usize>(bytes: &[u8], mut f: impl FnMut(usize, [u64; 8])) {
    let bytes = &bytes[..8 * W + 8];
    let mask = low_ones(W as u32);
    for j in 0..8 {
        let octet = &bytes[j * W..j * W + W + 8];
        f(
            j,
            std::array::from_fn(|k| {
                let at = k * W / 8;
                let word = u64::from_le_bytes(octet[at..at + 8].try_into().expect("8 bytes"));
                word >> (k * W % 8) & mask
            }),
        );
    }
}

/// Selection word of one group: bit `i` set iff field `i` is in `range`.
fn group_mask<const W: usize>(bytes: &[u8], range: FieldRange) -> u64 {
    let mut word = 0u64;
    each_octet::<W>(bytes, |j, fields| {
        let mut byte = 0u64;
        for (k, field) in fields.into_iter().enumerate() {
            byte |= u64::from(range.contains(field)) << k;
        }
        word |= byte << (8 * j);
    });
    word
}

/// All 64 fields of one group.
fn group_unpack<const W: usize>(bytes: &[u8], out: &mut [u64; GROUP]) {
    each_octet::<W>(bytes, |j, fields| {
        out[8 * j..8 * j + 8].copy_from_slice(&fields)
    });
}

/// The width-specialised kernels of one scalar group step.
#[derive(Clone, Copy)]
struct GroupKernel {
    mask: fn(&[u8], FieldRange) -> u64,
    unpack: fn(&[u8], &mut [u64; GROUP]),
}

/// The one width dispatch: `None` for widths 57–63 (and anything a
/// corrupt header might claim), which stay on [`unpack_fixed`].
fn group_kernel(width: u32) -> Option<GroupKernel> {
    macro_rules! kernels {
        ($($w:literal)*) => {
            match width {
                $($w => Some(GroupKernel {
                    mask: group_mask::<$w>,
                    unpack: group_unpack::<$w>,
                }),)*
                _ => None,
            }
        };
    }
    kernels!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28
        29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 64)
}

/// Header check for a packed region read from disk: the width must be
/// `1..=64` and the region must hold `ceil(count·width / 64)` words.
pub(super) fn check_region(region: &[u8], width: u8, count: usize) -> Result<(), &'static str> {
    if !(1..=64).contains(&width) {
        return Err("field width outside 1..=64");
    }
    let bytes = count
        .checked_mul(width.into())
        .map(|bits| bits.div_ceil(64))
        .and_then(|words| words.checked_mul(8));
    if bytes.is_none_or(|b| b > region.len()) {
        return Err("packed region shorter than its header claims");
    }
    Ok(())
}

/// Bytes of a packed region of `count` fields of `width` bits: whole
/// words, `ceil(count·width / 64)` of them.
pub(super) fn packed_bytes(count: usize, width: u32) -> usize {
    8 * (count * width as usize).div_ceil(64)
}

/// Append `fields` (each below `2^width`) as a packed region, LSB-first,
/// the last word zero-padded: exactly [`packed_bytes`] bytes, which
/// [`Packed`] reads back.
pub(super) fn pack_fields(buf: &mut BytesMut, width: u32, fields: impl Iterator<Item = u64>) {
    let (mut word, mut filled) = (0u64, 0u32);
    for field in fields {
        word |= field << filled;
        filled += width;
        if filled >= 64 {
            buf.put_u64_le(word);
            filled -= 64;
            // The field's bits that did not fit start the next word.
            word = if filled == 0 {
                0
            } else {
                field >> (width - filled)
            };
        }
    }
    if filled > 0 {
        buf.put_u64_le(word);
    }
}

/// COUNT/SUM/MIN/MAX of selected fields in a region's unsigned field
/// space ([`Packed::fold_selected`]); the codec maps it back to values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct FieldAgg {
    pub(super) count: u64,
    /// `u128`: no count of 64-bit fields a block can hold overflows it.
    pub(super) sum: u128,
    /// `u64::MAX` when `count == 0`.
    pub(super) min: u64,
    /// 0 when `count == 0`.
    pub(super) max: u64,
}

impl FieldAgg {
    pub(super) const EMPTY: FieldAgg = FieldAgg {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
    };

    #[inline]
    pub(super) fn push(&mut self, field: u64) {
        self.count += 1;
        self.sum += u128::from(field);
        self.min = self.min.min(field);
        self.max = self.max.max(field);
    }
}

/// A borrowed fixed-width packed region: `count` fields of `width` bits,
/// and whether its octets take the vector step.
#[derive(Clone, Copy)]
pub(super) struct Packed<'a> {
    pub(super) region: &'a [u8],
    pub(super) width: u32,
    pub(super) count: usize,
    /// Widths 1–56 on the [`MaskImpl::Avx512Vbmi`] tier: the kernels
    /// below hand the whole region to [`vbmi`].
    #[cfg(target_arch = "x86_64")]
    vector: bool,
}

impl<'a> Packed<'a> {
    /// The region read on this process's tier ([`mask_impl`]).
    #[inline]
    pub(super) fn new(region: &'a [u8], width: u32, count: usize) -> Self {
        Self::on_tier(mask_impl(), region, width, count)
    }

    /// The region read on `tier` — the tests' way to run every tier in
    /// one process. Panics unless this CPU has `tier`: the vector kernels
    /// are only sound where their features were detected.
    #[cfg(test)]
    pub(super) fn on(tier: MaskImpl, region: &'a [u8], width: u32, count: usize) -> Self {
        assert!(tier <= mask_impl(), "{tier:?} is not available here");
        Self::on_tier(tier, region, width, count)
    }

    /// `tier` must not exceed [`mask_impl`].
    #[inline]
    fn on_tier(tier: MaskImpl, region: &'a [u8], width: u32, count: usize) -> Self {
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        Self {
            region,
            width,
            count,
            #[cfg(target_arch = "x86_64")]
            vector: tier >= MaskImpl::Avx512Vbmi && (1..=vbmi::MAX_WIDTH).contains(&width),
        }
    }
}

impl Packed<'_> {
    /// Field `i`: one unaligned 8-byte load at the field's first byte
    /// when it holds the whole field (widths up to 56 and 64, as in the
    /// group kernels, and not the region's last few bytes), else the
    /// two-word [`unpack_fixed`].
    #[inline]
    pub(super) fn get(&self, i: usize) -> u64 {
        let bit = i * self.width as usize;
        let at = bit / 8;
        if self.width <= 56 || self.width == 64 {
            if let Some(bytes) = self.region.get(at..at + 8) {
                let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
                return word >> (bit % 8) & low_ones(self.width);
            }
        }
        unpack_fixed(self.region, self.width, i)
    }

    /// Groups of the region (the last one may be ragged).
    #[inline]
    fn groups(&self) -> usize {
        self.count.div_ceil(GROUP)
    }

    /// Rows of group `g` (64 but for a ragged last group).
    #[inline]
    fn rows_in(&self, g: usize) -> usize {
        (self.count - g * GROUP).min(GROUP)
    }

    /// Run `read` on the bytes of group `g` — in place when the
    /// `8·width + 8` bytes a scalar kernel reads are all there, else (the
    /// region's last group) from a zero-padded stack copy.
    #[inline]
    fn with_group<R>(&self, g: usize, read: impl FnOnce(&[u8]) -> R) -> R {
        let group_bytes = 8 * self.width as usize;
        let rest = self.region.get(g * group_bytes..).unwrap_or(&[]);
        if rest.len() >= group_bytes + 8 {
            return read(rest);
        }
        let mut pad = [0u8; PADDED];
        pad[..rest.len()].copy_from_slice(rest);
        read(&pad)
    }

    /// Selection word of group `g` on the scalar step: bit `i` set iff
    /// field `64g + i` is in `band`, bits past `count` clear.
    #[inline]
    fn group_mask(&self, kernel: Option<GroupKernel>, g: usize, band: Band) -> u64 {
        let rows = self.rows_in(g);
        let word = match (band, kernel) {
            (Band::Empty, _) => 0,
            (Band::All, _) => u64::MAX,
            (Band::Some(range), Some(k)) => self.with_group(g, |bytes| (k.mask)(bytes, range)),
            (Band::Some(range), None) => (0..rows).fold(0, |word, i| {
                word | u64::from(range.contains(self.get(g * GROUP + i))) << i
            }),
        };
        word & low_ones(rows as u32)
    }

    /// Append one selection word per group (the mask contract): an empty
    /// or whole-domain band is a constant fill that reads no field.
    pub(super) fn filter_masks(&self, band: Band, out: &mut Vec<u64>) {
        #[cfg(target_arch = "x86_64")]
        if let (true, Band::Some(range)) = (self.vector, band) {
            // SAFETY: `vector` is set only on the tier whose features
            // `mask_impl` detected on this CPU.
            return unsafe { vbmi::filter_masks(self, range, out) };
        }
        let kernel = group_kernel(self.width);
        out.extend((0..self.groups()).map(|g| self.group_mask(kernel, g, band)));
    }

    /// COUNT/SUM/MIN/MAX of the fields [`Self::for_each_selected`] would
    /// visit. On the vector step a block whose active groups select at
    /// least [`VECTOR_FOLD`] rows each on average folds every octet of
    /// them into lanes with masked adds, mins and maxes; a sparser one,
    /// and the scalar step, visit the selected fields.
    pub(super) fn fold_selected(&self, band: Band, active: &[u64]) -> FieldAgg {
        let mut agg = FieldAgg::EMPTY;
        if band == Band::Empty {
            return agg;
        }
        let active = &active[..active.len().min(self.groups())];
        #[cfg(target_arch = "x86_64")]
        if self.vector {
            // SAFETY: as in `filter_masks`.
            return unsafe { vbmi::fold(self, band, active, VECTOR_FOLD) };
        }
        self.for_each_selected(band, active, |_, field| agg.push(field));
        agg
    }

    /// Visit `(row, field)` in row order for every row whose bit is set
    /// in `active` (one selection word per group, LSB-first; groups past
    /// its end are inactive) and whose field is in `band`: per group the
    /// filter word is ANDed with the activity word and only the surviving
    /// fields are read, so an all-forgotten or all-rejected group costs
    /// no field access at all.
    pub(super) fn for_each_selected(
        &self,
        band: Band,
        active: &[u64],
        visit: impl FnMut(usize, u64),
    ) {
        self.each_selected(band, active.iter().copied(), visit);
    }

    /// Visit every field in row order (the dense-decode path).
    pub(super) fn decode_each(&self, mut visit: impl FnMut(u64)) {
        self.each_selected(Band::All, std::iter::repeat(u64::MAX), |_, f| visit(f));
    }

    /// [`Self::for_each_selected`] over any source of activity words.
    fn each_selected(
        &self,
        band: Band,
        active: impl Iterator<Item = u64>,
        mut visit: impl FnMut(usize, u64),
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.vector {
            // SAFETY: as in `filter_masks`.
            return unsafe { vbmi::each_selected(self, band, active, visit) };
        }
        let kernel = group_kernel(self.width);
        let mut fields = [0u64; GROUP];
        for (g, word) in (0..self.groups()).zip(active) {
            if word == 0 {
                continue;
            }
            let mut selected = word & self.group_mask(kernel, g, band);
            let unpacked = kernel.filter(|_| selected.count_ones() >= DENSE);
            if let Some(k) = unpacked {
                self.with_group(g, |bytes| (k.unpack)(bytes, &mut fields));
            }
            while selected != 0 {
                let i = selected.trailing_zeros() as usize;
                selected &= selected - 1;
                let row = g * GROUP + i;
                let field = match unpacked {
                    Some(_) => fields[i],
                    None => self.get(row),
                };
                visit(row, field);
            }
        }
    }
}

/// Packs predicate bits into 64-bit selection words, LSB-first.
///
/// The writer appends one word per 64 values pushed; [`MaskWriter::finish`]
/// flushes a partial word with its unused high bits clear, so consumers
/// can AND the result with (clipped) activity words without masking again.
pub(super) struct MaskWriter<'a> {
    out: &'a mut Vec<u64>,
    word: u64,
    filled: u32,
}

impl<'a> MaskWriter<'a> {
    /// Writer appending to `out`.
    pub(super) fn new(out: &'a mut Vec<u64>) -> Self {
        Self {
            out,
            word: 0,
            filled: 0,
        }
    }

    /// Append one predicate bit.
    #[inline]
    pub(super) fn push_bit(&mut self, matched: bool) {
        self.word |= (matched as u64) << self.filled;
        self.filled += 1;
        if self.filled == 64 {
            self.out.push(self.word);
            self.word = 0;
            self.filled = 0;
        }
    }

    /// Append `len` copies of the same predicate bit (the RLE fan-out):
    /// whole matching words are emitted as `!0` with no per-bit work.
    pub(super) fn push_run(&mut self, matched: bool, mut len: usize) {
        if self.filled != 0 {
            // Fill the current partial word first.
            let take = len.min(64 - self.filled as usize);
            if matched {
                let ones = if take == 64 { !0 } else { (1u64 << take) - 1 };
                self.word |= ones << self.filled;
            }
            self.filled += take as u32;
            len -= take;
            if self.filled == 64 {
                self.out.push(self.word);
                self.word = 0;
                self.filled = 0;
            }
        }
        // Whole words at once.
        let full = if matched { !0u64 } else { 0 };
        while len >= 64 {
            self.out.push(full);
            len -= 64;
        }
        if len > 0 {
            if matched {
                self.word = (1u64 << len) - 1;
            }
            self.filled = len as u32;
        }
    }

    /// Flush any trailing partial word (high bits zero).
    pub(super) fn finish(self) {
        if self.filled > 0 {
            self.out.push(self.word);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_packs_bits_lsb_first() {
        let mut out = Vec::new();
        let mut w = MaskWriter::new(&mut out);
        for i in 0..70 {
            w.push_bit(i % 3 == 0);
        }
        w.finish();
        assert_eq!(out.len(), 2);
        for i in 0..70usize {
            let bit = out[i / 64] >> (i % 64) & 1;
            assert_eq!(bit == 1, i % 3 == 0, "bit {i}");
        }
        // Tail bits of the last word stay clear.
        assert_eq!(out[1] >> 6, 0);
    }

    #[test]
    fn runs_match_bitwise_reference() {
        let runs = [
            (true, 3usize),
            (false, 61),
            (true, 64),
            (false, 1),
            (true, 130),
        ];
        let mut fast = Vec::new();
        let mut w = MaskWriter::new(&mut fast);
        for &(m, len) in &runs {
            w.push_run(m, len);
        }
        w.finish();
        let mut slow = Vec::new();
        let mut w = MaskWriter::new(&mut slow);
        for &(m, len) in &runs {
            for _ in 0..len {
                w.push_bit(m);
            }
        }
        w.finish();
        assert_eq!(fast, slow);
    }

    #[test]
    fn block_agg_folds() {
        let mut a = BlockAgg::new();
        a.push(5);
        a.push_repeated(-2, 3);
        a.push_repeated(100, 0);
        assert_eq!(a.count, 4);
        assert_eq!(a.sum, -1);
        assert_eq!(a.min, -2);
        assert_eq!(a.max, 5);
    }

    #[test]
    fn unpack_fixed_matches_bit_reference() {
        // 200 fields of each width, packed LSB-first, then read back.
        for width in [1u32, 3, 7, 8, 13, 31, 33, 64] {
            let values: Vec<u64> = (0..200u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & low_ones(width))
                .collect();
            let mut bits = Vec::new();
            for &v in &values {
                for b in 0..width {
                    bits.push(v >> b & 1 == 1);
                }
            }
            let mut region = vec![0u8; bits.len().div_ceil(8)];
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    region[i / 8] |= 1 << (i % 8);
                }
            }
            // Pad to whole words like the encoders do.
            region.resize(region.len().div_ceil(8) * 8, 0);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(unpack_fixed(&region, width, i), v, "width {width} i {i}");
            }
        }
    }

    /// The pre-kernel read path, kept as the oracle: walk the region one
    /// field at a time through a per-bit-run `while got < width` loop.
    fn oracle_fields(region: &[u8], width: u32, count: usize) -> Vec<u64> {
        let mut bit_pos = 0usize;
        (0..count)
            .map(|_| {
                let (mut field, mut got) = (0u64, 0u32);
                while got < width {
                    let in_word = (bit_pos % 64) as u32;
                    let take = (width - got).min(64 - in_word);
                    let bits = (read_packed_word(region, bit_pos / 64) >> in_word) & low_ones(take);
                    field |= bits << got;
                    got += take;
                    bit_pos += take as usize;
                }
                field
            })
            .collect()
    }

    /// A deterministic byte soup: any bytes are a valid packed region.
    fn region_of(bytes: usize, seed: u64) -> Vec<u8> {
        (0..bytes as u64)
            .map(|i| ((i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    /// One selection word per group of `count` rows: row `r` is selected
    /// iff `pick(r)`, bits past `count` clear.
    fn words_of(count: usize, pick: impl Fn(usize) -> bool) -> Vec<u64> {
        let mut words = vec![0u64; count.div_ceil(64)];
        for r in (0..count).filter(|&r| pick(r)) {
            words[r / 64] |= 1 << (r % 64);
        }
        words
    }

    /// The activity shapes every kernel runs under: none, one row per
    /// octet, about 3 %, about 90 %, and all.
    fn activity_patterns(count: usize) -> [(&'static str, Vec<u64>); 5] {
        let hashed = |pct: u64| {
            words_of(count, move |r| {
                ((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 100 < pct
            })
        };
        [
            ("none", vec![0; count.div_ceil(64)]),
            ("one per octet", words_of(count, |r| r % 8 == r / 8 % 8)),
            ("3%", hashed(3)),
            ("90%", hashed(90)),
            ("all", words_of(count, |_| true)),
        ]
    }

    /// Every kernel tier this CPU has, in one process, at every width:
    /// decode, filter (empty, whole, and bands at both field-space edges
    /// and in the middle), visit and fold under every activity shape.
    #[test]
    fn group_kernels_match_the_per_value_oracle_at_every_width() {
        // 1 024: the last group is full; 200, 4 103: ragged. Every region
        // is allocated at its exact size, so the vector tier's clipped
        // loads run at the allocation's very end.
        let tiers: Vec<MaskImpl> = MaskImpl::available().collect();
        for width in 1..=64u32 {
            for count in [0usize, 1, 63, 64, 65, 200, 1_024, 4_103] {
                let region = region_of(packed_bytes(count, width), width.into());
                let region = region.into_boxed_slice();
                check_region(&region, width as u8, count).expect("sized to fit");
                let on = |tier| Packed::on(tier, &region, width, count);
                let want = oracle_fields(&region, width, count);
                for &tier in &tiers {
                    let mut got = Vec::new();
                    on(tier).decode_each(|f| got.push(f));
                    assert_eq!(got, want, "decode_each {tier:?} w{width} n{count}");
                }

                let max = low_ones(width);
                let quarter = i128::from(max / 4) + 1;
                let bands = [
                    Band::Empty,
                    Band::All,
                    // Both edges of the field space, and its middle.
                    Band::clip(0, quarter, max),
                    Band::clip(i128::from(max) + 1 - quarter, i128::from(max) + 1, max),
                    Band::clip(quarter, 3 * quarter, max),
                ];
                for band in bands {
                    let hit = |f: u64| match band {
                        Band::Empty => false,
                        Band::All => true,
                        Band::Some(range) => range.contains(f),
                    };
                    let masks = words_of(count, |r| hit(want[r]));
                    for &tier in &tiers {
                        let mut got = Vec::new();
                        on(tier).filter_masks(band, &mut got);
                        assert_eq!(
                            got, masks,
                            "filter_masks {tier:?} w{width} n{count} {band:?}"
                        );
                    }
                    for (shape, active) in activity_patterns(count) {
                        let visits: Vec<(usize, u64)> = (0..count)
                            .filter(|&r| bit_set(&active, r) && hit(want[r]))
                            .map(|r| (r, want[r]))
                            .collect();
                        let mut folded = FieldAgg::EMPTY;
                        visits.iter().for_each(|&(_, f)| folded.push(f));
                        for &tier in &tiers {
                            let ctx = format!("{tier:?} w{width} n{count} {band:?} {shape}");
                            let mut got = Vec::new();
                            on(tier).for_each_selected(band, &active, |row, f| got.push((row, f)));
                            assert_eq!(got, visits, "for_each_selected {ctx}");
                            assert_eq!(on(tier).fold_selected(band, &active), folded, "fold {ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_fields_read_back_at_every_width() {
        for width in 1..=64u32 {
            for count in [0usize, 1, 63, 64, 65, 200] {
                let fields: Vec<u64> = (0..count as u64)
                    .map(|i| (i ^ u64::from(width)).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .map(|f| f & low_ones(width))
                    .collect();
                let mut buf = BytesMut::new();
                pack_fields(&mut buf, width, fields.iter().copied());
                assert_eq!(buf.len(), packed_bytes(count, width), "w{width} n{count}");
                assert_eq!(
                    oracle_fields(&buf, width, count),
                    fields,
                    "w{width} n{count}"
                );
            }
        }
    }

    #[test]
    fn band_clipping_covers_the_edges() {
        let some = |lo, span| Band::Some(FieldRange { lo, span });
        // Empty and inverted ranges, ranges off either end of the fields.
        assert_eq!(Band::clip(5, 5, 100), Band::Empty);
        assert_eq!(Band::clip(9, 3, 100), Band::Empty);
        assert_eq!(Band::clip(-50, 0, 100), Band::Empty);
        assert_eq!(Band::clip(101, 500, 100), Band::Empty);
        // Whole band, exactly and generously.
        assert_eq!(Band::clip(0, 101, 100), Band::All);
        assert_eq!(Band::clip(-(1 << 70), 1 << 70, u64::MAX), Band::All);
        // Edges and clipping.
        assert_eq!(Band::clip(0, 100, 100), some(0, 99));
        assert_eq!(Band::clip(1, 101, 100), some(1, 99));
        assert_eq!(Band::clip(-7, 1, 100), some(0, 0));
        assert_eq!(Band::clip(100, 1 << 65, 100), some(100, 0));
        assert_eq!(Band::clip(1, 1 << 64, u64::MAX), some(1, u64::MAX - 1));
        // Plain values: the wrapping compare spans the sign.
        assert_eq!(Band::of_values(3, 3), Band::Empty);
        assert_eq!(Band::of_values(i64::MAX, i64::MIN), Band::Empty);
        let Band::Some(all_but_max) = Band::of_values(i64::MIN, i64::MAX) else {
            panic!("a non-empty range");
        };
        assert!(all_but_max.contains(i64::MIN as u64) && all_but_max.contains(-1i64 as u64));
        assert!(all_but_max.contains((i64::MAX - 1) as u64));
        assert!(!all_but_max.contains(i64::MAX as u64));
    }

    #[test]
    fn checked_regions_refuse_impossible_headers() {
        let region = [0u8; 64];
        assert!(check_region(&region, 8, 64).is_ok());
        assert!(check_region(&region, 64, 8).is_ok());
        assert!(check_region(&region, 1, 0).is_ok());
        assert!(check_region(&region, 0, 1).is_err());
        assert!(check_region(&region, 65, 1).is_err());
        assert!(check_region(&region, 8, 65).is_err(), "one word short");
        assert!(check_region(&region[..63], 8, 64).is_err(), "partial word");
        assert!(check_region(&region, 64, usize::MAX).is_err(), "overflow");
    }

    #[test]
    fn range_width_and_in_range() {
        assert_eq!(range_width(10, 10), 0);
        assert_eq!(range_width(10, 5), 0);
        assert_eq!(range_width(i64::MIN, i64::MAX), u64::MAX);
        let w = range_width(-5, 5);
        assert!(in_range(-5, -5, w));
        assert!(in_range(4, -5, w));
        assert!(!in_range(5, -5, w));
        assert!(!in_range(-6, -5, w));
        assert!(!in_range(i64::MIN, -5, w));
        assert!(!in_range(i64::MAX, -5, w));
    }
}
