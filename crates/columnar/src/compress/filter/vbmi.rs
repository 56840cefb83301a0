//! The group primitive's vector octet step (AVX-512 F + BW + VBMI).
//!
//! An octet — 8 fields of `W ≤ 56` bits — is exactly `W` bytes, and
//! field `k` of it lies in the 8-byte window at byte `k·W/8`, shifted
//! right by `k·W % 8`. One octet step is four instructions:
//!
//! 1. a masked byte load (`vmovdqu8` with zeroing) of the octet's `W`
//!    bytes, its mask clipped to the region's end, so no byte past
//!    `region.len()` is ever read and no padded copy is needed;
//! 2. a `vpermb` whose index gives 64-bit lane `k` the window at byte
//!    `k·W/8` (the highest index, `7·W/8 + 7`, is at most 56);
//! 3. a `vpsrlvq` by each lane's `k·W % 8`;
//! 4. an AND with `low_ones(W)`.
//!
//! The permutation and shift operands are per-width constants built at
//! compile time ([`TABLES`]) and loaded into registers once per region,
//! never per group: each kernel here runs a region's whole loop. Every
//! function carries its target features (the fold's density check only
//! POPCNT); the parent module calls them only on the
//! [`MaskImpl::Avx512Vbmi`](crate::simd::MaskImpl::Avx512Vbmi) tier.

use std::arch::x86_64::*;

use super::{low_ones, Band, FieldAgg, FieldRange, Packed, DENSE, GROUP};

/// The widest field the octet step serves: with a shift of at most 7, a
/// field of up to 56 bits lies wholly inside its 8-byte window.
pub(super) const MAX_WIDTH: u32 = 56;

/// One width's `vpermb` index (lane `k`, byte `b` ← octet byte
/// `k·W/8 + b`) and `vpsrlvq` counts (lane `k` ← `k·W % 8`).
struct Table {
    perm: [u8; 64],
    shift: [u64; 8],
}

/// [`Table`] per width, index 0 unused.
static TABLES: [Table; MAX_WIDTH as usize + 1] = tables();

const fn tables() -> [Table; MAX_WIDTH as usize + 1] {
    const EMPTY: Table = Table {
        perm: [0; 64],
        shift: [0; 8],
    };
    let mut tables = [EMPTY; MAX_WIDTH as usize + 1];
    let mut w = 1;
    while w <= MAX_WIDTH as usize {
        let mut k = 0;
        while k < 8 {
            let mut b = 0;
            while b < 8 {
                tables[w].perm[8 * k + b] = (k * w / 8 + b) as u8;
                b += 1;
            }
            tables[w].shift[k] = (k * w % 8) as u64;
            k += 1;
        }
        w += 1;
    }
    tables
}

/// A region's octet reader: its width's operands in registers.
struct Octets<'a> {
    region: &'a [u8],
    width: usize,
    perm: __m512i,
    shift: __m512i,
    ones: __m512i,
}

impl<'a> Octets<'a> {
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
    fn new(p: &Packed<'a>) -> Self {
        let table = &TABLES[p.width as usize];
        // SAFETY: both arrays are exactly 64 bytes, the size of one
        // unaligned 512-bit load.
        let (perm, shift) = unsafe {
            (
                _mm512_loadu_si512(table.perm.as_ptr().cast()),
                _mm512_loadu_si512(table.shift.as_ptr().cast()),
            )
        };
        Self {
            region: p.region,
            width: p.width as usize,
            perm,
            shift,
            ones: _mm512_set1_epi64(low_ones(p.width) as i64),
        }
    }

    /// The eight octets of group `g`, fields `64g + 8j..64g + 8j + 8`
    /// in octet `j`, one per lane; bytes past the region's end read as
    /// zero.
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
    fn group(&self, g: usize) -> [__m512i; 8] {
        let w = self.width;
        let start = 8 * g * w;
        // Every group but a region's last loads all its bytes.
        let whole = self.region.len() >= start + 8 * w;
        let mut octets = [_mm512_setzero_si512(); 8];
        for (j, octet) in octets.iter_mut().enumerate() {
            let at = start + j * w;
            let bytes = if whole {
                w
            } else {
                self.region.len().saturating_sub(at).min(w)
            };
            // `wrapping_add` forms an address past the region (mask 0)
            // without asserting it is in bounds; masked-off bytes are
            // neither read nor faulted on.
            let src = self.region.as_ptr().wrapping_add(at);
            // SAFETY: the mask selects bytes `at..at + bytes`, all inside
            // `region` (`bytes <= region.len() - at`).
            let raw = unsafe { _mm512_maskz_loadu_epi8((1u64 << bytes) - 1, src.cast()) };
            let windows = _mm512_permutexvar_epi8(self.perm, raw);
            *octet = _mm512_and_si512(_mm512_srlv_epi64(windows, self.shift), self.ones);
        }
        octets
    }

    /// Bit `i` of group `g` set iff field `64g + i` − `lo` ≤ `span`
    /// (unsigned; bits past the region's count are not cleared).
    #[inline]
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
    fn group_mask(&self, g: usize, lo: __m512i, span: __m512i) -> u64 {
        let mut word = 0u64;
        for (j, fields) in self.group(g).into_iter().enumerate() {
            let hits = _mm512_cmple_epu64_mask(_mm512_sub_epi64(fields, lo), span);
            word |= u64::from(hits) << (8 * j);
        }
        word
    }
}

/// The band's bounds broadcast to every lane.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
fn bounds(range: FieldRange) -> (__m512i, __m512i) {
    (
        _mm512_set1_epi64(range.lo as i64),
        _mm512_set1_epi64(range.span as i64),
    )
}

/// [`Packed::filter_masks`] for a band that must be compared: one
/// selection word per group, eight k-masks each.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
pub(super) fn filter_masks(p: &Packed<'_>, range: FieldRange, out: &mut Vec<u64>) {
    let octets = Octets::new(p);
    let (lo, span) = bounds(range);
    out.reserve(p.groups());
    for g in 0..p.groups() {
        out.push(octets.group_mask(g, lo, span) & low_ones(p.rows_in(g) as u32));
    }
}

/// [`Packed::for_each_selected`]'s loop with the octet reader built once
/// per region: per group, `activity word & filter mask` (eight k-masks
/// when the band must be compared), then the selected fields — from one
/// whole-group unpack when at least [`DENSE`] survive, else one point
/// read ([`Packed::get`]) each.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
pub(super) fn each_selected(
    p: &Packed<'_>,
    band: Band,
    active: impl Iterator<Item = u64>,
    mut visit: impl FnMut(usize, u64),
) {
    let range = match band {
        Band::Empty => return,
        Band::All => None,
        Band::Some(range) => Some(range),
    };
    let octets = Octets::new(p);
    let (lo, span) = bounds(range.unwrap_or(FieldRange::ALL));
    let mut fields = [0u64; GROUP];
    for (g, word) in (0..p.groups()).zip(active) {
        if word == 0 {
            continue;
        }
        let mut selected = word & low_ones(p.rows_in(g) as u32);
        if range.is_some() {
            selected &= octets.group_mask(g, lo, span);
        }
        let unpacked = selected.count_ones() >= DENSE;
        if unpacked {
            for (lanes, octet) in fields.chunks_exact_mut(8).zip(octets.group(g)) {
                // SAFETY: `lanes` is 8 `u64`s, exactly one unaligned
                // 512-bit store.
                unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), octet) };
            }
        }
        while selected != 0 {
            let i = selected.trailing_zeros() as usize;
            selected &= selected - 1;
            let row = g * GROUP + i;
            visit(row, if unpacked { fields[i] } else { p.get(row) });
        }
    }
}

/// [`Packed::fold_selected`]: COUNT/SUM/MIN/MAX of the fields whose
/// bit is set in `active` and which `band` holds (not [`Band::Empty`]).
///
/// Unless the non-zero words of `active` select at least `per_group`
/// rows each on average, the block is folded one point read
/// ([`Packed::get`]) per selected row: the vector fold ([`fold_octets`])
/// costs about one group unpack per touched group, whatever it selects.
/// This function runs no vector instruction (POPCNT alone), so a sparse
/// block pays none of the vector set-up.
#[target_feature(enable = "popcnt")]
pub(super) fn fold(p: &Packed<'_>, band: Band, active: &[u64], per_group: u32) -> FieldAgg {
    // Plain loops here and below: a closure would carry the target
    // features into an iterator adaptor that cannot inline it.
    let (mut rows, mut groups) = (0, 0);
    for &word in active {
        rows += word.count_ones();
        groups += u32::from(word != 0);
    }
    let range = match band {
        Band::Some(range) => range,
        _ => FieldRange::ALL,
    };
    if groups > 0 && rows >= per_group * groups {
        // SAFETY: this function's callers run it only on the tier that
        // has `fold_octets`' features.
        return unsafe { fold_octets(p, range, active) };
    }
    let mut agg = FieldAgg::EMPTY;
    for (g, &word) in active.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let mut word = word & low_ones(p.rows_in(g) as u32);
        while word != 0 {
            let field = p.get(g * GROUP + word.trailing_zeros() as usize);
            word &= word - 1;
            if range.contains(field) {
                agg.push(field);
            }
        }
    }
    agg
}

/// [`fold`] of a dense block: per octet the activity byte, narrowed by
/// the band's compare, is the write mask of one add, one min and one max
/// into eight lanes; a popcount of the group's selected word counts.
///
/// **The flush rule.** A group adds at most 8 fields below `2^W` to each
/// of the 8 lanes, so after `2^(58−W)` groups the lanes together hold
/// less than `64 · 2^W · 2^(58−W) = 2^64`: the lanes are summed in `u64`
/// and flushed into the `u128` total at least that often (every 4 groups
/// at `W = 56`), so no lane sum and no reduction can wrap.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi,popcnt")]
fn fold_octets(p: &Packed<'_>, range: FieldRange, active: &[u64]) -> FieldAgg {
    let octets = Octets::new(p);
    let (lo, span) = bounds(range);
    let zero = _mm512_setzero_si512();
    let (mut sum, mut min, mut max) = (zero, _mm512_set1_epi64(-1), zero);
    let flush_every = 1usize << (58 - p.width);
    let (mut count, mut total, mut pending) = (0u64, 0u128, 0usize);
    for (g, &word) in active.iter().enumerate() {
        let word = word & low_ones(p.rows_in(g) as u32);
        if word == 0 {
            continue;
        }
        let mut selected = 0u64;
        for (j, fields) in octets.group(g).into_iter().enumerate() {
            let keep = _mm512_mask_cmple_epu64_mask(
                (word >> (8 * j)) as u8,
                _mm512_sub_epi64(fields, lo),
                span,
            );
            sum = _mm512_mask_add_epi64(sum, keep, sum, fields);
            min = _mm512_mask_min_epu64(min, keep, min, fields);
            max = _mm512_mask_max_epu64(max, keep, max, fields);
            selected |= u64::from(keep) << (8 * j);
        }
        count += u64::from(selected.count_ones());
        pending += 1;
        if pending == flush_every {
            total += u128::from(_mm512_reduce_add_epi64(sum) as u64);
            (sum, pending) = (zero, 0);
        }
    }
    total += u128::from(_mm512_reduce_add_epi64(sum) as u64);
    FieldAgg {
        count,
        sum: total,
        min: _mm512_reduce_min_epu64(min),
        max: _mm512_reduce_max_epu64(max),
    }
}
