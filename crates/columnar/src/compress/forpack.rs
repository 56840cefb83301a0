//! Frame-of-reference + bit-packing.
//!
//! Stores the block minimum once, then every value as `(v − min)` packed
//! at the minimal common bit width. The codec of choice for values
//! confined to a narrow band (normal data, recent epochs).

use bytes::{BufMut, Bytes, BytesMut};

use super::filter::{
    check_region, low_ones, pack_fields, packed_bytes, Band, BlockAgg, FieldAgg, Packed,
};
use super::varint::{
    read_signed, read_varint, signed_len, try_read_varint, varint_len, write_signed, write_varint,
};
use super::Rows;
use crate::types::Value;

/// Bits needed to represent `x`.
fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Field width of a frame spanning `min..=max` (the offset fits `u64`
/// even for the full `i64` span).
fn width_of(min: Value, max: Value) -> u32 {
    bits_for(max.abs_diff(min)).max(1)
}

/// Encode with frame-of-reference bit-packing.
///
/// Layout: `count varint | min zigzag-varint | width u8 | packed words`.
pub fn encode(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_into(&mut buf, values);
    buf.freeze()
}

/// [`encode`] appending to `buf`.
pub(super) fn encode_into(buf: &mut BytesMut, values: &[Value]) {
    match (values.iter().min(), values.iter().max()) {
        (Some(&min), Some(&max)) => {
            encode_frame_into(buf, values.len(), min, max, values.iter().copied())
        }
        _ => write_varint(buf, 0),
    }
}

/// [`encode_into`] of `n ≥ 1` values spanning exactly `min..=max`, read
/// once from an iterator (runbits writes its run values this way,
/// without collecting them).
pub(super) fn encode_frame_into(
    buf: &mut BytesMut,
    n: usize,
    min: Value,
    max: Value,
    values: impl Iterator<Item = Value>,
) {
    let width = width_of(min, max);
    write_varint(buf, n as u64);
    write_signed(buf, min);
    buf.put_u8(width as u8);
    pack_fields(buf, width, values.map(|v| v.abs_diff(min)));
}

/// Exact byte length of [`encode`]`(values)`, without writing a byte.
pub fn size(values: &[Value]) -> usize {
    match (values.iter().min(), values.iter().max()) {
        (Some(&min), Some(&max)) => size_of_frame(values.len(), min, max),
        _ => varint_len(0),
    }
}

/// [`size`] of `n ≥ 1` values spanning `min..=max`: the header plus
/// `ceil(n·width / 64)` packed words.
pub(super) fn size_of_frame(n: usize, min: Value, max: Value) -> usize {
    varint_len(n as u64) + signed_len(min) + 1 + packed_bytes(n, width_of(min, max))
}

/// Parse the header: the frame minimum and the packed offsets, *borrowed*
/// from `data`; `None` for an empty block.
pub(super) fn parse_header(data: &[u8]) -> Option<(Value, Packed<'_>)> {
    let mut pos = 0;
    let count = read_varint(data, &mut pos) as usize;
    if count == 0 {
        return None;
    }
    let min = read_signed(data, &mut pos);
    let offsets = Packed::new(&data[pos + 1..], data[pos].into(), count);
    Some((min, offsets))
}

/// Header check behind `EncodedBlock::try_from_parts` — everything
/// [`parse_header`] and the kernels take on trust: O(1).
pub(super) fn check(data: &[u8], len: usize) -> Result<(), &'static str> {
    let mut pos = 0;
    let count = try_read_varint(data, &mut pos).ok_or("truncated row count")?;
    if count != len as u64 {
        return Err("header row count differs from the block's");
    }
    if count == 0 {
        return Ok(());
    }
    try_read_varint(data, &mut pos).ok_or("truncated frame minimum")?;
    let width = *data.get(pos).ok_or("missing width byte")?;
    check_region(&data[pos + 1..], width, len)
}

/// `[lo, hi)` rebased once into offset space: `v` matches iff its packed
/// offset falls in `[lo − min, hi − min)`, clipped to the band the width
/// can represent — so no kernel ever adds `min` back to compare.
pub(super) fn offset_band(lo: Value, hi: Value, min: Value, offsets: &Packed<'_>) -> Band {
    let min = min as i128;
    Band::clip(lo as i128 - min, hi as i128 - min, low_ones(offsets.width))
}

/// Decode a buffer produced by [`encode`] into `out`.
pub fn decode_into(data: &[u8], out: &mut impl Rows) {
    if let Some((min, offsets)) = parse_header(data) {
        offsets.decode_each(|off| out.push((min as i128 + off as i128) as i64));
    }
}

/// Fused decode+filter: append selection-mask words for `lo <= v < hi`.
///
/// The rebased predicate (`offset_band`) runs over the packed offsets
/// 64 rows per step; a range that misses the frame or covers its whole
/// band is a constant fill that never touches the offsets.
pub fn filter_range_masks(data: &[u8], lo: Value, hi: Value, out: &mut Vec<u64>) {
    if let Some((min, offsets)) = parse_header(data) {
        offsets.filter_masks(offset_band(lo, hi, min, &offsets), out);
    }
}

/// Point reads of a parsed frame: frame-of-reference is a random-access
/// format, so with the header parsed once a read in any order is one
/// fixed-width unpack plus the minimum.
#[derive(Clone, Copy)]
pub(super) struct Cursor<'a> {
    min: Value,
    offsets: Packed<'a>,
}

impl<'a> Cursor<'a> {
    /// `None` for an empty block.
    pub(super) fn new(data: &'a [u8]) -> Option<Self> {
        parse_header(data).map(|(min, offsets)| Self { min, offsets })
    }

    /// The value of row `i` (`i` must be a row of the block).
    #[inline]
    pub(super) fn get(&self, i: usize) -> Value {
        debug_assert!(i < self.offsets.count, "row {i} out of range");
        (self.min as i128 + self.offsets.get(i) as i128) as i64
    }
}

/// Visit `(row, value)` for every row whose bit is set in `active`
/// (block-local selection words), in row order: one header parse, then
/// only the *active* offsets are read — an all-forgotten 64-row word
/// costs one load, and no `Vec<Value>` is ever materialized. This is the
/// tiered join kernels' per-row path for frame-of-reference blocks.
pub fn for_each_active(data: &[u8], active: &[u64], mut f: impl FnMut(usize, Value)) {
    if let Some((min, offsets)) = parse_header(data) {
        offsets.for_each_selected(Band::All, active, |row, off| {
            f(row, (min as i128 + off as i128) as i64)
        });
    }
}

/// Fused masked aggregate in *offset space*: the filter is rebased once
/// (`offset_band`), each 64-row group contributes `filter mask &
/// activity word`, and the frame base is added back exactly once at the
/// end — values are never reconstructed per row. On x86-64 with AVX-512
/// VBMI (widths up to 56) a block whose selection is not sparse folds
/// eight offsets per step: the octet's activity byte, narrowed by the
/// band's compare, is the write mask of one lane add, min and max. A
/// sparse selection, and every other CPU, reads only the selected offsets
/// (one point read each, or one group unpack for a densely selected
/// group). Both yield the same `u128` offset sum, so the fold is exact at
/// every width and frame.
pub fn fold_range_masked(
    data: &[u8],
    filter: Option<(Value, Value)>,
    active: &[u64],
    agg: &mut BlockAgg,
) {
    let Some((min, offsets)) = parse_header(data) else {
        return;
    };
    let band = filter.map_or(Band::All, |(lo, hi)| offset_band(lo, hi, min, &offsets));
    rebase(min, offsets.fold_selected(band, active), agg);
}

/// Fold an offset-space aggregate into `agg`, adding the frame base back.
pub(super) fn rebase(min: Value, offsets: FieldAgg, agg: &mut BlockAgg) {
    if offsets.count > 0 {
        let base = min as i128;
        agg.count += offsets.count;
        agg.sum += base * offsets.count as i128 + offsets.sum as i128;
        agg.min = agg.min.min((base + offsets.min as i128) as i64);
        agg.max = agg.max.max((base + offsets.max as i128) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::MaskImpl;

    fn decode(data: &[u8]) -> Vec<Value> {
        let mut out = Vec::new();
        decode_into(data, &mut out);
        out
    }

    #[test]
    fn narrow_band_compresses() {
        let values: Vec<i64> = (0..8192).map(|i| 1_000_000 + (i % 16)).collect();
        let data = encode(&values);
        // 4-bit width: 8192 * 4 bits = 4 KiB + header, vs 64 KiB plain.
        assert!(data.len() < 5000, "got {} bytes", data.len());
        assert_eq!(decode(&data), values);
    }

    #[test]
    fn full_span_roundtrip() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1, 42];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn constant_block_uses_width_one() {
        let values = vec![123i64; 100];
        let data = encode(&values);
        assert!(data.len() < 32, "got {} bytes", data.len());
        assert_eq!(decode(&data), values);
    }

    #[test]
    fn empty_and_single() {
        assert!(decode(&encode(&[])).is_empty());
        assert_eq!(decode(&encode(&[-7])), vec![-7]);
    }

    #[test]
    fn negative_band() {
        let values: Vec<i64> = (-500..-400).collect();
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn fused_filter_matches_decode_then_test() {
        let values: Vec<i64> = (0..300).map(|i| 1_000_000 + (i * 13) % 97).collect();
        let data = encode(&values);
        for (lo, hi) in [
            (1_000_010, 1_000_050),
            (i64::MIN, i64::MAX),   // band wider than the block
            (0, 10),                // entirely below
            (2_000_000, 3_000_000), // entirely above
        ] {
            let mut masks = Vec::new();
            filter_range_masks(&data, lo, hi, &mut masks);
            assert_eq!(masks.len(), values.len().div_ceil(64));
            for (i, &v) in values.iter().enumerate() {
                let bit = masks[i / 64] >> (i % 64) & 1;
                assert_eq!(bit == 1, (lo..hi).contains(&v), "row {i} [{lo},{hi})");
            }
        }
    }

    #[test]
    fn fused_filter_full_span_block() {
        let values = vec![i64::MIN, -1, 0, 1, i64::MAX];
        let data = encode(&values);
        let mut masks = Vec::new();
        filter_range_masks(&data, -1, 2, &mut masks);
        assert_eq!(masks, vec![0b01110]);
    }

    #[test]
    fn value_at_direct_unpack() {
        let values: Vec<i64> = (0..130).map(|i| -1000 + (i * 37) % 255).collect();
        let data = encode(&values);
        let cursor = Cursor::new(&data).expect("a non-empty block");
        for (i, &v) in values.iter().enumerate().rev() {
            assert_eq!(cursor.get(i), v, "row {i}");
        }
        let extremes = vec![i64::MIN, 0, i64::MAX];
        let data = encode(&extremes);
        let cursor = Cursor::new(&data).expect("a non-empty block");
        for (i, &v) in extremes.iter().enumerate() {
            assert_eq!(cursor.get(i), v, "extreme row {i}");
        }
        assert!(Cursor::new(&encode(&[])).is_none());
    }

    #[test]
    fn every_tier_folds_the_widest_lanes_exactly() {
        // Width 56 with every offset 2^56 − 1 over a frame minimum of
        // i64::MIN: the largest lane sums a fold can meet, over 1 025
        // groups — 256 of the vector fold's flush periods at this width.
        // The region ends the block at the minimum length `check_region`
        // accepts, so the last octet's clipped load ends at the buffer's
        // last byte.
        let count = (1 << 16) + 7;
        let mut buf = BytesMut::new();
        write_varint(&mut buf, count as u64);
        write_signed(&mut buf, i64::MIN);
        buf.put_u8(56);
        buf.extend_from_slice(&vec![0xFF; packed_bytes(count, 56)]);
        let data = buf.freeze();
        check(&data, count).expect("a well-formed block");

        let value = i64::MIN + (1 << 56) - 1;
        let want = BlockAgg {
            count: count as u64,
            sum: i128::from(value) * count as i128,
            min: value,
            max: value,
        };
        let active = vec![u64::MAX; count.div_ceil(64)];
        let mut got = BlockAgg::new();
        fold_range_masked(&data, None, &active, &mut got);
        assert_eq!(got, want);

        let (min, offsets) = parse_header(&data).expect("a non-empty block");
        let only_value = offset_band(value, value + 1, min, &offsets);
        assert!(matches!(only_value, Band::Some(_)), "a band that compares");
        for tier in MaskImpl::available() {
            let offsets = Packed::on(tier, offsets.region, offsets.width, offsets.count);
            for band in [Band::All, only_value] {
                let mut got = BlockAgg::new();
                rebase(min, offsets.fold_selected(band, &active), &mut got);
                assert_eq!(got, want, "{tier:?} {band:?}");
            }
        }
    }

    #[test]
    fn fold_range_masked_matches_reference() {
        let values: Vec<i64> = (0..180).map(|i| 1_000_000 + (i * 13) % 97).collect();
        let data = encode(&values);
        let mut active = vec![0u64; values.len().div_ceil(64)];
        for i in (0..values.len()).filter(|i| i % 5 != 2) {
            active[i / 64] |= 1 << (i % 64);
        }
        for filter in [
            None,
            Some((1_000_010i64, 1_000_050i64)),
            Some((i64::MIN, i64::MAX)),
            Some((0, 10)),
        ] {
            let mut got = BlockAgg::new();
            fold_range_masked(&data, filter, &active, &mut got);
            let mut want = BlockAgg::new();
            for (i, &v) in values.iter().enumerate() {
                if i % 5 != 2 && filter.is_none_or(|(lo, hi)| (lo..hi).contains(&v)) {
                    want.push(v);
                }
            }
            assert_eq!(got, want, "filter {filter:?}");
        }
    }
}
