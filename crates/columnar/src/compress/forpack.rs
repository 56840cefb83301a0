//! Frame-of-reference + bit-packing.
//!
//! Stores the block minimum once, then every value as `(v − min)` packed
//! at the minimal common bit width. The codec of choice for values
//! confined to a narrow band (normal data, recent epochs).

use bytes::{BufMut, Bytes, BytesMut};

use super::filter::{check_region, low_ones, pack_fields, packed_bytes, Band, BlockAgg, Packed};
use super::varint::{
    read_signed, read_varint, signed_len, try_read_varint, varint_len, write_signed, write_varint,
};
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
    write_varint(buf, values.len() as u64);
    let (Some(&min), Some(&max)) = (values.iter().min(), values.iter().max()) else {
        return;
    };
    let width = width_of(min, max);
    write_signed(buf, min);
    buf.put_u8(width as u8);
    pack_fields(buf, width, values.iter().map(|&v| v.abs_diff(min)));
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
fn parse_header(data: &[u8]) -> Option<(Value, Packed<'_>)> {
    let mut pos = 0;
    let count = read_varint(data, &mut pos) as usize;
    if count == 0 {
        return None;
    }
    let min = read_signed(data, &mut pos);
    let offsets = Packed {
        region: &data[pos + 1..],
        width: data[pos].into(),
        count,
    };
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
fn offset_band(lo: Value, hi: Value, min: Value, offsets: &Packed<'_>) -> Band {
    let min = min as i128;
    Band::clip(lo as i128 - min, hi as i128 - min, low_ones(offsets.width))
}

/// Decode a buffer produced by [`encode`].
pub fn decode(data: &[u8]) -> Vec<Value> {
    let Some((min, offsets)) = parse_header(data) else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(offsets.count);
    offsets.decode_each(|off| out.push((min as i128 + off as i128) as i64));
    out
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
/// activity word`, only the selected offsets are read, and the frame base
/// is added back exactly once at the end — values are never
/// reconstructed per row.
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
    let (mut n, mut off_sum, mut off_min, mut off_max) = (0u64, 0u128, u64::MAX, 0u64);
    offsets.for_each_selected(band, active, |_, off| {
        n += 1;
        off_sum += off as u128;
        off_min = off_min.min(off);
        off_max = off_max.max(off);
    });
    if n > 0 {
        let base = min as i128;
        agg.count += n;
        agg.sum += base * n as i128 + off_sum as i128;
        agg.min = agg.min.min((base + off_min as i128) as i64);
        agg.max = agg.max.max((base + off_max as i128) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
