//! Delta encoding: first value, then zigzag-varint differences.

use bytes::{Bytes, BytesMut};

use super::filter::{bit_set, in_range, range_width, BlockAgg, MaskWriter};
use super::varint::{read_signed, signed_len, try_read_varint, write_signed};
use super::Rows;
use crate::types::Value;

/// Encode as `v0, v1−v0, v2−v1, …` with zigzag varints.
pub fn encode(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_into(&mut buf, values);
    buf.freeze()
}

/// [`encode`] appending to `buf`; `v0` is its difference from 0.
pub(super) fn encode_into(buf: &mut BytesMut, values: &[Value]) {
    let mut prev = 0i64;
    for &v in values {
        write_signed(buf, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Exact byte length of [`encode`]`(values)`, without writing a byte:
/// the summed zigzag-varint lengths of the differences.
pub fn size(values: &[Value]) -> usize {
    let (mut bytes, mut prev) = (0, 0i64);
    for &v in values {
        bytes += signed_len(v.wrapping_sub(prev));
        prev = v;
    }
    bytes
}

/// Payload check behind `EncodedBlock::try_from_parts`: every varint
/// ends inside the payload and there are exactly `len` of them — what
/// the [`Cursor`] and the prefix walks index rows by. O(bytes).
pub(super) fn check(data: &[u8], len: usize) -> Result<(), &'static str> {
    let mut pos = 0;
    let mut values = 0usize;
    while pos < data.len() {
        try_read_varint(data, &mut pos).ok_or("truncated difference")?;
        values += 1;
        if values > len {
            return Err("more values than the block has rows");
        }
    }
    if values != len {
        return Err("fewer values than the block has rows");
    }
    Ok(())
}

/// Decode a buffer produced by [`encode`] into `out`.
pub fn decode_into(data: &[u8], out: &mut impl Rows) {
    // The first value is its own difference from 0.
    let mut pos = 0;
    let mut prev = 0i64;
    while pos < data.len() {
        prev = prev.wrapping_add(read_signed(data, &mut pos));
        out.push(prev);
    }
}

/// Fused decode+filter: append selection-mask words for `lo <= v < hi`.
///
/// Deltas force a sequential prefix-sum reconstruction, but the predicate
/// is rebased to nothing — each reconstructed value feeds the same
/// single unsigned compare as the batch kernels, and no `Vec<Value>` is
/// ever materialized.
pub fn filter_range_masks(data: &[u8], lo: Value, hi: Value, out: &mut Vec<u64>) {
    let width = range_width(lo, hi);
    let mut w = MaskWriter::new(out);
    let mut pos = 0;
    let mut prev = 0i64;
    let mut first = true;
    while pos < data.len() {
        let d = read_signed(data, &mut pos);
        let v = if first {
            first = false;
            d
        } else {
            prev.wrapping_add(d)
        };
        w.push_bit(in_range(v, lo, width));
        prev = v;
    }
    w.finish();
}

/// Point reads by a forward prefix-sum walk (deltas force sequential
/// reconstruction): a read at or after the last one sums on from it, one
/// before it restarts at the block's first row. Ascending reads therefore
/// cost O(bytes up to the last one) per block in total, and nothing past
/// the row read is touched.
#[derive(Clone, Copy)]
pub(super) struct Cursor<'a> {
    data: &'a [u8],
    /// Byte offset of row `next`'s difference.
    pos: usize,
    /// Rows summed so far; `value` is row `next − 1`'s (0 before any,
    /// which makes the first row its difference from 0).
    next: usize,
    value: Value,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            next: 0,
            value: 0,
        }
    }

    /// The value of row `i`. Panics past the block's last row.
    #[inline]
    pub(super) fn get(&mut self, i: usize) -> Value {
        if i < self.next.saturating_sub(1) {
            *self = Self::new(self.data);
        }
        while self.next <= i {
            assert!(
                self.pos < self.data.len(),
                "row {i} out of range for delta block of {} rows",
                self.next
            );
            self.value = self
                .value
                .wrapping_add(read_signed(self.data, &mut self.pos));
            self.next += 1;
        }
        self.value
    }
}

/// Visit `(row, value)` for every row whose bit is set in `active`
/// (block-local selection words), in row order. Deltas force the full
/// prefix-sum walk, but inactive rows are reconstructed and skipped
/// without a callback, and nothing is materialized — the tiered join
/// kernels' per-row path for delta blocks.
pub fn for_each_active(data: &[u8], active: &[u64], mut f: impl FnMut(usize, Value)) {
    let mut pos = 0;
    let mut prev = 0i64;
    let mut first = true;
    let mut row = 0usize;
    while pos < data.len() {
        let d = read_signed(data, &mut pos);
        let v = if first {
            first = false;
            d
        } else {
            prev.wrapping_add(d)
        };
        if bit_set(active, row) {
            f(row, v);
        }
        prev = v;
        row += 1;
    }
}

/// Fused masked aggregate: the prefix-sum walk feeds each reconstructed
/// value straight into the accumulator when its `active` bit is set and
/// the optional `[lo, hi)` filter passes — no materialization.
pub fn fold_range_masked(
    data: &[u8],
    filter: Option<(Value, Value)>,
    active: &[u64],
    agg: &mut BlockAgg,
) {
    let (lo, width, filtered) = match filter {
        Some((lo, hi)) => (lo, range_width(lo, hi), true),
        None => (0, 0, false),
    };
    let mut pos = 0;
    let mut prev = 0i64;
    let mut first = true;
    let mut row = 0usize;
    while pos < data.len() {
        let d = read_signed(data, &mut pos);
        let v = if first {
            first = false;
            d
        } else {
            prev.wrapping_add(d)
        };
        if bit_set(active, row) && (!filtered || in_range(v, lo, width)) {
            agg.push(v);
        }
        prev = v;
        row += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(data: &[u8]) -> Vec<Value> {
        let mut out = Vec::new();
        decode_into(data, &mut out);
        out
    }

    #[test]
    fn sorted_sequences_compress_well() {
        let values: Vec<i64> = (1_000_000..1_010_000).collect();
        let data = encode(&values);
        // one varint for the base + 1 byte per unit delta
        assert!(data.len() < values.len() * 2, "got {} bytes", data.len());
        assert_eq!(decode(&data), values);
    }

    #[test]
    fn unsorted_roundtrip() {
        let values = vec![5i64, -100, 42, 0, 7];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn wrapping_deltas_roundtrip() {
        let values = vec![i64::MIN, i64::MAX, i64::MIN + 1, -1, 1];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(decode(&encode(&[])).is_empty());
        assert_eq!(decode(&encode(&[99])), vec![99]);
    }

    #[test]
    fn fused_filter_matches_decode_then_test() {
        let values: Vec<i64> = (0..200).map(|i| i * 3 - 100).collect();
        let data = encode(&values);
        let mut masks = Vec::new();
        filter_range_masks(&data, -20, 70, &mut masks);
        assert_eq!(masks.len(), values.len().div_ceil(64));
        for (i, &v) in values.iter().enumerate() {
            let bit = masks[i / 64] >> (i % 64) & 1;
            assert_eq!(bit == 1, (-20..70).contains(&v), "row {i}");
        }
    }

    #[test]
    fn value_at_prefix_walk() {
        let values = vec![i64::MIN, i64::MAX, -7, 0, 42, 41];
        let data = encode(&values);
        // Ascending, descending (every read restarts), repeats.
        let mut cursor = Cursor::new(&data);
        let order = (0..values.len()).chain((0..values.len()).rev());
        for i in order.chain([3, 3, 5, 0, 0]) {
            assert_eq!(cursor.get(i), values[i], "row {i}");
            assert_eq!(Cursor::new(&data).get(i), values[i], "one-shot row {i}");
        }
    }

    #[test]
    fn check_rejects_truncated_and_extended_payloads() {
        let values = vec![i64::MIN, i64::MAX, -7, 0, 42, 41, 1 << 40];
        let data = encode(&values);
        assert_eq!(check(&data, values.len()), Ok(()));
        assert_eq!(check(&[], 0), Ok(()));
        // Every proper prefix ends inside a varint or holds too few values.
        for cut in 0..data.len() {
            assert!(check(&data[..cut], values.len()).is_err(), "cut at {cut}");
        }
        // One more value, a dangling continuation byte, a spare row.
        for tail in [&[0x00u8][..], &[0x80], &[0x02, 0xFF]] {
            let extended = [&data[..], tail].concat();
            assert!(check(&extended, values.len()).is_err(), "tail {tail:?}");
        }
        assert!(check(&data, values.len() + 1).is_err(), "a row short");
        assert!(check(&data, values.len() - 1).is_err(), "a row over");
        // An over-long varint (eleven bytes) is refused, not read.
        assert!(check(&[0x80; 11], 1).is_err());
    }

    #[test]
    fn fold_range_masked_matches_reference() {
        let values: Vec<i64> = (0..150).map(|i| i * 5 - 300).collect();
        let data = encode(&values);
        let mut active = vec![0u64; values.len().div_ceil(64)];
        for i in (0..values.len()).filter(|i| i % 4 != 1) {
            active[i / 64] |= 1 << (i % 64);
        }
        for filter in [None, Some((-100i64, 200i64)), Some((10_000, 20_000))] {
            let mut got = BlockAgg::new();
            fold_range_masked(&data, filter, &active, &mut got);
            let mut want = BlockAgg::new();
            for (i, &v) in values.iter().enumerate() {
                if i % 4 != 1 && filter.is_none_or(|(lo, hi)| (lo..hi).contains(&v)) {
                    want.push(v);
                }
            }
            assert_eq!(got, want, "filter {filter:?}");
        }
    }
}
