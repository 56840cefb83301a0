//! Run-length encoding: (value, run-length) pairs, both varint-coded.

use bytes::{Bytes, BytesMut};

use amnesia_util::bitmap::{count_set_bits_in, for_each_set_bit_in};

use super::filter::{in_range, range_width, BlockAgg, MaskWriter};
use super::varint::{
    read_signed, read_varint, signed_len, try_read_varint, varint_len, write_signed, write_varint,
};
use super::Rows;
use crate::types::Value;

/// Encode as a sequence of `(zigzag value, run length)` varint pairs.
pub fn encode(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_into(&mut buf, values);
    buf.freeze()
}

/// [`encode`] appending to `buf`.
pub(super) fn encode_into(buf: &mut BytesMut, values: &[Value]) {
    for run in values.chunk_by(|a, b| a == b) {
        write_run(buf, run[0], run.len());
    }
}

/// Append one run to an [`encode`] stream. Fed maximal runs (no two
/// neighbours share a value) it writes [`encode`]'s bytes.
pub(super) fn write_run(buf: &mut BytesMut, v: Value, len: usize) {
    write_signed(buf, v);
    write_varint(buf, len as u64);
}

/// Exact byte length of [`encode`]`(values)`, without writing a byte.
pub fn size(values: &[Value]) -> usize {
    values
        .chunk_by(|a, b| a == b)
        .map(|run| run_bytes(run[0], run.len()))
        .sum()
}

/// Bytes of one run: its value's zigzag varint and its length's varint.
#[inline]
pub(super) fn run_bytes(v: Value, len: usize) -> usize {
    signed_len(v) + varint_len(len as u64)
}

/// Payload check behind `EncodedBlock::try_from_parts`: every varint
/// ends inside the payload and the run lengths sum to exactly `len` —
/// what the run walks ([`for_each_run`], the mask writer, the tier's
/// squash) index activity words and mask words by. O(runs).
pub(super) fn check(data: &[u8], len: usize) -> Result<(), &'static str> {
    let mut pos = 0;
    let mut rows = 0u64;
    while pos < data.len() {
        try_read_varint(data, &mut pos).ok_or("truncated run value")?;
        let run = try_read_varint(data, &mut pos).ok_or("truncated run length")?;
        rows = rows
            .checked_add(run)
            .filter(|&rows| rows <= len as u64)
            .ok_or("run lengths overshoot the block")?;
    }
    if rows != len as u64 {
        return Err("run lengths fall short of the block");
    }
    Ok(())
}

/// Decode a buffer produced by [`encode`] into `out`, a run at a time.
pub fn decode_into(data: &[u8], out: &mut impl Rows) {
    let mut pos = 0;
    while pos < data.len() {
        let v = read_signed(data, &mut pos);
        let run = read_varint(data, &mut pos);
        out.push_run(v, run as usize);
    }
}

/// Fused decode+filter: append selection-mask words for `lo <= v < hi`
/// without materializing values. The run structure is the whole win here:
/// one compare per *run*, fanned out into mask words — a constant block
/// costs a handful of instructions regardless of its length.
pub fn filter_range_masks(data: &[u8], lo: Value, hi: Value, out: &mut Vec<u64>) {
    let width = range_width(lo, hi);
    let mut w = MaskWriter::new(out);
    let mut pos = 0;
    while pos < data.len() {
        let v = read_signed(data, &mut pos);
        let run = read_varint(data, &mut pos);
        w.push_run(in_range(v, lo, width), run as usize);
    }
    w.finish();
}

/// Point reads by a forward walk over the run headers (varints forbid
/// random access): a read at or after the current run walks on from it,
/// one before it restarts at the block's first run. Ascending reads
/// therefore cost O(runs) per block in total, however many there are.
#[derive(Clone, Copy)]
pub(super) struct Cursor<'a> {
    data: &'a [u8],
    /// Byte offset of the next run header.
    pos: usize,
    /// Rows `start..end` hold the current run's `value`.
    start: usize,
    end: usize,
    value: Value,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            start: 0,
            end: 0,
            value: 0,
        }
    }

    /// The value of row `i`. Panics past the block's last row.
    #[inline]
    pub(super) fn get(&mut self, i: usize) -> Value {
        if i < self.start {
            *self = Self::new(self.data);
        }
        while i >= self.end {
            assert!(
                self.pos < self.data.len(),
                "row {i} out of range for rle block of {} rows",
                self.end
            );
            self.value = read_signed(self.data, &mut self.pos);
            self.start = self.end;
            self.end += read_varint(self.data, &mut self.pos) as usize;
        }
        self.value
    }
}

/// Visit every run as `(value, first_row, run_len)` in row order — the
/// structural primitive behind the tiered join kernels: a hash probe or
/// build touches the hash table once per *run*, then fans the verdict out
/// over the run's active rows.
pub fn for_each_run(data: &[u8], mut f: impl FnMut(Value, usize, usize)) {
    let mut pos = 0;
    let mut row = 0usize;
    while pos < data.len() {
        let v = read_signed(data, &mut pos);
        let run = read_varint(data, &mut pos) as usize;
        f(v, row, run);
        row += run;
    }
}

/// Visit `(row, value)` for every row whose bit is set in `active`
/// (block-local selection words), in row order. The run value is decoded
/// once per run; an all-forgotten run costs two varint reads.
pub fn for_each_active(data: &[u8], active: &[u64], mut f: impl FnMut(usize, Value)) {
    for_each_run(data, |v, start, len| {
        for_each_set_bit_in(active, start, start + len, |row| f(row, v));
    });
}

/// Fused masked aggregate: fold COUNT/SUM/MIN/MAX of the rows whose bit is
/// set in `active` (block-local selection words) and whose value passes
/// the optional `[lo, hi)` filter — one compare plus one popcount-range
/// per *run*, never materializing values.
pub fn fold_range_masked(
    data: &[u8],
    filter: Option<(Value, Value)>,
    active: &[u64],
    agg: &mut BlockAgg,
) {
    let mut pos = 0;
    let mut row = 0usize;
    while pos < data.len() {
        let v = read_signed(data, &mut pos);
        let run = read_varint(data, &mut pos) as usize;
        let matches = match filter {
            Some((lo, hi)) => in_range(v, lo, range_width(lo, hi)),
            None => true,
        };
        if matches {
            agg.push_repeated(v, count_set_bits_in(active, row, row + run) as u64);
        }
        row += run;
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
    fn runs_compress() {
        let values = vec![7i64; 1000];
        let data = encode(&values);
        assert!(data.len() < 8, "1000 identical values fit in a few bytes");
        assert_eq!(decode(&data), values);
    }

    #[test]
    fn alternating_values_roundtrip() {
        let values: Vec<i64> = (0..100).map(|i| i % 2).collect();
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn empty_input() {
        assert!(encode(&[]).is_empty());
        assert!(decode(&[]).is_empty());
    }

    #[test]
    fn extreme_values() {
        let values = vec![i64::MIN, i64::MIN, i64::MAX];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn fused_filter_matches_decode_then_test() {
        let values: Vec<i64> = (0..300)
            .flat_map(|i| std::iter::repeat_n(i % 7, (i as usize % 5) + 1))
            .collect();
        let data = encode(&values);
        let mut masks = Vec::new();
        filter_range_masks(&data, 2, 5, &mut masks);
        assert_eq!(masks.len(), values.len().div_ceil(64));
        for (i, &v) in values.iter().enumerate() {
            let bit = masks[i / 64] >> (i % 64) & 1;
            assert_eq!(bit == 1, (2..5).contains(&v), "row {i}");
        }
    }

    #[test]
    fn value_at_walks_runs() {
        let values: Vec<i64> = (0..50)
            .flat_map(|i| std::iter::repeat_n(i * 3, (i as usize % 4) + 1))
            .collect();
        let data = encode(&values);
        // Ascending, then descending (every read restarts), then a
        // repeat and a backward jump inside one run.
        let mut cursor = Cursor::new(&data);
        let order = (0..values.len()).chain((0..values.len()).rev());
        for i in order.chain([7, 7, 6, 0, values.len() - 1]) {
            assert_eq!(cursor.get(i), values[i], "row {i}");
            assert_eq!(Cursor::new(&data).get(i), values[i], "one-shot row {i}");
        }
    }

    #[test]
    fn fold_range_masked_matches_reference() {
        let values: Vec<i64> = (0..200)
            .flat_map(|i| std::iter::repeat_n(i % 9 - 4, (i as usize % 3) + 1))
            .collect();
        let data = encode(&values);
        // Every third row active.
        let mut active = vec![0u64; values.len().div_ceil(64)];
        for i in (0..values.len()).step_by(3) {
            active[i / 64] |= 1 << (i % 64);
        }
        for filter in [None, Some((-2i64, 3i64)), Some((100, 200))] {
            let mut got = BlockAgg::new();
            fold_range_masked(&data, filter, &active, &mut got);
            let mut want = BlockAgg::new();
            for (i, &v) in values.iter().enumerate() {
                let ok = i % 3 == 0 && filter.is_none_or(|(lo, hi)| (lo..hi).contains(&v));
                if ok {
                    want.push(v);
                }
            }
            assert_eq!(got, want, "filter {filter:?}");
        }
    }
}
