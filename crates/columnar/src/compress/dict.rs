//! Dictionary encoding: sorted distinct values + bit-packed codes.
//!
//! Wins on skewed (zipfian) data where a handful of hot values dominate.

use bytes::{BufMut, Bytes, BytesMut};

use super::delta;
use super::filter::{check_region, low_ones, pack_fields, packed_bytes, Band, BlockAgg, Packed};
use super::varint::{
    read_signed, read_varint, try_read_varint, varint_len, write_varint, zigzag_decode,
};
use super::Rows;
use crate::types::Value;

fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Code width of a dictionary of `dict_len ≥ 1` entries.
fn code_width(dict_len: usize) -> u32 {
    bits_for((dict_len - 1) as u64).max(1)
}

/// The dictionary of `values`: their distinct values, sorted, in the
/// vector passed in. It keeps one value per run (a caller holding runs
/// passes one value each) and is radix sorted on its offsets from the
/// minimum, a byte per pass and only as many passes as the span has
/// bytes: one for `31·i mod 100`, three for 20-bit values, where a
/// comparison sort costs about twice as much.
pub(super) fn dictionary_of(values: Vec<Value>) -> Vec<Value> {
    let mut dict = values;
    dict.dedup();
    let (Some(&min), Some(&max)) = (dict.iter().min(), dict.iter().max()) else {
        return dict;
    };
    let mut scratch = vec![0; dict.len()];
    for pass in 0..bits_for(max.abs_diff(min)).div_ceil(8) {
        let digit = |v: Value| (v.abs_diff(min) >> (8 * pass)) as usize & 0xFF;
        let mut starts = [0usize; 256];
        for &v in &dict {
            starts[digit(v)] += 1;
        }
        let mut at = 0;
        for start in &mut starts {
            (*start, at) = (at, at + *start);
        }
        for &v in &dict {
            let d = digit(v);
            scratch[starts[d]] = v;
            starts[d] += 1;
        }
        std::mem::swap(&mut dict, &mut scratch);
    }
    dict.dedup();
    dict
}

/// Encode with a sorted dictionary.
///
/// Layout: `count varint | dict_len varint | dict entries (delta-coded
/// zigzag varints) | code width u8 | packed codes`.
pub fn encode(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_into(&mut buf, values, &dictionary_of(values.to_vec()));
    buf.freeze()
}

/// [`encode`] appending to `buf`, given `dict = dictionary_of(values)`.
pub(super) fn encode_into(buf: &mut BytesMut, values: &[Value], dict: &[Value]) {
    write_varint(buf, values.len() as u64);
    if values.is_empty() {
        return;
    }
    write_varint(buf, dict.len() as u64);
    // The entries are the delta codec's stream over the dictionary.
    delta::encode_into(buf, dict);
    let width = code_width(dict.len());
    buf.put_u8(width as u8);
    let code = |v: &Value| dict.binary_search(v).expect("value is in dict") as u64;
    pack_fields(buf, width, values.iter().map(code));
}

/// Exact byte length of [`encode`]`(values)`, without writing a byte.
pub fn size(values: &[Value]) -> usize {
    size_of_dictionary(values.len(), &dictionary_of(values.to_vec()))
}

/// [`size`] of `n` values whose dictionary is `dict`: the header, the
/// entries' delta-varint lengths and `ceil(n·width / 64)` packed words.
pub(super) fn size_of_dictionary(n: usize, dict: &[Value]) -> usize {
    if n == 0 {
        return varint_len(0);
    }
    let header = varint_len(n as u64) + varint_len(dict.len() as u64) + 1;
    header + delta::size(dict) + packed_bytes(n, code_width(dict.len()))
}

/// A parsed block: the dictionary still in its delta-varint form and the
/// packed codes, both *borrowed* from the payload.
#[derive(Clone, Copy)]
struct Header<'a> {
    dict_len: usize,
    entries: &'a [u8],
    codes: Packed<'a>,
}

impl<'a> Header<'a> {
    /// Parse the header; `None` for an empty block. The dictionary is
    /// only *skipped* here (an entry ends at its first byte without the
    /// continuation bit) — whoever needs values walks [`Self::values`].
    fn parse(data: &'a [u8]) -> Option<Self> {
        let mut pos = 0;
        let count = read_varint(data, &mut pos) as usize;
        if count == 0 {
            return None;
        }
        let dict_len = read_varint(data, &mut pos) as usize;
        let start = pos;
        for _ in 0..dict_len {
            while data[pos] >= 0x80 {
                pos += 1;
            }
            pos += 1;
        }
        Some(Self {
            dict_len,
            entries: &data[start..pos],
            codes: Packed::new(&data[pos + 1..], data[pos].into(), count),
        })
    }

    /// The sorted distinct values, decoded on the fly from their deltas.
    fn values(&self) -> impl Iterator<Item = Value> + 'a {
        let entries = self.entries;
        let mut pos = 0;
        let mut prev = 0i64;
        std::iter::from_fn(move || {
            (pos < entries.len()).then(|| {
                prev = prev.wrapping_add(read_signed(entries, &mut pos));
                prev
            })
        })
    }

    /// The dictionary materialized, for callers that index it per row.
    fn dictionary(&self) -> Vec<Value> {
        let mut dict = Vec::with_capacity(self.dict_len);
        dict.extend(self.values());
        dict
    }

    /// `[lo, hi)` as a *code* interval: the dictionary is sorted, so the
    /// codes of matching values are the contiguous run between the number
    /// of entries below `lo` and the number below `hi` — one allocation-
    /// free walk over the (tiny) dictionary.
    fn code_band(&self, lo: Value, hi: Value) -> Band {
        let (mut c_lo, mut c_hi) = (0i128, 0i128);
        for v in self.values().take_while(|&v| v < hi) {
            c_lo += i128::from(v < lo);
            c_hi += 1;
        }
        Band::clip(c_lo, c_hi, self.dict_len as u64 - 1)
    }
}

/// Payload check behind `EncodedBlock::try_from_parts` — everything
/// [`Header::parse`] and the kernels take on trust: a complete, strictly
/// ascending dictionary ([`Header::code_band`] counts entries below a
/// bound), a packed region the header fits, and every code naming an
/// entry (the decoders, the per-code histogram of [`fold_range_masked`]
/// and the point reader index the dictionary by code). O(dictionary) plus
/// one band filter over the codes for `[dict_len, 2^width)`.
pub(super) fn check(data: &[u8], len: usize) -> Result<(), &'static str> {
    let mut pos = 0;
    let count = try_read_varint(data, &mut pos).ok_or("truncated row count")?;
    if count != len as u64 {
        return Err("header row count differs from the block's");
    }
    if count == 0 {
        return Ok(());
    }
    let dict_len = try_read_varint(data, &mut pos).ok_or("truncated dictionary size")?;
    // Entries are at least a byte each: bound the walk by the payload
    // before trusting a length read from it.
    if dict_len == 0 || dict_len > (data.len() - pos) as u64 {
        return Err("dictionary size impossible for the payload");
    }
    let mut prev = 0i64;
    for k in 0..dict_len {
        let delta = try_read_varint(data, &mut pos).ok_or("truncated dictionary entry")?;
        let v = prev.wrapping_add(zigzag_decode(delta));
        if k > 0 && v <= prev {
            return Err("dictionary not strictly ascending");
        }
        prev = v;
    }
    let width = *data.get(pos).ok_or("missing width byte")?;
    let region = &data[pos + 1..];
    check_region(region, width, len)?;
    let codes = Packed::new(region, width.into(), len);
    let past_the_end = Band::clip(dict_len.into(), 1i128 << width, low_ones(width.into()));
    let mut masks = Vec::with_capacity(len.div_ceil(64));
    codes.filter_masks(past_the_end, &mut masks);
    if masks.iter().any(|&w| w != 0) {
        return Err("a code past the end of the dictionary");
    }
    Ok(())
}

/// Decode a buffer produced by [`encode`] into `out`, `dictionary`
/// being its [`read_dictionary`].
pub fn decode_into(data: &[u8], dictionary: &[Value], out: &mut impl Rows) {
    if let Some(h) = Header::parse(data) {
        h.codes
            .decode_each(|code| out.push(dictionary[code as usize]));
    }
}

/// Fused decode+filter: append selection-mask words for `lo <= v < hi`.
///
/// The value predicate becomes a contiguous code interval
/// (`Header::code_band`) and the packed codes are compared 64 rows per
/// step — values are never reconstructed. An all-covered or disjoint
/// dictionary short-circuits to constant-fill masks without touching the
/// code stream at all.
pub fn filter_range_masks(data: &[u8], lo: Value, hi: Value, out: &mut Vec<u64>) {
    if let Some(h) = Header::parse(data) {
        h.codes.filter_masks(h.code_band(lo, hi), out);
    }
}

/// The sorted distinct values of a dictionary block. This is the join
/// kernels' entry point: a hash build inserts each distinct value *once*
/// and fans row ids out by code, and a hash probe translates the whole
/// lookup into a per-code match table computed with `dict_len` probes
/// instead of one per row.
pub fn read_dictionary(data: &[u8]) -> Vec<Value> {
    Header::parse(data).map_or_else(Vec::new, |h| h.dictionary())
}

/// Visit `(row, code)` for every row whose bit is set in `active`
/// (block-local selection words), in row order. The header is parsed
/// once and only the active codes are read — an all-forgotten 64-row
/// word costs one load. Pairs with [`read_dictionary`] to keep join
/// probes in code space.
pub fn for_each_active_code(data: &[u8], active: &[u64], f: impl FnMut(usize, u64)) {
    if let Some(h) = Header::parse(data) {
        h.codes.for_each_selected(Band::All, active, f);
    }
}

/// Visit `(row, value)` for active rows in row order: one dictionary
/// parse, then reads of only the active codes.
pub fn for_each_active(data: &[u8], active: &[u64], mut f: impl FnMut(usize, Value)) {
    if let Some(h) = Header::parse(data) {
        let dict = h.dictionary();
        h.codes
            .for_each_selected(Band::All, active, |row, code| f(row, dict[code as usize]));
    }
}

/// Point reads of a parsed block: one fixed-width code read, then the
/// code's entry from a scratch dictionary decoded lazily — only as far as
/// the highest code read so far — so the entries are decoded at most once
/// per block however many rows are read, in any order.
#[derive(Clone, Copy)]
pub(super) struct Cursor<'a> {
    header: Header<'a>,
    /// Byte offset in `header.entries` of the first entry not yet in the
    /// scratch dictionary, and the last entry decoded (0 before any).
    pos: usize,
    prev: Value,
}

impl<'a> Cursor<'a> {
    /// `None` for an empty block.
    pub(super) fn new(data: &'a [u8]) -> Option<Self> {
        Header::parse(data).map(|header| Self {
            header,
            pos: 0,
            prev: 0,
        })
    }

    /// The value of row `i` (`i` must be a row of the block). `dict`
    /// holds the entries this cursor decoded so far, and nothing else:
    /// empty when the cursor is new.
    #[inline]
    pub(super) fn get(&mut self, i: usize, dict: &mut Vec<Value>) -> Value {
        debug_assert!(i < self.header.codes.count, "row {i} out of range");
        let code = self.header.codes.get(i) as usize;
        if code >= dict.len() {
            // Load-time validation bounds every code by the dictionary.
            dict.reserve(self.header.dict_len - dict.len());
            while dict.len() <= code {
                self.prev = self
                    .prev
                    .wrapping_add(read_signed(self.header.entries, &mut self.pos));
                dict.push(self.prev);
            }
        }
        dict[code]
    }
}

/// Fused masked aggregate in *code space*: each 64-row group contributes
/// `code-interval mask & activity word`, the selected codes are
/// histogrammed (`counts[code] += 1` — the dictionary is tiny), and
/// COUNT/SUM/MIN/MAX fall out of `counts[c] · dict[c]` in one pass over
/// the dictionary. Values are never reconstructed per row.
pub fn fold_range_masked(
    data: &[u8],
    filter: Option<(Value, Value)>,
    active: &[u64],
    agg: &mut BlockAgg,
) {
    let Some(h) = Header::parse(data) else {
        return;
    };
    let band = filter.map_or(Band::All, |(lo, hi)| h.code_band(lo, hi));
    if band == Band::Empty {
        return;
    }
    let mut counts = vec![0u64; h.dict_len];
    h.codes
        .for_each_selected(band, active, |_, code| counts[code as usize] += 1);
    for (v, &n) in h.values().zip(&counts) {
        agg.push_repeated(v, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(data: &[u8]) -> Vec<Value> {
        let mut out = Vec::new();
        decode_into(data, &read_dictionary(data), &mut out);
        out
    }

    #[test]
    fn low_cardinality_compresses() {
        let vals = [10i64, 20, 30, 40];
        let values: Vec<i64> = (0..4096).map(|i| vals[i % 4]).collect();
        let data = encode(&values);
        // 2-bit codes: 4096*2 bits = 1 KiB + tiny dict.
        assert!(data.len() < 1200, "got {} bytes", data.len());
        assert_eq!(decode(&data), values);
    }

    #[test]
    fn high_cardinality_still_roundtrips() {
        let values: Vec<i64> = (0..1000).map(|i| i * 7919).collect();
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn extremes_roundtrip() {
        let values = vec![i64::MIN, i64::MAX, i64::MIN, 0];
        assert_eq!(decode(&encode(&values)), values);
    }

    #[test]
    fn empty_and_single() {
        assert!(decode(&encode(&[])).is_empty());
        assert_eq!(decode(&encode(&[5])), vec![5]);
    }

    #[test]
    fn single_distinct_value() {
        let values = vec![99i64; 512];
        let data = encode(&values);
        assert_eq!(decode(&data), values);
        assert!(data.len() < 100);
    }

    #[test]
    fn fused_filter_matches_decode_then_test() {
        let vals = [10i64, 20, 30, 40, 50];
        let values: Vec<i64> = (0..400).map(|i| vals[(i * 3 + i / 7) % 5]).collect();
        let data = encode(&values);
        for (lo, hi) in [
            (20, 45),       // interior code range
            (0, 100),       // covers every code: constant-fill fast path
            (60, 90),       // disjoint: constant-fill fast path
            (30, 31),       // single value
            (i64::MIN, 25), // open-ended below
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
    fn value_at_direct_lookup() {
        let vals = [i64::MIN, -3, 7, 1 << 50];
        let values: Vec<i64> = (0..200).map(|i| vals[(i * 11 + i / 3) % 4]).collect();
        let data = encode(&values);
        let mut cursor = Cursor::new(&data).expect("a non-empty block");
        let mut dict = Vec::new();
        for (i, &v) in values.iter().enumerate().rev() {
            assert_eq!(cursor.get(i, &mut dict), v, "row {i}");
            let mut one_shot = Vec::new();
            let mut fresh = Cursor::new(&data).expect("a non-empty block");
            assert_eq!(fresh.get(i, &mut one_shot), v, "one-shot row {i}");
        }
        assert_eq!(dict, vals, "every entry decoded once, in order");
    }

    #[test]
    fn fold_range_masked_matches_reference() {
        let vals = [10i64, 20, 30, 40, 50];
        let values: Vec<i64> = (0..300).map(|i| vals[(i * 3 + i / 7) % 5]).collect();
        let data = encode(&values);
        let mut active = vec![0u64; values.len().div_ceil(64)];
        for i in (0..values.len()).filter(|i| i % 2 == 0) {
            active[i / 64] |= 1 << (i % 64);
        }
        for filter in [None, Some((20i64, 45i64)), Some((60, 90)), Some((0, 100))] {
            let mut got = BlockAgg::new();
            fold_range_masked(&data, filter, &active, &mut got);
            let mut want = BlockAgg::new();
            for (i, &v) in values.iter().enumerate() {
                if i % 2 == 0 && filter.is_none_or(|(lo, hi)| (lo..hi).contains(&v)) {
                    want.push(v);
                }
            }
            assert_eq!(got, want, "filter {filter:?}");
        }
    }
}
