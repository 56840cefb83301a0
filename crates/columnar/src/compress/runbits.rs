//! Run bitmap: one bit per row marking where each run starts, and the run
//! values frame-of-reference packed.
//!
//! The codec of squashed, rotting blocks: recompression leaves runs of a
//! handful of rows, too short for rle's varint pairs to pay, too many for
//! forpack to pack each row. Here a run costs one bit per row plus one
//! packed field, and every kernel stays fixed-width.
//!
//! Layout: `⌈len/64⌉` little-endian `u64` **start words** — bit `i` of
//! word `i / 64` set iff row `i` starts a run (row 0 always does, and no
//! bit at or past `len` is set) — followed by a forpack payload of the
//! run values, one per set bit, in row order. The block's row count is
//! not stored: the caller ([`super::EncodedBlock`]) holds it.
//!
//! A row's run is its **rank**: the set start bits at or before it, less
//! one. Per start word that is the running total of the words before it
//! plus one popcount, so a point read is O(1) and a selection walk costs
//! its selected rows, never the block's runs.

use bytes::{BufMut, Bytes, BytesMut};

use super::filter::{low_ones, Band, BlockAgg, FieldAgg, Packed};
use super::forpack;
use super::Rows;
use crate::simd::{deposit, has_bit_ops, mask_impl};
use crate::types::Value;

/// Start words of a block of `len` rows.
#[inline]
fn words_of(len: usize) -> usize {
    len.div_ceil(64)
}

/// Encode as start words plus the forpack frame of the run values.
pub fn encode(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::new();
    let min = values.iter().min().copied().unwrap_or(0);
    let max = values.iter().max().copied().unwrap_or(0);
    encode_into(runs_of(values), values.len(), min, max, &mut buf);
    buf.freeze()
}

/// The maximal `(value, length)` runs of `values`.
pub(super) fn runs_of(values: &[Value]) -> impl Iterator<Item = (Value, usize)> + Clone + '_ {
    values
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
}

/// Append the payload of the `len` rows that `runs` spell out (maximal
/// runs, their values spanning exactly `min..=max`): one pass writes the
/// start words, a second packs the run values.
pub(super) fn encode_into(
    runs: impl Iterator<Item = (Value, usize)> + Clone,
    len: usize,
    min: Value,
    max: Value,
    buf: &mut BytesMut,
) {
    let (mut word, mut written, mut row, mut count) = (0u64, 0, 0, 0);
    for (_, n) in runs.clone() {
        while row / 64 > written {
            buf.put_u64_le(std::mem::take(&mut word));
            written += 1;
        }
        word |= 1 << (row % 64);
        row += n;
        count += 1;
    }
    debug_assert_eq!(row, len, "runs cover the block");
    for _ in written..words_of(len) {
        buf.put_u64_le(std::mem::take(&mut word));
    }
    if count == 0 {
        forpack::encode_into(buf, &[]);
    } else {
        forpack::encode_frame_into(buf, count, min, max, runs.map(|(v, _)| v));
    }
}

/// Exact byte length of [`encode`]`(values)`, without writing a byte.
pub fn size(values: &[Value]) -> usize {
    match (values.iter().min(), values.iter().max()) {
        (Some(&min), Some(&max)) => size_of_runs(values.len(), runs_of(values).count(), min, max),
        _ => forpack::size(&[]),
    }
}

/// [`size`] of `len ≥ 1` rows in `runs` runs whose values span
/// `min..=max`: `8·⌈len/64⌉` bytes of start words plus the run values'
/// forpack frame. O(1).
pub(super) fn size_of_runs(len: usize, runs: usize, min: Value, max: Value) -> usize {
    8 * words_of(len) + forpack::size_of_frame(runs, min, max)
}

/// A parsed non-empty payload, borrowed from the block bytes.
#[derive(Clone, Copy)]
struct Runs<'a> {
    /// The start words' bytes.
    starts: &'a [u8],
    len: usize,
    /// The run values' frame minimum and packed offsets (one per run).
    min: Value,
    values: Packed<'a>,
    /// The walks and the spread may use POPCNT and BMI2 ([`has_bit_ops`]).
    bit_ops: bool,
}

impl<'a> Runs<'a> {
    /// `None` for an empty block.
    fn parse(data: &'a [u8], len: usize) -> Option<Self> {
        let (starts, frame) = data.split_at(8 * words_of(len));
        let (min, values) = forpack::parse_header(frame)?;
        Some(Self {
            starts,
            len,
            min,
            values,
            bit_ops: has_bit_ops(mask_impl()),
        })
    }

    /// The rank of row `i`: the runs starting at or before it, less one.
    /// `before` is the runs starting before its word.
    #[inline(always)]
    fn rank(&self, before: usize, i: usize) -> usize {
        // Row 0 starts a run, so some start is at or before `i`.
        before + (self.start_word(i / 64) << (63 - i % 64)).count_ones() as usize - 1
    }

    /// Start word `w`.
    #[inline]
    fn start_word(&self, w: usize) -> u64 {
        u64::from_le_bytes(self.starts[8 * w..8 * w + 8].try_into().expect("8 bytes"))
    }

    fn words(&self) -> usize {
        words_of(self.len)
    }

    /// The value of run `r`.
    #[inline]
    fn value(&self, r: usize) -> Value {
        (self.min as i128 + self.values.get(r) as i128) as i64
    }

    /// Visit `(row, run)` for every row whose bit is set in `active`, in
    /// row order. Each row ranks on its own — one shift and one popcount
    /// of its start word on top of the runs before the word — so no visit
    /// waits on the previous one, and a walk costs O(selected rows) and
    /// one popcount per word, never the block's runs. With POPCNT where
    /// [`has_bit_ops`] allows it.
    #[inline]
    fn each_selected(&self, active: &[u64], f: impl FnMut(usize, usize)) {
        #[cfg(target_arch = "x86_64")]
        if self.bit_ops {
            // SAFETY: `bit_ops` is set only on a tier whose detection
            // required POPCNT and BMI2.
            return unsafe { each_selected_bit_ops(self, active, f) };
        }
        walk(self, active, f);
    }
}

/// [`Runs::each_selected`] compiled with POPCNT and BMI2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,bmi2")]
fn each_selected_bit_ops(runs: &Runs<'_>, active: &[u64], f: impl FnMut(usize, usize)) {
    walk(runs, active, f);
}

/// The loop of [`Runs::each_selected`].
#[inline(always)]
fn walk(runs: &Runs<'_>, active: &[u64], mut f: impl FnMut(usize, usize)) {
    let mut before = 0; // runs starting in earlier words
    for (w, &word) in active.iter().take(runs.words()).enumerate() {
        let mut selected = word & low_ones((runs.len - 64 * w).min(64) as u32);
        while selected != 0 {
            let row = 64 * w + selected.trailing_zeros() as usize;
            selected &= selected - 1;
            f(row, runs.rank(before, row));
        }
        before += runs.start_word(w).count_ones() as usize;
    }
}

/// Payload check behind `EncodedBlock::try_from_parts`: the start words
/// are all there, row 0 starts a run and no start bit lies at or past
/// `len`, and what follows is a forpack payload of exactly one value per
/// start bit (`forpack::check`: width `1..=64`, a packed region long
/// enough) — what the ranks index the run values by. O(rows / 64).
pub(super) fn check(data: &[u8], len: usize) -> Result<(), &'static str> {
    let words = words_of(len);
    if data.len() < 8 * words {
        return Err("truncated start words");
    }
    let (starts, frame) = data.split_at(8 * words);
    let mut runs = 0usize;
    for (w, bytes) in starts.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        if word & !low_ones((len - 64 * w).min(64) as u32) != 0 {
            return Err("a run starts past the block's end");
        }
        runs += word.count_ones() as usize;
    }
    if len > 0 && starts[0] & 1 == 0 {
        return Err("row 0 starts no run");
    }
    forpack::check(frame, runs)
}

/// Decode a buffer produced by [`encode`] for a block of `len` rows.
pub fn decode_into(data: &[u8], len: usize, out: &mut impl Rows) {
    for_each_run(data, len, |v, _, n| out.push_run(v, n));
}

/// Visit every run as `(value, first_row, run_len)` in row order — the
/// same primitive as [`super::rle::for_each_run`]: the run values unpack
/// in one sequential pass, each paired with the next start bit.
pub fn for_each_run(data: &[u8], len: usize, mut f: impl FnMut(Value, usize, usize)) {
    let Some(runs) = Runs::parse(data, len) else {
        return;
    };
    // Start rows in order, then `len` as the last run's end.
    let mut starts = (0..runs.words()).flat_map(|w| {
        let mut word = runs.start_word(w);
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                64 * w + bit
            })
        })
    });
    let mut start = starts.next().unwrap_or(0);
    runs.values.decode_each(|offset| {
        let end = starts.next().unwrap_or(len);
        f(
            (runs.min as i128 + offset as i128) as i64,
            start,
            end - start,
        );
        start = end;
    });
}

/// Fused decode+filter: append selection-mask words for `lo <= v < hi`.
///
/// The packed-field kernel (`Packed::filter_masks`) compares the run
/// values, one verdict bit per run, on the process's vector tier; a range
/// that misses the frame or covers it is a constant fill. The verdicts
/// then spread over the rows in place (see `spread`).
pub fn filter_range_masks(data: &[u8], len: usize, lo: Value, hi: Value, out: &mut Vec<u64>) {
    if let Some(runs) = Runs::parse(data, len) {
        filter_masks(&runs, lo, hi, out);
    }
}

/// [`filter_range_masks`] of a parsed block, depositing with `pdep` where
/// [`has_bit_ops`] allows it.
fn filter_masks(runs: &Runs<'_>, lo: Value, hi: Value, out: &mut Vec<u64>) {
    let base = out.len();
    let words = runs.words();
    match forpack::offset_band(lo, hi, runs.min, &runs.values) {
        Band::Empty => out.resize(base + words, 0),
        Band::All => {
            out.resize(base + words, u64::MAX);
            out[base + words - 1] = low_ones((runs.len - 64 * (words - 1)) as u32);
        }
        band => {
            runs.values.filter_masks(band, out);
            out.resize(base + words, 0);
            let masks = &mut out[base..];
            #[cfg(target_arch = "x86_64")]
            if runs.bit_ops {
                // SAFETY: `bit_ops` is set only on a tier whose detection
                // required POPCNT and BMI2.
                return unsafe { spread_pdep(runs, masks) };
            }
            spread::<false>(runs, masks);
        }
    }
}

/// [`spread`] with BMI2 `pdep` as the deposit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn spread_pdep(runs: &Runs<'_>, masks: &mut [u64]) {
    spread::<true>(runs, masks);
}

/// Turn `masks`, which on entry hold one verdict bit per run (then
/// zeros), into one selection word per start word, in place.
///
/// Per row word: take the verdicts of the runs starting in it, XOR each
/// with its predecessor's (the run in progress when the word begins is
/// the carry), deposit those transitions at the start bits, and
/// prefix-XOR the word with the carry. No branch depends on a run's
/// length.
///
/// In place because the words run backwards: word `w`'s runs start at
/// rank `r ≤ 64·w`, so it reads verdict words `r / 64 ≤ w` only (and
/// `w + 1` only at a zero shift), all still unwritten.
#[inline(always)]
fn spread<const PDEP: bool>(runs: &Runs<'_>, masks: &mut [u64]) {
    let mut end = runs.values.count; // runs starting before word w + 1
    for w in (0..masks.len()).rev() {
        let starts = runs.start_word(w);
        let first = end - starts.count_ones() as usize;
        end = first;
        let (q, shift) = (first / 64, first % 64);
        let next = masks.get(q + 1).copied().unwrap_or(0);
        // Verdicts of runs `first..`; the deposit takes as many as the
        // word has start bits. `(next << 1) << 63 - shift` is 0 at shift 0.
        let verdicts = masks[q] >> shift | (next << 1) << (63 - shift);
        let carry = match first.checked_sub(1) {
            Some(r) => 0u64.wrapping_sub(masks[r / 64] >> (r % 64) & 1),
            None => 0,
        };
        let changes = deposit::<PDEP>(verdicts ^ (verdicts << 1 | carry & 1), starts);
        masks[w] = prefix_xor(changes) ^ carry;
    }
    if let Some(last) = masks.last_mut() {
        *last &= low_ones((runs.len - 64 * (runs.words() - 1)) as u32);
    }
}

/// Bit `i` of the result is the XOR of bits `0..=i` of `x`.
#[inline(always)]
fn prefix_xor(mut x: u64) -> u64 {
    for shift in [1, 2, 4, 8, 16, 32] {
        x ^= x << shift;
    }
    x
}

/// Point reads: the rank prefix of the start words, built once per block
/// into the reader's scratch, makes a read one popcount and one
/// fixed-width unpack in any order.
#[derive(Clone, Copy)]
pub(super) struct Cursor<'a> {
    runs: Runs<'a>,
}

impl<'a> Cursor<'a> {
    /// `None` for an empty block; `ranks` becomes the runs starting
    /// before each start word.
    pub(super) fn new(data: &'a [u8], len: usize, ranks: &mut Vec<usize>) -> Option<Self> {
        let runs = Runs::parse(data, len)?;
        ranks.clear();
        ranks.extend((0..runs.words()).scan(0, |before, w| {
            let here = *before;
            *before += runs.start_word(w).count_ones() as usize;
            Some(here)
        }));
        Some(Self { runs })
    }

    /// The value of row `i` (`i` must be a row of the block), `ranks` as
    /// [`Self::new`] left it.
    #[inline]
    pub(super) fn get(&self, i: usize, ranks: &[usize]) -> Value {
        self.runs.value(self.runs.rank(ranks[i / 64], i))
    }
}

/// The value of row `i` (`i` must be a row of the block) read once: the
/// runs before its word are summed on the spot, where a [`Cursor`] would
/// build the whole rank prefix.
pub(super) fn value_at(data: &[u8], len: usize, i: usize) -> Value {
    let runs = Runs::parse(data, len).expect("a row of the block");
    let before = (0..i / 64)
        .map(|w| runs.start_word(w).count_ones() as usize)
        .sum();
    runs.value(runs.rank(before, i))
}

/// Visit `(row, value)` for every row whose bit is set in `active`
/// (block-local selection words), in row order: one rank and one unpack
/// per selected row, O(selected rows) in all.
pub fn for_each_active(data: &[u8], len: usize, active: &[u64], f: impl FnMut(usize, Value)) {
    if let Some(runs) = Runs::parse(data, len) {
        visit(&runs, active, f);
    }
}

/// [`for_each_active`] of a parsed block.
fn visit(runs: &Runs<'_>, active: &[u64], mut f: impl FnMut(usize, Value)) {
    runs.each_selected(active, |row, run| f(row, runs.value(run)));
}

/// Fused masked aggregate, filtered in run space: the filter compares
/// the run values once (one verdict per run, as in
/// [`filter_range_masks`]) and the verdicts spread over the rows; each
/// row that the spread verdicts and `active` both select then folds its
/// run's packed offset, and the frame base is added back once.
pub fn fold_range_masked(
    data: &[u8],
    len: usize,
    filter: Option<(Value, Value)>,
    active: &[u64],
    agg: &mut BlockAgg,
) {
    if let Some(runs) = Runs::parse(data, len) {
        fold(&runs, filter, active, agg);
    }
}

/// [`fold_range_masked`] of a parsed block.
fn fold(runs: &Runs<'_>, filter: Option<(Value, Value)>, active: &[u64], agg: &mut BlockAgg) {
    let mut selected = Vec::new();
    let active = match filter {
        None => active,
        Some((lo, hi)) => {
            filter_masks(runs, lo, hi, &mut selected);
            for (mask, &word) in selected.iter_mut().zip(active) {
                *mask &= word;
            }
            selected.truncate(active.len());
            &selected
        }
    };
    let mut fields = FieldAgg::EMPTY;
    runs.each_selected(active, |_, run| fields.push(runs.values.get(run)));
    forpack::rebase(runs.min, fields, agg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::MaskImpl;
    use amnesia_util::SimRng;

    fn decode(data: &[u8], len: usize) -> Vec<Value> {
        let mut out = Vec::new();
        decode_into(data, len, &mut out);
        out
    }

    /// Blocks of squashed runs (each row keeps the previous row's value
    /// with probability `keep`), long and short, ragged and whole.
    fn squashed(len: usize, keep: u64, seed: u64) -> Vec<Value> {
        let mut rng = SimRng::new(seed);
        let mut last = 0;
        (0..len)
            .map(|i| {
                if i == 0 || rng.below(100) >= keep {
                    last = rng.range_i64(-500, 500);
                }
                last
            })
            .collect()
    }

    fn shapes() -> Vec<Vec<Value>> {
        let mut out = vec![vec![7], vec![i64::MIN, i64::MAX, 0, 0, -1], vec![3; 130]];
        for (len, keep) in [
            (64, 50),
            (65, 0),
            (200, 70),
            (1_024, 50),
            (1_024, 95),
            (4_103, 30),
        ] {
            out.push(squashed(len, keep, len as u64 ^ keep));
        }
        // One start per row of every word, then none for two words.
        out.push((0..300).map(|i| if i < 128 { i } else { 128 }).collect());
        out
    }

    #[test]
    fn roundtrip_and_size() {
        for values in shapes() {
            let data = encode(&values);
            assert_eq!(data.len(), size(&values), "{} rows", values.len());
            check(&data, values.len()).expect("a well-formed payload");
            assert_eq!(decode(&data, values.len()), values);
        }
        let empty = encode(&[]);
        assert_eq!(empty.len(), size(&[]));
        assert!(decode(&empty, 0).is_empty());
    }

    /// Activity words over `len` rows: none, sparse, half, all (bits
    /// past `len` set too, which the kernels must ignore).
    fn activities(len: usize) -> Vec<Vec<u64>> {
        let words = len.div_ceil(64) as u64;
        let hashed = |keep: u64| {
            (0..words)
                .map(|w| {
                    (0..64).fold(0u64, |word, b| {
                        let h = (64 * w + b).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                        word | u64::from(h % 100 < keep) << b
                    })
                })
                .collect()
        };
        vec![
            vec![0; words as usize],
            hashed(3),
            hashed(50),
            vec![u64::MAX; words as usize],
        ]
    }

    /// Every kernel on every tier this CPU has: the portable deposit and
    /// walks and the `pdep` / POPCNT ones, the run values' scalar and
    /// vector compares, against the rows.
    #[test]
    fn kernels_match_the_rows_on_every_tier() {
        for values in shapes() {
            let len = values.len();
            let data = encode(&values);
            let parsed = Runs::parse(&data, len).expect("non-empty");
            for tier in MaskImpl::available() {
                let runs = Runs {
                    values: Packed::on(
                        tier,
                        parsed.values.region,
                        parsed.values.width,
                        parsed.values.count,
                    ),
                    bit_ops: has_bit_ops(tier),
                    ..parsed
                };
                let ctx = format!("{tier:?} {len} rows");
                let bounds = [
                    (-100, 100),
                    (0, 1),
                    (i64::MIN, i64::MAX),
                    (600, 700),
                    (-500, 0),
                ];
                for (lo, hi) in bounds {
                    let mut masks = vec![0xDEAD];
                    filter_masks(&runs, lo, hi, &mut masks);
                    let mut want = vec![0; 1 + len.div_ceil(64)];
                    want[0] = 0xDEAD;
                    for (i, &v) in values.iter().enumerate() {
                        want[1 + i / 64] |= u64::from((lo..hi).contains(&v)) << (i % 64);
                    }
                    assert_eq!(masks, want, "{ctx} filter [{lo}, {hi})");
                }
                for active in activities(len) {
                    let set = |i: usize| active[i / 64] >> (i % 64) & 1 == 1;
                    let mut got = Vec::new();
                    visit(&runs, &active, |row, v| got.push((row, v)));
                    let want: Vec<(usize, Value)> = (0..len)
                        .filter(|&i| set(i))
                        .map(|i| (i, values[i]))
                        .collect();
                    assert_eq!(got, want, "{ctx} visit");
                    for filter in [
                        None,
                        Some((-100, 100)),
                        Some((600, 700)),
                        Some((i64::MIN, 1)),
                    ] {
                        let mut got = BlockAgg::new();
                        fold(&runs, filter, &active, &mut got);
                        let mut want = BlockAgg::new();
                        for (i, &v) in values.iter().enumerate() {
                            if set(i) && filter.is_none_or(|(lo, hi)| (lo..hi).contains(&v)) {
                                want.push(v);
                            }
                        }
                        assert_eq!(got, want, "{ctx} fold {filter:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn point_reads_and_runs_match_the_rows() {
        let mut ranks = Vec::new();
        for values in shapes() {
            let len = values.len();
            let data = encode(&values);
            let cursor = Cursor::new(&data, len, &mut ranks).expect("non-empty");
            for i in (0..len).rev() {
                assert_eq!(cursor.get(i, &ranks), values[i], "row {i}");
                assert_eq!(value_at(&data, len, i), values[i], "one-shot row {i}");
            }
            let mut runs = Vec::new();
            for_each_run(&data, len, |v, start, n| runs.push((v, start, n)));
            let mut want = Vec::new();
            let mut start = 0;
            for (v, n) in runs_of(&values) {
                want.push((v, start, n));
                start += n;
            }
            assert_eq!(runs, want);
        }
    }
}
