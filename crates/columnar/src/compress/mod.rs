//! Lightweight column compression.
//!
//! Paper §4.4: "Data compression can be called upon to postpone the
//! decisions to forget data." Every byte saved stretches the storage
//! budget `DBSIZE` before any tuple must rot. This module implements six
//! codecs — plain, the classic column-store four (run-length, delta,
//! frame-of-reference bit-packing and dictionary) and a run bitmap for
//! the short runs that rotting blocks squash into — behind one
//! [`EncodedBlock`] type with an automatic chooser, so the ablation
//! experiment can quantify exactly how many batches of amnesia each codec
//! buys per distribution.
//!
//! # Choosing a codec by arithmetic
//!
//! [`EncodedBlock::encode_auto`] runs at every forgetting boundary —
//! each freeze, each recompression, each replayed tier record — so it
//! never encodes a block it will throw away. Every codec has a `size`
//! function that returns exactly what its `encode` would produce, without
//! writing a byte ([`rle::size`], [`delta::size`], [`forpack::size`],
//! [`dict::size`], [`runbits::size`]; plain is `8n`):
//!
//! * **rle** is the summed varint lengths of every run's value and length,
//! * **delta** the summed zigzag-varint lengths of the differences,
//! * **forpack** its header plus `8·⌈n·w/64⌉` bytes of packed offsets at
//!   the frame's width `w`,
//! * **dict** its header, the delta-varint lengths of the sorted distinct
//!   values and `8·⌈n·w/64⌉` bytes of packed codes,
//! * **runbits** `8·⌈n/64⌉` bytes of run-start bits plus forpack's size
//!   of the frame over one value per run, `r` of them: its header and
//!   `8·⌈r·w/64⌉` bytes. O(1) given the run count.
//!
//! Freeze sizes its rows: one pass finds the runs and the differences,
//! one sort the distinct values (whose ends are forpack's and runbits'
//! frame). Recompression sizes a squashed block by its maximal
//! `(value, length)` runs instead, never its rows (an rle or runbits
//! source never expands at all): rle is Σ `run_bytes`; delta is the
//! varint of each run's change from the previous value (the first from 0)
//! plus one zero byte per repeated row; dict sorts one value per run;
//! forpack's frame is that dictionary's ends; runbits counts the runs.
//! Either way the first smallest size in [`Encoding::ALL`] order wins —
//! the same choice, byte for byte, as encoding all six and keeping the
//! smallest — and only the winner's encoder runs; a squashed block's rle
//! or runbits is written from its runs, any other winner from its rows
//! (expanded once). Runbits is last in that order, so it wins only where
//! it is strictly smallest: short runs (at 20-bit values, a mean run below
//! about 12 rows), never long ones, where its start bits cost far more
//! than rle's few pairs.
//!
//! # The mask contract (fused decode+filter)
//!
//! Compressed data only postpones forgetting if predicates can run on it
//! without a full decode. Every codec therefore exposes a fused
//! `filter_range_masks(data, lo, hi, out)` that evaluates `lo <= v < hi`
//! in its own encoded domain and appends packed 64-bit selection words to
//! `out` — bit `i` of word `i / 64` is set iff row `i` of the block
//! matches, LSB-first, with the unused tail bits of the last word clear.
//! That is byte-for-byte the mask layout of the engine's batch kernels
//! and of [`ActivityMap::words`](crate::activity::ActivityMap::words), so
//! a block's masks AND directly with its slice of activity words and flow
//! into the same `trailing_zeros` emit loops — no row is ever
//! materialized to be rejected.
//!
//! The unit of work is the mask word. The three fixed-width codecs, and
//! runbits' run values, share one **group primitive** (the private `filter` module, whose docs have
//! the details): a *group* is 64 consecutive rows — one mask word — which
//! at `width` bits per field is exactly `width` packed words, read in
//! place from the *borrowed* block bytes eight fields (one *octet*, exactly
//! `width` bytes) at a time. On x86-64 with AVX-512 VBMI an octet of
//! width up to 56 is one masked load clipped to the region's end, one
//! byte permute, one variable shift and one AND, compared into a k-mask;
//! elsewhere, and at width 64, a width-specialised scalar step reads each
//! field with one unaligned 8-byte load. Either way the fields compare in
//! `u64` and each step emits a whole mask word. Widths 57–63 keep a
//! two-word read per field. The tier comes from the one CPU dispatch,
//! [`crate::simd::mask_impl`].
//!
//! * **forpack** rebases the predicate once into offset space
//!   (`[lo − min, hi − min)` clipped to the band the width can hold) and
//!   runs the group kernel over the packed offsets; a range that misses
//!   the frame or covers its whole band is a constant fill
//!   ([`forpack::filter_range_masks`]),
//! * **dict** translates the value range into a contiguous *code* range
//!   by one walk over the sorted dictionary and runs the same kernel over
//!   the packed codes, never reconstructing values; a disjoint or fully
//!   covered dictionary is a constant fill ([`dict::filter_range_masks`]),
//! * **plain** is the `width = 64` case of the same kernel over the raw
//!   words,
//! * **rle** compares once per *run* and fans the verdict out into whole
//!   mask words ([`rle::filter_range_masks`]),
//! * **runbits** runs forpack's rebased compare over the packed run
//!   values — one verdict bit per run — then, per row word, XORs each
//!   verdict with its predecessor's, deposits those transitions at the
//!   word's run-start bits (BMI2 `pdep` on the AVX-512 VBMI tier, a loop
//!   over the start bits elsewhere) and prefix-XORs the word with the
//!   carried verdict of the run in progress; no branch depends on a run's
//!   length ([`runbits::filter_range_masks`]),
//! * **delta** fuses the compare into the sequential prefix-sum walk, one
//!   bit at a time ([`delta::filter_range_masks`]) — the one codec still
//!   far from memory speed.
//!
//! The masked folds and visits ([`EncodedBlock::fold_range_masked`],
//! [`EncodedBlock::for_each_active`]) follow the same contract from the
//! other side: per group they AND the filter's mask word with the
//! caller's activity word, so an all-forgotten or all-rejected group
//! costs no field access. A sparse selection reads only the surviving
//! fields; forpack's fold of a dense one adds, mins and maxes whole
//! octets into vector lanes under the selection as a write mask. Runbits
//! ranks each selected row into its run with one popcount, so its visit
//! and fold cost the selected rows, not the block's runs; its fold
//! filters the runs first and weights each surviving run's value by its
//! selected rows.
//!
//! # Point reads
//!
//! Reads driven by row ids — join pairs, a sparse residual refinement —
//! go through a [`BlockReader`]: it parses a block's header once when the
//! block is opened and keeps what it parsed (a frame, a lazily decoded
//! dictionary, runbits' rank prefix, an rle or delta cursor that only
//! restarts on a backward read) until the next block, so a read is one
//! fixed-width unpack or a step of a forward walk. [`EncodedBlock::value_at`] is its one-shot
//! form.
//!
//! [`EncodedBlock::filter_range_masks`] dispatches on the block's
//! encoding; equivalence with a per-value oracle is pinned for every
//! width × length × bound × activity shape in
//! `tests/kernel_equivalence.rs`, by each codec's unit tests and by the
//! property tests below.

pub mod delta;
pub mod dict;
mod filter;
pub mod forpack;
pub mod rle;
pub mod runbits;
pub mod varint;

use std::borrow::Cow;
use std::cell::Cell;
use std::iter::repeat_n;

use amnesia_util::{storage_err, Result};
use bytes::{BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

pub(crate) use filter::bit_set;
pub use filter::BlockAgg;
use filter::{Band, Packed};

use crate::types::Value;

thread_local! {
    /// Dense block decodes performed by this thread (see
    /// [`block_decodes`]).
    static BLOCK_DECODES: Cell<u64> = const { Cell::new(0) };
}

/// Number of dense [`EncodedBlock::decode`] calls this thread has made.
///
/// The fused kernels' whole bargain is that compressed blocks stay
/// queryable *without* materializing a `Vec<Value>`; this counter lets
/// tests and benches pin that bargain — snapshot it, run a tiered
/// operator, and assert the delta is zero. Thread-local on purpose:
/// concurrently running tests cannot pollute each other's deltas.
///
/// `amnesia-lint`'s `dense` rule is this counter's static twin: decode
/// calls are banned outside whitelisted seams over every line of
/// source, not just executed paths (see `CONTRIBUTING.md`).
pub fn block_decodes() -> u64 {
    BLOCK_DECODES.with(Cell::get)
}

thread_local! {
    /// Column summaries built by this thread (see [`summary_builds`]).
    static SUMMARY_BUILDS: Cell<u64> = const { Cell::new(0) };
}

/// Number of column summaries this thread has built — the planner's
/// twin of [`block_decodes`]: a statement reads each referenced column's
/// [`ColumnSummary`](crate::tier::ColumnSummary) and builds one only
/// when a mutation since the last statement made the held one stale, so
/// the delta across a statement is the number of rebuilds it paid for.
/// Thread-local for the same reason as [`block_decodes`].
pub fn summary_builds() -> u64 {
    SUMMARY_BUILDS.with(Cell::get)
}

/// Count one summary build (the builder in [`crate::tier`] calls this).
pub(crate) fn note_summary_build() {
    SUMMARY_BUILDS.with(|c| c.set(c.get() + 1));
}

/// Available encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Encoding {
    /// Raw 8-byte little-endian values.
    Plain,
    /// Run-length: (value, run) pairs. Wins on long runs: serial keys'
    /// epochs, low-cardinality data, dropped blocks' placeholders.
    Rle,
    /// Zigzag-varint deltas. Wins on sorted / slowly-changing sequences.
    Delta,
    /// Frame-of-reference + bit-packing. Wins on values in a narrow band.
    ForPack,
    /// Dictionary + bit-packed codes. Wins on skewed (zipfian) data.
    Dict,
    /// Run-start bitmap + frame-of-reference packed run values. Wins on
    /// squashed blocks, whose runs are too short for rle.
    RunBits,
}

impl Encoding {
    /// All encodings, for sweeps.
    pub const ALL: [Encoding; 6] = [
        Encoding::Plain,
        Encoding::Rle,
        Encoding::Delta,
        Encoding::ForPack,
        Encoding::Dict,
        Encoding::RunBits,
    ];

    /// Stable short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Plain => "plain",
            Encoding::Rle => "rle",
            Encoding::Delta => "delta",
            Encoding::ForPack => "forpack",
            Encoding::Dict => "dict",
            Encoding::RunBits => "runbits",
        }
    }

    /// Stable on-disk tag (snapshot format).
    pub fn tag(self) -> u8 {
        match self {
            Encoding::Plain => 0,
            Encoding::Rle => 1,
            Encoding::Delta => 2,
            Encoding::ForPack => 3,
            Encoding::Dict => 4,
            Encoding::RunBits => 5,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(tag: u8) -> Option<Encoding> {
        Some(match tag {
            0 => Encoding::Plain,
            1 => Encoding::Rle,
            2 => Encoding::Delta,
            3 => Encoding::ForPack,
            4 => Encoding::Dict,
            5 => Encoding::RunBits,
            _ => return None,
        })
    }

    /// Check a payload read from disk before any kernel indexes by it:
    /// the rules [`EncodedBlock::try_from_parts`] lists, on the bytes
    /// where they lie. A payload that passes decodes to exactly `len`
    /// rows.
    pub fn check(self, data: &[u8], len: usize) -> Result<()> {
        let checked = match self {
            Encoding::Plain if len.checked_mul(8) != Some(data.len()) => {
                Err("payload is not 8 bytes per row")
            }
            Encoding::Rle => rle::check(data, len),
            Encoding::Delta => delta::check(data, len),
            Encoding::ForPack => forpack::check(data, len),
            Encoding::Dict => dict::check(data, len),
            Encoding::RunBits => runbits::check(data, len),
            Encoding::Plain => Ok(()),
        };
        checked.map_err(|why| storage_err!("corrupt {} block of {len} rows: {why}", self.name()))
    }

    /// Decode the `len` rows of a payload this codec wrote (or one that
    /// passed [`Self::check`]) into `out`, in row order, bumping this
    /// thread's [`block_decodes`]. A dict payload indexes its sorted
    /// distinct values: `dictionary` holds them when the caller read them
    /// ahead ([`dict::read_dictionary`]); `None` reads them here, into a
    /// buffer of their own. Every other codec ignores it. Nothing else is
    /// allocated: a sink with room for `len` rows is never grown.
    pub fn decode_into(
        self,
        data: &[u8],
        len: usize,
        dictionary: Option<&[Value]>,
        out: &mut impl Rows,
    ) {
        BLOCK_DECODES.with(|c| c.set(c.get() + 1));
        match self {
            Encoding::Plain => {
                for c in data.chunks_exact(8) {
                    let mut word = [0; 8];
                    word.copy_from_slice(c);
                    out.push(i64::from_le_bytes(word));
                }
            }
            Encoding::Rle => rle::decode_into(data, out),
            Encoding::Delta => delta::decode_into(data, out),
            Encoding::ForPack => forpack::decode_into(data, out),
            Encoding::Dict => match dictionary {
                Some(d) => dict::decode_into(data, d, out),
                None => dict::decode_into(data, &dict::read_dictionary(data), out),
            },
            Encoding::RunBits => runbits::decode_into(data, len, out),
        }
    }
}

/// Where a decode writes its rows, in row order: a `Vec` reserved at the
/// block's row count, or a column's hot tail
/// ([`TieredColumn`](crate::tier::TieredColumn)), which seals each
/// block's meta as the block fills, while its rows are in cache.
pub trait Rows {
    /// Append one row.
    fn push(&mut self, v: Value);
    /// Append `n` rows of `v`.
    fn push_run(&mut self, v: Value, n: usize);
}

impl Rows for Vec<Value> {
    #[inline]
    fn push(&mut self, v: Value) {
        Vec::push(self, v);
    }

    #[inline]
    fn push_run(&mut self, v: Value, n: usize) {
        self.extend(repeat_n(v, n));
    }
}

/// An immutable compressed block of values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedBlock {
    encoding: Encoding,
    #[serde(with = "serde_bytes_compat")]
    data: Bytes,
    len: usize,
}

/// Minimal serde adapter for `bytes::Bytes` (`Vec<u8>` passthrough).
// The offline serde shim's no-op derive never references `with` helpers,
// so these are only exercised when building against real serde.
#[allow(dead_code)]
mod serde_bytes_compat {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        b.as_ref().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        Ok(Bytes::from(Vec::<u8>::deserialize(d)?))
    }
}

impl EncodedBlock {
    /// Encode `values` with a specific encoding.
    pub fn encode(values: &[Value], encoding: Encoding) -> Self {
        let data = match encoding {
            Encoding::Plain => plain_encode(values),
            Encoding::Rle => rle::encode(values),
            Encoding::Delta => delta::encode(values),
            Encoding::ForPack => forpack::encode(values),
            Encoding::Dict => dict::encode(values),
            Encoding::RunBits => runbits::encode(values),
        };
        Self {
            encoding,
            data,
            len: values.len(),
        }
    }

    /// Encode with whichever encoding yields the fewest bytes, ties going
    /// to the first in [`Encoding::ALL`] order. The choice is made on
    /// exact sizes computed without writing a byte (the sizing rule is in
    /// the module docs); only the winner's encoder runs, into a buffer
    /// reserved at its known size.
    pub fn encode_auto(values: &[Value]) -> Self {
        let sizes = BlockSizes::of(values);
        sizes.encode(sizes.smallest())
    }

    /// Decode back to the original values.
    ///
    /// This is the *dense materialization* path the fused kernels exist
    /// to avoid; every call bumps the thread's [`block_decodes`] counter
    /// so tests and benches can assert a tiered operator never took it.
    pub fn decode(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_into(&mut out);
        out
    }

    /// [`Self::decode`] appending to `out`, which the caller sized: with
    /// room for [`Self::len`] more rows it is never grown
    /// ([`Encoding::decode_into`]).
    pub fn decode_into(&self, out: &mut impl Rows) {
        self.encoding.decode_into(&self.data, self.len, None, out);
    }

    /// Fused decode+filter: replace `out` with one selection-mask word
    /// per 64 encoded rows, bit `i` of word `i / 64` set iff
    /// `lo <= value[i] < hi` (see the module docs for the full mask
    /// contract). Runs in the codec's own domain — values are never
    /// materialized — and costs O(compressed size), not O(rows), for
    /// codecs with exploitable structure (whole RLE runs, and ranges that
    /// miss or cover a dictionary or a frame, collapse to constant fills;
    /// runbits compares one packed value per run).
    pub fn filter_range_masks(&self, lo: Value, hi: Value, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.len.div_ceil(64));
        match self.encoding {
            Encoding::Plain => plain_fields(&self.data).filter_masks(Band::of_values(lo, hi), out),
            Encoding::Rle => rle::filter_range_masks(&self.data, lo, hi, out),
            Encoding::Delta => delta::filter_range_masks(&self.data, lo, hi, out),
            Encoding::ForPack => forpack::filter_range_masks(&self.data, lo, hi, out),
            Encoding::Dict => dict::filter_range_masks(&self.data, lo, hi, out),
            Encoding::RunBits => runbits::filter_range_masks(&self.data, self.len, lo, hi, out),
        }
        debug_assert_eq!(out.len(), self.len.div_ceil(64));
    }

    /// Value at row `i` without decoding the block: the one-shot form of
    /// [`Self::reader`], behind `Table::value` on frozen rows. Plain and
    /// frame-of-reference blocks read one fixed-width field; runbits sums
    /// its start words' popcounts, then reads one packed run value; dict
    /// reads one code, then decodes its dictionary up to that code; rle
    /// walks run headers and delta prefix-sums up to `i`. Panics if
    /// `i >= len`.
    pub fn value_at(&self, i: usize) -> Value {
        assert!(
            i < self.len,
            "row {i} out of range for block of {} rows",
            self.len
        );
        match self.encoding {
            Encoding::RunBits => runbits::value_at(&self.data, self.len, i),
            _ => self.reader().get(i),
        }
    }

    /// A [`BlockReader`] over this block: point reads that parse its
    /// header once.
    pub fn reader(&self) -> BlockReader<'_> {
        let mut reader = BlockReader::default();
        reader.open(self);
        reader
    }

    /// Visit `(row, value)` for every block-local row whose bit is set in
    /// `active` (block-local selection words, LSB-first), in ascending
    /// row order, *without decoding the block*. Each codec walks in its
    /// own domain: RLE decodes a run's value once and fans it over the
    /// run's active bits, runbits ranks each active row into its run and
    /// reads one packed value per run it touches, dict parses the
    /// dictionary once and reads only active codes, FOR and plain read
    /// only active fields (an all-forgotten 64-row word costs one load),
    /// delta reconstructs inside the prefix-sum walk. This is the streaming primitive the
    /// tiered hash-join build side feeds its hash table from.
    pub fn for_each_active(&self, active: &[u64], mut f: impl FnMut(usize, Value)) {
        match self.encoding {
            Encoding::Plain => {
                plain_fields(&self.data)
                    .for_each_selected(Band::All, active, |i, v| f(i, v as i64));
            }
            Encoding::Rle => rle::for_each_active(&self.data, active, f),
            Encoding::Delta => delta::for_each_active(&self.data, active, f),
            Encoding::ForPack => forpack::for_each_active(&self.data, active, f),
            Encoding::Dict => dict::for_each_active(&self.data, active, f),
            Encoding::RunBits => runbits::for_each_active(&self.data, self.len, active, f),
        }
    }

    /// Visit the block as `(value, first_row, run_len)` in row order — the
    /// structural primitive behind the tiered join kernels and
    /// recompression: a hash probe or build touches its table once per
    /// *run*, then fans the verdict out over the run's active rows. Rle
    /// and runbits blocks visit their maximal runs; other codecs, which
    /// keep no run structure, visit each row as a run of one.
    pub fn for_each_run(&self, mut f: impl FnMut(Value, usize, usize)) {
        match self.encoding {
            Encoding::Rle => rle::for_each_run(&self.data, f),
            Encoding::RunBits => runbits::for_each_run(&self.data, self.len, f),
            _ => {
                let mut reader = self.reader();
                (0..self.len).for_each(|i| f(reader.get(i), i, 1));
            }
        }
    }

    /// Fused masked aggregate: fold COUNT/SUM/MIN/MAX of the rows whose
    /// bit is set in `active` (block-local selection words, LSB-first)
    /// and whose value passes the optional `[lo, hi)` filter, into `agg`
    /// — *without decoding the block*. Each codec folds in its own
    /// domain: RLE per run (one compare + one popcount-range), runbits per
    /// selected row (one rank, one unpack; the filter compares the runs
    /// first), dict via a per-code histogram, FOR in rebased offset space
    /// — both over `filter mask & activity word` per 64-row group — delta
    /// inside the prefix-sum walk. This is what lets frozen blocks answer aggregate
    /// queries at hot-path speed.
    pub fn fold_range_masked(
        &self,
        filter: Option<(Value, Value)>,
        active: &[u64],
        agg: &mut BlockAgg,
    ) {
        match self.encoding {
            Encoding::Plain => {
                let band = filter.map_or(Band::All, |(lo, hi)| Band::of_values(lo, hi));
                plain_fields(&self.data).for_each_selected(band, active, |_, v| agg.push(v as i64));
            }
            Encoding::Rle => rle::fold_range_masked(&self.data, filter, active, agg),
            Encoding::Delta => delta::fold_range_masked(&self.data, filter, active, agg),
            Encoding::ForPack => forpack::fold_range_masked(&self.data, filter, active, agg),
            Encoding::Dict => dict::fold_range_masked(&self.data, filter, active, agg),
            Encoding::RunBits => {
                runbits::fold_range_masked(&self.data, self.len, filter, active, agg)
            }
        }
    }

    /// Number of encoded values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if zero values are encoded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The encoding in use.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Size of the compressed payload in bytes.
    pub fn compressed_bytes(&self) -> usize {
        self.data.len()
    }

    /// Plain size / compressed size (≥ 1 means the codec helped).
    pub fn compression_ratio(&self) -> f64 {
        if self.data.is_empty() {
            return 1.0;
        }
        (self.len * std::mem::size_of::<Value>()) as f64 / self.data.len() as f64
    }

    /// The raw compressed payload (snapshot writer).
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Reassemble a block from parts this process produced. The caller
    /// vouches that `data` was produced by `encoding` over `len` values;
    /// bytes read back from disk go through [`Self::try_from_parts`].
    pub fn from_parts(encoding: Encoding, len: usize, data: Bytes) -> Self {
        Self {
            encoding,
            data,
            len,
        }
    }

    /// [`Self::from_parts`] for bytes read from disk: checks the header
    /// every kernel indexes by, so a damaged payload is an `Err` here
    /// instead of an index or shift panic deep inside a scan. Plain must
    /// hold exactly `len` words; forpack and dict must carry `len` as
    /// their row count, a field width in `1..=64` and a packed region of
    /// at least `ceil(len·width / 64)` words, O(1). Dict must also carry
    /// a complete, strictly ascending dictionary and no code at or past
    /// its length, O(dictionary) plus one band filter over the codes: the
    /// decoders, folds and point reads index the dictionary by code. Rle's
    /// varints must end inside the payload and its run lengths sum to
    /// `len`, O(runs): the run walks index activity and mask words by
    /// them. Delta's varints must end inside the payload and number
    /// exactly `len`, O(bytes): the point reader and the prefix walks
    /// index rows by them. Runbits must hold all `⌈len/64⌉` start words,
    /// start a run at row 0 and none at or past `len`, and end in a
    /// forpack payload that passes forpack's check for exactly one value
    /// per start bit, O(len / 64): the ranks index the run values. Other
    /// field *contents* stay the checksum's job.
    pub fn try_from_parts(encoding: Encoding, len: usize, data: Bytes) -> Result<Self> {
        encoding.check(&data, len)?;
        Ok(Self::from_parts(encoding, len, data))
    }
}

/// Point reads into one block at a time, the block's header parsed once
/// when it is opened rather than once per read — the path every
/// row-id-driven read takes ([`crate::tier::ColumnReader`] opens frozen
/// blocks in it). Per codec it holds:
///
/// * **plain**: the payload; a read is one 8-byte load;
/// * **forpack**: the frame minimum and the packed offsets; a read is one
///   fixed-width unpack;
/// * **dict**: the packed codes and a scratch dictionary decoded only as
///   far as the highest code read, at most once per block, its
///   allocation reused across blocks; a read is one code unpack and one
///   index;
/// * **runbits**: the run values' frame and a rank prefix (runs starting
///   before each start word) summed once into a scratch reused across
///   blocks; a read in any order is one popcount and one fixed-width
///   unpack;
/// * **rle** / **delta**: a forward run or prefix-sum cursor that
///   restarts only on a backward read, so ascending reads cost one walk
///   of the block in total.
///
/// Reads must name rows of the open block; a reader with no block open,
/// or on a dropped block's rows, reads 0 everywhere.
#[derive(Default)]
pub struct BlockReader<'a> {
    cursor: Cursor<'a>,
    /// The dict cursor's decoded entries (empty for other codecs).
    dict: Vec<Value>,
    /// The runbits cursor's rank prefix: runs starting before each start
    /// word (stale for other codecs).
    ranks: Vec<usize>,
}

/// A [`BlockReader`]'s parsed block.
#[derive(Default)]
enum Cursor<'a> {
    #[default]
    Zeros,
    Plain(&'a [u8]),
    Rle(rle::Cursor<'a>),
    Delta(delta::Cursor<'a>),
    ForPack(forpack::Cursor<'a>),
    Dict(dict::Cursor<'a>),
    RunBits(runbits::Cursor<'a>),
}

impl<'a> BlockReader<'a> {
    /// Read `block` from now on (its header parsed here, once).
    pub(crate) fn open(&mut self, block: &'a EncodedBlock) {
        self.dict.clear();
        let data = &block.data[..];
        self.cursor = match block.encoding {
            Encoding::Plain => Cursor::Plain(data),
            Encoding::Rle => Cursor::Rle(rle::Cursor::new(data)),
            Encoding::Delta => Cursor::Delta(delta::Cursor::new(data)),
            Encoding::ForPack => forpack::Cursor::new(data).map_or(Cursor::Zeros, Cursor::ForPack),
            Encoding::Dict => dict::Cursor::new(data).map_or(Cursor::Zeros, Cursor::Dict),
            Encoding::RunBits => runbits::Cursor::new(data, block.len, &mut self.ranks)
                .map_or(Cursor::Zeros, Cursor::RunBits),
        };
    }

    /// Read 0 for every row from now on: a dropped block's rows.
    pub(crate) fn open_zeros(&mut self) {
        self.cursor = Cursor::Zeros;
    }

    /// The value of row `i` of the open block.
    #[inline]
    pub fn get(&mut self, i: usize) -> Value {
        match &mut self.cursor {
            Cursor::Zeros => 0,
            Cursor::Plain(data) => {
                i64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().expect("chunk of 8"))
            }
            Cursor::Rle(c) => c.get(i),
            Cursor::Delta(c) => c.get(i),
            Cursor::ForPack(c) => c.get(i),
            Cursor::Dict(c) => c.get(i, &mut self.dict),
            Cursor::RunBits(c) => c.get(i, &self.ranks),
        }
    }
}

/// A block sized exactly in every codec before any codec runs — what
/// [`EncodedBlock::encode_auto`] (from rows) and recompression (from
/// runs) decide on; the sizing rule is in the module docs.
pub(crate) struct BlockSizes<'a> {
    block: Block<'a>,
    /// Rows in the block.
    len: usize,
    /// The sorted distinct values: dict's size needs them, and dict's
    /// encoder reuses them if it wins.
    dict: Vec<Value>,
    /// `EncodedBlock::encode(values, e).compressed_bytes()` at `e.tag()`.
    bytes: [usize; Encoding::ALL.len()],
}

/// What a [`BlockSizes`] encodes from.
enum Block<'a> {
    /// The caller's values (freeze).
    Values(&'a [Value]),
    /// Maximal `(value, length)` runs (a squashed block): rle writes them,
    /// a fixed-width winner expands them once.
    Runs(Vec<(Value, usize)>),
}

impl<'a> BlockSizes<'a> {
    /// Size `values` in every codec.
    pub(crate) fn of(values: &'a [Value]) -> Self {
        let (mut rle, mut delta, mut runs) = (0, 0, 0);
        if let Some((&first, rest)) = values.split_first() {
            let (mut prev, mut run) = (first, 1);
            delta = varint::signed_len(first);
            for &v in rest {
                delta += varint::signed_len(v.wrapping_sub(prev));
                if v != prev {
                    rle += rle::run_bytes(prev, run);
                    runs += 1;
                    run = 0;
                }
                run += 1;
                prev = v;
            }
            rle += rle::run_bytes(prev, run);
            runs += 1;
        }
        let sizes = RunSizes {
            rows: values.len(),
            runs,
            rle,
            delta,
            prev: 0,
        };
        sizes.finish(Block::Values(values), values.to_vec())
    }

    /// Size, in every codec, the block that `runs` spell out. The runs
    /// must be maximal (no two neighbours equal) and non-empty.
    pub(crate) fn of_runs(runs: Vec<(Value, usize)>) -> Self {
        let mut sizes = RunSizes::default();
        for &(v, len) in &runs {
            sizes.push(v, len);
        }
        let distinct = runs.iter().map(|&(v, _)| v).collect();
        sizes.finish(Block::Runs(runs), distinct)
    }

    /// Exact encoded size in `encoding`.
    pub(crate) fn bytes(&self, encoding: Encoding) -> usize {
        // `Encoding::ALL` is in tag order.
        self.bytes[usize::from(encoding.tag())]
    }

    /// The fewest bytes, ties going to the first in [`Encoding::ALL`].
    pub(crate) fn smallest(&self) -> Encoding {
        Encoding::ALL
            .into_iter()
            .min_by_key(|&e| self.bytes(e))
            .expect("at least one encoding")
    }

    /// Run `encoding`'s encoder, into a buffer of exactly its size.
    pub(crate) fn encode(&self, encoding: Encoding) -> EncodedBlock {
        let mut buf = BytesMut::with_capacity(self.bytes(encoding));
        let values = match (&self.block, encoding) {
            (Block::Values(values), Encoding::Rle) => {
                rle::encode_into(&mut buf, values);
                None
            }
            (Block::Runs(runs), Encoding::Rle) => {
                for &(v, len) in runs {
                    rle::write_run(&mut buf, v, len);
                }
                None
            }
            (block, Encoding::RunBits) => {
                let (min, max) = self.frame();
                match block {
                    Block::Values(values) => {
                        runbits::encode_into(runbits::runs_of(values), self.len, min, max, &mut buf)
                    }
                    Block::Runs(runs) => {
                        runbits::encode_into(runs.iter().copied(), self.len, min, max, &mut buf)
                    }
                }
                None
            }
            (Block::Values(values), _) => Some(Cow::Borrowed(*values)),
            (Block::Runs(runs), _) => Some(Cow::Owned(
                runs.iter().flat_map(|&(v, len)| repeat_n(v, len)).collect(),
            )),
        };
        if let Some(values) = values {
            match encoding {
                Encoding::Plain => plain_encode_into(&mut buf, &values),
                Encoding::Delta => delta::encode_into(&mut buf, &values),
                Encoding::ForPack => forpack::encode_into(&mut buf, &values),
                Encoding::Dict => dict::encode_into(&mut buf, &values, &self.dict),
                Encoding::Rle | Encoding::RunBits => unreachable!("written from the runs above"),
            }
        }
        debug_assert_eq!(buf.len(), self.bytes(encoding), "{encoding:?} sized");
        EncodedBlock::from_parts(encoding, self.len, buf.freeze())
    }

    /// The block's smallest and largest value (0 and 0 when empty): the
    /// ends of its sorted distinct values.
    fn frame(&self) -> (Value, Value) {
        match (self.dict.first(), self.dict.last()) {
            (Some(&min), Some(&max)) => (min, max),
            _ => (0, 0),
        }
    }
}

/// The sizing pass of a [`BlockSizes`]: what rle and delta write for a
/// block, summed row by row ([`BlockSizes::of`]) or fed its maximal runs
/// in order ([`Self::push`]).
#[derive(Default)]
struct RunSizes {
    rows: usize,
    /// Maximal runs so far.
    runs: usize,
    rle: usize,
    delta: usize,
    prev: Value,
}

impl RunSizes {
    #[inline]
    fn push(&mut self, v: Value, len: usize) {
        debug_assert!(
            len > 0 && (v != self.prev || self.rows == 0),
            "runs are maximal"
        );
        self.rows += len;
        self.runs += 1;
        self.rle += rle::run_bytes(v, len);
        // The run's first row is a value change (the block's first value
        // is its difference from 0); each repeat is a one-byte zero.
        self.delta += varint::signed_len(v.wrapping_sub(self.prev)) + len - 1;
        self.prev = v;
    }

    /// Every codec's size, the dictionary sorted from `values` (the run
    /// values, or the rows themselves). Forpack's frame is the
    /// dictionary's ends, and runbits' the same frame over one value per
    /// run.
    fn finish(self, block: Block<'_>, values: Vec<Value>) -> BlockSizes<'_> {
        let n = self.rows;
        let dict = dict::dictionary_of(values);
        let (forpack, runbits) = match (dict.first(), dict.last()) {
            (Some(&min), Some(&max)) => (
                forpack::size_of_frame(n, min, max),
                runbits::size_of_runs(n, self.runs, min, max),
            ),
            _ => (forpack::size(&[]), runbits::size(&[])),
        };
        let bytes = [
            8 * n,
            self.rle,
            self.delta,
            forpack,
            dict::size_of_dictionary(n, &dict),
            runbits,
        ];
        BlockSizes {
            block,
            len: n,
            dict,
            bytes,
        }
    }
}

fn plain_encode(values: &[Value]) -> Bytes {
    let mut buf = BytesMut::with_capacity(values.len() * 8);
    plain_encode_into(&mut buf, values);
    buf.freeze()
}

fn plain_encode_into(buf: &mut BytesMut, values: &[Value]) {
    for &v in values {
        buf.put_i64_le(v);
    }
}

/// A plain block as the `width = 64` case of the packed-field primitive:
/// its fields are the values' own bits.
fn plain_fields(data: &[u8]) -> Packed<'_> {
    Packed::new(data, 64, data.len() / 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[Value]) {
        for enc in Encoding::ALL {
            let block = EncodedBlock::encode(values, enc);
            assert_eq!(block.len(), values.len());
            assert_eq!(block.decode(), values, "round-trip failed for {:?}", enc);
        }
        let auto = EncodedBlock::encode_auto(values);
        assert_eq!(auto.decode(), values);
    }

    #[test]
    fn decode_into_fills_a_reserved_vec_like_decode() {
        let mut rng = amnesia_util::SimRng::new(47);
        for len in [0usize, 1, 63, 64, 65, 1_024, 1_025] {
            let shapes: [(&str, Vec<Value>); 3] = [
                ("runs", (0..len).map(|i| (i / 7) as i64 * 3 - 50).collect()),
                (
                    "random",
                    (0..len)
                        .map(|_| rng.range_i64(-(1 << 40), 1 << 40))
                        .collect(),
                ),
                (
                    "extremes",
                    (0..len)
                        .map(|i| match i % 3 {
                            0 => i64::MIN,
                            1 => i64::MAX,
                            _ => rng.range_i64(-5, 5),
                        })
                        .collect(),
                ),
            ];
            for (shape, values) in &shapes {
                for enc in Encoding::ALL {
                    let ctx = format!("{enc:?} {shape} {len}");
                    let block = EncodedBlock::encode(values, enc);
                    let want = block.decode();
                    assert_eq!(&want, values, "{ctx}");
                    // Appended after what the vec holds, into the room
                    // reserved for exactly the block: never grown.
                    let mut out = vec![7, 8];
                    out.reserve_exact(len);
                    let room = out.capacity();
                    block.decode_into(&mut out);
                    assert_eq!(out[..2], [7, 8], "{ctx}");
                    assert_eq!(out[2..], want[..], "{ctx}");
                    assert_eq!(out.capacity(), room, "{ctx}: grew its vec");
                    // The borrowed payload, a dictionary read ahead.
                    let dictionary =
                        (enc == Encoding::Dict).then(|| dict::read_dictionary(block.data()));
                    let mut out = Vec::with_capacity(len);
                    let room = out.capacity();
                    enc.decode_into(block.data(), len, dictionary.as_deref(), &mut out);
                    assert_eq!(out, want, "{ctx}: borrowed");
                    assert_eq!(out.capacity(), room, "{ctx}: borrowed grew its vec");
                }
            }
        }
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_basic_patterns() {
        roundtrip(&[0]);
        roundtrip(&[1, 1, 1, 1, 1]);
        roundtrip(&[1, 2, 3, 4, 5, 6, 7]);
        roundtrip(&[-5, 5, -5, 5]);
        roundtrip(&[i64::MIN, i64::MAX, 0, -1, 1]);
        roundtrip(&[1000, 1001, 1003, 1002, 1000]);
    }

    #[test]
    fn rle_wins_on_constant_runs() {
        let values = vec![42i64; 10_000];
        let auto = EncodedBlock::encode_auto(&values);
        assert_eq!(auto.encoding(), Encoding::Rle);
        assert!(auto.compression_ratio() > 100.0);
    }

    #[test]
    fn delta_or_forpack_wins_on_serial() {
        let values: Vec<i64> = (0..10_000).collect();
        let auto = EncodedBlock::encode_auto(&values);
        assert!(
            matches!(auto.encoding(), Encoding::Delta | Encoding::ForPack),
            "got {:?}",
            auto.encoding()
        );
        assert!(auto.compression_ratio() > 3.0);
    }

    #[test]
    fn dict_wins_on_low_cardinality_shuffled() {
        // 4 distinct large, far-apart values in random-ish order: deltas
        // are large, runs are short, FOR band is wide => dictionary wins.
        let vals = [1i64 << 40, -(1i64 << 50), 7, 1 << 61];
        let values: Vec<i64> = (0..8192).map(|i| vals[(i * 7 + i / 13) % 4]).collect();
        let auto = EncodedBlock::encode_auto(&values);
        assert_eq!(auto.encoding(), Encoding::Dict);
        assert!(auto.compression_ratio() > 10.0);
    }

    /// The wire format is frozen: snapshots and WAL segments written by
    /// earlier builds hold these exact bytes, and the read paths may be
    /// rebuilt only underneath them.
    #[test]
    fn encode_output_is_byte_identical_to_the_recorded_goldens() {
        let inputs: [&[Value]; 3] = [
            &[7, 7, 7, 9, 9, -3, -3, -3, -3, 12],
            &[i64::MIN, -1, 0, 1, i64::MAX],
            &[
                1_000_000, 1_000_017, 1_000_003, 1_000_017, 1_000_042, 1_000_000, 1_000_099,
                1_000_003, 1_000_042,
            ],
        ];
        let goldens = [
            (
                Encoding::Plain,
                [
                    concat!(
                        "0700000000000000070000000000000007000000000000000900000000000000",
                        "0900000000000000fdfffffffffffffffdfffffffffffffffdffffffffffffff",
                        "fdffffffffffffff0c00000000000000",
                    ),
                    concat!(
                        "0000000000000080ffffffffffffffff00000000000000000100000000000000",
                        "ffffffffffffff7f",
                    ),
                    concat!(
                        "40420f000000000051420f000000000043420f000000000051420f0000000000",
                        "6a420f000000000040420f0000000000a3420f000000000043420f0000000000",
                        "6a420f0000000000",
                    ),
                ],
            ),
            (
                Encoding::Rle,
                [
                    "0e03120205041801",
                    "ffffffffffffffffff0101010100010201feffffffffffffffff0101",
                    concat!(
                        "80897a01a2897a0186897a01a2897a01d4897a0180897a01c68a7a0186897a01",
                        "d4897a01",
                    ),
                ],
            ),
            (
                Encoding::Delta,
                [
                    "0e00000400170000001e",
                    "ffffffffffffffffff01feffffffffffffffff010202fcffffffffffffffff01",
                    "80897a221b1c3253c601bf014e",
                ],
            ),
            (
                Encoding::ForPack,
                [
                    "0a0504aaca0c00f0000000",
                    concat!(
                        "05ffffffffffffffffff01400000000000000000ffffffffffffff7f00000000",
                        "000000800100000000000080ffffffffffffffff",
                    ),
                    "0980897a0780c820a2028c072a",
                ],
            ),
            (
                Encoding::Dict,
                [
                    "0a04051404060295020c0000000000",
                    concat!(
                        "0505ffffffffffffffffff01feffffffffffffffff010202fcffffffffffffff",
                        "ff01038846000000000000",
                    ),
                    "090580897a061c3272035034300300000000",
                ],
            ),
        ];
        for (enc, hexes) in goldens {
            for (input, golden) in inputs.iter().zip(hexes) {
                let block = EncodedBlock::encode(input, enc);
                let hex: String = block.data().iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(hex, golden, "{enc:?} over {input:?}");
                assert_eq!(block.decode(), *input, "{enc:?} round-trip");
            }
        }
    }

    fn assert_rejected(encoding: Encoding, len: usize, data: &[u8], why: &str) {
        let got = EncodedBlock::try_from_parts(encoding, len, Bytes::copy_from_slice(data));
        assert!(got.is_err(), "{encoding:?} accepted a payload with {why}");
    }

    /// Position of the width byte in a forpack / dict payload.
    fn width_byte_at(block: &EncodedBlock) -> usize {
        let data = block.data();
        let mut pos = 0;
        varint::read_varint(data, &mut pos);
        let entries = match block.encoding() {
            Encoding::ForPack => 1,
            Encoding::Dict => varint::read_varint(data, &mut pos),
            other => panic!("{other:?} has no width byte"),
        };
        for _ in 0..entries {
            varint::read_varint(data, &mut pos);
        }
        pos
    }

    #[test]
    fn try_from_parts_rejects_damaged_headers_without_panicking() {
        let values: Vec<Value> = (0..300).map(|i| 1_000 + (i * 37) % 90).collect();
        for enc in [Encoding::ForPack, Encoding::Dict] {
            let good = EncodedBlock::encode(&values, enc);
            let bytes = good.data().to_vec();
            let ok = EncodedBlock::try_from_parts(enc, values.len(), good.data().clone());
            assert_eq!(ok.expect("pristine payload"), good);

            assert_rejected(enc, values.len() + 1, &bytes, "another row count");
            assert_rejected(enc, 0, &bytes, "rows in an empty block");
            let at = width_byte_at(&good);
            for width in [0u8, 65, 255] {
                let mut bad = bytes.clone();
                bad[at] = width;
                assert_rejected(enc, values.len(), &bad, "an impossible width");
            }
            // Every proper prefix is short of a header field or of packed
            // words; none may panic, all must be refused.
            for cut in 0..bytes.len() {
                assert_rejected(enc, values.len(), &bytes[..cut], "a truncated payload");
            }
            // A wider width than the region holds fields for.
            let mut bad = bytes.clone();
            bad[at] = 64;
            assert_rejected(enc, values.len(), &bad, "a short packed region");
            // Any single damaged header byte: an answer, never a panic.
            for i in 0..=at {
                for flip in [0x01u8, 0x80, 0xFF] {
                    let mut bad = bytes.clone();
                    bad[i] ^= flip;
                    let _ = EncodedBlock::try_from_parts(enc, values.len(), Bytes::from(bad));
                }
            }
        }
        // dict: a dictionary the payload cannot hold.
        let good = EncodedBlock::encode(&values, Encoding::Dict);
        for dict_len in [&[0x00u8][..], &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]] {
            let mut bad = good.data()[..2].to_vec(); // count 300 = 2 varint bytes
            bad.extend_from_slice(dict_len);
            bad.extend_from_slice(&good.data()[3..]);
            assert_rejected(
                Encoding::Dict,
                values.len(),
                &bad,
                "an impossible dictionary",
            );
        }
        // plain: exactly 8 bytes a row.
        let plain = EncodedBlock::encode(&values, Encoding::Plain);
        assert_rejected(
            Encoding::Plain,
            values.len() - 1,
            plain.data(),
            "spare bytes",
        );
        assert_rejected(
            Encoding::Plain,
            values.len(),
            &plain.data()[..8],
            "missing rows",
        );
        // rle: runs that end inside the payload and sum to the row count.
        let rle = EncodedBlock::encode(&values, Encoding::Rle);
        for cut in 1..rle.data().len() {
            let prefix = &rle.data()[..cut];
            assert_rejected(Encoding::Rle, values.len(), prefix, "a truncated run");
        }
        assert_rejected(Encoding::Rle, values.len() - 1, rle.data(), "too many rows");
        assert_rejected(Encoding::Rle, values.len() + 1, rle.data(), "too few rows");
        let overflow = [
            0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
        ];
        let huge = [overflow, overflow].concat();
        assert_rejected(Encoding::Rle, 3, &huge, "run lengths that overflow");
        // delta: varints that end inside the payload, one per row.
        let delta = EncodedBlock::encode(&values, Encoding::Delta);
        for cut in 0..delta.data().len() {
            let prefix = &delta.data()[..cut];
            assert_rejected(Encoding::Delta, values.len(), prefix, "a truncated stream");
        }
        let extended = [&delta.data()[..], &[0x00]].concat();
        assert_rejected(Encoding::Delta, values.len(), &extended, "a spare value");
        assert_rejected(
            Encoding::Delta,
            values.len() + 1,
            delta.data(),
            "too few values",
        );
        // Empty blocks of every codec are fine.
        for enc in Encoding::ALL {
            let empty = EncodedBlock::encode(&[], enc);
            let back = EncodedBlock::try_from_parts(enc, 0, empty.data().clone());
            assert!(back.expect("empty block").decode().is_empty(), "{enc:?}");
        }
    }

    /// A runbits payload is start words and then a forpack payload of
    /// one value per start bit; `try_from_parts` refuses each way the
    /// two can disagree, and whatever it accepts scans without a panic.
    #[test]
    fn try_from_parts_rejects_damaged_runbits_payloads_without_panicking() {
        // 300 rows in runs of 3: five start words, the last one ragged.
        let values: Vec<Value> = (0..300).map(|i| 1_000 + (i / 3 * 37) % 90).collect();
        let good = EncodedBlock::encode(&values, Encoding::RunBits);
        let bytes = good.data().to_vec();
        let ok = EncodedBlock::try_from_parts(Encoding::RunBits, values.len(), good.data().clone());
        assert_eq!(ok.expect("pristine payload"), good);
        let frame = 8 * values.len().div_ceil(64);
        let starts = |bytes: &[u8], w: usize| {
            u64::from_le_bytes(bytes[8 * w..8 * w + 8].try_into().expect("8 bytes"))
        };
        let with_word = |w: usize, word: u64| {
            let mut bad = bytes.clone();
            bad[8 * w..8 * w + 8].copy_from_slice(&word.to_le_bytes());
            bad
        };

        for cut in 0..bytes.len() {
            assert_rejected(
                Encoding::RunBits,
                values.len(),
                &bytes[..cut],
                "a truncation",
            );
        }
        assert_rejected(
            Encoding::RunBits,
            values.len() + 64,
            &bytes,
            "too few words",
        );
        assert_rejected(Encoding::RunBits, 0, &bytes, "rows in an empty block");
        // Row 0 starts no run: its bit moves to row 1, the run count kept.
        let first = starts(&bytes, 0);
        assert_eq!(first & 0b11, 0b01);
        let moved = with_word(0, first ^ 0b11);
        assert_rejected(
            Encoding::RunBits,
            values.len(),
            &moved,
            "row 0 starting no run",
        );
        // A start at row 300, past the end, the count kept.
        let last = starts(&bytes, 4);
        assert_eq!(last >> 44, 0, "rows 300.. start nothing");
        let moved = with_word(4, (last & (last - 1)) | 1 << 44);
        assert_rejected(
            Encoding::RunBits,
            values.len(),
            &moved,
            "a start past the end",
        );
        // One start more than the embedded payload has values.
        let extra = with_word(0, first | 0b10);
        assert_rejected(
            Encoding::RunBits,
            values.len(),
            &extra,
            "a start without a value",
        );
        // The embedded width byte: its count varint (100 runs) is one
        // byte, its minimum (1 000, zigzag 2 000) two.
        let at = frame + 3;
        assert_eq!(bytes[at], 7, "width of 1 000..=1 089");
        for width in [0u8, 65, 255] {
            let mut bad = bytes.clone();
            bad[at] = width;
            assert_rejected(Encoding::RunBits, values.len(), &bad, "an impossible width");
        }
        let mut wide = bytes.clone();
        wide[at] = 64;
        assert_rejected(
            Encoding::RunBits,
            values.len(),
            &wide,
            "a short packed region",
        );

        // Any single damaged byte: refused, or scanned without a panic.
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = bytes.clone();
                bad[i] ^= flip;
                let Ok(block) =
                    EncodedBlock::try_from_parts(Encoding::RunBits, values.len(), Bytes::from(bad))
                else {
                    continue;
                };
                let mut masks = Vec::new();
                block.filter_range_masks(1_010, 1_050, &mut masks);
                let mut agg = BlockAgg::new();
                block.fold_range_masked(Some((1_010, 1_050)), &masks, &mut agg);
                assert_eq!(
                    agg.count,
                    u64::from(masks.iter().map(|m| m.count_ones()).sum::<u32>())
                );
                block.for_each_active(&masks, |_, _| {});
                assert_eq!(block.decode().len(), values.len());
                assert_eq!(block.value_at(299), block.decode()[299]);
            }
        }
    }

    /// The run bitmap is last in `Encoding::ALL` and strictly smaller only
    /// on short runs: fresh blocks shaped like the benchmark's columns
    /// keep the codec, and the bytes, of the five-codec chooser.
    #[test]
    fn fresh_blocks_keep_their_five_codec_choice() {
        let mut rng = amnesia_util::SimRng::new(33);
        let shapes: [(&str, Vec<Value>, Encoding); 4] = [
            (
                "i/100 + U[0, 50)",
                (0..1_024).map(|i| i / 100 + rng.range_i64(0, 50)).collect(),
                Encoding::ForPack,
            ),
            (
                "i/2000",
                (0..1_024).map(|i| i / 2_000).collect(),
                Encoding::Rle,
            ),
            (
                "31i mod 100",
                (0..1_024).map(|i| 31 * i % 100).collect(),
                Encoding::ForPack,
            ),
            (
                "U[0, 10^6)",
                (0..1_024).map(|_| rng.range_i64(0, 1_000_000)).collect(),
                Encoding::ForPack,
            ),
        ];
        for (name, values, want) in shapes {
            let auto = EncodedBlock::encode_auto(&values);
            assert_eq!(auto, EncodedBlock::encode(&values, want), "{name}");
            let five = Encoding::ALL[..5]
                .iter()
                .map(|&e| EncodedBlock::encode(&values, e))
                .min_by_key(EncodedBlock::compressed_bytes)
                .expect("five codecs");
            assert_eq!(auto, five, "{name}");
            assert!(runbits::size(&values) > auto.compressed_bytes(), "{name}");
        }
    }

    /// A dict payload whose header is sound but whose codes or entries
    /// are not: every code must name an entry, and the entries must be
    /// strictly ascending. Each would otherwise index past the dictionary
    /// (decode, the per-code fold, point reads) or make the code band of
    /// a range filter wrong.
    #[test]
    fn try_from_parts_rejects_dict_codes_past_the_dictionary_and_unsorted_entries() {
        // 300 rows over 3 entries at width 2: code 3 is the one past the end.
        let values: Vec<Value> = (0..300).map(|i| [10, 20, 30][i % 3]).collect();
        let good = EncodedBlock::encode(&values, Encoding::Dict);
        let at = width_byte_at(&good);
        assert_eq!(good.data()[at], 2);
        let codes = at + 1;
        for row in [0usize, 1, 63, 64, 200, 299] {
            let mut bad = good.data().to_vec();
            bad[codes + row * 2 / 8] |= 0b11 << (row * 2 % 8);
            assert_rejected(Encoding::Dict, values.len(), &bad, "code 3 of 3 entries");
        }
        // Bits past the last row are padding, not codes.
        let mut padded = good.data().to_vec();
        let last = padded.len() - 1;
        padded[last] |= 0xC0;
        let back = EncodedBlock::try_from_parts(Encoding::Dict, values.len(), padded.into());
        assert_eq!(back.expect("padding is not checked").decode(), values);

        // Entries out of order or repeated, as raw payloads: 2 rows,
        // 2 entries, width 1, codes 0 and 1.
        let payload = |entries: [Value; 2]| {
            let mut buf = BytesMut::new();
            varint::write_varint(&mut buf, 2);
            varint::write_varint(&mut buf, 2);
            varint::write_signed(&mut buf, entries[0]);
            varint::write_signed(&mut buf, entries[1].wrapping_sub(entries[0]));
            buf.put_u8(1);
            buf.put_u64_le(0b10);
            buf.freeze()
        };
        let sorted = EncodedBlock::try_from_parts(Encoding::Dict, 2, payload([10, 20]));
        assert_eq!(sorted.expect("ascending entries").decode(), [10, 20]);
        for entries in [[20, 10], [10, 10], [i64::MAX, i64::MIN]] {
            assert_rejected(Encoding::Dict, 2, &payload(entries), "unsorted entries");
        }
    }

    /// What `try_from_parts` lets through on forpack is safe to scan: a
    /// header whose width byte was damaged into another valid width
    /// yields other values, not a panic.
    #[test]
    fn accepted_forpack_headers_scan_without_panicking() {
        let values: Vec<Value> = (0..1_000).map(|i| (i * 7919) % 100_000).collect();
        let good = EncodedBlock::encode(&values, Encoding::ForPack);
        let at = width_byte_at(&good);
        for width in 1..=good.data()[at] {
            let mut bytes = good.data().to_vec();
            bytes[at] = width;
            let block =
                EncodedBlock::try_from_parts(Encoding::ForPack, values.len(), Bytes::from(bytes))
                    .expect("a narrower width still fits the region");
            let mut masks = Vec::new();
            block.filter_range_masks(10, 50_000, &mut masks);
            let mut agg = BlockAgg::new();
            block.fold_range_masked(Some((10, 50_000)), &masks, &mut agg);
            assert_eq!(
                agg.count,
                masks.iter().map(|m| m.count_ones() as u64).sum::<u64>()
            );
            assert_eq!(block.decode().len(), values.len());
        }
    }

    #[test]
    fn ratio_of_plain_is_one() {
        let values: Vec<i64> = (0..100).map(|i| i * 12345).collect();
        let plain = EncodedBlock::encode(&values, Encoding::Plain);
        assert!((plain.compression_ratio() - 1.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use amnesia_util::SimRng;
    use proptest::prelude::*;

    /// The chooser this crate shipped before sizing: encode every codec,
    /// keep the first smallest.
    fn encode_all_keep_first_smallest(values: &[Value]) -> EncodedBlock {
        Encoding::ALL
            .iter()
            .map(|&e| EncodedBlock::encode(values, e))
            .min_by_key(|b| b.compressed_bytes())
            .expect("at least one encoding")
    }

    /// Each codec's `size` function.
    fn size_of(values: &[Value], encoding: Encoding) -> usize {
        match encoding {
            Encoding::Plain => 8 * values.len(),
            Encoding::Rle => rle::size(values),
            Encoding::Delta => delta::size(values),
            Encoding::ForPack => forpack::size(values),
            Encoding::Dict => dict::size(values),
            Encoding::RunBits => runbits::size(values),
        }
    }

    /// A block of `len` values in one of the shapes the codecs' sizes
    /// turn on: random 64-bit, FOR widths 57–64 pinned at both ends,
    /// constant, sorted, alternating, squashed (runs of a forgotten row's
    /// last active neighbour), `i64` extremes, a narrow band, and a few
    /// far-apart distinct values.
    fn shaped(len: usize, shape: u8, seed: u64) -> Vec<Value> {
        let mut rng = SimRng::new(seed);
        let extremes = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, 0, -1, 1];
        let pick = |rng: &mut SimRng| extremes[rng.index(extremes.len())];
        let mut values: Vec<Value> = match shape {
            0 => (0..len).map(|_| rng.next_u64() as i64).collect(),
            1 => {
                let width = 57 + rng.below(8) as u32;
                let offset = |r: u64| i64::MIN.wrapping_add((r >> (64 - width)) as i64);
                let mut v: Vec<Value> = (0..len).map(|_| offset(rng.next_u64())).collect();
                if len >= 2 {
                    v[0] = offset(0);
                    v[len - 1] = offset(u64::MAX);
                }
                v
            }
            2 => vec![pick(&mut rng); len],
            3 => {
                let mut acc = rng.range_i64(-1 << 40, 1 << 40);
                let step: i64 = 1 << rng.below(20);
                (0..len)
                    .map(|_| {
                        acc += rng.range_i64(0, step);
                        acc
                    })
                    .collect()
            }
            4 => {
                let pair = [pick(&mut rng), rng.next_u64() as i64 >> rng.below(64)];
                (0..len).map(|i| pair[i % 2]).collect()
            }
            5 => {
                let mut last = 0;
                (0..len)
                    .map(|_| {
                        if rng.below(2) == 0 {
                            last = rng.range_i64(0, 1 << 20);
                        }
                        last
                    })
                    .collect()
            }
            6 => (0..len).map(|_| pick(&mut rng)).collect(),
            7 => {
                let base = rng.next_u64() as i64 >> 2;
                let width = 1 + rng.below(20);
                (0..len)
                    .map(|_| base + (rng.next_u64() >> (64 - width)) as i64)
                    .collect()
            }
            _ => {
                let distinct: Vec<Value> = (0..1 + rng.below(300))
                    .map(|_| rng.next_u64() as i64)
                    .collect();
                (0..len)
                    .map(|_| distinct[rng.index(distinct.len())])
                    .collect()
            }
        };
        // Now and then an extreme lands anywhere in the block.
        if len > 0 && rng.below(4) == 0 {
            let at = rng.index(len);
            values[at] = pick(&mut rng);
        }
        values
    }

    fn shaped_block() -> impl Strategy<Value = Vec<Value>> {
        let len = prop_oneof![
            Just(0usize),
            Just(1),
            Just(63),
            Just(64),
            Just(65),
            Just(1_024),
            0usize..1_100,
        ];
        (len, 0u8..9, any::<u64>()).prop_map(|(len, shape, seed)| shaped(len, shape, seed))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        #[test]
        fn sizes_are_exact_and_the_choice_matches_encoding_all(values in shaped_block()) {
            let sizes = BlockSizes::of(&values);
            for enc in Encoding::ALL {
                let encoded = EncodedBlock::encode(&values, enc);
                prop_assert_eq!(size_of(&values, enc), encoded.compressed_bytes(), "{:?}", enc);
                prop_assert_eq!(sizes.bytes(enc), encoded.compressed_bytes(), "{:?}", enc);
                prop_assert_eq!(&sizes.encode(enc), &encoded, "{:?}", enc);
            }
            prop_assert_eq!(EncodedBlock::encode_auto(&values), encode_all_keep_first_smallest(&values));
        }
    }

    /// `[0, 0, 1, 1]` is 4 bytes as rle and as delta: the tie goes to the
    /// first in `Encoding::ALL`.
    #[test]
    fn an_exact_tie_goes_to_the_first_in_all_order() {
        let values = [0, 0, 1, 1];
        assert_eq!(rle::size(&values), 4);
        assert_eq!(delta::size(&values), 4);
        assert_eq!(EncodedBlock::encode_auto(&values).encoding(), Encoding::Rle);
    }

    proptest! {
        #[test]
        fn all_codecs_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..500)) {
            for enc in Encoding::ALL {
                let block = EncodedBlock::encode(&values, enc);
                prop_assert_eq!(block.decode(), values.clone());
            }
        }

        #[test]
        fn auto_never_loses(values in proptest::collection::vec(-1000i64..1000, 0..500)) {
            let auto = EncodedBlock::encode_auto(&values);
            prop_assert_eq!(auto.decode(), values.clone());
            // Auto must never be bigger than plain.
            let plain = EncodedBlock::encode(&values, Encoding::Plain);
            prop_assert!(auto.compressed_bytes() <= plain.compressed_bytes());
        }

        #[test]
        fn value_at_equals_decode_index(
            values in proptest::collection::vec(any::<i64>(), 1..300),
        ) {
            for enc in Encoding::ALL {
                let block = EncodedBlock::encode(&values, enc);
                let decoded = block.decode();
                for (i, &v) in decoded.iter().enumerate() {
                    prop_assert_eq!(block.value_at(i), v, "{:?} row {}", enc, i);
                }
            }
        }

        #[test]
        fn fold_masked_equals_decode_then_fold(
            values in proptest::collection::vec(-1000i64..1000, 0..300),
            lo in -1200i64..1200,
            width in 0i64..2500,
            active_seed in any::<u64>(),
        ) {
            let hi = lo.saturating_add(width);
            let nwords = values.len().div_ceil(64);
            // Deterministic pseudo-random activity words from the seed.
            let active: Vec<u64> = (0..nwords)
                .map(|i| active_seed.rotate_left(i as u32 * 7).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let set = |i: usize| active[i / 64] >> (i % 64) & 1 == 1;
            for filter in [None, Some((lo, hi))] {
                let mut want = BlockAgg::new();
                for (i, &v) in values.iter().enumerate() {
                    if set(i) && filter.is_none_or(|(lo, hi)| v >= lo && v < hi) {
                        want.push(v);
                    }
                }
                for enc in Encoding::ALL {
                    let block = EncodedBlock::encode(&values, enc);
                    let mut got = BlockAgg::new();
                    block.fold_range_masked(filter, &active, &mut got);
                    prop_assert_eq!(got, want, "{:?} filter {:?}", enc, filter);
                }
            }
        }

        #[test]
        fn for_each_active_equals_decode_then_filter(
            values in proptest::collection::vec(any::<i64>(), 0..300),
            active_seed in any::<u64>(),
        ) {
            let nwords = values.len().div_ceil(64);
            let active: Vec<u64> = (0..nwords)
                .map(|i| active_seed.rotate_left(i as u32 * 11).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let set = |i: usize| active[i / 64] >> (i % 64) & 1 == 1;
            let want: Vec<(usize, i64)> = values
                .iter()
                .enumerate()
                .filter(|&(i, _)| set(i))
                .map(|(i, &v)| (i, v))
                .collect();
            for enc in Encoding::ALL {
                let block = EncodedBlock::encode(&values, enc);
                let before = block_decodes();
                let mut got = Vec::new();
                block.for_each_active(&active, |row, v| got.push((row, v)));
                prop_assert_eq!(&got, &want, "{:?}", enc);
                let mut rows = Vec::new();
                block.for_each_run(|v, start, len| {
                    assert_eq!(start, rows.len(), "{enc:?} runs ascend");
                    rows.extend(std::iter::repeat_n(v, len));
                });
                prop_assert_eq!(&rows, &values, "{:?} runs", enc);
                prop_assert_eq!(block_decodes(), before, "{:?} must not decode", enc);
            }
        }

        #[test]
        fn fused_filter_equals_decode_then_test(
            values in proptest::collection::vec(-1000i64..1000, 0..300),
            lo in -1200i64..1200,
            width in 0i64..2500,
        ) {
            let hi = lo.saturating_add(width);
            let mut masks = Vec::new();
            for enc in Encoding::ALL {
                let block = EncodedBlock::encode(&values, enc);
                block.filter_range_masks(lo, hi, &mut masks);
                prop_assert_eq!(masks.len(), values.len().div_ceil(64));
                for (i, &v) in values.iter().enumerate() {
                    let bit = masks[i / 64] >> (i % 64) & 1;
                    prop_assert_eq!(bit == 1, v >= lo && v < hi, "{:?} row {}", enc, i);
                }
                // Tail bits beyond len stay clear (AND-safety with
                // activity words).
                if let Some(&last) = masks.last() {
                    let used = values.len() - (masks.len() - 1) * 64;
                    if used < 64 {
                        prop_assert_eq!(last >> used, 0, "{:?} tail", enc);
                    }
                }
            }
        }
    }
}
