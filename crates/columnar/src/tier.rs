//! Tiered column storage: a hot uncompressed tail behind a prefix of
//! frozen compressed blocks — compression as the *resting state* of cold
//! data, not a side-car snapshot.
//!
//! Paper §4.4 argues "data compression can be called upon to postpone the
//! decisions to forget data": every byte a cold segment gives back
//! stretches the storage budget before any tuple must rot. A compressed
//! copy the caller owns would never reduce the table's resident
//! footprint, and fused kernels over it would run against stale data. A
//! [`TieredColumn`] instead *is* the column: the oldest rows live as
//! [`EncodedBlock`]s with cached per-block [`BlockMeta`] (min/max over
//! active rows, active-row count), the newest rows stay mutable and
//! uncompressed, and every scan/aggregate/vacuum/persist path reads the
//! tiers in place.
//!
//! # The tier state machine
//!
//! Each block of `block_rows` rows moves one way through four states,
//! never back: the store's batch-boundary schedule freezes, drops and
//! recompresses (`AmnesiacStore::end_batch` under a tier config), and
//! the amnesia policies' forgets decide which blocks qualify.
//!
//! ```text
//!   hot ──freeze_upto──▶ frozen ──recompress_frozen──▶ recompressed
//!                           │                               │
//!                           └─────drop_forgotten_blocks─────┴──▶ dropped
//! ```
//!
//! (the [`Table`](crate::table::Table) methods; a column's own steps are
//! below)
//!
//! * **hot** — plain `Vec<Value>` tail; inserts append here, point reads
//!   are array indexing, scans take the raw-slice batch kernels. Each
//!   *full* hot block carries a [`BlockMeta`] too, sealed when the block
//!   fills (see "The hot zone map" below), so active-only scans prune
//!   hot blocks by the same rule as frozen ones; the open last block has
//!   none and is always scanned.
//! * **frozen** — [`EncodedBlock::encode_auto`] (or a pinned codec)
//!   compressed the block; scans run the codec's fused
//!   `filter_range_masks` / `fold_range_masked`, point reads parse a
//!   block once per visit ([`ColumnReader`]), and the cached
//!   [`BlockMeta`] prunes blocks the predicate cannot hit before the
//!   payload is touched.
//! * **recompressed** — heavy forgetting inside a frozen block squashes
//!   the forgotten rows' values onto their active neighbours and
//!   re-encodes; runs lengthen, dictionaries shrink, and the meta bounds
//!   tighten to the surviving rows. Forgetting physically shrinks cold
//!   data without moving a single row id.
//! * **dropped** — a block whose every row was forgotten surrenders its
//!   payload entirely: only the 2-byte placeholder and the meta survive.
//!   Row ids stay stable (the block still occupies its row range);
//!   reading a dropped row yields 0, which no active-only path ever does.
//!
//! # Who runs the tier schedule
//!
//! The store calls the transitions at a batch boundary, and recovery
//! replays them from the log (`WalRecord::Freeze`, `WalRecord::Recompress`),
//! both through the same [`Table`](crate::table::Table) methods. A
//! freeze and a recompression are each two steps:
//!
//! * **jobs** — one per block and column, reading the column and the
//!   activity words only: `TieredColumn::freeze_block` (meta and
//!   encoding of a hot block) and `FrozenBlock::recompressed` (squashed
//!   meta and, when smaller, a new payload). The table runs them through
//!   `amnesia-sync`'s morsel scheduler — the one the engine's plan
//!   stages run on — on every core the process may use
//!   (`amnesia_sync::morsel::cores`, read once), once a transition covers
//!   16 blocks; below that it runs them inline and spawns nothing. No
//!   option sets the width.
//! * **install** — serial, in block order: frozen blocks are pushed one
//!   at a time (the frozen vector's capacity is resident bytes, so it
//!   grows as it always did), recompressed metas and payloads replace the
//!   old ones in place.
//!
//! The results come back in job order whichever worker ran them, so the
//! bytes, the metas, the returned counts and the log are the same at any
//! width. Drops stay serial: a drop rewrites a 2-byte placeholder and
//! has nothing to fan out.
//!
//! Meta maintenance follows the usual zone-map contract: forgetting keeps
//! bounds *safe* rather than tight (they only shrink on recompression),
//! and `active` counts are exact because [`TieredColumn::note_forget`]
//! observes every first-time forget.
//!
//! # The hot zone map
//!
//! When the hot tail's open block fills, [`TieredColumn::push`] (or
//! [`TieredColumn::extend_from_slice`]) seals a [`BlockMeta`] for it: the
//! min/max over *all* its values — one vector pass per block, under the
//! [`mask_impl`] dispatch — and an exact `active` count. Every appended
//! row is active, so the count is the block size less the forgets that
//! landed in the block while it was open, which
//! [`TieredColumn::note_forget`] tallies; after the seal it decrements
//! the meta itself. Bounds over forgotten values too are wider than the
//! frozen ones (which cover active rows only) but stale-safe all the
//! same. A freeze drops the metas of the blocks it compresses (the frozen
//! meta is computed afresh). Like the summary, the hot metas are derived
//! state: they stay out of `PartialEq`, snapshots and the log, and a
//! restored table rebuilds them from the hot values and its activity words
//! ([`Table::from_restored_parts`](crate::table::Table::from_restored_parts)).
//!
//! # The column summary
//!
//! What a planner asks of a column — how its active values are
//! distributed, which codecs hold them, whether they are in order — is a
//! [`ColumnSummary`], built at most once per burst of mutations and held
//! in a cell beside the data ([`TieredColumn::summary`]). Every
//! transition above and every forget empties the cell; an append does
//! not touch it, the summary remembers the hot length it was built at and
//! is stale once that differs. The cell is derived state: it stays out of
//! `Clone`, `PartialEq`, snapshots and the log.

use std::sync::{Arc, PoisonError};

use amnesia_distrib::Histogram;
use amnesia_sync::mutex::Mutex;

use serde::{Deserialize, Serialize};

use amnesia_util::bitmap::{count_set_bits_in, first_set_bit_in};
use amnesia_util::{MinMax, WORD_BITS};
use bytes::BytesMut;

use crate::compress::varint::{write_signed, write_varint};
use crate::compress::{
    bit_set, note_summary_build, BlockReader, BlockSizes, EncodedBlock, Encoding, Rows,
};
use crate::simd::{mask_impl, MaskImpl};
use crate::types::{Value, DEFAULT_BLOCK_ROWS};

/// Cached per-block metadata of a full block, frozen or hot: the tier
/// layer's built-in zone map.
///
/// A frozen block's `min`/`max` cover its *active* rows at freeze (or
/// last recompression) time, a hot block's every value it held when it
/// filled; both are stale-safe afterwards — never narrower than the
/// truth. `active` is kept exact by [`TieredColumn::note_forget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockMeta {
    /// Minimum active value (undefined when `active == 0`).
    pub min: Value,
    /// Maximum active value (undefined when `active == 0`).
    pub max: Value,
    /// Number of active rows in the block.
    pub active: usize,
}

impl BlockMeta {
    /// Can any active row of this block satisfy `lo <= v < hi`?
    /// Stale bounds are only ever wide, so `false` is always safe to
    /// skip on.
    #[inline]
    pub fn may_match(&self, lo: Value, hi: Value) -> bool {
        self.active > 0 && self.min < hi && self.max >= lo
    }

    /// Can any active row of this block satisfy `lo <= v <= hi`? The
    /// *inclusive* variant of [`Self::may_match`], used by the join
    /// kernels to prune probe blocks against a build side's `[min, max]`
    /// key range — which the exclusive form cannot express when
    /// `hi == i64::MAX`. Same stale-bounds safety argument.
    #[inline]
    pub fn may_match_inclusive(&self, lo: Value, hi: Value) -> bool {
        self.active > 0 && self.min <= hi && self.max >= lo
    }
}

/// Lifecycle state of one frozen block (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockState {
    /// Compressed at freeze time; payload intact.
    Frozen,
    /// Re-encoded after heavy forgetting; forgotten rows' values were
    /// squashed onto active neighbours.
    Recompressed,
    /// Fully forgotten; payload surrendered (reads yield 0).
    Dropped,
}

/// One compressed block plus its cached metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrozenBlock {
    block: EncodedBlock,
    meta: BlockMeta,
    state: BlockState,
}

impl FrozenBlock {
    /// The compressed payload.
    pub fn encoded(&self) -> &EncodedBlock {
        &self.block
    }

    /// The cached metadata.
    pub fn meta(&self) -> &BlockMeta {
        &self.meta
    }

    /// The lifecycle state.
    pub fn state(&self) -> BlockState {
        self.state
    }

    /// True once the payload has been surrendered.
    pub fn is_dropped(&self) -> bool {
        self.state == BlockState::Dropped
    }

    /// Reassemble from persisted parts (snapshot reader).
    pub fn from_parts(block: EncodedBlock, meta: BlockMeta, state: BlockState) -> Self {
        Self { block, meta, state }
    }

    /// The recompression job of this block, given its own activity
    /// `words` (block-local) and the column's pinned codec: forgotten
    /// rows' values are squashed onto their last active neighbour (0
    /// before the first), lengthening runs and shrinking dictionaries.
    /// Returns the meta of the active rows (bounds tighten to the
    /// survivors), and the re-encoded payload when the smaller encoding
    /// beats the current one (`None`: the old payload, forgotten values
    /// included, stays). Reads only, so a table's jobs run on any thread.
    ///
    /// Safe because active-only scans AND every mask with the activity
    /// words: a forgotten row's value can change freely without a single
    /// query result moving. The complete-scan regime
    /// (`ScanSeesForgotten`) must not drive recompression — the store
    /// layer gates on visibility.
    ///
    /// The whole step works on runs, not rows. The block becomes its
    /// squashed `(value, length)` runs in one walk (the `Squash` builder):
    /// an rle or runbits block's runs are read straight off the payload,
    /// any other codec decodes and collapses into runs in the same pass,
    /// and each source run costs one word-at-a-time search for its first
    /// active row — it splits there, the rows before it taking the
    /// previous survivor's value. The runs are sized in every codec
    /// (`BlockSizes::of_runs`, rule in the [`compress`](crate::compress)
    /// module docs), and unless the best size is below the current
    /// payload no encoder runs. An rle or runbits winner is written from
    /// the runs; another winner expands them once. The bytes and meta are
    /// those of squashing, sizing and encoding row by row.
    pub(crate) fn recompressed(
        &self,
        words: &[u64],
        pinned: Option<Encoding>,
    ) -> (BlockMeta, Option<EncodedBlock>) {
        let mut squash = Squash::new(words);
        if matches!(self.block.encoding(), Encoding::Rle | Encoding::RunBits) {
            self.block
                .for_each_run(|v, start, len| squash.run(v, start, len));
        } else {
            self.block
                .for_each_active(words, |i, v| squash.survivor(i, v));
        }
        let (runs, meta) = squash.finish(self.block.len());
        let sizes = BlockSizes::of_runs(runs);
        let encoding = pinned.unwrap_or_else(|| sizes.smallest());
        let smaller = sizes.bytes(encoding) < self.block.compressed_bytes();
        (meta, smaller.then(|| sizes.encode(encoding)))
    }
}

/// Hot block metas a freeze may leave allocated beyond what the hot
/// tail's capacity can fill (64 × 24 B): below that, shrinking would only
/// reallocate them again as the next batch fills its blocks.
const METAS_SLACK: usize = 64;

/// Histogram resolution of a [`ColumnSummary`]: enough buckets to
/// separate selective from wide predicates, few enough that a statement
/// reads one in a handful of cache lines.
const SUMMARY_BINS: usize = 64;

/// Hot-tail sampling cap: past this many active hot rows the builder
/// strides, each sampled value standing in for the rows it skipped so the
/// total mass is conserved.
const HOT_SAMPLE_CAP: usize = 65_536;

/// What a planner asks of a column, independent of any cost model: a
/// pseudo-histogram of the *active* values, the active rows held per
/// codec, and whether the active rows are in value order.
///
/// Frozen blocks contribute their cached [`BlockMeta`] — `active` mass
/// spread uniformly over `[min, max]` — so no payload is touched; the hot
/// tail contributes its active values (stride-sampled past 65 536 of
/// them). Built by [`TieredColumn::summary`], which is the one way to get
/// one outside tests and benches.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// `None` when the column has no active row.
    hist: Option<Histogram>,
    /// Active rows per [`Encoding::tag`], the hot tail last.
    codec_active: [u64; Encoding::ALL.len() + 1],
    sorted: bool,
    /// Hot-tail length at build time: appends are the one mutation that
    /// does not empty the cell, so they are detected here.
    hot_len: usize,
}

impl ColumnSummary {
    /// Build the summary of `tier` under the owning table's activity
    /// `words` (which must cover every row of the column). Reads each
    /// frozen block's meta twice and each hot value at most twice; the
    /// builder behind [`TieredColumn::summary`] — call that instead.
    pub fn from_tier(tier: &TieredColumn, words: &[u64]) -> Self {
        assert!(
            words.len() * WORD_BITS >= tier.len(),
            "{} activity words for a column of {} rows",
            words.len(),
            tier.len()
        );
        note_summary_build();
        let mut codec_active = [0u64; Encoding::ALL.len() + 1];
        let mut lo = Value::MAX;
        let mut hi = Value::MIN;
        // `prev` is the largest value the rows so far allow; the column
        // stays `sorted` while every next active value is at or above it.
        let mut sorted = true;
        let mut prev = Value::MIN;
        for f in &tier.frozen {
            if f.meta.active == 0 {
                continue;
            }
            lo = lo.min(f.meta.min);
            hi = hi.max(f.meta.max);
            codec_active[f.block.encoding().tag() as usize] += f.meta.active as u64;
            sorted &= f.meta.min >= prev;
            prev = f.meta.max;
        }
        let mut hot_active = 0usize;
        for (chunk, w) in tier.hot_words(words) {
            hot_active += w.count_ones() as usize;
            let mut bits = w;
            while bits != 0 {
                let v = chunk[bits.trailing_zeros() as usize];
                bits &= bits - 1;
                lo = lo.min(v);
                hi = hi.max(v);
                sorted &= v >= prev;
                prev = v;
            }
        }
        codec_active[Encoding::ALL.len()] = hot_active as u64;
        let hist = codec_active.iter().any(|&rows| rows > 0).then(|| {
            let bins = (hi.abs_diff(lo).saturating_add(1)).min(SUMMARY_BINS as u64) as usize;
            let mut hist = Histogram::new(lo, hi, bins);
            for f in &tier.frozen {
                hist.add_mass(f.meta.min, f.meta.max, f.meta.active as u64);
            }
            // Every `stride`-th active hot row stands in for its group
            // (the last group may be short), so the mass is `hot_active`.
            let stride = hot_active.div_ceil(HOT_SAMPLE_CAP).max(1);
            let mut left = hot_active;
            // Active rows to pass over before the next sample.
            let mut skip = 0usize;
            for (chunk, w) in tier.hot_words(words) {
                let here = w.count_ones() as usize;
                if skip >= here {
                    skip -= here;
                    continue;
                }
                let mut bits = w;
                while bits != 0 {
                    let v = chunk[bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    if skip == 0 {
                        let group = stride.min(left);
                        hist.add_n(v, group as u64);
                        left -= group;
                        skip = stride;
                    }
                    skip -= 1;
                }
            }
            hist
        });
        Self {
            hist,
            codec_active,
            sorted,
            hot_len: tier.hot.len(),
        }
    }

    /// The pseudo-histogram of the active values; `None` when the column
    /// has no active row. Its total is [`Self::active_rows`].
    pub fn histogram(&self) -> Option<&Histogram> {
        self.hist.as_ref()
    }

    /// Active rows in the column (frozen and hot).
    pub fn active_rows(&self) -> u64 {
        self.codec_active.iter().sum()
    }

    /// Active rows held in blocks of `encoding` (`None` = the hot tail):
    /// the weights a cost model blends its per-codec prices with.
    pub fn active_rows_in(&self, encoding: Option<Encoding>) -> u64 {
        self.codec_active[encoding.map_or(Encoding::ALL.len(), |e| e.tag() as usize)]
    }

    /// Cheap, conservative test that the column's physical row order is
    /// nondecreasing in *value* over its active rows: frozen block metas
    /// chain nondecreasingly (blocks with no active rows contribute
    /// nothing) and the active hot rows continue the chain in order.
    ///
    /// A `true` is a *hint*: block meta cannot see within-block order, so
    /// callers relying on global order (the sort-merge join path) must
    /// verify on the materialized keys before trusting it. `false` is
    /// always safe — it only forfeits an optimization.
    pub fn sorted_hint(&self) -> bool {
        self.sorted
    }

    /// Resident bytes of the summary.
    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.hist.as_ref().map_or(0, Histogram::bins) * std::mem::size_of::<u64>()
    }
}

/// Where a column keeps its [`ColumnSummary`]. Derived state, so a clone
/// starts empty (whoever holds the clone may pair it with other activity
/// words) and equality ignores it. Read through `&self` under the lock;
/// every `&mut` transition empties it with `get_mut`, which takes no lock.
#[derive(Debug, Default)]
struct SummaryCell(Mutex<Option<Arc<ColumnSummary>>>);

impl SummaryCell {
    /// Empty the cell: the data it describes is about to change.
    #[inline]
    fn clear(&mut self) {
        *self.0.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

impl Clone for SummaryCell {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl PartialEq for SummaryCell {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// The hot tail's zone map (see the module docs): one [`BlockMeta`] per
/// full hot block, and the forgets noted in the open block since it
/// opened. Derived state: it holds nothing the hot values and the
/// activity words do not, so equality ignores it (a clone keeps it —
/// the clone holds the same values). Beside it, the fold of every sealed
/// block's bounds, which [`TieredColumn::appended_range`] reads.
#[derive(Debug, Clone, Default)]
struct HotMeta {
    /// Meta of hot block `h`, rows `hot_start + h * block_rows ..`;
    /// always `hot.len() / block_rows` long.
    metas: Vec<BlockMeta>,
    /// Forgets noted in the open block; its `active` at seal is the
    /// block size less these.
    open_forgotten: usize,
    /// The hot length at which the open block fills: `push` compares
    /// against it instead of dividing.
    seal_at: usize,
    /// Min/max over every block `seal` sealed, whether
    /// it is still hot or frozen since.
    sealed: MinMax,
}

impl PartialEq for HotMeta {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

/// One block of the hot tail clipped to a row span, as
/// [`TieredColumn::hot_blocks`] yields it.
#[derive(Debug, Clone)]
pub struct HotBlock<'a> {
    /// Index of the block in the column (frozen blocks first).
    pub block: usize,
    /// Absolute rows of the block inside the span (word-aligned start
    /// when the span's start is).
    pub rows: std::ops::Range<usize>,
    /// The values of those rows.
    pub values: &'a [Value],
    /// The block's meta; `None` for the open last block.
    pub meta: Option<&'a BlockMeta>,
    /// The span holds the block's first row: of the spans tiling the
    /// tail, exactly one sees this for each block, so per-block counts
    /// taken here are the same however the tail is cut.
    pub starts: bool,
}

/// A column whose cold prefix lives compressed in place: frozen
/// [`EncodedBlock`]s with cached [`BlockMeta`], then a hot uncompressed
/// tail. A [`Table`](crate::table::Table) holds one per column, beside
/// the min/max of every value the column ever saw.
///
/// The block size must be a whole number of 64-row activity words so
/// frozen blocks tile activity words exactly — the alignment every fused
/// compressed kernel relies on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TieredColumn {
    block_rows: usize,
    /// `None` = per-block automatic codec choice; `Some` pins one codec
    /// (codec ablations and codec-targeted equivalence tests).
    encoding: Option<Encoding>,
    frozen: Vec<FrozenBlock>,
    hot: Vec<Value>,
    hot_meta: HotMeta,
    summary: SummaryCell,
}

impl TieredColumn {
    /// Empty column with the default block size.
    pub fn new() -> Self {
        Self::with_block_rows(DEFAULT_BLOCK_ROWS)
    }

    /// Empty column with a custom block size (rows per frozen block).
    pub fn with_block_rows(block_rows: usize) -> Self {
        assert!(
            block_rows > 0 && block_rows.is_multiple_of(WORD_BITS),
            "block size {block_rows} must be a positive multiple of {WORD_BITS}"
        );
        Self {
            block_rows,
            encoding: None,
            frozen: Vec::new(),
            hot: Vec::new(),
            hot_meta: HotMeta {
                seal_at: block_rows,
                ..HotMeta::default()
            },
            summary: SummaryCell::default(),
        }
    }

    /// Empty column freezing every block with one pinned codec.
    pub fn with_encoding(block_rows: usize, encoding: Encoding) -> Self {
        let mut c = Self::with_block_rows(block_rows);
        c.encoding = Some(encoding);
        c
    }

    /// Pin (or unpin) the freeze codec.
    pub fn pin_encoding(&mut self, encoding: Option<Encoding>) {
        self.encoding = encoding;
    }

    /// The pinned freeze codec, if any (`None` = automatic per-block
    /// choice).
    pub fn pinned_encoding(&self) -> Option<Encoding> {
        self.encoding
    }

    /// A column to rebuild from persisted parts (snapshot reader): the
    /// `frozen` blocks, each of exactly `block_rows` rows, and room for
    /// exactly `hot_rows` hot rows and the metas of their full blocks. A
    /// decode then pushes the hot tail through [`Rows`], which seals each
    /// full block as it fills and never grows either buffer. The blocks
    /// seal as if every hot row were active; the owning table recounts
    /// them under its activity words (`recount_hot_active`).
    pub fn from_parts(
        block_rows: usize,
        encoding: Option<Encoding>,
        frozen: Vec<FrozenBlock>,
        hot_rows: usize,
    ) -> Self {
        let mut c = Self::with_block_rows(block_rows);
        for (i, f) in frozen.iter().enumerate() {
            assert_eq!(
                f.block.len(),
                block_rows,
                "frozen block {i} holds {} rows, expected {block_rows}",
                f.block.len()
            );
        }
        c.encoding = encoding;
        c.frozen = frozen;
        c.hot = Vec::with_capacity(hot_rows);
        c.hot_meta.metas = Vec::with_capacity(hot_rows / block_rows);
        c
    }

    /// Set every full hot block's `active`, and the open block's count of
    /// forgotten rows, from the activity `words` — the restore path's
    /// half of the hot zone map (the bounds come from the values alone).
    pub(crate) fn recount_hot_active(&mut self, words: &[u64]) {
        let (start, br) = (self.hot_start(), self.block_rows);
        for (h, meta) in self.hot_meta.metas.iter_mut().enumerate() {
            let lo = start + h * br;
            meta.active = count_set_bits_in(words, lo, lo + br);
        }
        let open = start + self.hot_meta.metas.len() * br;
        self.hot_meta.open_forgotten =
            self.len() - open - count_set_bits_in(words, open, self.len());
    }

    /// Rows per frozen block.
    pub fn block_rows(&self) -> usize {
        self.block_rows
    }

    /// Total number of rows (frozen + hot).
    pub fn len(&self) -> usize {
        self.frozen.len() * self.block_rows + self.hot.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of frozen blocks.
    pub fn frozen_blocks(&self) -> usize {
        self.frozen.len()
    }

    /// First physical row of the hot tail (multiple of the block size,
    /// and therefore word-aligned).
    pub fn hot_start(&self) -> usize {
        self.frozen.len() * self.block_rows
    }

    /// The hot uncompressed tail (rows `hot_start()..len()`).
    pub fn hot_values(&self) -> &[Value] {
        &self.hot
    }

    /// True when nothing is frozen and the whole column is one flat
    /// slice.
    pub fn is_fully_hot(&self) -> bool {
        self.frozen.is_empty()
    }

    /// The frozen block at `b` (payload + meta + state).
    pub fn frozen(&self, b: usize) -> Option<&FrozenBlock> {
        self.frozen.get(b)
    }

    /// Number of full blocks, frozen and hot: the blocks
    /// [`Self::meta`] answers for.
    pub fn full_blocks(&self) -> usize {
        self.frozen.len() + self.hot_meta.metas.len()
    }

    /// Cached metadata of full block `b`, frozen or hot. Panics past
    /// [`Self::full_blocks`] (the open last block has no meta).
    pub fn meta(&self, b: usize) -> &BlockMeta {
        match self.frozen.get(b) {
            Some(f) => &f.meta,
            None => &self.hot_meta.metas[b - self.frozen.len()],
        }
    }

    /// The hot blocks meeting rows `[lo, hi)`, ascending, each clipped to
    /// them: the walk every active-only hot kernel takes, so a full
    /// block is pruned by its meta before a value is read.
    pub fn hot_blocks(&self, lo: usize, hi: usize) -> impl Iterator<Item = HotBlock<'_>> {
        let (start, br) = (self.hot_start(), self.block_rows);
        let (lo, hi) = (lo.max(start), hi.min(self.len()));
        let first = if lo < hi { (lo - start) / br } else { 0 };
        (first..).map_while(move |h| {
            let block_lo = start + h * br;
            let rows = lo.max(block_lo)..hi.min(block_lo + br);
            (rows.start < rows.end).then(|| HotBlock {
                block: self.frozen.len() + h,
                values: &self.hot[rows.start - start..rows.end - start],
                meta: self.hot_meta.metas.get(h),
                starts: rows.start == block_lo,
                rows,
            })
        })
    }

    /// The column's [`ColumnSummary`] under the owning table's activity
    /// `words` — O(1) while the held one is current, one rebuild after a
    /// burst of mutations. Current means: no freeze, forget, drop or
    /// recompression since it was built (each empties the cell) and the
    /// same hot length (appends leave the cell alone). Concurrent readers
    /// of a stale cell wait for one build rather than each running their
    /// own. `words` must be the words every [`Self::note_forget`] of this
    /// column mirrors: the owning table's activity words.
    pub fn summary(&self, words: &[u64]) -> Arc<ColumnSummary> {
        // A poisoned lock still holds a whole summary or none: the one
        // write under it is the assignment below.
        let mut held = self
            .summary
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(s) = held.as_ref().filter(|s| s.hot_len == self.hot.len()) {
            return Arc::clone(s);
        }
        let built = Arc::new(ColumnSummary::from_tier(self, words));
        *held = Some(Arc::clone(&built));
        built
    }

    /// The hot tail as 64-row chunks, each with its activity word (bits
    /// past a short last chunk cleared).
    fn hot_words<'a>(&'a self, words: &'a [u64]) -> impl Iterator<Item = (&'a [Value], u64)> {
        let first = self.hot_start() / WORD_BITS;
        self.hot
            .chunks(WORD_BITS)
            .zip(&words[first..])
            .map(|(chunk, &w)| {
                let live = if chunk.len() < WORD_BITS {
                    (1u64 << chunk.len()) - 1
                } else {
                    !0
                };
                (chunk, w & live)
            })
    }

    /// Append one value to the hot tail, sealing the open block's meta
    /// when it fills. Freezing is *explicit*
    /// ([`Table::freeze_upto`](crate::table::Table::freeze_upto)) —
    /// appends never compress behind the caller's back.
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.hot.push(v);
        if self.hot.len() == self.hot_meta.seal_at {
            self.seal();
        }
    }

    /// Append many values to the hot tail, sealing every block they fill.
    pub fn extend_from_slice(&mut self, vs: &[Value]) {
        self.hot.extend_from_slice(vs);
        self.seal_full_blocks();
    }

    /// Seal every hot block the tail has filled since the last seal.
    fn seal_full_blocks(&mut self) {
        while self.hot.len() >= self.hot_meta.seal_at {
            self.seal();
        }
    }

    /// Append `n` rows of `v` to the hot tail, a block at a time, sealing
    /// every block they fill.
    fn push_run(&mut self, v: Value, mut n: usize) {
        while n > 0 {
            let k = n.min(self.hot_meta.seal_at - self.hot.len());
            self.hot.extend(std::iter::repeat_n(v, k));
            n -= k;
            if self.hot.len() == self.hot_meta.seal_at {
                self.seal();
            }
        }
    }

    /// Seal the meta of the hot block ending at `seal_at`: its bounds in
    /// one vector pass, its active rows the block less the forgets noted
    /// while it was open. The meta vector grows with the hot tail's
    /// capacity, so it reallocates when the tail did.
    #[inline(never)]
    fn seal(&mut self) {
        let br = self.block_rows;
        let end = self.hot_meta.seal_at;
        let (min, max) = bounds(&self.hot[end - br..end], mask_impl());
        let h = &mut self.hot_meta;
        if h.metas.len() == h.metas.capacity() {
            h.metas
                .reserve_exact((self.hot.capacity() / br).max(h.metas.len() + 1) - h.metas.len());
        }
        h.metas.push(BlockMeta {
            min,
            max,
            active: br.saturating_sub(h.open_forgotten),
        });
        h.sealed.push(min);
        h.sealed.push(max);
        h.open_forgotten = 0;
        h.seal_at += br;
    }

    /// Min/max of every value appended to the column — forgotten or not,
    /// frozen, recompressed or dropped since, and the hot tail
    /// [`Self::from_parts`] installed: the sealed blocks' bounds, folded
    /// as each block filled, and the open block's values, read now (at
    /// most a block's worth). Values a restore brought back only inside
    /// frozen blocks are not in it; the owning table keeps those.
    pub(crate) fn appended_range(&self) -> MinMax {
        let mut range = self.hot_meta.sealed;
        let open = &self.hot[self.hot_meta.metas.len() * self.block_rows..];
        if !open.is_empty() {
            let (min, max) = bounds(open, mask_impl());
            range.push(min);
            range.push(max);
        }
        range
    }

    /// Reserve hot-tail capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.hot.reserve(additional);
    }

    /// Value at a physical row. Hot rows are array indexing; frozen rows
    /// take the codec's one-shot [`EncodedBlock::value_at`] (no block
    /// decode); dropped rows yield 0. Many reads take a [`Self::reader`].
    #[inline]
    pub fn value_at(&self, row: usize) -> Value {
        let hot_start = self.hot_start();
        if row >= hot_start {
            return self.hot[row - hot_start];
        }
        let f = &self.frozen[row / self.block_rows];
        if f.is_dropped() {
            return 0;
        }
        f.block.value_at(row % self.block_rows)
    }

    /// A [`ColumnReader`] over this column: [`Self::value_at`] for many
    /// rows, each frozen block parsed once per visit instead of once per
    /// read.
    pub fn reader(&self) -> ColumnReader<'_> {
        ColumnReader {
            column: self,
            hot_start: self.hot_start(),
            lo: 0,
            hi: 0,
            block: BlockReader::default(),
        }
    }

    /// Freeze full blocks so that every row below `row` (rounded *down*
    /// to a block boundary) is compressed, `words` being the table's
    /// activity words: one column's freeze on the calling thread, the two
    /// steps a [`Table`](crate::table::Table) runs for all its columns at
    /// once (module docs, "Who runs the tier schedule"). Returns the
    /// number of blocks frozen.
    #[cfg(test)]
    fn freeze_upto(&mut self, row: usize, words: &[u64]) -> usize {
        let frozen: Vec<FrozenBlock> = self
            .blocks_to_freeze(row)
            .map(|b| self.freeze_block(b, words))
            .collect();
        self.push_frozen(frozen)
    }

    /// The blocks a freeze up to `row` freezes: the full hot blocks below
    /// `row` rounded down to a block boundary (none when the frozen prefix
    /// reaches that far already).
    pub(crate) fn blocks_to_freeze(&self, row: usize) -> std::ops::Range<usize> {
        let target = row.min(self.len()) / self.block_rows;
        self.frozen.len()..target.max(self.frozen.len())
    }

    /// The freeze job of hot block `b`, one of [`Self::blocks_to_freeze`]:
    /// the block's meta under `words` and its encoding (the pinned codec,
    /// or the smallest). Reads the column only, so the jobs of a freeze
    /// run on any thread; [`Self::push_frozen`] installs them.
    pub(crate) fn freeze_block(&self, b: usize, words: &[u64]) -> FrozenBlock {
        let br = self.block_rows;
        let i = b - self.frozen.len();
        let chunk = &self.hot[i * br..(i + 1) * br];
        FrozenBlock {
            meta: meta_of(chunk, words, b * br),
            block: match self.encoding {
                Some(e) => EncodedBlock::encode(chunk, e),
                None => EncodedBlock::encode_auto(chunk),
            },
            state: BlockState::Frozen,
        }
    }

    /// Install the [`Self::freeze_block`] jobs of the first hot blocks,
    /// in block order. One `push` per block: resident bytes count the
    /// frozen vector's capacity, and an `extend` would reserve for the
    /// whole batch at once and grow it differently. Returns the number of
    /// blocks frozen.
    pub(crate) fn push_frozen(&mut self, blocks: impl IntoIterator<Item = FrozenBlock>) -> usize {
        let first = self.frozen.len();
        for f in blocks {
            self.frozen.push(f);
        }
        let k = self.frozen.len() - first;
        if k == 0 {
            return 0;
        }
        self.summary.clear();
        self.hot = self.hot.split_off(k * self.block_rows);
        // The metas grew with the tail's capacity; they follow it down when
        // that frees more than a few cache lines, and otherwise keep their
        // room for the next blocks (no reallocation every freeze).
        let h = &mut self.hot_meta;
        h.metas.drain(..k);
        let room = self.hot.capacity() / self.block_rows;
        if h.metas.capacity() > room + METAS_SLACK {
            h.metas.shrink_to(room);
        }
        h.seal_at -= k * self.block_rows;
        k
    }

    /// Record that `row` was forgotten: the owning full block's active
    /// count drops so meta pruning sees it immediately — frozen or hot; a
    /// row of the open hot block is tallied until the block seals. Every
    /// forgotten row also leaves the summary.
    #[inline]
    pub fn note_forget(&mut self, row: usize) {
        if row < self.len() {
            self.note_forgotten(row / self.block_rows, 1);
        }
    }

    /// [`Self::note_forget`] for `n` rows of block `b` (rows `b *
    /// block_rows ..`, all in the column), all forgotten at once: one
    /// meta update, one summary clear. The owning table divides once for
    /// all its columns.
    #[inline]
    pub(crate) fn note_forgotten(&mut self, b: usize, n: usize) {
        self.summary.clear();
        if let Some(f) = self.frozen.get_mut(b) {
            f.meta.active = f.meta.active.saturating_sub(n);
            return;
        }
        let h = &mut self.hot_meta;
        match h.metas.get_mut(b - self.frozen.len()) {
            Some(meta) => meta.active = meta.active.saturating_sub(n),
            None => h.open_forgotten += n,
        }
    }

    /// Surrender the payload of fully-forgotten frozen block `b`
    /// (`meta.active` must be 0; otherwise a no-op returning 0). The
    /// block keeps its row range — only a 2-byte all-zero RLE placeholder
    /// remains. Returns the compressed bytes reclaimed.
    pub fn drop_block(&mut self, b: usize) -> usize {
        let Some(f) = self.frozen.get_mut(b) else {
            return 0;
        };
        if f.meta.active != 0 || f.is_dropped() {
            return 0;
        }
        self.summary.clear();
        let old = f.block.compressed_bytes();
        let mut buf = BytesMut::new();
        write_signed(&mut buf, 0);
        write_varint(&mut buf, self.block_rows as u64);
        f.block = EncodedBlock::from_parts(Encoding::Rle, self.block_rows, buf.freeze());
        f.state = BlockState::Dropped;
        // Scrub the zone bounds too: they are value-derived (undefined
        // while `active == 0`), and leaving them would let forgotten
        // extremes outlive the drop in snapshots.
        f.meta.min = 0;
        f.meta.max = 0;
        old.saturating_sub(f.block.compressed_bytes())
    }

    /// Recompress frozen block `b` of this one column on the calling
    /// thread: its job ([`Self::recompress_job`]) and its install, the two
    /// steps a [`Table`](crate::table::Table) runs for every column of
    /// many blocks at once. Returns compressed bytes saved.
    #[cfg(test)]
    fn recompress_block(&mut self, b: usize, words: &[u64]) -> usize {
        match self.recompress_job(b, words) {
            Some(job) => self.install_recompressed(b, job),
            None => 0,
        }
    }

    /// The recompression job of frozen block `b` under the table's
    /// activity `words` ([`FrozenBlock::recompressed`] with the column's
    /// pinned codec); `None` when the block is dropped or not frozen.
    pub(crate) fn recompress_job(
        &self,
        b: usize,
        words: &[u64],
    ) -> Option<(BlockMeta, Option<EncodedBlock>)> {
        let f = self.frozen.get(b).filter(|f| !f.is_dropped())?;
        let br = self.block_rows;
        let words = &words[b * br / WORD_BITS..(b + 1) * br / WORD_BITS];
        Some(f.recompressed(words, self.encoding))
    }

    /// Install the [`Self::recompress_job`] of frozen block `b`: the meta
    /// always (and the summary goes), the payload when the job found a
    /// smaller one. Returns compressed bytes saved.
    pub(crate) fn install_recompressed(
        &mut self,
        b: usize,
        (meta, block): (BlockMeta, Option<EncodedBlock>),
    ) -> usize {
        self.summary.clear();
        let f = &mut self.frozen[b];
        f.meta = meta;
        let Some(block) = block else {
            return 0;
        };
        let saved = f.block.compressed_bytes() - block.compressed_bytes();
        f.block = block;
        f.state = BlockState::Recompressed;
        saved
    }

    /// Decode one frozen block (or borrow nothing for dropped: yields
    /// zeros) — the slow path for consumers that need materialized
    /// values.
    pub fn block_dense(&self, b: usize) -> Vec<Value> {
        let f = &self.frozen[b];
        if f.is_dropped() {
            vec![0; self.block_rows]
        } else {
            f.block.decode()
        }
    }

    /// Materialize the whole column in physical row order (frozen blocks
    /// decode; dropped blocks yield zeros).
    pub fn dense_values(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        for b in 0..self.frozen.len() {
            out.extend(self.block_dense(b));
        }
        out.extend_from_slice(&self.hot);
        out
    }

    /// Compressed bytes currently held by frozen blocks.
    pub fn bytes_frozen(&self) -> usize {
        self.frozen.iter().map(|f| f.block.compressed_bytes()).sum()
    }

    /// Resident heap bytes: frozen payloads + per-block bookkeeping
    /// (block headers and hot block metas) + hot-tail capacity + the
    /// summary while one is held.
    pub fn memory_bytes(&self) -> usize {
        // The `Arc` allocation is the summary plus its two counts.
        let summary = self
            .summary
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |s| s.memory_bytes() + 2 * std::mem::size_of::<usize>());
        self.bytes_frozen()
            + self.frozen.capacity() * std::mem::size_of::<FrozenBlock>()
            + self.hot_meta.metas.capacity() * std::mem::size_of::<BlockMeta>()
            + self.hot.capacity() * std::mem::size_of::<Value>()
            + summary
            + std::mem::size_of::<Self>()
    }

    /// Bytes a flat `Vec<i64>` of the same length would use.
    pub fn plain_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<Value>()
    }

    /// Rows living in dropped blocks — row ids that still exist but whose
    /// values were surrendered. Reported separately from
    /// [`Self::compression_ratio`]: dropped rows are *amnesia* savings,
    /// not *compression* savings, and folding them into the ratio would
    /// let a table that forgot everything claim an arbitrarily large
    /// codec win.
    pub fn dropped_rows(&self) -> usize {
        self.frozen.iter().filter(|f| f.is_dropped()).count() * self.block_rows
    }

    /// Plain bytes of the *surviving* rows / resident bytes (≥ 1 means
    /// tiering is paying rent). Rows whose blocks were dropped are
    /// excluded from the numerator — after `drop_forgotten_blocks`
    /// surrenders payloads, `len` stays fixed while resident bytes
    /// approach zero, and the naive `plain_bytes / resident` quotient
    /// would inflate without bound ([`Self::dropped_rows`] carries that
    /// information instead). Returns 1.0 when nothing survives.
    pub fn compression_ratio(&self) -> f64 {
        let surviving = (self.len() - self.dropped_rows()) * std::mem::size_of::<Value>();
        let resident = self.memory_bytes();
        if resident == 0 || surviving == 0 {
            1.0
        } else {
            surviving as f64 / resident as f64
        }
    }
}

impl Default for TieredColumn {
    fn default() -> Self {
        Self::new()
    }
}

/// A decode into the hot tail ([`Encoding::decode_into`]) seals each
/// block's meta as the block fills, while its rows are in cache: the
/// restore's one pass over a tail.
impl Rows for TieredColumn {
    #[inline]
    fn push(&mut self, v: Value) {
        TieredColumn::push(self, v);
    }

    fn push_run(&mut self, v: Value, n: usize) {
        TieredColumn::push_run(self, v, n);
    }
}

/// Point reads of one [`TieredColumn`] in any row order:
/// [`Self::get`]`(row)` is exactly [`TieredColumn::value_at`]`(row)`.
/// A hot row is one slice index. A frozen row is read through the
/// [`BlockReader`] of its block, which stays open — header parsed, dict
/// entries decoded, runbits ranks summed, rle/delta cursor where it
/// stopped — until a read leaves the block's row range; the range test
/// replaces the division by the block size. Reads clustered by block
/// (join pairs in key order, a sparse selection's ascending survivors)
/// therefore pay each block's parse once. A dropped block reads 0.
pub struct ColumnReader<'a> {
    column: &'a TieredColumn,
    hot_start: usize,
    /// Rows `lo..hi` are the open block's (empty before the first frozen
    /// read).
    lo: usize,
    hi: usize,
    block: BlockReader<'a>,
}

impl ColumnReader<'_> {
    /// The value at physical `row`. Panics past the column's end.
    #[inline]
    pub fn get(&mut self, row: usize) -> Value {
        if row >= self.hot_start {
            return self.column.hot[row - self.hot_start];
        }
        if !(self.lo..self.hi).contains(&row) {
            self.enter(row);
        }
        self.block.get(row - self.lo)
    }

    /// Open the frozen block holding `row`.
    fn enter(&mut self, row: usize) {
        let rows = self.column.block_rows;
        let b = row / rows;
        let f = &self.column.frozen[b];
        (self.lo, self.hi) = (b * rows, (b + 1) * rows);
        if f.is_dropped() {
            self.block.open_zeros();
        } else {
            self.block.open(&f.block);
        }
    }
}

/// `(min, max)` of `values` (`(MAX, MIN)` when empty): the seal of a
/// full hot block. One AVX-512 `vpminsq`/`vpmaxsq` pass on that tier and
/// up; elsewhere the portable fold, which is the reference — baseline
/// x86-64 has no 64-bit vector min to autovectorize it with.
#[inline]
fn bounds(values: &[Value], imp: MaskImpl) -> (Value, Value) {
    #[cfg(target_arch = "x86_64")]
    if imp >= MaskImpl::Avx512 {
        // SAFETY: the tier is at least Avx512, so mask_impl() verified
        // avx512f on this CPU.
        return unsafe { bounds_avx512(values) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = imp;
    values
        .iter()
        .fold((Value::MAX, Value::MIN), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// [`bounds`] eight lanes at a time.
///
/// # Safety
/// Caller must verify `avx512f` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
// SAFETY: sound iff `avx512f` is present (the caller dispatches on the
// detected tier); every load reads one whole `chunks_exact(8)` chunk.
unsafe fn bounds_avx512(values: &[Value]) -> (Value, Value) {
    use std::arch::x86_64::*;
    let mut lo = _mm512_set1_epi64(Value::MAX);
    let mut hi = _mm512_set1_epi64(Value::MIN);
    let mut chunks = values.chunks_exact(8);
    for chunk in &mut chunks {
        let v = _mm512_loadu_si512(chunk.as_ptr() as *const __m512i);
        lo = _mm512_min_epi64(lo, v);
        hi = _mm512_max_epi64(hi, v);
    }
    let (mut min, mut max) = (_mm512_reduce_min_epi64(lo), _mm512_reduce_max_epi64(hi));
    for &v in chunks.remainder() {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

/// Meta over one block's values: min/max/count of the rows whose activity
/// bit (at global row `base + i`) is set.
fn meta_of(chunk: &[Value], words: &[u64], base: usize) -> BlockMeta {
    let mut meta = BlockMeta {
        min: Value::MAX,
        max: Value::MIN,
        active: 0,
    };
    for (i, &v) in chunk.iter().enumerate() {
        if bit_set(words, base + i) {
            meta.min = meta.min.min(v);
            meta.max = meta.max.max(v);
            meta.active += 1;
        }
    }
    meta
}

/// A frozen block squashed in one walk (see
/// [`FrozenBlock::recompressed`]): fed the block's runs, or its
/// surviving rows, in row order, it builds the maximal runs of the
/// squashed block and the meta of its active rows.
struct Squash<'a> {
    /// The block's activity words, block-local.
    words: &'a [u64],
    /// Rows settled so far: every row from here to the next survivor
    /// takes `last`.
    rows: usize,
    runs: Vec<(Value, usize)>,
    /// The last active value so far: what a forgotten row takes.
    last: Value,
    min: Value,
    max: Value,
}

impl<'a> Squash<'a> {
    fn new(words: &'a [u64]) -> Self {
        Self {
            words,
            rows: 0,
            runs: Vec::new(),
            last: 0,
            min: Value::MAX,
            max: Value::MIN,
        }
    }

    /// Rows `[start, start + len)` all hold `v`. Those before the first
    /// active one take the last survivor's value, the rest `v`; a run
    /// with no survivor is left to the next survivor (or
    /// [`Self::finish`]) to fill.
    fn run(&mut self, v: Value, start: usize, len: usize) {
        let end = start + len;
        if let Some(first) = first_set_bit_in(self.words, start, end) {
            self.survivor(first, v);
            self.push(v, end - self.rows);
            self.rows = end;
        }
    }

    /// Row `i` is active and holds `v`: the rows since the previous
    /// survivor take that survivor's value.
    fn survivor(&mut self, i: usize, v: Value) {
        self.push(self.last, i - self.rows);
        self.push(v, 1);
        self.rows = i + 1;
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn push(&mut self, v: Value, len: usize) {
        match self.runs.last_mut() {
            _ if len == 0 => {}
            Some((last, n)) if *last == v => *n += len,
            _ => self.runs.push((v, len)),
        }
    }

    /// The squashed runs of the block's `len` rows and its meta.
    fn finish(mut self, len: usize) -> (Vec<(Value, usize)>, BlockMeta) {
        self.push(self.last, len - self.rows);
        let meta = BlockMeta {
            min: self.min,
            max: self.max,
            active: count_set_bits_in(self.words, 0, len),
        };
        (self.runs, meta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::table::Table;

    fn all_active(n: usize) -> Vec<u64> {
        let mut words = vec![!0u64; n.div_ceil(WORD_BITS)];
        if let Some(last) = words.last_mut() {
            let used = n - (n / WORD_BITS) * WORD_BITS;
            if used != 0 {
                *last = (1u64 << used) - 1;
            }
        }
        words
    }

    /// Resident bytes count the frozen vector's capacity, so a table's
    /// freeze of many blocks — fanned out from 16 on — pushes them one at
    /// a time, as a serial freeze does, never reserving for the batch.
    #[test]
    fn a_table_freeze_pushes_block_by_block() {
        let mut t = Table::with_block_rows(Schema::new(vec!["a", "b"]), 64);
        for i in 0..17 * 64 {
            t.insert(&[i, i % 3], 0).unwrap();
        }
        assert_eq!(t.freeze_upto(64), 1);
        assert_eq!(t.freeze_upto(17 * 64), 16);
        for c in 0..2 {
            let frozen = &t.col_tier(c).frozen;
            let mut pushed = Vec::new();
            for f in frozen {
                pushed.push(f.clone());
            }
            assert_eq!(frozen.capacity(), pushed.capacity(), "column {c}");
        }
    }

    #[test]
    fn freeze_upto_compresses_full_blocks_only() {
        let mut c = TieredColumn::with_block_rows(64);
        let values: Vec<i64> = (0..200).collect();
        c.extend_from_slice(&values);
        assert!(c.is_fully_hot());
        let frozen = c.freeze_upto(200, &all_active(200));
        assert_eq!(frozen, 3, "3 full blocks of 64; 8 rows stay hot");
        assert_eq!(c.frozen_blocks(), 3);
        assert_eq!(c.hot_start(), 192);
        assert_eq!(c.hot_values(), &values[192..]);
        assert_eq!(c.len(), 200);
        // Values read back identically through the tiers.
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(c.value_at(i), v, "row {i}");
        }
        // Meta is cached per block.
        assert_eq!(c.meta(1).min, 64);
        assert_eq!(c.meta(1).max, 127);
        assert_eq!(c.meta(1).active, 64);
        // Freezing again below the boundary is a no-op.
        assert_eq!(c.freeze_upto(100, &all_active(200)), 0);
    }

    #[test]
    fn drop_block_requires_fully_forgotten() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..128).collect::<Vec<i64>>());
        let mut words = all_active(128);
        c.freeze_upto(128, &words);
        // Block 0 still has active rows: refuse.
        assert_eq!(c.drop_block(0), 0);
        // Forget every row of block 0.
        words[0] = 0;
        for r in 0..64 {
            c.note_forget(r);
        }
        assert_eq!(c.meta(0).active, 0);
        let freed = c.drop_block(0);
        assert!(freed > 0, "payload reclaimed");
        assert!(c.frozen(0).unwrap().is_dropped());
        assert_eq!(c.value_at(3), 0, "dropped rows read as 0");
        assert_eq!(c.value_at(64), 64, "other blocks untouched");
        assert_eq!(c.drop_block(0), 0, "double drop is a no-op");
        assert_eq!(c.len(), 128, "row ids stay stable");
    }

    #[test]
    fn recompress_squashes_forgotten_rows() {
        // Alternating values defeat RLE; forgetting the odd rows and
        // recompressing turns the block into one long run.
        let values: Vec<i64> = (0..1024).map(|i| if i % 2 == 0 { 5 } else { i }).collect();
        let mut c = TieredColumn::with_block_rows(1024);
        c.extend_from_slice(&values);
        let mut words = all_active(1024);
        c.freeze_upto(1024, &words);
        let before = c.bytes_frozen();
        for r in (1..1024).step_by(2) {
            words[r / 64] &= !(1u64 << (r % 64));
            c.note_forget(r);
        }
        let saved = c.recompress_block(0, &words);
        assert!(saved > 0, "recompression must shrink the payload");
        assert_eq!(c.bytes_frozen(), before - saved);
        assert_eq!(c.frozen(0).unwrap().state(), BlockState::Recompressed);
        // Meta tightened to the active rows.
        assert_eq!(c.meta(0).min, 5);
        assert_eq!(c.meta(0).max, 5);
        assert_eq!(c.meta(0).active, 512);
        // Active rows still read their original values.
        for r in (0..1024).step_by(2) {
            assert_eq!(c.value_at(r), 5, "active row {r}");
        }
    }

    /// A uniform block rotted to half its rows squashes into runs of
    /// about two rows: the run bitmap undercuts the rle of the same runs,
    /// and every active row reads as before. A second recompression reads
    /// that block back as runs and squashes it further, still without a
    /// block decode.
    #[test]
    fn a_half_rotten_uniform_block_recompresses_to_runbits() {
        let mut rng = amnesia_util::SimRng::new(50);
        let values: Vec<i64> = (0..1024).map(|_| rng.range_i64(0, 1_000_000)).collect();
        let mut c = TieredColumn::with_block_rows(1024);
        c.extend_from_slice(&values);
        let mut words = all_active(1024);
        c.freeze_upto(1024, &words);
        assert_eq!(c.frozen(0).unwrap().encoded().encoding(), Encoding::ForPack);
        // Each round forgets rows at random, then recompresses; the
        // squashed rows are what every row must read afterwards.
        let mut rot = |c: &mut TieredColumn, words: &mut [u64], keep: u64| {
            for r in 0..1024 {
                if bit_set(words, r) && rng.below(100) >= keep {
                    words[r / 64] &= !(1u64 << (r % 64));
                    c.note_forget(r);
                }
            }
            let mut last = 0;
            let squashed: Vec<i64> = (0..1024)
                .map(|r| {
                    if bit_set(words, r) {
                        last = values[r];
                    }
                    last
                })
                .collect();
            let before = crate::compress::block_decodes();
            assert!(c.recompress_block(0, words) > 0, "the block shrinks");
            assert_eq!(crate::compress::block_decodes(), before);
            let block = c.frozen(0).unwrap().encoded();
            assert_eq!(block.encoding(), Encoding::RunBits);
            assert_eq!(block.decode(), squashed);
            assert!(block.compressed_bytes() < crate::compress::rle::size(&squashed));
            for r in (0..1024).filter(|&r| bit_set(words, r)) {
                assert_eq!(c.value_at(r), values[r], "active row {r}");
            }
        };
        rot(&mut c, &mut words, 50);
        rot(&mut c, &mut words, 60);
    }

    #[test]
    fn meta_prunes_and_tracks_forgets() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..128).collect::<Vec<i64>>());
        c.freeze_upto(128, &all_active(128));
        assert!(c.meta(0).may_match(10, 20));
        assert!(!c.meta(0).may_match(64, 100), "bounds prune");
        assert!(!c.meta(1).may_match(0, 64));
        c.note_forget(0);
        assert_eq!(c.meta(0).active, 63);
    }

    #[test]
    fn resident_bytes_shrink_when_cold() {
        let values: Vec<i64> = (0..100_000).collect();
        let mut flat = TieredColumn::new();
        flat.extend_from_slice(&values);
        let mut tiered = flat.clone();
        tiered.freeze_upto(values.len(), &all_active(values.len()));
        assert!(
            tiered.memory_bytes() * 4 < flat.memory_bytes(),
            "frozen {} vs flat {}",
            tiered.memory_bytes(),
            flat.memory_bytes()
        );
        assert!(tiered.compression_ratio() > 4.0);
        assert!(tiered.bytes_frozen() > 0);
        assert_eq!(tiered.dense_values(), values);
    }

    #[test]
    fn dropped_blocks_do_not_inflate_compression_ratio() {
        // Incompressible-ish values: the honest ratio hovers near 1.
        let values: Vec<i64> = (0..4096).map(|i| (i * 0x9E37_79B9) ^ (i << 17)).collect();
        let mut c = TieredColumn::with_block_rows(1024);
        c.extend_from_slice(&values);
        let mut words = all_active(4096);
        c.freeze_upto(4096, &words);
        let honest = c.compression_ratio();
        assert!(honest < 2.0, "incompressible data, got {honest}");
        // Forget and drop 3 of the 4 blocks: resident bytes collapse but
        // the ratio must not claim a codec win it never earned.
        for r in 0..3072 {
            words[r / 64] &= !(1u64 << (r % 64));
            c.note_forget(r);
        }
        for b in 0..3 {
            assert!(c.drop_block(b) > 0);
        }
        assert_eq!(c.dropped_rows(), 3072);
        assert_eq!(c.len(), 4096, "row ids stay stable");
        let after = c.compression_ratio();
        assert!(
            after < honest * 1.5,
            "ratio inflated by drops: {after} vs honest {honest}"
        );
        // A fully dropped column reports a neutral ratio, not infinity.
        for r in 3072..4096 {
            c.note_forget(r);
        }
        c.drop_block(3);
        assert_eq!(c.dropped_rows(), 4096);
        assert_eq!(c.compression_ratio(), 1.0);
    }

    #[test]
    fn pinned_encoding_is_honoured() {
        let mut c = TieredColumn::with_encoding(64, Encoding::Plain);
        c.extend_from_slice(&vec![7i64; 128]);
        c.freeze_upto(128, &all_active(128));
        assert_eq!(c.frozen(0).unwrap().encoded().encoding(), Encoding::Plain);
        c.pin_encoding(Some(Encoding::Rle));
        c.extend_from_slice(&vec![7i64; 64]);
        c.freeze_upto(192, &all_active(192));
        assert_eq!(c.frozen(2).unwrap().encoded().encoding(), Encoding::Rle);
    }

    #[test]
    #[should_panic]
    fn unaligned_block_size_rejected() {
        let _ = TieredColumn::with_block_rows(100);
    }

    #[test]
    fn sorted_hint_is_conservative() {
        let hint = |c: &TieredColumn| c.summary(&all_active(c.len())).sorted_hint();
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..200).collect::<Vec<i64>>());
        assert!(hint(&c), "sorted hot tail");
        c.freeze_upto(200, &all_active(200));
        assert!(hint(&c), "sorted across tiers");
        // A hot value below the frozen max breaks the chain.
        c.push(-1);
        assert!(!hint(&c));
        // ...unless that row is forgotten: the hint is over active rows.
        let mut words = all_active(201);
        words[3] &= !(1u64 << 8);
        c.note_forget(200);
        assert!(c.summary(&words).sorted_hint());
        // Unsorted hot tail.
        let mut u = TieredColumn::with_block_rows(64);
        u.extend_from_slice(&[3, 1, 2]);
        assert!(!hint(&u));
        // Out-of-order block metas.
        let mut o = TieredColumn::with_block_rows(64);
        o.extend_from_slice(&(0..64).rev().collect::<Vec<i64>>());
        o.extend_from_slice(&(100..164).collect::<Vec<i64>>());
        o.freeze_upto(128, &all_active(128));
        // Block 0 meta is [0,63], block 1 meta [100,163]: the chain holds
        // even though block 0 is internally reversed — which is exactly
        // why the hint must be verified on materialized keys.
        assert!(hint(&o));
        let mut bad = TieredColumn::with_block_rows(64);
        bad.extend_from_slice(&(100..164).collect::<Vec<i64>>());
        bad.extend_from_slice(&(0..64).collect::<Vec<i64>>());
        bad.freeze_upto(128, &all_active(128));
        assert!(!hint(&bad));
        assert!(hint(&TieredColumn::new()), "empty column is sorted");
    }

    #[test]
    fn summary_is_held_until_a_mutation_or_an_append() {
        use crate::compress::summary_builds;
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..200).collect::<Vec<i64>>());
        let mut words = all_active(200);
        c.freeze_upto(200, &words);
        let before = summary_builds();
        let first = c.summary(&words);
        assert_eq!(summary_builds() - before, 1);
        assert!(Arc::ptr_eq(&first, &c.summary(&words)), "held, not rebuilt");
        assert_eq!(summary_builds() - before, 1);
        assert_eq!(first.active_rows(), 200);
        assert_eq!(first.histogram().unwrap().total(), 200);
        assert_eq!(first.histogram().unwrap().range(), (0, 199));
        assert_eq!(first.active_rows_in(None), 8);
        let frozen: u64 = Encoding::ALL
            .iter()
            .map(|&e| first.active_rows_in(Some(e)))
            .sum();
        assert_eq!(frozen, 192);
        // A clone starts with an empty cell and still compares equal.
        let twin = c.clone();
        assert_eq!(twin, c);
        assert_eq!(*twin.summary(&words), *first);
        assert_eq!(summary_builds() - before, 2);
        // An append is seen through the hot length, not through the cell.
        c.push(500);
        words = all_active(201);
        let grown = c.summary(&words);
        assert_eq!(summary_builds() - before, 3);
        assert_eq!(grown.histogram().unwrap().range(), (0, 500));
        // A forgotten hot row leaves the mass, the range and the count.
        words[3] &= !(1u64 << 8);
        c.note_forget(200);
        let shrunk = c.summary(&words);
        assert_eq!(summary_builds() - before, 4);
        assert_eq!(shrunk.active_rows(), 200);
        assert_eq!(shrunk.histogram().unwrap().range(), (0, 199));
        // So does a forgotten frozen row; meta bounds stay wide.
        words[0] &= !1;
        c.note_forget(0);
        assert_eq!(c.summary(&words).active_rows(), 199);
        // Every tier transition empties the cell, and each reaches its
        // state: block 1 keeps one row and recompresses, block 2 keeps
        // none and drops, and the hot tail fills block 3 and freezes it.
        for r in 64..192 {
            if r != 127 {
                words[r / 64] &= !(1u64 << (r % 64));
                c.note_forget(r);
            }
        }
        c.extend_from_slice(&[150; 55]);
        words[3] |= !0u64 << 9;
        for step in 0..3 {
            let held = c.summary(&words);
            match step {
                0 => assert!(c.recompress_block(1, &words) > 0),
                1 => assert!(c.drop_block(2) > 0),
                _ => assert_eq!(c.freeze_upto(256, &words), 1),
            }
            assert!(!Arc::ptr_eq(&held, &c.summary(&words)), "step {step}");
        }
        assert_eq!(c.frozen(1).unwrap().state(), BlockState::Recompressed);
        assert_eq!(c.frozen(2).unwrap().state(), BlockState::Dropped);
        assert_eq!(*c.meta(1), meta(127, 127, 1), "recompression tightens");
        // Block 0 was never recompressed: its meta still covers row 0.
        assert_eq!(c.summary(&words).histogram().unwrap().range(), (0, 199));
    }

    #[test]
    fn a_dropped_block_leaves_the_summary() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(1000..1064).collect::<Vec<i64>>());
        c.extend_from_slice(&(0..64).collect::<Vec<i64>>());
        let mut words = all_active(128);
        c.freeze_upto(128, &words);
        assert_eq!(c.summary(&words).histogram().unwrap().range(), (0, 1063));
        words[0] = 0;
        for r in 0..64 {
            c.note_forget(r);
        }
        let held = c.summary(&words);
        assert!(c.drop_block(0) > 0);
        let after = c.summary(&words);
        assert!(!Arc::ptr_eq(&held, &after), "a drop empties the cell");
        assert_eq!(after.histogram().unwrap().range(), (0, 63));
        assert_eq!(after.histogram().unwrap().total(), 64);
        let held = c.summary(&words);
        assert_eq!(c.drop_block(0), 0, "nothing left to drop");
        assert!(Arc::ptr_eq(&held, &c.summary(&words)), "a no-op keeps it");
    }

    fn meta(min: Value, max: Value, active: usize) -> BlockMeta {
        BlockMeta { min, max, active }
    }

    /// Every full hot block's meta, in order.
    fn hot_metas(c: &TieredColumn) -> Vec<BlockMeta> {
        (c.frozen_blocks()..c.full_blocks())
            .map(|b| *c.meta(b))
            .collect()
    }

    #[test]
    fn bounds_equal_the_portable_fold_on_every_tier() {
        let mut rng = amnesia_util::SimRng::new(34);
        let edges = [Value::MIN, Value::MAX, 0, -1];
        for len in [1usize, 7, 8, 9, 63, 64, 1_000, 1_024] {
            let values: Vec<Value> = (0..len)
                .map(|i| match i % 97 {
                    0..4 if len > 100 => edges[i % 97],
                    _ => rng.range_i64(-1_000_000, 1_000_000),
                })
                .collect();
            let want = bounds(&values, MaskImpl::Portable);
            assert_eq!(want.0, *values.iter().min().unwrap());
            assert_eq!(want.1, *values.iter().max().unwrap());
            for imp in MaskImpl::available() {
                assert_eq!(bounds(&values, imp), want, "{imp:?} len={len}");
            }
        }
    }

    #[test]
    fn full_hot_blocks_seal_through_push_and_extend() {
        let mut c = TieredColumn::with_block_rows(64);
        for v in 0..63 {
            c.push(v);
        }
        assert_eq!(c.full_blocks(), 0, "the open block has no meta");
        c.push(-5);
        assert_eq!(hot_metas(&c), [meta(-5, 62, 64)]);
        // One slice filling two blocks and opening a third.
        c.extend_from_slice(&(100..250).collect::<Vec<i64>>());
        assert_eq!(c.full_blocks(), 3);
        assert_eq!(*c.meta(1), meta(100, 163, 64));
        assert_eq!(*c.meta(2), meta(164, 227, 64));
        // An extend ending on a boundary seals the block it closes.
        c.extend_from_slice(&(250..292).collect::<Vec<i64>>());
        assert_eq!(c.full_blocks(), 4);
        assert_eq!(*c.meta(3), meta(228, 291, 64));
        let values: Vec<i64> = (0..256).collect();
        let mut a = TieredColumn::with_block_rows(64);
        a.extend_from_slice(&values);
        let mut b = TieredColumn::with_block_rows(64);
        values.iter().for_each(|&v| b.push(v));
        assert_eq!(hot_metas(&a), hot_metas(&b));
    }

    #[test]
    fn forgets_before_and_after_a_seal_keep_active_exact() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..100).collect::<Vec<i64>>());
        // Block 0 is sealed; rows 64..100 are the open block.
        c.note_forget(3);
        c.note_forgotten(1, 5);
        c.note_forget(99);
        assert_eq!(c.meta(0).active, 63);
        c.extend_from_slice(&(100..200).collect::<Vec<i64>>());
        assert_eq!(
            c.meta(1).active,
            58,
            "forgets in the open block count at seal"
        );
        assert_eq!(c.meta(2).active, 64, "and only in the block they hit");
        c.note_forget(130);
        assert_eq!(c.meta(2).active, 63);
        c.note_forget(10_000); // past the end: ignored
        assert_eq!(
            hot_metas(&c).iter().map(|m| m.active).sum::<usize>(),
            63 + 58 + 63
        );
        // Bounds cover forgotten values too: stale-safe, never narrow.
        assert_eq!((c.meta(0).min, c.meta(0).max), (0, 63));
    }

    #[test]
    fn freeze_moves_the_hot_metas() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..300).map(|i| i * 3 - 100).collect::<Vec<i64>>());
        let mut words = all_active(300);
        for r in [5, 70, 71, 200, 290] {
            words[r / 64] &= !(1u64 << (r % 64));
            c.note_forget(r);
        }
        let live = hot_metas(&c);
        assert_eq!(live.len(), 4);
        assert_eq!(c.freeze_upto(150, &words), 2);
        assert_eq!(hot_metas(&c), live[2..], "the unfrozen blocks keep theirs");
        assert_eq!(c.meta(1).active, 62, "the frozen meta of the same rows");
        c.push(7);
        assert_eq!(c.full_blocks(), 4, "no seal until the open block fills");
    }

    #[test]
    fn a_restored_column_recounts_the_maintained_metas() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..230).map(|i| (i * 37) % 101).collect::<Vec<i64>>());
        let mut words = all_active(230);
        for r in [0, 1, 63, 64, 130, 200, 229] {
            words[r / 64] &= !(1u64 << (r % 64));
            c.note_forget(r);
        }
        c.freeze_upto(64, &words);
        let mut restored = TieredColumn::from_parts(
            64,
            None,
            vec![c.frozen(0).unwrap().clone()],
            c.hot_values().len(),
        );
        restored.extend_from_slice(c.hot_values());
        restored.recount_hot_active(&words);
        assert_eq!(hot_metas(&restored), hot_metas(&c));
        // The open block's forgets carry over too.
        restored.extend_from_slice(&[1_000; 26]);
        c.extend_from_slice(&[1_000; 26]);
        assert_eq!(hot_metas(&restored), hot_metas(&c));
        assert_eq!(c.meta(3).active, 62);
    }

    #[test]
    fn a_decode_into_the_tail_seals_what_an_extend_seals() {
        let mut rng = amnesia_util::SimRng::new(47);
        // No full block, a short open block, exactly full blocks, and
        // full blocks with an open one behind them.
        for len in [0usize, 1, 63, 64, 65, 128, 200] {
            // A run across two block boundaries, then short runs.
            let values: Vec<Value> = (0..len)
                .map(|i| match (i, i % 5) {
                    (50..180, _) => 7,
                    (_, 0) => (i / 9) as Value,
                    _ => rng.range_i64(-1 << 30, 1 << 30),
                })
                .collect();
            let mut want = TieredColumn::with_block_rows(64);
            want.extend_from_slice(&values);
            for enc in Encoding::ALL {
                let block = EncodedBlock::encode(&values, enc);
                let mut got = TieredColumn::from_parts(64, None, vec![], len);
                let room = (got.hot.capacity(), got.hot_meta.metas.capacity());
                enc.decode_into(block.data(), len, None, &mut got);
                let ctx = format!("{enc:?} {len} rows");
                assert_eq!(got.hot_values(), values, "{ctx}");
                assert_eq!(hot_metas(&got), hot_metas(&want), "{ctx}");
                assert_eq!(got.appended_range(), want.appended_range(), "{ctx}");
                assert_eq!(got.hot_meta.seal_at, want.hot_meta.seal_at, "{ctx}");
                assert_eq!(
                    (got.hot.capacity(), got.hot_meta.metas.capacity()),
                    room,
                    "{ctx}: the decode grew a buffer"
                );
            }
        }
    }

    #[test]
    fn memory_bytes_count_the_hot_metas() {
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&[1; 63]);
        let open = c.memory_bytes() - c.hot.capacity() * std::mem::size_of::<Value>();
        c.push(1);
        let sealed = c.memory_bytes() - c.hot.capacity() * std::mem::size_of::<Value>();
        assert_eq!(
            sealed - open,
            c.hot_meta.metas.capacity() * std::mem::size_of::<BlockMeta>()
        );
        assert!(c.hot_meta.metas.capacity() >= 1);
        assert_eq!(std::mem::size_of::<BlockMeta>(), 24);
    }

    #[test]
    fn summary_stride_sample_conserves_active_mass() {
        let n = 3 * HOT_SAMPLE_CAP + 1234;
        let mut c = TieredColumn::with_block_rows(64);
        c.extend_from_slice(&(0..n as i64).map(|i| i % 1000).collect::<Vec<i64>>());
        // Forget every fifth row.
        let mut words = all_active(n);
        for r in (0..n).step_by(5) {
            words[r / 64] &= !(1u64 << (r % 64));
        }
        let active = words.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        let s = c.summary(&words);
        assert_eq!(s.active_rows(), active);
        assert_eq!(s.histogram().unwrap().total(), active);
        // The sample sees the same shape the rows have: a quarter of the
        // domain holds a quarter of the mass.
        let est = s.histogram().unwrap().estimate_range(0, 249);
        assert!((est / active as f64 - 0.25).abs() < 0.01, "est {est}");
        assert!(s.memory_bytes() < 1024, "{} bytes", s.memory_bytes());
    }
}

#[cfg(test)]
mod recompress_equivalence {
    use super::*;
    use amnesia_util::SimRng;
    use proptest::prelude::*;

    /// Recompression row by row, as it ran before it worked on runs: decode,
    /// squash each forgotten row onto the last active value (0 before the
    /// first), then encode in every codec (or the pinned one) and keep the
    /// first smallest if it beats the payload. The reference
    /// [`TieredColumn::recompress_block`] must match byte for byte.
    fn recompress_rows(c: &mut TieredColumn, b: usize, words: &[u64]) -> usize {
        let (base, pinned) = (b * c.block_rows, c.encoding);
        let f = &mut c.frozen[b];
        if f.is_dropped() {
            return 0;
        }
        let mut values = f.block.decode();
        let mut meta = BlockMeta {
            min: Value::MAX,
            max: Value::MIN,
            active: 0,
        };
        let mut last_active = 0;
        for (i, v) in values.iter_mut().enumerate() {
            if bit_set(words, base + i) {
                meta.min = meta.min.min(*v);
                meta.max = meta.max.max(*v);
                meta.active += 1;
                last_active = *v;
            } else {
                *v = last_active;
            }
        }
        let block = match pinned {
            Some(e) => EncodedBlock::encode(&values, e),
            None => Encoding::ALL
                .map(|e| EncodedBlock::encode(&values, e))
                .into_iter()
                .min_by_key(EncodedBlock::compressed_bytes)
                .expect("every encoding"),
        };
        f.meta = meta;
        let (old, new) = (f.block.compressed_bytes(), block.compressed_bytes());
        if new < old {
            f.block = block;
            f.state = BlockState::Recompressed;
            old - new
        } else {
            0
        }
    }

    const EXTREMES: [Value; 7] = [i64::MIN, i64::MAX, i64::MIN + 1, i64::MAX - 1, 0, -1, 1];

    /// `n` values in one of the shapes that pick different codecs: random
    /// 64-bit, runs over a few values (extremes among them), a narrow
    /// band, extremes only, ascending, constant.
    fn values(n: usize, shape: u8, rng: &mut SimRng) -> Vec<Value> {
        let few: Vec<Value> = (0..1 + rng.below(6))
            .map(|i| match i {
                0 => EXTREMES[rng.index(EXTREMES.len())],
                _ => rng.range_i64(-1_000, 1_000),
            })
            .collect();
        let base = rng.next_u64() as i64 >> 2;
        let mut out = Vec::with_capacity(n);
        let mut acc = rng.range_i64(-1 << 40, 1 << 40);
        while out.len() < n {
            match shape {
                0 => out.push(rng.next_u64() as i64),
                1 => {
                    let v = few[rng.index(few.len())];
                    let len = 1 + rng.index(40);
                    out.extend(std::iter::repeat_n(v, len.min(n - out.len())));
                }
                2 => out.push(base + rng.below(16) as i64),
                3 => out.push(EXTREMES[rng.index(EXTREMES.len())]),
                4 => {
                    acc += rng.range_i64(0, 3);
                    out.push(acc);
                }
                _ => out.push(few[0]),
            }
        }
        out
    }

    /// Clear the bits of rows `rows` (global) in `words`.
    fn forget(words: &mut [u64], rows: impl IntoIterator<Item = usize>) {
        for r in rows {
            words[r / WORD_BITS] &= !(1u64 << (r % WORD_BITS));
        }
    }

    /// Forget rows of the block at `base` in one of the activity patterns
    /// the squash turns on: a random density, leading rows (squashed onto
    /// 0), the whole block, all but one survivor, alternating rows, runs
    /// ending and starting at word boundaries, or nothing.
    fn apply_pattern(words: &mut [u64], base: usize, rows: usize, pattern: u8, rng: &mut SimRng) {
        let block = base..base + rows;
        match pattern {
            0 => {
                let p = [0.05, 0.3, 0.5, 0.9][rng.index(4)];
                forget(words, block.filter(|_| rng.chance(p)));
            }
            1 => forget(words, base..base + 1 + rng.index(rows)),
            2 => forget(words, block),
            3 => {
                let keep = base + rng.index(rows);
                forget(words, block.filter(|&r| r != keep));
            }
            4 => {
                let parity = rng.index(2);
                forget(words, block.filter(|r| r % 2 == parity));
            }
            5 => {
                for _ in 0..1 + rng.index(4) {
                    let edge = base + WORD_BITS * rng.index(rows / WORD_BITS + 1);
                    let lo = edge.saturating_sub(rng.index(3)).max(base);
                    let hi = (edge + rng.index(3) + WORD_BITS * rng.index(2)).min(base + rows);
                    forget(words, lo..hi);
                }
            }
            _ => {}
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// Every source codec (pinned and automatic), every activity
        /// pattern, three block sizes, and a second round of forgetting
        /// and recompression over the first's output: the run-domain step
        /// leaves the same payload, meta and state and returns the same
        /// savings as the row-domain reference.
        #[test]
        fn run_domain_recompression_equals_the_row_domain_reference(
            rows in prop_oneof![Just(64usize), Just(128), Just(1_024)],
            codec in 0usize..6,
            shape in 0u8..6,
            patterns in (0u8..7, 0u8..7),
            seed in any::<u64>(),
        ) {
            let mut rng = SimRng::new(seed);
            let mut c = match Encoding::ALL.get(codec) {
                Some(&e) => TieredColumn::with_encoding(rows, e),
                None => TieredColumn::with_block_rows(rows),
            };
            c.extend_from_slice(&values(2 * rows, shape, &mut rng));
            let mut words = vec![!0u64; 2 * rows / WORD_BITS];
            c.freeze_upto(2 * rows, &words);
            let mut reference = c.clone();
            for pattern in [patterns.0, patterns.1] {
                for b in 0..2 {
                    apply_pattern(&mut words, b * rows, rows, pattern, &mut rng);
                    let want = recompress_rows(&mut reference, b, &words);
                    let got = c.recompress_block(b, &words);
                    prop_assert_eq!(got, want, "saved, block {}", b);
                    prop_assert_eq!(c.frozen(b), reference.frozen(b), "block {}", b);
                }
            }
        }
    }

    /// The pinned shapes the proptest samples: `i64::MIN`/`i64::MAX` runs,
    /// a forgotten prefix that squashes onto 0, then more forgetting, then
    /// a third recompression with nothing new forgotten.
    #[test]
    fn extremes_and_repeated_recompression_match_the_reference() {
        let mut c = TieredColumn::with_block_rows(128);
        let vals: Vec<Value> = (0..128)
            .map(|i| EXTREMES[i / 20 % EXTREMES.len()])
            .collect();
        c.extend_from_slice(&vals);
        let mut words = vec![!0u64; 2];
        c.freeze_upto(128, &words);
        let mut reference = c.clone();
        let rounds: [Vec<usize>; 3] = [
            (0..70).collect(),
            (71..128).filter(|r| r % 3 != 0).collect(),
            Vec::new(),
        ];
        for (round, rows) in rounds.into_iter().enumerate() {
            forget(&mut words, rows);
            let saved = c.recompress_block(0, &words);
            assert_eq!(saved, recompress_rows(&mut reference, 0, &words));
            assert_eq!(c.frozen(0), reference.frozen(0));
            assert_eq!(saved > 0, round == 0, "round {round}");
        }
        assert_eq!(c.frozen(0).unwrap().state(), BlockState::Recompressed);
        // Row 70 and every third row after it survive.
        assert_eq!(c.meta(0).active, 20);
    }
}
