//! Equi-joins over amnesiac tables: the plan's build and probe kernels,
//! and the forgotten-inclusive truth join beside them.
//!
//! The paper carves its workload out of "the unbounded space of
//! SELECT-PROJECT-JOIN queries" (§2.2) and flags joins as the place where
//! amnesia bites hardest: a forgotten tuple on *either* side removes all
//! its join partners from the result (§5's referential-integrity
//! discussion).
//!
//! * **The amnesiac join** is `build_span` + `probe_span`, the two
//!   join kernels of
//!   [`Executor::execute_plan`](crate::exec::Executor::execute_plan),
//!   each over one span of its table and both in compressed space: the
//!   build streams a frozen block's selected keys through the codec's
//!   structure (one hash-table touch per RLE run, one per distinct
//!   dictionary value, offset/prefix walks for FOR/delta), the probe
//!   prunes full blocks, frozen and hot, by their cached
//!   [`BlockMeta`](amnesia_columnar::BlockMeta) against the build side's
//!   key range and probes frozen survivors in their codec's domain
//!   ([`crate::batch::probe_tiered_blocks_with`]); hot rows are raw slice
//!   walks. No block is decoded. [`hash_join`] and [`hash_join_count`]
//!   under [`ForgetVisibility::ActiveOnly`] are those kernels run under
//!   the activity words — the plan join with no predicate pushed down.
//! * **The truth join** ([`ForgetVisibility::ScanSeesForgotten`], and
//!   the denominator of [`join_precision`]) is what a plan cannot
//!   express: every physical row that still holds a value participates,
//!   forgotten or not. It is dense on purpose — a forgotten row's value
//!   is reachable only by decoding its block, which the active-only
//!   kernels never do — and it skips dropped blocks, whose values no
//!   longer exist anywhere. That one decode per side carries the
//!   module's only `lint: allow(dense)` waiver; `amnesia-lint` bans dense
//!   materialization everywhere else (the rule and its waiver policy
//!   live in `CONTRIBUTING.md`).
//!
//! Pairs come out ascending per key on the build side and right-major in
//! probe-row order, whichever regime and however the tables are tiered
//! (`tests/kernel_equivalence.rs`, `tests/join_properties.rs`).

use amnesia_columnar::compress::{dict, Encoding};
use amnesia_columnar::{RowId, Table, Value};
use amnesia_util::bitmap::{any_set_bit_in, for_each_set_bit_in};
use amnesia_util::WORD_BITS;

use crate::batch::{self, ProbeStats};
use crate::hash::ValueMap;
use crate::mode::ForgetVisibility;
use crate::morsel::{Pool, Span};

/// Cardinalities observed while executing a join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinStats {
    /// Rows hashed on the build side.
    pub build_rows: usize,
    /// Distinct keys in the build table.
    pub build_distinct_keys: usize,
    /// Rows participating on the probe side (active rows under the
    /// amnesiac regime; [`Self::probe_rows_skipped`] of them may have
    /// been pruned without being streamed).
    pub probe_rows: usize,
    /// Output pairs produced.
    pub output_pairs: usize,
    /// Full probe blocks, frozen or hot, skipped because their cached
    /// meta cannot intersect the build side's key range (tiered probe
    /// only).
    pub blocks_pruned: usize,
    /// Active probe rows inside those skipped blocks — work the metadata
    /// saved.
    pub probe_rows_skipped: usize,
}

/// A join answer: matching `(left row, right row)` pairs plus stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinResult {
    /// Matching row pairs in probe order (right-major).
    pub pairs: Vec<(RowId, RowId)>,
    /// Execution cardinalities.
    pub stats: JoinStats,
}

/// A join build side: `key → ascending build rows` plus the inclusive
/// `[min, max]` range of its keys (`None` when no row was selected) —
/// what the probe side prunes full blocks against.
pub(crate) type BuildSide = (ValueMap<Vec<RowId>>, Option<(Value, Value)>);

/// The rows of key `v` in a build side under construction, widening the
/// key range to cover it.
fn rows_of(side: &mut BuildSide, v: Value) -> &mut Vec<RowId> {
    side.1 = Some(side.1.map_or((v, v), |(lo, hi)| (lo.min(v), hi.max(v))));
    side.0.entry(v).or_default()
}

/// The join-build kernel: hash the rows of one span of `table` that
/// `words` selects (the scan's selection, which already has activity
/// ANDed in) by their `col` key, without dense materialization. Each
/// codec feeds through its structure: rle and runbits touch the table
/// once per run ([`amnesia_columnar::compress::EncodedBlock::for_each_run`]),
/// dict buckets selected rows per code in one unpacking pass and inserts
/// each distinct dictionary value once, FOR/delta/plain stream
/// `(row, value)` through
/// [`amnesia_columnar::compress::EncodedBlock::for_each_active`], and hot
/// rows walk the raw slice. Blocks ascend and every fan-out ascends, so
/// per key the rows ascend — also across calls that fold ascending spans
/// into one `side`.
pub(crate) fn build_span(
    table: &Table,
    col: usize,
    words: &[u64],
    span: &Span,
    side: &mut BuildSide,
) {
    let tier = table.col_tier(col);
    match *span {
        Span::Blocks { first, last } => {
            let br = tier.block_rows();
            for b in first..last {
                let f = tier.frozen(b).expect("frozen block in range");
                if f.meta().active == 0 {
                    continue; // dropped or fully-forgotten: payload never touched
                }
                let bw = batch::block_words(tier, words, b);
                if bw.iter().all(|&w| w == 0) {
                    continue; // nothing selected in this block
                }
                let base = b * br;
                let block = f.encoded();
                match block.encoding() {
                    // One entry lookup per run; runs with no selected row
                    // are skipped so the table never learns rowless keys.
                    Encoding::Rle | Encoding::RunBits => block.for_each_run(|v, start, len| {
                        if any_set_bit_in(bw, start, start + len) {
                            let rows = rows_of(side, v);
                            for_each_set_bit_in(bw, start, start + len, |row| {
                                rows.push(RowId::from(base + row));
                            });
                        }
                    }),
                    Encoding::Dict => {
                        let dictionary = dict::read_dictionary(block.data());
                        let mut rows_per_code: Vec<Vec<u32>> = vec![Vec::new(); dictionary.len()];
                        dict::for_each_active_code(block.data(), bw, |row, code| {
                            rows_per_code[code as usize].push(row as u32);
                        });
                        for (code, rows) in rows_per_code.iter().enumerate() {
                            if !rows.is_empty() {
                                rows_of(side, dictionary[code])
                                    .extend(rows.iter().map(|&r| RowId::from(base + r as usize)));
                            }
                        }
                    }
                    _ => block.for_each_active(bw, |row, v| {
                        rows_of(side, v).push(RowId::from(base + row))
                    }),
                }
            }
        }
        Span::Rows { lo, hi } => {
            let (hot, start) = (tier.hot_values(), tier.hot_start());
            for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let mut selected = batch::tail_word(words, wi, (hi - base).min(WORD_BITS));
                while selected != 0 {
                    let row = base + selected.trailing_zeros() as usize;
                    selected &= selected - 1;
                    rows_of(side, hot[row - start]).push(RowId::from(row));
                }
            }
        }
    }
}

/// The join-probe kernel: probe the rows of one span of `table` that
/// `sel` selects against `build`, appending `(build row, probe row)`
/// pairs grouped by probe row to `pairs` and the pruning accounting to
/// `stats`. Full blocks are pruned by key-range meta; frozen survivors
/// probe in compressed space, hot rows as a direct slice walk.
// The arguments are the stage's inputs plus the accumulator pair every
// span of the stage folds into; a struct would only rename them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_span(
    table: &Table,
    col: usize,
    sel: &[u64],
    span: &Span,
    build: &ValueMap<Vec<RowId>>,
    key_range: Option<(Value, Value)>,
    pairs: &mut Vec<(RowId, RowId)>,
    stats: &mut ProbeStats,
) {
    let tier = table.col_tier(col);
    let on_hit = |ls: &Vec<RowId>, row: usize| {
        pairs.extend(ls.iter().map(|&l| (l, RowId::from(row))));
    };
    match *span {
        Span::Blocks { first, last } => stats.merge(batch::probe_tiered_blocks_with(
            tier, sel, first, last, build, key_range, on_hit,
        )),
        Span::Rows { lo, hi } => stats.merge(batch::probe_tiered_rows_with(
            tier, sel, lo, hi, build, key_range, on_hit,
        )),
    }
}

/// Visit every physical row of `col` that still holds a value, forgotten
/// or not, in row order — one side of the truth join. Dense by
/// necessity (a forgotten row's value survives nowhere but its block's
/// decode); rows of dropped blocks are skipped, because a dropped block
/// surrendered its values and its dense image is padding, not data.
fn for_each_surviving_key(table: &Table, col: usize, mut f: impl FnMut(usize, Value)) {
    let tier = table.col_tier(col);
    let br = tier.block_rows();
    // lint: allow(dense) mark-only ground truth: forgotten rows' values survive nowhere but the dense decode
    let values = table.col_values_dense(col);
    for (b, block) in values.chunks(br).enumerate() {
        if tier.frozen(b).is_some_and(|f| f.is_dropped()) {
            continue;
        }
        for (i, &v) in block.iter().enumerate() {
            f(b * br + i, v);
        }
    }
}

/// The mark-only ground truth: hash every surviving left key, probe
/// with every surviving right key, `on_hit(left rows, right row)` per
/// matching right row in row order. Returns the input cardinalities
/// (`output_pairs` is the caller's to count). The store layer gates lossy
/// tier transitions (drop/recompress) off this regime, which is what
/// keeps it exact.
fn truth_join(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
    mut on_hit: impl FnMut(&[RowId], usize),
) -> JoinStats {
    let mut stats = JoinStats::default();
    let mut build: ValueMap<Vec<RowId>> = ValueMap::default();
    for_each_surviving_key(left, left_col, |r, v| {
        stats.build_rows += 1;
        build.entry(v).or_default().push(RowId::from(r));
    });
    stats.build_distinct_keys = build.len();
    for_each_surviving_key(right, right_col, |r, v| {
        stats.probe_rows += 1;
        if let Some(ls) = build.get(&v) {
            on_hit(ls, r);
        }
    });
    stats
}

/// Hash equi-join `left.left_col = right.right_col`.
///
/// Builds on the left input and probes with the right, so pairs come out
/// grouped by right row. `visibility` decides whether forgotten tuples
/// participate: [`ForgetVisibility::ActiveOnly`] is the amnesiac answer
/// (the plan's build and probe kernels under the activity words),
/// [`ForgetVisibility::ScanSeesForgotten`] the mark-only ground truth
/// (dense by necessity: it must read forgotten rows).
pub fn hash_join(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
    visibility: ForgetVisibility,
) -> JoinResult {
    let (pairs, mut stats) = match visibility {
        ForgetVisibility::ActiveOnly => {
            let mut pool = Pool::inline();
            let (build, key_range) = pool.join_build(left, left_col, left.activity_words());
            let (pairs, probe) =
                pool.join_probe(right, right_col, right.activity_words(), &build, key_range);
            let stats = JoinStats {
                build_rows: left.active_rows(),
                build_distinct_keys: build.len(),
                probe_rows: right.active_rows(),
                blocks_pruned: probe.blocks_pruned,
                probe_rows_skipped: probe.probe_rows_skipped,
                ..Default::default()
            };
            (pairs, stats)
        }
        ForgetVisibility::ScanSeesForgotten => {
            let mut pairs = Vec::new();
            let stats = truth_join(left, left_col, right, right_col, |ls, r| {
                pairs.extend(ls.iter().map(|&l| (l, RowId::from(r))));
            });
            (pairs, stats)
        }
    };
    stats.output_pairs = pairs.len();
    JoinResult { pairs, stats }
}

/// Number of matching pairs without materializing them: the same build,
/// and a probe that adds each hit's build-row count instead of fanning
/// the rows out.
pub fn hash_join_count(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
    visibility: ForgetVisibility,
) -> usize {
    let mut count = 0usize;
    match visibility {
        ForgetVisibility::ActiveOnly => {
            let (build, key_range) =
                Pool::inline().join_build(left, left_col, left.activity_words());
            batch::probe_tiered_with(
                right.col_tier(right_col),
                right.activity_words(),
                &build,
                key_range,
                |ls, _| count += ls.len(),
            );
        }
        ForgetVisibility::ScanSeesForgotten => {
            truth_join(left, left_col, right, right_col, |ls, _| count += ls.len());
        }
    }
    count
}

/// Join precision under amnesia: pairs surviving in the active join over
/// pairs in the all-rows ground truth (`RF/(RF+MF)` lifted to joins).
/// `None` when the ground-truth join is empty.
pub fn join_precision(
    left: &Table,
    left_col: usize,
    right: &Table,
    right_col: usize,
) -> Option<f64> {
    let truth = hash_join_count(
        left,
        left_col,
        right,
        right_col,
        ForgetVisibility::ScanSeesForgotten,
    );
    if truth == 0 {
        return None;
    }
    let active = hash_join_count(
        left,
        left_col,
        right,
        right_col,
        ForgetVisibility::ActiveOnly,
    );
    Some(active as f64 / truth as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;

    /// parent(key), child(fk, payload).
    fn fixtures() -> (Table, Table) {
        let mut parent = Table::new(Schema::single("key"));
        for k in [1i64, 2, 3, 3] {
            parent.insert(&[k], 0).unwrap();
        }
        let mut child = Table::new(Schema::new(vec!["fk", "payload"]));
        for (fk, p) in [(1i64, 10i64), (1, 11), (3, 30), (4, 40)] {
            child.insert(&[fk, p], 0).unwrap();
        }
        (parent, child)
    }

    #[test]
    fn join_matches_expected_pairs() {
        let (parent, child) = fixtures();
        let r = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        // key 1 → child rows 0,1; key 3 appears twice in parent → child
        // row 2 pairs with both parent rows 2 and 3; key 4 dangles.
        assert_eq!(r.stats.output_pairs, 4);
        let mut pairs = r.pairs.clone();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (RowId(0), RowId(0)),
                (RowId(0), RowId(1)),
                (RowId(2), RowId(2)),
                (RowId(3), RowId(2)),
            ]
        );
        assert_eq!(r.stats.build_rows, 4);
        assert_eq!(r.stats.build_distinct_keys, 3);
        assert_eq!(r.stats.probe_rows, 4);
    }

    #[test]
    fn count_agrees_with_materialized_join() {
        let (parent, child) = fixtures();
        for vis in [
            ForgetVisibility::ActiveOnly,
            ForgetVisibility::ScanSeesForgotten,
        ] {
            let full = hash_join(&parent, 0, &child, 0, vis);
            let count = hash_join_count(&parent, 0, &child, 0, vis);
            assert_eq!(count, full.stats.output_pairs, "{vis:?}");
        }
    }

    #[test]
    fn forgetting_a_build_row_removes_its_pairs() {
        let (mut parent, child) = fixtures();
        parent.forget(RowId(0), 1).unwrap(); // key 1 forgotten
        let active = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(active.stats.output_pairs, 2, "only key-3 pairs remain");
        // Ground truth still sees everything.
        let truth = hash_join(&parent, 0, &child, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth.stats.output_pairs, 4);
    }

    #[test]
    fn forgetting_a_probe_row_removes_its_pairs() {
        let (parent, mut child) = fixtures();
        child.forget(RowId(2), 1).unwrap(); // fk=3 child forgotten
        let active = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(active.stats.output_pairs, 2, "key-1 pairs remain");
    }

    #[test]
    fn precision_tracks_forgotten_pairs() {
        let (mut parent, child) = fixtures();
        assert_eq!(join_precision(&parent, 0, &child, 0), Some(1.0));
        parent.forget(RowId(0), 1).unwrap(); // kills 2 of 4 pairs
        assert_eq!(join_precision(&parent, 0, &child, 0), Some(0.5));
    }

    #[test]
    fn empty_truth_yields_none() {
        let mut left = Table::new(Schema::single("a"));
        left.insert(&[1], 0).unwrap();
        let mut right = Table::new(Schema::single("a"));
        right.insert(&[2], 0).unwrap();
        assert_eq!(join_precision(&left, 0, &right, 0), None);
    }

    #[test]
    fn empty_inputs_do_not_panic() {
        let left = Table::new(Schema::single("a"));
        let right = Table::new(Schema::single("a"));
        let r = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.build_distinct_keys, 0);
    }

    #[test]
    fn self_join_counts_value_multiplicities() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[5, 5, 5, 9], 0).unwrap();
        let n = hash_join_count(&t, 0, &t, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(n, 9 + 1, "3×3 fives plus 1×1 nine");
    }

    /// Frozen fixtures: same logical tables as [`fixtures`], but every
    /// full 64-row block compressed (the tables are padded so freezing
    /// actually engages).
    fn frozen_fixtures() -> (Table, Table) {
        let mut parent = Table::with_block_rows(Schema::single("key"), 64);
        let mut keys = vec![1i64, 2, 3, 3];
        keys.extend(std::iter::repeat_n(1_000, 60)); // pad: never joins
        parent.insert_batch(&keys, 0).unwrap();
        let mut child = Table::new(Schema::new(vec!["fk", "payload"]));
        for (fk, p) in [(1i64, 10i64), (1, 11), (3, 30), (4, 40)] {
            child.insert(&[fk, p], 0).unwrap();
        }
        parent.freeze_upto(64);
        assert!(parent.has_frozen());
        (parent, child)
    }

    #[test]
    fn frozen_build_side_matches_dense_join() {
        let (parent, child) = frozen_fixtures();
        let r = hash_join(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
        let mut pairs = r.pairs.clone();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (RowId(0), RowId(0)),
                (RowId(0), RowId(1)),
                (RowId(2), RowId(2)),
                (RowId(3), RowId(2)),
            ]
        );
        assert_eq!(r.stats.build_distinct_keys, 4, "1, 2, 3 and the pad key");
        assert_eq!(
            hash_join_count(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly),
            4
        );
    }

    #[test]
    fn frozen_probe_blocks_prune_against_build_key_range() {
        // Build keys live in [0, 100); the probe column's second frozen
        // block holds only values ≥ 10_000, so its meta prunes it.
        let mut build = Table::new(Schema::single("k"));
        build
            .insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
            .unwrap();
        let mut probe = Table::with_block_rows(Schema::single("k"), 64);
        let vals: Vec<i64> = (0..64)
            .map(|i| i % 50)
            .chain((0..64).map(|i| 10_000 + i))
            .chain([7, 8])
            .collect();
        probe.insert_batch(&vals, 0).unwrap();
        probe.freeze_upto(128);
        let r = hash_join(&build, 0, &probe, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(r.stats.blocks_pruned, 1, "the 10k block");
        assert_eq!(r.stats.probe_rows_skipped, 64);
        assert_eq!(r.stats.output_pairs, 64 + 2, "block 0 plus the hot tail");
        // Forgotten-inclusive ground truth is oblivious to pruning.
        let truth = hash_join(&build, 0, &probe, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth.stats.blocks_pruned, 0);
        assert_eq!(truth.stats.output_pairs, 66);
    }

    #[test]
    fn empty_build_side_prunes_every_probe_block() {
        let left = Table::new(Schema::single("a"));
        let mut right = Table::with_block_rows(Schema::single("a"), 64);
        right
            .insert_batch(&(0..128).collect::<Vec<i64>>(), 0)
            .unwrap();
        right.freeze_upto(128);
        let r = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert!(r.pairs.is_empty());
        assert_eq!(r.stats.blocks_pruned, 2);
        assert_eq!(r.stats.probe_rows_skipped, 128);
    }
}
