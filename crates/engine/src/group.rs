//! Vectorized hash group-by: `GROUP BY key` aggregation that folds
//! straight over compressed blocks.
//!
//! The SQL surface used to group row-at-a-time — one `HashMap` probe
//! plus one `Table::value` point read *per row per aggregate*. This
//! kernel consumes the physical plan's selection-mask words instead:
//! per frozen block it streams the group-key column and every aggregate
//! input column through the codecs' `for_each_active` under the block's
//! selection words (ascending row order for every codec, so the streams
//! stay aligned by position), lands them in per-block scratch buffers,
//! and folds the zipped rows into a [`GroupTable`] — one probe of its
//! [`ValueMap`] per run of equal keys (one multiply to hash the key, see
//! [`crate::hash`]; the table remembers the last key's slot, so a column
//! in insertion or key order pays one probe per group change, not per
//! row), zero block decodes, zero dense column materialization. The hot
//! tail folds directly from the raw slices with no scratch at all.
//!
//! `COUNT(*)` aggregates fold as bare count bumps; an aggregate over the
//! group key aliases the key stream instead of re-reading the column.
//!
//! The fold exists once, over one span of the table
//! (`grouped_fold_span`); [`grouped_fold`] runs it over the uncut
//! table, a `morsel::Pool` over however many pieces its workers
//! share, absorbing the pieces' tables in span order.

use amnesia_columnar::{Table, Value};
use amnesia_util::WORD_BITS;

use crate::batch::AggState;
use crate::hash::ValueMap;
use crate::morsel::{whole_table, Span};

/// Accumulated groups: first-seen order, one [`AggState`] per aggregate
/// input per group (row-major: `states[group * n_aggs + agg]`).
#[derive(Debug, Clone)]
pub struct GroupTable {
    index: ValueMap<u32>,
    keys: Vec<Value>,
    states: Vec<AggState>,
    n_aggs: usize,
    /// The last key [`Self::slot`] resolved and its slot: a run of equal
    /// keys pays one probe.
    last: Option<(Value, usize)>,
}

impl GroupTable {
    /// Empty table for `n_aggs` aggregate inputs per group.
    pub fn new(n_aggs: usize) -> Self {
        Self {
            index: ValueMap::default(),
            keys: Vec::new(),
            states: Vec::new(),
            n_aggs,
            last: None,
        }
    }

    /// The slot of `key`'s aggregate states, allocating on first sight.
    /// A key equal to the previous call's answers without a probe.
    #[inline]
    pub fn slot(&mut self, key: Value) -> usize {
        match self.last {
            Some((last, slot)) if last == key => slot,
            _ => {
                let slot = self.probe(key);
                self.last = Some((key, slot));
                slot
            }
        }
    }

    /// [`Self::slot`] through the index.
    fn probe(&mut self, key: Value) -> usize {
        let next = self.keys.len() as u32;
        let g = *self.index.entry(key).or_insert(next);
        if g == next {
            self.keys.push(key);
            self.states
                .extend(std::iter::repeat_n(AggState::new(), self.n_aggs));
        }
        g as usize * self.n_aggs
    }

    /// Merge another table's groups into this one: states merge per key
    /// (integer-exact), unseen keys append in `other`'s order. Absorbing
    /// the tables of ascending spans in span order therefore keeps the
    /// whole in first-seen row order — every key a later span introduces
    /// first occurs after every row of the spans before it.
    pub(crate) fn absorb(&mut self, other: &GroupTable) {
        debug_assert_eq!(self.n_aggs, other.n_aggs);
        for (g, &key) in other.keys.iter().enumerate() {
            let slot = self.slot(key);
            for a in 0..self.n_aggs {
                self.states[slot + a].merge(&other.states[g * other.n_aggs + a]);
            }
        }
    }

    /// Group keys in first-seen order.
    pub fn keys(&self) -> &[Value] {
        &self.keys
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no row folded in.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The aggregate states of group `g` (one per aggregate input).
    pub fn group_states(&self, g: usize) -> &[AggState] {
        &self.states[g * self.n_aggs..(g + 1) * self.n_aggs]
    }

    /// Mutable state of aggregate `a` in the group whose states start at
    /// `slot` (as returned by [`Self::slot`]).
    #[inline]
    pub fn state_mut(&mut self, slot: usize, a: usize) -> &mut AggState {
        &mut self.states[slot + a]
    }
}

/// One aggregate input of a grouped fold: the column to stream, or
/// `None` for `COUNT(*)` (a bare count bump, no values read).
pub type AggInput = Option<usize>;

/// Bump-only fold for `COUNT(*)`: counts without disturbing min/max/sum.
#[inline]
fn bump(state: &mut AggState) {
    state.push_block(1, 0, Value::MAX, Value::MIN);
}

/// Fold the selected rows of `table` into a [`GroupTable`], keyed by
/// `key_col`, aggregating each of `aggs` — the vectorized hash group-by.
/// `sel` is the scan's selection-mask vector (one word per 64 rows).
pub fn grouped_fold(table: &Table, sel: &[u64], key_col: usize, aggs: &[AggInput]) -> GroupTable {
    let mut groups = GroupTable::new(aggs.len());
    for span in &whole_table(table) {
        grouped_fold_span(table, sel, key_col, aggs, span, &mut groups);
    }
    groups
}

/// The grouped-fold kernel: the selected rows of one span of the table,
/// in ascending row order, folded into `groups`.
pub(crate) fn grouped_fold_span(
    table: &Table,
    sel: &[u64],
    key_col: usize,
    aggs: &[AggInput],
    span: &Span,
    groups: &mut GroupTable,
) {
    let key_tier = table.col_tier(key_col);
    match *span {
        // Frozen blocks: stream key + aggregate columns per block into
        // scratch buffers (each codec visits selected rows in ascending
        // order, so position `i` lines up across columns), then fold the
        // zipped rows. Distinct aggregate columns are gathered once; an
        // aggregate over the key column aliases the key buffer.
        Span::Blocks { first, last } => {
            let mut distinct: Vec<usize> = Vec::new();
            for a in aggs.iter().flatten() {
                if *a != key_col && !distinct.contains(a) {
                    distinct.push(*a);
                }
            }
            /// Where each aggregate reads its per-row input from
            /// (resolved once, outside the per-row fold loop).
            enum Src {
                /// `COUNT(*)`: no input.
                Count,
                /// Aggregate over the group key: alias the key stream.
                Key,
                /// Scratch buffer `i` (one per distinct aggregate column).
                Buf(usize),
            }
            let srcs: Vec<Src> = aggs
                .iter()
                .map(|a| match a {
                    None => Src::Count,
                    Some(c) if *c == key_col => Src::Key,
                    Some(c) => Src::Buf(distinct.iter().position(|d| d == c).expect("gathered")),
                })
                .collect();
            let mut key_buf: Vec<Value> = Vec::new();
            let mut bufs: Vec<Vec<Value>> = vec![Vec::new(); distinct.len()];
            for b in first..last {
                let bw = crate::batch::block_words(key_tier, sel, b);
                if bw.iter().all(|&w| w == 0) {
                    continue;
                }
                key_buf.clear();
                key_tier
                    .frozen(b)
                    .expect("frozen block")
                    .encoded()
                    .for_each_active(bw, |_, v| key_buf.push(v));
                for (i, &col) in distinct.iter().enumerate() {
                    bufs[i].clear();
                    let tier = table.col_tier(col);
                    tier.frozen(b)
                        .expect("columns freeze in lockstep")
                        .encoded()
                        .for_each_active(bw, |_, v| bufs[i].push(v));
                }
                for (i, &key) in key_buf.iter().enumerate() {
                    let slot = groups.slot(key);
                    for (a, src) in srcs.iter().enumerate() {
                        match src {
                            Src::Key => groups.state_mut(slot, a).push(key),
                            Src::Buf(j) => {
                                let v = bufs[*j][i];
                                groups.state_mut(slot, a).push(v)
                            }
                            Src::Count => bump(groups.state_mut(slot, a)),
                        }
                    }
                }
            }
        }
        // Hot rows: raw-slice folds, no scratch; the slices are offset by
        // where the hot tier starts (zero for a fully hot table).
        Span::Rows { lo, hi } => {
            let (keys, start) = (key_tier.hot_values(), key_tier.hot_start());
            let cols: Vec<Option<&[Value]>> = aggs
                .iter()
                .map(|a| a.map(|c| table.col_tier(c).hot_values()))
                .collect();
            for wi in lo / WORD_BITS..hi.div_ceil(WORD_BITS) {
                let base = wi * WORD_BITS;
                let mut w = crate::batch::tail_word(sel, wi, (hi - base).min(WORD_BITS));
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let i = base + bit - start;
                    let slot = groups.slot(keys[i]);
                    for (a, col) in cols.iter().enumerate() {
                        match col {
                            Some(values) => groups.state_mut(slot, a).push(values[i]),
                            None => bump(groups.state_mut(slot, a)),
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::selection_scan_ordered;
    use crate::physical::ColPred;
    use amnesia_columnar::{RowId, Schema};
    use amnesia_workload::query::AggKind;

    /// Two-column table: key = i % 3, value = i; forgets sprinkled in.
    fn sample(n: i64, freeze: Option<usize>) -> Table {
        let mut t = Table::new(Schema::new(vec!["k", "v"]));
        for i in 0..n {
            t.insert(&[i % 3, i], 0).unwrap();
        }
        for r in (0..n as u64).step_by(5) {
            t.forget(RowId(r), 1).unwrap();
        }
        if let Some(row) = freeze {
            t.freeze_upto(row);
        }
        t
    }

    #[test]
    fn grouped_fold_matches_row_at_a_time() {
        for freeze in [None, Some(2_048), Some(4_096)] {
            let t = sample(4_096, freeze);
            let pred = [ColPred::range(1, 100, 3_000)];
            let (sel, _) = selection_scan_ordered(&t, &pred, &[0], &mut [Default::default()]);
            let groups = grouped_fold(&t, &sel, 0, &[None, Some(1)]);
            // Reference: row-at-a-time over the same predicate.
            let mut want: Vec<(Value, u64, i128)> = Vec::new();
            for r in t.iter_active() {
                let v = t.value(1, r);
                if !(100..=3_000).contains(&v) {
                    continue;
                }
                let k = t.value(0, r);
                match want.iter_mut().find(|(key, ..)| *key == k) {
                    Some((_, n, s)) => {
                        *n += 1;
                        *s += v as i128;
                    }
                    None => want.push((k, 1, v as i128)),
                }
            }
            assert_eq!(groups.len(), want.len(), "freeze={freeze:?}");
            for (g, (k, n, s)) in want.iter().enumerate() {
                assert_eq!(groups.keys()[g], *k, "first-seen order");
                let states = groups.group_states(g);
                assert_eq!(states[0].count(), *n);
                assert_eq!(states[1].sum(), *s);
                assert_eq!(states[1].count(), *n);
            }
        }
    }

    #[test]
    fn runs_of_equal_keys_resolve_like_separate_probes() {
        // Runs, revisits after a run, a key equal to the cache's initial
        // absence, and the i64 edges.
        let keys = [5, 5, 5, 9, 9, 5, 0, 0, i64::MIN, i64::MAX, i64::MAX, 9, 5];
        let mut cached = GroupTable::new(2);
        let mut probed = GroupTable::new(2);
        for &k in &keys {
            let slot = cached.slot(k);
            assert_eq!(slot, probed.probe(k), "key {k}");
            cached.state_mut(slot, 1).push(k);
        }
        assert_eq!(cached.keys(), [5, 9, 0, i64::MIN, i64::MAX]);
        let counts: Vec<u64> = (0..cached.len())
            .map(|g| cached.group_states(g)[1].count())
            .collect();
        assert_eq!(counts, [5, 3, 2, 1, 2]);
    }

    #[test]
    fn count_star_bump_leaves_min_max_neutral() {
        let mut s = AggState::new();
        bump(&mut s);
        bump(&mut s);
        assert_eq!(s.count(), 2);
        assert_eq!(s.finalize(AggKind::Count), Some(2.0));
        assert_eq!(s.min_value(), Some(Value::MAX), "neutral, never surfaced");
    }

    #[test]
    fn aggregate_over_group_key_aliases_key_stream() {
        let t = sample(2_048, Some(2_048));
        let (sel, _) = selection_scan_ordered(&t, &[], &[], &mut []);
        let groups = grouped_fold(&t, &sel, 0, &[Some(0), Some(1)]);
        for g in 0..groups.len() {
            let k = groups.keys()[g];
            let states = groups.group_states(g);
            assert_eq!(states[0].min_value(), Some(k));
            assert_eq!(states[0].max_value(), Some(k));
        }
    }
}
