//! Append-only integer column over tiered storage.

use std::borrow::Cow;

use amnesia_util::MinMax;
use serde::{Deserialize, Serialize};

use crate::tier::TieredColumn;
use crate::types::Value;

/// An append-only column of `i64` values with running min/max statistics.
///
/// Since the tiered-storage refactor the values live in a
/// [`TieredColumn`]: cold full blocks compressed in place behind a hot
/// uncompressed tail. A freshly built column is fully hot and behaves
/// exactly like the flat `Vec<Value>` it used to be; freezing is an
/// explicit transition driven by the table (see
/// [`crate::table::Table::freeze_upto`]).
///
/// Deletion never happens here: the amnesia design keeps tuples
/// physically present and marks them inactive (paper §2.1); physical
/// removal is the job of [`crate::vacuum`] and of the tier layer's
/// block drops.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Column {
    tier: TieredColumn,
    stats: MinMax,
}

impl Column {
    /// Empty column with the default block size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty column with reserved hot-tail capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut c = Self::default();
        c.tier.reserve(cap);
        c
    }

    /// Empty column with a custom tier block size (must be a positive
    /// multiple of 64 rows).
    pub fn with_block_rows(block_rows: usize) -> Self {
        Self {
            tier: TieredColumn::with_block_rows(block_rows),
            stats: MinMax::new(),
        }
    }

    /// Append one value.
    #[inline]
    pub fn push(&mut self, v: Value) {
        self.tier.push(v);
        self.stats.push(v);
    }

    /// Append many values.
    pub fn extend_from_slice(&mut self, vs: &[Value]) {
        self.tier.extend_from_slice(vs);
        for &v in vs {
            self.stats.push(v);
        }
    }

    /// Value at a physical position. Hot rows are array indexing; frozen
    /// rows take the owning codec's `value_at` fast path (no block
    /// decode). Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize) -> Value {
        self.tier.value_at(row)
    }

    /// The tiered representation (frozen blocks + hot tail).
    pub fn tier(&self) -> &TieredColumn {
        &self.tier
    }

    /// Mutable tiered representation (freeze/thaw/drop/recompress).
    pub fn tier_mut(&mut self) -> &mut TieredColumn {
        &mut self.tier
    }

    /// Replace the tiered representation wholesale (snapshot restore).
    /// The caller vouches the rows match; stats are restored separately
    /// via [`Self::restore_stats`].
    pub fn install_tier(&mut self, tier: TieredColumn) {
        self.tier = tier;
    }

    /// Restore the historical min/max statistics (snapshot restore —
    /// dropped blocks lose their values, so stats cannot be recomputed).
    pub fn restore_stats(&mut self, min: Option<Value>, max: Option<Value>) {
        let mut stats = MinMax::new();
        if let Some(m) = min {
            stats.push(m);
        }
        if let Some(m) = max {
            stats.push(m);
        }
        self.stats = stats;
    }

    /// The whole column in physical row order: borrowed while fully hot,
    /// decoded into an owned buffer once blocks are frozen.
    pub fn dense_values(&self) -> Cow<'_, [Value]> {
        if self.tier.is_fully_hot() {
            Cow::Borrowed(self.tier.hot_values())
        } else {
            Cow::Owned(self.tier.dense_values())
        }
    }

    /// Number of physical rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.tier.len()
    }

    /// True if no rows.
    pub fn is_empty(&self) -> bool {
        self.tier.is_empty()
    }

    /// Minimum value ever appended (forgotten or not).
    pub fn min_seen(&self) -> Option<Value> {
        self.stats.min()
    }

    /// Maximum value ever appended (forgotten or not).
    ///
    /// This is the `RANGE` bound the paper's query generator uses: "RANGE
    /// is in the range 0 to the maximum value seen up to the latest update
    /// batch" (§4.2).
    pub fn max_seen(&self) -> Option<Value> {
        self.stats.max()
    }

    /// Approximate resident heap bytes: compressed frozen payloads +
    /// per-block metadata + hot-tail capacity. This is what shrinks when
    /// cold segments freeze — the number budget- and cost-based policies
    /// watch.
    pub fn memory_bytes(&self) -> usize {
        self.tier.memory_bytes() + std::mem::size_of::<MinMax>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut c = Column::new();
        c.push(5);
        c.push(-3);
        c.extend_from_slice(&[10, 0]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(0), 5);
        assert_eq!(c.get(1), -3);
        assert_eq!(c.tier().hot_values(), &[5, -3, 10, 0]);
        assert_eq!(c.dense_values().as_ref(), &[5, -3, 10, 0]);
    }

    #[test]
    fn min_max_track_history() {
        let mut c = Column::with_capacity(8);
        assert_eq!(c.min_seen(), None);
        c.extend_from_slice(&[7, 2, 9]);
        assert_eq!(c.min_seen(), Some(2));
        assert_eq!(c.max_seen(), Some(9));
        // min/max never shrink, even conceptually after forgetting.
        c.push(100);
        assert_eq!(c.max_seen(), Some(100));
    }

    #[test]
    fn empty_checks() {
        let c = Column::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert!(c.memory_bytes() >= std::mem::size_of::<Column>());
    }

    #[test]
    fn frozen_column_reads_through_tiers() {
        let mut c = Column::with_block_rows(64);
        let values: Vec<i64> = (0..150).collect();
        c.extend_from_slice(&values);
        let words = vec![!0u64; 3];
        c.tier_mut().freeze_upto(150, &words);
        assert_eq!(c.tier().frozen_blocks(), 2);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(c.get(i), v, "row {i}");
        }
        assert_eq!(c.dense_values().as_ref(), &values[..]);
        assert_eq!(c.max_seen(), Some(149), "stats survive freezing");
    }

    #[test]
    #[should_panic]
    fn out_of_range_get_panics() {
        let c = Column::new();
        let _ = c.get(0);
    }
}
