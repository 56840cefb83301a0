//! Aggregate summaries of forgotten data.
//!
//! Paper §1: "a possibly poor information retention approach would be to
//! keep a summary, i.e., a few aggregated values (min, max, avg) of all
//! the forgotten data. This will reduce the storage drastically but the
//! DBMS will only be able to answer specific aggregation queries without
//! making available any other details."
//!
//! [`SummaryStore`] keeps one [`SummaryCell`] per insertion epoch, so
//! aggregate queries can combine the active table with summaries of what
//! rotted away — the `Summarize` forget mode of the simulator.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::types::{Epoch, Value};

/// Mergeable aggregate of a set of forgotten values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SummaryCell {
    /// Number of values absorbed.
    pub count: u64,
    /// Exact integer sum (i128: no overflow for < 2^64 values of i64).
    pub sum: i128,
    /// Sum of squares, for variance estimates (f64: approximate).
    pub sum_sq: f64,
    /// Minimum absorbed value.
    pub min: Value,
    /// Maximum absorbed value.
    pub max: Value,
}

impl Default for SummaryCell {
    /// Same as [`SummaryCell::new`]: min/max start at their sentinels, so
    /// a derived all-zeros default would corrupt `absorb`.
    fn default() -> Self {
        Self::new()
    }
}

impl SummaryCell {
    /// Empty cell.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            sum_sq: 0.0,
            min: Value::MAX,
            max: Value::MIN,
        }
    }

    /// Absorb one value.
    pub fn absorb(&mut self, v: Value) {
        self.count += 1;
        self.sum += v as i128;
        self.sum_sq += (v as f64) * (v as f64);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merge another cell.
    pub fn merge(&mut self, other: &SummaryCell) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Average of absorbed values (`None` when empty).
    pub fn avg(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Population variance estimate (`None` when empty).
    pub fn variance(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mean = self.sum as f64 / self.count as f64;
        Some((self.sum_sq / self.count as f64 - mean * mean).max(0.0))
    }

    /// Minimum (`None` when empty).
    pub fn min_value(&self) -> Option<Value> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum (`None` when empty).
    pub fn max_value(&self) -> Option<Value> {
        (self.count > 0).then_some(self.max)
    }
}

/// Per-epoch summaries of everything forgotten so far.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SummaryStore {
    cells: BTreeMap<Epoch, SummaryCell>,
}

impl SummaryStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorb a forgotten value that was inserted at `epoch`.
    pub fn absorb(&mut self, epoch: Epoch, v: Value) {
        self.cells.entry(epoch).or_default().absorb(v);
    }

    /// Summary cell for a single epoch.
    pub fn cell(&self, epoch: Epoch) -> Option<&SummaryCell> {
        self.cells.get(&epoch)
    }

    /// Combined summary across all epochs.
    pub fn combined(&self) -> SummaryCell {
        let mut total = SummaryCell::new();
        for cell in self.cells.values() {
            total.merge(cell);
        }
        total
    }

    /// Number of epochs with data.
    pub fn epochs(&self) -> usize {
        self.cells.len()
    }

    /// Approximate heap footprint: the point of summaries is that this is
    /// tiny compared to the tuples they replaced.
    pub fn memory_bytes(&self) -> usize {
        self.cells.len() * (std::mem::size_of::<Epoch>() + std::mem::size_of::<SummaryCell>())
            + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_aggregates_exactly() {
        let mut c = SummaryCell::new();
        for v in [2i64, 4, 4, 4, 5, 5, 7, 9] {
            c.absorb(v);
        }
        assert_eq!(c.count, 8);
        assert_eq!(c.avg(), Some(5.0));
        assert_eq!(c.min_value(), Some(2));
        assert_eq!(c.max_value(), Some(9));
        assert!((c.variance().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn default_equals_new_with_sentinels() {
        // Regression: a derived Default would zero min/max and corrupt
        // the first absorb.
        let mut d = SummaryCell::default();
        assert_eq!(d, SummaryCell::new());
        d.absorb(20);
        assert_eq!(d.min_value(), Some(20));
        assert_eq!(d.max_value(), Some(20));
    }

    #[test]
    fn empty_cell_returns_none() {
        let c = SummaryCell::new();
        assert_eq!(c.avg(), None);
        assert_eq!(c.variance(), None);
        assert_eq!(c.min_value(), None);
        assert_eq!(c.max_value(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let values = [3i64, -5, 8, 8, 100, 0];
        let mut seq = SummaryCell::new();
        for &v in &values {
            seq.absorb(v);
        }
        let mut a = SummaryCell::new();
        let mut b = SummaryCell::new();
        for &v in &values[..3] {
            a.absorb(v);
        }
        for &v in &values[3..] {
            b.absorb(v);
        }
        a.merge(&b);
        assert_eq!(a, seq);
    }

    #[test]
    fn store_groups_by_epoch() {
        let mut s = SummaryStore::new();
        s.absorb(0, 10);
        s.absorb(0, 20);
        s.absorb(3, 100);
        assert_eq!(s.epochs(), 2);
        assert_eq!(s.cell(0).unwrap().avg(), Some(15.0));
        assert_eq!(s.cell(3).unwrap().count, 1);
        assert!(s.cell(1).is_none());
        let all = s.combined();
        assert_eq!(all.count, 3);
        assert!((all.avg().unwrap() - (130.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn summaries_are_small() {
        let mut s = SummaryStore::new();
        for epoch in 0..10u64 {
            for v in 0..1000 {
                s.absorb(epoch, v);
            }
        }
        // 10k forgotten values summarized into < 1 KiB.
        assert!(s.memory_bytes() < 1024, "got {} bytes", s.memory_bytes());
    }
}
