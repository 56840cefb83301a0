//! Per-tuple access statistics.
//!
//! Query-based amnesia (paper §3.2) extends tables "with the frequency of
//! access for each tuple"; after each batch of inserts, tuples are
//! forgotten with probability related to that frequency. We also track the
//! last-access epoch so policies can combine frequency with recency, and
//! provide exponential decay so ancient popularity fades ("no data should
//! continue to appear in a result set, if that data has not been curated").
//!
//! The statistics are held per tier block ([`crate::paged`]): a block no
//! row of which was ever touched costs nothing, and the pages of a block
//! whose payload is dropped are freed with it — no policy scores a
//! forgotten row. A snapshot writes the touched rows by walking the pages
//! that exist.

use serde::{Deserialize, Serialize};

use crate::paged::Paged;
use crate::types::{Epoch, RowId, DEFAULT_BLOCK_ROWS};

/// Access frequency and recency for every row of a table.
///
/// Both are [`Paged`] by tier block: a block none of whose rows was ever
/// touched holds nothing (its rows read frequency 0, last access 0), and a
/// dropped block's pages are given back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccessStats {
    len: usize,
    freq: Paged<f64>,
    last_access: Paged<Epoch>,
}

impl AccessStats {
    /// Empty stats with the default tier block size.
    pub fn new() -> Self {
        Self::with_block_rows(DEFAULT_BLOCK_ROWS)
    }

    /// Empty stats paged by `block_rows`-row tier blocks.
    pub fn with_block_rows(block_rows: usize) -> Self {
        Self {
            len: 0,
            freq: Paged::new(block_rows, 0.0),
            last_access: Paged::new(block_rows, 0),
        }
    }

    /// Register `n` new rows with zero frequency.
    pub fn push_rows(&mut self, n: usize) {
        self.len += n;
    }

    /// Number of tracked rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record one access of `row` at `epoch`.
    #[inline]
    pub fn touch(&mut self, row: RowId, epoch: Epoch) {
        self.restore(row, self.frequency(row) + 1.0, epoch);
    }

    /// Record accesses for many rows at once (a query result).
    pub fn touch_all(&mut self, rows: &[RowId], epoch: Epoch) {
        for &r in rows {
            self.touch(r, epoch);
        }
    }

    /// Access frequency of a row (decayed count).
    #[inline]
    pub fn frequency(&self, row: RowId) -> f64 {
        self.freq.get(row.as_usize())
    }

    /// Epoch of the last access (0 if never accessed).
    pub fn last_access(&self, row: RowId) -> Epoch {
        self.last_access.get(row.as_usize())
    }

    /// Multiply all frequencies by `factor` (exponential decay between
    /// batches). `factor` must be in `(0, 1]`.
    pub fn decay(&mut self, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "decay factor {factor}");
        if factor == 1.0 {
            return;
        }
        for f in self.freq.values_mut() {
            *f *= factor;
        }
    }

    /// Overwrite a row's statistics (used by vacuum when it copies a
    /// survivor's statistics to its row in the compacted table, and by the
    /// snapshot reader).
    pub fn restore(&mut self, row: RowId, frequency: f64, last_access: Epoch) {
        let i = row.as_usize();
        assert!(i < self.len, "row {row} out of range (len {})", self.len);
        self.freq.set(i, frequency);
        self.last_access.set(i, last_access);
    }

    /// Rows with a positive frequency as `(row, frequency, last access)`,
    /// ascending — the access section of a snapshot. Walks the pages that
    /// are held, never the untouched blocks.
    pub(crate) fn iter_touched(&self) -> impl Iterator<Item = (RowId, f64, Epoch)> + '_ {
        let block_rows = self.freq.page_rows();
        self.freq
            .held_pages()
            .flat_map(move |b| b * block_rows..(b + 1) * block_rows)
            .map(RowId::from)
            .filter_map(|row| {
                let frequency = self.frequency(row);
                (frequency > 0.0).then(|| (row, frequency, self.last_access(row)))
            })
    }

    /// Give back block `b`'s pages: its rows read as never accessed.
    pub(crate) fn free_block(&mut self, b: usize) {
        self.freq.free(b);
        self.last_access.free(b);
    }

    /// Heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.freq.memory_bytes() + self.last_access.memory_bytes() + std::mem::size_of::<Self>()
    }
}

impl Default for AccessStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_accumulates() {
        let mut s = AccessStats::new();
        s.push_rows(5);
        s.touch(RowId(2), 1);
        s.touch(RowId(2), 3);
        s.touch_all(&[RowId(0), RowId(2)], 4);
        assert_eq!(s.frequency(RowId(2)), 3.0);
        assert_eq!(s.frequency(RowId(0)), 1.0);
        assert_eq!(s.frequency(RowId(1)), 0.0);
        assert_eq!(s.last_access(RowId(2)), 4);
        assert_eq!(s.last_access(RowId(1)), 0);
    }

    #[test]
    fn decay_scales() {
        let mut s = AccessStats::new();
        s.push_rows(2);
        s.touch(RowId(0), 1);
        s.touch(RowId(0), 1);
        s.decay(0.5);
        assert_eq!(s.frequency(RowId(0)), 1.0);
        s.decay(1.0); // no-op
        assert_eq!(s.frequency(RowId(0)), 1.0);
    }

    #[test]
    #[should_panic(expected = "decay factor")]
    fn invalid_decay_rejected() {
        let mut s = AccessStats::new();
        s.decay(0.0);
    }

    #[test]
    fn grows_with_rows() {
        let mut s = AccessStats::new();
        assert!(s.is_empty());
        s.push_rows(3);
        s.push_rows(2);
        assert_eq!(s.len(), 5);
        assert_eq!(s.frequency(RowId(4)), 0.0);
    }

    #[test]
    fn untouched_blocks_hold_nothing_and_a_freed_block_reads_untouched() {
        let mut s = AccessStats::with_block_rows(64);
        s.push_rows(1000);
        let empty = s.memory_bytes();
        s.touch(RowId(70), 0); // last access 0 is the default: no page for it
        s.touch(RowId(70), 3);
        s.touch(RowId(700), 5);
        assert_eq!(
            s.iter_touched().collect::<Vec<_>>(),
            [(RowId(70), 2.0, 3), (RowId(700), 1.0, 5)]
        );
        assert!(s.memory_bytes() >= empty + 4 * 64 * 8);
        s.free_block(1);
        assert_eq!((s.frequency(RowId(70)), s.last_access(RowId(70))), (0.0, 0));
        assert_eq!(s.iter_touched().count(), 1);
        s.decay(0.5);
        assert_eq!(s.frequency(RowId(700)), 0.5);
    }
}
