//! Physical removal of forgotten tuples.
//!
//! The most radical answer to "what happens to forgotten data" (paper §1):
//! delete it. Marking keeps the simulator's metrics exact, but a real
//! deployment must eventually reclaim the space — the temporal-database
//! literature calls this *vacuuming* (paper §5, \[9\]). `vacuum` compacts a
//! table down to its active tuples and returns a row-id remapping so
//! auxiliary structures (indexes, policy state) can migrate.

use crate::table::Table;
use crate::types::RowId;

/// Outcome of a vacuum pass.
#[derive(Debug)]
pub struct VacuumResult {
    /// The compacted table: only previously-active rows, same schema,
    /// insertion epochs and access statistics preserved.
    pub table: Table,
    /// `remap[old_row] = Some(new_row)` for survivors, `None` for removed.
    pub remap: Vec<Option<RowId>>,
    /// Number of physically removed rows.
    pub removed: usize,
    /// Bytes reclaimed (approximate, based on heap accounting).
    pub reclaimed_bytes: usize,
}

/// Compact `table` by dropping all forgotten rows.
///
/// Tier-aware: the source may hold frozen compressed blocks (survivor
/// values read through the codec point-access paths), and the compacted
/// table comes out fully hot with the same block size — the store's
/// freeze scheduling re-freezes its cold prefix at the next batch
/// boundary.
pub fn vacuum(table: &Table) -> VacuumResult {
    let mut compacted = Table::with_block_rows(table.schema().clone(), table.block_rows());
    let n = table.num_rows();
    let mut remap: Vec<Option<RowId>> = vec![None; n];

    // Materialize each column once: survivor reads are then plain
    // indexing instead of a codec point-read per value on frozen blocks.
    let columns: Vec<_> = (0..table.schema().arity())
        .map(|c| table.col_values_dense(c))
        .collect();
    let mut values = vec![0i64; columns.len()];
    let mut epochs = table.insert_epochs().cursor();
    for old in table.iter_active() {
        for (slot, col) in values.iter_mut().zip(&columns) {
            *slot = col[old.as_usize()];
        }
        let new_id = compacted
            .insert(&values, epochs.get(old))
            .expect("arity matches by construction");
        compacted.access_mut().restore(
            new_id,
            table.access().frequency(old),
            table.access().last_access(old),
        );
        remap[old.as_usize()] = Some(new_id);
    }

    let removed = n - compacted.num_rows();
    let reclaimed_bytes = table
        .memory_bytes()
        .saturating_sub(compacted.memory_bytes());
    VacuumResult {
        table: compacted,
        remap,
        removed,
        reclaimed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn build() -> Table {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30, 40, 50], 0).unwrap();
        t.insert_batch(&[60, 70], 3).unwrap();
        t.forget(RowId(1), 1).unwrap();
        t.forget(RowId(3), 2).unwrap();
        t.access_mut().touch(RowId(4), 2);
        t.access_mut().touch(RowId(4), 2);
        t
    }

    #[test]
    fn survivors_keep_values_epochs_and_stats() {
        let t = build();
        let result = vacuum(&t);
        let c = &result.table;
        assert_eq!(result.removed, 2);
        assert_eq!(c.num_rows(), 5);
        assert_eq!(c.active_rows(), 5, "vacuumed table is fully active");
        // Value order preserved: 10, 30, 50, 60, 70.
        let values: Vec<i64> = (0..5).map(|i| c.value(0, RowId(i as u64))).collect();
        assert_eq!(values, vec![10, 30, 50, 60, 70]);
        // Epochs preserved.
        assert_eq!(c.insert_epoch(RowId(3)), 3);
        // Access stats migrated: old row 4 (value 50) became new row 2.
        assert_eq!(c.access().frequency(RowId(2)), 2.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn remap_is_consistent() {
        let t = build();
        let result = vacuum(&t);
        assert_eq!(result.remap.len(), 7);
        assert_eq!(result.remap[0], Some(RowId(0)));
        assert_eq!(result.remap[1], None);
        assert_eq!(result.remap[2], Some(RowId(1)));
        assert_eq!(result.remap[3], None);
        assert_eq!(result.remap[4], Some(RowId(2)));
        // Every survivor maps to the row holding the same value.
        for old in t.iter_active() {
            let new = result.remap[old.as_usize()].unwrap();
            assert_eq!(t.value(0, old), result.table.value(0, new));
        }
    }

    #[test]
    fn vacuum_of_fully_active_table_is_identity_shaped() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2, 3], 0).unwrap();
        let result = vacuum(&t);
        assert_eq!(result.removed, 0);
        assert_eq!(result.table.num_rows(), 3);
        assert!(result.remap.iter().all(Option::is_some));
    }

    #[test]
    fn vacuum_of_fully_forgotten_table_is_empty() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2], 0).unwrap();
        t.forget(RowId(0), 1).unwrap();
        t.forget(RowId(1), 1).unwrap();
        let result = vacuum(&t);
        assert_eq!(result.removed, 2);
        assert_eq!(result.table.num_rows(), 0);
    }

    #[test]
    fn vacuum_reads_through_frozen_blocks() {
        let mut t = Table::with_block_rows(Schema::single("a"), 64);
        t.insert_batch(&(0..300).collect::<Vec<i64>>(), 0).unwrap();
        for r in (0..300u64).step_by(3) {
            t.forget(RowId(r), 1).unwrap();
        }
        t.freeze_upto(300);
        assert!(t.has_frozen());
        let result = vacuum(&t);
        assert_eq!(result.removed, 100);
        assert!(!result.table.has_frozen(), "compacted table is fully hot");
        assert_eq!(result.table.block_rows(), 64, "block size preserved");
        for old in t.iter_active() {
            let new = result.remap[old.as_usize()].unwrap();
            assert_eq!(t.value(0, old), result.table.value(0, new));
        }
    }

    #[test]
    fn multi_column_values_survive() {
        let mut t = Table::new(Schema::new(vec!["a", "b"]));
        t.insert(&[1, 100], 0).unwrap();
        t.insert(&[2, 200], 0).unwrap();
        t.insert(&[3, 300], 0).unwrap();
        t.forget(RowId(1), 1).unwrap();
        let result = vacuum(&t);
        assert_eq!(result.table.row_values(RowId(0)), vec![1, 100]);
        assert_eq!(result.table.row_values(RowId(1)), vec![3, 300]);
    }
}
