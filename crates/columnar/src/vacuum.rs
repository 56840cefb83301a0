//! Physical removal of forgotten tuples.
//!
//! The most radical answer to "what happens to forgotten data" (paper §1):
//! delete it. Marking keeps the simulator's metrics exact, but a real
//! deployment must eventually reclaim the space — the temporal-database
//! literature calls this *vacuuming* (paper §5, \[9\]). `vacuum` compacts a
//! table down to its active tuples. The survivors are renumbered from
//! zero in their old order, and nothing maps an old row id to its new
//! one: state kept per row outside the table does not follow them.

use crate::table::Table;

/// Compact `table` by dropping all forgotten rows: the survivors keep
/// their values, insertion epochs and access statistics, renumbered from
/// zero in their old order.
///
/// Tier-aware: the source may hold frozen compressed blocks (survivor
/// values read through the codec point-access paths), and the compacted
/// table comes out fully hot with the same block size — the store's
/// freeze scheduling re-freezes its cold prefix at the next batch
/// boundary.
pub fn vacuum(table: &Table) -> Table {
    let mut compacted = Table::with_block_rows(table.schema().clone(), table.block_rows());
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
    }
    compacted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::RowId;

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

    /// The `i`-th survivor of `t` is row `i` of `compacted`, holding the
    /// same values.
    fn assert_survivors_in_order(t: &Table, compacted: &Table) {
        assert_eq!(compacted.num_rows(), t.active_rows());
        for (new, old) in t.iter_active().enumerate() {
            let new = RowId(new as u64);
            assert_eq!(t.row_values(old), compacted.row_values(new), "{old}");
        }
    }

    #[test]
    fn survivors_keep_values_epochs_and_stats() {
        let t = build();
        let c = vacuum(&t);
        assert_eq!(c.num_rows(), 5);
        assert_eq!(c.active_rows(), 5, "vacuumed table is fully active");
        // Value order preserved: 10, 30, 50, 60, 70.
        let values: Vec<i64> = (0..5).map(|i| c.value(0, RowId(i as u64))).collect();
        assert_eq!(values, vec![10, 30, 50, 60, 70]);
        assert_survivors_in_order(&t, &c);
        // Epochs preserved.
        assert_eq!(c.insert_epoch(RowId(3)), 3);
        // Access stats migrated: old row 4 (value 50) became new row 2.
        assert_eq!(c.access().frequency(RowId(2)), 2.0);
        c.check_invariants().unwrap();
    }

    #[test]
    fn vacuum_of_fully_active_table_is_identity_shaped() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2, 3], 0).unwrap();
        let c = vacuum(&t);
        assert_eq!(c.num_rows(), 3);
        assert_survivors_in_order(&t, &c);
    }

    #[test]
    fn vacuum_of_fully_forgotten_table_is_empty() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2], 0).unwrap();
        t.forget(RowId(0), 1).unwrap();
        t.forget(RowId(1), 1).unwrap();
        assert_eq!(vacuum(&t).num_rows(), 0);
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
        let c = vacuum(&t);
        assert_eq!(c.num_rows(), 200);
        assert!(!c.has_frozen(), "compacted table is fully hot");
        assert_eq!(c.block_rows(), 64, "block size preserved");
        assert_survivors_in_order(&t, &c);
    }

    #[test]
    fn multi_column_values_survive() {
        let mut t = Table::new(Schema::new(vec!["a", "b"]));
        t.insert(&[1, 100], 0).unwrap();
        t.insert(&[2, 200], 0).unwrap();
        t.insert(&[3, 300], 0).unwrap();
        t.forget(RowId(1), 1).unwrap();
        let c = vacuum(&t);
        assert_eq!(c.row_values(RowId(0)), vec![1, 100]);
        assert_eq!(c.row_values(RowId(1)), vec![3, 300]);
    }
}
