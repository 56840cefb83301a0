//! Multi-table databases with referential amnesia.
//!
//! Paper §5: "Semantic database integrity creates another challenge for
//! amnesia strategies. For example, foreign key relationships put a hard
//! boundary on what we can forget. Should forgetting a key value be
//! forbidden unless it is not referenced any more? Or should we cascade
//! by forgetting all related tuples?"
//!
//! [`Database`] implements both answers: [`ReferentialAction::Restrict`]
//! refuses to forget a key tuple while active references exist (unless a
//! duplicate active key remains), and [`ReferentialAction::Cascade`]
//! transitively forgets every referencing tuple.

use amnesia_util::{storage_err, Result};

use crate::schema::Schema;
use crate::table::Table;
use crate::types::{Epoch, RowId, Value};

/// A value-based foreign key: `child_table.child_col` references
/// `parent_table.parent_col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForeignKey {
    /// Referencing table id.
    pub child_table: usize,
    /// Referencing column index.
    pub child_col: usize,
    /// Referenced table id.
    pub parent_table: usize,
    /// Referenced (key) column index.
    pub parent_col: usize,
}

/// What forgetting does when references exist (paper §5's two options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReferentialAction {
    /// Forbid forgetting a key tuple while it is still referenced (and no
    /// other active tuple carries the same key value).
    Restrict,
    /// Transitively forget every active tuple that references the key.
    Cascade,
}

/// A tuple location: `(table id, row id)`.
pub type TupleRef = (usize, RowId);

/// A collection of amnesiac tables linked by foreign keys.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
    names: Vec<String>,
    fks: Vec<ForeignKey>,
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table; returns its id.
    pub fn add_table(&mut self, name: impl Into<String>, schema: Schema) -> usize {
        self.tables.push(Table::new(schema));
        self.names.push(name.into());
        self.tables.len() - 1
    }

    /// Declare a foreign key. Validates table/column indices.
    pub fn add_foreign_key(&mut self, fk: ForeignKey) -> Result<()> {
        let check = |t: usize, c: usize| -> Result<()> {
            let table = self
                .tables
                .get(t)
                .ok_or_else(|| storage_err!("table {t} does not exist"))?;
            if c >= table.schema().arity() {
                return Err(storage_err!("column {c} out of range for table {t}"));
            }
            Ok(())
        };
        check(fk.child_table, fk.child_col)?;
        check(fk.parent_table, fk.parent_col)?;
        self.fks.push(fk);
        Ok(())
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Table by id.
    pub fn table(&self, id: usize) -> &Table {
        &self.tables[id]
    }

    /// Mutable table by id (inserts go through here).
    pub fn table_mut(&mut self, id: usize) -> &mut Table {
        &mut self.tables[id]
    }

    /// Table id by name.
    pub fn table_id(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Table name by id.
    pub fn table_name(&self, id: usize) -> Option<&str> {
        self.names.get(id).map(String::as_str)
    }

    /// Active rows of `fk.child_table` referencing key value `key`.
    fn active_referents(&self, fk: &ForeignKey, key: Value) -> Vec<RowId> {
        let child = &self.tables[fk.child_table];
        child
            .iter_active()
            .filter(|&r| child.value(fk.child_col, r) == key)
            .collect()
    }

    /// Is there another *active* row in the parent table carrying the same
    /// key value (so the reference target survives)?
    fn duplicate_key_survives(&self, fk: &ForeignKey, key: Value, dying: RowId) -> bool {
        let parent = &self.tables[fk.parent_table];
        parent
            .iter_active()
            .any(|r| r != dying && parent.value(fk.parent_col, r) == key)
    }

    /// Forget a tuple under referential semantics.
    ///
    /// Returns every tuple actually forgotten — the requested one plus,
    /// under `Cascade`, the transitive closure of its referents. Under
    /// `Restrict`, errs (forgetting nothing) if any foreign key would
    /// dangle.
    pub fn forget(
        &mut self,
        table: usize,
        row: RowId,
        epoch: Epoch,
        action: ReferentialAction,
    ) -> Result<Vec<TupleRef>> {
        if table >= self.tables.len() {
            return Err(storage_err!("table {table} does not exist"));
        }
        if !self.tables[table].activity().is_active(row) {
            return Ok(Vec::new()); // already forgotten: no-op
        }

        // Worklist of tuples to forget; grows under cascade.
        let mut pending: Vec<TupleRef> = vec![(table, row)];
        let mut planned: std::collections::HashSet<TupleRef> = pending.iter().copied().collect();
        let mut order: Vec<TupleRef> = Vec::new();

        while let Some((t, r)) = pending.pop() {
            order.push((t, r));
            // For every FK where `t` is the parent, examine referents.
            let fks: Vec<ForeignKey> = self
                .fks
                .iter()
                .copied()
                .filter(|fk| fk.parent_table == t)
                .collect();
            for fk in fks {
                let key = self.tables[t].value(fk.parent_col, r);
                if self.duplicate_key_survives(&fk, key, r) {
                    continue; // the key value remains resolvable
                }
                let referents: Vec<RowId> = self
                    .active_referents(&fk, key)
                    .into_iter()
                    .filter(|&cr| !planned.contains(&(fk.child_table, cr)))
                    .collect();
                if referents.is_empty() {
                    continue;
                }
                match action {
                    ReferentialAction::Restrict => {
                        return Err(storage_err!(
                            "cannot forget {}[{r}]: key {key} referenced by {} active row(s) \
                             of {} (restrict)",
                            self.names[t],
                            referents.len(),
                            self.names[fk.child_table]
                        ));
                    }
                    ReferentialAction::Cascade => {
                        for cr in referents {
                            if planned.insert((fk.child_table, cr)) {
                                pending.push((fk.child_table, cr));
                            }
                        }
                    }
                }
            }
        }

        // All checks passed: apply the forgets.
        for &(t, r) in &order {
            self.tables[t].forget(r, epoch)?;
        }
        Ok(order)
    }

    /// Check that no active child row references a missing (forgotten or
    /// absent) parent key. Returns the dangling references.
    pub fn dangling_references(&self) -> Vec<(ForeignKey, RowId, Value)> {
        let mut dangling = Vec::new();
        for fk in &self.fks {
            let parent = &self.tables[fk.parent_table];
            let keys: std::collections::HashSet<Value> = parent
                .iter_active()
                .map(|r| parent.value(fk.parent_col, r))
                .collect();
            let child = &self.tables[fk.child_table];
            for r in child.iter_active() {
                let key = child.value(fk.child_col, r);
                if !keys.contains(&key) {
                    dangling.push((*fk, r, key));
                }
            }
        }
        dangling
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// customers(id) ← orders(customer_id, amount)
    fn shop() -> (Database, usize, usize) {
        let mut db = Database::new();
        let customers = db.add_table("customers", Schema::single("id"));
        let orders = db.add_table("orders", Schema::new(vec!["customer_id", "amount"]));
        db.add_foreign_key(ForeignKey {
            child_table: orders,
            child_col: 0,
            parent_table: customers,
            parent_col: 0,
        })
        .unwrap();
        // customers 100, 200, 300
        for id in [100i64, 200, 300] {
            db.table_mut(customers).insert(&[id], 0).unwrap();
        }
        // orders: 2 for customer 100, 1 for 200, none for 300
        db.table_mut(orders).insert(&[100, 5], 0).unwrap();
        db.table_mut(orders).insert(&[100, 7], 0).unwrap();
        db.table_mut(orders).insert(&[200, 9], 0).unwrap();
        (db, customers, orders)
    }

    #[test]
    fn restrict_blocks_referenced_keys() {
        let (mut db, customers, orders) = shop();
        let err = db
            .forget(customers, RowId(0), 1, ReferentialAction::Restrict)
            .unwrap_err();
        assert!(err.to_string().contains("restrict"), "{err}");
        // Nothing was forgotten.
        assert_eq!(db.table(customers).active_rows(), 3);
        assert_eq!(db.table(orders).active_rows(), 3);
        assert!(db.dangling_references().is_empty());
    }

    #[test]
    fn restrict_allows_unreferenced_keys() {
        let (mut db, customers, _) = shop();
        // Customer 300 has no orders: forgettable.
        let forgotten = db
            .forget(customers, RowId(2), 1, ReferentialAction::Restrict)
            .unwrap();
        assert_eq!(forgotten, vec![(customers, RowId(2))]);
        assert!(db.dangling_references().is_empty());
    }

    #[test]
    fn restrict_allows_duplicate_keys() {
        let (mut db, customers, _) = shop();
        // A second active row with key 100: the reference target survives.
        db.table_mut(customers).insert(&[100], 1).unwrap();
        let forgotten = db
            .forget(customers, RowId(0), 1, ReferentialAction::Restrict)
            .unwrap();
        assert_eq!(forgotten.len(), 1);
        assert!(db.dangling_references().is_empty());
    }

    #[test]
    fn cascade_forgets_referents() {
        let (mut db, customers, orders) = shop();
        let mut forgotten = db
            .forget(customers, RowId(0), 1, ReferentialAction::Cascade)
            .unwrap();
        forgotten.sort();
        assert_eq!(
            forgotten,
            vec![
                (customers, RowId(0)),
                (orders, RowId(0)),
                (orders, RowId(1)),
            ]
        );
        assert_eq!(db.table(orders).active_rows(), 1);
        assert!(db.dangling_references().is_empty());
    }

    #[test]
    fn cascade_is_transitive() {
        // customers ← orders ← line_items
        let (mut db, customers, orders) = shop();
        let items = db.add_table("line_items", Schema::new(vec!["order_amount", "qty"]));
        // Link items to orders via the amount column (toy key).
        db.add_foreign_key(ForeignKey {
            child_table: items,
            child_col: 0,
            parent_table: orders,
            parent_col: 1,
        })
        .unwrap();
        db.table_mut(items).insert(&[5, 1], 0).unwrap(); // → order amount 5
        db.table_mut(items).insert(&[7, 2], 0).unwrap(); // → order amount 7
        db.table_mut(items).insert(&[9, 3], 0).unwrap(); // → order amount 9

        let forgotten = db
            .forget(customers, RowId(0), 2, ReferentialAction::Cascade)
            .unwrap();
        // customer 100 → orders (100,5) and (100,7) → items 5 and 7.
        assert_eq!(forgotten.len(), 5);
        assert!(db.dangling_references().is_empty());
        assert_eq!(db.table(items).active_rows(), 1);
    }

    #[test]
    fn forgetting_children_is_unrestricted() {
        let (mut db, _, orders) = shop();
        let forgotten = db
            .forget(orders, RowId(0), 1, ReferentialAction::Restrict)
            .unwrap();
        assert_eq!(forgotten.len(), 1);
    }

    #[test]
    fn double_forget_is_noop() {
        let (mut db, customers, _) = shop();
        db.forget(customers, RowId(2), 1, ReferentialAction::Cascade)
            .unwrap();
        let again = db
            .forget(customers, RowId(2), 2, ReferentialAction::Cascade)
            .unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn dangling_detector_catches_raw_forgets() {
        let (mut db, customers, _) = shop();
        // Bypass referential checking (raw table forget).
        db.table_mut(customers).forget(RowId(0), 1).unwrap();
        let dangling = db.dangling_references();
        assert_eq!(dangling.len(), 2, "both orders of customer 100 dangle");
        assert!(dangling.iter().all(|(_, _, key)| *key == 100));
    }

    #[test]
    fn invalid_fk_rejected() {
        let mut db = Database::new();
        let t = db.add_table("t", Schema::single("a"));
        assert!(db
            .add_foreign_key(ForeignKey {
                child_table: t,
                child_col: 5,
                parent_table: t,
                parent_col: 0,
            })
            .is_err());
        assert!(db
            .add_foreign_key(ForeignKey {
                child_table: 9,
                child_col: 0,
                parent_table: t,
                parent_col: 0,
            })
            .is_err());
    }
}
