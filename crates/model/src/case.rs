//! The applier: a history's ops on a real [`Table`], so a test drives the
//! table under test and its [`Model`] through one list.

use amnesia_columnar::vacuum::vacuum;
use amnesia_columnar::{RowId, Schema, Table};

use crate::{Model, Op};

/// Run `op` on a real table, as [`Model::apply`] runs it on the model's
/// rows. Each insert is a batch of the epoch after the table's current
/// one, and forgets happen at the current epoch (no answer depends on
/// epochs; a policy's choice does). A single column takes a batch of rows
/// through `insert_batch` and one row through `insert`. An out-of-range
/// forget panics.
fn apply(table: &mut Table, op: &Op) {
    let epoch = table.current_epoch();
    match op {
        Op::Insert(rows) if table.schema().arity() == 1 && rows.len() > 1 => {
            let values: Vec<i64> = rows.iter().map(|r| r[0]).collect();
            table.insert_batch(&values, epoch + 1).expect("one column");
        }
        Op::Insert(rows) => {
            for row in rows {
                table.insert(row, epoch + 1).expect("one value per column");
            }
        }
        Op::Forget(ids) => {
            for &r in ids {
                table.forget(RowId(r as u64), epoch).expect("row in range");
            }
        }
        Op::FreezeUpto(row) => {
            table.freeze_upto(*row);
        }
        Op::Pin(col, encoding) => table.pin_encoding(*col, *encoding),
        Op::Recompress(share) => {
            table.recompress_frozen(*share);
        }
        Op::Drop => {
            table.drop_forgotten_blocks();
        }
        Op::Vacuum => *table = vacuum(table),
    }
}

/// A real table and its model, driven by one history.
#[derive(Clone)]
pub struct Case {
    /// The table under test.
    pub table: Table,
    /// What every answer over it must be.
    pub model: Model,
}

impl Case {
    /// An empty table of `schema` in blocks of `block_rows`, and its model.
    pub fn new(schema: Schema, block_rows: usize) -> Self {
        Self {
            table: Table::with_block_rows(schema, block_rows),
            model: Model::new(block_rows),
        }
    }

    /// [`Case::new`], then every op of `history`.
    pub fn replay(
        schema: Schema,
        block_rows: usize,
        history: impl IntoIterator<Item = Op>,
    ) -> Self {
        let mut case = Self::new(schema, block_rows);
        for op in history {
            case.apply(op);
        }
        case
    }

    /// Run `op` on the table and on the model.
    pub fn apply(&mut self, op: Op) -> &mut Self {
        apply(&mut self.table, &op);
        self.model.apply(&op);
        self
    }
}
