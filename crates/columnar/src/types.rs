//! Fundamental identifiers and value types.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Attribute values are 64-bit integers; the paper's simulator "only
/// considers tables filled with integers in the range 0..DOMAIN" (§2.1).
pub type Value = i64;

/// Update-batch counter. Epoch 0 is the initial load; epoch *b* is the
/// b-th update batch. Tuple age in batches = `current_epoch - insert_epoch`.
pub type Epoch = u64;

/// Stable identifier of a tuple: its insertion position in the table.
///
/// Row ids are never reused while a table lives. A physical vacuum builds
/// a new table whose survivors are renumbered from zero, and no mapping
/// from the old ids is kept: policy state referring to them does not
/// follow.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct RowId(pub u64);

impl RowId {
    /// The row id as a usize offset into column storage.
    #[inline]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<usize> for RowId {
    fn from(v: usize) -> Self {
        RowId(v as u64)
    }
}

/// Default number of rows per tier block (the unit of freezing, block
/// meta and pruning). Chosen so a block of `i64`s spans a few cache pages.
pub const DEFAULT_BLOCK_ROWS: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rowid_roundtrip_and_display() {
        let r = RowId::from(42usize);
        assert_eq!(r.as_usize(), 42);
        assert_eq!(r.to_string(), "#42");
        assert_eq!(r, RowId(42));
    }

    #[test]
    fn rowid_orders_by_insertion() {
        assert!(RowId(1) < RowId(2));
        let mut v = vec![RowId(3), RowId(1), RowId(2)];
        v.sort();
        assert_eq!(v, vec![RowId(1), RowId(2), RowId(3)]);
    }
}
