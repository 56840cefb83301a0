//! Columnar storage substrate for the amnesia system.
//!
//! The paper's simulator is "a skeleton of a columnar DBMS" (§2.1): tables
//! of integer columns where every tuple carries an *active/forgotten* mark
//! at single-record granularity, an insertion epoch (which update batch it
//! arrived in) and an access-frequency counter (for query-based rot, §3.2).
//! This crate provides that skeleton plus the storage machinery a real
//! deployment of amnesia would lean on, all referenced in the paper:
//!
//! * [`table::Table`] — the central amnesiac table,
//! * [`activity::ActivityMap`] — per-tuple active/forgotten marking,
//! * [`access::AccessStats`] — per-tuple access frequency / recency,
//! * [`paged`] — the containers that keep the three per-row metadata
//!   (death epochs, access statistics, insert epochs) proportional to what
//!   is *remembered*: pages allocated by the first write (a byte per row
//!   for death epochs), freed or run-coded when their tier block is
//!   dropped — the in-memory mirror of the runs a v4 snapshot writes,
//! * [`compress`] — RLE / delta / frame-of-reference / dictionary codecs
//!   (§4.4 "data compression can be called upon to postpone the decisions
//!   to forget data"),
//! * [`tier`] — tiered column storage: cold full blocks live *compressed
//!   in place* (hot → frozen → recompressed → dropped); every full block,
//!   hot ones included, has cached zone metadata — the one block-range
//!   (BRIN-style, §4.4)
//!   pruning structure, owned by the storage rather than kept beside
//!   it — so compression is the table's resting state rather than a
//!   side-car snapshot; each column also holds the
//!   [`ColumnSummary`] planners read, rebuilt at most once per burst of
//!   mutations,
//! * [`coldstore`] — where forgotten tuples can be moved instead of
//!   deleted (§1, §5),
//! * [`summary`] — aggregate summaries of forgotten data (§1 "keep a
//!   summary, i.e., a few aggregated values (min, max, avg)"),
//! * [`vacuum`] — physical removal of forgotten tuples,
//! * [`simd`] — the one CPU-feature dispatch every vector kernel reads,
//!   the packed-field kernels here and the engine's hot masks alike.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod access;
pub mod activity;
pub mod coldstore;
pub mod compress;
pub mod database;
pub mod micromodel;
pub mod paged;
pub mod persist;
pub mod schema;
pub mod simd;
pub mod summary;
pub mod table;
pub mod tier;
pub mod types;
pub mod vacuum;

pub use access::AccessStats;
pub use activity::ActivityMap;
pub use coldstore::{ColdStore, FileColdStore, MemoryColdStore};
pub use database::{Database, ForeignKey, ReferentialAction};
pub use micromodel::{Estimate, MicroModel, ModelStore, ValueRange};
pub use paged::{EpochCursor, EpochRuns, Paged};
pub use persist::{
    DurableLog, FaultVfs, PersistentTable, SharedVfs, StdVfs, SyncPolicy, Vfs, WalRecord, WalStats,
};
pub use schema::{ColumnDef, Schema};
pub use summary::{SummaryCell, SummaryStore};
pub use table::{MemoryBreakdown, Table};
pub use tier::{
    BlockMeta, BlockState, ColumnReader, ColumnSummary, FrozenBlock, HotBlock, TieredColumn,
};
pub use types::{Epoch, RowId, Value, DEFAULT_BLOCK_ROWS};
