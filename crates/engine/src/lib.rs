//! Query execution over amnesiac tables.
//!
//! The paper sketches three execution regimes for forgotten data (§1):
//! delete it, stop indexing it ("a complete scan will fetch all data, but a
//! fast index-based query evaluation will skip the forgotten data"), or
//! tier/summarize it. This crate provides the executor that realizes those
//! regimes over [`amnesia_columnar::Table`].
//!
//! # One kernel per operator
//!
//! Every [`physical::PhysicalPlan`] operator — selection scan, column
//! gather, fused aggregate, grouped fold, join build, join probe — exists
//! once, as a kernel over one *span* of a table: a run of frozen blocks
//! or a word-aligned range of hot rows, so a frozen block or a 64-row
//! activity word never straddles two kernel calls. One driver,
//! [`morsel`]'s pool, runs every stage: cut the table into spans, run the
//! kernel over them, fold the partials in span order.
//!
//! ```text
//!   plan stage                 morsel pool                   pipeline breaker
//!   ──────────                 ───────────                   ────────────────
//!   TieredColumn               ┌─ worker 0 ─┐ partial 0 ┐
//!   [B0|B1|B2|B3|hot tail] ──► ├─ worker 1 ─┤ partial 1 ├──► fold in span
//!    └──┬───┘└┬─┘ └──┬──┘      ├─   ...    ─┤    ...    │    order
//!   block-run  │  word-aligned └─ worker n ─┘ partial n ┘
//!   spans    span  row spans     atomic cursors +
//!                                work stealing
//! ```
//!
//! [`morsel::ExecMode`] is only the pool's width. One worker
//! ([`morsel::ExecMode::Serial`]) takes the uncut table — the two spans
//! `[all frozen blocks, whole hot tail]` — inline, spawning nothing; `n`
//! workers pull ~16K-row spans from per-worker atomic cursors, stealing
//! from the most-loaded peer when their range drains. Either way the same
//! kernel computes every partial and the partials fold left to right over
//! ascending spans: selections, gathers and join pairs concatenate, and
//! group tables absorb in first-seen row order. The sort breaker orders
//! *positions* into that output, not rows: under `LIMIT k` it selects the
//! stable top k by `(key, position)`; without a limit the pool sorts the
//! positions stably (chunk sorts, then a leftmost-preference k-way merge).
//! Rows are built only for the positions that reach the result. A thread
//! count, a morsel size or a tier boundary can change how much work a
//! stage does, but there is no second body through which it could change
//! the answer; the row-at-a-time model the tests hold that answer to is
//! the dev-only `amnesia-model` crate, which reads no table, codec or
//! kernel of this one.
//!
//! # One path per job
//!
//! Every scan, single-column or multi-predicate, runs on a
//! [`TieredColumn`](amnesia_columnar::TieredColumn): frozen compressed
//! blocks behind their cached block meta, then the hot tail. A fully hot
//! table is a tiered column with zero frozen blocks, so there is one
//! scan family ([`batch`]), one planner ([`stats`] ordering conjuncts
//! for [`exec::Executor::execute_plan`]), one scheduler ([`morsel`]) and
//! one join ([`join`]'s build and probe kernels, which the free-standing
//! [`hash_join`] runs too).
//!
//! # Modules
//!
//! * [`batch`] — the word-at-a-time vectorized batch layer: the tiered
//!   single-column kernels (selection masks over raw slices and
//!   compressed blocks, fused filter+aggregate, whole-word skips of
//!   forgotten regions) and the tiered join probe,
//! * [`kernels`] — the selection-vector operators (multi-predicate
//!   scan, the complete scan, gather, aggregate) the physical plan's
//!   stages run, each as a span kernel plus its whole-table call,
//! * [`physical`] — the **physical plan**: the execution API every
//!   multi-column query surface lowers onto (tier-aware scans with
//!   pushed-down predicate conjunctions as 64-bit selection masks, tiered
//!   hash join, fused/grouped aggregation, projection gather, sort +
//!   limit); SQL's `BoundQuery::lower()` targets it,
//! * [`morsel`] — the driver described above: span enumeration, the
//!   work-stealing scheduler, and the pool that runs each operator's
//!   kernel and folds its partials,
//! * [`group`] — the vectorized hash group-by kernel, folding `GROUP BY`
//!   aggregates straight over compressed blocks,
//! * [`hash`] — [`ValueMap`], the one hash table under the group-by and
//!   both joins: one seeded multiply per key,
//! * [`stats`] — block-statistics cardinality estimation: per-column
//!   pseudo-histograms from cached `BlockMeta`, predicate selectivity,
//!   codec-aware evaluation costs, and the conjunct ordering the
//!   executor runs (`selectivity × eval_cost`, ascending),
//! * [`cost`] — the abstract cost model (hot rows vs. cold fetches,
//!   per-codec predicate evaluation),
//! * [`exec`] — the [`exec::Executor`]: `execute_plan` runs a physical
//!   plan through the pool; `execute` is the thin adapter for the
//!   paper's single-column [`Query`](amnesia_workload::Query) algebra
//!   behind `AmnesiacStore::query` — *not* a second planner: each query kind maps to exactly
//!   one tiered kernel, and the caller's summaries / micro-models of
//!   forgotten data fold into the aggregate state. Both report
//!   [`exec::ExecStats`],
//! * [`join`] — the plan's join build and probe kernels, the
//!   free-standing equi-join over them (the §2.2 SELECT-PROJECT-JOIN
//!   subspace), and the forgotten-inclusive truth join §5's referential
//!   precision needs and a plan cannot express,
//! * [`mode`] — forget-visibility modes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cost;
pub mod exec;
pub mod group;
pub mod hash;
pub mod join;
pub mod kernels;
pub mod mode;
pub mod morsel;
pub mod physical;
pub mod stats;

pub use batch::{AggState, BATCH_ROWS};
pub use cost::CostModel;
pub use exec::{
    Aux, ExecResult, ExecStats, Executor, PhysResult, PredStat, QueryOutput, StageEstimate,
};
pub use group::GroupTable;
pub use hash::ValueMap;
pub use join::{hash_join, hash_join_count, JoinResult, JoinStats};
pub use mode::ForgetVisibility;
pub use morsel::{ExecMode, SchedStats};
pub use physical::{ColPred, PhysItem, PhysScan, PhysicalPlan, PlanHint, Scalar, SortDir};
pub use stats::{estimate_scan_rows, order_predicates, q_error, ColumnStats, PredOrder};
