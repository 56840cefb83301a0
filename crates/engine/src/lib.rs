//! Query execution over amnesiac tables.
//!
//! The paper sketches three execution regimes for forgotten data (§1):
//! delete it, stop indexing it ("a complete scan will fetch all data, but a
//! fast index-based query evaluation will skip the forgotten data"), or
//! tier/summarize it. This crate provides the executor that realizes those
//! regimes over [`amnesia_columnar::Table`] — and, since the morsel
//! rewrite, runs every plan stage either serially or morsel-parallel with
//! byte-identical results.
//!
//! # The morsel pipeline
//!
//! Every [`physical::PhysicalPlan`] stage — selection scan, join
//! build/probe, grouped fold, projection gather, sort — executes as a
//! sequence of *morsels*: work units aligned to the storage tiers, so a
//! frozen block or a 64-row activity word never straddles two workers.
//!
//! ```text
//!   plan stage                 morsel scheduler              pipeline breaker
//!   ──────────                 ────────────────              ────────────────
//!   TieredColumn               ┌─ worker 0 ─┐ partial 0 ┐
//!   [B0|B1|B2|B3|hot tail] ──► ├─ worker 1 ─┤ partial 1 ├──► deterministic
//!    └──┬───┘└┬─┘ └──┬──┘      ├─   ...    ─┤    ...    │    merge in morsel
//!   block-run  │  word-aligned └─ worker n ─┘ partial n ┘    order ==
//!   morsels  morsel  row morsels   atomic cursors +          serial output
//!                                  work stealing
//! ```
//!
//! Workers pull morsels from per-worker atomic cursors (stealing from the
//! most-loaded peer when their range drains) and fold each morsel with
//! the *same* fused compressed-space kernel the serial path uses — so
//! parallelism adds zero block decodes. Per-worker partial state
//! (selection words, [`group::GroupTable`]s, pair buffers) merges at the
//! pipeline breakers in morsel order: selections stitch at word offsets,
//! gathers and join pairs concatenate by ascending row, group tables
//! merge by key then re-sort by global first-seen row, and the sort
//! breaker k-way-merges stably. [`morsel::ExecMode::Serial`] survives as
//! the equivalence oracle the tests hold the parallel path to.
//!
//! # One path per job
//!
//! Every scan, single-column or multi-predicate, runs on a
//! [`TieredColumn`](amnesia_columnar::TieredColumn): frozen compressed
//! blocks behind their cached block meta, then the hot tail. A fully hot
//! table is a tiered column with zero frozen blocks, so there is one
//! scan family ([`batch`]), one planner ([`stats`] ordering conjuncts
//! for [`exec::Executor::execute_plan`]) and one scheduler ([`morsel`]).
//!
//! # Modules
//!
//! * [`batch`] — the word-at-a-time vectorized batch layer: the tiered
//!   single-column kernels (selection masks over raw slices and
//!   compressed blocks, fused filter+aggregate, whole-word skips of
//!   forgotten regions) and the tiered join probe; row-at-a-time
//!   references live in [`batch::scalar`],
//! * [`kernels`] — table-level entry points onto [`batch`] and the
//!   selection-vector operators (multi-predicate scan, gather,
//!   aggregate) the physical plan's stages run,
//! * [`physical`] — the **physical plan**: the execution API every
//!   multi-column query surface lowers onto (tier-aware scans with
//!   pushed-down predicate conjunctions as 64-bit selection masks, tiered
//!   hash join, fused/grouped aggregation, projection gather, sort +
//!   limit); SQL's `BoundQuery::lower()` targets it,
//! * [`morsel`] — the morsel-driven scheduler described above: span
//!   enumeration, the work-stealing worker pool, and the parallel
//!   operators with their deterministic merges,
//! * [`group`] — the vectorized hash group-by kernel, folding `GROUP BY`
//!   aggregates straight over compressed blocks,
//! * [`stats`] — block-statistics cardinality estimation: per-column
//!   pseudo-histograms from cached `BlockMeta`, predicate selectivity,
//!   codec-aware evaluation costs, and the conjunct ordering the
//!   executor runs (`selectivity × eval_cost`, ascending),
//! * [`cost`] — the abstract cost model (hot rows vs. cold fetches,
//!   per-codec predicate evaluation),
//! * [`exec`] — the [`exec::Executor`]: `execute_plan` runs a physical
//!   plan (serial or [`morsel::ExecMode::Parallel`]); `execute` is the
//!   thin adapter for the simulator's single-column
//!   [`Query`](amnesia_workload::Query) algebra — *not* a second
//!   planner: each query kind maps to exactly one tiered kernel, and the
//!   caller's summaries / micro-models of forgotten data fold into the
//!   aggregate state. Both report [`exec::ExecStats`],
//! * [`join`] — hash equi-joins with per-visibility answers (the §2.2
//!   SELECT-PROJECT-JOIN subspace, and §5's referential precision, which
//!   needs the forgotten-inclusive truth join a plan cannot express),
//! * [`mode`] — forget-visibility modes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cost;
pub mod exec;
pub mod group;
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
pub use join::{hash_join, hash_join_count, JoinResult, JoinStats};
pub use mode::ForgetVisibility;
pub use morsel::{ExecMode, SchedStats};
pub use physical::{ColPred, PhysItem, PhysScan, PhysicalPlan, PlanHint, Scalar, SortDir};
pub use stats::{estimate_scan_rows, order_predicates, q_error, ColumnStats, PredOrder};
