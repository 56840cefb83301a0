//! The executor: runs queries under a forget-visibility mode, folding in
//! summaries and micro-models of forgotten data when the caller holds
//! them, and reports per-query execution statistics.
//!
//! Two entry points, one kernel family underneath:
//!
//! * [`Executor::execute_plan`] runs a [`PhysicalPlan`] — the API every
//!   multi-column surface (SQL) lowers onto;
//! * [`Executor::execute`] is a thin adapter for the single-column
//!   [`Query`] algebra of the paper, behind `AmnesiacStore::query`. It chooses nothing: each
//!   query kind maps to exactly one tiered kernel of [`crate::batch`].

use std::ops::Range;

use amnesia_columnar::{ColumnReader, Estimate, ModelStore, SummaryStore, Table, ValueRange};
use amnesia_workload::query::{AggKind, Query, RangePredicate};
use amnesia_workload::Query as Q;
use serde::{Deserialize, Serialize};

use crate::batch::{self, AggState, TierStats};
use crate::cost::CostModel;
use crate::group::GroupTable;
use crate::kernels;
use crate::mode::ForgetVisibility;
use crate::morsel::{self, ExecMode, Pool};
use crate::physical::{
    finalize_scalar, ColPred, PhysItem, PhysicalPlan, PlanHint, Scalar, SortDir,
};

use amnesia_columnar::{RowId, Value};
use amnesia_util::WORD_BITS;

/// What the caller remembers about forgotten data, for
/// [`Executor::execute`]'s aggregates to fold in. Scans take no
/// auxiliary access path: block pruning lives inside the tiers.
#[derive(Default)]
pub struct Aux<'a> {
    /// Summaries of forgotten data (enables whole-table aggregates that
    /// account for what rotted away).
    pub summaries: Option<&'a SummaryStore>,
    /// Micro-models of forgotten data (paper §5 \[15\]): unlike summaries
    /// they also *interpolate* range-restricted aggregates.
    pub models: Option<&'a ModelStore>,
}

/// Result rows or an aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Matching row ids, in insertion order.
    Rows(Vec<RowId>),
    /// Aggregate value; `None` encodes SQL NULL (empty selection).
    Agg(Option<f64>),
}

impl QueryOutput {
    /// Row count for row outputs, 0 for aggregates.
    pub fn cardinality(&self) -> usize {
        match self {
            QueryOutput::Rows(rows) => rows.len(),
            QueryOutput::Agg(_) => 0,
        }
    }

    /// The rows, if this is a row output.
    pub fn rows(&self) -> Option<&[RowId]> {
        match self {
            QueryOutput::Rows(r) => Some(r),
            QueryOutput::Agg(_) => None,
        }
    }

    /// The aggregate value, if this is an aggregate output.
    pub fn agg(&self) -> Option<Option<f64>> {
        match self {
            QueryOutput::Agg(v) => Some(*v),
            QueryOutput::Rows(_) => None,
        }
    }
}

/// Per-query execution statistics — the one accounting struct every
/// execution surface reports (it absorbed the SQL crate's old
/// `QueryStats`, so SQL, the workload driver and the benches all speak
/// the same numbers).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Rows examined.
    pub rows_scanned: usize,
    /// Frozen blocks skipped thanks to block-meta / join-key-range
    /// pruning.
    pub blocks_pruned: usize,
    /// Result cardinality: matching rows for scans and joins, output
    /// rows (the group count) for executed plans with aggregation, 0
    /// for the workload driver's scalar-aggregate path.
    pub result_rows: usize,
    /// Join pairs produced (0 without a join).
    pub join_pairs: usize,
    /// Groups produced (0 without aggregation; 1 for a global
    /// aggregate's implicit group).
    pub groups: usize,
    /// Abstract cost charged by the cost model.
    pub cost: f64,
    /// Which physical path ran.
    pub plan: PlanTag,
    /// Morsels the scheduler executed across all plan stages (one or two
    /// per stage on one worker: the frozen prefix and the hot tail).
    pub morsels: usize,
    /// Morsels a worker claimed from another worker's range.
    pub morsel_steals: usize,
    /// Nanoseconds spent folding per-morsel partial state together at
    /// pipeline breakers.
    pub merge_ns: u64,
    /// Per-predicate execution breakdown for cost-ordered conjunctive
    /// scans: one entry per pushed-down predicate across all scan slots,
    /// in the order the executor actually evaluated them. Empty when the
    /// plan ran under [`crate::physical::PlanHint::SyntacticOrder`] or
    /// carried no multi-predicate conjunction.
    pub pred_stats: Vec<PredStat>,
    /// Estimated vs. actual output cardinality per plan stage (one entry
    /// per scan slot, plus one for the join when present), in stage
    /// order. Empty under the syntactic escape hatch.
    pub stage_estimates: Vec<StageEstimate>,
    /// Which scan slot the hash join built its table from (`Some(1)`
    /// means the cost model swapped the syntactic build side). `None`
    /// without a join or under the syntactic hint.
    pub build_side: Option<usize>,
}

/// Execution accounting for one pushed-down predicate of a cost-ordered
/// conjunctive scan (see [`crate::stats::order_predicates`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PredStat {
    /// Scan slot the predicate belongs to.
    pub slot: usize,
    /// Human-readable predicate, as the plan would display it.
    pub display: String,
    /// Position in the plan's syntactic (as-written) conjunction.
    pub syntactic_pos: usize,
    /// Position the cost model ran it at (0 = evaluated first).
    pub exec_rank: usize,
    /// Estimated surviving rows for this predicate alone.
    pub est_rows: f64,
    /// Frozen blocks this predicate's block meta pruned outright
    /// (attributed to the first predicate in execution order whose meta
    /// check failed).
    pub blocks_pruned: usize,
    /// Frozen blocks where this predicate ran as a sparse residual
    /// refinement over the prior predicates' survivors instead of a
    /// dense block kernel.
    pub blocks_refined: usize,
}

/// Estimated vs. actual cardinality for one executed plan stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageEstimate {
    /// Stage label: the scan's table label, or `"join"`.
    pub label: String,
    /// Rows the statistics layer predicted the stage would output.
    pub est_rows: f64,
    /// Rows the stage actually output.
    pub actual_rows: usize,
}

/// Compact plan identifier for stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlanTag {
    /// Scan of a fully hot table (every block is hot tail).
    #[default]
    FullScan,
    /// Scan of a table holding frozen blocks: they run the fused
    /// compressed kernels behind their cached block meta, the hot tail
    /// runs the raw-slice kernel. A label, not a choice — the same
    /// kernel runs either way.
    TieredScan,
    /// Tier-aware hash join: the build side streams frozen blocks' keys
    /// in compressed space, the probe side prunes frozen blocks against
    /// the build key range and probes survivors in their codec's domain
    /// (see [`crate::join`]). Chosen automatically once either side holds
    /// frozen blocks.
    TieredJoin,
    /// Sort-merge join over frozen-sorted key columns: both sides'
    /// cached block metadata proves the key columns nondecreasing, so
    /// the selected keys gather in order and merge without building a
    /// hash table. Chosen by the cost-based planner when both sides
    /// carry the sorted hint (and verified against the gathered keys,
    /// falling back to the hash join otherwise).
    MergeJoin,
}

/// A query result with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Rows or aggregate.
    pub output: QueryOutput,
    /// Statistics.
    pub stats: ExecStats,
}

/// Query executor.
#[derive(Debug, Clone)]
pub struct Executor {
    mode: ForgetVisibility,
    cost: CostModel,
    exec_mode: ExecMode,
    morsel_rows: usize,
}

impl Default for Executor {
    /// One worker unless `AMNESIA_TEST_THREADS` selects a pool (morsel
    /// size likewise overridable via `AMNESIA_MORSEL_ROWS`) — so CI's
    /// thread matrix runs every default-constructed executor at more than
    /// one width without touching call sites.
    fn default() -> Self {
        Self {
            mode: ForgetVisibility::default(),
            cost: CostModel::default(),
            exec_mode: ExecMode::from_env(),
            morsel_rows: morsel::morsel_rows_from_env(),
        }
    }
}

impl Executor {
    /// Executor with explicit mode and cost model (execution mode still
    /// comes from the environment, as in [`Executor::default`]).
    pub fn new(mode: ForgetVisibility, cost: CostModel) -> Self {
        Self {
            mode,
            cost,
            ..Self::default()
        }
    }

    /// The forget-visibility mode.
    pub fn mode(&self) -> ForgetVisibility {
        self.mode
    }

    /// Select how many workers [`Self::execute_plan`] runs on.
    pub fn with_exec_mode(mut self, exec_mode: ExecMode) -> Self {
        self.exec_mode = exec_mode;
        self
    }

    /// Override the target rows per morsel (floored at one 64-row
    /// activity word) — tests shrink it to force multi-morsel schedules
    /// on small tables.
    pub fn with_morsel_rows(mut self, rows: usize) -> Self {
        self.morsel_rows = rows.max(WORD_BITS);
        self
    }

    /// The configured execution mode.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Execute a single-column [`Query`] against column `col` of `table`
    /// — the adapter behind `AmnesiacStore::query`, which the forget-mode
    /// ablations of the paper's evaluation call (the simulator scores its
    /// queries with the selection kernels directly). It makes no choice: every query kind maps to one tiered kernel (a
    /// fully hot table is a tiered column with zero frozen blocks), and
    /// only the visibility mode decides whether a range scan may see
    /// forgotten rows.
    ///
    /// * `Range` → [`batch::scan_tiered_active_into`], or
    ///   [`batch::scan_tiered_all_into`] under
    ///   [`ForgetVisibility::ScanSeesForgotten`] (paper §1: "a complete
    ///   scan will fetch all data");
    /// * `Point(v)` → the *inclusive* `[v, v]` (which, unlike `[v, v + 1)`,
    ///   exists at `v = i64::MAX`) as a one-predicate
    ///   [`kernels::selection_scan_ordered`], or
    ///   [`kernels::selection_scan_all`] for the complete scan;
    /// * `Aggregate` → [`batch::aggregate_tiered_active`] over active
    ///   rows, then `aux`'s summaries / micro-models of the forgotten
    ///   mass fold into the [`AggState`] before it finalizes.
    ///
    /// It is deliberately *not* a lowering onto [`PhysicalPlan`]: a plan
    /// materializes one `Vec<Scalar>` per output row and carries no row
    /// ids, has no visibility mode, and finalizes aggregates before the
    /// summary / model combine could see the state.
    pub fn execute(&self, table: &Table, col: usize, query: &Query, aux: &Aux<'_>) -> ExecResult {
        let (output, ts) = match query {
            Q::Range(pred) => {
                let (rows, ts) = self.scan_rows(table, col, *pred);
                (QueryOutput::Rows(rows), ts)
            }
            Q::Point(v) => {
                let (rows, ts) = self.scan_point(table, col, *v);
                (QueryOutput::Rows(rows), ts)
            }
            Q::Aggregate { kind, predicate } => {
                let (state, ts) = batch::aggregate_tiered_active(
                    table.col_tier(col),
                    table.activity_words(),
                    *predicate,
                );
                let value = combine_forgotten(state, *kind, *predicate, aux);
                (QueryOutput::Agg(value), ts)
            }
        };
        let stats = ExecStats {
            rows_scanned: ts.rows_scanned,
            blocks_pruned: ts.blocks_pruned,
            result_rows: output.cardinality(),
            cost: self.cost.full_scan(ts.rows_scanned),
            plan: scan_tag(table),
            ..Default::default()
        };
        ExecResult { output, stats }
    }

    /// Rows of `col` in `pred` under the executor's visibility.
    fn scan_rows(
        &self,
        table: &Table,
        col: usize,
        pred: RangePredicate,
    ) -> (Vec<RowId>, TierStats) {
        let tier = table.col_tier(col);
        let mut rows = Vec::new();
        let stats = match self.mode {
            ForgetVisibility::ActiveOnly => {
                batch::scan_tiered_active_into(tier, table.activity_words(), pred, &mut rows)
            }
            ForgetVisibility::ScanSeesForgotten => {
                batch::scan_tiered_all_into(tier, pred, &mut rows);
                complete_scan_stats(table, pred.is_empty())
            }
        };
        (rows, stats)
    }

    /// Rows of `col` equal to `v` under the executor's visibility: the
    /// inclusive `[v, v]` as a one-predicate selection (the form SQL
    /// uses at the domain edge), so `i64::MAX` is a findable value.
    fn scan_point(&self, table: &Table, col: usize, v: Value) -> (Vec<RowId>, TierStats) {
        let pred = ColPred::range(col, v, v);
        let (sel, stats) = match self.mode {
            ForgetVisibility::ActiveOnly => {
                let (sel, stats, _) = Pool::inline().selection_scan(table, &[pred], &[0]);
                (sel, stats)
            }
            ForgetVisibility::ScanSeesForgotten => (
                kernels::selection_scan_all(table, &pred),
                complete_scan_stats(table, false),
            ),
        };
        (kernels::selection_rows(&sel), stats)
    }

    /// Execute a full [`PhysicalPlan`] — scans with pushed-down
    /// predicate conjunctions, optional tiered hash join, fused or
    /// grouped aggregation, projection gather, sort + limit — returning
    /// the output rows and one unified [`ExecStats`].
    ///
    /// The plan always runs under the amnesiac (active-only) visibility:
    /// a query surface lowered onto physical plans sees exactly the
    /// active data, per the paper's §1 contract that forgotten tuples
    /// "will never show up in query results". `_auxes` is unused — a plan
    /// has no auxiliary access path — and stays in the signature only
    /// until the benchmark package, which passes it, drops the argument.
    ///
    /// Every stage runs through one `morsel::Pool`: the operator's span
    /// kernel over the table cut into tier-aligned morsels, partials
    /// folded in morsel order. [`ExecMode`] sets only the pool's width —
    /// one inline worker over the uncut table, or `n` work-stealing
    /// threads — so rows and work accounting are the same at any width.
    /// Scheduler accounting lands in [`ExecStats::morsels`],
    /// [`ExecStats::morsel_steals`] and [`ExecStats::merge_ns`].
    pub fn execute_plan(
        &self,
        tables: &[&Table],
        _auxes: &[Aux<'_>],
        plan: &PhysicalPlan,
    ) -> PhysResult {
        assert_eq!(
            tables.len(),
            plan.scans.len(),
            "one table per plan scan slot"
        );
        let mut stats = ExecStats::default();
        let mut pool = Pool::new(self.exec_mode.threads(), self.morsel_rows);
        let cost_based = plan.hint == PlanHint::CostBased;
        let model = &self.cost;

        // 1. Scans: per-slot selection masks under the pushed-down
        //    conjunction. Under the cost hint, multi-predicate
        //    conjunctions run in estimated `selectivity × eval_cost`
        //    order; otherwise in the order written. AND commutes, so the
        //    selection is the same either way.
        let mut sels: Vec<Vec<u64>> = Vec::with_capacity(tables.len());
        let mut scan_estimates: Vec<f64> = Vec::with_capacity(tables.len());
        for (slot, scan) in plan.scans.iter().enumerate() {
            let table = tables[slot];
            let ordered = (cost_based && scan.preds.len() >= 2)
                .then(|| crate::stats::order_predicates(table, &scan.preds, model));
            let as_written: Vec<usize> = (0..scan.preds.len()).collect();
            let order = ordered.as_ref().map_or(&as_written, |po| &po.order);
            let (sel, ts, per_pred) = pool.selection_scan(table, &scan.preds, order);
            let est = match &ordered {
                Some(po) => {
                    for (rank, &i) in po.order.iter().enumerate() {
                        stats.pred_stats.push(PredStat {
                            slot,
                            display: scan.preds[i].display.clone(),
                            syntactic_pos: i,
                            exec_rank: rank,
                            est_rows: po.est_rows[i],
                            blocks_pruned: per_pred[i].blocks_pruned,
                            blocks_refined: per_pred[i].blocks_refined,
                        });
                    }
                    Some(po.est_out_rows)
                }
                // 0- or 1-predicate scans: nothing to order — the cost
                // hint still records their estimate for join-side choice
                // and EXPLAIN.
                None => {
                    cost_based.then(|| crate::stats::estimate_scan_rows(table, &scan.preds, model))
                }
            };
            stats.rows_scanned += ts.rows_scanned;
            stats.blocks_pruned += ts.blocks_pruned;
            stats.cost += model.full_scan(ts.rows_scanned);
            if slot == 0 {
                stats.plan = scan_tag(table);
            }
            if let Some(est_rows) = est {
                scan_estimates.push(est_rows);
                stats.stage_estimates.push(StageEstimate {
                    label: scan.label.clone(),
                    est_rows,
                    actual_rows: kernels::selection_count(&sel),
                });
            }
            sels.push(sel);
        }

        // 2. Join. The physical choice is cost-driven and independent of
        //    the pool's width: a merge join when both key columns'
        //    summaries hint they are sorted (one flag read each),
        //    otherwise a hash join building on the side with the smaller
        //    estimated post-filter cardinality.
        let pairs: Option<Vec<(RowId, RowId)>> = plan.join.as_ref().map(|join| {
            let est_l = scan_estimates.first().copied().unwrap_or(0.0);
            let est_r = scan_estimates.get(1).copied().unwrap_or(0.0);
            if cost_based
                && tables[0].col_summary(join.left_col).sorted_hint()
                && tables[1].col_summary(join.right_col).sorted_hint()
            {
                if let Some(p) = merge_join_sorted(
                    tables[0],
                    join.left_col,
                    &sels[0],
                    tables[1],
                    join.right_col,
                    &sels[1],
                ) {
                    stats.join_pairs = p.len();
                    stats.plan = PlanTag::MergeJoin;
                    stats.stage_estimates.push(StageEstimate {
                        label: "join".into(),
                        est_rows: est_l.max(est_r),
                        actual_rows: p.len(),
                    });
                    return p;
                }
            }
            // Hash join: under the cost hint, build on the smaller
            // estimated side (syntactically the build side is slot 0).
            let swap = cost_based && est_r < est_l;
            let (bslot, pslot, bcol, pcol) = if swap {
                (1usize, 0usize, join.right_col, join.left_col)
            } else {
                (0usize, 1usize, join.left_col, join.right_col)
            };
            let (build, key_range) = pool.join_build(tables[bslot], bcol, &sels[bslot]);
            let (mut p, probe) =
                pool.join_probe(tables[pslot], pcol, &sels[pslot], &build, key_range);
            if swap {
                // The kernel emitted (build=right, probe=left) pairs in
                // probe-major order; restore the canonical
                // (left, right) pairs sorted by (right, left).
                for pr in p.iter_mut() {
                    *pr = (pr.1, pr.0);
                }
                p.sort_unstable_by_key(|&(l, r)| (r.as_usize(), l.as_usize()));
            }
            stats.blocks_pruned += probe.blocks_pruned;
            // Probe rows the key-range meta pruned were never streamed, so
            // they subtract from
            // `rows_scanned`. Only exact when the probe scan pushed no
            // predicates down (then its selection is the activity map,
            // which is what `probe_rows_skipped` counts); a filtered
            // probe side keeps the scan-phase count.
            if plan.scans[pslot].preds.is_empty() {
                stats.rows_scanned = stats.rows_scanned.saturating_sub(probe.probe_rows_skipped);
            }
            stats.join_pairs = p.len();
            if tables.iter().any(|t| t.has_frozen()) {
                stats.plan = PlanTag::TieredJoin;
            }
            if cost_based {
                stats.build_side = Some(bslot);
                stats.stage_estimates.push(StageEstimate {
                    label: "join".into(),
                    est_rows: est_l.max(est_r),
                    actual_rows: p.len(),
                });
            }
            p
        });

        // 3. Projection or (grouped) aggregation, as a row source: the
        //    values each output row is made of, but no row yet.
        let source: Box<dyn RowSource + '_> = match (&pairs, plan.has_aggregates()) {
            (None, false) => Box::new(project_selection(
                tables[0],
                &sels[0],
                &plan.items,
                &mut pool,
            )),
            (None, true) => aggregate_selection(tables[0], &sels[0], plan, &mut stats, &mut pool),
            (Some(pairs), false) => Box::new(PairRows {
                tables,
                pairs,
                items: &plan.items,
            }),
            (Some(pairs), true) => aggregate_pairs(tables, pairs, plan, &mut stats, &mut pool),
        };

        // 4. Sort + limit over *positions* into the source, never over
        //    rows: `LIMIT k` selects the stable top k by (key, position),
        //    no limit sorts every position through the pool's stable sort.
        //    Rows are built only for the positions that reach the result.
        let rows = sort_limit(source.as_ref(), plan.order_by, plan.limit, &mut pool);
        stats.result_rows = rows.len();
        stats.morsels = pool.stats.morsels;
        stats.morsel_steals = pool.stats.steals;
        stats.merge_ns = pool.stats.merge_ns;
        PhysResult { rows, stats }
    }
}

/// Step 3's output as the sort breaker sees it: `len` rows that exist
/// only as positions. The breaker reads one item of every position (the
/// sort key) and builds whole rows only for the positions it returns —
/// both a chunk of positions per call, so a source that reads its values
/// from the tables keeps one [`ColumnReader`] per column across a chunk.
trait RowSource: Sync {
    /// Output rows before sort and limit.
    fn len(&self) -> usize;
    /// Append item `idx` of each row in `rows`.
    fn items(&self, rows: Range<usize>, idx: usize, out: &mut Vec<Scalar>);
    /// Append the rows at `positions`: one scalar per plan item each.
    fn rows(&self, positions: &[usize], out: &mut Vec<Vec<Scalar>>);
}

/// Step 4, the sort breaker: order *positions* into `src` by the ORDER BY
/// item under the type-aware total order (`i64` keys never collapse
/// through `f64`), ties in position order, cut to the limit, then build
/// the surviving rows. Under `LIMIT k` it selects the top k by
/// `(key, position)` — a total order, so the unstable selection keeps
/// exactly the rows a stable sort would — and sorts only those. Without a
/// limit [`Pool::sort_by`] sorts every position stably: the one full
/// sort, which a multi-worker pool chunk-sorts and k-way merges. Key
/// reads and row builds run as index chunks through the pool.
fn sort_limit(
    src: &dyn RowSource,
    order_by: Option<(usize, SortDir)>,
    limit: Option<u64>,
    pool: &mut Pool,
) -> Vec<Vec<Scalar>> {
    let n = src.len();
    let k = limit.map_or(n, |l| usize::try_from(l).unwrap_or(usize::MAX).min(n));
    let positions: Vec<usize> = match order_by {
        None => (0..k).collect(),
        Some((idx, dir)) => {
            let keys: Vec<Scalar> = pool.fold_chunks(
                n,
                Vec::new,
                |range, out| src.items(range.clone(), idx, out),
                |out, part| out.extend(part),
            );
            let by_key = |a: &usize, b: &usize| {
                let ord = keys[*a].total_cmp(&keys[*b]);
                match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                }
            };
            let mut positions: Vec<usize> = (0..n).collect();
            if k < n {
                let by_key_then_position = |a: &usize, b: &usize| by_key(a, b).then(a.cmp(b));
                if k > 0 {
                    positions.select_nth_unstable_by(k - 1, by_key_then_position);
                }
                positions.truncate(k);
                positions.sort_unstable_by(by_key_then_position);
            } else {
                pool.sort_by(&mut positions, by_key);
            }
            positions
        }
    };
    pool.fold_chunks(
        positions.len(),
        Vec::new,
        |range, out| src.rows(&positions[range.clone()], out),
        |out, part| out.extend(part),
    )
}

/// Already-built rows: a global aggregate's one row.
impl RowSource for Vec<Vec<Scalar>> {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn items(&self, rows: Range<usize>, idx: usize, out: &mut Vec<Scalar>) {
        out.extend(self[rows].iter().map(|row| row[idx]));
    }

    fn rows(&self, positions: &[usize], out: &mut Vec<Vec<Scalar>>) {
        out.extend(positions.iter().map(|&i| self[i].clone()));
    }
}

/// A single-table projection: one gathered column per item, row `i` at
/// position `i` of each.
struct Gathered {
    rows: usize,
    cols: Vec<Vec<Value>>,
}

impl RowSource for Gathered {
    fn len(&self) -> usize {
        self.rows
    }

    fn items(&self, rows: Range<usize>, idx: usize, out: &mut Vec<Scalar>) {
        out.extend(self.cols[idx][rows].iter().map(|&v| Scalar::Int(v)));
    }

    fn rows(&self, positions: &[usize], out: &mut Vec<Vec<Scalar>>) {
        out.extend(
            positions
                .iter()
                .map(|&i| self.cols.iter().map(|c| Scalar::Int(c[i])).collect()),
        );
    }
}

/// Projection gather over a single-table selection: each output column
/// streams through the tier-aware gather (compressed blocks are never
/// decoded); rows zip positionally when the sort breaker builds them.
fn project_selection(table: &Table, sel: &[u64], items: &[PhysItem], pool: &mut Pool) -> Gathered {
    let cols = items
        .iter()
        .map(|item| {
            let PhysItem::Column { col, .. } = item else {
                unreachable!("projection plans carry only column items");
            };
            pool.gather_column(table, sel, *col)
        })
        .collect();
    Gathered {
        rows: kernels::selection_count(sel),
        cols,
    }
}

/// Global or grouped aggregation over a single-table selection.
fn aggregate_selection<'a>(
    table: &Table,
    sel: &[u64],
    plan: &'a PhysicalPlan,
    stats: &mut ExecStats,
    pool: &mut Pool,
) -> Box<dyn RowSource + 'a> {
    if let Some((_, gcol, _)) = &plan.group_by {
        // The vectorized hash group-by: folds over compressed blocks,
        // groups in first-seen row order.
        let agg_cols: Vec<Option<usize>> = agg_specs(&plan.items)
            .iter()
            .map(|(_, arg)| arg.map(|(_, c)| c))
            .collect();
        let groups = pool.grouped_fold(table, sel, *gcol, &agg_cols);
        stats.groups = groups.len();
        return Box::new(GroupRows::new(groups, &plan.items));
    }
    // Global aggregates: one fused fold per distinct input column,
    // COUNT(*) is a popcount of the selection.
    stats.groups = 1;
    let mut cache: Vec<(usize, AggState)> = Vec::new();
    let row = plan
        .items
        .iter()
        .map(|item| match item {
            PhysItem::Aggregate {
                kind,
                arg: Some((_, c)),
                ..
            } => {
                let state = match cache.iter().find(|(col, _)| col == c) {
                    Some((_, s)) => *s,
                    None => {
                        let s = pool.aggregate_selection(table, sel, *c);
                        cache.push((*c, s));
                        s
                    }
                };
                finalize_scalar(&state, *kind)
            }
            PhysItem::Aggregate { arg: None, .. } => {
                Scalar::Int(kernels::selection_count(sel) as i64)
            }
            PhysItem::Column { .. } => {
                unreachable!("plain columns require GROUP BY")
            }
        })
        .collect();
    Box::new(vec![row])
}

/// The result of executing a [`PhysicalPlan`]: materialized output rows
/// plus the unified [`ExecStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhysResult {
    /// Output rows, one [`Scalar`] per plan item.
    pub rows: Vec<Vec<Scalar>>,
    /// Execution statistics across every operator.
    pub stats: ExecStats,
}

/// Sort-merge join over two selections whose key columns their
/// summaries hint are in order
/// ([`sorted_hint`](amnesia_columnar::ColumnSummary::sorted_hint)):
/// gather each side's selected rows and keys in row order (which *is*
/// key order for a sorted column), verify the gathered keys really are
/// nondecreasing (returning `None` — hash-join fallback — otherwise),
/// then two-pointer merge the equal-key groups. Pairs emit in the hash
/// join's canonical probe-major order, so the physical choice never
/// changes results.
fn merge_join_sorted(
    left: &Table,
    left_col: usize,
    lsel: &[u64],
    right: &Table,
    right_col: usize,
    rsel: &[u64],
) -> Option<Vec<(RowId, RowId)>> {
    let lrows = kernels::selection_rows(lsel);
    let rrows = kernels::selection_rows(rsel);
    let mut lkeys = Vec::with_capacity(lrows.len());
    kernels::gather_column(left, lsel, left_col, &mut lkeys);
    let mut rkeys = Vec::with_capacity(rrows.len());
    kernels::gather_column(right, rsel, right_col, &mut rkeys);
    if lkeys.windows(2).any(|w| w[0] > w[1]) || rkeys.windows(2).any(|w| w[0] > w[1]) {
        return None;
    }
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < lkeys.len() && j < rkeys.len() {
        match lkeys[i].cmp(&rkeys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = lkeys[i];
                let i0 = i;
                while i < lkeys.len() && lkeys[i] == k {
                    i += 1;
                }
                let j0 = j;
                while j < rkeys.len() && rkeys[j] == k {
                    j += 1;
                }
                for &rr in &rrows[j0..j] {
                    for &lr in &lrows[i0..i] {
                        out.push((lr, rr));
                    }
                }
            }
        }
    }
    Some(out)
}

/// The aggregate items of a plan, in item order.
fn agg_specs(
    items: &[PhysItem],
) -> Vec<(amnesia_workload::query::AggKind, Option<(usize, usize)>)> {
    items
        .iter()
        .filter_map(|i| match i {
            PhysItem::Aggregate { kind, arg, .. } => Some((*kind, *arg)),
            PhysItem::Column { .. } => None,
        })
        .collect()
}

/// A [`GroupTable`]'s output rows in first-seen group order: plain
/// columns replay the group key, aggregates finalize with the checked
/// (overflow-widening) conversion — per item, when the breaker asks.
struct GroupRows<'a> {
    groups: GroupTable,
    items: &'a [PhysItem],
    /// Per item, its index among the aggregate items (the group's state
    /// slot); unused for plain columns.
    agg_of: Vec<usize>,
}

impl<'a> GroupRows<'a> {
    fn new(groups: GroupTable, items: &'a [PhysItem]) -> Self {
        let agg_of = items
            .iter()
            .scan(0usize, |next, item| {
                let a = *next;
                *next += usize::from(item.is_aggregate());
                Some(a)
            })
            .collect();
        Self {
            groups,
            items,
            agg_of,
        }
    }
}

impl GroupRows<'_> {
    /// Item `idx` of group `g`.
    fn item(&self, g: usize, idx: usize) -> Scalar {
        match &self.items[idx] {
            PhysItem::Column { .. } => Scalar::Int(self.groups.keys()[g]),
            PhysItem::Aggregate { kind, .. } => {
                finalize_scalar(&self.groups.group_states(g)[self.agg_of[idx]], *kind)
            }
        }
    }
}

impl RowSource for GroupRows<'_> {
    fn len(&self) -> usize {
        self.groups.len()
    }

    fn items(&self, rows: Range<usize>, idx: usize, out: &mut Vec<Scalar>) {
        out.extend(rows.map(|g| self.item(g, idx)));
    }

    fn rows(&self, positions: &[usize], out: &mut Vec<Vec<Scalar>>) {
        out.extend(
            positions
                .iter()
                .map(|&g| (0..self.items.len()).map(|idx| self.item(g, idx)).collect()),
        );
    }
}

/// Row id of `slot` within a join pair.
#[inline]
fn pair_row(pair: &(RowId, RowId), slot: usize) -> RowId {
    if slot == 0 {
        pair.0
    } else {
        pair.1
    }
}

/// One join side's column, read pair by pair through one
/// [`ColumnReader`]: pairs read in order keep the reader in a block while
/// consecutive pairs do — merge-join output, and a probe side streamed in
/// row order, revisit a block many pairs in a row.
struct PairColumn<'t> {
    slot: usize,
    reader: ColumnReader<'t>,
}

impl<'t> PairColumn<'t> {
    fn new(tables: &[&'t Table], (slot, col): (usize, usize)) -> Self {
        Self {
            slot,
            reader: tables[slot].col_tier(col).reader(),
        }
    }

    /// The column's value in `pair`.
    #[inline]
    fn get(&mut self, pair: &(RowId, RowId)) -> Value {
        self.reader.get(pair_row(pair, self.slot).as_usize())
    }
}

/// Join pairs per batch of [`read_pairs`]: a column's values for one batch
/// stay in cache until the batch is folded.
const PAIR_BATCH: usize = 1024;

/// Read `pairs` a batch at a time, one column at a time: each of `cols`
/// through its own [`PairColumn`] into its buffer (`bufs[c][i]` is column
/// `c` of the batch's pair `i`), then `fold(batch length, bufs)`. A tight
/// loop per column keeps its reader's open block hot.
fn read_pairs(
    tables: &[&Table],
    pairs: &[(RowId, RowId)],
    cols: &[(usize, usize)],
    mut fold: impl FnMut(usize, &[Vec<Value>]),
) {
    let mut columns: Vec<PairColumn<'_>> =
        cols.iter().map(|&c| PairColumn::new(tables, c)).collect();
    let mut bufs = vec![Vec::with_capacity(PAIR_BATCH.min(pairs.len())); cols.len()];
    for batch in pairs.chunks(PAIR_BATCH) {
        for (column, buf) in columns.iter_mut().zip(&mut bufs) {
            buf.clear();
            buf.extend(batch.iter().map(|p| column.get(p)));
        }
        fold(batch.len(), &bufs);
    }
}

/// The `(slot, column)` of a projection item.
fn item_column(item: &PhysItem) -> (usize, usize) {
    match item {
        PhysItem::Column { slot, col, .. } => (*slot, *col),
        PhysItem::Aggregate { .. } => unreachable!("projection plans carry only column items"),
    }
}

/// Projected join pairs: tier-aware point reads (never a block decode)
/// through one [`PairColumn`] per item column and chunk of positions,
/// made only for the sort key and for the pairs that reach the result.
struct PairRows<'a> {
    tables: &'a [&'a Table],
    pairs: &'a [(RowId, RowId)],
    items: &'a [PhysItem],
}

impl RowSource for PairRows<'_> {
    fn len(&self) -> usize {
        self.pairs.len()
    }

    fn items(&self, rows: Range<usize>, idx: usize, out: &mut Vec<Scalar>) {
        let mut column = PairColumn::new(self.tables, item_column(&self.items[idx]));
        out.extend(self.pairs[rows].iter().map(|p| Scalar::Int(column.get(p))));
    }

    fn rows(&self, positions: &[usize], out: &mut Vec<Vec<Scalar>>) {
        let mut columns: Vec<PairColumn<'_>> = self
            .items
            .iter()
            .map(|item| PairColumn::new(self.tables, item_column(item)))
            .collect();
        out.extend(positions.iter().map(|&i| {
            let pair = &self.pairs[i];
            columns
                .iter_mut()
                .map(|c| Scalar::Int(c.get(pair)))
                .collect()
        }));
    }
}

/// Aggregate join pairs, grouped or global, via tier-aware point reads:
/// every distinct `(slot, column)` the statement reads — the group key
/// and each aggregate input — is read once per pair, a batch of pairs at a
/// time through one [`ColumnReader`] per column ([`read_pairs`]). A batch
/// then folds run by run: the group keys resolve to slots first
/// ([`GroupTable::slot`] probes once per run of equal keys), and each run
/// of equal slots folds into each of its states in one go — merge-join
/// output and insertion-ordered keys arrive in long runs. Index-range
/// morsels of
/// the pair vector fold, in pair order, into a [`GroupTable`] (or a row of
/// aggregate states): groups stay in first-seen order, and the
/// integer-exact states reach the same totals however the pairs were cut.
fn aggregate_pairs<'a>(
    tables: &[&Table],
    pairs: &[(RowId, RowId)],
    plan: &'a PhysicalPlan,
    stats: &mut ExecStats,
    pool: &mut Pool,
) -> Box<dyn RowSource + 'a> {
    let specs = agg_specs(&plan.items);
    let mut cols: Vec<(usize, usize)> = Vec::new();
    let mut column = |sc: (usize, usize)| match cols.iter().position(|&c| c == sc) {
        Some(c) => c,
        None => {
            cols.push(sc);
            cols.len() - 1
        }
    };
    let key = plan.group_by.as_ref().map(|(s, c, _)| column((*s, *c)));
    let args: Vec<Option<usize>> = specs.iter().map(|(_, arg)| arg.map(&mut column)).collect();
    if let Some(key) = key {
        let groups = pool.fold_chunks(
            pairs.len(),
            || GroupTable::new(specs.len()),
            |range, groups| {
                let mut slots = Vec::with_capacity(PAIR_BATCH);
                read_pairs(tables, &pairs[range.clone()], &cols, |_, bufs| {
                    slots.clear();
                    slots.extend(bufs[key].iter().map(|&k| groups.slot(k)));
                    let mut start = 0;
                    for run in slots.chunk_by(|a, b| a == b) {
                        let rows = start..start + run.len();
                        start = rows.end;
                        for (a, arg) in args.iter().enumerate() {
                            let state = groups.state_mut(run[0], a);
                            match arg {
                                Some(c) => state.push_slice(&bufs[*c][rows.clone()]),
                                None => {
                                    state.push_block(run.len() as u64, 0, Value::MAX, Value::MIN)
                                }
                            }
                        }
                    }
                })
            },
            |groups, part| groups.absorb(&part),
        );
        stats.groups = groups.len();
        return Box::new(GroupRows::new(groups, &plan.items));
    }
    stats.groups = 1;
    let states = pool.fold_chunks(
        pairs.len(),
        || vec![AggState::new(); specs.len()],
        |range, states| {
            read_pairs(tables, &pairs[range.clone()], &cols, |n, bufs| {
                for (state, arg) in states.iter_mut().zip(&args) {
                    match arg {
                        Some(c) => state.push_slice(&bufs[*c]),
                        None => state.push_block(n as u64, 0, Value::MAX, Value::MIN),
                    }
                }
            })
        },
        |states, part| {
            for (state, p) in states.iter_mut().zip(&part) {
                state.merge(p);
            }
        },
    );
    let mut agg_i = 0usize;
    let row = plan
        .items
        .iter()
        .map(|item| match item {
            PhysItem::Aggregate { kind, .. } => {
                let s = finalize_scalar(&states[agg_i], *kind);
                agg_i += 1;
                s
            }
            PhysItem::Column { .. } => unreachable!("plain columns require GROUP BY"),
        })
        .collect();
    Box::new(vec![row])
}

/// What a complete scan examined: it is the only scan that still covers
/// forgotten tuples, and completeness costs every physical row — no
/// meta can prune it.
fn complete_scan_stats(table: &Table, empty_predicate: bool) -> TierStats {
    TierStats {
        blocks_pruned: 0,
        rows_scanned: if empty_predicate { 0 } else { table.num_rows() },
    }
}

/// The label a scan of `table` reports: it reads the layout, it selects
/// nothing (the same tiered kernel runs on both).
pub(crate) fn scan_tag(table: &Table) -> PlanTag {
    if table.has_frozen() {
        PlanTag::TieredScan
    } else {
        PlanTag::FullScan
    }
}

/// Finalize an active-rows aggregate, folding in what `aux` remembers of
/// the forgotten rows. One fused pass already yielded every statistic
/// the combiners need (COUNT, SUM, MIN, MAX), so neither rescans.
fn combine_forgotten(
    mut state: AggState,
    kind: AggKind,
    predicate: Option<RangePredicate>,
    aux: &Aux<'_>,
) -> Option<f64> {
    // Whole-table aggregates can fold in summaries of forgotten data
    // (paper §1: summaries answer "specific aggregation queries" only —
    // a predicate disables them because cell membership is unknown).
    // The cell folds into the running state, so a micro-model combine
    // below still sees the summary contribution.
    if let (None, Some(summaries)) = (predicate, aux.summaries) {
        let cell = summaries.combined();
        if cell.count > 0 {
            state.push_block(cell.count, cell.sum, cell.min, cell.max);
        }
    }
    // Micro-models go further: their histograms pro-rate the forgotten
    // mass inside a predicate, so ranged aggregates get an estimate
    // instead of an active-only answer.
    if let Some(models) = aux.models {
        let range = predicate.map(|p| ValueRange { lo: p.lo, hi: p.hi });
        let est = models.estimate(range);
        if est.count > 1e-12 {
            return Some(combine_with_estimate(&state, kind, &est));
        }
    }
    state.finalize(kind)
}

/// Merge the aggregate state (active rows, plus any summary cell already
/// folded in by the executor) with a micro-model estimate of the
/// forgotten mass. The state is already restricted to the query's
/// predicate, so its COUNT/SUM slot straight into the combination.
fn combine_with_estimate(state: &AggState, kind: AggKind, est: &Estimate) -> f64 {
    let n_active = state.count() as f64;
    match kind {
        AggKind::Count => n_active + est.count,
        AggKind::Sum => state.sum() as f64 + est.sum,
        AggKind::Avg => (state.sum() as f64 + est.sum) / (n_active + est.count),
        AggKind::Min => {
            let m = est.min.map(|v| v as f64);
            match (state.finalize(AggKind::Min), m) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => f64::NAN,
            }
        }
        AggKind::Max => {
            let m = est.max.map(|v| v as f64);
            match (state.finalize(AggKind::Max), m) {
                (Some(a), Some(b)) => a.max(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => f64::NAN,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::Schema;

    fn table() -> Table {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30, 40, 50], 0).unwrap();
        t.forget(RowId(1), 1).unwrap(); // 20 forgotten
        t
    }

    #[test]
    fn range_active_only() {
        let t = table();
        let ex = Executor::default();
        let r = ex.execute(
            &t,
            0,
            &Q::Range(RangePredicate::new(15, 45)),
            &Aux::default(),
        );
        assert_eq!(r.output.rows().unwrap(), &[RowId(2), RowId(3)]);
        assert_eq!(r.stats.result_rows, 2);
        assert_eq!(r.stats.plan, PlanTag::FullScan);
    }

    #[test]
    fn scan_sees_forgotten_mode() {
        let t = table();
        let ex = Executor::new(ForgetVisibility::ScanSeesForgotten, CostModel::default());
        let r = ex.execute(
            &t,
            0,
            &Q::Range(RangePredicate::new(15, 45)),
            &Aux::default(),
        );
        // The complete scan fetches the forgotten 20 as well.
        assert_eq!(r.output.rows().unwrap(), &[RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn point_query() {
        let t = table();
        let ex = Executor::default();
        let r = ex.execute(&t, 0, &Q::Point(30), &Aux::default());
        assert_eq!(r.output.rows().unwrap(), &[RowId(2)]);
        let miss = ex.execute(&t, 0, &Q::Point(20), &Aux::default());
        assert!(miss.output.rows().unwrap().is_empty(), "forgotten point");
    }

    #[test]
    fn domain_edges_agree_with_scalar_on_every_layout_and_mode() {
        use amnesia_columnar::compress::Encoding;
        let values = [i64::MIN, -1, 0, i64::MAX];
        // Whatever `encode_auto` picks, then forced Plain; each also hot.
        for encoding in [None, Some(Encoding::Plain)] {
            for forgotten in 0..values.len() {
                let mut hot = Table::with_block_rows(Schema::single("a"), 64);
                hot.pin_encoding(0, encoding);
                // Pad to one full block so the four edge values freeze.
                let padded: Vec<i64> = values
                    .iter()
                    .copied()
                    .chain((0..60).map(|i| i * 7))
                    .collect();
                hot.insert_batch(&padded, 0).unwrap();
                hot.forget(RowId::from(forgotten), 1).unwrap();
                let mut frozen = hot.clone();
                frozen.freeze_upto(64);
                assert_eq!(frozen.frozen_blocks(), 1);
                for t in [&hot, &frozen] {
                    for mode in [
                        ForgetVisibility::ActiveOnly,
                        ForgetVisibility::ScanSeesForgotten,
                    ] {
                        let ex = Executor::new(mode, CostModel::default());
                        let sees = |r: usize| {
                            mode == ForgetVisibility::ScanSeesForgotten || r != forgotten
                        };
                        let ctx = format!("{encoding:?} forgot#{forgotten} {mode:?}");
                        for (row, &v) in values.iter().enumerate() {
                            let got = ex.execute(t, 0, &Q::Point(v), &Aux::default());
                            let want: Vec<RowId> = (0..padded.len())
                                .filter(|&r| padded[r] == v && sees(r))
                                .map(RowId::from)
                                .collect();
                            assert_eq!(want.contains(&RowId::from(row)), sees(row), "{ctx}");
                            assert_eq!(got.output.rows().unwrap(), want, "point {v} {ctx}");
                        }
                        let whole = RangePredicate::new(i64::MIN, i64::MAX);
                        let got = ex.execute(t, 0, &Q::Range(whole), &Aux::default());
                        let want = match mode {
                            ForgetVisibility::ActiveOnly => {
                                batch::scalar::range_scan_active(&hot, 0, whole)
                            }
                            ForgetVisibility::ScanSeesForgotten => {
                                batch::scalar::range_scan_all(&hot, 0, whole)
                            }
                        };
                        assert_eq!(got.output.rows().unwrap(), want, "range {ctx}");
                        // Half-open: `i64::MAX` itself (row 3) is outside.
                        assert!(!want.contains(&RowId(3)) && want.len() >= padded.len() - 2);
                    }
                }
            }
        }
    }

    #[test]
    fn aggregate_without_summaries_drifts() {
        let t = table();
        let ex = Executor::default();
        let r = ex.execute(
            &t,
            0,
            &Q::Aggregate {
                kind: AggKind::Avg,
                predicate: None,
            },
            &Aux::default(),
        );
        // Active: 10,30,40,50 → 32.5 (true avg over history is 30).
        assert_eq!(r.output.agg().unwrap(), Some(32.5));
    }

    #[test]
    fn aggregate_with_summaries_recovers_exact_answer() {
        let t = table();
        let mut summaries = SummaryStore::new();
        summaries.absorb(0, 20); // the forgotten value
        let ex = Executor::default();
        let aux = Aux {
            summaries: Some(&summaries),
            ..Default::default()
        };
        let avg = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Avg,
                    predicate: None,
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(avg, Some(30.0), "summary restores the exact average");

        let count = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Count,
                    predicate: None,
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(count, Some(5.0));

        let min = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Min,
                    predicate: None,
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(min, Some(10.0));
    }

    #[test]
    fn predicated_aggregate_ignores_summaries() {
        let t = table();
        let mut summaries = SummaryStore::new();
        summaries.absorb(0, 20);
        let ex = Executor::default();
        let aux = Aux {
            summaries: Some(&summaries),
            ..Default::default()
        };
        let avg = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Avg,
                    predicate: Some(RangePredicate::new(0, 100)),
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        // Summaries cannot be sliced by value: active-only answer.
        assert_eq!(avg, Some(32.5));
    }

    #[test]
    fn predicated_aggregate_uses_models() {
        let t = table();
        let mut models = ModelStore::new(8);
        models.absorb(1, 20); // the forgotten value
        models.seal();
        let ex = Executor::default();
        let aux = Aux {
            models: Some(&models),
            ..Default::default()
        };
        // Range [0, 100) contains the forgotten 20: COUNT recovers it.
        let count = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Count,
                    predicate: Some(RangePredicate::new(0, 100)),
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(count, Some(5.0), "model restores the ranged count");
        // Range [35, 100) excludes it: no model contribution.
        let count = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Count,
                    predicate: Some(RangePredicate::new(35, 100)),
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(count, Some(2.0), "40 and 50 only");
        // Whole-table AVG is exact from model totals.
        let avg = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Avg,
                    predicate: None,
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(avg, Some(30.0));
    }

    #[test]
    fn summaries_and_models_chain() {
        // Forget 20 (absorbed by the summary) and 30 (absorbed by the
        // model): both contributions must land in the final answer.
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30, 40, 50], 0).unwrap();
        t.forget(RowId(1), 1).unwrap();
        t.forget(RowId(2), 1).unwrap();
        let mut summaries = SummaryStore::new();
        summaries.absorb(0, 20);
        let mut models = ModelStore::new(8);
        models.absorb(1, 30);
        models.seal();
        let ex = Executor::default();
        let aux = Aux {
            summaries: Some(&summaries),
            models: Some(&models),
        };
        let sum = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Sum,
                    predicate: None,
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        // Active 10+40+50 = 100, summary adds 20, model adds 30.
        assert_eq!(sum, Some(150.0));
        let count = ex
            .execute(
                &t,
                0,
                &Q::Aggregate {
                    kind: AggKind::Count,
                    predicate: None,
                },
                &aux,
            )
            .output
            .agg()
            .unwrap();
        assert_eq!(count, Some(5.0));
    }

    #[test]
    fn empty_predicate_short_circuits() {
        let t = table();
        let ex = Executor::default();
        let r = ex.execute(
            &t,
            0,
            &Q::Range(RangePredicate::new(50, 10)),
            &Aux::default(),
        );
        assert!(r.output.rows().unwrap().is_empty());
        assert_eq!(r.stats.rows_scanned, 0);
    }

    #[test]
    fn frozen_table_takes_tiered_plan_with_identical_results() {
        let mut flat = Table::new(Schema::single("a"));
        let values: Vec<i64> = (0..50_000).collect();
        flat.insert_batch(&values, 0).unwrap();
        for r in (0..50_000u64).step_by(7) {
            flat.forget(RowId(r), 1).unwrap();
        }
        let mut frozen = flat.clone();
        frozen.freeze_upto(48_000);
        assert!(frozen.has_frozen());
        let ex = Executor::default();
        let queries = [
            Q::Range(RangePredicate::new(100, 220)),
            Q::Point(10_000),
            Q::Aggregate {
                kind: AggKind::Avg,
                predicate: Some(RangePredicate::new(1_000, 40_000)),
            },
            Q::Aggregate {
                kind: AggKind::Sum,
                predicate: None,
            },
        ];
        for q in &queries {
            let want = ex.execute(&flat, 0, q, &Aux::default());
            let got = ex.execute(&frozen, 0, q, &Aux::default());
            assert_eq!(got.output, want.output, "{q:?}");
            assert_eq!(got.stats.plan, PlanTag::TieredScan, "{q:?}");
        }
        // The narrow range prunes nearly every frozen block via meta.
        let narrow = ex.execute(
            &frozen,
            0,
            &Q::Range(RangePredicate::new(100, 220)),
            &Aux::default(),
        );
        assert!(
            narrow.stats.blocks_pruned > 40,
            "{}",
            narrow.stats.blocks_pruned
        );
        assert!(narrow.stats.rows_scanned < flat.active_rows());
        // The complete-scan regime still sees forgotten rows.
        let ex_all = Executor::new(ForgetVisibility::ScanSeesForgotten, CostModel::default());
        let r = ex_all.execute(
            &frozen,
            0,
            &Q::Range(RangePredicate::new(0, 100)),
            &Aux::default(),
        );
        assert_eq!(r.output.cardinality(), 100);
    }

    #[test]
    fn sort_breaker_top_k_is_the_stable_sort_prefix() {
        // Ties, NULLs, floats beside ints and the i64 edges; the second
        // item is the position, so stability is visible in the output.
        let keys = [
            Scalar::Int(3),
            Scalar::Null,
            Scalar::Float(2.5),
            Scalar::Int(i64::MIN),
            Scalar::Int(3),
            Scalar::Float(9.3e18),
            Scalar::Int(i64::MAX),
            Scalar::Null,
            Scalar::Float(3.0),
            Scalar::Int(2),
            Scalar::Float(-9.3e18),
            Scalar::Int(3),
        ];
        let rows: Vec<Vec<Scalar>> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| vec![k, Scalar::Int(i as i64)])
            .collect();
        let n = rows.len();
        for dir in [SortDir::Asc, SortDir::Desc] {
            let mut want = rows.clone();
            want.sort_by(|a, b| match dir {
                SortDir::Asc => a[0].total_cmp(&b[0]),
                SortDir::Desc => b[0].total_cmp(&a[0]),
            });
            // One worker, and two over 4-row chunks: the full sort then
            // chunk-sorts and k-way merges.
            for mut pool in [Pool::inline(), Pool::new(2, 4)] {
                for k in 0..=n + 1 {
                    let got = sort_limit(&rows, Some((0, dir)), Some(k as u64), &mut pool);
                    assert_eq!(got, want[..k.min(n)], "{dir:?} LIMIT {k}");
                }
                assert_eq!(sort_limit(&rows, Some((0, dir)), None, &mut pool), want);
                assert_eq!(sort_limit(&rows, None, Some(5), &mut pool), rows[..5]);
            }
        }
    }

    #[test]
    fn join_plan_surfaces_tier_accounting() {
        use crate::physical::{JoinSpec, PhysScan};
        let mut left = Table::new(Schema::single("k"));
        left.insert_batch(&(0..100).collect::<Vec<i64>>(), 0)
            .unwrap();
        let mut right = Table::new(Schema::single("k"));
        // Second block disjoint from the build keys: prunes under meta.
        let vals: Vec<i64> = (0..1024)
            .map(|i| i % 100)
            .chain((0..1024).map(|i| 50_000 + i))
            .collect();
        right.insert_batch(&vals, 0).unwrap();
        let scan = |label: &str| PhysScan {
            preds: Vec::new(),
            label: label.into(),
        };
        let plan = PhysicalPlan {
            scans: vec![scan("Scan l"), scan("Scan r")],
            join: Some(JoinSpec {
                left_col: 0,
                right_col: 0,
                display: "l.k = r.k".into(),
            }),
            items: vec![PhysItem::Column {
                slot: 1,
                col: 0,
                display: "k".into(),
            }],
            group_by: None,
            order_by: None,
            limit: None,
            hint: PlanHint::default(),
        };
        let ex = Executor::default();
        let hot = ex.execute_plan(&[&left, &right], &[], &plan);
        assert_eq!(hot.stats.plan, PlanTag::FullScan);
        assert_eq!(hot.stats.result_rows, hot.stats.join_pairs);
        right.freeze_upto(2048);
        let frozen = ex.execute_plan(&[&left, &right], &[], &plan);
        assert_eq!(frozen.rows, hot.rows, "freezing never changes the join");
        assert_eq!(frozen.stats.plan, PlanTag::TieredJoin);
        assert_eq!(frozen.stats.blocks_pruned, 1, "the 50k block");
        assert_eq!(
            frozen.stats.rows_scanned,
            left.active_rows() + right.active_rows() - 1024,
            "pruned probe rows subtract from the scanned accounting"
        );
    }
}
