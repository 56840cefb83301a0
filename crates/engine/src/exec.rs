//! The executor: runs queries under a forget-visibility mode, with
//! optional zone map, index and summary support, reporting per-query
//! execution statistics.

use amnesia_columnar::{
    Estimate, ModelStore, SortedIndex, SummaryStore, Table, ValueRange, WordZoneMap, ZoneMap,
};
use amnesia_workload::query::{AggKind, Query, RangePredicate};
use amnesia_workload::Query as Q;
use serde::{Deserialize, Serialize};

use crate::batch::AggState;
use crate::cost::CostModel;
use crate::group::GroupTable;
use crate::kernels;
use crate::mode::ForgetVisibility;
use crate::morsel::{self, ExecMode, SchedStats};
use crate::physical::{
    finalize_scalar, ColPred, PhysItem, PhysicalPlan, PlanHint, Scalar, SortDir,
};
use crate::plan::{Plan, Planner};

use amnesia_columnar::{RowId, Value};
use amnesia_util::WORD_BITS;

/// Auxiliary structures available to the executor.
#[derive(Default)]
pub struct Aux<'a> {
    /// Zone map over the queried column, if maintained.
    pub zonemap: Option<&'a ZoneMap>,
    /// Word-granularity zone map over the queried column: min/max per
    /// 64-row activity word, consulted inside the batch kernels so scans
    /// skip words the predicate cannot hit.
    pub word_zones: Option<&'a WordZoneMap>,
    /// Sorted index over the queried column, if built.
    pub index: Option<&'a SortedIndex>,
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
    /// Matching row ids (insertion order for scans, value order for index
    /// probes).
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
    /// Blocks skipped thanks to zone-map / block-meta / join-key-range
    /// pruning.
    pub blocks_pruned: usize,
    /// 64-row words skipped thanks to the word-granularity zone map.
    pub words_pruned: usize,
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
    /// Which plan ran ("full-scan", "pruned-scan", "index-probe").
    pub plan: PlanTag,
    /// Morsels the scheduler executed across all plan stages (0 when
    /// every stage ran serially).
    pub morsels: usize,
    /// Morsels a worker claimed from another worker's range.
    pub morsel_steals: usize,
    /// Nanoseconds spent merging per-worker partial state at pipeline
    /// breakers.
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
    /// Full table scan.
    #[default]
    FullScan,
    /// Zone-map pruned scan.
    PrunedScan,
    /// Sorted-index probe.
    IndexProbe,
    /// Tier-aware scan: frozen blocks run the fused compressed kernels
    /// behind their cached block meta, the hot tail runs the flat
    /// kernel. Chosen automatically once a table holds frozen blocks.
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
    planner: Planner,
    exec_mode: ExecMode,
    morsel_rows: usize,
}

impl Default for Executor {
    /// Serial unless `AMNESIA_TEST_THREADS` selects a parallel pool
    /// (morsel size likewise overridable via `AMNESIA_MORSEL_ROWS`) — so
    /// CI's thread matrix drives every default-constructed executor
    /// through the morsel scheduler without touching call sites.
    fn default() -> Self {
        Self {
            mode: ForgetVisibility::default(),
            planner: Planner::default(),
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
            planner: Planner::new(cost),
            ..Self::default()
        }
    }

    /// The forget-visibility mode.
    pub fn mode(&self) -> ForgetVisibility {
        self.mode
    }

    /// Select how [`Self::execute_plan`] runs: serial, or morsel-driven
    /// across a fixed worker pool.
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

    /// Execute a query against column `col` of `table`. The workload
    /// algebra is a trivial lowering onto the physical-plan operators:
    /// `Range`/`Point` run the shared scan operator ([`Self::run_scan`],
    /// the same code path SQL's lowered scans take), aggregates run the
    /// fused filter+aggregate operator (the same [`AggState`] machinery
    /// the plan's aggregation stages fold with).
    pub fn execute(&self, table: &Table, col: usize, query: &Query, aux: &Aux<'_>) -> ExecResult {
        match query {
            Q::Range(pred) => self.execute_scan_query(table, col, *pred, aux),
            Q::Point(v) => self.execute_scan_query(
                table,
                col,
                RangePredicate::new(*v, v.saturating_add(1)),
                aux,
            ),
            Q::Aggregate { kind, predicate } => {
                self.execute_aggregate(table, col, *kind, *predicate, aux)
            }
        }
    }

    /// Lower a single range predicate onto the shared scan operator and
    /// materialize the selection as row ids (index probes keep their
    /// value order through [`Selection::Rows`]).
    fn execute_scan_query(
        &self,
        table: &Table,
        col: usize,
        pred: RangePredicate,
        aux: &Aux<'_>,
    ) -> ExecResult {
        let preds = [ColPred::from_range(col, pred)];
        let (sel, mut stats) = self.run_scan(table, &preds, aux);
        let rows = sel.into_rows();
        stats.result_rows = rows.len();
        ExecResult {
            output: QueryOutput::Rows(rows),
            stats,
        }
    }

    /// Execute a hash equi-join `left.left_col = right.right_col` under
    /// the executor's visibility mode, surfacing the join kernel's tier
    /// accounting through [`ExecStats`]: `blocks_pruned` counts frozen
    /// probe blocks skipped against the build side's key range, and
    /// `rows_scanned` is the build rows plus the probe rows actually
    /// streamed (pruned probe rows subtract out — the work the block
    /// metadata saved). The plan reports [`PlanTag::TieredJoin`] once
    /// either side holds frozen blocks under the amnesiac regime.
    pub fn execute_join(
        &self,
        left: &Table,
        left_col: usize,
        right: &Table,
        right_col: usize,
    ) -> (crate::join::JoinResult, ExecStats) {
        let r = crate::join::hash_join(left, left_col, right, right_col, self.mode);
        let rows_scanned = r.stats.build_rows + r.stats.probe_rows - r.stats.probe_rows_skipped;
        let tiered =
            self.mode == ForgetVisibility::ActiveOnly && (left.has_frozen() || right.has_frozen());
        let stats = ExecStats {
            rows_scanned,
            blocks_pruned: r.stats.blocks_pruned,
            words_pruned: 0,
            result_rows: r.stats.output_pairs,
            join_pairs: r.stats.output_pairs,
            groups: 0,
            cost: self.planner.cost_model().full_scan(rows_scanned),
            plan: if tiered {
                PlanTag::TieredJoin
            } else {
                PlanTag::FullScan
            },
            ..Default::default()
        };
        (r, stats)
    }

    /// Run one physical scan — the shared operator underneath both the
    /// workload driver's queries and the SQL surface's lowered plans.
    ///
    /// A single representable range predicate routes through the
    /// cost-based planner exactly like [`Executor::execute`]'s range
    /// queries (zone-map pruned scans and index probes included, when
    /// the [`Aux`] structures exist); everything else — the empty
    /// conjunction, multi-predicate conjunctions, negations, domain-edge
    /// ranges — evaluates as fused 64-bit selection masks via
    /// [`kernels::selection_scan`].
    pub fn run_scan(
        &self,
        table: &Table,
        preds: &[ColPred],
        aux: &Aux<'_>,
    ) -> (Selection, ExecStats) {
        if preds.len() == 1 {
            if let Some(range) = preds[0].as_range() {
                let res = self.execute_range(table, preds[0].col, range, aux);
                let rows = match res.output {
                    QueryOutput::Rows(r) => r,
                    QueryOutput::Agg(_) => unreachable!("range scans return rows"),
                };
                return (Selection::Rows(rows), res.stats);
            }
        }
        let (sel, ts) = kernels::selection_scan(table, preds);
        let stats = ExecStats {
            rows_scanned: ts.rows_scanned,
            blocks_pruned: ts.blocks_pruned,
            cost: self.planner.cost_model().full_scan(ts.rows_scanned),
            plan: if table.has_frozen() {
                PlanTag::TieredScan
            } else {
                PlanTag::FullScan
            },
            ..Default::default()
        };
        (Selection::Words(sel), stats)
    }

    /// Execute a full [`PhysicalPlan`] — scans with pushed-down
    /// predicate conjunctions, optional tiered hash join, fused or
    /// grouped aggregation, projection gather, sort + limit — returning
    /// the output rows and one unified [`ExecStats`].
    ///
    /// The plan always runs under the amnesiac (active-only) visibility:
    /// a query surface lowered onto physical plans sees exactly the
    /// active data, per the paper's §1 contract that forgotten tuples
    /// "will never show up in query results". `auxes` supplies per-slot
    /// zone maps / indexes (missing slots scan unassisted).
    ///
    /// Under [`ExecMode::Parallel`] every stage dispatches through the
    /// [`morsel`] scheduler — tier-aligned morsels, a work-stealing
    /// worker pool, deterministic merges — and returns rows
    /// byte-identical to the serial path (aux access paths are bypassed:
    /// the fused selection kernels compute the same selection the
    /// planner's assisted scans would). Scheduler accounting lands in
    /// [`ExecStats::morsels`], [`ExecStats::morsel_steals`] and
    /// [`ExecStats::merge_ns`].
    pub fn execute_plan(
        &self,
        tables: &[&Table],
        auxes: &[Aux<'_>],
        plan: &PhysicalPlan,
    ) -> PhysResult {
        assert_eq!(
            tables.len(),
            plan.scans.len(),
            "one table per plan scan slot"
        );
        let default_aux = Aux::default();
        let mut stats = ExecStats::default();
        let mut sched = SchedStats::default();
        let threads = self.exec_mode.threads();
        let cost_based = plan.hint == PlanHint::CostBased;
        let model = self.planner.cost_model();

        // 1. Scans: per-slot selection masks under the pushed-down
        //    conjunction. Under the cost hint, multi-predicate
        //    conjunctions run in estimated `selectivity × eval_cost`
        //    order with sparse residual refinement (AND commutes, so the
        //    selection is byte-identical to the syntactic order).
        let mut sels: Vec<Vec<u64>> = Vec::with_capacity(tables.len());
        let mut scan_estimates: Vec<f64> = Vec::with_capacity(tables.len());
        for (slot, scan) in plan.scans.iter().enumerate() {
            let nwords = tables[slot].num_rows().div_ceil(WORD_BITS);
            if cost_based && scan.preds.len() >= 2 {
                let po = crate::stats::order_predicates(tables[slot], &scan.preds, model);
                let (sel, ts, per_pred) = if threads > 1 {
                    let (sel, ts, per_pred, s) = morsel::par_selection_scan_ordered(
                        tables[slot],
                        &scan.preds,
                        &po.order,
                        threads,
                        self.morsel_rows,
                    );
                    sched.absorb(&s);
                    (sel, ts, per_pred)
                } else {
                    let mut per_pred = vec![kernels::PredScanStats::default(); scan.preds.len()];
                    let (sel, ts) = kernels::selection_scan_ordered(
                        tables[slot],
                        &scan.preds,
                        &po.order,
                        &mut per_pred,
                    );
                    (sel, ts, per_pred)
                };
                stats.rows_scanned += ts.rows_scanned;
                stats.blocks_pruned += ts.blocks_pruned;
                stats.cost += model.full_scan(ts.rows_scanned);
                if slot == 0 {
                    stats.plan = if tables[slot].has_frozen() {
                        PlanTag::TieredScan
                    } else {
                        PlanTag::FullScan
                    };
                }
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
                stats.stage_estimates.push(StageEstimate {
                    label: scan.label.clone(),
                    est_rows: po.est_out_rows,
                    actual_rows: kernels::selection_count(&sel),
                });
                scan_estimates.push(po.est_out_rows);
                sels.push(sel);
                continue;
            }
            // 0- or 1-predicate scans keep the legacy execution paths
            // (including the planner's zone-map / index access paths on
            // the serial route) — the cost hint still records their
            // estimate for join-side choice and EXPLAIN.
            let est = if cost_based {
                let e = crate::stats::estimate_scan_rows(tables[slot], &scan.preds, model);
                scan_estimates.push(e);
                Some(e)
            } else {
                None
            };
            if threads > 1 {
                let (sel, ts, s) = morsel::par_selection_scan(
                    tables[slot],
                    &scan.preds,
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                stats.rows_scanned += ts.rows_scanned;
                stats.blocks_pruned += ts.blocks_pruned;
                stats.cost += model.full_scan(ts.rows_scanned);
                if slot == 0 {
                    stats.plan = if tables[slot].has_frozen() {
                        PlanTag::TieredScan
                    } else {
                        PlanTag::FullScan
                    };
                }
                if let Some(e) = est {
                    stats.stage_estimates.push(StageEstimate {
                        label: scan.label.clone(),
                        est_rows: e,
                        actual_rows: kernels::selection_count(&sel),
                    });
                }
                sels.push(sel);
                continue;
            }
            let aux = auxes.get(slot).unwrap_or(&default_aux);
            let (sel, s) = self.run_scan(tables[slot], &scan.preds, aux);
            stats.rows_scanned += s.rows_scanned;
            stats.blocks_pruned += s.blocks_pruned;
            stats.words_pruned += s.words_pruned;
            stats.cost += s.cost;
            if slot == 0 {
                stats.plan = s.plan;
            }
            if let Some(e) = est {
                let actual = match &sel {
                    Selection::Words(w) => kernels::selection_count(w),
                    Selection::Rows(rows) => rows.len(),
                };
                stats.stage_estimates.push(StageEstimate {
                    label: scan.label.clone(),
                    est_rows: e,
                    actual_rows: actual,
                });
            }
            sels.push(match sel {
                Selection::Words(w) => w,
                Selection::Rows(rows) => rows_to_words(&rows, nwords),
            });
        }

        // 2. Join. The physical choice is cost-driven and
        //    mode-independent (the same strategy runs serial and
        //    parallel, so rows *and* accounting agree across modes):
        //    a merge join when both key columns' summaries hint they
        //    are sorted (one flag read each), otherwise a hash join
        //    building on the side with the smaller estimated post-filter
        //    cardinality.
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
            let (mut p, probe) = if threads > 1 {
                let ((build, key_range), s) = morsel::par_build_rows_map(
                    tables[bslot],
                    bcol,
                    &sels[bslot],
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                let (p, probe, s) = morsel::par_probe(
                    tables[pslot],
                    pcol,
                    &sels[pslot],
                    &build,
                    key_range,
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                (p, probe)
            } else {
                let (build, key_range) =
                    crate::join::build_rows_map_with(tables[bslot], bcol, &sels[bslot]);
                let mut p = Vec::new();
                let probe = crate::batch::probe_tiered(
                    tables[pslot].col_tier(pcol),
                    &sels[pslot],
                    &build,
                    key_range,
                    &mut p,
                );
                (p, probe)
            };
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
            // Mirror `execute_join`'s accounting: probe rows the key-range
            // meta pruned were never streamed, so they subtract from
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

        // 3. Projection or (grouped) aggregation.
        let mut rows: Vec<Vec<Scalar>> = match (&pairs, plan.has_aggregates()) {
            (None, false) => {
                self.project_selection(tables[0], &sels[0], &plan.items, threads, &mut sched)
            }
            (None, true) => self.aggregate_selection_rows(
                tables[0], &sels[0], plan, threads, &mut stats, &mut sched,
            ),
            (Some(pairs), false) => project_pairs(
                tables,
                pairs,
                &plan.items,
                threads,
                self.morsel_rows,
                &mut sched,
            ),
            (Some(pairs), true) => aggregate_pairs(
                tables,
                pairs,
                plan,
                threads,
                self.morsel_rows,
                &mut stats,
                &mut sched,
            ),
        };

        // 4. Sort + limit over the materialized scalars (type-aware
        //    total order: i64 keys never collapse through f64). The
        //    parallel path chunk-sorts and k-way merges with leftmost
        //    tie preference — exactly the serial stable sort's order.
        if let Some((idx, dir)) = plan.order_by {
            let cmp = |a: &Vec<Scalar>, b: &Vec<Scalar>| {
                let ord = a[idx].total_cmp(&b[idx]);
                match dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                }
            };
            if threads > 1 && rows.len() > self.morsel_rows {
                sched.merge_ns += morsel::par_sort_by(&mut rows, threads, cmp);
            } else {
                rows.sort_by(cmp);
            }
        }
        if let Some(limit) = plan.limit {
            rows.truncate(limit as usize);
        }
        stats.result_rows = rows.len();
        stats.morsels = sched.morsels;
        stats.morsel_steals = sched.steals;
        stats.merge_ns = sched.merge_ns;
        PhysResult { rows, stats }
    }

    /// Projection gather over a single-table selection: each output
    /// column streams through the tier-aware gather (compressed blocks
    /// are never decoded), then rows zip positionally. With a parallel
    /// pool each column's gather fans out over morsels and concatenates
    /// in ascending row order.
    fn project_selection(
        &self,
        table: &Table,
        sel: &[u64],
        items: &[PhysItem],
        threads: usize,
        sched: &mut SchedStats,
    ) -> Vec<Vec<Scalar>> {
        let n_out = kernels::selection_count(sel);
        let mut bufs: Vec<Vec<Value>> = Vec::with_capacity(items.len());
        for item in items {
            let PhysItem::Column { col, .. } = item else {
                unreachable!("projection plans carry only column items");
            };
            if threads > 1 {
                let (buf, s) =
                    morsel::par_gather_column(table, sel, *col, threads, self.morsel_rows);
                sched.absorb(&s);
                bufs.push(buf);
            } else {
                let mut buf = Vec::with_capacity(n_out);
                kernels::gather_column(table, sel, *col, &mut buf);
                bufs.push(buf);
            }
        }
        (0..n_out)
            .map(|i| bufs.iter().map(|b| Scalar::Int(b[i])).collect())
            .collect()
    }

    /// Global or grouped aggregation over a single-table selection.
    fn aggregate_selection_rows(
        &self,
        table: &Table,
        sel: &[u64],
        plan: &PhysicalPlan,
        threads: usize,
        stats: &mut ExecStats,
        sched: &mut SchedStats,
    ) -> Vec<Vec<Scalar>> {
        if let Some((_, gcol, _)) = &plan.group_by {
            // The vectorized hash group-by: folds over compressed blocks,
            // morsel-parallel with a deterministic first-seen-order merge
            // under a worker pool.
            let agg_cols: Vec<Option<usize>> = agg_specs(&plan.items)
                .iter()
                .map(|(_, arg)| arg.map(|(_, c)| c))
                .collect();
            let groups = if threads > 1 {
                let (groups, s) = morsel::par_grouped_fold(
                    table,
                    sel,
                    *gcol,
                    &agg_cols,
                    threads,
                    self.morsel_rows,
                );
                sched.absorb(&s);
                groups
            } else {
                crate::group::grouped_fold(table, sel, *gcol, &agg_cols)
            };
            stats.groups = groups.len();
            return finalize_groups(&groups, &plan.items);
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
                            let s = if threads > 1 {
                                let (s, sc) = morsel::par_aggregate_selection(
                                    table,
                                    sel,
                                    *c,
                                    threads,
                                    self.morsel_rows,
                                );
                                sched.absorb(&sc);
                                s
                            } else {
                                kernels::aggregate_selection(table, sel, *c)
                            };
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
        vec![row]
    }

    fn execute_range(
        &self,
        table: &Table,
        col: usize,
        pred: RangePredicate,
        aux: &Aux<'_>,
    ) -> ExecResult {
        if pred.is_empty() {
            return ExecResult {
                output: QueryOutput::Rows(Vec::new()),
                stats: ExecStats::default(),
            };
        }
        // In ScanSeesForgotten mode the *complete scan* is the only plan
        // that still covers forgotten tuples: zone maps and indexes track
        // active data only (paper §1: "a complete scan will fetch all
        // data, but a fast index-based query evaluation will skip the
        // forgotten data"). Completeness costs a full physical scan.
        //
        // A frozen table drops the external zone map from planning: the
        // tier's cached block meta prunes equivalently inside the scan
        // kernel, and the flat blocked kernel no longer applies.
        let zonemap = if table.has_frozen() {
            None
        } else {
            aux.zonemap
        };
        let (plan, cost) = match self.mode {
            ForgetVisibility::ScanSeesForgotten => (
                Plan::FullScan,
                self.planner.cost_model().full_scan(table.num_rows()),
            ),
            ForgetVisibility::ActiveOnly => {
                self.planner.plan_range(table, pred, zonemap, aux.index)
            }
        };
        let (rows, rows_scanned, blocks_pruned, words_pruned, tag) = match &plan {
            Plan::FullScan if table.has_frozen() && self.mode == ForgetVisibility::ActiveOnly => {
                // Tier-aware scan: block meta prunes frozen blocks, the
                // codecs' fused filters run on the survivors.
                let (rows, ts) = kernels::range_scan_tiered(table, col, pred);
                (
                    rows,
                    ts.rows_scanned,
                    ts.blocks_pruned,
                    0,
                    PlanTag::TieredScan,
                )
            }
            Plan::FullScan => {
                // Word-granularity zones slot into the full-scan plan:
                // same results, but the kernel skips words whose min/max
                // can't intersect the predicate. The complete-scan mode
                // must keep reading forgotten tuples, which zone entries
                // do not cover.
                let word_zones = match self.mode {
                    ForgetVisibility::ActiveOnly => aux.word_zones.filter(|wz| wz.column() == col),
                    ForgetVisibility::ScanSeesForgotten => None,
                };
                if let Some(wz) = word_zones {
                    let (rows, zs) = kernels::range_scan_active_zoned(table, col, wz, pred);
                    (rows, zs.rows_scanned, 0, zs.words_pruned, PlanTag::FullScan)
                } else {
                    let rows = match self.mode {
                        ForgetVisibility::ActiveOnly => {
                            kernels::range_scan_active(table, col, pred)
                        }
                        ForgetVisibility::ScanSeesForgotten => {
                            kernels::range_scan_all(table, col, pred)
                        }
                    };
                    let scanned = match self.mode {
                        ForgetVisibility::ActiveOnly => table.active_rows(),
                        ForgetVisibility::ScanSeesForgotten => table.num_rows(),
                    };
                    (rows, scanned, 0, 0, PlanTag::FullScan)
                }
            }
            Plan::PrunedScan { blocks, block_rows } => {
                let total_blocks = aux.zonemap.map(ZoneMap::num_blocks).unwrap_or(blocks.len());
                let rows = kernels::range_scan_blocks(table, col, pred, blocks, *block_rows);
                (
                    rows,
                    blocks.len() * block_rows,
                    total_blocks - blocks.len(),
                    0,
                    PlanTag::PrunedScan,
                )
            }
            Plan::IndexProbe => {
                let idx = aux.index.expect("planner only picks built indexes");
                let rows = idx.probe_range_active(table, pred.lo, pred.hi_inclusive());
                let scanned = rows.len();
                (rows, scanned, 0, 0, PlanTag::IndexProbe)
            }
        };
        let result_rows = rows.len();
        ExecResult {
            output: QueryOutput::Rows(rows),
            stats: ExecStats {
                rows_scanned,
                blocks_pruned,
                words_pruned,
                result_rows,
                cost,
                plan: tag,
                ..Default::default()
            },
        }
    }

    fn execute_aggregate(
        &self,
        table: &Table,
        col: usize,
        kind: AggKind,
        predicate: Option<RangePredicate>,
        aux: &Aux<'_>,
    ) -> ExecResult {
        // One fused filter+aggregate pass yields every statistic the
        // combiners below might need (COUNT, SUM, MIN, MAX), so folding in
        // summaries or micro-models no longer rescans the table. A word-
        // granularity zone map slots straight into that pass when the
        // aggregate is predicated; a frozen table instead folds its
        // frozen blocks in code/offset space behind the cached block
        // meta (no decode, no zone map needed).
        let (active_state, scanned, blocks_pruned, words_pruned) = if table.has_frozen() {
            let (state, ts) = kernels::aggregate_state_tiered(table, col, predicate);
            (state, ts.rows_scanned, ts.blocks_pruned, 0)
        } else {
            match aux
                .word_zones
                .filter(|wz| wz.column() == col && predicate.is_some())
            {
                Some(wz) => {
                    let (state, zs) =
                        kernels::aggregate_state_active_zoned(table, col, wz, predicate);
                    (state, zs.rows_scanned, 0, zs.words_pruned)
                }
                None => {
                    let (state, scanned) = kernels::aggregate_state_active(table, col, predicate);
                    (state, scanned, 0, 0)
                }
            }
        };

        // Whole-table aggregates can fold in summaries of forgotten data
        // (paper §1: summaries answer "specific aggregation queries" only —
        // a predicate disables them because cell membership is unknown).
        // The cell folds into the running state, so a micro-model combine
        // below still sees the summary contribution.
        let mut state = active_state;
        if predicate.is_none() {
            if let Some(summaries) = aux.summaries {
                let cell = summaries.combined();
                if cell.count > 0 {
                    state.push_block(cell.count, cell.sum, cell.min, cell.max);
                }
            }
        }
        let mut value = state.finalize(kind);

        // Micro-models go further: their histograms pro-rate the
        // forgotten mass inside a predicate, so ranged aggregates get an
        // estimate instead of an active-only answer.
        if let Some(models) = aux.models {
            let range = predicate.map(|p| ValueRange { lo: p.lo, hi: p.hi });
            let est = models.estimate(range);
            if est.count > 1e-12 {
                value = Some(combine_with_estimate(&state, kind, &est));
            }
        }

        let cost = self.planner.cost_model().full_scan(scanned);
        ExecResult {
            output: QueryOutput::Agg(value),
            stats: ExecStats {
                rows_scanned: scanned,
                blocks_pruned,
                words_pruned,
                cost,
                plan: if table.has_frozen() {
                    PlanTag::TieredScan
                } else {
                    PlanTag::FullScan
                },
                ..Default::default()
            },
        }
    }
}

/// A scan operator's output: selection-mask words (one per 64 rows), or
/// an explicit row list when the access path yields an order masks
/// cannot express (index probes return value order).
#[derive(Debug, Clone, PartialEq)]
pub enum Selection {
    /// One 64-bit selection word per activity word, ascending row order.
    Words(Vec<u64>),
    /// Explicit rows in access-path order.
    Rows(Vec<RowId>),
}

impl Selection {
    /// Materialize as row ids (ascending for [`Selection::Words`]).
    pub fn into_rows(self) -> Vec<RowId> {
        match self {
            Selection::Rows(rows) => rows,
            Selection::Words(words) => kernels::selection_rows(&words),
        }
    }
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

/// Pack explicit row ids into selection-mask words.
fn rows_to_words(rows: &[RowId], nwords: usize) -> Vec<u64> {
    let mut words = vec![0u64; nwords];
    for r in rows {
        let i = r.as_usize();
        words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }
    words
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

/// Materialize a [`GroupTable`] as output rows in first-seen group
/// order: plain columns replay the group key, aggregates finalize with
/// the checked (overflow-widening) conversion.
fn finalize_groups(groups: &GroupTable, items: &[PhysItem]) -> Vec<Vec<Scalar>> {
    (0..groups.len())
        .map(|g| {
            let states = groups.group_states(g);
            let mut agg_i = 0usize;
            items
                .iter()
                .map(|item| match item {
                    PhysItem::Column { .. } => Scalar::Int(groups.keys()[g]),
                    PhysItem::Aggregate { kind, .. } => {
                        let s = finalize_scalar(&states[agg_i], *kind);
                        agg_i += 1;
                        s
                    }
                })
                .collect()
        })
        .collect()
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

/// Project join pairs: per-item tier-aware point reads (codec
/// `value_at`, never a block decode). Under a parallel pool the pair
/// vector splits into index-range morsels whose projected rows
/// concatenate back in pair order.
fn project_pairs(
    tables: &[&Table],
    pairs: &[(RowId, RowId)],
    items: &[PhysItem],
    threads: usize,
    morsel_rows: usize,
    sched: &mut SchedStats,
) -> Vec<Vec<Scalar>> {
    let project_range = |range: &std::ops::Range<usize>| -> Vec<Vec<Scalar>> {
        pairs[range.clone()]
            .iter()
            .map(|pair| {
                items
                    .iter()
                    .map(|item| match item {
                        PhysItem::Column { slot, col, .. } => {
                            Scalar::Int(tables[*slot].value(*col, pair_row(pair, *slot)))
                        }
                        PhysItem::Aggregate { .. } => {
                            unreachable!("projection plans carry only column items")
                        }
                    })
                    .collect()
            })
            .collect()
    };
    let chunks = morsel::index_chunks(pairs.len(), morsel_rows);
    if threads <= 1 || chunks.len() <= 1 {
        return project_range(&(0..pairs.len()));
    }
    let (parts, s) = morsel::run_morsels(chunks.len(), threads, |i| {
        project_range(&(chunks[i].0..chunks[i].1))
    });
    sched.absorb(&s);
    let mut out = Vec::with_capacity(pairs.len());
    for p in parts {
        out.extend(p);
    }
    out
}

/// Aggregate join pairs, grouped or global, via tier-aware point reads.
/// Under a parallel pool each index-range morsel folds a local
/// [`GroupTable`] keyed with the *pair index* as its first-seen marker;
/// the merged table re-sorts by that marker, reproducing the serial
/// first-seen group order (global aggregates merge integer-exact
/// states in morsel order).
fn aggregate_pairs(
    tables: &[&Table],
    pairs: &[(RowId, RowId)],
    plan: &PhysicalPlan,
    threads: usize,
    morsel_rows: usize,
    stats: &mut ExecStats,
    sched: &mut SchedStats,
) -> Vec<Vec<Scalar>> {
    let specs = agg_specs(&plan.items);
    let chunks = morsel::index_chunks(pairs.len(), morsel_rows);
    let parallel = threads > 1 && chunks.len() > 1;
    if let Some((gslot, gcol, _)) = &plan.group_by {
        let fold_range = |lo: usize, hi: usize| -> GroupTable {
            let mut groups = GroupTable::new(specs.len());
            for (i, pair) in pairs[lo..hi].iter().enumerate() {
                let key = tables[*gslot].value(*gcol, pair_row(pair, *gslot));
                let slot = groups.slot_at(key, lo + i);
                for (a, (_, arg)) in specs.iter().enumerate() {
                    match arg {
                        Some((aslot, acol)) => groups
                            .state_mut(slot, a)
                            .push(tables[*aslot].value(*acol, pair_row(pair, *aslot))),
                        None => groups.bump(slot, a),
                    }
                }
            }
            groups
        };
        let groups = if parallel {
            let (parts, s) = morsel::run_morsels(chunks.len(), threads, |i| {
                fold_range(chunks[i].0, chunks[i].1)
            });
            sched.absorb(&s);
            let mut merged = GroupTable::new(specs.len());
            for part in &parts {
                merged.absorb(part);
            }
            merged.sort_by_first_row();
            merged
        } else {
            fold_range(0, pairs.len())
        };
        stats.groups = groups.len();
        return finalize_groups(&groups, &plan.items);
    }
    stats.groups = 1;
    let fold_range = |lo: usize, hi: usize| -> Vec<AggState> {
        let mut states = vec![AggState::new(); specs.len()];
        for pair in &pairs[lo..hi] {
            for (state, (_, arg)) in states.iter_mut().zip(&specs) {
                match arg {
                    Some((aslot, acol)) => {
                        state.push(tables[*aslot].value(*acol, pair_row(pair, *aslot)))
                    }
                    None => state.push_block(1, 0, Value::MAX, Value::MIN),
                }
            }
        }
        states
    };
    let states = if parallel {
        let (parts, s) = morsel::run_morsels(chunks.len(), threads, |i| {
            fold_range(chunks[i].0, chunks[i].1)
        });
        sched.absorb(&s);
        let mut states = vec![AggState::new(); specs.len()];
        for part in &parts {
            for (state, p) in states.iter_mut().zip(part) {
                state.merge(p);
            }
        }
        states
    } else {
        fold_range(0, pairs.len())
    };
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
    vec![row]
}

/// Merge the aggregate state (active rows, plus any summary cell already
/// folded in by the executor) with a micro-model estimate of the
/// forgotten mass. The state is already restricted to the query's
/// predicate, so its COUNT/SUM slot straight into the combination.
fn combine_with_estimate(state: &kernels::AggState, kind: AggKind, est: &Estimate) -> f64 {
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
    fn index_path_always_skips_forgotten() {
        let t = table();
        let mut idx = SortedIndex::build(&t, 0);
        idx.rebuild(&t);
        // Force index choice by making the table "large" conceptually:
        // probe directly through the executor with aux present on a narrow
        // predicate. With only 5 rows the planner may still choose scans,
        // so call the probe path explicitly.
        let rows = idx.probe_range_active(&t, 15, 44);
        assert_eq!(rows, vec![RowId(2), RowId(3)]);
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
            ..Default::default()
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
    fn word_zones_prune_full_scans() {
        let mut t = Table::new(Schema::single("a"));
        let values: Vec<i64> = (0..50_000).collect();
        t.insert_batch(&values, 0).unwrap();
        let wz = WordZoneMap::build(&t, 0);
        let ex = Executor::default();
        let q = Q::Range(RangePredicate::new(100, 200));
        let plain = ex.execute(&t, 0, &q, &Aux::default());
        let aux = Aux {
            word_zones: Some(&wz),
            ..Default::default()
        };
        let zoned = ex.execute(&t, 0, &q, &aux);
        assert_eq!(zoned.output, plain.output, "zones never change results");
        assert_eq!(zoned.stats.plan, PlanTag::FullScan);
        // 50k rows = 782 words; the sorted column leaves ~3 live.
        assert!(
            zoned.stats.words_pruned > 770,
            "{}",
            zoned.stats.words_pruned
        );
        assert!(zoned.stats.rows_scanned < plain.stats.rows_scanned);

        // Predicated aggregates ride the same zones.
        let agg = Q::Aggregate {
            kind: AggKind::Sum,
            predicate: Some(RangePredicate::new(100, 200)),
        };
        let plain_agg = ex.execute(&t, 0, &agg, &Aux::default());
        let zoned_agg = ex.execute(&t, 0, &agg, &aux);
        assert_eq!(zoned_agg.output, plain_agg.output);
        assert!(zoned_agg.stats.words_pruned > 770);
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
    fn execute_join_surfaces_tier_accounting() {
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
        let ex = Executor::default();
        let (hot_r, hot_stats) = ex.execute_join(&left, 0, &right, 0);
        assert_eq!(hot_stats.plan, PlanTag::FullScan);
        assert_eq!(hot_stats.result_rows, hot_r.stats.output_pairs);
        right.freeze_upto(2048);
        let (r, stats) = ex.execute_join(&left, 0, &right, 0);
        assert_eq!(r.pairs, hot_r.pairs, "freezing never changes the join");
        assert_eq!(stats.plan, PlanTag::TieredJoin);
        assert_eq!(stats.blocks_pruned, 1, "the 50k block");
        assert_eq!(
            stats.rows_scanned,
            left.active_rows() + right.active_rows() - 1024,
            "pruned probe rows subtract from the scanned accounting"
        );
        // The ground-truth executor reports a dense full-scan join.
        let ex_all = Executor::new(ForgetVisibility::ScanSeesForgotten, CostModel::default());
        let (truth, tstats) = ex_all.execute_join(&left, 0, &right, 0);
        assert_eq!(tstats.plan, PlanTag::FullScan);
        assert_eq!(truth.stats.output_pairs, 1024, "forgotten-inclusive");
    }

    #[test]
    fn pruned_scan_engages_with_zonemap() {
        let mut t = Table::new(Schema::single("a"));
        let values: Vec<i64> = (0..50_000).collect();
        t.insert_batch(&values, 0).unwrap();
        let zm = ZoneMap::build(&t, 0);
        let ex = Executor::default();
        let aux = Aux {
            zonemap: Some(&zm),
            ..Default::default()
        };
        let r = ex.execute(&t, 0, &Q::Range(RangePredicate::new(100, 200)), &aux);
        assert_eq!(r.stats.plan, PlanTag::PrunedScan);
        assert!(r.stats.blocks_pruned > 40);
        assert_eq!(r.output.cardinality(), 100);
    }
}
