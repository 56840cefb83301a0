//! The physical plan: the one execution API every query surface lowers
//! onto.
//!
//! Before this layer existed the engine's vectorized kernels were only
//! reachable through per-column entry points, so the SQL front-end ran
//! its own row-at-a-time pipeline (`iter_active()` + `Table::value` per
//! row) and threw away everything the batch/compressed/tiered kernels
//! had won. A [`PhysicalPlan`] describes a full query — tier-aware scans
//! with a *conjunction* of pushed-down predicates, an optional tiered
//! hash join, fused or grouped aggregation, projection gather, and
//! sort + limit — and [`Executor::execute_plan`] runs it entirely on the
//! selection-mask machinery:
//!
//! ```text
//! BoundQuery (SQL)  ──lower()──►  PhysicalPlan  ──execute_plan()──►  rows + ExecStats
//! ```
//!
//! The single-column workload [`Query`](amnesia_workload::Query) algebra
//! does *not* lower onto a plan: [`Executor::execute`] maps it straight
//! onto the tiered kernels of [`crate::batch`] (see there for why).
//!
//! * **Scan**: each table slot evaluates its predicate conjunction as
//!   64-bit selection masks — `sel = activity & pred₀ & pred₁ & …` —
//!   per activity word on hot data and per compressed block on frozen
//!   data (codec-fused `filter_range_masks`), behind cached block-meta
//!   pruning for every predicate column on every full block, frozen or
//!   hot. See
//!   [`crate::kernels::selection_scan_ordered`].
//! * **Join**: the build side streams keys in compressed space under the
//!   scan's selection words, the probe side probes in each codec's domain
//!   with key-range block pruning — the two kernels of [`crate::join`].
//! * **Aggregate**: ungrouped aggregates fold through the codecs'
//!   `fold_range_masked` (no decode); `GROUP BY` runs the vectorized
//!   hash group-by of [`crate::group`], which folds frozen blocks in
//!   compressed space.
//! * **Sort**: type-aware total ordering over [`Scalar`]s — `i64` keys
//!   compare exactly (no `f64` collapse), `NULL` sorts first — applied to
//!   positions, not rows: under `LIMIT k` only the stable top k are
//!   selected, and only the rows returned are ever built.
//!
//! [`Executor::execute_plan`]: crate::exec::Executor::execute_plan
//! [`Executor::execute`]: crate::exec::Executor::execute

use std::cmp::Ordering;
use std::fmt;

use amnesia_columnar::{BlockMeta, Table, Value};
use amnesia_workload::query::{AggKind, RangePredicate};

use crate::batch::AggState;
use crate::exec::{ExecStats, PlanTag};

/// One output value of a physical plan: the engine-level datum that SQL
/// re-exports as `Datum`. Integers stay integers end to end; `Float`
/// carries `AVG` results and `SUM`s that overflow `i64` (checked
/// widening, never silent wraparound); `Null` is an aggregate over an
/// empty selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// Integer (columns, COUNT/SUM/MIN/MAX).
    Int(i64),
    /// Floating point (AVG, or a SUM widened past the `i64` domain).
    Float(f64),
    /// Aggregate over an empty selection.
    Null,
}

impl Scalar {
    /// The integer inside, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Scalar::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric value (ints widened), `None` for NULL.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(v) => Some(*v as f64),
            Scalar::Float(v) => Some(*v),
            Scalar::Null => None,
        }
    }

    /// Type-aware total ordering for ORDER BY: `NULL` sorts first,
    /// integers compare as integers (exact above 2^53, where the old
    /// collapse-to-`f64` comparator tied distinct keys), floats by
    /// [`f64::total_cmp`], and mixed int/float pairs compare exactly via
    /// the float's integral part — a real `-inf` orders *after* NULL
    /// instead of tying with it.
    pub fn total_cmp(&self, other: &Scalar) -> Ordering {
        match (self, other) {
            (Scalar::Null, Scalar::Null) => Ordering::Equal,
            (Scalar::Null, _) => Ordering::Less,
            (_, Scalar::Null) => Ordering::Greater,
            (Scalar::Int(a), Scalar::Int(b)) => a.cmp(b),
            (Scalar::Float(a), Scalar::Float(b)) => a.total_cmp(b),
            (Scalar::Int(a), Scalar::Float(b)) => cmp_int_float(*a, *b),
            (Scalar::Float(a), Scalar::Int(b)) => cmp_int_float(*b, *a).reverse(),
        }
    }
}

/// Exact `i64` vs `f64` comparison: never rounds the integer through
/// `f64` (which is lossy above 2^53). NaN sorts after every integer.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    // Beyond the i64 domain the sign of f decides outright. 2^63 (== the
    // first f64 at or above i64::MAX + 1) and below -2^63 are exact here.
    if f >= 9_223_372_036_854_775_808.0 {
        return Ordering::Less;
    }
    if f < -9_223_372_036_854_775_808.0 {
        return Ordering::Greater;
    }
    // floor(f) now fits i64. For |f| >= 2^53, f is integral and the
    // i64 → f64 round-trip below is exact; for smaller f it is exact
    // anyway.
    let fi = f.floor() as i64;
    match i.cmp(&fi) {
        // i equals the integral part: a positive fraction pushes f above.
        Ordering::Equal => {
            if f > fi as f64 {
                Ordering::Less
            } else {
                Ordering::Equal
            }
        }
        ord => ord,
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Int(v) => write!(f, "{v}"),
            Scalar::Float(v) => write!(f, "{v:.4}"),
            Scalar::Null => write!(f, "NULL"),
        }
    }
}

/// Finalize an [`AggState`] into a [`Scalar`] for one aggregate kind.
///
/// `SUM` accumulates in `i128` and converts *checked*: a total outside
/// the `i64` domain widens to [`Scalar::Float`] instead of silently
/// wrapping (the old `as i64` truncation bug). Empty selections yield
/// `NULL` (`COUNT` yields 0).
pub fn finalize_scalar(state: &AggState, kind: AggKind) -> Scalar {
    if state.count() == 0 {
        return match kind {
            AggKind::Count => Scalar::Int(0),
            _ => Scalar::Null,
        };
    }
    match kind {
        AggKind::Count => Scalar::Int(state.count() as i64),
        AggKind::Sum => match i64::try_from(state.sum()) {
            Ok(v) => Scalar::Int(v),
            Err(_) => Scalar::Float(state.sum() as f64),
        },
        AggKind::Avg => Scalar::Float(state.sum() as f64 / state.count() as f64),
        AggKind::Min => state.min_value().map_or(Scalar::Null, Scalar::Int),
        AggKind::Max => state.max_value().map_or(Scalar::Null, Scalar::Int),
    }
}

/// One pushed-down predicate of a physical scan: an *inclusive* value
/// range `[lo, hi]` over a column ordinal, optionally negated (the
/// complement, for `<>`). Inclusive bounds represent every SQL
/// comparison exactly — including at the `i64` domain edges, where the
/// half-open form `[lo, hi)` cannot express "`v >= lo`" without
/// overflowing `hi`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColPred {
    /// Column ordinal within the scanned table.
    pub col: usize,
    /// Inclusive lower bound (`lo > hi` encodes the empty range).
    pub lo: Value,
    /// Inclusive upper bound.
    pub hi: Value,
    /// Evaluate the complement (`v < lo || v > hi`).
    pub negated: bool,
    /// Human-readable rendering for EXPLAIN (`orders.amount > 10`).
    pub display: String,
}

impl ColPred {
    /// A plain inclusive range predicate.
    pub fn range(col: usize, lo: Value, hi: Value) -> Self {
        Self {
            col,
            lo,
            hi,
            negated: false,
            display: format!("col{col} BETWEEN {lo} AND {hi}"),
        }
    }

    /// Lift a half-open engine [`RangePredicate`] (the workload algebra)
    /// into the inclusive form.
    pub fn from_range(col: usize, pred: RangePredicate) -> Self {
        let mut p = Self::range(col, pred.lo, pred.hi_inclusive());
        if pred.is_empty() {
            // Normalized empty: lo > hi.
            p.lo = 0;
            p.hi = -1;
        }
        p
    }

    /// True when the (non-negated) range can match no value.
    #[inline]
    pub fn is_empty_range(&self) -> bool {
        self.lo > self.hi
    }

    /// Does `v` pass?
    #[inline]
    pub fn matches(&self, v: Value) -> bool {
        (self.lo <= v && v <= self.hi) != self.negated
    }

    /// Can any active row of a frozen block with this cached meta pass?
    /// Stale meta bounds are only ever wide, so `false` is always safe
    /// to skip on — for the negated form the block prunes only when its
    /// whole active range provably sits *inside* `[lo, hi]`.
    #[inline]
    pub fn block_may_match(&self, meta: &BlockMeta) -> bool {
        if meta.active == 0 {
            return false;
        }
        if self.is_empty_range() {
            return self.negated;
        }
        if self.negated {
            !(meta.min >= self.lo && meta.max <= self.hi)
        } else {
            meta.may_match_inclusive(self.lo, self.hi)
        }
    }
}

/// Sort direction of the optional `ORDER BY` operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending (SQL default).
    Asc,
    /// Descending.
    Desc,
}

/// One table scan of a physical plan: the pushed-down predicate
/// conjunction, combined at execution time as 64-bit selection masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysScan {
    /// Predicates ANDed over this slot's table.
    pub preds: Vec<ColPred>,
    /// EXPLAIN label (`Scan orders AS o [active-only]`).
    pub label: String,
}

/// The equi-join of a two-table plan: build on slot 0, probe slot 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Join column ordinal in the slot-0 (build) table.
    pub left_col: usize,
    /// Join column ordinal in the slot-1 (probe) table.
    pub right_col: usize,
    /// EXPLAIN rendering (`c.id = o.customer_id`).
    pub display: String,
}

/// One output item of a physical plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysItem {
    /// Pass-through column (projection, or the group key).
    Column {
        /// Table slot.
        slot: usize,
        /// Column ordinal.
        col: usize,
        /// Output display name.
        display: String,
    },
    /// Aggregate over a column (`None` = `COUNT(*)`).
    Aggregate {
        /// Function.
        kind: AggKind,
        /// Input `(slot, col)`; `None` only for COUNT(*).
        arg: Option<(usize, usize)>,
        /// Output display name.
        display: String,
    },
}

impl PhysItem {
    /// Output display name.
    pub fn display(&self) -> &str {
        match self {
            PhysItem::Column { display, .. } | PhysItem::Aggregate { display, .. } => display,
        }
    }

    /// Is this an aggregate item?
    pub fn is_aggregate(&self) -> bool {
        matches!(self, PhysItem::Aggregate { .. })
    }
}

/// A full physical query plan, ready for
/// [`Executor::execute_plan`](crate::exec::Executor::execute_plan).
///
/// How the executor should drive a plan's physical choices.
///
/// [`CostBased`](PlanHint::CostBased) — the default — lets the executor
/// consult the block-statistics layer ([`crate::stats`]): conjunctive
/// predicates run in estimated `selectivity × eval_cost` order with
/// sparse residual refinement, the hash join builds on the side with the
/// smaller estimated post-filter cardinality, and a merge join replaces
/// the hash join when both key columns are provably frozen-sorted.
///
/// [`SyntacticOrder`](PlanHint::SyntacticOrder) is the escape hatch and
/// equivalence oracle: predicates evaluate exactly as written, the join
/// always builds on slot 0, and no estimates are recorded. Both hints
/// must produce byte-identical rows — the test suite holds them to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanHint {
    /// Statistics-driven predicate ordering, join-side choice, and
    /// merge-join selection (the default).
    #[default]
    CostBased,
    /// Evaluate everything in the plan's written order — the
    /// cost-model-free oracle path.
    SyntacticOrder,
}

/// The shape mirrors the operator pipeline bottom-up: per-slot scans
/// (selection masks), optional hash join, projection or (grouped)
/// aggregation over the surviving selection, then sort + limit.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Per-slot scans; 1 or 2 entries.
    pub scans: Vec<PhysScan>,
    /// Optional equi-join (requires 2 scans).
    pub join: Option<JoinSpec>,
    /// Output items.
    pub items: Vec<PhysItem>,
    /// Group key `(slot, col, display)`.
    pub group_by: Option<(usize, usize, String)>,
    /// Sort: output item index + direction.
    pub order_by: Option<(usize, SortDir)>,
    /// Row cap.
    pub limit: Option<u64>,
    /// Cost-based execution, or the syntactic escape hatch.
    pub hint: PlanHint,
}

impl PhysicalPlan {
    /// Does the plan aggregate (grouped or global)?
    pub fn has_aggregates(&self) -> bool {
        self.group_by.is_some() || self.items.iter().any(PhysItem::is_aggregate)
    }

    /// The [`PlanTag`] slot `slot`'s scan will report, given its table
    /// (used for EXPLAIN; execution re-derives it from the actual path
    /// taken).
    pub fn scan_tag(&self, table: &Table) -> PlanTag {
        crate::exec::scan_tag(table)
    }

    /// Render the physical operator tree for EXPLAIN. With `tables`
    /// (slot-ordered) the access-path tags are resolved against the live
    /// storage tiers; without, the tags describe the plan shape only.
    pub fn explain(&self, tables: Option<&[&Table]>) -> String {
        self.render(tables, None)
    }

    /// Render the *executed* plan tree: the EXPLAIN shape annotated with
    /// the run's [`ExecStats`] — estimated vs. actual rows per stage
    /// (`est≈… act=…`), the predicate order the cost model actually ran
    /// (with each predicate's pruned full-block and refined frozen-block
    /// counts), the hash-join build side, and the merge-join operator
    /// when the statistics chose it.
    pub fn explain_executed(&self, tables: Option<&[&Table]>, stats: &ExecStats) -> String {
        self.render(tables, Some(stats))
    }

    fn render(&self, tables: Option<&[&Table]>, stats: Option<&ExecStats>) -> String {
        let tag = |slot: usize| -> String {
            match tables.and_then(|ts| ts.get(slot)) {
                Some(t) => format!(" plan={}", plan_tag_name(self.scan_tag(t))),
                None => String::new(),
            }
        };
        let mut lines: Vec<String> = Vec::new();
        if let Some(l) = self.limit {
            lines.push(format!("Limit {l}"));
        }
        if let Some((idx, dir)) = &self.order_by {
            lines.push(format!(
                "Sort {}{}",
                self.items[*idx].display(),
                if *dir == SortDir::Desc { " DESC" } else { "" }
            ));
        }
        if let Some((_, _, display)) = &self.group_by {
            lines.push(format!(
                "GroupBy {display} [vectorized hash, compressed-block fold]"
            ));
        } else if self.items.iter().any(PhysItem::is_aggregate) {
            lines.push("Aggregate [fused, zero-decode]".to_string());
        }
        let proj: Vec<&str> = self.items.iter().map(PhysItem::display).collect();
        lines.push(format!("Project {}", proj.join(", ")));

        let scan_line = |slot: usize| -> String {
            let scan = &self.scans[slot];
            let mut s = scan.label.clone();
            if !scan.preds.is_empty() {
                let filters: Vec<&str> = scan.preds.iter().map(|p| p.display.as_str()).collect();
                s.push_str(&format!(" filter: {}", filters.join(" AND ")));
                s.push_str(" [64-bit selection masks]");
            }
            s.push_str(&tag(slot));
            if let Some(st) = stats {
                let mut ps: Vec<_> = st.pred_stats.iter().filter(|p| p.slot == slot).collect();
                if ps.len() > 1 {
                    ps.sort_by_key(|p| p.exec_rank);
                    let order: Vec<String> = ps
                        .iter()
                        .map(|p| {
                            format!(
                                "{} (est≈{:.0}, pruned {}, refined {})",
                                p.display, p.est_rows, p.blocks_pruned, p.blocks_refined
                            )
                        })
                        .collect();
                    s.push_str(&format!(" cost-order: {}", order.join(" → ")));
                }
                if let Some(e) = st.stage_estimates.get(slot) {
                    s.push_str(&format!(" est≈{:.0} act={}", e.est_rows, e.actual_rows));
                }
            }
            s
        };

        let mut out = String::new();
        let mut depth = 0usize;
        for line in &lines {
            if depth == 0 {
                out.push_str(line);
            } else {
                out.push_str(&format!("\n{}└─ {line}", "   ".repeat(depth - 1)));
            }
            depth += 1;
        }
        if let Some(join) = &self.join {
            let tiered = tables.is_some_and(|ts| ts.iter().any(|t| t.has_frozen()));
            let merge = stats.is_some_and(|st| st.plan == PlanTag::MergeJoin);
            let mut jline = format!(
                "\n{}└─ {} {} [{}]",
                "   ".repeat(depth.saturating_sub(1)),
                if merge { "MergeJoin" } else { "HashJoin" },
                join.display,
                if merge {
                    "sorted frozen runs, no hash table"
                } else if tiered {
                    "tiered: compressed build/probe"
                } else {
                    "hash build/probe"
                }
            );
            if let Some(st) = stats {
                if let Some(b) = st.build_side {
                    jline.push_str(&format!(" build=slot{b}"));
                }
                if let Some(e) = st.stage_estimates.get(self.scans.len()) {
                    jline.push_str(&format!(" est≈{:.0} act={}", e.est_rows, e.actual_rows));
                }
            }
            out.push_str(&jline);
            out.push_str(&format!("\n{}├─ {}", "   ".repeat(depth), scan_line(0)));
            out.push_str(&format!("\n{}└─ {}", "   ".repeat(depth), scan_line(1)));
        } else {
            out.push_str(&format!(
                "\n{}└─ {}",
                "   ".repeat(depth.saturating_sub(1)),
                scan_line(0)
            ));
        }
        out
    }
}

/// Stable lowercase name of a [`PlanTag`] for EXPLAIN output.
pub fn plan_tag_name(tag: PlanTag) -> &'static str {
    match tag {
        PlanTag::FullScan => "full-scan",
        PlanTag::TieredScan => "tiered-scan",
        PlanTag::TieredJoin => "tiered-join",
        PlanTag::MergeJoin => "merge-join",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colpred_matches_and_negation() {
        let p = ColPred::range(0, 10, 20);
        assert!(p.matches(10) && p.matches(20) && !p.matches(21) && !p.matches(9));
        let mut n = ColPred::range(0, 10, 20);
        n.negated = true;
        assert!(!n.matches(15) && n.matches(9) && n.matches(21));
    }

    #[test]
    fn colpred_roundtrips_range_predicate() {
        let r = RangePredicate::new(5, 11);
        let p = ColPred::from_range(0, r);
        assert_eq!((p.lo, p.hi), (5, 10));
        assert!(ColPred::from_range(0, RangePredicate::new(7, 3)).is_empty_range());
        // Domain edge: inclusive hi == MAX has no half-open equivalent.
        let edge = ColPred::range(0, 0, Value::MAX);
        assert!(edge.matches(Value::MAX));
    }

    #[test]
    fn colpred_block_meta_pruning() {
        let meta = BlockMeta {
            min: 100,
            max: 200,
            active: 50,
        };
        assert!(ColPred::range(0, 150, 160).block_may_match(&meta));
        assert!(!ColPred::range(0, 300, 400).block_may_match(&meta));
        // Negated prunes only when the whole block sits inside the range.
        let mut n = ColPred::range(0, 50, 250);
        n.negated = true;
        assert!(!n.block_may_match(&meta), "all active values inside");
        let mut n2 = ColPred::range(0, 150, 160);
        n2.negated = true;
        assert!(n2.block_may_match(&meta));
        let dead = BlockMeta {
            min: 0,
            max: 0,
            active: 0,
        };
        assert!(!ColPred::range(0, 0, 0).block_may_match(&dead));
    }

    #[test]
    fn scalar_total_order_is_exact_above_2_53() {
        let a = Scalar::Int((1 << 53) + 1);
        let b = Scalar::Int((1 << 53) + 2);
        assert_eq!(a.total_cmp(&b), Ordering::Less, "f64 collapse would tie");
        assert_eq!(
            Scalar::Null.total_cmp(&Scalar::Float(f64::NEG_INFINITY)),
            Ordering::Less,
            "NULL sorts before a real -inf"
        );
        assert_eq!(
            Scalar::Int(3).total_cmp(&Scalar::Float(3.5)),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Float(3.0).total_cmp(&Scalar::Int(3)),
            Ordering::Equal
        );
        assert_eq!(
            Scalar::Int(i64::MAX).total_cmp(&Scalar::Float(9.3e18)),
            Ordering::Less
        );
        assert_eq!(
            Scalar::Int(i64::MIN).total_cmp(&Scalar::Float(-9.3e18)),
            Ordering::Greater
        );
    }

    #[test]
    fn finalize_widens_overflowing_sum() {
        let mut s = AggState::new();
        s.push(i64::MAX);
        s.push(i64::MAX);
        match finalize_scalar(&s, AggKind::Sum) {
            Scalar::Float(v) => assert!((v - 2.0 * i64::MAX as f64).abs() < 1e4),
            other => panic!("expected widened float, got {other:?}"),
        }
        let mut ok = AggState::new();
        ok.push(40);
        ok.push(2);
        assert_eq!(finalize_scalar(&ok, AggKind::Sum), Scalar::Int(42));
        assert_eq!(
            finalize_scalar(&AggState::new(), AggKind::Sum),
            Scalar::Null
        );
        assert_eq!(
            finalize_scalar(&AggState::new(), AggKind::Count),
            Scalar::Int(0)
        );
    }

    #[test]
    fn explain_renders_physical_tree() {
        let plan = PhysicalPlan {
            scans: vec![PhysScan {
                preds: vec![ColPred {
                    col: 1,
                    lo: 11,
                    hi: i64::MAX,
                    negated: false,
                    display: "orders.amount > 10".into(),
                }],
                label: "Scan orders [active-only]".into(),
            }],
            join: None,
            items: vec![PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "count(*)".into(),
            }],
            group_by: None,
            order_by: None,
            limit: None,
            hint: PlanHint::CostBased,
        };
        let text = plan.explain(None);
        assert!(text.contains("Aggregate"), "{text}");
        assert!(text.contains("Scan orders"), "{text}");
        assert!(text.contains("orders.amount > 10"), "{text}");
        assert!(text.contains("selection masks"), "{text}");
    }
}
