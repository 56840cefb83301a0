//! Helpers shared by the integration suites.

// Each suite uses its own subset of these helpers.
#![allow(dead_code)]

use amnesia::columnar::{RowId, Table};
use amnesia::engine::batch::{scan_tiered_active_into, TierStats};
use amnesia::engine::exec::ExecStats;
use amnesia::engine::physical::JoinSpec;
use amnesia::engine::{ColPred, Executor, PhysItem, PhysScan, PhysicalPlan, PlanHint};
use amnesia::sql::plan::{BoundFilter, Catalog as SqlCatalog};
use amnesia::sql::{bind, parse, run_with, Datum, QueryOutcome, Statement};
use amnesia::workload::query::RangePredicate;
use amnesia::workload::AggKind;
use amnesia_model::{eval_plan, passes, Case};

/// `ExecStats` without the scheduler's own accounting, which is the one
/// part allowed to differ between pool widths, morsel sizes and runs.
pub fn planned(stats: &ExecStats) -> ExecStats {
    ExecStats {
        morsels: 0,
        morsel_steals: 0,
        merge_ns: 0,
        ..stats.clone()
    }
}

/// Active rows of column 0 of `t` in `pred` through the tiered scan
/// kernel, with the kernel's accounting.
pub fn scan(t: &Table, pred: RangePredicate) -> (Vec<RowId>, TierStats) {
    let mut rows = Vec::new();
    let stats = scan_tiered_active_into(t.col_tier(0), t.activity_words(), pred, &mut rows);
    (rows, stats)
}

/// Output item: column `col` of scan slot `slot`.
pub fn col(slot: usize, col: usize) -> PhysItem {
    PhysItem::Column {
        slot,
        col,
        display: format!("s{slot}c{col}"),
    }
}

/// Output item: `kind` over column `(slot, col)`, or `COUNT(*)` for `None`.
pub fn agg(kind: AggKind, arg: Option<(usize, usize)>) -> PhysItem {
    PhysItem::Aggregate {
        kind,
        arg,
        display: kind.name().into(),
    }
}

/// A cost-based plan scanning one table per entry of `scans` (each a
/// predicate conjunction), emitting `items`; with two scans, `join`
/// names the equi-joined columns of slot 0 and slot 1.
pub fn plan(
    scans: Vec<Vec<ColPred>>,
    join: Option<(usize, usize)>,
    items: Vec<PhysItem>,
) -> PhysicalPlan {
    PhysicalPlan {
        scans: scans
            .into_iter()
            .enumerate()
            .map(|(slot, preds)| PhysScan {
                preds,
                label: format!("Scan s{slot} [active-only]"),
            })
            .collect(),
        join: join.map(|(left_col, right_col)| JoinSpec {
            left_col,
            right_col,
            display: format!("s0c{left_col} = s1c{right_col}"),
        }),
        items,
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    }
}

/// Named tables, each with its model, as SQL resolves them.
pub struct Catalog(pub Vec<(&'static str, Case)>);

impl SqlCatalog for Catalog {
    fn resolve(&self, name: &str) -> Option<&Table> {
        self.case(name).map(|c| &c.table)
    }

    fn table_names(&self) -> Vec<String> {
        self.0.iter().map(|(n, _)| n.to_string()).collect()
    }
}

impl Catalog {
    fn case(&self, name: &str) -> Option<&Case> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, c)| c)
    }

    /// The rows `sql` returns through `executor`.
    pub fn run(&self, sql: &str, executor: &Executor) -> Vec<Vec<Datum>> {
        match run_with(self, sql, executor).unwrap() {
            QueryOutcome::Rows(rs) => rs.rows,
            QueryOutcome::Plan(p) => panic!("unexpected plan {p}"),
        }
    }

    /// The model's rows for `sql`: the statement bound against this
    /// catalog and lowered to its plan, evaluated over the models of the
    /// tables it names. The lowering is checked on its own first: every
    /// lowered filter passes exactly the values its SQL comparison does,
    /// at the `i64` edges and on both sides of each literal.
    pub fn want(&self, sql: &str) -> Vec<Vec<Datum>> {
        let Statement::Select(select) = parse(sql).unwrap() else {
            panic!("not a SELECT: {sql}");
        };
        let q = bind(self, &select).unwrap();
        for f in &q.filters {
            let lowered = f.lower();
            let literals = match f {
                BoundFilter::Compare { value, .. } => vec![*value],
                BoundFilter::Between { lo, hi, .. } => vec![*lo, *hi],
            };
            let probes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX]
                .into_iter()
                .chain(
                    literals
                        .iter()
                        .flat_map(|&l| [l.saturating_sub(1), l, l.saturating_add(1)]),
                );
            for v in probes {
                assert_eq!(
                    passes(&lowered, v),
                    f.matches(v),
                    "lowered `{}` at {v}",
                    f.describe()
                );
            }
        }
        let models: Vec<_> = q
            .tables
            .iter()
            .map(|(name, _)| &self.case(name).expect("bound").model)
            .collect();
        eval_plan(&models, &q.lower())
    }
}
