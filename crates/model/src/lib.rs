//! A row-at-a-time model of amnesiac tables: the one reference the
//! equivalence suites hold every tier layout, codec, pool width and plan
//! hint to.
//!
//! The paper's contract (§1) is two sentences: a forgotten tuple "will
//! never show up in query results", and "a complete scan will fetch all
//! data". A [`Model`] is that contract and nothing more: a `Vec` of rows,
//! each with its values, an active flag and what became of its values. A
//! table's history is a list of [`Op`]s; [`Model::apply`] runs them on the
//! rows, and [`Case::apply`] runs each on a real
//! [`Table`](amnesia_columnar::Table) and on its model side by side.
//! [`gen`] draws such histories from a seed, holds a law to every step,
//! and shrinks a failing one.
//!
//! Evaluation — [`Model::query`] for the paper's single-column [`Query`]
//! algebra, [`eval_plan`] for a [`PhysicalPlan`], [`join_pairs`] for the
//! free-standing join — reads only those rows: no table, no codec, no
//! engine kernel. It uses the engine's and the workload's types and none
//! of their functions, so a bug in the code under test cannot hide in
//! its reference. The answers come in the engine's documented orders:
//!
//! * scans return rows ascending;
//! * groups come in first-seen order;
//! * join pairs are right-major: right row ascending, then left row;
//! * `ORDER BY` is a stable sort, and `LIMIT` cuts after it;
//! * `SUM` widens to `Float` past `i64`; an aggregate over an empty
//!   selection is NULL, and `COUNT` is 0.
//!
//! Plans run under active-only visibility. A [`Query`] runs under a
//! [`ForgetVisibility`]: the complete scan sees forgotten rows, but not
//! the rows of dropped blocks, and aggregates stay amnesiac.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use amnesia_columnar::compress::Encoding;
use amnesia_columnar::RowId;
use amnesia_engine::{
    ColPred, ForgetVisibility, PhysItem, PhysicalPlan, QueryOutput, Scalar, SortDir,
};
use amnesia_workload::{AggKind, Query};

mod case;
pub mod gen;

pub use case::Case;

/// One attribute value.
pub type Value = i64;

/// One step of a table's history.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Append rows, one value per column each.
    Insert(Vec<Vec<Value>>),
    /// Forget rows by id; a row already forgotten stays as it is.
    Forget(Vec<usize>),
    /// Freeze every full block below this row.
    FreezeUpto(usize),
    /// Pin (`Some`) or unpin (`None`) the freeze codec of a column.
    Pin(usize, Option<Encoding>),
    /// Recompress the frozen blocks whose active share fell to this
    /// fraction or below.
    Recompress(f64),
    /// Drop every fully forgotten frozen block.
    Drop,
    /// Compact to the active rows, renumbered from zero.
    Vacuum,
}

impl Op {
    /// Insert `values` into a single-column table, one row each.
    pub fn column(values: &[Value]) -> Op {
        Op::Insert(values.iter().map(|&v| vec![v]).collect())
    }
}

/// What became of a row's values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Still stored as inserted.
    Held,
    /// Forgotten and then rewritten by a recompression: the values are
    /// gone, and nothing says what the storage now holds in their place.
    Squashed,
    /// In a dropped block: the values are gone, and no scan returns it.
    Dropped,
}

#[derive(Debug, Clone)]
struct Row {
    values: Vec<Value>,
    active: bool,
    fate: Fate,
}

/// The rows of one table, their activity, and the tier layout only as
/// far as the layout decides what is forgotten for good: which blocks are
/// frozen, and so which can drop or recompress.
#[derive(Debug, Clone)]
pub struct Model {
    block_rows: usize,
    rows: Vec<Row>,
    frozen: usize,
}

impl Model {
    /// An empty table whose tier blocks hold `block_rows` rows.
    pub fn new(block_rows: usize) -> Self {
        Self {
            block_rows,
            rows: Vec::new(),
            frozen: 0,
        }
    }

    /// Rows ever inserted (since the last vacuum), forgotten ones too.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True before the first insert.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows still active.
    pub fn active_len(&self) -> usize {
        self.rows.iter().filter(|r| r.active).count()
    }

    /// Does every row a complete scan returns still hold its inserted
    /// values? False once a recompression rewrote forgotten values: what
    /// the storage holds for them then depends on the codec, and a
    /// complete scan over them has no defined answer. Active-only answers
    /// are defined after every op.
    pub fn complete_scan_is_defined(&self) -> bool {
        self.rows.iter().all(|r| r.fate != Fate::Squashed)
    }

    /// Run one op of the history.
    pub fn apply(&mut self, op: &Op) {
        let br = self.block_rows;
        match op {
            Op::Insert(rows) => self.rows.extend(rows.iter().map(|values| Row {
                values: values.clone(),
                active: true,
                fate: Fate::Held,
            })),
            Op::Forget(ids) => {
                for &r in ids {
                    self.rows[r].active = false;
                }
            }
            Op::FreezeUpto(row) => self.frozen = self.frozen.max((*row).min(self.len()) / br),
            Op::Pin(..) => {}
            Op::Recompress(share) => {
                for block in self.rows[..self.frozen * br].chunks_mut(br) {
                    let active = block.iter().filter(|r| r.active).count();
                    if active as f64 > share * br as f64 {
                        continue;
                    }
                    for row in block
                        .iter_mut()
                        .filter(|r| !r.active && r.fate == Fate::Held)
                    {
                        row.fate = Fate::Squashed;
                    }
                }
            }
            Op::Drop => {
                for block in self.rows[..self.frozen * br].chunks_mut(br) {
                    if block.iter().all(|r| !r.active) {
                        for row in block {
                            row.fate = Fate::Dropped;
                        }
                    }
                }
            }
            Op::Vacuum => {
                self.rows.retain(|r| r.active);
                self.frozen = 0;
            }
        }
    }

    /// Ids of the rows `vis` lets a scan see.
    fn visible(&self, vis: ForgetVisibility) -> impl Iterator<Item = usize> + '_ {
        let complete = matches!(vis, ForgetVisibility::ScanSeesForgotten);
        assert!(
            !complete || self.complete_scan_is_defined(),
            "a complete scan over recompressed forgotten rows has no defined answer"
        );
        self.rows
            .iter()
            .enumerate()
            .filter(move |(_, r)| {
                if complete {
                    r.fate != Fate::Dropped
                } else {
                    r.active
                }
            })
            .map(|(i, _)| i)
    }

    fn value(&self, row: usize, col: usize) -> Value {
        self.rows[row].values[col]
    }

    /// The answer to `query` over column `col` under `vis`: matching row
    /// ids ascending for `Range` (half-open) and `Point`, the aggregate
    /// over active rows for `Aggregate` (`None` for an empty selection,
    /// except `COUNT`, which is 0).
    pub fn query(&self, col: usize, query: &Query, vis: ForgetVisibility) -> QueryOutput {
        let rows = |keep: &dyn Fn(Value) -> bool| {
            self.visible(vis)
                .filter(|&r| keep(self.value(r, col)))
                .map(|r| RowId(r as u64))
                .collect()
        };
        match *query {
            Query::Range(p) => QueryOutput::Rows(rows(&|v| p.lo <= v && v < p.hi)),
            Query::Point(x) => QueryOutput::Rows(rows(&|v| v == x)),
            Query::Aggregate { kind, predicate } => {
                let mut acc = Acc::default();
                for r in self.visible(ForgetVisibility::ActiveOnly) {
                    let v = self.value(r, col);
                    if predicate.is_none_or(|p| p.lo <= v && v < p.hi) {
                        acc.push(v);
                    }
                }
                QueryOutput::Agg(acc.to_f64(kind))
            }
        }
    }
}

/// The pairs of the equi-join `left.lcol = right.rcol` over the rows
/// `vis` lets each side see, right-major.
pub fn join_pairs(
    left: &Model,
    lcol: usize,
    right: &Model,
    rcol: usize,
    vis: ForgetVisibility,
) -> Vec<(RowId, RowId)> {
    let lrows: Vec<usize> = left.visible(vis).collect();
    let rrows: Vec<usize> = right.visible(vis).collect();
    pairs(left, lcol, &lrows, right, rcol, &rrows)
        .into_iter()
        .map(|(l, r)| (RowId(l as u64), RowId(r as u64)))
        .collect()
}

/// Equal-key pairs of two row lists, right-major.
fn pairs(
    left: &Model,
    lcol: usize,
    lrows: &[usize],
    right: &Model,
    rcol: usize,
    rrows: &[usize],
) -> Vec<(usize, usize)> {
    let mut by_key: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
    for &l in lrows {
        by_key.entry(left.value(l, lcol)).or_default().push(l);
    }
    let mut out = Vec::new();
    for &r in rrows {
        for &l in by_key.get(&right.value(r, rcol)).into_iter().flatten() {
            out.push((l, r));
        }
    }
    out
}

/// Does `v` pass the pushed-down predicate (inclusive, maybe negated)?
pub fn passes(p: &ColPred, v: Value) -> bool {
    (p.lo <= v && v <= p.hi) != p.negated
}

/// The rows `plan` returns over `tables` (one per scan slot), under
/// active-only visibility.
pub fn eval_plan(tables: &[&Model], plan: &PhysicalPlan) -> Vec<Vec<Scalar>> {
    assert_eq!(tables.len(), plan.scans.len(), "one table per scan slot");
    let selected: Vec<Vec<usize>> = plan
        .scans
        .iter()
        .zip(tables)
        .map(|(scan, t)| {
            t.visible(ForgetVisibility::ActiveOnly)
                .filter(|&r| scan.preds.iter().all(|p| passes(p, t.value(r, p.col))))
                .collect()
        })
        .collect();
    // One tuple per row before aggregation: the slot-0 row, and under a
    // join the slot-1 row it pairs with.
    let tuples: Vec<[usize; 2]> = match &plan.join {
        None => selected[0].iter().map(|&r| [r, 0]).collect(),
        Some(j) => pairs(
            tables[0],
            j.left_col,
            &selected[0],
            tables[1],
            j.right_col,
            &selected[1],
        )
        .into_iter()
        .map(|(l, r)| [l, r])
        .collect(),
    };
    let value = |slot: usize, col: usize, t: &[usize; 2]| tables[slot].value(t[slot], col);
    let aggregates = plan.group_by.is_some()
        || plan
            .items
            .iter()
            .any(|i| matches!(i, PhysItem::Aggregate { .. }));
    let mut rows: Vec<Vec<Scalar>> = if aggregates {
        let fresh = || vec![Acc::default(); plan.items.len()];
        let mut keys: Vec<Option<Value>> = Vec::new();
        let mut accs: Vec<Vec<Acc>> = Vec::new();
        let mut group_of: BTreeMap<Value, usize> = BTreeMap::new();
        if plan.group_by.is_none() {
            keys.push(None);
            accs.push(fresh());
        }
        for t in &tuples {
            let g = match &plan.group_by {
                None => 0,
                Some((slot, col, _)) => {
                    let key = value(*slot, *col, t);
                    *group_of.entry(key).or_insert_with(|| {
                        keys.push(Some(key));
                        accs.push(fresh());
                        keys.len() - 1
                    })
                }
            };
            for (item, acc) in plan.items.iter().zip(&mut accs[g]) {
                match item {
                    PhysItem::Aggregate {
                        arg: Some((slot, col)),
                        ..
                    } => acc.push(value(*slot, *col, t)),
                    PhysItem::Aggregate { arg: None, .. } => acc.count += 1,
                    PhysItem::Column { .. } => {}
                }
            }
        }
        keys.into_iter()
            .zip(accs)
            .map(|(key, accs)| {
                plan.items
                    .iter()
                    .zip(accs)
                    .map(|(item, acc)| match item {
                        PhysItem::Column { .. } => Scalar::Int(
                            key.expect("a plain column of an aggregate is its group key"),
                        ),
                        PhysItem::Aggregate { kind, .. } => acc.to_scalar(*kind),
                    })
                    .collect()
            })
            .collect()
    } else {
        tuples
            .iter()
            .map(|t| {
                plan.items
                    .iter()
                    .map(|item| match item {
                        PhysItem::Column { slot, col, .. } => Scalar::Int(value(*slot, *col, t)),
                        PhysItem::Aggregate { .. } => {
                            unreachable!("projections have no aggregates")
                        }
                    })
                    .collect()
            })
            .collect()
    };
    if let Some((idx, dir)) = plan.order_by {
        let desc = matches!(dir, SortDir::Desc);
        rows.sort_by(|a, b| {
            let ord = order(&a[idx], &b[idx]);
            if desc {
                ord.reverse()
            } else {
                ord
            }
        });
    }
    if let Some(limit) = plan.limit {
        rows.truncate(usize::try_from(limit).unwrap_or(usize::MAX));
    }
    rows
}

/// One aggregate's running state: COUNT, an `i128` SUM no `i64` input
/// can overflow, MIN and MAX.
#[derive(Debug, Clone, Copy)]
struct Acc {
    count: u64,
    sum: i128,
    min: Value,
    max: Value,
}

impl Default for Acc {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: Value::MAX,
            max: Value::MIN,
        }
    }
}

impl Acc {
    fn push(&mut self, v: Value) {
        self.count += 1;
        self.sum += i128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The plan form: `SUM` stays an `Int` while the total fits `i64`.
    fn to_scalar(self, kind: AggKind) -> Scalar {
        if self.count == 0 {
            return match kind {
                AggKind::Count => Scalar::Int(0),
                _ => Scalar::Null,
            };
        }
        match kind {
            AggKind::Count => Scalar::Int(self.count as i64),
            AggKind::Sum => {
                i64::try_from(self.sum).map_or(Scalar::Float(self.sum as f64), Scalar::Int)
            }
            AggKind::Avg => Scalar::Float(self.sum as f64 / self.count as f64),
            AggKind::Min => Scalar::Int(self.min),
            AggKind::Max => Scalar::Int(self.max),
        }
    }

    /// The workload form: every kind as `f64`.
    fn to_f64(self, kind: AggKind) -> Option<f64> {
        match kind {
            AggKind::Count => Some(self.count as f64),
            _ if self.count == 0 => None,
            AggKind::Sum => Some(self.sum as f64),
            AggKind::Avg => Some(self.sum as f64 / self.count as f64),
            AggKind::Min => Some(self.min as f64),
            AggKind::Max => Some(self.max as f64),
        }
    }
}

/// The order `ORDER BY` sorts by: NULL first, then numbers by value.
/// `Int` against `Float` is exact: the float splits into its integral
/// part and its fraction, and no integer is rounded through `f64`. NaN
/// sorts after every integer.
fn order(a: &Scalar, b: &Scalar) -> Ordering {
    match (a, b) {
        (Scalar::Null, Scalar::Null) => Ordering::Equal,
        (Scalar::Null, _) => Ordering::Less,
        (_, Scalar::Null) => Ordering::Greater,
        (Scalar::Int(x), Scalar::Int(y)) => x.cmp(y),
        (Scalar::Float(x), Scalar::Float(y)) => x.total_cmp(y),
        (Scalar::Int(x), Scalar::Float(y)) => int_vs_float(*x, *y),
        (Scalar::Float(x), Scalar::Int(y)) => int_vs_float(*y, *x).reverse(),
    }
}

fn int_vs_float(i: Value, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Less;
    }
    let whole = f.trunc();
    // `as` saturates past the i128 range, which keeps the order there.
    i128::from(i)
        .cmp(&(whole as i128))
        .then(whole.partial_cmp(&f).expect("not NaN"))
}

/// The model's own semantics, pinned by answers worked out by hand.
#[cfg(test)]
mod tests {
    use amnesia_engine::physical::PhysScan;
    use amnesia_engine::PlanHint;
    use amnesia_workload::RangePredicate;

    use super::*;

    const ACTIVE: ForgetVisibility = ForgetVisibility::ActiveOnly;
    const COMPLETE: ForgetVisibility = ForgetVisibility::ScanSeesForgotten;

    fn model(block_rows: usize, history: &[Op]) -> Model {
        let mut m = Model::new(block_rows);
        for op in history {
            m.apply(op);
        }
        m
    }

    fn rows(ids: &[u64]) -> QueryOutput {
        QueryOutput::Rows(ids.iter().map(|&r| RowId(r)).collect())
    }

    fn col(col: usize) -> PhysItem {
        PhysItem::Column {
            slot: 0,
            col,
            display: String::new(),
        }
    }

    fn agg(kind: AggKind, arg: Option<usize>) -> PhysItem {
        PhysItem::Aggregate {
            kind,
            arg: arg.map(|c| (0, c)),
            display: String::new(),
        }
    }

    /// One scan of `preds` emitting `items`.
    fn plan(preds: Vec<ColPred>, items: Vec<PhysItem>) -> PhysicalPlan {
        PhysicalPlan {
            scans: vec![PhysScan {
                preds,
                label: String::new(),
            }],
            join: None,
            items,
            group_by: None,
            order_by: None,
            limit: None,
            hint: PlanHint::default(),
        }
    }

    #[test]
    fn the_i64_edges_are_ordinary_values() {
        let m = model(4, &[Op::column(&[i64::MIN, -1, 0, i64::MAX, i64::MAX])]);
        let point = Query::Point(i64::MAX);
        assert_eq!(m.query(0, &point, ACTIVE), rows(&[3, 4]));
        assert_eq!(m.query(0, &Query::Point(i64::MIN), ACTIVE), rows(&[0]));
        // Half-open: `i64::MAX` itself lies outside `[MIN, MAX)`.
        let whole = Query::Range(RangePredicate::new(i64::MIN, i64::MAX));
        assert_eq!(m.query(0, &whole, ACTIVE), rows(&[0, 1, 2]));
        // Inclusive: `[0, MAX]` holds it.
        let p = plan(vec![ColPred::range(0, 0, i64::MAX)], vec![col(0)]);
        let want = [0, i64::MAX, i64::MAX].map(|v| vec![Scalar::Int(v)]);
        assert_eq!(eval_plan(&[&m], &p), want);
        let p = plan(
            vec![],
            vec![agg(AggKind::Min, Some(0)), agg(AggKind::Max, Some(0))],
        );
        assert_eq!(
            eval_plan(&[&m], &p),
            [[Scalar::Int(i64::MIN), Scalar::Int(i64::MAX)]]
        );
    }

    #[test]
    fn a_sum_past_i64_widens_to_float() {
        let m = model(4, &[Op::column(&[i64::MAX, i64::MAX])]);
        let sum = plan(vec![], vec![agg(AggKind::Sum, Some(0))]);
        // 2 · (2^63 − 1) = 2^64 − 2, which rounds to 2^64.
        assert_eq!(
            eval_plan(&[&m], &sum),
            [[Scalar::Float(18_446_744_073_709_551_616.0)]]
        );
        let q = Query::Aggregate {
            kind: AggKind::Sum,
            predicate: None,
        };
        assert_eq!(
            m.query(0, &q, ACTIVE),
            QueryOutput::Agg(Some(18_446_744_073_709_551_616.0))
        );
        // Only the total decides: MAX + 1 − 1 passes 2^63 and comes back.
        let m = model(4, &[Op::column(&[i64::MAX, 1, -1])]);
        assert_eq!(eval_plan(&[&m], &sum), [[Scalar::Int(i64::MAX)]]);
    }

    #[test]
    fn an_empty_selection_is_null_but_counts_zero() {
        let m = model(4, &[Op::column(&[1, 2, 3])]);
        let items = vec![
            agg(AggKind::Count, None),
            agg(AggKind::Count, Some(0)),
            agg(AggKind::Sum, Some(0)),
            agg(AggKind::Avg, Some(0)),
            agg(AggKind::Min, Some(0)),
            agg(AggKind::Max, Some(0)),
        ];
        let none = plan(vec![ColPred::range(0, 10, 20)], items);
        let want = [
            Scalar::Int(0),
            Scalar::Int(0),
            Scalar::Null,
            Scalar::Null,
            Scalar::Null,
            Scalar::Null,
        ];
        assert_eq!(eval_plan(&[&m], &none), [want]);
        let grouped = PhysicalPlan {
            group_by: Some((0, 0, String::new())),
            ..none
        };
        assert!(eval_plan(&[&m], &grouped).is_empty(), "no rows, no groups");
        for (kind, want) in [
            (AggKind::Count, Some(0.0)),
            (AggKind::Avg, None),
            (AggKind::Sum, None),
        ] {
            let q = Query::Aggregate {
                kind,
                predicate: Some(RangePredicate::new(10, 20)),
            };
            assert_eq!(m.query(0, &q, ACTIVE), QueryOutput::Agg(want), "{kind:?}");
        }
    }

    #[test]
    fn descending_ties_keep_row_order_and_limit_zero_is_empty() {
        let m = model(
            4,
            &[Op::Insert(vec![
                vec![1, 10],
                vec![2, 20],
                vec![1, 30],
                vec![2, 40],
            ])],
        );
        let sorted = PhysicalPlan {
            order_by: Some((0, SortDir::Desc)),
            ..plan(vec![], vec![col(0), col(1)])
        };
        let want = [[2, 20], [2, 40], [1, 10], [1, 30]].map(|r| r.map(Scalar::Int).to_vec());
        assert_eq!(eval_plan(&[&m], &sorted), want);
        let top = |k| PhysicalPlan {
            limit: Some(k),
            ..sorted.clone()
        };
        assert!(eval_plan(&[&m], &top(0)).is_empty());
        assert_eq!(eval_plan(&[&m], &top(3)), want[..3]);
        // NULL sorts first, and a fraction orders an AVG beside an integer.
        assert_eq!(
            order(&Scalar::Null, &Scalar::Float(f64::NEG_INFINITY)),
            Ordering::Less
        );
        assert_eq!(order(&Scalar::Int(3), &Scalar::Float(3.5)), Ordering::Less);
        assert_eq!(
            order(&Scalar::Int(-3), &Scalar::Float(-3.5)),
            Ordering::Greater
        );
        assert_eq!(order(&Scalar::Float(3.0), &Scalar::Int(3)), Ordering::Equal);
        assert_eq!(
            order(&Scalar::Int(i64::MAX), &Scalar::Float(9.3e18)),
            Ordering::Less
        );
    }

    #[test]
    fn a_dropped_block_is_missing_from_the_complete_scan() {
        let m = model(
            4,
            &[
                Op::column(&[5, 5, 5, 5, 5, 6, 5, 7, 5]),
                Op::Forget(vec![0, 1, 2, 3, 5, 8]),
                Op::FreezeUpto(9),
                Op::Drop,
            ],
        );
        // Block 0 (rows 0–3) dropped; forgotten rows 5 (frozen) and 8
        // (hot) still hold their values.
        let all = Query::Range(RangePredicate::new(0, 10));
        assert_eq!(m.query(0, &all, COMPLETE), rows(&[4, 5, 6, 7, 8]));
        assert_eq!(m.query(0, &all, ACTIVE), rows(&[4, 6, 7]));
        assert_eq!(m.query(0, &Query::Point(5), COMPLETE), rows(&[4, 6, 8]));
        let truth = join_pairs(&m, 0, &m, 0, COMPLETE);
        assert_eq!(truth.len(), 3 * 3 + 1 + 1, "5s pair among rows 4, 6, 8");
        assert!(truth.iter().all(|&(l, r)| l.0 >= 4 && r.0 >= 4));
        // Aggregates stay amnesiac under the complete scan.
        let count = Query::Aggregate {
            kind: AggKind::Count,
            predicate: None,
        };
        assert_eq!(m.query(0, &count, COMPLETE), QueryOutput::Agg(Some(3.0)));
        assert!(m.complete_scan_is_defined());
        let mut squashed = m.clone();
        squashed.apply(&Op::Recompress(0.75));
        assert!(
            !squashed.complete_scan_is_defined(),
            "row 5's value was rewritten"
        );
    }

    #[test]
    fn a_vacuum_renumbers_the_survivors() {
        let m = model(
            4,
            &[
                Op::column(&[10, 20, 30, 40, 50]),
                Op::Forget(vec![1, 3]),
                Op::FreezeUpto(4),
                Op::Vacuum,
            ],
        );
        assert_eq!((m.len(), m.active_len()), (3, 3));
        let all = Query::Range(RangePredicate::new(0, 100));
        assert_eq!(m.query(0, &all, COMPLETE), rows(&[0, 1, 2]));
        assert_eq!(m.query(0, &Query::Point(50), ACTIVE), rows(&[2]));
        let values = eval_plan(&[&m], &plan(vec![], vec![col(0)]));
        assert_eq!(values, [10, 30, 50].map(|v| vec![Scalar::Int(v)]));
    }

    #[test]
    fn join_pairs_are_right_major() {
        let l = model(4, &[Op::column(&[1, 2, 1])]);
        let r = model(4, &[Op::column(&[2, 1, 1]), Op::Forget(vec![2])]);
        let pairs = |vis| -> Vec<(u64, u64)> {
            join_pairs(&l, 0, &r, 0, vis)
                .iter()
                .map(|p| (p.0 .0, p.1 .0))
                .collect()
        };
        assert_eq!(pairs(ACTIVE), [(1, 0), (0, 1), (2, 1)]);
        assert_eq!(pairs(COMPLETE), [(1, 0), (0, 1), (2, 1), (0, 2), (2, 2)]);
    }
}
