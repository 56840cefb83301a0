//! Name resolution, logical planning, and lowering onto the engine's
//! physical plan.
//!
//! The binder resolves a parsed [`Select`] against a [`Catalog`] into a
//! [`BoundQuery`]: table slots (0 = FROM, 1 = JOIN), column ordinals, and
//! an output schema. Binding catches every name error with a span before
//! execution starts, so the executor never sees an unresolved name.
//!
//! [`BoundQuery::lower`] then translates the bound query into an
//! [`amnesia_engine::PhysicalPlan`] — WHERE conjuncts become pushed-down
//! [`ColPred`]s evaluated as 64-bit selection masks, the join becomes a
//! tiered hash join, projections and aggregates become plan items — so
//! SQL executes on exactly the vectorized, compressed, tier-aware
//! operator layer the engine benches measure:
//!
//! ```text
//! SQL text ─parse─► Select ─bind─► BoundQuery ─lower─► PhysicalPlan
//!                                                        │ execute_plan
//!                                                        ▼
//!                                              rows + unified ExecStats
//! ```

use crate::ast::{AggFunc, CmpOp, ColumnRef, Select, SelectItem, SortOrder};
use crate::error::{SqlError, SqlResult};
use amnesia_columnar::{Database, Table};
use amnesia_engine::physical::{
    ColPred, JoinSpec, PhysItem, PhysScan, PhysicalPlan, PlanHint, SortDir,
};
use amnesia_workload::query::AggKind;

/// Read-only name resolution surface the planner binds against.
pub trait Catalog {
    /// Table handle by name, if it exists.
    fn resolve(&self, name: &str) -> Option<&Table>;

    /// All table names (for error messages).
    fn table_names(&self) -> Vec<String>;
}

impl Catalog for Database {
    fn resolve(&self, name: &str) -> Option<&Table> {
        self.table_id(name).map(|id| self.table(id))
    }

    fn table_names(&self) -> Vec<String> {
        (0..self.num_tables())
            .filter_map(|id| {
                // Database keeps names internally; recover via table_id
                // round-trip is impossible, so expose through ids.
                self.table_name(id).map(str::to_string)
            })
            .collect()
    }
}

/// A resolved column: which joined input (slot) and which column ordinal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundColumn {
    /// 0 = FROM table, 1 = JOIN table.
    pub slot: usize,
    /// Column ordinal within the slot's table.
    pub col: usize,
    /// Qualified display name (`binding.column`).
    pub display: String,
}

/// A resolved filter: evaluated against one slot during its scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundFilter {
    /// `col op literal`.
    Compare {
        /// Filtered column.
        col: BoundColumn,
        /// Operator.
        op: CmpOp,
        /// Literal.
        value: i64,
    },
    /// `col BETWEEN lo AND hi`, both inclusive.
    Between {
        /// Filtered column.
        col: BoundColumn,
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
}

impl BoundFilter {
    /// The filtered column.
    pub fn column(&self) -> &BoundColumn {
        match self {
            BoundFilter::Compare { col, .. } | BoundFilter::Between { col, .. } => col,
        }
    }

    /// Does `v` pass?
    pub fn matches(&self, v: i64) -> bool {
        match self {
            BoundFilter::Compare { op, value, .. } => op.eval(v, *value),
            BoundFilter::Between { lo, hi, .. } => v >= *lo && v <= *hi,
        }
    }

    /// Human-readable rendering for EXPLAIN.
    pub fn describe(&self) -> String {
        match self {
            BoundFilter::Compare { col, op, value } => {
                format!("{} {} {}", col.display, op.as_str(), value)
            }
            BoundFilter::Between { col, lo, hi } => {
                format!("{} BETWEEN {} AND {}", col.display, lo, hi)
            }
        }
    }

    /// Lower to a physical pushed-down predicate: every comparison
    /// becomes an *inclusive* value range (possibly negated for `<>`),
    /// exact across the whole `i64` domain, carrying the EXPLAIN
    /// rendering along.
    pub fn lower(&self) -> ColPred {
        let display = self.describe();
        match self {
            BoundFilter::Compare { col, op, value } => {
                let (lo, hi, negated) = match op {
                    CmpOp::Eq => (*value, *value, false),
                    CmpOp::Neq => (*value, *value, true),
                    CmpOp::Lt => match value.checked_sub(1) {
                        Some(hi) => (i64::MIN, hi, false),
                        None => (0, -1, false), // `< i64::MIN` is empty
                    },
                    CmpOp::Le => (i64::MIN, *value, false),
                    CmpOp::Gt => match value.checked_add(1) {
                        Some(lo) => (lo, i64::MAX, false),
                        None => (0, -1, false), // `> i64::MAX` is empty
                    },
                    CmpOp::Ge => (*value, i64::MAX, false),
                };
                ColPred {
                    col: col.col,
                    lo,
                    hi,
                    negated,
                    display,
                }
            }
            BoundFilter::Between { col, lo, hi } => ColPred {
                col: col.col,
                lo: *lo,
                hi: *hi,
                negated: false,
                display,
            },
        }
    }
}

/// Map a SQL aggregate function onto the engine's aggregate kind.
fn lower_func(func: AggFunc) -> AggKind {
    match func {
        AggFunc::Count => AggKind::Count,
        AggFunc::Sum => AggKind::Sum,
        AggFunc::Avg => AggKind::Avg,
        AggFunc::Min => AggKind::Min,
        AggFunc::Max => AggKind::Max,
    }
}

/// A resolved projection item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundItem {
    /// Pass-through column.
    Column(BoundColumn),
    /// Aggregate over a column (`None` = COUNT(*)).
    Aggregate {
        /// Function.
        func: AggFunc,
        /// Input column.
        arg: Option<BoundColumn>,
        /// Output column name.
        name: String,
    },
}

impl BoundItem {
    /// Output column name.
    pub fn name(&self) -> &str {
        match self {
            BoundItem::Column(c) => &c.display,
            BoundItem::Aggregate { name, .. } => name,
        }
    }

    /// Is this an aggregate?
    pub fn is_aggregate(&self) -> bool {
        matches!(self, BoundItem::Aggregate { .. })
    }
}

/// A fully resolved query, ready to execute.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// `(catalog table name, binding name)` per slot; 1 or 2 entries.
    pub tables: Vec<(String, String)>,
    /// Equi-join columns, one per side; `left.slot == 0`, `right.slot == 1`.
    pub join: Option<(BoundColumn, BoundColumn)>,
    /// Filters, each tied to a slot.
    pub filters: Vec<BoundFilter>,
    /// Output items.
    pub items: Vec<BoundItem>,
    /// Group key.
    pub group_by: Option<BoundColumn>,
    /// Sort: output column index + direction.
    pub order_by: Option<(usize, SortOrder)>,
    /// Row cap.
    pub limit: Option<u64>,
}

impl BoundQuery {
    /// Output column names.
    pub fn output_columns(&self) -> Vec<String> {
        self.items.iter().map(|i| i.name().to_string()).collect()
    }

    /// Does the query aggregate?
    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(BoundItem::is_aggregate)
    }

    /// Lower the bound query onto the engine's [`PhysicalPlan`]: WHERE
    /// conjuncts become pushed-down inclusive-range predicates on their
    /// slot's scan, the join becomes a tiered hash-join spec, items /
    /// group key / sort / limit translate one-to-one. The physical plan
    /// is the *only* execution path — `amnesia-sql` no longer owns an
    /// interpreter. The plan runs cost-based by default
    /// ([`PlanHint::CostBased`]); [`Self::lower_with_hint`] is the
    /// syntactic escape hatch.
    pub fn lower(&self) -> PhysicalPlan {
        self.lower_with_hint(PlanHint::CostBased)
    }

    /// [`Self::lower`] with an explicit [`PlanHint`]:
    /// [`PlanHint::SyntacticOrder`] pins predicate evaluation and the
    /// join build side to the query's written order — the equivalence
    /// oracle the cost-based path is tested against.
    pub fn lower_with_hint(&self, hint: PlanHint) -> PhysicalPlan {
        let mut scans: Vec<PhysScan> = self
            .tables
            .iter()
            .map(|(name, binding)| PhysScan {
                preds: Vec::new(),
                label: if name == binding {
                    format!("Scan {name} [active-only]")
                } else {
                    format!("Scan {name} AS {binding} [active-only]")
                },
            })
            .collect();
        for f in &self.filters {
            scans[f.column().slot].preds.push(f.lower());
        }
        let join = self.join.as_ref().map(|(l, r)| JoinSpec {
            left_col: l.col,
            right_col: r.col,
            display: format!("{} = {}", l.display, r.display),
        });
        let items = self
            .items
            .iter()
            .map(|item| match item {
                BoundItem::Column(c) => PhysItem::Column {
                    slot: c.slot,
                    col: c.col,
                    display: c.display.clone(),
                },
                BoundItem::Aggregate { func, arg, name } => PhysItem::Aggregate {
                    kind: lower_func(*func),
                    arg: arg.as_ref().map(|c| (c.slot, c.col)),
                    display: name.clone(),
                },
            })
            .collect();
        PhysicalPlan {
            scans,
            join,
            items,
            group_by: self
                .group_by
                .as_ref()
                .map(|g| (g.slot, g.col, g.display.clone())),
            order_by: self.order_by.map(|(idx, order)| {
                (
                    idx,
                    match order {
                        SortOrder::Asc => SortDir::Asc,
                        SortOrder::Desc => SortDir::Desc,
                    },
                )
            }),
            limit: self.limit,
            hint,
        }
    }

    /// Render the physical plan tree for EXPLAIN (access-path tags are
    /// resolved against live tables by [`crate::exec::run`], which can
    /// see the catalog).
    pub fn explain(&self) -> String {
        self.lower().explain(None)
    }
}

/// Binder state: the slots in scope.
struct Scope<'a> {
    /// `(binding name, table)` per slot.
    slots: Vec<(&'a str, &'a Table)>,
}

impl<'a> Scope<'a> {
    fn resolve_column(&self, c: &ColumnRef) -> SqlResult<BoundColumn> {
        let mut hits = Vec::new();
        for (slot, (binding, table)) in self.slots.iter().enumerate() {
            if let Some(qual) = &c.table {
                if qual != binding {
                    continue;
                }
            }
            if let Some(col) = table.schema().index_of(&c.column) {
                hits.push(BoundColumn {
                    slot,
                    col,
                    display: format!("{binding}.{}", c.column),
                });
            }
        }
        match hits.len() {
            0 => Err(SqlError::new(format!("unknown column `{c}`"), c.span)),
            1 => Ok(hits.pop().expect("one hit")),
            _ => Err(SqlError::new(
                format!("ambiguous column `{c}`: qualify it with a table name"),
                c.span,
            )),
        }
    }
}

/// Resolve one FROM/JOIN table into a slot.
fn resolve_table<'a>(
    catalog: &'a dyn Catalog,
    tref: &crate::ast::TableRef,
    tables: &mut Vec<(String, String)>,
    resolved: &mut Vec<&'a Table>,
) -> SqlResult<()> {
    let table = catalog.resolve(&tref.name).ok_or_else(|| {
        SqlError::new(
            format!(
                "unknown table `{}` (have: {})",
                tref.name,
                catalog.table_names().join(", ")
            ),
            tref.span,
        )
    })?;
    let binding = tref.binding().to_string();
    if tables.iter().any(|(_, b)| *b == binding) {
        return Err(SqlError::new(
            format!("duplicate table binding `{binding}`"),
            tref.span,
        ));
    }
    tables.push((tref.name.clone(), binding));
    resolved.push(table);
    Ok(())
}

/// Bind a parsed SELECT against the catalog.
pub fn bind(catalog: &dyn Catalog, select: &Select) -> SqlResult<BoundQuery> {
    // Resolve tables into slots.
    let mut tables: Vec<(String, String)> = Vec::new();
    let mut resolved: Vec<&Table> = Vec::new();
    resolve_table(catalog, &select.from, &mut tables, &mut resolved)?;
    if let Some(join) = &select.join {
        resolve_table(catalog, &join.table, &mut tables, &mut resolved)?;
    }
    let scope = Scope {
        slots: tables
            .iter()
            .zip(&resolved)
            .map(|((_, b), t)| (b.as_str(), *t))
            .collect(),
    };

    // Join condition must span both slots (either order in the text).
    let join = match &select.join {
        Some(j) => {
            let a = scope.resolve_column(&j.left)?;
            let b = scope.resolve_column(&j.right)?;
            let (l, r) = match (a.slot, b.slot) {
                (0, 1) => (a, b),
                (1, 0) => (b, a),
                _ => {
                    return Err(SqlError::new(
                        "join condition must reference both tables",
                        j.left.span.merge(j.right.span),
                    ))
                }
            };
            Some((l, r))
        }
        None => None,
    };

    // Projection.
    let mut items: Vec<BoundItem> = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                if select.group_by.is_some() {
                    return Err(SqlError::new(
                        "`*` cannot be combined with GROUP BY",
                        select.from.span,
                    ));
                }
                for (slot, (binding, table)) in scope.slots.iter().enumerate() {
                    for (col, def) in table.schema().columns().iter().enumerate() {
                        items.push(BoundItem::Column(BoundColumn {
                            slot,
                            col,
                            display: format!("{binding}.{}", def.name),
                        }));
                    }
                }
            }
            SelectItem::Column(c) => {
                items.push(BoundItem::Column(scope.resolve_column(c)?));
            }
            SelectItem::Aggregate { func, arg, alias } => {
                let bound_arg = arg.as_ref().map(|c| scope.resolve_column(c)).transpose()?;
                let name = alias.clone().unwrap_or_else(|| match &bound_arg {
                    Some(c) => format!("{}({})", func.as_str().to_ascii_lowercase(), c.display),
                    None => "count(*)".to_string(),
                });
                items.push(BoundItem::Aggregate {
                    func: *func,
                    arg: bound_arg,
                    name,
                });
            }
        }
    }

    // Group key + the aggregate/plain-column consistency rules.
    let group_by = select
        .group_by
        .as_ref()
        .map(|c| scope.resolve_column(c))
        .transpose()?;
    let has_agg = items.iter().any(BoundItem::is_aggregate);
    if let Some(g) = &group_by {
        if !has_agg {
            // GROUP BY without aggregates is DISTINCT on the key; the
            // projection must then be exactly the key.
            for item in &items {
                match item {
                    BoundItem::Column(c) if c == g => {}
                    _ => {
                        return Err(SqlError::new(
                            "GROUP BY without aggregates may only project the group key",
                            select.group_by.as_ref().expect("group").span,
                        ))
                    }
                }
            }
        }
        for item in &items {
            if let BoundItem::Column(c) = item {
                if c != g {
                    return Err(SqlError::new(
                        format!(
                            "column `{}` must appear in GROUP BY or inside an aggregate",
                            c.display
                        ),
                        select.group_by.as_ref().expect("group").span,
                    ));
                }
            }
        }
    } else if has_agg {
        for item in &items {
            if let BoundItem::Column(c) = item {
                return Err(SqlError::new(
                    format!(
                        "column `{}` cannot be selected alongside aggregates without GROUP BY",
                        c.display
                    ),
                    select.from.span,
                ));
            }
        }
    }

    // Filters.
    let mut filters = Vec::new();
    for p in &select.predicates {
        filters.push(match p {
            crate::ast::Predicate::Compare { col, op, value } => BoundFilter::Compare {
                col: scope.resolve_column(col)?,
                op: *op,
                value: *value,
            },
            crate::ast::Predicate::Between { col, lo, hi } => BoundFilter::Between {
                col: scope.resolve_column(col)?,
                lo: *lo,
                hi: *hi,
            },
        });
    }

    // ORDER BY resolves against output columns: by alias/name first, then
    // by resolving as an input column that appears in the projection.
    let order_by = match &select.order_by {
        Some(o) => {
            let rendered = o.col.to_string();
            let by_name = items
                .iter()
                .position(|i| i.name() == rendered || i.name().ends_with(&format!(".{rendered}")));
            let idx = match by_name {
                Some(i) => i,
                None => {
                    let bound = scope.resolve_column(&o.col)?;
                    items
                        .iter()
                        .position(|i| matches!(i, BoundItem::Column(c) if *c == bound))
                        .ok_or_else(|| {
                            SqlError::new(
                                format!("ORDER BY column `{}` is not in the projection", o.col),
                                o.col.span,
                            )
                        })?
                }
            };
            Some((idx, o.order))
        }
        None => None,
    };

    Ok(BoundQuery {
        tables,
        join,
        filters,
        items,
        group_by,
        order_by,
        limit: select.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use amnesia_columnar::Schema;

    fn shop() -> Database {
        let mut db = Database::new();
        let _ = db.add_table("customers", Schema::new(vec!["id", "region"]));
        let _ = db.add_table("orders", Schema::new(vec!["customer_id", "amount"]));
        db
    }

    fn bind_sql(db: &Database, sql: &str) -> SqlResult<BoundQuery> {
        match parse(sql).unwrap() {
            crate::ast::Statement::Select(s) => bind(db, &s),
            crate::ast::Statement::Explain(s) => bind(db, &s),
        }
    }

    /// Every comparison lowers to exactly the values it passes, at the
    /// `i64` edges and on both sides of every literal.
    #[test]
    fn lowering_is_exact_at_the_domain_edges() {
        const EDGES: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        let col = BoundColumn {
            slot: 0,
            col: 0,
            display: "t.a".into(),
        };
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for value in EDGES {
                let f = BoundFilter::Compare {
                    col: col.clone(),
                    op,
                    value,
                };
                let p = f.lower();
                let near = [value.saturating_sub(1), value, value.saturating_add(1)];
                for v in EDGES.into_iter().chain(near) {
                    assert_eq!(p.matches(v), f.matches(v), "{} at {v}", f.describe());
                }
            }
        }
    }

    #[test]
    fn binds_columns_to_slots_and_ordinals() {
        let db = shop();
        let q = bind_sql(
            &db,
            "SELECT c.region, AVG(o.amount) FROM customers c JOIN orders o \
             ON c.id = o.customer_id GROUP BY c.region",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        let (l, r) = q.join.as_ref().unwrap();
        assert_eq!((l.slot, l.col), (0, 0));
        assert_eq!((r.slot, r.col), (1, 0));
        assert_eq!(q.output_columns(), vec!["c.region", "avg(o.amount)"]);
    }

    #[test]
    fn join_condition_written_backwards_still_binds() {
        let db = shop();
        let q = bind_sql(
            &db,
            "SELECT COUNT(*) FROM customers c JOIN orders o ON o.customer_id = c.id",
        )
        .unwrap();
        let (l, r) = q.join.unwrap();
        assert_eq!(l.slot, 0);
        assert_eq!(r.slot, 1);
    }

    #[test]
    fn unknown_table_lists_candidates() {
        let db = shop();
        let err = bind_sql(&db, "SELECT * FROM sales").unwrap_err();
        assert!(err.message.contains("unknown table `sales`"));
        assert!(err.message.contains("customers"));
    }

    #[test]
    fn unknown_and_ambiguous_columns() {
        let db = shop();
        let err = bind_sql(&db, "SELECT price FROM orders").unwrap_err();
        assert!(err.message.contains("unknown column"));
        // `id` exists only in customers; `customer_id` only in orders —
        // create ambiguity via two tables sharing a name through aliases.
        let mut db2 = Database::new();
        db2.add_table("a", Schema::new(vec!["x"]));
        db2.add_table("b", Schema::new(vec!["x"]));
        let err = bind_sql(&db2, "SELECT x FROM a JOIN b ON a.x = b.x").unwrap_err();
        assert!(err.message.contains("ambiguous"), "{err}");
    }

    #[test]
    fn aggregate_mixing_rules() {
        let db = shop();
        let err = bind_sql(&db, "SELECT region, COUNT(*) FROM customers").unwrap_err();
        assert!(err.message.contains("GROUP BY"), "{err}");
        let err = bind_sql(&db, "SELECT id, COUNT(*) FROM customers GROUP BY region").unwrap_err();
        assert!(err.message.contains("must appear in GROUP BY"), "{err}");
        assert!(bind_sql(
            &db,
            "SELECT region, COUNT(*) FROM customers GROUP BY region"
        )
        .is_ok());
    }

    #[test]
    fn wildcard_expands_across_join() {
        let db = shop();
        let q = bind_sql(
            &db,
            "SELECT * FROM customers c JOIN orders o ON c.id = o.customer_id",
        )
        .unwrap();
        assert_eq!(
            q.output_columns(),
            vec!["c.id", "c.region", "o.customer_id", "o.amount"]
        );
    }

    #[test]
    fn order_by_alias_and_projected_column() {
        let db = shop();
        let q = bind_sql(
            &db,
            "SELECT region, COUNT(*) AS n FROM customers GROUP BY region ORDER BY n DESC",
        )
        .unwrap();
        assert_eq!(q.order_by, Some((1, SortOrder::Desc)));
        let q2 = bind_sql(&db, "SELECT id FROM customers ORDER BY id").unwrap();
        assert_eq!(q2.order_by, Some((0, SortOrder::Asc)));
        let err = bind_sql(&db, "SELECT id FROM customers ORDER BY region").unwrap_err();
        assert!(err.message.contains("not in the projection"));
    }

    #[test]
    fn duplicate_binding_rejected() {
        let db = shop();
        let err = bind_sql(
            &db,
            "SELECT * FROM customers c JOIN orders c ON c.id = c.amount",
        )
        .unwrap_err();
        assert!(err.message.contains("duplicate table binding"));
    }

    #[test]
    fn explain_renders_the_pipeline() {
        let db = shop();
        let q = bind_sql(
            &db,
            "SELECT c.region, AVG(o.amount) AS mean FROM customers c JOIN orders o \
             ON c.id = o.customer_id WHERE o.amount > 10 GROUP BY c.region \
             ORDER BY mean DESC LIMIT 3",
        )
        .unwrap();
        let plan = q.explain();
        assert!(plan.starts_with("Limit 3"), "{plan}");
        assert!(plan.contains("Sort mean DESC"), "{plan}");
        assert!(plan.contains("GroupBy c.region"), "{plan}");
        assert!(plan.contains("HashJoin c.id = o.customer_id"), "{plan}");
        assert!(
            plan.contains("Scan orders AS o [active-only] filter: o.amount > 10"),
            "{plan}"
        );
    }
}
