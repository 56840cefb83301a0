//! The sort breaker keeps the stable top k: `ORDER BY … LIMIT k` through
//! `Executor::execute_plan` returns exactly the plan's unordered,
//! unlimited rows stable-sorted by the key and truncated to k — for k in
//! {0, 1, n − 1, n, n + 1}, both directions, duplicate keys, `Float`
//! (AVG, widened SUM) and `Null` keys, `i64::MIN`/`MAX` keys, on one
//! worker and on two, over hot and frozen tables, for projection,
//! grouped, global and join plans.

use std::cmp::Ordering;

use amnesia::columnar::{RowId, Schema, Table};
use amnesia::engine::physical::JoinSpec;
use amnesia::engine::{
    ColPred, ExecMode, Executor, PhysItem, PhysScan, PhysicalPlan, PlanHint, Scalar, SortDir,
};
use amnesia::workload::AggKind;

const BLOCK_ROWS: usize = 128;

/// t(k, v, w): `k` a 37-value group key with `i64::MIN`/`MAX` rows mixed
/// in, `v` a small domain with extremes (so SUMs overflow into `Float`),
/// `w` distinct per row; every 7th row forgotten. Frozen: every full
/// block compressed.
fn fact(frozen: bool) -> Table {
    let n = 2_000i64;
    let mut t = Table::with_block_rows(Schema::new(vec!["k", "v", "w"]), BLOCK_ROWS);
    for i in 0..n {
        let k = match i % 97 {
            0 => i64::MIN,
            1 => i64::MAX,
            _ => i % 37,
        };
        let v = match i % 89 {
            0 => i64::MAX,
            1 => i64::MIN,
            _ => (i * 7) % 50 - 20,
        };
        t.insert(&[k, v, i], 0).unwrap();
    }
    for r in (0..n as u64).step_by(7) {
        t.forget(RowId(r), 1).unwrap();
    }
    if frozen {
        t.freeze_upto((n as usize / BLOCK_ROWS) * BLOCK_ROWS);
    }
    t
}

/// d(id, region): one row per group key of `fact`, five regions.
fn dim(frozen: bool) -> Table {
    let mut d = Table::with_block_rows(Schema::new(vec!["id", "region"]), BLOCK_ROWS);
    for id in 0..37 {
        d.insert(&[id, id % 5], 0).unwrap();
    }
    for id in [i64::MIN, i64::MAX] {
        d.insert(&[id, 9], 0).unwrap();
    }
    if frozen {
        // Pad to one full block so the dimension freezes too.
        for id in 1_000..(1_000 + BLOCK_ROWS as i64) {
            d.insert(&[id, 7], 0).unwrap();
        }
        d.freeze_upto(BLOCK_ROWS);
    }
    d
}

fn col(slot: usize, col: usize) -> PhysItem {
    PhysItem::Column {
        slot,
        col,
        display: format!("s{slot}c{col}"),
    }
}

fn agg(kind: AggKind, arg: Option<(usize, usize)>) -> PhysItem {
    PhysItem::Aggregate {
        kind,
        arg,
        display: format!("{kind:?}"),
    }
}

fn scan(preds: Vec<ColPred>) -> PhysScan {
    PhysScan {
        preds,
        label: "Scan".into(),
    }
}

/// The plans under test, unordered and unlimited.
fn plans() -> Vec<(&'static str, PhysicalPlan)> {
    let one = |preds: Vec<ColPred>, items: Vec<PhysItem>, group_by| PhysicalPlan {
        scans: vec![scan(preds)],
        join: None,
        items,
        group_by,
        order_by: None,
        limit: None,
        hint: PlanHint::default(),
    };
    let join = |items: Vec<PhysItem>, group_by| PhysicalPlan {
        scans: vec![scan(vec![ColPred::range(2, 100, 1_500)]), scan(Vec::new())],
        join: Some(JoinSpec {
            left_col: 0,
            right_col: 0,
            display: "t.k = d.id".into(),
        }),
        items,
        group_by,
        order_by: None,
        limit: None,
        hint: PlanHint::default(),
    };
    vec![
        (
            "projection",
            one(
                vec![ColPred::range(2, 50, 1_800)],
                vec![col(0, 0), col(0, 1), col(0, 2)],
                None,
            ),
        ),
        (
            "grouped",
            one(
                vec![ColPred::range(2, 0, 1_900)],
                vec![
                    col(0, 0),
                    agg(AggKind::Count, None),
                    agg(AggKind::Sum, Some((0, 1))),
                    agg(AggKind::Avg, Some((0, 1))),
                    agg(AggKind::Min, Some((0, 1))),
                    agg(AggKind::Max, Some((0, 2))),
                ],
                Some((0, 0, "k".into())),
            ),
        ),
        (
            "global over an empty selection (Null keys)",
            one(
                vec![ColPred::range(2, 5, 4)],
                vec![agg(AggKind::Min, Some((0, 1))), agg(AggKind::Count, None)],
                None,
            ),
        ),
        (
            "join projection",
            join(vec![col(0, 1), col(1, 1), col(0, 2)], None),
        ),
        (
            "join grouped",
            join(
                vec![
                    col(1, 1),
                    agg(AggKind::Count, None),
                    agg(AggKind::Sum, Some((0, 1))),
                    agg(AggKind::Avg, Some((0, 2))),
                ],
                Some((1, 1, "region".into())),
            ),
        ),
    ]
}

/// `rows` stable-sorted by item `idx` under `dir`.
fn stable_sorted(rows: &[Vec<Scalar>], idx: usize, dir: SortDir) -> Vec<Vec<Scalar>> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| {
        let ord: Ordering = a[idx].total_cmp(&b[idx]);
        match dir {
            SortDir::Asc => ord,
            SortDir::Desc => ord.reverse(),
        }
    });
    sorted
}

#[test]
fn top_k_equals_stable_sort_then_truncate() {
    for frozen in [false, true] {
        let (t, d) = (fact(frozen), dim(frozen));
        let tables = [&t, &d];
        for exec_mode in [ExecMode::Serial, ExecMode::Parallel(2)] {
            // Small morsels: the parallel pool cuts every stage, and its
            // full sort takes the chunk-sort + k-way merge path.
            let ex = Executor::default()
                .with_exec_mode(exec_mode)
                .with_morsel_rows(64);
            for (name, base_plan) in plans() {
                let slots = &tables[..base_plan.scans.len()];
                let base = ex.execute_plan(slots, &[], &base_plan).rows;
                let n = base.len();
                let ctx = format!("{name}, frozen={frozen}, {exec_mode:?}, n={n}");
                assert!(
                    n > 1 || name.contains("Null"),
                    "{ctx}: the plan must have rows to sort"
                );
                let mut ks = vec![0, 1, n.saturating_sub(1), n, n + 1];
                ks.dedup();
                // LIMIT without ORDER BY: the first k positions.
                for &k in &ks {
                    let plan = PhysicalPlan {
                        limit: Some(k as u64),
                        ..base_plan.clone()
                    };
                    let got = ex.execute_plan(slots, &[], &plan);
                    assert_eq!(got.rows, base[..k.min(n)], "{ctx}, unordered LIMIT {k}");
                }
                for idx in 0..base_plan.items.len() {
                    for dir in [SortDir::Asc, SortDir::Desc] {
                        let want = stable_sorted(&base, idx, dir);
                        let ordered = PhysicalPlan {
                            order_by: Some((idx, dir)),
                            ..base_plan.clone()
                        };
                        let full = ex.execute_plan(slots, &[], &ordered);
                        assert_eq!(full.rows, want, "{ctx}, ORDER BY #{idx} {dir:?}");
                        for &k in &ks {
                            let plan = PhysicalPlan {
                                limit: Some(k as u64),
                                ..ordered.clone()
                            };
                            let got = ex.execute_plan(slots, &[], &plan);
                            assert_eq!(
                                got.rows,
                                want[..k.min(n)],
                                "{ctx}, ORDER BY #{idx} {dir:?} LIMIT {k}"
                            );
                            assert_eq!(got.stats.result_rows, k.min(n), "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// The key columns really do carry what the breaker must order: ties,
/// `Float` beside `Int` (a widened SUM), `Null`, and the `i64` edges.
#[test]
fn the_plans_exercise_every_key_shape() {
    let (t, d) = (fact(true), dim(true));
    let tables = [&t, &d];
    let ex = Executor::default();
    let all: Vec<Scalar> = plans()
        .iter()
        .flat_map(|(_, plan)| ex.execute_plan(&tables[..plan.scans.len()], &[], plan).rows)
        .flatten()
        .collect();
    let has = |f: &dyn Fn(&Scalar) -> bool| all.iter().any(f);
    assert!(has(&|s| *s == Scalar::Null));
    assert!(has(&|s| *s == Scalar::Int(i64::MIN)));
    assert!(has(&|s| *s == Scalar::Int(i64::MAX)));
    assert!(
        has(&|s| matches!(s, Scalar::Float(f) if f.abs() > 9.3e18)),
        "a widened SUM"
    );
    assert!(
        has(&|s| matches!(s, Scalar::Float(f) if f.fract() != 0.0)),
        "an AVG"
    );
    let grouped = ex.execute_plan(&[&t], &[], &plans()[1].1).rows;
    let counts: Vec<&Scalar> = grouped.iter().map(|r| &r[1]).collect();
    assert!(
        counts
            .iter()
            .enumerate()
            .any(|(i, c)| counts[..i].contains(c)),
        "duplicate COUNT keys"
    );
}
