//! The sort breaker keeps the stable top k: `ORDER BY … LIMIT k` through
//! `Executor::execute_plan` returns exactly the model's rows — the plan's
//! rows stable-sorted by the key and truncated to k — for k in
//! {0, 1, n − 1, n, n + 1}, both directions, duplicate keys, `Float`
//! (AVG, widened SUM) and `Null` keys, `i64::MIN`/`MAX` keys, on one
//! worker and on two, over hot and frozen tables, for projection,
//! grouped, global and join plans.

mod common;

use amnesia::columnar::Schema;
use amnesia::engine::{ColPred, ExecMode, Executor, PhysicalPlan, Scalar, SortDir};
use amnesia::workload::AggKind;
use amnesia_model::{eval_plan, Case, Op};
use common::{agg, col, plan};

const BLOCK_ROWS: usize = 128;

/// t(k, v, w): `k` a 37-value group key with `i64::MIN`/`MAX` rows mixed
/// in, `v` a small domain with extremes (so SUMs overflow into `Float`),
/// `w` distinct per row; every 7th row forgotten. Frozen: every full
/// block compressed.
fn fact(frozen: bool) -> Case {
    let n = 2_000usize;
    let rows = (0..n as i64)
        .map(|i| {
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
            vec![k, v, i]
        })
        .collect();
    let mut t = Case::replay(
        Schema::new(vec!["k", "v", "w"]),
        BLOCK_ROWS,
        [Op::Insert(rows), Op::Forget((0..n).step_by(7).collect())],
    );
    if frozen {
        t.apply(Op::FreezeUpto(n / BLOCK_ROWS * BLOCK_ROWS));
    }
    t
}

/// d(id, region): one row per group key of `fact`, five regions.
fn dim(frozen: bool) -> Case {
    let mut rows: Vec<Vec<i64>> = (0..37).map(|id| vec![id, id % 5]).collect();
    rows.extend([i64::MIN, i64::MAX].map(|id| vec![id, 9]));
    let mut d = Case::new(Schema::new(vec!["id", "region"]), BLOCK_ROWS);
    d.apply(Op::Insert(rows));
    if frozen {
        // Pad to one full block so the dimension freezes too.
        d.apply(Op::Insert(
            (1_000..1_000 + BLOCK_ROWS as i64)
                .map(|id| vec![id, 7])
                .collect(),
        ));
        d.apply(Op::FreezeUpto(BLOCK_ROWS));
    }
    d
}

/// The plans under test, unordered and unlimited.
fn plans() -> Vec<(&'static str, PhysicalPlan)> {
    let grouped = |plan, key: (usize, usize)| PhysicalPlan {
        group_by: Some((key.0, key.1, "key".into())),
        ..plan
    };
    let one = |lo, hi, items| plan(vec![vec![ColPred::range(2, lo, hi)]], None, items);
    let join = |items| {
        let scans = vec![vec![ColPred::range(2, 100, 1_500)], vec![]];
        plan(scans, Some((0, 0)), items)
    };
    vec![
        (
            "projection",
            one(50, 1_800, vec![col(0, 0), col(0, 1), col(0, 2)]),
        ),
        (
            "grouped",
            grouped(
                one(
                    0,
                    1_900,
                    vec![
                        col(0, 0),
                        agg(AggKind::Count, None),
                        agg(AggKind::Sum, Some((0, 1))),
                        agg(AggKind::Avg, Some((0, 1))),
                        agg(AggKind::Min, Some((0, 1))),
                        agg(AggKind::Max, Some((0, 2))),
                    ],
                ),
                (0, 0),
            ),
        ),
        (
            "global over an empty selection (Null keys)",
            one(
                5,
                4,
                vec![agg(AggKind::Min, Some((0, 1))), agg(AggKind::Count, None)],
            ),
        ),
        (
            "join projection",
            join(vec![col(0, 1), col(1, 1), col(0, 2)]),
        ),
        (
            "join grouped",
            grouped(
                join(vec![
                    col(1, 1),
                    agg(AggKind::Count, None),
                    agg(AggKind::Sum, Some((0, 1))),
                    agg(AggKind::Avg, Some((0, 2))),
                ]),
                (1, 1),
            ),
        ),
    ]
}

#[test]
fn top_k_equals_stable_sort_then_truncate() {
    for frozen in [false, true] {
        let (t, d) = (fact(frozen), dim(frozen));
        let tables = [&t.table, &d.table];
        let models = [&t.model, &d.model];
        for exec_mode in [ExecMode::Serial, ExecMode::Parallel(2)] {
            // Small morsels: the parallel pool cuts every stage, and its
            // full sort takes the chunk-sort + k-way merge path.
            let ex = Executor::default()
                .with_exec_mode(exec_mode)
                .with_morsel_rows(64);
            for (name, base_plan) in plans() {
                let slots = base_plan.scans.len();
                let n = eval_plan(&models[..slots], &base_plan).len();
                let ctx = format!("{name}, frozen={frozen}, {exec_mode:?}, n={n}");
                assert!(
                    n > 1 || name.contains("Null"),
                    "{ctx}: the plan must have rows to sort"
                );
                let check = |plan: &PhysicalPlan, what: String| {
                    let got = ex.execute_plan(&tables[..slots], &[], plan);
                    let want = eval_plan(&models[..slots], plan);
                    assert_eq!(got.rows, want, "{ctx}, {what}");
                    assert_eq!(got.stats.result_rows, want.len(), "{ctx}, {what}");
                };
                let mut ks = vec![0, 1, n.saturating_sub(1), n, n + 1];
                ks.dedup();
                // LIMIT without ORDER BY: the first k positions.
                for &k in &ks {
                    let plan = PhysicalPlan {
                        limit: Some(k as u64),
                        ..base_plan.clone()
                    };
                    check(&plan, format!("unordered LIMIT {k}"));
                }
                for idx in 0..base_plan.items.len() {
                    for dir in [SortDir::Asc, SortDir::Desc] {
                        let ordered = PhysicalPlan {
                            order_by: Some((idx, dir)),
                            ..base_plan.clone()
                        };
                        check(&ordered, format!("ORDER BY #{idx} {dir:?}"));
                        for &k in &ks {
                            let plan = PhysicalPlan {
                                limit: Some(k as u64),
                                ..ordered.clone()
                            };
                            check(&plan, format!("ORDER BY #{idx} {dir:?} LIMIT {k}"));
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
    let models = [&t.model, &d.model];
    let all: Vec<Scalar> = plans()
        .iter()
        .flat_map(|(_, plan)| eval_plan(&models[..plan.scans.len()], plan))
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
    let grouped = eval_plan(&[&t.model], &plans()[1].1);
    let counts: Vec<&Scalar> = grouped.iter().map(|r| &r[1]).collect();
    assert!(
        counts
            .iter()
            .enumerate()
            .any(|(i, c)| counts[..i].contains(c)),
        "duplicate COUNT keys"
    );
}
