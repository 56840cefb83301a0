//! Property tests of the hash-join kernel against a brute-force
//! nested-loop model, across random tables and forget patterns.

use amnesia::engine::join::{hash_join, hash_join_count, join_precision};
use amnesia::engine::ForgetVisibility;
use amnesia::prelude::*;
use proptest::prelude::*;

fn build(values: &[i64], forget: &[usize]) -> Table {
    let mut t = Table::new(Schema::single("k"));
    if !values.is_empty() {
        t.insert_batch(values, 0).unwrap();
    }
    for &f in forget {
        if !values.is_empty() {
            let _ = t.forget(RowId((f % values.len()) as u64), 1);
        }
    }
    t
}

/// `build` behind a dropped block: 64 rows of keys no other row holds,
/// all forgotten, frozen and dropped, then `values` / `forget` as the hot
/// tail. The dropped rows keep their ids but hold no value any more.
fn build_behind_dropped_block(values: &[i64], forget: &[usize]) -> Table {
    let mut t = Table::with_block_rows(Schema::single("k"), 64);
    t.insert_batch(&(1000..1064).collect::<Vec<i64>>(), 0)
        .unwrap();
    for r in 0..64 {
        t.forget(RowId(r), 1).unwrap();
    }
    t.freeze_upto(64);
    assert_eq!(t.drop_forgotten_blocks().0, 1);
    if !values.is_empty() {
        t.insert_batch(values, 0).unwrap();
    }
    for &f in forget {
        if !values.is_empty() {
            let _ = t.forget(RowId((64 + f % values.len()) as u64), 1);
        }
    }
    t
}

/// Brute-force nested-loop join over the chosen visibility. The complete
/// scan sees every row that still holds a value — forgotten ones too, but
/// not the rows of a dropped block.
fn model_join(left: &Table, right: &Table, vis: ForgetVisibility) -> Vec<(RowId, RowId)> {
    let rows = |t: &Table| -> Vec<RowId> {
        match vis {
            ForgetVisibility::ActiveOnly => t.active_row_ids(),
            ForgetVisibility::ScanSeesForgotten => (0..t.num_rows())
                .filter(|r| {
                    let block = t.col_tier(0).frozen(r / t.block_rows());
                    !block.is_some_and(|f| f.is_dropped())
                })
                .map(RowId::from)
                .collect(),
        }
    };
    let mut out = Vec::new();
    for l in rows(left) {
        for r in rows(right) {
            if left.value(0, l) == right.value(0, r) {
                out.push((l, r));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_join_matches_nested_loop(
        left_vals in proptest::collection::vec(0i64..30, 0..60),
        right_vals in proptest::collection::vec(0i64..30, 0..60),
        lf in proptest::collection::vec(0usize..100, 0..20),
        rf in proptest::collection::vec(0usize..100, 0..20),
    ) {
        // Each side plain, and behind a dropped block: a dropped row has
        // no key, so it joins nothing — least of all the live key `0` its
        // zero-padded dense image would suggest.
        let lefts = [build(&left_vals, &lf), build_behind_dropped_block(&left_vals, &lf)];
        let rights = [build(&right_vals, &rf), build_behind_dropped_block(&right_vals, &rf)];
        for (left, right) in lefts.iter().flat_map(|l| rights.iter().map(move |r| (l, r))) {
            let mut sizes = [0usize; 2];
            for (i, vis) in [ForgetVisibility::ActiveOnly, ForgetVisibility::ScanSeesForgotten]
                .into_iter()
                .enumerate()
            {
                let mut expected = model_join(left, right, vis);
                let mut got = hash_join(left, 0, right, 0, vis).pairs;
                expected.sort();
                got.sort();
                prop_assert_eq!(&got, &expected, "{:?}", vis);
                prop_assert_eq!(
                    hash_join_count(left, 0, right, 0, vis),
                    expected.len(),
                    "count-only must agree"
                );
                sizes[i] = expected.len();
            }
            let [active, truth] = sizes;
            prop_assert_eq!(
                join_precision(left, 0, right, 0),
                (truth > 0).then(|| active as f64 / truth as f64)
            );
        }
    }

    #[test]
    fn precision_is_a_valid_ratio_and_monotone_in_forgetting(
        vals in proptest::collection::vec(0i64..20, 1..50),
    ) {
        let left = build(&vals, &[]);
        let mut right = build(&vals, &[]);
        let p0 = join_precision(&left, 0, &right, 0);
        prop_assert_eq!(p0, Some(1.0), "nothing forgotten yet");
        // Forget right-side rows one at a time: precision never rises.
        let mut last = 1.0;
        for r in 0..right.num_rows() {
            right.forget(RowId(r as u64), 1).unwrap();
            if let Some(p) = join_precision(&left, 0, &right, 0) {
                prop_assert!(p <= last + 1e-12, "precision rose: {p} > {last}");
                prop_assert!((0.0..=1.0).contains(&p));
                last = p;
            }
        }
    }

    #[test]
    fn tiered_hash_join_matches_nested_loop(
        left_vals in proptest::collection::vec(0i64..30, 0..200),
        right_vals in proptest::collection::vec(0i64..30, 0..200),
        lf in proptest::collection::vec(0usize..300, 0..40),
        rf in proptest::collection::vec(0usize..300, 0..40),
        freeze_left in 0usize..4,
        freeze_right in 0usize..4,
    ) {
        // Same logical tables, but with 64-row tier blocks and a random
        // amount of each side frozen: answers must match the nested-loop
        // model exactly, frozen or not.
        let build_tiered = |values: &[i64], forget: &[usize], upto: usize| {
            let mut t = Table::with_block_rows(Schema::single("k"), 64);
            if !values.is_empty() {
                t.insert_batch(values, 0).unwrap();
            }
            for &f in forget {
                if !values.is_empty() {
                    let _ = t.forget(RowId((f % values.len()) as u64), 1);
                }
            }
            t.freeze_upto(upto * 64);
            t
        };
        let left = build_tiered(&left_vals, &lf, freeze_left);
        let right = build_tiered(&right_vals, &rf, freeze_right);
        let mut expected = model_join(&left, &right, ForgetVisibility::ActiveOnly);
        let result = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        let mut got = result.pairs;
        expected.sort();
        got.sort();
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(
            hash_join_count(&left, 0, &right, 0, ForgetVisibility::ActiveOnly),
            expected.len()
        );
        prop_assert_eq!(
            result.stats.probe_rows_skipped <= right.active_rows(),
            true
        );
    }

    #[test]
    fn join_stats_are_consistent(
        left_vals in proptest::collection::vec(0i64..15, 0..40),
        right_vals in proptest::collection::vec(0i64..15, 0..40),
    ) {
        let left = build(&left_vals, &[]);
        let right = build(&right_vals, &[]);
        let r = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        prop_assert_eq!(r.stats.build_rows, left_vals.len());
        prop_assert_eq!(r.stats.probe_rows, right_vals.len());
        prop_assert_eq!(r.stats.output_pairs, r.pairs.len());
        let distinct: std::collections::HashSet<i64> =
            left_vals.iter().copied().collect();
        prop_assert_eq!(r.stats.build_distinct_keys, distinct.len());
    }
}
