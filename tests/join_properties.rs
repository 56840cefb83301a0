//! Property tests of the hash-join kernel against the model's join,
//! across random tables, forget patterns, dropped blocks and freeze
//! states.

use amnesia::engine::join::{hash_join, hash_join_count, join_precision};
use amnesia::engine::ForgetVisibility;
use amnesia::prelude::*;
use amnesia_model::{join_pairs, Case, Op};
use proptest::prelude::*;

/// `values` in 64-row blocks, then a forget of every row `forget` names
/// (modulo the row count).
fn build(values: &[i64], forget: &[usize]) -> Case {
    let mut case = Case::new(Schema::single("k"), 64);
    case.apply(Op::column(values));
    if !values.is_empty() {
        case.apply(Op::Forget(
            forget.iter().map(|f| f % values.len()).collect(),
        ));
    }
    case
}

/// `build` behind a dropped block: 64 rows of keys no other row holds,
/// all forgotten, frozen and dropped, then `values` / `forget` as the hot
/// tail. The dropped rows keep their ids but hold no value any more.
fn build_behind_dropped_block(values: &[i64], forget: &[usize]) -> Case {
    let mut case = Case::replay(
        Schema::single("k"),
        64,
        [
            Op::column(&(1000..1064).collect::<Vec<i64>>()),
            Op::Forget((0..64).collect()),
            Op::FreezeUpto(64),
            Op::Drop,
        ],
    );
    assert_eq!(case.table.dropped_rows(), 64);
    case.apply(Op::column(values));
    if !values.is_empty() {
        case.apply(Op::Forget(
            forget.iter().map(|f| 64 + f % values.len()).collect(),
        ));
    }
    case
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
            let (l, r) = (&left.table, &right.table);
            let mut sizes = [0usize; 2];
            for (i, vis) in [ForgetVisibility::ActiveOnly, ForgetVisibility::ScanSeesForgotten]
                .into_iter()
                .enumerate()
            {
                let want = join_pairs(&left.model, 0, &right.model, 0, vis);
                prop_assert_eq!(&hash_join(l, 0, r, 0, vis).pairs, &want, "{:?}", vis);
                prop_assert_eq!(hash_join_count(l, 0, r, 0, vis), want.len(), "count-only must agree");
                sizes[i] = want.len();
            }
            let [active, truth] = sizes;
            prop_assert_eq!(
                join_precision(l, 0, r, 0),
                (truth > 0).then(|| active as f64 / truth as f64)
            );
        }
    }

    #[test]
    fn precision_is_a_valid_ratio_and_monotone_in_forgetting(
        vals in proptest::collection::vec(0i64..20, 1..50),
    ) {
        let left = build(&vals, &[]).table;
        let mut right = build(&vals, &[]).table;
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
        // A random number of each side's 64-row blocks frozen: the
        // answers are the model's, frozen or not.
        let mut left = build(&left_vals, &lf);
        left.apply(Op::FreezeUpto(freeze_left * 64));
        let mut right = build(&right_vals, &rf);
        right.apply(Op::FreezeUpto(freeze_right * 64));
        let (l, r) = (&left.table, &right.table);
        let want = join_pairs(&left.model, 0, &right.model, 0, ForgetVisibility::ActiveOnly);
        let result = hash_join(l, 0, r, 0, ForgetVisibility::ActiveOnly);
        prop_assert_eq!(&result.pairs, &want);
        prop_assert_eq!(hash_join_count(l, 0, r, 0, ForgetVisibility::ActiveOnly), want.len());
        prop_assert_eq!(
            result.stats.probe_rows_skipped <= r.active_rows(),
            true
        );
    }

    #[test]
    fn join_stats_are_consistent(
        left_vals in proptest::collection::vec(0i64..15, 0..40),
        right_vals in proptest::collection::vec(0i64..15, 0..40),
    ) {
        let (left, right) = (build(&left_vals, &[]).table, build(&right_vals, &[]).table);
        let r = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        prop_assert_eq!(r.stats.build_rows, left_vals.len());
        prop_assert_eq!(r.stats.probe_rows, right_vals.len());
        prop_assert_eq!(r.stats.output_pairs, r.pairs.len());
        let distinct: std::collections::HashSet<i64> =
            left_vals.iter().copied().collect();
        prop_assert_eq!(r.stats.build_distinct_keys, distinct.len());
    }
}
