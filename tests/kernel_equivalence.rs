//! Property tests: the word-at-a-time tiered kernels, the row-at-a-time
//! scalar references, morsel-parallel plan execution, and the fused
//! compressed-block paths (every codec, frozen at every block-prefix
//! boundary) all compute identical answers — across randomized tables,
//! forget patterns (none / a quarter / everything), and the
//! word-boundary sizes where masking bugs live (0, 1, 63, 64, 65, 1023,
//! 1024, 1025).

mod common;

use amnesia::columnar::compress::{block_decodes, Encoding};
use amnesia::columnar::vacuum::vacuum;
use amnesia::engine::batch::scalar;
use amnesia::engine::join::{hash_join, hash_join_count};
use amnesia::engine::kernels;
use amnesia::engine::ForgetVisibility;
use amnesia::prelude::*;
use amnesia::workload::query::RangePredicate;
use proptest::prelude::*;

/// How much of the table a forget pattern erases.
#[derive(Debug, Clone, Copy)]
enum ForgetPattern {
    None,
    Quarter,
    All,
}

fn forget_pattern() -> impl Strategy<Value = ForgetPattern> {
    prop_oneof![
        Just(ForgetPattern::None),
        Just(ForgetPattern::Quarter),
        Just(ForgetPattern::All),
    ]
}

fn build_table(values: &[i64], pattern: ForgetPattern, seed: u64) -> Table {
    let mut t = Table::new(Schema::single("a"));
    if !values.is_empty() {
        t.insert_batch(values, 0).unwrap();
    }
    match pattern {
        ForgetPattern::None => {}
        ForgetPattern::Quarter => {
            let mut rng = SimRng::new(seed);
            for _ in 0..values.len() / 4 {
                if let Some(r) = t.random_active(&mut rng) {
                    t.forget(r, 1).unwrap();
                }
            }
        }
        ForgetPattern::All => {
            for r in 0..values.len() {
                t.forget(RowId::from(r), 1).unwrap();
            }
        }
    }
    t
}

/// Every serial single-column kernel over `t` against the scalar
/// reference evaluated on `truth` — the same logical table, never frozen
/// (pass `t` itself when it is hot). `exact_work` additionally pins the
/// aggregate's `rows_scanned` on a hot `t` to [`hot_rows_examined`]
/// (otherwise block meta may only shrink it below the reference's).
/// `scan_all_comparable`
/// must be false once a lossy transition (a recompression that
/// re-encoded, a drop) destroyed forgotten rows' values.
fn assert_serial_kernels_agree(
    t: &Table,
    truth: &Table,
    pred: RangePredicate,
    exact_work: bool,
    scan_all_comparable: bool,
    ctx: &str,
) {
    let reference = scalar::range_scan_active(truth, 0, pred);
    assert_eq!(
        kernels::range_scan_active(t, 0, pred),
        reference,
        "scan {ctx}"
    );
    let (rows, _) = kernels::range_scan_tiered(t, 0, pred);
    assert_eq!(rows, reference, "scan+stats {ctx}");
    assert_eq!(
        kernels::count_active_matches(t, 0, pred),
        scalar::count_active_matches(truth, 0, pred),
        "count {ctx}"
    );
    assert_eq!(
        kernels::count_active_matches(t, 0, pred),
        reference.len(),
        "count==scan-len {ctx}"
    );
    // Aggregates: every kind, with and without the predicate.
    for predicate in [None, Some(pred)] {
        for kind in AggKind::ALL {
            let (want, want_scanned) = scalar::aggregate_active(truth, 0, predicate, kind);
            let (got, got_scanned) = kernels::aggregate_active(t, 0, predicate, kind);
            assert_eq!(got, want, "agg {kind:?} pred={predicate:?} {ctx}");
            if exact_work {
                assert_eq!(
                    got_scanned,
                    hot_rows_examined(t, predicate),
                    "agg scanned {kind:?} pred={predicate:?} {ctx}"
                );
            } else {
                assert!(
                    got_scanned <= want_scanned,
                    "meta may only shrink work {ctx}"
                );
            }
        }
    }
    // Full (forgotten-inclusive) scan.
    if scan_all_comparable {
        assert_eq!(
            kernels::range_scan_all(t, 0, pred),
            scalar::range_scan_all(truth, 0, pred),
            "scan-all {ctx}"
        );
    }
}

/// The active rows an active-only kernel examines on hot table `t`,
/// worked out row by row from the values and the activity map: every
/// active row of the open last block, plus the active rows of each full
/// block whose value range (over all its values, forgotten ones too)
/// meets `pred`. An empty predicate examines every active row, as the
/// scalar reference does.
fn hot_rows_examined(t: &Table, pred: Option<RangePredicate>) -> usize {
    let (n, br) = (t.num_rows(), t.block_rows());
    let active = |rows: std::ops::Range<usize>| {
        rows.filter(|&r| t.activity().is_active(RowId::from(r)))
            .count()
    };
    if pred.is_some_and(|p| p.is_empty()) {
        return active(0..n);
    }
    (0..n)
        .step_by(br)
        .map(|lo| {
            let rows = lo..(lo + br).min(n);
            let values = || rows.clone().map(|r| t.value(0, RowId::from(r)));
            let (min, max) = (values().min().unwrap(), values().max().unwrap());
            let meets = pred.is_none_or(|p| min < p.hi && max >= p.lo);
            if rows.len() < br || meets {
                active(rows)
            } else {
                0
            }
        })
        .sum()
}

/// The parallel leg: a one-predicate [`PhysicalPlan`] over `t` — once
/// projecting the column, once folding every aggregate kind — must
/// return byte-identical rows under `ExecMode::Serial` and every
/// `Parallel(n)`, and the serial projection must be exactly the values
/// of the scalar reference's rows on `truth`.
fn assert_one_predicate_plans_agree(t: &Table, truth: &Table, pred: RangePredicate, ctx: &str) {
    let scan = || {
        vec![PhysScan {
            preds: vec![ColPred::from_range(0, pred)],
            label: "Scan t [active-only]".into(),
        }]
    };
    let project = PhysicalPlan {
        scans: scan(),
        join: None,
        items: vec![PhysItem::Column {
            slot: 0,
            col: 0,
            display: "a".into(),
        }],
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    };
    let aggregate = PhysicalPlan {
        items: AggKind::ALL
            .iter()
            .map(|&kind| PhysItem::Aggregate {
                kind,
                arg: Some((0, 0)),
                display: kind.name().into(),
            })
            .collect(),
        ..project.clone()
    };
    let want: Vec<Vec<Scalar>> = scalar::range_scan_active(truth, 0, pred)
        .into_iter()
        .map(|r| vec![Scalar::Int(truth.value(0, r))])
        .collect();
    assert_eq!(
        serial().execute_plan(&[t], &[], &project).rows,
        want,
        "plan projection {ctx}"
    );
    assert_plan_parallel_equals_serial(&[t], &project, &format!("projection {ctx}"));
    assert_plan_parallel_equals_serial(&[t], &aggregate, &format!("aggregate {ctx}"));
}

fn assert_all_kernels_agree(t: &Table, pred: RangePredicate, ctx: &str) {
    // Fully hot: vectorized == scalar == parallel (all thread counts).
    assert_serial_kernels_agree(t, t, pred, true, true, ctx);
    assert_one_predicate_plans_agree(t, t, pred, ctx);
    assert_compressed_kernels_agree(t, pred, ctx);
}

/// A copy of hot table `t` under another tier block size and pinned
/// codec (`None` = the automatic chooser), forgets included.
fn rebuilt(t: &Table, block_rows: usize, encoding: Option<Encoding>) -> Table {
    let mut copy = Table::with_block_rows(Schema::single("a"), block_rows);
    copy.pin_encoding(0, encoding);
    let values = t.col_values_dense(0);
    if !values.is_empty() {
        copy.insert_batch(&values, 0).unwrap();
    }
    for r in (0..t.num_rows()).map(RowId::from) {
        if !t.activity().is_active(r) {
            copy.forget(r, 1).unwrap();
        }
    }
    copy
}

/// Fused compressed scans == scalar scans of the hot original, for every
/// codec (pinned per block) and the automatic chooser, at word-aligned
/// block sizes that land frozen/tail boundaries on and off batch edges,
/// with the table frozen at *every* block-prefix boundary in turn — then
/// with the hot tail grown past the frozen prefix.
fn assert_compressed_kernels_agree(t: &Table, pred: RangePredicate, ctx: &str) {
    let n = t.num_rows();
    for block_rows in [64usize, 1024] {
        let codecs = Encoding::ALL.into_iter().map(Some).chain([None]);
        for encoding in codecs {
            let tag = format!("{encoding:?}@{block_rows} {ctx}");
            let mut frozen = rebuilt(t, block_rows, encoding);
            for prefix in (block_rows..=n).step_by(block_rows) {
                frozen.freeze_upto(prefix);
                assert_eq!(frozen.frozen_blocks(), prefix / block_rows, "{tag}");
                let before = block_decodes();
                assert_serial_kernels_agree(
                    &frozen,
                    t,
                    pred,
                    false,
                    true,
                    &format!("frozen<{prefix} {tag}"),
                );
                assert_eq!(block_decodes(), before, "a fused scan decoded: {tag}");
            }
            if encoding.is_none() {
                assert_one_predicate_plans_agree(&frozen, t, pred, &format!("frozen {tag}"));
            }
            // The hot tail grows past the frozen prefix: new rows land
            // behind it and the activity words lengthen with them.
            let mut grown = t.clone();
            let tail: Vec<i64> = (0..70)
                .map(|i| pred.lo.saturating_add(i * 3 - 30))
                .collect();
            grown.insert_batch(&tail, 2).unwrap();
            frozen.insert_batch(&tail, 2).unwrap();
            assert_serial_kernels_agree(
                &frozen,
                &grown,
                pred,
                false,
                true,
                &format!("grown tail {tag}"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn vectorized_equals_scalar_equals_parallel(
        values in proptest::collection::vec(-5_000i64..5_000, 0..700),
        pattern in forget_pattern(),
        lo in -6_000i64..6_000,
        width in 0i64..8_000,
        seed in any::<u64>(),
    ) {
        let t = build_table(&values, pattern, seed);
        let pred = RangePredicate::new(lo, lo.saturating_add(width));
        assert_all_kernels_agree(&t, pred, &format!("n={} {pattern:?}", values.len()));
    }
}

#[test]
fn boundary_sizes_and_forget_patterns() {
    // Deterministic sweep of the sizes where word masking goes wrong.
    for n in [0usize, 1, 63, 64, 65, 1023, 1024, 1025] {
        let mut rng = SimRng::new(n as u64 + 1);
        let values: Vec<i64> = (0..n).map(|_| rng.range_i64(0, 1_000)).collect();
        for pattern in [
            ForgetPattern::None,
            ForgetPattern::Quarter,
            ForgetPattern::All,
        ] {
            let t = build_table(&values, pattern, 99);
            for pred in [
                RangePredicate::new(0, 1_000), // everything
                RangePredicate::new(250, 500), // selective
                RangePredicate::new(900, 100), // empty (inverted)
            ] {
                assert_all_kernels_agree(&t, pred, &format!("n={n} {pattern:?}"));
            }
        }
    }
}

/// Assert a tiered table and its never-frozen twin answer every kernel
/// identically: scans, counts, aggregates of every kind with and without
/// predicates, the same scans and folds as one-predicate plans (serial +
/// parallel, all thread counts), and — while no lossy transition has run
/// — the complete-scan regime. The twin's scalar kernels are the ground
/// truth. Runs under whichever SIMD mode the process was started in —
/// CI's matrix covers both native and `AMNESIA_PORTABLE_ONLY`.
///
/// `scan_all_comparable` must be false once a recompression actually
/// re-encoded a block (or a block was dropped): both transitions destroy
/// *forgotten* rows' values by design, so the ScanSeesForgotten regime
/// legitimately diverges from the flat twin afterwards — active-only
/// answers are the invariant that survives every transition.
fn assert_tiered_equals_flat(
    tiered: &Table,
    flat: &Table,
    pred: RangePredicate,
    scan_all_comparable: bool,
    ctx: &str,
) {
    assert_serial_kernels_agree(tiered, flat, pred, false, scan_all_comparable, ctx);
    assert_one_predicate_plans_agree(tiered, flat, pred, ctx);
}

/// The join `left.a = right.a` as a [`PhysicalPlan`] emitting both key
/// columns: serial and parallel runs must agree with each other and with
/// `want_pairs` — the hash join's pairs, in its canonical order, whatever
/// build side or join strategy the cost model picked.
fn assert_join_plan_equals(left: &Table, right: &Table, want_pairs: &[(RowId, RowId)], ctx: &str) {
    let scan = |label: &str| PhysScan {
        preds: Vec::new(),
        label: label.into(),
    };
    let key = |slot| PhysItem::Column {
        slot,
        col: 0,
        display: "a".into(),
    };
    let plan = PhysicalPlan {
        scans: vec![scan("Scan l [active-only]"), scan("Scan r [active-only]")],
        join: Some(JoinSpec {
            left_col: 0,
            right_col: 0,
            display: "l.a = r.a".into(),
        }),
        items: vec![key(0), key(1)],
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    };
    let want: Vec<Vec<Scalar>> = want_pairs
        .iter()
        .map(|&(l, r)| {
            vec![
                Scalar::Int(left.value(0, l)),
                Scalar::Int(right.value(0, r)),
            ]
        })
        .collect();
    let serial = serial().execute_plan(&[left, right], &[], &plan);
    assert_eq!(serial.rows, want, "join plan {ctx}");
    assert_eq!(serial.stats.join_pairs, want_pairs.len(), "join plan {ctx}");
    assert_plan_parallel_equals_serial(&[left, right], &plan, &format!("join {ctx}"));
}

/// The tiered self-join must equal the dense twin's self-join *exactly* —
/// same pairs in the same order (build rows ascend per key, probe rows
/// right-major), same count, and the same rows from the join plan across
/// serial and parallel probes. Active-only
/// answers survive every tier transition, so this runs even after lossy
/// recompressions.
fn assert_tiered_join_equals_flat(tiered: &Table, flat: &Table, ctx: &str) {
    let want = hash_join(flat, 0, flat, 0, ForgetVisibility::ActiveOnly);
    let got = hash_join(tiered, 0, tiered, 0, ForgetVisibility::ActiveOnly);
    assert_eq!(got.pairs, want.pairs, "tiered join pairs {ctx}");
    assert_eq!(
        got.stats.build_distinct_keys, want.stats.build_distinct_keys,
        "tiered join distinct keys {ctx}"
    );
    assert_eq!(got.stats.build_rows, want.stats.build_rows, "{ctx}");
    assert_eq!(got.stats.output_pairs, want.stats.output_pairs, "{ctx}");
    assert_eq!(
        hash_join_count(tiered, 0, tiered, 0, ForgetVisibility::ActiveOnly),
        want.stats.output_pairs,
        "tiered join count {ctx}"
    );
    assert_join_plan_equals(tiered, tiered, &want.pairs, ctx);
}

/// Randomized freeze/forget/thaw/drop/recompress/vacuum/query
/// interleavings: after every transition the tiered table must keep
/// answering exactly like its never-frozen twin, across block sizes and
/// every pinned codec plus the automatic chooser.
#[test]
fn tiered_interleavings_match_flat_storage() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 1u64),
        (64, Some(Encoding::Rle), 2),
        // Seed 102 previously tripped the scan-all comparison after an
        // RLE recompression — kept as a regression case for the lossy
        // gating.
        (64, Some(Encoding::Rle), 102),
        (64, Some(Encoding::Dict), 3),
        (128, Some(Encoding::Delta), 4),
        (128, Some(Encoding::ForPack), 5),
        (1024, Some(Encoding::Plain), 6),
        (1024, None, 7),
        (64, Some(Encoding::RunBits), 8),
        (1024, Some(Encoding::RunBits), 9),
    ] {
        let mut rng = SimRng::new(seed);
        let mut flat = Table::new(Schema::single("a"));
        let mut tiered = Table::with_block_rows(Schema::single("a"), block_rows);
        tiered.pin_encoding(0, encoding);
        let ctx = format!("block_rows={block_rows} enc={encoding:?} seed={seed}");
        // Set once a transition destroys forgotten rows' values (a
        // recompression that actually re-encoded): active-only answers
        // stay exact forever, but the complete-scan regime legitimately
        // diverges from the flat twin. Vacuum rebuilds both twins from
        // survivors only, which makes them byte-identical again.
        let mut lossy = false;
        for step in 0..12 {
            // Mutate: insert a batch, forget some rows, then a random
            // tier transition.
            let n = 100 + (rng.range_i64(0, 400) as usize);
            let values: Vec<i64> = (0..n).map(|_| rng.range_i64(-500, 500)).collect();
            flat.insert_batch(&values, step).unwrap();
            tiered.insert_batch(&values, step).unwrap();
            for _ in 0..n / 3 {
                if let Some(r) = flat.random_active(&mut rng) {
                    flat.forget(r, step).unwrap();
                    tiered.forget(r, step).unwrap();
                }
            }
            match rng.range_i64(0, 6) {
                0 | 1 => {
                    let upto = rng.range_i64(0, flat.num_rows() as i64 + 1) as usize;
                    tiered.freeze_upto(upto);
                }
                2 => {
                    tiered.freeze_upto(tiered.num_rows());
                }
                3 => {
                    let nb = tiered.frozen_blocks();
                    if nb > 0 {
                        tiered.thaw_block(rng.range_i64(0, nb as i64) as usize);
                    }
                }
                4 => {
                    let (reencoded, _) = tiered.recompress_frozen(0.9);
                    lossy |= reencoded > 0;
                }
                _ => {
                    // Vacuum both twins identically; the compacted tiered
                    // table comes back hot (survivor values only, so the
                    // twins are byte-identical again) and refreezes later.
                    let keep_flat = vacuum(&flat);
                    let keep_tiered = vacuum(&tiered);
                    assert_eq!(
                        keep_flat.removed, keep_tiered.removed,
                        "vacuum parity {ctx}"
                    );
                    flat = keep_flat.table;
                    tiered = keep_tiered.table;
                    lossy = false;
                }
            }
            tiered.check_invariants().unwrap();
            assert_eq!(tiered.num_rows(), flat.num_rows(), "{ctx} step {step}");
            // Query: a selective, a covering, and an empty predicate.
            for pred in [
                RangePredicate::new(rng.range_i64(-500, 400), rng.range_i64(-400, 500)),
                RangePredicate::new(-500, 500),
                RangePredicate::new(400, -400),
            ] {
                assert_tiered_equals_flat(
                    &tiered,
                    &flat,
                    pred,
                    !lossy,
                    &format!("{ctx} step {step}"),
                );
            }
            // Joins ride the same interleavings: build and probe must
            // read the exact tier layout this step produced.
            assert_tiered_join_equals_flat(&tiered, &flat, &format!("{ctx} step {step}"));
        }
        // Dropping fully-forgotten blocks keeps active answers intact.
        tiered.freeze_upto(tiered.num_rows());
        let (_, _) = tiered.drop_forgotten_blocks();
        for pred in [
            RangePredicate::new(-500, 500),
            RangePredicate::new(-100, 100),
        ] {
            let reference = scalar::range_scan_active(&flat, 0, pred);
            assert_eq!(
                kernels::range_scan_active(&tiered, 0, pred),
                reference,
                "{ctx} after drop"
            );
        }
    }
}

/// Tiered join == dense-materialized join across every codec × block
/// size × freeze/forget/recompress/drop interleaving, on a two-table
/// (parent/child) shape where the build and probe sides freeze
/// *independently* — left frozen/right hot, left hot/right frozen, both
/// frozen, recompressed, partially dropped. The flat twins are the
/// ground truth; pair order must match bit-for-bit.
#[test]
fn tiered_join_equals_dense_join_across_codecs() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 41u64),
        (64, Some(Encoding::Rle), 42),
        (64, Some(Encoding::Dict), 43),
        (128, Some(Encoding::Delta), 44),
        (128, Some(Encoding::ForPack), 45),
        (1024, Some(Encoding::Plain), 46),
        (1024, None, 47),
        (64, Some(Encoding::RunBits), 48),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?} seed={seed}");
        let mut rng = SimRng::new(seed);
        // Parent: distinct-ish keys; child: skewed fks — a handful of hot
        // keys so dict/rle structure actually appears in frozen blocks.
        let parent_vals: Vec<i64> = (0..700).map(|i| i % 400).collect();
        let child_vals: Vec<i64> = (0..1_500)
            .map(|_| {
                let r = rng.f64();
                (r * r * 400.0) as i64
            })
            .collect();
        let mut flat_parent = Table::new(Schema::single("k"));
        flat_parent.insert_batch(&parent_vals, 0).unwrap();
        let mut flat_child = Table::new(Schema::single("fk"));
        flat_child.insert_batch(&child_vals, 0).unwrap();
        let mut parent = Table::with_block_rows(Schema::single("k"), block_rows);
        parent.pin_encoding(0, encoding);
        parent.insert_batch(&parent_vals, 0).unwrap();
        let mut child = Table::with_block_rows(Schema::single("fk"), block_rows);
        child.pin_encoding(0, encoding);
        child.insert_batch(&child_vals, 0).unwrap();
        for _ in 0..300 {
            if let Some(r) = flat_parent.random_active(&mut rng) {
                flat_parent.forget(r, 1).unwrap();
                parent.forget(r, 1).unwrap();
            }
            if let Some(r) = flat_child.random_active(&mut rng) {
                flat_child.forget(r, 1).unwrap();
                child.forget(r, 1).unwrap();
            }
        }

        let check = |flat_parent: &Table,
                     flat_child: &Table,
                     parent: &Table,
                     child: &Table,
                     stage: &str| {
            let want = hash_join(flat_parent, 0, flat_child, 0, ForgetVisibility::ActiveOnly);
            let got = hash_join(parent, 0, child, 0, ForgetVisibility::ActiveOnly);
            assert_eq!(got.pairs, want.pairs, "{ctx} {stage}");
            assert_eq!(
                got.stats.build_distinct_keys,
                want.stats.build_distinct_keys
            );
            assert_eq!(
                hash_join_count(parent, 0, child, 0, ForgetVisibility::ActiveOnly),
                want.stats.output_pairs,
                "{ctx} {stage} count"
            );
            assert_join_plan_equals(parent, child, &want.pairs, &format!("{ctx} {stage}"));
        };

        // Hot × hot (sanity), then every frozen combination.
        check(&flat_parent, &flat_child, &parent, &child, "hot/hot");
        parent.freeze_upto(parent.num_rows());
        check(&flat_parent, &flat_child, &parent, &child, "frozen/hot");
        child.freeze_upto(child.num_rows() / 2);
        check(&flat_parent, &flat_child, &parent, &child, "frozen/mixed");
        child.freeze_upto(child.num_rows());
        check(&flat_parent, &flat_child, &parent, &child, "frozen/frozen");
        // Ground truth (forgotten rows included) holds while no lossy
        // transition has run.
        let truth_want = hash_join(
            &flat_parent,
            0,
            &flat_child,
            0,
            ForgetVisibility::ScanSeesForgotten,
        );
        let truth_got = hash_join(&parent, 0, &child, 0, ForgetVisibility::ScanSeesForgotten);
        assert_eq!(truth_got.pairs, truth_want.pairs, "{ctx} ground truth");
        // Recompress squashes forgotten values; active answers must hold.
        parent.recompress_frozen(0.95);
        child.recompress_frozen(0.95);
        check(&flat_parent, &flat_child, &parent, &child, "recompressed");
        // Forget a whole child block and drop it: its pairs vanish from
        // both twins because the *flat* twin forgets the same rows.
        let doomed: Vec<RowId> = (0..block_rows.min(child.num_rows()))
            .map(RowId::from)
            .collect();
        for &r in &doomed {
            if flat_child.activity().is_active(r) {
                flat_child.forget(r, 2).unwrap();
                child.forget(r, 2).unwrap();
            }
        }
        child.drop_forgotten_blocks();
        check(&flat_parent, &flat_child, &parent, &child, "dropped");
    }
}

/// The acceptance gate for "zero dense materialization": a tiered join
/// over fully frozen RLE/dict tables must not decode a single block —
/// build streams runs/codes, probe stays in compressed space. The
/// per-thread decode counter pins it.
#[test]
fn tiered_join_never_decodes_frozen_blocks() {
    for encoding in [
        Encoding::Rle,
        Encoding::Dict,
        Encoding::ForPack,
        Encoding::Delta,
        Encoding::RunBits,
    ] {
        let mut left = Table::with_block_rows(Schema::single("k"), 256);
        left.pin_encoding(0, Some(encoding));
        left.insert_batch(&(0..2_048).map(|i| i / 8).collect::<Vec<i64>>(), 0)
            .unwrap();
        let mut right = Table::with_block_rows(Schema::single("fk"), 256);
        right.pin_encoding(0, Some(encoding));
        right
            .insert_batch(&(0..2_048).map(|i| i % 300).collect::<Vec<i64>>(), 0)
            .unwrap();
        for r in (0..2_048u64).step_by(5) {
            left.forget(RowId(r), 1).unwrap();
            right.forget(RowId(r), 1).unwrap();
        }
        left.freeze_upto(2_048);
        right.freeze_upto(2_048);
        let dense_want = {
            // Dense reference computed before the counter snapshot (it
            // decodes on purpose).
            let l: Vec<i64> = (0..2_048).map(|r| left.value(0, RowId::from(r))).collect();
            let r: Vec<i64> = (0..2_048)
                .map(|row| right.value(0, RowId::from(row)))
                .collect();
            let mut pairs = Vec::new();
            for probe in right.iter_active() {
                for build in left.iter_active() {
                    if l[build.as_usize()] == r[probe.as_usize()] {
                        pairs.push((build, probe));
                    }
                }
            }
            pairs.sort_by_key(|&(l, r)| (r, l));
            pairs
        };
        let before = block_decodes();
        let got = hash_join(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        let count = hash_join_count(&left, 0, &right, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(
            block_decodes() - before,
            0,
            "{encoding:?}: tiered join must not decode any frozen block"
        );
        let mut sorted = got.pairs.clone();
        sorted.sort_by_key(|&(l, r)| (r, l));
        assert_eq!(sorted, dense_want, "{encoding:?}");
        assert_eq!(count, got.pairs.len(), "{encoding:?}");
    }
}

#[test]
fn join_kernels_agree_with_row_at_a_time_reference() {
    use amnesia::engine::join::{hash_join, hash_join_count};
    use amnesia::engine::ForgetVisibility;

    let mut rng = SimRng::new(77);
    let mut left = Table::new(Schema::single("k"));
    let left_vals: Vec<i64> = (0..500).map(|_| rng.range_i64(0, 50)).collect();
    left.insert_batch(&left_vals, 0).unwrap();
    let mut right = Table::new(Schema::single("k"));
    let right_vals: Vec<i64> = (0..800).map(|_| rng.range_i64(0, 50)).collect();
    right.insert_batch(&right_vals, 0).unwrap();
    for _ in 0..150 {
        if let Some(r) = left.random_active(&mut rng) {
            left.forget(r, 1).unwrap();
        }
        if let Some(r) = right.random_active(&mut rng) {
            right.forget(r, 1).unwrap();
        }
    }

    for vis in [
        ForgetVisibility::ActiveOnly,
        ForgetVisibility::ScanSeesForgotten,
    ] {
        let result = hash_join(&left, 0, &right, 0, vis);
        // Row-at-a-time reference join.
        let mut expect = Vec::new();
        let rows = |t: &Table| -> Vec<RowId> {
            match vis {
                ForgetVisibility::ActiveOnly => t.active_row_ids(),
                ForgetVisibility::ScanSeesForgotten => (0..t.num_rows()).map(RowId::from).collect(),
            }
        };
        for &r in &rows(&right) {
            for &l in &rows(&left) {
                if left_vals[l.as_usize()] == right_vals[r.as_usize()] {
                    expect.push((l, r));
                }
            }
        }
        let mut got = result.pairs.clone();
        got.sort();
        expect.sort();
        assert_eq!(got, expect, "{vis:?}");
        assert_eq!(
            hash_join_count(&left, 0, &right, 0, vis),
            expect.len(),
            "{vis:?} count"
        );
    }
}

// ===================================================================
// Morsel scheduler: PhysicalPlan execution, parallel == serial
// ===================================================================

use amnesia::engine::physical::JoinSpec;
use amnesia::engine::{
    ColPred, ExecMode, Executor, PhysItem, PhysScan, PhysicalPlan, PlanHint, Scalar, SortDir,
};

/// Non-power-of-two worker counts included on purpose: uneven morsel
/// partitions are where merge-order bugs live. `Parallel(1)` is one
/// worker by another name.
const PLAN_THREADS: [usize; 4] = [1, 2, 7, 8];

/// Small morsels so even the few-thousand-row test tables split into
/// many morsels per stage (the default 16K-row morsel cuts them into one
/// or two).
const SMALL_MORSEL: usize = 128;

/// The one-worker executor every width is compared against.
fn serial() -> Executor {
    Executor::default().with_exec_mode(ExecMode::Serial)
}

/// Run `plan` on one worker and at every pool width, at the small and at
/// the default morsel size. The rows must be byte-identical and so must
/// every work counter — pruning, per-predicate attribution, estimates,
/// join and group cardinalities, the plan tag: only the scheduler's own
/// accounting (`planned` masks it) may depend on how the table was cut.
/// No width may add block decodes over fully-frozen tables.
fn assert_plan_parallel_equals_serial(tables: &[&Table], plan: &PhysicalPlan, ctx: &str) {
    let serial = serial().execute_plan(tables, &[], plan);
    for threads in PLAN_THREADS {
        for morsel_rows in [Some(SMALL_MORSEL), None] {
            let ctx = format!("{threads} threads, morsel {morsel_rows:?}: {ctx}");
            let pool = Executor::default().with_exec_mode(ExecMode::Parallel(threads));
            let pool = match morsel_rows {
                Some(rows) => pool.with_morsel_rows(rows),
                None => pool,
            };
            let before = block_decodes();
            let par = pool.execute_plan(tables, &[], plan);
            let decoded = block_decodes() - before;
            assert_eq!(par.rows, serial.rows, "plan output diverged at {ctx}");
            assert_eq!(
                common::planned(&par.stats),
                common::planned(&serial.stats),
                "work accounting diverged at {ctx}"
            );
            let fully_frozen = tables
                .iter()
                .all(|t| t.frozen_blocks() * t.block_rows() >= t.num_rows());
            if fully_frozen {
                assert_eq!(
                    decoded, 0,
                    "plan over fully-frozen tables decoded {decoded} blocks at {ctx}"
                );
            }
        }
    }
}

/// The grouped-aggregate plan shape (scan → group → sort → limit).
fn grouped_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![ColPred::range(1, 100, 700), ColPred::range(2, 10, 80)],
            label: "Scan t [active-only]".into(),
        }],
        join: None,
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 0,
                display: "g".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "n".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Sum,
                arg: Some((0, 1)),
                display: "s".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Avg,
                arg: Some((0, 2)),
                display: "m".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Min,
                arg: Some((0, 1)),
                display: "lo".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Max,
                arg: Some((0, 1)),
                display: "hi".into(),
            },
        ],
        group_by: Some((0, 0, "g".into())),
        order_by: Some((2, SortDir::Desc)),
        limit: Some(16),
        hint: PlanHint::CostBased,
    }
}

/// Selective projection with an ORDER BY (exercises the parallel sort
/// merge) and no LIMIT (every surviving row must come back, in order).
fn projection_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![ColPred::range(1, 0, 500)],
            label: "Scan t [active-only]".into(),
        }],
        join: None,
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 0,
                display: "g".into(),
            },
            PhysItem::Column {
                slot: 0,
                col: 2,
                display: "b".into(),
            },
        ],
        group_by: None,
        order_by: Some((1, SortDir::Asc)),
        limit: None,
        hint: PlanHint::CostBased,
    }
}

/// Global (ungrouped) aggregate — the per-chunk AggState merge path.
fn global_agg_plan() -> PhysicalPlan {
    PhysicalPlan {
        scans: vec![PhysScan {
            preds: vec![ColPred::range(1, 50, 900)],
            label: "Scan t [active-only]".into(),
        }],
        join: None,
        items: vec![
            PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "n".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Sum,
                arg: Some((0, 2)),
                display: "s".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Avg,
                arg: Some((0, 1)),
                display: "m".into(),
            },
        ],
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    }
}

/// A three-column table (`g`, `a`, `b`) under a pinned codec.
fn plan_table(block_rows: usize, encoding: Option<Encoding>, n: usize, seed: u64) -> Table {
    let mut rng = SimRng::new(seed);
    let mut t = Table::with_block_rows(Schema::new(vec!["g", "a", "b"]), block_rows);
    for c in 0..3 {
        t.pin_encoding(c, encoding);
    }
    for i in 0..n {
        // `g` cycles (dict/rle-friendly), `a` trends (delta-friendly),
        // `b` is noise (forpack-friendly).
        t.insert(
            &[
                (i % 23) as i64,
                (i as i64 / 4) % 1_000,
                rng.range_i64(0, 100),
            ],
            0,
        )
        .unwrap();
    }
    t
}

/// `execute_plan` under `ExecMode::Parallel` must match the serial path
/// byte-for-byte across codecs × block sizes × thread counts ×
/// freeze/forget/recompress interleavings, without extra block decodes
/// once the table is fully frozen.
#[test]
fn physical_plans_parallel_equals_serial_across_tiers() {
    for (block_rows, encoding, seed) in [
        (64usize, None, 11u64),
        (64, Some(Encoding::Rle), 12),
        (64, Some(Encoding::Dict), 13),
        (128, Some(Encoding::Delta), 14),
        (128, Some(Encoding::ForPack), 15),
        (256, Some(Encoding::Plain), 16),
        (1024, None, 17),
        (64, Some(Encoding::RunBits), 18),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?}");
        let mut rng = SimRng::new(seed);
        let mut t = plan_table(block_rows, encoding, 3_000, seed);
        let plans = [grouped_plan(), projection_plan(), global_agg_plan()];
        let check = |t: &Table, stage: &str| {
            for (i, plan) in plans.iter().enumerate() {
                assert_plan_parallel_equals_serial(&[t], plan, &format!("{ctx} plan#{i} {stage}"));
            }
        };
        check(&t, "hot");
        for _ in 0..700 {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 1).unwrap();
            }
        }
        check(&t, "hot+forgets");
        t.freeze_upto(t.num_rows() / 2);
        check(&t, "half-frozen");
        t.freeze_upto(t.num_rows());
        check(&t, "frozen");
        for _ in 0..400 {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 2).unwrap();
            }
        }
        check(&t, "frozen+forgets");
        t.recompress_frozen(0.9);
        check(&t, "recompressed");
        for i in 0..900 {
            t.insert(&[i % 23, 400 + (i % 300), rng.range_i64(0, 100)], 3)
                .unwrap();
        }
        check(&t, "regrown-tail");
    }
}

/// A hot table and its frozen twin on a correlated column: the hot
/// blocks' metas prune exactly the blocks the frozen metas prune, so the
/// two return identical rows and count identical work — through the
/// single-column kernels, a one-predicate plan under `Serial` and
/// `Parallel(2)` (at a morsel size that cuts blocks in two), and a join
/// probe against a narrow build side. The forgets spare each block's
/// first and last rows (the column ascends), so the hot bounds over all
/// values and the frozen bounds over active ones coincide.
#[test]
fn hot_and_frozen_twins_prune_the_same_blocks() {
    let br = 256;
    let n = 16 * br + 100;
    let mut hot = Table::with_block_rows(Schema::new(vec!["a", "b"]), br);
    for i in 0..n {
        hot.insert(&[i as i64, (i % 7) as i64], 0).unwrap();
    }
    let mut rng = SimRng::new(34);
    for r in 0..n {
        let edge = r % br == 0 || r % br == br - 1;
        if (3 * br..4 * br).contains(&r) || (!edge && rng.chance(0.25)) {
            hot.forget(RowId::from(r), 1).unwrap();
        }
    }
    let mut frozen = hot.clone();
    frozen.freeze_upto(n);
    assert_eq!(frozen.frozen_blocks(), 16);
    assert_eq!(hot.col_tier(0).full_blocks(), 16);
    let mut keys = Table::single("k");
    keys.insert_batch(&(1_000..1_100).collect::<Vec<i64>>(), 0)
        .unwrap();
    let span = n as i64;
    for (lo, hi, pruned) in [
        (700, 1_300, 13),
        (3 * 256 + 10, 5 * 256, 15),
        (0, span, 1),
        (span - 50, span, 16),
        (-10, 0, 16),
    ] {
        let pred = RangePredicate::new(lo, hi);
        let ctx = format!("[{lo}, {hi})");
        let (rows, stats) = kernels::range_scan_tiered(&hot, 0, pred);
        assert_eq!(
            (rows, stats),
            kernels::range_scan_tiered(&frozen, 0, pred),
            "{ctx}"
        );
        assert_eq!(stats.blocks_pruned, pruned, "{ctx}");
        assert_eq!(
            kernels::aggregate_state_tiered(&hot, 0, Some(pred)).1,
            kernels::aggregate_state_tiered(&frozen, 0, Some(pred)).1,
            "{ctx}"
        );
        assert_serial_kernels_agree(&hot, &hot, pred, true, true, &ctx);
        // A two-predicate scan attributes each pruned block to the first
        // predicate that killed it; the forgotten block 3 goes to none.
        let preds = [ColPred::range(1, 0, 6), ColPred::from_range(0, pred)];
        let scan = |t: &Table| {
            let mut per_pred = vec![kernels::PredScanStats::default(); 2];
            let (sel, stats) = kernels::selection_scan_ordered(t, &preds, &[0, 1], &mut per_pred);
            let pruned: Vec<usize> = per_pred.iter().map(|p| p.blocks_pruned).collect();
            (sel, stats, pruned)
        };
        let (h, f) = (scan(&hot), scan(&frozen));
        assert_eq!((&h.0, h.1, &h.2), (&f.0, f.1, &f.2), "{ctx}");
        assert_eq!(h.2, [0, pruned - 1], "{ctx}");
        let plan = PhysicalPlan {
            scans: vec![PhysScan {
                preds: vec![ColPred::from_range(0, pred)],
                label: "Scan t [active-only]".into(),
            }],
            join: None,
            items: vec![PhysItem::Column {
                slot: 0,
                col: 1,
                display: "b".into(),
            }],
            group_by: None,
            order_by: None,
            limit: None,
            hint: PlanHint::CostBased,
        };
        for mode in [ExecMode::Serial, ExecMode::Parallel(2)] {
            let exec = Executor::default()
                .with_exec_mode(mode)
                .with_morsel_rows(br + br / 2);
            let (h, f) = (
                exec.execute_plan(&[&hot], &[], &plan),
                exec.execute_plan(&[&frozen], &[], &plan),
            );
            assert_eq!(h.rows, f.rows, "{mode:?} {ctx}");
            assert_eq!(h.stats.blocks_pruned, pruned, "{mode:?} {ctx}");
            assert_eq!(f.stats.blocks_pruned, pruned, "{mode:?} {ctx}");
            assert_eq!(h.stats.rows_scanned, f.stats.rows_scanned, "{mode:?} {ctx}");
        }
    }
    let (h, f) = (
        hash_join(&keys, 0, &hot, 0, ForgetVisibility::ActiveOnly),
        hash_join(&keys, 0, &frozen, 0, ForgetVisibility::ActiveOnly),
    );
    assert_eq!(h, f);
    assert_eq!(
        h.stats.blocks_pruned, 15,
        "block 4 meets the keys, block 3 is forgotten"
    );
}

/// The two-table join plan: parallel build/probe/gather must reproduce
/// the serial pair stream exactly, across independent freeze states of
/// the two sides.
#[test]
fn join_plans_parallel_equals_serial_across_tiers() {
    let join_plan = PhysicalPlan {
        scans: vec![
            PhysScan {
                preds: vec![],
                label: "Scan parent [active-only]".into(),
            },
            PhysScan {
                preds: vec![ColPred::range(1, 0, 600)],
                label: "Scan child [active-only]".into(),
            },
        ],
        join: Some(JoinSpec {
            left_col: 0,
            right_col: 0,
            display: "parent.k = child.fk".into(),
        }),
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 1,
                display: "pa".into(),
            },
            PhysItem::Column {
                slot: 1,
                col: 2,
                display: "cb".into(),
            },
        ],
        group_by: None,
        order_by: None,
        limit: None,
        hint: PlanHint::CostBased,
    };
    let grouped_join_plan = PhysicalPlan {
        items: vec![
            PhysItem::Column {
                slot: 0,
                col: 0,
                display: "k".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Count,
                arg: None,
                display: "n".into(),
            },
            PhysItem::Aggregate {
                kind: AggKind::Sum,
                arg: Some((1, 2)),
                display: "s".into(),
            },
        ],
        group_by: Some((0, 0, "k".into())),
        order_by: Some((2, SortDir::Desc)),
        limit: Some(8),
        ..join_plan.clone()
    };
    for (block_rows, encoding) in [
        (64usize, Some(Encoding::Dict)),
        (64, Some(Encoding::Rle)),
        (64, Some(Encoding::RunBits)),
        (128, None),
    ] {
        let ctx = format!("block_rows={block_rows} enc={encoding:?}");
        let mut rng = SimRng::new(31);
        let mut parent = plan_table(block_rows, encoding, 1_200, 32);
        let mut child = plan_table(block_rows, encoding, 2_400, 33);
        for _ in 0..500 {
            if let Some(r) = parent.random_active(&mut rng) {
                parent.forget(r, 1).unwrap();
            }
            if let Some(r) = child.random_active(&mut rng) {
                child.forget(r, 1).unwrap();
            }
        }
        let check = |p: &Table, c: &Table, stage: &str| {
            assert_plan_parallel_equals_serial(&[p, c], &join_plan, &format!("{ctx} {stage}"));
            assert_plan_parallel_equals_serial(
                &[p, c],
                &grouped_join_plan,
                &format!("{ctx} grouped {stage}"),
            );
        };
        check(&parent, &child, "hot/hot");
        parent.freeze_upto(parent.num_rows());
        check(&parent, &child, "frozen/hot");
        child.freeze_upto(child.num_rows() / 2);
        check(&parent, &child, "frozen/mixed");
        child.freeze_upto(child.num_rows());
        check(&parent, &child, "frozen/frozen");
        parent.recompress_frozen(0.95);
        child.recompress_frozen(0.95);
        check(&parent, &child, "recompressed");
    }
}

// ---- packed codecs: the 64-row group kernels against a per-value oracle

mod packed_codecs {
    use amnesia::columnar::compress::varint::{read_signed, read_varint, zigzag_encode};
    use amnesia::columnar::compress::{
        block_decodes, dict, forpack, runbits, BlockAgg, EncodedBlock, Encoding,
    };
    use amnesia::prelude::SimRng;

    const LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 1_000, 1_024, 4_103];

    fn low_ones(n: u32) -> u64 {
        if n >= 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    fn write_signed(buf: &mut Vec<u8>, v: i64) {
        write_varint(buf, zigzag_encode(v));
    }

    /// The encoders' bit packer: `width` bits per field, LSB-first across
    /// little-endian words, the last word zero-padded.
    fn pack(buf: &mut Vec<u8>, width: u32, fields: &[u64]) {
        let (mut word, mut filled) = (0u64, 0u32);
        for &field in fields {
            let (mut remaining, mut chunk) = (width, field);
            while remaining > 0 {
                let take = remaining.min(64 - filled);
                word |= (chunk & low_ones(take)) << filled;
                filled += take;
                chunk = chunk.checked_shr(take).unwrap_or(0);
                remaining -= take;
                if filled == 64 {
                    buf.extend_from_slice(&word.to_le_bytes());
                    (word, filled) = (0, 0);
                }
            }
        }
        if filled > 0 {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    }

    /// THE ORACLE: the per-value bit walk every packed read path used
    /// before the group kernels — copy the region into words, then unpack
    /// one field at a time through a `while got < width` loop.
    fn oracle_unpack(region: &[u8], width: u32, count: usize) -> Vec<u64> {
        let words: Vec<u64> = region
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let mut bit_pos = 0usize;
        (0..count)
            .map(|_| {
                let (mut field, mut got) = (0u64, 0u32);
                while got < width {
                    let in_word = (bit_pos % 64) as u32;
                    let take = (width - got).min(64 - in_word);
                    field |= ((words[bit_pos / 64] >> in_word) & low_ones(take)) << got;
                    got += take;
                    bit_pos += take as usize;
                }
                field
            })
            .collect()
    }

    fn oracle_decode(encoding: Encoding, data: &[u8]) -> Vec<i64> {
        let mut pos = 0;
        let count = read_varint(data, &mut pos) as usize;
        if count == 0 {
            return Vec::new();
        }
        match encoding {
            Encoding::ForPack => {
                let min = read_signed(data, &mut pos) as i128;
                oracle_unpack(&data[pos + 1..], data[pos].into(), count)
                    .into_iter()
                    .map(|off| (min + off as i128) as i64)
                    .collect()
            }
            Encoding::Dict => {
                let mut prev = 0i64;
                let dictionary: Vec<i64> = (0..read_varint(data, &mut pos))
                    .map(|_| {
                        prev = prev.wrapping_add(read_signed(data, &mut pos));
                        prev
                    })
                    .collect();
                oracle_unpack(&data[pos + 1..], data[pos].into(), count)
                    .into_iter()
                    .map(|code| dictionary[code as usize])
                    .collect()
            }
            other => panic!("{other:?} is not a packed codec"),
        }
    }

    /// A forpack payload at exactly `width` bits (wider than the span
    /// needs is legal for the decoder, and the only way to pair every
    /// width with every length).
    fn forpack_payload(min: i64, width: u32, offsets: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, offsets.len() as u64);
        if !offsets.is_empty() {
            write_signed(&mut buf, min);
            buf.push(width as u8);
            pack(&mut buf, width, offsets);
        }
        buf
    }

    fn dict_payload(dictionary: &[i64], width: u32, codes: &[u64]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, codes.len() as u64);
        if !codes.is_empty() {
            write_varint(&mut buf, dictionary.len() as u64);
            let mut prev = 0i64;
            for &v in dictionary {
                write_signed(&mut buf, v.wrapping_sub(prev));
                prev = v;
            }
            buf.push(width as u8);
            pack(&mut buf, width, codes);
        }
        buf
    }

    /// Frame minimum for a `width`-bit forpack block: the extremes of
    /// `i64` wherever the band still fits.
    fn frame_min(rng: &mut SimRng, width: u32) -> i64 {
        let top = (i64::MAX as i128 - low_ones(width) as i128).max(i64::MIN as i128) as i64;
        match rng.index(4) {
            0 => i64::MIN,
            1 => top,
            2 => 0i64.min(top),
            _ => rng.range_i64(i64::MIN / 2, 0).min(top),
        }
    }

    fn random_fields(rng: &mut SimRng, len: usize, max: u64) -> Vec<u64> {
        let mut fields: Vec<u64> = (0..len)
            .map(|_| match max {
                u64::MAX => rng.next_u64(),
                max => rng.below(max + 1),
            })
            .collect();
        // Both ends of the band are present whenever there is room.
        if len >= 2 {
            let at = rng.index(len);
            fields[at] = 0;
            fields[(at + 1 + rng.index(len - 1)) % len] = max;
        }
        fields
    }

    /// Sorted, distinct dictionary of `n` entries, extremes included now
    /// and then.
    fn random_dictionary(rng: &mut SimRng, n: usize) -> Vec<i64> {
        let mut d: Vec<i64> = (0..n)
            .map(|i| match (i, rng.index(3)) {
                (0, 0) => i64::MIN,
                (1, 0) => i64::MAX,
                (_, 1) => rng.range_i64(-1_000, 1_000),
                _ => rng.next_u64() as i64,
            })
            .collect();
        d.sort_unstable();
        d.dedup();
        d
    }

    /// `[lo, hi)` bounds around a block whose codec frame is
    /// `[frame_lo, frame_hi]`: empty, the whole domain, the `i64`
    /// extremes, entirely below / above the frame, single values, the
    /// frame edges, and random interiors.
    fn bounds(rng: &mut SimRng, values: &[i64], frame_lo: i64, frame_hi: i64) -> Vec<(i64, i64)> {
        let pick = |rng: &mut SimRng| match values.len() {
            0 => 0,
            n => values[rng.index(n)],
        };
        let (a, b) = (pick(rng), pick(rng));
        vec![
            (a, a),
            (a.max(b), a.min(b)),
            (i64::MIN, i64::MAX),
            (i64::MIN, a),
            (a, i64::MAX),
            (i64::MIN, i64::MIN + 1),
            (i64::MAX - 1, i64::MAX),
            (frame_lo.saturating_sub(100), frame_lo),
            (frame_hi.saturating_add(1), frame_hi.saturating_add(100)),
            (a, a.saturating_add(1)),
            (frame_lo, frame_lo.saturating_add(1)),
            (frame_hi, frame_hi.saturating_add(1)),
            (frame_lo, frame_hi),
            (frame_lo.saturating_add(1), frame_hi.saturating_add(1)),
            (a.min(b), a.max(b)),
        ]
    }

    /// Activity words: none, sparse, dense, all — "all" with the bits
    /// past `len` set too, which the kernels must ignore.
    fn activities(rng: &mut SimRng, len: usize) -> [Vec<u64>; 4] {
        let words = len.div_ceil(64);
        let draw = |rng: &mut SimRng, keep: f64| -> Vec<u64> {
            (0..words)
                .map(|_| (0..64).fold(0u64, |w, b| w | u64::from(rng.chance(keep)) << b))
                .collect()
        };
        [
            vec![0; words],
            draw(rng, 0.03),
            draw(rng, 0.9),
            vec![u64::MAX; words],
        ]
    }

    fn is_active(active: &[u64], row: usize) -> bool {
        active[row / 64] >> (row % 64) & 1 == 1
    }

    /// Every read path of one payload against the oracle's decode.
    fn assert_block_agrees(encoding: Encoding, data: Vec<u8>, frame: (i64, i64), ctx: &str) {
        let want = oracle_decode(encoding, &data);
        assert_rows_agree(encoding, data, want, frame, ctx);
    }

    /// Every read path of one payload against the rows it holds.
    fn assert_rows_agree(
        encoding: Encoding,
        data: Vec<u8>,
        want: Vec<i64>,
        frame: (i64, i64),
        ctx: &str,
    ) {
        let n = want.len();
        let block = EncodedBlock::try_from_parts(encoding, n, data.clone().into())
            .unwrap_or_else(|e| panic!("{ctx}: well-formed payload refused: {e}"));
        let mut rng = SimRng::new(n as u64 ^ 0xB10C);
        let before = block_decodes();

        for row in (0..n).step_by(1 + n / 37).chain(n.checked_sub(1)) {
            assert_eq!(block.value_at(row), want[row], "{ctx} value_at({row})");
        }

        let activities = activities(&mut rng, n);
        for active in &activities {
            let mut got = Vec::new();
            block.for_each_active(active, |row, v| got.push((row, v)));
            let expect: Vec<(usize, i64)> = (0..n)
                .filter(|&r| is_active(active, r))
                .map(|r| (r, want[r]))
                .collect();
            assert_eq!(got, expect, "{ctx} for_each_active");
        }

        let mut masks = vec![0xDEAD_BEEF]; // stale content must be replaced
        for (lo, hi) in bounds(&mut rng, &want, frame.0, frame.1) {
            block.filter_range_masks(lo, hi, &mut masks);
            assert_eq!(masks.len(), n.div_ceil(64), "{ctx} [{lo},{hi}) mask words");
            let expect: Vec<u64> = want
                .chunks(64)
                .map(|rows| {
                    rows.iter()
                        .enumerate()
                        .fold(0u64, |w, (i, &v)| w | u64::from(v >= lo && v < hi) << i)
                })
                .collect();
            // Word equality also pins the tail bits of the last word clear.
            assert_eq!(masks, expect, "{ctx} filter [{lo},{hi})");

            for active in &activities {
                for filter in [Some((lo, hi)), None] {
                    let mut got = BlockAgg::new();
                    block.fold_range_masked(filter, active, &mut got);
                    let mut expect = BlockAgg::new();
                    for (r, &v) in want.iter().enumerate() {
                        if is_active(active, r) && filter.is_none_or(|(lo, hi)| v >= lo && v < hi) {
                            expect.push(v);
                        }
                    }
                    assert_eq!(got, expect, "{ctx} fold {filter:?}");
                }
            }
        }
        assert_eq!(block_decodes(), before, "{ctx}: a fused path decoded");

        assert_eq!(block.decode(), want, "{ctx} decode");
        match encoding {
            Encoding::ForPack => assert_eq!(forpack::decode(&data), want, "{ctx} codec decode"),
            Encoding::RunBits => {
                assert_eq!(runbits::decode(&data, n), want, "{ctx} codec decode");
                let mut rows = 0;
                runbits::for_each_run(&data, n, |v, start, len| {
                    assert_eq!(start, rows, "{ctx} runs ascend");
                    assert!(
                        want[start..start + len].iter().all(|&w| w == v),
                        "{ctx} run"
                    );
                    rows += len;
                });
                assert_eq!(rows, n, "{ctx} runs cover the block");
            }
            Encoding::Dict => {
                assert_eq!(dict::decode(&data), want, "{ctx} codec decode");
                let dictionary = dict::read_dictionary(&data);
                let mut got = Vec::new();
                dict::for_each_active_code(&data, &activities[2], |row, code| {
                    got.push((row, dictionary[code as usize]));
                });
                let expect: Vec<(usize, i64)> = (0..n)
                    .filter(|&r| is_active(&activities[2], r))
                    .map(|r| (r, want[r]))
                    .collect();
                assert_eq!(got, expect, "{ctx} for_each_active_code");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn forpack_group_kernels_equal_the_per_value_oracle_at_every_width() {
        let mut rng = SimRng::new(0xF0_4B);
        for width in 1..=64u32 {
            for len in LENGTHS {
                let min = frame_min(&mut rng, width);
                let offsets = random_fields(&mut rng, len, low_ones(width));
                let frame_hi = (min as i128 + low_ones(width) as i128) as i64;
                let payload = forpack_payload(min, width, &offsets);
                // The assembler is the real format: where the offsets
                // pin the canonical width, `encode` emits the same bytes.
                if len >= 2 {
                    let values: Vec<i64> = offsets
                        .iter()
                        .map(|&off| (min as i128 + off as i128) as i64)
                        .collect();
                    assert_eq!(forpack::encode(&values)[..], payload[..], "w{width} n{len}");
                }
                assert_block_agrees(
                    Encoding::ForPack,
                    payload,
                    (min, frame_hi),
                    &format!("forpack w{width} n{len}"),
                );
            }
        }
    }

    #[test]
    fn dict_group_kernels_equal_the_per_value_oracle_at_every_width() {
        let mut rng = SimRng::new(0xD1C7);
        for width in 1..=64u32 {
            for len in LENGTHS {
                let room = low_ones(width.min(6)) as usize + 1;
                let entries = 1 + rng.index(room.min(len.max(1)));
                let dictionary = random_dictionary(&mut rng, entries);
                let codes = random_fields(&mut rng, len, dictionary.len() as u64 - 1);
                let frame = (dictionary[0], *dictionary.last().unwrap());
                let payload = dict_payload(&dictionary, width, &codes);
                // Canonical width + every entry used = what `encode` emits.
                let canonical = (64 - (dictionary.len() as u64 - 1).leading_zeros()).max(1);
                let mut used: Vec<u64> = codes.clone();
                used.sort_unstable();
                used.dedup();
                if width == canonical && used.len() == dictionary.len() {
                    let values: Vec<i64> = codes.iter().map(|&c| dictionary[c as usize]).collect();
                    assert_eq!(dict::encode(&values)[..], payload[..], "w{width} n{len}");
                }
                assert_block_agrees(
                    Encoding::Dict,
                    payload,
                    frame,
                    &format!("dict w{width} n{len}"),
                );
            }
        }
    }

    /// Runbits at every width of its embedded run values: start words with
    /// row 0 and a random share of the other rows set (runs of about one,
    /// two and fifty rows), then a forpack payload of one offset per start
    /// at exactly `width` bits. The oracle gives each row the value of the
    /// last start at or before it.
    #[test]
    fn runbits_kernels_equal_the_per_value_oracle_at_every_width() {
        let mut rng = SimRng::new(0x5B17);
        for width in 1..=64u32 {
            for len in LENGTHS {
                let keep = [0.98, 0.5, 0.02][rng.index(3)];
                let starts: Vec<usize> = (0..len).filter(|&r| r == 0 || rng.chance(keep)).collect();
                let min = frame_min(&mut rng, width);
                let offsets = random_fields(&mut rng, starts.len(), low_ones(width));
                let mut payload = vec![0u8; 8 * len.div_ceil(64)];
                for &r in &starts {
                    payload[r / 8] |= 1 << (r % 8);
                }
                payload.extend(forpack_payload(min, width, &offsets));
                let mut run = 0;
                let want: Vec<i64> = (0..len)
                    .map(|r| {
                        if starts.get(run + 1) == Some(&r) {
                            run += 1;
                        }
                        (min as i128 + offsets[run] as i128) as i64
                    })
                    .collect();
                let frame_hi = (min as i128 + low_ones(width) as i128) as i64;
                assert_rows_agree(
                    Encoding::RunBits,
                    payload,
                    want,
                    (min, frame_hi),
                    &format!("runbits w{width} n{len}"),
                );
            }
        }
    }
}
