//! Join benchmarks: the JOIN-PREC experiment, the raw hash-join kernel,
//! and — since the tiered-join PR — tiered probe vs materialize-then-join
//! over hot / frozen / mixed tables.
//!
//! The acceptance setting: on frozen RLE- and dict-shaped probe data the
//! tier-aware join (build streams compressed blocks, probe runs in
//! compressed space behind key-range meta pruning) must beat decoding
//! every frozen block into a dense `Vec<Value>` and joining that — and it
//! must do so with **zero** dense block decodes, asserted here via the
//! thread-local `block_decodes` counter before anything is timed.

use std::hint::black_box;
use std::time::Duration;

use amnesia_columnar::compress::{block_decodes, Encoding};
use amnesia_columnar::{RowId, Schema, Table, Value};
use amnesia_core::experiments::{join_precision_experiment, referential_actions_table, Scale};
use amnesia_engine::join::{hash_join, hash_join_count, JoinResult, JoinStats};
use amnesia_engine::ForgetVisibility;
use amnesia_util::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_scale() -> Scale {
    Scale {
        dbsize: 300,
        queries_per_batch: 100,
        batches: 8,
        domain: 50_000,
        seed: 0xC1D8_2017,
    }
}

/// Parent of `n` serial keys; child of `4n` rows with skewed fks; then
/// `forget_frac` of each side marked forgotten.
fn join_tables(n: usize, forget_frac: f64) -> (Table, Table) {
    let mut rng = SimRng::new(11);
    let mut parent = Table::new(Schema::single("key"));
    parent
        .insert_batch(&(0..n as i64).collect::<Vec<_>>(), 0)
        .unwrap();
    let mut child = Table::new(Schema::new(vec!["fk", "payload"]));
    for _ in 0..4 * n {
        let fk = (rng.f64() * rng.f64() * n as f64) as i64;
        child.insert(&[fk, rng.range_i64(0, 1_000_000)], 0).unwrap();
    }
    for t in [&mut parent, &mut child] {
        let total = t.num_rows();
        let forget = (total as f64 * forget_frac) as usize;
        for _ in 0..forget {
            if let Some(r) = t.random_active(&mut rng) {
                t.forget(r, 1).unwrap();
            }
        }
    }
    (parent, child)
}

/// The pre-tier join, preserved as the baseline: materialize both
/// columns densely (decoding every frozen block), then hash-join the
/// dense copies row-at-a-time over the activity bitmap.
fn materialize_then_join(left: &Table, right: &Table) -> usize {
    use std::collections::HashMap;
    let left_vals = left.col_values_dense(0);
    let right_vals = right.col_values_dense(0);
    let left_vals = left_vals.as_ref();
    let right_vals = right_vals.as_ref();
    let mut build: HashMap<Value, Vec<RowId>> = HashMap::with_capacity(left.active_rows());
    for r in left.iter_active() {
        build.entry(left_vals[r.as_usize()]).or_default().push(r);
    }
    let mut pairs = 0usize;
    for r in right.iter_active() {
        if let Some(ls) = build.get(&right_vals[r.as_usize()]) {
            pairs += ls.len();
        }
    }
    pairs
}

/// Codec-shaped join datasets: (name, acceptable winning encodings,
/// parent values, child fk values). RLE: child fks arrive in long runs.
/// Dict: a handful of hot keys. Serial: monotone-with-jitter fks — tiny
/// deltas and a narrow band, so delta or frame-of-reference wins.
type JoinDataset = (&'static str, &'static [Encoding], Vec<i64>, Vec<i64>);

fn tiered_datasets() -> Vec<JoinDataset> {
    const N: usize = 200_000;
    let mut rng = SimRng::new(3);
    vec![
        (
            "rle",
            &[Encoding::Rle][..],
            (0..2_000).collect(),
            (0..N).map(|i| (i / 400) as i64).collect(),
        ),
        (
            "dict",
            &[Encoding::Dict][..],
            (0..2_000).collect(),
            (0..N)
                .map(|i| ((i * 7 + i / 13) % 40) as i64 * 50)
                .collect(),
        ),
        (
            "serial",
            &[Encoding::Delta, Encoding::ForPack][..],
            (0..2_000).collect(),
            (0..N)
                .map(|i| ((i * 2_000 / N) as i64 + rng.range_i64(0, 5)).min(1_999))
                .collect(),
        ),
    ]
}

fn join(c: &mut Criterion) {
    let scale = bench_scale();

    c.bench_function("join/experiment", |b| {
        b.iter(|| black_box(join_precision_experiment(black_box(&scale)).expect("join")))
    });
    c.bench_function("join/referential_actions", |b| {
        b.iter(|| black_box(referential_actions_table(black_box(&scale)).expect("actions")))
    });

    let mut kernel = c.benchmark_group("join/hash_kernel");
    for n in [1_000usize, 10_000] {
        let (parent, child) = join_tables(n, 0.3);
        kernel.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(hash_join(
                    black_box(&parent),
                    0,
                    black_box(&child),
                    0,
                    ForgetVisibility::ActiveOnly,
                ))
            })
        });
    }
    kernel.finish();

    // Count-only joins skip pair materialization; the gap is the cost of
    // building the output.
    let (parent, child) = join_tables(10_000, 0.3);
    c.bench_function("join/count_only_10k", |b| {
        b.iter(|| {
            black_box(hash_join_count(
                black_box(&parent),
                0,
                black_box(&child),
                0,
                ForgetVisibility::ActiveOnly,
            ))
        })
    });

    // Tiered join: probe frozen blocks in compressed space vs decode
    // them densely first, over hot / mixed / frozen probe sides.
    for (name, expect_encs, parent_vals, child_vals) in tiered_datasets() {
        let n = child_vals.len();
        let mut rng = SimRng::new(17);
        let mut parent = Table::new(Schema::single("key"));
        parent.insert_batch(&parent_vals, 0).unwrap();
        let mut hot = Table::new(Schema::single("fk"));
        hot.insert_batch(&child_vals, 0).unwrap();
        for t in [&mut parent, &mut hot] {
            let forget = t.num_rows() / 5;
            for _ in 0..forget {
                if let Some(r) = t.random_active(&mut rng) {
                    t.forget(r, 1).unwrap();
                }
            }
        }
        let mut frozen = hot.clone();
        frozen.freeze_upto(n);
        let mut mixed = hot.clone();
        mixed.freeze_upto(n / 2);
        let mut frozen_parent = parent.clone();
        frozen_parent.freeze_upto(parent.num_rows());

        // The dataset must exercise the codec it is named for.
        let tier = frozen.col_tier(0);
        let hits = (0..tier.frozen_blocks())
            .filter(|&b| expect_encs.contains(&tier.frozen(b).unwrap().encoded().encoding()))
            .count();
        assert!(
            hits * 2 > tier.frozen_blocks(),
            "{name}: only {hits}/{} blocks chose one of {expect_encs:?}",
            tier.frozen_blocks()
        );

        // Answers agree, and the tiered join decodes ZERO frozen blocks
        // — the whole point of probing in compressed space.
        let want = materialize_then_join(&parent, &hot);
        let before = block_decodes();
        let r: JoinResult = hash_join(&frozen_parent, 0, &frozen, 0, ForgetVisibility::ActiveOnly);
        assert_eq!(
            block_decodes() - before,
            0,
            "{name}: tiered join must not decode a single frozen block"
        );
        assert_eq!(r.stats.output_pairs, want, "{name}");
        let _: JoinStats = r.stats;

        let mut group = c.benchmark_group(format!("join/tiered_{name}"));
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function("tiered_hot", |b| {
            b.iter(|| {
                black_box(hash_join(
                    black_box(&parent),
                    0,
                    black_box(&hot),
                    0,
                    ForgetVisibility::ActiveOnly,
                ))
            })
        });
        group.bench_function("tiered_mixed", |b| {
            b.iter(|| {
                black_box(hash_join(
                    black_box(&parent),
                    0,
                    black_box(&mixed),
                    0,
                    ForgetVisibility::ActiveOnly,
                ))
            })
        });
        group.bench_function("tiered_frozen", |b| {
            b.iter(|| {
                black_box(hash_join(
                    black_box(&frozen_parent),
                    0,
                    black_box(&frozen),
                    0,
                    ForgetVisibility::ActiveOnly,
                ))
            })
        });
        group.bench_function("materialize_then_join_frozen", |b| {
            b.iter(|| {
                black_box(materialize_then_join(
                    black_box(&frozen_parent),
                    black_box(&frozen),
                ))
            })
        });
        group.bench_function("tiered_count_frozen", |b| {
            b.iter(|| {
                black_box(hash_join_count(
                    black_box(&frozen_parent),
                    0,
                    black_box(&frozen),
                    0,
                    ForgetVisibility::ActiveOnly,
                ))
            })
        });
        group.finish();
    }

    // Sanity: visibility changes the answer, never the validity.
    let active = hash_join_count(&parent, 0, &child, 0, ForgetVisibility::ActiveOnly);
    let truth = hash_join_count(&parent, 0, &child, 0, ForgetVisibility::ScanSeesForgotten);
    assert!(active <= truth);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = join
}
criterion_main!(benches);
