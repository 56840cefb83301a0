//! One table per codec shape read three ways (all hot, all frozen, half
//! frozen), and the fused compressed fold against decompressing first:
//! the same data across tier layouts, which no workload of `benchmark/`
//! (each fixes its layout) and no per-block codec bench compares.
//!
//! The acceptance setting: a 1M-row table with at least half its blocks
//! frozen must show reduced `Table::memory_bytes` versus hot storage
//! (asserted here, per codec-shaped dataset), and `agg_compressed_*`
//! folding SUM/COUNT/MIN/MAX in code/offset/run space must beat decoding
//! frozen blocks into a scratch buffer first.

use std::hint::black_box;
use std::time::Duration;

use amnesia_columnar::compress::Encoding;
use amnesia_columnar::{RowId, Schema, Table};
use amnesia_engine::batch::{aggregate_tiered_active, scan_tiered_active_into};
use amnesia_engine::AggState;
use amnesia_util::SimRng;
use amnesia_workload::query::RangePredicate;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const N: usize = 1_000_000;

/// Active rows of `t` in `pred`, through the tiered scan kernel.
fn scan(t: &Table, pred: RangePredicate) -> Vec<RowId> {
    let mut out = Vec::new();
    scan_tiered_active_into(t.col_tier(0), t.activity_words(), pred, &mut out);
    out
}

/// Build a 1M-row table with 20 % forgotten rows.
fn table_of(values: &[i64]) -> Table {
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(values, 0).unwrap();
    let mut rng = SimRng::new(11);
    for _ in 0..N / 5 {
        if let Some(r) = t.random_active(&mut rng) {
            t.forget(r, 1).unwrap();
        }
    }
    t
}

/// Dataset per codec: (name, expected winning encoding, values,
/// ~1 % selectivity predicate) — same shapes as the compressed_scan
/// bench so regressions are comparable across PRs.
fn datasets() -> Vec<(&'static str, Encoding, Vec<i64>, RangePredicate)> {
    let mut rng = SimRng::new(3);
    vec![
        (
            "rle",
            Encoding::Rle,
            (0..N).map(|i| (i / 2_000) as i64).collect(),
            RangePredicate::new(200, 205),
        ),
        (
            "dict",
            Encoding::Dict,
            {
                let vals = [1i64 << 40, -(1i64 << 50), 7, 1 << 61, -3];
                (0..N).map(|i| vals[(i * 7 + i / 13) % 5]).collect()
            },
            RangePredicate::new(0, 100),
        ),
        (
            "forpack",
            Encoding::ForPack,
            (0..N)
                .map(|_| 1_000_000 + rng.range_i64(0, 4_096))
                .collect(),
            RangePredicate::new(1_000_000, 1_000_041),
        ),
        (
            "delta",
            Encoding::Delta,
            {
                let mut acc = 0i64;
                (0..N)
                    .map(|_| {
                        acc += rng.range_i64(0, 3);
                        acc
                    })
                    .collect()
            },
            RangePredicate::new(500_000, 510_000),
        ),
    ]
}

fn tiered_scan(c: &mut Criterion) {
    for (name, expect_enc, values, pred) in datasets() {
        let hot = table_of(&values);
        let mut frozen = hot.clone();
        frozen.freeze_upto(N);
        let mut mixed = hot.clone();
        mixed.freeze_upto(N / 2);

        // The dataset must exercise the codec it is named for, and the
        // half-frozen table must satisfy the acceptance criterion:
        // reduced resident bytes versus hot storage.
        let tier = frozen.col_tier(0);
        let hits = (0..tier.frozen_blocks())
            .filter(|&b| tier.frozen(b).unwrap().encoded().encoding() == expect_enc)
            .count();
        assert!(
            hits * 2 > tier.frozen_blocks(),
            "{name}: only {hits}/{} blocks chose {expect_enc:?}",
            tier.frozen_blocks()
        );
        assert!(
            mixed.memory_bytes() < hot.memory_bytes(),
            "{name}: mixed {} must undercut hot {}",
            mixed.memory_bytes(),
            hot.memory_bytes()
        );
        assert!(frozen.memory_bytes() < mixed.memory_bytes());
        println!(
            "tiered_scan_1m/{name}: ratio {:.1}x, resident hot {} / mixed {} / frozen {}",
            frozen.compression_ratio(),
            hot.memory_bytes(),
            mixed.memory_bytes(),
            frozen.memory_bytes()
        );

        // Answers agree before we time anything.
        let want = scan(&hot, pred);
        assert_eq!(scan(&frozen, pred), want);
        assert_eq!(scan(&mixed, pred), want);

        let mut group = c.benchmark_group(format!("tiered_scan_1m/{name}"));
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function("scan_hot", |b| {
            b.iter(|| black_box(scan(&hot, black_box(pred))))
        });
        group.bench_function("scan_frozen", |b| {
            b.iter(|| black_box(scan(&frozen, black_box(pred))))
        });
        group.bench_function("scan_mixed", |b| {
            b.iter(|| black_box(scan(&mixed, black_box(pred))))
        });
        group.bench_function("agg_fused_frozen", |b| {
            b.iter(|| {
                black_box(aggregate_tiered_active(
                    frozen.col_tier(0),
                    frozen.activity_words(),
                    Some(black_box(pred)),
                ))
            })
        });
        group.bench_function("agg_decompress_then_fold", |b| {
            // Decode every block, then fold the dense values row by row.
            let words = frozen.activity_words();
            b.iter(|| {
                let dense = frozen.col_values_dense(0);
                let pred = black_box(pred);
                let mut state = AggState::new();
                for (r, &v) in dense.iter().enumerate() {
                    if words[r / 64] >> (r % 64) & 1 == 1 && pred.matches(v) {
                        state.push(v);
                    }
                }
                black_box(state)
            })
        });
        group.bench_function("agg_unpredicated_fused", |b| {
            b.iter(|| {
                black_box(aggregate_tiered_active(
                    frozen.col_tier(0),
                    frozen.activity_words(),
                    None,
                ))
            })
        });
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = tiered_scan
}
criterion_main!(benches);
