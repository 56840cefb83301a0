//! Fused compressed-block scans vs decompress-then-scan, per codec — the
//! numbers backing the compressed-execution PR (and ROADMAP's "scan cold
//! data at hot-path speed" target).
//!
//! Four datasets are shaped so [`EncodedBlock::encode_auto`] picks each
//! codec in turn when the table freezes (asserted, so a codec regression
//! shows up here, not in silently-moved goalposts). Both contenders
//! produce identical row-id vectors; the fused path never materializes
//! values.
//!
//! `compressed_scan/<codec>_w<width>/{filter,fold,fold_sel50,fold_sparse}`
//! is the codec ladder under those: [`EncodedBlock::filter_range_masks`]
//! and [`EncodedBlock::fold_range_masked`] alone, per packed width, in
//! ns/row and GB/s of packed bytes — the number the ROADMAP holds against
//! memcpy bandwidth; the fold runs filtered over every row, then
//! unfiltered under 50 % and 0.5 % selections.
//! `compressed_scan/squashed_50_{rle,runbits}/*` runs the same legs over
//! rotting blocks — uniform 20-bit values, half the rows squashed onto
//! their neighbour as recompression leaves them — in the codec they used
//! to take and the one they take now. `compressed_scan/encode_auto/*` is
//! the write side: the codec chooser alone. `forpack_w{7,20}/filter`,
//! `forpack_w7/fold_sel50`, `forpack_w20/fold_sparse`,
//! `squashed_50_runbits/{filter,fold_sel50}` and `encode_auto/uniform_w20`
//! gate CI (`.github/bench_compare.py`).

use std::hint::black_box;
use std::time::Duration;

use amnesia_columnar::compress::{BlockAgg, EncodedBlock, Encoding};
use amnesia_columnar::{RowId, Schema, Table};
use amnesia_engine::batch::{count_tiered_active, scan_tiered_active_into};
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
fn table_of(values: Vec<i64>) -> Table {
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(&values, 0).unwrap();
    let mut rng = SimRng::new(11);
    for _ in 0..N / 5 {
        if let Some(r) = t.random_active(&mut rng) {
            t.forget(r, 1).unwrap();
        }
    }
    t
}

/// Dataset per codec: (name, expected winning encoding, values,
/// ~1 % selectivity predicate).
fn datasets() -> Vec<(&'static str, Encoding, Vec<i64>, RangePredicate)> {
    let mut rng = SimRng::new(3);
    vec![
        (
            // Long constant runs: epoch-style data.
            "rle",
            Encoding::Rle,
            (0..N).map(|i| (i / 2_000) as i64).collect(),
            RangePredicate::new(200, 205),
        ),
        (
            // Few distinct, far-apart values in shuffled order.
            "dict",
            Encoding::Dict,
            {
                let vals = [1i64 << 40, -(1i64 << 50), 7, 1 << 61, -3];
                (0..N).map(|i| vals[(i * 7 + i / 13) % 5]).collect()
            },
            RangePredicate::new(0, 100),
        ),
        (
            // Narrow band around a large base.
            "forpack",
            Encoding::ForPack,
            (0..N)
                .map(|_| 1_000_000 + rng.range_i64(0, 4_096))
                .collect(),
            RangePredicate::new(1_000_000, 1_000_041),
        ),
        (
            // Sorted with small jitter: classic delta territory.
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

fn compressed_scan(c: &mut Criterion) {
    for (name, expect_enc, values, pred) in datasets() {
        let hot = table_of(values);
        let mut t = hot.clone();
        t.freeze_upto(N);
        let tier = t.col_tier(0);
        let blocks = tier.frozen_blocks();
        // The dataset must actually exercise the codec it is named for.
        let hits = (0..blocks)
            .filter(|&b| tier.frozen(b).unwrap().encoded().encoding() == expect_enc)
            .count();
        assert!(
            hits * 2 > blocks,
            "{name}: only {hits}/{blocks} blocks chose {expect_enc:?}"
        );
        println!(
            "compressed_scan_1m/{name}: {hits}/{blocks} blocks {}, ratio {:.1}x",
            expect_enc.name(),
            t.compression_ratio()
        );
        let want = scan(&hot, pred);
        assert_eq!(scan(&t, pred), want);
        assert_eq!(
            count_tiered_active(t.col_tier(0), t.activity_words(), pred).0,
            want.len()
        );

        let mut group = c.benchmark_group(format!("compressed_scan_1m/{name}"));
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function("fused_decode_filter", |b| {
            b.iter(|| black_box(scan(&t, black_box(pred))))
        });
        group.bench_function("fused_count", |b| {
            b.iter(|| {
                black_box(count_tiered_active(t.col_tier(0), t.activity_words(), black_box(pred)).0)
            })
        });
        group.bench_function("decompress_then_scan", |b| {
            // Decode every block, then filter the dense values row by row.
            let words = t.activity_words();
            b.iter(|| {
                let dense = t.col_values_dense(0);
                let pred = black_box(pred);
                let out: Vec<RowId> = (0..dense.len())
                    .filter(|&r| words[r / 64] >> (r % 64) & 1 == 1 && pred.matches(dense[r]))
                    .map(RowId::from)
                    .collect();
                black_box(out)
            })
        });
        group.finish();
    }
}

/// Blocks × rows of one packed-width case: 512 Ki rows, tier-block sized.
const WIDTH_BLOCKS: usize = 512;
const WIDTH_BLOCK_ROWS: usize = 1_024;

/// 512 tier-sized blocks of uniform 20-bit values, and the same blocks
/// with each row but the first squashed onto its predecessor with
/// probability 1/2, as recompression leaves a half-forgotten block: runs
/// of two rows on average.
fn uniform_and_squashed() -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
    let mut rng = SimRng::new(25);
    let uniform: Vec<Vec<i64>> = (0..WIDTH_BLOCKS)
        .map(|_| {
            (0..WIDTH_BLOCK_ROWS)
                .map(|_| (rng.next_u64() >> 44) as i64)
                .collect()
        })
        .collect();
    let squashed = uniform
        .iter()
        .map(|block| {
            let mut last = 0;
            block
                .iter()
                .map(|&v| {
                    if rng.below(2) == 0 {
                        last = v;
                    }
                    last
                })
                .collect()
        })
        .collect();
    (uniform, squashed)
}

/// `(name, blocks, ~1 % predicate)` per packed width. Forpack offsets are
/// uniform over the `width`-bit band (60 is on the two-word path the
/// group kernel leaves to widths 57–63). Dict stops at the widest code
/// `encode` can emit for a 1 024-row block with repeats: 7 bits. Last,
/// the squashed blocks of [`uniform_and_squashed`] as rle and as runbits.
fn width_cases() -> Vec<(String, Vec<EncodedBlock>, (i64, i64))> {
    let mut rng = SimRng::new(16);
    let mut blocks_of = |encoding: Encoding, width: u32, scale: i64| -> Vec<EncodedBlock> {
        (0..WIDTH_BLOCKS)
            .map(|_| {
                let mut values: Vec<i64> = (0..WIDTH_BLOCK_ROWS)
                    .map(|_| scale * (rng.next_u64() >> (64 - width)) as i64)
                    .collect();
                // Pin the width: both ends of the band in every block.
                values[0] = 0;
                values[1] = scale * ((1u64 << width) - 1) as i64;
                let block = EncodedBlock::encode(&values, encoding);
                // Packed fields plus a header (dict: its entries) and no more.
                let packed = WIDTH_BLOCK_ROWS * width as usize / 8;
                assert!((packed..packed + 512).contains(&block.compressed_bytes()));
                block
            })
            .collect()
    };
    let mut cases = Vec::new();
    for width in [6u32, 7, 20, 33, 60] {
        let band = 1i64 << width;
        cases.push((
            format!("forpack_w{width}"),
            blocks_of(Encoding::ForPack, width, 1),
            (band / 2, band / 2 + (band / 100).max(1)),
        ));
    }
    for width in [6u32, 7] {
        // Entries 1 000 apart: the dictionary, not the frame, is compact.
        let band = 1_000i64 << width;
        cases.push((
            format!("dict_w{width}"),
            blocks_of(Encoding::Dict, width, 1_000),
            (band / 2, band / 2 + 1_000),
        ));
    }
    let (_, squashed) = uniform_and_squashed();
    for encoding in [Encoding::Rle, Encoding::RunBits] {
        let band = 1i64 << 20;
        cases.push((
            format!("squashed_50_{}", encoding.name()),
            squashed
                .iter()
                .map(|values| EncodedBlock::encode(values, encoding))
                .collect(),
            (band / 2, band / 2 + band / 100),
        ));
    }
    cases
}

fn packed_widths(c: &mut Criterion) {
    let rows = (WIDTH_BLOCKS * WIDTH_BLOCK_ROWS) as f64;
    let all_rows = vec![u64::MAX; WIDTH_BLOCK_ROWS / 64];
    // Selection words per block: each row kept with probability 1/2 and
    // 1/200.
    let mut rng = SimRng::new(50);
    let mut selections = |keep_one_in: u64| -> Vec<Vec<u64>> {
        (0..WIDTH_BLOCKS)
            .map(|_| {
                (0..WIDTH_BLOCK_ROWS / 64)
                    .map(|_| {
                        (0..64).fold(0u64, |w, i| {
                            w | u64::from(rng.next_u64().is_multiple_of(keep_one_in)) << i
                        })
                    })
                    .collect()
            })
            .collect()
    };
    let (half, sparse) = (selections(2), selections(200));
    for (name, blocks, (lo, hi)) in width_cases() {
        let bytes: usize = blocks.iter().map(|b| b.compressed_bytes()).sum();
        // ns/row and packed GB/s, which the shim's one-rate line lacks:
        // the quietest of five passes.
        let report = |leg: &str, pass: &mut dyn FnMut()| {
            let secs = (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    pass();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::MAX, f64::min);
            println!(
                "compressed_scan/{name}/{leg}: {:.3} ns/row, {:.2} GB/s packed",
                secs * 1e9 / rows,
                bytes as f64 / secs / 1e9
            );
        };
        let mut masks = Vec::new();
        let mut filter = || {
            let mut hits = 0u32;
            for b in &blocks {
                b.filter_range_masks(black_box(lo), black_box(hi), &mut masks);
                hits += masks.iter().map(|m| m.count_ones()).sum::<u32>();
            }
            black_box(hits);
        };
        let mut fold = || {
            let mut agg = BlockAgg::new();
            for b in &blocks {
                b.fold_range_masked(Some((black_box(lo), black_box(hi))), &all_rows, &mut agg);
            }
            black_box(agg);
        };
        // Unfiltered folds under a selection, as `aggregate_selection`
        // runs them: half the rows (the `global` statement's shape), and
        // 0.5 % of them (about five rows a block, `scatter`'s shape).
        let fold_under = |words: &[Vec<u64>]| {
            let mut agg = BlockAgg::new();
            for (b, active) in blocks.iter().zip(words) {
                b.fold_range_masked(None, black_box(active), &mut agg);
            }
            black_box(agg);
        };
        let mut fold_sel50 = || fold_under(&half);
        let mut fold_sparse = || fold_under(&sparse);
        report("filter", &mut filter);
        report("fold", &mut fold);
        report("fold_sel50", &mut fold_sel50);
        report("fold_sparse", &mut fold_sparse);

        let mut group = c.benchmark_group(format!("compressed_scan/{name}"));
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_function("filter", |b| b.iter(&mut filter));
        group.bench_function("fold", |b| b.iter(&mut fold));
        group.bench_function("fold_sel50", |b| b.iter(&mut fold_sel50));
        group.bench_function("fold_sparse", |b| b.iter(&mut fold_sparse));
        group.finish();
    }
}

/// `compressed_scan/encode_auto/{uniform_w20,squashed_50}`: the codec
/// chooser every freeze and recompression runs, over the blocks of
/// [`uniform_and_squashed`]: uniform 20-bit values (forpack wins) and the
/// same blocks half squashed (runbits wins, at about 1.4 bytes a row to
/// rle's and delta's two). Reported in ns/row.
fn encode_auto(c: &mut Criterion) {
    let (uniform, squashed) = uniform_and_squashed();
    let rows = (WIDTH_BLOCKS * WIDTH_BLOCK_ROWS) as f64;
    let mut group = c.benchmark_group("compressed_scan/encode_auto");
    group.throughput(Throughput::Elements(rows as u64));
    for (name, blocks, winners) in [
        ("uniform_w20", uniform, &[Encoding::ForPack][..]),
        ("squashed_50", squashed, &[Encoding::RunBits]),
    ] {
        let mut pass = || {
            let mut bytes = 0;
            for block in &blocks {
                bytes += EncodedBlock::encode_auto(black_box(block)).compressed_bytes();
            }
            black_box(bytes)
        };
        let lost = blocks
            .iter()
            .find(|b| !winners.contains(&EncodedBlock::encode_auto(b).encoding()));
        assert!(lost.is_none(), "{name}: a block chose none of {winners:?}");
        let secs = (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                pass();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min);
        println!(
            "compressed_scan/encode_auto/{name}: {:.1} ns/row",
            secs * 1e9 / rows
        );
        group.bench_function(name, |b| b.iter(&mut pass));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = packed_widths, encode_auto, compressed_scan
}
criterion_main!(benches);
