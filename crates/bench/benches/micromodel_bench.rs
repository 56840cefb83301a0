//! Micro-model microbenchmarks: fit cost vs tuple count and estimate cost
//! vs bin count.

use std::hint::black_box;
use std::time::Duration;

use amnesia_columnar::{MicroModel, ModelStore, ValueRange};
use amnesia_util::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn values(n: usize) -> Vec<i64> {
    let mut rng = SimRng::new(23);
    (0..n).map(|_| rng.range_i64(0, 100_000)).collect()
}

fn micromodel(c: &mut Criterion) {
    let mut fit = c.benchmark_group("micromodel/fit");
    for n in [1_000usize, 10_000, 100_000] {
        let vals = values(n);
        fit.throughput(Throughput::Elements(n as u64));
        fit.bench_with_input(BenchmarkId::from_parameter(n), &vals, |b, vals| {
            b.iter(|| black_box(MicroModel::fit(0, black_box(vals), 64)))
        });
    }
    fit.finish();

    let mut est = c.benchmark_group("micromodel/estimate");
    for bins in [16usize, 64, 256] {
        let mut store = ModelStore::new(bins);
        for (epoch, chunk) in values(50_000).chunks(5_000).enumerate() {
            for &v in chunk {
                store.absorb(epoch as u64, v);
            }
        }
        store.seal();
        est.bench_with_input(BenchmarkId::from_parameter(bins), &store, |b, store| {
            let mut rng = SimRng::new(5);
            b.iter(|| {
                let lo = rng.range_i64(0, 90_000);
                black_box(store.estimate(Some(ValueRange {
                    lo,
                    hi: lo + 10_000,
                })))
            })
        });
    }
    est.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = micromodel
}
criterion_main!(benches);
