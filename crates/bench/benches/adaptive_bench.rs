//! ABL-ADAPT bench: the raw cost of routing + end-of-batch bandit
//! bookkeeping in the adaptive partitioned store.

use std::hint::black_box;
use std::time::Duration;

use amnesia_core::adaptive::{AdaptiveConfig, AdaptiveStore};
use amnesia_util::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn adaptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive/insert_route");
    group.throughput(Throughput::Elements(1));
    for partitions in [2usize, 8, 32] {
        group.bench_with_input(
            BenchmarkId::from_parameter(partitions),
            &partitions,
            |b, &partitions| {
                let mut store = AdaptiveStore::new(AdaptiveConfig {
                    arms: AdaptiveConfig::default_arms(),
                    epsilon: 0.1,
                    partitions,
                    domain: 100_000,
                    budget_per_partition: 1000,
                });
                let mut rng = SimRng::new(3);
                b.iter(|| {
                    store
                        .insert(black_box(rng.range_i64(0, 100_000)), 1)
                        .unwrap()
                })
            },
        );
    }
    group.finish();

    c.bench_function("adaptive/end_batch_8x1000", |b| {
        let mut store = AdaptiveStore::new(AdaptiveConfig {
            arms: AdaptiveConfig::default_arms(),
            epsilon: 0.1,
            partitions: 8,
            domain: 100_000,
            budget_per_partition: 1000,
        });
        let mut rng = SimRng::new(4);
        for _ in 0..16_000 {
            store.insert(rng.range_i64(0, 100_000), 0).unwrap();
        }
        let mut epoch = 1u64;
        b.iter(|| {
            // Refill a little so trimming always has work to do.
            for _ in 0..200 {
                store.insert(rng.range_i64(0, 100_000), epoch).unwrap();
            }
            store.end_batch(black_box(epoch), &mut rng).unwrap();
            epoch += 1;
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = adaptive
}
criterion_main!(benches);
