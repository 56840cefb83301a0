//! Victim-selection time of the eleven policies the `benchmark/`
//! workloads never run (they run only Fifo and Uniform, timed here too as
//! the reference).
//!
//! The paper argues amnesia must be "an integral part of a DBMS kernel";
//! that only works if choosing victims is cheap relative to the update
//! batch it follows. Measures `select_victims` for every policy on a
//! 50k-row table with realistic staleness and access skew.

use std::hint::black_box;

use amnesia_bench::{forget_fraction, table_from_distribution};
use amnesia_core::policy::{PolicyContext, PolicyKind};
use amnesia_distrib::DistributionKind;
use amnesia_util::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn policy_overhead(c: &mut Criterion) {
    let mut table = table_from_distribution(&DistributionKind::Uniform, 50_000, 100_000, 1);
    forget_fraction(&mut table, 0.2, 2);
    // Give rot/overuse something to chew on: skewed access pattern.
    let mut rng = SimRng::new(3);
    for _ in 0..100_000 {
        if let Some(r) = table.random_active(&mut rng) {
            table.access_mut().touch(r, 1);
        }
    }

    let kinds = vec![
        PolicyKind::Fifo,
        PolicyKind::Uniform,
        PolicyKind::Anterograde { bias: 3.0 },
        PolicyKind::Rot { high_water_age: 0 },
        PolicyKind::Overuse,
        PolicyKind::Lru,
        PolicyKind::Area,
        PolicyKind::Ttl { max_age: 1 },
        PolicyKind::Pair,
        PolicyKind::Aligned { bins: 32 },
        PolicyKind::Ebbinghaus {
            base_strength: 1.0,
            rehearsal_boost: 1.0,
        },
        PolicyKind::Decay {
            alpha: 0.4,
            protect_age: 1,
        },
        PolicyKind::CostBased {
            bins: 64,
            gamma: 1.0,
        },
    ];

    let mut group = c.benchmark_group("policy/select_1000_of_40000");
    for kind in kinds {
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.name()),
            &kind,
            |b, kind| {
                let mut policy = kind.build();
                let mut rng = SimRng::new(42);
                b.iter(|| {
                    let ctx = PolicyContext {
                        table: &table,
                        epoch: 5,
                    };
                    black_box(policy.select_victims(&ctx, 1000, &mut rng))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = policy_overhead
}
criterion_main!(benches);
