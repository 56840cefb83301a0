//! Victim-selection time of the eleven policies the `benchmark/`
//! workloads never run (they run only Fifo and Uniform, timed here too as
//! the reference).
//!
//! The paper argues amnesia must be "an integral part of a DBMS kernel";
//! that only works if choosing victims is cheap relative to the update
//! batch it follows. Measures `select_victims` for every policy on a
//! 50k-row table with realistic staleness and access skew.
//!
//! A second group has the shape of the `stream_scatter` workload's forget
//! half: 1 850 000 rows, 1 000 000 of them active, frozen but for a
//! 4 096-row hot tail. `uniform` draws 25 000 victims (ranks sampled as a
//! bitmap, deposited into the activity words); `forget_batch` applies
//! them as runs to a clone of the table, clone included.

use std::hint::black_box;

use amnesia_bench::{forget_fraction, table_from_distribution};
use amnesia_columnar::RowId;
use amnesia_core::policy::{AmnesiaPolicy, PolicyContext, PolicyKind, UniformPolicy};
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

fn scatter_forget(c: &mut Criterion) {
    const ROWS: usize = 1_850_000;
    const ACTIVE: usize = 1_000_000;
    const VICTIMS: usize = 25_000;
    let mut table = table_from_distribution(&DistributionKind::Uniform, ROWS, 1 << 20, 11);
    let mut dead = SimRng::new(12).sample_indices(ROWS, ROWS - ACTIVE);
    dead.sort_unstable();
    let dead: Vec<RowId> = dead.into_iter().map(RowId::from).collect();
    table
        .forget_batch(&dead, 1, |_, _| Ok(()))
        .expect("rows in range");
    table.freeze_upto(ROWS - 4_096);
    let ctx = PolicyContext {
        table: &table,
        epoch: 2,
    };
    let victims = UniformPolicy.select_victims(&ctx, VICTIMS, &mut SimRng::new(13));

    let mut group = c.benchmark_group("policy/scatter_25000_of_1m");
    group.bench_function("uniform", |b| {
        let mut rng = SimRng::new(13);
        b.iter(|| black_box(UniformPolicy.select_victims(&ctx, VICTIMS, &mut rng)))
    });
    group.bench_function("forget_batch", |b| {
        b.iter(|| {
            let mut copy = table.clone();
            black_box(copy.forget_batch(&victims, 2, |_, _| Ok(())))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = policy_overhead, scatter_forget
}
criterion_main!(benches);
