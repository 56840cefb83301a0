//! End-to-end simulator tests across the full policy × distribution grid.

use amnesia::prelude::*;

fn cfg(policy: PolicyKind, dist: DistributionKind, seed: u64) -> SimConfig {
    SimConfig::builder()
        .dbsize(150)
        .domain(10_000)
        .update_fraction(0.3)
        .batches(6)
        .queries_per_batch(40)
        .distribution(dist)
        .policy(policy)
        .seed(seed)
        .build()
        .expect("valid config")
}

fn paper_policies() -> Vec<PolicyKind> {
    PolicyKind::paper_set()
}

fn all_policies() -> Vec<PolicyKind> {
    let mut ps = paper_policies();
    ps.extend([
        PolicyKind::Overuse,
        PolicyKind::Lru,
        PolicyKind::Ttl { max_age: 2 },
        PolicyKind::Pair,
        PolicyKind::Aligned { bins: 12 },
        PolicyKind::Composite(vec![(0.5, PolicyKind::Fifo), (0.5, PolicyKind::Uniform)]),
    ]);
    ps
}

#[test]
fn every_policy_and_distribution_holds_the_budget() {
    for policy in all_policies() {
        for dist in DistributionKind::paper_set() {
            let report = Simulator::new(cfg(policy.clone(), dist.clone(), 11))
                .expect("simulator")
                .run()
                .expect("run");
            for b in &report.batches {
                assert_eq!(
                    b.active_rows,
                    150,
                    "budget violated: {} on {} at batch {}",
                    policy.name(),
                    dist.name(),
                    b.batch
                );
            }
            assert_eq!(report.storage.final_active_rows, 150);
            assert_eq!(
                report.storage.total_rows_inserted,
                150 + 6 * 45,
                "inserts accounted"
            );
            assert_eq!(
                report.storage.rows_forgotten,
                6 * 45,
                "forgets mirror inserts under the fixed budget"
            );
        }
    }
}

#[test]
fn precision_is_bounded_and_starts_perfect() {
    for policy in all_policies() {
        let report = Simulator::new(cfg(policy.clone(), DistributionKind::Uniform, 13))
            .expect("simulator")
            .run()
            .expect("run");
        let series = report.precision_series();
        assert!(
            series[0] > 0.999,
            "{}: batch 1 precedes all forgetting",
            policy.name()
        );
        for (i, &e) in series.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&e),
                "{}: E out of range at batch {}: {e}",
                policy.name(),
                i + 1
            );
        }
        // PF series is bounded too.
        for &pf in &report.pf_series() {
            assert!((0.0..=1.0).contains(&pf));
        }
    }
}

#[test]
fn amnesia_map_totals_match_inserts() {
    for policy in paper_policies() {
        let report = Simulator::new(cfg(policy, DistributionKind::Serial, 17))
            .expect("simulator")
            .run()
            .expect("run");
        // Epoch 0 holds the initial load; epochs 1..=6 one batch each.
        assert_eq!(report.map.totals.len(), 7);
        assert_eq!(report.map.totals[0], 150);
        for e in 1..=6 {
            assert_eq!(report.map.totals[e], 45);
        }
        // Actives across epochs sum to the budget.
        let active_sum: usize = report.map.active.iter().sum();
        assert_eq!(active_sum, 150);
    }
}

#[test]
fn reports_are_deterministic_per_seed() {
    for policy in all_policies() {
        let a = Simulator::new(cfg(policy.clone(), DistributionKind::zipfian_default(), 29))
            .expect("sim")
            .run()
            .expect("run");
        let b = Simulator::new(cfg(policy.clone(), DistributionKind::zipfian_default(), 29))
            .expect("sim")
            .run()
            .expect("run");
        assert_eq!(
            a.precision_series(),
            b.precision_series(),
            "{}",
            policy.name()
        );
        assert_eq!(a.map.active, b.map.active, "{}", policy.name());
        assert_eq!(a.storage.table_bytes, b.storage.table_bytes);
    }
}

#[test]
fn stepping_matches_run() {
    let c = cfg(PolicyKind::Area, DistributionKind::Uniform, 31);
    let run_report = Simulator::new(c.clone()).unwrap().run().unwrap();

    let mut sim = Simulator::new(c).unwrap();
    for _ in 0..6 {
        sim.step().unwrap();
        assert_eq!(sim.store().footprint().active_rows, 150);
    }
    // Every forget went through the store: its emission count agrees
    // with the table's activity bits.
    let forgotten_by_store = sim.store().total_forgotten();
    let step_report = sim.into_report();
    assert_eq!(
        forgotten_by_store,
        step_report.storage.rows_forgotten as u64
    );
    assert_eq!(
        run_report.precision_series(),
        step_report.precision_series()
    );
    assert_eq!(run_report.map.active, step_report.map.active);
}

#[test]
fn mixed_workload_runs() {
    let mut c = cfg(
        PolicyKind::Rot { high_water_age: 1 },
        DistributionKind::Uniform,
        37,
    );
    c.query_gen = QueryGenKind::Mixed(vec![
        (0.5, QueryGenKind::paper_range()),
        (0.2, QueryGenKind::Point),
        (0.3, QueryGenKind::paper_avg()),
    ]);
    let report = Simulator::new(c).unwrap().run().unwrap();
    // Both row-query and aggregate metrics must be populated.
    let last = report.batches.last().unwrap();
    assert!(last.mean_rf > 0.0 || last.mean_mf > 0.0);
    assert!(last.agg_error.is_some());
}

#[test]
fn drifting_distribution_keeps_working() {
    let mut c = cfg(PolicyKind::Fifo, DistributionKind::Uniform, 41);
    c.distribution = DistributionKind::Drift {
        base: Box::new(DistributionKind::Uniform),
        shift_per_epoch: 5_000,
    };
    let report = Simulator::new(c).unwrap().run().unwrap();
    assert_eq!(report.storage.final_active_rows, 150);
    // Values drift upward: the max seen must exceed the original domain.
    // (Implied by the shift: 6 epochs × 5000 > 10_000.)
    assert!(report.batches.last().unwrap().total_rows > 0);
}

#[test]
fn access_decay_changes_rot_behaviour() {
    let mut with_decay = cfg(
        PolicyKind::Rot { high_water_age: 1 },
        DistributionKind::zipfian_default(),
        43,
    );
    with_decay.access_decay = 0.5;
    let a = Simulator::new(with_decay).unwrap().run().unwrap();

    let no_decay = cfg(
        PolicyKind::Rot { high_water_age: 1 },
        DistributionKind::zipfian_default(),
        43,
    );
    let b = Simulator::new(no_decay).unwrap().run().unwrap();
    // Different frequency dynamics must lead to different retention.
    assert_ne!(a.map.active, b.map.active);
}
