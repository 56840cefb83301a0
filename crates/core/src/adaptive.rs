//! Adaptive partitioned amnesia (paper §4.4).
//!
//! "Instead of user defined partitioning schemes, it might be worth to
//! study amnesia in the context of adaptive partitioning. Each partition
//! can then be tuned to provide the best precision for a subset of the
//! workload."
//!
//! [`AdaptiveStore`] splits the value domain into equi-width partitions,
//! gives each its own storage budget and — crucially — its own *choice*
//! of amnesia policy, learned online. Policy selection is an ε-greedy
//! bandit: each partition keeps a mean-reward estimate per candidate
//! policy ("arm"), where the reward is the query precision the workload
//! reports back through [`AdaptiveStore::observe`]. At every batch
//! boundary the partition exploits the best-looking arm (or explores,
//! with probability ε) — so a partition hammered by recency queries
//! drifts to FIFO while a sibling serving historical queries drifts to
//! uniform/area, without anyone turning knobs (the paper's "mostly
//! knobless DBMS").

use amnesia_columnar::{Epoch, Schema, Table, Value};
use amnesia_util::{Result, SimRng};

use crate::policy::{AmnesiaPolicy, PolicyContext, PolicyKind};

/// Configuration for an [`AdaptiveStore`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Candidate policies every partition may choose between.
    pub arms: Vec<PolicyKind>,
    /// Exploration probability at each batch boundary.
    pub epsilon: f64,
    /// Number of equi-width value partitions.
    pub partitions: usize,
    /// Value domain `[0, domain)` being partitioned.
    pub domain: i64,
    /// Active-tuple budget per partition.
    pub budget_per_partition: usize,
}

impl AdaptiveConfig {
    /// A reasonable default arm set: the paper's contrasting trio.
    pub fn default_arms() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fifo,
            PolicyKind::Uniform,
            PolicyKind::Rot { high_water_age: 2 },
        ]
    }
}

/// Per-arm reward statistics.
///
/// Rewards are tracked as an exponentially-weighted moving average, not
/// a lifetime mean: precision decays globally as history accumulates, so
/// a lifetime mean would permanently favour whichever arm happened to
/// run first (when everything still looked precise). The EWMA keeps the
/// estimates comparable across time.
#[derive(Debug, Clone, Default)]
struct ArmStats {
    pulls: u64,
    ewma: f64,
}

/// EWMA smoothing for arm rewards.
const REWARD_EWMA: f64 = 0.4;

impl ArmStats {
    fn mean(&self) -> f64 {
        if self.pulls == 0 {
            // Optimistic initialization: untried arms look perfect, so
            // every arm gets tried before exploitation locks in.
            1.0
        } else {
            self.ewma
        }
    }

    fn record(&mut self, reward: f64) {
        self.ewma = if self.pulls == 0 {
            reward
        } else {
            REWARD_EWMA * reward + (1.0 - REWARD_EWMA) * self.ewma
        };
        self.pulls += 1;
    }
}

/// One value-range partition with its learned policy choice.
struct Partition {
    table: Table,
    policies: Vec<Box<dyn AmnesiaPolicy>>,
    stats: Vec<ArmStats>,
    current: usize,
    pending_reward: f64,
    pending_observations: u64,
}

/// A partitioned store where each partition learns its own amnesia
/// policy from precision feedback.
pub struct AdaptiveStore {
    cfg: AdaptiveConfig,
    partitions: Vec<Partition>,
}

impl AdaptiveStore {
    /// Build the store; panics if `arms` or `partitions` is empty.
    pub fn new(cfg: AdaptiveConfig) -> Self {
        assert!(!cfg.arms.is_empty(), "need at least one arm");
        assert!(cfg.partitions > 0, "need at least one partition");
        assert!(cfg.domain > 0, "domain must be positive");
        let partitions = (0..cfg.partitions)
            .map(|_| Partition {
                table: Table::new(Schema::single("a")),
                policies: cfg.arms.iter().map(PolicyKind::build).collect(),
                stats: vec![ArmStats::default(); cfg.arms.len()],
                current: 0,
                pending_reward: 0.0,
                pending_observations: 0,
            })
            .collect();
        Self { cfg, partitions }
    }

    /// Which partition a value routes to.
    pub fn partition_of(&self, v: Value) -> usize {
        let clamped = v.clamp(0, self.cfg.domain - 1);
        ((clamped as u128 * self.partitions.len() as u128) / self.cfg.domain as u128) as usize
    }

    /// The partition's value range `[lo, hi)`.
    pub fn partition_range(&self, p: usize) -> (Value, Value) {
        let n = self.partitions.len() as i64;
        let lo = self.cfg.domain * p as i64 / n;
        let hi = self.cfg.domain * (p as i64 + 1) / n;
        (lo, hi)
    }

    /// A partition's table (queries run against this).
    pub fn table(&self, p: usize) -> &Table {
        &self.partitions[p].table
    }

    /// Name of the policy a partition is currently running.
    pub fn current_arm(&self, p: usize) -> &str {
        self.partitions[p].policies[self.partitions[p].current].name()
    }

    /// Mean observed reward per arm for a partition.
    pub fn arm_means(&self, p: usize) -> Vec<f64> {
        self.partitions[p]
            .stats
            .iter()
            .map(ArmStats::mean)
            .collect()
    }

    /// Route an insert to its value partition.
    pub fn insert(&mut self, v: Value, epoch: Epoch) -> Result<()> {
        let p = self.partition_of(v);
        self.partitions[p].table.insert_batch(&[v], epoch)?;
        Ok(())
    }

    /// Feed precision observed for a query that hit partition `p` (the
    /// bandit's reward; `0.0 ..= 1.0`).
    pub fn observe(&mut self, p: usize, reward: f64) {
        let part = &mut self.partitions[p];
        part.pending_reward += reward.clamp(0.0, 1.0);
        part.pending_observations += 1;
    }

    /// Record that a query's result touched `rows` of partition `p` —
    /// the access-frequency signal the rot/learning arms feed on.
    pub fn touch(&mut self, p: usize, rows: &[amnesia_columnar::RowId], epoch: Epoch) {
        self.partitions[p].table.access_mut().touch_all(rows, epoch);
    }

    /// Batch boundary: every partition trims to its budget with its
    /// current arm, credits the batch's observations to that arm, then
    /// ε-greedily picks the arm for the next batch.
    pub fn end_batch(&mut self, epoch: Epoch, rng: &mut SimRng) -> Result<()> {
        let epsilon = self.cfg.epsilon;
        let budget = self.cfg.budget_per_partition;
        for part in &mut self.partitions {
            // Trim to budget with the current arm.
            let excess = part.table.active_rows().saturating_sub(budget);
            if excess > 0 {
                let victims = {
                    let ctx = PolicyContext {
                        table: &part.table,
                        epoch,
                    };
                    part.policies[part.current].select_victims(&ctx, excess, rng)
                };
                for v in victims {
                    part.table.forget(v, epoch)?;
                }
            }
            // Credit the batch reward to the arm that shaped this batch.
            if part.pending_observations > 0 {
                let mean = part.pending_reward / part.pending_observations as f64;
                part.stats[part.current].record(mean);
                part.pending_reward = 0.0;
                part.pending_observations = 0;
            }
            // ε-greedy arm selection for the next batch.
            part.current = if rng.chance(epsilon) {
                rng.index(part.policies.len())
            } else {
                let mut best = 0;
                for (i, s) in part.stats.iter().enumerate() {
                    if s.mean() > part.stats[best].mean() {
                        best = i;
                    }
                }
                best
            };
        }
        Ok(())
    }

    /// Total active rows across partitions.
    pub fn active_rows(&self) -> usize {
        self.partitions.iter().map(|p| p.table.active_rows()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_columnar::RowId;

    fn store(partitions: usize) -> AdaptiveStore {
        AdaptiveStore::new(AdaptiveConfig {
            arms: AdaptiveConfig::default_arms(),
            epsilon: 0.1,
            partitions,
            domain: 1000,
            budget_per_partition: 50,
        })
    }

    #[test]
    fn routing_is_total_and_ordered() {
        let s = store(4);
        assert_eq!(s.partition_of(0), 0);
        assert_eq!(s.partition_of(249), 0);
        assert_eq!(s.partition_of(250), 1);
        assert_eq!(s.partition_of(999), 3);
        // Out-of-domain values clamp instead of panicking.
        assert_eq!(s.partition_of(-5), 0);
        assert_eq!(s.partition_of(10_000), 3);
        // Ranges tile the domain.
        let mut expected_lo = 0;
        for p in 0..4 {
            let (lo, hi) = s.partition_range(p);
            assert_eq!(lo, expected_lo);
            assert!(hi > lo);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, 1000);
    }

    #[test]
    fn budget_holds_per_partition() {
        let mut s = store(2);
        let mut rng = SimRng::new(71);
        for epoch in 0..5u64 {
            for i in 0..200i64 {
                s.insert((i * 5) % 1000, epoch).unwrap();
            }
            s.end_batch(epoch, &mut rng).unwrap();
            for p in 0..2 {
                assert!(
                    s.table(p).active_rows() <= 50,
                    "partition {p} over budget at epoch {epoch}"
                );
            }
        }
        assert_eq!(s.active_rows(), 100);
    }

    #[test]
    fn rewards_steer_arm_selection() {
        let mut s = store(1);
        let mut rng = SimRng::new(72);
        // Feed data and consistently reward whichever arm is running
        // only when it is arm 1 ("uniform"): the bandit must settle on it.
        for epoch in 0..60u64 {
            for i in 0..60i64 {
                s.insert(i * 16 % 1000, epoch).unwrap();
            }
            let reward = if s.current_arm(0) == "uniform" {
                0.9
            } else {
                0.1
            };
            for _ in 0..10 {
                s.observe(0, reward);
            }
            s.end_batch(epoch, &mut rng).unwrap();
        }
        let means = s.arm_means(0);
        let uniform_idx = 1;
        for (i, m) in means.iter().enumerate() {
            if i != uniform_idx {
                assert!(
                    means[uniform_idx] > *m,
                    "uniform arm should dominate: {means:?}"
                );
            }
        }
        // ε-greedy exploitation: the current arm is uniform most of the
        // time by the end (allow the ε exploration wobble).
        let mut uniform_picks = 0;
        for _ in 0..100 {
            s.end_batch(99, &mut rng).unwrap();
            if s.current_arm(0) == "uniform" {
                uniform_picks += 1;
            }
        }
        assert!(uniform_picks > 80, "picked uniform {uniform_picks}/100");
    }

    #[test]
    fn untried_arms_are_optimistic() {
        let s = store(1);
        assert_eq!(s.arm_means(0), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn observations_without_queries_are_harmless() {
        let mut s = store(2);
        let mut rng = SimRng::new(73);
        // end_batch with zero observations must not divide by zero.
        s.end_batch(0, &mut rng).unwrap();
        s.observe(1, 0.5);
        s.end_batch(1, &mut rng).unwrap();
        assert_eq!(s.table(0).num_rows(), 0);
    }

    #[test]
    fn forgotten_rows_stay_in_partition_tables() {
        let mut s = store(1);
        let mut rng = SimRng::new(74);
        for i in 0..100i64 {
            s.insert(i * 7 % 1000, 0).unwrap();
        }
        s.end_batch(0, &mut rng).unwrap();
        let t = s.table(0);
        assert_eq!(t.num_rows(), 100, "mark-only semantics");
        assert_eq!(t.active_rows(), 50);
        assert!(!t.activity().is_active(
            (0..100)
                .map(RowId)
                .find(|r| !t.activity().is_active(*r))
                .unwrap()
        ));
    }
}
