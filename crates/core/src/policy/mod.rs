//! Amnesia policies: who gets forgotten.
//!
//! Paper §3 frames amnesia as "a controlled random process" plus "the
//! effects of learning which tuples are of interest". Every policy
//! implements [`AmnesiaPolicy::select_victims`]: given the table state and
//! a victim count `n`, return `n` distinct *active* rows to forget (or all
//! active rows when fewer than `n` remain).
//!
//! | name | paper | bias |
//! |---|---|---|
//! | [`FifoPolicy`] | §3.1 | retrograde: oldest rows go first (sliding buffer) |
//! | [`UniformPolicy`] | §3.1 | reservoir-style uniform choice |
//! | [`AnterogradePolicy`] | §3.1 | recent rows forgotten preferentially |
//! | [`RotPolicy`] | §3.2 | rarely-accessed rows past a high-water age |
//! | [`OverusePolicy`] | §3.2 | *most*-accessed rows ("already consumed") |
//! | [`LruPolicy`] | §3.1 analogy | least-recently-used rows (buffer recency) |
//! | [`AreaPolicy`] | §3.3 | spatial mold: holes grow in row space |
//! | [`TtlPolicy`] | §1 | privacy: rows older than a legal age expire |
//! | [`PairPolicy`] | §4.4 | forget antipodal pairs, preserving AVG |
//! | [`AlignedPolicy`] | §4.4 | keep active values distributed like history |
//! | [`CostBasedPolicy`] | §4.4 | ditch tuples that blow up processing cost |
//! | [`EbbinghausPolicy`] | §5 | human forgetting curve, rehearsal-strengthened |
//! | [`DecayPolicy`] | §5 | learned EWMA interest: stale hotness fades |
//! | [`CompositePolicy`] | — | weighted blend of the above |

mod aligned;
mod anterograde;
mod area;
mod composite;
mod cost_based;
mod decay;
mod ebbinghaus;
mod fifo;
mod lru;
mod overuse;
mod pair;
mod rot;
mod ttl;
mod uniform;

pub use aligned::AlignedPolicy;
pub use anterograde::AnterogradePolicy;
pub use area::AreaPolicy;
pub use composite::CompositePolicy;
pub use cost_based::CostBasedPolicy;
pub use decay::DecayPolicy;
pub use ebbinghaus::EbbinghausPolicy;
pub use fifo::FifoPolicy;
pub use lru::LruPolicy;
pub use overuse::OverusePolicy;
pub use pair::PairPolicy;
pub use rot::RotPolicy;
pub use ttl::TtlPolicy;
pub use uniform::UniformPolicy;

use amnesia_columnar::{Epoch, RowId, Table};
use amnesia_util::SimRng;
use serde::{Deserialize, Serialize};

/// Everything a policy may look at when choosing victims.
///
/// Policies see the *table* (values, activity, insertion epochs, access
/// frequencies) — never the ground truth the metrics use; amnesia has "no
/// reference to the original and complete view of information" (paper §5).
pub struct PolicyContext<'a> {
    /// The amnesiac table.
    pub table: &'a Table,
    /// Current batch number (victims are forgotten at this epoch).
    pub epoch: Epoch,
}

/// An amnesia algorithm.
pub trait AmnesiaPolicy: Send {
    /// Stable short name ("fifo", "uniform", "ante", "rot", "area", …).
    fn name(&self) -> &'static str;

    /// Choose up to `n` distinct active rows to forget.
    ///
    /// Implementations must only return active rows and must not return
    /// duplicates; when fewer than `n` rows are active they return all of
    /// them. The order of the victims is the policy's own, and callers
    /// must not depend on it: [`UniformPolicy`] and [`FifoPolicy`] return
    /// them ascending, others in the order they ranked them.
    fn select_victims(&mut self, ctx: &PolicyContext<'_>, n: usize, rng: &mut SimRng)
        -> Vec<RowId>;
}

/// Serializable recipe for an [`AmnesiaPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Sliding window over arrival order (§3.1).
    Fifo,
    /// Uniform random victims (§3.1, reservoir-sampling flavour).
    Uniform,
    /// Anterograde: victim weight grows with insertion epoch, so new data
    /// struggles to be remembered (§3.1). `bias` is the exponent on
    /// `epoch + 1` (the paper does not fix it; 3.0 reproduces the Figure 1
    /// narrative: epoch 0 retained, oldest updates darkest).
    Anterograde {
        /// Recency-bias exponent (≥ 0; 0 degenerates to uniform).
        bias: f64,
    },
    /// Query-based rot: forget rarely-accessed rows that have been in the
    /// database at least `high_water_age` batches (§3.2).
    Rot {
        /// Minimum age in batches before a row may rot.
        high_water_age: u64,
    },
    /// Forget the *most* frequently accessed rows (§3.2's opposite
    /// policy).
    Overuse,
    /// Least-recently-used forgetting: buffer-management recency, the
    /// natural companion to §3.1's FIFO analogy.
    Lru,
    /// Spatial mold areas over the row space (§3.3).
    Area,
    /// Privacy-driven expiry: rows older than `max_age` batches must go
    /// (§1's Data Privacy Act deadline), oldest first; falls back to
    /// uniform when nothing has expired.
    Ttl {
        /// Maximum age in batches.
        max_age: u64,
    },
    /// Average-preserving antipodal pair forgetting (§4.4).
    Pair,
    /// Distribution-aligned forgetting: keep the active histogram close to
    /// the all-history histogram (§4.4).
    Aligned {
        /// Number of histogram bins.
        bins: usize,
    },
    /// Cost-based forgetting (§4.4): shed tuples from over-dense,
    /// frequently-hit value regions — the ones that blow up intermediate
    /// result sizes.
    CostBased {
        /// Histogram buckets over the active value range.
        bins: usize,
        /// Density exponent (0 = pure frequency weighting).
        gamma: f64,
    },
    /// Ebbinghaus human forgetting curve (§5 refs [2, 6]): victim weight
    /// is the memory-lapse probability `1 − exp(−age/strength)`;
    /// rehearsals (query hits) raise the strength.
    Ebbinghaus {
        /// Strength `S₀` in batches of a never-rehearsed memory.
        base_strength: f64,
        /// Per-access strength increment factor.
        rehearsal_boost: f64,
    },
    /// Learned interest decay (§5 "AI learning techniques … hooks"):
    /// EWMA of per-batch access increments; tuples whose interest
    /// *stopped* are forgotten even if they were hot once.
    Decay {
        /// EWMA smoothing factor in `(0, 1]`.
        alpha: f64,
        /// Rows younger than this many batches are protected.
        protect_age: u64,
    },
    /// Weighted blend: each victim slot is assigned to a sub-policy with
    /// probability proportional to its weight.
    Composite(
        /// `(weight, recipe)` pairs.
        Vec<(f64, PolicyKind)>,
    ),
}

impl PolicyKind {
    /// The five policies evaluated in the paper's figures, in the order
    /// the legends list them.
    pub fn paper_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fifo,
            PolicyKind::Uniform,
            PolicyKind::Anterograde { bias: 3.0 },
            PolicyKind::Rot { high_water_age: 2 },
            PolicyKind::Area,
        ]
    }

    /// The Figure-1 subset (all except rot — "Figure 1 illustrates … all
    /// amnesia algorithms except the rot amnesia").
    pub fn fig1_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fifo,
            PolicyKind::Uniform,
            PolicyKind::Anterograde { bias: 3.0 },
            PolicyKind::Area,
        ]
    }

    /// The RECALL experiment set: the paper's two baselines, its
    /// query-based rot, and the three §4.4/§5 research-vista policies
    /// this reproduction adds.
    pub fn learning_set() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Fifo,
            PolicyKind::Uniform,
            PolicyKind::Rot { high_water_age: 2 },
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
        ]
    }

    /// Build the live policy.
    pub fn build(&self) -> Box<dyn AmnesiaPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::Uniform => Box::new(UniformPolicy),
            PolicyKind::Anterograde { bias } => Box::new(AnterogradePolicy::new(*bias)),
            PolicyKind::Rot { high_water_age } => Box::new(RotPolicy::new(*high_water_age)),
            PolicyKind::Overuse => Box::new(OverusePolicy),
            PolicyKind::Lru => Box::new(LruPolicy),
            PolicyKind::Area => Box::new(AreaPolicy::new()),
            PolicyKind::Ttl { max_age } => Box::new(TtlPolicy::new(*max_age)),
            PolicyKind::Pair => Box::new(PairPolicy),
            PolicyKind::Aligned { bins } => Box::new(AlignedPolicy::new(*bins)),
            PolicyKind::CostBased { bins, gamma } => Box::new(CostBasedPolicy::new(*bins, *gamma)),
            PolicyKind::Ebbinghaus {
                base_strength,
                rehearsal_boost,
            } => Box::new(EbbinghausPolicy::new(*base_strength, *rehearsal_boost)),
            PolicyKind::Decay { alpha, protect_age } => {
                Box::new(DecayPolicy::new(*alpha, *protect_age))
            }
            PolicyKind::Composite(parts) => Box::new(CompositePolicy::new(
                parts.iter().map(|(w, k)| (*w, k.build())).collect(),
            )),
        }
    }

    /// Stable short name (matches the paper's figure legends).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fifo => "fifo",
            PolicyKind::Uniform => "uniform",
            PolicyKind::Anterograde { .. } => "ante",
            PolicyKind::Rot { .. } => "rot",
            PolicyKind::Overuse => "overuse",
            PolicyKind::Lru => "lru",
            PolicyKind::Area => "area",
            PolicyKind::Ttl { .. } => "ttl",
            PolicyKind::Pair => "pair",
            PolicyKind::Aligned { .. } => "aligned",
            PolicyKind::CostBased { .. } => "cost",
            PolicyKind::Ebbinghaus { .. } => "ebbinghaus",
            PolicyKind::Decay { .. } => "decay",
            PolicyKind::Composite(_) => "composite",
        }
    }
}

/// Shared helper: all active rows as a vector (insertion order).
pub(crate) fn active_rows(ctx: &PolicyContext<'_>) -> Vec<RowId> {
    ctx.table.active_row_ids()
}

/// Shared helper: clamp a victim request to the active population.
pub(crate) fn clamp_victims(ctx: &PolicyContext<'_>, n: usize) -> usize {
    n.min(ctx.table.active_rows())
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Helpers for policy unit tests.

    use super::*;
    use amnesia_columnar::Schema;

    /// Build a table with `initial` values at epoch 0 and `per_batch`
    /// values for each subsequent epoch (serial values).
    pub fn staged_table(initial: usize, per_batch: usize, batches: u64) -> Table {
        let mut t = Table::new(Schema::single("a"));
        let mut next = 0i64;
        let vals: Vec<i64> = (0..initial as i64).map(|i| next + i).collect();
        next += initial as i64;
        t.insert_batch(&vals, 0).unwrap();
        for b in 1..=batches {
            let vals: Vec<i64> = (0..per_batch as i64).map(|i| next + i).collect();
            next += per_batch as i64;
            t.insert_batch(&vals, b).unwrap();
        }
        t
    }

    /// Assert the victim contract: distinct, active, correct count.
    pub fn assert_victims_valid(table: &Table, victims: &[RowId], expected: usize) {
        assert_eq!(victims.len(), expected, "victim count");
        let mut seen = std::collections::HashSet::new();
        for &v in victims {
            assert!(table.activity().is_active(v), "victim {v} not active");
            assert!(seen.insert(v), "duplicate victim {v}");
        }
    }

    /// Run a miniature fixed-size amnesia loop and return the table.
    pub fn run_loop(
        policy: &mut dyn AmnesiaPolicy,
        initial: usize,
        per_batch: usize,
        batches: u64,
        rng: &mut SimRng,
    ) -> Table {
        let mut t = Table::new(Schema::single("a"));
        let mut next = 0i64;
        let vals: Vec<i64> = (0..initial as i64).collect();
        next += initial as i64;
        t.insert_batch(&vals, 0).unwrap();
        for b in 1..=batches {
            let vals: Vec<i64> = (0..per_batch as i64).map(|i| next + i).collect();
            next += per_batch as i64;
            t.insert_batch(&vals, b).unwrap();
            let need = t.active_rows().saturating_sub(initial);
            let victims = {
                let ctx = PolicyContext {
                    table: &t,
                    epoch: b,
                };
                policy.select_victims(&ctx, need, rng)
            };
            assert_victims_valid(&t, &victims, need.min(t.active_rows()));
            for v in victims {
                t.forget(v, b).unwrap();
            }
            assert_eq!(t.active_rows(), initial, "budget must hold");
        }
        t
    }

    /// Active fraction per insertion epoch.
    pub fn retention_by_epoch(table: &Table, batches: u64) -> Vec<f64> {
        let mut total = vec![0usize; batches as usize + 1];
        let mut active = vec![0usize; batches as usize + 1];
        let mut lo = 0;
        for (rows, epoch) in table.insert_epochs().iter() {
            total[epoch as usize] += rows;
            active[epoch as usize] += table.activity().active_in_range(lo, lo + rows);
            lo += rows;
        }
        total
            .iter()
            .zip(&active)
            .map(|(&t, &a)| if t == 0 { 0.0 } else { a as f64 / t as f64 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_set_matches_figure_legends() {
        let names: Vec<&str> = PolicyKind::paper_set().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["fifo", "uniform", "ante", "rot", "area"]);
        let fig1: Vec<&str> = PolicyKind::fig1_set().iter().map(|p| p.name()).collect();
        assert_eq!(fig1, vec!["fifo", "uniform", "ante", "area"]);
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in PolicyKind::paper_set() {
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PolicyKind::Overuse.build().name(), "overuse");
        assert_eq!(PolicyKind::Lru.build().name(), "lru");
        assert_eq!(PolicyKind::Ttl { max_age: 3 }.build().name(), "ttl");
        assert_eq!(PolicyKind::Pair.build().name(), "pair");
        assert_eq!(PolicyKind::Aligned { bins: 10 }.build().name(), "aligned");
        for kind in PolicyKind::learning_set() {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn every_policy_honours_the_victim_contract() {
        use testkit::*;
        let mut rng = SimRng::new(99);
        let kinds = vec![
            PolicyKind::Fifo,
            PolicyKind::Uniform,
            PolicyKind::Anterograde { bias: 3.0 },
            PolicyKind::Rot { high_water_age: 1 },
            PolicyKind::Overuse,
            PolicyKind::Lru,
            PolicyKind::Area,
            PolicyKind::Ttl { max_age: 2 },
            PolicyKind::Pair,
            PolicyKind::Aligned { bins: 8 },
            PolicyKind::CostBased {
                bins: 32,
                gamma: 1.0,
            },
            PolicyKind::Ebbinghaus {
                base_strength: 1.0,
                rehearsal_boost: 1.0,
            },
            PolicyKind::Decay {
                alpha: 0.4,
                protect_age: 1,
            },
            PolicyKind::Composite(vec![(0.5, PolicyKind::Fifo), (0.5, PolicyKind::Uniform)]),
        ];
        for kind in kinds {
            let mut policy = kind.build();
            // Loop keeps budget; panics inside run_loop on violations.
            let _ = run_loop(&mut *policy, 50, 10, 5, &mut rng);
            // Over-request: must return everything active, no more.
            let t = staged_table(10, 0, 0);
            let ctx = PolicyContext {
                table: &t,
                epoch: 1,
            };
            let victims = policy.select_victims(&ctx, 100, &mut rng);
            assert_victims_valid(&t, &victims, 10);
        }
    }
}
