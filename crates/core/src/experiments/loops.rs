//! The sweeps of [`super::EXPERIMENTS`] that are not simulator runs (the
//! [`super::Sweep`] variants other than `Sim`): the store-plus-ledger
//! loop, the codec grid, the parent/child join loop and the partitioned
//! adaptive loop. Each keeps its own seed salt and draw order, so its
//! published numbers hold.

use amnesia_columnar::compress::{EncodedBlock, Encoding};
use amnesia_columnar::{Database, ForeignKey, MemoryColdStore, ReferentialAction, Schema};
use amnesia_distrib::DistributionKind;
use amnesia_engine::{kernels, ColPred};
use amnesia_util::{Result, SimRng};
use amnesia_workload::query::{AggKind, RangePredicate};
use amnesia_workload::Query;

use super::{Probes, Scale};
use crate::adaptive::{AdaptiveConfig, AdaptiveStore};
use crate::policy::{PolicyContext, PolicyKind};
use crate::sim::select_active;
use crate::store::{AmnesiacStore, ForgetMode};

/// The store-plus-ledger loop: an [`AmnesiacStore`] in `mode` under
/// uniform amnesia (upd-perc 0.40) beside a ledger of every value ever
/// inserted, then `probes` scored against the ledger. Returns one table
/// row.
pub(super) fn store_loop(
    scale: &Scale,
    label: &str,
    mode: ForgetMode,
    probes: Probes,
) -> Result<Vec<String>> {
    // One seed salt per probe set keeps each table's published numbers.
    let salt = match probes {
        Probes::Footprint => 0,
        Probes::RangedAggregates => 0x0DE1,
    };
    let mut rng = SimRng::new(scale.seed ^ salt);
    let mut dist = DistributionKind::Uniform.build(scale.domain, scale.seed);
    let mut store = AmnesiacStore::new(mode);
    if matches!(mode, ForgetMode::Tier) {
        store = store.with_cold_store(Box::new(MemoryColdStore::new()));
    }
    let mut policy = PolicyKind::Uniform.build();
    let mut ledger: Vec<i64> = Vec::new();
    let batch_rows = (scale.dbsize as f64 * 0.40).round() as usize;
    // Epoch 0 loads dbsize rows; every batch after it inserts, forgets
    // back to dbsize, and closes the batch.
    for b in 0..=scale.batches {
        let n = if b == 0 { scale.dbsize } else { batch_rows };
        let fresh: Vec<i64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        ledger.extend_from_slice(&fresh);
        store.insert_batch(&fresh, b)?;
        if b > 0 {
            let need = store.table().active_rows().saturating_sub(scale.dbsize);
            let ctx = PolicyContext {
                table: store.table(),
                epoch: b,
            };
            let victims = policy.select_victims(&ctx, need, &mut rng);
            store.forget_batch(&victims, b)?;
            store.end_batch()?;
        }
    }

    let range = ledger.iter().copied().max().unwrap_or(1).max(1);
    let agg = |kind, predicate| {
        let output = store.query(&Query::Aggregate { kind, predicate }).output;
        output.agg().flatten().unwrap_or(0.0)
    };
    let mean = |v: &[i64]| v.iter().map(|&v| v as f64).sum::<f64>() / v.len() as f64;
    let rel_err = amnesia_util::stats::relative_error;
    let mut row = vec![label.to_string()];
    match probes {
        Probes::Footprint => {
            let (probes, width) = (100, (range / 50).max(1));
            let (mut completeness, mut cost) = (0.0, 0.0);
            for _ in 0..probes {
                let lo = rng.range_i64(0, range);
                let pred = RangePredicate::new(lo, lo.saturating_add(width));
                let truth = ledger.iter().filter(|&&v| pred.matches(v)).count();
                let result = store.query(&Query::Range(pred));
                cost += result.stats.cost;
                completeness += match truth {
                    0 => 1.0,
                    _ => result.output.cardinality().min(truth) as f64 / truth as f64,
                };
            }
            let avg_err = rel_err(agg(AggKind::Avg, None), mean(&ledger));
            let fp = store.footprint();
            row.extend([
                fp.hot_rows.to_string(),
                format!("{:.1}", fp.hot_bytes as f64 / 1024.0),
                fp.cold_rows.to_string(),
                fp.summary_bytes.to_string(),
                format!("{:.4}", completeness / probes as f64),
                format!("{avg_err:.4}"),
                format!("{:.0}", cost / probes as f64),
            ]);
        }
        Probes::RangedAggregates => {
            let (probes, width) = (200, (range / 10).max(1));
            let (mut count_err, mut avg_err, mut avg_probes) = (0.0, 0.0, 0usize);
            for _ in 0..probes {
                let lo = rng.range_i64(0, range - width + 1);
                let pred = RangePredicate::new(lo, lo + width);
                let truth: Vec<i64> = ledger
                    .iter()
                    .copied()
                    .filter(|&v| pred.matches(v))
                    .collect();
                count_err += rel_err(agg(AggKind::Count, Some(pred)), truth.len() as f64);
                if !truth.is_empty() {
                    avg_err += rel_err(agg(AggKind::Avg, Some(pred)), mean(&truth));
                    avg_probes += 1;
                }
            }
            let fp = store.footprint();
            row.extend([
                format!("{:.4}", count_err / probes as f64),
                format!("{:.4}", avg_err / avg_probes.max(1) as f64),
                fp.hot_rows.to_string(),
                (fp.summary_bytes + fp.model_bytes).to_string(),
            ]);
        }
    }
    Ok(row)
}

/// Bytes per tuple for each codec × paper distribution, and the implied
/// budget stretch (how many times more tuples fit before amnesia must
/// kick in).
pub(super) fn codec_grid(scale: &Scale) -> Vec<Vec<String>> {
    let n = scale.codec_rows();
    let mut rng = SimRng::new(scale.seed);
    let mut rows = Vec::new();
    for dist_kind in DistributionKind::paper_set() {
        let mut dist = dist_kind.build(scale.domain, scale.seed);
        let values: Vec<i64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mut blocks: Vec<(String, EncodedBlock)> = Encoding::ALL
            .iter()
            .map(|&enc| (enc.name().to_string(), EncodedBlock::encode(&values, enc)))
            .collect();
        let auto = EncodedBlock::encode_auto(&values);
        blocks.push((format!("auto({})", auto.encoding().name()), auto));
        for (codec, block) in blocks {
            rows.push(vec![
                dist_kind.name().to_string(),
                codec,
                format!("{:.3}", block.compressed_bytes() as f64 / n as f64),
                format!("{:.2}", block.compression_ratio()),
            ]);
        }
    }
    rows
}

/// The parent/child join loop: a parent/child database through the
/// amnesia loop under a policy and a referential action, recording join
/// precision per batch. The ground truth is the join over all tuples ever
/// inserted (mark-only storage keeps them scannable).
///
/// Returns `(precision per batch, dangling references at the end, final
/// parent-budget overshoot)`.
pub(super) fn join_loop(
    scale: &Scale,
    kind: &PolicyKind,
    action: Option<ReferentialAction>,
) -> Result<(Vec<f64>, usize, usize)> {
    let mut rng = SimRng::new(scale.seed ^ 0x4A01_4A01);
    let mut db = Database::new();
    let parent = db.add_table("parent", Schema::single("key"));
    let child = db.add_table("child", Schema::new(vec!["fk", "payload"]));
    db.add_foreign_key(ForeignKey {
        child_table: child,
        child_col: 0,
        parent_table: parent,
        parent_col: 0,
    })?;

    let dbsize = scale.dbsize;
    let batch_rows = ((dbsize as f64) * 0.20).round() as usize;
    let mut policy = kind.build();
    let mut next_key: i64 = 0;
    let mut precisions = Vec::with_capacity(scale.batches as usize);
    // Epoch 0 loads dbsize parents and children; every batch after it
    // inserts more of both, then forgets.
    for b in 0..=scale.batches {
        let n = if b == 0 { dbsize } else { batch_rows };
        for _ in 0..n {
            db.table_mut(parent).insert(&[next_key], b)?;
            next_key += 1;
        }
        // Children reference a random *active* parent key, skewed
        // quadratically toward the front of the active key list: some
        // parents are hot, so cascades differ by policy.
        let parents = db.table(parent);
        let keys: Vec<i64> = parents.iter_active().map(|r| parents.value(0, r)).collect();
        for _ in 0..n {
            let pos = (rng.f64() * rng.f64() * keys.len() as f64) as usize;
            let fk = keys[pos.min(keys.len() - 1)];
            let payload = rng.range_i64(0, scale.domain.max(1));
            db.table_mut(child).insert(&[fk, payload], b)?;
        }
        if b == 0 {
            continue;
        }

        // Amnesia on the parent table under the policy.
        let excess = db.table(parent).active_rows().saturating_sub(dbsize);
        let ctx = PolicyContext {
            table: db.table(parent),
            epoch: b,
        };
        let parent_victims = policy.select_victims(&ctx, excess, &mut rng);
        match action {
            Some(ReferentialAction::Cascade) => {
                for v in parent_victims {
                    db.forget(parent, v, b, ReferentialAction::Cascade)?;
                }
            }
            Some(ReferentialAction::Restrict) => {
                // Forget only unreferenced parents; keep drawing extra
                // candidates so the budget can still be met when enough
                // unreferenced keys exist.
                let mut remaining = excess;
                for v in parent_victims {
                    if remaining == 0 {
                        break;
                    }
                    if db.forget(parent, v, b, ReferentialAction::Restrict).is_ok() {
                        remaining -= 1;
                    }
                }
                if remaining > 0 {
                    for v in db.table(parent).active_row_ids() {
                        if remaining == 0 {
                            break;
                        }
                        let forgot = db.forget(parent, v, b, ReferentialAction::Restrict);
                        if forgot.is_ok_and(|f| !f.is_empty()) {
                            remaining -= 1;
                        }
                    }
                }
            }
            None => {
                // Raw forgets: referential semantics bypassed entirely.
                for v in parent_victims {
                    db.table_mut(parent).forget(v, b)?;
                }
            }
        }

        // Child budget: trim with the same policy (children have no
        // dependents, so raw forgetting is safe).
        let child_excess = db.table(child).active_rows().saturating_sub(dbsize);
        if child_excess > 0 {
            let ctx = PolicyContext {
                table: db.table(child),
                epoch: b,
            };
            for v in policy.select_victims(&ctx, child_excess, &mut rng) {
                db.table_mut(child).forget(v, b)?;
            }
        }

        precisions.push(
            amnesia_engine::join::join_precision(db.table(parent), 0, db.table(child), 0)
                .unwrap_or(1.0),
        );
    }

    let dangling = db.dangling_references().len();
    let overshoot = db.table(parent).active_rows().saturating_sub(dbsize);
    Ok((precisions, dangling, overshoot))
}

/// The adaptive ablation's lines: the bandit (labelled with the arm each
/// partition ends on) against each of its arms applied globally, over a
/// run four times as long — the bandit needs batches to explore.
pub(super) fn adaptive_lines(scale: &Scale) -> Result<Vec<(String, Vec<f64>)>> {
    let scale = Scale {
        batches: scale.batches * 4,
        ..*scale
    };
    let (adaptive, arms) = partitioned_loop(&scale, None)?;
    let mut lines = vec![(format!("adaptive[{}]", arms.join(",")), adaptive)];
    for kind in AdaptiveConfig::default_arms() {
        let name = format!("global-{}", kind.name());
        lines.push((name, partitioned_loop(&scale, Some(kind))?.0));
    }
    Ok(lines)
}

/// The partitioned adaptive loop: a two-sided workload over a partitioned
/// store. The lower half of the value space receives *recency* queries
/// (FIFO territory), the upper half *historical* queries (uniform/area
/// territory).
///
/// `arm = None` runs the adaptive bandit; `Some(kind)` pins every
/// partition to one fixed policy (the global baselines). Returns the
/// per-batch mean precision and each partition's final arm.
fn partitioned_loop(scale: &Scale, arm: Option<PolicyKind>) -> Result<(Vec<f64>, Vec<String>)> {
    let partitions = 2usize;
    let mut store = AdaptiveStore::new(AdaptiveConfig {
        arms: arm.map_or_else(AdaptiveConfig::default_arms, |kind| vec![kind]),
        epsilon: 0.15,
        partitions,
        domain: scale.domain,
        budget_per_partition: scale.dbsize / partitions,
    });
    let mut rng = SimRng::new(scale.seed ^ 0xADA9);

    // Ledger per partition: (value, insert batch).
    let mut ledgers: Vec<Vec<(i64, u64)>> = vec![Vec::new(); partitions];
    let half = scale.domain / 2;
    // Partition 0's data is time-correlated: each batch writes a fresh
    // value stripe, so recency queries land on recent *tuples* (FIFO
    // territory). Partition 1 is stationary uniform over the upper half
    // and queried across all of history (uniform/rot territory).
    let stripes = scale.batches + 1;
    let stripe = (half / stripes as i64).max(1);
    let batch_rows = (scale.dbsize as f64 * 0.4).round() as usize;
    // Narrow predicates keep the truth sets small, so the *identity* of
    // the retained tuples (not just their count) decides precision.
    let width = (scale.domain / 2000).max(1).min(stripe / 2).max(1);
    let mut series = Vec::with_capacity(scale.batches as usize);
    // Epoch 0 loads dbsize rows; every batch after it inserts, then runs
    // a query round scored against the partition ledgers.
    for b in 0..=scale.batches {
        let n = if b == 0 { scale.dbsize } else { batch_rows };
        for i in 0..n {
            let v = if i % 2 == 0 {
                // Drifting stripe within the lower half.
                (b.min(stripes - 1) as i64 * stripe + rng.range_i64(0, stripe)).min(half - 1)
            } else {
                rng.range_i64(half, scale.domain)
            };
            store.insert(v, b)?;
            ledgers[if v < half { 0 } else { 1 }].push((v, b));
        }
        if b == 0 {
            store.end_batch(0, &mut rng)?;
            continue;
        }

        let mut precision_sum = 0.0;
        let mut queries = 0usize;
        for q in 0..scale.queries_per_batch {
            let p = q % partitions;
            let ledger = &ledgers[p];
            // Partition 0: recency focus — anchor on a value from the two
            // newest batches (FIFO territory). Partition 1: a stable hot
            // set — anchor on the oldest tenth of everything ever
            // inserted, over and over (rot territory: only frequency
            // tracking keeps those tuples alive).
            let anchor = if p == 0 {
                let candidates: Vec<i64> = ledger
                    .iter()
                    .filter(|(_, e)| *e + 1 >= b)
                    .map(|(v, _)| *v)
                    .collect();
                match rng.choose(&candidates) {
                    Some(&v) => v,
                    None => continue,
                }
            } else {
                let hot = (ledger.len() / 10).max(1);
                ledger[rng.index(hot)].0
            };
            let pred =
                RangePredicate::new(anchor.saturating_sub(width), anchor.saturating_add(width));
            let truth = ledger.iter().filter(|(v, _)| pred.matches(*v)).count();
            if truth == 0 {
                continue;
            }
            let active = select_active(store.table(p), &ColPred::from_range(0, pred));
            let touched = kernels::selection_rows(&active);
            store.touch(p, &touched, b);
            let pf = touched.len() as f64 / truth as f64;
            store.observe(p, pf);
            precision_sum += pf;
            queries += 1;
        }
        series.push(if queries == 0 {
            1.0
        } else {
            precision_sum / queries as f64
        });
        store.end_batch(b, &mut rng)?;
    }
    let arms = (0..partitions)
        .map(|p| format!("p{p}:{}", store.current_arm(p)))
        .collect();
    Ok((series, arms))
}
