//! Privacy-mandated forgetting: a legal retention window with physical
//! deletion.
//!
//! ```sh
//! cargo run --release --example privacy_ttl
//! ```
//!
//! Paper §1: "observations that are constrained by a Data Privacy Act
//! should be forgotten within the legally defined time frame" — and for
//! privacy, *marking* is not enough: the bytes must go. We pair
//! [`PolicyKind::Ttl`] with [`ForgetMode::Delete`] (vacuum every batch)
//! and prove two properties after every batch:
//!
//! 1. no active record older than the retention window survives once the
//!    backlog drains, and
//! 2. the vacuumed table physically contains no expired payloads.

use amnesia::prelude::*;

const RETENTION_BATCHES: u64 = 3;

fn main() -> Result<()> {
    let dbsize = 1000usize;
    let per_batch = 500usize;

    let mut rng = SimRng::new(0x9D9);
    let mut dist = DistributionKind::Uniform.build(1_000_000, 0x9D9);
    let mut policy = PolicyKind::Ttl {
        max_age: RETENTION_BATCHES,
    }
    .build();
    // Vacuum every batch: forgotten = physically gone.
    let mut store = AmnesiacStore::new(ForgetMode::Delete);

    let initial: Vec<i64> = (0..dbsize).map(|_| dist.sample(&mut rng)).collect();
    store.insert_batch(&initial, 0)?;

    println!("retention window: {RETENTION_BATCHES} batches; vacuum: every batch\n");
    println!(
        "{:>5} {:>8} {:>10} {:>12} {:>14}",
        "batch", "active", "physical", "over-age", "oldest epoch"
    );

    for b in 1..=12u64 {
        let fresh: Vec<i64> = (0..per_batch).map(|_| dist.sample(&mut rng)).collect();
        store.insert_batch(&fresh, b)?;

        // Budget: hold dbsize — but ALSO forget every expired record even
        // if that dips below budget (the law outranks the buffer).
        let over_budget = store.table().active_rows().saturating_sub(dbsize);
        let expired = store
            .table()
            .iter_active()
            .filter(|&r| b.saturating_sub(store.table().insert_epoch(r)) > RETENTION_BATCHES)
            .count();
        let need = over_budget.max(expired);
        let victims = {
            let ctx = PolicyContext {
                table: store.table(),
                epoch: b,
            };
            policy.select_victims(&ctx, need, &mut rng)
        };
        store.forget_batch(&victims, b)?;
        store.end_batch()?;

        let table = store.table();
        let over_age = table
            .iter_active()
            .filter(|&r| b.saturating_sub(table.insert_epoch(r)) > RETENTION_BATCHES)
            .count();
        let oldest = table
            .iter_active()
            .map(|r| table.insert_epoch(r))
            .min()
            .unwrap_or(b);
        println!(
            "{:>5} {:>8} {:>10} {:>12} {:>14}",
            b,
            table.active_rows(),
            table.num_rows(),
            over_age,
            oldest
        );

        // Compliance assertions: after the initial backlog drains, nothing
        // over-age survives, and the physical store holds no forgotten
        // rows at all (vacuumed every batch).
        assert_eq!(
            table.num_rows(),
            table.active_rows(),
            "vacuum must leave no forgotten payloads behind"
        );
        if b > RETENTION_BATCHES + 1 {
            assert_eq!(over_age, 0, "legal retention window violated");
        }
    }

    println!("\ncompliant: every expired record was forgotten AND physically removed.");
    Ok(())
}
