//! Weather archive: domain-tailored amnesia with summaries.
//!
//! ```sh
//! cargo run --release --example weather_history
//! ```
//!
//! Paper §5: "in a database with historical weather information, data from
//! areas that have constant weather patterns can be forgotten in a few
//! weeks time, where for areas that exhibit strange meteorological
//! phenomena the data should be kept for longer periods."
//!
//! We model two stations feeding one table: a *steady* coastal station
//! (tight normal around 15 °C) and a *volatile* desert station (wide
//! normal). An [`AmnesiacStore`] in `Summarize` mode forgets under a
//! distribution-aligned policy, so climate aggregates survive even though
//! most raw steady-station readings rot away — and the whole-table average
//! stays exact thanks to the summaries.

use amnesia::columnar::RowId;
use amnesia::prelude::*;
use amnesia::util::ascii;

/// Temperatures in tenths of a degree, offset to keep them positive.
fn station_mix() -> DistributionKind {
    DistributionKind::Mixture {
        // Steady coastal station: 15.0 ± 1 °C.
        first: Box::new(DistributionKind::Normal { sd_frac: 0.02 }),
        // Volatile desert station: same mean, ±10 °C swings.
        second: Box::new(DistributionKind::Normal { sd_frac: 0.20 }),
        weight: 0.7,
    }
}

fn main() -> Result<()> {
    let dbsize = 2000usize;
    let batches = 15u64;
    let per_batch = 800usize;
    let domain = 600i64; // 0..60.0 °C in tenths

    let mut rng = SimRng::new(0xEA7);
    let mut dist = station_mix().build(domain, 0xEA7);
    let mut policy = PolicyKind::Aligned { bins: 24 }.build();
    let mut store = AmnesiacStore::new(ForgetMode::Summarize);

    // Ledger for verification only (a real deployment has no such thing).
    let mut all_readings: Vec<i64> = Vec::new();

    let initial: Vec<i64> = (0..dbsize).map(|_| dist.sample(&mut rng)).collect();
    all_readings.extend_from_slice(&initial);
    store.insert_batch(&initial, 0)?;

    for week in 1..=batches {
        let fresh: Vec<i64> = (0..per_batch).map(|_| dist.sample(&mut rng)).collect();
        all_readings.extend_from_slice(&fresh);
        store.insert_batch(&fresh, week)?;

        let need = store.table().active_rows().saturating_sub(dbsize);
        let victims = {
            let ctx = PolicyContext {
                table: store.table(),
                epoch: week,
            };
            policy.select_victims(&ctx, need, &mut rng)
        };
        store.forget_batch(&victims, week)?;
        store.end_batch()?;
    }

    // --- climate report ----------------------------------------------------
    let exact_avg = all_readings.iter().map(|&v| v as f64).sum::<f64>() / all_readings.len() as f64;
    let stored_avg = store
        .query(&Query::Aggregate {
            kind: AggKind::Avg,
            predicate: None,
        })
        .output
        .agg()
        .flatten()
        .unwrap_or(f64::NAN);
    let stored_count = store
        .query(&Query::Aggregate {
            kind: AggKind::Count,
            predicate: None,
        })
        .output
        .agg()
        .flatten()
        .unwrap_or(0.0);

    let fp = store.footprint();
    let mut t = ascii::TextTable::new(vec!["metric", "value"]);
    t.row(vec![
        "readings ingested".to_string(),
        all_readings.len().to_string(),
    ]);
    t.row(vec!["raw tuples kept".to_string(), fp.hot_rows.to_string()]);
    t.row(vec![
        "summary bytes".to_string(),
        fp.summary_bytes.to_string(),
    ]);
    t.row(vec![
        "AVG (exact history)".to_string(),
        format!("{:.2} °C", exact_avg / 10.0),
    ]);
    t.row(vec![
        "AVG (amnesiac + summaries)".to_string(),
        format!("{:.2} °C", stored_avg / 10.0),
    ]);
    t.row(vec![
        "COUNT (amnesiac + summaries)".to_string(),
        format!("{stored_count:.0}"),
    ]);
    println!("weather archive after {batches} weeks\n\n{}", t.render());

    // Hot/volatile readings should still be individually queryable: the
    // aligned policy keeps the active sample faithful to history.
    let extremes = store.query(&Query::Range(RangePredicate::new(450, 600)));
    println!(
        "heatwave readings (>45 °C) still individually queryable: {}",
        extremes.output.cardinality()
    );

    // Distribution check: the surviving sample mirrors history.
    let table = store.table();
    let mut sample_hot = 0usize;
    let mut sample_n = 0usize;
    for r in table.iter_active() {
        sample_n += 1;
        if table.value(0, RowId::from(r.as_usize())) > 450 {
            sample_hot += 1;
        }
    }
    let hist_hot = all_readings.iter().filter(|&&v| v > 450).count();
    println!(
        "fraction >45 °C — history: {:.4}, surviving sample: {:.4}",
        hist_hot as f64 / all_readings.len() as f64,
        sample_hot as f64 / sample_n.max(1) as f64,
    );
    Ok(())
}
