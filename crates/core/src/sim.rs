//! The Data Amnesia Simulator loop.
//!
//! Paper §2.3: "we assume a query dominant environment, where a batch of
//! queries is followed by a batch of updates, immediately followed by
//! applying an amnesia algorithm to guarantee that the database is always
//! of DBSIZE. The metrics are reported by averaging over a batch of 1000
//! individual queries fired against the incomplete database."
//!
//! The simulator drives an [`AmnesiacStore`] in [`ForgetMode::MarkOnly`],
//! which keeps forgotten values (§2.1), so the store plus the complete
//! scan is the ground-truth ledger: the engine's selection kernels score
//! every query over the active rows and over all rows ever inserted.

use amnesia_columnar::{Table, Value};
use amnesia_engine::{kernels, ColPred};
use amnesia_util::{Result, SimRng};
use amnesia_workload::{Query, QueryGenerator, TableSnapshot, UpdateGenerator};

use crate::config::SimConfig;
use crate::metrics::{
    AmnesiaMap, BatchSummary, PrecisionAccumulator, QueryPrecision, SimReport, StorageReport,
};
use crate::policy::{AmnesiaPolicy, PolicyContext};
use crate::store::{AmnesiacStore, ForgetMode};

/// Query generators draw from the store's table.
impl TableSnapshot for AmnesiacStore {
    fn max_value_seen(&self) -> Option<i64> {
        self.table().max_seen(0)
    }

    fn random_active_value(&self, rng: &mut SimRng) -> Option<i64> {
        self.random_active(rng).map(|r| self.table().value(0, r))
    }

    fn active_count(&self) -> usize {
        self.table().active_rows()
    }
}

/// The active rows of `table` passing `pred`, as selection words.
pub(crate) fn select_active(table: &Table, pred: &ColPred) -> Vec<u64> {
    let preds = std::slice::from_ref(pred);
    kernels::selection_scan_ordered(table, preds, &[0], &mut [Default::default()]).0
}

/// Score `pred` against `table`: the selection words of its active rows
/// (what the amnesiac database answers) and of all its rows, forgotten
/// included (what the full history would answer).
pub(crate) fn select(table: &Table, pred: &ColPred) -> (Vec<u64>, Vec<u64>) {
    let all = kernels::selection_scan_all(table, pred);
    (select_active(table, pred), all)
}

/// The simulator.
pub struct Simulator {
    cfg: SimConfig,
    store: AmnesiacStore,
    updates: UpdateGenerator,
    query_gen: Box<dyn QueryGenerator>,
    policy: Box<dyn AmnesiaPolicy>,
    rng_data: SimRng,
    rng_queries: SimRng,
    rng_policy: SimRng,
    summaries: Vec<BatchSummary>,
}

impl Simulator {
    /// Validate the configuration, build all components, and load the
    /// initial `DBSIZE` tuples (epoch 0).
    pub fn new(cfg: SimConfig) -> Result<Self> {
        cfg.validate()?;
        let mut master = SimRng::new(cfg.seed);
        let mut rng_data = master.fork();
        let rng_queries = master.fork();
        let rng_policy = master.fork();

        let mut updates = UpdateGenerator::from_kind(&cfg.distribution, cfg.domain, cfg.seed);
        let query_gen = cfg.query_gen.build();
        let policy = cfg.policy.build();

        let mut store = AmnesiacStore::new(ForgetMode::MarkOnly);
        let initial = updates.batch(cfg.dbsize, &mut rng_data);
        store.insert_batch(&initial, 0)?;

        Ok(Self {
            cfg,
            store,
            updates,
            query_gen,
            policy,
            rng_data,
            rng_queries,
            rng_policy,
            summaries: Vec::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The store the simulator drives (its footprint and metrics).
    pub fn store(&self) -> &AmnesiacStore {
        &self.store
    }

    /// The amnesiac table (ground truth included, as forgotten marks).
    pub fn table(&self) -> &Table {
        self.store.table()
    }

    /// Execute one batch: queries → inserts → amnesia. Returns the batch
    /// summary (also retained internally for the final report).
    pub fn step(&mut self) -> Result<BatchSummary> {
        let batch = self.summaries.len() as u64 + 1;
        let mut acc = PrecisionAccumulator::new();

        // ---- query phase ------------------------------------------------
        for _ in 0..self.cfg.queries_per_batch {
            let query = self
                .query_gen
                .next_query(&self.store, &mut self.rng_queries);
            let table = self.store.table();
            let pred = match (query, query.predicate()) {
                (Query::Point(v), _) => ColPred::range(0, v, v),
                (_, Some(p)) => ColPred::from_range(0, p),
                (_, None) => ColPred::range(0, Value::MIN, Value::MAX),
            };
            let (active, all) = select(table, &pred);
            let returned = kernels::selection_count(&active);
            match query {
                Query::Aggregate { kind, .. } => acc.record_aggregate(
                    kernels::aggregate_selection(table, &active, 0).finalize(kind),
                    kernels::aggregate_selection(table, &all, 0).finalize(kind),
                ),
                _ => acc.record(QueryPrecision {
                    returned,
                    missed: kernels::selection_count(&all) - returned,
                }),
            }
            let touched = kernels::selection_rows(&active);
            self.store.access_mut().touch_all(&touched, batch);
        }
        if self.cfg.access_decay < 1.0 {
            self.store.access_mut().decay(self.cfg.access_decay);
        }

        // ---- update phase -----------------------------------------------
        self.updates.on_epoch(batch);
        let fresh = self
            .updates
            .batch(self.cfg.batch_rows(), &mut self.rng_data);
        if !fresh.is_empty() {
            self.store.insert_batch(&fresh, batch)?;
        }

        // ---- amnesia phase ----------------------------------------------
        let table = self.store.table();
        let need = self
            .cfg
            .budget
            .victims_needed(table.active_rows(), self.cfg.dbsize);
        if need > 0 {
            let ctx = PolicyContext {
                table,
                epoch: batch,
            };
            let victims = self.policy.select_victims(&ctx, need, &mut self.rng_policy);
            debug_assert_eq!(victims.len(), need.min(table.active_rows()));
            self.store.forget_batch(&victims, batch)?;
        }
        self.store.end_batch()?;

        let table = self.store.table();
        let summary = BatchSummary {
            batch,
            mean_pf: acc.mean_pf(),
            e_margin: acc.e_margin(),
            mean_rf: acc.mean_rf(),
            mean_mf: acc.mean_mf(),
            agg_error: acc.mean_agg_error(),
            active_rows: table.active_rows(),
            total_rows: table.num_rows(),
        };
        self.summaries.push(summary.clone());
        Ok(summary)
    }

    /// Run all configured batches and produce the report.
    pub fn run(mut self) -> Result<SimReport> {
        for _ in 0..self.cfg.batches {
            self.step()?;
        }
        Ok(self.into_report())
    }

    /// Produce a report from the current state (useful after manual
    /// stepping).
    pub fn into_report(self) -> SimReport {
        let table = self.store.table();
        let map = AmnesiaMap::from_table(table, (self.summaries.len() as u64).max(1));
        let storage = StorageReport {
            final_active_rows: table.active_rows(),
            total_rows_inserted: table.num_rows(),
            rows_forgotten: table.forgotten_rows(),
            table_bytes: table.memory_bytes(),
        };
        SimReport {
            policy: self.cfg.policy.name().to_string(),
            distribution: self.cfg.distribution.name().to_string(),
            batches: self.summaries,
            map,
            storage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetMode;
    use crate::policy::PolicyKind;
    use amnesia_columnar::{RowId, Schema};
    use amnesia_distrib::DistributionKind;
    use amnesia_workload::query::{AggKind, RangePredicate};
    use amnesia_workload::QueryGenKind;

    fn small_cfg(policy: PolicyKind) -> SimConfig {
        SimConfig::builder()
            .dbsize(200)
            .domain(10_000)
            .update_fraction(0.2)
            .batches(5)
            .queries_per_batch(50)
            .distribution(DistributionKind::Uniform)
            .policy(policy)
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn budget_invariant_holds_every_batch() {
        let mut sim = Simulator::new(small_cfg(PolicyKind::Uniform)).unwrap();
        for _ in 0..5 {
            let s = sim.step().unwrap();
            assert_eq!(s.active_rows, 200, "DBSIZE must hold after amnesia");
        }
        assert_eq!(sim.table().num_rows(), 200 + 5 * 40);
    }

    #[test]
    fn precision_decays_toward_the_floor() {
        let report = Simulator::new(small_cfg(PolicyKind::Uniform))
            .unwrap()
            .run()
            .unwrap();
        let series = report.precision_series();
        assert_eq!(series.len(), 5);
        // Batch 1 queries ran before any forgetting: perfect precision.
        assert!(series[0] > 0.999, "first batch precision {}", series[0]);
        // Later batches have forgotten data: precision strictly below 1.
        assert!(series[4] < 0.95, "last batch precision {}", series[4]);
        // The floor is dbsize / total_seen.
        let floor = 200.0 / (200.0 + 5.0 * 40.0);
        assert!(series[4] > floor * 0.5, "not below half the floor");
    }

    #[test]
    fn identical_seeds_identical_reports() {
        let r1 = Simulator::new(small_cfg(PolicyKind::Area))
            .unwrap()
            .run()
            .unwrap();
        let r2 = Simulator::new(small_cfg(PolicyKind::Area))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(r1.precision_series(), r2.precision_series());
        assert_eq!(r1.map.active, r2.map.active);

        let mut cfg = small_cfg(PolicyKind::Area);
        cfg.seed = 8;
        let r3 = Simulator::new(cfg).unwrap().run().unwrap();
        assert_ne!(r1.precision_series(), r3.precision_series());
    }

    #[test]
    fn unbounded_budget_never_forgets_and_stays_precise() {
        let mut cfg = small_cfg(PolicyKind::Uniform);
        cfg.budget = BudgetMode::Unbounded;
        let report = Simulator::new(cfg).unwrap().run().unwrap();
        assert_eq!(report.storage.rows_forgotten, 0);
        for b in &report.batches {
            assert!((b.e_margin - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn aggregate_workload_produces_agg_errors() {
        let mut cfg = small_cfg(PolicyKind::Uniform);
        cfg.query_gen = QueryGenKind::paper_avg();
        let report = Simulator::new(cfg).unwrap().run().unwrap();
        for b in &report.batches {
            assert!(
                b.agg_error.is_some(),
                "agg error missing in batch {}",
                b.batch
            );
        }
        // Whole-table AVG under uniform amnesia stays accurate (paper
        // §4.3: "the differences were marginal").
        let last = report.batches.last().unwrap().agg_error.unwrap();
        assert!(last < 0.05, "avg error {last}");
    }

    /// `pred` scored as the query phase scores it: `(returned, missed,
    /// touched rows)`, and the `(approximate, exact)` answers of `kind`.
    #[allow(clippy::type_complexity)]
    fn score(
        t: &Table,
        pred: &ColPred,
        kind: AggKind,
    ) -> ((usize, usize, Vec<RowId>), (Option<f64>, Option<f64>)) {
        let (active, all) = select(t, pred);
        let returned = kernels::selection_count(&active);
        let missed = kernels::selection_count(&all) - returned;
        let answer = |sel| kernels::aggregate_selection(t, sel, 0).finalize(kind);
        let precision = (returned, missed, kernels::selection_rows(&active));
        (precision, (answer(&active), answer(&all)))
    }

    #[test]
    fn eval_range_counts_rf_and_mf() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2, 3, 4, 5], 0).unwrap();
        t.forget(RowId(1), 1).unwrap(); // 2 forgotten
        let pred = ColPred::from_range(0, RangePredicate::new(1, 4));
        // Returned 1 and 3, missed 2.
        let rows = vec![RowId(0), RowId(2)];
        assert_eq!(score(&t, &pred, AggKind::Count).0, (2, 1, rows));
    }

    #[test]
    fn eval_aggregate_compares_active_to_history() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30], 0).unwrap();
        t.forget(RowId(2), 1).unwrap(); // 30 forgotten
        let everything = ColPred::range(0, Value::MIN, Value::MAX);
        let ((_, _, contributors), answers) = score(&t, &everything, AggKind::Avg);
        assert_eq!(answers, (Some(15.0), Some(20.0)));
        assert_eq!(contributors.len(), 2);
    }

    #[test]
    fn select_scores_hot_and_tiered_tables() {
        // Value = row id. Blocks of 64 rows: [0, 128) frozen, [128, 160)
        // hot. Forgotten: 5 (before the freeze) and 70 (after it) in the
        // frozen prefix, 130 and 139 in the hot tail.
        let mut t = Table::with_block_rows(Schema::single("a"), 64);
        let values: Vec<Value> = (0..160).collect();
        t.insert_batch(&values, 0).unwrap();
        t.forget(RowId(5), 1).unwrap();
        assert_eq!(t.freeze_upto(128), 2);
        t.forget_batch(&[RowId(70), RowId(130), RowId(139)], 2, |_, _| Ok(()))
            .unwrap();
        // [5, 140): 135 rows summing to 9720; the forgotten sum to 344.
        let pred = ColPred::from_range(0, RangePredicate::new(5, 140));
        let kept = |r: &u64| ![5, 70, 130, 139].contains(r);
        let touched: Vec<RowId> = (5..140).filter(kept).map(RowId).collect();
        for (kind, approx, exact) in [
            (AggKind::Sum, 9376.0, 9720.0),
            (AggKind::Min, 6.0, 5.0),
            (AggKind::Max, 138.0, 139.0),
            (AggKind::Count, 131.0, 135.0),
        ] {
            let got = score(&t, &pred, kind);
            assert_eq!(got.0, (131, 4, touched.clone()));
            assert_eq!(got.1, (Some(approx), Some(exact)), "{kind:?}");
        }
    }

    #[test]
    fn serial_distribution_with_fifo_keeps_perfect_recent_precision() {
        // With serial data + FIFO, active tuples are exactly the newest
        // values; queries centred on active values rarely touch forgotten
        // ones, so precision stays high (paper: "if the user is mostly
        // interested in the recently inserted data then a FIFO style
        // amnesia suffices").
        let cfg = SimConfig::builder()
            .dbsize(200)
            .domain(10_000)
            .update_fraction(0.2)
            .batches(8)
            .queries_per_batch(100)
            .distribution(DistributionKind::Serial)
            .policy(PolicyKind::Fifo)
            .seed(9)
            .build()
            .unwrap();
        let report = Simulator::new(cfg).unwrap().run().unwrap();
        let last = *report.precision_series().last().unwrap();
        assert!(
            last > 0.9,
            "fifo on serial data should stay precise: {last}"
        );
    }
}
