//! The Data Amnesia Simulator loop.
//!
//! Paper §2.3: "we assume a query dominant environment, where a batch of
//! queries is followed by a batch of updates, immediately followed by
//! applying an amnesia algorithm to guarantee that the database is always
//! of DBSIZE. The metrics are reported by averaging over a batch of 1000
//! individual queries fired against the incomplete database."
//!
//! Because the simulator only *marks* tuples as forgotten (§2.1), the
//! table itself doubles as the ground-truth ledger: every query is scored
//! against all physically present rows to compute `RF`/`MF` exactly.

use amnesia_columnar::{RowId, Schema, Table};
use amnesia_util::{Result, SimRng};
use amnesia_workload::query::{AggKind, RangePredicate};
use amnesia_workload::{Query, QueryGenerator, TableSnapshot, UpdateGenerator};

use crate::config::SimConfig;
use crate::metrics::{
    AmnesiaMap, BatchSummary, PrecisionAccumulator, QueryPrecision, SimReport, StorageReport,
};
use crate::policy::{AmnesiaPolicy, PolicyContext};

/// Adapter exposing a [`Table`] to query generators.
struct Snapshot<'a>(&'a Table);

impl TableSnapshot for Snapshot<'_> {
    fn max_value_seen(&self) -> Option<i64> {
        self.0.max_seen(0)
    }

    fn random_active_value(&self, rng: &mut SimRng) -> Option<i64> {
        self.0.random_active(rng).map(|r| self.0.value(0, r))
    }

    fn active_count(&self) -> usize {
        self.0.active_rows()
    }
}

/// Score a range predicate against the full history held in the table.
///
/// Returns the precision outcome and the active matches (for access-
/// frequency accounting).
pub fn eval_range(table: &Table, pred: RangePredicate) -> (QueryPrecision, Vec<RowId>) {
    let activity = table.activity();
    let mut returned = 0usize;
    let mut missed = 0usize;
    let mut matches = Vec::new();
    for id in (0..table.num_rows()).map(RowId::from) {
        if pred.matches(table.value(0, id)) {
            if activity.is_active(id) {
                returned += 1;
                matches.push(id);
            } else {
                missed += 1;
            }
        }
    }
    (QueryPrecision { returned, missed }, matches)
}

/// Aggregate twice: over active tuples (the amnesiac answer) and over all
/// tuples ever inserted (the exact answer). Returns `(approx, exact,
/// active contributors)`.
pub fn eval_aggregate(
    table: &Table,
    kind: AggKind,
    pred: Option<RangePredicate>,
) -> (Option<f64>, Option<f64>, Vec<RowId>) {
    use amnesia_engine::kernels::AggState;
    let activity = table.activity();
    let mut active_state = AggState::new();
    let mut full_state = AggState::new();
    let mut contributors = Vec::new();
    for id in (0..table.num_rows()).map(RowId::from) {
        let v = table.value(0, id);
        if pred.is_none_or(|p| p.matches(v)) {
            full_state.push(v);
            if activity.is_active(id) {
                active_state.push(v);
                contributors.push(id);
            }
        }
    }
    (
        active_state.finalize(kind),
        full_state.finalize(kind),
        contributors,
    )
}

/// The simulator.
pub struct Simulator {
    cfg: SimConfig,
    table: Table,
    updates: UpdateGenerator,
    query_gen: Box<dyn QueryGenerator>,
    policy: Box<dyn AmnesiaPolicy>,
    rng_data: SimRng,
    rng_queries: SimRng,
    rng_policy: SimRng,
    current_batch: u64,
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

        let mut table = Table::new(Schema::single("a"));
        let initial = updates.batch(cfg.dbsize, &mut rng_data);
        table.insert_batch(&initial, 0)?;

        Ok(Self {
            cfg,
            table,
            updates,
            query_gen,
            policy,
            rng_data,
            rng_queries,
            rng_policy,
            current_batch: 0,
            summaries: Vec::new(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The amnesiac table (ground truth included, as forgotten marks).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Batches executed so far.
    pub fn batches_run(&self) -> u64 {
        self.current_batch
    }

    /// Execute one batch: queries → inserts → amnesia. Returns the batch
    /// summary (also retained internally for the final report).
    pub fn step(&mut self) -> Result<BatchSummary> {
        let batch = self.current_batch + 1;
        let mut acc = PrecisionAccumulator::new();

        // ---- query phase ------------------------------------------------
        for _ in 0..self.cfg.queries_per_batch {
            let query = {
                let snapshot = Snapshot(&self.table);
                self.query_gen.next_query(&snapshot, &mut self.rng_queries)
            };
            match query {
                Query::Range(pred) => {
                    let (precision, matches) = eval_range(&self.table, pred);
                    acc.record(precision);
                    self.table.access_mut().touch_all(&matches, batch);
                }
                Query::Point(v) => {
                    let pred = RangePredicate::new(v, v.saturating_add(1));
                    let (precision, matches) = eval_range(&self.table, pred);
                    acc.record(precision);
                    self.table.access_mut().touch_all(&matches, batch);
                }
                Query::Aggregate { kind, predicate } => {
                    let (approx, exact, contributors) =
                        eval_aggregate(&self.table, kind, predicate);
                    acc.record_aggregate(approx, exact);
                    self.table.access_mut().touch_all(&contributors, batch);
                }
            }
        }
        if self.cfg.access_decay < 1.0 {
            self.table.access_mut().decay(self.cfg.access_decay);
        }

        // ---- update phase -----------------------------------------------
        self.updates.on_epoch(batch);
        let fresh = self
            .updates
            .batch(self.cfg.batch_rows(), &mut self.rng_data);
        if !fresh.is_empty() {
            self.table.insert_batch(&fresh, batch)?;
        }

        // ---- amnesia phase ----------------------------------------------
        let need = self
            .cfg
            .budget
            .victims_needed(self.table.active_rows(), self.cfg.dbsize);
        if need > 0 {
            let victims = {
                let ctx = PolicyContext {
                    table: &self.table,
                    epoch: batch,
                };
                self.policy.select_victims(&ctx, need, &mut self.rng_policy)
            };
            debug_assert_eq!(victims.len(), need.min(self.table.active_rows()));
            for v in victims {
                self.table.forget(v, batch)?;
            }
        }

        self.current_batch = batch;
        let summary = BatchSummary {
            batch,
            mean_pf: acc.mean_pf(),
            e_margin: acc.e_margin(),
            mean_rf: acc.mean_rf(),
            mean_mf: acc.mean_mf(),
            agg_error: acc.mean_agg_error(),
            active_rows: self.table.active_rows(),
            total_rows: self.table.num_rows(),
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
        let map = AmnesiaMap::from_table(&self.table, self.current_batch.max(1));
        let storage = StorageReport {
            final_active_rows: self.table.active_rows(),
            total_rows_inserted: self.table.num_rows(),
            rows_forgotten: self.table.forgotten_rows(),
            table_bytes: self.table.memory_bytes(),
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
    use amnesia_distrib::DistributionKind;
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

    #[test]
    fn eval_range_counts_rf_and_mf() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[1, 2, 3, 4, 5], 0).unwrap();
        t.forget(RowId(1), 1).unwrap(); // 2 forgotten
        let (p, matches) = eval_range(&t, RangePredicate::new(1, 4));
        assert_eq!(p.returned, 2); // 1, 3
        assert_eq!(p.missed, 1); // 2
        assert_eq!(matches, vec![RowId(0), RowId(2)]);
    }

    #[test]
    fn eval_aggregate_compares_active_to_history() {
        let mut t = Table::new(Schema::single("a"));
        t.insert_batch(&[10, 20, 30], 0).unwrap();
        t.forget(RowId(2), 1).unwrap(); // 30 forgotten
        let (approx, exact, contributors) = eval_aggregate(&t, AggKind::Avg, None);
        assert_eq!(approx, Some(15.0));
        assert_eq!(exact, Some(20.0));
        assert_eq!(contributors.len(), 2);
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
