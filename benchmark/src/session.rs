//! One repetition of a workload: set-up, timed ingest cycles, the read mix,
//! then checkpoint / crash / recover. A closed loop with one client thread:
//! the store is an embedded library and the caller waits for each reply.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions; nothing here reaches into library internals.

use std::path::{Path, PathBuf};
use std::time::Instant;

use amnesia_columnar::compress::block_decodes;
use amnesia_columnar::persist::vfs::Vfs;
use amnesia_columnar::persist::{snapshot, PersistentTable, SyncPolicy, SNAPSHOT_FILE};
use amnesia_columnar::{RowId, Schema, Table, WalStats};
use amnesia_core::metrics::MetricsSnapshot;
use amnesia_core::policy::{PolicyContext, PolicyKind};
use amnesia_core::store::{AmnesiacStore, ForgetMode, TierConfig};
use amnesia_engine::{q_error, ExecMode, ExecStats, Executor, Scalar};
use amnesia_sql::{run_with, Catalog, QueryOutcome};
use amnesia_util::SimRng;
use amnesia_workload::query::{AggKind, Query};

use crate::gen::{Inputs, ReadOp, Workload};
use crate::oracle::Mirror;
use crate::trace::{Tracer, ROOT};
use crate::vfs::{CountingVfs, VfsCounts};

/// Every `CHECK_STORE_EVERY`-th store query is re-answered by the oracle.
pub const CHECK_STORE_EVERY: u64 = 10;
/// Every `CHECK_SQL_EVERY`-th SQL statement is re-answered by the oracle.
pub const CHECK_SQL_EVERY: u64 = 20;
/// In a traced stream run, the tier transitions are replayed on a clone of
/// the table before every `TIER_REPLAY_EVERY`-th `end_batch`.
pub const TIER_REPLAY_EVERY: usize = 5;
/// Most recoveries timed per repetition, each on its own copy of the
/// crashed directory.
pub const RECOVER_OPENS: usize = 3;
/// A recovery this long is measured once: it is long enough to be steady,
/// and repeating it would dominate the repetition.
const LONG_RECOVERY_MS: f64 = 250.0;
/// The oracle compares values of one active row in this many when it ties
/// the mirror to a table (activity is always compared in full).
const VALUE_STRIDE: usize = 7;

/// A fatal harness error (an `Err` from a write-path call, a missing
/// file): the run stops without a result.
pub type Fatal = String;

fn fatal<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> Fatal {
    move |e| format!("{what}: {e}")
}

/// Latency samples of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall time to build the initial store / tables, seconds.
    pub setup_s: f64,
    /// Per cycle, seconds: insert call(s).
    pub insert_s: Vec<f64>,
    /// Per cycle, seconds: `select_victims`.
    pub select_s: Vec<f64>,
    /// Per cycle, seconds: forget call(s).
    pub forget_s: Vec<f64>,
    /// Per cycle, seconds: batch-boundary maintenance (`end_batch`, or the
    /// SQL tables' `freeze_upto`).
    pub end_s: Vec<f64>,
    /// `AmnesiacStore::query(Range)` latencies, microseconds.
    pub range_us: Vec<f64>,
    /// `AmnesiacStore::query(AVG)` latencies, microseconds.
    pub avg_us: Vec<f64>,
    /// `sql::run_with` latencies per class, milliseconds.
    pub sql_ms: [Vec<f64>; 5],
    /// `PersistentTable::open` after the simulated crash, milliseconds: one
    /// sample per byte-identical copy of the crashed directory.
    pub recover_ms: Vec<f64>,
    /// Traced stream runs: replayed tier transitions `(freeze, drop,
    /// recompress)` seconds, scaled to all cycles.
    pub tier_replay_s: [f64; 3],
    /// `snapshot::encode` of the final table, seconds (SQL workloads, where
    /// the benchmark checkpoints itself; the ladder times it for the stream
    /// workloads).
    pub snapshot_encode_s: f64,
    /// Wall time inside the device wrapper during the timed section,
    /// seconds (traced runs only).
    pub vfs_busy_s: f64,
}

/// Element-wise minimum of one series over the repetitions.
fn quiet_series<'a>(reps: &'a [RepResult], f: impl Fn(&'a Samples) -> &'a [f64]) -> Vec<f64> {
    let mut out = f(&reps[0].samples).to_vec();
    for r in &reps[1..] {
        for (q, v) in out.iter_mut().zip(f(&r.samples)) {
            *q = q.min(*v);
        }
    }
    out
}

impl Samples {
    /// The run's noise-filtered samples. Repetitions execute the same
    /// operations on the same inputs, and whatever else runs on the box only
    /// ever *adds* time, so the best estimate of an operation's own cost is
    /// the least of its executions: every series is the element-wise
    /// minimum over the repetitions, every single time the minimum. A burst
    /// of interference has to hit the same operation in every repetition to
    /// survive. `setup_s` is the median instead (the driver's contract asks
    /// for the median set-up time).
    pub fn quietest(reps: &[RepResult]) -> Samples {
        let least = |f: &dyn Fn(&Samples) -> f64| {
            reps.iter()
                .map(|r| f(&r.samples))
                .fold(f64::INFINITY, f64::min)
        };
        let setups: Vec<f64> = reps.iter().map(|r| r.samples.setup_s).collect();
        Samples {
            setup_s: crate::stats::median(&setups).unwrap_or(0.0),
            insert_s: quiet_series(reps, |s| &s.insert_s),
            select_s: quiet_series(reps, |s| &s.select_s),
            forget_s: quiet_series(reps, |s| &s.forget_s),
            end_s: quiet_series(reps, |s| &s.end_s),
            range_us: quiet_series(reps, |s| &s.range_us),
            avg_us: quiet_series(reps, |s| &s.avg_us),
            sql_ms: std::array::from_fn(|c| quiet_series(reps, |s| &s.sql_ms[c])),
            recover_ms: vec![least(&|s| {
                s.recover_ms.iter().copied().fold(f64::INFINITY, f64::min)
            })],
            tier_replay_s: std::array::from_fn(|i| least(&|s| s.tier_replay_s[i])),
            snapshot_encode_s: least(&|s| s.snapshot_encode_s),
            vfs_busy_s: least(&|s| s.vfs_busy_s),
        }
    }

    /// One line for the progress log.
    pub fn one_line(&self) -> String {
        let queries = self.range_us.len() + self.avg_us.len();
        let query_s = self.range_us.iter().chain(&self.avg_us).sum::<f64>() / 1e6;
        let (sql_s, stmts) = self.sql_total();
        format!(
            "set-up {:.3} s, cycles {:.3} s (p50 {:.3} ms), {queries} store queries {query_s:.3} s, \
             {stmts} statements {sql_s:.3} s, recover {:.1} ms",
            self.setup_s,
            self.write_s(),
            crate::stats::median(&self.cycle_ms()).unwrap_or(0.0),
            self.recover_ms.iter().copied().fold(f64::INFINITY, f64::min),
        )
    }

    /// Write-path latency of each cycle, milliseconds.
    pub fn cycle_ms(&self) -> Vec<f64> {
        (0..self.insert_s.len())
            .map(|i| (self.insert_s[i] + self.select_s[i] + self.forget_s[i] + self.end_s[i]) * 1e3)
            .collect()
    }

    /// Total write-path time, seconds.
    pub fn write_s(&self) -> f64 {
        self.cycle_ms().iter().sum::<f64>() / 1e3
    }

    /// Total SQL statement time, seconds, and statement count.
    pub fn sql_total(&self) -> (f64, usize) {
        let secs = self.sql_ms.iter().flatten().sum::<f64>() / 1e3;
        (secs, self.sql_ms.iter().map(Vec::len).sum())
    }
}

/// Counts of one repetition. All are pure functions of the inputs: two
/// runs with one seed must agree on every field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Rows inserted and acknowledged (initial load + cycles).
    pub rows_inserted: u64,
    /// Rows inserted during the timed cycles.
    pub rows_ingested: u64,
    /// Victims the policy chose during the timed cycles.
    pub victims: u64,
    /// Active rows after the last acknowledged batch.
    pub active_rows: u64,
    /// `MetricsSnapshot::resident_bytes` at that point.
    pub resident_bytes: u64,
    /// Compressed bytes in frozen blocks.
    pub bytes_frozen: u64,
    /// Frozen blocks resident.
    pub frozen_blocks: u64,
    /// Blocks dropped (cumulative).
    pub blocks_dropped: u64,
    /// Blocks recompressed (cumulative).
    pub blocks_recompressed: u64,
    /// `MetricsSnapshot::compression_ratio`.
    pub compression_ratio: f64,
    /// Durability counters at the acknowledgement (zero without a log).
    pub wal: WalStats,
    /// Device counters at the acknowledgement (`busy_ns` zeroed: it is a
    /// time, kept in [`Samples::vfs_busy_s`]).
    pub vfs: VfsCounts,
    /// Size of the snapshot file at the acknowledgement.
    pub snapshot_bytes: u64,
    /// Log records replayed by recovery.
    pub replay_records: u64,
    /// Frozen blocks per codec, summed over columns, in the order rle,
    /// dict, forpack, delta, plain.
    pub blocks_by_codec: [u64; 5],
    /// `block_decodes()` delta across the read operations.
    pub block_decodes: u64,
    /// Σ `ExecStats::rows_scanned` over the SQL statements.
    pub sql_rows_scanned: u64,
    /// Σ `max(result_rows, 1)` over the SQL statements.
    pub sql_result_rows: u64,
    /// Σ `ExecStats::blocks_pruned` over the SQL statements.
    pub sql_blocks_pruned: u64,
    /// Σ frozen blocks of `t` seen by each SQL statement.
    pub sql_blocks_seen: u64,
    /// Checksum over every read result.
    pub result_checksum: u64,
    /// Operations attempted (library calls whose outcome was checked).
    pub attempted: u64,
    /// Operations failed: an `Err`, an answer that differs from the
    /// oracle's, or a failed recovery check.
    pub failed: u64,
}

impl Counts {
    /// Bytes written through the `Vfs` per byte of user data.
    pub fn write_amp(&self, ncols: usize) -> f64 {
        self.vfs.bytes_written as f64 / (8.0 * ncols as f64 * self.rows_inserted as f64)
    }

    /// Resident bytes per active row.
    pub fn resident_bytes_per_row(&self) -> f64 {
        self.resident_bytes as f64 / self.active_rows.max(1) as f64
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    /// Latency samples.
    pub samples: Samples,
    /// Deterministic counts.
    pub counts: Counts,
    /// Estimator q-errors, one per plan stage of every SQL statement.
    pub qerrors: Vec<f64>,
}

/// `t` and `d` as a SQL catalog.
pub struct Cat<'a> {
    /// Fact table.
    pub t: &'a Table,
    /// Dimension table.
    pub d: &'a Table,
}

impl Catalog for Cat<'_> {
    fn resolve(&self, name: &str) -> Option<&Table> {
        match name {
            "t" => Some(self.t),
            "d" => Some(self.d),
            _ => None,
        }
    }

    fn table_names(&self) -> Vec<String> {
        vec!["t".to_string(), "d".to_string()]
    }
}

/// The executor every end-to-end metric runs on.
pub fn serial_executor() -> Executor {
    Executor::default().with_exec_mode(ExecMode::Serial)
}

/// Build the (hot) dimension table `d(id, region)`.
pub fn dimension(dim: &[(i64, i64)]) -> Result<Table, Fatal> {
    let mut d = Table::new(Schema::new(vec!["id", "region"]));
    for &(id, region) in dim {
        d.insert(&[id, region], 0).map_err(fatal("insert into d"))?;
    }
    Ok(d)
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0100_0000_01b3);
}

fn scalar_bits(s: &Scalar) -> u64 {
    match s {
        Scalar::Int(v) => *v as u64,
        Scalar::Float(f) => f.to_bits(),
        Scalar::Null => 0x6e75_6c6c,
    }
}

/// State threaded through one repetition.
struct Rep<'a> {
    inputs: &'a Inputs,
    tracer: &'a mut Tracer,
    mirror: Mirror,
    samples: Samples,
    counts: Counts,
    qerrors: Vec<f64>,
    executor: Executor,
    next_op: u32,
    store_queries: u64,
    sql_stmts: u64,
}

impl<'a> Rep<'a> {
    fn new(inputs: &'a Inputs, tracer: &'a mut Tracer) -> Self {
        let counts = Counts {
            result_checksum: 0xcbf2_9ce4_8422_2325,
            ..Counts::default()
        };
        Self {
            inputs,
            tracer,
            mirror: Mirror::new(inputs.workload.columns().len(), &inputs.dim),
            samples: Samples::default(),
            counts,
            qerrors: Vec::new(),
            executor: serial_executor(),
            next_op: 0,
            store_queries: 0,
            sql_stmts: 0,
        }
    }

    fn op_id(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.counts.attempted += 1;
        if !ok {
            self.counts.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    fn absorb_exec(&mut self, stats: &ExecStats, frozen_blocks: usize) {
        self.counts.sql_rows_scanned += stats.rows_scanned as u64;
        self.counts.sql_result_rows += stats.result_rows.max(1) as u64;
        self.counts.sql_blocks_pruned += stats.blocks_pruned as u64;
        self.counts.sql_blocks_seen += frozen_blocks as u64;
        for st in &stats.stage_estimates {
            self.qerrors
                .push(q_error(st.est_rows, st.actual_rows as f64));
        }
    }

    /// Run one read batch: store queries through `AmnesiacStore::query`,
    /// statements through `sql::run_with`; a sample of both is re-answered
    /// by the oracle outside the timed region.
    fn reads(&mut self, store: &AmnesiacStore, d: &Table, ops: &[ReadOp]) {
        let workload = self.inputs.workload;
        let (cols, roles) = (workload.columns(), workload.roles());
        let cat = Cat {
            t: store.table(),
            d,
        };
        let frozen_blocks = store.table().frozen_blocks();
        let decodes_before = block_decodes();
        for op in ops {
            let op_id = self.op_id();
            match op {
                ReadOp::Range(p) | ReadOp::Avg(p) => {
                    let is_range = matches!(op, ReadOp::Range(_));
                    let (q, name) = if is_range {
                        (Query::Range(*p), "store.query.range")
                    } else {
                        let q = Query::Aggregate {
                            kind: AggKind::Avg,
                            predicate: Some(*p),
                        };
                        (q, "store.query.avg")
                    };
                    let (res, secs) = self.tracer.time(name, ROOT, op_id, || store.query(&q));
                    if is_range {
                        self.samples.range_us.push(secs * 1e6);
                    } else {
                        self.samples.avg_us.push(secs * 1e6);
                    }
                    let h = &mut self.counts.result_checksum;
                    match (res.output.rows(), res.output.agg()) {
                        (Some(rows), _) => {
                            fnv(h, rows.len() as u64);
                            fnv(h, rows.last().map_or(0, |r| r.0));
                        }
                        (_, Some(v)) => fnv(h, v.map_or(1, f64::to_bits)),
                        _ => {}
                    }
                    self.store_queries += 1;
                    let ok = if !self.store_queries.is_multiple_of(CHECK_STORE_EVERY) {
                        true
                    } else if is_range {
                        res.output.rows() == Some(self.mirror.range(*p).as_slice())
                    } else {
                        res.output.agg() == Some(self.mirror.avg(*p))
                    };
                    self.check(ok, name);
                }
                ReadOp::Sql(stmt) => {
                    let text = stmt.sql(cols, roles);
                    let class = stmt.class();
                    let name = SQL_SPAN[class.index()];
                    let executor = &self.executor;
                    let (out, secs) = self
                        .tracer
                        .time(name, ROOT, op_id, || run_with(&cat, &text, executor));
                    self.samples.sql_ms[class.index()].push(secs * 1e3);
                    self.sql_stmts += 1;
                    let ok = match out {
                        Ok(QueryOutcome::Rows(rs)) => {
                            self.absorb_exec(&rs.stats, frozen_blocks);
                            let h = &mut self.counts.result_checksum;
                            fnv(h, rs.rows.len() as u64);
                            for s in rs.rows.iter().flatten() {
                                fnv(h, scalar_bits(s));
                            }
                            !self.sql_stmts.is_multiple_of(CHECK_SQL_EVERY)
                                || rs.rows == self.mirror.answer(stmt, roles)
                        }
                        _ => false,
                    };
                    self.check(ok, &text);
                }
            }
        }
        self.counts.block_decodes += block_decodes() - decodes_before;
    }

    /// Book one cycle: its four write-path times `[insert, select, forget,
    /// batch boundary]`, how many of its calls were checked, and what it
    /// did to the table.
    fn note_cycle(&mut self, times: [f64; 4], checked: u64, batch: &[Vec<i64>], victims: &[RowId]) {
        self.samples.insert_s.push(times[0]);
        self.samples.select_s.push(times[1]);
        self.samples.forget_s.push(times[2]);
        self.samples.end_s.push(times[3]);
        self.counts.attempted += checked;
        self.counts.victims += victims.len() as u64;
        self.counts.rows_ingested += batch[0].len() as u64;
        self.mirror.append(batch);
        self.mirror.forget(victims);
    }

    /// Record the acknowledged state: table layout, log and device counters.
    fn note_acknowledged(&mut self, store: &AmnesiacStore, vfs: &CountingVfs) -> MetricsSnapshot {
        let snap = store.metrics_snapshot();
        let table = store.table();
        let c = &mut self.counts;
        c.rows_inserted = self.mirror.num_rows() as u64;
        c.active_rows = snap.active_rows as u64;
        c.resident_bytes = snap.resident_bytes as u64;
        c.bytes_frozen = snap.bytes_frozen as u64;
        c.frozen_blocks = snap.frozen_blocks as u64;
        c.blocks_dropped = snap.blocks_dropped;
        c.blocks_recompressed = snap.blocks_recompressed;
        c.compression_ratio = snap.compression_ratio;
        c.wal = store.durability_stats().unwrap_or_default();
        c.vfs = VfsCounts {
            busy_ns: 0,
            ..vfs.counts()
        };
        for col in 0..table.schema().arity() {
            let tier = table.col_tier(col);
            for b in 0..tier.frozen_blocks() {
                if let Some(f) = tier.frozen(b).filter(|f| !f.is_dropped()) {
                    c.blocks_by_codec[codec_index(f.encoded().encoding().name())] += 1;
                }
            }
        }
        snap
    }

    /// Time `PersistentTable::open` on the crashed directory and on
    /// byte-identical copies of it (recovery repairs what it finds, so a
    /// second open of the same directory would do less work). Returns the
    /// first open's table for the recovery check, `None` if it failed.
    fn timed_opens(&mut self, dir: &Path) -> Result<Option<PersistentTable>, Fatal> {
        let copies: Vec<PathBuf> = (1..RECOVER_OPENS)
            .map(|k| dir.with_extension(format!("crashed-{k}")))
            .collect();
        for copy in &copies {
            let _ = std::fs::remove_dir_all(copy);
            std::fs::create_dir_all(copy).map_err(fatal("copy crashed dir"))?;
            for entry in std::fs::read_dir(dir).map_err(fatal("list crashed dir"))? {
                let path = entry.map_err(fatal("list crashed dir"))?.path();
                if let Some(name) = path.file_name() {
                    std::fs::copy(&path, copy.join(name)).map_err(fatal("copy crashed dir"))?;
                }
            }
        }
        let op_id = self.op_id();
        let mut first = None;
        for d in std::iter::once(dir).chain(copies.iter().map(PathBuf::as_path)) {
            let (rec, secs) = self
                .tracer
                .time("persist.open", ROOT, op_id, || PersistentTable::open(d));
            self.samples.recover_ms.push(secs * 1e3);
            first.get_or_insert(rec);
            if secs * 1e3 >= LONG_RECOVERY_MS {
                break;
            }
        }
        for copy in &copies {
            let _ = std::fs::remove_dir_all(copy);
        }
        Ok(match first {
            Some(Ok(rec)) => {
                self.counts.replay_records = rec.records_since_checkpoint();
                Some(rec)
            }
            Some(Err(e)) => {
                eprintln!("recovery failed: {e}");
                None
            }
            None => None,
        })
    }

    fn finish(self) -> RepResult {
        RepResult {
            samples: self.samples,
            counts: self.counts,
            qerrors: self.qerrors,
        }
    }
}

/// Span names of the SQL classes, in [`Class::ALL`] order.
pub const SQL_SPAN: [&str; 5] = [
    "sql.run_with.grouped",
    "sql.run_with.global",
    "sql.run_with.scatter",
    "sql.run_with.project",
    "sql.run_with.join",
];

/// Codec names in the order of [`Counts::blocks_by_codec`].
pub const CODECS: [&str; 5] = ["rle", "dict", "forpack", "delta", "plain"];

fn codec_index(name: &str) -> usize {
    CODECS.iter().position(|c| *c == name).unwrap_or(4)
}

/// What a traced run wants from the final table before it is torn down.
pub type LadderHook<'h> = &'h mut dyn FnMut(&AmnesiacStore, &Table, &mut Tracer);

/// Run one repetition of `inputs.workload` in `dir` (created fresh,
/// removed afterwards).
pub fn run_rep(
    inputs: &Inputs,
    dir: &Path,
    tracer: &mut Tracer,
    ladder: Option<LadderHook<'_>>,
) -> Result<RepResult, Fatal> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(fatal("create data dir"))?;
    let rep = Rep::new(inputs, tracer);
    let out = if inputs.workload.is_stream() {
        stream_rep(rep, dir, ladder)
    } else {
        sql_rep(rep, dir, ladder)
    };
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Record the device time since `*busy` as a child of the span just closed.
fn vfs_child(tracer: &mut Tracer, vfs: &CountingVfs, busy: &mut u64) {
    let now = vfs.counts().busy_ns;
    tracer.child_busy("vfs.busy", tracer.last(), now - *busy);
    *busy = now;
}

/// The paper's loop through a durable, tiered `AmnesiacStore`.
fn stream_rep(
    mut rep: Rep<'_>,
    dir: &Path,
    ladder: Option<LadderHook<'_>>,
) -> Result<RepResult, Fatal> {
    let inputs = rep.inputs;
    let sizes = inputs.sizes;
    let vfs = CountingVfs::new();
    vfs.set_timing(rep.tracer.enabled());
    let tier_cfg = TierConfig::default();
    let mut policy = match inputs.workload {
        Workload::StreamFifo => PolicyKind::Fifo,
        _ => PolicyKind::Uniform,
    }
    .build();
    let mut policy_rng = SimRng::new(0x0a11_ce5e);

    // ---- set-up: durable store, initial load, first batch boundary.
    let start = Instant::now();
    let pt =
        PersistentTable::create_with(vfs.shared(), dir, Schema::single("a"), SyncPolicy::PerBatch)
            .map_err(fatal("create durable table"))?;
    let (table, log) = pt.into_parts();
    let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
        .with_durability(Box::new(log))
        .with_tiering(tier_cfg);
    store
        .insert_batch(&inputs.initial[0], 0)
        .map_err(fatal("initial load"))?;
    store.end_batch().map_err(fatal("initial end_batch"))?;
    let d = dimension(&inputs.dim)?;
    rep.samples.setup_s = start.elapsed().as_secs_f64();
    rep.mirror.append(&inputs.initial);

    // ---- timed cycles, each followed by its read batch.
    let busy_before = vfs.counts().busy_ns;
    for (c, batch) in inputs.batches.iter().enumerate() {
        let epoch = c as u64 + 1;
        let op_id = rep.op_id();
        let cycle = rep.tracer.begin("cycle", ROOT, op_id);
        let mut busy = vfs.counts().busy_ns;

        let (r, t_insert) = rep.tracer.time("store.insert_batch", cycle, op_id, || {
            store.insert_batch(&batch[0], epoch)
        });
        r.map_err(fatal("insert_batch"))?;
        vfs_child(rep.tracer, &vfs, &mut busy);

        let excess = store.table().active_rows() - sizes.initial_rows;
        let (victims, t_select) = rep.tracer.time("policy.select_victims", cycle, op_id, || {
            let ctx = PolicyContext {
                table: store.table(),
                epoch,
            };
            policy.select_victims(&ctx, excess, &mut policy_rng)
        });

        let (r, t_forget) = rep.tracer.time("store.forget_batch", cycle, op_id, || {
            store.forget_batch(&victims, epoch)
        });
        r.map_err(fatal("forget_batch"))?;
        vfs_child(rep.tracer, &vfs, &mut busy);

        if rep.tracer.enabled() && c % TIER_REPLAY_EVERY == 0 {
            // The three transitions `end_batch` is about to run, replayed
            // on a copy so each gets its own number.
            let mut copy = store.table().clone();
            let upto = copy.num_rows().saturating_sub(tier_cfg.hot_rows);
            let scale = TIER_REPLAY_EVERY as f64;
            let (_, s) = rep
                .tracer
                .time("tier.freeze_upto", ROOT, op_id, || copy.freeze_upto(upto));
            rep.samples.tier_replay_s[0] += s * scale;
            let (_, s) = rep
                .tracer
                .time("tier.drop_forgotten_blocks", ROOT, op_id, || {
                    copy.drop_forgotten_blocks()
                });
            rep.samples.tier_replay_s[1] += s * scale;
            let (_, s) = rep.tracer.time("tier.recompress_frozen", ROOT, op_id, || {
                copy.recompress_frozen(tier_cfg.recompress_below)
            });
            rep.samples.tier_replay_s[2] += s * scale;
            busy = vfs.counts().busy_ns;
        }

        let (r, t_end) = rep
            .tracer
            .time("store.end_batch", cycle, op_id, || store.end_batch());
        r.map_err(fatal("end_batch"))?;
        vfs_child(rep.tracer, &vfs, &mut busy);
        rep.tracer.end(cycle);

        rep.note_cycle([t_insert, t_select, t_forget, t_end], 4, batch, &victims);

        rep.reads(&store, &d, &inputs.reads[c]);
    }
    rep.samples.vfs_busy_s = (vfs.counts().busy_ns - busy_before) as f64 / 1e9;

    // ---- acknowledged state.
    let ok = rep.mirror.matches_table(store.table(), VALUE_STRIDE);
    rep.check(ok, "mirror matches the store's table");
    let snap = rep.note_acknowledged(&store, &vfs);
    rep.counts.snapshot_bytes = vfs
        .file_len(&dir.join(SNAPSHOT_FILE))
        .map_err(fatal("snapshot size"))?;
    if let Some(hook) = ladder {
        hook(&store, &d, rep.tracer);
    }

    // ---- one more batch that is never acknowledged, then the crash.
    let epoch = sizes.cycles as u64 + 1;
    store
        .insert_batch(&inputs.unacked, epoch)
        .map_err(fatal("unacked insert"))?;
    let tail_victims = {
        let ctx = PolicyContext {
            table: store.table(),
            epoch,
        };
        policy.select_victims(&ctx, sizes.unacked_forgets, &mut policy_rng)
    };
    store
        .forget_batch(&tail_victims, epoch)
        .map_err(fatal("unacked forgets"))?;
    // The crash comes while the store still holds its log open: whatever
    // the active segment took since its last fsync is gone.
    vfs.simulate_crash().map_err(fatal("simulate crash"))?;
    drop(store);

    let ok = rep.timed_opens(dir)?.is_some_and(|rec| {
        let t = rec.table();
        let checks = [
            rep.mirror.is_prefix_of(t, &inputs.unacked, VALUE_STRIDE),
            t.active_rows() + sizes.unacked_forgets >= rep.mirror.active_rows(),
            rec.blocks_dropped() == snap.blocks_dropped,
            rec.blocks_recompressed() == snap.blocks_recompressed,
            t.frozen_blocks() == snap.frozen_blocks,
            t.dropped_rows() == snap.dropped_rows,
        ];
        if checks.contains(&false) {
            eprintln!("recovery [prefix, active, dropped, recompressed, frozen, dropped rows]: {checks:?}");
        }
        !checks.contains(&false)
    });
    rep.check(ok, "recovered table holds the acknowledged state");
    Ok(rep.finish())
}

/// Chunked ingest into a four-column table (frozen as it grows, or left
/// hot), the SQL-heavy read mix, then checkpoint / crash / reopen.
fn sql_rep(
    mut rep: Rep<'_>,
    dir: &Path,
    ladder: Option<LadderHook<'_>>,
) -> Result<RepResult, Fatal> {
    let inputs = rep.inputs;
    let frozen = inputs.workload == Workload::SqlFrozen;
    let vfs = CountingVfs::new();
    vfs.set_timing(rep.tracer.enabled());
    let ncols = inputs.workload.columns().len();

    let insert_rows = |t: &mut Table, cols: &[Vec<i64>], epoch: u64| -> Result<(), Fatal> {
        let mut row = vec![0i64; ncols];
        for i in 0..cols[0].len() {
            for (v, col) in row.iter_mut().zip(cols) {
                *v = col[i];
            }
            t.insert(&row, epoch).map_err(fatal("insert into t"))?;
        }
        Ok(())
    };
    let forget_rows = |t: &mut Table, rows: &[RowId], epoch: u64| -> Result<(), Fatal> {
        for &r in rows {
            t.forget(r, epoch).map_err(fatal("forget in t"))?;
        }
        Ok(())
    };
    // ---- set-up: the first half of `t`, and `d`.
    let start = Instant::now();
    let mut t = Table::new(Schema::new(inputs.workload.columns().to_vec()));
    insert_rows(&mut t, &inputs.initial, 0)?;
    forget_rows(&mut t, &inputs.victims[0], 0)?;
    if frozen {
        t.freeze_upto(t.num_rows());
    }
    let d = dimension(&inputs.dim)?;
    rep.samples.setup_s = start.elapsed().as_secs_f64();
    rep.mirror.append(&inputs.initial);
    rep.mirror.forget(&inputs.victims[0]);

    // ---- timed ingest cycles: insert a batch, forget a fifth of it (the
    // victims are inputs here: no policy runs), freeze.
    for (c, batch) in inputs.batches.iter().enumerate() {
        let victims = &inputs.victims[c + 1];
        let epoch = c as u64 + 1;
        let op_id = rep.op_id();
        let cycle = rep.tracer.begin("cycle", ROOT, op_id);
        let (r, t_insert) = rep.tracer.time("table.insert", cycle, op_id, || {
            insert_rows(&mut t, batch, epoch)
        });
        r?;
        let (r, t_forget) = rep.tracer.time("table.forget", cycle, op_id, || {
            forget_rows(&mut t, victims, epoch)
        });
        r?;
        let (_, t_end) = rep.tracer.time("tier.freeze_upto", cycle, op_id, || {
            if frozen {
                t.freeze_upto(t.num_rows());
            }
        });
        rep.tracer.end(cycle);
        rep.note_cycle([t_insert, 0.0, t_forget, t_end], 3, batch, victims);
    }

    // ---- the read mix, through a (volatile) store over the same table.
    let store = AmnesiacStore::from_table(t, ForgetMode::MarkOnly);
    for ops in &inputs.reads {
        rep.reads(&store, &d, ops);
    }
    if frozen {
        let ok = rep.counts.block_decodes == 0;
        rep.check(ok, "zero block decodes over a frozen table");
    }
    let ok = rep.mirror.matches_table(store.table(), VALUE_STRIDE);
    rep.check(ok, "mirror matches t");
    if let Some(hook) = ladder {
        hook(&store, &d, rep.tracer);
    }

    // ---- checkpoint: snapshot, write, fsync, rename, fsync the directory.
    let t = store.table();
    let snap_path = dir.join(SNAPSHOT_FILE);
    let tmp_path = snap_path.with_extension("tmp");
    let op_id = rep.op_id();
    let (bytes, secs) = rep.tracer.time("persist.snapshot_encode", ROOT, op_id, || {
        snapshot::encode(t)
    });
    rep.samples.snapshot_encode_s = secs;
    let (r, _) = rep.tracer.time("persist.checkpoint", ROOT, op_id, || {
        vfs.write_file(&tmp_path, &bytes)?;
        vfs.sync_file(&tmp_path)?;
        vfs.rename(&tmp_path, &snap_path)?;
        vfs.sync_dir(dir)
    });
    r.map_err(fatal("checkpoint"))?;
    let busy = vfs.counts().busy_ns;
    rep.tracer.child_busy("vfs.busy", rep.tracer.last(), busy);
    rep.samples.vfs_busy_s = busy as f64 / 1e9;
    let snap = rep.note_acknowledged(&store, &vfs);
    rep.counts.snapshot_bytes = bytes.len() as u64;

    // ---- a second checkpoint dies before its fsync; then the crash.
    vfs.write_file(&tmp_path, &bytes[..bytes.len() / 2])
        .map_err(fatal("torn checkpoint"))?;
    vfs.simulate_crash().map_err(fatal("simulate crash"))?;

    let ok = rep.timed_opens(dir)?.is_some_and(|rec| {
        rep.mirror.matches_table(rec.table(), VALUE_STRIDE)
            && rec.table().frozen_blocks() == snap.frozen_blocks
    });
    rep.check(ok, "reopened table equals the checkpointed one");
    Ok(rep.finish())
}
