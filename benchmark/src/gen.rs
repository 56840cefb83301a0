//! Workload definitions and input generation. Every input — column values,
//! the dimension table, predicate constants, the order of the read mix —
//! is a pure function of `--seed`; the system under test receives only the
//! generated values.

use amnesia_columnar::RowId;
use amnesia_util::SimRng;
use amnesia_workload::query::RangePredicate;

/// The four workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sliding-window stream: time-correlated values, FIFO forgetting.
    StreamFifo,
    /// Same loop, uniform values, uniform forgetting.
    StreamScatter,
    /// Four-column table ingested with freezing; SQL-heavy read mix.
    SqlFrozen,
    /// Same table, statements and seed, never frozen.
    SqlHot,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::StreamFifo,
        Workload::StreamScatter,
        Workload::SqlFrozen,
        Workload::SqlHot,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamFifo => "stream_fifo",
            Workload::StreamScatter => "stream_scatter",
            Workload::SqlFrozen => "sql_frozen",
            Workload::SqlHot => "sql_hot",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Durable single-column store driven through `AmnesiacStore`?
    pub fn is_stream(self) -> bool {
        matches!(self, Workload::StreamFifo | Workload::StreamScatter)
    }

    /// Column names of the fact table `t`.
    pub fn columns(self) -> &'static [&'static str] {
        if self.is_stream() {
            &["a"]
        } else {
            &["a", "g", "b", "u"]
        }
    }

    /// Which column of `t` plays which part in the statements.
    pub fn roles(self) -> Roles {
        if self.is_stream() {
            Roles {
                k: 0,
                a: 0,
                b: 0,
                u: 0,
            }
        } else {
            Roles {
                k: 1,
                a: 0,
                b: 2,
                u: 3,
            }
        }
    }
}

/// Column ordinals of `t` by the part they play in a statement: group/join
/// key `k`, range column `a`, filter column `b`, scattered column `u`. On
/// the single-column stream table all four are column 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Roles {
    /// `GROUP BY` / join key.
    pub k: usize,
    /// Insertion-correlated range column (block meta prunes it).
    pub a: usize,
    /// Low-selectivity filter column.
    pub b: usize,
    /// Uniformly scattered column (block meta prunes nothing).
    pub u: usize,
}

/// Benchmark scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the bounds in `BENCHMARK.json` were measured at.
    Full,
    /// About 1/50 of the rows: every code path in seconds, for the tests.
    Smoke,
}

/// Fixed operation counts of one repetition. The same on every run of a
/// workload: per-cycle cost grows with history, so both sides of a later
/// comparison must do identical work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Rows loaded before the timed section (the budget `DBSIZE` of the
    /// stream workloads).
    pub initial_rows: usize,
    /// Timed ingest cycles.
    pub cycles: usize,
    /// Rows inserted per cycle.
    pub batch_rows: usize,
    /// `AmnesiacStore::query(Range)` calls per read batch.
    pub range_queries: usize,
    /// `AmnesiacStore::query(AVG)` calls per read batch.
    pub avg_queries: usize,
    /// SQL statements per read batch, by class (order of [`Class::ALL`]).
    pub stmts: [usize; 5],
    /// Rows of the dimension table `d`.
    pub dim_rows: usize,
    /// Forgets issued after the last acknowledged batch, before the crash.
    pub unacked_forgets: usize,
}

impl Sizes {
    /// The sizes of `workload` at `scale`. Stream workloads run one read
    /// batch after every cycle (the paper's loop); SQL workloads run one
    /// large batch after the last cycle.
    pub fn of(workload: Workload, scale: Scale) -> Sizes {
        let full = match workload {
            Workload::StreamFifo => Sizes {
                initial_rows: 1_000_000,
                cycles: 50,
                batch_rows: 20_000,
                range_queries: 10,
                avg_queries: 10,
                stmts: [2; 5],
                dim_rows: 1_000,
                unacked_forgets: 1_000,
            },
            Workload::StreamScatter => Sizes {
                initial_rows: 1_000_000,
                cycles: 34,
                batch_rows: 25_000,
                range_queries: 4,
                avg_queries: 4,
                stmts: [1; 5],
                dim_rows: 1_000,
                unacked_forgets: 1_000,
            },
            Workload::SqlFrozen | Workload::SqlHot => Sizes {
                initial_rows: 1_000_000,
                cycles: 50,
                batch_rows: 20_000,
                range_queries: 500,
                avg_queries: 500,
                stmts: [100, 60, 60, 200, 100],
                dim_rows: 1_000,
                unacked_forgets: 1_000,
            },
        };
        match scale {
            Scale::Full => full,
            Scale::Smoke => Sizes {
                initial_rows: full.initial_rows / 50,
                cycles: full.cycles.min(12),
                batch_rows: full.batch_rows / 50,
                range_queries: if workload.is_stream() { 10 } else { 40 },
                avg_queries: if workload.is_stream() { 10 } else { 40 },
                stmts: if workload.is_stream() {
                    [2; 5]
                } else {
                    [20; 5]
                },
                dim_rows: full.dim_rows,
                unacked_forgets: full.unacked_forgets / 50,
            },
        }
    }

    /// Rows in `t` after the last cycle.
    pub fn total_rows(&self) -> usize {
        self.initial_rows + self.cycles * self.batch_rows
    }
}

/// SQL statement classes of the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Two-predicate `GROUP BY … ORDER BY … LIMIT 10`.
    Grouped,
    /// Five aggregates under one unprunable predicate.
    Global,
    /// 1 % scattered range + a 50 % filter: predicate order matters.
    Scatter,
    /// Selective range, `ORDER BY … LIMIT 100`.
    Project,
    /// `t ⋈ d`, grouped by the dimension's region.
    Join,
}

impl Class {
    /// All classes, in reporting order.
    pub const ALL: [Class; 5] = [
        Class::Grouped,
        Class::Global,
        Class::Scatter,
        Class::Project,
        Class::Join,
    ];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Grouped => "grouped",
            Class::Global => "global",
            Class::Scatter => "scatter",
            Class::Project => "project",
            Class::Join => "join",
        }
    }

    /// Position in [`Class::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One SQL statement: its class and the constants drawn for it. The text
/// and the row-at-a-time reference are both derived from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `SELECT k, COUNT(*) AS n, SUM(a) AS s, AVG(a) AS m FROM t WHERE a
    /// BETWEEN a_lo AND a_hi AND b > b_gt GROUP BY k ORDER BY s DESC LIMIT 10`
    Grouped {
        /// Inclusive lower bound on `a`.
        a_lo: i64,
        /// Inclusive upper bound on `a`.
        a_hi: i64,
        /// Exclusive lower bound on `b`.
        b_gt: i64,
    },
    /// `SELECT COUNT(*), SUM(a), AVG(a), MIN(a), MAX(a) FROM t WHERE b > b_gt`
    Global {
        /// Exclusive lower bound on `b`.
        b_gt: i64,
    },
    /// `SELECT COUNT(*), SUM(a) FROM t WHERE u BETWEEN u_lo AND u_hi AND b >
    /// b_gt`
    Scatter {
        /// Inclusive lower bound on `u`.
        u_lo: i64,
        /// Inclusive upper bound on `u`.
        u_hi: i64,
        /// Exclusive lower bound on `b`.
        b_gt: i64,
    },
    /// `SELECT a FROM t WHERE a BETWEEN a_lo AND a_hi ORDER BY a LIMIT 100`
    /// (`SELECT k, a` when `k` is another column).
    Project {
        /// Inclusive lower bound on `a`.
        a_lo: i64,
        /// Inclusive upper bound on `a`.
        a_hi: i64,
    },
    /// `SELECT d.region, COUNT(*) AS n, SUM(t.a) AS s FROM t JOIN d ON t.k =
    /// d.id WHERE t.a BETWEEN a_lo AND a_hi GROUP BY d.region ORDER BY
    /// d.region`
    Join {
        /// Inclusive lower bound on `a`.
        a_lo: i64,
        /// Inclusive upper bound on `a`.
        a_hi: i64,
    },
}

impl Stmt {
    /// The statement's class.
    pub fn class(&self) -> Class {
        match self {
            Stmt::Grouped { .. } => Class::Grouped,
            Stmt::Global { .. } => Class::Global,
            Stmt::Scatter { .. } => Class::Scatter,
            Stmt::Project { .. } => Class::Project,
            Stmt::Join { .. } => Class::Join,
        }
    }

    /// SQL text over `t`'s `cols` with the given `roles`.
    pub fn sql(&self, cols: &[&str], roles: Roles) -> String {
        let (k, a, b, u) = (cols[roles.k], cols[roles.a], cols[roles.b], cols[roles.u]);
        match *self {
            Stmt::Grouped { a_lo, a_hi, b_gt } => format!(
                "SELECT {k}, COUNT(*) AS n, SUM({a}) AS s, AVG({a}) AS m FROM t \
                 WHERE {a} BETWEEN {a_lo} AND {a_hi} AND {b} > {b_gt} \
                 GROUP BY {k} ORDER BY s DESC LIMIT 10"
            ),
            Stmt::Global { b_gt } => format!(
                "SELECT COUNT(*), SUM({a}), AVG({a}), MIN({a}), MAX({a}) FROM t WHERE {b} > {b_gt}"
            ),
            Stmt::Scatter { u_lo, u_hi, b_gt } => format!(
                "SELECT COUNT(*), SUM({a}) FROM t \
                 WHERE {u} BETWEEN {u_lo} AND {u_hi} AND {b} > {b_gt}"
            ),
            Stmt::Project { a_lo, a_hi } => {
                let list = if roles.k == roles.a {
                    a.to_string()
                } else {
                    format!("{k}, {a}")
                };
                format!(
                    "SELECT {list} FROM t WHERE {a} BETWEEN {a_lo} AND {a_hi} \
                     ORDER BY {a} LIMIT 100"
                )
            }
            Stmt::Join { a_lo, a_hi } => format!(
                "SELECT d.region, COUNT(*) AS n, SUM(t.{a}) AS s FROM t JOIN d ON t.{k} = d.id \
                 WHERE t.{a} BETWEEN {a_lo} AND {a_hi} GROUP BY d.region ORDER BY d.region"
            ),
        }
    }
}

/// One operation of the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOp {
    /// `AmnesiacStore::query(Query::Range)` over column 0.
    Range(RangePredicate),
    /// `AmnesiacStore::query(Query::Aggregate { Avg })` over column 0.
    Avg(RangePredicate),
    /// A SQL statement through `sql::run_with`.
    Sql(Stmt),
}

/// Half-open value domain `[lo, hi)` of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// Smallest value.
    pub lo: i64,
    /// One past the largest value.
    pub hi: i64,
}

impl Domain {
    fn width(&self) -> i64 {
        (self.hi - self.lo).max(1)
    }

    /// An inclusive range covering `share` of the domain, placed uniformly.
    fn draw(&self, rng: &mut SimRng, share: f64) -> (i64, i64) {
        let w = ((self.width() as f64 * share) as i64).max(1);
        let lo = self.lo + rng.range_i64(0, (self.width() - w).max(1));
        (lo, lo + w - 1)
    }

    /// A point between the `from` and `to` shares of the domain.
    fn point(&self, rng: &mut SimRng, from: f64, to: f64) -> i64 {
        let a = (self.width() as f64 * from) as i64;
        let b = ((self.width() as f64 * to) as i64).max(a + 1);
        self.lo + rng.range_i64(a, b)
    }
}

/// Everything one run feeds the system, generated up front.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Workload these inputs are for.
    pub workload: Workload,
    /// Operation counts.
    pub sizes: Sizes,
    /// Column-major values of the initial load.
    pub initial: Vec<Vec<i64>>,
    /// Column-major values of each cycle's batch.
    pub batches: Vec<Vec<Vec<i64>>>,
    /// SQL workloads: the rows to forget after the initial load (index 0)
    /// and after each cycle's insert — a fifth of what the step inserted,
    /// drawn uniformly from it, so forgotten rows are evenly dense over `t`.
    /// Empty for the stream workloads, whose victims a policy picks.
    pub victims: Vec<Vec<RowId>>,
    /// One more batch (column 0 only), inserted but never acknowledged.
    pub unacked: Vec<i64>,
    /// Dimension table `d(id, region)`.
    pub dim: Vec<(i64, i64)>,
    /// Read batch run after each cycle (empty for most cycles of the SQL
    /// workloads, whose mix follows the last cycle).
    pub reads: Vec<Vec<ReadOp>>,
}

/// Values of row `i` for `workload`.
fn row(workload: Workload, i: usize, rng: &mut SimRng, out: &mut [Vec<i64>]) {
    let i = i as i64;
    match workload {
        Workload::StreamFifo => out[0].push(i / 100 + rng.range_i64(0, 50)),
        Workload::StreamScatter => out[0].push(rng.range_i64(0, 1_000_000)),
        Workload::SqlFrozen | Workload::SqlHot => {
            out[0].push(i / 100 + rng.range_i64(0, 50));
            out[1].push(i / 2_000);
            out[2].push((31 * i) % 100);
            out[3].push(rng.range_i64(0, 1_000_000));
        }
    }
}

/// Value domain of each column over rows `[from, to)`.
fn domains(workload: Workload, from: usize, to: usize) -> Vec<Domain> {
    let (from, to) = (from as i64, to as i64);
    let correlated = Domain {
        lo: from / 100,
        hi: to / 100 + 50,
    };
    let uniform = Domain {
        lo: 0,
        hi: 1_000_000,
    };
    match workload {
        Workload::StreamFifo => vec![correlated],
        Workload::StreamScatter => vec![uniform],
        Workload::SqlFrozen | Workload::SqlHot => vec![
            correlated,
            Domain {
                lo: from / 2_000,
                hi: (to - 1) / 2_000 + 1,
            },
            Domain { lo: 0, hi: 100 },
            uniform,
        ],
    }
}

fn draw_stmt(class: Class, roles: Roles, dom: &[Domain], rng: &mut SimRng) -> Stmt {
    let (da, db, du) = (dom[roles.a], dom[roles.b], dom[roles.u]);
    match class {
        Class::Grouped => {
            let (a_lo, a_hi) = da.draw(rng, 0.04);
            // When one column plays both parts the filter must cut inside
            // the range, or most statements would select nothing.
            let b_gt = if roles.b == roles.a {
                a_lo + (a_hi - a_lo) / 4
            } else {
                db.point(rng, 0.2, 0.4)
            };
            Stmt::Grouped { a_lo, a_hi, b_gt }
        }
        Class::Global => Stmt::Global {
            b_gt: db.point(rng, 0.4, 0.6),
        },
        Class::Scatter => {
            let (u_lo, u_hi) = du.draw(rng, 0.01);
            let b_gt = if roles.b == roles.u {
                u_lo + (u_hi - u_lo) / 2
            } else {
                db.lo + db.width() / 2
            };
            Stmt::Scatter { u_lo, u_hi, b_gt }
        }
        Class::Project => {
            let (a_lo, a_hi) = da.draw(rng, 0.005);
            Stmt::Project { a_lo, a_hi }
        }
        Class::Join => {
            let (a_lo, a_hi) = da.draw(rng, 0.05);
            Stmt::Join { a_lo, a_hi }
        }
    }
}

/// A shuffled read batch against the rows live in `[from, to)`.
fn read_batch(
    workload: Workload,
    sizes: &Sizes,
    from: usize,
    to: usize,
    rng: &mut SimRng,
) -> Vec<ReadOp> {
    let dom = domains(workload, from, to);
    let roles = workload.roles();
    let mut ops = Vec::new();
    for _ in 0..sizes.range_queries {
        let (lo, hi) = dom[0].draw(rng, 0.01);
        ops.push(ReadOp::Range(RangePredicate::new(lo, hi + 1)));
    }
    for _ in 0..sizes.avg_queries {
        let (lo, hi) = dom[0].draw(rng, 0.10);
        ops.push(ReadOp::Avg(RangePredicate::new(lo, hi + 1)));
    }
    for class in Class::ALL {
        for _ in 0..sizes.stmts[class.index()] {
            ops.push(ReadOp::Sql(draw_stmt(class, roles, &dom, rng)));
        }
    }
    rng.shuffle(&mut ops);
    ops
}

impl Inputs {
    /// Generate every input of `workload` at `scale` from `seed`.
    pub fn generate(workload: Workload, scale: Scale, seed: u64) -> Inputs {
        let sizes = Sizes::of(workload, scale);
        let ncols = workload.columns().len();
        let mut rng = SimRng::new(seed);
        let mut values = rng.fork();
        let mut reads_rng = rng.fork();

        let mut next = 0usize;
        let mut take = |n: usize, values: &mut SimRng| {
            let mut cols = vec![Vec::with_capacity(n); ncols];
            for i in next..next + n {
                row(workload, i, values, &mut cols);
            }
            next += n;
            cols
        };
        let initial = take(sizes.initial_rows, &mut values);
        let batches: Vec<_> = (0..sizes.cycles)
            .map(|_| take(sizes.batch_rows, &mut values))
            .collect();
        let unacked = take(sizes.batch_rows, &mut values).swap_remove(0);
        let mut victims_rng = rng.fork();
        let mut from = 0;
        let victims = std::iter::once(sizes.initial_rows)
            .chain(std::iter::repeat_n(sizes.batch_rows, sizes.cycles))
            .filter(|_| !workload.is_stream())
            .map(|n| {
                let picked = victims_rng.sample_indices(n, n / 5);
                from += n;
                picked
                    .into_iter()
                    .map(|i| RowId::from(from - n + i))
                    .collect()
            })
            .collect();

        // Join keys: `dim_rows` ids spread evenly over the key column's
        // whole-run domain, ten regions.
        let total = sizes.total_rows();
        let key = domains(workload, 0, total)[workload.roles().k];
        let step = (key.width() / sizes.dim_rows as i64).max(1);
        let dim = (0..sizes.dim_rows as i64)
            .map(|j| (key.lo + j * step, j % 10))
            .collect();

        let reads = (1..=sizes.cycles)
            .map(|c| {
                let rows = sizes.initial_rows + c * sizes.batch_rows;
                if workload.is_stream() {
                    // The policy trims back to `initial_rows` active rows;
                    // under FIFO those are exactly the newest ones.
                    let from = match workload {
                        Workload::StreamFifo => rows - sizes.initial_rows,
                        _ => 0,
                    };
                    read_batch(workload, &sizes, from, rows, &mut reads_rng)
                } else if c == sizes.cycles {
                    read_batch(workload, &sizes, 0, rows, &mut reads_rng)
                } else {
                    Vec::new()
                }
            })
            .collect();

        Inputs {
            workload,
            sizes,
            initial,
            batches,
            victims,
            unacked,
            dim,
            reads,
        }
    }

    /// A checksum of the generated inputs (tests compare seeds with it).
    pub fn checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: i64| {
            h ^= v as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for col in self.initial.iter().chain(self.batches.iter().flatten()) {
            col.iter().copied().for_each(&mut mix);
        }
        for ops in &self.reads {
            for op in ops {
                match op {
                    ReadOp::Range(p) | ReadOp::Avg(p) => {
                        mix(p.lo);
                        mix(p.hi);
                    }
                    ReadOp::Sql(s) => mix(s.class().index() as i64),
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, Scale::Smoke, 7);
            let b = Inputs::generate(w, Scale::Smoke, 7);
            let c = Inputs::generate(w, Scale::Smoke, 8);
            assert_eq!(a.checksum(), b.checksum(), "{}", w.name());
            assert_ne!(a.checksum(), c.checksum(), "{}", w.name());
        }
    }

    #[test]
    fn statement_text_follows_roles() {
        let s = Stmt::Grouped {
            a_lo: 1,
            a_hi: 9,
            b_gt: 3,
        };
        let wide = s.sql(Workload::SqlHot.columns(), Workload::SqlHot.roles());
        assert!(
            wide.contains("GROUP BY g") && wide.contains("b > 3") && wide.contains("SUM(a)"),
            "{wide}"
        );
        let narrow = s.sql(Workload::StreamFifo.columns(), Workload::StreamFifo.roles());
        assert!(
            narrow.contains("GROUP BY a") && narrow.contains("a > 3"),
            "{narrow}"
        );
    }

    #[test]
    fn sql_workloads_read_once_after_the_last_cycle() {
        let i = Inputs::generate(Workload::SqlFrozen, Scale::Smoke, 1);
        assert!(i.reads[..i.reads.len() - 1].iter().all(Vec::is_empty));
        let last = i.reads.last().unwrap();
        assert_eq!(
            last.len(),
            i.sizes.range_queries + i.sizes.avg_queries + i.sizes.stmts.iter().sum::<usize>()
        );
        let hot = Inputs::generate(Workload::SqlHot, Scale::Smoke, 1);
        assert_eq!(
            i.checksum(),
            hot.checksum(),
            "identical table and statements"
        );
    }
}
