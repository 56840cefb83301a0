//! The one history generator: seeded histories of [`Op`]s, a harness
//! that holds a law to every step of one, and a shrinker.
//!
//! [`history`] draws each op from the model's state where it stands (its
//! row count and its frozen boundary), so no forget names a row past the
//! end. [`check`] replays a history on a [`Case`] and runs a law after
//! every op; when the law panics, [`shrink`] cuts the history down, and
//! `check` panics with the seed, the config and the shrunk history. The
//! seed and the config replay the full history: call `check` with them.

use std::any::Any;
use std::cell::Cell;
use std::ops::BitOrAssign;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use amnesia_columnar::compress::Encoding;
use amnesia_columnar::{BlockState, Schema, Table};
use amnesia_util::SimRng;

use crate::{Case, Model, Op, Value};

/// How a history draws its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every column uniform over `[-500, 500)`.
    Uniform,
    /// Column 0 trends upward with the row id, with a little noise and a
    /// far outlier now and then; column 1 is noise over `[0, 500)`.
    Trend,
}

/// What a history is drawn over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Values per row: 1 or 2.
    pub arity: usize,
    /// Rows per tier block.
    pub block_rows: usize,
    /// The codec pinned on every column; `None` leaves the automatic
    /// chooser.
    pub codec: Option<Encoding>,
    /// How values are drawn.
    pub shape: Shape,
    /// Ops drawn after the pins.
    pub ops: usize,
    /// The most rows one batch insert appends (at least 2).
    pub max_batch: usize,
}

impl Config {
    /// `ops` ops over `arity` uniform columns in blocks of `block_rows`,
    /// the automatic codec, batches of up to 150 rows.
    pub fn new(arity: usize, block_rows: usize, ops: usize) -> Self {
        assert!((1..=2).contains(&arity), "one or two columns");
        let (codec, shape, max_batch) = (None, Shape::Uniform, 150);
        Self {
            arity,
            block_rows,
            codec,
            shape,
            ops,
            max_batch,
        }
    }

    /// The table's schema: columns `a` and `b`.
    pub fn schema(&self) -> Schema {
        Schema::new(["a", "b"][..self.arity].to_vec())
    }
}

/// What the generator drew an op as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The config's codec pinned on a column, before the drawn ops.
    Pin,
    /// One row inserted.
    InsertRow,
    /// A batch of rows inserted.
    InsertBatch,
    /// Rows forgotten anywhere in the table.
    ForgetScattered,
    /// One whole block forgotten, so a drop has a victim.
    ForgetBlock,
    /// A freeze to the end or to a row past the frozen boundary.
    FreezeUpto,
    /// A recompression.
    Recompress,
    /// A drop of the fully forgotten frozen blocks.
    Drop,
    /// A compaction to the active rows.
    Vacuum,
}

impl Kind {
    /// Every kind the generator draws.
    pub const DRAWN: [Kind; 8] = [
        Kind::InsertRow,
        Kind::InsertBatch,
        Kind::ForgetScattered,
        Kind::ForgetBlock,
        Kind::FreezeUpto,
        Kind::Recompress,
        Kind::Drop,
        Kind::Vacuum,
    ];
}

/// The op kinds a history ran and the block states its table reached;
/// `|=` merges two.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    kinds: u16,
    states: u8,
}

impl Coverage {
    /// Did the history run an op of `kind`?
    pub fn ran(&self, kind: Kind) -> bool {
        self.kinds >> kind as u32 & 1 == 1
    }

    /// Did a block rest in `state` after some op?
    pub fn reached(&self, state: BlockState) -> bool {
        self.states >> state as u32 & 1 == 1
    }

    fn note(&mut self, table: &Table) {
        for c in 0..table.schema().arity() {
            let tier = table.col_tier(c);
            for f in (0..tier.frozen_blocks()).filter_map(|b| tier.frozen(b)) {
                self.states |= 1 << f.state() as u32;
            }
        }
    }
}

impl BitOrAssign for Coverage {
    fn bitor_assign(&mut self, other: Self) {
        self.kinds |= other.kinds;
        self.states |= other.states;
    }
}

/// The `i64` edges a value lands on now and then.
const EDGES: [Value; 4] = [Value::MIN, Value::MIN + 1, Value::MAX - 1, Value::MAX];

/// Row `id` of a history drawn under `config`.
fn row(rng: &mut SimRng, config: &Config, id: usize) -> Vec<Value> {
    (0..config.arity)
        .map(|c| match (rng.below(1_000), config.shape, c) {
            (0, ..) => EDGES[rng.index(EDGES.len())],
            (_, Shape::Trend, 0) => {
                let outlier = if rng.below(40) == 0 { 1_000_000 } else { 0 };
                id as Value / 2 + rng.range_i64(0, 3) + outlier
            }
            (_, Shape::Trend, _) => rng.range_i64(0, 500),
            (_, Shape::Uniform, _) => rng.range_i64(-500, 500),
        })
        .collect()
}

/// One op drawn from `model`'s state.
fn draw(rng: &mut SimRng, config: &Config, model: &Model) -> (Kind, Op) {
    let (len, br, frozen) = (model.len(), config.block_rows, model.frozen);
    loop {
        let kind = match rng.below(32) {
            0 | 1 => Kind::InsertRow,
            2..=7 => Kind::InsertBatch,
            8..=15 => Kind::ForgetScattered,
            16..=18 => Kind::ForgetBlock,
            19..=24 => Kind::FreezeUpto,
            25..=28 => Kind::Recompress,
            29 | 30 => Kind::Drop,
            _ => Kind::Vacuum,
        };
        let op = match kind {
            Kind::InsertRow => Op::Insert(vec![row(rng, config, len)]),
            Kind::InsertBatch => {
                let n = 2 + rng.index(config.max_batch - 1);
                Op::Insert((len..len + n).map(|id| row(rng, config, id)).collect())
            }
            Kind::ForgetScattered if len > 0 => {
                let n = 1 + rng.index(len.div_ceil(4));
                Op::Forget((0..n).map(|_| rng.index(len)).collect())
            }
            Kind::ForgetBlock if len >= br => {
                // Mostly a frozen block, which a drop can take next.
                let blocks = if frozen > 0 && rng.chance(0.75) {
                    frozen
                } else {
                    len / br
                };
                let b = rng.index(blocks);
                Op::Forget((b * br..(b + 1) * br).collect())
            }
            Kind::FreezeUpto if rng.chance(0.5) => Op::FreezeUpto(len),
            Kind::FreezeUpto => Op::FreezeUpto(frozen * br + rng.index(len - frozen * br + 1)),
            Kind::Recompress if frozen > 0 => Op::Recompress([0.8, 0.9, 0.95][rng.index(3)]),
            Kind::Drop if frozen > 0 => Op::Drop,
            Kind::Vacuum => Op::Vacuum,
            // Nothing to forget, recompress or drop yet.
            _ => continue,
        };
        return (kind, op);
    }
}

/// The history of `seed` under `config`: the codec's pins, then
/// `config.ops` drawn ops, each with the kind it was drawn as.
pub fn history(seed: u64, config: &Config) -> Vec<(Kind, Op)> {
    assert!(config.max_batch >= 2, "a batch holds two rows or more");
    let (mut rng, mut model) = (SimRng::new(seed), Model::new(config.block_rows));
    let pins = config
        .codec
        .into_iter()
        .flat_map(|enc| (0..config.arity).map(move |c| (Kind::Pin, Op::Pin(c, Some(enc)))));
    let drawn = (0..config.ops).map(|_| {
        let (kind, op) = draw(&mut rng, config, &model);
        model.apply(&op);
        (kind, op)
    });
    pins.chain(drawn).collect()
}

/// Replay `ops` on a fresh [`Case`] of `config`, running `law` after
/// every op and noting what the table reached.
fn replay(config: &Config, ops: &[Op], law: &mut dyn FnMut(&mut Case, &Op), seen: &mut Coverage) {
    let mut case = Case::new(config.schema(), config.block_rows);
    for op in ops {
        case.apply(op.clone());
        seen.note(&case.table);
        law(&mut case, op);
    }
}

/// Hold `law` to every step of the history of `seed` under `config`:
/// after each op, `law` gets the table beside its model and the op, and
/// panics where they disagree. Returns what the history covered. A
/// failing history is shrunk, and the panic names the seed, the config,
/// the law's message and the shrunk history, one op a line.
pub fn check(seed: u64, config: &Config, mut law: impl FnMut(&mut Case, &Op)) -> Coverage {
    let (kinds, ops): (Vec<Kind>, Vec<Op>) = history(seed, config).into_iter().unzip();
    let mut seen = Coverage::default();
    for kind in kinds {
        seen.kinds |= 1 << kind as u32;
    }
    let run = |ops: &[Op], law: &mut dyn FnMut(&mut Case, &Op), seen: &mut Coverage| {
        panic::catch_unwind(AssertUnwindSafe(|| replay(config, ops, law, seen)))
    };
    let Err(cause) = run(&ops, &mut law, &mut seen) else {
        return seen;
    };
    let shrunk = quietly(|| {
        shrink(ops, |ops| {
            run(ops, &mut law, &mut Coverage::default()).is_err()
        })
    });
    let lines: String = shrunk.iter().map(|op| format!("    {op:?},\n")).collect();
    panic!(
        "history failed: seed {seed}, {config:?}\n{}\nshrunk to {} ops:\n{lines}",
        message(&*cause),
        shrunk.len()
    );
}

fn message(cause: &(dyn Any + Send)) -> &str {
    let text = cause.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| cause.downcast_ref::<&str>().copied())
        .unwrap_or("(a panic without a message)")
}

thread_local! {
    /// Set while this thread shrinks: its expected panics print nothing.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f` with this thread's panic messages silenced.
fn quietly<R>(f: impl FnOnce() -> R) -> R {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let out = f();
    QUIET.with(|q| q.set(false));
    out
}

/// `ops` with every forget cut to the rows the model holds at that
/// point: the applier panics on a forget past the end.
fn trim(ops: Vec<Op>) -> Vec<Op> {
    // The row count does not depend on the block size.
    let mut model = Model::new(1);
    ops.into_iter()
        .map(|mut op| {
            if let Op::Forget(ids) = &mut op {
                ids.retain(|&r| r < model.len());
            }
            model.apply(&op);
            op
        })
        .collect()
}

/// The two halves of an insert's rows or a forget's ids, when it has
/// two or more.
fn halves(op: &Op) -> Option<[Op; 2]> {
    match op {
        Op::Insert(rows) if rows.len() > 1 => {
            let (a, b) = rows.split_at(rows.len() / 2);
            Some([Op::Insert(a.to_vec()), Op::Insert(b.to_vec())])
        }
        Op::Forget(ids) if ids.len() > 1 => {
            let (a, b) = ids.split_at(ids.len() / 2);
            Some([Op::Forget(a.to_vec()), Op::Forget(b.to_vec())])
        }
        _ => None,
    }
}

/// Cut a failing history down, a small delta debugger: remove ops in
/// chunks halving down to single ops, then halve the rows of each insert
/// and forget, and repeat both until neither changes anything. Before
/// `fails` sees a candidate, its forgets are cut to the rows it holds.
/// The result fails, and removing any one of its ops makes it pass.
pub fn shrink(mut ops: Vec<Op>, mut fails: impl FnMut(&[Op]) -> bool) -> Vec<Op> {
    let mut keep_if_failing = |candidate: Vec<Op>, ops: &mut Vec<Op>| {
        let candidate = trim(candidate);
        let failed = fails(&candidate);
        if failed {
            *ops = candidate;
        }
        failed
    };
    loop {
        let mut changed = false;
        let mut chunk = 2 * ops.len();
        while chunk > 1 {
            chunk = chunk.div_ceil(2);
            let mut start = 0;
            while start < ops.len() {
                let end = (start + chunk).min(ops.len());
                if keep_if_failing([&ops[..start], &ops[end..]].concat(), &mut ops) {
                    changed = true;
                } else {
                    start = end;
                }
            }
        }
        for i in 0..ops.len() {
            while let Some(halves) = halves(&ops[i]) {
                let halved = halves.into_iter().any(|half| {
                    let mut candidate = ops.clone();
                    candidate[i] = half;
                    keep_if_failing(candidate, &mut ops)
                });
                if !halved {
                    break;
                }
                changed = true;
            }
        }
        if !changed {
            return ops;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn configs() -> impl Iterator<Item = Config> {
        [(1, 64), (2, 128), (1, 256), (2, 1024)]
            .into_iter()
            .flat_map(|(arity, block_rows)| {
                [None, Some(Encoding::Rle)].map(|codec| Config {
                    codec,
                    shape: [Shape::Uniform, Shape::Trend][arity - 1],
                    ..Config::new(arity, block_rows, 30)
                })
            })
    }

    #[test]
    fn a_seed_replays_its_history() {
        for config in configs() {
            assert_eq!(history(11, &config), history(11, &config));
            assert_ne!(history(11, &config), history(12, &config));
        }
    }

    /// Every op is valid where it stands: rows of the config's arity,
    /// forgets inside the table, a block forget one whole block, a freeze
    /// at or past the frozen boundary.
    #[test]
    fn every_op_is_valid_where_it_stands() {
        for (config, seed) in configs().flat_map(|c| (0..20).map(move |s| (c, s))) {
            let (mut model, br) = (Model::new(config.block_rows), config.block_rows);
            for (kind, op) in history(seed, &config) {
                let (len, frozen) = (model.len(), model.frozen);
                let valid = match (kind, &op) {
                    (Kind::Pin, Op::Pin(c, codec)) => *c < config.arity && *codec == config.codec,
                    (Kind::InsertRow | Kind::InsertBatch, Op::Insert(rows)) => {
                        (rows.len() == 1) == (kind == Kind::InsertRow)
                            && rows.len() <= config.max_batch
                            && rows.iter().all(|r| r.len() == config.arity)
                    }
                    (Kind::ForgetScattered, Op::Forget(ids)) => {
                        !ids.is_empty() && ids.iter().all(|&r| r < len)
                    }
                    (Kind::ForgetBlock, Op::Forget(ids)) => {
                        ids[0] % br == 0
                            && *ids == (ids[0]..ids[0] + br).collect::<Vec<_>>()
                            && ids[0] + br <= len
                    }
                    (Kind::FreezeUpto, &Op::FreezeUpto(row)) => frozen * br <= row && row <= len,
                    (Kind::Recompress, Op::Recompress(_)) | (Kind::Drop, Op::Drop) => frozen > 0,
                    (Kind::Vacuum, Op::Vacuum) => true,
                    _ => false,
                };
                assert!(valid, "seed {seed} {config:?}: {kind:?} drawn as {op:?}");
                model.apply(&op);
            }
        }
    }

    /// A few hundred small histories on real tables run every kind,
    /// reach every block state, and land values on the `i64` edges.
    #[test]
    fn histories_reach_every_kind_and_block_state() {
        let (mut seen, mut edges) = (Coverage::default(), 0);
        for seed in 0..300 {
            let config = Config {
                max_batch: 40,
                ..Config::new(1 + seed as usize % 2, 64, 20)
            };
            seen |= check(seed, &config, |case, _| {
                case.table.check_invariants().unwrap();
                assert_eq!(case.table.num_rows(), case.model.len());
            });
            let values = history(seed, &config)
                .into_iter()
                .flat_map(|(_, op)| match op {
                    Op::Insert(rows) => rows.concat(),
                    _ => Vec::new(),
                });
            edges += values.filter(|v| EDGES.contains(v)).count();
        }
        assert!(Kind::DRAWN.iter().all(|&k| seen.ran(k)), "{seen:?}");
        let states = [
            BlockState::Frozen,
            BlockState::Recompressed,
            BlockState::Dropped,
        ];
        assert!(states.iter().all(|&s| seen.reached(s)), "{seen:?}");
        assert!(edges > 0, "no value at an i64 edge");
    }

    /// A synthetic failure, "a drop after a recompression", shrinks to
    /// exactly those two ops.
    #[test]
    fn the_shrinker_finds_a_one_minimal_history() {
        let fails = |ops: &[Op]| {
            let recompress = ops.iter().position(|op| matches!(op, Op::Recompress(_)));
            recompress.is_some_and(|at| ops[at..].contains(&Op::Drop))
        };
        let config = Config::new(2, 64, 60);
        let ops = (0..)
            .map(|seed| {
                history(seed, &config)
                    .into_iter()
                    .map(|(_, op)| op)
                    .collect()
            })
            .find(|ops: &Vec<Op>| fails(ops))
            .unwrap();
        let shrunk = shrink(ops, fails);
        assert!(
            matches!(shrunk[..], [Op::Recompress(_), Op::Drop]),
            "{shrunk:?}"
        );
        for i in 0..shrunk.len() {
            let mut less = shrunk.clone();
            less.remove(i);
            assert!(!fails(&less), "op {i} of {shrunk:?} was not needed");
        }
    }

    /// A failing law panics with the seed, the config and a shrunk
    /// history: one insert and one forget of a row it holds.
    #[test]
    fn a_failure_prints_its_seed_config_and_shrunk_history() {
        let failure = panic::catch_unwind(|| {
            check(1, &Config::new(1, 64, 40), |case, _| {
                let (active, len) = (case.model.active_len(), case.model.len());
                assert_eq!(active, len, "a row was forgotten");
            })
        });
        let text = message(&*failure.unwrap_err()).to_owned();
        assert!(
            text.starts_with("history failed: seed 1, Config {"),
            "{text}"
        );
        assert!(text.contains("a row was forgotten"), "{text}");
        assert!(text.contains("shrunk to 2 ops:\n    Insert([["), "{text}");
        assert!(text.contains("\n    Forget(["), "{text}");
    }
}
