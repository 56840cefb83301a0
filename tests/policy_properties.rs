//! Property-based tests of the policy victim contract, driven across
//! random table shapes and victim counts.

use amnesia::columnar::Paged;
use amnesia::core::policy::UniformPolicy;
use amnesia::prelude::*;
use amnesia_model::{gen, Case, Op};
use proptest::prelude::*;

/// Small generated histories for the victim contract: one column in
/// blocks of 64, so tables freeze, drop, recompress and vacuum between
/// the policy's calls.
fn small(ops: usize) -> gen::Config {
    gen::Config {
        max_batch: 60,
        ..gen::Config::new(1, 64, ops)
    }
}

/// The epoch a policy runs at: one past the table's newest insert.
fn next_epoch(table: &Table) -> u64 {
    table.current_epoch() + 1
}

fn policy_strategies() -> Vec<PolicyKind> {
    vec![
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
        PolicyKind::Composite(vec![(0.4, PolicyKind::Fifo), (0.6, PolicyKind::Uniform)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn victims_are_distinct_active_and_counted(
        history in any::<u64>(),
        n_frac in 0.0f64..1.2,
        seed in any::<u64>(),
    ) {
        gen::check(history, &small(8), |case, _| {
            let table = &case.table;
            let active = table.active_rows();
            let n = (n_frac * active as f64) as usize;
            for kind in policy_strategies() {
                let mut policy = kind.build();
                let mut rng = SimRng::new(seed);
                let ctx = PolicyContext {
                    table,
                    epoch: next_epoch(table),
                };
                let victims = policy.select_victims(&ctx, n, &mut rng);
                prop_assert_eq!(
                    victims.len(),
                    n.min(active),
                    "{} returned wrong count", kind.name()
                );
                let mut seen = std::collections::HashSet::new();
                for v in &victims {
                    prop_assert!(
                        table.activity().is_active(*v),
                        "{} selected inactive victim {v}", kind.name()
                    );
                    prop_assert!(seen.insert(*v), "{} duplicated victim {v}", kind.name());
                }
            }
        });
    }

    #[test]
    fn selection_is_deterministic_per_seed(history in any::<u64>(), seed in any::<u64>()) {
        gen::check(history, &small(6), |case, _| {
            let table = &case.table;
            let n = table.active_rows() / 2;
            for kind in policy_strategies() {
                let pick = |s: u64| {
                    let mut policy = kind.build();
                    let mut rng = SimRng::new(s);
                    let ctx = PolicyContext { table, epoch: next_epoch(table) };
                    policy.select_victims(&ctx, n, &mut rng)
                };
                prop_assert_eq!(pick(seed), pick(seed), "{} not deterministic", kind.name());
            }
        });
    }

    #[test]
    fn forgetting_victims_always_succeeds(history in any::<u64>(), seed in any::<u64>()) {
        gen::check(history, &small(6), |case, _| {
            let mut table = case.table.clone();
            let n = table.active_rows() / 3;
            let mut policy = PolicyKind::Area.build();
            let mut rng = SimRng::new(seed);
            let epoch = next_epoch(&table);
            let victims = {
                let ctx = PolicyContext { table: &table, epoch };
                policy.select_victims(&ctx, n, &mut rng)
            };
            let before = table.active_rows();
            for v in &victims {
                prop_assert!(table.forget(*v, epoch).unwrap(), "double forget of {v}");
            }
            prop_assert_eq!(table.active_rows(), before - victims.len());
        });
    }
}

/// Uniform victims as the policy drew them before it sampled ranks: every
/// active row id in a list, `sample_indices` over its positions. The
/// reference for the rank deposit.
fn uniform_by_list(table: &Table, n: usize, rng: &mut SimRng) -> Vec<RowId> {
    let ids = table.active_row_ids();
    let n = n.min(ids.len());
    rng.sample_indices(ids.len(), n)
        .into_iter()
        .map(|i| ids[i])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `UniformPolicy` returns distinct active rows, ascending, and the
    /// set the list-based draw returns from the same seed — on a hot
    /// table, a tiered one and one with dropped blocks, and for any `n`,
    /// one past the active rows (clamped) included.
    #[test]
    fn uniform_victims_are_the_list_draws_set_ascending(
        rows in 1usize..3_000,
        forget_pct in 0u64..100,
        layout in 0usize..3,
        n_frac in 0.0f64..1.3,
        seed in any::<u64>(),
    ) {
        let mut table = Table::with_block_rows(Schema::single("a"), 64);
        table.insert_batch(&(0..rows as i64).collect::<Vec<_>>(), 0).unwrap();
        let mut holes = SimRng::new(seed ^ 1);
        for r in 0..rows {
            // Whole dead blocks as well as scattered holes.
            if (r / 64) % 5 == 1 || holes.below(100) < forget_pct {
                table.forget(RowId::from(r), 1).unwrap();
            }
        }
        if layout >= 1 {
            table.freeze_upto(rows);
        }
        if layout == 2 {
            table.drop_forgotten_blocks();
        }
        let active = table.active_rows();
        let n = (n_frac * active as f64) as usize;
        let ctx = PolicyContext { table: &table, epoch: 2 };
        let victims = UniformPolicy.select_victims(&ctx, n, &mut SimRng::new(seed));
        prop_assert_eq!(victims.len(), n.min(active));
        prop_assert!(victims.windows(2).all(|w| w[0] < w[1]), "ascending and distinct");
        prop_assert!(victims.iter().all(|&v| table.activity().is_active(v)));
        let mut want = uniform_by_list(&table, n, &mut SimRng::new(seed));
        want.sort_unstable();
        prop_assert_eq!(victims, want);
    }
}

/// One operation on a [`Paged`] container (indices are reduced modulo
/// the model's length, pages modulo its page count).
#[derive(Debug, Clone)]
enum PagedOp {
    Set(usize, u16),
    Fill(usize, usize, u16),
    Free(usize),
    Seal(usize),
    /// Map every held value through [`scaled`] (`values_mut`).
    Scale,
    /// Write one row 300 values in turn: a coded page's dictionary
    /// overflows and the page turns dense.
    Churn(usize),
}

/// Not one-to-one, so a coded page's dictionary comes to hold a value
/// twice under two codes.
fn scaled(v: u16) -> u16 {
    v / 2 + 1
}

fn paged_op() -> impl Strategy<Value = PagedOp> {
    // Value 0 is the default: writing it to an absent page must allocate
    // nothing.
    prop_oneof![
        4 => (0usize..1000, 0u16..4).prop_map(|(i, v)| PagedOp::Set(i, v)),
        3 => (0usize..1000, 0usize..200, 0u16..4).prop_map(|(i, n, v)| PagedOp::Fill(i, n, v)),
        1 => (0usize..16).prop_map(PagedOp::Free),
        2 => (0usize..16).prop_map(PagedOp::Seal),
        1 => Just(PagedOp::Scale),
        1 => (0usize..1000).prop_map(PagedOp::Churn),
    ]
}

/// The maximal runs of `model` inside the pages `paged` holds, as
/// [`Paged::for_each_run`] reports them.
fn model_runs<const CODED: bool>(
    paged: &Paged<u16, CODED>,
    model: &[u16],
    page_rows: usize,
) -> Vec<(usize, usize, u16)> {
    let mut runs = Vec::new();
    for page in paged.held_pages() {
        let mut at = page * page_rows;
        for run in model[at..at + page_rows].chunk_by(|a, b| a == b) {
            runs.push((at, at + run.len(), run[0]));
            at += run.len();
        }
    }
    runs
}

/// Run `ops` on an empty `paged` and on a plain `Vec`, comparing every
/// read and every run after each.
fn paged_follows_the_vec<const CODED: bool>(mut paged: Paged<u16, CODED>, ops: &[PagedOp]) {
    const PAGE: usize = 64;
    const ROWS: usize = 16 * PAGE;
    prop_assert_eq!(paged.page_rows(), PAGE);
    let mut model = vec![0u16; ROWS];
    let held = |paged: &Paged<u16, CODED>, page: usize| paged.held_pages().any(|p| p == page);
    for op in ops {
        let before = paged.memory_bytes();
        match *op {
            PagedOp::Set(i, v) => {
                let absent = !held(&paged, i / PAGE);
                paged.set(i, v);
                model[i] = v;
                if absent && v == 0 {
                    prop_assert_eq!(paged.memory_bytes(), before, "default write allocated");
                    prop_assert!(!held(&paged, i / PAGE));
                }
            }
            PagedOp::Fill(lo, n, v) => {
                let hi = (lo + n).min(ROWS);
                paged.fill(lo, hi, v);
                model[lo..hi].fill(v);
            }
            PagedOp::Free(page) => {
                paged.free(page);
                model[page * PAGE..(page + 1) * PAGE].fill(0);
                prop_assert!(!held(&paged, page));
                prop_assert!(paged.memory_bytes() <= before);
            }
            PagedOp::Seal(page) => {
                paged.seal(page);
                prop_assert!(held(&paged, page));
            }
            PagedOp::Scale => {
                for page in paged.held_pages() {
                    for v in &mut model[page * PAGE..(page + 1) * PAGE] {
                        *v = scaled(*v);
                    }
                }
                for v in paged.values_mut() {
                    *v = scaled(*v);
                }
            }
            PagedOp::Churn(i) => {
                for v in 1_000..1_300 {
                    paged.set(i, v);
                }
                model[i] = 1_299;
            }
        }
        for (i, &want) in model.iter().enumerate() {
            prop_assert_eq!(paged.get(i), want, "row {} after {:?}", i, op);
        }
        let mut runs = Vec::new();
        paged.for_each_run(|s, e, v| runs.push((s, e, v)));
        prop_assert_eq!(
            runs,
            model_runs(&paged, &model, PAGE),
            "runs after {:?}",
            op
        );
    }
    prop_assert_eq!(
        paged.get(ROWS + 5 * PAGE),
        0,
        "past the directory reads default"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both page forms against a plain `Vec`: every read and every run
    /// agrees after every write, free, seal and `values_mut`; a sealed
    /// page keeps answering from its runs (and takes writes); a coded page
    /// answers the same before and after its dictionary overflows; a
    /// default write to an absent page holds no memory.
    #[test]
    fn paged_container_equals_a_vec(ops in proptest::collection::vec(paged_op(), 1..60)) {
        paged_follows_the_vec(Paged::new(64, 0), &ops);
        paged_follows_the_vec(Paged::coded(64, 0), &ops);
    }
}

/// What happens to the table at every batch boundary.
#[derive(Clone, Copy, PartialEq)]
enum Boundary {
    /// Nothing: the table stays hot.
    Flat,
    /// Everything freezes; values survive.
    Freeze,
    /// Everything freezes, dead blocks drop, rotten blocks recompress —
    /// what the tiered store does.
    Tier,
}

/// Thirty batches of insert → touch → select → forget at a fixed budget,
/// returning every batch's victims and the rows whose blocks were dropped.
fn victim_sequence(kind: &PolicyKind, boundary: Boundary) -> (Vec<Vec<RowId>>, usize) {
    const DBSIZE: usize = 300;
    let mut table = Table::with_block_rows(Schema::single("a"), 64);
    let mut data = SimRng::new(41);
    let mut rng = SimRng::new(42);
    let mut policy = kind.build();
    let mut sequence = Vec::new();
    for epoch in 0..30u64 {
        let n = if epoch == 0 { DBSIZE } else { 60 };
        let values: Vec<i64> = (0..n).map(|_| data.range_i64(0, 10_000)).collect();
        table.insert_batch(&values, epoch).unwrap();
        for _ in 0..40 {
            let row = table.random_active(&mut data).unwrap();
            table.access_mut().touch(row, epoch);
        }
        let excess = table.active_rows() - DBSIZE;
        let victims = {
            let ctx = PolicyContext {
                table: &table,
                epoch,
            };
            policy.select_victims(&ctx, excess, &mut rng)
        };
        for &v in &victims {
            assert!(table.forget(v, epoch).unwrap());
        }
        sequence.push(victims);
        if boundary != Boundary::Flat {
            table.freeze_upto(table.num_rows());
        }
        if boundary == Boundary::Tier {
            table.drop_forgotten_blocks();
            table.recompress_frozen(0.5);
        }
    }
    assert_eq!(table.has_frozen(), boundary != Boundary::Flat);
    (sequence, table.dropped_rows())
}

/// Where a row's metadata lives — a dense page, a sealed run, nowhere —
/// must never reach a policy: every kind picks the same victims, batch
/// after batch, on a table that is never frozen and on one that freezes,
/// drops and recompresses at every boundary.
///
/// `aligned` is compared against freeze-only boundaries: its target is the
/// histogram of every value ever inserted, forgotten ones included, and a
/// drop or a recompression surrenders exactly those values — by design,
/// and as it did before the metadata was paged.
#[test]
fn victim_sets_do_not_depend_on_the_tier_layout() {
    for kind in policy_strategies() {
        let boundary = match kind {
            PolicyKind::Aligned { .. } => Boundary::Freeze,
            _ => Boundary::Tier,
        };
        let (flat, _) = victim_sequence(&kind, Boundary::Flat);
        let (tiered, dropped_rows) = victim_sequence(&kind, boundary);
        for (epoch, (a, b)) in flat.iter().zip(&tiered).enumerate() {
            assert_eq!(a, b, "{} diverged at batch {epoch}", kind.name());
        }
        if kind == PolicyKind::Fifo {
            assert!(dropped_rows >= 1_500, "fifo dropped {dropped_rows} rows");
        }
    }
}

#[test]
fn fifo_is_total_order_stable() {
    // FIFO victims must always be a prefix of the active insertion order,
    // independent of RNG state.
    let rows = |r: std::ops::Range<i64>| Op::column(&r.collect::<Vec<_>>());
    let history = [rows(0..30), rows(30..60), Op::Forget(vec![3, 7, 11])];
    let table = Case::replay(Schema::single("a"), 64, history).table;
    let mut policy = PolicyKind::Fifo.build();
    let mut rng1 = SimRng::new(1);
    let mut rng2 = SimRng::new(999);
    let ctx = PolicyContext {
        table: &table,
        epoch: 2,
    };
    let v1 = policy.select_victims(&ctx, 10, &mut rng1);
    let v2 = policy.select_victims(&ctx, 10, &mut rng2);
    assert_eq!(v1, v2, "fifo ignores randomness");
    let expected: Vec<RowId> = table.iter_active().take(10).collect();
    assert_eq!(v1, expected);
}
