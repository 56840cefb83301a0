//! Property-based tests of the policy victim contract, driven across
//! random table shapes and victim counts.

use amnesia::columnar::Paged;
use amnesia::prelude::*;
use proptest::prelude::*;

/// Build a table with the given per-epoch batch sizes (serial values),
/// then forget `pre_forgotten` arbitrary rows to create realistic holes.
fn build_table(batch_sizes: &[usize], pre_forget: &[usize]) -> Table {
    let mut t = Table::new(Schema::single("a"));
    let mut next = 0i64;
    for (epoch, &n) in batch_sizes.iter().enumerate() {
        let values: Vec<i64> = (0..n as i64).map(|i| next + i).collect();
        next += n as i64;
        if !values.is_empty() {
            t.insert_batch(&values, epoch as u64).unwrap();
        }
    }
    let total = t.num_rows();
    for &f in pre_forget {
        if total > 0 {
            let _ = t.forget(RowId((f % total) as u64), 1);
        }
    }
    t
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
        batch_sizes in proptest::collection::vec(0usize..60, 1..5),
        pre_forget in proptest::collection::vec(0usize..1000, 0..30),
        n_frac in 0.0f64..1.2,
        seed in any::<u64>(),
    ) {
        let table = build_table(&batch_sizes, &pre_forget);
        let active = table.active_rows();
        let n = (n_frac * active as f64) as usize;
        for kind in policy_strategies() {
            let mut policy = kind.build();
            let mut rng = SimRng::new(seed);
            let victims = {
                let ctx = PolicyContext {
                    table: &table,
                    epoch: batch_sizes.len() as u64,
                };
                policy.select_victims(&ctx, n, &mut rng)
            };
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
    }

    #[test]
    fn selection_is_deterministic_per_seed(
        batch_sizes in proptest::collection::vec(1usize..40, 1..4),
        seed in any::<u64>(),
    ) {
        let table = build_table(&batch_sizes, &[]);
        let n = table.active_rows() / 2;
        for kind in policy_strategies() {
            let pick = |s: u64| {
                let mut policy = kind.build();
                let mut rng = SimRng::new(s);
                let ctx = PolicyContext { table: &table, epoch: 3 };
                policy.select_victims(&ctx, n, &mut rng)
            };
            prop_assert_eq!(pick(seed), pick(seed), "{} not deterministic", kind.name());
        }
    }

    #[test]
    fn forgetting_victims_always_succeeds(
        batch_sizes in proptest::collection::vec(1usize..40, 1..4),
        seed in any::<u64>(),
    ) {
        let mut table = build_table(&batch_sizes, &[]);
        let n = table.active_rows() / 3;
        let mut policy = PolicyKind::Area.build();
        let mut rng = SimRng::new(seed);
        let victims = {
            let ctx = PolicyContext { table: &table, epoch: 9 };
            policy.select_victims(&ctx, n, &mut rng)
        };
        let before = table.active_rows();
        for v in &victims {
            prop_assert!(table.forget(*v, 9).unwrap(), "double forget of {v}");
        }
        prop_assert_eq!(table.active_rows(), before - victims.len());
    }
}

/// One operation on a [`Paged`] container (indices are reduced modulo
/// the model's length, pages modulo its page count).
#[derive(Debug, Clone)]
enum PagedOp {
    Set(usize, u8),
    Fill(usize, usize, u8),
    Free(usize),
    Seal(usize),
}

fn paged_op() -> impl Strategy<Value = PagedOp> {
    // Value 0 is the default: writing it to an absent page must allocate
    // nothing.
    prop_oneof![
        4 => (0usize..1000, 0u8..4).prop_map(|(i, v)| PagedOp::Set(i, v)),
        3 => (0usize..1000, 0usize..200, 0u8..4).prop_map(|(i, n, v)| PagedOp::Fill(i, n, v)),
        1 => (0usize..16).prop_map(PagedOp::Free),
        2 => (0usize..16).prop_map(PagedOp::Seal),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The paged container against a plain `Vec`: every read agrees after
    /// every write, free and seal; a sealed page keeps answering from its
    /// runs (and takes writes); a default write to an absent page holds no
    /// memory.
    #[test]
    fn paged_container_equals_a_vec(ops in proptest::collection::vec(paged_op(), 1..60)) {
        const ROWS: usize = 1000;
        const PAGE: usize = 64;
        let mut paged = Paged::new(PAGE, 0u8);
        let mut model = vec![0u8; ROWS];
        for op in &ops {
            let before = paged.memory_bytes();
            let held = |paged: &Paged<u8>, page: usize| paged.held_pages().any(|p| p == page);
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
                    let hi = ((page + 1) * PAGE).min(ROWS);
                    model[(page * PAGE).min(hi)..hi].fill(0);
                    prop_assert!(!held(&paged, page));
                    prop_assert!(paged.memory_bytes() <= before);
                }
                PagedOp::Seal(page) => {
                    paged.seal(page);
                    prop_assert!(held(&paged, page));
                }
            }
            for (i, &want) in model.iter().enumerate() {
                prop_assert_eq!(paged.get(i), want, "row {} after {:?}", i, op);
            }
        }
        prop_assert_eq!(paged.get(ROWS + 5 * PAGE), 0, "past the directory reads default");
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
    let table = build_table(&[30, 30], &[3, 7, 11]);
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
