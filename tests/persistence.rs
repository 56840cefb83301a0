//! Property tests of the durability layer: snapshots are lossless,
//! recovery equals the live state, and damage only ever truncates
//! history (never corrupts it silently).
//!
//! The fault-injection half drives the segmented WAL through scripted
//! crashes ([`FaultVfs`]) at every storage-operation boundary and checks
//! the two invariants the tentpole promises: recovery lands on exactly
//! the acknowledged prefix (tier layout included), and a shredded drop
//! leaves no forgotten value's encoded bytes anywhere in the directory.

use amnesia::columnar::compress::Encoding;
use amnesia::columnar::persist::{
    recover_segments, replay, snapshot, Fault, FaultKind, FaultVfs, PersistentTable, SegmentedWal,
    SharedVfs, StdVfs, SyncPolicy, WalRecord,
};
use amnesia::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "amn-proptest-{}-{tag}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Apply a scripted workload to both a plain table and a persistent one.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<i64>),
    Forget(usize),
    Checkpoint,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(-10_000i64..10_000, 1..20).prop_map(Op::Insert),
        4 => (0usize..10_000).prop_map(Op::Forget),
        1 => Just(Op::Checkpoint),
    ]
}

/// One record as the legacy `table.wal` framed it (`u32 len | body | u32
/// crc`) — nothing writes that file any more; old directories are still
/// read.
fn legacy_frame(record: &WalRecord) -> Vec<u8> {
    let body = record.encode_body();
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    out.extend_from_slice(&amnesia::util::crc32(&body).to_le_bytes());
    out
}

fn tables_equal(a: &Table, b: &Table) -> bool {
    if a.num_rows() != b.num_rows() || a.active_rows() != b.active_rows() {
        return false;
    }
    (0..a.num_rows()).all(|r| {
        let id = RowId::from(r);
        a.value(0, id) == b.value(0, id)
            && a.insert_epoch(id) == b.insert_epoch(id)
            && a.activity().is_active(id) == b.activity().is_active(id)
            && a.activity().died_at(id) == b.activity().died_at(id)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Lossless over every shape the v4 run sections meet: contiguous
    /// forget runs, fully scattered forgets, several death epochs, several
    /// insert epochs, and (when `tiered`) frozen, recompressed and dropped
    /// blocks — equality includes every `died_at` and `insert_epoch`.
    #[test]
    fn snapshot_round_trip_is_lossless(
        batches in proptest::collection::vec(
            (proptest::collection::vec(-100_000i64..100_000, 0..150), 0u64..3), 0..4),
        forget in proptest::collection::vec(0usize..1000, 0..80),
        runs in proptest::collection::vec((0usize..1000, 1usize..160, 1u64..5), 0..4),
        touches in proptest::collection::vec(0usize..1000, 0..40),
        tiered in 0u8..2,
    ) {
        let mut t = Table::with_block_rows(Schema::single("a"), 64);
        let mut epoch = 0;
        for (values, step) in &batches {
            epoch += step; // step 0: two batches share an insert epoch
            if !values.is_empty() {
                t.insert_batch(values, epoch).unwrap();
            }
        }
        let n = t.num_rows();
        if n > 0 {
            for (i, &f) in forget.iter().enumerate() {
                let _ = t.forget(RowId((f % n) as u64), 1 + (i as u64 % 3));
            }
            for &(start, len, e) in &runs {
                let start = start % n;
                for r in start..(start + len).min(n) {
                    let _ = t.forget(RowId(r as u64), 10 + e);
                }
            }
            for &x in &touches {
                t.access_mut().touch(RowId((x % n) as u64), 2);
            }
        }
        if tiered == 1 {
            t.freeze_upto(n);
            t.drop_forgotten_blocks();
            t.recompress_frozen(0.5);
        }
        let restored = snapshot::decode(&snapshot::encode(&t)).unwrap();
        prop_assert!(states_equal(&t, &restored));
        // Access stats round-trip too.
        for r in 0..n {
            let id = RowId::from(r);
            prop_assert_eq!(t.access().frequency(id), restored.access().frequency(id));
        }
    }

    #[test]
    fn recovery_equals_live_state(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let dir = tmp_dir("rec");
        let mut reference = Table::new(Schema::single("a"));
        let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
        let mut epoch = 0u64;
        for op in &ops {
            match op {
                Op::Insert(values) => {
                    reference.insert_batch(values, epoch).unwrap();
                    pt.insert_batch(values, epoch).unwrap();
                    epoch += 1;
                }
                Op::Forget(i) => {
                    if reference.num_rows() > 0 {
                        let row = RowId((i % reference.num_rows()) as u64);
                        reference.forget(row, epoch).unwrap();
                        pt.forget(row, epoch).unwrap();
                    }
                }
                Op::Checkpoint => pt.checkpoint().unwrap(),
            }
        }
        pt.sync().unwrap();
        drop(pt);
        let recovered = PersistentTable::open(&dir).unwrap();
        prop_assert!(recovered.recovered_clean());
        prop_assert!(tables_equal(&reference, recovered.table()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_wal_yields_a_strict_prefix(
        n_records in 1usize..12,
        cut_frac in 0.0f64..1.0,
    ) {
        let records: Vec<WalRecord> = (0..n_records)
            .map(|i| {
                if i % 3 == 2 {
                    WalRecord::Forget { epoch: i as u64, row: RowId(i as u64) }
                } else {
                    WalRecord::Insert {
                        epoch: i as u64,
                        rows: vec![vec![i as i64, -(i as i64)]],
                    }
                }
            })
            .collect();
        let bytes: Vec<u8> = records.iter().flat_map(legacy_frame).collect();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let outcome = replay(&bytes[..cut]);
        // Prefix property: recovered records exactly match the head of
        // what was written.
        prop_assert_eq!(&records[..outcome.records.len()], &outcome.records[..]);
        prop_assert!(outcome.valid_bytes as usize <= cut);
    }
}

#[test]
fn persistent_amnesia_loop_survives_restarts() {
    // Run the paper's fixed-budget loop, restarting from disk every
    // other batch: the precision story must be unaffected by crashes.
    let dir = tmp_dir("loop");
    let dbsize = 150usize;
    let mut rng = SimRng::new(99);
    let mut policy = PolicyKind::Uniform.build();
    let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
    let mut next = 0i64;
    let values: Vec<i64> = (0..dbsize as i64).collect();
    next += dbsize as i64;
    pt.insert_batch(&values, 0).unwrap();
    for b in 1..=6u64 {
        let fresh: Vec<i64> = (next..next + 30).collect();
        next += 30;
        pt.insert_batch(&fresh, b).unwrap();
        let excess = pt.table().active_rows() - dbsize;
        let victims = {
            let ctx = PolicyContext {
                table: pt.table(),
                epoch: b,
            };
            policy.select_victims(&ctx, excess, &mut rng)
        };
        for v in victims {
            pt.forget(v, b).unwrap();
        }
        assert_eq!(
            pt.table().active_rows(),
            dbsize,
            "budget holds at batch {b}"
        );
        pt.sync().unwrap();
        if b % 2 == 0 {
            // "Crash" and recover.
            pt.checkpoint().unwrap();
            drop(pt);
            pt = PersistentTable::open(&dir).unwrap();
            assert!(pt.recovered_clean());
            assert_eq!(pt.table().active_rows(), dbsize, "budget survives restart");
        }
    }
    assert_eq!(pt.table().num_rows(), dbsize + 6 * 30);
    std::fs::remove_dir_all(&dir).ok();
}

/// Backward compat: a checked-in version-1 (pre-tier) snapshot must keep
/// loading into a fully-hot table. The fixture was written by the PR-2
/// era encoder (preserved as `encode_v1` in the snapshot unit tests):
/// a 500-row two-column table, every 7th row forgotten at epoch 3, every
/// 11th row touched twice.
#[test]
fn v1_pre_tier_snapshot_fixture_still_loads() {
    let bytes = include_bytes!("fixtures/v1_pre_tier.snap");
    let t = snapshot::decode(bytes).expect("v1 fixture must decode");
    assert_eq!(t.num_rows(), 500);
    assert_eq!(t.schema().arity(), 2);
    assert_eq!(t.schema().index_of("k"), Some(0));
    assert_eq!(t.schema().index_of("v"), Some(1));
    assert!(!t.has_frozen(), "v1 predates tiering: restore is fully hot");
    assert_eq!(t.forgotten_rows(), 500usize.div_ceil(7));
    // Column k held 0..500 serially; spot-check values and marks.
    assert_eq!(t.value(0, RowId(123)), 123);
    assert!(!t.activity().is_active(RowId(0)), "row 0 was forgotten");
    assert_eq!(t.activity().died_at(RowId(7)), Some(3));
    assert!(t.activity().is_active(RowId(1)));
    assert_eq!(t.access().frequency(RowId(11)), 2.0);
    assert_eq!(t.max_seen(0), Some(499));
    // The restored table round-trips through the *current* format and
    // can immediately freeze — the tier machinery owns it from here.
    let mut again = snapshot::decode(&snapshot::encode(&t)).unwrap();
    assert_eq!(again.num_rows(), t.num_rows());
    assert_eq!(again.active_rows(), t.active_rows());
    for r in 0..t.num_rows() {
        let id = RowId::from(r);
        assert_eq!(again.value(0, id), t.value(0, id));
        assert_eq!(again.value(1, id), t.value(1, id));
    }
    for i in 500..1100i64 {
        again.insert(&[i, 0], 5).unwrap();
    }
    again.freeze_upto(1024);
    assert!(again.has_frozen());
    assert_eq!(again.value(0, RowId(123)), 123);
}

/// Backward compat: a version-3 snapshot written at the commit before
/// the v4 run sections (per-row death epochs and insert-epoch deltas, a
/// dropped, a recompressed and two plain frozen blocks, a hot tail) loads
/// to exactly the table that wrote it.
#[test]
fn v3_snapshot_fixture_still_loads() {
    let bytes = include_bytes!("fixtures/v3_table.snap");
    assert_eq!(snapshot::peek_version(bytes).unwrap(), 3);
    let (t, meta) = snapshot::decode_with_meta(bytes).expect("v3 fixture must decode");
    assert_eq!(
        (
            meta.last_seqno,
            meta.blocks_dropped,
            meta.blocks_recompressed
        ),
        (41, 1, 1)
    );
    // What the fixture's generator ran, replayed on today's code.
    let mut want = Table::with_block_rows(Schema::new(vec!["k", "v"]), 64);
    for i in 0..300i64 {
        want.insert(&[i, (i * 7919) % 1000 - 500], (i / 50) as u64)
            .unwrap();
    }
    for r in 0..64 {
        want.forget(RowId(r), 6).unwrap();
    }
    for r in (64..128).step_by(2) {
        want.forget(RowId(r), 7).unwrap();
    }
    for r in [130, 131, 132] {
        want.forget(RowId(r), 8).unwrap();
    }
    want.forget(RowId(200), 9).unwrap();
    want.forget(RowId(299), 10).unwrap();
    want.freeze_upto(256);
    want.drop_forgotten_blocks();
    // The generator's chooser found nothing smaller than the forpack
    // payloads of the rotten block 1 and kept them; today's would
    // re-encode them as runbits, so the replay pins what it kept.
    want.pin_encoding(0, Some(Encoding::ForPack));
    want.pin_encoding(1, Some(Encoding::ForPack));
    want.recompress_frozen(0.6);
    for r in (0..300).step_by(11) {
        want.access_mut().touch(RowId(r), 2);
        want.access_mut().touch(RowId(r), 4);
    }
    assert_eq!(t.schema(), want.schema());
    assert!(states_equal(&want, &t));
    for r in 0..300 {
        let id = RowId(r);
        assert_eq!(t.value(1, id), want.value(1, id), "v@{r}");
        assert_eq!(t.access().frequency(id), want.access().frequency(id));
        assert_eq!(t.access().last_access(id), want.access().last_access(id));
    }
    assert_eq!(t.dropped_rows(), 64);
    assert_eq!((t.min_seen(0), t.max_seen(0)), (Some(0), Some(299)));
    t.check_invariants().unwrap();
    // Re-encoding writes v4; nothing is lost on the way.
    let again = snapshot::encode(&t);
    assert_eq!(snapshot::peek_version(&again).unwrap(), snapshot::VERSION);
    assert!(states_equal(&t, &snapshot::decode(&again).unwrap()));
}

/// A whole directory as the parent commit left it — v3 `table.snap` from a
/// drop's shred, then kind-3 and kind-1 inserts, kind-2 forgets, a freeze
/// and a recompress in a live segment — opens and recovers to the same
/// table, and keeps working (new batch records, a checkpoint, a reopen).
#[test]
fn v3_directory_fixture_recovers_to_the_same_table() {
    let dir = tmp_dir("v3-dir");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in [
        (
            "table.snap",
            &include_bytes!("fixtures/v3_dir/table.snap")[..],
        ),
        (
            "wal-00000001.seg",
            &include_bytes!("fixtures/v3_dir/wal-00000001.seg")[..],
        ),
    ] {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let ops = [
        vec![WOp::Insert(0, (0..200).collect())],
        (0..64).map(|r| WOp::Forget(1, r)).collect(),
        vec![
            WOp::Freeze(128),
            WOp::Drop,
            WOp::Insert(2, (200..230).collect()),
            WOp::Insert(2, vec![999]),
            WOp::Forget(3, 70),
            WOp::Forget(3, 72),
            WOp::Forget(3, 74),
            WOp::Freeze(192),
            WOp::Recompress(0.99),
        ],
    ]
    .concat();
    let (want, dropped, recompressed) = reference_state(&ops, 64);
    let mut pt = PersistentTable::open(&dir).unwrap();
    assert!(pt.recovered_clean());
    assert!(states_equal(&want, pt.table()));
    assert_eq!(
        (pt.blocks_dropped(), pt.blocks_recompressed()),
        (dropped, recompressed)
    );
    let tail = [
        WOp::ForgetBatch(4, vec![100, 101, 102, 229]),
        WOp::Checkpoint,
        WOp::Insert(5, (0..20).collect()),
    ];
    for op in &tail {
        apply_wop(&mut pt, op).unwrap();
    }
    pt.sync().unwrap();
    drop(pt);
    let (want, ..) = reference_state(&[&ops[..], &tail[..]].concat(), 64);
    let rec = PersistentTable::open(&dir).unwrap();
    assert!(rec.recovered_clean());
    assert!(states_equal(&want, rec.table()));
    std::fs::remove_dir_all(&dir).ok();
}

/// The v4 bytes, pinned: a snapshot written at the commit before the
/// per-row metadata became runs and pages (two-column table, 64-row
/// blocks; two dropped blocks whose death run crosses their boundary, a
/// recompressed block of scattered forgets, contiguous forgets in a frozen
/// block and in the hot tail; six insert batches over four epochs that do
/// not ascend; rows touched before the drop and after it, some inside the
/// dropped blocks) decodes to the values its writer held and re-encodes to
/// the same bytes.
#[test]
fn v4_snapshot_fixture_round_trips_byte_for_byte() {
    let bytes = include_bytes!("fixtures/v4_table.snap");
    assert_eq!(snapshot::peek_version(bytes).unwrap(), 4);
    let (t, meta) = snapshot::decode_with_meta(bytes).expect("v4 fixture must decode");
    assert_eq!(
        (
            meta.last_seqno,
            meta.blocks_dropped,
            meta.blocks_recompressed
        ),
        (77, 2, 1)
    );
    assert_eq!((t.num_rows(), t.dropped_rows()), (400, 128));
    assert_eq!(t.forgotten_rows(), 128 + 48 + 9);
    let died_at = |r| t.activity().died_at(RowId(r));
    // Rows 0..96 died at 6 and 96..128 at 7: both blocks are dropped, and
    // the first run crosses from one into the other.
    assert_eq!(
        (died_at(0), died_at(70), died_at(95)),
        (Some(6), Some(6), Some(6))
    );
    assert_eq!((died_at(96), died_at(127)), (Some(7), Some(7)));
    assert_eq!(
        (died_at(128), died_at(129), died_at(131)),
        (None, Some(8), Some(8))
    );
    assert_eq!(
        (died_at(199), died_at(200), died_at(203)),
        (None, Some(9), None)
    );
    assert_eq!(
        (died_at(394), died_at(395), died_at(399)),
        (Some(9), None, Some(10))
    );
    let epoch = |r| t.insert_epoch(RowId(r));
    assert_eq!((epoch(0), epoch(70), epoch(99), epoch(100)), (0, 0, 0, 1));
    assert_eq!((epoch(259), epoch(260), epoch(299)), (1, 3, 3));
    assert_eq!(
        (epoch(300), epoch(339), epoch(340), epoch(399)),
        (2, 2, 5, 5)
    );
    assert_eq!(t.current_epoch(), 5);
    let access = |r| {
        (
            t.access().frequency(RowId(r)),
            t.access().last_access(RowId(r)),
        )
    };
    // Every 13th row touched at 1 before the drop, every 11th at 2 and 4
    // after it; rows 0, 11, 13 and 26 lie in the dropped blocks.
    assert_eq!(
        (access(0), access(11), access(13), access(26)),
        ((3.0, 4), (2.0, 4), (1.0, 1), (1.0, 1))
    );
    assert_eq!(
        (access(143), access(396), access(390), access(12)),
        ((3.0, 4), (2.0, 4), (1.0, 1), (0.0, 0))
    );
    assert_eq!(t.value(0, RowId(321)), 321);
    assert_eq!(t.value(1, RowId(321)), (321 * 7919) % 1000 - 500);
    t.check_invariants().unwrap();
    assert_eq!(snapshot::encode_with_meta(&t, meta), &bytes[..]);
}

/// A whole v4 directory as the parent commit left it — `table.snap` from a
/// drop's shred, then batch inserts, a row insert, forgets (kind 2 and
/// kind 8), a freeze and a recompress in the live segment — recovers to the
/// table the same operations build today, its snapshot re-encodes to the
/// same bytes, and the directory keeps working.
#[test]
fn v4_directory_fixture_recovers_to_the_same_table() {
    let dir = tmp_dir("v4-dir");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = &include_bytes!("fixtures/v4_dir/table.snap")[..];
    let seg = &include_bytes!("fixtures/v4_dir/wal-00000001.seg")[..];
    std::fs::write(dir.join("table.snap"), snap).unwrap();
    std::fs::write(dir.join("wal-00000001.seg"), seg).unwrap();
    let (at_shred, meta) = snapshot::decode_with_meta(snap).unwrap();
    assert_eq!(at_shred.dropped_rows(), 64);
    assert_eq!(at_shred.activity().died_at(RowId(40)), Some(1));
    assert_eq!(snapshot::encode_with_meta(&at_shred, meta), snap);

    let ops = vec![
        WOp::Insert(0, (0..200).collect()),
        WOp::Insert(1, (200..210).collect()),
        WOp::ForgetBatch(1, (0..64).collect()),
        WOp::Freeze(128),
        WOp::Drop,
        WOp::Insert(2, (210..240).collect()),
        WOp::Insert(2, vec![999]),
        WOp::Forget(3, 70),
        WOp::ForgetBatch(3, vec![72, 74, 76, 239]),
        WOp::Freeze(192),
        WOp::Recompress(0.99),
    ];
    let (want, dropped, recompressed) = reference_state(&ops, 64);
    let mut pt = PersistentTable::open(&dir).unwrap();
    assert!(pt.recovered_clean());
    assert!(states_equal(&want, pt.table()));
    assert_eq!(
        (pt.blocks_dropped(), pt.blocks_recompressed()),
        (dropped, recompressed)
    );
    assert_eq!(pt.table().activity().died_at(RowId(40)), Some(1));
    assert_eq!(pt.table().insert_epoch(RowId(205)), 1);
    let tail = [
        WOp::ForgetBatch(4, vec![100, 101, 102, 229]),
        WOp::Checkpoint,
        WOp::Insert(5, (0..20).collect()),
    ];
    for op in &tail {
        apply_wop(&mut pt, op).unwrap();
    }
    pt.sync().unwrap();
    drop(pt);
    let (want, ..) = reference_state(&[&ops[..], &tail[..]].concat(), 64);
    let rec = PersistentTable::open(&dir).unwrap();
    assert!(rec.recovered_clean());
    assert!(states_equal(&want, rec.table()));
    std::fs::remove_dir_all(&dir).ok();
}

/// The table behind `tests/fixtures/codec_choice.snap`: four frozen
/// 1 024-row blocks of columns shaped like the benchmark's — uniform
/// `U[0, 10^6)`, `i/100 + U[0, 50)`, `i/2000`, `31·i mod 100` — and one of
/// `i64` extremes; block 1 forgotten to 50 % active and block 2 to 42 %,
/// then `recompress_frozen(0.5)`; a 300-row hot tail.
fn codec_choice_table() -> Table {
    let cols = vec!["uniform", "band", "serial", "cyclic", "extremes"];
    let mut t = Table::with_block_rows(Schema::new(cols), 1024);
    let mut rng = SimRng::new(25);
    let extremes = [i64::MIN, i64::MAX, i64::MIN + 1, -1, 0, 1];
    for i in 0..4 * 1024 + 300i64 {
        let row = [
            rng.range_i64(0, 1_000_000),
            i / 100 + rng.range_i64(0, 50),
            i / 2000,
            31 * i % 100,
            extremes[rng.index(extremes.len())],
        ];
        t.insert(&row, (i / 1024) as u64).unwrap();
    }
    t.freeze_upto(4 * 1024);
    for (b, active) in [(1u64, 512), (2, 430)] {
        let mut rows: Vec<u64> = (b * 1024..(b + 1) * 1024).collect();
        rng.shuffle(&mut rows);
        for &r in &rows[active..] {
            t.forget(RowId(r), 9).unwrap();
        }
    }
    t.recompress_frozen(0.5);
    t
}

/// Every block of `codec_choice_table` chooses the codec, and holds the
/// bytes, the fixture records: today's freeze, recompression and
/// hot-tail encode rebuild it byte for byte. The parent of
/// size-arithmetic `encode_auto` wrote it, when the chooser encoded all
/// five codecs; it was rewritten once since, when the run bitmap codec
/// arrived, and only the recompressed blocks 1 and 2 of the uniform,
/// band and cyclic columns changed (to runbits) — every fresh block and
/// the hot tail kept their bytes.
#[test]
fn codec_choice_fixture_is_rebuilt_byte_for_byte() {
    let bytes = include_bytes!("fixtures/codec_choice.snap");
    let t = codec_choice_table();
    let mut codecs = std::collections::BTreeSet::new();
    for c in 0..5 {
        let tier = t.col_tier(c);
        for b in 0..tier.frozen_blocks() {
            codecs.insert(tier.frozen(b).unwrap().encoded().encoding().name());
        }
    }
    assert_eq!(codecs.len(), 4, "the fixture exercises {codecs:?}");
    assert!(snapshot::encode(&t) == bytes, "rebuilt table differs");
    let back = snapshot::decode(bytes).unwrap();
    assert!(states_equal(&t, &back));
    assert!(
        snapshot::encode(&back) == bytes,
        "re-encoded fixture differs"
    );
}

// ---------------------------------------------------------------------------
// Segmented WAL: torn tails across record kinds and segment boundaries.
// ---------------------------------------------------------------------------

fn any_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        3 => (0u64..5, proptest::collection::vec(proptest::collection::vec(-1000i64..1000, 2), 1..4))
            .prop_map(|(epoch, rows)| WalRecord::Insert { epoch, rows }),
        // ≥ 8 rows takes the columnar compressed body path.
        2 => (0u64..5, proptest::collection::vec(-1_000_000i64..1_000_000, 10..40))
            .prop_map(|(epoch, vals)| WalRecord::Insert {
                epoch,
                rows: vals.into_iter().map(|v| vec![v, v ^ 7]).collect(),
            }),
        // One column: row-major under 8 values, codec-compressed above.
        2 => (0u64..5, proptest::collection::vec(-1_000_000i64..1_000_000, 1..40))
            .prop_map(|(epoch, values)| WalRecord::InsertColumn { epoch, values }),
        2 => (0u64..5, 0u64..1000).prop_map(|(epoch, row)| WalRecord::Forget { epoch, row: RowId(row) }),
        // A forget batch in policy order: runs, steps back, repeats.
        3 => (0u64..5, proptest::collection::vec((0u64..5000, 1u64..30), 0..12))
            .prop_map(|(epoch, runs)| {
                let rows: Vec<RowId> =
                    runs.iter().flat_map(|&(start, len)| (start..start + len).map(RowId)).collect();
                WalRecord::forget_rows(epoch, &rows)
            }),
        1 => (0usize..5000).prop_map(|upto| WalRecord::Freeze { upto }),
        1 => Just(WalRecord::DropBlocks),
        1 => (0u32..=100).prop_map(|x| WalRecord::Recompress { max_active_fraction: x as f64 / 100.0 }),
        1 => (0u64..50).prop_map(|s| WalRecord::Checkpoint { through_seqno: s }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cut the newest segment at *any* byte: recovery yields an exact
    /// prefix of what was appended, whatever mix of record kinds the log
    /// held and wherever the segment boundaries fell.
    #[test]
    fn segmented_torn_tail_is_a_prefix_over_all_record_kinds(
        records in proptest::collection::vec(any_record(), 1..25),
        seg_bytes in 96u64..400,
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = tmp_dir("segcut");
        let vfs: SharedVfs = StdVfs::shared();
        let mut wal = SegmentedWal::create(vfs.clone(), &dir, 1).unwrap();
        wal.set_segment_bytes(seg_bytes);
        for r in &records {
            wal.append(r, 0).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        segs.sort();
        let last = segs.last().unwrap();
        let bytes = std::fs::read(last).unwrap();
        let keep = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(last, &bytes[..keep]).unwrap();
        let rec = recover_segments(vfs, &dir, 0, seg_bytes).unwrap();
        prop_assert!(rec.records.len() <= records.len());
        prop_assert_eq!(&records[..rec.records.len()], &rec.records[..]);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Crash matrix: scripted faults at storage-operation boundaries.
// ---------------------------------------------------------------------------

/// One logical operation of a durable-table workload.
#[derive(Clone, Debug)]
enum WOp {
    Insert(u64, Vec<i64>),
    Forget(u64, u64),
    ForgetBatch(u64, Vec<u64>),
    Freeze(usize),
    Drop,
    Recompress(f64),
    Checkpoint,
}

fn apply_wop(pt: &mut PersistentTable, op: &WOp) -> Result<()> {
    match op {
        WOp::Insert(e, vs) => pt.insert_batch(vs, *e).map(|_| ()),
        WOp::Forget(e, r) => pt.forget(RowId(*r), *e).map(|_| ()),
        WOp::ForgetBatch(e, rows) => {
            let rows: Vec<RowId> = rows.iter().copied().map(RowId).collect();
            pt.forget_batch(&rows, *e).map(|_| ())
        }
        WOp::Freeze(u) => pt.freeze_upto(*u).map(|_| ()),
        WOp::Drop => pt.drop_forgotten_blocks().map(|_| ()),
        WOp::Recompress(f) => pt.recompress_frozen(*f).map(|_| ()),
        WOp::Checkpoint => pt.checkpoint(),
    }
}

/// Replay an op prefix on a plain in-memory table: the state recovery is
/// expected to reproduce. Returns (table, blocks_dropped,
/// blocks_recompressed).
fn reference_state(ops: &[WOp], block_rows: usize) -> (Table, u64, u64) {
    let mut t = Table::with_block_rows(Schema::single("a"), block_rows);
    let (mut dropped, mut recompressed) = (0u64, 0u64);
    for op in ops {
        match op {
            WOp::Insert(e, vs) => {
                t.insert_batch(vs, *e).unwrap();
            }
            WOp::Forget(e, r) => {
                let _ = t.forget(RowId(*r), *e).unwrap();
            }
            WOp::ForgetBatch(e, rows) => {
                for r in rows {
                    let _ = t.forget(RowId(*r), *e).unwrap();
                }
            }
            WOp::Freeze(u) => {
                t.freeze_upto(*u);
            }
            WOp::Drop => {
                let (d, _) = t.drop_forgotten_blocks();
                dropped += d as u64;
            }
            WOp::Recompress(f) => {
                let (r, _) = t.recompress_frozen(*f);
                recompressed += r as u64;
            }
            WOp::Checkpoint => {}
        }
    }
    (t, dropped, recompressed)
}

/// Row values + activity + tier layout must all agree.
fn states_equal(a: &Table, b: &Table) -> bool {
    tables_equal(a, b)
        && a.frozen_blocks() == b.frozen_blocks()
        && a.dropped_rows() == b.dropped_rows()
        && a.bytes_frozen() == b.bytes_frozen()
}

/// A workload that exercises every WAL record kind against 64-row tier
/// blocks: bulk + trickle inserts, a dead block, a rotten block, a
/// checkpoint, and post-checkpoint tail work.
fn tier_workload() -> Vec<WOp> {
    let mut ops = Vec::new();
    ops.push(WOp::Insert(0, (0..200).collect()));
    ops.push(WOp::Insert(1, (200..205).collect()));
    for r in 0..64 {
        ops.push(WOp::Forget(1, r)); // block 0 fully dead
    }
    ops.push(WOp::Freeze(192));
    ops.push(WOp::Drop);
    // Rot block 1 with one batch record: scattered victims, one repeat.
    ops.push(WOp::ForgetBatch(
        2,
        (64..128).filter(|r| r % 2 == 0).chain([64]).collect(),
    ));
    ops.push(WOp::Recompress(0.6));
    ops.push(WOp::Insert(2, (205..260).collect()));
    ops.push(WOp::Checkpoint);
    for r in 130..140 {
        ops.push(WOp::Forget(3, r));
    }
    // A contiguous batch, out of order with a straggler, after the
    // checkpoint: replayed from the live segment.
    ops.push(WOp::ForgetBatch(3, (140..180).chain([129]).collect()));
    ops
}

/// Run `ops` against a fault-injected backend, then recover with the
/// real backend and demand the recovered state equals either the
/// acknowledged prefix or acknowledged + the one in-flight op.
fn check_crash_point(ops: &[WOp], fault: Fault, block_rows: usize, tag: &str) {
    let dir = tmp_dir(tag);
    let fvfs = Arc::new(FaultVfs::with_faults(vec![fault]));
    let shared: SharedVfs = fvfs.clone();
    let table = Table::with_block_rows(Schema::single("a"), block_rows);
    let mut acked = 0usize;
    let mut inflight = false;
    match PersistentTable::create_with_table(shared, &dir, table, SyncPolicy::PerRecord) {
        Ok(mut pt) => {
            for op in ops {
                match apply_wop(&mut pt, op) {
                    Ok(()) => acked += 1,
                    Err(_) => {
                        inflight = true;
                        break;
                    }
                }
            }
        }
        Err(_) => {
            // The crash hit table creation itself: recovery may find a
            // valid empty table or (pre-snapshot) nothing at all.
            if let Ok(rec) = PersistentTable::open(&dir) {
                assert_eq!(rec.table().num_rows(), 0, "fault {fault:?}");
            }
            std::fs::remove_dir_all(&dir).ok();
            return;
        }
    }
    let rec = PersistentTable::open(&dir)
        .unwrap_or_else(|e| panic!("recovery after fault {fault:?} must succeed: {e}"));
    let mut prefixes = vec![&ops[..acked]];
    if inflight {
        prefixes.push(&ops[..acked + 1]);
    }
    let matched = prefixes.iter().any(|p| {
        let (t, d, r) = reference_state(p, block_rows);
        states_equal(&t, rec.table()) && d == rec.blocks_dropped() && r == rec.blocks_recompressed()
    });
    assert!(
        matched,
        "fault {fault:?}: recovered state (rows {}, frozen {}, dropped-blocks {}) \
         matches neither the {acked}-op acked prefix nor the in-flight op",
        rec.table().num_rows(),
        rec.table().frozen_blocks(),
        rec.blocks_dropped(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Count the storage ops the workload performs when nothing fails.
fn recorded_op_count(ops: &[WOp], block_rows: usize, tag: &str) -> usize {
    let dir = tmp_dir(tag);
    let fvfs = Arc::new(FaultVfs::new());
    let shared: SharedVfs = fvfs.clone();
    let table = Table::with_block_rows(Schema::single("a"), block_rows);
    let mut pt = PersistentTable::create_with_table(shared, &dir, table, SyncPolicy::PerRecord)
        .expect("recording run");
    for op in ops {
        apply_wop(&mut pt, op).expect("recording run");
    }
    drop(pt);
    let n = fvfs.op_count() as usize;
    std::fs::remove_dir_all(&dir).ok();
    n
}

/// Crash at a spread of storage-operation boundaries across the tiering
/// workload — every tier transition, the shred, the checkpoint and the
/// appends all get hit. The full every-op sweep runs in the env-gated
/// torture test below.
#[test]
fn crash_points_recover_the_acknowledged_prefix_and_tier_layout() {
    let ops = tier_workload();
    let n = recorded_op_count(&ops, 64, "cm-rec");
    assert!(n > 50, "workload too small to matter: {n} storage ops");
    let stride = (n / 48).max(1);
    for k in (0..n).step_by(stride) {
        check_crash_point(
            &ops,
            Fault {
                at_op: k as u64,
                kind: FaultKind::Crash,
            },
            64,
            "cm-crash",
        );
        check_crash_point(
            &ops,
            Fault {
                at_op: k as u64,
                kind: FaultKind::TornWrite { keep: 3 },
            },
            64,
            "cm-torn",
        );
    }
}

/// Full fault matrix, every storage op × {crash, torn, error}, over a
/// seeded random workload. Heavy: run with
/// `AMNESIA_FAULT_MATRIX=<seed> cargo test --test persistence -- --ignored`.
#[test]
#[ignore = "torture leg: set AMNESIA_FAULT_MATRIX and run with --ignored"]
fn fault_matrix_torture() {
    let seed: u64 = std::env::var("AMNESIA_FAULT_MATRIX")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC1DA);
    let mut rng = SimRng::new(seed);
    let mut ops = Vec::new();
    let mut rows = 0u64;
    let mut epoch = 0u64;
    for _ in 0..120 {
        match rng.next_u64() % 10 {
            0..=3 => {
                let n = 1 + rng.next_u64() % 40;
                ops.push(WOp::Insert(
                    epoch,
                    (0..n).map(|i| (rows + i) as i64 * 3 - 50).collect(),
                ));
                rows += n;
                epoch += 1;
            }
            4..=5 => {
                if rows > 0 {
                    ops.push(WOp::Forget(epoch, rng.next_u64() % rows));
                }
            }
            6 => {
                if rows > 0 {
                    // Half the batches a contiguous run, half scattered.
                    let k = 1 + rng.next_u64() % 30;
                    let start = rng.next_u64() % rows;
                    let contiguous = rng.next_u64().is_multiple_of(2);
                    let victims = (0..k)
                        .map(|i| {
                            if contiguous {
                                (start + i) % rows
                            } else {
                                rng.next_u64() % rows
                            }
                        })
                        .collect();
                    ops.push(WOp::ForgetBatch(epoch, victims));
                }
            }
            7 => ops.push(WOp::Freeze((rng.next_u64() % (rows + 1)) as usize)),
            8 => ops.push(WOp::Drop),
            _ => {
                if rng.next_u64().is_multiple_of(2) {
                    ops.push(WOp::Recompress(0.5));
                } else {
                    ops.push(WOp::Checkpoint);
                }
            }
        }
    }
    let n = recorded_op_count(&ops, 64, "torture-rec");
    for k in 0..n {
        check_crash_point(
            &ops,
            Fault {
                at_op: k as u64,
                kind: FaultKind::Crash,
            },
            64,
            "torture-crash",
        );
        check_crash_point(
            &ops,
            Fault {
                at_op: k as u64,
                kind: FaultKind::TornWrite { keep: 5 },
            },
            64,
            "torture-torn",
        );
        check_crash_point(
            &ops,
            Fault {
                at_op: k as u64,
                kind: FaultKind::Error,
            },
            64,
            "torture-err",
        );
    }
}

// ---------------------------------------------------------------------------
// Shredding: forgotten values must not survive anywhere in the directory.
// ---------------------------------------------------------------------------

/// The WAL's zigzag-LEB128 encoding of `v` (mirrors
/// `compress::varint::write_signed`).
fn zigzag_bytes(v: i64) -> Vec<u8> {
    let mut u = ((v << 1) ^ (v >> 63)) as u64;
    let mut out = Vec::new();
    loop {
        let b = (u & 0x7F) as u8;
        u >>= 7;
        if u == 0 {
            out.push(b);
            return out;
        }
        out.push(b | 0x80);
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

fn dir_files(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            (p, bytes)
        })
        .collect()
}

/// High-entropy sentinels: every encoding of one is 8–9 distinctive
/// bytes, so a directory scan can prove presence and absence. Bits 61–63
/// are masked off so no sentinel becomes the column's global min/max-seen
/// — those two values are the paper's sanctioned "summary" of forgotten
/// data and legitimately persist.
fn sentinels(n: u64) -> Vec<i64> {
    (0..n)
        .map(|i| {
            ((0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(0x0DDB_1A5E))
                & 0x0FFF_FFFF_FFFF_FFFF)
                | 0x0100_0000_0000_0000) as i64
        })
        .collect()
}

/// Is any encoding of `s` the log uses — zigzag varint (row-major
/// records), raw little-endian (plain codec, snapshots) — in `bytes`?
fn holds_sentinel(bytes: &[u8], s: i64) -> bool {
    contains(bytes, &zigzag_bytes(s)) || contains(bytes, &s.to_le_bytes())
}

fn assert_no_sentinel_survives(dir: &std::path::Path, sentinels: &[i64]) {
    for (path, bytes) in dir_files(dir) {
        for &s in sentinels {
            assert!(
                !holds_sentinel(&bytes, s),
                "sentinel {s:#x} survives in {}",
                path.display()
            );
        }
    }
}

#[test]
fn shred_leaves_no_forgotten_value_bytes_in_the_directory() {
    let dir = tmp_dir("shred-scan");
    let table = Table::with_block_rows(Schema::single("a"), 64);
    let mut pt =
        PersistentTable::create_with_table(StdVfs::shared(), &dir, table, SyncPolicy::PerRecord)
            .unwrap();
    let sentinels = sentinels(64);
    // One row per record: the row-major WAL body carries each value's
    // zigzag varint verbatim.
    for (i, &s) in sentinels.iter().enumerate() {
        pt.insert(&[s], i as u64).unwrap();
    }
    // A hot tail of survivors behind the sentinel block, bracketing the
    // sentinels so they never own the column-level min/max summary.
    pt.insert_batch(&(0..62).collect::<Vec<i64>>(), 99).unwrap();
    pt.insert(&[i64::MAX - 1], 99).unwrap();
    pt.insert(&[i64::MIN + 1], 99).unwrap();
    pt.sync().unwrap();
    // The log currently holds every sentinel's encoding.
    let files = dir_files(&dir);
    for &s in &sentinels {
        assert!(
            files.iter().any(|(_, b)| contains(b, &zigzag_bytes(s))),
            "sentinel {s:#x} should be on disk before the drop"
        );
    }
    // Forget the whole sentinel block, freeze it, drop it: the drop
    // rewrites the snapshot and shreds every covered segment.
    for r in 0..64 {
        pt.forget(RowId(r), 100).unwrap();
    }
    pt.freeze_upto(64).unwrap();
    let (blocks, _) = pt.drop_forgotten_blocks().unwrap();
    assert_eq!(blocks, 1, "the sentinel block must drop");
    assert!(pt.stats().segments_shredded > 0, "drop must shred");
    drop(pt);
    // Scan every byte of every file left in the directory: neither the
    // varint nor the raw little-endian encoding of any sentinel survives.
    assert_no_sentinel_survives(&dir, &sentinels);
    // The survivors did survive.
    let rec = PersistentTable::open(&dir).unwrap();
    assert_eq!(rec.table().num_rows(), 128);
    assert_eq!(rec.table().active_rows(), 64);
    assert_eq!(rec.table().value(0, RowId(100)), 36);
    std::fs::remove_dir_all(&dir).ok();
}

/// The same guarantee on the batch path the amnesia loop takes:
/// `AmnesiacStore::{insert_batch, forget_batch, end_batch}` over a
/// `DurableLog` — one kind-3 record for the inserts, one kind-8 record for
/// the forgets, the drop + v4 checkpoint + shred inside `end_batch`.
#[test]
fn shred_leaves_no_forgotten_value_bytes_on_the_batch_path() {
    let dir = tmp_dir("shred-scan-batch");
    let table = Table::with_block_rows(Schema::single("a"), 64);
    let pt =
        PersistentTable::create_with_table(StdVfs::shared(), &dir, table, SyncPolicy::PerBatch)
            .unwrap();
    let (table, log) = pt.into_parts();
    let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
        .with_durability(Box::new(log))
        .with_tiering(amnesia::core::TierConfig {
            hot_rows: 64,
            recompress_below: 0.5,
        });
    // Block 0: a row-major trickle (under 8 values a record) and one
    // codec-compressed batch whose two extremes — the column's sanctioned
    // min/max summary — force a 64-bit width, hence the plain codec.
    let sentinels = sentinels(62);
    for few in sentinels[..12].chunks(4) {
        store.insert_batch(few, 0).unwrap();
    }
    let mut big = sentinels[12..].to_vec();
    big.extend([i64::MAX - 1, i64::MIN + 1]);
    store.insert_batch(&big, 0).unwrap();
    // Block 1: the survivors, hot.
    store
        .insert_batch(&(0..64).collect::<Vec<i64>>(), 1)
        .unwrap();
    store.end_batch().unwrap();
    assert_eq!(store.table().frozen_blocks(), 1);
    // The log holds every sentinel before the drop.
    let files = dir_files(&dir);
    for &s in &sentinels {
        assert!(
            files.iter().any(|(_, b)| holds_sentinel(b, s)),
            "sentinel {s:#x} should be on disk before the drop"
        );
    }
    let before = store.durability_stats().unwrap();
    store
        .forget_batch(&(0..64).map(RowId).collect::<Vec<_>>(), 2)
        .unwrap();
    assert_eq!(
        store.durability_stats().unwrap().records_appended,
        before.records_appended + 1,
        "the whole batch is one record"
    );
    store.end_batch().unwrap();
    let after = store.durability_stats().unwrap();
    assert_eq!(
        store.table().dropped_rows(),
        64,
        "the sentinel block must drop"
    );
    assert!(
        after.segments_shredded > before.segments_shredded,
        "drop must shred"
    );
    assert_eq!(after.checkpoints, before.checkpoints + 1);
    drop(store);
    assert_no_sentinel_survives(&dir, &sentinels);
    let rec = PersistentTable::open(&dir).unwrap();
    assert_eq!(rec.table().num_rows(), 128);
    assert_eq!(rec.table().active_rows(), 64);
    assert_eq!(rec.table().dropped_rows(), 64);
    assert_eq!(rec.table().value(0, RowId(100)), 36);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Torn-tail repair happens in place (no read-whole-file rewrite).
// ---------------------------------------------------------------------------

#[test]
fn torn_tail_repair_truncates_in_place() {
    let dir = tmp_dir("repair");
    let mut pt = PersistentTable::create(&dir, Schema::single("a")).unwrap();
    for i in 0..20 {
        pt.insert(&[i], 0).unwrap();
    }
    pt.sync().unwrap();
    drop(pt);
    // Tear the newest segment three bytes short (inside the last frame's
    // CRC).
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segs.sort();
    let seg = segs.last().unwrap();
    let len = std::fs::metadata(seg).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    // Reopen through a recording FaultVfs: the repair must be an
    // in-place truncate of the segment, never a read-and-rewrite.
    let fvfs = Arc::new(FaultVfs::new());
    let shared: SharedVfs = fvfs.clone();
    let rec = PersistentTable::open_with(shared, &dir).unwrap();
    assert!(!rec.recovered_clean(), "a record was torn");
    assert_eq!(rec.table().num_rows(), 19, "the torn record is gone");
    let log = fvfs.op_log();
    assert!(
        log.iter()
            .any(|l| l.starts_with("truncate") && l.contains(".seg")),
        "repair must truncate in place: {log:?}"
    );
    assert!(
        !log.iter()
            .any(|l| l.starts_with("write_file") && l.contains(".seg")),
        "repair must not rewrite the segment wholesale: {log:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Group commit: sync policies and what survives a torn crash.
// ---------------------------------------------------------------------------

#[test]
fn sync_policies_keep_the_acknowledged_prefix_under_torn_appends() {
    for policy in [
        SyncPolicy::PerRecord,
        SyncPolicy::PerBatch,
        SyncPolicy::Manual,
    ] {
        // Count append ops in a clean run: 30 inserts + 3 manual syncs.
        let total_inserts = 30i64;
        for k in (0..45).step_by(4) {
            let dir = tmp_dir(&format!("gc-{policy:?}-{k}"));
            let fvfs = Arc::new(FaultVfs::torn_at(k, 6));
            let shared: SharedVfs = fvfs.clone();
            let created = PersistentTable::create_with(shared, &dir, Schema::single("a"), policy);
            let Ok(mut pt) = created else {
                std::fs::remove_dir_all(&dir).ok();
                continue;
            };
            let mut acked = 0i64;
            let mut synced = 0i64;
            'run: for i in 0..total_inserts {
                match pt.insert(&[i], 0) {
                    Ok(_) => acked += 1,
                    Err(_) => break 'run,
                }
                if (i + 1) % 10 == 0 {
                    match pt.sync() {
                        Ok(()) => synced = acked,
                        Err(_) => break 'run,
                    }
                }
            }
            if policy == SyncPolicy::PerRecord {
                synced = acked;
            }
            drop(pt);
            let rec = PersistentTable::open(&dir)
                .unwrap_or_else(|e| panic!("{policy:?} crash at {k}: {e}"));
            let n = rec.table().num_rows() as i64;
            // Prefix: the recovered rows are exactly the first n inserts.
            for r in 0..n {
                assert_eq!(
                    rec.table().value(0, RowId(r as u64)),
                    r,
                    "{policy:?} at {k}"
                );
            }
            // Everything explicitly made durable must be there; nothing
            // beyond the acknowledged ops plus the one in flight.
            assert!(
                n >= synced,
                "{policy:?} at {k}: lost synced rows ({n} < {synced})"
            );
            assert!(
                n <= acked + 1,
                "{policy:?} at {k}: invented rows ({n} > {acked}+1)"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

// ---------------------------------------------------------------------------
// The write path's bytes: one sequence, observed from outside.
// ---------------------------------------------------------------------------

/// The scripted history behind `tests/fixtures/store_dir/`, which the
/// commit *before* the store and `PersistentTable` shared one write path
/// wrote: a durable `MarkOnly` store, 1024-row blocks, nothing kept hot,
/// per-batch sync. Inserts (kind 3 and kind 1), a single forget (kind 2),
/// batches (kind 8) that kill block 0 and rot block 1, a `forget_block`,
/// three `end_batch`es (the second drops and shreds, the third leaves its
/// three tier records in the log) and a tail no commit covers. Returns what the live store reported at the end.
/// The snapshot was rewritten once since, when the run bitmap codec
/// arrived: the rotten block 1 recompresses to runbits instead of rle,
/// and the log kept its bytes.
fn drive_store_history(dir: &std::path::Path) -> amnesia::core::metrics::MetricsSnapshot {
    let rows = |r: std::ops::Range<u64>| r.map(RowId).collect::<Vec<_>>();
    let table = Table::with_block_rows(Schema::single("a"), 1024);
    let pt = PersistentTable::create_with_table(StdVfs::shared(), dir, table, SyncPolicy::PerBatch)
        .unwrap();
    let (table, log) = pt.into_parts();
    let mut store = AmnesiacStore::from_table(table, ForgetMode::MarkOnly)
        .with_durability(Box::new(log))
        .with_tiering(amnesia::core::TierConfig {
            hot_rows: 0,
            recompress_below: 0.5,
        });
    let values: Vec<i64> = (0..4096).map(|i| i / 3 + i * 7 % 11).collect();
    store.insert_batch(&values, 0).unwrap();
    store.insert_batch(&[-5, 40_000, 17], 0).unwrap();
    store.forget(RowId(4097), 0).unwrap();
    store.end_batch().unwrap();
    store.forget_batch(&rows(0..1024), 1).unwrap();
    let mut rot: Vec<RowId> = rows(1024..2048)
        .into_iter()
        .filter(|r| r.0 % 4 != 0)
        .collect();
    rot.push(RowId(1025)); // a repeat is a no-op, but is logged as named
    store.forget_batch(&rot, 1).unwrap();
    store.end_batch().unwrap();
    store
        .forget_batch(&[RowId(2050), RowId(2051), RowId(4098)], 2)
        .unwrap();
    assert_eq!(store.forget_block(2, 2).unwrap(), 1022);
    store
        .insert_batch(&(0..1021).map(|i| 5000 - i).collect::<Vec<i64>>(), 3)
        .unwrap();
    store.forget_batch(&[RowId(4500), RowId(4099)], 3).unwrap();
    store.end_batch().unwrap();
    store.insert_batch(&[7, 8, 9], 4).unwrap();
    store.forget(RowId(3100), 4).unwrap();
    store
        .forget_batch(&[RowId(3101), RowId(3102), RowId(3200)], 4)
        .unwrap();
    store.metrics_snapshot()
}

const STORE_DIR_FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/store_dir");

/// The write path logs, syncs and snapshots exactly what it did before it
/// was shared: the history above leaves the parent-written directory,
/// file for file and byte for byte, and that directory recovers to the
/// state the live store reported.
#[test]
fn store_directory_fixture_is_reproduced_byte_for_byte() {
    let dir = tmp_dir("store-dir");
    let live = drive_store_history(&dir);
    let names = |files: Vec<(PathBuf, Vec<u8>)>| {
        let mut v: Vec<(String, Vec<u8>)> = files
            .into_iter()
            .map(|(p, b)| (p.file_name().unwrap().to_str().unwrap().to_owned(), b))
            .collect();
        v.sort();
        v
    };
    let want = names(dir_files(std::path::Path::new(STORE_DIR_FIXTURE)));
    let got = names(dir_files(&dir));
    assert_eq!(
        got.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "same files"
    );
    for ((name, got), (_, want)) in got.iter().zip(&want) {
        assert!(got == want, "{name} differs from the fixture");
    }
    // Recover from a copy (an open repairs and appends in place).
    for (name, bytes) in &want {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let rec = PersistentTable::open(&dir).unwrap();
    assert!(rec.recovered_clean());
    let mut recovered = amnesia::core::metrics::MetricsSnapshot::from_table(
        rec.table(),
        rec.blocks_dropped(),
        rec.blocks_recompressed(),
    );
    assert_eq!((live.blocks_dropped, live.blocks_recompressed), (2, 1));
    assert_eq!((live.total_rows, live.active_rows), (5123, 2299));
    // Heap accounting follows allocation history, which a rebuild
    // legitimately differs on; everything logical matches exactly.
    let drift = (recovered.resident_bytes as f64 - live.resident_bytes as f64).abs()
        / live.resident_bytes as f64;
    assert!(drift < 0.02, "resident bytes drift {drift}");
    recovered.resident_bytes = live.resident_bytes;
    recovered.compression_ratio = live.compression_ratio;
    assert_eq!(recovered, live);
    std::fs::remove_dir_all(&dir).ok();
}

/// The shared sequence, observed from outside: the same inserts and
/// forgets through `PersistentTable`'s mutators and through a durable
/// store leave identical segment bytes.
#[test]
fn persistent_table_and_durable_store_log_the_same_bytes() {
    let create = |tag| {
        let dir = tmp_dir(tag);
        let pt = PersistentTable::create_with(
            StdVfs::shared(),
            &dir,
            Schema::single("a"),
            SyncPolicy::PerBatch,
        )
        .unwrap();
        (dir, pt)
    };
    let big: Vec<i64> = (0..300).map(|i| i * i % 97).collect();
    let victims = [RowId(5), RowId(6), RowId(7), RowId(250), RowId(6), RowId(2)];

    let (pt_dir, mut pt) = create("same-bytes-pt");
    pt.insert_batch(&big, 0).unwrap();
    pt.insert_batch(&[1, -2, 3], 1).unwrap();
    pt.forget(RowId(301), 1).unwrap();
    assert_eq!(pt.forget_batch(&victims, 2).unwrap(), 5);
    pt.sync().unwrap();

    let (store_dir, other) = create("same-bytes-store");
    let (table, log) = other.into_parts();
    let mut store =
        AmnesiacStore::from_table(table, ForgetMode::MarkOnly).with_durability(Box::new(log));
    store.insert_batch(&big, 0).unwrap();
    store.insert_batch(&[1, -2, 3], 1).unwrap();
    store.forget(RowId(301), 1).unwrap();
    store.forget_batch(&victims, 2).unwrap();
    store.end_batch().unwrap();
    assert_eq!(store.total_forgotten(), 6);

    let segment = |dir: &std::path::Path| {
        let mut segs = dir_files(dir);
        segs.retain(|(p, _)| p.extension().is_some_and(|e| e == "seg"));
        assert_eq!(segs.len(), 1, "one live segment");
        segs.pop().unwrap()
    };
    let ((pt_seg, pt_bytes), (store_seg, store_bytes)) = (segment(&pt_dir), segment(&store_dir));
    assert_eq!(pt_seg.file_name(), store_seg.file_name());
    assert!(pt_bytes.len() > 300, "{} bytes logged", pt_bytes.len());
    assert!(pt_bytes == store_bytes, "segment bytes");
    assert!(tables_equal(pt.table(), store.table()));
    std::fs::remove_dir_all(&pt_dir).ok();
    std::fs::remove_dir_all(&store_dir).ok();
}
