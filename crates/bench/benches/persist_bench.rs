//! Durability microbenchmarks: snapshot encode/decode throughput across
//! data distributions (compression choice dominates), append and
//! recovery rates of the segmented CRC-framed log, the batch-granular
//! records and the checkpoint of a sliding-window history and its restore
//! (`snapshot/encode_fifo_history` and `snapshot/decode_fifo_history` gate
//! CI, `.github/bench_compare.py`), and end-to-end recovery time for a
//! tiered store.

use std::hint::black_box;
use std::time::Duration;

use amnesia_columnar::persist::{
    recover_segments, snapshot, PersistentTable, SegmentedWal, StdVfs, SyncPolicy, WalRecord,
    DEFAULT_SEGMENT_BYTES,
};
use amnesia_columnar::{RowId, Schema, Table};
use amnesia_distrib::DistributionKind;
use amnesia_util::SimRng;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn table_with(dist: &DistributionKind, n: usize) -> Table {
    let mut rng = SimRng::new(17);
    let mut d = dist.build(100_000, 17);
    let values: Vec<i64> = (0..n).map(|_| d.sample(&mut rng)).collect();
    let mut t = Table::new(Schema::single("a"));
    t.insert_batch(&values, 0).unwrap();
    for _ in 0..n / 5 {
        if let Some(r) = t.random_active(&mut rng) {
            t.forget(r, 1).unwrap();
        }
    }
    t
}

fn persist(c: &mut Criterion) {
    let n = 50_000usize;

    let mut enc = c.benchmark_group("persist/snapshot_encode");
    enc.throughput(Throughput::Elements(n as u64));
    for dist in DistributionKind::paper_set() {
        let t = table_with(&dist, n);
        enc.bench_with_input(BenchmarkId::from_parameter(dist.name()), &t, |b, t| {
            b.iter(|| black_box(snapshot::encode(black_box(t))))
        });
    }
    enc.finish();

    let mut dec = c.benchmark_group("persist/snapshot_decode");
    dec.throughput(Throughput::Elements(n as u64));
    for dist in DistributionKind::paper_set() {
        let bytes = snapshot::encode(&table_with(&dist, n));
        dec.bench_with_input(
            BenchmarkId::from_parameter(dist.name()),
            &bytes,
            |b, bytes| b.iter(|| black_box(snapshot::decode(black_box(bytes)).unwrap())),
        );
    }
    dec.finish();

    let dir = std::env::temp_dir().join(format!("amn-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Segmented WAL: append rate through the VFS seam with CRC framing,
    // rotation, and codec-compressed columnar inserts (no fsync — this
    // measures the encode + write path, not the disk).
    let mut group = c.benchmark_group("persist/segmented_wal");
    group.throughput(Throughput::Elements(1));
    group.bench_function("append_insert", |b| {
        let seg_dir = dir.join("seg-append");
        let _ = std::fs::remove_dir_all(&seg_dir);
        let mut wal = SegmentedWal::create(StdVfs::shared(), &seg_dir, 0).unwrap();
        let rec = WalRecord::Insert {
            epoch: 3,
            rows: vec![vec![42, -7]],
        };
        b.iter(|| wal.append(black_box(&rec), 3).unwrap())
    });
    group.bench_function("append_columnar_64", |b| {
        let seg_dir = dir.join("seg-append-col");
        let _ = std::fs::remove_dir_all(&seg_dir);
        let mut wal = SegmentedWal::create(StdVfs::shared(), &seg_dir, 0).unwrap();
        let rows: Vec<Vec<i64>> = (0..64).map(|i| vec![i, i * 3]).collect();
        let rec = WalRecord::Insert { epoch: 3, rows };
        b.iter(|| wal.append(black_box(&rec), 3).unwrap())
    });
    group.finish();

    // The amnesia loop's two batch records, 20 000 rows each, through the
    // segmented log (no fsync): a FIFO victim batch is one run, a uniform
    // one is a run per row; the insert is one codec-compressed column.
    let mut group = c.benchmark_group("wal");
    group.throughput(Throughput::Elements(20_000));
    let contiguous: Vec<RowId> = (1_000_000..1_020_000).map(RowId).collect();
    let mut rng = SimRng::new(23);
    let scattered: Vec<RowId> = (0..20_000)
        .map(|_| RowId(rng.next_u64() % 1_000_000))
        .collect();
    for (name, victims) in [("contiguous", &contiguous), ("scattered", &scattered)] {
        group.bench_function(format!("append_forget_batch_20k/{name}"), |b| {
            let seg_dir = dir.join(format!("seg-forget-{name}"));
            let _ = std::fs::remove_dir_all(&seg_dir);
            let mut wal = SegmentedWal::create(StdVfs::shared(), &seg_dir, 0).unwrap();
            b.iter(|| {
                let rec = WalRecord::forget_rows(3, black_box(victims));
                wal.append(&rec, 3).unwrap()
            })
        });
    }
    group.bench_function("append_insert_column_20k", |b| {
        let seg_dir = dir.join("seg-insert-column");
        let _ = std::fs::remove_dir_all(&seg_dir);
        let mut wal = SegmentedWal::create(StdVfs::shared(), &seg_dir, 0).unwrap();
        let values: Vec<i64> = (0..20_000).map(|i| i / 100 + i * 31 % 50).collect();
        b.iter(|| {
            let rec = WalRecord::InsertColumn {
                epoch: 3,
                values: black_box(&values).clone(),
            };
            wal.append(&rec, 3).unwrap()
        })
    });
    group.finish();

    // What a drop's checkpoint encodes once a sliding window has history:
    // 1M live rows behind 1M forgotten ones whose blocks were dropped.
    // The snapshot must cost the live rows, not the history.
    let mut t = Table::new(Schema::single("a"));
    for batch in 0..100i64 {
        let base = batch * 20_000;
        let values: Vec<i64> = (base..base + 20_000)
            .map(|i| i / 100 + i * 31 % 50)
            .collect();
        t.insert_batch(&values, batch as u64).unwrap();
        if batch >= 50 {
            for r in (base - 1_000_000)..(base - 980_000) {
                t.forget(RowId(r as u64), batch as u64).unwrap();
            }
        }
    }
    t.freeze_upto(t.num_rows() - 4_096);
    t.drop_forgotten_blocks();
    let snap = snapshot::encode(&t);
    println!(
        "snapshot/encode_fifo_history: {} bytes for {} live + {} dropped rows",
        snap.len(),
        t.active_rows(),
        t.dropped_rows()
    );
    let mut group = c.benchmark_group("snapshot");
    group.throughput(Throughput::Bytes(snap.len() as u64));
    group.bench_function("encode_fifo_history", |b| {
        b.iter(|| black_box(snapshot::encode(black_box(&t))))
    });
    // The restore half of recovery: the dropped history arrives as runs
    // and must land as runs, so this too costs the live rows.
    group.bench_function("decode_fifo_history", |b| {
        b.iter(|| black_box(snapshot::decode(black_box(&snap)).unwrap()))
    });
    group.finish();
    drop(t);

    // Segment recovery: scan + CRC-validate + decode a 10k-record
    // multi-segment log back into records.
    let seg_dir = dir.join("seg-replay");
    let _ = std::fs::remove_dir_all(&seg_dir);
    let mut wal = SegmentedWal::create(StdVfs::shared(), &seg_dir, 0).unwrap();
    for i in 0..10_000u64 {
        let rec = if i % 4 == 3 {
            WalRecord::Forget {
                epoch: i,
                row: RowId(i),
            }
        } else {
            WalRecord::Insert {
                epoch: i,
                rows: vec![vec![i as i64]],
            }
        };
        wal.append(&rec, i).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let mut group = c.benchmark_group("persist/segment_recovery");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("10k_records", |b| {
        b.iter(|| {
            let rec = recover_segments(
                StdVfs::shared(),
                black_box(&seg_dir),
                0,
                DEFAULT_SEGMENT_BYTES,
            )
            .unwrap();
            assert!(rec.clean);
            black_box(rec.records.len())
        })
    });
    group.finish();

    // End-to-end recovery time: `PersistentTable::open` over a store
    // with a snapshot, tier transitions, and a live WAL tail.
    let pt_dir = dir.join("pt-recover");
    let _ = std::fs::remove_dir_all(&pt_dir);
    {
        let mut pt = PersistentTable::create_with(
            StdVfs::shared(),
            &pt_dir,
            Schema::single("a"),
            SyncPolicy::PerBatch,
        )
        .unwrap();
        let values: Vec<i64> = (0..20_000).collect();
        pt.insert_batch(&values, 0).unwrap();
        for r in 0..4_000u64 {
            pt.forget(RowId(r), 1).unwrap();
        }
        pt.freeze_upto(16_384).unwrap();
        pt.drop_forgotten_blocks().unwrap();
        pt.checkpoint().unwrap();
        let tail: Vec<i64> = (0..2_000).collect();
        pt.insert_batch(&tail, 2).unwrap();
        pt.sync().unwrap();
    }
    let mut group = c.benchmark_group("persist/recovery");
    group.throughput(Throughput::Elements(22_000));
    group.bench_function("open_20k_tiered", |b| {
        b.iter(|| {
            let pt = PersistentTable::open(black_box(&pt_dir)).unwrap();
            black_box(pt.table().num_rows())
        })
    });
    group.finish();

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets = persist
}
criterion_main!(benches);
