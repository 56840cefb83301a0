//! Keys a weak integer hash would cluster — `i64::MIN`/`MAX`, multiples
//! of 2^32, 2^48 strides, 64 k sequential values — through the group-by
//! and the hash join, checked against `BTreeMap` references: every group
//! and every pair present, groups in first-seen row order, pairs in probe
//! order, on hot and frozen tables.

use std::collections::BTreeMap;

use amnesia::columnar::{RowId, Schema, Table, Value};
use amnesia::engine::group::grouped_fold;
use amnesia::engine::join::hash_join;
use amnesia::engine::ForgetVisibility;

/// The hostile key families, interleaved so first-seen order is neither
/// sorted nor one family after another, each key repeated a few times.
fn hostile_keys() -> Vec<Value> {
    let edges = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let families: [Vec<Value>; 4] = [
        edges.to_vec(),
        (-2_048..2_048).map(|i| i << 32).collect(),
        (0..1 << 16).map(|i: i64| i << 48).collect(),
        (0..1 << 16).collect(),
    ];
    let longest = families.iter().map(Vec::len).max().unwrap_or(0);
    let mut keys = Vec::new();
    for i in 0..longest {
        for family in &families {
            // Walk each family from both ends; repeat every 5th key.
            if let Some(&k) = family.get(i) {
                keys.push(k);
                if i % 5 == 0 {
                    keys.push(family[family.len() - 1 - i]);
                }
            }
        }
    }
    keys
}

/// k(key), v = row number; every 11th row forgotten; frozen: every full
/// block compressed.
fn keyed(keys: &[Value], frozen: bool) -> Table {
    let mut t = Table::new(Schema::new(vec!["k", "v"]));
    for (i, &k) in keys.iter().enumerate() {
        t.insert(&[k, i as i64], 0).unwrap();
    }
    for r in (0..keys.len() as u64).step_by(11) {
        t.forget(RowId(r), 1).unwrap();
    }
    if frozen {
        t.freeze_upto((keys.len() / t.block_rows()) * t.block_rows());
        assert!(t.has_frozen());
    }
    t
}

#[test]
fn group_by_keeps_every_hostile_key_in_first_seen_order() {
    let keys = hostile_keys();
    for frozen in [false, true] {
        let t = keyed(&keys, frozen);
        let groups = grouped_fold(&t, t.activity_words(), 0, &[None, Some(1)]);
        // Reference: key → (first active row, count, sum of v).
        let mut want: BTreeMap<Value, (usize, u64, i128)> = BTreeMap::new();
        for r in t.iter_active() {
            let e = want.entry(t.value(0, r)).or_insert((r.as_usize(), 0, 0));
            e.1 += 1;
            e.2 += i128::from(t.value(1, r));
        }
        let mut first_seen: Vec<(usize, Value)> =
            want.iter().map(|(&k, &(first, ..))| (first, k)).collect();
        first_seen.sort_unstable();
        let order: Vec<Value> = first_seen.into_iter().map(|(_, k)| k).collect();
        assert_eq!(groups.keys(), order, "frozen={frozen}: first-seen order");
        for (g, k) in order.iter().enumerate() {
            let (_, count, sum) = want[k];
            let states = groups.group_states(g);
            assert_eq!(states[0].count(), count, "key {k}");
            assert_eq!(states[1].sum(), sum, "key {k}");
        }
    }
}

#[test]
fn hash_join_pairs_every_hostile_key() {
    let keys = hostile_keys();
    // The probe side: every 3rd key, reversed, plus keys no build row has.
    let probe_keys: Vec<Value> = keys
        .iter()
        .rev()
        .step_by(3)
        .copied()
        .chain([7 << 32 | 1, (1 << 48) + 1, -(1 << 62)])
        .collect();
    for frozen in [false, true] {
        let (build, probe) = (keyed(&keys, frozen), keyed(&probe_keys, frozen));
        for vis in [
            ForgetVisibility::ActiveOnly,
            ForgetVisibility::ScanSeesForgotten,
        ] {
            let sees = |t: &Table, r: usize| {
                vis == ForgetVisibility::ScanSeesForgotten || t.activity().is_active(RowId::from(r))
            };
            let mut rows_of: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
            for (r, &k) in keys.iter().enumerate() {
                if sees(&build, r) {
                    rows_of.entry(k).or_default().push(RowId::from(r));
                }
            }
            let mut want = Vec::new();
            for (r, k) in probe_keys.iter().enumerate() {
                if let Some(ls) = rows_of.get(k).filter(|_| sees(&probe, r)) {
                    want.extend(ls.iter().map(|&l| (l, RowId::from(r))));
                }
            }
            assert!(!want.is_empty());
            let got = hash_join(&build, 0, &probe, 0, vis);
            assert_eq!(got.pairs, want, "frozen={frozen}, {vis:?}");
        }
    }
}
