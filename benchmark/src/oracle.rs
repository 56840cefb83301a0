//! The correctness oracle: a dense mirror of everything the benchmark
//! inserted and forgot, kept by the benchmark itself, and row-at-a-time
//! reference answers computed from it. The mirror shares no code with the
//! storage tiers, codecs or vectorized kernels it checks; it is tied back
//! to the table by [`Mirror::matches_table`] (`iter_active` +
//! `Table::value`).

use std::collections::BTreeMap;

use amnesia_columnar::{RowId, Table};
use amnesia_engine::physical::finalize_scalar;
use amnesia_engine::{AggState, Scalar};
use amnesia_workload::query::{AggKind, RangePredicate};

use crate::gen::{Roles, Stmt};

/// Dense copy of `t` (and `d`) maintained beside the system under test.
#[derive(Debug, Clone, Default)]
pub struct Mirror {
    cols: Vec<Vec<i64>>,
    active: Vec<bool>,
    active_count: usize,
    dim: BTreeMap<i64, i64>,
}

impl Mirror {
    /// An empty mirror of a `ncols`-column table and dimension `dim`.
    pub fn new(ncols: usize, dim: &[(i64, i64)]) -> Self {
        Self {
            cols: vec![Vec::new(); ncols],
            active: Vec::new(),
            active_count: 0,
            dim: dim.iter().copied().collect(),
        }
    }

    /// Append column-major rows, all active.
    pub fn append(&mut self, cols: &[Vec<i64>]) {
        let n = cols[0].len();
        for (mine, new) in self.cols.iter_mut().zip(cols) {
            mine.extend_from_slice(new);
        }
        self.active.resize(self.active.len() + n, true);
        self.active_count += n;
    }

    /// Mark rows forgotten.
    pub fn forget(&mut self, rows: &[RowId]) {
        for r in rows {
            if std::mem::replace(&mut self.active[r.as_usize()], false) {
                self.active_count -= 1;
            }
        }
    }

    /// Physical rows.
    pub fn num_rows(&self) -> usize {
        self.active.len()
    }

    /// Active rows.
    pub fn active_rows(&self) -> usize {
        self.active_count
    }

    fn active_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
    }

    /// Reference for `Query::Range` over column 0: matching active rows,
    /// ascending.
    pub fn range(&self, p: RangePredicate) -> Vec<RowId> {
        self.active_iter()
            .filter(|&i| p.matches(self.cols[0][i]))
            .map(RowId::from)
            .collect()
    }

    /// Reference for `Query::Aggregate { Avg }` over column 0.
    pub fn avg(&self, p: RangePredicate) -> Option<f64> {
        let mut st = AggState::new();
        for i in self.active_iter() {
            let v = self.cols[0][i];
            if p.matches(v) {
                st.push(v);
            }
        }
        st.finalize(AggKind::Avg)
    }

    /// Reference answer to a SQL statement, one row at a time.
    pub fn answer(&self, stmt: &Stmt, roles: Roles) -> Vec<Vec<Scalar>> {
        let (k, a, b, u) = (
            &self.cols[roles.k],
            &self.cols[roles.a],
            &self.cols[roles.b],
            &self.cols[roles.u],
        );
        match *stmt {
            Stmt::Grouped { a_lo, a_hi, b_gt } => {
                // Groups in first-seen row order, then a stable sort: the
                // tie-break the engine's sort documents.
                let mut index: BTreeMap<i64, usize> = BTreeMap::new();
                let mut groups: Vec<(i64, AggState)> = Vec::new();
                for i in self.active_iter() {
                    if (a_lo..=a_hi).contains(&a[i]) && b[i] > b_gt {
                        let slot = *index.entry(k[i]).or_insert_with(|| {
                            groups.push((k[i], AggState::new()));
                            groups.len() - 1
                        });
                        groups[slot].1.push(a[i]);
                    }
                }
                let mut rows: Vec<Vec<Scalar>> = groups
                    .iter()
                    .map(|(key, st)| {
                        vec![
                            Scalar::Int(*key),
                            finalize_scalar(st, AggKind::Count),
                            finalize_scalar(st, AggKind::Sum),
                            finalize_scalar(st, AggKind::Avg),
                        ]
                    })
                    .collect();
                rows.sort_by(|x, y| y[2].total_cmp(&x[2]));
                rows.truncate(10);
                rows
            }
            Stmt::Global { b_gt } => {
                let mut st = AggState::new();
                for i in self.active_iter() {
                    if b[i] > b_gt {
                        st.push(a[i]);
                    }
                }
                vec![[
                    AggKind::Count,
                    AggKind::Sum,
                    AggKind::Avg,
                    AggKind::Min,
                    AggKind::Max,
                ]
                .iter()
                .map(|&kind| finalize_scalar(&st, kind))
                .collect()]
            }
            Stmt::Scatter { u_lo, u_hi, b_gt } => {
                let mut st = AggState::new();
                for i in self.active_iter() {
                    if (u_lo..=u_hi).contains(&u[i]) && b[i] > b_gt {
                        st.push(a[i]);
                    }
                }
                vec![vec![
                    finalize_scalar(&st, AggKind::Count),
                    finalize_scalar(&st, AggKind::Sum),
                ]]
            }
            Stmt::Project { a_lo, a_hi } => {
                let mut hits: Vec<usize> = self
                    .active_iter()
                    .filter(|&i| (a_lo..=a_hi).contains(&a[i]))
                    .collect();
                hits.sort_by_key(|&i| a[i]);
                hits.truncate(100);
                hits.into_iter()
                    .map(|i| {
                        if roles.k == roles.a {
                            vec![Scalar::Int(a[i])]
                        } else {
                            vec![Scalar::Int(k[i]), Scalar::Int(a[i])]
                        }
                    })
                    .collect()
            }
            Stmt::Join { a_lo, a_hi } => {
                let mut regions: BTreeMap<i64, AggState> = BTreeMap::new();
                for i in self.active_iter() {
                    if (a_lo..=a_hi).contains(&a[i]) {
                        if let Some(&region) = self.dim.get(&k[i]) {
                            regions.entry(region).or_default().push(a[i]);
                        }
                    }
                }
                regions
                    .iter()
                    .map(|(region, st)| {
                        vec![
                            Scalar::Int(*region),
                            finalize_scalar(st, AggKind::Count),
                            finalize_scalar(st, AggKind::Sum),
                        ]
                    })
                    .collect()
            }
        }
    }

    /// Does `table` hold exactly this mirror's rows — same physical count,
    /// same active set, same value in every column of every active row?
    /// Walks `iter_active` + `Table::value`, sampling one active row in
    /// `stride` for the values (activity is compared in full).
    pub fn matches_table(&self, table: &Table, stride: usize) -> bool {
        if table.num_rows() != self.num_rows() || table.active_rows() != self.active_rows() {
            return false;
        }
        for (n, r) in table.iter_active().enumerate() {
            let i = r.as_usize();
            if !self.active[i] {
                return false;
            }
            if n % stride.max(1) == 0 {
                for (c, col) in self.cols.iter().enumerate() {
                    if table.value(c, r) != col[i] {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Is `recovered` the mirror's state plus, at most, a prefix of the
    /// unacknowledged tail? Every acknowledged row must be present with
    /// its value, no row forgotten before the acknowledgement may be
    /// active, and surviving tail inserts must carry the tail's values.
    pub fn is_prefix_of(&self, recovered: &Table, tail: &[i64], stride: usize) -> bool {
        let acked = self.num_rows();
        if recovered.num_rows() < acked || recovered.num_rows() > acked + tail.len() {
            return false;
        }
        for (n, r) in recovered.iter_active().enumerate() {
            let i = r.as_usize();
            if i < acked {
                if !self.active[i] {
                    return false;
                }
                if n % stride.max(1) == 0 {
                    for (c, col) in self.cols.iter().enumerate() {
                        if recovered.value(c, r) != col[i] {
                            return false;
                        }
                    }
                }
            } else if recovered.value(0, r) != tail[i - acked] {
                return false;
            }
        }
        // Tail forgets may have survived, so the recovered active count can
        // fall short of the acknowledged one by at most the tail's forgets
        // — the caller checks that bound; here: never more active rows
        // than acknowledged plus surviving tail inserts.
        recovered.active_rows() <= self.active_rows() + (recovered.num_rows() - acked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mirror() -> Mirror {
        let mut m = Mirror::new(2, &[(1, 10), (2, 20)]);
        m.append(&[vec![1, 2, 1, 3], vec![5, 6, 7, 8]]);
        m.forget(&[RowId(1)]);
        m
    }

    #[test]
    fn store_references_skip_forgotten_rows() {
        let m = mirror();
        assert_eq!(m.active_rows(), 3);
        assert_eq!(
            m.range(RangePredicate::new(1, 3)),
            vec![RowId(0), RowId(2)],
            "row 1 (value 2) is forgotten"
        );
        assert_eq!(m.avg(RangePredicate::new(0, 10)), Some(5.0 / 3.0));
        assert_eq!(m.avg(RangePredicate::new(50, 60)), None);
    }

    #[test]
    fn join_reference_groups_by_region_and_drops_unmatched_keys() {
        let m = mirror();
        let roles = Roles {
            k: 0,
            a: 1,
            b: 1,
            u: 1,
        };
        let rows = m.answer(&Stmt::Join { a_lo: 0, a_hi: 100 }, roles);
        // Keys 1, 1 join region 10; key 3 has no dimension row.
        assert_eq!(
            rows,
            vec![vec![Scalar::Int(10), Scalar::Int(2), Scalar::Int(12)]]
        );
    }
}
