//! Per-row metadata sized by what is resident.
//!
//! A [`Paged`] is a logical `Vec<T>` over every row ever inserted that
//! only *holds* the pages somebody wrote to. Pages are aligned with the
//! tier blocks (`page_rows == Table::block_rows`), so a block's metadata
//! lives and dies with the block. A page is held in one of four forms:
//!
//! * **absent** — nothing was ever written (or the page was
//!   [freed](Paged::free)): every row reads as the default, and writing
//!   the default allocates nothing;
//! * **dense** — `page_rows` entries, allocated by the first non-default
//!   write to a [`Paged::new`] container;
//! * **coded** — a byte per row indexing a dictionary of the page's
//!   distinct values (code 0 is the default), what the first non-default
//!   write to a [`Paged::coded`] container allocates. A value the page has
//!   not seen is appended to the dictionary (stale ones stay); the write
//!   that would make the 257th entry turns the page dense;
//! * **sealed** — run-coded `(first offset, value)` pairs covering the
//!   whole page, what [`Paged::seal`] leaves of a page whose block was
//!   dropped. A block forgotten in one batch seals to a single pair, and
//!   its rows still read back.
//!
//! Death epochs ([`ActivityMap`](crate::activity::ActivityMap)) are coded:
//! each row is written once and a block's rows die in a few epochs, so a
//! page costs a byte per row instead of eight. The access statistics
//! ([`AccessStats`](crate::access::AccessStats)) stay dense: every touch
//! rewrites a row, a decay rewrites every value, and frequencies take many
//! distinct values; coding them too made `repro all --scale paper` 11 %
//! slower in the median of 10 alternating pairs (1 of 10 faster), while
//! coding the death epochs alone was neutral (7 of 10 faster than dense).
//! [`EpochRuns`] holds the insert epochs, which are runs from the start
//! (one per batch).

use serde::{Deserialize, Serialize};

use crate::types::{Epoch, RowId};

/// How many directory slots the directory grows by at a time, so its
/// capacity depends on the row count alone, not on how it was reached.
const DIRECTORY_CHUNK: usize = 64;

/// Most values a coded page tells apart: one per code.
const CODES: usize = 1 << u8::BITS;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Slot<T> {
    Absent,
    Dense(Box<[T]>),
    /// Boxed, so a slot stays three words like the others.
    Coded(Box<Coded<T>>),
    Sealed(Box<[(usize, T)]>),
}

/// A page as a byte per row into its distinct values.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Coded<T> {
    /// Every value written since the page was made, in order of first
    /// write, after the container's default at code 0.
    values: Vec<T>,
    codes: Box<[u8]>,
}

impl<T: Copy + PartialEq> Coded<T> {
    fn new(page_rows: usize, default: T) -> Self {
        Self {
            values: vec![default],
            codes: vec![0; page_rows].into(),
        }
    }

    #[inline]
    fn get(&self, off: usize) -> T {
        self.values[usize::from(self.codes[off])]
    }

    /// The code of `value`, appended to the dictionary if it is new;
    /// `None` when the dictionary is full. Searched from the newest entry:
    /// a page is mostly written the value it was last written.
    fn code_of(&mut self, value: T) -> Option<u8> {
        let code = match self.values.iter().rposition(|&v| v == value) {
            Some(code) => code,
            None if self.values.len() < CODES => {
                self.values.push(value);
                self.values.len() - 1
            }
            None => return None,
        };
        u8::try_from(code).ok()
    }

    fn to_dense(&self) -> Box<[T]> {
        self.codes
            .iter()
            .map(|&c| self.values[usize::from(c)])
            .collect()
    }

    /// The runs of equal codes, as `(first offset, value)`.
    fn runs(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        runs_of(&self.codes, |&c| self.values[usize::from(c)])
    }

    fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<T>()
            + self.codes.len()
    }
}

/// A paged per-row container (module docs) whose pages materialise coded
/// if `CODED`, dense otherwise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Paged<T, const CODED: bool = false> {
    page_rows: usize,
    default: T,
    slots: Vec<Slot<T>>,
}

/// Value of offset `off` in a run-coded page.
fn run_value<T: Copy>(runs: &[(usize, T)], off: usize) -> T {
    runs[runs.partition_point(|&(start, _)| start <= off) - 1].1
}

/// The maximal runs of equal entries of a page as `(first offset, value
/// of the entry)`.
fn runs_of<'a, E: PartialEq, T>(
    entries: &'a [E],
    value: impl Fn(&E) -> T + 'a,
) -> impl Iterator<Item = (usize, T)> + 'a {
    let mut start = 0;
    entries.chunk_by(|a, b| a == b).map(move |run| {
        let first = start;
        start += run.len();
        (first, value(&run[0]))
    })
}

impl<T: Copy + PartialEq> Paged<T> {
    /// Empty container whose pages materialise dense: every row reads as
    /// `default`.
    pub fn new(page_rows: usize, default: T) -> Self {
        Self::empty(page_rows, default)
    }
}

impl<T: Copy + PartialEq> Paged<T, true> {
    /// Empty container whose pages materialise coded (module docs), for
    /// values written once per row that a page holds few of.
    pub fn coded(page_rows: usize, default: T) -> Self {
        Self::empty(page_rows, default)
    }
}

impl<T: Copy + PartialEq, const CODED: bool> Paged<T, CODED> {
    fn empty(page_rows: usize, default: T) -> Self {
        assert!(page_rows > 0, "page size must be positive");
        Self {
            page_rows,
            default,
            slots: Vec::new(),
        }
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Value of row `i` (the default for rows nobody wrote).
    #[inline]
    pub fn get(&self, i: usize) -> T {
        match self.slots.get(i / self.page_rows) {
            None | Some(Slot::Absent) => self.default,
            Some(Slot::Dense(page)) => page[i % self.page_rows],
            Some(Slot::Coded(page)) => page.get(i % self.page_rows),
            Some(Slot::Sealed(runs)) => run_value(runs, i % self.page_rows),
        }
    }

    /// Set row `i`.
    #[inline]
    pub fn set(&mut self, i: usize, value: T) {
        self.fill(i, i + 1, value);
    }

    /// Set every row in `[lo, hi)`.
    pub fn fill(&mut self, lo: usize, hi: usize, value: T) {
        let mut at = lo;
        while at < hi {
            let page = at / self.page_rows;
            let end = hi.min((page + 1) * self.page_rows);
            self.fill_in_page(
                page,
                at % self.page_rows,
                end - page * self.page_rows,
                value,
            );
            at = end;
        }
    }

    /// Set offsets `[a, b)` of one page, in whatever form the page is held.
    fn fill_in_page(&mut self, page: usize, a: usize, b: usize, value: T) {
        if matches!(self.slots.get(page), None | Some(Slot::Absent)) {
            if value == self.default {
                return;
            }
            self.grow_directory(page + 1);
            self.slots[page] = if CODED {
                Slot::Coded(Box::new(Coded::new(self.page_rows, self.default)))
            } else {
                Slot::Dense(vec![self.default; self.page_rows].into())
            };
        }
        let slot = &mut self.slots[page];
        if let Slot::Coded(coded) = slot {
            match coded.code_of(value) {
                Some(code) => return coded.codes[a..b].fill(code),
                // It would be the 257th entry: the page goes dense for good.
                None => *slot = Slot::Dense(coded.to_dense()),
            }
        }
        match slot {
            Slot::Absent | Slot::Coded(_) => unreachable!("materialised or expanded above"),
            Slot::Dense(entries) => entries[a..b].fill(value),
            Slot::Sealed(sealed) => {
                // Runs that start inside [a, b] go; the value that held at
                // `b` resumes there.
                let mut runs = std::mem::take(sealed).into_vec();
                let resume = (b < self.page_rows).then(|| (b, run_value(&runs, b)));
                let first = runs.partition_point(|&(start, _)| start < a);
                let last = runs.partition_point(|&(start, _)| start <= b);
                runs.splice(first..last, std::iter::once((a, value)).chain(resume));
                runs.dedup_by(|next, prev| next.1 == prev.1);
                *sealed = runs.into();
            }
        }
    }

    /// Set each `(lo, hi, value)` of `runs` — ascending, disjoint, all
    /// inside page `page` — what [`Self::fill`] does run by run, with the
    /// page looked up and materialised once: a coded page codes each run's
    /// value (reusing the last run's code when it repeats) and fills its
    /// codes, a sealed page is expanded, filled and sealed again.
    pub(crate) fn fill_page_runs(&mut self, page: usize, runs: &[(usize, usize, T)]) {
        let base = page * self.page_rows;
        let Some((&(lo, hi, value), rest)) = runs.split_first() else {
            return;
        };
        // Materialises the page as the run-by-run fill would.
        self.fill_in_page(page, lo - base, hi - base, value);
        match self.slots.get_mut(page) {
            None | Some(Slot::Absent) => {
                // Only default values so far: each stays a no-op or
                // materialises the page.
                for &(lo, hi, value) in rest {
                    self.fill_in_page(page, lo - base, hi - base, value);
                }
            }
            Some(Slot::Dense(entries)) => {
                for &(lo, hi, value) in rest {
                    entries[lo - base..hi - base].fill(value);
                }
            }
            Some(Slot::Coded(coded)) => {
                let mut last: Option<(T, u8)> = None;
                for (i, &(lo, hi, value)) in rest.iter().enumerate() {
                    let code = match last {
                        Some((v, code)) if v == value => code,
                        _ => match coded.code_of(value) {
                            Some(code) => code,
                            None => {
                                // A 257th value: the page goes dense the
                                // way a single fill turns it.
                                for &(lo, hi, value) in &rest[i..] {
                                    self.fill_in_page(page, lo - base, hi - base, value);
                                }
                                return;
                            }
                        },
                    };
                    last = Some((value, code));
                    coded.codes[lo - base..hi - base].fill(code);
                }
            }
            Some(Slot::Sealed(sealed)) => {
                let mut entries = vec![self.default; self.page_rows];
                let ends = sealed.iter().skip(1).map(|&(start, _)| start);
                for (&(start, value), end) in sealed.iter().zip(ends.chain([self.page_rows])) {
                    entries[start..end].fill(value);
                }
                for &(lo, hi, value) in rest {
                    entries[lo - base..hi - base].fill(value);
                }
                *sealed = runs_of(&entries, |&v| v).collect();
            }
        }
    }

    fn grow_directory(&mut self, pages: usize) {
        if pages > self.slots.len() {
            let capacity = pages.next_multiple_of(DIRECTORY_CHUNK);
            self.slots.reserve_exact(capacity - self.slots.len());
            self.slots.resize_with(pages, || Slot::Absent);
        }
    }

    /// Forget everything written to `page`: its rows read as the default
    /// again and it holds no memory.
    pub fn free(&mut self, page: usize) {
        if let Some(slot) = self.slots.get_mut(page) {
            *slot = Slot::Absent;
        }
    }

    /// Collapse `page` to runs. Reads are unchanged; later writes splice
    /// the runs and leave the page sealed.
    pub fn seal(&mut self, page: usize) {
        self.grow_directory(page + 1);
        let runs: Vec<(usize, T)> = match &self.slots[page] {
            Slot::Sealed(_) => return,
            Slot::Absent => vec![(0, self.default)],
            Slot::Dense(entries) => runs_of(entries, |&v| v).collect(),
            Slot::Coded(page) => page.runs().collect(),
        };
        self.slots[page] = Slot::Sealed(runs.into());
    }

    /// Indices of the pages that are held (not absent), ascending.
    pub fn held_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !matches!(slot, Slot::Absent))
            .map(|(page, _)| page)
    }

    /// Visit the maximal runs of equal values of every held page as
    /// `(first row, end row, value)`, ascending; runs end at page
    /// boundaries. A sealed page costs its runs, a dense or coded one a
    /// pass over its entries, an absent one nothing.
    pub fn for_each_run(&self, mut visit: impl FnMut(usize, usize, T)) {
        for (page, slot) in self.slots.iter().enumerate() {
            let base = page * self.page_rows;
            let mut open: Option<(usize, T)> = None;
            // Equal neighbours merge: [`Self::values_mut`] can make two
            // runs, or two codes, hold one value.
            let mut start_run = |start: usize, value: T| match open {
                Some((_, v)) if v == value => {}
                _ => {
                    if let Some((first, v)) = open.replace((start, value)) {
                        visit(base + first, base + start, v);
                    }
                }
            };
            match slot {
                Slot::Absent => continue,
                Slot::Dense(entries) => runs_of(entries, |&v| v).for_each(|(s, v)| start_run(s, v)),
                Slot::Coded(page) => page.runs().for_each(|(s, v)| start_run(s, v)),
                Slot::Sealed(runs) => runs.iter().for_each(|&(s, v)| start_run(s, v)),
            }
            if let Some((first, v)) = open {
                visit(base + first, base + self.page_rows, v);
            }
        }
    }

    /// Every value that is held (dense entries, dictionary entries and run
    /// values), mutably. Rows of absent pages keep reading as the default.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flat_map(|slot| {
            let (dense, runs): (&mut [T], &mut [(usize, T)]) = match slot {
                Slot::Absent => (&mut [], &mut []),
                Slot::Dense(entries) => (entries, &mut []),
                Slot::Coded(page) => (&mut page.values[..], &mut []),
                Slot::Sealed(runs) => (&mut [], runs),
            };
            dense.iter_mut().chain(runs.iter_mut().map(|(_, v)| v))
        })
    }

    /// Heap bytes held: the directory at capacity, every dense page, every
    /// coded page's box, dictionary capacity and codes, and every run
    /// vector.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<T>>()
            + self
                .slots
                .iter()
                .map(|slot| match slot {
                    Slot::Absent => 0,
                    Slot::Dense(entries) => std::mem::size_of_val(&**entries),
                    Slot::Coded(page) => page.memory_bytes(),
                    Slot::Sealed(runs) => std::mem::size_of_val(&**runs),
                })
                .sum::<usize>()
    }
}

/// Insert epochs as `(first row, epoch)` runs, one per batch. Rows arrive
/// in batches, so this is O(batches) however long the history; epochs
/// need not ascend with the row id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EpochRuns {
    runs: Vec<(usize, Epoch)>,
    len: usize,
}

impl EpochRuns {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `n` rows inserted at `epoch` (extends the last run when the
    /// epoch repeats, so runs are maximal).
    pub fn push(&mut self, n: usize, epoch: Epoch) {
        if n > 0 && self.runs.last().is_none_or(|&(_, last)| last != epoch) {
            self.runs.push((self.len, epoch));
        }
        self.len += n;
    }

    /// Insert epoch of `row` — a binary search over the runs. Ascending
    /// readers take a [`Self::cursor`] instead.
    #[inline]
    pub fn get(&self, row: RowId) -> Epoch {
        let row = row.as_usize();
        assert!(row < self.len, "row {row} out of range (len {})", self.len);
        self.runs[self.run_of(row)].1
    }

    fn run_of(&self, row: usize) -> usize {
        self.runs.partition_point(|&(start, _)| start <= row) - 1
    }

    /// A reader that remembers the run it last hit: O(1) per row for
    /// ascending (or clustered) row ids, a binary search otherwise.
    pub fn cursor(&self) -> EpochCursor<'_> {
        EpochCursor {
            epochs: self,
            at: 0,
        }
    }

    /// The runs as `(rows, epoch)`, in row order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Epoch)> + '_ {
        let ends = self.runs.iter().skip(1).map(|&(start, _)| start);
        self.runs
            .iter()
            .zip(ends.chain(std::iter::once(self.len)))
            .map(|(&(start, epoch), end)| (end - start, epoch))
    }

    /// Highest epoch of any row (0 when empty).
    pub fn max_epoch(&self) -> Epoch {
        self.runs.iter().map(|&(_, e)| e).max().unwrap_or(0)
    }

    /// Heap bytes held.
    pub fn memory_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<(usize, Epoch)>()
    }
}

/// See [`EpochRuns::cursor`].
#[derive(Debug, Clone)]
pub struct EpochCursor<'a> {
    epochs: &'a EpochRuns,
    at: usize,
}

impl EpochCursor<'_> {
    /// Insert epoch of `row`.
    #[inline]
    pub fn get(&mut self, row: RowId) -> Epoch {
        let row = row.as_usize();
        let runs = &self.epochs.runs;
        assert!(row < self.epochs.len, "row {row} out of range");
        let within = |run: usize| {
            runs.get(run).is_some_and(|&(start, _)| start <= row)
                && runs.get(run + 1).is_none_or(|&(next, _)| row < next)
        };
        if !within(self.at) {
            self.at = if within(self.at + 1) {
                self.at + 1
            } else {
                self.epochs.run_of(row)
            };
        }
        runs[self.at].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_pages_read_default_and_default_writes_allocate_nothing() {
        let mut p = Paged::new(64, u64::MAX);
        assert_eq!(p.get(1_000_000), u64::MAX);
        p.set(500, u64::MAX);
        p.fill(0, 10_000, u64::MAX);
        assert_eq!(p.memory_bytes(), 0);
        assert_eq!(p.held_pages().count(), 0);
        p.set(130, 7);
        assert_eq!(p.get(130), 7);
        assert_eq!(p.get(129), u64::MAX);
        assert_eq!(p.held_pages().collect::<Vec<_>>(), [2]);
        assert_eq!(
            p.memory_bytes(),
            64 * 8 + DIRECTORY_CHUNK * std::mem::size_of::<Slot<u64>>()
        );
    }

    #[test]
    fn seal_keeps_reads_and_free_forgets() {
        let mut p = Paged::new(64, 0u64);
        p.fill(10, 100, 3);
        p.fill(100, 128, 4);
        let before: Vec<u64> = (0..192).map(|i| p.get(i)).collect();
        p.seal(0);
        p.seal(1);
        p.seal(2); // never written: one default run
        assert_eq!((0..192).map(|i| p.get(i)).collect::<Vec<_>>(), before);
        let sealed = |p: &Paged<u64>| -> Vec<Vec<(usize, u64)>> {
            p.slots
                .iter()
                .map(|slot| match slot {
                    Slot::Sealed(runs) => runs.to_vec(),
                    other => panic!("not sealed: {other:?}"),
                })
                .collect()
        };
        assert_eq!(
            sealed(&p),
            [vec![(0, 0), (10, 3)], vec![(0, 3), (36, 4)], vec![(0, 0)]]
        );
        let mut runs = Vec::new();
        p.for_each_run(|s, e, v| runs.push((s, e, v)));
        assert_eq!(
            runs,
            [
                (0, 10, 0),
                (10, 64, 3),
                (64, 100, 3),
                (100, 128, 4),
                (128, 192, 0)
            ]
        );
        // Writing into a sealed page splices its runs; it stays sealed.
        p.fill(60, 70, 9);
        assert_eq!(p.get(59), 3);
        assert_eq!(p.get(63), 9);
        assert_eq!(p.get(69), 9);
        assert_eq!(p.get(70), 3);
        assert_eq!(sealed(&p).len(), 3);
        p.free(0);
        assert_eq!(p.get(63), 0);
        assert_eq!(p.get(64), 9);
        p.free(99); // past the directory: nothing to do
    }

    #[test]
    fn a_slot_is_three_words() {
        // Every page of history pays for a slot: a coded page boxed inside
        // it keeps it the size of a boxed slice and a tag (unboxed, 48).
        assert_eq!(std::mem::size_of::<Slot<u64>>(), 24);
    }

    fn runs<const CODED: bool>(p: &Paged<u64, CODED>) -> Vec<(usize, usize, u64)> {
        let mut runs = Vec::new();
        p.for_each_run(|s, e, v| runs.push((s, e, v)));
        runs
    }

    #[test]
    fn a_coded_page_reads_the_same_across_its_turn_to_dense() {
        const ROWS: usize = 512;
        let mut coded = Paged::coded(ROWS, u64::MAX);
        let mut dense = Paged::new(ROWS, u64::MAX);
        let agree = |coded: &Paged<u64, true>, dense: &Paged<u64>| {
            assert!((0..2 * ROWS).all(|i| coded.get(i) == dense.get(i)));
            assert_eq!(runs(coded), runs(dense));
        };
        let is_coded = |p: &Paged<u64, true>| matches!(p.slots[0], Slot::Coded(_));
        let directory = DIRECTORY_CHUNK * std::mem::size_of::<Slot<u64>>();
        // 255 distinct values besides the default, in pairs of rows, the
        // newest lowest: the dictionary is full, and still coded.
        for v in 0..255 {
            let row = 2 * (254 - v as usize);
            coded.fill(row, row + 2, v);
            dense.fill(row, row + 2, v);
            agree(&coded, &dense);
        }
        // A value it holds, and the default, stay coded.
        coded.fill(0, 4, 7);
        dense.fill(0, 4, 7);
        coded.set(600, u64::MAX);
        agree(&coded, &dense);
        assert!(is_coded(&coded));
        assert_eq!(
            coded.memory_bytes(),
            directory + std::mem::size_of::<Coded<u64>>() + 256 * 8 + ROWS
        );
        let reads: Vec<u64> = (0..2 * ROWS).map(|i| coded.get(i)).collect();
        let before = runs(&coded);
        // The 256th distinct value: the page turns dense, and only the
        // rows written read differently.
        coded.fill(510, 512, 1_000);
        dense.fill(510, 512, 1_000);
        assert!(!is_coded(&coded));
        assert_eq!(coded.memory_bytes(), directory + ROWS * 8);
        agree(&coded, &dense);
        for (i, &was) in reads.iter().enumerate() {
            let want = if (510..512).contains(&i) { 1_000 } else { was };
            assert_eq!(coded.get(i), want, "row {i}");
        }
        let mut want = before;
        assert_eq!(want.pop(), Some((510, 512, u64::MAX)));
        want.push((510, 512, 1_000));
        assert_eq!(runs(&coded), want);
    }

    #[test]
    fn a_coded_page_costs_its_contents_not_its_write_order() {
        // Four fills, or 64 single writes out of order: as a restore and a
        // live table write the same death epochs.
        let mut ascending = Paged::coded(64, u64::MAX);
        let mut scattered = Paged::coded(64, u64::MAX);
        for quarter in 0..4 {
            ascending.fill(16 * quarter, 16 * quarter + 16, quarter as u64);
        }
        for row in (0..64)
            .rev()
            .step_by(3)
            .chain((0..64).filter(|r| r % 3 != 0))
        {
            scattered.set(row, row as u64 / 16);
        }
        assert_eq!(runs(&ascending), runs(&scattered));
        assert_eq!(ascending.memory_bytes(), scattered.memory_bytes());
    }

    /// `fill_page_runs` leaves every page form — absent, coded, dense,
    /// sealed, and a coded page its runs push past 256 values — exactly
    /// as the same runs filled one by one: every row, the runs, the bytes.
    #[test]
    fn page_runs_fill_like_run_by_run_fills() {
        const ROWS: usize = 512;
        let mut rng = amnesia_util::SimRng::new(45);
        type Deaths = Paged<u64, true>;
        type Prepare = fn(&mut Deaths);
        let prepare: [(&str, Prepare); 5] = [
            ("absent", |_| {}),
            ("coded", |p| p.fill(ROWS + 7, ROWS + 90, 3)),
            ("dense", |p| {
                for r in 0..300 {
                    p.set(ROWS + r, r as u64);
                }
            }),
            ("sealed", |p| {
                p.fill(ROWS + 10, ROWS + 200, 4);
                p.seal(1);
            }),
            ("absent, sealed", |p| p.seal(1)),
        ];
        for (form, prepare) in prepare {
            // The last case writes one-row runs of ~340 distinct values.
            for (distinct, longest) in [(1, 40), (3, 40), (1 << 20, 1)] {
                // Ascending disjoint runs inside page 1, defaults among them.
                let mut runs = Vec::new();
                let mut at = ROWS + rng.below(5) as usize;
                while at < 2 * ROWS {
                    let end = (at + 1 + rng.below(longest) as usize).min(2 * ROWS);
                    let value = match rng.below(8) {
                        0 => u64::MAX,
                        _ => 1_000 + rng.below(distinct),
                    };
                    runs.push((at, end, value));
                    at = end + rng.below(2) as usize;
                }
                let (mut want, mut got) =
                    (Paged::coded(ROWS, u64::MAX), Paged::coded(ROWS, u64::MAX));
                prepare(&mut want);
                prepare(&mut got);
                for &(lo, hi, value) in &runs {
                    want.fill(lo, hi, value);
                }
                got.fill_page_runs(1, &runs);
                let ctx = format!("{form}, {distinct} values");
                for r in 0..3 * ROWS {
                    assert_eq!(got.get(r), want.get(r), "{ctx}: row {r}");
                }
                let runs_of = |p: &Deaths| {
                    let mut out = Vec::new();
                    p.for_each_run(|s, e, v| out.push((s, e, v)));
                    out
                };
                assert_eq!(runs_of(&got), runs_of(&want), "{ctx}");
                assert_eq!(got.memory_bytes(), want.memory_bytes(), "{ctx}");
            }
        }
    }

    #[test]
    fn values_mut_reaches_dense_entries_and_run_values() {
        let mut p = Paged::new(64, 0.0f64);
        p.set(3, 2.0);
        p.fill(64, 128, 4.0);
        p.seal(1);
        for v in p.values_mut() {
            *v *= 0.5;
        }
        assert_eq!(
            (p.get(3), p.get(4), p.get(100), p.get(128)),
            (1.0, 0.0, 2.0, 0.0)
        );
    }

    #[test]
    fn epoch_runs_point_reads_and_cursor() {
        let mut e = EpochRuns::new();
        e.push(100, 0);
        e.push(0, 9); // empty batch: no run
        e.push(50, 3);
        e.push(50, 3); // same epoch: the run extends
        e.push(10, 1); // epochs need not ascend
        assert_eq!(e.len(), 210);
        assert_eq!(e.iter().collect::<Vec<_>>(), [(100, 0), (100, 3), (10, 1)]);
        assert_eq!(e.max_epoch(), 3);
        let want = |row: usize| match row {
            0..100 => 0,
            100..200 => 3,
            _ => 1,
        };
        let mut cursor = e.cursor();
        for row in (0..210).chain([5, 205, 150, 99, 100, 209, 0]) {
            assert_eq!(e.get(RowId::from(row)), want(row), "get {row}");
            assert_eq!(cursor.get(RowId::from(row)), want(row), "cursor {row}");
        }
    }
}
