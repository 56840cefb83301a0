//! Per-tuple active/forgotten marking.
//!
//! "For each table T, we keep a record of active and forgotten tuples …
//! The granularity is purposely kept to a single record" (paper §2.1).
//! Besides the active bitmap we record the *death epoch* of every
//! forgotten tuple so reports can reconstruct when data rotted away.
//!
//! The bitmap covers every row ever inserted (an eighth of a byte each);
//! the death epochs are [`Paged`] by tier block, so a block nobody forgot
//! a row of holds none, a block that lost rows holds a byte per row
//! coding into the few epochs they died in ([`Paged::coded`]), and a
//! block whose payload was dropped keeps only the runs snapshot v4 writes
//! for it.

use amnesia_util::bitmap::for_each_set_bit_in;
use amnesia_util::{Bitmap, SimRng};
use serde::{Deserialize, Serialize};

use crate::paged::Paged;
use crate::simd::{deposit, has_bit_ops, mask_impl, MaskImpl};
use crate::types::{Epoch, RowId, DEFAULT_BLOCK_ROWS};

/// Sentinel in `died_at` for rows that are still active.
const ALIVE: Epoch = Epoch::MAX;

/// Activity marking for all rows of a table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivityMap {
    active: Bitmap,
    died_at: Paged<Epoch, true>,
}

impl ActivityMap {
    /// Empty map with the default tier block size.
    pub fn new() -> Self {
        Self::with_block_rows(DEFAULT_BLOCK_ROWS)
    }

    /// Empty map whose death-epoch pages match `block_rows`-row tier
    /// blocks.
    pub fn with_block_rows(block_rows: usize) -> Self {
        Self {
            active: Bitmap::new(),
            died_at: Paged::coded(block_rows, ALIVE),
        }
    }

    /// Register `n` freshly inserted (active) rows.
    pub fn push_active(&mut self, n: usize) {
        self.active.extend(n, true);
    }

    /// Total rows ever registered (active + forgotten).
    pub fn len(&self) -> usize {
        self.active.len()
    }

    /// True if no rows have been registered.
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Number of active rows.
    pub fn active_count(&self) -> usize {
        self.active.count_ones()
    }

    /// Number of forgotten rows.
    pub fn forgotten_count(&self) -> usize {
        self.active.count_zeros()
    }

    /// Is this row still active?
    #[inline]
    pub fn is_active(&self, row: RowId) -> bool {
        self.active.get(row.as_usize())
    }

    /// Mark a row forgotten at `epoch`. Returns `true` if the row was
    /// active (i.e. the call had an effect); forgetting twice is a no-op.
    pub fn forget(&mut self, row: RowId, epoch: Epoch) -> bool {
        let was_active = self.active.set(row.as_usize(), false);
        if was_active {
            self.died_at.set(row.as_usize(), epoch);
        }
        was_active
    }

    /// Mark the rows `[lo, hi)` — all of them active — forgotten at
    /// `epoch`: a run-at-a-time [`Self::forget`], for a range known to be
    /// active and for a restored run across death-epoch pages.
    pub(crate) fn forget_active_range(&mut self, lo: usize, hi: usize, epoch: Epoch) {
        let cleared = self.active.clear_range(lo, hi);
        debug_assert_eq!(cleared, hi - lo, "rows {lo}..{hi} were not all active");
        self.died_at.fill(lo, hi, epoch);
    }

    /// [`Self::forget_active_range`] for each `(lo, hi, epoch)` of `runs`,
    /// ascending, disjoint and all inside death-epoch page `page`: the
    /// snapshot reader's page-at-a-time restore. A run inside one
    /// activity word clears one mask, and the page's epochs are filled in
    /// one pass ([`Paged::fill_page_runs`]).
    pub(crate) fn forget_page_runs(&mut self, page: usize, runs: &[(usize, usize, Epoch)]) {
        let mut cleared = 0;
        for &(lo, hi, _) in runs {
            cleared += self.active.clear_range(lo, hi);
        }
        debug_assert_eq!(
            cleared,
            runs.iter().map(|&(lo, hi, _)| hi - lo).sum::<usize>(),
            "page {page}'s runs were not all active"
        );
        self.died_at.fill_page_runs(page, runs);
    }

    /// [`Self::forget`] over the rows `[lo, hi)`, a word at a time: the
    /// active ones die at `epoch`, the forgotten ones keep their death
    /// epoch. Returns how many were active. A range that is all active
    /// (most forget runs) is one fill; a one-row range (a scattered
    /// victim) is one bit.
    pub(crate) fn forget_range(&mut self, lo: usize, hi: usize, epoch: Epoch) -> usize {
        if hi - lo == 1 {
            return usize::from(self.forget(RowId::from(lo), epoch));
        }
        let active = self.active.count_ones_in(lo, hi);
        if active == hi - lo {
            self.forget_active_range(lo, hi, epoch);
        } else {
            let died_at = &mut self.died_at;
            for_each_set_bit_in(self.active.words(), lo, hi, |row| died_at.set(row, epoch));
            self.active.clear_range(lo, hi);
        }
        active
    }

    /// Epoch at which the row was forgotten, if it has been.
    pub fn died_at(&self, row: RowId) -> Option<Epoch> {
        assert!(row.as_usize() < self.len(), "row {row} out of range");
        let e = self.died_at.get(row.as_usize());
        (e != ALIVE).then_some(e)
    }

    /// Collapse block `b`'s death epochs to runs — what remains of them
    /// once the block's payload is dropped
    /// ([`Table::drop_forgotten_blocks`](crate::table::Table::drop_forgotten_blocks)).
    /// Every [`Self::died_at`] still reads back.
    pub(crate) fn seal_block(&mut self, b: usize) {
        self.died_at.seal(b);
    }

    /// Visit the maximal runs of consecutive rows that died in one epoch
    /// as `(start, end, epoch)`, ascending — the death section of a v4
    /// snapshot. Costs the sealed runs of the dropped blocks plus a pass
    /// over the pages that are still dense; an untouched block costs
    /// nothing.
    pub(crate) fn for_each_death_run(&self, mut visit: impl FnMut(usize, usize, Epoch)) {
        let mut open: Option<(usize, usize, Epoch)> = None;
        self.died_at
            .for_each_run(|start, end, epoch| match &mut open {
                _ if epoch == ALIVE => {}
                Some((_, open_end, e)) if *open_end == start && *e == epoch => *open_end = end,
                _ => {
                    if let Some((s, e, epoch)) = open.replace((start, end, epoch)) {
                        visit(s, e, epoch);
                    }
                }
            });
        if let Some((s, e, epoch)) = open {
            visit(s, e, epoch);
        }
    }

    /// Iterate over active row ids in insertion order.
    pub fn iter_active(&self) -> impl Iterator<Item = RowId> + '_ {
        self.active.iter_ones().map(RowId::from)
    }

    /// The underlying active bitmap (for vectorized kernels).
    pub fn bitmap(&self) -> &Bitmap {
        &self.active
    }

    /// The packed activity words (low bit = low row id). Bits past the
    /// last row are guaranteed zero, so word-at-a-time kernels can
    /// popcount and scan whole words without tail masking.
    #[inline]
    pub fn words(&self) -> &[u64] {
        self.active.words()
    }

    /// Uniformly random active row, if any (O(blocks) via rank/select).
    pub fn random_active(&self, rng: &mut SimRng) -> Option<RowId> {
        let n = self.active_count();
        if n == 0 {
            return None;
        }
        let k = rng.index(n);
        self.active.select(k).map(RowId::from)
    }

    /// The active rows whose rank among the active rows (the `r`-th
    /// active row has rank `r`) is set in `ranks`, ascending: the row ids
    /// of a uniformly sampled set of ranks (`SimRng::sample_set`), found
    /// in one pass over the activity words with no list of the active
    /// rows. Rank bits at or past [`Self::active_count`] select nothing.
    pub fn select_ranks(&self, ranks: &Bitmap) -> Vec<RowId> {
        select_ranks_on(mask_impl(), self.active.words(), ranks)
    }

    /// Next active row at or after `from` (row-space order).
    pub fn next_active(&self, from: RowId) -> Option<RowId> {
        self.active.next_one(from.as_usize()).map(RowId::from)
    }

    /// Previous active row at or before `from` (row-space order).
    pub fn prev_active(&self, from: RowId) -> Option<RowId> {
        self.active.prev_one(from.as_usize()).map(RowId::from)
    }

    /// Count of active rows in the physical range `[lo, hi)`.
    pub fn active_in_range(&self, lo: usize, hi: usize) -> usize {
        self.active.count_ones_in(lo, hi)
    }

    /// Bytes of the death epochs: a coded page per block with a forgotten
    /// row, a few runs per dropped block.
    pub(crate) fn death_bytes(&self) -> usize {
        self.died_at.memory_bytes()
    }

    /// Heap footprint in bytes: the death epochs, and the bitmap's eighth
    /// of a byte per row of history — the one per-row cost a drop does not
    /// give back.
    pub fn memory_bytes(&self) -> usize {
        self.active.memory_bytes() + self.death_bytes() + std::mem::size_of::<Self>()
    }
}

/// [`ActivityMap::select_ranks`] over `active` on `tier`: `pdep` as the
/// deposit where [`has_bit_ops`] allows it.
fn select_ranks_on(tier: MaskImpl, active: &[u64], ranks: &Bitmap) -> Vec<RowId> {
    let mut out = Vec::with_capacity(ranks.count_ones());
    #[cfg(target_arch = "x86_64")]
    if has_bit_ops(tier) {
        // SAFETY: `has_bit_ops` holds only on a tier whose detection
        // required POPCNT and BMI2.
        unsafe { select_ranks_pdep(active, ranks.words(), &mut out) };
        return out;
    }
    let _ = tier;
    select_ranks::<false>(active, ranks.words(), &mut out);
    out
}

/// [`select_ranks`] with BMI2 `pdep` as the deposit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi2,popcnt")]
fn select_ranks_pdep(active: &[u64], ranks: &[u64], out: &mut Vec<RowId>) {
    select_ranks::<true>(active, ranks, out);
}

/// Per activity word holding `c` active rows, the rank bits
/// `[rank, rank + c)` — the next `c` bits of `ranks` — are deposited at
/// the word's set bits; what lands there are the selected rows.
#[inline(always)]
fn select_ranks<const PDEP: bool>(active: &[u64], ranks: &[u64], out: &mut Vec<RowId>) {
    let mut rank = 0; // active rows before word `w`
    for (w, &word) in active.iter().enumerate() {
        let (q, shift) = (rank / 64, rank % 64);
        if q >= ranks.len() {
            break;
        }
        // `(next << 1) << 63 - shift` is 0 at shift 0. (No closures here:
        // they would not inline into a `target_feature` caller.)
        let next = if q + 1 < ranks.len() { ranks[q + 1] } else { 0 };
        let slice = ranks[q] >> shift | (next << 1) << (63 - shift);
        let mut hits = deposit::<PDEP>(slice, word);
        while hits != 0 {
            out.push(RowId((64 * w) as u64 + u64::from(hits.trailing_zeros())));
            hits &= hits - 1;
        }
        rank += word.count_ones() as usize;
    }
}

impl Default for ActivityMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut am = ActivityMap::new();
        am.push_active(10);
        assert_eq!(am.len(), 10);
        assert_eq!(am.active_count(), 10);
        assert!(am.is_active(RowId(3)));
        assert_eq!(am.died_at(RowId(3)), None);

        assert!(am.forget(RowId(3), 2));
        assert!(!am.is_active(RowId(3)));
        assert_eq!(am.died_at(RowId(3)), Some(2));
        assert_eq!(am.active_count(), 9);
        assert_eq!(am.forgotten_count(), 1);

        // Forgetting again is a no-op.
        assert!(!am.forget(RowId(3), 5));
        assert_eq!(am.died_at(RowId(3)), Some(2), "death epoch unchanged");
    }

    fn death_runs(am: &ActivityMap) -> Vec<(usize, usize, Epoch)> {
        let mut runs = Vec::new();
        am.for_each_death_run(|s, e, epoch| runs.push((s, e, epoch)));
        runs
    }

    #[test]
    fn death_runs_merge_across_words_pages_and_sealed_blocks() {
        let mut am = ActivityMap::with_block_rows(64);
        am.push_active(300);
        assert_eq!(am.death_bytes(), 0, "no forgets, no pages");
        for r in 0..96 {
            am.forget(RowId(r), 6);
        }
        am.forget_active_range(96, 130, 7);
        for r in [140, 142, 143, 299] {
            am.forget(RowId(r), 8);
        }
        let want = vec![
            (0, 96, 6),
            (96, 130, 7),
            (140, 141, 8),
            (142, 144, 8),
            (299, 300, 8),
        ];
        assert_eq!(death_runs(&am), want);
        assert_eq!(am.forgotten_count(), 96 + 34 + 4);
        let pages = am.death_bytes();
        // Blocks 0 and 1 are fully dead: seal them, as a drop does. Each
        // gives back its coded page (the box: a `Vec` and a boxed slice;
        // a dictionary of ALIVE and one or two epochs at capacity 4; 64
        // codes) and keeps its runs: (0, 6) and (0, 6), (32, 7).
        let coded_page = std::mem::size_of::<(Vec<Epoch>, Box<[u8]>)>() + 4 * 8 + 64;
        let run = std::mem::size_of::<(usize, Epoch)>();
        am.seal_block(0);
        am.seal_block(1);
        assert_eq!(am.death_bytes(), pages - 2 * coded_page + 3 * run);
        assert_eq!(death_runs(&am), want);
        assert_eq!(am.died_at(RowId(95)), Some(6));
        assert_eq!(am.died_at(RowId(96)), Some(7));
        assert_eq!(am.died_at(RowId(141)), None);
        // A restore seals first and forgets by runs afterwards: same map.
        let mut restored = ActivityMap::with_block_rows(64);
        restored.push_active(300);
        restored.seal_block(0);
        restored.seal_block(1);
        for &(s, e, epoch) in &want {
            restored.forget_active_range(s, e, epoch);
        }
        assert_eq!(death_runs(&restored), want);
        assert_eq!(restored.death_bytes(), am.death_bytes());
        assert_eq!(restored.words(), am.words());
    }

    /// Random activity words — all-zero and all-one words among them, a
    /// partial last word — and rank sets (none, a sample, every rank,
    /// ranks past the last active row) through the deposit on every tier:
    /// each selected row is `Bitmap::select` of its rank.
    #[test]
    fn select_ranks_equals_select_on_every_tier() {
        let mut rng = SimRng::new(31);
        for len in [0usize, 1, 63, 64, 65, 300, 1_000, 4_097] {
            for density in [0, 3, 50, 97, 100] {
                let mut active = Bitmap::new();
                for i in 0..len {
                    let bit = match (i / 64) % 4 {
                        0 => false,
                        1 => true,
                        _ => rng.below(100) < density,
                    };
                    active.push(bit);
                }
                let ones = active.count_ones();
                let mut rank_sets = vec![
                    Bitmap::with_len(ones, false),
                    Bitmap::with_len(ones, true),
                    Bitmap::with_len(ones + 70, true),
                ];
                for k in [1, ones / 3, ones / 2] {
                    rank_sets.push(rng.sample_set(ones, k.min(ones)));
                }
                for ranks in &rank_sets {
                    let want: Vec<RowId> = ranks
                        .iter_ones()
                        .map_while(|r| active.select(r))
                        .map(RowId::from)
                        .collect();
                    for tier in MaskImpl::available() {
                        let got = select_ranks_on(tier, active.words(), ranks);
                        assert_eq!(got, want, "{tier:?} len {len} density {density}");
                    }
                }
            }
        }
    }

    #[test]
    fn iter_active_in_order() {
        let mut am = ActivityMap::new();
        am.push_active(5);
        am.forget(RowId(1), 1);
        am.forget(RowId(4), 1);
        let rows: Vec<RowId> = am.iter_active().collect();
        assert_eq!(rows, vec![RowId(0), RowId(2), RowId(3)]);
    }

    #[test]
    fn random_active_only_returns_active() {
        let mut am = ActivityMap::new();
        am.push_active(100);
        for i in 0..100 {
            if i % 2 == 0 {
                am.forget(RowId(i), 1);
            }
        }
        let mut rng = SimRng::new(20);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let r = am.random_active(&mut rng).unwrap();
            assert!(am.is_active(r));
            seen.insert(r.0);
        }
        // With 1000 draws over 50 rows we should see nearly all of them.
        assert!(seen.len() > 45, "coverage {}", seen.len());
    }

    #[test]
    fn random_active_empty_is_none() {
        let mut am = ActivityMap::new();
        am.push_active(2);
        am.forget(RowId(0), 1);
        am.forget(RowId(1), 1);
        let mut rng = SimRng::new(21);
        assert_eq!(am.random_active(&mut rng), None);
    }

    #[test]
    fn neighbour_scans() {
        let mut am = ActivityMap::new();
        am.push_active(10);
        for i in [2u64, 3, 4, 7] {
            am.forget(RowId(i), 1);
        }
        assert_eq!(am.next_active(RowId(2)), Some(RowId(5)));
        assert_eq!(am.prev_active(RowId(4)), Some(RowId(1)));
        assert_eq!(am.active_in_range(2, 8), 2); // rows 5, 6
    }
}
