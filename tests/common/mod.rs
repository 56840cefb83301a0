//! Helpers shared by the integration suites.

use amnesia::engine::exec::ExecStats;

/// `ExecStats` without the scheduler's own accounting, which is the one
/// part allowed to differ between pool widths, morsel sizes and runs.
pub fn planned(stats: &ExecStats) -> ExecStats {
    ExecStats {
        morsels: 0,
        morsel_steals: 0,
        merge_ns: 0,
        ..stats.clone()
    }
}
