//! Foundations for the `amnesia` workspace.
//!
//! This crate hosts the small, dependency-free building blocks every other
//! crate in the workspace leans on:
//!
//! * [`rng`] — a deterministic, seedable random number generator
//!   (Xoshiro256++ seeded through SplitMix64) with the sampling primitives
//!   the amnesia simulator needs: uniform ranges, Bernoulli, Box–Muller
//!   normals, shuffles, and weighted/unweighted sampling without
//!   replacement. The simulator must be bit-reproducible across platforms,
//!   which is why we ship our own generator instead of depending on `rand`.
//! * [`bitmap`] — a packed bitset with rank/select used for the per-tuple
//!   active/forgotten marking that the paper's simulator is built around.
//! * [`stats`] — Welford running moments, Kahan summation and quantiles.
//! * [`ascii`] — line charts, heatmaps and text tables for terminal-friendly
//!   reproduction of the paper's figures.
//! * [`crc`] — CRC-32/IEEE for snapshot and WAL integrity checking, by
//!   carry-less multiplication where the CPU has it.
//! * [`fixed`] — checked fixed-width reads from untrusted bytes, the
//!   panic-free parsing seam the recovery paths share.
//! * [`error`] — the shared error type.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ascii;
pub mod bitmap;
pub mod crc;
pub mod error;
pub mod fixed;
pub mod rng;
pub mod stats;

pub use bitmap::{Bitmap, WORD_BITS};
pub use crc::{crc32, Crc32};
pub use error::{Error, Result};
pub use fixed::take_arr;
pub use rng::SimRng;
pub use stats::{KahanSum, MinMax, RunningStats};

/// Environment variable that pins every vector kernel of the workspace —
/// the CRC-32 folding kernel here, the predicate masks and packed-field
/// kernels behind `amnesia_columnar::simd` — to its portable scalar code
/// when set to anything but `0`. CI runs the whole suite once this way,
/// so the fallback that hardware without those features takes is tested
/// on hardware that has them. Each kernel family reads it once per
/// process.
pub const PORTABLE_ONLY_ENV: &str = "AMNESIA_PORTABLE_ONLY";

/// Is [`PORTABLE_ONLY_ENV`] set to anything but `0`?
pub fn portable_only() -> bool {
    std::env::var(PORTABLE_ONLY_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}
