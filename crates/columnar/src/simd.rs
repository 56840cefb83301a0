//! The one CPU dispatch behind every vector kernel.
//!
//! Two families of kernels run vector code: the engine's hot-tail
//! predicate masks (`amnesia_engine::batch`, 64 raw `i64` values per
//! step) and the packed-field group kernels under forpack, dict, plain
//! and runbits blocks (`compress`'s private `filter` module, one octet of
//! packed fields per step). Both read the tier this CPU gets from
//! [`mask_impl`], which detects the features once per process — never
//! per kernel call — so a kernel pays one cached load to learn it.
//!
//! One bit primitive rides the same tiers: the `deposit` (BMI2 `pdep`
//! where `has_bit_ops` allows it, a portable loop elsewhere). It has
//! two users: runbits deposits its run verdicts at the run-start bits,
//! and the activity map deposits a slice of a rank bitmap into each
//! activity word, which turns uniformly sampled ranks into active row ids
//! in one pass (`ActivityMap::select_ranks`).
//!
//! The tiers are ordered: each has every feature of the ones below, so
//! a kernel asks "at least this tier" and a test can run every tier up
//! to the detected one in one process.
//!
//! * **Portable** — scalar code; every architecture, and the reference
//!   every vector kernel is tested against.
//! * **Avx2** — the hot masks' sign-biased 4-lane compare.
//! * **Avx512** (AVX-512F) — the hot masks' unsigned 8-lane compare
//!   straight into k-masks.
//! * **Avx512Vbmi** (AVX-512 F + BW + VBMI, and POPCNT and BMI2) —
//!   additionally the packed kernels' octet step: one masked byte load,
//!   one `vpermb`, one `vpsrlvq`, one AND per 8 fields; and the `pdep`
//!   deposit. Every CPU with VBMI has BMI2 and runs `pdep` in one µop;
//!   the AMD cores without AVX-512 (Zen 1 and 2) run it in microcode,
//!   which is why the deposit does not ride the AVX2 tier.
//!
//! [`PORTABLE_ONLY_ENV`] is the one override: it pins both families and
//! the deposit to their scalar code.

use std::sync::OnceLock;

pub use amnesia_util::PORTABLE_ONLY_ENV;

/// The vector tier a kernel may use, weakest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MaskImpl {
    /// Scalar code; every architecture.
    Portable,
    /// AVX2 (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F on top of AVX2 (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX-512 BW and VBMI (and POPCNT and BMI2, which every such CPU
    /// has) on top of AVX-512F (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Avx512Vbmi,
}

impl MaskImpl {
    /// Every tier this process may run, weakest first: the portable one
    /// up to [`mask_impl`].
    #[cfg(test)]
    pub(crate) fn available() -> impl Iterator<Item = MaskImpl> {
        let all = [
            MaskImpl::Portable,
            #[cfg(target_arch = "x86_64")]
            MaskImpl::Avx2,
            #[cfg(target_arch = "x86_64")]
            MaskImpl::Avx512,
            #[cfg(target_arch = "x86_64")]
            MaskImpl::Avx512Vbmi,
        ];
        let best = mask_impl();
        all.into_iter().filter(move |&t| t <= best)
    }

    /// The best tier this CPU supports, [`PORTABLE_ONLY_ENV`] aside.
    fn detect() -> MaskImpl {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if !has!("avx2") {
                return MaskImpl::Portable;
            }
            if !has!("avx512f") {
                return MaskImpl::Avx2;
            }
            if !(has!("avx512bw") && has!("avx512vbmi") && has!("popcnt") && has!("bmi2")) {
                return MaskImpl::Avx512;
            }
            MaskImpl::Avx512Vbmi
        }
        #[cfg(not(target_arch = "x86_64"))]
        MaskImpl::Portable
    }
}

/// The tier every vector kernel in this process runs: detected on the
/// first call, [`MaskImpl::Portable`] when [`PORTABLE_ONLY_ENV`] is set.
#[inline]
pub fn mask_impl() -> MaskImpl {
    static TIER: OnceLock<MaskImpl> = OnceLock::new();
    *TIER.get_or_init(|| {
        if amnesia_util::portable_only() {
            MaskImpl::Portable
        } else {
            MaskImpl::detect()
        }
    })
}

/// Does `tier` have POPCNT and BMI2 for [`deposit`] and rank walks? Only
/// the AVX-512 VBMI tier, whose detection requires both: the AMD cores
/// without AVX-512 (Zen 1 and 2) run BMI2's `pdep` in microcode, one
/// step per mask bit.
pub(crate) fn has_bit_ops(tier: MaskImpl) -> bool {
    #[cfg(target_arch = "x86_64")]
    return tier >= MaskImpl::Avx512Vbmi;
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = tier;
        false
    }
}

/// Bit `k` of `bits` to the position of the `k`-th set bit of `mask`:
/// BMI2 `pdep` when `PDEP`, a loop over the mask's bits otherwise.
///
/// `PDEP` may be true only inside a function that enables `bmi2` and is
/// called only where [`has_bit_ops`] holds; the caller inlines this into
/// it, so the `pdep` is one instruction.
#[inline(always)]
pub(crate) fn deposit<const PDEP: bool>(bits: u64, mask: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if PDEP {
        // SAFETY: `PDEP` is true only inside a `bmi2` function called
        // where the CPU has it (above).
        return unsafe { std::arch::x86_64::_pdep_u64(bits, mask) };
    }
    let (mut bits, mut mask, mut out) = (bits, mask, 0);
    while mask != 0 {
        out |= mask & mask.wrapping_neg() & (bits & 1).wrapping_neg();
        bits >>= 1;
        mask &= mask - 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use amnesia_util::SimRng;

    #[test]
    fn deposit_matches_the_bit_loop() {
        let mut rng = SimRng::new(5);
        for _ in 0..2_000 {
            let (bits, mask) = (rng.next_u64(), rng.next_u64() & rng.next_u64());
            let mut want = 0;
            let mut k = 0;
            for i in 0..64 {
                if mask >> i & 1 == 1 {
                    want |= (bits >> k & 1) << i;
                    k += 1;
                }
            }
            assert_eq!(deposit::<false>(bits, mask), want);
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("bmi2") {
                // SAFETY: BMI2 was just detected.
                assert_eq!(unsafe { pdep_deposit(bits, mask) }, want);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2")]
    fn pdep_deposit(bits: u64, mask: u64) -> u64 {
        deposit::<true>(bits, mask)
    }
}
