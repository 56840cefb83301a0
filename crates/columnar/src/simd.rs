//! The one CPU dispatch behind every vector kernel.
//!
//! Two families of kernels run vector code: the engine's hot-tail
//! predicate masks (`amnesia_engine::batch`, 64 raw `i64` values per
//! step) and the packed-field group kernels under forpack, dict, plain
//! and runbits blocks (`compress`'s private `filter` module, one octet of
//! packed fields per step; runbits also deposits its run verdicts with
//! BMI2 `pdep`). Both read the tier this CPU gets from
//! [`mask_impl`], which detects the features once per process — never
//! per kernel call — so a kernel pays one cached load to learn it.
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
//!   one `vpermb`, one `vpsrlvq`, one AND per 8 fields; and runbits'
//!   `pdep` deposit. Every CPU with VBMI has BMI2 and runs `pdep` in one
//!   µop; the AMD cores without AVX-512 (Zen 1 and 2) run it in
//!   microcode, which is why the deposit does not ride the AVX2 tier.
//!
//! [`PORTABLE_ONLY_ENV`] is the one override: it pins both families to
//! their scalar code.

use std::sync::OnceLock;

/// Environment variable that pins every vector kernel — the engine's hot
/// predicate masks and the packed-field group kernels alike — to its
/// portable scalar code when set to anything but `0`. CI runs the whole
/// suite once this way, so the fallback that hardware without AVX takes
/// is tested on hardware that has it. Read once per process.
pub const PORTABLE_ONLY_ENV: &str = "AMNESIA_PORTABLE_ONLY";

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
        let forced = std::env::var(PORTABLE_ONLY_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
        if forced {
            MaskImpl::Portable
        } else {
            MaskImpl::detect()
        }
    })
}
