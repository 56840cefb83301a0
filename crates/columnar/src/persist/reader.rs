//! Bounds-checked binary reader for snapshot and WAL decoding.
//!
//! Unlike the codec-internal varint reader (which may panic: codecs own
//! their buffers), everything here returns `Err` on truncation — disk
//! bytes are untrusted input.

use amnesia_util::{storage_err, take_arr, Result};

/// Cursor over untrusted bytes.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// New cursor at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining bytes.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.remaining() < n {
            return Err(storage_err!(
                "truncated input: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        Ok(())
    }

    /// Raw byte slice.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Exactly `N` bytes as a fixed array. `bytes` already bounds-checks,
    /// so the second check cannot fire — but it returns `Err`, keeping
    /// this cursor statically panic-free (lint rule `panic`).
    fn arr<const N: usize>(&mut self) -> Result<[u8; N]> {
        take_arr::<N>(self.bytes(N)?)
            .ok_or_else(|| storage_err!("truncated {N}-byte field at offset {}", self.pos))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.arr::<1>()?[0])
    }

    /// Little-endian u16.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.arr()?))
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.arr()?))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.arr()?))
    }

    /// Little-endian i64.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.arr()?))
    }

    /// Little-endian f64.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.arr()?))
    }

    /// LEB128 varint, checked: one pass over at most ten bytes, no
    /// per-byte bounds check.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let rest = self.data.get(self.pos..).unwrap_or_default();
        let mut result = 0u64;
        // Ten bytes carry 70 bits; an eleventh is never valid.
        for (i, &byte) in rest.iter().take(10).enumerate() {
            result |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(result);
            }
        }
        Err(self.varint_error(rest.len()))
    }

    /// Why [`Self::varint`] found no end within the `left` bytes left.
    #[cold]
    fn varint_error(&self, left: usize) -> amnesia_util::Error {
        if left > 10 {
            storage_err!("varint longer than 10 bytes at offset {}", self.pos)
        } else {
            storage_err!("truncated varint at offset {}: {left} bytes left", self.pos)
        }
    }

    /// Zigzag signed varint, checked.
    pub fn signed_varint(&mut self) -> Result<i64> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    /// Error unless the cursor consumed everything.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(storage_err!(
                "{} unexpected trailing bytes at offset {}",
                self.remaining(),
                self.pos
            ));
        }
        Ok(())
    }
}

/// Place one decoded run of `len` rows `gap` rows past the previous run's
/// end, inside `[0, limit)`. Returns `(start, end)`. Shared by every run
/// decoder (WAL kind 8, snapshot v4 death epochs), so they reject the same
/// shapes: an empty run, a start before row 0, arithmetic overflow, an end
/// past `limit`.
pub fn place_run(prev_end: u64, gap: i64, len: u64, limit: u64) -> Result<(u64, u64)> {
    if len == 0 {
        return Err(storage_err!("zero-length row run"));
    }
    let start = prev_end
        .checked_add_signed(gap)
        .ok_or_else(|| storage_err!("row run gap {gap} from {prev_end} overflows"))?;
    let end = start
        .checked_add(len)
        .filter(|&end| end <= limit)
        .ok_or_else(|| storage_err!("row run {start}+{len} runs past {limit}"))?;
    Ok((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_reads_advance_in_order() {
        let mut buf = Vec::new();
        buf.push(7u8);
        buf.extend_from_slice(&0x1234u16.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&42u64.to_le_bytes());
        buf.extend_from_slice(&1.5f64.to_le_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.f64().unwrap(), 1.5);
        r.expect_end().unwrap();
    }

    #[test]
    fn place_run_rejects_every_malformed_shape() {
        assert_eq!(place_run(10, 5, 3, 100).unwrap(), (15, 18));
        assert_eq!(place_run(10, -10, 1, 100).unwrap(), (0, 1), "step back");
        assert_eq!(
            place_run(97, 0, 3, 100).unwrap(),
            (97, 100),
            "up to the limit"
        );
        assert!(place_run(10, 5, 0, 100).is_err(), "empty run");
        assert!(place_run(10, -11, 1, 100).is_err(), "before row 0");
        assert!(place_run(98, 0, 3, 100).is_err(), "past the limit");
        assert!(place_run(u64::MAX, 1, 1, u64::MAX).is_err(), "gap overflow");
        assert!(
            place_run(2, 0, u64::MAX, u64::MAX).is_err(),
            "length overflow"
        );
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        // Failed read leaves the untouched bytes readable.
        assert_eq!(r.u16().unwrap(), 0x0201);
    }

    #[test]
    fn varint_round_trip_and_overflow_guard() {
        use bytes::BytesMut;
        let mut buf = BytesMut::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            crate::compress::varint::write_varint(&mut buf, v);
        }
        let data = buf.freeze();
        let mut r = Reader::new(&data);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(r.varint().unwrap(), v);
        }
        // 11 continuation bytes: overflow.
        let bad = [0xFFu8; 11];
        assert!(Reader::new(&bad).varint().is_err());
        // Truncated varint: error, not panic.
        let torn = [0x80u8];
        assert!(Reader::new(&torn).varint().is_err());
    }

    #[test]
    fn signed_varint_matches_codec() {
        use bytes::BytesMut;
        let mut buf = BytesMut::new();
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            crate::compress::varint::write_signed(&mut buf, v);
        }
        let data = buf.freeze();
        let mut r = Reader::new(&data);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(r.signed_varint().unwrap(), v);
        }
    }

    #[test]
    fn expect_end_flags_trailing_garbage() {
        let mut r = Reader::new(&[1, 2, 3]);
        let _ = r.u8().unwrap();
        assert!(r.expect_end().is_err());
    }
}
