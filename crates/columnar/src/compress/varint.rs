//! LEB128 varints with zigzag signed mapping — the wire primitives shared
//! by the RLE, delta and dictionary codecs.

use bytes::{BufMut, BytesMut};

/// Map a signed value to an unsigned one with small magnitudes staying
/// small: 0→0, −1→1, 1→2, −2→3 …
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as an LEB128 varint: built on the stack, appended once.
#[inline]
pub fn write_varint(buf: &mut impl BufMut, mut v: u64) {
    let mut bytes = [0u8; 10];
    let mut n = 0;
    while v >= 0x80 {
        bytes[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    bytes[n] = v as u8;
    buf.put_slice(&bytes[..=n]);
}

/// Bytes [`write_varint`] appends for `v`: one per started 7 bits.
#[inline]
pub(super) fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes [`write_signed`] appends for `v`.
#[inline]
pub(super) fn signed_len(v: i64) -> usize {
    varint_len(zigzag_encode(v))
}

/// Read an LEB128 varint starting at `*pos`, advancing it.
///
/// Panics on truncated input (codecs own their buffers, so corruption is a
/// programming error, not an I/O condition).
pub fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut result = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        result |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return result;
        }
        shift += 7;
        assert!(shift < 64 + 7, "varint too long");
    }
}

/// [`read_varint`] for bytes that did not come from this process: `None`
/// on a truncated or over-long varint instead of a panic.
pub fn try_read_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut result = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *data.get(*pos)?;
        *pos += 1;
        result |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(result);
        }
    }
    None
}

/// Append a zigzag-encoded signed varint.
#[inline]
pub fn write_signed(buf: &mut BytesMut, v: i64) {
    write_varint(buf, zigzag_encode(v));
}

/// Read a zigzag-encoded signed varint.
pub fn read_signed(data: &[u8], pos: &mut usize) -> i64 {
    zigzag_decode(read_varint(data, pos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_pairs() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        for v in [-1000i64, -1, 0, 1, 1000, i64::MIN, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = BytesMut::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let data = buf.freeze();
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&data, &mut pos), v);
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn signed_roundtrip() {
        let mut buf = BytesMut::new();
        let values = [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &values {
            write_signed(&mut buf, v);
        }
        let data = buf.freeze();
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_signed(&data, &mut pos), v);
        }
    }

    #[test]
    fn checked_read_agrees_and_rejects_truncation() {
        for v in [0u64, 127, 128, u64::MAX] {
            let mut buf = BytesMut::new();
            write_varint(&mut buf, v);
            let (mut a, mut b) = (0, 0);
            assert_eq!(
                try_read_varint(&buf, &mut a),
                Some(read_varint(&buf, &mut b))
            );
            assert_eq!(a, b);
            assert_eq!(try_read_varint(&buf[..buf.len() - 1], &mut 0), None);
        }
        assert_eq!(try_read_varint(&[0x80; 11], &mut 0), None, "over-long");
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buf = BytesMut::new();
        write_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        write_varint(&mut buf, 128);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn lengths_match_what_is_written() {
        let edges = (0..64).flat_map(|b| [1u64 << b, (1u64 << b) - 1, (1u64 << b) + 1]);
        for v in edges.chain([0, u64::MAX]) {
            let mut buf = BytesMut::new();
            write_varint(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v}");
            let mut buf = BytesMut::new();
            write_signed(&mut buf, v as i64);
            assert_eq!(signed_len(v as i64), buf.len(), "{}", v as i64);
        }
    }
}
