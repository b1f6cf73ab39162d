//! Byte encoding utilities.
//!
//! Two families live here:
//!
//! 1. **Record encoding** — a simple length-prefixed writer/reader pair
//!    ([`ByteWriter`] / [`ByteReader`]) used by the upper layers to
//!    serialize EXTRA values into heap records.
//! 2. **Order-preserving key encoding** — encodings whose unsigned
//!    byte-wise comparison matches the natural ordering of the source type,
//!    so the B+-tree can compare keys with `memcmp`. Composite keys are
//!    built by concatenating encoded components (strings are
//!    terminator-escaped so no component is a prefix of another).

use crate::error::{StorageError, StorageResult};

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Append-only record writer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// New writer with reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// Finish, yielding the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Write a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a little-endian f64.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a LEB128-style varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Write a varint length followed by the bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Write a varint length followed by UTF-8 bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Cursor over an encoded record.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading from the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Corrupt(format!(
                "record truncated: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u16.
    pub fn get_u16(&mut self) -> StorageResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> StorageResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> StorageResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Read a little-endian i64.
    pub fn get_i64(&mut self) -> StorageResult<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a little-endian f64.
    pub fn get_f64(&mut self) -> StorageResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a varint.
    pub fn get_varint(&mut self) -> StorageResult<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.get_u8()?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(StorageError::Corrupt("varint too long".into()));
            }
        }
    }

    /// Read a varint element count, refusing one larger than the bytes
    /// left: every element takes at least a byte, so a hostile count
    /// can never size an allocation past the buffer.
    pub fn get_count(&mut self) -> StorageResult<usize> {
        let n = self.get_varint()?;
        if n > self.remaining() as u64 {
            return Err(StorageError::Corrupt(format!(
                "count {n} exceeds the {} bytes left",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> StorageResult<&'a [u8]> {
        let n = self.get_varint()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> StorageResult<&'a str> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|e| StorageError::Corrupt(format!("invalid utf-8 in record: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Order-preserving key encoding
// ---------------------------------------------------------------------------

/// Builder for composite, memcmp-ordered keys.
#[derive(Default)]
pub struct KeyWriter {
    buf: Vec<u8>,
}

impl KeyWriter {
    /// New empty key.
    pub fn new() -> Self {
        KeyWriter { buf: Vec::new() }
    }

    /// Finish, yielding the key bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Encode a signed 64-bit integer: flip the sign bit, big-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf
            .extend_from_slice(&((v as u64) ^ (1u64 << 63)).to_be_bytes());
    }

    /// Encode an unsigned 64-bit integer: big-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Encode an f64 such that byte order matches total numeric order
    /// (the standard IEEE-754 trick; NaNs sort above +inf).
    pub fn put_f64(&mut self, v: f64) {
        let bits = v.to_bits();
        let ordered = if bits & (1u64 << 63) != 0 {
            !bits // negative: flip everything
        } else {
            bits | (1u64 << 63) // positive: flip sign bit
        };
        self.buf.extend_from_slice(&ordered.to_be_bytes());
    }

    /// Encode a boolean (false < true).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Encode a string with `0x00`-byte escaping and a `0x00 0x00`
    /// terminator so that `"a" < "ab"` and no key is a prefix of another.
    pub fn put_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            if b == 0 {
                self.buf.push(0);
                self.buf.push(0xFF);
            } else {
                self.buf.push(b);
            }
        }
        self.buf.push(0);
        self.buf.push(0);
    }

    /// Append pre-encoded key bytes (e.g. an ADT's own ordering encode).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Decode the next i64 component (inverse of [`KeyWriter::put_i64`]).
pub fn key_decode_i64(buf: &[u8]) -> StorageResult<(i64, &[u8])> {
    if buf.len() < 8 {
        return Err(StorageError::Corrupt("key too short for i64".into()));
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&buf[..8]);
    Ok(((u64::from_be_bytes(a) ^ (1u64 << 63)) as i64, &buf[8..]))
}

/// Decode the next f64 component (inverse of [`KeyWriter::put_f64`]).
pub fn key_decode_f64(buf: &[u8]) -> StorageResult<(f64, &[u8])> {
    if buf.len() < 8 {
        return Err(StorageError::Corrupt("key too short for f64".into()));
    }
    let mut a = [0u8; 8];
    a.copy_from_slice(&buf[..8]);
    let ordered = u64::from_be_bytes(a);
    let bits = if ordered & (1u64 << 63) != 0 {
        ordered & !(1u64 << 63)
    } else {
        !ordered
    };
    Ok((f64::from_bits(bits), &buf[8..]))
}

/// Decode the next string component (inverse of [`KeyWriter::put_str`]).
pub fn key_decode_str(buf: &[u8]) -> StorageResult<(String, &[u8])> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == 0 {
            if i + 1 >= buf.len() {
                return Err(StorageError::Corrupt("unterminated key string".into()));
            }
            match buf[i + 1] {
                0 => {
                    let s = String::from_utf8(out)
                        .map_err(|e| StorageError::Corrupt(format!("bad utf-8 in key: {e}")))?;
                    return Ok((s, &buf[i + 2..]));
                }
                0xFF => {
                    out.push(0);
                    i += 2;
                }
                other => {
                    return Err(StorageError::Corrupt(format!(
                        "bad key-string escape byte {other:#x}"
                    )))
                }
            }
        } else {
            out.push(buf[i]);
            i += 1;
        }
    }
    Err(StorageError::Corrupt("unterminated key string".into()))
}
