//! Minimal binary codec helpers.
//!
//! The log-record format, page layouts and the row codec all need byte-stable
//! little-endian serialization with explicit bounds checking (a half-written
//! log tail must fail to decode, not panic). These helpers are the single
//! shared implementation.

use crate::{Error, Result};

/// Sequential writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// New writer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// New writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// New writer appending to an existing buffer (its contents are kept).
    /// Lets callers serialize into a reusable scratch buffer without an
    /// allocation per record.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        ByteWriter { buf }
    }

    /// Consume the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32` length prefix followed by the bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_raw(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Sequential bounds-checked reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// New reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes remaining to be read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the reader has consumed all input.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::corruption(format!(
                "decode underrun: wanted {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(array_at(self.take(2)?, 0)))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(array_at(self.take(4)?, 0)))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(array_at(self.take(8)?, 0)))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(array_at(self.take(8)?, 0)))
    }

    /// Read a little-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(array_at(self.take(8)?, 0)))
    }

    /// Read `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Read a `u32`-length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str> {
        let b = self.get_bytes()?;
        std::str::from_utf8(b).map_err(|_| Error::corruption("invalid utf-8 string"))
    }
}

/// Copy `N` bytes at `off` out of `buf` into an array — the shared core
/// of every fixed-width read. Infallible by construction (no
/// `try_into().unwrap()`): the subslice is exactly `N` long, so
/// `copy_from_slice` cannot mismatch; out-of-range offsets trip the slice
/// bounds check, which is the caller's contract everywhere this is used
/// (frame readers length-check before decoding).
#[inline]
pub fn array_at<const N: usize>(buf: &[u8], off: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&buf[off..off + N]);
    a
}

/// Read a little-endian `u16` at a fixed offset in a buffer (page headers).
#[inline]
pub fn read_u16_at(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(array_at(buf, off))
}

/// Write a little-endian `u16` at a fixed offset in a buffer.
#[inline]
pub fn write_u16_at(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u32` at a fixed offset in a buffer.
#[inline]
pub fn read_u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(array_at(buf, off))
}

/// Write a little-endian `u32` at a fixed offset in a buffer.
#[inline]
pub fn write_u32_at(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Read a little-endian `u64` at a fixed offset in a buffer.
#[inline]
pub fn read_u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(array_at(buf, off))
}

/// Write a little-endian `u64` at a fixed offset in a buffer.
#[inline]
pub fn write_u64_at(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(1.5);
        w.put_bytes(b"hello");
        w.put_str("world");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), 1.5);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "world");
        assert!(r.is_exhausted());
    }

    #[test]
    fn underrun_is_an_error_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        let mut r = ByteReader::new(&[4, 0, 0, 0, 1]); // claims 4 bytes, has 1
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn fixed_offset_helpers() {
        let mut buf = vec![0u8; 32];
        write_u16_at(&mut buf, 3, 777);
        write_u32_at(&mut buf, 8, 123_456);
        write_u64_at(&mut buf, 16, u64::MAX / 7);
        assert_eq!(read_u16_at(&buf, 3), 777);
        assert_eq!(read_u32_at(&buf, 8), 123_456);
        assert_eq!(read_u64_at(&buf, 16), u64::MAX / 7);
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_str().is_err());
    }
}
