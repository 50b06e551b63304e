//! Length-prefixed frames and primitive field encoding.
//!
//! Every COI message is one frame: a little-endian `u32` length followed
//! by that many payload bytes.  Frames travel on the byte-exact SCIF lane;
//! bulk content (binaries, buffer data) travels on the timed lane between
//! frames.

use vphi_scif::{Scif, ScifError, ScifResult};
use vphi_sim_core::Timeline;

/// Maximum sane frame size — a corrupted length prefix fails fast instead
/// of blocking forever on a bogus read.
pub const MAX_FRAME: u32 = 1 << 20;

/// Send one frame.
pub fn write_frame(t: &dyn Scif, payload: &[u8], tl: &mut Timeline) -> ScifResult<()> {
    if payload.len() as u32 > MAX_FRAME {
        return Err(ScifError::Inval);
    }
    let len = (payload.len() as u32).to_le_bytes();
    t.send(&len, tl)?;
    t.send(payload, tl)?;
    Ok(())
}

/// Receive one frame (blocking).  `Ok(None)` on clean EOF.
pub fn read_frame(t: &dyn Scif, tl: &mut Timeline) -> ScifResult<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    let n = t.recv(&mut len_bytes, tl)?;
    if n == 0 {
        return Ok(None);
    }
    if n < 4 {
        return Err(ScifError::ConnReset);
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(ScifError::Inval);
    }
    let mut payload = vec![0u8; len as usize];
    if len > 0 {
        let n = t.recv(&mut payload, tl)?;
        if n < len as usize {
            return Err(ScifError::ConnReset);
        }
    }
    Ok(Some(payload))
}

/// Field writer used by the protocol codec.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        let bytes = s.as_bytes();
        self.u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
        self
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Field reader used by the protocol codec.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> ScifResult<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return Err(ScifError::Inval);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> ScifResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> ScifResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> ScifResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn f64(&mut self) -> ScifResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn str(&mut self) -> ScifResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ScifError::Inval)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7).u32(1234).u64(u64::MAX).f64(3.5).str("dgemm_mic");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 1234);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap(), 3.5);
        assert_eq!(r.str().unwrap(), "dgemm_mic");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut w = ByteWriter::new();
        w.str("hello");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert!(r.str().is_err());
        let mut r = ByteReader::new(&[]);
        assert!(r.u8().is_err());
        assert!(r.u64().is_err());
    }

    #[test]
    fn empty_and_unicode_strings() {
        let mut w = ByteWriter::new();
        w.str("").str("αβγ-mic0");
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.str().unwrap(), "");
        assert_eq!(r.str().unwrap(), "αβγ-mic0");
    }
}
