//! Length-prefixed frames and primitive field encoding.
//!
//! Every COI message is one frame: a little-endian `u32` length followed
//! by that many payload bytes.  Frames travel on the byte-exact SCIF lane;
//! bulk content (binaries, buffer data) travels on the timed lane between
//! frames.

use vphi::protocol::{Put, Take};
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

/// A frame's writer: each field at its native width, little-endian (the
/// protocol's [`Put`] impls).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A frame's reader, the inverse of [`ByteWriter`] (the protocol's
/// [`Take`] impls).
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// The next `n` bytes; `None` past the frame.
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.at..)?.get(..n)?;
        self.at += n;
        Some(s)
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }
}

macro_rules! le_fields {
    ($($t:ty),*) => {$(
        impl Put<$t> for ByteWriter {
            fn put(&mut self, v: &$t) {
                self.buf.extend_from_slice(&v.to_le_bytes());
            }
        }

        impl Take<$t> for ByteReader<'_> {
            fn take(&mut self) -> Option<$t> {
                Some(<$t>::from_le_bytes(self.bytes(size_of::<$t>())?.try_into().ok()?))
            }
        }
    )*};
}
le_fields!(u8, u32, u64, i32, f64);

/// A string is its `u32` byte length, then its UTF-8 bytes.
impl Put<String> for ByteWriter {
    fn put(&mut self, s: &String) {
        self.put(&(s.len() as u32));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

impl Take<String> for ByteReader<'_> {
    fn take(&mut self) -> Option<String> {
        let len: u32 = self.take()?;
        String::from_utf8(self.bytes(len as usize)?.to_vec()).ok()
    }
}

/// A list is its `u32` count, then its items.
impl Put<Vec<u64>> for ByteWriter {
    fn put(&mut self, items: &Vec<u64>) {
        self.put(&(items.len() as u32));
        items.iter().for_each(|item| self.put(item));
    }
}

impl Take<Vec<u64>> for ByteReader<'_> {
    fn take(&mut self) -> Option<Vec<u64>> {
        let n: u32 = self.take()?;
        // The count is guest input: refuse one the frame cannot hold
        // before sizing anything by it.
        if n as usize > self.remaining() / 8 {
            return None;
        }
        let mut items = Vec::with_capacity(n as usize);
        for _ in 0..n {
            items.push(self.take()?);
        }
        Some(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.put(&7u8);
        w.put(&1234u32);
        w.put(&u64::MAX);
        w.put(&-9i32);
        w.put(&3.5f64);
        w.put(&String::from("dgemm_mic"));
        w.put(&vec![1u64, u64::MAX]);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take(), Some(7u8));
        assert_eq!(r.take(), Some(1234u32));
        assert_eq!(r.take(), Some(u64::MAX));
        assert_eq!(r.take(), Some(-9i32));
        assert_eq!(r.take(), Some(3.5f64));
        assert_eq!(r.take(), Some(String::from("dgemm_mic")));
        assert_eq!(r.take(), Some(vec![1u64, u64::MAX]));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_truncation() {
        let mut w = ByteWriter::new();
        w.put(&String::from("hello"));
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        assert_eq!(Take::<String>::take(&mut r), None);
        let mut r = ByteReader::new(&[]);
        assert_eq!(Take::<u8>::take(&mut r), None);
        assert_eq!(Take::<u64>::take(&mut r), None);
    }

    #[test]
    fn empty_and_unicode_strings() {
        let mut w = ByteWriter::new();
        w.put(&String::new());
        w.put(&String::from("αβγ-mic0"));
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take(), Some(String::new()));
        assert_eq!(r.take(), Some(String::from("αβγ-mic0")));
    }
}
