//! Wire-format primitives.
//!
//! A checked big-endian reader over `&[u8]` and a writer into `Vec<u8>`,
//! shared by the Music Protocol and the OpenFlow subset. All parse
//! failures are typed — a malformed frame never panics.

use std::fmt;

/// Why a frame failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes were available than the format requires.
    Truncated {
        /// Bytes needed by the next field.
        needed: usize,
        /// Bytes remaining in the buffer.
        available: usize,
    },
    /// A magic/constant field held the wrong value.
    BadMagic {
        /// Expected value.
        expected: u32,
        /// Observed value.
        found: u32,
    },
    /// An unsupported protocol version.
    BadVersion(u8),
    /// An unknown message type discriminant.
    UnknownType(u8),
    /// The header's length field disagrees with the body.
    LengthMismatch {
        /// Header-declared length.
        declared: usize,
        /// Actual length.
        actual: usize,
    },
    /// The message parsed completely but the frame holds more bytes.
    TrailingBytes {
        /// Frame offset where the message ended.
        end: usize,
        /// Bytes left over after it.
        extra: usize,
    },
    /// A message is too large for its format's length field. Encoding
    /// refuses to emit the frame — a silently wrapped length would
    /// desynchronize any byte-stream transport reading it.
    Oversize {
        /// The frame length the message would need.
        len: usize,
        /// The largest length the format can declare.
        max: usize,
    },
    /// A field held a semantically invalid value.
    InvalidField(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            WireError::BadMagic { expected, found } => {
                write!(f, "bad magic: expected {expected:#x}, found {found:#x}")
            }
            WireError::BadVersion(v) => write!(f, "unsupported version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "length mismatch: header says {declared}, body is {actual}"
                )
            }
            WireError::TrailingBytes { end, extra } => {
                write!(
                    f,
                    "trailing bytes: message ends at byte {end}, {extra} more follow"
                )
            }
            WireError::Oversize { len, max } => {
                write!(f, "oversize frame: {len} bytes exceeds the format's {max}")
            }
            WireError::InvalidField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A checked big-endian reader: a cursor over a borrowed frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read `buf` from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes, or fail with [`WireError::Truncated`].
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let field = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(field)
    }

    /// Take the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_be_bytes)
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_be_bytes)
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_be_bytes)
    }

    /// Read exactly `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<Vec<u8>, WireError> {
        self.take(n).map(<[u8]>::to_vec)
    }

    /// Error with [`WireError::TrailingBytes`] unless the frame is fully
    /// consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes {
                end: self.pos,
                extra,
            }),
        }
    }
}

/// A big-endian writer producing a frame.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.raw(&[v])
    }

    /// Append a big-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Append a big-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Append a big-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.raw(&v.to_be_bytes())
    }

    /// Append raw bytes.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish, producing the frame.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(0xAB)
            .u16(0x1234)
            .u32(0xDEADBEEF)
            .u64(0x0102030405060708);
        let frame = w.finish();
        assert_eq!(frame.len(), 15);
        let mut r = Reader::new(&frame);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.u64().unwrap(), 0x0102030405060708);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncation_is_typed() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(
            r.u32(),
            Err(WireError::Truncated {
                needed: 4,
                available: 1
            })
        );
    }

    #[test]
    fn expect_end_catches_trailing_bytes() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        assert_eq!(
            r.expect_end(),
            Err(WireError::TrailingBytes { end: 1, extra: 2 })
        );
    }

    #[test]
    fn big_endian_on_the_wire() {
        let mut w = Writer::new();
        w.u16(0x0102);
        assert_eq!(&w.finish()[..], &[0x01, 0x02]);
    }

    #[test]
    fn raw_bytes_roundtrip() {
        let mut w = Writer::new();
        w.raw(b"hello");
        let frame = w.finish();
        let mut r = Reader::new(&frame);
        assert_eq!(&r.bytes(5).unwrap()[..], b"hello");
    }

    #[test]
    fn errors_display_usefully() {
        let e = WireError::Truncated {
            needed: 8,
            available: 3,
        };
        assert!(e.to_string().contains("needed 8"));
        let e = WireError::BadMagic {
            expected: 0x4D50,
            found: 0,
        };
        assert!(e.to_string().contains("0x4d50"));
    }
}
