//! The one bounded reader of bytes from outside the process: every
//! decoder in the workspace reads its input through a [`Reader`]. A length
//! or count read from the input is only the input's claim, so a read past
//! the end is an error, and [`Reader::count`] refuses a count the bytes
//! that follow cannot back, before anything is sized from it. All
//! multi-byte values are little-endian.

use std::fmt;
use std::io;

/// A read the remaining bytes cannot satisfy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadError {
    /// Bytes the read wanted (for a refused count, the least its elements
    /// occupy, saturating). `0` when [`Reader::finish`] found bytes left
    /// over instead.
    pub wanted: usize,
    /// Offset of the read in the reader's buffer.
    pub at: usize,
    /// Bytes that remained at that offset.
    pub have: usize,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ReadError { wanted, at, have } = self;
        match wanted {
            0 => write!(f, "{have} trailing bytes at offset {at}"),
            _ => write!(f, "wanted {wanted} bytes at offset {at}, have {have}"),
        }
    }
}

impl std::error::Error for ReadError {}

/// A short input is `UnexpectedEof`, as `Read::read_exact` reports it;
/// leftover bytes are `InvalidData`.
impl From<ReadError> for io::Error {
    fn from(e: ReadError) -> io::Error {
        match e.wanted {
            0 => io::Error::new(io::ErrorKind::InvalidData, e),
            _ => io::Error::new(io::ErrorKind::UnexpectedEof, e),
        }
    }
}

/// `Reader::$t`: one little-endian `$t` per type named.
macro_rules! le_reads {
    ($($t:ident),*) => {$(
        #[doc = concat!("A little-endian `", stringify!($t), "`.")]
        #[inline]
        pub fn $t(&mut self) -> Result<$t, ReadError> {
            self.array().map($t::from_le_bytes)
        }
    )*};
}

/// A cursor over a byte slice. Every read either returns what it asked
/// for and advances, or fails with a [`ReadError`] and leaves the cursor
/// where it was.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    #[cold]
    #[inline(never)]
    fn short(&self, wanted: usize) -> ReadError {
        ReadError {
            wanted,
            at: self.pos,
            have: self.remaining(),
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        let bytes = self.rest().get(..n).ok_or_else(|| self.short(n))?;
        self.pos += n;
        Ok(bytes)
    }

    /// Skips `n` bytes — those a decoder handed [`Reader::rest`] to has
    /// already consumed.
    #[inline]
    pub fn advance(&mut self, n: usize) -> Result<(), ReadError> {
        self.take(n).map(|_| ())
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let bytes = *self.rest().first_chunk().ok_or_else(|| self.short(N))?;
        self.pos += N;
        Ok(bytes)
    }

    le_reads!(u8, u16, u32, u64, f32, f64);

    /// `n` as a `usize`, if the remaining bytes can hold `n` elements of
    /// at least `min_bytes_each` bytes (taken as 1 if 0); consumes
    /// nothing. Every count an input declares passes here before anything
    /// is sized from it.
    #[inline]
    pub fn count(&self, n: u64, min_bytes_each: usize) -> Result<usize, ReadError> {
        let least = n.saturating_mul(min_bytes_each.max(1) as u64);
        if least > self.remaining() as u64 {
            return Err(self.short(usize::try_from(least).unwrap_or(usize::MAX)));
        }
        Ok(n as usize)
    }

    /// `n` values of at least `min_bytes_each` bytes, each read by
    /// `read`; [`Reader::count`] checks `n` before the vector is sized.
    #[inline]
    pub fn vec<T, E: From<ReadError>>(
        &mut self,
        n: u64,
        min_bytes_each: usize,
        mut read: impl FnMut(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.count(n, min_bytes_each)?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(read(self)?);
        }
        Ok(values)
    }

    /// `n` little-endian `f32`s, `n` checked by [`Reader::count`] first.
    #[inline]
    pub fn f32s(&mut self, n: u64) -> Result<Vec<f32>, ReadError> {
        self.records(n, |b| f32::from_le_bytes(*b))
    }

    /// `n` little-endian `f64`s, `n` checked by [`Reader::count`] first.
    #[inline]
    pub fn f64s(&mut self, n: u64) -> Result<Vec<f64>, ReadError> {
        self.records(n, |b| f64::from_le_bytes(*b))
    }

    /// `n` records of `N` bytes, each converted by `value` in one pass
    /// over their bytes; `n` checked by [`Reader::count`] first.
    #[inline]
    pub fn records<const N: usize, T>(
        &mut self,
        n: u64,
        value: impl Fn(&[u8; N]) -> T,
    ) -> Result<Vec<T>, ReadError> {
        let bytes = self.take(self.count(n, N)? * N)?;
        Ok(bytes.as_chunks().0.iter().map(value).collect())
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The unconsumed tail.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Succeeds only when every byte was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(self.short(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_are_little_endian_and_advance() {
        let bytes = [1, 2, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.remaining(), 9);
        assert_eq!(r.take(1).unwrap(), [0]);
        assert_eq!(r.f64().unwrap(), 1.0);
        r.finish().unwrap();
    }

    #[test]
    fn an_overrun_reports_where_and_what_and_moves_nothing() {
        let mut r = Reader::new(&[1, 2, 3]);
        r.u8().unwrap();
        let e = r.u64().unwrap_err();
        assert_eq!(
            e,
            ReadError {
                wanted: 8,
                at: 1,
                have: 2
            }
        );
        assert_eq!(r.take(usize::MAX).unwrap_err().at, 1);
        assert_eq!(r.rest(), [2, 3]);
        let trailing = r.finish().unwrap_err();
        assert_eq!(trailing.wanted, 0);
        assert_eq!(io::Error::from(trailing).kind(), io::ErrorKind::InvalidData);
        assert_eq!(io::Error::from(e).kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn a_count_is_refused_unless_the_bytes_can_hold_it() {
        let r = Reader::new(&[0; 12]);
        assert_eq!(r.count(3, 4), Ok(3));
        assert_eq!(r.count(12, 0), Ok(12));
        let e = r.count(4, 4).unwrap_err();
        assert_eq!((e.wanted, e.have), (16, 12));
        assert_eq!(r.count(u64::MAX, 48).unwrap_err().wanted, usize::MAX);
        let mut r = Reader::new(&[1, 0, 2, 0]);
        assert_eq!(r.vec(2, 2, Reader::u16), Ok(vec![1, 2]));
        assert_eq!(r.vec(1, 1, Reader::u8).unwrap_err().have, 0);
        let mut r = Reader::new(&[0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0]);
        assert_eq!(r.f32s(2), Ok(vec![1.0, -2.0]));
        assert_eq!(Reader::new(&[0; 12]).f64s(2).unwrap_err().wanted, 16);
    }
}
