//! The binary codec toolkit every wire and disk format of the workspace is
//! built from.
//!
//! One byte order (big-endian, network order) and one implementation of
//! the encodings the crates share:
//!
//! * fixed-width integers and `f64` (as its IEEE-754 bits);
//! * [`Path`] as `[u8 len][u64 bits]`, the bits left-aligned;
//! * `DataEntry` lists as `[u32 count]` then `count × [u64 key][u64 id]`;
//! * strings and byte blobs as `[u32 len][len bytes]`;
//! * [`LogHistogram`]s in their sparse form:
//!   `[u32 n] n × [u16 bucket][u64 count]` then `[u64 sum][u64 max]`.
//!
//! [`Writer`] appends to a `Vec<u8>`; [`Reader`] consumes a `&[u8]` and
//! reports every failure as a [`WireError`].  Decoders built on the reader
//! are total: every count is read through [`Reader::count`], which enforces
//! the caller's cap *and* rejects a count whose smallest possible encoding
//! would not fit in the bytes left, so no input can make a decoder allocate
//! more than a constant factor of its own length.

use crate::histogram::{LogHistogram, NUM_BUCKETS};
use crate::key::{DataEntry, DataId, Key};
use crate::path::{Path, MAX_PATH_LEN};

/// Encoded size of one `DataEntry` (key + id).
const ENTRY_BYTES: usize = 16;

/// Encoded size of one [`Path`] (length byte + bits).
pub const PATH_BYTES: usize = 9;

/// Encoded size of one sparse histogram bucket (index + count).
const BUCKET_BYTES: usize = 10;

/// Smallest encoding of a histogram (no buckets, then sum and max).
pub const HISTOGRAM_MIN_BYTES: usize = 4 + 2 * 8;

/// Cap for [`Reader::count`] when the format sets none: the count is then
/// bounded by the input length alone.
pub const NO_CAP: usize = usize::MAX;

/// Why a byte sequence could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended inside a field.
    Truncated,
    /// A count prefix exceeds its cap, or its items cannot fit in the
    /// bytes left.
    Count(u64),
    /// Bytes were left over after a complete value.
    Trailing(usize),
    /// A field holds a value the format does not allow.
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Count(n) => write!(f, "count {n} exceeds its bound or the input"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Shorthand for decode results.
pub type WireResult<T> = Result<T, WireError>;

/// Big-endian encoder appending to a `Vec<u8>`.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (`0` or `1`).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends raw bytes (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` count prefix.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit in a `u32`.
    pub fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("count exceeds u32"));
    }

    /// Appends a length-prefixed byte blob.
    pub fn blob(&mut self, bytes: &[u8]) {
        self.count(bytes.len());
        self.raw(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.blob(s.as_bytes());
    }

    /// Appends a path: length byte, then the bits left-aligned in a `u64`.
    pub fn path(&mut self, path: &Path) {
        self.u8(path.len() as u8);
        self.u64(path.lower_key().0);
    }

    /// Appends a counted list of entries.
    pub fn entries(&mut self, entries: &[DataEntry]) {
        self.count(entries.len());
        for e in entries {
            self.u64(e.key.0);
            self.u64(e.id.0);
        }
    }

    /// Appends a histogram in its sparse form.
    pub fn histogram(&mut self, histogram: &LogHistogram) {
        let sparse = histogram.sparse_buckets();
        self.count(sparse.len());
        for (bucket, count) in sparse {
            self.u16(bucket);
            self.u64(count);
        }
        self.u64(histogram.sum());
        self.u64(histogram.max());
    }
}

/// Big-endian decoder consuming a byte slice.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Succeeds only when every byte has been consumed.
    pub fn finish(self) -> WireResult<()> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }

    /// Consumes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> WireResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Consumes a fixed-size array.
    pub fn array<const N: usize>(&mut self) -> WireResult<[u8; N]> {
        let bytes = self.bytes(N)?;
        Ok(bytes.try_into().expect("length checked"))
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        let (&v, tail) = self.buf.split_first().ok_or(WireError::Truncated)?;
        self.buf = tail;
        Ok(v)
    }

    /// Reads a `bool` (any non-zero byte is `true`).
    pub fn bool(&mut self) -> WireResult<bool> {
        Ok(self.u8()? != 0)
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> WireResult<u16> {
        self.array().map(u16::from_be_bytes)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        self.array().map(u32::from_be_bytes)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        self.array().map(u64::from_be_bytes)
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> WireResult<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32` count prefix of items that each take at least
    /// `min_item_bytes` bytes.  Rejects a count above `cap` or one whose
    /// items cannot fit in the bytes left, so `Vec::with_capacity(count)`
    /// is bounded by the input length.
    pub fn count(&mut self, cap: usize, min_item_bytes: usize) -> WireResult<usize> {
        debug_assert!(
            min_item_bytes > 0,
            "a count of zero-size items is unbounded"
        );
        let n = self.u32()? as usize;
        if n > cap || n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(WireError::Count(n as u64));
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte blob of at most `cap` bytes.
    pub fn blob(&mut self, cap: usize) -> WireResult<&'a [u8]> {
        let len = self.count(cap, 1)?;
        self.bytes(len)
    }

    /// Reads a length-prefixed UTF-8 string of at most `cap` bytes.
    pub fn string(&mut self, cap: usize) -> WireResult<String> {
        let bytes = self.blob(cap)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Invalid(format!("non-utf8 string: {e}")))
    }

    /// Reads a path written by [`Writer::path`].  Bits past the length are
    /// ignored.
    pub fn path(&mut self) -> WireResult<Path> {
        let len = self.u8()? as usize;
        if len > MAX_PATH_LEN {
            return Err(WireError::Invalid(format!(
                "path length {len} exceeds {MAX_PATH_LEN}"
            )));
        }
        let bits = self.u64()?;
        Ok(Path::from_left_aligned(bits, len))
    }

    /// Reads a counted list of at most `cap` entries.
    pub fn entries(&mut self, cap: usize) -> WireResult<Vec<DataEntry>> {
        let n = self.count(cap, ENTRY_BYTES)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let key = Key(self.u64()?);
            let id = DataId(self.u64()?);
            entries.push(DataEntry::new(key, id));
        }
        Ok(entries)
    }

    /// Reads a histogram written by [`Writer::histogram`].
    pub fn histogram(&mut self) -> WireResult<LogHistogram> {
        let n = self.count(NUM_BUCKETS, BUCKET_BYTES)?;
        let mut sparse = Vec::with_capacity(n);
        for _ in 0..n {
            sparse.push((self.u16()?, self.u64()?));
        }
        let sum = self.u64()?;
        let max = self.u64()?;
        Ok(LogHistogram::from_sparse(&sparse, sum, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut w = Writer::default();
        w.u8(1);
        w.u16(0x0203);
        w.u32(0x0405_0607);
        w.u64(0x0809_0a0b_0c0d_0e0f);
        let bytes = w.into_vec();
        assert_eq!(bytes, (1..=15).collect::<Vec<u8>>());
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(0x0203));
        assert_eq!(r.u32(), Ok(0x0405_0607));
        assert_eq!(r.u64(), Ok(0x0809_0a0b_0c0d_0e0f));
        assert_eq!(r.u8(), Err(WireError::Truncated));
        r.finish().unwrap();
    }

    #[test]
    fn compound_encodings_round_trip() {
        let entries = vec![
            DataEntry::new(Key(3), DataId(4)),
            DataEntry::new(Key(u64::MAX), DataId(0)),
        ];
        let mut h = LogHistogram::new();
        for v in [0u64, 7, 900, 1 << 40] {
            h.record(v);
        }
        let mut w = Writer::default();
        w.path(&Path::parse("10110"));
        w.path(&Path::root());
        w.entries(&entries);
        w.str("héllo");
        w.histogram(&h);
        w.f64(-2.5);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.path(), Ok(Path::parse("10110")));
        assert_eq!(r.path(), Ok(Path::root()));
        assert_eq!(r.entries(NO_CAP), Ok(entries));
        assert_eq!(r.string(64).as_deref(), Ok("héllo"));
        assert_eq!(r.histogram(), Ok(h));
        assert_eq!(r.f64(), Ok(-2.5));
        r.finish().unwrap();
    }

    #[test]
    fn path_bits_past_the_length_are_ignored() {
        let bytes = [2u8, 0b0111_1111, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff];
        assert_eq!(Reader::new(&bytes).path(), Ok(Path::parse("01")));
        let too_long = [65u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Reader::new(&too_long).path(),
            Err(WireError::Invalid(_))
        ));
    }

    #[test]
    fn counts_are_bounded_by_cap_and_input() {
        // Over the cap.
        let mut r = Reader::new(&[0, 0, 0, 5, 0, 0, 0, 0, 0]);
        assert_eq!(r.count(4, 1), Err(WireError::Count(5)));
        // Under the cap but larger than the bytes left could hold.
        let mut r = Reader::new(&[0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.count(100, 8), Err(WireError::Count(2)));
        let mut r = Reader::new(&[0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(r.count(100, 8), Ok(1));
        // A u32::MAX count of histogram buckets is rejected before any
        // allocation.
        let mut r = Reader::new(&[0xff, 0xff, 0xff, 0xff]);
        assert_eq!(r.histogram(), Err(WireError::Count(u32::MAX as u64)));
    }

    #[test]
    fn trailing_bytes_fail_finish() {
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing(1)));
    }
}
