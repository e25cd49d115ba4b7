//! The byte codec every persisted or shipped format is written in:
//! engine checkpoints and deltas, multi-shard checkpoints and deltas,
//! user-range exports, and the `tgs-net` wire payloads.
//!
//! The rules are few and shared by all of them: integers are
//! little-endian `u64` (`usize` widens losslessly and narrows checked),
//! floats are `f64` by bit pattern (so factors round-trip exactly),
//! booleans are one `0`/`1` byte, and strings, byte blobs and numeric
//! slices are `u64`-count-prefixed. A [`Writer`] appends to a `Vec`; a
//! [`Reader`] walks a borrowed slice and bounds-checks every access, so
//! hostile bytes surface as a [`CodecError`], never a panic. Counts are
//! checked against the bytes still unread *before* anything is
//! allocated for them.

use tgs_linalg::DenseMatrix;

use crate::TgsError;

/// A truncated or malformed field. Converts with `?` into
/// [`TgsError::CorruptCheckpoint`] for engine formats and into a `String`
/// for wire payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for TgsError {
    fn from(e: CodecError) -> Self {
        TgsError::corrupt(e.0)
    }
}

impl From<CodecError> for String {
    fn from(e: CodecError) -> Self {
        e.0
    }
}

impl TgsError {
    /// Convenience constructor for [`TgsError::CorruptCheckpoint`].
    pub fn corrupt(detail: impl Into<String>) -> Self {
        TgsError::CorruptCheckpoint {
            detail: detail.into(),
        }
    }
}

/// Appends fields to a growable buffer in the codec's layout.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Unprefixed bytes that run to the end of the input (read back
    /// with [`Reader::rest`]).
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// An 8-byte format magic (format name plus version), unprefixed.
    pub fn magic(&mut self, magic: &[u8; 8]) {
        self.buf.extend_from_slice(magic);
    }

    /// One raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// One `0`/`1` byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed byte blob.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Count-prefixed `f64` slice.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Count-prefixed `usize` slice (each widened).
    pub fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    /// A dense matrix: `rows | cols | rows × cols f64`, row-major.
    pub fn matrix(&mut self, m: &DenseMatrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for &v in m.as_slice() {
            self.f64(v);
        }
    }
}

/// Bounds-checked cursor over a borrowed byte slice. Every accessor names
/// the field it reads (`what`) so a failure says where the bytes went
/// wrong.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated {what}: need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn word(&mut self, what: &str) -> Result<[u8; 8], CodecError> {
        Ok(self.take(8, what)?.try_into().expect("took 8 bytes"))
    }

    /// Checks an 8-byte format magic (format name plus version).
    pub fn magic(&mut self, magic: &[u8; 8]) -> Result<(), CodecError> {
        let found = self.take(magic.len(), "magic header")?;
        if found != magic {
            return Err(CodecError(format!(
                "unrecognized magic header: expected \"{}\", found \"{}\" \
                 (another format, or a newer version)",
                magic.escape_ascii(),
                found.escape_ascii()
            )));
        }
        Ok(())
    }

    /// One raw byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, CodecError> {
        self.word(what).map(u64::from_le_bytes)
    }

    /// `u64` narrowed to `usize`.
    pub fn usize(&mut self, what: &str) -> Result<usize, CodecError> {
        let v = self.u64(what)?;
        usize::try_from(v).map_err(|_| CodecError(format!("{what} {v} exceeds usize")))
    }

    /// `f64` by bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, CodecError> {
        self.word(what).map(f64::from_le_bytes)
    }

    /// One `0`/`1` byte; any other value is malformed.
    pub fn bool(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError(format!("{what}: {v} is not a boolean byte"))),
        }
    }

    /// An element count, rejected unless `count × elem_floor` bytes are
    /// still unread — each element needs at least `elem_floor` bytes, so
    /// a hostile count cannot trigger a huge allocation.
    pub fn count(&mut self, elem_floor: usize, what: &str) -> Result<usize, CodecError> {
        let n = self.usize(what)?;
        if n.saturating_mul(elem_floor.max(1)) > self.remaining() {
            return Err(CodecError(format!(
                "implausible {what}: {n} elements of at least {} bytes, {} remain",
                elem_floor.max(1),
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Length-prefixed byte blob, borrowed from the input.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], CodecError> {
        let n = self.count(1, what)?;
        self.take(n, what)
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, CodecError> {
        let raw = self.bytes(what)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| CodecError(format!("{what} is not UTF-8")))
    }

    /// Count-prefixed `f64` slice.
    pub fn f64s(&mut self, what: &str) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8, what)?;
        self.f64_block(n, what)
    }

    /// Count-prefixed `usize` slice.
    pub fn usizes(&mut self, what: &str) -> Result<Vec<usize>, CodecError> {
        let n = self.count(8, what)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.usize(what)?);
        }
        Ok(v)
    }

    /// Exactly `n` unprefixed `f64`s, bounds-checked once as a block.
    fn f64_block(&mut self, n: usize, what: &str) -> Result<Vec<f64>, CodecError> {
        let block = self.take(n.saturating_mul(8), what)?;
        Ok(block
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect())
    }

    /// A dense matrix written by [`Writer::matrix`]; the shape is checked
    /// against the bytes still unread before the data is allocated.
    pub fn matrix(&mut self, what: &str) -> Result<DenseMatrix, CodecError> {
        let rows = self.usize(what)?;
        let cols = self.usize(what)?;
        let n = rows
            .checked_mul(cols)
            .filter(|&n| n.saturating_mul(8) <= self.remaining())
            .ok_or_else(|| {
                CodecError(format!(
                    "implausible {what} shape {rows}×{cols}: {} bytes remain",
                    self.remaining()
                ))
            })?;
        let data = self.f64_block(n, what)?;
        DenseMatrix::from_vec(rows, cols, data).map_err(|e| CodecError(format!("{what}: {e}")))
    }

    /// Every unread byte: a blob written by [`Writer::raw`].
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    /// Fails unless every byte was consumed.
    pub fn done(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError(format!(
                "{n} trailing bytes after the final field"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_roundtrip_exactly() {
        let m = DenseMatrix::from_vec(2, 2, vec![1.5, -0.0, f64::MIN_POSITIVE, 7.0]).unwrap();
        let mut w = Writer::new();
        w.magic(b"TESTFMT\x01");
        w.u8(7);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(-2.5);
        w.bool(true);
        w.bytes(b"raw");
        w.str("héllo");
        w.f64s(&[0.25, 0.75]);
        w.usizes(&[3, 1, 4]);
        w.matrix(&m);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        r.magic(b"TESTFMT\x01").unwrap();
        assert_eq!(r.u8("u8").unwrap(), 7);
        assert_eq!(r.u64("u64").unwrap(), u64::MAX);
        assert_eq!(r.usize("usize").unwrap(), 42);
        assert_eq!(r.f64("f64").unwrap(), -2.5);
        assert!(r.bool("bool").unwrap());
        assert_eq!(r.bytes("bytes").unwrap(), b"raw");
        assert_eq!(r.str("str").unwrap(), "héllo");
        assert_eq!(r.f64s("f64s").unwrap(), vec![0.25, 0.75]);
        assert_eq!(r.usizes("usizes").unwrap(), vec![3, 1, 4]);
        assert_eq!(r.matrix("matrix").unwrap(), m);
        r.done().unwrap();
    }

    #[test]
    fn malformed_fields_are_errors_not_panics() {
        assert!(Reader::new(b"short").u64("u64").is_err());
        assert!(Reader::new(b"NOTMAGIC").magic(b"TESTFMT\x01").is_err());
        assert!(Reader::new(&[2]).bool("flag").is_err());
        let mut huge = Writer::new();
        huge.u64(u64::MAX);
        assert!(Reader::new(&huge.finish()).count(1, "count").is_err());
        let mut bad_utf8 = Writer::new();
        bad_utf8.bytes(&[0xff]);
        assert!(Reader::new(&bad_utf8.finish()).str("str").is_err());
        let mut shape = Writer::new();
        shape.u64(u64::MAX);
        shape.u64(2);
        assert!(Reader::new(&shape.finish()).matrix("matrix").is_err());
        let r = Reader::new(&[0]);
        assert!(r.done().is_err());
    }

    #[test]
    fn errors_convert_for_both_consumers() {
        let e = Reader::new(&[]).u8("tag").unwrap_err();
        let as_string: String = e.clone().into();
        assert!(as_string.contains("tag"));
        assert!(matches!(
            TgsError::from(e),
            TgsError::CorruptCheckpoint { .. }
        ));
    }
}
