//! The one byte layout of [`Value`], [`Event`] and [`SnapshotBuf`].
//!
//! Snapshot files (`tilt-state`) and wire frames (`tilt-server`) both
//! build their payloads with [`Enc`] and read them back with [`Dec`], so
//! a value has exactly one serialization on disk and on the socket:
//!
//! * fixed-width little-endian integers, `f64` as its IEEE-754 bits;
//! * `Option` as a presence byte (0/1) plus the value;
//! * strings, byte slices and vectors as a `u32` count plus elements;
//! * [`Value`] as a tag byte (0 `Null`, 1 `Bool`, 2 `Int`, 3 `Float`,
//!   4 `Str`, 5 `Tuple` with a `u32` arity), nesting capped at
//!   [`MAX_VALUE_DEPTH`];
//! * [`Event`] as `start, end, payload`.
//!
//! Decoding is total: every read is bounds-checked, counts are validated
//! against the bytes actually present before anything is allocated from
//! them, and intervals must advance. Hostile bytes produce a
//! [`CodecError`], never a panic.

use std::fmt;
use std::sync::Arc;

use crate::{Event, SnapshotBuf, Time, Value};

/// Depth cap for nested [`Value::Tuple`]s — bounds decode recursion so
/// crafted bytes cannot overflow the stack.
pub const MAX_VALUE_DEPTH: usize = 16;

/// Why a byte sequence failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a fixed-width field was satisfied.
    Truncated,
    /// A count field implies more elements than the remaining bytes can
    /// possibly hold.
    BadCount,
    /// An unknown tag where a known one was required.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An event interval ended at or before its start, or a span list
    /// failed to advance strictly.
    BadInterval {
        /// The declared start (or the previous span end).
        start: i64,
        /// The declared end.
        end: i64,
    },
    /// A nested value exceeded [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// This many bytes remained after a complete payload.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadCount => write!(f, "count exceeds remaining bytes"),
            CodecError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            CodecError::BadUtf8 => write!(f, "string field is not UTF-8"),
            CodecError::BadInterval { start, end } => {
                write!(f, "non-advancing interval ({start}, {end}]")
            }
            CodecError::TooDeep => write!(f, "value nesting exceeds {MAX_VALUE_DEPTH}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only byte builder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty builder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends `Some`/`None` as a presence byte plus the value.
    pub fn opt_i64(&mut self, v: Option<i64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.i64(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends `Some`/`None` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Appends a [`Time`] as its tick count.
    pub fn time(&mut self, t: Time) {
        self.i64(t.ticks());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    /// Appends a tagged [`Value`] (tags 0–5, recursing into tuples).
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Float(x) => {
                self.u8(3);
                self.f64(*x);
            }
            Value::Str(s) => {
                self.u8(4);
                self.str(s);
            }
            Value::Tuple(items) => {
                self.u8(5);
                self.u32(items.len() as u32);
                for item in items.iter() {
                    self.value(item);
                }
            }
        }
    }

    /// Appends an event as `start, end, payload`.
    pub fn event(&mut self, e: &Event<Value>) {
        self.time(e.start);
        self.time(e.end);
        self.value(&e.payload);
    }

    /// Appends a snapshot buffer as `start, span count, (t_end, value)*`.
    pub fn ssbuf(&mut self, buf: &SnapshotBuf<Value>) {
        self.time(buf.start());
        self.u32(buf.len() as u32);
        for (iv, value) in buf.iter() {
            self.time(iv.end);
            self.value(&value);
        }
    }
}

/// Bounds-checked reader over a byte slice. Every accessor returns
/// [`CodecError`] instead of panicking, and count fields are validated
/// against the bytes actually remaining before any allocation.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A reader over `buf` positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::TrailingBytes(n)),
        }
    }

    /// Reads exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("took 2 bytes")))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("took 4 bytes")))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("took 8 bytes")))
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a presence byte plus value written by [`Enc::opt_i64`].
    pub fn opt_i64(&mut self) -> Result<Option<i64>, CodecError> {
        Ok(if self.flag()? { Some(self.i64()?) } else { None })
    }

    /// Reads a presence byte plus value written by [`Enc::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        Ok(if self.flag()? { Some(self.u64()?) } else { None })
    }

    /// Reads a [`Time`].
    pub fn time(&mut self) -> Result<Time, CodecError> {
        Ok(Time::new(self.i64()?))
    }

    /// Reads a boolean stored as 0/1; any other byte is a bad tag.
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "flag", tag }),
        }
    }

    /// Reads a count whose elements occupy at least `min_width` bytes
    /// each, rejecting hostile counts that point past the end before any
    /// allocation is sized from them.
    pub fn count(&mut self, min_width: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_width.max(1)) > self.remaining() {
            return Err(CodecError::BadCount);
        }
        Ok(n)
    }

    /// Reads a counted sequence, one element per call of `item`; the
    /// count is validated as in [`Dec::count`] before the vector is sized
    /// from it.
    pub fn seq<T>(
        &mut self,
        min_width: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(min_width)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        std::str::from_utf8(self.bytes()?).map(str::to_owned).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed raw byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// Reads a tagged [`Value`] with nesting capped at
    /// [`MAX_VALUE_DEPTH`].
    pub fn value(&mut self) -> Result<Value, CodecError> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value, CodecError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(CodecError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.flag()?)),
            2 => Ok(Value::Int(self.i64()?)),
            3 => Ok(Value::Float(self.f64()?)),
            4 => Ok(Value::Str(Arc::from(self.str()?.as_str()))),
            5 => Ok(Value::Tuple(self.seq(1, |d| d.value_at(depth + 1))?.into())),
            tag => Err(CodecError::BadTag { what: "value", tag }),
        }
    }

    /// Reads an event, rejecting empty or reversed intervals (the
    /// in-memory invariant `end > start` that `Event::new` asserts must
    /// be re-established *before* construction on hostile bytes).
    pub fn event(&mut self) -> Result<Event<Value>, CodecError> {
        let start = self.time()?;
        let end = self.time()?;
        if end <= start {
            return Err(CodecError::BadInterval { start: start.ticks(), end: end.ticks() });
        }
        let payload = self.value()?;
        Ok(Event::new(start, end, payload))
    }

    /// Reads a snapshot buffer, validating that spans advance strictly
    /// (so reconstruction cannot panic on hostile bytes).
    pub fn ssbuf(&mut self) -> Result<SnapshotBuf<Value>, CodecError> {
        let start = self.time()?;
        let n = self.count(9)?;
        let mut buf = SnapshotBuf::with_capacity(start, n);
        let mut prev = start;
        for _ in 0..n {
            let t_end = self.time()?;
            if t_end <= prev {
                return Err(CodecError::BadInterval { start: prev.ticks(), end: t_end.ticks() });
            }
            let value = self.value()?;
            buf.push_raw(t_end, value);
            prev = t_end;
        }
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeRange;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-7),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(f64::NEG_INFINITY),
            Value::Str(Arc::from("héllo")),
            Value::Tuple(vec![Value::Int(1), Value::Tuple(vec![Value::Null].into())].into()),
        ]
    }

    #[test]
    fn primitives_round_trip() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u16(65535);
        enc.u32(123456);
        enc.u64(u64::MAX);
        enc.i64(-42);
        enc.f64(-0.5);
        enc.opt_i64(None);
        enc.opt_i64(Some(9));
        enc.opt_u64(Some(11));
        enc.str("abc");
        enc.bytes(&[1, 2, 3]);
        for v in sample_values() {
            enc.value(&v);
        }
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 7);
        assert_eq!(dec.u16().unwrap(), 65535);
        assert_eq!(dec.u32().unwrap(), 123456);
        assert_eq!(dec.u64().unwrap(), u64::MAX);
        assert_eq!(dec.i64().unwrap(), -42);
        assert_eq!(dec.f64().unwrap(), -0.5);
        assert_eq!(dec.opt_i64().unwrap(), None);
        assert_eq!(dec.opt_i64().unwrap(), Some(9));
        assert_eq!(dec.opt_u64().unwrap(), Some(11));
        assert_eq!(dec.str().unwrap(), "abc");
        assert_eq!(dec.bytes().unwrap(), &[1, 2, 3]);
        for v in sample_values() {
            assert_eq!(dec.value().unwrap(), v);
        }
        dec.finish().unwrap();
    }

    /// The layout is pinned byte for byte: these literals are what the
    /// snapshot encoder wrote before the wire and disk codecs merged, so
    /// files checkpointed then still restore.
    #[test]
    fn layout_matches_the_golden_bytes() {
        let nested = Value::tuple([Value::Int(1), Value::tuple([Value::Null, Value::str("x")])]);
        let golden: [(Value, &[u8]); 7] = [
            (Value::Null, &[0]),
            (Value::Bool(true), &[1, 1]),
            (Value::Int(-7), &[2, 249, 255, 255, 255, 255, 255, 255, 255]),
            (Value::Float(3.25), &[3, 0, 0, 0, 0, 0, 0, 10, 64]),
            (Value::str("héllo"), &[4, 6, 0, 0, 0, 104, 195, 169, 108, 108, 111]),
            (
                Value::tuple([Value::Int(1), Value::Bool(false)]),
                &[5, 2, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0],
            ),
            (
                nested,
                &[5, 2, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 5, 2, 0, 0, 0, 0, 4, 1, 0, 0, 0, 120],
            ),
        ];
        for (value, bytes) in golden {
            let mut enc = Enc::new();
            enc.value(&value);
            assert_eq!(enc.into_bytes(), bytes, "{value:?}");
            assert_eq!(Dec::new(bytes).value().unwrap(), value);
        }
        // start = -5, end = 10, then (1.5, null) with a u32 arity.
        let event = Event::new(
            Time::new(-5),
            Time::new(10),
            Value::tuple([Value::Float(1.5), Value::Null]),
        );
        let bytes = [
            [251, 255, 255, 255, 255, 255, 255, 255, 10, 0, 0, 0, 0, 0, 0, 0].as_slice(),
            &[5, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 248, 63, 0],
        ]
        .concat();
        let mut enc = Enc::new();
        enc.event(&event);
        assert_eq!(enc.into_bytes(), bytes);
        assert_eq!(Dec::new(&bytes).event().unwrap(), event);

        // A snapshot buffer is `start, span count, (t_end, value)*` whatever
        // column holds its values: φ until 1, then one payload of each
        // column class until 3 and another until 4, from start = -2.
        let head: &[u8] = &[254, 255, 255, 255, 255, 255, 255, 255, 3, 0, 0, 0];
        let phi_until_1: &[u8] = &[1, 0, 0, 0, 0, 0, 0, 0, 0];
        let (until_3, until_4): (&[u8], &[u8]) =
            (&[3, 0, 0, 0, 0, 0, 0, 0], &[4, 0, 0, 0, 0, 0, 0, 0]);
        let columns: [(Value, &[u8], Value, &[u8]); 4] = [
            (
                Value::Int(-7),
                &[2, 249, 255, 255, 255, 255, 255, 255, 255],
                Value::Int(1),
                &[2, 1, 0, 0, 0, 0, 0, 0, 0],
            ),
            (
                Value::Float(3.25),
                &[3, 0, 0, 0, 0, 0, 0, 10, 64],
                Value::Float(-0.0),
                &[3, 0, 0, 0, 0, 0, 0, 0, 128],
            ),
            (Value::Bool(true), &[1, 1], Value::Bool(false), &[1, 0]),
            (Value::str("x"), &[4, 1, 0, 0, 0, 120], Value::Int(1), &[2, 1, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (x, x_bytes, y, y_bytes) in columns {
            let mut buf = SnapshotBuf::new(Time::new(-2));
            buf.push_raw(Time::new(1), Value::Null);
            buf.push_raw(Time::new(3), x);
            buf.push_raw(Time::new(4), y);
            let bytes = [head, phi_until_1, until_3, x_bytes, until_4, y_bytes].concat();
            let mut enc = Enc::new();
            enc.ssbuf(&buf);
            assert_eq!(enc.into_bytes(), bytes, "{buf:?}");
            assert_eq!(Dec::new(&bytes).ssbuf().unwrap(), buf);
        }
    }

    #[test]
    fn events_and_ssbufs_round_trip() {
        let events = vec![
            Event::new(Time::new(5), Time::new(10), Value::Float(1.0)),
            Event::new(Time::new(16), Time::new(23), Value::Float(2.0)),
        ];
        let buf = SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(30)));
        let mut enc = Enc::new();
        enc.event(&events[0]);
        enc.ssbuf(&buf);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.event().unwrap(), events[0]);
        let back = dec.ssbuf().unwrap();
        assert_eq!(back, buf);
        dec.finish().unwrap();
    }

    #[test]
    fn empty_and_reversed_intervals_are_rejected() {
        for (start, end) in [(3i64, 3i64), (5, 4)] {
            let mut enc = Enc::new();
            enc.time(Time::new(start));
            enc.time(Time::new(end));
            enc.value(&Value::Null);
            let bytes = enc.into_bytes();
            assert_eq!(Dec::new(&bytes).event(), Err(CodecError::BadInterval { start, end }));
        }
    }

    #[test]
    fn non_advancing_spans_rejected() {
        let mut enc = Enc::new();
        enc.time(Time::new(0));
        enc.u32(2);
        enc.time(Time::new(5));
        enc.value(&Value::Int(1));
        enc.time(Time::new(5)); // does not advance
        enc.value(&Value::Int(2));
        let bytes = enc.into_bytes();
        assert_eq!(Dec::new(&bytes).ssbuf(), Err(CodecError::BadInterval { start: 5, end: 5 }));
    }

    #[test]
    fn hostile_counts_and_depth_rejected() {
        // A count far beyond the remaining bytes must fail before
        // allocating.
        let mut enc = Enc::new();
        enc.u32(u32::MAX);
        let bytes = enc.into_bytes();
        assert_eq!(Dec::new(&bytes).str(), Err(CodecError::BadCount));

        // Deeply nested tuples are refused at the cap.
        let mut bytes = Vec::new();
        for _ in 0..(MAX_VALUE_DEPTH + 2) {
            bytes.push(5u8); // Tuple
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0u8); // innermost Null
        assert_eq!(Dec::new(&bytes).value(), Err(CodecError::TooDeep));
    }
}
