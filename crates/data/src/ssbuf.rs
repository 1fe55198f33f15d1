//! Snapshot buffers: the physical encoding of temporal objects (paper §6.1.1).
//!
//! A temporal object is a piecewise-constant function of time. A
//! [`SnapshotBuf`] stores only the *changes* of that function, as flat
//! parallel columns: `ends[i]` is the inclusive end of span *i*, which
//! carries its value over `(ends[i-1], ends[i]]` (the first span starts at
//! the buffer's start time). Gaps — times with no active event — are
//! explicit φ spans, exactly as in Fig. 5 of the paper.
//!
//! Values live in **one typed column chosen by the data**: the first non-φ
//! payload fixes the class — `i64`, `f64` or `bool`, stored unboxed — and φ
//! lives out of band in a word-level [`NullMask`] beside it, so a kernel
//! reads a buffer as plain slices ([`SnapshotBuf::ends`],
//! [`SnapshotBuf::column`], [`SnapshotBuf::nulls`]) and skips φ a mask word
//! at a time. `Str`/`Tuple` payloads, and streams that mix classes, use a
//! boxed [`Value`] column instead; a typed buffer that meets a payload of
//! another class is *demoted* to it (one copy, every span preserved). The
//! representation is not observable through equality or the byte codec: an
//! `i64` column equals a boxed column holding the same `Int`s.

use std::fmt;

use crate::{Event, NullMask, Time, TimeRange, Value};

/// One entry of a snapshot buffer, materialized: `value` holds until
/// `t_end` (inclusive). Buffers store columns, not spans; see
/// [`SnapshotBuf::spans`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span<P> {
    /// Inclusive end of the span.
    pub t_end: Time,
    /// The value over the span.
    pub value: P,
}

/// The value column of a snapshot buffer. Slots of φ spans hold a
/// placeholder (`0`, `0.0`, `false`, `Value::Null`) or, in kernel outputs,
/// whatever the lane computed; the buffer's [`NullMask`] is the authority.
#[derive(Clone, Debug)]
enum Vals<P> {
    /// No payload has fixed the class: every span so far is φ. Allocates
    /// nothing.
    None,
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// `Str`/`Tuple` payloads and mixed-class streams.
    Boxed(Vec<P>),
}

/// A borrowed view of a buffer's value column, one slice per class. Slot
/// `i` is meaningful only where [`SnapshotBuf::nulls`] is clear.
#[derive(Clone, Copy, Debug)]
pub enum ColumnRef<'a> {
    /// Every span is φ.
    Null,
    /// Unboxed integers.
    I64(&'a [i64]),
    /// Unboxed floats.
    F64(&'a [f64]),
    /// Unboxed booleans.
    Bool(&'a [bool]),
    /// Boxed payloads (φ slots hold [`Value::Null`]).
    Boxed(&'a [Value]),
}

impl ColumnRef<'_> {
    /// Slot `i` as a float, coercing integers exactly as [`Value::as_f64`]
    /// does; `None` for any other class. The caller has checked the mask.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            ColumnRef::F64(v) => Some(v[i]),
            ColumnRef::I64(v) => Some(v[i] as f64),
            ColumnRef::Boxed(v) => v[i].as_f64(),
            ColumnRef::Bool(_) | ColumnRef::Null => None,
        }
    }

    /// Slot `i` as an integer; `None` for any other class.
    #[inline]
    pub fn i64_at(&self, i: usize) -> Option<i64> {
        match self {
            ColumnRef::I64(v) => Some(v[i]),
            ColumnRef::Boxed(v) => v[i].as_i64(),
            _ => None,
        }
    }

    /// Slot `i` as a boolean; `None` for any other class.
    #[inline]
    pub fn bool_at(&self, i: usize) -> Option<bool> {
        match self {
            ColumnRef::Bool(v) => Some(v[i]),
            ColumnRef::Boxed(v) => v[i].as_bool(),
            _ => None,
        }
    }

    /// Slot `i` boxed (a register move for the unboxed classes).
    #[inline]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnRef::Null => Value::Null,
            ColumnRef::I64(v) => Value::Int(v[i]),
            ColumnRef::F64(v) => Value::Float(v[i]),
            ColumnRef::Bool(v) => Value::Bool(v[i]),
            ColumnRef::Boxed(v) => v[i].clone(),
        }
    }
}

/// A snapshot buffer: the change-point encoding of a temporal object.
///
/// Invariants (checked in debug builds, preserved by all constructors):
///
/// * span end times are strictly increasing and all greater than `start`;
/// * outside `(start, end]` the object is φ;
/// * the end, mask and value columns have one slot per span.
///
/// Adjacent spans *may* carry equal values: the paper's reduction functions
/// fold each snapshot once (eq. 3 folds the *values* the object assumes, one
/// per snapshot), so span boundaries carry event identity — two back-to-back
/// events with the same price are two snapshots, not one. Use
/// [`SnapshotBuf::push`] for coalescing writes (derived piecewise-constant
/// results) and [`SnapshotBuf::push_raw`] to preserve boundaries (event
/// ingestion and kernel outputs).
///
/// # Examples
///
/// ```
/// use tilt_data::{Event, SnapshotBuf, Time, TimeRange, Value};
/// let events = vec![Event::new(Time::new(5), Time::new(10), Value::Float(1.0))];
/// let buf = SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(12)));
/// assert_eq!(buf.value_at(Time::new(7)), Value::Float(1.0));
/// assert_eq!(buf.value_at(Time::new(11)), Value::Null);
/// ```
#[derive(Clone)]
pub struct SnapshotBuf<P> {
    start: Time,
    ends: Vec<Time>,
    nulls: NullMask,
    vals: Vals<P>,
}

/// Body of the typed-writer constructors: reset, make the value column the
/// named class (keeping its allocation when it already is), borrow it.
macro_rules! typed_writer {
    ($buf:ident, $start:ident, $variant:ident) => {{
        $buf.reset($start);
        if !matches!($buf.vals, Vals::$variant(_)) {
            $buf.vals = Vals::$variant(Vec::with_capacity($buf.ends.capacity()));
        }
        let Vals::$variant(vals) = &mut $buf.vals else { unreachable!("class set above") };
        ColWriter { start: $start, ends: &mut $buf.ends, nulls: &mut $buf.nulls, vals }
    }};
}

/// An event's interval, restricted to `clip` when there is one.
#[inline]
fn clipped(e: &Event<Value>, clip: Option<TimeRange>) -> TimeRange {
    match clip {
        Some(range) => e.interval().intersect(&range),
        None => e.interval(),
    }
}

/// Appends the longest prefix of `events` whose payloads `unbox` to the
/// `T`-typed column, φ-filling gaps; returns how many events that was.
/// Spans are staged 64 at a time — one mask word — so the columns grow by
/// slice appends, not by three capacity checks per span.
fn extend_run<T: Copy + Default>(
    start: Time,
    ends: &mut Vec<Time>,
    nulls: &mut NullMask,
    vals: &mut Vec<T>,
    events: &[Event<Value>],
    clip: Option<TimeRange>,
    unbox: impl Fn(&Value) -> Option<T>,
) -> usize {
    const STAGE: usize = 64;
    let mut staged_ends = [Time::ZERO; STAGE];
    let mut staged_vals = [T::default(); STAGE];
    let (mut staged_nulls, mut n) = (0u64, 0usize);
    let mut end = ends.last().copied().unwrap_or(start);
    let mut flush = |staged_ends: &[Time], staged_vals: &[T], staged_nulls: u64| {
        ends.extend_from_slice(staged_ends);
        vals.extend_from_slice(staged_vals);
        nulls.push_bits(staged_nulls, staged_ends.len());
    };
    let mut taken = events.len();
    for (i, e) in events.iter().enumerate() {
        let Some(x) = unbox(&e.payload) else {
            taken = i;
            break;
        };
        let iv = clipped(e, clip);
        if iv.is_empty() {
            continue;
        }
        // An event stages at most two spans.
        if n + 2 > STAGE {
            flush(&staged_ends[..n], &staged_vals[..n], staged_nulls);
            (staged_nulls, n) = (0, 0);
        }
        if iv.start > end {
            staged_ends[n] = iv.start;
            staged_vals[n] = T::default();
            staged_nulls |= 1 << n;
            n += 1;
        }
        assert!(iv.end > end, "span end {:?} must advance past {end:?}", iv.end);
        staged_ends[n] = iv.end;
        staged_vals[n] = x;
        n += 1;
        end = iv.end;
    }
    flush(&staged_ends[..n], &staged_vals[..n], staged_nulls);
    taken
}

impl SnapshotBuf<Value> {
    /// Creates an empty buffer whose first span will begin at `start`.
    /// Allocates nothing.
    pub fn new(start: Time) -> Self {
        SnapshotBuf { start, ends: Vec::new(), nulls: NullMask::default(), vals: Vals::None }
    }

    /// Creates an empty buffer with span capacity pre-allocated (the value
    /// column is sized to match once a payload fixes its class).
    pub fn with_capacity(start: Time, capacity: usize) -> Self {
        let mut buf = SnapshotBuf::new(start);
        buf.reserve(capacity);
        buf
    }

    fn reserve(&mut self, additional: usize) {
        self.ends.reserve(additional);
        self.nulls.reserve(additional);
        match &mut self.vals {
            Vals::None => {}
            Vals::I64(v) => v.reserve(additional),
            Vals::F64(v) => v.reserve(additional),
            Vals::Bool(v) => v.reserve(additional),
            Vals::Boxed(v) => v.reserve(additional),
        }
    }

    /// Builds a buffer covering `range` from a sorted, non-overlapping event
    /// stream, clipping events to `range` and inserting φ spans for gaps.
    ///
    /// # Panics
    ///
    /// Panics (debug) if events are unsorted or overlapping.
    pub fn from_events(events: &[Event<Value>], range: TimeRange) -> Self {
        debug_assert!(crate::validate_stream(events).is_ok(), "events must be sorted and disjoint");
        let mut buf = SnapshotBuf::new(range.start);
        buf.extend_from_events(events, Some(range));
        if buf.end() < range.end {
            buf.push_raw(range.end, Value::Null);
        }
        buf
    }

    /// Appends in-order events, φ-filling the gap before each one that
    /// starts past the current end. With `clip`, events are first
    /// restricted to that range (and dropped when nothing remains).
    /// Reserves one span per event up front (plus one, for the closing φ
    /// span [`SnapshotBuf::from_events`] adds) — all a gap-free stream uses,
    /// so it carries no spare capacity — and grows only if gaps turn up;
    /// counting them first would cost a second pass over the events.
    ///
    /// # Panics
    ///
    /// Panics if an event does not end past the current end of the buffer.
    pub fn extend_from_events(&mut self, events: &[Event<Value>], clip: Option<TimeRange>) {
        self.reserve(events.len() + 1);

        let mut rest = events;
        while !rest.is_empty() {
            // As many events as the typed column takes, in one tight loop.
            let (start, ends, nulls) = (self.start, &mut self.ends, &mut self.nulls);
            let taken = match &mut self.vals {
                Vals::I64(v) => extend_run(start, ends, nulls, v, rest, clip, Value::as_i64),
                Vals::F64(v) => extend_run(start, ends, nulls, v, rest, clip, |p| match p {
                    // Not `as_f64`: an `Int` must not be stored as a float.
                    Value::Float(x) => Some(*x),
                    _ => None,
                }),
                Vals::Bool(v) => extend_run(start, ends, nulls, v, rest, clip, Value::as_bool),
                Vals::None | Vals::Boxed(_) => 0,
            };
            rest = &rest[taken..];
            // The next event is one the typed loop cannot take (φ payload,
            // another class, no class yet): the general path stores it,
            // fixing or demoting the class as needed.
            if let Some((e, tail)) = rest.split_first() {
                let iv = clipped(e, clip);
                if !iv.is_empty() {
                    if iv.start > self.end() {
                        self.push_span(iv.start, &Value::Null);
                    }
                    self.push_span(iv.end, &e.payload);
                }
                rest = tail;
            }
        }
    }

    /// Extracts the non-φ spans as events, merging adjacent spans that
    /// carry identical values (the inverse of [`SnapshotBuf::from_events`]
    /// up to coalescing). One pass over the columns.
    pub fn to_events(&self) -> Vec<Event<Value>> {
        fn emit(
            buf: &SnapshotBuf<Value>,
            same: impl Fn(usize, usize) -> bool,
            boxed: impl Fn(usize) -> Value,
        ) -> Vec<Event<Value>> {
            let mut out: Vec<Event<Value>> = Vec::new();
            // The span behind the last emitted event, while the next span
            // can still extend it.
            let mut open: Option<usize> = None;
            for i in buf.nulls.live(0, buf.len()) {
                match open {
                    Some(j) if j + 1 == i && same(j, i) => {
                        out.last_mut().expect("an open event was emitted").end = buf.ends[i];
                    }
                    _ => out.push(Event::new(buf.span_start(i), buf.ends[i], boxed(i))),
                }
                open = Some(i);
            }
            out
        }
        match &self.vals {
            Vals::None => Vec::new(),
            Vals::I64(v) => emit(self, |a, b| v[a] == v[b], |i| Value::Int(v[i])),
            Vals::F64(v) => {
                emit(self, |a, b| v[a].to_bits() == v[b].to_bits(), |i| Value::Float(v[i]))
            }
            Vals::Bool(v) => emit(self, |a, b| v[a] == v[b], |i| Value::Bool(v[i])),
            Vals::Boxed(v) => emit(self, |a, b| v[a].same(&v[b]), |i| v[i].clone()),
        }
    }

    /// Appends a span ending at `t_end`, coalescing with the last span when
    /// values are identical.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` does not advance past the current end.
    pub fn push(&mut self, t_end: Time, value: Value) {
        match self.ends.len().checked_sub(1) {
            Some(last) if self.slot_is(last, &value) => {
                assert!(
                    t_end > self.end(),
                    "span end {t_end:?} must advance past {:?}",
                    self.end()
                );
                self.ends[last] = t_end;
            }
            _ => self.push_span(t_end, &value),
        }
    }

    /// Appends a span ending at `t_end` without coalescing, preserving the
    /// boundary as a distinct snapshot (event identity).
    ///
    /// # Panics
    ///
    /// Panics if `t_end` does not advance past the current end.
    pub fn push_raw(&mut self, t_end: Time, value: Value) {
        self.push_span(t_end, &value);
    }

    fn push_span(&mut self, t_end: Time, value: &Value) {
        assert!(t_end > self.end(), "span end {t_end:?} must advance past {:?}", self.end());
        self.ends.push(t_end);
        self.push_slot(value);
    }

    /// Appends one slot to the mask and value columns.
    #[inline]
    fn push_slot(&mut self, value: &Value) {
        match (&mut self.vals, value) {
            (Vals::None, Value::Null) => {}
            (Vals::I64(v), Value::Null) => v.push(0),
            (Vals::F64(v), Value::Null) => v.push(0.0),
            (Vals::Bool(v), Value::Null) => v.push(false),
            (Vals::I64(v), Value::Int(x)) => v.push(*x),
            (Vals::F64(v), Value::Float(x)) => v.push(*x),
            (Vals::Bool(v), Value::Bool(x)) => v.push(*x),
            (Vals::Boxed(v), x) => v.push(x.clone()),
            (_, x) => return self.push_other_class(x),
        }
        self.nulls.push(matches!(value, Value::Null));
    }

    /// A non-φ payload the column cannot hold: it fixes the class when no
    /// payload has yet (an all-φ prefix, or a recycled buffer), and demotes
    /// the column to boxed otherwise.
    #[cold]
    fn push_other_class(&mut self, value: &Value) {
        let n = self.nulls.len();
        let cap = self.ends.capacity().max(n + 1);
        fn filled<T: Clone>(fill: T, n: usize, cap: usize) -> Vec<T> {
            let mut v = Vec::with_capacity(cap);
            v.resize(n, fill);
            v
        }
        if self.nulls.all_null(n) {
            self.vals = match value {
                Value::Int(_) => Vals::I64(filled(0, n, cap)),
                Value::Float(_) => Vals::F64(filled(0.0, n, cap)),
                Value::Bool(_) => Vals::Bool(filled(false, n, cap)),
                _ => Vals::Boxed(filled(Value::Null, n, cap)),
            };
        } else {
            let mut boxed = Vec::with_capacity(cap);
            boxed.extend((0..n).map(|i| self.slot(i)));
            self.vals = Vals::Boxed(boxed);
        }
        self.push_slot(value);
    }

    /// Resets the buffer to an empty state rooted at `start`, retaining the
    /// column allocations. This is what lets hot emission paths recycle
    /// buffers through a [`BufPool`] instead of reallocating every cycle. A
    /// recycled buffer carries nothing over: its class is fixed afresh by
    /// the next payload (or a typed writer).
    pub fn reset(&mut self, start: Time) {
        self.start = start;
        self.ends.clear();
        self.nulls.clear();
        match &mut self.vals {
            Vals::None => {}
            Vals::I64(v) => v.clear(),
            Vals::F64(v) => v.clear(),
            Vals::Bool(v) => v.clear(),
            Vals::Boxed(v) => v.clear(),
        }
    }

    /// Resets the buffer to `start` and hands out an append handle on an
    /// `f64` value column: how typed kernels write their result column
    /// directly, whatever class the buffer held before.
    pub fn f64_writer(&mut self, start: Time) -> ColWriter<'_, f64> {
        typed_writer!(self, start, F64)
    }

    /// Like [`SnapshotBuf::f64_writer`], for an `i64` value column.
    pub fn i64_writer(&mut self, start: Time) -> ColWriter<'_, i64> {
        typed_writer!(self, start, I64)
    }

    /// Like [`SnapshotBuf::f64_writer`], for a `bool` value column.
    pub fn bool_writer(&mut self, start: Time) -> ColWriter<'_, bool> {
        typed_writer!(self, start, Bool)
    }

    /// Exclusive start of the buffer's coverage.
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Inclusive end of the buffer's coverage (equals `start` when empty).
    #[inline]
    pub fn end(&self) -> Time {
        self.ends.last().copied().unwrap_or(self.start)
    }

    /// The covered range `(start, end]`.
    #[inline]
    pub fn range(&self) -> TimeRange {
        TimeRange { start: self.start, end: self.end() }
    }

    /// Number of spans (change points).
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the buffer covers no time at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The span end times, strictly increasing.
    #[inline]
    pub fn ends(&self) -> &[Time] {
        &self.ends
    }

    /// The φ flags, one per span.
    #[inline]
    pub fn nulls(&self) -> &NullMask {
        &self.nulls
    }

    /// The value column.
    #[inline]
    pub fn column(&self) -> ColumnRef<'_> {
        match &self.vals {
            Vals::None => ColumnRef::Null,
            Vals::I64(v) => ColumnRef::I64(v),
            Vals::F64(v) => ColumnRef::F64(v),
            Vals::Bool(v) => ColumnRef::Bool(v),
            Vals::Boxed(v) => ColumnRef::Boxed(v),
        }
    }

    /// The value of span `i`, boxed.
    #[inline]
    fn slot(&self, i: usize) -> Value {
        if self.nulls.get(i) {
            Value::Null
        } else {
            self.column().value_at(i)
        }
    }

    /// Whether span `i` carries exactly `value` ([`Value::same`]).
    fn slot_is(&self, i: usize, value: &Value) -> bool {
        if self.nulls.get(i) {
            return matches!(value, Value::Null);
        }
        match (&self.vals, value) {
            (Vals::I64(v), Value::Int(x)) => v[i] == *x,
            (Vals::F64(v), Value::Float(x)) => v[i].to_bits() == x.to_bits(),
            (Vals::Bool(v), Value::Bool(x)) => v[i] == *x,
            (Vals::Boxed(v), x) => v[i].same(x),
            _ => false,
        }
    }

    /// The spans materialized as `(t_end, value)` pairs, ordered by end
    /// time — a copy for consumers at the API edge; kernels read
    /// [`SnapshotBuf::ends`] and [`SnapshotBuf::column`] instead.
    pub fn spans(&self) -> Vec<Span<Value>> {
        (0..self.len()).map(|i| Span { t_end: self.ends[i], value: self.slot(i) }).collect()
    }

    /// Iterates `(interval, value)` pairs in time order.
    pub fn iter(&self) -> impl Iterator<Item = (TimeRange, Value)> + '_ {
        (0..self.len())
            .map(|i| (TimeRange { start: self.span_start(i), end: self.ends[i] }, self.slot(i)))
    }

    /// The value of the temporal object at time `t` (φ outside coverage).
    pub fn value_at(&self, t: Time) -> Value {
        self.span_index_at(t).map_or(Value::Null, |i| self.slot(i))
    }

    /// Index of the span containing `t`, if within coverage.
    #[inline]
    pub fn span_index_at(&self, t: Time) -> Option<usize> {
        if t <= self.start || t > self.end() {
            return None;
        }
        Some(self.ends.partition_point(|&e| e < t))
    }

    /// Exclusive start time of span `i`.
    #[inline]
    pub fn span_start(&self, i: usize) -> Time {
        if i == 0 {
            self.start
        } else {
            self.ends[i - 1]
        }
    }

    /// Copies the restriction of the object to `range` into a fresh buffer
    /// (used by the batched/latency execution mode; the parallel executor
    /// reads the shared buffer in place instead).
    pub fn slice(&self, range: TimeRange) -> SnapshotBuf<Value> {
        let mut out = SnapshotBuf::new(range.start);
        self.slice_into(range, &mut out);
        out
    }

    /// Like [`SnapshotBuf::slice`], but writes into `out` (reset first),
    /// reusing its column allocations where the class matches. Hot emission
    /// paths recycle per-advance output slices through a [`BufPool`] this
    /// way instead of allocating a fresh buffer per advance.
    pub fn slice_into(&self, range: TimeRange, out: &mut SnapshotBuf<Value>) {
        let range = range.intersect(&self.range().intersect(&TimeRange::ALL));
        out.reset(range.start);
        if range.is_empty() {
            return;
        }
        let lo = self.ends.partition_point(|&e| e <= range.start);
        // The span containing `range.end` is the last one copied.
        let hi = lo + self.ends[lo..].partition_point(|&e| e < range.end) + 1;
        out.ends.extend_from_slice(&self.ends[lo..hi]);
        *out.ends.last_mut().expect("a non-empty range overlaps a span") = range.end;
        out.nulls.extend_from(&self.nulls, lo, hi);
        match (&mut out.vals, &self.vals) {
            (Vals::I64(o), Vals::I64(v)) => o.extend_from_slice(&v[lo..hi]),
            (Vals::F64(o), Vals::F64(v)) => o.extend_from_slice(&v[lo..hi]),
            (Vals::Bool(o), Vals::Bool(v)) => o.extend_from_slice(&v[lo..hi]),
            (Vals::Boxed(o), Vals::Boxed(v)) => o.extend_from_slice(&v[lo..hi]),
            // An all-φ source: placeholders in whatever column `out` has.
            (Vals::None, Vals::None) => {}
            (Vals::I64(o), Vals::None) => o.resize(hi - lo, 0),
            (Vals::F64(o), Vals::None) => o.resize(hi - lo, 0.0),
            (Vals::Bool(o), Vals::None) => o.resize(hi - lo, false),
            (Vals::Boxed(o), Vals::None) => o.resize(hi - lo, Value::Null),
            (o, Vals::I64(v)) => *o = Vals::I64(v[lo..hi].to_vec()),
            (o, Vals::F64(v)) => *o = Vals::F64(v[lo..hi].to_vec()),
            (o, Vals::Bool(v)) => *o = Vals::Bool(v[lo..hi].to_vec()),
            (o, Vals::Boxed(v)) => *o = Vals::Boxed(v[lo..hi].to_vec()),
        }
    }

    /// Drops everything at or before `cutoff` in place: afterwards the
    /// buffer equals `self.slice((cutoff, end])`, but the columns keep their
    /// allocations — sessions trim their input histories this way on every
    /// advance without allocating. A `cutoff` outside the coverage trims
    /// nothing.
    pub fn trim_start(&mut self, cutoff: Time) {
        if cutoff <= self.start || cutoff >= self.end() {
            return;
        }
        let lo = self.ends.partition_point(|&e| e <= cutoff);
        self.start = cutoff;
        self.ends.drain(..lo);
        self.nulls.drain_front(lo);
        match &mut self.vals {
            Vals::None => {}
            Vals::I64(v) => drop(v.drain(..lo)),
            Vals::F64(v) => drop(v.drain(..lo)),
            Vals::Bool(v) => drop(v.drain(..lo)),
            Vals::Boxed(v) => drop(v.drain(..lo)),
        }
    }

    /// The first time strictly after `t` at which the object value (or span
    /// identity) changes: the buffer start if `t` precedes coverage, the end
    /// of the span containing/following `t` otherwise; `None` past the end.
    pub fn next_boundary_after(&self, t: Time) -> Option<Time> {
        if self.ends.is_empty() || t >= self.end() {
            return None;
        }
        if t < self.start {
            return Some(self.start);
        }
        Some(self.ends[self.ends.partition_point(|&e| e <= t)])
    }

    /// Concatenates partition outputs that tile `(start, end]` back into one
    /// canonical buffer, merging equal values across the seams.
    ///
    /// # Panics
    ///
    /// Panics if the parts do not tile contiguously.
    pub fn concat(parts: Vec<SnapshotBuf<Value>>) -> SnapshotBuf<Value> {
        let appended = parts.iter().skip(1).map(SnapshotBuf::len).sum();
        let mut iter = parts.into_iter();
        let Some(mut out) = iter.next() else { return SnapshotBuf::new(Time::ZERO) };
        out.reserve(appended);
        for part in iter {
            assert_eq!(part.start, out.end(), "partition outputs must tile contiguously");
            for i in 0..part.len() {
                out.push(part.ends[i], part.slot(i));
            }
        }
        out
    }

    /// Checks the structural invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev = self.start;
        for (i, &end) in self.ends.iter().enumerate() {
            if end <= prev {
                return Err(format!("span {i} end {end:?} does not advance past {prev:?}"));
            }
            prev = end;
        }
        let n = self.ends.len();
        let col = match &self.vals {
            Vals::None if self.nulls.all_null(self.nulls.len()) => n,
            Vals::None => return Err("a non-φ span without a value column".into()),
            Vals::I64(v) => v.len(),
            Vals::F64(v) => v.len(),
            Vals::Bool(v) => v.len(),
            Vals::Boxed(v) => v.len(),
        };
        if self.nulls.len() != n || col != n {
            return Err(format!("{n} spans, {} mask slots, {col} values", self.nulls.len()));
        }
        Ok(())
    }

    /// Whether no two adjacent spans carry equal values (fully coalesced).
    pub fn is_coalesced(&self) -> bool {
        (1..self.len()).all(|i| !self.slot_is(i - 1, &self.slot(i)))
    }
}

/// Content equality: same start, same span ends, same value per span
/// ([`Value::same`], so floats compare bitwise) — whatever column each side
/// stores them in.
impl PartialEq for SnapshotBuf<Value> {
    fn eq(&self, other: &Self) -> bool {
        if self.start != other.start || self.ends != other.ends || self.nulls != other.nulls {
            return false;
        }
        // Placeholders under φ are not content: compare live slots only.
        let mut live = self.nulls.live(0, self.len());
        match (&self.vals, &other.vals) {
            (Vals::I64(a), Vals::I64(b)) => live.all(|i| a[i] == b[i]),
            (Vals::F64(a), Vals::F64(b)) => live.all(|i| a[i].to_bits() == b[i].to_bits()),
            (Vals::Bool(a), Vals::Bool(b)) => live.all(|i| a[i] == b[i]),
            _ => live.all(|i| other.slot_is(i, &self.slot(i))),
        }
    }
}

/// An append handle on a buffer whose value column holds `T`s, obtained
/// from [`SnapshotBuf::f64_writer`] and its siblings: the class was decided once, so each append
/// is three plain vector pushes.
pub struct ColWriter<'a, T> {
    start: Time,
    ends: &'a mut Vec<Time>,
    nulls: &'a mut NullMask,
    vals: &'a mut Vec<T>,
}

impl<T: Copy + Default> ColWriter<'_, T> {
    /// Inclusive end of what has been written (the start when nothing has).
    #[inline]
    pub fn end(&self) -> Time {
        self.ends.last().copied().unwrap_or(self.start)
    }

    /// Appends a span ending at `t_end` (`None` = φ), preserving the
    /// boundary like [`SnapshotBuf::push_raw`].
    ///
    /// # Panics
    ///
    /// Panics if `t_end` does not advance past the current end.
    #[inline]
    pub fn push(&mut self, t_end: Time, value: Option<T>) {
        assert!(t_end > self.end(), "span end {t_end:?} must advance past {:?}", self.end());
        self.ends.push(t_end);
        self.nulls.push(value.is_none());
        self.vals.push(value.unwrap_or_default());
    }

    /// Appends `vals.len()` spans in one go — a run of batched lanes: span
    /// `j` ends at `first_end + j·step`, except the last, which ends at
    /// `last_end`; `nulls` flags the lanes (slot `j` for span `j`).
    ///
    /// # Panics
    ///
    /// Panics if the ends do not advance strictly or `nulls` is shorter
    /// than `vals`.
    pub fn extend_lanes(
        &mut self,
        first_end: Time,
        step: i64,
        last_end: Time,
        vals: &[T],
        nulls: &NullMask,
    ) {
        let Some(interior) = vals.len().checked_sub(1) else { return };
        let head = if interior == 0 { last_end } else { first_end };
        assert!(head > self.end(), "span end {head:?} must advance past {:?}", self.end());
        assert!(
            interior == 0 || (step > 0 && last_end > first_end + (interior as i64 - 1) * step),
            "lane ends must advance"
        );
        self.ends.extend((0..interior as i64).map(|j| first_end + j * step));
        self.ends.push(last_end);
        self.nulls.extend_from(nulls, 0, vals.len());
        self.vals.extend_from_slice(vals);
    }
}

/// A recycling pool of [`SnapshotBuf`] allocations.
///
/// Streaming sessions allocate several intermediate buffers per emission
/// cycle (one per distinct kernel); under millions of advances per second
/// that allocation churn dominates small-batch costs. A pool owned by the
/// *worker* (one per shard thread, not per key session) lets every advance
/// reuse the columns of the previous one without holding per-key memory:
/// [`BufPool::take`] hands out a reset buffer, [`BufPool::put`] returns it
/// once its contents have been consumed. The pool also keeps the slot
/// table an execution fills with its intermediates
/// ([`BufPool::take_slots`]), so an advance allocates nothing but its
/// output.
///
/// What a kernel run needs besides buffers — register files, batch
/// columns, window rings — is recycled the same way but does not travel
/// with the pool: `tilt-core` keeps that scratch with the *thread* that
/// runs the kernels, so a thousand sessions driven by one thread share one
/// warm copy instead of each holding a cold one beside its pool.
pub struct BufPool<P> {
    free: Vec<SnapshotBuf<P>>,
    slots: Vec<Option<SnapshotBuf<P>>>,
}

impl<P> Default for BufPool<P> {
    fn default() -> Self {
        BufPool { free: Vec::new(), slots: Vec::new() }
    }
}

impl<P> fmt::Debug for BufPool<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BufPool({} idle)", self.free.len())
    }
}

impl BufPool<Value> {
    /// An empty pool.
    pub fn new() -> Self {
        BufPool::default()
    }

    /// Takes a buffer rooted at `start`: a recycled allocation when one is
    /// available, a fresh one otherwise.
    pub fn take(&mut self, start: Time) -> SnapshotBuf<Value> {
        match self.free.pop() {
            Some(mut buf) => {
                buf.reset(start);
                buf
            }
            None => SnapshotBuf::new(start),
        }
    }

    /// Returns a consumed buffer's allocation to the pool.
    pub fn put(&mut self, buf: SnapshotBuf<Value>) {
        self.free.push(buf);
    }

    /// Takes the pool's slot table, sized to `n` empty slots — the scratch
    /// an execution parks its intermediate buffers in. Hand it back with
    /// [`BufPool::put_slots`].
    pub fn take_slots(&mut self, n: usize) -> Vec<Option<SnapshotBuf<Value>>> {
        let mut slots = std::mem::take(&mut self.slots);
        slots.resize_with(n, || None);
        slots
    }

    /// Returns a slot table, recycling every buffer still parked in it.
    pub fn put_slots(&mut self, mut slots: Vec<Option<SnapshotBuf<Value>>>) {
        self.free.extend(slots.drain(..).flatten());
        self.slots = slots;
    }

    /// Number of idle buffers held.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

impl fmt::Debug for SnapshotBuf<Value> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SSBuf[{:?}", self.start)?;
        for (iv, value) in self.iter() {
            write!(f, " ({:?},{value:?})", iv.end)?;
        }
        write!(f, "]")
    }
}

/// A monotonic read cursor over a snapshot buffer.
///
/// Kernels generated by the TiLT compiler advance time monotonically; the
/// cursor remembers its last position so value lookups and next-change
/// queries are amortized O(1) instead of a binary search per tick.
#[derive(Clone, Debug)]
pub struct SsCursor<'a> {
    buf: &'a SnapshotBuf<Value>,
    idx: usize,
}

impl<'a> SsCursor<'a> {
    /// Creates a cursor positioned at the beginning of `buf`.
    pub fn new(buf: &'a SnapshotBuf<Value>) -> Self {
        SsCursor { buf, idx: 0 }
    }

    /// The underlying buffer.
    #[inline]
    pub fn buffer(&self) -> &'a SnapshotBuf<Value> {
        self.buf
    }

    /// Advances to the span containing `t` and returns the object value at
    /// `t` (φ outside coverage). `t` must not decrease across calls for the
    /// amortized O(1) bound, but correctness holds for any `t` at the cost of
    /// a re-scan.
    pub fn value_at(&mut self, t: Time) -> Value {
        self.value_and_boundary(t).0
    }

    /// Returns the value at `t` together with the end of the span providing
    /// it (`None` when the value is φ forever after): one seek answers both
    /// "what is the value" and "when can it next change", which is what the
    /// generated kernel loop asks every iteration.
    pub fn value_and_boundary(&mut self, t: Time) -> (Value, Option<Time>) {
        match self.seek_span(t) {
            Ok(i) => (self.buf.slot(i), Some(self.buf.ends[i])),
            Err(b) => (Value::Null, b),
        }
    }

    /// The end of the span providing the value at `t`, without reading the
    /// value — for accesses whose value is never used but whose change
    /// points still drive stepping.
    #[inline]
    pub fn boundary(&mut self, t: Time) -> Option<Time> {
        match self.seek_span(t) {
            Ok(i) => Some(self.buf.ends[i]),
            Err(b) => b,
        }
    }

    /// The next time strictly after `t` at which the object value changes,
    /// or `None` when the value is constant ever after.
    ///
    /// Change points are the buffer start (φ → first span) and every span
    /// end (value → next value, or → φ at the buffer end).
    pub fn next_change_after(&mut self, t: Time) -> Option<Time> {
        if t < self.buf.start {
            return if self.buf.is_empty() { None } else { Some(self.buf.start) };
        }
        if t >= self.buf.end() {
            return None;
        }
        self.seek_boundary(t);
        Some(self.buf.ends[self.idx])
    }

    /// Positions the cursor on the span containing `t` and returns its
    /// index; outside coverage, returns the boundary to report instead
    /// (the buffer start before it, nothing after it).
    #[inline]
    fn seek_span(&mut self, t: Time) -> Result<usize, Option<Time>> {
        if t <= self.buf.start {
            return Err(if self.buf.is_empty() { None } else { Some(self.buf.start) });
        }
        if t > self.buf.end() {
            return Err(None);
        }
        self.seek(t);
        Ok(self.idx)
    }

    /// Positions `idx` at the span containing `t` (requires coverage).
    #[inline]
    fn seek(&mut self, t: Time) {
        let ends = &self.buf.ends;
        if self.idx >= ends.len() || self.buf.span_start(self.idx) >= t {
            self.idx = ends.partition_point(|&e| e < t);
            return;
        }
        while ends[self.idx] < t {
            self.idx += 1;
        }
    }

    /// Positions `idx` at the first span with `t_end > t` (requires `t` in
    /// `[start, end)`).
    #[inline]
    fn seek_boundary(&mut self, t: Time) {
        let ends = &self.buf.ends;
        if self.idx >= ends.len() || self.buf.span_start(self.idx) > t {
            self.idx = ends.partition_point(|&e| e <= t);
            return;
        }
        while ends[self.idx] <= t {
            self.idx += 1;
        }
    }

    /// Float fast path of [`SsCursor::value_and_boundary`]: the value at `t`
    /// unboxed to `f64` (`None` for φ or non-numeric payloads; integers
    /// coerce) together with the providing span's end. The compiled kernel
    /// tier loads `Float`-typed point accesses through this: the read
    /// indexes the value column, no [`Value`] is built.
    #[inline]
    pub fn value_f64_and_boundary(&mut self, t: Time) -> (Option<f64>, Option<Time>) {
        match self.seek_span(t) {
            Ok(i) if self.buf.nulls.get(i) => (None, Some(self.buf.ends[i])),
            Ok(i) => (self.buf.column().f64_at(i), Some(self.buf.ends[i])),
            Err(b) => (None, b),
        }
    }

    /// Integer fast path: the value at `t` unboxed to `i64` (`None` for φ
    /// or non-integer payloads) together with the providing span's end.
    #[inline]
    pub fn value_i64_and_boundary(&mut self, t: Time) -> (Option<i64>, Option<Time>) {
        match self.seek_span(t) {
            Ok(i) if self.buf.nulls.get(i) => (None, Some(self.buf.ends[i])),
            Ok(i) => (self.buf.column().i64_at(i), Some(self.buf.ends[i])),
            Err(b) => (None, b),
        }
    }

    /// Boolean fast path: the value at `t` unboxed to `bool` (`None` for φ
    /// or non-boolean payloads) together with the providing span's end.
    #[inline]
    pub fn value_bool_and_boundary(&mut self, t: Time) -> (Option<bool>, Option<Time>) {
        match self.seek_span(t) {
            Ok(i) if self.buf.nulls.get(i) => (None, Some(self.buf.ends[i])),
            Ok(i) => (self.buf.column().bool_at(i), Some(self.buf.ends[i])),
            Err(b) => (None, b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fbuf(events: &[(i64, i64, f64)], lo: i64, hi: i64) -> SnapshotBuf<Value> {
        let evs: Vec<Event<Value>> = events
            .iter()
            .map(|&(s, e, v)| Event::new(Time::new(s), Time::new(e), Value::Float(v)))
            .collect();
        SnapshotBuf::from_events(&evs, TimeRange::new(Time::new(lo), Time::new(hi)))
    }

    #[test]
    fn from_events_matches_figure_5() {
        // Events a=(5,10], b=(16,23], c=(30,35] over (0, 40].
        let buf = fbuf(&[(5, 10, 1.0), (16, 23, 2.0), (30, 35, 3.0)], 0, 40);
        let ends: Vec<i64> = buf.spans().iter().map(|s| s.t_end.ticks()).collect();
        assert_eq!(ends, vec![5, 10, 16, 23, 30, 35, 40]);
        assert_eq!(buf.value_at(Time::new(5)), Value::Null);
        assert_eq!(buf.value_at(Time::new(6)), Value::Float(1.0));
        assert_eq!(buf.value_at(Time::new(10)), Value::Float(1.0));
        assert_eq!(buf.value_at(Time::new(11)), Value::Null);
        assert_eq!(buf.value_at(Time::new(23)), Value::Float(2.0));
        assert_eq!(buf.value_at(Time::new(36)), Value::Null);
        buf.check_invariants().unwrap();
    }

    #[test]
    fn round_trip_to_events() {
        let buf = fbuf(&[(5, 10, 1.0), (16, 23, 2.0)], 0, 30);
        let evs = buf.to_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].interval(), TimeRange::new(Time::new(5), Time::new(10)));
        assert_eq!(evs[1].payload, Value::Float(2.0));
    }

    #[test]
    fn push_coalesces_equal_values() {
        let mut buf: SnapshotBuf<Value> = SnapshotBuf::new(Time::new(0));
        buf.push(Time::new(5), Value::Int(1));
        buf.push(Time::new(9), Value::Int(1));
        buf.push(Time::new(12), Value::Int(2));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.value_at(Time::new(8)), Value::Int(1));
        buf.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "must advance")]
    fn push_rejects_non_advancing_end() {
        let mut buf: SnapshotBuf<Value> = SnapshotBuf::new(Time::new(0));
        buf.push(Time::new(5), Value::Int(1));
        buf.push(Time::new(5), Value::Int(2));
    }

    #[test]
    fn slice_restricts_and_renormalizes() {
        let buf = fbuf(&[(5, 10, 1.0), (16, 23, 2.0)], 0, 30);
        let s = buf.slice(TimeRange::new(Time::new(7), Time::new(20)));
        assert_eq!(s.range(), TimeRange::new(Time::new(7), Time::new(20)));
        assert_eq!(s.value_at(Time::new(8)), Value::Float(1.0));
        assert_eq!(s.value_at(Time::new(12)), Value::Null);
        assert_eq!(s.value_at(Time::new(18)), Value::Float(2.0));
        s.check_invariants().unwrap();
    }

    #[test]
    fn concat_merges_seams() {
        let buf = fbuf(&[(0, 20, 1.0)], 0, 20);
        let a = buf.slice(TimeRange::new(Time::new(0), Time::new(10)));
        let b = buf.slice(TimeRange::new(Time::new(10), Time::new(20)));
        let joined = SnapshotBuf::concat(vec![a, b]);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined, buf);
    }

    #[test]
    fn cursor_tracks_values_and_changes() {
        let buf = fbuf(&[(5, 10, 1.0), (16, 23, 2.0)], 0, 30);
        let mut cur = SsCursor::new(&buf);
        assert_eq!(cur.value_at(Time::new(3)), Value::Null);
        assert_eq!(cur.value_at(Time::new(6)), Value::Float(1.0));
        assert_eq!(cur.value_at(Time::new(20)), Value::Float(2.0));
        let mut cur2 = SsCursor::new(&buf);
        assert_eq!(cur2.next_change_after(Time::new(0)), Some(Time::new(5)));
        assert_eq!(cur2.next_change_after(Time::new(5)), Some(Time::new(10)));
        assert_eq!(cur2.next_change_after(Time::new(24)), Some(Time::new(30)));
        assert_eq!(cur2.next_change_after(Time::new(30)), None);
        assert_eq!(cur2.next_change_after(Time::new(-5)), Some(Time::new(0)));
    }

    #[test]
    fn cursor_handles_backward_seek() {
        let buf = fbuf(&[(5, 10, 1.0), (16, 23, 2.0)], 0, 30);
        let mut cur = SsCursor::new(&buf);
        assert_eq!(cur.value_at(Time::new(20)), Value::Float(2.0));
        assert_eq!(cur.value_at(Time::new(6)), Value::Float(1.0));
    }

    #[test]
    fn slice_into_recycles_and_matches_slice() {
        let buf = fbuf(&[(5, 10, 1.0), (16, 23, 2.0)], 0, 30);
        let mut out: SnapshotBuf<Value> = SnapshotBuf::new(Time::new(99));
        out.push_raw(Time::new(200), Value::Float(9.0)); // stale content to overwrite
        for (lo, hi) in [(7i64, 20i64), (0, 30), (25, 28), (40, 50)] {
            let range = TimeRange::new(Time::new(lo), Time::new(hi));
            buf.slice_into(range, &mut out);
            assert_eq!(out, buf.slice(range), "range ({lo},{hi}]");
        }
    }

    #[test]
    fn typed_cursor_accessors_match_dynamic_reads() {
        let buf = fbuf(&[(5, 10, 1.5), (16, 23, 2.5)], 0, 30);
        let mut dynamic = SsCursor::new(&buf);
        let mut fast = SsCursor::new(&buf);
        for t in 0..=31 {
            let t = Time::new(t);
            let (v, b) = dynamic.value_and_boundary(t);
            let (x, bf) = fast.value_f64_and_boundary(t);
            assert_eq!(x, v.as_f64(), "value at {t:?}");
            assert_eq!(bf, b, "boundary at {t:?}");
        }
        // Wrong-class unboxing reads as φ without disturbing the boundary.
        let mut ints = SsCursor::new(&buf);
        assert_eq!(ints.value_i64_and_boundary(Time::new(7)), (None, Some(Time::new(10))));
        let bools = SsCursor::new(&buf).value_bool_and_boundary(Time::new(7));
        assert_eq!(bools, (None, Some(Time::new(10))));
        // Int payloads coerce on the float path, exactly like `Value::as_f64`.
        let ibuf = SnapshotBuf::from_events(
            &[Event::point(Time::new(2), Value::Int(7))],
            TimeRange::new(Time::new(0), Time::new(4)),
        );
        assert_eq!(
            SsCursor::new(&ibuf).value_f64_and_boundary(Time::new(2)),
            (Some(7.0), Some(Time::new(2)))
        );
    }

    #[test]
    fn empty_buffer_behaviour() {
        let buf: SnapshotBuf<Value> = SnapshotBuf::new(Time::new(0));
        assert!(buf.is_empty());
        assert_eq!(buf.value_at(Time::new(1)), Value::Null);
        assert_eq!(buf.end(), Time::new(0));
        let mut cur = SsCursor::new(&buf);
        assert_eq!(cur.next_change_after(Time::new(-2)), None);
    }

    #[test]
    fn iter_yields_contiguous_intervals() {
        let buf = fbuf(&[(5, 10, 1.0)], 0, 12);
        let items: Vec<(TimeRange, Value)> = buf.iter().collect();
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].0, TimeRange::new(Time::new(0), Time::new(5)));
        assert_eq!(items[1].1, Value::Float(1.0));
        assert_eq!(items[2].0, TimeRange::new(Time::new(10), Time::new(12)));
    }
}
