//! The columnar snapshot buffer against a naive `Vec<Span<Value>>` model:
//! whatever class the data picks for the value column — `i64`, `f64`,
//! `bool`, boxed — and however it got there (a class fixed late, a
//! demotion mid-stream, a recycled allocation), every observable agrees
//! with the obvious array-of-spans implementation.

use tilt_data::codec::{Dec, Enc};
use tilt_data::{
    coalesce, BufPool, Event, Payload, SnapshotBuf, Span, SsCursor, Time, TimeRange, Value,
};

/// xorshift64*: the test needs nothing a crate would add.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn seeds() -> impl Iterator<Item = u64> {
    let base =
        std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse::<u64>().ok()).unwrap_or(0x5EED);
    (0..24).map(move |i| base.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i) | 1)
}

#[derive(Clone, Copy, Debug)]
enum Class {
    Int,
    Float,
    Bool,
    Str,
    Mixed,
    PhiHeavy,
}

const CLASSES: [Class; 6] =
    [Class::Int, Class::Float, Class::Bool, Class::Str, Class::Mixed, Class::PhiHeavy];

fn payload(rng: &mut Rng, class: Class) -> Value {
    match class {
        // Few distinct values, so adjacent equal payloads (coalescing) occur.
        Class::Int => Value::Int(rng.below(4) as i64 - 1),
        Class::Float => Value::Float([0.0, -0.0, 1.5, f64::NAN][rng.below(4) as usize]),
        Class::Bool => Value::Bool(rng.below(2) == 0),
        Class::Str => Value::str(["hot", "cold"][rng.below(2) as usize]),
        Class::Mixed => {
            let class = [Class::Int, Class::Float, Class::Bool, Class::Str][rng.below(4) as usize];
            match rng.below(6) {
                0 => Value::tuple([payload(rng, Class::Int), Value::Null]),
                _ => payload(rng, class),
            }
        }
        Class::PhiHeavy => match rng.below(3) {
            0 => Value::Int(rng.below(3) as i64),
            _ => Value::Null,
        },
    }
}

/// A sorted, disjoint event stream over roughly `(0, 6n]`, with gaps.
fn stream(rng: &mut Rng, class: Class, n: usize) -> Vec<Event<Value>> {
    let mut t = rng.below(3) as i64;
    let gap = if matches!(class, Class::PhiHeavy) { 40 } else { 3 };
    (0..n)
        .map(|_| {
            let start = t + (rng.below(gap) as i64) * (rng.below(2) as i64);
            let end = start + 1 + rng.below(4) as i64;
            t = end;
            Event::new(Time::new(start), Time::new(end), payload(rng, class))
        })
        .collect()
}

/// The array-of-spans implementation the buffer used to be.
#[derive(Clone, Debug)]
struct Model {
    start: Time,
    spans: Vec<Span<Value>>,
}

impl Model {
    fn new(start: Time) -> Model {
        Model { start, spans: Vec::new() }
    }

    fn end(&self) -> Time {
        self.spans.last().map_or(self.start, |s| s.t_end)
    }

    fn push_raw(&mut self, t_end: Time, value: Value) {
        assert!(t_end > self.end());
        self.spans.push(Span { t_end, value });
    }

    fn push(&mut self, t_end: Time, value: Value) {
        assert!(t_end > self.end());
        match self.spans.last_mut() {
            Some(last) if last.value.same(&value) => last.t_end = t_end,
            _ => self.spans.push(Span { t_end, value }),
        }
    }

    fn from_events(events: &[Event<Value>], range: TimeRange) -> Model {
        let mut m = Model::new(range.start);
        for e in events {
            let iv = e.interval().intersect(&range);
            if iv.is_empty() {
                continue;
            }
            if iv.start > m.end() {
                m.push_raw(iv.start, Value::Null);
            }
            m.push_raw(iv.end, e.payload.clone());
        }
        if m.end() < range.end {
            m.push_raw(range.end, Value::Null);
        }
        m
    }

    fn to_events(&self) -> Vec<Event<Value>> {
        let mut out = Vec::new();
        let mut prev = self.start;
        for s in &self.spans {
            if !s.value.is_null() {
                out.push(Event::new(prev, s.t_end, s.value.clone()));
            }
            prev = s.t_end;
        }
        coalesce(&out)
    }

    fn index_at(&self, t: Time) -> Option<usize> {
        (t > self.start && t <= self.end()).then(|| self.spans.partition_point(|s| s.t_end < t))
    }

    fn value_at(&self, t: Time) -> Value {
        self.index_at(t).map_or(Value::Null, |i| self.spans[i].value.clone())
    }

    fn next_boundary_after(&self, t: Time) -> Option<Time> {
        if self.spans.is_empty() || t >= self.end() {
            None
        } else if t < self.start {
            Some(self.start)
        } else {
            Some(self.spans[self.spans.partition_point(|s| s.t_end <= t)].t_end)
        }
    }

    fn slice(&self, range: TimeRange) -> Model {
        let range = range.intersect(&TimeRange::new(self.start, self.end()));
        let mut out = Model::new(range.start);
        if range.is_empty() {
            return out;
        }
        for s in &self.spans[self.spans.partition_point(|s| s.t_end <= range.start)..] {
            let end = s.t_end.min(range.end);
            out.push_raw(end, s.value.clone());
            if end == range.end {
                break;
            }
        }
        out
    }

    fn concat(parts: Vec<Model>) -> Model {
        let mut iter = parts.into_iter();
        let mut out = iter.next().expect("at least one part");
        for part in iter {
            assert_eq!(part.start, out.end());
            for s in part.spans {
                out.push(s.t_end, s.value);
            }
        }
        out
    }
}

#[track_caller]
fn assert_same(buf: &SnapshotBuf<Value>, model: &Model, what: &str) {
    buf.check_invariants().unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(buf.start(), model.start, "{what}: start");
    assert_eq!(buf.end(), model.end(), "{what}: end");
    assert_eq!(buf.len(), model.spans.len(), "{what}: span count");
    assert_eq!(buf.spans(), model.spans, "{what}: spans");
}

fn range_of(events: &[Event<Value>], rng: &mut Rng) -> TimeRange {
    let hi = events.last().map_or(0, |e| e.end.ticks());
    // Sometimes clip into the stream, sometimes reach past it.
    TimeRange::new(Time::new(rng.below(4) as i64), Time::new(hi + rng.below(7) as i64 - 3))
}

#[test]
fn building_and_reading_agree_with_the_span_array() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        for class in CLASSES {
            let events = stream(&mut rng, class, 60);
            let range = range_of(&events, &mut rng);
            let buf = SnapshotBuf::from_events(&events, range);
            let model = Model::from_events(&events, range);
            let what = format!("seed {seed} {class:?}");
            assert_same(&buf, &model, &what);
            assert_eq!(buf.to_events(), model.to_events(), "{what}: to_events");
            assert_eq!(buf.is_empty(), model.spans.is_empty());

            // Point reads, forward through one cursor and then at random
            // (backward seeks included) through another.
            let mut forward = SsCursor::new(&buf);
            let mut random = SsCursor::new(&buf);
            let (lo, hi) = (range.start.ticks() - 2, range.end.ticks() + 2);
            let mut times: Vec<i64> = (lo..=hi).collect();
            times.extend((0..40).map(|_| lo + rng.below((hi - lo + 1) as u64) as i64));
            for (n, t) in times.into_iter().enumerate() {
                let t = Time::new(t);
                let cur = if n as i64 <= hi - lo { &mut forward } else { &mut random };
                let expected = model.value_at(t);
                assert_eq!(buf.value_at(t), expected, "{what}: value_at {t:?}");
                assert_eq!(buf.span_index_at(t), model.index_at(t), "{what}: index {t:?}");
                let boundary = match model.index_at(t) {
                    Some(i) => Some(model.spans[i].t_end),
                    None if t <= model.start && !model.spans.is_empty() => Some(model.start),
                    None => None,
                };
                assert_eq!(cur.value_and_boundary(t), (expected.clone(), boundary), "{what} {t:?}");
                assert_eq!(cur.boundary(t), boundary, "{what}: boundary {t:?}");
                let (x, b) = cur.value_f64_and_boundary(t);
                assert_eq!(
                    (x.map(f64::to_bits), b),
                    (expected.as_f64().map(f64::to_bits), boundary)
                );
                assert_eq!(cur.value_i64_and_boundary(t), (expected.as_i64(), boundary));
                assert_eq!(cur.value_bool_and_boundary(t), (expected.as_bool(), boundary));
                assert_eq!(
                    buf.next_boundary_after(t),
                    model.next_boundary_after(t),
                    "{what}: next boundary after {t:?}"
                );
                assert_eq!(
                    SsCursor::new(&buf).next_change_after(t),
                    model.next_boundary_after(t),
                    "{what}: next change after {t:?}"
                );
            }
        }
    }
}

#[test]
fn slicing_and_concatenation_agree_with_the_span_array() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        // A recycled output buffer, left holding another class each time.
        let mut out = SnapshotBuf::new(Time::ZERO);
        for class in CLASSES {
            let events = stream(&mut rng, class, 50);
            let range = range_of(&events, &mut rng);
            let buf = SnapshotBuf::from_events(&events, range);
            let model = Model::from_events(&events, range);
            let what = format!("seed {seed} {class:?}");
            for _ in 0..12 {
                let a = range.start.ticks() - 3 + rng.below(range.len().max(1) as u64 + 6) as i64;
                let b = a + rng.below(30) as i64;
                let cut = TimeRange::new(Time::new(a), Time::new(b));
                buf.slice_into(cut, &mut out);
                assert_same(&out, &model.slice(cut), &format!("{what}: slice {cut:?}"));
                assert_eq!(out, buf.slice(cut), "{what}: slice_into == slice");

                // Trimming in place is slicing off the front: same spans,
                // and the buffer still takes appends.
                let mut trimmed = buf.clone();
                trimmed.trim_start(cut.start);
                // A cutoff outside the coverage trims nothing.
                let inside = range.start < cut.start && cut.start < range.end;
                let kept = if inside { TimeRange::new(cut.start, range.end) } else { range };
                let expect = model.slice(kept);
                assert_same(&trimmed, &expect, &format!("{what}: trim_start {:?}", cut.start));
                trimmed.push_raw(range.end + 5, Value::Null);
                assert_eq!(trimmed.len(), expect.spans.len() + 1, "{what}: append after trim");
            }

            // Tile the range at random cuts and put it back together.
            let mut cuts = vec![range.start.ticks(), range.end.ticks()];
            cuts.extend((0..3).map(|_| range.start.ticks() + rng.below(range.len() as u64) as i64));
            cuts.sort_unstable();
            cuts.dedup();
            let tiles: Vec<TimeRange> =
                cuts.windows(2).map(|w| TimeRange::new(Time::new(w[0]), Time::new(w[1]))).collect();
            let joined = SnapshotBuf::concat(tiles.iter().map(|t| buf.slice(*t)).collect());
            let expected = Model::concat(tiles.iter().map(|t| model.slice(*t)).collect());
            assert_same(&joined, &expected, &format!("{what}: concat"));
        }
    }
}

#[test]
fn pushes_coalesce_and_preserve_like_the_span_array() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        for class in CLASSES {
            let mut buf = SnapshotBuf::new(Time::new(-3));
            let mut model = Model::new(Time::new(-3));
            let mut t = -3;
            for _ in 0..80 {
                t += 1 + rng.below(3) as i64;
                let v = if rng.below(4) == 0 { Value::Null } else { payload(&mut rng, class) };
                if rng.below(2) == 0 {
                    buf.push(Time::new(t), v.clone());
                    model.push(Time::new(t), v);
                } else {
                    buf.push_raw(Time::new(t), v.clone());
                    model.push_raw(Time::new(t), v);
                }
            }
            assert_same(&buf, &model, &format!("seed {seed} {class:?}: pushes"));
            let coalesced = model.spans.windows(2).all(|w| !w[0].value.same(&w[1].value));
            assert_eq!(buf.is_coalesced(), coalesced);
            let iterated: Vec<(TimeRange, Value)> = buf.iter().collect();
            assert_eq!(iterated.len(), model.spans.len());
            assert!(iterated.windows(2).all(|w| w[0].0.end == w[1].0.start));
        }
    }
}

#[test]
fn a_class_change_mid_stream_demotes_without_losing_or_reordering_a_span() {
    let mut buf = SnapshotBuf::new(Time::ZERO);
    let mut model = Model::new(Time::ZERO);
    let mut t = 0;
    // φ first (no class yet), then Int fixes it, Float demotes, Str stays
    // boxed; φ spans in between throughout.
    let phases: [fn(i64) -> Value; 4] = [
        |_| Value::Null,
        Value::Int,
        |i| Value::Float(i as f64 / 2.0),
        |i| Value::str(if i % 2 == 0 { "even" } else { "odd" }),
    ];
    for phase in phases {
        for i in 0..70 {
            t += 1;
            let v = if i % 5 == 4 { Value::Null } else { phase(i) };
            buf.push_raw(Time::new(t), v.clone());
            model.push_raw(Time::new(t), v);
            assert_eq!(buf.value_at(Time::new(t)), model.value_at(Time::new(t)));
        }
        assert_same(&buf, &model, "after a phase");
    }
    // Integers read through the float accessor exactly as `as_f64` says,
    // also once they live in the boxed column.
    let mut cursor = SsCursor::new(&buf);
    assert_eq!(cursor.value_f64_and_boundary(Time::new(71)).0, Some(0.0));
    assert_eq!(cursor.value_i64_and_boundary(Time::new(72)).0, Some(1));
    assert_eq!(cursor.value_i64_and_boundary(Time::new(142)).0, None, "a float is not an int");
}

/// The same spans in a boxed column: built behind a `Str` span that a slice
/// then cuts away (a slice keeps its source's column class).
fn boxed_twin(spans: &[Span<Value>], start: Time) -> SnapshotBuf<Value> {
    let mut wide = SnapshotBuf::new(start - 1);
    wide.push_raw(start, Value::str("forces the boxed column"));
    for s in spans {
        wide.push_raw(s.t_end, s.value.clone());
    }
    wide.slice(TimeRange::new(start, wide.end()))
}

#[test]
fn equality_and_bytes_see_content_not_representation() {
    for seed in seeds() {
        let mut rng = Rng(seed);
        for class in [Class::Int, Class::Float, Class::Bool, Class::PhiHeavy] {
            let events = stream(&mut rng, class, 40);
            let range = range_of(&events, &mut rng);
            let typed = SnapshotBuf::from_events(&events, range);
            let boxed = boxed_twin(&typed.spans(), typed.start());
            let what = format!("seed {seed} {class:?}");
            assert_eq!(typed, boxed, "{what}: typed == boxed");
            assert_eq!(boxed, typed, "{what}: boxed == typed");
            assert_eq!(typed.to_events(), boxed.to_events(), "{what}");

            let bytes = |buf: &SnapshotBuf<Value>| {
                let mut enc = Enc::new();
                enc.ssbuf(buf);
                enc.into_bytes()
            };
            assert_eq!(bytes(&typed), bytes(&boxed), "{what}: one encoding");
            let back = Dec::new(&bytes(&typed)).ssbuf().expect("own bytes decode");
            assert_eq!(back, typed, "{what}: round trip");

            // One payload bit apart is not equal, in either representation.
            let mut spans = typed.spans();
            let Some(victim) = spans.iter_mut().find(|s| !s.value.is_null()) else { continue };
            victim.value = match &victim.value {
                Value::Int(x) => Value::Int(x ^ 1),
                Value::Float(x) => Value::Float(f64::from_bits(x.to_bits() ^ 1)),
                Value::Bool(b) => Value::Bool(!b),
                other => panic!("unexpected payload {other:?}"),
            };
            let mut flipped = SnapshotBuf::new(typed.start());
            for s in &spans {
                flipped.push_raw(s.t_end, s.value.clone());
            }
            assert_ne!(typed, flipped, "{what}: typed != flipped");
            assert_ne!(boxed, flipped, "{what}: boxed != flipped");
            assert_ne!(boxed_twin(&spans, typed.start()), typed, "{what}: boxed flipped != typed");
        }
    }
}

#[test]
fn a_pooled_buffer_reused_across_classes_reads_back_clean() {
    let mut rng = Rng(0xC0FFEE);
    let mut pool = BufPool::new();
    let mut order = Vec::new();
    for round in 0..5 {
        for class in CLASSES {
            order.push((round, class));
        }
    }
    for (round, class) in order {
        let events = stream(&mut rng, class, 30);
        let range = range_of(&events, &mut rng);
        let model = Model::from_events(&events, range);
        let what = format!("round {round} {class:?}");

        // Refill by event append, by typed writer, and by slicing.
        let mut buf = pool.take(range.start);
        assert!(buf.is_empty() && buf.start() == range.start, "{what}: take resets");
        buf.extend_from_events(&events, Some(range));
        if buf.end() < range.end {
            buf.push_raw(range.end, Value::Null);
        }
        assert_same(&buf, &model, &what);
        pool.put(buf);

        let mut buf = pool.take(Time::new(7));
        let mut w = buf.f64_writer(Time::new(7));
        w.push(Time::new(9), None);
        w.push(Time::new(10), Some(2.5));
        let mut expected = Model::new(Time::new(7));
        expected.push_raw(Time::new(9), Value::Null);
        expected.push_raw(Time::new(10), Value::Float(2.5));
        assert_same(&buf, &expected, &format!("{what}: typed writer over a recycled buffer"));
        pool.put(buf);

        let mut out = pool.take(Time::ZERO);
        SnapshotBuf::from_events(&events, range).slice_into(range, &mut out);
        assert_same(&out, &model, &format!("{what}: slice into a recycled buffer"));
        pool.put(out);
        assert!(pool.idle() <= 2);
    }
}

#[test]
fn batched_lanes_land_as_spans() {
    use tilt_data::NullMask;
    let mut buf = SnapshotBuf::new(Time::ZERO);
    let mut lanes = NullMask::new(70);
    lanes.clear_all();
    lanes.set(1, true);
    lanes.set(64, true);
    let vals: Vec<i64> = (0..70).collect();
    let mut w = buf.i64_writer(Time::new(10));
    // 70 lanes stepping by 2 from tick 12, the last one held until 200.
    w.extend_lanes(Time::new(12), 2, Time::new(200), &vals, &lanes);
    w.extend_lanes(Time::new(999), 5, Time::new(201), &vals[..1], &lanes);
    let mut model = Model::new(Time::new(10));
    for j in 0..69 {
        let v = if j == 1 || j == 64 { Value::Null } else { Value::Int(j) };
        model.push_raw(Time::new(12 + 2 * j), v);
    }
    model.push_raw(Time::new(200), Value::Int(69));
    model.push_raw(Time::new(201), Value::Int(0));
    assert_same(&buf, &model, "lanes");
}
