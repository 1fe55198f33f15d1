//! Incremental window-reduction state (paper §6.1.2).
//!
//! Each [`ReduceSpec`] in a kernel gets a [`ReduceRunner`] that maintains the
//! reduction over a sliding window `(t+lo, t+hi]` as `t` advances
//! monotonically. A snapshot (span) of the source object is folded *once*
//! while it overlaps the window — eq. 3 of the paper reduces the values the
//! object assumes, one per snapshot.
//!
//! Strategy per operation:
//!
//! * Sum / Count / Mean / StdDev / Product — invertible accumulators with
//!   Subtract-on-Evict \[16\];
//! * Min / Max — monotonic deques with expiry-based eviction (O(1) amortized,
//!   no inverse needed);
//! * Custom with `deacc` — Subtract-on-Evict through the user's template;
//! * Custom without `deacc` — full window recomputation per evaluation.
//!
//! The runner reads its source as columns (span ends, φ mask, typed value
//! column) and works on *runs* of spans: the spans entering a slide are
//! folded in one loop, φ skipped a mask word at a time, and the typed
//! tier's fused map executes over the run as batched lanes. Mapped windows
//! fold the *mapped* value, and eviction must subtract the same value that
//! entered: the runner keeps mapped values in a flat typed ring, so
//! Subtract-on-Evict pops the ring instead of re-executing the fused map —
//! each element is mapped exactly once over its lifetime in the window.
//! Unmapped windows keep nothing: eviction re-reads the source column.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use tilt_data::{ColumnRef, NullMask, Payload, SnapshotBuf, Time, Value};

use super::batch::{BatchCtx, Lane, MAX_BATCH};
use super::compiled::{Class, TypedCtx, TypedMap};
use super::program::{EvalCtx, MapFn, ReduceSpec};
use crate::ir::{CustomReduce, ReduceOp};

/// The accumulator of one reduction.
///
/// The dynamic variants fold boxed [`Value`]s; the `*F`/`*I` variants are
/// the typed tier's unboxed counterparts, selected when the window's
/// element class is statically `f64`/`i64` ([`ReduceRunner::with_elem_class`]).
/// Each typed variant replays the exact operation sequence of its dynamic
/// twin (including int-wrapping and promotion order), so results are
/// bit-identical.
#[derive(Clone, Debug)]
enum State {
    Sum { acc: Value },
    SumF { acc: f64 },
    SumI { acc: i64 },
    Product { acc: Value, zeros: i64 },
    ProductF { acc: f64, zeros: i64 },
    ProductI { acc: i64, zeros: i64 },
    Count,
    Mean { sum: Value },
    MeanF { sum: f64 },
    MeanI { sum: i64 },
    StdDev { sum: f64, sumsq: f64 },
    MinMax { deque: VecDeque<(Value, Time)>, is_max: bool },
    MinMaxF { deque: VecDeque<(f64, Time)>, is_max: bool },
    MinMaxI { deque: VecDeque<(i64, Time)>, is_max: bool },
    Custom { state: Value, spec: Arc<CustomReduce> },
}

impl State {
    fn with_class(op: &ReduceOp, class: Option<Class>) -> State {
        match (op, class) {
            (ReduceOp::Sum, Some(Class::F)) => State::SumF { acc: 0.0 },
            (ReduceOp::Sum, Some(Class::I)) => State::SumI { acc: 0 },
            (ReduceOp::Sum, _) => State::Sum { acc: Value::Int(0) },
            (ReduceOp::Product, Some(Class::F)) => State::ProductF { acc: 1.0, zeros: 0 },
            (ReduceOp::Product, Some(Class::I)) => State::ProductI { acc: 1, zeros: 0 },
            (ReduceOp::Product, _) => State::Product { acc: Value::Int(1), zeros: 0 },
            (ReduceOp::Count, _) => State::Count,
            (ReduceOp::Mean, Some(Class::F)) => State::MeanF { sum: 0.0 },
            (ReduceOp::Mean, Some(Class::I)) => State::MeanI { sum: 0 },
            (ReduceOp::Mean, _) => State::Mean { sum: Value::Int(0) },
            (ReduceOp::StdDev, _) => State::StdDev { sum: 0.0, sumsq: 0.0 },
            (ReduceOp::Min, Some(Class::F)) => {
                State::MinMaxF { deque: VecDeque::new(), is_max: false }
            }
            (ReduceOp::Max, Some(Class::F)) => {
                State::MinMaxF { deque: VecDeque::new(), is_max: true }
            }
            (ReduceOp::Min, Some(Class::I)) => {
                State::MinMaxI { deque: VecDeque::new(), is_max: false }
            }
            (ReduceOp::Max, Some(Class::I)) => {
                State::MinMaxI { deque: VecDeque::new(), is_max: true }
            }
            (ReduceOp::Min, _) => State::MinMax { deque: VecDeque::new(), is_max: false },
            (ReduceOp::Max, _) => State::MinMax { deque: VecDeque::new(), is_max: true },
            (ReduceOp::Custom(c), _) => State::Custom { state: c.init.clone(), spec: c.clone() },
        }
    }

    /// Whether eviction is supported incrementally (otherwise the runner
    /// recomputes the window from scratch at each evaluation).
    fn invertible(&self) -> bool {
        match self {
            State::Custom { spec, .. } => spec.deacc.is_some(),
            _ => true,
        }
    }

    /// Folds one snapshot value in. `expire` is the snapshot's end time,
    /// used by deque-based states for eviction.
    fn add(&mut self, v: &Value, expire: Time) {
        match self {
            State::Sum { acc } | State::Mean { sum: acc } => *acc = acc.add(v),
            // Typed accumulators replay the dynamic promotion exactly: the
            // first `Int(0) + Float(x)` already computed in f64.
            State::SumF { acc } | State::MeanF { sum: acc } => {
                if let Some(x) = v.as_f64() {
                    *acc += x;
                }
            }
            State::SumI { acc } | State::MeanI { sum: acc } => {
                if let Some(x) = v.as_i64() {
                    *acc = acc.wrapping_add(x);
                }
            }
            State::Product { acc, zeros } => {
                if v.as_f64() == Some(0.0) || v.as_i64() == Some(0) {
                    *zeros += 1;
                } else {
                    *acc = acc.mul(v);
                }
            }
            State::ProductF { acc, zeros } => {
                if let Some(x) = v.as_f64() {
                    if x == 0.0 {
                        *zeros += 1;
                    } else {
                        *acc *= x;
                    }
                }
            }
            State::ProductI { acc, zeros } => {
                if let Some(x) = v.as_i64() {
                    if x == 0 {
                        *zeros += 1;
                    } else {
                        *acc = acc.wrapping_mul(x);
                    }
                }
            }
            State::Count => {}
            State::StdDev { sum, sumsq } => {
                let x = v.as_f64().unwrap_or(0.0);
                *sum += x;
                *sumsq += x * x;
            }
            State::MinMax { deque, is_max } => {
                let keep = |cand: &Value, v: &Value, is_max: bool| {
                    // Pop candidates dominated by the new value.
                    let cmp = if is_max { cand.le(v) } else { cand.ge(v) };
                    matches!(cmp, Value::Bool(true))
                };
                while let Some((cand, _)) = deque.back() {
                    if keep(cand, v, *is_max) {
                        deque.pop_back();
                    } else {
                        break;
                    }
                }
                deque.push_back((v.clone(), expire));
            }
            State::MinMaxF { deque, is_max } => {
                if let Some(x) = v.as_f64() {
                    while let Some((cand, _)) = deque.back() {
                        if if *is_max { *cand <= x } else { *cand >= x } {
                            deque.pop_back();
                        } else {
                            break;
                        }
                    }
                    deque.push_back((x, expire));
                }
            }
            State::MinMaxI { deque, is_max } => {
                if let Some(x) = v.as_i64() {
                    while let Some((cand, _)) = deque.back() {
                        if if *is_max { *cand <= x } else { *cand >= x } {
                            deque.pop_back();
                        } else {
                            break;
                        }
                    }
                    deque.push_back((x, expire));
                }
            }
            State::Custom { state, spec } => *state = (spec.acc)(state, v, 1),
        }
    }

    /// Unboxed `f64` fold — the typed tier's counterpart of [`State::add`]
    /// for element class `F`. Only reachable for states
    /// [`typed_fold_class`] maps to `Some(Class::F)`.
    #[inline]
    fn add_f(&mut self, x: f64, expire: Time) {
        match self {
            State::SumF { acc } | State::MeanF { sum: acc } => *acc += x,
            State::ProductF { acc, zeros } => {
                if x == 0.0 {
                    *zeros += 1;
                } else {
                    *acc *= x;
                }
            }
            State::StdDev { sum, sumsq } => {
                *sum += x;
                *sumsq += x * x;
            }
            State::MinMaxF { deque, is_max } => {
                while let Some((cand, _)) = deque.back() {
                    if if *is_max { *cand <= x } else { *cand >= x } {
                        deque.pop_back();
                    } else {
                        break;
                    }
                }
                deque.push_back((x, expire));
            }
            State::Count => {}
            _ => unreachable!("add_f on a non-f64 accumulator"),
        }
    }

    /// Unboxed `i64` fold for element class `I`. `StdDev` accumulates in
    /// `f64` exactly like the dynamic path's `as_f64` coercion.
    #[inline]
    fn add_i(&mut self, x: i64, expire: Time) {
        match self {
            State::SumI { acc } | State::MeanI { sum: acc } => *acc = acc.wrapping_add(x),
            State::ProductI { acc, zeros } => {
                if x == 0 {
                    *zeros += 1;
                } else {
                    *acc = acc.wrapping_mul(x);
                }
            }
            State::StdDev { sum, sumsq } => {
                let x = x as f64;
                *sum += x;
                *sumsq += x * x;
            }
            State::MinMaxI { deque, is_max } => {
                while let Some((cand, _)) = deque.back() {
                    if if *is_max { *cand <= x } else { *cand >= x } {
                        deque.pop_back();
                    } else {
                        break;
                    }
                }
                deque.push_back((x, expire));
            }
            State::Count => {}
            _ => unreachable!("add_i on a non-i64 accumulator"),
        }
    }

    /// Removes one snapshot value (Subtract-on-Evict path).
    fn remove(&mut self, v: &Value) {
        match self {
            State::Sum { acc } | State::Mean { sum: acc } => *acc = acc.sub(v),
            State::SumF { acc } | State::MeanF { sum: acc } => {
                if let Some(x) = v.as_f64() {
                    *acc -= x;
                }
            }
            State::SumI { acc } | State::MeanI { sum: acc } => {
                if let Some(x) = v.as_i64() {
                    *acc = acc.wrapping_sub(x);
                }
            }
            State::Product { acc, zeros } => {
                if v.as_f64() == Some(0.0) || v.as_i64() == Some(0) {
                    *zeros -= 1;
                } else {
                    *acc = acc.div(v);
                }
            }
            State::ProductF { acc, zeros } => {
                if let Some(x) = v.as_f64() {
                    if x == 0.0 {
                        *zeros -= 1;
                    } else {
                        *acc /= x;
                    }
                }
            }
            State::ProductI { acc, zeros } => {
                if let Some(x) = v.as_i64() {
                    if x == 0 {
                        *zeros -= 1;
                    } else {
                        *acc /= x;
                    }
                }
            }
            State::Count => {}
            State::StdDev { sum, sumsq } => {
                let x = v.as_f64().unwrap_or(0.0);
                *sum -= x;
                *sumsq -= x * x;
            }
            State::MinMax { .. } | State::MinMaxF { .. } | State::MinMaxI { .. } => {
                unreachable!("deque states evict by expiry")
            }
            State::Custom { state, spec } => {
                let deacc = spec.deacc.as_ref().expect("checked by invertible()");
                *state = (deacc)(state, v, 1);
            }
        }
    }

    /// Unboxed inverse of [`State::add_f`].
    #[inline]
    fn remove_f(&mut self, x: f64) {
        match self {
            State::SumF { acc } | State::MeanF { sum: acc } => *acc -= x,
            State::ProductF { acc, zeros } => {
                if x == 0.0 {
                    *zeros -= 1;
                } else {
                    *acc /= x;
                }
            }
            State::StdDev { sum, sumsq } => {
                *sum -= x;
                *sumsq -= x * x;
            }
            State::Count => {}
            _ => unreachable!("remove_f on a non-f64 accumulator"),
        }
    }

    /// Unboxed inverse of [`State::add_i`].
    #[inline]
    fn remove_i(&mut self, x: i64) {
        match self {
            State::SumI { acc } | State::MeanI { sum: acc } => *acc = acc.wrapping_sub(x),
            State::ProductI { acc, zeros } => {
                if x == 0 {
                    *zeros -= 1;
                } else {
                    *acc /= x;
                }
            }
            State::StdDev { sum, sumsq } => {
                let x = x as f64;
                *sum -= x;
                *sumsq -= x * x;
            }
            State::Count => {}
            _ => unreachable!("remove_i on a non-i64 accumulator"),
        }
    }

    /// Whether this accumulator evicts by expiry (monotonic deques) rather
    /// than subtraction.
    fn is_deque(&self) -> bool {
        matches!(self, State::MinMax { .. } | State::MinMaxF { .. } | State::MinMaxI { .. })
    }

    /// Expiry-based eviction for deque states: drops entries whose snapshot
    /// no longer overlaps a window starting (exclusively) at `new_lo`.
    fn evict_expired(&mut self, new_lo: Time) {
        fn drop_expired<T>(deque: &mut VecDeque<(T, Time)>, new_lo: Time) {
            while let Some((_, expire)) = deque.front() {
                if *expire <= new_lo {
                    deque.pop_front();
                } else {
                    break;
                }
            }
        }
        match self {
            State::MinMax { deque, .. } => drop_expired(deque, new_lo),
            State::MinMaxF { deque, .. } => drop_expired(deque, new_lo),
            State::MinMaxI { deque, .. } => drop_expired(deque, new_lo),
            _ => {}
        }
    }

    /// The reduction result given the number of folded snapshots.
    fn result(&self, count: i64) -> Value {
        if count == 0 {
            return Value::Null;
        }
        match self {
            State::Sum { acc } => acc.clone(),
            State::SumF { acc } => Value::Float(*acc),
            State::SumI { acc } => Value::Int(*acc),
            State::Product { acc, zeros } => {
                if *zeros > 0 {
                    Value::Int(0).mul(acc).add(&Value::Int(0)) // zero of acc's type
                } else {
                    acc.clone()
                }
            }
            State::ProductF { acc, zeros } => {
                if *zeros > 0 {
                    // The dynamic zero-of-type dance, replayed in f64.
                    Value::Float(0.0 * *acc + 0.0)
                } else {
                    Value::Float(*acc)
                }
            }
            State::ProductI { acc, zeros } => {
                if *zeros > 0 {
                    Value::Int(0)
                } else {
                    Value::Int(*acc)
                }
            }
            State::Count => Value::Int(count),
            State::Mean { sum } => sum.to_float().div(&Value::Int(count)),
            State::MeanF { sum } => Value::Float(sum / count as f64),
            State::MeanI { sum } => Value::Float(*sum as f64 / count as f64),
            State::StdDev { sum, sumsq } => {
                let n = count as f64;
                let mean = sum / n;
                let var = (sumsq / n - mean * mean).max(0.0);
                Value::Float(var.sqrt())
            }
            State::MinMax { deque, .. } => {
                deque.front().map(|(v, _)| v.clone()).unwrap_or(Value::Null)
            }
            State::MinMaxF { deque, .. } => {
                deque.front().map(|(v, _)| Value::Float(*v)).unwrap_or(Value::Null)
            }
            State::MinMaxI { deque, .. } => {
                deque.front().map(|(v, _)| Value::Int(*v)).unwrap_or(Value::Null)
            }
            State::Custom { state, spec } => (spec.result)(state, count),
        }
    }

    /// Unboxed `f64` result (`None` = φ) for states whose
    /// [`typed_result_class`] is `Some(Class::F)`. Replays the arithmetic
    /// of [`State::result`] exactly so `Some(x)` boxes to the same bits.
    #[inline]
    fn result_f(&self, count: i64) -> Option<f64> {
        if count == 0 {
            return None;
        }
        match self {
            State::SumF { acc } => Some(*acc),
            State::ProductF { acc, zeros } => {
                if *zeros > 0 {
                    // The dynamic zero-of-type dance, replayed in f64.
                    Some(0.0 * *acc + 0.0)
                } else {
                    Some(*acc)
                }
            }
            State::MeanF { sum } => Some(sum / count as f64),
            State::MeanI { sum } => Some(*sum as f64 / count as f64),
            State::StdDev { sum, sumsq } => {
                let n = count as f64;
                let mean = sum / n;
                let var = (sumsq / n - mean * mean).max(0.0);
                Some(var.sqrt())
            }
            State::MinMaxF { deque, .. } => deque.front().map(|(v, _)| *v),
            _ => unreachable!("result_f on a non-f64-result accumulator"),
        }
    }

    /// Unboxed `i64` result (`None` = φ) for states whose
    /// [`typed_result_class`] is `Some(Class::I)`.
    #[inline]
    fn result_i(&self, count: i64) -> Option<i64> {
        if count == 0 {
            return None;
        }
        match self {
            State::SumI { acc } => Some(*acc),
            State::ProductI { acc, zeros } => {
                if *zeros > 0 {
                    Some(0)
                } else {
                    Some(*acc)
                }
            }
            State::Count => Some(count),
            State::MinMaxI { deque, .. } => deque.front().map(|(v, _)| *v),
            _ => unreachable!("result_i on a non-i64-result accumulator"),
        }
    }

    /// Back to the empty accumulator of `(op, class)`; a deque keeps its
    /// buffer.
    fn reset(&mut self, op: &ReduceOp, class: Option<Class>) {
        match (&mut *self, State::with_class(op, class)) {
            (State::MinMax { deque, is_max }, State::MinMax { is_max: m, .. }) => {
                deque.clear();
                *is_max = m;
            }
            (State::MinMaxF { deque, is_max }, State::MinMaxF { is_max: m, .. }) => {
                deque.clear();
                *is_max = m;
            }
            (State::MinMaxI { deque, is_max }, State::MinMaxI { is_max: m, .. }) => {
                deque.clear();
                *is_max = m;
            }
            (state, fresh) => *state = fresh,
        }
    }
}

/// The unboxed class a typed runner folds elements as, or `None` when the
/// fold must stay dynamic (boxed `Value`). This is the static twin of the
/// accumulator variant [`State::with_class`] picks: `Some` exactly when
/// that variant has an `add_f`/`add_i` arm for the element class.
pub(crate) fn typed_fold_class(op: &ReduceOp, class: Option<Class>) -> Option<Class> {
    match (op, class) {
        (ReduceOp::Custom(_), _) => None,
        (_, Some(Class::F)) => Some(Class::F),
        (_, Some(Class::I)) => Some(Class::I),
        _ => None,
    }
}

/// The unboxed class a typed runner's *result* reads back as, or `None`
/// when the result must stay boxed. Mirrors [`State::result`]'s output
/// type per operation.
pub(crate) fn typed_result_class(op: &ReduceOp, class: Option<Class>) -> Option<Class> {
    match (op, typed_fold_class(op, class)?) {
        (ReduceOp::Count, _) => Some(Class::I),
        (ReduceOp::Mean | ReduceOp::StdDev, _) => Some(Class::F),
        (ReduceOp::Sum | ReduceOp::Product | ReduceOp::Min | ReduceOp::Max, c) => Some(c),
        (ReduceOp::Custom(_), _) => None,
    }
}

/// How one slide turns source spans into accumulator input: the element
/// representation (boxed for dynamic runners, unboxed for typed ones) and
/// the fused map, if any. The runner does the window bookkeeping; a fold
/// handles one *run* of spans at a time.
trait Fold {
    /// Folds the non-φ spans of `run` in.
    fn enter(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>);
    /// Takes the non-φ spans of `run` — the oldest in the window — out.
    fn evict(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>);
}

/// The dynamic fold: boxed elements, an optional boxed map. An unmapped
/// window re-reads the source column at eviction; a mapped one keeps the
/// mapped value of each live span in [`ReduceRunner::ring_v`] (φ = dropped
/// by the map).
struct DynFold<'m> {
    map: Option<&'m mut dyn FnMut(&Value) -> Value>,
}

impl Fold for DynFold<'_> {
    fn enter(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>) {
        for i in r.nulls.live(run.start, run.end) {
            let elem = r.col.value_at(i);
            let v = match &mut self.map {
                None => elem,
                Some(map) => {
                    let v = map(&elem);
                    r.ring_v.push_back(v.clone());
                    v
                }
            };
            if !v.is_null() {
                r.state.add(&v, r.ends[i]);
                r.count += 1;
            }
        }
    }

    fn evict(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>) {
        let deque = r.state.is_deque();
        for i in r.nulls.live(run.start, run.end) {
            let v = match &self.map {
                None => r.col.value_at(i),
                Some(_) => r.ring_v.pop_front().expect("one mapped value per live span"),
            };
            if !v.is_null() {
                if !deque {
                    r.state.remove(&v);
                }
                r.count -= 1;
            }
        }
    }
}

/// The mapped values of the spans in a typed mapped window, oldest first:
/// a flat value column with one slot per span and a mask flagging the
/// slots that carry nothing (φ source span, or φ map output). Entering
/// runs are appended as slices; eviction advances `head` and the dead
/// prefix is compacted away once it outweighs the live part.
#[derive(Default)]
struct Ring<T> {
    vals: Vec<T>,
    dropped: NullMask,
    head: usize,
}

impl<T: Copy + Default> Ring<T> {
    fn push(&mut self, mapped: Option<T>) {
        self.vals.push(mapped.unwrap_or_default());
        self.dropped.push(mapped.is_none());
    }

    /// Appends one slot per element of `vals`; `dropped` flags them.
    fn extend(&mut self, vals: &[T], dropped: &NullMask) {
        self.vals.extend_from_slice(vals);
        self.dropped.extend_from(dropped, 0, vals.len());
    }

    /// Removes the `n` oldest slots, handing each value they carry to
    /// `take`; returns how many carried one.
    fn pop_front(&mut self, n: usize, mut take: impl FnMut(T)) -> usize {
        let (lo, hi) = (self.head, self.head + n);
        for slot in self.dropped.live(lo, hi) {
            take(self.vals[slot]);
        }
        let carried = n - self.dropped.count_null(lo, hi);
        self.head = hi;
        if self.head >= 64 && self.head * 2 >= self.vals.len() {
            self.vals.drain(..self.head);
            self.dropped.drain_front(self.head);
            self.head = 0;
        }
        carried
    }

    fn clear(&mut self) {
        self.vals.clear();
        self.dropped.clear();
        self.head = 0;
    }
}

/// The unboxed element types of the typed fold path.
trait Elem: Lane {
    /// Slot `i` of a source column as this type (`None` = not foldable).
    fn read(col: &ColumnRef<'_>, i: usize) -> Option<Self>;
    fn add(state: &mut State, x: Self, expire: Time);
    fn remove(state: &mut State, x: Self);
    /// The runner's ring of mapped values of this type, and its
    /// accumulator.
    fn ring<'r>(r: &'r mut ReduceRunner<'_>) -> (&'r mut Ring<Self>, &'r mut State);
}

impl Elem for f64 {
    #[inline]
    fn read(col: &ColumnRef<'_>, i: usize) -> Option<f64> {
        col.f64_at(i)
    }
    #[inline]
    fn add(state: &mut State, x: f64, expire: Time) {
        state.add_f(x, expire);
    }
    #[inline]
    fn remove(state: &mut State, x: f64) {
        state.remove_f(x);
    }
    #[inline]
    fn ring<'r>(r: &'r mut ReduceRunner<'_>) -> (&'r mut Ring<f64>, &'r mut State) {
        (&mut r.ring_f, &mut r.state)
    }
}

impl Elem for i64 {
    #[inline]
    fn read(col: &ColumnRef<'_>, i: usize) -> Option<i64> {
        col.i64_at(i)
    }
    #[inline]
    fn add(state: &mut State, x: i64, expire: Time) {
        state.add_i(x, expire);
    }
    #[inline]
    fn remove(state: &mut State, x: i64) {
        state.remove_i(x);
    }
    #[inline]
    fn ring<'r>(r: &'r mut ReduceRunner<'_>) -> (&'r mut Ring<i64>, &'r mut State) {
        (&mut r.ring_i, &mut r.state)
    }
}

/// The typed fold of an unmapped window: elements are read straight off
/// the source column, at entry and again at eviction — no cache at all.
struct ColumnFold<T>(PhantomData<T>);

impl<T: Elem> Fold for ColumnFold<T> {
    fn enter(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>) {
        for i in r.nulls.live(run.start, run.end) {
            if let Some(x) = T::read(&r.col, i) {
                T::add(&mut r.state, x, r.ends[i]);
                r.count += 1;
            }
        }
    }

    fn evict(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>) {
        let deque = r.state.is_deque();
        for i in r.nulls.live(run.start, run.end) {
            if let Some(x) = T::read(&r.col, i) {
                if !deque {
                    T::remove(&mut r.state, x);
                }
                r.count -= 1;
            }
        }
    }
}

/// The typed fold of a mapped window: the compiled map runs over the
/// entering run — as batched lanes when the kernel drives a [`BatchCtx`]
/// and the map passed its gate, per element otherwise — and its outputs
/// are kept in the runner's typed [`Ring`], so eviction subtracts exactly
/// what entered without running the map again.
struct MappedFold<'m, T> {
    run: MapRun<'m>,
    elem: PhantomData<T>,
}

/// A window's compiled map and what it executes on: the scalar register
/// file always (it hosts per-element execution and the run counters), the
/// kernel's batch context too when the map passed the lanes gate.
pub(crate) struct MapRun<'m> {
    pub(crate) map: &'m TypedMap,
    pub(crate) ctx: &'m mut TypedCtx,
    pub(crate) lanes: Option<&'m mut BatchCtx>,
}

impl<T: Elem> Fold for MappedFold<'_, T> {
    fn enter(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>) {
        let MapRun { map, ctx, lanes } = &mut self.run;
        let (src_nulls, ends, col) = (r.nulls, r.ends, r.col);
        let folds_values = !matches!(r.state, State::Count);
        let Some(bc) = lanes.as_deref_mut() else {
            for i in run {
                let mapped: Option<T> =
                    if src_nulls.get(i) { None } else { map.apply(ctx, &col, i) };
                let (ring, state) = T::ring(r);
                ring.push(mapped);
                if let Some(x) = mapped {
                    T::add(state, x, ends[i]);
                    r.count += 1;
                }
            }
            return;
        };
        // The map runs over the whole run, a batch of lanes at a time; φ
        // source spans ride along as φ lanes.
        let mut lo = run.start;
        while lo < run.end {
            let hi = (lo + MAX_BATCH).min(run.end);
            let (vals, dropped) = map.apply_lanes::<T>(bc, ctx.t, &col, src_nulls, lo..hi);
            let vals = &vals[..hi - lo];
            ctx.map_runs += (hi - lo - src_nulls.count_null(lo, hi)) as u64;
            let (ring, state) = T::ring(r);
            ring.extend(vals, dropped);
            if folds_values {
                for lane in dropped.live(0, vals.len()) {
                    T::add(state, vals[lane], ends[lo + lane]);
                }
            }
            r.count += (vals.len() - dropped.count_null(0, vals.len())) as i64;
            lo = hi;
        }
    }

    fn evict(&mut self, r: &mut ReduceRunner<'_>, run: Range<usize>) {
        let deque = r.state.is_deque();
        let (ring, state) = T::ring(r);
        let carried = ring.pop_front(run.len(), |x| {
            if !deque {
                T::remove(state, x);
            }
        });
        r.count -= carried as i64;
    }
}

/// The first index `i ≥ from` at which `pred(ends[i])` stops holding
/// (`ends.len()` when it never does); `pred` is monotone over the sorted
/// ends. A few linear probes first — the hop of a sliding window is a span
/// or two — then a binary search for the long jumps.
#[inline]
fn skip_while(ends: &[Time], from: usize, pred: impl Fn(Time) -> bool) -> usize {
    const PROBES: usize = 4;
    let from = from.min(ends.len());
    match ends[from..].iter().take(PROBES).position(|&e| !pred(e)) {
        Some(k) => from + k,
        None => {
            let base = (from + PROBES).min(ends.len());
            base + ends[base..].partition_point(|&e| pred(e))
        }
    }
}

/// What a reduce slot owns across runs: the accumulator (with its deque
/// buffer, if any) and the rings of mapped values. A kernel's run state
/// keeps one per slot; [`ReduceRunner::with_store`] empties it into a
/// runner and [`ReduceRunner::into_store`] hands it back, so a run reuses
/// the buffers of the last one and carries none of its contents over.
#[derive(Default)]
pub(crate) struct ReduceStore {
    state: Option<State>,
    ring_v: VecDeque<Value>,
    ring_f: Ring<f64>,
    ring_i: Ring<i64>,
}

#[cfg(test)]
impl ReduceStore {
    /// Leaves junk in the accumulator and every ring, as a run cut short
    /// might: the next runner over this store must not see any of it.
    pub(super) fn poison(&mut self) {
        if let Some(state) = &mut self.state {
            state.add(&Value::Float(f64::NAN), Time::MAX);
            state.add(&Value::Int(i64::MIN), Time::MAX);
        }
        self.ring_v.push_back(Value::Float(f64::NAN));
        self.ring_f.push(Some(f64::NAN));
        self.ring_f.push(None);
        self.ring_i.push(Some(i64::MIN));
    }
}

/// Incremental evaluation of one window reduction over one source buffer.
///
/// The runner reads the source as columns — span ends, φ mask, value
/// column — and tracks which spans currently overlap the window
/// `(t+lo, t+hi]`: a span `(s, e]` overlaps iff `s < t+hi && e > t+lo`.
/// Slides must be called with non-decreasing `t`. Each slide first takes
/// out the spans that left (`[evict_idx, k)`), then folds in the run that
/// entered (`[enter_idx, j)`), φ skipped a mask word at a time. When
/// *everything* that was folded leaves — every tumbling window, and any
/// sliding window after a gap — the accumulator is reset rather than
/// subtracted from, so no float residue survives an empty window.
///
/// Between two *change points* — the times a non-φ span enters
/// ([`ReduceRunner::next_enter_time`]) or leaves
/// ([`ReduceRunner::next_evict_time`]) — the folded set, hence the result,
/// does not change, and a slide there moves nothing. Slides may therefore
/// skip any stretch between two change points: the next one takes out and
/// folds in the same spans in the same order, so the accumulator goes
/// through the same operations. The batched tier relies on this to copy
/// such lanes instead of sliding for each.
///
/// The runner borrows its source for one run; what it owns (accumulator,
/// rings) is handed from run to run by the kernel's run state: a run
/// empties it, it does not allocate it.
pub struct ReduceRunner<'a> {
    spec: &'a ReduceSpec,
    start: Time,
    ends: &'a [Time],
    nulls: &'a NullMask,
    col: ColumnRef<'a>,
    state: State,
    /// The statically known element class, when the typed kernel tier
    /// picked an unboxed accumulator.
    class: Option<Class>,
    /// Number of snapshots currently folded in (non-φ, post-map non-φ).
    count: i64,
    /// Index of the next span to *enter* (first span with `start ≥ cur_hi`).
    enter_idx: usize,
    /// Index of the next span to *evict* (first span with `end > cur_lo`).
    evict_idx: usize,
    /// Mapped values of the spans in `[evict_idx, enter_idx)`, oldest
    /// first, in the representation the slide folds (at most one ring is
    /// ever used by a runner; unmapped windows use none). Written once per
    /// element at entry, dropped at eviction — the fused map runs exactly
    /// once per element.
    ring_v: VecDeque<Value>,
    ring_f: Ring<f64>,
    ring_i: Ring<i64>,
    /// Current window end edge.
    cur_hi: Time,
    initialized: bool,
    /// Whether the last slide took any span out or in.
    moved: bool,
}

impl<'a> ReduceRunner<'a> {
    /// Creates a runner for `spec` over `src` with dynamic accumulators.
    pub fn new(spec: &'a ReduceSpec, src: &'a SnapshotBuf<Value>) -> Self {
        Self::with_store(spec, src, None, ReduceStore::default())
    }

    /// Creates a runner whose accumulator is monomorphized to the window's
    /// element class when that class is unboxed (`F`/`I`) — the typed
    /// tier's reduce fast path. Typed accumulators replay the dynamic
    /// operation sequence exactly, so either constructor produces
    /// bit-identical results on well-typed data.
    #[cfg(test)]
    pub(crate) fn with_elem_class(
        spec: &'a ReduceSpec,
        src: &'a SnapshotBuf<Value>,
        class: Option<Class>,
    ) -> Self {
        Self::with_store(spec, src, class, ReduceStore::default())
    }

    /// [`ReduceRunner::with_elem_class`] over the buffers of `store`,
    /// emptied first: the accumulator back to the empty one of
    /// `(spec.op, class)`, the rings cleared.
    pub(crate) fn with_store(
        spec: &'a ReduceSpec,
        src: &'a SnapshotBuf<Value>,
        class: Option<Class>,
        store: ReduceStore,
    ) -> Self {
        let ReduceStore { state, mut ring_v, mut ring_f, mut ring_i } = store;
        let state = match state {
            Some(mut state) => {
                state.reset(&spec.op, class);
                state
            }
            None => State::with_class(&spec.op, class),
        };
        ring_v.clear();
        ring_f.clear();
        ring_i.clear();
        ReduceRunner {
            spec,
            start: src.start(),
            ends: src.ends(),
            nulls: src.nulls(),
            col: src.column(),
            state,
            class,
            count: 0,
            enter_idx: 0,
            evict_idx: 0,
            ring_v,
            ring_f,
            ring_i,
            cur_hi: Time::MIN,
            initialized: false,
            moved: false,
        }
    }

    /// Gives the runner's buffers back for the next run.
    pub(crate) fn into_store(self) -> ReduceStore {
        ReduceStore {
            state: Some(self.state),
            ring_v: self.ring_v,
            ring_f: self.ring_f,
            ring_i: self.ring_i,
        }
    }

    /// The unboxed class this runner's typed slide folds elements as
    /// ([`ReduceRunner::slide_typed`]), or `None` when only the dynamic
    /// path applies.
    #[cfg(test)]
    pub(crate) fn fold_class(&self) -> Option<Class> {
        typed_fold_class(&self.spec.op, self.class)
    }

    /// Whether any snapshot is currently folded in.
    #[inline]
    pub fn has_content(&self) -> bool {
        self.count > 0
    }

    /// Whether the last slide took any span out of the window or into it
    /// (φ spans included: conservative). After a slide that did not, the
    /// result is the previous slide's, bit for bit.
    #[inline]
    pub(crate) fn moved(&self) -> bool {
        self.moved
    }

    /// The time `t` at which the *next* source span would enter the window,
    /// or `None` when no further span exists. Used by the kernel to skip
    /// over φ gaps (φ spans never produce content; the mask skips 64 of
    /// them per compare).
    pub fn next_enter_time(&self) -> Option<Time> {
        let i = self.nulls.next_non_null(self.enter_idx)?;
        Some(Time::new(self.span_start(i).ticks() - self.spec.hi + 1))
    }

    /// The time `t` at which the oldest in-window *non-φ* span will be
    /// evicted, or `None` if no folded span remains (φ evictions cannot
    /// change the result and are skipped).
    pub fn next_evict_time(&self) -> Option<Time> {
        let i = self.nulls.next_non_null(self.evict_idx).filter(|&i| i < self.enter_idx)?;
        Some(Time::new(self.ends[i].ticks() - self.spec.lo))
    }

    #[inline]
    fn span_start(&self, i: usize) -> Time {
        if i == 0 {
            self.start
        } else {
            self.ends[i - 1]
        }
    }

    /// Slides the window to `(t+lo, t+hi]` and returns the reduction
    /// result, applying the spec's interpreted [`MapFn`] (if any) through
    /// `ctx`.
    pub fn eval_at(&mut self, t: Time, ctx: &mut EvalCtx) -> Value {
        // Copy the `&'a` spec reference out of `self` so the map closure
        // can borrow `ctx` while `eval_at_with` holds `&mut self`.
        let spec = self.spec;
        match &spec.map {
            None => self.eval_at_with(t, None),
            Some(MapFn { var_slot, eval }) => {
                let slot = *var_slot;
                self.eval_at_with(
                    t,
                    Some(&mut |v| {
                        ctx.vars[slot] = v.clone();
                        eval(ctx)
                    }),
                )
            }
        }
    }

    /// Slides the window to `(t+lo, t+hi]` and returns the reduction
    /// result, with the fused element transform supplied as a closure —
    /// `None` for unmapped windows, the interpreted [`MapFn`] via
    /// [`ReduceRunner::eval_at`], or the typed tier's compiled map over a
    /// boxed element. A φ result from `map` drops the element, exactly like
    /// a φ source span. A runner must be slid with the same kind of map
    /// (or none) throughout.
    pub fn eval_at_with(&mut self, t: Time, map: Option<&mut dyn FnMut(&Value) -> Value>) -> Value {
        self.slide(t, &mut DynFold { map });
        self.state.result(self.count)
    }

    /// Typed slide — the batched and per-tick typed tiers' path when
    /// [`typed_fold_class`] is `Some(fold)`: elements reach the
    /// monomorphized accumulator unboxed, read off the source column (no
    /// map) or out of the compiled map's registers. Read the result
    /// afterwards with [`ReduceRunner::result_f`] or
    /// [`ReduceRunner::result_i`] per the operation's result class.
    pub(crate) fn slide_typed(&mut self, t: Time, fold: Class, map: Option<MapRun<'_>>) {
        match (fold, map) {
            (Class::F, None) => self.slide(t, &mut ColumnFold::<f64>(PhantomData)),
            (Class::I, None) => self.slide(t, &mut ColumnFold::<i64>(PhantomData)),
            (Class::F, Some(run)) => {
                self.slide(t, &mut MappedFold::<f64> { run, elem: PhantomData })
            }
            (Class::I, Some(run)) => {
                self.slide(t, &mut MappedFold::<i64> { run, elem: PhantomData })
            }
            _ => unreachable!("typed fold classes are F and I"),
        }
    }

    /// The unboxed `f64` result after a typed slide (`None` = φ).
    #[inline]
    pub(crate) fn result_f(&self) -> Option<f64> {
        self.state.result_f(self.count)
    }

    /// The unboxed `i64` result after a typed slide (`None` = φ).
    #[inline]
    pub(crate) fn result_i(&self) -> Option<i64> {
        self.state.result_i(self.count)
    }

    fn slide(&mut self, t: Time, fold: &mut impl Fold) {
        let new_lo = t + self.spec.lo;
        let new_hi = t + self.spec.hi;
        let ends = self.ends;
        if !self.initialized {
            self.initialized = true;
            // Position the indices at the first span that could overlap.
            self.evict_idx = ends.partition_point(|&e| e <= new_lo);
            self.enter_idx = self.evict_idx;
            self.cur_hi = new_lo;
        }
        debug_assert!(new_hi >= self.cur_hi, "reduce window must advance monotonically");
        self.cur_hi = new_hi;

        let (evict_from, enter_from) = (self.evict_idx, self.enter_idx);

        // Spans `[k, ..)` end inside or after the new window.
        let k = skip_while(ends, self.evict_idx, |e| e <= new_lo);
        let live_stays = self.nulls.next_non_null(k).is_some_and(|i| i < self.enter_idx);
        if !live_stays || !self.state.invertible() {
            // Nothing that was folded stays in the window (or the
            // accumulator cannot subtract): reset instead of subtracting,
            // and start over from the spans ahead — past any φ spans that
            // linger across the edge, or from `k` to recompute.
            self.clear();
            let restart = if self.state.invertible() { self.enter_idx.max(k) } else { k };
            self.evict_idx = restart;
            self.enter_idx = restart;
        } else {
            fold.evict(self, self.evict_idx..k);
            self.evict_idx = k;
            if self.state.is_deque() {
                self.state.evict_expired(new_lo);
            }
        }

        // Spans `[.., j)` start before the new window's end: span `i`
        // starts at `ends[i - 1]`, the first one at the buffer start.
        let j = if self.enter_idx == 0 && self.start >= new_hi {
            0
        } else {
            let from = self.enter_idx.max(1) - 1;
            (skip_while(ends, from, |e| e < new_hi) + 1).min(ends.len())
        };
        if j > self.enter_idx {
            fold.enter(self, self.enter_idx..j);
            self.enter_idx = j;
        }
        self.moved = (self.evict_idx, self.enter_idx) != (evict_from, enter_from);
    }

    /// Empties the accumulator and the rings.
    fn clear(&mut self) {
        if self.enter_idx > self.evict_idx {
            self.state.reset(&self.spec.op, self.class);
            self.count = 0;
            self.ring_v.clear();
            self.ring_f.clear();
            self.ring_i.clear();
        }
    }
}

impl std::fmt::Debug for ReduceRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReduceRunner")
            .field("op", &self.spec.op.name())
            .field("window", &(self.spec.lo, self.spec.hi))
            .field("count", &self.count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::DataType;
    use tilt_data::{Event, TimeRange};

    fn buf(points: &[(i64, f64)]) -> SnapshotBuf<Value> {
        let events: Vec<Event<Value>> =
            points.iter().map(|&(t, v)| Event::point(Time::new(t), Value::Float(v))).collect();
        let hi = points.iter().map(|p| p.0).max().unwrap_or(0);
        SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(hi)))
    }

    fn spec(op: ReduceOp, size: i64) -> ReduceSpec {
        ReduceSpec { op, obj: crate::ir::TObjId(0), lo: -size, hi: 0, map: None }
    }

    fn eval_series(spec: &ReduceSpec, src: &SnapshotBuf<Value>, ts: &[i64]) -> Vec<Value> {
        let mut runner = ReduceRunner::new(spec, src);
        let mut ctx = EvalCtx::default();
        ts.iter().map(|&t| runner.eval_at(Time::new(t), &mut ctx)).collect()
    }

    #[test]
    fn sliding_sum_subtract_on_evict() {
        let src = buf(&[(1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)]);
        let s = spec(ReduceOp::Sum, 3);
        let out = eval_series(&s, &src, &[1, 2, 3, 4, 5, 8, 9]);
        let expect = [1.0, 3.0, 6.0, 9.0, 12.0];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(out[i], Value::Float(*e), "t index {i}");
        }
        assert_eq!(out[5], Value::Null); // window (5,8] is empty
        assert_eq!(out[6], Value::Null); // window (6,9] is empty
    }

    #[test]
    fn mean_and_count() {
        let src = buf(&[(1, 2.0), (2, 4.0), (3, 6.0)]);
        let m = spec(ReduceOp::Mean, 2);
        assert_eq!(eval_series(&m, &src, &[2]), vec![Value::Float(3.0)]);
        let c = spec(ReduceOp::Count, 2);
        assert_eq!(eval_series(&c, &src, &[2, 3]), vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn max_deque_evicts_correctly() {
        let src = buf(&[(1, 5.0), (2, 3.0), (3, 4.0), (4, 1.0), (5, 2.0)]);
        let s = spec(ReduceOp::Max, 2);
        let out = eval_series(&s, &src, &[1, 2, 3, 4, 5]);
        let expect = [5.0, 5.0, 4.0, 4.0, 2.0];
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(out[i], Value::Float(*e), "t={}", i + 1);
        }
    }

    #[test]
    fn min_deque() {
        let src = buf(&[(1, 5.0), (2, 3.0), (3, 4.0), (4, 6.0)]);
        let s = spec(ReduceOp::Min, 2);
        let out = eval_series(&s, &src, &[2, 3, 4]);
        assert_eq!(out, vec![Value::Float(3.0), Value::Float(3.0), Value::Float(4.0)]);
    }

    #[test]
    fn stddev_population() {
        let src =
            buf(&[(1, 2.0), (2, 4.0), (3, 4.0), (4, 4.0), (5, 5.0), (6, 5.0), (7, 7.0), (8, 9.0)]);
        let s = spec(ReduceOp::StdDev, 8);
        let out = eval_series(&s, &src, &[8]);
        let Value::Float(x) = out[0] else { panic!("expected float") };
        assert!((x - 2.0).abs() < 1e-9); // classic σ=2 dataset
    }

    #[test]
    fn product_handles_zeros() {
        let src = buf(&[(1, 2.0), (2, 0.0), (3, 3.0), (4, 4.0)]);
        let s = spec(ReduceOp::Product, 2);
        let out = eval_series(&s, &src, &[2, 3, 4]);
        assert_eq!(out[0], Value::Float(0.0));
        assert_eq!(out[1], Value::Float(0.0));
        assert_eq!(out[2], Value::Float(12.0));
    }

    #[test]
    fn empty_window_is_null() {
        let src = buf(&[(5, 1.0)]);
        let s = spec(ReduceOp::Sum, 2);
        assert_eq!(eval_series(&s, &src, &[2]), vec![Value::Null]);
    }

    #[test]
    fn next_enter_and_evict_times() {
        let src = buf(&[(5, 1.0), (10, 2.0)]);
        let s = spec(ReduceOp::Sum, 3);
        let mut runner = ReduceRunner::new(&s, &src);
        let mut ctx = EvalCtx::default();
        let v = runner.eval_at(Time::new(1), &mut ctx);
        assert_eq!(v, Value::Null);
        // Event at 5 spans (4,5]; enters window (t-3, t] when t > 4.
        assert_eq!(runner.next_enter_time(), Some(Time::new(5)));
        runner.eval_at(Time::new(5), &mut ctx);
        assert!(runner.has_content());
        // Span (4,5] evicted when t-3 >= 5, i.e. t = 8.
        assert_eq!(runner.next_evict_time(), Some(Time::new(8)));
    }

    #[test]
    fn custom_reduce_with_deacc() {
        // Sum of squares via the user template.
        let custom = Arc::new(CustomReduce {
            name: "sumsq".into(),
            result_type: DataType::Float,
            init: Value::Float(0.0),
            acc: Arc::new(|s, v, _| s.add(&v.mul(v))),
            deacc: Some(Arc::new(|s, v, _| s.sub(&v.mul(v)))),
            result: Arc::new(|s, _| s.clone()),
        });
        let src = buf(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let s = spec(ReduceOp::Custom(custom), 2);
        let out = eval_series(&s, &src, &[2, 3]);
        assert_eq!(out, vec![Value::Float(5.0), Value::Float(13.0)]);
    }

    #[test]
    fn custom_reduce_without_deacc_recomputes() {
        // "last value" aggregate: not invertible.
        let custom = Arc::new(CustomReduce {
            name: "last".into(),
            result_type: DataType::Float,
            init: Value::Null,
            acc: Arc::new(|_, v, _| v.clone()),
            deacc: None,
            result: Arc::new(|s, _| s.clone()),
        });
        let src = buf(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        let s = spec(ReduceOp::Custom(custom), 2);
        let out = eval_series(&s, &src, &[2, 3, 6]);
        assert_eq!(out, vec![Value::Float(2.0), Value::Float(3.0), Value::Null]);
    }

    #[test]
    fn evict_subtracts_cached_value_without_rerunning_map() {
        // Ten points sliding through a width-3 window: each element must be
        // mapped exactly once (at entry), never again at eviction.
        let pts: Vec<(i64, f64)> = (1..=10).map(|t| (t, t as f64)).collect();
        let src = buf(&pts);
        let s = spec(ReduceOp::Sum, 3);
        let mut runner = ReduceRunner::new(&s, &src);
        let mut runs = 0u64;
        let mut out = Vec::new();
        for t in 1..=13 {
            out.push(runner.eval_at_with(
                Time::new(t),
                Some(&mut |v: &Value| {
                    runs += 1;
                    v.clone()
                }),
            ));
        }
        assert_eq!(runs, 10, "fused map must run once per element, not once per evict too");
        // And the results are still the correct sliding sums.
        assert_eq!(out[4], Value::Float(3.0 + 4.0 + 5.0));
        assert_eq!(out[12], Value::Null);
    }

    #[test]
    fn deque_recount_uses_cached_fold_outcome() {
        // The Max deque's evict-recount path historically re-applied the map
        // to decide whether an expired span had been counted.
        let pts: Vec<(i64, f64)> = (1..=10).map(|t| (t, (t % 4) as f64)).collect();
        let src = buf(&pts);
        let s = spec(ReduceOp::Max, 2);
        let mut runner = ReduceRunner::new(&s, &src);
        let mut runs = 0u64;
        for t in 1..=12 {
            runner.eval_at_with(
                Time::new(t),
                Some(&mut |v: &Value| {
                    runs += 1;
                    v.clone()
                }),
            );
        }
        assert_eq!(runs, 10);
    }

    #[test]
    fn typed_slide_matches_dynamic_results() {
        let pts: Vec<(i64, f64)> = (1..=20).map(|t| (t, (t as f64) * 1.5 - 7.0)).collect();
        let src = buf(&pts);
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Product, ReduceOp::StdDev] {
            let s = spec(op.clone(), 5);
            let mut dynr = ReduceRunner::new(&s, &src);
            let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::F));
            assert_eq!(typr.fold_class(), Some(Class::F));
            for t in 1..=25 {
                let d = dynr.eval_at_with(Time::new(t), None);
                typr.slide_typed(Time::new(t), Class::F, None);
                let ty = typr.result_f().map(Value::Float).unwrap_or(Value::Null);
                assert_eq!(d, ty, "op {} t={t}", s.op.name());
            }
        }
        // Count folds either class and results in i64.
        let s = spec(ReduceOp::Count, 5);
        let mut dynr = ReduceRunner::new(&s, &src);
        let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::F));
        for t in 1..=25 {
            let d = dynr.eval_at_with(Time::new(t), None);
            typr.slide_typed(Time::new(t), Class::F, None);
            let ty = typr.result_i().map(Value::Int).unwrap_or(Value::Null);
            assert_eq!(d, ty, "count t={t}");
        }
        // Min/Max through the typed deque.
        for op in [ReduceOp::Min, ReduceOp::Max] {
            let s = spec(op, 3);
            let mut dynr = ReduceRunner::new(&s, &src);
            let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::F));
            for t in 1..=25 {
                let d = dynr.eval_at_with(Time::new(t), None);
                typr.slide_typed(Time::new(t), Class::F, None);
                let ty = typr.result_f().map(Value::Float).unwrap_or(Value::Null);
                assert_eq!(d, ty, "op {} t={t}", s.op.name());
            }
        }
    }

    #[test]
    fn typed_i64_slide_matches_dynamic() {
        let events: Vec<Event<Value>> =
            (1..=15).map(|t| Event::point(Time::new(t), Value::Int(t * 3 - 20))).collect();
        let src = SnapshotBuf::from_events(&events, TimeRange::new(Time::new(0), Time::new(15)));
        for op in [ReduceOp::Sum, ReduceOp::Mean, ReduceOp::Min, ReduceOp::Max] {
            let s = spec(op.clone(), 4);
            let mut dynr = ReduceRunner::new(&s, &src);
            let mut typr = ReduceRunner::with_elem_class(&s, &src, Some(Class::I));
            assert_eq!(typr.fold_class(), Some(Class::I));
            let res_class = typed_result_class(&s.op, Some(Class::I)).unwrap();
            for t in 1..=20 {
                let d = dynr.eval_at_with(Time::new(t), None);
                typr.slide_typed(Time::new(t), Class::I, None);
                let ty = match res_class {
                    Class::F => typr.result_f().map(Value::Float).unwrap_or(Value::Null),
                    Class::I => typr.result_i().map(Value::Int).unwrap_or(Value::Null),
                    _ => unreachable!(),
                };
                assert_eq!(d, ty, "op {} t={t}", s.op.name());
            }
        }
    }

    #[test]
    fn mapped_window_filters_nulls() {
        // map: keep only values > 2 (others become φ and are skipped).
        use super::super::program::compile;
        let v = crate::ir::VarId(0);
        let body = Expr::Reduce {
            op: ReduceOp::Count,
            window: crate::ir::WindowRef {
                obj: crate::ir::TObjId(0),
                lo: -3,
                hi: 0,
                map: Some((
                    v,
                    Box::new(Expr::if_else(
                        Expr::Var(v).gt(Expr::c(2.0)),
                        Expr::Var(v),
                        Expr::null(),
                    )),
                )),
            },
        };
        use crate::ir::Expr;
        let p = compile(&body).unwrap();
        let src = buf(&[(1, 1.0), (2, 3.0), (3, 5.0)]);
        let mut ctx = p.new_ctx();
        let mut runner = ReduceRunner::new(&p.reduces[0], &src);
        let out = runner.eval_at(Time::new(3), &mut ctx);
        assert_eq!(out, Value::Int(2));
    }
}
