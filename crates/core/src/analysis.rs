//! Temporal lineage analysis and boundary resolution (paper §5.1).
//!
//! The time-centric IR makes data dependencies across time explicit: a point
//! access `~x[t+d]` needs `~x` only at `t+d`, and a window reduce
//! `⊕(f, ~x[t+lo : t+hi])` needs `~x` only on `(t+lo, t+hi]`. *Boundary
//! resolution* folds these per-expression extents along the dependency
//! chains of a query to answer: to produce the output on `(Ts, Te]`, which
//! slice of each input is required? The answer — `(Ts − lookback,
//! Te + lookahead]` per input — is what lets the executor cut a stream into
//! independently processable partitions (paper Fig. 6), and what tells a
//! streaming session how far behind the watermark emission has to trail.
//!
//! # Where evaluation ticks fall
//!
//! An expression with a coarse time domain (precision `p > 1`) is evaluated
//! only at multiples of `p`, and the value computed at tick `g` is the one a
//! consumer sees on `(g − p, g]`: **reading a precision-`p` object at time
//! `u` yields what its expression computed at `ceil_p(u)`** — never at an
//! earlier tick. So an object that has to be readable through `Te + r` is
//! evaluated through `ceil_p(Te + r)`, and each of its own accesses reaches
//! that much further forward; nothing symmetric happens backward, because
//! the tick serving a read is never before the read.
//!
//! How far `ceil_p(Te + r)` lies past `Te + r` depends on where `Te` sits:
//!
//! * for an arbitrary `Te` it is at most `p − 1` ticks — the *conservative*
//!   extent ([`Boundary::extent`]), which holds for every interval and is
//!   what a one-shot run over an off-grid range uses;
//! * for a `Te` on the query grid (a multiple of every precision) it is
//!   exactly `Te + ceil_p(r)` — the *aligned* extent
//!   ([`Boundary::aligned_extent`]). A window reduce evaluated at `Te`
//!   reads `(Te − w, Te]` and nothing after it, so a chain of tumbling or
//!   sliding reduces has aligned lookahead 0 (paper Fig. 3b:
//!   `~filter[Ts:Te] ⇐ ~stock[Ts-20:Te]`), and only a `Shift` into the
//!   future contributes — rounded up to the grid of whatever coarse object
//!   it is read through.
//!
//! Streaming sessions emit only up to grid-aligned horizons, so they run on
//! the aligned extents: a window ending at `e` is final, and emitted, as
//! soon as the watermark reaches `e`.

use std::collections::HashMap;

use tilt_data::Time;

use crate::ir::{Expr, Query, TObjId};

/// The interval of offsets, relative to the evaluation time `t`, at which an
/// expression (or query output) reads an object: accesses fall within
/// `[t + lo, t + hi]`.
///
/// Unlike a plain lookback/lookahead pair, keeping the signed interval makes
/// composition precise: a `Shift(+2)` of a `Shift(-5)` reaches `[t-3, t-3]`,
/// not `[t-5, t+2]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Extent {
    /// Earliest access offset.
    pub lo: i64,
    /// Latest access offset.
    pub hi: i64,
}

impl Extent {
    /// The instantaneous access `[t, t]`.
    pub const ZERO: Extent = Extent { lo: 0, hi: 0 };

    /// Union of access intervals.
    pub fn join(self, other: Extent) -> Extent {
        Extent { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Sequential composition (Minkowski sum): reading an intermediate at
    /// offsets `self` whose definition itself reads at offsets `inner`.
    pub fn chain(self, inner: Extent) -> Extent {
        Extent { lo: self.lo + inner.lo, hi: self.hi + inner.hi }
    }

    /// Extent of a point access at `offset`.
    pub fn point(offset: i64) -> Extent {
        Extent { lo: offset, hi: offset }
    }

    /// Extent of a window access `(t+lo, t+hi]`.
    pub fn window(lo: i64, hi: i64) -> Extent {
        Extent { lo, hi }
    }

    /// Ticks of history needed before the output interval (≥ 0).
    pub fn lookback(&self) -> i64 {
        (-self.lo).max(0)
    }

    /// Ticks of future needed after the output interval (≥ 0).
    pub fn lookahead(&self) -> i64 {
        self.hi.max(0)
    }
}

/// What is required of one object: its extent for any output interval, and
/// the exact forward reach for an interval that ends on the query grid
/// (backward the two never differ).
#[derive(Clone, Copy, Debug)]
struct Need {
    ext: Extent,
    aligned_hi: i64,
}

impl Need {
    fn join(self, other: Need) -> Need {
        Need { ext: self.ext.join(other.ext), aligned_hi: self.aligned_hi.max(other.aligned_hi) }
    }
}

/// The resolved boundary conditions of a query (paper Fig. 3b):
/// producing the output on `(Ts, Te]` requires each object on
/// `(Ts − lookback, Te + lookahead]`.
///
/// Two extents are kept per object (see the module header): the
/// conservative one, valid for every `(Ts, Te]`, and the aligned one, exact
/// in its forward reach when `Te` is a multiple of the query grid.
#[derive(Clone, Debug, Default)]
pub struct Boundary {
    needs: HashMap<TObjId, Need>,
}

impl Boundary {
    /// The extent required of `obj` (inputs *and* intermediates), relative to
    /// an arbitrary output interval. Objects the output does not depend on
    /// have no entry.
    pub fn extent(&self, obj: TObjId) -> Extent {
        self.needs.get(&obj).map_or(Extent::ZERO, |n| n.ext)
    }

    /// The extent required of `obj` relative to an output interval whose end
    /// lies on the query grid (the lcm of every precision): the forward
    /// reach is exact — evaluation ticks past `Te` are `Te + ceil_p(r)`, not
    /// `Te + r + (p − 1)`. Equal to [`Boundary::extent`] backward.
    pub fn aligned_extent(&self, obj: TObjId) -> Extent {
        self.needs.get(&obj).map_or(Extent::ZERO, |n| Extent { lo: n.ext.lo, hi: n.aligned_hi })
    }

    /// Whether the output depends on `obj` at all.
    pub fn depends_on(&self, obj: TObjId) -> bool {
        self.needs.contains_key(&obj)
    }

    /// The largest lookback over all query inputs — the width of the
    /// duplicated region each parallel partition re-reads, and the history
    /// a streaming session keeps behind its watermark.
    pub fn max_input_lookback(&self, query: &Query) -> i64 {
        query.inputs().iter().map(|i| self.extent(*i).lookback()).max().unwrap_or(0)
    }

    /// The largest lookahead over all query inputs, for an arbitrary output
    /// interval.
    pub fn max_input_lookahead(&self, query: &Query) -> i64 {
        query.inputs().iter().map(|i| self.extent(*i).lookahead()).max().unwrap_or(0)
    }

    /// The largest lookahead over all query inputs for an output interval
    /// ending on the query grid: how far the input watermark must be past
    /// `Te` before the output through `Te` is final. 0 for every chain of
    /// window reduces; the forward reach of the `Shift`s otherwise.
    pub fn aligned_input_lookahead(&self, query: &Query) -> i64 {
        query.inputs().iter().map(|i| self.aligned_extent(*i).lookahead()).max().unwrap_or(0)
    }
}

/// Extents of the *direct* accesses of one expression, per referenced object.
pub fn direct_extents(body: &Expr) -> HashMap<TObjId, Extent> {
    let mut out: HashMap<TObjId, Extent> = HashMap::new();
    body.walk(&mut |e| {
        let (obj, ext) = match e {
            Expr::At { obj, offset } => (*obj, Extent::point(*offset)),
            Expr::Reduce { window, .. } => (window.obj, Extent::window(window.lo, window.hi)),
            _ => return,
        };
        out.entry(obj).and_modify(|e| *e = e.join(ext)).or_insert(ext);
    });
    out
}

/// Resolves the boundary conditions of `query` by propagating extents from
/// the output back along the temporal-lineage DAG.
///
/// Each expression turns what its consumers need of it into where its own
/// evaluation ticks fall, and only then distributes its accesses to its
/// dependencies: an object of precision `p` readable through `Te + r` is
/// evaluated through `ceil_p(Te + r)` — at most `p − 1` ticks further for an
/// arbitrary `Te`, exactly `Te + ceil_p(r)` for a `Te` on the grid. Backward
/// nothing is added: the tick serving a read at `u` is `ceil_p(u) ≥ u`.
pub fn resolve_boundaries(query: &Query) -> Boundary {
    let mut boundary = Boundary::default();
    boundary.needs.insert(query.output(), Need { ext: Extent::ZERO, aligned_hi: 0 });

    // Walk expressions in reverse topological order so each definition sees
    // the final extent of its own output before distributing to dependencies.
    for te in query.exprs().iter().rev() {
        let Some(&need) = boundary.needs.get(&te.output) else {
            continue; // dead expression: the output does not depend on it
        };
        // Where this expression's own evaluation ticks fall.
        let p = te.dom.precision;
        let ticks = Extent { lo: need.ext.lo, hi: need.ext.hi + (p - 1) };
        let aligned_tick_hi = Time::new(need.aligned_hi).align_up(p).ticks();
        for (dep, ext) in direct_extents(&te.body) {
            let total = Need { ext: ticks.chain(ext), aligned_hi: aligned_tick_hi + ext.hi };
            boundary.needs.entry(dep).and_modify(|n| *n = n.join(total)).or_insert(total);
        }
    }
    boundary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataType, Expr, ReduceOp, TDom};

    /// Builds the paper's trend-analysis query shape and checks the inferred
    /// boundary matches Fig. 3b: `~filter[Ts:Te] ⇐ ~stock[Ts-20:Te]`.
    #[test]
    fn trend_query_boundary_matches_paper() {
        let mut b = Query::builder();
        let stock = b.input("stock", DataType::Float);
        let sum10 =
            b.temporal("sum10", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, stock, 10));
        let sum20 =
            b.temporal("sum20", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, stock, 20));
        let avg10 = b.temporal("avg10", TDom::every_tick(), Expr::at(sum10).div(Expr::c(10.0)));
        let avg20 = b.temporal("avg20", TDom::every_tick(), Expr::at(sum20).div(Expr::c(20.0)));
        let join = b.temporal(
            "join",
            TDom::every_tick(),
            Expr::if_else(
                Expr::at(avg10).is_present().and(Expr::at(avg20).is_present()),
                Expr::at(avg10).sub(Expr::at(avg20)),
                Expr::null(),
            ),
        );
        let filter = b.temporal(
            "filter",
            TDom::every_tick(),
            Expr::if_else(Expr::at(join).gt(Expr::c(0.0)), Expr::at(join), Expr::null()),
        );
        let q = b.finish(filter).unwrap();
        let boundary = resolve_boundaries(&q);
        assert_eq!(boundary.extent(stock), Extent { lo: -20, hi: 0 });
        assert_eq!(boundary.extent(join), Extent::ZERO);
        assert_eq!(boundary.max_input_lookback(&q), 20);
        assert_eq!(boundary.max_input_lookahead(&q), 0);
    }

    #[test]
    fn shift_contributes_lookahead_and_lookback() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let past = b.temporal("past", TDom::every_tick(), Expr::at_off(input, -5));
        let future = b.temporal("future", TDom::every_tick(), Expr::at_off(past, 2));
        let q = b.finish(future).unwrap();
        let boundary = resolve_boundaries(&q);
        // future[t] = past[t+2] = in[t-3]: the signed composition is exact.
        assert_eq!(boundary.extent(past), Extent { lo: 2, hi: 2 });
        assert_eq!(boundary.extent(input), Extent { lo: -3, hi: -3 });
        assert_eq!(boundary.extent(input).lookback(), 3);
        assert_eq!(boundary.extent(input).lookahead(), 0);
    }

    #[test]
    fn window_extents_accumulate_along_chains() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let smooth =
            b.temporal("smooth", TDom::every_tick(), Expr::reduce_window(ReduceOp::Mean, input, 8));
        let agg =
            b.temporal("agg", TDom::every_tick(), Expr::reduce_window(ReduceOp::Max, smooth, 4));
        let q = b.finish(agg).unwrap();
        let boundary = resolve_boundaries(&q);
        assert_eq!(boundary.extent(smooth).lookback(), 4);
        assert_eq!(boundary.extent(input).lookback(), 12);
    }

    #[test]
    fn precision_adds_slack() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let win =
            b.temporal("win", TDom::unbounded(5), Expr::reduce_window(ReduceOp::Sum, input, 10));
        let q = b.finish(win).unwrap();
        let boundary = resolve_boundaries(&q);
        // Conservative: for an arbitrary `Te` the tick serving a read may
        // lie up to p − 1 = 4 ticks past it — forward only, a tick is never
        // before the read it serves.
        assert_eq!(boundary.extent(input), Extent { lo: -10, hi: 4 });
        assert_eq!(boundary.max_input_lookahead(&q), 4);
        // Aligned: the last tick in `(Ts, Te]` is `Te` itself and its window
        // `(Te − 10, Te]` ends there.
        assert_eq!(boundary.aligned_extent(input), Extent { lo: -10, hi: 0 });
        assert_eq!(boundary.aligned_input_lookahead(&q), 0);
        assert_eq!(boundary.max_input_lookback(&q), 10);
    }

    #[test]
    fn aligned_reach_rounds_a_forward_shift_up_to_the_grid_it_is_read_through() {
        // Shift *above* a coarse window: out[t] = win[t + 3], win on a
        // stride of 5. With `Te` on the grid, win is read through `Te + 3`,
        // so evaluated through `ceil_5(Te + 3) = Te + 5`.
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let win =
            b.temporal("win", TDom::unbounded(5), Expr::reduce_window(ReduceOp::Sum, input, 10));
        let out = b.temporal("out", TDom::every_tick(), Expr::at_off(win, 3));
        let q = b.finish(out).unwrap();
        let boundary = resolve_boundaries(&q);
        assert_eq!(boundary.aligned_extent(win), Extent { lo: 3, hi: 3 });
        assert_eq!(boundary.aligned_extent(input), Extent { lo: -7, hi: 5 });
        assert_eq!(boundary.aligned_input_lookahead(&q), 5);
        assert_eq!(boundary.max_input_lookahead(&q), 7); // 3 + (5 − 1)

        // Shift *below* it: win reduces fut[t] = in[t + 3]. The window's
        // last tick is `Te`; the shift reaches 3 past it, no rounding.
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let fut = b.temporal("fut", TDom::every_tick(), Expr::at_off(input, 3));
        let win =
            b.temporal("win", TDom::unbounded(5), Expr::reduce_window(ReduceOp::Sum, fut, 10));
        let q = b.finish(win).unwrap();
        let boundary = resolve_boundaries(&q);
        assert_eq!(boundary.aligned_input_lookahead(&q), 3);
        assert_eq!(boundary.max_input_lookahead(&q), 7);

        // A shift into the past read through a coarse object never turns
        // into lookahead: ceil_5(−7) = −5.
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let win =
            b.temporal("win", TDom::unbounded(5), Expr::reduce_window(ReduceOp::Sum, input, 10));
        let out = b.temporal("out", TDom::every_tick(), Expr::at_off(win, -7));
        let q = b.finish(out).unwrap();
        let boundary = resolve_boundaries(&q);
        assert_eq!(boundary.aligned_extent(input).hi, -5);
        assert_eq!(boundary.aligned_input_lookahead(&q), 0);
    }

    #[test]
    fn chained_tumbling_reduces_need_nothing_after_an_aligned_end() {
        // The factor-plan shape: panes of 10, peak pane per 60.
        let mut b = Query::builder();
        let input = b.input("in", DataType::Int);
        let panes = b.temporal(
            "panes",
            TDom::unbounded(10),
            Expr::reduce_window(ReduceOp::Count, input, 10),
        );
        let peak =
            b.temporal("peak", TDom::unbounded(60), Expr::reduce_window(ReduceOp::Max, panes, 60));
        let q = b.finish(peak).unwrap();
        let boundary = resolve_boundaries(&q);
        assert_eq!(boundary.aligned_extent(panes), Extent { lo: -60, hi: 0 });
        assert_eq!(boundary.aligned_input_lookahead(&q), 0);
        // Off the grid the panes may be evaluated 59 ticks past `Te`, and
        // each pane tick 9 past the read it serves.
        assert_eq!(boundary.extent(panes).hi, 59);
        assert_eq!(boundary.max_input_lookahead(&q), 68);
        assert_eq!(boundary.max_input_lookback(&q), 70);
    }

    #[test]
    fn dead_expressions_have_no_extent() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let _dead =
            b.temporal("dead", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, input, 100));
        let out = b.temporal("out", TDom::every_tick(), Expr::at(input));
        let q = b.finish(out).unwrap();
        let boundary = resolve_boundaries(&q);
        assert!(!boundary.depends_on(TObjId(1)));
        assert_eq!(boundary.extent(input), Extent::ZERO);
    }

    #[test]
    fn extent_algebra() {
        let a = Extent { lo: -3, hi: 1 };
        let b = Extent { lo: -1, hi: 4 };
        assert_eq!(a.join(b), Extent { lo: -3, hi: 4 });
        assert_eq!(a.chain(b), Extent { lo: -4, hi: 5 });
        assert_eq!(Extent::point(-7), Extent { lo: -7, hi: -7 });
        assert_eq!(Extent::point(-7).lookback(), 7);
        assert_eq!(Extent::point(3).lookahead(), 3);
        assert_eq!(Extent::window(-10, 2), Extent { lo: -10, hi: 2 });
    }
}
