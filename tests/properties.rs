//! Property-based tests (proptest) for the core invariants:
//!
//! * snapshot buffers round-trip event streams and survive slicing/concat;
//! * randomly generated operator pipelines evaluate identically on the
//!   reference evaluator and the TiLT compiler (fused and unfused);
//! * parallel partitioned execution equals serial execution for arbitrary
//!   partition sizes;
//! * incremental window reduction equals naive recomputation;
//! * plans mixing precisions (strides 1/4/6, `Chop`, chained reduces, shifts
//!   above and below a coarse node) release, from a session stepped along
//!   the grid, exactly the final output through `e − aligned lookahead`.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr};
use tilt_core::Compiler;
use tilt_data::{
    coalesce, streams_close, streams_equivalent, Event, SnapshotBuf, Time, TimeRange, Value,
};
use tilt_query::{elem, lhs, rhs, Agg, LogicalPlan, NodeId};

/// Random sorted, disjoint event stream over (0, 400] with gaps.
fn arb_events() -> impl Strategy<Value = Vec<Event<Value>>> {
    prop::collection::vec((1i64..6, 1i64..5, -50i64..50), 0..60).prop_map(|segments| {
        let mut t = 0i64;
        let mut out = Vec::new();
        for (gap, len, val) in segments {
            let start = t + gap;
            let end = start + len;
            // Scale to quarter-steps so equal adjacent values happen often
            // enough to exercise coalescing paths.
            out.push(Event::new(
                Time::new(start),
                Time::new(end),
                Value::Float((val / 4) as f64 * 0.25),
            ));
            t = end;
        }
        out
    })
}

/// A random unary operator stage appended to a plan.
#[derive(Clone, Debug)]
enum Stage {
    Select(i32),
    Where(i32),
    Shift(i8),
    Window { size: u8, stride: u8, agg: u8 },
    Chop(u8),
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        (-3i32..4).prop_map(Stage::Select),
        (-40i32..40).prop_map(Stage::Where),
        (-5i8..6).prop_map(Stage::Shift),
        (1u8..12, 1u8..6, 0u8..5).prop_map(|(size, stride, agg)| {
            let stride = stride.min(size);
            Stage::Window { size, stride, agg }
        }),
    ]
}

/// Stages whose grids are 1, 4 and 6 ticks — coarse nodes that divide
/// neither each other nor the shifts placed around them, so the aligned
/// boundary rule is exercised where its lookahead is *not* zero.
fn arb_mixed_stage() -> impl Strategy<Value = Stage> {
    let stride = || (0usize..3).prop_map(|i| [1u8, 4, 6][i]);
    prop_oneof![
        (-3i32..4).prop_map(Stage::Select),
        (-5i8..6).prop_map(Stage::Shift),
        (-5i8..6).prop_map(Stage::Shift),
        (stride(), 0u8..7, 0u8..5).prop_map(|(stride, extra, agg)| Stage::Window {
            size: stride + extra,
            stride,
            agg
        }),
        (stride(), 0u8..7, 0u8..5).prop_map(|(stride, extra, agg)| Stage::Window {
            size: stride + extra,
            stride,
            agg
        }),
        stride().prop_map(Stage::Chop),
    ]
}

/// `events` restricted to `(.., end]`.
fn through(events: &[Event<Value>], end: Time) -> Vec<Event<Value>> {
    events
        .iter()
        .filter(|e| e.start < end)
        .map(|e| Event::new(e.start, e.end.min(end), e.payload.clone()))
        .collect()
}

fn build_plan(stages: &[Stage], join_tail: bool) -> (LogicalPlan, NodeId) {
    let mut plan = LogicalPlan::new();
    let src = plan.source("s", DataType::Float);
    let mut node = src;
    for st in stages {
        node = match st {
            Stage::Select(k) => plan.select(node, elem().add(Expr::c(*k as f64))),
            Stage::Where(th) => plan.where_(node, elem().gt(Expr::c(*th as f64 * 0.1))),
            Stage::Shift(d) => plan.shift(node, *d as i64),
            Stage::Window { size, stride, agg } => {
                let agg = match agg % 5 {
                    0 => Agg::Sum,
                    1 => Agg::Count,
                    2 => Agg::Mean,
                    3 => Agg::Min,
                    _ => Agg::Max,
                };
                plan.window(node, *size as i64, *stride as i64, agg)
            }
            Stage::Chop(period) => plan.chop(node, *period as i64),
        };
    }
    if join_tail {
        // Join the pipeline against its own source: exercises the
        // pipeline-breaker fusion paths.
        node = plan.join(node, src, lhs().add(rhs()));
    }
    (plan, node)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SnapshotBuf::from_events / to_events is the identity on coalesced
    /// streams.
    #[test]
    fn ssbuf_roundtrip(events in arb_events()) {
        let hi = events.last().map_or(Time::new(1), |e| e.end);
        let range = TimeRange::new(Time::ZERO, hi);
        let buf = SnapshotBuf::from_events(&events, range);
        buf.check_invariants().unwrap();
        prop_assert!(streams_equivalent(&buf.to_events(), &coalesce(&events)));
    }

    /// Slicing at an arbitrary cut and concatenating reproduces the buffer's
    /// semantics.
    #[test]
    fn ssbuf_slice_concat(events in arb_events(), cut in 0i64..400) {
        let hi = events.last().map_or(Time::new(1), |e| e.end) + 1;
        let range = TimeRange::new(Time::ZERO, hi);
        let buf = SnapshotBuf::from_events(&events, range);
        let cut = Time::new(cut.min(hi.ticks() - 1).max(0));
        let a = buf.slice(TimeRange::new(Time::ZERO, cut));
        let b = buf.slice(TimeRange::new(cut, hi));
        let joined = SnapshotBuf::concat(vec![a, b]);
        prop_assert!(streams_equivalent(&joined.to_events(), &buf.to_events()));
        // Point lookups agree everywhere.
        for t in 0..hi.ticks() {
            prop_assert_eq!(joined.value_at(Time::new(t)), buf.value_at(Time::new(t)));
        }
    }

    /// Random pipelines: reference evaluator == TiLT fused == TiLT unfused.
    #[test]
    fn random_pipelines_agree(
        events in arb_events(),
        stages in prop::collection::vec(arb_stage(), 1..5),
        join_tail in any::<bool>(),
    ) {
        let (plan, out) = build_plan(&stages, join_tail);
        let hi = events.last().map_or(Time::new(10), |e| e.end) + 10;
        let q = tilt_query::lower(&plan, out).unwrap();
        let fused = Compiler::new().compile(&q).unwrap();
        let unfused = Compiler::unoptimized().compile(&q).unwrap();
        let range = TimeRange::new(Time::ZERO, hi.align_up(fused.grid()));
        let expected = tilt_query::reference::evaluate(&plan, out, std::slice::from_ref(&events), range);
        let buf = SnapshotBuf::from_events(&events, range);
        let got_fused = fused.run(&[&buf], range).to_events();
        prop_assert!(
            streams_close(&expected, &got_fused, 1e-6),
            "fused vs reference: {:?}\n vs {:?}\nplan: {:?}",
            got_fused, expected, stages
        );
        let got_unfused = unfused.run(&[&buf], range).to_events();
        prop_assert!(
            streams_close(&expected, &got_unfused, 1e-6),
            "unfused vs reference: plan {:?}", stages
        );
    }

    /// Parallel == serial for random partition intervals and thread counts.
    #[test]
    fn parallel_equals_serial(
        events in arb_events(),
        stages in prop::collection::vec(arb_stage(), 1..4),
        threads in 1usize..5,
        interval in 7i64..200,
    ) {
        let (plan, out) = build_plan(&stages, false);
        let q = tilt_query::lower(&plan, out).unwrap();
        let cq = Compiler::new().compile(&q).unwrap();
        let hi = events.last().map_or(Time::new(10), |e| e.end) + 10;
        let range = TimeRange::new(Time::ZERO, hi.align_up(cq.grid()));
        let buf = SnapshotBuf::from_events(&events, range);
        let serial = cq.run(&[&buf], range).to_events();
        let par = cq.run_parallel(&[&buf], range, threads, interval).to_events();
        prop_assert!(
            streams_close(&serial, &par, 1e-6),
            "threads={} interval={} plan={:?}", threads, interval, stages
        );
    }

    /// Incremental window reduction equals the naive per-window fold.
    #[test]
    fn incremental_reduce_equals_naive(
        events in arb_events(),
        size in 1i64..15,
        stride in 1i64..6,
        agg_pick in 0u8..5,
    ) {
        let stride = stride.min(size);
        let agg = match agg_pick {
            0 => Agg::Sum,
            1 => Agg::Count,
            2 => Agg::Mean,
            3 => Agg::Min,
            _ => Agg::Max,
        };
        let mut plan = LogicalPlan::new();
        let src = plan.source("s", DataType::Float);
        let out = plan.window(src, size, stride, agg.clone());
        let q = tilt_query::lower(&plan, out).unwrap();
        let cq = Compiler::new().compile(&q).unwrap();
        let hi = events.last().map_or(Time::new(10), |e| e.end) + size;
        let range = TimeRange::new(Time::ZERO, hi.align_up(stride));
        let buf = SnapshotBuf::from_events(&events, range);
        let got = cq.run(&[&buf], range).to_events();
        let expected = tilt_query::reference::evaluate(&plan, out, std::slice::from_ref(&events), range);
        prop_assert!(
            streams_close(&expected, &got, 1e-6),
            "window({},{}) {:?}: {:?} vs {:?}", size, stride, agg, got, expected
        );
    }

    /// Mixed precisions: reference == one-shot `run` == a session stepped
    /// along the grid, which after every `advance_to(e)` has released
    /// exactly the final output through `align_down(e − lookahead)`; and
    /// flushed at an end off the grid, a fresh session and a stepped one
    /// both equal the one-shot run over that range.
    #[test]
    fn mixed_precision_sessions_release_exactly_the_final_prefix(
        events in arb_events(),
        stages in prop::collection::vec(arb_mixed_stage(), 1..5),
        join_tail in any::<bool>(),
        steps in prop::collection::vec(1i64..4, 1..8),
    ) {
        let (plan, out) = build_plan(&stages, join_tail);
        let q = tilt_query::lower(&plan, out).unwrap();
        let hi = events.last().map_or(Time::new(10), |e| e.end) + 10;
        for cq in [Compiler::new(), Compiler::unoptimized()].map(|c| Arc::new(c.compile(&q).unwrap())) {
            let grid = cq.grid();
            let range = TimeRange::new(Time::ZERO, hi.align_up(grid));
            let expected =
                tilt_query::reference::evaluate(&plan, out, std::slice::from_ref(&events), range);
            let buf = SnapshotBuf::from_events(&events, range);
            let oneshot = cq.run(&[&buf], range).to_events();
            prop_assert!(
                streams_close(&expected, &oneshot, 1e-6),
                "one-shot vs reference: {:?}\n vs {:?}\nplan: {:?}", oneshot, expected, stages
            );

            let la = cq.boundary().aligned_input_lookahead(cq.query());
            prop_assert!(la <= cq.boundary().max_input_lookahead(cq.query()));
            let mut session = cq.shared_stream_session(Time::ZERO);
            let mut got: Vec<Event<Value>> = Vec::new();
            let mut pushed = 0;
            let mut e = Time::ZERO;
            for step in steps.iter().cycle() {
                if e >= range.end {
                    break;
                }
                e = (e + step * grid).min(range.end);
                let upto = pushed + events[pushed..].partition_point(|ev| ev.start < e);
                session.push_events(0, &events[pushed..upto]);
                pushed = upto;
                got.extend(session.advance_to(e).to_events());
                let released = Time::new(e.ticks() - la).align_down(grid).max(Time::ZERO);
                prop_assert_eq!(session.watermark(), released);
                prop_assert!(
                    streams_close(&through(&expected, released), &got, 1e-6),
                    "after advance_to({}) with lookahead {}: {:?}\n vs final {:?}\nplan: {:?}",
                    e, la, got, through(&expected, released), stages
                );
            }
            got.extend(session.flush_to(range.end).to_events());
            prop_assert!(
                streams_close(&expected, &got, 1e-6),
                "session vs reference: {:?}\n vs {:?}\nplan: {:?}", got, expected, stages
            );

            // An end off the grid (whenever the grid is coarser than a
            // tick): the output tail past the last grid tick. The reference
            // fills that tail where kernels emit φ, so these two flushes
            // are held to the one-shot run over the same range instead.
            let off = TimeRange::new(Time::ZERO, Time::new(range.end.ticks() - 1));
            let want = cq.run(&[&SnapshotBuf::from_events(&events, off)], off).to_events();
            let mut fresh = cq.shared_stream_session(Time::ZERO);
            fresh.push_events(0, &events);
            let flushed = fresh.flush_to(off.end).to_events();
            prop_assert!(
                streams_close(&want, &flushed, 1e-6),
                "fresh session flushed at {}: {:?}\n vs one-shot {:?}\nplan: {:?}",
                off.end, flushed, want, stages
            );
            let mut stepped = cq.shared_stream_session(Time::ZERO);
            let mut got: Vec<Event<Value>> = Vec::new();
            let mut pushed = 0;
            let mut e = Time::ZERO;
            for step in steps.iter().cycle() {
                e += step * grid;
                if e >= off.end {
                    break;
                }
                let upto = pushed + events[pushed..].partition_point(|ev| ev.start < e);
                stepped.push_events(0, &events[pushed..upto]);
                pushed = upto;
                got.extend(stepped.advance_to(e).to_events());
            }
            stepped.push_events(0, &events[pushed..]);
            got.extend(stepped.flush_to(off.end).to_events());
            prop_assert!(
                streams_close(&want, &got, 1e-6),
                "stepped session flushed at {}: {:?}\n vs one-shot {:?}\nplan: {:?}",
                off.end, got, want, stages
            );
        }
    }
}
