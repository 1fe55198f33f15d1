//! Differential property tests for the multi-query shared runtime: for
//! random query pairs, key counts, shard counts, and bounded disorder,
//! every registered query's output under the shared `StreamService` must
//! equal its output under a standalone single-query service — per key, in-order and
//! out-of-order, at 1, 2, and 4 shards. This is the observational-identity
//! guarantee that makes kernel-prefix dedup and shared reorder/watermark
//! tracking safe to enable for every workload.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{KeyedEvent, QuerySettings, RuntimeConfig, StreamService};

/// Per-key random event stream: (gap, len, value) segments. Values are
/// quantized to multiples of 0.25 so float aggregation is exact and the
/// per-query comparison can demand identity, not tolerance.
fn stream_from_segments(segments: &[(i64, i64, i64)]) -> Vec<Event<Value>> {
    let mut t = 0i64;
    let mut out = Vec::new();
    for (gap, len, val) in segments {
        let start = t + gap;
        let end = start + len;
        out.push(Event::new(
            Time::new(start),
            Time::new(end),
            Value::Float((val / 4) as f64 * 0.25),
        ));
        t = end;
    }
    out
}

/// A window aggregate over the shared source: sliding (stride 1) or
/// tumbling-style (coarser precision), so query pairs exercise mixed
/// grids — the group emission horizon is the lcm of the members'.
fn window_query(window: i64, agg: u8, stride: i64) -> Arc<CompiledQuery> {
    let op = match agg % 3 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Min,
        _ => ReduceOp::Max,
    };
    let mut b = Query::builder();
    let input = b.input("x", DataType::Float);
    let out = b.temporal("w", TDom::unbounded(stride), Expr::reduce_window(op, input, window));
    let q = b.finish(out).unwrap();
    Arc::new(Compiler::new().compile(&q).unwrap())
}

/// Interleaves per-key streams into one in-order arrival sequence, then
/// scrambles it by reversing consecutive blocks of `displacement` events —
/// every event stays within `displacement` positions of its slot.
fn arrival_sequence(streams: &[Vec<Event<Value>>], displacement: usize) -> Vec<KeyedEvent> {
    let mut all: Vec<KeyedEvent> = streams
        .iter()
        .enumerate()
        .flat_map(|(k, evs)| evs.iter().map(move |e| KeyedEvent::new(k as u64, 0, e.clone())))
        .collect();
    all.sort_by_key(|ke| (ke.event.end, ke.key));
    if displacement > 1 {
        for block in all.chunks_mut(displacement) {
            block.reverse();
        }
    }
    all
}

/// The smallest allowed-lateness (in ticks) that absorbs the disorder of
/// `arrivals` (watermarks are defined over event starts).
fn lateness_needed(arrivals: &[KeyedEvent]) -> i64 {
    let mut max_start = Time::MIN;
    let mut worst = 0i64;
    for ke in arrivals {
        if max_start > ke.event.start {
            worst = worst.max(max_start - ke.event.start);
        }
        max_start = max_start.max(ke.event.start);
    }
    worst
}

/// Runs one query standalone over the given arrivals — the reference the
/// shared runtime must reproduce query by query.
fn standalone(
    cq: &Arc<CompiledQuery>,
    arrivals: &[KeyedEvent],
    shards: usize,
    lateness: i64,
    end: Time,
) -> std::collections::HashMap<u64, Vec<Event<Value>>> {
    let mut builder = StreamService::builder(RuntimeConfig {
        shards,
        allowed_lateness: lateness,
        emit_interval: 4,
        ..RuntimeConfig::default()
    });
    let q = builder.register(Arc::clone(cq));
    let service = builder.start().expect("single registration");
    service.ingest(arrivals.iter().cloned());
    service.finish_at(end).per_query.swap_remove(q.index())
}

/// The core differential check at one shard count.
fn check_shared_vs_standalone(
    queries: &[Arc<CompiledQuery>],
    arrivals: &[KeyedEvent],
    n_keys: usize,
    shards: usize,
    lateness: i64,
    end: Time,
) -> Result<(), String> {
    let mut builder = StreamService::builder(RuntimeConfig {
        shards,
        allowed_lateness: lateness,
        emit_interval: 4,
        ..RuntimeConfig::default()
    });
    for cq in queries {
        builder.register(Arc::clone(cq));
    }
    let multi = builder.start().expect("same source types");
    multi.ingest(arrivals.iter().cloned());
    let out = multi.finish_at(end);
    if out.stats.late_dropped != 0 {
        return Err(format!("shared runtime dropped {} events", out.stats.late_dropped));
    }
    if out.stats.reorder_buffered != arrivals.len() as u64 {
        return Err(format!(
            "reorder work duplicated: buffered {} of {} events",
            out.stats.reorder_buffered,
            arrivals.len()
        ));
    }
    for (qi, cq) in queries.iter().enumerate() {
        let solo = standalone(cq, arrivals, shards, lateness, end);
        for k in 0..n_keys as u64 {
            let want = coalesce(&solo[&k]);
            let got = coalesce(&out.per_query[qi][&k]);
            if !streams_equivalent(&want, &got) {
                return Err(format!(
                    "query {qi} key {k} shards {shards}: standalone {want:?} vs shared {got:?}"
                ));
            }
        }
    }
    Ok(())
}

/// One shard worker owns one pool, and with it the run state of every
/// kernel it runs — here the kernels of two *cells* (queries with different
/// emission cadences never share one), whose register files differ in
/// shape and in constants, run alternately, key after key, over sparse
/// streams whose windows sit quiet for most of their life. Each query's
/// output must equal a standalone service's.
#[test]
fn one_shard_serving_two_cells_keeps_their_run_state_apart() {
    let sliding = {
        let mut b = Query::builder();
        let x = b.input("x", DataType::Float);
        let body = Expr::reduce_window(ReduceOp::Sum, x, 64)
            .mul(Expr::c(0.5))
            .add(Expr::reduce_window(ReduceOp::Max, x, 16));
        let out = b.temporal("sliding", TDom::every_tick(), body);
        Arc::new(Compiler::new().compile(&b.finish(out).unwrap()).unwrap())
    };
    let panes = {
        let mut b = Query::builder();
        let x = b.input("x", DataType::Float);
        let hot = b.temporal(
            "hot",
            TDom::every_tick(),
            Expr::if_else(Expr::at(x).gt(Expr::c(-1.25)), Expr::at(x), Expr::null()),
        );
        let count =
            b.temporal("count", TDom::unbounded(4), Expr::reduce_window(ReduceOp::Count, hot, 12));
        let out = b.temporal(
            "scaled",
            TDom::unbounded(4),
            Expr::at(count).mul(Expr::c(3i64)).sub(Expr::c(7i64)),
        );
        Arc::new(Compiler::new().compile(&b.finish(out).unwrap()).unwrap())
    };
    // Eight keys, one event every 37–150 ticks each.
    let streams: Vec<Vec<Event<Value>>> = (0..8i64)
        .map(|k| {
            let segments: Vec<(i64, i64, i64)> = (0..40i64)
                .map(|i| (37 + (i * 29 + k * 13) % 114, 1, (i * 7 + k) % 41 - 20))
                .collect();
            stream_from_segments(&segments)
        })
        .collect();
    let arrivals = arrival_sequence(&streams, 1);
    let end = Time::new(arrivals.iter().map(|ke| ke.event.end.ticks()).max().unwrap() + 96);

    let config = RuntimeConfig { shards: 1, allowed_lateness: 0, ..RuntimeConfig::default() };
    let cadence = |ticks| QuerySettings { emit_interval: Some(ticks), ..QuerySettings::default() };
    let mut builder = StreamService::builder(config);
    let handles = [
        builder.register_with(Arc::clone(&sliding), cadence(4)),
        builder.register_with(Arc::clone(&panes), cadence(16)),
    ];
    let service = builder.start().expect("same source type");
    service.ingest(arrivals.iter().cloned());
    let out = service.finish_at(end);
    assert_eq!(out.stats.late_dropped, 0);

    for (handle, (cq, ticks)) in handles.iter().zip([(&sliding, 4), (&panes, 16)]) {
        let mut solo = StreamService::builder(config);
        let q = solo.register_with(Arc::clone(cq), cadence(ticks));
        let solo = solo.start().expect("single registration");
        solo.ingest(arrivals.iter().cloned());
        let want = solo.finish_at(end).per_query.swap_remove(q.index());
        for k in 0..streams.len() as u64 {
            assert_eq!(
                coalesce(&want[&k]),
                coalesce(&out.per_query[handle.index()][&k]),
                "query {} key {k}: two cells on one shard diverged from a standalone service",
                handle.index()
            );
        }
    }
}

const STRIDES: [i64; 3] = [1, 2, 5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Bounded out-of-order ingestion: every query served by the shared
    /// runtime matches its standalone run, at 1, 2, and 4 shards.
    #[test]
    fn shared_runtime_matches_standalone_out_of_order(
        key_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..30),
            1..5,
        ),
        w1 in 1i64..12,
        a1 in 0u8..3,
        s1 in 0u8..3,
        w2 in 1i64..12,
        a2 in 0u8..3,
        s2 in 0u8..3,
        displacement in 2usize..32,
    ) {
        let streams: Vec<Vec<Event<Value>>> =
            key_streams.iter().map(|segs| stream_from_segments(segs)).collect();
        let arrivals = arrival_sequence(&streams, displacement);
        let lateness = lateness_needed(&arrivals) + 2;
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + 64);
        let queries = vec![
            window_query(w1, a1, STRIDES[s1 as usize]),
            window_query(w2, a2, STRIDES[s2 as usize]),
        ];
        for shards in [1usize, 2, 4] {
            if let Err(msg) = check_shared_vs_standalone(
                &queries, &arrivals, streams.len(), shards, lateness, end,
            ) {
                prop_assert!(false, "{} (w1={}, a1={}, w2={}, a2={}, disp={})",
                    msg, w1, a1, w2, a2, displacement);
            }
        }
    }

    /// In-order ingestion with zero allowed lateness: same guarantee, and
    /// a third registered query duplicating the first must come back
    /// identical to it (whole-kernel dedup is invisible too).
    #[test]
    fn shared_runtime_matches_standalone_in_order(
        key_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..25),
            1..4,
        ),
        w1 in 1i64..12,
        a1 in 0u8..3,
        w2 in 1i64..12,
        a2 in 0u8..3,
        s2 in 0u8..3,
    ) {
        let streams: Vec<Vec<Event<Value>>> =
            key_streams.iter().map(|segs| stream_from_segments(segs)).collect();
        let arrivals = arrival_sequence(&streams, 1);
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + 64);
        let q1 = window_query(w1, a1, 1);
        let q2 = window_query(w2, a2, STRIDES[s2 as usize]);
        let queries = vec![Arc::clone(&q1), q2, q1];
        for shards in [1usize, 2, 4] {
            if let Err(msg) = check_shared_vs_standalone(
                &queries, &arrivals, streams.len(), shards, 0, end,
            ) {
                prop_assert!(false, "{} (w1={}, a1={}, w2={}, a2={})", msg, w1, a1, w2, a2);
            }
            // Queries 0 and 2 are the same Arc: dedup must make their
            // outputs literally interchangeable.
            let mut builder = StreamService::builder(RuntimeConfig {
                shards,
                allowed_lateness: 0,
                emit_interval: 4,
                ..RuntimeConfig::default()
            });
            for cq in &queries {
                builder.register(Arc::clone(cq));
            }
            let multi = builder.start().unwrap();
            multi.ingest(arrivals.iter().cloned());
            let out = multi.finish_at(end);
            prop_assert!(out.stats.kernels_saved > 0, "duplicate registration must dedup");
            for k in 0..streams.len() as u64 {
                prop_assert!(streams_equivalent(
                    &coalesce(&out.per_query[0][&k]),
                    &coalesce(&out.per_query[2][&k]),
                ));
            }
        }
    }
}
