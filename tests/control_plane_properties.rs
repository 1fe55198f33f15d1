//! Differential property tests for the live control plane: a query
//! attached to a running [`StreamService`] mid-stream must produce output
//! identical (per key) to a standalone service rooted at the negotiated
//! frontier and fed only the post-frontier suffix; detaching a query must
//! leave every surviving query's output byte-identical to a churn-free
//! run. Both properties hold at 1, 2, and 4 shards, in-order and under
//! bounded disorder — this is what makes admitting and evicting tenants
//! on a live service safe.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{KeyedEvent, QuerySettings, RuntimeConfig, StreamService};

/// Per-key random event stream: (gap, len, value) segments. Values are
/// quantized to multiples of 0.25 so float aggregation is exact and the
/// comparisons can demand identity, not tolerance.
fn stream_from_segments(segments: &[(i64, i64, i64)], origin: i64) -> Vec<Event<Value>> {
    let mut t = origin;
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

fn window_query(window: i64, agg: u8) -> Arc<CompiledQuery> {
    let op = match agg % 3 {
        0 => ReduceOp::Sum,
        1 => ReduceOp::Min,
        _ => ReduceOp::Max,
    };
    let mut b = Query::builder();
    let input = b.input("x", DataType::Float);
    let out = b.temporal("w", TDom::every_tick(), Expr::reduce_window(op, input, window));
    let q = b.finish(out).unwrap();
    Arc::new(Compiler::new().compile(&q).unwrap())
}

/// Interleaves per-key streams into one in-order arrival sequence, then
/// scrambles it by reversing consecutive blocks of `displacement` events.
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

fn config(shards: usize, lateness: i64, start: Time) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        allowed_lateness: lateness,
        emit_interval: 4,
        start,
        ..RuntimeConfig::default()
    }
}

/// One query standalone over the given arrivals — the reference the
/// control plane must reproduce.
fn standalone(
    cq: &Arc<CompiledQuery>,
    arrivals: &[KeyedEvent],
    cfg: RuntimeConfig,
    end: Time,
) -> std::collections::HashMap<u64, Vec<Event<Value>>> {
    let mut builder = StreamService::builder(cfg);
    let q = builder.register(Arc::clone(cq));
    let service = builder.start().expect("single registration");
    service.ingest(arrivals.iter().cloned());
    service.finish_at(end).per_query.swap_remove(q.index())
}

/// The attach differential at one shard count: `q2` attached after the
/// prefix must match a standalone service rooted at the frontier and fed
/// only the suffix; `q1` must match a standalone run over everything.
#[allow(clippy::too_many_arguments)]
fn check_attach(
    q1: &Arc<CompiledQuery>,
    q2: &Arc<CompiledQuery>,
    prefix: &[KeyedEvent],
    suffix: &[KeyedEvent],
    n_keys: usize,
    shards: usize,
    lateness: i64,
    end: Time,
) -> Result<(), String> {
    let mut builder = StreamService::builder(config(shards, lateness, Time::ZERO));
    let h1 = builder.register(Arc::clone(q1));
    let service = builder.start().expect("register");
    service.ingest(prefix.iter().cloned());
    let tenant = service.attach(Arc::clone(q2), QuerySettings::default()).expect("attach");
    let frontier = tenant.frontier();
    if let Some(early) = suffix.iter().find(|ke| ke.event.start < frontier) {
        return Err(format!(
            "test construction broken: suffix event {early:?} starts before frontier {frontier:?}"
        ));
    }
    service.ingest(suffix.iter().cloned());
    let out = service.finish_at(end);
    if out.stats.late_dropped != 0 {
        return Err(format!("control-plane run dropped {} events", out.stats.late_dropped));
    }
    if out.stats.reorder_buffered != (prefix.len() + suffix.len()) as u64 {
        return Err(format!(
            "reorder work duplicated under attach: buffered {} of {}",
            out.stats.reorder_buffered,
            prefix.len() + suffix.len()
        ));
    }

    // Tenant vs the standalone suffix run rooted at the frontier.
    let suffix_solo = standalone(q2, suffix, config(shards, lateness, frontier), end);
    for (k, want) in &suffix_solo {
        let got = coalesce(&out.per_query[tenant.index()][k]);
        if !streams_equivalent(&coalesce(want), &got) {
            return Err(format!(
                "shards {shards} key {k}: attached query diverged from suffix run: \
                 {want:?} vs {got:?}"
            ));
        }
    }
    // Keys untouched by the suffix produce nothing for the tenant, exactly
    // as the suffix run (which never saw them) produces nothing.
    for (k, events) in out.per_query[tenant.index()].iter() {
        if !suffix_solo.contains_key(k) && !events.is_empty() {
            return Err(format!(
                "shards {shards} key {k}: attached query emitted {events:?} for a \
                 prefix-only key the suffix run never saw"
            ));
        }
    }
    // The pre-registered query saw everything.
    let all: Vec<KeyedEvent> = prefix.iter().chain(suffix.iter()).cloned().collect();
    let full_solo = standalone(q1, &all, config(shards, lateness, Time::ZERO), end);
    for k in 0..n_keys as u64 {
        let want = coalesce(full_solo.get(&k).map_or(&[][..], |v| v));
        let got = coalesce(out.per_query[h1.index()].get(&k).map_or(&[][..], |v| v));
        if !streams_equivalent(&want, &got) {
            return Err(format!(
                "shards {shards} key {k}: pre-registered query changed under attach"
            ));
        }
    }
    Ok(())
}

/// The detach differential at one shard count: after `doomed` leaves
/// mid-stream, the survivor must be byte-identical to a churn-free run and
/// the doomed query's output must be reclaimed.
#[allow(clippy::too_many_arguments)]
fn check_detach(
    survivor_q: &Arc<CompiledQuery>,
    doomed_q: &Arc<CompiledQuery>,
    first: &[KeyedEvent],
    second: &[KeyedEvent],
    n_keys: usize,
    shards: usize,
    lateness: i64,
    end: Time,
) -> Result<(), String> {
    let mut builder = StreamService::builder(config(shards, lateness, Time::ZERO));
    let survivor = builder.register(Arc::clone(survivor_q));
    let doomed = builder.register(Arc::clone(doomed_q));
    let service = builder.start().expect("register");
    service.ingest(first.iter().cloned());
    service.detach(doomed).expect("detach");
    service.ingest(second.iter().cloned());
    let out = service.finish_at(end);
    if out.stats.detached != 1 || out.stats.queries_live != 1 {
        return Err(format!(
            "detach accounting wrong: detached={} live={}",
            out.stats.detached, out.stats.queries_live
        ));
    }
    if out.per_query[doomed.index()].values().any(|v| !v.is_empty()) {
        return Err("detached query's output was not reclaimed".into());
    }

    let all: Vec<KeyedEvent> = first.iter().chain(second.iter()).cloned().collect();
    let solo = standalone(survivor_q, &all, config(shards, lateness, Time::ZERO), end);
    for k in 0..n_keys as u64 {
        let want = coalesce(solo.get(&k).map_or(&[][..], |v| v));
        let got = coalesce(out.per_query[survivor.index()].get(&k).map_or(&[][..], |v| v));
        if !streams_equivalent(&want, &got) {
            return Err(format!(
                "shards {shards} key {k}: survivor diverged from churn-free run: \
                 {want:?} vs {got:?}"
            ));
        }
    }
    Ok(())
}

/// Attach-first pattern, deterministically: an empty service, a query
/// attached before any ingestion, equals a plain standalone run.
#[test]
fn attach_before_ingest_equals_standalone() {
    let cq = window_query(5, 0);
    let events: Vec<KeyedEvent> = (1..=80i64)
        .flat_map(|t| {
            (0..3u64).map(move |k| {
                KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(k as f64 + t as f64)))
            })
        })
        .collect();
    let end = Time::new(90);
    for shards in [1usize, 2, 4] {
        let service = StreamService::start(config(shards, 0, Time::ZERO));
        assert_eq!(service.num_queries(), 0);
        let q = service.attach(Arc::clone(&cq), QuerySettings::default()).unwrap();
        assert_eq!(q.frontier(), Time::ZERO, "nothing ingested: the frontier is the start");
        service.ingest(events.iter().cloned());
        let out = service.finish_at(end);
        assert_eq!(out.stats.late_dropped, 0);
        let solo = standalone(&cq, &events, config(shards, 0, Time::ZERO), end);
        for k in 0..3u64 {
            assert!(
                streams_equivalent(&coalesce(&solo[&k]), &coalesce(&out.per_query[q.index()][&k])),
                "shards {shards} key {k}: attach-first service diverged from standalone"
            );
        }
    }
}

/// Tenants churning through a live service: after each of eight chunks a
/// tenant attaches, and each leaves two chunks later. Every attach
/// frontier clears the watermark seen just before it and none falls behind
/// an earlier one; the books count every attach and detach; detaching a
/// tenant that served keys reclaims its sessions; and the query that was
/// there all along is identical to a churn-free run, losing nothing.
#[test]
fn tenant_churn_keeps_frontiers_ordered_and_the_survivor_intact() {
    let events: Vec<KeyedEvent> = (1..=400i64)
        .flat_map(|t| {
            (0..16u64).map(move |k| {
                let v = ((t as u64 * 7 + k * 13) % 64) as f64 * 0.25;
                KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(v)))
            })
        })
        .collect();
    let end = Time::new(420);
    for shards in [1usize, 2] {
        let mut builder = StreamService::builder(config(shards, 0, Time::ZERO));
        let survivor = builder.register(window_query(16, 0));
        let service = builder.start().expect("register");
        let mut tenants = std::collections::VecDeque::new();
        let mut frontiers = Vec::new();
        let (mut attached, mut detached) = (0u64, 0u64);
        for chunk in events.chunks(events.len() / 8) {
            service.ingest(chunk.iter().cloned());
            let watermark = service.stats().min_watermark;
            let tenant = service.attach(window_query(16, 0), QuerySettings::default()).unwrap();
            attached += 1;
            assert!(
                tenant.frontier() >= watermark,
                "shards {shards}: frontier {:?} behind watermark {watermark:?}",
                tenant.frontier()
            );
            frontiers.push(tenant.frontier());
            tenants.push_back(tenant);
            if tenants.len() > 2 {
                service.detach(tenants.pop_front().unwrap()).unwrap();
                detached += 1;
            }
        }
        assert!(frontiers.windows(2).all(|w| w[0] <= w[1]), "frontiers regressed: {frontiers:?}");
        let out = service.finish_at(end);
        let s = &out.stats;
        assert_eq!((s.attached, s.detached), (attached, detached), "shards {shards}");
        assert!(s.sessions_reclaimed > 0, "shards {shards}: detach must reclaim sessions");
        assert_eq!(s.late_dropped, 0, "shards {shards}: in-order churn loses nothing");
        let solo = standalone(&window_query(16, 0), &events, config(shards, 0, Time::ZERO), end);
        assert_eq!(solo.len(), out.per_query[survivor.index()].len());
        for (k, want) in &solo {
            assert!(
                streams_equivalent(&coalesce(want), &coalesce(&out.per_query[survivor.index()][k])),
                "shards {shards} key {k}: churn changed the survivor's output"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A query attached mid-stream sees exactly the post-frontier suffix:
    /// its output equals a standalone service rooted at the frontier and
    /// fed only the suffix — per key, at 1/2/4 shards, with both phases
    /// scrambled into bounded out-of-order arrival.
    #[test]
    fn attach_mid_stream_matches_standalone_suffix_run(
        prefix_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..20),
            1..4,
        ),
        suffix_segments in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..20),
            1..4,
        ),
        w1 in 1i64..12,
        a1 in 0u8..3,
        w2 in 1i64..12,
        a2 in 0u8..3,
        displacement in 1usize..24,
    ) {
        let prefix_events: Vec<Vec<Event<Value>>> =
            prefix_streams.iter().map(|segs| stream_from_segments(segs, 0)).collect();
        let prefix = arrival_sequence(&prefix_events, displacement);
        // The suffix strictly postdates every prefix event, so the
        // negotiated frontier (≥ the max prefix end) cannot cut into it.
        let origin = prefix.iter().map(|ke| ke.event.end.ticks()).max().unwrap_or(0);
        let suffix_events: Vec<Vec<Event<Value>>> =
            suffix_segments.iter().map(|segs| stream_from_segments(segs, origin)).collect();
        let suffix = arrival_sequence(&suffix_events, displacement);
        let lateness = lateness_needed(&prefix).max(lateness_needed(&suffix)) + 2;
        let hi = suffix.iter().chain(prefix.iter()).map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + 64);
        let n_keys = prefix_events.len().max(suffix_events.len());
        let q1 = window_query(w1, a1);
        let q2 = window_query(w2, a2);
        for shards in [1usize, 2, 4] {
            if let Err(msg) = check_attach(
                &q1, &q2, &prefix, &suffix, n_keys, shards, lateness, end,
            ) {
                prop_assert!(false, "{} (w1={}, a1={}, w2={}, a2={}, disp={})",
                    msg, w1, a1, w2, a2, displacement);
            }
        }
    }

    /// Detaching one of two co-registered queries mid-stream leaves the
    /// survivor byte-identical to a churn-free run and reclaims the
    /// detached query's output — at 1/2/4 shards, in-order and under
    /// bounded disorder.
    #[test]
    fn detach_mid_stream_leaves_survivor_identical(
        first_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..20),
            1..4,
        ),
        second_segments in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..20),
            1..4,
        ),
        w1 in 1i64..12,
        a1 in 0u8..3,
        w2 in 1i64..12,
        a2 in 0u8..3,
        displacement in 1usize..24,
    ) {
        let first_events: Vec<Vec<Event<Value>>> =
            first_streams.iter().map(|segs| stream_from_segments(segs, 0)).collect();
        let first = arrival_sequence(&first_events, displacement);
        let origin = first.iter().map(|ke| ke.event.end.ticks()).max().unwrap_or(0);
        let second_events: Vec<Vec<Event<Value>>> =
            second_segments.iter().map(|segs| stream_from_segments(segs, origin)).collect();
        let second = arrival_sequence(&second_events, displacement);
        let lateness = lateness_needed(&first).max(lateness_needed(&second)) + 2;
        let hi = second.iter().chain(first.iter()).map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + 64);
        let n_keys = first_events.len().max(second_events.len());
        let survivor = window_query(w1, a1);
        let doomed = window_query(w2, a2);
        for shards in [1usize, 2, 4] {
            if let Err(msg) = check_detach(
                &survivor, &doomed, &first, &second, n_keys, shards, lateness, end,
            ) {
                prop_assert!(false, "{} (w1={}, a1={}, w2={}, a2={}, disp={})",
                    msg, w1, a1, w2, a2, displacement);
            }
        }
    }
}
