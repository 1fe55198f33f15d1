//! Property tests for `tilt-runtime`: randomly generated keyed workloads,
//! scrambled into bounded out-of-order arrival, must produce exactly the
//! output of an in-order single-query session replay, key by key —
//! independent of shard count, interleaving, and aggregation.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{KeyedEvent, RuntimeConfig};

mod common;
use common::Single;

/// Per-key random event stream: (gap, len, value) segments, as in the core
/// property tests.
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
/// `arrivals`: how far the running max event start gets ahead of a later
/// arrival's start (watermarks are defined over starts).
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

/// One run's output, coalesced, indexed by key.
type PerKeyCoalesced = Vec<Vec<Event<Value>>>;

fn replay(cq: &Arc<CompiledQuery>, events: &[Event<Value>], end: Time) -> Vec<Event<Value>> {
    let mut session = cq.shared_stream_session(Time::ZERO);
    session.push_events(0, events);
    session.flush_to(end).to_events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline guarantee: bounded out-of-order keyed ingestion through
    /// any shard count reproduces the in-order per-key replay exactly
    /// (canonical/coalesced event-stream equality, which is value-identical
    /// per span — no float tolerance).
    #[test]
    fn shuffled_keyed_runtime_matches_inorder_replay(
        key_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..40),
            1..6,
        ),
        window in 1i64..16,
        agg in 0u8..3,
        displacement in 1usize..48,
        shards in 1usize..5,
    ) {
        let streams: Vec<Vec<Event<Value>>> =
            key_streams.iter().map(|segs| stream_from_segments(segs)).collect();
        let arrivals = arrival_sequence(&streams, displacement);
        let lateness = lateness_needed(&arrivals) + 2;
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + window);

        let cq = window_query(window, agg);
        let runtime = Single::start(
            Arc::clone(&cq),
            RuntimeConfig {
                shards,
                allowed_lateness: lateness,
                emit_interval: 8,
                ..RuntimeConfig::default()
            },
        );
        runtime.ingest(arrivals.iter().cloned());
        let out = runtime.finish_at(end);

        prop_assert_eq!(out.stats.late_dropped, 0);
        prop_assert_eq!(out.stats.events_in as usize, arrivals.len());
        prop_assert_eq!(out.per_key.len(), streams.len());
        for (k, events) in streams.iter().enumerate() {
            let expected = replay(&cq, events, end);
            let got = &out.per_key[&(k as u64)];
            prop_assert!(
                streams_equivalent(&coalesce(&expected), &coalesce(got)),
                "key {} (window {}, agg {}, displacement {}, shards {}): {:?} vs {:?}",
                k, window, agg, displacement, shards, expected, got
            );
        }
    }

    /// Sending each key's stream fully in order (displacement 1) with zero
    /// allowed lateness is always loss-free, at any shard count.
    #[test]
    fn inorder_ingestion_never_drops(
        key_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..30),
            1..5,
        ),
        shards in 1usize..6,
    ) {
        let streams: Vec<Vec<Event<Value>>> =
            key_streams.iter().map(|segs| stream_from_segments(segs)).collect();
        let arrivals = arrival_sequence(&streams, 1);
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let cq = window_query(5, 0);
        let runtime = Single::start(
            Arc::clone(&cq),
            RuntimeConfig { shards, allowed_lateness: 0, ..RuntimeConfig::default() },
        );
        runtime.ingest(arrivals.iter().cloned());
        let out = runtime.finish_at(Time::new(hi.ticks() + 5));
        prop_assert_eq!(out.stats.late_dropped, 0);
        for (k, events) in streams.iter().enumerate() {
            let expected = replay(&cq, events, Time::new(hi.ticks() + 5));
            prop_assert!(
                streams_equivalent(&coalesce(&expected), &coalesce(&out.per_key[&(k as u64)])),
                "key {}", k
            );
        }
    }

    /// How a stream is cut into `ingest` calls — hence into channel
    /// messages and shard receive bursts — is invisible: one event per call
    /// and 4096 per call give the same per-key output and the same final
    /// counters, at 1, 2 and 4 shards. (Only counters that do not depend on
    /// how many emission cycles ran are compared; output is compared
    /// coalesced for the same reason.)
    #[test]
    fn ingest_chunking_is_invisible(
        key_streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 20..80),
            2..12,
        ),
        window in 1i64..16,
        agg in 0u8..3,
        displacement in 1usize..48,
    ) {
        let streams: Vec<Vec<Event<Value>>> =
            key_streams.iter().map(|segs| stream_from_segments(segs)).collect();
        let arrivals = arrival_sequence(&streams, displacement);
        let lateness = lateness_needed(&arrivals) + 2;
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + window);
        let cq = window_query(window, agg);

        let mut reference: Option<(PerKeyCoalesced, Vec<(&'static str, i64)>)> = None;
        for shards in [1usize, 2, 4] {
            for chunk in [1usize, 4096] {
                let runtime = Single::start(
                    Arc::clone(&cq),
                    RuntimeConfig {
                        shards,
                        allowed_lateness: lateness,
                        emit_interval: 8,
                        ..RuntimeConfig::default()
                    },
                );
                for call in arrivals.chunks(chunk) {
                    runtime.ingest(call.iter().cloned());
                }
                let out = runtime.finish_at(end);
                let per_key: PerKeyCoalesced =
                    (0..streams.len()).map(|k| coalesce(&out.per_key[&(k as u64)])).collect();
                let counters: Vec<(&'static str, i64)> = out
                    .stats
                    .fields()
                    .filter(|(name, _)| {
                        matches!(
                            *name,
                            "events_in" | "events_consumed" | "late_dropped" | "detach_dropped"
                                | "keys" | "live_keys" | "evictions" | "revivals"
                                | "backstop_dropped" | "backstop_forced" | "quarantine_dropped"
                                | "reorder_buffered" | "conservation_balance"
                        )
                    })
                    .collect();
                prop_assert_eq!(counters.len(), 13);
                match &reference {
                    None => {
                        prop_assert_eq!(out.stats.events_in as usize, arrivals.len());
                        prop_assert_eq!(out.stats.reorder_buffered as usize, arrivals.len());
                        prop_assert_eq!(out.stats.late_dropped, 0);
                        prop_assert_eq!(out.stats.conservation_balance(), 0);
                        reference = Some((per_key, counters));
                    }
                    Some((want_out, want_counters)) => {
                        prop_assert_eq!(
                            &counters, want_counters,
                            "shards {}, chunk {}", shards, chunk
                        );
                        for (k, (got, want)) in per_key.iter().zip(want_out).enumerate() {
                            prop_assert!(
                                streams_equivalent(want, got),
                                "key {} (shards {}, chunk {}): {:?} vs {:?}",
                                k, shards, chunk, want, got
                            );
                        }
                    }
                }
            }
        }
    }
}
