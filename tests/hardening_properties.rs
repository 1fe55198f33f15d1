//! Hardening properties for `tilt-runtime`: idle-session eviction must be
//! observationally invisible (differential against a never-evicting
//! runtime *and* an in-order replay, at 1/2/4 shards, in-order and under
//! bounded disorder), and a key whose kernel panics must be quarantined
//! without disturbing any other key.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{BackstopPolicy, KeyedEvent, RuntimeConfig, StreamService};

mod common;
use common::Single;
use tilt_workloads::gen::{poisonable_sum, silence_poison_panics};

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

fn replay(cq: &Arc<CompiledQuery>, events: &[Event<Value>], end: Time) -> Vec<Event<Value>> {
    let mut session = cq.shared_stream_session(Time::ZERO);
    session.push_events(0, events);
    session.flush_to(end).to_events()
}

/// Per-key random event stream: (gap, len, value) segments. Gaps range far
/// past any TTL, so keys routinely idle out and revive.
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
/// `arrivals` — and, for the eviction differential, also guarantees no
/// revival event can land behind an eviction frontier (frontiers sit at or
/// below the watermark, which trails every arrival's start by at least the
/// lateness margin).
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

/// Shuffles `events` by reversing consecutive blocks (bounded disorder).
fn block_shuffle(events: &mut [KeyedEvent], displacement: usize) {
    if displacement > 1 {
        for block in events.chunks_mut(displacement) {
            block.reverse();
        }
    }
}

// ── Eviction: deterministic differential at 1/2/4 shards ───────────────

/// Keys go idle, an explicit watermark promise pushes every shard far past
/// their lateness horizon (evicting them all), then every key revives.
/// The evicting runtime's output must equal the never-evicting runtime's
/// and the in-order replay — at every shard count, in-order and shuffled.
#[test]
fn eviction_and_revival_match_never_evicting_runtime() {
    let keys = 11u64;
    let promise = Time::new(400);
    for shards in [1usize, 2, 4] {
        for displacement in [1usize, 8] {
            let cq = window_query(5, 0);
            let mut phase1: Vec<KeyedEvent> = (1..=30i64)
                .flat_map(|t| {
                    (0..keys).map(move |k| {
                        KeyedEvent::new(
                            k,
                            0,
                            Event::point(Time::new(t), Value::Float(k as f64 + t as f64)),
                        )
                    })
                })
                .collect();
            let mut phase3: Vec<KeyedEvent> = (401..=430i64)
                .flat_map(|t| {
                    (0..keys).map(move |k| {
                        KeyedEvent::new(
                            k,
                            0,
                            Event::point(Time::new(t), Value::Float(k as f64 - t as f64)),
                        )
                    })
                })
                .collect();
            block_shuffle(&mut phase1, displacement);
            block_shuffle(&mut phase3, displacement);
            let lateness = lateness_needed(&phase1).max(lateness_needed(&phase3)) + 2;
            let end = Time::new(440);
            let config = |ttl| RuntimeConfig {
                shards,
                allowed_lateness: lateness,
                emit_interval: 8,
                key_ttl: ttl,
                ..RuntimeConfig::default()
            };

            let evicting = Single::start(Arc::clone(&cq), config(Some(32)));
            evicting.ingest(phase1.iter().cloned());
            // The promise advances every shard's watermark — including
            // shards whose keys all went quiet — so the idle sweep retires
            // every session.
            evicting.watermark(0, promise);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while evicting.stats().evictions < keys && std::time::Instant::now() < deadline {
                std::thread::yield_now();
            }
            assert_eq!(evicting.stats().evictions, keys, "every idle key is evicted");
            assert_eq!(evicting.stats().live_keys, 0);
            evicting.ingest(phase3.iter().cloned());
            let out = evicting.finish_at(end);
            assert_eq!(out.stats.late_dropped, 0, "no revival may land behind a frontier");
            assert_eq!(out.stats.revivals, keys, "every key revives");

            let plain = Single::start(Arc::clone(&cq), config(None));
            plain.ingest(phase1.iter().cloned());
            plain.watermark(0, promise);
            plain.ingest(phase3.iter().cloned());
            let base = plain.finish_at(end);
            assert_eq!(base.stats.evictions, 0);

            for k in 0..keys {
                assert!(
                    streams_equivalent(&coalesce(&base.per_key[&k]), &coalesce(&out.per_key[&k])),
                    "shards={shards} displacement={displacement} key {k}: \
                     evicting runtime diverged from never-evicting"
                );
                let events: Vec<Event<Value>> = (1..=30i64)
                    .map(|t| Event::point(Time::new(t), Value::Float(k as f64 + t as f64)))
                    .chain(
                        (401..=430i64)
                            .map(|t| Event::point(Time::new(t), Value::Float(k as f64 - t as f64))),
                    )
                    .collect();
                let expected = replay(&cq, &events, end);
                assert!(
                    streams_equivalent(&coalesce(&expected), &coalesce(&out.per_key[&k])),
                    "shards={shards} displacement={displacement} key {k}: \
                     evicting runtime diverged from replay"
                );
            }
        }
    }
}

/// An arrival behind an evicted key's frontier is dropped-and-counted (the
/// session that could have absorbed it is gone); the key only revives for
/// arrivals at or after the frontier.
#[test]
fn stragglers_behind_the_eviction_frontier_are_dropped() {
    let cq = window_query(4, 0);
    let runtime = Single::start(
        Arc::clone(&cq),
        RuntimeConfig {
            shards: 1,
            emit_interval: 8,
            key_ttl: Some(32),
            ..RuntimeConfig::default()
        },
    );
    runtime.ingest(
        (1..=10i64).map(|t| KeyedEvent::new(5, 0, Event::point(Time::new(t), Value::Float(1.0)))),
    );
    runtime.watermark(0, Time::new(400));
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while runtime.stats().evictions == 0 && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(runtime.stats().evictions, 1);

    // Behind the frontier: dropped, no revival.
    runtime.send(KeyedEvent::new(5, 0, Event::point(Time::new(100), Value::Float(9.0))));
    let wait_late = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while runtime.stats().late_dropped == 0 && std::time::Instant::now() < wait_late {
        std::thread::yield_now();
    }
    let mid = runtime.stats();
    assert_eq!(mid.late_dropped, 1);
    assert_eq!(mid.revivals, 0);

    // At the frontier or later: revived.
    runtime.send(KeyedEvent::new(5, 0, Event::point(Time::new(401), Value::Float(2.0))));
    let out = runtime.finish_at(Time::new(410));
    assert_eq!(out.stats.revivals, 1);
    // Output equals a replay that never saw the dropped straggler.
    let clean: Vec<Event<Value>> = (1..=10i64)
        .map(|t| Event::point(Time::new(t), Value::Float(1.0)))
        .chain(std::iter::once(Event::point(Time::new(401), Value::Float(2.0))))
        .collect();
    let expected = replay(&cq, &clean, Time::new(410));
    assert!(streams_equivalent(&coalesce(&expected), &coalesce(&out.per_key[&5])));
}

/// The multi-query engine evicts and revives group sessions identically:
/// an evicting shared service matches standalone never-evicting services
/// for every registered query.
#[test]
fn shared_service_eviction_matches_standalone_services() {
    let fast = window_query(3, 0);
    let slow = window_query(9, 2);
    let keys = 5u64;
    let promise = Time::new(300);
    let end = Time::new(340);
    let phase1: Vec<KeyedEvent> = (1..=25i64)
        .flat_map(|t| {
            (0..keys).map(move |k| {
                KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(k as f64 + t as f64)))
            })
        })
        .collect();
    let phase3: Vec<KeyedEvent> = (301..=320i64)
        .flat_map(|t| {
            (0..keys).map(move |k| {
                KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(t as f64)))
            })
        })
        .collect();

    let mut builder = StreamService::builder(RuntimeConfig {
        shards: 2,
        emit_interval: 8,
        key_ttl: Some(48),
        ..RuntimeConfig::default()
    });
    let q_fast = builder.register(Arc::clone(&fast));
    let q_slow = builder.register(Arc::clone(&slow));
    let multi = builder.start().unwrap();
    multi.ingest(phase1.iter().cloned());
    multi.watermark(0, promise);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while multi.stats().evictions < keys && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(multi.stats().evictions, keys);
    multi.ingest(phase3.iter().cloned());
    let out = multi.finish_at(end);
    assert_eq!(out.stats.late_dropped, 0);
    assert_eq!(out.stats.revivals, keys);

    for (qid, cq) in [(q_fast, &fast), (q_slow, &slow)] {
        let solo = Single::start(
            Arc::clone(cq),
            RuntimeConfig { shards: 2, emit_interval: 8, ..RuntimeConfig::default() },
        );
        solo.ingest(phase1.iter().cloned());
        solo.watermark(0, promise);
        solo.ingest(phase3.iter().cloned());
        let base = solo.finish_at(end);
        for k in 0..keys {
            assert!(
                streams_equivalent(
                    &coalesce(&base.per_key[&k]),
                    &coalesce(&out.per_query[qid.index()][&k])
                ),
                "query {} key {k}: evicting shared service diverged from standalone",
                qid.index()
            );
        }
    }
}

// ── Panic isolation ────────────────────────────────────────────────────

/// A deliberately panicking kernel on one key leaves every other key's
/// output intact at every shard count, and the poisoning is visible in
/// `RuntimeStats` instead of killing the shard: once the key is
/// quarantined, every later event for it is refused and counted.
#[test]
fn poisoned_key_is_quarantined_and_others_are_unaffected() {
    silence_poison_panics();
    let keys = 10u64;
    let poison_key = 4u64;
    let n = 100i64;
    let phase = move |ticks: std::ops::RangeInclusive<i64>| {
        ticks.flat_map(move |t| {
            (0..keys).map(move |k| {
                let v = if k == poison_key && t == 50 { -1.0 } else { (t % 13) as f64 };
                KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(v)))
            })
        })
    };
    for shards in [1usize, 2, 4] {
        let cq = poisonable_sum(6);
        let runtime = Single::start(
            Arc::clone(&cq),
            RuntimeConfig { shards, emit_interval: 8, ..RuntimeConfig::default() },
        );
        runtime.ingest(phase(1..=n));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while runtime.stats().keys_quarantined == 0 {
            assert!(std::time::Instant::now() < deadline, "shards={shards}: never quarantined");
            std::thread::yield_now();
        }
        runtime.ingest(phase(n + 1..=2 * n));
        let out = runtime.finish_at(Time::new(2 * n + 6));
        assert_eq!(
            out.stats.keys_quarantined, 1,
            "shards={shards}: exactly the poisoned key is quarantined"
        );
        assert!(
            out.stats.quarantine_dropped >= n as u64,
            "shards={shards}: post-quarantine events must be refused and counted (got {})",
            out.stats.quarantine_dropped
        );
        assert_eq!(out.stats.conservation_balance(), 0, "shards={shards}");
        assert_eq!(out.stats.keys, keys, "all keys were seen");
        assert_eq!(out.per_key.len(), keys as usize, "every key reports output");

        let clean: Vec<Event<Value>> = (1..=2 * n)
            .map(|t| Event::point(Time::new(t), Value::Float((t % 13) as f64)))
            .collect();
        let expected = replay(&cq, &clean, Time::new(2 * n + 6));
        for k in (0..keys).filter(|&k| k != poison_key) {
            assert!(
                streams_equivalent(&coalesce(&expected), &coalesce(&out.per_key[&k])),
                "shards={shards} key {k}: healthy key corrupted by the poisoned one"
            );
        }
    }
}

/// A kernel that panics is cut off mid-run, with its run state half
/// written — and that state lives in the shard worker's pool, which serves
/// every key of the shard. After the quarantine, keys the shard already
/// served *and* a key it first sees afterwards must come out exactly as on
/// a shard that never saw a panic: the scratch is discarded with the
/// unwound run, never reset halfway and reused.
#[test]
fn a_kernel_panic_leaves_the_shards_run_state_usable() {
    silence_poison_panics();
    let (keys, poison_key, late_key) = (6u64, 3u64, 40u64);
    let n = 120i64;
    let cq = poisonable_sum(6);
    let runtime = Single::start(
        Arc::clone(&cq),
        RuntimeConfig { shards: 1, emit_interval: 8, ..RuntimeConfig::default() },
    );
    let value = |t: i64| Value::Float((t % 13) as f64);
    runtime.ingest((1..=n).flat_map(|t| {
        let served = (0..keys).map(move |k| {
            let v = if k == poison_key && t == 50 { Value::Float(-1.0) } else { value(t) };
            KeyedEvent::new(k, 0, Event::point(Time::new(t), v))
        });
        // One more key, first seen ten ticks after the panic.
        let late =
            (t >= 60).then(|| KeyedEvent::new(late_key, 0, Event::point(Time::new(t), value(t))));
        served.chain(late)
    }));
    let out = runtime.finish_at(Time::new(n + 6));
    assert_eq!(out.stats.keys_quarantined, 1);

    let end = Time::new(n + 6);
    let all: Vec<Event<Value>> = (1..=n).map(|t| Event::point(Time::new(t), value(t))).collect();
    let expected = replay(&cq, &all, end);
    for k in (0..keys).filter(|&k| k != poison_key) {
        assert!(
            streams_equivalent(&coalesce(&expected), &coalesce(&out.per_key[&k])),
            "key {k}: served before and after the panic, corrupted by it"
        );
    }
    let expected_late = replay(&cq, &all[59..], end);
    assert!(
        streams_equivalent(&coalesce(&expected_late), &coalesce(&out.per_key[&late_key])),
        "a key first served after the panic came out wrong"
    );
}

/// The same isolation holds for the shared multi-query engine: poisoning
/// quarantines the key across the group, every other key still serves all
/// registered queries.
#[test]
fn poisoned_key_in_shared_service_leaves_other_keys_serving() {
    silence_poison_panics();
    let poison = poisonable_sum(6);
    let benign = window_query(4, 0);
    let mut builder = StreamService::builder(RuntimeConfig {
        shards: 2,
        emit_interval: 8,
        ..RuntimeConfig::default()
    });
    let _q_poison = builder.register(Arc::clone(&poison));
    let q_benign = builder.register(Arc::clone(&benign));
    let multi = builder.start().unwrap();
    let keys = 6u64;
    let n = 80i64;
    multi.ingest((1..=n).flat_map(|t| {
        (0..keys).map(move |k| {
            let v = if k == 2 && t == 40 { -5.0 } else { 1.0 };
            KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(v)))
        })
    }));
    let out = multi.finish_at(Time::new(n + 6));
    assert_eq!(out.stats.keys_quarantined, 1);
    let clean: Vec<Event<Value>> =
        (1..=n).map(|t| Event::point(Time::new(t), Value::Float(1.0))).collect();
    let expected = replay(&benign, &clean, Time::new(n + 6));
    for k in (0..keys).filter(|&k| k != 2) {
        assert!(
            streams_equivalent(
                &coalesce(&expected),
                &coalesce(&out.per_query[q_benign.index()][&k])
            ),
            "key {k}: healthy key corrupted in the shared runtime"
        );
    }
}

/// A kernel panic is contained on every path that runs a key's kernels,
/// not only the emission cycle: the final flush, a wall-clock eviction,
/// and a force drain of the per-key or the per-shard backstop. Six keys
/// feed one shard for 60 ticks, key 3 carries the poison pill, and an
/// allowed lateness of 10 000 ticks keeps the watermark from maturing
/// anything, so the pill meets its kernel on the path under test. Each
/// case quarantines exactly that key, keeps the conservation identity —
/// whatever the key still held, a force drain's batch included, is
/// counted as a quarantine drop — and leaves every other key equal to its
/// in-order replay. All 360 events travel in one channel message, so no
/// wall-clock sweep can run between two of them.
///
/// Event-time eviction cannot be reached this way: a key is only evicted
/// once the watermark has passed its events, and the emission cycle that
/// carries it there runs the poisoned window first.
#[test]
fn a_kernel_panic_is_contained_on_every_non_cycle_path() {
    silence_poison_panics();
    let (keys, poison_key, n) = (6u64, 3u64, 60i64);
    let value = |t: i64| Value::Float((t % 13) as f64);
    let base = RuntimeConfig {
        shards: 1,
        allowed_lateness: 10_000,
        emit_interval: 8,
        ingest_batch: 1024,
        ..RuntimeConfig::default()
    };
    let cases = [
        ("final flush", base),
        (
            "wall-clock eviction",
            RuntimeConfig { wall_clock_ttl: Some(std::time::Duration::from_millis(20)), ..base },
        ),
        (
            "per-key force drain",
            RuntimeConfig {
                max_pending_per_key: Some(8),
                backstop: BackstopPolicy::ForceDrain,
                ..base
            },
        ),
        (
            "per-shard force drain",
            RuntimeConfig {
                max_pending_per_shard: Some(40),
                backstop: BackstopPolicy::ForceDrain,
                ..base
            },
        ),
    ];
    let cq = poisonable_sum(6);
    let end = Time::new(n + 6);
    let clean: Vec<Event<Value>> = (1..=n).map(|t| Event::point(Time::new(t), value(t))).collect();
    let expected = coalesce(&replay(&cq, &clean, end));
    for (case, config) in cases {
        let wall = config.wall_clock_ttl.is_some();
        let runtime = Single::start(Arc::clone(&cq), config);
        runtime.ingest((1..=n).flat_map(|t| {
            (0..keys).map(move |k| {
                let v = if k == poison_key && t == 30 { Value::Float(-1.0) } else { value(t) };
                KeyedEvent::new(k, 0, Event::point(Time::new(t), v))
            })
        }));
        if wall {
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while runtime.stats().keys_quarantined == 0 {
                assert!(std::time::Instant::now() < deadline, "{case}: never quarantined");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let out = runtime.finish_at(end);
        assert_eq!(out.stats.keys_quarantined, 1, "{case}: exactly the poisoned key");
        assert_eq!(out.stats.conservation_balance(), 0, "{case}: {:#}", out.stats);
        for k in (0..keys).filter(|&k| k != poison_key) {
            assert!(
                streams_equivalent(&expected, &coalesce(&out.per_key[&k])),
                "{case}: key {k} diverged from its replay"
            );
        }
    }
}

// ── Eviction: randomized differential ──────────────────────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random keyed workloads with idle gaps far past the TTL, scrambled
    /// into bounded out-of-order arrival: an evicting runtime's per-key
    /// output equals the never-evicting runtime's, at any shard count —
    /// whether or not any particular key happened to be swept.
    #[test]
    fn evicting_runtime_matches_plain_runtime(
        key_streams in prop::collection::vec(
            prop::collection::vec((1i64..120, 1i64..4, -50i64..50), 3..24),
            1..5,
        ),
        window in 1i64..12,
        agg in 0u8..3,
        ttl in 8i64..64,
        displacement in 1usize..32,
        shards in 1usize..5,
    ) {
        let streams: Vec<Vec<Event<Value>>> =
            key_streams.iter().map(|segs| stream_from_segments(segs)).collect();
        let arrivals = arrival_sequence(&streams, displacement);
        let lateness = lateness_needed(&arrivals) + 2;
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + window);
        let cq = window_query(window, agg);
        let config = |key_ttl| RuntimeConfig {
            shards,
            allowed_lateness: lateness,
            emit_interval: 4,
            key_ttl,
            ..RuntimeConfig::default()
        };

        let evicting = Single::start(Arc::clone(&cq), config(Some(ttl)));
        evicting.ingest(arrivals.iter().cloned());
        let out = evicting.finish_at(end);
        let plain = Single::start(Arc::clone(&cq), config(None));
        plain.ingest(arrivals.iter().cloned());
        let base = plain.finish_at(end);

        prop_assert_eq!(out.stats.late_dropped, 0);
        prop_assert_eq!(out.stats.evictions, out.stats.revivals + (out.stats.keys - out.stats.live_keys));
        prop_assert_eq!(out.per_key.len(), streams.len());
        for (k, events) in streams.iter().enumerate() {
            let got = &out.per_key[&(k as u64)];
            prop_assert!(
                streams_equivalent(&coalesce(&base.per_key[&(k as u64)]), &coalesce(got)),
                "key {} (window {}, agg {}, ttl {}, displacement {}, shards {}): evicting vs plain diverged",
                k, window, agg, ttl, displacement, shards
            );
            let expected = replay(&cq, events, end);
            prop_assert!(
                streams_equivalent(&coalesce(&expected), &coalesce(got)),
                "key {} diverged from in-order replay", k
            );
        }
    }
}
