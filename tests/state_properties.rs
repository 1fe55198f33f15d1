//! Durability properties for `tilt-state` + the runtime's durable state
//! layer: a service restored from a checkpoint must produce output
//! identical (per query, per key) to one that never stopped — with events
//! still sitting in reorder buffers at the checkpoint, at 1/2/4 shards,
//! in-order and under bounded disorder; torn, truncated, or bit-flipped
//! snapshots must be rejected with a typed error (never a panic, never a
//! half-started service); migrating keys between shards mid-stream must
//! leave every output byte-identical; and cold-spilled keys must revive
//! transparently with spills == revivals; and a roster edited by detach
//! (a dead cell, a cell that shed a member) must survive a checkpoint.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{KeyedEvent, QuerySettings, RuntimeConfig, StreamService};

/// Per-key random event stream: (gap, len, value) segments, quantized so
/// float aggregation is exact and comparisons can demand identity.
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

/// The smallest allowed lateness (in ticks) that absorbs the disorder of
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

fn config(shards: usize, lateness: i64) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        allowed_lateness: lateness,
        emit_interval: 4,
        ..RuntimeConfig::default()
    }
}

/// A scratch file/directory path unique to this process and call site;
/// callers clean up best-effort.
fn scratch_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tilt-state-props-{}-{tag}-{n}", std::process::id()))
}

/// The uninterrupted reference: both queries over all arrivals, one run.
fn reference_run(
    queries: &[Arc<CompiledQuery>],
    arrivals: &[KeyedEvent],
    cfg: RuntimeConfig,
    end: Time,
) -> Vec<HashMap<u64, Vec<Event<Value>>>> {
    let mut builder = StreamService::builder(cfg);
    for cq in queries {
        builder.register(Arc::clone(cq));
    }
    let service = builder.start().expect("register");
    service.ingest(arrivals.iter().cloned());
    service.finish_at(end).per_query
}

fn assert_same_outputs(
    want: &[HashMap<u64, Vec<Event<Value>>>],
    got: &[HashMap<u64, Vec<Event<Value>>>],
    n_keys: usize,
    context: &str,
) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{context}: query count {} vs {}", want.len(), got.len()));
    }
    for (qi, (wq, gq)) in want.iter().zip(got).enumerate() {
        for k in 0..n_keys as u64 {
            let w = coalesce(wq.get(&k).map_or(&[][..], |v| v));
            let g = coalesce(gq.get(&k).map_or(&[][..], |v| v));
            if !streams_equivalent(&w, &g) {
                return Err(format!("{context}: query {qi} key {k} diverged: {w:?} vs {g:?}"));
            }
        }
    }
    Ok(())
}

/// One checkpoint/restore differential at one shard count: ingest the
/// prefix, checkpoint, abandon the service (simulated crash — its output
/// is discarded), restore from the file, ingest the suffix, finish. The
/// result must match the uninterrupted run.
fn check_checkpoint_restore(
    queries: &[Arc<CompiledQuery>],
    prefix: &[KeyedEvent],
    suffix: &[KeyedEvent],
    n_keys: usize,
    shards: usize,
    lateness: i64,
    end: Time,
) -> Result<(), String> {
    let cfg = config(shards, lateness);
    let want = reference_run(queries, &[prefix, suffix].concat(), cfg, end);

    let path = scratch_path("ckpt");
    let mut builder = StreamService::builder(cfg);
    for cq in queries {
        builder.register(Arc::clone(cq));
    }
    let service = builder.start().expect("register");
    service.ingest(prefix.iter().cloned());
    let bytes = service.checkpoint(&path).map_err(|e| format!("checkpoint failed: {e}"))?;
    drop(service); // crash: nothing after the checkpoint survives
    if bytes == 0 {
        return Err("checkpoint reported an empty snapshot".into());
    }

    let restored =
        StreamService::restore(&path, queries).map_err(|e| format!("restore failed: {e}"))?;
    // The books resume from the dead service's count, not from zero.
    let resumed = restored.stats().events_in;
    if resumed != prefix.len() as u64 {
        return Err(format!("events_in resumed at {resumed}, not at {}", prefix.len()));
    }
    restored.ingest(suffix.iter().cloned());
    let out = restored.finish_at(end);
    let _ = std::fs::remove_file(&path);

    let s = &out.stats;
    if s.checkpoints != 1 {
        return Err(format!(
            "restored run must carry the checkpoint counter, got {}",
            s.checkpoints
        ));
    }
    if s.events_in != (prefix.len() + suffix.len()) as u64 {
        return Err(format!(
            "events_in must resume across restore: {} of {}",
            s.events_in,
            prefix.len() + suffix.len()
        ));
    }
    // Restore reads at least the snapshot back off disk (the write side is
    // counted after serialization, so the restored books show 0 written).
    if s.state_bytes_read < bytes {
        return Err(format!("restore read {} of {bytes} snapshot bytes", s.state_bytes_read));
    }
    if s.conservation_balance() != 0 {
        return Err(format!(
            "conservation broken across restore: balance={} (in={} consumed={} late={})",
            s.conservation_balance(),
            s.events_in,
            s.events_consumed,
            s.late_dropped
        ));
    }
    assert_same_outputs(&want, &out.per_query, n_keys, &format!("shards {shards}"))
}

/// One migration differential at one shard count: ingest the prefix, hop
/// every key one shard over (state serialized out of one shard and
/// spliced into another), ingest the suffix, finish. Outputs must match
/// the migration-free run.
fn check_migration(
    queries: &[Arc<CompiledQuery>],
    prefix: &[KeyedEvent],
    suffix: &[KeyedEvent],
    n_keys: usize,
    shards: usize,
    lateness: i64,
    end: Time,
) -> Result<(), String> {
    let cfg = config(shards, lateness);
    let want = reference_run(queries, &[prefix, suffix].concat(), cfg, end);

    let mut builder = StreamService::builder(cfg);
    for cq in queries {
        builder.register(Arc::clone(cq));
    }
    let service = builder.start().expect("register");
    service.ingest(prefix.iter().cloned());
    let mut moved = 0u64;
    for k in 0..n_keys as u64 {
        let to = (service.shard_of(k) + 1 + k as usize) % shards;
        if service.migrate_key(k, to) {
            moved += 1;
        }
    }
    service.ingest(suffix.iter().cloned());
    let out = service.finish_at(end);
    let s = &out.stats;
    if s.migrations != moved {
        return Err(format!("migration counter {} != {} performed", s.migrations, moved));
    }
    if s.spilled_pending != 0 {
        return Err(format!("{} events still in flight after migration", s.spilled_pending));
    }
    if s.keys_quarantined != 0 {
        return Err(format!("migration quarantined {} keys", s.keys_quarantined));
    }
    if s.conservation_balance() != 0 {
        return Err(format!("conservation broken across migration: {}", s.conservation_balance()));
    }
    assert_same_outputs(&want, &out.per_query, n_keys, &format!("shards {shards} migrated"))
}

#[test]
fn restore_rejects_wrong_query_roster() {
    let q = window_query(4, 0);
    let path = scratch_path("roster");
    let mut builder = StreamService::builder(config(1, 0));
    builder.register(Arc::clone(&q));
    let service = builder.start().unwrap();
    service.ingest(
        (1..=20).map(|t| KeyedEvent::new(0, 0, Event::point(Time::new(t), Value::Float(t as f64)))),
    );
    service.checkpoint(&path).unwrap();
    drop(service);
    // Too few / too many compiled queries: typed rejection, no service.
    assert!(StreamService::restore(&path, &[]).is_err());
    assert!(StreamService::restore(&path, &[Arc::clone(&q), window_query(2, 0)]).is_err());
    // The right roster still works afterwards (rejection has no side
    // effects on the file).
    let restored = StreamService::restore(&path, &[q]).unwrap();
    restored.finish_at(Time::new(30));
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint of an *edited* roster restores it. Of three queries, two
/// share a cell and one runs alone under a wider lateness bound; the solo
/// query detaches (its cell dies) and one sharing member detaches (its
/// cell sheds it), more events arrive, and only then is the service
/// checkpointed, abandoned, restored with all three compiled queries and
/// fed the rest. Per key, every query's output, `sessions_reclaimed` and
/// the conservation identity equal those of a service that never stopped,
/// at 1, 2 and 4 shards.
#[test]
fn checkpoint_restores_an_edited_roster() {
    let queries = [window_query(4, 0), window_query(6, 1), window_query(3, 2)];
    let mut rng = 0x5EED_0000_0000_0044u64;
    let mut next = |m: i64| {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (rng >> 33) as i64 % m
    };
    let n_keys = 6;
    let streams: Vec<Vec<Event<Value>>> = (0..n_keys)
        .map(|_| {
            let segments: Vec<(i64, i64, i64)> =
                (0..40).map(|_| (1 + next(3), 1 + next(3), next(100) - 50)).collect();
            stream_from_segments(&segments, 0)
        })
        .collect();
    let arrivals = arrival_sequence(&streams, 5);
    let lateness = lateness_needed(&arrivals) + 2;
    let third = arrivals.len() / 3;
    let (before, rest) = arrivals.split_at(third);
    let (between, after) = rest.split_at(third);
    let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
    let end = Time::new(hi.ticks() + 64);

    for shards in [1usize, 2, 4] {
        let cfg = config(shards, lateness);
        // Queries 0 and 1 share a cell; query 2 has a cell of its own.
        let edited = || {
            let mut builder = StreamService::builder(cfg);
            let shared = builder.register(Arc::clone(&queries[0]));
            builder.register(Arc::clone(&queries[1]));
            let solo = builder.register_with(
                Arc::clone(&queries[2]),
                QuerySettings { allowed_lateness: Some(lateness + 4), ..QuerySettings::default() },
            );
            let service = builder.start().expect("register");
            service.ingest(before.iter().cloned());
            service.detach(solo).expect("detach the solo query");
            service.detach(shared).expect("detach a sharing member");
            service.ingest(between.iter().cloned());
            service
        };

        let reference = edited();
        reference.ingest(after.iter().cloned());
        let want = reference.finish_at(end);

        let path = scratch_path("edited-roster");
        let service = edited();
        service.checkpoint(&path).expect("checkpoint");
        drop(service);
        let restored = StreamService::restore(&path, &queries).expect("restore");
        assert_eq!(restored.num_queries(), 1, "shards {shards}: one query survives");
        restored.ingest(after.iter().cloned());
        let got = restored.finish_at(end);
        let _ = std::fs::remove_file(&path);

        let (w, g) = (&want.stats, &got.stats);
        assert!(w.sessions_reclaimed > 0, "shards {shards}: the dead cell held sessions");
        assert_eq!(g.sessions_reclaimed, w.sessions_reclaimed, "shards {shards}");
        assert_eq!(w.conservation_balance(), 0, "shards {shards}: reference");
        assert_eq!(g.conservation_balance(), 0, "shards {shards}: restored");
        assert!(
            want.per_query[1].values().any(|evs| !evs.is_empty()),
            "shards {shards}: the survivor emits"
        );
        assert_same_outputs(&want.per_query, &got.per_query, n_keys, &format!("shards {shards}"))
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Every single-byte corruption and every truncation of a checkpoint is
/// rejected with a typed error — no panic, no half-started service, and
/// the error is deterministic (the CRC layer, magic/version header, or
/// framing catches it).
#[test]
fn corrupted_checkpoints_are_rejected_not_panicked() {
    let q = window_query(5, 0);
    let path = scratch_path("corrupt");
    let mut builder = StreamService::builder(config(2, 3));
    builder.register(Arc::clone(&q));
    let service = builder.start().unwrap();
    let streams: Vec<Vec<Event<Value>>> =
        (0..4).map(|k| stream_from_segments(&[(1, 2, k * 7), (2, 3, 9), (1, 1, -13)], 0)).collect();
    service.ingest(arrival_sequence(&streams, 4));
    service.checkpoint(&path).unwrap();
    drop(service);
    let pristine = std::fs::read(&path).unwrap();
    let queries = [Arc::clone(&q)];
    assert!(StreamService::restore(&path, &queries).is_ok(), "pristine file must restore");

    // Truncations at every prefix length (stride keeps runtime sane).
    for cut in (0..pristine.len()).step_by(7) {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            StreamService::restore(&path, &queries).is_err(),
            "truncation to {cut} of {} bytes must be rejected",
            pristine.len()
        );
    }
    // Single-bit flips across the file (every 5th byte, bit varies).
    for pos in (0..pristine.len()).step_by(5) {
        let mut bad = pristine.clone();
        bad[pos] ^= 1 << (pos % 8);
        std::fs::write(&path, &bad).unwrap();
        assert!(
            StreamService::restore(&path, &queries).is_err(),
            "bit flip at byte {pos} must be rejected"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Cold spill under phased churn: keys that go idle are spilled to disk
/// (no in-memory state at all), revive transparently when they re-arrive,
/// and the output is identical to a service that never evicted anything.
/// Every spill is matched by exactly one revival.
#[test]
fn spill_and_revival_are_transparent() {
    let q = window_query(6, 0);
    let phase = |keys: std::ops::Range<u64>, ticks: std::ops::Range<i64>| {
        let mut evs = Vec::new();
        for t in ticks {
            for k in keys.clone() {
                evs.push(KeyedEvent::new(
                    k,
                    0,
                    Event::point(Time::new(t), Value::Float((k + t as u64) as f64)),
                ));
            }
        }
        evs
    };
    // Keys 0..8 run, go idle for 100 ticks while keys 8..16 carry the
    // watermark (the idle keys cross the TTL and spill), then everyone
    // returns at the live edge (the spilled keys revive). Returning keys
    // arrive *at* the watermark, never behind it, so the output is
    // insensitive to when each shard's lazy advances happen to run.
    let phases = [phase(0..8, 1..50), phase(8..16, 50..150), phase(0..16, 150..200)];
    let all: Vec<KeyedEvent> = phases.iter().flatten().cloned().collect();
    let end = Time::new(220);

    for shards in [1usize, 2] {
        let plain = RuntimeConfig { key_ttl: Some(16), ..config(shards, 0) };
        let want = reference_run(&[Arc::clone(&q)], &all, config(shards, 0), end);

        let dir = scratch_path("spill");
        let mut builder = StreamService::builder(plain).spill_to(&dir);
        builder.register(Arc::clone(&q));
        let service = builder.start().unwrap();
        for p in &phases {
            service.ingest(p.iter().cloned());
            // Let the shards drain so idleness is observed between phases.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let target = p.iter().map(|ke| ke.event.start).max().unwrap();
            while service.stats().queue_depths.iter().sum::<usize>() > 0
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            let _ = target;
        }
        let out = service.finish_at(end);
        let s = &out.stats;
        assert!(s.spills > 0, "shards={shards}: phased idleness must spill (ttl=16)");
        assert_eq!(
            s.spills, s.spill_revivals,
            "shards={shards}: every spill revives exactly once (re-arrival or final flush)"
        );
        assert_eq!(s.keys_quarantined, 0, "shards={shards}: spill must not quarantine");
        assert_eq!(s.late_dropped, 0, "shards={shards}: spill must not drop");
        assert_eq!(s.conservation_balance(), 0, "shards={shards}: conservation across spill");
        assert_eq!(s.spilled_pending, 0, "shards={shards}: nothing left on disk accounting");
        assert_same_outputs(&want, &out.per_query, 16, &format!("shards {shards} spill"))
            .unwrap_or_else(|e| panic!("{e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The tombstone-output cap bounds what a retired key's tombstone may
/// hold, counts what it trims, and never touches live keys.
#[test]
fn tombstone_output_cap_bounds_retired_keys() {
    let q = window_query(4, 0);
    let traffic: Vec<KeyedEvent> = (1..=120i64)
        .map(|t| KeyedEvent::new(7, 0, Event::point(Time::new(t), Value::Float(t as f64))))
        .chain(
            (1..=200i64)
                .map(|t| KeyedEvent::new(8, 0, Event::point(Time::new(t), Value::Float(t as f64)))),
        )
        .collect();
    let run = |cap: Option<usize>| {
        let mut builder = StreamService::builder(RuntimeConfig {
            key_ttl: Some(8),
            tombstone_output_cap: cap,
            ..config(1, 200)
        });
        builder.register(Arc::clone(&q));
        let service = builder.start().unwrap();
        service.ingest(traffic.iter().cloned());
        service.finish_at(Time::new(240))
    };
    let unbounded = run(None);
    assert_eq!(unbounded.stats.tombstone_dropped, 0, "no cap, no trims");
    let capped = run(Some(4));
    if capped.stats.evictions > 0 {
        assert!(
            capped.stats.tombstone_dropped > 0,
            "evictions with a 4-event cap must trim (evictions={})",
            capped.stats.evictions
        );
    }
    assert_eq!(capped.stats.conservation_balance(), 0, "output trims never touch event counters");
}

/// Deterministic rebalance: after manually piling every key onto shard 0,
/// `rebalance()` must move load back and outputs must stay identical to
/// an untouched run.
#[test]
fn rebalance_moves_load_and_preserves_output() {
    let q = window_query(5, 0);
    let streams: Vec<Vec<Event<Value>>> =
        (0..12).map(|k| stream_from_segments(&[(1, 2, k * 3), (1, 1, -k), (2, 2, 7)], 0)).collect();
    let first = arrival_sequence(&streams, 1);
    let second: Vec<KeyedEvent> = first
        .iter()
        .map(|ke| {
            let e = &ke.event;
            KeyedEvent::new(
                ke.key,
                0,
                Event::new(e.start.saturating_add(40), e.end.saturating_add(40), e.payload.clone()),
            )
        })
        .collect();
    let end = Time::new(100);
    let cfg = config(2, 0);
    let want =
        reference_run(&[Arc::clone(&q)], &[first.clone(), second.clone()].concat(), cfg, end);

    let mut builder = StreamService::builder(cfg);
    builder.register(Arc::clone(&q));
    let service = builder.start().unwrap();
    service.ingest(first.iter().cloned());
    // Pile everything onto shard 0…
    let mut piled = 0u64;
    for k in 0..12u64 {
        piled += u64::from(service.migrate_key(k, 0));
        assert_eq!(service.shard_of(k), 0, "route override must stick");
    }
    // …then let the balancer undo the skew.
    let moved = service.rebalance();
    assert!(moved > 0, "a fully skewed service must rebalance");
    service.ingest(second.iter().cloned());
    let out = service.finish_at(end);
    assert_eq!(out.stats.conservation_balance(), 0);
    assert_eq!(out.stats.keys_quarantined, 0);
    assert_eq!(out.stats.late_dropped, 0);
    assert_eq!(out.stats.migrations, piled + moved as u64, "every move is counted");
    assert_same_outputs(&want, &out.per_query, 12, "rebalance").unwrap_or_else(|e| panic!("{e}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Checkpoint → crash → restore resumes byte-identically: the split
    /// point lands anywhere in a scrambled arrival sequence (events still
    /// buffered out of order at the checkpoint), two queries share the
    /// service, and the property holds at 1/2/4 shards.
    #[test]
    fn checkpoint_restore_is_invisible(
        streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..16),
            1..4,
        ),
        w1 in 1i64..12,
        a1 in 0u8..3,
        w2 in 1i64..12,
        a2 in 0u8..3,
        displacement in 1usize..16,
        split_frac in 0u8..101,
    ) {
        let events: Vec<Vec<Event<Value>>> =
            streams.iter().map(|segs| stream_from_segments(segs, 0)).collect();
        let arrivals = arrival_sequence(&events, displacement);
        let lateness = lateness_needed(&arrivals) + 2;
        let split = arrivals.len() * split_frac as usize / 100;
        let (prefix, suffix) = arrivals.split_at(split);
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + 64);
        let queries = [window_query(w1, a1), window_query(w2, a2)];
        for shards in [1usize, 2, 4] {
            if let Err(msg) = check_checkpoint_restore(
                &queries, prefix, suffix, events.len(), shards, lateness, end,
            ) {
                prop_assert!(false, "{} (w1={}, a1={}, w2={}, a2={}, disp={}, split={})",
                    msg, w1, a1, w2, a2, displacement, split);
            }
        }
    }

    /// Migrating every key one shard over mid-stream — with events still
    /// buffered out of order — leaves every query's output byte-identical
    /// to the migration-free run, at 2 and 4 shards.
    #[test]
    fn migration_mid_stream_is_invisible(
        streams in prop::collection::vec(
            prop::collection::vec((1i64..5, 1i64..4, -50i64..50), 3..16),
            1..4,
        ),
        w1 in 1i64..12,
        a1 in 0u8..3,
        displacement in 1usize..16,
        split_frac in 0u8..101,
    ) {
        let events: Vec<Vec<Event<Value>>> =
            streams.iter().map(|segs| stream_from_segments(segs, 0)).collect();
        let arrivals = arrival_sequence(&events, displacement);
        let lateness = lateness_needed(&arrivals) + 2;
        let split = arrivals.len() * split_frac as usize / 100;
        let (prefix, suffix) = arrivals.split_at(split);
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap();
        let end = Time::new(hi.ticks() + 64);
        let queries = [window_query(w1, a1)];
        for shards in [2usize, 4] {
            if let Err(msg) = check_migration(
                &queries, prefix, suffix, events.len(), shards, lateness, end,
            ) {
                prop_assert!(false, "{} (w1={}, a1={}, disp={}, split={})",
                    msg, w1, a1, displacement, split);
            }
        }
    }
}
