//! Observability properties for `tilt-runtime`'s metrics layer: event
//! accounting must conserve (every ingested event ends in exactly one
//! terminal counter), the `metrics` toggle must never change output, the
//! control-plane journal must keep its ring/sequence invariants, and
//! `ForceDrain` backstops must never quarantine healthy keys or drive the
//! reorder-pending gauge negative — even when the per-key cell roster grew
//! via `attach` after the key last ran.

use std::sync::Arc;

use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_runtime::{
    BackstopPolicy, KeyedEvent, QuerySettings, RuntimeConfig, ServiceOutput, StreamService,
};

fn window_query(window: i64) -> Arc<CompiledQuery> {
    let mut b = Query::builder();
    let input = b.input("x", DataType::Float);
    let out =
        b.temporal("w", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, input, window));
    Arc::new(Compiler::new().compile(&b.finish(out).unwrap()).unwrap())
}

/// Keyed integer-payload traffic, scrambled by reversing consecutive
/// blocks so a configurable share of arrivals exceeds a small lateness.
fn scrambled_traffic(keys: u64, ticks: i64, displacement: usize) -> Vec<KeyedEvent> {
    let mut all: Vec<KeyedEvent> = (1..=ticks)
        .flat_map(|t| {
            (0..keys).map(move |k| {
                KeyedEvent::new(
                    k,
                    0,
                    Event::point(Time::new(t), Value::Float((k + t as u64) as f64)),
                )
            })
        })
        .collect();
    for block in all.chunks_mut(displacement) {
        block.reverse();
    }
    all
}

/// Runs a service through ingest + live attach/detach churn (plus an
/// optional per-key backstop cap), so the terminal counters (late,
/// backstop, detach) are exercised, and returns the final output.
///
/// Without a cap the run is fully deterministic: lateness decisions and
/// control-plane ordering ride the FIFO shard channels, so two runs see
/// identical outputs. The `DropNewest` cap trips on *buffered* depth,
/// which depends on how fast shards drain — runs with a cap conserve but
/// are not comparable event-for-event.
fn churn_run(shards: usize, metrics: bool, per_key_cap: Option<usize>) -> ServiceOutput {
    let mut builder = StreamService::builder(RuntimeConfig {
        shards,
        // The 8-tick arrival disorder stays inside the lateness bound, so
        // no main-traffic event is ever late no matter how shard advance
        // cycles interleave with acceptance.
        allowed_lateness: 12,
        emit_interval: 4,
        max_pending_per_key: per_key_cap,
        backstop: BackstopPolicy::DropNewest,
        metrics,
        journal_capacity: 256,
        ..RuntimeConfig::default()
    });
    builder.register(window_query(8));
    let service = builder.start().unwrap();

    // Blocks of 128 span 8 ticks of the 16-key interleave.
    let traffic = scrambled_traffic(16, 600, 128);
    let third = traffic.len() / 3;
    service.ingest(traffic[..third].iter().cloned());
    // A tenant joins the running service, rides one third of the stream,
    // and leaves — reorder-buffer entries only it wanted are reclaimed.
    let tenant = service.attach(window_query(3), QuerySettings::default()).unwrap();
    service.ingest(traffic[third..2 * third].iter().cloned());
    service.detach(tenant).unwrap();
    service.ingest(traffic[2 * third..].iter().cloned());

    // Wait until every shard's watermark is provably past t=1+lateness,
    // then send one hopeless straggler per key: deterministically late in
    // every run, whatever the shard/producer interleaving did above.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while service.stats().min_watermark < Time::new(500) {
        assert!(std::time::Instant::now() < deadline, "watermark stalled");
        std::thread::yield_now();
    }
    service.ingest(
        (0..16u64).map(|k| KeyedEvent::new(k, 0, Event::point(Time::new(1), Value::Float(1.0)))),
    );
    service.finish_at(Time::new(610))
}

#[test]
fn event_accounting_conserves_under_churn() {
    for shards in [1usize, 2, 4] {
        let out = churn_run(shards, true, Some(8));
        let s = &out.stats;
        assert_eq!(
            s.conservation_balance(),
            0,
            "shards={shards}: events_in={} consumed={} late={} backstop={} quarantine={} \
             detach={} pending={:?} queued={:?}",
            s.events_in,
            s.events_consumed,
            s.late_dropped,
            s.backstop_dropped,
            s.quarantine_dropped,
            s.detach_dropped,
            s.reorder_pending,
            s.queue_depths,
        );
        assert_eq!(s.reorder_underflow, 0, "shards={shards}: gauge went negative");
        assert!(s.reorder_pending.iter().all(|&p| p == 0), "drained at shutdown");
        assert!(s.queue_depths.iter().all(|&q| q == 0), "queues empty at shutdown");
        // The run must actually exercise the drop paths it claims to
        // conserve across.
        assert!(s.late_dropped > 0, "shards={shards}: disorder must exceed lateness");
        assert!(s.backstop_dropped > 0, "shards={shards}: per-key cap must trip");
    }
}

#[test]
fn conservation_holds_with_metrics_disabled() {
    // The base counters behind the identity are always-on; the toggle only
    // sheds histograms/journal/attribution.
    let out = churn_run(2, false, Some(8));
    assert_eq!(out.stats.conservation_balance(), 0);
    assert_eq!(out.stats.reorder_underflow, 0);
}

#[test]
fn metrics_toggle_never_changes_output() {
    let on = churn_run(2, true, None);
    let off = churn_run(2, false, None);
    assert_eq!(on.per_query.len(), off.per_query.len());
    for (qa, qb) in on.per_query.iter().zip(&off.per_query) {
        let mut keys: Vec<&u64> = qa.keys().collect();
        keys.sort();
        let mut keys_b: Vec<&u64> = qb.keys().collect();
        keys_b.sort();
        assert_eq!(keys, keys_b, "same key population either way");
        for (&k, events) in qa {
            assert!(
                streams_equivalent(&coalesce(events), &coalesce(&qb[&k])),
                "key {k}: output must be byte-identical with metrics on and off"
            );
        }
    }
    // The detailed layer was genuinely on in one run and off in the other.
    assert!(on.journal.next_seq > 0, "attach/detach churn must be journaled");
    assert_eq!(off.journal.next_seq, 0, "metrics off ⇒ journal never written");
    assert!(off.journal.events.is_empty());
    // Base counters agree on everything the toggle does not gate *and*
    // the FIFO shard channels make deterministic. `events_out` is not in
    // that set: shards drain ingest in bursts and run one emission cycle
    // per burst, so burst boundaries (scheduling) decide how many cycles
    // run — and whether the short-lived tenant emits at all before its
    // detach. Raw emitted-span counts therefore vary run to run even with
    // identical inputs; the coalesced per-query content compared above is
    // the real toggle invariant.
    assert_eq!(on.stats.events_in, off.stats.events_in);
    assert_eq!(on.stats.late_dropped, off.stats.late_dropped);
    // The burst histograms are part of the detailed layer: every event is
    // in exactly one receive burst, and a burst has no more keys than events.
    let burst = |out: &ServiceOutput, name: &str| -> (u64, u64) {
        let per_shard = out.metrics.samples.iter().filter(|s| s.name == name);
        per_shard.fold((0, 0), |(count, sum), s| match &s.value {
            tilt_obs::SampleValue::Histogram(h) => (count + h.count(), sum + h.sum),
            _ => panic!("{name} is a histogram"),
        })
    };
    let (bursts, events) = burst(&on, "tilt_burst_events");
    let (key_samples, keys) = burst(&on, "tilt_burst_keys");
    assert_eq!(events, on.stats.events_in);
    assert_eq!(key_samples, bursts);
    assert!(bursts > 0 && bursts <= keys && keys <= events, "{bursts} {keys} {events}");
    assert_eq!(burst(&off, "tilt_burst_events"), (0, 0));
}

/// `ForceDrain` backstop under attach/detach churn: forced drains must
/// never quarantine a healthy key, drive the reorder-pending gauge
/// negative, or leak events from the conservation identity — at 1 and 2
/// shards, with both per-key and per-shard caps tripping.
#[test]
fn force_drain_churn_conserves() {
    for shards in [1usize, 2] {
        let mut builder = StreamService::builder(RuntimeConfig {
            shards,
            allowed_lateness: 4,
            emit_interval: 1,
            max_pending_per_key: Some(3),
            max_pending_per_shard: Some(24),
            backstop: BackstopPolicy::ForceDrain,
            metrics: true,
            ..RuntimeConfig::default()
        });
        builder.register(window_query(8));
        let service = builder.start().unwrap();
        let tr = scrambled_traffic(6, 400, 48);
        let chunk = tr.len() / 10;
        let mut handles = Vec::new();
        for (i, part) in tr.chunks(chunk).enumerate() {
            service.ingest(part.iter().cloned());
            if i % 2 == 0 {
                let settings = QuerySettings {
                    allowed_lateness: Some(30 + i as i64 * 7),
                    emit_interval: Some(1 + (i as i64 % 3)),
                    ..QuerySettings::default()
                };
                handles.push(service.attach(window_query(2 + (i as i64 % 3)), settings).unwrap());
            } else if let Some(h) = handles.pop() {
                service.detach(h).unwrap();
            }
        }
        for h in handles {
            service.detach(h).unwrap();
        }
        let out = service.finish_at(Time::new(410));
        let s = &out.stats;
        assert_eq!(s.reorder_underflow, 0, "shards={shards}: gauge went negative");
        assert_eq!(s.keys_quarantined, 0, "shards={shards}: force-drain quarantined a key");
        assert_eq!(s.conservation_balance(), 0, "shards={shards}: events leaked");
    }
}

/// Regression: `attach` grows the per-key cell roster, and a later
/// shard-cap force-drain picks a victim key that no emission cycle has
/// visited (and re-synced) since — the watermark is pinned, so no cycle
/// ever runs. Draining through the stale roster used to index past the
/// key's cell list, panic, and quarantine a perfectly healthy key; the
/// drain must sync the roster first.
#[test]
fn force_drain_after_attach_keeps_keys_healthy() {
    let mut builder = StreamService::builder(RuntimeConfig {
        shards: 1,
        // Watermark pinned far behind: no emission cycle is ever due, so
        // no visit re-syncs old keys after the attach.
        allowed_lateness: 100_000,
        emit_interval: 1,
        max_pending_per_shard: Some(32),
        backstop: BackstopPolicy::ForceDrain,
        metrics: true,
        ..RuntimeConfig::default()
    });
    builder.register(window_query(4));
    let service = builder.start().unwrap();
    // Key 0 buffers 20 events under the pinned watermark.
    service.ingest(
        (1..=20).map(|t| KeyedEvent::new(0, 0, Event::point(Time::new(t), Value::Float(t as f64)))),
    );
    // The roster grows.
    let _tenant = service.attach(window_query(2), QuerySettings::default()).unwrap();
    // A different key floods past the shard cap: the force-drain victim is
    // key 0 (fullest buffer), whose cell roster was never resynced.
    service.ingest(
        (1..=14).map(|t| KeyedEvent::new(9, 0, Event::point(Time::new(t), Value::Float(t as f64)))),
    );
    let out = service.finish_at(Time::new(40));
    assert_eq!(
        out.stats.keys_quarantined, 0,
        "healthy key quarantined by a force-drain (quarantine_dropped={})",
        out.stats.quarantine_dropped
    );
    assert_eq!(out.stats.reorder_underflow, 0);
    assert_eq!(out.stats.conservation_balance(), 0);
}

#[test]
fn journal_ring_keeps_sequence_invariants() {
    let mut builder = StreamService::builder(RuntimeConfig {
        shards: 1,
        journal_capacity: 4,
        ..RuntimeConfig::default()
    });
    builder.register(window_query(4));
    let service = builder.start().unwrap();
    // 10 attach/detach pairs push 20 transitions through a 4-slot ring.
    for _ in 0..10 {
        let h = service.attach(window_query(2), QuerySettings::default()).unwrap();
        service.detach(h).unwrap();
    }
    let j = service.journal();
    assert_eq!(j.events.len(), 4, "ring retains exactly its capacity");
    assert_eq!(j.next_seq, 21, "1 registration + 20 churn transitions");
    assert_eq!(j.dropped, j.next_seq - j.events.len() as u64);
    // Seqs are contiguous, oldest first, and stamps never go backwards.
    for pair in j.events.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1);
        assert!(pair[1].at_ms >= pair[0].at_ms);
    }
    assert_eq!(j.events.last().unwrap().seq, j.next_seq - 1);
    let last = format!("{}", j.events.last().unwrap().event);
    assert!(last.contains("detach"), "churn ends on a detach, got: {last}");
    service.finish_at(Time::new(8));
}

/// Spill/revive churn keeps the conservation ledger exact: events riding
/// spill bundles move onto the `spilled_pending` gauge and come back off
/// at revival, every spill has exactly one revival, and the journal
/// records the durable transitions.
#[test]
fn spill_and_revive_churn_conserves() {
    let dir = std::env::temp_dir().join(format!("tilt-obs-spill-{}", std::process::id()));
    for shards in [1usize, 2, 4] {
        let mut builder = StreamService::builder(RuntimeConfig {
            shards,
            allowed_lateness: 12,
            emit_interval: 4,
            key_ttl: Some(24),
            metrics: true,
            journal_capacity: 256,
            ..RuntimeConfig::default()
        })
        .spill_to(&dir);
        builder.register(window_query(8));
        let service = builder.start().unwrap();
        // Keys 0..4 run early then fall silent; keys 4..16 keep the
        // watermark moving far enough for the TTL sweep to spill them;
        // then everyone returns at the live edge and the spilled keys
        // revive mid-stream (the rest revive at the final flush).
        let early: Vec<KeyedEvent> = scrambled_traffic(16, 200, 32)
            .into_iter()
            .filter(|ke| ke.event.end.ticks() <= 100 || ke.key >= 4)
            .collect();
        service.ingest(early.iter().cloned());
        // Let the shards drain and their watermarks reach the early
        // horizon, so the TTL sweep observes the idle keys before fresh
        // traffic arrives for them.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let stats = service.stats();
            let drained = stats.queue_depths.iter().sum::<usize>() == 0;
            let caught_up = stats.shard_watermarks.iter().all(|w| w.ticks() >= 180);
            if (drained && caught_up) || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::yield_now();
        }
        let late_edge: Vec<KeyedEvent> = (201..=240)
            .flat_map(|t| {
                (0..16u64).map(move |k| {
                    KeyedEvent::new(
                        k,
                        0,
                        Event::point(Time::new(t), Value::Float((k + t as u64) as f64)),
                    )
                })
            })
            .collect();
        service.ingest(late_edge.iter().cloned());
        let out = service.finish_at(Time::new(260));
        let s = &out.stats;
        assert!(s.spills > 0, "shards={shards}: idle keys must spill");
        assert_eq!(s.spills, s.spill_revivals, "shards={shards}: spill/revival symmetry");
        assert_eq!(s.spilled_pending, 0, "shards={shards}: no events left on disk");
        assert_eq!(s.keys_quarantined, 0, "shards={shards}: spill must not quarantine");
        assert_eq!(s.conservation_balance(), 0, "shards={shards}: conservation through spill");
        assert_eq!(s.reorder_underflow, 0, "shards={shards}: gauge handoff must not underflow");
        let journal = format!("{:?}", service_journal_kinds(&out));
        assert!(journal.contains("spill"), "journal must record spills: {journal}");
        assert!(journal.contains("revive"), "journal must record revivals: {journal}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Renders the journal's event kinds for assertion messages.
fn service_journal_kinds(out: &ServiceOutput) -> Vec<String> {
    out.journal.events.iter().map(|e| format!("{}", e.event).to_lowercase()).collect()
}
