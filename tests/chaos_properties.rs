//! Chaos differential suite: under seeded fault schedules — a torn
//! checkpoint write, a connection killed mid-stream, error-every-Nth
//! spill writes — the final per-key output must equal the fault-free
//! run, conservation must hold exactly, and a reconnecting subscriber
//! with `Resume` must observe every frame exactly once; and a snapshot
//! writer killed at any stage leaves the previous snapshot intact.
//!
//! Every test runs inside a [`tilt_fault::Scenario`], which serializes
//! fault tests within this binary and resets the failpoint registry on
//! entry and on drop. `FAULT_SEED` (env, decimal or `0x`-hex) varies
//! the schedules; CI runs the suite under several seeds.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{coalesce, streams_equivalent, Event, Time, Value};
use tilt_fault as fault;
use tilt_fault::Policy;
use tilt_runtime::{KeyedEvent, Lineage, RuntimeConfig, StreamService};
use tilt_server::{Client, ClientConfig, RetryPolicy, Server, ServerConfig};
use tilt_state::{SnapshotFile, SnapshotWriter};

/// Default chaos seed when `FAULT_SEED` is unset.
const SEED_DEFAULT: u64 = 0xC0A5_C0DE;

// ───────────────────────────── helpers ─────────────────────────────
// Same shapes as the durability and wire-protocol suites, so the chaos
// runs are differential against the exact workloads those suites hold
// to identity.

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

fn stream_from_segments(segments: &[(i64, i64, i64)]) -> Vec<Event<Value>> {
    let mut t = 0;
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

/// Interleaves per-key streams into one arrival sequence, then scrambles
/// it by reversing consecutive blocks of `displacement` events.
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

/// The smallest allowed lateness absorbing the disorder of `arrivals`.
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

/// A scratch path unique to this process and call site.
fn scratch_path(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tilt-chaos-{}-{tag}-{n}", std::process::id()))
}

/// The fault-free reference: one query over all arrivals, one run.
/// Always computed *before* a schedule is armed.
fn reference_run(
    cq: &Arc<CompiledQuery>,
    arrivals: &[KeyedEvent],
    cfg: RuntimeConfig,
    end: Time,
) -> HashMap<u64, Vec<Event<Value>>> {
    let mut builder = StreamService::builder(cfg);
    let q = builder.register(Arc::clone(cq));
    let service = builder.start().expect("single registration");
    service.ingest(arrivals.iter().cloned());
    service.finish_at(end).per_query.swap_remove(q.index())
}

fn assert_identical(
    got: &HashMap<u64, Vec<Event<Value>>>,
    want: &HashMap<u64, Vec<Event<Value>>>,
    ctx: &str,
) {
    let mut keys: Vec<u64> = got.keys().chain(want.keys()).copied().collect();
    keys.sort_unstable();
    keys.dedup();
    for key in keys {
        let g = got.get(&key).cloned().unwrap_or_default();
        let w = want.get(&key).cloned().unwrap_or_default();
        assert!(
            streams_equivalent(&coalesce(&g), &coalesce(&w)),
            "{ctx}: key {key} diverged\n faulted: {g:?}\n reference: {w:?}"
        );
    }
}

/// The phased spill workload from the durability suite: keys 0..8 run,
/// go idle past the TTL while keys 8..16 carry the watermark (the idle
/// keys spill), then everyone returns at the live edge (they revive).
fn phased_spill_traffic() -> [Vec<KeyedEvent>; 3] {
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
    [phase(0..8, 1..50), phase(8..16, 50..150), phase(0..16, 150..200)]
}

/// Lets the shards drain between phases so idleness is observed.
fn drain(service: &StreamService) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().queue_depths.iter().sum::<usize>() > 0 && Instant::now() < deadline {
        std::thread::yield_now();
    }
}

// ─────────────────── schedule A: torn checkpoint ───────────────────

/// A checkpoint killed mid-write — torn record, failed fsync, or failed
/// rename, one mode per shard count — must leave the lineage's last
/// published snapshot untouched. Recovery restores from it, re-ingests
/// the suffix, and lands on output identical to the fault-free run.
/// Overwriting a checkpoint path must never destroy the previous good
/// snapshot, even when the writer dies mid-file (injected error or torn
/// write) or at fsync/rename time. It arms the process-global
/// `state.snapshot.*` failpoints, so it lives here — where every test
/// holds the scenario guard — rather than beside `tilt-state`'s unit
/// tests, which write snapshots unguarded.
#[test]
fn killed_writer_preserves_previous_snapshot() {
    let _scenario = fault::Scenario::setup();
    let dir = scratch_path("preserve");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snap.tiltsnp");

    let mut w = SnapshotWriter::create(&path).unwrap();
    w.record(1, b"generation-one").unwrap();
    w.finish().unwrap();

    let kills: [(&str, Policy); 4] = [
        ("state.snapshot.write_record", Policy::ErrorOnce),
        ("state.snapshot.write_record", Policy::TornAfter(3)),
        ("state.snapshot.fsync", Policy::ErrorOnce),
        ("state.snapshot.rename", Policy::ErrorOnce),
    ];
    for (site, policy) in kills {
        fault::arm(site, policy);
        let attempt = (|| {
            let mut w = SnapshotWriter::create(&path)?;
            w.record(1, b"generation-two")?;
            w.finish()
        })();
        assert!(attempt.is_err(), "{site} fault must fail the rewrite");
        fault::disarm(site);
        let survived = SnapshotFile::read(&path).expect("previous snapshot intact");
        assert_eq!(survived.records()[0], (1u8, b"generation-one".to_vec()), "{site}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_checkpoint_recovers_from_newest_valid_snapshot() {
    let _scenario = fault::Scenario::setup();
    let seed = fault::seed_from_env(SEED_DEFAULT);
    let cq = window_query(7, 0);
    let streams: Vec<Vec<Event<Value>>> = (0..6)
        .map(|k| stream_from_segments(&[(1, 3, k * 5), (2, 2, k - 9), (1, 4, 17), (3, 2, k)]))
        .collect();
    let arrivals = arrival_sequence(&streams, 3);
    let lateness = lateness_needed(&arrivals).max(1);
    let end = Time::new(arrivals.iter().map(|ke| ke.event.end.ticks()).max().unwrap_or(0) + 7);
    let (prefix, rest) = arrivals.split_at((arrivals.len() / 3).max(1));

    let kill_sites =
        ["state.snapshot.write_record", "state.snapshot.fsync", "state.snapshot.rename"];
    for (site, shards) in kill_sites.iter().zip([1usize, 2, 4]) {
        let cfg = config(shards, lateness);
        let want = reference_run(&cq, &arrivals, cfg, end);

        let dir = scratch_path("lineage");
        let lineage = Lineage::open(&dir, 3).expect("lineage directory");
        let mut builder = StreamService::builder(cfg);
        let handle = builder.register(Arc::clone(&cq));
        let service = builder.start().expect("service starts");
        service.ingest(prefix.iter().cloned());
        let (good, _) = service.checkpoint_to(&lineage).expect("clean checkpoint publishes");

        service.ingest(rest.iter().cloned());
        let policy = if *site == "state.snapshot.write_record" {
            fault::seeded_torn(seed, site, 512)
        } else {
            Policy::ErrorOnce
        };
        fault::arm(site, policy);
        let torn = service.checkpoint_to(&lineage);
        assert!(
            torn.is_err(),
            "shards={shards}: checkpoint through a {site} fault must fail, got {torn:?}"
        );
        fault::disarm(site);
        assert!(fault::injected(site) >= 1, "shards={shards}: {site} schedule never fired");
        drop(service); // crash: nothing after the good checkpoint survives in memory

        let (restored, from) = StreamService::restore_latest(&lineage, &[Arc::clone(&cq)])
            .unwrap_or_else(|e| panic!("shards={shards}: recovery failed: {e}"));
        assert_eq!(
            from, good,
            "shards={shards}: recovery must land on the snapshot published before the fault"
        );
        restored.ingest(rest.iter().cloned());
        let mut out = restored.finish_at(end);
        assert_eq!(
            out.stats.conservation_balance(),
            0,
            "shards={shards}: conservation across torn checkpoint + recovery"
        );
        let got = out.per_query.swap_remove(handle.index());
        assert_identical(&got, &want, &format!("shards={shards} site={site}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ─────────────── schedule B: connection killed mid-stream ───────────────

/// The first output frame after arming dies on the server's socket
/// write; the server drops the connection. The client must redial,
/// re-handshake, `Resume` from its last delivered sequence number, and
/// observe every frame exactly once — final per-key output identical to
/// the in-process fault-free run.
fn resume_after_kill(arrivals: Vec<KeyedEvent>, lateness: i64) {
    let _scenario = fault::Scenario::setup();
    let seed = fault::seed_from_env(SEED_DEFAULT);
    let cq = window_query(8, 0);
    let horizon = arrivals.iter().map(|ke| ke.event.end.ticks()).max().unwrap_or(0) + lateness + 16;
    let end = Time::new(horizon);
    let cfg = config(2, lateness);
    let want = reference_run(&cq, &arrivals, cfg, end);

    let server = Server::start_with(
        ServerConfig { runtime: cfg, replay_ring_capacity: 4096, ..ServerConfig::default() },
        vec![("w".into(), Arc::clone(&cq))],
    )
    .expect("server starts");
    let retry = RetryPolicy {
        max_attempts: 10,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(40),
        seed,
    };
    let client = Client::connect_with(
        server.addr(),
        ClientConfig { retry: Some(retry), ..ClientConfig::default() },
    )
    .expect("client connects");
    let q = client.attach("w", None, None).expect("attach");
    let sub = client.subscribe(q).expect("subscribe");
    client.ingest(arrivals.iter().cloned()).expect("ingest");

    // Every request above has its reply; the next server→client send is
    // an output frame. Kill exactly that one, then release the output
    // with an explicit watermark (fire-and-forget: no reply to race).
    fault::arm("server.conn.write", Policy::ErrorOnce);
    client.watermark(0, end).expect("watermark");

    let deadline = Instant::now() + Duration::from_secs(20);
    while client.reconnects() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(fault::injected("server.conn.write"), 1, "the schedule fires exactly once");
    assert!(client.reconnects() >= 1, "client must heal the killed connection");
    assert_eq!(client.resume_gaps(), 0, "the replay ring must cover the outage");

    client.shutdown(Some(end)).expect("shutdown drains the service");
    let stats = client.stats().expect("post-shutdown stats");
    assert_eq!(stats.get("conservation_balance"), Some(0), "conservation under injection");
    assert!(
        stats.get("resume_replays").unwrap_or(0) >= 1,
        "server must have replayed the missed suffix"
    );
    assert_eq!(stats.get("resume_gaps"), Some(0), "no subscriber fell off the ring");
    let got = sub.collect_per_key();
    server.stop();
    for events in got.values() {
        assert!(events.windows(2).all(|w| w[0].end <= w[1].start), "in order, nothing twice");
    }
    assert_identical(&got, &want, "killed connection + resume");
}

#[test]
fn killed_subscriber_reconnects_and_resumes_exactly_once() {
    // Five keys under bounded disorder: many small frames.
    let streams: Vec<Vec<Event<Value>>> = (0..5)
        .map(|k| stream_from_segments(&[(1, 2, k * 9), (1, 3, -5), (2, 2, 13 + k)]))
        .collect();
    let arrivals = arrival_sequence(&streams, 2);
    let lateness = lateness_needed(&arrivals).max(1);
    resume_after_kill(arrivals, lateness);
    // One hot key whose whole output (> 1 MiB) is released by a single
    // watermark: the killed frame is the first of several consecutive
    // ones cut from one sink call, all replayed from the ring.
    let n = 50_000i64;
    let hot = (1..=n)
        .map(|t| KeyedEvent::new(1, 0, Event::point(Time::new(t), Value::Float(t as f64))))
        .collect();
    resume_after_kill(hot, 2 * n);
}

// ─────────────── schedule C: error-every-Nth spill write ───────────────

/// Spill writes failing on a seeded every-Nth schedule degrade to plain
/// in-memory eviction — no quarantine, conservation exact, and output
/// identical to a run that never evicted anything at all.
#[test]
fn spill_write_faults_fall_back_without_losing_output() {
    let _scenario = fault::Scenario::setup();
    let seed = fault::seed_from_env(SEED_DEFAULT);
    let cq = window_query(6, 0);
    let phases = phased_spill_traffic();
    let all: Vec<KeyedEvent> = phases.iter().flatten().cloned().collect();
    let end = Time::new(220);

    for shards in [1usize, 2] {
        let want = reference_run(&cq, &all, config(shards, 0), end);

        let dir = scratch_path("spill");
        fault::arm("state.spill.write", fault::seeded_nth(seed, "state.spill.write", 2, 4));
        let mut builder =
            StreamService::builder(RuntimeConfig { key_ttl: Some(16), ..config(shards, 0) })
                .spill_to(&dir);
        let handle = builder.register(Arc::clone(&cq));
        let service = builder.start().expect("service starts");
        for p in &phases {
            service.ingest(p.iter().cloned());
            drain(&service);
        }
        let mut out = service.finish_at(end);
        fault::disarm("state.spill.write");

        let s = &out.stats;
        assert!(
            fault::injected("state.spill.write") >= 1,
            "shards={shards}: the spill-write schedule never bit"
        );
        assert_eq!(
            s.keys_quarantined, 0,
            "shards={shards}: write failures degrade to memory, never quarantine"
        );
        assert_eq!(
            s.spills, s.spill_revivals,
            "shards={shards}: every *successful* spill still revives exactly once"
        );
        assert_eq!(s.spilled_pending, 0, "shards={shards}: no stranded disk accounting");
        assert_eq!(
            s.conservation_balance(),
            0,
            "shards={shards}: conservation under spill-write injection"
        );
        let got = out.per_query.swap_remove(handle.index());
        assert_identical(&got, &want, &format!("shards={shards} spill-write faults"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The read-side counterpart is *not* output-preserving by design: an
/// unreadable bundle quarantines its key. What must hold instead: the
/// corrupt bundle is counted, journaled as a typed control event, and
/// conservation stays exact through the quarantine accounting.
#[test]
fn corrupt_spill_bundles_are_quarantined_and_journaled() {
    let _scenario = fault::Scenario::setup();
    let cq = window_query(6, 0);
    let phases = phased_spill_traffic();
    let end = Time::new(220);

    let dir = scratch_path("quarantine");
    fault::arm("state.spill.read", Policy::ErrorOnce);
    let mut builder =
        StreamService::builder(RuntimeConfig { key_ttl: Some(16), ..config(2, 0) }).spill_to(&dir);
    builder.register(Arc::clone(&cq));
    let service = builder.start().expect("service starts");
    for p in &phases {
        service.ingest(p.iter().cloned());
        drain(&service);
    }
    let out = service.finish_at(end);
    fault::disarm("state.spill.read");

    let s = &out.stats;
    assert!(fault::injected("state.spill.read") >= 1, "the spill-read schedule never bit");
    assert!(s.spills > 0, "phased idleness must spill before the fault can fire");
    assert!(s.spill_corrupt >= 1, "the failed revival must be counted as corrupt");
    assert!(s.keys_quarantined >= 1, "the key with the unreadable bundle is quarantined");
    assert_eq!(s.conservation_balance(), 0, "quarantine accounting keeps conservation exact");
    let journal = out.journal.to_text();
    assert!(
        journal.contains("spill-corrupt"),
        "journal must record the corrupt bundle, got:\n{journal}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A key spilled with events still in its reorder buffers carries them in
/// the bundle, counted on the `spilled_pending` gauge. When that bundle
/// cannot be read back, the quarantine must move them from that gauge to
/// `quarantine_dropped`: the finished service holds no spilled events.
/// Four keys of 30 events each go silent under a 20 ms wall-clock TTL and
/// an allowed lateness of 10 000 ticks, so each spills with all of its
/// events pending; the first revival, at the final flush, fails.
#[test]
fn a_corrupt_bundle_drops_the_events_it_carried() {
    let _scenario = fault::Scenario::setup();
    let (keys, n) = (4u64, 30i64);
    let dir = scratch_path("pending");
    fault::arm("state.spill.read", Policy::ErrorOnce);
    let mut builder = StreamService::builder(RuntimeConfig {
        wall_clock_ttl: Some(Duration::from_millis(20)),
        ..config(1, 10_000)
    })
    .spill_to(&dir);
    builder.register(window_query(6, 0));
    let service = builder.start().expect("service starts");
    service.ingest((1..=n).flat_map(|t| {
        (0..keys).map(move |k| KeyedEvent::new(k, 0, Event::point(Time::new(t), Value::Float(1.0))))
    }));
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.stats().spills < keys {
        assert!(Instant::now() < deadline, "the silent keys never spilled");
        std::thread::sleep(Duration::from_millis(2));
    }
    let out = service.finish_at(Time::new(n + 6));
    fault::disarm("state.spill.read");

    let s = &out.stats;
    assert_eq!(fault::injected("state.spill.read"), 1, "exactly one revival fails");
    assert_eq!((s.spill_corrupt, s.keys_quarantined), (1, 1));
    assert_eq!(s.spilled_pending, 0, "no event is left counted inside a bundle");
    assert_eq!(s.quarantine_dropped, n as u64, "the bundle's events are quarantine drops");
    assert_eq!(s.conservation_balance(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
