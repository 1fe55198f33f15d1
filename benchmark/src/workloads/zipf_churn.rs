//! `zipf_churn` — sparse skewed keys, output-heavy, with state written
//! beside ingest.
//!
//! Half a million point events over 100 000 keys drawn Zipf(1.1), through a
//! `StreamService` running an every-tick sliding sum (window 64) with
//! `key_ttl` on, so cold keys are evicted and revived all the time; one
//! `checkpoint()` to a scratch file at the half-way mark, *inside* the timed
//! region. It uses `runtime` differently again from the YSB workloads: most
//! keys hold a handful of events (batching has nothing to batch — a change
//! that batches advance cycles should not move this workload), there is about
//! one output per input where YSB has one per hundred, sessions are created
//! and torn down constantly, and `state` writes compete with ingest.
//!
//! A *result* is one output event of one key; its latency runs from the
//! hand-over of the chunk holding the event that lets the watermark reach
//! the output's end to the sink receiving it.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use tilt_core::ir::DataType;
use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{streams_close, Event, Time, TimeRange, Value};
use tilt_obs::json::Json;
use tilt_query::{Agg, LogicalPlan, NodeId};
use tilt_runtime::{KeyedEvent, RuntimeConfig, StreamService};
use tilt_workloads::gen;

use crate::harness::{measure_setup, mev_s, peak_rss_mb, Ctx, LatencyRounds, Outcome};
use crate::latency::{samples_ns, Triggers};
use crate::probes::{self, Layer};
use crate::service::{self, dropped_events, runtime_layer, timings, Row, ServiceRound};
use crate::stats::{median, Summary};
use crate::trace::{lane_pair, Lane, Trace};

const EVENTS: usize = 500_000;
const KEYS: usize = 100_000;
const EXPONENT: f64 = 1.1;
const WINDOW: i64 = 64;
/// Idle ticks after which a key's sessions are torn down.
const KEY_TTL: i64 = 4096;
const CHUNK: usize = 4096;
const REFERENCE_PREFIX: usize = 20_000;
const MIN_ROUNDS: usize = 3;

fn plan() -> (LogicalPlan, NodeId) {
    let mut plan = LogicalPlan::new();
    let src = plan.source("x", DataType::Float);
    let sum = plan.window(src, WINDOW, 1, Agg::Sum);
    (plan, sum)
}

fn config(shards: usize) -> RuntimeConfig {
    RuntimeConfig { shards, key_ttl: Some(KEY_TTL), ..RuntimeConfig::default() }
}

struct Setup {
    keyed: Vec<KeyedEvent>,
    triggers: Triggers,
    cq: Arc<CompiledQuery>,
    end: Time,
    /// `WINDOW × Σ input values`: what the outputs' value × duration must
    /// add up to, since every point event sits in exactly `WINDOW`
    /// consecutive every-tick windows.
    expected_mass: f64,
}

fn mass(rows: &[Row]) -> f64 {
    rows.iter().map(|r| r.value * (r.end - r.start) as f64).sum()
}

/// The first `len` events through a service of the same
/// configuration, each key's output against the reference evaluator.
fn prefix_matches_reference(s: &Setup, len: usize, shards: usize, lane: &mut Lane) -> bool {
    let prefix = &s.keyed[..s.keyed.len().min(len)];
    let end = Time::new(prefix.last().map_or(0, |ke| ke.event.end.ticks()) + WINDOW);
    let r = service::round(config(shards), &s.cq, prefix, CHUNK, end, lane, false, None);
    let mut got: BTreeMap<u64, Vec<Event<Value>>> = BTreeMap::new();
    for row in &r.rows {
        got.entry(row.key).or_default().push(Event::new(
            Time::new(row.start),
            Time::new(row.end),
            Value::Float(row.value),
        ));
    }
    let mut inputs: BTreeMap<u64, Vec<Event<Value>>> = BTreeMap::new();
    for ke in prefix {
        inputs.entry(ke.key).or_default().push(ke.event.clone());
    }
    let (plan, out) = plan();
    let range = TimeRange::new(Time::ZERO, end);
    inputs.len() == got.len()
        && inputs.into_iter().all(|(key, events)| {
            let expected = tilt_query::reference::evaluate(&plan, out, &[events], range);
            let mut mine = got.remove(&key).unwrap_or_default();
            mine.sort_by_key(|e| e.start);
            streams_close(&expected, &mine, 1e-9)
        })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.size(EVENTS);
    let keys = ctx.size(KEYS);
    let shards = ctx.shards();
    let (s, setup) = measure_setup(|| {
        let stream = gen::zipf_keyed_floats(n, keys, EXPONENT, ctx.seed);
        let expected_mass =
            WINDOW as f64 * stream.iter().filter_map(|(_, e)| e.payload.as_f64()).sum::<f64>();
        let keyed: Vec<KeyedEvent> =
            stream.into_iter().map(|(key, event)| KeyedEvent::new(key, 0, event)).collect();
        let triggers = Triggers::build(keyed.iter().map(|ke| ke.event.start.ticks()), 1, 0);
        let (plan, out) = plan();
        let q = tilt_query::lower(&plan, out).expect("sliding sum lowers");
        let cq = Arc::new(Compiler::new().compile(&q).expect("sliding sum compiles"));
        Setup { keyed, triggers, cq, end: Time::new(n as i64 + WINDOW), expected_mass }
    });

    let (mut quiet_lane, mut loud_lane) = lane_pair(ctx.traced);
    let oracle_ok =
        prefix_matches_reference(&s, ctx.size(REFERENCE_PREFIX), shards, &mut quiet_lane);

    let scratch: PathBuf = ctx.out_dir.join(format!("zipf_churn_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory inside the output directory");
    let snapshot = scratch.join("checkpoint.snap");

    let (mut plain, mut traced, mut latencies) = (Vec::new(), Vec::new(), LatencyRounds::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut mass_ok = true;
    let mut last_traced: Option<(ServiceRound, (f64, u64, u64))> = None;
    let started = Instant::now();
    let mut rounds = 0usize;
    while ctx.more_rounds(started, rounds, MIN_ROUNDS) {
        let trace_this = ctx.traced && rounds % 2 == 1;
        let lane = if trace_this { &mut loud_lane } else { &mut quiet_lane };
        lane.set_round(rounds as u32);
        // (checkpoint ms, bytes written, live keys at the barrier)
        let checkpoint = Cell::new((0.0, 0u64, 0u64));
        let halfway = |service: &StreamService, lane: &mut Lane| {
            let t = Instant::now();
            let bytes = lane
                .span("state.checkpoint", 0, |_| service.checkpoint(&snapshot))
                .expect("checkpoint is written");
            checkpoint.set((t.elapsed().as_secs_f64() * 1e3, bytes, service.stats().live_keys));
        };
        let r = service::round(
            config(shards),
            &s.cq,
            &s.keyed,
            CHUNK,
            s.end,
            lane,
            trace_this,
            Some(&halfway),
        );

        let (samples, impossible) =
            samples_ns(timings(&r.rows), &s.triggers, CHUNK, &r.handover_ns, 0..u64::MAX);
        let balanced = (mass(&r.rows) - s.expected_mass).abs() <= 1e-6 * s.expected_mass;
        mass_ok &= balanced;
        attempted += n as u64;
        failed += if impossible > 0 || !balanced || !oracle_ok {
            n as u64
        } else {
            dropped_events(&r.stats, n)
        };
        if trace_this {
            traced.push(mev_s(n, r.secs));
            last_traced = Some((r, checkpoint.get()));
        } else {
            plain.push(mev_s(n, r.secs));
            latencies.push(samples);
        }
        rounds += 1;
    }

    let peak_rss_mb = peak_rss_mb();
    let throughput = Summary::of(&plain);
    let checks = vec![
        ("zipf_churn.prefix_matches_reference", oracle_ok),
        ("zipf_churn.output_mass_equals_window_times_input", mass_ok),
        ("zipf_churn.nothing_dropped", failed == 0),
    ];
    let mut layer = Layer::new();
    let mut trace = None;
    if let Some((r, (checkpoint_ms, bytes, live_keys))) = last_traced {
        layer.insert("trace.overhead_frac", 1.0 - median(&traced) / throughput.median);
        runtime_layer(&r, n, shards, &mut layer);
        layer.insert("state.checkpoint_ms", checkpoint_ms);
        layer.insert("state.checkpoint_bytes", bytes as f64);
        layer.insert("state.bytes_per_key", bytes as f64 / (live_keys as f64).max(1.0));
        let t = Instant::now();
        let restored = loud_lane
            .span("state.restore", 0, |_| {
                StreamService::restore(&snapshot, std::slice::from_ref(&s.cq))
            })
            .expect("the checkpoint restores");
        layer.insert("state.restore_ms", t.elapsed().as_secs_f64() * 1e3);
        restored.finish();

        probes::compile_pipeline(&mut loud_lane, &[plan()], &mut layer);
        layer.insert("core.codegen.fallback_ops", s.cq.fallback_ops() as f64 / rounds as f64);
        trace = Some(Trace::merge(vec![loud_lane]));
    }
    // Scratch files are the benchmark's own; nothing outlives the run.
    let _ = std::fs::remove_dir_all(&scratch);

    Outcome {
        throughput,
        latency: latencies.finish(),
        setup,
        peak_rss_mb,
        layer,
        attempted,
        failed,
        checks,
        sizes: Json::obj([
            ("events", n.into()),
            ("keys", keys.into()),
            ("zipf_exponent", EXPONENT.into()),
            ("window_ticks", WINDOW.into()),
            ("key_ttl_ticks", KEY_TTL.into()),
            ("ingest_chunk", CHUNK.into()),
            ("shards", shards.into()),
            ("producer_threads", 1usize.into()),
            ("rounds", rounds.into()),
        ]),
        trace,
    }
}
