//! `ysb_wire_sat` — YSB over TCP loopback, saturated.
//!
//! The YSB events in time order through an in-process `tilt_server::Server`:
//! one producer connection calling `Client::ingest` in 4096-event chunks
//! under credit flow (closed loop, one client) and one `Client::subscribe`
//! connection — two connections on two cores — into `max(1, nproc - 1)`
//! shards. A round is timed from the first ingest to the subscriber seeing
//! the end of its stream after `shutdown(Some(end))`. `server` (encode,
//! decode, credit grants, socket writes, subscribe fan-out) is the work added
//! over `ysb_service_sat`; this rung decides whether the door or the shard
//! is the bottleneck.
//!
//! A *result* is one campaign's window count as the subscriber receives it;
//! its latency runs from the hand-over of the chunk holding the trigger
//! event to that receipt.

use std::time::Instant;

use tilt_obs::json::Json;
use tilt_workloads::ysb;

use super::ysb_service_sat::{config, CHUNK};
use crate::harness::{measure_setup, mev_s, peak_rss_mb, Ctx, LatencyRounds, Outcome};
use crate::probes::{self, Layer};
use crate::service;
use crate::stats::{median, Summary};
use crate::trace::{lane_pair, Lane, Trace, Tracer};
use crate::wire::{canonical, dropped_events, wire_layer, ProducerCounts, Wire, WireEnd};
use crate::ysb_input::{KeyedYsb, CAMPAIGNS};

const EVENTS: usize = 2_000_000;
const WINDOW: i64 = 100_000;
const MIN_ROUNDS: usize = 3;

struct Round {
    secs: f64,
    handover_ns: Vec<u64>,
    producer: ProducerCounts,
    /// One remote `metrics_text` scrape just before the drain (traced
    /// rounds), ms.
    scrape_ms: f64,
    end: WireEnd,
}

fn round(s: &KeyedYsb, shards: usize, lane: &mut Lane, observe: bool) -> Round {
    let wire = Wire::start(config(shards, s.input.window, 0, true), &s.cq, s.keyed.len() / 64);
    let mut handover_ns = Vec::with_capacity(s.keyed.len().div_ceil(CHUNK));
    let mut producer = ProducerCounts::default();
    let t0 = Instant::now();
    for (i, chunk) in s.keyed.chunks(CHUNK).enumerate() {
        let at = wire.now_ns();
        handover_ns.push(at);
        let report = lane
            .span("server.client_ingest", i as u32, |_| wire.producer.ingest(chunk.iter().cloned()))
            .expect("ingest is acknowledged");
        producer.ingest_ns += wire.now_ns() - at;
        producer.frames += report.frames;
        producer.busy += report.busy;
    }
    let mut scrape_ms = 0.0;
    if observe {
        let t = Instant::now();
        std::hint::black_box(
            lane.span("obs.remote_metrics_text", 0, |_| wire.producer.metrics_text())
                .expect("remote scrape"),
        );
        scrape_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    let (secs, end) = wire.finish(s.input.end, t0, lane);
    Round { secs, handover_ns, producer, scrape_ms, end }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.size(EVENTS);
    let window = ctx.size(WINDOW as usize) as i64;
    let shards = ctx.shards();
    let (s, setup) = measure_setup(|| {
        let s = KeyedYsb::build(n, window, ctx.seed, None, 0);
        // Starting the server and connecting is set-up too; rounds repeat
        // it outside their timed region.
        let wire = Wire::start(config(shards, window, 0, true), &s.cq, 0);
        wire.finish(s.input.end, Instant::now(), &mut Tracer::new(false).lane(0, 0));
        s
    });

    let (mut quiet_lane, mut loud_lane) = lane_pair(ctx.traced);

    // The same events through the in-process service: the reference the
    // wire output must equal, and the rung below this one.
    let reference_rounds = if ctx.traced { 2 } else { 1 };
    let references: Vec<_> = (0..reference_rounds)
        .map(|_| {
            let cfg = config(shards, window, 0, true);
            service::round(cfg, &s.cq, &s.keyed, CHUNK, s.input.end, &mut quiet_lane, false, None)
        })
        .collect();
    let reference = canonical(&references[0].rows);

    let (mut plain, mut traced, mut latencies) = (Vec::new(), Vec::new(), LatencyRounds::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut identical = true;
    let mut last_traced: Option<Round> = None;
    let started = Instant::now();
    let mut rounds = 0usize;
    while ctx.more_rounds(started, rounds, MIN_ROUNDS) {
        let trace_this = ctx.traced && rounds % 2 == 1;
        let lane = if trace_this { &mut loud_lane } else { &mut quiet_lane };
        lane.set_round(rounds as u32);
        let r = round(&s, shards, lane, trace_this);

        let rows = &r.end.rows;
        let (bad, samples) = s.judge(rows, CHUNK, &r.handover_ns, dropped_events(&r.end.stats, n));
        let same = canonical(rows) == reference;
        identical &= same;
        attempted += n as u64;
        failed += if same { bad } else { n as u64 };
        if trace_this {
            traced.push(mev_s(n, r.secs));
            last_traced = Some(r);
        } else {
            plain.push(mev_s(n, r.secs));
            latencies.push(samples);
        }
        rounds += 1;
    }

    let peak_rss_mb = peak_rss_mb();
    let throughput = Summary::of(&plain);
    let checks = vec![
        ("ysb_wire_sat.every_window_count_matches", failed == 0),
        ("ysb_wire_sat.wire_output_equals_in_process_output", identical),
    ];
    let mut layer = Layer::new();
    let mut trace = None;
    if let Some(r) = last_traced {
        layer.insert("trace.overhead_frac", 1.0 - median(&traced) / throughput.median);
        wire_layer(&r.end, r.producer, n, r.secs, shards, &mut layer);
        let in_process: Vec<f64> = references.iter().map(|r| mev_s(n, r.secs)).collect();
        layer.insert("ladder.wire_over_service", throughput.median / median(&in_process));
        layer.insert("obs.scrape_ms", r.scrape_ms);

        let (encode, decode) = probes::codec(&mut loud_lane, &s.keyed, 2_000);
        layer.insert("server.encode_ns_per_event", encode);
        layer.insert("server.decode_ns_per_event", decode);
        probes::compile_pipeline(&mut loud_lane, &[ysb::plan(window)], &mut layer);
        trace = Some(Trace::merge(vec![loud_lane]));
    }

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
            ("campaigns", CAMPAIGNS.into()),
            ("window_ticks", window.into()),
            ("ingest_chunk", CHUNK.into()),
            ("shards", shards.into()),
            ("connections", 2usize.into()),
            ("rounds", rounds.into()),
        ]),
        trace,
    }
}
