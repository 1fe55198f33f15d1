//! `ysb_service_sat` — YSB through the sharded keyed service, saturated.
//!
//! The YSB events of `ysb_oneshot` as keyed events, arrival order scrambled
//! within 512-event blocks and absorbed by an allowed lateness of 1026
//! ticks. One producer thread calls `StreamService::ingest` in 4096-event
//! chunks as fast as backpressure allows (closed loop, one client) into
//! `max(1, nproc - 1)` shards with a timestamping sink; a round is timed from
//! the first `ingest` to the return of `finish_at`. `runtime` does most of
//! the work here — routing, channels, reorder buffers, watermark cycles,
//! per-key sessions — and `server` none, and because the events are the
//! one-shot workload's, service over one-shot is a ratio of like with like.
//!
//! A *result* is one campaign's window count; its latency runs from the
//! hand-over of the chunk holding the event that lets the watermark reach
//! the window's end (see [`crate::latency`]) to the sink receiving it.

use std::time::Instant;

use tilt_data::{Time, TimeRange};
use tilt_obs::json::Json;
use tilt_runtime::RuntimeConfig;
use tilt_workloads::ysb;

use crate::harness::{measure_setup, mev_s, peak_rss_mb, Ctx, LatencyRounds, Outcome};
use crate::probes::{self, Layer};
use crate::service::{self, dropped_events, runtime_layer, ServiceRound};
use crate::stats::{median, Summary};
use crate::trace::{lane_pair, Trace};
use crate::ysb_input::{KeyedYsb, YsbInput, CAMPAIGNS};

const EVENTS: usize = 3_000_000;
const WINDOW: i64 = 100_000;
const DISPLACEMENT: usize = 512;
/// Covers the scramble: no event arrives more than `2 × DISPLACEMENT` ticks
/// behind the newest start seen.
const LATENESS: i64 = 2 * DISPLACEMENT as i64 + 2;
/// Events per `ingest` call.
pub const CHUNK: usize = 4096;
const MIN_ROUNDS: usize = 3;
const PROBE_EVENTS: usize = 1_000_000;

/// The service configuration of the YSB service and wire workloads.
pub fn config(shards: usize, window: i64, lateness: i64, metrics: bool) -> RuntimeConfig {
    RuntimeConfig {
        shards,
        allowed_lateness: lateness,
        emit_interval: window,
        metrics,
        ..RuntimeConfig::default()
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.size(EVENTS);
    let window = ctx.size(WINDOW as usize) as i64;
    let shards = ctx.shards();
    let (s, setup) =
        measure_setup(|| KeyedYsb::build(n, window, ctx.seed, Some(DISPLACEMENT), LATENESS));

    let (mut quiet_lane, mut loud_lane) = lane_pair(ctx.traced);

    let (mut plain, mut traced, mut unmetered) = (Vec::new(), Vec::new(), Vec::new());
    let mut latencies = LatencyRounds::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last_traced: Option<ServiceRound> = None;
    let started = Instant::now();
    let mut rounds = 0usize;
    while ctx.more_rounds(started, rounds, MIN_ROUNDS) {
        // A traced run cycles plain / traced / plain-with-metrics-off, so
        // tracing overhead and metrics overhead both compare interleaved
        // rounds.
        let kind = if ctx.traced { rounds % 3 } else { 0 };
        let lane = if kind == 1 { &mut loud_lane } else { &mut quiet_lane };
        lane.set_round(rounds as u32);
        let cfg = config(shards, window, LATENESS, kind != 2);
        let r = service::round(cfg, &s.cq, &s.keyed, CHUNK, s.input.end, lane, kind == 1, None);
        let (bad, samples) = s.judge(&r.rows, CHUNK, &r.handover_ns, dropped_events(&r.stats, n));
        attempted += n as u64;
        failed += bad;
        match kind {
            0 => {
                plain.push(mev_s(n, r.secs));
                latencies.push(samples);
            }
            1 => {
                traced.push(mev_s(n, r.secs));
                last_traced = Some(r);
            }
            _ => unmetered.push(mev_s(n, r.secs)),
        }
        rounds += 1;
    }

    let peak_rss_mb = peak_rss_mb();
    let throughput = Summary::of(&plain);
    let checks = vec![("ysb_service_sat.every_window_count_matches", failed == 0)];
    let mut layer = Layer::new();
    let mut trace = None;
    if let Some(r) = last_traced {
        layer.insert("trace.overhead_frac", 1.0 - median(&traced) / throughput.median);
        layer.insert("obs.metrics_on_over_off", throughput.median / median(&unmetered));
        runtime_layer(&r, n, shards, &mut layer);

        // The rungs below the service, on the first million events in time
        // order: one thread driving bare per-key sessions, and one thread
        // running the one-shot query.
        let m = ctx.size(PROBE_EVENTS);
        let ordered = YsbInput::generate(m, window, ctx.seed, None);
        let probe = probes::sessions(
            &mut loud_lane,
            &s.cq,
            &ysb::keyed(&ordered.events),
            CAMPAIGNS,
            window,
            ordered.end,
        );
        layer.insert("core.exec.session_mev_s", probe.mev_s);
        layer.insert("core.exec.session_push_ns_per_event", probe.push_ns_per_event);
        layer.insert("core.exec.session_advance_ns_per_event", probe.advance_ns_per_event);
        layer.insert("core.exec.session_advance_us_p95", probe.advance_us_p95);
        let partitions = ysb::partition(&ordered.events, CAMPAIGNS);
        let range = TimeRange::new(Time::ZERO, ordered.end);
        let (secs, _, _) = super::ysb_oneshot::round(
            &s.cq,
            &partitions,
            range,
            1,
            std::slice::from_mut(&mut quiet_lane),
        );
        let oneshot = mev_s(m, secs);
        layer.insert("core.exec.threads1_mev_s", oneshot);
        layer.insert("ladder.session_over_oneshot", probe.mev_s / oneshot);
        layer.insert("ladder.service_over_session", throughput.median / probe.mev_s);

        probes::compile_pipeline(&mut loud_lane, &[ysb::plan(window)], &mut layer);
        layer.insert("core.codegen.fallback_ops", s.cq.fallback_ops() as f64 / rounds as f64);
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
            ("displacement", DISPLACEMENT.into()),
            ("allowed_lateness", LATENESS.into()),
            ("ingest_chunk", CHUNK.into()),
            ("shards", shards.into()),
            ("producer_threads", 1usize.into()),
            ("rounds", rounds.into()),
        ]),
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::Triggers;
    use crate::service::SinkLog;
    use crate::ysb_input;
    use tilt_runtime::{KeyedEvent, QuerySettings, StreamService};

    /// The newest window end the sink has seen after exactly `len` in-order
    /// events went in. `finish_at(ZERO)` drains the queue through the
    /// ordinary advance cycles and then flushes to a horizon behind every
    /// session, so nothing comes out that the watermark had not already
    /// released — no sleeping, no racing the shard thread.
    fn released_after(keyed: &[KeyedEvent], len: usize, window: i64, lateness: i64) -> i64 {
        let log = SinkLog::new(Instant::now(), 1024);
        let mut builder = StreamService::builder(config(1, window, lateness, true));
        builder.register_with(ysb_input::compile(window), QuerySettings::with_sink(log.sink()));
        let service = builder.start().unwrap();
        for ke in &keyed[..len] {
            // One event per batch, as the latency definition assumes.
            service.ingest([ke.clone()]);
        }
        service.finish_at(Time::ZERO);
        log.take().0.iter().map(|r| r.end).max().unwrap_or(0)
    }

    /// Pins the trigger offset the latency definition rests on. With
    /// in-order input and one tick per event, the watermark (newest start
    /// minus lateness) reaches the window end `e` when the event at arrival
    /// index `e + lateness` goes in: no result may come out before that
    /// event (a latency sample would be negative), and the service must
    /// release it at the latest one window later (today it holds every
    /// tumbling window for one extra window of event time, which the
    /// latency metric therefore includes; a change that releases sooner
    /// stays inside these bounds).
    #[test]
    fn window_is_released_no_earlier_than_arrival_index_end_plus_lateness() {
        let window = 50;
        let input = YsbInput::generate(400, window, 5, None);
        let keyed = ysb::keyed(&input.events);
        for lateness in [0i64, 7] {
            let starts = keyed.iter().map(|ke| ke.event.start.ticks());
            let triggers = Triggers::build(starts, window, lateness);
            for end in [50i64, 100, 250] {
                let trigger = triggers.trigger_of(end).expect("a trigger exists");
                assert_eq!(trigger, (end + lateness) as usize, "fixed offset");
                assert!(released_after(&keyed, trigger, window, lateness) < end, "too early");
                let held = trigger + 1 + window as usize;
                assert!(released_after(&keyed, held, window, lateness) >= end, "held too long");
            }
        }
    }
}
