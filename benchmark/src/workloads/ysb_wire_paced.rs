//! `ysb_wire_paced` — YSB over TCP loopback at a fixed rate: the latency
//! workload.
//!
//! The topology of `ysb_wire_sat`, driven **open loop**: the generator sends
//! a 500-event batch every millisecond (0.5 Mev/s, about a quarter of one
//! shard's capacity) for `--seconds` after a one-second warm-up, on a
//! schedule that does not slow when the system does. Windows are 10 000
//! ticks, so one closes every 20 ms. It uses `runtime` and `server` the other
//! way round from the `_sat` pair — little CPU, cadence-bound: a change that
//! takes fewer, larger advance cycles or coalesces output frames raises
//! `_sat` throughput and must not raise latency here.
//!
//! A *result* is one campaign's window count as the subscriber receives it.
//! Its latency is the receive time minus the **scheduled** send time of the
//! batch holding the event that lets the watermark reach the window's end
//! ([`crate::latency`]): it excludes the window length, and includes
//! queueing, the wire, any hold the service adds, and any stall the
//! generator suffered. Throughput is the rate actually delivered after the
//! warm-up.

use std::sync::Arc;
use std::time::Instant;

use tilt_core::CompiledQuery;
use tilt_data::{Event, Value};
use tilt_obs::json::Json;
use tilt_runtime::{KeyedEvent, QuerySettings, StreamService};
use tilt_workloads::ysb::{self, YsbEvent};

use super::ysb_service_sat::config;
use crate::harness::{measure_setup, mev_s, peak_rss_mb, Ctx, Latency, LatencyRounds, Outcome};
use crate::latency::{samples_ns, Triggers};
use crate::pace::{wait_until_due, Schedule};
use crate::probes::{self, Layer};
use crate::service::{self, timings, Row, SinkLog};
use crate::stats::Summary;
use crate::trace::{Lane, Trace, Tracer};
use crate::wire::{self, wire_layer, ProducerCounts, Wire};
use crate::ysb_input::{self, YsbInput, CAMPAIGNS};

/// Events per batch.
const BATCH: usize = 500;
/// Nanoseconds between batches.
const PERIOD_NS: u64 = 1_000_000;
const WINDOW: i64 = 10_000;
const WARMUP_S: f64 = 1.0;
/// The stream has no rounds; its latency is reduced per slice of this length.
const SLICE_NS: u64 = 1_000_000_000;
/// Share of a traced run's `--seconds` each of the two paced streams gets;
/// the rest goes to the saturated rung.
const PACED_SHARE: f64 = 0.4;
/// A batch whose send starts this long after its due time was sent into a
/// backlog the generator could no longer be said to pace: it counts as
/// failed.
const BACKLOG_LIMIT_NS: u64 = 1_000_000_000;

/// The per-layer metrics only `ysb_wire_sat` measures.
const SATURATED_RUNG: [&str; 3] =
    ["ladder.wire_over_service", "server.encode_ns_per_event", "server.decode_ns_per_event"];

fn keyed(batch: &[YsbEvent]) -> impl Iterator<Item = KeyedEvent> + '_ {
    batch.iter().map(|e| {
        KeyedEvent::new(
            e.campaign as u64,
            0,
            Event::new(e.time - 1, e.time, Value::Int(e.event_type)),
        )
    })
}

/// What the generator saw while pacing one stream.
struct Paced {
    /// Scheduled send time of every batch, ns since the run's epoch.
    due_ns: Vec<u64>,
    /// How late each send started, ns.
    late_ns: Vec<u64>,
    /// The part of that lateness that is the generator's own: the previous
    /// send had returned before this batch was due and the generator still
    /// woke up late. Lateness behind a send that overran its period is the
    /// system's doing, and shows in the latency instead.
    own_late_ns: Vec<u64>,
    /// Time inside `send`, ns.
    send_ns: u64,
}

/// Sends `events` in [`BATCH`]-event batches on the schedule, calling `send`
/// for each when it is due — immediately, when it is overdue.
fn pace(
    events: &[YsbEvent],
    epoch: Instant,
    lane: &mut Lane,
    mut send: impl FnMut(usize, &[YsbEvent], &mut Lane),
) -> Paced {
    let schedule = Schedule { period_ns: PERIOD_NS };
    let batches = events.len().div_ceil(BATCH);
    let mut p = Paced {
        due_ns: Vec::with_capacity(batches),
        late_ns: Vec::with_capacity(batches),
        own_late_ns: Vec::with_capacity(batches),
        send_ns: 0,
    };
    let start = Instant::now();
    let start_ns = start.duration_since(epoch).as_nanos() as u64;
    let mut idle_since_ns = 0u64;
    for (i, batch) in events.chunks(BATCH).enumerate() {
        let due = schedule.due_ns(i as u64);
        let late = wait_until_due(&schedule, start, i as u64);
        p.late_ns.push(late);
        p.own_late_ns.push(if idle_since_ns <= due { late } else { 0 });
        p.due_ns.push(start_ns + due);
        let t = Instant::now();
        send(i, batch, lane);
        p.send_ns += t.elapsed().as_nanos() as u64;
        idle_since_ns = start.elapsed().as_nanos() as u64;
    }
    p
}

/// One paced stream judged: result latency after the warm-up, failed events,
/// and the rate delivered after the warm-up.
struct Verdict {
    /// The stream has no rounds; its latency samples are grouped by the
    /// second in which their trigger batch was due, and each second is
    /// reduced like a round.
    latency: Latency,
    failed: u64,
    delivered_mev_s: f64,
    own_late_after_warmup_ns: Vec<u64>,
}

fn judge(
    input: &YsbInput,
    triggers: &Triggers,
    paced: &Paced,
    rows: &[Row],
    dropped: u64,
    end_ns: u64,
) -> Verdict {
    let n = input.events.len();
    let warm_ns = paced.due_ns[0] + (WARMUP_S * 1e9) as u64;
    let warm_batches = paced.due_ns.partition_point(|d| *d < warm_ns);
    let mut slices = LatencyRounds::new();
    let mut impossible = 0;
    let mut from = warm_ns;
    let stream_end = paced.due_ns.last().expect("at least one batch") + PERIOD_NS;
    // Whole slices only — a stub at the end would have too few samples for
    // the percentile the others report — unless the stream is shorter than
    // one slice (`--smoke`), which is then the only slice.
    let slice_ns = SLICE_NS.min(stream_end.saturating_sub(warm_ns)).max(PERIOD_NS);
    while from + slice_ns <= stream_end {
        let (samples, bad) =
            samples_ns(timings(rows), triggers, BATCH, &paced.due_ns, from..from + slice_ns);
        slices.push(samples);
        impossible += bad;
        from += slice_ns;
    }
    let wrong = input.failed_events(rows.iter().map(|o| (o.key, o.start, o.end, o.value)));
    let backlogged =
        paced.late_ns.iter().filter(|l| **l > BACKLOG_LIMIT_NS).count() as u64 * BATCH as u64;
    let failed =
        if impossible > 0 { n as u64 } else { (wrong + dropped + backlogged).min(n as u64) };
    let measured = n - (warm_batches * BATCH).min(n);
    Verdict {
        latency: slices.finish(),
        failed,
        delivered_mev_s: mev_s(measured, (end_ns - warm_ns) as f64 / 1e9),
        own_late_after_warmup_ns: paced.own_late_ns[warm_batches..].to_vec(),
    }
}

struct Setup {
    input: YsbInput,
    triggers: Triggers,
    cq: Arc<CompiledQuery>,
}

/// The schedule against the TCP front door.
fn over_the_wire(
    s: &Setup,
    events: &[YsbEvent],
    shards: usize,
    lane: &mut Lane,
) -> (Paced, ProducerCounts, f64, wire::WireEnd, u64) {
    let wire = Wire::start(config(shards, s.input.window, 0, true), &s.cq, events.len() / 8);
    let mut counts = ProducerCounts::default();
    let t0 = Instant::now();
    let paced = pace(events, wire.epoch, lane, |i, batch, lane| {
        let report = lane
            .span("server.client_ingest", i as u32, |_| wire.producer.ingest(keyed(batch)))
            .expect("ingest is acknowledged");
        counts.frames += report.frames;
        counts.busy += report.busy;
    });
    counts.ingest_ns = paced.send_ns;
    let epoch = wire.epoch;
    let (secs, end) = wire.finish(s.input.end, t0, lane);
    (paced, counts, secs, end, epoch.elapsed().as_nanos() as u64)
}

/// The same schedule against an in-process service with a stamping sink:
/// what the latency is without the wire.
fn in_process(s: &Setup, events: &[YsbEvent], shards: usize, lane: &mut Lane) -> Verdict {
    let epoch = Instant::now();
    let log = SinkLog::new(epoch, events.len() / 8);
    let mut builder = StreamService::builder(config(shards, s.input.window, 0, true));
    builder.register_with(Arc::clone(&s.cq), QuerySettings::with_sink(log.sink()));
    let service = builder.start().expect("one registration cannot conflict");
    let paced = pace(events, epoch, lane, |i, batch, lane| {
        lane.span("runtime.ingest", i as u32, |_| service.ingest(keyed(batch)));
    });
    let output = lane.span("runtime.finish_at", 0, |_| service.finish_at(s.input.end));
    let end_ns = epoch.elapsed().as_nanos() as u64;
    let (rows, _) = log.take();
    let dropped = service::dropped_events(&output.stats, events.len());
    judge(&s.input, &s.triggers, &paced, &rows, dropped, end_ns)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let window = ctx.size(WINDOW as usize).max(BATCH) as i64;
    let shards = ctx.shards();
    let rate = BATCH as f64 * 1e9 / PERIOD_NS as f64;
    // A traced run splits its time between the wire, the in-process replay
    // of the same schedule, and the saturated rung.
    let wire_s = if ctx.traced { ctx.seconds * PACED_SHARE } else { ctx.seconds };
    let n = ((WARMUP_S + wire_s) * rate) as usize / BATCH * BATCH;
    let (s, setup) = measure_setup(|| {
        let input = YsbInput::generate(n, window, ctx.seed, None);
        let triggers = Triggers::build(input.events.iter().map(|e| e.time.ticks() - 1), window, 0);
        let cq = ysb_input::compile(window);
        let wire = Wire::start(config(shards, window, 0, true), &cq, 0);
        wire.finish(input.end, Instant::now(), &mut Tracer::new(false).lane(0, 0));
        Setup { input, triggers, cq }
    });

    let tracer = Tracer::new(ctx.traced);
    let mut lane = tracer.lane(0, 1 << 16);
    let (paced, counts, secs, end, end_ns) = over_the_wire(&s, &s.input.events, shards, &mut lane);
    let peak_rss_mb = peak_rss_mb();
    let v = judge(
        &s.input,
        &s.triggers,
        &paced,
        &end.rows,
        wire::dropped_events(&end.stats, n),
        end_ns,
    );

    let latency = v.latency;
    let mut checks = vec![("ysb_wire_paced.every_window_count_matches", v.failed == 0)];
    let (mut attempted, mut failed) = (n as u64, v.failed);
    let mut layer = Layer::new();
    let mut trace = None;
    if ctx.traced {
        layer.insert("trace.overhead_frac", 1.0 - v.delivered_mev_s / (rate / 1e6));
        wire_layer(&end, counts, n, secs, shards, &mut layer);
        let mut late = v.own_late_after_warmup_ns.clone();
        late.sort_unstable();
        layer.insert("gen.late_send_p95_ms", late[(late.len() - 1) * 95 / 100] as f64 / 1e6);
        layer.insert(
            "gen.late_batches_frac",
            late.iter().filter(|l| **l > PERIOD_NS).count() as f64 / late.len() as f64,
        );

        let local = in_process(&s, &s.input.events, shards, &mut lane);
        layer.insert("runtime.paced_latency_p50_ms", local.latency.p50_ms.median);
        layer.insert("runtime.paced_latency_p95_ms", local.latency.tail_ms.median);
        layer.insert("server.wire_hop_p50_ms", latency.p50_ms.median - local.latency.p50_ms.median);

        // The saturated rung: `ysb_wire_sat` is not among the workloads
        // `BENCHMARK.json` names, so a few of its rounds run here and the
        // metrics only it measures are reported beside the paced ones.
        let sat_s = ctx.seconds * (1.0 - 2.0 * PACED_SHARE);
        let sat = super::ysb_wire_sat::run(&Ctx { seconds: sat_s, ..ctx.clone() });
        for name in SATURATED_RUNG {
            layer.insert(name, sat.layer[name]);
        }
        checks.extend(sat.checks);
        attempted += sat.attempted;
        failed += sat.failed;

        probes::compile_pipeline(&mut lane, &[ysb::plan(window)], &mut layer);
        trace = Some(Trace::merge(vec![lane]));
    }

    Outcome {
        throughput: Summary::single(v.delivered_mev_s),
        latency,
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
            ("batch_events", BATCH.into()),
            ("batch_period_ns", PERIOD_NS.into()),
            ("offered_mev_s", (rate / 1e6).into()),
            ("warmup_s", WARMUP_S.into()),
            ("shards", shards.into()),
            ("connections", 2usize.into()),
            ("generator_threads", 1usize.into()),
        ]),
        trace,
    }
}
