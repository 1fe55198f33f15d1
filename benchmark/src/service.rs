//! One closed-loop round through an in-process `StreamService`: a single
//! producer ingests fixed-size chunks as fast as backpressure allows, a
//! timestamping sink collects every output, `finish_at` drains. Shared by
//! the two service workloads and by the in-process reference runs of the
//! wire workloads.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tilt_core::CompiledQuery;
use tilt_data::{Event, Time, Value};
use tilt_obs::SampleValue;
use tilt_runtime::{
    KeyedEvent, OutputSink, QuerySettings, RuntimeConfig, RuntimeStats, StreamService,
};

use crate::probes::Layer;
use crate::trace::Lane;

/// One output event as the sink saw it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// The key it belongs to.
    pub key: u64,
    /// Exclusive start, ticks.
    pub start: i64,
    /// Inclusive end, ticks.
    pub end: i64,
    /// Numeric payload (`NaN` for a payload that is not a number).
    pub value: f64,
    /// When the sink received it, nanoseconds since the log's epoch.
    pub recv_ns: u64,
}

impl Row {
    /// One output event of `key`, received at `recv_ns`.
    pub fn of(key: u64, e: &Event<Value>, recv_ns: u64) -> Row {
        Row {
            key,
            start: e.start.ticks(),
            end: e.end.ticks(),
            value: e.payload.as_f64().unwrap_or(f64::NAN),
            recv_ns,
        }
    }
}

/// `(result end, receive time)` of each row, as [`crate::latency::samples_ns`]
/// takes them.
pub fn timings(rows: &[Row]) -> impl Iterator<Item = (i64, u64)> + '_ {
    rows.iter().map(|r| (r.end, r.recv_ns))
}

/// A sink that stamps and keeps every output event.
pub struct SinkLog {
    epoch: Instant,
    rows: Mutex<Vec<Row>>,
    calls: AtomicU64,
}

impl SinkLog {
    /// A log with room for `capacity` rows, so a timed round does not grow
    /// it.
    pub fn new(epoch: Instant, capacity: usize) -> Arc<SinkLog> {
        Arc::new(SinkLog {
            epoch,
            rows: Mutex::new(Vec::with_capacity(capacity)),
            calls: AtomicU64::new(0),
        })
    }

    /// Records one delivery of `events` for `key`.
    pub fn record(&self, key: u64, events: &[Event<Value>]) {
        let recv_ns = self.epoch.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut rows = self.rows.lock().expect("sink log lock");
        rows.extend(events.iter().map(|e| Row::of(key, e, recv_ns)));
    }

    /// This log as a service sink.
    pub fn sink(self: &Arc<SinkLog>) -> OutputSink {
        let log = Arc::clone(self);
        Arc::new(move |key, events| log.record(key, events))
    }

    /// Takes the rows and the number of deliveries.
    pub fn take(&self) -> (Vec<Row>, u64) {
        let rows = std::mem::take(&mut *self.rows.lock().expect("sink log lock"));
        (rows, self.calls.load(Ordering::Relaxed))
    }
}

/// Called between the two halves of a round's ingest loop.
pub type Halfway<'a> = &'a dyn Fn(&StreamService, &mut Lane);

/// What one round measured.
pub struct ServiceRound {
    /// First `ingest` to return of `finish_at`, seconds.
    pub secs: f64,
    /// Hand-over time of each chunk (start of its `ingest` call), ns since
    /// `epoch`.
    pub handover_ns: Vec<u64>,
    /// Time inside `ingest` calls, summed, ns.
    pub ingest_ns: u64,
    /// Chunks whose `ingest` reported backpressure.
    pub pressured: usize,
    /// `finish_at` duration, ms.
    pub drain_ms: f64,
    /// Final service stats.
    pub stats: RuntimeStats,
    /// Time the shards spent in advance cycles and the final flush (kernel
    /// execution plus output delivery), summed over shards, ns. Zero with
    /// `RuntimeConfig::metrics` off.
    pub busy_ns: u64,
    /// Every output event.
    pub rows: Vec<Row>,
    /// Sink deliveries.
    pub sink_calls: u64,
    /// Largest total queue depth seen by the 100 ms poller (traced rounds).
    pub queue_depth_max: usize,
    /// Watermark lag at each poll, ticks (traced rounds).
    pub lag_ticks: Vec<f64>,
    /// One `metrics_text()` scrape just before the drain, ms (traced rounds).
    pub scrape_ms: f64,
}

/// Runs one round. `halfway` is called between the two halves of the ingest
/// loop (the checkpoint of `zipf_churn`). Polling and the scrape only happen
/// when `observe` is set — they are part of the traced rounds, never of the
/// numbers the plain rounds report.
#[allow(clippy::too_many_arguments)]
pub fn round(
    config: RuntimeConfig,
    cq: &Arc<CompiledQuery>,
    events: &[KeyedEvent],
    chunk: usize,
    end: Time,
    lane: &mut Lane,
    observe: bool,
    halfway: Option<Halfway<'_>>,
) -> ServiceRound {
    let epoch = Instant::now();
    let log = SinkLog::new(epoch, events.len() / 4);
    let mut builder = StreamService::builder(config);
    builder.register_with(Arc::clone(cq), QuerySettings::with_sink(log.sink()));
    let service = builder.start().expect("one registration cannot conflict");

    let chunks = events.len().div_ceil(chunk);
    let mut handover_ns = Vec::with_capacity(chunks);
    let (mut ingest_ns, mut pressured) = (0u64, 0usize);
    let polling = AtomicBool::new(true);
    let mut scrape_ms = 0.0;

    let t0 = Instant::now();
    let (queue_depth_max, lag_ticks) = std::thread::scope(|scope| {
        let poller = observe.then(|| {
            scope.spawn(|| {
                let (mut depth, mut lags) = (0usize, Vec::new());
                while polling.load(Ordering::Acquire) {
                    let s = service.stats();
                    depth = depth.max(s.queue_depths.iter().sum());
                    // Before the first event a shard's watermark is
                    // `Time::MIN` and the lag is not a number of ticks
                    // anyone waited.
                    if s.min_watermark > Time::MIN {
                        lags.push(s.watermark_lag as f64);
                    }
                    // Parked, not asleep: the producer wakes it to stop, so
                    // the timed region never waits out a poll interval.
                    std::thread::park_timeout(Duration::from_millis(100));
                }
                (depth, lags)
            })
        });
        for (i, batch) in events.chunks(chunk).enumerate() {
            if i == chunks / 2 {
                if let Some(hook) = halfway {
                    hook(&service, lane);
                }
            }
            let at = epoch.elapsed().as_nanos() as u64;
            handover_ns.push(at);
            pressured += usize::from(lane.span("runtime.ingest", i as u32, |_| {
                service.ingest_with_pressure(batch.iter().cloned())
            }));
            ingest_ns += epoch.elapsed().as_nanos() as u64 - at;
        }
        if observe {
            let t = Instant::now();
            std::hint::black_box(lane.span("obs.metrics_text", 0, |_| service.metrics_text()));
            scrape_ms = t.elapsed().as_secs_f64() * 1e3;
        }
        polling.store(false, Ordering::Release);
        poller.map_or((0, Vec::new()), |p| {
            p.thread().unpark();
            p.join().expect("stats poller panicked")
        })
    });
    let t_drain = Instant::now();
    let output = lane.span("runtime.finish_at", 0, |_| service.finish_at(end));
    let (secs, drain_ms) = (t0.elapsed().as_secs_f64(), t_drain.elapsed().as_secs_f64() * 1e3);
    let (rows, sink_calls) = log.take();
    let busy_ns = output
        .metrics
        .samples
        .iter()
        .filter(|m| m.name == "tilt_advance_ns" || m.name == "tilt_flush_ns")
        .map(|m| match &m.value {
            SampleValue::Histogram(h) => h.sum,
            _ => 0,
        })
        .sum();
    ServiceRound {
        secs,
        handover_ns,
        ingest_ns,
        pressured,
        drain_ms,
        stats: output.stats,
        busy_ns,
        rows,
        sink_calls,
        queue_depth_max,
        lag_ticks,
        scrape_ms,
    }
}

/// Events a round lost inside the runtime: late, backstop and quarantine
/// drops; every event when conservation does not balance.
pub fn dropped_events(stats: &RuntimeStats, attempted: usize) -> u64 {
    if stats.conservation_balance() != 0 {
        return attempted as u64;
    }
    stats.late_dropped + stats.backstop_dropped + stats.quarantine_dropped
}

/// The `runtime.*` metrics every service round can report, from its final
/// stats and its own counters.
pub fn runtime_layer(r: &ServiceRound, events: usize, shards: usize, layer: &mut Layer) {
    let n = events as f64;
    layer.insert("runtime.ingest_call_ns_per_event", r.ingest_ns as f64 / n);
    layer.insert("runtime.ingest_pressure_frac", r.pressured as f64 / r.handover_ns.len() as f64);
    layer.insert("runtime.drain_ms", r.drain_ms);
    layer.insert("runtime.kernel_busy_frac", r.busy_ns as f64 / 1e9 / (r.secs * shards as f64));
    layer.insert("runtime.kernels_run", r.stats.kernels_run as f64);
    layer.insert("runtime.events_per_kernel_run", n / (r.stats.kernels_run as f64).max(1.0));
    layer.insert("runtime.reorder_buffered", r.stats.reorder_buffered as f64);
    layer.insert("runtime.late_dropped", r.stats.late_dropped as f64);
    layer.insert("runtime.sink_calls", r.sink_calls as f64);
    layer.insert(
        "runtime.events_per_sink_call",
        r.stats.events_out as f64 / (r.sink_calls as f64).max(1.0),
    );
    layer.insert("runtime.queue_depth_max", r.queue_depth_max as f64);
    if !r.lag_ticks.is_empty() {
        layer.insert("runtime.watermark_lag_ticks_p50", crate::stats::median(&r.lag_ticks));
    }
    layer.insert("runtime.evictions", r.stats.evictions as f64);
    layer.insert("runtime.revivals", r.stats.revivals as f64);
    layer.insert("runtime.live_keys_end", r.stats.live_keys as f64);
    layer.insert("runtime.conservation_balance", r.stats.conservation_balance() as f64);
    layer.insert("obs.scrape_ms", r.scrape_ms);
}
