//! Observability substrate for the TiLT reproduction.
//!
//! Everything above this crate — the runtime's `SharedStats`, the core
//! compiler's kernel profiles, the bench harness reports — needs the same
//! three primitives: lock-free scalar metrics, cheap latency/lag
//! histograms, and a bounded journal of control-plane transitions. This
//! crate provides exactly those, dependency-free, so any layer of the
//! stack can report through it without import cycles:
//!
//! * [`Counter`] / [`Gauge`] — relaxed atomics with the small API the
//!   runtime actually uses (including [`Gauge::sub_clamped`], which
//!   refuses to go negative and reports the deficit instead of
//!   propagating an accounting bug as a bogus negative reading).
//! * [`Histogram`] — 65 log2 buckets covering the full `u64` range, one
//!   `fetch_add` per recording, with p50/p95/p99/max readout on
//!   snapshot. Bucket `i` holds values in `[2^(i-1), 2^i - 1]` (bucket 0
//!   holds zeros), so recording costs a `leading_zeros` and two relaxed
//!   atomic adds — cheap enough for per-event paths.
//! * [`Registry`] — a named bag of the above. Metrics are registered
//!   once (idempotently, keyed on name + labels) and handed out as
//!   `Arc`s; hot paths touch only their own `Arc`'d atomics and never
//!   the registry lock. [`Registry::snapshot`] freezes every metric into
//!   a [`MetricsSnapshot`] that renders as Prometheus text exposition
//!   ([`MetricsSnapshot::to_prometheus`]) or a JSON value
//!   ([`MetricsSnapshot::to_json`]).
//! * [`Journal`] — a bounded ring buffer of timestamped, sequence-
//!   numbered events with drop accounting (see [`journal`]).
//! * [`Profiler`] — the zero-cost-when-disabled hook the compiler's
//!   kernels implement: one relaxed `bool` load decides whether a code
//!   path pays for timing at all.
//!
//! The [`json`] module (a dependency-free JSON value) lives here so that
//! the metrics exposition and the `benchmark/` ladder's reports speak the
//! same format.

pub mod journal;
pub mod json;

pub use journal::{Journal, JournalSnapshot, Stamped};
pub use json::Json;

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

// ── Scalar instruments ─────────────────────────────────────────────────

/// A monotonically increasing `u64` counter. All operations are relaxed:
/// counters are statistics, not synchronization.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge: a level, not a rate. Supports the usual add/sub/set
/// plus two runtime-specific operations: a monotonic [`Gauge::set_max`]
/// (watermarks and frontiers only move forward) and a clamped
/// [`Gauge::sub_clamped`] that refuses to push the level negative.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh zero gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Adds `n` to the level.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the level (no clamping — use
    /// [`Gauge::sub_clamped`] where a negative level would be a bug).
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level to `v` if it is currently below it.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Subtracts up to `n`, clamping the level at zero. Returns the
    /// *deficit* — how much of `n` could not be subtracted. A non-zero
    /// deficit means an accounting imbalance (more removed than was ever
    /// added); callers surface it instead of letting the gauge go
    /// negative and corrupting every later reading.
    pub fn sub_clamped(&self, n: i64) -> i64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (cur - n).max(0);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return n - (cur - next),
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ── Histogram ──────────────────────────────────────────────────────────

/// Number of log2 buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i − 1]`, bucket 64 tops out at `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The bucket index for a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The largest value bucket `i` can hold.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log2-bucketed histogram of `u64` samples. One recording
/// costs two relaxed `fetch_add`s and one `fetch_max`; readout happens
/// only at snapshot time.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Freezes the current contents. Concurrent recorders may land
    /// between bucket reads; the snapshot is a consistent-enough
    /// statistical view, not a linearizable one.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain, single-owner accumulator for paths that record per event:
/// buffering a sample is one local array increment (no atomics), and
/// [`LocalHistogram::flush_into`] drains the batch into a shared
/// [`Histogram`] with one atomic add per *occupied* bucket. Snapshot
/// readers see buffered samples only after a flush, so staleness is
/// bounded by the flush cadence — statistics-grade, like the snapshots
/// themselves.
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
    max: u64,
    count: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram::new()
    }
}

impl LocalHistogram {
    /// A fresh empty accumulator.
    pub fn new() -> LocalHistogram {
        LocalHistogram { buckets: [0; HISTOGRAM_BUCKETS], sum: 0, max: 0, count: 0 }
    }

    /// Buffers one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.count += 1;
    }

    /// Number of samples buffered since the last flush.
    pub fn buffered(&self) -> u64 {
        self.count
    }

    /// Drains every buffered sample into `h` and resets. A no-op when
    /// nothing was buffered.
    pub fn flush_into(&mut self, h: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (i, c) in self.buckets.iter_mut().enumerate() {
            if *c > 0 {
                h.buckets[i].fetch_add(*c, Ordering::Relaxed);
                *c = 0;
            }
        }
        h.sum.fetch_add(self.sum, Ordering::Relaxed);
        h.max.fetch_max(self.max, Ordering::Relaxed);
        self.sum = 0;
        self.max = 0;
        self.count = 0;
    }
}

/// A frozen [`Histogram`]: bucket counts plus sum and max, with quantile
/// readout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (`HISTOGRAM_BUCKETS` entries).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a bucket upper bound, clamped
    /// to the recorded max so `p50 ≤ p99 ≤ max` always holds. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// How many distinct buckets hold at least one sample — a quick
    /// degeneracy check (a real latency distribution spans several).
    pub fn nonzero_buckets(&self) -> usize {
        self.buckets.iter().filter(|&&c| c > 0).count()
    }
}

// ── Profiler hook ──────────────────────────────────────────────────────

/// The zero-cost-when-disabled profiling hook. Implementors gate
/// [`Profiler::record`] behind [`Profiler::enabled`], which must be a
/// single relaxed load so that disabled profiling costs one predictable
/// branch on the hot path.
pub trait Profiler {
    /// Whether timing should be collected at all. Callers check this
    /// *before* reading the clock.
    fn enabled(&self) -> bool;

    /// Records one timed invocation of `nanos` wall nanoseconds.
    fn record(&self, nanos: u64);
}

// ── Registry ───────────────────────────────────────────────────────────

/// One label pair, e.g. `("shard", "0")`.
pub type Label = (String, String);

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct MetricEntry {
    name: String,
    labels: Vec<Label>,
    instrument: Instrument,
}

/// A named collection of metrics. Registration is idempotent on
/// (name, labels) and returns an `Arc` to the shared instrument; the
/// internal lock is touched only at registration and snapshot time,
/// never by recording.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<Vec<MetricEntry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T, F: FnOnce() -> Arc<T>>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: F,
        as_instr: fn(Arc<T>) -> Instrument,
        from_instr: fn(&Instrument) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let labels: Vec<Label> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        {
            let entries = self.entries.read().expect("registry lock poisoned");
            for e in entries.iter() {
                if e.name == name && e.labels == labels {
                    return from_instr(&e.instrument)
                        .unwrap_or_else(|| panic!("metric {name} re-registered as another kind"));
                }
            }
        }
        let mut entries = self.entries.write().expect("registry lock poisoned");
        // Re-check under the write lock: another thread may have won.
        for e in entries.iter() {
            if e.name == name && e.labels == labels {
                return from_instr(&e.instrument)
                    .unwrap_or_else(|| panic!("metric {name} re-registered as another kind"));
            }
        }
        let arc = make();
        entries.push(MetricEntry {
            name: name.to_string(),
            labels,
            instrument: as_instr(Arc::clone(&arc)),
        });
        arc
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Registers (or retrieves) a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            labels,
            || Arc::new(Counter::new()),
            Instrument::Counter,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Registers (or retrieves) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            labels,
            || Arc::new(Gauge::new()),
            Instrument::Gauge,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Registers (or retrieves) a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            labels,
            || Arc::new(Histogram::new()),
            Instrument::Histogram,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Freezes every registered metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.read().expect("registry lock poisoned");
        let mut samples: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => SampleValue::Counter(c.get()),
                    Instrument::Gauge(g) => SampleValue::Gauge(g.get()),
                    Instrument::Histogram(h) => SampleValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        // Stable exposition order: by name, then labels.
        samples.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.labels.cmp(&b.labels)));
        MetricsSnapshot { samples }
    }
}

/// One frozen metric reading.
#[derive(Clone, Debug)]
pub struct MetricSample {
    /// Metric name, e.g. `tilt_events_in_total`.
    pub name: String,
    /// Label pairs, e.g. `[("shard", "0")]`.
    pub labels: Vec<Label>,
    /// The reading.
    pub value: SampleValue,
}

/// The value of a [`MetricSample`].
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A frozen histogram.
    Histogram(HistogramSnapshot),
}

/// A frozen view of a whole [`Registry`], renderable as Prometheus text
/// exposition or JSON.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// All readings, sorted by (name, labels).
    pub samples: Vec<MetricSample>,
}

fn label_suffix(labels: &[Label], extra: Option<(&str, String)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{v}\""));
        first = false;
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("{k}=\"{v}\""));
    }
    out.push('}');
    out
}

impl MetricsSnapshot {
    /// Finds a sample by name and labels.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && s.labels.len() == labels.len()
                && s.labels.iter().zip(labels).all(|((k, v), (lk, lv))| k == lk && v == lv)
        })
    }

    /// Sums every counter sample sharing `name` (across label sets).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                SampleValue::Counter(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Sums every gauge sample sharing `name` (across label sets).
    pub fn gauge_total(&self, name: &str) -> i64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                SampleValue::Gauge(v) => Some(*v),
                _ => None,
            })
            .sum()
    }

    /// Renders Prometheus text exposition (one `# TYPE` line per metric
    /// name, cumulative `_bucket{le=…}` series for histograms).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for s in &self.samples {
            let kind = match &s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            if last_name != Some(s.name.as_str()) {
                out.push_str(&format!("# TYPE {} {kind}\n", s.name));
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, label_suffix(&s.labels, None)));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("{}{} {v}\n", s.name, label_suffix(&s.labels, None)));
                }
                SampleValue::Histogram(h) => {
                    // Cumulative buckets up to the last occupied one,
                    // then the mandatory +Inf series.
                    let top = h.buckets.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
                    let mut cum = 0u64;
                    for (i, &c) in h.buckets.iter().enumerate().take(top) {
                        cum += c;
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            s.name,
                            label_suffix(&s.labels, Some(("le", bucket_upper(i).to_string()))),
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        s.name,
                        label_suffix(&s.labels, Some(("le", "+Inf".to_string()))),
                        h.count(),
                    ));
                    let base = label_suffix(&s.labels, None);
                    out.push_str(&format!("{}_sum{base} {}\n", s.name, h.sum));
                    out.push_str(&format!("{}_count{base} {}\n", s.name, h.count()));
                }
            }
        }
        out
    }

    /// Renders the snapshot as a JSON value with three top-level
    /// objects: `counters`, `gauges`, and `histograms`, each keyed by
    /// `name{labels}`. Histogram entries carry `count`, `sum`, `max`,
    /// `p50`/`p95`/`p99`, `mean`, and a `buckets` array of
    /// `[upper_bound, count]` pairs for the occupied buckets — the shape
    /// `tests/observability_properties.rs` audits for sanity.
    pub fn to_json(&self) -> Json {
        let mut counters = std::collections::BTreeMap::new();
        let mut gauges = std::collections::BTreeMap::new();
        let mut histograms = std::collections::BTreeMap::new();
        for s in &self.samples {
            let key = format!("{}{}", s.name, label_suffix(&s.labels, None));
            match &s.value {
                SampleValue::Counter(v) => {
                    counters.insert(key, Json::from(*v));
                }
                SampleValue::Gauge(v) => {
                    gauges.insert(key, Json::from(*v));
                }
                SampleValue::Histogram(h) => {
                    let buckets: Vec<Json> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| Json::Arr(vec![Json::from(bucket_upper(i)), Json::from(c)]))
                        .collect();
                    histograms.insert(
                        key,
                        Json::obj([
                            ("count", h.count().into()),
                            ("sum", h.sum.into()),
                            ("max", h.max.into()),
                            ("p50", h.p50().into()),
                            ("p95", h.p95().into()),
                            ("p99", h.p99().into()),
                            ("mean", h.mean().into()),
                            ("buckets", Json::Arr(buckets)),
                        ]),
                    );
                }
            }
        }
        Json::Obj(
            [
                ("counters".to_string(), Json::Obj(counters)),
                ("gauges".to_string(), Json::Obj(gauges)),
                ("histograms".to_string(), Json::Obj(histograms)),
            ]
            .into_iter()
            .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set_max(5); // below: no-op
        assert_eq!(g.get(), 7);
        g.set_max(12);
        assert_eq!(g.get(), 12);
        g.set(2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn gauge_sub_clamped_reports_deficit() {
        let g = Gauge::new();
        g.add(5);
        assert_eq!(g.sub_clamped(3), 0);
        assert_eq!(g.get(), 2);
        // Over-subtraction clamps at zero and surfaces the imbalance.
        assert_eq!(g.sub_clamped(7), 5);
        assert_eq!(g.get(), 0);
        assert_eq!(g.sub_clamped(1), 1);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10);
        assert_eq!(s.sum, 1126);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the zero
        assert_eq!(s.buckets[1], 2); // the ones
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 2); // 4, 7
        assert_eq!(s.buckets[4], 1); // 8
        assert!(s.nonzero_buckets() >= 5);
        assert!(s.p50() <= s.p95());
        assert!(s.p95() <= s.p99());
        assert!(s.p99() <= s.max);
        // count == sum of buckets is definitional here; sanity anyway.
        assert_eq!(s.count(), s.buckets.iter().sum::<u64>());
    }

    #[test]
    fn quantile_clamps_to_recorded_max() {
        // All samples identical: the bucket upper bound (7) exceeds the
        // recorded max (5); the quantile must clamp.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(5);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 5);
        assert_eq!(s.p99(), 5);
        assert_eq!(s.max, 5);
        // Empty histogram: all zeros.
        let empty = Histogram::new().snapshot();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.p99(), 0);
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn extreme_values_land_in_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50(), u64::MAX);
    }

    #[test]
    fn registry_is_idempotent_and_snapshots_sorted() {
        let r = Registry::new();
        let a = r.counter("tilt_events_in_total");
        let b = r.counter("tilt_events_in_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), 7, "same name must alias the same counter");

        let s0 = r.gauge_with("tilt_queue_depth", &[("shard", "0")]);
        let s1 = r.gauge_with("tilt_queue_depth", &[("shard", "1")]);
        s0.set(5);
        s1.set(9);
        let h = r.histogram_with("tilt_ingest_lag_ticks", &[("shard", "0")]);
        h.record(3);

        let snap = r.snapshot();
        assert_eq!(snap.counter_total("tilt_events_in_total"), 7);
        assert_eq!(snap.gauge_total("tilt_queue_depth"), 14);
        assert!(snap.find("tilt_queue_depth", &[("shard", "1")]).is_some());
        assert!(snap.find("tilt_queue_depth", &[("shard", "7")]).is_none());
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "exposition order must be stable");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let r = Registry::new();
        r.counter("tilt_events_in_total").add(12);
        r.gauge_with("tilt_queue_depth", &[("shard", "0")]).set(-2);
        let h = r.histogram("tilt_advance_ns");
        h.record(1);
        h.record(3);
        h.record(700);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE tilt_events_in_total counter"));
        assert!(text.contains("tilt_events_in_total 12"));
        assert!(text.contains("tilt_queue_depth{shard=\"0\"} -2"));
        assert!(text.contains("# TYPE tilt_advance_ns histogram"));
        assert!(text.contains("tilt_advance_ns_bucket{le=\"1\"} 1"));
        assert!(text.contains("tilt_advance_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("tilt_advance_ns_sum 704"));
        assert!(text.contains("tilt_advance_ns_count 3"));
        // Cumulative series never decreases.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("tilt_advance_ns_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket series must be cumulative: {text}");
            last = v;
        }
    }

    #[test]
    fn json_exposition_shape() {
        let r = Registry::new();
        r.counter_with("tilt_emitted_total", &[("query", "0")]).add(9);
        r.gauge("tilt_live_keys").set(4);
        let h = r.histogram_with("tilt_ingest_lag_ticks", &[("shard", "0")]);
        for v in [1u64, 2, 64, 64, 900] {
            h.record(v);
        }
        let j = r.snapshot().to_json();
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("tilt_emitted_total{query=\"0\"}"))
                .and_then(Json::as_i64),
            Some(9)
        );
        assert_eq!(
            j.get("gauges").and_then(|g| g.get("tilt_live_keys")).and_then(Json::as_i64),
            Some(4)
        );
        let hist = j
            .get("histograms")
            .and_then(|h| h.get("tilt_ingest_lag_ticks{shard=\"0\"}"))
            .expect("histogram present");
        assert_eq!(hist.get("count").and_then(Json::as_i64), Some(5));
        let bucket_total: i64 = hist
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|pair| pair.as_arr().unwrap()[1].as_i64().unwrap())
            .sum();
        assert_eq!(bucket_total, 5, "count must equal the sum of bucket counts");
        let p50 = hist.get("p50").and_then(Json::as_i64).unwrap();
        let p99 = hist.get("p99").and_then(Json::as_i64).unwrap();
        let max = hist.get("max").and_then(Json::as_i64).unwrap();
        assert!(p50 <= p99 && p99 <= max);
        // Round-trips through the parser (how a report is read back).
        assert_eq!(json::parse(&j.to_string()).unwrap(), j);
    }
}
