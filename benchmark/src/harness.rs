//! What every workload shares: the run context, the outcome it hands back,
//! and the measurement helpers (repeated set-up, peak memory).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use tilt_obs::json::Json;

use crate::stats::Summary;
use crate::trace::Trace;

/// How often a run repeats its set-up to report a median set-up time.
pub const SETUPS: usize = 5;

/// One invocation's parameters.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long the timed rounds run, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the plain one
    /// (end-to-end metrics).
    pub traced: bool,
    /// Harness self-test: sizes ÷ 20. Not a measurement.
    pub smoke: bool,
    /// Hardware threads; sizes the worker pools, shards and connections.
    pub nproc: usize,
    /// Where traces, results and checkpoint scratch files go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// An input size, shrunk for `--smoke`.
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Shard threads for the service workloads: one core is left to the load
    /// generator, which is part of the same process.
    pub fn shards(&self) -> usize {
        self.nproc.saturating_sub(1).max(1)
    }

    /// Whether the timed region should go on: `seconds` not yet used up, or
    /// fewer rounds than the statistics need.
    pub fn more_rounds(&self, started: Instant, done: usize, min_rounds: usize) -> bool {
        done < min_rounds || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Result latency: per-round percentiles, reduced to their medians over the
/// rounds. A pooled percentile would let one noisy second of a shared
/// machine set the tail of the whole run; the median of the rounds' tails is
/// the tail of a typical round, which is what a change to the program moves.
#[derive(Clone, Copy, Debug)]
pub struct Latency {
    /// Per-round medians, milliseconds.
    pub p50_ms: Summary,
    /// Per-round p95 — or the highest percentile a round's sample supports —
    /// milliseconds.
    pub tail_ms: Summary,
    /// Which percentile `tail_ms` is (the lowest any round used).
    pub tail_q: f64,
    /// Samples over all rounds.
    pub samples: usize,
}

/// Collects each round's latency samples.
#[derive(Debug, Default)]
pub struct LatencyRounds {
    p50_ms: Vec<f64>,
    tail_ms: Vec<f64>,
    tail_q: f64,
    samples: usize,
}

impl LatencyRounds {
    /// An empty collection.
    pub fn new() -> LatencyRounds {
        LatencyRounds { tail_q: 1.0, ..LatencyRounds::default() }
    }

    /// Adds one round's nanosecond samples (a round without results adds
    /// nothing).
    pub fn push(&mut self, mut samples_ns: Vec<u64>) {
        if samples_ns.is_empty() {
            return;
        }
        let (p50, tail, q) = crate::stats::latency_ms(&mut samples_ns);
        self.p50_ms.push(p50);
        self.tail_ms.push(tail);
        self.tail_q = self.tail_q.min(q);
        self.samples += samples_ns.len();
    }

    /// The medians over the rounds.
    ///
    /// # Panics
    ///
    /// Panics when no round had a result.
    pub fn finish(&self) -> Latency {
        Latency {
            p50_ms: Summary::of(&self.p50_ms),
            tail_ms: Summary::of(&self.tail_ms),
            tail_q: self.tail_q,
            samples: self.samples,
        }
    }
}

/// What a workload reports.
#[derive(Debug)]
pub struct Outcome {
    /// Million input events per wall second, one sample per untraced round.
    pub throughput: Summary,
    /// Result latency over the plain rounds.
    pub latency: Latency,
    /// Set-up time, one sample per repeated set-up.
    pub setup: Summary,
    /// Peak resident set size when the timed rounds ended — before the
    /// benchmark's own verification passes and probes, whose memory is not
    /// the system's.
    pub peak_rss_mb: f64,
    /// Per-layer metrics by name (traced runs only; absent names read 0).
    pub layer: BTreeMap<&'static str, f64>,
    /// Input events handed to the system under test in timed rounds.
    pub attempted: u64,
    /// Of those, events dropped, refused, or in results that were missing or
    /// wrong.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    /// Sizes and counts that define the run, for `results.json`.
    pub sizes: Json,
    /// The spans of the traced rounds.
    pub trace: Option<Trace>,
}

/// Runs `build` [`SETUPS`] times, timing each, and keeps the last product.
/// The previous product is dropped before the next build so peak memory is
/// one set-up's, not three.
pub fn measure_setup<T>(mut build: impl FnMut() -> T) -> (T, Summary) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut product = None;
    for _ in 0..SETUPS {
        drop(product.take());
        let t0 = Instant::now();
        product = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (product.expect("SETUPS >= 1"), Summary::of(&secs))
}

/// Million events per second.
pub fn mev_s(events: usize, secs: f64) -> f64 {
    events as f64 / secs / 1e6
}

/// Peak resident set size of this process so far in MB (`VmHWM`); `NaN`
/// where `/proc` does not say, which fails the run.
pub fn peak_rss_mb() -> f64 {
    let read = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        line.split_whitespace().nth(1)?.parse::<f64>().ok()
    };
    read().map_or(f64::NAN, |kb| kb / 1024.0)
}
