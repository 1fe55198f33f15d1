//! `apps_oneshot` — the eight applications of Fig. 7b.
//!
//! Trading, RSI, Normalize, Impute, Resample, PanTom, Vibration and FraudDet
//! over 1M events each, `run_parallel` on `nproc` threads, rounds
//! interleaved across the apps. They use `core.exec` differently from YSB —
//! float sliding reduces, joins, shifts, chop and custom reduces instead of
//! an integer filter and a tumbling count — so a kernel change tuned on YSB
//! that slows another operator mix shows here.
//!
//! Throughput is the geometric mean of the eight apps' rates. A *result* is
//! one app's complete output and its latency the duration of that run: the
//! typical latency reported is the geometric mean of the per-app medians, the
//! tail the slowest app's median.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tilt_core::{CompiledQuery, Compiler};
use tilt_data::{streams_close, Event, SnapshotBuf, Time, TimeRange, Value};
use tilt_obs::json::Json;
use tilt_workloads::{all_apps, App};

use crate::harness::{measure_setup, mev_s, peak_rss_mb, Ctx, Latency, Outcome};
use crate::probes::{self, Layer};
use crate::stats::{geomean, median, Summary};
use crate::trace::{lane_pair, Trace};

/// Large enough that every buffer is far bigger than the allocator's mmap
/// threshold and the caches: at half this size throughput swung by a tenth
/// and peak memory by a sixth from run to run.
const EVENTS_PER_APP: usize = 1_000_000;
/// Partition length handed to `run_parallel`, in ticks (as `fig7b_apps`).
const INTERVAL: i64 = 50_000;
const REFERENCE_PREFIX: usize = 20_000;
const TRILL_EVENTS_PER_APP: usize = 200_000;
const MIN_ROUNDS: usize = 3;

/// The per-app rows, in `all_apps()` order.
pub const APP_METRICS: [&str; 8] = [
    "app_trading_mev_s",
    "app_rsi_mev_s",
    "app_normalize_mev_s",
    "app_impute_mev_s",
    "app_resample_mev_s",
    "app_pantom_mev_s",
    "app_vibration_mev_s",
    "app_frauddet_mev_s",
];

struct Prepared {
    app: App,
    cq: CompiledQuery,
    events: Vec<Event<Value>>,
    buf: SnapshotBuf<Value>,
    range: TimeRange,
}

fn prepare(n: usize, seed: u64) -> Vec<Prepared> {
    all_apps()
        .into_iter()
        .enumerate()
        .map(|(i, app)| {
            let events = (app.dataset)(n, seed.wrapping_mul(8).wrapping_add(i as u64));
            let q = tilt_query::lower(&app.plan, app.output).expect("app lowers");
            let cq = Compiler::new().compile(&q).expect("app compiles");
            let hi = events.iter().map(|e| e.end).max().unwrap_or(Time::ZERO);
            // Aligned to the kernel grid so partition seams fall on it.
            let range = TimeRange::new(Time::ZERO, hi.align_up(cq.grid().max(1)));
            let buf = SnapshotBuf::from_events(&events, range);
            Prepared { app, cq, events, buf, range }
        })
        .collect()
}

/// The compiled query against the reference evaluator on a prefix.
fn matches_reference(p: &Prepared, prefix_len: usize) -> bool {
    let prefix = &p.events[..p.events.len().min(prefix_len)];
    let hi = prefix.iter().map(|e| e.end).max().unwrap_or(Time::ZERO);
    let range = TimeRange::new(Time::ZERO, hi);
    let expected = tilt_query::reference::evaluate(
        &p.app.plan,
        p.app.output,
        std::slice::from_ref(&prefix.to_vec()),
        range,
    );
    let got = p.cq.run(&[&SnapshotBuf::from_events(prefix, range)], range).to_events();
    streams_close(&expected, &got, 1e-6)
}

/// Ties the compiled query to the oracle (reference evaluator on a prefix)
/// and the timed, parallel path to the compiled query (serial run on the
/// full input), per app. The oracle is quadratic, so the eight checks share
/// `threads` workers.
fn verify(apps: &[Prepared], prefix_len: usize, threads: usize) -> Vec<bool> {
    let next = AtomicUsize::new(0);
    let mut sound = vec![false; apps.len()];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut verdicts = Vec::new();
                    while let Some((i, p)) = {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        apps.get(i).map(|p| (i, p))
                    } {
                        let serial = p.cq.run(&[&p.buf], p.range).to_events();
                        let parallel = p.cq.run_parallel(&[&p.buf], p.range, 2, INTERVAL);
                        verdicts.push((
                            i,
                            matches_reference(p, prefix_len)
                                && streams_close(&serial, &parallel.to_events(), 1e-6),
                        ));
                    }
                    verdicts
                })
            })
            .collect();
        for w in workers {
            for (i, ok) in w.join().expect("oracle worker panicked") {
                sound[i] = ok;
            }
        }
    });
    sound
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.size(EVENTS_PER_APP);
    let threads = ctx.nproc;
    let (apps, setup) = measure_setup(|| prepare(n, ctx.seed));

    let (mut quiet_lane, mut loud_lane) = lane_pair(ctx.traced);

    let mut out_spans: Vec<Option<usize>> = vec![None; apps.len()];

    let mut per_app_plain: Vec<Vec<f64>> = vec![Vec::new(); apps.len()];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut unsteady = vec![false; apps.len()];
    let mut traced_ns = vec![0u64; apps.len()];
    let started = Instant::now();
    let mut rounds = 0usize;
    while ctx.more_rounds(started, rounds, MIN_ROUNDS) {
        let trace_this = ctx.traced && rounds % 2 == 1;
        let lane = if trace_this { &mut loud_lane } else { &mut quiet_lane };
        lane.set_round(rounds as u32);
        let mut rates = Vec::with_capacity(apps.len());
        for (i, p) in apps.iter().enumerate() {
            let t0 = Instant::now();
            let out = lane.span("core.exec.run_parallel", i as u32, |_| {
                p.cq.run_parallel(&[&p.buf], p.range, threads, INTERVAL)
            });
            let ns = t0.elapsed().as_nanos() as u64;
            unsteady[i] |= *out_spans[i].get_or_insert(out.len()) != out.len();
            rates.push(mev_s(n, ns as f64 / 1e9));
            if trace_this {
                traced_ns[i] += ns;
            } else {
                per_app_plain[i].push(mev_s(n, ns as f64 / 1e9));
            }
        }
        if trace_this { &mut traced } else { &mut plain }.push(geomean(&rates));
        rounds += 1;
    }

    let peak_rss_mb = peak_rss_mb();
    let throughput = Summary::of(&plain);

    // After the timed rounds, so the checker's memory is not in the peak.
    // An app that fails either check, or whose output size changed between
    // rounds, fails all its events.
    let sound = verify(&apps, ctx.size(REFERENCE_PREFIX), threads);
    let attempted = (rounds * apps.len() * n) as u64;
    let bad_apps = sound.iter().zip(&unsteady).filter(|(ok, shaky)| !**ok || **shaky).count();
    let failed = (rounds * bad_apps * n) as u64;
    let checks = vec![
        ("apps_oneshot.reference_prefix_and_parallel_equals_serial", sound.iter().all(|ok| *ok)),
        ("apps_oneshot.output_size_same_every_round", !unsteady.iter().any(|shaky| *shaky)),
    ];
    // A result is one app's complete output. With eight kinds of result a
    // pooled percentile lands on the gap between two apps and flips between
    // them from run to run, so each app's time is its median over the
    // rounds: the typical latency is their geometric mean (as throughput is
    // of the rates), the tail is the slowest app's — the 7/8 point of the mix.
    let per_app_ms: Vec<f64> =
        per_app_plain.iter().map(|rates| n as f64 / median(rates) / 1e3).collect();
    let slowest = per_app_ms.iter().copied().fold(0.0, f64::max);
    let latency = Latency {
        p50_ms: Summary::single(geomean(&per_app_ms)),
        tail_ms: Summary::single(slowest),
        tail_q: 1.0 - 1.0 / apps.len() as f64,
        samples: plain.len() * apps.len(),
    };
    let mut layer = Layer::new();
    let mut trace = None;
    if ctx.traced {
        layer.insert("trace.overhead_frac", 1.0 - median(&traced) / throughput.median);
        for (name, rates) in APP_METRICS.iter().zip(&per_app_plain) {
            layer.insert(name, median(rates));
        }
        let traced_events = (traced.len() * n * apps.len()) as f64;
        layer.insert(
            "core.exec.run_ns_per_event",
            traced_ns.iter().sum::<u64>() as f64 / traced_events,
        );
        layer.insert(
            "core.codegen.fallback_ops",
            apps.iter().map(|p| p.cq.fallback_ops()).sum::<u64>() as f64 / rounds as f64,
        );

        // Buffer construction and extraction, once per app.
        let t0 = Instant::now();
        for (i, p) in apps.iter().enumerate() {
            std::hint::black_box(loud_lane.span("data.from_events", i as u32, |_| {
                SnapshotBuf::from_events(&p.events, p.range)
            }));
        }
        layer.insert(
            "data.from_events_ns_per_event",
            t0.elapsed().as_nanos() as f64 / (n * apps.len()) as f64,
        );
        let outs: Vec<_> = apps.iter().map(|p| p.cq.run(&[&p.buf], p.range)).collect();
        let t0 = Instant::now();
        for (i, out) in outs.iter().enumerate() {
            std::hint::black_box(loud_lane.span("data.to_events", i as u32, |_| out.to_events()));
        }
        let spans: usize = outs.iter().map(SnapshotBuf::len).sum();
        layer.insert("data.to_events_ns_per_span", t0.elapsed().as_nanos() as f64 / spans as f64);
        drop(outs);

        let plans: Vec<_> = apps.iter().map(|p| (p.app.plan.clone(), p.app.output)).collect();
        probes::compile_pipeline(&mut loud_lane, &plans, &mut layer);

        // Trill on the same plans: one operator graph per partition, so it
        // gets `nproc` independent partitions per app.
        let m = ctx.size(TRILL_EVENTS_PER_APP);
        let per = (m / threads).max(1);
        let trill: Vec<f64> = apps
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let parts: Vec<Vec<Event<Value>>> = (0..threads)
                    .map(|k| (p.app.dataset)(per, ctx.seed + 100 * (i as u64 + 1) + k as u64))
                    .collect();
                let t0 = Instant::now();
                let out = loud_lane.span("baseline.trill.run_partitioned", i as u32, |_| {
                    spe_trill::run_partitioned(&p.app.plan, p.app.output, &parts, 65_536, threads)
                });
                std::hint::black_box(out.len());
                mev_s(per * threads, t0.elapsed().as_secs_f64())
            })
            .collect();
        layer.insert("baseline.trill_apps_geomean_mev_s", geomean(&trill));
        layer.insert("ladder.apps_tilt_over_trill", throughput.median / geomean(&trill));

        trace = Some(Trace::merge(vec![loud_lane]));
    }

    Outcome {
        throughput,
        latency,
        setup,
        peak_rss_mb,
        layer,
        attempted,
        failed,
        checks,
        sizes: Json::obj([
            ("events_per_app", n.into()),
            ("apps", apps.len().into()),
            ("partition_ticks", INTERVAL.into()),
            ("worker_threads", threads.into()),
            ("rounds", rounds.into()),
        ]),
        trace,
    }
}
