//! `ysb_oneshot` — the paper's Table 1 path.
//!
//! YSB (Where → tumbling Count) over 8M events and 1000 campaigns: every
//! round builds a snapshot buffer per campaign partition and runs the
//! compiled query over it, on `nproc` synchronization-free workers. `data`
//! (`SnapshotBuf::from_events`) and `core.exec` (`CompiledQuery::run`) do all
//! the work; `runtime`, `state` and `server` do none.
//!
//! A *result* here is one partition's output; its latency runs from handing
//! the partition's events to `from_events` until `run` returns.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::time::Instant;

use tilt_core::{CompiledQuery, Compiler, ExecTier};
use tilt_data::{Event, SnapshotBuf, Time, TimeRange, Value};
use tilt_obs::json::Json;
use tilt_workloads::ysb;

use crate::harness::{measure_setup, mev_s, peak_rss_mb, Ctx, LatencyRounds, Outcome};
use crate::probes::{self, Layer};
use crate::stats::{median, Summary};
use crate::trace::{Lane, Trace, Tracer};
use crate::ysb_input::{YsbInput, CAMPAIGNS};

const EVENTS: usize = 8_000_000;
const WINDOW: i64 = 100_000;
const MIN_ROUNDS: usize = 5;

struct Setup {
    input: YsbInput,
    partitions: Vec<Vec<Event<Value>>>,
    range: TimeRange,
}

/// One pass over `partitions` on `threads` workers. Returns the wall
/// seconds, the summed views, and one latency sample per partition.
pub(crate) fn round(
    cq: &CompiledQuery,
    partitions: &[Vec<Event<Value>>],
    range: TimeRange,
    threads: usize,
    lanes: &mut [Lane],
) -> (f64, i64, Vec<u64>) {
    let next = AtomicUsize::new(0);
    let views = AtomicI64::new(0);
    let t0 = Instant::now();
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .take(threads)
            .map(|lane| {
                let (next, views) = (&next, &views);
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(partitions.len());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(part) = partitions.get(i) else { break };
                        let t = Instant::now();
                        let buf = lane.span("data.from_events", i as u32, |_| {
                            SnapshotBuf::from_events(part, range)
                        });
                        let out = lane.span("core.exec.run", i as u32, |_| cq.run(&[&buf], range));
                        lat.push(t.elapsed().as_nanos() as u64);
                        // Raw spans, one per window: `to_events` would merge
                        // adjacent windows with equal counts.
                        let sum: i64 = out.spans().iter().filter_map(|s| s.value.as_i64()).sum();
                        views.fetch_add(sum, Ordering::Relaxed);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("partition worker panicked")).collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    (secs, views.load(Ordering::Relaxed), latencies.into_iter().flatten().collect())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let n = ctx.size(EVENTS);
    let window = ctx.size(WINDOW as usize) as i64;
    let threads = ctx.nproc;
    let ((s, cq), setup) = measure_setup(|| {
        let input = YsbInput::generate(n, window, ctx.seed, None);
        let partitions = ysb::partition(&input.events, CAMPAIGNS);
        let range = TimeRange::new(Time::ZERO, input.end);
        (Setup { input, partitions, range }, crate::ysb_input::compile(window))
    });

    let quiet = Tracer::new(false);
    let loud = Tracer::new(ctx.traced);
    let mut quiet_lanes: Vec<Lane> = (0..threads).map(|w| quiet.lane(w as u16, 0)).collect();
    let mut traced_lanes: Vec<Lane> = Vec::new();
    let mut main_lane = loud.lane(u16::MAX, 4096);

    let (mut plain, mut traced, mut latencies) = (Vec::new(), Vec::new(), LatencyRounds::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    let mut rounds = 0usize;
    while ctx.more_rounds(started, rounds, MIN_ROUNDS) {
        // In a traced run every other round records spans; the rest stay
        // plain so the two throughputs are interleaved, not back to back.
        let trace_this = ctx.traced && rounds % 2 == 1;
        let (secs, views, lat) = if trace_this {
            // The round span on this thread causes the partition spans on
            // the workers; its self time is what the pool itself costs.
            main_lane.set_round(rounds as u32);
            main_lane.span("ysb_oneshot.round", rounds as u32, |main| {
                let base = traced_lanes.len();
                for w in 0..threads {
                    let mut lane = loud.lane((base + w) as u16, 2 * CAMPAIGNS);
                    lane.set_round(rounds as u32);
                    lane.adopt(main.current());
                    traced_lanes.push(lane);
                }
                round(&cq, &s.partitions, s.range, threads, &mut traced_lanes[base..])
            })
        } else {
            round(&cq, &s.partitions, s.range, threads, &mut quiet_lanes)
        };
        attempted += n as u64;
        if views != s.input.total_views {
            failed += n as u64;
        }
        if trace_this {
            traced.push(mev_s(n, secs));
        } else {
            plain.push(mev_s(n, secs));
            latencies.push(lat);
        }
        rounds += 1;
    }

    let peak_rss_mb = peak_rss_mb();
    let throughput = Summary::of(&plain);
    let mut checks = vec![("ysb_oneshot.views_match_generated_input", failed == 0)];
    let mut layer = Layer::new();
    let mut trace = None;
    if ctx.traced {
        let traced_events = (traced.len() * n) as f64;
        layer.insert("trace.overhead_frac", 1.0 - median(&traced) / throughput.median);

        // One worker instead of `nproc`.
        let one: Vec<f64> = (0..2)
            .map(|_| mev_s(n, round(&cq, &s.partitions, s.range, 1, &mut quiet_lanes).0))
            .collect();
        layer.insert("core.exec.threads1_mev_s", median(&one));
        layer.insert("core.exec.scaling_nproc_over_1", throughput.median / median(&one));

        // The other two execution tiers, on a quarter of the partitions.
        let quarter = &s.partitions[..CAMPAIGNS / 4];
        let quarter_events: usize = quarter.iter().map(Vec::len).sum();
        let (plan, out) = ysb::plan(window);
        let q = tilt_query::lower(&plan, out).expect("YSB lowers");
        for (name, tier) in [
            ("core.exec.pertick_mev_s", ExecTier::Compiled),
            ("core.exec.interp_mev_s", ExecTier::Interpreted),
        ] {
            let tiered = Compiler::new().with_tier(tier).compile(&q).expect("YSB compiles");
            let (secs, _, _) = round(&tiered, quarter, s.range, threads, &mut quiet_lanes);
            layer.insert(name, mev_s(quarter_events, secs));
        }

        // The four baseline engines on the same events, and their verdict
        // on the view count.
        let (events, range) = (&s.input.events, s.range);
        let mut agree = true;
        let mut engine = |name: &'static str, reps: usize, f: &dyn Fn() -> i64| {
            let rates: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    agree &= f() == s.input.total_views;
                    mev_s(n, t0.elapsed().as_secs_f64())
                })
                .collect();
            layer.insert(name, median(&rates));
            median(&rates)
        };
        engine("baseline.trill_mev_s", 1, &|| {
            ysb::run_trill(&s.partitions, 65_536, threads, range, window)
        });
        engine("baseline.streambox_mev_s", 1, &|| {
            ysb::run_streambox(&s.partitions, 65_536, range, window)
        });
        let lightsaber = engine("baseline.lightsaber_mev_s", 3, &|| {
            ysb::run_lightsaber(events, range, threads, window)
        });
        let grizzly = engine("baseline.grizzly_mev_s", 3, &|| {
            ysb::run_grizzly(events, CAMPAIGNS, range, threads, window)
        });
        layer.insert("ladder.tilt_over_lightsaber", throughput.median / lightsaber);
        layer.insert("ladder.tilt_over_grizzly", throughput.median / grizzly);
        checks.push(("ysb_oneshot.every_engine_agrees", agree));

        // `to_events` on real outputs.
        let outs: Vec<SnapshotBuf<Value>> = s.partitions[..100]
            .iter()
            .map(|p| cq.run(&[&SnapshotBuf::from_events(p, s.range)], s.range))
            .collect();
        let spans: usize = outs.iter().map(SnapshotBuf::len).sum();
        let t0 = Instant::now();
        for (i, out) in outs.iter().enumerate() {
            std::hint::black_box(main_lane.span("data.to_events", i as u32, |_| out.to_events()));
        }
        layer.insert("data.to_events_ns_per_span", t0.elapsed().as_nanos() as f64 / spans as f64);

        probes::compile_pipeline(&mut main_lane, &[ysb::plan(window)], &mut layer);
        layer.insert("core.codegen.fallback_ops", cq.fallback_ops() as f64 / rounds as f64);

        traced_lanes.push(main_lane);
        let merged = Trace::merge(traced_lanes);
        let totals = merged.totals();
        for (metric, span) in [
            ("data.from_events_ns_per_event", "data.from_events"),
            ("core.exec.run_ns_per_event", "core.exec.run"),
        ] {
            layer.insert(metric, totals[span].self_ns as f64 / traced_events);
        }
        trace = Some(merged);
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
            ("worker_threads", threads.into()),
            ("rounds", rounds.into()),
        ]),
        trace,
    }
}
