//! Per-kernel hot-loop throughput: interpreted vs per-tick typed vs
//! batched typed tier.
//!
//! Four plans probe the three-tier execution model:
//!
//! * `pointwise` — a fully fused numeric map/filter scoring chain (pure
//!   per-tick scalar evaluation, where enum interpretation hurts most and
//!   batching amortizes the remaining dispatch);
//! * `window_sum` — the map/filter/window-sum shape: the scoring chain
//!   fused into a strided trailing window sum (4-tick panes, the YSB
//!   shape) plus a dense per-event combine over the aggregate — typed
//!   bytecode, typed window maps, and unboxed accumulators together;
//! * `str_fallback` — a `Str`-driven filter, pinning that fallback
//!   subtrees stay correct *and visible* in the fallback counters (and
//!   are rejected by the batch gate);
//! * `sparse_sliding` — an every-tick sliding sum of 64 ticks over one
//!   point event per ~200: each event holds the window for 64 output
//!   lanes while nothing enters or leaves it, the shape of a sparse keyed
//!   stream. The batched tier slides where an event enters and where it
//!   leaves and copies the lanes between (`slides_per_event`).
//!
//! Tier measurements interleave round by round so shared-runner frequency
//! drift cannot bias the ratios. Throughput is machine-dependent and only
//! reported; the **machine-independent invariants** — all three tiers
//! byte-identical, fallback counters zero for the fully numeric plans,
//! nonzero (with `fully_typed == false`) for the `Str` plan, window maps
//! executed at most once per accumulated element (`map_run_rate`), and a
//! window slid only where something enters or leaves it (`slides ≤
//! 2·events + runs` on `sparse_sliding`) — go into the `--json` report and
//! are re-checked by the `guardrail` binary in CI.

use tilt_bench::json::Json;
use tilt_bench::{best_throughput, fmt_meps, fmt_ratio, print_table, write_json_report, RunCfg};
use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
use tilt_core::{CompiledQuery, Compiler, ExecTier};
use tilt_data::{Event, SnapshotBuf, Time, TimeRange, Value};

/// A fused numeric map/filter scoring chain (the normalization/clamping
/// math of the paper's signal-processing applications: ~45 scalar ops per
/// tick after fusion collapses it into one kernel).
fn pointwise_plan() -> Query {
    use tilt_core::ir::BinOp;
    let mut b = Query::builder();
    let x = b.input("x", DataType::Float);
    let scaled = b.temporal(
        "scaled",
        TDom::every_tick(),
        Expr::at(x).mul(Expr::c(1.0001)).add(Expr::c(0.5)),
    );
    let wrapped = b.temporal(
        "wrapped",
        TDom::every_tick(),
        Expr::if_else(
            Expr::at(scaled).gt(Expr::c(1.5)),
            Expr::at(scaled).sub(Expr::c(1.5)),
            Expr::at(scaled),
        ),
    );
    let poly = b.temporal(
        "poly",
        TDom::every_tick(),
        Expr::at(wrapped)
            .mul(Expr::at(wrapped))
            .mul(Expr::c(0.5))
            .add(Expr::at(wrapped).mul(Expr::c(0.25)))
            .add(Expr::c(0.125)),
    );
    let energy =
        b.temporal("energy", TDom::every_tick(), Expr::at(poly).abs().add(Expr::c(1.0)).sqrt());
    let clamped = b.temporal(
        "clamped",
        TDom::every_tick(),
        Expr::at(energy)
            .sub(Expr::c(0.3))
            .mul(Expr::c(2.5))
            .bin(BinOp::Max, Expr::c(-1.0))
            .bin(BinOp::Min, Expr::c(1.0)),
    );
    let cubic = b.temporal(
        "cubic",
        TDom::every_tick(),
        Expr::at(clamped)
            .mul(Expr::at(clamped))
            .mul(Expr::at(clamped))
            .add(Expr::at(clamped).mul(Expr::c(0.5)))
            .sub(Expr::c(0.25)),
    );
    let blend = b.temporal(
        "blend",
        TDom::every_tick(),
        Expr::at(cubic)
            .mul(Expr::c(0.75))
            .add(Expr::at(cubic).mul(Expr::at(cubic)).mul(Expr::c(0.125)))
            .sub(Expr::at(cubic).abs().mul(Expr::c(0.0625)))
            .add(Expr::c(0.001)),
    );
    let out = b.temporal(
        "score",
        TDom::every_tick(),
        Expr::if_else(
            Expr::at(blend).gt(Expr::c(-0.9)).and(Expr::at(blend).lt(Expr::c(0.9))),
            Expr::at(blend).mul(Expr::c(4.0)).add(Expr::at(blend).mul(Expr::at(blend))),
            Expr::null(),
        ),
    );
    b.finish(out).unwrap()
}

/// The full map/filter/window-sum shape: the per-event scoring chain of
/// [`pointwise_plan`] (materialized once — both the window and the combine
/// consume it), a filter fused into a strided trailing window sum (4-tick
/// panes, the YSB shape), and a dense combine enriching every event with
/// the pane aggregate.
fn window_sum_plan() -> Query {
    use tilt_core::ir::BinOp;
    let mut b = Query::builder();
    let x = b.input("x", DataType::Float);
    let scaled = b.temporal(
        "scaled",
        TDom::every_tick(),
        Expr::at(x).mul(Expr::c(1.0001)).add(Expr::c(0.5)),
    );
    let wrapped = b.temporal(
        "wrapped",
        TDom::every_tick(),
        Expr::if_else(
            Expr::at(scaled).gt(Expr::c(1.5)),
            Expr::at(scaled).sub(Expr::c(1.5)),
            Expr::at(scaled),
        ),
    );
    let poly = b.temporal(
        "poly",
        TDom::every_tick(),
        Expr::at(wrapped)
            .mul(Expr::at(wrapped))
            .mul(Expr::c(0.5))
            .add(Expr::at(wrapped).mul(Expr::c(0.25)))
            .add(Expr::c(0.125)),
    );
    let energy =
        b.temporal("energy", TDom::every_tick(), Expr::at(poly).abs().add(Expr::c(1.0)).sqrt());
    let score = b.temporal(
        "score",
        TDom::every_tick(),
        Expr::at(energy)
            .sub(Expr::c(0.3))
            .mul(Expr::c(2.5))
            .bin(BinOp::Max, Expr::c(-1.0))
            .bin(BinOp::Min, Expr::c(1.0))
            .mul(Expr::at(energy))
            .add(Expr::at(energy).mul(Expr::c(0.125))),
    );
    let hot = b.temporal(
        "hot",
        TDom::every_tick(),
        Expr::if_else(
            Expr::at(score).gt(Expr::c(0.2)).and(Expr::at(score).lt(Expr::c(2.5))),
            Expr::at(score),
            Expr::null(),
        ),
    );
    let wsum = b.temporal("wsum", TDom::unbounded(4), Expr::reduce_window(ReduceOp::Sum, hot, 64));
    let out = b.temporal(
        "out",
        TDom::every_tick(),
        Expr::if_else(
            Expr::at(wsum).is_present(),
            Expr::at(wsum)
                .mul(Expr::c(0.25))
                .add(Expr::at(x).mul(Expr::c(2.0)))
                .sub(Expr::c(1.0))
                .mul(Expr::at(wsum).add(Expr::c(64.0)).sqrt())
                .add(Expr::at(x).abs())
                .sub(Expr::at(x).mul(Expr::at(x)).mul(Expr::c(0.0625)))
                .mul(Expr::at(x).mul(Expr::c(0.5)).add(Expr::c(1.0)))
                .add(Expr::at(x).mul(Expr::at(x)).mul(Expr::at(x)).mul(Expr::c(0.03125)))
                .bin(BinOp::Max, Expr::at(x).neg())
                .bin(BinOp::Min, Expr::at(wsum)),
            Expr::null(),
        ),
    );
    b.finish(out).unwrap()
}

/// A `Str`-driven filter: the typed tier must route the comparison through
/// its boxed fallback registers.
fn str_fallback_plan() -> Query {
    let mut b = Query::builder();
    let s = b.input("s", DataType::Str);
    let flagged = b.temporal(
        "flagged",
        TDom::every_tick(),
        Expr::if_else(Expr::at(s).eq(Expr::c("hot")), Expr::c(1.0), Expr::c(0.0)),
    );
    let smoothed = b.temporal(
        "smoothed",
        TDom::every_tick(),
        Expr::reduce_window(ReduceOp::Mean, flagged, 32),
    );
    b.finish(smoothed).unwrap()
}

/// An every-tick sliding sum over a sparse stream: between the tick an
/// event enters the window and the tick it leaves, 64 output lanes read
/// the same window.
fn sparse_sliding_plan() -> Query {
    let mut b = Query::builder();
    let x = b.input("x", DataType::Float);
    let out = b.temporal("wsum", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, x, 64));
    b.finish(out).unwrap()
}

/// One point event every 150–249 ticks: further apart than the window of
/// [`sparse_sliding_plan`] is wide, so no two ever share it.
fn sparse_float_events(n: usize) -> Vec<Event<Value>> {
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut t = 0i64;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            t += 150 + ((state >> 33) % 100) as i64;
            Event::point(Time::new(t), Value::Float((state >> 40) as f64 / (1u64 << 24) as f64))
        })
        .collect()
}

fn float_events(n: usize) -> Vec<Event<Value>> {
    let mut state = 0x9E3779B97F4A7C15u64;
    (1..=n as i64)
        .map(|t| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = (state >> 33) as f64 / (1u64 << 31) as f64;
            Event::point(Time::new(t), Value::Float(x))
        })
        .collect()
}

fn str_events(n: usize) -> Vec<Event<Value>> {
    let words = ["hot", "cold", "warm", "hot"];
    (1..=n as i64)
        .map(|t| Event::point(Time::new(t), Value::str(words[(t % 4) as usize])))
        .collect()
}

struct PlanResult {
    name: &'static str,
    kernels: usize,
    batched_kernels: usize,
    interp_meps: f64,
    compiled_meps: f64,
    batched_meps: f64,
    /// Per-tick typed output == interpreted output, byte for byte.
    outputs_identical: bool,
    /// Batched output == per-tick typed output, byte for byte.
    batched_identical: bool,
    fallback_ops: u64,
    fully_typed: bool,
    /// Fused window-map executions in one pass over `profiled_events`
    /// events, on the batched tier. The map-once-per-element invariant
    /// keeps `map_runs / events` at most ~1 regardless of window size.
    map_runs: u64,
    /// Grid ticks the batched tier evaluated in that pass, and how many of
    /// them it evaluated by sliding its windows rather than by copying the
    /// lane before (`KernelProfile::{lanes, slides}`, summed over kernels).
    lanes: u64,
    slides: u64,
    /// Per-kernel profiles from one *timed* pass on a fresh compile (the
    /// throughput rounds above run untimed, so the bench numbers never
    /// carry clock-read overhead), plus that pass's event count.
    profile: Vec<tilt_core::KernelProfile>,
    profiled_events: usize,
}

fn run_plan(name: &'static str, q: &Query, events: &[Event<Value>], runs: usize) -> PlanResult {
    let batched = Compiler::new().compile(q).expect("plan compiles (batched)");
    let compiled =
        Compiler::new().with_tier(ExecTier::Compiled).compile(q).expect("plan compiles (typed)");
    let interp = Compiler::interpreted().compile(q).expect("plan compiles (interp)");
    let hi = events.last().expect("non-empty dataset").end;
    let range = TimeRange::new(Time::ZERO, (hi + 8).align_up(batched.grid()));
    let input = SnapshotBuf::from_events(events, range);

    let out_b = batched.run(&[&input], range);
    let out_c = compiled.run(&[&input], range);
    let out_i = interp.run(&[&input], range);
    let outputs_identical = out_c == out_i;
    let batched_identical = out_b == out_c;

    // Interleave the tiers round by round so frequency drift on a shared
    // runner cannot systematically favor whichever tier ran later.
    let one =
        |cq: &CompiledQuery| best_throughput(events.len(), 1, || cq.run(&[&input], range).len());
    let mut interp_meps = 0f64;
    let mut compiled_meps = 0f64;
    let mut batched_meps = 0f64;
    for _ in 0..runs.max(1) {
        interp_meps = interp_meps.max(one(&interp));
        compiled_meps = compiled_meps.max(one(&compiled));
        batched_meps = batched_meps.max(one(&batched));
    }

    // One profiled pass on a fresh compile: counters start at zero, so
    // invocations/nanos/fallback_ops/map_runs describe exactly this pass.
    let profiled = Compiler::new().compile(q).expect("plan compiles (profiled)");
    profiled.set_profiling(true);
    profiled.run(&[&input], range);
    let profile = profiled.kernel_profiles();

    PlanResult {
        name,
        kernels: batched.num_kernels(),
        batched_kernels: batched.batched_kernels(),
        interp_meps,
        compiled_meps,
        batched_meps,
        outputs_identical,
        batched_identical,
        fallback_ops: compiled.fallback_ops() + batched.fallback_ops(),
        fully_typed: batched.fully_typed(),
        map_runs: profiled.map_runs(),
        lanes: profile.iter().map(|k| k.lanes).sum(),
        slides: profile.iter().map(|k| k.slides).sum(),
        profile,
        profiled_events: events.len(),
    }
}

fn main() {
    let cfg = RunCfg::from_args(400_000);
    let floats = float_events(cfg.events);
    let strs = str_events(cfg.events);

    let results = [
        run_plan("pointwise", &pointwise_plan(), &floats, cfg.runs),
        run_plan("window_sum", &window_sum_plan(), &floats, cfg.runs),
        run_plan("str_fallback", &str_fallback_plan(), &strs, cfg.runs),
        run_plan(
            "sparse_sliding",
            &sparse_sliding_plan(),
            &sparse_float_events(cfg.events),
            cfg.runs,
        ),
    ];

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{}/{}", r.batched_kernels, r.kernels),
                fmt_meps(r.interp_meps),
                fmt_meps(r.compiled_meps),
                fmt_meps(r.batched_meps),
                fmt_ratio(r.compiled_meps / r.interp_meps),
                fmt_ratio(r.batched_meps / r.compiled_meps),
                (r.outputs_identical && r.batched_identical).to_string(),
                r.fallback_ops.to_string(),
                r.fully_typed.to_string(),
            ]
        })
        .collect();
    print_table(
        "kernel_hot — interpreter vs per-tick typed vs batched typed (million events/sec)",
        &format!(
            "{} events/plan, single worker; outputs must be byte-identical across all tiers",
            cfg.events
        ),
        &[
            "plan",
            "batched/kernels",
            "interp",
            "per_tick",
            "batched",
            "typed_speedup",
            "batch_speedup",
            "identical",
            "fallback_ops",
            "fully_typed",
        ],
        &rows,
    );

    let plans = Json::Obj(
        results
            .iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    Json::obj([
                        ("kernels", r.kernels.into()),
                        ("batched_kernels", r.batched_kernels.into()),
                        ("interp_meps", r.interp_meps.into()),
                        ("compiled_meps", r.compiled_meps.into()),
                        ("batched_meps", r.batched_meps.into()),
                        ("speedup", (r.compiled_meps / r.interp_meps).into()),
                        ("batched_speedup", (r.batched_meps / r.compiled_meps).into()),
                        ("outputs_identical", r.outputs_identical.into()),
                        ("batched_outputs_identical", r.batched_identical.into()),
                        ("fallback_ops", r.fallback_ops.into()),
                        ("fully_typed", r.fully_typed.into()),
                        ("map_runs", r.map_runs.into()),
                        ("map_run_rate", (r.map_runs as f64 / r.profiled_events as f64).into()),
                        ("lanes", r.lanes.into()),
                        ("slides", r.slides.into()),
                        ("slides_per_event", (r.slides as f64 / r.profiled_events as f64).into()),
                        // What a window slid only at its change points
                        // costs at most: one slide where each event enters,
                        // one where it leaves, one to find each kernel
                        // run's first quiet stretch.
                        (
                            "slides_bound",
                            (2 * r.profiled_events as u64
                                + r.profile.iter().map(|k| k.invocations).sum::<u64>())
                            .into(),
                        ),
                        (
                            "profile",
                            Json::Arr(
                                r.profile
                                    .iter()
                                    .map(|k| {
                                        let per_ev = (k.invocations * r.profiled_events as u64)
                                            .max(1)
                                            as f64;
                                        Json::obj([
                                            ("kernel", k.name.as_str().into()),
                                            ("compiled", k.compiled.into()),
                                            ("batched", k.batched.into()),
                                            ("fully_typed", k.fully_typed.into()),
                                            ("invocations", k.invocations.into()),
                                            ("nanos", k.nanos.into()),
                                            ("ns_per_op", (k.nanos as f64 / per_ev).into()),
                                            (
                                                "fallback_op_rate",
                                                (k.fallback_ops as f64 / per_ev).into(),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let report = Json::obj([
        ("bench", "kernel_hot".into()),
        ("events", cfg.events.into()),
        ("runs", cfg.runs.into()),
        ("plans", plans),
    ]);
    write_json_report(&cfg, &report);
}
