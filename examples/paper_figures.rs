//! The paper figures the `benchmark/` ladder does not reproduce, one per
//! run, printed as a table beside the paper's reading:
//!
//! * `fig7a` — throughput of the primitive operations (Select, Where,
//!   WSum, Join) on every engine that supports them;
//! * `fig9` — latency-bounded throughput: TiLT vs Trill on the eight
//!   applications as the batch shrinks from 1 M events to 10;
//! * `fig10` — operator fusion on the trend query, normalized to
//!   un-optimized Trill;
//! * `ablation` — TiLT's parallel throughput against the partition
//!   interval size (the knob of §6.2 / Fig. 6).
//!
//! ```sh
//! cargo run --release --example paper_figures -- fig7a
//! cargo run --release --example paper_figures -- fig10 --quick
//! ```
//!
//! `--quick` runs a tenth of the events once instead of best-of-3. Table 1,
//! Figs. 7b and 8 and the service rungs are the ladder's workloads
//! (`bash benchmark/run.sh`).

use std::time::Instant;

use tilt_core::ir::{DataType, Expr};
use tilt_core::Compiler;
use tilt_data::{SnapshotBuf, Time, TimeRange};
use tilt_query::{elem, lhs, rhs, Agg, LogicalPlan, NodeId};
use tilt_workloads::ops::{self, PrimitiveOp};
use tilt_workloads::{all_apps, gen};

/// Events and repetitions for one figure.
struct Cfg {
    events: usize,
    runs: usize,
    threads: usize,
    quick: bool,
}

/// Million events per second over `events`, best of `runs` calls of `f`.
fn best_meps(events: usize, runs: usize, mut f: impl FnMut() -> usize) -> f64 {
    (0..runs.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            events as f64 / t0.elapsed().as_secs_f64() / 1e6
        })
        .fold(0.0, f64::max)
}

fn meps(x: f64) -> String {
    match x {
        x if x >= 100.0 => format!("{x:.0}"),
        x if x >= 10.0 => format!("{x:.1}"),
        x => format!("{x:.2}"),
    }
}

fn print_table(title: &str, note: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==\n   {note}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("  {}", padded.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

fn main() {
    let mut figure = None;
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            name if figure.is_none() && !name.starts_with('-') => figure = Some(arg),
            _ => figure = Some(String::new()),
        }
    }
    let (events, run): (usize, fn(&Cfg)) = match figure.as_deref() {
        Some("fig7a") => (2_000_000, fig7a),
        Some("fig9") => (200_000, fig9),
        Some("fig10") => (500_000, fig10),
        Some("ablation") => (1_000_000, ablation),
        _ => {
            eprintln!("usage: paper_figures <fig7a|fig9|fig10|ablation> [--quick]");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    run(&if quick {
        Cfg { events: (events / 10).max(10_000), runs: 1, threads, quick }
    } else {
        Cfg { events, runs: 3, threads, quick }
    });
}

/// Fig. 7a. Paper (16 threads, 160 M events): TiLT ≈ baselines on
/// Select/Where; on WSum TiLT beats Trill 6.64×, StreamBox 18.3×, Grizzly
/// 7.44×, LightSaber 1.87×; on Join Trill 13.87× and StreamBox 321.94×
/// (LightSaber and Grizzly have no Join).
fn fig7a(cfg: &Cfg) {
    let interval = 50_000i64;
    let mut rows = Vec::new();
    for op in PrimitiveOp::ALL {
        let inputs = ops::datasets(op, cfg.events, 1);
        let range = ops::range_for(&inputs);
        let total: usize = inputs.iter().map(|v| v.len()).sum();
        let tilt =
            best_meps(total, cfg.runs, || ops::run_tilt(op, &inputs, range, cfg.threads, interval));
        let trill = best_meps(total, cfg.runs, || ops::run_trill(op, &inputs, 65_536));
        // StreamBox's O(n²) join cannot finish the full set: measure it at
        // 1/100 scale (marked in the table).
        let sb_scale = if op == PrimitiveOp::Join { 100 } else { 1 };
        let sb_inputs = ops::datasets(op, cfg.events / sb_scale, 1);
        let sb_total: usize = sb_inputs.iter().map(|v| v.len()).sum();
        let streambox =
            best_meps(sb_total, cfg.runs, || ops::run_streambox(op, &sb_inputs, 65_536));
        let lightsaber = ops::run_lightsaber(op, &inputs, range, cfg.threads).map(|_| {
            best_meps(total, cfg.runs, || {
                ops::run_lightsaber(op, &inputs, range, cfg.threads).unwrap_or(0)
            })
        });
        let grizzly = ops::run_grizzly(op, &inputs, range, cfg.threads).map(|_| {
            best_meps(total, cfg.runs, || {
                ops::run_grizzly(op, &inputs, range, cfg.threads).unwrap_or(0)
            })
        });
        rows.push(vec![
            op.name().to_string(),
            meps(tilt),
            meps(trill),
            meps(streambox) + if sb_scale > 1 { "*" } else { "" },
            lightsaber.map_or("n/a".into(), meps),
            grizzly.map_or("n/a".into(), meps),
        ]);
    }
    print_table(
        "Fig. 7a — primitive temporal operations (million events/sec)",
        &format!(
            "{} events, {} threads; * = StreamBox Join measured at 1/100 scale (O(n²))",
            cfg.events, cfg.threads
        ),
        &["op", "TiLT", "Trill", "StreamBox", "LightSaber", "Grizzly"],
        &rows,
    );
}

/// Fig. 9. Paper: TiLT holds its throughput from 1 M events per batch down
/// to 10, while Trill slows 18–227× at small batches (per-batch,
/// per-operator overhead dominates).
fn fig9(cfg: &Cfg) {
    let batch_sizes: &[usize] = if cfg.quick {
        &[10, 1_000, 100_000]
    } else {
        &[10, 100, 1_000, 10_000, 100_000, 1_000_000]
    };
    let mut rows = Vec::new();
    for app in all_apps() {
        let events = (app.dataset)(cfg.events, 1);
        let q = tilt_query::lower(&app.plan, app.output).expect("app lowers");
        let cq = Compiler::new().compile(&q).expect("app compiles");
        for &batch in batch_sizes {
            let batch = batch.min(events.len());
            // TiLT: a streaming session fed one batch at a time.
            let tilt = best_meps(events.len(), 1, || {
                let mut session = cq.stream_session(Time::ZERO);
                let mut out = 0usize;
                let mut last = Time::ZERO;
                for chunk in events.chunks(batch) {
                    session.push_events(0, chunk);
                    last = chunk.last().expect("non-empty chunk").end;
                    if last > session.watermark() {
                        out += session.advance_to(last).len();
                    }
                }
                out + session.flush_to(last.max(session.watermark() + 1)).len()
            });
            // Trill: the same batches through its operator graph.
            let trill = best_meps(events.len(), 1, || {
                let mut engine = spe_trill::TrillEngine::new(&app.plan, app.output);
                let src = app.plan.sources()[0];
                for chunk in events.chunks(batch) {
                    engine.push_batch(src, chunk);
                }
                engine.finish().len()
            });
            rows.push(vec![app.name.to_string(), batch.to_string(), meps(tilt), meps(trill)]);
        }
    }
    print_table(
        "Fig. 9 — latency-bounded throughput (million events/sec)",
        &format!(
            "{} events/app, single worker; paper: Trill degrades 18-227x at small batches",
            cfg.events
        ),
        &["app", "batch", "TiLT", "Trill"],
        &rows,
    );
}

/// The trend query of Fig. 2: two sliding averages joined and filtered.
/// `fused_selects` folds the divisions into the join — Fig. 2b, the only
/// fusion an event-centric optimizer can do across the pipeline breakers.
fn trend_plan(fused_selects: bool) -> (LogicalPlan, NodeId) {
    let mut plan = LogicalPlan::new();
    let stock = plan.source("stock", DataType::Float);
    let sum10 = plan.window(stock, 10, 1, Agg::Sum);
    let sum20 = plan.window(stock, 20, 1, Agg::Sum);
    let diff = if fused_selects {
        plan.join(sum10, sum20, lhs().div(Expr::c(10.0)).sub(rhs().div(Expr::c(20.0))))
    } else {
        let avg10 = plan.select(sum10, elem().div(Expr::c(10.0)));
        let avg20 = plan.select(sum20, elem().div(Expr::c(20.0)));
        plan.join(avg10, avg20, lhs().sub(rhs()))
    };
    let up = plan.where_(diff, elem().gt(Expr::c(0.0)));
    (plan, up)
}

/// Fig. 10. Paper: Trill-Opt 1.06× (graph-level fusion barely helps),
/// TiLT-UnOpt 2.61× (compiled per-operator kernels), TiLT-Opt 8.55×
/// (fusion across the breakers).
fn fig10(cfg: &Cfg) {
    let events = gen::stock_walk(cfg.events, 1);
    let range = TimeRange::new(Time::ZERO, Time::new(cfg.events as i64));
    let buf = SnapshotBuf::from_events(&events, range);
    let trill = |(plan, out): (LogicalPlan, NodeId)| {
        best_meps(events.len(), cfg.runs, || {
            spe_trill::run_single(&plan, out, &events, 65_536).len()
        })
    };
    let (plan, out) = trend_plan(false);
    let q = tilt_query::lower(&plan, out).expect("trend lowers");
    let tilt = |compiler: Compiler| {
        let cq = compiler.compile(&q).expect("trend compiles");
        (cq.num_kernels(), best_meps(events.len(), cfg.runs, || cq.run(&[&buf], range).len()))
    };
    let trill_unopt = trill(trend_plan(false));
    let trill_opt = trill(trend_plan(true));
    let (k_unopt, tilt_unopt) = tilt(Compiler::unoptimized());
    let (k_opt, tilt_opt) = tilt(Compiler::new());
    let row = |name: String, x: f64, paper: &str| {
        vec![name, meps(x), format!("{:.2}x", x / trill_unopt.max(1e-9)), paper.to_string()]
    };
    print_table(
        "Fig. 10 — operator-fusion ablation on the trend query (single thread)",
        &format!("{} events; speedups normalized to un-optimized Trill", cfg.events),
        &["configuration", "Mev/s", "speedup", "paper"],
        &[
            row("Trill UnOpt".into(), trill_unopt, "1.00x"),
            row("Trill Opt".into(), trill_opt, "1.06x"),
            row(format!("TiLT UnOpt ({k_unopt} kernels)"), tilt_unopt, "2.61x"),
            row(format!("TiLT Opt ({k_opt} kernel)"), tilt_opt, "8.55x"),
        ],
    );
}

/// Partition interval size (§6.2): small intervals give the scheduler
/// more slots but duplicate a larger share of lookback per partition (the
/// shaded regions of Fig. 6); large ones amortize the lookback but starve
/// the workers.
fn ablation(cfg: &Cfg) {
    let mut rows = Vec::new();
    for app in all_apps().into_iter().filter(|a| matches!(a.name, "Trading" | "FraudDet")) {
        let events = (app.dataset)(cfg.events, 1);
        let q = tilt_query::lower(&app.plan, app.output).expect("app lowers");
        let cq = Compiler::new().compile(&q).expect("app compiles");
        let lookback = cq.boundary().max_input_lookback(cq.query());
        let hi = events.iter().map(|e| e.end).max().unwrap_or(Time::ZERO);
        let range = TimeRange::new(Time::ZERO, hi.align_up(cq.grid()));
        let buf = SnapshotBuf::from_events(&events, range);
        for interval in [100i64, 1_000, 10_000, 100_000, 1_000_000] {
            let t = best_meps(events.len(), cfg.runs, || {
                cq.run_parallel(&[&buf], range, cfg.threads, interval).len()
            });
            rows.push(vec![
                app.name.to_string(),
                interval.to_string(),
                format!("{:.1}%", 100.0 * lookback as f64 / interval as f64),
                meps(t),
            ]);
        }
    }
    print_table(
        "Ablation — partition interval size vs throughput (TiLT, Fig. 6 knob)",
        &format!(
            "{} events, {} threads; overhead = duplicated lookback / interval",
            cfg.events, cfg.threads
        ),
        &["app", "interval", "dup. overhead", "Mev/s"],
        &rows,
    );
}
