//! `ladder` — runs the benchmark's workloads.
//!
//! ```text
//! ladder --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ladder                 [--seed N] [--seconds S] [--trace]     [--smoke] [--out DIR]
//! ```
//!
//! With `--workload` it runs that workload in this process, prints every
//! metric as `workload metric value unit …`, writes the result (and, traced,
//! `trace_<workload>.json`) under `--out`, and prints the benchmark
//! contract's JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Without `--workload`
//! it runs every workload in a process of its own — plain, and with
//! `--trace` also traced — and gathers the results into
//! `<out>/results.json`. It exits non-zero when any check fails.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tilt_ladder::harness::Ctx;
use tilt_ladder::report::Report;
use tilt_ladder::workloads::WORKLOADS;
use tilt_obs::json::{parse, Json};

const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} takes {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` as the benchmark driver passes it; a bare
            // `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn env_info(args: &Args, ctx: &Ctx) -> Json {
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("nproc", ctx.nproc.into()),
        ("rustc", var("LADDER_RUSTC").into()),
        ("commit", var("LADDER_COMMIT").into()),
        ("seed", args.seed.into()),
        ("seconds", ctx.seconds.into()),
        ("smoke", args.smoke.into()),
    ])
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("result_{workload}_{}.json", if traced { "traced" } else { "plain" }))
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process.
fn run_one(args: &Args, ctx: &Ctx, workload: &str) -> Result<bool, String> {
    let Some((name, run)) = WORKLOADS.iter().find(|(name, _)| *name == workload) else {
        let known: Vec<_> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown workload {workload}; one of {}", known.join(" ")));
    };
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let outcome = run(ctx);
    let report = Report::new(name, ctx, &outcome);
    print!("{}", report.render_lines(args.smoke));
    if let Some(trace) = &outcome.trace {
        write(&ctx.out_dir.join(format!("trace_{name}.json")), &trace.to_json(name))?;
        println!("{name} trace spans={} dropped={}", trace.spans().len(), trace.dropped);
    }
    write(&result_path(&ctx.out_dir, name, ctx.traced), &report.result_json(ctx))?;
    println!("{}", report.contract_json());
    Ok(report.correct)
}

/// Runs every workload, each in its own process so that peak memory is its
/// own, and gathers `results.json`.
fn run_all(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut all_correct = true;
    let mut gathered = std::collections::BTreeMap::new();
    for (name, _) in WORKLOADS {
        let mut runs = vec![("plain", false)];
        if args.trace {
            runs.push(("traced", true));
        }
        let mut per_run = std::collections::BTreeMap::new();
        for (label, traced) in runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &ctx.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&ctx.out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            // The child prints its own lines; wait for it to end.
            let status = cmd.status().map_err(|e| format!("{name}: {e}"))?;
            all_correct &= status.success();
            let path = result_path(&ctx.out_dir, name, traced);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{name} left no result at {}: {e}", path.display()))?;
            per_run.insert(label.to_owned(), parse(&text).map_err(|e| format!("{name}: {e}"))?);
        }
        gathered.insert(name.to_owned(), Json::Obj(per_run));
    }
    let results = Json::obj([("env", env_info(args, ctx)), ("workloads", Json::Obj(gathered))]);
    let path = ctx.out_dir.join("results.json");
    write(&path, &results)?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ladder: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS }),
        traced: args.trace,
        smoke: args.smoke,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out_dir: args.out.clone(),
    };
    let outcome = match &args.workload {
        Some(workload) => run_one(&args, &ctx, workload),
        None => run_all(&args, &ctx),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ladder: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ladder: {e}");
            ExitCode::from(2)
        }
    }
}
