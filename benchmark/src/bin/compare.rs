//! `compare` — judges two sets of results against the bounds in
//! `BENCHMARK.json`.
//!
//! ```text
//! compare PARENT CHANGE [--benchmark BENCHMARK.json]
//! ```
//!
//! `PARENT` and `CHANGE` are each a `results.json` or a directory of them
//! (repeated sets, paired in file-name order). For every workload and
//! end-to-end metric it prints one verdict:
//!
//! * **regressed** — the change's median is worse than the parent's by more
//!   than the metric's bound;
//! * **improved** — at least ten pairs were run, the change wins at least
//!   nine tenths of them (ties counting for neither side), and the medians
//!   differ by more than the distance between the quartiles of the parent's
//!   own runs;
//! * **unresolved** — neither, and the parent's run-to-run spread is wider
//!   than the bound, so "no worse than the bound" cannot be told from noise;
//! * **unchanged** — otherwise.
//!
//! With a single set on a side, the spread is the one between that set's own
//! rounds. It refuses to compare results taken with different `nproc`, seed,
//! run length or sizes, and exits non-zero when anything regressed or is
//! unresolved on a workload `BENCHMARK.json` names. A workload the results
//! hold and `BENCHMARK.json` does not (`ysb_wire_sat`) is judged last, its
//! lines end in `ungated`, and it does not decide the exit code.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tilt_ladder::stats::Summary;
use tilt_obs::json::{parse, Json};

/// Pairs needed before an improvement may be claimed.
const MIN_PAIRS_FOR_A_GAIN: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

struct MetricBound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// One side's values of one metric, one per set, plus the within-run
/// quartile distance of the first set (the fallback spread).
struct Side {
    values: Vec<f64>,
    within_run_spread: f64,
}

fn judge(parent: &Side, change: &Side, m: &MetricBound) -> (Verdict, f64, f64) {
    let (a, b) = (Summary::of(&parent.values), Summary::of(&change.values));
    // Positive = the change is worse, as a share of the parent's median.
    let sign = if m.higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (b.median - a.median) / a.median.abs();
    let spread = if parent.values.len() >= 2 { a.spread() } else { parent.within_run_spread };
    let pairs = parent.values.len().min(change.values.len());
    let (mut wins, mut losses) = (0usize, 0usize);
    for (x, y) in parent.values.iter().zip(&change.values) {
        match (sign * (y - x)).partial_cmp(&0.0) {
            Some(std::cmp::Ordering::Less) => wins += 1,
            Some(std::cmp::Ordering::Greater) => losses += 1,
            _ => {}
        }
    }
    let decided = wins + losses;
    let verdict = if worse > m.bound {
        Verdict::Regressed
    } else if pairs >= MIN_PAIRS_FOR_A_GAIN
        && decided > 0
        && wins * 10 >= decided * 9
        && -worse > spread
    {
        Verdict::Improved
    } else if spread > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse, spread)
}

fn load_sets(path: &Path) -> Result<Vec<Json>, String> {
    let mut files: Vec<PathBuf> = if path.is_dir() {
        std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect()
    } else {
        vec![path.to_owned()]
    };
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no results", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

/// What must be equal for two result sets to be comparable: core count,
/// seed, run length, and every workload's sizes — but not how many rounds
/// fitted into the run, which is an outcome.
fn fingerprint(set: &Json) -> Result<String, String> {
    let env = set.get("env").ok_or("results lack `env`")?;
    let mut out = String::new();
    for key in ["nproc", "seed", "seconds", "smoke"] {
        out.push_str(&format!("{key}={} ", env.get(key).unwrap_or(&Json::Null)));
    }
    let Some(Json::Obj(workloads)) = set.get("workloads") else {
        return Err("results lack `workloads`".into());
    };
    for (name, runs) in workloads {
        let Some(Json::Obj(sizes)) = runs.get("plain").and_then(|r| r.get("sizes")) else {
            return Err(format!("{name}: no plain run"));
        };
        let fixed: BTreeMap<_, _> = sizes.iter().filter(|(k, _)| *k != "rounds").collect();
        out.push_str(&format!("{name}={fixed:?} "));
    }
    Ok(out)
}

fn side(sets: &[Json], workload: &str, metric: &str) -> Result<Side, String> {
    let mut values = Vec::with_capacity(sets.len());
    let mut within_run_spread = 0.0;
    for (i, set) in sets.iter().enumerate() {
        let m = set
            .get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("plain"))
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get(metric))
            .ok_or(format!("{workload} {metric}: missing from a result set"))?;
        let num = |key: &str| m.get(key).and_then(Json::as_f64).ok_or(format!("{metric}.{key}"));
        let value = num("value")?;
        if i == 0 && value != 0.0 {
            within_run_spread = (num("q3")? - num("q1")?) / value.abs();
        }
        values.push(value);
    }
    Ok(Side { values, within_run_spread })
}

fn run(parent: &Path, change: &Path, benchmark: &Path) -> Result<bool, String> {
    let text =
        std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let spec = parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let list = |key: &str| spec.get(key).and_then(Json::as_arr).ok_or(format!("no `{key}`"));
    let text_of = |j: &Json, key: &str| {
        j.get(key).and_then(Json::as_str).map(str::to_owned).ok_or(format!("no `{key}`"))
    };
    let metrics: Vec<MetricBound> = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(MetricBound {
                name: text_of(m, "name")?,
                higher_is_better: text_of(m, "better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64).ok_or("no `bound`")?,
            })
        })
        .collect::<Result<_, String>>()?;
    let workloads: Vec<String> =
        list("workloads")?.iter().map(|w| text_of(w, "name")).collect::<Result<_, _>>()?;

    let (a, b) = (load_sets(parent)?, load_sets(change)?);
    let prints: Vec<String> = a.iter().chain(&b).map(fingerprint).collect::<Result<_, _>>()?;
    if let Some(other) = prints.iter().find(|p| **p != prints[0]) {
        return Err(format!(
            "refusing to compare results taken under different conditions:\n  {}\n  {other}",
            prints[0]
        ));
    }

    // Workloads the result sets hold and `BENCHMARK.json` does not name are
    // judged and printed the same way, but decide nothing: no bound is
    // enforced on them.
    let ungated: Vec<String> = match a[0].get("workloads") {
        Some(Json::Obj(ran)) => ran.keys().filter(|w| !workloads.contains(w)).cloned().collect(),
        _ => Vec::new(),
    };

    println!("{} parent set(s), {} change set(s)", a.len(), b.len());
    let mut clean = true;
    for (workload, gated) in
        workloads.iter().map(|w| (w, true)).chain(ungated.iter().map(|w| (w, false)))
    {
        for m in &metrics {
            let (pa, ch) = (side(&a, workload, &m.name)?, side(&b, workload, &m.name)?);
            let (verdict, worse, spread) = judge(&pa, &ch, m);
            clean &= !gated || matches!(verdict, Verdict::Unchanged | Verdict::Improved);
            println!(
                "{workload} {} {verdict:?} parent={} change={} worse_by={:+.4} spread={:.4} bound={}{}",
                m.name,
                Summary::of(&pa.values).median,
                Summary::of(&ch.values).median,
                worse,
                spread,
                m.bound,
                if gated { "" } else { " ungated" }
            );
        }
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let mut paths = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--benchmark" {
            match args.next() {
                Some(p) => benchmark = PathBuf::from(p),
                None => {
                    eprintln!("compare: --benchmark takes a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = paths.as_slice() else {
        eprintln!("usage: compare PARENT CHANGE [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    match run(parent, change, &benchmark) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool, bound: f64) -> MetricBound {
        MetricBound { name: "m".into(), higher_is_better: higher, bound }
    }

    fn sides(parent: &[f64], change: &[f64]) -> (Side, Side) {
        (
            Side { values: parent.to_vec(), within_run_spread: 0.01 },
            Side { values: change.to_vec(), within_run_spread: 0.01 },
        )
    }

    #[test]
    fn a_median_worse_than_the_bound_is_a_regression_in_either_direction() {
        let (p, c) = sides(&[100.0], &[91.0]);
        assert_eq!(judge(&p, &c, &metric(true, 0.08)).0, Verdict::Regressed);
        assert_eq!(judge(&p, &c, &metric(true, 0.10)).0, Verdict::Unchanged);
        // Lower is better: 91 is an improvement, but one pair claims nothing.
        assert_eq!(judge(&p, &c, &metric(false, 0.08)).0, Verdict::Unchanged);
        let (p, c) = sides(&[100.0], &[109.0]);
        assert_eq!(judge(&p, &c, &metric(false, 0.08)).0, Verdict::Regressed);
    }

    #[test]
    fn a_gain_needs_ten_pairs_nine_wins_and_a_gap_beyond_the_parents_spread() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let better: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let (p, c) = sides(&parent, &better);
        assert_eq!(judge(&p, &c, &metric(true, 0.08)).0, Verdict::Improved);
        // Nine pairs are not enough.
        let (p, c) = sides(&parent[..9], &better[..9]);
        assert_eq!(judge(&p, &c, &metric(true, 0.08)).0, Verdict::Unchanged);
        // Winning 8 of 10 is not enough.
        let mut mixed = better.clone();
        mixed[0] = 90.0;
        mixed[1] = 90.0;
        let (p, c) = sides(&parent, &mixed);
        assert_eq!(judge(&p, &c, &metric(true, 0.08)).0, Verdict::Unchanged);
        // A gap inside the parent's own spread is not a gain.
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * f64::from(i % 2)).collect();
        let slightly: Vec<f64> = noisy.iter().map(|v| v + 1.0).collect();
        let (p, c) = sides(&noisy, &slightly);
        let (verdict, _, spread) = judge(&p, &c, &metric(true, 0.08));
        assert!(spread > 0.08);
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_parent_noisier_than_the_bound_is_unresolved_not_unchanged() {
        let (p, c) = sides(&[100.0, 80.0, 120.0, 95.0], &[101.0, 99.0, 100.0, 100.0]);
        assert_eq!(judge(&p, &c, &metric(true, 0.05)).0, Verdict::Unresolved);
        // One set a side: the spread between its own rounds stands in.
        let p = Side { values: vec![100.0], within_run_spread: 0.2 };
        let c = Side { values: vec![100.0], within_run_spread: 0.2 };
        assert_eq!(judge(&p, &c, &metric(true, 0.05)).0, Verdict::Unresolved);
    }
}
