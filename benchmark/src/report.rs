//! Turning an [`Outcome`] into the printed lines, the contract's last-line
//! JSON object, and the result file.

use std::collections::BTreeMap;

use tilt_obs::json::Json;

use crate::harness::{Ctx, Outcome};
use crate::spec::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Line {
    /// Which metric.
    pub def: MetricDef,
    /// Median, quartiles and sample count.
    pub summary: Summary,
    /// Free-form remark printed after the numbers.
    pub note: String,
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: String,
    /// The metrics of this run: end-to-end for a plain run, per-layer for a
    /// traced one, in `BENCHMARK.json` order.
    pub lines: Vec<Line>,
    /// Input events handed to the system in timed rounds.
    pub attempted: u64,
    /// Events dropped, refused, or in missing or wrong results.
    pub failed: u64,
    /// Whether every check held and nothing failed.
    pub correct: bool,
    /// The named checks.
    pub checks: Vec<(&'static str, bool)>,
    /// Sizes and counts that define the run.
    pub sizes: Json,
}

impl Report {
    /// Builds the report of `outcome`: every end-to-end metric when
    /// `ctx.traced` is off, every per-layer metric when it is on.
    pub fn new(workload: &str, ctx: &Ctx, outcome: &Outcome) -> Report {
        let lines: Vec<Line> = if ctx.traced {
            PER_LAYER
                .iter()
                .map(|def| Line {
                    def: *def,
                    summary: Summary::single(outcome.layer.get(def.name).copied().unwrap_or(0.0)),
                    note: String::new(),
                })
                .collect()
        } else {
            let lat = outcome.latency;
            let values: [(Summary, String); 5] = [
                (outcome.throughput, String::new()),
                (lat.p50_ms, format!("samples={}", lat.samples)),
                (lat.tail_ms, format!("percentile={:.4} samples={}", lat.tail_q, lat.samples)),
                (Summary::single(outcome.peak_rss_mb), "VmHWM".into()),
                (outcome.setup, String::new()),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(def, (summary, note))| Line { def: *def, summary, note })
                .collect()
        };
        let checks_hold = outcome.checks.iter().all(|(_, ok)| *ok);
        let finite = |l: &Line| l.summary.median.is_finite();
        Report {
            workload: workload.to_owned(),
            correct: checks_hold && outcome.failed == 0 && lines.iter().all(finite),
            lines,
            attempted: outcome.attempted.max(1),
            failed: outcome.failed,
            checks: outcome.checks.clone(),
            sizes: outcome.sizes.clone(),
        }
    }

    /// Share of attempted events that failed.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted as f64
    }

    /// The `workload metric value unit …` lines.
    pub fn render_lines(&self, smoke: bool) -> String {
        let mut out = String::new();
        let tag = if smoke { " [smoke: harness self-test, not a measurement]" } else { "" };
        for l in &self.lines {
            let s = l.summary;
            out.push_str(&format!(
                "{} {} {} {} q1={} q3={} n={}{}{}{tag}\n",
                self.workload,
                l.def.name,
                s.median,
                l.def.unit,
                s.q1,
                s.q3,
                s.n,
                if l.note.is_empty() { "" } else { " " },
                l.note,
            ));
        }
        out.push_str(&format!(
            "{} failed_frac {} frac failed={} attempted={}{tag}\n",
            self.workload,
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        for (name, ok) in &self.checks {
            out.push_str(&format!(
                "{} check {name} {}\n",
                self.workload,
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        out
    }

    fn metrics_json(&self, detailed: bool) -> Json {
        let metrics: BTreeMap<String, Json> = self
            .lines
            .iter()
            .map(|l| {
                let mut fields =
                    vec![("value", Json::from(l.summary.median)), ("unit", l.def.unit.into())];
                if detailed {
                    fields.push(("q1", l.summary.q1.into()));
                    fields.push(("q3", l.summary.q3.into()));
                    fields.push(("n", l.summary.n.into()));
                }
                (l.def.name.to_owned(), Json::obj(fields))
            })
            .collect();
        Json::Obj(metrics)
    }

    /// The one JSON object the benchmark contract wants on the last line of
    /// standard output: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", self.metrics_json(false)),
        ])
    }

    /// Everything about the run, for `results.json`.
    pub fn result_json(&self, ctx: &Ctx) -> Json {
        let checks: BTreeMap<String, Json> =
            self.checks.iter().map(|(name, ok)| ((*name).to_owned(), Json::from(*ok))).collect();
        Json::obj([
            ("workload", self.workload.as_str().into()),
            ("traced", ctx.traced.into()),
            ("seed", ctx.seed.into()),
            ("seconds", ctx.seconds.into()),
            ("smoke", ctx.smoke.into()),
            ("nproc", ctx.nproc.into()),
            ("correct", self.correct.into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("failed_frac", self.failed_frac().into()),
            ("checks", Json::Obj(checks)),
            ("sizes", self.sizes.clone()),
            ("metrics", self.metrics_json(true)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Latency;

    fn outcome(traced: bool) -> (Ctx, Outcome) {
        let ctx =
            Ctx { seed: 1, seconds: 1.0, traced, smoke: false, nproc: 2, out_dir: "out".into() };
        let mut layer = BTreeMap::new();
        layer.insert("core.exec.run_ns_per_event", 50.5);
        let outcome = Outcome {
            throughput: Summary::of(&[1.0, 2.0, 3.0]),
            latency: Latency {
                p50_ms: Summary::single(1.5),
                tail_ms: Summary::single(2.5),
                tail_q: 0.9,
                samples: 100,
            },
            setup: Summary::single(0.25),
            peak_rss_mb: 123.5,
            layer,
            attempted: 1000,
            failed: 0,
            checks: vec![("w.check", true)],
            sizes: Json::obj([("events", 1000usize.into())]),
            trace: None,
        };
        (ctx, outcome)
    }

    /// A plain run's last line carries exactly the end-to-end metrics, a
    /// traced run's exactly the per-layer ones — absent layers as 0.
    #[test]
    fn contract_object_carries_exactly_the_listed_metrics() {
        for traced in [false, true] {
            let (ctx, o) = outcome(traced);
            let report = Report::new("w", &ctx, &o);
            assert!(report.correct);
            let json = tilt_obs::json::parse(&report.contract_json().to_string()).unwrap();
            let Json::Obj(top) = &json else { panic!("object") };
            let keys: Vec<_> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let Some(Json::Obj(metrics)) = json.get("metrics") else { panic!("metrics") };
            let want: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), want_sorted);
            for (name, m) in metrics {
                let Json::Obj(fields) = m else { panic!("metric object") };
                assert_eq!(
                    fields.keys().map(String::as_str).collect::<Vec<_>>(),
                    ["unit", "value"]
                );
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
            if traced {
                let v = |n: &str| metrics[n].get("value").and_then(Json::as_f64);
                assert_eq!(v("core.exec.run_ns_per_event"), Some(50.5));
                assert_eq!(v("server.decode_errors"), Some(0.0));
            } else {
                assert_eq!(
                    metrics["throughput_mev_s"].get("value").and_then(Json::as_f64),
                    Some(2.0)
                );
            }
        }
    }

    #[test]
    fn a_failed_check_or_event_makes_the_run_incorrect() {
        let (ctx, mut o) = outcome(false);
        o.failed = 3;
        let r = Report::new("w", &ctx, &o);
        assert!(!r.correct);
        assert!((r.failed_frac() - 0.003).abs() < 1e-12);
        let (ctx, mut o) = outcome(false);
        o.checks.push(("w.other", false));
        let r = Report::new("w", &ctx, &o);
        assert!(!r.correct);
        assert!(r.render_lines(true).contains("w check w.other FAILED"));
        assert!(r.render_lines(true).contains("[smoke"));
    }
}
