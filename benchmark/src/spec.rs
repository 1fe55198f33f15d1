//! Names, units and directions of every metric, in the order
//! `BENCHMARK.json` lists them. The unit test holds the two together.

/// One metric's fixed attributes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as keyed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: true, bound: None }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: None }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_mev_s", "Mev/s", true, 0.15),
    e2e("latency_p50_ms", "ms", false, 0.15),
    e2e("latency_p95_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

/// Single layers, from the traced run. A workload whose traced run does not
/// enter a layer (or host its probe) reports that layer's metrics as 0.
pub const PER_LAYER: [MetricDef; 74] = [
    // The per-application rows of `apps_oneshot`.
    up("app_trading_mev_s", "Mev/s"),
    up("app_rsi_mev_s", "Mev/s"),
    up("app_normalize_mev_s", "Mev/s"),
    up("app_impute_mev_s", "Mev/s"),
    up("app_resample_mev_s", "Mev/s"),
    up("app_pantom_mev_s", "Mev/s"),
    up("app_vibration_mev_s", "Mev/s"),
    up("app_frauddet_mev_s", "Mev/s"),
    // data
    down("data.from_events_ns_per_event", "ns/event"),
    down("data.to_events_ns_per_span", "ns/span"),
    // query
    down("query.lower_us", "us"),
    // core.opt
    down("core.opt.optimize_us", "us"),
    up("core.opt.kernels_fused", "count"),
    // core.codegen
    down("core.codegen.compile_us", "us"),
    down("core.codegen.kernels", "count"),
    up("core.codegen.batched_kernels", "count"),
    down("core.codegen.fallback_ops", "count"),
    // core.exec
    down("core.exec.run_ns_per_event", "ns/event"),
    up("core.exec.threads1_mev_s", "Mev/s"),
    up("core.exec.scaling_nproc_over_1", "ratio"),
    up("core.exec.pertick_mev_s", "Mev/s"),
    up("core.exec.interp_mev_s", "Mev/s"),
    down("core.exec.session_push_ns_per_event", "ns/event"),
    down("core.exec.session_advance_ns_per_event", "ns/event"),
    up("core.exec.session_mev_s", "Mev/s"),
    down("core.exec.session_advance_us_p95", "us"),
    // runtime
    down("runtime.ingest_call_ns_per_event", "ns/event"),
    down("runtime.ingest_pressure_frac", "frac"),
    down("runtime.drain_ms", "ms"),
    down("runtime.kernel_busy_frac", "frac"),
    down("runtime.kernels_run", "count"),
    up("runtime.events_per_kernel_run", "events"),
    down("runtime.reorder_buffered", "count"),
    down("runtime.late_dropped", "count"),
    down("runtime.sink_calls", "count"),
    up("runtime.events_per_sink_call", "events"),
    down("runtime.queue_depth_max", "events"),
    down("runtime.watermark_lag_ticks_p50", "ticks"),
    down("runtime.paced_latency_p50_ms", "ms"),
    down("runtime.paced_latency_p95_ms", "ms"),
    down("runtime.evictions", "count"),
    down("runtime.revivals", "count"),
    down("runtime.live_keys_end", "count"),
    down("runtime.conservation_balance", "count"),
    // state
    down("state.checkpoint_ms", "ms"),
    down("state.checkpoint_bytes", "bytes"),
    down("state.restore_ms", "ms"),
    down("state.bytes_per_key", "bytes/key"),
    // server
    down("server.encode_ns_per_event", "ns/event"),
    down("server.decode_ns_per_event", "ns/event"),
    down("server.bytes_in_per_event", "bytes/event"),
    down("server.bytes_out_per_output_event", "bytes/event"),
    down("server.client_ingest_ns_per_event", "ns/event"),
    down("server.ingest_frames", "count"),
    down("server.busy_replies", "count"),
    down("server.credit_stalls", "count"),
    down("server.decode_errors", "count"),
    down("server.wire_hop_p50_ms", "ms"),
    // obs
    up("obs.metrics_on_over_off", "ratio"),
    down("obs.scrape_ms", "ms"),
    // gen: the load generator itself
    down("gen.late_send_p95_ms", "ms"),
    down("gen.late_batches_frac", "frac"),
    // baseline: the reference bar, not a layer
    up("baseline.trill_mev_s", "Mev/s"),
    up("baseline.streambox_mev_s", "Mev/s"),
    up("baseline.lightsaber_mev_s", "Mev/s"),
    up("baseline.grizzly_mev_s", "Mev/s"),
    up("baseline.trill_apps_geomean_mev_s", "Mev/s"),
    // ladder: rung-to-rung ratios
    up("ladder.tilt_over_lightsaber", "ratio"),
    up("ladder.tilt_over_grizzly", "ratio"),
    up("ladder.apps_tilt_over_trill", "ratio"),
    up("ladder.session_over_oneshot", "ratio"),
    up("ladder.service_over_session", "ratio"),
    up("ladder.wire_over_service", "ratio"),
    // trace
    down("trace.overhead_frac", "frac"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{UNGATED, WORKLOADS};
    use tilt_obs::json::{parse, Json};

    fn legal(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// Every name and unit is within the benchmark contract's alphabet, is
    /// used once, and `BENCHMARK.json` lists exactly these metrics with the
    /// same units, directions and bounds, and every workload but the
    /// ungated ones.
    #[test]
    fn metric_tables_and_benchmark_json_agree() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = parse(&text).expect("BENCHMARK.json parses");
        let mut seen = std::collections::BTreeSet::new();

        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = json.get(key).and_then(Json::as_arr).expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{key}: count");
            for (entry, def) in listed.iter().zip(defs) {
                assert!(legal(def.name, "_.-", 64), "name {}", def.name);
                assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(legal(def.unit, "_/%.-", 16), "unit {}", def.unit);
                assert!(seen.insert(def.name), "{} is used twice", def.name);
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                let better = if def.higher_is_better { "higher" } else { "lower" };
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    def.name
                );
                assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
                assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let workloads = json.get("workloads").and_then(Json::as_arr).expect("workloads");
        let names: Vec<_> =
            workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        let gated: Vec<_> =
            WORKLOADS.iter().map(|(name, _)| *name).filter(|n| !UNGATED.contains(n)).collect();
        assert_eq!(names, gated);
        for name in names {
            assert!(legal(name, "_.-", 64) && seen.insert(name), "workload {name}");
        }
    }
}
