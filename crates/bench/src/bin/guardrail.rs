//! CI regression guardrail: re-checks the **machine-independent
//! invariants** in the bench binaries' `--json` reports.
//!
//! Raw throughput depends on the runner (the CI container is 1-core, so
//! shard-scaling ratios are meaningless there); what must *never* regress
//! are the correctness-shaped facts the benches establish:
//!
//! * `runtime_shards`: zero late drops, in-order and with bounded
//!   disorder, at every shard count;
//! * `multi_query`: each event reorder-buffered exactly once for all
//!   registered queries, zero late drops, and a kernel-dedup ratio at
//!   least as good as the query set structurally guarantees (≥ 1/3 for
//!   YSB + tenant copy + factor query);
//! * `hardening`: `evictions == revivals` (> 0) with zero late drops
//!   under skew, both backstop policies holding their cap (drop-and-count
//!   exact, force-drain lossless), exactly one quarantined key with
//!   every healthy key's output intact, and — for the control-plane churn
//!   section — monotone attach frontiers that clear the watermark, every
//!   detach reclaiming sessions, and the surviving query's output
//!   unchanged (identical streams, equal coalesced event counts) under
//!   attach/detach churn — plus, for the observability section, exact
//!   event-accounting conservation, non-degenerate (multi-bucket)
//!   lag/latency histograms, and internally consistent histogram
//!   exports (count == Σ buckets, p50 ≤ p99 ≤ max);
//! * `obs_overhead`: the full metrics layer and the kernel profiler each
//!   cost < 5% throughput against their disabled twins (interleaved
//!   best-of ratios ≥ 0.95);
//! * `kernel_hot`: per-tick, batched, and interpreter outputs
//!   byte-identical on every plan; fallback counters exactly zero (and
//!   `fully_typed`) for the fully numeric plans, visibly nonzero for the
//!   `Str` fallback plan; every fully numeric kernel admitted to the
//!   batched tier (and the `Str` plan kept off it); and the
//!   map-once-per-element invariant — Subtract-on-Evict must re-use
//!   cached mapped values, never re-run the fused map, so `map_run_rate`
//!   (map executions / events) stays ≤ 1 up to warmup slack;
//! * `durability`: the state layer never changes an output event —
//!   restore-after-crash, cold spill, and live rebalancing each produce
//!   per-key streams identical to an undisturbed run; the books resume
//!   across a restore (`events_in` continues, lineage counted), every
//!   spill is matched by exactly one revival with nothing left on disk,
//!   the resident key set stays below the keys seen, and every migration
//!   is counted — all with conservation exact;
//! * `server_loopback`: remote subscribers' per-key output identical to
//!   the in-process run (the wire adds no reordering, loss, or
//!   duplication), exact event conservation and zero decode errors over
//!   TCP, and — for the starved section — shard backpressure visibly
//!   propagated to the remote producer (`Busy` replies and
//!   `credit_stalls` both nonzero).
//!
//! ```sh
//! cargo run --release --bin guardrail -- bench-artifacts/
//! cargo run --release --bin guardrail -- a.json b.json
//! ```
//!
//! Exits non-zero (after printing every violation) if any invariant fails,
//! if a file does not parse, or if no report was checked at all. In
//! directory mode every bench in `EXPECTED_BENCHES` must contribute a
//! recognized report — a missing or unreadable expected artifact is a
//! named failing check, not a silent skip.

use std::path::{Path, PathBuf};

use tilt_bench::json::{parse, Json};

/// Every bench whose artifact the CI lane is expected to produce. In
/// directory mode a missing or unparseable expected artifact is a named
/// failing check — a bench that silently stopped emitting its report
/// must fail the lane, not shrink it.
const EXPECTED_BENCHES: [&str; 8] = [
    "runtime_shards",
    "multi_query",
    "hardening",
    "obs_overhead",
    "kernel_hot",
    "server_loopback",
    "durability",
    "chaos",
];

/// One report's check results.
struct Outcome {
    file: PathBuf,
    bench: String,
    violations: Vec<String>,
    checked: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: guardrail <report.json | directory>...");
        std::process::exit(2);
    }
    let mut files: Vec<PathBuf> = Vec::new();
    let mut directory_mode = false;
    for arg in &args {
        let path = Path::new(arg);
        if path.is_dir() {
            directory_mode = true;
            let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
                .unwrap_or_else(|e| panic!("read directory {arg}: {e}"))
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect();
            entries.sort();
            files.extend(entries);
        } else {
            files.push(path.to_path_buf());
        }
    }
    if files.is_empty() {
        eprintln!("guardrail: no .json reports found under {args:?}");
        std::process::exit(2);
    }

    let mut failed = false;
    let mut total_checks = 0usize;
    let mut seen_benches: Vec<String> = Vec::new();
    for file in files {
        let outcome = check_file(&file);
        total_checks += outcome.checked;
        seen_benches.push(outcome.bench.clone());
        if outcome.violations.is_empty() {
            println!(
                "ok   {} [{}]: {} invariants hold",
                outcome.file.display(),
                outcome.bench,
                outcome.checked
            );
        } else {
            failed = true;
            println!("FAIL {} [{}]:", outcome.file.display(), outcome.bench);
            for v in &outcome.violations {
                println!("     - {v}");
            }
        }
    }
    // Coverage check: when pointed at a directory, every expected bench
    // must have contributed a (parsed, recognized) report. A bench whose
    // artifact went missing or unreadable is a named failure, never a
    // silent skip.
    if directory_mode {
        for expected in EXPECTED_BENCHES {
            let hits = seen_benches.iter().filter(|b| b.as_str() == expected).count();
            if hits == 0 {
                failed = true;
                total_checks += 1;
                println!("FAIL <coverage> [{expected}]:");
                println!("     - expected bench artifact missing from the directory scan");
            }
        }
    }
    if total_checks == 0 {
        eprintln!("guardrail: reports parsed but nothing was checked — unknown bench names?");
        std::process::exit(2);
    }
    if failed {
        std::process::exit(1);
    }
}

fn check_file(file: &Path) -> Outcome {
    let mut outcome = Outcome {
        file: file.to_path_buf(),
        bench: "?".to_string(),
        violations: Vec::new(),
        checked: 0,
    };
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => {
            outcome.violations.push(format!("unreadable: {e}"));
            return outcome;
        }
    };
    let report = match parse(&text) {
        Ok(v) => v,
        Err(e) => {
            outcome.violations.push(format!("invalid JSON: {e}"));
            return outcome;
        }
    };
    let bench = report.get("bench").and_then(Json::as_str).unwrap_or("?").to_string();
    outcome.bench = bench.clone();
    let mut check = Checker { report: &report, outcome: &mut outcome };
    match bench.as_str() {
        "runtime_shards" => {
            check.eq_i64("invariants.late_dropped_inorder", 0);
            check.eq_i64("invariants.late_dropped_ooo", 0);
            check.is_true("invariants.views_match_expected");
        }
        "multi_query" => {
            check.eq_i64("invariants.late_dropped", 0);
            check.fields_equal("invariants.reorder_buffered", "invariants.events_ingested");
            // The YSB + tenant-copy + factor set structurally dedups at
            // least a third of kernel executions; the exact ratio is
            // schedule-independent (saved/run scale together per advance).
            check.ratio_at_least("invariants.kernels_saved", "invariants.kernels_run", 0.5);
        }
        "hardening" => {
            check.fields_equal("eviction.final.evictions", "eviction.final.revivals");
            check.gt_i64("eviction.final.evictions", 0);
            check.eq_i64("eviction.final.late_dropped", 0);
            check.lt_fields("eviction.steady_state.live_keys", "eviction.steady_state.keys_seen");
            check.fields_equal(
                "backstop.drop_newest.backstop_dropped",
                "backstop.drop_newest.expected_dropped",
            );
            check.le_fields("backstop.drop_newest.max_pending_sampled", "backstop.cap");
            check.eq_i64("backstop.force_drain.backstop_dropped", 0);
            check.eq_i64("backstop.force_drain.late_dropped", 0);
            check.gt_i64("backstop.force_drain.backstop_forced", 0);
            check.is_true("backstop.force_drain.lossless_vs_uncapped");
            check.eq_i64("quarantine.keys_quarantined", 1);
            check.le_fields("quarantine.quarantine_dropped_min", "quarantine.quarantine_dropped");
            check.is_true("quarantine.healthy_keys_intact");
            check.fields_equal("churn.attached", "churn.attached_expected");
            check.fields_equal("churn.detached", "churn.detached_expected");
            check.is_true("churn.frontiers_monotone");
            check.is_true("churn.frontiers_above_watermark");
            check.gt_i64("churn.sessions_reclaimed", 0);
            check.is_true("churn.survivor_identical");
            check.fields_equal("churn.survivor_events", "churn.survivor_events_baseline");
            check.eq_i64("churn.late_dropped", 0);
            check.eq_i64("churn.baseline_late_dropped", 0);
            check.eq_i64("observability.conservation.balance", 0);
            check.eq_i64("observability.conservation.reorder_underflow", 0);
            check.eq_i64("observability.conservation.late_dropped", 0);
            // The lag/latency distributions must be genuinely
            // distributional — a single-occupied-bucket histogram means
            // the instrumentation clamped or never ran.
            check.gt_i64("observability.ingest_lag_buckets", 1);
            check.gt_i64("observability.watermark_lag_buckets", 1);
            check.gt_i64("observability.advance_ns_buckets", 1);
            check.histograms_sane("observability.metrics.histograms");
        }
        "server_loopback" => {
            // The wire adds no reordering, loss, or duplication: remote
            // subscribers' streams equal the in-process run exactly, and
            // event accounting conserves over TCP.
            check.is_true("invariants.wire_identical");
            check.fields_equal("invariants.events_in", "invariants.events_sent");
            check.eq_i64("invariants.conservation_balance", 0);
            check.eq_i64("invariants.decode_errors", 0);
            check.gt_i64("invariants.bytes_in", 0);
            check.gt_i64("invariants.bytes_out", 0);
            // Shard backpressure must reach the remote producer: the
            // starved section has to see Busy replies client-side and
            // credit stalls server-side, with conservation still exact.
            check.gt_i64("backpressure.busy_replies", 0);
            check.gt_i64("backpressure.credit_stalls", 0);
            check.eq_i64("backpressure.decode_errors", 0);
            check.eq_i64("backpressure.conservation_balance", 0);
        }
        "durability" => {
            // Wall-clock timings are machine-dependent; what must hold
            // anywhere is the identity story — none of the three durable
            // mechanisms may change a single output event — plus exact
            // accounting across each of them.
            check.is_true("checkpoint.restore_identical");
            check.fields_equal("checkpoint.events_in_resumed", "checkpoint.events_before_crash");
            check.fields_equal("checkpoint.events_in_final", "checkpoint.events_total");
            check.eq_i64("checkpoint.checkpoints", 1);
            check.gt_i64("checkpoint.snapshot_bytes", 0);
            check.eq_i64("checkpoint.conservation_balance", 0);
            // The snapshot round-trips through the state layer: restore
            // reads at least the snapshot's bytes back off disk. (The
            // write side is counted *after* serialization, so the
            // restored books legitimately record it as 0.)
            check.le_fields("checkpoint.snapshot_bytes", "checkpoint.state_bytes_read");
            check.is_true("spill.spill_identical");
            check.gt_i64("spill.final.spills", 0);
            check.fields_equal("spill.final.spills", "spill.final.revivals");
            check.eq_i64("spill.final.spilled_pending", 0);
            check.eq_i64("spill.final.keys_quarantined", 0);
            check.eq_i64("spill.final.late_dropped", 0);
            check.eq_i64("spill.final.conservation_balance", 0);
            // The resident-set bound: the cold store must actually shrink
            // the in-memory key population under skew.
            check.lt_fields("spill.steady_state.live_keys", "spill.steady_state.keys_seen");
            check.is_true("rebalance.rebalance_identical");
            check.gt_i64("rebalance.moved", 0);
            check.fields_equal("rebalance.moved", "rebalance.migrations");
            check.eq_i64("rebalance.late_dropped", 0);
            check.eq_i64("rebalance.conservation_balance", 0);
        }
        "chaos" => {
            // Self-healing under seeded injection must be *exact*, not
            // best-effort: every schedule has to have actually fired
            // (injected > 0 — an unarmed run proves nothing), recovery
            // must reproduce the fault-free output byte-for-byte, and
            // the books must balance through every fault path.
            check.gt_i64("torn_checkpoint.injected", 0);
            check.is_true("torn_checkpoint.recovery_source_is_pre_fault");
            check.is_true("torn_checkpoint.recovered_identical");
            check.eq_i64("torn_checkpoint.conservation_balance", 0);
            check.gt_i64("reconnect.injected", 0);
            check.gt_i64("reconnect.reconnects", 0);
            check.eq_i64("reconnect.resume_gap", 0);
            check.gt_i64("reconnect.resume_replays", 0);
            check.is_true("reconnect.wire_identical");
            check.eq_i64("reconnect.conservation_balance", 0);
            check.gt_i64("spill_faults.injected", 0);
            check.eq_i64("spill_faults.keys_quarantined", 0);
            check.fields_equal("spill_faults.spills", "spill_faults.revivals");
            check.is_true("spill_faults.spill_identical");
            check.eq_i64("spill_faults.conservation_balance", 0);
        }
        "obs_overhead" => {
            // The < 5% observability-overhead acceptance bar. Raw Mev/s
            // are machine-dependent; the ratios transfer because each
            // pair ran interleaved in one process on one machine.
            check.ratio_at_least("runtime.metrics_on_meps", "runtime.metrics_off_meps", 0.95);
            check.ratio_at_least("kernel.profiled_meps", "kernel.unprofiled_meps", 0.95);
        }
        "kernel_hot" => {
            // Throughput is machine-dependent; what must hold anywhere is
            // that all three tiers agree byte-for-byte, the fallback
            // accounting is honest (zero for fully numeric plans, visible
            // with `fully_typed == false` when a plan leans on the
            // dynamic tier), the batch gate admits exactly the numeric
            // kernels, fused maps run at most once per element, and a
            // window between two change points is copied, not re-slid.
            for plan in ["pointwise", "window_sum", "sparse_sliding"] {
                check.is_true(&format!("plans.{plan}.outputs_identical"));
                check.is_true(&format!("plans.{plan}.batched_outputs_identical"));
                check.eq_i64(&format!("plans.{plan}.fallback_ops"), 0);
                check.is_true(&format!("plans.{plan}.fully_typed"));
                // Every kernel of a fully numeric plan must clear the
                // batch gate — a partial admit means the gate regressed.
                check.fields_equal(
                    &format!("plans.{plan}.batched_kernels"),
                    &format!("plans.{plan}.kernels"),
                );
            }
            check.is_true("plans.str_fallback.outputs_identical");
            check.is_true("plans.str_fallback.batched_outputs_identical");
            check.gt_i64("plans.str_fallback.fallback_ops", 0);
            check.is_false("plans.str_fallback.fully_typed");
            // String-carrying bodies must stay off the batched tier.
            check.eq_i64("plans.str_fallback.batched_kernels", 0);
            // Map-once-per-element (the Subtract-on-Evict fix): eviction
            // re-uses cached mapped values, so the fused map runs at most
            // once per ingested event. A re-mapping evictor would show
            // rate ≈ 2. Slack covers window warmup edge effects only.
            check.gt_i64("plans.window_sum.map_runs", 0);
            check.le_f64("plans.window_sum.map_run_rate", 1.05);
            check.le_f64("plans.str_fallback.map_run_rate", 1.05);
            // Slides follow change points: every event of `sparse_sliding`
            // sits alone in its window for 64 lanes, and the batched tier
            // slides where it enters and where it leaves — `slides ≤
            // 2·events + runs`. A loop that slid per lane would read 64
            // per event.
            check.gt_i64("plans.sparse_sliding.slides", 0);
            check.le_fields("plans.sparse_sliding.slides", "plans.sparse_sliding.slides_bound");
        }
        other => {
            check
                .outcome
                .violations
                .push(format!("unknown bench name {other:?} (guardrail needs updating?)"));
        }
    }
    outcome
}

/// Dotted-path invariant checks over one report.
struct Checker<'a> {
    report: &'a Json,
    outcome: &'a mut Outcome,
}

impl Checker<'_> {
    fn lookup(&mut self, path: &str) -> Option<Json> {
        let mut cur = self.report;
        for part in path.split('.') {
            match cur.get(part) {
                Some(v) => cur = v,
                None => {
                    self.outcome.violations.push(format!("missing field {path}"));
                    return None;
                }
            }
        }
        Some(cur.clone())
    }

    fn num(&mut self, path: &str) -> Option<f64> {
        let v = self.lookup(path)?;
        match v.as_f64() {
            Some(x) => Some(x),
            None => {
                self.outcome.violations.push(format!("{path} is not a number"));
                None
            }
        }
    }

    fn eq_i64(&mut self, path: &str, expect: i64) {
        self.outcome.checked += 1;
        if let Some(x) = self.num(path) {
            if x != expect as f64 {
                self.outcome.violations.push(format!("{path} = {x}, expected {expect}"));
            }
        }
    }

    fn gt_i64(&mut self, path: &str, floor: i64) {
        self.outcome.checked += 1;
        if let Some(x) = self.num(path) {
            if x <= floor as f64 {
                self.outcome.violations.push(format!("{path} = {x}, expected > {floor}"));
            }
        }
    }

    fn is_true(&mut self, path: &str) {
        self.outcome.checked += 1;
        if let Some(v) = self.lookup(path) {
            if v.as_bool() != Some(true) {
                self.outcome.violations.push(format!("{path} = {v}, expected true"));
            }
        }
    }

    fn is_false(&mut self, path: &str) {
        self.outcome.checked += 1;
        if let Some(v) = self.lookup(path) {
            if v.as_bool() != Some(false) {
                self.outcome.violations.push(format!("{path} = {v}, expected false"));
            }
        }
    }

    fn fields_equal(&mut self, a: &str, b: &str) {
        self.outcome.checked += 1;
        if let (Some(x), Some(y)) = (self.num(a), self.num(b)) {
            if x != y {
                self.outcome.violations.push(format!("{a} = {x} but {b} = {y}"));
            }
        }
    }

    fn le_fields(&mut self, a: &str, b: &str) {
        self.outcome.checked += 1;
        if let (Some(x), Some(y)) = (self.num(a), self.num(b)) {
            if x > y {
                self.outcome.violations.push(format!("{a} = {x} exceeds {b} = {y}"));
            }
        }
    }

    fn lt_fields(&mut self, a: &str, b: &str) {
        self.outcome.checked += 1;
        if let (Some(x), Some(y)) = (self.num(a), self.num(b)) {
            if x >= y {
                self.outcome.violations.push(format!("{a} = {x}, expected < {b} = {y}"));
            }
        }
    }

    fn le_f64(&mut self, path: &str, ceil: f64) {
        self.outcome.checked += 1;
        if let Some(x) = self.num(path) {
            if x > ceil {
                self.outcome.violations.push(format!("{path} = {x}, expected <= {ceil}"));
            }
        }
    }

    fn ratio_at_least(&mut self, num: &str, den: &str, floor: f64) {
        self.outcome.checked += 1;
        if let (Some(x), Some(y)) = (self.num(num), self.num(den)) {
            if y <= 0.0 || x / y < floor {
                self.outcome
                    .violations
                    .push(format!("{num} / {den} = {x}/{y}, expected ratio >= {floor}"));
            }
        }
    }

    /// Internal consistency of every exported histogram under `path` (a
    /// name → histogram object map, as `MetricsSnapshot::to_json` emits):
    /// the sample count must equal the sum of the bucket counts, and the
    /// quantile readout must be ordered (`p50 <= p99 <= max`).
    fn histograms_sane(&mut self, path: &str) {
        let Some(v) = self.lookup(path) else {
            self.outcome.checked += 1;
            return;
        };
        let Json::Obj(map) = v else {
            self.outcome.checked += 1;
            self.outcome.violations.push(format!("{path} is not an object"));
            return;
        };
        for (name, h) in &map {
            self.outcome.checked += 1;
            let field = |k: &str| h.get(k).and_then(Json::as_f64);
            let (Some(count), Some(p50), Some(p99), Some(max)) =
                (field("count"), field("p50"), field("p99"), field("max"))
            else {
                self.outcome.violations.push(format!("{path}.{name} is missing summary fields"));
                continue;
            };
            let bucket_sum: f64 = h
                .get("buckets")
                .and_then(Json::as_arr)
                .map(|buckets| {
                    buckets.iter().filter_map(|pair| pair.as_arr()?.get(1)?.as_f64()).sum()
                })
                .unwrap_or(f64::NAN);
            if bucket_sum != count {
                self.outcome.violations.push(format!(
                    "{path}.{name}: count = {count} but buckets sum to {bucket_sum}"
                ));
            }
            if !(p50 <= p99 && p99 <= max) {
                self.outcome.violations.push(format!(
                    "{path}.{name}: quantiles out of order (p50 {p50}, p99 {p99}, max {max})"
                ));
            }
        }
    }
}
