//! The six workloads. Each module documents why it exists and what a
//! *result* and its latency mean there.

use crate::harness::{Ctx, Outcome};

pub mod apps_oneshot;
pub mod ysb_oneshot;
pub mod ysb_service_sat;
pub mod ysb_wire_paced;
pub mod ysb_wire_sat;
pub mod zipf_churn;

/// A workload's entry point.
pub type RunFn = fn(&Ctx) -> Outcome;

/// Every workload by name, in ladder order.
pub const WORKLOADS: [(&str, RunFn); 6] = [
    ("ysb_oneshot", ysb_oneshot::run),
    ("apps_oneshot", apps_oneshot::run),
    ("ysb_service_sat", ysb_service_sat::run),
    ("ysb_wire_sat", ysb_wire_sat::run),
    ("ysb_wire_paced", ysb_wire_paced::run),
    ("zipf_churn", zipf_churn::run),
];

/// Workloads `BENCHMARK.json` does not name, so no bound is enforced on
/// them. `ysb_wire_sat` blocks and wakes a thread four times per ingest
/// frame (stop-and-wait credit flow across seven threads on two cores), so
/// on a shared host its throughput follows the host's scheduling latency:
/// the middle half of ten runs of one commit spread 17–20 % of the median
/// (p50 latency 20–24 %) where the bounds were checked, wider than the
/// bounds the other workloads hold.
/// It still runs with every other workload from `run.sh`, lands in
/// `results.json` and is compared by `compare`, and its rung ratio is a
/// per-layer metric of the traced `ysb_wire_paced` run.
pub const UNGATED: [&str; 1] = ["ysb_wire_sat"];
