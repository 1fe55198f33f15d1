//! Streaming fraud detection — the banking workload of Table 2, run in
//! *batched streaming* mode (the paper's latency-bounded execution, §7.3).
//!
//! ```sh
//! cargo run --release --example fraud_detection
//! ```
//!
//! Transactions arrive in small batches; the compiled query keeps just
//! enough history (the boundary-resolved lookback) to evaluate the sliding
//! μ+3σ threshold across batch boundaries.

use std::sync::Arc;

use tilt_core::Compiler;
use tilt_data::Time;
use tilt_workloads::apps;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = apps::fraud_det();
    println!("{}: {}", app.name, app.description);

    let query = tilt_query::lower(&app.plan, app.output)?;
    let compiled = Arc::new(Compiler::new().compile(&query)?);
    println!(
        "sliding window {} ticks; session retains {} ticks of history per input",
        apps::FRAUD_WINDOW,
        compiled.boundary().max_input_lookback(compiled.query()),
    );

    let events = (app.dataset)(20_000, 7);
    let mut session = compiled.shared_stream_session(Time::ZERO);
    let mut flagged = 0usize;
    let mut batches = 0usize;
    let mut examples = Vec::new();
    for chunk in events.chunks(500) {
        session.push_events(0, chunk);
        let out = session.advance_to(chunk.last().expect("non-empty").end);
        for e in out.to_events() {
            if examples.len() < 8 {
                examples.push(format!(
                    "  t={:>6}  amount {:>10.2}",
                    e.end.ticks(),
                    e.payload.as_f64().unwrap_or(0.0)
                ));
            }
            flagged += 1;
        }
        batches += 1;
    }
    println!(
        "\nprocessed {} transactions in {batches} batches; flagged {flagged} as suspicious:",
        events.len()
    );
    for line in examples {
        println!("{line}");
    }
    println!("  ... (threshold: trailing-window mean + 3 sigma)");
    Ok(())
}
