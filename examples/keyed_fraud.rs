//! Keyed streaming fraud detection: the banking workload of Table 2 served
//! by `tilt-runtime` — one compiled query, thousands of card streams,
//! out-of-order arrival, flagged transactions streamed out as they
//! finalize.
//!
//! ```sh
//! cargo run --release --example keyed_fraud
//! ```
//!
//! Contrast with `fraud_detection.rs`, which runs the same query on a
//! single in-order stream through one `SharedStreamSession`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tilt_core::Compiler;
use tilt_data::{Event, Time, Value};
use tilt_runtime::{KeyedEvent, QuerySettings, RuntimeConfig, StreamService};
use tilt_workloads::apps;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = apps::fraud_det();
    let cards = 2_000u64;
    let n_events = 400_000usize;
    let displacement = 256usize;

    println!("{}: {} — keyed across {cards} cards", app.name, app.description);

    // Compile once; every card's session shares the read-only result.
    let query = tilt_query::lower(&app.plan, app.output)?;
    let compiled = Arc::new(Compiler::new().compile(&query)?);

    // One global transaction feed: each tick, one card makes a lognormal-ish
    // payment; rare large multiples are the frauds to catch.
    let mut rng = StdRng::seed_from_u64(17);
    let mut feed: Vec<KeyedEvent> = (1..=n_events as i64)
        .map(|t| {
            let card = rng.gen_range(0..cards as i64) as u64;
            let z: f64 = rng.gen_range(-1.0..1.0) + rng.gen_range(-1.0..1.0);
            let mut amount = (z * 0.8).exp() * 40.0;
            if rng.gen::<f64>() < 0.003 {
                amount *= rng.gen_range(10.0..40.0);
            }
            KeyedEvent::new(card, 0, Event::point(Time::new(t), Value::Float(amount)))
        })
        .collect();
    // Scramble arrival order within bounded windows, as a real ingest tier
    // would see from parallel upstream producers.
    for block in feed.chunks_mut(displacement) {
        for i in (1..block.len()).rev() {
            block.swap(i, rng.gen_range(0..i + 1));
        }
    }

    let flagged = Arc::new(AtomicU64::new(0));
    let sink_count = Arc::clone(&flagged);
    let mut builder = StreamService::builder(RuntimeConfig {
        allowed_lateness: 2 * displacement as i64 + 2,
        ..RuntimeConfig::default()
    });
    builder.register_with(
        Arc::clone(&compiled),
        QuerySettings::with_sink(Arc::new(move |card, events| {
            let n = sink_count.fetch_add(events.len() as u64, Ordering::Relaxed);
            for (i, e) in events.iter().enumerate() {
                if n + (i as u64) < 8 {
                    println!(
                        "  card {card:>5}  t={:>7}  amount {:>10.2}  FLAGGED",
                        e.end.ticks(),
                        e.payload.as_f64().unwrap_or(0.0)
                    );
                }
            }
        })),
    );
    let runtime = builder.start()?;

    for chunk in feed.chunks(10_000) {
        runtime.ingest(chunk.iter().cloned());
    }
    let mid = runtime.stats();
    let output = runtime.finish_at(Time::new(n_events as i64 + 1));

    println!("\nmid-flight:  {mid}");
    println!("final:       {}", output.stats);
    println!(
        "\n{} transactions over {} cards on {} shards: {} flagged as > trailing mean + 3 sigma",
        output.stats.events_in,
        output.stats.keys,
        output.stats.shard_watermarks.len(),
        flagged.load(Ordering::Relaxed),
    );
    Ok(())
}
