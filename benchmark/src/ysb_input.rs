//! The YSB event set every YSB workload draws from, with the expectation
//! its outputs are checked against.
//!
//! The expectation is computed here, from the generated events alone: views
//! (`event_type == 0`) per campaign per tumbling window. No engine under
//! test takes part in producing it.

use std::sync::Arc;

use tilt_core::{CompiledQuery, Compiler};
use tilt_data::Time;
use tilt_runtime::KeyedEvent;
use tilt_workloads::ysb::{self, YsbEvent};

use crate::latency::{samples_ns, Triggers};
use crate::service::{timings, Row};

/// Campaigns (keys) in every YSB workload.
pub const CAMPAIGNS: usize = 1000;

/// Generated events plus the per-cell expectation.
pub struct YsbInput {
    /// The events in *arrival* order (scrambled when `displacement` was
    /// given; timestamps are one tick per event in time order).
    pub events: Vec<YsbEvent>,
    /// Tumbling window length in ticks.
    pub window: i64,
    /// End of the last window (the stream's extent aligned up).
    pub end: Time,
    /// Expected views per `(campaign, window)` cell.
    views: Vec<u32>,
    /// Input events of any type per cell: what a wrong cell costs.
    cell_events: Vec<u32>,
    /// Expected views in total.
    pub total_views: i64,
}

impl YsbInput {
    /// Generates `n` events from `seed`; `displacement` scrambles arrival
    /// order within consecutive blocks of that many events.
    pub fn generate(n: usize, window: i64, seed: u64, displacement: Option<usize>) -> YsbInput {
        let ordered = ysb::generate(n, CAMPAIGNS, seed);
        let end = ysb::extent(&ordered, window).end;
        let windows = (end.ticks() / window) as usize;
        let mut views = vec![0u32; CAMPAIGNS * windows];
        let mut cell_events = vec![0u32; CAMPAIGNS * windows];
        let mut total_views = 0i64;
        for e in &ordered {
            // Event at time t covers (t-1, t]: it belongs to the window
            // whose end is t aligned up.
            let cell = e.campaign as usize * windows + ((e.time.ticks() - 1) / window) as usize;
            cell_events[cell] += 1;
            if e.event_type == 0 {
                views[cell] += 1;
                total_views += 1;
            }
        }
        let events = match displacement {
            Some(d) => ysb::shuffle_bounded(&ordered, d, seed ^ 0x5CA7),
            None => ordered,
        };
        YsbInput { events, window, end, views, cell_events, total_views }
    }

    fn windows(&self) -> usize {
        (self.end.ticks() / self.window) as usize
    }

    /// How many input events sit in cells whose output is missing or differs
    /// from the expectation, given every output event as `(campaign, start,
    /// end, count)`. An output event covering several windows (adjacent
    /// equal counts coalesce) stands for each of them; a window with no
    /// views may report 0 or nothing.
    pub fn failed_events(&self, outputs: impl IntoIterator<Item = (u64, i64, i64, f64)>) -> u64 {
        let windows = self.windows();
        let mut got = vec![0u32; self.views.len()];
        let mut stray = 0u64;
        for (campaign, start, end, count) in outputs {
            let whole = count >= 0.0 && count.fract() == 0.0 && count <= f64::from(u32::MAX);
            let aligned = start % self.window == 0 && end % self.window == 0 && start >= 0;
            if !(whole && aligned && (campaign as usize) < CAMPAIGNS) {
                stray += 1;
                continue;
            }
            let count = count as u32;
            let mut w = start / self.window;
            while w < end / self.window && (w as usize) < windows {
                got[campaign as usize * windows + w as usize] = count;
                w += 1;
            }
        }
        let wrong: u64 = got
            .iter()
            .zip(&self.views)
            .zip(&self.cell_events)
            .filter(|((g, v), _)| g != v)
            .map(|(_, n)| u64::from(*n))
            .sum();
        // An output that fits no cell at all condemns the whole run.
        if stray > 0 {
            self.events.len() as u64
        } else {
            wrong
        }
    }
}

/// What the service and wire workloads set up from one [`YsbInput`].
pub struct KeyedYsb {
    /// The events and their expectation.
    pub input: YsbInput,
    /// The events as keyed events (campaign is the key), in arrival order.
    pub keyed: Vec<KeyedEvent>,
    /// Which arrival releases each window.
    pub triggers: Triggers,
    /// The compiled YSB query.
    pub cq: Arc<CompiledQuery>,
}

impl KeyedYsb {
    /// Generates, keys, indexes and compiles.
    pub fn build(
        n: usize,
        window: i64,
        seed: u64,
        displacement: Option<usize>,
        lateness: i64,
    ) -> KeyedYsb {
        let input = YsbInput::generate(n, window, seed, displacement);
        let keyed = ysb::keyed(&input.events);
        let starts = keyed.iter().map(|ke| ke.event.start.ticks());
        let triggers = Triggers::build(starts, window, lateness);
        KeyedYsb { input, keyed, triggers, cq: compile(window) }
    }

    /// Judges one round's output: `(failed events, latency samples)`.
    /// `dropped` is what the service's own counters say it lost; `chunk` and
    /// `handover_ns` say when each chunk of the input was handed over.
    pub fn judge(
        &self,
        rows: &[Row],
        chunk: usize,
        handover_ns: &[u64],
        dropped: u64,
    ) -> (u64, Vec<u64>) {
        let n = self.input.events.len() as u64;
        let wrong = self.input.failed_events(rows.iter().map(|o| (o.key, o.start, o.end, o.value)));
        let (samples, impossible) =
            samples_ns(timings(rows), &self.triggers, chunk, handover_ns, 0..u64::MAX);
        let failed = if impossible > 0 { n } else { (wrong + dropped).min(n) };
        (failed, samples)
    }
}

/// YSB lowered and compiled with the default compiler.
pub fn compile(window: i64) -> Arc<CompiledQuery> {
    let (plan, out) = ysb::plan(window);
    let q = tilt_query::lower(&plan, out).expect("YSB lowers");
    Arc::new(Compiler::new().compile(&q).expect("YSB compiles"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tilt_data::{Event, SnapshotBuf, TimeRange, Value};

    #[test]
    fn expectation_matches_a_one_shot_run_and_flags_damage() {
        let window = 100;
        let input = YsbInput::generate(5_000, window, 3, None);
        assert_eq!(
            input.total_views,
            input.events.iter().filter(|e| e.event_type == 0).count() as i64
        );
        let cq = compile(window);
        let range = TimeRange::new(Time::ZERO, input.end);
        let parts = ysb::partition(&input.events, CAMPAIGNS);
        let outs: Vec<Vec<Event<Value>>> = parts
            .iter()
            .map(|p| cq.run(&[&SnapshotBuf::from_events(p, range)], range).to_events())
            .collect();
        let flat = || {
            outs.iter().enumerate().flat_map(|(k, v)| {
                v.iter().map(move |e| {
                    (k as u64, e.start.ticks(), e.end.ticks(), e.payload.as_f64().unwrap())
                })
            })
        };
        assert_eq!(input.failed_events(flat()), 0);

        // Drop one campaign's output: its events in viewed windows fail.
        let victim = 7u64;
        let lost = input.failed_events(flat().filter(|(k, ..)| *k != victim));
        assert!(lost > 0 && lost <= input.events.iter().filter(|e| e.campaign == 7).count() as u64);
        // A scrambled copy has the same expectation.
        let shuffled = YsbInput::generate(5_000, window, 3, Some(64));
        assert_eq!(shuffled.total_views, input.total_views);
        assert_ne!(
            shuffled.events.iter().map(|e| e.time).collect::<Vec<_>>(),
            input.events.iter().map(|e| e.time).collect::<Vec<_>>()
        );
        assert_eq!(shuffled.failed_events(flat()), 0);
        // An output on no window boundary condemns the run.
        assert_eq!(input.failed_events([(0, 5, 100, 1.0)]), 5_000);
    }
}
