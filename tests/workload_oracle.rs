//! One oracle for every workload plan: each plan the benchmark ladder runs
//! (`ysb::plan`, `ysb::factor_plan`, the eight `all_apps()`, and
//! `zipf_churn`'s every-tick sliding sum) × every execution tier × every
//! execution mode (one-shot `run`, partitioned `run_parallel`, a
//! `StreamSession` fed in 64-event chunks) is compared with
//! `tilt_query::reference::evaluate`.
//!
//! The same table carries the release contract: a session stepped one grid
//! tick at a time has emitted, after `advance_to(e)`, exactly the final
//! output through the last grid tick at or before `e − lookahead` — and the
//! lookahead is 0 for every plan that does not shift into the future, so a
//! window ending at `e` is out of `advance_to(e)`.

use tilt_core::ir::DataType;
use tilt_core::{CompiledQuery, Compiler, ExecTier};
use tilt_data::{streams_close, streams_equivalent, Event, SnapshotBuf, Time, TimeRange, Value};
use tilt_query::{Agg, LogicalPlan, NodeId};
use tilt_workloads::{all_apps, gen, ysb};

/// Seed of every generated dataset; CI's `properties` job varies it.
fn seed() -> u64 {
    std::env::var("PROPTEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(7)
}

struct Row {
    name: String,
    plan: LogicalPlan,
    output: NodeId,
    events: Vec<Event<Value>>,
    /// Integer plans must match the reference exactly; float plans up to
    /// the last bits Subtract-on-Evict legitimately moves.
    exact: bool,
}

fn rows() -> Vec<Row> {
    let seed = seed();
    let mut rows = Vec::new();

    // YSB and its factor query over one campaign partition (φ-heavy: the
    // partition holds one event in eight ticks).
    let window = ysb::window_ticks(40);
    let ads = ysb::generate(6000, 8, seed);
    let partition = ysb::partition(&ads, 8).swap_remove(0);
    for (name, (plan, output)) in
        [("ysb", ysb::plan(window)), ("ysb_factor", ysb::factor_plan(window, ysb::FACTOR))]
    {
        rows.push(Row { name: name.into(), plan, output, events: partition.clone(), exact: true });
    }

    for app in all_apps() {
        rows.push(Row {
            name: app.name.to_lowercase(),
            plan: app.plan,
            output: app.output,
            events: (app.dataset)(600, seed),
            exact: false,
        });
    }

    // `zipf_churn`'s query over its hottest key's events.
    let mut plan = LogicalPlan::new();
    let src = plan.source("x", DataType::Float);
    let output = plan.window(src, 64, 1, Agg::Sum);
    let stream = gen::zipf_keyed_floats(4000, 300, 1.1, seed);
    let mut per_key = std::collections::HashMap::<u64, usize>::new();
    for (key, _) in &stream {
        *per_key.entry(*key).or_default() += 1;
    }
    let hot = per_key.into_iter().max_by_key(|&(key, n)| (n, key)).expect("non-empty stream").0;
    let events = stream.into_iter().filter(|(key, _)| *key == hot).map(|(_, e)| e).collect();
    rows.push(Row { name: "zipf_sliding_sum".into(), plan, output, events, exact: false });
    rows
}

fn session_events(cq: &CompiledQuery, events: &[Event<Value>], end: Time) -> Vec<Event<Value>> {
    let mut session = cq.stream_session(Time::ZERO);
    let mut out = Vec::new();
    for chunk in events.chunks(64) {
        session.push_events(0, chunk);
        let upto = chunk.last().expect("chunks are non-empty").end;
        if upto > session.watermark() {
            out.extend(session.advance_to(upto).to_events());
        }
    }
    out.extend(session.flush_to(end).to_events());
    out
}

#[test]
fn every_workload_plan_matches_the_reference_on_every_tier_and_mode() {
    for row in rows() {
        let q = tilt_query::lower(&row.plan, row.output).expect("workload plan lowers");
        let grid = Compiler::new().compile(&q).expect("workload plan compiles").grid();
        // A grid-aligned end keeps the tail identical across modes: every
        // partition and every session advance ends on a grid tick.
        let hi = row.events.iter().map(|e| e.end).max().expect("non-empty dataset");
        let range = TimeRange::new(Time::ZERO, hi.align_up(grid));
        let expected = tilt_query::reference::evaluate(
            &row.plan,
            row.output,
            std::slice::from_ref(&row.events),
            range,
        );
        assert!(!expected.is_empty(), "{}: the reference produced no output", row.name);
        let buf = SnapshotBuf::from_events(&row.events, range);

        for tier in [ExecTier::Batched, ExecTier::Compiled, ExecTier::Interpreted] {
            let cq = Compiler::new().with_tier(tier).compile(&q).expect("workload plan compiles");
            let interval = (range.len() / 5).max(1);
            let modes = [
                ("run", cq.run(&[&buf], range).to_events()),
                ("run_parallel", cq.run_parallel(&[&buf], range, 4, interval).to_events()),
                ("session", session_events(&cq, &row.events, range.end)),
            ];
            for (mode, got) in modes {
                let ok = if row.exact {
                    streams_equivalent(&expected, &got)
                } else {
                    streams_close(&expected, &got, 1e-6)
                };
                assert!(
                    ok,
                    "{} / {tier:?} / {mode}: reference has {} events, TiLT has {}",
                    row.name,
                    expected.len(),
                    got.len()
                );
            }
        }
    }
}

/// The lookahead a session's emission trails its watermark by: the aligned
/// one, since sessions emit at grid-aligned horizons.
fn emission_lookahead(cq: &CompiledQuery) -> i64 {
    cq.boundary().aligned_input_lookahead(cq.query())
}

/// `events` restricted to `(.., end]`.
fn through(events: &[Event<Value>], end: Time) -> Vec<Event<Value>> {
    events
        .iter()
        .filter(|e| e.start < end)
        .map(|e| Event::new(e.start, e.end.min(end), e.payload.clone()))
        .collect()
}

#[test]
fn a_window_ending_at_e_is_emitted_by_advance_to_e() {
    for row in rows() {
        let q = tilt_query::lower(&row.plan, row.output).expect("workload plan lowers");
        let grid = Compiler::new().compile(&q).expect("workload plan compiles").grid();
        let hi = row.events.iter().map(|e| e.end).max().expect("non-empty dataset");
        let range = TimeRange::new(Time::ZERO, hi.align_up(grid));
        // The final output: the reference over the whole stream. What a
        // session has released by `e` must be a prefix of it.
        let expected = tilt_query::reference::evaluate(
            &row.plan,
            row.output,
            std::slice::from_ref(&row.events),
            range,
        );

        for tier in [ExecTier::Batched, ExecTier::Compiled, ExecTier::Interpreted] {
            let cq = Compiler::new().with_tier(tier).compile(&q).expect("workload plan compiles");
            let la = emission_lookahead(&cq);
            // Only `resample` reads ahead (it interpolates towards the next
            // sample); every other plan is window reduces, joins and shifts
            // into the past, which need nothing after the window's end.
            if row.name == "resample" {
                assert!(la > 0, "resample shifts into the future");
            } else {
                assert_eq!(
                    la, 0,
                    "{} / {tier:?}: a window ending at e needs nothing after e",
                    row.name
                );
            }

            let mut session = cq.stream_session(Time::ZERO);
            let mut got: Vec<Event<Value>> = Vec::new();
            let mut pushed = 0;
            let mut e = Time::ZERO;
            while e < range.end {
                e += grid;
                // The watermark contract: everything starting before `e`
                // is in before the session hears of `e`.
                let upto = pushed + row.events[pushed..].partition_point(|ev| ev.start < e);
                session.push_events(0, &row.events[pushed..upto]);
                pushed = upto;
                got.extend(session.advance_to(e).to_events());

                let released = Time::new(e.ticks() - la).align_down(grid).max(Time::ZERO);
                assert_eq!(session.watermark(), released, "{} / {tier:?}: step {e}", row.name);
                let want = through(&expected, released);
                let ok = if row.exact {
                    streams_equivalent(&want, &got)
                } else {
                    streams_close(&want, &got, 1e-6)
                };
                assert!(
                    ok,
                    "{} / {tier:?}: after advance_to({e}) the session has {} events, \
                     the final output through {released} has {}",
                    row.name,
                    got.len(),
                    want.len()
                );
            }
        }
    }
}
