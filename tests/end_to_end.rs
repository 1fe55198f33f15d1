//! Cross-crate integration tests: the whole pipeline — frontend → TiLT IR →
//! optimizer → kernels → parallel/streaming execution — against the
//! reference evaluator and the baseline engines, on every benchmark
//! application.

use std::sync::Arc;

use tilt_core::ir::print_query;
use tilt_core::Compiler;
use tilt_data::{streams_close, Event, SnapshotBuf, Time, TimeRange, Value};
use tilt_workloads::{all_apps, ysb};

/// Every application: reference, TiLT (fused + unfused), Trill, and batched
/// streaming all agree on the same input.
#[test]
fn five_way_agreement_on_every_app() {
    for app in all_apps() {
        let n = 500usize;
        let events = (app.dataset)(n, 13);
        let hi = events.iter().map(|e| e.end).max().unwrap();
        let q = tilt_query::lower(&app.plan, app.output).unwrap();
        let fused = Arc::new(Compiler::new().compile(&q).unwrap());
        let unfused = Compiler::unoptimized().compile(&q).unwrap();
        let range = TimeRange::new(Time::ZERO, hi.align_up(fused.grid()));

        let expected = tilt_query::reference::evaluate(
            &app.plan,
            app.output,
            std::slice::from_ref(&events),
            range,
        );
        let buf = SnapshotBuf::from_events(&events, range);

        let tilt_fused = fused.run(&[&buf], range).to_events();
        assert!(
            streams_close(&expected, &tilt_fused, 1e-6),
            "{}: fused TiLT vs reference\n{}",
            app.name,
            print_query(fused.query())
        );

        let tilt_unfused = unfused.run(&[&buf], range).to_events();
        assert!(
            streams_close(&expected, &tilt_unfused, 1e-6),
            "{}: unfused TiLT vs reference",
            app.name
        );

        let trill: Vec<Event<Value>> = spe_trill::run_single(&app.plan, app.output, &events, 64)
            .into_iter()
            .filter(|e| e.end <= range.end)
            .collect();
        assert!(streams_close(&expected, &trill, 1e-6), "{}: Trill vs reference", app.name);

        // Batched streaming (three different batch sizes).
        for batch in [37usize, 128, 5000] {
            let mut session = fused.shared_stream_session(Time::ZERO);
            let mut streamed: Vec<Event<Value>> = Vec::new();
            for chunk in events.chunks(batch) {
                session.push_events(0, chunk);
                let upto = chunk.last().unwrap().end;
                if upto > session.watermark() {
                    streamed.extend(session.advance_to(upto).to_events());
                }
            }
            if session.watermark() < range.end {
                streamed.extend(session.flush_to(range.end).to_events());
            }
            let streamed = tilt_data::coalesce(&streamed);
            assert!(
                streams_close(&expected, &streamed, 1e-6),
                "{}: streaming (batch {batch}) vs reference: {} vs {} events",
                app.name,
                expected.len(),
                streamed.len()
            );
        }
    }
}

/// Fusion collapses each application to (far) fewer kernels than operators,
/// and the compiler reports sane boundary conditions.
#[test]
fn fusion_compresses_every_app() {
    for app in all_apps() {
        let q = tilt_query::lower(&app.plan, app.output).unwrap();
        let fused = Compiler::new().compile(&q).unwrap();
        let unfused = Compiler::unoptimized().compile(&q).unwrap();
        assert!(
            fused.num_kernels() <= unfused.num_kernels(),
            "{}: fusion grew the kernel count ({} vs {})",
            app.name,
            fused.num_kernels(),
            unfused.num_kernels()
        );
        // Across the suite fusion must be doing real work; spot-check that
        // the heavily fusible apps collapse completely. (RSI stays at 3
        // kernels: its windows aggregate a two-source pointwise transform,
        // which single-source window-map fusion cannot absorb.)
        if matches!(app.name, "Trading" | "FraudDet") {
            assert_eq!(fused.num_kernels(), 1, "{} should fuse fully", app.name);
        }
        if app.name == "RSI" {
            assert_eq!(fused.num_kernels(), 3);
        }
        let lookback = fused.boundary().max_input_lookback(fused.query());
        assert!((0..1_000_000).contains(&lookback), "{}: lookback {lookback}", app.name);
    }
}

/// YSB: all five engines agree on total view counts, at several thread
/// counts.
#[test]
fn ysb_engines_agree() {
    let campaigns = 10;
    let window = ysb::window_ticks(50);
    let events = ysb::generate(5_000, campaigns, 3);
    let range = ysb::extent(&events, window);
    let partitions = ysb::partition(&events, campaigns);
    let expected: i64 = events.iter().filter(|e| e.event_type == 0).count() as i64;
    for threads in [1usize, 2, 4] {
        assert_eq!(ysb::run_tilt(&partitions, range, threads, window), expected);
        assert_eq!(ysb::run_trill(&partitions, 512, threads, range, window), expected);
        assert_eq!(ysb::run_lightsaber(&events, range, threads, window), expected);
        assert_eq!(ysb::run_grizzly(&events, campaigns, range, threads, window), expected);
    }
    assert_eq!(ysb::run_streambox(&partitions, 512, range, window), expected);
}

/// Parallel execution sweeps: thread counts × partition interval sizes must
/// all match serial output on a query with every construct (windows, join,
/// shift, filter).
#[test]
fn parallel_sweep_matches_serial() {
    let app = tilt_workloads::apps::fraud_det();
    let events = (app.dataset)(2_000, 5);
    let q = tilt_query::lower(&app.plan, app.output).unwrap();
    let cq = Compiler::new().compile(&q).unwrap();
    let hi = events.iter().map(|e| e.end).max().unwrap();
    let range = TimeRange::new(Time::ZERO, hi.align_down(cq.grid()));
    let buf = SnapshotBuf::from_events(&events, range);
    let serial = cq.run(&[&buf], range).to_events();
    for threads in [2usize, 3, 8] {
        for interval in [64i64, 301, 997, 5_000] {
            let par = cq.run_parallel(&[&buf], range, threads, interval).to_events();
            assert!(
                streams_close(&serial, &par, 1e-6),
                "threads={threads} interval={interval}: {} vs {} events",
                serial.len(),
                par.len()
            );
        }
    }
}

/// The Fig. 10 structural claim: the trend query compiles to 6 kernels
/// without fusion and exactly 1 with it, and both agree.
#[test]
fn trend_query_fusion_structure() {
    let app = tilt_workloads::apps::trading();
    let q = tilt_query::lower(&app.plan, app.output).unwrap();
    let fused = Compiler::new().compile(&q).unwrap();
    let unfused = Compiler::unoptimized().compile(&q).unwrap();
    assert_eq!(fused.num_kernels(), 1);
    assert_eq!(unfused.num_kernels(), 4);
    assert_eq!(fused.boundary().max_input_lookback(fused.query()), 20);
}
