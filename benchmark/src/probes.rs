//! Short fixed measurements of a single layer, run beside a workload's
//! traced rounds to give the per-layer metrics that no span around the
//! workload's own calls can: the compile pipeline split into its passes,
//! the execution tiers, the bare per-key session, the wire codec.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use tilt_core::opt::Optimizer;
use tilt_core::{CompiledQuery, Compiler, SharedStreamSession};
use tilt_data::{Event, Time, Value};
use tilt_query::{LogicalPlan, NodeId};
use tilt_runtime::KeyedEvent;
use tilt_server::protocol::{self, Message, WireEvent};

use crate::trace::Lane;

/// Per-layer metric values by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Lowers, optimizes and compiles each plan under spans and reports the
/// `query`, `core.opt` and `core.codegen` metrics, summed over the plans.
/// `Compiler::compile` optimizes internally, so `core.codegen.compile_us`
/// contains `core.opt.optimize_us`; the separate optimizer call is what
/// prices the pass on its own.
pub fn compile_pipeline(lane: &mut Lane, plans: &[(LogicalPlan, NodeId)], layer: &mut Layer) {
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;
    let (mut lower_us, mut opt_us, mut compile_us) = (0.0, 0.0, 0.0);
    let (mut kernels, mut batched, mut unfused) = (0usize, 0usize, 0usize);
    for (i, (plan, out)) in plans.iter().enumerate() {
        let t0 = Instant::now();
        let q =
            lane.span("query.lower", i as u32, |_| tilt_query::lower(plan, *out)).expect("lowers");
        lower_us += us(t0);
        let t0 = Instant::now();
        lane.span("core.opt.optimize", i as u32, |_| Optimizer::full().optimize(&q))
            .expect("optimizes");
        opt_us += us(t0);
        let t0 = Instant::now();
        let cq = lane
            .span("core.codegen.compile", i as u32, |_| Compiler::new().compile(&q))
            .expect("compiles");
        compile_us += us(t0);
        kernels += cq.num_kernels();
        batched += cq.batched_kernels();
        unfused += Compiler::unoptimized().compile(&q).expect("compiles unfused").num_kernels();
    }
    layer.insert("query.lower_us", lower_us);
    layer.insert("core.opt.optimize_us", opt_us);
    layer.insert("core.opt.kernels_fused", (unfused - kernels) as f64);
    layer.insert("core.codegen.compile_us", compile_us);
    layer.insert("core.codegen.kernels", kernels as f64);
    layer.insert("core.codegen.batched_kernels", batched as f64);
}

/// What one thread driving per-key sessions achieves — the shard's inner
/// loop without routing, queues, reorder buffers or sinks.
#[derive(Clone, Copy, Debug)]
pub struct SessionProbe {
    /// Million events per second through push + advance.
    pub mev_s: f64,
    /// Nanoseconds per event inside `push_events`.
    pub push_ns_per_event: f64,
    /// Nanoseconds per event inside `advance_to`.
    pub advance_ns_per_event: f64,
    /// 95th percentile of one `advance_to` call, microseconds.
    pub advance_us_p95: f64,
}

struct SessionDriver<'a> {
    lane: &'a mut Lane,
    sessions: Vec<SharedStreamSession>,
    pending: Vec<Vec<Event<Value>>>,
    push_ns: u64,
    advance_ns: u64,
    advance_calls: Vec<u64>,
    output_spans: usize,
}

impl SessionDriver<'_> {
    fn push(&mut self, k: usize) {
        let (session, batch) = (&mut self.sessions[k], &self.pending[k]);
        let t = Instant::now();
        self.lane.span("core.exec.session_push", k as u32, |_| session.push_events(0, batch));
        self.push_ns += t.elapsed().as_nanos() as u64;
        self.pending[k].clear();
    }

    fn advance_all(&mut self, upto: Time) {
        for k in 0..self.sessions.len() {
            if !self.pending[k].is_empty() {
                self.push(k);
            }
            let session = &mut self.sessions[k];
            if upto > session.watermark() {
                let t = Instant::now();
                let out = self
                    .lane
                    .span("core.exec.session_advance", k as u32, |_| session.advance_to(upto));
                let ns = t.elapsed().as_nanos() as u64;
                self.advance_ns += ns;
                self.advance_calls.push(ns);
                self.output_spans += out.len();
                session.recycle(out);
            }
        }
    }
}

/// Drives one `shared_stream_session` per key over `events` (time-ordered
/// keyed events) the way a shard does: events are pushed in arrival order in
/// runs of up to 256 per key, and every key is advanced each time the stream
/// crosses a multiple of `advance_every` ticks.
pub fn sessions(
    lane: &mut Lane,
    cq: &Arc<CompiledQuery>,
    events: &[KeyedEvent],
    keys: usize,
    advance_every: i64,
    end: Time,
) -> SessionProbe {
    const PUSH_RUN: usize = 256;
    let mut d = SessionDriver {
        lane,
        sessions: (0..keys).map(|_| cq.shared_stream_session(Time::ZERO)).collect(),
        pending: (0..keys).map(|_| Vec::with_capacity(PUSH_RUN)).collect(),
        push_ns: 0,
        advance_ns: 0,
        advance_calls: Vec::new(),
        output_spans: 0,
    };
    let mut next_advance = advance_every;
    let t0 = Instant::now();
    for ke in events {
        while ke.event.start.ticks() >= next_advance {
            d.advance_all(Time::new(next_advance));
            next_advance += advance_every;
        }
        let k = ke.key as usize;
        d.pending[k].push(ke.event.clone());
        if d.pending[k].len() == PUSH_RUN {
            d.push(k);
        }
    }
    d.advance_all(end);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(d.output_spans);
    let n = events.len() as f64;
    d.advance_calls.sort_unstable();
    let p95 = d.advance_calls[(d.advance_calls.len() - 1) * 95 / 100] as f64 / 1e3;
    SessionProbe {
        mev_s: n / secs / 1e6,
        push_ns_per_event: d.push_ns as f64 / n,
        advance_ns_per_event: d.advance_ns as f64 / n,
        advance_us_p95: p95,
    }
}

/// Encodes and decodes a 256-event ingest message `reps` times; returns
/// `(encode ns/event, decode ns/event)`.
pub fn codec(lane: &mut Lane, events: &[KeyedEvent], reps: usize) -> (f64, f64) {
    let wire: Vec<WireEvent> = events
        .iter()
        .take(256)
        .map(|ke| WireEvent { key: ke.key, source: ke.source as u32, event: ke.event.clone() })
        .collect();
    let n = (wire.len() * reps) as f64;
    let msg = Message::Ingest { events: wire };
    let t0 = Instant::now();
    let mut frame = Vec::new();
    for i in 0..reps {
        frame = lane.span("server.protocol.encode", i as u32, |_| {
            protocol::encode_frame(std::hint::black_box(&msg))
        });
    }
    let encode = t0.elapsed().as_nanos() as f64 / n;
    // A frame is `[len u32][payload]`; `decode` takes the payload.
    let payload = &frame[4..];
    let t0 = Instant::now();
    for i in 0..reps {
        let decoded = lane.span("server.protocol.decode", i as u32, |_| {
            protocol::decode(std::hint::black_box(payload))
        });
        assert!(matches!(decoded, Ok(Message::Ingest { .. })), "ingest frame round-trips");
    }
    (encode, t0.elapsed().as_nanos() as f64 / n)
}
