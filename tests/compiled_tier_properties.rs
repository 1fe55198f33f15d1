//! Differential property tests for the typed kernel tiers: randomly
//! generated *well-typed* expression DAGs over random event streams must
//! produce **byte-identical** output on all three tiers — batched,
//! per-tick compiled, and interpreted; identical span boundaries,
//! identical payload bits (`SnapshotBuf` equality uses `Value::same`,
//! which compares floats bitwise) — one-shot, fused and unfused, and
//! through the sharded `StreamService` at 1/2/4 shards.
//!
//! The generator deliberately covers the tier boundaries: φ-heavy bodies
//! (null literals, filters, sparse streams), `Str` equality, `Tuple`
//! construction/projection, custom reductions, and mixed `int`/`float`
//! `if` branches whose unpromoted taken value must survive boxing. A
//! deterministic suite at the bottom pins the batched tier's word-edge
//! behavior: runs of 63/64/65 ticks and φ gaps straddling 64-lane mask
//! word boundaries.
//!
//! A second family covers *quiet runs*: sparse streams (gaps of up to 300
//! ticks) under windows of 16, 64 and 257 ticks, where a window holds
//! content for many ticks in a row while nothing enters or leaves it. Every
//! tier must emit the same one-span-per-tick output there, one-shot and
//! through a session whose advances end in the middle of such runs, and
//! where `tilt_query` can express the plan, the reference evaluator's too.

use std::sync::Arc;

use proptest::prelude::*;
use tilt_core::ir::{CustomReduce, DataType, Expr, Query, QueryBuilder, ReduceOp, TDom, TObjId};
use tilt_core::{Compiler, ExecTier};
use tilt_data::{streams_close, streams_equivalent, Event, SnapshotBuf, Time, TimeRange, Value};
use tilt_query::{elem, Agg, LogicalPlan};
use tilt_runtime::{KeyedEvent, RuntimeConfig};

mod common;
use common::Single;

/// Deterministic expression/DAG generator driven by one seed.
struct Gen {
    rng: TestRng,
}

impl Gen {
    fn pick(&mut self, n: usize) -> usize {
        self.rng.below(n)
    }

    fn small_float(&mut self) -> f64 {
        // Quarter-steps so equal values (and coalescing) happen often.
        (self.rng.below(41) as f64 - 20.0) * 0.25
    }

    fn small_int(&mut self) -> i64 {
        self.rng.below(21) as i64 - 10
    }

    fn a_str(&mut self) -> &'static str {
        ["hot", "cold", "a", "b"][self.pick(4)]
    }

    /// Objects of a given type available as leaves.
    fn pick_obj(objs: &[(TObjId, DataType)], ty: &DataType, g: &mut Gen) -> Option<TObjId> {
        let candidates: Vec<TObjId> =
            objs.iter().filter(|(_, t)| t == ty).map(|(o, _)| *o).collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[g.pick(candidates.len())])
        }
    }

    /// A leaf expression of the target type.
    fn leaf(&mut self, ty: &DataType, objs: &[(TObjId, DataType)]) -> Expr {
        if self.pick(6) == 0 {
            return Expr::null(); // φ inhabits every type
        }
        if self.pick(2) == 0 {
            if let Some(obj) = Self::pick_obj(objs, ty, self) {
                let offset = self.small_int().clamp(-4, 4);
                return Expr::at_off(obj, offset);
            }
        }
        match ty {
            DataType::Float => {
                // Occasionally project a tuple field (fallback boundary).
                if self.pick(4) == 0 {
                    if let Some(tp) = Self::pick_obj(objs, &tuple_ty(), self) {
                        return Expr::at(tp).get(0);
                    }
                }
                Expr::c(self.small_float())
            }
            DataType::Int => {
                if self.pick(4) == 0 {
                    if let Some(tp) = Self::pick_obj(objs, &tuple_ty(), self) {
                        return Expr::at(tp).get(1);
                    }
                }
                Expr::c(self.small_int())
            }
            DataType::Bool => Expr::c(self.pick(2) == 0),
            DataType::Str => Expr::c(self.a_str()),
            _ => Expr::null(),
        }
    }

    /// A well-typed expression of the target type, depth-bounded.
    fn expr(&mut self, ty: &DataType, depth: u32, objs: &[(TObjId, DataType)]) -> Expr {
        if depth == 0 {
            return self.leaf(ty, objs);
        }
        let d = depth - 1;
        match ty {
            DataType::Float => match self.pick(8) {
                0 | 1 => {
                    // Arithmetic; mixed operands exercise promotion.
                    let ops = [Expr::add, Expr::sub, Expr::mul, Expr::div];
                    let op = ops[self.pick(4)];
                    let rhs_ty = if self.pick(3) == 0 { DataType::Int } else { DataType::Float };
                    op(self.expr(&DataType::Float, d, objs), self.expr(&rhs_ty, d, objs))
                }
                2 => Expr::if_else(
                    self.expr(&DataType::Bool, d, objs),
                    self.expr(&DataType::Float, d, objs),
                    self.expr(&DataType::Float, d, objs),
                ),
                // Mixed-branch if: static type Float, runtime int/float.
                3 => Expr::if_else(
                    self.expr(&DataType::Bool, d, objs),
                    self.expr(&DataType::Int, d, objs),
                    self.expr(&DataType::Float, d, objs),
                ),
                4 => self.expr(&DataType::Float, d, objs).neg(),
                5 => self.expr(&DataType::Float, d, objs).abs(),
                6 => self.expr(&DataType::Float, d, objs).sqrt(),
                _ => Expr::Unary(
                    tilt_core::ir::UnOp::ToFloat,
                    Box::new(self.expr(&DataType::Int, d, objs)),
                ),
            },
            DataType::Int => match self.pick(6) {
                0 | 1 => {
                    let ops = [Expr::add, Expr::sub, Expr::mul, Expr::div, Expr::rem];
                    let op = ops[self.pick(5)];
                    op(self.expr(&DataType::Int, d, objs), self.expr(&DataType::Int, d, objs))
                }
                2 => Expr::if_else(
                    self.expr(&DataType::Bool, d, objs),
                    self.expr(&DataType::Int, d, objs),
                    self.expr(&DataType::Int, d, objs),
                ),
                3 => self.expr(&DataType::Int, d, objs).abs(),
                4 => Expr::Unary(
                    tilt_core::ir::UnOp::ToInt,
                    Box::new(self.expr(&DataType::Float, d, objs)),
                ),
                _ => self.leaf(&DataType::Int, objs),
            },
            DataType::Bool => match self.pick(8) {
                0 => self.expr(&DataType::Float, d, objs).lt(self.expr(&DataType::Float, d, objs)),
                1 => self.expr(&DataType::Int, d, objs).ge(self.expr(&DataType::Int, d, objs)),
                // Mixed-class comparison (int vs float promotes).
                2 => self.expr(&DataType::Float, d, objs).gt(self.expr(&DataType::Int, d, objs)),
                // Equality across every class, including the quirky mixed
                // int/float case and Str (fallback boundary).
                3 => {
                    let eq_ty = [DataType::Float, DataType::Int, DataType::Bool, DataType::Str]
                        [self.pick(4)]
                    .clone();
                    let lhs = self.expr(&eq_ty, d, objs);
                    let rhs = self.expr(&eq_ty, d, objs);
                    if self.pick(2) == 0 {
                        lhs.eq(rhs)
                    } else {
                        lhs.ne(rhs)
                    }
                }
                4 => self.expr(&DataType::Bool, d, objs).and(self.expr(&DataType::Bool, d, objs)),
                5 => self.expr(&DataType::Bool, d, objs).or(self.expr(&DataType::Bool, d, objs)),
                6 => {
                    let any_ty =
                        [DataType::Float, DataType::Int, DataType::Str][self.pick(3)].clone();
                    self.expr(&any_ty, d, objs).is_null()
                }
                _ => Expr::Unary(
                    tilt_core::ir::UnOp::Not,
                    Box::new(self.expr(&DataType::Bool, d, objs)),
                ),
            },
            DataType::Str => {
                if self.pick(2) == 0 {
                    Expr::if_else(
                        self.expr(&DataType::Bool, d, objs),
                        self.leaf(&DataType::Str, objs),
                        self.leaf(&DataType::Str, objs),
                    )
                } else {
                    self.leaf(&DataType::Str, objs)
                }
            }
            _ => self.leaf(ty, objs),
        }
    }

    /// Appends 1..=4 temporal stages over `objs`, returning the output.
    fn stages(
        &mut self,
        b: &mut QueryBuilder,
        objs: &mut Vec<(TObjId, DataType)>,
        numeric_only: bool,
    ) -> TObjId {
        let n = 1 + self.pick(3);
        let mut last = objs[0].0;
        for si in 0..=n {
            let name = format!("s{si}");
            let (obj, ty) = match self.pick(5) {
                // Window reduction over a numeric upstream object.
                0 | 1 => {
                    let srcs: Vec<TObjId> = objs
                        .iter()
                        .filter(|(_, t)| matches!(t, DataType::Float | DataType::Int))
                        .map(|(o, _)| *o)
                        .collect();
                    let src = srcs[self.pick(srcs.len())];
                    let size = 1 + self.pick(10) as i64;
                    let prec = 1 + self.pick(3) as i64;
                    let op = match self.pick(7) {
                        0 => ReduceOp::Sum,
                        1 => ReduceOp::Count,
                        2 => ReduceOp::Mean,
                        3 => ReduceOp::Min,
                        4 => ReduceOp::Max,
                        5 => ReduceOp::StdDev,
                        _ => ReduceOp::Custom(last_value_reduce()),
                    };
                    let src_ty = objs
                        .iter()
                        .find(|(o, _)| *o == src)
                        .map(|(_, t)| t.clone())
                        .expect("source tracked");
                    let ty = op.result_type(&src_ty);
                    let body = Expr::reduce_window(op, src, size);
                    (b.temporal(&name, TDom::unbounded(prec), body), ty)
                }
                // Sampled (chop) stage: re-emits a numeric object.
                2 => {
                    let srcs: Vec<(TObjId, DataType)> = objs
                        .iter()
                        .filter(|(_, t)| matches!(t, DataType::Float | DataType::Int))
                        .cloned()
                        .collect();
                    let (src, ty) = srcs[self.pick(srcs.len())].clone();
                    let prec = 1 + self.pick(3) as i64;
                    (b.temporal_sampled(&name, TDom::unbounded(prec), Expr::at(src)), ty)
                }
                // Pointwise stage.
                _ => {
                    let ty = if numeric_only {
                        [DataType::Float, DataType::Int][self.pick(2)].clone()
                    } else {
                        [DataType::Float, DataType::Int, DataType::Bool][self.pick(3)].clone()
                    };
                    let depth = 1 + self.pick(3) as u32;
                    let body = self.expr(&ty, depth, objs);
                    (b.temporal(&name, TDom::every_tick(), body), ty)
                }
            };
            objs.push((obj, ty));
            last = obj;
        }
        last
    }
}

fn tuple_ty() -> DataType {
    DataType::Tuple(vec![DataType::Float, DataType::Int])
}

/// A non-invertible custom reduction ("last value"): exercises the
/// full-window recompute path and the typed tier's boxed reduce results.
fn last_value_reduce() -> Arc<CustomReduce> {
    Arc::new(CustomReduce {
        name: "last".into(),
        result_type: DataType::Float,
        init: Value::Null,
        acc: Arc::new(|_, v, _| v.to_float()),
        deacc: None,
        result: Arc::new(|s, _| s.clone()),
    })
}

/// Random sorted, disjoint event stream over roughly (0, 200].
fn stream(g: &mut Gen, mk: &mut dyn FnMut(&mut Gen) -> Value) -> Vec<Event<Value>> {
    let n = g.pick(40);
    let mut t = 0i64;
    let mut out = Vec::new();
    for _ in 0..n {
        let gap = 1 + g.pick(5) as i64; // φ-heavy: every stream has gaps
        let len = 1 + g.pick(4) as i64;
        let start = t + gap;
        let end = start + len;
        out.push(Event::new(Time::new(start), Time::new(end), mk(g)));
        t = end;
    }
    out
}

/// Builds the 4-input query plus matching random input buffers.
fn full_case(seed: u64) -> (Query, Vec<Vec<Event<Value>>>) {
    let mut g = Gen { rng: TestRng::new(seed) };
    let mut b = Query::builder();
    let f = b.input("f", DataType::Float);
    let i = b.input("i", DataType::Int);
    let s = b.input("s", DataType::Str);
    let tp = b.input("tp", tuple_ty());
    let mut objs =
        vec![(f, DataType::Float), (i, DataType::Int), (s, DataType::Str), (tp, tuple_ty())];
    let out = g.stages(&mut b, &mut objs, false);
    let q = b.finish(out).expect("generated query is well-formed");
    let events = vec![
        stream(&mut g, &mut |g| Value::Float(g.small_float())),
        stream(&mut g, &mut |g| Value::Int(g.small_int())),
        stream(&mut g, &mut |g| Value::str(g.a_str())),
        stream(&mut g, &mut |g| {
            Value::tuple([Value::Float(g.small_float()), Value::Int(g.small_int())])
        }),
    ];
    (q, events)
}

fn run_tiers(q: &Query, events: &[Vec<Event<Value>>], optimized: bool) {
    let base = if optimized { Compiler::new() } else { Compiler::unoptimized() };
    let batched = base.compile(q).expect("compiles (batched tier)");
    let per_tick = base.with_tier(ExecTier::Compiled).compile(q).expect("compiles (per-tick tier)");
    let interp = base.with_tier(ExecTier::Interpreted).compile(q).expect("compiles (interpreter)");
    assert_eq!(batched.tier(), ExecTier::Batched);
    assert_eq!(per_tick.tier(), ExecTier::Compiled);
    assert_eq!(per_tick.batched_kernels(), 0);
    assert_eq!(interp.tier(), ExecTier::Interpreted);
    assert_eq!(interp.compiled_kernels(), 0);

    let hi = events.iter().flat_map(|evs| evs.last()).map(|e| e.end).max().unwrap_or(Time::new(8));
    let range = TimeRange::new(Time::ZERO, (hi + 16).align_up(batched.grid()));
    let bufs: Vec<SnapshotBuf<Value>> =
        events.iter().map(|evs| SnapshotBuf::from_events(evs, range)).collect();
    let refs: Vec<&SnapshotBuf<Value>> = bufs.iter().collect();
    let a = batched.run(&refs, range);
    let b = per_tick.run(&refs, range);
    let c = interp.run(&refs, range);
    // Byte-identical: same span boundaries, same payload bits.
    assert_eq!(a, b, "batched vs per-tick diverged (optimized={optimized})");
    assert_eq!(b, c, "per-tick vs interpreted diverged (optimized={optimized})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One-shot differential: random well-typed DAGs over Float/Int/Str/
    /// Tuple inputs (φ-heavy streams, fallback boundaries, custom reduces)
    /// are byte-identical across all three tiers, fused and unfused.
    #[test]
    fn compiled_tier_matches_interpreter_oneshot(seed in any::<u64>()) {
        let (q, events) = full_case(seed);
        run_tiers(&q, &events, true);
        run_tiers(&q, &events, false);
    }
}

/// Run state is filed per kernel and kept by the thread, and a dropped
/// kernel's address comes back for the next one compiled: queries of every
/// register-file shape the generator makes are compiled, run on **one**
/// thread — one scratch — and dropped, in a loop long enough for the
/// allocator to hand addresses out again and for the scratch to start over
/// several times. State filed under anything that can be reused (an
/// address) answers a new kernel with an old kernel's registers; every
/// output must equal that of a thread which never ran anything else.
#[test]
fn scratch_does_not_alias_recompiled_kernels() {
    let mut rng = TestRng::new(proptest::resolved_seed("scratch_does_not_alias"));
    for _ in 0..120 {
        let (q, events) = full_case(rng.next_u64());
        for optimized in [true, false] {
            let base = if optimized { Compiler::new() } else { Compiler::unoptimized() };
            let cq = base.compile(&q).expect("compiles");
            let hi = events.iter().flat_map(|evs| evs.last()).map(|e| e.end).max();
            let range =
                TimeRange::new(Time::ZERO, (hi.unwrap_or(Time::new(8)) + 16).align_up(cq.grid()));
            let bufs: Vec<SnapshotBuf<Value>> =
                events.iter().map(|evs| SnapshotBuf::from_events(evs, range)).collect();
            let refs: Vec<&SnapshotBuf<Value>> = bufs.iter().collect();
            let fresh = std::thread::scope(|s| {
                s.spawn(|| cq.run(&refs, range)).join().expect("reference run")
            });
            // Twice: the second run resets the state the first one shaped.
            for _ in 0..2 {
                assert_eq!(cq.run(&refs, range), fresh, "diverged from a fresh thread's run");
            }
        }
    }
}

/// Builds a single-input numeric DAG (the shape the keyed service runs).
fn keyed_case(seed: u64) -> (Query, Vec<Vec<Event<Value>>>) {
    let mut g = Gen { rng: TestRng::new(seed) };
    let mut b = Query::builder();
    let f = b.input("x", DataType::Float);
    let mut objs = vec![(f, DataType::Float)];
    let out = g.stages(&mut b, &mut objs, true);
    let q = b.finish(out).expect("generated query is well-formed");
    let keys = 1 + g.pick(4);
    let streams =
        (0..keys).map(|_| stream(&mut g, &mut |g| Value::Float(g.small_float()))).collect();
    (q, streams)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Service differential: the same keyed workload through a sharded
    /// `StreamService` produces identical per-key output whether the query
    /// was compiled to the batched tier, the per-tick tier, or pinned to
    /// the interpreter — at 1, 2, and 4 shards.
    #[test]
    fn compiled_tier_matches_interpreter_through_service(
        seed in any::<u64>(),
        shard_pick in 0usize..3,
    ) {
        let shards = [1, 2, 4][shard_pick];
        let (q, streams) = keyed_case(seed);
        let tiers = [
            Arc::new(Compiler::new().compile(&q).expect("compiles")),
            Arc::new(Compiler::new().with_tier(ExecTier::Compiled).compile(&q).expect("compiles")),
            Arc::new(Compiler::interpreted().compile(&q).expect("compiles")),
        ];

        let mut arrivals: Vec<KeyedEvent> = streams
            .iter()
            .enumerate()
            .flat_map(|(k, evs)| {
                evs.iter().map(move |e| KeyedEvent::new(k as u64, 0, e.clone()))
            })
            .collect();
        arrivals.sort_by_key(|ke| (ke.event.end, ke.key));
        let hi = arrivals.iter().map(|ke| ke.event.end).max().unwrap_or(Time::new(4));
        let end = (hi + 32).align_up(tiers[0].grid());

        let config = RuntimeConfig {
            shards,
            allowed_lateness: 0,
            emit_interval: 4,
            ..RuntimeConfig::default()
        };
        let outs: Vec<_> = tiers
            .iter()
            .map(|cq| {
                let svc = Single::start(Arc::clone(cq), config);
                svc.ingest(arrivals.iter().cloned());
                svc.finish_at(end)
            })
            .collect();

        prop_assert_eq!(outs[0].stats.late_dropped, 0);
        for (pair, name) in
            [((0usize, 1usize), "batched vs per-tick"), ((1, 2), "per-tick vs interpreted")]
        {
            let (a, b) = (&outs[pair.0], &outs[pair.1]);
            prop_assert_eq!(a.per_key.len(), b.per_key.len());
            for (key, got) in &a.per_key {
                let want = &b.per_key[key];
                prop_assert_eq!(
                    got, want,
                    "key {} diverged ({}) at {} shards", key, name, shards
                );
            }
        }
    }
}

/// Sorted, disjoint events separated by gaps of 1–300 ticks — so a window
/// of 16, 64 or 257 ticks spends most of its life between two change
/// points — with payloads drawn from `vals`: point events, or intervals of
/// 1–40 ticks.
fn sparse_stream(g: &mut Gen, intervals: bool, vals: &[f64]) -> Vec<Event<Value>> {
    let n = 20 + g.pick(30);
    let mut t = 0i64;
    (0..n)
        .map(|_| {
            let start = t + g.pick(300) as i64;
            let end = start + if intervals { 1 + g.pick(40) as i64 } else { 1 };
            t = end;
            Event::new(Time::new(start), Time::new(end), Value::Float(vals[g.pick(vals.len())]))
        })
        .collect()
}

/// Small integers: every sum, mean numerator and sum of squares over them
/// is exact in `f64`, so Subtract-on-Evict and a naive fold agree to the bit.
const SMALL_INTS: [f64; 8] = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 4.0];
/// Signed powers of two: products and their inverses are exact. (No zeros:
/// a window holding *only* zeros is `Int(0)` on the interpreter and
/// `Float(0.0)` on the typed tiers — an older divergence, not this suite's.)
const POWERS: [f64; 5] = [0.5, 1.0, 2.0, -1.0, -2.0];

/// A session fed everything that starts before each multiple of `step` and
/// advanced there, then flushed to `end`: the advances of a long quiet run
/// end inside it.
fn stepped_session(
    cq: &tilt_core::CompiledQuery,
    events: &[Event<Value>],
    step: i64,
    end: Time,
) -> Vec<Event<Value>> {
    let mut session = cq.stream_session(Time::ZERO);
    let mut out = Vec::new();
    let mut pushed = 0;
    let mut upto = Time::new(step);
    while upto < end {
        let n = events[pushed..].partition_point(|e| e.start < upto);
        session.push_events(0, &events[pushed..pushed + n]);
        pushed += n;
        out.extend(session.advance_to(upto).to_events());
        upto += step;
    }
    session.push_events(0, &events[pushed..]);
    out.extend(session.flush_to(end).to_events());
    out
}

/// The range the quiet-run cases cover: the stream plus room for the widest
/// window to drain, ending on the grid.
fn sparse_range(events: &[Event<Value>], grid: i64) -> TimeRange {
    let hi = events.last().expect("non-empty stream").end;
    TimeRange::new(Time::ZERO, (hi + 300).align_up(grid))
}

/// All three tiers over `events`, one-shot and as a stepped session: the
/// buffers byte-identical, the sessions event-identical, and a session
/// equivalent to the one-shot run. Returns the one-shot events.
fn assert_tiers_agree(name: &str, q: &Query, events: &[Event<Value>]) -> Vec<Event<Value>> {
    let tiers = [ExecTier::Batched, ExecTier::Compiled, ExecTier::Interpreted]
        .map(|tier| Compiler::new().with_tier(tier).compile(q).expect("compiles"));
    let range = sparse_range(events, tiers[0].grid());
    let buf = SnapshotBuf::from_events(events, range);
    let runs = tiers.each_ref().map(|cq| cq.run(&[&buf], range));
    assert_eq!(runs[0], runs[1], "{name}: batched vs per-tick diverged");
    assert_eq!(runs[1], runs[2], "{name}: per-tick vs interpreted diverged");
    let oneshot = runs[0].to_events();
    // 37 shares no factor with the windows or the strides: advance edges
    // drift through every phase of a quiet run.
    let sessions = tiers.each_ref().map(|cq| stepped_session(cq, events, 37, range.end));
    assert_eq!(sessions[0], sessions[1], "{name}: batched vs per-tick sessions diverged");
    assert_eq!(sessions[1], sessions[2], "{name}: per-tick vs interpreted sessions diverged");
    assert!(streams_equivalent(&oneshot, &sessions[0]), "{name}: session diverged from one-shot");
    oneshot
}

/// `tilt_query`'s reference evaluator over the same range as
/// [`assert_tiers_agree`].
fn reference_events(
    plan: &LogicalPlan,
    out: tilt_query::NodeId,
    events: &[Event<Value>],
    grid: i64,
) -> Vec<Event<Value>> {
    tilt_query::reference::evaluate(plan, out, &[events.to_vec()], sparse_range(events, grid))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Quiet runs: every built-in reduction (subtract-on-evict, deque and
    /// recompute accumulators) over sparse point and interval streams,
    /// windows 16 / 64 / 257 at stride 1 and 4 — all tiers byte-identical,
    /// one-shot and chunked, and equal to the reference evaluator.
    #[test]
    fn quiet_runs_match_across_tiers_and_the_reference(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        for intervals in [false, true] {
            let events = sparse_stream(&mut g, intervals, &SMALL_INTS);
            for window in [16i64, 64, 257] {
                for stride in [1i64, 4] {
                    for agg in [Agg::Sum, Agg::Count, Agg::Mean, Agg::StdDev, Agg::Min, Agg::Max] {
                        let name = format!("{agg:?} w={window} s={stride} intervals={intervals}");
                        let mut plan = LogicalPlan::new();
                        let src = plan.source("x", DataType::Float);
                        let out = plan.window(src, window, stride, agg.clone());
                        let q = tilt_query::lower(&plan, out).expect("window plan lowers");
                        let got = assert_tiers_agree(&name, &q, &events);
                        let want = reference_events(&plan, out, &events, stride);
                        // The reference's two-pass σ differs from the
                        // running sums in the last bits; the rest is exact.
                        let ok = if matches!(agg, Agg::StdDev) {
                            streams_close(&want, &got, 1e-9)
                        } else {
                            streams_equivalent(&want, &got)
                        };
                        prop_assert!(ok, "{}: diverged from the reference", name);
                    }
                    // Product has no logical-plan aggregate: tiers only.
                    let products = sparse_stream(&mut g, intervals, &POWERS);
                    let mut b = Query::builder();
                    let x = b.input("x", DataType::Float);
                    let body = Expr::reduce_window(ReduceOp::Product, x, window);
                    let out = b.temporal("product", TDom::unbounded(stride), body);
                    let q = b.finish(out).expect("well-formed");
                    assert_tiers_agree(&format!("Product w={window} s={stride}"), &q, &products);
                }
            }
        }
    }

    /// Quiet runs in composite bodies: two reduces of different widths in
    /// one kernel (the run ends at the earlier change point of the two), a
    /// reduce beside a point read and a backward shift of the same input
    /// (point boundaries end a run too), a filter fused into the window as
    /// a map that drops elements to φ, and a body that reads the clock —
    /// whose lanes differ tick by tick and must never be copied.
    #[test]
    fn quiet_runs_in_composite_bodies(seed in any::<u64>()) {
        let mut g = Gen { rng: TestRng::new(seed) };
        let or_zero = |e: Expr| Expr::if_else(e.clone().is_present(), e, Expr::c(0.0));
        for intervals in [false, true] {
            let events = sparse_stream(&mut g, intervals, &SMALL_INTS);
            for window in [16i64, 64, 257] {
                for stride in [1i64, 4] {
                    let tag = format!("w={window} s={stride} intervals={intervals}");
                    let single = |name: &str, body: &dyn Fn(TObjId) -> Expr| {
                        let mut b = Query::builder();
                        let x = b.input("x", DataType::Float);
                        let out = b.temporal(name, TDom::unbounded(stride), body(x));
                        let q = b.finish(out).expect("well-formed");
                        let cq = Compiler::new().compile(&q).expect("compiles");
                        assert_eq!(cq.num_kernels(), 1, "{name}: one fused body");
                        assert_tiers_agree(&format!("{name} {tag}"), &q, &events)
                    };
                    single("two_widths", &|x| {
                        Expr::reduce_window(ReduceOp::Sum, x, window)
                            .sub(Expr::reduce_window(ReduceOp::Max, x, window / 4 + 1))
                    });
                    single("beside_reads", &|x| {
                        Expr::reduce_window(ReduceOp::Mean, x, window)
                            .add(or_zero(Expr::at(x)))
                            .add(or_zero(Expr::at_off(x, -3)).mul(Expr::c(0.5)))
                    });
                    single("reads_clock", &|x| {
                        Expr::reduce_window(ReduceOp::Sum, x, window).add(Expr::Unary(
                            tilt_core::ir::UnOp::ToFloat,
                            Box::new(Expr::Time),
                        ))
                    });

                    // Where + Window: the optimizer fuses the filter into
                    // the window as its map; non-positive elements drop.
                    for agg in [Agg::Sum, Agg::Count] {
                        let mut plan = LogicalPlan::new();
                        let src = plan.source("x", DataType::Float);
                        let kept = plan.where_(src, elem().gt(Expr::c(0.0)));
                        let out = plan.window(kept, window, stride, agg.clone());
                        let q = tilt_query::lower(&plan, out).expect("filtered window lowers");
                        let cq = Compiler::new().compile(&q).expect("compiles");
                        prop_assert_eq!(cq.num_kernels(), 1, "the filter fuses into the window");
                        let name = format!("filtered {agg:?} {tag}");
                        let got = assert_tiers_agree(&name, &q, &events);
                        let want = reference_events(&plan, out, &events, stride);
                        prop_assert!(
                            streams_equivalent(&want, &got),
                            "{}: diverged from the reference", name
                        );
                    }
                }
            }
        }
    }
}

/// Deterministic word-edge coverage for the batched tier: a fused numeric
/// plan driven over dense runs of exactly 63/64/65/128/130 ticks (the
/// `NullMask` word size is 64, the batch cap 256), with φ gaps positioned
/// to straddle lane-word boundaries. All three tiers must agree
/// byte-for-byte, and the plan must actually take the batched path.
#[test]
fn batched_tier_word_boundary_runs() {
    for total_ticks in [63i64, 64, 65, 128, 130, 257] {
        for gap_at in [None, Some(62i64), Some(63), Some(64), Some(65), Some(127)] {
            let mut b = Query::builder();
            let x = b.input("x", DataType::Float);
            let sum =
                b.temporal("sum", TDom::unbounded(1), Expr::reduce_window(ReduceOp::Sum, x, 16));
            let out = b.temporal(
                "out",
                TDom::every_tick(),
                Expr::at(sum).mul(Expr::c(2.0)).add(Expr::at(x)),
            );
            let q = b.finish(out).expect("well-formed");

            // One long span, optionally interrupted by a φ gap whose edges
            // land on/next to a 64-lane word boundary.
            let mut events = Vec::new();
            match gap_at {
                None => {
                    events.push(Event::new(Time::ZERO, Time::new(total_ticks), Value::Float(1.5)))
                }
                Some(g) if g + 2 < total_ticks => {
                    events.push(Event::new(Time::ZERO, Time::new(g), Value::Float(1.5)));
                    events.push(Event::new(
                        Time::new(g + 2),
                        Time::new(total_ticks),
                        Value::Float(-0.25),
                    ));
                }
                Some(_) => continue,
            }

            let batched = Compiler::new().compile(&q).expect("compiles");
            assert_eq!(batched.batched_kernels(), batched.num_kernels());
            assert!(batched.fully_typed());
            let per_tick =
                Compiler::new().with_tier(ExecTier::Compiled).compile(&q).expect("compiles");
            let interp = Compiler::interpreted().compile(&q).expect("compiles");

            let range = TimeRange::new(Time::ZERO, Time::new(total_ticks));
            let bufs = [SnapshotBuf::from_events(&events, range)];
            let refs: Vec<&SnapshotBuf<Value>> = bufs.iter().collect();
            let a = batched.run(&refs, range);
            let bt = per_tick.run(&refs, range);
            let c = interp.run(&refs, range);
            assert_eq!(a, bt, "batched vs per-tick diverged (ticks={total_ticks}, gap={gap_at:?})");
            assert_eq!(
                bt, c,
                "per-tick vs interpreted diverged (ticks={total_ticks}, gap={gap_at:?})"
            );
        }
    }

    // Quiet runs against the same edges: a point event at tick 1 opens a
    // batch at lane 0 and a window of 64 / 300 ticks holds it while
    // nothing else happens; a second event `second_at` lanes later ends
    // the run on / next to a 64-lane word boundary or the 256-lane batch
    // cap, and with the 300-tick window the first run crosses the cap.
    for window in [64i64, 300] {
        for second_at in [62i64, 63, 64, 65, 66, 127, 128, 129, 254, 255, 256, 257, 258] {
            let mut b = Query::builder();
            let x = b.input("x", DataType::Float);
            let sum = Expr::reduce_window(ReduceOp::Sum, x, window);
            let count = Expr::reduce_window(ReduceOp::Count, x, window / 2);
            let body = sum.mul(Expr::c(2.0)).add(Expr::if_else(
                count.clone().is_present(),
                Expr::Unary(tilt_core::ir::UnOp::ToFloat, Box::new(count)),
                Expr::c(-1.0),
            ));
            let out = b.temporal("out", TDom::every_tick(), body);
            let q = b.finish(out).expect("well-formed");
            let batched = Compiler::new().compile(&q).expect("compiles");
            assert_eq!(batched.batched_kernels(), 1);
            let events = [
                Event::point(Time::new(1), Value::Float(1.5)),
                Event::point(Time::new(1 + second_at), Value::Float(-0.25)),
            ];
            assert_tiers_agree(&format!("w={window} second_at={second_at}"), &q, &events);
        }
    }
}

/// Runs `q` over `events` on a fresh, profiled batched compile after
/// checking that all three tiers agree byte for byte; returns the profiled
/// query so its counters describe exactly that one pass.
fn profiled_pass(q: &Query, events: &[Event<Value>]) -> tilt_core::CompiledQuery {
    run_tiers(q, &[events.to_vec()], true);
    let cq = Compiler::new().compile(q).expect("compiles");
    cq.set_profiling(true);
    let range =
        TimeRange::new(Time::ZERO, (events.last().expect("events").end + 8).align_up(cq.grid()));
    cq.run(&[&SnapshotBuf::from_events(events, range)], range);
    cq
}

/// What the kernel profiles promise about the hot loops, on three fixed
/// plans. A numeric filter fused into a strided window sum runs its fused
/// map once per event, never again on eviction (Subtract-on-Evict reuses
/// the cached mapped value; a re-mapping evictor reads ≈ 2 per event). An
/// every-tick sliding sum over one event per 150–249 ticks slides its
/// window only where an event enters or leaves it, plus once per run to
/// find the first quiet stretch — `slides ≤ 2·events + runs` — and copies
/// the lanes in between (a per-lane slide reads 64 per event). A `Str`
/// filter stays correct, off the batched tier and visible in the fallback
/// counters.
#[test]
fn kernel_profiles_count_map_runs_and_slides() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let n = 20_000usize;
    let dense: Vec<Event<Value>> = (1..=n as i64)
        .map(|t| Event::point(Time::new(t), Value::Float(draw() as f64 / (1u64 << 31) as f64)))
        .collect();
    let mut t = 0i64;
    let sparse: Vec<Event<Value>> = (0..n)
        .map(|_| {
            t += 150 + (draw() % 100) as i64;
            Event::point(Time::new(t), Value::Float((draw() % 64) as f64 * 0.25))
        })
        .collect();
    let words: Vec<Event<Value>> = (1..=n as i64)
        .map(|t| Event::point(Time::new(t), Value::str(["hot", "cold", "warm"][(t % 3) as usize])))
        .collect();

    // Filter → strided window sum (4-tick panes, the YSB shape).
    let mut b = Query::builder();
    let x = b.input("x", DataType::Float);
    let scaled =
        b.temporal("scaled", TDom::every_tick(), Expr::at(x).mul(Expr::c(2.5)).sub(Expr::c(0.3)));
    let hot = b.temporal(
        "hot",
        TDom::every_tick(),
        Expr::if_else(Expr::at(scaled).gt(Expr::c(0.2)), Expr::at(scaled), Expr::null()),
    );
    let wsum = b.temporal("wsum", TDom::unbounded(4), Expr::reduce_window(ReduceOp::Sum, hot, 64));
    let window_sum = b.finish(wsum).expect("well-formed");
    let cq = profiled_pass(&window_sum, &dense);
    assert!(cq.fully_typed());
    assert_eq!(cq.fallback_ops(), 0);
    assert_eq!(cq.batched_kernels(), cq.num_kernels(), "every numeric kernel clears the gate");
    let map_runs: u64 = cq.kernel_profiles().iter().map(|k| k.map_runs).sum();
    assert!(map_runs > 0, "the filter must be fused into the window's map");
    let rate = map_runs as f64 / n as f64;
    assert!(rate <= 1.05, "fused map ran {rate:.3} times per event");

    // Every-tick sliding sum over a sparse stream.
    let mut b = Query::builder();
    let x = b.input("x", DataType::Float);
    let out = b.temporal("wsum", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, x, 64));
    let cq = profiled_pass(&b.finish(out).expect("well-formed"), &sparse);
    assert!(cq.fully_typed());
    assert_eq!(cq.fallback_ops(), 0);
    assert_eq!(cq.batched_kernels(), cq.num_kernels());
    let profile = cq.kernel_profiles();
    let slides: u64 = profile.iter().map(|k| k.slides).sum();
    let runs: u64 = profile.iter().map(|k| k.invocations).sum();
    assert!(slides > 0, "the batched tier must slide somewhere");
    assert!(
        slides <= 2 * n as u64 + runs,
        "{slides} slides for {n} events in {runs} runs: the window slid between change points"
    );

    // A `Str` filter under a mean: fallback ops visible, kept off the
    // batched tier, its map still run once per event.
    let mut b = Query::builder();
    let s = b.input("s", DataType::Str);
    let flagged = b.temporal(
        "flagged",
        TDom::every_tick(),
        Expr::if_else(Expr::at(s).eq(Expr::c("hot")), Expr::c(1.0), Expr::c(0.0)),
    );
    let out = b.temporal(
        "smoothed",
        TDom::every_tick(),
        Expr::reduce_window(ReduceOp::Mean, flagged, 32),
    );
    let cq = profiled_pass(&b.finish(out).expect("well-formed"), &words);
    assert!(!cq.fully_typed());
    assert!(cq.fallback_ops() > 0, "Str comparisons must show in the fallback counter");
    assert_eq!(cq.batched_kernels(), 0, "Str bodies stay off the batched tier");
    let rate = cq.map_runs() as f64 / n as f64;
    assert!(rate <= 1.05, "fused map ran {rate:.3} times per event");
}
