//! Query execution: serial, data-parallel, and batched streaming modes
//! (paper §6.2).
//!
//! The [`Compiler`] drives the full pipeline (type check → optimize →
//! boundary-resolve → lower) and produces a [`CompiledQuery`]. Execution is
//! synchronization-free data parallelism: the time range is cut at
//! grid-aligned boundaries, every worker runs the whole kernel chain on its
//! partition — re-reading the boundary-resolved lookback region of the
//! shared, read-only input buffers — and the partition outputs are
//! concatenated (Fig. 6).
//!
//! Batched streaming runs those partitions one at a time as events arrive:
//! a [`SharedStreamSession`] keeps each input's boundary-resolved lookback
//! and turns every advance into one partition run. It is a
//! [`SharedGroupSession`] over a group of one query, so single-query and
//! multi-query streaming are one implementation (`crate::sharing`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tilt_data::{BufPool, Event, SnapshotBuf, Time, TimeRange, Value};

use crate::analysis::{resolve_boundaries, Boundary, Extent};
use crate::codegen::{lower, lower_typed, Kernel, KernelProfile, Scratch};
use crate::error::Result;
use crate::ir::{typecheck, Query, TObjId};
use crate::opt::Optimizer;
use crate::sharing::{QueryGroup, SharedGroupSession};

/// Which kernel-body execution tier the compiler emits (see
/// [`crate::codegen`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecTier {
    /// Typed register bytecode executed over *runs* of grid ticks at once:
    /// columnar registers, word-level φ masks, one dispatch per instruction
    /// per run (the default). Source buffers are read as typed columns —
    /// a reduce window folds each entering run of spans in one loop, its
    /// fused map over the run as lanes — and the result lanes are appended
    /// to the output's typed column as they are. Kernels whose bodies don't
    /// pass the batch gate transparently execute per-tick, so this tier is
    /// always safe to select.
    #[default]
    Batched,
    /// Typed register bytecode over unboxed values, dispatched once per
    /// grid tick (and once per element for fused maps), with per-subtree
    /// fallback to boxed `Value` operations — the scalar reference for the
    /// batched tier. Reads and writes the same typed columns.
    Compiled,
    /// The closure-tree interpreter over dynamic `Value`s only — the
    /// reference tier, kept selectable for differential testing and the
    /// ladder's `core.exec.interp_mev_s` reading. Every read materializes a
    /// `Value` from the source column.
    Interpreted,
}

/// Compiles TiLT IR queries into executable form.
///
/// ```
/// use tilt_core::{Compiler, ir::{Query, DataType, Expr, TDom}};
/// let mut b = Query::builder();
/// let input = b.input("in", DataType::Float);
/// let out = b.temporal("out", TDom::every_tick(), Expr::at(input).mul(Expr::c(2.0)));
/// let query = b.finish(out).unwrap();
/// let compiled = Compiler::new().compile(&query).unwrap();
/// assert_eq!(compiled.num_kernels(), 1);
/// assert!(compiled.fully_typed()); // numeric plan: no fallback surface
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Compiler {
    optimizer: Optimizer,
    tier: ExecTier,
}

impl Compiler {
    /// A compiler with the full optimization pipeline and the batched
    /// typed execution tier — the default configuration.
    pub fn new() -> Self {
        Compiler { optimizer: Optimizer::full(), tier: ExecTier::Batched }
    }

    /// A compiler with all optimizations disabled: one kernel per operator,
    /// intermediates materialized — the "TiLT UnOpt" configuration of the
    /// Fig. 10 ablation. (The execution tier is orthogonal and stays
    /// [`ExecTier::Batched`].)
    pub fn unoptimized() -> Self {
        Compiler { optimizer: Optimizer::none(), tier: ExecTier::Batched }
    }

    /// A fully optimized compiler pinned to the interpreter tier — the
    /// reference executor the differential suites compare the typed tier
    /// against.
    pub fn interpreted() -> Self {
        Compiler { optimizer: Optimizer::full(), tier: ExecTier::Interpreted }
    }

    /// A compiler with a custom pass configuration.
    pub fn with_optimizer(optimizer: Optimizer) -> Self {
        Compiler { optimizer, tier: ExecTier::Batched }
    }

    /// Selects the kernel-body execution tier.
    pub fn with_tier(mut self, tier: ExecTier) -> Self {
        self.tier = tier;
        self
    }

    /// Compiles `query` through the whole pipeline.
    ///
    /// # Errors
    ///
    /// Propagates type errors and structural errors from any stage.
    pub fn compile(&self, query: &Query) -> Result<CompiledQuery> {
        typecheck(query)?;
        let optimized = self.optimizer.optimize(query)?;
        let types = typecheck(&optimized)?;
        let boundary = resolve_boundaries(&optimized);
        let kernels = match self.tier {
            ExecTier::Batched => lower_typed(&optimized, &types, true)?,
            ExecTier::Compiled => lower_typed(&optimized, &types, false)?,
            ExecTier::Interpreted => lower(&optimized)?,
        };
        let n_slots = slot_count(&optimized);
        let grid = kernels.iter().map(|k| k.precision).fold(1, lcm);
        Ok(CompiledQuery { query: optimized, kernels, boundary, n_slots, grid, tier: self.tier })
    }
}

fn slot_count(q: &Query) -> usize {
    let max_input = q.inputs().iter().map(|o| o.index()).max().unwrap_or(0);
    let max_expr = q.exprs().iter().map(|e| e.output.index()).max().unwrap_or(0);
    max_input.max(max_expr) + 1
}

/// Execution statistics returned by the timed entry points.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Number of snapshots in the query output.
    pub output_spans: usize,
}

/// A fully compiled, executable query.
pub struct CompiledQuery {
    query: Query,
    kernels: Vec<Kernel>,
    boundary: Boundary,
    n_slots: usize,
    grid: i64,
    tier: ExecTier,
}

impl std::fmt::Debug for CompiledQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledQuery")
            .field("kernels", &self.kernels.iter().map(|k| &k.name).collect::<Vec<_>>())
            .finish()
    }
}

impl CompiledQuery {
    /// The optimized query this executable was lowered from.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The lowered kernels in execution (topological) order.
    pub(crate) fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// The resolved boundary conditions.
    pub fn boundary(&self) -> &Boundary {
        &self.boundary
    }

    /// Number of kernels (1 when the query fused completely).
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// The execution tier this query was compiled for.
    pub fn tier(&self) -> ExecTier {
        self.tier
    }

    /// Number of kernels carrying a typed (compiled-tier) body.
    pub fn compiled_kernels(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_compiled()).count()
    }

    /// Whether every kernel lowered to the typed tier with *zero* fallback
    /// surface — no boxed registers, no dynamic operations, no custom
    /// reductions. Fully numeric plans satisfy this;
    /// `tests/compiled_tier_properties.rs` pins it.
    pub fn fully_typed(&self) -> bool {
        self.tier != ExecTier::Interpreted && self.kernels.iter().all(Kernel::is_fully_typed)
    }

    /// Number of kernels whose typed body executes batched (runs of ticks
    /// per dispatch). Zero unless compiled at [`ExecTier::Batched`]; on
    /// that tier, kernels rejected by the batch gate execute per-tick and
    /// don't count.
    pub fn batched_kernels(&self) -> usize {
        self.kernels.iter().filter(|k| k.is_batched()).count()
    }

    /// Total enum-touching (fallback) operations executed by the typed
    /// tier across every run of this query so far. Stays 0 for
    /// [`CompiledQuery::fully_typed`] plans; interpreter-only kernels
    /// inside a compiled query count one per run.
    pub fn fallback_ops(&self) -> u64 {
        self.kernels.iter().map(Kernel::fallback_ops).sum()
    }

    /// Total fused window-map executions across every run of this query so
    /// far. The map-once-per-element invariant bounds this by the number
    /// of elements accumulated into windows — Subtract-on-Evict re-uses
    /// cached mapped values instead of re-running maps, so this grows
    /// linearly with input, never with input × window size.
    /// `tests/compiled_tier_properties.rs` holds the ratio to ≤ 1.05.
    pub fn map_runs(&self) -> u64 {
        self.kernels.iter().map(Kernel::map_runs).sum()
    }

    /// Turns per-invocation wall timing on (or off) for every kernel.
    /// Disabled profiling costs one relaxed bool load per kernel
    /// invocation; enabled, each invocation also pays two clock reads
    /// and two relaxed adds. The counters live in the kernels
    /// themselves, so shared-group execution and clones of this query's
    /// `Arc` all feed the same profile.
    pub fn set_profiling(&self, on: bool) {
        for k in &self.kernels {
            k.set_profiling(on);
        }
    }

    /// Frozen per-kernel profiles (invocations, nanos, fallback ops) in
    /// execution order. Invocation counts stay 0 until
    /// [`CompiledQuery::set_profiling`] turns timing on.
    pub fn kernel_profiles(&self) -> Vec<KernelProfile> {
        self.kernels.iter().map(Kernel::profile).collect()
    }

    /// The coarsest grid all kernels agree on: partition boundaries must be
    /// multiples of this to make parallel execution seam-free.
    pub fn grid(&self) -> i64 {
        self.grid
    }

    /// The extent `obj` has to cover beyond an output range ending at `end`:
    /// exact when `end` lies on the grid, conservative otherwise.
    pub(crate) fn extent_ending(&self, obj: TObjId, end: Time) -> Extent {
        if end.ticks() % self.grid == 0 {
            self.boundary.aligned_extent(obj)
        } else {
            self.boundary.extent(obj)
        }
    }

    /// Executes serially over `(range.start, range.end]`.
    ///
    /// `inputs` must follow the declaration order of `query().inputs()`.
    /// Input data outside `range` (the boundary-resolved lookback) is read
    /// if present in the buffers; missing history reads as φ.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the declared input count.
    pub fn run(&self, inputs: &[&SnapshotBuf<Value>], range: TimeRange) -> SnapshotBuf<Value> {
        let mut pool = BufPool::new();
        self.run_pooled(inputs, range, &mut pool)
    }

    /// Like [`CompiledQuery::run`], drawing every intermediate kernel
    /// buffer (and the returned output buffer) from `pool` — intermediates
    /// go back before the call returns, and callers can
    /// [`BufPool::put`] the output back once consumed; `run_parallel`
    /// gives each worker one pool for all its partitions this way.
    /// Intermediates are parked in the pool's slot table and the kernels'
    /// run state is this thread's `codegen::Scratch`: a call allocates
    /// nothing but what neither can recycle. The scratch is taken for the
    /// length of the call, so a kernel that panics takes it along — the
    /// next call starts from an empty one, never from a half-written one.
    pub fn run_pooled(
        &self,
        inputs: &[&SnapshotBuf<Value>],
        range: TimeRange,
        pool: &mut BufPool<Value>,
    ) -> SnapshotBuf<Value> {
        assert_eq!(
            inputs.len(),
            self.query.inputs().len(),
            "query expects {} inputs",
            self.query.inputs().len()
        );
        let input_of = |obj| self.query.inputs().iter().position(|o| *o == obj);
        // The query output may simply be an input (identity query).
        if let Some(idx) = input_of(self.query.output()) {
            let mut out = pool.take(range.start);
            inputs[idx].slice_into(range, &mut out);
            return out;
        }

        let mut store = pool.take_slots(self.n_slots);
        let mut scratch = Scratch::take();
        let mut result = None;
        for kernel in &self.kernels {
            let ext = self.extent_ending(kernel.out, range.end);
            // Intermediates must cover every grid tick a consumer may read
            // through (`ceil_p` of the latest lookahead access — nothing
            // past `range.end` when that is on the grid and no consumer
            // shifts forward); the output kernel covers exactly the
            // requested range.
            let kend = if kernel.out == self.query.output() {
                range.end
            } else {
                range.end.saturating_add(ext.lookahead()).align_up(kernel.precision)
            };
            let krange = TimeRange::new(range.start.saturating_add(-ext.lookback()), kend);
            let mut out = pool.take(krange.start);
            let bufs = |obj| match input_of(obj) {
                Some(i) => Some(inputs[i]),
                None => store[obj.index()].as_ref(),
            };
            kernel.run_with(&bufs, krange, &mut out, &mut scratch);
            if kernel.out == self.query.output() {
                result = Some(out);
                break;
            }
            store[kernel.out.index()] = Some(out);
        }
        // Intermediates are dead once the output kernel ran: recycle them.
        pool.put_slots(store);
        scratch.put();
        result.expect("toposort guarantees the output kernel runs last")
    }

    /// Executes with `threads` synchronization-free workers over partitions
    /// of roughly `interval` ticks (snapped up to the kernel grid), then
    /// concatenates the partition outputs (Fig. 6).
    pub fn run_parallel(
        &self,
        inputs: &[&SnapshotBuf<Value>],
        range: TimeRange,
        threads: usize,
        interval: i64,
    ) -> SnapshotBuf<Value> {
        let grid = self.grid();
        let interval = {
            let i = interval.max(1).max(grid);
            (i + grid - 1) / grid * grid
        };
        let mut cuts: Vec<TimeRange> = Vec::new();
        let mut t = range.start;
        while t < range.end {
            let end = (t + interval).min(range.end);
            cuts.push(TimeRange::new(t, end));
            t = end;
        }
        if threads <= 1 || cuts.len() <= 1 {
            return self.run(inputs, range);
        }

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<SnapshotBuf<Value>>>> =
            Mutex::new((0..cuts.len()).map(|_| None).collect());
        crossbeam::thread::scope(|s| {
            for _ in 0..threads.min(cuts.len()) {
                s.spawn(|_| {
                    // One pool per worker, not per partition.
                    let mut pool = BufPool::new();
                    let mut local: Vec<(usize, SnapshotBuf<Value>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cuts.len() {
                            break;
                        }
                        local.push((i, self.run_pooled(inputs, cuts[i], &mut pool)));
                    }
                    let mut guard = results.lock().expect("no poisoned workers");
                    for (i, buf) in local {
                        guard[i] = Some(buf);
                    }
                });
            }
        })
        .expect("worker panicked");

        let parts: Vec<SnapshotBuf<Value>> = results
            .into_inner()
            .expect("all workers joined")
            .into_iter()
            .map(|p| p.expect("every partition computed"))
            .collect();
        SnapshotBuf::concat(parts)
    }

    /// Runs serially and reports wall-clock statistics.
    pub fn run_timed(
        &self,
        inputs: &[&SnapshotBuf<Value>],
        range: TimeRange,
    ) -> (SnapshotBuf<Value>, ExecStats) {
        let t0 = Instant::now();
        let out = self.run(inputs, range);
        let stats = ExecStats { elapsed: t0.elapsed(), output_spans: out.len() };
        (out, stats)
    }

    /// The *state horizon* of this query, in ticks: once a stream has been
    /// quiet for at least this long past an aligned emission point, a fresh
    /// session opened at that point is observationally identical to the
    /// session that lived through the quiet stretch — every access window
    /// reaching back from any future output tick lands in the φ gap, never
    /// on the pre-gap history.
    ///
    /// This is what makes per-key session *eviction* safe in a long-running
    /// service (`tilt-runtime`): a key idle past its state horizon can be
    /// torn down and transparently re-created on revival. The bound is
    /// `max input lookback + aligned input lookahead + 2 × grid` — lookback
    /// for window reach, the lookahead plus a grid step for how far emission
    /// trails the quiet point (sessions emit at grid-aligned horizons, so it
    /// is the aligned lookahead: 0 unless the query shifts forward), and one
    /// more grid step for alignment slack.
    pub fn state_horizon(&self) -> i64 {
        self.boundary.max_input_lookback(&self.query)
            + self.boundary.aligned_input_lookahead(&self.query)
            + 2 * self.grid
    }

    /// Opens a batched streaming session starting at `start` — the mode the
    /// latency-bounded-throughput experiment of Fig. 9 drives
    /// (`examples/paper_figures.rs`). The session owns an `Arc` handle on
    /// the compiled query, so worker threads (e.g. the shards of
    /// `tilt-runtime`) hold many sessions over one compilation.
    pub fn shared_stream_session(self: &Arc<Self>, start: Time) -> SharedStreamSession {
        let group = QueryGroup::new(vec![Arc::clone(self)]).expect("one query is a valid group");
        SharedStreamSession {
            session: Arc::new(group).shared_session(start),
            pool: BufPool::new(),
            outs: Vec::with_capacity(1),
        }
    }
}

/// Incremental batched execution of one query: events arrive in batches,
/// and each [`SharedStreamSession::advance_to`] processes one batch
/// interval as a partition of Fig. 6.
///
/// It is a [`SharedGroupSession`] over a group of one, so a single query
/// and a group member stream through the same code. The session also owns
/// the pool its advances draw kernel buffers from. The kernels' run state
/// is recycled too, but not from here: it belongs to the thread that
/// advances the session (see `codegen::Scratch`).
#[derive(Debug)]
pub struct SharedStreamSession {
    session: SharedGroupSession,
    pool: BufPool<Value>,
    /// The group's output list, empty between calls and reused by each:
    /// an advance allocates no list of one.
    outs: Vec<SnapshotBuf<Value>>,
}

impl SharedStreamSession {
    /// The current watermark (everything up to it has been emitted).
    pub fn watermark(&self) -> Time {
        self.session.watermark()
    }

    /// Appends events to input `idx` (see
    /// [`SharedGroupSession::push_events`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or events regress in time.
    pub fn push_events(&mut self, idx: usize, events: &[Event<Value>]) {
        self.session.push_events(idx, events);
    }

    /// Advances the input watermark to `upto` and returns the *finalized*
    /// output prefix: everything through the last grid tick `e` with
    /// `e + lookahead ≤ upto` (see [`SharedGroupSession::advance_to_with`]).
    /// The returned buffer may be empty when the horizon has not advanced;
    /// call [`SharedStreamSession::flush_to`] at end-of-stream to force the
    /// tail out.
    ///
    /// # Panics
    ///
    /// Panics unless `upto` is past the watermark.
    pub fn advance_to(&mut self, upto: Time) -> SnapshotBuf<Value> {
        self.session.advance_into(upto, &mut self.pool, &mut self.outs);
        self.the_output()
    }

    /// Emits everything up to `end` unconditionally (end-of-stream flush:
    /// missing future input reads as φ, exactly like the tail of a one-shot
    /// run).
    pub fn flush_to(&mut self, end: Time) -> SnapshotBuf<Value> {
        self.session.emit_range(end, &mut self.pool, &mut self.outs);
        self.the_output()
    }

    /// Hands a consumed output buffer's allocation back for the next
    /// advance to reuse.
    pub fn recycle(&mut self, buf: SnapshotBuf<Value>) {
        self.pool.put(buf);
    }

    /// The one member's output of a group of one.
    fn the_output(&mut self) -> SnapshotBuf<Value> {
        self.outs.pop().expect("a group of one has one output")
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

pub(crate) fn lcm(a: i64, b: i64) -> i64 {
    (a / gcd(a, b)).saturating_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataType, Expr, ReduceOp, TDom};
    use tilt_data::streams_equivalent;

    fn trend_query() -> Query {
        let mut b = Query::builder();
        let stock = b.input("stock", DataType::Float);
        let sum10 =
            b.temporal("sum10", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, stock, 10));
        let sum20 =
            b.temporal("sum20", TDom::every_tick(), Expr::reduce_window(ReduceOp::Sum, stock, 20));
        let avg10 = b.temporal("avg10", TDom::every_tick(), Expr::at(sum10).div(Expr::c(10.0)));
        let avg20 = b.temporal("avg20", TDom::every_tick(), Expr::at(sum20).div(Expr::c(20.0)));
        let join = b.temporal(
            "join",
            TDom::every_tick(),
            Expr::if_else(
                Expr::at(avg10).is_present().and(Expr::at(avg20).is_present()),
                Expr::at(avg10).sub(Expr::at(avg20)),
                Expr::null(),
            ),
        );
        let filter = b.temporal(
            "filter",
            TDom::every_tick(),
            Expr::if_else(Expr::at(join).gt(Expr::c(0.0)), Expr::at(join), Expr::null()),
        );
        b.finish(filter).unwrap()
    }

    fn price_events(n: i64) -> Vec<Event<Value>> {
        // Deterministic pseudo-random walk.
        let mut x = 100.0f64;
        let mut state = 0x9E3779B97F4A7C15u64;
        (1..=n)
            .map(|t| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let step = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                x += step;
                Event::point(Time::new(t), Value::Float(x))
            })
            .collect()
    }

    #[test]
    fn fused_and_unfused_agree_on_trend_query() {
        let q = trend_query();
        let n = 500;
        let range = TimeRange::new(Time::new(0), Time::new(n));
        let input = SnapshotBuf::from_events(&price_events(n), range);
        let fused = Compiler::new().compile(&q).unwrap();
        let unfused = Compiler::unoptimized().compile(&q).unwrap();
        assert_eq!(fused.num_kernels(), 1);
        assert_eq!(unfused.num_kernels(), 6);
        let a = fused.run(&[&input], range);
        let b = unfused.run(&[&input], range);
        assert!(
            streams_equivalent(&a.to_events(), &b.to_events()),
            "fused vs unfused disagree: {} vs {} events",
            a.to_events().len(),
            b.to_events().len()
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let q = trend_query();
        let n = 2000;
        let range = TimeRange::new(Time::new(0), Time::new(n));
        let input = SnapshotBuf::from_events(&price_events(n), range);
        let cq = Compiler::new().compile(&q).unwrap();
        let serial = cq.run(&[&input], range);
        for threads in [2, 4] {
            for interval in [97, 250, 1000] {
                let par = cq.run_parallel(&[&input], range, threads, interval);
                assert!(
                    streams_equivalent(&serial.to_events(), &par.to_events()),
                    "threads={threads} interval={interval}"
                );
            }
        }
    }

    #[test]
    fn batched_streaming_matches_one_shot() {
        let q = trend_query();
        let n = 600;
        let range = TimeRange::new(Time::new(0), Time::new(n));
        let events = price_events(n);
        let input = SnapshotBuf::from_events(&events, range);
        let cq = Arc::new(Compiler::new().compile(&q).unwrap());
        let oneshot = cq.run(&[&input], range);

        let mut session = cq.shared_stream_session(Time::new(0));
        let mut out_events = Vec::new();
        let batch = 50usize;
        for chunk in events.chunks(batch) {
            session.push_events(0, chunk);
            let upto = chunk.last().unwrap().end;
            let out = session.advance_to(upto);
            out_events.extend(out.to_events());
        }
        assert!(
            streams_equivalent(&oneshot.to_events(), &out_events),
            "streaming {} vs one-shot {}",
            out_events.len(),
            oneshot.to_events().len()
        );
    }

    #[test]
    fn identity_query_slices_input() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let q = b.finish(input).unwrap();
        let cq = Compiler::new().compile(&q).unwrap();
        let range = TimeRange::new(Time::new(0), Time::new(10));
        let buf = SnapshotBuf::from_events(&[Event::point(Time::new(5), Value::Float(1.0))], range);
        let out = cq.run(&[&buf], range);
        assert_eq!(out.to_events().len(), 1);
    }

    #[test]
    fn grid_is_lcm_of_precisions() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let w1 = b.temporal("w1", TDom::unbounded(4), Expr::reduce_window(ReduceOp::Sum, input, 4));
        let w2 = b.temporal("w2", TDom::unbounded(6), Expr::reduce_window(ReduceOp::Sum, input, 6));
        let out = b.temporal("out", TDom::unbounded(12), Expr::at(w1).add(Expr::at(w2)));
        let q = b.finish(out).unwrap();
        let cq = Compiler::unoptimized().compile(&q).unwrap();
        assert_eq!(cq.grid(), 12);
    }

    #[test]
    fn shared_session_outlives_its_arc_and_is_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledQuery>();
        fn assert_send<T: Send>() {}
        assert_send::<SharedStreamSession>();

        let q = trend_query();
        let events = price_events(300);
        let end = Time::new(330);
        let cq = Arc::new(Compiler::new().compile(&q).unwrap());
        let range = TimeRange::new(Time::ZERO, end);
        let oneshot = cq.run(&[&SnapshotBuf::from_events(&events, range)], range).to_events();
        let mut shared = cq.shared_stream_session(Time::new(0));
        let mut a = Vec::new();
        for chunk in events.chunks(64) {
            let upto = chunk.last().unwrap().end;
            shared.push_events(0, chunk);
            if upto > shared.watermark() {
                a.extend(shared.advance_to(upto).to_events());
            }
        }
        // A shared session can outlive the `Arc` binding it was made from
        // and move to another thread.
        drop(cq);
        let tail = std::thread::spawn(move || {
            let out = shared.flush_to(end).to_events();
            (shared, out)
        });
        let (_shared, tail_events) = tail.join().unwrap();
        a.extend(tail_events);
        assert!(!a.is_empty());
        assert!(streams_equivalent(&a, &oneshot));
    }

    #[test]
    fn fresh_session_after_state_horizon_matches_surviving_session() {
        // The eviction contract behind `state_horizon`: a session that lived
        // through a quiet stretch and a fresh session opened at an aligned
        // point past the horizon agree on everything after the gap.
        let q = trend_query();
        let cq = Arc::new(Compiler::new().compile(&q).unwrap());
        let horizon = cq.state_horizon();
        assert!(horizon >= 20, "trend query looks back 20 ticks");

        let old_events = price_events(50);
        let mut survivor = cq.shared_stream_session(Time::ZERO);
        survivor.push_events(0, &old_events);
        // Advance past the old data, then let the stream go quiet for more
        // than the state horizon.
        let quiet_point = Time::new(50 + horizon + 6).align_down(cq.grid());
        let mut a = survivor.advance_to(quiet_point).to_events();
        // The evicted replacement starts cold at the same aligned point.
        let mut fresh = cq.shared_stream_session(quiet_point);

        // Revival: identical new traffic into both sessions.
        let new_events: Vec<Event<Value>> = (1..=60)
            .map(|i| Event::point(quiet_point.saturating_add(i), Value::Float(i as f64 * 0.5)))
            .collect();
        survivor.push_events(0, &new_events);
        fresh.push_events(0, &new_events);
        let end = quiet_point.saturating_add(80);
        a.extend(survivor.flush_to(end).to_events());
        let b = fresh.flush_to(end).to_events();
        // Outputs after the quiet point are identical; the survivor's extra
        // prefix covers only the pre-gap region.
        let a_tail: Vec<Event<Value>> = a.into_iter().filter(|e| e.start >= quiet_point).collect();
        assert!(!b.is_empty());
        assert!(
            streams_equivalent(&a_tail, &b),
            "fresh session diverged after the state horizon: {a_tail:?} vs {b:?}"
        );
    }

    /// YSB's shape over an int stream: a filter fused into a strided count
    /// as its window map (lanes-mapped on the batched tier), then a body
    /// with int and bool registers and constants of its own.
    fn pane_query() -> Query {
        let mut b = Query::builder();
        let x = b.input("ads", DataType::Int);
        let views = b.temporal(
            "views",
            TDom::every_tick(),
            Expr::if_else(
                Expr::at(x).rem(Expr::c(3i64)).eq(Expr::c(0i64)),
                Expr::at(x),
                Expr::null(),
            ),
        );
        let panes = b.temporal(
            "panes",
            TDom::unbounded(5),
            Expr::reduce_window(ReduceOp::Count, views, 10),
        );
        let out = b.temporal(
            "out",
            TDom::unbounded(5),
            Expr::if_else(
                Expr::at(panes).gt(Expr::c(2i64)),
                Expr::at(panes).mul(Expr::c(7i64)).sub(Expr::c(11i64)),
                Expr::null(),
            ),
        );
        b.finish(out).unwrap()
    }

    #[test]
    fn scratch_carries_nothing_from_one_run_to_the_next() {
        // Two queries whose register files differ in shape and constants,
        // on every tier, fused and unfused, alternate on one thread — one
        // scratch — with everything a run can leave behind in it poisoned
        // between runs. Each output must equal a fresh scratch's (a fresh
        // thread's).
        let n = 600;
        let floats = price_events(n);
        let ints: Vec<Event<Value>> = (1..=n)
            .filter(|t| t % 7 != 0)
            .map(|t| Event::point(Time::new(t), Value::Int((t * 37) % 11)))
            .collect();
        let whole = TimeRange::new(Time::ZERO, Time::new(n));
        let inputs =
            [SnapshotBuf::from_events(&floats, whole), SnapshotBuf::from_events(&ints, whole)];
        let mut cases: Vec<(CompiledQuery, &SnapshotBuf<Value>)> = Vec::new();
        for tier in [ExecTier::Batched, ExecTier::Compiled, ExecTier::Interpreted] {
            for base in [Compiler::new(), Compiler::unoptimized()] {
                let compiler = base.with_tier(tier);
                cases.push((compiler.compile(&trend_query()).unwrap(), &inputs[0]));
                cases.push((compiler.compile(&pane_query()).unwrap(), &inputs[1]));
            }
        }
        let kernels: Vec<&Kernel> = cases.iter().flat_map(|(cq, _)| &cq.kernels).collect();
        let lanes_mapped = |k: &&Kernel| {
            let maps = k.typed.iter().flat_map(|tp| tp.typed_maps.iter().flatten());
            k.is_batched() && maps.into_iter().any(|m| m.runs_on_lanes())
        };
        assert!(kernels.iter().any(lanes_mapped), "a window map borrows the batch columns");

        let mut pool = BufPool::new();
        for round in 0..4 {
            for (cq, input) in &cases {
                for (lo, hi) in [(0, 240), (240, 420), (420, 600)] {
                    let range = TimeRange::new(Time::new(lo), Time::new(hi));
                    let got = cq.run_pooled(&[input], range, &mut pool);
                    // A thread of its own has a scratch of its own, empty.
                    let fresh = std::thread::scope(|s| {
                        s.spawn(|| cq.run(&[input], range)).join().expect("reference run")
                    });
                    assert_eq!(got, fresh, "{cq:?} over {range:?}, round {round}");
                    pool.put(got);
                    let mut scratch = Scratch::take();
                    assert!(scratch.poison(&kernels, round % 2 == 0) > 0);
                    scratch.put();
                }
            }
        }
    }

    #[test]
    fn run_timed_reports_stats() {
        let q = trend_query();
        let range = TimeRange::new(Time::new(0), Time::new(100));
        let input = SnapshotBuf::from_events(&price_events(100), range);
        let cq = Compiler::new().compile(&q).unwrap();
        let (_, stats) = cq.run_timed(&[&input], range);
        assert!(stats.output_spans > 0);
    }
}
