//! Loop synthesis: one kernel per temporal expression (paper §6.1.3).
//!
//! A [`Kernel`] is the executable form of a temporal expression. Its `run`
//! method is the synthesized loop of Fig. 3d: starting from the (symbolic)
//! domain start, it repeatedly advances the clock to the next time any
//! referenced access can change value — input change points shifted by
//! access offsets, window enter/evict crossings for reductions — evaluates
//! the compiled expression once, and appends one snapshot to the output
//! buffer. Ticks at which no input changes are never visited.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tilt_data::{ColWriter, SnapshotBuf, SsCursor, Time, TimeRange, Value};
use tilt_obs::Profiler;

use super::batch::{batchable, BatchCtx, Lane, MAX_BATCH};
use super::compiled::{compile_typed, type_lookup, Class, TypedCtx, TypedProgram};
use super::program::{compile, EvalCtx, PointSpec, Program};
use super::reduce::{typed_fold_class, typed_result_class, MapRun, ReduceRunner, ReduceStore};
use crate::error::Result;
use crate::ir::typeck::TypeInfo;
use crate::ir::{TObjId, TempExpr};

/// The next [`Kernel::id`].
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(0);

/// A compiled temporal expression: the unit of execution.
#[derive(Debug)]
pub struct Kernel {
    /// What a [`Scratch`] files this kernel's run state under: handed out
    /// at lowering and never again, so — unlike an address — it cannot
    /// come back as another kernel after this one is dropped.
    id: u64,
    /// The temporal object this kernel materializes.
    pub out: TObjId,
    /// Human-readable name (the object's name in the source query).
    pub name: String,
    /// Output time-domain precision.
    pub precision: i64,
    /// Sampled (every tick) vs event-driven loop synthesis.
    pub sample: bool,
    /// Whether the body reads the clock (`Expr::Time`) outside reduce maps;
    /// such kernels can change value at every grid tick and therefore also
    /// step densely.
    pub uses_time: bool,
    /// The interpreted expression body (always present: the reference tier
    /// and the slot-layout authority).
    pub program: Program,
    /// The typed register-bytecode body, when the compiled tier lowered
    /// this kernel (see [`super::lower_typed`]).
    pub(crate) typed: Option<TypedProgram>,
    /// Per reduce slot: `(fold class, result class)` when the unboxed
    /// map→accumulator path applies — the typed map's output feeds the
    /// monomorphized accumulator directly, no `Value` round trip. Empty
    /// until typed lowering.
    reduce_modes: Vec<Option<(Class, Class)>>,
    /// Whether this kernel drives the batched tier: requested by the
    /// compiler *and* admitted by the batch gate (see `super::batch`).
    batched: bool,
    /// True when the compiled tier was requested but this body could not
    /// be lowered: every interpreted run then counts as one fallback op.
    interp_fallback: bool,
    /// Enum-touching (fallback) operations executed by the typed tier,
    /// accumulated across runs.
    pub(crate) fallback: AtomicU64,
    /// Fused window-map executions, accumulated across runs — the
    /// observable for the map-once-per-element invariant (Subtract-on-
    /// Evict must not re-run maps; see `super::reduce`).
    map_runs: AtomicU64,
    /// Grid ticks evaluated by the typed tiers, accumulated across runs.
    lanes: AtomicU64,
    /// Of `lanes`, the ticks whose windows slid and whose reads loaded; the
    /// rest were copied from the tick before (quiet lanes).
    slides: AtomicU64,
    /// Whether [`Kernel::run_into`] reads the clock around each call.
    /// Off by default: the disabled cost is this one relaxed load.
    timed: AtomicBool,
    /// Timed invocations of this kernel (counted only while profiling).
    invocations: AtomicU64,
    /// Wall nanoseconds spent inside timed invocations.
    nanos: AtomicU64,
}

impl Kernel {
    /// Compiles a temporal expression into an interpreter-tier kernel.
    pub fn new(te: &TempExpr, name: &str) -> Result<Kernel> {
        let mut uses_time = false;
        te.body.walk(&mut |e| {
            if matches!(e, crate::ir::Expr::Time) {
                uses_time = true;
            }
        });
        Ok(Kernel {
            id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
            out: te.output,
            name: name.to_string(),
            precision: te.dom.precision,
            sample: te.sample,
            uses_time,
            program: compile(&te.body)?,
            typed: None,
            reduce_modes: Vec::new(),
            batched: false,
            interp_fallback: false,
            fallback: AtomicU64::new(0),
            map_runs: AtomicU64::new(0),
            lanes: AtomicU64::new(0),
            slides: AtomicU64::new(0),
            timed: AtomicBool::new(false),
            invocations: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        })
    }

    /// Compiles a temporal expression with the interpreter body plus the
    /// typed register bytecode, using `types` for static types and
    /// `classes` for upstream objects' register classes. A body the typed
    /// compiler cannot lower stays interpreter-only — callers observe
    /// that through [`Kernel::is_compiled`]. With `batched` set, bodies
    /// admitted by the batch gate execute over runs of ticks.
    pub(crate) fn with_types(
        te: &TempExpr,
        name: &str,
        types: &TypeInfo,
        classes: &HashMap<TObjId, Class>,
        batched: bool,
    ) -> Result<Kernel> {
        let mut kernel = Kernel::new(te, name)?;
        let objs = type_lookup(types);
        kernel.typed = compile_typed(&te.body, &kernel.program, &objs, classes, batched).ok();
        kernel.interp_fallback = kernel.typed.is_none();
        if let Some(tp) = &kernel.typed {
            kernel.reduce_modes = kernel
                .program
                .reduces
                .iter()
                .zip(&tp.reduce_elem)
                .map(|(rs, elem)| {
                    typed_fold_class(&rs.op, *elem).zip(typed_result_class(&rs.op, *elem))
                })
                .collect();
            kernel.batched = batched && batchable(tp, &kernel.reduce_modes);
        }
        Ok(kernel)
    }

    /// Whether this kernel executes its typed body on the batched tier.
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// Whether the typed (compiled) tier is present.
    pub fn is_compiled(&self) -> bool {
        self.typed.is_some()
    }

    /// Whether the typed tier exists and never touches the dynamic enum.
    pub fn is_fully_typed(&self) -> bool {
        self.typed.as_ref().is_some_and(TypedProgram::is_fully_typed)
    }

    /// Enum-touching operations the typed tier executed so far (0 for a
    /// fully typed kernel; every run counts for interpreter-only kernels
    /// living in a compiled query, since their whole body is a fallback).
    pub fn fallback_ops(&self) -> u64 {
        self.fallback.load(Ordering::Relaxed)
    }

    /// Fused window-map executions by the typed tiers so far. The map-once
    /// invariant bounds this by the number of elements ever *accumulated*
    /// into this kernel's windows — eviction must re-use cached mapped
    /// values, never re-run the map.
    pub fn map_runs(&self) -> u64 {
        self.map_runs.load(Ordering::Relaxed)
    }

    /// The register class of this kernel's output values (what downstream
    /// kernels assume when reading its buffer).
    pub(crate) fn output_class(&self) -> Class {
        self.typed.as_ref().map_or(Class::V, TypedProgram::output_class)
    }

    /// The objects this kernel reads, in slot order (points then reduces).
    pub fn dependencies(&self) -> Vec<TObjId> {
        let mut deps: Vec<TObjId> = self
            .program
            .points
            .iter()
            .map(|p| p.obj)
            .chain(self.program.reduces.iter().map(|r| r.obj))
            .collect();
        deps.sort();
        deps.dedup();
        deps
    }

    /// Executes the kernel over `(range.start, range.end]`.
    ///
    /// `bufs` is indexed by [`TObjId::index`]; every dependency must be
    /// present (times outside a buffer's coverage read as φ, which is how
    /// partition lookback edges degrade gracefully).
    ///
    /// # Panics
    ///
    /// Panics if a dependency buffer is missing.
    pub fn run(
        &self,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
    ) -> SnapshotBuf<Value> {
        let mut out = SnapshotBuf::new(range.start);
        self.run_into(bufs, range, &mut out);
        out
    }

    /// Like [`Kernel::run`], but writes into `out` (reset to `range.start`
    /// first), reusing its span allocation. Hot emission paths recycle
    /// output buffers through a [`tilt_data::BufPool`] this way instead of
    /// reallocating one per kernel per advance.
    ///
    /// Dispatches to the typed (compiled) tier when it was lowered, the
    /// interpreter otherwise; both tiers share one loop skeleton, so
    /// stepping and output shape are identical. The run state — register
    /// files, batch columns, window rings — is this thread's: shaped on the
    /// kernel's first run here, reset by every later one.
    pub fn run_into(
        &self,
        bufs: &[Option<&SnapshotBuf<Value>>],
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        let mut scratch = Scratch::take();
        self.run_with(&|obj| bufs.get(obj.index()).and_then(|b| *b), range, out, &mut scratch);
        scratch.put();
    }

    /// [`Kernel::run_into`] with the dependency buffers looked up through
    /// `bufs` instead of an object-indexed table — executors resolve
    /// straight out of their own stores, so no table is built per call —
    /// and the run state kept in `scratch` from one call to the next.
    pub(crate) fn run_with<'b>(
        &'b self,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
        scratch: &mut Scratch,
    ) {
        let state = scratch.state_of(self);
        if Profiler::enabled(self) {
            let start = std::time::Instant::now();
            self.dispatch(bufs, range, out, state);
            Profiler::record(self, start.elapsed().as_nanos() as u64);
        } else {
            self.dispatch(bufs, range, out, state);
        }
    }

    fn dispatch<'b>(
        &'b self,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
        state: &mut RunState,
    ) {
        let runners = &mut state.runners;
        match (&self.typed, &mut state.regs) {
            (Some(tp), Regs::Batched(ctx, bc)) => {
                self.run_batched(tp, ctx, bc, runners, bufs, range, out)
            }
            (Some(tp), Regs::Typed(ctx)) => self.run_typed(tp, ctx, runners, bufs, range, out),
            (None, Regs::Interp(ctx)) => self.run_interp(ctx, runners, bufs, range, out),
            _ => unreachable!("a run state is shaped by its kernel"),
        }
    }

    /// Turns per-invocation wall timing on (or off). Profiling is
    /// per-kernel state shared by every clone of the owning
    /// `CompiledQuery`'s `Arc`, so enabling it on a live service takes
    /// effect on the next invocation.
    pub fn set_profiling(&self, on: bool) {
        self.timed.store(on, Ordering::Relaxed);
    }

    /// A frozen view of this kernel's profile counters.
    pub fn profile(&self) -> KernelProfile {
        KernelProfile {
            name: self.name.clone(),
            compiled: self.is_compiled(),
            batched: self.is_batched(),
            fully_typed: self.is_fully_typed(),
            invocations: self.invocations.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            fallback_ops: self.fallback_ops(),
            map_runs: self.map_runs(),
            lanes: self.lanes.load(Ordering::Relaxed),
            slides: self.slides.load(Ordering::Relaxed),
        }
    }

    /// The interpreted tier: per-tick closure-tree evaluation over
    /// [`Value`] slots, each read materialized from the source columns.
    fn run_interp<'b>(
        &'b self,
        ctx: &mut EvalCtx,
        runners: &mut Runners,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        if self.interp_fallback {
            self.fallback.fetch_add(1, Ordering::Relaxed);
        }
        let program = &self.program;
        out.reset(range.start);
        self.drive(
            runners,
            bufs,
            range,
            &[],
            &mut |points, reduces, g| eval_at(program, ctx, points, reduces, g),
            &mut |end, v| out.push_raw(end, v),
        );
    }

    /// The compiled tier: per-tick register-bytecode evaluation. Point
    /// accesses load through the typed [`SsCursor`] fast paths (column
    /// reads for `F`/`I`/`B` slots), reduce results unbox straight into
    /// their registers, fused maps run as typed bytecode, and a typed root
    /// register is appended to the output's typed column as is.
    fn run_typed<'b>(
        &'b self,
        tp: &TypedProgram,
        ctx: &mut TypedCtx,
        runners: &mut Runners,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        let ticks = match tp.root.map(|r| r.class) {
            Some(Class::F) => {
                let mut w = out.f64_writer(range.start);
                self.run_typed_as(tp, ctx, runners, bufs, range, &mut |end, v| w.push(end, v))
            }
            Some(Class::I) => {
                let mut w = out.i64_writer(range.start);
                self.run_typed_as(tp, ctx, runners, bufs, range, &mut |end, v| w.push(end, v))
            }
            Some(Class::B) => {
                let mut w = out.bool_writer(range.start);
                self.run_typed_as(tp, ctx, runners, bufs, range, &mut |end, v| w.push(end, v))
            }
            // A boxed root (or a provably-φ body): the class comes from
            // the data, like any boxed write.
            Some(Class::V) | None => {
                out.reset(range.start);
                self.drive(
                    runners,
                    bufs,
                    range,
                    &tp.reduce_elem,
                    &mut |points, reduces, g| {
                        self.load_typed_slots(tp, ctx, points, reduces, g);
                        tp.run(ctx)
                    },
                    &mut |end, v| out.push_raw(end, v),
                )
            }
        };
        // The per-tick tier slides and loads at every tick it visits.
        ctx.lanes += ticks;
        ctx.slides += ticks;
        self.count_ctx(ctx);
    }

    /// [`Kernel::run_typed`] for a root register of unboxed class `T`;
    /// returns the ticks evaluated.
    fn run_typed_as<'b, T: Lane>(
        &'b self,
        tp: &TypedProgram,
        ctx: &mut TypedCtx,
        runners: &mut Runners,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        push: &mut dyn FnMut(Time, Option<T>),
    ) -> u64 {
        self.drive(
            runners,
            bufs,
            range,
            &tp.reduce_elem,
            &mut |points, reduces, g| {
                self.load_typed_slots(tp, ctx, points, reduces, g);
                tp.run_as::<T>(ctx)
            },
            push,
        )
    }

    /// Fills the typed program's reduce and point registers for tick `g`.
    fn load_typed_slots(
        &self,
        tp: &TypedProgram,
        ctx: &mut TypedCtx,
        points: &mut [PointRunner<'_>],
        reduces: &mut [ReduceRunner<'_>],
        g: Time,
    ) {
        ctx.t = g.ticks();
        // The per-tick tier slides and loads at every tick it visits.
        for (i, runner) in reduces.iter_mut().enumerate() {
            let reg = tp.reduce_regs[i];
            // Unboxed fold path: the typed map's `f64`/`i64` output
            // feeds the monomorphized accumulator directly and the
            // result lands in its register without a `Value` round
            // trip — `fallback_ops` stays 0 for numeric plans.
            if let Some((fold, res)) = self.reduce_modes[i] {
                if reg.is_none_or(|r| r.class == res) {
                    let map = tp.typed_maps[i].as_ref();
                    runner.slide_typed(g, fold, map.map(|map| MapRun { map, ctx, lanes: None }));
                    if let Some(reg) = reg {
                        match res {
                            Class::F => ctx.store_f64(reg, runner.result_f()),
                            Class::I => ctx.store_i64(reg, runner.result_i()),
                            _ => unreachable!("typed result class is F or I"),
                        }
                    }
                    continue;
                }
            }
            let v = slide_boxed(runner, tp, ctx, i, g);
            if let Some(reg) = reg {
                if reg.class == Class::V {
                    // Boxed reduce results (custom reducers, dynamic
                    // elements) are fallback traffic.
                    ctx.fallback_ops += 1;
                }
                ctx.store_value(reg, v);
            }
        }
        for (i, runner) in points.iter_mut().enumerate() {
            let t = g + runner.spec.offset;
            match tp.point_regs[i] {
                Some(reg) => match reg.class {
                    Class::F => {
                        let (v, b) = runner.cursor.value_f64_and_boundary(t);
                        ctx.store_f64(reg, v);
                        runner.boundary = b;
                    }
                    Class::I => {
                        let (v, b) = runner.cursor.value_i64_and_boundary(t);
                        ctx.store_i64(reg, v);
                        runner.boundary = b;
                    }
                    Class::B => {
                        let (v, b) = runner.cursor.value_bool_and_boundary(t);
                        ctx.store_bool(reg, v);
                        runner.boundary = b;
                    }
                    Class::V => {
                        let (v, b) = runner.cursor.value_and_boundary(t);
                        ctx.fallback_ops += 1;
                        ctx.store_value(reg, v);
                        runner.boundary = b;
                    }
                },
                // The value is never read, but the cursor must still
                // advance: `next_tick` steps on span boundaries.
                None => runner.boundary = runner.cursor.boundary(t),
            }
        }
    }

    /// Folds a run's counters into the kernel's and zeroes them for the
    /// next run over this register file.
    fn count_ctx(&self, ctx: &mut TypedCtx) {
        for (run, total) in [
            (&mut ctx.fallback_ops, &self.fallback),
            (&mut ctx.map_runs, &self.map_runs),
            (&mut ctx.lanes, &self.lanes),
            (&mut ctx.slides, &self.slides),
        ] {
            let n = std::mem::take(run);
            if n > 0 {
                total.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// The batched tier, dispatched once per run on the root register's
    /// class: the result lanes of each batch are appended to the output's
    /// typed column as they are.
    #[allow(clippy::too_many_arguments)]
    fn run_batched<'b>(
        &'b self,
        tp: &TypedProgram,
        ctx: &mut TypedCtx,
        bc: &mut BatchCtx,
        runners: &mut Runners,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        out: &mut SnapshotBuf<Value>,
    ) {
        let root = tp.root.expect("the batch gate requires a root");
        let s = range.start;
        match root.class {
            Class::F => self.run_batched_as(tp, ctx, bc, runners, bufs, range, out.f64_writer(s)),
            Class::I => self.run_batched_as(tp, ctx, bc, runners, bufs, range, out.i64_writer(s)),
            Class::B => self.run_batched_as(tp, ctx, bc, runners, bufs, range, out.bool_writer(s)),
            Class::V => unreachable!("batch gate admits only typed roots"),
        }
    }

    /// The batched tier: the same change-point stepping as [`Kernel::drive`],
    /// but lanes accumulate while stepping stays dense (`next == g + p`) and
    /// the typed body then executes **once per run** over columnar registers
    /// (see [`super::batch`]) — one instruction dispatch per run instead of
    /// per tick, φ checks one branch per 64 lanes — and the root register's
    /// lanes land in the output's typed column in one append, span ends
    /// taken from the lane boundaries. Point reads index the source column
    /// through [`SsCursor`], which carries the change-point state
    /// `next_tick` steps on, and a reduce window folds its entering *run*
    /// of source spans in one loop, the fused map over it as lanes too (see
    /// [`ReduceRunner`]) — so stepping, and therefore output, is
    /// byte-identical to the scalar tiers.
    ///
    /// **A lane costs a slide only at a change point.** A window with
    /// content defines one snapshot per grid tick, so stepping is dense
    /// across it — but between the tick a span enters and the tick one
    /// leaves, nothing a lane reads changes. After a lane whose slides
    /// moved nothing — and, while the last look ahead found such lanes,
    /// after any lane: a sparse stream stays sparse — the loop looks for
    /// the next tick at which any window or read can change
    /// ([`Kernel::next_tick`] with `by_change`) and fills the lanes up to
    /// it with copies of this lane's driver registers: still one lane, one
    /// span, per grid tick — the same bytes — with no slide and no load. A
    /// window is then slid where a span enters and where one leaves, and
    /// nowhere else. A stream with an event per tick moves something at
    /// every lane: its first look finds nothing and it never looks again;
    /// kernels that read the clock or are sampled differ lane by lane and
    /// never fill.
    ///
    /// **Run state outlives the run.** `ctx`, `bc` and the runners' buffers
    /// belong to the kernel's [`RunState`]: the constant columns were
    /// broadcast when it was shaped, the rest is overwritten before it is
    /// read, and the counters are folded and zeroed at the end.
    #[allow(clippy::too_many_arguments)]
    fn run_batched_as<'b, T: Lane>(
        &'b self,
        tp: &TypedProgram,
        ctx: &mut TypedCtx,
        bc: &mut BatchCtx,
        runners: &mut Runners,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        mut out: ColWriter<'_, T>,
    ) {
        let p = self.precision;
        if range.is_empty() {
            return;
        }
        let g_first = Time::new(range.start.ticks() + 1).align_up(p);
        let g_last = range.end.align_down(p);
        if g_first > g_last {
            out.push(range.end, None);
            return;
        }
        let root = tp.root.expect("the batch gate requires a root");
        let (mut points, mut reduces) = runners.bind(self, bufs, &tp.reduce_elem);
        // Lanes can repeat only where windows hold stepping dense.
        let fills = !reduces.is_empty() && !self.sample && !self.uses_time;
        // Whether the last look ahead found lanes to fill. A run starts out
        // hopeful: that costs a dense stream one miss per run.
        let mut sparse = true;

        let mut g = g_first;
        loop {
            let span_cap = (((g_last.ticks() - g.ticks()) / p) as usize + 1).min(MAX_BATCH);
            let mut k = 0usize;
            let mut filled = 0usize;
            // The grid tick after this run; `None` once stepping passed
            // `g_last` (the drive is over after this batch).
            let mut succ: Option<Time> = None;
            let mut stop = false;
            while k < span_cap {
                let gk = g + (k as i64) * p;
                ctx.t = gk.ticks();
                let mut moved = false;
                for (i, runner) in reduces.iter_mut().enumerate() {
                    let map = tp.typed_maps[i].as_ref();
                    match self.reduce_modes[i] {
                        Some((fold, _)) => {
                            let run = map.map(|map| MapRun {
                                map,
                                ctx: &mut *ctx,
                                lanes: map.runs_on_lanes().then_some(&mut *bc),
                            });
                            runner.slide_typed(gk, fold, run);
                        }
                        // Result provably φ (no register): the window still
                        // slides dynamically so `next_tick` sees its state.
                        None => {
                            slide_boxed(runner, tp, ctx, i, gk);
                        }
                    }
                    moved |= runner.moved();
                    if let Some(reg) = tp.reduce_regs[i] {
                        match reg.class {
                            Class::F => bc.store_f_lane(reg, k, runner.result_f()),
                            Class::I => bc.store_i_lane(reg, k, runner.result_i()),
                            _ => unreachable!("batch gate admits only typed reduce registers"),
                        }
                    }
                }
                for (i, runner) in points.iter_mut().enumerate() {
                    let t = gk + runner.spec.offset;
                    match tp.point_regs[i] {
                        Some(reg) => match reg.class {
                            Class::F => {
                                let (v, b) = runner.cursor.value_f64_and_boundary(t);
                                bc.store_f_lane(reg, k, v);
                                runner.boundary = b;
                            }
                            Class::I => {
                                let (v, b) = runner.cursor.value_i64_and_boundary(t);
                                bc.store_i_lane(reg, k, v);
                                runner.boundary = b;
                            }
                            Class::B => {
                                let (v, b) = runner.cursor.value_bool_and_boundary(t);
                                bc.store_b_lane(reg, k, v);
                                runner.boundary = b;
                            }
                            Class::V => {
                                unreachable!("batch gate admits only typed point registers")
                            }
                        },
                        None => runner.boundary = runner.cursor.boundary(t),
                    }
                }
                k += 1;
                match self.next_tick(gk, g_last, &points, &reduces, false) {
                    Some(ng) if ng.ticks() == gk.ticks() + p => {
                        // Dense. The lanes up to the next change point
                        // repeat this one; past them, extend the run (or
                        // hand the successor to the next batch when this
                        // one is full).
                        if fills && (sparse || !moved) && k < span_cap {
                            let quiet = match self.next_tick(gk, g_last, &points, &reduces, true) {
                                Some(change) => ((change - gk) / p) as usize - 1,
                                None => usize::MAX,
                            };
                            let n = quiet.min(span_cap - k);
                            sparse = n > 0;
                            if sparse {
                                let regs = tp.reduce_regs.iter().chain(&tp.point_regs);
                                bc.repeat_lane(regs.flatten().copied(), k - 1, n);
                                k += n;
                                filled += n;
                            }
                        }
                        if k == span_cap {
                            let ng = g + (k as i64) * p;
                            if ng <= g_last {
                                succ = Some(ng);
                            } else {
                                stop = true;
                            }
                        }
                    }
                    Some(ng) => {
                        succ = Some(ng);
                        break;
                    }
                    None => {
                        stop = true;
                        break;
                    }
                }
            }
            bc.exec(&tp.instrs, g.ticks(), p, k);
            ctx.lanes += k as u64;
            ctx.slides += (k - filled) as u64;
            // Interior lanes are dense, so each value holds exactly at its
            // own tick; the last lane holds until the successor (or
            // `g_last`), same spans the scalar skeleton pushes.
            let last_end =
                if stop { g_last } else { succ.expect("a non-final batch has a successor") - p };
            let (vals, nulls) = T::lanes(bc, root);
            out.extend_lanes(g, p, last_end, &vals[..k], nulls);
            if stop {
                break;
            }
            g = succ.expect("a non-final batch has a successor");
        }
        if g_last < range.end {
            out.push(range.end, None);
        }
        runners.unbind(points, reduces);
        self.count_ctx(ctx);
    }

    /// The shared loop skeleton of the per-tick tiers: change-point-driven
    /// stepping over the grid, one `eval_tick` call per visited tick, one
    /// `push(end, value)` per output span (the caller has reset the output
    /// to `range.start`; `V::default()` is φ). Returns the ticks visited.
    #[allow(clippy::type_complexity)]
    fn drive<'b, V: Default>(
        &'b self,
        runners: &mut Runners,
        bufs: Bufs<'_, 'b>,
        range: TimeRange,
        reduce_classes: &[Option<Class>],
        eval_tick: &mut dyn FnMut(&mut [PointRunner<'_>], &mut [ReduceRunner<'_>], Time) -> V,
        push: &mut dyn FnMut(Time, V),
    ) -> u64 {
        let p = self.precision;
        if range.is_empty() {
            return 0;
        }
        let g_first = Time::new(range.start.ticks() + 1).align_up(p);
        let g_last = range.end.align_down(p);
        if g_first > g_last {
            push(range.end, V::default());
            return 0;
        }
        let (mut points, mut reduces) = runners.bind(self, bufs, reduce_classes);

        let mut ticks = 0;
        let mut g = g_first;
        loop {
            let v = eval_tick(&mut points, &mut reduces, g);
            ticks += 1;
            match self.next_tick(g, g_last, &points, &reduces, false) {
                Some(ng) => {
                    // `v` holds for every tick in [g, ng − p].
                    push(ng - p, v);
                    g = ng;
                }
                None => {
                    push(g_last, v);
                    break;
                }
            }
        }
        if g_last < range.end {
            push(range.end, V::default());
        }
        runners.unbind(points, reduces);
        ticks
    }

    /// The next grid tick (≤ `g_last`) the loop must visit after `g`: where
    /// any access may change value, and — event identity — every tick of a
    /// window with content. With `by_change`, only the former: a window
    /// with content counts for the ticks a span enters or leaves it, which
    /// is how far the lanes after `g` repeat `g`'s.
    fn next_tick(
        &self,
        g: Time,
        g_last: Time,
        points: &[PointRunner<'_>],
        reduces: &[ReduceRunner<'_>],
        by_change: bool,
    ) -> Option<Time> {
        let p = self.precision;
        if self.sample || self.uses_time {
            let ng = g + p;
            return if ng <= g_last { Some(ng) } else { None };
        }
        let mut best: Option<Time> = None;
        let mut consider = |t: Time| {
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        };
        for runner in points {
            // The value read at source time `g + offset` lasts until the end
            // of its span (cached by `eval_at`); the new value becomes
            // visible one tick later.
            if let Some(b) = runner.boundary {
                consider(Time::new(b.ticks() + 1 - runner.spec.offset));
            }
        }
        for runner in reduces {
            if runner.has_content() && !by_change {
                // A non-empty reduction defines one snapshot per grid tick:
                // downstream consumers count window outputs per stride
                // (event identity), so equal-valued consecutive ticks must
                // not be skipped. φ gaps (below) still are.
                consider(g + p);
                continue;
            }
            if let Some(t) = runner.next_enter_time() {
                consider(t);
            }
            if by_change {
                if let Some(t) = runner.next_evict_time() {
                    consider(t);
                }
            }
        }
        let mut ng = if p == 1 { best? } else { best?.align_up(p) };
        if ng <= g {
            ng = g + p;
        }
        if ng <= g_last {
            Some(ng)
        } else {
            None
        }
    }
}

impl Profiler for Kernel {
    fn enabled(&self) -> bool {
        self.timed.load(Ordering::Relaxed)
    }

    fn record(&self, nanos: u64) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// A frozen per-kernel profile: what `kernel_hot --json` and the service
/// exposition report per kernel instead of the old aggregate-only
/// fallback count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelProfile {
    /// The kernel's human-readable name (its object's query name).
    pub name: String,
    /// Whether the typed (compiled) tier was lowered.
    pub compiled: bool,
    /// Whether the typed body executes batched (runs of ticks per
    /// dispatch).
    pub batched: bool,
    /// Whether the typed tier never touches the dynamic enum.
    pub fully_typed: bool,
    /// Timed invocations (0 unless profiling was enabled).
    pub invocations: u64,
    /// Total wall nanoseconds across timed invocations.
    pub nanos: u64,
    /// Enum-touching fallback operations (counted even when untimed).
    pub fallback_ops: u64,
    /// Fused window-map executions (counted even when untimed); bounded by
    /// elements accumulated — the map-once-per-element invariant.
    pub map_runs: u64,
    /// Grid ticks the typed tiers evaluated (counted even when untimed):
    /// one per output span before coalescing.
    pub lanes: u64,
    /// Of `lanes`, the ticks evaluated by sliding windows and loading
    /// reads. The rest — `lanes − slides` — sat between two change points
    /// of a window with content and were copied from the tick before
    /// (batched tier only; the per-tick tier slides at every tick).
    pub slides: u64,
}

impl KernelProfile {
    /// Mean wall nanoseconds per timed invocation (0.0 when untimed).
    pub fn ns_per_invocation(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.nanos as f64 / self.invocations as f64
        }
    }

    /// Fallback operations per timed invocation (0.0 when untimed).
    pub fn fallback_rate(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.fallback_ops as f64 / self.invocations as f64
        }
    }
}

/// How a kernel run finds its dependency buffers: by object, `None` when
/// the executor holds none for it.
pub(crate) type Bufs<'r, 'b> = &'r dyn Fn(TObjId) -> Option<&'b SnapshotBuf<Value>>;

/// One point access during kernel execution: a cursor plus the cached end of
/// the span last read (the access's next possible change point).
struct PointRunner<'a> {
    cursor: SsCursor<'a>,
    spec: PointSpec,
    boundary: Option<Time>,
}

/// How many kernels a [`Scratch`] keeps run state for. Past it the scratch
/// starts over: state of kernels that no longer exist goes, the live ones
/// reshape theirs on their next run.
const SCRATCH_KERNELS: usize = 64;

/// The run state of the kernels a thread runs, kept from one run to the
/// next: one per thread — a shard worker, a `run_parallel` worker, whatever
/// thread drives sessions and one-shot runs — never per key and never per
/// session, so that it stays warm in cache however many sessions the
/// thread serves (a copy per session is as slow to touch as the state was
/// to rebuild). Like a [`tilt_data::BufPool`]'s buffers it is memory, not
/// state: nothing in it outlives a run in a way a later run can observe,
/// and it is never checkpointed, spilled or migrated.
#[derive(Default)]
pub(crate) struct Scratch {
    states: Vec<RunState>,
}

thread_local! {
    /// This thread's scratch while no execution holds it.
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

impl Scratch {
    /// Takes this thread's scratch for the length of one execution: the one
    /// last [`Scratch::put`] back, or an empty one — the first time, and
    /// whenever the last taker never returned it (a kernel panicked, and
    /// what the run left half-written went with the unwinding).
    pub(crate) fn take() -> Box<Scratch> {
        SCRATCH.take().unwrap_or_default()
    }

    /// Returns the scratch after an execution that ran to its end.
    pub(crate) fn put(self: Box<Scratch>) {
        SCRATCH.set(Some(self));
    }

    /// `kernel`'s run state, shaped on the kernel's first run over this
    /// scratch.
    fn state_of(&mut self, kernel: &Kernel) -> &mut RunState {
        let at = match self.states.iter().position(|s| s.id == kernel.id) {
            Some(at) => at,
            None => {
                if self.states.len() == SCRATCH_KERNELS {
                    self.states.clear();
                }
                self.states.push(RunState::shape(kernel));
                self.states.len() - 1
            }
        };
        &mut self.states[at]
    }
}

#[cfg(test)]
impl Scratch {
    /// Overwrites everything a run may leave behind in the state of
    /// `kernels` — every register and lane that is not a prelude constant
    /// (NaN, `i64::MIN`, `true`, φ flags all set or all clear per `null`),
    /// every accumulator and ring — so a test can show that no run reads
    /// any of it. Returns how many run states it found.
    pub(crate) fn poison(&mut self, kernels: &[&Kernel], null: bool) -> usize {
        for state in &mut self.states {
            let kernel = kernels.iter().find(|k| k.id == state.id).expect("a known kernel");
            match (&kernel.typed, &mut state.regs) {
                (Some(tp), Regs::Batched(ctx, bc)) => {
                    ctx.poison(tp, null);
                    bc.poison(tp, null);
                }
                (Some(tp), Regs::Typed(ctx)) => ctx.poison(tp, null),
                (None, Regs::Interp(ctx)) => {
                    let junk = if null { Value::Null } else { Value::Float(f64::NAN) };
                    for slot in ctx.points.iter_mut().chain(&mut ctx.reduces).chain(&mut ctx.vars) {
                        *slot = junk.clone();
                    }
                }
                _ => unreachable!("a run state is shaped by its kernel"),
            }
            state.runners.stores.iter_mut().for_each(ReduceStore::poison);
        }
        self.states.len()
    }
}

/// Everything a run of one kernel allocates, kept so the next run resets it
/// instead: the register file of the kernel's tier and the runners'
/// buffers. A run leaves values behind in all of it; the next one reads
/// none of them — constants aside, every register is written before it is
/// read, every counter is folded and zeroed ([`Kernel::count_ctx`]), every
/// accumulator and ring is emptied when its runner is bound.
struct RunState {
    /// [`Kernel::id`] of the kernel this state is shaped for.
    id: u64,
    regs: Regs,
    runners: Runners,
}

/// The register file(s) of a kernel's tier.
enum Regs {
    Interp(EvalCtx),
    Typed(TypedCtx),
    /// The scalar file hosts per-element map execution and the run
    /// counters; the columns were broadcast from its prelude constants.
    Batched(TypedCtx, BatchCtx),
}

impl RunState {
    fn shape(kernel: &Kernel) -> RunState {
        let regs = match &kernel.typed {
            Some(tp) if kernel.batched => {
                let ctx = tp.new_ctx();
                let bc = BatchCtx::new(tp, &ctx);
                Regs::Batched(ctx, bc)
            }
            Some(tp) => Regs::Typed(tp.new_ctx()),
            None => Regs::Interp(kernel.program.new_ctx()),
        };
        RunState { id: kernel.id, regs, runners: Runners::default() }
    }
}

/// The runners' storage between runs: the two runner vectors, empty (a
/// runner borrows its source buffer, so none outlives its run), and one
/// [`ReduceStore`] per reduce slot.
#[derive(Default)]
struct Runners {
    points: Vec<PointRunner<'static>>,
    reduces: Vec<ReduceRunner<'static>>,
    stores: Vec<ReduceStore>,
}

/// An empty vector's allocation as a vector of `B`. `A` and `B` are one
/// type at two lifetimes, so the in-place `collect` keeps the buffer.
fn retyped<A, B>(mut v: Vec<A>) -> Vec<B> {
    v.clear();
    v.into_iter().map(|_| unreachable!("the vector was cleared")).collect()
}

impl Runners {
    /// One point runner and one reduce runner per slot of `kernel`'s
    /// program, positioned at the start of their source buffers, in the
    /// vectors and over the stores of the previous run.
    fn bind<'b>(
        &mut self,
        kernel: &'b Kernel,
        bufs: Bufs<'_, 'b>,
        reduce_classes: &[Option<Class>],
    ) -> (Vec<PointRunner<'b>>, Vec<ReduceRunner<'b>>) {
        let buf_for = |obj: TObjId| -> &'b SnapshotBuf<Value> {
            bufs(obj).unwrap_or_else(|| panic!("kernel {}: missing buffer for {obj}", kernel.name))
        };
        let mut points: Vec<PointRunner<'b>> = retyped(std::mem::take(&mut self.points));
        points.extend(kernel.program.points.iter().map(|ps| PointRunner {
            cursor: SsCursor::new(buf_for(ps.obj)),
            spec: *ps,
            boundary: None,
        }));
        let mut reduces: Vec<ReduceRunner<'b>> = retyped(std::mem::take(&mut self.reduces));
        self.stores.resize_with(kernel.program.reduces.len(), ReduceStore::default);
        reduces.extend(kernel.program.reduces.iter().zip(&mut self.stores).enumerate().map(
            |(i, (rs, store))| {
                let class = reduce_classes.get(i).copied().flatten();
                ReduceRunner::with_store(rs, buf_for(rs.obj), class, std::mem::take(store))
            },
        ));
        (points, reduces)
    }

    /// Takes the vectors and the stores back after a run.
    fn unbind(&mut self, points: Vec<PointRunner<'_>>, mut reduces: Vec<ReduceRunner<'_>>) {
        for (store, runner) in self.stores.iter_mut().zip(reduces.drain(..)) {
            *store = runner.into_store();
        }
        self.points = retyped(points);
        self.reduces = retyped(reduces);
    }
}

/// Slides reduce slot `i` through the dynamic fold — boxed elements
/// through the typed map, if the window has one — and returns the boxed
/// result: the path of custom reducers, dynamic elements and provably-φ
/// slots.
fn slide_boxed(
    runner: &mut ReduceRunner<'_>,
    tp: &TypedProgram,
    ctx: &mut TypedCtx,
    i: usize,
    g: Time,
) -> Value {
    match &tp.typed_maps[i] {
        None => runner.eval_at_with(g, None),
        Some(map) => runner.eval_at_with(g, Some(&mut |elem: &Value| map.run(ctx, elem))),
    }
}

/// Evaluates the program at grid tick `g`: reduces first (their fused maps
/// use variable slots), then point accesses, then the compiled body.
fn eval_at(
    program: &Program,
    ctx: &mut EvalCtx,
    points: &mut [PointRunner<'_>],
    reduces: &mut [ReduceRunner<'_>],
    g: Time,
) -> Value {
    ctx.t = g.ticks();
    for (i, runner) in reduces.iter_mut().enumerate() {
        let v = runner.eval_at(g, ctx);
        ctx.reduces[i] = v;
    }
    for (i, runner) in points.iter_mut().enumerate() {
        let (v, b) = runner.cursor.value_and_boundary(g + runner.spec.offset);
        ctx.points[i] = v;
        runner.boundary = b;
    }
    program.run(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataType, Expr, Query, ReduceOp, TDom};
    use tilt_data::Event;

    fn float_events(points: &[(i64, f64)]) -> Vec<Event<Value>> {
        points.iter().map(|&(t, v)| Event::point(Time::new(t), Value::Float(v))).collect()
    }

    fn run_single(
        body: Expr,
        dom: TDom,
        sample: bool,
        events: &[(i64, f64)],
        range: (i64, i64),
    ) -> SnapshotBuf<Value> {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        // Tests write the input as TObjId(0), which is exactly what the
        // builder assigned: no rewrite needed.
        let _ = input;
        let out = if sample {
            b.temporal_sampled("out", dom, body)
        } else {
            b.temporal("out", dom, body)
        };
        let q = b.finish(out).unwrap();
        let te = q.exprs()[0].clone();
        let kernel = Kernel::new(&te, "out").unwrap();
        let range = TimeRange::new(Time::new(range.0), Time::new(range.1));
        let buf = SnapshotBuf::from_events(&float_events(events), range);
        let bufs = [Some(&buf), None];
        kernel.run(&bufs, range)
    }

    #[test]
    fn select_maps_every_event() {
        let body = Expr::at(TObjId(0)).add(Expr::c(1.0));
        let out =
            run_single(body, TDom::every_tick(), false, &[(1, 10.0), (2, 11.0), (3, 12.0)], (0, 4));
        let events = out.to_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].payload, Value::Float(11.0));
        assert_eq!(events[2].payload, Value::Float(13.0));
        assert_eq!(out.value_at(Time::new(4)), Value::Null);
    }

    #[test]
    fn where_filters_via_phi() {
        let body =
            Expr::if_else(Expr::at(TObjId(0)).gt(Expr::c(10.5)), Expr::at(TObjId(0)), Expr::null());
        let out =
            run_single(body, TDom::every_tick(), false, &[(1, 10.0), (2, 11.0), (3, 12.0)], (0, 3));
        let events = out.to_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].payload, Value::Float(11.0));
    }

    #[test]
    fn window_sum_with_stride_matches_hand_computation() {
        // Events valued 1..=12 at ticks 1..=12; Window(10, 5): at t=5 sum(1..=5)=15,
        // t=10 sum(1..=10)=55, t=15 windows (5,15]: sum(6..=12)=63.
        let events: Vec<(i64, f64)> = (1..=12).map(|t| (t, t as f64)).collect();
        let body = Expr::reduce_window(ReduceOp::Sum, TObjId(0), 10);
        let out = run_single(body, TDom::unbounded(5), false, &events, (0, 15));
        assert_eq!(out.value_at(Time::new(5)), Value::Float(15.0));
        assert_eq!(out.value_at(Time::new(10)), Value::Float(55.0));
        assert_eq!(out.value_at(Time::new(15)), Value::Float(63.0));
        // Precision 5: value at non-grid t equals value at the next grid tick.
        assert_eq!(out.value_at(Time::new(7)), Value::Float(55.0));
    }

    #[test]
    fn event_driven_loop_skips_idle_gaps() {
        // Two bursts separated by a huge gap; the kernel output must stay
        // small (no per-tick φ spans inside the gap).
        let mut events = vec![(1, 1.0), (2, 2.0)];
        events.push((1_000_000, 3.0));
        let body = Expr::reduce_window(ReduceOp::Sum, TObjId(0), 10);
        let out = run_single(body, TDom::every_tick(), false, &events, (0, 1_000_010));
        assert!(out.len() < 32, "expected sparse output, got {} spans", out.len());
        assert_eq!(out.value_at(Time::new(2)), Value::Float(3.0));
        assert_eq!(out.value_at(Time::new(500_000)), Value::Null);
        assert_eq!(out.value_at(Time::new(1_000_000)), Value::Float(3.0));
        assert_eq!(out.value_at(Time::new(1_000_009)), Value::Float(3.0));
        assert_eq!(out.value_at(Time::new(1_000_010)), Value::Null);
    }

    #[test]
    fn shift_reads_the_past() {
        let body = Expr::at_off(TObjId(0), -2);
        let out = run_single(body, TDom::every_tick(), false, &[(1, 5.0)], (0, 5));
        assert_eq!(out.value_at(Time::new(3)), Value::Float(5.0));
        assert_eq!(out.value_at(Time::new(1)), Value::Null);
        assert_eq!(out.value_at(Time::new(4)), Value::Null);
    }

    #[test]
    fn sampled_kernel_emits_every_tick() {
        // Chop semantics: one long event resampled at precision 2.
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let out = b.temporal_sampled("chop", TDom::unbounded(2), Expr::at(input));
        let q = b.finish(out).unwrap();
        let kernel = Kernel::new(&q.exprs()[0], "chop").unwrap();
        let range = TimeRange::new(Time::new(0), Time::new(10));
        let events = vec![Event::new(Time::new(0), Time::new(10), Value::Float(7.0))];
        let buf = SnapshotBuf::from_events(&events, range);
        let out = kernel.run(&[Some(&buf), None], range);
        // 5 snapshots of value 7.0, one per 2-tick step.
        assert_eq!(out.len(), 5);
        assert!(out.spans().iter().all(|s| s.value == Value::Float(7.0)));
    }

    #[test]
    fn join_shape_intersects_intervals() {
        // ~join[t] = (a[t] != φ && b[t] != φ) ? a[t] + b[t] : φ over two inputs.
        let mut b = Query::builder();
        let a_in = b.input("a", DataType::Float);
        let b_in = b.input("b", DataType::Float);
        let body = Expr::if_else(
            Expr::at(a_in).is_present().and(Expr::at(b_in).is_present()),
            Expr::at(a_in).add(Expr::at(b_in)),
            Expr::null(),
        );
        let out = b.temporal("join", TDom::every_tick(), body);
        let q = b.finish(out).unwrap();
        let kernel = Kernel::new(&q.exprs()[0], "join").unwrap();
        let range = TimeRange::new(Time::new(0), Time::new(20));
        let buf_a = SnapshotBuf::from_events(
            &[Event::new(Time::new(0), Time::new(10), Value::Float(1.0))],
            range,
        );
        let buf_b = SnapshotBuf::from_events(
            &[Event::new(Time::new(5), Time::new(15), Value::Float(2.0))],
            range,
        );
        let out = kernel.run(&[Some(&buf_a), Some(&buf_b), None], range);
        let events = out.to_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].interval(), TimeRange::new(Time::new(5), Time::new(10)));
        assert_eq!(events[0].payload, Value::Float(3.0));
    }

    #[test]
    fn empty_range_and_no_grid_ticks() {
        let body = Expr::at(TObjId(0));
        let out = run_single(body, TDom::unbounded(100), false, &[(1, 1.0)], (0, 50));
        // No grid tick inside (0, 50] for precision 100: all φ.
        assert_eq!(out.to_events().len(), 0);
        assert_eq!(out.range(), TimeRange::new(Time::new(0), Time::new(50)));
    }

    #[test]
    fn retyped_keeps_the_allocation() {
        // What `Runners` relies on to hold its vectors across runs.
        let v: Vec<PointRunner<'static>> = Vec::with_capacity(5);
        let at = v.as_ptr() as usize;
        let buf = SnapshotBuf::new(Time::ZERO);
        let mut w: Vec<PointRunner<'_>> = retyped(v);
        assert_eq!((w.as_ptr() as usize, w.capacity()), (at, 5));
        let spec = PointSpec { obj: TObjId(0), offset: 0 };
        w.push(PointRunner { cursor: SsCursor::new(&buf), spec, boundary: None });
        let back: Vec<PointRunner<'static>> = retyped(w);
        assert_eq!((back.as_ptr() as usize, back.capacity(), back.len()), (at, 5, 0));
    }

    #[test]
    fn dependencies_listed_once() {
        let body = Expr::at(TObjId(0)).add(Expr::reduce_window(ReduceOp::Sum, TObjId(0), 5));
        let mut b = Query::builder();
        let _ = b.input("in", DataType::Float);
        let out = b.temporal("out", TDom::every_tick(), body);
        let q = b.finish(out).unwrap();
        let kernel = Kernel::new(&q.exprs()[0], "out").unwrap();
        assert_eq!(kernel.dependencies(), vec![TObjId(0)]);
    }
}
