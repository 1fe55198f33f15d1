//! The typed compilation tier: monomorphized register bytecode (paper §6.1,
//! "compiled" execution; see DESIGN.md substitution 1).
//!
//! The closure-compiled [`Program`](super::Program) still interprets every
//! operation over the dynamic [`Value`] enum — each node matches on tags and
//! clones payloads. This module adds the tier the paper's LLVM backend
//! provides: the type checker assigns every sub-expression a static type,
//! and the body is lowered once into a small register bytecode over four
//! register classes:
//!
//! * `F`/`I`/`B` — unboxed `f64`/`i64`/`bool` register files with an
//!   out-of-band [`NullMask`] carrying φ, so the numeric hot path never
//!   touches the enum;
//! * `V` — boxed [`Value`] registers, the *precise* fallback for `Str` and
//!   `Tuple` subtrees, [`crate::ir::ReduceOp::Custom`] results, and values
//!   whose runtime type is genuinely dynamic (e.g. an `if` whose branches
//!   promote `int` against `float`: the taken branch's unpromoted value is
//!   observable, so the result must stay boxed to match the interpreter
//!   bit-for-bit).
//!
//! Every enum-touching operation counts into
//! [`TypedCtx::fallback_ops`]; a fully numeric plan compiles with zero `V`
//! registers ([`TypedProgram::is_fully_typed`]) and its counter stays zero —
//! the `kernel_hot` bench guardrail pins this. Compiled and interpreted
//! tiers are *byte-identical* on well-typed data: the differential property
//! suite (`tests/compiled_tier_properties.rs`) compares them span by span.
//!
//! When lowering for the batched tier (`speculate` in [`compile_typed`]),
//! `if`/`else` bodies whose instructions are side-effect-free and
//! non-trapping are **if-converted**: both branches execute
//! unconditionally and a single [`Instr::Select`] picks the taken value,
//! yielding straight-line bytecode the batch gate (`super::batch`) can
//! admit. The per-tick tier lowers with speculation off, so its bytecode
//! keeps the branchy reference shape.
//! Payloads that violate their declared input type follow [`Value`]'s
//! unboxing semantics on the typed path — `Int` on a `Float` input coerces
//! ([`Value::as_f64`]), anything else reads as φ — instead of reproducing
//! the interpreter's dynamic-dispatch quirks; ingestion owns the contract
//! that event payloads match their declared types.

use std::collections::HashMap;

use tilt_data::{ColumnRef, NullMask, Value};

use super::batch::{map_batchable, BatchCtx, Lane};
use super::program::{PointSpec, Program};
use crate::error::{CompileError, Result};
use crate::ir::typeck::{binary_type, unary_type, TypeInfo};
use crate::ir::{BinOp, DataType, Expr, ReduceOp, TObjId, UnOp, VarId};

/// The register class of a typed value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Class {
    /// Unboxed `f64`.
    F,
    /// Unboxed `i64`.
    I,
    /// Unboxed `bool`.
    B,
    /// Boxed [`Value`] (the fallback class).
    V,
}

impl Class {
    /// The class representing payloads of declared type `ty`.
    pub(crate) fn of_type(ty: &DataType) -> Class {
        match ty {
            DataType::Float => Class::F,
            DataType::Int => Class::I,
            DataType::Bool => Class::B,
            // Unknown inputs carry arbitrary runtime payloads: stay boxed.
            DataType::Str | DataType::Tuple(_) | DataType::Unknown => Class::V,
        }
    }
}

/// A typed register: class + index into that class's file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Reg {
    pub(crate) class: Class,
    pub(crate) idx: u16,
}

/// Arithmetic operations shared by the `F` and `I` instruction arms.
#[derive(Clone, Copy, Debug)]
pub(super) enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Pow,
    Min,
    Max,
}

impl ArithOp {
    fn of(op: BinOp) -> Option<ArithOp> {
        Some(match op {
            BinOp::Add => ArithOp::Add,
            BinOp::Sub => ArithOp::Sub,
            BinOp::Mul => ArithOp::Mul,
            BinOp::Div => ArithOp::Div,
            BinOp::Rem => ArithOp::Rem,
            BinOp::Pow => ArithOp::Pow,
            BinOp::Min => ArithOp::Min,
            BinOp::Max => ArithOp::Max,
            _ => return None,
        })
    }

    /// Float semantics, identical to `Value`'s float arms.
    #[inline]
    pub(super) fn apply_f(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
            ArithOp::Rem => a % b,
            ArithOp::Pow => a.powf(b),
            ArithOp::Min => a.min(b),
            ArithOp::Max => a.max(b),
        }
    }

    /// Integer semantics, identical to `Value`'s int arms (`None` = φ).
    #[inline]
    pub(super) fn apply_i(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div if b == 0 => return None,
            ArithOp::Div => a / b,
            ArithOp::Rem if b == 0 => return None,
            ArithOp::Rem => a % b,
            ArithOp::Pow => a.pow(b.clamp(0, u32::MAX as i64) as u32),
            ArithOp::Min => a.min(b),
            ArithOp::Max => a.max(b),
        })
    }
}

/// Ordering comparisons shared by the typed comparison arms.
#[derive(Clone, Copy, Debug)]
pub(super) enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn of(op: BinOp) -> Option<CmpOp> {
        Some(match op {
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            _ => return None,
        })
    }

    /// The mirrored comparison: `c op a ⇔ a flip(op) c`, used when folding
    /// a left-hand constant into a `Cmp*C` superinstruction.
    fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    #[inline]
    pub(super) fn apply<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// One typed instruction. Register operands are indices into the class
/// files of [`TypedCtx`]; control flow uses absolute instruction indices.
#[derive(Clone, Debug)]
pub(super) enum Instr {
    ConstF {
        dst: u16,
        v: f64,
    },
    ConstI {
        dst: u16,
        v: i64,
    },
    ConstB {
        dst: u16,
        v: bool,
    },
    ConstV {
        dst: u16,
        v: Box<Value>,
    },
    /// Sets `dst` to φ.
    Null {
        dst: Reg,
    },
    /// Loads the evaluation time into an `I` register.
    Time {
        dst: u16,
    },
    /// Same-class register copy.
    Mov {
        src: Reg,
        dst: Reg,
    },
    /// Boxes a typed register into a `V` register.
    Box {
        src: Reg,
        dst: u16,
    },
    ArithF {
        op: ArithOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    ArithI {
        op: ArithOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Arithmetic with an embedded constant operand (`rev` puts the
    /// constant on the left: `c op a`). Saves a constant register read per
    /// tick — the most common binary shape after fusion.
    ArithFC {
        op: ArithOp,
        a: u16,
        c: f64,
        dst: u16,
        rev: bool,
    },
    /// `x * y + z` in one dispatch (peephole-fused; computed as separate
    /// multiply-then-add so rounding matches the interpreter exactly —
    /// this is *not* an FMA).
    MulAddF {
        x: u16,
        y: u16,
        z: u16,
        dst: u16,
    },
    /// `x * y + c` with an embedded constant addend.
    MulAddFC {
        x: u16,
        y: u16,
        c: f64,
        dst: u16,
    },
    ArithIC {
        op: ArithOp,
        a: u16,
        c: i64,
        dst: u16,
        rev: bool,
    },
    CmpF {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpI {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    CmpB {
        op: CmpOp,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Comparison against an embedded constant (left-hand constants are
    /// pre-flipped by the compiler).
    CmpFC {
        op: CmpOp,
        a: u16,
        c: f64,
        dst: u16,
    },
    CmpIC {
        op: CmpOp,
        a: u16,
        c: i64,
        dst: u16,
    },
    /// The filter idiom `cond ? a : b` where both branches are plain
    /// registers or φ: a single conditional move, no jump scaffold.
    Select {
        cond: u16,
        t: Option<Reg>,
        f: Option<Reg>,
        dst: Reg,
    },
    /// Float equality with snapshot-identity semantics (bitwise, like
    /// [`Value::same`]); `neg` selects `!=`.
    EqF {
        neg: bool,
        a: u16,
        b: u16,
        dst: u16,
    },
    EqI {
        neg: bool,
        a: u16,
        b: u16,
        dst: u16,
    },
    EqB {
        neg: bool,
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Kleene conjunction over `B` registers.
    AndB {
        a: u16,
        b: u16,
        dst: u16,
    },
    /// Kleene disjunction over `B` registers.
    OrB {
        a: u16,
        b: u16,
        dst: u16,
    },
    NotB {
        a: u16,
        dst: u16,
    },
    NegF {
        a: u16,
        dst: u16,
    },
    NegI {
        a: u16,
        dst: u16,
    },
    AbsF {
        a: u16,
        dst: u16,
    },
    AbsI {
        a: u16,
        dst: u16,
    },
    SqrtF {
        a: u16,
        dst: u16,
    },
    /// Int → float conversion (the numeric promotion step).
    I2F {
        a: u16,
        dst: u16,
    },
    /// Float → int truncation (`ToInt`).
    F2I {
        a: u16,
        dst: u16,
    },
    /// The `e != φ` test; never φ, works on every class.
    IsNull {
        a: Reg,
        dst: u16,
    },
    /// Dynamic binary op over boxed operands (fallback arm): boxes both
    /// sides, applies the `Value` op, stores per `dst` class.
    BinV {
        op: BinOp,
        a: Reg,
        b: Reg,
        dst: Reg,
    },
    /// Dynamic unary op over a boxed operand (fallback arm).
    UnV {
        op: UnOp,
        a: u16,
        dst: Reg,
    },
    /// Tuple field projection out of a `V` register.
    Field {
        a: u16,
        idx: usize,
        dst: u16,
    },
    /// Tuple construction from (possibly φ) typed parts.
    MakeTuple {
        parts: Box<[Option<Reg>]>,
        dst: u16,
    },
    Jump {
        target: u32,
    },
    /// Three-way branch on a `B` register: fall through on `true`.
    Branch {
        cond: u16,
        on_false: u32,
        on_null: u32,
    },
    /// Three-way branch on a boxed condition (dynamic `if`).
    BranchV {
        cond: u16,
        on_false: u32,
        on_null: u32,
    },
}

/// The runtime register files of a compiled typed program.
///
/// φ lives in per-class [`NullMask`]s for the unboxed files; `V` registers
/// carry it inline as [`Value::Null`]. Registers persist across ticks, like
/// the interpreter's [`super::EvalCtx`] slots — and across runs: the file
/// is part of the kernel's run state, its prelude constants written once
/// (nothing else ever writes those registers) and everything else defined
/// by the body before it is read.
#[derive(Clone, Debug)]
pub(crate) struct TypedCtx {
    /// The current evaluation time in ticks.
    pub(crate) t: i64,
    f: Vec<f64>,
    i: Vec<i64>,
    b: Vec<bool>,
    v: Vec<Value>,
    nf: NullMask,
    ni: NullMask,
    nb: NullMask,
    /// Executions of enum-touching (fallback) operations since creation.
    pub(crate) fallback_ops: u64,
    /// Executions of fused window maps since creation — the observable for
    /// the map-once-per-element invariant (Subtract-on-Evict must *not*
    /// re-run maps; see `super::reduce`).
    pub(crate) map_runs: u64,
    /// Grid ticks evaluated since the kernel last folded its counters.
    pub(crate) lanes: u64,
    /// Of those, the ticks whose windows were slid and reads loaded — the
    /// rest were copies of the tick before (see `Kernel::run_batched_as`).
    pub(crate) slides: u64,
}

impl TypedCtx {
    #[inline]
    fn set_f(&mut self, i: u16, v: f64) {
        self.f[i as usize] = v;
        self.nf.set(i as usize, false);
    }

    #[inline]
    fn set_i(&mut self, i: u16, v: i64) {
        self.i[i as usize] = v;
        self.ni.set(i as usize, false);
    }

    #[inline]
    fn set_b(&mut self, i: u16, v: bool) {
        self.b[i as usize] = v;
        self.nb.set(i as usize, false);
    }

    #[inline]
    pub(super) fn get_f(&self, i: u16) -> (f64, bool) {
        (self.f[i as usize], self.nf.get(i as usize))
    }

    #[inline]
    pub(super) fn get_i(&self, i: u16) -> (i64, bool) {
        (self.i[i as usize], self.ni.get(i as usize))
    }

    #[inline]
    pub(super) fn get_b(&self, i: u16) -> (bool, bool) {
        (self.b[i as usize], self.nb.get(i as usize))
    }

    #[inline]
    fn set_null(&mut self, r: Reg) {
        match r.class {
            Class::F => self.nf.set(r.idx as usize, true),
            Class::I => self.ni.set(r.idx as usize, true),
            Class::B => self.nb.set(r.idx as usize, true),
            Class::V => self.v[r.idx as usize] = Value::Null,
        }
    }

    /// Whether the register currently holds φ.
    #[inline]
    fn is_null(&self, r: Reg) -> bool {
        match r.class {
            Class::F => self.nf.get(r.idx as usize),
            Class::I => self.ni.get(r.idx as usize),
            Class::B => self.nb.get(r.idx as usize),
            Class::V => matches!(self.v[r.idx as usize], Value::Null),
        }
    }

    /// Boxes a register's current content.
    #[inline]
    fn read_value(&self, r: Reg) -> Value {
        match r.class {
            Class::F => {
                let (x, n) = self.get_f(r.idx);
                if n {
                    Value::Null
                } else {
                    Value::Float(x)
                }
            }
            Class::I => {
                let (x, n) = self.get_i(r.idx);
                if n {
                    Value::Null
                } else {
                    Value::Int(x)
                }
            }
            Class::B => {
                let (x, n) = self.get_b(r.idx);
                if n {
                    Value::Null
                } else {
                    Value::Bool(x)
                }
            }
            Class::V => self.v[r.idx as usize].clone(),
        }
    }

    /// Unboxes `v` into `r` (φ on class mismatch, with int → float
    /// coercion on the `F` file, mirroring [`Value::as_f64`]).
    #[inline]
    pub(crate) fn store_value(&mut self, r: Reg, v: Value) {
        match r.class {
            Class::F => match v.as_f64() {
                Some(x) => self.set_f(r.idx, x),
                None => self.nf.set(r.idx as usize, true),
            },
            Class::I => match v.as_i64() {
                Some(x) => self.set_i(r.idx, x),
                None => self.ni.set(r.idx as usize, true),
            },
            Class::B => match v.as_bool() {
                Some(x) => self.set_b(r.idx, x),
                None => self.nb.set(r.idx as usize, true),
            },
            // Counting happens at the operation sites (BinV, loads, …),
            // not here, so one dynamic op is one fallback op.
            Class::V => self.v[r.idx as usize] = v,
        }
    }

    /// Like [`TypedCtx::store_value`] but by reference (boxed point loads
    /// and map elements): unboxed classes never clone the payload.
    #[inline]
    pub(crate) fn load_value(&mut self, r: Reg, v: &Value) {
        match r.class {
            Class::F => self.store_f64(r, v.as_f64()),
            Class::I => self.store_i64(r, v.as_i64()),
            Class::B => self.store_bool(r, v.as_bool()),
            Class::V => {
                self.fallback_ops += 1;
                self.v[r.idx as usize] = v.clone();
            }
        }
    }

    /// Loads slot `i` of a source column (a live span: the caller checked
    /// the mask) into `r` — the element load of a per-element map. Unboxed
    /// classes index the column; a `V` register boxes the slot, which is
    /// fallback traffic.
    #[inline]
    pub(crate) fn load_slot(&mut self, r: Reg, col: &ColumnRef<'_>, i: usize) {
        match r.class {
            Class::F => self.store_f64(r, col.f64_at(i)),
            Class::I => self.store_i64(r, col.i64_at(i)),
            Class::B => self.store_bool(r, col.bool_at(i)),
            Class::V => {
                self.fallback_ops += 1;
                self.v[r.idx as usize] = col.value_at(i);
            }
        }
    }

    /// Stores an already-unboxed float (`None` = φ) — the typed point-load
    /// fast path.
    #[inline]
    pub(crate) fn store_f64(&mut self, r: Reg, v: Option<f64>) {
        debug_assert_eq!(r.class, Class::F);
        match v {
            Some(x) => self.set_f(r.idx, x),
            None => self.nf.set(r.idx as usize, true),
        }
    }

    /// Stores an already-unboxed integer (`None` = φ).
    #[inline]
    pub(crate) fn store_i64(&mut self, r: Reg, v: Option<i64>) {
        debug_assert_eq!(r.class, Class::I);
        match v {
            Some(x) => self.set_i(r.idx, x),
            None => self.ni.set(r.idx as usize, true),
        }
    }

    /// Stores an already-unboxed boolean (`None` = φ).
    #[inline]
    pub(crate) fn store_bool(&mut self, r: Reg, v: Option<bool>) {
        debug_assert_eq!(r.class, Class::B);
        match v {
            Some(x) => self.set_b(r.idx, x),
            None => self.nb.set(r.idx as usize, true),
        }
    }
}

/// A compiled per-element window map (the typed counterpart of
/// [`super::MapFn`]): its instructions share the enclosing program's
/// register space.
#[derive(Clone, Debug)]
pub(crate) struct TypedMap {
    /// The register the element value is loaded into before evaluation.
    var: Reg,
    instrs: Vec<Instr>,
    root: Option<Reg>,
    /// Whether the map passed the lanes gate (`batch::map_batchable`).
    lanes: bool,
}

impl TypedMap {
    /// The class of the mapped element, or `None` when the map is provably
    /// φ for every element.
    pub(crate) fn fold_class(&self) -> Option<Class> {
        self.root.map(|r| r.class)
    }

    /// Whether [`TypedMap::apply_lanes`] may be used.
    pub(crate) fn runs_on_lanes(&self) -> bool {
        self.lanes
    }

    /// Applies the map to one boxed window element (`Value::Null` = skip)
    /// — the dynamic fold's path through a typed map.
    pub(crate) fn run(&self, ctx: &mut TypedCtx, elem: &Value) -> Value {
        ctx.map_runs += 1;
        ctx.load_value(self.var, elem);
        exec(&self.instrs, ctx);
        match self.root {
            Some(r) => ctx.read_value(r),
            None => Value::Null,
        }
    }

    /// Applies the map to slot `i` of a source column and reads the root
    /// unboxed (`None` = φ) — the typed fold path, one element at a time.
    /// No boxed `Value` is built on either side.
    pub(crate) fn apply<T: Lane>(
        &self,
        ctx: &mut TypedCtx,
        col: &ColumnRef<'_>,
        i: usize,
    ) -> Option<T> {
        ctx.map_runs += 1;
        ctx.load_slot(self.var, col, i);
        exec(&self.instrs, ctx);
        T::scalar(ctx, self.root?)
    }

    /// Applies the map to the spans `run` (at most a batch) of a source
    /// column at once, as lanes `0..run.len()` of `bc`, at evaluation time
    /// `t`; returns the root's lane column and a lane mask flagging what
    /// the fold must drop: φ source spans (they execute as φ lanes, but a
    /// map may turn φ into a value) and φ map outputs. One dispatch per
    /// instruction per run.
    pub(crate) fn apply_lanes<'b, T: Lane>(
        &self,
        bc: &'b mut BatchCtx,
        t: i64,
        col: &ColumnRef<'_>,
        nulls: &NullMask,
        run: std::ops::Range<usize>,
    ) -> (&'b [T], &'b NullMask) {
        let k = run.len();
        bc.load_run(self.var, col, nulls, run.clone());
        bc.exec(&self.instrs, t, 0, k);
        let root = self.root.expect("the lanes gate requires a root");
        bc.or_nulls(root, nulls, run.start, k);
        T::lanes(bc, root)
    }
}

/// A kernel body lowered to typed register bytecode.
#[derive(Clone)]
pub(crate) struct TypedProgram {
    /// Constant materialization, executed **once** per register file
    /// ([`TypedProgram::new_ctx`]) — constants never burn a dispatch in the
    /// per-tick loop.
    pub(super) prelude: Vec<Instr>,
    pub(super) instrs: Vec<Instr>,
    pub(super) root: Option<Reg>,
    pub(super) n_f: u16,
    pub(super) n_i: u16,
    pub(super) n_b: u16,
    n_v: u16,
    /// Destination register per point slot of the paired [`Program`]
    /// (`None` when the body never reads the slot's value — the kernel
    /// still advances its cursor for change-point stepping).
    pub(crate) point_regs: Vec<Option<Reg>>,
    /// Destination register per reduce slot (`None` when provably φ).
    pub(crate) reduce_regs: Vec<Option<Reg>>,
    /// Typed map per reduce slot, when the fused map compiled.
    pub(crate) typed_maps: Vec<Option<TypedMap>>,
    /// Per reduce slot: the element class when unboxed accumulators apply.
    pub(crate) reduce_elem: Vec<Option<Class>>,
}

#[cfg(test)]
impl TypedCtx {
    /// Overwrites every register but the prelude's with what no run should
    /// ever read: NaN, `i64::MIN`, `true`, and φ flags all set or all
    /// clear per `null`.
    pub(super) fn poison(&mut self, tp: &TypedProgram, null: bool) {
        let keep: Vec<Reg> = tp.prelude_regs().collect();
        let kept = |class, idx: usize| keep.contains(&Reg { class, idx: idx as u16 });
        for r in (0..self.f.len()).filter(|&r| !kept(Class::F, r)) {
            self.f[r] = f64::NAN;
            self.nf.set(r, null);
        }
        for r in (0..self.i.len()).filter(|&r| !kept(Class::I, r)) {
            self.i[r] = i64::MIN;
            self.ni.set(r, null);
        }
        for r in (0..self.b.len()).filter(|&r| !kept(Class::B, r)) {
            self.b[r] = true;
            self.nb.set(r, null);
        }
        for r in (0..self.v.len()).filter(|&r| !kept(Class::V, r)) {
            self.v[r] = if null { Value::Null } else { Value::Float(f64::NAN) };
        }
        self.t = i64::MIN;
    }
}

impl TypedProgram {
    /// The registers the prelude writes — the only ones a register file
    /// keeps a meaning in from one run to the next.
    pub(super) fn prelude_regs(&self) -> impl Iterator<Item = Reg> + '_ {
        let reg = |class, idx: &u16| Reg { class, idx: *idx };
        self.prelude.iter().map(move |ins| match ins {
            Instr::ConstF { dst, .. } => reg(Class::F, dst),
            Instr::ConstI { dst, .. } => reg(Class::I, dst),
            Instr::ConstB { dst, .. } => reg(Class::B, dst),
            Instr::ConstV { dst, .. } => reg(Class::V, dst),
            Instr::Null { dst } => *dst,
            other => unreachable!("the compiler puts only constants in a prelude: {other:?}"),
        })
    }

    /// Creates a register file sized for this program, with every constant
    /// register pre-materialized by the prelude. Called where a kernel's
    /// run state is first shaped, not per run.
    pub(crate) fn new_ctx(&self) -> TypedCtx {
        let mut ctx = TypedCtx {
            t: 0,
            f: vec![0.0; self.n_f as usize],
            i: vec![0; self.n_i as usize],
            b: vec![false; self.n_b as usize],
            v: vec![Value::Null; self.n_v as usize],
            nf: NullMask::new(self.n_f as usize),
            ni: NullMask::new(self.n_i as usize),
            nb: NullMask::new(self.n_b as usize),
            fallback_ops: 0,
            map_runs: 0,
            lanes: 0,
            slides: 0,
        };
        exec(&self.prelude, &mut ctx);
        ctx
    }

    /// Executes the program against a prepared context and boxes the root.
    #[inline]
    pub(crate) fn run(&self, ctx: &mut TypedCtx) -> Value {
        exec(&self.instrs, ctx);
        match self.root {
            Some(r) => ctx.read_value(r),
            None => Value::Null,
        }
    }

    /// Executes the program and reads the root unboxed (`None` = φ); the
    /// root's class must be `T`'s.
    #[inline]
    pub(crate) fn run_as<T: Lane>(&self, ctx: &mut TypedCtx) -> Option<T> {
        exec(&self.instrs, ctx);
        T::scalar(ctx, self.root?)
    }

    /// Whether the plan never touches the dynamic enum: no `V` registers
    /// were allocated, so every fallback arm is unreachable.
    pub(crate) fn is_fully_typed(&self) -> bool {
        self.n_v == 0
    }

    /// The register class of the kernel's output values (what downstream
    /// consumers of the output buffer should assume).
    pub(crate) fn output_class(&self) -> Class {
        self.root.map_or(Class::V, |r| r.class)
    }
}

impl std::fmt::Debug for TypedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypedProgram")
            .field("instrs", &self.instrs.len())
            .field("regs", &(self.n_f, self.n_i, self.n_b, self.n_v))
            .field("fully_typed", &self.is_fully_typed())
            .finish()
    }
}

/// Executes one instruction sequence over `ctx`.
///
/// Straight-line stretches run through a slice iterator (no per-instruction
/// bounds check); taken jumps restart the iterator at their target.
pub(super) fn exec(instrs: &[Instr], ctx: &mut TypedCtx) {
    let mut pc = 0usize;
    'dispatch: while pc < instrs.len() {
        for ins in &instrs[pc..] {
            pc += 1;
            match ins {
                Instr::ConstF { dst, v } => ctx.set_f(*dst, *v),
                Instr::ConstI { dst, v } => ctx.set_i(*dst, *v),
                Instr::ConstB { dst, v } => ctx.set_b(*dst, *v),
                Instr::ConstV { dst, v } => {
                    ctx.fallback_ops += 1;
                    ctx.v[*dst as usize] = (**v).clone();
                }
                Instr::Null { dst } => ctx.set_null(*dst),
                Instr::Time { dst } => {
                    let t = ctx.t;
                    ctx.set_i(*dst, t);
                }
                Instr::Mov { src, dst } => match (src.class, dst.class) {
                    (Class::F, Class::F) => {
                        let (x, n) = ctx.get_f(src.idx);
                        ctx.f[dst.idx as usize] = x;
                        ctx.nf.set(dst.idx as usize, n);
                    }
                    (Class::I, Class::I) => {
                        let (x, n) = ctx.get_i(src.idx);
                        ctx.i[dst.idx as usize] = x;
                        ctx.ni.set(dst.idx as usize, n);
                    }
                    (Class::B, Class::B) => {
                        let (x, n) = ctx.get_b(src.idx);
                        ctx.b[dst.idx as usize] = x;
                        ctx.nb.set(dst.idx as usize, n);
                    }
                    _ => {
                        ctx.fallback_ops += 1;
                        ctx.v[dst.idx as usize] = ctx.v[src.idx as usize].clone();
                    }
                },
                Instr::Box { src, dst } => {
                    ctx.fallback_ops += 1;
                    ctx.v[*dst as usize] = ctx.read_value(*src);
                }
                Instr::ArithF { op, a, b, dst } => {
                    // Branch-free: IEEE float ops cannot trap, so the value is
                    // computed unconditionally and φ rides the flag store.
                    let (x, xn) = ctx.get_f(*a);
                    let (y, yn) = ctx.get_f(*b);
                    ctx.f[*dst as usize] = op.apply_f(x, y);
                    ctx.nf.set(*dst as usize, xn | yn);
                }
                Instr::ArithI { op, a, b, dst } => {
                    let (x, xn) = ctx.get_i(*a);
                    let (y, yn) = ctx.get_i(*b);
                    match if xn || yn { None } else { op.apply_i(x, y) } {
                        Some(r) => ctx.set_i(*dst, r),
                        None => ctx.ni.set(*dst as usize, true),
                    }
                }
                Instr::ArithFC { op, a, c, dst, rev } => {
                    let (x, n) = ctx.get_f(*a);
                    let r = if *rev { op.apply_f(*c, x) } else { op.apply_f(x, *c) };
                    ctx.f[*dst as usize] = r;
                    ctx.nf.set(*dst as usize, n);
                }
                Instr::MulAddF { x, y, z, dst } => {
                    let (a, an) = ctx.get_f(*x);
                    let (b, bn) = ctx.get_f(*y);
                    let (c, cn) = ctx.get_f(*z);
                    ctx.f[*dst as usize] = a * b + c;
                    ctx.nf.set(*dst as usize, an | bn | cn);
                }
                Instr::MulAddFC { x, y, c, dst } => {
                    let (a, an) = ctx.get_f(*x);
                    let (b, bn) = ctx.get_f(*y);
                    ctx.f[*dst as usize] = a * b + *c;
                    ctx.nf.set(*dst as usize, an | bn);
                }
                Instr::ArithIC { op, a, c, dst, rev } => {
                    let (x, n) = ctx.get_i(*a);
                    let r = if n {
                        None
                    } else if *rev {
                        op.apply_i(*c, x)
                    } else {
                        op.apply_i(x, *c)
                    };
                    match r {
                        Some(r) => ctx.set_i(*dst, r),
                        None => ctx.ni.set(*dst as usize, true),
                    }
                }
                Instr::CmpFC { op, a, c, dst } => {
                    let (x, n) = ctx.get_f(*a);
                    ctx.b[*dst as usize] = op.apply(x, *c);
                    ctx.nb.set(*dst as usize, n);
                }
                Instr::CmpIC { op, a, c, dst } => {
                    let (x, n) = ctx.get_i(*a);
                    if n {
                        ctx.nb.set(*dst as usize, true);
                    } else {
                        ctx.set_b(*dst, op.apply(x, *c));
                    }
                }
                Instr::Select { cond, t, f, dst } => {
                    let (c, n) = ctx.get_b(*cond);
                    let taken = if n {
                        None
                    } else if c {
                        *t
                    } else {
                        *f
                    };
                    match taken {
                        None => ctx.set_null(*dst),
                        Some(src) if src == *dst => {}
                        Some(src) => match (src.class, dst.class) {
                            (Class::F, Class::F) => {
                                let (x, xn) = ctx.get_f(src.idx);
                                ctx.f[dst.idx as usize] = x;
                                ctx.nf.set(dst.idx as usize, xn);
                            }
                            (Class::I, Class::I) => {
                                let (x, xn) = ctx.get_i(src.idx);
                                ctx.i[dst.idx as usize] = x;
                                ctx.ni.set(dst.idx as usize, xn);
                            }
                            (Class::B, Class::B) => {
                                let (x, xn) = ctx.get_b(src.idx);
                                ctx.b[dst.idx as usize] = x;
                                ctx.nb.set(dst.idx as usize, xn);
                            }
                            _ => {
                                ctx.fallback_ops += 1;
                                ctx.v[dst.idx as usize] = ctx.read_value(src);
                            }
                        },
                    }
                }
                Instr::CmpF { op, a, b, dst } => {
                    let (x, xn) = ctx.get_f(*a);
                    let (y, yn) = ctx.get_f(*b);
                    ctx.b[*dst as usize] = op.apply(x, y);
                    ctx.nb.set(*dst as usize, xn | yn);
                }
                Instr::CmpI { op, a, b, dst } => {
                    let (x, xn) = ctx.get_i(*a);
                    let (y, yn) = ctx.get_i(*b);
                    if xn || yn {
                        ctx.nb.set(*dst as usize, true);
                    } else {
                        ctx.set_b(*dst, op.apply(x, y));
                    }
                }
                Instr::CmpB { op, a, b, dst } => {
                    let (x, xn) = ctx.get_b(*a);
                    let (y, yn) = ctx.get_b(*b);
                    if xn || yn {
                        ctx.nb.set(*dst as usize, true);
                    } else {
                        ctx.set_b(*dst, op.apply(x, y));
                    }
                }
                Instr::EqF { neg, a, b, dst } => {
                    let (x, xn) = ctx.get_f(*a);
                    let (y, yn) = ctx.get_f(*b);
                    ctx.b[*dst as usize] = (x.to_bits() == y.to_bits()) != *neg;
                    ctx.nb.set(*dst as usize, xn | yn);
                }
                Instr::EqI { neg, a, b, dst } => {
                    let (x, xn) = ctx.get_i(*a);
                    let (y, yn) = ctx.get_i(*b);
                    if xn || yn {
                        ctx.nb.set(*dst as usize, true);
                    } else {
                        ctx.set_b(*dst, (x == y) != *neg);
                    }
                }
                Instr::EqB { neg, a, b, dst } => {
                    let (x, xn) = ctx.get_b(*a);
                    let (y, yn) = ctx.get_b(*b);
                    if xn || yn {
                        ctx.nb.set(*dst as usize, true);
                    } else {
                        ctx.set_b(*dst, (x == y) != *neg);
                    }
                }
                Instr::AndB { a, b, dst } => {
                    let (x, xn) = ctx.get_b(*a);
                    let (y, yn) = ctx.get_b(*b);
                    // Kleene: false ∧ φ = false.
                    if (!xn && !x) || (!yn && !y) {
                        ctx.set_b(*dst, false);
                    } else if !xn && !yn {
                        ctx.set_b(*dst, true);
                    } else {
                        ctx.nb.set(*dst as usize, true);
                    }
                }
                Instr::OrB { a, b, dst } => {
                    let (x, xn) = ctx.get_b(*a);
                    let (y, yn) = ctx.get_b(*b);
                    // Kleene: true ∨ φ = true.
                    if (!xn && x) || (!yn && y) {
                        ctx.set_b(*dst, true);
                    } else if !xn && !yn {
                        ctx.set_b(*dst, false);
                    } else {
                        ctx.nb.set(*dst as usize, true);
                    }
                }
                Instr::NotB { a, dst } => {
                    let (x, n) = ctx.get_b(*a);
                    if n {
                        ctx.nb.set(*dst as usize, true);
                    } else {
                        ctx.set_b(*dst, !x);
                    }
                }
                Instr::NegF { a, dst } => {
                    let (x, n) = ctx.get_f(*a);
                    ctx.f[*dst as usize] = -x;
                    ctx.nf.set(*dst as usize, n);
                }
                Instr::NegI { a, dst } => {
                    let (x, n) = ctx.get_i(*a);
                    if n {
                        ctx.ni.set(*dst as usize, true);
                    } else {
                        ctx.set_i(*dst, -x);
                    }
                }
                Instr::AbsF { a, dst } => {
                    let (x, n) = ctx.get_f(*a);
                    ctx.f[*dst as usize] = x.abs();
                    ctx.nf.set(*dst as usize, n);
                }
                Instr::AbsI { a, dst } => {
                    let (x, n) = ctx.get_i(*a);
                    if n {
                        ctx.ni.set(*dst as usize, true);
                    } else {
                        ctx.set_i(*dst, x.abs());
                    }
                }
                Instr::SqrtF { a, dst } => {
                    let (x, n) = ctx.get_f(*a);
                    ctx.f[*dst as usize] = x.sqrt();
                    ctx.nf.set(*dst as usize, n);
                }
                Instr::I2F { a, dst } => {
                    let (x, n) = ctx.get_i(*a);
                    ctx.f[*dst as usize] = x as f64;
                    ctx.nf.set(*dst as usize, n);
                }
                Instr::F2I { a, dst } => {
                    let (x, n) = ctx.get_f(*a);
                    if n {
                        ctx.ni.set(*dst as usize, true);
                    } else {
                        ctx.set_i(*dst, x as i64);
                    }
                }
                Instr::IsNull { a, dst } => {
                    let n = ctx.is_null(*a);
                    ctx.set_b(*dst, n);
                }
                Instr::BinV { op, a, b, dst } => {
                    ctx.fallback_ops += 1;
                    // Box only non-V operands; V operands apply by reference
                    // (no Arc traffic for Str/Tuple payloads).
                    let result = match (a.class, b.class) {
                        (Class::V, Class::V) => {
                            op.apply(&ctx.v[a.idx as usize], &ctx.v[b.idx as usize])
                        }
                        (Class::V, _) => op.apply(&ctx.v[a.idx as usize], &ctx.read_value(*b)),
                        (_, Class::V) => op.apply(&ctx.read_value(*a), &ctx.v[b.idx as usize]),
                        _ => op.apply(&ctx.read_value(*a), &ctx.read_value(*b)),
                    };
                    ctx.store_value(*dst, result);
                }
                Instr::UnV { op, a, dst } => {
                    ctx.fallback_ops += 1;
                    let result = op.apply(&ctx.v[*a as usize]);
                    ctx.store_value(*dst, result);
                }
                Instr::Field { a, idx, dst } => {
                    ctx.fallback_ops += 1;
                    ctx.v[*dst as usize] = ctx.v[*a as usize].field(*idx);
                }
                Instr::MakeTuple { parts, dst } => {
                    ctx.fallback_ops += 1;
                    let fields: Vec<Value> = parts
                        .iter()
                        .map(|p| p.map_or(Value::Null, |r| ctx.read_value(r)))
                        .collect();
                    ctx.v[*dst as usize] = Value::tuple(fields);
                }
                Instr::Jump { target } => {
                    pc = *target as usize;
                    continue 'dispatch;
                }
                Instr::Branch { cond, on_false, on_null } => {
                    let (x, n) = ctx.get_b(*cond);
                    if n {
                        pc = *on_null as usize;
                        continue 'dispatch;
                    }
                    if !x {
                        pc = *on_false as usize;
                        continue 'dispatch;
                    }
                }
                Instr::BranchV { cond, on_false, on_null } => {
                    ctx.fallback_ops += 1;
                    match ctx.v[*cond as usize] {
                        Value::Bool(true) => {}
                        Value::Bool(false) => {
                            pc = *on_false as usize;
                            continue 'dispatch;
                        }
                        _ => {
                            pc = *on_null as usize;
                            continue 'dispatch;
                        }
                    }
                }
            }
        }
    }
}

/// If `out` is the value of `code`'s last instruction and its class matches
/// `dst`, rewrites that instruction to write `dst` directly (eliding the
/// branch-tail `Mov`). Safe because every instruction writes a fresh
/// single-writer register: the original destination has no other reader
/// once the `if` consumes it.
fn branch_retargets(code: &mut [Instr], out: &Out, dst: Reg) -> bool {
    let Out::Reg(r, _) = out else { return false };
    if r.class != dst.class {
        return false;
    }
    let Some(last) = code.last_mut() else { return false };
    let written = match last {
        Instr::ArithF { dst, .. }
        | Instr::ArithFC { dst, .. }
        | Instr::SqrtF { dst, .. }
        | Instr::NegF { dst, .. }
        | Instr::AbsF { dst, .. }
        | Instr::I2F { dst, .. }
            if r.class == Class::F =>
        {
            Some(dst)
        }
        Instr::ArithI { dst, .. }
        | Instr::ArithIC { dst, .. }
        | Instr::NegI { dst, .. }
        | Instr::AbsI { dst, .. }
        | Instr::F2I { dst, .. }
        | Instr::Time { dst }
            if r.class == Class::I =>
        {
            Some(dst)
        }
        Instr::CmpF { dst, .. }
        | Instr::CmpI { dst, .. }
        | Instr::CmpB { dst, .. }
        | Instr::CmpFC { dst, .. }
        | Instr::CmpIC { dst, .. }
        | Instr::EqF { dst, .. }
        | Instr::EqI { dst, .. }
        | Instr::EqB { dst, .. }
        | Instr::AndB { dst, .. }
        | Instr::OrB { dst, .. }
        | Instr::NotB { dst, .. }
        | Instr::IsNull { dst, .. }
            if r.class == Class::B =>
        {
            Some(dst)
        }
        Instr::Field { dst, .. } | Instr::MakeTuple { dst, .. } if r.class == Class::V => Some(dst),
        _ => None,
    };
    match written {
        Some(d) if *d == r.idx => {
            *d = dst.idx;
            true
        }
        _ => false,
    }
}

/// Compile-time descriptor of a sub-expression's value.
#[derive(Clone, Debug)]
enum Out {
    /// Lives in a register, with its inferred static type.
    Reg(Reg, DataType),
    /// Provably φ (type `Unknown`): folded away, no register.
    Null,
}

impl Out {
    fn ty(&self) -> DataType {
        match self {
            Out::Reg(_, ty) => ty.clone(),
            Out::Null => DataType::Unknown,
        }
    }
}

/// Compiles a kernel body into a [`TypedProgram`].
///
/// `program` is the already-compiled interpreter tier: its point and reduce
/// slot layout is authoritative, and the typed program maps registers onto
/// the *same* slots so both tiers share cursors, reduce runners, and
/// change-point stepping. `objs` resolves temporal-object payload types
/// (from [`TypeInfo`]); `classes` gives each upstream object's register
/// class — `V` for objects produced by fallback or dynamically-typed
/// kernels, whose buffers may hold runtime types the static type does not
/// pin down.
///
/// # Errors
///
/// Propagates type or structure errors; callers treat a failed typed
/// compile as "stay on the interpreter tier" (see `Kernel::with_types`).
pub(crate) fn compile_typed(
    body: &Expr,
    program: &Program,
    objs: &dyn Fn(TObjId) -> Result<DataType>,
    classes: &HashMap<TObjId, Class>,
    speculate: bool,
) -> Result<TypedProgram> {
    let mut cc = TypedCompiler {
        program,
        objs,
        classes,
        speculate,
        env: HashMap::new(),
        prelude: Vec::new(),
        instrs: Vec::new(),
        const_f: HashMap::new(),
        const_i: HashMap::new(),
        n_regs: [0; 4],
        next_reduce: 0,
        point_regs: vec![None; program.points.len()],
        reduce_regs: vec![None; program.reduces.len()],
        typed_maps: vec![None; program.reduces.len()],
        reduce_elem: vec![None; program.reduces.len()],
    };
    let root = cc.emit(body)?;
    if cc.next_reduce != program.reduces.len() {
        return Err(CompileError::Invalid("typed tier lost a reduce slot".into()));
    }
    let root = match root {
        Out::Reg(r, _) => Some(r),
        Out::Null => None,
    };
    thread_jumps(&mut cc.instrs);
    for map in cc.typed_maps.iter_mut().flatten() {
        thread_jumps(&mut map.instrs);
    }
    let mut tp = TypedProgram {
        prelude: cc.prelude,
        instrs: cc.instrs,
        root,
        n_f: cc.n_regs[0],
        n_i: cc.n_regs[1],
        n_b: cc.n_regs[2],
        n_v: cc.n_regs[3],
        point_regs: cc.point_regs,
        reduce_regs: cc.reduce_regs,
        typed_maps: cc.typed_maps,
        reduce_elem: cc.reduce_elem,
    };
    let lanes: Vec<bool> = tp
        .typed_maps
        .iter()
        .map(|m| m.as_ref().is_some_and(|m| map_batchable(&tp, m.var, &m.instrs, m.root)))
        .collect();
    for (map, lanes) in tp.typed_maps.iter_mut().zip(lanes) {
        if let Some(map) = map {
            map.lanes = lanes;
        }
    }
    Ok(tp)
}

/// Whether `code` is safe to execute on a path the source program did not
/// take: straight-line typed instructions whose only effect is writing
/// their destination register, and which cannot trap on operands the taken
/// path never constrained. Integer `Div`/`Rem`/`Pow` (zero divisors,
/// `i64::MIN` edge cases) and `NegI`/`AbsI` (overflow) are excluded, as is
/// all control flow and boxed traffic.
fn speculatable(code: &[Instr]) -> bool {
    code.iter().all(|ins| match ins {
        Instr::ConstF { .. }
        | Instr::ConstI { .. }
        | Instr::ConstB { .. }
        | Instr::Time { .. }
        | Instr::ArithF { .. }
        | Instr::ArithFC { .. }
        | Instr::MulAddF { .. }
        | Instr::MulAddFC { .. }
        | Instr::CmpF { .. }
        | Instr::CmpI { .. }
        | Instr::CmpB { .. }
        | Instr::CmpFC { .. }
        | Instr::CmpIC { .. }
        | Instr::EqF { .. }
        | Instr::EqI { .. }
        | Instr::EqB { .. }
        | Instr::AndB { .. }
        | Instr::OrB { .. }
        | Instr::NotB { .. }
        | Instr::NegF { .. }
        | Instr::AbsF { .. }
        | Instr::SqrtF { .. }
        | Instr::I2F { .. }
        | Instr::F2I { .. } => true,
        Instr::ArithI { op, .. } | Instr::ArithIC { op, .. } => {
            !matches!(op, ArithOp::Div | ArithOp::Rem | ArithOp::Pow)
        }
        Instr::Null { dst } => dst.class != Class::V,
        Instr::Mov { src, dst } => src.class != Class::V && dst.class != Class::V,
        Instr::IsNull { a, .. } => a.class != Class::V,
        Instr::Select { dst, .. } => dst.class != Class::V,
        Instr::NegI { .. }
        | Instr::AbsI { .. }
        | Instr::ConstV { .. }
        | Instr::Box { .. }
        | Instr::BinV { .. }
        | Instr::UnV { .. }
        | Instr::Field { .. }
        | Instr::MakeTuple { .. }
        | Instr::Jump { .. }
        | Instr::Branch { .. }
        | Instr::BranchV { .. } => false,
    })
}

/// Follows `Jump`-to-`Jump` chains to the final destination (jumps are
/// forward-only by construction, so chains terminate).
fn resolve_jump(instrs: &[Instr], mut t: u32) -> u32 {
    while let Some(Instr::Jump { target }) = instrs.get(t as usize) {
        t = *target;
    }
    t
}

/// Jump threading: branch-scaffold hops (`Branch`/`Jump` landing on another
/// `Jump`) retarget straight to their final destination, so the executed
/// path through an `if` carries no trampoline dispatches.
fn thread_jumps(instrs: &mut [Instr]) {
    for i in 0..instrs.len() {
        let updated = match &instrs[i] {
            Instr::Jump { target } => Instr::Jump { target: resolve_jump(instrs, *target) },
            Instr::Branch { cond, on_false, on_null } => Instr::Branch {
                cond: *cond,
                on_false: resolve_jump(instrs, *on_false),
                on_null: resolve_jump(instrs, *on_null),
            },
            Instr::BranchV { cond, on_false, on_null } => Instr::BranchV {
                cond: *cond,
                on_false: resolve_jump(instrs, *on_false),
                on_null: resolve_jump(instrs, *on_null),
            },
            _ => continue,
        };
        instrs[i] = updated;
    }
}

/// Object-type lookup backed by whole-query [`TypeInfo`].
pub(crate) fn type_lookup<'a>(info: &'a TypeInfo) -> impl Fn(TObjId) -> Result<DataType> + 'a {
    move |obj| {
        info.object_type(obj)
            .cloned()
            .ok_or_else(|| CompileError::UnboundObject(format!("{obj} (typed tier)")))
    }
}

struct TypedCompiler<'a> {
    program: &'a Program,
    objs: &'a dyn Fn(TObjId) -> Result<DataType>,
    classes: &'a HashMap<TObjId, Class>,
    /// If-conversion for the batched tier: `if` branches whose code is
    /// [`speculatable`] are evaluated unconditionally and merged with one
    /// `Select`, keeping the body straight-line (see `super::batch`).
    speculate: bool,
    env: HashMap<VarId, (Option<Reg>, DataType)>,
    /// Run-once constant materialization (see [`TypedProgram::new_ctx`]).
    prelude: Vec<Instr>,
    instrs: Vec<Instr>,
    /// Known-constant registers, for folding into `*C` superinstructions.
    const_f: HashMap<u16, f64>,
    const_i: HashMap<u16, i64>,
    /// Register counts per class, indexed F, I, B, V.
    n_regs: [u16; 4],
    /// Reduce slots are assigned in body traversal order, exactly like the
    /// interpreter compiler's `reduces` list.
    next_reduce: usize,
    point_regs: Vec<Option<Reg>>,
    reduce_regs: Vec<Option<Reg>>,
    typed_maps: Vec<Option<TypedMap>>,
    reduce_elem: Vec<Option<Class>>,
}

impl TypedCompiler<'_> {
    fn alloc(&mut self, class: Class) -> Result<Reg> {
        let slot = match class {
            Class::F => 0,
            Class::I => 1,
            Class::B => 2,
            Class::V => 3,
        };
        let idx = self.n_regs[slot];
        if idx == u16::MAX {
            return Err(CompileError::Invalid("typed tier register file overflow".into()));
        }
        self.n_regs[slot] += 1;
        Ok(Reg { class, idx })
    }

    /// The register class of upstream object `obj` with payload type `ty`.
    fn obj_class(&self, obj: TObjId, ty: &DataType) -> Class {
        self.classes.get(&obj).copied().unwrap_or_else(|| Class::of_type(ty))
    }

    /// Pushes a placeholder jump and returns its index for later patching.
    fn reserve(&mut self) -> usize {
        self.instrs.push(Instr::Jump { target: u32::MAX });
        self.instrs.len() - 1
    }

    /// Allocates a register holding φ (a materialized folded-null operand;
    /// nothing else ever writes it, so it initializes in the prelude).
    fn null_reg(&mut self, class: Class) -> Result<Reg> {
        let r = self.alloc(class)?;
        self.prelude.push(Instr::Null { dst: r });
        Ok(r)
    }

    /// The constant value of a numeric register, widened to `f64` (int
    /// constants promote exactly like `Value`'s mixed arithmetic).
    fn as_const_f(&self, r: Reg) -> Option<f64> {
        match r.class {
            Class::F => self.const_f.get(&r.idx).copied(),
            Class::I => self.const_i.get(&r.idx).map(|x| *x as f64),
            _ => None,
        }
    }

    /// Appends a branch's side-compiled instructions, relocating internal
    /// jump targets by the insertion offset.
    fn splice(&mut self, side: Vec<Instr>) {
        let base = self.instrs.len() as u32;
        for ins in side {
            self.instrs.push(match ins {
                Instr::Jump { target } => Instr::Jump { target: target + base },
                Instr::Branch { cond, on_false, on_null } => {
                    Instr::Branch { cond, on_false: on_false + base, on_null: on_null + base }
                }
                Instr::BranchV { cond, on_false, on_null } => {
                    Instr::BranchV { cond, on_false: on_false + base, on_null: on_null + base }
                }
                other => other,
            });
        }
    }

    /// Emits the instruction(s) that move `src` into `dst` (boxing when the
    /// destination is dynamic).
    fn emit_assign(&mut self, src: &Out, dst: Reg) -> Result<()> {
        match src {
            Out::Null => self.instrs.push(Instr::Null { dst }),
            Out::Reg(r, _) if r.class == dst.class => self.instrs.push(Instr::Mov { src: *r, dst }),
            Out::Reg(r, _) if dst.class == Class::V => {
                self.instrs.push(Instr::Box { src: *r, dst: dst.idx })
            }
            Out::Reg(..) => {
                return Err(CompileError::Invalid("typed tier class mismatch in assign".into()))
            }
        }
        Ok(())
    }

    /// Coerces an `I`-class operand to a fresh `F` register (numeric
    /// promotion); `F` operands pass through.
    fn promote_f(&mut self, r: Reg) -> Result<Reg> {
        match r.class {
            Class::F => Ok(r),
            Class::I => {
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::I2F { a: r.idx, dst: dst.idx });
                Ok(dst)
            }
            _ => Err(CompileError::Invalid("typed tier promoted a non-numeric class".into())),
        }
    }

    fn emit(&mut self, e: &Expr) -> Result<Out> {
        match e {
            // Constants materialize in the prelude — once per register
            // file, never in the per-tick instruction stream.
            Expr::Const(v) => match v {
                Value::Null => Ok(Out::Null),
                Value::Bool(b) => {
                    let r = self.alloc(Class::B)?;
                    self.prelude.push(Instr::ConstB { dst: r.idx, v: *b });
                    Ok(Out::Reg(r, DataType::Bool))
                }
                Value::Int(x) => {
                    let r = self.alloc(Class::I)?;
                    self.prelude.push(Instr::ConstI { dst: r.idx, v: *x });
                    self.const_i.insert(r.idx, *x);
                    Ok(Out::Reg(r, DataType::Int))
                }
                Value::Float(x) => {
                    let r = self.alloc(Class::F)?;
                    self.prelude.push(Instr::ConstF { dst: r.idx, v: *x });
                    self.const_f.insert(r.idx, *x);
                    Ok(Out::Reg(r, DataType::Float))
                }
                other => {
                    let r = self.alloc(Class::V)?;
                    self.prelude.push(Instr::ConstV { dst: r.idx, v: Box::new(other.clone()) });
                    Ok(Out::Reg(r, DataType::of_value(other)))
                }
            },
            Expr::Var(v) => match self.env.get(v) {
                Some((Some(r), ty)) => Ok(Out::Reg(*r, ty.clone())),
                Some((None, _)) => Ok(Out::Null),
                None => Err(CompileError::UnboundVar(v.to_string())),
            },
            Expr::Time => {
                let r = self.alloc(Class::I)?;
                self.instrs.push(Instr::Time { dst: r.idx });
                Ok(Out::Reg(r, DataType::Int))
            }
            Expr::Unary(op, a) => {
                let ao = self.emit(a)?;
                self.emit_unary(*op, ao)
            }
            Expr::Binary(op, a, b) => {
                let ao = self.emit(a)?;
                let bo = self.emit(b)?;
                self.emit_binary(*op, ao, bo)
            }
            Expr::If(c, t, f) => self.emit_if(c, t, f),
            Expr::Let { var, value, body } => {
                let vo = self.emit(value)?;
                let entry = match &vo {
                    Out::Reg(r, ty) => (Some(*r), ty.clone()),
                    Out::Null => (None, DataType::Unknown),
                };
                let shadowed = self.env.insert(*var, entry);
                let bo = self.emit(body);
                match shadowed {
                    Some(prev) => {
                        self.env.insert(*var, prev);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
                bo
            }
            Expr::Field(a, i) => {
                let ao = self.emit(a)?;
                match ao {
                    Out::Null => Ok(Out::Null),
                    Out::Reg(r, ty) => {
                        if r.class != Class::V {
                            return Err(CompileError::Invalid(
                                "typed tier field access on unboxed register".into(),
                            ));
                        }
                        let field_ty = match &ty {
                            DataType::Tuple(fields) => {
                                fields.get(*i).cloned().unwrap_or(DataType::Unknown)
                            }
                            _ => DataType::Unknown,
                        };
                        // Tuples built under promotion may hold runtime
                        // types the static field type does not pin down:
                        // projections stay boxed.
                        let dst = self.alloc(Class::V)?;
                        self.instrs.push(Instr::Field { a: r.idx, idx: *i, dst: dst.idx });
                        Ok(Out::Reg(dst, field_ty))
                    }
                }
            }
            Expr::Tuple(items) => {
                let mut parts = Vec::with_capacity(items.len());
                let mut types = Vec::with_capacity(items.len());
                for it in items {
                    let o = self.emit(it)?;
                    types.push(o.ty());
                    parts.push(match o {
                        Out::Reg(r, _) => Some(r),
                        Out::Null => None,
                    });
                }
                let dst = self.alloc(Class::V)?;
                self.instrs
                    .push(Instr::MakeTuple { parts: parts.into_boxed_slice(), dst: dst.idx });
                Ok(Out::Reg(dst, DataType::Tuple(types)))
            }
            Expr::At { obj, offset } => {
                let ty = (self.objs)(*obj)?;
                let spec = PointSpec { obj: *obj, offset: *offset };
                let slot =
                    self.program.points.iter().position(|p| *p == spec).ok_or_else(|| {
                        CompileError::Invalid("typed tier missing point slot".into())
                    })?;
                if let Some(r) = self.point_regs[slot] {
                    return Ok(Out::Reg(r, ty));
                }
                let r = self.alloc(self.obj_class(*obj, &ty))?;
                self.point_regs[slot] = Some(r);
                Ok(Out::Reg(r, ty))
            }
            Expr::Reduce { op, window } => {
                let slot = self.next_reduce;
                if slot >= self.program.reduces.len()
                    || self.program.reduces[slot].obj != window.obj
                    || (self.program.reduces[slot].lo, self.program.reduces[slot].hi)
                        != (window.lo, window.hi)
                {
                    return Err(CompileError::Invalid("typed tier reduce slot mismatch".into()));
                }
                self.next_reduce += 1;
                let src_ty = (self.objs)(window.obj)?;
                let src_class = self.obj_class(window.obj, &src_ty);
                let (elem_class, elem_ty) = match &window.map {
                    None => (src_class, src_ty),
                    Some((var, mapped)) => {
                        let (map, elem) = self.compile_map(*var, mapped, src_class, src_ty)?;
                        self.typed_maps[slot] = Some(map);
                        match elem {
                            // The map is provably φ for every element: the
                            // window never fills and the result is φ.
                            None => return Ok(Out::Null),
                            Some(ct) => ct,
                        }
                    }
                };
                if matches!(elem_class, Class::F | Class::I) {
                    self.reduce_elem[slot] = Some(elem_class);
                }
                let result_ty = op.result_type(&elem_ty);
                let class = match op {
                    ReduceOp::Count => Class::I,
                    ReduceOp::Mean | ReduceOp::StdDev => Class::F,
                    // Custom reducers run opaque user closures: stay boxed.
                    ReduceOp::Custom(_) => Class::V,
                    ReduceOp::Min | ReduceOp::Max => elem_class,
                    ReduceOp::Sum | ReduceOp::Product => match elem_class {
                        Class::F => Class::F,
                        Class::I => Class::I,
                        _ => Class::V,
                    },
                };
                let r = self.alloc(class)?;
                self.reduce_regs[slot] = Some(r);
                Ok(Out::Reg(r, result_ty))
            }
        }
    }

    /// Compiles a fused window map into a side instruction sequence sharing
    /// this program's registers. Returns the map and the element's
    /// `(class, type)` after mapping (`None` when provably φ).
    #[allow(clippy::type_complexity)]
    fn compile_map(
        &mut self,
        var: VarId,
        body: &Expr,
        src_class: Class,
        src_ty: DataType,
    ) -> Result<(TypedMap, Option<(Class, DataType)>)> {
        let var_reg = self.alloc(src_class)?;
        let shadowed = self.env.insert(var, (Some(var_reg), src_ty));
        let outer = std::mem::take(&mut self.instrs);
        let rooted = self.emit(body);
        let instrs = std::mem::replace(&mut self.instrs, outer);
        match shadowed {
            Some(prev) => {
                self.env.insert(var, prev);
            }
            None => {
                self.env.remove(&var);
            }
        }
        let root = rooted?;
        let (root_reg, elem) = match root {
            Out::Reg(r, ty) => (Some(r), Some((r.class, ty))),
            Out::Null => (None, None),
        };
        Ok((TypedMap { var: var_reg, instrs, root: root_reg, lanes: false }, elem))
    }

    fn emit_unary(&mut self, op: UnOp, ao: Out) -> Result<Out> {
        // `is_null` is the one operator that observes φ rather than
        // propagating it.
        if let UnOp::IsNull = op {
            let dst = self.alloc(Class::B)?;
            match &ao {
                Out::Null => self.instrs.push(Instr::ConstB { dst: dst.idx, v: true }),
                Out::Reg(r, _) => self.instrs.push(Instr::IsNull { a: *r, dst: dst.idx }),
            }
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        let Out::Reg(r, ty) = ao else { return Ok(Out::Null) };
        let result_ty = unary_type(op, &ty)?;
        // Dynamic operand: apply the Value op; sqrt / casts still land in
        // typed registers because their dynamic results are single-class.
        if r.class == Class::V {
            let dst_class = match op {
                UnOp::Sqrt | UnOp::ToFloat => Class::F,
                UnOp::ToInt => Class::I,
                UnOp::Not => Class::B,
                UnOp::Neg | UnOp::Abs => Class::V,
                UnOp::IsNull => unreachable!("handled above"),
            };
            let dst = self.alloc(dst_class)?;
            self.instrs.push(Instr::UnV { op, a: r.idx, dst });
            return Ok(Out::Reg(dst, result_ty));
        }
        let out = match (op, r.class) {
            (UnOp::Neg, Class::F) => {
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::NegF { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Neg, Class::I) => {
                let dst = self.alloc(Class::I)?;
                self.instrs.push(Instr::NegI { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Abs, Class::F) => {
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::AbsF { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Abs, Class::I) => {
                let dst = self.alloc(Class::I)?;
                self.instrs.push(Instr::AbsI { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::Sqrt, Class::F | Class::I) => {
                let a = self.promote_f(r)?;
                let dst = self.alloc(Class::F)?;
                self.instrs.push(Instr::SqrtF { a: a.idx, dst: dst.idx });
                dst
            }
            (UnOp::Not, Class::B) => {
                let dst = self.alloc(Class::B)?;
                self.instrs.push(Instr::NotB { a: r.idx, dst: dst.idx });
                dst
            }
            (UnOp::ToFloat, Class::F) => r,
            (UnOp::ToFloat, Class::I) => self.promote_f(r)?,
            (UnOp::ToInt, Class::I) => r,
            (UnOp::ToInt, Class::F) => {
                let dst = self.alloc(Class::I)?;
                self.instrs.push(Instr::F2I { a: r.idx, dst: dst.idx });
                dst
            }
            _ => {
                return Err(CompileError::Invalid(format!(
                    "typed tier cannot apply {op} to class {:?}",
                    r.class
                )))
            }
        };
        Ok(Out::Reg(out, result_ty))
    }

    fn emit_binary(&mut self, op: BinOp, ao: Out, bo: Out) -> Result<Out> {
        let result_ty = binary_type(op, &ao.ty(), &bo.ty())?;
        // Kleene connectives observe φ; everything else propagates it.
        if op.is_logical() {
            let a = self.logical_operand(&ao)?;
            let b = self.logical_operand(&bo)?;
            // `φ ∧ φ` / `φ ∨ φ` are φ — but one φ operand must stay live:
            // `false ∧ φ = false` and `true ∨ φ = true`.
            let (a, b) = match (a, b) {
                (Some(a), Some(b)) => (a, b),
                (None, None) => return Ok(Out::Null),
                (Some(a), None) => (a, self.null_reg(Class::B)?),
                (None, Some(b)) => (self.null_reg(Class::B)?, b),
            };
            let dst = self.alloc(Class::B)?;
            let instr = match op {
                BinOp::And => Instr::AndB { a: a.idx, b: b.idx, dst: dst.idx },
                _ => Instr::OrB { a: a.idx, b: b.idx, dst: dst.idx },
            };
            self.instrs.push(instr);
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        let (Out::Reg(ar, _), Out::Reg(br, _)) = (&ao, &bo) else { return Ok(Out::Null) };
        let (ar, br) = (*ar, *br);

        if let Some(cmp) = CmpOp::of(op) {
            let dst = self.alloc(Class::B)?;
            match (ar.class, br.class) {
                (Class::I, Class::I) => {
                    // Embedded-constant comparison (flipping when the
                    // constant sits on the left).
                    if let Some(c) = self.const_i.get(&br.idx).copied() {
                        self.instrs.push(Instr::CmpIC { op: cmp, a: ar.idx, c, dst: dst.idx });
                    } else if let Some(c) = self.const_i.get(&ar.idx).copied() {
                        self.instrs.push(Instr::CmpIC {
                            op: cmp.flip(),
                            a: br.idx,
                            c,
                            dst: dst.idx,
                        });
                    } else {
                        self.instrs.push(Instr::CmpI {
                            op: cmp,
                            a: ar.idx,
                            b: br.idx,
                            dst: dst.idx,
                        })
                    }
                }
                (Class::B, Class::B) => {
                    self.instrs.push(Instr::CmpB { op: cmp, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                (Class::F | Class::I, Class::F | Class::I) => {
                    // Float or mixed numeric: constants (including int
                    // constants on a float comparison) embed pre-promoted.
                    if let Some(c) = self.as_const_f(br) {
                        let a = self.promote_f(ar)?;
                        self.instrs.push(Instr::CmpFC { op: cmp, a: a.idx, c, dst: dst.idx });
                    } else if let Some(c) = self.as_const_f(ar) {
                        let b = self.promote_f(br)?;
                        self.instrs.push(Instr::CmpFC {
                            op: cmp.flip(),
                            a: b.idx,
                            c,
                            dst: dst.idx,
                        });
                    } else {
                        let a = self.promote_f(ar)?;
                        let b = self.promote_f(br)?;
                        self.instrs.push(Instr::CmpF { op: cmp, a: a.idx, b: b.idx, dst: dst.idx })
                    }
                }
                _ => self.instrs.push(Instr::BinV { op, a: ar, b: br, dst }),
            }
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            let neg = op == BinOp::Ne;
            let dst = self.alloc(Class::B)?;
            match (ar.class, br.class) {
                (Class::F, Class::F) => {
                    self.instrs.push(Instr::EqF { neg, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                (Class::I, Class::I) => {
                    self.instrs.push(Instr::EqI { neg, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                (Class::B, Class::B) => {
                    self.instrs.push(Instr::EqB { neg, a: ar.idx, b: br.idx, dst: dst.idx })
                }
                // Mixed int/float equality and dynamic operands follow the
                // exact Value::same semantics through the boxed op.
                _ => self.instrs.push(Instr::BinV { op, a: ar, b: br, dst }),
            }
            return Ok(Out::Reg(dst, DataType::Bool));
        }
        let arith = ArithOp::of(op)
            .ok_or_else(|| CompileError::Invalid(format!("typed tier unknown operator {op}")))?;
        match (ar.class, br.class) {
            (Class::I, Class::I) => {
                let dst = self.alloc(Class::I)?;
                if let Some(c) = self.const_i.get(&br.idx).copied() {
                    self.instrs.push(Instr::ArithIC {
                        op: arith,
                        a: ar.idx,
                        c,
                        dst: dst.idx,
                        rev: false,
                    });
                } else if let Some(c) = self.const_i.get(&ar.idx).copied() {
                    self.instrs.push(Instr::ArithIC {
                        op: arith,
                        a: br.idx,
                        c,
                        dst: dst.idx,
                        rev: true,
                    });
                } else {
                    self.instrs.push(Instr::ArithI {
                        op: arith,
                        a: ar.idx,
                        b: br.idx,
                        dst: dst.idx,
                    });
                }
                Ok(Out::Reg(dst, result_ty))
            }
            (Class::F | Class::I, Class::F | Class::I) => {
                // Peephole: `x * y + rhs` fuses into one dispatch when the
                // multiply's value is consumed only here (left operand
                // order is preserved, so NaN payloads match the
                // interpreter bit-for-bit).
                if op == BinOp::Add && ar.class == Class::F && br.class == Class::F {
                    if let Some(dst) = self.try_mul_add(ar, br)? {
                        return Ok(Out::Reg(dst, result_ty));
                    }
                }
                // Float or mixed numeric arithmetic; constant operands
                // (int constants pre-promoted) embed in the instruction.
                let dst = self.alloc(Class::F)?;
                if let Some(c) = self.as_const_f(br) {
                    let a = self.promote_f(ar)?;
                    self.instrs.push(Instr::ArithFC {
                        op: arith,
                        a: a.idx,
                        c,
                        dst: dst.idx,
                        rev: false,
                    });
                } else if let Some(c) = self.as_const_f(ar) {
                    let b = self.promote_f(br)?;
                    self.instrs.push(Instr::ArithFC {
                        op: arith,
                        a: b.idx,
                        c,
                        dst: dst.idx,
                        rev: true,
                    });
                } else {
                    let a = self.promote_f(ar)?;
                    let b = self.promote_f(br)?;
                    self.instrs.push(Instr::ArithF { op: arith, a: a.idx, b: b.idx, dst: dst.idx });
                }
                Ok(Out::Reg(dst, result_ty))
            }
            _ => {
                // A dynamic operand keeps the result dynamic: int/int stays
                // int, anything else promotes — only the boxed op knows.
                let dst = self.alloc(Class::V)?;
                self.instrs.push(Instr::BinV { op, a: ar, b: br, dst });
                Ok(Out::Reg(dst, result_ty))
            }
        }
    }

    /// Fuses `mul + rhs` into a `MulAddF`/`MulAddFC` when the immediately
    /// preceding instruction is the multiply producing the *left* operand
    /// and nothing else can read its register (not let-bound). Returns the
    /// fused destination, or `None` when the pattern does not apply.
    fn try_mul_add(&mut self, ar: Reg, br: Reg) -> Result<Option<Reg>> {
        let Some(Instr::ArithF { op: ArithOp::Mul, a: x, b: y, dst }) = self.instrs.last() else {
            return Ok(None);
        };
        let (x, y, mul_dst) = (*x, *y, *dst);
        if mul_dst != ar.idx || br.idx == mul_dst || self.env.values().any(|(r, _)| *r == Some(ar))
        {
            return Ok(None);
        }
        self.instrs.pop();
        let out = self.alloc(Class::F)?;
        match self.const_f.get(&br.idx).copied() {
            Some(c) => self.instrs.push(Instr::MulAddFC { x, y, c, dst: out.idx }),
            None => self.instrs.push(Instr::MulAddF { x, y, z: br.idx, dst: out.idx }),
        }
        Ok(Some(out))
    }

    /// Materializes a Kleene-connective operand as a `B` register (`None`
    /// when the operand is provably φ on both sides — caller folds).
    fn logical_operand(&mut self, o: &Out) -> Result<Option<Reg>> {
        match o {
            Out::Reg(r, _) if r.class == Class::B => Ok(Some(*r)),
            Out::Reg(r, _) if r.class == Class::V => {
                // Dynamic bools (e.g. read from a fallback kernel's buffer)
                // unbox into the B file; non-bool payloads read as φ, which
                // is exactly `Value::as_bool`'s contract in Value::and/or.
                let dst = self.alloc(Class::B)?;
                self.instrs.push(Instr::UnV { op: UnOp::Not, a: r.idx, dst });
                let flipped = self.alloc(Class::B)?;
                self.instrs.push(Instr::NotB { a: dst.idx, dst: flipped.idx });
                Ok(Some(flipped))
            }
            Out::Reg(..) => {
                Err(CompileError::Invalid("typed tier non-bool logical operand".into()))
            }
            Out::Null => Ok(None),
        }
    }

    fn emit_if(&mut self, c: &Expr, t: &Expr, f: &Expr) -> Result<Out> {
        let co = self.emit(c)?;
        // A φ condition yields φ without evaluating either branch — the
        // interpreter's laziness, preserved.
        let Out::Reg(cr, _) = co else { return Ok(Out::Null) };
        // Compile each branch into a side buffer: branches that need no
        // instructions of their own (registers, constants, φ) collapse to
        // one `Select`; everything else splices into a jump scaffold.
        let outer = std::mem::take(&mut self.instrs);
        let to = self.emit(t);
        let t_code = std::mem::take(&mut self.instrs);
        let fo = self.emit(f);
        let f_code = std::mem::replace(&mut self.instrs, outer);
        let (to, fo) = (to?, fo?);

        // Destination class: equal classes pass through; mixed classes box,
        // because the taken branch's unpromoted value is observable.
        let (dst, result) = match (&to, &fo) {
            (Out::Null, Out::Null) => {
                // Both branches are φ; the cond still runs (it was already
                // emitted) but the result is φ. A throwaway register keeps
                // the control-flow skeleton patchable.
                (self.alloc(Class::B)?, Out::Null)
            }
            (Out::Reg(r, ty), Out::Null) | (Out::Null, Out::Reg(r, ty)) => {
                let dst = self.alloc(r.class)?;
                (dst, Out::Reg(dst, ty.clone()))
            }
            (Out::Reg(ra, ta), Out::Reg(rb, tb)) => {
                let ty = ta.unify(tb).or_else(|| ta.promote(tb)).ok_or_else(|| {
                    CompileError::Type(format!("if branches disagree: {ta} vs {tb}"))
                })?;
                let class = if ra.class == rb.class { ra.class } else { Class::V };
                let dst = self.alloc(class)?;
                (dst, Out::Reg(dst, ty))
            }
        };

        // Empty branch bodies always collapse to one `Select`. Under
        // `speculate` (the batched tier), branches of safe code — no
        // trapping integer ops, no control flow, no boxed traffic — are
        // evaluated on *both* paths and merged the same way: semantically
        // invisible (a typed non-trapping op has no effect beyond its own
        // destination register), but the body stays straight-line, which
        // the batch gate requires.
        let empty = t_code.is_empty() && f_code.is_empty();
        let spec = self.speculate
            && dst.class != Class::V
            && speculatable(&t_code)
            && speculatable(&f_code);
        if cr.class == Class::B && (empty || spec) {
            let as_src = |o: &Out| match o {
                Out::Reg(r, _) => Some(*r),
                Out::Null => None,
            };
            self.splice(t_code);
            self.splice(f_code);
            self.instrs.push(Instr::Select { cond: cr.idx, t: as_src(&to), f: as_src(&fo), dst });
            return Ok(result);
        }

        // When a branch's value is produced by its own last instruction,
        // rewrite that instruction to target the `if` destination directly
        // and skip the tail `Mov` (the branch then jumps straight to the
        // end).
        let mut t_code = t_code;
        let mut f_code = f_code;
        let t_assigned = branch_retargets(&mut t_code, &to, dst);
        let f_assigned = branch_retargets(&mut f_code, &fo, dst);

        let branch_at = self.reserve();
        self.splice(t_code);
        let j_then = self.reserve();
        let else_at = self.instrs.len();
        self.splice(f_code);
        let j_else = self.reserve();
        let then_mov = self.instrs.len();
        if !t_assigned {
            self.emit_assign(&to, dst)?;
        }
        let j1 = self.reserve();
        let else_mov = self.instrs.len();
        if !f_assigned {
            self.emit_assign(&fo, dst)?;
        }
        let j2 = self.reserve();
        let null_at = self.instrs.len();
        self.instrs.push(Instr::Null { dst });
        let end = self.instrs.len();

        let (else_at, null_at) = (else_at as u32, null_at as u32);
        self.instrs[branch_at] = match cr.class {
            Class::B => Instr::Branch { cond: cr.idx, on_false: else_at, on_null: null_at },
            Class::V => Instr::BranchV { cond: cr.idx, on_false: else_at, on_null: null_at },
            _ => return Err(CompileError::Invalid("typed tier non-bool if condition".into())),
        };
        self.instrs[j_then] =
            Instr::Jump { target: if t_assigned { end } else { then_mov } as u32 };
        self.instrs[j_else] =
            Instr::Jump { target: if f_assigned { end } else { else_mov } as u32 };
        self.instrs[j1] = Instr::Jump { target: end as u32 };
        self.instrs[j2] = Instr::Jump { target: end as u32 };
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::program::compile;

    fn typed(body: &Expr, obj_ty: DataType) -> (Program, TypedProgram) {
        let program = compile(body).unwrap();
        let objs = move |_: TObjId| Ok(obj_ty.clone());
        let classes = HashMap::new();
        let tp = compile_typed(body, &program, &objs, &classes, false).unwrap();
        (program, tp)
    }

    /// Runs both tiers over the same point-slot inputs and compares.
    fn both(body: &Expr, obj_ty: DataType, points: &[Value]) -> (Value, Value) {
        let (program, tp) = typed(body, obj_ty);
        let mut ictx = program.new_ctx();
        let mut tctx = tp.new_ctx();
        for (i, v) in points.iter().enumerate() {
            ictx.points[i] = v.clone();
            if let Some(r) = tp.point_regs[i] {
                tctx.load_value(r, v);
            }
        }
        (program.run(&mut ictx), tp.run(&mut tctx))
    }

    fn obj(i: u32) -> TObjId {
        TObjId(i)
    }

    #[test]
    fn numeric_filter_map_is_fully_typed_and_identical() {
        // (p0 * 2 + 1 > 10) ? p0 : φ
        let e = Expr::if_else(
            Expr::at(obj(0)).mul(Expr::c(2.0)).add(Expr::c(1.0)).gt(Expr::c(10.0)),
            Expr::at(obj(0)),
            Expr::null(),
        );
        let (_, tp) = typed(&e, DataType::Float);
        assert!(tp.is_fully_typed());
        for v in [Value::Float(7.5), Value::Float(1.0), Value::Null] {
            let (a, b) = both(&e, DataType::Float, std::slice::from_ref(&v));
            assert!(a.same(&b), "input {v:?}: interp {a:?} vs typed {b:?}");
        }
        // And the fully-typed run performs zero fallback operations.
        let (_, tp) = typed(&e, DataType::Float);
        let mut ctx = tp.new_ctx();
        tp.run(&mut ctx);
        assert_eq!(ctx.fallback_ops, 0);
    }

    #[test]
    fn kleene_and_null_propagation_match_interpreter() {
        // (p0 > 0 && p1 > 0) || is_null(p0), with p0: float and p1: int.
        let e = Expr::at(obj(0))
            .gt(Expr::c(0.0))
            .and(Expr::at(obj(1)).gt(Expr::c(0i64)))
            .or(Expr::at(obj(0)).is_null());
        let program = compile(&e).unwrap();
        let objs = |o: TObjId| Ok(if o == obj(0) { DataType::Float } else { DataType::Int });
        let tp = compile_typed(&e, &program, &objs, &HashMap::new(), false).unwrap();
        assert!(tp.is_fully_typed());
        let cases = [
            [Value::Float(1.0), Value::Int(1)],
            [Value::Float(1.0), Value::Null],
            [Value::Null, Value::Int(-1)],
            [Value::Null, Value::Null],
            [Value::Float(-1.0), Value::Null],
        ];
        for points in &cases {
            let mut ictx = program.new_ctx();
            let mut tctx = tp.new_ctx();
            for (i, v) in points.iter().enumerate() {
                ictx.points[i] = v.clone();
                if let Some(r) = tp.point_regs[i] {
                    tctx.load_value(r, v);
                }
            }
            let a = program.run(&mut ictx);
            let b = tp.run(&mut tctx);
            assert!(a.same(&b), "points {points:?}: interp {a:?} vs typed {b:?}");
        }
    }

    #[test]
    fn mixed_branch_if_stays_boxed_for_identity() {
        // if p0 > 0 then 1 (int) else 2.5 (float): the taken branch's
        // dynamic type is observable; the typed tier must preserve it.
        let e = Expr::if_else(Expr::at(obj(0)).gt(Expr::c(0.0)), Expr::c(1i64), Expr::c(2.5));
        let (a, b) = both(&e, DataType::Float, &[Value::Float(5.0)]);
        assert!(a.same(&Value::Int(1)));
        assert!(a.same(&b));
        let (a, b) = both(&e, DataType::Float, &[Value::Float(-5.0)]);
        assert!(a.same(&Value::Float(2.5)));
        assert!(a.same(&b));
    }

    #[test]
    fn str_and_tuple_fall_back_but_agree() {
        // {p0, p0 == "hot"} — string equality + tuple construction.
        let e = Expr::Tuple(vec![Expr::at(obj(0)), Expr::at(obj(0)).eq(Expr::c("hot"))]);
        let (_, tp) = typed(&e, DataType::Str);
        assert!(!tp.is_fully_typed());
        for v in [Value::str("hot"), Value::str("cold"), Value::Null] {
            let (a, b) = both(&e, DataType::Str, std::slice::from_ref(&v));
            assert!(a.same(&b), "input {v:?}: interp {a:?} vs typed {b:?}");
        }
        // Fallback executions are visible in the counter.
        let (_, tp) = typed(&e, DataType::Str);
        let mut ctx = tp.new_ctx();
        tp.run(&mut ctx);
        assert!(ctx.fallback_ops > 0);
    }

    #[test]
    fn field_projection_and_int_division_semantics() {
        // p0.1 / 2 over {float, int}: integer division, φ on zero divisor.
        let tuple_ty = DataType::Tuple(vec![DataType::Float, DataType::Int]);
        let e = Expr::at(obj(0)).get(1).div(Expr::c(2i64));
        let v = Value::tuple([Value::Float(0.5), Value::Int(7)]);
        let (a, b) = both(&e, tuple_ty.clone(), &[v]);
        assert!(a.same(&Value::Int(3)));
        assert!(a.same(&b));
        let e0 = Expr::at(obj(0)).get(1).div(Expr::c(0i64));
        let v = Value::tuple([Value::Float(0.5), Value::Int(7)]);
        let (a, b) = both(&e0, tuple_ty, &[v]);
        assert!(a.same(&Value::Null));
        assert!(a.same(&b));
    }

    #[test]
    fn let_bindings_and_time_share_registers() {
        let v = VarId::from_raw(0);
        let e = Expr::Let {
            var: v,
            value: Box::new(Expr::at(obj(0)).mul(Expr::c(3.0))),
            body: Box::new(
                Expr::Var(v).add(Expr::Var(v)).add(Expr::Time.bin(BinOp::Mul, Expr::c(0i64))),
            ),
        };
        let (a, b) = both(&e, DataType::Float, &[Value::Float(2.0)]);
        assert!(a.same(&Value::Float(12.0)));
        assert!(a.same(&b), "interp {a:?} vs typed {b:?}");
    }

    #[test]
    fn bitwise_float_equality_matches_value_same() {
        // NaN == NaN is true under snapshot identity; -0.0 == 0.0 is false.
        let e = Expr::at(obj(0)).eq(Expr::at_off(obj(0), -1));
        let (program, _) = typed(&e, DataType::Float);
        assert_eq!(program.points.len(), 2);
        for (x, y) in [(f64::NAN, f64::NAN), (-0.0, 0.0), (1.5, 1.5), (1.5, 2.5)] {
            let (a, b) = both(&e, DataType::Float, &[Value::Float(x), Value::Float(y)]);
            assert!(a.same(&b), "({x}, {y}): interp {a:?} vs typed {b:?}");
        }
    }
}

#[cfg(test)]
mod bench_probe {
    use super::*;
    use crate::codegen::program::compile;

    #[test]
    #[ignore]
    fn probe_eval_speed() {
        // ~45-node numeric body, mirroring kernel_hot's pointwise plan.
        let x = Expr::at(TObjId(0));
        let scaled = x.clone().mul(Expr::c(1.0001)).add(Expr::c(0.5));
        let wrapped = Expr::if_else(
            scaled.clone().gt(Expr::c(1.5)),
            scaled.clone().sub(Expr::c(1.5)),
            scaled,
        );
        let poly = wrapped
            .clone()
            .mul(wrapped.clone())
            .mul(Expr::c(0.5))
            .add(wrapped.clone().mul(Expr::c(0.25)))
            .add(Expr::c(0.125));
        let energy = poly.abs().add(Expr::c(1.0)).sqrt();
        let clamped = energy
            .clone()
            .sub(Expr::c(0.3))
            .mul(Expr::c(2.5))
            .bin(BinOp::Max, Expr::c(-1.0))
            .bin(BinOp::Min, Expr::c(1.0));
        let cubic = clamped
            .clone()
            .mul(clamped.clone())
            .mul(clamped.clone())
            .add(clamped.mul(Expr::c(0.5)))
            .sub(Expr::c(0.25));
        let body = Expr::if_else(
            cubic.clone().gt(Expr::c(-0.9)).and(cubic.clone().lt(Expr::c(0.9))),
            cubic.mul(Expr::c(4.0)).add(energy.mul(Expr::c(0.1))),
            Expr::null(),
        );
        eprintln!("body size: {}", body.size());
        let program = compile(&body).unwrap();
        let objs = |_: TObjId| Ok(DataType::Float);
        let tp = compile_typed(&body, &program, &objs, &HashMap::new(), false).unwrap();
        let n = 3_000_000u64;

        let mut ictx = program.new_ctx();
        let t0 = std::time::Instant::now();
        let mut acc = 0u64;
        for i in 0..n {
            ictx.points[0] = Value::Float((i % 97) as f64 * 0.01);
            if !matches!(program.run(&mut ictx), Value::Null) {
                acc += 1;
            }
        }
        let interp = t0.elapsed();
        let mut tctx = tp.new_ctx();
        let t0 = std::time::Instant::now();
        let mut acc2 = 0u64;
        for i in 0..n {
            tctx.load_value(tp.point_regs[0].unwrap(), &Value::Float((i % 97) as f64 * 0.01));
            if !matches!(tp.run(&mut tctx), Value::Null) {
                acc2 += 1;
            }
        }
        let typed = t0.elapsed();
        assert_eq!(acc, acc2);
        eprintln!(
            "interp {:.1}ns/eval  typed {:.1}ns/eval  speedup {:.2}x",
            interp.as_nanos() as f64 / n as f64,
            typed.as_nanos() as f64 / n as f64,
            interp.as_nanos() as f64 / typed.as_nanos() as f64
        );
    }
}

#[cfg(test)]
mod size_probe {
    use super::*;

    #[test]
    #[ignore]
    fn instr_size() {
        eprintln!("size_of Instr = {}", std::mem::size_of::<Instr>());
        eprintln!("size_of Value = {}", std::mem::size_of::<Value>());
        eprintln!("size_of Reg = {}", std::mem::size_of::<Reg>());
    }
}
