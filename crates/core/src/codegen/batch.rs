//! Batched (third-tier) kernel bodies: each bytecode op runs over a *run*
//! of grid ticks at once.
//!
//! The per-tick typed tier already killed boxing, but it still pays one
//! dispatch (one `match` on [`Instr`]) per instruction per tick. Dense
//! stretches — sampled kernels, `every_tick` domains under steady input —
//! execute the same short straight-line body thousands of times in a row,
//! so the dispatch dominates. This module amortizes it: the kernel driver
//! collects up to [`MAX_BATCH`] consecutive ticks whose stepping is dense,
//! and [`BatchCtx::exec`] runs each instruction once over all lanes as a
//! plain `f64`/`i64` slice loop the compiler auto-vectorizes. The columns
//! outlive the run: the driver fills its lanes (or repeats the lane before
//! across a stretch where no input changes, [`BatchCtx::repeat_lane`]),
//! the body defines the rest before reading them, and the prelude's
//! constant columns — which the gate proves nothing writes — are filled
//! once, when the kernel's run state is shaped.
//!
//! φ handling is where the batch shape pays twice: per-register lane masks
//! are word-level [`NullMask`]s, so propagating φ through a binary op is a
//! couple of `u64` ORs ([`NullMask::set_or`]) and the "any φ in this run?"
//! test that guards the slow per-lane arms is one branch per 64 lanes
//! ([`NullMask::none_null`]).
//!
//! Lane-wise semantics are *identical* to the scalar [`exec`] loop — same
//! IEEE ops, same wrapping integer ops, same Kleene logic, same bitwise
//! float equality — so batched output is byte-identical to the per-tick
//! tier. Value slots of φ lanes may hold garbage (float ops compute on
//! them unconditionally, exactly like the scalar tier's branch-free float
//! arms); the mask makes that unobservable. Integer ops that can trap
//! (`Div`/`Rem`/`Pow`, `NegI`/`AbsI` overflow) skip φ lanes so garbage
//! never reaches an operation the scalar tier would not have executed.
//!
//! Not every typed body can batch: [`batchable`] admits only fully typed,
//! branch-free, def-before-use straight-line bodies whose reduce slots
//! take the unboxed accumulate path. Everything else transparently runs
//! the per-tick tier — the gate is a static property of the plan, checked
//! once at compile time.

use tilt_data::{ColumnRef, NullMask};

use super::compiled::{ArithOp, Class, CmpOp, Instr, Reg, TypedCtx, TypedProgram};

/// Maximum lanes per batch. 256 keeps all columns of a typical body
/// (tens of registers) inside L1 while amortizing dispatch ~256×.
pub(crate) const MAX_BATCH: usize = 256;

/// Whether the typed body can execute on the batched tier: fully typed
/// (no `V` registers), straight-line (no jumps or branches), every
/// register defined before use within a tick, every operand distinct from
/// its instruction's destination, and every live reduce slot on the
/// unboxed fold/result path described by `modes` (see
/// [`super::reduce::typed_fold_class`]).
pub(crate) fn batchable(tp: &TypedProgram, modes: &[Option<(Class, Class)>]) -> bool {
    // A provably-φ body (no root) has no result column to write.
    if !tp.is_fully_typed() || tp.root.is_none() {
        return false;
    }
    for (i, reg) in tp.reduce_regs.iter().enumerate() {
        let Some(reg) = reg else { continue };
        let Some((fold, res)) = modes.get(i).copied().flatten() else {
            return false;
        };
        if reg.class != res {
            return false;
        }
        match tp.typed_maps.get(i).and_then(|m| m.as_ref()) {
            Some(map) => {
                if map.fold_class() != Some(fold) {
                    return false;
                }
            }
            None => {
                if tp.reduce_elem.get(i).copied().flatten() != Some(fold) {
                    return false;
                }
            }
        }
    }
    body_ok(tp)
}

/// What the gate knows of a register at the current body position.
#[derive(Clone, Copy, PartialEq)]
enum Def {
    No,
    /// Written by the body (or the driver) earlier in the tick.
    Yes,
    /// A prelude constant or φ seed: live from the start, written by
    /// nothing else — a kernel's batch columns hold these across runs.
    Prelude,
}

/// Registers proven initialized at the current body position.
struct Init {
    f: Vec<Def>,
    i: Vec<Def>,
    b: Vec<Def>,
}

impl Init {
    fn slots(&mut self, c: Class) -> &mut Vec<Def> {
        match c {
            Class::F => &mut self.f,
            Class::I => &mut self.i,
            Class::B => &mut self.b,
            Class::V => unreachable!("V registers rejected before def tracking"),
        }
    }

    /// Records a write to `r`; `false` when `r` is a prelude register.
    fn def(&mut self, c: Class, r: u16) -> bool {
        let slot = &mut self.slots(c)[r as usize];
        let writable = *slot != Def::Prelude;
        if writable {
            *slot = Def::Yes;
        }
        writable
    }

    fn live(&mut self, c: Class, r: u16) -> bool {
        self.slots(c)[r as usize] != Def::No
    }
}

/// The registers live before any body or map instruction runs: the
/// prelude's constants and φ seeds. `None` when the prelude holds a boxed
/// one.
fn prelude_init(tp: &TypedProgram) -> Option<Init> {
    let mut init = Init {
        f: vec![Def::No; tp.n_f as usize],
        i: vec![Def::No; tp.n_i as usize],
        b: vec![Def::No; tp.n_b as usize],
    };
    for r in tp.prelude_regs() {
        if r.class == Class::V {
            return None;
        }
        init.slots(r.class)[r.idx as usize] = Def::Prelude;
    }
    Some(init)
}

/// Walks the body in order, proving it straight-line, whitelisted, and
/// def-before-use with operands distinct from destinations.
fn body_ok(tp: &TypedProgram) -> bool {
    let Some(mut init) = prelude_init(tp) else { return false };
    // Besides the prelude, the driver-filled point/reduce slots are the
    // only registers live at body entry.
    for r in tp.point_regs.iter().chain(&tp.reduce_regs).flatten() {
        if r.class == Class::V || !init.def(r.class, r.idx) {
            return false;
        }
    }
    tp.instrs.iter().all(|ins| step(ins, &mut init))
}

/// Whether a fused window map can execute over lanes (see
/// [`BatchCtx::exec`]): the same proof as the body's, with the element
/// register as the one driver-filled slot — so a map reading anything the
/// body computes per tick stays on the per-element path.
pub(crate) fn map_batchable(
    tp: &TypedProgram,
    var: Reg,
    instrs: &[Instr],
    root: Option<Reg>,
) -> bool {
    let Some(mut init) = prelude_init(tp) else { return false };
    if var.class == Class::V || root.is_none() || !init.def(var.class, var.idx) {
        return false;
    }
    instrs.iter().all(|ins| step(ins, &mut init))
}

/// Admits one instruction: reads must be initialized and distinct from the
/// destination (batch columns update in place, so an aliased destination
/// would clobber an operand mid-run), and the destination must not be a
/// prelude register (those columns are written once per run state).
fn step(ins: &Instr, init: &mut Init) -> bool {
    let mut chk = |reads: &[(Class, u16)], dst: (Class, u16)| -> bool {
        reads.iter().all(|&(c, r)| init.live(c, r) && (c, r) != dst) && init.def(dst.0, dst.1)
    };
    use Class::{B, F, I};
    match ins {
        Instr::ConstF { dst, .. } => chk(&[], (F, *dst)),
        Instr::ConstI { dst, .. } => chk(&[], (I, *dst)),
        Instr::ConstB { dst, .. } => chk(&[], (B, *dst)),
        Instr::Null { dst } => dst.class != Class::V && chk(&[], (dst.class, dst.idx)),
        Instr::Time { dst } => chk(&[], (I, *dst)),
        Instr::Mov { src, dst } => {
            src.class == dst.class
                && src.class != Class::V
                && chk(&[(src.class, src.idx)], (dst.class, dst.idx))
        }
        Instr::ArithF { a, b, dst, .. } => chk(&[(F, *a), (F, *b)], (F, *dst)),
        Instr::ArithI { a, b, dst, .. } => chk(&[(I, *a), (I, *b)], (I, *dst)),
        Instr::ArithFC { a, dst, .. } => chk(&[(F, *a)], (F, *dst)),
        Instr::ArithIC { a, dst, .. } => chk(&[(I, *a)], (I, *dst)),
        Instr::MulAddF { x, y, z, dst } => chk(&[(F, *x), (F, *y), (F, *z)], (F, *dst)),
        Instr::MulAddFC { x, y, dst, .. } => chk(&[(F, *x), (F, *y)], (F, *dst)),
        Instr::CmpF { a, b, dst, .. } => chk(&[(F, *a), (F, *b)], (B, *dst)),
        Instr::CmpI { a, b, dst, .. } => chk(&[(I, *a), (I, *b)], (B, *dst)),
        Instr::CmpB { a, b, dst, .. } => chk(&[(B, *a), (B, *b)], (B, *dst)),
        Instr::CmpFC { a, dst, .. } => chk(&[(F, *a)], (B, *dst)),
        Instr::CmpIC { a, dst, .. } => chk(&[(I, *a)], (B, *dst)),
        Instr::EqF { a, b, dst, .. } => chk(&[(F, *a), (F, *b)], (B, *dst)),
        Instr::EqI { a, b, dst, .. } => chk(&[(I, *a), (I, *b)], (B, *dst)),
        Instr::EqB { a, b, dst, .. } => chk(&[(B, *a), (B, *b)], (B, *dst)),
        Instr::AndB { a, b, dst } | Instr::OrB { a, b, dst } => chk(&[(B, *a), (B, *b)], (B, *dst)),
        Instr::NotB { a, dst } => chk(&[(B, *a)], (B, *dst)),
        Instr::NegF { a, dst } | Instr::AbsF { a, dst } | Instr::SqrtF { a, dst } => {
            chk(&[(F, *a)], (F, *dst))
        }
        Instr::NegI { a, dst } | Instr::AbsI { a, dst } => chk(&[(I, *a)], (I, *dst)),
        Instr::I2F { a, dst } => chk(&[(I, *a)], (F, *dst)),
        Instr::F2I { a, dst } => chk(&[(F, *a)], (I, *dst)),
        Instr::IsNull { a, dst } => a.class != Class::V && chk(&[(a.class, a.idx)], (B, *dst)),
        Instr::Select { cond, t, f, dst } => {
            if dst.class == Class::V {
                return false;
            }
            let mut reads = vec![(B, *cond)];
            for src in [t, f].into_iter().flatten() {
                if src.class != dst.class {
                    return false;
                }
                reads.push((src.class, src.idx));
            }
            chk(&reads, (dst.class, dst.idx))
        }
        // Boxed traffic and control flow stay per-tick.
        Instr::ConstV { .. }
        | Instr::Box { .. }
        | Instr::BinV { .. }
        | Instr::UnV { .. }
        | Instr::Field { .. }
        | Instr::MakeTuple { .. }
        | Instr::Jump { .. }
        | Instr::Branch { .. }
        | Instr::BranchV { .. } => false,
    }
}

/// Columnar register files: one `cap`-lane column per scalar register,
/// with a word-level [`NullMask`] per column. Lanes past the current
/// batch length hold garbage; every consumer bounds itself by `k`.
pub(crate) struct BatchCtx {
    cap: usize,
    f: Vec<f64>,
    i: Vec<i64>,
    b: Vec<bool>,
    nf: Vec<NullMask>,
    ni: Vec<NullMask>,
    nb: Vec<NullMask>,
    /// Staging mask for same-file mask writes (computed here, then swapped
    /// into the destination so operand masks are never aliased mutably).
    scratch: NullMask,
}

/// Splits `file` into the mutable destination column and the shared
/// remainder (`head` = columns before `dst`, `tail` = columns after).
#[inline]
fn split_dst<T>(file: &mut [T], cap: usize, dst: u16) -> (&mut [T], &[T], &[T]) {
    let (head, rest) = file.split_at_mut(dst as usize * cap);
    let (dcol, tail) = rest.split_at_mut(cap);
    (dcol, head, tail)
}

/// Resolves operand column `r` against a [`split_dst`] remainder.
#[inline]
fn pick<'t, T>(head: &'t [T], tail: &'t [T], cap: usize, dst: u16, r: u16) -> &'t [T] {
    debug_assert_ne!(r, dst, "operand aliases destination: rejected by the batch gate");
    if r < dst {
        &head[r as usize * cap..][..cap]
    } else {
        &tail[(r - dst - 1) as usize * cap..][..cap]
    }
}

/// `d[j] = f(a[j], b[j])` over pre-sliced lanes — the auto-vectorization
/// target shape (no bounds checks, closure monomorphized per op).
#[inline]
fn lanes2<T: Copy, U, F: Fn(T, T) -> U>(d: &mut [U], a: &[T], b: &[T], f: F) {
    for ((d, &x), &y) in d.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// `d[j] = f(a[j])` over pre-sliced lanes.
#[inline]
fn lanes1<T: Copy, U, F: Fn(T) -> U>(d: &mut [U], a: &[T], f: F) {
    for (d, &x) in d.iter_mut().zip(a) {
        *d = f(x);
    }
}

/// Binary float arithmetic with the op `match` hoisted out of the lane
/// loop so each arm vectorizes independently.
fn arith_f_lanes(op: ArithOp, d: &mut [f64], a: &[f64], b: &[f64]) {
    match op {
        ArithOp::Add => lanes2(d, a, b, |x, y| x + y),
        ArithOp::Sub => lanes2(d, a, b, |x, y| x - y),
        ArithOp::Mul => lanes2(d, a, b, |x, y| x * y),
        ArithOp::Div => lanes2(d, a, b, |x, y| x / y),
        ArithOp::Rem => lanes2(d, a, b, |x, y| x % y),
        ArithOp::Pow => lanes2(d, a, b, f64::powf),
        ArithOp::Min => lanes2(d, a, b, f64::min),
        ArithOp::Max => lanes2(d, a, b, f64::max),
    }
}

/// Comparison lanes with the op hoisted (shared by the `F`, `I`, and `B`
/// arms and their embedded-constant variants through slice reuse).
fn cmp_lanes<T: Copy + PartialOrd>(op: CmpOp, d: &mut [bool], a: &[T], b: &[T]) {
    match op {
        CmpOp::Lt => lanes2(d, a, b, |x, y| x < y),
        CmpOp::Le => lanes2(d, a, b, |x, y| x <= y),
        CmpOp::Gt => lanes2(d, a, b, |x, y| x > y),
        CmpOp::Ge => lanes2(d, a, b, |x, y| x >= y),
    }
}

fn cmp_lanes_c<T: Copy + PartialOrd>(op: CmpOp, d: &mut [bool], a: &[T], c: T) {
    match op {
        CmpOp::Lt => lanes1(d, a, |x| x < c),
        CmpOp::Le => lanes1(d, a, |x| x <= c),
        CmpOp::Gt => lanes1(d, a, |x| x > c),
        CmpOp::Ge => lanes1(d, a, |x| x >= c),
    }
}

/// The three-way conditional move, lane-wise: φ condition → φ, else copy
/// the selected branch's value and flag (`None` branch = φ), exactly like
/// the scalar `Select` arm — computed a mask word (64 lanes) at a time:
/// the condition packs into bits, the result mask is three ANDs and two
/// ORs, and the value move is a branch-free per-lane pick.
fn select_lanes<T: Copy>(
    k: usize,
    cond: &[bool],
    cmask: &NullMask,
    t: Option<(&[T], &NullMask)>,
    f: Option<(&[T], &NullMask)>,
    d: &mut [T],
    dmask: &mut NullMask,
) {
    for (w, lanes) in cond[..k].chunks(64).enumerate() {
        let base = w * 64;
        let mut cbits = 0u64;
        for (j, &c) in lanes.iter().enumerate() {
            cbits |= (c as u64) << j;
        }
        let cnull = cmask.word(w);
        let tnull = t.map_or(!0, |(_, m)| m.word(w));
        let fnull = f.map_or(!0, |(_, m)| m.word(w));
        dmask.set_word(w, cnull | (cbits & tnull) | (!cbits & fnull));
        let d = &mut d[base..base + lanes.len()];
        match (t, f) {
            (Some((tc, _)), Some((fc, _))) => {
                let (tc, fc) = (&tc[base..], &fc[base..]);
                for (j, d) in d.iter_mut().enumerate() {
                    *d = if lanes[j] { tc[j] } else { fc[j] };
                }
            }
            // With one branch φ, lanes that do not take the other are φ
            // whatever they hold: copy it everywhere.
            (Some((sc, _)), None) | (None, Some((sc, _))) => {
                d.copy_from_slice(&sc[base..base + lanes.len()]);
            }
            (None, None) => {}
        }
    }
}

/// An unboxed register class as a Rust type: how class-generic code reads
/// a scalar register or a lane column of that class.
pub(crate) trait Lane: Copy + Default {
    /// The scalar register `r` (`None` = φ).
    fn scalar(ctx: &TypedCtx, r: Reg) -> Option<Self>;
    /// The lane column and lane mask of register `r`.
    fn lanes(bc: &BatchCtx, r: Reg) -> (&[Self], &NullMask);
}

macro_rules! lane {
    ($t:ty, $class:ident, $get:ident, $file:ident, $masks:ident) => {
        impl Lane for $t {
            #[inline]
            fn scalar(ctx: &TypedCtx, r: Reg) -> Option<$t> {
                debug_assert_eq!(r.class, Class::$class);
                let (x, null) = ctx.$get(r.idx);
                (!null).then_some(x)
            }
            #[inline]
            fn lanes(bc: &BatchCtx, r: Reg) -> (&[$t], &NullMask) {
                debug_assert_eq!(r.class, Class::$class);
                (&bc.$file[r.idx as usize * bc.cap..][..bc.cap], &bc.$masks[r.idx as usize])
            }
        }
    };
}
lane!(f64, F, get_f, f, nf);
lane!(i64, I, get_i, i, ni);
lane!(bool, B, get_b, b, nb);

impl BatchCtx {
    /// Columns sized for `tp`, capacity [`MAX_BATCH`], each filled with its
    /// register of `ctx` (a scalar file whose prelude has run): constants
    /// and φ seeds become whole columns, written here once — the gate
    /// proved nothing else writes them — and every other column is defined
    /// by the driver or the body before each use, so what it holds now, or
    /// is left holding by the previous run, is never read.
    pub(crate) fn new(tp: &TypedProgram, ctx: &TypedCtx) -> BatchCtx {
        fn file<T: Copy>(
            n: u16,
            cap: usize,
            reg: impl Fn(u16) -> (T, bool),
        ) -> (Vec<T>, Vec<NullMask>) {
            let mut vals = Vec::with_capacity(n as usize * cap);
            let mut masks = Vec::with_capacity(n as usize);
            for r in 0..n {
                let (x, null) = reg(r);
                vals.resize(vals.len() + cap, x);
                let mut mask = NullMask::new(cap);
                if !null {
                    mask.clear_all();
                }
                masks.push(mask);
            }
            (vals, masks)
        }
        let cap = MAX_BATCH;
        let (f, nf) = file(tp.n_f, cap, |r| ctx.get_f(r));
        let (i, ni) = file(tp.n_i, cap, |r| ctx.get_i(r));
        let (b, nb) = file(tp.n_b, cap, |r| ctx.get_b(r));
        BatchCtx { cap, f, i, b, nf, ni, nb, scratch: NullMask::new(cap) }
    }

    /// Copies lane `from` of the driver-filled registers `regs` into the
    /// `n` lanes after it: the lanes of a stretch in which no read and no
    /// window changes hold the registers of the lane before.
    pub(crate) fn repeat_lane(&mut self, regs: impl Iterator<Item = Reg>, from: usize, n: usize) {
        fn repeat<T: Copy>(col: &mut [T], mask: &mut NullMask, from: usize, n: usize) {
            let (lo, hi) = (from + 1, from + 1 + n);
            let x = col[from];
            col[lo..hi].fill(x);
            mask.set_range(lo, hi, mask.get(from));
        }
        let cap = self.cap;
        for r in regs {
            let at = r.idx as usize;
            match r.class {
                Class::F => repeat(&mut self.f[at * cap..][..cap], &mut self.nf[at], from, n),
                Class::I => repeat(&mut self.i[at * cap..][..cap], &mut self.ni[at], from, n),
                Class::B => repeat(&mut self.b[at * cap..][..cap], &mut self.nb[at], from, n),
                Class::V => unreachable!("batch gate admits only typed driver registers"),
            }
        }
    }

    /// Writes one lane of a driver-filled slot (point access or reduce
    /// result), `None` = φ.
    pub(crate) fn store_f_lane(&mut self, reg: Reg, lane: usize, v: Option<f64>) {
        debug_assert_eq!(reg.class, Class::F);
        match v {
            Some(x) => {
                self.f[reg.idx as usize * self.cap + lane] = x;
                self.nf[reg.idx as usize].set(lane, false);
            }
            None => self.nf[reg.idx as usize].set(lane, true),
        }
    }

    pub(crate) fn store_i_lane(&mut self, reg: Reg, lane: usize, v: Option<i64>) {
        debug_assert_eq!(reg.class, Class::I);
        match v {
            Some(x) => {
                self.i[reg.idx as usize * self.cap + lane] = x;
                self.ni[reg.idx as usize].set(lane, false);
            }
            None => self.ni[reg.idx as usize].set(lane, true),
        }
    }

    pub(crate) fn store_b_lane(&mut self, reg: Reg, lane: usize, v: Option<bool>) {
        debug_assert_eq!(reg.class, Class::B);
        match v {
            Some(x) => {
                self.b[reg.idx as usize * self.cap + lane] = x;
                self.nb[reg.idx as usize].set(lane, false);
            }
            None => self.nb[reg.idx as usize].set(lane, true),
        }
    }

    /// Fills lanes `0..run.len()` of register `var` with the spans `run`
    /// of a source column and its φ mask — the element loads of a
    /// lanes-mapped window, a slice copy when the classes agree. The class
    /// pair is matched once per run; a column that cannot provide the
    /// register's class reads as φ, integers coerce into `F` registers
    /// (exactly [`tilt_data::Value::as_f64`]).
    pub(crate) fn load_run(
        &mut self,
        var: Reg,
        col: &ColumnRef<'_>,
        nulls: &NullMask,
        run: std::ops::Range<usize>,
    ) {
        fn boxed<U>(lanes: &mut [U], mask: &mut NullMask, read: impl Fn(usize) -> Option<U>) {
            for (j, lane) in lanes.iter_mut().enumerate() {
                match read(j) {
                    Some(x) if !mask.get(j) => *lane = x,
                    _ => mask.set(j, true),
                }
            }
        }
        let (r, cap, n, lo) = (var.idx as usize, self.cap, run.len(), run.start);
        let mask = match var.class {
            Class::F => &mut self.nf[r],
            Class::I => &mut self.ni[r],
            Class::B => &mut self.nb[r],
            Class::V => unreachable!("V element register in a lanes map"),
        };
        mask.copy_range(nulls, lo, n);
        match (var.class, col) {
            (Class::F, ColumnRef::F64(v)) => self.f[r * cap..][..n].copy_from_slice(&v[run]),
            (Class::F, ColumnRef::I64(v)) => {
                lanes1(&mut self.f[r * cap..][..n], &v[run], |x: i64| x as f64)
            }
            (Class::I, ColumnRef::I64(v)) => self.i[r * cap..][..n].copy_from_slice(&v[run]),
            (Class::B, ColumnRef::Bool(v)) => self.b[r * cap..][..n].copy_from_slice(&v[run]),
            (Class::F, ColumnRef::Boxed(_)) => {
                boxed(&mut self.f[r * cap..][..n], mask, |j| col.f64_at(lo + j))
            }
            (Class::I, ColumnRef::Boxed(_)) => {
                boxed(&mut self.i[r * cap..][..n], mask, |j| col.i64_at(lo + j))
            }
            (Class::B, ColumnRef::Boxed(_)) => {
                boxed(&mut self.b[r * cap..][..n], mask, |j| col.bool_at(lo + j))
            }
            // A column of another class reads as φ throughout.
            _ => mask.set_range(0, n, true),
        }
    }

    /// Flags lanes `0..n` of register `r` φ wherever slots `lo..lo + n` of
    /// `src` are.
    pub(crate) fn or_nulls(&mut self, r: Reg, src: &NullMask, lo: usize, n: usize) {
        let mask = match r.class {
            Class::F => &mut self.nf[r.idx as usize],
            Class::I => &mut self.ni[r.idx as usize],
            Class::B => &mut self.nb[r.idx as usize],
            Class::V => unreachable!("V register in a lanes map"),
        };
        mask.or_range(src, lo, n);
    }

    /// Executes a gated body over lanes `0..k`, where lane `j` is grid
    /// tick `t0 + j·p`. Semantics match the scalar [`exec`] loop lane for
    /// lane; see the module docs for the φ-lane garbage discipline.
    pub(super) fn exec(&mut self, instrs: &[Instr], t0: i64, p: i64, k: usize) {
        let cap = self.cap;
        debug_assert!(k <= cap);
        for ins in instrs {
            match ins {
                Instr::ConstF { dst, v } => {
                    self.f[*dst as usize * cap..][..k].fill(*v);
                    self.nf[*dst as usize].set_range(0, k, false);
                }
                Instr::ConstI { dst, v } => {
                    self.i[*dst as usize * cap..][..k].fill(*v);
                    self.ni[*dst as usize].set_range(0, k, false);
                }
                Instr::ConstB { dst, v } => {
                    self.b[*dst as usize * cap..][..k].fill(*v);
                    self.nb[*dst as usize].set_range(0, k, false);
                }
                Instr::Null { dst } => match dst.class {
                    Class::F => self.nf[dst.idx as usize].set_range(0, k, true),
                    Class::I => self.ni[dst.idx as usize].set_range(0, k, true),
                    Class::B => self.nb[dst.idx as usize].set_range(0, k, true),
                    Class::V => unreachable!("V register in batched body"),
                },
                Instr::Time { dst } => {
                    let dcol = &mut self.i[*dst as usize * cap..][..k];
                    for (j, d) in dcol.iter_mut().enumerate() {
                        *d = t0 + j as i64 * p;
                    }
                    self.ni[*dst as usize].set_range(0, k, false);
                }
                Instr::Mov { src, dst } => match (src.class, dst.class) {
                    (Class::F, Class::F) => {
                        let (d, h, t_) = split_dst(&mut self.f, cap, dst.idx);
                        d[..k].copy_from_slice(&pick(h, t_, cap, dst.idx, src.idx)[..k]);
                        self.scratch.copy_from(&self.nf[src.idx as usize], k);
                        std::mem::swap(&mut self.nf[dst.idx as usize], &mut self.scratch);
                    }
                    (Class::I, Class::I) => {
                        let (d, h, t_) = split_dst(&mut self.i, cap, dst.idx);
                        d[..k].copy_from_slice(&pick(h, t_, cap, dst.idx, src.idx)[..k]);
                        self.scratch.copy_from(&self.ni[src.idx as usize], k);
                        std::mem::swap(&mut self.ni[dst.idx as usize], &mut self.scratch);
                    }
                    (Class::B, Class::B) => {
                        let (d, h, t_) = split_dst(&mut self.b, cap, dst.idx);
                        d[..k].copy_from_slice(&pick(h, t_, cap, dst.idx, src.idx)[..k]);
                        self.scratch.copy_from(&self.nb[src.idx as usize], k);
                        std::mem::swap(&mut self.nb[dst.idx as usize], &mut self.scratch);
                    }
                    _ => unreachable!("mixed-class Mov in batched body"),
                },
                Instr::ArithF { op, a, b, dst } => {
                    // Branch-free like the scalar float arm: compute on
                    // every lane (garbage included), φ rides the mask.
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let y = pick(h, t_, cap, *dst, *b);
                    arith_f_lanes(*op, &mut d[..k], &x[..k], &y[..k]);
                    self.scratch.set_or(&self.nf[*a as usize], &self.nf[*b as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::ArithFC { op, a, c, dst, rev } => {
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let (d, x, c) = (&mut d[..k], &x[..k], *c);
                    match (op, rev) {
                        (ArithOp::Add, _) => lanes1(d, x, |v| v + c),
                        (ArithOp::Sub, false) => lanes1(d, x, |v| v - c),
                        (ArithOp::Sub, true) => lanes1(d, x, |v| c - v),
                        (ArithOp::Mul, _) => lanes1(d, x, |v| v * c),
                        (ArithOp::Div, false) => lanes1(d, x, |v| v / c),
                        (ArithOp::Div, true) => lanes1(d, x, |v| c / v),
                        (ArithOp::Rem, false) => lanes1(d, x, |v| v % c),
                        (ArithOp::Rem, true) => lanes1(d, x, |v| c % v),
                        (ArithOp::Pow, false) => lanes1(d, x, |v| v.powf(c)),
                        (ArithOp::Pow, true) => lanes1(d, x, |v| c.powf(v)),
                        (ArithOp::Min, _) => lanes1(d, x, |v| v.min(c)),
                        (ArithOp::Max, _) => lanes1(d, x, |v| v.max(c)),
                    }
                    self.scratch.copy_from(&self.nf[*a as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::MulAddF { x, y, z, dst } => {
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let (a, b, c) = (
                        pick(h, t_, cap, *dst, *x),
                        pick(h, t_, cap, *dst, *y),
                        pick(h, t_, cap, *dst, *z),
                    );
                    // Separate multiply-then-add, not FMA — rounding must
                    // match the scalar tier bit for bit.
                    for j in 0..k {
                        d[j] = a[j] * b[j] + c[j];
                    }
                    self.scratch.set_or(&self.nf[*x as usize], &self.nf[*y as usize], k);
                    self.scratch.or_with(&self.nf[*z as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::MulAddFC { x, y, c, dst } => {
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let (a, b) = (pick(h, t_, cap, *dst, *x), pick(h, t_, cap, *dst, *y));
                    let c = *c;
                    for j in 0..k {
                        d[j] = a[j] * b[j] + c;
                    }
                    self.scratch.set_or(&self.nf[*x as usize], &self.nf[*y as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::ArithI { op, a, b, dst } => {
                    let (d, h, t_) = split_dst(&mut self.i, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let y = pick(h, t_, cap, *dst, *b);
                    self.scratch.set_or(&self.ni[*a as usize], &self.ni[*b as usize], k);
                    match op {
                        // Wrapping ops cannot trap: compute on garbage
                        // lanes branch-free, mask rides.
                        ArithOp::Add => lanes2(&mut d[..k], &x[..k], &y[..k], i64::wrapping_add),
                        ArithOp::Sub => lanes2(&mut d[..k], &x[..k], &y[..k], i64::wrapping_sub),
                        ArithOp::Mul => lanes2(&mut d[..k], &x[..k], &y[..k], i64::wrapping_mul),
                        ArithOp::Min => lanes2(&mut d[..k], &x[..k], &y[..k], i64::min),
                        ArithOp::Max => lanes2(&mut d[..k], &x[..k], &y[..k], i64::max),
                        // Trapping ops run only on lanes the scalar tier
                        // would run them on (φ lanes hold garbage that
                        // could divide by zero or overflow).
                        ArithOp::Div | ArithOp::Rem | ArithOp::Pow => {
                            for j in 0..k {
                                if !self.scratch.get(j) {
                                    match op.apply_i(x[j], y[j]) {
                                        Some(r) => d[j] = r,
                                        None => self.scratch.set(j, true),
                                    }
                                }
                            }
                        }
                    }
                    std::mem::swap(&mut self.ni[*dst as usize], &mut self.scratch);
                }
                Instr::ArithIC { op, a, c, dst, rev } => {
                    let (d, h, t_) = split_dst(&mut self.i, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    self.scratch.copy_from(&self.ni[*a as usize], k);
                    let c = *c;
                    match (op, rev) {
                        (ArithOp::Add, _) => lanes1(&mut d[..k], &x[..k], |v| v.wrapping_add(c)),
                        (ArithOp::Sub, false) => {
                            lanes1(&mut d[..k], &x[..k], |v| v.wrapping_sub(c));
                        }
                        (ArithOp::Sub, true) => lanes1(&mut d[..k], &x[..k], |v| c.wrapping_sub(v)),
                        (ArithOp::Mul, _) => lanes1(&mut d[..k], &x[..k], |v| v.wrapping_mul(c)),
                        (ArithOp::Min, _) => lanes1(&mut d[..k], &x[..k], |v| v.min(c)),
                        (ArithOp::Max, _) => lanes1(&mut d[..k], &x[..k], |v| v.max(c)),
                        (ArithOp::Div | ArithOp::Rem | ArithOp::Pow, rev) => {
                            for j in 0..k {
                                if !self.scratch.get(j) {
                                    let r = if *rev {
                                        op.apply_i(c, x[j])
                                    } else {
                                        op.apply_i(x[j], c)
                                    };
                                    match r {
                                        Some(r) => d[j] = r,
                                        None => self.scratch.set(j, true),
                                    }
                                }
                            }
                        }
                    }
                    std::mem::swap(&mut self.ni[*dst as usize], &mut self.scratch);
                }
                Instr::CmpF { op, a, b, dst } => {
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    let x = &self.f[*a as usize * cap..][..k];
                    let y = &self.f[*b as usize * cap..][..k];
                    cmp_lanes(*op, d, x, y);
                    self.nb[*dst as usize].set_or(&self.nf[*a as usize], &self.nf[*b as usize], k);
                }
                Instr::CmpI { op, a, b, dst } => {
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    let x = &self.i[*a as usize * cap..][..k];
                    let y = &self.i[*b as usize * cap..][..k];
                    cmp_lanes(*op, d, x, y);
                    self.nb[*dst as usize].set_or(&self.ni[*a as usize], &self.ni[*b as usize], k);
                }
                Instr::CmpB { op, a, b, dst } => {
                    let (d, h, t_) = split_dst(&mut self.b, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let y = pick(h, t_, cap, *dst, *b);
                    cmp_lanes(*op, &mut d[..k], &x[..k], &y[..k]);
                    self.scratch.set_or(&self.nb[*a as usize], &self.nb[*b as usize], k);
                    std::mem::swap(&mut self.nb[*dst as usize], &mut self.scratch);
                }
                Instr::CmpFC { op, a, c, dst } => {
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    let x = &self.f[*a as usize * cap..][..k];
                    cmp_lanes_c(*op, d, x, *c);
                    self.nb[*dst as usize].copy_from(&self.nf[*a as usize], k);
                }
                Instr::CmpIC { op, a, c, dst } => {
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    let x = &self.i[*a as usize * cap..][..k];
                    cmp_lanes_c(*op, d, x, *c);
                    self.nb[*dst as usize].copy_from(&self.ni[*a as usize], k);
                }
                Instr::EqF { neg, a, b, dst } => {
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    let x = &self.f[*a as usize * cap..][..k];
                    let y = &self.f[*b as usize * cap..][..k];
                    let neg = *neg;
                    // Bitwise equality, like the scalar EqF / Value::same.
                    lanes2(d, x, y, |p: f64, q: f64| (p.to_bits() == q.to_bits()) != neg);
                    self.nb[*dst as usize].set_or(&self.nf[*a as usize], &self.nf[*b as usize], k);
                }
                Instr::EqI { neg, a, b, dst } => {
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    let x = &self.i[*a as usize * cap..][..k];
                    let y = &self.i[*b as usize * cap..][..k];
                    let neg = *neg;
                    lanes2(d, x, y, |p: i64, q: i64| (p == q) != neg);
                    self.nb[*dst as usize].set_or(&self.ni[*a as usize], &self.ni[*b as usize], k);
                }
                Instr::EqB { neg, a, b, dst } => {
                    let (d, h, t_) = split_dst(&mut self.b, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let y = pick(h, t_, cap, *dst, *b);
                    let neg = *neg;
                    lanes2(&mut d[..k], &x[..k], &y[..k], |p: bool, q: bool| (p == q) != neg);
                    self.scratch.set_or(&self.nb[*a as usize], &self.nb[*b as usize], k);
                    std::mem::swap(&mut self.nb[*dst as usize], &mut self.scratch);
                }
                Instr::AndB { a, b, dst } => {
                    let (d, h, t_) = split_dst(&mut self.b, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let y = pick(h, t_, cap, *dst, *b);
                    let (ma, mb) = (&self.nb[*a as usize], &self.nb[*b as usize]);
                    if ma.none_null(k) && mb.none_null(k) {
                        // One branch per 64 lanes bought the branch-free arm.
                        lanes2(&mut d[..k], &x[..k], &y[..k], |p, q| p && q);
                        self.scratch.set_range(0, k, false);
                    } else {
                        for j in 0..k {
                            let (xn, yn) = (ma.get(j), mb.get(j));
                            // Kleene: false ∧ φ = false.
                            if (!xn && !x[j]) || (!yn && !y[j]) {
                                d[j] = false;
                                self.scratch.set(j, false);
                            } else if !xn && !yn {
                                d[j] = true;
                                self.scratch.set(j, false);
                            } else {
                                self.scratch.set(j, true);
                            }
                        }
                    }
                    std::mem::swap(&mut self.nb[*dst as usize], &mut self.scratch);
                }
                Instr::OrB { a, b, dst } => {
                    let (d, h, t_) = split_dst(&mut self.b, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    let y = pick(h, t_, cap, *dst, *b);
                    let (ma, mb) = (&self.nb[*a as usize], &self.nb[*b as usize]);
                    if ma.none_null(k) && mb.none_null(k) {
                        lanes2(&mut d[..k], &x[..k], &y[..k], |p, q| p || q);
                        self.scratch.set_range(0, k, false);
                    } else {
                        for j in 0..k {
                            let (xn, yn) = (ma.get(j), mb.get(j));
                            // Kleene: true ∨ φ = true.
                            if (!xn && x[j]) || (!yn && y[j]) {
                                d[j] = true;
                                self.scratch.set(j, false);
                            } else if !xn && !yn {
                                d[j] = false;
                                self.scratch.set(j, false);
                            } else {
                                self.scratch.set(j, true);
                            }
                        }
                    }
                    std::mem::swap(&mut self.nb[*dst as usize], &mut self.scratch);
                }
                Instr::NotB { a, dst } => {
                    let (d, h, t_) = split_dst(&mut self.b, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    lanes1(&mut d[..k], &x[..k], |p: bool| !p);
                    self.scratch.copy_from(&self.nb[*a as usize], k);
                    std::mem::swap(&mut self.nb[*dst as usize], &mut self.scratch);
                }
                Instr::NegF { a, dst } => {
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    lanes1(&mut d[..k], &x[..k], |v: f64| -v);
                    self.scratch.copy_from(&self.nf[*a as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::AbsF { a, dst } => {
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    lanes1(&mut d[..k], &x[..k], f64::abs);
                    self.scratch.copy_from(&self.nf[*a as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::SqrtF { a, dst } => {
                    let (d, h, t_) = split_dst(&mut self.f, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    lanes1(&mut d[..k], &x[..k], f64::sqrt);
                    self.scratch.copy_from(&self.nf[*a as usize], k);
                    std::mem::swap(&mut self.nf[*dst as usize], &mut self.scratch);
                }
                Instr::NegI { a, dst } => {
                    let (d, h, t_) = split_dst(&mut self.i, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    self.scratch.copy_from(&self.ni[*a as usize], k);
                    // `-i64::MIN` traps in debug: φ-lane garbage must not
                    // reach it, so negate only live lanes.
                    if self.scratch.none_null(k) {
                        lanes1(&mut d[..k], &x[..k], |v: i64| -v);
                    } else {
                        for j in 0..k {
                            if !self.scratch.get(j) {
                                d[j] = -x[j];
                            }
                        }
                    }
                    std::mem::swap(&mut self.ni[*dst as usize], &mut self.scratch);
                }
                Instr::AbsI { a, dst } => {
                    let (d, h, t_) = split_dst(&mut self.i, cap, *dst);
                    let x = pick(h, t_, cap, *dst, *a);
                    self.scratch.copy_from(&self.ni[*a as usize], k);
                    if self.scratch.none_null(k) {
                        lanes1(&mut d[..k], &x[..k], i64::abs);
                    } else {
                        for j in 0..k {
                            if !self.scratch.get(j) {
                                d[j] = x[j].abs();
                            }
                        }
                    }
                    std::mem::swap(&mut self.ni[*dst as usize], &mut self.scratch);
                }
                Instr::I2F { a, dst } => {
                    let d = &mut self.f[*dst as usize * cap..][..k];
                    let x = &self.i[*a as usize * cap..][..k];
                    lanes1(d, x, |v: i64| v as f64);
                    self.nf[*dst as usize].copy_from(&self.ni[*a as usize], k);
                }
                Instr::F2I { a, dst } => {
                    let d = &mut self.i[*dst as usize * cap..][..k];
                    let x = &self.f[*a as usize * cap..][..k];
                    // Saturating cast: safe on φ-lane garbage, mask rides.
                    lanes1(d, x, |v: f64| v as i64);
                    self.ni[*dst as usize].copy_from(&self.nf[*a as usize], k);
                }
                Instr::IsNull { a, dst } => {
                    let mask = match a.class {
                        Class::F => &self.nf[a.idx as usize],
                        Class::I => &self.ni[a.idx as usize],
                        Class::B => &self.nb[a.idx as usize],
                        Class::V => unreachable!("V register in batched body"),
                    };
                    let d = &mut self.b[*dst as usize * cap..][..k];
                    if mask.none_null(k) {
                        d.fill(false);
                    } else if mask.all_null(k) {
                        d.fill(true);
                    } else {
                        for (j, d) in d.iter_mut().enumerate() {
                            *d = mask.get(j);
                        }
                    }
                    self.nb[*dst as usize].set_range(0, k, false);
                }
                Instr::Select { cond, t, f, dst } => {
                    let ccol = &self.b[*cond as usize * cap..];
                    let cmask = &self.nb[*cond as usize];
                    match dst.class {
                        Class::F => {
                            let (d, h, t_) = split_dst(&mut self.f, cap, dst.idx);
                            let src = |r: Option<Reg>| {
                                r.map(|r| {
                                    (pick(h, t_, cap, dst.idx, r.idx), &self.nf[r.idx as usize])
                                })
                            };
                            select_lanes(k, ccol, cmask, src(*t), src(*f), d, &mut self.scratch);
                            std::mem::swap(&mut self.nf[dst.idx as usize], &mut self.scratch);
                        }
                        Class::I => {
                            let (d, h, t_) = split_dst(&mut self.i, cap, dst.idx);
                            let src = |r: Option<Reg>| {
                                r.map(|r| {
                                    (pick(h, t_, cap, dst.idx, r.idx), &self.ni[r.idx as usize])
                                })
                            };
                            select_lanes(k, ccol, cmask, src(*t), src(*f), d, &mut self.scratch);
                            std::mem::swap(&mut self.ni[dst.idx as usize], &mut self.scratch);
                        }
                        Class::B => {
                            let (d, h, t_) = split_dst(&mut self.b, cap, dst.idx);
                            let src = |r: Option<Reg>| {
                                r.map(|r| {
                                    (pick(h, t_, cap, dst.idx, r.idx), &self.nb[r.idx as usize])
                                })
                            };
                            // `cond` lives in the same file as the `B`
                            // destination; the gate proved them distinct.
                            let ccol = pick(h, t_, cap, dst.idx, *cond);
                            select_lanes(k, ccol, cmask, src(*t), src(*f), d, &mut self.scratch);
                            std::mem::swap(&mut self.nb[dst.idx as usize], &mut self.scratch);
                        }
                        Class::V => unreachable!("V register in batched body"),
                    }
                }
                Instr::ConstV { .. }
                | Instr::Box { .. }
                | Instr::BinV { .. }
                | Instr::UnV { .. }
                | Instr::Field { .. }
                | Instr::MakeTuple { .. }
                | Instr::Jump { .. }
                | Instr::Branch { .. }
                | Instr::BranchV { .. } => {
                    unreachable!("instruction rejected by the batch gate")
                }
            }
        }
    }
}

#[cfg(test)]
impl BatchCtx {
    /// [`TypedCtx::poison`] for the columns: every lane of every register
    /// but the prelude's.
    pub(super) fn poison(&mut self, tp: &TypedProgram, null: bool) {
        let keep: Vec<Reg> = tp.prelude_regs().collect();
        let kept = |class, idx: usize| keep.contains(&Reg { class, idx: idx as u16 });
        let cap = self.cap;
        let flag = |m: &mut NullMask| if null { m.set_all() } else { m.clear_all() };
        for r in (0..self.nf.len()).filter(|&r| !kept(Class::F, r)) {
            self.f[r * cap..][..cap].fill(f64::NAN);
            flag(&mut self.nf[r]);
        }
        for r in (0..self.ni.len()).filter(|&r| !kept(Class::I, r)) {
            self.i[r * cap..][..cap].fill(i64::MIN);
            flag(&mut self.ni[r]);
        }
        for r in (0..self.nb.len()).filter(|&r| !kept(Class::B, r)) {
            self.b[r * cap..][..cap].fill(true);
            flag(&mut self.nb[r]);
        }
        flag(&mut self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_lanes_three_way() {
        let cond = [true, false, true, false];
        let mut cmask = NullMask::new(4);
        cmask.clear_all();
        cmask.set(3, true); // φ condition → φ result
        let tcol = [1.0, 2.0, 3.0, 4.0];
        let mut tmask = NullMask::new(4);
        tmask.clear_all();
        tmask.set(2, true); // branch value itself φ
        let mut d = [0.0f64; 4];
        let mut dmask = NullMask::new(4);
        select_lanes(
            4,
            &cond,
            &cmask,
            Some((&tcol[..], &tmask)),
            None, // else-branch is φ
            &mut d,
            &mut dmask,
        );
        assert_eq!(d[0], 1.0);
        assert!(!dmask.get(0));
        assert!(dmask.get(1), "false cond with None else-branch is φ");
        assert!(dmask.get(2), "selected branch was φ");
        assert!(dmask.get(3), "φ cond is φ");
    }

    #[test]
    fn split_dst_resolves_columns() {
        let mut file: Vec<i64> = (0..12).collect(); // 3 columns × cap 4
        let (d, h, t) = split_dst(&mut file, 4, 1);
        assert_eq!(d, &[4, 5, 6, 7]);
        assert_eq!(pick(h, t, 4, 1, 0), &[0, 1, 2, 3]);
        assert_eq!(pick(h, t, 4, 1, 2), &[8, 9, 10, 11]);
    }

    #[test]
    fn arith_lanes_match_scalar_ops() {
        let a = [1.0, -2.0, 3.5, f64::NAN];
        let b = [0.5, 4.0, -1.0, 2.0];
        for op in [
            ArithOp::Add,
            ArithOp::Sub,
            ArithOp::Mul,
            ArithOp::Div,
            ArithOp::Rem,
            ArithOp::Pow,
            ArithOp::Min,
            ArithOp::Max,
        ] {
            let mut d = [0.0; 4];
            arith_f_lanes(op, &mut d, &a, &b);
            for j in 0..4 {
                let want = op.apply_f(a[j], b[j]);
                assert!(d[j].to_bits() == want.to_bits(), "{op:?} lane {j}: {} vs {want}", d[j]);
            }
        }
    }
}
