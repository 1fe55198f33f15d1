//! Code generation: lowering temporal expressions to executable kernels
//! (paper §6.1).
//!
//! The pipeline is `TempExpr` → executable body → [`Kernel`] (the
//! synthesized change-point-driven loop). Kernel bodies exist in **three
//! tiers**:
//!
//! * the *interpreted* tier ([`Program`]) — a tree of composed closures
//!   matching on the dynamic [`tilt_data::Value`] enum at every node; the
//!   reference semantics;
//! * the *per-tick typed* tier (the `compiled` module, built by
//!   [`lower_typed`]) — the type checker assigns every sub-expression a
//!   static type and the body is monomorphized into register bytecode
//!   over unboxed `f64`/`i64`/`bool` files with an explicit null mask for
//!   φ, falling back to boxed `Value` registers only for `Str`/`Tuple`
//!   subtrees, custom reductions, and genuinely dynamic values;
//! * the *batched* tier (the `batch` module) — the same bytecode executed
//!   over a **run** of grid ticks at once: columnar registers, one
//!   dispatch per instruction per run instead of per tick, word-level
//!   φ masks (one branch per 64 lanes), and plain slice loops the
//!   compiler auto-vectorizes. Only fully typed straight-line bodies
//!   qualify (see `batch::batchable`); everything else transparently
//!   executes per-tick.
//!
//! A kernel run costs what its change points cost. The loop visits every
//! grid tick of a window with content (one snapshot per tick is event
//! identity), but the batched tier slides a window only where a span
//! enters or leaves it and fills the lanes between by copying the lane
//! before; and what a run needs besides its inputs — register files, batch
//! columns, accumulators and rings — is shaped once per kernel per thread
//! and reset, not rebuilt, by every run after (see `kernel::Scratch`).
//!
//! All tiers share one loop skeleton, one slot layout, and one set of
//! incremental reduce runners, so their outputs are byte-identical; the
//! typed tiers simply replace per-tick enum interpretation with typed
//! register traffic, and the batched tier amortizes the remaining
//! dispatch. Snapshot buffers are typed columns end to end
//! ([`tilt_data::SnapshotBuf`]): point cursors and reduce runners read
//! them as slices, a fused window map runs over an entering run of spans
//! as lanes, and a typed root register is appended to the output's typed
//! column without boxing; the interpreter materializes a `Value` per read.
//! See DESIGN.md substitution 1 for how this stands in for the paper's
//! LLVM JIT.

mod batch;
pub(crate) mod compiled;
mod kernel;
mod program;
mod reduce;

pub(crate) use kernel::Scratch;
pub use kernel::{Kernel, KernelProfile};
pub use program::{compile, EvalCtx, EvalFn, MapFn, PointSpec, Program, ReduceSpec};
pub use reduce::ReduceRunner;

use std::collections::HashMap;

use crate::error::Result;
use crate::ir::typeck::TypeInfo;
use crate::ir::Query;

/// Lowers every temporal expression of `query` into an interpreter-tier
/// kernel, in execution (topological) order.
pub fn lower(query: &Query) -> Result<Vec<Kernel>> {
    query.exprs().iter().map(|te| Kernel::new(te, query.name(te.output))).collect()
}

/// Lowers every temporal expression of `query` into a kernel carrying the
/// interpreter body plus the typed register bytecode, in execution
/// (topological) order. `types` must come from [`crate::ir::typecheck`]
/// over this exact query. When `batched` is set, kernels whose bodies pass
/// the batch gate drive the bytecode over runs of ticks; the rest execute
/// per-tick.
///
/// Object register classes thread through the kernel chain: a kernel whose
/// body stayed dynamic (or whose output type is genuinely runtime-varying)
/// produces a `V`-classed object, and downstream kernels read it through
/// boxed registers — so fallback is per-subtree, never whole-query.
pub fn lower_typed(query: &Query, types: &TypeInfo, batched: bool) -> Result<Vec<Kernel>> {
    let mut classes: HashMap<crate::ir::TObjId, compiled::Class> = HashMap::new();
    for &input in query.inputs() {
        let class = types.object_type(input).map_or(compiled::Class::V, compiled::Class::of_type);
        classes.insert(input, class);
    }
    let mut kernels = Vec::with_capacity(query.exprs().len());
    for te in query.exprs() {
        let kernel = Kernel::with_types(te, query.name(te.output), types, &classes, batched)?;
        classes.insert(te.output, kernel.output_class());
        kernels.push(kernel);
    }
    Ok(kernels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{DataType, Expr, ReduceOp, TDom};

    #[test]
    fn lower_produces_one_kernel_per_expression() {
        let mut b = Query::builder();
        let input = b.input("in", DataType::Float);
        let avg =
            b.temporal("avg", TDom::every_tick(), Expr::reduce_window(ReduceOp::Mean, input, 10));
        let out = b.temporal("out", TDom::every_tick(), Expr::at(avg).mul(Expr::c(2.0)));
        let q = b.finish(out).unwrap();
        let kernels = lower(&q).unwrap();
        assert_eq!(kernels.len(), 2);
        assert_eq!(kernels[0].name, "avg");
        assert_eq!(kernels[1].dependencies(), vec![avg]);
    }
}
