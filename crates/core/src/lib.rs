//! `tilt-core` — the paper's primary contribution: the TiLT intermediate
//! representation, its optimizing compiler, and the parallel runtime.
//!
//! The crate is organized as the compilation pipeline of Fig. 3:
//!
//! 1. [`ir`] — queries are *written* (usually by `tilt-query`'s frontend) as
//!    temporal expressions over unbounded time domains;
//! 2. [`analysis`] — boundary resolution infers, from temporal lineage, how
//!    much input history each output interval needs (paper §5.1);
//! 3. [`opt`] — IR-to-IR optimization, chiefly operator fusion across
//!    pipeline breakers (paper §5.2);
//! 4. [`codegen`] — temporal expressions are lowered to loop kernels over
//!    snapshot buffers with incremental reduction state (paper §6.1).
//!    Kernel bodies carry three execution tiers ([`ExecTier`]): typed
//!    register bytecode over unboxed `f64`/`i64`/`bool` files run over
//!    runs of grid ticks at once (batched, the default) or once per tick
//!    (per-tick, with per-subtree fallback to boxed `Value` operations for
//!    `Str`/`Tuple` and custom reductions), and the closure-tree `Value`
//!    interpreter, all kept byte-identical for differential testing;
//! 5. [`exec`] — kernels run serially, data-parallel over boundary-resolved
//!    partitions, or in batched streaming mode (paper §6.2);
//! 6. [`sharing`] — queries over the same streams merge into a
//!    [`QueryGroup`] that executes shared kernel prefixes once. Streaming
//!    goes through a group session; one query streams as a group of one
//!    ([`SharedStreamSession`]).
//!
//! # Quick start
//!
//! ```
//! use tilt_core::ir::{DataType, Expr, Query, ReduceOp, TDom};
//! use tilt_core::Compiler;
//! use tilt_data::{Event, SnapshotBuf, Time, TimeRange, Value};
//!
//! // ~avg[t] = ⊕(mean, ~stock[t-10 : t])
//! let mut b = Query::builder();
//! let stock = b.input("stock", DataType::Float);
//! let avg = b.temporal("avg10", TDom::every_tick(),
//!     Expr::reduce_window(ReduceOp::Mean, stock, 10));
//! let query = b.finish(avg).unwrap();
//!
//! let compiled = Compiler::new().compile(&query).unwrap();
//! let events: Vec<Event<tilt_data::Value>> =
//!     (1..=20).map(|t| Event::point(Time::new(t), Value::Float(t as f64))).collect();
//! let range = TimeRange::new(Time::new(0), Time::new(20));
//! let input = SnapshotBuf::from_events(&events, range);
//! let out = compiled.run(&[&input], range);
//! assert_eq!(out.value_at(Time::new(20)), Value::Float(15.5)); // mean of 11..=20
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod codegen;
pub mod error;
pub mod exec;
pub mod ir;
pub mod opt;
pub mod sharing;

pub use codegen::KernelProfile;
pub use error::{CompileError, Result};
pub use exec::{CompiledQuery, Compiler, ExecStats, ExecTier, SharedStreamSession};
pub use sharing::{QueryGroup, SharedGroupSession};
