//! A typed kernel IR with precision-rewriting passes, static analyses, and
//! a precision-faithful interpreter.
//!
//! This crate is the "compiler half" of the PreScaler (CGO'20)
//! reproduction. The paper transforms OpenCL kernels with LLVM; here the
//! same transformations are expressed over a small structured IR:
//!
//! * [`ast`] — kernels, parameters, statements, expressions;
//! * [`dsl`] — a builder DSL so kernels read close to OpenCL C;
//! * [`typeck`] — the kernel checker: type checking (also the
//!   post-condition of every pass) and verification in one walk;
//! * [`passes`] — memory-object retyping and in-kernel cast insertion;
//! * [`interp`] — functional execution in true binary16/32/64 arithmetic,
//!   with exact dynamic operation counts;
//! * [`vm`] — a bytecode compiler and VM, bit-identical to the interpreter
//!   (outputs and operation counts) and much faster;
//! * [`analysis`] — the disjoint-access analysis that lets the VM run a
//!   launch in parallel chunks and its rows in lock-step blocks;
//! * [`range`] — forward value-range dataflow (interval arithmetic with
//!   widening at loop heads) proving precision-safety verdicts;
//! * [`verify`] — the verifier's typed diagnostics and lint rules, run
//!   before kernel compilation;
//! * [`print`](mod@print) — OpenCL-C-like pretty-printing.
//!
//! # Example
//!
//! ```
//! use prescaler_ir::dsl::*;
//! use prescaler_ir::{Access, FloatVec, Launch, Precision};
//! use prescaler_ir::interp::{run_kernel, BufferMap};
//!
//! // y[i] = a * x[i] + y[i], computed at whatever precision the buffers use.
//! let k = kernel("saxpy")
//!     .buffer("x", Precision::Double, Access::Read)
//!     .buffer("y", Precision::Double, Access::ReadWrite)
//!     .float_param_like("a", "x")
//!     .body(vec![
//!         let_("i", global_id(0)),
//!         store("y", var("i"), var("a") * load("x", var("i")) + load("y", var("i"))),
//!     ]);
//! prescaler_ir::typeck::check_kernel(&k)?;
//!
//! let mut bufs = BufferMap::new();
//! bufs.insert("x".into(), FloatVec::from_f64_slice(&[1.0, 2.0], Precision::Double));
//! bufs.insert("y".into(), FloatVec::from_f64_slice(&[10.0, 20.0], Precision::Double));
//! let counts = run_kernel(&k, &mut bufs, &Launch::one_d(2).arg_float("a", 3.0))?;
//! assert_eq!(bufs["y"].get(1), 26.0);
//! assert_eq!(counts.at(Precision::Double).mul, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod array;
pub mod ast;
pub mod counts;
pub mod dsl;
pub mod interp;
pub mod parse;
pub mod passes;
pub mod print;
pub mod range;
pub mod typeck;
pub mod types;
pub mod value;
pub mod verify;
pub mod vm;

pub use analysis::ParallelSafety;
pub use array::FloatVec;
pub use ast::{Access, Expr, Ident, Kernel, Param, Program, Stmt, TypeRef};
pub use counts::{OpCounts, PrecCounts};
pub use interp::{ArgValue, BufferMap, ExecError, Launch};
pub use parse::{parse_kernel, parse_program, ParseError};
pub use range::{
    analyze_kernel, verdict_for, Interval, LaunchBounds, PrecisionVerdict, ScalarBound,
    StoreSummary, UnsafeReason, ValueRange,
};
pub use types::{Precision, ScalarType};
pub use value::{CmpOp, FloatBinOp, Scalar, UnaryFn};
pub use verify::{verify_kernel, verify_program, Severity, VerifyDiagnostic};
