//! A bytecode compiler and virtual machine for kernels.
//!
//! The tree-walking interpreter in [`crate::interp`] is the semantic
//! reference; this module compiles a kernel once into a flat register
//! bytecode that executes the same semantics an order of magnitude faster —
//! which is what makes paper-scale experiments (millions of work-items,
//! dozens of search trials) practical.
//!
//! Equivalence contract (pinned by tests here and across the benchmark
//! suite): for any type-correct kernel, [`CompiledKernel::run`] produces
//! **bit-identical buffer contents and identical [`OpCounts`]** to
//! [`crate::interp::run_kernel`].
//!
//! A launch runs item by item, or — when the disjoint-access proof admits
//! it ([`crate::analysis::WriteSummary::lockstep`]) and rows are wide
//! enough — in lock-step blocks of up to 64 consecutive work-items of one
//! NDRange row, each op dispatched once per block over lane registers.
//! Blocks keep the sequential order, and the proof says no two lanes of a
//! block touch a common element of a stored buffer, so every lane computes
//! what it would alone. A block that hits an error rolls its stores back
//! from an undo log of raw element bits and replays item by item, which
//! reproduces the sequential error and partial writes.
//!
//! The compiler gives each register a lane shape as it emits each op:
//! *uniform*, one value in every lane of a block at one pc
//! (`get_global_id(1)`, scalar arguments, pool constants, ops over uniform
//! registers, loop counters that start uniform); *consecutive*, lane `l`
//! holding lane 0's value plus `l` (`get_global_id(0)` plus a uniform
//! value, loop counters that start consecutive); or *varying*, anything
//! else, every variable a statement assigns included. A block runs an op
//! whose sources are all uniform once, on its group's first lane, and
//! copies the result over the group; decides a branch on a uniform
//! condition from that lane; and moves the elements of a load or store
//! whose index is consecutive as one slice, the span of its active lanes
//! checked against the window once. Debug builds assert the shapes before
//! taking either path.
//!
//! A fused dot-product loop (`Op::DotLoop`) never has an operand index
//! that squares its counter, so each operand's index moves by a fixed
//! stride per trip: a progression. The loop works out its trip count once
//! and checks both ends of each progression against the operand's buffer
//! (a parallel chunk's window of it) once; its trips then read by plain
//! slice indexing. A progression that leaves its window fails the loop
//! before any trip, with the error its first read outside would raise:
//! trips write only registers and an error ends the launch, so nothing
//! else can tell. The loop runs once for a whole block when its active
//! lanes agree on the counter and the bound, each lane with its own
//! progressions: trip by trip, an operand every lane reads at one element
//! is one read, any other a read per lane, and each lane's sum takes its
//! roundings in the sequential trip order. A work-item that runs the loop
//! alone reads both operands in strips of up to 64 trips, one
//! element-type dispatch each, and folds each strip into its sum.
//!
//! A block resolves each float op's precision and operator once per
//! dispatch, never per lane: every lane loop is one generic loop
//! instantiated per precision, or tuple of precisions (a `Prec` marker
//! type each), and per operator. A dot loop picks the lane loop of its
//! product, sum and conversion precisions once per loop, and so does the
//! strip fold of a work-item that runs it alone.
//!
//! Three implementation points matter for the equivalence:
//!
//! * Float registers, in every lane, hold `f64` values that are always
//!   exactly representable at the operand's static precision (integer
//!   operands of float arithmetic are converted at the operation's
//!   precision with one rounding), so computing a binary16/32 operation
//!   by rounding the `f64` inputs is exact. For binary16 `+ - * /` the `f64` result of two
//!   binary16 operands is exact (`+ - *`) or correctly rounded with
//!   53 ≥ 2·11+2 bits (`/`), so one rounding to binary16 gives the
//!   correctly rounded result; NaN results take the `F16` operators so
//!   payloads match. With two NaN operands every precision returns the
//!   left one, quieted, where the hardware would return whichever operand
//!   the compiler ordered first: binary64 arithmetic done inline tests its
//!   result for NaN and applies that rule on a cold path.
//! * Constants and `get_global_id(d ≥ 2)` live in a launch-bound pool:
//!   one register per distinct value, written once when a launch binds
//!   (and broadcast over a block's lanes with the scalar arguments) and
//!   never the destination of an op. Every other register an item writes
//!   before it reads it, so lanes and parallel workers need no other
//!   setup.
//! * Counting is *static per straight-line region*: the compiler
//!   pre-computes each region's [`OpCounts`] delta and the VM adds it once
//!   per execution — in a block, once per lane that reaches it — which is
//!   exact because within a region every counted operation executes
//!   unconditionally.

pub use crate::analysis::ParallelSafety;
use crate::analysis::{self, WriteSummary};
use crate::array::FloatVec;
use crate::ast::{eval_operands, visit_stmts, Expr, Kernel, Param, Scopes, Stmt, TypeRef};
use crate::counts::OpCounts;
use crate::interp::{select_type, ArgValue, BufferMap, ExecError, Launch};
use crate::types::{Precision, ScalarType};
use crate::value::{int_to_float, CmpOp, FloatBinOp, Scalar, UnaryFn};
use prescaler_fp16::F16;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Index of an integer register.
type IReg = u32;
/// Index of a float register.
type FReg = u32;

/// One VM instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    /// Unconditional jump.
    Jump(u32),
    /// Jump when the integer register is zero (false).
    JumpIfFalse { cond: IReg, target: u32 },
    /// `i[dst] = i[src]`.
    IMov { dst: IReg, src: IReg },
    /// `f[dst] = f[src]`.
    FMov { dst: FReg, src: FReg },
    /// Integer arithmetic.
    IBin {
        op: FloatBinOp,
        dst: IReg,
        a: IReg,
        b: IReg,
    },
    /// Integer negate / abs.
    IUn { op: UnaryFn, dst: IReg, a: IReg },
    /// Integer comparison → 0/1.
    ICmp {
        op: CmpOp,
        dst: IReg,
        a: IReg,
        b: IReg,
    },
    /// Float comparison (exact on the f64 representations) → 0/1.
    FCmp {
        op: CmpOp,
        dst: IReg,
        a: FReg,
        b: FReg,
    },
    /// Float arithmetic at a precision.
    FBin {
        prec: Precision,
        op: FloatBinOp,
        dst: FReg,
        a: FReg,
        b: FReg,
    },
    /// Float unary function at a precision.
    FUn {
        prec: Precision,
        op: UnaryFn,
        dst: FReg,
        a: FReg,
    },
    /// Round to a (different) float precision.
    Cvt { prec: Precision, dst: FReg, a: FReg },
    /// i64 → float of the precision, rounded once.
    IToF { prec: Precision, dst: FReg, a: IReg },
    /// Truncating f64 → i64 (C cast semantics).
    FToI { dst: IReg, a: FReg },
    /// `f[dst] = buffers[buf][i[idx]]` widened to f64.
    Load { buf: u16, idx: IReg, dst: FReg },
    /// `buffers[buf][i[idx]] = f[src]` rounded to the element type.
    Store { buf: u16, idx: IReg, src: FReg },
    /// `f[dst] = i[cond] != 0 ? f[a] : f[b]`.
    SelectF {
        cond: IReg,
        dst: FReg,
        a: FReg,
        b: FReg,
    },
    /// `i[dst] = i[cond] != 0 ? i[a] : i[b]`.
    SelectI {
        cond: IReg,
        dst: IReg,
        a: IReg,
        b: IReg,
    },
    /// Add `counts_table[idx]` to the running counters.
    Count { idx: u32 },
    /// End of the work-item.
    Halt,
    // ------------------------------------------------------------------
    // Fused superinstructions, emitted by the compiler where it makes the
    // last op of the sequence each replaces. Each is the exact composition
    // of that sequence — same values, same error behaviour — collapsing
    // the dispatch count of hot loops.
    // ------------------------------------------------------------------
    /// A loop head: `ICmp` + `JumpIfFalse` on its result.
    JumpICmpFalse {
        op: CmpOp,
        a: IReg,
        b: IReg,
        target: u32,
    },
    /// A loop back-edge: `i[dst] = i[a] + imm` (wrapping), then jump.
    IAddImmJump {
        dst: IReg,
        a: IReg,
        imm: i64,
        target: u32,
    },
    /// Row-major indexed load: `f[dst] = buffers[buf][i[a]*i[b] + i[c]]`
    /// (`IBin Mul` + `IBin Add` + `Load` with dead index temporaries).
    LoadMulAdd {
        buf: u16,
        a: IReg,
        b: IReg,
        c: IReg,
        dst: FReg,
    },
    /// Multiply-accumulate: `f[dst] = f[acc] + f[a]*f[b]`, rounding the
    /// product at `pm` and the sum at `pa` — two roundings, exactly as
    /// the unfused `FBin Mul` + `FBin Add` pair (this is *not* an FMA).
    FMulAcc {
        pm: Precision,
        pa: Precision,
        dst: FReg,
        acc: FReg,
        a: FReg,
        b: FReg,
    },
    /// A full dot-product step (`LoadMulAdd` + `LoadMulAdd` + `FMulAcc`,
    /// plus an optional `Cvt` of the sum); the operands live in
    /// `dot_table[idx]` so `Op` stays compact.
    DotStep { idx: u32 },
    /// `Count` folded into the loop back-edge `IAddImmJump`.
    CountAddJump {
        idx: u32,
        dst: IReg,
        a: IReg,
        imm: i32,
        target: u32,
    },
    /// A whole counted dot-product loop (`JumpICmpFalse` to just past the
    /// loop + `DotStep` + `CountAddJump` back to the compare), run
    /// natively; the operands live in `loop_table[idx]`.
    DotLoop { idx: u32 },
}

/// Operands of a fused [`Op::DotStep`]:
/// `f[dst] = f[acc] + buf1[i[a1]*i[b1]+i[c1]] * buf2[i[a2]*i[b2]+i[c2]]`
/// with the product rounded at `pm`, the sum at `pa`, and the sum then
/// converted to `post` (`Double`, the identity, when no `Cvt` was folded).
#[derive(Clone, Copy, Debug, PartialEq)]
struct DotStepArgs {
    pm: Precision,
    pa: Precision,
    post: Precision,
    dst: FReg,
    acc: FReg,
    buf1: u16,
    a1: IReg,
    b1: IReg,
    c1: IReg,
    buf2: u16,
    a2: IReg,
    b2: IReg,
    c2: IReg,
}

/// Operands of a fused [`Op::DotLoop`]: while `i[var] < i[end]`, run
/// `step` (which accumulates in place: its `dst` is its `acc`), tally
/// count site `count`, and add 1 to `i[var]`. No operand index of `step`
/// has the counter as both factors, so each moves by a fixed stride per
/// trip ([`loop_trips`] gives the trip count).
#[derive(Clone, Copy, Debug, PartialEq)]
struct DotLoopArgs {
    var: IReg,
    end: IReg,
    step: DotStepArgs,
    count: u32,
}

impl Op {
    /// Calls `f` on each register the op reads. The dot ops, whose
    /// registers sit in side tables, report none: no block runs them once.
    fn reads(&self, mut f: impl FnMut(Val)) {
        let (i, fl) = (Val::I, Val::F);
        match *self {
            Op::Jump(_) | Op::Count { .. } | Op::Halt | Op::DotStep { .. } | Op::DotLoop { .. } => {
            }
            Op::JumpIfFalse { cond: a, .. }
            | Op::IMov { src: a, .. }
            | Op::IUn { a, .. }
            | Op::IToF { a, .. }
            | Op::Load { idx: a, .. }
            | Op::IAddImmJump { a, .. }
            | Op::CountAddJump { a, .. } => f(i(a)),
            Op::FMov { src: a, .. }
            | Op::FUn { a, .. }
            | Op::Cvt { a, .. }
            | Op::FToI { a, .. } => {
                f(fl(a));
            }
            Op::IBin { a, b, .. } | Op::ICmp { a, b, .. } | Op::JumpICmpFalse { a, b, .. } => {
                f(i(a));
                f(i(b));
            }
            Op::FCmp { a, b, .. } | Op::FBin { a, b, .. } => {
                f(fl(a));
                f(fl(b));
            }
            Op::Store { idx, src, .. } => {
                f(i(idx));
                f(fl(src));
            }
            Op::SelectF { cond, a, b, .. } => {
                f(i(cond));
                f(fl(a));
                f(fl(b));
            }
            Op::SelectI { cond, a, b, .. } => {
                f(i(cond));
                f(i(a));
                f(i(b));
            }
            Op::LoadMulAdd { a, b, c, .. } => {
                f(i(a));
                f(i(b));
                f(i(c));
            }
            Op::FMulAcc { acc, a, b, .. } => {
                f(fl(acc));
                f(fl(a));
                f(fl(b));
            }
        }
    }
}

/// What a register holds across the lanes of a lock-step block that sit
/// at one pc, as the ops the compiler has emitted so far leave it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    /// One value in every lane.
    Uniform,
    /// Lane `l` holds lane 0's value plus `l` (integers only).
    Consecutive,
    /// Anything else.
    Varying,
}

/// Registers of each kind whose lane shapes the compiler tracks; any
/// other varies, as far as the compiler knows.
const SHAPED: usize = 256;

/// Each register's lane shape, as the ops emitted so far leave it. Held
/// inline, so a compile allocates nothing for it.
struct Shapes {
    i: [Shape; SHAPED],
    f: [Shape; SHAPED],
}

impl Shapes {
    /// get_global_id(0) is consecutive and get_global_id(1) uniform; every
    /// other register varies until an op writes it.
    fn new() -> Shapes {
        let mut i = [Shape::Varying; SHAPED];
        i[..2].copy_from_slice(&[Shape::Consecutive, Shape::Uniform]);
        Shapes {
            i,
            f: [Shape::Varying; SHAPED],
        }
    }

    #[inline(always)]
    fn get(&self, v: Val) -> Shape {
        let (file, r) = match v {
            Val::I(r) => (&self.i, r),
            Val::F(r) => (&self.f, r),
        };
        file.get(r as usize).copied().unwrap_or(Shape::Varying)
    }

    #[inline(always)]
    fn set(&mut self, v: Val, shape: Shape) {
        let (file, r) = match v {
            Val::I(r) => (&mut self.i, r),
            Val::F(r) => (&mut self.f, r),
        };
        if let Some(s) = file.get_mut(r as usize) {
            *s = shape;
        }
    }
}

/// How a lock-step block runs one op, from its sources' lane shapes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Run {
    /// Lane by lane.
    Lanes,
    /// Every source is uniform: the op runs on the group's first lane,
    /// then its destination, if any, is copied over the group (a branch
    /// decides for the whole group).
    Once(Option<Val>),
    /// A load or store whose index is consecutive: its span is checked
    /// once, then elements move by position.
    Slice,
}

/// How one kernel parameter binds at launch. Scalar parameters carry the
/// index of their pre-resolved argument slot (computed once at compile
/// time), so launches bind arguments without any name scanning.
#[derive(Clone, Debug, PartialEq)]
enum ParamBind {
    Buffer {
        name: String,
        elem: Precision,
    },
    ScalarInt {
        name: String,
        reg: IReg,
        slot: u32,
    },
    ScalarFloat {
        name: String,
        prec: Precision,
        reg: FReg,
        slot: u32,
    },
}

/// A compiled kernel. Two compiles are equal when their bytecode is: ops,
/// count, dot-step and loop tables, constant pools, parameter bindings and
/// the disjoint-access verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct CompiledKernel {
    name: String,
    ops: Vec<Op>,
    counts_table: Vec<OpCounts>,
    dot_table: Vec<DotStepArgs>,
    loop_table: Vec<DotLoopArgs>,
    /// How a lock-step block runs each op of `ops`.
    runs: Vec<Run>,
    /// Constant pool: registers written once per launch by `bind`.
    int_pool: Vec<(IReg, i64)>,
    float_pool: Vec<(FReg, f64)>,
    params: Vec<ParamBind>,
    /// Launch-argument name → scalar slot, resolved once at compile time.
    arg_slots: HashMap<String, u32>,
    n_arg_slots: u32,
    n_iregs: u32,
    n_fregs: u32,
    /// Disjoint-write verdict, shared by every precision variant of the
    /// kernel; decides whether [`CompiledKernel::run_parallel`] may chunk
    /// the NDRange and whether rows run in lock step.
    safety: Arc<ParallelSafety>,
}

/// Reusable execution state for [`CompiledKernel::run_with_scratch`]:
/// register files (scalar and lane), counter tallies, argument slots, the
/// buffer-binding list, and (for parallel runs) per-chunk worker state.
/// Holding one scratch across launches avoids every per-launch heap
/// allocation; any kernel can run against any scratch.
#[derive(Debug, Default)]
pub struct VmScratch {
    /// The calling thread's executor state; its scalar registers are the
    /// launch-bound prototype parallel workers start from.
    main: Worker,
    bufs: Vec<(String, FloatVec)>,
    args: Vec<Option<ArgValue>>,
    workers: Vec<Worker>,
}

/// One executor's private state: scalar register files (for item-by-item
/// runs and replays), lane registers (for lock-step blocks), the strip
/// buffer of the dot loops a work-item runs alone, and a counter tally.
#[derive(Debug, Default)]
struct Worker {
    iregs: Vec<i64>,
    fregs: Vec<f64>,
    lanes: Lanes,
    strip: Strip,
    hits: Vec<u64>,
}

impl VmScratch {
    /// An empty scratch; storage grows on first use.
    #[must_use]
    pub fn new() -> VmScratch {
        VmScratch::default()
    }

    /// How many times the runs on this scratch ran a fused dot-product
    /// loop once for all the lanes of a lock-step block, rather than lane
    /// by lane (for diagnostics).
    #[must_use]
    pub fn lockstep_dot_loops(&self) -> u64 {
        self.tally(|w| w.lanes.dot_loops)
    }

    /// How many ops the runs on this scratch ran once for a group of
    /// lock-step lanes, all of whose sources were uniform (for
    /// diagnostics).
    #[must_use]
    pub fn uniform_ops(&self) -> u64 {
        self.tally(|w| w.lanes.once)
    }

    /// How many loads and stores the runs on this scratch made for a
    /// group of lock-step lanes over consecutive elements, with one span
    /// check (for diagnostics).
    #[must_use]
    pub fn slice_accesses(&self) -> u64 {
        self.tally(|w| w.lanes.slices)
    }

    /// How many times the runs on this scratch ran a fused dot-product
    /// loop of more than 64 trips for one work-item, in more than one
    /// strip (for diagnostics).
    #[must_use]
    pub fn long_dot_loops(&self) -> u64 {
        self.tally(|w| w.strip.long)
    }

    /// How many times a fused dot-product loop a work-item ran on this
    /// scratch failed before its first trip, because an operand's index
    /// progression left its buffer, or a parallel chunk's window of it
    /// (for diagnostics).
    #[must_use]
    pub fn dot_loop_faults(&self) -> u64 {
        self.tally(|w| w.strip.faults)
    }

    /// The sum of `f` over every executor of this scratch.
    fn tally(&self, f: impl Fn(&Worker) -> u64) -> u64 {
        f(&self.main) + self.workers.iter().map(f).sum::<u64>()
    }
}

/// Moves temporarily-bound buffers back into the caller's map.
fn restore(buffers: &mut BufferMap, bufs: &mut Vec<(String, FloatVec)>) {
    for (name, data) in bufs.drain(..) {
        buffers.insert(name, data);
    }
}

/// Compile-time value location.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Val {
    I(IReg),
    F(FReg),
}

impl Val {
    fn ireg(self) -> IReg {
        match self {
            Val::I(r) => r,
            Val::F(_) => unreachable!("checked: expected an integer value"),
        }
    }

    fn freg(self) -> FReg {
        match self {
            Val::F(r) => r,
            Val::I(_) => unreachable!("checked: expected a float value"),
        }
    }

    /// The register, of either kind.
    fn reg(self) -> u32 {
        match self {
            Val::I(r) | Val::F(r) => r,
        }
    }
}

/// Compiles a kernel to bytecode.
///
/// Kernels that pass [`crate::typeck::check_kernel`] always compile;
/// malformed ones degrade into the same typed [`ExecError`]s the
/// interpreter reports instead of panicking.
///
/// # Errors
///
/// Returns [`ExecError::UnboundVar`], [`ExecError::NotABuffer`], or
/// [`ExecError::KindError`] for constructs the type checker rejects.
pub fn compile_kernel(kernel: &Kernel) -> Result<CompiledKernel, ExecError> {
    let declared: Vec<Precision> = kernel
        .params
        .iter()
        .filter_map(|p| match p {
            Param::Buffer { elem, .. } => Some(*elem),
            Param::Scalar { .. } => None,
        })
        .collect();
    compile_with_safety(
        kernel,
        &declared,
        Arc::new(analysis::parallel_safety(kernel)),
    )
}

/// [`compile_kernel`] of `kernel` with its buffer parameters retyped to
/// `buffers` (one precision per buffer parameter, in parameter order) and
/// the disjoint-access verdict supplied, so that the precision variants of
/// one kernel share one kernel and one analysis. For a kernel that passes
/// [`crate::typeck::check_kernel`] the bytecode is exactly that of
/// `compile_kernel(&retype_buffers(kernel, map))`, where `map` names each
/// buffer's entry of `buffers`: loads, stores, `ElemOf` types and buffer
/// bindings all read the element type from `buffers`, and nothing clones
/// the kernel.
///
/// `safety` must be [`analysis::parallel_safety`] of `kernel`, or of the
/// kernel `kernel` was derived from by
/// [`retype_buffers`](crate::passes::retype_buffers) and
/// [`insert_casts`](crate::passes::insert_casts): the verdict reads no
/// precision, so those agree. Debug builds check it.
///
/// # Errors
///
/// As [`compile_kernel`].
///
/// # Panics
///
/// If `buffers` does not hold exactly one precision per buffer parameter.
pub fn compile_with_safety(
    kernel: &Kernel,
    buffers: &[Precision],
    safety: Arc<ParallelSafety>,
) -> Result<CompiledKernel, ExecError> {
    assert_eq!(
        buffers.len(),
        kernel
            .params
            .iter()
            .filter(|p| matches!(p, Param::Buffer { .. }))
            .count(),
        "kernel `{}` needs one precision per buffer parameter",
        kernel.name
    );
    debug_assert!(
        *safety == analysis::parallel_safety(kernel),
        "kernel `{}` compiled with another kernel's disjoint-access verdict",
        kernel.name
    );
    let mut c = Compiler {
        kernel,
        buffers,
        ops: Vec::with_capacity(32),
        counts_table: Vec::new(),
        dot_table: Vec::new(),
        loop_table: Vec::new(),
        runs: Vec::with_capacity(32),
        shapes: Shapes::new(),
        pending: OpCounts::new(),
        scopes: Scopes::new(),
        next_i: 2,
        next_f: 0,
        mark: (2, 0),
        lanes_only: false,
        params: Vec::new(),
        buf_index: HashMap::new(),
        int_pool: Vec::new(),
        float_pool: Vec::new(),
    };

    let mut arg_slots = HashMap::new();
    let mut n_bufs: u16 = 0;
    let mut n_slots: u32 = 0;
    for p in &kernel.params {
        match p {
            Param::Buffer { name, .. } => {
                // Buffers index the *buffer* binding list, which skips
                // scalar parameters.
                c.buf_index.insert(name.clone(), n_bufs);
                c.params.push(ParamBind::Buffer {
                    name: name.clone(),
                    elem: buffers[usize::from(n_bufs)],
                });
                n_bufs += 1;
            }
            Param::Scalar { name, ty } => {
                let slot = n_slots;
                n_slots += 1;
                arg_slots.insert(name.clone(), slot);
                match c.resolve(ty)? {
                    ScalarType::Int => {
                        let reg = c.alloc_i();
                        c.params.push(ParamBind::ScalarInt {
                            name: name.clone(),
                            reg,
                            slot,
                        });
                        c.shapes.set(Val::I(reg), Shape::Uniform);
                        c.scopes.bind_root(name, (Val::I(reg), ScalarType::Int));
                    }
                    ScalarType::Float(prec) => {
                        let reg = c.alloc_f();
                        c.params.push(ParamBind::ScalarFloat {
                            name: name.clone(),
                            prec,
                            reg,
                            slot,
                        });
                        c.shapes.set(Val::F(reg), Shape::Uniform);
                        c.scopes
                            .bind_root(name, (Val::F(reg), ScalarType::Float(prec)));
                    }
                    ScalarType::Bool => {
                        return Err(ExecError::KindError(format!(
                            "parameter `{name}` declares a boolean type"
                        )));
                    }
                }
            }
        }
    }

    c.block(&kernel.body)?;
    c.flush();
    c.emit(Op::Halt);
    if c.lanes_only {
        c.runs.fill(Run::Lanes);
    }

    Ok(CompiledKernel {
        name: kernel.name.clone(),
        ops: c.ops,
        counts_table: c.counts_table,
        dot_table: c.dot_table,
        loop_table: c.loop_table,
        runs: c.runs,
        int_pool: c.int_pool,
        float_pool: c.float_pool,
        params: c.params,
        arg_slots,
        n_arg_slots: n_slots,
        n_iregs: c.next_i,
        n_fregs: c.next_f,
        safety,
    })
}

/// Compiles a kernel in one pass. Each superinstruction is emitted where
/// the compiler makes the last op of the sequence it replaces, by
/// rewriting the ops just emitted. A fusion consumes only temporaries the
/// current statement allocated, each read once, by the op being made:
/// never a variable's register (a later op may read it) and never a pool
/// register (no op writes one). Jump targets sit only at statement
/// boundaries, so no fused group contains one. Consumed temporaries keep
/// their numbers, unwritten.
struct Compiler<'k> {
    kernel: &'k Kernel,
    /// The variant's element precision of each buffer parameter, in
    /// parameter order.
    buffers: &'k [Precision],
    ops: Vec<Op>,
    counts_table: Vec<OpCounts>,
    dot_table: Vec<DotStepArgs>,
    loop_table: Vec<DotLoopArgs>,
    /// How a lock-step block runs each op of `ops`, worked out as the op
    /// is emitted.
    runs: Vec<Run>,
    shapes: Shapes,
    pending: OpCounts,
    scopes: Scopes<'k, (Val, ScalarType)>,
    next_i: u32,
    next_f: u32,
    /// The first integer and float registers the current statement
    /// allocated: registers from here on are its temporaries, until it
    /// binds a variable (which it does after its last fusion).
    mark: (IReg, FReg),
    /// Whether a statement assigns a parameter, which the type checker
    /// refuses: its register then carries one work-item's value into the
    /// next, so no op may count on its shape, and every op runs lane by
    /// lane.
    lanes_only: bool,
    params: Vec<ParamBind>,
    buf_index: HashMap<String, u16>,
    int_pool: Vec<(IReg, i64)>,
    float_pool: Vec<(FReg, f64)>,
}

impl<'k> Compiler<'k> {
    fn alloc_i(&mut self) -> IReg {
        let r = self.next_i;
        self.next_i += 1;
        r
    }

    fn alloc_f(&mut self) -> FReg {
        let r = self.next_f;
        self.next_f += 1;
        r
    }

    /// The pool register holding integer constant `v`.
    fn int_const(&mut self, v: i64) -> IReg {
        if let Some(&(r, _)) = self.int_pool.iter().find(|&&(_, c)| c == v) {
            return r;
        }
        let r = self.alloc_i();
        self.shapes.set(Val::I(r), Shape::Uniform);
        self.int_pool.push((r, v));
        r
    }

    /// The pool register holding float constant `v` (same bit pattern).
    fn float_const(&mut self, v: f64) -> FReg {
        let bits = v.to_bits();
        if let Some(&(r, _)) = self.float_pool.iter().find(|&&(_, c)| c.to_bits() == bits) {
            return r;
        }
        let r = self.alloc_f();
        self.shapes.set(Val::F(r), Shape::Uniform);
        self.float_pool.push((r, v));
        r
    }

    /// Appends `op`, working out how a lock-step block runs it and the
    /// lane shape of the register it writes. Kept out of line: inlined at
    /// every call site it grew the compiler's code by a sixth, and a
    /// compile that runs between other work fetches all of its code.
    #[inline(never)]
    fn emit(&mut self, op: Op) {
        let run = self.run_of(&op);
        self.ops.push(op);
        self.runs.push(run);
    }

    /// Drops the ops from `len` on, so a fusion can replace them.
    fn truncate(&mut self, len: usize) {
        self.ops.truncate(len);
        self.runs.truncate(len);
    }

    /// How a lock-step block runs `op`, from the lane shapes of the
    /// registers it reads, and the shape its destination takes:
    /// - an op whose sources are all uniform runs once (a store, a count
    ///   site or a jump gains nothing), and its destination is uniform;
    /// - a load whose index is consecutive, or a `LoadMulAdd` whose
    ///   `a*b` is uniform and `c` consecutive, moves a slice, as does a
    ///   store whose index is consecutive;
    /// - gid0 plus (or minus) a uniform value is consecutive, as is a copy
    ///   of a consecutive value or a back-edge's step of a consecutive
    ///   counter;
    /// - any other destination varies.
    fn run_of(&mut self, op: &Op) -> Run {
        use Shape::{Consecutive as C, Uniform as U, Varying as V};
        let i = |r: IReg| self.shapes.get(Val::I(r));
        let f = |r: FReg| self.shapes.get(Val::F(r));
        let all = |sources: &[Shape]| {
            if sources.iter().all(|&s| s == U) {
                U
            } else {
                V
            }
        };
        let once = |uniform: bool| if uniform { Run::Once(None) } else { Run::Lanes };
        let (dst, shape) = match *op {
            Op::Jump(_) | Op::Count { .. } | Op::Halt | Op::DotStep { .. } | Op::DotLoop { .. } => {
                return Run::Lanes;
            }
            Op::Store { idx, .. } => {
                return if i(idx) == C { Run::Slice } else { Run::Lanes };
            }
            Op::JumpIfFalse { cond, .. } => return once(i(cond) == U),
            Op::JumpICmpFalse { a, b, .. } => return once(i(a) == U && i(b) == U),
            Op::IMov { dst, src: a }
            | Op::IAddImmJump { dst, a, .. }
            | Op::CountAddJump { dst, a, .. } => (Val::I(dst), i(a)),
            Op::IBin { op, dst, a, b } => {
                let shape = match (op, i(a), i(b)) {
                    (_, U, U) => U,
                    (FloatBinOp::Add, U, C) | (FloatBinOp::Add | FloatBinOp::Sub, C, U) => C,
                    _ => V,
                };
                (Val::I(dst), shape)
            }
            Op::IUn { dst, a, .. } => (Val::I(dst), all(&[i(a)])),
            Op::ICmp { dst, a, b, .. } => (Val::I(dst), all(&[i(a), i(b)])),
            Op::FCmp { dst, a, b, .. } => (Val::I(dst), all(&[f(a), f(b)])),
            Op::FToI { dst, a } => (Val::I(dst), f(a)),
            Op::SelectI { cond, dst, a, b } => (Val::I(dst), all(&[i(cond), i(a), i(b)])),
            Op::FMov { dst, src: a } | Op::FUn { dst, a, .. } | Op::Cvt { dst, a, .. } => {
                (Val::F(dst), f(a))
            }
            Op::FBin { dst, a, b, .. } => (Val::F(dst), all(&[f(a), f(b)])),
            Op::IToF { dst, a, .. } => (Val::F(dst), all(&[i(a)])),
            Op::SelectF { cond, dst, a, b } => (Val::F(dst), all(&[i(cond), f(a), f(b)])),
            Op::FMulAcc { dst, acc, a, b, .. } => (Val::F(dst), all(&[f(acc), f(a), f(b)])),
            // A load takes its index's shape here; below, a consecutive
            // one makes it a slice of values that vary.
            Op::Load { idx, dst, .. } => (Val::F(dst), i(idx)),
            Op::LoadMulAdd { a, b, c, dst, .. } => {
                (Val::F(dst), if all(&[i(a), i(b)]) == U { i(c) } else { V })
            }
        };
        let run = match (dst, shape) {
            (_, U) => Run::Once(Some(dst)),
            (Val::F(_), C) => Run::Slice,
            _ => Run::Lanes,
        };
        let shape = if matches!(dst, Val::F(_)) && shape == C {
            V
        } else {
            shape
        };
        self.shapes.set(dst, shape);
        run
    }

    /// The variant's element precision of buffer `name`: that of the first
    /// parameter so named, if it is a buffer ([`Kernel::buffer_elem`] of
    /// the retyped kernel).
    fn buffer_elem(&self, name: &str) -> Option<Precision> {
        let mut nth = 0;
        for p in &self.kernel.params {
            match p {
                Param::Buffer { name: n, .. } if n == name => return Some(self.buffers[nth]),
                Param::Buffer { .. } => nth += 1,
                Param::Scalar { name: n, .. } if n == name => return None,
                Param::Scalar { .. } => {}
            }
        }
        None
    }

    /// `ty` resolved against the variant's buffer precisions; a dangling
    /// `ElemOf` is [`ExecError::NotABuffer`], as in the interpreter.
    fn resolve(&self, ty: &TypeRef) -> Result<ScalarType, ExecError> {
        match ty {
            TypeRef::Concrete(t) => Ok(*t),
            TypeRef::ElemOf(buf) => self
                .buffer_elem(buf)
                .map(ScalarType::Float)
                .ok_or_else(|| ExecError::NotABuffer(buf.clone())),
        }
    }

    fn lookup(&self, name: &str) -> Result<(Val, ScalarType), ExecError> {
        self.scopes
            .get(name)
            .copied()
            .ok_or_else(|| ExecError::UnboundVar(name.to_owned()))
    }

    /// Moves the pending straight-line counts into the count table, and
    /// returns their index unless there are none.
    fn take_counts(&mut self) -> Option<u32> {
        if self.pending == OpCounts::new() {
            return None;
        }
        let idx = self.counts_table.len() as u32;
        self.counts_table.push(self.pending);
        self.pending = OpCounts::new();
        Some(idx)
    }

    /// Flushes the pending straight-line counts as a `Count` op.
    fn flush(&mut self) {
        if let Some(idx) = self.take_counts() {
            self.emit(Op::Count { idx });
        }
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch_jump(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::JumpICmpFalse { target: t, .. } => *t = target,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }

    /// Whether `v` is a temporary of the current statement.
    fn is_temp(&self, v: Val) -> bool {
        match v {
            Val::I(r) => r >= self.mark.0,
            Val::F(r) => r >= self.mark.1,
        }
    }

    /// Copies `src` into `dst`, registers of one kind. When `src` is a
    /// temporary the last op just wrote, that op writes `dst` instead,
    /// unless it is a `LoadMulAdd`, which only ever writes a temporary.
    fn mov(&mut self, dst: Val, src: Val) {
        if self.is_temp(src) {
            let written = match (self.ops.last_mut(), src) {
                (Some(Op::DotStep { idx }), Val::F(_)) => {
                    Some(&mut self.dot_table[*idx as usize].dst)
                }
                (
                    Some(
                        Op::IBin { dst, .. }
                        | Op::IUn { dst, .. }
                        | Op::ICmp { dst, .. }
                        | Op::FCmp { dst, .. }
                        | Op::FToI { dst, .. }
                        | Op::SelectI { dst, .. },
                    ),
                    Val::I(_),
                )
                | (
                    Some(
                        Op::FBin { dst, .. }
                        | Op::FUn { dst, .. }
                        | Op::Cvt { dst, .. }
                        | Op::IToF { dst, .. }
                        | Op::Load { dst, .. }
                        | Op::SelectF { dst, .. }
                        | Op::FMulAcc { dst, .. },
                    ),
                    Val::F(_),
                ) => Some(dst),
                _ => None,
            };
            if let Some(written) = written.filter(|w| **w == src.reg()) {
                *written = dst.reg();
                // `dst` takes the temporary's shape, and a uniform op
                // fills `dst` instead.
                self.shapes.set(dst, self.shapes.get(src));
                if let Some(Run::Once(Some(d))) = self.runs.last_mut() {
                    *d = dst;
                }
                return;
            }
        }
        self.emit(match (dst, src) {
            (Val::I(dst), Val::I(src)) => Op::IMov { dst, src },
            (Val::F(dst), Val::F(src)) => Op::FMov { dst, src },
            _ => unreachable!("copies keep their kind"),
        });
    }

    /// `f[dst] = buffers[buf][i[idx]]`: a `LoadMulAdd` when the last two
    /// ops computed the index as `a*b + c` into temporaries.
    fn load(&mut self, buf: u16, idx: IReg, dst: FReg) -> Op {
        if let [.., Op::IBin {
            op: FloatBinOp::Mul,
            dst: t,
            a,
            b,
        }, Op::IBin {
            op: FloatBinOp::Add,
            dst: sum,
            a: x,
            b: y,
        }] = self.ops[..]
        {
            if sum == idx
                && (x == t || y == t)
                && self.is_temp(Val::I(t))
                && self.is_temp(Val::I(sum))
            {
                self.truncate(self.ops.len() - 2);
                // Wrapping add commutes, so either operand slot works.
                let c = if x == t { y } else { x };
                return Op::LoadMulAdd { buf, a, b, c, dst };
            }
        }
        Op::Load { buf, idx, dst }
    }

    /// `f[dst] = f[a] op f[b]` at `prec`. A `+` whose right operand is
    /// the product the last op computed into a temporary is an `FMulAcc`,
    /// keeping both roundings; and a `DotStep` when the product's
    /// operands, in order, are the temporaries the two `LoadMulAdd`s
    /// before it loaded.
    fn fbin(&mut self, prec: Precision, op: FloatBinOp, dst: FReg, a: FReg, b: FReg) -> Op {
        let unfused = Op::FBin {
            prec,
            op,
            dst,
            a,
            b,
        };
        let Some(&Op::FBin {
            prec: pm,
            op: FloatBinOp::Mul,
            dst: t,
            a: x,
            b: y,
        }) = self.ops.last()
        else {
            return unfused;
        };
        if op != FloatBinOp::Add || t != b || !self.is_temp(Val::F(t)) {
            return unfused;
        }
        self.truncate(self.ops.len() - 1);
        if let [.., Op::LoadMulAdd {
            buf: buf1,
            a: a1,
            b: b1,
            c: c1,
            dst: t1,
        }, Op::LoadMulAdd {
            buf: buf2,
            a: a2,
            b: b2,
            c: c2,
            dst: t2,
        }] = self.ops[..]
        {
            if (t1, t2) == (x, y) && self.is_temp(Val::F(t1)) && self.is_temp(Val::F(t2)) {
                self.truncate(self.ops.len() - 2);
                let idx = self.dot_table.len() as u32;
                self.dot_table.push(DotStepArgs {
                    pm,
                    pa: prec,
                    post: Precision::Double,
                    dst,
                    acc: a,
                    buf1,
                    a1,
                    b1,
                    c1,
                    buf2,
                    a2,
                    b2,
                    c2,
                });
                return Op::DotStep { idx };
            }
        }
        Op::FMulAcc {
            pm,
            pa: prec,
            dst,
            acc: a,
            a: x,
            b: y,
        }
    }

    fn block(&mut self, stmts: &'k [Stmt]) -> Result<(), ExecError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn scoped(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        self.scopes.push();
        let r = f(self);
        self.scopes.pop();
        r
    }

    fn stmt(&mut self, stmt: &'k Stmt) -> Result<(), ExecError> {
        self.mark = (self.next_i, self.next_f);
        match stmt {
            Stmt::Let { name, ty, value } => {
                let declared = match ty {
                    Some(t) => Some(self.resolve(t)?),
                    None => None,
                };
                let (mut v, mut t) = self.expr(value, declared.and_then(ScalarType::precision))?;
                if let Some(target) = declared {
                    (v, t) = self.coerce(v, t, target);
                }
                // Copy into a dedicated register so reassignment works.
                let slot = match v {
                    Val::I(_) => Val::I(self.alloc_i()),
                    Val::F(_) => Val::F(self.alloc_f()),
                };
                self.mov(slot, v);
                self.scopes.bind(name, (slot, t));
            }
            Stmt::Assign { name, value } => {
                let (slot, t) = self.lookup(name)?;
                let hint = t.precision();
                let (v, vt) = self.expr(value, hint)?;
                let (v, _) = self.coerce(v, vt, t);
                if matches!(slot, Val::I(_)) != matches!(v, Val::I(_)) {
                    return Err(ExecError::KindError(format!(
                        "assignment changes the kind of `{name}`"
                    )));
                }
                self.mov(slot, v);
                // Written under a branch the lanes disagree on, or in a loop
                // whose trip count differs by lane, a variable holds other
                // values in lanes that meet again at one pc.
                self.shapes.set(slot, Shape::Varying);
                self.lanes_only |= self.params.iter().any(|p| match *p {
                    ParamBind::ScalarInt { reg, .. } => slot == Val::I(reg),
                    ParamBind::ScalarFloat { reg, .. } => slot == Val::F(reg),
                    ParamBind::Buffer { .. } => false,
                });
            }
            Stmt::Store { buf, index, value } => {
                let Some(elem) = self.buffer_elem(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                let (iv, it) = self.expr(index, None)?;
                if it != ScalarType::Int {
                    return Err(ExecError::KindError(format!(
                        "index into `{buf}` must be an integer"
                    )));
                }
                let idx = iv.ireg();
                let (v, vt) = self.expr(value, Some(elem))?;
                if vt == ScalarType::Bool {
                    return Err(ExecError::KindError(format!(
                        "cannot store a boolean into `{buf}`"
                    )));
                }
                // The implicit store conversion is a real convert
                // instruction. `Store` rounds a float to the element type
                // itself; an integer converts to the element type first,
                // rounding once, as the interpreter's does.
                self.pending.count_convert(vt, ScalarType::Float(elem));
                let src = match v {
                    Val::F(r) => r,
                    Val::I(a) => {
                        let dst = self.alloc_f();
                        self.emit(Op::IToF { prec: elem, dst, a });
                        dst
                    }
                };
                self.pending.at_mut(elem).stores += 1;
                let Some(&b) = self.buf_index.get(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                self.emit(Op::Store { buf: b, idx, src });
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let (sv, st) = self.expr(start, None)?;
                let (ev, et) = self.expr(end, None)?;
                if st != ScalarType::Int || et != ScalarType::Int {
                    return Err(ExecError::KindError(format!(
                        "loop bound for `{var}` must be an integer"
                    )));
                }
                let mut e = ev.ireg();
                // Lanes at one pc in the loop share a trip (the lanes at the
                // lowest pc run first, so lanes that leave early wait at
                // the exit), but from the second trip on a variable the
                // body assigns may differ between them: it varies from the
                // loop head on, and so does the counter if the body assigns
                // it (the type checker refuses that).
                let (mut bound_assigned, mut counter_assigned) = (false, false);
                let Compiler { scopes, shapes, .. } = self;
                visit_stmts(body, &mut |s| {
                    let Stmt::Assign { name, .. } = s else {
                        return;
                    };
                    bound_assigned |= matches!(end, Expr::Var(bound) if bound == name);
                    counter_assigned |= name == var;
                    if let Some(&(v, _)) = scopes.get(name) {
                        shapes.set(v, Shape::Varying);
                    }
                });
                // The interpreter reads the bound once: a variable the
                // body assigns is copied at loop entry.
                if bound_assigned {
                    let copy = self.alloc_i();
                    self.emit(Op::IMov { dst: copy, src: e });
                    e = copy;
                }
                let var_reg = self.alloc_i();
                self.mov(Val::I(var_reg), sv);
                if counter_assigned {
                    self.shapes.set(Val::I(var_reg), Shape::Varying);
                }
                self.flush();
                let head = self.here();
                // The compare's result register: fused into the branch, it
                // keeps its number like every consumed temporary.
                self.alloc_i();
                let exit_jump = self.ops.len();
                self.emit(Op::JumpICmpFalse {
                    op: CmpOp::Lt,
                    a: var_reg,
                    b: e,
                    target: u32::MAX,
                });
                // Per-iteration loop bookkeeping (compare + increment).
                self.pending.int_ops += 2;
                self.scoped(|c| {
                    c.scopes.bind(var, (Val::I(var_reg), ScalarType::Int));
                    c.block(body)
                })?;
                // The back-edge carries the body's last count site.
                let back_edge = match self.take_counts() {
                    Some(idx) => Op::CountAddJump {
                        idx,
                        dst: var_reg,
                        a: var_reg,
                        imm: 1,
                        target: head,
                    },
                    None => Op::IAddImmJump {
                        dst: var_reg,
                        a: var_reg,
                        imm: 1,
                        target: head,
                    },
                };
                self.emit(back_edge);
                if !self.fuse_dot_loop(head as usize) {
                    let after = self.here();
                    self.patch_jump(exit_jump, after);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cv, ct) = self.expr(cond, None)?;
                if ct != ScalarType::Bool {
                    return Err(ExecError::KindError(
                        "if condition must be a boolean".to_owned(),
                    ));
                }
                let c = cv.ireg();
                self.flush();
                let else_jump = self.ops.len();
                self.emit(Op::JumpIfFalse {
                    cond: c,
                    target: u32::MAX,
                });
                self.scoped(|cc| cc.block(then_body))?;
                self.flush();
                if else_body.is_empty() {
                    let after = self.here();
                    self.patch_jump(else_jump, after);
                } else {
                    let end_jump = self.ops.len();
                    self.emit(Op::Jump(u32::MAX));
                    let else_start = self.here();
                    self.patch_jump(else_jump, else_start);
                    self.scoped(|cc| cc.block(else_body))?;
                    self.flush();
                    let after = self.here();
                    self.patch_jump(end_jump, after);
                }
            }
        }
        Ok(())
    }

    /// Collapses the loop whose head is at `head`, just compiled, into one
    /// `DotLoop` when its body is one dot step accumulating in place, so
    /// that only its counter and its accumulator change, and no operand
    /// index squares the counter, so that each moves by a fixed stride.
    /// The step moves from the dot table into the loop's. Returns whether
    /// it fused.
    fn fuse_dot_loop(&mut self, head: usize) -> bool {
        let [Op::JumpICmpFalse { a: var, b: end, .. }, Op::DotStep { idx }, Op::CountAddJump { idx: count, .. }] =
            self.ops[head..]
        else {
            return false;
        };
        let step = self.dot_table[idx as usize];
        let square = |a: IReg, b: IReg| a == var && b == var;
        if step.dst != step.acc || square(step.a1, step.b1) || square(step.a2, step.b2) {
            return false;
        }
        // The body's one op is the last dot step made.
        debug_assert_eq!(idx as usize + 1, self.dot_table.len());
        self.dot_table.pop();
        self.truncate(head);
        let idx = self.loop_table.len() as u32;
        self.loop_table.push(DotLoopArgs {
            var,
            end,
            step,
            count,
        });
        self.emit(Op::DotLoop { idx });
        true
    }

    /// Coerces a value of type `t` to a target type, emitting a
    /// conversion where [`OpCounts::count_convert`] counts one.
    fn coerce(&mut self, v: Val, t: ScalarType, target: ScalarType) -> (Val, ScalarType) {
        if !self.pending.count_convert(t, target) {
            return (v, t);
        }
        let converted = match target {
            ScalarType::Float(prec) => {
                let dst = self.alloc_f();
                match v {
                    Val::I(a) => self.emit(Op::IToF { prec, dst, a }),
                    // A temporary dot step's sum takes the conversion as
                    // the step's third rounding.
                    Val::F(a) => match self.ops.last() {
                        Some(&Op::DotStep { idx })
                            if self.is_temp(v)
                                && self.dot_table[idx as usize].dst == a
                                && self.dot_table[idx as usize].post == Precision::Double =>
                        {
                            let step = &mut self.dot_table[idx as usize];
                            step.post = prec;
                            step.dst = dst;
                        }
                        _ => self.emit(Op::Cvt { prec, dst, a }),
                    },
                }
                Val::F(dst)
            }
            _ => {
                let dst = self.alloc_i();
                self.emit(Op::FToI { dst, a: v.freg() });
                Val::I(dst)
            }
        };
        (converted, target)
    }

    /// Compiles an expression, mirroring `Interp::eval`'s hint threading.
    #[allow(clippy::too_many_lines)]
    fn expr(
        &mut self,
        e: &'k Expr,
        hint: Option<Precision>,
    ) -> Result<(Val, ScalarType), ExecError> {
        match e {
            Expr::FloatConst(v) => {
                let p = hint.unwrap_or(Precision::Double);
                let r = self.float_const(round_to(p, *v));
                Ok((Val::F(r), ScalarType::Float(p)))
            }
            Expr::IntConst(v) => Ok((Val::I(self.int_const(*v)), ScalarType::Int)),
            Expr::GlobalId(d) => {
                if *d < 2 {
                    Ok((Val::I(*d as IReg), ScalarType::Int))
                } else {
                    Ok((Val::I(self.int_const(0)), ScalarType::Int))
                }
            }
            Expr::Var(name) => self.lookup(name),
            Expr::Load { buf, index } => {
                let (iv, it) = self.expr(index, None)?;
                if it != ScalarType::Int {
                    return Err(ExecError::KindError(format!(
                        "index into `{buf}` must be an integer"
                    )));
                }
                let idx = iv.ireg();
                let Some(elem) = self.buffer_elem(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                self.pending.at_mut(elem).loads += 1;
                let dst = self.alloc_f();
                let Some(&b) = self.buf_index.get(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                let load = self.load(b, idx, dst);
                self.emit(load);
                Ok((Val::F(dst), ScalarType::Float(elem)))
            }
            Expr::Unary { op, arg } => {
                let (v, t) = self.expr(arg, hint)?;
                match t {
                    ScalarType::Float(p) => {
                        self.pending.count_unary(*op, Some(p));
                        let dst = self.alloc_f();
                        self.emit(Op::FUn {
                            prec: p,
                            op: *op,
                            dst,
                            a: v.freg(),
                        });
                        Ok((Val::F(dst), ScalarType::Float(p)))
                    }
                    ScalarType::Int => {
                        self.pending.count_unary(*op, None);
                        match op {
                            UnaryFn::Neg | UnaryFn::Fabs => {
                                let dst = self.alloc_i();
                                self.emit(Op::IUn {
                                    op: *op,
                                    dst,
                                    a: v.ireg(),
                                });
                                Ok((Val::I(dst), ScalarType::Int))
                            }
                            _ => {
                                // sqrt/exp/log of an int computes in double.
                                let wide = self.alloc_f();
                                self.emit(Op::IToF {
                                    prec: Precision::Double,
                                    dst: wide,
                                    a: v.ireg(),
                                });
                                let dst = self.alloc_f();
                                self.emit(Op::FUn {
                                    prec: Precision::Double,
                                    op: *op,
                                    dst,
                                    a: wide,
                                });
                                Ok((Val::F(dst), ScalarType::Float(Precision::Double)))
                            }
                        }
                    }
                    ScalarType::Bool => Err(ExecError::KindError(
                        "boolean passed to a math function".to_owned(),
                    )),
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let (a, ta, b, tb) = self.pair(lhs, rhs, hint)?;
                if ta == ScalarType::Bool || tb == ScalarType::Bool {
                    return Err(ExecError::KindError(
                        "boolean operand in arithmetic".to_owned(),
                    ));
                }
                match (ta, tb) {
                    (ScalarType::Int, ScalarType::Int) => {
                        self.pending.count_bin(*op, None);
                        let dst = self.alloc_i();
                        self.emit(Op::IBin {
                            op: *op,
                            dst,
                            a: a.ireg(),
                            b: b.ireg(),
                        });
                        Ok((Val::I(dst), ScalarType::Int))
                    }
                    _ => {
                        let p = promote(ta, tb);
                        let fa = self.float_operand(a, ta, p);
                        let fb = self.float_operand(b, tb, p);
                        self.pending.count_bin(*op, Some(p));
                        let dst = self.alloc_f();
                        let fbin = self.fbin(p, *op, dst, fa, fb);
                        self.emit(fbin);
                        Ok((Val::F(dst), ScalarType::Float(p)))
                    }
                }
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (a, ta, b, tb) = self.pair(lhs, rhs, None)?;
                if ta == ScalarType::Bool || tb == ScalarType::Bool {
                    return Err(ExecError::KindError(
                        "boolean operand in comparison".to_owned(),
                    ));
                }
                match (ta, tb) {
                    (ScalarType::Int, ScalarType::Int) => {
                        self.pending.count_cmp(None);
                        let dst = self.alloc_i();
                        self.emit(Op::ICmp {
                            op: *op,
                            dst,
                            a: a.ireg(),
                            b: b.ireg(),
                        });
                        Ok((Val::I(dst), ScalarType::Bool))
                    }
                    _ => {
                        self.pending.count_cmp(Some(promote(ta, tb)));
                        // Comparisons are exact on the f64 values, so an
                        // integer operand widens without rounding.
                        let fa = self.float_operand(a, ta, Precision::Double);
                        let fb = self.float_operand(b, tb, Precision::Double);
                        let dst = self.alloc_i();
                        self.emit(Op::FCmp {
                            op: *op,
                            dst,
                            a: fa,
                            b: fb,
                        });
                        Ok((Val::I(dst), ScalarType::Bool))
                    }
                }
            }
            Expr::Cast { to, arg } => {
                let (v, t) = self.expr(arg, None)?;
                let target = self.resolve(to)?;
                Ok(self.coerce(v, t, target))
            }
            Expr::Select { cond, then, els } => {
                let (cv, ct) = self.expr(cond, None)?;
                if ct != ScalarType::Bool {
                    return Err(ExecError::KindError(
                        "select condition must be a boolean".to_owned(),
                    ));
                }
                let c = cv.ireg();
                let (a, ta, b, tb) = self.pair(then, els, hint)?;
                let t = select_type(ta, tb)?;
                let (a, _) = self.coerce(a, ta, t);
                let (b, _) = self.coerce(b, tb, t);
                if t == ScalarType::Int {
                    let dst = self.alloc_i();
                    self.emit(Op::SelectI {
                        cond: c,
                        dst,
                        a: a.ireg(),
                        b: b.ireg(),
                    });
                    Ok((Val::I(dst), t))
                } else {
                    let dst = self.alloc_f();
                    self.emit(Op::SelectF {
                        cond: c,
                        dst,
                        a: a.freg(),
                        b: b.freg(),
                    });
                    Ok((Val::F(dst), t))
                }
            }
        }
    }

    /// Mirror of `Interp::eval_pair`'s weak-literal resolution.
    fn pair(
        &mut self,
        lhs: &'k Expr,
        rhs: &'k Expr,
        hint: Option<Precision>,
    ) -> Result<(Val, ScalarType, Val, ScalarType), ExecError> {
        let ((a, ta), (b, tb)) = eval_operands(
            lhs,
            rhs,
            hint,
            |e, h| self.expr(e, h),
            |&(_, t)| t.precision(),
        )?;
        Ok((a, ta, b, tb))
    }

    /// Materializes an operand as a float register for a promoted binop
    /// (uncounted, mirroring `Scalar::binop`'s internal widening): an
    /// integer converts at the operation's precision `p`, which is the
    /// rounding the operation itself applies to it, so the register holds
    /// an exact value of `p`. Callers reject boolean operands before
    /// reaching here, so only ints widen.
    fn float_operand(&mut self, v: Val, t: ScalarType, p: Precision) -> FReg {
        match t {
            ScalarType::Float(_) | ScalarType::Bool => v.freg(),
            ScalarType::Int => {
                let dst = self.alloc_f();
                self.emit(Op::IToF {
                    prec: p,
                    dst,
                    a: v.ireg(),
                });
                dst
            }
        }
    }
}

/// The precision a float operation on operands of types `a` and `b`
/// computes in (callers have ruled out int/int and booleans).
fn promote(a: ScalarType, b: ScalarType) -> Precision {
    Precision::promote(a.precision(), b.precision()).unwrap_or(Precision::Double)
}

/// A float precision as a type. The lock-step lane loops are generic over
/// it, so each precision, or tuple of precisions, of an op has a loop of
/// its own, chosen once per dispatch. The item-by-item executor reaches
/// the same arithmetic through [`round_to`], [`apply_fbin`] and
/// [`apply_fun`], which dispatch on the precision per call.
trait Prec {
    /// The precision.
    const PREC: Precision;

    /// `v`, exact in `f64`, rounded to this precision.
    fn round(v: f64) -> f64;

    /// `x op y` on operands exact at this precision, under the both-NaN
    /// rule: a value exact at this precision.
    fn bin(op: FloatBinOp, x: f64, y: f64) -> f64;

    /// `op(x)`, through the interpreter's definition of the function.
    #[inline(always)]
    fn un(op: UnaryFn, x: f64) -> f64 {
        op.apply(Scalar::float(x, Self::PREC)).as_f64()
    }

    /// Integer `v` rounded once to this precision ([`int_to_float`]).
    #[inline(always)]
    fn from_int(v: i64) -> f64 {
        int_to_float(v, Self::PREC)
    }
}

/// Binary16, as a [`Prec`].
struct Bin16;
/// Binary32, as a [`Prec`].
struct Bin32;
/// Binary64, as a [`Prec`].
struct Bin64;

impl Prec for Bin16 {
    const PREC: Precision = Precision::Half;

    #[inline(always)]
    fn round(v: f64) -> f64 {
        F16::round_f64(v)
    }

    /// Operands are exact binary16 values: one rounding of the f64 result
    /// is the correctly rounded binary16 result (module docs). `min`/`max`,
    /// and NaN results (whose payload f64 arithmetic leaves unspecified),
    /// take the widening `F16` operators.
    #[inline(always)]
    fn bin(op: FloatBinOp, x: f64, y: f64) -> f64 {
        let f16 = || op.apply_f16(F16::from_f64(x), F16::from_f64(y)).to_f64();
        match op {
            FloatBinOp::Add | FloatBinOp::Sub | FloatBinOp::Mul | FloatBinOp::Div => {
                let v = op.apply_f64(x, y);
                if v.is_nan() {
                    f16()
                } else {
                    F16::round_f64(v)
                }
            }
            FloatBinOp::Min | FloatBinOp::Max => f16(),
        }
    }
}

impl Prec for Bin32 {
    const PREC: Precision = Precision::Single;

    #[inline(always)]
    fn round(v: f64) -> f64 {
        f64::from(v as f32)
    }

    #[inline(always)]
    fn bin(op: FloatBinOp, x: f64, y: f64) -> f64 {
        f64::from(op.apply_f32(x as f32, y as f32))
    }
}

impl Prec for Bin64 {
    const PREC: Precision = Precision::Double;

    #[inline(always)]
    fn round(v: f64) -> f64 {
        v
    }

    #[inline(always)]
    fn bin(op: FloatBinOp, x: f64, y: f64) -> f64 {
        op.apply_f64(x, y)
    }
}

/// Evaluates `$body` with `$P` naming the [`Prec`] of precision `$p`.
macro_rules! with_prec {
    ($p:expr, |$P:ident| $body:expr) => {
        match $p {
            Precision::Half => {
                type $P = Bin16;
                $body
            }
            Precision::Single => {
                type $P = Bin32;
                $body
            }
            Precision::Double => {
                type $P = Bin64;
                $body
            }
        }
    };
}

/// Evaluates `$body` with `$M`, `$A` and `$Q` naming the [`Prec`]s of a
/// dot step's product, sum and conversion.
macro_rules! with_step_precs {
    ($d:expr, |$M:ident, $A:ident, $Q:ident| $body:expr) => {
        with_prec!($d.pm, |$M| with_prec!($d.pa, |$A| with_prec!(
            $d.post,
            |$Q| $body
        )))
    };
}

/// Rounds an exact f64 representation to a precision.
#[inline]
fn round_to(p: Precision, v: f64) -> f64 {
    with_prec!(p, |P| P::round(v))
}

#[inline]
fn apply_fbin(p: Precision, op: FloatBinOp, a: f64, b: f64) -> f64 {
    with_prec!(p, |P| P::bin(op, a, b))
}

#[inline]
fn apply_fun(p: Precision, op: UnaryFn, a: f64) -> f64 {
    with_prec!(p, |P| P::un(op, a))
}

/// `post(acc + x·y)`, the product rounded at `M`, the sum at `A` and the
/// conversion at `Q`: the arithmetic of a dot step.
#[inline(always)]
fn rounded_step<M: Prec, A: Prec, Q: Prec>(acc: f64, x: f64, y: f64) -> f64 {
    Q::round(A::bin(FloatBinOp::Add, acc, M::bin(FloatBinOp::Mul, x, y)))
}

/// Runs `$body` for each lane `$l` of a [`Sel`], lowest lane first;
/// `$body` may `return` or use `?`.
macro_rules! each_lane {
    ($sel:expr, |$l:ident| $body:expr) => {
        match $sel {
            Sel::All(width) => {
                for $l in 0..width.min(BLOCK) {
                    $body;
                }
            }
            Sel::Mask(mut mask) => {
                while mask != 0 {
                    let $l = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    $body;
                }
            }
        }
    };
}

/// Work-items per lock-step block: one bit each of a `u64` lane mask.
const BLOCK: usize = 64;

/// Undo-log entries a block may hold (1.5 MiB). A block whose stores
/// would log more rolls back and replays item by item, so the log stays
/// bounded however many trips a storing loop makes.
const MAX_UNDO: usize = 1 << 16;

/// Rows narrower than this run item by item. Replayed alone, polybench
/// launches break even at rows of 6–7 items, but a fresh session's lane
/// registers cost more than 8-item rows save: with this bound at 7,
/// tunes at test sizes run 6% slower end to end (DESIGN.md, "Kernel-VM
/// fast path").
const MIN_LOCKSTEP_ROW: usize = 16;

/// Below this NDRange size, thread-spawn latency dominates any possible
/// win from chunked execution.
const MIN_PARALLEL_ITEMS: usize = 64;

/// How one launch of a [`CompiledKernel`] executes, as decided by
/// [`CompiledKernel::plan`] — the decision the executor itself follows.
#[derive(Clone, Debug)]
pub struct LaunchPlan {
    lockstep: bool,
    chunks: Option<Chunking>,
}

impl LaunchPlan {
    /// `true` when rows run in lock-step blocks of up to 64 work-items.
    #[must_use]
    pub fn lockstep(&self) -> bool {
        self.lockstep
    }

    /// How many chunks run concurrently (1: the calling thread runs the
    /// whole launch).
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.chunks.as_ref().map_or(1, |c| c.bounds.len())
    }
}

/// A resolved split of a launch into chunks of the partition axis.
#[derive(Clone, Debug)]
struct Chunking {
    along_rows: bool,
    /// Each chunk's `[u0, u1)` along the partition axis.
    bounds: Vec<(usize, usize)>,
    /// Each stored buffer's binding slot and each chunk's half-open index
    /// interval of it.
    carved: Vec<(usize, Vec<(usize, usize)>)>,
}

impl CompiledKernel {
    /// The kernel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of bytecode instructions (for diagnostics).
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.ops.len()
    }

    /// The compile-time disjoint-access verdict behind
    /// [`CompiledKernel::plan`].
    #[must_use]
    pub fn parallel_safety(&self) -> &ParallelSafety {
        &self.safety
    }

    /// How a launch over `buffers` runs with up to `threads` threads; the
    /// executor follows this plan. Rows run in lock-step blocks when the
    /// disjoint-access proof admits the launch
    /// ([`WriteSummary::lockstep`]) and rows are at least 16 work-items
    /// wide. The NDRange splits into chunks when `threads > 1`, the launch
    /// has at least 64 items, [`WriteSummary::resolve`] proves the chunks
    /// disjoint, and every stored buffer holds the whole launch's index
    /// interval, so no chunk can fault on a carved buffer.
    #[must_use]
    pub fn plan(&self, buffers: &BufferMap, launch: &Launch, threads: usize) -> LaunchPlan {
        let ParallelSafety::Disjoint(summary) = &*self.safety else {
            return LaunchPlan {
                lockstep: false,
                chunks: None,
            };
        };
        let (nx, ny) = (launch.global[0], launch.global[1]);
        let parallel = threads > 1 && nx.saturating_mul(ny) >= MIN_PARALLEL_ITEMS;
        LaunchPlan {
            lockstep: nx >= MIN_LOCKSTEP_ROW && ny > 0 && summary.lockstep(launch, BLOCK).is_ok(),
            chunks: parallel
                .then(|| self.chunking(summary, buffers, launch, threads))
                .flatten(),
        }
    }

    /// Resolves balanced contiguous chunks of the partition axis and
    /// pre-checks every stored buffer against the whole launch's interval.
    /// `None` keeps the launch on the calling thread.
    fn chunking(
        &self,
        summary: &WriteSummary,
        buffers: &BufferMap,
        launch: &Launch,
        threads: usize,
    ) -> Option<Chunking> {
        let plan = summary.resolve(launch)?;
        let (nx, ny) = (launch.global[0], launch.global[1]);
        let axis_len = if plan.along_rows() { ny } else { nx };
        let chunks = threads.min(axis_len);
        if chunks < 2 {
            return None;
        }
        let (base, rem) = (axis_len / chunks, axis_len % chunks);
        let mut bounds = Vec::with_capacity(chunks);
        let mut at = 0usize;
        for k in 0..chunks {
            let w = base + usize::from(k < rem);
            bounds.push((at, at + w));
            at += w;
        }
        let mut carved = Vec::with_capacity(plan.buffers().len());
        for rb in plan.buffers() {
            let slot = self.buffer_slot(rb.name())?;
            let len = buffers.get(rb.name())?.len();
            let (full_lo, full_hi) = rb.interval(0, axis_len)?;
            if full_lo < 0 || usize::try_from(full_hi).map_or(true, |h| h >= len) {
                return None;
            }
            // Per-chunk inclusive intervals → half-open usize ranges
            // (inside the full interval, so non-negative).
            let ivs = bounds
                .iter()
                .map(|&(u0, u1)| {
                    let (lo, hi) = rb.interval(u0, u1)?;
                    debug_assert!(lo >= full_lo && hi <= full_hi);
                    Some((lo as usize, hi as usize + 1))
                })
                .collect::<Option<Vec<_>>>()?;
            // Defense in depth: the intervals must be monotone and
            // disjoint in carve order (ascending when the axis
            // coefficient is positive, descending otherwise).
            let ascending = ivs.windows(2).all(|w| w[0].1 <= w[1].0);
            let descending = ivs.windows(2).all(|w| w[1].1 <= w[0].0);
            if !(ascending || descending) {
                return None;
            }
            carved.push((slot, ivs));
        }
        Some(Chunking {
            along_rows: plan.along_rows(),
            bounds,
            carved,
        })
    }

    /// The binding slot of buffer parameter `name` (buffers bind in
    /// parameter order).
    fn buffer_slot(&self, name: &str) -> Option<usize> {
        self.params
            .iter()
            .filter(|p| matches!(p, ParamBind::Buffer { .. }))
            .position(|p| matches!(p, ParamBind::Buffer { name: n, .. } if n == name))
    }

    /// Executes the compiled kernel over the launch NDRange. Semantics and
    /// error behaviour match [`crate::interp::run_kernel`] exactly.
    ///
    /// Allocates fresh execution state; launch-heavy callers should hold a
    /// [`VmScratch`] and use [`CompiledKernel::run_with_scratch`] instead.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run(&self, buffers: &mut BufferMap, launch: &Launch) -> Result<OpCounts, ExecError> {
        self.run_with_scratch(buffers, launch, &mut VmScratch::new())
    }

    /// Like [`CompiledKernel::run`], but reuses `scratch`'s register and
    /// buffer-binding storage across launches instead of allocating per
    /// launch. Results are identical; any `CompiledKernel` may share one
    /// scratch (it is resized per run). Runs on the calling thread, in
    /// lock-step blocks where [`CompiledKernel::plan`] admits them.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_with_scratch(
        &self,
        buffers: &mut BufferMap,
        launch: &Launch,
        scratch: &mut VmScratch,
    ) -> Result<OpCounts, ExecError> {
        self.run_parallel(buffers, launch, scratch, 1)
    }

    /// Like [`CompiledKernel::run_with_scratch`], but splits the NDRange
    /// into up to `threads` contiguous chunks along the partition axis and
    /// executes them concurrently with [`std::thread::scope`] when
    /// [`CompiledKernel::plan`] proves every chunk accesses a private
    /// index interval of every stored buffer. Each chunk runs through the
    /// same executor as a sequential launch, lock-step blocks included.
    ///
    /// Results are bit-identical to sequential execution in every case:
    /// outputs because chunk write sets are disjoint and each chunk runs
    /// its items in the sequential order; [`OpCounts`] because per-chunk
    /// tallies are exact integer sums merged in fixed chunk order; errors
    /// because any chunk failure triggers a sequential re-run from a
    /// pre-execution snapshot of the stored buffers, which reproduces the
    /// sequential error and partial-write state exactly.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_parallel(
        &self,
        buffers: &mut BufferMap,
        launch: &Launch,
        scratch: &mut VmScratch,
        threads: usize,
    ) -> Result<OpCounts, ExecError> {
        let plan = self.plan(buffers, launch, threads);
        self.bind(buffers, launch, scratch)?;
        let result = match &plan.chunks {
            Some(chunking) => self.exec_bound_parallel(scratch, launch, chunking, plan.lockstep),
            None => self.exec_seq(&mut scratch.main, &mut scratch.bufs, launch, plan.lockstep),
        };
        restore(buffers, &mut scratch.bufs);
        result
    }

    /// Binds buffers and scalar arguments into `scratch`, leaving the
    /// caller's map restored on any error. Buffers move map entry →
    /// scratch (`remove_entry` keeps the owned key, so the hot path never
    /// clones a name); scalar arguments resolve through the compile-time
    /// slot table in one forward pass (later duplicates overwrite earlier
    /// ones, preserving the historical last-wins semantics).
    fn bind(
        &self,
        buffers: &mut BufferMap,
        launch: &Launch,
        scratch: &mut VmScratch,
    ) -> Result<(), ExecError> {
        let VmScratch {
            main: Worker { iregs, fregs, .. },
            bufs,
            args,
            ..
        } = scratch;
        iregs.clear();
        iregs.resize(self.n_iregs as usize, 0);
        fregs.clear();
        fregs.resize(self.n_fregs as usize, 0.0);
        for &(r, v) in &self.int_pool {
            iregs[r as usize] = v;
        }
        for &(r, v) in &self.float_pool {
            fregs[r as usize] = v;
        }
        debug_assert!(bufs.is_empty(), "scratch buffers left bound");

        args.clear();
        args.resize(self.n_arg_slots as usize, None);
        for (name, v) in &launch.args {
            if let Some(&slot) = self.arg_slots.get(name.as_str()) {
                args[slot as usize] = Some(*v);
            }
        }

        for p in &self.params {
            match p {
                ParamBind::Buffer { name, elem } => match buffers.remove_entry(name.as_str()) {
                    None => {
                        restore(buffers, bufs);
                        return Err(ExecError::MissingBuffer(name.clone()));
                    }
                    Some((key, v)) if v.precision() != *elem => {
                        let bound = v.precision();
                        buffers.insert(key, v);
                        restore(buffers, bufs);
                        return Err(ExecError::BufferPrecisionMismatch {
                            name: name.clone(),
                            declared: *elem,
                            bound,
                        });
                    }
                    Some(entry) => bufs.push(entry),
                },
                ParamBind::ScalarInt { name, reg, slot } => match args[*slot as usize] {
                    Some(ArgValue::Int(v)) => iregs[*reg as usize] = v,
                    Some(ArgValue::Float(_)) => {
                        restore(buffers, bufs);
                        return Err(ExecError::ArgKindMismatch(name.clone()));
                    }
                    None => {
                        restore(buffers, bufs);
                        return Err(ExecError::MissingArg(name.clone()));
                    }
                },
                ParamBind::ScalarFloat {
                    name,
                    prec,
                    reg,
                    slot,
                } => match args[*slot as usize] {
                    Some(ArgValue::Float(v)) => fregs[*reg as usize] = round_to(*prec, v),
                    Some(ArgValue::Int(v)) => fregs[*reg as usize] = int_to_float(v, *prec),
                    None => {
                        restore(buffers, bufs);
                        return Err(ExecError::MissingArg(name.clone()));
                    }
                },
            }
        }
        Ok(())
    }

    /// Runs the whole NDRange of an already-bound scratch on the calling
    /// thread.
    fn exec_seq(
        &self,
        main: &mut Worker,
        bufs: &mut [(String, FloatVec)],
        launch: &Launch,
        lockstep: bool,
    ) -> Result<OpCounts, ExecError> {
        let (nx, ny) = (launch.global[0], launch.global[1]);
        self.exec_rows(main, &mut Mem::Whole(bufs), 0..nx, 0..ny, lockstep)?;
        Ok(self.counts_from(&main.hits))
    }

    /// Chunked parallel execution of an already-bound scratch. Re-runs
    /// sequentially from a snapshot when any chunk reports an error.
    fn exec_bound_parallel(
        &self,
        scratch: &mut VmScratch,
        launch: &Launch,
        chunking: &Chunking,
        lockstep: bool,
    ) -> Result<OpCounts, ExecError> {
        let nx = launch.global[0];
        let chunks = chunking.bounds.len();
        let VmScratch {
            main,
            bufs,
            workers,
            ..
        } = scratch;

        // Snapshot stored buffers: the error path re-runs sequentially
        // from this pristine state to reproduce the sequential error and
        // partial-write behaviour exactly.
        let snapshots: Vec<(usize, FloatVec)> = chunking
            .carved
            .iter()
            .map(|&(slot, _)| (slot, bufs[slot].1.clone()))
            .collect();

        // Seed one worker per chunk from the bound prototype registers.
        if workers.len() < chunks {
            workers.resize_with(chunks, Worker::default);
        }
        for w in workers.iter_mut().take(chunks) {
            w.iregs.clone_from(&main.iregs);
            w.fregs.clone_from(&main.fregs);
        }

        let errored = match carve(bufs, &chunking.carved, chunks) {
            None => true,
            Some(mems) => {
                let results: Vec<Result<(), ExecError>> = std::thread::scope(|s| {
                    let handles: Vec<_> = mems
                        .into_iter()
                        .zip(workers.iter_mut())
                        .zip(&chunking.bounds)
                        .map(|((mut mem, worker), &(u0, u1))| {
                            let (xs, ys) = if chunking.along_rows {
                                (0..nx, u0..u1)
                            } else {
                                (u0..u1, 0..1)
                            };
                            s.spawn(move || self.exec_rows(worker, &mut mem, xs, ys, lockstep))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| match h.join() {
                            Ok(r) => r,
                            Err(_) => Err(ExecError::KindError(
                                "parallel chunk worker panicked".to_owned(),
                            )),
                        })
                        .collect()
                });
                results.iter().any(Result::is_err)
            }
        };

        if errored {
            // Restore the pre-execution contents of every stored buffer
            // and replay sequentially: the replay *is* the sequential
            // semantics, including the first-faulting-item error and its
            // partial writes.
            for (slot, snap) in snapshots {
                bufs[slot].1 = snap;
            }
            return self.exec_seq(main, bufs, launch, lockstep);
        }

        // Merge per-chunk tallies in fixed chunk order. Each tally is an
        // exact integer hit count, so the merged counts are bit-identical
        // to the sequential tally.
        main.hits.clear();
        main.hits.resize(self.counts_table.len(), 0);
        for w in workers.iter().take(chunks) {
            for (t, h) in main.hits.iter_mut().zip(&w.hits) {
                *t += h;
            }
        }
        Ok(self.counts_from(&main.hits))
    }

    /// Scales the per-site hit tallies by their count-table deltas.
    fn counts_from(&self, hits: &[u64]) -> OpCounts {
        let mut counts = OpCounts::new();
        for (i, &h) in hits.iter().enumerate() {
            if h != 0 {
                counts += self.counts_table[i].scaled(h);
            }
        }
        counts
    }

    /// Runs work-items `xs × ys` row by row into `w.hits` (reset first).
    /// With `lockstep`, each row runs in blocks of up to [`BLOCK`] items
    /// ([`CompiledKernel::exec_block`]); an error inside a block, or an
    /// undo log out of room, rolls the block's stores back from the log
    /// and replays the block item by item, which reproduces the
    /// sequential error and partial writes exactly. Without, items run
    /// one at a time.
    fn exec_rows(
        &self,
        w: &mut Worker,
        mem: &mut Mem<'_>,
        xs: Range<usize>,
        ys: Range<usize>,
        lockstep: bool,
    ) -> Result<(), ExecError> {
        let Worker {
            iregs,
            fregs,
            lanes,
            strip,
            hits,
        } = w;
        hits.clear();
        hits.resize(self.counts_table.len(), 0);
        if !lockstep {
            return self.exec_range(iregs, fregs, mem, hits, strip, (xs, ys));
        }
        self.prepare_lanes(lanes, iregs, fregs, xs.len().min(BLOCK));
        for y in ys {
            for x0 in xs.clone().step_by(BLOCK) {
                let width = (xs.end - x0).min(BLOCK);
                lanes.undo.clear();
                lanes.hits.fill(0);
                if self.exec_block(lanes, strip, mem, x0, y, width).is_ok() {
                    for (t, h) in hits.iter_mut().zip(&lanes.hits) {
                        *t += h;
                    }
                } else {
                    for u in lanes.undo.drain(..).rev() {
                        mem.put_back(u);
                    }
                    let items = (x0..x0 + width, y..y + 1);
                    self.exec_range(iregs, fregs, mem, hits, strip, items)?;
                }
            }
        }
        Ok(())
    }

    /// Sizes `lanes` for this kernel and broadcasts the launch-bound
    /// registers — the constant pool and the scalar arguments, which no op
    /// writes — from the bound scalar registers over the first `width`
    /// lanes. An item writes every other register before reading it.
    fn prepare_lanes(&self, lanes: &mut Lanes, iregs: &[i64], fregs: &[f64], width: usize) {
        if lanes.i.len() < iregs.len() {
            lanes.i.resize(iregs.len(), [0; BLOCK]);
        }
        if lanes.f.len() < fregs.len() {
            lanes.f.resize(fregs.len(), [0.0; BLOCK]);
        }
        for p in &self.params {
            match *p {
                ParamBind::ScalarInt { reg, .. } => {
                    lanes.i[reg as usize][..width].fill(iregs[reg as usize]);
                }
                ParamBind::ScalarFloat { reg, .. } => {
                    lanes.f[reg as usize][..width].fill(fregs[reg as usize]);
                }
                ParamBind::Buffer { .. } => {}
            }
        }
        for &(r, v) in &self.int_pool {
            lanes.i[r as usize][..width].fill(v);
        }
        for &(r, v) in &self.float_pool {
            lanes.f[r as usize][..width].fill(v);
        }
        lanes.hits.clear();
        lanes.hits.resize(self.counts_table.len(), 0);
    }

    /// Runs one block in lock step: lane `l < width` is work-item
    /// `(x0 + l, y)`. While the active lanes agree on the pc, each op runs
    /// once for all of them — side-effect-free ops over every lane of the
    /// block (a retired lane's registers are dead), loads, stores and
    /// count sites over the active lanes only. A branch the active lanes
    /// disagree on retires the lanes it sends to `Halt`; any other split
    /// gives each lane its own pc, and the lanes at the lowest pc run
    /// next, so lanes that left a loop or skipped a branch wait at the
    /// join for the rest and then run together again. An op the compiler
    /// tagged [`Run::Once`] runs on the group's first lane and copies its
    /// destination over the lanes the op writes, and a branch it tagged so
    /// decides for the whole group; a load or store tagged [`Run::Slice`]
    /// checks its active lanes' span once and moves elements by position.
    /// Stores log the bits they overwrite to `lanes.undo`; an error, or a
    /// store the full log has no room for, leaves the block half run for
    /// [`CompiledKernel::exec_rows`] to roll back.
    #[allow(clippy::too_many_lines)]
    fn exec_block(
        &self,
        lanes: &mut Lanes,
        strip: &mut Strip,
        mem: &mut Mem<'_>,
        x0: usize,
        y: usize,
        width: usize,
    ) -> Result<(), ExecError> {
        let Lanes {
            i: ir,
            f: fr,
            pc: pcs,
            ix,
            dot_loops,
            once,
            slices,
            undo,
            hits,
        } = lanes;
        for (l, gx) in ir[0][..width].iter_mut().enumerate() {
            *gx = (x0 + l) as i64;
        }
        ir[1][..width].fill(y as i64);
        let all = u64::MAX >> (BLOCK - width);
        let mut active = all;
        let mut split = false;
        let mut pc = 0usize;
        loop {
            // The lanes at `pc`, and the lanes its ALU ops and its side
            // effects run over.
            let (group, alu, fx) = if split {
                let mut lowest = u32::MAX;
                let mut at = 0u64;
                each_lane!(Sel::Mask(active), |l| {
                    if pcs[l] < lowest {
                        lowest = pcs[l];
                        at = 0;
                    }
                    if pcs[l] == lowest {
                        at |= 1 << l;
                    }
                });
                pc = lowest as usize;
                if at == active {
                    split = false;
                    continue;
                }
                (at, Sel::Mask(at), Sel::Mask(at))
            } else if active == all {
                (active, Sel::All(width), Sel::All(width))
            } else {
                (active, Sel::All(width), Sel::Mask(active))
            };
            let run = self.runs[pc];
            // A uniform op runs on the group's first lane; `fill` is where
            // its result goes.
            let (alu, fx, fill) = if let Run::Once(_) = run {
                if cfg!(debug_assertions) {
                    assert_uniform(&self.ops[pc], ir, fr, fx);
                }
                *once += 1;
                let first = Sel::Mask(group & group.wrapping_neg());
                (first, first, alu)
            } else {
                (alu, fx, alu)
            };
            let slice = run == Run::Slice;
            *slices += u64::from(slice);
            let flow = match self.ops[pc] {
                Op::Halt => Flow::Halt,
                Op::Jump(t) => Flow::Goto(t as usize),
                Op::JumpIfFalse { cond, target } => {
                    let c = &ir[cond as usize];
                    Flow::Branch {
                        taken: lanes_where(fx, |l| c[l] == 0),
                        target: target as usize,
                    }
                }
                Op::IMov { dst, src } => {
                    lanes1(ir, alu, dst, src, |v| v);
                    Flow::Next
                }
                Op::FMov { dst, src } => {
                    lanes1(fr, alu, dst, src, |v| v);
                    Flow::Next
                }
                Op::IBin { op, dst, a, b } => {
                    match op {
                        FloatBinOp::Add => lanes2(ir, alu, dst, a, b, i64::wrapping_add),
                        FloatBinOp::Sub => lanes2(ir, alu, dst, a, b, i64::wrapping_sub),
                        FloatBinOp::Mul => lanes2(ir, alu, dst, a, b, i64::wrapping_mul),
                        _ => lanes2(ir, alu, dst, a, b, |x, y| op.apply_int(x, y)),
                    }
                    Flow::Next
                }
                Op::IUn { op, dst, a } => {
                    match op {
                        UnaryFn::Neg => lanes1(ir, alu, dst, a, i64::wrapping_neg),
                        UnaryFn::Fabs => lanes1(ir, alu, dst, a, i64::wrapping_abs),
                        _ => {
                            return Err(ExecError::KindError(
                                "integer unary op must be neg or abs".to_owned(),
                            ));
                        }
                    }
                    Flow::Next
                }
                Op::ICmp { op, dst, a, b } => {
                    lanes2(ir, alu, dst, a, b, |x, y| i64::from(op.holds(x, y)));
                    Flow::Next
                }
                Op::FCmp { op, dst, a, b } => {
                    let (d, a, b) = (dst as usize, &fr[a as usize], &fr[b as usize]);
                    each_lane!(alu, |l| ir[d][l] = i64::from(op.holds(a[l], b[l])));
                    Flow::Next
                }
                Op::FBin {
                    prec,
                    op,
                    dst,
                    a,
                    b,
                } => {
                    with_prec!(prec, |P| fbin_lanes::<P>(op, fr, alu, [dst, a, b]));
                    Flow::Next
                }
                Op::FUn { prec, op, dst, a } => {
                    with_prec!(prec, |P| fun_lanes::<P>(op, fr, alu, [dst, a]));
                    Flow::Next
                }
                Op::Cvt { prec, dst, a } => {
                    with_prec!(prec, |P| cvt_lanes::<P>(fr, alu, [dst, a]));
                    Flow::Next
                }
                Op::IToF { prec, dst, a } => {
                    let (d, a) = (&mut fr[dst as usize], &ir[a as usize]);
                    with_prec!(prec, |P| itof_lanes::<P>(a, d, alu));
                    Flow::Next
                }
                Op::FToI { dst, a } => {
                    let (d, a) = (dst as usize, &fr[a as usize]);
                    each_lane!(alu, |l| ir[d][l] = a[l].trunc() as i64);
                    Flow::Next
                }
                Op::Load { buf, idx, dst } => {
                    let (idx, dst) = (&ir[idx as usize], &mut fr[dst as usize]);
                    if slice {
                        if cfg!(debug_assertions) {
                            assert_consecutive(idx, fx);
                        }
                        mem.load_run(buf, idx[fx.first()], dst, fx)?;
                    } else {
                        mem.load_lanes(buf, idx, dst, fx)?;
                    }
                    Flow::Next
                }
                Op::Store { buf, idx, src } => {
                    if undo.len() + BLOCK > MAX_UNDO {
                        return Err(ExecError::KindError("lock-step undo log full".to_owned()));
                    }
                    let (idx, src) = (&ir[idx as usize], &fr[src as usize]);
                    if slice {
                        if cfg!(debug_assertions) {
                            assert_consecutive(idx, fx);
                        }
                        mem.store_run(buf, idx[fx.first()], src, fx, undo)?;
                    } else {
                        mem.store_lanes(buf, idx, src, fx, undo)?;
                    }
                    Flow::Next
                }
                Op::SelectF { cond, dst, a, b } => {
                    let (c, d, a, b) = (cond as usize, dst as usize, a as usize, b as usize);
                    each_lane!(alu, |l| fr[d][l] =
                        if ir[c][l] != 0 { fr[a][l] } else { fr[b][l] });
                    Flow::Next
                }
                Op::SelectI { cond, dst, a, b } => {
                    let (c, d, a, b) = (cond as usize, dst as usize, a as usize, b as usize);
                    each_lane!(alu, |l| ir[d][l] =
                        if ir[c][l] != 0 { ir[a][l] } else { ir[b][l] });
                    Flow::Next
                }
                Op::Count { idx } => {
                    hits[idx as usize] += u64::from(group.count_ones());
                    Flow::Next
                }
                Op::JumpICmpFalse { op, a, b, target } => {
                    let (a, b) = (&ir[a as usize], &ir[b as usize]);
                    Flow::Branch {
                        taken: lanes_where(fx, |l| !op.holds(a[l], b[l])),
                        target: target as usize,
                    }
                }
                Op::IAddImmJump {
                    dst,
                    a,
                    imm,
                    target,
                } => {
                    lanes1(ir, alu, dst, a, |v| v.wrapping_add(imm));
                    Flow::Goto(target as usize)
                }
                Op::LoadMulAdd { buf, a, b, c, dst } => {
                    let (a, b, c) = (&ir[a as usize], &ir[b as usize], &ir[c as usize]);
                    let index = |l: usize| a[l].wrapping_mul(b[l]).wrapping_add(c[l]);
                    let dst = &mut fr[dst as usize];
                    if slice {
                        if cfg!(debug_assertions) {
                            each_lane!(fx, |l| ix[l] = index(l));
                            assert_consecutive(ix, fx);
                        }
                        mem.load_run(buf, index(fx.first()), dst, fx)?;
                    } else {
                        each_lane!(fx, |l| ix[l] = index(l));
                        mem.load_lanes(buf, ix, dst, fx)?;
                    }
                    Flow::Next
                }
                Op::FMulAcc {
                    pm,
                    pa,
                    dst,
                    acc,
                    a,
                    b,
                } => {
                    with_prec!(pm, |M| with_prec!(pa, |A| mul_acc_lanes::<M, A>(
                        fr,
                        alu,
                        [dst, acc, a, b]
                    )));
                    Flow::Next
                }
                Op::DotStep { idx } => {
                    dot_step_lanes(&self.dot_table[idx as usize], ir, fr, ix, mem, fx)?;
                    Flow::Next
                }
                Op::CountAddJump {
                    idx,
                    dst,
                    a,
                    imm,
                    target,
                } => {
                    hits[idx as usize] += u64::from(group.count_ones());
                    lanes1(ir, alu, dst, a, |v| v.wrapping_add(i64::from(imm)));
                    Flow::Goto(target as usize)
                }
                Op::DotLoop { idx } => {
                    let lp = &self.loop_table[idx as usize];
                    let (acc, var) = (lp.step.acc as usize, lp.var as usize);
                    if let Some(mut lockstep) = DotLanes::of(lp, ir, fx) {
                        let (k, trips) = mem.dot_lanes(lp, &mut lockstep, &mut fr[acc], fx)?;
                        each_lane!(fx, |l| ir[var][l] = k);
                        hits[lp.count as usize] += trips * u64::from(group.count_ones());
                        *dot_loops += 1;
                    } else {
                        each_lane!(fx, |l| {
                            let (k, sum, trips) =
                                dot_loop(lp, |r| ir[r as usize][l], fr[acc][l], mem, strip)?;
                            ir[var][l] = k;
                            fr[acc][l] = sum;
                            hits[lp.count as usize] += trips;
                        });
                    }
                    Flow::Next
                }
            };
            if let Run::Once(Some(dst)) = run {
                let first = group.trailing_zeros() as usize;
                match dst {
                    Val::I(d) => broadcast(&mut ir[d as usize], first, fill),
                    Val::F(d) => broadcast(&mut fr[d as usize], first, fill),
                }
            }
            let next = match flow {
                Flow::Next => pc + 1,
                Flow::Goto(t) => t,
                Flow::Halt => {
                    active &= !group;
                    if active == 0 {
                        return Ok(());
                    }
                    continue;
                }
                Flow::Branch { mut taken, target } => {
                    // A uniform condition, decided on one lane, holds for
                    // the whole group.
                    if taken != 0 && matches!(run, Run::Once(_)) {
                        taken = group;
                    }
                    if taken == 0 {
                        pc + 1
                    } else if taken == group {
                        target
                    } else if !split && matches!(self.ops[target], Op::Halt) {
                        active &= !taken;
                        pc + 1
                    } else {
                        split = true;
                        each_lane!(Sel::Mask(group), |l| {
                            pcs[l] = if taken >> l & 1 == 1 { target } else { pc + 1 } as u32;
                        });
                        continue;
                    }
                }
            };
            if split {
                each_lane!(Sel::Mask(group), |l| pcs[l] = next as u32);
            } else {
                pc = next;
            }
        }
    }

    /// The item-by-item dispatch loop over a rectangular sub-range of the
    /// NDRange: the executor for launches lock step does not admit, and
    /// the replay of a lock-step block that failed. `mem` holds whole
    /// buffers for a run on the calling thread, carved windows and shared
    /// read views for a parallel chunk.
    ///
    /// Count sites fire millions of times in hot loops; adding the full
    /// `OpCounts` struct each time costs ~20 u64 additions per hit. Tally
    /// hits per table index instead and scale once at the end — repeated
    /// addition of a constant delta is exactly multiplication.
    #[allow(clippy::too_many_lines)]
    fn exec_range(
        &self,
        iregs: &mut [i64],
        fregs: &mut [f64],
        mem: &mut Mem<'_>,
        hits: &mut [u64],
        strip: &mut Strip,
        (gx_range, gy_range): (Range<usize>, Range<usize>),
    ) -> Result<(), ExecError> {
        let ops = &self.ops[..];
        for gy in gy_range {
            for gx in gx_range.clone() {
                iregs[0] = gx as i64;
                iregs[1] = gy as i64;
                let mut pc = 0usize;
                loop {
                    match ops[pc] {
                        Op::Halt => break,
                        Op::Jump(t) => {
                            pc = t as usize;
                            continue;
                        }
                        Op::JumpIfFalse { cond, target } => {
                            if iregs[cond as usize] == 0 {
                                pc = target as usize;
                                continue;
                            }
                        }
                        Op::IMov { dst, src } => iregs[dst as usize] = iregs[src as usize],
                        Op::FMov { dst, src } => fregs[dst as usize] = fregs[src as usize],
                        Op::IBin { op, dst, a, b } => {
                            iregs[dst as usize] =
                                op.apply_int(iregs[a as usize], iregs[b as usize]);
                        }
                        Op::IUn { op, dst, a } => {
                            let v = iregs[a as usize];
                            iregs[dst as usize] = match op {
                                UnaryFn::Neg => v.wrapping_neg(),
                                UnaryFn::Fabs => v.wrapping_abs(),
                                _ => {
                                    return Err(ExecError::KindError(
                                        "integer unary op must be neg or abs".to_owned(),
                                    ));
                                }
                            };
                        }
                        Op::ICmp { op, dst, a, b } => {
                            iregs[dst as usize] =
                                i64::from(op.holds(iregs[a as usize], iregs[b as usize]));
                        }
                        Op::FCmp { op, dst, a, b } => {
                            iregs[dst as usize] =
                                i64::from(op.holds(fregs[a as usize], fregs[b as usize]));
                        }
                        Op::FBin {
                            prec,
                            op,
                            dst,
                            a,
                            b,
                        } => {
                            fregs[dst as usize] =
                                apply_fbin(prec, op, fregs[a as usize], fregs[b as usize]);
                        }
                        Op::FUn { prec, op, dst, a } => {
                            fregs[dst as usize] = apply_fun(prec, op, fregs[a as usize]);
                        }
                        Op::Cvt { prec, dst, a } => {
                            fregs[dst as usize] = round_to(prec, fregs[a as usize]);
                        }
                        Op::IToF { prec, dst, a } => {
                            fregs[dst as usize] = int_to_float(iregs[a as usize], prec);
                        }
                        Op::FToI { dst, a } => {
                            iregs[dst as usize] = fregs[a as usize].trunc() as i64;
                        }
                        Op::Load { buf, idx, dst } => {
                            fregs[dst as usize] = mem.load(buf, iregs[idx as usize])?;
                        }
                        Op::Store { buf, idx, src } => {
                            mem.store(buf, iregs[idx as usize], fregs[src as usize])?;
                        }
                        Op::SelectF { cond, dst, a, b } => {
                            fregs[dst as usize] = if iregs[cond as usize] != 0 {
                                fregs[a as usize]
                            } else {
                                fregs[b as usize]
                            };
                        }
                        Op::SelectI { cond, dst, a, b } => {
                            iregs[dst as usize] = if iregs[cond as usize] != 0 {
                                iregs[a as usize]
                            } else {
                                iregs[b as usize]
                            };
                        }
                        Op::Count { idx } => {
                            hits[idx as usize] += 1;
                        }
                        Op::JumpICmpFalse { op, a, b, target } => {
                            if !op.holds(iregs[a as usize], iregs[b as usize]) {
                                pc = target as usize;
                                continue;
                            }
                        }
                        Op::IAddImmJump {
                            dst,
                            a,
                            imm,
                            target,
                        } => {
                            iregs[dst as usize] = iregs[a as usize].wrapping_add(imm);
                            pc = target as usize;
                            continue;
                        }
                        Op::LoadMulAdd { buf, a, b, c, dst } => {
                            let i = iregs[a as usize]
                                .wrapping_mul(iregs[b as usize])
                                .wrapping_add(iregs[c as usize]);
                            fregs[dst as usize] = mem.load(buf, i)?;
                        }
                        Op::FMulAcc {
                            pm,
                            pa,
                            dst,
                            acc,
                            a,
                            b,
                        } => {
                            let m = apply_fbin(
                                pm,
                                FloatBinOp::Mul,
                                fregs[a as usize],
                                fregs[b as usize],
                            );
                            fregs[dst as usize] =
                                apply_fbin(pa, FloatBinOp::Add, fregs[acc as usize], m);
                        }
                        Op::DotStep { idx } => {
                            let d = &self.dot_table[idx as usize];
                            let acc = fregs[d.acc as usize];
                            fregs[d.dst as usize] = dot_step(d, |r| iregs[r as usize], acc, mem)?;
                        }
                        Op::CountAddJump {
                            idx,
                            dst,
                            a,
                            imm,
                            target,
                        } => {
                            hits[idx as usize] += 1;
                            iregs[dst as usize] = iregs[a as usize].wrapping_add(i64::from(imm));
                            pc = target as usize;
                            continue;
                        }
                        Op::DotLoop { idx } => {
                            let l = &self.loop_table[idx as usize];
                            let acc = l.step.acc as usize;
                            let (k, sum, trips) =
                                dot_loop(l, |r| iregs[r as usize], fregs[acc], mem, strip)?;
                            iregs[l.var as usize] = k;
                            fregs[acc] = sum;
                            hits[l.count as usize] += trips;
                        }
                    }
                    pc += 1;
                }
            }
        }
        Ok(())
    }
}

/// The lanes an op of the lock-step executor runs on.
#[derive(Clone, Copy, Debug)]
enum Sel {
    /// Every lane below the width.
    All(usize),
    /// The lanes whose bits are set.
    Mask(u64),
}

impl Sel {
    /// The lowest lane.
    fn first(self) -> usize {
        match self {
            Sel::All(_) => 0,
            Sel::Mask(m) => m.trailing_zeros() as usize,
        }
    }

    /// The highest lane.
    fn last(self) -> usize {
        match self {
            Sel::All(width) => width.min(BLOCK) - 1,
            Sel::Mask(m) => 63 - m.leading_zeros() as usize,
        }
    }
}

/// Where the lock-step executor goes after an op.
enum Flow {
    Next,
    Goto(usize),
    /// The lanes in `taken` jump to `target`; the rest fall through.
    Branch {
        taken: u64,
        target: usize,
    },
    Halt,
}

/// Lane registers and per-block state of the lock-step executor. Its size
/// depends on the kernel and the block, never on the launch: the undo log
/// holds one entry per element store the running block executes, at most
/// [`MAX_UNDO`].
#[derive(Debug)]
struct Lanes {
    /// Integer registers: lane `l` of register `r` is `i[r][l]`.
    i: Vec<[i64; BLOCK]>,
    /// Float registers, likewise.
    f: Vec<[f64; BLOCK]>,
    /// Per-lane program counters, once a branch splits a block.
    pc: [u32; BLOCK],
    /// Element indices of a fused indexed load.
    ix: [i64; BLOCK],
    /// Dot loops run once for a whole block since the scratch was made.
    dot_loops: u64,
    /// Ops run once for a whole group of lanes since the scratch was made.
    once: u64,
    /// Loads and stores that moved a slice since the scratch was made.
    slices: u64,
    /// The running block's overwritten elements, oldest first.
    undo: Vec<Undo>,
    /// The running block's count-site hits.
    hits: Vec<u64>,
}

impl Default for Lanes {
    fn default() -> Lanes {
        Lanes {
            i: Vec::new(),
            f: Vec::new(),
            pc: [0; BLOCK],
            ix: [0; BLOCK],
            dot_loops: 0,
            once: 0,
            slices: 0,
            undo: Vec::new(),
            hits: Vec::new(),
        }
    }
}

/// The dot loops a work-item runs alone ([`stream`]): both operands'
/// elements of one strip, widened, and two tallies for diagnostics.
#[derive(Debug)]
struct Strip {
    vals: [[f64; BLOCK]; 2],
    /// Loops of more than one strip.
    long: u64,
    /// Loops that failed on a progression leaving its window.
    faults: u64,
}

impl Default for Strip {
    fn default() -> Strip {
        Strip {
            vals: [[0.0; BLOCK]; 2],
            long: 0,
            faults: 0,
        }
    }
}

/// One element a lock-step store overwrote: its buffer slot, its position
/// in the slot's visible elements, and its raw bits (NaN payloads
/// included, so rolling back never round-trips a value through `f64`).
#[derive(Clone, Copy, Debug)]
struct Undo {
    buf: u16,
    at: usize,
    bits: u64,
}

/// The mask of the lanes of `sel` where `f` holds.
#[inline(always)]
fn lanes_where(sel: Sel, f: impl Fn(usize) -> bool) -> u64 {
    let mut m = 0u64;
    each_lane!(sel, |l| m |= u64::from(f(l)) << l);
    m
}

/// Copies lane `first` of `r` over the lanes of `sel`.
#[inline(always)]
fn broadcast<T: Copy>(r: &mut [T; BLOCK], first: usize, sel: Sel) {
    let v = r[first];
    match sel {
        Sel::All(width) => r[..width.min(BLOCK)].fill(v),
        Sel::Mask(_) => each_lane!(sel, |l| r[l] = v),
    }
}

/// Debug builds' check of an op about to run once: each register it reads
/// holds one value, bit for bit, across the lanes of `sel`.
fn assert_uniform(op: &Op, ir: &[[i64; BLOCK]], fr: &[[f64; BLOCK]], sel: Sel) {
    let first = sel.first();
    op.reads(|v| {
        let differ = match v {
            Val::I(r) => lanes_where(sel, |l| ir[r as usize][l] != ir[r as usize][first]),
            Val::F(r) => lanes_where(sel, |l| {
                fr[r as usize][l].to_bits() != fr[r as usize][first].to_bits()
            }),
        };
        assert!(
            differ == 0,
            "{op:?} runs once, but {v:?} differs in lanes {differ:#x}"
        );
    });
}

/// Debug builds' check of a slice access: its index steps by one from
/// lane to lane of `sel`.
fn assert_consecutive(idx: &[i64; BLOCK], sel: Sel) {
    let first = sel.first();
    let off = lanes_where(sel, |l| {
        idx[l] != idx[first].wrapping_add((l - first) as i64)
    });
    assert!(
        off == 0,
        "a slice's index is not consecutive in lanes {off:#x}"
    );
}

/// `r[d][l] = f(r[a][l])` over the lanes of `sel`.
#[inline(always)]
fn lanes1<T: Copy>(r: &mut [[T; BLOCK]], sel: Sel, d: u32, a: u32, f: impl Fn(T) -> T) {
    let (d, a) = (d as usize, a as usize);
    each_lane!(sel, |l| r[d][l] = f(r[a][l]));
}

/// `r[d][l] = f(r[a][l], r[b][l])` over the lanes of `sel`.
#[inline(always)]
fn lanes2<T: Copy>(r: &mut [[T; BLOCK]], sel: Sel, d: u32, a: u32, b: u32, f: impl Fn(T, T) -> T) {
    let (d, a, b) = (d as usize, a as usize, b as usize);
    each_lane!(sel, |l| r[d][l] = f(r[a][l], r[b][l]));
}

/// `r[d] = r[a] op r[b]` at precision `P` over the lanes of `sel`, with a
/// lane loop of its own per operator.
#[inline(never)]
fn fbin_lanes<P: Prec>(op: FloatBinOp, r: &mut [[f64; BLOCK]], sel: Sel, [d, a, b]: [FReg; 3]) {
    macro_rules! by_op {
        ($($o:ident)*) => {
            match op {
                $(FloatBinOp::$o => lanes2(r, sel, d, a, b, |x, y| P::bin(FloatBinOp::$o, x, y)),)*
            }
        };
    }
    by_op!(Add Sub Mul Div Min Max);
}

/// `r[d] = op(r[a])` at precision `P` over the lanes of `sel`, with a lane
/// loop of its own per function.
#[inline(never)]
fn fun_lanes<P: Prec>(op: UnaryFn, r: &mut [[f64; BLOCK]], sel: Sel, [d, a]: [FReg; 2]) {
    macro_rules! by_op {
        ($($o:ident)*) => {
            match op {
                $(UnaryFn::$o => lanes1(r, sel, d, a, |x| P::un(UnaryFn::$o, x)),)*
            }
        };
    }
    by_op!(Neg Fabs Sqrt Exp Log);
}

/// `r[d]` = `r[a]` rounded to precision `P` over the lanes of `sel`.
#[inline(never)]
fn cvt_lanes<P: Prec>(r: &mut [[f64; BLOCK]], sel: Sel, [d, a]: [FReg; 2]) {
    lanes1(r, sel, d, a, P::round);
}

/// `dst[l]` = integer `src[l]` rounded once to precision `P`, over the
/// lanes of `sel`.
#[inline(never)]
fn itof_lanes<P: Prec>(src: &[i64; BLOCK], dst: &mut [f64; BLOCK], sel: Sel) {
    each_lane!(sel, |l| dst[l] = P::from_int(src[l]));
}

/// `r[d] = r[acc] + r[a]·r[b]` over the lanes of `sel`, the product
/// rounded at `M` and the sum at `A`.
#[inline(never)]
fn mul_acc_lanes<M: Prec, A: Prec>(r: &mut [[f64; BLOCK]], sel: Sel, [d, acc, a, b]: [FReg; 4]) {
    let (d, acc, a, b) = (d as usize, acc as usize, a as usize, b as usize);
    each_lane!(sel, |l| {
        let m = M::bin(FloatBinOp::Mul, r[a][l], r[b][l]);
        r[d][l] = A::bin(FloatBinOp::Add, r[acc][l], m);
    });
}

/// A fused [`Op::DotStep`] for the lanes of `sel`: both operands gathered
/// over the lanes (each index bounds-checked), then the step's lane loop
/// at its precisions. An out-of-bounds read is an error before any
/// register is written, after which the block replays item by item.
#[inline(never)]
fn dot_step_lanes(
    d: &DotStepArgs,
    ir: &[[i64; BLOCK]],
    fr: &mut [[f64; BLOCK]],
    ix: &mut [i64; BLOCK],
    mem: &Mem<'_>,
    sel: Sel,
) -> Result<(), ExecError> {
    let mut vals = [[0.0; BLOCK]; 2];
    let operands = [(d.buf1, [d.a1, d.b1, d.c1]), (d.buf2, [d.a2, d.b2, d.c2])];
    for ((buf, [a, b, c]), v) in operands.into_iter().zip(&mut vals) {
        let (a, b, c) = (&ir[a as usize], &ir[b as usize], &ir[c as usize]);
        each_lane!(sel, |l| ix[l] = a[l].wrapping_mul(b[l]).wrapping_add(c[l]));
        mem.load_lanes(buf, ix, v, sel)?;
    }
    let mut sum = fr[d.acc as usize];
    d.step_lanes()(&mut sum, &vals, sel);
    let dst = &mut fr[d.dst as usize];
    each_lane!(sel, |l| dst[l] = sum[l]);
    Ok(())
}

/// One dot-product step: both indexed loads (bounds-checked, in operand
/// order), the product rounded at `pm`, its sum with `acc` at `pa`, then
/// converted to `post`. `reg` reads an integer register.
#[inline(always)]
fn dot_step(
    d: &DotStepArgs,
    reg: impl Fn(IReg) -> i64,
    acc: f64,
    mem: &Mem<'_>,
) -> Result<f64, ExecError> {
    let i1 = reg(d.a1).wrapping_mul(reg(d.b1)).wrapping_add(reg(d.c1));
    let v1 = mem.load(d.buf1, i1)?;
    let i2 = reg(d.a2).wrapping_mul(reg(d.b2)).wrapping_add(reg(d.c2));
    let v2 = mem.load(d.buf2, i2)?;
    let m = apply_fbin(d.pm, FloatBinOp::Mul, v1, v2);
    Ok(round_to(d.post, apply_fbin(d.pa, FloatBinOp::Add, acc, m)))
}

/// The trip count of a loop whose counter counts up by one from `k`
/// while it is below `end`, a bound read once (as [`Stmt::For`] makes
/// every loop), and the counter at its exit.
#[inline(always)]
fn loop_trips(k: i64, end: i64) -> (u64, i64) {
    if k < end {
        (end.wrapping_sub(k) as u64, end)
    } else {
        (0, k)
    }
}

/// Runs a fused dot-product loop to its exit from accumulator `acc` and
/// returns the counter at the exit, the sum and the trip count, as the
/// unfused compare, [`dot_step`] and back-edge would: the same reads, the
/// same roundings in the same order, and the error of the first read
/// outside an operand's buffer. Only the counter and the accumulator
/// change inside the loop, so every other register is read once, here,
/// and each operand's index moves by a fixed stride: its index at the
/// first trip and its stride are its progression, which [`stream`]
/// checks once.
#[inline(always)]
fn dot_loop(
    l: &DotLoopArgs,
    reg: impl Fn(IReg) -> i64,
    acc: f64,
    mem: &Mem<'_>,
    strip: &mut Strip,
) -> Result<(i64, f64, u64), ExecError> {
    let d = &l.step;
    let k = reg(l.var);
    // An index operand is the counter itself or a loop invariant.
    let index = |[a, b, c]: [IReg; 3], k: i64| {
        let at = |r: IReg| if r == l.var { k } else { reg(r) };
        at(a).wrapping_mul(at(b)).wrapping_add(at(c))
    };
    let progression = |operand| {
        let first = index(operand, k);
        (first, index(operand, k.wrapping_add(1)).wrapping_sub(first))
    };
    let operands = [
        progression([d.a1, d.b1, d.c1]),
        progression([d.a2, d.b2, d.c2]),
    ];
    stream(l, loop_trips(k, reg(l.end)), operands, acc, mem, strip)
}

/// The trips of [`dot_loop`], `trips` of them ending with the counter at
/// `exit`, over the operands' progressions `(first, stride)`. A
/// progression that leaves its window fails the loop before any trip,
/// with the error of its first read outside: the lowest trip's, and
/// operand 1's on a tie, as each trip reads it first. Otherwise each strip
/// of up to [`BLOCK`] trips reads both operands, one element-type dispatch
/// each, into the worker's strip buffer, and folds into the sum at the
/// step's precisions ([`DotStepArgs::strip_trips`]).
#[inline(never)]
fn stream(
    l: &DotLoopArgs,
    (trips, exit): (u64, i64),
    [(f1, s1), (f2, s2)]: [(i64, i64); 2],
    mut acc: f64,
    mem: &Mem<'_>,
    strip: &mut Strip,
) -> Result<(i64, f64, u64), ExecError> {
    if trips == 0 {
        return Ok((exit, acc, 0));
    }
    let d = &l.step;
    let (w1, w2) = (mem.span(d.buf1), mem.span(d.buf2));
    let fault = match (w1.exit(f1, s1, trips), w2.exit(f2, s2, trips)) {
        (None, None) => None,
        (Some(t1), Some(t2)) if t2 < t1 => Some(w2.outside_at(f2, s2, t2)),
        (Some(t1), _) => Some(w1.outside_at(f1, s1, t1)),
        (None, Some(t2)) => Some(w2.outside_at(f2, s2, t2)),
    };
    if let Some(e) = fault {
        strip.faults += 1;
        return Err(e);
    }
    let fold = d.strip_trips();
    let (mut p1, mut p2) = (f1.wrapping_sub(w1.lo), f2.wrapping_sub(w2.lo));
    let mut left = trips;
    while left > 0 {
        let n = left.min(BLOCK as u64) as usize;
        let [v1, v2] = &mut strip.vals;
        mem.widen_strip(d.buf1, (p1, s1), &mut v1[..n]);
        mem.widen_strip(d.buf2, (p2, s2), &mut v2[..n]);
        acc = fold(acc, &strip.vals, n);
        p1 = p1.wrapping_add(s1.wrapping_mul(n as i64));
        p2 = p2.wrapping_add(s2.wrapping_mul(n as i64));
        left -= n as u64;
    }
    strip.long += u64::from(trips > BLOCK as u64);
    Ok((exit, acc, trips))
}

/// One strip of [`stream`]: trip `t < n` adds `v1[t]·v2[t]` to `acc`
/// with the roundings of [`dot_step`], its precisions `M`, `A` and `Q`
/// fixed, so a loop picks its fold once, not a precision per trip.
#[inline(never)]
fn strip_trips<M: Prec, A: Prec, Q: Prec>(
    mut acc: f64,
    [v1, v2]: &[[f64; BLOCK]; 2],
    n: usize,
) -> f64 {
    for (&x, &y) in v1[..n].iter().zip(&v2[..n]) {
        acc = rounded_step::<M, A, Q>(acc, x, y);
    }
    acc
}

/// `out[t]` = element `at + t·stride` of `e`, widened: one strip of a
/// dot-loop operand whose progression lies in `e`.
#[inline(never)]
fn widen_strip<T: Elem>(e: &[T], (at, stride): (i64, i64), out: &mut [f64]) {
    let mut p = at;
    for v in out {
        *v = e[p as usize].widen();
        p = p.wrapping_add(stride);
    }
}

/// [`strip_trips`] at some precisions.
type StripTrips = fn(f64, &[[f64; BLOCK]; 2], usize) -> f64;

/// [`step_lanes`] at some precisions.
type StepLanes = fn(&mut [f64; BLOCK], &[[f64; BLOCK]; 2], Sel);

impl DotStepArgs {
    /// The fold of one strip of a work-item's dot loop at this step's
    /// precisions.
    fn strip_trips(&self) -> StripTrips {
        with_step_precs!(self, |M, A, Q| strip_trips::<M, A, Q> as StripTrips)
    }

    /// The lane loop of one trip at this step's precisions.
    fn step_lanes(&self) -> StepLanes {
        with_step_precs!(self, |M, A, Q| step_lanes::<M, A, Q> as StepLanes)
    }
}

/// A fused dot loop that runs once for all the lanes of a block: the
/// lanes agree on the counter and the bound, so they make the same trips,
/// and each lane's operand indices move by fixed strides in the wrapping
/// ring of the VM's integers.
struct DotLanes {
    /// The counter at entry.
    k: i64,
    /// The bound.
    end: i64,
    /// The two operands' reads, in operand order.
    operands: [Reads; 2],
}

/// One operand of a lock-step dot loop: lane `l` reads element `at[l]`
/// this trip and `at[l] + step[l]` the next. Once [`Reads::enter`] has
/// checked the progressions, `at` holds positions in the window.
struct Reads {
    at: [i64; BLOCK],
    step: [i64; BLOCK],
    /// The first lane, when every lane reads the first lane's element on
    /// every trip.
    uniform: Option<usize>,
}

impl DotLanes {
    /// Fused dot loop `lp` over the lanes of `sel`, or `None` when the
    /// lanes disagree on the counter or the bound; those lanes run the
    /// loop one at a time.
    fn of(lp: &DotLoopArgs, ir: &[[i64; BLOCK]], sel: Sel) -> Option<DotLanes> {
        let l0 = sel.first();
        let (var, end) = (&ir[lp.var as usize], &ir[lp.end as usize]);
        let (k, bound) = (var[l0], end[l0]);
        let mut agree = true;
        each_lane!(sel, |l| agree &= var[l] == k && end[l] == bound);
        if !agree {
            return None;
        }
        let d = &lp.step;
        let next = k.wrapping_add(1);
        let reads = |[a, b, c]: [IReg; 3]| {
            let at = |r: IReg, l: usize, k: i64| if r == lp.var { k } else { ir[r as usize][l] };
            let index = |l: usize, k: i64| {
                at(a, l, k)
                    .wrapping_mul(at(b, l, k))
                    .wrapping_add(at(c, l, k))
            };
            let mut r = Reads {
                at: [0; BLOCK],
                step: [0; BLOCK],
                uniform: None,
            };
            let mut same = true;
            each_lane!(sel, |l| {
                r.at[l] = index(l, k);
                r.step[l] = index(l, next).wrapping_sub(r.at[l]);
                same &= (r.at[l], r.step[l]) == (r.at[l0], r.step[l0]);
            });
            r.uniform = same.then_some(l0);
            r
        };
        Some(DotLanes {
            k,
            end: bound,
            operands: [reads([d.a1, d.b1, d.c1]), reads([d.a2, d.b2, d.c2])],
        })
    }
}

impl Reads {
    /// Checks each lane's progression over `trips > 0` trips against
    /// window `span` once, and turns its index into a position in the
    /// window. A progression that leaves the window is an error, after
    /// which the block replays item by item.
    fn enter(&mut self, span: &Span<'_>, trips: u64, sel: Sel) -> Result<(), ExecError> {
        let mut enter = |l: usize| match span.exit(self.at[l], self.step[l], trips) {
            None => {
                self.at[l] = self.at[l].wrapping_sub(span.lo);
                Ok(())
            }
            Some(t) => Err(span.outside_at(self.at[l], self.step[l], t)),
        };
        match self.uniform {
            Some(l0) => enter(l0),
            None => {
                each_lane!(sel, |l| enter(l)?);
                Ok(())
            }
        }
    }

    /// One trip's reads from window elements `e` into `dst`, for each
    /// lane of `sel` (one read for a uniform operand), after which each
    /// lane's position moves on to the next trip's.
    #[inline(always)]
    fn read<T: Elem>(&mut self, e: &[T], dst: &mut [f64; BLOCK], sel: Sel) {
        match self.uniform {
            Some(l0) => {
                dst.fill(e[self.at[l0] as usize].widen());
                self.at[l0] = self.at[l0].wrapping_add(self.step[l0]);
            }
            None => each_lane!(sel, |l| {
                dst[l] = e[self.at[l] as usize].widen();
                self.at[l] = self.at[l].wrapping_add(self.step[l]);
            }),
        }
    }
}

/// Runs lock-step dot loop `lanes` of `lp` for the lanes of `sel` over
/// the operands' windows `w1` and `w2`, summing into `acc` in place, and
/// returns the counter at the exit and the trip count. Each lane's
/// progressions are checked once ([`Reads::enter`]); the trips then read
/// by position, and each lane's sum takes the roundings of [`dot_loop`]
/// in the same trip order.
fn dot_trips<T1: Elem, T2: Elem>(
    lp: &DotLoopArgs,
    lanes: &mut DotLanes,
    (w1, w2): (&Window<'_, T1>, &Window<'_, T2>),
    acc: &mut [f64; BLOCK],
    sel: Sel,
) -> Result<(i64, u64), ExecError> {
    let (trips, exit) = loop_trips(lanes.k, lanes.end);
    if trips == 0 {
        return Ok((exit, 0));
    }
    let [r1, r2] = &mut lanes.operands;
    r1.enter(&w1.span(), trips, sel)?;
    r2.enter(&w2.span(), trips, sel)?;
    let step = lp.step.step_lanes();
    let mut vals = [[0.0; BLOCK]; 2];
    let (e1, e2) = (w1.elems(), w2.elems());
    for _ in 0..trips {
        r1.read(e1, &mut vals[0], sel);
        r2.read(e2, &mut vals[1], sel);
        step(acc, &vals, sel);
    }
    Ok((exit, trips))
}

/// One trip's arithmetic of a lock-step dot loop, or a lock-step
/// [`Op::DotStep`]: lane `l` of `sel` adds `v1[l]·v2[l]` to `acc[l]` with
/// the roundings of [`dot_step`], its precisions `M`, `A` and `Q` fixed,
/// so a loop picks its lane loop once ([`DotStepArgs::step_lanes`]), not
/// a precision per lane. Kept out of line, each exists once, not once per
/// pair of element types.
#[inline(never)]
fn step_lanes<M: Prec, A: Prec, Q: Prec>(
    acc: &mut [f64; BLOCK],
    [v1, v2]: &[[f64; BLOCK]; 2],
    sel: Sel,
) {
    each_lane!(sel, |l| acc[l] =
        rounded_step::<M, A, Q>(acc[l], v1[l], v2[l]));
}

/// An element type of a [`FloatVec`].
trait Elem: Copy {
    /// The value, exactly, as `f64`.
    fn widen(self) -> f64;
    /// `v` rounded to this type, exactly like [`FloatVec::set`].
    fn narrow(v: f64) -> Self;
    /// The raw bit pattern.
    fn bits(self) -> u64;
    /// The value with raw bit pattern `bits`.
    fn from_bits(bits: u64) -> Self;
}

impl Elem for F16 {
    fn widen(self) -> f64 {
        self.to_f64()
    }
    fn narrow(v: f64) -> F16 {
        F16::from_f64(v)
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn from_bits(bits: u64) -> F16 {
        F16::from_bits(bits as u16)
    }
}

impl Elem for f32 {
    fn widen(self) -> f64 {
        f64::from(self)
    }
    fn narrow(v: f64) -> f32 {
        v as f32
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn from_bits(bits: u64) -> f32 {
        f32::from_bits(bits as u32)
    }
}

impl Elem for f64 {
    fn widen(self) -> f64 {
        self
    }
    fn narrow(v: f64) -> f64 {
        v
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
    fn from_bits(bits: u64) -> f64 {
        f64::from_bits(bits)
    }
}

/// Elements `[lo, lo + n)` of buffer `name`, which holds `len` elements:
/// a whole buffer (`lo = 0`), or a parallel chunk's carved window.
struct Window<'a, T> {
    name: &'a str,
    len: usize,
    lo: i64,
    elems: Elems<'a, T>,
}

/// A window's elements: writable, or a whole buffer no chunk stores to,
/// shared read-only by the chunks of a parallel run.
enum Elems<'a, T> {
    Mut(&'a mut [T]),
    Shared(&'a [T]),
}

/// The position of index `i` in a window of `n` elements: the
/// sequential out-of-bounds error outside the buffer, an isolation error
/// outside the window.
#[inline(always)]
fn locate(name: &str, len: usize, lo: i64, n: usize, i: i64) -> Result<usize, ExecError> {
    match usize::try_from(i.wrapping_sub(lo)) {
        Ok(k) if k < n => Ok(k),
        _ => Err(outside(name, len, i)),
    }
}

/// The error of an access to index `i` outside a window of buffer `name`
/// (see [`locate`]).
#[cold]
fn outside(name: &str, len: usize, i: i64) -> ExecError {
    if i < 0 || i as usize >= len {
        ExecError::OutOfBounds {
            buf: name.to_owned(),
            index: i,
            len,
        }
    } else {
        ExecError::KindError(
            "parallel chunk accessed a stored buffer outside its proven interval".to_owned(),
        )
    }
}

impl<T> Elems<'_, T> {
    fn slice(&self) -> &[T] {
        match self {
            Elems::Mut(e) => e,
            Elems::Shared(e) => e,
        }
    }
}

impl<T: Elem> Window<'_, T> {
    fn elems(&self) -> &[T] {
        self.elems.slice()
    }

    #[inline(always)]
    fn get(&self, i: i64) -> Result<f64, ExecError> {
        let e = self.elems();
        Ok(e[locate(self.name, self.len, self.lo, e.len(), i)?].widen())
    }

    /// Rounds `v` into element `i`.
    #[inline(always)]
    fn set(&mut self, i: i64, v: f64) -> Result<(), ExecError> {
        let Elems::Mut(e) = &mut self.elems else {
            return Err(shared_store());
        };
        e[locate(self.name, self.len, self.lo, e.len(), i)?] = T::narrow(v);
        Ok(())
    }

    /// `dst[l] = elem(idx[l])` for each lane of `sel`.
    #[inline(always)]
    fn gather(
        &self,
        idx: &[i64; BLOCK],
        dst: &mut [f64; BLOCK],
        sel: Sel,
    ) -> Result<(), ExecError> {
        let e = self.elems();
        each_lane!(sel, |l| {
            dst[l] = e[locate(self.name, self.len, self.lo, e.len(), idx[l])?].widen();
        });
        Ok(())
    }

    /// `dst[l]` = element `first + (l - l0)` for each lane `l` of `sel`,
    /// `l0` its lowest: a consecutive index, its span checked once.
    #[inline(always)]
    fn read_run(&self, first: i64, dst: &mut [f64; BLOCK], sel: Sel) -> Result<(), ExecError> {
        let at = self.span().run(first, sel)?;
        let e = self.elems();
        match sel {
            Sel::All(width) => {
                let n = width.min(BLOCK);
                for (d, v) in dst[..n].iter_mut().zip(&e[at..at + n]) {
                    *d = v.widen();
                }
            }
            Sel::Mask(_) => {
                let l0 = sel.first();
                each_lane!(sel, |l| dst[l] = e[at + (l - l0)].widen());
            }
        }
        Ok(())
    }

    /// Rounds `v[l]` into element `first + (l - l0)` for each lane `l` of
    /// `sel`, `l0` its lowest, in lane order, handing each element's old
    /// bits to `log` first: a consecutive index, its span checked once.
    #[inline(always)]
    fn write_run(
        &mut self,
        first: i64,
        v: &[f64; BLOCK],
        sel: Sel,
        mut log: impl FnMut(usize, u64),
    ) -> Result<(), ExecError> {
        let at = self.span().run(first, sel)?;
        let Elems::Mut(e) = &mut self.elems else {
            return Err(shared_store());
        };
        match sel {
            Sel::All(width) => {
                let n = width.min(BLOCK);
                for (l, x) in e[at..at + n].iter_mut().enumerate() {
                    log(at + l, x.bits());
                    *x = T::narrow(v[l]);
                }
            }
            Sel::Mask(_) => {
                let l0 = sel.first();
                each_lane!(sel, |l| {
                    let p = at + (l - l0);
                    log(p, e[p].bits());
                    e[p] = T::narrow(v[l]);
                });
            }
        }
        Ok(())
    }

    /// Where this window lies in its buffer.
    fn span(&self) -> Span<'_> {
        Span {
            name: self.name,
            len: self.len,
            lo: self.lo,
            n: self.elems().len(),
        }
    }

    /// Rounds `v[l]` into element `idx[l]` for each lane of `sel`, in
    /// lane order, handing each element's old bits to `log` first.
    #[inline(always)]
    fn scatter(
        &mut self,
        idx: &[i64; BLOCK],
        v: &[f64; BLOCK],
        sel: Sel,
        mut log: impl FnMut(usize, u64),
    ) -> Result<(), ExecError> {
        let Elems::Mut(e) = &mut self.elems else {
            return Err(shared_store());
        };
        each_lane!(sel, |l| {
            let at = locate(self.name, self.len, self.lo, e.len(), idx[l])?;
            log(at, e[at].bits());
            e[at] = T::narrow(v[l]);
        });
        Ok(())
    }

    /// Writes logged bits back.
    fn put_back(&mut self, u: Undo) {
        if let Elems::Mut(e) = &mut self.elems {
            e[u.at] = T::from_bits(u.bits);
        }
    }
}

/// Where a [`Window`] lies, whatever its element type: elements
/// `[lo, lo + n)` of buffer `name`, which holds `len`.
#[derive(Clone, Copy)]
struct Span<'a> {
    name: &'a str,
    len: usize,
    lo: i64,
    n: usize,
}

impl Span<'_> {
    /// Whether index `i` lies in the window (as [`locate`] decides).
    #[inline(always)]
    fn holds(&self, i: i64) -> bool {
        (i.wrapping_sub(self.lo) as u64) < self.n as u64
    }

    /// The first of `trips > 0` trips whose index `first + t·stride`
    /// (wrapping) lies outside the window, if any. When both ends lie
    /// inside and checked arithmetic reaches the last from the first, so
    /// does every index between them.
    #[inline(always)]
    fn exit(&self, first: i64, stride: i64, trips: u64) -> Option<u64> {
        let last = i64::try_from(trips - 1)
            .ok()
            .and_then(|t| t.checked_mul(stride))
            .and_then(|d| first.checked_add(d));
        match last {
            Some(last) if self.holds(first) && self.holds(last) => None,
            _ => self.first_exit(first, stride, trips),
        }
    }

    /// [`Span::exit`] when the ends did not settle it. A progression that
    /// starts inside moves `|stride|` a trip toward one end of the window
    /// and leaves it once it passes that end, before any index wraps.
    #[cold]
    fn first_exit(&self, first: i64, stride: i64, trips: u64) -> Option<u64> {
        let inside = if !self.holds(first) {
            0
        } else if stride == 0 {
            return None;
        } else {
            let room = if stride > 0 {
                self.lo + (self.n as i64 - 1) - first
            } else {
                first - self.lo
            };
            room as u64 / stride.unsigned_abs() + 1
        };
        (inside < trips).then_some(inside)
    }

    /// The window position of index `first`, when the lanes of `sel` from
    /// its lowest to its highest hold `first`, `first + 1`, … and every
    /// one of those indices lies in the window; otherwise the error of the
    /// lowest outside.
    #[inline(always)]
    fn run(&self, first: i64, sel: Sel) -> Result<usize, ExecError> {
        let n = (sel.last() - sel.first() + 1) as u64;
        match self.exit(first, 1, n) {
            None => Ok(first.wrapping_sub(self.lo) as usize),
            Some(t) => Err(self.outside_at(first, 1, t)),
        }
    }

    /// The error of trip `t`'s read, outside the window, of progression
    /// `(first, stride)`, at the wrapped index the trip computes.
    #[cold]
    fn outside_at(&self, first: i64, stride: i64, t: u64) -> ExecError {
        let i = first.wrapping_add((t as i64).wrapping_mul(stride));
        outside(self.name, self.len, i)
    }
}

/// A chunk stored to a buffer the analysis shared read-only: the verdict
/// was wrong, and the error sends the launch back to sequential
/// execution.
fn shared_store() -> ExecError {
    ExecError::KindError("parallel chunk stored to a shared read-only buffer".to_owned())
}

/// One bound buffer as a run sees it, by element type.
enum Slot<'a> {
    F16(Window<'a, F16>),
    F32(Window<'a, f32>),
    F64(Window<'a, f64>),
}

/// Binds `$v` to the elements of [`FloatVec`] `$data` and `$slot` to the
/// matching [`Slot`] constructor, then evaluates `$body`, once per element
/// type.
macro_rules! by_elem {
    ($data:expr, |$v:ident, $slot:ident| $body:expr) => {
        match $data {
            FloatVec::F16($v) => {
                let $slot = Slot::F16;
                $body
            }
            FloatVec::F32($v) => {
                let $slot = Slot::F32;
                $body
            }
            FloatVec::F64($v) => {
                let $slot = Slot::F64;
                $body
            }
        }
    };
}

/// Evaluates `$body` with `$w` bound to the [`Window`] of [`Slot`]
/// `$slot`, once per element type.
macro_rules! on_window {
    ($slot:expr, |$w:ident| $body:expr) => {
        match $slot {
            Slot::F16($w) => $body,
            Slot::F32($w) => $body,
            Slot::F64($w) => $body,
        }
    };
}

/// The bound buffers of one run, in binding order.
enum Mem<'a> {
    /// A launch on the calling thread: every buffer whole and writable.
    Whole(&'a mut [(String, FloatVec)]),
    /// A parallel chunk: its carved windows of the stored buffers and
    /// shared views of the rest.
    Chunk(Vec<Slot<'a>>),
}

/// All of buffer `name` as one window. A launch on the calling thread
/// builds one per access: a run's buffers cost no allocation.
#[inline(always)]
fn whole<'b, T>(name: &'b str, elems: Elems<'b, T>) -> Window<'b, T> {
    let len = elems.slice().len();
    Window {
        name,
        len,
        lo: 0,
        elems,
    }
}

impl Mem<'_> {
    /// Reads element `i` of buffer slot `buf`, widened to f64.
    #[inline(always)]
    fn load(&self, buf: u16, i: i64) -> Result<f64, ExecError> {
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &bufs[buf as usize];
                by_elem!(data, |v, _slot| whole(name, Elems::Shared(v)).get(i))
            }
            Mem::Chunk(slots) => on_window!(&slots[buf as usize], |w| w.get(i)),
        }
    }

    /// Writes `v` to element `i` of buffer slot `buf`, rounding to the
    /// buffer's precision exactly like [`FloatVec::set`].
    #[inline(always)]
    fn store(&mut self, buf: u16, i: i64, v: f64) -> Result<(), ExecError> {
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &mut bufs[buf as usize];
                by_elem!(data, |e, _slot| whole(name, Elems::Mut(e)).set(i, v))
            }
            Mem::Chunk(slots) => on_window!(&mut slots[buf as usize], |w| w.set(i, v)),
        }
    }

    /// [`Mem::load`]s element `idx[l]` into `dst[l]` for each lane of
    /// `sel`.
    #[inline(always)]
    fn load_lanes(
        &self,
        buf: u16,
        idx: &[i64; BLOCK],
        dst: &mut [f64; BLOCK],
        sel: Sel,
    ) -> Result<(), ExecError> {
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &bufs[buf as usize];
                by_elem!(data, |v, _slot| whole(name, Elems::Shared(v))
                    .gather(idx, dst, sel))
            }
            Mem::Chunk(slots) => on_window!(&slots[buf as usize], |w| w.gather(idx, dst, sel)),
        }
    }

    /// [`Mem::store`]s `src[l]` to element `idx[l]` for each lane of
    /// `sel`, in lane order, logging the bits each store overwrites.
    #[inline(always)]
    fn store_lanes(
        &mut self,
        buf: u16,
        idx: &[i64; BLOCK],
        src: &[f64; BLOCK],
        sel: Sel,
        undo: &mut Vec<Undo>,
    ) -> Result<(), ExecError> {
        let log = |at, bits| undo.push(Undo { buf, at, bits });
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &mut bufs[buf as usize];
                by_elem!(data, |v, _slot| whole(name, Elems::Mut(v))
                    .scatter(idx, src, sel, log))
            }
            Mem::Chunk(slots) => {
                on_window!(&mut slots[buf as usize], |w| w.scatter(idx, src, sel, log))
            }
        }
    }

    /// [`Mem::load`]s element `first + (l - l0)` into `dst[l]` for each
    /// lane `l` of `sel`, `l0` its lowest ([`Window::read_run`]).
    #[inline(never)]
    fn load_run(
        &self,
        buf: u16,
        first: i64,
        dst: &mut [f64; BLOCK],
        sel: Sel,
    ) -> Result<(), ExecError> {
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &bufs[buf as usize];
                by_elem!(data, |v, _slot| whole(name, Elems::Shared(v))
                    .read_run(first, dst, sel))
            }
            Mem::Chunk(slots) => on_window!(&slots[buf as usize], |w| w.read_run(first, dst, sel)),
        }
    }

    /// [`Mem::store`]s `src[l]` to element `first + (l - l0)` for each
    /// lane `l` of `sel`, `l0` its lowest, in lane order, logging the bits
    /// each store overwrites ([`Window::write_run`]).
    #[inline(never)]
    fn store_run(
        &mut self,
        buf: u16,
        first: i64,
        src: &[f64; BLOCK],
        sel: Sel,
        undo: &mut Vec<Undo>,
    ) -> Result<(), ExecError> {
        let log = |at, bits| undo.push(Undo { buf, at, bits });
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &mut bufs[buf as usize];
                by_elem!(data, |v, _slot| whole(name, Elems::Mut(v))
                    .write_run(first, src, sel, log))
            }
            Mem::Chunk(slots) => {
                on_window!(&mut slots[buf as usize], |w| w
                    .write_run(first, src, sel, log))
            }
        }
    }

    /// Where buffer slot `buf`'s window lies.
    #[inline(always)]
    fn span(&self, buf: u16) -> Span<'_> {
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &bufs[buf as usize];
                let len = data.len();
                Span {
                    name,
                    len,
                    lo: 0,
                    n: len,
                }
            }
            Mem::Chunk(slots) => on_window!(&slots[buf as usize], |w| w.span()),
        }
    }

    /// [`widen_strip`] of buffer slot `buf` into `out`, from window
    /// position `at` by `stride` (`from`), with one dispatch on the
    /// element type.
    #[inline(always)]
    fn widen_strip(&self, buf: u16, from: (i64, i64), out: &mut [f64]) {
        match self {
            Mem::Whole(bufs) => {
                by_elem!(&bufs[buf as usize].1, |e, _slot| widen_strip(e, from, out));
            }
            Mem::Chunk(slots) => {
                on_window!(&slots[buf as usize], |w| widen_strip(w.elems(), from, out));
            }
        }
    }

    /// Runs fused dot loop `lp` once for the lanes of `sel` into their
    /// accumulators `acc` ([`dot_trips`]), with one dispatch on the
    /// operands' element types.
    fn dot_lanes(
        &self,
        lp: &DotLoopArgs,
        lanes: &mut DotLanes,
        acc: &mut [f64; BLOCK],
        sel: Sel,
    ) -> Result<(i64, u64), ExecError> {
        let (b1, b2) = (lp.step.buf1 as usize, lp.step.buf2 as usize);
        match self {
            Mem::Whole(bufs) => {
                let ((n1, d1), (n2, d2)) = (&bufs[b1], &bufs[b2]);
                by_elem!(d1, |e1, _slot| by_elem!(d2, |e2, _slot| dot_trips(
                    lp,
                    lanes,
                    (&whole(n1, Elems::Shared(e1)), &whole(n2, Elems::Shared(e2))),
                    acc,
                    sel
                )))
            }
            Mem::Chunk(slots) => on_window!(&slots[b1], |w1| on_window!(&slots[b2], |w2| {
                dot_trips(lp, lanes, (w1, w2), acc, sel)
            })),
        }
    }

    /// Writes a logged element's old bits back.
    fn put_back(&mut self, u: Undo) {
        match self {
            Mem::Whole(bufs) => {
                let (name, data) = &mut bufs[u.buf as usize];
                by_elem!(data, |v, _slot| whole(name, Elems::Mut(v)).put_back(u));
            }
            Mem::Chunk(slots) => on_window!(&mut slots[u.buf as usize], |w| w.put_back(u)),
        }
    }
}

/// Borrows every binding once for `chunks` concurrent chunks: each carved
/// stored buffer splits into per-chunk mutable windows, every other
/// buffer is a shared read-only view. `None` if a carve fails
/// (unreachable given the plan's monotonicity check).
fn carve<'a>(
    bufs: &'a mut [(String, FloatVec)],
    carved: &[(usize, Vec<(usize, usize)>)],
    chunks: usize,
) -> Option<Vec<Mem<'a>>> {
    let mut mems: Vec<Vec<Slot<'a>>> = (0..chunks)
        .map(|_| Vec::with_capacity(bufs.len()))
        .collect();
    for (slot, (name, data)) in bufs.iter_mut().enumerate() {
        let name: &'a str = name;
        match carved.iter().find(|(s, _)| *s == slot) {
            None => {
                let data: &'a FloatVec = data;
                for m in &mut mems {
                    m.push(by_elem!(data, |v, slot| slot(whole(
                        name,
                        Elems::Shared(v)
                    ))));
                }
            }
            Some((_, ivs)) => {
                let windows: Vec<Slot<'a>> = by_elem!(data, |v, slot| split(name, v, ivs)?
                    .into_iter()
                    .map(slot)
                    .collect());
                for (m, w) in mems.iter_mut().zip(windows) {
                    m.push(w);
                }
            }
        }
    }
    Some(mems.into_iter().map(Mem::Chunk).collect())
}

/// Splits buffer `name`'s elements into disjoint writable windows, one
/// per half-open interval, in interval order. Intervals must be monotone
/// (all ascending or all descending) and pairwise disjoint; returns
/// `None` otherwise.
fn split<'a, T>(
    name: &'a str,
    elems: &'a mut [T],
    intervals: &[(usize, usize)],
) -> Option<Vec<Window<'a, T>>> {
    let len = elems.len();
    // Carve in ascending-lo order regardless of chunk order (the axis
    // coefficient may be negative), then put windows back in chunk
    // order.
    let mut order: Vec<(usize, (usize, usize))> = intervals.iter().copied().enumerate().collect();
    order.sort_by_key(|&(_, (lo, _))| lo);
    let mut rest = elems;
    let mut consumed = 0usize;
    let mut placed = Vec::with_capacity(order.len());
    for (chunk, (lo, hi)) in order {
        if lo < consumed || hi > consumed + rest.len() || hi < lo {
            return None;
        }
        let (_, tail) = rest.split_at_mut(lo - consumed);
        let (seg, tail) = tail.split_at_mut(hi - lo);
        rest = tail;
        consumed = hi;
        placed.push((
            chunk,
            Window {
                name,
                len,
                lo: lo as i64,
                elems: Elems::Mut(seg),
            },
        ));
    }
    placed.sort_by_key(|&(chunk, _)| chunk);
    Some(placed.into_iter().map(|(_, w)| w).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;
    use crate::interp::run_kernel;
    use crate::typeck::check_kernel;

    /// Runs a kernel through both engines and asserts identical buffers
    /// and counts.
    fn assert_equiv(kernel: &Kernel, mut bufs: BufferMap, launch: &Launch) {
        check_kernel(kernel).unwrap();
        let mut bufs_vm = bufs.clone();
        let counts_interp = run_kernel(kernel, &mut bufs, launch).unwrap();
        let compiled = compile_kernel(kernel).unwrap();
        let counts_vm = compiled.run(&mut bufs_vm, launch).unwrap();
        assert_eq!(counts_interp, counts_vm, "operation counts must match");
        for (name, data) in &bufs {
            assert_eq!(
                data, &bufs_vm[name],
                "buffer `{name}` diverged between interpreter and VM"
            );
        }
    }

    fn saxpy(elem: Precision) -> Kernel {
        kernel("saxpy")
            .buffer("x", elem, Access::Read)
            .buffer("y", elem, Access::ReadWrite)
            .float_param_like("a", "x")
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_(
                    lt(var("i"), var("n")),
                    vec![store(
                        "y",
                        var("i"),
                        var("a") * load("x", var("i")) + load("y", var("i")),
                    )],
                ),
            ])
    }

    #[test]
    fn saxpy_equivalence_all_precisions() {
        for elem in Precision::ALL {
            let k = saxpy(elem);
            let n = 40usize;
            let mut bufs = BufferMap::new();
            let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 100.0).collect();
            let ys: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 100.0).collect();
            bufs.insert("x".into(), FloatVec::from_f64_slice(&xs, elem));
            bufs.insert("y".into(), FloatVec::from_f64_slice(&ys, elem));
            // Launch wider than n to exercise the guard.
            let launch = Launch::one_d(64).arg_float("a", 2.5).arg_int("n", n as i64);
            assert_equiv(&k, bufs, &launch);
        }
    }

    #[test]
    fn loops_casts_and_selects_are_equivalent() {
        let k = kernel("mix")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Single, Access::Read)
            .buffer("c", Precision::Half, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "j",
                    int(0),
                    var("n"),
                    vec![
                        let_("prod", load("a", var("j")) * load("b", var("j"))),
                        add_assign(
                            "acc",
                            select(
                                gt(var("prod"), flit(10.0)),
                                cast(Precision::Half, sqrt(var("prod"))),
                                cast(Precision::Half, var("prod")),
                            ),
                        ),
                    ],
                ),
                store("c", var("i"), var("acc") + cast_elem_of("c", var("i"))),
            ]);
        let n = 12usize;
        let mut bufs = BufferMap::new();
        let xs: Vec<f64> = (0..n).map(|i| 0.7 * i as f64).collect();
        bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, Precision::Double));
        bufs.insert("b".into(), FloatVec::from_f64_slice(&xs, Precision::Single));
        bufs.insert("c".into(), FloatVec::zeros(n, Precision::Half));
        let launch = Launch::one_d(n).arg_int("n", n as i64);
        assert_equiv(&k, bufs, &launch);
    }

    #[test]
    fn triangular_loops_and_two_d_ids_are_equivalent() {
        let k = kernel("tri")
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", flit(1.0)),
                for_(
                    "kk",
                    var("j") + int(1),
                    var("n"),
                    vec![assign("acc", var("acc") * flit(1.5) - flit(0.25))],
                ),
                if_else(
                    lt(var("i"), var("j")),
                    vec![store("c", var("i") * var("n") + var("j"), var("acc"))],
                    vec![store("c", var("j") * var("n") + var("i"), -var("acc"))],
                ),
            ]);
        let n = 9usize;
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(n * n, Precision::Single));
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        assert_equiv(&k, bufs, &launch);
    }

    #[test]
    fn out_of_bounds_is_reported_identically() {
        let k = kernel("oob")
            .buffer("x", Precision::Double, Access::Read)
            .body(vec![let_("v", load("x", global_id(0)))]);
        check_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::zeros(4, Precision::Double));
        let compiled = compile_kernel(&k).unwrap();
        let err = compiled.run(&mut bufs, &Launch::one_d(8)).unwrap_err();
        assert!(matches!(
            err,
            ExecError::OutOfBounds {
                index: 4,
                len: 4,
                ..
            }
        ));
        // Buffers are restored even on error.
        assert!(bufs.contains_key("x"));

        // Lane 37 of the second 64-lane block faults after every lane of
        // the block stored `y`: on a read-only load past the end of `w`,
        // then on a store past the end of `z`. The block rolls back and
        // replays item by item, so the error and the partial writes are
        // the interpreter's, bit for bit.
        for (w_len, z_len, buf) in [(101, 128, "w"), (128, 101, "z")] {
            let bufs = lane_fault_buffers(Precision::Double, w_len, z_len);
            let k = two_stores(Precision::Double);
            let launch = Launch::one_d(128);
            let compiled = compile_kernel(&k).unwrap();
            assert!(compiled.plan(&bufs, &launch, 1).lockstep());
            let err = compiled.run(&mut bufs.clone(), &launch).unwrap_err();
            assert!(
                matches!(err, ExecError::OutOfBounds { buf: ref b, index: 101, len: 101 } if b == buf),
                "{err:?}"
            );
            assert_equiv_bitwise(&k, &bufs, &launch);
        }
    }

    /// `y[i] = x[i]*2; z[i] = w[i]`: every lane of a block stores `y`
    /// before any touches `w` or `z`.
    fn two_stores(elem: Precision) -> Kernel {
        kernel("two")
            .buffer("x", elem, Access::Read)
            .buffer("w", elem, Access::Read)
            .buffer("y", elem, Access::Write)
            .buffer("z", elem, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("y", var("i"), load("x", var("i")) * flit(2.0)),
                store("z", var("i"), load("w", var("i"))),
            ])
    }

    /// Buffers for [`two_stores`] over 128 items, `w` and `z` cut to the
    /// given lengths; `y` starts out holding the binary16 NaN payloads
    /// 0x7C01 and 0xFE02 (or their widened values at other precisions).
    fn lane_fault_buffers(elem: Precision, w_len: usize, z_len: usize) -> BufferMap {
        let xs: Vec<f64> = (0..128).map(|i| f64::from(i) * 0.375 - 7.0).collect();
        let nans: Vec<F16> = (0..128)
            .map(|i| F16::from_bits(if i % 2 == 0 { 0x7C01 } else { 0xFE02 }))
            .collect();
        let y = match elem {
            Precision::Half => FloatVec::F16(nans),
            _ => {
                FloatVec::from_f64_slice(&nans.iter().map(|h| h.to_f64()).collect::<Vec<_>>(), elem)
            }
        };
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::from_f64_slice(&xs, elem));
        bufs.insert("w".into(), FloatVec::from_f64_slice(&xs[..w_len], elem));
        bufs.insert("y".into(), y);
        bufs.insert("z".into(), FloatVec::zeros(z_len, elem));
        bufs
    }

    #[test]
    fn missing_bindings_error_like_the_interpreter() {
        let k = saxpy(Precision::Double);
        let compiled = compile_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        assert!(matches!(
            compiled.run(&mut bufs, &Launch::one_d(1)),
            Err(ExecError::MissingBuffer(_))
        ));
        bufs.insert("x".into(), FloatVec::zeros(1, Precision::Double));
        bufs.insert("y".into(), FloatVec::zeros(1, Precision::Single));
        assert!(matches!(
            compiled.run(&mut bufs, &Launch::one_d(1)),
            Err(ExecError::BufferPrecisionMismatch { .. })
        ));
        bufs.insert("y".into(), FloatVec::zeros(1, Precision::Double));
        assert!(matches!(
            compiled.run(&mut bufs, &Launch::one_d(1)),
            Err(ExecError::MissingArg(_))
        ));
    }

    #[test]
    fn compiled_code_is_compact() {
        let k = saxpy(Precision::Double);
        let compiled = compile_kernel(&k).unwrap();
        assert!(compiled.code_len() < 40, "{} ops", compiled.code_len());
        assert_eq!(compiled.name(), "saxpy");
    }

    #[test]
    fn empty_loop_counts_match() {
        // A loop with zero trips: bounds evaluated, no body counts.
        let k = kernel("z")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![for_(
                "i",
                int(5),
                int(2),
                vec![store("c", var("i"), flit(0.0))],
            )]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(1, Precision::Double));
        assert_equiv(&k, bufs, &Launch::one_d(3));
    }

    #[test]
    fn malformed_kernels_compile_to_typed_errors() {
        // Unbound variable.
        let k = kernel("bad")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", int(0), var("ghost"))]);
        assert!(matches!(
            compile_kernel(&k),
            Err(ExecError::UnboundVar(n)) if n == "ghost"
        ));
        // Storing through a non-buffer parameter.
        let k = kernel("bad")
            .int_param("n")
            .body(vec![store("n", int(0), flit(1.0))]);
        assert!(matches!(
            compile_kernel(&k),
            Err(ExecError::NotABuffer(n)) if n == "n"
        ));
        // Float buffer index.
        let k = kernel("bad")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", flit(0.5), flit(1.0))]);
        assert!(matches!(compile_kernel(&k), Err(ExecError::KindError(_))));
        // Boolean operand in arithmetic.
        let k = kernel("bad")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", int(0), lt(int(0), int(1)) + flit(1.0))]);
        assert!(matches!(compile_kernel(&k), Err(ExecError::KindError(_))));
        // A cast to the element type of a buffer that does not exist.
        let k = kernel("bad")
            .buffer("c", Precision::Single, Access::Write)
            .body(vec![store("c", int(0), cast_elem_of("ghost", flit(1.0)))]);
        assert!(matches!(
            compile_kernel(&k),
            Err(ExecError::NotABuffer(n)) if n == "ghost"
        ));
        // Select arms that differ in kind: int/float, and booleans.
        let k = kernel("bad")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store(
                "c",
                int(0),
                select(lt(int(0), int(1)), int(3), flit(1.0)),
            )]);
        let mixed = ExecError::KindError("select arms disagree in kind".into());
        assert_eq!(compile_kernel(&k).unwrap_err(), mixed);
        let k = kernel("bad")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![if_(
                select(lt(int(0), int(1)), lt(int(0), int(1)), lt(int(1), int(0))),
                vec![store("c", int(0), flit(1.0))],
            )]);
        assert_eq!(compile_kernel(&k).unwrap_err(), mixed);
    }

    /// A GEMM-shaped kernel with `a`/`b` at `ab` and `c` at `c_elem`.
    fn mm(ab: Precision, c_elem: Precision) -> Kernel {
        kernel("mm")
            .buffer("a", ab, Access::Read)
            .buffer("b", ab, Access::Read)
            .buffer("c", c_elem, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("i"), var("n")),
                    vec![
                        let_acc("acc", "c", flit(0.0)),
                        for_(
                            "kk",
                            int(0),
                            var("n"),
                            vec![add_assign(
                                "acc",
                                load("a", var("i") * var("n") + var("kk"))
                                    * load("b", var("kk") * var("n") + var("j")),
                            )],
                        ),
                        store("c", var("i") * var("n") + var("j"), var("acc")),
                    ],
                ),
            ])
    }

    #[test]
    fn hot_loops_fuse_into_superinstructions() {
        // A GEMM-shaped inner loop must hit every fusion pattern on its
        // way to one fused-loop dispatch: the fused compare-branch head,
        // row-major indexed loads, the accumulator copy sunk into its
        // producer, and the counting back-edge. With double operands
        // summed into a half accumulator, the narrowing `Cvt` folds into
        // the dot step first.
        for c_elem in [Precision::Double, Precision::Half] {
            let compiled = compile_kernel(&mm(Precision::Double, c_elem)).unwrap();
            let count = |f: &dyn Fn(&Op) -> bool| compiled.ops.iter().filter(|o| f(o)).count();
            assert_eq!(
                count(&|o| matches!(o, Op::DotLoop { .. })),
                1,
                "inner loop of the {c_elem:?} accumulator: {:?}",
                compiled.ops
            );
            for (what, leftover) in [
                ("DotStep", count(&|o| matches!(o, Op::DotStep { .. }))),
                (
                    "CountAddJump",
                    count(&|o| matches!(o, Op::CountAddJump { .. })),
                ),
                ("Cvt", count(&|o| matches!(o, Op::Cvt { .. }))),
            ] {
                assert_eq!(leftover, 0, "{what} left unfused: {:?}", compiled.ops);
            }
        }
        let k = mm(Precision::Double, Precision::Double);
        let n = 6usize;
        let mut bufs = BufferMap::new();
        let xs: Vec<f64> = (0..n * n).map(|i| (i as f64).sin()).collect();
        bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, Precision::Double));
        bufs.insert("b".into(), FloatVec::from_f64_slice(&xs, Precision::Double));
        bufs.insert("c".into(), FloatVec::zeros(n * n, Precision::Double));
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        assert_equiv(&k, bufs, &launch);
    }

    /// Buffer contents as bit patterns, so NaN payloads compare exactly.
    fn bits(v: &FloatVec) -> Vec<u64> {
        match v {
            FloatVec::F16(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
            FloatVec::F32(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
            FloatVec::F64(xs) => xs.iter().map(|x| x.to_bits()).collect(),
        }
    }

    /// Runs a kernel through the interpreter, the sequential VM and the
    /// parallel VM at 2 and 8 threads, and asserts the same result (counts
    /// or error) and bit-identical buffers, partial writes included.
    fn assert_equiv_bitwise(kernel: &Kernel, bufs: &BufferMap, launch: &Launch) {
        check_kernel(kernel).unwrap();
        let mut want = bufs.clone();
        let want_result = format!("{:?}", run_kernel(kernel, &mut want, launch));
        let compiled = compile_kernel(kernel).unwrap();
        for threads in [1usize, 2, 8] {
            let mut got = bufs.clone();
            let result = if threads == 1 {
                compiled.run(&mut got, launch)
            } else {
                compiled.run_parallel(&mut got, launch, &mut VmScratch::new(), threads)
            };
            assert_eq!(format!("{result:?}"), want_result, "{threads} threads");
            for (name, data) in &want {
                assert_eq!(bits(data), bits(&got[name]), "`{name}`, {threads} threads");
            }
        }
    }

    #[test]
    fn a_block_its_undo_log_cannot_hold_replays_item_by_item() {
        // Every lane adds 1 to one element of `c` per trip, so a 64-lane
        // block of 1100 trips would log 70,400 entries, past `MAX_UNDO`:
        // the block rolls back and replays, and a store left applied or
        // a block left half run would show in `c`.
        let at = || var("k") * int(64) + global_id(0);
        let k = kernel("deep")
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(vec![for_(
                "k",
                int(0),
                var("n"),
                vec![store("c", at(), load("c", at()) + flit(1.0))],
            )]);
        let trips = 1100;
        let mut bufs = BufferMap::new();
        let cs: Vec<f64> = (0..64 * trips).map(|i| f64::from(i) * 0.5).collect();
        bufs.insert("c".into(), FloatVec::from_f64_slice(&cs, Precision::Double));
        let launch = Launch::one_d(64).arg_int("n", i64::from(trips));
        assert!(64 * trips as usize > MAX_UNDO);
        assert!(compile_kernel(&k)
            .unwrap()
            .plan(&bufs, &launch, 1)
            .lockstep());
        assert_equiv_bitwise(&k, &bufs, &launch);
    }

    #[test]
    fn half_nan_payloads_match_the_interpreter() {
        // f64 arithmetic leaves a NaN result's payload unspecified, so
        // NaN results must take the F16 operators, as in the interpreter.
        let k = kernel("nan")
            .buffer("x", Precision::Half, Access::Read)
            .buffer("y", Precision::Half, Access::Read)
            .buffer("s", Precision::Half, Access::Write)
            .buffer("p", Precision::Half, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("s", var("i"), load("x", var("i")) + load("y", var("i"))),
                store("p", var("i"), load("x", var("i")) * load("y", var("i"))),
            ]);
        let xs = [
            0x7C01u16, 0x7E02, 0xFE02, 0x7C01, 0x3C00, 0x7C00, 0x0000, 0x7E02,
        ];
        let ys = [
            0x7E02u16, 0x7C01, 0x7C01, 0x3C00, 0xFE02, 0xFC00, 0x7C00, 0x7E02,
        ];
        let n = 128usize;
        let half = |pattern: &[u16; 8]| {
            FloatVec::F16((0..n).map(|i| F16::from_bits(pattern[i % 8])).collect())
        };
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), half(&xs));
        bufs.insert("y".into(), half(&ys));
        bufs.insert("s".into(), FloatVec::zeros(n, Precision::Half));
        bufs.insert("p".into(), FloatVec::zeros(n, Precision::Half));
        assert_equiv_bitwise(&k, &bufs, &Launch::one_d(n));

        // The same payloads through a fused half dot-product loop, item
        // by item (8-wide rows) and in lock step (70-wide rows).
        for n in [8usize, 70] {
            let mut bufs = BufferMap::new();
            let mut a = vec![F16::from_f64(0.5); n * n];
            a[3] = F16::from_bits(0x7C01);
            a[n + 1] = F16::from_bits(0x7E02);
            let mut b = vec![F16::from_f64(0.25); n * n];
            b[2 * n + 5] = F16::from_bits(0x7E02);
            b[n + 1] = F16::from_bits(0x7C01);
            bufs.insert("a".into(), FloatVec::F16(a));
            bufs.insert("b".into(), FloatVec::F16(b));
            bufs.insert("c".into(), FloatVec::zeros(n * n, Precision::Half));
            let launch = Launch::two_d(n, n).arg_int("n", n as i64);
            let k = mm(Precision::Half, Precision::Half);
            assert_equiv_bitwise(&k, &bufs, &launch);
            assert_eq!(lockstep_dot_loops(&k, &bufs, &launch) > 0, n == 70);
        }

        // A lock-step block that faults at lane 37 after overwriting NaN
        // payloads must put back their exact bits, not values
        // round-tripped through f64 (which would quiet 0x7C01).
        for (w_len, z_len) in [(101, 128), (128, 101)] {
            let bufs = lane_fault_buffers(Precision::Half, w_len, z_len);
            let mut got = bufs.clone();
            let err = compile_kernel(&two_stores(Precision::Half))
                .unwrap()
                .run(&mut got, &Launch::one_d(128))
                .unwrap_err();
            assert!(matches!(err, ExecError::OutOfBounds { index: 101, .. }));
            let FloatVec::F16(y) = &got["y"] else {
                unreachable!()
            };
            assert_eq!(y[102].to_bits(), 0x7C01);
            assert_eq!(y[103].to_bits(), 0xFE02);
            assert_equiv_bitwise(&two_stores(Precision::Half), &bufs, &Launch::one_d(128));
        }
    }

    /// Runs `kernel` sequentially on a fresh scratch and returns how many
    /// fused dot loops ran once for a whole lock-step block.
    fn lockstep_dot_loops(kernel: &Kernel, bufs: &BufferMap, launch: &Launch) -> u64 {
        let mut scratch = VmScratch::new();
        let compiled = compile_kernel(kernel).unwrap();
        let _ = compiled.run_with_scratch(&mut bufs.clone(), launch, &mut scratch);
        scratch.lockstep_dot_loops()
    }

    /// `(int) e`.
    fn to_int(e: Expr) -> Expr {
        Expr::Cast {
            to: crate::TypeRef::Concrete(ScalarType::Int),
            arg: Box::new(e),
        }
    }

    /// [`gemm_buffers`] for [`mm`]: `a` and `b` at `ab`, `c` at `c_elem`,
    /// with NaNs of both signs where a product of two NaNs follows.
    fn mm_buffers(n: usize, ab: Precision, c_elem: Precision) -> BufferMap {
        let mut bufs = gemm_buffers(n, Precision::Double);
        let (pos, neg) = (
            f64::from_bits(0x7FF8_0000_0000_0123),
            f64::from_bits(0xFFF0_0000_0000_0456),
        );
        let mut a = bufs["a"].to_f64_vec();
        let mut b = bufs["b"].to_f64_vec();
        // a[1][3]·b[3][2], a[1][3]·b[3][n-4] and a[5][n-10]·b[n-10][10].
        a[n + 3] = pos;
        a[5 * n + n - 10] = neg;
        b[3 * n + 2] = neg;
        b[3 * n + n - 4] = neg;
        b[(n - 10) * n + 10] = pos;
        bufs.insert("a".into(), FloatVec::from_f64_slice(&a, ab));
        bufs.insert("b".into(), FloatVec::from_f64_slice(&b, ab));
        bufs.insert("c".into(), FloatVec::zeros(n * n, c_elem));
        bufs
    }

    #[test]
    fn both_nan_operands_give_the_left_one_quieted() {
        // With two NaN operands, binary32/64 hardware returns whichever
        // the compiler put first, and it may commute them differently in
        // each inlined copy of an operation; the interpreter and every VM
        // path return the left operand, quieted.
        let k = kernel("nan2")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::Read)
            .buffer("s", Precision::Double, Access::Write)
            .buffer("m", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("s", var("i"), load("x", var("i")) + load("y", var("i"))),
                store("m", var("i"), load("x", var("i")) * load("y", var("i"))),
            ]);
        let (pos, neg) = (0x7FF8_0000_0000_0001u64, 0xFFF8_0000_0000_0002u64);
        let snan = 0x7FF0_0000_0000_0003u64;
        for n in [8usize, 128] {
            let xs: Vec<f64> = (0..n)
                .map(|i| f64::from_bits([pos, neg, snan][i % 3]))
                .collect();
            let ys: Vec<f64> = (0..n)
                .map(|i| f64::from_bits(if i % 4 < 2 { neg } else { pos }))
                .collect();
            let mut bufs = BufferMap::new();
            bufs.insert("x".into(), FloatVec::F64(xs));
            bufs.insert("y".into(), FloatVec::F64(ys));
            bufs.insert("s".into(), FloatVec::zeros(n, Precision::Double));
            bufs.insert("m".into(), FloatVec::zeros(n, Precision::Double));
            let launch = Launch::one_d(n);
            let compiled = compile_kernel(&k).unwrap();
            assert_eq!(compiled.plan(&bufs, &launch, 1).lockstep(), n == 128);
            assert_equiv_bitwise(&k, &bufs, &launch);
            let mut want = bufs.clone();
            run_kernel(&k, &mut want, &launch).unwrap();
            for name in ["s", "m"] {
                assert_eq!(&bits(&want[name])[..3], [pos, neg, snan | 1 << 51]);
            }
        }
        // Opposite-sign NaNs multiplied in a fused single-precision dot
        // loop, item by item and in lock step.
        for n in [12usize, 70] {
            let bufs = mm_buffers(n, Precision::Single, Precision::Single);
            let launch = Launch::two_d(n, n).arg_int("n", n as i64);
            assert_equiv_bitwise(&mm(Precision::Single, Precision::Single), &bufs, &launch);
        }
    }

    /// Special operands, as raw bits at precision `p`: NaNs of both signs,
    /// quiet and signalling, with payloads; ±0 and ±∞; binary16's
    /// subnormals and largest finite value; 65520, the midpoint that
    /// rounds to binary16's ∞; and operands whose sums or products are
    /// rounding ties at one precision or another.
    fn special_bits(p: Precision) -> Vec<u64> {
        let finite = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            -1.0,
            2.0,
            3.0,
            0.5,
            0.1,
            1.0 / 3.0,
            65504.0,
            65520.0,
            -65520.0,
            2f64.powi(-24),
            -2f64.powi(-24),
            1023.0 * 2f64.powi(-24),
            2f64.powi(-14),
            2f64.powi(-11),
            3.0 * 2f64.powi(-11),
            2f64.powi(-25),
            1.0 + 2f64.powi(-10),
            2049.0,
            16_777_217.0,
            1e10,
            -1e-10,
            1e300,
        ];
        let nans: [u64; 4] = match p {
            Precision::Half => [0x7E01, 0xFE02, 0x7C03, 0xFC04],
            Precision::Single => [0x7FC0_0001, 0xFFC0_0002, 0x7F80_0003, 0xFF80_0004],
            Precision::Double => [
                0x7FF8_0000_0000_0001,
                0xFFF8_0000_0000_0002,
                0x7FF0_0000_0000_0003,
                0xFFF0_0000_0000_0004,
            ],
        };
        let at_p = bits(&FloatVec::from_f64_slice(&finite, p));
        at_p.into_iter().chain(nans).collect()
    }

    /// A buffer of precision `p` holding raw bit patterns.
    fn from_bits(p: Precision, bits: &[u64]) -> FloatVec {
        match p {
            Precision::Half => {
                FloatVec::F16(bits.iter().map(|&b| F16::from_bits(b as u16)).collect())
            }
            Precision::Single => {
                FloatVec::F32(bits.iter().map(|&b| f32::from_bits(b as u32)).collect())
            }
            Precision::Double => FloatVec::F64(bits.iter().map(|&b| f64::from_bits(b)).collect()),
        }
    }

    /// The (precision, operator) lane loops a compiled kernel dispatches:
    /// `FBin`, `FUn`, `Cvt` and `IToF` as `(op name, precision)`, and
    /// `FMulAcc` as `("fmulacc", product precision)` with its sum
    /// precision in the name.
    fn lane_loops(compiled: &CompiledKernel) -> Vec<String> {
        compiled
            .ops
            .iter()
            .filter_map(|op| match *op {
                Op::FBin { prec, op, .. } => Some(format!("{op:?} {prec:?}")),
                Op::FUn { prec, op, .. } => Some(format!("{op:?} {prec:?}")),
                Op::Cvt { prec, .. } => Some(format!("Cvt {prec:?}")),
                Op::IToF { prec, .. } => Some(format!("IToF {prec:?}")),
                Op::FMulAcc { pm, pa, .. } => Some(format!("FMulAcc {pm:?} {pa:?}")),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn special_values_match_the_interpreter_in_every_lane_loop() {
        // For each precision `p`, one kernel runs every operator of `FBin`
        // and `FUn` at `p` on pairs of special operands, converts them to
        // the other precisions (`Cvt`), converts integers to `p` (`IToF`)
        // and accumulates products at `p` into sums at `p` and wider
        // (`FMulAcc`), in 8-wide rows item by item and in 70-wide rows in
        // lock step. Each result is stored exactly, widened to a binary64
        // buffer of its own, so a register not rounded to its precision
        // shows.
        let mut covered = std::collections::BTreeSet::new();
        let double = Precision::Double;
        for p in Precision::ALL {
            let (x, y) = (|| load("x", var("i")), || load("y", var("i")));
            let mut k = kernel("special")
                .buffer("x", p, Access::Read)
                .buffer("y", p, Access::Read)
                .buffer("z", double, Access::Read)
                .int_param("w");
            let mut body = vec![let_("i", global_id(1) * var("w") + global_id(0))];
            let mut outputs = Vec::new();
            let mut out = |name: String, value: Expr| {
                body.push(store(name.as_str(), var("i"), cast(double, value)));
                outputs.push(name);
            };
            for op in [
                FloatBinOp::Add,
                FloatBinOp::Sub,
                FloatBinOp::Mul,
                FloatBinOp::Div,
                FloatBinOp::Min,
                FloatBinOp::Max,
            ] {
                out(format!("{op:?}"), bin(op, x(), y()));
            }
            for op in [
                UnaryFn::Neg,
                UnaryFn::Fabs,
                UnaryFn::Sqrt,
                UnaryFn::Exp,
                UnaryFn::Log,
            ] {
                out(format!("{op:?}"), unary(op, x()));
            }
            out("itof".into(), cast(p, to_int(load("z", var("i")))));
            let mut accs = Vec::new();
            for q in Precision::ALL {
                if q != p {
                    out(format!("cvt{q:?}"), cast(q, x()));
                }
                if q.size_bytes() >= p.size_bytes() {
                    let acc = format!("acc{q:?}");
                    out(
                        format!("fma{q:?}"),
                        load(acc.as_str(), var("i")) + x() * y(),
                    );
                    accs.push((acc, q));
                }
            }
            for (acc, q) in &accs {
                k = k.buffer(acc.as_str(), *q, Access::Read);
            }
            for name in &outputs {
                k = k.buffer(name.as_str(), double, Access::Write);
            }
            let k = k.body(body);
            covered.extend(lane_loops(&compile_kernel(&k).unwrap()));

            let vals = special_bits(p);
            let n = vals.len();
            // Ties at binary16 and binary32, and binary16's overflow.
            let ints: [i64; 8] = [
                2049,
                -2051,
                16_777_217,
                65519,
                65520,
                -7,
                1 << 60,
                (1 << 60) + (1 << 36),
            ];
            for w in [8usize, 70] {
                let items = w * 8;
                // Item `i` pairs the `i`-th special value with the
                // `(i / n)`-th, so the 560 items of the wide rows cover
                // most pairs.
                let xs: Vec<u64> = (0..items).map(|i| vals[i % n]).collect();
                let ys: Vec<u64> = (0..items).map(|i| vals[(i / n) % n]).collect();
                let zs: Vec<f64> = (0..items).map(|i| ints[i % ints.len()] as f64).collect();
                let mut bufs = BufferMap::new();
                bufs.insert("x".into(), from_bits(p, &xs));
                bufs.insert("y".into(), from_bits(p, &ys));
                bufs.insert("z".into(), FloatVec::from_f64_slice(&zs, double));
                for (acc, q) in &accs {
                    let sums: Vec<u64> = (0..items).map(|i| vals[(i * 7 + 3) % n]).collect();
                    let widened = from_bits(p, &sums).to_f64_vec();
                    bufs.insert(acc.clone(), FloatVec::from_f64_slice(&widened, *q));
                }
                for name in &outputs {
                    bufs.insert(name.clone(), FloatVec::zeros(items, double));
                }
                let launch = Launch::two_d(w, 8).arg_int("w", w as i64);
                let compiled = compile_kernel(&k).unwrap();
                let lockstep = compiled.plan(&bufs, &launch, 1).lockstep();
                assert_eq!(lockstep, w == 70, "{p:?}");
                assert_equiv_bitwise(&k, &bufs, &launch);
            }
        }
        let mut want = std::collections::BTreeSet::new();
        for p in Precision::ALL {
            for op in [
                "Add", "Sub", "Mul", "Div", "Min", "Max", "Neg", "Fabs", "Sqrt", "Exp", "Log",
                "Cvt", "IToF",
            ] {
                want.insert(format!("{op} {p:?}"));
            }
            for q in Precision::ALL {
                if q.size_bytes() >= p.size_bytes() {
                    want.insert(format!("FMulAcc {p:?} {q:?}"));
                }
            }
        }
        let missing: Vec<_> = want.difference(&covered).collect();
        assert!(missing.is_empty(), "lane loops not run: {missing:?}");
    }

    /// `a` and `b` of [`mm`] at `ab` with every special value of `ab`
    /// scattered through them, `c` at `c_elem`.
    fn special_mm_buffers(n: usize, ab: Precision, c_elem: Precision) -> BufferMap {
        let mut bufs = gemm_buffers(n, ab);
        let specials = special_bits(ab);
        for (name, stride, off) in [("a", 7, 1), ("b", 11, 3)] {
            let mut xs = bits(&bufs[name]);
            for (t, &v) in specials.iter().enumerate() {
                xs[(t * stride + off) * n % (n * n) + t % n] = v;
            }
            bufs.insert(name.into(), from_bits(ab, &xs));
        }
        bufs.insert("c".into(), FloatVec::zeros(n * n, c_elem));
        bufs
    }

    #[test]
    fn special_values_match_the_interpreter_in_every_dot_step() {
        // Fused dot loops (`mm`) and unfused pairs of dot steps (SYR2K's
        // shape, two steps per trip), at every uniform precision and at
        // the mixed ones polybench produces: operands at one precision
        // summed into an accumulator at another. Item by item in 8-wide
        // rows, in lock step in 70-wide ones.
        let at = |r: &str, c: &str| var(r) * var("n") + var(c);
        let syr2k = |ab: Precision, c_elem: Precision| {
            kernel("syr2k")
                .buffer("a", ab, Access::Read)
                .buffer("b", ab, Access::Read)
                .buffer("c", c_elem, Access::ReadWrite)
                .int_param("n")
                .body(vec![
                    let_("j", global_id(0)),
                    let_("i", global_id(1)),
                    let_acc("acc", "c", flit(0.0)),
                    for_(
                        "kk",
                        int(0),
                        var("n"),
                        vec![
                            add_assign("acc", load("a", at("i", "kk")) * load("b", at("kk", "j"))),
                            add_assign("acc", load("b", at("i", "kk")) * load("a", at("kk", "j"))),
                        ],
                    ),
                    store("c", at("i", "j"), var("acc")),
                ])
        };
        for (ab, c_elem) in [
            (Precision::Half, Precision::Half),
            (Precision::Single, Precision::Single),
            (Precision::Double, Precision::Double),
            (Precision::Half, Precision::Double),
            (Precision::Half, Precision::Single),
            (Precision::Double, Precision::Half),
            (Precision::Double, Precision::Single),
        ] {
            for n in [8usize, 70] {
                let bufs = special_mm_buffers(n, ab, c_elem);
                let launch = Launch::two_d(n, n).arg_int("n", n as i64);
                let k = mm(ab, c_elem);
                assert_equiv_bitwise(&k, &bufs, &launch);
                assert_eq!(lockstep_dot_loops(&k, &bufs, &launch) > 0, n == 70);
                let k = syr2k(ab, c_elem);
                let compiled = compile_kernel(&k).unwrap();
                assert_eq!(
                    compiled
                        .ops
                        .iter()
                        .filter(|o| matches!(o, Op::DotStep { .. }))
                        .count(),
                    2,
                    "{:?}",
                    compiled.ops
                );
                assert_eq!(compiled.plan(&bufs, &launch, 1).lockstep(), n == 70);
                assert_equiv_bitwise(&k, &bufs, &launch);
            }
        }
    }

    #[test]
    fn integers_convert_to_binary32_with_one_rounding() {
        // 2^60 + 2^36 + 1 lies just above the midpoint of the binary32
        // values 2^60 and 2^60 + 2^37, so rounded once it goes up, to bits
        // 0x5d800001. Through binary64 it first becomes 2^60 + 2^36, the
        // midpoint itself, which then rounds to even, down to 0x5d800000.
        let big = (1i64 << 60) + (1 << 36) + 1;
        let single = Precision::Single;
        let k = kernel("i2f")
            .buffer("x", single, Access::Read)
            .buffer("cast", single, Access::Write)
            .buffer("mul", single, Access::Write)
            .buffer("store", single, Access::Write)
            .buffer("arg", single, Access::Write)
            .int_param("m")
            .float_param("f", single)
            .body(vec![
                let_("i", global_id(0)),
                store("cast", var("i"), cast(single, var("m"))),
                store("mul", var("i"), load("x", var("i")) * var("m")),
                store("store", var("i"), var("m")),
                store("arg", var("i"), var("f")),
            ]);
        for n in [8usize, 70] {
            let mut bufs = BufferMap::new();
            bufs.insert("x".into(), FloatVec::from_f64_slice(&vec![1.0; n], single));
            for name in ["cast", "mul", "store", "arg"] {
                bufs.insert(name.into(), FloatVec::zeros(n, single));
            }
            let launch = Launch::one_d(n).arg_int("m", big).arg_int("f", big);
            let compiled = compile_kernel(&k).unwrap();
            assert_eq!(compiled.plan(&bufs, &launch, 1).lockstep(), n == 70);
            assert_equiv_bitwise(&k, &bufs, &launch);
            compiled.run(&mut bufs, &launch).unwrap();
            for name in ["cast", "mul", "store", "arg"] {
                assert_eq!(
                    bits(&bufs[name]),
                    vec![0x5d80_0001; n],
                    "`{name}`, {n} items"
                );
            }
        }
    }

    #[test]
    fn lockstep_dot_loops_match_the_interpreter_at_every_precision() {
        // 70-wide rows: a 64-lane block, then a 6-lane one. Row `i` reads
        // `a[i*n + kk]` in every lane and `b[kk*n + j]` at consecutive
        // addresses, so each block runs its loop once.
        let n = 70usize;
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        for (ab, c_elem) in [
            (Precision::Double, Precision::Double),
            (Precision::Single, Precision::Single),
            (Precision::Half, Precision::Half),
            (Precision::Double, Precision::Half),
            (Precision::Half, Precision::Double),
        ] {
            let k = mm(ab, c_elem);
            let bufs = mm_buffers(n, ab, c_elem);
            assert!(compile_kernel(&k)
                .unwrap()
                .plan(&bufs, &launch, 1)
                .lockstep());
            assert_equiv_bitwise(&k, &bufs, &launch);
            assert_eq!(
                lockstep_dot_loops(&k, &bufs, &launch),
                2 * n as u64,
                "{ab:?}/{c_elem:?}"
            );
        }
    }

    #[test]
    fn lockstep_dot_loops_read_one_buffer_strided_across_lanes() {
        // SYRK's shape: `a[i*m + kk]` is one element per row, `a[j*m + kk]`
        // is `m` elements apart from lane to lane.
        let at = |r: &str, c: &str, w: &str| var(r) * var(w) + var(c);
        let k = kernel("syrk")
            .buffer("a", Precision::Single, Access::Read)
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .int_param("m")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", load("c", at("i", "j", "n")) * flit(0.5)),
                for_(
                    "kk",
                    int(0),
                    var("m"),
                    vec![add_assign(
                        "acc",
                        load("a", at("i", "kk", "m")) * load("a", at("j", "kk", "m")),
                    )],
                ),
                store("c", at("i", "j", "n"), var("acc")),
            ]);
        let (n, m) = (70usize, 9usize);
        let xs: Vec<f64> = (0..n * m).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
        let cs: Vec<f64> = (0..n * n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut bufs = BufferMap::new();
        bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, Precision::Single));
        bufs.insert("c".into(), FloatVec::from_f64_slice(&cs, Precision::Single));
        let launch = Launch::two_d(n, n)
            .arg_int("n", n as i64)
            .arg_int("m", m as i64);
        assert_equiv_bitwise(&k, &bufs, &launch);
        assert_eq!(lockstep_dot_loops(&k, &bufs, &launch), 2 * n as u64);
    }

    #[test]
    fn lanes_that_disagree_on_the_trip_count_run_the_loop_one_at_a_time() {
        // Lane `j` makes `t[j]` trips: 3 in every lane of the first block,
        // 0–4 in the second, whose lanes run the loop one by one.
        let k = kernel("trips")
            .buffer("t", Precision::Double, Access::Read)
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "kk",
                    int(0),
                    to_int(load("t", var("j"))),
                    vec![add_assign(
                        "acc",
                        load("a", var("i") * var("n") + var("kk"))
                            * load("b", var("kk") * var("n") + var("j")),
                    )],
                ),
                store("c", var("i") * var("n") + var("j"), var("acc")),
            ]);
        let n = 70usize;
        let mut bufs = mm_buffers(n, Precision::Double, Precision::Double);
        let ts: Vec<f64> = (0..n)
            .map(|j| if j < 64 { 3.0 } else { (j % 5) as f64 })
            .collect();
        bufs.insert("t".into(), FloatVec::from_f64_slice(&ts, Precision::Double));
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        assert!(compile_kernel(&k)
            .unwrap()
            .plan(&bufs, &launch, 1)
            .lockstep());
        assert_equiv_bitwise(&k, &bufs, &launch);
        assert_eq!(lockstep_dot_loops(&k, &bufs, &launch), n as u64);
    }

    #[test]
    fn lanes_step_their_own_indices_unless_the_counter_is_squared() {
        // `b[kk*j + i]` starts at one element for the whole row but steps
        // by `j` per trip, a different step in every lane, and
        // `b[j*j + kk]` is not evenly spaced across lanes: each lane steps
        // its own index, so each block runs the loop once.
        // `b[kk*kk + j]` moves by no fixed step, so the lanes run the loop
        // one at a time.
        let n = 70usize;
        let mut bufs = mm_buffers(n, Precision::Double, Precision::Double);
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        for (b_at, lockstep) in [
            (var("kk") * var("j") + var("i"), true),
            (var("j") * var("j") + var("kk"), true),
            (var("kk") * var("kk") + var("j"), false),
        ] {
            let k = kernel("skew")
                .buffer("a", Precision::Double, Access::Read)
                .buffer("b", Precision::Double, Access::Read)
                .buffer("c", Precision::Double, Access::Write)
                .int_param("n")
                .body(vec![
                    let_("j", global_id(0)),
                    let_("i", global_id(1)),
                    let_acc("acc", "c", flit(0.0)),
                    for_(
                        "kk",
                        int(0),
                        var("n"),
                        vec![add_assign(
                            "acc",
                            load("a", var("i") * var("n") + var("kk")) * load("b", b_at),
                        )],
                    ),
                    store("c", var("i") * var("n") + var("j"), var("acc")),
                ]);
            let xs: Vec<f64> = (0..n * n + n).map(|i| (i as f64 * 0.7).sin()).collect();
            bufs.insert("b".into(), FloatVec::from_f64_slice(&xs, Precision::Double));
            assert!(compile_kernel(&k)
                .unwrap()
                .plan(&bufs, &launch, 1)
                .lockstep());
            assert_equiv_bitwise(&k, &bufs, &launch);
            let blocks = if lockstep { 2 * n as u64 } else { 0 };
            assert_eq!(lockstep_dot_loops(&k, &bufs, &launch), blocks);
        }
    }

    #[test]
    fn lanes_parked_at_the_other_arm_keep_their_accumulators() {
        // Lanes with `j % 3 == 0` run the dot loop while the rest wait at
        // the `else` arm, which reads and writes the same sums. With two
        // products a trip, each summed into the other sum, the loop does
        // not fuse: its two dot steps run over the lanes at the loop's pc,
        // each writing a register the parked lanes read later.
        let a_b = || {
            load("a", var("i") * var("n") + var("kk")) * load("b", var("kk") * var("n") + var("j"))
        };
        let n = 70usize;
        for (trip, dot_loops) in [
            (vec![add_assign("acc", a_b())], 2 * n as u64),
            (
                vec![
                    assign("alt", var("acc") + a_b()),
                    assign("acc", var("alt") + a_b()),
                ],
                0,
            ),
        ] {
            let k = kernel("arms")
                .buffer("a", Precision::Double, Access::Read)
                .buffer("b", Precision::Double, Access::Read)
                .buffer("c", Precision::Double, Access::ReadWrite)
                .int_param("n")
                .body(vec![
                    let_("j", global_id(0)),
                    let_("i", global_id(1)),
                    let_acc("acc", "c", load("c", var("i") * var("n") + var("j"))),
                    let_acc("alt", "c", var("acc") * flit(0.5)),
                    if_else(
                        cmp(CmpOp::Eq, var("j") - var("j") / int(3) * int(3), int(0)),
                        vec![for_("kk", int(0), var("n"), trip)],
                        vec![
                            assign("acc", var("acc") * flit(3.0) - flit(1.0)),
                            assign("alt", var("alt") - var("acc")),
                        ],
                    ),
                    store("c", var("i") * var("n") + var("j"), var("acc") + var("alt")),
                ]);
            let mut bufs = mm_buffers(n, Precision::Double, Precision::Double);
            let cs: Vec<f64> = (0..n * n).map(|i| i as f64 * 0.25).collect();
            bufs.insert("c".into(), FloatVec::from_f64_slice(&cs, Precision::Double));
            let launch = Launch::two_d(n, n).arg_int("n", n as i64);
            let compiled = compile_kernel(&k).unwrap();
            assert!(compiled.plan(&bufs, &launch, 1).lockstep());
            let steps = compiled
                .ops
                .iter()
                .filter(|o| matches!(o, Op::DotStep { .. }));
            assert_eq!(steps.count(), if dot_loops == 0 { 2 } else { 0 });
            assert_equiv_bitwise(&k, &bufs, &launch);
            assert_eq!(lockstep_dot_loops(&k, &bufs, &launch), dot_loops);
        }
    }

    #[test]
    fn dot_loop_indices_near_i64_max_match_the_interpreter() {
        // `b[kk*n + jb]` with `jb = j*big + off`. A stride of `i64::MAX/32`
        // wraps between the first and the last lane, and an offset near
        // `i64::MAX` wraps past the first lane: each lane's index is
        // checked, so lane 1 or lane 0 faults. A stride of -1 reads `b`
        // backwards without a fault.
        let k = kernel("far")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .int_param("big")
            .int_param("off")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_("jb", var("j") * var("big") + var("off")),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "kk",
                    int(0),
                    var("n"),
                    vec![add_assign(
                        "acc",
                        load("a", var("i") * var("n") + var("kk"))
                            * load("b", var("kk") * var("n") + var("jb")),
                    )],
                ),
                store("c", var("i") * var("n") + var("j"), var("acc")),
            ]);
        let n = 70usize;
        let bufs = mm_buffers(n, Precision::Double, Precision::Double);
        for (big, off, faults) in [
            (i64::MAX / 32, 0, true),
            (1, i64::MAX - 40, true),
            (-1, n as i64 - 1, false),
        ] {
            let launch = Launch::two_d(n, n)
                .arg_int("n", n as i64)
                .arg_int("big", big)
                .arg_int("off", off);
            assert!(compile_kernel(&k)
                .unwrap()
                .plan(&bufs, &launch, 1)
                .lockstep());
            assert_equiv_bitwise(&k, &bufs, &launch);
            let mut got = bufs.clone();
            let result = compile_kernel(&k).unwrap().run(&mut got, &launch);
            assert_eq!(result.is_err(), faults, "{result:?}");
            if !faults {
                assert_eq!(lockstep_dot_loops(&k, &bufs, &launch), 2 * n as u64);
            }
        }
    }

    /// `acc += x[kk*s1 + p] * y[kk*s2 + q]` for `kk` in `[lo, hi)`, with
    /// `p = j*d1 + o1` and `q = j*d2 + o2` per lane: each operand's index
    /// is a progression of stride `s1` (`s2`) from its lane's start.
    fn edge_kernel() -> Kernel {
        let mut k = kernel("edge")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Single, Access::Read)
            .buffer("c", Precision::Double, Access::Write);
        for name in ["w", "d1", "o1", "s1", "d2", "o2", "s2", "lo", "hi"] {
            k = k.int_param(name);
        }
        k.body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            let_("p", var("j") * var("d1") + var("o1")),
            let_("q", var("j") * var("d2") + var("o2")),
            let_acc("acc", "c", flit(0.25)),
            for_(
                "kk",
                var("lo"),
                var("hi"),
                vec![add_assign(
                    "acc",
                    load("x", var("kk") * var("s1") + var("p"))
                        * load("y", var("kk") * var("s2") + var("q")),
                )],
            ),
            store("c", var("i") * var("w") + var("j"), var("acc")),
        ])
    }

    #[test]
    fn streamed_dot_loops_fail_like_the_interpreter() {
        // Each case: `x` and `y` lengths, then `[d1, o1, s1, d2, o2, s2,
        // lo, hi]`, and the error of item (0, 0) or of the first item
        // that fails, if any. Run item by item in 8-wide rows and in lock
        // step in 70-wide ones, each against the interpreter at 1, 2 and
        // 8 threads: error, partial writes and counts.
        let oob = |buf: &str, index: i64, len: usize| {
            Some(ExecError::OutOfBounds {
                buf: buf.to_owned(),
                index,
                len,
            })
        };
        #[rustfmt::skip]
        let cases = [
            ("x at trip 0", 50, 50, [0, 50, 1, 0, 0, 1, 0, 6], oob("x", 50, 50)),
            ("x mid-loop", 40, 50, [0, 0, 7, 0, 0, 1, 0, 10], oob("x", 42, 40)),
            ("x on the last trip", 9, 50, [0, 0, 1, 0, 0, 1, 0, 10], oob("x", 9, 9)),
            ("y before x", 40, 10, [0, 0, 7, 0, 0, 3, 0, 10], oob("y", 12, 10)),
            ("both on one trip", 40, 12, [0, 0, 10, 0, 0, 3, 0, 10], oob("x", 40, 40)),
            ("a negative stride out", 50, 50, [0, 5, -1, 0, 0, 1, 0, 10], oob("x", -1, 50)),
            ("a negative stride in", 10, 50, [0, 9, -1, 0, 0, 1, 0, 10], None),
            ("zero trips", 10, 10, [0, -100, 1, 0, 1000, 1, 0, 0], None),
            ("negative trips", 10, 10, [0, -100, 1, 0, 1000, 1, -2, -7], None),
            ("a uniform operand", 10, 120, [0, 3, 0, 1, 0, 1, 0, 40], None),
            ("a uniform operand out", 10, 120, [0, 10, 0, 1, 0, 1, 0, 40], oob("x", 10, 10)),
            ("lane 6 mid-loop", 40, 50, [6, 0, 1, 0, 0, 1, 0, 6], oob("x", 40, 40)),
            ("a wrapped index", 50, 50, [0, 3, i64::MAX, 0, 0, 1, 0, 3], oob("x", i64::MIN + 2, 50)),
        ];
        let k = edge_kernel();
        for (what, x_len, y_len, args, want) in cases {
            for w in [8usize, 70] {
                let xs: Vec<f64> = (0..x_len).map(|i| (i as f64 * 0.61).sin()).collect();
                let ys: Vec<f64> = (0..y_len).map(|i| (i as f64 * 0.37).cos()).collect();
                let mut bufs = BufferMap::new();
                bufs.insert("x".into(), FloatVec::from_f64_slice(&xs, Precision::Double));
                bufs.insert("y".into(), FloatVec::from_f64_slice(&ys, Precision::Single));
                bufs.insert("c".into(), FloatVec::zeros(2 * w, Precision::Double));
                let mut launch = Launch::two_d(w, 2).arg_int("w", w as i64);
                for (name, v) in ["d1", "o1", "s1", "d2", "o2", "s2", "lo", "hi"]
                    .iter()
                    .zip(args)
                {
                    launch = launch.arg_int(*name, v);
                }
                let compiled = compile_kernel(&k).unwrap();
                assert_eq!(compiled.plan(&bufs, &launch, 1).lockstep(), w == 70);
                assert_equiv_bitwise(&k, &bufs, &launch);
                let mut scratch = VmScratch::new();
                let got = compiled.run_with_scratch(&mut bufs.clone(), &launch, &mut scratch);
                assert_eq!(got.as_ref().err(), want.as_ref(), "{what}, {w}-wide rows");
                assert_eq!(
                    scratch.dot_loop_faults(),
                    u64::from(want.is_some()),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn streamed_dot_loops_read_a_carved_window() {
        // Item `(j, i)` reads `c[q + kk]`, `q = i*w + j`, from its own
        // 16-element row of the stored `c` before it stores `c[q]`, so at
        // 8 threads each chunk of rows reads its carved window of `c`
        // from a nonzero start. With `c` cut to 250 elements the last row
        // reads past its end: no chunk plan, and the sequential error.
        let k = kernel("rows")
            .buffer("c", Precision::Single, Access::ReadWrite)
            .buffer("y", Precision::Double, Access::Read)
            .int_param("w")
            .int_param("m")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_("q", var("i") * var("w") + var("j")),
                let_acc("acc", "c", flit(0.5)),
                for_(
                    "kk",
                    int(0),
                    var("m"),
                    vec![add_assign(
                        "acc",
                        load("c", var("kk") * int(1) + var("q"))
                            * load("y", var("kk") * var("w") + var("j")),
                    )],
                ),
                store("c", var("q"), var("acc")),
            ]);
        let (nx, rows, w, m) = (8usize, 16usize, 16usize, 8usize);
        let launch = Launch::two_d(nx, rows)
            .arg_int("w", w as i64)
            .arg_int("m", m as i64);
        let compiled = compile_kernel(&k).unwrap();
        for (c_len, chunks) in [(rows * w, true), (250, false)] {
            let cs: Vec<f64> = (0..c_len).map(|i| (i as f64 * 0.3).sin()).collect();
            let ys: Vec<f64> = (0..m * w).map(|i| (i as f64 * 0.7).cos()).collect();
            let mut bufs = BufferMap::new();
            bufs.insert("c".into(), FloatVec::from_f64_slice(&cs, Precision::Single));
            bufs.insert("y".into(), FloatVec::from_f64_slice(&ys, Precision::Double));
            let plan = compiled.plan(&bufs, &launch, 8);
            assert_eq!(plan.chunks() > 1, chunks, "{c_len} elements");
            assert_equiv_bitwise(&k, &bufs, &launch);
            let result = compiled.run(&mut bufs.clone(), &launch);
            assert_eq!(result.is_err(), !chunks, "{result:?}");
        }
    }

    /// `d[at] = 2; c[at] = c[at]*0.5 + x[i*k + 1] + y[at + s]` for the
    /// items with `j < w - g`, `at = i*w + j`: `x`'s index is one value
    /// along a row, so a block loads it once; `at` and `at + s` are
    /// consecutive, so a block moves slices of `c`, `d` and `y`.
    fn shaped_kernel() -> Kernel {
        let at = || var("at");
        let mut k = kernel("shaped")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Single, Access::Read)
            .buffer("c", Precision::Half, Access::ReadWrite)
            .buffer("d", Precision::Double, Access::Write);
        for name in ["w", "k", "s", "g"] {
            k = k.int_param(name);
        }
        k.body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("j"), var("w") - var("g")),
                vec![
                    let_("at", var("i") * var("w") + var("j")),
                    store("d", at(), flit(2.0)),
                    store(
                        "c",
                        at(),
                        load("c", at()) * flit(0.5)
                            + load("x", var("i") * var("k") + int(1))
                            + load("y", at() + var("s")),
                    ),
                ],
            ),
        ])
    }

    /// Runs [`shaped_kernel`] over `rows` rows of 8 items, item by item,
    /// and of 70 items, in lock step, with `k = 5`, `s = 3` and `g = 2`,
    /// each buffer as long as the launch's reads need less its entry of
    /// `short` (`x`, `y`, `c`, `d`): against the interpreter at 1, 2 and 8
    /// threads (result, counts and partial writes), and sequentially
    /// against `want`, the error of the first item that fails, if any,
    /// given the row width. Returns, per width, the sequential run's
    /// tallies of ops run once and of slice accesses.
    fn check_shaped(
        rows: usize,
        short: [usize; 4],
        want: impl Fn(usize) -> Option<ExecError>,
    ) -> Vec<(u64, u64)> {
        let k = shaped_kernel();
        let compiled = compile_kernel(&k).unwrap();
        let mut tallies = Vec::new();
        for w in [8usize, 70] {
            let need = [5 * (rows - 1) + 2, rows * w + 3, rows * w, rows * w];
            let len = |b: usize| need[b] - short[b];
            let wave = |n: usize, at: f64| -> Vec<f64> {
                (0..n).map(|e| (e as f64 * at).sin() * 4.0).collect()
            };
            let mut bufs = BufferMap::new();
            bufs.insert(
                "x".into(),
                FloatVec::from_f64_slice(&wave(len(0), 0.3), Precision::Double),
            );
            bufs.insert(
                "y".into(),
                FloatVec::from_f64_slice(&wave(len(1), 0.7), Precision::Single),
            );
            bufs.insert(
                "c".into(),
                FloatVec::from_f64_slice(&wave(len(2), 1.1), Precision::Half),
            );
            bufs.insert("d".into(), FloatVec::zeros(len(3), Precision::Double));
            let launch = Launch::two_d(w, rows)
                .arg_int("w", w as i64)
                .arg_int("k", 5)
                .arg_int("s", 3)
                .arg_int("g", 2);
            assert_eq!(compiled.plan(&bufs, &launch, 1).lockstep(), w == 70);
            assert_equiv_bitwise(&k, &bufs, &launch);
            let mut scratch = VmScratch::new();
            let got = compiled.run_with_scratch(&mut bufs.clone(), &launch, &mut scratch);
            assert_eq!(got.err(), want(w), "{w}-wide rows");
            tallies.push((scratch.uniform_ops(), scratch.slice_accesses()));
        }
        tallies
    }

    /// Both widths' tallies: none item by item, some in lock step.
    fn assert_engaged(tallies: &[(u64, u64)]) {
        assert_eq!(tallies[0], (0, 0), "8-wide rows run item by item");
        assert!(tallies[1].0 > 0 && tallies[1].1 > 0, "{tallies:?}");
    }

    fn oob(buf: &str, index: usize, len: usize) -> Option<ExecError> {
        Some(ExecError::OutOfBounds {
            buf: buf.to_owned(),
            index: index as i64,
            len,
        })
    }

    #[test]
    fn a_uniform_load_out_of_bounds_fails_like_the_interpreter() {
        // The last row reads `x[2*5 + 1]`, one past the end, in every lane,
        // after each lane stored `d`: a block loads it once and fails.
        let tallies = check_shaped(3, [1, 0, 0, 0], |_| oob("x", 11, 11));
        assert_engaged(&tallies);
    }

    #[test]
    fn a_consecutive_load_whose_last_active_lane_leaves_the_buffer_fails_like_the_interpreter() {
        // `y` ends one short of the last row's last active lane (`j = w -
        // 3`, the two after it retired): the span check of the block that
        // holds that lane fails, and the replay fails at that item.
        let tallies = check_shaped(3, [0, 3, 0, 0], |w| oob("y", 2 * w + w - 3 + 3, 3 * w));
        assert_engaged(&tallies);
    }

    #[test]
    fn a_consecutive_store_whose_last_active_lane_leaves_the_buffer_fails_like_the_interpreter() {
        // `d` ends at the last row's last active lane, which its first
        // store writes past the end of.
        let tallies = check_shaped(3, [0, 0, 0, 3], |w| oob("d", 3 * w - 3, 3 * w - 3));
        assert_engaged(&tallies);
    }

    #[test]
    fn consecutive_accesses_read_and_write_a_carved_window() {
        // At 8 threads 16 rows split into chunks of rows, so each chunk
        // reads and writes its carved windows of `c` and `d`, which start
        // past element 0, by slices.
        let tallies = check_shaped(16, [0, 0, 0, 0], |_| None);
        assert_engaged(&tallies);
        let k = shaped_kernel();
        let compiled = compile_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::zeros(5 * 15 + 2, Precision::Double));
        bufs.insert("y".into(), FloatVec::zeros(16 * 70 + 3, Precision::Single));
        bufs.insert("c".into(), FloatVec::zeros(16 * 70, Precision::Half));
        bufs.insert("d".into(), FloatVec::zeros(16 * 70, Precision::Double));
        let launch = Launch::two_d(70, 16)
            .arg_int("w", 70)
            .arg_int("k", 5)
            .arg_int("s", 3)
            .arg_int("g", 2);
        let plan = compiled.plan(&bufs, &launch, 8);
        assert!(plan.lockstep() && plan.chunks() == 8);
        let mut scratch = VmScratch::new();
        compiled
            .run_parallel(&mut bufs, &launch, &mut scratch, 8)
            .unwrap();
        assert!(scratch.slice_accesses() > 0);
    }

    #[test]
    fn a_kernel_that_assigns_a_parameter_runs_lane_by_lane() {
        // The type checker refuses `n = n + gid0`, but the VM compiles it,
        // and `n`'s register carries each lane's value into the next
        // block: `n * 2`, uniform in the first block, is not in the next.
        let k = kernel("pa")
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("m", var("n") * int(2)),
                store("c", global_id(0), var("m")),
                assign("n", var("n") + global_id(0)),
            ]);
        assert!(check_kernel(&k).is_err());
        let compiled = compile_kernel(&k).unwrap();
        assert!(compiled.runs.iter().all(|r| *r == Run::Lanes));
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(70, Precision::Double));
        let launch = Launch::one_d(70).arg_int("n", 1);
        assert!(compiled.plan(&bufs, &launch, 1).lockstep());
        let mut scratch = VmScratch::new();
        compiled
            .run_with_scratch(&mut bufs, &launch, &mut scratch)
            .unwrap();
        assert_eq!(scratch.uniform_ops(), 0);
    }

    /// `mm` with its own trip count: `c[i*n + j] = Σ a[i*m + kk]·b[kk*n + j]`
    /// over `kk < m`, `a` and `b` at `ab`, `c` at `c_elem`.
    fn mm_trips(ab: Precision, c_elem: Precision) -> Kernel {
        kernel("mk")
            .buffer("a", ab, Access::Read)
            .buffer("b", ab, Access::Read)
            .buffer("c", c_elem, Access::ReadWrite)
            .int_param("n")
            .int_param("m")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "kk",
                    int(0),
                    var("m"),
                    vec![add_assign(
                        "acc",
                        load("a", var("i") * var("m") + var("kk"))
                            * load("b", var("kk") * var("n") + var("j")),
                    )],
                ),
                store("c", var("i") * var("n") + var("j"), var("acc")),
            ])
    }

    #[test]
    fn per_item_dot_loops_stream_across_strips_at_every_dot_step_precision() {
        // 8-wide rows run item by item; loops of 8, 64 and 70 trips make
        // one short strip, one full strip, and a full one then a short
        // one. The operands hold every special value of their precision,
        // at the precision triples of the dot-step test above.
        let n = 8usize;
        for (ab, c_elem) in [
            (Precision::Half, Precision::Half),
            (Precision::Single, Precision::Single),
            (Precision::Double, Precision::Double),
            (Precision::Half, Precision::Double),
            (Precision::Half, Precision::Single),
            (Precision::Double, Precision::Half),
            (Precision::Double, Precision::Single),
        ] {
            let k = mm_trips(ab, c_elem);
            let specials = special_bits(ab);
            for m in [8usize, 64, 70] {
                let spread = |stride: usize, off: usize| -> Vec<u64> {
                    let xs: Vec<f64> = (0..n * m)
                        .map(|i| ((i * 7 % 23) as f64) * 0.37 - 3.1)
                        .collect();
                    let mut xs = bits(&FloatVec::from_f64_slice(&xs, ab));
                    for (t, &v) in specials.iter().enumerate() {
                        xs[(t * stride + off) % (n * m)] = v;
                    }
                    xs
                };
                let mut bufs = BufferMap::new();
                bufs.insert("a".into(), from_bits(ab, &spread(13, 1)));
                bufs.insert("b".into(), from_bits(ab, &spread(11, 3)));
                bufs.insert("c".into(), FloatVec::zeros(n * n, c_elem));
                let launch = Launch::two_d(n, n)
                    .arg_int("n", n as i64)
                    .arg_int("m", m as i64);
                assert!(!compile_kernel(&k)
                    .unwrap()
                    .plan(&bufs, &launch, 1)
                    .lockstep());
                assert_equiv_bitwise(&k, &bufs, &launch);
                let mut scratch = VmScratch::new();
                compile_kernel(&k)
                    .unwrap()
                    .run_with_scratch(&mut bufs.clone(), &launch, &mut scratch)
                    .unwrap();
                let long = if m > BLOCK { (n * n) as u64 } else { 0 };
                assert_eq!(
                    scratch.long_dot_loops(),
                    long,
                    "{ab:?}/{c_elem:?}, {m} trips"
                );
            }
        }
    }

    #[test]
    fn a_loop_reads_its_bound_once() {
        // The body lowers the variable the bound names; the loop still
        // makes the three trips the bound held at entry.
        let k = kernel("bound")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("m", int(3)),
                for_(
                    "k",
                    int(0),
                    var("m"),
                    vec![
                        assign("m", var("m") - int(1)),
                        store("c", var("k"), flit(1.0)),
                    ],
                ),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(4, Precision::Double));
        let launch = Launch::one_d(1);
        assert_equiv_bitwise(&k, &bufs, &launch);
        let counts = compile_kernel(&k).unwrap().run(&mut bufs, &launch).unwrap();
        assert_eq!(bufs["c"].to_f64_vec(), [1.0, 1.0, 1.0, 0.0]);
        assert_eq!(counts.int_ops, 9);
    }

    #[test]
    fn a_squared_counter_leaves_the_loop_unfused() {
        // `b[kk*kk + j]` moves by no fixed stride: the loop keeps its
        // dot step, and the fused loop of `b[kk*n + j]` leaves no dot
        // step behind in the dot table.
        let body = |b_at: Expr| {
            kernel("sq")
                .buffer("a", Precision::Double, Access::Read)
                .buffer("b", Precision::Double, Access::Read)
                .buffer("c", Precision::Double, Access::Write)
                .int_param("n")
                .body(vec![
                    let_("j", global_id(0)),
                    let_acc("acc", "c", flit(0.0)),
                    for_(
                        "kk",
                        int(0),
                        var("n"),
                        vec![add_assign(
                            "acc",
                            load("a", var("j") * var("n") + var("kk")) * load("b", b_at),
                        )],
                    ),
                    store("c", var("j"), var("acc")),
                ])
        };
        let squared = compile_kernel(&body(var("kk") * var("kk") + var("j"))).unwrap();
        assert!(squared.loop_table.is_empty());
        assert_eq!(squared.dot_table.len(), 1);
        let strided = compile_kernel(&body(var("kk") * var("n") + var("j"))).unwrap();
        assert_eq!(strided.loop_table.len(), 1);
        assert!(strided.dot_table.is_empty());
    }

    #[test]
    fn integer_operands_of_half_arithmetic_match_the_interpreter() {
        // 2049 is no binary16 value: the interpreter rounds it to 2048
        // before the operation, so the single-rounding path must see the
        // rounded operand too (2049 + 0.5 would round to 2050).
        let k = kernel("ih")
            .buffer("x", Precision::Half, Access::Read)
            .buffer("s", Precision::Half, Access::Write)
            .buffer("p", Precision::Half, Access::Write)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                store("s", var("i"), load("x", var("i")) + var("n")),
                store("p", var("i"), var("n") * load("x", var("i"))),
            ]);
        let xs: Vec<f64> = (0..64).map(|i| f64::from(i) * 0.25 - 3.0).collect();
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::from_f64_slice(&xs, Precision::Half));
        bufs.insert("s".into(), FloatVec::zeros(xs.len(), Precision::Half));
        bufs.insert("p".into(), FloatVec::zeros(xs.len(), Precision::Half));
        let launch = Launch::one_d(xs.len()).arg_int("n", 2049);
        assert_equiv_bitwise(&k, &bufs, &launch);
    }

    #[test]
    fn fused_loop_out_of_bounds_mid_loop_matches_the_interpreter() {
        // `a` is three elements short, so the last row's items fault in
        // the middle of the fused inner loop, after every earlier row has
        // stored its result: same error, same partial writes.
        for c_elem in [Precision::Double, Precision::Half] {
            let k = mm(Precision::Double, c_elem);
            let compiled = compile_kernel(&k).unwrap();
            assert!(compiled.ops.iter().any(|o| matches!(o, Op::DotLoop { .. })));
            let n = 16usize;
            let mut bufs = gemm_buffers(n, Precision::Double);
            let short: Vec<f64> = (0..n * n - 3).map(|i| (i as f64).cos()).collect();
            bufs.insert(
                "a".into(),
                FloatVec::from_f64_slice(&short, Precision::Double),
            );
            bufs.insert("c".into(), FloatVec::zeros(n * n, c_elem));
            let launch = Launch::two_d(n, n).arg_int("n", n as i64);
            let mut probe = bufs.clone();
            let err = compiled.run(&mut probe, &launch).unwrap_err();
            assert!(
                matches!(err, ExecError::OutOfBounds { ref buf, index, len }
                    if buf == "a" && index == (n * n - 3) as i64 && len == n * n - 3),
                "{err:?}"
            );
            assert_equiv_bitwise(&k, &bufs, &launch);
        }

        // In 64-wide rows, `b` cut short makes lane 37 of the first row
        // fault in the last trip of its fused loop, after lanes 0..37
        // finished theirs and before any lane stored.
        let n = 64usize;
        let k = mm(Precision::Double, Precision::Double);
        let mut bufs = gemm_buffers(n, Precision::Double);
        let short: Vec<f64> = (0..n * n - (n - 37)).map(|i| (i as f64).sin()).collect();
        bufs.insert(
            "b".into(),
            FloatVec::from_f64_slice(&short, Precision::Double),
        );
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        let compiled = compile_kernel(&k).unwrap();
        assert!(compiled.plan(&bufs, &launch, 1).lockstep());
        let err = compiled.run(&mut bufs.clone(), &launch).unwrap_err();
        assert!(
            matches!(err, ExecError::OutOfBounds { ref buf, index, .. }
                if buf == "b" && index == (n * n - (n - 37)) as i64),
            "{err:?}"
        );
        assert_equiv_bitwise(&k, &bufs, &launch);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_kernels() {
        let mut scratch = VmScratch::new();
        for elem in Precision::ALL {
            let k = saxpy(elem);
            let n = 24usize;
            let xs: Vec<f64> = (0..n).map(|i| (i as f64).sqrt()).collect();
            let mut bufs = BufferMap::new();
            bufs.insert("x".into(), FloatVec::from_f64_slice(&xs, elem));
            bufs.insert("y".into(), FloatVec::from_f64_slice(&xs, elem));
            let mut bufs_fresh = bufs.clone();
            let launch = Launch::one_d(n).arg_float("a", 1.25).arg_int("n", n as i64);
            let compiled = compile_kernel(&k).unwrap();
            let c1 = compiled
                .run_with_scratch(&mut bufs, &launch, &mut scratch)
                .unwrap();
            let c2 = compiled.run(&mut bufs_fresh, &launch).unwrap();
            assert_eq!(c1, c2);
            assert_eq!(bufs["y"], bufs_fresh["y"], "shared scratch diverged");
        }
    }

    #[test]
    fn a_shadowing_let_reads_the_outer_binding_on_every_trip() {
        // Found by the differential fuzzer: each trip of a loop body is a
        // fresh scope, so the initializer of a shadowing `let` reads the
        // outer `t` on every trip, never the previous trip's shadow.
        let k = kernel("shadow")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("t", flit(1.0)),
                for_(
                    "k",
                    int(0),
                    int(3),
                    vec![
                        let_("t", var("t") + flit(1.0)),
                        store("c", var("k"), var("t")),
                    ],
                ),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(3, Precision::Double));
        let mut by_interp = bufs.clone();
        run_kernel(&k, &mut by_interp, &Launch::one_d(1)).unwrap();
        assert_eq!(by_interp["c"].to_f64_vec(), vec![2.0; 3]);
        assert_equiv(&k, bufs, &Launch::one_d(1));
    }

    #[test]
    fn a_load_held_in_a_variable_keeps_its_value_past_a_dot_step() {
        // `p` holds the row operand of each dot step and is read again:
        // by a store in the loop (a `let` in the body), or after the loop
        // (an outer `p` assigned in it). A fusion may consume only the
        // statement's own temporaries, so the step that reads `p` must not
        // swallow the load that writes it.
        let row = || load("a", var("i") * var("n") + var("kk"));
        let step = || add_assign("acc", var("p") * load("b", var("kk") * var("n") + var("j")));
        let at = || var("i") * var("n") + var("j");
        for outer in [false, true] {
            let (before, body, after) = if outer {
                (
                    vec![let_ty("p", Precision::Double, flit(0.0))],
                    vec![assign("p", row()), step()],
                    vec![store("d", at(), var("p"))],
                )
            } else {
                (
                    Vec::new(),
                    vec![let_("p", row()), step(), store("d", at(), var("p"))],
                    Vec::new(),
                )
            };
            let mut stmts = vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", flit(0.0)),
            ];
            stmts.extend(before);
            stmts.push(for_("kk", int(0), var("n"), body));
            stmts.push(store("c", at(), var("acc")));
            stmts.extend(after);
            let k = kernel("held")
                .buffer("a", Precision::Double, Access::Read)
                .buffer("b", Precision::Double, Access::Read)
                .buffer("c", Precision::Double, Access::ReadWrite)
                .buffer("d", Precision::Double, Access::Write)
                .int_param("n")
                .body(stmts);
            let n = 8usize;
            let mut bufs = gemm_buffers(n, Precision::Double);
            bufs.insert("d".into(), FloatVec::zeros(n * n, Precision::Double));
            let launch = Launch::two_d(n, n).arg_int("n", n as i64);
            assert_equiv_bitwise(&k, &bufs, &launch);
        }
    }

    #[test]
    fn weak_literal_chains_match() {
        // Literal arithmetic adopting a buffer's precision through nesting.
        let k = kernel("w")
            .buffer("c", Precision::Half, Access::ReadWrite)
            .body(vec![
                let_("i", global_id(0)),
                store(
                    "c",
                    var("i"),
                    (flit(0.1) + flit(0.2)) * load("c", var("i")) + flit(0.3),
                ),
            ]);
        let mut bufs = BufferMap::new();
        bufs.insert(
            "c".into(),
            FloatVec::from_f64_slice(&[1.0, 2.0, 4.0], Precision::Half),
        );
        assert_equiv(&k, bufs, &Launch::one_d(3));
    }

    /// gemm-shaped kernel: provably disjoint stores `c[i*n+j]`.
    fn gemm(elem: Precision) -> Kernel {
        kernel("gemm")
            .buffer("a", elem, Access::Read)
            .buffer("b", elem, Access::Read)
            .buffer("c", elem, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "kk",
                    int(0),
                    var("n"),
                    vec![add_assign(
                        "acc",
                        load("a", var("i") * var("n") + var("kk"))
                            * load("b", var("kk") * var("n") + var("j")),
                    )],
                ),
                store("c", var("i") * var("n") + var("j"), var("acc")),
            ])
    }

    fn gemm_buffers(n: usize, elem: Precision) -> BufferMap {
        let xs: Vec<f64> = (0..n * n)
            .map(|i| ((i * 7 % 23) as f64) * 0.37 - 3.1)
            .collect();
        let ys: Vec<f64> = (0..n * n)
            .map(|i| ((i * 5 % 19) as f64) * 0.29 - 2.3)
            .collect();
        let mut bufs = BufferMap::new();
        bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, elem));
        bufs.insert("b".into(), FloatVec::from_f64_slice(&ys, elem));
        bufs.insert("c".into(), FloatVec::zeros(n * n, elem));
        bufs
    }

    #[test]
    fn parallel_gemm_is_bit_identical_to_sequential() {
        for elem in Precision::ALL {
            let k = gemm(elem);
            let n = 16usize;
            let compiled = compile_kernel(&k).unwrap();
            assert!(matches!(
                compiled.parallel_safety(),
                ParallelSafety::Disjoint(_)
            ));
            let launch = Launch::two_d(n, n).arg_int("n", n as i64);
            let mut seq = gemm_buffers(n, elem);
            let counts_seq = compiled.run(&mut seq, &launch).unwrap();
            for threads in [2usize, 3, 8, 16] {
                let mut par = gemm_buffers(n, elem);
                let mut scratch = VmScratch::default();
                let counts_par = compiled
                    .run_parallel(&mut par, &launch, &mut scratch, threads)
                    .unwrap();
                assert_eq!(
                    counts_seq, counts_par,
                    "counts diverged at {threads} threads"
                );
                assert_eq!(seq["c"], par["c"], "output diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn unprovable_kernels_fall_back_to_sequential() {
        // tri stores through two sites with different coefficient shapes;
        // the analysis must reject it and run_parallel must still give
        // sequential results.
        let k = kernel("tri")
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_else(
                    lt(var("i"), var("j")),
                    vec![store("c", var("i") * var("n") + var("j"), flit(1.0))],
                    vec![store("c", var("j") * var("n") + var("i"), flit(-1.0))],
                ),
            ]);
        let n = 12usize;
        let compiled = compile_kernel(&k).unwrap();
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        let mut seq = BufferMap::new();
        seq.insert("c".into(), FloatVec::zeros(n * n, Precision::Single));
        let mut par = seq.clone();
        let counts_seq = compiled.run(&mut seq, &launch).unwrap();
        let mut scratch = VmScratch::default();
        let counts_par = compiled
            .run_parallel(&mut par, &launch, &mut scratch, 8)
            .unwrap();
        assert_eq!(counts_seq, counts_par);
        assert_eq!(seq["c"], par["c"]);
    }

    #[test]
    fn parallel_error_paths_match_sequential_partial_writes() {
        // Stores are provably disjoint (y[i]) but a *read-only* buffer is
        // loaded at 2*i which walks out of bounds mid-range: the parallel
        // path must reproduce the sequential error AND the sequential
        // partial-write state via snapshot + re-run.
        let k = kernel("oobmid")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::ReadWrite)
            .body(vec![
                let_("i", global_id(0)),
                store("y", var("i"), load("x", var("i") * int(2))),
            ]);
        let n = 128usize;
        let mut seq = BufferMap::new();
        seq.insert(
            "x".into(),
            FloatVec::from_f64_slice(
                &(0..n).map(|i| i as f64).collect::<Vec<_>>(),
                Precision::Double,
            ),
        );
        seq.insert("y".into(), FloatVec::zeros(n, Precision::Double));
        let mut par = seq.clone();
        let compiled = compile_kernel(&k).unwrap();
        let launch = Launch::one_d(n);
        let err_seq = compiled.run(&mut seq, &launch).unwrap_err();
        let mut scratch = VmScratch::default();
        let err_par = compiled
            .run_parallel(&mut par, &launch, &mut scratch, 8)
            .unwrap_err();
        assert_eq!(format!("{err_seq:?}"), format!("{err_par:?}"));
        assert_eq!(seq["y"], par["y"], "partial writes diverged");
        assert_eq!(seq["x"], par["x"]);
    }

    #[test]
    fn duplicate_launch_args_keep_last_wins_semantics() {
        // Historical behaviour: the last duplicate of a launch argument
        // wins. The slot-table binder must preserve that.
        let k = saxpy(Precision::Double);
        let compiled = compile_kernel(&k).unwrap();
        let n = 8usize;
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::zeros(n, Precision::Double));
        bufs.insert(
            "y".into(),
            FloatVec::from_f64_slice(&vec![1.0; n], Precision::Double),
        );
        let launch = Launch::one_d(n)
            .arg_float("a", 99.0)
            .arg_int("n", 0)
            .arg_float("a", 2.0)
            .arg_int("n", n as i64);
        compiled.run(&mut bufs, &launch).unwrap();
        // With a=2 and x=0, y must stay 1.0 everywhere and all n items ran.
        assert_eq!(bufs["y"].get(n - 1), 1.0);
    }
}
