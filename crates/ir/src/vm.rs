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
//! Three implementation points matter for the equivalence:
//!
//! * Float registers hold `f64` values that are always exactly
//!   representable at the operand's static precision (integer operands
//!   of float arithmetic are converted at the operation's precision), so
//!   computing a binary16/32 operation by rounding the `f64` inputs is
//!   exact. For binary16 `+ - * /` the `f64` result of two binary16
//!   operands is exact (`+ - *`) or correctly rounded with 53 ≥ 2·11+2
//!   bits (`/`), so one rounding to binary16 gives the correctly rounded
//!   result; NaN results take the `F16` operators so payloads match.
//! * Constants and `get_global_id(d ≥ 2)` live in a launch-bound pool:
//!   one register per distinct value, written once when a launch binds
//!   and never the destination of an op.
//! * Counting is *static per straight-line region*: the compiler
//!   pre-computes each region's [`OpCounts`] delta and the VM adds it once
//!   per execution, which is exact because within a region every counted
//!   operation executes unconditionally.

pub use crate::analysis::ParallelSafety;
use crate::analysis::{self, ChunkPlan};
use crate::array::FloatVec;
use crate::ast::{Expr, Kernel, Param, Stmt, TypeRef};
use crate::counts::OpCounts;
use crate::interp::{ArgValue, BufferMap, ExecError, Launch};
use crate::types::{Precision, ScalarType};
use crate::value::{CmpOp, FloatBinOp, UnaryFn};
use prescaler_fp16::F16;
use std::collections::HashMap;
use std::ops::Range;

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
    /// `i[dst] = i[a] + imm` (loop bookkeeping).
    IAddImm { dst: IReg, a: IReg, imm: i64 },
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
    /// Exact i64 → f64, then round to the precision.
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
    // Fused superinstructions, produced only by the peephole pass. Each
    // is the exact composition of the ops it replaces — same values,
    // same error behaviour — collapsing the dispatch count of hot loops.
    // ------------------------------------------------------------------
    /// `ICmp` + `JumpIfFalse` on its (otherwise dead) result.
    JumpICmpFalse {
        op: CmpOp,
        a: IReg,
        b: IReg,
        target: u32,
    },
    /// `FCmp` + `JumpIfFalse` on its (otherwise dead) result.
    JumpFCmpFalse {
        op: CmpOp,
        a: FReg,
        b: FReg,
        target: u32,
    },
    /// Loop back-edge: `IAddImm` + `Jump` (increment, then jump).
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
    /// `Count` folded into the loop back-edge `IAddImmJump` (the
    /// increment fits in an `i32` whenever this fires).
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

/// Operands of a fused [`Op::DotLoop`]: while `i[var] op i[end]`, run
/// `step` (which accumulates in place: its `dst` is its `acc`), tally
/// count site `count`, and advance `i[var]` by `imm` (wrapping).
#[derive(Clone, Copy, Debug, PartialEq)]
struct DotLoopArgs {
    op: CmpOp,
    var: IReg,
    end: IReg,
    step: DotStepArgs,
    count: u32,
    imm: i32,
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

/// A compiled kernel.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    name: String,
    ops: Vec<Op>,
    counts_table: Vec<OpCounts>,
    dot_table: Vec<DotStepArgs>,
    loop_table: Vec<DotLoopArgs>,
    /// Constant pool: registers written once per launch by `bind`.
    int_pool: Vec<(IReg, i64)>,
    float_pool: Vec<(FReg, f64)>,
    params: Vec<ParamBind>,
    /// Launch-argument name → scalar slot, resolved once at compile time.
    arg_slots: HashMap<String, u32>,
    n_arg_slots: u32,
    n_iregs: u32,
    n_fregs: u32,
    /// Disjoint-write verdict, computed once at compile time; decides
    /// whether [`CompiledKernel::run_parallel`] may chunk the NDRange.
    safety: ParallelSafety,
}

/// Reusable execution state for [`CompiledKernel::run_with_scratch`]:
/// register files, counter tallies, argument slots, the buffer-binding
/// list, and (for parallel runs) per-chunk worker state. Holding one
/// scratch across launches avoids every per-launch heap allocation; any
/// kernel can run against any scratch.
#[derive(Debug, Default)]
pub struct VmScratch {
    iregs: Vec<i64>,
    fregs: Vec<f64>,
    bufs: Vec<(String, FloatVec)>,
    hits: Vec<u64>,
    args: Vec<Option<ArgValue>>,
    workers: Vec<Worker>,
}

/// Per-chunk execution state for the parallel executor: a private
/// register file and counter tally, seeded from the launch-bound
/// prototype before each run.
#[derive(Debug, Default)]
struct Worker {
    iregs: Vec<i64>,
    fregs: Vec<f64>,
    hits: Vec<u64>,
}

impl VmScratch {
    /// An empty scratch; storage grows on first use.
    #[must_use]
    pub fn new() -> VmScratch {
        VmScratch::default()
    }
}

/// Moves temporarily-bound buffers back into the caller's map.
fn restore(buffers: &mut BufferMap, bufs: &mut Vec<(String, FloatVec)>) {
    for (name, data) in bufs.drain(..) {
        buffers.insert(name, data);
    }
}

/// Compile-time value classification.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CTy {
    Int,
    F(Precision),
    Bool,
}

impl CTy {
    fn precision(self) -> Option<Precision> {
        match self {
            CTy::F(p) => Some(p),
            _ => None,
        }
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
    let mut c = Compiler {
        kernel,
        ops: Vec::new(),
        counts_table: Vec::new(),
        pending: OpCounts::new(),
        scopes: vec![HashMap::new()],
        next_i: 2, // iregs 0/1 are get_global_id(0)/(1)
        next_f: 0,
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
            Param::Buffer { name, elem, .. } => {
                // Buffers index the *buffer* binding list, which skips
                // scalar parameters.
                c.buf_index.insert(name.clone(), n_bufs);
                n_bufs += 1;
                c.params.push(ParamBind::Buffer {
                    name: name.clone(),
                    elem: *elem,
                });
            }
            Param::Scalar { name, ty } => {
                let slot = n_slots;
                n_slots += 1;
                arg_slots.insert(name.clone(), slot);
                match kernel.resolve(ty) {
                    ScalarType::Int => {
                        let reg = c.alloc_i();
                        c.params.push(ParamBind::ScalarInt {
                            name: name.clone(),
                            reg,
                            slot,
                        });
                        c.scopes[0].insert(name.clone(), (Val::I(reg), CTy::Int));
                    }
                    ScalarType::Float(prec) => {
                        let reg = c.alloc_f();
                        c.params.push(ParamBind::ScalarFloat {
                            name: name.clone(),
                            prec,
                            reg,
                            slot,
                        });
                        c.scopes[0].insert(name.clone(), (Val::F(reg), CTy::F(prec)));
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
    c.ops.push(Op::Halt);

    let mut tables = FusionTables::default();
    let ops = peephole(c.ops, &mut tables);
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        ops,
        counts_table: c.counts_table,
        dot_table: tables.dot,
        loop_table: tables.loops,
        int_pool: c.int_pool,
        float_pool: c.float_pool,
        params: c.params,
        arg_slots,
        n_arg_slots: n_slots,
        n_iregs: c.next_i,
        n_fregs: c.next_f,
        safety: analysis::parallel_safety(kernel),
    })
}

struct Compiler<'k> {
    kernel: &'k Kernel,
    ops: Vec<Op>,
    counts_table: Vec<OpCounts>,
    pending: OpCounts,
    scopes: Vec<HashMap<String, (Val, CTy)>>,
    next_i: u32,
    next_f: u32,
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
        self.float_pool.push((r, v));
        r
    }

    fn lookup(&self, name: &str) -> Result<(Val, CTy), ExecError> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(*v);
            }
        }
        Err(ExecError::UnboundVar(name.to_owned()))
    }

    /// The innermost scope, recreating the root scope if it was lost.
    fn top_scope(&mut self) -> &mut HashMap<String, (Val, CTy)> {
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        let top = self.scopes.len() - 1;
        &mut self.scopes[top]
    }

    /// Flushes the pending straight-line counts as a `Count` op.
    fn flush(&mut self) {
        if self.pending == OpCounts::new() {
            return;
        }
        let idx = self.counts_table.len() as u32;
        self.counts_table.push(self.pending);
        self.pending = OpCounts::new();
        self.ops.push(Op::Count { idx });
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch_jump(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jump(t) => *t = target,
            Op::JumpIfFalse { target: t, .. } => *t = target,
            other => unreachable!("patching a non-jump {other:?}"),
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
        self.scopes.push(HashMap::new());
        let r = f(self);
        self.scopes.pop();
        r
    }

    fn stmt(&mut self, stmt: &'k Stmt) -> Result<(), ExecError> {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let hint = ty.as_ref().and_then(|t| match self.kernel.resolve(t) {
                    ScalarType::Float(p) => Some(p),
                    _ => None,
                });
                let (mut v, mut t) = self.expr(value, hint)?;
                if let Some(tr) = ty {
                    (v, t) = self.coerce(v, t, self.kernel.resolve(tr));
                }
                // Copy into a dedicated register so reassignment works.
                let slot = match v {
                    Val::I(src) => {
                        let dst = self.alloc_i();
                        self.ops.push(Op::IMov { dst, src });
                        Val::I(dst)
                    }
                    Val::F(src) => {
                        let dst = self.alloc_f();
                        self.ops.push(Op::FMov { dst, src });
                        Val::F(dst)
                    }
                };
                self.top_scope().insert(name.clone(), (slot, t));
            }
            Stmt::Assign { name, value } => {
                let (slot, t) = self.lookup(name)?;
                let hint = t.precision();
                let (v, vt) = self.expr(value, hint)?;
                let target = match t {
                    CTy::Int => ScalarType::Int,
                    CTy::F(p) => ScalarType::Float(p),
                    CTy::Bool => ScalarType::Bool,
                };
                let (v, _) = self.coerce(v, vt, target);
                match (slot, v) {
                    (Val::I(dst), Val::I(src)) => self.ops.push(Op::IMov { dst, src }),
                    (Val::F(dst), Val::F(src)) => self.ops.push(Op::FMov { dst, src }),
                    _ => {
                        return Err(ExecError::KindError(format!(
                            "assignment changes the kind of `{name}`"
                        )));
                    }
                }
            }
            Stmt::Store { buf, index, value } => {
                let Some(elem) = self.kernel.buffer_elem(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                let (iv, it) = self.expr(index, None)?;
                if it != CTy::Int {
                    return Err(ExecError::KindError(format!(
                        "index into `{buf}` must be an integer"
                    )));
                }
                let idx = iv.ireg();
                let (v, vt) = self.expr(value, Some(elem))?;
                // Mirror the interpreter: a store converts unless the value
                // is already a float of the element precision.
                let src = match vt {
                    CTy::F(p) if p == elem => v.freg(),
                    CTy::F(_) => {
                        self.pending.converts += 1;
                        v.freg() // Store itself rounds to the element type
                    }
                    CTy::Int => {
                        self.pending.converts += 1;
                        let dst = self.alloc_f();
                        self.ops.push(Op::IToF {
                            prec: Precision::Double,
                            dst,
                            a: v.ireg(),
                        });
                        dst
                    }
                    CTy::Bool => {
                        return Err(ExecError::KindError(format!(
                            "cannot store a boolean into `{buf}`"
                        )));
                    }
                };
                self.pending.at_mut(elem).stores += 1;
                let Some(&b) = self.buf_index.get(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                self.ops.push(Op::Store { buf: b, idx, src });
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let (sv, st) = self.expr(start, None)?;
                let (ev, et) = self.expr(end, None)?;
                if st != CTy::Int || et != CTy::Int {
                    return Err(ExecError::KindError(format!(
                        "loop bound for `{var}` must be an integer"
                    )));
                }
                let s = sv.ireg();
                let e = ev.ireg();
                // Copy the end bound: it must stay stable even if its
                // source register is reused (it is not, but be explicit).
                let var_reg = self.alloc_i();
                self.ops.push(Op::IMov {
                    dst: var_reg,
                    src: s,
                });
                self.flush();
                let head = self.here();
                let cond = self.alloc_i();
                self.ops.push(Op::ICmp {
                    op: CmpOp::Lt,
                    dst: cond,
                    a: var_reg,
                    b: e,
                });
                let exit_jump = self.ops.len();
                self.ops.push(Op::JumpIfFalse {
                    cond,
                    target: u32::MAX,
                });
                // Per-iteration loop bookkeeping (compare + increment).
                self.pending.int_ops += 2;
                self.scoped(|c| {
                    c.top_scope()
                        .insert(var.clone(), (Val::I(var_reg), CTy::Int));
                    c.block(body)
                })?;
                self.flush();
                self.ops.push(Op::IAddImm {
                    dst: var_reg,
                    a: var_reg,
                    imm: 1,
                });
                self.ops.push(Op::Jump(head));
                let after = self.here();
                self.patch_jump(exit_jump, after);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let (cv, ct) = self.expr(cond, None)?;
                if ct != CTy::Bool {
                    return Err(ExecError::KindError(
                        "if condition must be a boolean".to_owned(),
                    ));
                }
                let c = cv.ireg();
                self.flush();
                let else_jump = self.ops.len();
                self.ops.push(Op::JumpIfFalse {
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
                    self.ops.push(Op::Jump(u32::MAX));
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

    /// Coerces a value to a scalar type, mirroring `Interp::coerce`
    /// (counts a conversion when the representation changes).
    fn coerce(&mut self, v: Val, t: CTy, target: ScalarType) -> (Val, CTy) {
        match (t, target) {
            (CTy::Bool, _) | (_, ScalarType::Bool) => (v, t),
            (CTy::Int, ScalarType::Int) => (v, t),
            (CTy::Int, ScalarType::Float(p)) => {
                self.pending.converts += 1;
                let dst = self.alloc_f();
                self.ops.push(Op::IToF {
                    prec: p,
                    dst,
                    a: v.ireg(),
                });
                (Val::F(dst), CTy::F(p))
            }
            (CTy::F(_), ScalarType::Int) => {
                self.pending.converts += 1;
                let dst = self.alloc_i();
                self.ops.push(Op::FToI { dst, a: v.freg() });
                (Val::I(dst), CTy::Int)
            }
            (CTy::F(q), ScalarType::Float(p)) => {
                if q == p {
                    (v, t)
                } else {
                    self.pending.converts += 1;
                    let dst = self.alloc_f();
                    self.ops.push(Op::Cvt {
                        prec: p,
                        dst,
                        a: v.freg(),
                    });
                    (Val::F(dst), CTy::F(p))
                }
            }
        }
    }

    /// Compiles an expression, mirroring `Interp::eval`'s hint threading.
    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &'k Expr, hint: Option<Precision>) -> Result<(Val, CTy), ExecError> {
        match e {
            Expr::FloatConst(v) => {
                let p = hint.unwrap_or(Precision::Double);
                let r = self.float_const(round_to(p, *v));
                Ok((Val::F(r), CTy::F(p)))
            }
            Expr::IntConst(v) => Ok((Val::I(self.int_const(*v)), CTy::Int)),
            Expr::GlobalId(d) => {
                if *d < 2 {
                    Ok((Val::I(*d as IReg), CTy::Int))
                } else {
                    Ok((Val::I(self.int_const(0)), CTy::Int))
                }
            }
            Expr::Var(name) => self.lookup(name),
            Expr::Load { buf, index } => {
                let (iv, it) = self.expr(index, None)?;
                if it != CTy::Int {
                    return Err(ExecError::KindError(format!(
                        "index into `{buf}` must be an integer"
                    )));
                }
                let idx = iv.ireg();
                let Some(elem) = self.kernel.buffer_elem(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                self.pending.at_mut(elem).loads += 1;
                let dst = self.alloc_f();
                let Some(&b) = self.buf_index.get(buf) else {
                    return Err(ExecError::NotABuffer(buf.clone()));
                };
                self.ops.push(Op::Load { buf: b, idx, dst });
                Ok((Val::F(dst), CTy::F(elem)))
            }
            Expr::Unary { op, arg } => {
                let (v, t) = self.expr(arg, hint)?;
                match t {
                    CTy::F(p) => {
                        let slot = self.pending.at_mut(p);
                        match op {
                            UnaryFn::Neg | UnaryFn::Fabs => slot.add_sub += 1,
                            _ => slot.special += 1,
                        }
                        let dst = self.alloc_f();
                        self.ops.push(Op::FUn {
                            prec: p,
                            op: *op,
                            dst,
                            a: v.freg(),
                        });
                        Ok((Val::F(dst), CTy::F(p)))
                    }
                    CTy::Int => {
                        self.pending.int_ops += 1;
                        match op {
                            UnaryFn::Neg | UnaryFn::Fabs => {
                                let dst = self.alloc_i();
                                self.ops.push(Op::IUn {
                                    op: *op,
                                    dst,
                                    a: v.ireg(),
                                });
                                Ok((Val::I(dst), CTy::Int))
                            }
                            _ => {
                                // sqrt/exp/log of an int computes in double.
                                let wide = self.alloc_f();
                                self.ops.push(Op::IToF {
                                    prec: Precision::Double,
                                    dst: wide,
                                    a: v.ireg(),
                                });
                                let dst = self.alloc_f();
                                self.ops.push(Op::FUn {
                                    prec: Precision::Double,
                                    op: *op,
                                    dst,
                                    a: wide,
                                });
                                Ok((Val::F(dst), CTy::F(Precision::Double)))
                            }
                        }
                    }
                    CTy::Bool => Err(ExecError::KindError(
                        "boolean passed to a math function".to_owned(),
                    )),
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let (a, ta, b, tb) = self.pair(lhs, rhs, hint)?;
                if ta == CTy::Bool || tb == CTy::Bool {
                    return Err(ExecError::KindError(
                        "boolean operand in arithmetic".to_owned(),
                    ));
                }
                match (ta, tb) {
                    (CTy::Int, CTy::Int) => {
                        self.pending.int_ops += 1;
                        let dst = self.alloc_i();
                        self.ops.push(Op::IBin {
                            op: *op,
                            dst,
                            a: a.ireg(),
                            b: b.ireg(),
                        });
                        Ok((Val::I(dst), CTy::Int))
                    }
                    _ => {
                        let p = promote_cty(ta, tb);
                        let fa = self.float_operand(a, ta, p);
                        let fb = self.float_operand(b, tb, p);
                        let slot = self.pending.at_mut(p);
                        match op {
                            FloatBinOp::Add
                            | FloatBinOp::Sub
                            | FloatBinOp::Min
                            | FloatBinOp::Max => slot.add_sub += 1,
                            FloatBinOp::Mul => slot.mul += 1,
                            FloatBinOp::Div => slot.div += 1,
                        }
                        let dst = self.alloc_f();
                        self.ops.push(Op::FBin {
                            prec: p,
                            op: *op,
                            dst,
                            a: fa,
                            b: fb,
                        });
                        Ok((Val::F(dst), CTy::F(p)))
                    }
                }
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (a, ta, b, tb) = self.pair(lhs, rhs, None)?;
                if ta == CTy::Bool || tb == CTy::Bool {
                    return Err(ExecError::KindError(
                        "boolean operand in comparison".to_owned(),
                    ));
                }
                match (ta, tb) {
                    (CTy::Int, CTy::Int) => {
                        self.pending.int_ops += 1;
                        let dst = self.alloc_i();
                        self.ops.push(Op::ICmp {
                            op: *op,
                            dst,
                            a: a.ireg(),
                            b: b.ireg(),
                        });
                        Ok((Val::I(dst), CTy::Bool))
                    }
                    _ => {
                        let p = promote_cty(ta, tb);
                        self.pending.at_mut(p).cmp += 1;
                        // Comparisons are exact on the f64 values, so an
                        // integer operand widens without rounding.
                        let fa = self.float_operand(a, ta, Precision::Double);
                        let fb = self.float_operand(b, tb, Precision::Double);
                        let dst = self.alloc_i();
                        self.ops.push(Op::FCmp {
                            op: *op,
                            dst,
                            a: fa,
                            b: fb,
                        });
                        Ok((Val::I(dst), CTy::Bool))
                    }
                }
            }
            Expr::Cast { to, arg } => {
                let (v, t) = self.expr(arg, None)?;
                let target = match to {
                    TypeRef::Concrete(t) => *t,
                    TypeRef::ElemOf(_) => self.kernel.resolve(to),
                };
                Ok(self.coerce(v, t, target))
            }
            Expr::Select { cond, then, els } => {
                let (cv, ct) = self.expr(cond, None)?;
                if ct != CTy::Bool {
                    return Err(ExecError::KindError(
                        "select condition must be a boolean".to_owned(),
                    ));
                }
                let c = cv.ireg();
                let (a, ta, b, tb) = self.pair(then, els, hint)?;
                match (ta, tb) {
                    (CTy::Int, CTy::Int) => {
                        let dst = self.alloc_i();
                        self.ops.push(Op::SelectI {
                            cond: c,
                            dst,
                            a: a.ireg(),
                            b: b.ireg(),
                        });
                        Ok((Val::I(dst), CTy::Int))
                    }
                    (CTy::F(pa), CTy::F(pb)) => {
                        let p = pa.max(pb);
                        let fa = if pa < p {
                            self.coerce(a, ta, ScalarType::Float(p)).0.freg()
                        } else {
                            a.freg()
                        };
                        let fb = if pb < p {
                            self.coerce(b, tb, ScalarType::Float(p)).0.freg()
                        } else {
                            b.freg()
                        };
                        let dst = self.alloc_f();
                        self.ops.push(Op::SelectF {
                            cond: c,
                            dst,
                            a: fa,
                            b: fb,
                        });
                        Ok((Val::F(dst), CTy::F(p)))
                    }
                    _ => Err(ExecError::KindError(
                        "select arms disagree in kind".to_owned(),
                    )),
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
    ) -> Result<(Val, CTy, Val, CTy), ExecError> {
        let lw = expr_is_weak(lhs);
        let rw = expr_is_weak(rhs);
        if lw && !rw {
            let (b, tb) = self.expr(rhs, hint)?;
            let (a, ta) = self.expr(lhs, tb.precision())?;
            Ok((a, ta, b, tb))
        } else if rw && !lw {
            let (a, ta) = self.expr(lhs, hint)?;
            let (b, tb) = self.expr(rhs, ta.precision())?;
            Ok((a, ta, b, tb))
        } else {
            let (a, ta) = self.expr(lhs, hint)?;
            let (b, tb) = self.expr(rhs, hint)?;
            Ok((a, ta, b, tb))
        }
    }

    /// Materializes an operand as a float register for a promoted binop
    /// (uncounted, mirroring `Scalar::binop`'s internal widening): an
    /// integer converts at the operation's precision `p`, which is the
    /// rounding the operation itself applies to it, so the register holds
    /// an exact value of `p`. Callers reject boolean operands before
    /// reaching here, so only ints widen.
    fn float_operand(&mut self, v: Val, t: CTy, p: Precision) -> FReg {
        match t {
            CTy::F(_) | CTy::Bool => v.freg(),
            CTy::Int => {
                let dst = self.alloc_f();
                self.ops.push(Op::IToF {
                    prec: p,
                    dst,
                    a: v.ireg(),
                });
                dst
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Peephole fusion
// ---------------------------------------------------------------------------

/// Side tables of fused ops whose operands do not fit in an [`Op`].
#[derive(Default)]
struct FusionTables {
    dot: Vec<DotStepArgs>,
    loops: Vec<DotLoopArgs>,
}

/// The destination register an op writes, if it has exactly one.
fn dst_of(op: Op, t: &FusionTables) -> Option<Val> {
    match op {
        Op::IMov { dst, .. }
        | Op::IBin { dst, .. }
        | Op::IAddImm { dst, .. }
        | Op::IUn { dst, .. }
        | Op::ICmp { dst, .. }
        | Op::FCmp { dst, .. }
        | Op::FToI { dst, .. }
        | Op::SelectI { dst, .. } => Some(Val::I(dst)),
        Op::FMov { dst, .. }
        | Op::FBin { dst, .. }
        | Op::FUn { dst, .. }
        | Op::Cvt { dst, .. }
        | Op::IToF { dst, .. }
        | Op::Load { dst, .. }
        | Op::SelectF { dst, .. }
        | Op::FMulAcc { dst, .. } => Some(Val::F(dst)),
        Op::DotStep { idx } => Some(Val::F(t.dot[idx as usize].dst)),
        _ => None,
    }
}

/// Rewrites an op's destination register (same kind).
fn with_dst(op: Op, new: Val, t: &mut FusionTables) -> Op {
    let mut op = op;
    match (&mut op, new) {
        (Op::DotStep { idx }, Val::F(r)) => t.dot[*idx as usize].dst = r,
        (
            Op::IMov { dst, .. }
            | Op::IBin { dst, .. }
            | Op::IAddImm { dst, .. }
            | Op::IUn { dst, .. }
            | Op::ICmp { dst, .. }
            | Op::FCmp { dst, .. }
            | Op::FToI { dst, .. }
            | Op::SelectI { dst, .. },
            Val::I(r),
        ) => *dst = r,
        (
            Op::FMov { dst, .. }
            | Op::FBin { dst, .. }
            | Op::FUn { dst, .. }
            | Op::Cvt { dst, .. }
            | Op::IToF { dst, .. }
            | Op::Load { dst, .. }
            | Op::SelectF { dst, .. }
            | Op::FMulAcc { dst, .. },
            Val::F(r),
        ) => *dst = r,
        _ => unreachable!("destination kind mismatch in peephole"),
    }
    op
}

/// Calls `fi`/`ff` for every integer / float register a dot step reads.
fn dot_reads(d: &DotStepArgs, fi: &mut impl FnMut(IReg), ff: &mut impl FnMut(FReg)) {
    for r in [d.a1, d.b1, d.c1, d.a2, d.b2, d.c2] {
        fi(r);
    }
    ff(d.acc);
}

/// Calls `fi`/`ff` for every integer / float register an op reads.
fn for_each_read(op: Op, t: &FusionTables, fi: &mut impl FnMut(IReg), ff: &mut impl FnMut(FReg)) {
    match op {
        Op::Jump(_) | Op::Count { .. } | Op::Halt => {}
        Op::JumpIfFalse { cond, .. } => fi(cond),
        Op::IMov { src, .. } => fi(src),
        Op::FMov { src, .. } => ff(src),
        Op::IBin { a, b, .. } | Op::ICmp { a, b, .. } | Op::JumpICmpFalse { a, b, .. } => {
            fi(a);
            fi(b);
        }
        Op::IAddImm { a, .. }
        | Op::IAddImmJump { a, .. }
        | Op::CountAddJump { a, .. }
        | Op::IUn { a, .. } => fi(a),
        Op::DotStep { idx } => dot_reads(&t.dot[idx as usize], fi, ff),
        Op::DotLoop { idx } => {
            let l = &t.loops[idx as usize];
            fi(l.var);
            fi(l.end);
            dot_reads(&l.step, fi, ff);
        }
        Op::FCmp { a, b, .. } | Op::FBin { a, b, .. } | Op::JumpFCmpFalse { a, b, .. } => {
            ff(a);
            ff(b);
        }
        Op::FUn { a, .. } | Op::Cvt { a, .. } | Op::FToI { a, .. } => ff(a),
        Op::IToF { a, .. } => fi(a),
        Op::Load { idx, .. } => fi(idx),
        Op::Store { idx, src, .. } => {
            fi(idx);
            ff(src);
        }
        Op::LoadMulAdd { a, b, c, .. } => {
            fi(a);
            fi(b);
            fi(c);
        }
        Op::FMulAcc { acc, a, b, .. } => {
            ff(acc);
            ff(a);
            ff(b);
        }
        Op::SelectF { cond, a, b, .. } => {
            fi(cond);
            ff(a);
            ff(b);
        }
        Op::SelectI { cond, a, b, .. } => {
            fi(cond);
            fi(a);
            fi(b);
        }
    }
}

/// Fuses adjacent op patterns into superinstructions.
///
/// Every fusion is semantics-preserving by construction:
///
/// * a group is only fused when no interior op is a jump target, so
///   control flow cannot enter the middle of a fused sequence;
/// * an intermediate register is only eliminated when its *global* read
///   count is exactly the one read inside the group, so no other op (in
///   this or any later loop iteration) can observe the dropped write;
/// * the fused op performs the identical arithmetic in the identical
///   order (including wrapping/rounding and bounds checks).
///
/// Count deltas are never altered: a `Count` either survives verbatim or
/// rides along inside `CountAddJump` (and then `DotLoop`) with the same
/// table index, so [`OpCounts`] are unchanged.
///
/// Runs to a fixpoint: a fused op can enable further fusion (e.g. the
/// multiply-accumulate's result copy sinks on the next pass, and a loop
/// whose body became one `DotStep` fuses whole on the pass after).
fn peephole(mut ops: Vec<Op>, tables: &mut FusionTables) -> Vec<Op> {
    loop {
        let before = ops.len();
        ops = peephole_pass(ops, tables);
        if ops.len() == before {
            return ops;
        }
    }
}

#[allow(clippy::too_many_lines)]
fn peephole_pass(ops: Vec<Op>, tables: &mut FusionTables) -> Vec<Op> {
    let n = ops.len();
    let mut is_target = vec![false; n];
    // Read counts per register (registers are dense indices).
    let bump = |reads: &mut Vec<u32>, r: u32| {
        let r = r as usize;
        if r >= reads.len() {
            reads.resize(r + 1, 0);
        }
        reads[r] += 1;
    };
    let mut ireads = Vec::new();
    let mut freads = Vec::new();
    for &op in &ops {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::JumpICmpFalse { target: t, .. }
            | Op::JumpFCmpFalse { target: t, .. }
            | Op::IAddImmJump { target: t, .. }
            | Op::CountAddJump { target: t, .. } => is_target[t as usize] = true,
            _ => {}
        }
        for_each_read(op, tables, &mut |r| bump(&mut ireads, r), &mut |r| {
            bump(&mut freads, r);
        });
    }
    let iread = |r: IReg| ireads.get(r as usize).copied().unwrap_or(0);
    let fread = |r: FReg| freads.get(r as usize).copied().unwrap_or(0);
    let interior_free = |lo: usize, hi: usize| (lo..=hi).all(|k| !is_target[k]);

    let mut out = Vec::with_capacity(n);
    let mut remap = vec![0u32; n + 1];
    let mut i = 0usize;
    while i < n {
        let new_pc = out.len() as u32;
        let fused: Option<(Op, usize)> = match (ops[i], ops.get(i + 1), ops.get(i + 2)) {
            // Row-major indexed load: t1 = a*b; t2 = t1+c; dst = buf[t2].
            (
                Op::IBin {
                    op: FloatBinOp::Mul,
                    dst: t1,
                    a,
                    b,
                },
                Some(&Op::IBin {
                    op: FloatBinOp::Add,
                    dst: t2,
                    a: aa,
                    b: ab,
                }),
                Some(&Op::Load { buf, idx, dst }),
            ) if idx == t2
                && (aa == t1 || ab == t1)
                && iread(t1) == 1
                && iread(t2) == 1
                && interior_free(i + 1, i + 2) =>
            {
                // Wrapping add commutes, so either operand slot works.
                let c = if aa == t1 { ab } else { aa };
                Some((Op::LoadMulAdd { buf, a, b, c, dst }, 3))
            }
            // Multiply feeding only an accumulate (`acc + a*b`): fuse
            // keeping both roundings and the exact operand order.
            (
                Op::FBin {
                    prec: pm,
                    op: FloatBinOp::Mul,
                    dst: t,
                    a,
                    b,
                },
                Some(&Op::FBin {
                    prec: pa,
                    op: FloatBinOp::Add,
                    dst,
                    a: acc,
                    b: prod,
                }),
                _,
            ) if prod == t && fread(t) == 1 && interior_free(i + 1, i + 1) => Some((
                Op::FMulAcc {
                    pm,
                    pa,
                    dst,
                    acc,
                    a,
                    b,
                },
                2,
            )),
            // Compare feeding only a branch.
            (Op::ICmp { op, dst, a, b }, Some(&Op::JumpIfFalse { cond, target }), _)
                if cond == dst && iread(dst) == 1 && interior_free(i + 1, i + 1) =>
            {
                Some((Op::JumpICmpFalse { op, a, b, target }, 2))
            }
            (Op::FCmp { op, dst, a, b }, Some(&Op::JumpIfFalse { cond, target }), _)
                if cond == dst && iread(dst) == 1 && interior_free(i + 1, i + 1) =>
            {
                Some((Op::JumpFCmpFalse { op, a, b, target }, 2))
            }
            // Loop back-edge: increment, then unconditional jump.
            (Op::IAddImm { dst, a, imm }, Some(&Op::Jump(target)), _)
                if interior_free(i + 1, i + 1) =>
            {
                Some((
                    Op::IAddImmJump {
                        dst,
                        a,
                        imm,
                        target,
                    },
                    2,
                ))
            }
            // Per-iteration counter flush folded into the back-edge.
            (
                Op::Count { idx },
                Some(&Op::IAddImmJump {
                    dst,
                    a,
                    imm,
                    target,
                }),
                _,
            ) if interior_free(i + 1, i + 1) && i32::try_from(imm).is_ok() => Some((
                Op::CountAddJump {
                    idx,
                    dst,
                    a,
                    imm: imm as i32,
                    target,
                },
                2,
            )),
            // A dot-product step: two indexed loads whose only consumer
            // is a multiply-accumulate, in operand order.
            (
                Op::LoadMulAdd {
                    buf: buf1,
                    a: a1,
                    b: b1,
                    c: c1,
                    dst: t1,
                },
                Some(&Op::LoadMulAdd {
                    buf: buf2,
                    a: a2,
                    b: b2,
                    c: c2,
                    dst: t2,
                }),
                Some(&Op::FMulAcc {
                    pm,
                    pa,
                    dst,
                    acc,
                    a: ma,
                    b: mb,
                }),
            ) if ma == t1
                && mb == t2
                && t1 != t2
                && fread(t1) == 1
                && fread(t2) == 1
                && interior_free(i + 1, i + 2) =>
            {
                let idx = tables.dot.len() as u32;
                tables.dot.push(DotStepArgs {
                    pm,
                    pa,
                    post: Precision::Double,
                    dst,
                    acc,
                    buf1,
                    a1,
                    b1,
                    c1,
                    buf2,
                    a2,
                    b2,
                    c2,
                });
                Some((Op::DotStep { idx }, 3))
            }
            // A conversion whose only input is a dot step's sum becomes
            // the step's third rounding (an accumulator narrower than the
            // product, e.g. double operands summed into a half result).
            (Op::DotStep { idx }, Some(&Op::Cvt { prec, dst, a }), _)
                if tables.dot[idx as usize].post == Precision::Double
                    && tables.dot[idx as usize].dst == a
                    && fread(a) == 1
                    && interior_free(i + 1, i + 1) =>
            {
                let d = &mut tables.dot[idx as usize];
                d.post = prec;
                d.dst = dst;
                Some((Op::DotStep { idx }, 2))
            }
            // A whole counted loop whose body is one dot step accumulating
            // in place: the head compares the counter with a bound, exits
            // just past the back-edge, and the back-edge advances the
            // counter and jumps to the head. Only the counter and the
            // accumulator change inside such a loop.
            (
                Op::JumpICmpFalse {
                    op,
                    a: var,
                    b: end,
                    target: exit,
                },
                Some(&Op::DotStep { idx: step }),
                Some(&Op::CountAddJump {
                    idx: count,
                    dst,
                    a: src,
                    imm,
                    target: head,
                }),
            ) if head as usize == i
                && exit as usize == i + 3
                && dst == var
                && src == var
                && end != var
                && tables.dot[step as usize].dst == tables.dot[step as usize].acc
                && interior_free(i + 1, i + 2) =>
            {
                let idx = tables.loops.len() as u32;
                tables.loops.push(DotLoopArgs {
                    op,
                    var,
                    end,
                    step: tables.dot[step as usize],
                    count,
                    imm,
                });
                Some((Op::DotLoop { idx }, 3))
            }
            // Copy sink: a producer whose only consumer is a register move
            // writes the move's destination directly.
            (producer, Some(&Op::IMov { dst, src }), _)
                if dst_of(producer, tables) == Some(Val::I(src))
                    && iread(src) == 1
                    && interior_free(i + 1, i + 1) =>
            {
                Some((with_dst(producer, Val::I(dst), tables), 2))
            }
            (producer, Some(&Op::FMov { dst, src }), _)
                if dst_of(producer, tables) == Some(Val::F(src))
                    && fread(src) == 1
                    && interior_free(i + 1, i + 1) =>
            {
                Some((with_dst(producer, Val::F(dst), tables), 2))
            }
            _ => None,
        };
        let (op, width) = fused.unwrap_or((ops[i], 1));
        for k in 0..width {
            remap[i + k] = new_pc;
        }
        out.push(op);
        i += width;
    }
    remap[n] = out.len() as u32;

    for op in &mut out {
        match op {
            Op::Jump(t)
            | Op::JumpIfFalse { target: t, .. }
            | Op::JumpICmpFalse { target: t, .. }
            | Op::JumpFCmpFalse { target: t, .. }
            | Op::IAddImmJump { target: t, .. }
            | Op::CountAddJump { target: t, .. } => *t = remap[*t as usize],
            _ => {}
        }
    }
    out
}

fn expr_is_weak(e: &Expr) -> bool {
    match e {
        Expr::FloatConst(_) => true,
        Expr::Unary { arg, .. } => expr_is_weak(arg),
        Expr::Bin { lhs, rhs, .. } => expr_is_weak(lhs) && expr_is_weak(rhs),
        Expr::Select { then, els, .. } => expr_is_weak(then) && expr_is_weak(els),
        _ => false,
    }
}

fn promote_cty(a: CTy, b: CTy) -> Precision {
    match (a.precision(), b.precision()) {
        (Some(x), Some(y)) => x.max(y),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => Precision::Double,
    }
}

/// Rounds an exact f64 representation to a precision.
#[inline]
fn round_to(p: Precision, v: f64) -> f64 {
    match p {
        Precision::Half => F16::round_f64(v),
        Precision::Single => f64::from(v as f32),
        Precision::Double => v,
    }
}

#[inline]
fn apply_fbin(p: Precision, op: FloatBinOp, a: f64, b: f64) -> f64 {
    match p {
        Precision::Double => apply_f64(op, a, b),
        Precision::Single => {
            let (x, y) = (a as f32, b as f32);
            f64::from(match op {
                FloatBinOp::Add => x + y,
                FloatBinOp::Sub => x - y,
                FloatBinOp::Mul => x * y,
                FloatBinOp::Div => x / y,
                FloatBinOp::Min => x.min(y),
                FloatBinOp::Max => x.max(y),
            })
        }
        // Operands are exact binary16 values: one rounding of the f64
        // result is the correctly rounded binary16 result (module docs).
        Precision::Half => match op {
            FloatBinOp::Add | FloatBinOp::Sub | FloatBinOp::Mul | FloatBinOp::Div => {
                let v = apply_f64(op, a, b);
                if v.is_nan() {
                    apply_f16(op, a, b)
                } else {
                    F16::round_f64(v)
                }
            }
            FloatBinOp::Min | FloatBinOp::Max => apply_f16(op, a, b),
        },
    }
}

/// Binary16 arithmetic through the widening `F16` operators: `min`/`max`,
/// and NaN results, whose payload `f64` arithmetic leaves unspecified.
fn apply_f16(op: FloatBinOp, a: f64, b: f64) -> f64 {
    let (x, y) = (F16::from_f64(a), F16::from_f64(b));
    (match op {
        FloatBinOp::Add => x + y,
        FloatBinOp::Sub => x - y,
        FloatBinOp::Mul => x * y,
        FloatBinOp::Div => x / y,
        FloatBinOp::Min => x.min(y),
        FloatBinOp::Max => x.max(y),
    })
    .to_f64()
}

#[inline]
fn apply_f64(op: FloatBinOp, a: f64, b: f64) -> f64 {
    match op {
        FloatBinOp::Add => a + b,
        FloatBinOp::Sub => a - b,
        FloatBinOp::Mul => a * b,
        FloatBinOp::Div => a / b,
        FloatBinOp::Min => a.min(b),
        FloatBinOp::Max => a.max(b),
    }
}

#[inline]
fn apply_fun(p: Precision, op: UnaryFn, a: f64) -> f64 {
    use crate::value::Scalar;
    // Route through the reference implementation to guarantee identical
    // semantics (precision-faithful special functions).
    let s = match p {
        Precision::Half => Scalar::F16(F16::from_f64(a)),
        Precision::Single => Scalar::F32(a as f32),
        Precision::Double => Scalar::F64(a),
    };
    op.apply(s).as_f64()
}

#[inline]
fn apply_icmp(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

#[inline]
fn apply_fcmp(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

#[inline]
fn apply_ibin(op: FloatBinOp, a: i64, b: i64) -> i64 {
    match op {
        FloatBinOp::Add => a.wrapping_add(b),
        FloatBinOp::Sub => a.wrapping_sub(b),
        FloatBinOp::Mul => a.wrapping_mul(b),
        FloatBinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        FloatBinOp::Min => a.min(b),
        FloatBinOp::Max => a.max(b),
    }
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

    /// The compile-time disjoint-write verdict used to gate
    /// [`CompiledKernel::run_parallel`].
    #[must_use]
    pub fn parallel_safety(&self) -> &ParallelSafety {
        &self.safety
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
    /// scratch (it is resized per run).
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
        self.bind(buffers, launch, scratch)?;
        let result = self.exec_bound_seq(scratch, launch);
        restore(buffers, &mut scratch.bufs);
        result
    }

    /// Like [`CompiledKernel::run_with_scratch`], but splits the NDRange
    /// into up to `threads` contiguous chunks along the partition axis and
    /// executes them concurrently with [`std::thread::scope`] — when the
    /// compile-time disjoint-write analysis *and* the per-launch
    /// resolution prove every chunk writes a private index interval of
    /// every stored buffer. Otherwise (or with `threads <= 1`) it falls
    /// back to sequential execution.
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
        /// Below this NDRange size, thread-spawn latency dominates any
        /// possible win.
        const MIN_PARALLEL_ITEMS: usize = 64;

        let (nx, ny) = (launch.global[0], launch.global[1]);
        let plan = if threads <= 1 || nx * ny < MIN_PARALLEL_ITEMS {
            None
        } else {
            match &self.safety {
                ParallelSafety::Disjoint(summary) => summary.resolve(launch),
                ParallelSafety::Unproven(_) => None,
            }
        };
        let Some(plan) = plan else {
            return self.run_with_scratch(buffers, launch, scratch);
        };
        let axis_len = if plan.along_rows() { ny } else { nx };
        let chunks = threads.min(axis_len);
        if chunks < 2 {
            return self.run_with_scratch(buffers, launch, scratch);
        }

        self.bind(buffers, launch, scratch)?;
        let result = self.exec_bound_parallel(scratch, launch, &plan, chunks);
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
            iregs,
            fregs,
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
                    Some(ArgValue::Int(v)) => fregs[*reg as usize] = round_to(*prec, v as f64),
                    None => {
                        restore(buffers, bufs);
                        return Err(ExecError::MissingArg(name.clone()));
                    }
                },
            }
        }
        Ok(())
    }

    /// Sequential execution over the full NDRange of an already-bound
    /// scratch.
    fn exec_bound_seq(
        &self,
        scratch: &mut VmScratch,
        launch: &Launch,
    ) -> Result<OpCounts, ExecError> {
        let VmScratch {
            iregs,
            fregs,
            bufs,
            hits,
            ..
        } = scratch;
        hits.clear();
        hits.resize(self.counts_table.len(), 0);
        let mut mem = FullMem(bufs);
        self.exec_range(
            iregs,
            fregs,
            &mut mem,
            hits,
            0..launch.global[0],
            0..launch.global[1],
        )?;
        Ok(self.counts_from(hits))
    }

    /// Chunked parallel execution of an already-bound scratch under a
    /// resolved disjointness plan. Falls back to sequential execution
    /// in-place whenever a launch-time precondition (bounds, interval
    /// monotonicity, overflow) fails, and re-runs sequentially from a
    /// snapshot when any chunk reports an error.
    #[allow(clippy::too_many_lines)]
    fn exec_bound_parallel(
        &self,
        scratch: &mut VmScratch,
        launch: &Launch,
        plan: &ChunkPlan,
        chunks: usize,
    ) -> Result<OpCounts, ExecError> {
        let (nx, ny) = (launch.global[0], launch.global[1]);
        let axis_len = if plan.along_rows() { ny } else { nx };

        // Balanced contiguous chunk bounds along the partition axis.
        let base = axis_len / chunks;
        let rem = axis_len % chunks;
        let mut bounds = Vec::with_capacity(chunks);
        let mut at = 0usize;
        for k in 0..chunks {
            let w = base + usize::from(k < rem);
            bounds.push((at, at + w));
            at += w;
        }

        let VmScratch {
            iregs,
            fregs,
            bufs,
            hits,
            workers,
            ..
        } = scratch;

        // Map each stored buffer to its binding slot and pre-check that
        // the *whole* launch stays in bounds: the affine store/load sites
        // then provably never fault, so chunk execution cannot report an
        // out-of-bounds error for a carved buffer.
        let mut carved: Vec<(usize, Vec<(usize, usize)>)> =
            Vec::with_capacity(plan.buffers().len());
        for rb in plan.buffers() {
            let Some(slot) = bufs.iter().position(|(n, _)| n == rb.name()) else {
                return self.exec_bound_seq_split(iregs, fregs, bufs, hits, launch);
            };
            let len = bufs[slot].1.len();
            let Some((full_lo, full_hi)) = rb.interval(0, axis_len) else {
                return self.exec_bound_seq_split(iregs, fregs, bufs, hits, launch);
            };
            if full_lo < 0 || usize::try_from(full_hi).map_or(true, |h| h >= len) {
                return self.exec_bound_seq_split(iregs, fregs, bufs, hits, launch);
            }
            // Per-chunk inclusive intervals → half-open usize ranges.
            let mut ivs = Vec::with_capacity(chunks);
            for &(u0, u1) in &bounds {
                let Some((lo, hi)) = rb.interval(u0, u1) else {
                    return self.exec_bound_seq_split(iregs, fregs, bufs, hits, launch);
                };
                debug_assert!(lo >= full_lo && hi <= full_hi);
                ivs.push((lo as usize, hi as usize + 1));
            }
            // Defense in depth: the intervals must be monotone and
            // disjoint in carve order (ascending when the axis
            // coefficient is positive, descending otherwise).
            let ascending = ivs.windows(2).all(|w| w[0].1 <= w[1].0);
            let descending = ivs.windows(2).all(|w| w[1].1 <= w[0].0);
            if !(ascending || descending) {
                return self.exec_bound_seq_split(iregs, fregs, bufs, hits, launch);
            }
            carved.push((slot, ivs));
        }

        // Snapshot stored buffers: the error path re-runs sequentially
        // from this pristine state to reproduce the sequential error and
        // partial-write behaviour exactly.
        let snapshots: Vec<(usize, FloatVec)> = carved
            .iter()
            .map(|&(slot, _)| (slot, bufs[slot].1.clone()))
            .collect();

        // Seed one worker per chunk from the bound prototype registers.
        if workers.len() < chunks {
            workers.resize_with(chunks, Worker::default);
        }
        for w in workers.iter_mut().take(chunks) {
            w.iregs.clone_from(iregs);
            w.fregs.clone_from(fregs);
            w.hits.clear();
            w.hits.resize(self.counts_table.len(), 0);
        }

        // Carve the stored buffers into per-chunk segments and run.
        let n_bound = bufs.len();
        let errored = {
            // First borrow every binding once, splitting carved buffers
            // into per-chunk mutable segments and sharing the rest.
            let mut prepared: Vec<Prepared<'_>> = Vec::with_capacity(n_bound);
            {
                let mut carve_for: HashMap<usize, &Vec<(usize, usize)>> = HashMap::new();
                for (slot, ivs) in &carved {
                    carve_for.insert(*slot, ivs);
                }
                for (slot, entry) in bufs.iter_mut().enumerate() {
                    match carve_for.get(&slot) {
                        None => prepared.push(Prepared::Shared(&*entry)),
                        Some(ivs) => {
                            let (name, data) = entry;
                            let full_len = data.len();
                            let Some(segs) = carve_segments(data, ivs) else {
                                // Unreachable given the monotonicity check;
                                // degrade to a chunk-isolation error that the
                                // error path turns into a sequential re-run.
                                prepared.clear();
                                break;
                            };
                            prepared.push(Prepared::Carved {
                                name,
                                full_len,
                                segs,
                            });
                        }
                    }
                }
            }

            if prepared.len() == n_bound {
                // Assemble one ChunkMem per chunk.
                let mut mems: Vec<ChunkMem<'_>> = (0..chunks)
                    .map(|_| ChunkMem {
                        slots: Vec::with_capacity(n_bound),
                    })
                    .collect();
                for p in &mut prepared {
                    match p {
                        Prepared::Shared(entry) => {
                            for m in &mut mems {
                                m.slots.push(ChunkSlot::Shared(entry));
                            }
                        }
                        Prepared::Carved {
                            name,
                            full_len,
                            segs,
                        } => {
                            for (k, m) in mems.iter_mut().enumerate() {
                                let (lo, seg) = segs[k].take().expect("one segment per chunk");
                                m.slots.push(ChunkSlot::Carved {
                                    name,
                                    lo: lo as i64,
                                    full_len: *full_len,
                                    seg,
                                });
                            }
                        }
                    }
                }
                let results: Vec<Result<(), ExecError>> = std::thread::scope(|s| {
                    let mut handles = Vec::with_capacity(chunks);
                    for ((k, mem), worker) in mems.into_iter().enumerate().zip(workers.iter_mut()) {
                        let (u0, u1) = bounds[k];
                        let (gx_range, gy_range) = if plan.along_rows() {
                            (0..nx, u0..u1)
                        } else {
                            (u0..u1, 0..1)
                        };
                        handles.push(s.spawn(move || {
                            let mut mem = mem;
                            self.exec_range(
                                &mut worker.iregs,
                                &mut worker.fregs,
                                &mut mem,
                                &mut worker.hits,
                                gx_range,
                                gy_range,
                            )
                        }));
                    }
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
            } else {
                true
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
            return self.exec_bound_seq_split(iregs, fregs, bufs, hits, launch);
        }

        // Merge per-chunk tallies in fixed chunk order. Each tally is an
        // exact integer hit count, so the merged counts are bit-identical
        // to the sequential tally.
        hits.clear();
        hits.resize(self.counts_table.len(), 0);
        for w in workers.iter().take(chunks) {
            for (t, h) in hits.iter_mut().zip(&w.hits) {
                *t += h;
            }
        }
        Ok(self.counts_from(hits))
    }

    /// [`CompiledKernel::exec_bound_seq`] over already-split scratch
    /// fields (the parallel path holds them disjointly).
    fn exec_bound_seq_split(
        &self,
        iregs: &mut [i64],
        fregs: &mut [f64],
        bufs: &mut [(String, FloatVec)],
        hits: &mut Vec<u64>,
        launch: &Launch,
    ) -> Result<OpCounts, ExecError> {
        hits.clear();
        hits.resize(self.counts_table.len(), 0);
        let mut mem = FullMem(bufs);
        self.exec_range(
            iregs,
            fregs,
            &mut mem,
            hits,
            0..launch.global[0],
            0..launch.global[1],
        )?;
        Ok(self.counts_from(hits))
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

    /// The dispatch loop over a rectangular sub-range of the NDRange,
    /// generic over the buffer-access strategy (whole buffers for
    /// sequential runs, carved segments + shared read views for parallel
    /// chunks). Monomorphized per strategy, so the sequential hot path is
    /// unchanged.
    ///
    /// Count sites fire millions of times in hot loops; adding the full
    /// `OpCounts` struct each time costs ~20 u64 additions per hit. Tally
    /// hits per table index instead and scale once at the end — repeated
    /// addition of a constant delta is exactly multiplication.
    #[allow(clippy::too_many_lines)]
    fn exec_range<M: BufMem>(
        &self,
        iregs: &mut [i64],
        fregs: &mut [f64],
        mem: &mut M,
        hits: &mut [u64],
        gx_range: Range<usize>,
        gy_range: Range<usize>,
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
                                apply_ibin(op, iregs[a as usize], iregs[b as usize]);
                        }
                        Op::IAddImm { dst, a, imm } => {
                            iregs[dst as usize] = iregs[a as usize].wrapping_add(imm);
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
                                i64::from(apply_icmp(op, iregs[a as usize], iregs[b as usize]));
                        }
                        Op::FCmp { op, dst, a, b } => {
                            iregs[dst as usize] =
                                i64::from(apply_fcmp(op, fregs[a as usize], fregs[b as usize]));
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
                            fregs[dst as usize] = round_to(prec, iregs[a as usize] as f64);
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
                            if !apply_icmp(op, iregs[a as usize], iregs[b as usize]) {
                                pc = target as usize;
                                continue;
                            }
                        }
                        Op::JumpFCmpFalse { op, a, b, target } => {
                            if !apply_fcmp(op, fregs[a as usize], fregs[b as usize]) {
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
                            dot_step(&self.dot_table[idx as usize], iregs, fregs, mem)?;
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
                            hits[l.count as usize] += dot_loop(l, iregs, fregs, mem)?;
                        }
                    }
                    pc += 1;
                }
            }
        }
        Ok(())
    }
}

/// One dot-product step: both indexed loads (bounds-checked, in operand
/// order), the product rounded at `pm`, the sum at `pa`, then converted
/// to `post`.
#[inline(always)]
fn dot_step<M: BufMem>(
    d: &DotStepArgs,
    iregs: &[i64],
    fregs: &mut [f64],
    mem: &M,
) -> Result<(), ExecError> {
    let i1 = iregs[d.a1 as usize]
        .wrapping_mul(iregs[d.b1 as usize])
        .wrapping_add(iregs[d.c1 as usize]);
    let v1 = mem.load(d.buf1, i1)?;
    let i2 = iregs[d.a2 as usize]
        .wrapping_mul(iregs[d.b2 as usize])
        .wrapping_add(iregs[d.c2 as usize]);
    let v2 = mem.load(d.buf2, i2)?;
    let m = apply_fbin(d.pm, FloatBinOp::Mul, v1, v2);
    let sum = apply_fbin(d.pa, FloatBinOp::Add, fregs[d.acc as usize], m);
    fregs[d.dst as usize] = round_to(d.post, sum);
    Ok(())
}

/// Runs a fused dot-product loop to its exit and returns its trip count.
/// Every iteration is the unfused compare, [`dot_step`] and back-edge:
/// the same loads and bounds checks, the same roundings, the same
/// wrapping increment. Only the counter and the accumulator change inside
/// the loop, so they live in locals and every other register is read once.
#[inline(always)]
fn dot_loop<M: BufMem>(
    l: &DotLoopArgs,
    iregs: &mut [i64],
    fregs: &mut [f64],
    mem: &M,
) -> Result<u64, ExecError> {
    let d = &l.step;
    let mut k = iregs[l.var as usize];
    let end = iregs[l.end as usize];
    // An index operand is the counter itself or a loop invariant.
    let operand = |r: IReg| (r == l.var, iregs[r as usize]);
    let [a1, b1, c1, a2, b2, c2] = [d.a1, d.b1, d.c1, d.a2, d.b2, d.c2].map(operand);
    let at = |(is_var, v): (bool, i64), k: i64| if is_var { k } else { v };
    let mut acc = fregs[d.acc as usize];
    let mut trips = 0;
    while apply_icmp(l.op, k, end) {
        let i1 = at(a1, k).wrapping_mul(at(b1, k)).wrapping_add(at(c1, k));
        let v1 = mem.load(d.buf1, i1)?;
        let i2 = at(a2, k).wrapping_mul(at(b2, k)).wrapping_add(at(c2, k));
        let v2 = mem.load(d.buf2, i2)?;
        let m = apply_fbin(d.pm, FloatBinOp::Mul, v1, v2);
        acc = round_to(d.post, apply_fbin(d.pa, FloatBinOp::Add, acc, m));
        trips += 1;
        k = k.wrapping_add(i64::from(l.imm));
    }
    iregs[l.var as usize] = k;
    fregs[d.acc as usize] = acc;
    Ok(trips)
}

/// Buffer-access strategy for [`CompiledKernel::exec_range`]. Sequential
/// runs see the whole binding list; parallel chunks see carved mutable
/// segments of stored buffers plus shared views of read-only ones.
trait BufMem {
    /// Reads element `i` of buffer slot `buf`, widened to f64.
    fn load(&self, buf: u16, i: i64) -> Result<f64, ExecError>;
    /// Writes `v` to element `i` of buffer slot `buf`, rounding to the
    /// buffer's precision exactly like [`FloatVec::set`].
    fn store(&mut self, buf: u16, i: i64, v: f64) -> Result<(), ExecError>;
}

/// Whole-buffer access: the sequential execution strategy.
struct FullMem<'a>(&'a mut [(String, FloatVec)]);

impl BufMem for FullMem<'_> {
    #[inline(always)]
    fn load(&self, buf: u16, i: i64) -> Result<f64, ExecError> {
        let (name, data) = &self.0[buf as usize];
        let len = data.len();
        if i < 0 || i as usize >= len {
            return Err(ExecError::OutOfBounds {
                buf: name.clone(),
                index: i,
                len,
            });
        }
        Ok(match data {
            FloatVec::F16(v) => v[i as usize].to_f64(),
            FloatVec::F32(v) => f64::from(v[i as usize]),
            FloatVec::F64(v) => v[i as usize],
        })
    }

    #[inline(always)]
    fn store(&mut self, buf: u16, i: i64, v: f64) -> Result<(), ExecError> {
        let (name, data) = &mut self.0[buf as usize];
        let len = data.len();
        if i < 0 || i as usize >= len {
            return Err(ExecError::OutOfBounds {
                buf: name.clone(),
                index: i,
                len,
            });
        }
        match data {
            FloatVec::F16(vec) => vec[i as usize] = F16::from_f64(v),
            FloatVec::F32(vec) => vec[i as usize] = v as f32,
            FloatVec::F64(vec) => vec[i as usize] = v,
        }
        Ok(())
    }
}

/// A typed mutable slice of one precision, carved out of a stored buffer.
enum Seg<'a> {
    /// Half-precision segment.
    H(&'a mut [F16]),
    /// Single-precision segment.
    S(&'a mut [f32]),
    /// Double-precision segment.
    D(&'a mut [f64]),
}

/// One buffer slot as seen by a parallel chunk.
enum ChunkSlot<'a> {
    /// A read-only view of the full buffer (never stored to by the
    /// kernel — the disjointness analysis guarantees it).
    Shared(&'a (String, FloatVec)),
    /// A private mutable window `[lo, lo + seg.len())` of a stored
    /// buffer. `full_len` is the whole buffer's length so out-of-bounds
    /// errors carry the same fields as sequential execution.
    Carved {
        name: &'a str,
        lo: i64,
        full_len: usize,
        seg: Seg<'a>,
    },
}

/// Per-chunk buffer access: shared read views + carved write windows.
struct ChunkMem<'a> {
    slots: Vec<ChunkSlot<'a>>,
}

impl BufMem for ChunkMem<'_> {
    #[inline(always)]
    fn load(&self, buf: u16, i: i64) -> Result<f64, ExecError> {
        match &self.slots[buf as usize] {
            ChunkSlot::Shared((name, data)) => {
                let len = data.len();
                if i < 0 || i as usize >= len {
                    return Err(ExecError::OutOfBounds {
                        buf: name.clone(),
                        index: i,
                        len,
                    });
                }
                Ok(match data {
                    FloatVec::F16(v) => v[i as usize].to_f64(),
                    FloatVec::F32(v) => f64::from(v[i as usize]),
                    FloatVec::F64(v) => v[i as usize],
                })
            }
            ChunkSlot::Carved {
                name,
                lo,
                full_len,
                seg,
            } => {
                if i < 0 || i as usize >= *full_len {
                    return Err(ExecError::OutOfBounds {
                        buf: (*name).to_owned(),
                        index: i,
                        len: *full_len,
                    });
                }
                let k = i - lo;
                let in_seg = |n: usize| k >= 0 && (k as usize) < n;
                match seg {
                    Seg::H(v) if in_seg(v.len()) => Ok(v[k as usize].to_f64()),
                    Seg::S(v) if in_seg(v.len()) => Ok(f64::from(v[k as usize])),
                    Seg::D(v) if in_seg(v.len()) => Ok(v[k as usize]),
                    _ => Err(ExecError::KindError(
                        "parallel chunk accessed a stored buffer outside its proven interval"
                            .to_owned(),
                    )),
                }
            }
        }
    }

    #[inline(always)]
    fn store(&mut self, buf: u16, i: i64, v: f64) -> Result<(), ExecError> {
        match &mut self.slots[buf as usize] {
            ChunkSlot::Shared((name, data)) => {
                // The analysis only shares buffers the kernel never
                // stores to; reaching here means the verdict was wrong.
                let _ = (name, data);
                Err(ExecError::KindError(
                    "parallel chunk stored to a shared read-only buffer".to_owned(),
                ))
            }
            ChunkSlot::Carved {
                name,
                lo,
                full_len,
                seg,
            } => {
                if i < 0 || i as usize >= *full_len {
                    return Err(ExecError::OutOfBounds {
                        buf: (*name).to_owned(),
                        index: i,
                        len: *full_len,
                    });
                }
                let k = i - *lo;
                let in_seg = |n: usize| k >= 0 && (k as usize) < n;
                match seg {
                    Seg::H(vec) if in_seg(vec.len()) => {
                        vec[k as usize] = F16::from_f64(v);
                        Ok(())
                    }
                    Seg::S(vec) if in_seg(vec.len()) => {
                        vec[k as usize] = v as f32;
                        Ok(())
                    }
                    Seg::D(vec) if in_seg(vec.len()) => {
                        vec[k as usize] = v;
                        Ok(())
                    }
                    _ => Err(ExecError::KindError(
                        "parallel chunk stored outside its proven interval".to_owned(),
                    )),
                }
            }
        }
    }
}

/// A stored buffer mid-carve: its name, full length, and one optional
/// `(lo, segment)` pair per chunk (taken as each `ChunkMem` is built).
enum Prepared<'a> {
    /// Read-only buffer shared by every chunk.
    Shared(&'a (String, FloatVec)),
    /// Stored buffer split into per-chunk segments.
    Carved {
        name: &'a str,
        full_len: usize,
        segs: Vec<Option<(usize, Seg<'a>)>>,
    },
}

/// Splits `data` into disjoint mutable segments, one per half-open
/// interval. Intervals must be monotone (all ascending or all
/// descending) and pairwise disjoint; returns `None` otherwise.
fn carve_segments<'a>(
    data: &'a mut FloatVec,
    intervals: &[(usize, usize)],
) -> Option<Vec<Option<(usize, Seg<'a>)>>> {
    fn split<'a, T, F: Fn(&'a mut [T]) -> Seg<'a>>(
        mut rest: &'a mut [T],
        order: &[(usize, (usize, usize))],
        wrap: F,
    ) -> Option<Vec<(usize, usize, Seg<'a>)>> {
        let mut consumed = 0usize;
        let mut out = Vec::with_capacity(order.len());
        for &(chunk, (lo, hi)) in order {
            if lo < consumed || hi > consumed + rest.len() || hi < lo {
                return None;
            }
            let (_, tail) = rest.split_at_mut(lo - consumed);
            let (seg, tail) = tail.split_at_mut(hi - lo);
            rest = tail;
            consumed = hi;
            out.push((chunk, lo, wrap(seg)));
        }
        Some(out)
    }

    // Carve in ascending-lo order regardless of chunk order (the axis
    // coefficient may be negative), then map segments back to chunks.
    let mut order: Vec<(usize, (usize, usize))> = intervals.iter().copied().enumerate().collect();
    order.sort_by_key(|&(_, (lo, _))| lo);

    let placed = match data {
        FloatVec::F16(v) => split(v.as_mut_slice(), &order, Seg::H)?,
        FloatVec::F32(v) => split(v.as_mut_slice(), &order, Seg::S)?,
        FloatVec::F64(v) => split(v.as_mut_slice(), &order, Seg::D)?,
    };
    let mut segs: Vec<Option<(usize, Seg<'a>)>> = Vec::with_capacity(intervals.len());
    segs.resize_with(intervals.len(), || None);
    for (chunk, lo, seg) in placed {
        segs[chunk] = Some((lo, seg));
    }
    Some(segs)
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

        // The same payloads through a fused half dot-product loop.
        let n = 8usize;
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
        assert_equiv_bitwise(&mm(Precision::Half, Precision::Half), &bufs, &launch);
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
