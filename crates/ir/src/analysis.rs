//! Disjoint-access analysis: which work-items of a launch may run out of
//! their sequential order?
//!
//! [`parallel_safety`] walks a kernel once and summarizes every access to
//! a stored buffer as an index affine in the global id and in the
//! counters of loops with launch-uniform bounds, with coefficients kept
//! symbolic in the kernel's integer arguments. Per launch, the summary
//! answers two questions:
//!
//! * [`WriteSummary::resolve`]: do contiguous chunks of NDRange rows (of
//!   columns, in 1-D) access disjoint index intervals of every stored
//!   buffer? Then the chunks may run on separate threads.
//! * [`WriteSummary::lockstep`]: do work-items of one row that differ only
//!   in gid0 access disjoint elements of every stored buffer? Then a block
//!   of them may run in lock step, blocks keeping their sequential order.
//!
//! The summary is computed once per kernel and shared by its compiled
//! precision variants.

use crate::ast::{
    assigned_vars, visit_expr, visit_stmts, Expr, Kernel, Param, Scopes, Stmt, TypeRef,
};
use crate::interp::{ArgValue, Launch};
use crate::types::ScalarType;
use crate::value::{CmpOp, FloatBinOp, UnaryFn};
use std::collections::{HashMap, HashSet};

/// Verdict of the disjoint-access analysis: may work-items of this kernel
/// run out of their sequential order?
///
/// The analysis proves (conservatively) that every access to a stored
/// buffer hits an index affine in the work-item's global id and in the
/// counters of loops with launch-uniform bounds — the row-major
/// `c[i*n + j]` shape every Polybench kernel but the two triangular ones
/// has. Kernels with data-dependent indices into a stored buffer, or with
/// a stored-buffer index that ignores the global id, are `Unproven` and
/// run sequentially.
///
/// The verdict is launch-independent; index coefficients stay symbolic in
/// the kernel's integer arguments and are resolved per launch by
/// [`WriteSummary::resolve`] and [`WriteSummary::lockstep`]. It is also
/// precision-independent: the walker asks of a type only whether it is an
/// integer, and retyping buffers or casting their loads never changes that,
/// so every precision-scaled variant of a kernel gets the kernel's verdict.
#[derive(Clone, Debug, PartialEq)]
pub enum ParallelSafety {
    /// Every stored-buffer index is affine; per-launch disjointness is
    /// decided by [`WriteSummary::resolve`] and [`WriteSummary::lockstep`].
    Disjoint(WriteSummary),
    /// Disjointness could not be proven; execution must stay sequential.
    Unproven(&'static str),
}

/// A symbolic integer over the kernel's integer scalar parameters.
///
/// Mirrors the kernel's own expression tree node-for-node over `+`, `-`,
/// `*`, so its exact (checked) evaluation agrees with the VM's wrapping
/// evaluation whenever the true value fits in `i64`: wrapping arithmetic
/// is a ring homomorphism onto `Z/2^64`, and a representable true value
/// pins the wrapped one.
#[derive(Clone, Debug, PartialEq)]
enum Sym {
    Const(i64),
    Arg(String),
    Add(Box<Sym>, Box<Sym>),
    Sub(Box<Sym>, Box<Sym>),
    Mul(Box<Sym>, Box<Sym>),
}

impl Sym {
    fn eval(&self, args: &[(String, ArgValue)]) -> Option<i64> {
        match self {
            Sym::Const(v) => Some(*v),
            Sym::Arg(n) => match args.iter().rev().find(|(name, _)| name == n) {
                Some((_, ArgValue::Int(v))) => Some(*v),
                _ => None,
            },
            Sym::Add(a, b) => a.eval(args)?.checked_add(b.eval(args)?),
            Sym::Sub(a, b) => a.eval(args)?.checked_sub(b.eval(args)?),
            Sym::Mul(a, b) => a.eval(args)?.checked_mul(b.eval(args)?),
        }
    }
}

/// A buffer index affine in the global id and in loop counters,
/// `c0*gid0 + c1*gid1 + Σ a*counter + b`, with symbolic coefficients
/// (`None`, or a loop absent from `loops`, means a coefficient of zero).
#[derive(Clone, Debug, PartialEq)]
struct AffineIdx {
    c0: Option<Sym>,
    c1: Option<Sym>,
    /// `(loop, a)` terms in loop order; `loop` indexes the summary's
    /// loop table.
    loops: Vec<(usize, Sym)>,
    b: Sym,
}

impl AffineIdx {
    fn constant(v: i64) -> AffineIdx {
        AffineIdx {
            c0: None,
            c1: None,
            loops: Vec::new(),
            b: Sym::Const(v),
        }
    }

    fn gid(dim: usize) -> AffineIdx {
        let unit = Some(Sym::Const(1));
        match dim {
            0 => AffineIdx {
                c0: unit,
                ..AffineIdx::constant(0)
            },
            1 => AffineIdx {
                c1: unit,
                ..AffineIdx::constant(0)
            },
            _ => AffineIdx::constant(0),
        }
    }

    /// The counter of loop `d`.
    fn counter(d: usize) -> AffineIdx {
        AffineIdx {
            loops: vec![(d, Sym::Const(1))],
            ..AffineIdx::constant(0)
        }
    }

    /// `true` when the index is the same for every work-item and trip.
    fn is_pure(&self) -> bool {
        self.c0.is_none() && self.c1.is_none() && self.loops.is_empty()
    }
}

fn sym_add(a: Option<Sym>, b: Option<Sym>) -> Option<Sym> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(Sym::Add(Box::new(x), Box::new(y))),
    }
}

fn sym_sub(a: Option<Sym>, b: Option<Sym>) -> Option<Sym> {
    match (a, b) {
        (x, None) => x,
        (None, Some(y)) => Some(Sym::Sub(Box::new(Sym::Const(0)), Box::new(y))),
        (Some(x), Some(y)) => Some(Sym::Sub(Box::new(x), Box::new(y))),
    }
}

/// Combines two loop-term lists loop by loop (`op` sees `None` for an
/// absent term), keeping loop order.
fn combine_loops(
    mut a: Vec<(usize, Sym)>,
    mut b: Vec<(usize, Sym)>,
    op: fn(Option<Sym>, Option<Sym>) -> Option<Sym>,
) -> Vec<(usize, Sym)> {
    fn take(terms: &mut Vec<(usize, Sym)>, d: usize) -> Option<Sym> {
        let at = terms.iter().position(|(e, _)| *e == d)?;
        Some(terms.swap_remove(at).1)
    }
    let mut ids: Vec<usize> = a.iter().chain(&b).map(|&(d, _)| d).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter()
        .filter_map(|d| op(take(&mut a, d), take(&mut b, d)).map(|s| (d, s)))
        .collect()
}

fn affine_add(a: AffineIdx, b: AffineIdx) -> AffineIdx {
    AffineIdx {
        c0: sym_add(a.c0, b.c0),
        c1: sym_add(a.c1, b.c1),
        loops: combine_loops(a.loops, b.loops, sym_add),
        b: Sym::Add(Box::new(a.b), Box::new(b.b)),
    }
}

fn affine_sub(a: AffineIdx, b: AffineIdx) -> AffineIdx {
    AffineIdx {
        c0: sym_sub(a.c0, b.c0),
        c1: sym_sub(a.c1, b.c1),
        loops: combine_loops(a.loops, b.loops, sym_sub),
        b: Sym::Sub(Box::new(a.b), Box::new(b.b)),
    }
}

/// `a * k` where `k` has no global-id or counter component.
fn affine_scale(a: AffineIdx, k: &Sym) -> AffineIdx {
    let scale = |s: Sym| Sym::Mul(Box::new(s), Box::new(k.clone()));
    AffineIdx {
        c0: a.c0.map(scale),
        c1: a.c1.map(scale),
        loops: a.loops.into_iter().map(|(d, s)| (d, scale(s))).collect(),
        b: scale(a.b),
    }
}

/// Abstract value of the disjoint-access walker: an affine integer index
/// or an opaque value (floats, loaded data, counters of other loops, …).
#[derive(Clone, Debug)]
enum PVal {
    Affine(AffineIdx),
    Opaque,
}

/// A name bound by `let` or `for`: its abstract value, and whether it is
/// known to be an integer. Only an integer local keeps an affine value
/// assigned to it; a float local rounds the value (a half holds 2049 as
/// 2048), so what it holds is no index.
#[derive(Clone, Debug)]
struct Local {
    val: PVal,
    int: bool,
}

/// The affine access footprint of every *stored* buffer of a kernel.
///
/// Launch-independent: coefficients and loop bounds are symbolic in the
/// kernel's integer arguments. [`WriteSummary::resolve`] and
/// [`WriteSummary::lockstep`] instantiate them for one launch.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteSummary {
    bufs: Vec<BufSites>,
    /// `[start, end)` of every loop whose counter is an index dimension.
    loops: Vec<(Sym, Sym)>,
}

#[derive(Clone, Debug, PartialEq)]
struct BufSites {
    name: String,
    /// Every store *and* load site of the buffer (loads are constrained
    /// too: a work-item may only read locations no other one writes).
    sites: Vec<Site>,
}

/// One access to a stored buffer.
#[derive(Clone, Debug, PartialEq)]
struct Site {
    idx: AffineIdx,
    /// The innermost enclosing guard `lhs == rhs` whose sides depend on
    /// gid1 alone: the access happens only in the row that solves it.
    pin: Option<(AffineIdx, AffineIdx)>,
}

/// Per-buffer access record accumulated by the walker.
#[derive(Default)]
struct BufRecord {
    opaque_store: bool,
    opaque_load: bool,
    sites: Vec<Site>,
}

struct ParWalk<'k> {
    kernel: &'k Kernel,
    /// The buffers some statement stores to: only their accesses matter.
    stored: HashSet<&'k str>,
    scopes: Scopes<'k, Local>,
    bufs: HashMap<&'k str, BufRecord>,
    loops: Vec<(Sym, Sym)>,
    pins: Vec<(AffineIdx, AffineIdx)>,
}

/// `true` when `e` reads any of `names`.
fn reads_any(e: &Expr, names: &HashSet<&str>) -> bool {
    let mut hit = false;
    visit_expr(e, &mut |x| {
        if let Expr::Var(n) = x {
            hit |= names.contains(n.as_str());
        }
    });
    hit
}

impl<'k> ParWalk<'k> {
    /// `true` when `ty` resolves to an integer (a dangling `ElemOf` does
    /// not: it stays opaque).
    fn is_int(&self, ty: &TypeRef) -> bool {
        self.kernel.resolve(ty) == Some(ScalarType::Int)
    }

    fn lookup(&self, name: &str) -> PVal {
        if let Some(l) = self.scopes.get(name) {
            return l.val.clone();
        }
        match self.kernel.param(name) {
            Some(Param::Scalar { ty, .. }) if self.is_int(ty) => PVal::Affine(AffineIdx {
                b: Sym::Arg(name.to_owned()),
                ..AffineIdx::constant(0)
            }),
            _ => PVal::Opaque,
        }
    }

    /// Assigns `v` to `name` wherever it is bound, keeping it only in an
    /// integer local. A name no scope binds yet (one a loop body or branch
    /// declares) is shadowed, opaque, in the root scope.
    fn assign(&mut self, name: &'k str, v: PVal) {
        match self.scopes.get_mut(name) {
            Some(l) => l.val = if l.int { v } else { PVal::Opaque },
            None => {
                let val = PVal::Opaque;
                self.scopes.bind_root(name, Local { val, int: false });
            }
        }
    }

    /// Forgets what is known about `name` (it is about to be mutated by a
    /// loop body or a branch).
    fn invalidate(&mut self, name: &'k str) {
        self.assign(name, PVal::Opaque);
    }

    fn record(&mut self, buf: &'k str, idx: PVal, store: bool) {
        let pin = self.pins.last().cloned();
        let rec = self.bufs.entry(buf).or_default();
        match idx {
            PVal::Affine(idx) => rec.sites.push(Site { idx, pin }),
            PVal::Opaque if store => rec.opaque_store = true,
            PVal::Opaque => rec.opaque_load = true,
        }
    }

    fn walk(&mut self, stmts: &'k [Stmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &'k Stmt) {
        match s {
            Stmt::Let { name, ty, value } => {
                let v = self.eval(value);
                // An undeclared type is the value's: an affine value is an
                // integer; an opaque one may be a float, so the local
                // counts as a float.
                let int = match ty {
                    Some(t) => self.is_int(t),
                    None => matches!(v, PVal::Affine(_)),
                };
                let val = if int { v } else { PVal::Opaque };
                self.scopes.bind(name, Local { val, int });
            }
            Stmt::Assign { name, value } => {
                let v = self.eval(value);
                self.assign(name, v);
            }
            Stmt::Store { buf, index, value } => {
                let iv = self.eval(index);
                let _ = self.eval(value); // records loads inside the value
                self.record(buf, iv, true);
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let s = self.eval(start);
                let e = self.eval(end);
                // One conservative pass over the body: anything it assigns
                // is unknown across iterations.
                let assigned = assigned_vars(body);
                for n in &assigned {
                    self.invalidate(n);
                }
                // A counter with launch-uniform bounds is one more index
                // dimension, running through `[start, end)`. The VM
                // re-reads the bound's register every trip, so neither
                // bound may read anything the body assigns.
                let counter = match (s, e) {
                    (PVal::Affine(s), PVal::Affine(e))
                        if s.is_pure()
                            && e.is_pure()
                            && !assigned.contains(var.as_str())
                            && !reads_any(start, &assigned)
                            && !reads_any(end, &assigned) =>
                    {
                        self.loops.push((s.b, e.b));
                        PVal::Affine(AffineIdx::counter(self.loops.len() - 1))
                    }
                    _ => PVal::Opaque,
                };
                self.scopes.push();
                self.scopes.bind(
                    var,
                    Local {
                        val: counter,
                        int: true,
                    },
                );
                self.walk(body);
                self.scopes.pop();
                // After the loop, an assigned variable holds its last
                // trip's value, or its old one if no trip ran.
                for n in &assigned {
                    self.invalidate(n);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let pin = self.row_pin(cond);
                // Walk each branch against a private copy of the
                // environment (sites accumulate in `self.bufs` across
                // both), then forget anything either branch assigns.
                let saved = self.scopes.clone();
                self.scopes.push();
                let pinned = pin.is_some();
                self.pins.extend(pin);
                self.walk(then_body);
                if pinned {
                    self.pins.pop();
                }
                self.scopes.clone_from(&saved);
                self.scopes.push();
                self.walk(else_body);
                self.scopes = saved;
                for n in assigned_vars(then_body)
                    .into_iter()
                    .chain(assigned_vars(else_body))
                {
                    self.invalidate(n);
                }
            }
        }
    }

    /// Evaluates an `if` condition. An equality whose sides depend on gid1
    /// alone pins the then-branch to the row that solves it.
    fn row_pin(&mut self, cond: &'k Expr) -> Option<(AffineIdx, AffineIdx)> {
        let Expr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = cond
        else {
            let _ = self.eval(cond);
            return None;
        };
        let (PVal::Affine(l), PVal::Affine(r)) = (self.eval(lhs), self.eval(rhs)) else {
            return None;
        };
        let row_only = |a: &AffineIdx| a.c0.is_none() && a.loops.is_empty();
        (row_only(&l) && row_only(&r) && (l.c1.is_some() || r.c1.is_some())).then_some((l, r))
    }

    fn eval(&mut self, e: &'k Expr) -> PVal {
        match e {
            Expr::IntConst(v) => PVal::Affine(AffineIdx::constant(*v)),
            Expr::FloatConst(_) => PVal::Opaque,
            Expr::GlobalId(d) => PVal::Affine(AffineIdx::gid(*d)),
            Expr::Var(n) => self.lookup(n),
            Expr::Load { buf, index } if self.stored.contains(buf.as_str()) => {
                let iv = self.eval(index);
                self.record(buf, iv, false);
                PVal::Opaque
            }
            // Evaluating every index would cost a tune at test sizes
            // about 7% of its wall time (it compiles a few hundred kernel
            // variants a round), so an index into a buffer nothing stores
            // to is only searched for loads of stored buffers. A load
            // nested in one of those is recorded twice, which changes no
            // verdict.
            Expr::Load { index, .. } => {
                visit_expr(index, &mut |x| {
                    if let Expr::Load { buf, index } = x {
                        if self.stored.contains(buf.as_str()) {
                            let iv = self.eval(index);
                            self.record(buf, iv, false);
                        }
                    }
                });
                PVal::Opaque
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg);
                match (op, v) {
                    (UnaryFn::Neg, PVal::Affine(a)) => {
                        PVal::Affine(affine_sub(AffineIdx::constant(0), a))
                    }
                    _ => PVal::Opaque,
                }
            }
            Expr::Cast { to, arg } => {
                let v = self.eval(arg);
                if self.is_int(to) {
                    v
                } else {
                    PVal::Opaque
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let a = self.eval(lhs);
                let b = self.eval(rhs);
                let (PVal::Affine(a), PVal::Affine(b)) = (a, b) else {
                    return PVal::Opaque;
                };
                match op {
                    FloatBinOp::Add => PVal::Affine(affine_add(a, b)),
                    FloatBinOp::Sub => PVal::Affine(affine_sub(a, b)),
                    FloatBinOp::Mul => {
                        if b.is_pure() {
                            PVal::Affine(affine_scale(a, &b.b))
                        } else if a.is_pure() {
                            PVal::Affine(affine_scale(b, &a.b))
                        } else {
                            PVal::Opaque
                        }
                    }
                    FloatBinOp::Div | FloatBinOp::Min | FloatBinOp::Max => PVal::Opaque,
                }
            }
            Expr::Cmp { lhs, rhs, .. } => {
                let _ = self.eval(lhs);
                let _ = self.eval(rhs);
                PVal::Opaque
            }
            Expr::Select { cond, then, els } => {
                let _ = self.eval(cond);
                let _ = self.eval(then);
                let _ = self.eval(els);
                PVal::Opaque
            }
        }
    }
}

/// Runs the disjoint-access analysis over one kernel.
///
/// The result is launch- and precision-independent, so it is computed
/// once per kernel: [`crate::vm::compile_kernel`] runs it, and
/// [`crate::vm::compile_with_safety`] takes it from a caller compiling
/// several precision variants of one kernel. Per-launch disjointness is
/// then decided by [`WriteSummary::resolve`] and
/// [`WriteSummary::lockstep`].
#[must_use]
pub fn parallel_safety(kernel: &Kernel) -> ParallelSafety {
    let mut stored = HashSet::new();
    visit_stmts(&kernel.body, &mut |s| {
        if let Stmt::Store { buf, .. } = s {
            stored.insert(buf.as_str());
        }
    });
    let mut w = ParWalk {
        kernel,
        stored,
        scopes: Scopes::new(),
        bufs: HashMap::new(),
        loops: Vec::new(),
        pins: Vec::new(),
    };
    w.walk(&kernel.body);

    // Deterministic order (HashMap iteration is not), so a refusal names
    // the same reason on every run.
    let mut recs: Vec<(&str, BufRecord)> = w.bufs.into_iter().collect();
    recs.sort_by(|a, b| a.0.cmp(b.0));
    let mut bufs = Vec::with_capacity(recs.len());
    for (name, rec) in recs {
        if rec.opaque_store {
            return ParallelSafety::Unproven("a store index is not affine in the global id");
        }
        if rec.opaque_load {
            return ParallelSafety::Unproven("a stored buffer is loaded at a non-affine index");
        }
        // Every work-item would reach the same elements.
        if rec
            .sites
            .iter()
            .any(|s| s.idx.c0.is_none() && s.idx.c1.is_none())
        {
            return ParallelSafety::Unproven(
                "a stored buffer is indexed independently of the global id",
            );
        }
        bufs.push(BufSites {
            name: name.to_owned(),
            sites: rec.sites,
        });
    }
    ParallelSafety::Disjoint(WriteSummary {
        bufs,
        loops: w.loops,
    })
}

/// One stored buffer's launch-resolved access pattern. For a chunk of the
/// partition axis `[u0, u1)` the buffer's accessed index range is
/// `[min(c*u0, c*(u1-1)) + off_lo, max(c*u0, c*(u1-1)) + off_hi]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolvedBuf {
    name: String,
    c: i64,
    off_lo: i64,
    off_hi: i64,
}

impl ResolvedBuf {
    /// The buffer parameter name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The inclusive index interval accessed by partition-axis values
    /// `[u0, u1)`, or `None` on arithmetic overflow. `u0 < u1` required.
    #[must_use]
    pub fn interval(&self, u0: usize, u1: usize) -> Option<(i64, i64)> {
        let a = self.c.checked_mul(i64::try_from(u0).ok()?)?;
        let b = self
            .c
            .checked_mul(i64::try_from(u1.checked_sub(1)?).ok()?)?;
        Some((
            a.min(b).checked_add(self.off_lo)?,
            a.max(b).checked_add(self.off_hi)?,
        ))
    }
}

/// A launch-resolved partition proof: chunking the NDRange into
/// contiguous runs of the partition axis gives every chunk a disjoint
/// write interval in every stored buffer.
#[derive(Clone, Debug)]
pub struct ChunkPlan {
    along_rows: bool,
    bufs: Vec<ResolvedBuf>,
}

impl ChunkPlan {
    /// `true` when the partition axis is `gid(1)` (row chunks); `false`
    /// when it is `gid(0)` (only used for 1-D launches).
    #[must_use]
    pub fn along_rows(&self) -> bool {
        self.along_rows
    }

    /// The stored buffers, in deterministic (name) order.
    #[must_use]
    pub fn buffers(&self) -> &[ResolvedBuf] {
        &self.bufs
    }
}

/// A site instantiated for one launch: index
/// `c0*gid0 + c1*gid1 + Σ a*t + b`, each trip offset `t` in `[0, trips)`.
#[derive(Debug, PartialEq)]
struct SiteAt {
    c0: i64,
    c1: i64,
    /// Includes each counter term's value at its loop's start.
    b: i64,
    /// `(loop, a, trips)` for each counter term with `a != 0` and
    /// `trips > 1`, in loop order.
    dims: Vec<(usize, i64, i64)>,
    /// The only row the access can happen in, when a guard pins it.
    row: Option<i64>,
}

impl SiteAt {
    /// The least and greatest value of the counter terms.
    fn dims_range(&self) -> Option<(i64, i64)> {
        self.dims
            .iter()
            .try_fold((0i64, 0i64), |(lo, hi), &(_, a, trips)| {
                let reach = a.checked_mul(trips - 1)?;
                Some((lo.checked_add(reach.min(0))?, hi.checked_add(reach.max(0))?))
            })
    }

    /// `true` when every index the site can reach over an `nx × ny`
    /// launch fits in `i64`, so the VM's wrapping arithmetic computes the
    /// true index.
    fn fits(&self, nx: usize, ny: usize) -> bool {
        let term = |c: i64, n: usize| -> Option<(i64, i64)> {
            let r = c.checked_mul(i64::try_from(n.checked_sub(1)?).ok()?)?;
            Some((r.min(0), r.max(0)))
        };
        let rows = match self.row {
            Some(p) => self.c1.checked_mul(p).map(|r| (r, r)),
            None => term(self.c1, ny),
        };
        (|| {
            let (x_lo, x_hi) = term(self.c0, nx)?;
            let (y_lo, y_hi) = rows?;
            let (d_lo, d_hi) = self.dims_range()?;
            self.b
                .checked_add(x_lo)?
                .checked_add(y_lo)?
                .checked_add(d_lo)?;
            self.b
                .checked_add(x_hi)?
                .checked_add(y_hi)?
                .checked_add(d_hi)
        })()
        .is_some()
    }
}

/// The row a guard `lhs == rhs` pins, for sides affine in gid1 alone: the
/// integer `y` solving it, provided both sides are exact in `i64` over the
/// launch's rows (so the VM's wrapping comparison is the true one).
/// `None` — no pin, a conservative reading — when the equality does not
/// depend on the row, has no integer solution, or might wrap.
fn pinned_row(lhs: &AffineIdx, rhs: &AffineIdx, launch: &Launch) -> Option<i64> {
    let args = &launch.args;
    let last = i64::try_from(launch.global[1].checked_sub(1)?).ok()?;
    let side = |a: &AffineIdx| -> Option<(i64, i64)> {
        let c = a.c1.as_ref().map_or(Some(0), |s| s.eval(args))?;
        let b = a.b.eval(args)?;
        c.checked_mul(last)?.checked_add(b)?;
        Some((c, b))
    };
    let ((cl, bl), (cr, br)) = (side(lhs)?, side(rhs)?);
    let (c, d) = (cl.checked_sub(cr)?, br.checked_sub(bl)?);
    (c != 0 && d.checked_rem(c)? == 0).then(|| d.checked_div(c))?
}

/// The widest spread of `c1*gid1 + b` among the sites that can run in one
/// row, over every row of a launch `ny` rows tall (`None` on overflow).
/// Unpinned sites spread as the difference of a max and a min of affine
/// functions of the row, which is convex, so the first and last rows
/// bound them; a pinned site adds only its own row.
fn row_spread(sites: &[SiteAt], ny: usize) -> Option<i64> {
    let last = i64::try_from(ny.checked_sub(1)?).ok()?;
    let mut rows = vec![0, last];
    rows.extend(
        sites
            .iter()
            .filter_map(|s| s.row)
            .filter(|p| (0..=last).contains(p)),
    );
    let mut widest = 0i64;
    for y in rows {
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for s in sites.iter().filter(|s| s.row.is_none_or(|p| p == y)) {
            let off = s.c1.checked_mul(y)?.checked_add(s.b)?;
            lo = lo.min(off);
            hi = hi.max(off);
        }
        if lo <= hi {
            widest = widest.max(hi.checked_sub(lo)?);
        }
    }
    Some(widest)
}

impl WriteSummary {
    /// Instantiates one site for a launch (`None` when a coefficient or
    /// loop bound does not resolve to an integer, or overflows).
    fn site_at(&self, site: &Site, launch: &Launch) -> Option<SiteAt> {
        let args = &launch.args;
        let coef = |c: &Option<Sym>| c.as_ref().map_or(Some(0), |s| s.eval(args));
        let mut b = site.idx.b.eval(args)?;
        let mut dims = Vec::new();
        for (d, a) in &site.idx.loops {
            let a = a.eval(args)?;
            let (start, end) = &self.loops[*d];
            let start = start.eval(args)?;
            // A loop that never runs counts as one trip at its start: a
            // superset of what happens.
            let trips = end.eval(args)?.checked_sub(start)?.max(1);
            b = b.checked_add(a.checked_mul(start)?)?;
            if a != 0 && trips > 1 {
                dims.push((*d, a, trips));
            }
        }
        Some(SiteAt {
            c0: coef(&site.idx.c0)?,
            c1: coef(&site.idx.c1)?,
            b,
            dims,
            row: site
                .pin
                .as_ref()
                .and_then(|(l, r)| pinned_row(l, r, launch)),
        })
    }

    /// Every site of one stored buffer, instantiated for a launch.
    fn sites_at(&self, buf: &BufSites, launch: &Launch) -> Option<Vec<SiteAt>> {
        buf.sites.iter().map(|s| self.site_at(s, launch)).collect()
    }

    /// Instantiates the summary for one launch and checks that contiguous
    /// chunks of the partition axis access disjoint, monotone index
    /// intervals in every stored buffer. Returns `None` (sequential
    /// fallback) when any coefficient or loop bound cannot be resolved to
    /// an integer, any arithmetic overflows, sites of one buffer disagree
    /// on their global-id coefficients, or the per-axis stride does not
    /// dominate the in-chunk spread. A site pinned to a row by a guard
    /// adopts the gid1 coefficient of the others, which is exact in the
    /// only row it runs in.
    #[must_use]
    pub fn resolve(&self, launch: &Launch) -> Option<ChunkPlan> {
        let (nx, ny) = (launch.global[0], launch.global[1]);
        let along_rows = ny >= 2;
        let rows = i64::try_from(ny).ok()?;
        let mut bufs = Vec::with_capacity(self.bufs.len());
        for buf in &self.bufs {
            let sites = self.sites_at(buf, launch)?;
            // A site pinned outside the launch never runs.
            let live: Vec<&SiteAt> = sites
                .iter()
                .filter(|s| s.row.is_none_or(|p| (0..rows).contains(&p)))
                .collect();
            let anchor = live.iter().find(|s| s.row.is_none()).or(live.first())?;
            let (c0, c1) = (anchor.c0, anchor.c1);
            let (mut b_min, mut b_max) = (i64::MAX, i64::MIN);
            for s in live {
                let b = match s.row {
                    Some(p) => s.b.checked_add(s.c1.checked_sub(c1)?.checked_mul(p)?)?,
                    None if s.c1 == c1 => s.b,
                    None => return None,
                };
                if s.c0 != c0 {
                    return None;
                }
                let (lo, hi) = s.dims_range()?;
                b_min = b_min.min(b.checked_add(lo)?);
                b_max = b_max.max(b.checked_add(hi)?);
            }
            // Contribution of the non-partition axis: gid(0) spans
            // [0, nx) under row chunking; gid(1) is pinned to 0 when the
            // launch is 1-D.
            let (c_axis, other_span) = if along_rows {
                let w = i64::try_from(nx.checked_sub(1)?).ok()?;
                (c1, c0.checked_mul(w)?)
            } else {
                (c0, 0)
            };
            let off_lo = other_span.min(0).checked_add(b_min)?;
            let off_hi = other_span.max(0).checked_add(b_max)?;
            // Adjacent partition-axis values must map to disjoint
            // intervals: the stride dominates the in-chunk spread.
            let spread = off_hi.checked_sub(off_lo)?;
            if c_axis == 0 || c_axis.checked_abs()? <= spread {
                return None;
            }
            bufs.push(ResolvedBuf {
                name: buf.name.clone(),
                c: c_axis,
                off_lo,
                off_hi,
            });
        }
        Some(ChunkPlan { along_rows, bufs })
    }

    /// Proves, for one launch, that work-items of one NDRange row that
    /// are less than `block` apart in gid0 access disjoint elements of
    /// every stored buffer, so a block of them may run in lock step.
    /// Blocks keep their sequential order, so nothing across blocks needs
    /// proving.
    ///
    /// Every site of a stored buffer must share one nonzero gid0
    /// coefficient `c0` and the same loop-counter terms. In any one row
    /// the rest of an index, `c1*gid1 + b`, spreads over at most `R`
    /// across the sites that can run there (a guard `gid1 == p` confines
    /// a site to row `p`). Sort gid0 and the counters by the magnitude of
    /// their coefficients: each must exceed `R` plus the reach
    /// `|a|·(n−1)` of every smaller one, where `n` is a counter's trip
    /// count or, for gid0, the block's width. Then, as in a mixed-radix
    /// numeral, two accesses that differ in gid0 or in any counter differ
    /// in index, so two lanes of a block never meet.
    ///
    /// # Errors
    ///
    /// The reason the proof fails for this launch.
    pub fn lockstep(&self, launch: &Launch, block: usize) -> Result<(), &'static str> {
        const OVERFLOW: &str = "index arithmetic may overflow";
        let (nx, ny) = (launch.global[0], launch.global[1]);
        let width = i64::try_from(nx.min(block)).map_err(|_| OVERFLOW)?;
        for buf in &self.bufs {
            let sites = self
                .sites_at(buf, launch)
                .ok_or("an index coefficient or loop bound does not resolve to an integer")?;
            let Some(first) = sites.first() else {
                continue;
            };
            if first.c0 == 0 {
                return Err("a stored buffer's gid0 coefficient is zero");
            }
            if sites.iter().any(|s| s.c0 != first.c0) {
                return Err("the sites of a stored buffer disagree on the gid0 coefficient");
            }
            if sites.iter().any(|s| s.dims != first.dims) {
                return Err("the sites of a stored buffer differ in their loop-counter terms");
            }
            if !sites.iter().all(|s| s.fits(nx, ny)) {
                return Err(OVERFLOW);
            }
            let mut reach = row_spread(&sites, ny).ok_or(OVERFLOW)?;
            let mut digits: Vec<(i64, i64, bool)> =
                first.dims.iter().map(|&(_, a, n)| (a, n, false)).collect();
            digits.push((first.c0, width, true));
            digits.sort_by_key(|&(a, _, _)| a.unsigned_abs());
            for (a, n, is_gid0) in digits {
                if n <= 1 {
                    continue;
                }
                if a.unsigned_abs() <= reach.unsigned_abs() {
                    return Err(if is_gid0 {
                        "the gid0 stride does not exceed the spread of a row's other index terms"
                    } else {
                        "a loop-counter coefficient does not dominate the block's gid0 span"
                    });
                }
                reach = a
                    .checked_abs()
                    .and_then(|a| a.checked_mul(n - 1))
                    .and_then(|r| reach.checked_add(r))
                    .ok_or(OVERFLOW)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;
    use crate::types::Precision;
    use crate::value::CmpOp;

    fn gemm_kernel() -> Kernel {
        kernel("mm")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
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

    #[test]
    fn gemm_store_pattern_is_provably_disjoint() {
        let k = gemm_kernel();
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("row-major gemm store must be provably disjoint");
        };
        let n = 6usize;
        let launch = Launch::two_d(n, n).arg_int("n", n as i64);
        let plan = summary.resolve(&launch).expect("resolvable");
        assert!(plan.along_rows());
        assert_eq!(plan.buffers().len(), 1, "only `c` is stored");
        let c = &plan.buffers()[0];
        assert_eq!(c.name(), "c");
        // Row chunks [0,3) and [3,6) must occupy disjoint intervals.
        let (lo1, hi1) = c.interval(0, 3).unwrap();
        let (lo2, hi2) = c.interval(3, 6).unwrap();
        assert!(hi1 < lo2, "chunk intervals overlap: {hi1} vs {lo2}");
        assert!(lo1 >= 0 && (hi2 as usize) < n * n, "within the buffer");
    }

    #[test]
    fn data_dependent_store_index_is_unproven() {
        let k = kernel("scatter")
            .buffer("idx", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_ty(
                    "t",
                    ScalarType::Int,
                    Expr::Cast {
                        to: TypeRef::Concrete(ScalarType::Int),
                        arg: Box::new(load("idx", var("i"))),
                    },
                ),
                store("c", var("t"), flit(1.0)),
            ]);
        assert!(matches!(parallel_safety(&k), ParallelSafety::Unproven(_)));
    }

    #[test]
    fn loop_variable_store_index_is_unproven() {
        let k = kernel("rowfill")
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![for_(
                "j",
                int(0),
                var("n"),
                vec![store("c", var("j"), flit(0.0))],
            )]);
        assert!(matches!(parallel_safety(&k), ParallelSafety::Unproven(_)));
    }

    #[test]
    fn loading_a_stored_buffer_at_a_foreign_index_is_unproven() {
        // c[i] = c[i+1] — the load races with a neighbouring item's store.
        // The load *is* affine, but with a different constant term; that
        // widens the interval spread, so resolve() still proves row
        // disjointness only when the stride dominates. With stride 1 the
        // spread (1) is not dominated, so resolution must fail.
        let k = kernel("shift")
            .buffer("c", Precision::Double, Access::ReadWrite)
            .body(vec![
                let_("i", global_id(0)),
                store("c", var("i"), load("c", var("i") + int(1))),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("affine sites are summarizable");
        };
        assert!(summary.resolve(&Launch::one_d(8)).is_none());
        // Neighbours in a row meet at one element, so lock step refuses
        // too.
        assert_eq!(
            summary.lockstep(&Launch::one_d(8), 64),
            Err("the gid0 stride does not exceed the spread of a row's other index terms")
        );
    }

    #[test]
    fn mismatched_store_sites_fail_resolution() {
        // The `tri` shape: stores at i*n+j and j*n+i disagree on their
        // global-id coefficients, so no chunking along either axis is
        // disjoint.
        let k = kernel("tri")
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_else(
                    lt(var("i"), var("j")),
                    vec![store("c", var("i") * var("n") + var("j"), flit(1.0))],
                    vec![store("c", var("j") * var("n") + var("i"), flit(2.0))],
                ),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("both sites are affine");
        };
        let launch = Launch::two_d(9, 9).arg_int("n", 9);
        assert!(summary.resolve(&launch).is_none());
    }

    #[test]
    fn one_d_stores_resolve_along_columns() {
        let k = kernel("scale")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("y", var("i"), load("x", var("i")) * flit(2.0)),
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("unit-stride store must be disjoint");
        };
        let plan = summary.resolve(&Launch::one_d(16)).expect("resolvable");
        assert!(!plan.along_rows());
        let y = &plan.buffers()[0];
        assert_eq!(y.interval(0, 8).unwrap(), (0, 7));
        assert_eq!(y.interval(8, 16).unwrap(), (8, 15));
    }

    #[test]
    fn guarded_saxpy_resolves_with_symbolic_bounds() {
        // The guard `if (i < n)` over-approximates: the store site is
        // recorded unconditionally, which is sound (actual writes are a
        // subset of the summarized set).
        let k = kernel("saxpy")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("y", Precision::Double, Access::ReadWrite)
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
            ]);
        let ParallelSafety::Disjoint(summary) = parallel_safety(&k) else {
            panic!("guarded unit-stride store must be disjoint");
        };
        let launch = Launch::one_d(64).arg_float("a", 2.0).arg_int("n", 40);
        let plan = summary.resolve(&launch).expect("resolvable");
        // The full-range interval covers the launch width, not just n:
        // the executor's bounds pre-check rejects it against len 40 and
        // falls back to sequential execution (which reports the guard's
        // true behaviour).
        assert_eq!(plan.buffers()[0].interval(0, 64).unwrap(), (0, 63));
    }

    /// The `conv2d` shape: a guarded row-major store `b[i*nj + j]` of a
    /// stencil over a read-only input.
    fn conv2d_kernel() -> Kernel {
        let a = |di: i64, dj: i64| load("a", (var("i") + int(di)) * var("nj") + var("j") + int(dj));
        kernel("conv2d")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Write)
            .int_param("ni")
            .int_param("nj")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    gt(var("i"), int(0)),
                    vec![if_(
                        lt(var("j"), var("nj") - int(1)),
                        vec![store(
                            "b",
                            var("i") * var("nj") + var("j"),
                            flit(0.2) * a(-1, -1) + flit(0.5) * a(0, 1) + flit(0.7) * a(1, 0),
                        )],
                    )],
                ),
            ])
    }

    /// The `fdtd_ey` shape: `ey[j]` under `i == 0`, `ey[i*nj + j]`
    /// (read and written) otherwise. `guard` builds the first branch's
    /// condition.
    fn fdtd_ey_kernel(guard: fn(Expr, Expr) -> Expr) -> Kernel {
        kernel("fdtd_ey")
            .buffer("fict", Precision::Double, Access::Read)
            .buffer("ey", Precision::Double, Access::ReadWrite)
            .buffer("hz", Precision::Double, Access::Read)
            .int_param("ni")
            .int_param("nj")
            .int_param("t")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                if_(
                    lt(var("j"), var("nj")),
                    vec![if_else(
                        guard(var("i"), int(0)),
                        vec![store("ey", var("j"), load("fict", var("t")))],
                        vec![store(
                            "ey",
                            var("i") * var("nj") + var("j"),
                            load("ey", var("i") * var("nj") + var("j"))
                                - flit(0.5)
                                    * load("hz", (var("i") - int(1)) * var("nj") + var("j")),
                        )],
                    )],
                ),
            ])
    }

    /// The `conv3d` shape: a 2-D launch over `(k, j)` storing
    /// `b[(i*nj + j)*nk + k]` for every `i` of a loop.
    fn conv3d_kernel() -> Kernel {
        kernel("conv3d")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("b", Precision::Double, Access::Write)
            .int_param("ni")
            .int_param("nj")
            .int_param("nk")
            .body(vec![
                let_("k", global_id(0)),
                let_("j", global_id(1)),
                for_(
                    "i",
                    int(1),
                    var("ni") - int(1),
                    vec![store(
                        "b",
                        (var("i") * var("nj") + var("j")) * var("nk") + var("k"),
                        load(
                            "a",
                            (var("i") * var("nj") + var("j")) * var("nk") + var("k"),
                        ) * flit(0.5),
                    )],
                ),
            ])
    }

    fn summary(k: &Kernel) -> WriteSummary {
        match parallel_safety(k) {
            ParallelSafety::Disjoint(s) => s,
            ParallelSafety::Unproven(why) => panic!("`{}` unproven: {why}", k.name),
        }
    }

    #[test]
    fn conv2d_row_major_store_runs_in_lock_step() {
        let s = summary(&conv2d_kernel());
        for n in [8usize, 64, 457] {
            let launch = Launch::two_d(n, n)
                .arg_int("ni", n as i64)
                .arg_int("nj", n as i64);
            assert_eq!(s.lockstep(&launch, 64), Ok(()), "{n}×{n}");
        }
    }

    #[test]
    fn fdtd_ey_runs_in_lock_step_through_its_row_guard() {
        // Under `i == 0` the first site is `0*nj + j`, the second site's
        // shape in that row; without the guard the two sites spread by
        // `i*nj` in every later row.
        let s = summary(&fdtd_ey_kernel(|a, b| cmp(CmpOp::Eq, a, b)));
        let launch = Launch::two_d(131, 131)
            .arg_int("ni", 131)
            .arg_int("nj", 131)
            .arg_int("t", 3);
        assert_eq!(s.lockstep(&launch, 64), Ok(()));
        // Row chunks gain the same coverage.
        assert!(s.resolve(&launch).is_some());
    }

    #[test]
    fn conv3d_runs_in_lock_step_through_its_loop_counter() {
        let s = summary(&conv3d_kernel());
        for n in [6usize, 59] {
            let launch = Launch::two_d(n, n)
                .arg_int("ni", n as i64)
                .arg_int("nj", n as i64)
                .arg_int("nk", n as i64);
            assert_eq!(s.lockstep(&launch, 64), Ok(()), "{n}³");
            // Rows interleave across the counter's planes, so row chunks
            // do not get disjoint intervals.
            assert!(s.resolve(&launch).is_none(), "{n}³");
        }
    }

    #[test]
    fn a_zero_gid0_coefficient_refuses_lock_step() {
        // `c[gid1] += …`: every item of a row updates the same element.
        let k = kernel("rowsum")
            .buffer("x", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                let_("i", global_id(1)),
                store(
                    "c",
                    var("i"),
                    load("c", var("i")) + load("x", var("i") * var("n") + var("j")),
                ),
            ]);
        let s = summary(&k);
        let launch = Launch::two_d(16, 16).arg_int("n", 16);
        assert_eq!(
            s.lockstep(&launch, 64),
            Err("a stored buffer's gid0 coefficient is zero")
        );
        // Whole rows still write disjoint elements, so row chunks may run
        // concurrently: lock step needs the stronger, intra-row proof.
        assert!(s.resolve(&launch).is_some());
    }

    #[test]
    fn a_guard_that_does_not_pin_the_row_refuses_lock_step() {
        // `i <= 0` holds only in row 0 too, but is no equality: the first
        // site keeps its own gid1 coefficient, 0 against `nj`.
        let s = summary(&fdtd_ey_kernel(le));
        let launch = Launch::two_d(16, 16)
            .arg_int("ni", 16)
            .arg_int("nj", 16)
            .arg_int("t", 0);
        assert_eq!(
            s.lockstep(&launch, 64),
            Err("the gid0 stride does not exceed the spread of a row's other index terms")
        );
        assert!(s.resolve(&launch).is_none());
    }

    #[test]
    fn a_loop_counter_that_does_not_dominate_the_block_span_refuses_lock_step() {
        // `c[j + 4*k]`: lane 4 at k = 0 meets lane 0 at k = 1 once a
        // block is wider than 4.
        let k = kernel("strided")
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                for_(
                    "k",
                    int(0),
                    var("n"),
                    vec![store("c", var("j") + int(4) * var("k"), flit(1.0))],
                ),
            ]);
        let s = summary(&k);
        assert_eq!(
            s.lockstep(&Launch::one_d(64).arg_int("n", 3), 64),
            Err("a loop-counter coefficient does not dominate the block's gid0 span")
        );
        // Four lanes fit between the counter's strides.
        assert_eq!(s.lockstep(&Launch::one_d(4).arg_int("n", 3), 64), Ok(()));
        assert_eq!(s.lockstep(&Launch::one_d(64).arg_int("n", 3), 4), Ok(()));
    }

    #[test]
    fn a_data_dependent_trip_count_refuses_lock_step() {
        // The counter's bound is loaded data, so the counter is no index
        // dimension and the store index is opaque.
        let k = kernel("ragged")
            .buffer("len", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .int_param("n")
            .body(vec![
                let_("j", global_id(0)),
                for_(
                    "k",
                    int(0),
                    Expr::Cast {
                        to: TypeRef::Concrete(ScalarType::Int),
                        arg: Box::new(load("len", var("j"))),
                    },
                    vec![store("c", var("j") + var("n") * var("k"), flit(1.0))],
                ),
            ]);
        assert!(matches!(
            parallel_safety(&k),
            ParallelSafety::Unproven("a store index is not affine in the global id")
        ));
    }

    #[test]
    fn a_value_assigned_in_a_loop_is_unknown_after_it() {
        // With `n <= 0` no trip runs and `x` stays 0, so every item
        // stores `c[0]`; with a trip, `x` is the last counter value.
        for value in [global_id(0), global_id(0) + var("k")] {
            let k = kernel("escape")
                .buffer("c", Precision::Double, Access::Write)
                .int_param("n")
                .body(vec![
                    let_("x", int(0)),
                    for_("k", int(0), var("n"), vec![assign("x", value)]),
                    store("c", var("x"), flit(1.0)),
                ]);
            assert!(matches!(
                parallel_safety(&k),
                ParallelSafety::Unproven("a store index is not affine in the global id")
            ));
        }
    }

    #[test]
    fn an_index_assigned_to_a_float_local_is_unknown() {
        // A half holds 2049 as 2048, so `(int) x` sends items 2048 and
        // 2049 to one element; an int local holds the index exactly.
        let rmw = |ty: ScalarType| {
            let x = || Expr::Cast {
                to: TypeRef::Concrete(ScalarType::Int),
                arg: Box::new(var("x")),
            };
            kernel("rounded")
                .buffer("c", Precision::Double, Access::ReadWrite)
                .body(vec![
                    let_ty("x", ty, int(0)),
                    assign("x", global_id(0)),
                    store("c", x(), load("c", x()) + flit(1.0)),
                ])
        };
        let half = rmw(ScalarType::Float(Precision::Half));
        crate::typeck::check_kernel(&half).unwrap();
        assert!(matches!(
            parallel_safety(&half),
            ParallelSafety::Unproven("a store index is not affine in the global id")
        ));
        let ParallelSafety::Disjoint(summary) = parallel_safety(&rmw(ScalarType::Int)) else {
            panic!("an int local keeps the affine index");
        };
        assert_eq!(summary.lockstep(&Launch::one_d(2112), 64), Ok(()));
    }

    #[test]
    fn a_bound_the_body_assigns_is_no_index_dimension() {
        // The VM re-reads `m` every trip, so the counter's range is not
        // `[0, m)` as it stood at loop entry.
        let k = kernel("moving")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("j", global_id(0)),
                let_("m", int(2)),
                for_(
                    "k",
                    int(0),
                    var("m"),
                    vec![
                        store("c", var("j") + int(64) * var("k"), flit(1.0)),
                        assign("m", int(1)),
                    ],
                ),
            ]);
        assert!(matches!(parallel_safety(&k), ParallelSafety::Unproven(_)));
    }
}
