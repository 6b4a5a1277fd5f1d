//! A precision-faithful interpreter for the kernel IR.
//!
//! The interpreter executes a kernel once per work-item of the launch
//! NDRange, computing every float operation *in the promoted precision of
//! its operands* (true binary16/32/64 arithmetic), so numeric error from
//! precision scaling is real. It simultaneously tallies exact dynamic
//! [`OpCounts`], which the simulator converts into virtual kernel time and
//! which pin the bytecode VM's counts.

use crate::array::FloatVec;
use crate::ast::{eval_operands, Expr, Kernel, Param, Scopes, Stmt, TypeRef};
use crate::counts::OpCounts;
use crate::types::{Precision, ScalarType};
use crate::value::Scalar;
use core::fmt;
use std::collections::HashMap;

/// Buffers bound to a kernel launch, by parameter name.
pub type BufferMap = HashMap<String, FloatVec>;

/// A scalar argument value supplied by the host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArgValue {
    /// Bound to integer parameters.
    Int(i64),
    /// Bound to float parameters; converted to the parameter's (possibly
    /// buffer-tracking) precision at launch, exactly as `clSetKernelArg`
    /// reinterprets host data.
    Float(f64),
}

/// A kernel launch descriptor: NDRange plus scalar arguments by name.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Launch {
    /// Global work size `[x, y]`; use `[n, 1]` for 1-D launches.
    pub global: [usize; 2],
    /// Scalar arguments by parameter name.
    pub args: Vec<(String, ArgValue)>,
}

impl Launch {
    /// A 1-D launch of `n` work-items.
    #[must_use]
    pub fn one_d(n: usize) -> Launch {
        Launch {
            global: [n, 1],
            args: Vec::new(),
        }
    }

    /// A 2-D launch.
    #[must_use]
    pub fn two_d(x: usize, y: usize) -> Launch {
        Launch {
            global: [x, y],
            args: Vec::new(),
        }
    }

    /// Adds an integer argument.
    #[must_use]
    pub fn arg_int(mut self, name: impl Into<String>, v: i64) -> Launch {
        self.args.push((name.into(), ArgValue::Int(v)));
        self
    }

    /// Adds a float argument.
    #[must_use]
    pub fn arg_float(mut self, name: impl Into<String>, v: f64) -> Launch {
        self.args.push((name.into(), ArgValue::Float(v)));
        self
    }

    /// Total number of work-items.
    #[must_use]
    pub fn items(&self) -> usize {
        self.global[0] * self.global[1]
    }
}

/// A runtime execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A buffer parameter had no bound [`FloatVec`].
    MissingBuffer(String),
    /// A bound buffer's precision differs from the kernel's declared
    /// element type.
    BufferPrecisionMismatch {
        /// Buffer parameter name.
        name: String,
        /// Declared element precision.
        declared: Precision,
        /// Precision of the bound data.
        bound: Precision,
    },
    /// A scalar parameter had no argument.
    MissingArg(String),
    /// An argument had the wrong kind (int vs float).
    ArgKindMismatch(String),
    /// An out-of-bounds access.
    OutOfBounds {
        /// Buffer parameter name.
        buf: String,
        /// Offending index.
        index: i64,
        /// Buffer length.
        len: usize,
    },
    /// A variable was used or assigned without being declared — a
    /// malformed kernel that bypassed the type checker.
    UnboundVar(String),
    /// A load, store or `ElemOf` type named something that is not a
    /// buffer parameter.
    NotABuffer(String),
    /// A value had the wrong runtime kind for its context (e.g. a float
    /// where an index was expected, a boolean in arithmetic) — a
    /// malformed kernel that bypassed the type checker.
    KindError(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingBuffer(n) => write!(f, "no buffer bound for parameter `{n}`"),
            ExecError::BufferPrecisionMismatch {
                name,
                declared,
                bound,
            } => write!(
                f,
                "buffer `{name}` declared {declared} but bound data is {bound}"
            ),
            ExecError::MissingArg(n) => write!(f, "no value for scalar parameter `{n}`"),
            ExecError::ArgKindMismatch(n) => {
                write!(f, "argument `{n}` has the wrong kind (int vs float)")
            }
            ExecError::OutOfBounds { buf, index, len } => {
                write!(
                    f,
                    "index {index} out of bounds for buffer `{buf}` (len {len})"
                )
            }
            ExecError::UnboundVar(n) => write!(f, "variable `{n}` is not declared"),
            ExecError::NotABuffer(n) => write!(f, "`{n}` is not a buffer parameter"),
            ExecError::KindError(what) => write!(f, "kind error: {what}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Resolves a type annotation against `kernel`; a dangling `ElemOf` (a
/// kernel that bypassed the type checker) is [`ExecError::NotABuffer`].
pub(crate) fn resolve(kernel: &Kernel, ty: &TypeRef) -> Result<ScalarType, ExecError> {
    kernel.resolve(ty).ok_or_else(|| {
        ExecError::NotABuffer(match ty {
            TypeRef::ElemOf(buf) => buf.clone(),
            TypeRef::Concrete(t) => t.to_string(),
        })
    })
}

/// Runs `kernel` over the launch NDRange against `buffers`, returning the
/// exact dynamic operation counts.
///
/// # Errors
///
/// See [`ExecError`]. Buffers must be pre-bound at exactly the kernel's
/// declared element precisions (the runtime layer converts them first —
/// that conversion is a *measured event*, never an implicit one).
pub fn run_kernel(
    kernel: &Kernel,
    buffers: &mut BufferMap,
    launch: &Launch,
) -> Result<OpCounts, ExecError> {
    // Validate bindings up-front.
    let mut scalars: HashMap<&str, Scalar> = HashMap::new();
    for p in &kernel.params {
        match p {
            Param::Buffer { name, elem, .. } => match buffers.get(name.as_str()) {
                None => return Err(ExecError::MissingBuffer(name.clone())),
                Some(v) if v.precision() != *elem => {
                    return Err(ExecError::BufferPrecisionMismatch {
                        name: name.clone(),
                        declared: *elem,
                        bound: v.precision(),
                    })
                }
                Some(_) => {}
            },
            Param::Scalar { name, ty } => {
                let arg = launch
                    .args
                    .iter()
                    .rev()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| ExecError::MissingArg(name.clone()))?;
                let value = match (resolve(kernel, ty)?, arg) {
                    (ScalarType::Int, ArgValue::Int(v)) => Scalar::Int(v),
                    (ScalarType::Float(p), ArgValue::Float(v)) => Scalar::float(v, p),
                    // Binding an int literal to a float param is a common
                    // host idiom; accept it with one conversion.
                    (ScalarType::Float(p), ArgValue::Int(v)) => Scalar::float(v as f64, p),
                    _ => return Err(ExecError::ArgKindMismatch(name.clone())),
                };
                scalars.insert(name.as_str(), value);
            }
        }
    }

    let mut counts = OpCounts::new();
    let mut interp = Interp {
        kernel,
        buffers,
        scalars,
        locals: Scopes::new(),
        gid: [0, 0],
        counts: &mut counts,
    };

    for gy in 0..launch.global[1] {
        for gx in 0..launch.global[0] {
            interp.gid = [gx as i64, gy as i64];
            interp.locals.reset();
            interp.block(&kernel.body)?;
        }
    }
    Ok(counts)
}

struct Interp<'a> {
    kernel: &'a Kernel,
    buffers: &'a mut BufferMap,
    scalars: HashMap<&'a str, Scalar>,
    locals: Scopes<'a, Scalar>,
    gid: [i64; 2],
    counts: &'a mut OpCounts,
}

impl<'a> Interp<'a> {
    fn block(&mut self, stmts: &'a [Stmt]) -> Result<(), ExecError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn scope<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ExecError>,
    ) -> Result<T, ExecError> {
        self.locals.push();
        let r = f(self);
        self.locals.pop();
        r
    }

    fn lookup(&self, name: &str) -> Option<Scalar> {
        self.locals
            .get(name)
            .or_else(|| self.scalars.get(name))
            .copied()
    }

    fn stmt(&mut self, stmt: &'a Stmt) -> Result<(), ExecError> {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let declared = match ty {
                    Some(t) => Some(resolve(self.kernel, t)?),
                    None => None,
                };
                let mut v = self.eval(value, declared.and_then(ScalarType::precision))?;
                if let Some(t) = declared {
                    v = self.coerce(v, t);
                }
                self.locals.bind(name, v);
                Ok(())
            }
            Stmt::Assign { name, value } => {
                let current = self
                    .lookup(name)
                    .ok_or_else(|| ExecError::UnboundVar(name.clone()))?;
                let hint = current.precision();
                let v = self.eval(value, hint)?;
                let v = self.coerce(v, current.scalar_type());
                // The checker guarantees assignment targets are locals; a
                // kernel that bypassed it degrades into a typed error.
                let slot = self
                    .locals
                    .get_mut(name)
                    .ok_or_else(|| ExecError::UnboundVar(name.clone()))?;
                *slot = v;
                Ok(())
            }
            Stmt::Store { buf, index, value } => {
                let elem = self
                    .kernel
                    .buffer_elem(buf)
                    .ok_or_else(|| ExecError::NotABuffer(buf.clone()))?;
                let idx = self.eval(index, None)?.try_int().ok_or_else(|| {
                    ExecError::KindError(format!("index into `{buf}` must be an integer"))
                })?;
                let v = self.eval(value, Some(elem))?;
                let stored = v.try_f64().ok_or_else(|| {
                    ExecError::KindError(format!("cannot store a boolean into `{buf}`"))
                })?;
                // Implicit store conversion is a real convert instruction
                // when the value's precision differs from the buffer's.
                if v.precision() != Some(elem) {
                    self.counts.converts += 1;
                }
                let arr = self
                    .buffers
                    .get_mut(buf.as_str())
                    .ok_or_else(|| ExecError::MissingBuffer(buf.clone()))?;
                let len = arr.len();
                if idx < 0 || idx as usize >= len {
                    return Err(ExecError::OutOfBounds {
                        buf: buf.clone(),
                        index: idx,
                        len,
                    });
                }
                self.counts.at_mut(elem).stores += 1;
                arr.set(idx as usize, stored);
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                let s = self.eval(start, None)?.try_int().ok_or_else(|| {
                    ExecError::KindError(format!("loop bound for `{var}` must be an integer"))
                })?;
                let e = self.eval(end, None)?.try_int().ok_or_else(|| {
                    ExecError::KindError(format!("loop bound for `{var}` must be an integer"))
                })?;
                // Loop bookkeeping: one compare + one increment per trip.
                self.counts.int_ops += 2 * (e - s).max(0) as u64;
                // Each trip runs the body in a fresh scope, as C does: a
                // `let` in one trip must not be what the next trip's
                // initializers read.
                for i in s..e {
                    self.scope(|cx| {
                        cx.locals.bind(var, Scalar::Int(i));
                        cx.block(body)
                    })?;
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self
                    .eval(cond, None)?
                    .try_bool()
                    .ok_or_else(|| ExecError::KindError("if condition must be a boolean".into()))?;
                if c {
                    self.scope(|cx| cx.block(then_body))
                } else {
                    self.scope(|cx| cx.block(else_body))
                }
            }
        }
    }

    /// Converts a scalar to a target type, counting a real conversion when
    /// the representation changes.
    fn coerce(&mut self, v: Scalar, target: ScalarType) -> Scalar {
        match (v, target) {
            (Scalar::Bool(_), _) => v,
            (_, ScalarType::Bool) => v,
            (Scalar::Int(_), ScalarType::Int) => v,
            (Scalar::Int(x), ScalarType::Float(p)) => {
                self.counts.converts += 1;
                Scalar::float(x as f64, p)
            }
            (_, ScalarType::Int) => {
                self.counts.converts += 1;
                Scalar::Int(v.as_f64().trunc() as i64)
            }
            (_, ScalarType::Float(p)) => {
                if v.precision() == Some(p) {
                    v
                } else {
                    self.counts.converts += 1;
                    v.cast_float(p)
                }
            }
        }
    }

    fn eval(&mut self, e: &'a Expr, hint: Option<Precision>) -> Result<Scalar, ExecError> {
        match e {
            Expr::FloatConst(v) => Ok(Scalar::float(*v, hint.unwrap_or(Precision::Double))),
            Expr::IntConst(v) => Ok(Scalar::Int(*v)),
            Expr::GlobalId(d) => Ok(Scalar::Int(if *d < 2 { self.gid[*d] } else { 0 })),
            Expr::Var(name) => self
                .lookup(name)
                .ok_or_else(|| ExecError::UnboundVar(name.clone())),
            Expr::Load { buf, index } => {
                let idx = self.eval(index, None)?.try_int().ok_or_else(|| {
                    ExecError::KindError(format!("index into `{buf}` must be an integer"))
                })?;
                let arr = self
                    .buffers
                    .get(buf.as_str())
                    .ok_or_else(|| ExecError::MissingBuffer(buf.clone()))?;
                let len = arr.len();
                if idx < 0 || idx as usize >= len {
                    return Err(ExecError::OutOfBounds {
                        buf: buf.clone(),
                        index: idx,
                        len,
                    });
                }
                let v = arr.get_scalar(idx as usize);
                match v.precision() {
                    Some(p) => self.counts.at_mut(p).loads += 1,
                    None => {
                        return Err(ExecError::KindError(format!(
                            "buffer `{buf}` yielded a non-float value"
                        )))
                    }
                }
                Ok(v)
            }
            Expr::Unary { op, arg } => {
                let v = self.eval(arg, hint)?;
                if matches!(v, Scalar::Bool(_)) {
                    return Err(ExecError::KindError(
                        "boolean passed to a math function".into(),
                    ));
                }
                self.counts.count_unary(*op, v.precision());
                Ok(op.apply(v))
            }
            Expr::Bin { op, lhs, rhs } => {
                let (a, b) = self.eval_pair(lhs, rhs, hint)?;
                if matches!(a, Scalar::Bool(_)) || matches!(b, Scalar::Bool(_)) {
                    return Err(ExecError::KindError("boolean operand in arithmetic".into()));
                }
                self.counts
                    .count_bin(*op, Precision::promote(a.precision(), b.precision()));
                Ok(Scalar::binop(*op, a, b))
            }
            Expr::Cmp { op, lhs, rhs } => {
                let (a, b) = self.eval_pair(lhs, rhs, None)?;
                if matches!(a, Scalar::Bool(_)) || matches!(b, Scalar::Bool(_)) {
                    return Err(ExecError::KindError("boolean operand in comparison".into()));
                }
                self.counts
                    .count_cmp(Precision::promote(a.precision(), b.precision()));
                Ok(Scalar::Bool(match (a, b) {
                    (Scalar::Int(x), Scalar::Int(y)) => op.holds(x, y),
                    // Floats widen to f64 exactly; so does the VM.
                    _ => op.holds(a.as_f64(), b.as_f64()),
                }))
            }
            Expr::Cast { to, arg } => {
                let v = self.eval(arg, None)?;
                let to = resolve(self.kernel, to)?;
                Ok(self.coerce(v, to))
            }
            Expr::Select { cond, then, els } => {
                let c = self.eval(cond, None)?.try_bool().ok_or_else(|| {
                    ExecError::KindError("select condition must be a boolean".into())
                })?;
                // Both sides are evaluated on a GPU (predication), but only
                // the taken side's value is kept; we evaluate both so the
                // counts reflect lock-step SIMT execution.
                let (a, b) = self.eval_pair(then, els, hint)?;
                // Mixed-precision arms convert the narrower arm to the
                // promoted type before selecting (one real conversion,
                // branch-independent — the checker rejects int/float
                // mixes).
                match (a.precision(), b.precision()) {
                    (Some(pa), Some(pb)) if pa != pb => {
                        let p = pa.max(pb);
                        let a2 = if pa < p {
                            self.coerce(a, ScalarType::Float(p))
                        } else {
                            a
                        };
                        let b2 = if pb < p {
                            self.coerce(b, ScalarType::Float(p))
                        } else {
                            b
                        };
                        Ok(if c { a2 } else { b2 })
                    }
                    _ => Ok(if c { a } else { b }),
                }
            }
        }
    }

    /// Evaluates a pair of operands, resolving weak literals against the
    /// other side's precision (mirroring the checker's promotion rules).
    fn eval_pair(
        &mut self,
        lhs: &'a Expr,
        rhs: &'a Expr,
        hint: Option<Precision>,
    ) -> Result<(Scalar, Scalar), ExecError> {
        eval_operands(lhs, rhs, hint, |e, h| self.eval(e, h), Scalar::precision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;
    use crate::typeck::check_kernel;

    fn saxpy_kernel(elem: Precision) -> Kernel {
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

    fn run_saxpy(elem: Precision, n: usize) -> (FloatVec, OpCounts) {
        let k = saxpy_kernel(elem);
        check_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        bufs.insert("x".into(), FloatVec::from_f64_slice(&xs, elem));
        bufs.insert("y".into(), FloatVec::from_f64_slice(&ys, elem));
        let launch = Launch::one_d(n).arg_float("a", 3.0).arg_int("n", n as i64);
        let counts = run_kernel(&k, &mut bufs, &launch).unwrap();
        (bufs.remove("y").unwrap(), counts)
    }

    #[test]
    fn saxpy_computes_correctly_in_double() {
        let (y, counts) = run_saxpy(Precision::Double, 16);
        for i in 0..16 {
            assert_eq!(y.get(i), 3.0 * i as f64 + 2.0 * i as f64);
        }
        let d = counts.at(Precision::Double);
        assert_eq!(d.mul, 16);
        assert_eq!(d.add_sub, 16);
        assert_eq!(d.loads, 32);
        assert_eq!(d.stores, 16);
        assert_eq!(counts.converts, 0, "same-precision store is free");
    }

    #[test]
    fn saxpy_in_half_loses_precision_for_large_values() {
        let n = 1400;
        let (y, _) = run_saxpy(Precision::Half, n);
        // 3*1399 + 2*1399 = 6995; binary16 spacing at 6995 is 4.
        let exact = 6995.0;
        let got = y.get(n - 1);
        assert_ne!(got, exact);
        assert!((got - exact).abs() <= 4.0);
    }

    #[test]
    fn counts_attribute_to_the_buffer_precision() {
        let (_, counts) = run_saxpy(Precision::Single, 8);
        assert_eq!(counts.at(Precision::Single).mul, 8);
        assert_eq!(counts.at(Precision::Double).mul, 0);
        assert_eq!(counts.at(Precision::Half).mul, 0);
    }

    #[test]
    fn guard_prevents_out_of_bounds() {
        // Launch is larger than n; the `if` guard must suppress accesses.
        let k = saxpy_kernel(Precision::Double);
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::zeros(8, Precision::Double));
        bufs.insert("y".into(), FloatVec::zeros(8, Precision::Double));
        let launch = Launch::one_d(32).arg_float("a", 1.0).arg_int("n", 8);
        run_kernel(&k, &mut bufs, &launch).unwrap();
    }

    #[test]
    fn unguarded_out_of_bounds_is_reported() {
        let k = kernel("oob")
            .buffer("x", Precision::Double, Access::Read)
            .body(vec![let_("v", load("x", global_id(0)))]);
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::zeros(4, Precision::Double));
        let err = run_kernel(&k, &mut bufs, &Launch::one_d(8)).unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::OutOfBounds {
                    index: 4,
                    len: 4,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn missing_buffer_and_arg_are_reported() {
        let k = saxpy_kernel(Precision::Double);
        let mut bufs = BufferMap::new();
        let err = run_kernel(&k, &mut bufs, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, ExecError::MissingBuffer(_)));

        bufs.insert("x".into(), FloatVec::zeros(1, Precision::Double));
        bufs.insert("y".into(), FloatVec::zeros(1, Precision::Double));
        let err = run_kernel(&k, &mut bufs, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, ExecError::MissingArg(_)));
    }

    #[test]
    fn precision_mismatch_is_reported() {
        let k = saxpy_kernel(Precision::Single);
        let mut bufs = BufferMap::new();
        bufs.insert("x".into(), FloatVec::zeros(1, Precision::Double));
        bufs.insert("y".into(), FloatVec::zeros(1, Precision::Single));
        let launch = Launch::one_d(1).arg_float("a", 1.0).arg_int("n", 1);
        let err = run_kernel(&k, &mut bufs, &launch).unwrap_err();
        assert!(matches!(err, ExecError::BufferPrecisionMismatch { .. }));
    }

    #[test]
    fn mixed_precision_buffers_promote() {
        // c[i] = a[i] (half) * b[i] (single) computed in single, stored to
        // double → one convert per store.
        let k = kernel("mix")
            .buffer("a", Precision::Half, Access::Read)
            .buffer("b", Precision::Single, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                store("c", var("i"), load("a", var("i")) * load("b", var("i"))),
            ]);
        check_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        bufs.insert(
            "a".into(),
            FloatVec::from_f64_slice(&[1.5; 4], Precision::Half),
        );
        bufs.insert(
            "b".into(),
            FloatVec::from_f64_slice(&[2.0; 4], Precision::Single),
        );
        bufs.insert("c".into(), FloatVec::zeros(4, Precision::Double));
        let counts = run_kernel(&k, &mut bufs, &Launch::one_d(4)).unwrap();
        assert_eq!(counts.at(Precision::Single).mul, 4, "promoted to single");
        assert_eq!(counts.converts, 4, "one store conversion per item");
        assert_eq!(bufs["c"].get(0), 3.0);
    }

    #[test]
    fn explicit_casts_count_as_converts() {
        // In-kernel scaling shape: load double, cast to half, compute,
        // cast back on store.
        let k = kernel("ik")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                let_("i", global_id(0)),
                let_("x", cast(Precision::Half, load("a", var("i")))),
                store("c", var("i"), var("x") * var("x")),
            ]);
        check_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        bufs.insert(
            "a".into(),
            FloatVec::from_f64_slice(&[3.0; 2], Precision::Double),
        );
        bufs.insert("c".into(), FloatVec::zeros(2, Precision::Double));
        let counts = run_kernel(&k, &mut bufs, &Launch::one_d(2)).unwrap();
        assert_eq!(counts.at(Precision::Half).mul, 2);
        // Per item: 1 explicit cast + 1 implicit store conversion.
        assert_eq!(counts.converts, 4);
        assert_eq!(bufs["c"].get(0), 9.0);
    }

    #[test]
    fn accumulator_follows_buffer_precision() {
        // acc := ElemOf(c); with c at half, the reduction loses mass.
        let reduce = |elem: Precision| -> f64 {
            let k = kernel("red")
                .buffer("a", elem, Access::Read)
                .buffer("c", elem, Access::Write)
                .int_param("n")
                .body(vec![
                    let_acc("acc", "c", flit(0.0)),
                    for_(
                        "j",
                        int(0),
                        var("n"),
                        vec![add_assign("acc", load("a", var("j")))],
                    ),
                    store("c", int(0), var("acc")),
                ]);
            check_kernel(&k).unwrap();
            let n = 4096usize;
            let mut bufs = BufferMap::new();
            bufs.insert("a".into(), FloatVec::from_f64_slice(&vec![1.0; n], elem));
            bufs.insert("c".into(), FloatVec::zeros(1, elem));
            let launch = Launch::one_d(1).arg_int("n", n as i64);
            run_kernel(&k, &mut bufs, &launch).unwrap();
            bufs["c"].get(0)
        };
        assert_eq!(reduce(Precision::Double), 4096.0);
        // In binary16, the accumulator saturates at 2048: 2048 + 1 = 2048.
        assert_eq!(reduce(Precision::Half), 2048.0);
    }

    #[test]
    fn two_d_launch_orders_ids() {
        let k = kernel("id2")
            .buffer("c", Precision::Double, Access::Write)
            .int_param("w")
            .body(vec![
                let_("x", global_id(0)),
                let_("y", global_id(1)),
                store(
                    "c",
                    var("y") * var("w") + var("x"),
                    cast(Precision::Double, var("y") * var("w") + var("x")),
                ),
            ]);
        check_kernel(&k).unwrap();
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(12, Precision::Double));
        let launch = Launch::two_d(4, 3).arg_int("w", 4);
        run_kernel(&k, &mut bufs, &launch).unwrap();
        for i in 0..12 {
            assert_eq!(bufs["c"].get(i), i as f64);
        }
    }

    #[test]
    fn malformed_kernels_degrade_into_typed_errors() {
        // Kernels that bypassed the type checker must surface typed
        // errors, never panic — a guarded run degrades instead of
        // aborting.
        let unbound = kernel("bad_var")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", int(0), var("ghost"))]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(1, Precision::Double));
        let err = run_kernel(&unbound, &mut bufs, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, ExecError::UnboundVar(_)), "{err}");

        let not_a_buffer =
            kernel("bad_store")
                .int_param("n")
                .body(vec![store("n", int(0), flit(1.0))]);
        let err = run_kernel(
            &not_a_buffer,
            &mut BufferMap::new(),
            &Launch::one_d(1).arg_int("n", 1),
        )
        .unwrap_err();
        assert!(matches!(err, ExecError::NotABuffer(_)), "{err}");

        let float_index = kernel("bad_index")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", flit(0.5), flit(1.0))]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(1, Precision::Double));
        let err = run_kernel(&float_index, &mut bufs, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, ExecError::KindError(_)), "{err}");

        let bool_math = kernel("bad_bool")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", int(0), lt(int(0), int(1)) + flit(1.0))]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(1, Precision::Double));
        let err = run_kernel(&bool_math, &mut bufs, &Launch::one_d(1)).unwrap_err();
        assert!(matches!(err, ExecError::KindError(_)), "{err}");

        let dangling_elem_of = kernel("bad_elem_of")
            .buffer("c", Precision::Single, Access::Write)
            .body(vec![store("c", int(0), cast_elem_of("ghost", flit(1.0)))]);
        let mut bufs = BufferMap::new();
        bufs.insert("c".into(), FloatVec::zeros(1, Precision::Single));
        let err = run_kernel(&dangling_elem_of, &mut bufs, &Launch::one_d(1)).unwrap_err();
        assert!(
            matches!(err, ExecError::NotABuffer(ref n) if n == "ghost"),
            "{err}"
        );
    }
}
