//! The kernel checker: type checking and verification in one walk.
//!
//! One pass over a kernel's parameters and body, with one scope stack,
//! finds both the first violation of the type rules, which
//! [`check_kernel`] returns ("can this kernel run?"), and the structural
//! lints that [`verify_kernel`](crate::verify::verify_kernel) reports as
//! typed diagnostics ("is it well-formed?"). The walk goes on past the
//! first violation so that later lints still report, but no later
//! violation replaces it. A rule checked before descending into an
//! expression (a load's buffer, a store's target, a select's condition)
//! is checked before its operands, and every `let` and loop variable is
//! bound, even one the type rules refuse, so later names resolve to it.
//!
//! The checker validates a kernel against its *current* parameter table,
//! so it doubles as the post-condition of every precision-rewriting pass:
//! a retyped or cast-inserted kernel must still check.

use crate::ast::{Expr, Kernel, Param, Program, Scopes, Stmt, TypeRef};
use crate::types::{Precision, ScalarType};
use crate::value::UnaryFn;
use crate::verify::{const_int, dead_store, VerifyDiagnostic};
use core::fmt;
use std::collections::HashSet;

/// A type error, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    kernel: String,
    message: String,
}

impl TypeError {
    fn new(kernel: &str, message: impl Into<String>) -> TypeError {
        TypeError {
            kernel: kernel.to_owned(),
            message: message.into(),
        }
    }

    /// The kernel in which the error occurred.
    #[must_use]
    pub fn kernel(&self) -> &str {
        &self.kernel
    }
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "type error in kernel `{}`: {}",
            self.kernel, self.message
        )
    }
}

impl std::error::Error for TypeError {}

/// The inferred type of an expression; float literals are *weak* until
/// context pins them to a precision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InferTy {
    /// A definite scalar type.
    Known(ScalarType),
    /// A float of context-determined precision.
    WeakFloat,
}

impl InferTy {
    /// `true` for any float (weak or known) or int — i.e. usable in
    /// arithmetic.
    #[must_use]
    pub fn is_numeric(self) -> bool {
        !matches!(self, InferTy::Known(ScalarType::Bool))
    }

    /// Resolves a weak float to `double`, mirroring C literal semantics
    /// when no context constrains it.
    #[must_use]
    pub fn resolved(self) -> ScalarType {
        match self {
            InferTy::Known(t) => t,
            InferTy::WeakFloat => ScalarType::Float(Precision::Double),
        }
    }
}

/// Type-checks a whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] found: duplicate kernel names, or any
/// kernel-level error from [`check_kernel`].
pub fn check_program(program: &Program) -> Result<(), TypeError> {
    let mut seen = HashSet::new();
    for k in &program.kernels {
        if !seen.insert(k.name.as_str()) {
            return Err(TypeError::new(&k.name, "duplicate kernel name in program"));
        }
        check_kernel(k)?;
    }
    Ok(())
}

/// Type-checks a single kernel.
///
/// # Errors
///
/// Returns the first [`TypeError`] in parameter and program order for:
/// duplicate parameter names, dangling `ElemOf` references, unbound
/// variables, loads/stores violating the declared access mode, non-integer
/// indices or loop bounds, non-boolean conditions, booleans in arithmetic,
/// assignment to loop variables or parameters, or redeclaration of a live
/// local.
pub fn check_kernel(kernel: &Kernel) -> Result<(), TypeError> {
    walk(kernel).violation.map_or(Ok(()), Err)
}

/// What one walk of a kernel found.
pub(crate) struct Findings {
    /// The verifier's diagnostics in report order, without the type
    /// violation.
    pub(crate) diagnostics: Vec<VerifyDiagnostic>,
    /// The first violation of the type rules.
    pub(crate) violation: Option<TypeError>,
}

/// Checks `kernel` in one walk over its parameters and body.
pub(crate) fn walk(kernel: &Kernel) -> Findings {
    let mut cx = Checker {
        kernel,
        scopes: Scopes::new(),
        used: HashSet::new(),
        diagnostics: Vec::new(),
        oob: Vec::new(),
        violation: None,
    };
    for (i, p) in kernel.params.iter().enumerate() {
        if kernel.params[..i].iter().any(|q| q.name() == p.name()) {
            cx.fail(format!("duplicate parameter `{}`", p.name()));
        }
        if let Param::Scalar {
            ty: TypeRef::ElemOf(buf),
            name,
        } = p
        {
            // An element type anchors the buffer it names: a use.
            cx.used.insert(buf);
            if let Err(m) = ensure_buffer(kernel, buf) {
                cx.fail(format!("parameter `{name}`: {m}"));
            }
        }
    }
    cx.block(&kernel.body);
    for p in &kernel.params {
        if !cx.used.contains(p.name()) {
            cx.diagnostics.push(VerifyDiagnostic::UnusedParam {
                kernel: kernel.name.clone(),
                param: p.name().to_owned(),
            });
        }
    }
    Findings {
        diagnostics: cx.diagnostics,
        violation: cx.violation,
    }
}

fn ensure_buffer(kernel: &Kernel, buf: &str) -> Result<Precision, String> {
    match kernel.param(buf) {
        Some(Param::Buffer { elem, .. }) => Ok(*elem),
        Some(Param::Scalar { .. }) => Err(format!("`{buf}` is a scalar, not a buffer")),
        None => Err(format!("unknown buffer `{buf}`")),
    }
}

/// What a name means inside a kernel body.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Binding {
    Local(ScalarType),
    LoopVar,
}

struct Checker<'k> {
    kernel: &'k Kernel,
    scopes: Scopes<'k, Binding>,
    /// Parameters the kernel references.
    used: HashSet<&'k str>,
    diagnostics: Vec<VerifyDiagnostic>,
    /// Negative constant load indices of the statement-level expression
    /// being walked: they report after its unbound names.
    oob: Vec<(&'k str, i64)>,
    violation: Option<TypeError>,
}

impl<'k> Checker<'k> {
    /// Records a type-rule violation unless an earlier one was recorded.
    /// The types inferred after the first are placeholders.
    fn fail(&mut self, message: impl Into<String>) {
        if self.violation.is_none() {
            self.violation = Some(TypeError::new(&self.kernel.name, message));
        }
    }

    fn name(&self) -> String {
        self.kernel.name.clone()
    }

    /// Binds `name` in the innermost scope, even where the type rules
    /// refuse it.
    fn declare(&mut self, name: &'k str, b: Binding) {
        if self.kernel.param(name).is_some() {
            self.fail(format!("`{name}` shadows a kernel parameter"));
        }
        if self.scopes.bind(name, b).is_some() {
            self.fail(format!("redeclaration of `{name}` in the same scope"));
        }
    }

    fn scoped(&mut self, f: impl FnOnce(&mut Self)) {
        self.scopes.push();
        f(self);
        self.scopes.pop();
    }

    fn block(&mut self, stmts: &'k [Stmt]) {
        let mut pending = Vec::new();
        for s in stmts {
            if let Some((buf, index)) = dead_store(&mut pending, s) {
                self.diagnostics.push(VerifyDiagnostic::DeadStore {
                    kernel: self.name(),
                    buf: buf.to_owned(),
                    index,
                });
            }
            self.stmt(s);
        }
    }

    fn stmt(&mut self, stmt: &'k Stmt) {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let vt = self.expr(value);
                if !vt.is_numeric() {
                    self.fail(format!("local `{name}` initialized with a boolean"));
                }
                let declared = match ty {
                    Some(TypeRef::Concrete(t)) => *t,
                    Some(TypeRef::ElemOf(buf)) => {
                        self.used.insert(buf);
                        let p = ensure_buffer(self.kernel, buf).unwrap_or_else(|m| {
                            self.fail(format!("local `{name}`: {m}"));
                            Precision::Double
                        });
                        ScalarType::Float(p)
                    }
                    None => vt.resolved(),
                };
                self.declare(name, Binding::Local(declared));
            }
            Stmt::Assign { name, value } => {
                let vt = self.expr(value);
                match self.scopes.get(name).copied() {
                    Some(Binding::Local(t)) => {
                        if t == ScalarType::Bool || !vt.is_numeric() {
                            self.fail(format!("assignment to `{name}` mixes bool and number"));
                        }
                    }
                    Some(Binding::LoopVar) => {
                        self.fail(format!("cannot assign to loop variable `{name}`"));
                    }
                    None if self.kernel.param(name).is_some() => {
                        self.fail(format!("cannot assign to parameter `{name}`"));
                    }
                    None => {
                        self.unbound(name);
                        self.fail(format!("assignment to undeclared `{name}`"));
                    }
                }
            }
            Stmt::Store { buf, index, value } => {
                match self.kernel.param(buf) {
                    Some(Param::Buffer { access, .. }) => {
                        self.used.insert(buf);
                        if !access.writable() {
                            self.fail(format!("store to read-only buffer `{buf}`"));
                        }
                        if let Some(i) = const_int(index).filter(|&i| i < 0) {
                            self.out_of_bounds(buf, i);
                        }
                    }
                    _ => {
                        self.diagnostics.push(VerifyDiagnostic::NonBufferStore {
                            kernel: self.name(),
                            name: buf.clone(),
                        });
                        self.fail(format!("store to unknown buffer `{buf}`"));
                    }
                }
                self.int_expr(index, "store index");
                if !self.expr(value).is_numeric() {
                    self.fail(format!("storing a boolean into `{buf}`"));
                }
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                self.int_expr(start, "loop start");
                self.int_expr(end, "loop end");
                self.scoped(|cx| {
                    cx.declare(var, Binding::LoopVar);
                    cx.block(body);
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                if self.expr(cond) != InferTy::Known(ScalarType::Bool) {
                    self.fail("if condition is not a boolean");
                }
                self.scoped(|cx| cx.block(then_body));
                self.scoped(|cx| cx.block(else_body));
            }
        }
    }

    /// Infers a statement-level expression's type: its unbound names
    /// report as the walk meets them, its negative constant load indices
    /// after them.
    fn expr(&mut self, e: &'k Expr) -> InferTy {
        let t = self.infer(e);
        for (buf, index) in std::mem::take(&mut self.oob) {
            self.out_of_bounds(buf, index);
        }
        t
    }

    fn int_expr(&mut self, e: &'k Expr, what: &str) {
        let t = self.expr(e);
        self.expect_int(t, what);
    }

    fn expect_int(&mut self, t: InferTy, what: &str) {
        if t != InferTy::Known(ScalarType::Int) {
            self.fail(format!("{what} must be an integer, found {t:?}"));
        }
    }

    fn out_of_bounds(&mut self, buf: &str, index: i64) {
        self.diagnostics.push(VerifyDiagnostic::OobConstIndex {
            kernel: self.name(),
            buf: buf.to_owned(),
            index,
        });
    }

    fn unbound(&mut self, name: &str) {
        self.diagnostics.push(VerifyDiagnostic::UnboundVar {
            kernel: self.name(),
            name: name.to_owned(),
        });
    }

    fn infer(&mut self, e: &'k Expr) -> InferTy {
        match e {
            Expr::FloatConst(_) => InferTy::WeakFloat,
            Expr::IntConst(_) => InferTy::Known(ScalarType::Int),
            Expr::GlobalId(dim) => {
                if *dim > 2 {
                    self.fail(format!("get_global_id({dim}) exceeds 3 dimensions"));
                }
                InferTy::Known(ScalarType::Int)
            }
            Expr::Var(name) => self.var(name),
            Expr::Load { buf, index } => {
                let param = self.kernel.param(buf);
                if param.is_some() {
                    self.used.insert(buf);
                }
                let elem = match param {
                    Some(Param::Buffer { access, elem, .. }) => {
                        if !access.readable() {
                            self.fail(format!("load from write-only buffer `{buf}`"));
                        }
                        *elem
                    }
                    _ => {
                        self.fail(format!("load from unknown buffer `{buf}`"));
                        Precision::Double
                    }
                };
                if let Some(i) = const_int(index).filter(|&i| i < 0) {
                    self.oob.push((buf, i));
                }
                let it = self.infer(index);
                self.expect_int(it, "load index");
                InferTy::Known(ScalarType::Float(elem))
            }
            Expr::Unary { op, arg } => {
                let at = self.infer(arg);
                if !at.is_numeric() {
                    self.fail("math function applied to a boolean");
                }
                match op {
                    UnaryFn::Neg | UnaryFn::Fabs => at,
                    // sqrt/exp/log of an int computes in double.
                    _ => match at {
                        InferTy::Known(ScalarType::Int) => {
                            InferTy::Known(ScalarType::Float(Precision::Double))
                        }
                        other => other,
                    },
                }
            }
            Expr::Bin { lhs, rhs, .. } => {
                let lt = self.infer(lhs);
                let rt = self.infer(rhs);
                self.promote(lt, rt)
            }
            Expr::Cmp { lhs, rhs, .. } => {
                let lt = self.infer(lhs);
                let rt = self.infer(rhs);
                self.promote(lt, rt); // validates numeric operands
                InferTy::Known(ScalarType::Bool)
            }
            Expr::Cast { to, arg } => {
                if !self.infer(arg).is_numeric() {
                    self.fail("cast applied to a boolean");
                }
                match to {
                    TypeRef::Concrete(ScalarType::Bool) => {
                        self.fail("cast to bool is not allowed");
                        InferTy::Known(ScalarType::Bool)
                    }
                    TypeRef::Concrete(t) => InferTy::Known(*t),
                    TypeRef::ElemOf(buf) => {
                        self.used.insert(buf);
                        let p = ensure_buffer(self.kernel, buf).unwrap_or_else(|m| {
                            self.fail(m);
                            Precision::Double
                        });
                        InferTy::Known(ScalarType::Float(p))
                    }
                }
            }
            Expr::Select { cond, then, els } => {
                if self.infer(cond) != InferTy::Known(ScalarType::Bool) {
                    self.fail("select condition is not a boolean");
                }
                let tt = self.infer(then);
                let et = self.infer(els);
                // Arms must agree in kind (both integer or both float):
                // a mixed select would need a branch-dependent conversion.
                let int_arm = |t: InferTy| t == InferTy::Known(ScalarType::Int);
                if int_arm(tt) != int_arm(et) {
                    self.fail("select arms mix integer and float");
                }
                self.promote(tt, et)
            }
        }
    }

    fn var(&mut self, name: &'k str) -> InferTy {
        if let Some(b) = self.scopes.get(name) {
            return match *b {
                Binding::Local(t) => InferTy::Known(t),
                Binding::LoopVar => InferTy::Known(ScalarType::Int),
            };
        }
        match self.kernel.param(name) {
            Some(p) => {
                self.used.insert(name);
                match p {
                    // A dangling `ElemOf` failed with the parameters.
                    Param::Scalar { ty, .. } => self
                        .kernel
                        .resolve(ty)
                        .map_or(InferTy::WeakFloat, InferTy::Known),
                    Param::Buffer { .. } => {
                        self.fail(format!("buffer `{name}` used as a scalar"));
                        InferTy::WeakFloat
                    }
                }
            }
            None => {
                self.unbound(name);
                self.fail(format!("unbound variable `{name}`"));
                InferTy::WeakFloat
            }
        }
    }

    fn promote(&mut self, a: InferTy, b: InferTy) -> InferTy {
        use InferTy::{Known, WeakFloat};
        use ScalarType::{Bool, Float, Int};
        match (a, b) {
            (Known(Bool), _) | (_, Known(Bool)) => {
                self.fail("boolean operand in arithmetic");
                WeakFloat
            }
            (Known(Int), Known(Int)) => Known(Int),
            (Known(Float(x)), Known(Float(y))) => Known(Float(x.max(y))),
            (Known(Float(x)), Known(Int)) | (Known(Int), Known(Float(x))) => Known(Float(x)),
            (WeakFloat, Known(Float(x))) | (Known(Float(x)), WeakFloat) => Known(Float(x)),
            // A weak literal against an int computes in double (C rules).
            (WeakFloat, Known(Int)) | (Known(Int), WeakFloat) => Known(Float(Precision::Double)),
            (WeakFloat, WeakFloat) => WeakFloat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;

    fn simple_kernel(body: Vec<Stmt>) -> Kernel {
        kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Single, Access::Write)
            .int_param("n")
            .float_param_like("alpha", "a")
            .body(body)
    }

    #[test]
    fn valid_kernel_checks() {
        let k = simple_kernel(vec![
            let_("i", global_id(0)),
            if_(
                lt(var("i"), var("n")),
                vec![store(
                    "c",
                    var("i"),
                    var("alpha") * load("a", var("i")) + flit(1.0),
                )],
            ),
        ]);
        check_kernel(&k).unwrap();
    }

    #[test]
    fn load_from_write_only_buffer_fails() {
        let k = simple_kernel(vec![let_("x", load("c", int(0)))]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("write-only"), "{e}");
    }

    #[test]
    fn store_to_read_only_buffer_fails() {
        let k = simple_kernel(vec![store("a", int(0), flit(1.0))]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("read-only"), "{e}");
    }

    #[test]
    fn float_index_fails() {
        let k = simple_kernel(vec![let_("x", load("a", flit(0.0)))]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn unbound_variable_fails() {
        let k = simple_kernel(vec![let_("x", var("ghost"))]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("unbound"), "{e}");
        assert_eq!(e.kernel(), "k");
    }

    #[test]
    fn assignment_to_loop_var_fails() {
        let k = simple_kernel(vec![for_("i", int(0), int(4), vec![assign("i", int(0))])]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn loop_scopes_isolate_locals() {
        // `x` declared inside the loop is not visible after it.
        let k = simple_kernel(vec![
            for_("i", int(0), int(4), vec![let_("x", flit(0.0))]),
            assign("x", flit(1.0)),
        ]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("undeclared"), "{e}");
    }

    #[test]
    fn redeclaration_in_same_scope_fails() {
        let k = simple_kernel(vec![let_("x", flit(0.0)), let_("x", flit(1.0))]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn shadowing_a_parameter_fails() {
        let k = simple_kernel(vec![let_("n", int(0))]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn non_bool_condition_fails() {
        let k = simple_kernel(vec![if_(var("n"), vec![])]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn weak_literal_adopts_buffer_precision() {
        // a[i] (double) + 1.0 → double; c stores single: fine (implicit
        // store conversion), and the checker accepts the mixed store.
        let k = simple_kernel(vec![
            let_("i", global_id(0)),
            store("c", var("i"), load("a", var("i")) + flit(1.0)),
        ]);
        check_kernel(&k).unwrap();
    }

    #[test]
    fn elem_of_unknown_buffer_in_param_fails() {
        let k = kernel("k").float_param_like("alpha", "ghost").body(vec![]);
        let e = check_kernel(&k).unwrap_err();
        assert!(e.to_string().contains("unknown buffer"), "{e}");
    }

    #[test]
    fn duplicate_kernel_names_fail_program_check() {
        let p = Program::new("p")
            .with_kernel(simple_kernel(vec![]))
            .with_kernel(simple_kernel(vec![]));
        assert!(check_program(&p).is_err());
    }

    #[test]
    fn duplicate_param_names_fail() {
        let k = kernel("k").int_param("n").int_param("n").body(vec![]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn cast_to_bool_fails() {
        let k = simple_kernel(vec![let_(
            "x",
            Expr::Cast {
                to: TypeRef::Concrete(ScalarType::Bool),
                arg: Box::new(int(1)),
            },
        )]);
        assert!(check_kernel(&k).is_err());
    }

    #[test]
    fn select_promotes_operands() {
        let k = simple_kernel(vec![
            let_("i", global_id(0)),
            let_(
                "x",
                select(lt(var("i"), var("n")), load("a", var("i")), flit(0.0)),
            ),
        ]);
        check_kernel(&k).unwrap();
    }
}
