//! Type checking for kernels and programs.
//!
//! The checker validates a kernel against its *current* parameter table, so
//! it doubles as the post-condition of every precision-rewriting pass: a
//! retyped or cast-inserted kernel must still check.

use crate::ast::{Expr, Kernel, Param, Program, Scopes, Stmt, TypeRef};
use crate::types::{Precision, ScalarType};
use crate::value::UnaryFn;
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
/// Returns a [`TypeError`] for: duplicate parameter names, dangling
/// `ElemOf` references, unbound variables, loads/stores violating the
/// declared access mode, non-integer indices or loop bounds, non-boolean
/// conditions, booleans in arithmetic, assignment to loop variables or
/// parameters, or redeclaration of a live local.
pub fn check_kernel(kernel: &Kernel) -> Result<(), TypeError> {
    let mut names = HashSet::new();
    for p in &kernel.params {
        if !names.insert(p.name().to_owned()) {
            return Err(TypeError::new(
                &kernel.name,
                format!("duplicate parameter `{}`", p.name()),
            ));
        }
        if let Param::Scalar {
            ty: TypeRef::ElemOf(buf),
            name,
        } = p
        {
            ensure_buffer(kernel, buf)
                .map_err(|m| TypeError::new(&kernel.name, format!("parameter `{name}`: {m}")))?;
        }
    }
    let mut cx = Ctx {
        kernel,
        scopes: Scopes::new(),
    };
    cx.check_block(&kernel.body)
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

struct Ctx<'k> {
    kernel: &'k Kernel,
    scopes: Scopes<'k, Binding>,
}

impl<'k> Ctx<'k> {
    fn err(&self, message: impl Into<String>) -> TypeError {
        TypeError::new(&self.kernel.name, message)
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        self.scopes.get(name).copied()
    }

    fn declare(&mut self, name: &'k str, b: Binding) -> Result<(), TypeError> {
        if self.kernel.param(name).is_some() {
            return Err(self.err(format!("`{name}` shadows a kernel parameter")));
        }
        if self.scopes.bind(name, b).is_some() {
            return Err(self.err(format!("redeclaration of `{name}` in the same scope")));
        }
        Ok(())
    }

    fn check_block(&mut self, stmts: &'k [Stmt]) -> Result<(), TypeError> {
        for s in stmts {
            self.check_stmt(s)?;
        }
        Ok(())
    }

    fn scoped(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), TypeError>,
    ) -> Result<(), TypeError> {
        self.scopes.push();
        let r = f(self);
        self.scopes.pop();
        r
    }

    fn check_stmt(&mut self, stmt: &'k Stmt) -> Result<(), TypeError> {
        match stmt {
            Stmt::Let { name, ty, value } => {
                let vt = self.infer(value)?;
                if !vt.is_numeric() {
                    return Err(self.err(format!("local `{name}` initialized with a boolean")));
                }
                let declared = match ty {
                    Some(TypeRef::Concrete(t)) => *t,
                    Some(TypeRef::ElemOf(buf)) => {
                        let p = ensure_buffer(self.kernel, buf)
                            .map_err(|m| self.err(format!("local `{name}`: {m}")))?;
                        ScalarType::Float(p)
                    }
                    None => vt.resolved(),
                };
                self.declare(name, Binding::Local(declared))
            }
            Stmt::Assign { name, value } => {
                let vt = self.infer(value)?;
                match self.lookup(name) {
                    Some(Binding::Local(t)) => {
                        if t == ScalarType::Bool || !vt.is_numeric() {
                            return Err(
                                self.err(format!("assignment to `{name}` mixes bool and number"))
                            );
                        }
                        Ok(())
                    }
                    Some(Binding::LoopVar) => {
                        Err(self.err(format!("cannot assign to loop variable `{name}`")))
                    }
                    None => {
                        if self.kernel.param(name).is_some() {
                            Err(self.err(format!("cannot assign to parameter `{name}`")))
                        } else {
                            Err(self.err(format!("assignment to undeclared `{name}`")))
                        }
                    }
                }
            }
            Stmt::Store { buf, index, value } => {
                match self.kernel.param(buf) {
                    Some(Param::Buffer { access, .. }) if access.writable() => {}
                    Some(Param::Buffer { .. }) => {
                        return Err(self.err(format!("store to read-only buffer `{buf}`")))
                    }
                    _ => return Err(self.err(format!("store to unknown buffer `{buf}`"))),
                }
                self.expect_int(index, "store index")?;
                let vt = self.infer(value)?;
                if !vt.is_numeric() {
                    return Err(self.err(format!("storing a boolean into `{buf}`")));
                }
                Ok(())
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                self.expect_int(start, "loop start")?;
                self.expect_int(end, "loop end")?;
                self.scoped(|cx| {
                    cx.declare(var, Binding::LoopVar)?;
                    cx.check_block(body)
                })
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let ct = self.infer(cond)?;
                if ct != InferTy::Known(ScalarType::Bool) {
                    return Err(self.err("if condition is not a boolean"));
                }
                self.scoped(|cx| cx.check_block(then_body))?;
                self.scoped(|cx| cx.check_block(else_body))
            }
        }
    }

    fn expect_int(&mut self, e: &Expr, what: &str) -> Result<(), TypeError> {
        match self.infer(e)? {
            InferTy::Known(ScalarType::Int) => Ok(()),
            other => Err(self.err(format!("{what} must be an integer, found {other:?}"))),
        }
    }

    fn infer(&mut self, e: &Expr) -> Result<InferTy, TypeError> {
        match e {
            Expr::FloatConst(_) => Ok(InferTy::WeakFloat),
            Expr::IntConst(_) => Ok(InferTy::Known(ScalarType::Int)),
            Expr::GlobalId(dim) => {
                if *dim > 2 {
                    return Err(self.err(format!("get_global_id({dim}) exceeds 3 dimensions")));
                }
                Ok(InferTy::Known(ScalarType::Int))
            }
            Expr::Var(name) => {
                if let Some(b) = self.lookup(name) {
                    return Ok(match b {
                        Binding::Local(t) => InferTy::Known(t),
                        Binding::LoopVar => InferTy::Known(ScalarType::Int),
                    });
                }
                match self.kernel.param(name) {
                    // `check_kernel` has vetted every parameter's `ElemOf`.
                    Some(Param::Scalar { ty, .. }) => {
                        self.kernel.resolve(ty).map(InferTy::Known).ok_or_else(|| {
                            self.err(format!("parameter `{name}` has a dangling element type"))
                        })
                    }
                    Some(Param::Buffer { .. }) => {
                        Err(self.err(format!("buffer `{name}` used as a scalar")))
                    }
                    None => Err(self.err(format!("unbound variable `{name}`"))),
                }
            }
            Expr::Load { buf, index } => match self.kernel.param(buf) {
                Some(Param::Buffer { access, elem, .. }) => {
                    if !access.readable() {
                        return Err(self.err(format!("load from write-only buffer `{buf}`")));
                    }
                    self.expect_int(index, "load index")?;
                    Ok(InferTy::Known(ScalarType::Float(*elem)))
                }
                _ => Err(self.err(format!("load from unknown buffer `{buf}`"))),
            },
            Expr::Unary { op, arg } => {
                let at = self.infer(arg)?;
                if !at.is_numeric() {
                    return Err(self.err("math function applied to a boolean"));
                }
                match op {
                    UnaryFn::Neg | UnaryFn::Fabs => Ok(at),
                    // sqrt/exp/log of an int computes in double.
                    _ => Ok(match at {
                        InferTy::Known(ScalarType::Int) => {
                            InferTy::Known(ScalarType::Float(Precision::Double))
                        }
                        other => other,
                    }),
                }
            }
            Expr::Bin { lhs, rhs, .. } => {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                self.promote(lt, rt)
            }
            Expr::Cmp { lhs, rhs, .. } => {
                let lt = self.infer(lhs)?;
                let rt = self.infer(rhs)?;
                self.promote(lt, rt)?; // validates numeric operands
                Ok(InferTy::Known(ScalarType::Bool))
            }
            Expr::Cast { to, arg } => {
                let at = self.infer(arg)?;
                if !at.is_numeric() {
                    return Err(self.err("cast applied to a boolean"));
                }
                let target = match to {
                    TypeRef::Concrete(ScalarType::Bool) => {
                        return Err(self.err("cast to bool is not allowed"))
                    }
                    TypeRef::Concrete(t) => *t,
                    TypeRef::ElemOf(buf) => {
                        ScalarType::Float(ensure_buffer(self.kernel, buf).map_err(|m| self.err(m))?)
                    }
                };
                Ok(InferTy::Known(target))
            }
            Expr::Select { cond, then, els } => {
                if self.infer(cond)? != InferTy::Known(ScalarType::Bool) {
                    return Err(self.err("select condition is not a boolean"));
                }
                let tt = self.infer(then)?;
                let et = self.infer(els)?;
                // Arms must agree in kind (both integer or both float):
                // a mixed select would need a branch-dependent conversion.
                let int_arm = |t: InferTy| t == InferTy::Known(ScalarType::Int);
                if int_arm(tt) != int_arm(et) {
                    return Err(self.err("select arms mix integer and float"));
                }
                self.promote(tt, et)
            }
        }
    }

    fn promote(&self, a: InferTy, b: InferTy) -> Result<InferTy, TypeError> {
        use InferTy::{Known, WeakFloat};
        use ScalarType::{Bool, Float, Int};
        match (a, b) {
            (Known(Bool), _) | (_, Known(Bool)) => Err(self.err("boolean operand in arithmetic")),
            (Known(Int), Known(Int)) => Ok(Known(Int)),
            (Known(Float(x)), Known(Float(y))) => Ok(Known(Float(x.max(y)))),
            (Known(Float(x)), Known(Int)) | (Known(Int), Known(Float(x))) => Ok(Known(Float(x))),
            (WeakFloat, Known(Float(x))) | (Known(Float(x)), WeakFloat) => Ok(Known(Float(x))),
            // A weak literal against an int computes in double (C rules).
            (WeakFloat, Known(Int)) | (Known(Int), WeakFloat) => {
                Ok(Known(Float(Precision::Double)))
            }
            (WeakFloat, WeakFloat) => Ok(WeakFloat),
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
