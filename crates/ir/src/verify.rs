//! The IR verifier: structural lints over a kernel, reported as typed
//! diagnostics instead of a first-error abort.
//!
//! The type checker ([`crate::typeck`]) answers "can this kernel run?"
//! and stops at the first violation. The verifier answers "is this
//! kernel *well-formed*?": it walks the whole kernel, collects every
//! finding, and classifies each one with a severity, so a runtime can
//! refuse to compile genuinely broken kernels ([`Severity::Error`])
//! while merely reporting suspicious-but-runnable shapes
//! ([`Severity::Warning`]). `ocl::Session` runs it on every scaled
//! kernel variant before handing it to the compiler, and the
//! `prescaler-verify` check runs it over the whole polybench suite,
//! where zero diagnostics of any severity are expected.

use crate::ast::{visit_expr, Expr, Kernel, Param, Program, Scopes, Stmt, TypeRef};
use crate::typeck::check_kernel;
use crate::value::{FloatBinOp, UnaryFn};
use core::fmt;
use std::collections::{HashMap, HashSet};

/// How bad a [`VerifyDiagnostic`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// The kernel must not be compiled or executed.
    Error,
    /// The kernel is runnable but almost certainly not what the author
    /// meant (dead work, unused inputs).
    Warning,
}

/// One verifier finding, typed by its cause.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyDiagnostic {
    /// A variable is referenced but bound by no parameter, local, or
    /// loop variable.
    UnboundVar {
        /// Kernel name.
        kernel: String,
        /// The dangling name.
        name: String,
    },
    /// The kernel violates the type system (the verifier bridges
    /// [`check_kernel`] findings that no more specific diagnostic
    /// explains).
    TypeClash {
        /// Kernel name.
        kernel: String,
        /// The type checker's description.
        detail: String,
    },
    /// A load or store uses a constant index that is negative — out of
    /// bounds for a buffer of any length.
    OobConstIndex {
        /// Kernel name.
        kernel: String,
        /// Buffer parameter.
        buf: String,
        /// The provably out-of-bounds index.
        index: i64,
    },
    /// A store to a constant index is overwritten by a later store to
    /// the same index with no intervening read of the buffer: the first
    /// store is dead.
    DeadStore {
        /// Kernel name.
        kernel: String,
        /// Buffer parameter.
        buf: String,
        /// The constant index stored twice.
        index: i64,
    },
    /// A kernel parameter is never referenced by the body (or by
    /// another parameter's element type).
    UnusedParam {
        /// Kernel name.
        kernel: String,
        /// The unused parameter.
        param: String,
    },
    /// A store targets a name that is not a buffer parameter (a scalar
    /// parameter, a local, or nothing at all).
    NonBufferStore {
        /// Kernel name.
        kernel: String,
        /// The non-buffer store target.
        name: String,
    },
}

impl VerifyDiagnostic {
    /// The kernel the finding is in.
    #[must_use]
    pub fn kernel(&self) -> &str {
        match self {
            VerifyDiagnostic::UnboundVar { kernel, .. }
            | VerifyDiagnostic::TypeClash { kernel, .. }
            | VerifyDiagnostic::OobConstIndex { kernel, .. }
            | VerifyDiagnostic::DeadStore { kernel, .. }
            | VerifyDiagnostic::UnusedParam { kernel, .. }
            | VerifyDiagnostic::NonBufferStore { kernel, .. } => kernel,
        }
    }

    /// How severe the finding is.
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self {
            VerifyDiagnostic::UnboundVar { .. }
            | VerifyDiagnostic::TypeClash { .. }
            | VerifyDiagnostic::OobConstIndex { .. }
            | VerifyDiagnostic::NonBufferStore { .. } => Severity::Error,
            VerifyDiagnostic::DeadStore { .. } | VerifyDiagnostic::UnusedParam { .. } => {
                Severity::Warning
            }
        }
    }
}

impl fmt::Display for VerifyDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyDiagnostic::UnboundVar { kernel, name } => {
                write!(f, "kernel `{kernel}`: unbound variable `{name}`")
            }
            VerifyDiagnostic::TypeClash { kernel, detail } => {
                write!(f, "kernel `{kernel}`: type clash: {detail}")
            }
            VerifyDiagnostic::OobConstIndex { kernel, buf, index } => {
                write!(
                    f,
                    "kernel `{kernel}`: constant index {index} into `{buf}` is out of bounds"
                )
            }
            VerifyDiagnostic::DeadStore { kernel, buf, index } => {
                write!(
                    f,
                    "kernel `{kernel}`: dead store to `{buf}[{index}]` (overwritten before any read)"
                )
            }
            VerifyDiagnostic::UnusedParam { kernel, param } => {
                write!(f, "kernel `{kernel}`: parameter `{param}` is never used")
            }
            VerifyDiagnostic::NonBufferStore { kernel, name } => {
                write!(f, "kernel `{kernel}`: store through non-buffer `{name}`")
            }
        }
    }
}

/// Verifies every kernel of a program; diagnostics come back in kernel
/// declaration order.
#[must_use]
pub fn verify_program(program: &Program) -> Vec<VerifyDiagnostic> {
    program.kernels.iter().flat_map(verify_kernel).collect()
}

/// Verifies one kernel, returning *all* findings (empty = clean).
#[must_use]
pub fn verify_kernel(kernel: &Kernel) -> Vec<VerifyDiagnostic> {
    let mut v = Verifier {
        kernel,
        diagnostics: Vec::new(),
        scopes: Scopes::new(),
        used_params: HashSet::new(),
    };
    // Parameters can reference each other through `ElemOf` element
    // types; that anchors the referenced buffer and counts as a use.
    for p in &kernel.params {
        if let Param::Scalar {
            ty: TypeRef::ElemOf(buf),
            ..
        } = p
        {
            v.used_params.insert(buf.clone());
        }
    }
    v.walk_block(&kernel.body);
    for p in &kernel.params {
        if !v.used_params.contains(p.name()) {
            v.diagnostics.push(VerifyDiagnostic::UnusedParam {
                kernel: kernel.name.clone(),
                param: p.name().to_owned(),
            });
        }
    }
    // Bridge the type checker: anything it rejects that no structural
    // diagnostic above already explains surfaces as a TypeClash, so the
    // verifier never passes a kernel the compiler would refuse.
    if let Err(e) = check_kernel(kernel) {
        let already_fatal = v
            .diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error);
        if !already_fatal {
            v.diagnostics.push(VerifyDiagnostic::TypeClash {
                kernel: kernel.name.clone(),
                detail: e.to_string(),
            });
        }
    }
    v.diagnostics
}

struct Verifier<'k> {
    kernel: &'k Kernel,
    diagnostics: Vec<VerifyDiagnostic>,
    /// Lexical scopes of locals and loop variables.
    scopes: Scopes<'k, ()>,
    used_params: HashSet<String>,
}

/// Evaluates an integer-constant expression (literals and arithmetic on
/// literals); `None` for anything runtime-dependent.
fn const_int(e: &Expr) -> Option<i64> {
    match e {
        Expr::IntConst(v) => Some(*v),
        Expr::Unary {
            op: UnaryFn::Neg,
            arg,
        } => const_int(arg).map(i64::wrapping_neg),
        Expr::Bin { op, lhs, rhs } => {
            let (l, r) = (const_int(lhs)?, const_int(rhs)?);
            // Constant division by zero has no value to fold to (the IR's
            // 0 is a runtime convention); treating it as runtime-dependent
            // keeps the index out of the OOB and dead-store logic entirely.
            (*op != FloatBinOp::Div || r != 0).then(|| op.apply_int(l, r))
        }
        _ => None,
    }
}

impl<'k> Verifier<'k> {
    fn diag(&mut self, d: VerifyDiagnostic) {
        self.diagnostics.push(d);
    }

    fn name(&self) -> String {
        self.kernel.name.clone()
    }

    fn bound(&self, name: &str) -> bool {
        self.scopes.get(name).is_some()
    }

    fn declare(&mut self, name: &'k str) {
        self.scopes.bind(name, ());
    }

    fn scoped(&mut self, f: impl FnOnce(&mut Self)) {
        self.scopes.push();
        f(self);
        self.scopes.pop();
    }

    fn walk_block(&mut self, stmts: &'k [Stmt]) {
        // Straight-line dead-store scan: a pending store to a constant
        // index dies if the same (buffer, index) is stored again before
        // any read of that buffer. Control flow and dynamic indices
        // conservatively clear the pending set.
        let mut pending: HashMap<(String, i64), ()> = HashMap::new();
        for s in stmts {
            match s {
                Stmt::Store { buf, index, value } => {
                    // Reads inside the index or stored value — of any
                    // buffer, not just the one being written — happen
                    // before the write lands and keep earlier stores
                    // to the read buffer alive.
                    pending.retain(|(b, _), ()| {
                        !self.reads_buffer(index, b) && !self.reads_buffer(value, b)
                    });
                    if let Some(i) = const_int(index) {
                        if pending.insert((buf.clone(), i), ()).is_some() {
                            self.diag(VerifyDiagnostic::DeadStore {
                                kernel: self.name(),
                                buf: buf.clone(),
                                index: i,
                            });
                        }
                    } else {
                        // A dynamic store may alias any pending index.
                        pending.retain(|(b, _), ()| b != buf);
                    }
                }
                Stmt::Let { value, .. } | Stmt::Assign { value, .. } => {
                    pending.retain(|(b, _), ()| !self.reads_buffer(value, b));
                }
                Stmt::For { .. } | Stmt::If { .. } => pending.clear(),
            }
            self.walk_stmt(s);
        }
    }

    /// Whether evaluating `e` loads from buffer `buf`.
    fn reads_buffer(&self, e: &Expr, buf: &str) -> bool {
        let mut found = false;
        visit_expr(e, &mut |x| {
            if let Expr::Load { buf: b, .. } = x {
                if b == buf {
                    found = true;
                }
            }
        });
        found
    }

    fn walk_stmt(&mut self, stmt: &'k Stmt) {
        match stmt {
            Stmt::Let { name, ty, value } => {
                if let Some(TypeRef::ElemOf(buf)) = ty {
                    self.used_params.insert(buf.clone());
                }
                self.walk_expr(value);
                self.declare(name);
            }
            Stmt::Assign { name, value } => {
                self.walk_expr(value);
                if !self.bound(name) && self.kernel.param(name).is_none() {
                    self.diag(VerifyDiagnostic::UnboundVar {
                        kernel: self.name(),
                        name: name.clone(),
                    });
                }
            }
            Stmt::Store { buf, index, value } => {
                match self.kernel.param(buf) {
                    Some(Param::Buffer { .. }) => {
                        self.used_params.insert(buf.clone());
                        if let Some(i) = const_int(index) {
                            if i < 0 {
                                self.diag(VerifyDiagnostic::OobConstIndex {
                                    kernel: self.name(),
                                    buf: buf.clone(),
                                    index: i,
                                });
                            }
                        }
                    }
                    _ => self.diag(VerifyDiagnostic::NonBufferStore {
                        kernel: self.name(),
                        name: buf.clone(),
                    }),
                }
                self.walk_expr(index);
                self.walk_expr(value);
            }
            Stmt::For {
                var,
                start,
                end,
                body,
            } => {
                self.walk_expr(start);
                self.walk_expr(end);
                self.scoped(|v| {
                    v.declare(var);
                    v.walk_block(body);
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.walk_expr(cond);
                self.scoped(|v| v.walk_block(then_body));
                self.scoped(|v| v.walk_block(else_body));
            }
        }
    }

    fn walk_expr(&mut self, e: &Expr) {
        let mut unbound: Vec<String> = Vec::new();
        let mut oob: Vec<(String, i64)> = Vec::new();
        visit_expr(e, &mut |x| match x {
            Expr::Var(name) => {
                if self.bound(name) {
                    return;
                }
                match self.kernel.param(name.as_str()) {
                    Some(_) => {
                        // Both scalar use and (invalid) buffer-as-scalar
                        // use reference the parameter; the latter also
                        // trips the TypeClash bridge.
                        self.used_params.insert(name.clone());
                    }
                    None => unbound.push(name.clone()),
                }
            }
            Expr::Load { buf, index } => {
                if self.kernel.param(buf.as_str()).is_some() {
                    self.used_params.insert(buf.clone());
                }
                if let Some(i) = const_int(index) {
                    if i < 0 {
                        oob.push((buf.clone(), i));
                    }
                }
            }
            Expr::Cast {
                to: TypeRef::ElemOf(buf),
                ..
            } => {
                self.used_params.insert(buf.clone());
            }
            _ => {}
        });
        for name in unbound {
            self.diag(VerifyDiagnostic::UnboundVar {
                kernel: self.name(),
                name,
            });
        }
        for (buf, index) in oob {
            self.diag(VerifyDiagnostic::OobConstIndex {
                kernel: self.name(),
                buf,
                index,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;
    use crate::types::Precision;

    fn base() -> crate::dsl::KernelBuilder {
        kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
    }

    /// A body that uses every parameter, so only the seeded defect
    /// reports.
    fn use_all() -> Vec<Stmt> {
        vec![
            let_("i", global_id(0)),
            if_(
                lt(var("i"), var("n")),
                vec![store("c", var("i"), load("a", var("i")) + flit(1.0))],
            ),
        ]
    }

    #[test]
    fn clean_kernel_has_no_diagnostics() {
        let k = base().body(use_all());
        assert_eq!(verify_kernel(&k), vec![]);
    }

    #[test]
    fn unbound_var_is_reported() {
        let mut body = use_all();
        body.push(store("c", int(0), var("ghost")));
        let k = base().body(body);
        let ds = verify_kernel(&k);
        assert!(
            ds.iter().any(|d| matches!(
                d,
                VerifyDiagnostic::UnboundVar { kernel, name } if kernel == "k" && name == "ghost"
            )),
            "{ds:?}"
        );
        assert!(ds.iter().all(|d| d.severity() == Severity::Error));
    }

    #[test]
    fn type_clash_is_reported() {
        // Float-typed loop bound: runnable nowhere, caught by the
        // typeck bridge as a TypeClash (no structural diagnostic covers
        // it).
        let mut body = use_all();
        body.push(for_("j", int(0), Expr::FloatConst(4.0), vec![]));
        let k = base().body(body);
        let ds = verify_kernel(&k);
        assert!(
            ds.iter()
                .any(|d| matches!(d, VerifyDiagnostic::TypeClash { kernel, .. } if kernel == "k")),
            "{ds:?}"
        );
    }

    #[test]
    fn negative_constant_index_is_reported() {
        let mut body = use_all();
        body.push(let_("x", load("a", int(0) - int(3))));
        let k = base().body(body);
        let ds = verify_kernel(&k);
        assert!(
            ds.iter().any(|d| matches!(
                d,
                VerifyDiagnostic::OobConstIndex { buf, index: -3, .. } if buf == "a"
            )),
            "{ds:?}"
        );
    }

    #[test]
    fn dead_store_is_reported() {
        let mut body = use_all();
        body.push(store("c", int(0), flit(1.0)));
        body.push(store("c", int(0), flit(2.0)));
        let k = base().body(body);
        let ds = verify_kernel(&k);
        assert!(
            ds.iter().any(|d| matches!(
                d,
                VerifyDiagnostic::DeadStore { buf, index: 0, .. } if buf == "c"
            )),
            "{ds:?}"
        );
        assert!(ds.iter().all(|d| d.severity() == Severity::Warning));
    }

    #[test]
    fn read_between_stores_keeps_the_first_alive() {
        let mut body = use_all();
        body.push(store("c", int(0), flit(1.0)));
        body.push(store("c", int(1), load("c", int(0))));
        body.push(store("c", int(0), flit(2.0)));
        let k = base().body(body);
        assert_eq!(verify_kernel(&k), vec![]);
    }

    #[test]
    fn cross_buffer_read_inside_a_store_keeps_the_store_alive() {
        // The read of `c` happens inside a store to a *different*
        // buffer; it must still count as a use of c[0].
        let mut body = use_all();
        body.push(store("c", int(0), flit(1.0)));
        body.push(store("a", int(0), load("c", int(0))));
        body.push(store("c", int(0), flit(2.0)));
        let k = kernel("k")
            .buffer("a", Precision::Double, Access::ReadWrite)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .int_param("n")
            .body(body);
        assert_eq!(verify_kernel(&k), vec![]);
    }

    #[test]
    fn constant_division_by_zero_is_not_a_constant_index() {
        // `5/0` must not fold to index 0: the store is treated as
        // dynamic, so no dead-store (or OOB) diagnostic may fire.
        let mut body = use_all();
        body.push(store("c", int(5) / int(0), flit(1.0)));
        body.push(store("c", int(0), flit(2.0)));
        let k = base().body(body);
        assert_eq!(verify_kernel(&k), vec![]);
        assert_eq!(const_int(&(int(5) / int(0))), None);
    }

    #[test]
    fn unused_param_is_reported() {
        let k = base()
            .float_param("beta", Precision::Double)
            .body(use_all());
        let ds = verify_kernel(&k);
        assert_eq!(
            ds,
            vec![VerifyDiagnostic::UnusedParam {
                kernel: "k".into(),
                param: "beta".into(),
            }]
        );
        assert_eq!(ds[0].severity(), Severity::Warning);
    }

    #[test]
    fn elem_of_reference_counts_as_a_use() {
        // `alpha`'s type anchors buffer `a`; storing `alpha` uses both.
        let k = kernel("k")
            .buffer("a", Precision::Double, Access::ReadWrite)
            .float_param_like("alpha", "a")
            .body(vec![store("a", global_id(0), var("alpha"))]);
        assert_eq!(verify_kernel(&k), vec![]);
    }

    #[test]
    fn non_buffer_store_is_reported() {
        let mut body = use_all();
        body.push(store("n", int(0), flit(1.0)));
        let k = base().body(body);
        let ds = verify_kernel(&k);
        assert!(
            ds.iter().any(|d| matches!(
                d,
                VerifyDiagnostic::NonBufferStore { name, .. } if name == "n"
            )),
            "{ds:?}"
        );
    }

    #[test]
    fn program_verification_covers_every_kernel() {
        let p = crate::ast::Program::new("p")
            .with_kernel(base().body(use_all()))
            .with_kernel(
                kernel("broken")
                    .buffer("o", Precision::Double, Access::Write)
                    .body(vec![store("o", int(0), var("ghost"))]),
            );
        let ds = verify_program(&p);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].kernel(), "broken");
    }

    #[test]
    fn diagnostics_render_their_context() {
        let d = VerifyDiagnostic::DeadStore {
            kernel: "gemm".into(),
            buf: "c".into(),
            index: 7,
        };
        let s = d.to_string();
        assert!(s.contains("gemm") && s.contains("c[7]"), "{s}");
    }
}
