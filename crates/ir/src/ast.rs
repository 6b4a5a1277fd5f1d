//! Abstract syntax of the kernel IR.
//!
//! The IR models OpenCL C kernels closely enough that the paper's LLVM-level
//! precision transformations have direct equivalents: buffer parameters with
//! an element precision, scalar parameters, structured loops and branches,
//! loads/stores, float arithmetic, explicit `convert_*` casts, and
//! polymorphic float literals (which adopt the precision of their context,
//! as C literals do under implicit conversion).

use crate::types::{Precision, ScalarType};
use crate::value::{CmpOp, FloatBinOp, UnaryFn};
use std::collections::HashSet;

/// Identifier for kernel parameters, locals and loop variables.
pub type Ident = String;

/// How a kernel accesses a buffer parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Only loaded from.
    Read,
    /// Only stored to.
    Write,
    /// Both loaded and stored.
    ReadWrite,
}

impl Access {
    /// `true` if loads are allowed.
    #[must_use]
    pub const fn readable(self) -> bool {
        matches!(self, Access::Read | Access::ReadWrite)
    }

    /// `true` if stores are allowed.
    #[must_use]
    pub const fn writable(self) -> bool {
        matches!(self, Access::Write | Access::ReadWrite)
    }
}

/// A type annotation that may refer to a buffer's element type.
///
/// `ElemOf` is how kernels keep accumulator locals and scalar parameters in
/// lock-step with the precision of the memory objects they feed: when the
/// retype pass changes a buffer's element precision, every `ElemOf` use
/// follows automatically — the same effect as the paper's LLVM pass
/// rewriting dependent value types.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// A fixed scalar type.
    Concrete(ScalarType),
    /// The element type of the named buffer parameter.
    ElemOf(Ident),
}

impl From<ScalarType> for TypeRef {
    fn from(t: ScalarType) -> TypeRef {
        TypeRef::Concrete(t)
    }
}

impl From<Precision> for TypeRef {
    fn from(p: Precision) -> TypeRef {
        TypeRef::Concrete(ScalarType::Float(p))
    }
}

/// A kernel parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum Param {
    /// A global-memory buffer of floats.
    Buffer {
        /// Parameter name.
        name: Ident,
        /// Element precision.
        elem: Precision,
        /// Declared access mode.
        access: Access,
    },
    /// A scalar argument (problem sizes, alpha/beta coefficients, …).
    Scalar {
        /// Parameter name.
        name: Ident,
        /// Type, possibly tied to a buffer's element type.
        ty: TypeRef,
    },
}

impl Param {
    /// The parameter's name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Param::Buffer { name, .. } | Param::Scalar { name, .. } => name,
        }
    }
}

/// An expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A polymorphic float literal: adopts the precision of its context
    /// (binop sibling, declared local type, or stored-to buffer), defaulting
    /// to double when unconstrained — like a C literal under implicit
    /// conversion.
    FloatConst(f64),
    /// An integer literal.
    IntConst(i64),
    /// A local variable, loop variable, or scalar parameter.
    Var(Ident),
    /// `get_global_id(dim)`.
    GlobalId(usize),
    /// `buf[index]` — yields the buffer's element type.
    Load {
        /// Buffer parameter name.
        buf: Ident,
        /// Element index (integer expression).
        index: Box<Expr>,
    },
    /// A unary math operation at the operand's precision.
    Unary {
        /// The function.
        op: UnaryFn,
        /// Operand.
        arg: Box<Expr>,
    },
    /// A binary arithmetic operation at the promoted operand precision.
    Bin {
        /// The operator.
        op: FloatBinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A comparison, yielding `bool`.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// An explicit conversion (`convert_half(x)`, `(double)x`, `(long)x`).
    Cast {
        /// Target type (`Bool` is not permitted).
        to: TypeRef,
        /// Operand.
        arg: Box<Expr>,
    },
    /// `cond ? then : els`, operands promoted like a binary op.
    Select {
        /// Condition (boolean expression).
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
}

impl Expr {
    /// Whether this expression's float precision is still decided by its
    /// context: a float literal, or unary, binary and select arithmetic over
    /// nothing but such literals (the type checker's `WeakFloat`).
    #[must_use]
    pub(crate) fn is_weak(&self) -> bool {
        match self {
            Expr::FloatConst(_) => true,
            Expr::Unary { arg, .. } => arg.is_weak(),
            Expr::Bin { lhs, rhs, .. } => lhs.is_weak() && rhs.is_weak(),
            Expr::Select { then, els, .. } => then.is_weak() && els.is_weak(),
            _ => false,
        }
    }
}

/// Evaluates the two operands of a binary node in the order, and with the
/// precision hints, the type checker's promotion implies: a weak operand
/// (see [`Expr::is_weak`]) beside a strong one is evaluated second, at the
/// strong side's precision; otherwise both get the context's `hint`, left
/// first. The interpreter and the VM compiler share this so that they
/// resolve literals, and meet a failing load, in the same order.
pub(crate) fn eval_operands<'k, T, E>(
    lhs: &'k Expr,
    rhs: &'k Expr,
    hint: Option<Precision>,
    mut eval: impl FnMut(&'k Expr, Option<Precision>) -> Result<T, E>,
    precision: impl Fn(&T) -> Option<Precision>,
) -> Result<(T, T), E> {
    match (lhs.is_weak(), rhs.is_weak()) {
        (true, false) => {
            let b = eval(rhs, hint)?;
            let a = eval(lhs, precision(&b))?;
            Ok((a, b))
        }
        (false, true) => {
            let a = eval(lhs, hint)?;
            let b = eval(rhs, precision(&a))?;
            Ok((a, b))
        }
        _ => {
            let a = eval(lhs, hint)?;
            let b = eval(rhs, hint)?;
            Ok((a, b))
        }
    }
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// Declares (and initializes) a local variable.
    Let {
        /// Variable name.
        name: Ident,
        /// Declared type; inferred from `value` when `None`.
        ty: Option<TypeRef>,
        /// Initializer.
        value: Expr,
    },
    /// Reassigns an existing local (converts to its declared type).
    Assign {
        /// Variable name.
        name: Ident,
        /// New value.
        value: Expr,
    },
    /// `buf[index] = value` — converts to the buffer's element type.
    Store {
        /// Buffer parameter name.
        buf: Ident,
        /// Element index.
        index: Expr,
        /// Stored value.
        value: Expr,
    },
    /// `for (long var = start; var < end; ++var) body`.
    For {
        /// Loop variable (scoped to the body).
        var: Ident,
        /// Inclusive start (integer expression).
        start: Expr,
        /// Exclusive end (integer expression).
        end: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) { then } else { els }`.
    If {
        /// Condition.
        cond: Expr,
        /// True branch.
        then_body: Vec<Stmt>,
        /// False branch (may be empty).
        else_body: Vec<Stmt>,
    },
}

/// A kernel: name, parameters, and a structured body executed once per
/// work-item of the launch NDRange.
#[derive(Clone, Debug, PartialEq)]
pub struct Kernel {
    /// Kernel name (unique within a [`Program`]).
    pub name: Ident,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

impl Kernel {
    /// Looks up a parameter by name.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&Param> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// The element precision of the named buffer parameter.
    #[must_use]
    pub fn buffer_elem(&self, name: &str) -> Option<Precision> {
        match self.param(name)? {
            Param::Buffer { elem, .. } => Some(*elem),
            Param::Scalar { .. } => None,
        }
    }

    /// Resolves a [`TypeRef`] against this kernel's parameter table, or
    /// `None` for an `ElemOf` that names no buffer parameter (the type
    /// checker rejects such kernels; walkers that may see one anyway report
    /// it in their own terms).
    #[must_use]
    pub fn resolve(&self, ty: &TypeRef) -> Option<ScalarType> {
        match ty {
            TypeRef::Concrete(t) => Some(*t),
            TypeRef::ElemOf(buf) => self.buffer_elem(buf).map(ScalarType::Float),
        }
    }

    /// Names of all buffer parameters, in declaration order.
    #[must_use]
    pub fn buffer_names(&self) -> Vec<&str> {
        self.params
            .iter()
            .filter_map(|p| match p {
                Param::Buffer { name, .. } => Some(name.as_str()),
                Param::Scalar { .. } => None,
            })
            .collect()
    }
}

/// A program: an ordered collection of kernels that a host application
/// launches (possibly several times each).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Program {
    /// Program name (used in reports).
    pub name: Ident,
    /// The kernels.
    pub kernels: Vec<Kernel>,
}

impl Program {
    /// Creates an empty program.
    #[must_use]
    pub fn new(name: impl Into<Ident>) -> Program {
        Program {
            name: name.into(),
            kernels: Vec::new(),
        }
    }

    /// Adds a kernel, returning `self` for chaining.
    #[must_use]
    pub fn with_kernel(mut self, kernel: Kernel) -> Program {
        self.kernels.push(kernel);
        self
    }

    /// Looks up a kernel by name.
    #[must_use]
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Calls `f` on `e` and on every sub-expression, depth-first, parents
/// before children, operands left to right.
pub fn visit_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::FloatConst(_) | Expr::IntConst(_) | Expr::Var(_) | Expr::GlobalId(_) => {}
        Expr::Load { index, .. } => visit_expr(index, f),
        Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => visit_expr(arg, f),
        Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        Expr::Select { cond, then, els } => {
            visit_expr(cond, f);
            visit_expr(then, f);
            visit_expr(els, f);
        }
    }
}

/// Calls `f` on every statement of a statement list, nested loop and
/// branch bodies included, depth-first in program order.
pub fn visit_stmts<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        match s {
            Stmt::Let { .. } | Stmt::Assign { .. } | Stmt::Store { .. } => {}
            Stmt::For { body, .. } => visit_stmts(body, f),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                visit_stmts(then_body, f);
                visit_stmts(else_body, f);
            }
        }
    }
}

/// Calls `f` on every expression in a statement list (see [`visit_expr`]),
/// in program order.
pub fn visit_exprs<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Expr)) {
    visit_stmts(stmts, &mut |s| match s {
        Stmt::Let { value, .. } | Stmt::Assign { value, .. } => visit_expr(value, f),
        Stmt::Store { index, value, .. } => {
            visit_expr(index, f);
            visit_expr(value, f);
        }
        Stmt::For { start, end, .. } => {
            visit_expr(start, f);
            visit_expr(end, f);
        }
        Stmt::If { cond, .. } => visit_expr(cond, f),
    });
}

/// Names assigned (not `let`-bound) anywhere in `stmts`, nested bodies
/// included.
pub(crate) fn assigned_vars(stmts: &[Stmt]) -> HashSet<&str> {
    let mut out = HashSet::new();
    visit_stmts(stmts, &mut |s| {
        if let Stmt::Assign { name, .. } = s {
            out.insert(name.as_str());
        }
    });
    out
}

/// Lexical scopes of an AST walker: a stack of name → `V` maps, innermost
/// last. The root scope is never popped, so a binding always has a frame
/// to land in. What a name means when no scope binds it (a parameter, an
/// error) is the walker's own rule. A frame holds a handful of names, so
/// it is a list searched in order: cheaper than hashing every lookup.
#[derive(Clone)]
pub(crate) struct Scopes<'k, V> {
    frames: Vec<Vec<(&'k str, V)>>,
}

/// The binding of `name` in one frame.
fn slot<'f, V>(frame: &'f mut [(&str, V)], name: &str) -> Option<&'f mut V> {
    frame.iter_mut().find(|(n, _)| *n == name).map(|(_, v)| v)
}

/// Binds `name` in one frame, returning the binding it replaced there.
fn insert<'k, V>(frame: &mut Vec<(&'k str, V)>, name: &'k str, v: V) -> Option<V> {
    match slot(frame, name) {
        Some(old) => Some(std::mem::replace(old, v)),
        None => {
            frame.push((name, v));
            None
        }
    }
}

impl<'k, V> Scopes<'k, V> {
    /// A stack holding one empty root scope.
    pub(crate) fn new() -> Self {
        Scopes {
            frames: vec![Vec::new()],
        }
    }

    /// Back to one empty root scope.
    pub(crate) fn reset(&mut self) {
        self.frames.truncate(1);
        self.frames[0].clear();
    }

    /// Opens a nested scope.
    pub(crate) fn push(&mut self) {
        self.frames.push(Vec::new());
    }

    /// Closes the innermost scope; the root scope stays.
    pub(crate) fn pop(&mut self) {
        if self.frames.len() > 1 {
            self.frames.pop();
        }
    }

    /// The innermost binding of `name`.
    pub(crate) fn get(&self, name: &str) -> Option<&V> {
        self.frames
            .iter()
            .rev()
            .find_map(|f| f.iter().find(|(n, _)| *n == name).map(|(_, v)| v))
    }

    /// The innermost binding of `name`, mutably.
    pub(crate) fn get_mut(&mut self, name: &str) -> Option<&mut V> {
        self.frames.iter_mut().rev().find_map(|f| slot(f, name))
    }

    /// Binds `name` in the innermost scope, returning the binding it
    /// replaced in that same scope (shadowed outer bindings stay).
    pub(crate) fn bind(&mut self, name: &'k str, v: V) -> Option<V> {
        let top = self.frames.len() - 1;
        insert(&mut self.frames[top], name, v)
    }

    /// Binds `name` in the root scope.
    pub(crate) fn bind_root(&mut self, name: &'k str, v: V) -> Option<V> {
        insert(&mut self.frames[0], name, v)
    }

    /// Merges `other`, grown from the same pre-state and popped back to the
    /// same depth, into `self` frame by frame: a name bound on both sides
    /// is combined by `join`, one bound only in `other` is copied over.
    pub(crate) fn join(&mut self, other: &Self, mut join: impl FnMut(&mut V, &V))
    where
        V: Clone,
    {
        for (mine, theirs) in self.frames.iter_mut().zip(&other.frames) {
            for (name, v) in theirs {
                match slot(mine, name) {
                    Some(s) => join(s, v),
                    None => mine.push((name, v.clone())),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;

    #[test]
    fn access_predicates() {
        assert!(Access::Read.readable() && !Access::Read.writable());
        assert!(!Access::Write.readable() && Access::Write.writable());
        assert!(Access::ReadWrite.readable() && Access::ReadWrite.writable());
    }

    #[test]
    fn kernel_lookup_and_resolution() {
        let k = Kernel {
            name: "k".into(),
            params: vec![
                Param::Buffer {
                    name: "a".into(),
                    elem: Precision::Single,
                    access: Access::Read,
                },
                Param::Scalar {
                    name: "alpha".into(),
                    ty: TypeRef::ElemOf("a".into()),
                },
            ],
            body: vec![],
        };
        assert_eq!(k.buffer_elem("a"), Some(Precision::Single));
        assert_eq!(k.buffer_elem("alpha"), None);
        assert_eq!(
            k.resolve(&TypeRef::ElemOf("a".into())),
            Some(ScalarType::Float(Precision::Single))
        );
        assert_eq!(k.buffer_names(), vec!["a"]);
        assert!(k.param("missing").is_none());
    }

    #[test]
    fn resolving_elem_of_non_buffer_is_none() {
        let k = Kernel {
            name: "k".into(),
            params: vec![],
            body: vec![],
        };
        assert_eq!(k.resolve(&TypeRef::ElemOf("ghost".into())), None);
    }

    #[test]
    fn program_kernel_lookup() {
        let p = Program::new("prog").with_kernel(Kernel {
            name: "a".into(),
            params: vec![],
            body: vec![],
        });
        assert!(p.kernel("a").is_some());
        assert!(p.kernel("b").is_none());
    }

    #[test]
    fn visit_exprs_reaches_nested_expressions() {
        let body = vec![for_(
            "i",
            int(0),
            var("n"),
            vec![store("c", var("i"), load("a", var("i")) + flit(1.0))],
        )];
        let mut loads = 0;
        let mut consts = 0;
        visit_exprs(&body, &mut |e| match e {
            Expr::Load { .. } => loads += 1,
            Expr::FloatConst(_) | Expr::IntConst(_) => consts += 1,
            _ => {}
        });
        assert_eq!(loads, 1);
        assert_eq!(consts, 2); // int(0) and flit(1.0)
    }
}
