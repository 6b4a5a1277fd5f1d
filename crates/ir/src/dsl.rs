//! A small builder DSL for writing kernels in Rust.
//!
//! Free functions build [`Expr`]s and [`Stmt`]s; `Expr` implements the
//! arithmetic operators so kernel bodies read close to OpenCL C:
//!
//! ```
//! use prescaler_ir::dsl::*;
//! use prescaler_ir::{Access, Precision};
//!
//! // c[i] = a[i] * b[i] for a 1-D launch.
//! let k = kernel("mul")
//!     .buffer("a", Precision::Double, Access::Read)
//!     .buffer("b", Precision::Double, Access::Read)
//!     .buffer("c", Precision::Double, Access::Write)
//!     .body(vec![
//!         let_("i", global_id(0)),
//!         store("c", var("i"), load("a", var("i")) * load("b", var("i"))),
//!     ]);
//! assert_eq!(k.name, "mul");
//! ```

use crate::ast::{Access, Expr, Ident, Kernel, Param, Stmt, TypeRef};
use crate::types::Precision;
use crate::value::{CmpOp, FloatBinOp, UnaryFn};
use core::ops::{Add, Div, Mul, Neg, Sub};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// A polymorphic float literal.
#[must_use]
pub fn flit(v: f64) -> Expr {
    Expr::FloatConst(v)
}

/// An integer literal.
#[must_use]
pub fn int(v: i64) -> Expr {
    Expr::IntConst(v)
}

/// A variable reference.
#[must_use]
pub fn var(name: impl Into<Ident>) -> Expr {
    Expr::Var(name.into())
}

/// `get_global_id(dim)`.
#[must_use]
pub fn global_id(dim: usize) -> Expr {
    Expr::GlobalId(dim)
}

/// `buf[index]`.
#[must_use]
pub fn load(buf: impl Into<Ident>, index: Expr) -> Expr {
    Expr::Load {
        buf: buf.into(),
        index: Box::new(index),
    }
}

/// An explicit conversion to a float precision.
#[must_use]
pub fn cast(p: Precision, e: Expr) -> Expr {
    Expr::Cast {
        to: TypeRef::from(p),
        arg: Box::new(e),
    }
}

/// An explicit conversion to the element type of `buf`.
#[must_use]
pub fn cast_elem_of(buf: impl Into<Ident>, e: Expr) -> Expr {
    Expr::Cast {
        to: TypeRef::ElemOf(buf.into()),
        arg: Box::new(e),
    }
}

/// `sqrt(e)` at the operand's precision.
#[must_use]
pub fn sqrt(e: Expr) -> Expr {
    unary(UnaryFn::Sqrt, e)
}

/// `exp(e)` at the operand's precision.
#[must_use]
pub fn exp(e: Expr) -> Expr {
    unary(UnaryFn::Exp, e)
}

/// `fabs(e)`.
#[must_use]
pub fn fabs(e: Expr) -> Expr {
    unary(UnaryFn::Fabs, e)
}

/// Applies a unary function.
#[must_use]
pub fn unary(op: UnaryFn, e: Expr) -> Expr {
    Expr::Unary {
        op,
        arg: Box::new(e),
    }
}

/// A binary arithmetic operation.
#[must_use]
pub fn bin(op: FloatBinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// `min(lhs, rhs)`.
#[must_use]
pub fn min2(lhs: Expr, rhs: Expr) -> Expr {
    bin(FloatBinOp::Min, lhs, rhs)
}

/// `max(lhs, rhs)`.
#[must_use]
pub fn max2(lhs: Expr, rhs: Expr) -> Expr {
    bin(FloatBinOp::Max, lhs, rhs)
}

/// A comparison.
#[must_use]
pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Cmp {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// `lhs < rhs`.
#[must_use]
pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
    cmp(CmpOp::Lt, lhs, rhs)
}

/// `lhs > rhs`.
#[must_use]
pub fn gt(lhs: Expr, rhs: Expr) -> Expr {
    cmp(CmpOp::Gt, lhs, rhs)
}

/// `lhs <= rhs`.
#[must_use]
pub fn le(lhs: Expr, rhs: Expr) -> Expr {
    cmp(CmpOp::Le, lhs, rhs)
}

/// `cond ? then : els`.
#[must_use]
pub fn select(cond: Expr, then: Expr, els: Expr) -> Expr {
    Expr::Select {
        cond: Box::new(cond),
        then: Box::new(then),
        els: Box::new(els),
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        bin(FloatBinOp::Add, self, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        bin(FloatBinOp::Sub, self, rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        bin(FloatBinOp::Mul, self, rhs)
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        bin(FloatBinOp::Div, self, rhs)
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        unary(UnaryFn::Neg, self)
    }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// Declares a local with an inferred type.
#[must_use]
pub fn let_(name: impl Into<Ident>, value: Expr) -> Stmt {
    Stmt::Let {
        name: name.into(),
        ty: None,
        value,
    }
}

/// Declares a local with an explicit type (or `ElemOf` reference).
#[must_use]
pub fn let_ty(name: impl Into<Ident>, ty: impl Into<TypeRef>, value: Expr) -> Stmt {
    Stmt::Let {
        name: name.into(),
        ty: Some(ty.into()),
        value,
    }
}

/// Declares an accumulator local whose type follows `buf`'s element type.
#[must_use]
pub fn let_acc(name: impl Into<Ident>, buf: impl Into<Ident>, value: Expr) -> Stmt {
    Stmt::Let {
        name: name.into(),
        ty: Some(TypeRef::ElemOf(buf.into())),
        value,
    }
}

/// Reassigns a local.
#[must_use]
pub fn assign(name: impl Into<Ident>, value: Expr) -> Stmt {
    Stmt::Assign {
        name: name.into(),
        value,
    }
}

/// `name += value`.
#[must_use]
pub fn add_assign(name: impl Into<Ident> + Clone, value: Expr) -> Stmt {
    let n = name.clone().into();
    assign(name, var(n) + value)
}

/// `buf[index] = value`.
#[must_use]
pub fn store(buf: impl Into<Ident>, index: Expr, value: Expr) -> Stmt {
    Stmt::Store {
        buf: buf.into(),
        index,
        value,
    }
}

/// `for (long var = start; var < end; ++var) body`.
#[must_use]
pub fn for_(var: impl Into<Ident>, start: Expr, end: Expr, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        var: var.into(),
        start,
        end,
        body,
    }
}

/// `if (cond) { then_body }`.
#[must_use]
pub fn if_(cond: Expr, then_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body: Vec::new(),
    }
}

/// `if (cond) { then_body } else { else_body }`.
#[must_use]
pub fn if_else(cond: Expr, then_body: Vec<Stmt>, else_body: Vec<Stmt>) -> Stmt {
    Stmt::If {
        cond,
        then_body,
        else_body,
    }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// Starts building a kernel.
#[must_use]
pub fn kernel(name: impl Into<Ident>) -> KernelBuilder {
    KernelBuilder {
        name: name.into(),
        params: Vec::new(),
    }
}

/// Builder returned by [`kernel`].
#[derive(Debug)]
pub struct KernelBuilder {
    name: Ident,
    params: Vec<Param>,
}

impl KernelBuilder {
    /// Adds a buffer parameter.
    #[must_use]
    pub fn buffer(mut self, name: impl Into<Ident>, elem: Precision, access: Access) -> Self {
        self.params.push(Param::Buffer {
            name: name.into(),
            elem,
            access,
        });
        self
    }

    /// Adds an integer scalar parameter.
    #[must_use]
    pub fn int_param(mut self, name: impl Into<Ident>) -> Self {
        self.params.push(Param::Scalar {
            name: name.into(),
            ty: TypeRef::Concrete(crate::types::ScalarType::Int),
        });
        self
    }

    /// Adds a float scalar parameter whose precision tracks `buf`'s
    /// element type.
    #[must_use]
    pub fn float_param_like(mut self, name: impl Into<Ident>, buf: impl Into<Ident>) -> Self {
        self.params.push(Param::Scalar {
            name: name.into(),
            ty: TypeRef::ElemOf(buf.into()),
        });
        self
    }

    /// Adds a float scalar parameter with a fixed precision.
    #[must_use]
    pub fn float_param(mut self, name: impl Into<Ident>, p: Precision) -> Self {
        self.params.push(Param::Scalar {
            name: name.into(),
            ty: TypeRef::from(p),
        });
        self
    }

    /// Finishes the kernel with the given body.
    #[must_use]
    pub fn body(self, body: Vec<Stmt>) -> Kernel {
        Kernel {
            name: self.name,
            params: self.params,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ScalarType;

    #[test]
    fn operators_build_expected_trees() {
        let e = flit(1.0) + var("x") * int(2);
        match e {
            Expr::Bin {
                op: FloatBinOp::Add,
                rhs,
                ..
            } => match *rhs {
                Expr::Bin {
                    op: FloatBinOp::Mul,
                    ..
                } => {}
                other => panic!("expected Mul, got {other:?}"),
            },
            other => panic!("expected Add, got {other:?}"),
        }
        assert_eq!(-var("x"), unary(UnaryFn::Neg, var("x")));
    }

    #[test]
    fn add_assign_expands_to_self_reference() {
        let s = add_assign("acc", flit(1.0));
        assert_eq!(s, assign("acc", var("acc") + flit(1.0)));
    }

    #[test]
    fn builder_collects_params_in_order() {
        let k = kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .int_param("n")
            .float_param_like("alpha", "a")
            .float_param("beta", Precision::Single)
            .body(vec![]);
        assert_eq!(k.params.len(), 4);
        assert_eq!(k.params[0].name(), "a");
        assert_eq!(k.params[1].name(), "n");
        assert_eq!(
            k.resolve(match &k.params[2] {
                Param::Scalar { ty, .. } => ty,
                Param::Buffer { .. } => unreachable!(),
            }),
            Some(ScalarType::Float(Precision::Double))
        );
    }

    #[test]
    fn comparison_helpers() {
        assert_eq!(lt(int(1), int(2)), cmp(CmpOp::Lt, int(1), int(2)));
        assert_eq!(gt(int(1), int(2)), cmp(CmpOp::Gt, int(1), int(2)));
        assert_eq!(le(int(1), int(2)), cmp(CmpOp::Le, int(1), int(2)));
    }
}
