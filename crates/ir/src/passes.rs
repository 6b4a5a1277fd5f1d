//! Compiler passes over kernels.
//!
//! These are the reproduction's equivalent of the paper's LLVM-level kernel
//! transformations:
//!
//! * [`retype_buffers`] — *memory-object scaling*: change buffer element
//!   precisions; every `ElemOf`-typed local and scalar parameter follows,
//!   so the kernel computes natively in the new precision with **no**
//!   conversion instructions (the PreScaler/PFP code shape).
//! * [`insert_casts`] — *in-kernel scaling*: keep buffer types, insert
//!   explicit conversions around loads and retype dependent locals, so the
//!   kernel computes in a lower precision but pays per-element conversion
//!   overhead (the Precimonious-style baseline's code shape).

use crate::ast::{Expr, Kernel, Param, Stmt, TypeRef};
use crate::types::{Precision, ScalarType};
use std::collections::HashMap;

/// Returns a copy of `kernel` whose named buffers use new element
/// precisions. Buffers absent from `map` are unchanged.
///
/// `ElemOf` references resolve against the new table automatically, so the
/// kernel stays well-typed — this is the whole point of the memory-object
/// scaling code shape.
#[must_use]
pub fn retype_buffers(kernel: &Kernel, map: &HashMap<String, Precision>) -> Kernel {
    let mut out = kernel.clone();
    for p in &mut out.params {
        if let Param::Buffer { name, elem, .. } = p {
            if let Some(new) = map.get(name) {
                *elem = *new;
            }
        }
    }
    out
}

/// Returns a copy of `kernel` transformed for *in-kernel* precision
/// scaling: buffer declarations keep their original element types, but the
/// computation on each buffer listed in `compute` happens at the given
/// precision via explicit conversions:
///
/// * every `Load` from a mapped buffer is wrapped in a `Cast` to the
///   compute precision;
/// * every `ElemOf(buf)` local/scalar-parameter/cast type, where `buf` is
///   a buffer parameter, is replaced by the concrete compute precision (a
///   dangling `ElemOf` stays, for the checker to report);
/// * stores convert back to the buffer's element type implicitly (a real
///   conversion instruction, counted by interpreter and analysis alike).
#[must_use]
pub fn insert_casts(kernel: &Kernel, compute: &HashMap<String, Precision>) -> Kernel {
    let resolve_tr = |ty: &TypeRef| -> TypeRef {
        match ty {
            TypeRef::ElemOf(buf) if kernel.buffer_elem(buf).is_some() => match compute.get(buf) {
                Some(p) => TypeRef::Concrete(ScalarType::Float(*p)),
                None => ty.clone(),
            },
            _ => ty.clone(),
        }
    };

    fn rewrite_expr(
        e: &Expr,
        kernel: &Kernel,
        compute: &HashMap<String, Precision>,
        resolve_tr: &dyn Fn(&TypeRef) -> TypeRef,
    ) -> Expr {
        let rec = |x: &Expr| rewrite_expr(x, kernel, compute, resolve_tr);
        match e {
            Expr::Load { buf, index } => {
                let load = Expr::Load {
                    buf: buf.clone(),
                    index: Box::new(rec(index)),
                };
                match compute.get(buf) {
                    Some(p) if Some(*p) != kernel.buffer_elem(buf) => Expr::Cast {
                        to: TypeRef::Concrete(ScalarType::Float(*p)),
                        arg: Box::new(load),
                    },
                    _ => load,
                }
            }
            Expr::Unary { op, arg } => Expr::Unary {
                op: *op,
                arg: Box::new(rec(arg)),
            },
            Expr::Bin { op, lhs, rhs } => Expr::Bin {
                op: *op,
                lhs: Box::new(rec(lhs)),
                rhs: Box::new(rec(rhs)),
            },
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(rec(lhs)),
                rhs: Box::new(rec(rhs)),
            },
            Expr::Cast { to, arg } => Expr::Cast {
                to: resolve_tr(to),
                arg: Box::new(rec(arg)),
            },
            Expr::Select { cond, then, els } => Expr::Select {
                cond: Box::new(rec(cond)),
                then: Box::new(rec(then)),
                els: Box::new(rec(els)),
            },
            other => other.clone(),
        }
    }

    fn rewrite_stmts(
        stmts: &[Stmt],
        kernel: &Kernel,
        compute: &HashMap<String, Precision>,
        resolve_tr: &dyn Fn(&TypeRef) -> TypeRef,
    ) -> Vec<Stmt> {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Let { name, ty, value } => Stmt::Let {
                    name: name.clone(),
                    ty: ty.as_ref().map(resolve_tr),
                    value: rewrite_expr(value, kernel, compute, resolve_tr),
                },
                Stmt::Assign { name, value } => Stmt::Assign {
                    name: name.clone(),
                    value: rewrite_expr(value, kernel, compute, resolve_tr),
                },
                Stmt::Store { buf, index, value } => Stmt::Store {
                    buf: buf.clone(),
                    index: rewrite_expr(index, kernel, compute, resolve_tr),
                    value: rewrite_expr(value, kernel, compute, resolve_tr),
                },
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                } => Stmt::For {
                    var: var.clone(),
                    start: rewrite_expr(start, kernel, compute, resolve_tr),
                    end: rewrite_expr(end, kernel, compute, resolve_tr),
                    body: rewrite_stmts(body, kernel, compute, resolve_tr),
                },
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => Stmt::If {
                    cond: rewrite_expr(cond, kernel, compute, resolve_tr),
                    then_body: rewrite_stmts(then_body, kernel, compute, resolve_tr),
                    else_body: rewrite_stmts(else_body, kernel, compute, resolve_tr),
                },
            })
            .collect()
    }

    let mut out = kernel.clone();
    for p in &mut out.params {
        if let Param::Scalar { ty, .. } = p {
            *ty = resolve_tr(ty);
        }
    }
    out.body = rewrite_stmts(&kernel.body, kernel, compute, &resolve_tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Access;
    use crate::dsl::*;
    use crate::typeck::check_kernel;
    use crate::verify::{verify_kernel, Severity};

    fn sample_kernel() -> Kernel {
        kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Double, Access::ReadWrite)
            .float_param_like("alpha", "a")
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                let_acc("acc", "c", flit(0.0)),
                for_(
                    "j",
                    int(0),
                    var("n"),
                    vec![add_assign("acc", load("a", var("j")) * var("alpha"))],
                ),
                store("c", var("i"), var("acc")),
            ])
    }

    #[test]
    fn retype_changes_buffers_and_keeps_kernel_well_typed() {
        let k = sample_kernel();
        let map = HashMap::from([("a".to_owned(), Precision::Half)]);
        let r = retype_buffers(&k, &map);
        assert_eq!(r.buffer_elem("a"), Some(Precision::Half));
        assert_eq!(r.buffer_elem("c"), Some(Precision::Double));
        check_kernel(&r).unwrap();
        // alpha tracks `a` and now resolves to half.
        let alpha_ty = match r.param("alpha").unwrap() {
            Param::Scalar { ty, .. } => r.resolve(ty).unwrap(),
            Param::Buffer { .. } => unreachable!(),
        };
        assert_eq!(alpha_ty, ScalarType::Float(Precision::Half));
    }

    #[test]
    fn insert_casts_keeps_buffer_types_but_lowers_compute() {
        let k = sample_kernel();
        let map = HashMap::from([
            ("a".to_owned(), Precision::Half),
            ("c".to_owned(), Precision::Half),
        ]);
        let t = insert_casts(&k, &map);
        check_kernel(&t).unwrap();
        // Buffers stay double (data layout unchanged)…
        assert_eq!(t.buffer_elem("a"), Some(Precision::Double));
        assert_eq!(t.buffer_elem("c"), Some(Precision::Double));
        // …but loads are wrapped in casts to half.
        let mut cast_loads = 0;
        crate::ast::visit_exprs(&t.body, &mut |e| {
            if let Expr::Cast { to, arg } = e {
                if matches!(arg.as_ref(), Expr::Load { .. }) {
                    assert_eq!(
                        t.resolve(to),
                        Some(ScalarType::Float(Precision::Half)),
                        "loads cast to the compute precision"
                    );
                    cast_loads += 1;
                }
            }
        });
        assert_eq!(cast_loads, 1);
        // The accumulator's ElemOf(c) became concrete half.
        match &t.body[1] {
            Stmt::Let { ty: Some(ty), .. } => {
                assert_eq!(ty, &TypeRef::Concrete(ScalarType::Float(Precision::Half)));
            }
            other => panic!("expected typed let, got {other:?}"),
        }
    }

    #[test]
    fn insert_casts_is_identity_when_precisions_match() {
        let k = sample_kernel();
        let map = HashMap::from([("a".to_owned(), Precision::Double)]);
        let t = insert_casts(&k, &map);
        let mut casts = 0;
        crate::ast::visit_exprs(&t.body, &mut |e| {
            if matches!(e, Expr::Cast { .. }) {
                casts += 1;
            }
        });
        assert_eq!(casts, 0, "no-op scaling inserts no conversions");
    }

    #[test]
    fn a_compute_map_keeps_a_dangling_elem_of() {
        // `ghost` names no buffer, so `alpha`'s type dangles. A map naming
        // `ghost` must not make it concrete: the cast kernel fails the
        // checker as the kernel does.
        let k = kernel("k")
            .buffer("a", Precision::Double, Access::ReadWrite)
            .float_param_like("alpha", "ghost")
            .body(vec![store(
                "a",
                global_id(0),
                var("alpha") * load("a", global_id(0)),
            )]);
        let map = HashMap::from([
            ("a".to_owned(), Precision::Half),
            ("ghost".to_owned(), Precision::Half),
        ]);
        let t = insert_casts(&k, &map);
        assert_eq!(check_kernel(&t), check_kernel(&k));
        assert!(
            verify_kernel(&t)
                .iter()
                .any(|d| d.severity() == Severity::Error),
            "{:?}",
            verify_kernel(&t)
        );
    }
}
