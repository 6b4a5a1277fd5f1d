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
//! * [`const_fold`] — integer constant folding and branch pruning (kept
//!   deliberately conservative: float literals are never pre-evaluated, as
//!   that would change which precision the operation executes in).
//! * [`infer_access`] — recomputes buffer access modes from the body.

use crate::ast::{visit_exprs, visit_stmts, Access, Expr, Kernel, Param, Stmt, TypeRef};
use crate::types::{Precision, ScalarType};
use crate::value::{FloatBinOp, UnaryFn};
use std::collections::{HashMap, HashSet};

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
/// * every `ElemOf(buf)` local/scalar-parameter/cast type is replaced by
///   the concrete compute precision;
/// * stores convert back to the buffer's element type implicitly (a real
///   conversion instruction, counted by interpreter and analysis alike).
#[must_use]
pub fn insert_casts(kernel: &Kernel, compute: &HashMap<String, Precision>) -> Kernel {
    let resolve_tr = |ty: &TypeRef| -> TypeRef {
        match ty {
            TypeRef::ElemOf(buf) => match compute.get(buf) {
                Some(p) => TypeRef::Concrete(ScalarType::Float(*p)),
                None => ty.clone(),
            },
            TypeRef::Concrete(_) => ty.clone(),
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

/// Conservative constant folding.
///
/// Folds integer arithmetic, integer comparisons, casts of integer
/// constants to `long`, `select`s with constant conditions, and prunes
/// `if`s with constant conditions. Float literals are **not** folded — the
/// precision an operation runs at is observable in this IR.
#[must_use]
pub fn const_fold(kernel: &Kernel) -> Kernel {
    fn fold_expr(e: &Expr) -> Expr {
        match e {
            Expr::Load { buf, index } => Expr::Load {
                buf: buf.clone(),
                index: Box::new(fold_expr(index)),
            },
            Expr::Unary { op, arg } => {
                let a = fold_expr(arg);
                if let (Expr::IntConst(x), UnaryFn::Neg) = (&a, op) {
                    return Expr::IntConst(x.wrapping_neg());
                }
                if let (Expr::IntConst(x), UnaryFn::Fabs) = (&a, op) {
                    return Expr::IntConst(x.wrapping_abs());
                }
                Expr::Unary {
                    op: *op,
                    arg: Box::new(a),
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = fold_expr(lhs);
                let r = fold_expr(rhs);
                if let (Expr::IntConst(x), Expr::IntConst(y)) = (&l, &r) {
                    return Expr::IntConst(op.apply_int(*x, *y));
                }
                // Identities that do not change float semantics: i + 0,
                // i * 1 on the integer side only.
                match (op, &l, &r) {
                    (FloatBinOp::Add, e, Expr::IntConst(0))
                    | (FloatBinOp::Add, Expr::IntConst(0), e)
                    | (FloatBinOp::Mul, e, Expr::IntConst(1))
                    | (FloatBinOp::Mul, Expr::IntConst(1), e)
                        if is_int_expr(e) =>
                    {
                        return e.clone()
                    }
                    _ => {}
                }
                Expr::Bin {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                }
            }
            Expr::Cmp { op, lhs, rhs } => Expr::Cmp {
                op: *op,
                lhs: Box::new(fold_expr(lhs)),
                rhs: Box::new(fold_expr(rhs)),
            },
            Expr::Cast { to, arg } => {
                let a = fold_expr(arg);
                if let (TypeRef::Concrete(ScalarType::Int), Expr::IntConst(x)) = (to, &a) {
                    return Expr::IntConst(*x);
                }
                Expr::Cast {
                    to: to.clone(),
                    arg: Box::new(a),
                }
            }
            Expr::Select { cond, then, els } => {
                let c = fold_expr(cond);
                let t = fold_expr(then);
                let e2 = fold_expr(els);
                if let Some(b) = known_bool(&c) {
                    return if b { t } else { e2 };
                }
                Expr::Select {
                    cond: Box::new(c),
                    then: Box::new(t),
                    els: Box::new(e2),
                }
            }
            other => other.clone(),
        }
    }

    fn fold_stmts(stmts: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Let { name, ty, value } => out.push(Stmt::Let {
                    name: name.clone(),
                    ty: ty.clone(),
                    value: fold_expr(value),
                }),
                Stmt::Assign { name, value } => out.push(Stmt::Assign {
                    name: name.clone(),
                    value: fold_expr(value),
                }),
                Stmt::Store { buf, index, value } => out.push(Stmt::Store {
                    buf: buf.clone(),
                    index: fold_expr(index),
                    value: fold_expr(value),
                }),
                Stmt::For {
                    var,
                    start,
                    end,
                    body,
                } => {
                    let s2 = fold_expr(start);
                    let e2 = fold_expr(end);
                    if let (Expr::IntConst(a), Expr::IntConst(b)) = (&s2, &e2) {
                        if a >= b {
                            continue; // dead loop
                        }
                    }
                    out.push(Stmt::For {
                        var: var.clone(),
                        start: s2,
                        end: e2,
                        body: fold_stmts(body),
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let c = fold_expr(cond);
                    match known_bool(&c) {
                        Some(true) => out.extend(fold_stmts(then_body)),
                        Some(false) => out.extend(fold_stmts(else_body)),
                        None => out.push(Stmt::If {
                            cond: c,
                            then_body: fold_stmts(then_body),
                            else_body: fold_stmts(else_body),
                        }),
                    }
                }
            }
        }
        out
    }

    let mut out = kernel.clone();
    out.body = fold_stmts(&kernel.body);
    out
}

/// A comparison whose value is statically known.
fn known_bool(e: &Expr) -> Option<bool> {
    if let Expr::Cmp { op, lhs, rhs } = e {
        if let (Expr::IntConst(x), Expr::IntConst(y)) = (lhs.as_ref(), rhs.as_ref()) {
            return Some(op.holds(*x, *y));
        }
    }
    None
}

fn is_int_expr(e: &Expr) -> bool {
    matches!(e, Expr::IntConst(_) | Expr::GlobalId(_))
}

/// Recomputes each buffer's access mode from the loads and stores that
/// actually appear in the body.
#[must_use]
pub fn infer_access(kernel: &Kernel) -> HashMap<String, Access> {
    let mut loads = HashSet::new();
    visit_exprs(&kernel.body, &mut |e| {
        if let Expr::Load { buf, .. } = e {
            loads.insert(buf.as_str());
        }
    });
    let mut stores = HashSet::new();
    visit_stmts(&kernel.body, &mut |s| {
        if let Stmt::Store { buf, .. } = s {
            stores.insert(buf.as_str());
        }
    });

    kernel
        .buffer_names()
        .into_iter()
        .map(|name| {
            let a = match (loads.contains(name), stores.contains(name)) {
                (true, true) => Access::ReadWrite,
                (false, true) => Access::Write,
                // Unreferenced buffers default to Read.
                _ => Access::Read,
            };
            (name.to_owned(), a)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::typeck::check_kernel;

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
    fn const_fold_folds_integer_arithmetic() {
        let k = kernel("f")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store("c", int(2) * int(3) + int(1), flit(1.0))]);
        let f = const_fold(&k);
        match &f.body[0] {
            Stmt::Store { index, .. } => assert_eq!(index, &Expr::IntConst(7)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_fold_prunes_dead_branches_and_loops() {
        let k = kernel("f")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![
                if_else(
                    lt(int(1), int(2)),
                    vec![store("c", int(0), flit(1.0))],
                    vec![store("c", int(0), flit(2.0))],
                ),
                if_(lt(int(2), int(1)), vec![store("c", int(1), flit(3.0))]),
                for_("i", int(5), int(5), vec![store("c", var("i"), flit(4.0))]),
            ]);
        let f = const_fold(&k);
        assert_eq!(f.body.len(), 1, "true-branch inlined, dead code dropped");
        match &f.body[0] {
            Stmt::Store { value, .. } => assert_eq!(value, &Expr::FloatConst(1.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_fold_never_touches_float_literals() {
        let k = kernel("f")
            .buffer("c", Precision::Half, Access::Write)
            .body(vec![store("c", int(0), flit(0.1) + flit(0.2))]);
        let f = const_fold(&k);
        match &f.body[0] {
            Stmt::Store { value, .. } => {
                assert!(matches!(value, Expr::Bin { .. }), "float add preserved");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn const_fold_select_with_known_condition() {
        let k = kernel("f")
            .buffer("c", Precision::Double, Access::Write)
            .body(vec![store(
                "c",
                int(0),
                select(lt(int(1), int(2)), flit(1.0), flit(2.0)),
            )]);
        let f = const_fold(&k);
        match &f.body[0] {
            Stmt::Store { value, .. } => assert_eq!(value, &Expr::FloatConst(1.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn infer_access_reflects_actual_usage() {
        let k = sample_kernel();
        let acc = infer_access(&k);
        assert_eq!(acc["a"], Access::Read);
        assert_eq!(acc["c"], Access::Write, "c is stored but never loaded");
    }

    #[test]
    fn folding_preserves_dynamic_behaviour() {
        use crate::array::FloatVec;
        use crate::interp::{run_kernel, BufferMap, Launch};
        let k = sample_kernel();
        let f = const_fold(&k);
        let n = 8usize;
        let run = |kk: &Kernel| {
            let mut bufs = BufferMap::new();
            let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
            bufs.insert("a".into(), FloatVec::from_f64_slice(&xs, Precision::Double));
            bufs.insert("c".into(), FloatVec::zeros(n, Precision::Double));
            let launch = Launch::one_d(n)
                .arg_float("alpha", 2.0)
                .arg_int("n", n as i64);
            run_kernel(kk, &mut bufs, &launch).unwrap();
            bufs.remove("c").unwrap()
        };
        assert_eq!(run(&k), run(&f));
    }
}
