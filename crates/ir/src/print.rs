//! Pretty-printing of kernels as OpenCL-C-like source.
//!
//! This is the human-readable face of the reproduction's "code generation":
//! the decision maker's chosen configuration can be rendered as the kernel
//! source PreScaler's LLVM backend would have emitted.

use crate::ast::{Access, Expr, Kernel, Param, Program, Stmt, TypeRef};
use crate::value::{FloatBinOp, UnaryFn};
use core::fmt::Write as _;

/// Renders a whole program.
#[must_use]
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// program: {}", program.name);
    for k in &program.kernels {
        out.push('\n');
        out.push_str(&kernel_to_string(k));
    }
    out
}

/// Renders one kernel as OpenCL-C-like source.
///
/// ```
/// use prescaler_ir::dsl::*;
/// use prescaler_ir::{print::kernel_to_string, Access, Precision};
///
/// let k = kernel("scale")
///     .buffer("x", Precision::Single, Access::ReadWrite)
///     .body(vec![
///         let_("i", global_id(0)),
///         store("x", var("i"), load("x", var("i")) * flit(2.0)),
///     ]);
/// let src = kernel_to_string(&k);
/// assert!(src.contains("__kernel void scale"));
/// assert!(src.contains("x[i] = (x[i] * 2.0)"));
/// ```
#[must_use]
pub fn kernel_to_string(kernel: &Kernel) -> String {
    let mut out = String::new();
    let _ = write!(out, "__kernel void {}(", kernel.name);
    let params: Vec<String> = kernel
        .params
        .iter()
        .map(|p| match p {
            Param::Buffer { name, elem, access } => {
                let qual = match access {
                    Access::Read => "const __global",
                    _ => "__global",
                };
                format!("{qual} {elem}* {name}")
            }
            Param::Scalar { name, ty } => {
                format!("{} {}", type_ref(kernel, ty), name)
            }
        })
        .collect();
    let _ = write!(out, "{}", params.join(", "));
    out.push_str(") {\n");
    block(&mut out, &kernel.body, 1, kernel);
    out.push_str("}\n");
    out
}

/// Formats a float literal so it lexes back as a float (`2` → `2.0`).
fn float_literal(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'n', 'i']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn type_ref(kernel: &Kernel, ty: &TypeRef) -> String {
    // Print the *resolved* type: that is what generated source contains.
    // A dangling `ElemOf` (a malformed kernel) prints as written.
    match kernel.resolve(ty) {
        Some(t) => t.to_string(),
        None => format!("{ty:?}"),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn block(out: &mut String, stmts: &[Stmt], depth: usize, kernel: &Kernel) {
    for s in stmts {
        stmt(out, s, depth, kernel);
    }
}

fn stmt(out: &mut String, s: &Stmt, depth: usize, kernel: &Kernel) {
    indent(out, depth);
    match s {
        Stmt::Let { name, ty, value } => {
            let t = match ty {
                Some(t) => type_ref(kernel, t),
                None => "auto".to_owned(),
            };
            let _ = writeln!(out, "{t} {name} = {};", expr(value, kernel));
        }
        Stmt::Assign { name, value } => {
            let _ = writeln!(out, "{name} = {};", expr(value, kernel));
        }
        Stmt::Store { buf, index, value } => {
            let _ = writeln!(
                out,
                "{buf}[{}] = {};",
                expr(index, kernel),
                expr(value, kernel)
            );
        }
        Stmt::For {
            var,
            start,
            end,
            body,
        } => {
            let _ = writeln!(
                out,
                "for (long {var} = {}; {var} < {}; ++{var}) {{",
                expr(start, kernel),
                expr(end, kernel)
            );
            block(out, body, depth + 1, kernel);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "if ({}) {{", expr(cond, kernel));
            block(out, then_body, depth + 1, kernel);
            indent(out, depth);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                block(out, else_body, depth + 1, kernel);
                indent(out, depth);
                out.push_str("}\n");
            }
        }
    }
}

fn expr(e: &Expr, kernel: &Kernel) -> String {
    match e {
        Expr::FloatConst(v) => float_literal(*v),
        Expr::IntConst(v) => format!("{v}"),
        Expr::Var(n) => n.clone(),
        Expr::GlobalId(d) => format!("get_global_id({d})"),
        Expr::Load { buf, index } => format!("{buf}[{}]", expr(index, kernel)),
        Expr::Unary { op, arg } => match op {
            UnaryFn::Neg => format!("(-{})", expr(arg, kernel)),
            _ => format!("{}({})", op.c_name(), expr(arg, kernel)),
        },
        Expr::Bin { op, lhs, rhs } => match op {
            FloatBinOp::Min | FloatBinOp::Max => format!(
                "{}({}, {})",
                op.c_symbol(),
                expr(lhs, kernel),
                expr(rhs, kernel)
            ),
            _ => format!(
                "({} {} {})",
                expr(lhs, kernel),
                op.c_symbol(),
                expr(rhs, kernel)
            ),
        },
        Expr::Cmp { op, lhs, rhs } => format!(
            "({} {} {})",
            expr(lhs, kernel),
            op.c_symbol(),
            expr(rhs, kernel)
        ),
        Expr::Cast { to, arg } => format!("({})({})", type_ref(kernel, to), expr(arg, kernel)),
        Expr::Select { cond, then, els } => format!(
            "({} ? {} : {})",
            expr(cond, kernel),
            expr(then, kernel),
            expr(els, kernel)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::types::Precision;

    #[test]
    fn kernel_header_lists_qualified_params() {
        let k = kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Half, Access::Write)
            .int_param("n")
            .float_param_like("alpha", "c")
            .body(vec![]);
        let src = kernel_to_string(&k);
        assert!(src.contains("const __global double* a"), "{src}");
        assert!(src.contains("__global half* c"), "{src}");
        assert!(src.contains("long n"), "{src}");
        assert!(src.contains("half alpha"), "{src}");
    }

    #[test]
    fn statements_render_structurally() {
        let k = kernel("k")
            .buffer("c", Precision::Single, Access::ReadWrite)
            .int_param("n")
            .body(vec![
                let_("i", global_id(0)),
                if_else(
                    lt(var("i"), var("n")),
                    vec![for_(
                        "j",
                        int(0),
                        var("n"),
                        vec![store("c", var("j"), sqrt(load("c", var("j"))))],
                    )],
                    vec![store("c", var("i"), flit(0.0))],
                ),
            ]);
        let src = kernel_to_string(&k);
        assert!(src.contains("if ((i < n)) {"), "{src}");
        assert!(src.contains("for (long j = 0; j < n; ++j) {"), "{src}");
        assert!(src.contains("c[j] = sqrt(c[j]);"), "{src}");
        assert!(src.contains("} else {"), "{src}");
    }

    #[test]
    fn casts_print_resolved_types() {
        let k = kernel("k")
            .buffer("a", Precision::Double, Access::Read)
            .buffer("c", Precision::Half, Access::Write)
            .body(vec![store(
                "c",
                int(0),
                cast_elem_of("c", load("a", int(0))),
            )]);
        let src = kernel_to_string(&k);
        assert!(src.contains("(half)(a[0])"), "{src}");
    }

    #[test]
    fn program_rendering_includes_all_kernels() {
        let p = crate::ast::Program::new("prog")
            .with_kernel(kernel("k1").body(vec![]))
            .with_kernel(kernel("k2").body(vec![]));
        let src = program_to_string(&p);
        assert!(src.contains("__kernel void k1"));
        assert!(src.contains("__kernel void k2"));
        assert!(src.contains("// program: prog"));
    }

    #[test]
    fn dangling_elem_of_prints_as_written() {
        let k = kernel("k")
            .buffer("c", Precision::Half, Access::Write)
            .body(vec![store("c", int(0), cast_elem_of("ghost", flit(1.0)))]);
        let src = kernel_to_string(&k);
        assert!(src.contains(r#"(ElemOf("ghost"))(1.0)"#), "{src}");
    }

    #[test]
    fn min_max_print_as_calls() {
        let k = kernel("k")
            .buffer("c", Precision::Double, Access::ReadWrite)
            .body(vec![store("c", int(0), max2(load("c", int(0)), flit(1.0)))]);
        let src = kernel_to_string(&k);
        assert!(src.contains("max(c[0], 1.0)"), "{src}");
    }
}
