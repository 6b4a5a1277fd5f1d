//! Golden results of the kernel checker on kernels with several defects
//! each: the exact `check_kernel` message (the first type-rule violation)
//! and the exact `verify_kernel` vector, order included.
//!
//! A session's `OclError::Verify` message joins the verifier's
//! error-severity diagnostics in order, so these pin what a refused
//! launch reports.
//! Each kernel mixes defects that the two views see differently: a
//! violation the type checker stops at before descending, a diagnostic
//! only the verifier reports, a name bound by a `let` the type checker
//! refuses, and the rule that a type violation surfaces as a `TypeClash`
//! only when no error-severity diagnostic came before it.

use prescaler_ir::dsl::*;
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::{verify_kernel, Access, Kernel, Precision, Stmt, VerifyDiagnostic};

/// Two buffers and an integer parameter.
fn base(name: &str) -> KernelBuilder {
    kernel(name)
        .buffer("a", Precision::Double, Access::Read)
        .buffer("c", Precision::Double, Access::ReadWrite)
        .int_param("n")
}

/// A clean body that uses every parameter of [`base`].
fn use_all() -> Vec<Stmt> {
    vec![
        let_("i", global_id(0)),
        if_(
            lt(var("i"), var("n")),
            vec![store("c", var("i"), load("a", var("i")) + flit(1.0))],
        ),
    ]
}

/// [`use_all`] followed by `defects`.
fn with(name: &str, defects: Vec<Stmt>) -> Kernel {
    let mut body = use_all();
    body.extend(defects);
    base(name).body(body)
}

fn unbound(kernel: &str, name: &str) -> VerifyDiagnostic {
    VerifyDiagnostic::UnboundVar {
        kernel: kernel.into(),
        name: name.into(),
    }
}

fn oob(kernel: &str, buf: &str, index: i64) -> VerifyDiagnostic {
    VerifyDiagnostic::OobConstIndex {
        kernel: kernel.into(),
        buf: buf.into(),
        index,
    }
}

fn dead(kernel: &str, buf: &str, index: i64) -> VerifyDiagnostic {
    VerifyDiagnostic::DeadStore {
        kernel: kernel.into(),
        buf: buf.into(),
        index,
    }
}

fn unused(kernel: &str, param: &str) -> VerifyDiagnostic {
    VerifyDiagnostic::UnusedParam {
        kernel: kernel.into(),
        param: param.into(),
    }
}

fn non_buffer(kernel: &str, name: &str) -> VerifyDiagnostic {
    VerifyDiagnostic::NonBufferStore {
        kernel: kernel.into(),
        name: name.into(),
    }
}

fn clash(kernel: &str, message: &str) -> VerifyDiagnostic {
    VerifyDiagnostic::TypeClash {
        kernel: kernel.into(),
        detail: type_error(kernel, message),
    }
}

/// The text of a `TypeError` in `kernel`.
fn type_error(kernel: &str, message: &str) -> String {
    format!("type error in kernel `{kernel}`: {message}")
}

/// Asserts `k`'s type-check outcome (`None` = well-typed) and its
/// verifier diagnostics.
fn assert_golden(k: &Kernel, first_violation: Option<&str>, diagnostics: &[VerifyDiagnostic]) {
    let want = first_violation.map_or(Ok(()), |m| Err(type_error(&k.name, m)));
    assert_eq!(
        check_kernel(k).map_err(|e| e.to_string()),
        want,
        "{}",
        k.name
    );
    assert_eq!(verify_kernel(k), diagnostics, "{}", k.name);
}

#[test]
fn unbound_names_report_before_negative_indices_in_one_expression() {
    // The negative index comes first in the expression, the unbound name
    // second; the verifier reports the name first.
    let k = with(
        "neg_load",
        vec![let_(
            "x",
            load("a", int(0) - int(3)) + load("c", var("ghost")),
        )],
    );
    assert_golden(
        &k,
        Some("unbound variable `ghost`"),
        &[unbound("neg_load", "ghost"), oob("neg_load", "a", -3)],
    );
}

#[test]
fn a_stores_target_reports_before_its_index_and_value() {
    let k = with(
        "neg_store",
        vec![store(
            "c",
            int(-2),
            load("a", -int(1)) + var("ghost") * load("a", var("lost")),
        )],
    );
    assert_golden(
        &k,
        Some("unbound variable `ghost`"),
        &[
            oob("neg_store", "c", -2),
            unbound("neg_store", "ghost"),
            unbound("neg_store", "lost"),
            oob("neg_store", "a", -1),
        ],
    );
}

#[test]
fn a_dead_store_then_a_store_through_a_scalar() {
    let k = with(
        "dead_scalar",
        vec![
            store("c", int(0), flit(1.0)),
            store("c", int(0), flit(2.0)),
            store("n", int(0), flit(1.0)),
        ],
    );
    assert_golden(
        &k,
        Some("store to unknown buffer `n`"),
        &[dead("dead_scalar", "c", 0), non_buffer("dead_scalar", "n")],
    );
}

#[test]
fn an_unbound_assignment_masks_a_float_loop_bound() {
    let k = with(
        "float_bound",
        vec![
            assign("ghost", flit(1.0)),
            for_("j", int(0), flit(4.0), vec![]),
        ],
    );
    assert_golden(
        &k,
        Some("assignment to undeclared `ghost`"),
        &[unbound("float_bound", "ghost")],
    );
}

#[test]
fn a_let_that_shadows_a_parameter_binds_it_and_is_redeclared() {
    // The type checker stops at the shadowing `let`; the verifier binds
    // it, so the uses below read the local and parameter `n` goes unused.
    let mut body = vec![let_("n", int(0)), let_("n", int(1))];
    body.extend(use_all());
    let k = base("shadow").body(body);
    assert_golden(
        &k,
        Some("`n` shadows a kernel parameter"),
        &[
            unused("shadow", "n"),
            clash("shadow", "`n` shadows a kernel parameter"),
        ],
    );
}

#[test]
fn a_buffer_used_as_a_scalar_in_a_select_arm() {
    let k = with(
        "buffer_arm",
        vec![
            let_("x", select(lt(var("i"), var("n")), var("a"), flit(0.0))),
            store("c", int(0) - int(1), var("x")),
        ],
    );
    assert_golden(
        &k,
        Some("buffer `a` used as a scalar"),
        &[oob("buffer_arm", "c", -1)],
    );
}

#[test]
fn a_load_from_a_write_only_buffer_stops_the_checker_before_its_index() {
    let k = kernel("write_only")
        .buffer("o", Precision::Double, Access::Write)
        .body(vec![
            let_("x", load("o", var("ghost") + flit(0.5))),
            store("o", int(0), var("x")),
        ]);
    assert_golden(
        &k,
        Some("load from write-only buffer `o`"),
        &[unbound("write_only", "ghost")],
    );
}

#[test]
fn a_dangling_elem_of_parameter_and_an_unused_parameter() {
    let k = base("dangling")
        .float_param_like("alpha", "ghost")
        .float_param("beta", Precision::Double)
        .body(use_all());
    assert_golden(
        &k,
        Some("parameter `alpha`: unknown buffer `ghost`"),
        &[
            unused("dangling", "alpha"),
            unused("dangling", "beta"),
            clash("dangling", "parameter `alpha`: unknown buffer `ghost`"),
        ],
    );
}

#[test]
fn a_select_condition_is_checked_before_its_arms() {
    let k = with(
        "select_cond",
        vec![let_("x", select(var("n"), var("ghost"), flit(1.0)))],
    );
    assert_golden(
        &k,
        Some("select condition is not a boolean"),
        &[unbound("select_cond", "ghost")],
    );
}

#[test]
fn a_float_index_beside_a_negative_store_index() {
    let k = with(
        "float_index",
        vec![
            let_("x", load("a", flit(0.5))),
            store("c", int(0) - int(1), var("x")),
        ],
    );
    assert_golden(
        &k,
        Some("load index must be an integer, found WeakFloat"),
        &[oob("float_index", "c", -1)],
    );
}

#[test]
fn a_duplicate_parameter_and_an_unbound_name() {
    let k =
        base("dup_param")
            .int_param("n")
            .body(vec![store("c", var("ghost"), load("a", int(0)))]);
    assert_golden(
        &k,
        Some("duplicate parameter `n`"),
        &[
            unbound("dup_param", "ghost"),
            unused("dup_param", "n"),
            unused("dup_param", "n"),
        ],
    );
}

#[test]
fn an_assigned_loop_variable_beside_a_dead_store() {
    let k = with(
        "loop_var",
        vec![
            for_("j", int(0), int(4), vec![assign("j", int(0))]),
            store("c", int(1), flit(1.0)),
            store("c", int(1), flit(2.0)),
        ],
    );
    assert_golden(
        &k,
        Some("cannot assign to loop variable `j`"),
        &[
            dead("loop_var", "c", 1),
            clash("loop_var", "cannot assign to loop variable `j`"),
        ],
    );
}

#[test]
fn a_read_only_store_of_a_boolean_and_an_unused_parameter() {
    let mut body = use_all();
    body.push(store("a", int(0), lt(int(0), int(1))));
    let k = base("read_only")
        .float_param("beta", Precision::Single)
        .body(body);
    assert_golden(
        &k,
        Some("store to read-only buffer `a`"),
        &[
            unused("read_only", "beta"),
            clash("read_only", "store to read-only buffer `a`"),
        ],
    );
}

#[test]
fn a_scalar_elem_of_cast_and_boolean_arithmetic() {
    let k = with(
        "scalar_cast",
        vec![
            let_("x", cast_elem_of("n", flit(1.0))),
            let_("y", lt(int(0), int(1)) + flit(1.0)),
        ],
    );
    assert_golden(
        &k,
        Some("`n` is a scalar, not a buffer"),
        &[clash("scalar_cast", "`n` is a scalar, not a buffer")],
    );
}

#[test]
fn a_branch_local_read_after_its_branch_and_a_fourth_dimension() {
    let k = with(
        "branch_local",
        vec![
            let_("d", global_id(3)),
            if_(lt(var("d"), var("n")), vec![let_("x", flit(1.0))]),
            assign("x", flit(2.0)),
            store("c", var("x") * int(0), flit(0.0)),
        ],
    );
    assert_golden(
        &k,
        Some("get_global_id(3) exceeds 3 dimensions"),
        &[unbound("branch_local", "x"), unbound("branch_local", "x")],
    );
}

#[test]
fn well_typed_kernels_with_only_verifier_findings() {
    // The type checker accepts a negative constant index and a dead
    // store; only the verifier sees them.
    let k = with(
        "lints_only",
        vec![
            store("c", int(2), flit(1.0)),
            store("c", int(2), load("a", -int(4))),
            let_("x", cast_elem_of("c", flit(1.0))),
        ],
    );
    assert_golden(
        &k,
        None,
        &[dead("lints_only", "c", 2), oob("lints_only", "a", -4)],
    );
}
