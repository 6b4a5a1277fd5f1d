//! `prescaler-verify` — the IR-verifier CI check.
//!
//! Verifies every kernel of every polybench benchmark, and every precision
//! variant a session can launch of it: each buffer-precision retyping, and
//! each retyping cast to compute one precision higher (binary64 wrapping
//! to binary16). It requires **zero diagnostics of any severity** (the
//! session gate only rejects errors; shipped kernels are held to the
//! stricter bar of no warnings either). A variant cache verifies only the
//! declared kernel and lets every variant share the verdict, which the
//! variant checks back. Then sanity-checks the verifier itself against a
//! matrix of deliberately broken kernels, each of which must produce its
//! specific typed diagnostic, and gates the rule that a session's
//! `OclError::Verify` message depends on: a type violation surfaces as a
//! `TypeClash` carrying the type checker's error text, and only when no
//! error-severity diagnostic came before it. Exits nonzero on any
//! violation.
//!
//! ```text
//! cargo run --release --bin prescaler-verify
//! ```

use prescaler_ir::ast::{Access, Stmt};
use prescaler_ir::dsl::{
    assign, flit, for_, global_id, if_, int, kernel, let_, load, lt, store, var, KernelBuilder,
};
use prescaler_ir::passes::{insert_casts, retype_buffers};
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::{verify_kernel, Expr, Kernel, Param, Precision, VerifyDiagnostic};
use prescaler_ocl::HostApp;
use prescaler_polybench::{BenchKind, PolyApp};
use std::collections::HashMap;

/// `kernel` under every buffer-precision map, retyped, and retyped then
/// cast to compute one precision higher (binary64 wrapping to binary16),
/// so that every load carries a cast.
fn variants(kernel: &Kernel) -> Vec<Kernel> {
    const PRECISIONS: [Precision; 3] = [Precision::Half, Precision::Single, Precision::Double];
    let buffers: Vec<&str> = kernel
        .params
        .iter()
        .filter(|p| matches!(p, Param::Buffer { .. }))
        .map(Param::name)
        .collect();
    let mut out = Vec::new();
    for code in 0..3usize.pow(buffers.len() as u32) {
        let mut digits = code;
        let (mut retype, mut compute) = (HashMap::new(), HashMap::new());
        for &b in &buffers {
            retype.insert(b.to_owned(), PRECISIONS[digits % 3]);
            compute.insert(b.to_owned(), PRECISIONS[(digits + 1) % 3]);
            digits /= 3;
        }
        let retyped = retype_buffers(kernel, &retype);
        out.push(insert_casts(&retyped, &compute));
        out.push(retyped);
    }
    out
}

fn broken_base() -> KernelBuilder {
    kernel("k")
        .buffer("a", Precision::Double, Access::Read)
        .buffer("c", Precision::Double, Access::ReadWrite)
        .int_param("n")
}

/// A body using every parameter, so only the seeded defect reports.
fn use_all() -> Vec<Stmt> {
    vec![
        let_("i", global_id(0)),
        if_(
            lt(var("i"), var("n")),
            vec![store("c", var("i"), load("a", var("i")) + flit(1.0))],
        ),
    ]
}

/// Whether every `TypeClash` among `k`'s diagnostics `ds` carries the
/// type checker's error text for `k`.
fn clashes_carry_the_checkers_text(k: &Kernel, ds: &[VerifyDiagnostic]) -> bool {
    let checked = check_kernel(k).err().map(|e| e.to_string());
    ds.iter().all(|d| match d {
        VerifyDiagnostic::TypeClash { detail, .. } => checked.as_ref() == Some(detail),
        _ => true,
    })
}

fn main() {
    let mut failures = 0usize;

    // Part 1: every shipped benchmark kernel, and each of its precision
    // variants, verifies completely clean.
    let (mut kernels, mut cases) = (0usize, 0usize);
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let program = app.program();
        kernels += program.kernels.len();
        let mut checked = 0usize;
        let mut diagnostics = Vec::new();
        for k in &program.kernels {
            for variant in std::iter::once(k.clone()).chain(variants(k)) {
                diagnostics.extend(verify_kernel(&variant));
                checked += 1;
            }
        }
        cases += checked;
        if diagnostics.is_empty() {
            println!(
                "ok   {:<8} {} kernels and their variants clean ({checked} cases)",
                app.name(),
                program.kernels.len()
            );
        } else {
            failures += diagnostics.len();
            for d in diagnostics {
                println!("FAIL {:<8} {d}", app.name());
            }
        }
    }

    // Part 2: the verifier still catches each defect class. A verifier
    // that silently stopped reporting would make part 1 vacuous.
    let with = |defect: Vec<Stmt>| {
        let mut body = use_all();
        body.extend(defect);
        broken_base().body(body)
    };
    type BrokenCase = (
        &'static str,
        prescaler_ir::Kernel,
        fn(&VerifyDiagnostic) -> bool,
    );
    let matrix: Vec<BrokenCase> = vec![
        (
            "unbound variable",
            with(vec![store("c", int(0), var("ghost"))]),
            |d| matches!(d, VerifyDiagnostic::UnboundVar { name, .. } if name == "ghost"),
        ),
        (
            "type clash",
            with(vec![for_(
                "j",
                int(0),
                prescaler_ir::ast::Expr::FloatConst(4.0),
                vec![],
            )]),
            |d| matches!(d, VerifyDiagnostic::TypeClash { .. }),
        ),
        (
            "negative constant index",
            with(vec![let_("x", load("a", int(0) - int(3)))]),
            |d| matches!(d, VerifyDiagnostic::OobConstIndex { index: -3, .. }),
        ),
        (
            "dead store",
            with(vec![
                store("c", int(0), flit(1.0)),
                store("c", int(0), flit(2.0)),
            ]),
            |d| matches!(d, VerifyDiagnostic::DeadStore { index: 0, .. }),
        ),
        (
            "unused parameter",
            broken_base()
                .float_param("beta", Precision::Double)
                .body(use_all()),
            |d| matches!(d, VerifyDiagnostic::UnusedParam { param, .. } if param == "beta"),
        ),
        (
            "store through non-buffer",
            with(vec![store("n", int(0), flit(1.0))]),
            |d| matches!(d, VerifyDiagnostic::NonBufferStore { name, .. } if name == "n"),
        ),
    ];
    for (label, broken, expected) in &matrix {
        let ds = verify_kernel(broken);
        match ds.iter().find(|d| expected(d)) {
            Some(d) => println!("ok   rejects  {label}: {d}"),
            None => {
                failures += 1;
                println!("FAIL rejects  {label}: expected diagnostic missing in {ds:?}");
            }
        }
        if !clashes_carry_the_checkers_text(broken, &ds) {
            failures += 1;
            println!("FAIL rejects  {label}: a type clash differs from the type checker's error");
        }
    }

    // Part 3: a type violation surfaces only when no error came before
    // it, so an unbound name masks a later float loop bound.
    let masked = with(vec![
        assign("ghost", flit(1.0)),
        for_("j", int(0), Expr::FloatConst(4.0), vec![]),
    ]);
    let ds = verify_kernel(&masked);
    if matches!(ds.as_slice(), [VerifyDiagnostic::UnboundVar { name, .. }] if name == "ghost") {
        println!(
            "ok   masks    float loop bound behind an unbound name: {}",
            ds[0]
        );
    } else {
        failures += 1;
        println!("FAIL masks    float loop bound behind an unbound name: got {ds:?}");
    }

    println!(
        "\n{kernels} benchmark kernels verified in {cases} cases (declared precisions \
         and every variant), {failures} failures"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
