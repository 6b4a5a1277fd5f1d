//! Differential fuzzing: random well-typed kernels must behave
//! identically under the tree-walking interpreter and the bytecode VM
//! (bit-identical buffers and operation counts), sequentially and in
//! parallel, and must survive a print/parse round trip.

use prescaler_ir::dsl::*;
use prescaler_ir::interp::{run_kernel, BufferMap, Launch};
use prescaler_ir::parse::parse_kernel;
use prescaler_ir::print::kernel_to_string;
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::vm::{compile_kernel, VmScratch};
use prescaler_ir::{Access, Expr, FloatVec, Kernel, Precision, Stmt};
use proptest::prelude::*;
use std::cell::RefCell;

const BUF_LEN: i64 = 17;

/// Clamps an arbitrary integer expression into `[0, BUF_LEN)` so loads
/// and stores are always in bounds.
fn clamped(e: Expr) -> Expr {
    min2(max2(e, int(0)), int(BUF_LEN - 1))
}

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop_oneof![
        Just(Precision::Half),
        Just(Precision::Single),
        Just(Precision::Double),
    ]
}

/// Integer expressions. `in_loop` enables the loop variable `k`.
fn arb_int_expr(depth: u32, in_loop: bool) -> BoxedStrategy<Expr> {
    let mut leaves = vec![
        (-3i64..20).prop_map(int).boxed(),
        Just(global_id(0)).boxed(),
        Just(global_id(1)).boxed(),
        Just(var("n")).boxed(),
    ];
    if in_loop {
        leaves.push(Just(var("k")).boxed());
    }
    let leaf = proptest::strategy::Union::new(leaves);
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_int_expr(depth - 1, in_loop);
    prop_oneof![
        4 => leaf,
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a + b),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a * b),
        1 => (sub.clone(), sub).prop_map(|(a, b)| min2(a, b)),
    ]
    .boxed()
}

/// Float expressions. May reference the scalar `alpha` and loads from
/// `a`/`b`; the locals `t0`/`t1` only once `locals` is true (they are
/// declared at the top of the body).
fn arb_float_expr(depth: u32, in_loop: bool, locals: bool) -> BoxedStrategy<Expr> {
    let mut leaves = vec![
        (-4.0f64..4.0).prop_map(flit).boxed(),
        Just(var("alpha")).boxed(),
        arb_int_expr(1, in_loop)
            .prop_map(|i| load("a", clamped(i)))
            .boxed(),
        arb_int_expr(1, in_loop)
            .prop_map(|i| load("b", clamped(i)))
            .boxed(),
    ];
    if locals {
        leaves.push(Just(var("t0")).boxed());
        leaves.push(Just(var("t1")).boxed());
    }
    let leaf = proptest::strategy::Union::new(leaves);
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_float_expr(depth - 1, in_loop, locals);
    let isub = arb_int_expr(1, in_loop);
    prop_oneof![
        4 => leaf,
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a + b),
        2 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a * b),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a - b),
        1 => sub.clone().prop_map(fabs),
        1 => sub.clone().prop_map(|a| sqrt(fabs(a))),
        1 => (arb_precision(), sub.clone()).prop_map(|(p, a)| cast(p, a)),
        // Select with a float condition: both engines evaluate both arms.
        1 => (sub.clone(), sub.clone(), sub.clone())
            .prop_map(|(c, a, b)| select(gt(c, flit(0.5)), a, b)),
        // Int/float mixing through arithmetic.
        1 => (isub, sub).prop_map(|(i, f)| f * cast(Precision::Double, i)),
    ]
    .boxed()
}

/// Statements (bounded nesting), with integer `if` conditions.
fn arb_stmts(depth: u32, in_loop: bool) -> BoxedStrategy<Vec<Stmt>> {
    let store_stmt = (arb_int_expr(1, in_loop), arb_float_expr(2, in_loop, true))
        .prop_map(|(i, v)| store("b", clamped(i), v));
    let assign0 = arb_float_expr(2, in_loop, true).prop_map(|v| assign("t0", v));
    let assign1 = arb_float_expr(2, in_loop, true).prop_map(|v| assign("t1", v));
    if depth == 0 {
        return proptest::collection::vec(prop_oneof![store_stmt, assign0, assign1], 1..3).boxed();
    }
    let body = arb_body(depth - 1, true);
    let ibody = arb_body(depth - 1, in_loop);
    let for_stmt = (arb_int_expr(0, in_loop), 1i64..4, body).prop_map(|(s, trips, b)| {
        // Bounds may be negative → empty loops are exercised too.
        for_("k", s.clone(), s + int(trips), b)
    });
    let if_stmt = (
        arb_int_expr(1, in_loop),
        arb_int_expr(1, in_loop),
        ibody.clone(),
        ibody.clone(),
    )
        .prop_map(|(x, y, t, e)| if_else(lt(x, y), t, e));
    proptest::collection::vec(
        prop_oneof![3 => store_stmt, 1 => assign0, 1 => assign1, 1 => for_stmt, 1 => if_stmt],
        1..4,
    )
    .boxed()
}

/// A nested `for`/`if` body: optional `let`s shadowing `t0` and `t1` at
/// its top, then statements that read and assign whichever binding is
/// innermost. One `let` per name per scope keeps the kernel well-typed;
/// the shadow's initializer may read the outer binding it hides.
fn arb_body(depth: u32, in_loop: bool) -> BoxedStrategy<Vec<Stmt>> {
    let shadow = |name: &'static str| {
        prop_oneof![
            Just(None),
            (arb_precision(), arb_float_expr(1, in_loop, true))
                .prop_map(move |(p, v)| Some(let_ty(name, p, v))),
        ]
    };
    (shadow("t0"), shadow("t1"), arb_stmts(depth, in_loop))
        .prop_map(|(t0, t1, stmts)| t0.into_iter().chain(t1).chain(stmts).collect())
        .boxed()
}

/// A complete random kernel over two buffers with random precisions.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        arb_precision(),
        arb_precision(),
        arb_float_expr(1, false, false),
        arb_float_expr(1, false, false),
        arb_stmts(2, false),
    )
        .prop_map(|(pa, pb, init0, init1, stmts)| {
            let mut body = vec![let_ty("t0", pa, init0), let_ty("t1", pb, init1)];
            body.extend(stmts);
            kernel("fuzz")
                .buffer("a", pa, Access::Read)
                .buffer("b", pb, Access::ReadWrite)
                .int_param("n")
                .float_param_like("alpha", "a")
                .body(body)
        })
}

fn buffers(pa: Precision, pb: Precision) -> BufferMap {
    let mut m = BufferMap::new();
    let xs: Vec<f64> = (0..BUF_LEN)
        .map(|i| (i as f64 * 0.71).sin() * 3.0)
        .collect();
    let ys: Vec<f64> = (0..BUF_LEN)
        .map(|i| (i as f64 * 0.37).cos() * 2.0)
        .collect();
    m.insert("a".into(), FloatVec::from_f64_slice(&xs, pa));
    m.insert("b".into(), FloatVec::from_f64_slice(&ys, pb));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engines_and_analysis_agree_on_random_kernels(k in arb_kernel()) {
        check_kernel(&k).expect("generated kernels are well-typed");
        let pa = k.buffer_elem("a").unwrap();
        let pb = k.buffer_elem("b").unwrap();
        let launch = Launch::two_d(5, 2).arg_int("n", 7).arg_float("alpha", 1.25);

        let mut bufs_i = buffers(pa, pb);
        let counts_i = run_kernel(&k, &mut bufs_i, &launch).expect("interp runs");

        let compiled = compile_kernel(&k).expect("well-typed kernels compile");
        let mut bufs_v = buffers(pa, pb);
        // One scratch reused across all proptest cases on this thread —
        // the VM's pooled-allocation contract, exercised under fuzzing.
        thread_local! {
            static SCRATCH: RefCell<VmScratch> = RefCell::new(VmScratch::new());
        }
        let counts_v = SCRATCH
            .with(|s| compiled.run_with_scratch(&mut bufs_v, &launch, &mut s.borrow_mut()))
            .expect("vm runs");

        prop_assert_eq!(counts_i, counts_v, "dynamic counts diverge");

        // The parallel entry point must agree bit-for-bit as well, whether
        // it engages chunked execution or falls back to sequential.
        let mut bufs_p = buffers(pa, pb);
        let counts_p = SCRATCH
            .with(|s| compiled.run_parallel(&mut bufs_p, &launch, &mut s.borrow_mut(), 4))
            .expect("parallel vm runs");
        prop_assert_eq!(counts_i, counts_p, "parallel counts diverge");
        for name in ["a", "b"] {
            let x = &bufs_v[name];
            let y = &bufs_p[name];
            for i in 0..x.len() {
                let (a, b) = (x.get(i), y.get(i));
                prop_assert!(
                    a == b || (a.is_nan() && b.is_nan()),
                    "parallel buffer {}[{}]: seq {} vs par {}", name, i, a, b
                );
            }
        }
        for name in ["a", "b"] {
            let x = &bufs_i[name];
            let y = &bufs_v[name];
            prop_assert_eq!(x.len(), y.len());
            for i in 0..x.len() {
                let (a, b) = (x.get(i), y.get(i));
                prop_assert!(
                    a == b || (a.is_nan() && b.is_nan()),
                    "buffer {}[{}]: interp {} vs vm {}", name, i, a, b
                );
            }
        }

        // Printer/parser round trip: printing is a fixed point, and the
        // reparsed kernel behaves identically.
        let printed = kernel_to_string(&k);
        let reparsed = parse_kernel(&printed)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        check_kernel(&reparsed).expect("reparsed kernel type-checks");
        prop_assert_eq!(
            kernel_to_string(&reparsed),
            printed.clone(),
            "printing is not idempotent"
        );
        let mut bufs_r = buffers(pa, pb);
        let counts_r = run_kernel(&reparsed, &mut bufs_r, &launch).expect("reparsed runs");
        prop_assert_eq!(counts_r, counts_i, "reparsed kernel counts diverge");
        for name in ["a", "b"] {
            let x = &bufs_i[name];
            let y = &bufs_r[name];
            for i in 0..x.len() {
                let (a, b) = (x.get(i), y.get(i));
                prop_assert!(
                    a == b || (a.is_nan() && b.is_nan()),
                    "reparsed buffer {}[{}]: {} vs {}", name, i, a, b
                );
            }
        }
    }
}
