//! Differential fuzzing: random well-typed kernels must behave
//! identically under the tree-walking interpreter and the bytecode VM —
//! bit-identical buffers and operation counts — whether the VM runs them
//! item by item, in lock-step blocks or in parallel chunks, must survive
//! a print/parse round trip, and must pass the verifier without an error.
//! Their `if`s branch on integer and float comparisons, and a float
//! comparison may meet a NaN in some lanes of a block and not in others.
//!
//! Half the kernels store through unclamped affine indices that the
//! disjoint-access proof can admit, over launches of at least 64 items,
//! so both non-sequential executors really run; the test counts how often
//! each does, through the same plan query the executor follows. Some of
//! them accumulate a dot product whose operands are uniform, contiguous,
//! strided or unevenly spaced across the lanes of a row, so fused
//! dot-product loops run once per lock-step block too; the executor's own
//! tally counts those. Some of those hold one operand in a local that is
//! read again after the loop, which no fusion may swallow. Some make more
//! trips than a 64-trip strip holds, in rows narrower than 16, which a
//! work-item streams alone in several strips; some read an operand
//! buffer cut short, at the first trip or partway through, and there
//! every engine must fail with the interpreter's error and leave its
//! partial writes. The scratch's tallies count both.
//! Some generate what the VM's lane-shape rule must refuse: a local that
//! a branch on gid0 assigns, then used as a load or store index, and a
//! loop whose trip count depends on gid0, its counter-derived index read
//! inside and a local it assigns read after it; and some make consecutive
//! accesses in blocks whose lanes retire or wait at another branch arm.
//! The scratch's tallies count the ops a lock-step block ran once and the
//! loads and stores it moved as slices, and debug builds check the shapes
//! behind both before each one.
//! The proof's verdict and the verifier's errors must also survive a
//! random retyping of every kernel's buffers and a random in-kernel
//! compute map, since compiled precision variants share their kernel's
//! verdict and verification; and compiling a kernel straight from the
//! retyping's buffer precisions must give the retyped kernel's bytecode.
//!
//! Each case also derives one seeded ill-formed mutant: an unbound name, a
//! float index, a store through a scalar, a negative constant index or a
//! duplicated `let`. No checker or engine may panic on it; when the type
//! checker refuses it the verifier must report an error, and when the
//! type checker accepts it both engines must run it alike, errors
//! included. Each branch must occur in at least a sixteenth of the cases.
//!
//! The CI fault matrix re-runs the suite under several values of
//! `PRESCALER_FAULT_SEED`, which is mixed into both generator seeds;
//! unset, the suite generates the fixed seeds' cases.

use prescaler_ir::analysis::parallel_safety;
use prescaler_ir::dsl::*;
use prescaler_ir::interp::{run_kernel, BufferMap, Launch};
use prescaler_ir::parse::parse_kernel;
use prescaler_ir::passes::{insert_casts, retype_buffers};
use prescaler_ir::print::kernel_to_string;
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::verify::{verify_kernel, Severity, VerifyDiagnostic};
use prescaler_ir::vm::{compile_kernel, compile_with_safety, LaunchPlan, VmScratch};
use prescaler_ir::{
    Access, CmpOp, Expr, FloatVec, Kernel, Param, Precision, ScalarType, Stmt, TypeRef,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const BUF_LEN: i64 = 17;

/// Generated cases per run.
const CASES: usize = 512;

/// Clamps an arbitrary integer expression into `[0, BUF_LEN)` so loads
/// and stores are always in bounds.
fn clamped(e: Expr) -> Expr {
    min2(max2(e, int(0)), int(BUF_LEN - 1))
}

/// `(int) e`: truncates a float to an integer.
fn to_int(e: Expr) -> Expr {
    Expr::Cast {
        to: TypeRef::Concrete(ScalarType::Int),
        arg: Box::new(e),
    }
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
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| a / b),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| min2(a, b)),
        1 => (sub.clone(), sub.clone()).prop_map(|(a, b)| max2(a, b)),
        1 => sub.clone().prop_map(fabs),
        1 => sub.clone().prop_map(|a| sqrt(fabs(a))),
        1 => sub.clone().prop_map(exp),
        1 => (arb_precision(), sub.clone()).prop_map(|(p, a)| cast(p, a)),
        // Select with a float condition: both engines evaluate both arms.
        1 => (sub.clone(), sub.clone(), sub.clone())
            .prop_map(|(c, a, b)| select(gt(c, flit(0.5)), a, b)),
        // Int/float mixing through arithmetic, the int cast to any
        // precision.
        1 => (arb_precision(), isub, sub).prop_map(|(p, i, f)| f * cast(p, i)),
    ]
    .boxed()
}

/// Statements (bounded nesting), with integer and float `if` conditions:
/// a float comparison may meet NaN operands, and its lanes may disagree.
/// With `stores`, some store a float or an integer value to `b` at a
/// clamped index; without, they only assign the locals (and leave `b`
/// read-only).
fn arb_stmts(depth: u32, in_loop: bool, stores: bool) -> BoxedStrategy<Vec<Stmt>> {
    let assign0 = arb_float_expr(2, in_loop, true).prop_map(|v| assign("t0", v));
    let assign1 = arb_float_expr(2, in_loop, true).prop_map(|v| assign("t1", v));
    let store_stmt = if stores {
        let value = prop_oneof![
            3 => arb_float_expr(2, in_loop, true),
            1 => arb_int_expr(1, in_loop),
        ];
        (arb_int_expr(1, in_loop), value)
            .prop_map(|(i, v)| store("b", clamped(i), v))
            .boxed()
    } else {
        assign0.clone().boxed()
    };
    if depth == 0 {
        return proptest::collection::vec(prop_oneof![store_stmt, assign0, assign1], 1..3).boxed();
    }
    let body = arb_body(depth - 1, true, stores);
    let ibody = arb_body(depth - 1, in_loop, stores);
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
    let cmp_op = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
    ];
    // The square root of a value that may be negative is NaN in some
    // lanes and not in others.
    let nan_prone = prop_oneof![
        arb_float_expr(1, in_loop, true),
        arb_float_expr(1, in_loop, true).prop_map(sqrt),
    ];
    let float_if_stmt = (
        cmp_op,
        nan_prone,
        arb_float_expr(1, in_loop, true),
        ibody.clone(),
        ibody,
    )
        .prop_map(|(op, x, y, t, e)| if_else(cmp(op, x, y), t, e));
    proptest::collection::vec(
        prop_oneof![
            3 => store_stmt,
            1 => assign0,
            1 => assign1,
            1 => for_stmt,
            1 => if_stmt,
            1 => float_if_stmt,
        ],
        1..4,
    )
    .boxed()
}

/// A nested `for`/`if` body: optional `let`s shadowing `t0` and `t1` at
/// its top, then statements that read and assign whichever binding is
/// innermost. One `let` per name per scope keeps the kernel well-typed;
/// the shadow's initializer may read the outer binding it hides.
fn arb_body(depth: u32, in_loop: bool, stores: bool) -> BoxedStrategy<Vec<Stmt>> {
    let shadow = |name: &'static str| {
        prop_oneof![
            Just(None),
            (arb_precision(), arb_float_expr(1, in_loop, true))
                .prop_map(move |(p, v)| Some(let_ty(name, p, v))),
        ]
    };
    (
        shadow("t0"),
        shadow("t1"),
        arb_stmts(depth, in_loop, stores),
    )
        .prop_map(|(t0, t1, stmts)| t0.into_iter().chain(t1).chain(stmts).collect())
        .boxed()
}

/// How an affine kernel stores to `c`, at `idx = c0*j + w*i + b0`
/// (`j`, `i` = gid0, gid1; `w` a launch argument).
#[derive(Clone, Debug)]
enum Shape {
    /// `c[idx] = v`, or `c[idx] = c[idx]*0.5 + v`.
    Plain { rmw: bool },
    /// `c[idx] = c[idx + 1] + v`, or with `back`, `c[idx + 1] = c[idx] + v`:
    /// a neighbour's element, which the proof must refuse.
    Neighbour { back: bool },
    /// The `fdtd_ey` shape: `c[c0*j + b0]` when `i == row`, `c[idx]`
    /// (read and written) otherwise — or, with `fall_through`, always,
    /// after the guarded store (both run in row `row`).
    RowGuard { row: i64, fall_through: bool },
    /// The `conv3d` shape: `c[idx + s*k]` for `k` in `[0, trips)`, with
    /// `s` a launch argument.
    Counter { trips: i64 },
    /// A loop-carried accumulator, `let u = f(acc); acc = acc + u`, over
    /// `trips` trips, then `c[idx] = acc`.
    Carried { trips: i64 },
    /// An accumulator over a data-dependent trip count, `(int) a[j]*2`.
    DataTrips,
    /// `x = idx` into a half local `x`, then the read-modify-write
    /// `c[(int) x] = c[(int) x]*0.5 + v`: from 2048 up a half merges
    /// neighbouring indices, so lanes of one block meet and the proof must
    /// refuse.
    Rounded,
    /// A dot product into an accumulator at `acc`,
    /// `acc = acc + x[..]*y[..]` over `trips`, then `c[idx] = acc`; `x`
    /// and `y` are read-only buffers at their own precisions. With
    /// `held`, each trip first assigns `x[..]` to a local `p` declared
    /// before the loop, the step reads `p`, and the store adds `p`: no
    /// fusion may swallow the load that writes `p`. With `cut`, one
    /// operand buffer is too short for the loop's reads.
    Dot {
        x: (Precision, Operand),
        y: (Precision, Operand),
        acc: Precision,
        trips: Trips,
        held: bool,
        cut: Option<Cut>,
    },
    /// A local `u = i*w + b0`, one value along a row, to which a branch on
    /// gid0 adds `j` in the first lanes; then `c[idx] = x[u]*0.5 + v`, or
    /// with `store`, `c[u] = v`. Lanes that meet again after the branch
    /// hold other values in `u`, so no block may read it once.
    BranchLocal { store: bool },
    /// A loop over `k` from `0` (a uniform counter), or from `j` (a
    /// consecutive one), making `min(j, 3) + 1` trips, so the first lanes
    /// of a row leave it early. Each trip reads `x[i*w + k]` into `p` and
    /// sets `q = k`, both locals declared before it; then
    /// `c[idx] = p + x[i*w + q] + v`. Lanes still looping share each trip,
    /// but those that left early hold other values in `p` and `q`.
    Ragged { from_j: bool },
    /// Consecutive accesses: `c[at] = c[at]*0.5 + x[at + 1] + v` with
    /// `at = j + i*w + b0`, for the lanes with `j >= lo`. The others
    /// retire, or with `split`, store `c[at] = v2` in an `else` after them.
    Consecutive { lo: i64, split: bool },
}

/// A [`Shape::Dot`] operand buffer cut to `eighths`/8 of the elements its
/// reads reach, so some work-item's loop reads past its end, at the first
/// trip or partway through.
#[derive(Clone, Copy, Debug)]
struct Cut {
    /// `y` rather than `x`.
    y: bool,
    eighths: usize,
}

/// How a [`Shape::Dot`] operand's index moves across the lanes of a row
/// (`j`, `i` = gid0, gid1; `k` the counter).
#[derive(Clone, Copy, Debug)]
enum Operand {
    /// `i*w + k`: one element for the whole row.
    Uniform,
    /// `k*w + j`: consecutive elements.
    Contiguous,
    /// `j*w + k`: elements `w` apart.
    Strided,
    /// `k*j + i`: one element for the whole row at `k = 0`, then a
    /// different step per trip in every lane.
    Skewed,
    /// `j*j + k`: not evenly spaced across lanes.
    Square,
    /// `k*k + j`: not evenly spaced across trips, so the lanes run the
    /// loop one at a time.
    Quadratic,
}

impl Operand {
    fn index(self) -> Expr {
        let (a, b, c) = match self {
            Operand::Uniform => ("i", "w", "k"),
            Operand::Contiguous => ("k", "w", "j"),
            Operand::Strided => ("j", "w", "k"),
            Operand::Skewed => ("k", "j", "i"),
            Operand::Square => ("j", "j", "k"),
            Operand::Quadratic => ("k", "k", "j"),
        };
        var(a) * var(b) + var(c)
    }

    /// One past the largest index this operand reads in an `nx × ny`
    /// launch of loops of up to `t` trips, for row stride `w`.
    fn reach(self, t: usize, [nx, ny]: [usize; 2], w: usize) -> usize {
        let (j, i, k) = (nx - 1, ny - 1, t.max(1) - 1);
        let top = match self {
            Operand::Uniform => i * w + k,
            Operand::Contiguous => k * w + j,
            Operand::Strided => j * w + k,
            Operand::Skewed => k * j + i,
            Operand::Square => j * j + k,
            Operand::Quadratic => k * k + j,
        };
        top + 1
    }
}

/// A [`Shape::Dot`] loop's trip count: at most 5, or a long loop.
#[derive(Clone, Copy, Debug)]
enum Trips {
    /// The same constant in every work-item.
    Fixed(i64),
    /// `(int) a[j]*2`: lanes of one block disagree, except where the
    /// clamped index pins them to one element.
    PerLane,
    /// `(int) a[i]*2`: data-dependent, but one count per row.
    PerRow,
    /// More trips than a 64-trip strip holds, in rows narrower than 16,
    /// which run item by item.
    Long(i64),
}

impl Trips {
    fn bound(self) -> Expr {
        let data = |id: usize| to_int(load("a", clamped(global_id(id))) * flit(2.0));
        match self {
            Trips::Fixed(t) | Trips::Long(t) => int(t),
            Trips::PerLane => data(0),
            Trips::PerRow => data(1),
        }
    }

    /// The most trips a loop makes.
    fn most(self) -> usize {
        match self {
            Trips::Long(t) => t as usize,
            _ => 5,
        }
    }
}

/// An affine-store kernel's parameters.
#[derive(Clone, Debug)]
struct Affine {
    c0: i64,
    b0: i64,
    shape: Shape,
    /// Added to `c0 * nx` to give the row stride `w`; below zero, rows
    /// overlap and row chunks must be refused.
    w_slack: i64,
    /// The counter stride `s` is `c0*(min(nx, 64) - 1) + s_slack` — at
    /// most 0 lets two lanes of a block meet, which the proof must
    /// refuse — or, when `None`, a whole launch's span.
    s_slack: Option<i64>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        3 => any::<bool>().prop_map(|rmw| Shape::Plain { rmw }),
        1 => any::<bool>().prop_map(|back| Shape::Neighbour { back }),
        2 => (0i64..2, any::<bool>())
            .prop_map(|(row, fall_through)| Shape::RowGuard { row, fall_through }),
        2 => (1i64..4).prop_map(|trips| Shape::Counter { trips }),
        2 => (1i64..4).prop_map(|trips| Shape::Carried { trips }),
        2 => Just(Shape::DataTrips),
        1 => Just(Shape::Rounded),
        9 => arb_dot(),
        2 => any::<bool>().prop_map(|store| Shape::BranchLocal { store }),
        2 => any::<bool>().prop_map(|from_j| Shape::Ragged { from_j }),
        2 => (0i64..4, any::<bool>()).prop_map(|(lo, split)| Shape::Consecutive { lo, split }),
    ]
}

fn arb_dot() -> impl Strategy<Value = Shape> {
    let operand = || {
        let lanes = prop_oneof![
            4 => Just(Operand::Uniform),
            4 => Just(Operand::Contiguous),
            4 => Just(Operand::Strided),
            1 => Just(Operand::Skewed),
            1 => Just(Operand::Square),
            1 => Just(Operand::Quadratic),
        ];
        (arb_precision(), lanes)
    };
    let trips = prop_oneof![
        2 => (0i64..5).prop_map(Trips::Fixed),
        1 => Just(Trips::PerLane),
        1 => Just(Trips::PerRow),
        2 => (65i64..140).prop_map(Trips::Long),
    ];
    let held = prop_oneof![3 => Just(false), 1 => Just(true)];
    let cut = prop_oneof![
        1 => Just(None),
        1 => (any::<bool>(), 1usize..8).prop_map(|(y, eighths)| Some(Cut { y, eighths })),
    ];
    (operand(), operand(), arb_precision(), trips, held, cut).prop_map(
        |(x, y, acc, trips, held, cut)| Shape::Dot {
            x,
            y,
            acc,
            trips,
            held,
            cut,
        },
    )
}

fn arb_affine() -> impl Strategy<Value = Affine> {
    (
        1i64..4,
        0i64..3,
        arb_shape(),
        -2i64..3,
        prop_oneof![Just(None), (-2i64..3).prop_map(Some)],
    )
        .prop_map(|(c0, b0, shape, w_slack, s_slack)| Affine {
            c0,
            b0,
            shape,
            w_slack,
            s_slack,
        })
}

impl Affine {
    /// The row stride `w` for a launch `nx` wide.
    fn w(&self, nx: usize) -> i64 {
        (self.c0 * nx as i64 + self.w_slack).max(1)
    }

    /// The counter stride `s` for an `nx × ny` launch.
    fn s(&self, [nx, ny]: [usize; 2]) -> i64 {
        match self.s_slack {
            Some(slack) => (self.c0 * (nx.min(64) as i64 - 1) + slack).max(1),
            None => self.w(nx) * ny as i64 + self.c0 * nx as i64,
        }
    }

    /// Elements a [`Shape::Dot`] operand buffer needs for an `nx × ny`
    /// launch: room for every form of index at up to 5 trips, or at a
    /// long loop's `t`, which `k*k` may pass. The `x` buffer of the
    /// other shapes that read one gets as many, more than `i*w + j + 4`.
    fn dot_len(&self, [nx, ny]: [usize; 2]) -> usize {
        let t = self.trips();
        let square = if t > 5 { t } else { 0 };
        nx.max(ny).max(t) * (self.w(nx) as usize + nx + square) + t
    }

    /// The most trips a [`Shape::Dot`] loop makes.
    fn trips(&self) -> usize {
        match self.shape {
            Shape::Dot { trips, .. } => trips.most(),
            _ => 5,
        }
    }

    /// Elements `c` needs so every index of an `nx × ny` launch fits.
    fn c_len(&self, [nx, ny]: [usize; 2]) -> usize {
        let top = self.c0 * (nx as i64 - 1) + self.w(nx) * (ny as i64 - 1) + self.b0;
        let extra = match self.shape {
            Shape::Neighbour { .. } => 1,
            Shape::Counter { trips } => self.s([nx, ny]) * (trips - 1),
            // Rounding to half moves an index up by at most 1/2048 of it.
            Shape::Rounded => top / 2048 + 1,
            _ => 0,
        };
        (top + extra + 1) as usize
    }
}

/// Values an affine kernel stores: `v` and `v2` outside loops, `vk` and
/// `f` (which feeds the accumulators) inside one, where they may read
/// the counter `k`.
struct Values {
    v: Expr,
    v2: Expr,
    vk: Expr,
    f: Expr,
}

/// The store statements of an affine kernel.
fn affine_stmts(aff: &Affine, pc: Precision, vals: Values) -> Vec<Stmt> {
    let Values { v, v2, vk, f } = vals;
    let idx = || int(aff.c0) * var("j") + var("i") * var("w") + int(aff.b0);
    let acc = |trips: Expr, step: Vec<Stmt>| {
        vec![
            let_ty("acc", pc, flit(0.25)),
            for_("k", int(0), trips, step),
            store("c", idx(), var("acc")),
        ]
    };
    match aff.shape {
        Shape::Plain { rmw: false } => vec![store("c", idx(), v)],
        Shape::Plain { rmw: true } => vec![store("c", idx(), load("c", idx()) * flit(0.5) + v)],
        Shape::Neighbour { back: false } => {
            vec![store("c", idx(), load("c", idx() + int(1)) + v)]
        }
        Shape::Neighbour { back: true } => {
            vec![store("c", idx() + int(1), load("c", idx()) + v)]
        }
        Shape::RowGuard { row, fall_through } => {
            let guard = cmp(CmpOp::Eq, var("i"), int(row));
            let pinned = vec![store("c", int(aff.c0) * var("j") + int(aff.b0), v)];
            let rest = vec![store("c", idx(), load("c", idx()) + v2)];
            if fall_through {
                [vec![if_(guard, pinned)], rest].concat()
            } else {
                vec![if_else(guard, pinned, rest)]
            }
        }
        Shape::Counter { trips } => vec![for_(
            "k",
            int(0),
            int(trips),
            // Distinct per lane and trip, so lanes that meet show it.
            vec![store(
                "c",
                idx() + var("s") * var("k"),
                vk + cast(Precision::Double, var("k") * int(3) + var("j")),
            )],
        )],
        Shape::Carried { trips } => acc(
            int(trips),
            vec![
                let_("u", var("acc") * flit(0.5) + f),
                assign("acc", var("acc") + var("u")),
            ],
        ),
        Shape::DataTrips => acc(
            to_int(load("a", clamped(global_id(0))) * flit(2.0)),
            vec![assign("acc", var("acc") + f)],
        ),
        Shape::Rounded => {
            let x = || to_int(var("x"));
            vec![
                let_ty("x", Precision::Half, flit(0.0)),
                assign("x", idx()),
                store("c", x(), load("c", x()) * flit(0.5) + v),
            ]
        }
        Shape::Dot {
            x,
            y,
            acc,
            trips,
            held,
            ..
        } => {
            let (x_k, y_k) = (load("x", x.1.index()), load("y", y.1.index()));
            let mut out = vec![let_ty("acc", acc, flit(0.25))];
            let (step, sum) = if held {
                out.push(let_ty("p", x.0, flit(0.5)));
                let step = vec![assign("p", x_k), add_assign("acc", var("p") * y_k)];
                (step, var("acc") + var("p"))
            } else {
                (vec![add_assign("acc", x_k * y_k)], var("acc"))
            };
            out.push(for_("k", int(0), trips.bound(), step));
            out.push(store("c", idx(), sum));
            out
        }
        Shape::BranchLocal { store: at_u } => {
            let u = || var("u");
            vec![
                let_("u", var("i") * var("w") + int(aff.b0)),
                if_(
                    lt(var("j"), var("n") + int(3)),
                    vec![assign("u", u() + var("j"))],
                ),
                if at_u {
                    store("c", u(), v)
                } else {
                    store("c", idx(), load("x", u()) * flit(0.5) + v)
                },
            ]
        }
        Shape::Ragged { from_j } => {
            let lo = || if from_j { var("j") } else { int(0) };
            let row = || var("i") * var("w");
            vec![
                let_ty("p", pc, flit(0.5)),
                let_("q", int(0)),
                for_(
                    "k",
                    lo(),
                    lo() + min2(var("j"), int(3)) + int(1),
                    vec![
                        assign("p", var("p") * flit(0.5) + load("x", row() + var("k"))),
                        assign("q", var("k")),
                    ],
                ),
                store("c", idx(), var("p") + load("x", row() + var("q")) + v),
            ]
        }
        Shape::Consecutive { lo, split } => {
            let at = || var("j") + var("i") * var("w") + int(aff.b0);
            let step = vec![store(
                "c",
                at(),
                load("c", at()) * flit(0.5) + load("x", at() + int(1)) + v,
            )];
            let guard = cmp(CmpOp::Ge, var("j"), int(lo));
            if split {
                vec![if_else(guard, step, vec![store("c", at(), v2)])]
            } else {
                vec![if_(guard, step)]
            }
        }
    }
}

/// One generated case: a kernel, its launch shape, and (for affine
/// kernels) the store pattern, which sizes `c`.
#[derive(Clone, Debug)]
struct Case {
    kernel: Kernel,
    global: [usize; 2],
    affine: Option<Affine>,
}

/// Launch shapes: the small 5×2 grid, and launches of at least 64 items
/// in 1-D and 2-D with rows shorter and longer than a 64-lane block.
fn arb_global() -> impl Strategy<Value = [usize; 2]> {
    prop_oneof![
        Just([5, 2]),
        Just([64, 1]),
        Just([100, 1]),
        Just([130, 1]),
        Just([37, 2]),
        Just([20, 4]),
        Just([70, 2]),
        Just([16, 5]),
    ]
}

/// The clamped-index kernels: two buffers with random precisions, random
/// statements storing to `b`.
fn arb_clamped_case() -> impl Strategy<Value = Case> {
    (
        arb_precision(),
        arb_precision(),
        arb_float_expr(1, false, false),
        arb_float_expr(1, false, false),
        arb_stmts(2, false, true),
        arb_global(),
    )
        .prop_map(|(pa, pb, init0, init1, stmts, global)| {
            let mut body = vec![let_ty("t0", pa, init0), let_ty("t1", pb, init1)];
            body.extend(stmts);
            Case {
                kernel: kernel("fuzz")
                    .buffer("a", pa, Access::Read)
                    .buffer("b", pb, Access::ReadWrite)
                    .int_param("n")
                    .float_param_like("alpha", "a")
                    .body(body),
                global,
                affine: None,
            }
        })
}

/// The affine-store kernels: `a`, `b` read-only, `c` stored by one of
/// the [`Shape`]s, after random statements on the locals and, sometimes,
/// under a guard on gid0 that retires part of a block.
fn arb_affine_case() -> impl Strategy<Value = Case> {
    (
        (arb_precision(), arb_precision(), arb_precision()),
        (
            arb_float_expr(1, false, false),
            arb_float_expr(1, false, false),
        ),
        arb_stmts(1, false, false),
        arb_affine(),
        (
            arb_float_expr(2, false, true),
            arb_float_expr(2, false, true),
            arb_float_expr(2, true, true),
            arb_float_expr(1, true, true),
        ),
        prop_oneof![Just(None), (0i64..80).prop_map(Some)],
        arb_global(),
    )
        .prop_map(
            |((pa, pb, pc), (init0, init1), stmts, aff, (v, v2, vk, f), guard, global)| {
                let mut body = vec![
                    let_("j", global_id(0)),
                    let_("i", global_id(1)),
                    let_ty("t0", pa, init0),
                    let_ty("t1", pb, init1),
                ];
                body.extend(stmts);
                let stores = affine_stmts(&aff, pc, Values { v, v2, vk, f });
                // `Rounded` merges indices only from 2048 up: its launches
                // are 2112 wide and keep every lane. Long dot loops run
                // item by item, in rows narrower than 16.
                let (global, guard) = match aff.shape {
                    Shape::Rounded => ([2112, global[1].min(2)], None),
                    Shape::Dot {
                        trips: Trips::Long(_),
                        ..
                    } => ([global[0].min(12), global[1]], guard),
                    _ => (global, guard),
                };
                match guard {
                    Some(m) => body.push(if_(lt(var("j"), var("n") + int(m)), stores)),
                    None => body.extend(stores),
                }
                let mut k = kernel("affine")
                    .buffer("a", pa, Access::Read)
                    .buffer("b", pb, Access::Read)
                    .buffer("c", pc, Access::ReadWrite);
                match aff.shape {
                    Shape::Dot { x, y, .. } => {
                        k = k
                            .buffer("x", x.0, Access::Read)
                            .buffer("y", y.0, Access::Read);
                    }
                    Shape::BranchLocal { .. }
                    | Shape::Ragged { .. }
                    | Shape::Consecutive { .. } => {
                        k = k.buffer("x", pb, Access::Read);
                    }
                    _ => {}
                }
                Case {
                    kernel: k
                        .int_param("n")
                        .int_param("w")
                        .int_param("s")
                        .float_param_like("alpha", "a")
                        .body(body),
                    global,
                    affine: Some(aff),
                }
            },
        )
}

fn arb_case() -> impl Strategy<Value = Case> {
    prop_oneof![arb_clamped_case(), arb_affine_case()]
}

impl Case {
    /// Whether a dot loop's operand buffer is cut short.
    fn cut(&self) -> bool {
        matches!(
            self.affine,
            Some(Affine {
                shape: Shape::Dot { cut: Some(_), .. },
                ..
            })
        )
    }

    fn launch(&self) -> Launch {
        let mut launch = Launch {
            global: self.global,
            args: Vec::new(),
        }
        .arg_int("n", 7)
        .arg_float("alpha", 1.25);
        if let Some(aff) = &self.affine {
            launch = launch
                .arg_int("w", aff.w(self.global[0]))
                .arg_int("s", aff.s(self.global));
        }
        launch
    }

    fn buffers(&self) -> BufferMap {
        let mut m = BufferMap::new();
        let wave = |len: usize, f: fn(f64) -> f64, scale: f64| -> Vec<f64> {
            (0..len).map(|i| f(i as f64 * scale) * 3.0).collect()
        };
        for name in ["a", "b"] {
            let p = self.kernel.buffer_elem(name).unwrap();
            let xs = if name == "a" {
                wave(BUF_LEN as usize, f64::sin, 0.71)
            } else {
                wave(BUF_LEN as usize, f64::cos, 0.37)
            };
            m.insert(name.into(), FloatVec::from_f64_slice(&xs, p));
        }
        if let Some(aff) = &self.affine {
            let p = self.kernel.buffer_elem("c").unwrap();
            let xs = wave(aff.c_len(self.global), f64::sin, 0.13);
            m.insert("c".into(), FloatVec::from_f64_slice(&xs, p));
            if let Shape::Dot { x, y, cut, .. } = aff.shape {
                let len = aff.dot_len(self.global);
                let cut_to =
                    |cut: Option<Cut>, (_, operand): (Precision, Operand), y: bool| match cut {
                        Some(c) if c.y == y => {
                            let w = aff.w(self.global[0]) as usize;
                            let reach = operand.reach(aff.trips(), self.global, w);
                            (reach * c.eighths / 8).max(1)
                        }
                        _ => len,
                    };
                let xs = wave(cut_to(cut, x, false), f64::sin, 0.29);
                let ys = wave(cut_to(cut, y, true), f64::cos, 0.53);
                m.insert("x".into(), FloatVec::from_f64_slice(&xs, x.0));
                m.insert("y".into(), FloatVec::from_f64_slice(&ys, y.0));
            } else if let Some(p) = self.kernel.buffer_elem("x") {
                let xs = wave(aff.dot_len(self.global), f64::sin, 0.29);
                m.insert("x".into(), FloatVec::from_f64_slice(&xs, p));
            }
        }
        m
    }
}

/// Buffer contents as bit patterns, so NaN payloads compare exactly.
fn bits(v: &FloatVec) -> Vec<u64> {
    match v {
        FloatVec::F16(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
        FloatVec::F32(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
        FloatVec::F64(xs) => xs.iter().map(|x| x.to_bits()).collect(),
    }
}

fn assert_same_bits(want: &BufferMap, got: &BufferMap, what: &str, k: &Kernel) {
    for (name, x) in want {
        assert!(
            bits(x) == bits(&got[name]),
            "{what}: buffer `{name}` differs from the interpreter\n{}",
            kernel_to_string(k)
        );
    }
}

/// What one case ran on besides the item-by-item executor.
struct Engaged {
    lockstep: bool,
    /// Chunks at 8 threads.
    chunked: bool,
    /// A fused dot-product loop once for a whole lock-step block.
    lockstep_dot: bool,
    /// A work-item's fused dot-product loop in more than one strip.
    long_dot: bool,
    /// A fused dot-product loop refused before its first trip, its index
    /// progression leaving an operand buffer.
    dot_fault: bool,
    /// An op run once for a group of lock-step lanes.
    uniform: bool,
    /// A load or store moving a slice for a group of lock-step lanes.
    slice: bool,
}

/// How far a case moved the scratch's tallies.
struct Tallies([u64; 5]);

impl Tallies {
    fn of(scratch: &VmScratch) -> Tallies {
        Tallies([
            scratch.lockstep_dot_loops(),
            scratch.long_dot_loops(),
            scratch.dot_loop_faults(),
            scratch.uniform_ops(),
            scratch.slice_accesses(),
        ])
    }

    /// What ran since `self`, and what `plan` decides at 8 threads.
    fn engaged(&self, scratch: &VmScratch, plan: &LaunchPlan) -> Engaged {
        let Tallies([dot, long, faults, uniform, slice]) = Tallies::of(scratch);
        Engaged {
            lockstep: plan.lockstep(),
            chunked: plan.chunks() > 1,
            lockstep_dot: dot > self.0[0],
            long_dot: long > self.0[1],
            dot_fault: faults > self.0[2],
            uniform: uniform > self.0[3],
            slice: slice > self.0[4],
        }
    }
}

/// Runs one case through every engine and asserts agreement, and reports
/// which executors ran.
fn check(case: &Case, scratch: &mut VmScratch) -> Engaged {
    let k = &case.kernel;
    check_kernel(k).expect("generated kernels are well-typed");
    let errors = verifier_errors(k);
    assert!(
        errors.is_empty(),
        "verifier errors {errors:?}\n{}",
        kernel_to_string(k)
    );
    let launch = case.launch();
    let mut want = case.buffers();
    let counts = run_kernel(k, &mut want, &launch)
        .unwrap_or_else(|e| panic!("interp: {e}\n{}", kernel_to_string(k)));

    let compiled = compile_kernel(k).expect("well-typed kernels compile");
    let mut got = case.buffers();
    let tallies = Tallies::of(scratch);
    let seq = compiled.run_with_scratch(&mut got, &launch, scratch);
    assert_eq!(
        seq.as_ref(),
        Ok(&counts),
        "vm counts\n{}",
        kernel_to_string(k)
    );
    assert_same_bits(&want, &got, "vm", k);
    for threads in [2usize, 8] {
        let mut got = case.buffers();
        let par = compiled.run_parallel(&mut got, &launch, scratch, threads);
        assert_eq!(
            par.as_ref(),
            Ok(&counts),
            "counts at {threads} threads\n{}",
            kernel_to_string(k)
        );
        assert_same_bits(&want, &got, &format!("{threads} threads"), k);
    }

    // Printer/parser round trip: printing is a fixed point, and the
    // reparsed kernel behaves identically.
    let printed = kernel_to_string(k);
    let reparsed =
        parse_kernel(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
    check_kernel(&reparsed).expect("reparsed kernel type-checks");
    assert_eq!(
        kernel_to_string(&reparsed),
        printed,
        "printing is not idempotent"
    );
    let mut again = case.buffers();
    let counts_r = run_kernel(&reparsed, &mut again, &launch).expect("reparsed runs");
    assert_eq!(counts_r, counts, "reparsed kernel counts diverge");
    assert_same_bits(&want, &again, "reparsed", k);

    let plan = compiled.plan(&case.buffers(), &launch, 8);
    tallies.engaged(scratch, &plan)
}

/// Runs a case whose dot loop has an operand buffer cut short through
/// every engine: item by item or in lock step, and in chunks at 2 and 8
/// threads, the VM must give the interpreter's result, its error when a
/// read leaves the buffer, and its buffers, partial writes included.
fn check_cut(case: &Case, scratch: &mut VmScratch) -> Engaged {
    let k = &case.kernel;
    check_kernel(k).expect("generated kernels are well-typed");
    let launch = case.launch();
    let mut want = case.buffers();
    let interp = run_kernel(k, &mut want, &launch);
    let compiled = compile_kernel(k).expect("well-typed kernels compile");
    let tallies = Tallies::of(scratch);
    for threads in [1usize, 2, 8] {
        let mut got = case.buffers();
        let vm = compiled.run_parallel(&mut got, &launch, scratch, threads);
        let shown = kernel_to_string(k);
        assert_eq!(vm, interp, "cut at {threads} threads\n{shown}");
        assert_same_bits(&want, &got, &format!("cut at {threads} threads"), k);
    }
    let plan = compiled.plan(&case.buffers(), &launch, 8);
    tallies.engaged(scratch, &plan)
}

/// A random precision for every buffer parameter of `k`.
fn arb_precision_map(k: &Kernel) -> impl Strategy<Value = HashMap<String, Precision>> {
    let buffers: Vec<String> = k
        .params
        .iter()
        .filter(|p| matches!(p, Param::Buffer { .. }))
        .map(|p| p.name().to_owned())
        .collect();
    proptest::collection::vec(arb_precision(), buffers.len()..buffers.len() + 1)
        .prop_map(move |ps| buffers.iter().cloned().zip(ps).collect())
}

/// The Error-severity findings of `verify_kernel`.
fn verifier_errors(k: &Kernel) -> Vec<VerifyDiagnostic> {
    verify_kernel(k)
        .into_iter()
        .filter(|d| d.severity() == Severity::Error)
        .collect()
}

/// The disjoint-access verdict of `k` retyped to `retype`, and of that
/// computing at `compute`, is the verdict of `k`. The retyped kernel gets
/// `k`'s verifier diagnostics and the cast one `k`'s errors: a cast
/// kernel's `ElemOf` types turn concrete, so a buffer named only by a
/// scalar parameter's element type may turn unused, a warning. Compiling
/// `k` straight from `retype`'s buffer precisions gives the retyped
/// kernel's bytecode.
fn check_variants_share_the_kernels_analyses(
    k: &Kernel,
    retype: &HashMap<String, Precision>,
    compute: &HashMap<String, Precision>,
) {
    let verdict = parallel_safety(k);
    let retyped = retype_buffers(k, retype);
    let cast = insert_casts(&retyped, compute);
    for (what, variant) in [("retyped", &retyped), ("cast", &cast)] {
        assert!(
            parallel_safety(variant) == verdict,
            "{what} to {retype:?}, computing at {compute:?}, changes the verdict\n{}",
            kernel_to_string(k)
        );
    }
    let shown = kernel_to_string(k);
    assert_eq!(
        verify_kernel(&retyped),
        verify_kernel(k),
        "retyped to {retype:?}\n{shown}"
    );
    assert_eq!(
        verifier_errors(&cast),
        verifier_errors(k),
        "retyped to {retype:?}, computing at {compute:?}\n{shown}"
    );
    let key: Vec<Precision> = k
        .params
        .iter()
        .filter_map(|p| match p {
            Param::Buffer { name, .. } => Some(retype[name]),
            Param::Scalar { .. } => None,
        })
        .collect();
    let from_key =
        compile_with_safety(k, &key, Arc::new(verdict)).expect("well-typed kernels compile");
    assert!(
        from_key == compile_kernel(&retyped).expect("well-typed kernels compile"),
        "compiling from {retype:?} differs from compiling the retyped kernel\n{shown}"
    );
}

/// An ill-formed rewrite of one site of a generated kernel.
#[derive(Clone, Copy, Debug)]
enum Defect {
    /// An expression becomes a name nothing binds.
    UnboundName,
    /// A load or store index becomes a float.
    FloatIndex,
    /// A store targets the scalar parameter `n`.
    ScalarStore,
    /// A load or store index becomes a negative constant.
    NegativeIndex,
    /// A `let` repeats in its own scope.
    DuplicateLet,
}

const DEFECTS: [Defect; 5] = [
    Defect::UnboundName,
    Defect::FloatIndex,
    Defect::ScalarStore,
    Defect::NegativeIndex,
    Defect::DuplicateLet,
];

/// Calls `f` on `stmts` and then on every nested loop and branch body.
fn for_each_block(stmts: &mut Vec<Stmt>, f: &mut dyn FnMut(&mut Vec<Stmt>)) {
    f(stmts);
    for s in stmts {
        match s {
            Stmt::For { body, .. } => for_each_block(body, f),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for_each_block(then_body, f);
                for_each_block(else_body, f);
            }
            Stmt::Let { .. } | Stmt::Assign { .. } | Stmt::Store { .. } => {}
        }
    }
}

/// Calls `f` on every expression of `stmts`, each before its operands.
fn for_each_expr(stmts: &mut Vec<Stmt>, f: &mut dyn FnMut(&mut Expr)) {
    fn walk(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
        f(e);
        match e {
            Expr::FloatConst(_) | Expr::IntConst(_) | Expr::Var(_) | Expr::GlobalId(_) => {}
            Expr::Load { index, .. } => walk(index, f),
            Expr::Unary { arg, .. } | Expr::Cast { arg, .. } => walk(arg, f),
            Expr::Bin { lhs, rhs, .. } | Expr::Cmp { lhs, rhs, .. } => {
                walk(lhs, f);
                walk(rhs, f);
            }
            Expr::Select { cond, then, els } => {
                walk(cond, f);
                walk(then, f);
                walk(els, f);
            }
        }
    }
    for_each_block(stmts, &mut |block| {
        for s in block {
            match s {
                Stmt::Let { value, .. } | Stmt::Assign { value, .. } => walk(value, f),
                Stmt::Store { index, value, .. } => {
                    walk(index, f);
                    walk(value, f);
                }
                Stmt::For { start, end, .. } => {
                    walk(start, f);
                    walk(end, f);
                }
                Stmt::If { cond, .. } => walk(cond, f),
            }
        }
    });
}

/// Rewrites each site of `body` where `defect` applies and `pick`
/// returns true; `pick` is asked once per site, in program order.
fn rewrite_sites(body: &mut Vec<Stmt>, defect: Defect, pick: &mut dyn FnMut() -> bool) {
    let bad_index = match defect {
        Defect::FloatIndex => flit(1.5),
        _ => int(-2),
    };
    match defect {
        Defect::UnboundName => for_each_expr(body, &mut |e| {
            if pick() {
                *e = var("ghost");
            }
        }),
        Defect::FloatIndex | Defect::NegativeIndex => {
            for_each_block(body, &mut |block| {
                for s in block {
                    if let Stmt::Store { index, .. } = s {
                        if pick() {
                            *index = bad_index.clone();
                        }
                    }
                }
            });
            for_each_expr(body, &mut |e| {
                if let Expr::Load { index, .. } = e {
                    if pick() {
                        **index = bad_index.clone();
                    }
                }
            });
        }
        Defect::ScalarStore => for_each_block(body, &mut |block| {
            for s in block {
                if let Stmt::Store { buf, .. } = s {
                    if pick() {
                        *buf = "n".into();
                    }
                }
            }
        }),
        Defect::DuplicateLet => for_each_block(body, &mut |block| {
            let mut i = 0;
            while i < block.len() {
                if matches!(block[i], Stmt::Let { .. }) && pick() {
                    block.insert(i + 1, block[i].clone());
                    i += 1;
                }
                i += 1;
            }
        }),
    }
}

/// `k` with one seeded defect at one seeded site: an unbound name where
/// the drawn defect has no site in `k`.
fn mutant(k: &Kernel, rng: &mut TestRng) -> (Defect, Kernel) {
    let sites = |defect| {
        let mut n = 0u64;
        rewrite_sites(&mut k.body.clone(), defect, &mut || {
            n += 1;
            false
        });
        n
    };
    let mut defect = DEFECTS[rng.below(DEFECTS.len() as u64) as usize];
    if sites(defect) == 0 {
        defect = Defect::UnboundName;
    }
    let chosen = rng.below(sites(defect));
    let mut out = k.clone();
    let mut site = 0u64;
    rewrite_sites(&mut out.body, defect, &mut || {
        site += 1;
        site - 1 == chosen
    });
    (defect, out)
}

/// Checks an ill-formed mutant of `case`'s kernel, and reports whether
/// the type checker accepted it. No checker or engine may panic on it; a
/// refused mutant must draw an Error-severity diagnostic, which the
/// session gate relies on; an accepted one runs alike in both engines,
/// errors and partial writes included.
fn check_mutant(case: &Case, defect: Defect, m: &Kernel, scratch: &mut VmScratch) -> bool {
    let checked = check_kernel(m);
    let errors = verifier_errors(m);
    let launch = case.launch();
    let mut want = case.buffers();
    let interp = run_kernel(m, &mut want, &launch);
    let compiled = compile_kernel(m);
    let shown = kernel_to_string(m);
    match checked {
        Err(e) => {
            assert!(
                !errors.is_empty(),
                "{defect:?}: refused ({e}) without a verifier error\n{shown}"
            );
            if let Ok(compiled) = compiled {
                let _ = compiled.run_with_scratch(&mut case.buffers(), &launch, scratch);
            }
            false
        }
        Ok(()) => {
            let compiled = compiled.expect("well-typed kernels compile");
            for threads in [1usize, 8] {
                let mut got = case.buffers();
                let vm = compiled.run_parallel(&mut got, &launch, scratch, threads);
                assert_eq!(vm, interp, "{defect:?} at {threads} threads\n{shown}");
                assert_same_bits(&want, &got, &format!("{defect:?} at {threads} threads"), m);
            }
            true
        }
    }
}

/// The CI matrix seed from `PRESCALER_FAULT_SEED`, 0 when unset.
fn matrix_seed() -> u64 {
    std::env::var("PRESCALER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The generator seed named `name`, mixed with the matrix seed so each
/// row of the CI matrix fuzzes other kernels (unset, the fixed seed's).
fn seed(name: &str) -> u64 {
    TestRng::seed_from_name(name) ^ matrix_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn engines_and_analysis_agree_on_random_kernels() {
    let strategy = arb_case();
    let mut rng = TestRng::new(seed("differential::random_kernels"));
    // Precision maps draw from a stream of their own, so drawing them
    // does not change which kernels the fixed seed generates.
    let mut maps = TestRng::new(seed("differential::precision_maps"));
    // So do the mutants.
    let mut mutants = TestRng::new(seed("differential::mutants"));
    let mut scratch = VmScratch::new();
    let (mut lockstep, mut chunked, mut dot) = (0usize, 0usize, 0usize);
    let (mut long, mut faults) = (0usize, 0usize);
    let (mut uniform, mut slice) = (0usize, 0usize);
    let mut accepted = 0usize;
    for case_no in 0..CASES {
        let case = strategy.generate(&mut rng);
        let _note = CaseNote(case_no);
        let retype = arb_precision_map(&case.kernel).generate(&mut maps);
        let compute = arb_precision_map(&case.kernel).generate(&mut maps);
        check_variants_share_the_kernels_analyses(&case.kernel, &retype, &compute);
        let ran = if case.cut() {
            check_cut(&case, &mut scratch)
        } else {
            check(&case, &mut scratch)
        };
        lockstep += usize::from(ran.lockstep);
        chunked += usize::from(ran.chunked);
        dot += usize::from(ran.lockstep_dot);
        long += usize::from(ran.long_dot);
        faults += usize::from(ran.dot_fault);
        uniform += usize::from(ran.uniform);
        slice += usize::from(ran.slice);
        let (defect, m) = mutant(&case.kernel, &mut mutants);
        accepted += usize::from(check_mutant(&case, defect, &m, &mut scratch));
    }
    let ran = format!(
        "lock step ran on {lockstep}, chunks on {chunked}, lock-step dot loops on {dot}, \
         dot loops of several strips on {long}, dot loops leaving a buffer on {faults}, \
         uniform ops on {uniform} and slice accesses on {slice} of {CASES} cases; the \
         checker accepted {accepted} of their mutants"
    );
    println!("{ran}");
    // Every non-sequential executor must really run on a good share of
    // the cases, or the agreement above says nothing about it; so must
    // each branch of the mutant check.
    assert!(
        lockstep * 5 >= CASES && chunked * 8 >= CASES && dot * 32 >= CASES,
        "{ran}"
    );
    assert!(
        accepted * 16 >= CASES && (CASES - accepted) * 16 >= CASES,
        "{ran}"
    );
    // So must a work-item's dot loop of several strips, and the refusal
    // of a dot loop whose reads leave a buffer.
    assert!(long * 128 >= CASES && faults * 64 >= CASES, "{ran}");
    // So must ops that a block runs once and loads and stores that move
    // a slice.
    assert!(uniform * 4 >= CASES && slice * 32 >= CASES, "{ran}");
}

/// Names the failing case when a check panics (the run is
/// deterministic, so rerunning the test reproduces it).
struct CaseNote(usize);

impl Drop for CaseNote {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("differential fuzzing failed at case {}", self.0);
        }
    }
}
