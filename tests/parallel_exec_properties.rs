//! Differential suite for the data-parallel execution engine.
//!
//! Physical execution parallelism must be unobservable: running any
//! polybench application with the session's real worker-thread budget at
//! 1, 2, or 8 must produce bit-identical host outputs, identical
//! per-event profiles (which embed every launch's `OpCounts`), and an
//! identical `Timeline` — on the clean system and across the seeded
//! fault matrix (`PRESCALER_FAULT_SEED` mixes the universes in CI).
//! Kernels whose store patterns the disjoint-write analysis cannot prove
//! safe must fall back to sequential execution with the same guarantee.

use prescaler_ir::dsl::*;
use prescaler_ir::interp::{BufferMap, Launch};
use prescaler_ir::vm::{compile_kernel, VmScratch};
use prescaler_ir::{Access, FloatVec, ParallelSafety, Precision};
use prescaler_ocl::{HostApp, Outputs, ScalingSpec, Session, Timeline};
use prescaler_polybench::{BenchKind, PolyApp};
use prescaler_sim::{FaultPlan, SystemModel};

/// Matrix seed from the environment, mixed into every plan seed so the
/// CI fault matrix explores distinct universes per row.
fn matrix_seed() -> u64 {
    std::env::var("PRESCALER_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn mixed(seed: u64) -> u64 {
    seed ^ matrix_seed().wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `app` on `system` under `spec` with an explicit real
/// worker-thread budget, returning outputs, the full event stream, and
/// the timeline.
fn run_at(
    app: &PolyApp,
    system: &SystemModel,
    spec: &ScalingSpec,
    threads: usize,
) -> (Outputs, Vec<prescaler_ocl::Event>, Timeline) {
    let mut s =
        Session::new(system.clone(), app.program(), spec.clone()).with_exec_threads(threads);
    let outs = app.run(&mut s).expect("benchmark runs");
    let log = s.into_log();
    (outs, log.events, log.timeline)
}

/// Asserts two runs are observably identical to the bit.
fn assert_runs_identical(
    name: &str,
    threads: usize,
    a: &(Outputs, Vec<prescaler_ocl::Event>, Timeline),
    b: &(Outputs, Vec<prescaler_ocl::Event>, Timeline),
) {
    assert_eq!(
        a.0.len(),
        b.0.len(),
        "{name} @ {threads} threads: output arity diverged"
    );
    for ((la, va), (lb, vb)) in a.0.iter().zip(&b.0) {
        assert_eq!(la, lb, "{name} @ {threads} threads: output order diverged");
        assert_eq!(va.len(), vb.len());
        assert_eq!(va.precision(), vb.precision());
        for i in 0..va.len() {
            let (x, y) = (va.get(i), vb.get(i));
            assert!(
                x.to_bits() == y.to_bits(),
                "{name} @ {threads} threads: output `{la}`[{i}] diverged: {x} vs {y}"
            );
        }
    }
    assert_eq!(
        a.1, b.1,
        "{name} @ {threads} threads: profile events (incl. OpCounts) diverged"
    );
    assert_eq!(a.2, b.2, "{name} @ {threads} threads: timeline diverged");
}

/// The full polybench matrix, clean system: thread budget 1, 2 and 8
/// must be indistinguishable.
#[test]
fn polybench_is_thread_count_invariant_on_the_clean_system() {
    let system = SystemModel::system1();
    let spec = ScalingSpec::baseline();
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let seq = run_at(&app, &system, &spec, 1);
        for threads in [2usize, 8] {
            let par = run_at(&app, &system, &spec, threads);
            assert_runs_identical(&format!("{kind}"), threads, &seq, &par);
        }
    }
}

/// Scaled specs (half-precision targets, so real conversion work runs on
/// the parallel conversion paths) stay thread-count invariant too.
#[test]
fn scaled_specs_are_thread_count_invariant() {
    let system = SystemModel::system1();
    for kind in [BenchKind::Gemm, BenchKind::Atax, BenchKind::TwoDConv] {
        let app = PolyApp::tiny(kind);
        // Discover object labels from a baseline run, then scale them all.
        let mut probe = Session::new(system.clone(), app.program(), ScalingSpec::baseline());
        app.run(&mut probe).expect("probe run");
        let mut spec = ScalingSpec::baseline();
        for obj in &probe.log().objects {
            spec = spec.with_target(&obj.label, Precision::Half);
        }
        let seq = run_at(&app, &system, &spec, 1);
        for threads in [2usize, 8] {
            let par = run_at(&app, &system, &spec, threads);
            assert_runs_identical(&format!("{kind}/half"), threads, &seq, &par);
        }
    }
}

/// Under seeded fault universes (noise, corruption, transient failures,
/// throttle) the fault draws depend only on the operation sequence —
/// never on the thread budget — so runs stay bit-identical.
#[test]
fn faulty_systems_are_thread_count_invariant() {
    for seed in [5u64, 6, 7] {
        // A fresh plan per run: `FaultPlan` clones share their draw
        // counters, so reusing one system across runs would hand the
        // second run a different (continued) fault stream — the runs
        // must replay the *same* fault universe to be comparable.
        let mk_system = || {
            SystemModel::system1().with_faults(
                FaultPlan::seeded(mixed(seed))
                    .with_clock_noise(0.2)
                    .with_buffer_corruption(0.3)
                    .with_transfer_failures(0.2)
                    .with_throttle(0.3, 0.5),
            )
        };
        let spec = ScalingSpec::baseline();
        for kind in [BenchKind::Gemm, BenchKind::Mvt] {
            let app = PolyApp::tiny(kind);
            let seq = run_at(&app, &mk_system(), &spec, 1);
            for threads in [2usize, 8] {
                let par = run_at(&app, &mk_system(), &spec, threads);
                assert_runs_identical(&format!("{kind}/seed{seed}"), threads, &seq, &par);
            }
        }
    }
}

/// A kernel with overlapping writes (every work-item stores to the same
/// accumulator cell) must be rejected by the disjoint-write analysis or
/// its per-launch resolution, and `run_parallel` must fall back to
/// sequential execution — bit-identically, since sequential *is* the
/// fallback.
#[test]
fn overlapping_writes_fall_back_to_sequential() {
    let k = kernel("overlap")
        .buffer("x", Precision::Double, Access::Read)
        .buffer("acc", Precision::Double, Access::ReadWrite)
        .body(vec![
            let_("i", global_id(0)),
            store("acc", int(0), load("acc", int(0)) + load("x", var("i"))),
        ]);
    let compiled = compile_kernel(&k).expect("compiles");
    // The analysis proves all stores affine (constant), but the resolved
    // axis stride is zero, so chunked execution must refuse.
    let n = 256usize;
    let mk = || {
        let mut m = BufferMap::new();
        m.insert(
            "x".into(),
            FloatVec::from_f64_slice(
                &(0..n).map(|i| (i as f64).cos()).collect::<Vec<_>>(),
                Precision::Double,
            ),
        );
        m.insert("acc".into(), FloatVec::zeros(1, Precision::Double));
        m
    };
    let launch = Launch::one_d(n);
    let mut seq = mk();
    let counts_seq = compiled.run(&mut seq, &launch).unwrap();
    for threads in [2usize, 8] {
        let mut par = mk();
        let mut scratch = VmScratch::default();
        let counts_par = compiled
            .run_parallel(&mut par, &launch, &mut scratch, threads)
            .unwrap();
        assert_eq!(counts_seq, counts_par);
        assert_eq!(seq["acc"], par["acc"]);
    }

    // A store at a loop-carried index is rejected at analysis time.
    let rejected = kernel("scatter")
        .buffer("y", Precision::Double, Access::ReadWrite)
        .int_param("n")
        .body(vec![for_(
            "j",
            int(0),
            var("n"),
            vec![store("y", var("j"), flit(1.0))],
        )]);
    let compiled = compile_kernel(&rejected).expect("compiles");
    assert!(
        matches!(compiled.parallel_safety(), ParallelSafety::Unproven(_)),
        "loop-indexed stores must be unprovable"
    );
}

/// Non-finite (fault-poisoned) inputs exercise NaN/Inf propagation
/// through the carved-chunk store path; the parallel VM must still
/// match sequential execution bit for bit.
#[test]
fn poisoned_inputs_are_thread_count_invariant_at_the_vm_level() {
    use prescaler_ir::dsl::*;
    use prescaler_ir::interp::{BufferMap, Launch};
    use prescaler_ir::vm::{compile_kernel, VmScratch};
    use prescaler_ir::{Access, FloatVec, Precision};
    let k = kernel("gemm")
        .buffer("a", Precision::Double, Access::Read)
        .buffer("b", Precision::Double, Access::Read)
        .buffer("c", Precision::Double, Access::ReadWrite)
        .float_param_like("alpha", "c")
        .float_param_like("beta", "c")
        .int_param("ni")
        .int_param("nj")
        .int_param("nk")
        .body(vec![
            let_("j", global_id(0)),
            let_("i", global_id(1)),
            if_(
                lt(var("i"), var("ni")),
                vec![if_(
                    lt(var("j"), var("nj")),
                    vec![
                        let_acc("acc", "c", flit(0.0)),
                        for_(
                            "k",
                            int(0),
                            var("nk"),
                            vec![add_assign(
                                "acc",
                                load("a", var("i") * var("nk") + var("k"))
                                    * load("b", var("k") * var("nj") + var("j")),
                            )],
                        ),
                        store(
                            "c",
                            var("i") * var("nj") + var("j"),
                            var("alpha") * var("acc")
                                + var("beta") * load("c", var("i") * var("nj") + var("j")),
                        ),
                    ],
                )],
            ),
        ]);
    let compiled = compile_kernel(&k).expect("compiles");
    let n = 8usize;
    // Try each poison in each buffer position.
    for (pbuf, pidx, pval) in [
        ("a", 3usize, f64::INFINITY),
        ("a", 3, f64::NEG_INFINITY),
        ("a", 3, f64::NAN),
        ("b", 27, f64::INFINITY),
        ("b", 27, f64::NAN),
        ("c", 3, f64::NEG_INFINITY),
        ("c", 3, f64::INFINITY),
        ("c", 3, f64::NAN),
    ] {
        let mk = || {
            let mut m = BufferMap::new();
            for name in ["a", "b", "c"] {
                let xs: Vec<f64> = (0..n * n).map(|i| ((i + 1) as f64 * 0.37).sin()).collect();
                let mut v = FloatVec::from_f64_slice(&xs, Precision::Double);
                if name == pbuf {
                    v.set(pidx, pval);
                }
                m.insert(name.to_string(), v);
            }
            m
        };
        let launch = Launch::two_d(n, n)
            .arg_float("alpha", 1.5)
            .arg_float("beta", 1.2)
            .arg_int("ni", n as i64)
            .arg_int("nj", n as i64)
            .arg_int("nk", n as i64);
        let mut seq = mk();
        let counts_seq = compiled.run(&mut seq, &launch).unwrap();
        for threads in [2usize, 8] {
            let mut par = mk();
            let mut scratch = VmScratch::default();
            let counts_par = compiled
                .run_parallel(&mut par, &launch, &mut scratch, threads)
                .unwrap();
            assert_eq!(
                counts_seq, counts_par,
                "{pbuf}[{pidx}]={pval} counts @ {threads}"
            );
            for i in 0..n * n {
                let (x, y) = (seq["c"].get(i), par["c"].get(i));
                assert!(
                    x.to_bits() == y.to_bits(),
                    "{pbuf}[{pidx}]={pval} @ {threads}t: c[{i}] {x} vs {y}"
                );
            }
        }
    }
}

/// Every polybench kernel's lock-step verdict on its launches at scale
/// 0.1: all admitted but the two triangular `*_compute` kernels, whose
/// inner loop starts at gid0 — its counter is no launch-uniform index
/// dimension, so their stores are not affine.
#[test]
fn polybench_lockstep_verdicts_at_scale_one_tenth() {
    use prescaler_ir::ScalarBound;
    use prescaler_ocl::{run_app, Event};
    use prescaler_polybench::InputSet;

    let refused = ["corr_compute", "covar_compute"];
    let mut seen = Vec::new();
    for &kind in &BenchKind::ALL {
        let app = PolyApp::new(kind, kind.dims(0.1), InputSet::Default, 7);
        let (_, log) = run_app(&app, &SystemModel::system1(), &ScalingSpec::baseline())
            .expect("baseline runs");
        let program = app.program();
        for event in &log.events {
            let Event::KernelLaunch {
                kernel,
                scalar_args,
                global,
                ..
            } = event
            else {
                continue;
            };
            let launch = scalar_args.iter().fold(
                Launch {
                    global: *global,
                    args: Vec::new(),
                },
                |l, (name, v)| match v {
                    ScalarBound::Int(i) => l.arg_int(name.clone(), *i),
                    ScalarBound::Float(f) => l.arg_float(name.clone(), *f),
                },
            );
            let compiled =
                compile_kernel(program.kernel(kernel).expect("logged kernel")).expect("compiles");
            let lockstep = compiled.plan(&BufferMap::new(), &launch, 1).lockstep();
            match compiled.parallel_safety() {
                ParallelSafety::Unproven(why) => {
                    assert!(refused.contains(&kernel.as_str()), "{kernel}: {why}");
                    assert_eq!(*why, "a store index is not affine in the global id");
                    assert!(!lockstep);
                }
                ParallelSafety::Disjoint(summary) => {
                    assert_eq!(summary.lockstep(&launch, 64), Ok(()), "{kernel}");
                    assert!(lockstep, "{kernel} at {global:?}");
                }
            }
            seen.push(kernel.clone());
        }
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), 27, "every polybench kernel launched: {seen:?}");
}

/// The disjoint-access verdict reads no precision, which is what lets a
/// variant cache run the analysis once per kernel: every polybench kernel
/// under every buffer-precision map gets the base kernel's verdict, both
/// retyped to the map and retyped then cast to compute one precision
/// higher (Double wrapping to Half), so that every load carries a cast.
#[test]
fn disjoint_access_verdicts_ignore_precisions() {
    use prescaler_ir::analysis::parallel_safety;
    use prescaler_ir::passes::{insert_casts, retype_buffers};
    use prescaler_ir::Param;
    use std::collections::HashMap;

    let up = |p: Precision| match p {
        Precision::Half => Precision::Single,
        Precision::Single => Precision::Double,
        Precision::Double => Precision::Half,
    };
    let (mut kernels, mut cases) = (0usize, 0usize);
    for &kind in &BenchKind::ALL {
        for base in &PolyApp::tiny(kind).program().kernels {
            let verdict = parallel_safety(base);
            let buffers: Vec<&str> = base
                .params
                .iter()
                .filter(|p| matches!(p, Param::Buffer { .. }))
                .map(Param::name)
                .collect();
            let maps = 3usize.pow(buffers.len() as u32);
            for code in 0..maps {
                let mut digits = code;
                let map: HashMap<String, Precision> = buffers
                    .iter()
                    .map(|&b| {
                        let p = [Precision::Half, Precision::Single, Precision::Double][digits % 3];
                        digits /= 3;
                        (b.to_owned(), p)
                    })
                    .collect();
                let retyped = retype_buffers(base, &map);
                let compute = map.iter().map(|(b, &p)| (b.clone(), up(p))).collect();
                let cast = insert_casts(&retyped, &compute);
                for (what, variant) in [("retyped", &retyped), ("cast", &cast)] {
                    assert!(
                        parallel_safety(variant) == verdict,
                        "{}: {what} under {map:?} changes the verdict",
                        base.name
                    );
                    cases += 1;
                }
            }
            kernels += 1;
        }
    }
    assert_eq!((kernels, cases), (27, 1566), "kernels and cases checked");
}

/// A variant cache compiles each variant straight from its kernel and the
/// key's buffer precisions, and verifies each kernel once: every
/// polybench kernel under every buffer-precision map compiles from the
/// key to exactly the bytecode of the kernel retyped to the map, and to
/// that of the kernel retyped then cast as above; and both variants get
/// the base kernel's verifier diagnostics.
#[test]
fn compiling_from_the_key_matches_compiling_the_retyped_kernel() {
    use prescaler_ir::analysis::parallel_safety;
    use prescaler_ir::passes::{insert_casts, retype_buffers};
    use prescaler_ir::vm::compile_with_safety;
    use prescaler_ir::{verify_kernel, Param};
    use std::collections::HashMap;
    use std::sync::Arc;

    let up = |p: Precision| match p {
        Precision::Half => Precision::Single,
        Precision::Single => Precision::Double,
        Precision::Double => Precision::Half,
    };
    let (mut kernels, mut cases) = (0usize, 0usize);
    for &kind in &BenchKind::ALL {
        for base in &PolyApp::tiny(kind).program().kernels {
            let safety = Arc::new(parallel_safety(base));
            let diagnostics = verify_kernel(base);
            let buffers: Vec<&str> = base
                .params
                .iter()
                .filter(|p| matches!(p, Param::Buffer { .. }))
                .map(Param::name)
                .collect();
            for code in 0..3usize.pow(buffers.len() as u32) {
                let mut digits = code;
                let key: Vec<Precision> = buffers
                    .iter()
                    .map(|_| {
                        let p = [Precision::Half, Precision::Single, Precision::Double][digits % 3];
                        digits /= 3;
                        p
                    })
                    .collect();
                let map: HashMap<String, Precision> = buffers
                    .iter()
                    .map(|&b| b.to_owned())
                    .zip(key.iter().copied())
                    .collect();
                let retyped = retype_buffers(base, &map);
                let compute = map.iter().map(|(b, &p)| (b.clone(), up(p))).collect();
                let cast = insert_casts(&retyped, &compute);
                for (what, variant, source) in [("retyped", &retyped, base), ("cast", &cast, &cast)]
                {
                    let want = compile_kernel(variant).expect("polybench variants compile");
                    let got = compile_with_safety(source, &key, Arc::clone(&safety))
                        .expect("polybench variants compile");
                    assert!(
                        got == want,
                        "{}: {what} under {map:?} compiles to other bytecode from the key",
                        base.name
                    );
                    assert_eq!(
                        verify_kernel(variant),
                        diagnostics,
                        "{}: {what} under {map:?} verifies otherwise",
                        base.name
                    );
                    cases += 1;
                }
            }
            kernels += 1;
        }
    }
    assert_eq!((kernels, cases), (27, 1566), "kernels and cases checked");
}

/// The superinstructions each shipped polybench kernel compiles to, at its
/// declared precisions and with every buffer at binary16: code length,
/// then the sites of `DotLoop`, `DotStep`, `LoadMulAdd`, `FMulAcc`,
/// `JumpICmpFalse`, `CountAddJump` and `IAddImmJump`.
#[rustfmt::skip]
const FUSED: [(&str, [usize; 8], [usize; 8]); 27] = [
    ("conv2d", [63, 0, 0, 3, 8, 0, 0, 0], [63, 0, 0, 3, 8, 0, 0, 0]),
    ("mm2_k1", [16, 1, 0, 0, 0, 0, 0, 0], [16, 1, 0, 0, 0, 0, 0, 0]),
    ("mm2_k2", [16, 1, 0, 0, 0, 0, 0, 0], [16, 1, 0, 0, 0, 0, 0, 0]),
    ("conv3d", [107, 0, 0, 3, 10, 1, 1, 0], [107, 0, 0, 3, 10, 1, 1, 0]),
    ("mm3_k1", [16, 1, 0, 0, 0, 0, 0, 0], [16, 1, 0, 0, 0, 0, 0, 0]),
    ("mm3_k2", [16, 1, 0, 0, 0, 0, 0, 0], [16, 1, 0, 0, 0, 0, 0, 0]),
    ("mm3_k3", [16, 1, 0, 0, 0, 0, 0, 0], [16, 1, 0, 0, 0, 0, 0, 0]),
    ("atax_k1", [14, 0, 0, 1, 1, 1, 1, 0], [14, 0, 0, 1, 1, 1, 1, 0]),
    ("atax_k2", [14, 0, 0, 1, 1, 1, 1, 0], [14, 0, 0, 1, 1, 1, 1, 0]),
    ("bicg_k1", [14, 0, 0, 1, 1, 1, 1, 0], [14, 0, 0, 1, 1, 1, 1, 0]),
    ("bicg_k2", [14, 0, 0, 1, 1, 1, 1, 0], [14, 0, 0, 1, 1, 1, 1, 0]),
    ("corr_mean", [14, 0, 0, 1, 0, 1, 1, 0], [14, 0, 0, 1, 0, 1, 1, 0]),
    ("corr_std", [19, 0, 0, 1, 1, 1, 1, 0], [19, 0, 0, 1, 1, 1, 1, 0]),
    ("corr_reduce", [20, 0, 0, 1, 0, 0, 0, 0], [20, 0, 0, 1, 0, 0, 0, 0]),
    ("corr_compute", [32, 1, 0, 0, 0, 1, 1, 0], [32, 1, 0, 0, 0, 1, 1, 0]),
    ("covar_mean", [14, 0, 0, 1, 0, 1, 1, 0], [14, 0, 0, 1, 0, 1, 1, 0]),
    ("covar_reduce", [16, 0, 0, 1, 0, 0, 0, 0], [16, 0, 0, 1, 0, 0, 0, 0]),
    ("covar_compute", [18, 1, 0, 0, 0, 1, 1, 0], [18, 1, 0, 0, 0, 1, 1, 0]),
    ("fdtd_ey", [27, 0, 0, 3, 0, 0, 0, 0], [27, 0, 0, 3, 0, 0, 0, 0]),
    ("fdtd_ex", [27, 0, 0, 2, 0, 0, 0, 0], [27, 0, 0, 2, 0, 0, 0, 0]),
    ("fdtd_hz", [29, 0, 0, 4, 0, 0, 0, 0], [29, 0, 0, 4, 0, 0, 0, 0]),
    ("gemm", [19, 1, 0, 1, 1, 0, 0, 0], [19, 1, 0, 1, 1, 0, 0, 0]),
    ("gesummv", [21, 0, 0, 2, 3, 1, 1, 0], [21, 0, 0, 2, 3, 1, 1, 0]),
    ("mvt_k1", [15, 0, 0, 1, 1, 1, 1, 0], [15, 0, 0, 1, 1, 1, 1, 0]),
    ("mvt_k2", [15, 0, 0, 1, 1, 1, 1, 0], [15, 0, 0, 1, 1, 1, 1, 0]),
    ("syr2k", [25, 0, 1, 3, 1, 1, 1, 0], [25, 0, 1, 3, 1, 1, 1, 0]),
    ("syrk", [19, 1, 0, 1, 1, 0, 0, 0], [19, 1, 0, 1, 1, 0, 0, 0]),
];

/// Code length and fused-op sites of `compiled`, read from its `Debug`
/// form: the ops list precedes the count table.
fn fused_sites(compiled: &prescaler_ir::vm::CompiledKernel) -> [usize; 8] {
    let shown = format!("{compiled:?}");
    let ops = &shown[shown.find("ops: [").expect("ops are shown")..];
    let ops = &ops[..ops
        .find("], counts_table")
        .expect("the count table follows")];
    let mut sites = [compiled.code_len(), 0, 0, 0, 0, 0, 0, 0];
    let names = [
        "DotLoop",
        "DotStep",
        "LoadMulAdd",
        "FMulAcc",
        "JumpICmpFalse",
        "CountAddJump",
        "IAddImmJump",
    ];
    for (n, name) in sites[1..].iter_mut().zip(names) {
        *n = ops.matches(&format!("{name} {{")).count();
    }
    sites
}

/// Every shipped polybench kernel keeps its superinstructions: the code
/// length and the sites of each fused op, at the declared precisions and
/// with every buffer at binary16, are pinned.
#[test]
fn polybench_kernels_keep_their_superinstructions() {
    use prescaler_ir::analysis::parallel_safety;
    use prescaler_ir::vm::compile_with_safety;
    use prescaler_ir::Param;
    use std::sync::Arc;

    let mut seen = Vec::new();
    for &kind in &BenchKind::ALL {
        for k in &PolyApp::tiny(kind).program().kernels {
            let declared = compile_kernel(k).expect("polybench kernels compile");
            let buffers = k
                .params
                .iter()
                .filter(|p| matches!(p, Param::Buffer { .. }))
                .count();
            let all_half = vec![Precision::Half; buffers];
            let half = compile_with_safety(k, &all_half, Arc::new(parallel_safety(k)))
                .expect("polybench kernels compile");
            seen.push((k.name.clone(), fused_sites(&declared), fused_sites(&half)));
        }
    }
    let want: Vec<_> = FUSED
        .iter()
        .map(|&(n, d, h)| (n.to_owned(), d, h))
        .collect();
    assert_eq!(seen, want);
}

/// How each shipped polybench kernel's ops run in a lock-step block, at
/// its declared precisions and with every buffer at binary16: the ops
/// that run once, all of whose sources are uniform across a row's lanes,
/// then the loads and the stores whose index is consecutive, which move a
/// slice.
#[rustfmt::skip]
const SHAPES: [(&str, [usize; 3], [usize; 3]); 27] = [
    ("conv2d", [20, 9, 1], [20, 9, 1]),
    ("mm2_k1", [6, 0, 1], [6, 0, 1]),
    ("mm2_k2", [6, 0, 1], [6, 0, 1]),
    ("conv3d", [56, 11, 1], [56, 11, 1]),
    ("mm3_k1", [6, 0, 1], [6, 0, 1]),
    ("mm3_k2", [6, 0, 1], [6, 0, 1]),
    ("mm3_k3", [6, 0, 1], [6, 0, 1]),
    ("atax_k1", [5, 0, 1], [5, 0, 1]),
    ("atax_k2", [5, 1, 1], [5, 1, 1]),
    ("bicg_k1", [5, 0, 1], [5, 0, 1]),
    ("bicg_k2", [5, 1, 1], [5, 1, 1]),
    ("corr_mean", [4, 1, 1], [4, 1, 1]),
    ("corr_std", [4, 2, 1], [4, 2, 1]),
    ("corr_reduce", [5, 3, 1], [5, 3, 1]),
    ("corr_compute", [4, 0, 0], [4, 0, 0]),
    ("covar_mean", [4, 1, 1], [4, 1, 1]),
    ("covar_reduce", [4, 2, 1], [4, 2, 1]),
    ("covar_compute", [2, 0, 0], [2, 0, 0]),
    ("fdtd_ey", [8, 3, 2], [8, 3, 2]),
    ("fdtd_ex", [7, 3, 1], [7, 3, 1]),
    ("fdtd_hz", [8, 5, 1], [8, 5, 1]),
    ("gemm", [6, 1, 1], [6, 1, 1]),
    ("gesummv", [7, 0, 2], [7, 0, 2]),
    ("mvt_k1", [4, 1, 1], [4, 1, 1]),
    ("mvt_k2", [4, 2, 1], [4, 2, 1]),
    ("syr2k", [9, 1, 1], [9, 1, 1]),
    ("syrk", [6, 1, 1], [6, 1, 1]),
];

/// The top-level items of a `Debug` list body, split at the commas
/// outside any brackets.
fn debug_items(list: &str) -> Vec<&str> {
    let (mut items, mut depth, mut from) = (Vec::new(), 0i32, 0);
    for (i, ch) in list.char_indices() {
        match ch {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                items.push(list[from..i].trim());
                from = i + 1;
            }
            _ => {}
        }
    }
    items.push(list[from..].trim());
    items
}

/// The `Debug` list body of field `field` of `shown`.
fn debug_field<'a>(shown: &'a str, field: &str) -> &'a str {
    let from = shown
        .find(&format!("{field}: ["))
        .expect("the field is shown")
        + field.len()
        + 3;
    let mut depth = 1;
    for (i, ch) in shown[from..].char_indices() {
        match ch {
            '[' => depth += 1,
            ']' if depth == 1 => return &shown[from..from + i],
            ']' => depth -= 1,
            _ => {}
        }
    }
    panic!("unterminated `{field}`")
}

/// Ops that run once, slice loads and slice stores of `compiled`, read
/// from its `Debug` form: its ops and how a lock-step block runs each.
fn lane_shapes(compiled: &prescaler_ir::vm::CompiledKernel) -> [usize; 3] {
    let shown = format!("{compiled:?}");
    let ops = debug_items(debug_field(&shown, "ops"));
    let runs = debug_items(debug_field(&shown, "runs"));
    assert_eq!(ops.len(), runs.len());
    let mut shapes = [0; 3];
    for (op, run) in ops.iter().zip(&runs) {
        if run.starts_with("Once") {
            shapes[0] += 1;
        } else if *run == "Slice" {
            shapes[if op.starts_with("Store") { 2 } else { 1 }] += 1;
        }
    }
    shapes
}

/// Every shipped polybench kernel keeps its lock-step fast paths: the ops
/// that run once and the loads and stores that move a slice, at the
/// declared precisions and with every buffer at binary16, are pinned.
#[test]
fn polybench_kernels_keep_their_lane_shapes() {
    use prescaler_ir::analysis::parallel_safety;
    use prescaler_ir::vm::compile_with_safety;
    use prescaler_ir::Param;
    use std::sync::Arc;

    let mut seen = Vec::new();
    for &kind in &BenchKind::ALL {
        for k in &PolyApp::tiny(kind).program().kernels {
            let declared = compile_kernel(k).expect("polybench kernels compile");
            let buffers = k
                .params
                .iter()
                .filter(|p| matches!(p, Param::Buffer { .. }))
                .count();
            let all_half = vec![Precision::Half; buffers];
            let half = compile_with_safety(k, &all_half, Arc::new(parallel_safety(k)))
                .expect("polybench kernels compile");
            seen.push((k.name.clone(), lane_shapes(&declared), lane_shapes(&half)));
        }
    }
    let want: Vec<_> = SHAPES
        .iter()
        .map(|&(n, d, h)| (n.to_owned(), d, h))
        .collect();
    assert_eq!(seen, want);
}
