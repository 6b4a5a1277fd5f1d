//! Launch-by-launch replay of the whole benchmark suite at the IR level:
//! every kernel launch an app makes in a `Session` is rebuilt from the
//! session's profile (the scaled kernel variant, its buffers and its scalar
//! arguments) and run through both the reference tree-walking interpreter
//! and the bytecode VM. The two must agree bit for bit, buffers and
//! operation counts alike, and both must match the counts the session
//! logged — at every storage precision and with in-kernel casts.

use prescaler_ir::interp::{run_kernel, ArgValue, BufferMap, Launch};
use prescaler_ir::passes::{insert_casts, retype_buffers};
use prescaler_ir::vm::compile_kernel;
use prescaler_ir::{FloatVec, Precision, ScalarBound};
use prescaler_ocl::{Event, HostApp, ScalingSpec, Session};
use prescaler_polybench::input::generate;
use prescaler_polybench::{BenchKind, InputSet, PolyApp};
use prescaler_sim::SystemModel;
use std::collections::HashMap;

/// Buffer contents as bit patterns, so NaN payloads compare exactly.
fn bits(v: &FloatVec) -> Vec<u64> {
    match v {
        FloatVec::F16(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
        FloatVec::F32(xs) => xs.iter().map(|x| u64::from(x.to_bits())).collect(),
        FloatVec::F64(xs) => xs.iter().map(|x| x.to_bits()).collect(),
    }
}

/// Runs `app` under `spec` in a session, then replays each of its kernel
/// launches through the interpreter and the VM. Buffers are bound per
/// memory object at its device precision, seeded from the app's Default
/// input range, and carried forward from launch to launch. Returns the
/// number of launches replayed and of non-finite elements they wrote.
fn replay(app: &PolyApp, spec: &ScalingSpec) -> (usize, usize) {
    let mut session = Session::new(SystemModel::system1(), app.program(), spec.clone());
    app.run(&mut session).expect("benchmark runs");
    let log = session.log();
    let program = app.program();
    let range = app.kind().default_range();
    let device: HashMap<&str, Precision> = log
        .objects
        .iter()
        .map(|o| (o.label.as_str(), o.device_precision))
        .collect();
    let mut data: HashMap<&str, FloatVec> = log
        .objects
        .iter()
        .zip(0u64..)
        .map(|(o, seed)| {
            let values = generate(InputSet::Default, range, o.len, seed);
            let data = FloatVec::from_f64_slice(&values, o.device_precision);
            (o.label.as_str(), data)
        })
        .collect();

    let (mut launches, mut non_finite) = (0, 0);
    for event in &log.events {
        let Event::KernelLaunch {
            kernel,
            args,
            scalar_args,
            global,
            counts,
            ..
        } = event
        else {
            continue;
        };
        let what = format!("{}: launch {launches} of `{kernel}`", app.name());
        let precisions: HashMap<String, Precision> = args
            .iter()
            .map(|(param, label)| (param.clone(), device[label.as_str()]))
            .collect();
        let mut variant =
            retype_buffers(program.kernel(kernel).expect("logged kernel"), &precisions);
        if let Some(compute) = spec.in_kernel.get(kernel) {
            variant = insert_casts(&variant, compute);
        }
        let launch = Launch {
            global: *global,
            args: scalar_args
                .iter()
                .map(|(name, bound)| {
                    let v = match *bound {
                        ScalarBound::Int(v) => ArgValue::Int(v),
                        ScalarBound::Float(v) => ArgValue::Float(v),
                    };
                    (name.clone(), v)
                })
                .collect(),
        };
        let mut by_interp: BufferMap = args
            .iter()
            .map(|(param, label)| (param.clone(), data[label.as_str()].clone()))
            .collect();
        let mut by_vm = by_interp.clone();
        let interp_counts = run_kernel(&variant, &mut by_interp, &launch)
            .unwrap_or_else(|e| panic!("{what}: interpreter: {e}"));
        let vm_counts = compile_kernel(&variant)
            .and_then(|c| c.run(&mut by_vm, &launch))
            .unwrap_or_else(|e| panic!("{what}: VM: {e}"));
        assert_eq!(interp_counts, vm_counts, "{what}: counts diverge");
        assert_eq!(
            interp_counts, **counts,
            "{what}: counts differ from the log"
        );
        for (param, label) in args {
            let out = by_interp.remove(param).expect("bound buffer");
            assert!(
                bits(&out) == bits(&by_vm[param]),
                "{what}: `{param}` diverged between interpreter and VM"
            );
            non_finite += out.count_non_finite();
            data.insert(label.as_str(), out);
        }
        launches += 1;
    }
    assert!(launches > 0, "{}: no kernel launches", app.name());
    (launches, non_finite)
}

/// The labels of every memory object the app creates.
fn labels(app: &PolyApp) -> Vec<String> {
    let mut s = Session::new(
        SystemModel::system1(),
        app.program(),
        ScalingSpec::baseline(),
    );
    app.run(&mut s).expect("baseline");
    s.log().objects.iter().map(|o| o.label.clone()).collect()
}

/// Every object stored at `p`.
fn all_at(app: &PolyApp, p: Precision) -> ScalingSpec {
    labels(app)
        .iter()
        .fold(ScalingSpec::baseline(), |spec, l| spec.with_target(l, p))
}

#[test]
fn all_benchmarks_agree_at_baseline() {
    for kind in BenchKind::ALL {
        replay(&PolyApp::tiny(kind), &ScalingSpec::baseline());
    }
}

#[test]
fn all_benchmarks_agree_fully_scaled_to_single() {
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        replay(&app, &all_at(&app, Precision::Single));
    }
}

#[test]
fn all_benchmarks_agree_fully_scaled_to_half() {
    let mut non_finite = 0;
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        non_finite += replay(&app, &all_at(&app, Precision::Half)).1;
    }
    // Half overflow (±inf, and NaN from inf − inf) must be among what the
    // engines agree on bit for bit.
    assert!(non_finite > 0, "no half-precision overflow was replayed");
}

#[test]
fn in_kernel_casts_agree() {
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let mut spec = ScalingSpec::baseline();
        // Lower every kernel's every buffer param to single, in-kernel.
        for kernel in &app.program().kernels {
            let map = kernel
                .buffer_names()
                .into_iter()
                .map(|b| (b.to_owned(), Precision::Single))
                .collect();
            spec.in_kernel.insert(kernel.name.clone(), map);
        }
        replay(&app, &spec);
    }
}

#[test]
fn mixed_precision_objects_agree() {
    // Alternate precisions across objects to exercise promotion paths.
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let spec = labels(&app)
            .iter()
            .enumerate()
            .fold(ScalingSpec::baseline(), |spec, (i, l)| {
                let p = [Precision::Double, Precision::Single, Precision::Half][i % 3];
                spec.with_target(l, p)
            });
        replay(&app, &spec);
    }
}
