//! Properties of the static precision-safety analysis and the IR passes
//! it leans on.
//!
//! The load-bearing guarantee is **prune equivalence**: enabling
//! trial-free static pruning must never change *what* the tuner decides —
//! only how many trials it pays for. The suite pins the full
//! [`Tuned::decision_digest`] bit-identical with pruning on and off
//! across the whole polybench matrix, and the CI fault matrix re-runs it
//! under several values of `PRESCALER_FAULT_SEED` so the guarantee holds
//! per fault universe, not just on the clean path.
//!
//! Alongside rides the pass-preservation property the analysis assumes:
//! `insert_casts` at the identity compute precision leaves every
//! benchmark's outputs bit-identical.

use prescaler_core::{profile_app, PreScaler, SystemInspector, TrialEngine, Tuned};
use prescaler_ir::passes::insert_casts;
use prescaler_ir::{Kernel, Program};
use prescaler_ocl::{HostApp, ScalingSpec, Session};
use prescaler_polybench::{BenchKind, InputSet, PolyApp};
use prescaler_sim::{FaultPlan, SystemModel};
use std::collections::HashMap;

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

/// Tunes `app` twice — static pruning on (the default), then off — on
/// fresh engines sharing one inspection and one profiling run.
fn tune_on_off(app: &PolyApp, system: &SystemModel, toq: f64) -> (Tuned, Tuned) {
    let db = SystemInspector::inspect(system);
    let profile = profile_app(app, system).expect("baseline profiling");

    let tuner = PreScaler::new(system, &db, toq);
    let on = tuner.tune_with_engine(&TrialEngine::new(app, system, &profile));

    let tuner = PreScaler::new(system, &db, toq).without_static_prune();
    let off = tuner.tune_with_engine(&TrialEngine::new(app, system, &profile));

    (on, off)
}

fn assert_prune_equivalent(app: &PolyApp, on: &Tuned, off: &Tuned) {
    let name = app.name();
    assert_eq!(
        on.decision_digest(),
        off.decision_digest(),
        "{name}: pruning changed the tuner's decision"
    );
    assert_eq!(off.pruned_static, 0, "{name}: disabled pruning still fired");
    if on.pruned_static > 0 {
        assert!(
            on.trials < off.trials,
            "{name}: {} candidates pruned but trials did not drop ({} vs {})",
            on.pruned_static,
            on.trials,
            off.trials
        );
    } else {
        assert_eq!(
            on.trials, off.trials,
            "{name}: nothing pruned yet trial counts diverged"
        );
    }
}

#[test]
fn pruning_is_decision_invariant_across_the_polybench_matrix() {
    // Default inputs are uniform in (0, 513): inner products overflow
    // half on the accumulating benchmarks, which is exactly what the
    // analysis proves and prunes.
    let system = SystemModel::system1();
    let mut apps_pruned = 0;
    for kind in BenchKind::ALL {
        let app = PolyApp::scaled(kind, InputSet::Default, 0.05);
        let (on, off) = tune_on_off(&app, &system, 0.9);
        assert_prune_equivalent(&app, &on, &off);
        if on.pruned_static > 0 {
            apps_pruned += 1;
        }
    }
    assert!(
        apps_pruned >= 2,
        "static analysis pruned on only {apps_pruned} apps"
    );
}

#[test]
fn pruning_is_decision_invariant_under_faults() {
    // The prune skips a trial entirely; because per-trial fault streams
    // are forked from the spec fingerprint, skipping one trial must not
    // shift what any other trial observes — even when faults fire.
    let system_faults = |seed: u64| {
        SystemModel::system1().with_faults(
            FaultPlan::seeded(mixed(seed))
                .with_transfer_failures(0.10)
                .with_launch_failures(0.05)
                .with_clock_noise(0.05),
        )
    };
    for seed in [1, 2, 3] {
        let system = system_faults(seed);
        for kind in [BenchKind::Gemm, BenchKind::TwoMM, BenchKind::Bicg] {
            let app = PolyApp::scaled(kind, InputSet::Default, 0.05);
            let (on, off) = tune_on_off(&app, &system, 0.9);
            assert_prune_equivalent(&app, &on, &off);
        }
    }
}

#[test]
fn random_inputs_prune_nothing_and_stay_invariant() {
    // Uniform (0, 1) inputs keep every accumulation inside half's range:
    // no proof is possible, so the pruned count must be zero and the
    // searches must walk identical paths.
    let system = SystemModel::system1();
    for kind in [BenchKind::Gemm, BenchKind::Atax, BenchKind::Syrk] {
        let app = PolyApp::scaled(kind, InputSet::Random, 0.05);
        let (on, off) = tune_on_off(&app, &system, 0.9);
        assert_eq!(on.pruned_static, 0, "{}: spurious proof", app.name());
        assert_prune_equivalent(&app, &on, &off);
    }
}

// ---------------------------------------------------------------------
// Pass-preservation property.
// ---------------------------------------------------------------------

fn transform_program(program: &Program, f: impl Fn(&Kernel) -> Kernel) -> Program {
    let mut out = program.clone();
    out.kernels = out.kernels.iter().map(f).collect();
    out
}

fn run_program(app: &PolyApp, program: Program) -> prescaler_ocl::Outputs {
    let mut session = Session::new(SystemModel::system1(), program, ScalingSpec::baseline());
    app.run(&mut session).expect("benchmark runs")
}

/// Asserts that `transformed`, the output of pass `what` on `app`'s
/// program, computes `app`'s outputs bit-identically.
fn assert_outputs_identical(app: &PolyApp, what: &str, transformed: Program) {
    let base = run_program(app, app.program());
    let out = run_program(app, transformed);
    assert_eq!(base.len(), out.len());
    for ((n1, d1), (n2, d2)) in base.iter().zip(&out) {
        assert_eq!(n1, n2);
        assert_eq!(d1.len(), d2.len());
        for i in 0..d1.len() {
            let (a, b) = (d1.get(i), d2.get(i));
            assert!(
                a == b || (a.is_nan() && b.is_nan()),
                "{}: {what} changed output `{n1}`[{i}]: {a} vs {b}",
                app.name()
            );
        }
    }
}

#[test]
fn insert_casts_at_identity_precision_preserves_every_benchmark() {
    for kind in BenchKind::ALL {
        let app = PolyApp::tiny(kind);
        let cast = transform_program(&app.program(), |k| {
            // The identity compute map: every buffer computes at its own
            // element precision. The pass still concretizes every
            // `ElemOf` type, so this exercises the whole rewrite.
            let compute: HashMap<_, _> = k
                .buffer_names()
                .iter()
                .map(|b| ((*b).to_owned(), k.buffer_elem(b).expect("buffer typed")))
                .collect();
            insert_casts(k, &compute)
        });
        assert_outputs_identical(&app, "insert_casts", cast);
    }
}
