//! The [`PolyApp`] type: any of the fourteen benchmarks as a runnable
//! [`HostApp`].

use crate::apps::{linalg, stats, stencil, vector};
use crate::input::{InputGen, InputSet};
use crate::spec::{BenchKind, Dims};
use prescaler_ir::Program;
use prescaler_ocl::{HostApp, OclError, Outputs, Session};

/// One configured benchmark instance: kind, dimensions, input set, seed.
#[derive(Clone, Debug)]
pub struct PolyApp {
    kind: BenchKind,
    dims: Dims,
    input: InputSet,
    seed: u64,
    gain: f64,
}

impl PolyApp {
    /// A benchmark at explicit dimensions.
    #[must_use]
    pub fn new(kind: BenchKind, dims: Dims, input: InputSet, seed: u64) -> PolyApp {
        PolyApp {
            kind,
            dims,
            input,
            seed,
            gain: 1.0,
        }
    }

    /// The experiment-scale instance used for figures (scale 1.0).
    #[must_use]
    pub fn paper(kind: BenchKind, input: InputSet) -> PolyApp {
        PolyApp::new(kind, kind.dims(1.0), input, 0xC60_2020)
    }

    /// A scaled-down instance (same character, less interpretation work).
    #[must_use]
    pub fn scaled(kind: BenchKind, input: InputSet, scale: f64) -> PolyApp {
        PolyApp::new(kind, kind.dims(scale), input, 0xC60_2020)
    }

    /// A tiny instance for unit tests.
    #[must_use]
    pub fn tiny(kind: BenchKind) -> PolyApp {
        PolyApp::new(kind, kind.test_dims(), InputSet::Default, 7)
    }

    /// The benchmark kind.
    #[must_use]
    pub fn kind(&self) -> BenchKind {
        self.kind
    }

    /// The configured dimensions.
    #[must_use]
    pub fn dims(&self) -> &Dims {
        &self.dims
    }

    /// A copy whose generated inputs are scaled by `gain` — models input
    /// drift in production. Gain `1.0` is an exact no-op, so an undrifted
    /// copy runs bit-identically to the original.
    #[must_use]
    pub fn with_input_gain(mut self, gain: f64) -> PolyApp {
        self.gain = gain;
        self
    }

    fn gen(&self) -> InputGen {
        InputGen::new(self.input, self.kind.default_range(), self.seed).with_gain(self.gain)
    }
}

impl HostApp for PolyApp {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn program(&self) -> Program {
        match self.kind {
            BenchKind::Gemm => linalg::gemm_program(),
            BenchKind::TwoMM => linalg::twomm_program(),
            BenchKind::ThreeMM => linalg::threemm_program(),
            BenchKind::Syrk => linalg::syrk_program(),
            BenchKind::Syr2k => linalg::syr2k_program(),
            BenchKind::Atax => vector::atax_program(),
            BenchKind::Bicg => vector::bicg_program(),
            BenchKind::Mvt => vector::mvt_program(),
            BenchKind::Gesummv => vector::gesummv_program(),
            BenchKind::TwoDConv => stencil::twodconv_program(),
            BenchKind::ThreeDConv => stencil::threedconv_program(),
            BenchKind::Fdtd2d => stencil::fdtd2d_program(),
            BenchKind::Corr => stats::corr_program(),
            BenchKind::Covar => stats::covar_program(),
        }
    }

    fn run(&self, session: &mut Session) -> Result<Outputs, OclError> {
        let gen = self.gen();
        let d = &self.dims;
        match self.kind {
            BenchKind::Gemm => linalg::gemm_run(session, d, &gen),
            BenchKind::TwoMM => linalg::twomm_run(session, d, &gen),
            BenchKind::ThreeMM => linalg::threemm_run(session, d, &gen),
            BenchKind::Syrk => linalg::syrk_run(session, d, &gen),
            BenchKind::Syr2k => linalg::syr2k_run(session, d, &gen),
            BenchKind::Atax => vector::atax_run(session, d, &gen),
            BenchKind::Bicg => vector::bicg_run(session, d, &gen),
            BenchKind::Mvt => vector::mvt_run(session, d, &gen),
            BenchKind::Gesummv => vector::gesummv_run(session, d, &gen),
            BenchKind::TwoDConv => stencil::twodconv_run(session, d, &gen),
            BenchKind::ThreeDConv => stencil::threedconv_run(session, d, &gen),
            BenchKind::Fdtd2d => stencil::fdtd2d_run(session, d, &gen),
            BenchKind::Corr => stats::corr_run(session, d, &gen),
            BenchKind::Covar => stats::covar_run(session, d, &gen),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::output_quality;
    use prescaler_ir::typeck::check_program;
    use prescaler_ir::Precision;
    use prescaler_ocl::{run_app, ScalingSpec};
    use prescaler_sim::SystemModel;

    #[test]
    fn every_program_type_checks() {
        for kind in BenchKind::ALL {
            let app = PolyApp::tiny(kind);
            check_program(&app.program()).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn every_benchmark_runs_at_baseline() {
        let system = SystemModel::system1();
        for kind in BenchKind::ALL {
            let app = PolyApp::tiny(kind);
            let (outs, log) = run_app(&app, &system, &ScalingSpec::baseline())
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!outs.is_empty(), "{kind} produced no outputs");
            assert!(
                log.timeline.total() > prescaler_sim::SimTime::ZERO,
                "{kind} accounted no time"
            );
            for (name, data) in &outs {
                assert_eq!(
                    data.count_non_finite(),
                    0,
                    "{kind} output {name} has non-finite values at f64"
                );
            }
        }
    }

    #[test]
    fn baseline_runs_are_deterministic() {
        let system = SystemModel::system1();
        for kind in [BenchKind::Gemm, BenchKind::Corr, BenchKind::Fdtd2d] {
            let app = PolyApp::tiny(kind);
            let (a, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
            let (b, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
            assert_eq!(a, b, "{kind} must be bit-deterministic");
        }
    }

    #[test]
    fn gemm_matches_plain_rust_reference() {
        let app = PolyApp::tiny(BenchKind::Gemm);
        let d = *app.dims();
        let gen = app.gen();
        let (outs, _) = run_app(&app, &SystemModel::system1(), &ScalingSpec::baseline()).unwrap();
        let a = gen.array("A", d.ni * d.nk).to_f64_vec();
        let b = gen.array("B", d.nk * d.nj).to_f64_vec();
        let c = gen.array("C", d.ni * d.nj).to_f64_vec();
        let expected = crate::apps::linalg::gemm_reference(&a, &b, &c, d.ni, d.nj, d.nk, 1.5, 1.2);
        let got = outs[0].1.to_f64_vec();
        assert_eq!(
            got, expected,
            "baseline GEMM must be bit-exact vs reference"
        );
    }

    #[test]
    fn single_precision_scaling_degrades_quality_gently() {
        let system = SystemModel::system1();
        let app = PolyApp::tiny(BenchKind::Gemm);
        let (reference, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
        let mut spec = ScalingSpec::baseline();
        for label in ["A", "B", "C"] {
            spec = spec.with_target(label, Precision::Single);
        }
        let (scaled, _) = run_app(&app, &system, &spec).unwrap();
        let q = output_quality(&reference, &scaled);
        assert!(q > 0.999, "single precision GEMM quality {q}");
        assert!(q < 1.0, "but not bit-identical");
    }

    #[test]
    fn half_precision_overflows_gemm_default_inputs() {
        // GEMM's default range (0..513) with an inner product overflows
        // binary16's 65504 — the paper's §3.2.3 failure mode.
        let system = SystemModel::system1();
        let app = PolyApp::new(BenchKind::Gemm, Dims::square(32), InputSet::Default, 7);
        let (reference, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
        let mut spec = ScalingSpec::baseline();
        for label in ["A", "B", "C"] {
            spec = spec.with_target(label, Precision::Half);
        }
        let (scaled, _) = run_app(&app, &system, &spec).unwrap();
        let q = output_quality(&reference, &scaled);
        assert!(
            q < 0.9,
            "half GEMM on default inputs must fail TOQ, got {q}"
        );
    }

    #[test]
    fn half_precision_survives_random_inputs() {
        // With inputs in 0..1 the inner products stay in range and half
        // precision passes TOQ 0.9 — the paper's Fig. 12 effect.
        let system = SystemModel::system1();
        let app = PolyApp::new(BenchKind::Gemm, Dims::square(16), InputSet::Random, 7);
        let (reference, _) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
        let mut spec = ScalingSpec::baseline();
        for label in ["A", "B", "C"] {
            spec = spec.with_target(label, Precision::Half);
        }
        let (scaled, _) = run_app(&app, &system, &spec).unwrap();
        let q = output_quality(&reference, &scaled);
        assert!(
            q > 0.9,
            "half GEMM on random inputs should pass TOQ, got {q}"
        );
    }

    #[test]
    fn unit_input_gain_is_an_exact_noop() {
        let system = SystemModel::system1();
        let app = PolyApp::tiny(BenchKind::Gemm);
        let (a, la) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
        let drifted = app.clone().with_input_gain(1.0);
        let (b, lb) = run_app(&drifted, &system, &ScalingSpec::baseline()).unwrap();
        assert_eq!(a, b, "gain 1.0 must be bit-identical");
        assert_eq!(la.timeline.total(), lb.timeline.total());
    }

    #[test]
    fn input_drift_breaks_half_precision_on_random_inputs() {
        // Random inputs pass TOQ at half precision (Fig. 12); a large
        // enough gain pushes the inner products past binary16 range and
        // quality collapses — the scenario the guard exists to catch.
        let system = SystemModel::system1();
        let app = PolyApp::new(BenchKind::Gemm, Dims::square(16), InputSet::Random, 7);
        let mut spec = ScalingSpec::baseline();
        for label in ["A", "B", "C"] {
            spec = spec.with_target(label, Precision::Half);
        }
        let drifted = app.clone().with_input_gain(256.0);
        let (reference, _) = run_app(&drifted, &system, &ScalingSpec::baseline()).unwrap();
        let (scaled, _) = run_app(&drifted, &system, &spec).unwrap();
        let q = output_quality(&reference, &scaled);
        assert!(q < 0.9, "drifted half GEMM should fail TOQ, got {q}");
    }

    #[test]
    fn compute_intensive_benchmarks_have_higher_kernel_fraction() {
        // The paper's Fig. 4 categorization must emerge from the cost
        // model. The absolute fractions need experiment-scale sizes (the
        // figures harness checks those); at test scale the *ordering*
        // between an O(N³) and an O(N²) benchmark already shows.
        let system = SystemModel::system1();
        let frac = |kind: BenchKind| {
            let app = PolyApp::scaled(kind, InputSet::Default, 0.05);
            let (_, log) = run_app(&app, &system, &ScalingSpec::baseline()).unwrap();
            let kernel = log.timeline.kernel;
            kernel / (kernel + log.timeline.transfer_side())
        };
        let gemm = frac(BenchKind::Gemm);
        let atax = frac(BenchKind::Atax);
        let mvt = frac(BenchKind::Mvt);
        assert!(
            gemm > 1.3 * atax,
            "GEMM ({gemm}) must be more kernel-bound than ATAX ({atax})"
        );
        assert!(gemm > 1.3 * mvt, "GEMM ({gemm}) vs MVT ({mvt})");
    }

    #[test]
    fn mvt_and_bicg_produce_two_outputs() {
        let system = SystemModel::system1();
        for kind in [BenchKind::Mvt, BenchKind::Bicg] {
            let (outs, _) =
                run_app(&PolyApp::tiny(kind), &system, &ScalingSpec::baseline()).unwrap();
            assert_eq!(outs.len(), 2, "{kind}");
        }
    }

    #[test]
    fn corr_diagonal_is_one() {
        let (outs, _) = run_app(
            &PolyApp::tiny(BenchKind::Corr),
            &SystemModel::system1(),
            &ScalingSpec::baseline(),
        )
        .unwrap();
        let m = PolyApp::tiny(BenchKind::Corr).dims().ni;
        let symmat = &outs[0].1;
        for j in 0..m {
            assert_eq!(symmat.get(j * m + j), 1.0, "diag[{j}]");
        }
    }

    #[test]
    fn fdtd_advances_state_each_step() {
        // More time steps means different output: the loop really runs.
        let system = SystemModel::system1();
        let mut d = BenchKind::Fdtd2d.test_dims();
        let a = PolyApp::new(BenchKind::Fdtd2d, d, InputSet::Default, 7);
        d.tmax = 5;
        let b = PolyApp::new(BenchKind::Fdtd2d, d, InputSet::Default, 7);
        let (oa, la) = run_app(&a, &system, &ScalingSpec::baseline()).unwrap();
        let (ob, lb) = run_app(&b, &system, &ScalingSpec::baseline()).unwrap();
        assert_ne!(oa, ob);
        assert!(lb.events.len() > la.events.len());
    }
}
