//! Property-based integration tests over the whole pipeline.

use prescaler_ir::{FloatVec, Precision};
use prescaler_ocl::{HostApp, PlanChoice, ScalingSpec, Session};
use prescaler_polybench::{array_quality, BenchKind, PolyApp};
use prescaler_sim::convert::convert_parallel;
use prescaler_sim::{Direction, HostMethod, SystemModel, TransferPlan};
use proptest::prelude::*;

fn arb_precision() -> impl Strategy<Value = Precision> {
    prop_oneof![
        Just(Precision::Half),
        Just(Precision::Single),
        Just(Precision::Double),
    ]
}

fn arb_method() -> impl Strategy<Value = HostMethod> {
    prop_oneof![
        Just(HostMethod::Loop),
        (2usize..32).prop_map(|threads| HostMethod::Multithread { threads }),
        ((2usize..32), (2usize..16))
            .prop_map(|(threads, chunks)| HostMethod::Pipelined { threads, chunks }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A transfer plan's functional result never depends on the host
    /// method (performance-only), and equals the two-step conversion
    /// through the wire type.
    #[test]
    fn transfer_plans_are_method_independent(
        src in arb_precision(),
        mid in arb_precision(),
        dst in arb_precision(),
        method in arb_method(),
        values in proptest::collection::vec(-1.0e4f64..1.0e4, 1..200),
    ) {
        let plan = TransferPlan { direction: Direction::HtoD, src, intermediate: mid, dst, host_method: method };
        let data = FloatVec::from_f64_slice(&values, src);
        let got = plan.apply(&data);
        let expected = data.converted(mid).converted(dst);
        prop_assert_eq!(got, expected);
    }

    /// Plan cost is monotone in element count for every method.
    #[test]
    fn plan_cost_is_monotone_in_size(
        method in arb_method(),
        base in 1usize..100_000,
    ) {
        let system = SystemModel::system1();
        let plan = TransferPlan::host_scaled(
            Direction::HtoD, Precision::Double, Precision::Single, method);
        let small = plan.time(&system, base).total();
        let large = plan.time(&system, base * 4).total();
        prop_assert!(large >= small, "{} < {}", large, small);
    }

    /// Threaded conversion is bit-identical to sequential conversion.
    #[test]
    fn parallel_conversion_matches_sequential(
        p in arb_precision(),
        q in arb_precision(),
        threads in 1usize..16,
        values in proptest::collection::vec(-1.0e6f64..1.0e6, 1..5000),
    ) {
        let data = FloatVec::from_f64_slice(&values, p);
        prop_assert_eq!(convert_parallel(&data, q, threads), data.converted(q));
    }

    /// Quality is 1 against self, symmetric in "perfect" direction, and
    /// within [0, 1] always.
    #[test]
    fn quality_metric_is_bounded(
        a in proptest::collection::vec(-1.0e9f64..1.0e9, 1..100),
        b in proptest::collection::vec(-1.0e9f64..1.0e9, 1..100),
    ) {
        let n = a.len().min(b.len());
        let va = FloatVec::from_f64_slice(&a[..n], Precision::Double);
        let vb = FloatVec::from_f64_slice(&b[..n], Precision::Double);
        let q = array_quality(&va, &vb);
        prop_assert!((0.0..=1.0).contains(&q));
        prop_assert_eq!(array_quality(&va, &va), 1.0);
    }
}

/// Scaling a benchmark's objects can only lower quality relative to the
/// baseline, never raise it above 1 — and quality degrades monotonically
/// with precision for uniform configurations.
#[test]
fn uniform_precision_quality_is_monotone() {
    let system = SystemModel::system1();
    for kind in [BenchKind::Gemm, BenchKind::Atax, BenchKind::Corr] {
        let app = PolyApp::tiny(kind);
        let spec_for = |p: Option<Precision>| {
            let mut spec = ScalingSpec::baseline();
            if let Some(p) = p {
                let mut s = Session::new(system.clone(), app.program(), spec.clone());
                app.run(&mut s).unwrap();
                for obj in &s.log().objects {
                    spec = spec.with_target(&obj.label, p);
                }
            }
            spec
        };
        let run = |spec: &ScalingSpec| {
            let mut s = Session::new(system.clone(), app.program(), spec.clone());
            app.run(&mut s).unwrap()
        };
        let reference = run(&spec_for(None));
        let single = run(&spec_for(Some(Precision::Single)));
        let half = run(&spec_for(Some(Precision::Half)));
        let q_single = prescaler_polybench::output_quality(&reference, &single);
        let q_half = prescaler_polybench::output_quality(&reference, &half);
        assert!(
            q_half <= q_single + 1e-12,
            "{kind}: half quality {q_half} above single {q_single}"
        );
    }
}

/// A transient wire through half is never *more* accurate than the direct
/// path for double→single data.
#[test]
fn transient_conversion_is_lossier_than_direct() {
    let values: Vec<f64> = (0..512).map(|i| (i as f64 * 0.137).sin() * 50.0).collect();
    let data = FloatVec::from_f64_slice(&values, Precision::Double);
    let direct = TransferPlan::host_scaled(
        Direction::HtoD,
        Precision::Double,
        Precision::Single,
        HostMethod::Loop,
    )
    .apply(&data);
    let transient = TransferPlan::transient(
        Direction::HtoD,
        Precision::Double,
        Precision::Half,
        Precision::Single,
        HostMethod::Loop,
    )
    .apply(&data);
    let exact = FloatVec::from_f64_slice(&values, Precision::Double);
    let q_direct = array_quality(&exact, &direct.converted(Precision::Double));
    let q_transient = array_quality(&exact, &transient.converted(Precision::Double));
    assert!(q_transient < q_direct, "{q_transient} !< {q_direct}");
}

/// The runtime applies a read-side transient plan end-to-end: device data
/// in half, wire in half, host target double — no spurious conversions.
#[test]
fn read_plans_round_through_configured_wire() {
    let app = PolyApp::tiny(BenchKind::Atax);
    let spec = ScalingSpec::baseline()
        .with_target("Y", Precision::Single)
        .with_read_plan(
            "Y",
            PlanChoice {
                intermediate: Precision::Half,
                host_method: HostMethod::Loop,
            },
        );
    let mut s = Session::new(SystemModel::system1(), app.program(), spec);
    let outs = app.run(&mut s).unwrap();
    // Output arrives as double (app's declared type) but carries
    // binary16 granularity from the wire.
    assert_eq!(outs[0].1.precision(), Precision::Double);
    for v in outs[0].1.iter_f64() {
        let through_half = prescaler_fp16::F16::from_f64(v).to_f64();
        assert_eq!(v, through_half, "value {v} must sit on the f16 grid");
    }
}
