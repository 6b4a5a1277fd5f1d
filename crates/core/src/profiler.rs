//! The application profiler — one baseline run under the interposition
//! runtime, distilled into what the decision maker needs.

use prescaler_ocl::{
    run_app_shared, HostApp, OclError, Outputs, ProfileLog, ScalingSpec, VariantCache,
};
use prescaler_sim::{Direction, SimTime, SystemModel};
use std::sync::Arc;

/// The distilled profile of one application on one system.
#[derive(Clone, Debug)]
pub struct AppProfile {
    /// The full event log of the baseline run.
    pub log: ProfileLog,
    /// Baseline (full-precision) outputs — the quality reference.
    pub reference: Outputs,
    /// Baseline total time — the speedup denominator.
    pub baseline_time: SimTime,
    /// Memory objects slated for scaling, in descending effective
    /// execution time (the decision-tree visit order).
    pub scaling_order: Vec<ObjectProfile>,
}

/// Per-object facts the search consults.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectProfile {
    /// Memory-object label.
    pub label: String,
    /// Element count.
    pub elems: usize,
    /// Original precision.
    pub original: prescaler_ir::Precision,
    /// Whether the app writes it to the device (HtoD events exist).
    pub written: bool,
    /// Whether the app reads it back (DtoH events exist).
    pub read_back: bool,
    /// Effective execution time (transfers + apportioned kernel time).
    pub effective_time: SimTime,
    /// Number of data-transfer events touching the object.
    pub transfer_events: usize,
}

/// Number of noisy profiling runs distilled into one median profile when
/// the system carries an active fault plan.
const PROFILE_SAMPLES: usize = 5;

/// Profiles `app` on `system`: one baseline execution under the profiling
/// runtime.
///
/// The reference run always executes on the clean twin of the system
/// ([`SystemModel::without_faults`]): the quality oracle and the speedup
/// denominator must not depend on injected noise or corruption. When the
/// system carries an active fault plan, the object visit order is instead
/// taken from the *median* (by total time) of `PROFILE_SAMPLES` (5) runs on
/// the faulty system, so one unlucky sample cannot reshuffle the decision
/// tree; samples that fail outright are skipped, and if every sample
/// fails the clean log orders the objects. All the runs share one variant
/// cache, so each kernel's baseline variant compiles once per profile.
///
/// # Errors
///
/// Propagates [`OclError`] from the application driver's clean run.
pub fn profile_app(app: &dyn HostApp, system: &SystemModel) -> Result<AppProfile, OclError> {
    let variants = Arc::new(VariantCache::new(app.program()));
    let baseline = ScalingSpec::baseline();
    let clean = system.without_faults();
    let (reference, log) = run_app_shared(app, &variants, &clean, &baseline, 1)?;
    let baseline_time = log.timeline.total();

    let noisy_median = if system.faults.is_inert() {
        None
    } else {
        // Each sample runs under a fault stream forked off a fixed salt,
        // so profiling is a pure function of `(app, system)` — never of
        // how many runs drew from the shared stream before it. A durable
        // tune resumed after a crash re-profiles and *must* reconstruct
        // the exact same object order, or the journal it replays would
        // describe a different search.
        let mut samples: Vec<ProfileLog> = (0..PROFILE_SAMPLES)
            .filter_map(|i| {
                let salt = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
                let forked = system.clone().with_faults(system.faults.fork(salt));
                run_app_shared(app, &variants, &forked, &baseline, 1).ok()
            })
            .map(|(_, l)| l)
            .collect();
        // total_cmp: a fault-corrupted (NaN) total must still produce a
        // deterministic median pick, never a panic or an order that
        // depends on the sort algorithm's treatment of incomparables.
        samples.sort_by(|a, b| {
            a.timeline
                .total()
                .as_secs()
                .total_cmp(&b.timeline.total().as_secs())
        });
        let n = samples.len();
        (n > 0).then(|| samples.swap_remove(n / 2))
    };
    let order_log = noisy_median.as_ref().unwrap_or(&log);

    let mut scaling_order = Vec::new();
    for label in order_log.objects_by_effective_time() {
        // The label came from this very log; a miss would mean the log is
        // inconsistent — skip the object rather than panic.
        let Some(info) = order_log.object(&label) else {
            continue;
        };
        let info = info.clone();
        let written = order_log.events.iter().any(|e| {
            matches!(e, prescaler_ocl::Event::Transfer { label: l, direction: Direction::HtoD, .. } if *l == label)
        });
        let read_back = order_log.events.iter().any(|e| {
            matches!(e, prescaler_ocl::Event::Transfer { label: l, direction: Direction::DtoH, .. } if *l == label)
        });
        scaling_order.push(ObjectProfile {
            effective_time: order_log.effective_time(&label),
            transfer_events: order_log.transfer_event_count(&label),
            label,
            elems: info.len,
            original: info.declared,
            written,
            read_back,
        });
    }

    Ok(AppProfile {
        log,
        reference,
        baseline_time,
        scaling_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescaler_polybench::{BenchKind, PolyApp};

    #[test]
    fn profile_captures_objects_in_effective_time_order() {
        let app = PolyApp::tiny(BenchKind::Gemm);
        let profile = profile_app(&app, &SystemModel::system1()).unwrap();
        assert_eq!(profile.scaling_order.len(), 3, "A, B, C");
        // Order is descending by effective time.
        for w in profile.scaling_order.windows(2) {
            assert!(w[0].effective_time >= w[1].effective_time);
        }
        // GEMM writes A, B, C and reads back C.
        let c = profile
            .scaling_order
            .iter()
            .find(|o| o.label == "C")
            .unwrap();
        assert!(c.written && c.read_back);
        assert_eq!(c.transfer_events, 2, "one write + one read");
        let a = profile
            .scaling_order
            .iter()
            .find(|o| o.label == "A")
            .unwrap();
        assert!(a.written && !a.read_back);
    }

    #[test]
    fn profile_keeps_reference_outputs() {
        let app = PolyApp::tiny(BenchKind::Atax);
        let profile = profile_app(&app, &SystemModel::system1()).unwrap();
        assert_eq!(profile.reference.len(), 1);
        assert_eq!(profile.reference[0].0, "Y");
        assert!(profile.baseline_time > SimTime::ZERO);
    }

    #[test]
    fn noisy_profiling_keeps_a_clean_oracle() {
        use prescaler_sim::FaultPlan;
        let faulty = SystemModel::system1().with_faults(
            FaultPlan::seeded(9)
                .with_clock_noise(0.3)
                .with_transfer_failures(0.05),
        );
        let app = PolyApp::tiny(BenchKind::Gemm);
        let clean = profile_app(&app, &SystemModel::system1()).unwrap();
        let noisy = profile_app(&app, &faulty).unwrap();
        // Reference run executes on the clean twin: baseline time and the
        // quality oracle are unaffected by the fault plan.
        assert_eq!(noisy.baseline_time, clean.baseline_time);
        assert_eq!(noisy.reference.len(), clean.reference.len());
        // The same objects are slated for scaling (order may differ).
        let labels = |p: &AppProfile| {
            let mut v: Vec<String> = p.scaling_order.iter().map(|o| o.label.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(labels(&noisy), labels(&clean));
    }

    #[test]
    fn intermediate_buffers_have_no_transfer_events() {
        // ATAX's TMP never crosses PCIe.
        let app = PolyApp::tiny(BenchKind::Atax);
        let profile = profile_app(&app, &SystemModel::system1()).unwrap();
        let tmp = profile
            .scaling_order
            .iter()
            .find(|o| o.label == "TMP")
            .unwrap();
        assert!(!tmp.written && !tmp.read_back);
        assert_eq!(tmp.transfer_events, 0);
    }
}
