//! The host-application abstraction.
//!
//! A [`HostApp`] is the reproduction's stand-in for "an OpenCL program":
//! it owns the kernel sources and a host driver that allocates buffers,
//! transfers inputs, launches kernels and reads outputs through the
//! [`Session`] API. Because scaling is applied by the runtime (the
//! interposition layer), the same `run` body executes the baseline and
//! every scaled configuration unchanged.

use crate::error::OclError;
use crate::session::Session;
use crate::spec::ScalingSpec;
use crate::variants::VariantCache;
use prescaler_ir::{FloatVec, Program};
use prescaler_sim::SystemModel;
use std::sync::Arc;

/// Named host-side output arrays of one run.
pub type Outputs = Vec<(String, FloatVec)>;

/// A complete OpenCL application: kernels plus host driver.
pub trait HostApp: Sync {
    /// Application name ("GEMM").
    fn name(&self) -> &str;

    /// The kernel program (original, unscaled precisions). It must be the
    /// same program on every call: a trial engine calls this once and runs
    /// every trial on the program it got.
    fn program(&self) -> Program;

    /// Executes the host driver against a session, returning the
    /// host-visible outputs (used for quality evaluation).
    ///
    /// # Errors
    ///
    /// Propagates any [`OclError`] from the session API.
    fn run(&self, session: &mut Session) -> Result<Outputs, OclError>;
}

/// Runs an app once, sequentially, on `system` under `spec`, returning
/// its outputs and the completed profile.
///
/// # Errors
///
/// Propagates any [`OclError`] from the app's driver.
pub fn run_app(
    app: &dyn HostApp,
    system: &SystemModel,
    spec: &ScalingSpec,
) -> Result<(Outputs, crate::profile::ProfileLog), OclError> {
    let variants = Arc::new(VariantCache::new(app.program()));
    run_app_shared(app, &variants, system, spec, 1)
}

/// [`run_app`] over a variant cache shared with other runs of `app`
/// (built from its [`HostApp::program`]), with a real worker-thread
/// budget for the session's data-parallel execution and conversion paths.
/// Results are bit-identical to [`run_app`] at any budget and whatever
/// the cache already holds; only host wall-clock changes.
///
/// # Errors
///
/// Propagates any [`OclError`] from the app's driver.
pub fn run_app_shared(
    app: &dyn HostApp,
    variants: &Arc<VariantCache>,
    system: &SystemModel,
    spec: &ScalingSpec,
    threads: usize,
) -> Result<(Outputs, crate::profile::ProfileLog), OclError> {
    let mut session = Session::shared(system.clone(), Arc::clone(variants), spec.clone())
        .with_exec_threads(threads);
    let outputs = app.run(&mut session)?;
    Ok((outputs, session.into_log()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::KernelArg;
    use prescaler_ir::dsl::*;
    use prescaler_ir::{Access, Precision};

    struct Doubler;

    impl HostApp for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }

        fn program(&self) -> Program {
            Program::new("doubler").with_kernel(
                kernel("dbl")
                    .buffer("x", Precision::Double, Access::ReadWrite)
                    .body(vec![
                        let_("i", global_id(0)),
                        store("x", var("i"), load("x", var("i")) * flit(2.0)),
                    ]),
            )
        }

        fn run(&self, session: &mut Session) -> Result<Outputs, OclError> {
            let n = 64;
            let x = session.create_buffer("X", n, Precision::Double)?;
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            session.enqueue_write(x, &FloatVec::from_f64_slice(&xs, Precision::Double))?;
            session.launch_kernel("dbl", [n, 1], &[("x", KernelArg::Buffer(x))])?;
            Ok(vec![("X".to_owned(), session.enqueue_read(x)?)])
        }
    }

    #[test]
    fn run_app_returns_outputs_and_profile() {
        let (outs, log) = run_app(&Doubler, &SystemModel::system1(), &ScalingSpec::baseline())
            .expect("doubler runs");
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1.get(5), 10.0);
        assert_eq!(log.objects.len(), 1);
        assert_eq!(log.events.len(), 3, "write + launch + read");
    }

    #[test]
    fn same_driver_runs_scaled_unchanged() {
        let spec = ScalingSpec::baseline().with_target("X", Precision::Half);
        let (outs, log) = run_app(&Doubler, &SystemModel::system1(), &spec).expect("scaled run");
        // 2*63 = 126 is exact in f16, so values still match here…
        assert_eq!(outs[0].1.get(63), 126.0);
        // …but the object really was stored as half on the device.
        assert_eq!(log.object("X").unwrap().device_precision, Precision::Half);
    }
}
