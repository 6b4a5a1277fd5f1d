//! The compiled-variant cache: a program's precision-scaled kernel
//! variants, compiled on first use and shared by every session holding the
//! cache (the paper's "compiler generates precision-scaled kernel in all
//! possible cases", here compiled lazily).
//!
//! A variant is one kernel retyped to the device precisions of the buffers
//! bound to it, then rewritten by the spec's in-kernel compute map for that
//! kernel, if the spec has one. Its key is therefore the kernel, the bound
//! buffer precisions in parameter order, and that compute map. Each new
//! variant is retyped, verified and compiled once. The disjoint-access
//! proof reads no precision, so it runs once per kernel, when the cache is
//! built, and every variant's compile shares it. A variant that fails
//! verification is not cached: it fails again in every session that
//! launches it.

use crate::error::OclError;
use prescaler_ir::analysis::parallel_safety;
use prescaler_ir::passes::{insert_casts, retype_buffers};
use prescaler_ir::vm::{compile_with_safety, CompiledKernel};
use prescaler_ir::{Kernel, ParallelSafety, Param, Precision, Program, Severity};
use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

/// A program and its compiled kernel variants, safe to share between
/// threads. A trial engine builds one and hands it to all its trials'
/// sessions; [`crate::Session::new`] builds a private one.
#[derive(Debug)]
pub struct VariantCache {
    program: Program,
    /// One entry per kernel of `program`, in program order.
    kernels: Vec<KernelVariants>,
}

/// One kernel's disjoint-access proof and compiled variants.
#[derive(Debug)]
struct KernelVariants {
    safety: Arc<ParallelSafety>,
    compiled: RwLock<Vec<Variant>>,
}

#[derive(Debug)]
struct Variant {
    /// Device precision of each buffer parameter, in parameter order.
    buffers: Box<[Precision]>,
    /// The spec's in-kernel compute map for this kernel.
    compute: Option<HashMap<String, Precision>>,
    kernel: Arc<CompiledKernel>,
}

/// The compiled kernel of the variant keyed by `buffers` and `compute`.
fn find(
    variants: &[Variant],
    buffers: impl Iterator<Item = Precision> + Clone,
    compute: Option<&HashMap<String, Precision>>,
) -> Option<Arc<CompiledKernel>> {
    variants
        .iter()
        .find(|v| v.buffers.iter().copied().eq(buffers.clone()) && v.compute.as_ref() == compute)
        .map(|v| Arc::clone(&v.kernel))
}

impl VariantCache {
    /// A cache over `program` with no variant compiled yet; it proves
    /// each kernel's disjoint accesses now.
    #[must_use]
    pub fn new(program: Program) -> VariantCache {
        let kernels = program
            .kernels
            .iter()
            .map(|k| KernelVariants {
                safety: Arc::new(parallel_safety(k)),
                compiled: RwLock::default(),
            })
            .collect();
        VariantCache { program, kernels }
    }

    /// The program whose variants the cache holds.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The index and definition of kernel `name`.
    pub(crate) fn kernel(&self, name: &str) -> Option<(usize, &Kernel)> {
        self.program
            .kernels
            .iter()
            .enumerate()
            .find(|(_, k)| k.name == name)
    }

    /// The variant of kernel `index` whose buffer parameters are bound at
    /// `buffers` (one precision per buffer parameter, in parameter order)
    /// under the in-kernel compute map `compute`, compiled on first use.
    /// A hit allocates nothing.
    ///
    /// Compilation runs outside the lock. When two threads race on one
    /// variant, both compile the same bytes and the first insert wins.
    pub(crate) fn variant(
        &self,
        index: usize,
        buffers: impl Iterator<Item = Precision> + Clone,
        compute: Option<&HashMap<String, Precision>>,
    ) -> Result<Arc<CompiledKernel>, OclError> {
        let entry = &self.kernels[index];
        // A push is the only update, so a thread that panicked holding the
        // lock left the list valid.
        let cached = entry
            .compiled
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = find(&cached, buffers.clone(), compute) {
            return Ok(hit);
        }
        drop(cached);
        let buffers: Box<[Precision]> = buffers.collect();
        let kernel = &self.program.kernels[index];
        let retype: HashMap<String, Precision> = kernel
            .params
            .iter()
            .filter(|p| matches!(p, Param::Buffer { .. }))
            .map(|p| p.name().to_owned())
            .zip(buffers.iter().copied())
            .collect();
        let mut scaled = retype_buffers(kernel, &retype);
        if let Some(compute) = compute {
            scaled = insert_casts(&scaled, compute);
        }
        reject_verifier_errors(&scaled)?;
        let compiled = Arc::new(compile_with_safety(&scaled, Arc::clone(&entry.safety))?);

        let mut variants = entry
            .compiled
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(first) = find(&variants, buffers.iter().copied(), compute) {
            return Ok(first);
        }
        variants.push(Variant {
            buffers,
            compute: compute.cloned(),
            kernel: Arc::clone(&compiled),
        });
        Ok(compiled)
    }
}

/// Rejects a kernel carrying Error-severity verifier diagnostics —
/// structurally broken or ill-typed IR (the verifier reports a type-checker
/// refusal as a `TypeClash` error) must never reach compilation or
/// execution.
/// Warnings (dead stores, unused params) are the lint tool's business.
fn reject_verifier_errors(kernel: &Kernel) -> Result<(), OclError> {
    let errors: Vec<String> = prescaler_ir::verify_kernel(kernel)
        .into_iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(OclError::Verify {
            kernel: kernel.name.clone(),
            message: errors.join("; "),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{run_app, run_app_shared, HostApp, Outputs};
    use crate::profile::{Event, ProfileLog};
    use crate::session::{KernelArg, Session};
    use crate::spec::ScalingSpec;
    use prescaler_ir::dsl::*;
    use prescaler_ir::{Access, FloatVec, OpCounts};
    use prescaler_sim::SystemModel;

    /// `y = a * x` over 64 doubles.
    struct Scale;

    impl HostApp for Scale {
        fn name(&self) -> &str {
            "scale"
        }

        fn program(&self) -> Program {
            Program::new("scale").with_kernel(
                kernel("scale")
                    .buffer("x", Precision::Double, Access::Read)
                    .buffer("y", Precision::Double, Access::Write)
                    .float_param_like("a", "x")
                    .body(vec![store(
                        "y",
                        global_id(0),
                        var("a") * load("x", global_id(0)),
                    )]),
            )
        }

        fn run(&self, s: &mut Session) -> Result<Outputs, OclError> {
            let n = 64;
            let x = s.create_buffer("X", n, Precision::Double)?;
            let y = s.create_buffer("Y", n, Precision::Double)?;
            let xs: Vec<f64> = (0..n).map(|i| 0.1 + i as f64 / 7.0).collect();
            s.enqueue_write(x, &FloatVec::from_f64_slice(&xs, Precision::Double))?;
            s.launch_kernel(
                "scale",
                [n, 1],
                &[
                    ("x", KernelArg::Buffer(x)),
                    ("y", KernelArg::Buffer(y)),
                    ("a", KernelArg::Float(1.0 / 3.0)),
                ],
            )?;
            Ok(vec![("Y".to_owned(), s.enqueue_read(y)?)])
        }
    }

    /// Buffers stay double; the kernel computes at `p`.
    fn computing_at(p: Precision) -> ScalingSpec {
        let mut spec = ScalingSpec::baseline();
        spec.in_kernel.insert(
            "scale".into(),
            HashMap::from([("x".to_owned(), p), ("y".to_owned(), p)]),
        );
        spec
    }

    /// A run's output bits and each launch's operation counts.
    fn observed(run: Result<(Outputs, ProfileLog), OclError>) -> (Vec<u64>, Vec<OpCounts>) {
        let (outputs, log) = run.expect("scale runs");
        let bits = outputs
            .iter()
            .flat_map(|(_, v)| v.iter_f64().map(f64::to_bits))
            .collect();
        let counts = log
            .events
            .iter()
            .filter_map(|e| match e {
                Event::KernelLaunch { counts, .. } => Some(**counts),
                Event::Transfer { .. } => None,
            })
            .collect();
        (bits, counts)
    }

    #[test]
    fn the_compute_map_is_part_of_the_key() {
        // Same buffer precisions, different in-kernel compute maps: one
        // shared cache must hand each spec its own variant.
        let system = SystemModel::system1();
        let shared = Arc::new(VariantCache::new(Scale.program()));
        let specs = [
            computing_at(Precision::Single),
            computing_at(Precision::Half),
        ];
        let private: Vec<_> = specs
            .iter()
            .map(|spec| observed(run_app(&Scale, &system, spec)))
            .collect();
        assert_ne!(private[0], private[1], "the two specs must compute apart");
        for (spec, want) in specs.iter().zip(&private) {
            let got = observed(run_app_shared(&Scale, &shared, &system, spec, 1));
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn a_variant_compiles_once_per_cache() {
        let cache = VariantCache::new(Scale.program());
        let doubles = || [Precision::Double, Precision::Double].into_iter();
        let single = HashMap::from([("x".to_owned(), Precision::Single)]);
        let a = cache.variant(0, doubles(), None).unwrap();
        let b = cache.variant(0, doubles(), None).unwrap();
        let c = cache.variant(0, doubles(), Some(&single)).unwrap();
        let d = cache.variant(0, [Precision::Half, Precision::Double].into_iter(), None);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d.unwrap()));
    }

    #[test]
    fn failed_variants_fail_in_every_session() {
        // `ghost` is bound nowhere, so every variant fails verification.
        let program = Program::new("broken").with_kernel(
            kernel("broken")
                .buffer("y", Precision::Double, Access::Write)
                .body(vec![store("y", global_id(0), var("ghost"))]),
        );
        let shared = Arc::new(VariantCache::new(program));
        for _ in 0..2 {
            let mut s = Session::shared(
                SystemModel::system1(),
                Arc::clone(&shared),
                ScalingSpec::baseline(),
            );
            let y = s.create_buffer("Y", 4, Precision::Double).unwrap();
            let err = s
                .launch_kernel("broken", [4, 1], &[("y", KernelArg::Buffer(y))])
                .unwrap_err();
            assert!(matches!(err, OclError::Verify { .. }), "{err}");
        }
    }
}
