//! The compiled-variant cache: a program's precision-scaled kernel
//! variants, compiled on first use and shared by every session holding the
//! cache (the paper's "compiler generates precision-scaled kernel in all
//! possible cases", here compiled lazily).
//!
//! A variant is one kernel retyped to the device precisions of the buffers
//! bound to it, then rewritten by the spec's in-kernel compute map for that
//! kernel, if the spec has one. Its key is therefore the kernel, the bound
//! buffer precisions in parameter order, and that compute map. Each new
//! variant is compiled once, straight from the kernel and the key's buffer
//! precisions ([`compile_with_safety`]); only a compute map still builds a
//! retyped, cast kernel to compile. Neither the verifier nor the
//! disjoint-access proof reads a precision: retyping buffers or inserting
//! casts adds no verifier error and changes no verdict. So each kernel is
//! verified once, on its first miss, and proved once, when the cache is
//! built, and every variant shares both. A kernel that fails verification
//! fails under every key in every session that launches it; debug builds
//! re-verify each variant they compile and check that it passes too.

use crate::error::OclError;
use prescaler_ir::analysis::parallel_safety;
use prescaler_ir::passes::{insert_casts, retype_buffers};
use prescaler_ir::vm::{compile_with_safety, CompiledKernel};
use prescaler_ir::{Kernel, ParallelSafety, Param, Precision, Program, Severity};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A program and its compiled kernel variants, safe to share between
/// threads. A trial engine builds one and hands it to all its trials'
/// sessions; [`crate::Session::new`] builds a private one.
#[derive(Debug)]
pub struct VariantCache {
    program: Program,
    /// One entry per kernel of `program`, in program order.
    kernels: Vec<KernelVariants>,
}

/// One kernel's disjoint-access proof, verifier verdict and compiled
/// variants.
#[derive(Debug)]
struct KernelVariants {
    safety: Arc<ParallelSafety>,
    /// The verifier's errors on the kernel, joined, if it has any; set on
    /// the kernel's first miss.
    verdict: OnceLock<Result<(), String>>,
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
                verdict: OnceLock::new(),
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
    /// Verification and compilation run outside the lock. When two
    /// threads race on one variant, both compile the same bytes and the
    /// first insert wins.
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
        let kernel = &self.program.kernels[index];
        if let Err(message) = entry.verdict.get_or_init(|| verifier_errors(kernel)) {
            return Err(OclError::Verify {
                kernel: kernel.name.clone(),
                message: message.clone(),
            });
        }
        let buffers: Box<[Precision]> = buffers.collect();
        debug_assert_eq!(
            verifier_errors(&scaled(kernel, &buffers, compute)),
            Ok(()),
            "kernel `{}` verifies but its variant at {buffers:?}, computing at {compute:?}, \
             does not",
            kernel.name
        );
        let safety = Arc::clone(&entry.safety);
        let compiled = Arc::new(match compute {
            None => compile_with_safety(kernel, &buffers, safety),
            Some(_) => compile_with_safety(&scaled(kernel, &buffers, compute), &buffers, safety),
        }?);

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

/// `kernel` retyped to `buffers` (one precision per buffer parameter, in
/// parameter order), then cast to compute at `compute`, if given.
fn scaled(
    kernel: &Kernel,
    buffers: &[Precision],
    compute: Option<&HashMap<String, Precision>>,
) -> Kernel {
    let retype: HashMap<String, Precision> = kernel
        .params
        .iter()
        .filter(|p| matches!(p, Param::Buffer { .. }))
        .map(|p| p.name().to_owned())
        .zip(buffers.iter().copied())
        .collect();
    let retyped = retype_buffers(kernel, &retype);
    match compute {
        Some(compute) => insert_casts(&retyped, compute),
        None => retyped,
    }
}

/// The Error-severity verifier diagnostics of `kernel`, joined, if it has
/// any: structurally broken or ill-typed IR (the verifier reports a
/// type-checker refusal as a `TypeClash` error) must never reach
/// compilation or execution. Warnings (dead stores, unused params) are the
/// lint tool's business.
fn verifier_errors(kernel: &Kernel) -> Result<(), String> {
    let errors: Vec<String> = prescaler_ir::verify_kernel(kernel)
        .into_iter()
        .filter(|d| d.severity() == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
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

    #[test]
    fn a_kernel_that_fails_verification_fails_under_every_key() {
        // A loop bound loaded from `x` is a float whatever `x`'s precision,
        // so the type checker refuses every variant.
        let program = Program::new("float_bound").with_kernel(
            kernel("float_bound")
                .buffer("x", Precision::Double, Access::Read)
                .buffer("y", Precision::Double, Access::Write)
                .body(vec![for_(
                    "j",
                    int(0),
                    load("x", int(0)),
                    vec![store("y", var("j"), flit(1.0))],
                )]),
        );
        let shared = Arc::new(VariantCache::new(program));
        let specs = [
            ScalingSpec::baseline(),
            ScalingSpec::baseline().with_target("X", Precision::Half),
        ];
        for (spec, bound) in specs.into_iter().zip([Precision::Double, Precision::Half]) {
            let mut s = Session::shared(SystemModel::system1(), Arc::clone(&shared), spec);
            let x = s.create_buffer("X", 4, Precision::Double).unwrap();
            let y = s.create_buffer("Y", 4, Precision::Double).unwrap();
            let args = [("x", KernelArg::Buffer(x)), ("y", KernelArg::Buffer(y))];
            let err = s.launch_kernel("float_bound", [4, 1], &args).unwrap_err();
            let OclError::Verify { message, .. } = &err else {
                panic!("x at {bound:?}: {err}");
            };
            // The verdict is the kernel's, so it names `x`'s declared type,
            // not the variant's.
            assert!(
                message.contains("must be an integer, found Known(Float(Double))"),
                "x at {bound:?}: {message}"
            );
            let log = s.into_log();
            assert_eq!(log.object("X").map(|o| o.device_precision), Some(bound));
        }
    }

    #[test]
    fn a_compute_map_cannot_hide_a_verifier_error() {
        // `ghost` names no buffer, so the cast dangles, and a compute map
        // naming `ghost` leaves it dangling: the verdict is the kernel's.
        let program = Program::new("ghost").with_kernel(
            kernel("ghost")
                .buffer("y", Precision::Double, Access::Write)
                .body(vec![store(
                    "y",
                    global_id(0),
                    cast_elem_of("ghost", flit(1.0)),
                )]),
        );
        let mut spec = ScalingSpec::baseline();
        spec.in_kernel.insert(
            "ghost".into(),
            HashMap::from([("ghost".to_owned(), Precision::Half)]),
        );
        let mut s = Session::new(SystemModel::system1(), program, spec);
        let y = s.create_buffer("Y", 4, Precision::Double).unwrap();
        let err = s
            .launch_kernel("ghost", [4, 1], &[("y", KernelArg::Buffer(y))])
            .unwrap_err();
        assert!(matches!(err, OclError::Verify { .. }), "{err}");
    }
}
