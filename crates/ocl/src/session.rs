//! The command-queue session: buffers, transfers, kernel launches.
//!
//! A [`Session`] plays the role of an OpenCL context + command queue on one
//! simulated system. Every API call both *performs* the operation
//! functionally (real data, real rounding) and *accounts* its virtual time,
//! while the profiling layer records the event stream — exactly the split
//! of the paper's interposition library (Table 2): the application code
//! never changes; the active [`ScalingSpec`] changes what the calls do.

use crate::error::OclError;
use crate::profile::{ObjectInfo, ProfileLog, Timeline, WriteStats};
use crate::spec::ScalingSpec;
use crate::variants::VariantCache;
use prescaler_ir::interp::{BufferMap, Launch};
use prescaler_ir::vm::VmScratch;
use prescaler_ir::{FloatVec, Param, Precision, Program};
use prescaler_sim::{Direction, FaultPlan, HostMethod, SimTime, SystemModel, TransferPlan};
use std::sync::Arc;

/// Attempts per operation before a transient fault becomes fatal.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before the first retry, in microseconds; it doubles per retry.
const BASE_BACKOFF_US: f64 = 10.0;
/// Relative amplitude of the backoff jitter.
const JITTER: f64 = 0.25;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Backoff charged after the `attempt`-th (1-based) failed attempt:
/// 10 µs × 2^(attempt−1), scaled by a jitter factor in `[0.75, 1.25]`
/// drawn from the attempt number. Deterministic, so replays stay
/// bit-identical.
fn backoff(attempt: u32) -> SimTime {
    let exponential = SimTime::from_micros(BASE_BACKOFF_US) * 2f64.powi(attempt as i32 - 1);
    let bits = splitmix64(u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
    let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    exponential * (1.0 - JITTER + 2.0 * JITTER * unit)
}

/// The host's core count ([`std::thread::available_parallelism`],
/// otherwise 1): the thread budget a trial engine spreads over its runs.
#[must_use]
pub fn default_exec_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Handle to a device memory object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

/// A device buffer: label, shape, and live device-resident data.
#[derive(Clone, Debug)]
struct DeviceBuffer {
    label: String,
    declared: Precision,
    device_precision: Precision,
    data: FloatVec,
}

/// An argument binding for a kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelArg {
    /// Bind a buffer to a buffer parameter.
    Buffer(BufferId),
    /// Bind an integer scalar.
    Int(i64),
    /// Bind a float scalar (converted to the kernel's parameter type).
    Float(f64),
}

/// An OpenCL-like session on one simulated system.
#[derive(Debug)]
pub struct Session {
    system: SystemModel,
    /// The program and its compiled kernel variants, possibly shared with
    /// other sessions.
    variants: Arc<VariantCache>,
    spec: ScalingSpec,
    buffers: Vec<DeviceBuffer>,
    log: ProfileLog,
    /// Register/binding storage reused across kernel launches.
    scratch: VmScratch,
    /// Real worker-thread budget for data-parallel kernel execution (1 =
    /// strictly sequential).
    exec_threads: usize,
}

impl Session {
    /// Creates a session for `program` on `system` under `spec`
    /// (`clCreateContext` + `clCreateProgramWithSource` + custom compile),
    /// running strictly sequentially, with a variant cache of its own.
    #[must_use]
    pub fn new(system: SystemModel, program: Program, spec: ScalingSpec) -> Session {
        Session::shared(system, Arc::new(VariantCache::new(program)), spec)
    }

    /// [`Session::new`] over a variant cache other sessions may share: a
    /// kernel variant any of them compiled is not compiled again.
    #[must_use]
    pub fn shared(system: SystemModel, variants: Arc<VariantCache>, spec: ScalingSpec) -> Session {
        Session {
            system,
            variants,
            spec,
            buffers: Vec::new(),
            log: ProfileLog::default(),
            scratch: VmScratch::new(),
            exec_threads: 1,
        }
    }

    /// Replaces the real worker-thread budget (clamped to at least 1).
    /// Execution results are bit-identical at every budget; only host
    /// wall-clock changes.
    #[must_use]
    pub fn with_exec_threads(mut self, threads: usize) -> Session {
        self.exec_threads = threads.max(1);
        self
    }

    /// Admits one operation past the fault plan. A lost device fails it
    /// with the fatal [`OclError::DeviceLost`]. A transient fault is
    /// retried, each backoff charged to the timeline, until an attempt goes
    /// through or the fourth attempt fails too, which is the fatal
    /// [`OclError::RetriesExhausted`].
    fn admit(
        &mut self,
        what: impl Fn() -> String,
        fires: impl Fn(&FaultPlan) -> bool,
    ) -> Result<(), OclError> {
        if self.system.faults.device_lost() {
            return Err(OclError::DeviceLost { what: what() });
        }
        let mut attempt = 1;
        while fires(&self.system.faults) {
            if attempt == MAX_ATTEMPTS {
                return Err(OclError::RetriesExhausted {
                    what: what(),
                    attempts: attempt,
                });
            }
            self.log.record_fault_overhead(backoff(attempt));
            attempt += 1;
        }
        Ok(())
    }

    /// Applies the fault plan's buffer corruption to freshly transferred
    /// data, if the plan says this transfer is poisoned.
    fn maybe_corrupt(&self, data: &mut FloatVec) {
        if let Some(c) = self.system.faults.corrupt_buffer() {
            if !data.is_empty() {
                let idx = (c.index_selector % data.len() as u64) as usize;
                data.set(idx, c.poison.value());
            }
        }
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &SystemModel {
        &self.system
    }

    /// The active scaling specification.
    #[must_use]
    pub fn spec(&self) -> &ScalingSpec {
        &self.spec
    }

    /// The profile recorded so far.
    #[must_use]
    pub fn log(&self) -> &ProfileLog {
        &self.log
    }

    /// Consumes the session, returning the profile.
    #[must_use]
    pub fn into_log(self) -> ProfileLog {
        self.log
    }

    /// Aggregate virtual times.
    #[must_use]
    pub fn timeline(&self) -> Timeline {
        self.log.timeline
    }

    /// Creates a device buffer (`clCreateBuffer`). The device storage
    /// precision is the scaling spec's target for this label, defaulting
    /// to the declared precision.
    ///
    /// # Errors
    ///
    /// Returns [`OclError::DuplicateLabel`] if the label is already used.
    pub fn create_buffer(
        &mut self,
        label: impl Into<String>,
        len: usize,
        declared: Precision,
    ) -> Result<BufferId, OclError> {
        let label = label.into();
        if self.buffers.iter().any(|b| b.label == label) {
            return Err(OclError::DuplicateLabel(label));
        }
        let device_precision = self.spec.target_for(&label, declared);
        self.log.objects.push(ObjectInfo {
            label: label.clone(),
            len,
            declared,
            device_precision,
            host_written: None,
        });
        self.buffers.push(DeviceBuffer {
            label,
            declared,
            device_precision,
            data: FloatVec::zeros(len, device_precision),
        });
        Ok(BufferId(self.buffers.len() - 1))
    }

    fn buffer(&self, id: BufferId) -> Result<&DeviceBuffer, OclError> {
        self.buffers.get(id.0).ok_or(OclError::InvalidBuffer(id.0))
    }

    /// The current device-resident contents of a buffer (test/debug aid;
    /// not a timed operation).
    ///
    /// # Errors
    ///
    /// Returns [`OclError::InvalidBuffer`] for foreign handles.
    pub fn peek(&self, id: BufferId) -> Result<&FloatVec, OclError> {
        Ok(&self.buffer(id)?.data)
    }

    /// Writes host data into a device buffer (`clEnqueueWriteBuffer`),
    /// applying the spec's HtoD plan: host-side conversion, wire
    /// transfer, device-side conversion — all functional and all timed.
    ///
    /// # Errors
    ///
    /// Rejects wrong-precision or wrong-length host data and foreign
    /// handles.
    pub fn enqueue_write(&mut self, id: BufferId, host: &FloatVec) -> Result<(), OclError> {
        let buf = self.buffer(id)?;
        if host.precision() != buf.declared {
            return Err(OclError::HostPrecisionMismatch {
                label: buf.label.clone(),
                expected: buf.declared,
                got: host.precision(),
            });
        }
        if host.len() != buf.data.len() {
            return Err(OclError::LengthMismatch {
                label: buf.label.clone(),
                expected: buf.data.len(),
                got: host.len(),
            });
        }
        let plan = self.transfer_plan(
            Direction::HtoD,
            &buf.label,
            buf.declared,
            buf.device_precision,
        );
        let label = buf.label.clone();
        self.admit(|| format!("write `{label}`"), FaultPlan::transfer_fails)?;
        let noise = self.system.faults.time_noise_factor();
        let bandwidth = self.system.faults.bandwidth_factor();
        let cost = plan
            .time(&self.system, host.len())
            .at_bandwidth(bandwidth)
            .scaled(noise);
        // The simulated HostMethod drives the cost model above; the real
        // conversion runs on the calling thread.
        let mut data = plan.apply(host);
        self.maybe_corrupt(&mut data);
        let wire_bytes = host.len() * plan.intermediate.size_bytes();
        let elems = host.len();
        self.buffers[id.0].data = data;
        self.log
            .record_transfer(&label, Direction::HtoD, elems, wire_bytes, cost);
        // Host-side value statistics seed the static range analysis;
        // taken from the *uncorrupted* host data at declared precision.
        self.log
            .record_host_write(&label, WriteStats::of(host.iter_f64()));
        Ok(())
    }

    /// Reads a device buffer back to the host (`clEnqueueReadBuffer`) at
    /// the application's original precision, applying the spec's DtoH
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`OclError::InvalidBuffer`] for foreign handles.
    pub fn enqueue_read(&mut self, id: BufferId) -> Result<FloatVec, OclError> {
        let buf = self.buffer(id)?;
        let plan = self.transfer_plan(
            Direction::DtoH,
            &buf.label,
            buf.device_precision,
            buf.declared,
        );
        let label = buf.label.clone();
        self.admit(|| format!("read `{label}`"), FaultPlan::transfer_fails)?;
        let buf = self.buffer(id)?;
        let noise = self.system.faults.time_noise_factor();
        let bandwidth = self.system.faults.bandwidth_factor();
        let cost = plan
            .time(&self.system, buf.data.len())
            .at_bandwidth(bandwidth)
            .scaled(noise);
        let mut out = plan.apply(&buf.data);
        self.maybe_corrupt(&mut out);
        let wire_bytes = buf.data.len() * plan.intermediate.size_bytes();
        let elems = buf.data.len();
        self.log
            .record_transfer(&label, Direction::DtoH, elems, wire_bytes, cost);
        Ok(out)
    }

    fn transfer_plan(
        &self,
        direction: Direction,
        label: &str,
        src: Precision,
        dst: Precision,
    ) -> TransferPlan {
        let choice = match direction {
            Direction::HtoD => self.spec.write_plans.get(label),
            Direction::DtoH => self.spec.read_plans.get(label),
        };
        match choice {
            Some(c) => TransferPlan {
                direction,
                src,
                intermediate: c.intermediate,
                dst,
                host_method: c.host_method,
            },
            None if src == dst => TransferPlan::direct(direction, src),
            // A scaled object without an explicit plan converts on the
            // host with a plain loop — the least surprising default.
            None => TransferPlan::host_scaled(direction, src, dst, HostMethod::Loop),
        }
    }

    /// Launches a kernel (`clSetKernelArg`* + `clEnqueueNDRangeKernel`).
    ///
    /// The kernel actually executed is the program's kernel *re-typed to
    /// the bound buffers' device precisions* (the spec's memory-object
    /// scaling), then transformed by the spec's in-kernel cast map if one
    /// is present. The session's [`VariantCache`] verifies the program's
    /// kernel (type check included) once, on its first launch, and
    /// compiles each such variant once; the VM executes it functionally,
    /// and its dynamic operation counts are priced on the GPU model.
    ///
    /// # Errors
    ///
    /// Propagates unknown kernels, unbound/foreign arguments, a buffer
    /// bound to two parameters, a kernel failing the verifier (whatever
    /// the bound precisions, and reported in the kernel's declared types),
    /// and execution errors.
    pub fn launch_kernel(
        &mut self,
        name: &str,
        global: [usize; 2],
        args: &[(&str, KernelArg)],
    ) -> Result<SimTime, OclError> {
        // A handle of its own on the cache keeps the kernel's parameter
        // list borrowed, not cloned, while the session changes below.
        let variants = Arc::clone(&self.variants);
        let (index, kernel) = variants
            .kernel(name)
            .ok_or_else(|| OclError::UnknownKernel(name.to_owned()))?;

        // Resolve bindings.
        let mut buffer_args: Vec<(&str, BufferId)> = Vec::new();
        let mut launch = Launch {
            global,
            args: Vec::new(),
        };
        for p in &kernel.params {
            let supplied = args
                .iter()
                .find(|(n, _)| *n == p.name())
                .map(|(_, v)| v)
                .ok_or_else(|| OclError::UnboundParam {
                    kernel: name.to_owned(),
                    param: p.name().to_owned(),
                })?;
            match (p, supplied) {
                (Param::Buffer { name: pname, .. }, KernelArg::Buffer(id)) => {
                    let b = self.buffer(*id)?;
                    // The VM binds each buffer under one parameter name.
                    if let Some(&(first, _)) = buffer_args.iter().find(|(_, bound)| bound == id) {
                        return Err(OclError::AliasedBuffer {
                            kernel: name.to_owned(),
                            label: b.label.clone(),
                            params: (first.to_owned(), pname.clone()),
                        });
                    }
                    buffer_args.push((pname, *id));
                }
                (Param::Scalar { name: pname, .. }, KernelArg::Int(v)) => {
                    launch = launch.arg_int(pname.clone(), *v);
                }
                (Param::Scalar { name: pname, .. }, KernelArg::Float(v)) => {
                    launch = launch.arg_float(pname.clone(), *v);
                }
                _ => {
                    return Err(OclError::UnboundParam {
                        kernel: name.to_owned(),
                        param: p.name().to_owned(),
                    })
                }
            }
        }

        // Select (or compile) the precision-scaled kernel variant, keyed by
        // the bound buffers' device precisions and the kernel's compute map.
        let compiled = variants.variant(
            index,
            buffer_args
                .iter()
                .map(|&(_, id)| self.buffers[id.0].device_precision),
            self.spec.in_kernel.get(name),
        )?;

        // Only a launch that can reach the device meets the fault plan: a
        // refused one draws no fault and is charged no backoff.
        self.admit(|| format!("launch `{name}`"), FaultPlan::launch_fails)?;

        // Move the bound buffers into a launch map, run, move back.
        let mut map = BufferMap::new();
        for &(pname, id) in &buffer_args {
            map.insert(
                pname.to_owned(),
                std::mem::replace(
                    &mut self.buffers[id.0].data,
                    FloatVec::zeros(0, Precision::Half),
                ),
            );
        }
        let result = compiled.run_parallel(&mut map, &launch, &mut self.scratch, self.exec_threads);
        for &(pname, id) in &buffer_args {
            if let Some(data) = map.remove(pname) {
                self.buffers[id.0].data = data;
            }
        }
        let counts = result?;

        // System drift (thermal throttle, an *actual* slower clock) and
        // measurement noise compose: the throttled device recomputes the
        // roofline at the reduced clock, then noise perturbs the reading.
        let throttle = self.system.faults.throttle_factor();
        let gpu_time = if throttle == 1.0 {
            self.system.gpu.kernel_time(&counts)
        } else {
            self.system.gpu.throttled(throttle).kernel_time(&counts)
        };
        let time = gpu_time * self.system.faults.time_noise_factor();
        let arg_map: Vec<(String, String)> = buffer_args
            .iter()
            .map(|&(pname, id)| (pname.to_owned(), self.buffers[id.0].label.clone()))
            .collect();
        self.log
            .record_kernel(name, arg_map, launch.args, global, counts, time);
        Ok(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlanChoice;
    use prescaler_ir::dsl::*;
    use prescaler_ir::Access;
    use std::collections::HashMap;

    fn vec_scale_program() -> Program {
        Program::new("vscale").with_kernel(
            kernel("vscale")
                .buffer("x", Precision::Double, Access::Read)
                .buffer("y", Precision::Double, Access::Write)
                .float_param_like("a", "x")
                .int_param("n")
                .body(vec![
                    let_("i", global_id(0)),
                    if_(
                        lt(var("i"), var("n")),
                        vec![store("y", var("i"), var("a") * load("x", var("i")))],
                    ),
                ]),
        )
    }

    fn run_once(spec: ScalingSpec) -> (FloatVec, Timeline) {
        let mut s = Session::new(SystemModel::system1(), vec_scale_program(), spec);
        let n = 1024usize;
        let x = s.create_buffer("X", n, Precision::Double).unwrap();
        let y = s.create_buffer("Y", n, Precision::Double).unwrap();
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        s.enqueue_write(x, &FloatVec::from_f64_slice(&xs, Precision::Double))
            .unwrap();
        s.launch_kernel(
            "vscale",
            [n, 1],
            &[
                ("x", KernelArg::Buffer(x)),
                ("y", KernelArg::Buffer(y)),
                ("a", KernelArg::Float(3.0)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )
        .unwrap();
        let out = s.enqueue_read(y).unwrap();
        (out, s.timeline())
    }

    fn run_on(system: SystemModel) -> Result<(FloatVec, Timeline), OclError> {
        run_on_sized(system, 1024)
    }

    fn run_on_sized(system: SystemModel, n: usize) -> Result<(FloatVec, Timeline), OclError> {
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let x = s.create_buffer("X", n, Precision::Double)?;
        let y = s.create_buffer("Y", n, Precision::Double)?;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        s.enqueue_write(x, &FloatVec::from_f64_slice(&xs, Precision::Double))?;
        s.launch_kernel(
            "vscale",
            [n, 1],
            &[
                ("x", KernelArg::Buffer(x)),
                ("y", KernelArg::Buffer(y)),
                ("a", KernelArg::Float(3.0)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )?;
        let out = s.enqueue_read(y)?;
        Ok((out, s.timeline()))
    }

    #[test]
    fn throttle_slows_kernels_but_not_results() {
        // Big enough that per-element cost beats the fixed launch
        // latency, and throttled deep enough that the reduced-clock
        // compute side overtakes the (unthrottled) memory side of the
        // roofline.
        let n = 1 << 18;
        let (clean_out, clean) = run_on_sized(SystemModel::system1(), n).unwrap();
        let hot = SystemModel::system1().with_faults(FaultPlan::seeded(3).with_throttle(1.0, 1.0));
        let (out, tl) = run_on_sized(hot, n).unwrap();
        assert!(
            tl.kernel > clean.kernel,
            "{} !> {}",
            tl.kernel,
            clean.kernel
        );
        assert_eq!(tl.htod, clean.htod, "throttle must not touch transfers");
        assert_eq!(out.get(10), clean_out.get(10), "drift is timing-only");
    }

    #[test]
    fn bandwidth_drop_slows_transfers_but_not_kernels() {
        let (_, clean) = run_on(SystemModel::system1()).unwrap();
        let degraded =
            SystemModel::system1().with_faults(FaultPlan::seeded(3).with_bandwidth_drop(1.0, 0.5));
        let (_, tl) = run_on(degraded).unwrap();
        assert!(tl.htod > clean.htod, "{} !> {}", tl.htod, clean.htod);
        assert!(tl.dtoh > clean.dtoh);
        assert_eq!(tl.kernel, clean.kernel, "link drop must not touch kernels");
    }

    #[test]
    fn device_loss_is_a_fatal_typed_error() {
        let gone = SystemModel::system1().with_faults(FaultPlan::seeded(3).with_device_loss(1.0));
        let err = run_on(gone).unwrap_err();
        assert!(matches!(err, OclError::DeviceLost { .. }), "{err}");
    }

    #[test]
    fn baseline_run_is_exact_in_double() {
        let (out, tl) = run_once(ScalingSpec::baseline());
        assert_eq!(out.precision(), Precision::Double);
        assert_eq!(out.get(10), 15.0);
        assert!(tl.kernel > SimTime::ZERO);
        assert!(tl.htod > SimTime::ZERO);
        assert!(tl.dtoh > SimTime::ZERO);
        assert_eq!(tl.host_convert, SimTime::ZERO);
        assert_eq!(tl.device_convert, SimTime::ZERO);
    }

    #[test]
    fn scaled_run_converts_and_computes_in_target_precision() {
        let spec = ScalingSpec::baseline()
            .with_target("X", Precision::Half)
            .with_target("Y", Precision::Half);
        let (out, tl) = run_once(spec);
        // Output is read back at the app's declared double precision…
        assert_eq!(out.precision(), Precision::Double);
        // …but values went through binary16: 3 * 511.5 = 1534.5 is an
        // exact tie at ulp=1 and rounds to the even neighbour 1534.
        let exact = 3.0 * 511.5;
        let got = out.get(1023);
        assert_eq!(got, 1534.0, "exact {exact} must round to even in f16");
        assert!(tl.host_convert > SimTime::ZERO, "loop conversion on write");
    }

    #[test]
    fn scaled_wire_is_smaller() {
        let mut s_base = Session::new(
            SystemModel::system1(),
            vec_scale_program(),
            ScalingSpec::baseline(),
        );
        let mut s_scaled = Session::new(
            SystemModel::system1(),
            vec_scale_program(),
            ScalingSpec::baseline()
                .with_target("X", Precision::Half)
                .with_write_plan(
                    "X",
                    PlanChoice::host_direct(Direction::HtoD, Precision::Double, Precision::Half, 8),
                ),
        );
        let n = 1 << 16;
        let xs = FloatVec::from_f64_slice(&vec![1.0; n], Precision::Double);
        for s in [&mut s_base, &mut s_scaled] {
            let x = s.create_buffer("X", n, Precision::Double).unwrap();
            s.enqueue_write(x, &xs).unwrap();
        }
        let wire = |s: &Session| match &s.log().events[0] {
            crate::profile::Event::Transfer { wire_bytes, .. } => *wire_bytes,
            other => panic!("{other:?}"),
        };
        assert_eq!(wire(&s_base), n * 8);
        assert_eq!(wire(&s_scaled), n * 2);
        assert!(s_scaled.timeline().htod < s_base.timeline().htod);
    }

    #[test]
    fn in_kernel_spec_pays_conversions_but_keeps_buffers() {
        let mut spec = ScalingSpec::baseline();
        spec.in_kernel.insert(
            "vscale".into(),
            HashMap::from([
                ("x".to_owned(), Precision::Single),
                ("y".to_owned(), Precision::Single),
            ]),
        );
        let mut s = Session::new(SystemModel::system1(), vec_scale_program(), spec);
        let n = 256usize;
        let x = s.create_buffer("X", n, Precision::Double).unwrap();
        let y = s.create_buffer("Y", n, Precision::Double).unwrap();
        s.enqueue_write(
            x,
            &FloatVec::from_f64_slice(&vec![0.1; n], Precision::Double),
        )
        .unwrap();
        s.launch_kernel(
            "vscale",
            [n, 1],
            &[
                ("x", KernelArg::Buffer(x)),
                ("y", KernelArg::Buffer(y)),
                ("a", KernelArg::Float(1.0)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )
        .unwrap();
        // Device buffer stays double…
        assert_eq!(s.peek(y).unwrap().precision(), Precision::Double);
        // …but the value went through single precision.
        assert_eq!(s.peek(y).unwrap().get(0), f64::from(0.1f32));
        // And the launch logged conversion instructions.
        match &s.log().events[1] {
            crate::profile::Event::KernelLaunch { counts, .. } => {
                assert!(counts.converts >= n as u64, "casts in the kernel");
                assert!(counts.at(Precision::Single).mul == n as u64);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_surface_cleanly() {
        let mut s = Session::new(
            SystemModel::system1(),
            vec_scale_program(),
            ScalingSpec::baseline(),
        );
        let x = s.create_buffer("X", 4, Precision::Double).unwrap();
        assert!(matches!(
            s.create_buffer("X", 4, Precision::Double),
            Err(OclError::DuplicateLabel(_))
        ));
        assert!(matches!(
            s.enqueue_write(x, &FloatVec::zeros(4, Precision::Single)),
            Err(OclError::HostPrecisionMismatch { .. })
        ));
        assert!(matches!(
            s.enqueue_write(x, &FloatVec::zeros(8, Precision::Double)),
            Err(OclError::LengthMismatch { .. })
        ));
        assert!(matches!(
            s.launch_kernel("ghost", [1, 1], &[]),
            Err(OclError::UnknownKernel(_))
        ));
        assert!(matches!(
            s.launch_kernel("vscale", [1, 1], &[("x", KernelArg::Buffer(x))]),
            Err(OclError::UnboundParam { .. })
        ));
    }

    #[test]
    fn aliased_buffer_arguments_are_refused_before_data_moves() {
        let axpy = Program::new("axpy").with_kernel(
            kernel("axpy")
                .buffer("x", Precision::Double, Access::Read)
                .buffer("y", Precision::Double, Access::ReadWrite)
                .float_param_like("a", "x")
                .body(vec![
                    let_("i", global_id(0)),
                    store(
                        "y",
                        var("i"),
                        var("a") * load("x", var("i")) + load("y", var("i")),
                    ),
                ]),
        );
        let mut s = Session::new(SystemModel::system1(), axpy, ScalingSpec::baseline());
        let n = 8usize;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let host = FloatVec::from_f64_slice(&xs, Precision::Double);
        let v = s.create_buffer("V", n, Precision::Double).unwrap();
        s.enqueue_write(v, &host).unwrap();
        let err = s
            .launch_kernel(
                "axpy",
                [n, 1],
                &[
                    ("x", KernelArg::Buffer(v)),
                    ("y", KernelArg::Buffer(v)),
                    ("a", KernelArg::Float(2.0)),
                ],
            )
            .unwrap_err();
        assert_eq!(
            err,
            OclError::AliasedBuffer {
                kernel: "axpy".into(),
                label: "V".into(),
                params: ("x".into(), "y".into()),
            }
        );
        let dev = s.peek(v).unwrap();
        assert_eq!(dev.precision(), Precision::Double);
        assert_eq!(dev.iter_f64().collect::<Vec<_>>(), xs);
        let back = s.enqueue_read(v).unwrap();
        assert_eq!(back.iter_f64().collect::<Vec<_>>(), xs);
    }

    #[test]
    fn refused_launches_draw_no_faults() {
        // Two sessions on equal seeded plans with launch failures. One
        // first attempts three launches that never reach the device; then
        // both make the same valid launches, which must meet the same
        // faults and pay the same backoff.
        let run = |refused: bool| {
            let system =
                SystemModel::system1().with_faults(FaultPlan::seeded(11).with_launch_failures(0.5));
            let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
            let n = 16usize;
            let x = s.create_buffer("X", n, Precision::Double).unwrap();
            let y = s.create_buffer("Y", n, Precision::Double).unwrap();
            let args = |x, y| {
                [
                    ("x", KernelArg::Buffer(x)),
                    ("y", KernelArg::Buffer(y)),
                    ("a", KernelArg::Float(3.0)),
                    ("n", KernelArg::Int(n as i64)),
                ]
            };
            if refused {
                let unbound = s.launch_kernel("vscale", [n, 1], &args(x, y)[..3]);
                assert!(matches!(unbound, Err(OclError::UnboundParam { .. })));
                let foreign = s.launch_kernel("vscale", [n, 1], &args(x, BufferId(7)));
                assert!(
                    matches!(foreign, Err(OclError::InvalidBuffer(_))),
                    "{foreign:?}"
                );
                let aliased = s.launch_kernel("vscale", [n, 1], &args(x, x));
                assert!(matches!(aliased, Err(OclError::AliasedBuffer { .. })));
            }
            let outcomes: Vec<_> = (0..8)
                .map(|_| s.launch_kernel("vscale", [n, 1], &args(x, y)))
                .collect();
            (outcomes, s.into_log())
        };
        let (clean, clean_log) = run(false);
        let (after_refusals, log) = run(true);
        assert!(
            clean_log.timeline.fault_overhead > SimTime::ZERO,
            "the plan must fault some launches"
        );
        assert_eq!(after_refusals, clean);
        assert_eq!(log, clean_log);
    }

    #[test]
    fn retries_ride_out_transient_transfer_faults() {
        // ~30% failure rate with 4 attempts: every write goes through,
        // and the paid backoff shows up on the virtual clock.
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(5).with_transfer_failures(0.3));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let n = 512usize;
        let x = s.create_buffer("X", n, Precision::Double).unwrap();
        let xs = FloatVec::from_f64_slice(&vec![1.0; n], Precision::Double);
        for _ in 0..50 {
            s.enqueue_write(x, &xs).unwrap();
        }
        assert!(
            s.timeline().fault_overhead > SimTime::ZERO,
            "some attempt must have failed and paid backoff"
        );
        assert!(s.timeline().total() > s.timeline().htod);
    }

    #[test]
    fn exhausted_retries_become_fatal() {
        // Certain failure: every attempt fails, and after the fourth the
        // error is fatal.
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(5).with_transfer_failures(1.0));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let x = s.create_buffer("X", 8, Precision::Double).unwrap();
        let xs = FloatVec::from_f64_slice(&[1.0; 8], Precision::Double);
        let e = s.enqueue_write(x, &xs).unwrap_err();
        assert!(
            matches!(e, OclError::RetriesExhausted { attempts: 4, .. }),
            "{e}"
        );
        assert_eq!(
            s.timeline().fault_overhead,
            backoff(1) + backoff(2) + backoff(3),
            "every backoff before the last attempt is charged in full"
        );
    }

    #[test]
    fn retry_schedule_is_pinned() {
        // 8.82, 23.2 and 34.0 µs: the three backoffs a failing operation
        // waits before its 2nd, 3rd and 4th attempt, bit for bit.
        let pinned = [
            0x3ee2_7f41_89c7_5fa6_u64,
            0x3ef8_57d0_1feb_6ddd,
            0x3f01_d1b6_1120_9684,
        ];
        for (attempt, bits) in (1..).zip(pinned) {
            assert_eq!(
                backoff(attempt).as_secs().to_bits(),
                bits,
                "backoff before retry {attempt}"
            );
        }
        // Every backoff lies within ±25% of 10 µs × 2^(k−1).
        for attempt in 1..=8u32 {
            let exact = 10e-6 * 2f64.powi(attempt as i32 - 1);
            let ratio = backoff(attempt).as_secs() / exact;
            assert!(
                (0.75..=1.25).contains(&ratio),
                "attempt {attempt}: ratio {ratio} outside the jitter band"
            );
        }
    }

    #[test]
    fn corruption_poisons_exactly_when_planned() {
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(2).with_buffer_corruption(1.0));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let n = 64usize;
        let x = s.create_buffer("X", n, Precision::Double).unwrap();
        s.enqueue_write(
            x,
            &FloatVec::from_f64_slice(&vec![1.0; n], Precision::Double),
        )
        .unwrap();
        let poisoned = (0..n)
            .filter(|&i| !s.peek(x).unwrap().get(i).is_finite())
            .count();
        assert_eq!(poisoned, 1, "exactly one element poisoned per transfer");
    }

    #[test]
    fn clock_noise_moves_time_but_not_values() {
        let clean = run_once(ScalingSpec::baseline());
        let system = SystemModel::system1().with_faults(FaultPlan::seeded(3).with_clock_noise(0.2));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let n = 1024usize;
        let x = s.create_buffer("X", n, Precision::Double).unwrap();
        let y = s.create_buffer("Y", n, Precision::Double).unwrap();
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        s.enqueue_write(x, &FloatVec::from_f64_slice(&xs, Precision::Double))
            .unwrap();
        s.launch_kernel(
            "vscale",
            [n, 1],
            &[
                ("x", KernelArg::Buffer(x)),
                ("y", KernelArg::Buffer(y)),
                ("a", KernelArg::Float(3.0)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )
        .unwrap();
        let out = s.enqueue_read(y).unwrap();
        // Functional results are untouched by clock noise…
        assert_eq!(out.get(10), clean.0.get(10));
        // …but the measured time differs from the clean run.
        assert_ne!(s.timeline().total(), clean.1.total());
    }

    #[test]
    fn inert_fault_plan_is_bit_identical_to_default() {
        let (out_a, tl_a) = run_once(ScalingSpec::baseline());
        // Same run on a system carrying an explicitly-disabled plan.
        let system = SystemModel::system1().with_faults(
            FaultPlan::seeded(1234)
                .with_transfer_failures(0.0)
                .with_launch_failures(0.0)
                .with_buffer_corruption(0.0)
                .with_db_corruption(0.0)
                .with_clock_noise(0.0),
        );
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let n = 1024usize;
        let x = s.create_buffer("X", n, Precision::Double).unwrap();
        let y = s.create_buffer("Y", n, Precision::Double).unwrap();
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        s.enqueue_write(x, &FloatVec::from_f64_slice(&xs, Precision::Double))
            .unwrap();
        s.launch_kernel(
            "vscale",
            [n, 1],
            &[
                ("x", KernelArg::Buffer(x)),
                ("y", KernelArg::Buffer(y)),
                ("a", KernelArg::Float(3.0)),
                ("n", KernelArg::Int(n as i64)),
            ],
        )
        .unwrap();
        let out_b = s.enqueue_read(y).unwrap();
        for i in 0..n {
            assert_eq!(out_a.get(i).to_bits(), out_b.get(i).to_bits());
        }
        assert_eq!(tl_a, s.timeline());
        assert_eq!(s.timeline().fault_overhead, SimTime::ZERO);
    }

    #[test]
    fn transient_write_plan_rounds_through_the_wire_type() {
        let spec = ScalingSpec::baseline()
            .with_target("X", Precision::Single)
            .with_write_plan(
                "X",
                PlanChoice {
                    intermediate: Precision::Half,
                    host_method: HostMethod::Loop,
                },
            );
        let mut s = Session::new(SystemModel::system1(), vec_scale_program(), spec);
        let x = s.create_buffer("X", 1, Precision::Double).unwrap();
        s.enqueue_write(x, &FloatVec::from_f64_slice(&[0.1], Precision::Double))
            .unwrap();
        let dev = s.peek(x).unwrap();
        assert_eq!(dev.precision(), Precision::Single);
        // The value carries binary16 rounding even though storage is f32.
        assert_ne!(dev.get(0), f64::from(0.1f32));
    }
}
