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
use prescaler_ir::interp::{BufferMap, Launch};
use prescaler_ir::passes::{insert_casts, retype_buffers};
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::vm::{compile_kernel, CompiledKernel, VmScratch};
use prescaler_ir::{FloatVec, Param, Precision, Program, ScalarBound};
use prescaler_sim::{Direction, FaultPlan, HostMethod, SimTime, SystemModel, TransferPlan};
use std::collections::HashMap;

/// How a session rides out transient faults: bounded retries with
/// exponential backoff, all paid on the virtual clock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retry: the first transient
    /// failure surfaces to the caller as a retryable error).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: SimTime,
    /// Backoff growth per retry (exponential).
    pub multiplier: f64,
    /// Relative amplitude of the seeded backoff jitter: each backoff is
    /// scaled by a deterministic factor in `[1 - j, 1 + j]` drawn from
    /// `(jitter_seed, attempt)`. `0` disables jitter exactly, restoring
    /// the pure exponential schedule.
    pub jitter: f64,
    /// Seed of the jitter stream. Concurrent workers retrying after the
    /// same transient fault must carry *different* seeds (see
    /// [`RetryPolicy::with_jitter_salt`]) so their retries spread out
    /// instead of storming the device in lockstep.
    pub jitter_seed: u64,
    /// Per-operation cap on accumulated backoff; exceeding it is a fatal
    /// [`OclError::Timeout`]. `None` = unbounded.
    pub timeout: Option<SimTime>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: SimTime::from_micros(10.0),
            multiplier: 2.0,
            jitter: 0.25,
            jitter_seed: 0,
            timeout: Some(SimTime::from_secs(0.01)),
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (transient faults surface directly).
    #[must_use]
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A copy whose jitter stream is decorrelated by `salt`: give every
    /// concurrent worker a distinct salt so a burst of simultaneous
    /// transient faults fans retries out over time instead of replaying
    /// the identical backoff schedule on all workers at once.
    #[must_use]
    pub fn with_jitter_salt(mut self, salt: u64) -> RetryPolicy {
        self.jitter_seed = splitmix64(self.jitter_seed ^ salt);
        self
    }

    /// Backoff charged after the `attempt`-th (1-based) failed attempt:
    /// exponential in the attempt, scaled by the seeded jitter factor.
    /// Deterministic — the same `(policy, attempt)` always waits the same
    /// virtual time, so replays stay bit-identical.
    #[must_use]
    pub fn backoff_for(&self, attempt: u32) -> SimTime {
        let exponential =
            self.base_backoff * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        if self.jitter <= 0.0 {
            return exponential;
        }
        let bits =
            splitmix64(self.jitter_seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        let unit = (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        exponential * (1.0 - self.jitter + 2.0 * self.jitter * unit).max(0.05)
    }
}

/// The process-wide default execution thread budget: the
/// `PRESCALER_EXEC_THREADS` environment variable when set to a positive
/// integer, otherwise [`std::thread::available_parallelism`], otherwise 1.
/// A budget of 1 reproduces strictly sequential execution.
#[must_use]
pub fn default_exec_threads() -> usize {
    if let Ok(v) = std::env::var("PRESCALER_EXEC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
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
    program: Program,
    spec: ScalingSpec,
    buffers: Vec<DeviceBuffer>,
    log: ProfileLog,
    /// Precision-scaled kernel variants, compiled on first use (the
    /// paper's "compiler generates precision-scaled kernel in all
    /// possible cases" — here compiled lazily and cached).
    compiled: HashMap<(String, Vec<Precision>), std::sync::Arc<CompiledKernel>>,
    /// How transient faults are retried.
    retry: RetryPolicy,
    /// Register/binding storage reused across kernel launches.
    scratch: VmScratch,
    /// Real worker-thread budget for data-parallel kernel execution and
    /// precision conversion (1 = strictly sequential).
    exec_threads: usize,
}

impl Session {
    /// Creates a session for `program` on `system` under `spec`
    /// (`clCreateContext` + `clCreateProgramWithSource` + custom compile).
    #[must_use]
    pub fn new(system: SystemModel, program: Program, spec: ScalingSpec) -> Session {
        Session {
            system,
            program,
            spec,
            buffers: Vec::new(),
            log: ProfileLog::default(),
            compiled: HashMap::new(),
            retry: RetryPolicy::default(),
            scratch: VmScratch::new(),
            exec_threads: default_exec_threads(),
        }
    }

    /// Replaces the retry policy for transient faults.
    #[must_use]
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Session {
        self.retry = retry;
        self
    }

    /// Replaces the real worker-thread budget (clamped to at least 1).
    /// Execution results are bit-identical at every budget; only host
    /// wall-clock changes.
    #[must_use]
    pub fn with_exec_threads(mut self, threads: usize) -> Session {
        self.exec_threads = threads.max(1);
        self
    }

    /// Sets the real worker-thread budget in place (clamped to at least 1).
    pub fn set_exec_threads(&mut self, threads: usize) {
        self.exec_threads = threads.max(1);
    }

    /// The active real worker-thread budget.
    #[must_use]
    pub fn exec_threads(&self) -> usize {
        self.exec_threads
    }

    /// The active retry policy.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Rides out transient faults at one injection site: draws from the
    /// fault plan once per attempt, charging exponential backoff to the
    /// timeline. Returns `Ok` when an attempt goes through, the transient
    /// error itself when the policy forbids retries, and a fatal
    /// [`OclError::RetriesExhausted`]/[`OclError::Timeout`] otherwise.
    fn ride_out(
        &mut self,
        what: &str,
        fires: impl Fn(&FaultPlan) -> bool,
        transient: impl Fn(u32) -> OclError,
    ) -> Result<(), OclError> {
        let policy = self.retry;
        let mut waited = SimTime::ZERO;
        let mut attempt = 1u32;
        loop {
            if !fires(&self.system.faults) {
                return Ok(());
            }
            if policy.max_attempts <= 1 {
                return Err(transient(attempt));
            }
            if attempt >= policy.max_attempts {
                return Err(OclError::RetriesExhausted {
                    what: what.to_owned(),
                    attempts: attempt,
                });
            }
            let backoff = policy.backoff_for(attempt);
            if let Some(budget) = policy.timeout {
                if waited + backoff > budget {
                    // The cap truncates the final backoff: we stop waiting
                    // the moment the budget runs out, so only the truncated
                    // wait is charged to the timeline.
                    self.log
                        .record_fault_overhead(budget.saturating_sub(waited));
                    return Err(OclError::Timeout {
                        what: what.to_owned(),
                        budget,
                    });
                }
            }
            waited += backoff;
            self.log.record_fault_overhead(backoff);
            attempt += 1;
        }
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
        if self.system.faults.device_lost() {
            return Err(OclError::DeviceLost {
                what: format!("write `{label}`"),
            });
        }
        self.ride_out(
            &format!("write `{label}`"),
            FaultPlan::transfer_fails,
            |attempt| OclError::TransferFault {
                label: label.clone(),
                attempt,
            },
        )?;
        let noise = self.system.faults.time_noise_factor();
        let bandwidth = self.system.faults.bandwidth_factor();
        let cost = plan
            .time(&self.system, host.len())
            .at_bandwidth(bandwidth)
            .scaled(noise);
        // The simulated HostMethod drives the cost model above; the *real*
        // conversion parallelizes under the session's own thread budget.
        let mut data = plan.apply_with_threads(host, self.exec_threads);
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
        if self.system.faults.device_lost() {
            return Err(OclError::DeviceLost {
                what: format!("read `{label}`"),
            });
        }
        self.ride_out(
            &format!("read `{label}`"),
            FaultPlan::transfer_fails,
            |attempt| OclError::TransferFault {
                label: label.clone(),
                attempt,
            },
        )?;
        let buf = self.buffer(id)?;
        let noise = self.system.faults.time_noise_factor();
        let bandwidth = self.system.faults.bandwidth_factor();
        let cost = plan
            .time(&self.system, buf.data.len())
            .at_bandwidth(bandwidth)
            .scaled(noise);
        let mut out = plan.apply_with_threads(&buf.data, self.exec_threads);
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
    /// is present. The transformed kernel is re-checked, compiled once per
    /// variant, executed functionally by the VM, and its dynamic operation
    /// counts are priced on the GPU model.
    ///
    /// # Errors
    ///
    /// Propagates unknown kernels, unbound/foreign arguments, a scaled
    /// kernel failing the type checker, and execution errors.
    pub fn launch_kernel(
        &mut self,
        name: &str,
        global: [usize; 2],
        args: &[(&str, KernelArg)],
    ) -> Result<SimTime, OclError> {
        // Only the parameter list is needed up front; the kernel body is
        // re-borrowed lazily below, so launches hitting the compiled-variant
        // cache never clone the kernel.
        let params: Vec<Param> = self
            .program
            .kernel(name)
            .ok_or_else(|| OclError::UnknownKernel(name.to_owned()))?
            .params
            .clone();

        if self.system.faults.device_lost() {
            return Err(OclError::DeviceLost {
                what: format!("launch `{name}`"),
            });
        }
        self.ride_out(
            &format!("launch `{name}`"),
            FaultPlan::launch_fails,
            |attempt| OclError::LaunchFault {
                kernel: name.to_owned(),
                attempt,
            },
        )?;

        // Resolve bindings.
        let mut retype: HashMap<String, Precision> = HashMap::new();
        let mut buffer_args: Vec<(String, BufferId)> = Vec::new();
        let mut scalar_args: Vec<(String, ScalarBound)> = Vec::new();
        let mut launch = Launch {
            global,
            args: Vec::new(),
        };
        for p in &params {
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
                    retype.insert(pname.clone(), b.device_precision);
                    buffer_args.push((pname.clone(), *id));
                }
                (Param::Scalar { name: pname, .. }, KernelArg::Int(v)) => {
                    scalar_args.push((pname.clone(), ScalarBound::Int(*v)));
                    launch = launch.arg_int(pname.clone(), *v);
                }
                (Param::Scalar { name: pname, .. }, KernelArg::Float(v)) => {
                    scalar_args.push((pname.clone(), ScalarBound::Float(*v)));
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

        // Select (or compile) the precision-scaled kernel variant.
        let variant_key = (
            name.to_owned(),
            params
                .iter()
                .filter_map(|p| match p {
                    Param::Buffer { name: pn, .. } => retype.get(pn).copied(),
                    Param::Scalar { .. } => None,
                })
                .collect::<Vec<Precision>>(),
        );
        let compiled = if let Some(c) = self.compiled.get(&variant_key) {
            c.clone()
        } else {
            let kernel = self.program.kernel(name).expect("existence checked");
            let mut scaled = retype_buffers(kernel, &retype);
            if let Some(compute) = self.spec.in_kernel.get(name) {
                scaled = insert_casts(&scaled, compute);
            }
            check_kernel(&scaled)?;
            reject_verifier_errors(&scaled)?;
            let c = std::sync::Arc::new(compile_kernel(&scaled)?);
            self.compiled.insert(variant_key, c.clone());
            c
        };

        // Move the bound buffers into a launch map, run, move back.
        let mut map = BufferMap::new();
        for (pname, id) in &buffer_args {
            map.insert(
                pname.clone(),
                std::mem::replace(
                    &mut self.buffers[id.0].data,
                    FloatVec::zeros(0, Precision::Half),
                ),
            );
        }
        let result = if self.exec_threads > 1 {
            compiled.run_parallel(&mut map, &launch, &mut self.scratch, self.exec_threads)
        } else {
            compiled.run_with_scratch(&mut map, &launch, &mut self.scratch)
        };
        for (pname, id) in &buffer_args {
            if let Some(data) = map.remove(pname.as_str()) {
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
            .map(|(pname, id)| (pname.clone(), self.buffers[id.0].label.clone()))
            .collect();
        self.log
            .record_kernel(name, arg_map, scalar_args, global, counts, time);
        Ok(time)
    }
}

/// Rejects a kernel carrying Error-severity verifier diagnostics —
/// structurally broken IR must never reach compilation or execution.
/// Warnings (dead stores, unused params) are the lint tool's business.
fn reject_verifier_errors(kernel: &prescaler_ir::Kernel) -> Result<(), OclError> {
    let errors: Vec<String> = prescaler_ir::verify_kernel(kernel)
        .into_iter()
        .filter(|d| d.severity() == prescaler_ir::Severity::Error)
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
    use crate::spec::PlanChoice;
    use prescaler_ir::dsl::*;
    use prescaler_ir::Access;

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
        assert!(!err.is_retryable(), "device loss must not be ridden out");
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
    fn no_retry_policy_surfaces_retryable_errors() {
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(5).with_transfer_failures(0.9));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline())
            .with_retry_policy(RetryPolicy::no_retries());
        let x = s.create_buffer("X", 8, Precision::Double).unwrap();
        let xs = FloatVec::from_f64_slice(&[1.0; 8], Precision::Double);
        let mut saw_transient = false;
        for _ in 0..20 {
            if let Err(e) = s.enqueue_write(x, &xs) {
                assert!(matches!(e, OclError::TransferFault { .. }), "{e}");
                assert!(e.is_retryable());
                saw_transient = true;
            }
        }
        assert!(saw_transient, "at 90% failure rate something must fail");
    }

    #[test]
    fn exhausted_retries_become_fatal() {
        // Certain failure: every attempt fails, the budget runs out, and
        // the error is fatal (not retryable).
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(5).with_transfer_failures(1.0));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline());
        let x = s.create_buffer("X", 8, Precision::Double).unwrap();
        let xs = FloatVec::from_f64_slice(&[1.0; 8], Precision::Double);
        let e = s.enqueue_write(x, &xs).unwrap_err();
        assert!(
            matches!(
                e,
                OclError::RetriesExhausted { .. } | OclError::Timeout { .. }
            ),
            "{e}"
        );
        assert!(!e.is_retryable());
    }

    #[test]
    fn truncated_final_backoff_charges_exactly_the_budget() {
        // With jitter disabled the power-of-two durations keep every sum
        // exact, so the assertion below is bit-exact: backoffs 2⁻¹⁷s,
        // 2⁻¹⁶s, then 2⁻¹⁵s which the 3.5·2⁻¹⁷s budget truncates to
        // 2⁻¹⁸s — overhead must equal the budget, not the untruncated sum.
        let base = SimTime::from_secs(2f64.powi(-17));
        let budget = SimTime::from_secs(3.5 * 2f64.powi(-17));
        let policy = RetryPolicy {
            max_attempts: 16,
            base_backoff: base,
            multiplier: 2.0,
            jitter: 0.0,
            jitter_seed: 0,
            timeout: Some(budget),
        };
        let system =
            SystemModel::system1().with_faults(FaultPlan::seeded(5).with_transfer_failures(1.0));
        let mut s = Session::new(system, vec_scale_program(), ScalingSpec::baseline())
            .with_retry_policy(policy);
        let x = s.create_buffer("X", 8, Precision::Double).unwrap();
        let xs = FloatVec::from_f64_slice(&[1.0; 8], Precision::Double);
        let e = s.enqueue_write(x, &xs).unwrap_err();
        assert!(matches!(e, OclError::Timeout { .. }), "{e}");
        assert_eq!(
            s.timeline().fault_overhead,
            budget,
            "overhead must sum exactly to the truncated waits"
        );
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_decorrelated() {
        let policy = RetryPolicy::default();
        assert!(policy.jitter > 0.0, "jitter is on by default");
        for attempt in 1..=8u32 {
            let exact = policy.base_backoff * policy.multiplier.powi(attempt as i32 - 1);
            let jittered = policy.backoff_for(attempt);
            // Deterministic: the same (policy, attempt) always waits the
            // same virtual time…
            assert_eq!(jittered, policy.backoff_for(attempt));
            // …inside the configured band around the exponential schedule.
            let ratio = jittered.as_secs() / exact.as_secs();
            assert!(
                (1.0 - policy.jitter..=1.0 + policy.jitter).contains(&ratio),
                "attempt {attempt}: ratio {ratio} outside the jitter band"
            );
        }
        // Distinct worker salts must not retry in lockstep.
        let a = policy.with_jitter_salt(1);
        let b = policy.with_jitter_salt(2);
        let schedule =
            |p: &RetryPolicy| -> Vec<SimTime> { (1..=6).map(|i| p.backoff_for(i)).collect() };
        assert_ne!(schedule(&a), schedule(&b), "salts must decorrelate");
        assert_eq!(schedule(&a), schedule(&a), "each stream stays replayable");
        // Zero jitter restores the pure exponential schedule exactly.
        let plain = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        for attempt in 1..=8u32 {
            assert_eq!(
                plain.backoff_for(attempt),
                plain.base_backoff * plain.multiplier.powi(attempt as i32 - 1)
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
