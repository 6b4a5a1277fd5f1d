//! Layer probes of the traced pass: each replays, from outside the
//! library, the work one layer does for the workload's apps, sized from
//! their logged baseline runs.

use crate::affinity::host_cores;
use crate::metrics::{median, Metric};
use crate::workloads::{out_dir, Fixture};
use prescaler_core::{profile_app, StaticAnalysis};
use prescaler_ir::interp::{run_kernel, BufferMap, Launch};
use prescaler_ir::passes::retype_buffers;
use prescaler_ir::typeck::check_kernel;
use prescaler_ir::vm::{compile_kernel, CompiledKernel, VmScratch};
use prescaler_ir::{verify_kernel, FloatVec, Kernel, OpCounts, Param, Precision, ScalarBound};
use prescaler_ocl::{run_app, Event, HostApp, Outputs, ProfileLog, ScalingSpec};
use prescaler_persist::{EvalBits, TrialJournal, TrialRecord};
use prescaler_polybench::output_quality;
use prescaler_sim::convert::convert_parallel;
use prescaler_sim::{Direction, HostMethod, TransferPlan};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Records written by the journal probe.
const JOURNAL_RECORDS: u64 = 128;
/// Repetitions of each sub-microsecond call (cost model, quality score).
const REPS: u32 = 32;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// One app's baseline run on the clean system.
struct Baseline {
    app_index: usize,
    outputs: Outputs,
    log: ProfileLog,
}

/// Runs every probe. `Err` names the first broken guarantee (a VM
/// result that differs from the reference interpreter).
pub fn run(fx: &Fixture) -> Result<Vec<Metric>, String> {
    let clean = fx.system.without_faults();
    let baselines: Vec<Baseline> = fx
        .apps
        .iter()
        .enumerate()
        .map(|(app_index, app)| {
            run_app(app, &clean, &ScalingSpec::baseline())
                .map(|(outputs, log)| Baseline {
                    app_index,
                    outputs,
                    log,
                })
                .map_err(|e| format!("{}: baseline run failed: {e}", app.name()))
        })
        .collect::<Result<_, _>>()?;
    let mut out = ir(fx);
    out.extend(vm(fx, &baselines)?);
    out.extend(conversion(&baselines));
    out.extend(cost_model(fx, &baselines));
    out.extend(quality(fx, &baselines));
    out.extend(journal(fx)?);
    Ok(out)
}

/// Each kernel at each uniform precision through the session's scale
/// pipeline: retype, type check, verify, compile.
fn ir(fx: &Fixture) -> Vec<Metric> {
    let (mut retype, mut typeck, mut verify, mut compile, mut n) = (0.0, 0.0, 0.0, 0.0, 0u32);
    for app in &fx.apps {
        for kernel in &app.program().kernels {
            for p in Precision::ALL {
                let t = Instant::now();
                let scaled = retype_buffers(kernel, &uniform(kernel, p));
                retype += secs(t);
                let t = Instant::now();
                let checked = check_kernel(&scaled).is_ok();
                typeck += secs(t);
                let t = Instant::now();
                black_box(verify_kernel(&scaled));
                verify += secs(t);
                let t = Instant::now();
                black_box(checked && compile_kernel(&scaled).is_ok());
                compile += secs(t);
                n += 1;
            }
        }
    }
    let us = |s: f64| s * 1e6 / f64::from(n);
    vec![
        Metric::new("ir.retype_us", us(retype), "us"),
        Metric::new("ir.typeck_us", us(typeck), "us"),
        Metric::new("ir.verify_us", us(verify), "us"),
        Metric::new("ir.compile_us", us(compile), "us"),
        Metric::new("ir.variants", f64::from(n), "count"),
    ]
}

fn uniform(kernel: &Kernel, p: Precision) -> HashMap<String, Precision> {
    kernel
        .params
        .iter()
        .filter_map(|param| match param {
            Param::Buffer { name, .. } => Some((name.clone(), p)),
            Param::Scalar { .. } => None,
        })
        .collect()
}

/// One logged kernel launch, ready to replay.
struct Replay<'a> {
    kernel: &'a Kernel,
    /// Buffer parameter → element count.
    buffers: Vec<(String, usize)>,
    launch: Launch,
}

fn replays<'a>(kernels: &'a HashMap<String, Kernel>, log: &ProfileLog) -> Vec<Replay<'a>> {
    log.events
        .iter()
        .filter_map(|e| match e {
            Event::KernelLaunch {
                kernel,
                args,
                scalar_args,
                global,
                ..
            } => {
                let launch = scalar_args.iter().fold(
                    Launch {
                        global: *global,
                        args: Vec::new(),
                    },
                    |l, (name, v)| match v {
                        ScalarBound::Int(i) => l.arg_int(name.clone(), *i),
                        ScalarBound::Float(f) => l.arg_float(name.clone(), *f),
                    },
                );
                Some(Replay {
                    kernel: kernels.get(kernel)?,
                    buffers: args
                        .iter()
                        .map(|(param, label)| {
                            (param.clone(), log.object(label).map_or(0, |o| o.len))
                        })
                        .collect(),
                    launch,
                })
            }
            Event::Transfer { .. } => None,
        })
        .collect()
}

fn zeroed(buffers: &[(String, usize)], p: Precision) -> BufferMap {
    buffers
        .iter()
        .map(|(name, len)| (name.clone(), FloatVec::zeros(*len, p)))
        .collect()
}

fn same_bits(a: &BufferMap, b: &BufferMap) -> bool {
    a.len() == b.len()
        && a.iter().all(|(name, x)| {
            b.get(name).is_some_and(|y| {
                x.precision() == y.precision()
                    && x.len() == y.len()
                    && (0..x.len()).all(|i| x.get(i).to_bits() == y.get(i).to_bits())
            })
        })
}

/// Replays every logged launch on zero-filled buffers at uniform double
/// and uniform half, sequentially and on every core, and holds both to
/// the reference interpreter bit for bit.
fn vm(fx: &Fixture, baselines: &[Baseline]) -> Result<Vec<Metric>, String> {
    let threads = host_cores();
    let mut scratch = VmScratch::new();
    let mut out = Vec::new();
    let (mut seq_all, mut par_all, mut ops) = (0.0, 0.0, 0u64);
    for (p, label) in [(Precision::Double, "double"), (Precision::Half, "half")] {
        let mut seq = 0.0;
        let mut checked = HashSet::new();
        for b in baselines {
            let program = fx.apps[b.app_index].program();
            let kernels: HashMap<String, Kernel> = program
                .kernels
                .iter()
                .map(|k| (k.name.clone(), retype_buffers(k, &uniform(k, p))))
                .collect();
            let compiled: HashMap<&str, CompiledKernel> = kernels
                .iter()
                .map(|(name, k)| {
                    compile_kernel(k)
                        .map(|c| (name.as_str(), c))
                        .map_err(|e| format!("{name}: compile failed: {e}"))
                })
                .collect::<Result<_, _>>()?;
            for r in replays(&kernels, &b.log) {
                let vm = &compiled[r.kernel.name.as_str()];
                let mut bufs = zeroed(&r.buffers, p);
                let t = Instant::now();
                let counts = vm.run_with_scratch(&mut bufs, &r.launch, &mut scratch);
                seq += secs(t);
                let mut par_bufs = zeroed(&r.buffers, p);
                let t = Instant::now();
                let par_counts = vm.run_parallel(&mut par_bufs, &r.launch, &mut scratch, threads);
                par_all += secs(t);
                // The interpreter is an order of magnitude slower than the
                // VM: hold the first launch of each kernel to it, and every
                // parallel launch to the sequential one.
                let (reference, ref_bufs) = if checked.insert((b.app_index, r.kernel.name.clone()))
                {
                    let mut ref_bufs = zeroed(&r.buffers, p);
                    (run_kernel(r.kernel, &mut ref_bufs, &r.launch), ref_bufs)
                } else {
                    (counts.clone(), bufs.clone())
                };
                let agree = |c: &Result<OpCounts, _>, m: &BufferMap| {
                    c.as_ref().ok() == reference.as_ref().ok() && same_bits(m, &ref_bufs)
                };
                if !(agree(&counts, &bufs) && agree(&par_counts, &par_bufs)) {
                    return Err(format!(
                        "{} at {label}: VM replay differs from the reference interpreter",
                        r.kernel.name
                    ));
                }
                if let Ok(c) = counts {
                    ops += c.total_flops() + c.int_ops;
                }
            }
        }
        seq_all += seq;
        out.push(Metric::new(format!("ir.vm_ms.{label}"), seq * 1e3, "ms"));
    }
    out.push(Metric::new("ir.vm_ops_per_s", ops as f64 / seq_all, "1/s"));
    out.push(Metric::new("ir.vm_par_speedup", seq_all / par_all, "x"));
    Ok(out)
}

/// Converts every logged object at its size: double→half (device to
/// host wire), half→double, double→single, on one thread and on every
/// core.
fn conversion(baselines: &[Baseline]) -> Vec<Metric> {
    let threads = host_cores();
    let (mut d2h, mut h2d, mut d2s, mut par, mut elems) = (0.0, 0.0, 0.0, 0.0, 0usize);
    for b in baselines {
        for obj in &b.log.objects {
            let values: Vec<f64> = (0..obj.len)
                .map(|i| (i % 1021) as f64 * 0.37 + 0.5)
                .collect();
            let double = FloatVec::from_f64_slice(&values, Precision::Double);
            let half = double.converted(Precision::Half);
            let t = Instant::now();
            black_box(convert_parallel(&double, Precision::Half, 1));
            d2h += secs(t);
            let t = Instant::now();
            black_box(convert_parallel(&half, Precision::Double, 1));
            h2d += secs(t);
            let t = Instant::now();
            black_box(convert_parallel(&double, Precision::Single, 1));
            d2s += secs(t);
            let t = Instant::now();
            black_box(convert_parallel(&double, Precision::Half, threads));
            black_box(convert_parallel(&half, Precision::Double, threads));
            black_box(convert_parallel(&double, Precision::Single, threads));
            par += secs(t);
            elems += obj.len;
        }
    }
    let ns = |s: f64| s * 1e9 / elems.max(1) as f64;
    vec![
        Metric::new("convert.d2h_ns_per_elem", ns(d2h), "ns"),
        Metric::new("convert.h2d_ns_per_elem", ns(h2d), "ns"),
        Metric::new("convert.d2s_ns_per_elem", ns(d2s), "ns"),
        Metric::new("convert.par_speedup", (d2h + h2d + d2s) / par, "x"),
    ]
}

/// Prices every logged launch on the GPU model and every logged transfer
/// as a host-scaled half transfer.
fn cost_model(fx: &Fixture, baselines: &[Baseline]) -> Vec<Metric> {
    let (mut kernel, mut nk, mut transfer, mut nt) = (0.0, 0u32, 0.0, 0u32);
    for b in baselines {
        for e in &b.log.events {
            match e {
                Event::KernelLaunch { counts, .. } => {
                    let t = Instant::now();
                    for _ in 0..REPS {
                        black_box(fx.system.gpu.kernel_time(black_box(counts)));
                    }
                    kernel += secs(t);
                    nk += REPS;
                }
                Event::Transfer {
                    direction, elems, ..
                } => {
                    let (src, dst) = match direction {
                        Direction::HtoD => (Precision::Double, Precision::Half),
                        Direction::DtoH => (Precision::Half, Precision::Double),
                    };
                    let plan = TransferPlan::host_scaled(*direction, src, dst, HostMethod::Loop);
                    let t = Instant::now();
                    for _ in 0..REPS {
                        black_box(plan.time(&fx.system, black_box(*elems)));
                    }
                    transfer += secs(t);
                    nt += REPS;
                }
            }
        }
    }
    vec![
        Metric::new(
            "sim.kernel_cost_ns",
            kernel * 1e9 / f64::from(nk.max(1)),
            "ns",
        ),
        Metric::new(
            "sim.transfer_cost_ns",
            transfer * 1e9 / f64::from(nt.max(1)),
            "ns",
        ),
    ]
}

/// Scores each app's uniform-half outputs against its baseline.
fn quality(fx: &Fixture, baselines: &[Baseline]) -> Vec<Metric> {
    let clean = fx.system.without_faults();
    let (mut total, mut n) = (0.0, 0u32);
    for b in baselines {
        let spec = b.log.objects.iter().fold(ScalingSpec::baseline(), |s, o| {
            s.with_target(o.label.clone(), Precision::Half)
        });
        let Ok((half, _)) = run_app(&fx.apps[b.app_index], &clean, &spec) else {
            continue;
        };
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(output_quality(black_box(&b.outputs), &half));
        }
        total += secs(t);
        n += REPS;
    }
    vec![Metric::new(
        "quality.score_us",
        total * 1e6 / f64::from(n.max(1)),
        "us",
    )]
}

/// Appends fsynced records to a fresh journal, then reopens it.
fn journal(fx: &Fixture) -> Result<Vec<Metric>, String> {
    const CONTEXT: u64 = 0x1ED6_E500;
    let path = out_dir().join(format!(
        "probe-{}-{}.wal",
        fx.workload.name(),
        std::process::id()
    ));
    let fail = |e: prescaler_persist::PersistError| format!("journal probe: {e}");
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("journal probe: {e}"))?;
    let mut journal = TrialJournal::create(&path, CONTEXT).map_err(fail)?;
    let t = Instant::now();
    for i in 0..JOURNAL_RECORDS {
        journal
            .append(&TrialRecord {
                fingerprint: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                clean: i % 2 == 0,
                charged: true,
                eval: Some(EvalBits {
                    time_bits: 1.5f64.to_bits(),
                    kernel_bits: 0.5f64.to_bits(),
                    quality_bits: 0.95f64.to_bits(),
                }),
            })
            .map_err(fail)?;
    }
    let append = secs(t);
    drop(journal);
    let t = Instant::now();
    let (_, recovery) = TrialJournal::open(&path, CONTEXT).map_err(fail)?;
    let open = secs(t);
    std::fs::remove_file(&path).map_err(|e| format!("journal probe: {e}"))?;
    if recovery.records.len() as u64 != JOURNAL_RECORDS {
        return Err(format!(
            "journal probe: reopened {} records",
            recovery.records.len()
        ));
    }
    Ok(vec![
        Metric::new(
            "persist.append_us",
            append * 1e6 / JOURNAL_RECORDS as f64,
            "us",
        ),
        Metric::new("persist.open_us", open * 1e6, "us"),
    ])
}

/// Wall time of one `StaticAnalysis::of` per app, in ms, keyed by app.
pub fn static_analysis_ms(fx: &Fixture) -> Result<Vec<(String, f64)>, String> {
    fx.apps
        .iter()
        .map(|app| {
            let profile = profile_app(app, &fx.system)
                .map_err(|e| format!("{}: profiling failed: {e}", app.name()))?;
            let program = app.program();
            let samples: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    black_box(StaticAnalysis::of(&program, &profile));
                    secs(t) * 1e3
                })
                .collect();
            Ok((app.name().to_owned(), median(&samples)))
        })
        .collect()
}
