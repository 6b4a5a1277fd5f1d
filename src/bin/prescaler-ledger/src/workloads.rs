//! The four seeded workloads: what one setup builds and what one round
//! runs, traced or not.

use crate::calibrate::{Calibrated, HostSpeed};
use crate::trace::{traced, Timed, Tracer};
use prescaler_core::{
    profile_app, tune_durable, DurableReport, InspectorDb, PreScaler, SystemInspector, TrialEngine,
    TrialStats, TuneError, Tuned,
};
use prescaler_guard::{Guard, GuardPolicy};
use prescaler_ir::Precision;
use prescaler_ocl::{HostApp, OclError, ScalingSpec};
use prescaler_persist::TrialJournal;
use prescaler_polybench::{BenchKind, Dims, InputSet, PolyApp};
use prescaler_serve::{ArrivalTrace, ServeConfig, ServeRun, Server};
use prescaler_sim::{FaultPlan, SystemModel};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The target output quality of every tune and of the guard.
const TOQ: f64 = 0.9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TuneSuite,
    TuneTiny,
    TuneDurableFaulty,
    ServeOverload,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TuneSuite,
        Workload::TuneTiny,
        Workload::TuneDurableFaulty,
        Workload::ServeOverload,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneSuite => "tune-suite",
            Workload::TuneTiny => "tune-tiny",
            Workload::TuneDurableFaulty => "tune-durable-faulty",
            Workload::ServeOverload => "serve-overload",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether one operation is a tune (as opposed to a serving session).
    pub fn tunes(self) -> bool {
        self != Workload::ServeOverload
    }

    /// How strongly the workload's wall time follows the calibration
    /// kernel's when the host slows: the exponent `calibrate` scales by.
    /// Fitted on 60 runs per workload over host speeds of 0.57–0.99 (see
    /// README.md): 1 fits `tune-suite`, `tune-durable-faulty` and
    /// `serve-overload`. `tune-tiny` slows more than the kernel (a
    /// 1.7x slower host slowed it 12% more) and fits 1.2.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::TuneTiny => 1.2,
            _ => 1.0,
        }
    }
}

/// Full size for measurement; CI size for the smoke tests (tiny
/// dimensions, a 50-arrival trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Ci,
}

/// Serving workers: two, capped at the cores the calling thread may use
/// (one in a pinned pass).
pub fn serve_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Where runs, journals and traces go, relative to the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from("target/prescaler-ledger")
}

/// The `PolyApp` input seed for a benchmark seed.
fn input_seed(seed: u64) -> u64 {
    0xC60_2020 ^ seed
}

/// Everything a workload builds before its timed rounds.
pub struct Fixture {
    pub workload: Workload,
    pub system: SystemModel,
    pub db: InspectorDb,
    pub apps: Vec<PolyApp>,
    /// Set for `serve-overload` only.
    pub serve: Option<ServeFixture>,
    /// Set for `tune-durable-faulty` only.
    pub journal_dir: Option<PathBuf>,
}

pub struct ServeFixture {
    pub guard: Guard,
    pub trace: ArrivalTrace,
    pub config: ServeConfig,
}

impl Fixture {
    pub fn tuner(&self) -> PreScaler<'_> {
        PreScaler::new(&self.system, &self.db, TOQ)
    }

    /// The serving app at drift gain `gain`.
    pub fn serve_app(&self, gain: f64) -> PolyApp {
        self.apps[0].clone().with_input_gain(gain)
    }
}

fn half_spec(labels: &[&str]) -> ScalingSpec {
    labels.iter().fold(ScalingSpec::baseline(), |spec, label| {
        spec.with_target(*label, Precision::Half)
    })
}

/// Builds a workload's fixture. Traced, inspection and guard construction
/// get spans of their own.
pub fn setup(
    workload: Workload,
    seed: u64,
    size: Size,
    tracer: Option<&Tracer>,
) -> Result<Fixture, OclError> {
    let tiny = |k: BenchKind| PolyApp::new(k, k.test_dims(), InputSet::Default, input_seed(seed));
    let scaled = |k: BenchKind, scale: f64| match size {
        Size::Full => PolyApp::new(k, k.dims(scale), InputSet::Default, input_seed(seed)),
        Size::Ci => tiny(k),
    };
    let (system, apps): (SystemModel, Vec<PolyApp>) = match workload {
        Workload::TuneSuite => (
            SystemModel::system1(),
            BenchKind::ALL.iter().map(|&k| scaled(k, 0.1)).collect(),
        ),
        Workload::TuneTiny => (
            SystemModel::system1(),
            BenchKind::ALL.iter().map(|&k| tiny(k)).collect(),
        ),
        Workload::TuneDurableFaulty => (
            SystemModel::system2().with_faults(
                FaultPlan::seeded(seed)
                    .with_transfer_failures(0.05)
                    .with_launch_failures(0.05)
                    .with_clock_noise(0.02),
            ),
            BenchKind::ALL.iter().map(|&k| scaled(k, 0.05)).collect(),
        ),
        Workload::ServeOverload => {
            let n = match size {
                Size::Full => 32,
                Size::Ci => 8,
            };
            (
                SystemModel::system1().with_faults(
                    FaultPlan::seeded(seed)
                        .with_input_drift(0.3, 2.0)
                        .with_overload_burst(0.25, 3),
                ),
                vec![PolyApp::new(
                    BenchKind::Gemm,
                    Dims::square(n),
                    InputSet::Random,
                    input_seed(seed),
                )],
            )
        }
    };
    let db = traced(tracer, "inspect", None, || {
        SystemInspector::inspect(&system)
    });
    let mut fixture = Fixture {
        workload,
        system,
        db,
        apps,
        serve: None,
        journal_dir: None,
    };
    match workload {
        Workload::TuneDurableFaulty => {
            fixture.journal_dir = Some(out_dir().join(format!(
                "journals-{}-{}",
                workload.name(),
                std::process::id()
            )));
        }
        Workload::ServeOverload => {
            let spec = half_spec(&["A", "B", "C"]);
            // Arrivals land ~1.7x faster than the device serves, so the
            // bounded queue must shed.
            let clean = fixture.system.without_faults();
            let service = prescaler_guard::speculate(&clean, &spec, 0, |g| fixture.serve_app(g))
                .result?
                .1
                .timeline
                .total();
            let base = match size {
                Size::Full => 2000,
                Size::Ci => 50,
            };
            let trace = ArrivalTrace::generate(seed, base, service * 0.6, &fixture.system.faults);
            let app = &fixture.apps[0];
            let guard = traced(tracer, "guard.new", Some(app.name()), || match tracer {
                Some(t) => {
                    let timed = Timed {
                        app: app.clone(),
                        tracer: t,
                    };
                    Guard::new(&timed, &fixture.system, spec, GuardPolicy::default())
                }
                None => Guard::new(app, &fixture.system, spec, GuardPolicy::default()),
            })?;
            let config = ServeConfig {
                queue_capacity: 4,
                deadline: service * 4.0,
                workers: 1,
                overload_shed_tolerance: 8,
            };
            fixture.serve = Some(ServeFixture {
                guard,
                trace,
                config,
            });
        }
        Workload::TuneSuite | Workload::TuneTiny => {}
    }
    Ok(fixture)
}

/// What one tune (or one cold durable tune and its resume) decided and
/// what it cost.
pub struct TuneFacts {
    pub app: String,
    pub tuned: Tuned,
    /// Engine counters of the (cold) tune.
    pub stats: TrialStats,
    /// The resume of a durable tune.
    pub resume: Option<DurableReport>,
}

/// Counters of one round that the traced pass reports per round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub pruned: u64,
    pub replayed: u64,
    pub resume_executions: u64,
    pub guard_runs: u64,
    pub canary_runs: u64,
    pub served: u64,
}

/// When one operation ran, and on which app (its index in the fixture).
pub struct Op {
    pub app: usize,
    pub start: Instant,
    pub end: Instant,
}

impl Op {
    fn timed<T>(app: usize, speed: Option<&HostSpeed>, f: impl FnOnce() -> T) -> (Op, T) {
        if let Some(speed) = speed {
            speed.refresh();
        }
        let start = Instant::now();
        let out = f();
        let op = Op {
            app,
            start,
            end: Instant::now(),
        };
        (op, out)
    }
}

/// The outcome of one round.
pub struct Round {
    /// Wall time of the whole round, calibration included.
    pub wall_s: f64,
    /// Every operation: tunes, cold durable tunes or serving sessions.
    pub ops: Vec<Op>,
    /// Every durable resume.
    pub resumes: Vec<Op>,
    pub attempted: u64,
    pub failed: u64,
    /// The round's decisions, one digest per tune or the serving outcome
    /// digest: identical across rounds, passes and worker counts.
    pub digests: Vec<u64>,
    pub tally: Tally,
    /// Every tune's result; emptied by [`Round::slim`].
    pub tunes: Vec<TuneFacts>,
    /// The serving session's result; dropped by [`Round::slim`].
    pub serve: Option<ServeRun>,
    /// Broken guarantees, one line each.
    pub failures: Vec<String>,
}

impl Round {
    /// Drops the per-tune and per-request results, so that memory does
    /// not grow with the number of rounds a pass keeps.
    pub fn slim(&mut self) {
        self.tunes = Vec::new();
        self.serve = None;
    }
}

/// Runs one round. With a tracer, every library call gets a span, the
/// trial engine runs without speculation and serving uses `workers`.
/// With `speed`, the host's speed is sampled before each operation and
/// each application run.
pub fn round(
    fx: &Fixture,
    tracer: Option<&Tracer>,
    workers: usize,
    speed: Option<&HostSpeed>,
) -> Round {
    let start = Instant::now();
    let mut r = Round {
        wall_s: 0.0,
        ops: Vec::new(),
        resumes: Vec::new(),
        attempted: 0,
        failed: 0,
        digests: Vec::new(),
        tally: Tally::default(),
        tunes: Vec::new(),
        serve: None,
        failures: Vec::new(),
    };
    if fx.workload.tunes() {
        for (index, app) in fx.apps.iter().enumerate() {
            r.attempted += 1;
            let timed = tracer.map(|t| Timed {
                app: app.clone(),
                tracer: t,
            });
            let calibrated = speed.map(|speed| Calibrated {
                app: app.clone(),
                speed,
            });
            let host: &dyn HostApp = match (&timed, &calibrated) {
                (Some(t), _) => t,
                (None, Some(c)) => c,
                (None, None) => app,
            };
            match tune_op(fx, index, host, tracer, speed, &mut r) {
                Ok(facts) => {
                    check_tune(&facts.app, &facts.tuned, &mut r.failures);
                    r.digests.push(facts.tuned.decision_digest());
                    r.tally.pruned += facts.tuned.pruned_static as u64;
                    if let Some(resume) = &facts.resume {
                        check_resume(&facts, resume, &mut r.failures);
                        r.tally.replayed += resume.replayed as u64;
                        r.tally.resume_executions += resume.stats.executions as u64;
                    }
                    r.tunes.push(facts);
                }
                Err(e) => {
                    r.failed += 1;
                    r.failures.push(format!("{}: tune failed: {e}", app.name()));
                }
            }
        }
    } else {
        let (op, run) = Op::timed(0, speed, || match (tracer, speed) {
            (Some(t), _) => {
                let _s = t.span("serve", Some(fx.apps[0].name()));
                serve(fx, workers, |g| Timed {
                    app: fx.serve_app(g),
                    tracer: t,
                })
            }
            (None, Some(speed)) => serve(fx, workers, |g| Calibrated {
                app: fx.serve_app(g),
                speed,
            }),
            (None, None) => serve(fx, workers, |g| fx.serve_app(g)),
        });
        r.ops.push(op);
        r.attempted += 1;
        check_serve(fx, &run, &mut r.failures);
        r.digests.push(run.report.outcome_digest);
        r.tally.guard_runs = run.report.guard.runs;
        r.tally.canary_runs = run.report.guard.canary_runs;
        r.tally.served = run.report.summary.served;
        r.serve = Some(run);
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

fn serving(fx: &Fixture) -> &ServeFixture {
    fx.serve
        .as_ref()
        .expect("serve-overload builds a serve fixture")
}

/// One serving session over the seeded trace, from a fresh copy of the
/// setup's guard.
pub fn serve<A: HostApp>(
    fx: &Fixture,
    workers: usize,
    app_at: impl Fn(f64) -> A + Sync,
) -> ServeRun {
    let sf = serving(fx);
    Server::new(sf.guard.clone(), sf.config.with_workers(workers)).serve(&sf.trace, app_at)
}

/// One operation: a tune, or a cold durable tune followed by its resume.
/// Only the tune (the cold leg) counts as the operation's wall time.
fn tune_op(
    fx: &Fixture,
    index: usize,
    app: &dyn HostApp,
    tracer: Option<&Tracer>,
    speed: Option<&HostSpeed>,
    r: &mut Round,
) -> Result<TuneFacts, TuneError> {
    let tuner = fx.tuner();
    let name = app.name().to_owned();
    let Some(dir) = &fx.journal_dir else {
        let (op, tuned) = Op::timed(index, speed, || {
            traced(tracer, "tune", Some(&name), || tune(&tuner, app, tracer))
        });
        let (tuned, stats) = tuned?;
        r.ops.push(op);
        return Ok(TuneFacts {
            app: name,
            tuned,
            stats,
            resume: None,
        });
    };
    std::fs::create_dir_all(dir).map_err(|e| TuneError::Persist(e.into()))?;
    let path = dir.join(format!("{name}.wal"));
    if path.exists() {
        std::fs::remove_file(&path).map_err(|e| TuneError::Persist(e.into()))?;
    }
    let (op, cold) = Op::timed(index, speed, || {
        traced(tracer, "durable.cold", Some(&name), || {
            durable(&tuner, app, &path, tracer)
        })
    });
    let cold = cold?;
    r.ops.push(op);
    let (op, resume) = Op::timed(index, speed, || {
        traced(tracer, "durable.resume", Some(&name), || {
            durable(&tuner, app, &path, tracer)
        })
    });
    let resume = resume?;
    r.resumes.push(op);
    Ok(TuneFacts {
        app: name,
        tuned: cold.tuned,
        stats: cold.stats,
        resume: Some(resume),
    })
}

/// `profile_app` → trial engine → `tune_with_engine`, the steps of
/// `PreScaler::tune` one by one. Traced, speculation is off so that
/// spans nest on one thread.
fn tune(
    tuner: &PreScaler<'_>,
    app: &dyn HostApp,
    tracer: Option<&Tracer>,
) -> Result<(Tuned, TrialStats), OclError> {
    let system = tuner.system();
    let profile = traced(tracer, "profile", None, || profile_app(app, system))?;
    let engine = traced(tracer, "engine.new", None, || match tracer {
        Some(_) => TrialEngine::with_speculation(app, system, &profile, false),
        None => TrialEngine::new(app, system, &profile),
    });
    let tuned = traced(tracer, "search", None, || tuner.tune_with_engine(&engine));
    Ok((tuned, engine.stats()))
}

/// A durable tune. Untraced, this is `tune_durable` itself. Traced, it is
/// the same steps with a span each (`tune_durable` offers no hook between
/// them) and speculation off.
fn durable(
    tuner: &PreScaler<'_>,
    app: &dyn HostApp,
    path: &Path,
    tracer: Option<&Tracer>,
) -> Result<DurableReport, TuneError> {
    if tracer.is_none() {
        return tune_durable(tuner, app, path);
    }
    let system = tuner.system();
    let profile = traced(tracer, "profile", None, || profile_app(app, system))?;
    let mut engine = traced(tracer, "engine.new", None, || {
        TrialEngine::with_speculation(app, system, &profile, false)
    });
    let (journal, recovery) = traced(tracer, "journal.open", None, || {
        TrialJournal::open(path, engine.context_fingerprint())
    })?;
    let replayed = engine.attach_journal(journal, &recovery.records);
    let tuned = traced(tracer, "search", None, || tuner.tune_with_engine(&engine));
    Ok(DurableReport {
        tuned,
        replayed,
        stats: engine.stats(),
        recovery,
    })
}

/// The tuner's guarantee: quality at or above the TOQ and never slower
/// than the baseline.
fn check_tune(app: &str, tuned: &Tuned, failures: &mut Vec<String>) {
    if !(tuned.eval.quality >= TOQ && tuned.speedup() >= 1.0) {
        failures.push(format!(
            "{app}: quality {} (TOQ {TOQ}) or speedup {} below 1",
            tuned.eval.quality,
            tuned.speedup()
        ));
    }
}

/// A resume replays the whole cold journal and re-executes nothing.
fn check_resume(cold: &TuneFacts, resume: &DurableReport, failures: &mut Vec<String>) {
    let same = resume.tuned.decision_digest() == cold.tuned.decision_digest()
        && resume.tuned.trials == cold.tuned.trials
        && resume.tuned.cache_hits == cold.tuned.cache_hits;
    if !same || resume.stats.executions != 0 || resume.replayed != cold.stats.executions {
        failures.push(format!(
            "{}: resume differs from its cold tune (executions {}, replayed {} of {})",
            cold.app, resume.stats.executions, resume.replayed, cold.stats.executions
        ));
    }
}

/// Every arrival has one typed fate and the queue stays within bounds.
fn check_serve(fx: &Fixture, run: &ServeRun, failures: &mut Vec<String>) {
    let s = &run.report.summary;
    if s.accounted() != s.arrivals || s.arrivals != serving(fx).trace.len() as u64 {
        failures.push(format!(
            "serve: {} of {} arrivals accounted",
            s.accounted(),
            s.arrivals
        ));
    }
    if s.peak_queue_depth > serving(fx).config.queue_capacity as u64 {
        failures.push(format!(
            "serve: queue depth {} over capacity",
            s.peak_queue_depth
        ));
    }
}

/// Virtual arrival-to-completion latency of every served request, in ms.
pub fn served_latencies_ms(run: &ServeRun) -> Vec<f64> {
    run.outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok())
        .map(|s| (s.completed - s.arrival).as_secs() * 1e3)
        .collect()
}
