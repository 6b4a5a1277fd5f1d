//! The two passes over one workload: the measured end-to-end pass
//! (tracing off) and the traced pass that yields the per-layer numbers.

use crate::affinity::{host_cores, Pin};
use crate::calibrate::HostSpeed;
use crate::metrics::{geomean, median, quantile, Metric};
use crate::probes;
use crate::trace::{Tracer, Tree};
use crate::workloads::{
    self, serve_workers, served_latencies_ms, setup, Fixture, Round, Size, Workload,
};
use prescaler_ocl::HostApp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Set-ups timed per pass; `setup_s` is their median.
const SETUP_REPS: usize = 31;
/// Alternating traced/untraced batch pairs behind `trace.overhead_frac`.
const OVERHEAD_PAIRS: usize = 5;
/// Traced rounds kept at most (bounds the trace file of `tune-tiny`).
const MAX_TRACED_ROUNDS: usize = 100;

/// What the host offered the run, and what the pass used of it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// CPUs available to the process before pinning.
    pub host_cores: u64,
    /// Whether the measured rounds ran pinned to one CPU.
    pub pinned: bool,
    /// `default_exec_threads()` as the measured rounds saw it.
    pub default_exec_threads: u64,
    /// Whether `TrialEngine::new` speculated in the measured rounds.
    pub speculation: bool,
    pub serve_workers: u64,
    pub commit: String,
}

/// One pass over one workload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Outcome {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Broken guarantees, one line each; empty when `correct`.
    pub failures: Vec<String>,
    pub host: Host,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The rounds of a pass: at least one, then as many as fit in `budget`
/// (the next round is predicted to last as long as the longest so far),
/// up to `max`. Every round but the first is slimmed.
fn rounds(budget: Duration, max: usize, mut one: impl FnMut() -> Round) -> Vec<Round> {
    let start = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    loop {
        let mut r = one();
        if !out.is_empty() {
            r.slim();
        }
        out.push(r);
        let longest = out.iter().map(|r| r.wall_s).fold(0.0, f64::max);
        if out.len() >= max || start.elapsed().as_secs_f64() + longest > budget.as_secs_f64() {
            return out;
        }
    }
}

/// Digest agreement across rounds and against a reference.
fn check_digests(rounds: &[Round], reference: &[u64], what: &str, failures: &mut Vec<String>) {
    for (i, r) in rounds.iter().enumerate() {
        if r.digests != reference {
            failures.push(format!("round {i}: decisions differ from the {what}"));
        }
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The host as the calling thread sees it now.
fn host(pinned: bool) -> Host {
    Host {
        host_cores: host_cores() as u64,
        pinned,
        default_exec_threads: prescaler_ocl::default_exec_threads() as u64,
        speculation: std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
        serve_workers: serve_workers() as u64,
        commit: commit(),
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (never from its parents); `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn outcome(workload: Workload, seed: u64, trace: bool, host: Host, rounds: &[Round]) -> Outcome {
    let failures: Vec<String> = rounds.iter().flat_map(|r| r.failures.clone()).collect();
    Outcome {
        workload: workload.name().into(),
        trace,
        seed,
        correct: failures.is_empty(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        failures,
        host,
        metrics: Vec::new(),
    }
}

/// The end-to-end pass, pinned to one CPU: set up `SETUP_REPS` times,
/// then time rounds for `budget`. Every time it reports is scaled to the
/// reference host speed (see `calibrate`).
pub fn measure(workload: Workload, seed: u64, size: Size, budget: Duration) -> Outcome {
    let pin = Pin::one_cpu();
    let host = host(pin.is_some());
    let speed = HostSpeed::new(workload.host_sensitivity());
    let mut setups = Vec::new();
    let mut fixture = None;
    speed.sample();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let fx = setup(workload, seed, size, None);
        setups.push((start, Instant::now()));
        fixture = Some(fx);
    }
    speed.sample();
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(start, end)| speed.scaled_ms(start, end) / 1e3)
        .collect();
    let fx = match fixture.expect("SETUP_REPS > 0") {
        Ok(fx) => fx,
        Err(e) => return failed_setup(workload, seed, false, host, &e.to_string()),
    };
    // Peak memory is read once the first round has run: later rounds
    // repeat its work, while the record the pass keeps of them grows with
    // their number.
    let mut peak_rss = f64::NAN;
    let rs = rounds(budget, usize::MAX, || {
        let r = workloads::round(&fx, None, serve_workers(), Some(&speed));
        if peak_rss.is_nan() {
            peak_rss = peak_rss_mb();
        }
        r
    });
    speed.sample();
    remove_journals(&fx);
    let mut out = outcome(workload, seed, false, host, &rs);
    check_digests(&rs, &rs[0].digests, "first round", &mut out.failures);
    if workload == Workload::ServeOverload {
        // Outcomes must not depend on the worker count the pass used.
        let measured = serve_workers();
        for workers in [1, host_cores().min(2)]
            .into_iter()
            .filter(|&w| w != measured)
        {
            let run = workloads::serve(&fx, workers, |g| fx.serve_app(g));
            if run.report.outcome_digest != rs[0].digests[0] {
                out.failures
                    .push(format!("serving outcomes differ at {workers} workers"));
            }
        }
    }
    out.correct = out.failures.is_empty();

    let scaled = |op: &workloads::Op| speed.scaled_ms(op.start, op.end);
    let ops: Vec<f64> = rs.iter().flat_map(|r| r.ops.iter().map(scaled)).collect();
    // Apps differ in cost by 20x, so a percentile over apps jumps between
    // two apps' samples; the geometric mean of each app's median weighs
    // every app alike and moves with all of them.
    let per_app: Vec<f64> = (0..fx.apps.len())
        .filter_map(|app| {
            let times: Vec<f64> = rs
                .iter()
                .flat_map(|r| r.ops.iter().filter(|op| op.app == app).map(scaled))
                .collect();
            (!times.is_empty()).then(|| median(&times))
        })
        .collect();
    // A round's time is that of its operations: the benchmark's checks
    // between them and the calibration runs are left out.
    let round_ms: Vec<f64> = rs
        .iter()
        .map(|r| r.ops.iter().chain(&r.resumes).map(scaled).sum())
        .collect();
    let round_s = median(&round_ms) / 1e3;
    let walls: Vec<f64> = rs.iter().map(|r| r.wall_s).collect();
    let m = &mut out.metrics;
    m.push(Metric::new("setup_s", median(&setup_s), "s"));
    m.push(Metric::new("round_s", round_s, "s"));
    m.push(Metric::new("op_p50_ms", geomean(&per_app), "ms"));
    m.push(Metric::new("ops", ops.len() as f64, "count"));
    m.push(Metric::new("rounds", rs.len() as f64, "count"));
    m.push(Metric::new("round_wall_s", median(&walls), "s"));
    m.push(Metric::new("host_speed", speed.relative(), "x"));
    m.push(Metric::new("peak_rss_mb", peak_rss, "MB"));
    let first = &rs[0];
    match &first.serve {
        Some(run) => {
            let s = &run.report.summary;
            m.push(Metric::new(
                "req_per_s",
                s.arrivals as f64 / round_s,
                "req/s",
            ));
            m.push(Metric::new(
                "fail_frac",
                (s.shed() + s.failed_device_lost) as f64 / s.arrivals as f64,
                "fraction",
            ));
            m.push(Metric::new(
                "virt_p99_ms",
                quantile(&served_latencies_ms(run), 0.99),
                "virtual_ms",
            ));
        }
        None => {
            m.push(Metric::new("op_p90_ms", quantile(&ops, 0.9), "ms"));
            let tunes = first.tunes.len().max(1) as f64;
            m.push(Metric::new(
                "fail_frac",
                first.failed as f64 / first.attempted as f64,
                "fraction",
            ));
            m.push(Metric::new(
                "trials_per_tune",
                first
                    .tunes
                    .iter()
                    .map(|t| t.tuned.trials as f64)
                    .sum::<f64>()
                    / tunes,
                "trials",
            ));
            let speedups: Vec<f64> = first.tunes.iter().map(|t| t.tuned.speedup()).collect();
            m.push(Metric::new("virt_speedup_geomean", geomean(&speedups), "x"));
        }
    }
    let resumes: Vec<f64> = rs
        .iter()
        .flat_map(|r| r.resumes.iter().map(scaled))
        .collect();
    if !resumes.is_empty() {
        m.push(Metric::new("resume_p50_ms", median(&resumes), "ms"));
    }
    out
}

fn remove_journals(fx: &Fixture) {
    if let Some(dir) = &fx.journal_dir {
        // Best effort: a leftover journal directory only costs disk.
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn failed_setup(workload: Workload, seed: u64, trace: bool, host: Host, error: &str) -> Outcome {
    let mut out = outcome(workload, seed, trace, host, &[]);
    out.correct = false;
    out.attempted = 1;
    out.failed = 1;
    out.failures.push(format!("setup failed: {error}"));
    out
}

/// The traced pass. Pinned like the measured pass: one untraced
/// reference round at the measured settings, traced rounds for half of
/// `budget`, and the tracing overhead. Then, unpinned so parallel
/// speed-ups show: the layer probes. Spans go to
/// `trace-<workload>.jsonl`.
pub fn trace(workload: Workload, seed: u64, size: Size, budget: Duration) -> Outcome {
    let tracer = Tracer::new(workload.name());
    let pin = Pin::one_cpu();
    let host = host(pin.is_some());
    let fx = match setup(workload, seed, size, Some(&tracer)) {
        Ok(fx) => fx,
        Err(e) => return failed_setup(workload, seed, true, host, &e.to_string()),
    };
    let reference = workloads::round(&fx, None, serve_workers(), None);
    let rs = rounds(budget / 2, MAX_TRACED_ROUNDS, || {
        let _s = tracer.span("round", None);
        workloads::round(&fx, Some(&tracer), 1, None)
    });
    remove_journals(&fx);
    let overhead = overhead(seed);
    drop(pin);

    let mut out = outcome(workload, seed, true, host, &rs);
    out.failures.extend(reference.failures.clone());
    check_digests(
        &rs,
        &reference.digests,
        "untraced reference",
        &mut out.failures,
    );
    let tree = Tree::new(tracer.spans());
    let mut layers = match layer_metrics(&fx, &tree, &rs, &reference) {
        Ok(m) => m,
        Err(e) => {
            out.failures.push(e);
            Vec::new()
        }
    };
    match probes::run(&fx) {
        Ok(m) => layers.extend(m),
        Err(e) => out.failures.push(e),
    }
    layers.push(Metric::new("trace.overhead_frac", overhead, "fraction"));
    if let Err(e) = write_spans(workload, &tree) {
        out.failures.push(format!("writing the trace: {e}"));
    }
    // Attribution: self times partition each round's wall time, and the
    // benchmark's own glue stays under 5% of it.
    let wall = tree.total_ms("round");
    let attributed: f64 = tree
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "round" || tree.under(s, "round"))
        .map(|(i, _)| tree.self_ms[i])
        .sum();
    if (attributed - wall).abs() > 1e-6 * wall.max(1.0) || tree.self_ms.iter().any(|&s| s < 0.0) {
        out.failures
            .push(format!("self times sum to {attributed} ms of {wall} ms"));
    }
    if size == Size::Full && tree.self_total_ms("round") > 0.05 * wall {
        out.failures
            .push("unattributed time is 5% or more of the traced wall".into());
    }
    out.correct = out.failures.is_empty();
    out.metrics = layers;
    out
}

/// Per-layer numbers from the spans and the rounds' counters, per round.
fn layer_metrics(
    fx: &Fixture,
    tree: &Tree,
    rs: &[Round],
    reference: &Round,
) -> Result<Vec<Metric>, String> {
    let n = rs.len() as f64;
    let per_round = |v: f64| v / n;
    let count_under = |name: &str, ancestor: &str| {
        tree.named(name)
            .filter(|(_, s)| tree.under(s, ancestor))
            .count() as f64
    };
    let mut m = vec![
        Metric::new("inspector.inspect_ms", tree.total_ms("inspect"), "ms"),
        Metric::new("trace.wall_ms", per_round(tree.total_ms("round")), "ms"),
        Metric::new(
            "trace.unattributed_ms",
            per_round(tree.self_total_ms("round")),
            "ms",
        ),
    ];

    // The application driver, seen through the timing wrapper.
    let runs: Vec<f64> = tree
        .named("ocl.run")
        .filter(|(_, s)| tree.under(s, "round"))
        .map(|(_, s)| s.ms() * 1e3)
        .collect();
    let programs: Vec<f64> = tree
        .named("ocl.program")
        .map(|(_, s)| s.ms() * 1e3)
        .collect();
    m.push(Metric::new(
        "ocl.runs",
        per_round(runs.len() as f64),
        "count",
    ));
    m.push(Metric::new(
        "ocl.run_ms",
        per_round(runs.iter().sum::<f64>() / 1e3),
        "ms",
    ));
    m.push(Metric::new("ocl.run_p50_us", median(&runs), "us"));
    m.push(Metric::new("ocl.run_p90_us", quantile(&runs, 0.9), "us"));
    m.push(Metric::new("ocl.program_us", median(&programs), "us"));

    // Self time of every span kind, per round.
    let mut by_name: BTreeMap<&str, f64> = BTreeMap::new();
    for (i, s) in tree.spans.iter().enumerate() {
        if tree.under(s, "round") {
            *by_name.entry(s.name.as_str()).or_default() += tree.self_ms[i];
        }
    }
    for (name, total) in &by_name {
        m.push(Metric::new(
            format!("self_ms.{name}"),
            per_round(*total),
            "ms",
        ));
    }

    // Tuning layers: profiler, static analysis, engine, search.
    let total = |f: fn(&Round) -> u64| per_round(rs.iter().map(f).sum::<u64>() as f64);
    let pruned = total(|r| r.tally.pruned);
    m.push(Metric::new(
        "profiler.runs",
        per_round(count_under("ocl.run", "profile")),
        "count",
    ));
    m.push(Metric::new("static_prune.pruned", pruned, "count"));
    let stats = reference.tunes.iter().map(|t| t.stats);
    let (charged, hits, executions) = stats.fold((0.0, 0.0, 0.0), |(c, h, e), s| {
        (
            c + s.charged as f64,
            h + s.cache_hits as f64,
            e + s.executions as f64,
        )
    });
    let engines = reference.tunes.len() as f64;
    m.push(Metric::new("engine.charged", charged, "count"));
    m.push(Metric::new("engine.cache_hits", hits, "count"));
    m.push(Metric::new("engine.executions", executions, "count"));
    m.push(Metric::new(
        "engine.exec_useful_frac",
        if executions > 0.0 {
            (charged - engines) / executions
        } else {
            0.0
        },
        "fraction",
    ));
    if fx.workload.tunes() {
        let analysis = probes::static_analysis_ms(fx)?;
        // A durable round analyses each app twice: cold and resume.
        let searches_per_app = if fx.journal_dir.is_some() { 2.0 } else { 1.0 };
        let static_ms = analysis.iter().map(|(_, ms)| ms).sum::<f64>() * searches_per_app;
        m.push(Metric::new("static_prune.wall_ms", static_ms, "ms"));
        m.push(Metric::new(
            "profiler.wall_ms",
            per_round(tree.total_ms("profile")),
            "ms",
        ));
        m.push(Metric::new(
            "search.self_ms",
            per_round(tree.self_total_ms("search")) - static_ms,
            "ms",
        ));
        let op = if fx.journal_dir.is_some() {
            "durable.cold"
        } else {
            "tune"
        };
        for app in &fx.apps {
            let times: Vec<f64> = tree
                .named(op)
                .filter(|(_, s)| s.app == app.name())
                .map(|(_, s)| s.ms())
                .collect();
            m.push(Metric::new(
                format!("tune_ms.{}", app.name()),
                median(&times),
                "ms",
            ));
        }
    }

    // Recovery: what each resume replayed and re-ran.
    m.push(Metric::new(
        "recovery.replayed",
        total(|r| r.tally.replayed),
        "count",
    ));
    m.push(Metric::new(
        "recovery.resume_executions",
        total(|r| r.tally.resume_executions),
        "count",
    ));
    m.push(Metric::new(
        "recovery.resume_runs",
        per_round(count_under("ocl.run", "durable.resume")),
        "count",
    ));

    // Guard and serving.
    let guard_runs = total(|r| r.tally.guard_runs);
    let canaries = total(|r| r.tally.canary_runs);
    let served = total(|r| r.tally.served);
    let app_runs = per_round(count_under("ocl.run", "serve"));
    m.push(Metric::new("guard.runs", guard_runs, "count"));
    m.push(Metric::new("guard.canary_runs", canaries, "count"));
    m.push(Metric::new(
        "guard.canary_frac",
        if guard_runs > 0.0 {
            canaries / guard_runs
        } else {
            0.0
        },
        "fraction",
    ));
    m.push(Metric::new("serve.app_runs", app_runs, "count"));
    m.push(Metric::new(
        "serve.useful_run_frac",
        if app_runs > 0.0 {
            (served + canaries) / app_runs
        } else {
            0.0
        },
        "fraction",
    ));
    if fx.serve.is_some() {
        m.push(Metric::new(
            "guard.new_ms",
            tree.total_ms("guard.new"),
            "ms",
        ));
        let busy: f64 = tree
            .named("ocl.run")
            .filter(|(_, s)| tree.under(s, "serve"))
            .map(|(_, s)| s.ms())
            .sum();
        m.push(Metric::new("serve.app_run_ms", per_round(busy), "ms"));
        m.push(Metric::new(
            "serve.self_ms",
            per_round(tree.self_total_ms("serve")),
            "ms",
        ));
        let wall = |workers: usize| {
            let t = Instant::now();
            workloads::serve(fx, workers, |g| fx.serve_app(g));
            t.elapsed().as_secs_f64()
        };
        m.push(Metric::new(
            "serve.worker_speedup",
            wall(1) / wall(host_cores().min(2)),
            "x",
        ));
    }
    Ok(m)
}

/// Median wall time of a batch of `tune-tiny` rounds with the timing
/// wrappers and spans over the same batch without them, minus one. Both
/// run without speculation (the traced pass runs pinned).
fn overhead(seed: u64) -> f64 {
    const BATCH: usize = 5;
    let fx = setup(Workload::TuneTiny, seed, Size::Full, None)
        .expect("tune-tiny set-up runs no application");
    let batch = |tracer: Option<&Tracer>| -> f64 {
        (0..BATCH)
            .map(|_| workloads::round(&fx, tracer, 1, None).wall_s)
            .sum()
    };
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    for i in 0..OVERHEAD_PAIRS {
        let tracer = Tracer::new("overhead");
        if i % 2 == 0 {
            bare.push(batch(None));
            traced.push(batch(Some(&tracer)));
        } else {
            traced.push(batch(Some(&tracer)));
            bare.push(batch(None));
        }
    }
    median(&traced) / median(&bare) - 1.0
}

fn write_spans(workload: Workload, tree: &Tree) -> std::io::Result<()> {
    std::fs::create_dir_all(workloads::out_dir())?;
    let path = workloads::out_dir().join(format!("trace-{}.jsonl", workload.name()));
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in &tree.spans {
        let line = serde_json::to_string(span).expect("the serde shim never fails to serialize");
        writeln!(file, "{line}")?;
    }
    file.flush()
}
