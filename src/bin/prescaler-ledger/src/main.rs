//! `prescaler-ledger`: the repository benchmark.
//!
//! ```text
//! prescaler-ledger run [--workload W|all] [--seed N] [--seconds S] [--trace [0|1]]
//! prescaler-ledger compare A.json B.json
//! ```
//!
//! `run` measures each workload in a child process of its own and prints
//! every metric as `workload metric value unit`, then one JSON summary
//! line. It appends the run to `target/prescaler-ledger/run-<seed>.json`;
//! `compare` judges two such files run by run. See README.md.

mod affinity;
mod calibrate;
mod metrics;
mod pass;
mod probes;
mod trace;
mod workloads;

use metrics::{Metric, CATALOGUE, LAYER_HEADLINE};
use pass::Outcome;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{out_dir, Size, Workload};

/// Environment variables that would change what is measured; children
/// never inherit them.
const MEASUREMENT_ENV: [&str; 3] = [
    "PRESCALER_EXEC_THREADS",
    "PRESCALER_FAULT_SEED",
    "PRESCALER_SERVE_WORKERS",
];

/// Seconds each workload is measured for when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 30;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    let value = |i: usize| args.get(i + 1).ok_or(format!("{} needs a value", args[i]));
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                let w = value(i)?;
                parsed.workloads = if w == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(w).ok_or(format!("unknown workload `{w}`"))?]
                };
                i += 1;
            }
            "--seed" => {
                parsed.seed = value(i)?.parse().map_err(|e| format!("--seed: {e}"))?;
                i += 1;
            }
            "--seconds" => {
                parsed.seconds = value(i)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                i += 1;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    parsed.trace = true;
                    i += 1;
                }
                _ => parsed.trace = true,
            },
            other => return Err(format!("unexpected argument `{other}`")),
        }
        i += 1;
    }
    Ok(parsed)
}

/// Every run made with one seed, oldest first.
#[derive(Debug, Default, Serialize, Deserialize)]
struct RunFile {
    runs: Vec<Run>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Run {
    seed: u64,
    seconds: u64,
    trace: bool,
    outcomes: Vec<Outcome>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| run(&a)),
        Some("child") => parse_args(&args[1..]).and_then(|a| child(&a)),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        _ => Err(
            "usage: prescaler-ledger run [--workload W|all] [--seed N] [--seconds S] \
                  [--trace [0|1]] | compare A.json B.json"
                .into(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("prescaler-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

/// One workload's pass, printed as a single JSON line for the parent.
fn child(args: &Args) -> Result<bool, String> {
    let [workload] = args.workloads[..] else {
        return Err("a child runs exactly one workload".into());
    };
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        pass::trace(workload, args.seed, Size::Full, budget)
    } else {
        pass::measure(workload, args.seed, Size::Full, budget)
    };
    println!(
        "{}",
        serde_json::to_string(&outcome).expect("serializing never fails")
    );
    Ok(true)
}

fn spawn_child(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in MEASUREMENT_ENV {
        cmd.env_remove(var);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{}: unreadable result: {e}", workload.name()))
}

/// The headline metrics of a pass: every end-to-end metric, or with
/// tracing every per-layer one.
fn headline(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        LAYER_HEADLINE.to_vec()
    } else {
        CATALOGUE
            .iter()
            .filter(|d| d.headline)
            .map(|d| (d.name, d.unit))
            .collect()
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let mut outcomes = Vec::new();
    for &workload in &args.workloads {
        let outcome = spawn_child(workload, args)?;
        for m in &outcome.metrics {
            println!("{} {} {} {}", outcome.workload, m.name, m.value, m.unit);
        }
        for f in &outcome.failures {
            eprintln!("{}: CHECK FAILED: {f}", outcome.workload);
        }
        outcomes.push(outcome);
    }
    append_run(Run {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        outcomes: outcomes.clone(),
    })?;

    let mut correct = true;
    let mut summary: Vec<(String, Metric)> = Vec::new();
    for o in &outcomes {
        correct &= o.correct;
        for (name, unit) in headline(args.trace) {
            let key = if outcomes.len() == 1 {
                name.to_owned()
            } else {
                format!("{}.{name}", o.workload)
            };
            match o.metric(name) {
                Some(m) if m.unit == unit && m.value.is_finite() => summary.push((key, m.clone())),
                _ => return Err(format!("{}: no finite `{name}` in {unit}", o.workload)),
            }
        }
    }
    let mut line = String::new();
    line.push_str(&format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
    ));
    for (i, (key, m)) in summary.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        serde::json::write_str(&mut line, key);
        line.push_str(": {\"value\": ");
        serde::json::write_f64(&mut line, m.value);
        line.push_str(", \"unit\": ");
        serde::json::write_str(&mut line, &m.unit);
        line.push('}');
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

fn load(path: &Path) -> Result<RunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn append_run(run: Run) -> Result<(), String> {
    let path = out_dir().join(format!("run-{}.json", run.seed));
    let mut file = if path.exists() {
        load(&path)?
    } else {
        RunFile::default()
    };
    file.runs.push(run);
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let json = serde_json::to_string(&file).expect("serializing never fails");
    std::fs::write(&path, json).map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares the untraced runs of two run files, pairing run `i` of each.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let values = |file: &RunFile, workload: Workload, metric: &str| -> Vec<f64> {
        file.runs
            .iter()
            .filter(|r| !r.trace)
            .flat_map(|r| &r.outcomes)
            .filter(|o| o.workload == workload.name())
            .filter_map(|o| o.metric(metric).map(|m| m.value))
            .collect()
    };
    println!("workload metric unit runs a_q1 a_median a_q3 b_q1 b_median b_q3 win_frac verdict");
    for workload in Workload::ALL {
        for def in CATALOGUE {
            let (va, vb) = (
                values(&a, workload, def.name),
                values(&b, workload, def.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let c = metrics::compare(def, &va, &vb);
            println!(
                "{} {} {} {}/{} {} {} {} {} {} {} {:.2} {}",
                workload.name(),
                def.name,
                def.unit,
                va.len(),
                vb.len(),
                c.a[0],
                c.a[1],
                c.a[2],
                c.b[0],
                c.b[1],
                c.b[2],
                c.win_frac,
                c.verdict.label()
            );
        }
    }
    Ok(true)
}

#[cfg(test)]
mod smoke;
