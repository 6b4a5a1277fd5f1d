//! The metric catalogue, order statistics, and the `compare` verdicts
//! (choosing-metrics §6.5 and §8).

use serde::{Deserialize, Serialize};

/// One measured value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            // `+ 0.0` turns the `-0.0` of an empty float sum into `0`.
            value: value + 0.0,
            unit: unit.to_owned(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// The share of the parent's median a change may worsen it by.
    Share(f64),
    /// Deterministic: any difference at all is a change.
    Exact,
}

/// A metric `compare` judges. `headline` metrics are the end-to-end set
/// every workload reports on the last output line; the rest are reported
/// only by the workloads they apply to.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    pub headline: bool,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        headline: false,
    }
}

const fn headline(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Bound::Share(bound),
        headline: true,
    }
}

/// Every end-to-end metric with its direction and regression bound.
/// Timings get 25%: on a small shared host, ten runs of an unchanged
/// commit spread their quartiles by up to 12%.
pub const CATALOGUE: &[Def] = &[
    headline("setup_s", "s", 0.25),
    headline("round_s", "s", 0.25),
    headline("op_p50_ms", "ms", 0.25),
    headline("peak_rss_mb", "MB", 0.15),
    def("op_p90_ms", "ms", Better::Lower, Bound::Share(0.25)),
    def("req_per_s", "req/s", Better::Higher, Bound::Share(0.25)),
    def("resume_p50_ms", "ms", Better::Lower, Bound::Share(0.25)),
    def("fail_frac", "fraction", Better::Lower, Bound::Exact),
    def("trials_per_tune", "trials", Better::Lower, Bound::Exact),
    def("virt_speedup_geomean", "x", Better::Higher, Bound::Exact),
    def("virt_p99_ms", "virtual_ms", Better::Lower, Bound::Exact),
];

/// The per-layer metrics every workload reports on the last output line
/// of a traced run (the `per_layer` list of `BENCHMARK.json`). Layer
/// metrics that only some workloads exercise as a span (profiler, static
/// analysis, search, guard construction, serving self-time, per-app tune
/// times) are printed and recorded too, but left out of this list: on the
/// other workloads they would be a constant zero.
pub const LAYER_HEADLINE: &[(&str, &str)] = &[
    ("inspector.inspect_ms", "ms"),
    ("profiler.runs", "count"),
    ("static_prune.pruned", "count"),
    ("engine.charged", "count"),
    ("engine.cache_hits", "count"),
    ("engine.executions", "count"),
    ("engine.exec_useful_frac", "fraction"),
    ("ocl.runs", "count"),
    ("ocl.run_ms", "ms"),
    ("ocl.run_p50_us", "us"),
    ("ocl.run_p90_us", "us"),
    ("ocl.program_us", "us"),
    ("ir.typeck_us", "us"),
    ("ir.verify_us", "us"),
    ("ir.compile_us", "us"),
    ("ir.variants", "count"),
    ("ir.vm_ms.double", "ms"),
    ("ir.vm_ms.half", "ms"),
    ("ir.vm_ops_per_s", "1/s"),
    ("ir.vm_par_speedup", "x"),
    ("convert.d2h_ns_per_elem", "ns"),
    ("convert.h2d_ns_per_elem", "ns"),
    ("convert.d2s_ns_per_elem", "ns"),
    ("convert.par_speedup", "x"),
    ("sim.kernel_cost_ns", "ns"),
    ("sim.transfer_cost_ns", "ns"),
    ("quality.score_us", "us"),
    ("persist.append_us", "us"),
    ("persist.open_us", "us"),
    ("recovery.replayed", "count"),
    ("recovery.resume_executions", "count"),
    ("recovery.resume_runs", "count"),
    ("guard.runs", "count"),
    ("guard.canary_runs", "count"),
    ("guard.canary_frac", "fraction"),
    ("serve.app_runs", "count"),
    ("serve.useful_run_frac", "fraction"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by the "exclusive" rule of Python's
/// `statistics.quantiles`: position `(n + 1)·q`, linearly interpolated
/// and clamped to the sample. A sample of one is its own quantile.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = ((n + 1) as f64 * q).clamp(1.0, n as f64);
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            if lo >= n {
                v[n - 1]
            } else {
                v[lo - 1] + (v[lo] - v[lo - 1]) * frac
            }
        }
    }
}

/// First quartile, median and third quartile.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [
        quantile(values, 0.25),
        quantile(values, 0.5),
        quantile(values, 0.75),
    ]
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How a change compares with its parent on one metric of one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison of parent runs `a` with change runs `b` (run `i` of
/// each forms a pair).
#[derive(Debug)]
pub struct Comparison {
    pub a: [f64; 3],
    pub b: [f64; 3],
    /// Share of pairs the change won; ties count for neither side.
    pub win_frac: f64,
    pub verdict: Verdict,
}

pub fn compare(def: &Def, a: &[f64], b: &[f64]) -> Comparison {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let pairs = a.len().min(b.len());
    let better = |x: f64, y: f64| match def.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let wins = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let verdict = match def.bound {
        Bound::Exact => {
            if a.iter().chain(b).all(|v| v.to_bits() == a[0].to_bits()) {
                Verdict::Unchanged
            } else if a.iter().all(|v| v.to_bits() == a[0].to_bits())
                && b.iter().all(|v| v.to_bits() == b[0].to_bits())
            {
                if better(b[0], a[0]) {
                    Verdict::Improved
                } else {
                    Verdict::Worse
                }
            } else {
                Verdict::Unresolved
            }
        }
        Bound::Share(bound) => {
            let spread = (qa[2] - qa[0]) / qa[1].abs();
            let worse_by = match def.better {
                Better::Lower => qb[1] / qa[1] - 1.0,
                Better::Higher => qa[1] / qb[1] - 1.0,
            };
            let all_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
            if win_frac >= 0.9 && (qb[1] - qa[1]).abs() > qa[2] - qa[0] {
                Verdict::Improved
            } else if spread > bound && !all_better {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Unchanged
            }
        }
    };
    Comparison {
        a: qa,
        b: qb,
        win_frac,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let round = &CATALOGUE[1];
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        let same = compare(round, &a, &[1.01, 1.00, 1.00, 0.99, 1.01]);
        assert_eq!(same.verdict, Verdict::Unchanged);
        let faster = compare(round, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]);
        assert_eq!(faster.verdict, Verdict::Improved);
        assert_eq!(faster.win_frac, 1.0);
        let slower = compare(round, &a, &[1.30, 1.31, 1.29, 1.30, 1.32]);
        assert_eq!(slower.verdict, Verdict::Worse);
        let noisy = compare(round, &[0.5, 1.5, 1.0, 0.6, 1.4], &a);
        assert_eq!(noisy.verdict, Verdict::Unresolved);
        let exact = CATALOGUE
            .iter()
            .find(|d| d.name == "trials_per_tune")
            .unwrap();
        assert_eq!(
            compare(exact, &[9.5; 3], &[9.5; 3]).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            compare(exact, &[9.5; 3], &[9.0; 3]).verdict,
            Verdict::Improved
        );
    }
}
