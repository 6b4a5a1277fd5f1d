//! Smoke test: every workload at CI size (tiny dimensions, one round, a
//! 50-arrival trace), both passes.

use crate::pass::{self, Outcome};
use crate::workloads::{Size, Workload};
use serde::json::{self, Value};
use std::time::Duration;

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Value::Arr(items)) = json::get(doc.as_object().expect("an object"), key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|item| {
            let entries = item.as_object().expect("metric entries are objects");
            let field = |f: &str| {
                json::get(entries, f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check(outcome: &Outcome, key: &str) {
    assert!(
        outcome.correct,
        "{}: {:?}",
        outcome.workload, outcome.failures
    );
    assert!(outcome.attempted >= 1);
    assert_eq!(outcome.failed, 0);
    for (name, unit) in declared(key) {
        let m = outcome
            .metric(&name)
            .unwrap_or_else(|| panic!("{}: `{name}` not emitted", outcome.workload));
        assert_eq!(m.unit, unit, "{}: unit of `{name}`", outcome.workload);
        assert!(
            m.value.is_finite(),
            "{}: `{name}` = {}",
            outcome.workload,
            m.value
        );
    }
    let json = serde_json::to_string(outcome).unwrap();
    let back: Outcome = serde_json::from_str(&json).unwrap();
    assert_eq!(&back, outcome, "JSON round trip");
}

fn smoke(workload: Workload) {
    let measured = pass::measure(workload, 1, Size::Ci, Duration::ZERO);
    check(&measured, "end_to_end");
    for m in &measured.metrics {
        if ["round_s", "op_p50_ms", "setup_s", "peak_rss_mb"].contains(&m.name.as_str()) {
            assert!(m.value > 0.0, "{}: `{}` is zero", workload.name(), m.name);
        }
    }

    let traced = pass::trace(workload, 1, Size::Ci, Duration::ZERO);
    check(&traced, "per_layer");
    let value = |name: &str| traced.metric(name).map(|m| m.value).unwrap();
    let self_times: Vec<f64> = traced
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("self_ms."))
        .map(|m| m.value)
        .collect();
    assert!(!self_times.is_empty());
    assert!(self_times.iter().all(|&s| s >= 0.0), "{self_times:?}");
    let wall = value("trace.wall_ms");
    assert!(self_times.iter().sum::<f64>() + value("trace.unattributed_ms") <= wall * (1.0 + 1e-9));
}

#[test]
fn tune_suite() {
    smoke(Workload::TuneSuite);
}

#[test]
fn tune_tiny() {
    smoke(Workload::TuneTiny);
}

#[test]
fn tune_durable_faulty() {
    smoke(Workload::TuneDurableFaulty);
}

#[test]
fn serve_overload() {
    smoke(Workload::ServeOverload);
}
