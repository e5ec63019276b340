//! The smoke mode runs every workload declared in `BENCHMARK.json` for a
//! few operations on tiny inputs, traced and untraced, and checks that
//! the result line carries exactly the declared metrics with their
//! declared units, so no metric can be dropped or renamed silently.

use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Reported {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct Result {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reported>,
}

fn declared_units(metrics: &[Declared]) -> BTreeMap<String, String> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let benchmark: Benchmark = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    assert!(!benchmark.workloads.is_empty());
    for workload in &benchmark.workloads {
        for (trace, declared) in [("0", &benchmark.end_to_end), ("1", &benchmark.per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_efes-servicebench"))
                .args([
                    "--workload",
                    &workload.name,
                    "--seed",
                    "7",
                    "--seconds",
                    "5",
                ])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
            assert!(
                out.status.success(),
                "{} trace {trace} failed:\n{stdout}\n{}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Result = serde_json::from_str(last).expect("parse the result line");
            assert!(result.correct, "{}: {last}", workload.name);
            assert!(
                result.attempted >= 1 && result.failed == 0,
                "{}: {last}",
                workload.name
            );
            let reported: BTreeMap<String, String> = result
                .metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.value.is_finite(), "{name} = {}", m.value);
                    (name.clone(), m.unit.clone())
                })
                .collect();
            assert_eq!(
                reported,
                declared_units(declared),
                "{} trace {trace}",
                workload.name
            );
        }
    }
}
