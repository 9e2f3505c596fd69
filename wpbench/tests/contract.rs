//! The benchmark's own checks: `BENCHMARK.json` names exactly the
//! metrics the code prints, short runs pass every output check, and the
//! exact figures repeat for a seed.
//!
//! Run with `cargo test --release --manifest-path wpbench/Cargo.toml`
//! (the smoke runs execute real flows).

use std::collections::BTreeMap;
use std::process::Command;

use serde::Value;
use wpbench::metrics::{per_layer_names, END_TO_END};
use wpbench::workloads::{COLD_SWEEP, GATED_REWRITE};
use wpbench::WORKLOADS;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn field<'v>(value: &'v Value, key: &str) -> &'v Value {
    value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn names_units(list: &Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = field(m, "name").as_str().unwrap().to_owned();
            let unit = field(m, "unit").as_str().unwrap().to_owned();
            (name, unit)
        })
        .collect()
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let bench = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(names_units(field(&bench, "end_to_end")), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(names_units(field(&bench, "per_layer")), layers);

    let bounds: Vec<f64> = field(&bench, "end_to_end")
        .as_array()
        .unwrap()
        .iter()
        .map(|m| field(m, "bound").as_f64().unwrap())
        .collect();
    let setup = bounds[0];
    assert!(bounds.iter().all(|&b| b <= setup && b <= 0.25));
}

#[test]
fn workloads_record_their_slo_and_seeds() {
    let bench = benchmark_json();
    let workloads = field(&bench, "workloads").as_array().unwrap();
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| field(w, "name").as_str().unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let slos = [
        COLD_SWEEP.slo_ms,
        GATED_REWRITE.slo_ms,
        wpbench::serve_mix::SLO_MS,
    ];
    for (w, slo) in workloads.iter().zip(slos) {
        let why = field(w, "why").as_str().unwrap();
        assert!(why.contains(&format!("SLO {slo} ms")), "{why}");
        assert!(why.contains("Seed 1, held-out seed 9001."), "{why}");
    }
}

struct Run {
    code: Option<i32>,
    correct: bool,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run(workload: &str, seed: u64, seconds: &str, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_wpbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    let metrics = field(&result, "metrics")
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), field(v, "value").as_f64().unwrap()))
        .collect();
    Run {
        code: out.status.code(),
        correct: matches!(field(&result, "correct"), Value::Bool(true)),
        failed: field(&result, "failed").as_u64().unwrap(),
        metrics,
    }
}

fn assert_clean(run: &Run, workload: &str) {
    assert_eq!(run.code, Some(0), "{workload} exit code");
    assert!(run.correct, "{workload} not correct");
    assert_eq!(run.failed, 0, "{workload} failed cells");
}

/// QoR (untraced) and engine counts (traced) repeat exactly for a seed.
fn assert_deterministic(workload: &str) {
    let (a, b) = (run(workload, 3, "1", false), run(workload, 3, "1", false));
    assert_clean(&a, workload);
    assert_clean(&b, workload);
    for key in ["qor_size_ratio", "qor_depth"] {
        assert_eq!(a.metrics[key], b.metrics[key], "{workload} {key}");
        assert!(a.metrics[key] > 0.0);
    }
    let (a, b) = (run(workload, 3, "1", true), run(workload, 3, "1", true));
    assert_clean(&a, workload);
    assert_clean(&b, workload);
    for key in [
        "engine.hits",
        "engine.misses",
        "engine.evictions",
        "engine.passes_executed",
        "engine.hit_rate",
        "engine.executions",
        "engine.distinct_netlists",
        "engine.executions_per_netlist",
    ] {
        assert_eq!(a.metrics[key], b.metrics[key], "{workload} {key}");
    }
    assert!(a.metrics["trace.coverage"] > 0.0);
    assert!(a.metrics["pipeline.run_ms.calls"] > 0.0);
    assert!(a.metrics["engine.executions"] > 0.0);
}

#[test]
fn cold_sweep_is_clean_and_deterministic() {
    assert_deterministic("cold_sweep");
}

#[test]
fn gated_rewrite_is_clean_and_deterministic() {
    assert_deterministic("gated_rewrite");
}

#[test]
fn serve_mix_smoke_run_is_clean() {
    let r = run("serve_mix", 3, "2", false);
    assert_clean(&r, "serve_mix");
    assert!(r.metrics["latency_p50_ms"] > 0.0);
}

#[test]
fn setup_only_reports_ready() {
    let out = Command::new(env!("CARGO_BIN_EXE_wpbench"))
        .args(["--workload", "gated_rewrite", "--seed", "1", "--setup-only"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "ready");
}

#[test]
fn refuses_wavepipe_knobs() {
    let out = Command::new(env!("CARGO_BIN_EXE_wpbench"))
        .args(["--workload", "cold_sweep", "--seed", "1", "--seconds", "1"])
        .env("WAVEPIPE_THREADS", "1")
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
