//! Golden test pinning the `BENCH_*.json` schemas (field names and
//! shapes). The repro tooling that tracks the performance trajectory
//! across PRs parses these records; a silent field rename would strand
//! it, so any schema change must consciously update this test.

use serde::Value;
use wavepipe::EngineStats;
use wavepipe_bench::record::{
    BenchRecord, ExhaustivePoint, GridPoint, LatencySummary, LoadPhase, PassSummary,
    PassThroughput, QorCell, QorCircuit, QorRecord, ScalingPoint, ScalingRecord, ServeRecord,
    ServeTotals, StageRecord, VerifyPoint, VerifyRecord, WidePoint, WideRecord,
};

/// Sorted top-level keys of a JSON object value.
fn keys(value: &Value) -> Vec<String> {
    let mut keys: Vec<String> = value
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    keys
}

fn to_value<T: serde::Serialize>(record: &T) -> Value {
    serde_json::from_str(&serde_json::to_string(record).expect("serialize"))
        .expect("own output parses")
}

/// The engine counters every record built now carries.
const ENGINE_KEYS: [&str; 4] = ["cache_hits", "cache_misses", "evictions", "passes_executed"];

/// The engine counters of records written before the incremental
/// engine and the disk cache tier were removed — what the committed
/// `BENCH_pr9.json` and `BENCH_pr10.json` baselines carry.
const HISTORICAL_ENGINE_KEYS: [&str; 8] = [
    "cache_hits",
    "cache_misses",
    "cones_recomputed",
    "cones_reused",
    "disk_hits",
    "disk_misses",
    "evictions",
    "passes_executed",
];

#[test]
fn bench_pr3_record_schema_is_pinned() {
    let record = BenchRecord {
        stages: [(
            "grid_sweep".to_owned(),
            StageRecord {
                wall_ms: 1.5,
                engine: EngineStats::default(),
            },
        )]
        .into_iter()
        .collect(),
        engine_totals: EngineStats::default(),
        cached_cells: 3,
        passes: vec![PassSummary {
            technology: "SWD".to_owned(),
            pass: "map".to_owned(),
            micros: 10,
            area_delta: 0.0,
            energy_delta: 0.0,
            cycle_time_delta: 0.0,
        }],
    };
    let value = to_value(&record);
    assert_eq!(
        keys(&value),
        ["cached_cells", "engine_totals", "passes", "stages"]
    );
    let stages = value.as_object().unwrap();
    let stage = serde::field(stages, "stages")
        .and_then(|s| serde::field(s.as_object().unwrap(), "grid_sweep"))
        .unwrap();
    assert_eq!(keys(stage), ["engine", "wall_ms"]);
    assert_eq!(
        keys(serde::field(stage.as_object().unwrap(), "engine").unwrap()),
        ENGINE_KEYS
    );
    let passes = serde::field(stages, "passes").unwrap().as_array().unwrap();
    assert_eq!(
        keys(&passes[0]),
        [
            "area_delta",
            "cycle_time_delta",
            "energy_delta",
            "micros",
            "pass",
            "technology"
        ]
    );
}

#[test]
fn bench_pr4_record_schema_is_pinned() {
    let record = ScalingRecord {
        pipeline: vec!["map".to_owned()],
        points: vec![ScalingPoint {
            name: "synth:dag:1".to_owned(),
            target_nodes: 100,
            gates: 100,
            mapped_size: 120,
            pipelined_size: 500,
            depth: 9,
            cold_wall_ms: 1.0,
            warm_wall_ms: 0.1,
            cold: EngineStats::default(),
            warm: EngineStats::default(),
            passes: vec![PassThroughput {
                pass: "map".to_owned(),
                micros: 5,
                nodes_per_sec: 1e6,
            }],
        }],
        engine_totals: EngineStats::default(),
        cached_cells: 1,
    };
    let value = to_value(&record);
    assert_eq!(
        keys(&value),
        ["cached_cells", "engine_totals", "pipeline", "points"]
    );
    let point = &serde::field(value.as_object().unwrap(), "points")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(
        keys(point),
        [
            "cold",
            "cold_wall_ms",
            "depth",
            "gates",
            "mapped_size",
            "name",
            "passes",
            "pipelined_size",
            "target_nodes",
            "warm",
            "warm_wall_ms"
        ]
    );
    let pass = &serde::field(point.as_object().unwrap(), "passes")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(keys(pass), ["micros", "nodes_per_sec", "pass"]);
}

#[test]
fn bench_pr5_record_schema_is_pinned() {
    let record = VerifyRecord {
        pipeline: vec!["map".to_owned()],
        points: vec![VerifyPoint {
            name: "synth:dag:1".to_owned(),
            target_nodes: 100,
            inputs: 34,
            pipelined_size: 500,
            scalar_patterns_per_sec: 1e4,
            word_patterns_per_sec: 5e5,
            speedup: 50.0,
        }],
        exhaustive: vec![ExhaustivePoint {
            inputs: 12,
            patterns: 4096,
            wall_ms: 3.5,
            holds: true,
        }],
    };
    let value = to_value(&record);
    assert_eq!(keys(&value), ["exhaustive", "pipeline", "points"]);
    let point = &serde::field(value.as_object().unwrap(), "points")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(
        keys(point),
        [
            "inputs",
            "name",
            "pipelined_size",
            "scalar_patterns_per_sec",
            "speedup",
            "target_nodes",
            "word_patterns_per_sec"
        ]
    );
    let proof = &serde::field(value.as_object().unwrap(), "exhaustive")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(keys(proof), ["holds", "inputs", "patterns", "wall_ms"]);
}

#[test]
fn bench_pr6_record_schema_is_pinned() {
    let record = WideRecord {
        pipeline: vec!["map".to_owned()],
        block_words: 8,
        points: vec![WidePoint {
            name: "synth:dag:1".to_owned(),
            target_nodes: 100_000,
            inputs: 2032,
            pipelined_size: 680_000,
            arena_slots: 190_000,
            wide_patterns_per_sec: 2.0e5,
        }],
        grid_circuit: "synth:dag:1".to_owned(),
        grid: vec![GridPoint {
            block_words: 8,
            threads: 2,
            patterns_per_sec: 1e7,
        }],
    };
    let value = to_value(&record);
    assert_eq!(
        keys(&value),
        ["block_words", "grid", "grid_circuit", "pipeline", "points"]
    );
    let point = &serde::field(value.as_object().unwrap(), "points")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(
        keys(point),
        [
            "arena_slots",
            "inputs",
            "name",
            "pipelined_size",
            "target_nodes",
            "wide_patterns_per_sec"
        ]
    );
    let cell = &serde::field(value.as_object().unwrap(), "grid")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(keys(cell), ["block_words", "patterns_per_sec", "threads"]);
}

#[test]
fn bench_pr9_record_schema_is_pinned() {
    let record = ServeRecord {
        protocol_version: 1,
        workers: 4,
        queue_depth: 256,
        client_queue: 1024,
        shed_slow_clients: true,
        phases: vec![LoadPhase {
            name: "coalesce_burst".to_owned(),
            clients: 100,
            pipelined: 10,
            requests: 1000,
            completed: 1000,
            failed: 0,
            distinct_specs: 1,
            wall_ms: 190.0,
            requests_per_sec: 5200.0,
            latency: LatencySummary {
                count: 1000,
                min_ms: 90.0,
                mean_ms: 130.0,
                p50_ms: 128.0,
                p95_ms: 162.0,
                p99_ms: 176.0,
                max_ms: 177.0,
            },
            executed: 8,
            coalesced: 992,
            cache_hits: 7,
            cache_misses: 1,
        }],
        server: ServeTotals {
            requests: 2000,
            completed: 2000,
            failed: 0,
            rejected: 0,
            coalesced: 1052,
            executed: 948,
            cells_streamed: 2000,
            cells_shed: 0,
            clients: 206,
        },
        engine_totals: EngineStats::default(),
    };
    let value = to_value(&record);
    assert_eq!(
        keys(&value),
        [
            "client_queue",
            "engine_totals",
            "phases",
            "protocol_version",
            "queue_depth",
            "server",
            "shed_slow_clients",
            "workers"
        ]
    );
    assert_eq!(
        keys(serde::field(value.as_object().unwrap(), "engine_totals").unwrap()),
        ENGINE_KEYS
    );
    let phase = &serde::field(value.as_object().unwrap(), "phases")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(
        keys(phase),
        [
            "cache_hits",
            "cache_misses",
            "clients",
            "coalesced",
            "completed",
            "distinct_specs",
            "executed",
            "failed",
            "latency",
            "name",
            "pipelined",
            "requests",
            "requests_per_sec",
            "wall_ms"
        ]
    );
    assert_eq!(
        keys(serde::field(phase.as_object().unwrap(), "latency").unwrap()),
        ["count", "max_ms", "mean_ms", "min_ms", "p50_ms", "p95_ms", "p99_ms"]
    );
    assert_eq!(
        keys(serde::field(value.as_object().unwrap(), "server").unwrap()),
        [
            "cells_shed",
            "cells_streamed",
            "clients",
            "coalesced",
            "completed",
            "executed",
            "failed",
            "rejected",
            "requests"
        ]
    );
}

#[test]
fn bench_pr10_record_schema_is_pinned() {
    let record = QorRecord {
        raw_pipeline: vec!["map".to_owned()],
        opt_pipeline: vec!["optimize_depth".to_owned(), "map".to_owned()],
        equivalence_gated: true,
        circuits: vec![QorCircuit {
            name: "synth:chain:1:length=64".to_owned(),
            family: "chain".to_owned(),
            raw_gates: 63,
            raw_depth: 63,
            opt_gates: 96,
            opt_depth: 15,
            depth_gain: 4.2,
            gate_gain: 0.66,
            rewrite_micros: 500,
        }],
        cells: vec![QorCell {
            circuit: "synth:chain:1:length=64".to_owned(),
            technology: "SWD".to_owned(),
            raw_size: 400,
            opt_size: 300,
            raw_wave_depth: 70,
            opt_wave_depth: 20,
            raw_area: 400.0,
            opt_area: 300.0,
            raw_cycle_time: 70.0,
            opt_cycle_time: 20.0,
        }],
        engine_totals: EngineStats::default(),
        warm: EngineStats::default(),
    };
    let value = to_value(&record);
    assert_eq!(
        keys(&value),
        [
            "cells",
            "circuits",
            "engine_totals",
            "equivalence_gated",
            "opt_pipeline",
            "raw_pipeline",
            "warm"
        ]
    );
    assert_eq!(
        keys(serde::field(value.as_object().unwrap(), "engine_totals").unwrap()),
        ENGINE_KEYS
    );
    let circuit = &serde::field(value.as_object().unwrap(), "circuits")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(
        keys(circuit),
        [
            "depth_gain",
            "family",
            "gate_gain",
            "name",
            "opt_depth",
            "opt_gates",
            "raw_depth",
            "raw_gates",
            "rewrite_micros"
        ]
    );
    let cell = &serde::field(value.as_object().unwrap(), "cells")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(
        keys(cell),
        [
            "circuit",
            "opt_area",
            "opt_cycle_time",
            "opt_size",
            "opt_wave_depth",
            "raw_area",
            "raw_cycle_time",
            "raw_size",
            "raw_wave_depth",
            "technology"
        ]
    );
}

#[test]
fn lint_report_schema_is_pinned() {
    let mut netlist = wavepipe::Netlist::new("hot");
    let a = netlist.add_input("a");
    for k in 0..4 {
        let i = netlist.add_inv(a);
        netlist.add_output(format!("o{k}"), i);
    }
    let report = wavepipe::LintReport::new(
        Some(3),
        vec![wavepipe::lint::SubjectReport {
            subject: "hot".to_owned(),
            diagnostics: wavepipe::lint_netlist(&netlist, Some(3)),
        }],
    );
    let value = to_value(&report);
    assert_eq!(
        keys(&value),
        ["fanout_limit", "schema_version", "subjects", "totals"]
    );
    assert_eq!(
        serde::field(value.as_object().unwrap(), "schema_version")
            .unwrap()
            .as_f64(),
        Some(f64::from(wavepipe::lint::LINT_SCHEMA_VERSION))
    );
    let subject = &serde::field(value.as_object().unwrap(), "subjects")
        .unwrap()
        .as_array()
        .unwrap()[0];
    assert_eq!(keys(subject), ["diagnostics", "subject"]);
    let diagnostic = &serde::field(subject.as_object().unwrap(), "diagnostics")
        .unwrap()
        .as_array()
        .unwrap()[0];
    // `provenance` is optional (omitted when unset); the WP003 finding
    // above names the hot component, so it is present here.
    assert_eq!(
        keys(diagnostic),
        [
            "category",
            "code",
            "message",
            "provenance",
            "severity",
            "subject"
        ]
    );
    assert_eq!(
        keys(serde::field(value.as_object().unwrap(), "totals").unwrap()),
        ["errors", "infos", "warnings"]
    );
    // A report with no configured fan-out limit omits the field.
    let bare = wavepipe::LintReport::new(None, Vec::new());
    assert_eq!(
        keys(&to_value(&bare)),
        ["schema_version", "subjects", "totals"]
    );
}

/// The `wavecheck --json --out` artifact (regenerated by CI's
/// lint-smoke job) must parse with the pinned report shape and carry
/// zero error-severity findings.
#[test]
fn generated_lint_report_parses_clean() {
    let path = "results/LINT.json";
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("{path} not generated in this checkout; skipping");
        return;
    };
    let value: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(
        keys(&value),
        ["fanout_limit", "schema_version", "subjects", "totals"],
        "{path} drifted from the schema"
    );
    let totals = serde::field(value.as_object().unwrap(), "totals").unwrap();
    assert_eq!(
        serde::field(totals.as_object().unwrap(), "errors")
            .unwrap()
            .as_f64(),
        Some(0.0),
        "{path}: the checked-in flows must lint clean"
    );
}

/// Generated artifacts must match the pinned schema too. Most of
/// `results/` is gitignored (the binaries regenerate it;
/// `BENCH_pr6.json`, `BENCH_pr9.json` and `BENCH_pr10.json` are
/// committed as perf baselines), so absent files are skipped — CI's
/// smoke jobs run the `scaling` / `verify_throughput` / `qor` binaries
/// (and the `wavepipe-serve`/`wavepipe-load` pair) first and then this
/// test, which is what keeps `results/BENCH_pr4.json`–`BENCH_pr10.json`
/// generation from rotting relative to the record types.
///
/// The committed `BENCH_pr9.json` and `BENCH_pr10.json` predate the
/// removal of four engine counters and carry exactly
/// [`HISTORICAL_ENGINE_KEYS`]; a regenerated file carries exactly
/// [`ENGINE_KEYS`].
#[test]
fn generated_bench_records_parse_with_the_pinned_shape() {
    const LIVE: &[&[&str]] = &[&ENGINE_KEYS];
    const BASELINE: &[&[&str]] = &[&HISTORICAL_ENGINE_KEYS, &ENGINE_KEYS];
    for (path, top, engine_keys) in [
        (
            "results/BENCH_pr3.json",
            vec!["cached_cells", "engine_totals", "passes", "stages"],
            LIVE,
        ),
        (
            "results/BENCH_pr4.json",
            vec!["cached_cells", "engine_totals", "pipeline", "points"],
            LIVE,
        ),
        (
            "results/BENCH_pr5.json",
            vec!["exhaustive", "pipeline", "points"],
            &[],
        ),
        (
            "results/BENCH_pr6.json",
            vec!["block_words", "grid", "grid_circuit", "pipeline", "points"],
            &[],
        ),
        (
            "results/BENCH_pr9.json",
            vec![
                "client_queue",
                "engine_totals",
                "phases",
                "protocol_version",
                "queue_depth",
                "server",
                "shed_slow_clients",
                "workers",
            ],
            BASELINE,
        ),
        (
            "results/BENCH_pr10.json",
            vec![
                "cells",
                "circuits",
                "engine_totals",
                "equivalence_gated",
                "opt_pipeline",
                "raw_pipeline",
                "warm",
            ],
            BASELINE,
        ),
    ] {
        let Ok(text) = std::fs::read_to_string(path) else {
            eprintln!("{path} not generated in this checkout; skipping");
            continue;
        };
        let value: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(keys(&value), top[..], "{path} drifted from the schema");
        if !engine_keys.is_empty() {
            let found = keys(serde::field(value.as_object().unwrap(), "engine_totals").unwrap());
            assert!(
                engine_keys.iter().any(|expected| found == *expected),
                "{path}: engine_totals keys {found:?}"
            );
        }
    }
}
