//! Machine-readable `BENCH_*.json` record shapes.
//!
//! Every reproduction run leaves a perf-trajectory record under
//! `results/`: `repro_all` writes a [`BenchRecord`] (`BENCH_pr3.json`),
//! the `scaling` binary a [`ScalingRecord`] (`BENCH_pr4.json`), the
//! `verify_throughput` binary a [`VerifyRecord`] (`BENCH_pr5.json`)
//! plus a [`WideRecord`] (`BENCH_pr6.json`: flat-arena wide-block
//! throughput and the block-width × thread-count grid), the
//! `wavepipe-load` generator a [`ServeRecord`] (`BENCH_pr9.json`:
//! daemon latency percentiles, throughput, and coalesce/cache rates),
//! and the `qor` binary a [`QorRecord`] (`BENCH_pr10.json`:
//! raw-vs-rewritten logic-optimization QoR across technologies).
//! The structs live here — not inside the binaries — so the schema is
//! a *library contract*: the golden test `tests/bench_schema.rs` pins
//! the exact field names and shapes, and any repro-tooling-breaking
//! rename fails CI instead of silently producing unreadable records.

use std::collections::BTreeMap;

use wavepipe::EngineStats;

/// Aggregate of one pass across every circuit of the suite, per
/// technology.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PassSummary {
    /// Technology name.
    pub technology: String,
    /// Pass name.
    pub pass: String,
    /// Summed wall time, microseconds.
    pub micros: u64,
    /// Summed priced area delta.
    pub area_delta: f64,
    /// Summed priced energy delta.
    pub energy_delta: f64,
    /// Summed priced cycle-time delta.
    pub cycle_time_delta: f64,
}

/// One experiment stage: wall time plus the engine counters it moved.
#[derive(Clone, Debug, serde::Serialize)]
pub struct StageRecord {
    /// Wall time of the stage, milliseconds.
    pub wall_ms: f64,
    /// Engine cache/execution counters for this stage alone.
    pub engine: EngineStats,
}

/// The `BENCH_pr3.json` shape: the full-reproduction perf record.
#[derive(Clone, Debug, serde::Serialize)]
pub struct BenchRecord {
    /// Per-stage wall time and engine cache hit/miss/pass counters.
    pub stages: BTreeMap<String, StageRecord>,
    /// Cumulative engine counters over the whole reproduction run.
    pub engine_totals: EngineStats,
    /// Cells resident in the engine cache at the end of the run.
    pub cached_cells: usize,
    /// Per-(technology, pass) priced deltas summed over the suite.
    pub passes: Vec<PassSummary>,
}

/// Per-pass throughput at one scaling point.
#[derive(Clone, Debug, serde::Serialize)]
pub struct PassThroughput {
    /// Pass name.
    pub pass: String,
    /// Wall time of the pass on this circuit, microseconds.
    pub micros: u64,
    /// Components the pass processed per second of its own wall time
    /// (the pass's post-state size over its wall time).
    pub nodes_per_sec: f64,
}

/// One point of the `scaling` sweep: a synthetic circuit at one target
/// node count, run cold and then warm on the same engine.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ScalingPoint {
    /// Canonical `synth:*` circuit name.
    pub name: String,
    /// Target node count of the sweep axis.
    pub target_nodes: usize,
    /// Gates actually generated.
    pub gates: usize,
    /// Mapped-netlist priced size (what the passes consume).
    pub mapped_size: usize,
    /// Final wave-pipelined netlist size.
    pub pipelined_size: usize,
    /// Circuit depth after the flow.
    pub depth: u32,
    /// Wall time of the cold (cache-miss) run, milliseconds.
    pub cold_wall_ms: f64,
    /// Wall time of the warm (cache-hit) re-run, milliseconds.
    pub warm_wall_ms: f64,
    /// Engine counter deltas of the cold run.
    pub cold: EngineStats,
    /// Engine counter deltas of the warm run — the cache-hit curve.
    pub warm: EngineStats,
    /// Per-pass wall time and throughput (cold run).
    pub passes: Vec<PassThroughput>,
}

/// The `BENCH_pr4.json` shape: node-count vs throughput and cache-hit
/// curves over the synthetic `dag` family.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ScalingRecord {
    /// The pipeline swept (canonical pass names).
    pub pipeline: Vec<String>,
    /// One point per target node count, ascending.
    pub points: Vec<ScalingPoint>,
    /// Cumulative engine counters over the whole sweep.
    pub engine_totals: EngineStats,
    /// Cells resident in the engine cache at the end.
    pub cached_cells: usize,
}

/// Scalar-vs-word verification throughput at one scaling point of the
/// `verify_throughput` sweep.
#[derive(Clone, Debug, serde::Serialize)]
pub struct VerifyPoint {
    /// Canonical `synth:*` circuit name.
    pub name: String,
    /// Target node count of the sweep axis.
    pub target_nodes: usize,
    /// Primary inputs of the circuit.
    pub inputs: usize,
    /// Final wave-pipelined netlist size (what evaluation traverses).
    pub pipelined_size: usize,
    /// Patterns per second through the scalar `Netlist::eval` baseline.
    pub scalar_patterns_per_sec: f64,
    /// Patterns per second through the bit-parallel block evaluator.
    pub word_patterns_per_sec: f64,
    /// `word_patterns_per_sec / scalar_patterns_per_sec`.
    pub speedup: f64,
}

/// Wall time of one exhaustive differential proof (all `2^inputs`
/// patterns) — the exhaustive-input ceiling curve.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ExhaustivePoint {
    /// Primary inputs of the checked circuit.
    pub inputs: usize,
    /// Patterns proven (`2^inputs`).
    pub patterns: u64,
    /// Wall time of the proof, milliseconds.
    pub wall_ms: f64,
    /// Whether the proof held (it must — recorded for auditability).
    pub holds: bool,
}

/// The `BENCH_pr5.json` shape: scalar-vs-word verification throughput
/// over the synthetic `dag` family plus the exhaustive-ceiling curve.
#[derive(Clone, Debug, serde::Serialize)]
pub struct VerifyRecord {
    /// The pipeline the verified netlists came from (canonical pass
    /// names).
    pub pipeline: Vec<String>,
    /// One point per target node count, ascending.
    pub points: Vec<VerifyPoint>,
    /// Exhaustive differential proofs: input count vs wall time.
    pub exhaustive: Vec<ExhaustivePoint>,
}

/// Flat-arena wide-block throughput at one node count of the
/// `verify_throughput` wide sweep.
#[derive(Clone, Debug, serde::Serialize)]
pub struct WidePoint {
    /// Canonical `synth:*` circuit name.
    pub name: String,
    /// Target node count of the sweep axis.
    pub target_nodes: usize,
    /// Primary inputs of the circuit.
    pub inputs: usize,
    /// Final wave-pipelined netlist size (components).
    pub pipelined_size: usize,
    /// Evaluation slots after the arena's copy elision.
    pub arena_slots: usize,
    /// Patterns per second through the flat arena at the default block
    /// width.
    pub wide_patterns_per_sec: f64,
}

/// Sharded differential-check throughput at one (block width, thread
/// count) cell of the grid.
#[derive(Clone, Debug, serde::Serialize)]
pub struct GridPoint {
    /// Words per pattern block (`SweepConfig::block_words`).
    pub block_words: usize,
    /// Worker threads (`SweepConfig::threads`).
    pub threads: usize,
    /// Patterns per second through `differential::check_with` on the
    /// grid circuit.
    pub patterns_per_sec: f64,
}

/// The `BENCH_pr6.json` shape: flat-arena wide-block verification
/// throughput over the synthetic `dag` family,
/// plus the block-width × thread-count sharded-check grid.
#[derive(Clone, Debug, serde::Serialize)]
pub struct WideRecord {
    /// The pipeline the measured netlists came from (canonical pass
    /// names).
    pub pipeline: Vec<String>,
    /// Default block width the wide column used.
    pub block_words: usize,
    /// One point per target node count, ascending.
    pub points: Vec<WidePoint>,
    /// Canonical name of the circuit the grid was measured on.
    pub grid_circuit: String,
    /// Sharded-check throughput per (block width, thread count) cell.
    pub grid: Vec<GridPoint>,
}

/// Request-latency percentiles of one load phase, milliseconds
/// (send-to-terminal-event, measured at the client).
#[derive(Clone, Debug, serde::Serialize)]
pub struct LatencySummary {
    /// Latency samples the percentiles are computed over.
    pub count: u64,
    /// Fastest request.
    pub min_ms: f64,
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Slowest request.
    pub max_ms: f64,
}

/// One phase of the `wavepipe-load` run against a live daemon.
#[derive(Clone, Debug, serde::Serialize)]
pub struct LoadPhase {
    /// Phase name (`coalesce_burst`, `distinct_sweep`, ...).
    pub name: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests pipelined per connection (all outstanding at once, so
    /// `clients * pipelined` requests are concurrently in flight).
    pub pipelined: usize,
    /// Requests sent.
    pub requests: u64,
    /// Requests that came back `done`.
    pub completed: u64,
    /// Requests that came back `error`.
    pub failed: u64,
    /// Distinct spec content hashes among the requests.
    pub distinct_specs: usize,
    /// Wall time of the phase (first send to last terminal event).
    pub wall_ms: f64,
    /// `requests / wall seconds`.
    pub requests_per_sec: f64,
    /// Client-observed latency percentiles.
    pub latency: LatencySummary,
    /// Pipeline executions the phase triggered (server counter delta).
    pub executed: u64,
    /// Requests served by joining an identical in-flight execution.
    pub coalesced: u64,
    /// Engine memory-cache hits the phase produced.
    pub cache_hits: u64,
    /// Engine memory-cache misses the phase produced.
    pub cache_misses: u64,
}

/// Final daemon counters, as reported over the wire at the end of the
/// load run (mirror of the protocol's `ServeMetrics`, minus the engine
/// block that lands in [`ServeRecord::engine_totals`]).
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeTotals {
    /// Run requests accepted off the wire.
    pub requests: u64,
    /// Runs that finished with a `done` event.
    pub completed: u64,
    /// Runs that finished with an `error` event.
    pub failed: u64,
    /// Runs rejected because the daemon was draining.
    pub rejected: u64,
    /// Runs served by joining an identical in-flight execution.
    pub coalesced: u64,
    /// Runs that actually executed on the engine.
    pub executed: u64,
    /// Streaming cell events delivered (or attempted).
    pub cells_streamed: u64,
    /// Streaming cell events dropped on slow clients.
    pub cells_shed: u64,
    /// Client connections accepted.
    pub clients: u64,
}

/// MIG-level QoR of one circuit under the rewrite prefix. The rewrite
/// passes are cost-blind, so this table is technology-independent.
#[derive(Clone, Debug, serde::Serialize)]
pub struct QorCircuit {
    /// Circuit name (canonical `synth:*` or registry name).
    pub name: String,
    /// Synthetic family (`chain`, `shared`, …) or `suite`.
    pub family: String,
    /// MIG majority gates before rewriting.
    pub raw_gates: usize,
    /// MIG depth before rewriting.
    pub raw_depth: u32,
    /// MIG majority gates after the rewrite prefix.
    pub opt_gates: usize,
    /// MIG depth after the rewrite prefix.
    pub opt_depth: u32,
    /// `raw_depth / opt_depth` — the depth-rewrite gain.
    pub depth_gain: f64,
    /// `raw_gates / opt_gates` — the size-rewrite gain.
    pub gate_gain: f64,
    /// Summed wall time of the rewrite passes, microseconds.
    pub rewrite_micros: u64,
}

/// Final-netlist QoR of one (circuit, technology) cell: the raw flow
/// vs the rewrite-prefixed flow, after the full wave-pipelining
/// pipeline.
#[derive(Clone, Debug, serde::Serialize)]
pub struct QorCell {
    /// Circuit name.
    pub circuit: String,
    /// Technology name.
    pub technology: String,
    /// Priced component count of the raw pipelined netlist.
    pub raw_size: usize,
    /// Priced component count of the rewritten pipelined netlist.
    pub opt_size: usize,
    /// Wave depth (balanced levels) of the raw flow.
    pub raw_wave_depth: u32,
    /// Wave depth of the rewritten flow.
    pub opt_wave_depth: u32,
    /// Priced area of the raw pipelined netlist.
    pub raw_area: f64,
    /// Priced area of the rewritten pipelined netlist.
    pub opt_area: f64,
    /// Priced cycle time (latency) of the raw pipelined netlist.
    pub raw_cycle_time: f64,
    /// Priced cycle time of the rewritten pipelined netlist.
    pub opt_cycle_time: f64,
}

/// The `BENCH_pr10.json` shape: logic-optimization QoR — the raw
/// reference flow vs the rewrite-prefixed flow over the skew/share
/// synthetic families and a suite subset, across technologies, with
/// every rewritten cell equivalence-gated against its source MIG.
#[derive(Clone, Debug, serde::Serialize)]
pub struct QorRecord {
    /// Canonical pass names of the raw (reference) pipeline.
    pub raw_pipeline: Vec<String>,
    /// Canonical pass names of the rewrite-prefixed pipeline.
    pub opt_pipeline: Vec<String>,
    /// Whether both flows ran under a per-pass equivalence gate (they
    /// must — recorded for auditability).
    pub equivalence_gated: bool,
    /// Technology-independent MIG-level QoR, one row per circuit.
    pub circuits: Vec<QorCircuit>,
    /// Final-netlist QoR per (circuit, technology), circuit-major.
    pub cells: Vec<QorCell>,
    /// Cumulative engine counters over the whole sweep.
    pub engine_totals: EngineStats,
    /// Engine counter deltas of the warm re-run of both grids — the
    /// rewritten pipeline must be a pure cache hit (zero passes).
    pub warm: EngineStats,
}

/// The `BENCH_pr9.json` shape: service-mode latency percentiles,
/// throughput, and coalesce/cache-hit rates under concurrent
/// multi-client load.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ServeRecord {
    /// Wire protocol version the run spoke.
    pub protocol_version: u64,
    /// Daemon worker threads.
    pub workers: usize,
    /// Daemon job-queue bound.
    pub queue_depth: usize,
    /// Per-client outbound-queue bound.
    pub client_queue: usize,
    /// Whether slow clients shed streaming cell events.
    pub shed_slow_clients: bool,
    /// The load phases, in execution order.
    pub phases: Vec<LoadPhase>,
    /// Final daemon counters.
    pub server: ServeTotals,
    /// Final cumulative engine counters.
    pub engine_totals: EngineStats,
}
