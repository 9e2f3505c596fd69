//! Verification-throughput benchmark: scalar vs bit-parallel vs
//! flat-arena wide-block differential checking over the synthetic `dag`
//! family, 10² to 10⁶ nodes, plus the exhaustive-input ceiling curve
//! and the block-width × thread-count sharded-check grid — written to
//! `results/BENCH_pr5.json` (shape: [`VerifyRecord`]) and
//! `results/BENCH_pr6.json` (shape: [`WideRecord`]).
//!
//! ```text
//! cargo run --release -p wavepipe-bench --bin verify_throughput [-- --max-nodes N]
//! ```
//!
//! Each point runs the paper's default flow (FO3 + BUF + verify) on a
//! `synth:dag` circuit and measures equivalence-checking throughput on
//! the *pipelined* netlist three ways:
//!
//! * the scalar baseline (`Netlist::eval`, one pattern per traversal);
//! * one 64-lane word per node (`Netlist::eval_words`, 64 patterns per
//!   call through the flat arena kernel) — the BENCH_pr5 curve;
//! * the flat arena at the default block width, built once
//!   (`NetlistFunction::eval_wide`, `64 * block_words` patterns per
//!   walk over the topo-contiguous copy-elided layout).
//!
//! All three go through the one arena evaluation kernel. The run
//! **asserts** the floors: word ≥ 4× scalar everywhere (≥ 20× from 10⁴
//! nodes), and the prepared wide path never behind the word path — a
//! regression in the evaluation hot path fails the bench instead of
//! silently flattening a curve.
//!
//! The grid sweep re-checks one circuit differentially under every
//! (block width, thread count) combination through the sharded engine —
//! same verdict by construction, throughput recorded per cell. The
//! exhaustive sweep times full `2^n` differential proofs at growing
//! input counts. `--max-nodes` truncates everything (CI runs the
//! smallest sizes to keep both record formats alive).

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wavepipe::differential::{self, Verdict};
use wavepipe::{
    EquivalencePolicy, EvalArena, FlowConfig, FlowSpec, NetlistFunction, PipelineSpec, SweepConfig,
    SynthSpec, DEFAULT_BLOCK_WORDS,
};
use wavepipe_bench::harness::engine;
use wavepipe_bench::record::{
    ExhaustivePoint, GridPoint, VerifyPoint, VerifyRecord, WidePoint, WideRecord,
};

/// The throughput sweep axis: 10²..10⁶ target nodes. Points past 10⁵
/// feed only the wide (BENCH_pr6) curve; the BENCH_pr5 scalar-vs-word
/// curve keeps its original 10²..10⁵ span.
const SWEEP: [(usize, u64); 6] = [
    (100, 8),
    (1_000, 12),
    (10_000, 16),
    (30_000, 20),
    (100_000, 24),
    (1_000_000, 28),
];

/// Largest node count of the BENCH_pr5 scalar-vs-word curve.
const PR5_MAX_NODES: usize = 100_000;

/// Input counts of the exhaustive-ceiling curve (each is one full
/// `2^n`-pattern proof on a ~400-node circuit).
const EXHAUSTIVE_INPUTS: [usize; 5] = [8, 10, 12, 14, 16];

/// The sharded-check grid axes.
const GRID_BLOCK_WORDS: [usize; 4] = [1, 2, 4, 8];
const GRID_THREADS: [usize; 3] = [1, 2, 4];

/// Runs `work` (which reports how many patterns it evaluated) in three
/// rounds of ≥ 60 ms / ≥ 3 calls each and returns the best round's
/// patterns per second — the floor asserts gate the build, so one
/// scheduler hiccup in a single short window must not fail the bench.
fn measure(mut work: impl FnMut() -> u64) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let started = Instant::now();
        let mut patterns = 0u64;
        let mut calls = 0u32;
        while calls < 3 || started.elapsed() < Duration::from_millis(60) {
            patterns += work();
            calls += 1;
        }
        best = best.max(patterns as f64 / started.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let mut max_nodes = usize::MAX;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-nodes" => {
                max_nodes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-nodes takes an integer");
            }
            other => panic!("unknown argument `{other}` (try --max-nodes N)"),
        }
    }

    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results/");
    let engine = engine();
    let pipeline = PipelineSpec::for_config(FlowConfig::default());
    let pass_names = pipeline
        .build()
        .expect("default pipeline is well-ordered")
        .pass_names();

    let mut points = Vec::new();
    let mut wide_points = Vec::new();
    let mut grid_circuit = None;
    println!(
        "{:<48} {:>9} {:>13} {:>13} {:>13} {:>8} {:>8}",
        "circuit", "size'", "scalar pat/s", "word pat/s", "wide pat/s", "w/s", "wide/w"
    );
    for (i, (nodes, depth)) in SWEEP.iter().enumerate() {
        if *nodes > max_nodes {
            continue;
        }
        let synth = SynthSpec::new("dag", 0x7E51_F000 + i as u64)
            .param("nodes", *nodes as u64)
            .param("depth", *depth)
            .param("inputs", (32 + nodes / 50).min(4_096) as u64)
            .param("outputs", (16 + nodes / 100).min(4_096) as u64);
        let name = synth.name();
        let run = engine
            .run(&FlowSpec::new("verify-throughput").synthetic_circuit(synth))
            .expect("sweep spec verifies")
            .cells
            .remove(0)
            .outcome
            .expect("cell verifies");
        let netlist = &run.result.pipelined;
        let inputs = netlist.inputs().len();
        let pipelined_size = run.result.pipelined_counts().priced_total();

        // One shared random pattern pool; wide blocks are views of it.
        let width = DEFAULT_BLOCK_WORDS;
        let mut rng = StdRng::seed_from_u64(0xBEA7 + i as u64);
        let scalar_patterns: Vec<Vec<bool>> = (0..64)
            .map(|_| (0..inputs).map(|_| rng.gen()).collect())
            .collect();
        let word_blocks: Vec<Vec<u64>> = (0..16)
            .map(|_| (0..inputs * width).map(|_| rng.gen()).collect())
            .collect();

        // One 64-lane word per node per call.
        let mut next_block = 0usize;
        let word_pps = measure(|| {
            let block = &word_blocks[next_block % word_blocks.len()];
            next_block += 1;
            std::hint::black_box(netlist.eval_words(&block[..inputs]));
            64
        });

        // Flat arena, default block width.
        let arena = EvalArena::try_new(netlist).expect("flow output is acyclic");
        let mut function = NetlistFunction::new(netlist).expect("flow output is acyclic");
        let mut next_block = 0usize;
        let wide_pps = measure(|| {
            let block = &word_blocks[next_block % word_blocks.len()];
            next_block += 1;
            std::hint::black_box(function.eval_wide(block, width));
            64 * width as u64
        });
        let wide_speedup = wide_pps / word_pps;

        // Scalar baseline (BENCH_pr5 curve only — pointless at 10⁶).
        let scalar_pps = if *nodes <= PR5_MAX_NODES {
            let mut next = 0usize;
            measure(|| {
                let pattern = &scalar_patterns[next % scalar_patterns.len()];
                next += 1;
                std::hint::black_box(netlist.eval(pattern));
                1
            })
        } else {
            0.0
        };

        let speedup = if scalar_pps > 0.0 {
            word_pps / scalar_pps
        } else {
            0.0
        };
        println!(
            "{:<48} {:>9} {:>13.0} {:>13.0} {:>13.0} {:>7.1}x {:>7.1}x",
            name, pipelined_size, scalar_pps, word_pps, wide_pps, speedup, wide_speedup
        );

        if *nodes <= PR5_MAX_NODES {
            // No-regression pins of the PR5 curve: the word path must
            // stay ≥ 4× the scalar baseline everywhere and ≥ 20× from
            // 10⁴ nodes up.
            assert!(
                speedup >= 4.0,
                "{name}: word path only {speedup:.1}x over scalar — hot-path regression"
            );
            if *nodes >= 10_000 {
                assert!(
                    speedup >= 20.0,
                    "{name}: {speedup:.1}x at {nodes} nodes is below the 20x floor"
                );
            }
            points.push(VerifyPoint {
                name: name.clone(),
                target_nodes: *nodes,
                inputs,
                pipelined_size,
                scalar_patterns_per_sec: scalar_pps,
                word_patterns_per_sec: word_pps,
                speedup,
            });
        }

        // No-regression pin of the PR6 curve: the prepared wide path
        // must never fall behind the one-word path.
        assert!(
            wide_speedup >= 1.0,
            "{name}: wide path {wide_speedup:.2}x slower than the word path"
        );
        wide_points.push(WidePoint {
            name: name.clone(),
            target_nodes: *nodes,
            inputs,
            pipelined_size,
            arena_slots: arena.len(),
            wide_patterns_per_sec: wide_pps,
        });
        grid_circuit = Some(name);
    }
    assert!(
        !wide_points.is_empty(),
        "--max-nodes filtered out every point"
    );

    // Block-width × thread-count grid: the full sharded differential
    // check (netlist vs source MIG, stratified sampling) on the largest
    // circuit that ran. Every cell computes the identical verdict — the
    // knobs move only the throughput.
    let grid_circuit = grid_circuit.expect("at least one sweep point ran");
    let source = benchsuite::build_mig(&grid_circuit).expect("registry rebuilds");
    let run = engine
        .run(&FlowSpec::new("verify-grid").circuit(&grid_circuit))
        .expect("grid spec verifies")
        .cells
        .remove(0)
        .outcome
        .expect("cell verifies");
    let netlist = &run.result.pipelined;
    let rounds = 64u64;
    let policy = EquivalencePolicy::sampled(rounds as usize, 0x9D06);
    let mut grid = Vec::new();
    println!("\n{:<12} {:>8} {:>14}", "block_words", "threads", "pat/s");
    for &block_words in &GRID_BLOCK_WORDS {
        for &threads in &GRID_THREADS {
            let sweep = SweepConfig::single_word()
                .with_block_words(block_words)
                .with_threads(threads);
            let pps = measure(|| {
                let verdict = differential::check_with(netlist, &source, &policy, &sweep)
                    .expect("interfaces match");
                assert!(verdict.holds(), "grid circuit must verify");
                rounds * 64
            });
            println!("{:<12} {:>8} {:>14.0}", block_words, threads, pps);
            grid.push(GridPoint {
                block_words,
                threads,
                patterns_per_sec: pps,
            });
        }
    }

    // Exhaustive-ceiling curve: full 2^n proofs at growing n. In the
    // CI configuration (tiny --max-nodes) only the cheapest proofs run.
    let mut exhaustive = Vec::new();
    println!("\n{:<8} {:>12} {:>12}", "inputs", "patterns", "wall ms");
    for (i, n_inputs) in EXHAUSTIVE_INPUTS.into_iter().enumerate() {
        if max_nodes < 1_000 && n_inputs > 10 {
            continue;
        }
        let synth = SynthSpec::new("dag", 0xE0_0000 + i as u64)
            .param("nodes", 400)
            .param("depth", 10)
            .param("inputs", n_inputs as u64)
            .param("outputs", 8);
        let name = synth.name();
        let run = engine
            .run(&FlowSpec::new("verify-exhaustive").synthetic_circuit(synth))
            .expect("exhaustive spec verifies")
            .cells
            .remove(0)
            .outcome
            .expect("cell verifies");
        let source = benchsuite::build_mig(&name).expect("registry rebuilds");
        let policy = EquivalencePolicy::exhaustive(n_inputs as u32);

        let started = Instant::now();
        let verdict =
            differential::check(&run.result.pipelined, &source, &policy).expect("interfaces match");
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let holds = matches!(
            verdict,
            Verdict::Equivalent {
                exhaustive: true,
                ..
            }
        );
        assert!(holds, "{name}: exhaustive differential proof failed");
        println!("{:<8} {:>12} {:>12.2}", n_inputs, 1u64 << n_inputs, wall_ms);
        exhaustive.push(ExhaustivePoint {
            inputs: n_inputs,
            patterns: 1u64 << n_inputs,
            wall_ms,
            holds,
        });
    }

    let record = VerifyRecord {
        pipeline: pass_names.clone(),
        points,
        exhaustive,
    };
    fs::write(
        out_dir.join("BENCH_pr5.json"),
        serde_json::to_string_pretty(&record).expect("serialize"),
    )
    .expect("write BENCH_pr5.json");

    let wide_record = WideRecord {
        pipeline: pass_names,
        block_words: DEFAULT_BLOCK_WORDS,
        points: wide_points,
        grid_circuit,
        grid,
    };
    fs::write(
        out_dir.join("BENCH_pr6.json"),
        serde_json::to_string_pretty(&wide_record).expect("serialize"),
    )
    .expect("write BENCH_pr6.json");
    println!(
        "\nverification records: results/BENCH_pr5.json ({} points, {} proofs), results/BENCH_pr6.json ({} points, {} grid cells)",
        record.points.len(),
        record.exhaustive.len(),
        wide_record.points.len(),
        wide_record.grid.len()
    );
}
