//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path wpbench/Cargo.toml -- \
//!     --workload <cold_sweep|gated_rewrite|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric, a layer self-time
//! table, and writes its spans to `wpbench/out/`. The last line of
//! standard output is the result object; the line before it records the
//! run's provenance and sample counts. Every cell's output is checked;
//! any failure makes the exit code 1. `--setup-only` runs nothing but
//! the workload's set-up; untraced runs start it several times to time
//! `setup_s`.

pub mod inproc;
pub mod layers;
pub mod metrics;
pub mod serve_mix;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set the workload up, report `ready` and exit: one `setup_s`
    /// sample (see [`setup_seconds`]).
    pub setup_only: bool,
}

/// Parses the benchmark's command line.
pub fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--setup-only" => args.setup_only = true,
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs).
    pub e2e: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Cells attempted and failed (error or failed output check).
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Traced-run layer table.
    pub summary: String,
    /// Sample counts and settings, printed with the provenance.
    pub details: Vec<(String, String)>,
}

pub const WORKLOADS: [&str; 3] = ["cold_sweep", "gated_rewrite", "serve_mix"];

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Sets `args.workload` up as a run would, calls `ready`, then tears
/// the set-up down.
pub fn setup_only(args: &Args, ready: impl FnOnce()) -> Result<(), String> {
    match args.workload.as_str() {
        "cold_sweep" => inproc::setup(&workloads::COLD_SWEEP, args.seed, None).map(|_| ready()),
        "gated_rewrite" => {
            inproc::setup(&workloads::GATED_REWRITE, args.seed, None).map(|_| ready())
        }
        "serve_mix" => serve_mix::setup_only(args.seed, ready),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }
}

/// The `setup_s` samples of a run: each starts a fresh process of this
/// benchmark with `--setup-only` and times it from the spawn until the
/// process reports `ready`, so every sample covers process start, cold
/// code and the workload's whole set-up.
pub fn setup_seconds(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let seed = args.seed.to_string();
    (0..SETUP_REPEATS)
        .map(|_| {
            let started = Instant::now();
            let mut child = Command::new(&exe)
                .args([
                    "--workload",
                    &args.workload,
                    "--seed",
                    &seed,
                    "--setup-only",
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("starting a set-up probe: {e}"))?;
            let mut line = String::new();
            let read = match child.stdout.take() {
                Some(out) => std::io::BufReader::new(out).read_line(&mut line),
                None => Ok(0),
            };
            let elapsed = started.elapsed().as_secs_f64();
            let status = child
                .wait()
                .map_err(|e| format!("waiting for a set-up probe: {e}"))?;
            match read {
                Ok(_) if status.success() && line.trim() == "ready" => Ok(elapsed),
                _ => Err(format!("set-up probe failed ({status})")),
            }
        })
        .collect()
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

/// `trace.overhead_frac`, estimated: the share of request wall time the
/// traced run spends taking timestamps inside the timed windows, as
/// `stamps` recorder calls at the recorder's cost per call measured here.
/// Comparing traced with untraced end-to-end runs directly would need
/// both in one process on the same requests; the estimate stands in.
pub fn overhead_frac(stamps: usize, request_wall_ms: f64) -> f64 {
    const CALIBRATION: usize = 20_000;
    let scratch = trace::Recorder::since(Instant::now());
    let started = Instant::now();
    for i in 0..CALIBRATION {
        let now = Instant::now();
        scratch.record("calibration", None, i as u64, now, Instant::now());
    }
    let per_span_ms = stats::ms(started.elapsed()) / CALIBRATION as f64;
    if request_wall_ms > 0.0 {
        stamps as f64 * per_span_ms / request_wall_ms
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_the_command_line() {
        let args =
            parse_args(argv("--workload serve_mix --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(args.workload, "serve_mix");
        assert_eq!(args.seed, 7);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(!args.setup_only);
        assert!(
            parse_args(argv("--workload x --setup-only"))
                .unwrap()
                .setup_only
        );
        assert!(parse_args(argv("--trace 2")).is_err());
        assert!(parse_args(argv("--bogus 1")).is_err());
    }
}
