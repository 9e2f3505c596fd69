//! Command-line entry point of the repository benchmark; see the
//! library docs for the workloads and the output format.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use wpbench::{inproc, metrics, parse_args, serve_mix, stats, workloads, Args, Outcome, WORKLOADS};

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let head = std::fs::read_to_string(root.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_owned()
        } else {
            head.to_owned()
        };
    };
    if let Ok(id) = std::fs::read_to_string(root.join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(root.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn details_line(args: &Args, outcome: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_owned(), args.workload.clone()),
        ("seed".to_owned(), args.seed.to_string()),
        ("seconds".to_owned(), args.seconds.to_string()),
        ("trace".to_owned(), u8::from(args.trace).to_string()),
        ("nproc".to_owned(), stats::nproc().to_string()),
        ("rustc".to_owned(), env!("WPBENCH_RUSTC_VERSION").to_owned()),
        ("git_commit".to_owned(), git_commit()),
    ];
    fields.extend(outcome.details.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\": \"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let started = Instant::now();
    if let Some((name, _)) = std::env::vars().find(|(k, _)| k.starts_with("WAVEPIPE_")) {
        eprintln!("wpbench: refusing to run with {name} set; the benchmark pins every knob");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wpbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "wpbench: unknown workload `{}` (one of {WORKLOADS:?})",
            args.workload
        );
        return ExitCode::from(2);
    }
    if args.setup_only {
        let ready = || {
            println!("ready");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        };
        return match wpbench::setup_only(&args, ready) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("wpbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let setups = if args.trace {
        Vec::new()
    } else {
        match wpbench::setup_seconds(&args) {
            Ok(setups) => setups,
            Err(e) => {
                eprintln!("wpbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    let outcome = match args.workload.as_str() {
        "cold_sweep" => inproc::run(&workloads::COLD_SWEEP, &args, started),
        "gated_rewrite" => inproc::run(&workloads::GATED_REWRITE, &args, started),
        "serve_mix" => serve_mix::run(&args, started),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("wpbench: {e}");
            return ExitCode::from(1);
        }
    };
    if !setups.is_empty() {
        outcome
            .e2e
            .insert("setup_s".to_owned(), stats::median(&setups));
    }
    for failure in &outcome.failures {
        eprintln!("wpbench: FAILED {failure}");
    }
    if !outcome.summary.is_empty() {
        print!("{}", outcome.summary);
    }
    println!("{}", details_line(&args, &outcome));
    let values: Vec<(String, &str, f64)> = if args.trace {
        metrics::per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = outcome.layers.get(&name).copied().unwrap_or(0.0);
                (name, unit, value)
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = outcome.e2e.get(name).copied().unwrap_or(0.0);
                (name.to_owned(), unit, value)
            })
            .collect()
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted.max(1), outcome.failed, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
