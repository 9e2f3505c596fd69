//! Calls into each layer's public functions, wrapped in spans.
//!
//! The traced run times a request as one call into the engine (or the
//! server), then replays the same work once on the same inputs through
//! the layers' public functions. The replayed spans hang under the span
//! of the call they explain, so a layer's self time is read from
//! outside the program and the call's own self time is whatever no
//! public layer call explains.
//! The same module holds the output check every cell must pass.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mig::{EquivalencePolicy, Mig, SweepConfig, DEFAULT_BLOCK_WORDS};
use wavepipe::differential::{self, Verdict};
use wavepipe::{
    BufferStrategy, CostTable, EvalArena, FlowPipeline, FlowSpec, Netlist, PassSpec, PipelineRun,
    PipelineSpec,
};

use crate::trace::Recorder;

/// Policy of the per-cell output check: exhaustive up to 12 inputs,
/// sixteen 64-pattern rounds beyond.
pub const CHECK_POLICY: EquivalencePolicy = EquivalencePolicy {
    exhaustive_inputs: 12,
    rounds: 16,
    seed: 0x5EED_CE11,
};

/// Sweep configuration of every differential check the benchmark makes
/// (pinned, never read from the environment).
pub fn sweep() -> SweepConfig {
    SweepConfig {
        block_words: DEFAULT_BLOCK_WORDS,
        threads: crate::stats::nproc(),
    }
}

/// Where a replayed span hangs: recorder, parent span and request id.
#[derive(Clone, Copy)]
pub struct At<'a> {
    pub rec: &'a Recorder,
    pub parent: u64,
    pub rid: u64,
}

impl<'a> At<'a> {
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.rec.time(name, Some(self.parent), self.rid, |_| f())
    }

    pub fn under(&self, parent: u64) -> At<'a> {
        At { parent, ..*self }
    }
}

/// Work counters gathered while replaying, for the per-layer rates.
#[derive(Clone, Debug, Default)]
pub struct Facts {
    /// Pass-boundary time of each replayed pipeline run (ms).
    pub boundaries_ms: Vec<f64>,
    pub restrict_nodes: u64,
    pub restrict_ns: u64,
    pub insert_nodes: u64,
    pub insert_ns: u64,
    pub patterns: u64,
    pub check_ns: u64,
    /// `PassStats::micros` of the replayed runs, per cross-check metric.
    pub pass_micros: BTreeMap<&'static str, u64>,
}

impl Facts {
    pub fn merge(&mut self, other: &Facts) {
        self.boundaries_ms.extend_from_slice(&other.boundaries_ms);
        self.restrict_nodes += other.restrict_nodes;
        self.restrict_ns += other.restrict_ns;
        self.insert_nodes += other.insert_nodes;
        self.insert_ns += other.insert_ns;
        self.patterns += other.patterns;
        self.check_ns += other.check_ns;
        for (layer, micros) in &other.pass_micros {
            *self.pass_micros.entry(layer).or_default() += micros;
        }
    }

    /// The per-layer rates and `PassStats` cross-checks.
    pub fn metrics(&self, out: &mut BTreeMap<String, f64>) {
        let rate = |n: u64, ns: u64| {
            if ns > 0 {
                n as f64 / (ns as f64 / 1e9)
            } else {
                0.0
            }
        };
        out.insert(
            "fanout_restriction.nodes_per_s".to_owned(),
            rate(self.restrict_nodes, self.restrict_ns),
        );
        out.insert(
            "buffer_insertion.nodes_per_s".to_owned(),
            rate(self.insert_nodes, self.insert_ns),
        );
        out.insert(
            "differential.patterns_per_s".to_owned(),
            rate(self.patterns, self.check_ns),
        );
        for (_, layer) in PASS_LAYERS {
            let micros = self.pass_micros.get(layer).copied().unwrap_or(0);
            out.insert(layer.to_owned(), micros as f64 / 1e3);
        }
    }
}

/// Pass-name prefix → the `PassStats::micros` cross-check metric.
const PASS_LAYERS: [(&str, &str); 4] = [
    ("map", "from_mig.map_ms.pass_stats_busy"),
    (
        "fanout_restriction",
        "fanout_restriction.restrict_ms.pass_stats_busy",
    ),
    (
        "insert_buffers",
        "buffer_insertion.insert_ms.pass_stats_busy",
    ),
    ("verify", "balance.verify_ms.pass_stats_busy"),
];

/// `spec.check`: the validation, spec lint and pipeline build every
/// engine request performs before touching a circuit.
pub fn spec_check(spec: &FlowSpec) -> Result<FlowPipeline, String> {
    spec.validate().map_err(|e| e.to_string())?;
    let errors = wavepipe::lint_spec(spec)
        .into_iter()
        .filter(|d| d.severity == wavepipe::lint::Severity::Error)
        .count();
    if errors > 0 {
        return Err(format!("spec lint reported {errors} errors"));
    }
    spec.pipeline.build().map_err(|e| e.to_string())
}

/// The fan-out bound the spec's verify pass enforces.
pub fn fanout_limit(pipeline: &PipelineSpec) -> Option<u32> {
    pipeline.passes.iter().find_map(|p| match p {
        PassSpec::Verify { fanout_limit } => *fanout_limit,
        _ => None,
    })
}

fn timed_check(
    at: Option<At<'_>>,
    facts: &mut Facts,
    netlist: &Netlist,
    arena: Arc<EvalArena>,
    source: &Mig,
    policy: &EquivalencePolicy,
) -> Result<(), String> {
    let started = Instant::now();
    let verdict = match at {
        Some(at) => at.time("differential.check", || {
            differential::check_prepared(netlist, arena, source, policy, &sweep())
        }),
        None => differential::check_prepared(netlist, arena, source, policy, &sweep()),
    };
    facts.check_ns += started.elapsed().as_nanos() as u64;
    match verdict.map_err(|e| e.to_string())? {
        Verdict::Equivalent { patterns, .. } => {
            facts.patterns += patterns;
            Ok(())
        }
        Verdict::Diverged(cex) => Err(format!("netlist diverges from its source MIG: {cex:?}")),
    }
}

fn build_arena(at: Option<At<'_>>, netlist: &Netlist) -> Result<Arc<EvalArena>, String> {
    let arena = match at {
        Some(at) => at.time("arena.build", || EvalArena::try_new(netlist)),
        None => EvalArena::try_new(netlist),
    };
    arena.map(Arc::new).map_err(|e| e.to_string())
}

/// The output check of one cell: the §III/§IV invariants at the
/// pipeline's fan-out bound (unit-span edges, aligned outputs, fan-out
/// ≤ k), agreement with the cell's own balance report, and differential
/// equivalence against the source MIG.
pub fn check_cell(
    run: &PipelineRun,
    source: &Mig,
    limit: Option<u32>,
    at: Option<At<'_>>,
    facts: &mut Facts,
) -> Result<(), String> {
    let netlist = &run.result.pipelined;
    let report = wavepipe::verify_balance(netlist, limit).map_err(|e| e.to_string())?;
    if run.result.report.as_ref() != Some(&report) {
        return Err(format!(
            "balance report {:?} differs from the checked one {report:?}",
            run.result.report
        ));
    }
    let arena = build_arena(at, netlist)?;
    timed_check(at, facts, netlist, arena, source, &CHECK_POLICY)
}

/// What one replayed pipeline execution measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replayed {
    /// Time spent in the replayed equivalence gates, which the pipeline
    /// runs outside its pass bodies.
    pub gates_ns: u64,
    /// Whether every pass was replayed; the replay stops at the first
    /// pass kind it has no public function for, and the rest of the
    /// execution stays unexplained.
    pub complete: bool,
}

/// Replays one pipeline execution the engine already made: times the
/// public pass functions, the rewrite and equivalence gates and the
/// pricing the pipeline performs at pass boundaries, on the same input,
/// once. `run` is the engine's own result; its `PassStats::micros` are
/// kept beside the replayed times as a cross-check, and a complete
/// replay must end at the same netlist.
pub fn replay_pipeline(
    at: At<'_>,
    facts: &mut Facts,
    spec: &PipelineSpec,
    source: &Mig,
    model: Option<&CostTable>,
    run: &PipelineRun,
) -> Result<Replayed, String> {
    for stats in &run.trace {
        if let Some(&(_, layer)) = PASS_LAYERS.iter().find(|(p, _)| stats.pass.starts_with(p)) {
            *facts.pass_micros.entry(layer).or_default() += stats.micros;
        }
    }
    let mut out = Replayed::default();
    let gate = spec.equivalence_gate.as_ref();

    let mut working: Option<Mig> = None;
    let mut passes = spec.passes.iter().peekable();
    while let Some(pass) = passes.next_if(|p| {
        matches!(
            p,
            PassSpec::OptimizeDepth { .. }
                | PassSpec::OptimizeSize { .. }
                | PassSpec::OptimizeCostAware { .. }
        )
    }) {
        let input = working.as_ref().unwrap_or(source);
        let rewritten = match *pass {
            PassSpec::OptimizeDepth { max_rounds } => at.time("mig.optimize_depth", || {
                mig::optimize_depth(input, max_rounds).0
            }),
            PassSpec::OptimizeSize { max_rounds } => at.time("mig.optimize_size", || {
                mig::optimize_size(input, max_rounds)
            }),
            _ => return Ok(out),
        };
        if let Some(policy) = gate {
            let gate_started = Instant::now();
            let verdict = at.time("mig.rewrite_gate", || {
                mig::check_equivalence_with_policy(&rewritten, source, policy)
            });
            out.gates_ns += gate_started.elapsed().as_nanos() as u64;
            if !verdict.map_err(|e| e.to_string())?.holds() {
                return Err("rewrite gate replay diverged".to_owned());
            }
        }
        working = Some(rewritten);
    }
    let input = working.as_ref().unwrap_or(source);
    let mut netlist = at.time("from_mig.map", || {
        if spec.minimize_inverters {
            wavepipe::netlist_from_mig_min_inv(input)
        } else {
            wavepipe::netlist_from_mig(input)
        }
    });
    let mut gate_after = |netlist: &Netlist,
                          arena: Option<Arc<EvalArena>>,
                          facts: &mut Facts|
     -> Result<Option<Arc<EvalArena>>, String> {
        let Some(policy) = gate else {
            return Ok(None);
        };
        let gate_started = Instant::now();
        let checked = at
            .rec
            .time("pipeline.gate", Some(at.parent), at.rid, |gate_id| {
                let inner = Some(at.under(gate_id));
                let arena = match arena {
                    Some(arena) => arena,
                    None => build_arena(inner, netlist)?,
                };
                timed_check(inner, facts, netlist, arena.clone(), source, policy)?;
                Ok(Some(arena))
            });
        out.gates_ns += gate_started.elapsed().as_nanos() as u64;
        checked
    };
    let mut arena = gate_after(&netlist, None, facts)?;
    for pass in passes {
        match *pass {
            PassSpec::RestrictFanout { limit } => {
                let nodes = netlist.len() as u64;
                let started = Instant::now();
                at.time("fanout_restriction.restrict", || {
                    wavepipe::restrict_fanout(&mut netlist, limit)
                });
                facts.restrict_nodes += nodes;
                facts.restrict_ns += started.elapsed().as_nanos() as u64;
                arena = gate_after(&netlist, None, facts)?;
            }
            PassSpec::InsertBuffers(BufferStrategy::Asap) => {
                let nodes = netlist.len() as u64;
                let started = Instant::now();
                at.time("buffer_insertion.insert", || {
                    wavepipe::insert_buffers(&mut netlist)
                });
                facts.insert_nodes += nodes;
                facts.insert_ns += started.elapsed().as_nanos() as u64;
                arena = gate_after(&netlist, None, facts)?;
            }
            PassSpec::Verify { fanout_limit } => {
                at.time("balance.verify", || {
                    wavepipe::verify_balance(&netlist, fanout_limit)
                })
                .map_err(|e| e.to_string())?;
                // The netlist is unchanged, so the gate reuses the
                // snapshot's arena, as the pipeline's cache does.
                arena = gate_after(&netlist, arena, facts)?;
            }
            _ => return Ok(out),
        }
    }
    if let Some(table) = model {
        let outputs = netlist.outputs().len();
        at.time("cost.price", || {
            for stats in &run.trace {
                std::hint::black_box(table.price(
                    &stats.counts_before,
                    outputs,
                    stats.depth_before,
                ));
                std::hint::black_box(table.price(&stats.counts_after, outputs, stats.depth_after));
            }
        });
    }
    let (ours, theirs) = (netlist.counts(), run.result.pipelined.counts());
    if ours != theirs {
        return Err(format!(
            "replayed netlist {ours:?} differs from the pipeline's {theirs:?}"
        ));
    }
    out.complete = true;
    Ok(out)
}

/// `pipeline.boundary_ms` of one executed cell: the cell's
/// `run_with_model` wall time minus the pass bodies (the engine's own
/// `PassStats::micros`) and minus the replayed equivalence gates.
pub fn boundary_ms(cell_wall_ns: u64, run: &PipelineRun, replayed: Replayed) -> f64 {
    let bodies_ns: u64 = run.trace.iter().map(|p| p.micros * 1_000).sum();
    (cell_wall_ns as f64 - bodies_ns as f64 - replayed.gates_ns as f64) / 1e6
}
