//! The in-process workloads: one long-lived `Engine`, driven closed-loop
//! by a seeded stream of single-circuit specs (`cold_sweep`,
//! `gated_rewrite`).
//!
//! The stream is a sequence of *rounds*. Every round has the same shape
//! (families and sizes); the seed and the round index pick fresh
//! circuits. The number of rounds follows from `--seconds` alone, so
//! every run samples the same mix whatever the host's speed. Exact figures are taken over rounds every run
//! completes: QoR over the first [`QOR_ROUNDS`], engine counters and the
//! traced replays over round 0.
//!
//! A traced run gives its engine a resolver that timestamps each call
//! into `benchsuite::build_mig` and a streaming sink that timestamps each
//! finished cell. Those are the only clocks read inside a timed request;
//! everything else a layer costs is replayed once afterwards.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mig::Mig;
use wavepipe::{CostTable, Engine, EngineRun, FlowSpec, PipelineRun, SynthSpec};

use crate::layers::{self, At, Facts};
use crate::metrics::{aggregate, CoverageRoot, CELLS, REQUEST};
use crate::stats::{geomean, mean, median, ms, peak_rss_mb, percentile};
use crate::trace::{thread_tag, Recorder};
use crate::{Args, Outcome};

/// One spec of a round; `requery` asks for a warm re-run right after.
pub struct Item {
    pub spec: FlowSpec,
    pub requery: bool,
}

/// A workload definition.
pub struct Plan {
    pub name: &'static str,
    /// Engine LRU capacity, in cells.
    pub cache_capacity: usize,
    /// Latency limit of `slo_miss_frac`, in ms.
    pub slo_ms: f64,
    /// Round `r` of the stream for a seed.
    pub round: fn(u64, u64) -> Vec<Item>,
    /// Nominal wall time of one round on a 2-core host; a run of
    /// `--seconds s` runs `ceil(s / round_s)` rounds (at least
    /// [`QOR_ROUNDS`]), so every run samples the same mix.
    pub round_s: f64,
}

/// Rounds every run completes; the QoR metrics are taken over them.
pub const QOR_ROUNDS: u64 = 4;

pub fn synth_spec(name: String, synth: SynthSpec, techs: Vec<CostTable>) -> FlowSpec {
    let mut spec = FlowSpec::new(name).synthetic_circuit(synth);
    spec.technologies = techs;
    spec
}

pub fn technologies() -> Vec<CostTable> {
    tech::Technology::all()
        .iter()
        .map(|t| t.cost_table())
        .collect()
}

/// The engine's own calls into `benchsuite::build_mig`, as a traced
/// run's resolver saw them: (start, end, thread).
type Generated = Arc<Mutex<Vec<(Instant, Instant, u64)>>>;

fn new_engine(plan: &Plan, generated: Option<Generated>) -> Engine {
    let engine = Engine::new().with_cache_capacity(plan.cache_capacity);
    match generated {
        None => engine.with_resolver(benchsuite::build_mig),
        Some(log) => engine.with_resolver(move |name| {
            let start = Instant::now();
            let graph = benchsuite::build_mig(name);
            let end = Instant::now();
            log.lock()
                .expect("generate log")
                .push((start, end, thread_tag()));
            graph
        }),
    }
}

/// Builds the engine and the first round, and warms code and allocator
/// with one small uncached flow of the same pipeline and technologies.
pub fn setup(
    plan: &Plan,
    seed: u64,
    generated: Option<Generated>,
) -> Result<(Engine, Vec<Item>), String> {
    let engine = new_engine(plan, generated);
    let first = (plan.round)(seed, 0);
    let template = &first.first().ok_or("empty round")?.spec;
    let mut warm = FlowSpec::new("warm-up")
        .with_pipeline(template.pipeline.clone())
        .synthetic_circuit(SynthSpec::new("dag", seed).param("nodes", 2_000));
    warm.technologies = template.technologies.clone();
    let run = Engine::uncached()
        .with_resolver(benchsuite::build_mig)
        .run(&warm)
        .map_err(|e| e.to_string())?;
    if run.cells.iter().any(|c| c.outcome.is_err()) {
        return Err("warm-up flow failed".to_owned());
    }
    Ok((engine, first))
}

struct Request {
    ms: f64,
    hit: bool,
    ok_cells: u64,
    gates: u64,
}

/// A cell the engine handed to the streaming sink: when, on which
/// thread.
#[derive(Clone, Copy)]
struct CellDone {
    circuit: usize,
    technology: Option<usize>,
    cached: bool,
    at: Instant,
    thread: u64,
}

/// What the traced run gathers over round 0.
#[derive(Default)]
struct Round0 {
    hit_specs: Vec<FlowSpec>,
    hit_ms: Vec<f64>,
    hit_roots: HashSet<u64>,
    /// Pipeline executions, counted as executed passes over the passes
    /// of one execution.
    executions: f64,
    netlists: HashSet<(String, u64)>,
    /// Timestamps taken inside the timed windows (resolver and sink).
    in_window: usize,
    facts: Facts,
}

/// The engine's generate call of a one-circuit request, hung under the
/// request as `benchsuite.generate`.
fn record_generate(at: At<'_>, generated: &[(Instant, Instant, u64)]) -> Result<Instant, String> {
    let &(start, end, thread) = generated
        .last()
        .ok_or("the engine did not call the resolver")?;
    let id = at.rec.reserve();
    at.rec.record_on(
        thread,
        id,
        "benchsuite.generate",
        Some(at.parent),
        at.rid,
        start,
        end,
    );
    Ok(end)
}

/// Lays out a cold request under its root: the replayed spec check, the
/// engine's own generate call, the replayed content hash, and the cell
/// section. Each executed cell becomes a `pipeline.run` span on the
/// thread that ran it, from the previous cell that thread finished (or
/// the section start) to the moment the engine streamed it; the
/// replayed pass functions of that cell hang beneath it, once.
fn trace_cold(
    at: At<'_>,
    spec: &FlowSpec,
    run: &EngineRun,
    generated: &[(Instant, Instant, u64)],
    done: &[CellDone],
    source: &Mig,
    facts: &mut Facts,
) -> Result<(), String> {
    at.time("spec.check", || layers::spec_check(spec))?;
    let generated_end = record_generate(at, generated)?;
    let hash_started = Instant::now();
    at.time("mig.content_hash", || {
        std::hint::black_box(source.content_hash())
    });
    let section_start = generated_end + hash_started.elapsed();
    let section_end = done.iter().map(|d| d.at).max().unwrap_or(section_start);
    let cells = at.rec.reserve();
    at.rec.record_as(
        cells,
        CELLS,
        Some(at.parent),
        at.rid,
        section_start,
        section_end,
    );
    let mut done = done.to_vec();
    done.sort_by_key(|d| d.at);
    let mut previous: HashMap<u64, Instant> = HashMap::new();
    for d in done {
        let start = previous
            .insert(d.thread, d.at)
            .unwrap_or(section_start)
            .max(section_start);
        if d.cached {
            continue;
        }
        let Some(cell) = run
            .cells
            .iter()
            .find(|c| c.circuit == d.circuit && c.technology == d.technology)
        else {
            continue;
        };
        let Ok(pr) = &cell.outcome else { continue };
        let id = at.rec.reserve();
        at.rec.record_on(
            d.thread,
            id,
            "pipeline.run",
            Some(cells),
            at.rid,
            start,
            d.at,
        );
        let model = d.technology.map(|m| &spec.technologies[m]);
        let replayed =
            layers::replay_pipeline(at.under(id), facts, &spec.pipeline, source, model, pr)?;
        let wall_ns = d.at.saturating_duration_since(start).as_nanos() as u64;
        facts
            .boundaries_ms
            .push(layers::boundary_ms(wall_ns, pr, replayed));
    }
    Ok(())
}

/// Lays out a warm hit under its root: the replayed spec check, the
/// engine's own generate call and the replayed content hash. The root's
/// self time is the engine's own share of the hit.
fn trace_hit(
    at: At<'_>,
    spec: &FlowSpec,
    generated: &[(Instant, Instant, u64)],
    source: &Mig,
) -> Result<(), String> {
    at.time("spec.check", || layers::spec_check(spec))?;
    record_generate(at, generated)?;
    at.time("mig.content_hash", || {
        std::hint::black_box(source.content_hash())
    });
    Ok(())
}

fn cell_runs(run: &EngineRun) -> Vec<Option<Arc<PipelineRun>>> {
    run.cells.iter().map(|c| c.outcome.clone().ok()).collect()
}

/// What `trace.coverage` measures on the in-process workloads.
const COVERAGE: CoverageRoot = CoverageRoot {
    span: REQUEST,
    remainder: "engine work outside every timed call: request handling before generation \
                that spec.check does not cover, cache lookups and stores, result assembly \
                after the last cell, worker idle time inside the cell section, and the part \
                of each cell's run_with_model the replayed pass calls do not cover \
                (pipeline.run self time)",
};

pub fn run(plan: &Plan, args: &Args, started: Instant) -> Result<Outcome, String> {
    let generated: Option<Generated> = args.trace.then(Generated::default);
    let (engine, mut round_items) = setup(plan, args.seed, generated.clone())?;

    let rec = args.trace.then(|| Recorder::since(started));
    let rounds = QOR_ROUNDS.max((args.seconds / plan.round_s).ceil() as u64);
    let mut timed = Duration::ZERO;
    let mut requests: Vec<Request> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures: Vec<String> = Vec::new();
    let (mut size_ratios, mut depths) = (Vec::new(), Vec::new());
    let mut round0 = Round0::default();
    let mut stats0 = None;
    let mut round = 0u64;
    let mut rid = 0u64;
    // The traced round's view into each request: the engine's generate
    // calls and the cells it streamed.
    let sink_log: Mutex<Vec<CellDone>> = Mutex::new(Vec::new());
    let take_logs = || {
        let generated = generated
            .as_ref()
            .map(|g| std::mem::take(&mut *g.lock().expect("generate log")))
            .unwrap_or_default();
        let done = std::mem::take(&mut *sink_log.lock().expect("sink log"));
        (generated, done)
    };
    let call = |spec: &FlowSpec, traced: bool| {
        if traced {
            engine.run_streaming(spec, |cell| {
                let at = Instant::now();
                sink_log.lock().expect("sink log").push(CellDone {
                    circuit: cell.circuit,
                    technology: cell.technology,
                    cached: cell.cached,
                    at,
                    thread: thread_tag(),
                });
            })
        } else {
            engine.run_streaming(spec, |_| {})
        }
    };

    while round < rounds {
        let before = engine.stats();
        for item in &round_items {
            let spec = &item.spec;
            let traced = rec.as_ref().filter(|_| round == 0);
            let limit = layers::fanout_limit(&spec.pipeline);
            let width = spec.technologies.len().max(1) as u64 * spec.circuits.len() as u64;
            let passes_per_execution = match traced {
                Some(_) => layers::spec_check(spec)?.pass_names().len().max(1),
                None => 1,
            };

            // Cold request.
            rid += 1;
            take_logs();
            let t0 = Instant::now();
            let result = call(spec, traced.is_some());
            let t1 = Instant::now();
            let (generated_calls, done) = take_logs();
            timed += t1 - t0;
            attempted += width;
            let run = match result {
                Ok(run) => run,
                Err(e) => {
                    failed += width;
                    failures.push(format!("{}: {e}", spec.name));
                    requests.push(Request {
                        ms: ms(t1 - t0),
                        hit: false,
                        ok_cells: 0,
                        gates: 0,
                    });
                    continue;
                }
            };
            let Some(source) = benchsuite::build_mig(&spec.circuits[0].name()) else {
                failed += width;
                failures.push(format!("{}: unknown circuit", spec.name));
                continue;
            };
            let mut facts = Facts::default();
            if let Some(r) = traced {
                round0.in_window += generated_calls.len() + done.len();
                let root = r.reserve();
                r.record_as(root, REQUEST, None, rid, t0, t1);
                let at = At {
                    rec: r,
                    parent: root,
                    rid,
                };
                trace_cold(at, spec, &run, &generated_calls, &done, &source, &mut facts)?;
                round0.executions += run.stats.passes_executed as f64 / passes_per_execution as f64;
                if run.stats.passes_executed > 0 {
                    round0
                        .netlists
                        .insert((run.circuits[0].clone(), spec.pipeline.content_hash()));
                }
            }
            let mut ok_cells = 0;
            for cell in &run.cells {
                let verdict = match &cell.outcome {
                    Ok(pr) => {
                        // The check runs outside every timed window, so
                        // its spans hang under a root of their own.
                        let checked = match traced {
                            Some(r) => r.time("check", None, rid, |id| {
                                let at = At {
                                    rec: r,
                                    parent: id,
                                    rid,
                                };
                                layers::check_cell(pr, &source, limit, Some(at), &mut facts)
                            }),
                            None => layers::check_cell(pr, &source, limit, None, &mut facts),
                        };
                        checked.map(|()| pr)
                    }
                    Err(e) => Err(e.to_string()),
                };
                match verdict {
                    Ok(pr) => {
                        ok_cells += 1;
                        if round < QOR_ROUNDS && !cell.cached {
                            size_ratios.push(pr.result.size_ratio());
                            depths.push(pr.result.report.map_or(0.0, |r| f64::from(r.depth)));
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        failures.push(format!("{} cell {}: {e}", spec.name, cell.circuit));
                    }
                }
            }
            if round == 0 {
                round0.facts.merge(&facts);
            }
            let gates = source.gate_count() as u64;
            requests.push(Request {
                ms: ms(t1 - t0),
                hit: run.cells.iter().all(|c| c.cached),
                ok_cells,
                gates,
            });
            if !item.requery {
                continue;
            }

            // Warm re-query: must be served from cache, sharing the
            // cold run's results.
            rid += 1;
            let cold = cell_runs(&run);
            let t0 = Instant::now();
            let result = call(spec, traced.is_some());
            let t1 = Instant::now();
            let (generated_calls, done) = take_logs();
            timed += t1 - t0;
            attempted += width;
            let warm = match result {
                Ok(warm) => warm,
                Err(e) => {
                    failed += width;
                    failures.push(format!("{} (warm): {e}", spec.name));
                    continue;
                }
            };
            let mut ok_cells = 0;
            for (cell, cold) in warm.cells.iter().zip(&cold) {
                let same = match (&cell.outcome, cold) {
                    (Ok(w), Some(c)) => cell.cached && Arc::ptr_eq(w, c),
                    _ => false,
                };
                if same {
                    ok_cells += 1;
                } else {
                    failed += 1;
                    failures.push(format!(
                        "{} (warm) cell {}: not the cached result",
                        spec.name, cell.circuit
                    ));
                }
            }
            let hit = warm.cells.iter().all(|c| c.cached);
            requests.push(Request {
                ms: ms(t1 - t0),
                hit,
                ok_cells,
                gates,
            });
            if let Some(r) = traced {
                round0.in_window += generated_calls.len() + done.len();
                round0.executions +=
                    warm.stats.passes_executed as f64 / passes_per_execution as f64;
                let root = r.reserve();
                r.record_as(root, REQUEST, None, rid, t0, t1);
                let at = At {
                    rec: r,
                    parent: root,
                    rid,
                };
                trace_hit(at, spec, &generated_calls, &source)?;
                if hit {
                    round0.hit_roots.insert(root);
                    round0.hit_specs.push(spec.clone());
                    round0.hit_ms.push(ms(t1 - t0));
                }
            }
        }
        if round == 0 {
            stats0 = Some(engine.stats().since(&before));
        }
        round += 1;
        round_items = (plan.round)(args.seed, round);
    }
    // Read before the baselines below; it includes the per-cell output
    // checks, which run between the timed requests.
    let peak_rss = peak_rss_mb();

    let lat: Vec<f64> = requests.iter().map(|r| r.ms).collect();
    let hits: Vec<f64> = requests.iter().filter(|r| r.hit).map(|r| r.ms).collect();
    let gate_cells: f64 = requests.iter().map(|r| (r.gates * r.ok_cells) as f64).sum();
    let misses = requests
        .iter()
        .filter(|r| r.ms > plan.slo_ms || r.ok_cells == 0)
        .count();
    let mut e2e = BTreeMap::new();
    e2e.insert("nodes_per_s".to_owned(), gate_cells / timed.as_secs_f64());
    e2e.insert("latency_p50_ms".to_owned(), percentile(&lat, 0.5));
    e2e.insert("latency_p90_ms".to_owned(), percentile(&lat, 0.9));
    e2e.insert("hit_latency_p50_ms".to_owned(), percentile(&hits, 0.5));
    e2e.insert(
        "slo_miss_frac".to_owned(),
        misses as f64 / lat.len().max(1) as f64,
    );
    e2e.insert("peak_rss_mb".to_owned(), peak_rss);
    e2e.insert("qor_size_ratio".to_owned(), geomean(&size_ratios));
    e2e.insert("qor_depth".to_owned(), mean(&depths));

    let mut details = vec![
        ("rounds".to_owned(), round.to_string()),
        ("requests".to_owned(), lat.len().to_string()),
        ("hit_requests".to_owned(), hits.len().to_string()),
        ("timed_s".to_owned(), format!("{:.3}", timed.as_secs_f64())),
        ("slo_ms".to_owned(), plan.slo_ms.to_string()),
        ("cache_capacity".to_owned(), plan.cache_capacity.to_string()),
    ];

    let mut layers_out = BTreeMap::new();
    let mut summary = String::new();
    if let Some(rec) = &rec {
        let spans = rec.spans();
        let mut table = aggregate(&spans, COVERAGE, None, &round0.hit_roots);
        table.add_boundaries(&round0.facts.boundaries_ms);
        table.metrics(&mut layers_out);
        let s = stats0.unwrap_or_default();
        let lookups = (s.cache_hits + s.cache_misses).max(1);
        let netlists = round0.netlists.len().max(1);
        // Simplest alternative to a hit: recompute the spec uncached.
        let uncached = Engine::uncached().with_resolver(benchsuite::build_mig);
        let mut base = Vec::new();
        for spec in &round0.hit_specs {
            let t0 = Instant::now();
            uncached.run(spec).map_err(|e| e.to_string())?;
            base.push(ms(t0.elapsed()));
        }
        let (base_ms, hit_ms) = (median(&base), median(&round0.hit_ms));
        let speedup = if hit_ms > 0.0 { base_ms / hit_ms } else { 0.0 };
        layers_out.extend(
            [
                ("engine.hits", s.cache_hits as f64),
                ("engine.misses", s.cache_misses as f64),
                ("engine.evictions", s.evictions as f64),
                ("engine.passes_executed", s.passes_executed as f64),
                ("engine.hit_rate", s.cache_hits as f64 / lookups as f64),
                ("engine.executions", round0.executions),
                ("engine.distinct_netlists", round0.netlists.len() as f64),
                (
                    "engine.executions_per_netlist",
                    round0.executions / netlists as f64,
                ),
                ("engine.hit_speedup.uncached_ms", base_ms),
                ("engine.hit_speedup.hit_ms", hit_ms),
                ("engine.hit_speedup", speedup),
            ]
            .map(|(k, v)| (k.to_owned(), v)),
        );
        round0.facts.metrics(&mut layers_out);
        let overhead = crate::overhead_frac(round0.in_window, table.root_wall_ms);
        layers_out.insert("trace.overhead_frac".to_owned(), overhead);
        summary = table.summary(plan.name, overhead);
        rec.write_jsonl(&crate::trace_path(plan.name, args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
        let roots = spans.iter().filter(|s| s.name == REQUEST).count();
        details.push(("traced_requests".to_owned(), roots.to_string()));
    }

    Ok(Outcome {
        e2e,
        layers: layers_out,
        attempted,
        failed,
        failures,
        summary,
        details,
    })
}
