//! `serve_mix`: an in-process `wavepipe_serve::Server` on loopback,
//! driven open-loop over `nproc` connections at one fixed rate.
//!
//! The seeded schedule mixes repeated hot `synth:` specs (cache reads,
//! working set below the LRU capacity), fresh `synth:` specs (misses,
//! stores, evictions), inline-MIG specs (~10⁴ gates of client-supplied
//! text per line) and short bursts of identical fresh specs sent at once
//! (coalescing). Each request is timed from when it was due.
//!
//! The server does not set `TCP_NODELAY`, so a response line held back
//! by Nagle's algorithm leaves only when the client's next send (or its
//! delayed ACK) acknowledges the previous one. Until that changes, the
//! latency metrics of this workload mostly measure that wait, set by the
//! per-connection send cadence, rather than the server's own work.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mig::Mig;
use wavepipe::{CircuitSpec, CostTable, Engine, FlowSpec, PipelineRun, SynthSpec};
use wavepipe_serve::{Client, Control, Event, Request, ServeConfig, Server};

use crate::inproc::technologies;
use crate::layers::{self, At, Facts};
use crate::metrics::{aggregate, CoverageRoot, REQUEST};
use crate::stats::{geomean, mean, median, mix, ms, nproc, peak_rss_mb, percentile};
use crate::trace::Recorder;
use crate::{Args, Outcome};

/// Scheduled request slots per second (a burst slot sends four
/// requests), about a quarter of what two workers sustain on a 2-core
/// host. Each connection then sends every 33 ms, below the 40 ms
/// delayed-ACK timer and above every request's service time, so a
/// response held back by Nagle's algorithm is released by the client's
/// next send: the latency metrics sit near this cadence until the server
/// sets `TCP_NODELAY`. (Seeded Poisson arrivals at the same mean rate
/// sample that wait more like a real client would, but on a 2-core host
/// the median then moved by a third between runs of one seed.)
pub const RATE_PER_S: f64 = 60.0;
/// Latency limit of `slo_miss_frac`, in ms.
pub const SLO_MS: f64 = 5.0;
/// Engine LRU capacity, in cells.
pub const CACHE_CAPACITY: usize = 48;
const HOT_SPECS: u64 = 8;
const INLINE_POOL: u64 = 4;
const BURST: usize = 4;
/// Gates of every served circuit.
const GATES: u64 = 10_000;

/// What a request asks for; specs are materialized when sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Key {
    Hot(u64),
    Fresh(u64),
    Inline(u64),
    Burst(u64),
}

struct Inputs {
    seed: u64,
    techs: Vec<CostTable>,
    inline: Vec<(String, String)>,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let inline = (0..INLINE_POOL)
            .map(|i| {
                let name = SynthSpec::new("dag", mix(seed, 3, i) >> 32)
                    .param("nodes", GATES)
                    .name();
                let g = benchsuite::build_mig(&name).ok_or("inline circuit")?;
                Ok((format!("inline-{i}"), mig::write_mig(&g)))
            })
            .collect::<Result<_, String>>()?;
        Ok(Inputs {
            seed,
            techs: technologies(),
            inline,
        })
    }

    fn spec(&self, key: Key) -> FlowSpec {
        let (stream, index) = match key {
            Key::Hot(i) => (0, i),
            Key::Fresh(i) => (1, i),
            Key::Inline(i) => (3, i),
            Key::Burst(i) => (2, i),
        };
        let tech = self.techs[(index % self.techs.len() as u64) as usize].clone();
        let mut spec = match key {
            Key::Inline(i) => {
                let (name, text) = &self.inline[i as usize];
                let mut spec = FlowSpec::new(format!("serve_mix-inline-{i}"));
                spec.circuits.push(CircuitSpec::Inline {
                    name: name.clone(),
                    mig: text.clone(),
                });
                spec
            }
            _ => FlowSpec::new(format!("serve_mix-{stream}-{index}")).synthetic_circuit(
                SynthSpec::new("dag", mix(self.seed, stream, index) >> 32).param("nodes", GATES),
            ),
        };
        spec.technologies = vec![tech];
        spec
    }

    /// The source MIG of a spec's circuit (untimed).
    fn source(&self, spec: &FlowSpec) -> Result<Mig, String> {
        match &spec.circuits[0] {
            CircuitSpec::Inline { mig, .. } => mig::parse_mig(mig).map_err(|e| e.to_string()),
            other => benchsuite::build_mig(&other.name()).ok_or("unknown circuit".to_owned()),
        }
    }
}

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
struct Slot {
    rid: u64,
    conn: usize,
    due: Duration,
    key: Key,
}

/// The open-loop schedule: slot `i` is due at `i / RATE_PER_S`.
fn schedule(seed: u64, seconds: f64, conns: usize) -> Vec<Slot> {
    let slots = (seconds * RATE_PER_S).ceil() as u64;
    let (mut fresh, mut bursts) = (0u64, 0u64);
    let mut out = Vec::new();
    for i in 0..slots {
        let due = Duration::from_secs_f64(i as f64 / RATE_PER_S);
        let roll = mix(seed, 10, i) % 100;
        let mut push = |key: Key, conn: usize| {
            let rid = out.len() as u64 + 1;
            out.push(Slot {
                rid,
                conn,
                due,
                key,
            });
        };
        let conn = i as usize % conns;
        match roll {
            0..=49 => push(Key::Hot(mix(seed, 11, i) % HOT_SPECS), conn),
            50..=69 => {
                push(Key::Fresh(fresh), conn);
                fresh += 1;
            }
            70..=84 => push(Key::Inline(mix(seed, 12, i) % INLINE_POOL), conn),
            _ => {
                // All on the slot's own connection, so each connection
                // keeps a regular send cadence.
                for _ in 0..BURST {
                    push(Key::Burst(bursts), conn);
                }
                bursts += 1;
            }
        }
    }
    out
}

/// Client-side timestamps of one request.
#[derive(Clone, Copy, Debug, Default)]
struct Sent {
    send_start: Option<Instant>,
    encoded: Option<Instant>,
}

/// The fields a served cell must share with the checked in-process
/// run: components, depth, largest fan-out, waves in flight.
type Reference = (u64, Option<u64>, Option<u64>, Option<u64>);

/// What came back for one request.
#[derive(Clone, Debug, Default)]
struct Reply {
    first_cell: Option<Instant>,
    done: Option<Instant>,
    /// Each streamed cell's checked fields; `None` for a failed cell.
    cells: Vec<Option<Reference>>,
    done_cells: u64,
    done_failed: u64,
    coalesced: bool,
    hits: u64,
    misses: u64,
    passes: u64,
    error: Option<String>,
}

fn sender(
    mut stream: TcpStream,
    inputs: &Inputs,
    slots: &[Slot],
    epoch: Instant,
) -> Result<Vec<(u64, Sent)>, String> {
    let mut sent = Vec::with_capacity(slots.len());
    for slot in slots {
        let due = epoch + slot.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let spec = inputs.spec(slot.key);
        let send_start = Instant::now();
        let mut line = Request::Run { id: slot.rid, spec }.to_line();
        let encoded = Instant::now();
        line.push('\n');
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| format!("send: {e}"))?;
        sent.push((
            slot.rid,
            Sent {
                send_start: Some(send_start),
                encoded: Some(encoded),
            },
        ));
    }
    Ok(sent)
}

fn receiver(stream: TcpStream, expected: usize) -> Result<HashMap<u64, Reply>, String> {
    let mut reader = BufReader::new(stream);
    let mut replies: HashMap<u64, Reply> = HashMap::new();
    let mut terminal = 0;
    let mut line = String::new();
    while terminal < expected {
        line.clear();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?
            == 0
        {
            return Err(format!("server closed after {terminal}/{expected} replies"));
        }
        let now = Instant::now();
        let event = Event::parse(line.trim_end()).map_err(|e| format!("bad event: {}", e.0))?;
        let reply = replies.entry(event.id()).or_default();
        match event {
            Event::Cell {
                ok,
                components,
                depth,
                max_fanout,
                waves_in_flight,
                ..
            } => {
                reply.first_cell.get_or_insert(now);
                reply.cells.push(ok.then_some((
                    components.unwrap_or(0),
                    depth,
                    max_fanout,
                    waves_in_flight,
                )));
            }
            Event::Done {
                cells,
                failed,
                coalesced,
                stats,
                ..
            } => {
                reply.done = Some(now);
                reply.done_cells = cells;
                reply.done_failed = failed;
                reply.coalesced = coalesced;
                reply.hits = stats.cache_hits;
                reply.misses = stats.cache_misses;
                reply.passes = stats.passes_executed;
                terminal += 1;
            }
            Event::Error { message, .. } => {
                reply.done = Some(now);
                reply.error = Some(message);
                terminal += 1;
            }
            _ => {}
        }
    }
    Ok(replies)
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: nproc(),
        queue_depth: 256,
        client_queue: 1024,
        shed_slow_clients: true,
    }
}

/// Starts the daemon over a fresh engine whose cache already holds the
/// hot set, and checks it answers a protocol client.
fn setup(inputs: &Inputs) -> Result<Server, String> {
    let engine = Arc::new(
        Engine::new()
            .with_resolver(benchsuite::build_mig)
            .with_cache_capacity(CACHE_CAPACITY),
    );
    for i in 0..HOT_SPECS {
        let run = engine
            .run(&inputs.spec(Key::Hot(i)))
            .map_err(|e| e.to_string())?;
        if run.cells.iter().any(|c| c.outcome.is_err()) {
            return Err("hot-set warm-up failed".to_owned());
        }
    }
    let server = Server::start(engine, "127.0.0.1:0", config()).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    client
        .send(&Request::Control {
            id: 0,
            control: Control::Ping,
        })
        .map_err(|e| e.to_string())?;
    match client.read_event().map_err(|e| e.to_string())? {
        Event::Pong { .. } => Ok(server),
        other => Err(format!("daemon answered a ping with {other:?}")),
    }
}

/// Sets the workload up (inputs, warmed engine, daemon), calls
/// `ready`, and shuts the daemon down.
pub fn setup_only(seed: u64, ready: impl FnOnce()) -> Result<(), String> {
    let inputs = Inputs::new(seed)?;
    let server = setup(&inputs)?;
    ready();
    server.shutdown();
    Ok(())
}

/// What `trace.coverage` measures on `serve_mix`: the server-side layer
/// calls against each request's send-to-first-`Cell` interval.
const COVERAGE: CoverageRoot = CoverageRoot {
    span: "serve.first_cell",
    remainder: "server work outside every replayed call and time on the wire: loopback \
                transfer, queueing for a worker, coalescing, event encoding and writing, \
                and the wait for a response held back by Nagle's algorithm (the server \
                does not set TCP_NODELAY)",
};

pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let inputs = Inputs::new(args.seed)?;
    let server = setup(&inputs)?;
    let conns = nproc();
    let slots = schedule(args.seed, args.seconds, conns);
    let metrics_before = server.metrics();

    // Timed phase: one sender and one receiver thread per connection.
    let epoch = Instant::now() + Duration::from_millis(20);
    let mut sent: HashMap<u64, Sent> = HashMap::new();
    let mut replies: HashMap<u64, Reply> = HashMap::new();
    let outcome: Result<(), String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..conns {
            let mine: Vec<Slot> = slots.iter().copied().filter(|s| s.conn == c).collect();
            let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            let read_half = stream.try_clone().map_err(|e| e.to_string())?;
            let expected = mine.len();
            let inputs = &inputs;
            let tx = scope.spawn(move || sender(stream, inputs, &mine, epoch));
            let rx = scope.spawn(move || receiver(read_half, expected));
            handles.push((tx, rx));
        }
        for (tx, rx) in handles {
            sent.extend(tx.join().map_err(|_| "sender panicked")??);
            replies.extend(rx.join().map_err(|_| "receiver panicked")??);
        }
        Ok(())
    });
    outcome?;
    let timed_end = Instant::now();
    let peak_rss = peak_rss_mb();
    let metrics_after = server.metrics();
    server.shutdown();

    // Output check, outside the timed phase: every served cell must
    // equal the checked in-process result of the same spec.
    let reference_engine = Engine::uncached().with_resolver(benchsuite::build_mig);
    // Per spec: the checked fields, its size ratio and depth, and the
    // checked run (which the traced replay compares against).
    type Checked = Result<(Reference, f64, f64, Arc<PipelineRun>), String>;
    let mut references: HashMap<Key, Checked> = HashMap::new();
    let mut facts = Facts::default();
    let mut reference = |key: Key, facts: &mut Facts| -> Checked {
        if let Some(r) = references.get(&key) {
            return r.clone();
        }
        let spec = inputs.spec(key);
        let result = (|| {
            let source = inputs.source(&spec)?;
            let run = reference_engine.run(&spec).map_err(|e| e.to_string())?;
            let cell = run.cells.first().ok_or("no cell")?;
            let pr = cell.outcome.clone().map_err(|e| e.to_string())?;
            let limit = layers::fanout_limit(&spec.pipeline);
            layers::check_cell(&pr, &source, limit, None, facts)?;
            let counts = pr.result.pipelined.counts();
            let components =
                counts.inputs + counts.consts + counts.maj + counts.inv + counts.buf + counts.fog;
            let report = pr.result.report;
            let fields = (
                components as u64,
                report.map(|r| u64::from(r.depth)),
                report.map(|r| u64::from(r.max_fanout)),
                report.map(|r| u64::from(r.waves_in_flight)),
            );
            let depth = report.map_or(0.0, |r| f64::from(r.depth));
            Ok((fields, pr.result.size_ratio(), depth, pr.clone()))
        })();
        references.insert(key, result.clone());
        result
    };
    // QoR over the hot set and the inline pool: fixed by the seed.
    let (mut size_ratios, mut depths) = (Vec::new(), Vec::new());
    for key in (0..HOT_SPECS)
        .map(Key::Hot)
        .chain((0..INLINE_POOL).map(Key::Inline))
    {
        let (_, ratio, depth, _) = reference(key, &mut facts)?;
        size_ratios.push(ratio);
        depths.push(depth);
    }

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let (mut lat, mut hit_lat) = (Vec::new(), Vec::new());
    let mut slo_misses = 0usize;
    let mut cell_gates = 0u64;
    let mut executed_keys = HashSet::new();
    let mut passes_executed = 0u64;
    for slot in &slots {
        let reply = replies.get(&slot.rid).cloned().unwrap_or_default();
        let due = epoch + slot.due;
        attempted += 1;
        let done = reply.done.unwrap_or(timed_end);
        let latency = ms(done.saturating_duration_since(due));
        lat.push(latency);
        let ok = (|| {
            if let Some(e) = &reply.error {
                return Err(e.clone());
            }
            if reply.done_failed > 0 || reply.cells.len() as u64 != reply.done_cells {
                return Err(format!(
                    "{} of {} cells failed, {} streamed",
                    reply.done_failed,
                    reply.done_cells,
                    reply.cells.len()
                ));
            }
            let (want, ..) = reference(slot.key, &mut facts)?;
            for cell in &reply.cells {
                if *cell != Some(want) {
                    return Err(format!(
                        "served cell differs from the checked result {want:?}"
                    ));
                }
            }
            Ok(())
        })();
        match ok {
            Ok(()) => {
                cell_gates += GATES * reply.done_cells;
                if latency > SLO_MS {
                    slo_misses += 1;
                }
                if reply.hits == reply.done_cells && reply.misses == 0 && !reply.coalesced {
                    hit_lat.push(latency);
                }
                // A coalesced follower reports its leader's execution.
                if reply.passes > 0 && !reply.coalesced {
                    passes_executed += reply.passes;
                    executed_keys.insert(slot.key);
                }
            }
            Err(e) => {
                failed += 1;
                slo_misses += 1;
                failures.push(format!("request {} ({:?}): {e}", slot.rid, slot.key));
            }
        }
    }
    let last_due = epoch + slots.last().map_or(Duration::ZERO, |s| s.due);
    let wall = timed_end
        .saturating_duration_since(epoch)
        .max(last_due - epoch);

    let mut e2e = BTreeMap::new();
    e2e.insert(
        "nodes_per_s".to_owned(),
        cell_gates as f64 / wall.as_secs_f64(),
    );
    e2e.insert("latency_p50_ms".to_owned(), percentile(&lat, 0.5));
    e2e.insert("latency_p90_ms".to_owned(), percentile(&lat, 0.9));
    e2e.insert("hit_latency_p50_ms".to_owned(), percentile(&hit_lat, 0.5));
    e2e.insert(
        "slo_miss_frac".to_owned(),
        slo_misses as f64 / lat.len().max(1) as f64,
    );
    e2e.insert("peak_rss_mb".to_owned(), peak_rss);
    e2e.insert("qor_size_ratio".to_owned(), geomean(&size_ratios));
    e2e.insert("qor_depth".to_owned(), mean(&depths));

    let late: Vec<f64> = slots
        .iter()
        .filter_map(|s| {
            let start = sent.get(&s.rid)?.send_start?;
            Some(ms(start.saturating_duration_since(epoch + s.due)))
        })
        .collect();
    let details = vec![
        ("requests".to_owned(), lat.len().to_string()),
        ("hit_requests".to_owned(), hit_lat.len().to_string()),
        ("rate_per_s".to_owned(), RATE_PER_S.to_string()),
        ("slo_ms".to_owned(), SLO_MS.to_string()),
        ("connections".to_owned(), conns.to_string()),
        ("workers".to_owned(), config().workers.to_string()),
        ("cache_capacity".to_owned(), CACHE_CAPACITY.to_string()),
        ("failed_requests".to_owned(), failed.to_string()),
        (
            "generator_late_p99_ms".to_owned(),
            format!("{:.3}", percentile(&late, 0.99)),
        ),
    ];

    let mut layers_out = BTreeMap::new();
    let mut summary = String::new();
    if args.trace {
        let rec = Recorder::since(started);
        let mut replayed = HashSet::new();
        let replay_budget = Duration::from_secs_f64(args.seconds);
        let replay_started = Instant::now();
        for slot in &slots {
            let (Some(s), Some(reply)) = (sent.get(&slot.rid), replies.get(&slot.rid)) else {
                continue;
            };
            let (Some(send_start), Some(encoded), Some(done)) =
                (s.send_start, s.encoded, reply.done)
            else {
                continue;
            };
            let due = epoch + slot.due;
            let first = reply.first_cell.unwrap_or(done);
            let root = rec.record(REQUEST, None, slot.rid, due, done);
            rec.record(
                "serve.generator_late",
                Some(root),
                slot.rid,
                due,
                send_start,
            );
            rec.record("serve.encode", Some(root), slot.rid, send_start, encoded);
            rec.record("serve.tail_after_cell", Some(root), slot.rid, first, done);
            if replay_started.elapsed() < replay_budget {
                let first_id = rec.record("serve.first_cell", Some(root), slot.rid, encoded, first);
                replayed.insert(first_id);
                let at = At {
                    rec: &rec,
                    parent: first_id,
                    rid: slot.rid,
                };
                let executed = (reply.passes > 0 && !reply.coalesced)
                    .then(|| reference(slot.key, &mut facts))
                    .transpose()?;
                replay_served(at, &inputs, slot.key, executed.map(|r| r.3), &mut facts)?;
            } else {
                rec.record("serve.first_cell", Some(root), slot.rid, encoded, first);
            }
        }
        let spans = rec.spans();
        let table = aggregate(&spans, COVERAGE, Some(&replayed), &HashSet::new());
        table.metrics(&mut layers_out);
        let s = metrics_after.engine.since(&metrics_before.engine);
        let lookups = (s.cache_hits + s.cache_misses).max(1);
        let netlists = executed_keys.len().max(1);
        let passes_per_execution = layers::spec_check(&inputs.spec(Key::Hot(0)))?
            .pass_names()
            .len()
            .max(1);
        let executions = passes_executed as f64 / passes_per_execution as f64;
        // Simplest alternative to a served hit: recompute the hot spec
        // uncached, in process.
        let uncached = Engine::uncached().with_resolver(benchsuite::build_mig);
        let mut base = Vec::new();
        for i in 0..HOT_SPECS {
            let spec = inputs.spec(Key::Hot(i));
            let t0 = Instant::now();
            uncached.run(&spec).map_err(|e| e.to_string())?;
            base.push(ms(t0.elapsed()));
        }
        let (base_ms, hit_ms) = (median(&base), percentile(&hit_lat, 0.5));
        let speedup = if hit_ms > 0.0 { base_ms / hit_ms } else { 0.0 };
        let served = metrics_after.requests - metrics_before.requests;
        let coalesced = metrics_after.coalesced - metrics_before.coalesced;
        layers_out.extend(
            [
                ("engine.hits", s.cache_hits as f64),
                ("engine.misses", s.cache_misses as f64),
                ("engine.evictions", s.evictions as f64),
                ("engine.passes_executed", s.passes_executed as f64),
                ("engine.hit_rate", s.cache_hits as f64 / lookups as f64),
                ("engine.executions", executions),
                ("engine.distinct_netlists", executed_keys.len() as f64),
                (
                    "engine.executions_per_netlist",
                    executions / netlists as f64,
                ),
                ("engine.hit_speedup.uncached_ms", base_ms),
                ("engine.hit_speedup.hit_ms", hit_ms),
                ("engine.hit_speedup", speedup),
                (
                    "serve.executed",
                    (metrics_after.executed - metrics_before.executed) as f64,
                ),
                ("serve.coalesced", coalesced as f64),
                (
                    "serve.coalesce_ratio",
                    coalesced as f64 / served.max(1) as f64,
                ),
                (
                    "serve.cells_shed",
                    (metrics_after.cells_shed - metrics_before.cells_shed) as f64,
                ),
                (
                    "serve.rejected",
                    (metrics_after.rejected - metrics_before.rejected) as f64,
                ),
            ]
            .map(|(k, v)| (k.to_owned(), v)),
        );
        facts.metrics(&mut layers_out);
        // Spans are recorded after the timed phase from timestamps the
        // untraced run takes too: the traced timed phase is the untraced
        // one, so the overhead is zero by construction.
        let overhead = 0.0;
        layers_out.insert("trace.overhead_frac".to_owned(), overhead);
        summary = table.summary("serve_mix", overhead);
        rec.write_jsonl(&crate::trace_path("serve_mix", args.seed))
            .map_err(|e| format!("writing spans: {e}"))?;
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

/// Replays the server-side work of one request under its first-cell
/// span: line parsing, circuit parsing or generation, hashing, the spec
/// check and, for an executed miss, the pipeline's pass functions once
/// (`executed` is the checked in-process run of the same spec).
fn replay_served(
    at: At<'_>,
    inputs: &Inputs,
    key: Key,
    executed: Option<Arc<PipelineRun>>,
    facts: &mut Facts,
) -> Result<(), String> {
    let line = Request::Run {
        id: at.rid,
        spec: inputs.spec(key),
    }
    .to_line();
    let spec = match at.time("serve.parse", || Request::parse(&line)) {
        Ok(Request::Run { spec, .. }) => spec,
        _ => return Err("request line does not parse back".to_owned()),
    };
    at.time("spec.check", || layers::spec_check(&spec))?;
    let source = match &spec.circuits[0] {
        CircuitSpec::Inline { mig, .. } => at
            .time("mig.parse", || mig::parse_mig(mig))
            .map_err(|e| e.to_string())?,
        other => {
            let name = other.name();
            at.time("benchsuite.generate", || benchsuite::build_mig(&name))
                .ok_or("unknown circuit")?
        }
    };
    at.time("mig.content_hash", || {
        std::hint::black_box(source.content_hash())
    });
    if let Some(run) = executed {
        layers::replay_pipeline(
            at,
            facts,
            &spec.pipeline,
            &source,
            spec.technologies.first(),
            &run,
        )?;
    }
    Ok(())
}
