//! Wire-format goldens: the exact JSON (and content hashes) of every
//! spec, diagnostic, lint-report, event and request shape the system
//! exchanges. Any change to how these types serialize — hand-written or
//! derived — must leave every string and hash below untouched.
//!
//! Spec, diagnostic and report JSON is pinned byte for byte (it feeds
//! the engine's cache key and the checked-in goldens). Protocol lines
//! are pinned as key→value maps: member order carries no meaning on the
//! wire, so each line is compared after sorting object keys.

use serde::Value;
use tech::Technology;
use wavepipe::lint::{Category, Diagnostic, LintReport, Severity, SubjectReport};
use wavepipe::{
    BufferStrategy, CacheSpec, DelayWeights, EngineStats, EquivalencePolicy, FlowSpec,
    PipelineSpec, SynthSpec,
};
use wavepipe_serve::{Control, Event, Request, ServeConfig, ServeMetrics};

fn tiny_mig() -> mig::Mig {
    let mut g = mig::Mig::new();
    let a = g.add_input("a");
    let b = g.add_input("b");
    let c = g.add_input("c");
    let m = g.add_maj(a, !b, c);
    g.add_output("m", m);
    g
}

/// Every pass and buffer strategy, all three circuit kinds, the
/// equivalence gate on and no cache block.
fn every_pass_gated() -> FlowSpec {
    FlowSpec::new("every-pass")
        .with_pipeline(
            PipelineSpec::map(true)
                .optimize_depth(16)
                .optimize_size(8)
                .optimize_cost_aware(4)
                .restrict_fanout(3)
                .restrict_fanout_cost_aware()
                .insert_buffers(BufferStrategy::Asap)
                .insert_buffers(BufferStrategy::Retimed)
                .insert_buffers(BufferStrategy::CostAware)
                .insert_buffers(BufferStrategy::Weighted(DelayWeights::QCA))
                .verify(Some(3))
                .verify(None)
                .verify_weighted(DelayWeights::NML)
                .verify_cost_aware(Some(3))
                .verify_cost_aware(None)
                .check_fanout_bound(4)
                .gate_equivalence(EquivalencePolicy {
                    exhaustive_inputs: 12,
                    rounds: 16,
                    seed: 99,
                }),
        )
        .technology(Technology::qca().cost_table())
        .circuit("SASC")
        .inline_circuit("tiny", &tiny_mig())
        .synthetic_circuit(
            SynthSpec::new("dag", 7)
                .param("nodes", 500)
                .param("depth", 12),
        )
}

/// The paper's default pipeline, ungated, with a sized cache block.
fn default_cached() -> FlowSpec {
    FlowSpec::new("default-cached")
        .circuit("HAMMING")
        .with_cache(CacheSpec { capacity: Some(64) })
}

/// An empty cache block and a parameterless synthetic circuit.
fn empty_cache_block() -> FlowSpec {
    FlowSpec::new("empty-cache")
        .with_pipeline(PipelineSpec::map(false).restrict_fanout(2))
        .synthetic_circuit(SynthSpec::new("adder", 3))
        .with_cache(CacheSpec { capacity: None })
}

#[test]
fn spec_json_and_content_hashes_are_pinned() {
    let cases: [(FlowSpec, &str, u64, u64); 3] = [
        (
            every_pass_gated(),
            EVERY_PASS_GATED,
            0x62d341d970d7c4b5,
            0xb9394db0d3aa2ead,
        ),
        (
            default_cached(),
            DEFAULT_CACHED,
            0x2a937c8de521b1d,
            0xe3ad33e482c1d154,
        ),
        (
            empty_cache_block(),
            EMPTY_CACHE_BLOCK,
            0xeb9c7b6267a1a697,
            0x889d66f636230a9f,
        ),
    ];
    for (spec, json, hash, pipeline_hash) in cases {
        let compact = serde_json::to_string(&spec).unwrap();
        assert_eq!(compact, json, "{}", spec.name);
        assert_eq!(spec.content_hash(), hash, "{}", spec.name);
        assert_eq!(spec.pipeline.content_hash(), pipeline_hash, "{}", spec.name);
        assert_eq!(FlowSpec::from_json(&compact).unwrap(), spec);
        assert_eq!(FlowSpec::from_json(&spec.to_json()).unwrap(), spec);
    }
}

const EVERY_PASS_GATED: &str = r#"{"name":"every-pass","pipeline":{"minimize_inverters":true,"passes":[{"pass":"optimize_depth","max_rounds":16},{"pass":"optimize_size","max_rounds":8},{"pass":"optimize_cost_aware","max_rounds":4},{"pass":"restrict_fanout","limit":3},{"pass":"restrict_fanout_cost_aware"},{"pass":"insert_buffers","strategy":"asap"},{"pass":"insert_buffers","strategy":"retimed"},{"pass":"insert_buffers","strategy":"cost_aware"},{"pass":"insert_buffers","strategy":{"weighted":{"inv":7,"maj":2,"buf":1,"fog":2}}},{"pass":"verify","fanout_limit":3},{"pass":"verify","fanout_limit":null},{"pass":"verify_weighted","weights":{"inv":1,"maj":2,"buf":2,"fog":2}},{"pass":"verify_cost_aware","fanout_limit":3},{"pass":"verify_cost_aware","fanout_limit":null},{"pass":"check_fanout_bound","limit":4}],"equivalence_gate":{"exhaustive_inputs":12,"rounds":16,"seed":99}},"technologies":[{"name":"QCA","area":[0.0012000000000000001,0.004,0.0004,0.0012000000000000001],"delay":[0.0024,0.0084,0.0012,0.0024],"energy":[0.00000294,0.0000098,0.00000098,0.00000294],"phase_delay":0.004,"output_sense_energy":0}],"circuits":["SASC",{"name":"tiny","mig":".model top\n.inputs a b c\n.outputs m\ng4 = MAJ(a, !b, c)\nm = g4\n"},{"synth":{"family":"dag","seed":7,"params":{"depth":12,"nodes":500}}}]}"#;
const DEFAULT_CACHED: &str = r#"{"name":"default-cached","pipeline":{"minimize_inverters":false,"passes":[{"pass":"restrict_fanout","limit":3},{"pass":"insert_buffers","strategy":"asap"},{"pass":"verify","fanout_limit":3}]},"technologies":[],"circuits":["HAMMING"],"cache":{"capacity":64}}"#;
const EMPTY_CACHE_BLOCK: &str = r#"{"name":"empty-cache","pipeline":{"minimize_inverters":false,"passes":[{"pass":"restrict_fanout","limit":2}]},"technologies":[],"circuits":[{"synth":{"family":"adder","seed":3,"params":{}}}],"cache":{}}"#;

fn diagnostic(provenance: Option<&str>) -> Diagnostic {
    Diagnostic {
        code: "WP003".to_owned(),
        severity: Severity::Error,
        category: Category::Netlist,
        message: "fan-out 5 exceeds the limit 3".to_owned(),
        subject: "adder".to_owned(),
        provenance: provenance.map(str::to_owned),
    }
}

#[test]
fn diagnostic_and_lint_report_json_is_pinned() {
    let with = serde_json::to_string(&diagnostic(Some("c42"))).unwrap();
    let without = serde_json::to_string(&diagnostic(None)).unwrap();
    assert_eq!(
        with,
        r#"{"code":"WP003","severity":"error","category":"netlist","message":"fan-out 5 exceeds the limit 3","subject":"adder","provenance":"c42"}"#
    );
    assert_eq!(
        without,
        r#"{"code":"WP003","severity":"error","category":"netlist","message":"fan-out 5 exceeds the limit 3","subject":"adder"}"#
    );

    let warning = Diagnostic {
        code: "MIG003".to_owned(),
        severity: Severity::Warning,
        category: Category::Graph,
        message: "dead node".to_owned(),
        subject: "synth:dag:1".to_owned(),
        provenance: None,
    };
    let info = Diagnostic {
        code: "SPEC001".to_owned(),
        severity: Severity::Info,
        category: Category::Spec,
        message: "no technology".to_owned(),
        subject: "spec".to_owned(),
        provenance: Some("passes[2]".to_owned()),
    };
    let limited = LintReport::new(
        Some(3),
        vec![
            SubjectReport {
                subject: "adder".to_owned(),
                diagnostics: vec![diagnostic(Some("c42")), warning],
            },
            SubjectReport {
                subject: "clean".to_owned(),
                diagnostics: Vec::new(),
            },
        ],
    );
    let unlimited = LintReport::new(
        None,
        vec![SubjectReport {
            subject: "spec".to_owned(),
            diagnostics: vec![info],
        }],
    );
    let limited = serde_json::to_string(&limited).unwrap();
    let unlimited = serde_json::to_string(&unlimited).unwrap();
    assert_eq!(
        limited,
        r#"{"schema_version":1,"fanout_limit":3,"subjects":[{"subject":"adder","diagnostics":[{"code":"WP003","severity":"error","category":"netlist","message":"fan-out 5 exceeds the limit 3","subject":"adder","provenance":"c42"},{"code":"MIG003","severity":"warning","category":"graph","message":"dead node","subject":"synth:dag:1"}]},{"subject":"clean","diagnostics":[]}],"totals":{"errors":1,"warnings":1,"infos":0}}"#
    );
    assert_eq!(
        unlimited,
        r#"{"schema_version":1,"subjects":[{"subject":"spec","diagnostics":[{"code":"SPEC001","severity":"info","category":"spec","message":"no technology","subject":"spec","provenance":"passes[2]"}]}],"totals":{"errors":0,"warnings":0,"infos":1}}"#
    );
}

/// One line as a key-sorted compact JSON string, so two lines that
/// differ only in member order compare equal.
fn canonical(line: &str) -> String {
    fn sort(value: Value) -> Value {
        match value {
            Value::Object(mut entries) => {
                entries.sort_by(|(a, _), (b, _)| a.cmp(b));
                Value::Object(entries.into_iter().map(|(k, v)| (k, sort(v))).collect())
            }
            Value::Array(items) => Value::Array(items.into_iter().map(sort).collect()),
            other => other,
        }
    }
    let value: Value = serde_json::from_str(line).expect("line is JSON");
    serde_json::to_string(&sort(value)).unwrap()
}

fn events() -> Vec<Event> {
    vec![
        Event::Cell {
            id: 1,
            circuit: 2,
            technology: Some(0),
            cached: true,
            ok: true,
            depth: Some(24),
            waves_in_flight: Some(8),
            max_fanout: Some(3),
            components: Some(512),
            passes: 4,
            error: None,
        },
        Event::Cell {
            id: 1,
            circuit: 0,
            technology: None,
            cached: false,
            ok: false,
            depth: None,
            waves_in_flight: None,
            max_fanout: None,
            components: None,
            passes: 0,
            error: Some("pass `verify` failed".to_owned()),
        },
        Event::Done {
            id: 1,
            cells: 2,
            failed: 1,
            coalesced: true,
            circuits: vec!["SASC".to_owned(), "tiny".to_owned()],
            technologies: vec!["QCA".to_owned()],
            stats: EngineStats {
                cache_hits: 5,
                cache_misses: 2,
                passes_executed: 8,
                evictions: 1,
            },
        },
        Event::Error {
            id: 9,
            message: "unknown circuit `NOPE`".to_owned(),
        },
        Event::Pong { id: 4 },
        Event::Stats {
            id: 5,
            config: ServeConfig {
                workers: 4,
                queue_depth: 256,
                client_queue: 1024,
                shed_slow_clients: true,
            },
            metrics: ServeMetrics {
                requests: 10,
                completed: 9,
                failed: 1,
                rejected: 2,
                coalesced: 3,
                executed: 6,
                cells_streamed: 40,
                cells_shed: 7,
                clients: 3,
                engine: EngineStats {
                    cache_hits: 11,
                    cache_misses: 12,
                    passes_executed: 13,
                    evictions: 14,
                },
            },
        },
        Event::ShuttingDown { id: 6 },
    ]
}

const EVENT_LINES: [&str; 7] = [
    r#"{"cached":true,"circuit":2,"components":512,"depth":24,"error":null,"event":"cell","id":1,"max_fanout":3,"ok":true,"passes":4,"technology":0,"waves_in_flight":8}"#,
    r#"{"cached":false,"circuit":0,"components":null,"depth":null,"error":"pass `verify` failed","event":"cell","id":1,"max_fanout":null,"ok":false,"passes":0,"technology":null,"waves_in_flight":null}"#,
    r#"{"cells":2,"circuits":["SASC","tiny"],"coalesced":true,"event":"done","failed":1,"id":1,"stats":{"cache_hits":5,"cache_misses":2,"evictions":1,"passes_executed":8},"technologies":["QCA"]}"#,
    r#"{"event":"error","id":9,"message":"unknown circuit `NOPE`"}"#,
    r#"{"event":"pong","id":4}"#,
    r#"{"config":{"client_queue":1024,"queue_depth":256,"shed_slow_clients":true,"workers":4},"event":"stats","id":5,"metrics":{"cells_shed":7,"cells_streamed":40,"clients":3,"coalesced":3,"completed":9,"engine":{"cache_hits":11,"cache_misses":12,"evictions":14,"passes_executed":13},"executed":6,"failed":1,"rejected":2,"requests":10}}"#,
    r#"{"event":"shutting_down","id":6}"#,
];

#[test]
fn event_lines_are_pinned_as_key_value_maps() {
    for (event, expected) in events().into_iter().zip(EVENT_LINES) {
        let line = event.to_line();
        assert_eq!(canonical(&line), expected);
        let back = Event::parse(&line).unwrap();
        assert_eq!(canonical(&back.to_line()), expected);
    }
}

fn requests() -> Vec<Request> {
    let spec = FlowSpec::new("wire")
        .with_pipeline(PipelineSpec::map(false).restrict_fanout(3))
        .inline_circuit("tiny", &tiny_mig());
    vec![
        Request::Run { id: 7, spec },
        Request::Control {
            id: 1,
            control: Control::Ping,
        },
        Request::Control {
            id: 2,
            control: Control::Stats,
        },
        Request::Control {
            id: 3,
            control: Control::Shutdown,
        },
    ]
}

const REQUEST_LINES: [&str; 4] = [
    r#"{"id":7,"spec":{"circuits":[{"mig":".model top\n.inputs a b c\n.outputs m\ng4 = MAJ(a, !b, c)\nm = g4\n","name":"tiny"}],"name":"wire","pipeline":{"minimize_inverters":false,"passes":[{"limit":3,"pass":"restrict_fanout"}]},"technologies":[]}}"#,
    r#"{"control":"ping","id":1}"#,
    r#"{"control":"stats","id":2}"#,
    r#"{"control":"shutdown","id":3}"#,
];

#[test]
fn request_lines_are_pinned_as_key_value_maps() {
    for (request, expected) in requests().into_iter().zip(REQUEST_LINES) {
        let line = request.to_line();
        assert_eq!(canonical(&line), expected);
        let back = Request::parse(&line).unwrap();
        assert_eq!(canonical(&back.to_line()), expected);
    }
}
