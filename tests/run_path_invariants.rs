//! Run-path invariants: every `Ok` result a public run path returns
//! satisfies the pipeline's own §III/§IV bound — unit-span edges,
//! aligned outputs and fan-out ≤ k — as checked by [`verify_balance`]
//! at the pipeline's fan-out limit. Each path runs cold and then warm
//! (a cache hit where the path caches), and both results are checked.

use std::sync::{Arc, Mutex};

use tech::Technology;
use wavepipe::{
    verify_balance, BufferStrategy, CostTable, Engine, EquivalencePolicy, FlowConfig, FlowSpec,
    PassSpec, PipelineRun, PipelineSpec, SynthSpec,
};
use wavepipe_serve::{Client, Event, Request, ServeConfig, Server};

fn circuits() -> Vec<SynthSpec> {
    vec![
        SynthSpec::new("dag", 0xEC0)
            .param("nodes", 600)
            .param("depth", 12)
            .param("outputs", 16),
        SynthSpec::new("adder", 3).param("width", 8),
        SynthSpec::new("shared", 5),
        SynthSpec::new("compose", 7),
    ]
}

fn graphs() -> Vec<mig::Mig> {
    circuits()
        .iter()
        .map(|c| benchsuite::build_mig(&c.name()).expect("registry generates"))
        .collect()
}

fn tables() -> Vec<CostTable> {
    Technology::all()
        .iter()
        .map(Technology::cost_table)
        .collect()
}

/// The paper's default flow, a retimed k = 4 flow and a gated
/// rewrite-prefixed flow.
fn pipelines() -> Vec<PipelineSpec> {
    vec![
        PipelineSpec::for_config(FlowConfig::default()),
        PipelineSpec::map(false)
            .restrict_fanout(4)
            .insert_buffers(BufferStrategy::Retimed)
            .verify(Some(4)),
        PipelineSpec::map(false)
            .optimize_depth(4)
            .optimize_size(4)
            .restrict_fanout(3)
            .insert_buffers(BufferStrategy::Asap)
            .verify(Some(3))
            .gate_equivalence(EquivalencePolicy::sampled(2, 11)),
    ]
}

/// The fan-out limit the pipeline restricts to.
fn limit(pipeline: &PipelineSpec) -> u32 {
    pipeline
        .passes
        .iter()
        .find_map(|pass| match pass {
            PassSpec::RestrictFanout { limit } => Some(*limit),
            _ => None,
        })
        .expect("every pipeline under test restricts fan-out")
}

fn engine() -> Engine {
    Engine::new().with_resolver(benchsuite::build_mig)
}

fn spec(pipeline: &PipelineSpec) -> FlowSpec {
    let mut spec = FlowSpec::new("invariants").with_pipeline(pipeline.clone());
    for table in tables() {
        spec = spec.technology(table);
    }
    for circuit in circuits() {
        spec = spec.synthetic_circuit(circuit);
    }
    spec
}

#[track_caller]
fn check(path: &str, run: &PipelineRun, limit: u32) {
    if let Err(e) = verify_balance(&run.result.pipelined, Some(limit)) {
        panic!(
            "{path}: Ok result on `{}` breaks its own bound (k = {limit}): {e:?}",
            run.result.pipelined.name()
        );
    }
}

#[test]
fn run_with_model_results_satisfy_the_bound() {
    let models = tables();
    for pipeline in pipelines() {
        let built = pipeline.build().expect("well-ordered");
        for g in graphs() {
            for model in std::iter::once(None).chain(models.iter().map(Some)) {
                for _ in 0..2 {
                    let run = built.run_with_model(&g, model).expect("cell verifies");
                    check("FlowPipeline::run_with_model", &run, limit(&pipeline));
                }
            }
        }
    }
}

#[test]
fn engine_run_and_streaming_cells_satisfy_the_bound_cold_and_warm() {
    for pipeline in pipelines() {
        let engine = engine();
        let spec = spec(&pipeline);
        for pass in ["cold", "warm"] {
            let run = engine.run(&spec).expect("spec runs");
            for cell in &run {
                assert_eq!(cell.cached, pass == "warm", "{pass} run");
                let result = cell.run().expect("cell verifies");
                check(&format!("Engine::run ({pass})"), result, limit(&pipeline));
            }
        }

        let streamed = Mutex::new(Vec::new());
        let fresh = self::engine();
        for _ in 0..2 {
            fresh
                .run_streaming(&spec, |cell| {
                    if let Ok(run) = &cell.outcome {
                        streamed.lock().unwrap().push((cell.cached, run.clone()));
                    }
                })
                .expect("spec runs");
        }
        let streamed = streamed.into_inner().unwrap();
        assert_eq!(
            streamed.len(),
            2 * spec.circuits.len() * spec.technologies.len()
        );
        assert!(streamed.iter().any(|(cached, _)| *cached));
        for (cached, run) in &streamed {
            check(
                &format!("Engine::run_streaming (cached {cached})"),
                run,
                limit(&pipeline),
            );
        }
    }
}

#[test]
fn engine_grid_cells_satisfy_the_bound_cold_and_warm() {
    let graphs = graphs();
    let refs: Vec<&mig::Mig> = graphs.iter().collect();
    let models = tables();
    for pipeline in pipelines() {
        let engine = engine();
        for pass in ["cold", "warm"] {
            let cells = engine
                .run_pipeline_grid(&pipeline, &refs, &models)
                .expect("pipeline validates");
            for cell in &cells {
                assert_eq!(cell.cached, pass == "warm", "{pass} grid");
                let run = cell.run().expect("cell verifies");
                check(
                    &format!("Engine::run_pipeline_grid ({pass})"),
                    run,
                    limit(&pipeline),
                );
            }
        }
    }
}

#[test]
fn served_cells_satisfy_the_bound_cold_and_warm() {
    let shared = Arc::new(engine());
    let config = ServeConfig {
        workers: 2,
        queue_depth: 16,
        client_queue: 64,
        shed_slow_clients: false,
    };
    let server = Server::start(shared.clone(), "127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pipeline = PipelineSpec::for_config(FlowConfig::default());
    let spec = spec(&pipeline);
    let k = limit(&pipeline);
    for id in 0..2 {
        client
            .send(&Request::Run {
                id,
                spec: spec.clone(),
            })
            .expect("send");
        let (cells, done) = client.collect_run(id).expect("terminal event");
        assert!(matches!(done, Event::Done { failed: 0, .. }), "{done:?}");
        assert_eq!(cells.len(), spec.circuits.len() * spec.technologies.len());
        for cell in &cells {
            let Event::Cell {
                ok: true,
                max_fanout: Some(fanout),
                ..
            } = cell
            else {
                panic!("expected a verified cell, got {cell:?}");
            };
            assert!(
                *fanout <= u64::from(k),
                "served cell reports fan-out {fanout}"
            );
        }
    }
    server.shutdown();

    // The served results live in the shared engine's cache: a warm run
    // returns exactly the netlists the daemon computed.
    let warm = shared.run(&spec).expect("cache re-serve");
    assert!(warm.iter().all(|cell| cell.cached));
    for cell in &warm {
        check("served cell", cell.run().expect("cell verifies"), k);
    }
}
