//! Run-path invariants: every `Ok` result a public run path returns
//! satisfies the pipeline's own §III/§IV bound — unit-span edges,
//! aligned outputs and fan-out ≤ k — as checked by [`verify_balance`]
//! at the pipeline's fan-out limit (weighted balance where cost-aware
//! insertion balanced against a multi-phase technology). Each path
//! runs cold and then warm (a cache hit where the path caches), and
//! both results are checked.

use std::sync::{Arc, Mutex};

use tech::Technology;
use wavepipe::{
    verify_balance, verify_weighted_balance, BufferStrategy, CostTable, DelayWeights, Engine,
    EquivalencePolicy, FlowConfig, FlowSpec, PassSpec, PipelineRun, PipelineSpec, SynthSpec,
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

/// The paper's default flow, a retimed k = 4 flow, a gated
/// rewrite-prefixed flow and a cost-aware flow. The engine runs the
/// first three once per circuit and prices each technology from that
/// run; the last runs once per (circuit, technology) cell.
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
        PipelineSpec::map(false)
            .restrict_fanout_cost_aware()
            .insert_buffers(BufferStrategy::CostAware)
            .verify_cost_aware(None),
    ]
}

/// The fan-out limit the pipeline restricts to, when it is fixed (the
/// cost-aware restriction chooses one per cell).
fn fixed_limit(pipeline: &PipelineSpec) -> Option<u32> {
    pipeline.passes.iter().find_map(|pass| match pass {
        PassSpec::RestrictFanout { limit } => Some(*limit),
        _ => None,
    })
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

/// Checks the pipeline's own bound on an `Ok` result: unit balance at
/// its fan-out limit, or — where cost-aware insertion balanced against
/// a multi-phase technology's delays — weighted balance under `model`
/// and fan-out ≤ k.
#[track_caller]
fn check(path: &str, run: &PipelineRun, pipeline: &PipelineSpec, model: Option<&CostTable>) {
    let limit = fixed_limit(pipeline)
        .or(run.result.fanout.as_ref().map(|fanout| fanout.limit))
        .expect("every pipeline under test restricts fan-out");
    let netlist = &run.result.pipelined;
    let verdict = if run.weighted.is_some() {
        let model = model.expect("weighted insertion runs under a model");
        verify_weighted_balance(netlist, &DelayWeights::for_cost_model(model)).and_then(|_| {
            let fanout = netlist.max_fanout();
            (fanout <= limit)
                .then_some(())
                .ok_or(format!("fan-out {fanout}"))
        })
    } else {
        verify_balance(netlist, Some(limit))
            .map(|_| ())
            .map_err(|e| format!("{e:?}"))
    };
    if let Err(e) = verdict {
        panic!(
            "{path}: Ok result on `{}` breaks its own bound (k = {limit}): {e}",
            netlist.name()
        );
    }
}

#[test]
fn run_with_model_results_satisfy_the_bound() {
    let models = tables();
    for pipeline in pipelines() {
        let built = pipeline.build().expect("well-ordered");
        for g in graphs() {
            // A cost-aware pipeline has no cost-blind cell.
            let blind = (!pipeline.uses_cost_aware_passes()).then_some(None);
            for model in blind.into_iter().chain(models.iter().map(Some)) {
                for _ in 0..2 {
                    let run = built.run_with_model(&g, model).expect("cell verifies");
                    check("FlowPipeline::run_with_model", &run, &pipeline, model);
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
                let model = cell.technology.map(|m| &spec.technologies[m]);
                check(&format!("Engine::run ({pass})"), result, &pipeline, model);
            }
        }

        let streamed = Mutex::new(Vec::new());
        let fresh = self::engine();
        for _ in 0..2 {
            fresh
                .run_streaming(&spec, |cell| {
                    if let Ok(run) = &cell.outcome {
                        let entry = (cell.cached, cell.technology, run.clone());
                        streamed.lock().unwrap().push(entry);
                    }
                })
                .expect("spec runs");
        }
        let streamed = streamed.into_inner().unwrap();
        assert_eq!(
            streamed.len(),
            2 * spec.circuits.len() * spec.technologies.len()
        );
        assert!(streamed.iter().any(|(cached, _, _)| *cached));
        for (cached, technology, run) in &streamed {
            check(
                &format!("Engine::run_streaming (cached {cached})"),
                run,
                &pipeline,
                technology.map(|m| &spec.technologies[m]),
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
                    &pipeline,
                    cell.technology.map(|m| &models[m]),
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
    let k = fixed_limit(&pipeline).expect("the default flow has a fixed limit");
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
        let model = cell.technology.map(|m| &spec.technologies[m]);
        check(
            "served cell",
            cell.run().expect("cell verifies"),
            &pipeline,
            model,
        );
    }
}
