//! Integration coverage of the [`wavepipe::FlowError`] surface: every
//! user mistake — unknown benchmark names, ill-ordered pass lists,
//! cost-aware pipelines with nothing to price against, even custom
//! passes that wire combinational cycles — must come back as the right
//! error variant with a `source()` chain, never a panic.

use std::error::Error as _;

use wavepipe::{
    BufferStrategy, Engine, FlowError, FlowPipeline, FlowSpec, PipelineSpec, SpecError, SynthSpec,
};

fn engine() -> Engine {
    Engine::new().with_resolver(benchsuite::build_mig)
}

#[test]
fn unknown_benchmark_name_is_an_unknown_circuit_error() {
    let err = engine()
        .run(&FlowSpec::new("u").circuit("NOT_A_BENCHMARK"))
        .unwrap_err();
    match &err {
        FlowError::Spec(SpecError::UnknownCircuit(name)) => assert_eq!(name, "NOT_A_BENCHMARK"),
        other => panic!("wrong variant: {other:?}"),
    }
    assert!(err.to_string().contains("NOT_A_BENCHMARK"));
    assert!(err.source().is_some(), "spec errors chain their source");
}

#[test]
fn unknown_synth_family_and_malformed_synth_requests_are_spec_errors() {
    // A family the generator does not know: resolver returns None.
    let err = engine()
        .run(&FlowSpec::new("u").synthetic_circuit(SynthSpec::new("quantum", 1)))
        .unwrap_err();
    assert!(matches!(
        err,
        FlowError::Spec(SpecError::UnknownCircuit(name)) if name == "synth:quantum:1"
    ));

    // A malformed request never reaches the resolver.
    let err = engine()
        .run(&FlowSpec::new("m").synthetic_circuit(SynthSpec::new("DAG", 1)))
        .unwrap_err();
    assert!(matches!(err, FlowError::Spec(SpecError::Synthetic { .. })));
}

#[test]
fn ill_ordered_pass_list_is_a_pipeline_error() {
    let spec = FlowSpec::new("ill")
        .with_pipeline(
            PipelineSpec::map(false)
                .insert_buffers(BufferStrategy::Asap)
                .restrict_fanout(3),
        )
        .circuit("SASC");
    let err = engine().run(&spec).unwrap_err();
    assert!(matches!(
        err,
        FlowError::Pipeline(wavepipe::PipelineError::FanoutAfterBuffers)
    ));
    assert!(err.to_string().contains("invalid pipeline"));
}

#[test]
fn cost_aware_pipeline_without_technology_is_rejected_before_running() {
    let engine = engine();
    let spec = FlowSpec::new("blind")
        .with_pipeline(
            PipelineSpec::map(false)
                .restrict_fanout(3)
                .insert_buffers(BufferStrategy::CostAware),
        )
        .circuit("SASC");
    let err = engine.run(&spec).unwrap_err();
    assert!(matches!(
        err,
        FlowError::Spec(SpecError::CostAwareWithoutTechnology)
    ));
    assert_eq!(
        engine.stats().passes_executed,
        0,
        "rejected upfront: nothing may execute"
    );
}

#[test]
fn custom_pass_wiring_a_combinational_cycle_fails_the_run_not_the_process() {
    use wavepipe::{FlowContext, Pass, PassError};

    struct CyclePass;
    impl Pass for CyclePass {
        fn name(&self) -> String {
            "cycle".to_owned()
        }
        fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
            let netlist = ctx.netlist_mut();
            let input = netlist.inputs()[0];
            let b1 = netlist.add_buf(input);
            let b2 = netlist.add_buf(b1);
            netlist.component_mut(b1).fanins_mut()[0] = b2;
            Ok(())
        }
    }

    let g = benchsuite::build_mig("synth:dag:5:nodes=60").expect("synth circuit");
    let err = FlowPipeline::builder()
        .map(false)
        .pass(Box::new(CyclePass))
        .build()
        .expect("kind tags satisfy the builder")
        .run_with_model(&g, None)
        .map(|_| ())
        .unwrap_err();
    let err = FlowError::from(err);
    assert!(
        matches!(
            &err,
            FlowError::Pass(wavepipe::PassError::Netlist(
                wavepipe::NetlistError::CombinationalCycle(_)
            ))
        ),
        "{err:?}"
    );
    // Two-level source chain: FlowError → PassError → NetlistError.
    assert!(err.source().unwrap().source().is_some());
}

#[test]
fn per_cell_pass_failures_do_not_poison_a_sweep() {
    // An unbalanced verify-only pipeline fails each cell individually;
    // the sweep itself succeeds and reports per-cell outcomes.
    let engine = engine();
    let spec = FlowSpec::new("per-cell")
        .with_pipeline(PipelineSpec::map(false).verify(None))
        .synthetic_circuit(SynthSpec::new("dag", 3).param("nodes", 80))
        .synthetic_circuit(SynthSpec::new("adder", 3).param("width", 4));
    let run = engine.run(&spec).expect("sweep survives failing cells");
    assert_eq!(run.cells.len(), 2);
    for cell in &run {
        assert!(
            cell.outcome.is_err(),
            "unbalanced netlists cannot verify without buffer insertion"
        );
    }
}
