//! Capacity-bounded engine cache semantics: the cache is LRU — hits
//! refresh recency, filling past capacity evicts the least-recently-
//! used cell, and re-running an evicted cell re-executes its passes
//! (all confirmed through the [`wavepipe::EngineStats`] counters).
//! Also the engine's unit of work: a cost-blind pipeline executes once
//! per circuit and prices that run per technology, a cost-aware one
//! executes once per cell.

use tech::Technology;
use wavepipe::{BufferStrategy, CostTable, Engine, FlowSpec, PipelineRun, PipelineSpec, SynthSpec};

fn engine(capacity: usize) -> Engine {
    Engine::new()
        .with_resolver(benchsuite::build_mig)
        .with_cache_capacity(capacity)
}

fn spec(seed: u64) -> FlowSpec {
    FlowSpec::new(format!("cell-{seed}"))
        .synthetic_circuit(SynthSpec::new("dag", seed).param("nodes", 60))
}

#[test]
fn filling_past_capacity_evicts_lru_and_evicted_cells_re_execute() {
    let engine = engine(2);

    engine.run(&spec(1)).unwrap(); // cache: [1]
    engine.run(&spec(2)).unwrap(); // cache: [1, 2]
    assert_eq!(engine.cached_cells(), 2);

    // Touch cell 1: it becomes the most recently used.
    let hit = engine.run(&spec(1)).unwrap();
    assert_eq!(hit.stats.cache_hits, 1);
    assert_eq!(hit.stats.passes_executed, 0);

    // Cell 3 fills past capacity → the LRU entry (2, not 1) goes.
    engine.run(&spec(3)).unwrap(); // cache: [1, 3]
    assert_eq!(engine.cached_cells(), 2);

    let survivor = engine.run(&spec(1)).unwrap();
    assert_eq!(
        survivor.stats.cache_hits, 1,
        "the recently-touched cell must survive the eviction"
    );
    assert_eq!(survivor.stats.passes_executed, 0);

    let evicted = engine.run(&spec(2)).unwrap();
    assert_eq!(evicted.stats.cache_hits, 0, "cell 2 was evicted");
    assert_eq!(evicted.stats.cache_misses, 1);
    assert!(
        evicted.stats.passes_executed > 0,
        "an evicted cell re-executes its passes"
    );
}

#[test]
fn eviction_is_bounded_under_a_long_sweep() {
    let engine = engine(3);
    for seed in 0..10 {
        engine.run(&spec(seed)).unwrap();
    }
    assert_eq!(engine.cached_cells(), 3, "capacity is a hard bound");
    let stats = engine.stats();
    assert_eq!(stats.cache_misses, 10);
    assert_eq!(stats.cache_hits, 0);

    // The three most recent seeds are resident; everything older is not.
    for seed in 7..10 {
        let run = engine.run(&spec(seed)).unwrap();
        assert_eq!(run.stats.cache_hits, 1, "seed {seed} should be resident");
    }
    let old = engine.run(&spec(0)).unwrap();
    assert_eq!(old.stats.cache_misses, 1, "seed 0 aged out");
}

#[test]
fn cumulative_counters_track_every_run() {
    let engine = engine(8);
    engine.run(&spec(1)).unwrap();
    engine.run(&spec(1)).unwrap();
    engine.run(&spec(2)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert!(stats.passes_executed >= 8, "two cold runs × four passes");

    engine.clear_cache();
    assert_eq!(engine.cached_cells(), 0);
    let after = engine.run(&spec(1)).unwrap();
    assert_eq!(after.stats.cache_misses, 1, "clear forces recomputation");
}

#[test]
fn a_key_already_present_evicts_nothing() {
    let engine = engine(2);
    engine.run(&spec(1)).unwrap(); // cache: [1]

    // The same technology twice: two cells, one key.
    let table = Technology::swd().cost_table();
    let twice = spec(2).technology(table.clone()).technology(table);
    let run = engine.run(&twice).unwrap();
    assert_eq!(run.cells.len(), 2);
    assert_eq!(run.stats.cache_misses, 2);
    assert_eq!(run.stats.evictions, 0, "re-inserting a key evicts nothing");
    assert_eq!(engine.cached_cells(), 2);

    let back = engine.run(&spec(1)).unwrap();
    assert_eq!(back.stats.cache_hits, 1, "cell 1 is still resident");
}

fn tables() -> Vec<CostTable> {
    Technology::all()
        .iter()
        .map(Technology::cost_table)
        .collect()
}

fn grid(pipeline: PipelineSpec, seeds: &[u64], tables: &[CostTable]) -> FlowSpec {
    let mut spec = FlowSpec::new("units").with_pipeline(pipeline);
    for table in tables {
        spec = spec.technology(table.clone());
    }
    for &seed in seeds {
        spec = spec.synthetic_circuit(SynthSpec::new("dag", seed).param("nodes", 60));
    }
    spec
}

fn cost_aware() -> PipelineSpec {
    PipelineSpec::map(false)
        .restrict_fanout_cost_aware()
        .insert_buffers(BufferStrategy::CostAware)
        .verify_cost_aware(None)
}

/// Passes one execution of `pipeline` runs (the map pass included).
fn passes(pipeline: &PipelineSpec) -> u64 {
    pipeline.build().unwrap().pass_names().len() as u64
}

/// The run's full rendering with the wall-clock `micros` zeroed.
fn rendered(run: &PipelineRun) -> String {
    let mut run = run.clone();
    for pass in &mut run.trace {
        pass.micros = 0;
    }
    format!("{run:?}")
}

/// Every cell equals a single-cell `run_with_model` of its coordinates.
fn assert_cells_match_single_runs(spec: &FlowSpec, run: &wavepipe::EngineRun) {
    let pipeline = spec.pipeline.build().unwrap();
    for cell in run {
        let g = benchsuite::build_mig(&run.circuits[cell.circuit]).unwrap();
        let model = cell.technology.map(|m| &spec.technologies[m]);
        let direct = pipeline.run_with_model(&g, model).unwrap();
        assert_eq!(rendered(cell.run().unwrap()), rendered(&direct));
    }
}

#[test]
fn cost_blind_specs_execute_once_per_circuit_and_price_per_technology() {
    let engine = engine(64);
    let spec = grid(PipelineSpec::default(), &[1, 2], &tables());
    let passes = passes(&spec.pipeline);
    let run = engine.run(&spec).unwrap();
    assert_eq!(run.cells.len(), 6);
    assert_eq!(
        run.stats.passes_executed,
        passes * 2,
        "one execution per circuit"
    );
    assert_eq!(run.stats.cache_misses, 6, "misses still count cells");
    assert!(run.iter().all(|cell| {
        let priced = &cell.run().unwrap().trace[0].priced;
        priced.as_ref().map(|p| p.model.as_str())
            == Some(spec.technologies[cell.technology.unwrap()].name())
    }));
    assert_cells_match_single_runs(&spec, &run);
}

#[test]
fn cost_aware_specs_execute_once_per_cell() {
    let engine = engine(64);
    let spec = grid(cost_aware(), &[1, 2], &tables());
    let passes = passes(&spec.pipeline);
    let run = engine.run(&spec).unwrap();
    assert_eq!(run.stats.passes_executed, passes * 6);
    assert_eq!(run.stats.cache_misses, 6);
    assert_cells_match_single_runs(&spec, &run);
}

#[test]
fn adding_a_technology_to_a_warm_spec_executes_once() {
    let engine = engine(64);
    let tables = tables();
    let passes = passes(&PipelineSpec::default());
    engine
        .run(&grid(PipelineSpec::default(), &[1, 2], &tables[..2]))
        .unwrap();

    let grown = grid(PipelineSpec::default(), &[1, 2], &tables);
    let run = engine.run(&grown).unwrap();
    assert_eq!(run.stats.cache_hits, 4);
    assert_eq!(run.stats.cache_misses, 2, "only the new column misses");
    assert_eq!(run.stats.passes_executed, passes * 2, "once per circuit");
    for cell in &run {
        assert_eq!(cell.cached, cell.technology != Some(2));
    }
    assert_cells_match_single_runs(&grown, &run);
}

#[test]
fn a_failing_cost_blind_execution_fails_every_technology_cell() {
    let engine = engine(64);
    engine.run(&spec(1)).unwrap();
    let cached = engine.cached_cells();

    // No restriction or buffers: the unbalanced map fails verification.
    let spec = grid(PipelineSpec::map(false).verify(Some(3)), &[3], &tables());
    let run = engine.run(&spec).unwrap();
    let g = benchsuite::build_mig(&run.circuits[0]).unwrap();
    let direct = spec.pipeline.build().unwrap().run_with_model(&g, None);
    let expected = direct.expect_err("an unbalanced map fails verify");
    assert_eq!(run.cells.len(), 3);
    for cell in &run {
        assert!(!cell.cached);
        assert_eq!(cell.outcome.as_ref().unwrap_err(), &expected);
    }
    assert_eq!(run.stats.cache_misses, 3);
    assert_eq!(
        run.stats.passes_executed, 0,
        "a failed run counts no passes"
    );
    assert_eq!(engine.cached_cells(), cached, "failures are never cached");
}
