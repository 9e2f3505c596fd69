//! Multi-threaded hammer tests for the shared-engine service paths:
//! many threads (and TCP clients) pounding one [`Engine`] must produce
//! bit-identical results to solo runs, balance their per-run stats
//! against the cumulative counters, coalesce identical in-flight specs
//! to a single pipeline execution, and survive a panicking request
//! without bricking service for anyone else.

use std::sync::{Arc, Barrier};

use wavepipe::{Engine, FlowSpec, SynthSpec};
use wavepipe_serve::{Client, Coalescer, Event, Request, ServeConfig, Server};

fn dag(seed: u64, nodes: u64) -> FlowSpec {
    FlowSpec::new("hammer").synthetic_circuit(
        SynthSpec::new("dag", seed)
            .param("nodes", nodes)
            .param("depth", 10),
    )
}

fn engine() -> Engine {
    Engine::new().with_resolver(benchsuite::build_mig)
}

/// The comparison key of a run's single pipelined cell: its full
/// `Debug` rendering — both netlists, every pass statistic, the
/// verification report and the trace — with the trace's `micros` wall
/// times (the only nondeterministic field) zeroed.
fn cell_key(run: &wavepipe::EngineRun) -> String {
    assert_eq!(run.cells.len(), 1);
    let mut cell = run.cells[0].run().expect("cell verifies").clone();
    for pass in &mut cell.trace {
        pass.micros = 0;
    }
    format!("{cell:?}")
}

#[test]
fn hammered_engine_matches_solo_and_balances_stats() {
    let pool: Vec<FlowSpec> = (0..4).map(|i| dag(900 + i, 300 + 40 * i)).collect();

    // Solo references: each spec on its own fresh engine.
    let solo: Vec<String> = pool
        .iter()
        .map(|spec| cell_key(&engine().run(spec).expect("solo run verifies")))
        .collect();

    // Hammer: 8 threads x 4 specs on ONE shared engine, every thread
    // starting its sweep at a different offset so identical specs race.
    let shared = Arc::new(engine());
    let barrier = Arc::new(Barrier::new(8));
    let runs: Vec<(usize, wavepipe::EngineRun)> = (0..8)
        .map(|t| {
            let (shared, barrier, pool) = (shared.clone(), barrier.clone(), pool.clone());
            std::thread::spawn(move || {
                barrier.wait();
                (0..pool.len())
                    .map(|i| {
                        let which = (t + i) % pool.len();
                        (
                            which,
                            shared.run(&pool[which]).expect("hammer run verifies"),
                        )
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flat_map(|h| h.join().expect("hammer thread"))
        .collect();

    // Bit-identical to solo, regardless of which thread computed the
    // cell and which was served from cache.
    for (which, run) in &runs {
        assert_eq!(
            cell_key(run),
            solo[*which],
            "spec {which} diverged under concurrency"
        );
    }

    // Stats balance: the engine was fresh, so summing the exact per-run
    // tallies over all 32 runs must reproduce the cumulative counters.
    let cumulative = shared.stats();
    let sum = |pick: fn(&wavepipe::EngineStats) -> u64| -> u64 {
        runs.iter().map(|(_, run)| pick(&run.stats)).sum()
    };
    assert_eq!(sum(|s| s.cache_hits), cumulative.cache_hits);
    assert_eq!(sum(|s| s.cache_misses), cumulative.cache_misses);
    assert_eq!(sum(|s| s.passes_executed), cumulative.passes_executed);
    assert_eq!(sum(|s| s.evictions), cumulative.evictions);
    assert_eq!(sum(|s| s.cache_hits + s.cache_misses), 32, "one per run");
}

#[test]
fn coalesced_specs_execute_exactly_once_per_key() {
    // 16 threads, 4 distinct specs, 4 threads per spec, all released
    // together through a coalescer over one shared engine: the pipeline
    // must execute exactly once per distinct spec (in-flight arrivals
    // coalesce, later arrivals hit the cache — either way, one miss).
    let shared = Arc::new(engine());
    let coalescer = Arc::new(Coalescer::<Arc<wavepipe::EngineRun>>::new());
    let pool: Vec<FlowSpec> = (0..4).map(|i| dag(7_000 + i, 400)).collect();
    let barrier = Arc::new(Barrier::new(16));
    let handles: Vec<_> = (0..16)
        .map(|t| {
            let (shared, coalescer, barrier) = (shared.clone(), coalescer.clone(), barrier.clone());
            let spec = pool[t % pool.len()].clone();
            std::thread::spawn(move || {
                barrier.wait();
                let (run, _) = coalescer.run(spec.content_hash(), || {
                    Arc::new(shared.run(&spec).expect("coalesced run verifies"))
                });
                (t % 4, cell_key(&run))
            })
        })
        .collect();
    let results: Vec<(usize, String)> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let stats = shared.stats();
    assert_eq!(
        stats.cache_misses, 4,
        "each distinct spec executed exactly once: {stats:?}"
    );
    assert_eq!(coalescer.executed() + coalescer.coalesced(), 16);
    for which in 0..4 {
        let of_key: Vec<&String> = results
            .iter()
            .filter(|(w, _)| *w == which)
            .map(|(_, json)| json)
            .collect();
        assert_eq!(of_key.len(), 4);
        assert!(
            of_key.windows(2).all(|w| w[0] == w[1]),
            "spec {which}: coalesced callers saw different results"
        );
    }
}

#[test]
fn tcp_burst_coalesces_and_streams_identical_cells() {
    let shared = Arc::new(engine());
    let config = ServeConfig {
        workers: 4,
        queue_depth: 64,
        client_queue: 64,
        shed_slow_clients: false,
    };
    let server = Server::start(shared.clone(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let spec = dag(0xBEEF, 600);
    let barrier = Arc::new(Barrier::new(12));
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let (barrier, spec) = (barrier.clone(), spec.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                barrier.wait();
                client.send(&Request::Run { id: i, spec }).expect("send");
                client.collect_run(i).expect("terminal event")
            })
        })
        .collect();
    let mut payloads = Vec::new();
    for handle in handles {
        let (cells, done) = handle.join().expect("burst client");
        assert!(matches!(done, Event::Done { failed: 0, .. }), "{done:?}");
        assert_eq!(cells.len(), 1, "exactly one streamed cell (unshed)");
        match &cells[0] {
            Event::Cell {
                ok: true,
                depth,
                waves_in_flight,
                max_fanout,
                components,
                passes,
                ..
            } => payloads.push((*depth, *waves_in_flight, *max_fanout, *components, *passes)),
            other => panic!("expected a verified cell, got {other:?}"),
        }
    }
    assert!(
        payloads.windows(2).all(|w| w[0] == w[1]),
        "clients saw different cell payloads: {payloads:?}"
    );

    let metrics = server.shutdown();
    assert_eq!(metrics.completed, 12);
    assert_eq!(metrics.executed + metrics.coalesced, 12);
    assert_eq!(
        metrics.engine.cache_misses, 1,
        "the burst must collapse to a single pipeline execution"
    );

    // And the shared engine's cached cell is bit-identical to a solo
    // run of the same spec on a fresh engine.
    let served = shared.run(&spec).expect("cache re-serve");
    assert_eq!(served.stats.cache_hits, 1);
    assert_eq!(
        cell_key(&served),
        cell_key(&engine().run(&spec).expect("solo")),
        "served result diverged from solo"
    );
}

#[test]
fn panicking_request_does_not_brick_serving_for_other_clients() {
    // A resolver bug that panics mid-request must cost only that
    // request: the worker catches the unwind, the client gets a
    // terminal error event, and every other connection keeps being
    // served by the recovered engine.
    let booby_trapped = Engine::new().with_resolver(|name: &str| {
        if name == "BOOM" {
            panic!("injected resolver bug");
        }
        benchsuite::build_mig(name)
    });
    let config = ServeConfig {
        workers: 2,
        queue_depth: 16,
        client_queue: 64,
        shed_slow_clients: false,
    };
    let server = Server::start(Arc::new(booby_trapped), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut victim = Client::connect(addr).expect("connect victim");
    victim
        .send(&Request::Run {
            id: 1,
            spec: FlowSpec::new("boom").circuit("BOOM"),
        })
        .expect("send panicking request");
    let (_, terminal) = victim.collect_run(1).expect("terminal event, not a hang");
    assert!(
        matches!(terminal, Event::Error { .. }),
        "panicking request must surface as an error: {terminal:?}"
    );

    // The same connection and a fresh one both still serve real work.
    victim
        .send(&Request::Run {
            id: 2,
            spec: dag(42, 200),
        })
        .expect("send follow-up");
    let (_, done) = victim.collect_run(2).expect("follow-up completes");
    assert!(matches!(done, Event::Done { failed: 0, .. }), "{done:?}");
    let mut fresh = Client::connect(addr).expect("connect fresh");
    fresh
        .send(&Request::Run {
            id: 3,
            spec: dag(43, 200),
        })
        .expect("send on fresh connection");
    let (_, done) = fresh.collect_run(3).expect("fresh connection served");
    assert!(matches!(done, Event::Done { failed: 0, .. }), "{done:?}");

    let metrics = server.shutdown();
    assert_eq!(metrics.failed, 1, "exactly the booby-trapped request");
    assert_eq!(metrics.completed, 2);
}
