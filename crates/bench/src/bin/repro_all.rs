//! Runs every experiment and writes the results (text + JSON) under
//! `results/`. This is the one-shot reproduction entry point:
//!
//! ```text
//! cargo run --release -p wavepipe-bench --bin repro_all
//! ```
//!
//! Every experiment drives the **same long-lived [`wavepipe::Engine`]**
//! (suite-registry resolver, content-hash keyed result cache), so
//! overlapping sweeps share work: Fig 8's BUF-only column is served
//! from Fig 5's cells, the retiming ablation's ASAP arm from the
//! inverter ablation's reference arm. The multi-technology experiments
//! (Fig 9, Table II) come from **one** circuit × technology grid sweep;
//! its priced per-(circuit, tech, pass) traces land in
//! `results/flow_trace.{txt,json}` and the aggregate record — wall time
//! **and engine cache hit/miss/pass counters per sweep** — in
//! `results/BENCH_pr3.json`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

use tech::BenchmarkRow;
use wavepipe::Engine;
use wavepipe_bench::harness::{
    build_suite, engine, evaluate_suite_grid, fig5_fit, fig5_points, fig7_rows, fig8_data,
    fig9_data, inverter_ablation, retiming_ablation, table2_from_grid,
};
use wavepipe_bench::record::{BenchRecord, PassSummary, StageRecord};

/// Times one stage and captures the engine-counter delta it caused.
fn staged<T>(
    stages: &mut BTreeMap<String, StageRecord>,
    engine: &Engine,
    name: &str,
    run: impl FnOnce() -> T,
) -> T {
    let before = engine.stats();
    let started = Instant::now();
    let out = run();
    stages.insert(
        name.to_owned(),
        StageRecord {
            wall_ms: started.elapsed().as_secs_f64() * 1000.0,
            engine: engine.stats().since(&before),
        },
    );
    out
}

fn main() {
    let out_dir = Path::new("results");
    fs::create_dir_all(out_dir).expect("create results/");
    let engine = engine();
    let mut stages: BTreeMap<String, StageRecord> = BTreeMap::new();

    let suite = staged(&mut stages, &engine, "build_suite", || build_suite(None));
    println!("built {} benchmarks", suite.len());

    // The circuit × technology grid: one cached engine sweep feeds the
    // priced traces, Fig 9 and Table II.
    let grid = staged(&mut stages, &engine, "grid_sweep", || {
        evaluate_suite_grid(&engine, &suite)
    });

    let mut trace_txt = String::new();
    let mut pass_totals: BTreeMap<(String, String), PassSummary> = BTreeMap::new();
    for t in &grid.traces {
        trace_txt.push_str(&format!("--- {} @ {} ---\n", t.circuit, t.technology));
        for pass in &t.trace {
            trace_txt.push_str(&pass.to_string());
            trace_txt.push('\n');
            let entry = pass_totals
                .entry((t.technology.clone(), pass.pass.clone()))
                .or_insert_with(|| PassSummary {
                    technology: t.technology.clone(),
                    pass: pass.pass.clone(),
                    micros: 0,
                    area_delta: 0.0,
                    energy_delta: 0.0,
                    cycle_time_delta: 0.0,
                });
            entry.micros += pass.micros;
            if let Some(priced) = &pass.priced {
                entry.area_delta += priced.area_delta();
                entry.energy_delta += priced.energy_delta();
                entry.cycle_time_delta += priced.latency_delta();
            }
        }
        trace_txt.push('\n');
    }
    // Engine cache telemetry header: the trace leads with what the
    // cache reused vs recomputed.
    let s = engine.stats();
    trace_txt.insert_str(
        0,
        &format!(
            "=== engine: {} cache hits / {} misses, {} passes executed, \
             {} evictions ===\n\n",
            s.cache_hits, s.cache_misses, s.passes_executed, s.evictions
        ),
    );
    fs::write(out_dir.join("flow_trace.txt"), &trace_txt).expect("write flow trace");
    fs::write(
        out_dir.join("flow_trace.json"),
        serde_json::to_string_pretty(&grid.traces).expect("serialize"),
    )
    .expect("write flow_trace.json");
    println!("flow passes (suite totals, priced):");
    for ((technology, pass), s) in &pass_totals {
        println!(
            "  {technology:<4} {pass:<24} {:>9.1} ms  Δarea {:>12.1} µm², Δenergy {:>12.1} fJ",
            s.micros as f64 / 1000.0,
            s.area_delta,
            s.energy_delta
        );
    }

    // Fig 5.
    let (points, fit) = staged(&mut stages, &engine, "fig5", || {
        let points = fig5_points(&engine, &suite);
        let fit = fig5_fit(&points);
        (points, fit)
    });
    let mut fig5_txt = String::from("benchmark,size,buffers\n");
    for p in &points {
        fig5_txt.push_str(&format!("{},{},{}\n", p.name, p.size, p.buffers));
    }
    fig5_txt.push_str(&format!(
        "# fit: B(s) = {:.3} * s^{:.3} (R2 {:.4}); paper: 7.95 * s^0.9\n",
        fit.coefficient, fit.exponent, fit.r_squared
    ));
    fs::write(out_dir.join("fig5.csv"), &fig5_txt).expect("write fig5");
    fs::write(
        out_dir.join("fig5.json"),
        serde_json::to_string_pretty(&(&points, &fit)).expect("serialize"),
    )
    .expect("write fig5.json");
    println!(
        "fig5: fit B(s) = {:.2} * s^{:.3}",
        fit.coefficient, fit.exponent
    );

    // Fig 7.
    let rows = staged(&mut stages, &engine, "fig7", || fig7_rows(&engine, &suite));
    let mut fig7_txt = String::from("benchmark,orig_cp,k2,k3,k4,k5\n");
    for r in &rows {
        fig7_txt.push_str(&format!(
            "{},{},{:.3},{:.3},{:.3},{:.3}\n",
            r.name, r.original_depth, r.increase[0], r.increase[1], r.increase[2], r.increase[3]
        ));
    }
    let avgs: Vec<f64> = (0..4)
        .map(|i| tech::mean(&rows.iter().map(|r| r.increase[i]).collect::<Vec<_>>()))
        .collect();
    fig7_txt.push_str(&format!(
        "# averages: {:.3},{:.3},{:.3},{:.3}; paper: 1.40,0.57,0.36,0.26\n",
        avgs[0], avgs[1], avgs[2], avgs[3]
    ));
    fs::write(out_dir.join("fig7.csv"), &fig7_txt).expect("write fig7");
    println!(
        "fig7: average CP increase {:.0}%/{:.0}%/{:.0}%/{:.0}% for k=2..5",
        avgs[0] * 100.0,
        avgs[1] * 100.0,
        avgs[2] * 100.0,
        avgs[3] * 100.0
    );

    // Fig 8 (five declarative configs; BUF-only re-served from fig5's
    // cache cells).
    let f8 = staged(&mut stages, &engine, "fig8", || fig8_data(&engine, &suite));
    fs::write(
        out_dir.join("fig8.json"),
        serde_json::to_string_pretty(&f8).expect("serialize"),
    )
    .expect("write fig8");
    println!(
        "fig8: BUF {:.2}x; FO2..5 {:.2}/{:.2}/{:.2}/{:.2}x; FOx+BUF {:.2}/{:.2}/{:.2}/{:.2}x",
        f8.buf_only,
        f8.fo_only[0],
        f8.fo_only[1],
        f8.fo_only[2],
        f8.fo_only[3],
        f8.combined[0],
        f8.combined[1],
        f8.combined[2],
        f8.combined[3]
    );

    // Fig 9 + Table II — both read off the grid sweep above.
    let f9 = fig9_data(&grid.evaluated);
    fs::write(
        out_dir.join("fig9.json"),
        serde_json::to_string_pretty(&f9).expect("serialize"),
    )
    .expect("write fig9");
    for f in &f9 {
        println!(
            "fig9 {}: T/A {:.2}x (paper {}), T/P {:.2}x (paper {})",
            f.technology,
            f.ta_mean,
            match f.technology.as_str() {
                "SWD" => 5,
                "QCA" => 8,
                _ => 3,
            },
            f.tp_mean,
            match f.technology.as_str() {
                "SWD" => 23,
                "QCA" => 13,
                _ => 5,
            }
        );
    }

    let mut table2_txt = String::new();
    for (technology, rows) in table2_from_grid(&grid) {
        table2_txt.push_str(&format!("--- {technology} ---\n"));
        table2_txt.push_str(&BenchmarkRow::table_header());
        table2_txt.push('\n');
        for row in rows {
            table2_txt.push_str(&row.to_table_line());
            table2_txt.push('\n');
        }
        table2_txt.push('\n');
    }
    fs::write(out_dir.join("table2.txt"), &table2_txt).expect("write table2");
    println!("table2: written to results/table2.txt");

    // Ablations (the retiming ASAP arm hits the inverter ablation's
    // reference cells).
    let ablation = staged(&mut stages, &engine, "ablation_retiming", || {
        retiming_ablation(&engine, &suite)
    });
    fs::write(
        out_dir.join("ablation_retiming.json"),
        serde_json::to_string_pretty(&ablation).expect("serialize"),
    )
    .expect("write ablation");
    let avg_saving = tech::mean(&ablation.iter().map(|r| r.saving()).collect::<Vec<_>>()) * 100.0;
    println!("ablation: retiming saves {avg_saving:.1}% buffers on average");

    let inv = staged(&mut stages, &engine, "ablation_inverters", || {
        inverter_ablation(&engine, &suite)
    });
    fs::write(
        out_dir.join("ablation_inverters.json"),
        serde_json::to_string_pretty(&inv).expect("serialize"),
    )
    .expect("write inverter ablation");
    let avg_inv = tech::mean(&inv.iter().map(|r| r.inv_saving()).collect::<Vec<_>>()) * 100.0;
    println!("ablation: polarity search removes {avg_inv:.1}% of inverters on average");

    // Machine-readable perf-trajectory record.
    let totals = engine.stats();
    let record = BenchRecord {
        stages,
        engine_totals: totals,
        cached_cells: engine.cached_cells(),
        passes: pass_totals.into_values().collect(),
    };
    fs::write(
        out_dir.join("BENCH_pr3.json"),
        serde_json::to_string_pretty(&record).expect("serialize"),
    )
    .expect("write BENCH_pr3.json");
    println!(
        "perf record: results/BENCH_pr3.json (engine: {} hits / {} misses / {} passes, {} cells cached)",
        totals.cache_hits, totals.cache_misses, totals.passes_executed, engine.cached_cells()
    );

    println!("\nall results written to {}", out_dir.display());
}
