//! Criterion performance benches for the two synthesis algorithms
//! (buffer insertion and fan-out restriction) and the end-to-end flow.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use wavepipe::{insert_buffers, netlist_from_mig, restrict_fanout, FlowConfig, FlowPipeline};

fn benchmark_mig(name: &str) -> mig::Mig {
    benchsuite::find(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .build()
}

fn bench_buffer_insertion(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_insertion");
    for name in ["SASC", "DES_AREA", "MUL16", "HAMMING"] {
        let base = netlist_from_mig(&benchmark_mig(name));
        group.bench_with_input(BenchmarkId::from_parameter(name), &base, |b, base| {
            b.iter(|| {
                let mut n = base.clone();
                insert_buffers(&mut n)
            })
        });
    }
    group.finish();
}

fn bench_fanout_restriction(c: &mut Criterion) {
    let mut group = c.benchmark_group("fanout_restriction");
    for name in ["SASC", "DES_AREA", "MUL16", "HAMMING"] {
        let base = netlist_from_mig(&benchmark_mig(name));
        for k in [2u32, 3] {
            group.bench_with_input(
                BenchmarkId::new(name, k),
                &(base.clone(), k),
                |b, (base, k)| {
                    b.iter(|| {
                        let mut n = base.clone();
                        restrict_fanout(&mut n, *k)
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_full_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_flow");
    group.sample_size(10);
    for name in ["SASC", "MUL16", "CRC8x64"] {
        let g = benchmark_mig(name);
        group.bench_with_input(BenchmarkId::from_parameter(name), &g, |b, g| {
            b.iter(|| {
                FlowPipeline::for_config(FlowConfig::default())
                    .run_with_model(g, None)
                    .expect("flow verifies")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_buffer_insertion,
    bench_fanout_restriction,
    bench_full_flow
);
criterion_main!(benches);
