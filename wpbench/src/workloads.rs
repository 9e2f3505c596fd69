//! The seeded request streams of the in-process workloads.

use wavepipe::{EquivalencePolicy, PipelineSpec, SynthSpec};

use crate::inproc::{synth_spec, technologies, Item, Plan};
use crate::stats::mix;

/// `n` sizes spaced evenly in log scale over `lo..=hi`.
pub fn log_ladder(lo: f64, hi: f64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| (lo * (hi / lo).powf(i as f64 / (n - 1) as f64)).round() as u64)
        .collect()
}

fn circuit_seed(seed: u64, round: u64, slot: u64) -> u64 {
    mix(seed, round, slot) >> 32
}

/// `cold_sweep`: the paper's use at ROADMAP scale. Each round is
/// sixteen `synth:dag` circuits on six sizes log-spaced over
/// 10⁴–3×10⁵ gates (the smallest nine times, 7.6×10⁴ three times) plus one
/// each of `adder`, `parity`, `majtree` and `compose` (3–15×10³ gates),
/// every one through the default FO3+BUF+verify pipeline priced on SWD,
/// QCA and NML, run cold and then re-queried warm.
pub const COLD_SWEEP: Plan = Plan {
    name: "cold_sweep",
    cache_capacity: 6,
    slo_ms: 10.0,
    round: cold_sweep_round,
    round_s: 2.6,
};

fn cold_sweep_round(seed: u64, round: u64) -> Vec<Item> {
    // Sizes a factor of ~2 apart keep neighbouring sizes' latencies
    // apart. The counts place each percentile inside one group of
    // similar requests, not on the edge between two: with nine of the
    // smallest, the median request is a cold 10⁴-gate run and the median
    // hit a 10⁴-gate re-query; with three at 7.6×10⁴, the 90th
    // percentile is a cold 7.6×10⁴-gate run.
    let sizes = log_ladder(1e4, 3e5, 6);
    let dag = |i: usize| SynthSpec::new("dag", 0).param("nodes", sizes[i]);
    let synths = vec![
        dag(0),
        dag(0),
        SynthSpec::new("adder", 0)
            .param("width", 256)
            .param("chains", 4),
        dag(0),
        dag(0),
        SynthSpec::new("parity", 0)
            .param("width", 1024)
            .param("layers", 4),
        dag(0),
        dag(0),
        dag(1),
        dag(2),
        SynthSpec::new("majtree", 0)
            .param("width", 6561)
            .param("trees", 4),
        dag(3),
        dag(0),
        dag(0),
        dag(3),
        dag(0),
        dag(3),
        dag(4),
        SynthSpec::new("compose", 0)
            .param("blocks", 64)
            .param("width", 64)
            .param("nodes", 600)
            .param("mode", 1),
        dag(5),
    ];
    synths
        .into_iter()
        .enumerate()
        .map(|(slot, mut synth)| {
            synth.seed = circuit_seed(seed, round, slot as u64);
            Item {
                spec: synth_spec(format!("cold_sweep-{round}-{slot}"), synth, technologies()),
                requery: true,
            }
        })
        .collect()
}

/// Rewrite rounds of each optimization pass in `gated_rewrite`.
pub const REWRITE_ROUNDS: usize = 4;

/// `gated_rewrite`: fresh `chain`, `shared`, `adder` and `dag` circuits
/// over 10³–3×10⁴ gates through the rewrite-prefixed pipeline
/// (optimize_depth + optimize_size, then FO3+BUF+verify) with the
/// equivalence gate on every pass boundary, priced on one technology.
/// The smallest and the middle size of every family are re-queried warm.
pub const GATED_REWRITE: Plan = Plan {
    name: "gated_rewrite",
    cache_capacity: 12,
    slo_ms: 2.5,
    round: gated_rewrite_round,
    round_s: 2.5,
};

pub fn gated_pipeline() -> PipelineSpec {
    let mut pipeline = PipelineSpec::map(false)
        .optimize_depth(REWRITE_ROUNDS)
        .optimize_size(REWRITE_ROUNDS);
    pipeline.passes.extend(PipelineSpec::default().passes);
    pipeline.gate_equivalence(EquivalencePolicy::default())
}

fn gated_rewrite_round(seed: u64, round: u64) -> Vec<Item> {
    let techs = technologies();
    let mut items = Vec::new();
    for (size_index, &n) in log_ladder(1e3, 3e4, 5).iter().enumerate() {
        for family in ["chain", "shared", "adder", "dag"] {
            let synth = match family {
                "chain" => SynthSpec::new(family, 0)
                    .param("length", 512)
                    .param("chains", (n / 511).clamp(1, 64)),
                "shared" => SynthSpec::new(family, 0)
                    .param("width", 64)
                    .param("groups", (n / 3).clamp(1, 4096)),
                "adder" => SynthSpec::new(family, 0)
                    .param("width", 160)
                    .param("chains", (n / 480).clamp(1, 64)),
                _ => SynthSpec::new(family, 0).param("nodes", n),
            };
            let slot = items.len() as u64;
            let mut synth = synth;
            synth.seed = circuit_seed(seed, round, slot);
            let tech = techs[((slot + round) % techs.len() as u64) as usize].clone();
            let spec = synth_spec(format!("gated_rewrite-{round}-{slot}"), synth, vec![tech])
                .with_pipeline(gated_pipeline());
            items.push(Item {
                spec,
                requery: size_index == 0 || size_index == 2,
            });
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladders_are_log_spaced() {
        assert_eq!(log_ladder(1e4, 3e5, 6).first(), Some(&10_000));
        assert_eq!(log_ladder(1e4, 3e5, 6).last(), Some(&300_000));
        assert_eq!(log_ladder(1e3, 3e4, 5).len(), 5);
    }

    #[test]
    fn rounds_are_seeded() {
        let a = cold_sweep_round(1, 0);
        let b = cold_sweep_round(1, 0);
        let c = cold_sweep_round(2, 0);
        assert_eq!(a.len(), 20);
        let names = |items: &[Item]| -> Vec<String> {
            items.iter().map(|i| i.spec.circuits[0].name()).collect()
        };
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        assert_eq!(gated_rewrite_round(1, 0).len(), 20);
    }
}
