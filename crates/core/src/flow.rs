//! The end-to-end wave-pipelining enablement flow:
//! MIG → mapped netlist → fan-out restriction → buffer insertion →
//! verified wave-ready netlist.
//!
//! This is the composition the paper evaluates (§V): fan-out restriction
//! must run **before** buffer insertion because splitting fan-out
//! changes path lengths (Fig 8's observation (a): the combined flow
//! inserts more buffers than either pass alone).
//!
//! A [`FlowConfig`] names one point of Fig 8's configuration space;
//! [`crate::FlowPipeline::for_config`] compiles it into the pass
//! pipeline, and every run's [`crate::PipelineRun::result`] is the
//! [`FlowResult`] defined here.

use crate::balance::BalanceReport;
use crate::buffer_insertion::BufferInsertion;
use crate::fanout_restriction::FanoutRestriction;
use crate::netlist::{KindCounts, Netlist};

/// Configuration of the enablement flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowConfig {
    /// Fan-out restriction limit (2–5), or `None` to skip restriction
    /// (the paper's BUF-only configuration of Fig 8).
    pub fanout_limit: Option<u32>,
    /// Whether to run buffer insertion (disable for the FOx-only
    /// configurations of Fig 8).
    pub insert_buffers: bool,
    /// Map with inversion-count minimization
    /// ([`crate::netlist_from_mig_min_inv`]) instead of the reference
    /// mapping — an extension beyond the paper (its reference \[20\]),
    /// off by default.
    pub minimize_inverters: bool,
}

impl Default for FlowConfig {
    /// The paper's benchmarking configuration: fan-out restriction to 3,
    /// then buffer insertion (§V).
    fn default() -> FlowConfig {
        FlowConfig {
            fanout_limit: Some(3),
            insert_buffers: true,
            minimize_inverters: false,
        }
    }
}

/// Everything the flow produced, for one MIG.
#[derive(Clone, Debug)]
pub struct FlowResult {
    /// The mapped netlist before any transformation (INV materialized).
    pub original: Netlist,
    /// The transformed netlist.
    pub pipelined: Netlist,
    /// Fan-out restriction statistics (if the pass ran).
    pub fanout: Option<FanoutRestriction>,
    /// Buffer insertion statistics (if the pass ran).
    pub buffers: Option<BufferInsertion>,
    /// Balance verification of the result (present when buffer insertion
    /// ran; the invariants cannot hold without it in general).
    pub report: Option<BalanceReport>,
}

impl FlowResult {
    /// Component counts of the original mapped netlist.
    pub fn original_counts(&self) -> KindCounts {
        self.original.counts()
    }

    /// Component counts of the transformed netlist.
    pub fn pipelined_counts(&self) -> KindCounts {
        self.pipelined.counts()
    }

    /// Size ratio pipelined / original (the normalized netlist size of
    /// Fig 8).
    pub fn size_ratio(&self) -> f64 {
        self.pipelined_counts().priced_total() as f64
            / self.original_counts().priced_total().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::FlowPipeline;
    use crate::wavesim::WaveSimulator;
    use mig::Mig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_mig(seed: u64) -> Mig {
        mig::random_mig(mig::RandomMigConfig {
            inputs: 12,
            outputs: 6,
            gates: 250,
            depth: 10,
            seed,
        })
    }

    fn run_config(graph: &Mig, config: FlowConfig) -> FlowResult {
        FlowPipeline::for_config(config)
            .run_with_model(graph, None)
            .expect("flow verifies")
            .result
    }

    #[test]
    fn default_flow_produces_wave_ready_netlist() {
        let g = sample_mig(1);
        let r = run_config(&g, FlowConfig::default());
        assert!(r.report.is_some());
        assert!(r.pipelined.max_fanout() <= 3);
        assert!(r.size_ratio() > 1.0);
        assert!(r.fanout.unwrap().fogs_inserted > 0);
        assert!(r.buffers.unwrap().total() > 0);
    }

    #[test]
    fn flow_preserves_function_end_to_end() {
        let g = sample_mig(2);
        let r = run_config(&g, FlowConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..64 {
            let bits: Vec<bool> = (0..12).map(|_| rng.gen()).collect();
            assert_eq!(r.original.eval(&bits), r.pipelined.eval(&bits));
        }
    }

    #[test]
    fn flow_result_streams_waves() {
        let g = sample_mig(4);
        let r = run_config(&g, FlowConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let waves: Vec<Vec<bool>> = (0..25)
            .map(|_| (0..12).map(|_| rng.gen()).collect())
            .collect();
        let corrupted = WaveSimulator::new(&r.pipelined).check_against_golden(&waves);
        assert!(corrupted.is_empty());
    }

    #[test]
    fn buf_only_configuration() {
        let g = sample_mig(6);
        let r = run_config(
            &g,
            FlowConfig {
                fanout_limit: None,
                insert_buffers: true,
                ..FlowConfig::default()
            },
        );
        assert!(r.fanout.is_none());
        assert!(r.report.is_some());
    }

    #[test]
    fn fo_only_configuration() {
        let g = sample_mig(7);
        let r = run_config(
            &g,
            FlowConfig {
                fanout_limit: Some(4),
                insert_buffers: false,
                ..FlowConfig::default()
            },
        );
        assert!(r.report.is_none());
        assert!(r.pipelined.max_fanout() <= 4);
        assert!(r.buffers.is_none());
    }

    #[test]
    fn combined_flow_needs_more_buffers_than_buf_alone() {
        // Fig 8 observation (a): FOx+BUF inserts more buffers than BUF,
        // because fan-out chains delay consumers and widen gaps.
        let mut more = 0usize;
        for seed in 10..16 {
            let g = sample_mig(seed);
            let buf_only = run_config(
                &g,
                FlowConfig {
                    fanout_limit: None,
                    insert_buffers: true,
                    ..FlowConfig::default()
                },
            );
            let combined = run_config(&g, FlowConfig::default());
            if combined.buffers.unwrap().total() >= buf_only.buffers.unwrap().total() {
                more += 1;
            }
        }
        assert!(
            more >= 5,
            "combined flow should dominate on most seeds ({more}/6)"
        );
    }

    #[test]
    fn fog_count_is_independent_of_buffer_insertion() {
        // Fig 8 observation (b).
        for seed in 20..24 {
            let g = sample_mig(seed);
            let fo_only = run_config(
                &g,
                FlowConfig {
                    fanout_limit: Some(3),
                    insert_buffers: false,
                    ..FlowConfig::default()
                },
            );
            let combined = run_config(&g, FlowConfig::default());
            assert_eq!(
                fo_only.pipelined_counts().fog,
                combined.pipelined_counts().fog
            );
        }
    }
}
