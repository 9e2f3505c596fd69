//! Weighted-delay path balancing — the paper's technology-tailored mode.
//!
//! Section III keeps the algorithm "technology-agnostic by assuming
//! generic components", but notes that "we have included in the
//! implementation the possibility to adjust component weights so that
//! the final result can be tailored to different technologies". This
//! module is that mode: every component kind carries an integer delay
//! weight (in clock phases) and balancing equalizes *weighted* path
//! delays, filling gaps with chains of buffers of weight
//! [`DelayWeights::buf`].
//!
//! With unit weights this degenerates to [`crate::insert_buffers`]. With
//! QCA-style weights (INV 7, MAJ 2, BUF 1, FOG 2) an inverter occupies
//! seven clock phases and its sibling paths receive seven phases of
//! buffering — which is why the paper's generic results use unit
//! weights: weighted balancing pays a real buffer premium around slow
//! components (quantified by the `ablation_weighted` comparison in the
//! bench crate's harness tests).

use std::fmt;

use crate::component::{CompId, ComponentKind};
use crate::netlist::Netlist;

/// Integer delay weights per component kind, in clock phases.
///
/// Serializes unconditionally: weights are part of a
/// [`crate::FlowSpec`]'s pipeline description
/// ([`crate::PassSpec::VerifyWeighted`] and the weighted
/// [`crate::BufferStrategy`]), which must round-trip through JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DelayWeights {
    /// Inverter delay.
    pub inv: u32,
    /// Majority-gate delay.
    pub maj: u32,
    /// Buffer delay (the balancing granularity).
    pub buf: u32,
    /// Fan-out gate delay.
    pub fog: u32,
}

impl DelayWeights {
    /// Unit weights — the paper's generic mode.
    pub const UNIT: DelayWeights = DelayWeights {
        inv: 1,
        maj: 1,
        buf: 1,
        fog: 1,
    };

    /// The QCA relative delays of Table I.
    pub const QCA: DelayWeights = DelayWeights {
        inv: 7,
        maj: 2,
        buf: 1,
        fog: 2,
    };

    /// The NML relative delays of Table I.
    pub const NML: DelayWeights = DelayWeights {
        inv: 1,
        maj: 2,
        buf: 2,
        fog: 2,
    };

    /// The SWD relative delays of Table I (all unit).
    pub const SWD: DelayWeights = DelayWeights::UNIT;

    /// Derives weights from a technology cost model: each kind weighs
    /// the number of clock phases it occupies
    /// ([`crate::cost::CostTable::phase_occupancy`]). Under the paper's
    /// Table I this is unit for SWD and NML and `{INV 3, MAJ 1, BUF 1,
    /// FOG 1}` for QCA (its inverter spans 7 cell delays against a
    /// 10/3-cell phase) — the phase-weight-aware slack the cost-aware
    /// insertion strategy balances with.
    pub fn for_cost_model(table: &crate::cost::CostTable) -> DelayWeights {
        DelayWeights {
            inv: table.phase_occupancy(ComponentKind::Inv),
            maj: table.phase_occupancy(ComponentKind::Maj),
            buf: table.phase_occupancy(ComponentKind::Buf),
            fog: table.phase_occupancy(ComponentKind::Fog),
        }
    }

    /// Weight of one component kind (inputs and constants are 0).
    pub fn of(&self, kind: ComponentKind) -> u32 {
        match kind {
            ComponentKind::Inv => self.inv,
            ComponentKind::Maj => self.maj,
            ComponentKind::Buf => self.buf,
            ComponentKind::Fog => self.fog,
            ComponentKind::Input | ComponentKind::Const => 0,
        }
    }
}

impl Default for DelayWeights {
    fn default() -> DelayWeights {
        DelayWeights::UNIT
    }
}

/// Why weighted balancing can fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WeightedBalanceError {
    /// A delay gap is not a multiple of the buffer weight, so no buffer
    /// chain can fill it exactly.
    IndivisibleGap {
        /// Driver of the offending edge.
        from: CompId,
        /// Consumer of the offending edge.
        to: CompId,
        /// The residual delay that cannot be filled.
        gap: u32,
        /// The buffer weight that failed to divide it.
        buf_weight: u32,
    },
    /// Buffer weight of zero was requested.
    ZeroBufferWeight,
}

impl fmt::Display for WeightedBalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightedBalanceError::IndivisibleGap {
                from,
                to,
                gap,
                buf_weight,
            } => write!(
                f,
                "edge {from} → {to}: delay gap {gap} is not a multiple of the buffer weight {buf_weight}"
            ),
            WeightedBalanceError::ZeroBufferWeight => {
                write!(f, "buffer weight must be positive")
            }
        }
    }
}

impl std::error::Error for WeightedBalanceError {}

/// Statistics of a weighted balancing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WeightedInsertion {
    /// Buffers inserted.
    pub buffers: usize,
    /// Common weighted arrival of all outputs after balancing.
    pub weighted_depth: u32,
}

/// Computes weighted arrival times: `arrival(v) = weight(v) + max over
/// non-constant fan-ins of arrival(u)`; inputs and constants arrive at 0.
pub fn weighted_arrivals(netlist: &Netlist, weights: &DelayWeights) -> Vec<u32> {
    let mut arrival = vec![0u32; netlist.len()];
    for id in netlist.topo_order() {
        let comp = netlist.component(id);
        if comp.fanins().is_empty() {
            continue;
        }
        let max_in = comp
            .fanins()
            .iter()
            .filter(|f| netlist.component(**f).kind() != ComponentKind::Const)
            .map(|f| arrival[f.index()])
            .max()
            .unwrap_or(0);
        arrival[id.index()] = max_in + weights.of(comp.kind());
    }
    arrival
}

/// Balances weighted path delays in place.
///
/// After success, for every edge `u → v` (non-constant `u`) the
/// weighted arrival of `v`'s fan-in side equals `arrival(v) −
/// weight(v)`, and all non-constant outputs share one weighted arrival.
/// Buffer chains are shared per driver exactly as in the unit-weight
/// algorithm.
///
/// # Errors
///
/// Returns [`WeightedBalanceError::IndivisibleGap`] when a gap cannot be
/// tiled by buffers (impossible when `weights.buf == 1`, the case for
/// SWD and QCA), or [`WeightedBalanceError::ZeroBufferWeight`].
pub fn insert_buffers_weighted(
    netlist: &mut Netlist,
    weights: &DelayWeights,
) -> Result<WeightedInsertion, WeightedBalanceError> {
    if weights.buf == 0 {
        return Err(WeightedBalanceError::ZeroBufferWeight);
    }
    let arrival = weighted_arrivals(netlist, weights);
    let fanout = netlist.fanout_edges();
    let original_len = netlist.len();

    let max_output_arrival = netlist
        .outputs()
        .iter()
        .filter(|p| netlist.component(p.driver).kind() != ComponentKind::Const)
        .map(|p| arrival[p.driver.index()])
        .max()
        .unwrap_or(0);
    let mut output_uses: Vec<Vec<usize>> = vec![Vec::new(); original_len];
    for (pos, p) in netlist.outputs().iter().enumerate() {
        if netlist.component(p.driver).kind() != ComponentKind::Const {
            output_uses[p.driver.index()].push(pos);
        }
    }

    // Pre-check divisibility of every gap so the netlist is untouched on
    // error (strong exception safety for the caller).
    for idx in 0..original_len {
        let comp = CompId::from_index(idx);
        if netlist.component(comp).kind() == ComponentKind::Const {
            continue;
        }
        for &(consumer, _) in &fanout[idx] {
            let kind = netlist.component(consumer).kind();
            let need = arrival[consumer.index()] - weights.of(kind);
            let gap = need - arrival[idx];
            if !gap.is_multiple_of(weights.buf) {
                return Err(WeightedBalanceError::IndivisibleGap {
                    from: comp,
                    to: consumer,
                    gap,
                    buf_weight: weights.buf,
                });
            }
        }
        for &_pos in &output_uses[idx] {
            let gap = max_output_arrival - arrival[idx];
            if !gap.is_multiple_of(weights.buf) {
                return Err(WeightedBalanceError::IndivisibleGap {
                    from: comp,
                    to: comp,
                    gap,
                    buf_weight: weights.buf,
                });
            }
        }
    }

    let mut buffers = 0usize;
    for idx in 0..original_len {
        let comp = CompId::from_index(idx);
        if netlist.component(comp).kind() == ComponentKind::Const {
            continue;
        }
        enum Use {
            Gate { consumer: CompId, slot: usize },
            Output { position: usize },
        }
        let mut uses: Vec<(u32, Use)> = fanout[idx]
            .iter()
            .map(|&(consumer, slot)| {
                let kind = netlist.component(consumer).kind();
                (
                    arrival[consumer.index()] - weights.of(kind),
                    Use::Gate { consumer, slot },
                )
            })
            .collect();
        for &position in &output_uses[idx] {
            uses.push((max_output_arrival, Use::Output { position }));
        }
        if uses.is_empty() {
            continue;
        }
        uses.sort_by_key(|&(required, _)| required);

        let mut chain_head = comp;
        let mut chain_arrival = arrival[idx];
        for (required, u) in uses {
            while chain_arrival < required {
                chain_head = netlist.add_buf(chain_head);
                chain_arrival += weights.buf;
                buffers += 1;
            }
            debug_assert_eq!(chain_arrival.max(required), chain_arrival);
            match u {
                Use::Gate { consumer, slot } => {
                    netlist.component_mut(consumer).fanins_mut()[slot] = chain_head;
                }
                Use::Output { position } => netlist.set_output_driver(position, chain_head),
            }
        }
    }

    Ok(WeightedInsertion {
        buffers,
        weighted_depth: max_output_arrival,
    })
}

/// Verifies the weighted balancing invariants (the weighted analogue of
/// [`crate::verify_balance`]).
pub fn verify_weighted_balance(netlist: &Netlist, weights: &DelayWeights) -> Result<u32, String> {
    let arrival = weighted_arrivals(netlist, weights);
    for id in netlist.ids() {
        let comp = netlist.component(id);
        for &f in comp.fanins() {
            if netlist.component(f).kind() == ComponentKind::Const {
                continue;
            }
            let expect = arrival[id.index()] - weights.of(comp.kind());
            if arrival[f.index()] != expect {
                return Err(format!(
                    "edge {f} → {id}: fan-in arrives at {} but the gate fires at {expect}",
                    arrival[f.index()]
                ));
            }
        }
    }
    let mut out_arrival = None;
    for p in netlist.outputs() {
        if netlist.component(p.driver).kind() == ComponentKind::Const {
            continue;
        }
        let a = arrival[p.driver.index()];
        match out_arrival {
            None => out_arrival = Some(a),
            Some(prev) if prev != a => {
                return Err(format!(
                    "output `{}` arrives at {a}, earlier outputs at {prev}",
                    p.name
                ))
            }
            Some(_) => {}
        }
    }
    Ok(out_arrival.unwrap_or(0))
}

/// Pipeline pass wrapping [`insert_buffers_weighted`] (§III's
/// technology-tailored mode). Deposits [`WeightedInsertion`] statistics
/// in the context; the unit-delay `buffers` slot stays empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightedInsertionPass {
    /// Per-kind delay weights to balance against.
    pub weights: DelayWeights,
}

impl crate::pipeline::Pass for WeightedInsertionPass {
    fn name(&self) -> String {
        "insert_buffers(weighted)".to_owned()
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::BufferInsertion
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        let stats = insert_buffers_weighted(ctx.netlist_mut(), &self.weights)?;
        ctx.weighted = Some(stats);
        Ok(())
    }
}

/// Cost-aware buffer insertion: balances against the phase-occupancy
/// weights the run's cost model implies
/// ([`DelayWeights::for_cost_model`]).
///
/// When every component fits in one phase (unit weights — SWD, NML)
/// this *is* Algorithm 1 against ASAP levels and deposits the ordinary
/// [`BufferInsertion`](crate::BufferInsertion) statistics; otherwise it
/// runs weighted balancing and deposits [`WeightedInsertion`]
/// statistics. Fails with
/// [`PassError::Custom`](crate::pipeline::PassError::Custom) when the
/// run carries no cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostAwareInsertionPass;

impl crate::pipeline::Pass for CostAwareInsertionPass {
    fn name(&self) -> String {
        "insert_buffers(cost-aware)".to_owned()
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::BufferInsertion
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        let table = ctx.cost_model().ok_or_else(|| {
            crate::pipeline::PassError::Custom(
                "cost-aware buffer insertion needs a cost model \
                 (the model argument of FlowPipeline::run_with_model, or a FlowSpec technology)"
                    .to_owned(),
            )
        })?;
        let weights = DelayWeights::for_cost_model(table);
        if weights == DelayWeights::UNIT {
            let levels = ctx.levels();
            let fanout = ctx.fanout_edges();
            let stats = crate::buffer_insertion::insert_buffers_prepared(
                ctx.netlist_mut(),
                &levels,
                &fanout,
            );
            ctx.buffers = Some(stats);
        } else {
            let stats = insert_buffers_weighted(ctx.netlist_mut(), &weights)?;
            ctx.weighted = Some(stats);
        }
        Ok(())
    }
}

/// Cost-aware balance verification: the verifier matching
/// [`CostAwareInsertionPass`]. Unit weights verify the plain invariants
/// (and record the [`crate::BalanceReport`]); non-unit weights verify
/// weighted balance. `fanout_limit` additionally enforces the §IV
/// bound in both modes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostAwareVerifyPass {
    /// Additionally enforce the §IV fan-out bound when given.
    pub fanout_limit: Option<u32>,
}

impl crate::pipeline::Pass for CostAwareVerifyPass {
    fn name(&self) -> String {
        "verify(cost-aware)".to_owned()
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::Verify
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        let table = ctx.cost_model().ok_or_else(|| {
            crate::pipeline::PassError::Custom(
                "cost-aware verification needs a cost model \
                 (the model argument of FlowPipeline::run_with_model, or a FlowSpec technology)"
                    .to_owned(),
            )
        })?;
        ctx.netlist()
            .validate()
            .map_err(crate::pipeline::PassError::Custom)?;
        let weights = DelayWeights::for_cost_model(table);
        if weights == DelayWeights::UNIT {
            let levels = ctx.levels();
            let fanout_counts = ctx.fanout_counts();
            let report = crate::balance::verify_balance_prepared(
                ctx.netlist(),
                self.fanout_limit,
                &levels,
                &fanout_counts,
            )?;
            ctx.report = Some(report);
        } else {
            verify_weighted_balance(ctx.netlist(), &weights)
                .map_err(crate::pipeline::PassError::Custom)?;
            if let Some(limit) = self.fanout_limit {
                let counts = ctx.fanout_counts();
                crate::balance::check_fanout_bound(ctx.netlist(), &counts, limit)?;
            }
        }
        Ok(())
    }
}

/// Pipeline pass wrapping [`verify_weighted_balance`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyWeightedPass {
    /// The weights the netlist was balanced against.
    pub weights: DelayWeights,
}

impl crate::pipeline::Pass for VerifyWeightedPass {
    fn name(&self) -> String {
        "verify(weighted)".to_owned()
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::Verify
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        verify_weighted_balance(ctx.netlist(), &self.weights)
            .map(|_depth| ())
            .map_err(crate::pipeline::PassError::Custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::from_mig::netlist_from_mig;

    fn mapped_sample(seed: u64) -> Netlist {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 150,
            depth: 9,
            seed,
        });
        netlist_from_mig(&g)
    }

    #[test]
    fn unit_weights_match_the_plain_algorithm() {
        let base = mapped_sample(60);
        let mut weighted = base.clone();
        let w = insert_buffers_weighted(&mut weighted, &DelayWeights::UNIT).unwrap();
        let mut plain = base;
        let p = crate::buffer_insertion::insert_buffers(&mut plain);
        assert_eq!(w.buffers, p.total());
        assert_eq!(w.weighted_depth, p.depth);
    }

    #[test]
    fn qca_weights_balance_and_preserve_function() {
        let base = mapped_sample(61);
        let mut n = base.clone();
        let stats = insert_buffers_weighted(&mut n, &DelayWeights::QCA).unwrap();
        assert!(stats.buffers > 0);
        let depth = verify_weighted_balance(&n, &DelayWeights::QCA).unwrap();
        assert_eq!(depth, stats.weighted_depth);
        for p in 0..64u32 {
            let bits: Vec<bool> = (0..10)
                .map(|i| p.wrapping_mul(0x9E3779B9) >> i & 1 != 0)
                .collect();
            assert_eq!(base.eval(&bits), n.eval(&bits));
        }
    }

    #[test]
    fn qca_inverters_cost_extra_buffers() {
        // A gate reading one inverted and one plain copy of the same
        // signal: under QCA weights the plain path must absorb the
        // inverter's 7-phase delay minus the gate gap.
        let mut n = Netlist::new("invgap");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let inv = n.add_inv(a);
        let g = n.add_maj([inv, b, a]);
        n.add_output("f", g);

        let mut unit = n.clone();
        let u = insert_buffers_weighted(&mut unit, &DelayWeights::UNIT).unwrap();
        let mut qca = n.clone();
        let q = insert_buffers_weighted(&mut qca, &DelayWeights::QCA).unwrap();
        assert!(
            q.buffers > u.buffers,
            "QCA {} vs unit {}",
            q.buffers,
            u.buffers
        );
        assert!(verify_weighted_balance(&qca, &DelayWeights::QCA).is_ok());
    }

    #[test]
    fn nml_even_weights_divide_cleanly_on_mapped_migs() {
        // NML: INV 1, MAJ/BUF/FOG 2 — gaps can be odd around inverters.
        // On a netlist with an INV the algorithm must either balance or
        // report the indivisible gap; on an INV-free netlist (all gaps
        // even) it must succeed.
        let mut n = Netlist::new("even");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        let stats = insert_buffers_weighted(&mut n, &DelayWeights::NML).unwrap();
        assert_eq!(stats.weighted_depth, 4);
        assert!(verify_weighted_balance(&n, &DelayWeights::NML).is_ok());
    }

    #[test]
    fn indivisible_gap_is_reported_and_netlist_untouched() {
        // NML weights: INV weight 1 creates an odd gap that weight-2
        // buffers cannot tile.
        let mut n = Netlist::new("odd");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let inv = n.add_inv(a);
        let g = n.add_maj([inv, b, a]);
        n.add_output("f", g);
        let before = n.clone();
        match insert_buffers_weighted(&mut n, &DelayWeights::NML) {
            Err(WeightedBalanceError::IndivisibleGap {
                gap, buf_weight, ..
            }) => {
                assert_eq!(gap % buf_weight, gap % 2);
                assert_eq!(buf_weight, 2);
            }
            other => panic!("expected IndivisibleGap, got {other:?}"),
        }
        assert_eq!(n.len(), before.len(), "failed balancing must not mutate");
    }

    #[test]
    fn zero_buffer_weight_is_rejected() {
        let mut n = mapped_sample(62);
        let bad = DelayWeights {
            buf: 0,
            ..DelayWeights::UNIT
        };
        assert_eq!(
            insert_buffers_weighted(&mut n, &bad),
            Err(WeightedBalanceError::ZeroBufferWeight)
        );
    }

    #[test]
    fn weighted_depth_reflects_slow_inverters() {
        let mut n = Netlist::new("slow");
        let a = n.add_input("a");
        let inv = n.add_inv(a);
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([inv, b, c]);
        n.add_output("f", g);
        let arr = weighted_arrivals(&n, &DelayWeights::QCA);
        assert_eq!(arr[inv.index()], 7);
        assert_eq!(arr[g.index()], 9);
    }
}
