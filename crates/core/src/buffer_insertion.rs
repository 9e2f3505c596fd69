//! Buffer insertion — Algorithm 1 of the paper (§III), the one
//! path-balancing kernel behind every buffer strategy.
//!
//! Balances every path of the netlist so that (a) all paths between any
//! two connected components have equal length and (b) all primary
//! outputs sit at the same base distance. After the pass, **every edge
//! spans exactly one level** (one weight, in general), which is the
//! static condition for coherent wave propagation under the three-phase
//! clock of Fig 4.
//!
//! The kernel (`balance_paths`) follows the paper's greedy: for each
//! driving component, its fan-out is sorted by the arrival each
//! consumer needs it at (`getMaxxBD` / `sortFanOut` in Algorithm 1) and
//! a *single shared chain* of buffers is grown off the driver, with each
//! consumer tapping the chain where it reaches that arrival (`lastBD` in
//! the pseudocode tracks the chain head). Sharing one chain instead of
//! one chain per edge is what makes the greedy buffer-minimal for a
//! fixed arrival assignment, and it never violates a fan-out bound
//! `k ≥ 2` that the input netlist already satisfies: a chain tap drives
//! the consumers of one arrival plus at most one next-chain buffer,
//! which is at most the driver's original fan-out.
//!
//! Primary outputs are handled in the same sweep by treating each output
//! as a pseudo-consumer that needs its driver at the deepest output
//! arrival (the algorithm's final padding loop, lines 11–14).
//!
//! The kernel has two inputs besides the netlist: an arrival time per
//! component and the [`DelayWeights`]. A consumer needs its driver at
//! `arrival(consumer) − weight(consumer)`, and the chain grows in steps
//! of `weights.buf`. Every [`BufferStrategy`] is one choice of the two:
//! ASAP levels or hill-climbed retimed levels under
//! [`DelayWeights::UNIT`], weighted arrivals under explicit weights, or
//! the phase weights of the run's cost model (see [`crate::weighted`]).

use std::sync::Arc;

use crate::component::{CompId, ComponentKind};
use crate::netlist::Netlist;
use crate::pipeline::{BufferStrategy, FlowContext, Pass, PassError, PassKind};
use crate::weighted::{DelayWeights, WeightedBalanceError};

/// Statistics returned by [`insert_buffers`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BufferInsertion {
    /// Buffers inserted between internal components (first loop of
    /// Algorithm 1).
    pub balancing_buffers: usize,
    /// Buffers inserted to pad shallow outputs to the deepest output
    /// (second loop of Algorithm 1).
    pub padding_buffers: usize,
    /// Depth of the balanced netlist (= common base distance of all
    /// outputs).
    pub depth: u32,
}

impl BufferInsertion {
    /// Total buffers inserted.
    pub fn total(&self) -> usize {
        self.balancing_buffers + self.padding_buffers
    }
}

/// Runs Algorithm 1 on `netlist` in place, using its current (ASAP)
/// levels, and returns insertion statistics.
///
/// Constant cells are skipped on both sides: they carry no wave, so
/// edges from constants need no balancing, and constant-driven outputs
/// need no padding.
///
/// # Examples
///
/// ```
/// use wavepipe::{insert_buffers, verify_balance, Netlist};
///
/// let mut n = Netlist::new("skewed");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let g1 = n.add_maj([a, b, c]);
/// let g2 = n.add_maj([g1, a, b]); // a, b arrive 1 level early
/// n.add_output("f", g2);
///
/// let stats = insert_buffers(&mut n);
/// assert_eq!(stats.balancing_buffers, 2);
/// assert!(verify_balance(&n, None).is_ok());
/// ```
pub fn insert_buffers(netlist: &mut Netlist) -> BufferInsertion {
    insert_buffers_with_levels(netlist, &netlist.levels())
}

/// [`insert_buffers`] with an explicit level assignment.
///
/// `levels` must be *feasible*: `levels[v] ≥ levels[u] + 1` for every
/// edge `u → v` with non-constant `u`, and `levels[input] = 0`. The ASAP
/// levels from [`Netlist::levels`] are always feasible; the retiming
/// module produces alternative feasible assignments that can need fewer
/// buffers.
///
/// # Panics
///
/// Panics if `levels` is infeasible or shorter than the netlist.
pub fn insert_buffers_with_levels(netlist: &mut Netlist, levels: &[u32]) -> BufferInsertion {
    let fanout = netlist.fanout_edges();
    balance_paths(netlist, levels, &DelayWeights::UNIT, &fanout)
        .expect("unit-weight buffers tile every gap")
}

/// Algorithm 1's shared-chain greedy against `arrival` under `weights`
/// — the one function that grows buffer chains.
///
/// A consumer `c` needs its driver at `arrival[c] − weight(c)`, and
/// every non-constant output needs its driver at the deepest
/// non-constant output arrival, which is also the returned depth. The
/// returned statistics split the buffers by the use they were grown
/// for.
///
/// # Errors
///
/// [`WeightedBalanceError::ZeroBufferWeight`], or
/// [`WeightedBalanceError::IndivisibleGap`] when a gap is not a multiple
/// of `weights.buf`. Every gap is checked before the first buffer is
/// added, so the netlist is untouched on error.
///
/// # Panics
///
/// Panics if `arrival` or `fanout` does not cover every component, or
/// if `arrival` is infeasible (a consumer needs its driver before the
/// driver arrives).
pub(crate) fn balance_paths(
    netlist: &mut Netlist,
    arrival: &[u32],
    weights: &DelayWeights,
    fanout: &[Vec<(CompId, usize)>],
) -> Result<BufferInsertion, WeightedBalanceError> {
    assert!(
        arrival.len() >= netlist.len() && fanout.len() >= netlist.len(),
        "arrival times and fan-out snapshot must cover every component"
    );
    if weights.buf == 0 {
        return Err(WeightedBalanceError::ZeroBufferWeight);
    }
    const INFEASIBLE: &str = "infeasible level assignment: consumer below its driver";
    let is_const =
        |netlist: &Netlist, id: CompId| netlist.component(id).kind() == ComponentKind::Const;
    let required = |netlist: &Netlist, consumer: CompId| {
        arrival[consumer.index()]
            .checked_sub(weights.of(netlist.component(consumer).kind()))
            .expect(INFEASIBLE)
    };

    // The set of drivers to process is inputs ∪ gates, per Algorithm
    // 1's Union — everything present before mutation starts.
    let original_len = netlist.len();
    // Deepest non-constant output arrival = padding target.
    let depth = netlist.depth_from_levels(arrival);
    // Output uses per driver (positions into the outputs list).
    let mut output_uses: Vec<Vec<usize>> = vec![Vec::new(); original_len];
    for (position, p) in netlist.outputs().iter().enumerate() {
        output_uses[p.driver.index()].push(position);
    }

    // Heavier buffers may leave gaps no chain can fill: check them all
    // before mutating anything.
    if weights.buf > 1 {
        for idx in 0..original_len {
            let from = CompId::from_index(idx);
            if is_const(netlist, from) {
                continue;
            }
            let gate_needs = fanout[idx]
                .iter()
                .map(|&(to, _)| (to, required(netlist, to)));
            let output_needs = output_uses[idx].iter().map(|_| (from, depth));
            for (to, need) in gate_needs.chain(output_needs) {
                let gap = need.checked_sub(arrival[idx]).expect(INFEASIBLE);
                if !gap.is_multiple_of(weights.buf) {
                    return Err(WeightedBalanceError::IndivisibleGap {
                        from,
                        to,
                        gap,
                        buf_weight: weights.buf,
                    });
                }
            }
        }
    }

    #[derive(Clone, Copy)]
    enum Use {
        Gate { consumer: CompId, slot: usize },
        Output { position: usize },
    }
    let mut stats = BufferInsertion {
        depth,
        ..BufferInsertion::default()
    };
    let mut uses: Vec<(u32, Use)> = Vec::new();
    for idx in 0..original_len {
        let comp = CompId::from_index(idx);
        if is_const(netlist, comp) {
            continue;
        }
        uses.clear();
        uses.extend(
            fanout[idx].iter().map(|&(consumer, slot)| {
                (required(netlist, consumer), Use::Gate { consumer, slot })
            }),
        );
        uses.extend(
            output_uses[idx]
                .iter()
                .map(|&position| (depth, Use::Output { position })),
        );
        // Algorithm 1: sortFanOut by max xBD (ascending required arrival).
        uses.sort_by_key(|&(required, _)| required);

        // Grow one shared chain; `chain_arrival` is the arrival of the
        // chain head (initially the component itself).
        let mut chain_head = comp;
        let mut chain_arrival = arrival[idx];
        for &(required, u) in &uses {
            assert!(required >= arrival[idx], "{INFEASIBLE}");
            while chain_arrival < required {
                chain_head = netlist.add_buf(chain_head);
                chain_arrival += weights.buf;
                match u {
                    Use::Gate { .. } => stats.balancing_buffers += 1,
                    Use::Output { .. } => stats.padding_buffers += 1,
                }
            }
            match u {
                Use::Gate { consumer, slot } => {
                    netlist.component_mut(consumer).fanins_mut()[slot] = chain_head;
                }
                Use::Output { position } => netlist.set_output_driver(position, chain_head),
            }
        }
    }
    Ok(stats)
}

/// The one buffer-insertion pass: each [`BufferStrategy`] picks the
/// arrival times and weights it hands to [`balance_paths`]. Unit-weight
/// strategies deposit [`BufferInsertion`] statistics in the context;
/// weighted ones (and cost-aware insertion under non-unit phase
/// weights) deposit [`crate::WeightedInsertion`] statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct InsertBuffersPass {
    pub(crate) strategy: BufferStrategy,
}

impl Pass for InsertBuffersPass {
    fn name(&self) -> String {
        let strategy = match self.strategy {
            BufferStrategy::Asap => "asap",
            BufferStrategy::Retimed => "retimed",
            BufferStrategy::Weighted(_) => "weighted",
            BufferStrategy::CostAware => "cost-aware",
        };
        format!("insert_buffers({strategy})")
    }

    fn kind(&self) -> PassKind {
        PassKind::BufferInsertion
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let weights = match self.strategy {
            BufferStrategy::Asap | BufferStrategy::Retimed => DelayWeights::UNIT,
            BufferStrategy::Weighted(weights) => weights,
            BufferStrategy::CostAware => {
                DelayWeights::for_cost_model(ctx.require_cost_model("cost-aware buffer insertion")?)
            }
        };
        let arrival = match self.strategy {
            BufferStrategy::Retimed => {
                Arc::new(crate::retiming::schedule_levels(ctx.netlist()).retimed)
            }
            _ => ctx.arrivals(&weights)?,
        };
        let fanout = ctx.fanout_edges();
        let stats = balance_paths(ctx.netlist_mut(), &arrival, &weights, &fanout)?;
        if weights == DelayWeights::UNIT && !matches!(self.strategy, BufferStrategy::Weighted(_)) {
            ctx.buffers = Some(stats);
        } else {
            ctx.weighted = Some(crate::WeightedInsertion::from_kernel(stats));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::verify_balance;
    use crate::from_mig::netlist_from_mig;

    fn eval_all(netlist: &Netlist, n: usize) -> Vec<Vec<bool>> {
        (0..1u32 << n)
            .map(|p| {
                let bits: Vec<bool> = (0..n).map(|i| p >> i & 1 != 0).collect();
                netlist.eval(&bits)
            })
            .collect()
    }

    #[test]
    fn already_balanced_netlist_needs_no_buffers() {
        let mut n = Netlist::new("bal");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.depth, 1);
        assert!(verify_balance(&n, None).is_ok());
    }

    #[test]
    fn skewed_edge_gets_buffers() {
        let mut n = Netlist::new("skew");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        let before = eval_all(&n, 3);
        let stats = insert_buffers(&mut n);
        // a and b each need 1 buffer to reach level 1 before g2.
        assert_eq!(stats.balancing_buffers, 2);
        assert_eq!(stats.padding_buffers, 0);
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 3), before, "buffers are transparent");
    }

    #[test]
    fn chain_is_shared_across_consumers() {
        // One driver feeding consumers at levels 2, 3, 4 should build
        // one chain of 3 buffers with taps, not 1+2+3 = 6 buffers.
        let mut n = Netlist::new("share");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let l1 = n.add_maj([a, b, c]);
        let l2 = n.add_maj([l1, a, b]); // consumes a at level 2
        let l3 = n.add_maj([l2, a, c]); // consumes a at level 3
        n.add_output("f", l3);
        let before = eval_all(&n, 3);
        let stats = insert_buffers(&mut n);
        // `a` needs taps at levels 1 and 2 → 2 buffers (shared chain);
        // b: tap at level 1 (for l2): 1 buffer; c: tap at level 2 (for
        // l3): 2 buffers; plus l1→l2 and l2→l3 are tight already.
        assert_eq!(stats.balancing_buffers, 5);
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 3), before);
    }

    #[test]
    fn outputs_are_padded_to_common_depth() {
        let mut n = Netlist::new("pad");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("deep", g2);
        n.add_output("shallow", g1);
        let before = eval_all(&n, 3);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.padding_buffers, 1, "shallow output padded by 1");
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 3), before);
    }

    #[test]
    fn constant_outputs_are_ignored() {
        let mut n = Netlist::new("c");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let k1 = n.add_const(true);
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        n.add_output("k", k1);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.total(), 0);
        assert!(verify_balance(&n, None).is_ok());
    }

    #[test]
    fn respects_fanout_limit_of_prerestricted_netlist() {
        // Driver with fan-out 3 to different levels; after buffering the
        // max fan-out must not exceed 3.
        let mut n = Netlist::new("fo3");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, b, c]);
        let g3 = n.add_maj([g2, a, b]); // `a` used at levels 1, 3 — fan-out 2… keep ≤ 3
        n.add_output("f", g3);
        let max_before = n.max_fanout();
        insert_buffers(&mut n);
        assert!(max_before <= 3);
        assert!(
            n.max_fanout() <= 3,
            "buffering must not blow the fan-out bound"
        );
        assert!(verify_balance(&n, Some(3)).is_ok());
    }

    #[test]
    fn mapped_mig_balances_and_preserves_function() {
        let mut g = mig::Mig::new();
        let x = g.add_inputs("x", 4);
        let (s0, c0) = g.add_full_adder(x[0], x[1], x[2]);
        let (s1, c1) = g.add_full_adder(s0, c0, x[3]);
        g.add_output("s", s1);
        g.add_output("c", c1);
        let mut n = netlist_from_mig(&g);
        let before = eval_all(&n, 4);
        let stats = insert_buffers(&mut n);
        assert!(stats.total() > 0);
        assert!(verify_balance(&n, None).is_ok());
        assert_eq!(eval_all(&n, 4), before);
    }

    #[test]
    fn buffer_count_matches_gap_sum_on_a_fanout_free_chain() {
        // Without fan-out sharing opportunities, the buffer count is the
        // sum of level gaps minus edges.
        let mut n = Netlist::new("gaps");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g1 = n.add_maj([a, b, c]); // level 1
        let g2 = n.add_maj([g1, g1, g1]); // degenerate but level 2
        let g3 = n.add_maj([g2, g2, d]); // d jumps 0 → 2: 2 buffers
        n.add_output("f", g3);
        let stats = insert_buffers(&mut n);
        assert_eq!(stats.balancing_buffers, 2);
    }
}
