//! Delay weights and weighted arrival times — the parameters of the
//! one path-balancing kernel.
//!
//! Section III keeps the algorithm "technology-agnostic by assuming
//! generic components", but notes that "we have included in the
//! implementation the possibility to adjust component weights so that
//! the final result can be tailored to different technologies". So
//! there is one balancing algorithm (the shared-chain greedy in
//! [`crate::buffer_insertion`]) and one arrival walk
//! (`arrivals_from_order`), and [`DelayWeights`] is their only
//! parameter: every component kind carries an integer delay in clock
//! phases, a consumer needs its driver at `arrival(consumer) −
//! weight(consumer)`, and gaps are filled with chains of buffers of
//! weight [`DelayWeights::buf`].
//!
//! Each [`crate::BufferStrategy`] is one setting of that parameter:
//!
//! * **ASAP** — [`DelayWeights::UNIT`] on the ASAP levels, which are the
//!   unit-weight arrivals ([`crate::insert_buffers`]);
//! * **retimed** — [`DelayWeights::UNIT`] on hill-climbed levels
//!   ([`crate::insert_buffers_retimed`]);
//! * **weighted** — explicit weights on their weighted arrivals
//!   ([`insert_buffers_weighted`]);
//! * **cost-aware** — [`DelayWeights::for_cost_model`] of the run's
//!   technology.
//!
//! With QCA-style weights (INV 7, MAJ 2, BUF 1, FOG 2) an inverter
//! occupies seven clock phases and its sibling paths receive seven
//! phases of buffering — which is why the paper's generic results use
//! unit weights: weighted balancing pays a real buffer premium around
//! slow components (quantified by the `ablation_weighted` comparison in
//! the bench crate's harness tests).
//!
//! Verification is likewise one set of walkers in [`crate::balance`]
//! parameterized by the weights: [`verify_weighted_balance`] and
//! [`crate::verify_balance`] differ only in the weights they pass and
//! in how they word a violation.

use std::fmt;

use crate::balance::BalanceError;
use crate::buffer_insertion::{balance_paths, BufferInsertion};
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
    /// A weighted arrival time does not fit in `u32` (the weights are
    /// too large for the netlist's depth).
    ArrivalOverflow {
        /// The first component, in topological order, whose arrival
        /// overflows.
        at: CompId,
    },
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
            WeightedBalanceError::ArrivalOverflow { at } => write!(
                f,
                "weighted arrival of {at} exceeds {} clock phases",
                u32::MAX
            ),
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

impl WeightedInsertion {
    /// The weighted view of the kernel's statistics: its depth is the
    /// common weighted output arrival.
    pub(crate) fn from_kernel(stats: BufferInsertion) -> WeightedInsertion {
        WeightedInsertion {
            buffers: stats.total(),
            weighted_depth: stats.depth,
        }
    }
}

/// The one arrival walk: `arrival(v) = weight(v) + max over
/// non-constant fan-ins of arrival(u)` along `order`; inputs and
/// constants arrive at 0. Under [`DelayWeights::UNIT`] these are the
/// ASAP levels ([`Netlist::levels`]).
///
/// # Errors
///
/// [`WeightedBalanceError::ArrivalOverflow`] when an arrival does not
/// fit in `u32`.
pub(crate) fn arrivals_from_order(
    netlist: &Netlist,
    order: &[CompId],
    weights: &DelayWeights,
) -> Result<Vec<u32>, WeightedBalanceError> {
    let mut arrival = vec![0u32; netlist.len()];
    for &id in order {
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
        arrival[id.index()] = max_in
            .checked_add(weights.of(comp.kind()))
            .ok_or(WeightedBalanceError::ArrivalOverflow { at: id })?;
    }
    Ok(arrival)
}

/// Computes weighted arrival times: `arrival(v) = weight(v) + max over
/// non-constant fan-ins of arrival(u)`; inputs and constants arrive at 0.
///
/// # Panics
///
/// Panics if an arrival does not fit in `u32`;
/// [`insert_buffers_weighted`] and [`verify_weighted_balance`] report
/// that case as an error instead.
pub fn weighted_arrivals(netlist: &Netlist, weights: &DelayWeights) -> Vec<u32> {
    arrivals_from_order(netlist, &netlist.topo_order(), weights).unwrap_or_else(|e| panic!("{e}"))
}

/// Balances weighted path delays in place.
///
/// After success, for every edge `u → v` (non-constant `u`) the
/// weighted arrival of `v`'s fan-in side equals `arrival(v) −
/// weight(v)`, and all non-constant outputs share one weighted arrival.
/// Buffer chains are shared per driver: this is the one balancing
/// kernel, run on the weighted arrivals.
///
/// # Errors
///
/// Returns [`WeightedBalanceError::IndivisibleGap`] when a gap cannot be
/// tiled by buffers (impossible when `weights.buf == 1`, the case for
/// SWD and QCA), [`WeightedBalanceError::ZeroBufferWeight`], or
/// [`WeightedBalanceError::ArrivalOverflow`]. The netlist is untouched
/// on error.
pub fn insert_buffers_weighted(
    netlist: &mut Netlist,
    weights: &DelayWeights,
) -> Result<WeightedInsertion, WeightedBalanceError> {
    let arrival = arrivals_from_order(netlist, &netlist.topo_order(), weights)?;
    let fanout = netlist.fanout_edges();
    balance_paths(netlist, &arrival, weights, &fanout).map(WeightedInsertion::from_kernel)
}

/// Verifies the weighted balancing invariants (the weighted analogue of
/// [`crate::verify_balance`], through the same walkers) and returns the
/// common weighted arrival of the outputs.
///
/// # Errors
///
/// A description of the first unbalanced edge or misaligned output, or
/// of an arrival overflow.
pub fn verify_weighted_balance(netlist: &Netlist, weights: &DelayWeights) -> Result<u32, String> {
    let arrival =
        arrivals_from_order(netlist, &netlist.topo_order(), weights).map_err(|e| e.to_string())?;
    crate::balance::check_balance(netlist, &arrival, weights)
        .map_err(|e| describe_weighted_violation(netlist, weights, &e))
}

/// Words a balance violation found under `weights` in arrival times
/// rather than levels.
pub(crate) fn describe_weighted_violation(
    netlist: &Netlist,
    weights: &DelayWeights,
    violation: &BalanceError,
) -> String {
    match violation {
        BalanceError::EdgeSpan {
            from,
            to,
            from_level,
            to_level,
        } => {
            let fires = to_level - weights.of(netlist.component(*to).kind());
            format!(
                "edge {from} → {to}: fan-in arrives at {from_level} but the gate fires at {fires}"
            )
        }
        BalanceError::OutputMisaligned {
            first_level,
            other,
            other_level,
            ..
        } => format!("output `{other}` arrives at {other_level}, earlier outputs at {first_level}"),
        BalanceError::FanoutExceeded { .. } => violation.to_string(),
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
    fn overflowing_arrivals_are_errors_and_leave_the_netlist_untouched() {
        let mut n = mapped_sample(63);
        let len = n.len();
        let huge = DelayWeights {
            inv: u32::MAX,
            maj: u32::MAX,
            buf: 1,
            fog: u32::MAX,
        };
        let err = insert_buffers_weighted(&mut n, &huge).unwrap_err();
        assert!(
            matches!(err, WeightedBalanceError::ArrivalOverflow { .. }),
            "{err:?}"
        );
        assert_eq!(n.len(), len, "failed balancing must not mutate");
        assert_eq!(
            verify_weighted_balance(&n, &huge).unwrap_err(),
            err.to_string()
        );
    }

    #[test]
    fn weighted_verification_words_violations_as_arrivals() {
        let mut n = Netlist::new("skew");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let inv = n.add_inv(a);
        let g = n.add_maj([inv, b, a]);
        n.add_output("f", g);
        n.add_output("g", inv);
        assert_eq!(
            verify_weighted_balance(&n, &DelayWeights::QCA).unwrap_err(),
            format!("edge {b} → {g}: fan-in arrives at 0 but the gate fires at 7")
        );
        insert_buffers_weighted(&mut n, &DelayWeights::QCA).unwrap();
        assert_eq!(verify_weighted_balance(&n, &DelayWeights::QCA), Ok(9));
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
