//! Mechanical verification of the wave-pipelining invariants.
//!
//! The paper states proofs of correctness for both algorithms but omits
//! them for brevity (§III, §IV). This module checks the claimed
//! postconditions on every concrete result instead:
//!
//! 1. **Unit-span edges** — every edge from a non-constant component
//!    spans exactly one level, so each wave advances one clock zone per
//!    phase and neighbouring waves can never interfere (Fig 4).
//! 2. **Aligned outputs** — all non-constant primary outputs sit at the
//!    same base distance, so one result wave leaves the circuit per
//!    wave interval.
//! 3. **Fan-out bound** (optional) — no component drives more than `k`
//!    consumers, the §IV feasibility condition for gain-free
//!    technologies.

use std::fmt;

use crate::component::{CompId, ComponentKind};
use crate::netlist::Netlist;
use crate::pipeline::{FlowContext, Pass, PassError, PassKind};
use crate::weighted::{describe_weighted_violation, DelayWeights};

/// A violation of the wave-pipelining invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BalanceError {
    /// An edge spans more (or fewer) than one level.
    EdgeSpan {
        /// Driving component.
        from: CompId,
        /// Consuming component.
        to: CompId,
        /// Level of the driver.
        from_level: u32,
        /// Level of the consumer.
        to_level: u32,
    },
    /// Two non-constant outputs sit at different base distances.
    OutputMisaligned {
        /// Name of the first output.
        first: String,
        /// Level of the first output.
        first_level: u32,
        /// Name of the offending output.
        other: String,
        /// Level of the offending output.
        other_level: u32,
    },
    /// A component exceeds the fan-out bound.
    FanoutExceeded {
        /// The offending component.
        component: CompId,
        /// Its fan-out count.
        fanout: u32,
        /// The bound that was requested.
        limit: u32,
    },
}

impl fmt::Display for BalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BalanceError::EdgeSpan {
                from,
                to,
                from_level,
                to_level,
            } => write!(
                f,
                "edge {from} (level {from_level}) → {to} (level {to_level}) does not span exactly one level"
            ),
            BalanceError::OutputMisaligned {
                first,
                first_level,
                other,
                other_level,
            } => write!(
                f,
                "output `{other}` at level {other_level} misaligned with `{first}` at level {first_level}"
            ),
            BalanceError::FanoutExceeded {
                component,
                fanout,
                limit,
            } => write!(f, "component {component} has fan-out {fanout} > limit {limit}"),
        }
    }
}

impl std::error::Error for BalanceError {}

/// Summary of a netlist that passed verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BalanceReport {
    /// Common base distance of all outputs (= pipeline depth `d`).
    pub depth: u32,
    /// Number of waves simultaneously in flight under three-phase
    /// clocking: `⌈d / 3⌉` (the paper's `N = d/3`).
    pub waves_in_flight: u32,
    /// Largest observed fan-out.
    pub max_fanout: u32,
}

/// Checks the wave-pipelining invariants; `fanout_limit` additionally
/// enforces the §IV bound when given.
///
/// # Errors
///
/// Returns the first [`BalanceError`] found, or `Ok` with a
/// [`BalanceReport`].
///
/// # Examples
///
/// ```
/// use wavepipe::{insert_buffers, verify_balance, Netlist};
///
/// # fn main() -> Result<(), wavepipe::BalanceError> {
/// let mut n = Netlist::new("x");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let c = n.add_input("c");
/// let g1 = n.add_maj([a, b, c]);
/// let g2 = n.add_maj([g1, a, b]);
/// n.add_output("f", g2);
/// assert!(verify_balance(&n, None).is_err(), "skewed before balancing");
///
/// insert_buffers(&mut n);
/// let report = verify_balance(&n, None)?;
/// assert_eq!(report.depth, 2);
/// # Ok(())
/// # }
/// ```
pub fn verify_balance(
    netlist: &Netlist,
    fanout_limit: Option<u32>,
) -> Result<BalanceReport, BalanceError> {
    verify_levels(
        netlist,
        fanout_limit,
        &netlist.levels(),
        &netlist.fanout_counts(),
    )
}

/// [`verify_balance`] against already-computed ASAP levels and fan-out
/// counts (the verify pass reads them from its
/// [`StructuralCaches`](crate::netlist::StructuralCaches) snapshot).
fn verify_levels(
    netlist: &Netlist,
    fanout_limit: Option<u32>,
    levels: &[u32],
    fanout_counts: &[u32],
) -> Result<BalanceReport, BalanceError> {
    let depth = check_balance(netlist, levels, &DelayWeights::UNIT)?;
    if let Some(limit) = fanout_limit {
        check_fanout_bound(netlist, fanout_counts, limit)?;
    }
    Ok(BalanceReport {
        depth,
        waves_in_flight: depth.div_ceil(3),
        max_fanout: fanout_counts.iter().copied().max().unwrap_or(0),
    })
}

/// Invariants 1 and 2 under `weights` against the arrival times
/// `arrival`: the first violation, or the common arrival of the
/// non-constant outputs (0 when there are none). With
/// [`DelayWeights::UNIT`] and ASAP levels this is the level check of
/// [`verify_balance`]; with other weights it is the check behind
/// [`crate::verify_weighted_balance`].
pub(crate) fn check_balance(
    netlist: &Netlist,
    arrival: &[u32],
    weights: &DelayWeights,
) -> Result<u32, BalanceError> {
    let mut violations = edge_span_violations(netlist, arrival, weights)
        .chain(output_misalignments(netlist, arrival));
    if let Some(violation) = violations.next() {
        return Err(violation);
    }
    Ok(netlist
        .outputs()
        .iter()
        .find(|p| !is_const(netlist, p.driver))
        .map_or(0, |p| arrival[p.driver.index()]))
}

fn is_const(netlist: &Netlist, id: CompId) -> bool {
    netlist.component(id).kind() == ComponentKind::Const
}

/// Invariant 1: every fan-in edge from a non-constant driver whose
/// consumer does not arrive exactly its own weight after the driver
/// (one level under unit weights), in component order. Lint rule
/// `WP001` reports the same walk.
pub(crate) fn edge_span_violations<'a>(
    netlist: &'a Netlist,
    levels: &'a [u32],
    weights: &'a DelayWeights,
) -> impl Iterator<Item = BalanceError> + 'a {
    netlist.ids().flat_map(move |to| {
        let span = u64::from(weights.of(netlist.component(to).kind()));
        netlist
            .component(to)
            .fanins()
            .iter()
            .filter(move |&&from| !is_const(netlist, from))
            .filter_map(move |&from| {
                let (from_level, to_level) = (levels[from.index()], levels[to.index()]);
                (u64::from(to_level) != u64::from(from_level) + span).then_some(
                    BalanceError::EdgeSpan {
                        from,
                        to,
                        from_level,
                        to_level,
                    },
                )
            })
    })
}

/// Invariant 2: every non-constant output whose level differs from the
/// first non-constant output's, in output order. Lint rule `WP002`
/// reports the same walk.
pub(crate) fn output_misalignments<'a>(
    netlist: &'a Netlist,
    levels: &'a [u32],
) -> impl Iterator<Item = BalanceError> + 'a {
    let mut outputs = netlist
        .outputs()
        .iter()
        .filter(move |p| !is_const(netlist, p.driver))
        .map(move |p| (p.name.as_str(), levels[p.driver.index()]));
    let first = outputs.next();
    first
        .map(move |(first, first_level)| {
            outputs.filter(move |&(_, level)| level != first_level).map(
                move |(other, other_level)| BalanceError::OutputMisaligned {
                    first: first.to_owned(),
                    first_level,
                    other: other.to_owned(),
                    other_level,
                },
            )
        })
        .into_iter()
        .flatten()
}

/// Invariant 3: every component driving more than `limit` consumers,
/// in component order — the one walk behind the plain, bound-only and
/// cost-aware verifiers and lint rule `WP003`.
pub(crate) fn fanout_excess<'a>(
    netlist: &'a Netlist,
    fanout_counts: &'a [u32],
    limit: u32,
) -> impl Iterator<Item = BalanceError> + 'a {
    netlist.ids().filter_map(move |component| {
        let fanout = fanout_counts[component.index()];
        (fanout > limit).then_some(BalanceError::FanoutExceeded {
            component,
            fanout,
            limit,
        })
    })
}

/// Enforces the §IV fan-out bound against precomputed fan-out counts.
///
/// # Errors
///
/// Returns [`BalanceError::FanoutExceeded`] for the first component
/// over the limit.
pub(crate) fn check_fanout_bound(
    netlist: &Netlist,
    fanout_counts: &[u32],
    limit: u32,
) -> Result<(), BalanceError> {
    fanout_excess(netlist, fanout_counts, limit)
        .next()
        .map_or(Ok(()), Err)
}

/// The one verification pass, in the four forms the pipeline builder
/// offers. Every form first checks structural well-formedness
/// ([`Netlist::validate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum VerifyPass {
    /// Unit-delay balance, plus the §IV bound when given; records the
    /// [`BalanceReport`].
    Balance { fanout_limit: Option<u32> },
    /// Balance under fixed delay weights.
    Weighted(DelayWeights),
    /// Balance under the phase weights of the run's cost model, plus
    /// the §IV bound when given. Unit phase weights verify (and record)
    /// exactly as [`VerifyPass::Balance`].
    CostAware { fanout_limit: Option<u32> },
    /// Only the fan-out bound — the verification the FOx-only
    /// configurations of Fig 8 admit (balance cannot hold without
    /// buffer insertion).
    FanoutBound { limit: u32 },
}

impl Pass for VerifyPass {
    fn name(&self) -> String {
        match *self {
            VerifyPass::Balance {
                fanout_limit: Some(limit),
            } => format!("verify(fo≤{limit})"),
            VerifyPass::Balance { fanout_limit: None } => "verify".to_owned(),
            VerifyPass::Weighted(_) => "verify(weighted)".to_owned(),
            VerifyPass::CostAware { .. } => "verify(cost-aware)".to_owned(),
            VerifyPass::FanoutBound { limit } => format!("check_fanout({limit})"),
        }
    }

    fn kind(&self) -> PassKind {
        PassKind::Verify
    }

    fn run(&self, ctx: &mut FlowContext<'_>) -> Result<(), PassError> {
        let (weights, fanout_limit) = match *self {
            VerifyPass::Balance { fanout_limit } => (Some(DelayWeights::UNIT), fanout_limit),
            VerifyPass::Weighted(weights) => (Some(weights), None),
            VerifyPass::CostAware { fanout_limit } => {
                let table = ctx.require_cost_model("cost-aware verification")?;
                (Some(DelayWeights::for_cost_model(table)), fanout_limit)
            }
            VerifyPass::FanoutBound { limit } => (None, Some(limit)),
        };
        ctx.netlist().validate().map_err(PassError::Custom)?;
        let fanout_counts = ctx.fanout_counts();
        match weights {
            // Unit weights check levels and record the report; the
            // explicit weighted verifier words even unit weights as
            // arrival times.
            Some(DelayWeights::UNIT) if !matches!(self, VerifyPass::Weighted(_)) => {
                let levels = ctx.levels();
                let report = verify_levels(ctx.netlist(), fanout_limit, &levels, &fanout_counts)?;
                ctx.report = Some(report);
                return Ok(());
            }
            Some(weights) => {
                let arrival = ctx.arrivals(&weights)?;
                let netlist = ctx.netlist();
                check_balance(netlist, &arrival, &weights).map_err(|violation| {
                    PassError::Custom(describe_weighted_violation(netlist, &weights, &violation))
                })?;
            }
            None => {}
        }
        if let Some(limit) = fanout_limit {
            check_fanout_bound(ctx.netlist(), &fanout_counts, limit)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_single_gate_passes() {
        let mut n = Netlist::new("ok");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_maj([a, b, c]);
        n.add_output("f", g);
        let r = verify_balance(&n, Some(3)).unwrap();
        assert_eq!(r.depth, 1);
        assert_eq!(r.waves_in_flight, 1);
    }

    #[test]
    fn skewed_edge_is_reported() {
        let mut n = Netlist::new("skew");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([g1, a, b]);
        n.add_output("f", g2);
        match verify_balance(&n, None) {
            Err(BalanceError::EdgeSpan {
                to_level,
                from_level,
                ..
            }) => {
                assert_eq!(to_level, 2);
                assert_eq!(from_level, 0);
            }
            other => panic!("expected EdgeSpan, got {other:?}"),
        }
    }

    #[test]
    fn misaligned_outputs_are_reported() {
        let mut n = Netlist::new("mis");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g1 = n.add_maj([a, b, c]);
        let buf = n.add_buf(g1);
        n.add_output("deep", buf);
        n.add_output("shallow", g1);
        // Edges are all unit-span; only output alignment fails.
        match verify_balance(&n, None) {
            Err(BalanceError::OutputMisaligned { other, .. }) => assert_eq!(other, "shallow"),
            other => panic!("expected OutputMisaligned, got {other:?}"),
        }
    }

    #[test]
    fn fanout_limit_is_enforced() {
        let mut n = Netlist::new("fo");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let d = n.add_input("d");
        let g1 = n.add_maj([a, b, c]);
        let g2 = n.add_maj([a, b, d]);
        let g3 = n.add_maj([a, c, d]);
        let g4 = n.add_maj([g1, g2, g3]);
        n.add_output("f", g4);
        // `a` drives three gates: fine at limit 3, fails at limit 2.
        assert!(verify_balance(&n, Some(3)).is_ok());
        match verify_balance(&n, Some(2)) {
            Err(BalanceError::FanoutExceeded { fanout, limit, .. }) => {
                assert_eq!(fanout, 3);
                assert_eq!(limit, 2);
            }
            other => panic!("expected FanoutExceeded, got {other:?}"),
        }
    }

    #[test]
    fn waves_in_flight_rounds_up() {
        let mut n = Netlist::new("w");
        let a = n.add_input("a");
        let b1 = n.add_buf(a);
        let b2 = n.add_buf(b1);
        let b3 = n.add_buf(b2);
        let b4 = n.add_buf(b3);
        n.add_output("f", b4);
        let r = verify_balance(&n, None).unwrap();
        assert_eq!(r.depth, 4);
        assert_eq!(r.waves_in_flight, 2);
    }

    #[test]
    fn error_messages_are_informative() {
        let e = BalanceError::FanoutExceeded {
            component: CompId::from_index(7),
            fanout: 9,
            limit: 3,
        };
        assert_eq!(e.to_string(), "component c7 has fan-out 9 > limit 3");
    }
}
