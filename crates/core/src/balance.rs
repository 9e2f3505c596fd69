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
    verify_balance_prepared(
        netlist,
        fanout_limit,
        &netlist.levels(),
        &netlist.fanout_counts(),
    )
}

/// [`verify_balance`] against already-computed ASAP levels and fan-out
/// counts, so the pipeline's verify pass reuses the
/// [`StructuralCaches`](crate::netlist::StructuralCaches) snapshot the
/// preceding insertion pass already primed.
///
/// # Errors
///
/// As [`verify_balance`].
pub fn verify_balance_prepared(
    netlist: &Netlist,
    fanout_limit: Option<u32>,
    levels: &[u32],
    fanout_counts: &[u32],
) -> Result<BalanceReport, BalanceError> {
    let mut violations = edge_span_violations(netlist, levels)
        .chain(output_misalignments(netlist, levels))
        .chain(
            fanout_limit
                .into_iter()
                .flat_map(|limit| fanout_excess(netlist, fanout_counts, limit)),
        );
    if let Some(violation) = violations.next() {
        return Err(violation);
    }
    let depth = netlist
        .outputs()
        .iter()
        .find(|p| !is_const(netlist, p.driver))
        .map_or(0, |p| levels[p.driver.index()]);
    Ok(BalanceReport {
        depth,
        waves_in_flight: depth.div_ceil(3),
        max_fanout: fanout_counts.iter().copied().max().unwrap_or(0),
    })
}

fn is_const(netlist: &Netlist, id: CompId) -> bool {
    netlist.component(id).kind() == ComponentKind::Const
}

/// Invariant 1: every fan-in edge from a non-constant driver that does
/// not span exactly one level, in component order. Lint rule `WP001`
/// reports the same walk.
pub(crate) fn edge_span_violations<'a>(
    netlist: &'a Netlist,
    levels: &'a [u32],
) -> impl Iterator<Item = BalanceError> + 'a {
    netlist.ids().flat_map(move |to| {
        netlist
            .component(to)
            .fanins()
            .iter()
            .filter(move |&&from| !is_const(netlist, from))
            .filter_map(move |&from| {
                let (from_level, to_level) = (levels[from.index()], levels[to.index()]);
                (to_level != from_level + 1).then_some(BalanceError::EdgeSpan {
                    from,
                    to,
                    from_level,
                    to_level,
                })
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

/// Pipeline pass wrapping [`verify_balance`]: checks structural
/// well-formedness ([`Netlist::validate`]) and the wave-pipelining
/// invariants, and records the [`BalanceReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyBalancePass {
    /// Additionally enforce the §IV fan-out bound when given.
    pub fanout_limit: Option<u32>,
}

impl crate::pipeline::Pass for VerifyBalancePass {
    fn name(&self) -> String {
        match self.fanout_limit {
            Some(limit) => format!("verify(fo≤{limit})"),
            None => "verify".to_owned(),
        }
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::Verify
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        ctx.netlist()
            .validate()
            .map_err(crate::pipeline::PassError::Custom)?;
        let levels = ctx.levels();
        let fanout_counts = ctx.fanout_counts();
        let report =
            verify_balance_prepared(ctx.netlist(), self.fanout_limit, &levels, &fanout_counts)?;
        ctx.report = Some(report);
        Ok(())
    }
}

/// Pipeline pass checking only the fan-out bound — the verification the
/// FOx-only configurations of Fig 8 admit (balance cannot hold without
/// buffer insertion).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FanoutBoundPass {
    /// The fan-out bound to enforce.
    pub limit: u32,
}

impl crate::pipeline::Pass for FanoutBoundPass {
    fn name(&self) -> String {
        format!("check_fanout({})", self.limit)
    }

    fn kind(&self) -> crate::pipeline::PassKind {
        crate::pipeline::PassKind::Verify
    }

    fn run(
        &self,
        ctx: &mut crate::pipeline::FlowContext<'_>,
    ) -> Result<(), crate::pipeline::PassError> {
        ctx.netlist()
            .validate()
            .map_err(crate::pipeline::PassError::Custom)?;
        let counts = ctx.fanout_counts();
        check_fanout_bound(ctx.netlist(), &counts, self.limit)?;
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
