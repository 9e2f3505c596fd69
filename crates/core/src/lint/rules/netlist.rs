//! Netlist legality rules (`WP0xx`): the paper's structural
//! wave-pipelining conditions, proven statically from one DP over the
//! cached topological order — no simulation.

use crate::balance::{self, BalanceError};
use crate::component::ComponentKind;
use crate::lint::rules::capped;
use crate::lint::{Category, Diagnostic, LintContext, LintRule, Severity};
use crate::netlist::{Netlist, NetlistError};
use crate::weighted::DelayWeights;

/// `WP001` — every input→component path has equal length.
///
/// The wave-pipelining invariant (§III): a component may only combine
/// signals of the *same* wave, so every non-constant fan-in edge must
/// span exactly one level. Equivalently, the min- and max-length
/// input→component paths coincide everywhere. One DP over the cached
/// levels (themselves one DP over the cached topological order) decides
/// it; any edge spanning ≠ 1 level is a site where waves of different
/// ages would collide.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathBalance;

impl LintRule for PathBalance {
    fn id(&self) -> &'static str {
        "WP001"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "all input→component path lengths equal (unit-span fan-in edges)"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(netlist) = ctx.netlist() else {
            return Vec::new();
        };
        // Cyclic netlists have no levels; WP004 reports the cycle.
        let Some(levels) = ctx.levels() else {
            return Vec::new();
        };
        findings(
            self,
            ctx,
            netlist,
            balance::edge_span_violations(netlist, &levels, &DelayWeights::UNIT),
        )
    }
}

/// `WP002` — all outputs aligned at one common depth.
///
/// A wave is only coherent at the boundary if every output emerges in
/// the same clock phase (Algorithm 1's final padding step). Constant
/// drivers are exempt, as in [`crate::verify_balance`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OutputAlignment;

impl LintRule for OutputAlignment {
    fn id(&self) -> &'static str {
        "WP002"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "all non-constant outputs leave at one common level"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(netlist) = ctx.netlist() else {
            return Vec::new();
        };
        let Some(levels) = ctx.levels() else {
            return Vec::new();
        };
        findings(
            self,
            ctx,
            netlist,
            balance::output_misalignments(netlist, &levels),
        )
    }
}

/// `WP003` — fan-out bounded by the configured §IV limit.
///
/// Majority-based technologies cannot drive unbounded fan-out; the flow
/// restricts every component to `k ∈ 2..=5` consumers with FOG chains.
/// Skipped when the context carries no limit.
#[derive(Clone, Copy, Debug, Default)]
pub struct FanoutLimit;

impl LintRule for FanoutLimit {
    fn id(&self) -> &'static str {
        "WP003"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "every component's fan-out is within the configured §IV limit"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let (Some(netlist), Some(limit)) = (ctx.netlist(), ctx.fanout_limit()) else {
            return Vec::new();
        };
        let Some(counts) = ctx.fanout_counts() else {
            return Vec::new();
        };
        findings(
            self,
            ctx,
            netlist,
            balance::fanout_excess(netlist, &counts, limit),
        )
    }
}

/// Maps the violations one [`crate::verify_balance`] walker yields into
/// a rule's capped diagnostics, worded for a reader of lint output.
fn findings(
    rule: &dyn LintRule,
    ctx: &LintContext<'_>,
    netlist: &Netlist,
    violations: impl Iterator<Item = BalanceError>,
) -> Vec<Diagnostic> {
    let found = violations
        .map(|violation| {
            let (message, provenance) = match violation {
                BalanceError::EdgeSpan {
                    from,
                    to,
                    from_level,
                    to_level,
                } => (
                    format!(
                        "fan-in edge {from} (level {from_level}) → {to} (level {to_level}) spans \
                         {} levels; waves of different ages would collide",
                        to_level as i64 - from_level as i64
                    ),
                    to.to_string(),
                ),
                BalanceError::OutputMisaligned {
                    first,
                    first_level,
                    other,
                    other_level,
                } => (
                    format!(
                        "output `{other}` emerges at level {other_level} but `{first}` at level \
                         {first_level}; the wave front is torn"
                    ),
                    other,
                ),
                BalanceError::FanoutExceeded {
                    component,
                    fanout,
                    limit,
                } => (
                    format!(
                        "{component} ({}) drives {fanout} consumers, over the limit {limit}",
                        netlist.component(component).kind()
                    ),
                    component.to_string(),
                ),
            };
            rule.diagnostic(ctx, message, Some(provenance))
        })
        .collect();
    capped(found)
}

/// `WP004` — no combinational cycles.
///
/// A cyclic netlist has no topological order, no levels, and no wave
/// semantics at all; every other structural rule presupposes this one.
#[derive(Clone, Copy, Debug, Default)]
pub struct CombinationalCycle;

impl LintRule for CombinationalCycle {
    fn id(&self) -> &'static str {
        "WP004"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "the netlist is acyclic"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        match ctx.try_topo_order() {
            Some(Err(NetlistError::CombinationalCycle(id))) => vec![self.diagnostic(
                ctx,
                format!("combinational cycle through {id}"),
                Some(id.to_string()),
            )],
            Some(Err(e)) => vec![self.diagnostic(ctx, e.to_string(), None)],
            _ => Vec::new(),
        }
    }
}

/// `WP005` — structurally well-formed.
///
/// Runs [`Netlist::validate`]: fan-ins and output drivers in bounds,
/// input components agree with the input list, the constant registry is
/// sane. A netlist failing this cannot be meaningfully analyzed.
#[derive(Clone, Copy, Debug, Default)]
pub struct MalformedStructure;

impl LintRule for MalformedStructure {
    fn id(&self) -> &'static str {
        "WP005"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Error
    }

    fn description(&self) -> &'static str {
        "fan-ins, drivers and the constant registry are in bounds"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        match ctx.netlist().map(Netlist::validate) {
            Some(Err(message)) => vec![self.diagnostic(ctx, message, None)],
            _ => Vec::new(),
        }
    }
}

/// `WP006` — no unreachable components.
///
/// Components no output transitively reads are dead area and energy in
/// a technology where every cell is priced; [`Netlist::sweep`] would
/// drop them. Inputs (the declared interface) and the shared constant
/// cells are exempt.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnreachableComponents;

impl LintRule for UnreachableComponents {
    fn id(&self) -> &'static str {
        "WP006"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn description(&self) -> &'static str {
        "every priced component is reachable from some output"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(netlist) = ctx.netlist() else {
            return Vec::new();
        };
        let mut reachable = vec![false; netlist.len()];
        let mut stack: Vec<_> = netlist.outputs().iter().map(|p| p.driver).collect();
        while let Some(id) = stack.pop() {
            if id.index() >= reachable.len() || std::mem::replace(&mut reachable[id.index()], true)
            {
                continue; // out-of-bounds drivers are WP005's finding
            }
            stack.extend_from_slice(netlist.component(id).fanins());
        }
        let mut found = Vec::new();
        for id in netlist.ids() {
            let kind = netlist.component(id).kind();
            if !reachable[id.index()] && kind.is_priced() {
                found.push(self.diagnostic(
                    ctx,
                    format!("{id} ({kind}) is unreachable from every output"),
                    Some(id.to_string()),
                ));
            }
        }
        capped(found)
    }
}

/// `WP007` — no redundant cells.
///
/// Three patterns that cost area/energy without buying balance:
/// a buffer fed by a constant (constants are wave-invariant, the buffer
/// delays nothing), an inverter feeding an inverter (the pair cancels),
/// and a fan-out gate with at most one consumer (it splits nothing).
#[derive(Clone, Copy, Debug, Default)]
pub struct RedundantCells;

impl LintRule for RedundantCells {
    fn id(&self) -> &'static str {
        "WP007"
    }

    fn category(&self) -> Category {
        Category::Netlist
    }

    fn severity(&self) -> Severity {
        Severity::Warning
    }

    fn description(&self) -> &'static str {
        "no const-fed buffers, double inverters or single-consumer FOGs"
    }

    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some(netlist) = ctx.netlist() else {
            return Vec::new();
        };
        let Some(counts) = ctx.fanout_counts() else {
            return Vec::new();
        };
        let mut found = Vec::new();
        for id in netlist.ids() {
            let component = netlist.component(id);
            let fanin_kind = |slot: usize| {
                component
                    .fanins()
                    .get(slot)
                    .filter(|f| f.index() < netlist.len())
                    .map(|&f| netlist.component(f).kind())
            };
            let smell = match component.kind() {
                ComponentKind::Buf if fanin_kind(0) == Some(ComponentKind::Const) => {
                    Some("buffers a constant (constants need no balancing)")
                }
                ComponentKind::Inv if fanin_kind(0) == Some(ComponentKind::Inv) => {
                    Some("double inversion (the pair cancels)")
                }
                ComponentKind::Fog if counts[id.index()] <= 1 => {
                    Some("fan-out gate with at most one consumer (splits nothing)")
                }
                _ => None,
            };
            if let Some(smell) = smell {
                found.push(self.diagnostic(ctx, format!("{id}: {smell}"), Some(id.to_string())));
            }
        }
        capped(found)
    }
}
