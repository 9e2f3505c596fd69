//! Slack-aware level retiming — an ablation beyond the paper.
//!
//! Algorithm 1 balances paths against the netlist's ASAP levels (the
//! paper assumes "the input netlist is already optimized for depth" and
//! fixes levels accordingly). But any *feasible* level assignment — one
//! where every edge spans at least one level and the overall depth is
//! unchanged — yields a correct wave pipeline after buffer insertion,
//! and different assignments need different buffer counts.
//!
//! With shared buffer chains, the total buffer count under an assignment
//! `ℓ` is exactly
//!
//! ```text
//! Σ_u  max(0, maxreq(u) − ℓ(u))
//! ```
//!
//! where `maxreq(u)` is the deepest level any consumer of `u` requires
//! (`ℓ(consumer) − 1`, or the output depth for output drivers). This
//! module hill-climbs that objective: in reverse topological order each
//! component is moved one level later while the move strictly reduces
//! the objective — moving a component shortens its own chain by one and
//! extends a fan-in's chain only when the component was that fan-in's
//! deepest consumer. The classic win is a shallow component hanging off
//! a driver that already feeds a deep chain: the component slides up
//! under the existing chain for free.

use crate::buffer_insertion::{insert_buffers_with_levels, BufferInsertion};
use crate::component::{CompId, ComponentKind};
use crate::netlist::Netlist;

/// ASAP and ALAP levels plus the retimed assignment.
#[derive(Clone, Debug)]
pub struct LevelSchedule {
    /// As-soon-as-possible levels (= [`Netlist::levels`]).
    pub asap: Vec<u32>,
    /// As-late-as-possible levels w.r.t. the ASAP output depth.
    pub alap: Vec<u32>,
    /// The retimed assignment chosen by the hill-climb.
    pub retimed: Vec<u32>,
}

impl LevelSchedule {
    /// Total slack (Σ alap − asap) — how much freedom the retimer had.
    pub fn total_slack(&self) -> u64 {
        self.asap
            .iter()
            .zip(&self.alap)
            .map(|(&a, &l)| u64::from(l - a))
            .sum()
    }

    /// Exact buffer count Algorithm 1 will insert under `levels`.
    pub fn buffer_cost(netlist: &Netlist, levels: &[u32]) -> u64 {
        let fanout = netlist.fanout_edges();
        let depth = netlist
            .outputs()
            .iter()
            .filter(|p| netlist.component(p.driver).kind() != ComponentKind::Const)
            .map(|p| levels[p.driver.index()])
            .max()
            .unwrap_or(0);
        let mut output_driver = vec![false; netlist.len()];
        for p in netlist.outputs() {
            if netlist.component(p.driver).kind() != ComponentKind::Const {
                output_driver[p.driver.index()] = true;
            }
        }
        let mut total = 0u64;
        for id in netlist.ids() {
            if netlist.component(id).kind() == ComponentKind::Const {
                continue;
            }
            let mut maxreq: Option<u32> = None;
            for &(c, _) in &fanout[id.index()] {
                maxreq =
                    Some(maxreq.map_or(levels[c.index()] - 1, |m| m.max(levels[c.index()] - 1)));
            }
            if output_driver[id.index()] {
                maxreq = Some(maxreq.map_or(depth, |m| m.max(depth)));
            }
            if let Some(m) = maxreq {
                total += u64::from(m.saturating_sub(levels[id.index()]));
            }
        }
        total
    }
}

/// Computes ASAP/ALAP levels and the retimed assignment for `netlist`.
///
/// The returned assignment is always feasible: inputs stay at level 0,
/// every edge spans ≥ 1 level, no component moves past the output depth,
/// and the buffer cost never exceeds the ASAP cost.
pub fn schedule_levels(netlist: &Netlist) -> LevelSchedule {
    let asap = netlist.levels();
    let order = netlist.topo_order();
    let n = netlist.len();
    let fanout = netlist.fanout_edges();

    let is_const = |id: CompId| netlist.component(id).kind() == ComponentKind::Const;
    let is_movable = |id: CompId| {
        !matches!(
            netlist.component(id).kind(),
            ComponentKind::Const | ComponentKind::Input
        )
    };

    let depth = netlist
        .outputs()
        .iter()
        .filter(|p| !is_const(p.driver))
        .map(|p| asap[p.driver.index()])
        .max()
        .unwrap_or(0);
    let mut output_driver = vec![false; n];
    for p in netlist.outputs() {
        if !is_const(p.driver) {
            output_driver[p.driver.index()] = true;
        }
    }

    // ALAP by pulling back from `depth` through consumers.
    let mut alap = vec![depth; n];
    for &id in order.iter().rev() {
        for &f in netlist.component(id).fanins() {
            if is_const(f) {
                continue;
            }
            let bound = alap[id.index()].saturating_sub(1);
            if alap[f.index()] > bound {
                alap[f.index()] = bound;
            }
        }
    }
    for i in 0..n {
        let id = CompId::from_index(i);
        // Pinned components get no slack; movable ones never below ASAP.
        if !is_movable(id) || alap[i] < asap[i] {
            alap[i] = asap[i];
        }
    }

    // Hill-climb in reverse topological order (consumers final first).
    let mut retimed = asap.clone();
    for &id in order.iter().rev() {
        if !is_movable(id) {
            continue;
        }
        // Feasibility bound: one below the shallowest consumer; output
        // drivers may not pass the common output depth.
        let mut ub = if output_driver[id.index()] {
            depth
        } else {
            u32::MAX
        };
        for &(c, _) in &fanout[id.index()] {
            ub = ub.min(retimed[c.index()] - 1);
        }
        if ub == u32::MAX {
            continue; // dangling component: leave at ASAP
        }

        while retimed[id.index()] < ub {
            let next = retimed[id.index()] + 1;
            // Moving up saves one buffer on our own chain (ub ≤ maxreq
            // guarantees the chain is non-empty) and costs one buffer on
            // every fan-in whose chain we were already the deepest
            // consumer of.
            let mut extensions = 0u32;
            for &f in netlist.component(id).fanins() {
                if is_const(f) {
                    continue;
                }
                let mut maxreq_other: Option<u32> = None;
                for &(c, _) in &fanout[f.index()] {
                    if c == id {
                        continue;
                    }
                    let r = retimed[c.index()] - 1;
                    maxreq_other = Some(maxreq_other.map_or(r, |m| m.max(r)));
                }
                if output_driver[f.index()] {
                    maxreq_other = Some(maxreq_other.map_or(depth, |m| m.max(depth)));
                }
                // We require the driver at level `next − 1`.
                let covered =
                    maxreq_other.map_or(retimed[f.index()], |m| m.max(retimed[f.index()]));
                if next - 1 > covered {
                    extensions += 1;
                }
            }
            if extensions >= 1 {
                break; // strict improvement only
            }
            retimed[id.index()] = next;
        }
    }

    LevelSchedule {
        asap,
        alap,
        retimed,
    }
}

/// Runs buffer insertion against the retimed levels instead of ASAP.
///
/// Produces a balanced netlist of identical depth and function; on
/// netlists with shallow components hanging off deeply-shared drivers it
/// needs measurably fewer buffers (see the `ablation_retiming` harness).
pub fn insert_buffers_retimed(netlist: &mut Netlist) -> BufferInsertion {
    let schedule = schedule_levels(netlist);
    insert_buffers_with_levels(netlist, &schedule.retimed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::verify_balance;
    use crate::buffer_insertion::insert_buffers;
    use crate::from_mig::netlist_from_mig;

    #[test]
    fn retimed_levels_are_feasible() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 150,
            depth: 9,
            seed: 31,
        });
        let n = netlist_from_mig(&g);
        let s = schedule_levels(&n);
        for id in n.ids() {
            assert!(s.alap[id.index()] >= s.asap[id.index()]);
            assert!(s.retimed[id.index()] >= s.asap[id.index()]);
            assert!(s.retimed[id.index()] <= s.alap[id.index()]);
            for &f in n.component(id).fanins() {
                if n.component(f).kind() == ComponentKind::Const {
                    continue;
                }
                assert!(
                    s.retimed[id.index()] > s.retimed[f.index()],
                    "retimed levels must keep edges causal"
                );
            }
        }
    }

    #[test]
    fn retimed_cost_never_exceeds_asap_cost() {
        for seed in 40..48 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 12,
                outputs: 6,
                gates: 250,
                depth: 11,
                seed,
            });
            let n = netlist_from_mig(&g);
            let s = schedule_levels(&n);
            let asap_cost = LevelSchedule::buffer_cost(&n, &s.asap);
            let retimed_cost = LevelSchedule::buffer_cost(&n, &s.retimed);
            assert!(
                retimed_cost <= asap_cost,
                "seed {seed}: retimed {retimed_cost} > asap {asap_cost}"
            );
        }
    }

    #[test]
    fn predicted_cost_matches_actual_insertion() {
        for seed in 50..54 {
            let g = mig::random_mig(mig::RandomMigConfig {
                inputs: 10,
                outputs: 4,
                gates: 180,
                depth: 10,
                seed,
            });
            let n = netlist_from_mig(&g);
            let s = schedule_levels(&n);

            let mut asap_net = n.clone();
            let stats = insert_buffers(&mut asap_net);
            assert_eq!(
                LevelSchedule::buffer_cost(&n, &s.asap),
                stats.total() as u64,
                "cost model must match Algorithm 1 exactly (seed {seed})"
            );

            let mut retimed_net = n.clone();
            let rstats = insert_buffers_retimed(&mut retimed_net);
            assert_eq!(
                LevelSchedule::buffer_cost(&n, &s.retimed),
                rstats.total() as u64
            );
        }
    }

    #[test]
    fn retimed_insertion_is_balanced_and_equivalent() {
        let g = mig::random_mig(mig::RandomMigConfig {
            inputs: 10,
            outputs: 5,
            gates: 200,
            depth: 10,
            seed: 32,
        });
        let base = netlist_from_mig(&g);

        let mut asap_net = base.clone();
        insert_buffers(&mut asap_net);
        let mut retimed_net = base.clone();
        insert_buffers_retimed(&mut retimed_net);

        let ra = verify_balance(&asap_net, None).unwrap();
        let rr = verify_balance(&retimed_net, None).unwrap();
        assert_eq!(ra.depth, rr.depth, "retiming must not change depth");

        for p in 0..64u32 {
            let bits: Vec<bool> = (0..10)
                .map(|i| p.wrapping_mul(2654435761) >> i & 1 != 0)
                .collect();
            assert_eq!(asap_net.eval(&bits), retimed_net.eval(&bits));
        }
    }

    #[test]
    fn shallow_component_slides_under_an_existing_chain() {
        // `a` feeds a deep gate (so its chain reaches level 3 anyway)
        // and an inverter whose only consumer is deep. ASAP pins the
        // inverter at level 1 and pays 3 buffers behind it; the
        // hill-climb slides the inverter up under `a`'s existing chain.
        let mut n = Netlist::new("slide");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let b1 = n.add_buf(b);
        let b2 = n.add_buf(b1);
        let b3 = n.add_buf(b2);
        let b4 = n.add_buf(b3); // level 4 spine
        let inv = n.add_inv(a); // level 1, only consumer is g (level 5)
        let g = n.add_maj([b4, inv, a]); // `a` also needed at level 4
        n.add_output("f", g);
        let _ = c;

        let s = schedule_levels(&n);
        assert_eq!(s.retimed[inv.index()], 4, "inverter slides to level 4");

        let mut asap_net = n.clone();
        let asap_stats = insert_buffers(&mut asap_net);
        let mut retimed_net = n.clone();
        let retimed_stats = insert_buffers_retimed(&mut retimed_net);
        assert!(verify_balance(&retimed_net, None).is_ok());
        assert!(
            retimed_stats.total() < asap_stats.total(),
            "retimed {} should beat asap {}",
            retimed_stats.total(),
            asap_stats.total()
        );
        for p in 0..8u32 {
            let bits: Vec<bool> = (0..3).map(|i| p >> i & 1 != 0).collect();
            assert_eq!(asap_net.eval(&bits), retimed_net.eval(&bits));
        }
    }

    #[test]
    fn total_slack_is_zero_on_rigid_chains() {
        let mut n = Netlist::new("rigid");
        let a = n.add_input("a");
        let b1 = n.add_buf(a);
        let b2 = n.add_buf(b1);
        n.add_output("f", b2);
        let s = schedule_levels(&n);
        assert_eq!(s.total_slack(), 0);
    }
}
