//! The Ω axioms of majority algebra, as rewrite helpers.
//!
//! All helpers take already-built fan-in signals and either construct the
//! rewritten form (returning its signal) or report that the pattern does
//! not apply. Soundness of each axiom is checked exhaustively in the
//! tests at the bottom of this file.

use crate::graph::Mig;
use crate::node::Node;
use crate::signal::Signal;

/// Resolves `s` to majority fan-ins if its node is a gate, propagating an
/// edge complement into the fan-ins via self-duality
/// (`¬⟨x y z⟩ = ⟨x̄ ȳ z̄⟩`), so callers can always pattern-match a plain
/// majority.
pub fn as_majority(graph: &Mig, s: Signal) -> Option<[Signal; 3]> {
    match graph.node(s.node()) {
        Node::Majority(f) => {
            let c = s.is_complement();
            Some([
                f[0].complement_if(c),
                f[1].complement_if(c),
                f[2].complement_if(c),
            ])
        }
        _ => None,
    }
}

/// Ω.A associativity: `⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`.
///
/// Given the fan-ins `(x, u, inner)` where `inner = ⟨y u z⟩` shares `u`,
/// rebuilds the right-hand side with `x` and `z` exchanged. Returns
/// `None` when `inner` is not a gate or shares no fan-in (plain or
/// complemented) with the outer gate. Equivalent to
/// [`associativity_z`] with `z_choice = 1`.
pub fn associativity(graph: &mut Mig, x: Signal, u: Signal, inner: Signal) -> Option<Signal> {
    associativity_z(graph, x, u, inner, 1)
}

/// Ω.A associativity with an explicit choice of the swapped-out signal.
///
/// Handles both forms of the shared fan-in:
///
/// * direct, `inner = ⟨y u z⟩`: `⟨x u ⟨y u z⟩⟩ = ⟨z u ⟨y u x⟩⟩`;
/// * complement-conjugate, `inner = ⟨y ū z⟩`:
///   `⟨x u ⟨y ū z⟩⟩ = ⟨z x ⟨y x u⟩⟩`.
///
/// The two inner fan-ins besides the shared one are the candidates for
/// `z` (the signal lifted out of the inner gate); `z_choice` (0 or 1, in
/// inner fan-in order) selects which — depth optimizers pass the deeper
/// candidate so the critical path shortens. Returns `None` when `inner`
/// is not a gate or holds neither `u` nor `¬u`.
pub fn associativity_z(
    graph: &mut Mig,
    x: Signal,
    u: Signal,
    inner: Signal,
    z_choice: usize,
) -> Option<Signal> {
    let f = as_majority(graph, inner)?;
    let rest = |pos: usize| match pos {
        0 => (f[1], f[2]),
        1 => (f[0], f[2]),
        _ => (f[0], f[1]),
    };
    let pick = |(c0, c1): (Signal, Signal)| {
        if z_choice == 0 {
            (c1, c0) // (y, z)
        } else {
            (c0, c1)
        }
    };
    if let Some(pos) = f.iter().position(|&s| s == u) {
        let (y, z) = pick(rest(pos));
        let new_inner = graph.add_maj(y, u, x);
        return Some(graph.add_maj(z, u, new_inner));
    }
    if let Some(pos) = f.iter().position(|&s| s == !u) {
        let (y, z) = pick(rest(pos));
        let new_inner = graph.add_maj(y, x, u);
        return Some(graph.add_maj(z, x, new_inner));
    }
    None
}

/// Ω.D distributivity, right-to-left:
/// `⟨x y ⟨u v z⟩⟩ = ⟨⟨x y u⟩ ⟨x y v⟩ z⟩`.
///
/// This is the depth-reduction direction: it lifts `z` one level closer
/// to the output at the cost of duplicating the `(x, y)` context. The
/// caller chooses which inner fan-in plays `z` (pass `z_index` 0..3 into
/// the inner gate's fan-ins, complement-resolved).
///
/// Returns `None` when `inner` is not a gate.
pub fn distributivity_rl(
    graph: &mut Mig,
    x: Signal,
    y: Signal,
    inner: Signal,
    z_index: usize,
) -> Option<Signal> {
    let f = as_majority(graph, inner)?;
    let z = f[z_index];
    let (u, v) = match z_index {
        0 => (f[1], f[2]),
        1 => (f[0], f[2]),
        _ => (f[0], f[1]),
    };
    let a = graph.add_maj(x, y, u);
    let b = graph.add_maj(x, y, v);
    Some(graph.add_maj(a, b, z))
}

/// Ω.D distributivity, left-to-right (size-reduction direction):
/// `⟨⟨x y u⟩ ⟨x y v⟩ z⟩ = ⟨x y ⟨u v z⟩⟩`.
///
/// Applies when the first two fan-ins are gates sharing two fan-in
/// signals; saves one node. Returns `None` when the pattern is absent.
pub fn distributivity_lr(graph: &mut Mig, a: Signal, b: Signal, z: Signal) -> Option<Signal> {
    let fa = as_majority(graph, a)?;
    let fb = as_majority(graph, b)?;
    // Find a shared pair (x, y) between fa and fb.
    for i in 0..3 {
        for j in (i + 1)..3 {
            let (x, y) = (fa[i], fa[j]);
            if let Some(pu) = (0..3).find(|&k| fb[k] == x) {
                if let Some(pv) = (0..3).find(|&k| k != pu && fb[k] == y) {
                    let u = fa[3 - i - j];
                    let v = fb[3 - pu - pv];
                    let inner = graph.add_maj(u, v, z);
                    return Some(graph.add_maj(x, y, inner));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PatternBlock, Simulator};

    /// Every output's exhaustive truth table, one masked word per
    /// 64-pattern block.
    fn exhaustive_words(g: &Mig) -> Vec<Vec<u64>> {
        let sim = Simulator::new(g);
        let n = g.input_count();
        (0..PatternBlock::block_count(n))
            .map(|block| {
                let patterns = PatternBlock::exhaustive(n, block);
                let mask = patterns.lane_mask();
                sim.eval_words(patterns.words())
                    .into_iter()
                    .map(|word| word & mask)
                    .collect()
            })
            .collect()
    }

    /// Asserts two single-output builders over `n` inputs are equivalent.
    fn assert_equiv(
        n: usize,
        lhs: impl FnOnce(&mut Mig, &[Signal]) -> Signal + 'static,
        rhs: impl FnOnce(&mut Mig, &[Signal]) -> Signal + 'static,
    ) {
        type Builder = Box<dyn FnOnce(&mut Mig, &[Signal]) -> Signal>;
        let table = |build: Builder| {
            let mut g = Mig::new();
            let ins = g.add_inputs("x", n);
            let f = build(&mut g, &ins);
            g.add_output("f", f);
            exhaustive_words(&g)
        };
        assert_eq!(table(Box::new(lhs)), table(Box::new(rhs)));
    }

    #[test]
    fn associativity_is_sound() {
        assert_equiv(
            4,
            |g, x| {
                let inner = g.add_maj(x[2], x[1], x[3]);
                g.add_maj(x[0], x[1], inner)
            },
            |g, x| {
                let inner = g.add_maj(x[2], x[1], x[3]);
                associativity(g, x[0], x[1], inner).expect("pattern applies")
            },
        );
    }

    #[test]
    fn associativity_requires_shared_fanin() {
        let mut g = Mig::new();
        let ins = g.add_inputs("x", 5);
        let inner = g.add_maj(ins[2], ins[3], ins[4]);
        assert_eq!(associativity(&mut g, ins[0], ins[1], inner), None);
        let input_inner = ins[4];
        assert_eq!(associativity(&mut g, ins[0], ins[1], input_inner), None);
    }

    #[test]
    fn associativity_z_is_sound_for_every_z_choice() {
        for z_choice in 0..2 {
            assert_equiv(
                4,
                |g, x| {
                    let inner = g.add_maj(x[2], x[1], x[3]);
                    g.add_maj(x[0], x[1], inner)
                },
                move |g, x| {
                    let inner = g.add_maj(x[2], x[1], x[3]);
                    associativity_z(g, x[0], x[1], inner, z_choice).expect("pattern applies")
                },
            );
        }
    }

    #[test]
    fn associativity_z_lifts_the_chosen_candidate() {
        // `z_choice` selects which non-shared inner fan-in is swapped out
        // to the outer gate (depth optimizers pass the deeper one); the
        // other stays inside the rebuilt inner gate.
        for z_choice in 0..2 {
            let mut g = Mig::new();
            let ins = g.add_inputs("x", 4);
            let inner = g.add_maj(ins[2], ins[1], ins[3]);
            let f = as_majority(&g, inner).expect("gate");
            let shared = f.iter().position(|&s| s == ins[1]).expect("shares x1");
            let cands: Vec<Signal> = (0..3).filter(|&i| i != shared).map(|i| f[i]).collect();
            let out = associativity_z(&mut g, ins[0], ins[1], inner, z_choice).expect("applies");
            let of = as_majority(&g, out).expect("outer result is a gate");
            assert!(
                of.contains(&cands[z_choice]),
                "z_choice {z_choice} must lift {:?} into the outer gate, got {of:?}",
                cands[z_choice]
            );
        }
    }

    #[test]
    fn associativity_complemented_shared_fanin_is_sound() {
        // Ω.A complement-conjugate form: the inner gate holds ¬u, not u.
        for z_choice in 0..2 {
            assert_equiv(
                4,
                |g, x| {
                    let inner = g.add_maj(x[2], !x[1], x[3]);
                    g.add_maj(x[0], x[1], inner)
                },
                move |g, x| {
                    let inner = g.add_maj(x[2], !x[1], x[3]);
                    associativity_z(g, x[0], x[1], inner, z_choice).expect("pattern applies")
                },
            );
        }
    }

    #[test]
    fn associativity_complemented_form_with_complemented_inner_edge() {
        // The shared-signal search runs on the complement-resolved inner
        // fan-ins, so a complemented inner edge still matches.
        for z_choice in 0..2 {
            assert_equiv(
                4,
                |g, x| {
                    let inner = g.add_maj(x[2], x[1], x[3]);
                    g.add_maj(x[0], x[1], !inner)
                },
                move |g, x| {
                    let inner = g.add_maj(x[2], x[1], x[3]);
                    associativity_z(g, x[0], x[1], !inner, z_choice).expect("pattern applies")
                },
            );
        }
    }

    #[test]
    fn associativity_complemented_form_over_all_shared_positions() {
        // Exhaustive: ¬u at each position of the inner gate, all z
        // choices, checked by truth table over every input assignment.
        fn inner_fanins(x: &[Signal], shared_pos: usize) -> [Signal; 3] {
            let mut f = [x[2], !x[1], x[3]];
            f.swap(1, shared_pos);
            f
        }
        for shared_pos in 0..3 {
            for z_choice in 0..2 {
                assert_equiv(
                    4,
                    move |g, x| {
                        let f = inner_fanins(x, shared_pos);
                        let inner = g.add_maj(f[0], f[1], f[2]);
                        g.add_maj(x[0], x[1], inner)
                    },
                    move |g, x| {
                        let f = inner_fanins(x, shared_pos);
                        let inner = g.add_maj(f[0], f[1], f[2]);
                        associativity_z(g, x[0], x[1], inner, z_choice).expect("pattern applies")
                    },
                );
            }
        }
    }

    #[test]
    fn distributivity_rl_is_sound_for_every_z_choice() {
        for z_index in 0..3 {
            assert_equiv(
                5,
                |g, x| {
                    let inner = g.add_maj(x[2], x[3], x[4]);
                    g.add_maj(x[0], x[1], inner)
                },
                move |g, x| {
                    let inner = g.add_maj(x[2], x[3], x[4]);
                    distributivity_rl(g, x[0], x[1], inner, z_index).expect("pattern applies")
                },
            );
        }
    }

    #[test]
    fn distributivity_rl_handles_complemented_inner() {
        assert_equiv(
            5,
            |g, x| {
                let inner = g.add_maj(x[2], x[3], x[4]);
                g.add_maj(x[0], x[1], !inner)
            },
            |g, x| {
                let inner = g.add_maj(x[2], x[3], x[4]);
                distributivity_rl(g, x[0], x[1], !inner, 1).expect("pattern applies")
            },
        );
    }

    #[test]
    fn distributivity_lr_is_sound_and_saves_a_node() {
        // Build ⟨⟨x y u⟩ ⟨x y v⟩ z⟩ explicitly, then collapse it.
        let mut g = Mig::new();
        let ins = g.add_inputs("x", 5);
        let (x, y, u, v, z) = (ins[0], ins[1], ins[2], ins[3], ins[4]);
        let a = g.add_maj(x, y, u);
        let b = g.add_maj(x, y, v);
        let before = g.add_maj(a, b, z);
        g.add_output("f", before);

        let collapsed = distributivity_lr(&mut g, a, b, z).expect("pattern applies");
        g.add_output("g", collapsed);

        for block in exhaustive_words(&g) {
            assert_eq!(block[0], block[1]);
        }
        // Collapsed form reuses strashed nodes: only inner + outer added.
        let clean = {
            let mut h = Mig::new();
            let ins = h.add_inputs("x", 5);
            let inner = h.add_maj(ins[2], ins[3], ins[4]);
            let f = h.add_maj(ins[0], ins[1], inner);
            h.add_output("f", f);
            h
        };
        assert_eq!(clean.gate_count(), 2, "LR form is two gates, not three");
    }

    #[test]
    fn distributivity_lr_rejects_non_matching_shapes() {
        let mut g = Mig::new();
        let ins = g.add_inputs("x", 6);
        let a = g.add_maj(ins[0], ins[1], ins[2]);
        let b = g.add_maj(ins[3], ins[4], ins[5]);
        assert_eq!(distributivity_lr(&mut g, a, b, ins[0]), None);
        assert_eq!(distributivity_lr(&mut g, ins[0], b, ins[1]), None);
    }

    #[test]
    fn as_majority_resolves_complement() {
        let mut g = Mig::new();
        let ins = g.add_inputs("x", 3);
        let m = g.add_maj(ins[0], ins[1], ins[2]);
        let f = as_majority(&g, !m).expect("gate");
        // Self-duality: fan-ins all complemented.
        for (orig, got) in ins.iter().zip(f) {
            assert_eq!(got, !*orig);
        }
        assert_eq!(as_majority(&g, ins[0]), None);
    }
}
