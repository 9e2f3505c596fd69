//! The flat evaluation arena: a [`Netlist`] prepared for the
//! simulation hot path.
//!
//! [`Netlist`] stores components in creation order with fan-ins that
//! may point forward — the right shape for transformation passes, and
//! the wrong one for evaluation, which previously chased a separately
//! allocated topological-order vector through a `Vec<Component>` of
//! enum payloads. [`EvalArena`] flattens the netlist **once** into
//! topo-order-contiguous typed ops whose operands are arena slots:
//! op `k` writes slot `k`, every operand slot is `< k`, and one linear
//! walk over a dense `Vec` *is* the evaluation. The arena is what
//! [`crate::NetlistFunction`], [`Netlist::eval_words`] and the
//! differential engine's parallel workers all replay; build it through
//! [`crate::StructuralCaches::eval_arena`] to share one flattening per
//! netlist snapshot.
//!
//! Evaluation is width-generic: [`EvalArena::eval_wide_into`] processes
//! `width` 64-lane words per op, laid out adjacently per slot
//! (`values[slot * width + j]`). At `width == 8` the eight lanes of a
//! slot are exactly one 64-byte cache line, so the random fan-in reads
//! that dominate large-netlist simulation stop wasting 7/8 of every
//! line — that, plus the contiguous layout, is the PR's single-core
//! throughput win. Widths 1/2/4/8 dispatch to monomorphized kernels
//! whose lane loops unroll; other widths share a runtime-width
//! fallback.

use crate::component::{CompId, Component};
use crate::netlist::{Netlist, NetlistError};

/// What an arena op computes. `Buf` and `Fog` cells never become ops:
/// they are functionally the identity, so the flattening aliases them
/// to their source slot ("copy elision") — in buffer-dominated
/// pipelined netlists that removes the majority of all components from
/// the evaluation working set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpKind {
    /// Copy primary input `a` (an input position, not a slot).
    Input,
    /// Constant 0 broadcast.
    Const0,
    /// Constant 1 broadcast.
    Const1,
    /// Majority of slots `a`, `b`, `c`.
    Maj,
    /// Complement of slot `a`.
    Inv,
}

/// One flattened op; operands are arena slots of earlier ops (except
/// [`OpKind::Input`], whose `a` is an input position).
#[derive(Clone, Copy, Debug)]
struct ArenaOp {
    a: u32,
    b: u32,
    c: u32,
    kind: OpKind,
}

/// A [`Netlist`] flattened into topo-order-contiguous typed ops: op
/// `k` writes slot `k`, every operand slot is `< k`, buffers and
/// fan-out splitters are elided (aliased to their source slot), and
/// one linear walk over a dense `Vec` evaluates `64 × width` patterns.
///
/// # Examples
///
/// ```
/// use wavepipe::{EvalArena, Netlist};
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let k0 = n.add_const(false);
/// let g = n.add_maj([a, b, k0]); // a & b
/// n.add_output("f", g);
///
/// let arena = EvalArena::try_new(&n).expect("acyclic");
/// assert_eq!(arena.component_count(), n.len());
/// assert_eq!(arena.eval_words(&[0b1100, 0b1010]), vec![0b1000]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct EvalArena {
    /// Ops in topological order; op `k` writes slot `k`. Shorter than
    /// the source netlist whenever copy elision removed BUF/FOG cells.
    ops: Vec<ArenaOp>,
    /// Slot of each primary output's driver (copy chains resolved).
    outputs: Vec<u32>,
    /// Primary-input count (the expected pattern width).
    inputs: usize,
    /// Component count of the source netlist (for sanity checks).
    components: usize,
    /// `CompId::index()` → arena slot, copy chains resolved (rebuild
    /// scratch, kept for reuse).
    slot_of: Vec<u32>,
    /// DFS visit states (rebuild scratch).
    dfs_state: Vec<u8>,
    /// DFS stack of `(component, next fan-in)` (rebuild scratch).
    dfs_stack: Vec<(CompId, u8)>,
}

impl EvalArena {
    /// Flattens `netlist`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`] when the netlist has no
    /// topological order.
    pub fn try_new(netlist: &Netlist) -> Result<EvalArena, NetlistError> {
        let mut arena = EvalArena::default();
        arena.try_rebuild(netlist)?;
        Ok(arena)
    }

    /// Re-flattens `netlist` into this arena, reusing every internal
    /// buffer — the steady state of a hot caller (e.g. the thread-local
    /// scratch behind [`Netlist::eval_words`]) allocates nothing.
    ///
    /// # Errors
    ///
    /// [`NetlistError::CombinationalCycle`]; the arena contents are
    /// unspecified afterwards (the next successful rebuild resets them).
    pub fn try_rebuild(&mut self, netlist: &Netlist) -> Result<(), NetlistError> {
        let n = netlist.len();
        self.inputs = netlist.inputs().len();
        self.components = n;
        self.ops.clear();
        self.ops.reserve(n);
        self.outputs.clear();
        self.slot_of.clear();
        self.slot_of.resize(n, u32::MAX);
        self.dfs_state.clear();
        self.dfs_state.resize(n, 0); // 0 new, 1 on stack, 2 done
        self.dfs_stack.clear();

        for root in 0..n {
            if self.dfs_state[root] != 0 {
                continue;
            }
            self.dfs_stack.push((CompId::from_index(root), 0));
            self.dfs_state[root] = 1;
            while let Some(&mut (id, ref mut next)) = self.dfs_stack.last_mut() {
                let fanins = netlist.component(id).fanins();
                if usize::from(*next) < fanins.len() {
                    let f = fanins[usize::from(*next)];
                    *next += 1;
                    match self.dfs_state[f.index()] {
                        0 => {
                            self.dfs_state[f.index()] = 1;
                            self.dfs_stack.push((f, 0));
                        }
                        1 => return Err(NetlistError::CombinationalCycle(f)),
                        _ => {}
                    }
                } else {
                    self.dfs_state[id.index()] = 2;
                    // Fan-ins completed before `id`, so their slots are
                    // already assigned (with copy chains pre-resolved).
                    let slot = |f: CompId| self.slot_of[f.index()];
                    let op = match netlist.component(id) {
                        Component::Input { position } => ArenaOp {
                            a: *position,
                            b: 0,
                            c: 0,
                            kind: OpKind::Input,
                        },
                        Component::Const { value } => ArenaOp {
                            a: 0,
                            b: 0,
                            c: 0,
                            kind: if *value {
                                OpKind::Const1
                            } else {
                                OpKind::Const0
                            },
                        },
                        Component::Maj { fanins } => ArenaOp {
                            a: slot(fanins[0]),
                            b: slot(fanins[1]),
                            c: slot(fanins[2]),
                            kind: OpKind::Maj,
                        },
                        Component::Inv { fanin } => ArenaOp {
                            a: slot(*fanin),
                            b: 0,
                            c: 0,
                            kind: OpKind::Inv,
                        },
                        // Copy elision: BUF and FOG are the identity,
                        // so the component aliases its (resolved)
                        // source slot and emits no op at all.
                        Component::Buf { fanin } | Component::Fog { fanin } => {
                            self.slot_of[id.index()] = slot(*fanin);
                            self.dfs_stack.pop();
                            continue;
                        }
                    };
                    self.slot_of[id.index()] = self.ops.len() as u32;
                    self.ops.push(op);
                    self.dfs_stack.pop();
                }
            }
        }

        self.outputs.extend(
            netlist
                .outputs()
                .iter()
                .map(|p| self.slot_of[p.driver.index()]),
        );
        Ok(())
    }

    /// Number of evaluation slots — at most the component count, and
    /// strictly less whenever copy elision removed BUF/FOG cells.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Component count of the netlist this arena was flattened from.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Primary-input count the arena expects per block.
    pub fn input_count(&self) -> usize {
        self.inputs
    }

    /// Primary-output count the arena produces per block.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Evaluates one 64-lane block, allocating the result — the
    /// convenience face of [`EvalArena::eval_wide_into`].
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len()` differs from the input count.
    pub fn eval_words(&self, pattern: &[u64]) -> Vec<u64> {
        let mut values = Vec::new();
        let mut out = Vec::new();
        self.eval_wide_into(pattern, 1, &mut values, &mut out);
        out
    }

    /// Replays the arena on `width` 64-lane blocks: `pattern[i * width
    /// + j]` is word `j` of input `i`; word `j` of output `o` lands at
    /// `out[o * width + j]`. `values` is per-slot scratch (resized and
    /// overwritten — hand the same buffer back on every call and the
    /// sweep allocates nothing); `out` is cleared and filled.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `pattern.len() != input_count() *
    /// width`.
    pub fn eval_wide_into(
        &self,
        pattern: &[u64],
        width: usize,
        values: &mut Vec<u64>,
        out: &mut Vec<u64>,
    ) {
        assert!(width > 0, "a wide evaluation needs at least one block");
        assert_eq!(
            pattern.len(),
            self.inputs * width,
            "pattern width must match the input count"
        );
        values.clear();
        values.resize(self.ops.len() * width, 0);
        out.clear();
        out.resize(self.outputs.len() * width, 0);
        match width {
            1 => self.kernel::<1>(pattern, values, out),
            2 => self.kernel::<2>(pattern, values, out),
            4 => self.kernel::<4>(pattern, values, out),
            8 => self.kernel::<8>(pattern, values, out),
            _ => self.kernel_any(pattern, width, values, out),
        }
    }

    /// The width-monomorphized kernel: `W` is compile-time, every
    /// operand is a `&[u64; W]` subslice (one bounds check per operand,
    /// not per lane), so the lane loops unroll and vectorize.
    fn kernel<const W: usize>(&self, pattern: &[u64], values: &mut [u64], out: &mut [u64]) {
        for (slot, op) in self.ops.iter().enumerate() {
            // Operand slots are strictly below `slot`, so the split
            // separates the write target from every read source.
            let (lo, hi) = values.split_at_mut(slot * W);
            let dst: &mut [u64; W] = (&mut hi[..W]).try_into().expect("W words per slot");
            let src = |s: u32| -> &[u64; W] {
                let s0 = s as usize * W;
                (&lo[s0..s0 + W]).try_into().expect("W words per slot")
            };
            match op.kind {
                OpKind::Input => {
                    let s = op.a as usize * W;
                    dst.copy_from_slice(&pattern[s..s + W]);
                }
                OpKind::Const0 => *dst = [0; W],
                OpKind::Const1 => *dst = [!0; W],
                OpKind::Maj => {
                    let (a, b, c) = (src(op.a), src(op.b), src(op.c));
                    for j in 0..W {
                        dst[j] = a[j] & b[j] | a[j] & c[j] | b[j] & c[j];
                    }
                }
                OpKind::Inv => {
                    let a = src(op.a);
                    for j in 0..W {
                        dst[j] = !a[j];
                    }
                }
            }
        }
        for (o, &s) in self.outputs.iter().enumerate() {
            let s0 = s as usize * W;
            out[o * W..o * W + W].copy_from_slice(&values[s0..s0 + W]);
        }
    }

    /// Runtime-width fallback for widths without a monomorphized kernel.
    fn kernel_any(&self, pattern: &[u64], w: usize, values: &mut [u64], out: &mut [u64]) {
        for (slot, op) in self.ops.iter().enumerate() {
            let t = slot * w;
            match op.kind {
                OpKind::Input => {
                    let s = op.a as usize * w;
                    values[t..t + w].copy_from_slice(&pattern[s..s + w]);
                }
                OpKind::Const0 => values[t..t + w].fill(0),
                OpKind::Const1 => values[t..t + w].fill(!0),
                OpKind::Maj => {
                    let (a0, b0, c0) = (op.a as usize * w, op.b as usize * w, op.c as usize * w);
                    for j in 0..w {
                        let a = values[a0 + j];
                        let b = values[b0 + j];
                        let c = values[c0 + j];
                        values[t + j] = a & b | a & c | b & c;
                    }
                }
                OpKind::Inv => {
                    let a0 = op.a as usize * w;
                    for j in 0..w {
                        values[t + j] = !values[a0 + j];
                    }
                }
            }
        }
        for (o, &s) in self.outputs.iter().enumerate() {
            let s0 = s as usize * w;
            out[o * w..o * w + w].copy_from_slice(&values[s0..s0 + w]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow_netlist() -> Netlist {
        let mut g = mig::Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let cin = g.add_input("cin");
        let (s, c) = g.add_full_adder(a, b, cin);
        g.add_output("s", s);
        g.add_output("c", c);
        let mut n = crate::from_mig::netlist_from_mig(&g);
        crate::fanout_restriction::restrict_fanout(&mut n, 3);
        crate::buffer_insertion::insert_buffers(&mut n);
        n
    }

    #[test]
    fn arena_computes_the_full_adder_it_was_mapped_from() {
        let n = flow_netlist();
        let arena = EvalArena::try_new(&n).unwrap();
        assert_eq!(arena.component_count(), n.len());
        assert!(
            arena.len() < n.len(),
            "copy elision must shrink a buffered netlist ({} vs {})",
            arena.len(),
            n.len()
        );
        assert_eq!(arena.input_count(), 3);
        assert_eq!(arena.output_count(), 2);
        for seed in 0..8u64 {
            let pattern: Vec<u64> = (0..3)
                .map(|i| {
                    (seed + 1)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(i * 17)
                })
                .collect();
            let (a, b, cin) = (pattern[0], pattern[1], pattern[2]);
            assert_eq!(
                arena.eval_words(&pattern),
                [a ^ b ^ cin, a & b | a & cin | b & cin],
                "seed {seed}"
            );
        }
    }

    #[test]
    fn wide_kernels_agree_with_narrow_blocks() {
        let n = flow_netlist();
        let arena = EvalArena::try_new(&n).unwrap();
        let mut values = Vec::new();
        let mut out = Vec::new();
        for width in [2usize, 4, 5, 8] {
            let pattern: Vec<u64> = (0..3 * width)
                .map(|k| (k as u64 + 3).wrapping_mul(0xA076_1D64_78BD_642F))
                .collect();
            arena.eval_wide_into(&pattern, width, &mut values, &mut out);
            for j in 0..width {
                let block: Vec<u64> = (0..3).map(|i| pattern[i * width + j]).collect();
                let narrow = arena.eval_words(&block);
                for (o, &w) in narrow.iter().enumerate() {
                    assert_eq!(
                        w,
                        out[o * width + j],
                        "width {width}, block {j}, output {o}"
                    );
                }
            }
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_tracks_the_netlist() {
        let mut n = Netlist::new("grow");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let k0 = n.add_const(false);
        let g = n.add_maj([a, b, k0]);
        n.add_output("f", g);
        let mut arena = EvalArena::try_new(&n).unwrap();
        assert_eq!(arena.eval_words(&[0b11, 0b01]), vec![0b01]);

        // Mutate the netlist: the arena must pick the change up on
        // rebuild, not before.
        let inv = n.add_inv(g);
        n.set_output_driver(0, inv);
        arena.try_rebuild(&n).unwrap();
        assert_eq!(arena.component_count(), n.len());
        assert_eq!(arena.eval_words(&[0b11, 0b01]), vec![!0b01]);
    }

    #[test]
    fn cycles_surface_as_errors() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        let b1 = n.add_buf(a);
        let b2 = n.add_buf(b1);
        n.component_mut(b1).fanins_mut()[0] = b2;
        n.add_output("f", b2);
        assert!(matches!(
            EvalArena::try_new(&n),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }
}
