//! The Majority-Inverter Graph container.

use std::collections::HashMap;
use std::fmt;

use crate::fnv::FnvBuildHasher;
use crate::node::Node;
use crate::signal::{NodeId, Signal};

/// A named primary output: a signal plus its port name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// Port name (unique within a graph).
    pub name: String,
    /// Driving signal (may be complemented or constant).
    pub signal: Signal,
}

/// A Majority-Inverter Graph: a homogeneous logic network of 3-input
/// majority nodes with regular/complemented edges (Amarù et al.,
/// DAC'14 / TCAD'16).
///
/// Nodes live in an arena; node 0 is the constant zero. Fan-ins always
/// point backwards in the arena, so iterating nodes by index is a
/// topological traversal. Gate creation goes through [`Mig::add_maj`],
/// which constant-folds, applies the trivial majority axioms and
/// structurally hashes, so the graph never stores two identical gates.
///
/// # Examples
///
/// Build a full-adder carry (which *is* a majority gate) and inspect it:
///
/// ```
/// use mig::Mig;
///
/// let mut g = Mig::new();
/// let a = g.add_input("a");
/// let b = g.add_input("b");
/// let cin = g.add_input("cin");
/// let carry = g.add_maj(a, b, cin);
/// g.add_output("cout", carry);
///
/// assert_eq!(g.gate_count(), 1);
/// assert_eq!(g.depth(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Mig {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<Output>,
    /// Structural-hash table keyed on normalized fan-in triples. FNV-1a
    /// instead of SipHash: the 12-byte keys are queried once per gate
    /// construction, where SipHash's per-lookup setup dominates.
    strash: HashMap<[Signal; 3], NodeId, FnvBuildHasher>,
}

impl Mig {
    /// Creates an empty graph containing only the constant node.
    pub fn new() -> Mig {
        Mig::with_name("top")
    }

    /// Creates an empty graph with the given model name.
    pub fn with_name(name: impl Into<String>) -> Mig {
        Mig {
            name: name.into(),
            nodes: vec![Node::Constant],
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::default(),
        }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the model name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Adds a primary input and returns its (non-complemented) signal.
    ///
    /// # Panics
    ///
    /// Panics if `name` duplicates an existing input name.
    pub fn add_input(&mut self, name: impl Into<String>) -> Signal {
        let name = name.into();
        assert!(
            !self.input_names.contains(&name),
            "duplicate input name `{name}`"
        );
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(Node::Input(self.inputs.len() as u32));
        self.inputs.push(id);
        self.input_names.push(name);
        id.signal()
    }

    /// Adds `count` inputs named `prefix0..prefixN` and returns their
    /// signals.
    pub fn add_inputs(&mut self, prefix: &str, count: usize) -> Vec<Signal> {
        (0..count)
            .map(|i| self.add_input(format!("{prefix}{i}")))
            .collect()
    }

    /// Registers `signal` as a primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, signal: Signal) {
        self.outputs.push(Output {
            name: name.into(),
            signal,
        });
    }

    /// Creates (or reuses) the majority gate `⟨a b c⟩`.
    ///
    /// The following normalizations are applied before a node is
    /// created, in order:
    ///
    /// 1. **Majority axiom** `⟨x x y⟩ = x` and **complement axiom**
    ///    `⟨x x̄ y⟩ = y` — no gate is needed.
    /// 2. **Constant folding** via the same two axioms when fan-ins are
    ///    constant signals.
    /// 3. **Self-duality** `⟨x̄ ȳ z̄⟩ = ¬⟨x y z⟩`: if two or more fan-ins
    ///    are complemented, all three are flipped and the output signal
    ///    is complemented instead, so at most one stored fan-in carries
    ///    an inverter.
    /// 4. **Commutativity**: fan-ins are sorted, then structural hashing
    ///    reuses any existing identical gate.
    pub fn add_maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        // Trivial axioms: two equal fan-ins decide the vote; a
        // complementary pair cancels out.
        if a == b {
            return a;
        }
        if a == !b {
            return c;
        }
        if a == c {
            return a;
        }
        if a == !c {
            return b;
        }
        if b == c {
            return b;
        }
        if b == !c {
            return a;
        }

        // Self-duality: keep at most one complemented fan-in.
        let ncompl = a.is_complement() as u32 + b.is_complement() as u32 + c.is_complement() as u32;
        let (mut a, mut b, mut c, out_compl) = if ncompl >= 2 {
            (!a, !b, !c, true)
        } else {
            (a, b, c, false)
        };

        // Commutativity: canonical fan-in order.
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        if b > c {
            std::mem::swap(&mut b, &mut c);
        }
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }

        let key = [a, b, c];
        let id = match self.strash.get(&key) {
            Some(&id) => id,
            None => {
                let id = NodeId::from_index(self.nodes.len());
                self.nodes.push(Node::Majority(key));
                self.strash.insert(key, id);
                id
            }
        };
        Signal::new(id, out_compl)
    }

    /// Number of nodes in the arena (constant + inputs + gates).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of majority gates.
    ///
    /// This is the "size" metric used throughout the paper.
    pub fn gate_count(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The node payload at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Primary input node ids, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Name of input `position` (declaration order).
    pub fn input_name(&self, position: usize) -> &str {
        &self.input_names[position]
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Stable structural content hash: graph name, arena length, every
    /// node (kind, input position, fan-in signals with complement bits),
    /// input names and output bindings — everything a flow over this
    /// graph can observe. One O(nodes) arena walk, no intermediate
    /// serialization; this is the circuit axis of the engine cache key
    /// in the companion `wavepipe` crate.
    pub fn content_hash(&self) -> u64 {
        let mut h = crate::fnv::Fnv64::new();
        h.write(self.name.as_bytes());
        h.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            match node {
                Node::Constant => h.write(b"c"),
                Node::Input(position) => {
                    h.write(b"i");
                    h.write_u64(u64::from(*position));
                }
                Node::Majority(fanins) => {
                    h.write(b"m");
                    for signal in fanins {
                        h.write_u64(u64::from(signal.to_raw()));
                    }
                }
            }
        }
        for name in &self.input_names {
            h.write(name.as_bytes());
            h.write(&[0]);
        }
        for output in &self.outputs {
            h.write(output.name.as_bytes());
            h.write(&[0]);
            h.write_u64(u64::from(output.signal.to_raw()));
        }
        h.finish()
    }

    /// Iterates over all node ids in topological (arena) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Iterates over the ids of majority gates in topological order.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |id| self.nodes[id.index()].is_gate())
    }

    /// Per-node logic level: constants and inputs are level 0, a gate is
    /// one more than its deepest fan-in.
    ///
    /// Indexed by `NodeId::index()`.
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            if let Node::Majority(fanins) = node {
                levels[idx] = 1 + fanins
                    .iter()
                    .map(|s| levels[s.node().index()])
                    .max()
                    .expect("majority nodes have fan-ins");
            }
        }
        levels
    }

    /// Depth of the graph: the maximum level over all primary outputs.
    ///
    /// A graph whose outputs are all constants or inputs has depth 0.
    pub fn depth(&self) -> u32 {
        let levels = self.levels();
        self.outputs
            .iter()
            .map(|o| levels[o.signal.node().index()])
            .max()
            .unwrap_or(0)
    }

    /// Number of fan-out references per node (uses by gates plus uses by
    /// primary outputs). Indexed by `NodeId::index()`.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for s in node.fanins() {
                counts[s.node().index()] += 1;
            }
        }
        for o in &self.outputs {
            counts[o.signal.node().index()] += 1;
        }
        counts
    }

    /// Returns a copy of this graph containing only nodes reachable from
    /// the primary outputs (dead gates dropped, inputs always kept).
    ///
    /// Gate identity is not preserved; signals are remapped internally.
    pub fn cleanup(&self) -> Mig {
        let mut out = Mig::with_name(self.name.clone());
        let mut map: Vec<Option<Signal>> = vec![None; self.nodes.len()];
        map[NodeId::CONST.index()] = Some(Signal::ZERO);
        for (pos, &id) in self.inputs.iter().enumerate() {
            map[id.index()] = Some(out.add_input(self.input_names[pos].clone()));
        }

        // Mark reachable gates.
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|o| o.signal.node()).collect();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            for s in self.nodes[id.index()].fanins() {
                if !live[s.node().index()] {
                    stack.push(s.node());
                }
            }
        }

        for (idx, node) in self.nodes.iter().enumerate() {
            if !live[idx] {
                continue;
            }
            if let Node::Majority(fanins) = node {
                let f: Vec<Signal> = fanins
                    .iter()
                    .map(|s| {
                        map[s.node().index()]
                            .expect("fan-ins precede their gate")
                            .complement_if(s.is_complement())
                    })
                    .collect();
                map[idx] = Some(out.add_maj(f[0], f[1], f[2]));
            }
        }

        for o in &self.outputs {
            let s = map[o.signal.node().index()]
                .expect("reachable output driver")
                .complement_if(o.signal.is_complement());
            out.add_output(o.name.clone(), s);
        }
        out
    }
}

impl fmt::Display for Mig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mig `{}`: {} inputs, {} outputs, {} gates, depth {}",
            self.name,
            self.input_count(),
            self.output_count(),
            self.gate_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_has_only_constant() {
        let g = Mig::new();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.gate_count(), 0);
        assert_eq!(g.depth(), 0);
        assert!(g.node(NodeId::CONST).is_constant());
    }

    #[test]
    fn trivial_axioms_avoid_gate_creation() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        assert_eq!(g.add_maj(a, a, b), a, "⟨x x y⟩ = x");
        assert_eq!(g.add_maj(a, !a, b), b, "⟨x x̄ y⟩ = y");
        assert_eq!(g.add_maj(b, a, a), a);
        assert_eq!(g.add_maj(Signal::ZERO, Signal::ONE, a), a);
        assert_eq!(g.gate_count(), 0);
    }

    #[test]
    fn structural_hashing_reuses_commutative_variants() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m1 = g.add_maj(a, b, c);
        let m2 = g.add_maj(c, a, b);
        let m3 = g.add_maj(b, c, a);
        assert_eq!(m1, m2);
        assert_eq!(m1, m3);
        assert_eq!(g.gate_count(), 1);
    }

    #[test]
    fn self_duality_normalizes_polarity() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m = g.add_maj(a, b, c);
        let dual = g.add_maj(!a, !b, !c);
        assert_eq!(dual, !m, "⟨x̄ ȳ z̄⟩ = ¬⟨x y z⟩ shares one node");
        assert_eq!(g.gate_count(), 1);
    }

    #[test]
    fn levels_and_depth() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m1 = g.add_maj(a, b, c);
        let m2 = g.add_maj(m1, a, b);
        g.add_output("f", m2);
        let levels = g.levels();
        assert_eq!(levels[m1.node().index()], 1);
        assert_eq!(levels[m2.node().index()], 2);
        assert_eq!(g.depth(), 2);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let m = g.add_maj(a, b, c);
        g.add_output("f", m);
        g.add_output("g", !m);
        let fo = g.fanout_counts();
        assert_eq!(fo[m.node().index()], 2);
        assert_eq!(fo[a.node().index()], 1);
    }

    #[test]
    fn cleanup_drops_dead_gates() {
        let mut g = Mig::new();
        let a = g.add_input("a");
        let b = g.add_input("b");
        let c = g.add_input("c");
        let live = g.add_maj(a, b, c);
        let _dead = g.add_maj(a, b, !c);
        g.add_output("f", live);
        assert_eq!(g.gate_count(), 2);
        let clean = g.cleanup();
        assert_eq!(clean.gate_count(), 1);
        assert_eq!(clean.input_count(), 3);
        assert_eq!(clean.output_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate input name")]
    fn duplicate_input_names_panic() {
        let mut g = Mig::new();
        g.add_input("a");
        g.add_input("a");
    }
}
