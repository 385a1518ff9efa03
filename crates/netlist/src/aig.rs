//! And-Inverter Graph with complemented edges and structural hashing.
//!
//! The SAT attack's cost is dominated by the size of the miter CNF. Lowering
//! the netlist to an AIG first buys three reductions before the solver ever
//! sees a clause:
//!
//! 1. **Structural hashing** (strash): every AND node is deduplicated by its
//!    canonically ordered `(lhs, rhs)` literal pair, with local rewrites for
//!    constants, idempotence (`a & a = a`), and complement collisions
//!    (`a & !a = 0`). Two miter copies lowered into one AIG share every
//!    key-independent cone automatically.
//! 2. **Uniform encoding**: each AND is exactly one 3-clause Tseitin gate;
//!    inverters are free (complemented edges).
//! 3. **Cone extraction**: a miter or a removal-attack verification can be
//!    restricted to the outputs a key actually reaches, dropping the rest of
//!    the graph ([`Aig::extract_cone`]).
//!
//! Lowering covers every [`GateKind`] (n-ary gates fold, XOR/XNOR and
//! MUX2/MUX4 decompose into AND trees) and round-trips back to a [`Netlist`]
//! via [`Aig::to_netlist`], which the `aig-equiv` fuzz referee checks
//! against the packed evaluator on every case.

use crate::{CombView, GateKind, Netlist};
use std::collections::HashMap;

/// An AIG edge: a node index with an optional complement marker.
///
/// The raw code is `node << 1 | complemented`; node 0 is the constant-false
/// node, so [`AigLit::FALSE`] is code 0 and [`AigLit::TRUE`] code 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AigLit(u32);

impl AigLit {
    /// The constant-false literal (node 0, uncomplemented).
    pub const FALSE: AigLit = AigLit(0);
    /// The constant-true literal (node 0, complemented).
    pub const TRUE: AigLit = AigLit(1);

    /// Builds a literal from a node index and a complement flag.
    pub fn new(node: usize, complemented: bool) -> Self {
        AigLit((node as u32) << 1 | u32::from(complemented))
    }

    /// The node this literal points at.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// True when the edge is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complemented edge (`!self`).
    #[must_use]
    pub fn complement(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }

    /// True when this is one of the two constant literals.
    pub fn is_const(self) -> bool {
        self.node() == 0
    }

    /// The raw `node << 1 | complement` code.
    pub fn code(self) -> u32 {
        self.0
    }
}

/// One AIG node.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AigNode {
    /// The constant-false node (index 0 only).
    False,
    /// A free input, with its input ordinal.
    Input(usize),
    /// A two-input AND of two (possibly complemented) edges.
    And(AigLit, AigLit),
}

/// An And-Inverter Graph with complemented edges and two-level structural
/// hashing.
///
/// Nodes are append-only and topologically ordered by construction:
/// [`Aig::and`] only references existing nodes. Equality compares the node
/// arena and the output list (the strash map is a derived index).
#[derive(Clone, Debug)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: HashMap<(u32, u32), u32>,
    num_inputs: usize,
    outputs: Vec<AigLit>,
}

impl PartialEq for Aig {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.outputs == other.outputs
            && self.num_inputs == other.num_inputs
    }
}

impl Eq for Aig {}

impl Default for Aig {
    fn default() -> Self {
        Aig::new()
    }
}

impl Aig {
    /// An empty graph (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![AigNode::False],
            strash: HashMap::new(),
            num_inputs: 0,
            outputs: Vec::new(),
        }
    }

    /// Appends a free input and returns its (positive) literal.
    pub fn add_input(&mut self) -> AigLit {
        let node = self.nodes.len();
        self.nodes.push(AigNode::Input(self.num_inputs));
        self.num_inputs += 1;
        AigLit::new(node, false)
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, AigNode::And(..)))
            .count()
    }

    /// Total node count (constant + inputs + ANDs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph holds only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The node arena, index-addressed.
    pub fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }

    /// The marked outputs, in marking order.
    pub fn outputs(&self) -> &[AigLit] {
        &self.outputs
    }

    /// Marks `lit` as the next output.
    pub fn mark_output(&mut self, lit: AigLit) {
        self.outputs.push(lit);
    }

    /// Strashed AND with local rewrites: constants, idempotence (`a&a=a`),
    /// and complement collision (`a&!a=0`). Operands are canonically
    /// ordered before the hash lookup, so `and(a,b)` and `and(b,a)` return
    /// the same literal.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let (a, b) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        if a == AigLit::FALSE || a == b.complement() {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE || a == b {
            return b;
        }
        if let Some(&node) = self.strash.get(&(a.code(), b.code())) {
            return AigLit::new(node as usize, false);
        }
        let node = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(a, b));
        self.strash.insert((a.code(), b.code()), node);
        AigLit::new(node as usize, false)
    }

    /// `a | b` (De Morgan through the complemented edges).
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        self.and(a.complement(), b.complement()).complement()
    }

    /// `a ^ b` as three AND nodes: `(a|b) & !(a&b)`.
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let both = self.and(a, b);
        let either = self.or(a, b);
        self.and(either, both.complement())
    }

    /// `sel ? a1 : a0` as three AND nodes.
    pub fn mux(&mut self, sel: AigLit, a0: AigLit, a1: AigLit) -> AigLit {
        let hi = self.and(sel, a1);
        let lo = self.and(sel.complement(), a0);
        self.or(hi, lo)
    }

    /// Lowers one gate function over already-lowered input literals.
    ///
    /// # Panics
    ///
    /// Panics on [`GateKind::Input`]/[`GateKind::Dff`] (no combinational
    /// function) or an illegal arity.
    pub fn lower_gate(&mut self, kind: GateKind, ins: &[AigLit]) -> AigLit {
        assert!(
            kind.accepts_arity(ins.len()),
            "{kind:?} does not accept {} inputs",
            ins.len()
        );
        match kind {
            GateKind::Input | GateKind::Dff => {
                panic!("{kind:?} has no combinational function to lower")
            }
            GateKind::Const0 => AigLit::FALSE,
            GateKind::Const1 => AigLit::TRUE,
            GateKind::Buf => ins[0],
            GateKind::Inv => ins[0].complement(),
            GateKind::And => self.fold_and(ins),
            GateKind::Nand => self.fold_and(ins).complement(),
            GateKind::Or => self.fold_or(ins),
            GateKind::Nor => self.fold_or(ins).complement(),
            GateKind::Xor => self.fold_xor(ins),
            GateKind::Xnor => self.fold_xor(ins).complement(),
            GateKind::Mux2 => self.mux(ins[2], ins[0], ins[1]),
            GateKind::Mux4 => {
                let lo = self.mux(ins[4], ins[0], ins[1]);
                let hi = self.mux(ins[4], ins[2], ins[3]);
                self.mux(ins[5], lo, hi)
            }
        }
    }

    fn fold_and(&mut self, ins: &[AigLit]) -> AigLit {
        ins[1..].iter().fold(ins[0], |acc, &b| self.and(acc, b))
    }

    fn fold_or(&mut self, ins: &[AigLit]) -> AigLit {
        ins[1..].iter().fold(ins[0], |acc, &b| self.or(acc, b))
    }

    fn fold_xor(&mut self, ins: &[AigLit]) -> AigLit {
        ins[1..].iter().fold(ins[0], |acc, &b| self.xor(acc, b))
    }

    /// Lowers the combinational view of `netlist` into this graph, with
    /// view input `i` driven by `input_map[i]`, and returns the view-output
    /// literals (without marking them). Lowering two keyed copies with
    /// input maps that differ only at the key positions makes the strash
    /// share every key-independent cone between the copies.
    ///
    /// # Panics
    ///
    /// Panics when `input_map` does not cover the view inputs or the
    /// netlist is cyclic.
    pub fn lower_netlist(
        &mut self,
        netlist: &Netlist,
        view: &CombView,
        input_map: &[AigLit],
    ) -> Vec<AigLit> {
        assert_eq!(
            input_map.len(),
            view.num_inputs(),
            "input map must cover the view inputs"
        );
        let mut net_lit: Vec<Option<AigLit>> = vec![None; netlist.net_count()];
        for (i, &n) in view.input_nets().iter().enumerate() {
            net_lit[n.index()] = Some(input_map[i]);
        }
        let order = netlist.topo_order().expect("netlist must be acyclic");
        for cell_id in order {
            let cell = netlist.cell(cell_id);
            let out = cell.output();
            if net_lit[out.index()].is_some() || !cell.kind().is_combinational() {
                continue;
            }
            let ins: Vec<AigLit> = cell
                .inputs()
                .iter()
                .map(|n| net_lit[n.index()].expect("inputs precede outputs in topo order"))
                .collect();
            net_lit[out.index()] = Some(self.lower_gate(cell.kind(), &ins));
        }
        view.output_nets()
            .iter()
            .map(|n| net_lit[n.index()].expect("view output lowered"))
            .collect()
    }

    /// Lowers the combinational view of `netlist` into a fresh graph with
    /// one free input per view input, outputs marked in view order.
    ///
    /// # Panics
    ///
    /// Panics on a cyclic netlist.
    pub fn from_comb(netlist: &Netlist, view: &CombView) -> Aig {
        let mut aig = Aig::new();
        let input_map: Vec<AigLit> = (0..view.num_inputs()).map(|_| aig.add_input()).collect();
        let outs = aig.lower_netlist(netlist, view, &input_map);
        for o in outs {
            aig.mark_output(o);
        }
        aig
    }

    /// Convenience: lowers `netlist`'s own combinational view.
    ///
    /// # Panics
    ///
    /// Panics on a cyclic netlist.
    pub fn from_netlist(netlist: &Netlist) -> Aig {
        Aig::from_comb(netlist, &CombView::new(netlist))
    }

    /// Replays this graph into `out` through [`Aig::and`], with this
    /// graph's input `k` replaced by `input_map[k]` (a literal in `out` —
    /// possibly a constant, which folds the whole cone through the
    /// rewrites). Returns this graph's output literals translated into
    /// `out`, without marking them.
    ///
    /// This is the workhorse behind [`Aig::strashed`], the shared-copy SAT
    /// miter (two replays whose input maps differ only at the key
    /// positions dedup every key-independent cone), and constant-folded
    /// IO-constraint copies.
    ///
    /// # Panics
    ///
    /// Panics when `input_map` does not cover this graph's inputs.
    pub fn rebuild_into(&self, out: &mut Aig, input_map: &[AigLit]) -> Vec<AigLit> {
        assert_eq!(input_map.len(), self.num_inputs, "input map width");
        let mut remap: Vec<AigLit> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let lit = match *node {
                AigNode::False => AigLit::FALSE,
                AigNode::Input(k) => input_map[k],
                AigNode::And(a, b) => {
                    let a2 = remap[a.node()].complement_if(a.is_complemented());
                    let b2 = remap[b.node()].complement_if(b.is_complemented());
                    out.and(a2, b2)
                }
            };
            remap.push(lit);
        }
        self.outputs
            .iter()
            .map(|o| remap[o.node()].complement_if(o.is_complemented()))
            .collect()
    }

    /// Rebuilds the graph through [`Aig::and`], re-applying every rewrite
    /// and rehashing every node. Strash is idempotent: rebuilding an
    /// already-strashed graph returns an equal graph.
    #[must_use]
    pub fn strashed(&self) -> Aig {
        let mut out = Aig::new();
        let input_map: Vec<AigLit> = (0..self.num_inputs).map(|_| out.add_input()).collect();
        let outs = self.rebuild_into(&mut out, &input_map);
        for o in outs {
            out.mark_output(o);
        }
        out
    }

    /// Evaluates the graph over boolean inputs, returning one value per
    /// marked output.
    ///
    /// # Panics
    ///
    /// Panics when `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input width");
        let mut vals = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match *node {
                AigNode::False => false,
                AigNode::Input(k) => inputs[k],
                AigNode::And(a, b) => {
                    (vals[a.node()] ^ a.is_complemented()) && (vals[b.node()] ^ b.is_complemented())
                }
            };
        }
        self.outputs
            .iter()
            .map(|o| vals[o.node()] ^ o.is_complemented())
            .collect()
    }

    /// Re-emits the graph as a gate-level [`Netlist`]: one AND gate per AND
    /// node, complemented edges materialized as (cached) inverters,
    /// constant or input-aliasing outputs buffered. Inputs are named
    /// `input_names[k]` (or `i{k}`), outputs `output_names[j]` (or `y{j}`).
    ///
    /// # Panics
    ///
    /// Panics when a provided name slice does not match the input/output
    /// counts.
    pub fn to_netlist_named(
        &self,
        name: &str,
        input_names: Option<&[String]>,
        output_names: Option<&[String]>,
    ) -> Netlist {
        if let Some(names) = input_names {
            assert_eq!(names.len(), self.num_inputs, "input name count");
        }
        if let Some(names) = output_names {
            assert_eq!(names.len(), self.outputs.len(), "output name count");
        }
        let mut nl = Netlist::new(name);
        let mut node_net = vec![None; self.nodes.len()];
        let mut inv_cache: HashMap<usize, crate::NetId> = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            match *node {
                AigNode::False => {}
                AigNode::Input(k) => {
                    let net_name = input_names
                        .map(|ns| ns[k].clone())
                        .unwrap_or_else(|| format!("i{k}"));
                    node_net[i] = Some(nl.add_input(net_name));
                }
                AigNode::And(a, b) => {
                    let la = Self::edge_net(&mut nl, &node_net, &mut inv_cache, a);
                    let lb = Self::edge_net(&mut nl, &node_net, &mut inv_cache, b);
                    node_net[i] = Some(
                        nl.add_gate(GateKind::And, &[la, lb])
                            .expect("2-input AND is always legal"),
                    );
                }
            }
        }
        for (j, &o) in self.outputs.iter().enumerate() {
            let po_name = output_names
                .map(|ns| ns[j].clone())
                .unwrap_or_else(|| format!("y{j}"));
            let net = if o.is_const() {
                nl.add_const(o.is_complemented())
            } else {
                let raw = Self::edge_net(&mut nl, &node_net, &mut inv_cache, o);
                // Buffer outputs that alias an input or another output so
                // every PO has its own combinational driver.
                nl.add_gate(GateKind::Buf, &[raw])
                    .expect("buffer is always legal")
            };
            nl.mark_output(net, po_name);
        }
        nl
    }

    /// [`Aig::to_netlist_named`] with generated `i{k}`/`y{j}` port names.
    pub fn to_netlist(&self, name: &str) -> Netlist {
        self.to_netlist_named(name, None, None)
    }

    fn edge_net(
        nl: &mut Netlist,
        node_net: &[Option<crate::NetId>],
        inv_cache: &mut HashMap<usize, crate::NetId>,
        lit: AigLit,
    ) -> crate::NetId {
        if lit.is_const() {
            return nl.add_const(lit.is_complemented());
        }
        let base = node_net[lit.node()].expect("node emitted before use");
        if !lit.is_complemented() {
            return base;
        }
        *inv_cache.entry(lit.node()).or_insert_with(|| {
            nl.add_gate(GateKind::Inv, &[base])
                .expect("inverter is always legal")
        })
    }

    /// Extracts the cone of a subset of outputs: the sub-graph reachable
    /// from `keep_outputs` (indices into [`Aig::outputs`]), with unused
    /// inputs dropped and the survivors compacted in ascending original
    /// ordinal. The extraction records which original outputs and input
    /// ordinals survive, so cone-restricted results map back to the full
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics when an index in `keep_outputs` is out of range.
    pub fn extract_cone(&self, keep_outputs: &[usize]) -> ConeExtraction {
        let mut reach = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = keep_outputs
            .iter()
            .map(|&j| self.outputs[j].node())
            .collect();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut reach[n], true) {
                continue;
            }
            if let AigNode::And(a, b) = self.nodes[n] {
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        let mut cone = Aig::new();
        let mut remap: Vec<AigLit> = vec![AigLit::FALSE; self.nodes.len()];
        let mut support = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if !reach[i] {
                continue;
            }
            remap[i] = match *node {
                AigNode::False => AigLit::FALSE,
                AigNode::Input(k) => {
                    support.push(k);
                    cone.add_input()
                }
                AigNode::And(a, b) => {
                    let a2 = remap[a.node()].complement_if(a.is_complemented());
                    let b2 = remap[b.node()].complement_if(b.is_complemented());
                    cone.and(a2, b2)
                }
            };
        }
        for &j in keep_outputs {
            let o = self.outputs[j];
            cone.mark_output(remap[o.node()].complement_if(o.is_complemented()));
        }
        ConeExtraction {
            aig: cone,
            outputs: keep_outputs.to_vec(),
            support,
        }
    }

    /// The ascending set of input ordinals in the combinational support of
    /// the given outputs (a cheap query when the caller does not need the
    /// extracted graph itself).
    ///
    /// # Panics
    ///
    /// Panics when an output index is out of range.
    pub fn output_support(&self, keep_outputs: &[usize]) -> Vec<usize> {
        self.extract_cone(keep_outputs).support
    }
}

impl AigLit {
    /// Complements the literal when `c` is true.
    #[must_use]
    pub fn complement_if(self, c: bool) -> AigLit {
        AigLit(self.0 ^ u32::from(c))
    }
}

/// The result of [`Aig::extract_cone`]: the restricted graph plus the maps
/// back to the original output indices and input ordinals.
#[derive(Clone, Debug)]
pub struct ConeExtraction {
    /// The cone-restricted graph. Its inputs are the surviving original
    /// inputs, compacted in ascending ordinal; its outputs are the kept
    /// outputs, in `outputs` order.
    pub aig: Aig,
    /// Original output indices, in the cone's output order.
    pub outputs: Vec<usize>,
    /// Original input ordinals, in the cone's input order (ascending).
    pub support: Vec<usize>,
}

/// Extracts the combinational cone feeding a subset of a netlist's view
/// outputs as a standalone netlist, preserving the original port names. The
/// returned support lists the surviving view-input indices, in the
/// extracted netlist's input order.
///
/// This is the cheap substrate the removal attack and the lint dead-cone /
/// GK-motif passes use to verify or probe a candidate site without paying
/// for the whole design.
///
/// # Panics
///
/// Panics on a cyclic netlist or an out-of-range output index.
pub fn extract_cone_netlist(
    netlist: &Netlist,
    view: &CombView,
    keep_outputs: &[usize],
) -> (Netlist, Vec<usize>) {
    let aig = Aig::from_comb(netlist, view);
    let cone = aig.extract_cone(keep_outputs);
    let input_names: Vec<String> = cone
        .support
        .iter()
        .map(|&i| netlist.net(view.input_nets()[i]).name().to_string())
        .collect();
    let output_names: Vec<String> = cone
        .outputs
        .iter()
        .map(|&j| {
            // True POs carry a port name; pseudo-POs (flip-flop D pins)
            // fall back to the net name.
            if j < view.num_primary_outputs() {
                netlist.output_port(j).1.to_string()
            } else {
                netlist.net(view.output_nets()[j]).name().to_string()
            }
        })
        .collect();
    let nl = cone.aig.to_netlist_named(
        &format!("{}_cone", netlist.name()),
        Some(&input_names),
        Some(&output_names),
    );
    (nl, cone.support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Logic;
    use crate::Netlist;

    fn mixed_netlist() -> Netlist {
        let mut nl = Netlist::new("mixed");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("i{i}"))).collect();
        let w1 = nl
            .add_gate(GateKind::Nand, &[ins[0], ins[1], ins[2]])
            .unwrap();
        let w2 = nl.add_gate(GateKind::Xnor, &[ins[2], ins[3]]).unwrap();
        let w3 = nl.add_gate(GateKind::Mux2, &[w1, w2, ins[4]]).unwrap();
        let w4 = nl
            .add_gate(GateKind::Mux4, &[w1, w2, w3, ins[5], ins[0], ins[3]])
            .unwrap();
        let w5 = nl.add_gate(GateKind::Xor, &[w3, w4, ins[5]]).unwrap();
        let w6 = nl.add_gate(GateKind::Nor, &[w4, w5]).unwrap();
        nl.mark_output(w5, "y0");
        nl.mark_output(w6, "y1");
        nl
    }

    fn exhaustive_agrees(nl: &Netlist) {
        let view = CombView::new(nl);
        let aig = Aig::from_comb(nl, &view);
        let back = aig.to_netlist("rt");
        let n = view.num_inputs();
        assert!(n <= 12);
        for bits in 0u32..(1 << n) {
            let bools: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let logic: Vec<Logic> = bools.iter().map(|&b| Logic::from_bool(b)).collect();
            let expect: Vec<bool> = view
                .eval(nl, &logic)
                .into_iter()
                .map(|v| v == Logic::One)
                .collect();
            assert_eq!(aig.eval(&bools), expect, "aig eval, bits {bits:b}");
            let got: Vec<bool> = back
                .eval_comb(&logic)
                .into_iter()
                .map(|v| v == Logic::One)
                .collect();
            assert_eq!(got, expect, "re-emitted netlist, bits {bits:b}");
        }
    }

    #[test]
    fn every_gate_kind_round_trips() {
        let mut nl = Netlist::new("kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let y2 = nl.add_gate(kind, &[a, b]).unwrap();
            let y3 = nl.add_gate(kind, &[a, b, c]).unwrap();
            nl.mark_output(y2, format!("{kind}2"));
            nl.mark_output(y3, format!("{kind}3"));
        }
        let inv = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let buf = nl.add_gate(GateKind::Buf, &[b]).unwrap();
        let mux = nl.add_gate(GateKind::Mux2, &[a, b, c]).unwrap();
        let c0 = nl.add_gate(GateKind::Const0, &[]).unwrap();
        let c1 = nl.add_gate(GateKind::Const1, &[]).unwrap();
        nl.mark_output(inv, "inv");
        nl.mark_output(buf, "buf");
        nl.mark_output(mux, "mux");
        nl.mark_output(c0, "c0");
        nl.mark_output(c1, "c1");
        exhaustive_agrees(&nl);
    }

    #[test]
    fn mux4_and_parity_round_trip() {
        exhaustive_agrees(&mixed_netlist());
        let mut nl = Netlist::new("m4");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_gate(GateKind::Mux4, &ins).unwrap();
        nl.mark_output(y, "y");
        exhaustive_agrees(&nl);
    }

    #[test]
    fn sequential_round_trip_through_comb_view() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let q = nl.add_dff(w).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[q, a]).unwrap();
        nl.mark_output(y, "y");
        // The comb view has 3 inputs (a, b, q) and 2 outputs (y, d).
        exhaustive_agrees(&nl);
    }

    #[test]
    fn strash_rewrites_collapse() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(AigLit::TRUE, b), b);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, a.complement()), AigLit::FALSE);
        let ab1 = g.and(a, b);
        let ab2 = g.and(b, a);
        assert_eq!(ab1, ab2, "commuted operands must hash to the same node");
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn strash_is_idempotent() {
        let nl = mixed_netlist();
        let g = Aig::from_netlist(&nl);
        let once = g.strashed();
        let twice = once.strashed();
        assert_eq!(once, twice, "strash(strash(g)) == strash(g)");
        // A graph built through Aig::and is already strashed.
        assert_eq!(g, once);
    }

    #[test]
    fn shared_logic_dedups_across_two_copies() {
        // Lower the same netlist twice over the same inputs: the strash
        // must collapse the second copy onto the first completely.
        let nl = mixed_netlist();
        let view = CombView::new(&nl);
        let mut g = Aig::new();
        let inputs: Vec<AigLit> = (0..view.num_inputs()).map(|_| g.add_input()).collect();
        let o1 = g.lower_netlist(&nl, &view, &inputs);
        let ands_after_first = g.num_ands();
        let o2 = g.lower_netlist(&nl, &view, &inputs);
        assert_eq!(g.num_ands(), ands_after_first, "second copy adds nothing");
        assert_eq!(o1, o2);
    }

    #[test]
    fn cone_extraction_restricts_and_agrees() {
        let nl = mixed_netlist();
        let view = CombView::new(&nl);
        let aig = Aig::from_comb(&nl, &view);
        let cone = aig.extract_cone(&[0]);
        assert!(cone.aig.num_ands() <= aig.num_ands());
        assert_eq!(cone.outputs, vec![0]);
        // Cone-restricted eval agrees with the full eval on the kept PO.
        let n = aig.num_inputs();
        for bits in 0u32..(1 << n) {
            let full: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            let restricted: Vec<bool> = cone.support.iter().map(|&i| full[i]).collect();
            assert_eq!(cone.aig.eval(&restricted)[0], aig.eval(&full)[0]);
        }
    }

    #[test]
    fn cone_netlist_preserves_port_names() {
        let nl = mixed_netlist();
        let view = CombView::new(&nl);
        let (cone_nl, support) = extract_cone_netlist(&nl, &view, &[1]);
        assert_eq!(cone_nl.output_ports().len(), 1);
        assert_eq!(cone_nl.output_port(0).1, "y1");
        for (k, &i) in support.iter().enumerate() {
            assert_eq!(
                cone_nl.net(cone_nl.input_nets()[k]).name(),
                nl.net(view.input_nets()[i]).name()
            );
        }
    }

    #[test]
    fn constant_and_alias_outputs_emit_legally() {
        let mut g = Aig::new();
        let a = g.add_input();
        g.mark_output(AigLit::TRUE);
        g.mark_output(a);
        g.mark_output(a.complement());
        let nl = g.to_netlist("consts");
        nl.validate().expect("emitted netlist must validate");
        let out = nl.eval_comb(&[Logic::One]);
        assert_eq!(out, vec![Logic::One, Logic::One, Logic::Zero]);
    }
}
