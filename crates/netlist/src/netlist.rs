//! The arena-based gate-level netlist.

use crate::{CellId, GateKind, LibCellId, Logic, NetId, NetlistError};
use glitchlock_obs::{self as obs, names};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A single-driver wire.
#[derive(Clone, Debug)]
pub struct Net {
    name: String,
    driver: Option<CellId>,
    fanout: Vec<(CellId, usize)>,
}

impl Net {
    /// The net's name (may be auto-generated).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell driving this net, if any.
    pub fn driver(&self) -> Option<CellId> {
        self.driver
    }

    /// The `(cell, input-pin)` pairs reading this net.
    pub fn fanout(&self) -> &[(CellId, usize)] {
        &self.fanout
    }
}

/// A gate, flip-flop, constant, or primary-input marker.
#[derive(Clone, Debug)]
pub struct Cell {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    name: String,
    lib: Option<LibCellId>,
}

impl Cell {
    /// The cell's function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The net this cell drives.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Library binding, if one has been assigned.
    pub fn lib(&self) -> Option<LibCellId> {
        self.lib
    }
}

/// Summary counts for a netlist, in the spirit of Table I's `Cell`/`FF`
/// columns: `cells` counts logic gates plus flip-flops (primary-input
/// markers and constants excluded).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Logic gates + flip-flops.
    pub cells: usize,
    /// Combinational logic gates only.
    pub gates: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Total nets.
    pub nets: usize,
}

/// An arena-based gate-level netlist with one implicit global clock.
///
/// Cells are appended through the builder methods ([`Netlist::add_input`],
/// [`Netlist::add_gate`], [`Netlist::add_dff`], …) and never removed;
/// locking transformations rewire sinks with [`Netlist::rewire_input`] and
/// [`Netlist::rewire_output_po`].
#[derive(Clone, Debug)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    inputs: Vec<NetId>,
    outputs: Vec<(NetId, String)>,
    dffs: Vec<CellId>,
    /// Name → net index, built on the first [`Netlist::net_by_name`] call
    /// (most netlists are never searched by name) and kept current by
    /// [`Netlist::add_net`] once built.
    by_name: OnceLock<HashMap<String, NetId>>,
    /// Lazily computed topological order, dropped on structural mutation.
    topo_cache: OnceLock<Result<Vec<CellId>, NetlistError>>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            by_name: OnceLock::new(),
            topo_cache: OnceLock::new(),
        }
    }

    /// An empty netlist with room for `cells` cells and `nets` nets.
    pub(crate) fn with_capacity(name: &str, cells: usize, nets: usize) -> Self {
        let mut nl = Netlist::new(name);
        nl.cells.reserve_exact(cells);
        nl.nets.reserve_exact(nets);
        nl
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a named net without a driver. Mostly used by parsers; builder
    /// methods create nets implicitly.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let id = NetId::from_index(self.nets.len());
        if let Some(index) = self.by_name.get_mut() {
            index.insert(name.clone(), id);
        }
        self.nets.push(Net {
            name,
            driver: None,
            fanout: Vec::new(),
        });
        id
    }

    /// Adds a net named `<hint><suffix>_<net index>`.
    fn fresh_net(&mut self, hint: &str, suffix: &str) -> NetId {
        let index = self.nets.len();
        self.add_net(numbered(&[hint, suffix, "_"], index))
    }

    /// Looks a net up by name. When several nets share a name, the one
    /// added last wins.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name
            .get_or_init(|| {
                let mut index = HashMap::with_capacity(self.nets.len());
                for (i, net) in self.nets.iter().enumerate() {
                    index.insert(net.name.clone(), NetId::from_index(i));
                }
                index
            })
            .get(name)
            .copied()
    }

    /// Renames a net. By-name lookups then see the new name and no longer
    /// the old one.
    pub fn rename_net(&mut self, id: NetId, name: impl Into<String>) {
        self.nets[id.index()].name = name.into();
        self.by_name.take();
    }

    /// Adds a primary input and returns the net it drives.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone());
        let cell = self.push_cell(GateKind::Input, Vec::new(), net, name);
        self.nets[net.index()].driver = Some(cell);
        self.inputs.push(net);
        net
    }

    /// Adds a cell driving the existing, undriven `output` net and connects
    /// its pins. `inputs` may name nets that have no driver yet, so a
    /// parser can pre-create every net and then add cells in file order.
    /// The caller guarantees `kind` accepts `inputs.len()` pins.
    pub(crate) fn push_driver(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
        name: String,
    ) -> CellId {
        debug_assert!(kind.accepts_arity(inputs.len()) && kind != GateKind::Input);
        debug_assert!(self.nets[output.index()].driver.is_none());
        let cell = self.push_cell(kind, inputs, output, name);
        self.connect(cell);
        if kind == GateKind::Dff {
            self.dffs.push(cell);
        }
        cell
    }

    /// Adds a combinational gate driving a fresh net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the pin count is illegal for
    /// `kind`, and [`NetlistError::UnknownNet`] for out-of-range input nets.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        let name = numbered(&["g"], self.cells.len());
        self.add_gate_named(kind, inputs, name)
    }

    /// Adds a combinational gate with an explicit instance name.
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::add_gate`].
    pub fn add_gate_named(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        name: impl Into<String>,
    ) -> Result<NetId, NetlistError> {
        if !kind.is_combinational() {
            return Err(NetlistError::BadArity {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        self.check_arity(kind, inputs)?;
        let name = name.into();
        let out = self.fresh_net(&name, "");
        let cell = self.push_cell(kind, inputs.to_vec(), out, name);
        self.connect(cell);
        Ok(out)
    }

    /// Adds a D flip-flop and returns its Q net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `d` is out of range.
    pub fn add_dff(&mut self, d: NetId) -> Result<NetId, NetlistError> {
        let name = numbered(&["ff"], self.dffs.len());
        self.add_dff_named(d, name)
    }

    /// Adds a D flip-flop with an explicit instance name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `d` is out of range.
    pub fn add_dff_named(
        &mut self,
        d: NetId,
        name: impl Into<String>,
    ) -> Result<NetId, NetlistError> {
        self.check_arity(GateKind::Dff, std::slice::from_ref(&d))?;
        let name = name.into();
        let q = self.fresh_net(&name, "_q");
        let cell = self.push_cell(GateKind::Dff, vec![d], q, name);
        self.connect(cell);
        self.dffs.push(cell);
        Ok(q)
    }

    /// Adds a constant cell.
    pub fn add_const(&mut self, value: bool) -> NetId {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.add_gate(kind, &[]).expect("constants have arity 0")
    }

    /// Marks `net` as a primary output with the given port name.
    pub fn mark_output(&mut self, net: NetId, name: impl Into<String>) {
        self.outputs.push((net, name.into()));
    }

    fn push_cell(
        &mut self,
        kind: GateKind,
        inputs: Vec<NetId>,
        output: NetId,
        name: String,
    ) -> CellId {
        self.topo_cache.take();
        let id = CellId::from_index(self.cells.len());
        self.cells.push(Cell {
            kind,
            inputs,
            output,
            name,
            lib: None,
        });
        id
    }

    fn connect(&mut self, cell: CellId) {
        self.topo_cache.take();
        let c = &self.cells[cell.index()];
        self.nets[c.output.index()].driver = Some(cell);
        for (pin, net) in c.inputs.iter().enumerate() {
            self.nets[net.index()].fanout.push((cell, pin));
        }
    }

    fn check_arity(&self, kind: GateKind, inputs: &[NetId]) -> Result<(), NetlistError> {
        if !kind.accepts_arity(inputs.len()) {
            return Err(NetlistError::BadArity {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        for &n in inputs {
            if n.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(n));
            }
        }
        Ok(())
    }

    /// Assigns a library binding to a cell.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] for an out-of-range id.
    pub fn bind_lib(&mut self, cell: CellId, lib: LibCellId) -> Result<(), NetlistError> {
        let c = self
            .cells
            .get_mut(cell.index())
            .ok_or(NetlistError::UnknownCell(cell))?;
        c.lib = Some(lib);
        Ok(())
    }

    /// Reconnects input pin `pin` of `cell` to `new_net`, maintaining fanout
    /// lists. This is the primitive used to splice key-gates into existing
    /// paths.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`]/[`NetlistError::UnknownNet`] for
    /// out-of-range ids, and [`NetlistError::BadArity`] if `pin` is out of
    /// range for the cell.
    pub fn rewire_input(
        &mut self,
        cell: CellId,
        pin: usize,
        new_net: NetId,
    ) -> Result<(), NetlistError> {
        if new_net.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(new_net));
        }
        let old_net = {
            let c = self
                .cells
                .get(cell.index())
                .ok_or(NetlistError::UnknownCell(cell))?;
            *c.inputs.get(pin).ok_or(NetlistError::BadArity {
                kind: c.kind.to_string(),
                got: pin,
            })?
        };
        self.topo_cache.take();
        self.cells[cell.index()].inputs[pin] = new_net;
        let fan = &mut self.nets[old_net.index()].fanout;
        if let Some(pos) = fan.iter().position(|&(c, p)| c == cell && p == pin) {
            fan.swap_remove(pos);
        }
        self.nets[new_net.index()].fanout.push((cell, pin));
        Ok(())
    }

    /// Re-points every primary-output entry currently reading `old` to `new`.
    /// Used when a key-gate is inserted directly in front of a primary output.
    pub fn rewire_output_po(&mut self, old: NetId, new: NetId) {
        for (net, _) in &mut self.outputs {
            if *net == old {
                *net = new;
            }
        }
    }

    /// All cells in arena order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// All nets in arena order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Primary-input nets in declaration order.
    pub fn input_nets(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary-output `(net, port-name)` pairs in declaration order.
    pub fn output_ports(&self) -> &[(NetId, String)] {
        &self.outputs
    }

    /// Primary-output nets in declaration order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs.iter().map(|&(n, _)| n).collect()
    }

    /// Flip-flop cells in insertion order.
    pub fn dff_cells(&self) -> &[CellId] {
        &self.dffs
    }

    /// Borrows a cell.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Borrows a net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of cells in the arena (including input markers and constants).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets in the arena.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Summary statistics following the paper's cell accounting.
    pub fn stats(&self) -> NetlistStats {
        let mut gates = 0;
        let mut dffs = 0;
        for c in &self.cells {
            match c.kind {
                GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
                GateKind::Dff => dffs += 1,
                _ => gates += 1,
            }
        }
        NetlistStats {
            cells: gates + dffs,
            gates,
            dffs,
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            nets: self.nets.len(),
        }
    }

    /// Checks structural invariants: every read net has a driver and the
    /// combinational logic is acyclic.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            if net.driver.is_none() && !net.fanout.is_empty() {
                return Err(NetlistError::UndrivenNet {
                    net: NetId::from_index(i),
                    name: net.name.clone(),
                });
            }
        }
        for &(net, _) in &self.outputs {
            if self.nets[net.index()].driver.is_none() {
                return Err(NetlistError::UndrivenNet {
                    net,
                    name: self.nets[net.index()].name.clone(),
                });
            }
        }
        self.topo_order_cached().map(|_| ())
    }

    /// Topologically orders the combinational cells (Kahn's algorithm seeded
    /// from primary inputs, constants, and flip-flop outputs). The order is
    /// cached; repeated calls on an unmutated netlist are cheap clones of
    /// the cached result ([`Netlist::topo_order_cached`] avoids even that).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational part
    /// is cyclic.
    pub fn topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        self.topo_order_cached().map(<[CellId]>::to_vec)
    }

    /// Borrowed view of the cached topological order, computing it on first
    /// use. Hot paths ([`Netlist::eval_nets`], the packed-engine compiler)
    /// go through this to avoid re-sorting the graph per pattern.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational part
    /// is cyclic.
    pub fn topo_order_cached(&self) -> Result<&[CellId], NetlistError> {
        match self.topo_cache.get_or_init(|| self.compute_topo_order()) {
            Ok(order) => Ok(order),
            Err(e) => Err(e.clone()),
        }
    }

    fn compute_topo_order(&self) -> Result<Vec<CellId>, NetlistError> {
        let mut indegree = vec![0usize; self.cells.len()];
        let mut order = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for (i, c) in self.cells.iter().enumerate() {
            match c.kind {
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => {
                    // Sources: their outputs are available at time zero.
                    queue.push_back(CellId::from_index(i));
                }
                _ => {
                    // Count distinct driving cells that are combinational.
                    indegree[i] = c
                        .inputs
                        .iter()
                        .filter(|n| {
                            self.nets[n.index()]
                                .driver
                                .map(|d| self.cells[d.index()].kind.is_combinational())
                                .unwrap_or(false)
                        })
                        .count();
                    if indegree[i] == 0 {
                        queue.push_back(CellId::from_index(i));
                    }
                }
            }
        }
        let mut emitted = vec![false; self.cells.len()];
        while let Some(cell) = queue.pop_front() {
            let c = &self.cells[cell.index()];
            let is_source = !c.kind.is_combinational();
            if !is_source {
                if emitted[cell.index()] {
                    continue;
                }
                emitted[cell.index()] = true;
                order.push(cell);
            }
            for &(sink, _) in &self.nets[c.output.index()].fanout {
                let sk = &self.cells[sink.index()];
                if !sk.kind.is_combinational() {
                    continue;
                }
                // Each (sink, pin) edge decrements once; a sink reading the
                // same net on several pins was counted once per pin above
                // only if driven by a combinational cell.
                if is_source {
                    continue;
                }
                if indegree[sink.index()] > 0 {
                    indegree[sink.index()] -= 1;
                    if indegree[sink.index()] == 0 {
                        queue.push_back(sink);
                    }
                }
            }
        }
        let comb_total = self
            .cells
            .iter()
            .filter(|c| c.kind.is_combinational())
            .count();
        if order.len() != comb_total {
            let via = self
                .cells
                .iter()
                .enumerate()
                .find(|(i, c)| c.kind.is_combinational() && !emitted[*i])
                .map(|(i, _)| CellId::from_index(i))
                .expect("some combinational cell must be unemitted");
            return Err(NetlistError::CombinationalCycle { via });
        }
        Ok(order)
    }

    /// Zero-delay evaluation of a purely combinational circuit: flip-flop Q
    /// nets are treated as `X`. Returns primary-output values in port order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs or
    /// the netlist fails validation; use [`Netlist::validate`] first for
    /// untrusted circuits.
    pub fn eval_comb(&self, inputs: &[Logic]) -> Vec<Logic> {
        assert_eq!(
            inputs.len(),
            self.inputs.len(),
            "expected {} input values",
            self.inputs.len()
        );
        let values = self.eval_nets(inputs, None);
        self.outputs
            .iter()
            .map(|&(n, _)| values[n.index()])
            .collect()
    }

    /// Evaluates every net given primary-input values and (optionally)
    /// flip-flop Q values in [`Netlist::dff_cells`] order. Returns the dense
    /// net-value table indexed by [`NetId::index`].
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or a cyclic netlist.
    pub fn eval_nets(&self, inputs: &[Logic], dff_q: Option<&[Logic]>) -> Vec<Logic> {
        assert_eq!(inputs.len(), self.inputs.len());
        if let Some(q) = dff_q {
            assert_eq!(q.len(), self.dffs.len());
        }
        let mut values = vec![Logic::X; self.nets.len()];
        for (i, &net) in self.inputs.iter().enumerate() {
            values[net.index()] = inputs[i];
        }
        for (i, &ff) in self.dffs.iter().enumerate() {
            let q = self.cells[ff.index()].output;
            values[q.index()] = dff_q.map(|v| v[i]).unwrap_or(Logic::X);
        }
        let order = self.topo_order_cached().expect("netlist must be acyclic");
        let mut in_buf = Vec::with_capacity(8);
        for &cell in order {
            let c = &self.cells[cell.index()];
            in_buf.clear();
            in_buf.extend(c.inputs.iter().map(|n| values[n.index()]));
            values[c.output.index()] = c.kind.eval(&in_buf);
        }
        // One combinational cell evaluated per topo entry: the same
        // per-pattern count the packed engine reports per lane, so packed
        // and scalar `eval.gate_evals` agree pattern for pattern.
        obs::add(names::EVAL_GATE_EVALS, order.len() as u64);
        obs::incr(names::EVAL_SCALAR_PASSES);
        values
    }
}

/// `parts` concatenated, followed by `n` in decimal: the builder's generated
/// names, written without going through `format!`.
pub(crate) fn numbered(parts: &[&str], n: usize) -> String {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = n;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let len = parts.iter().map(|p| p.len()).sum::<usize>() + digits.len() - at;
    let mut name = String::with_capacity(len);
    for p in parts {
        name.push_str(p);
    }
    name.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use Logic::{One, Zero};

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let axb = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let s = nl.add_gate(GateKind::Xor, &[axb, cin]).unwrap();
        let t1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let t2 = nl.add_gate(GateKind::And, &[axb, cin]).unwrap();
        let cout = nl.add_gate(GateKind::Or, &[t1, t2]).unwrap();
        nl.mark_output(s, "sum");
        nl.mark_output(cout, "cout");
        nl
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        nl.validate().unwrap();
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    let out = nl.eval_comb(&[
                        Logic::from_bool(a == 1),
                        Logic::from_bool(b == 1),
                        Logic::from_bool(c == 1),
                    ]);
                    let total = a + b + c;
                    assert_eq!(out[0], Logic::from_bool(total % 2 == 1), "sum {a}{b}{c}");
                    assert_eq!(out[1], Logic::from_bool(total >= 2), "cout {a}{b}{c}");
                }
            }
        }
    }

    #[test]
    fn stats_count_gates_and_ffs() {
        let mut nl = full_adder();
        let s = nl.output_nets()[0];
        nl.add_dff(s).unwrap();
        let st = nl.stats();
        assert_eq!(st.gates, 5);
        assert_eq!(st.dffs, 1);
        assert_eq!(st.cells, 6);
        assert_eq!(st.inputs, 3);
        assert_eq!(st.outputs, 2);
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let err = nl.add_gate(GateKind::Inv, &[a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
        let err = nl.add_gate(GateKind::And, &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { .. }));
    }

    #[test]
    fn unknown_net_is_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let bogus = NetId::from_index(99);
        assert!(matches!(
            nl.add_gate(GateKind::And, &[a, bogus]),
            Err(NetlistError::UnknownNet(_))
        ));
    }

    #[test]
    fn undriven_net_fails_validation() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let floating = nl.add_net("w");
        let y = nl.add_gate(GateKind::And, &[a, floating]).unwrap();
        nl.mark_output(y, "y");
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn dff_breaks_cycles() {
        // q = DFF(not q) is a legal sequential loop.
        let mut nl = Netlist::new("t");
        let d = nl.add_net("d");
        let q = nl.add_dff(d).unwrap();
        let nq = nl.add_gate(GateKind::Inv, &[q]).unwrap();
        // Drive d from nq by building the inverter first in real designs;
        // here we patch the net by adding a buffer driving `d`'s reader.
        // Simplest: rewire the DFF input to nq.
        let ff = nl.dff_cells()[0];
        nl.rewire_input(ff, 0, nq).unwrap();
        nl.mark_output(q, "q");
        // The original `d` net now has no readers and no driver: fine.
        nl.validate().unwrap();
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let w = nl.add_net("w");
        let y = nl.add_gate(GateKind::And, &[a, w]).unwrap();
        let z = nl.add_gate(GateKind::Buf, &[y]).unwrap();
        // Close the loop: w is driven by z's buffer via rewiring the AND.
        let and_cell = nl.net(y).driver().unwrap();
        nl.rewire_input(and_cell, 1, z).unwrap();
        nl.mark_output(y, "y");
        let _ = w;
        assert!(matches!(
            nl.topo_order(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn rewire_updates_fanout() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g = nl.net(y).driver().unwrap();
        let c = nl.add_input("c");
        nl.rewire_input(g, 0, c).unwrap();
        assert!(nl.net(a).fanout().is_empty());
        assert_eq!(nl.net(c).fanout(), &[(g, 0)]);
        nl.mark_output(y, "y");
        assert_eq!(nl.eval_comb(&[Zero, One, One]), vec![One]);
        assert_eq!(nl.eval_comb(&[One, One, Zero]), vec![Zero]);
    }

    #[test]
    fn topo_cache_invalidates_on_mutation() {
        let mut nl = full_adder();
        let first = nl.topo_order().unwrap();
        // Cached: same answer, and the borrowed view is stable.
        assert_eq!(nl.topo_order_cached().unwrap(), &first[..]);
        // Structural mutation must drop the cache: append a gate and check
        // the new cell shows up in the refreshed order.
        let a = nl.input_nets()[0];
        let y = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let refreshed = nl.topo_order().unwrap();
        assert_eq!(refreshed.len(), first.len() + 1);
        let inv = nl.net(y).driver().unwrap();
        assert!(refreshed.contains(&inv));
        // Rewiring also invalidates: move the inverter onto another input
        // and confirm evaluation tracks the new wiring.
        nl.mark_output(y, "na");
        let b = nl.input_nets()[1];
        nl.rewire_input(inv, 0, b).unwrap();
        let out = nl.eval_comb(&[One, Zero, Zero]);
        assert_eq!(*out.last().unwrap(), One, "inverter now reads input b");
    }

    #[test]
    fn generated_names_and_lookup() {
        assert_eq!(numbered(&["g"], 0), "g0");
        assert_eq!(numbered(&["a", "_q", "_"], 1907), "a_q_1907");
        assert_eq!(numbered(&[], usize::MAX), usize::MAX.to_string());
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let q = nl.add_dff(y).unwrap();
        assert_eq!(nl.net(y).name(), "g1_1");
        assert_eq!(nl.net(q).name(), "ff0_q_2");
        // The index is built on the first lookup and kept current after.
        assert_eq!(nl.net_by_name("g1_1"), Some(y));
        let dup = nl.add_net("a");
        assert_eq!(
            nl.net_by_name("a"),
            Some(dup),
            "the last net named `a` wins"
        );
        nl.rename_net(y, "ny");
        assert_eq!(nl.net_by_name("ny"), Some(y));
        assert_eq!(nl.net_by_name("g1_1"), None);
    }

    #[test]
    fn sequential_q_defaults_to_x() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        let y = nl.add_gate(GateKind::And, &[q, a]).unwrap();
        nl.mark_output(y, "y");
        assert_eq!(nl.eval_comb(&[One]), vec![Logic::X]);
        let vals = nl.eval_nets(&[One], Some(&[One]));
        assert_eq!(vals[y.index()], One);
    }
}
