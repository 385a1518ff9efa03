//! The arena-based gate-level netlist.
//!
//! A netlist is a handful of flat arrays: one record per cell and per
//! net, every cell's input pins back to back, every net's fanout list in
//! one pool, and every name in one string arena addressed by `u32`
//! spans. Building a netlist grows those arrays, cloning it copies them,
//! and [`Netlist::cell`]/[`Netlist::net`] hand out `Copy` views into them.

use crate::{CellId, GateKind, LibCellId, Logic, NetId, NetlistError};
use glitchlock_obs::{self as obs, names};
use std::fmt;
use std::sync::OnceLock;

/// A byte range of a netlist's name arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of(self, arena: &str) -> &str {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }

    /// The span's first `len` bytes.
    pub(crate) fn prefix(self, len: usize) -> Span {
        debug_assert!(len <= self.len as usize);
        Span {
            start: self.start,
            len: len as u32,
        }
    }
}

/// An absent driver or library binding in a `u32` field.
const NONE: u32 = u32::MAX;

/// Fanout-pool room that no net's list uses.
const VACANT: (CellId, usize) = (CellId(NONE), usize::MAX);

#[derive(Clone, Copy, Debug)]
struct CellRec {
    kind: GateKind,
    /// The cell's first pin in [`Netlist::pins`]; its pins run up to the
    /// next cell's first.
    pins: u32,
    output: NetId,
    name: Span,
    /// The bound `LibCellId`, or [`NONE`]: library ids are indices into a
    /// cell library, far below `u32::MAX`.
    lib: u32,
}

#[derive(Clone, Copy, Debug)]
struct NetRec {
    name: Span,
    driver: u32,
    /// The fanout list: `len` entries of [`Netlist::sinks`] from `start`,
    /// in a segment with room for `cap`.
    start: u32,
    len: u32,
    cap: u32,
}

/// A single-driver wire: a view into its netlist.
#[derive(Clone, Copy)]
pub struct Net<'a> {
    nl: &'a Netlist,
    rec: &'a NetRec,
}

impl<'a> Net<'a> {
    /// The net's name (may be auto-generated).
    pub fn name(self) -> &'a str {
        self.rec.name.of(&self.nl.names)
    }

    /// The cell driving this net, if any.
    pub fn driver(self) -> Option<CellId> {
        (self.rec.driver != NONE).then_some(CellId(self.rec.driver))
    }

    /// The `(cell, input-pin)` pairs reading this net.
    pub fn fanout(self) -> &'a [(CellId, usize)] {
        let start = self.rec.start as usize;
        &self.nl.sinks[start..start + self.rec.len as usize]
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("name", &self.name())
            .field("driver", &self.driver())
            .field("fanout", &self.fanout())
            .finish()
    }
}

/// A gate, flip-flop, constant, or primary-input marker: a view into its
/// netlist.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    rec: &'a CellRec,
    inputs: &'a [NetId],
    names: &'a str,
}

impl<'a> Cell<'a> {
    /// The cell's function.
    pub fn kind(self) -> GateKind {
        self.rec.kind
    }

    /// Input nets in pin order.
    pub fn inputs(self) -> &'a [NetId] {
        self.inputs
    }

    /// The net this cell drives.
    pub fn output(self) -> NetId {
        self.rec.output
    }

    /// Instance name.
    pub fn name(self) -> &'a str {
        self.rec.name.of(self.names)
    }

    /// Library binding, if one has been assigned.
    pub fn lib(self) -> Option<LibCellId> {
        (self.rec.lib != NONE).then_some(LibCellId(self.rec.lib))
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("kind", &self.kind())
            .field("inputs", &self.inputs())
            .field("output", &self.output())
            .field("name", &self.name())
            .field("lib", &self.lib())
            .finish()
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
///
/// Storage is flat: whatever its size, a netlist owns about a dozen heap
/// buffers, so a clone is that many `memcpy`s (and one more pass over
/// the fanout lists if they have room to spare).
#[derive(Debug)]
pub struct Netlist {
    name: String,
    cells: Vec<CellRec>,
    nets: Vec<NetRec>,
    /// Every cell's input pins, in cell order.
    pins: Vec<NetId>,
    /// Every net's fanout list, each in a segment of its own. A list that
    /// outgrows its segment moves to the end of the pool, with room to
    /// double, and leaves its old segment behind.
    sinks: Vec<(CellId, usize)>,
    /// Entries of `sinks` in some net's fanout list.
    live: usize,
    /// Every name, back to back. A cell's name and its output net's name
    /// share bytes when one is a prefix of the other, as the builders'
    /// names (`g4`/`g4_9`, `G10_g`/`G10`) always are.
    names: String,
    inputs: Vec<NetId>,
    outputs: Vec<(NetId, Span)>,
    dffs: Vec<CellId>,
    /// Name → net index, built on the first [`Netlist::net_by_name`] call
    /// (most netlists are never searched by name) and kept current by
    /// [`Netlist::add_net`] once built.
    by_name: OnceLock<NameIndex>,
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
            pins: Vec::new(),
            sinks: Vec::new(),
            live: 0,
            names: String::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            dffs: Vec::new(),
            by_name: OnceLock::new(),
            topo_cache: OnceLock::new(),
        }
    }

    /// An empty netlist with every array reserved at its size in `sizes`
    /// (and as many fanout entries as pins): a builder that knows its
    /// sizes allocates each array once.
    pub(crate) fn with_capacity(name: &str, sizes: Sizes) -> Self {
        let mut nl = Netlist::new(name);
        nl.cells.reserve_exact(sizes.cells);
        nl.nets.reserve_exact(sizes.nets);
        nl.pins.reserve_exact(sizes.pins);
        nl.sinks.reserve_exact(sizes.pins);
        nl.names.reserve_exact(sizes.names);
        nl.inputs.reserve_exact(sizes.inputs);
        nl.outputs.reserve_exact(sizes.outputs);
        nl.dffs.reserve_exact(sizes.dffs);
        nl
    }

    /// An empty netlist with room for as many cells, nets, pins, name
    /// bytes, ports and flip-flops as `like` has: a rebuild of `like`
    /// that keeps most of it allocates each array once.
    pub fn with_capacity_of(name: &str, like: &Netlist) -> Self {
        Netlist::with_capacity(
            name,
            Sizes {
                cells: like.cells.len(),
                nets: like.nets.len(),
                pins: like.pins.len(),
                names: like.names.len(),
                inputs: like.inputs.len(),
                outputs: like.outputs.len(),
                dffs: like.dffs.len(),
            },
        )
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends `parts`, concatenated, to the name arena.
    pub(crate) fn push_name(&mut self, parts: &[&str]) -> Span {
        let start = self.names.len();
        for p in parts {
            self.names.push_str(p);
        }
        self.span_from(start)
    }

    /// Appends `parts` followed by `n` in decimal to the name arena: the
    /// builders' generated names.
    pub(crate) fn push_numbered(&mut self, parts: &[&str], n: usize) -> Span {
        let start = self.names.len();
        self.push_name(parts);
        push_decimal(&mut self.names, n);
        self.span_from(start)
    }

    fn span_from(&self, start: usize) -> Span {
        Span {
            start: start as u32,
            len: (self.names.len() - start) as u32,
        }
    }

    /// Adds a named net without a driver. Mostly used by parsers; builder
    /// methods create nets implicitly.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let span = self.push_name(&[name.as_ref()]);
        self.add_net_spanned(span)
    }

    /// Adds a net without a driver, named by an arena span.
    pub(crate) fn add_net_spanned(&mut self, name: Span) -> NetId {
        let id = NetId::from_index(self.nets.len());
        self.nets.push(NetRec {
            name,
            driver: NONE,
            start: self.sinks.len() as u32,
            len: 0,
            cap: 0,
        });
        if let Some(index) = self.by_name.get_mut() {
            index.insert(id.0, &self.nets, &self.names);
        }
        id
    }

    /// Looks a net up by name. When several nets share a name, the one
    /// added last wins.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name
            .get_or_init(|| NameIndex::build(&self.nets, &self.names))
            .get(name, &self.nets, &self.names)
    }

    /// Renames a net. By-name lookups then see the new name and no longer
    /// the old one.
    pub fn rename_net(&mut self, id: NetId, name: impl AsRef<str>) {
        let span = self.push_name(&[name.as_ref()]);
        self.nets[id.index()].name = span;
        self.by_name.take();
    }

    /// Adds a primary input and returns the net it drives.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NetId {
        let span = self.push_name(&[name.as_ref()]);
        self.add_input_spanned(span)
    }

    /// Adds a primary input whose net and cell are named by an arena span.
    pub(crate) fn add_input_spanned(&mut self, name: Span) -> NetId {
        let net = self.add_net_spanned(name);
        let cell = self.push_cell(GateKind::Input, &[], net, name);
        self.nets[net.index()].driver = cell.0;
        self.inputs.push(net);
        net
    }

    /// Adds a cell driving the existing, undriven `output` net without
    /// entering it into its input nets' fanout lists: a bulk builder adds
    /// every cell this way and then calls [`Netlist::index_fanout`].
    /// `inputs` may name nets that have no driver yet, so a parser can
    /// pre-create every net and then add cells in file order. The caller
    /// guarantees `kind` accepts `inputs.len()` pins.
    pub(crate) fn push_driver(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
        name: Span,
        lib: Option<LibCellId>,
    ) {
        debug_assert!(kind.accepts_arity(inputs.len()) && kind != GateKind::Input);
        debug_assert_eq!(self.nets[output.index()].driver, NONE);
        let cell = self.push_cell(kind, inputs, output, name);
        debug_assert_ne!(lib.map(|l| l.0), Some(NONE));
        self.cells[cell.index()].lib = lib.map_or(NONE, |l| l.0);
        self.nets[output.index()].driver = cell.0;
        if kind == GateKind::Dff {
            self.dffs.push(cell);
        }
    }

    /// Builds every net's fanout list from the pins, in (cell, pin)
    /// order: the lists [`Netlist::push_driver`] left out. Every list must
    /// be empty before.
    pub(crate) fn index_fanout(&mut self) {
        debug_assert!(self.sinks.is_empty());
        for &n in &self.pins {
            self.nets[n.index()].len += 1;
        }
        let mut start = 0;
        for net in &mut self.nets {
            net.start = start;
            net.cap = net.len;
            start += net.len;
            net.len = 0;
        }
        self.sinks.resize(self.pins.len(), VACANT);
        self.live = self.pins.len();
        for (i, c) in self.cells.iter().enumerate() {
            let end = self
                .cells
                .get(i + 1)
                .map_or(self.pins.len(), |c| c.pins as usize);
            for (pin, n) in self.pins[c.pins as usize..end].iter().enumerate() {
                let net = &mut self.nets[n.index()];
                self.sinks[(net.start + net.len) as usize] = (CellId::from_index(i), pin);
                net.len += 1;
            }
        }
    }

    /// Adds a combinational gate driving a fresh net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the pin count is illegal for
    /// `kind`, and [`NetlistError::UnknownNet`] for out-of-range input nets.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        self.check_gate(kind, inputs)?;
        let name = self.push_numbered(&["g"], self.cells.len());
        Ok(self.push_gate(kind, inputs, name, ""))
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
        name: impl AsRef<str>,
    ) -> Result<NetId, NetlistError> {
        self.check_gate(kind, inputs)?;
        let name = self.push_name(&[name.as_ref()]);
        Ok(self.push_gate(kind, inputs, name, ""))
    }

    /// Adds a D flip-flop and returns its Q net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `d` is out of range.
    pub fn add_dff(&mut self, d: NetId) -> Result<NetId, NetlistError> {
        self.check_arity(GateKind::Dff, std::slice::from_ref(&d))?;
        let name = self.push_numbered(&["ff"], self.dffs.len());
        Ok(self.push_gate(GateKind::Dff, &[d], name, "_q"))
    }

    /// Adds a D flip-flop with an explicit instance name.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `d` is out of range.
    pub fn add_dff_named(
        &mut self,
        d: NetId,
        name: impl AsRef<str>,
    ) -> Result<NetId, NetlistError> {
        self.check_arity(GateKind::Dff, std::slice::from_ref(&d))?;
        let name = self.push_name(&[name.as_ref()]);
        Ok(self.push_gate(GateKind::Dff, &[d], name, "_q"))
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

    /// Gives back every array's spare capacity and the fanout pool's
    /// unused room: a netlist that is done growing and will be kept a
    /// while holds only what it uses.
    pub fn shrink_to_fit(&mut self) {
        if self.sinks.len() != self.live {
            self.sinks = compacted(&mut self.nets, &self.sinks, self.live);
        }
        self.cells.shrink_to_fit();
        self.nets.shrink_to_fit();
        self.pins.shrink_to_fit();
        self.sinks.shrink_to_fit();
        self.names.shrink_to_fit();
        self.inputs.shrink_to_fit();
        self.outputs.shrink_to_fit();
        self.dffs.shrink_to_fit();
        if let Some(Ok(order)) = self.topo_cache.get_mut() {
            order.shrink_to_fit();
        }
    }

    /// Marks `net` as a primary output with the given port name.
    pub fn mark_output(&mut self, net: NetId, name: impl AsRef<str>) {
        let name = name.as_ref();
        let span = match self.nets.get(net.index()) {
            // A port named after its net shares the net's bytes.
            Some(n) if n.name.of(&self.names) == name => n.name,
            _ => self.push_name(&[name]),
        };
        self.outputs.push((net, span));
    }

    /// Marks `net` as a primary output whose port is named by an arena span.
    pub(crate) fn mark_output_spanned(&mut self, net: NetId, name: Span) {
        self.outputs.push((net, name));
    }

    /// Finishes a builder's gate named `cell_name`, the last name in the
    /// arena: its fresh output net is named that, `q_suffix`, `_` and the
    /// net's index (`g4_9`, `ff0_q_2`), sharing the cell name's bytes.
    fn push_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        cell_name: Span,
        q_suffix: &str,
    ) -> NetId {
        debug_assert_eq!((cell_name.start + cell_name.len) as usize, self.names.len());
        let out = NetId::from_index(self.nets.len());
        self.push_numbered(&[q_suffix, "_"], out.index());
        let net_name = self.span_from(cell_name.start as usize);
        self.add_net_spanned(net_name);
        let cell = self.push_cell(kind, inputs, out, cell_name);
        self.nets[out.index()].driver = cell.0;
        for (pin, net) in inputs.iter().enumerate() {
            self.push_sink(*net, (cell, pin));
        }
        if kind == GateKind::Dff {
            self.dffs.push(cell);
        }
        out
    }

    fn push_cell(&mut self, kind: GateKind, inputs: &[NetId], output: NetId, name: Span) -> CellId {
        self.topo_cache.take();
        let id = CellId::from_index(self.cells.len());
        self.cells.push(CellRec {
            kind,
            pins: self.pins.len() as u32,
            output,
            name,
            lib: NONE,
        });
        self.pins.extend_from_slice(inputs);
        id
    }

    /// Appends `sink` to `net`'s fanout list, moving the list to the end
    /// of the pool, with room to double, when its segment is full.
    fn push_sink(&mut self, net: NetId, sink: (CellId, usize)) {
        let rec = &mut self.nets[net.index()];
        let (start, len, cap) = (rec.start as usize, rec.len as usize, rec.cap as usize);
        self.live += 1;
        if len == cap {
            if start + cap == self.sinks.len() {
                // The segment ends the pool: grow it in place.
                self.sinks.push(sink);
                rec.len += 1;
                rec.cap += 1;
                return;
            }
            let moved = self.sinks.len();
            let room = (2 * len).max(4);
            self.sinks.extend_from_within(start..start + len);
            self.sinks.resize(moved + room, VACANT);
            rec.start = moved as u32;
            rec.cap = room as u32;
        }
        self.sinks[(rec.start + rec.len) as usize] = sink;
        rec.len += 1;
        // Left segments and unused room may take up to half the pool.
        if self.sinks.len() > 2 * self.live + 64 {
            self.sinks = compacted(&mut self.nets, &self.sinks, self.live);
        }
    }

    fn check_gate(&self, kind: GateKind, inputs: &[NetId]) -> Result<(), NetlistError> {
        if !kind.is_combinational() {
            return Err(NetlistError::BadArity {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        self.check_arity(kind, inputs)
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
        debug_assert_ne!(lib.0, NONE);
        c.lib = lib.0;
        Ok(())
    }

    /// Reconnects input pin `pin` of `cell` to `new_net`, maintaining fanout
    /// lists. This is the primitive used to splice key-gates into existing
    /// paths.
    ///
    /// The old net's list loses the entry by `swap_remove` (the list's last
    /// entry takes its place) and the new net's list gains it at the end;
    /// that order is observable through [`Net::fanout`] and everything
    /// ordered by it, [`Netlist::topo_order`] first.
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
        if cell.index() >= self.cells.len() {
            return Err(NetlistError::UnknownCell(cell));
        }
        let slot = {
            let c = self.cell(cell);
            if pin >= c.inputs().len() {
                return Err(NetlistError::BadArity {
                    kind: c.kind().to_string(),
                    got: pin,
                });
            }
            self.cells[cell.index()].pins as usize + pin
        };
        self.topo_cache.take();
        let old_net = std::mem::replace(&mut self.pins[slot], new_net);
        let rec = &mut self.nets[old_net.index()];
        let list = &mut self.sinks[rec.start as usize..(rec.start + rec.len) as usize];
        if let Some(pos) = list.iter().position(|&(c, p)| c == cell && p == pin) {
            let last = list.len() - 1;
            list.swap(pos, last);
            list[last] = VACANT;
            rec.len -= 1;
            self.live -= 1;
        }
        self.push_sink(new_net, (cell, pin));
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
    pub fn cells(&self) -> impl ExactSizeIterator<Item = (CellId, Cell<'_>)> + '_ {
        (0..self.cells.len()).map(|i| {
            let id = CellId::from_index(i);
            (id, self.cell(id))
        })
    }

    /// All nets in arena order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = (NetId, Net<'_>)> + '_ {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, rec)| (NetId::from_index(i), Net { nl: self, rec }))
    }

    /// Primary-input nets in declaration order.
    pub fn input_nets(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary-output `(net, port-name)` pairs in declaration order.
    pub fn output_ports(
        &self,
    ) -> impl ExactSizeIterator<Item = (NetId, &str)> + DoubleEndedIterator + Clone + '_ {
        self.outputs
            .iter()
            .map(|&(net, name)| (net, name.of(&self.names)))
    }

    /// The `j`-th primary output's `(net, port-name)` pair.
    ///
    /// # Panics
    ///
    /// Panics if there are no more than `j` primary outputs.
    pub fn output_port(&self, j: usize) -> (NetId, &str) {
        let (net, name) = self.outputs[j];
        (net, name.of(&self.names))
    }

    /// Primary-output nets in declaration order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs.iter().map(|&(n, _)| n).collect()
    }

    /// Flip-flop cells in insertion order.
    pub fn dff_cells(&self) -> &[CellId] {
        &self.dffs
    }

    /// A view of a cell.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        let rec = &self.cells[id.index()];
        let end = self
            .cells
            .get(id.index() + 1)
            .map_or(self.pins.len(), |next| next.pins as usize);
        Cell {
            rec,
            inputs: &self.pins[rec.pins as usize..end],
            names: &self.names,
        }
    }

    /// A view of a net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn net(&self, id: NetId) -> Net<'_> {
        Net {
            nl: self,
            rec: &self.nets[id.index()],
        }
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
        let undriven = |i: usize| NetlistError::UndrivenNet {
            net: NetId::from_index(i),
            name: self.nets[i].name.of(&self.names).to_string(),
        };
        for (i, net) in self.nets.iter().enumerate() {
            if net.driver == NONE && net.len > 0 {
                return Err(undriven(i));
            }
        }
        for &(net, _) in &self.outputs {
            if self.nets[net.index()].driver == NONE {
                return Err(undriven(net.index()));
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
        let mut order = Vec::with_capacity(self.cells.len());
        let mut queue = std::collections::VecDeque::with_capacity(self.cells.len());
        for (id, c) in self.cells() {
            match c.kind() {
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => {
                    // Sources: their outputs are available at time zero.
                    queue.push_back(id);
                }
                _ => {
                    // Count distinct driving cells that are combinational.
                    indegree[id.index()] = c
                        .inputs()
                        .iter()
                        .filter(|n| {
                            let driver = self.nets[n.index()].driver;
                            driver != NONE && self.cells[driver as usize].kind.is_combinational()
                        })
                        .count();
                    if indegree[id.index()] == 0 {
                        queue.push_back(id);
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
            for &(sink, _) in self.net(c.output).fanout() {
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
            let c = self.cell(cell);
            in_buf.clear();
            in_buf.extend(c.inputs().iter().map(|n| values[n.index()]));
            values[c.output().index()] = c.kind().eval(&in_buf);
        }
        // One combinational cell evaluated per topo entry: the same
        // per-pattern count the packed engine reports per lane, so packed
        // and scalar `eval.gate_evals` agree pattern for pattern.
        obs::add(names::EVAL_GATE_EVALS, order.len() as u64);
        obs::incr(names::EVAL_SCALAR_PASSES);
        values
    }
}

impl Clone for Netlist {
    /// Copies every array; the fanout pool is copied without the room and
    /// left segments of its growth, if it has any.
    fn clone(&self) -> Self {
        let mut nets = self.nets.clone();
        let sinks = if self.sinks.len() == self.live {
            self.sinks.clone()
        } else {
            compacted(&mut nets, &self.sinks, self.live)
        };
        Netlist {
            name: self.name.clone(),
            cells: self.cells.clone(),
            nets,
            pins: self.pins.clone(),
            sinks,
            live: self.live,
            names: self.names.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            dffs: self.dffs.clone(),
            by_name: self.by_name.clone(),
            topo_cache: self.topo_cache.clone(),
        }
    }
}

/// Copies the `live` fanout entries of `nets` out of `sinks` into a pool
/// of their own, every list in net order with no room to spare, and
/// points `nets` at it.
fn compacted(nets: &mut [NetRec], sinks: &[(CellId, usize)], live: usize) -> Vec<(CellId, usize)> {
    let mut pool = Vec::with_capacity(live);
    for net in nets {
        let start = net.start as usize;
        net.start = pool.len() as u32;
        net.cap = net.len;
        pool.extend_from_slice(&sinks[start..start + net.len as usize]);
    }
    pool
}

/// The array sizes a bulk builder reserves up front
/// ([`Netlist::with_capacity`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Sizes {
    pub(crate) cells: usize,
    pub(crate) nets: usize,
    pub(crate) pins: usize,
    pub(crate) names: usize,
    pub(crate) inputs: usize,
    pub(crate) outputs: usize,
    pub(crate) dffs: usize,
}

/// Net lookup by name: an open-addressing table of net indices hashed
/// over the name arena, so it owns no strings of its own.
#[derive(Clone, Debug)]
struct NameIndex {
    /// Net indices, [`NONE`] for an empty slot; the length is a power of
    /// two at least twice `len`.
    slots: Vec<u32>,
    len: usize,
}

impl NameIndex {
    fn build(nets: &[NetRec], names: &str) -> Self {
        let mut index = NameIndex {
            slots: vec![NONE; (2 * nets.len()).next_power_of_two().max(16)],
            len: 0,
        };
        for i in 0..nets.len() {
            index.insert(i as u32, nets, names);
        }
        index
    }

    /// The slot holding the net named `name`, or the empty slot where it
    /// would go.
    fn slot(&self, name: &str, nets: &[NetRec], names: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = fnv1a(name.as_bytes()) as usize & mask;
        loop {
            let net = self.slots[at];
            if net == NONE || nets[net as usize].name.of(names) == name {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    /// Enters `net` under its name, replacing a net of the same name.
    fn insert(&mut self, net: u32, nets: &[NetRec], names: &str) {
        if 2 * (self.len + 1) > self.slots.len() {
            let grown = vec![NONE; 2 * self.slots.len()];
            let old = std::mem::replace(&mut self.slots, grown);
            for n in old.into_iter().filter(|&n| n != NONE) {
                let at = self.slot(nets[n as usize].name.of(names), nets, names);
                self.slots[at] = n;
            }
        }
        let at = self.slot(nets[net as usize].name.of(names), nets, names);
        if self.slots[at] == NONE {
            self.len += 1;
        }
        self.slots[at] = net;
    }

    fn get(&self, name: &str, nets: &[NetRec], names: &str) -> Option<NetId> {
        let net = self.slots[self.slot(name, nets, names)];
        (net != NONE).then_some(NetId(net))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Appends `n` in decimal, without going through `format!`.
fn push_decimal(out: &mut String, n: usize) {
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
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
        let mut digits = String::new();
        for n in [0, 1907, usize::MAX] {
            push_decimal(&mut digits, n);
            digits.push(' ');
        }
        assert_eq!(digits, format!("0 1907 {} ", usize::MAX));
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

    /// The fanout lists as a `Vec` per net kept the way the netlist kept
    /// them before its fanout pool: `push` on connect, `swap_remove` +
    /// `push` on rewire. Their order reaches the topological order and
    /// everything built from it.
    #[derive(Default)]
    struct FanoutModel {
        fanout: Vec<Vec<(CellId, usize)>>,
        pins: Vec<Vec<NetId>>,
        names: std::collections::HashMap<String, NetId>,
    }

    impl FanoutModel {
        fn add_net(&mut self, name: &str) {
            let id = NetId::from_index(self.fanout.len());
            self.fanout.push(Vec::new());
            self.names.insert(name.to_string(), id);
        }

        fn add_cell(&mut self, inputs: &[NetId]) {
            let cell = CellId::from_index(self.pins.len());
            for (pin, n) in inputs.iter().enumerate() {
                self.fanout[n.index()].push((cell, pin));
            }
            self.pins.push(inputs.to_vec());
        }

        fn rewire(&mut self, cell: CellId, pin: usize, net: NetId) {
            let old = std::mem::replace(&mut self.pins[cell.index()][pin], net);
            let list = &mut self.fanout[old.index()];
            let pos = list.iter().position(|&e| e == (cell, pin)).unwrap();
            list.swap_remove(pos);
            self.fanout[net.index()].push((cell, pin));
        }

        fn assert_matches(&self, nl: &Netlist, what: &str) {
            assert_eq!(nl.net_count(), self.fanout.len(), "{what}");
            for (id, net) in nl.nets() {
                assert_eq!(net.fanout(), &self.fanout[id.index()][..], "{what}: {id:?}");
            }
            for (id, cell) in nl.cells() {
                assert_eq!(cell.inputs(), &self.pins[id.index()][..], "{what}: {id:?}");
            }
            for (name, &id) in &self.names {
                assert_eq!(nl.net_by_name(name), Some(id), "{what}: {name}");
            }
        }
    }

    /// Every fanout list equals the reference model, in order, after
    /// random builds and rewires, through clones, compactions and
    /// [`Netlist::shrink_to_fit`]; a clone emits what its source emits.
    #[test]
    fn fanout_lists_keep_their_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const KINDS: [GateKind; 6] = [
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Inv,
            GateKind::Buf,
            GateKind::Mux2,
        ];
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nl = Netlist::new("p");
            let mut model = FanoutModel::default();
            for i in 0..1 + rng.gen_range(0..4usize) {
                let name = format!("i{i}");
                nl.add_input(&name);
                model.add_net(&name);
                model.add_cell(&[]);
            }
            let ops = rng.gen_range(1..400usize);
            for op in 0..ops {
                let n = nl.net_count();
                let pick = |rng: &mut StdRng| NetId::from_index(rng.gen_range(0..n));
                match rng.gen_range(0..10u32) {
                    0..=3 => {
                        let kind = KINDS[rng.gen_range(0..KINDS.len())];
                        let arity = match kind {
                            GateKind::Inv | GateKind::Buf => 1,
                            GateKind::Mux2 => 3,
                            _ => rng.gen_range(2..5usize),
                        };
                        let ins: Vec<NetId> = (0..arity).map(|_| pick(&mut rng)).collect();
                        let y = nl.add_gate(kind, &ins).unwrap();
                        model.add_net(nl.net(y).name());
                        model.add_cell(&ins);
                    }
                    4 => {
                        let d = pick(&mut rng);
                        let q = nl.add_dff(d).unwrap();
                        model.add_net(nl.net(q).name());
                        model.add_cell(&[d]);
                    }
                    5 => {
                        // Names collide on purpose: the last net wins.
                        let name = format!("w{}", rng.gen_range(0..8u32));
                        nl.add_net(&name);
                        model.add_net(&name);
                    }
                    _ => {
                        let cell = CellId::from_index(rng.gen_range(0..nl.cell_count()));
                        let arity = nl.cell(cell).inputs().len();
                        if arity > 0 {
                            let pin = rng.gen_range(0..arity);
                            let net = pick(&mut rng);
                            nl.rewire_input(cell, pin, net).unwrap();
                            model.rewire(cell, pin, net);
                        }
                    }
                }
                if op % 50 == 49 {
                    model.assert_matches(&nl, &format!("seed {seed} op {op}"));
                    let copy = nl.clone();
                    model.assert_matches(&copy, &format!("seed {seed} op {op} clone"));
                    assert_eq!(
                        crate::bench_format::emit(&copy),
                        crate::bench_format::emit(&nl),
                        "seed {seed} op {op}"
                    );
                    // Keep building on the copy: the source is done.
                    nl = copy;
                }
                if op % 97 == 96 {
                    nl.shrink_to_fit();
                }
            }
            model.assert_matches(&nl, &format!("seed {seed}"));
        }
    }
}
