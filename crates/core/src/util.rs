//! Netlist surgery helpers shared by the locking flows.

use crate::CoreError;
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};
use std::collections::{HashSet, VecDeque};

/// Rebuilds `netlist` with each net in `promote` turned into a fresh
/// primary input (named by the paired string), dropping the cells in
/// `drop_cells` and any logic that then becomes dead.
///
/// This is how the attacker's view of a GK-locked design is produced: the
/// paper's SAT-attack experiment "removed the KEYGEN of each GK and treated
/// its key-input as the key-input of the design" (Sec. VI).
///
/// # Errors
///
/// Returns [`CoreError::Netlist`] if the result is structurally invalid.
pub fn promote_to_inputs(
    netlist: &Netlist,
    promote: &[(NetId, String)],
    drop_cells: &HashSet<CellId>,
) -> Result<Netlist, CoreError> {
    promote_to_inputs_dropping(netlist, promote, drop_cells, &[])
}

/// Like [`promote_to_inputs`], additionally removing the given primary
/// inputs entirely (used for KEYGEN key pins, which disappear together with
/// their KEYGEN in the attacker's view).
///
/// The result is what copying the surviving design and then running
/// [`glitchlock_synth::sweep_sequential`] on the copy would give, down to
/// net ids, names and cell order, but it is built in one rebuild: the
/// copy's topological order and liveness are computed on `netlist`'s own
/// indices, and only the swept cells are materialized.
///
/// # Errors
///
/// Returns [`CoreError::Netlist`] if the result is structurally invalid —
/// including when a dropped input still feeds surviving logic.
pub fn promote_to_inputs_dropping(
    netlist: &Netlist,
    promote: &[(NetId, String)],
    drop_cells: &HashSet<CellId>,
    drop_inputs: &[NetId],
) -> Result<Netlist, CoreError> {
    let net_err = |e: glitchlock_netlist::NetlistError| CoreError::Netlist(e.to_string());
    let order = netlist.topo_order_cached().map_err(net_err)?;
    let mut dropped = vec![false; netlist.cell_count()];
    for c in drop_cells {
        dropped[c.index()] = true;
    }
    let mut promoted = vec![false; netlist.net_count()];
    for (net, _) in promote {
        promoted[net.index()] = true;
    }

    // The surviving design ("the copy"): kept primary inputs, promoted
    // nets as fresh inputs, kept flip-flops, and the gates in `order` whose
    // inputs all survive. `exists` marks the nets the copy has; `rank`
    // numbers the copy's gates in creation order.
    let mut exists = vec![false; netlist.net_count()];
    let mut inputs: Vec<(NetId, &str)> =
        Vec::with_capacity(netlist.input_nets().len() + promote.len());
    for &pi in netlist.input_nets() {
        if !drop_inputs.contains(&pi) {
            exists[pi.index()] = true;
            inputs.push((pi, netlist.net(pi).name()));
        }
    }
    for (net, name) in promote {
        if !exists[net.index()] {
            exists[net.index()] = true;
            inputs.push((*net, name));
        }
    }
    let ffs: Vec<CellId> = netlist
        .dff_cells()
        .iter()
        .copied()
        .filter(|&ff| !dropped[ff.index()] && !promoted[netlist.cell(ff).output().index()])
        .collect();
    for &ff in &ffs {
        exists[netlist.cell(ff).output().index()] = true;
    }
    let mut rank = vec![NO_RANK; netlist.cell_count()];
    let mut gates: Vec<CellId> = Vec::with_capacity(order.len());
    for &c in order {
        let cell = netlist.cell(c);
        if dropped[c.index()]
            || exists[cell.output().index()]
            || !cell.inputs().iter().all(|n| exists[n.index()])
        {
            continue;
        }
        rank[c.index()] = gates.len() as u32;
        gates.push(c);
        exists[cell.output().index()] = true;
    }
    for &ff in &ffs {
        if !exists[netlist.cell(ff).inputs()[0].index()] {
            return Err(CoreError::Netlist(format!(
                "flip-flop {} reads a dropped cone",
                netlist.cell(ff).name()
            )));
        }
    }
    for (net, name) in netlist.output_ports() {
        if !exists[net.index()] {
            return Err(CoreError::Netlist(format!(
                "output {name} reads a dropped cone"
            )));
        }
    }
    let copy_order = copy_topo_order(netlist, &gates, &rank);

    // The sweep keeps the copy's gates that reach a primary output or a
    // flip-flop D pin, stopping at the copy's inputs and flip-flops.
    let mut live = vec![false; netlist.cell_count()];
    let mut work: Vec<NetId> = netlist.output_nets();
    work.extend(ffs.iter().map(|&ff| netlist.cell(ff).inputs()[0]));
    while let Some(n) = work.pop() {
        let Some(d) = netlist.net(n).driver() else {
            continue;
        };
        if rank[d.index()] != NO_RANK && !live[d.index()] {
            live[d.index()] = true;
            work.extend_from_slice(netlist.cell(d).inputs());
        }
    }

    // Materialize the swept copy.
    let mut out = Netlist::with_capacity_of(netlist.name(), netlist);
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &(net, name) in &inputs {
        map[net.index()] = Some(out.add_input(name));
    }
    let mut ff_map: Vec<(CellId, CellId)> = Vec::with_capacity(ffs.len());
    let mut d_name = String::new();
    for &ff in &ffs {
        let cell = netlist.cell(ff);
        d_name.clear();
        d_name.push_str(cell.name());
        d_name.push_str("_d");
        let placeholder = out.add_net(&d_name);
        let q = out
            .add_dff_named(placeholder, cell.name())
            .map_err(net_err)?;
        map[cell.output().index()] = Some(q);
        ff_map.push((ff, out.net(q).driver().expect("dff drives q")));
    }
    let mut ins: Vec<NetId> = Vec::new();
    for &c in copy_order.iter().filter(|c| live[c.index()]) {
        let cell = netlist.cell(c);
        ins.clear();
        ins.extend(
            cell.inputs()
                .iter()
                .map(|n| map[n.index()].expect("topological order")),
        );
        let y = out
            .add_gate_named(cell.kind(), &ins, cell.name())
            .map_err(net_err)?;
        if let Some(lib) = cell.lib() {
            let new_cell = out.net(y).driver().expect("gate drives net");
            out.bind_lib(new_cell, lib).map_err(net_err)?;
        }
        map[cell.output().index()] = Some(y);
    }
    for (old_ff, new_ff) in ff_map {
        let d = map[netlist.cell(old_ff).inputs()[0].index()].expect("live ff d mapped");
        out.rewire_input(new_ff, 0, d).map_err(net_err)?;
    }
    for (net, name) in netlist.output_ports() {
        out.mark_output(map[net.index()].expect("po is live"), name);
    }
    out.validate().map_err(net_err)?;
    Ok(out)
}

/// Marks a cell that is not one of the copy's gates in a rank table.
const NO_RANK: u32 = u32::MAX;

/// The order `Netlist::topo_order` (Kahn's algorithm, FIFO) gives on the
/// copy [`promote_to_inputs_dropping`] describes, without building it: the
/// copy's cells are its inputs and flip-flops followed by `gates`
/// (`rank[c]` is gate `c`'s position there), and its fanout lists are in
/// creation order, i.e. by rank.
fn copy_topo_order(netlist: &Netlist, gates: &[CellId], rank: &[u32]) -> Vec<CellId> {
    let ranked = |c: CellId| rank[c.index()] != NO_RANK;
    // Input pins driven by another of the copy's gates.
    let mut pending: Vec<u32> = gates
        .iter()
        .map(|&c| {
            let ins = netlist.cell(c).inputs();
            ins.iter()
                .filter(|&&n| netlist.net(n).driver().is_some_and(ranked))
                .count() as u32
        })
        .collect();
    let mut queue: VecDeque<CellId> = gates
        .iter()
        .copied()
        .filter(|c| pending[rank[c.index()] as usize] == 0)
        .collect();
    let mut order: Vec<CellId> = Vec::with_capacity(gates.len());
    let mut readers: Vec<CellId> = Vec::new();
    while let Some(c) = queue.pop_front() {
        order.push(c);
        readers.clear();
        let fanout = netlist.net(netlist.cell(c).output()).fanout();
        readers.extend(fanout.iter().map(|&(sink, _)| sink).filter(|&s| ranked(s)));
        readers.sort_by_key(|sink| rank[sink.index()]);
        for &sink in &readers {
            let left = &mut pending[rank[sink.index()] as usize];
            *left -= 1;
            if *left == 0 {
                queue.push_back(sink);
            }
        }
    }
    order
}

/// Inserts a gate *in front of one sink pin*: the sink's pin is rewired to
/// read the new gate's output. Returns the new gate's output net.
///
/// # Errors
///
/// Returns [`CoreError::Netlist`] on illegal pins or arities.
pub fn splice_before_pin(
    netlist: &mut Netlist,
    sink: CellId,
    pin: usize,
    kind: GateKind,
    extra_inputs: &[NetId],
) -> Result<NetId, CoreError> {
    let original = *netlist
        .cell(sink)
        .inputs()
        .get(pin)
        .ok_or_else(|| CoreError::Netlist(format!("cell has no pin {pin}")))?;
    let mut ins = vec![original];
    ins.extend_from_slice(extra_inputs);
    let y = netlist.add_gate(kind, &ins)?;
    netlist.rewire_input(sink, pin, y)?;
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::Logic;

    #[test]
    fn promote_turns_net_into_input() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::And, &[na, a]).unwrap();
        nl.mark_output(y, "y");
        // Promote the inverter output: the inverter becomes dead and the
        // AND now reads a free input.
        let view = promote_to_inputs(&nl, &[(na, "k".into())], &HashSet::new()).unwrap();
        assert_eq!(view.input_nets().len(), 2);
        assert_eq!(view.stats().gates, 1, "inverter swept");
        // y = k AND a now.
        assert_eq!(view.eval_comb(&[Logic::One, Logic::One]), vec![Logic::One]);
        assert_eq!(
            view.eval_comb(&[Logic::One, Logic::Zero]),
            vec![Logic::Zero]
        );
    }

    #[test]
    fn drop_cells_removes_cone() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let keygen_like = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::Buf, &[keygen_like]).unwrap();
        nl.mark_output(y, "y");
        let drop: HashSet<CellId> = [nl.net(keygen_like).driver().unwrap()].into();
        let view = promote_to_inputs(&nl, &[(keygen_like, "key".into())], &drop).unwrap();
        // The inverter is gone; y = buf(key).
        assert_eq!(view.stats().gates, 1);
        assert_eq!(
            view.eval_comb(&[Logic::X, Logic::One]),
            vec![Logic::One],
            "output follows the promoted input regardless of a"
        );
    }

    #[test]
    fn promoted_ff_q_removes_ff() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        let y = nl.add_gate(GateKind::Buf, &[q]).unwrap();
        nl.mark_output(y, "y");
        let view = promote_to_inputs(&nl, &[(q, "state".into())], &HashSet::new()).unwrap();
        assert_eq!(view.stats().dffs, 0);
        assert_eq!(view.input_nets().len(), 2);
    }

    #[test]
    fn splice_inserts_gate_before_pin() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        let and_cell = nl.net(y).driver().unwrap();
        let k = nl.add_input("k");
        let spliced = splice_before_pin(&mut nl, and_cell, 0, GateKind::Xor, &[k]).unwrap();
        assert_eq!(nl.cell(and_cell).inputs()[0], spliced);
        // y = (a ^ k) & b.
        assert_eq!(
            nl.eval_comb(&[Logic::One, Logic::One, Logic::One]),
            vec![Logic::Zero]
        );
        assert_eq!(
            nl.eval_comb(&[Logic::One, Logic::One, Logic::Zero]),
            vec![Logic::One]
        );
    }

    #[test]
    fn dropped_cone_feeding_output_is_an_error() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::Buf, &[g]).unwrap();
        nl.mark_output(y, "y");
        let drop: HashSet<CellId> = [nl.net(g).driver().unwrap()].into();
        // Dropping the inverter without promoting its output orphans y.
        let err = promote_to_inputs(&nl, &[], &drop).unwrap_err();
        assert!(matches!(err, CoreError::Netlist(_)));
    }

    /// The attack-view builder this module used before the one-rebuild
    /// rewrite: copy the surviving design, then sweep the copy. Kept as
    /// the referee for `one_rebuild_matches_copy_then_sweep`.
    fn reference_promote(
        netlist: &Netlist,
        promote: &[(NetId, String)],
        drop_cells: &HashSet<CellId>,
        drop_inputs: &[NetId],
    ) -> Result<Netlist, CoreError> {
        let promoted: std::collections::HashMap<NetId, &str> = promote
            .iter()
            .map(|(n, name)| (*n, name.as_str()))
            .collect();
        let mut out = Netlist::new(netlist.name());
        let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];

        for &pi in netlist.input_nets() {
            if drop_inputs.contains(&pi) {
                continue;
            }
            map[pi.index()] = Some(out.add_input(netlist.net(pi).name()));
        }
        for (net, name) in promote {
            if map[net.index()].is_none() {
                map[net.index()] = Some(out.add_input(name.clone()));
            }
        }

        // Copy flip-flops (except dropped ones) with placeholder D nets.
        let mut ff_map: Vec<(CellId, CellId)> = Vec::new();
        for &ff in netlist.dff_cells() {
            if drop_cells.contains(&ff) {
                continue;
            }
            let cell = netlist.cell(ff);
            if promoted.contains_key(&cell.output()) {
                continue; // its Q was promoted: the FF itself is gone
            }
            let placeholder = out.add_net(format!("{}_d", cell.name()));
            let q = out
                .add_dff_named(placeholder, cell.name())
                .map_err(|e| CoreError::Netlist(e.to_string()))?;
            map[cell.output().index()] = Some(q);
            ff_map.push((ff, out.net(q).driver().expect("dff drives q")));
        }

        let order = netlist
            .topo_order()
            .map_err(|e| CoreError::Netlist(e.to_string()))?;
        for cell_id in order {
            let cell = netlist.cell(cell_id);
            if drop_cells.contains(&cell_id) || map[cell.output().index()].is_some() {
                continue;
            }
            // Skip cells whose inputs are unavailable (inside dropped cones).
            let Some(ins) = cell
                .inputs()
                .iter()
                .map(|n| map[n.index()])
                .collect::<Option<Vec<NetId>>>()
            else {
                continue;
            };
            let y = out
                .add_gate_named(cell.kind(), &ins, cell.name())
                .map_err(|e| CoreError::Netlist(e.to_string()))?;
            if let Some(lib) = cell.lib() {
                let new_cell = out.net(y).driver().expect("gate drives net");
                out.bind_lib(new_cell, lib)
                    .map_err(|e| CoreError::Netlist(e.to_string()))?;
            }
            map[cell.output().index()] = Some(y);
        }

        for (old_ff, new_ff) in ff_map {
            let d_old = netlist.cell(old_ff).inputs()[0];
            let d = map[d_old.index()].ok_or_else(|| {
                CoreError::Netlist(format!(
                    "flip-flop {} reads a dropped cone",
                    netlist.cell(old_ff).name()
                ))
            })?;
            out.rewire_input(new_ff, 0, d)
                .map_err(|e| CoreError::Netlist(e.to_string()))?;
        }
        for (net, name) in netlist.output_ports() {
            let n = map[net.index()]
                .ok_or_else(|| CoreError::Netlist(format!("output {name} reads a dropped cone")))?;
            out.mark_output(n, name);
        }
        out.validate()
            .map_err(|e| CoreError::Netlist(e.to_string()))?;
        // Dead logic left behind by the drops is swept.
        glitchlock_synth::sweep_sequential(&out).map_err(|e| CoreError::Netlist(e.to_string()))
    }

    /// Every observable part of a netlist, for exact comparison.
    fn structure(nl: &Netlist) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{}\n", nl.name());
        for (id, net) in nl.nets() {
            let _ = writeln!(
                out,
                "{id:?} {} {:?} {:?}",
                net.name(),
                net.driver(),
                net.fanout()
            );
        }
        for (id, c) in nl.cells() {
            let _ = writeln!(
                out,
                "{id:?} {:?} {} {:?} {:?} {:?}",
                c.kind(),
                c.name(),
                c.inputs(),
                c.output(),
                c.lib()
            );
        }
        let _ = writeln!(
            out,
            "{:?} {:?} {:?}",
            nl.input_nets(),
            nl.output_ports().collect::<Vec<_>>(),
            nl.dff_cells()
        );
        out
    }

    #[test]
    fn one_rebuild_matches_copy_then_sweep() {
        use glitchlock_netlist::LibCellId;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5ee9);
        let mut agreed = 0;
        for case in 0..400 {
            // A random sequential netlist: flip-flops first (their D pins
            // closed at the end), then gates over any earlier net.
            let mut nl = Netlist::new(format!("r{case}"));
            let mut nets: Vec<NetId> = (0..2 + rng.gen_range(0..4))
                .map(|i| nl.add_input(format!("i{i}")))
                .collect();
            let n_ffs = rng.gen_range(0..4);
            for _ in 0..n_ffs {
                let d = nl.add_net("d");
                nets.push(nl.add_dff(d).unwrap());
            }
            for _ in 0..rng.gen_range(1..48) {
                let kind = [GateKind::And, GateKind::Xor, GateKind::Inv, GateKind::Mux2]
                    [rng.gen_range(0..4usize)];
                let arity = match kind {
                    GateKind::Inv => 1,
                    GateKind::Mux2 => 3,
                    _ => 2,
                };
                let ins: Vec<NetId> = (0..arity)
                    .map(|_| nets[rng.gen_range(0..nets.len())])
                    .collect();
                let y = nl.add_gate(kind, &ins).unwrap();
                if rng.gen_bool(0.2) {
                    let cell = nl.net(y).driver().unwrap();
                    nl.bind_lib(cell, LibCellId(rng.gen_range(0..4))).unwrap();
                }
                nets.push(y);
            }
            // Rewire some gate pins onto earlier nets (still acyclic), so
            // fanout lists leave creation order, as GK insertion leaves
            // them.
            for _ in 0..rng.gen_range(0..16) {
                let at = rng.gen_range(1..nets.len());
                let Some(cell) = nl.net(nets[at]).driver() else {
                    continue;
                };
                let pins = nl.cell(cell).inputs().len();
                if nl.cell(cell).kind().is_combinational() && pins > 0 {
                    let to = nets[rng.gen_range(0..at)];
                    nl.rewire_input(cell, rng.gen_range(0..pins), to).unwrap();
                }
            }
            let ffs = nl.dff_cells().to_vec();
            for ff in ffs {
                let d = nets[rng.gen_range(0..nets.len())];
                nl.rewire_input(ff, 0, d).unwrap();
            }
            for o in 0..1 + rng.gen_range(0..3) {
                let n = nets[rng.gen_range(0..nets.len())];
                nl.mark_output(n, format!("o{o}"));
            }
            nl.validate().unwrap();

            // Promote a few nets, drop their drivers and some of the
            // drivers' fanin, and sometimes drop primary inputs too.
            let mut promote = Vec::new();
            let mut drop = HashSet::new();
            for k in 0..rng.gen_range(0..4) {
                let n = nets[rng.gen_range(0..nets.len())];
                promote.push((n, format!("k{k}")));
                if let Some(d) = nl.net(n).driver() {
                    if nl.cell(d).kind() != GateKind::Input && rng.gen_bool(0.7) {
                        drop.insert(d);
                        for &i in nl.cell(d).inputs() {
                            match nl.net(i).driver() {
                                Some(dd)
                                    if nl.cell(dd).kind() != GateKind::Input
                                        && rng.gen_bool(0.5) =>
                                {
                                    drop.insert(dd);
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            let drop_inputs: Vec<NetId> = nl
                .input_nets()
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.1))
                .collect();
            let got = promote_to_inputs_dropping(&nl, &promote, &drop, &drop_inputs);
            let want = reference_promote(&nl, &promote, &drop, &drop_inputs);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(structure(g), structure(w), "case {case}");
                    agreed += 1;
                }
                (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "case {case}"),
                _ => panic!("case {case}: one rebuild {got:?}, reference {want:?}"),
            }
        }
        assert!(agreed > 200, "only {agreed} cases built a view");
    }
}
