//! Helpers shared by the integration-test binaries.

use glitchlock::netlist::{GateKind, Netlist};
use rand::rngs::StdRng;
use rand::Rng;

/// Rebuilds `netlist` with one gate's function swapped (a stuck-design
/// "manufacturing defect"). The victim is drawn from the binary gates inside
/// the combinational cones of the primary outputs, so the fault is at least
/// structurally observable.
pub fn inject_gate_swap(netlist: &Netlist, rng: &mut StdRng) -> Netlist {
    let mut observable = std::collections::HashSet::new();
    for po in netlist.output_nets() {
        observable.extend(glitchlock::netlist::fanin_cone(netlist, po));
    }
    let candidates: Vec<_> = netlist
        .cells()
        .filter(|(id, c)| {
            observable.contains(id)
                && matches!(
                    c.kind(),
                    GateKind::And | GateKind::Or | GateKind::Nand | GateKind::Nor
                )
        })
        .map(|(id, _)| id)
        .collect();
    assert!(!candidates.is_empty(), "need a swappable gate");
    let victim = candidates[rng.gen_range(0..candidates.len())];
    let swapped_kind = match netlist.cell(victim).kind() {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::And,
        GateKind::Nand => GateKind::Nor,
        GateKind::Nor => GateKind::Nand,
        _ => unreachable!(),
    };
    // Rebuild with the victim's kind swapped.
    let mut out = Netlist::new(netlist.name());
    let mut map = vec![None; netlist.net_count()];
    for &pi in netlist.input_nets() {
        map[pi.index()] = Some(out.add_input(netlist.net(pi).name()));
    }
    let mut ff_map = Vec::new();
    for &ff in netlist.dff_cells() {
        let cell = netlist.cell(ff);
        let d = out.add_net(format!("{}_d", cell.name()));
        let q = out.add_dff_named(d, cell.name()).unwrap();
        map[cell.output().index()] = Some(q);
        ff_map.push((ff, out.net(q).driver().unwrap()));
    }
    for cell_id in netlist.topo_order().unwrap() {
        let cell = netlist.cell(cell_id);
        if map[cell.output().index()].is_some() {
            continue;
        }
        let ins: Vec<_> = cell
            .inputs()
            .iter()
            .map(|n| map[n.index()].unwrap())
            .collect();
        let kind = if cell_id == victim {
            swapped_kind
        } else {
            cell.kind()
        };
        let y = out.add_gate_named(kind, &ins, cell.name()).unwrap();
        map[cell.output().index()] = Some(y);
    }
    for (old_ff, new_ff) in ff_map {
        let d = map[netlist.cell(old_ff).inputs()[0].index()].unwrap();
        out.rewire_input(new_ff, 0, d).unwrap();
    }
    for (po, name) in netlist.output_ports() {
        out.mark_output(map[po.index()].unwrap(), name);
    }
    out
}
