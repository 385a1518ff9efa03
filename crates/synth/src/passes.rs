//! Netlist optimization passes (the re-synthesis substitute).
//!
//! [`optimize`] rebuilds a netlist with constant folding, buffer and
//! double-inverter collapsing, structural de-duplication, and dead-logic
//! sweeping. It is behaviour-preserving for the zero-delay semantics (the
//! property tests in `tests/` check this on random circuits); timing is
//! re-derived afterwards by STA, mirroring a real re-synthesis step.

use crate::SynthError;
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};
use std::collections::HashMap;

/// How an old net maps into the rebuilt netlist.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Repr {
    Const(bool),
    Net(NetId),
}

/// Rebuilds `netlist` with standard logic optimizations applied.
///
/// Preserved interface: primary inputs (same order/names), primary outputs
/// (same order/port names), and flip-flop count *for live flip-flops* (dead
/// state that cannot influence any primary output is swept).
///
/// # Errors
///
/// Returns [`SynthError::Netlist`] if the input netlist is structurally
/// invalid.
pub fn optimize(netlist: &Netlist) -> Result<Netlist, SynthError> {
    optimize_impl(netlist, false)
}

/// Like [`optimize`], but keeps every flip-flop (and its fanin cone) even
/// when its state cannot reach a primary output — required when the result
/// must stay aligned with another netlist's combinational unfolding (e.g.
/// the TDK strip-and-resynthesize attack).
///
/// # Errors
///
/// Returns [`SynthError::Netlist`] if the input netlist is structurally
/// invalid.
pub fn optimize_sequential(netlist: &Netlist) -> Result<Netlist, SynthError> {
    optimize_impl(netlist, true)
}

fn optimize_impl(netlist: &Netlist, keep_all_ffs: bool) -> Result<Netlist, SynthError> {
    netlist.validate()?;
    let live = if keep_all_ffs {
        live_cells_with_state(netlist)
    } else {
        live_cells(netlist)
    };

    let mut out = Netlist::new(netlist.name());
    let mut repr: Vec<Option<Repr>> = vec![None; netlist.net_count()];
    // Structural hashing of rebuilt gates.
    let mut cse: HashMap<(GateKind, Vec<NetId>), NetId> = HashMap::new();
    // Inverter tracking for double-inverter collapse: new net -> its
    // pre-inversion source.
    let mut inverted_from: HashMap<NetId, NetId> = HashMap::new();
    let mut const_nets: [Option<NetId>; 2] = [None, None];

    for &pi in netlist.input_nets() {
        let new = out.add_input(netlist.net(pi).name());
        repr[pi.index()] = Some(Repr::Net(new));
    }

    // Pre-create live flip-flops with placeholder D nets so combinational
    // logic can read their Q pins; rewired at the end.
    let mut ff_map: Vec<(CellId, CellId)> = Vec::new(); // (old, new)
    for &ff in netlist.dff_cells() {
        if !live[ff.index()] {
            continue;
        }
        let cell = netlist.cell(ff);
        let placeholder = out.add_net(format!("{}_d", cell.name()));
        let q = out
            .add_dff_named(placeholder, cell.name())
            .map_err(|e| SynthError::Netlist(e.to_string()))?;
        let new_ff = out.net(q).driver().expect("dff drives q");
        repr[cell.output().index()] = Some(Repr::Net(q));
        ff_map.push((ff, new_ff));
    }

    let order = netlist
        .topo_order_cached()
        .map_err(|e| SynthError::Netlist(e.to_string()))?;
    for &cell_id in order {
        if !live[cell_id.index()] {
            continue;
        }
        let cell = netlist.cell(cell_id);
        let ins: Vec<Repr> = cell
            .inputs()
            .iter()
            .map(|n| repr[n.index()].expect("topological order"))
            .collect();
        let folded = fold(
            cell.kind(),
            &ins,
            &mut out,
            &mut cse,
            &mut inverted_from,
            &mut const_nets,
        )?;
        repr[cell.output().index()] = Some(folded);
    }

    // Rewire flip-flop D pins.
    for (old_ff, new_ff) in ff_map {
        let d_old = netlist.cell(old_ff).inputs()[0];
        let d = materialize(
            repr[d_old.index()].expect("live ff d computed"),
            &mut out,
            &mut const_nets,
        );
        out.rewire_input(new_ff, 0, d)
            .map_err(|e| SynthError::Netlist(e.to_string()))?;
    }

    // Primary outputs.
    for (net, name) in netlist.output_ports() {
        let r = repr[net.index()].expect("po cone is live");
        let n = materialize(r, &mut out, &mut const_nets);
        out.mark_output(n, name);
    }
    out.validate()?;
    // Folding emits gates eagerly, so a gate whose output was later folded
    // away is left dead; sweep it out with a verbatim live-cone copy.
    let swept = sweep_impl(&out, keep_all_ffs)?;
    swept.validate()?;
    Ok(swept)
}

/// Rebuilds a netlist keeping only cells that can influence a primary
/// output. No logic restructuring — a pure dead-code sweep.
pub fn sweep(netlist: &Netlist) -> Result<Netlist, SynthError> {
    sweep_impl(netlist, false)
}

/// Like [`sweep`], but keeps every flip-flop (and its fanin cone) even when
/// its state cannot reach a primary output. Sequential attack tooling needs
/// this: the combinational unfolding treats every flip-flop D pin as a
/// pseudo primary output.
pub fn sweep_sequential(netlist: &Netlist) -> Result<Netlist, SynthError> {
    sweep_impl(netlist, true)
}

fn sweep_impl(netlist: &Netlist, keep_all_ffs: bool) -> Result<Netlist, SynthError> {
    let live = if keep_all_ffs {
        live_cells_with_state(netlist)
    } else {
        live_cells(netlist)
    };
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &pi in netlist.input_nets() {
        map[pi.index()] = Some(out.add_input(netlist.net(pi).name()));
    }
    let mut ff_map: Vec<(CellId, CellId)> = Vec::new();
    for &ff in netlist.dff_cells() {
        if !live[ff.index()] {
            continue;
        }
        let cell = netlist.cell(ff);
        let placeholder = out.add_net(format!("{}_d", cell.name()));
        let q = out
            .add_dff_named(placeholder, cell.name())
            .map_err(|e| SynthError::Netlist(e.to_string()))?;
        map[cell.output().index()] = Some(q);
        ff_map.push((ff, out.net(q).driver().expect("dff drives q")));
    }
    let order = netlist
        .topo_order_cached()
        .map_err(|e| SynthError::Netlist(e.to_string()))?;
    for &cell_id in order {
        if !live[cell_id.index()] {
            continue;
        }
        let cell = netlist.cell(cell_id);
        let ins: Vec<NetId> = cell
            .inputs()
            .iter()
            .map(|n| map[n.index()].expect("topological order"))
            .collect();
        let y = out
            .add_gate_named(cell.kind(), &ins, cell.name())
            .map_err(|e| SynthError::Netlist(e.to_string()))?;
        if let Some(lib) = cell.lib() {
            let new_cell = out.net(y).driver().expect("gate drives net");
            out.bind_lib(new_cell, lib)
                .map_err(|e| SynthError::Netlist(e.to_string()))?;
        }
        map[cell.output().index()] = Some(y);
    }
    for (old_ff, new_ff) in ff_map {
        let d_old = netlist.cell(old_ff).inputs()[0];
        let d = map[d_old.index()].expect("live ff d mapped");
        out.rewire_input(new_ff, 0, d)
            .map_err(|e| SynthError::Netlist(e.to_string()))?;
    }
    for (net, name) in netlist.output_ports() {
        let n = map[net.index()].expect("po is live");
        out.mark_output(n, name);
    }
    Ok(out)
}

/// Cells that can influence a primary output (traversing flip-flops),
/// indexed by cell.
fn live_cells(netlist: &Netlist) -> Vec<bool> {
    live_from_roots(netlist, netlist.output_nets())
}

/// Cells reachable backwards from primary outputs *or* any flip-flop D pin.
fn live_cells_with_state(netlist: &Netlist) -> Vec<bool> {
    let mut roots = netlist.output_nets();
    for &ff in netlist.dff_cells() {
        roots.push(netlist.cell(ff).output());
    }
    live_from_roots(netlist, roots)
}

fn live_from_roots(netlist: &Netlist, roots: Vec<NetId>) -> Vec<bool> {
    let mut live = vec![false; netlist.cell_count()];
    let mut work: Vec<NetId> = roots;
    while let Some(net) = work.pop() {
        let Some(driver) = netlist.net(net).driver() else {
            continue;
        };
        if !live[driver.index()] {
            live[driver.index()] = true;
            work.extend_from_slice(netlist.cell(driver).inputs());
        }
    }
    live
}

fn const_net(out: &mut Netlist, const_nets: &mut [Option<NetId>; 2], v: bool) -> NetId {
    if let Some(n) = const_nets[v as usize] {
        return n;
    }
    let n = out.add_const(v);
    const_nets[v as usize] = Some(n);
    n
}

fn materialize(r: Repr, out: &mut Netlist, const_nets: &mut [Option<NetId>; 2]) -> NetId {
    match r {
        Repr::Net(n) => n,
        Repr::Const(v) => const_net(out, const_nets, v),
    }
}

/// Folds one gate over already-resolved inputs, emitting at most one new
/// gate into `out`.
fn fold(
    kind: GateKind,
    ins: &[Repr],
    out: &mut Netlist,
    cse: &mut HashMap<(GateKind, Vec<NetId>), NetId>,
    inverted_from: &mut HashMap<NetId, NetId>,
    const_nets: &mut [Option<NetId>; 2],
) -> Result<Repr, SynthError> {
    use GateKind::*;
    let emit = |kind: GateKind,
                nets: Vec<NetId>,
                out: &mut Netlist,
                cse: &mut HashMap<(GateKind, Vec<NetId>), NetId>,
                inverted_from: &mut HashMap<NetId, NetId>|
     -> Result<Repr, SynthError> {
        // Canonicalize commutative inputs for structural hashing.
        let mut key_nets = nets.clone();
        if matches!(kind, And | Nand | Or | Nor | Xor | Xnor) {
            key_nets.sort();
        }
        if let Some(&existing) = cse.get(&(kind, key_nets.clone())) {
            return Ok(Repr::Net(existing));
        }
        let y = out
            .add_gate(kind, &nets)
            .map_err(|e| SynthError::Netlist(e.to_string()))?;
        cse.insert((kind, key_nets), y);
        if kind == Inv {
            inverted_from.insert(y, nets[0]);
        }
        Ok(Repr::Net(y))
    };

    match kind {
        Input | Dff => unreachable!("handled by the caller"),
        Const0 => Ok(Repr::Const(false)),
        Const1 => Ok(Repr::Const(true)),
        Buf => Ok(ins[0]),
        Inv => match ins[0] {
            Repr::Const(v) => Ok(Repr::Const(!v)),
            Repr::Net(n) => {
                if let Some(&src) = inverted_from.get(&n) {
                    // Double inverter collapses to the original net.
                    return Ok(Repr::Net(src));
                }
                emit(Inv, vec![n], out, cse, inverted_from)
            }
        },
        And | Nand | Or | Nor => {
            let invert_out = matches!(kind, Nand | Nor);
            let is_and = matches!(kind, And | Nand);
            // For AND-family: controlling value 0, identity 1. OR mirrors.
            let controlling = !is_and;
            let mut nets: Vec<NetId> = Vec::new();
            for &r in ins {
                match r {
                    Repr::Const(v) if v == controlling => {
                        return Ok(Repr::Const(controlling ^ invert_out));
                    }
                    Repr::Const(_) => {} // identity: drop
                    Repr::Net(n) => {
                        if !nets.contains(&n) {
                            nets.push(n);
                        }
                    }
                }
            }
            // Complementary pair check via tracked inverters.
            for &n in &nets {
                if let Some(src) = inverted_from.get(&n) {
                    if nets.contains(src) {
                        return Ok(Repr::Const(controlling ^ invert_out));
                    }
                }
            }
            match nets.len() {
                0 => Ok(Repr::Const(!controlling ^ invert_out)),
                1 => {
                    if invert_out {
                        fold(
                            Inv,
                            &[Repr::Net(nets[0])],
                            out,
                            cse,
                            inverted_from,
                            const_nets,
                        )
                    } else {
                        Ok(Repr::Net(nets[0]))
                    }
                }
                _ => emit(kind, nets, out, cse, inverted_from),
            }
        }
        Xor | Xnor => {
            let mut parity = kind == Xnor;
            let mut nets: Vec<NetId> = Vec::new();
            for &r in ins {
                match r {
                    Repr::Const(v) => parity ^= v,
                    Repr::Net(n) => {
                        // x ^ x = 0: cancel pairs.
                        if let Some(pos) = nets.iter().position(|&m| m == n) {
                            nets.swap_remove(pos);
                        } else {
                            nets.push(n);
                        }
                    }
                }
            }
            match nets.len() {
                0 => Ok(Repr::Const(parity)),
                1 => {
                    if parity {
                        fold(
                            Inv,
                            &[Repr::Net(nets[0])],
                            out,
                            cse,
                            inverted_from,
                            const_nets,
                        )
                    } else {
                        Ok(Repr::Net(nets[0]))
                    }
                }
                _ => emit(
                    if parity { Xnor } else { Xor },
                    nets,
                    out,
                    cse,
                    inverted_from,
                ),
            }
        }
        Mux2 => {
            let (in0, in1, sel) = (ins[0], ins[1], ins[2]);
            match sel {
                Repr::Const(false) => Ok(in0),
                Repr::Const(true) => Ok(in1),
                Repr::Net(s) => {
                    if in0 == in1 {
                        return Ok(in0);
                    }
                    match (in0, in1) {
                        (Repr::Const(false), Repr::Const(true)) => return Ok(Repr::Net(s)),
                        (Repr::Const(true), Repr::Const(false)) => {
                            return fold(Inv, &[Repr::Net(s)], out, cse, inverted_from, const_nets)
                        }
                        _ => {}
                    }
                    let n0 = materialize(in0, out, const_nets);
                    let n1 = materialize(in1, out, const_nets);
                    emit(Mux2, vec![n0, n1, s], out, cse, inverted_from)
                }
            }
        }
        Mux4 => {
            // Reduce via two levels of Mux2 folding.
            let lo = fold(
                Mux2,
                &[ins[0], ins[1], ins[4]],
                out,
                cse,
                inverted_from,
                const_nets,
            )?;
            let hi = fold(
                Mux2,
                &[ins[2], ins[3], ins[4]],
                out,
                cse,
                inverted_from,
                const_nets,
            )?;
            fold(Mux2, &[lo, hi, ins[5]], out, cse, inverted_from, const_nets)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::Logic;

    #[test]
    fn constant_folding_collapses_cone() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let zero = nl.add_const(false);
        let g = nl.add_gate(GateKind::And, &[a, zero]).unwrap();
        let h = nl.add_gate(GateKind::Or, &[g, a]).unwrap();
        nl.mark_output(h, "y");
        let opt = optimize(&nl).unwrap();
        // OR(0, a) = a: no gates remain.
        assert_eq!(opt.stats().gates, 0);
        assert_eq!(opt.eval_comb(&[Logic::One]), vec![Logic::One]);
        assert_eq!(opt.eval_comb(&[Logic::Zero]), vec![Logic::Zero]);
    }

    #[test]
    fn double_inverter_collapses() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::Inv, &[x]).unwrap();
        let z = nl.add_gate(GateKind::Buf, &[y]).unwrap();
        nl.mark_output(z, "y");
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.stats().gates, 0);
    }

    #[test]
    fn structural_dedup_shares_gates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[b, a]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        nl.mark_output(y, "y");
        let opt = optimize(&nl).unwrap();
        // AND(a,b) == AND(b,a) -> XOR(x,x) = 0.
        assert_eq!(opt.stats().gates, 0);
        assert_eq!(opt.eval_comb(&[Logic::One, Logic::One]), vec![Logic::Zero]);
    }

    #[test]
    fn complementary_inputs_fold() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::And, &[a, na]).unwrap();
        let z = nl.add_gate(GateKind::Or, &[a, na]).unwrap();
        nl.mark_output(y, "y");
        nl.mark_output(z, "z");
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.eval_comb(&[Logic::One]), vec![Logic::Zero, Logic::One]);
        assert_eq!(opt.eval_comb(&[Logic::Zero]), vec![Logic::Zero, Logic::One]);
        assert_eq!(opt.stats().gates, 0);
    }

    #[test]
    fn mux_with_constant_select_folds() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let one = nl.add_const(true);
        let y = nl.add_gate(GateKind::Mux2, &[a, b, one]).unwrap();
        nl.mark_output(y, "y");
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.stats().gates, 0);
        assert_eq!(opt.eval_comb(&[Logic::Zero, Logic::One]), vec![Logic::One]);
    }

    #[test]
    fn mux_as_inverter_recognized() {
        let mut nl = Netlist::new("t");
        let s = nl.add_input("s");
        let one = nl.add_const(true);
        let zero = nl.add_const(false);
        let y = nl.add_gate(GateKind::Mux2, &[one, zero, s]).unwrap();
        nl.mark_output(y, "y");
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.stats().gates, 1, "a single inverter remains");
        assert_eq!(opt.eval_comb(&[Logic::One]), vec![Logic::Zero]);
    }

    #[test]
    fn dead_ff_swept_live_ff_kept() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let _dead_q = nl.add_dff_named(a, "dead").unwrap();
        let live_q = nl.add_dff_named(a, "live").unwrap();
        let y = nl.add_gate(GateKind::Buf, &[live_q]).unwrap();
        nl.mark_output(y, "y");
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.stats().dffs, 1);
    }

    #[test]
    fn sequential_behaviour_preserved() {
        use glitchlock_netlist::SeqState;
        // 3-bit LFSR-ish circuit.
        let mut nl = Netlist::new("t");
        let d0 = nl.add_net("d0");
        let q0 = nl.add_dff(d0).unwrap();
        let d1 = nl.add_net("d1");
        let q1 = nl.add_dff(d1).unwrap();
        let fb = nl.add_gate(GateKind::Xor, &[q0, q1]).unwrap();
        let ffs = nl.dff_cells().to_vec();
        nl.rewire_input(ffs[0], 0, fb).unwrap();
        nl.rewire_input(ffs[1], 0, q0).unwrap();
        nl.mark_output(q1, "y");
        let opt = optimize(&nl).unwrap();
        let mut s1 = SeqState::from_values(&nl, vec![Logic::One, Logic::Zero]);
        let mut s2 = SeqState::from_values(&opt, vec![Logic::One, Logic::Zero]);
        for _ in 0..8 {
            assert_eq!(s1.step(&nl, &[]), s2.step(&opt, &[]));
        }
    }

    #[test]
    fn constant_po_materialized() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[a, na]).unwrap();
        nl.mark_output(y, "y");
        let opt = optimize(&nl).unwrap();
        assert_eq!(opt.eval_comb(&[Logic::One]), vec![Logic::One]);
        assert_eq!(opt.eval_comb(&[Logic::Zero]), vec![Logic::One]);
    }
}
