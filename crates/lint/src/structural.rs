//! Structural netlist lints: connectivity defects a synthesis or hand-edit
//! step can introduce without making the netlist unparsable.

use crate::diagnostic::{
    Diagnostic, Location, Severity, COMBINATIONAL_LOOP, DANGLING_OUTPUT, DEAD_CONE, DUPLICATE_GATE,
    MULTIPLE_DRIVERS, UNDRIVEN_NET,
};
use crate::{LintContext, LintPass};
use glitchlock_netlist::{Aig, CellId, CombView, GateKind, NetId, Netlist};
use std::collections::{HashMap, HashSet};

/// Undriven/multiply-driven nets, dangling outputs, combinational loops,
/// duplicate gates, and dead (fanout-free) cones.
pub struct StructuralPass;

impl LintPass for StructuralPass {
    fn name(&self) -> &'static str {
        "structural"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[
            UNDRIVEN_NET,
            MULTIPLE_DRIVERS,
            DANGLING_OUTPUT,
            COMBINATIONAL_LOOP,
            DUPLICATE_GATE,
            DEAD_CONE,
        ]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = ctx.netlist;
        check_drivers(nl, out);
        check_loops(nl, out);
        check_duplicates(nl, out);
        check_dead_cones(nl, out);
        check_constant_cones(nl, out);
    }
}

fn check_drivers(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    let po_names: HashMap<NetId, &str> = nl.output_ports().collect();
    for (id, net) in nl.nets() {
        if net.driver().is_some() {
            continue;
        }
        if let Some(port) = po_names.get(&id) {
            out.push(
                Diagnostic::new(
                    DANGLING_OUTPUT,
                    Severity::Error,
                    Location::net(net.name()),
                    format!("primary output {port:?} has no driver"),
                )
                .with_suggestion("drive the port or drop it from the output list"),
            );
        } else if !net.fanout().is_empty() {
            let reader = nl.cell(net.fanout()[0].0).name().to_string();
            out.push(
                Diagnostic::new(
                    UNDRIVEN_NET,
                    Severity::Error,
                    Location::net(net.name()),
                    format!(
                        "net {:?} is read by {} cell(s) (e.g. {reader}) but never driven",
                        net.name(),
                        net.fanout().len()
                    ),
                )
                .with_suggestion("add a driver or rewire the readers"),
            );
        }
        // A driverless net with no readers and no port is inert scaffolding
        // (e.g. a parser placeholder); not worth a finding.
    }
    // The arena IR stores a single driver per net, so duplicates can only
    // appear if two cells claim the same output net. Scan for it anyway —
    // rewiring bugs would land exactly here.
    let mut claimed: HashMap<NetId, CellId> = HashMap::new();
    for (id, cell) in nl.cells() {
        if let Some(first) = claimed.insert(cell.output(), id) {
            out.push(Diagnostic::new(
                MULTIPLE_DRIVERS,
                Severity::Error,
                Location::cell_net(cell.name(), nl.net(cell.output()).name()),
                format!(
                    "net {:?} is driven by both {} and {}",
                    nl.net(cell.output()).name(),
                    nl.cell(first).name(),
                    cell.name()
                ),
            ));
        }
    }
}

/// Tarjan SCC over the combinational cell graph (DFF outputs break edges).
/// Each non-trivial SCC is one loop finding.
fn check_loops(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    let n = nl.cell_count();
    // Combinational successor edges: cell -> readers of its output.
    let succs = |c: CellId| -> Vec<CellId> {
        let cell = nl.cell(c);
        if cell.kind() == GateKind::Dff {
            return Vec::new();
        }
        nl.net(cell.output())
            .fanout()
            .iter()
            .map(|&(reader, _)| reader)
            .filter(|&r| nl.cell(r).kind() != GateKind::Dff)
            .collect()
    };

    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, iterator position over successors)
        let mut call: Vec<(usize, Vec<CellId>, usize)> = Vec::new();
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, succs(CellId::from_index(root)), 0));
        while let Some((v, vsuccs, pos)) = call.last_mut() {
            if let Some(&w) = vsuccs.get(*pos) {
                *pos += 1;
                let w = w.index();
                let v = *v;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, succs(CellId::from_index(w)), 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                let v = *v;
                call.pop();
                if let Some((parent, _, _)) = call.last() {
                    lowlink[*parent] = lowlink[*parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if scc.len() > 1 {
                        sccs.push(scc);
                    }
                }
            }
        }
    }

    for scc in sccs {
        let mut names: Vec<&str> = scc
            .iter()
            .map(|&c| nl.cell(CellId::from_index(c)).name())
            .collect();
        names.sort_unstable();
        let anchor = names[0].to_string();
        out.push(
            Diagnostic::new(
                COMBINATIONAL_LOOP,
                Severity::Error,
                Location::cell(&anchor),
                format!(
                    "combinational loop through {} cell(s): {}",
                    names.len(),
                    names.join(" -> ")
                ),
            )
            .with_suggestion("break the cycle with a flip-flop or rewire the feedback"),
        );
    }
}

/// Gate kinds where input order does not matter.
fn is_commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

fn check_duplicates(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    // Only multi-input logic kinds: Buf/Inv chains are legitimately
    // duplicated by delay-chain composition (shared-KEYGEN flows reuse the
    // same chain head), and constants/FFs are not "computations".
    let mut seen: HashMap<(GateKind, Vec<NetId>, Option<u32>), CellId> = HashMap::new();
    for (id, cell) in nl.cells() {
        let kind = cell.kind();
        if !matches!(
            kind,
            GateKind::And
                | GateKind::Nand
                | GateKind::Or
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
                | GateKind::Mux2
                | GateKind::Mux4
        ) {
            continue;
        }
        let mut ins = cell.inputs().to_vec();
        if is_commutative(kind) {
            ins.sort_unstable();
        }
        let lib = cell.lib().map(|l| l.0);
        match seen.insert((kind, ins, lib), id) {
            None => {}
            Some(first) => {
                out.push(
                    Diagnostic::new(
                        DUPLICATE_GATE,
                        Severity::Warning,
                        Location::cell_net(cell.name(), nl.net(cell.output()).name()),
                        format!(
                            "{} computes the same {kind} of the same nets as {}",
                            cell.name(),
                            nl.cell(first).name()
                        ),
                    )
                    .with_suggestion("merge the gates or retarget one of them"),
                );
            }
        }
    }
}

fn check_dead_cones(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    // Liveness as a backward dataflow fixpoint: a net is needed when it is
    // a primary output or feeds any pin (including flip-flop D pins) of a
    // cell whose own output is needed. A cell is live exactly when its
    // output net is needed — the same live set the old hand-rolled BFS
    // from primary-output drivers computed, so findings are byte-for-byte
    // identical.
    let needed = glitchlock_dataflow::live_facts(nl);
    let po_nets: HashSet<NetId> = nl.output_ports().map(|(n, _)| n).collect();
    for (_id, cell) in nl.cells() {
        if *needed.net(cell.output()) || cell.kind() == GateKind::Input {
            continue;
        }
        // Report only cone roots: dead cells nothing reads. Their fan-in is
        // implied, so one finding covers the whole cone.
        let output = cell.output();
        if nl.net(output).fanout().is_empty() && !po_nets.contains(&output) {
            out.push(
                Diagnostic::new(
                    DEAD_CONE,
                    Severity::Warning,
                    Location::cell_net(cell.name(), nl.net(output).name()),
                    format!(
                        "{} and its fan-in cone cannot influence any primary output",
                        cell.name()
                    ),
                )
                .with_suggestion("sweep the dead logic or connect it to an output"),
            );
        }
    }
}

fn check_constant_cones(nl: &Netlist, out: &mut Vec<Diagnostic>) {
    // The functional complement of `check_dead_cones`, on the AIG
    // substrate: lowering through the strash constant-folds cones like
    // `AND(a, INV(a))`, so a primary output whose literal lands on the
    // constant node has a fan-in cone no input can influence — dead logic
    // the structural scan cannot see because every cell in it has fanout.
    if nl.topo_order().is_err() || nl.nets().any(|(_, net)| net.driver().is_none()) {
        // Cyclic or undriven nets: check_loops/check_drivers already
        // reported them, and the AIG lowering would panic.
        return;
    }
    let view = CombView::new(nl);
    let aig = Aig::from_comb(nl, &view);
    for (j, (&lit, &net)) in aig
        .outputs()
        .iter()
        .zip(view.output_nets())
        .enumerate()
        .take(view.num_primary_outputs())
    {
        if !lit.is_const() {
            continue;
        }
        let Some(driver) = nl.net(net).driver() else {
            continue;
        };
        let cell = nl.cell(driver);
        // Deliberate tie-offs (constant cells, possibly buffered) are not
        // collapses; only flag cones that actually consume inputs.
        if cell.inputs().is_empty() || !cone_reads_an_input(nl, net) {
            continue;
        }
        let value = u8::from(lit.is_complemented());
        let port = nl.output_port(j).1;
        out.push(
            Diagnostic::new(
                DEAD_CONE,
                Severity::Warning,
                Location::cell_net(cell.name(), nl.net(net).name()),
                format!(
                    "{}'s fan-in cone rewrites to constant {value}: no input can influence \
                     primary output {port:?}",
                    cell.name()
                ),
            )
            .with_suggestion("replace the cone with a constant driver or fix the logic"),
        );
    }
}

/// True when the structural fan-in of `net` contains a primary input or a
/// flip-flop (i.e. the cone has at least one free variable).
fn cone_reads_an_input(nl: &Netlist, net: NetId) -> bool {
    let mut queue = vec![net];
    let mut seen: HashSet<NetId> = queue.iter().copied().collect();
    while let Some(n) = queue.pop() {
        let Some(driver) = nl.net(n).driver() else {
            continue;
        };
        let cell = nl.cell(driver);
        if matches!(cell.kind(), GateKind::Input | GateKind::Dff) {
            return true;
        }
        for &input in cell.inputs() {
            if seen.insert(input) {
                queue.push(input);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic;
    use crate::LintRunner;
    use glitchlock_netlist::Logic;
    use glitchlock_stdcell::Library;

    fn run(nl: &Netlist) -> crate::LintReport {
        let library = Library::cl013g_like();
        let ctx = LintContext::new(nl, &library);
        let runner = LintRunner::empty().with_pass(Box::new(StructuralPass));
        runner.run(&ctx)
    }

    #[test]
    fn constant_collapsed_output_cone_is_flagged() {
        // y = AND(a, INV(a)) — every cell has fanout (structurally live),
        // but the AIG rewrites the cone to constant 0.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let na = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y = nl.add_gate(GateKind::And, &[a, na]).unwrap();
        nl.mark_output(y, "y");
        let report = run(&nl);
        let hits = report.with_code(diagnostic::DEAD_CONE);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(
            hits[0].message.contains("constant 0"),
            "{}",
            hits[0].message
        );
    }

    #[test]
    fn deliberate_tie_off_is_not_a_constant_collapse() {
        let mut nl = Netlist::new("t");
        let one = nl.add_const(true);
        let y = nl.add_gate(GateKind::Buf, &[one]).unwrap();
        nl.mark_output(y, "y");
        let a = nl.add_input("a");
        let z = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        nl.mark_output(z, "z");
        let report = run(&nl);
        assert!(report.with_code(diagnostic::DEAD_CONE).is_empty());
    }

    #[test]
    fn undriven_and_dangling_are_flagged() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let ghost = nl.add_net("ghost");
        let y = nl.add_gate(GateKind::And, &[a, ghost]).unwrap();
        nl.mark_output(y, "y");
        let hole = nl.add_net("hole");
        nl.mark_output(hole, "z");
        let report = run(&nl);
        assert_eq!(report.with_code(diagnostic::UNDRIVEN_NET).len(), 1);
        assert_eq!(report.with_code(diagnostic::DANGLING_OUTPUT).len(), 1);
    }

    #[test]
    fn combinational_loop_is_flagged_without_sta() {
        // y = AND(a, w); w = OR(y, b) — a 2-cell loop.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let placeholder = nl.add_net("w");
        let y = nl.add_gate(GateKind::And, &[a, placeholder]).unwrap();
        let w = nl.add_gate(GateKind::Or, &[y, b]).unwrap();
        // Close the loop.
        nl.replace_uses(placeholder, w).unwrap();
        nl.mark_output(y, "y");
        let report = run(&nl);
        let loops = report.with_code(diagnostic::COMBINATIONAL_LOOP);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].message.contains("2 cell(s)"));
    }

    #[test]
    fn dff_breaks_loops() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let placeholder = nl.add_net("w");
        let d = nl.add_gate(GateKind::Xor, &[a, placeholder]).unwrap();
        let q = nl.add_dff(d).unwrap();
        nl.replace_uses(placeholder, q).unwrap();
        nl.mark_output(q, "y");
        let report = run(&nl);
        assert!(report.with_code(diagnostic::COMBINATIONAL_LOOP).is_empty());
    }

    #[test]
    fn duplicate_gates_flagged_commutatively() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[b, a]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[g1, g2]).unwrap();
        nl.mark_output(y, "y");
        let report = run(&nl);
        assert_eq!(report.with_code(diagnostic::DUPLICATE_GATE).len(), 1);
    }

    #[test]
    fn buf_chains_are_not_duplicates() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b1 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let b2 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[b1, b2]).unwrap();
        nl.mark_output(y, "y");
        let report = run(&nl);
        assert!(report.with_code(diagnostic::DUPLICATE_GATE).is_empty());
    }

    #[test]
    fn dead_cone_reports_only_the_root() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        // A two-cell dead cone: inv -> and, nothing reads the and.
        let inv = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let _dead = nl.add_gate(GateKind::And, &[inv, b]).unwrap();
        let report = run(&nl);
        let cones = report.with_code(diagnostic::DEAD_CONE);
        assert_eq!(cones.len(), 1, "only the cone root should be reported");
        // Sanity: the clean part still evaluates.
        assert_eq!(nl.eval_comb(&[Logic::One, Logic::One])[0], Logic::Zero);
    }

    #[test]
    fn clean_sequential_design_has_no_findings() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let d = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let q = nl.add_dff(d).unwrap();
        nl.mark_output(q, "y");
        let report = run(&nl);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }
}
