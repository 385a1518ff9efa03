//! Encrypt-FF flip-flop selection (Karmakar et al. \[4\]).
//!
//! Table I's last column selects, among the GK-feasible flip-flops, a group
//! **fanning out to the same set of primary outputs**. Encrypting such a
//! group makes scan-based attacks harder: the corruption from every key-gate
//! aliases onto the same observable outputs.

use glitchlock_netlist::{output_reach, CellId, Netlist, NetlistError};
use std::collections::{BTreeSet, HashMap};

/// A group of flip-flops whose Q pins reach exactly the same primary
/// outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FfGroup {
    /// Indices (into [`Netlist::output_ports`]) of the reached outputs.
    pub outputs: BTreeSet<usize>,
    /// The flip-flops in the group.
    pub ffs: Vec<CellId>,
}

/// Groups `candidates` by the set of primary outputs their Q pins reach
/// combinationally, largest group first (ties broken by output-set order
/// for determinism). Within a group, flip-flops keep their order in
/// `candidates`.
///
/// One [`output_reach`] pass serves every candidate.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on a cyclic netlist.
pub fn group_by_output_cone(
    netlist: &Netlist,
    candidates: &[CellId],
) -> Result<Vec<FfGroup>, NetlistError> {
    let reach = output_reach(netlist)?;
    let mut groups: HashMap<&[u64], Vec<CellId>> = HashMap::new();
    for &ff in candidates {
        let q = netlist.cell(ff).output();
        groups.entry(reach.words(q)).or_default().push(ff);
    }
    let mut v: Vec<FfGroup> = groups
        .into_values()
        .map(|ffs| FfGroup {
            outputs: reach.outputs(netlist.cell(ffs[0]).output()),
            ffs,
        })
        .collect();
    // Output sets are distinct, so this order is total: the map's
    // iteration order never shows.
    v.sort_by(|a, b| {
        b.ffs
            .len()
            .cmp(&a.ffs.len())
            .then(a.outputs.cmp(&b.outputs))
    });
    Ok(v)
}

/// The Encrypt-FF selection: the largest same-output-cone group among the
/// candidates (Table I's "Ava. FF \[4\]" counts its size).
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on a cyclic netlist.
pub fn select_encrypt_ff(
    netlist: &Netlist,
    candidates: &[CellId],
) -> Result<Vec<CellId>, NetlistError> {
    Ok(group_by_output_cone(netlist, candidates)?
        .into_iter()
        .next()
        .map(|g| g.ffs)
        .unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::GateKind;

    /// Two flip-flops feed output y1 through shared logic; a third feeds y2.
    fn three_ffs() -> (Netlist, Vec<CellId>) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let q1 = nl.add_dff_named(a, "f1").unwrap();
        let q2 = nl.add_dff_named(a, "f2").unwrap();
        let q3 = nl.add_dff_named(a, "f3").unwrap();
        let y1 = nl.add_gate(GateKind::And, &[q1, q2]).unwrap();
        let y2 = nl.add_gate(GateKind::Inv, &[q3]).unwrap();
        nl.mark_output(y1, "y1");
        nl.mark_output(y2, "y2");
        let ffs = nl.dff_cells().to_vec();
        (nl, ffs)
    }

    #[test]
    fn groups_partition_by_cone() {
        let (nl, ffs) = three_ffs();
        let groups = group_by_output_cone(&nl, &ffs).unwrap();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].ffs.len(), 2, "largest group first");
        assert_eq!(
            groups[0].outputs.iter().copied().collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(groups[1].ffs, vec![ffs[2]]);
    }

    #[test]
    fn selection_returns_largest_group() {
        let (nl, ffs) = three_ffs();
        let sel = select_encrypt_ff(&nl, &ffs).unwrap();
        assert_eq!(sel, vec![ffs[0], ffs[1]]);
    }

    #[test]
    fn empty_candidates_give_empty_selection() {
        let (nl, _) = three_ffs();
        assert!(select_encrypt_ff(&nl, &[]).unwrap().is_empty());
    }

    #[test]
    fn candidate_subset_is_respected() {
        let (nl, ffs) = three_ffs();
        let sel = select_encrypt_ff(&nl, &ffs[2..]).unwrap();
        assert_eq!(sel, vec![ffs[2]]);
    }

    #[test]
    fn output_on_downstream_q_does_not_join_a_group() {
        // f1 feeds f2 directly and f2's Q is output y0; f3 reaches nothing
        // either. Only combinational reach counts, so f1 and f3 group
        // together on the empty set while f2 stands alone on {y0}.
        let mut nl = Netlist::new("q_po");
        let a = nl.add_input("a");
        let q1 = nl.add_dff_named(a, "f1").unwrap();
        let q2 = nl.add_dff_named(q1, "f2").unwrap();
        let _q3 = nl.add_dff_named(a, "f3").unwrap();
        nl.mark_output(q2, "y0");
        let ffs = nl.dff_cells().to_vec();
        let groups = group_by_output_cone(&nl, &ffs).unwrap();
        assert_eq!(
            groups,
            vec![
                FfGroup {
                    outputs: BTreeSet::new(),
                    ffs: vec![ffs[0], ffs[2]],
                },
                FfGroup {
                    outputs: BTreeSet::from([0]),
                    ffs: vec![ffs[1]],
                },
            ]
        );
    }
}
