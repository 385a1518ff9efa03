//! Encrypt-FF flip-flop selection (Karmakar et al. \[4\]).
//!
//! Table I's last column selects, among the GK-feasible flip-flops, a group
//! **fanning out to the same set of primary outputs**. Encrypting such a
//! group makes scan-based attacks harder: the corruption from every key-gate
//! aliases onto the same observable outputs.

use glitchlock_netlist::{output_reach, CellId, Netlist, NetlistError, OutputReach};
use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;

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
    let (ffs, lens) = order_groups(netlist, &reach, candidates);
    let mut rest = &ffs[..];
    Ok(lens
        .iter()
        .map(|&len| {
            let (group, tail) = rest.split_at(len);
            rest = tail;
            FfGroup {
                outputs: reach.outputs(netlist.cell(group[0]).output()),
                ffs: group.to_vec(),
            }
        })
        .collect())
}

/// The grouping of [`group_by_output_cone`] without an output set and a
/// vector per group: every group's flip-flops back to back in its group
/// order, and the group lengths.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] on a cyclic netlist.
pub(crate) fn output_cone_order(
    netlist: &Netlist,
    candidates: &[CellId],
) -> Result<(Vec<CellId>, Vec<usize>), NetlistError> {
    Ok(order_groups(netlist, &output_reach(netlist)?, candidates))
}

fn order_groups(
    netlist: &Netlist,
    reach: &OutputReach,
    candidates: &[CellId],
) -> (Vec<CellId>, Vec<usize>) {
    let set = |ff: CellId| reach.words(netlist.cell(ff).output());
    // Stable sorts: a group keeps its flip-flops in candidate order, and
    // groups of one size stay in output-set order.
    let mut by_set = candidates.to_vec();
    by_set.sort_by(|&a, &b| cmp_sets(set(a), set(b)));
    let mut groups: Vec<&[CellId]> = by_set.chunk_by(|&a, &b| set(a) == set(b)).collect();
    groups.sort_by_key(|g| Reverse(g.len()));
    let lens = groups.iter().map(|g| g.len()).collect();
    (groups.concat(), lens)
}

/// Orders two output bitsets as their ascending index lists compare, the
/// order of `BTreeSet<usize>`: at the lowest index only one set holds,
/// that set is the smaller if the other holds a larger index, and the
/// larger if the other ends there.
fn cmp_sets(a: &[u64], b: &[u64]) -> Ordering {
    let Some(w) = (0..a.len()).find(|&w| a[w] != b[w]) else {
        return Ordering::Equal;
    };
    let bit = (a[w] ^ b[w]).trailing_zeros();
    let a_holds = a[w] >> bit & 1 == 1;
    let other = if a_holds { b } else { a };
    let other_goes_on = other[w] >> bit >> 1 != 0 || other[w + 1..].iter().any(|&x| x != 0);
    if a_holds == other_goes_on {
        Ordering::Less
    } else {
        Ordering::Greater
    }
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
