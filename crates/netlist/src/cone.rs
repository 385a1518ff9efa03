//! Cone analysis: transitive fanin/fanout, output support.
//!
//! Used by the Encrypt-FF flip-flop selection algorithm (paper Table I,
//! column "Ava. FF \[4\]"): flip-flops are grouped by the *set of primary
//! outputs they can reach*, and key-gates are placed on a group fanning out
//! to the same outputs.

use crate::{CellId, NetId, Netlist, NetlistError};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Returns the set of cells in the transitive fanin cone of `net`
/// (stopping at primary inputs and flip-flop outputs).
pub fn fanin_cone(netlist: &Netlist, net: NetId) -> HashSet<CellId> {
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(net);
    let mut visited_nets = HashSet::new();
    while let Some(n) = queue.pop_front() {
        if !visited_nets.insert(n) {
            continue;
        }
        let Some(driver) = netlist.net(n).driver() else {
            continue;
        };
        if !seen.insert(driver) {
            continue;
        }
        let cell = netlist.cell(driver);
        if cell.kind().is_combinational() {
            for &inp in cell.inputs() {
                queue.push_back(inp);
            }
        }
    }
    seen
}

/// Returns the set of cells in the transitive fanout cone of `net`
/// (crossing flip-flops is controlled by `through_ffs`).
pub fn fanout_cone(netlist: &Netlist, net: NetId, through_ffs: bool) -> HashSet<CellId> {
    let mut seen = HashSet::new();
    let mut queue = VecDeque::new();
    queue.push_back(net);
    let mut visited_nets = HashSet::new();
    while let Some(n) = queue.pop_front() {
        if !visited_nets.insert(n) {
            continue;
        }
        for &(sink, _) in netlist.net(n).fanout() {
            if !seen.insert(sink) {
                continue;
            }
            let cell = netlist.cell(sink);
            if cell.kind().is_sequential() && !through_ffs {
                continue;
            }
            queue.push_back(cell.output());
        }
    }
    seen
}

/// The primary outputs every net reaches through combinational logic only,
/// as one bitset per net: bit `i` stands for [`Netlist::output_ports`]
/// index `i`.
#[derive(Clone, Debug)]
pub struct OutputReach {
    /// Words per net, `⌈POs/64⌉`.
    words: usize,
    /// All bitsets back to back, indexed by [`NetId::index`].
    bits: Vec<u64>,
}

impl OutputReach {
    /// The bitset of `net`: output port `i` is bit `i % 64` of word `i / 64`.
    pub fn words(&self, net: NetId) -> &[u64] {
        &self.bits[net.index() * self.words..(net.index() + 1) * self.words]
    }

    /// The output-port indices `net` reaches, ascending.
    pub fn outputs(&self, net: NetId) -> BTreeSet<usize> {
        self.words(net)
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| {
                (0..64)
                    .filter(move |b| word >> b & 1 == 1)
                    .map(move |b| w * 64 + b)
            })
            .collect()
    }
}

/// Computes the primary outputs reachable from every net in one
/// reverse-topological pass, O(cells × ⌈POs/64⌉).
///
/// A net reaches its own output ports plus everything its combinational
/// sinks reach; a flip-flop sink ends the walk, so an output sitting on a
/// downstream flip-flop's Q is not reached.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the combinational part
/// is cyclic.
pub fn output_reach(netlist: &Netlist) -> Result<OutputReach, NetlistError> {
    let order = netlist.topo_order_cached()?;
    let words = netlist.output_ports().len().div_ceil(64);
    let mut bits = vec![0u64; netlist.net_count() * words];
    for (i, (net, _)) in netlist.output_ports().enumerate() {
        bits[net.index() * words + i / 64] |= 1 << (i % 64);
    }
    let mut absorb_sinks = |net: NetId| {
        let dst = net.index() * words;
        for &(sink, _) in netlist.net(net).fanout() {
            let cell = netlist.cell(sink);
            if cell.kind().is_combinational() {
                let src = cell.output().index() * words;
                for w in 0..words {
                    bits[dst + w] |= bits[src + w];
                }
            }
        }
    };
    // Every combinational sink comes later in topological order, so its
    // bitset is final by the time its drivers read it.
    for &cell in order.iter().rev() {
        absorb_sinks(netlist.cell(cell).output());
    }
    // Then the nets no combinational cell drives: primary inputs,
    // flip-flop Q pins, and undriven nets.
    for (net, n) in netlist.nets() {
        if n.driver()
            .is_none_or(|d| !netlist.cell(d).kind().is_combinational())
        {
            absorb_sinks(net);
        }
    }
    Ok(OutputReach { words, bits })
}

/// The set of primary-input indices in the combinational support of `net`.
pub fn output_support(netlist: &Netlist, net: NetId) -> BTreeSet<usize> {
    let cone = fanin_cone(netlist, net);
    let cone_nets: HashSet<NetId> = cone.iter().map(|&c| netlist.cell(c).output()).collect();
    netlist
        .input_nets()
        .iter()
        .enumerate()
        .filter(|(_, n)| cone_nets.contains(n) || **n == net)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn diamond() -> (Netlist, NetId, NetId, NetId) {
        // a -> inv -> y1 (PO), a -> buf -> ff -> y2 (PO)
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let i = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let y1 = nl.add_gate(GateKind::And, &[i, b]).unwrap();
        let bu = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let q = nl.add_dff(bu).unwrap();
        let y2 = nl.add_gate(GateKind::Buf, &[q]).unwrap();
        nl.mark_output(y1, "y1");
        nl.mark_output(y2, "y2");
        (nl, a, q, y1)
    }

    #[test]
    fn fanout_stops_at_ffs_when_asked() {
        let (nl, a, _, _) = diamond();
        let without = fanout_cone(&nl, a, false);
        let with = fanout_cone(&nl, a, true);
        assert!(with.len() > without.len());
    }

    /// The per-net BFS [`output_reach`] replaced, kept as its referee: the
    /// fanout cone without crossing flip-flops, then the outputs sitting on
    /// `net` itself or on a combinational cone cell's output.
    fn referee_outputs(nl: &Netlist, net: NetId) -> BTreeSet<usize> {
        let cone_nets: HashSet<NetId> = fanout_cone(nl, net, false)
            .into_iter()
            .filter(|&c| nl.cell(c).kind().is_combinational())
            .map(|c| nl.cell(c).output())
            .chain([net])
            .collect();
        nl.output_ports()
            .enumerate()
            .filter(|(_, (n, _))| cone_nets.contains(n))
            .map(|(i, _)| i)
            .collect()
    }

    fn assert_matches_referee(nl: &Netlist) {
        let reach = output_reach(nl).unwrap();
        for (net, _) in nl.nets() {
            assert_eq!(reach.outputs(net), referee_outputs(nl, net), "net {net:?}");
        }
    }

    #[test]
    fn output_reach_respects_ff_boundary() {
        let (nl, a, q, _) = diamond();
        let reach = output_reach(&nl).unwrap();
        // From input a, only y1 is combinationally reachable (y2 is behind
        // the flip-flop).
        assert_eq!(reach.outputs(a).into_iter().collect::<Vec<_>>(), vec![0]);
        // From the flip-flop's Q, only y2.
        assert_eq!(reach.outputs(q).into_iter().collect::<Vec<_>>(), vec![1]);
        assert_matches_referee(&nl);
    }

    #[test]
    fn output_on_downstream_q_is_not_reached() {
        // a -> inv -> ff; the flip-flop's Q is itself output y. The
        // flip-flop ends the combinational walk, so a and the inverter
        // reach nothing, while Q reaches its own port.
        let mut nl = Netlist::new("q_po");
        let a = nl.add_input("a");
        let i = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let q = nl.add_dff(i).unwrap();
        nl.mark_output(q, "y");
        let reach = output_reach(&nl).unwrap();
        assert!(reach.outputs(a).is_empty());
        assert!(reach.outputs(i).is_empty());
        assert_eq!(reach.outputs(q).into_iter().collect::<Vec<_>>(), vec![0]);
        assert_matches_referee(&nl);
    }

    #[test]
    fn bitsets_span_several_words() {
        // 130 outputs on one inverter chain: three words per net, and the
        // chain head reaches every port.
        let mut nl = Netlist::new("wide");
        let mut net = nl.add_input("a");
        for i in 0..130 {
            net = nl.add_gate(GateKind::Inv, &[net]).unwrap();
            nl.mark_output(net, format!("y{i}"));
        }
        let reach = output_reach(&nl).unwrap();
        let head = nl.input_nets()[0];
        assert_eq!(reach.words(head).len(), 3);
        assert_eq!(reach.outputs(head), (0..130).collect());
        assert_eq!(reach.outputs(net), BTreeSet::from([129]));
        assert_matches_referee(&nl);
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let x = nl.add_gate(GateKind::And, &[a, a]).unwrap();
        let y = nl.add_gate(GateKind::Inv, &[x]).unwrap();
        nl.rewire_input(nl.net(x).driver().unwrap(), 1, y).unwrap();
        nl.mark_output(y, "y");
        assert!(matches!(
            output_reach(&nl),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn fanin_cone_stops_at_ffs() {
        let (nl, _, _, y1) = diamond();
        let cone = fanin_cone(&nl, y1);
        // inv + and + two input markers.
        let kinds: Vec<_> = cone.iter().map(|&c| nl.cell(c).kind()).collect();
        assert!(kinds.contains(&GateKind::Inv));
        assert!(kinds.contains(&GateKind::And));
        assert!(!kinds.contains(&GateKind::Dff));
    }

    #[test]
    fn support_of_po() {
        let (nl, _, _, y1) = diamond();
        let s = output_support(&nl, y1);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![0, 1]);
    }
}
