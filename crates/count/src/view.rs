//! Data/key splitting of a locked netlist's combinational view.
//!
//! Both counting engines and all three score miters need the same
//! alignment the SAT attack's `MiterSession` uses: the view's inputs
//! (primary inputs, then flip-flop Qs) are classified by membership in
//! the key-input list, and the data positions line up positionally with
//! the oracle's own combinational view.

use glitchlock_netlist::{CombView, Logic, NetId, Netlist};

/// A locked netlist's combinational view with its inputs split into data
/// and key positions.
#[derive(Debug)]
pub struct KeyedView<'a> {
    /// The locked netlist the view was built from.
    pub netlist: &'a Netlist,
    /// Its combinational view (PIs + FF Qs in, POs + FF Ds out).
    pub view: CombView,
    /// View-input positions carrying data bits, in view order.
    pub data_ix: Vec<usize>,
    /// View-input positions carrying key bits, in view order. Key bit `i`
    /// throughout this crate means position `key_ix[i]`.
    pub key_ix: Vec<usize>,
}

impl<'a> KeyedView<'a> {
    /// Splits `netlist`'s combinational view by membership in
    /// `key_inputs`.
    pub fn new(netlist: &'a Netlist, key_inputs: &[NetId]) -> Self {
        let view = CombView::new(netlist);
        let mut data_ix = Vec::new();
        let mut key_ix = Vec::new();
        for (i, net) in view.input_nets().iter().enumerate() {
            if key_inputs.contains(net) {
                key_ix.push(i);
            } else {
                data_ix.push(i);
            }
        }
        KeyedView {
            netlist,
            view,
            data_ix,
            key_ix,
        }
    }

    /// Number of data bits (the `n` in `2^n` input-space counts).
    pub fn data_bits(&self) -> usize {
        self.data_ix.len()
    }

    /// Number of key bits (the `κ` in `2^κ` key-space counts).
    pub fn key_bits(&self) -> usize {
        self.key_ix.len()
    }

    /// Assembles one full view-input pattern: bit `j` of `data` drives
    /// data position `j`, `key[i]` drives key position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `key.len() != self.key_bits()`.
    pub fn pattern(&self, data: u64, key: &[bool]) -> Vec<Logic> {
        assert_eq!(key.len(), self.key_bits(), "key width");
        let mut row = vec![Logic::Zero; self.view.num_inputs()];
        for (j, &pos) in self.data_ix.iter().enumerate() {
            row[pos] = Logic::from_bool(data >> j & 1 == 1);
        }
        for (i, &pos) in self.key_ix.iter().enumerate() {
            row[pos] = Logic::from_bool(key[i]);
        }
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::GateKind;

    fn xor_locked() -> (Netlist, Vec<NetId>) {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let k = nl.add_input("key0");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[g, k]).unwrap();
        nl.mark_output(y, "y");
        (nl, vec![k])
    }

    #[test]
    fn splits_positions_in_view_order() {
        let (nl, keys) = xor_locked();
        let kv = KeyedView::new(&nl, &keys);
        assert_eq!(kv.data_bits(), 2);
        assert_eq!(kv.key_bits(), 1);
        assert_eq!(kv.data_ix, vec![0, 2]);
        assert_eq!(kv.key_ix, vec![1]);
    }

    #[test]
    fn pattern_places_bits_at_their_positions() {
        let (nl, keys) = xor_locked();
        let kv = KeyedView::new(&nl, &keys);
        // data bit 0 -> position 0 (a), data bit 1 -> position 2 (b).
        let row = kv.pattern(0b01, &[true]);
        assert_eq!(row, vec![Logic::One, Logic::One, Logic::Zero]);
        let row = kv.pattern(0b10, &[false]);
        assert_eq!(row, vec![Logic::Zero, Logic::Zero, Logic::One]);
    }
}
