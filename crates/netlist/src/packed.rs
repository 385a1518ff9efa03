//! Compiled bit-parallel evaluation: 64 input patterns per machine word.
//!
//! [`Netlist::eval_nets`] walks the topological order interpreting one
//! pattern at a time. Oracle-guided attacks (SAT attack DIP filtering,
//! AppSAT random-agreement probes, removal-attack skew sampling) evaluate
//! the same circuit across thousands of patterns, so this module compiles
//! the netlist **once** into a flat instruction stream ([`EvalProgram`])
//! and evaluates **64 patterns per `u64` word** with a two-plane encoding
//! ([`PackedLogic`]) that reproduces the scalar [`Logic`] X-propagation
//! semantics exactly, for every [`GateKind`].
//!
//! Two-plane encoding per net, per 64-pattern word:
//!
//! * `known` bit *i* — pattern *i* has a definite `0`/`1` level;
//! * `val` bit *i* — pattern *i* is `1` (only meaningful where `known`).
//!
//! Canonical invariant: `val & !known == 0`. Every gate formula below
//! preserves it, so `val` doubles as "known one" and `known & !val` as
//! "known zero" without masking.

use crate::{GateKind, Logic, NetId, Netlist, NetlistError};
use glitchlock_obs::{self as obs, names};

/// Patterns evaluated per word.
pub const LANES: usize = 64;

/// 64 three-valued levels for one net, in two bit-planes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PackedLogic {
    /// Bit *i* set — pattern *i* is `1`.
    pub val: u64,
    /// Bit *i* set — pattern *i* is `0` or `1` (not `X`).
    pub known: u64,
}

impl PackedLogic {
    /// All 64 lanes `X`.
    pub const X: PackedLogic = PackedLogic { val: 0, known: 0 };
    /// All 64 lanes `0`.
    pub const ZERO: PackedLogic = PackedLogic { val: 0, known: !0 };
    /// All 64 lanes `1`.
    pub const ONE: PackedLogic = PackedLogic { val: !0, known: !0 };

    /// Broadcasts one scalar level to all 64 lanes.
    pub fn splat(level: Logic) -> Self {
        match level {
            Logic::Zero => Self::ZERO,
            Logic::One => Self::ONE,
            Logic::X => Self::X,
        }
    }

    /// Packs up to 64 scalar levels into lanes `0..levels.len()`; the
    /// remaining lanes read as `0`.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] levels are given.
    pub fn from_lanes(levels: &[Logic]) -> Self {
        assert!(levels.len() <= LANES, "at most {LANES} lanes per word");
        let mut word = PackedLogic::ZERO;
        for (i, &l) in levels.iter().enumerate() {
            word.set(i, l);
        }
        word
    }

    /// Reads lane `i` back as a scalar level.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    pub fn get(self, i: usize) -> Logic {
        assert!(i < LANES);
        let bit = 1u64 << i;
        if self.known & bit == 0 {
            Logic::X
        } else if self.val & bit != 0 {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Writes lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= LANES`.
    pub fn set(&mut self, i: usize, level: Logic) {
        assert!(i < LANES);
        let bit = 1u64 << i;
        match level {
            Logic::Zero => {
                self.val &= !bit;
                self.known |= bit;
            }
            Logic::One => {
                self.val |= bit;
                self.known |= bit;
            }
            Logic::X => {
                self.val &= !bit;
                self.known &= !bit;
            }
        }
    }

    /// Lane-wise three-valued AND: `0` dominates `X`.
    #[inline]
    pub fn and(self, rhs: Self) -> Self {
        PackedLogic {
            val: self.val & rhs.val,
            known: (self.known & rhs.known) | (self.known & !self.val) | (rhs.known & !rhs.val),
        }
    }

    /// Lane-wise three-valued OR: `1` dominates `X`.
    #[inline]
    pub fn or(self, rhs: Self) -> Self {
        PackedLogic {
            val: self.val | rhs.val,
            known: (self.known & rhs.known) | self.val | rhs.val,
        }
    }

    /// Lane-wise three-valued XOR: any `X` input makes the lane `X`.
    #[inline]
    pub fn xor(self, rhs: Self) -> Self {
        let known = self.known & rhs.known;
        PackedLogic {
            val: (self.val ^ rhs.val) & known,
            known,
        }
    }

    /// Lane-wise 2:1 multiplexer: `a` where `sel = 0`, `b` where `sel = 1`;
    /// where `sel = X` the lane is known only if both data lanes agree on a
    /// definite level (matching [`Logic::mux`]).
    #[inline]
    pub fn mux(sel: Self, a: Self, b: Self) -> Self {
        let s0 = sel.known & !sel.val;
        let s1 = sel.val;
        let sx = !sel.known;
        let agree = a.known & b.known & !(a.val ^ b.val);
        PackedLogic {
            val: (s0 & a.val) | (s1 & b.val) | (sx & agree & a.val),
            known: (s0 & a.known) | (s1 & b.known) | (sx & agree),
        }
    }
}

/// Lane-wise NOT.
impl std::ops::Not for PackedLogic {
    type Output = Self;

    #[inline]
    fn not(self) -> Self {
        PackedLogic {
            val: self.known & !self.val,
            known: self.known,
        }
    }
}

/// Compact opcode for one compiled cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Const0,
    Const1,
    Buf,
    Inv,
    And,
    Nand,
    Or,
    Nor,
    Xor,
    Xnor,
    Mux2,
    Mux4,
}

/// One instruction: apply `op` over `operands[lo..hi]` (net slots), write
/// net slot `out`.
#[derive(Clone, Copy, Debug)]
struct Instr {
    op: Op,
    out: u32,
    lo: u32,
    hi: u32,
}

/// Dense per-net scratch space for one 64-pattern evaluation. Reusable
/// across calls; sized for the program that created it.
#[derive(Clone, Debug)]
pub struct PackedBuf {
    nets: Vec<PackedLogic>,
    // Probe handles resolved once per scratch allocation so the eval hot
    // loop pays two relaxed atomic adds per 64-pattern pass, not registry
    // lookups.
    gate_evals: obs::Counter,
    passes: obs::Counter,
}

impl PackedBuf {
    /// The word for a net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn net(&self, id: NetId) -> PackedLogic {
        self.nets[id.index()]
    }

    /// Overwrites the word for a net (used to force hypothesis values).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id.
    pub fn set_net(&mut self, id: NetId, word: PackedLogic) {
        self.nets[id.index()] = word;
    }
}

/// A netlist levelized once into a flat instruction stream, evaluating 64
/// patterns per word.
///
/// Compile with [`EvalProgram::compile`], allocate scratch once with
/// [`EvalProgram::scratch`], then call [`EvalProgram::eval`] (or
/// [`EvalProgram::eval_forced`] to pin selected nets) as many times as
/// needed. Input convention matches [`Netlist::eval_nets`]: primary inputs
/// in declaration order, flip-flop Q values in [`Netlist::dff_cells`]
/// order (`None` → all-`X`).
#[derive(Clone, Debug)]
pub struct EvalProgram {
    n_nets: usize,
    instrs: Vec<Instr>,
    operands: Vec<u32>,
    input_slots: Vec<u32>,
    dff_q_slots: Vec<u32>,
    dff_d_slots: Vec<u32>,
    output_slots: Vec<u32>,
}

impl EvalProgram {
    /// Levelizes `netlist` into an instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic logic.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        let order = netlist.topo_order_cached()?;
        let mut instrs = Vec::with_capacity(order.len());
        let mut operands = Vec::new();
        for &cell in order {
            let c = netlist.cell(cell);
            let op = match c.kind() {
                GateKind::Const0 => Op::Const0,
                GateKind::Const1 => Op::Const1,
                GateKind::Buf => Op::Buf,
                GateKind::Inv => Op::Inv,
                GateKind::And => Op::And,
                GateKind::Nand => Op::Nand,
                GateKind::Or => Op::Or,
                GateKind::Nor => Op::Nor,
                GateKind::Xor => Op::Xor,
                GateKind::Xnor => Op::Xnor,
                GateKind::Mux2 => Op::Mux2,
                GateKind::Mux4 => Op::Mux4,
                GateKind::Input | GateKind::Dff => {
                    unreachable!("topo order contains only combinational cells")
                }
            };
            let lo = operands.len() as u32;
            operands.extend(c.inputs().iter().map(|n| n.index() as u32));
            let hi = operands.len() as u32;
            instrs.push(Instr {
                op,
                out: c.output().index() as u32,
                lo,
                hi,
            });
        }
        let dff_q_slots = netlist
            .dff_cells()
            .iter()
            .map(|&ff| netlist.cell(ff).output().index() as u32)
            .collect();
        let dff_d_slots = netlist
            .dff_cells()
            .iter()
            .map(|&ff| netlist.cell(ff).inputs()[0].index() as u32)
            .collect();
        Ok(EvalProgram {
            n_nets: netlist.net_count(),
            instrs,
            operands,
            input_slots: netlist
                .input_nets()
                .iter()
                .map(|n| n.index() as u32)
                .collect(),
            dff_q_slots,
            dff_d_slots,
            output_slots: netlist
                .output_ports()
                .map(|(n, _)| n.index() as u32)
                .collect(),
        })
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Number of flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.dff_q_slots.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.output_slots.len()
    }

    /// Allocates scratch space sized for this program.
    pub fn scratch(&self) -> PackedBuf {
        let collector = obs::current();
        PackedBuf {
            nets: vec![PackedLogic::X; self.n_nets],
            gate_evals: collector.counter(names::EVAL_GATE_EVALS),
            passes: collector.counter(names::EVAL_PACKED_PASSES),
        }
    }

    /// Evaluates every net for 64 patterns. `inputs` are primary-input
    /// words in declaration order; `dff_q` are flip-flop Q words in
    /// [`Netlist::dff_cells`] order (`None` → all lanes `X`). Results are
    /// left in `buf`, readable via [`PackedBuf::net`].
    ///
    /// # Panics
    ///
    /// Panics on width mismatches or a scratch buffer from a different
    /// program.
    pub fn eval(&self, inputs: &[PackedLogic], dff_q: Option<&[PackedLogic]>, buf: &mut PackedBuf) {
        self.load(inputs, dff_q, buf);
        for instr in &self.instrs {
            let word = self.apply(instr, &buf.nets);
            buf.nets[instr.out as usize] = word;
        }
        buf.passes.incr();
        buf.gate_evals.add(self.instrs.len() as u64 * LANES as u64);
    }

    /// Like [`EvalProgram::eval`], but skips every instruction whose output
    /// net is marked in `forced`, leaving whatever word was pre-loaded into
    /// `buf` for that net. This is the hypothesis-patching primitive used
    /// by the scan attack: pin a GK output to `x`/`!x` and re-evaluate the
    /// downstream logic in one pass.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches; `forced` must have one bool per net.
    pub fn eval_forced(
        &self,
        inputs: &[PackedLogic],
        dff_q: Option<&[PackedLogic]>,
        forced: &[(NetId, PackedLogic)],
        buf: &mut PackedBuf,
    ) {
        self.load(inputs, dff_q, buf);
        let mut skip = vec![false; self.n_nets];
        for &(net, word) in forced {
            skip[net.index()] = true;
            buf.nets[net.index()] = word;
        }
        let mut executed = 0u64;
        for instr in &self.instrs {
            if skip[instr.out as usize] {
                continue;
            }
            let word = self.apply(instr, &buf.nets);
            buf.nets[instr.out as usize] = word;
            executed += 1;
        }
        buf.passes.incr();
        buf.gate_evals.add(executed * LANES as u64);
    }

    fn load(&self, inputs: &[PackedLogic], dff_q: Option<&[PackedLogic]>, buf: &mut PackedBuf) {
        assert_eq!(inputs.len(), self.input_slots.len(), "input width");
        assert_eq!(buf.nets.len(), self.n_nets, "scratch from this program");
        if let Some(q) = dff_q {
            assert_eq!(q.len(), self.dff_q_slots.len(), "dff width");
        }
        buf.nets.fill(PackedLogic::X);
        for (i, &slot) in self.input_slots.iter().enumerate() {
            buf.nets[slot as usize] = inputs[i];
        }
        for (i, &slot) in self.dff_q_slots.iter().enumerate() {
            buf.nets[slot as usize] = dff_q.map(|q| q[i]).unwrap_or(PackedLogic::X);
        }
    }

    #[inline]
    fn apply(&self, instr: &Instr, nets: &[PackedLogic]) -> PackedLogic {
        let ops = &self.operands[instr.lo as usize..instr.hi as usize];
        let arg = |i: usize| nets[ops[i] as usize];
        match instr.op {
            Op::Const0 => PackedLogic::ZERO,
            Op::Const1 => PackedLogic::ONE,
            Op::Buf => arg(0),
            Op::Inv => !arg(0),
            Op::And => Self::fold(nets, ops, PackedLogic::ONE, PackedLogic::and),
            Op::Nand => !Self::fold(nets, ops, PackedLogic::ONE, PackedLogic::and),
            Op::Or => Self::fold(nets, ops, PackedLogic::ZERO, PackedLogic::or),
            Op::Nor => !Self::fold(nets, ops, PackedLogic::ZERO, PackedLogic::or),
            Op::Xor => Self::fold(nets, ops, PackedLogic::ZERO, PackedLogic::xor),
            Op::Xnor => !Self::fold(nets, ops, PackedLogic::ZERO, PackedLogic::xor),
            Op::Mux2 => PackedLogic::mux(arg(2), arg(0), arg(1)),
            Op::Mux4 => {
                let lo = PackedLogic::mux(arg(4), arg(0), arg(1));
                let hi = PackedLogic::mux(arg(4), arg(2), arg(3));
                PackedLogic::mux(arg(5), lo, hi)
            }
        }
    }

    #[inline]
    fn fold(
        nets: &[PackedLogic],
        ops: &[u32],
        init: PackedLogic,
        f: fn(PackedLogic, PackedLogic) -> PackedLogic,
    ) -> PackedLogic {
        ops.iter().fold(init, |acc, &n| f(acc, nets[n as usize]))
    }

    /// Primary-output words after an [`EvalProgram::eval`] call, in port
    /// order.
    pub fn outputs(&self, buf: &PackedBuf) -> Vec<PackedLogic> {
        self.output_slots
            .iter()
            .map(|&s| buf.nets[s as usize])
            .collect()
    }

    /// Flip-flop D words after an [`EvalProgram::eval`] call, in
    /// [`Netlist::dff_cells`] order.
    pub fn dff_d(&self, buf: &PackedBuf) -> Vec<PackedLogic> {
        self.dff_d_slots
            .iter()
            .map(|&s| buf.nets[s as usize])
            .collect()
    }
}

/// Zero-delay sequential stepping of 64 independent pattern streams: one
/// [`PackedLogic`] per flip-flop, lane *i* of every word belonging to
/// stream *i*. The packed counterpart of [`crate::SeqState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedSeqState {
    q: Vec<PackedLogic>,
}

impl PackedSeqState {
    /// All flip-flops start `X` in every lane.
    pub fn unknown(program: &EvalProgram) -> Self {
        PackedSeqState {
            q: vec![PackedLogic::X; program.num_dffs()],
        }
    }

    /// All flip-flops reset to `0` in every lane.
    pub fn reset(program: &EvalProgram) -> Self {
        PackedSeqState {
            q: vec![PackedLogic::ZERO; program.num_dffs()],
        }
    }

    /// Current Q words in [`Netlist::dff_cells`] order.
    pub fn values(&self) -> &[PackedLogic] {
        &self.q
    }

    /// Applies one clock cycle to all 64 streams: evaluates the
    /// combinational logic, returns primary-output words, and latches every
    /// D word.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn step(
        &mut self,
        program: &EvalProgram,
        inputs: &[PackedLogic],
        buf: &mut PackedBuf,
    ) -> Vec<PackedLogic> {
        program.eval(inputs, Some(&self.q), buf);
        let outs = program.outputs(buf);
        self.q = program.dff_d(buf);
        outs
    }
}

/// Packs an arbitrary number of bool patterns (each `width` long) into
/// per-input words, 64 patterns per chunk: element `[chunk][input]` holds
/// patterns `chunk*64 ..` for that input position. Lanes past the last
/// pattern replicate pattern 0 (harmless filler — callers only read lanes
/// they asked for).
///
/// # Panics
///
/// Panics if any pattern's width differs from `width`.
pub fn pack_bool_patterns(patterns: &[impl AsRef<[bool]>], width: usize) -> Vec<Vec<PackedLogic>> {
    patterns
        .chunks(LANES)
        .map(|chunk| {
            (0..width)
                .map(|i| {
                    let mut val = 0u64;
                    for (lane, p) in chunk.iter().enumerate() {
                        let p = p.as_ref();
                        assert_eq!(p.len(), width, "pattern width");
                        if p[i] {
                            val |= 1 << lane;
                        }
                    }
                    // Replicate pattern 0 into unused lanes.
                    if chunk.len() < LANES && chunk[0].as_ref()[i] {
                        let fill = !0u64 << chunk.len();
                        val |= fill;
                    }
                    PackedLogic { val, known: !0 }
                })
                .collect()
        })
        .collect()
}

/// Unpacks lane `lane` of a word list back into a scalar row.
pub fn unpack_lane(words: &[PackedLogic], lane: usize) -> Vec<Logic> {
    words.iter().map(|w| w.get(lane)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;
    use Logic::{One, Zero, X};

    /// Every binary PackedLogic op agrees with the scalar op lane by lane
    /// for all 9 level combinations.
    #[test]
    fn packed_ops_match_scalar_exhaustively() {
        for a in Logic::ALL {
            for b in Logic::ALL {
                let pa = PackedLogic::splat(a);
                let pb = PackedLogic::splat(b);
                for lane in [0, 17, 63] {
                    assert_eq!(pa.and(pb).get(lane), a.and(b), "and {a}{b}");
                    assert_eq!(pa.or(pb).get(lane), a.or(b), "or {a}{b}");
                    assert_eq!(pa.xor(pb).get(lane), a.xor(b), "xor {a}{b}");
                    assert_eq!((!pa).get(lane), !a, "not {a}");
                }
                for sel in Logic::ALL {
                    let ps = PackedLogic::splat(sel);
                    assert_eq!(
                        PackedLogic::mux(ps, pa, pb).get(5),
                        Logic::mux(sel, a, b),
                        "mux {sel}{a}{b}"
                    );
                }
            }
        }
    }

    /// Ops preserve the canonical invariant `val & !known == 0`.
    #[test]
    fn ops_preserve_canonical_invariant() {
        let words = [
            PackedLogic::X,
            PackedLogic::ZERO,
            PackedLogic::ONE,
            PackedLogic {
                val: 0x5555_5555_5555_5555,
                known: 0x7777_7777_7777_7777,
            },
        ];
        let ok = |w: PackedLogic| w.val & !w.known == 0;
        for a in words {
            assert!(ok(!a));
            for b in words {
                assert!(ok(a.and(b)), "and {a:?} {b:?}");
                assert!(ok(a.or(b)), "or {a:?} {b:?}");
                assert!(ok(a.xor(b)), "xor {a:?} {b:?}");
                for s in words {
                    assert!(ok(PackedLogic::mux(s, a, b)), "mux {s:?} {a:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn lane_round_trip() {
        let mut w = PackedLogic::X;
        w.set(0, One);
        w.set(1, Zero);
        w.set(63, One);
        assert_eq!(w.get(0), One);
        assert_eq!(w.get(1), Zero);
        assert_eq!(w.get(2), X);
        assert_eq!(w.get(63), One);
        let row = [One, Zero, X, One];
        let packed = PackedLogic::from_lanes(&row);
        for (i, &l) in row.iter().enumerate() {
            assert_eq!(packed.get(i), l);
        }
    }

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

    /// All 27 three-valued input combinations of the full adder at once,
    /// compared against scalar evaluation.
    #[test]
    fn full_adder_packed_matches_scalar_with_x() {
        let nl = full_adder();
        let program = EvalProgram::compile(&nl).unwrap();
        let mut rows = Vec::new();
        for a in Logic::ALL {
            for b in Logic::ALL {
                for c in Logic::ALL {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let inputs: Vec<PackedLogic> = (0..3)
            .map(|i| {
                let col: Vec<Logic> = rows.iter().map(|r| r[i]).collect();
                PackedLogic::from_lanes(&col)
            })
            .collect();
        let mut buf = program.scratch();
        program.eval(&inputs, None, &mut buf);
        let outs = program.outputs(&buf);
        for (lane, row) in rows.iter().enumerate() {
            let scalar = nl.eval_comb(row);
            assert_eq!(
                unpack_lane(&outs, lane),
                scalar,
                "inputs {row:?} (lane {lane})"
            );
        }
    }

    #[test]
    fn forced_nets_pin_internal_values() {
        let nl = full_adder();
        let program = EvalProgram::compile(&nl).unwrap();
        // Force the a^b node to 1 and check sum = !cin, regardless of a/b.
        let axb_net = nl.net_by_name("g3_3").unwrap_or_else(|| {
            // Fall back: find the first XOR cell's output.
            nl.cells()
                .find(|(_, c)| c.kind() == GateKind::Xor)
                .map(|(_, c)| c.output())
                .unwrap()
        });
        let mut buf = program.scratch();
        let inputs = [PackedLogic::ZERO, PackedLogic::ZERO, PackedLogic::ONE];
        program.eval_forced(&inputs, None, &[(axb_net, PackedLogic::ONE)], &mut buf);
        let outs = program.outputs(&buf);
        // sum = (a^b) ^ cin = 1 ^ 1 = 0 even though a = b = 0.
        assert_eq!(outs[0], PackedLogic::ZERO);
        // cout = (a&b) | ((a^b)&cin) = 0 | 1 = 1.
        assert_eq!(outs[1], PackedLogic::ONE);
    }

    #[test]
    fn packed_seq_state_matches_scalar_counter() {
        // 2-bit counter as in comb.rs tests.
        let mut nl = Netlist::new("cnt2");
        let q0_d = nl.add_net("q0_d");
        let q0 = nl.add_dff_named(q0_d, "ff0").unwrap();
        let q1_d = nl.add_net("q1_d");
        let q1 = nl.add_dff_named(q1_d, "ff1").unwrap();
        let nq0 = nl.add_gate(GateKind::Inv, &[q0]).unwrap();
        let t = nl.add_gate(GateKind::Xor, &[q1, q0]).unwrap();
        let ff0 = nl.dff_cells()[0];
        let ff1 = nl.dff_cells()[1];
        nl.rewire_input(ff0, 0, nq0).unwrap();
        nl.rewire_input(ff1, 0, t).unwrap();
        nl.mark_output(q0, "q0");
        nl.mark_output(q1, "q1");

        let program = EvalProgram::compile(&nl).unwrap();
        let mut packed = PackedSeqState::reset(&program);
        let mut scalar = crate::SeqState::reset(&nl);
        let mut buf = program.scratch();
        for cycle in 0..6 {
            let packed_out = packed.step(&program, &[], &mut buf);
            let scalar_out = scalar.step(&nl, &[]);
            for lane in [0, 31, 63] {
                assert_eq!(
                    unpack_lane(&packed_out, lane),
                    scalar_out,
                    "cycle {cycle} lane {lane}"
                );
            }
        }
    }

    #[test]
    fn pack_bool_patterns_round_trips() {
        let patterns: Vec<Vec<bool>> = (0..130)
            .map(|i| vec![i % 2 == 0, i % 3 == 0, i % 5 == 0])
            .collect();
        let chunks = pack_bool_patterns(&patterns, 3);
        assert_eq!(chunks.len(), 3);
        for (ci, chunk) in chunks.iter().enumerate() {
            for lane in 0..LANES {
                let Some(p) = patterns.get(ci * LANES + lane) else {
                    break;
                };
                for (i, &b) in p.iter().enumerate() {
                    assert_eq!(
                        chunk[i].get(lane),
                        Logic::from_bool(b),
                        "c{ci} l{lane} i{i}"
                    );
                }
            }
        }
    }
}
