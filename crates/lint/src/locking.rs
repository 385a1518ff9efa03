//! Locking-security lints: structural GK-signature detection (the removal
//! attacker's view of Fig. 3), key-bit sanity, and withheld-LUT coverage.

use crate::diagnostic::{
    Diagnostic, Location, Severity, CONSTANT_KEY_BIT, GK_BRANCH_MISSING, GK_ISOLATABLE,
    GK_STATIC_LEAK, UNUSED_KEY_BIT, WITHHOLDING_COVERAGE_HOLE,
};
use crate::{LintContext, LintPass};
use glitchlock_core::feasibility::keygen_trigger_floor;
use glitchlock_netlist::{
    fanout_cone, Aig, AigLit, CellId, CombView, GateKind, Logic, NetId, Netlist,
};
use glitchlock_stdcell::{Library, Ps};
use glitchlock_synth::trace_delay_chain;
use std::collections::{HashSet, VecDeque};

/// One arm of a GK: the XOR/XNOR gate plus its key-side delay chain.
#[derive(Clone, Debug)]
pub struct GkBranch {
    /// The XOR or XNOR gate.
    pub gate: CellId,
    /// Which of the two it is.
    pub kind: GateKind,
    /// Branch path delay: key-side chain plus the gate itself (Eq. (2)).
    pub delay: Ps,
}

/// A KEYGEN recognized behind a GK's key net: the Fig. 5 MUX4 fed by a
/// toggle flip-flop through two delay chains.
#[derive(Clone, Debug)]
pub struct KeygenMotif {
    /// The select MUX4.
    pub mux4: CellId,
    /// The toggle flip-flop (D = INV(Q)).
    pub toggle_ff: CellId,
    /// Planned trigger of the first delay option: floor + chain delay.
    pub trigger_a: Ps,
    /// Planned trigger of the second delay option.
    pub trigger_b: Ps,
}

/// A complete GK structural signature: the XNOR/XOR pair joined by a MUX
/// whose select doubles as both gates' delayed second input — exactly the
/// motif a removal attacker pattern-matches for.
#[derive(Clone, Debug)]
pub struct GkMotif {
    /// The output MUX2.
    pub mux: CellId,
    /// The protected data net (`x`).
    pub x: NetId,
    /// The key/select net.
    pub key: NetId,
    /// The GK output net (`y`).
    pub y: NetId,
    /// Both arms, in MUX input order (`in0`, `in1`).
    pub branches: [GkBranch; 2],
    /// MUX select-to-output latency (`D_react`).
    pub d_react: Ps,
    /// Capture flip-flops fed by `y`, each with the buffer-pad delay between
    /// `y` and its D pin (nonzero after `holdfix`).
    pub capture_ffs: Vec<(CellId, Ps)>,
    /// The KEYGEN driving the key net, when one is recognized.
    pub keygen: Option<KeygenMotif>,
}

impl GkMotif {
    /// The shorter branch delay — the glitch length the GK realizes.
    pub fn d_path_min(&self) -> Ps {
        self.branches[0].delay.min(self.branches[1].delay)
    }

    /// The longer branch delay — the conservative `D_ready` bound.
    pub fn d_path_max(&self) -> Ps {
        self.branches[0].delay.max(self.branches[1].delay)
    }
}

/// The result of a GK structural scan: complete motifs plus diagnostics for
/// GK-like structures that are broken (one arm stripped, mismatched arms).
#[derive(Debug, Default)]
pub struct GkScan {
    /// Complete motifs.
    pub motifs: Vec<GkMotif>,
    /// `gk-branch-missing` findings for partial matches.
    pub diagnostics: Vec<Diagnostic>,
}

/// Tries to read one GK arm behind a MUX input: a 2-input XOR/XNOR with one
/// input tracing back (through buffer delay cells) to the MUX select.
/// Returns the arm and the data net it taps.
fn parse_branch(
    nl: &Netlist,
    library: &Library,
    input: NetId,
    sel: NetId,
) -> Option<(GkBranch, NetId)> {
    let (gate_out, _, _) = trace_delay_chain(nl, library, input);
    let gate = nl.net(gate_out).driver()?;
    let cell = nl.cell(gate);
    let kind = cell.kind();
    if !matches!(kind, GateKind::Xor | GateKind::Xnor) || cell.inputs().len() != 2 {
        return None;
    }
    let (p, q) = (cell.inputs()[0], cell.inputs()[1]);
    for (key_side, x_side) in [(p, q), (q, p)] {
        let (src, _, chain) = trace_delay_chain(nl, library, key_side);
        if src == sel {
            let delay = chain + library.cell_delay(nl, gate);
            return Some((GkBranch { gate, kind, delay }, x_side));
        }
    }
    None
}

/// Walks forward from `y` through buffer pads to the flip-flops that capture
/// it, summing the pad delay per path.
fn capture_ffs(nl: &Netlist, library: &Library, y: NetId) -> Vec<(CellId, Ps)> {
    let mut found = Vec::new();
    let mut queue: VecDeque<(NetId, Ps)> = VecDeque::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    queue.push_back((y, Ps::ZERO));
    seen.insert(y);
    while let Some((net, pad)) = queue.pop_front() {
        for &(reader, _pin) in nl.net(net).fanout() {
            let cell = nl.cell(reader);
            match cell.kind() {
                GateKind::Dff => found.push((reader, pad)),
                GateKind::Buf => {
                    let out = cell.output();
                    if seen.insert(out) {
                        queue.push_back((out, pad + library.cell_delay(nl, reader)));
                    }
                }
                _ => {}
            }
        }
    }
    found
}

/// Recognizes a Fig. 5 KEYGEN behind a key net: a MUX4 with constant-0 and
/// constant-1 rails and two delay chains tapping the same toggle flip-flop.
fn parse_keygen(nl: &Netlist, library: &Library, key: NetId) -> Option<KeygenMotif> {
    let mux4 = nl.net(key).driver()?;
    let cell = nl.cell(mux4);
    if cell.kind() != GateKind::Mux4 {
        return None;
    }
    let ins = cell.inputs();
    let d0 = nl.net(ins[0]).driver()?;
    let d3 = nl.net(ins[3]).driver()?;
    if nl.cell(d0).kind() != GateKind::Const0 || nl.cell(d3).kind() != GateKind::Const1 {
        return None;
    }
    let (src_a, _, chain_a) = trace_delay_chain(nl, library, ins[1]);
    let (src_b, _, chain_b) = trace_delay_chain(nl, library, ins[2]);
    if src_a != src_b {
        return None;
    }
    let ff = nl.net(src_a).driver()?;
    let ff_cell = nl.cell(ff);
    if ff_cell.kind() != GateKind::Dff {
        return None;
    }
    // Toggle structure: D = INV(Q).
    let d_driver = nl.net(ff_cell.inputs()[0]).driver()?;
    let inv = nl.cell(d_driver);
    if inv.kind() != GateKind::Inv || inv.inputs()[0] != src_a {
        return None;
    }
    // Planned triggers mirror the insertion flow's verified quantities:
    // the KEYGEN floor plus each chain's composed delay.
    let floor = keygen_trigger_floor(library);
    Some(KeygenMotif {
        mux4,
        toggle_ff: ff,
        trigger_a: floor + chain_a,
        trigger_b: floor + chain_b,
    })
}

/// Scans the netlist for GK structural signatures, the way the enhanced
/// removal attack of Sec. V does: every MUX2 whose arms are XOR/XNOR gates
/// keyed off the select.
pub fn scan_gk_motifs(nl: &Netlist, library: &Library) -> GkScan {
    let mut scan = GkScan::default();
    for (id, cell) in nl.cells() {
        if cell.kind() != GateKind::Mux2 {
            continue;
        }
        let ins = cell.inputs();
        let (i0, i1, sel) = (ins[0], ins[1], ins[2]);
        let b0 = parse_branch(nl, library, i0, sel);
        let b1 = parse_branch(nl, library, i1, sel);
        let mux_name = cell.name().to_string();
        let y = cell.output();
        match (b0, b1) {
            (Some((a, xa)), Some((b, xb))) => {
                if a.kind == b.kind {
                    scan.diagnostics.push(
                        Diagnostic::new(
                            GK_BRANCH_MISSING,
                            Severity::Error,
                            Location::cell_net(&mux_name, nl.net(y).name()),
                            format!(
                                "GK-like structure at {mux_name} has two {} arms; \
                                 a working GK pairs one XNOR with one XOR",
                                a.kind
                            ),
                        )
                        .with_suggestion("restore the complementary arm"),
                    );
                } else if xa != xb {
                    scan.diagnostics.push(
                        Diagnostic::new(
                            GK_BRANCH_MISSING,
                            Severity::Error,
                            Location::cell_net(&mux_name, nl.net(y).name()),
                            format!(
                                "GK-like structure at {mux_name} taps two different data nets \
                                 ({:?} vs {:?}); a working GK taps one",
                                nl.net(xa).name(),
                                nl.net(xb).name()
                            ),
                        )
                        .with_suggestion("rewire both arms to the protected net"),
                    );
                } else {
                    let d_react = library.cell_delay(nl, id);
                    scan.motifs.push(GkMotif {
                        mux: id,
                        x: xa,
                        key: sel,
                        y,
                        branches: [a, b],
                        d_react,
                        capture_ffs: capture_ffs(nl, library, y),
                        keygen: parse_keygen(nl, library, sel),
                    });
                }
            }
            (Some((arm, _)), None) | (None, Some((arm, _))) => {
                scan.diagnostics.push(
                    Diagnostic::new(
                        GK_BRANCH_MISSING,
                        Severity::Error,
                        Location::cell_net(&mux_name, nl.net(y).name()),
                        format!(
                            "GK-like structure at {mux_name} has a {} arm but the other arm \
                             is missing or rewired — removal-attack residue or a broken insertion",
                            arm.kind
                        ),
                    )
                    .with_suggestion("restore the stripped XNOR/XOR arm or remove the GK cleanly"),
                );
            }
            (None, None) => {}
        }
    }
    scan
}

/// GK signatures, key-bit sanity, and withheld-LUT coverage.
pub struct LockingPass;

impl LintPass for LockingPass {
    fn name(&self) -> &'static str {
        "locking"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[
            GK_ISOLATABLE,
            GK_BRANCH_MISSING,
            GK_STATIC_LEAK,
            UNUSED_KEY_BIT,
            CONSTANT_KEY_BIT,
            WITHHOLDING_COVERAGE_HOLE,
        ]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = ctx.netlist;
        let scan = scan_gk_motifs(nl, ctx.library);
        out.extend(scan.diagnostics);
        for motif in &scan.motifs {
            let key_driver = nl.net(motif.key).driver();
            if key_driver.is_some_and(|d| nl.cell(d).kind() == GateKind::Input) {
                let mux_name = nl.cell(motif.mux).name();
                out.push(
                    Diagnostic::new(
                        GK_ISOLATABLE,
                        Severity::Warning,
                        Location::cell_net(mux_name, nl.net(motif.key).name()),
                        format!(
                            "the GK at {mux_name} is keyed directly off primary input {:?}; \
                             a removal attacker can isolate and excise it",
                            nl.net(motif.key).name()
                        ),
                    )
                    .with_suggestion(
                        "drive the key from a KEYGEN (or withhold the region) so the \
                         signature is not separable",
                    ),
                );
            }
            if let Some(d) = check_static_transparency(nl, motif) {
                out.push(d);
            }
        }
        check_key_bits(ctx, out);
        check_luts(ctx, out);
    }
}

/// AIG proof of the GK contract: under a *constant* key the motif must be
/// statically transparent — its cone computes the same function whether the
/// key bit is 0 or 1 (the paper's `y = INV(x)` identity). The cone
/// extractor restricts the obligation to the view outputs `y` actually
/// reaches; both constant-key copies are rebuilt into one shared strash,
/// where constant folding collapses a well-formed GK to identical literals.
/// Differing literals mean the key bit leaks into the static function
/// somewhere in the cone (e.g. the key is reused on a data path).
///
/// Keys that are not view inputs (KEYGEN-driven) are out of scope: there is
/// no input to pin.
fn check_static_transparency(nl: &Netlist, motif: &GkMotif) -> Option<Diagnostic> {
    let view = CombView::new(nl);
    let kpos = view.input_nets().iter().position(|&n| n == motif.key)?;
    nl.topo_order().ok()?;
    if nl.nets().any(|(_, net)| net.driver().is_none()) {
        // The AIG lowering needs every net driven; the structural pass
        // owns that diagnostic.
        return None;
    }
    // View outputs reachable from y: POs plus flip-flop D pseudo-outputs.
    let cone_cells = fanout_cone(nl, motif.y, false);
    let mut cone_nets: HashSet<NetId> = cone_cells.iter().map(|&c| nl.cell(c).output()).collect();
    cone_nets.insert(motif.y);
    let keep: Vec<usize> = view
        .output_nets()
        .iter()
        .enumerate()
        .filter(|(_, n)| cone_nets.contains(n))
        .map(|(j, _)| j)
        .collect();
    if keep.is_empty() {
        return None;
    }
    let aig = Aig::from_comb(nl, &view);
    let cone = aig.extract_cone(&keep);
    let mut scratch = Aig::new();
    let mut key0: Vec<AigLit> = Vec::with_capacity(cone.support.len());
    let mut key1: Vec<AigLit> = Vec::with_capacity(cone.support.len());
    for &orig in &cone.support {
        if orig == kpos {
            key0.push(AigLit::FALSE);
            key1.push(AigLit::TRUE);
        } else {
            let shared = scratch.add_input();
            key0.push(shared);
            key1.push(shared);
        }
    }
    if cone.aig.rebuild_into(&mut scratch, &key0) == cone.aig.rebuild_into(&mut scratch, &key1) {
        return None;
    }
    let mux_name = nl.cell(motif.mux).name();
    Some(
        Diagnostic::new(
            GK_STATIC_LEAK,
            Severity::Warning,
            Location::cell_net(mux_name, nl.net(motif.key).name()),
            format!(
                "the GK at {mux_name} is not statically transparent: pinning key {:?} to 0 vs 1 \
                 rewrites its extracted cone to different functions",
                nl.net(motif.key).name()
            ),
        )
        .with_suggestion(
            "keep the key bit off data paths outside the GK arms; a statically observable \
             key hands the SAT attack a direct oracle",
        ),
    )
}

/// True when the key net feeds a timing structure — a MUX select pin or a
/// dedicated delay cell. Such key bits are statically irrelevant **by
/// design** (a GK output is `INV(x)` for any constant key), so the
/// X-propagation constancy proof must not flag them.
fn feeds_timing_structure(nl: &Netlist, library: &Library, key: NetId) -> bool {
    let mut queue: VecDeque<NetId> = VecDeque::new();
    let mut seen: HashSet<NetId> = HashSet::new();
    queue.push_back(key);
    seen.insert(key);
    while let Some(net) = queue.pop_front() {
        for &(reader, pin) in nl.net(net).fanout() {
            let cell = nl.cell(reader);
            match cell.kind() {
                GateKind::Mux2 if pin == 2 => return true,
                GateKind::Mux4 if pin >= 4 => return true,
                _ => {}
            }
            if cell.lib().is_some_and(|l| library.cell(l).is_delay_cell()) {
                return true;
            }
            let out = cell.output();
            if seen.insert(out) {
                queue.push_back(out);
            }
        }
    }
    false
}

fn check_key_bits(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let nl = ctx.netlist;
    let po_nets: HashSet<NetId> = nl.output_ports().map(|(n, _)| n).collect();
    for &key in nl.input_nets().iter() {
        let name = nl.net(key).name().to_string();
        if !name.starts_with(&ctx.key_prefix) {
            continue;
        }
        let cone = fanout_cone(nl, key, true);
        let observable = po_nets.contains(&key)
            || cone.iter().any(|&c| {
                nl.cell(c).kind() == GateKind::Dff || po_nets.contains(&nl.cell(c).output())
            });
        if !observable {
            out.push(
                Diagnostic::new(
                    UNUSED_KEY_BIT,
                    Severity::Warning,
                    Location::net(&name),
                    format!(
                        "key input {name:?} reaches no primary output or flip-flop; \
                         resynthesis would strip it"
                    ),
                )
                .with_suggestion("wire the bit into the locking structure or drop it"),
            );
            continue;
        }
        if feeds_timing_structure(nl, ctx.library, key) {
            // Statically key-independent by design; constancy is meaningless.
            continue;
        }
        // X-propagation proof via the constant-propagation lattice: pin
        // only this bit (0 then 1), everything else unknown. If every
        // reachable observable resolves definitely and identically for
        // both values, the bit provably cannot matter.
        let mut observables: Vec<NetId> = Vec::new();
        for &c in &cone {
            let cell = nl.cell(c);
            if cell.kind() == GateKind::Dff {
                // Q is unknown in a single combinational evaluation; the D
                // pin is the point the bit must influence.
                observables.push(cell.inputs()[0]);
            } else if po_nets.contains(&cell.output()) {
                observables.push(cell.output());
            }
        }
        if observables.is_empty() {
            continue;
        }
        let v0 = glitchlock_dataflow::const_facts(nl, &[(key, Logic::Zero)]);
        let v1 = glitchlock_dataflow::const_facts(nl, &[(key, Logic::One)]);
        let proven_constant = observables.iter().all(|&n| {
            let (a, b) = (v0.net(n).to_logic(), v1.net(n).to_logic());
            a != Logic::X && b != Logic::X && a == b
        });
        if proven_constant {
            out.push(
                Diagnostic::new(
                    CONSTANT_KEY_BIT,
                    Severity::Warning,
                    Location::net(&name),
                    format!(
                        "key input {name:?} provably never influences an observable point \
                         (all reachable outputs are constant in it)"
                    ),
                )
                .with_suggestion("the bit adds no security; rewire or remove it"),
            );
        }
    }
}

fn check_luts(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let nl = ctx.netlist;
    for lut in &ctx.luts {
        let loc = Location::net(nl.net(lut.output).name());
        let expected = 1usize << lut.arity();
        if lut.table.len() != expected {
            out.push(
                Diagnostic::new(
                    WITHHOLDING_COVERAGE_HOLE,
                    Severity::Error,
                    loc.clone(),
                    format!(
                        "withheld LUT on {:?} covers {} of {expected} input patterns",
                        nl.net(lut.output).name(),
                        lut.table.len()
                    ),
                )
                .with_suggestion("program the full truth table before tape-out"),
            );
        }
        let mut seen = HashSet::new();
        for &input in &lut.inputs {
            if !seen.insert(input) {
                out.push(
                    Diagnostic::new(
                        WITHHOLDING_COVERAGE_HOLE,
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "withheld LUT on {:?} lists input net {:?} twice; half its \
                             table rows are unreachable",
                            nl.net(lut.output).name(),
                            nl.net(input).name()
                        ),
                    )
                    .with_suggestion("deduplicate the cut nets"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic;
    use crate::LintRunner;
    use glitchlock_core::gk::{build_gk, GkDesign};
    use glitchlock_core::withholding::Lut;

    fn lib() -> Library {
        Library::cl013g_like().with_gk_delay_macros()
    }

    /// A netlist with one GK protecting an inverter's output into a FF, key
    /// exposed as a primary input (the attack view).
    fn locked_attack_view() -> (Netlist, Library) {
        let library = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let key = nl.add_input("gk0_key");
        let gk = build_gk(&mut nl, &library, x, key, &GkDesign::paper_default()).unwrap();
        let q = nl.add_dff(gk.y).unwrap();
        nl.mark_output(q, "y");
        (nl, library)
    }

    #[test]
    fn complete_gk_is_detected_with_both_arms() {
        let (nl, library) = locked_attack_view();
        let scan = scan_gk_motifs(&nl, &library);
        assert!(scan.diagnostics.is_empty(), "{:?}", scan.diagnostics);
        assert_eq!(scan.motifs.len(), 1);
        let m = &scan.motifs[0];
        let kinds: HashSet<GateKind> = m.branches.iter().map(|b| b.kind).collect();
        assert!(kinds.contains(&GateKind::Xor) && kinds.contains(&GateKind::Xnor));
        assert_eq!(m.capture_ffs.len(), 1);
        assert_eq!(m.capture_ffs[0].1, Ps::ZERO, "no pad between y and the FF");
        // Branch delays land near the designed glitch length.
        let design = GkDesign::paper_default();
        assert!(
            m.d_path_min().as_ps().abs_diff(design.l_glitch.as_ps())
                <= design.tolerance.as_ps() * 2,
            "d_path_min {} vs target {}",
            m.d_path_min(),
            design.l_glitch
        );
    }

    #[test]
    fn exposed_key_input_is_isolatable() {
        let (nl, library) = locked_attack_view();
        let ctx = LintContext::new(&nl, &library);
        let runner = LintRunner::empty().with_pass(Box::new(LockingPass));
        let report = runner.run(&ctx);
        assert_eq!(report.with_code(diagnostic::GK_ISOLATABLE).len(), 1);
        assert!(report.with_code(diagnostic::GK_BRANCH_MISSING).is_empty());
        // The key bit feeds a MUX select: exempt from the constancy lint
        // even though a GK is statically key-independent by design.
        assert!(report.with_code(diagnostic::CONSTANT_KEY_BIT).is_empty());
        assert!(report.with_code(diagnostic::UNUSED_KEY_BIT).is_empty());
    }

    #[test]
    fn well_formed_gk_passes_the_static_transparency_proof() {
        let (nl, library) = locked_attack_view();
        let ctx = LintContext::new(&nl, &library);
        let report = LintRunner::empty()
            .with_pass(Box::new(LockingPass))
            .run(&ctx);
        assert!(report.with_code(diagnostic::GK_STATIC_LEAK).is_empty());
    }

    #[test]
    fn key_reused_on_a_data_path_is_a_static_leak() {
        // A second, naked XOR of the key inside y's cone makes the static
        // function key-dependent: the AIG 0/1-pin rebuilds differ.
        let (mut nl, library) = locked_attack_view();
        let scan = scan_gk_motifs(&nl, &library);
        let m = &scan.motifs[0];
        let key = m.key;
        let leak = nl.add_gate(GateKind::Xor, &[m.y, key]).unwrap();
        nl.mark_output(leak, "leak");
        let ctx = LintContext::new(&nl, &library);
        let report = LintRunner::empty()
            .with_pass(Box::new(LockingPass))
            .run(&ctx);
        assert_eq!(report.with_code(diagnostic::GK_STATIC_LEAK).len(), 1);
    }

    #[test]
    fn stripped_arm_is_branch_missing() {
        let (mut nl, library) = locked_attack_view();
        // The removal attacker's half-measure: rewire the mux's in0 arm to
        // the raw data net, detaching the XNOR branch.
        let scan = scan_gk_motifs(&nl, &library);
        let m = &scan.motifs[0];
        nl.rewire_input(m.mux, 0, m.x).unwrap();
        let scan = scan_gk_motifs(&nl, &library);
        assert!(scan.motifs.is_empty());
        assert_eq!(scan.diagnostics.len(), 1);
        assert_eq!(scan.diagnostics[0].code, diagnostic::GK_BRANCH_MISSING);
    }

    #[test]
    fn plain_mux_is_not_a_gk() {
        let library = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.add_input("s");
        let y = nl.add_gate(GateKind::Mux2, &[a, b, s]).unwrap();
        nl.mark_output(y, "y");
        let scan = scan_gk_motifs(&nl, &library);
        assert!(scan.motifs.is_empty());
        assert!(scan.diagnostics.is_empty());
    }

    #[test]
    fn dead_key_bit_is_unused() {
        let library = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let _key = nl.add_input("gk9_k1");
        let y = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        nl.mark_output(y, "y");
        let ctx = LintContext::new(&nl, &library);
        let report = LintRunner::empty()
            .with_pass(Box::new(LockingPass))
            .run(&ctx);
        assert_eq!(report.with_code(diagnostic::UNUSED_KEY_BIT).len(), 1);
        assert!(report.with_code(diagnostic::CONSTANT_KEY_BIT).is_empty());
    }

    #[test]
    fn masked_key_bit_is_provably_constant() {
        // key AND 0 -> observable is 0 either way: proven irrelevant.
        let library = lib();
        let mut nl = Netlist::new("t");
        let key = nl.add_input("gk0_k1");
        let zero = nl.add_const(false);
        let g = nl.add_gate(GateKind::And, &[key, zero]).unwrap();
        let q = nl.add_dff(g).unwrap();
        nl.mark_output(q, "y");
        let ctx = LintContext::new(&nl, &library);
        let report = LintRunner::empty()
            .with_pass(Box::new(LockingPass))
            .run(&ctx);
        assert_eq!(report.with_code(diagnostic::CONSTANT_KEY_BIT).len(), 1);
    }

    #[test]
    fn live_key_bit_is_not_flagged() {
        let library = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let key = nl.add_input("gk0_k1");
        let g = nl.add_gate(GateKind::Xor, &[a, key]).unwrap();
        nl.mark_output(g, "y");
        let ctx = LintContext::new(&nl, &library);
        let report = LintRunner::empty()
            .with_pass(Box::new(LockingPass))
            .run(&ctx);
        assert!(report.with_code(diagnostic::CONSTANT_KEY_BIT).is_empty());
        assert!(report.with_code(diagnostic::UNUSED_KEY_BIT).is_empty());
    }

    #[test]
    fn lut_coverage_holes_flagged() {
        let library = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        let holey = Lut {
            inputs: vec![a, b],
            output: y,
            table: vec![false, true, true], // 3 of 4 rows
        };
        let dup = Lut {
            inputs: vec![a, a],
            output: y,
            table: vec![false, true, true, false],
        };
        let full = Lut {
            inputs: vec![a, b],
            output: y,
            table: vec![false, false, false, true],
        };
        let ctx = LintContext::new(&nl, &library).with_luts(vec![holey, dup, full]);
        let report = LintRunner::empty()
            .with_pass(Box::new(LockingPass))
            .run(&ctx);
        assert_eq!(
            report
                .with_code(diagnostic::WITHHOLDING_COVERAGE_HOLE)
                .len(),
            2
        );
    }
}
