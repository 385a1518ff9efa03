//! The enhanced removal attack (paper Sec. V-D) and its withholding
//! countermeasure.
//!
//! Scenario: (1) locate the security structures; (2) replace each by an
//! XOR key-gate (or a MUX over candidate behaviours) with a fresh key
//! input; (3) SAT-attack the modelled netlist against the oracle. The
//! paper concedes this works when the structure is locatable — and shows
//! that withholding the GK's neighbourhood into a LUT explodes the
//! modelling space to `2^(2^k)` candidate functions, stopping step (2).

use crate::removal::{locate_gk_candidates, GkSite};
use crate::sat_attack::{SatAttack, SatAttackResult};
use glitchlock_core::withholding::{Lut, OpaqueRegion};
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use std::collections::HashSet;

/// Result of the enhanced removal attack.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // Modelled carries the full transcript by design
pub enum EnhancedOutcome {
    /// The GKs were located, modelled as XOR key-gates, and the SAT attack
    /// ran on the modelled netlist.
    Modelled {
        /// The SAT attack transcript on the modelled netlist.
        sat: SatAttackResult,
        /// The modelled netlist (GKs replaced by XORs).
        modelled: Netlist,
        /// The fresh key inputs of the model.
        model_keys: Vec<NetId>,
    },
    /// No GK-shaped structure was found to replace.
    NothingLocated,
    /// A located GK reads an opaque withheld region: modelling it would
    /// require enumerating `candidate_functions` Boolean functions —
    /// infeasible (Sec. V-D with Fig. 10's GK+LUT combination).
    Infeasible {
        /// Number of candidate functions for the withheld region.
        candidate_functions: f64,
        /// Arity of the opaque LUT.
        lut_arity: usize,
    },
}

/// Replaces each located GK by `y = XOR(x, k̂)` with a fresh key input and
/// returns the rebuilt netlist, the fresh key inputs, and the old
/// (now-dangling) GK key inputs.
pub fn replace_gks_with_xor(
    netlist: &Netlist,
    sites: &[GkSite],
) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    // Cells to skip: each site's MUX and its two branch gates (the delay
    // chains feeding them become dead and are swept).
    let mut skip: HashSet<CellId> = HashSet::new();
    for site in sites {
        skip.insert(site.mux);
        for &branch in &netlist.cell(site.mux).inputs()[..2] {
            if let Some(d) = netlist.net(branch).driver() {
                skip.insert(d);
            }
        }
    }

    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &pi in netlist.input_nets() {
        map[pi.index()] = Some(out.add_input(netlist.net(pi).name()));
    }
    let mut model_keys = Vec::with_capacity(sites.len());
    let mut ff_map = Vec::new();
    for &ff in netlist.dff_cells() {
        let cell = netlist.cell(ff);
        let placeholder = out.add_net(format!("{}_d", cell.name()));
        let q = out
            .add_dff_named(placeholder, cell.name())
            .expect("placeholder valid");
        map[cell.output().index()] = Some(q);
        ff_map.push((ff, out.net(q).driver().expect("dff drives q")));
    }
    for cell_id in netlist.topo_order().expect("acyclic") {
        let cell = netlist.cell(cell_id);
        if map[cell.output().index()].is_some() {
            continue;
        }
        // A replaced MUX becomes XOR(x, fresh key).
        if let Some(site) = sites.iter().find(|s| s.mux == cell_id) {
            let x = map[site.x.index()].expect("x precedes the GK in topo order");
            let k = out.add_input(format!("model_key{}", model_keys.len()));
            let y = out.add_gate(GateKind::Xor, &[x, k]).expect("xor arity");
            map[cell.output().index()] = Some(y);
            model_keys.push(k);
            continue;
        }
        if skip.contains(&cell_id) {
            continue;
        }
        let Some(ins) = cell
            .inputs()
            .iter()
            .map(|n| map[n.index()])
            .collect::<Option<Vec<NetId>>>()
        else {
            continue; // inside a skipped cone
        };
        let y = out
            .add_gate_named(cell.kind(), &ins, cell.name())
            .expect("copied gate valid");
        map[cell.output().index()] = Some(y);
    }
    for (old_ff, new_ff) in ff_map {
        let d = map[netlist.cell(old_ff).inputs()[0].index()].expect("live d");
        out.rewire_input(new_ff, 0, d).expect("pin 0");
    }
    for (po, name) in netlist.output_ports() {
        out.mark_output(map[po.index()].expect("live po"), name);
    }
    let swept = glitchlock_synth::sweep_sequential(&out).expect("valid sweep");
    // Re-find nets by name after sweeping.
    let model_keys: Vec<NetId> = (0..model_keys.len())
        .map(|i| {
            swept
                .net_by_name(&format!("model_key{i}"))
                .expect("model key survives sweep")
        })
        .collect();
    let stale: Vec<NetId> = sites
        .iter()
        .filter_map(|s| swept.net_by_name(netlist.net(s.key).name()))
        .collect();
    (swept, model_keys, stale)
}

/// Runs the Sec. V-D enhanced removal attack against a GK attacker-view
/// netlist. `opaque` lists the withheld regions visible in the view (from
/// [`glitchlock_core::withholding::withhold_gk_inputs`] or hand-built via
/// [`glitchlock_core::withholding::absorb_cone`]); a located GK whose `x`
/// is an opaque LUT output stops the attack.
pub fn enhanced_removal_attack(
    attack_view: &Netlist,
    oracle: &Netlist,
    opaque: &[OpaqueRegion],
    max_iterations: usize,
) -> EnhancedOutcome {
    let _span = obs::span("attack.enhanced");
    obs::incr(names::ENHANCED_RUNS);
    let sites = locate_gk_candidates(attack_view);
    if sites.is_empty() {
        obs::event("result", "enhanced_removal")
            .str("outcome", "nothing-located")
            .emit();
        return EnhancedOutcome::NothingLocated;
    }
    // Withholding check: is any located GK fed by an opaque region?
    for site in &sites {
        for region in opaque {
            if region.input == site.x {
                obs::event("result", "enhanced_removal")
                    .str("outcome", "infeasible-withheld")
                    .u64("lut_arity", region.arity as u64)
                    .emit();
                return EnhancedOutcome::Infeasible {
                    candidate_functions: Lut::candidate_function_count(region.arity),
                    lut_arity: region.arity,
                };
            }
        }
    }
    let (modelled, model_keys, stale) = replace_gks_with_xor(attack_view, &sites);
    let mut attack = SatAttack::new(&modelled, model_keys.clone(), oracle);
    attack.ignored_inputs = stale;
    attack.max_iterations = max_iterations;
    let sat = attack.run();
    obs::event("result", "enhanced_removal")
        .str("outcome", "modelled")
        .u64("sites", sites.len() as u64)
        .emit();
    EnhancedOutcome::Modelled {
        sat,
        modelled,
        model_keys,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat_attack::{key_match_rate, SatOutcome};
    use glitchlock_core::gk::{build_gk, GkDesign};
    use glitchlock_stdcell::Library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small sequential design with a GK on a flip-flop D pin, as the
    /// attacker's view shows it (key as a primary input, no KEYGEN).
    fn gk_view() -> (Netlist, Netlist) {
        let mut original = Netlist::new("o");
        let a = original.add_input("a");
        let b = original.add_input("b");
        let w = original.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let q = original.add_dff(w).unwrap();
        let y = original.add_gate(GateKind::Xor, &[q, a]).unwrap();
        original.mark_output(y, "y");

        // Attacker view: same netlist + GK of scheme BufferSteady (so the
        // static function stays NAND — the oracle matches; the security
        // would come from glitches in the real chip).
        let lib = Library::cl013g_like();
        let mut view = original.clone();
        let key = view.add_input("gk0_key");
        let d_net = view.cell(view.dff_cells()[0]).inputs()[0];
        let design = GkDesign {
            scheme: glitchlock_core::gk::GkScheme::BufferSteady,
            ..GkDesign::paper_default()
        };
        let gk = build_gk(&mut view, &lib, d_net, key, &design).unwrap();
        let ff = view.dff_cells()[0];
        view.rewire_input(ff, 0, gk.y).unwrap();
        (view, original)
    }

    #[test]
    fn bare_gk_falls_to_enhanced_removal() {
        let (view, original) = gk_view();
        let outcome = enhanced_removal_attack(&view, &original, &[], 256);
        let EnhancedOutcome::Modelled {
            sat,
            modelled,
            model_keys,
        } = outcome
        else {
            panic!("expected the GK to be located and modelled");
        };
        // The XOR model admits the correct behaviour (k=0 = buffer), so
        // the SAT attack recovers a working key.
        let key = match &sat.outcome {
            SatOutcome::KeyRecovered { key } => key.clone(),
            SatOutcome::NoDipAtFirstIteration { arbitrary_key } => arbitrary_key.clone(),
            other => panic!("unexpected outcome {other:?}"),
        };
        let mut rng = StdRng::seed_from_u64(41);
        let mut all_keys = model_keys.clone();
        let mut vals = key;
        // Stale GK key pins may survive sweeping; fold them in at 0.
        for (i, n) in modelled.input_nets().iter().enumerate() {
            let name = modelled.net(*n).name().to_string();
            let _ = i;
            if name.starts_with("gk") && !all_keys.contains(n) {
                all_keys.push(*n);
                vals.push(false);
            }
        }
        let rate = key_match_rate(&modelled, &all_keys, &vals, &original, 200, &mut rng);
        assert_eq!(rate, 1.0, "bare GK is decrypted once located (Sec. V-D)");
    }

    #[test]
    fn withholding_stops_the_enhanced_attack() {
        use glitchlock_core::withholding::absorb_cone;
        let (view, _original) = gk_view();
        // Withhold the cone feeding the GK's x input (the NAND region),
        // per Fig. 10. The attacker's view then reads an opaque input.
        let sites = locate_gk_candidates(&view);
        assert_eq!(sites.len(), 1);
        let x = sites[0].x;
        let (attacker_view, lut) = absorb_cone(&view, x, 4).unwrap();
        let opaque_name = format!("lut_{}", view.net(x).name());
        let region = OpaqueRegion {
            input: attacker_view.net_by_name(&opaque_name).unwrap(),
            name: opaque_name,
            arity: lut.arity(),
        };
        let outcome =
            enhanced_removal_attack(&attacker_view, &view, std::slice::from_ref(&region), 64);
        match outcome {
            EnhancedOutcome::Infeasible {
                candidate_functions,
                lut_arity,
            } => {
                assert_eq!(lut_arity, lut.arity());
                assert!(candidate_functions >= 16.0);
            }
            other => panic!("withholding must stop the attack, got {other:?}"),
        }
    }

    #[test]
    fn nothing_located_on_plain_designs() {
        let (_, original) = gk_view();
        let outcome = enhanced_removal_attack(&original, &original, &[], 16);
        assert!(matches!(outcome, EnhancedOutcome::NothingLocated));
    }
}
