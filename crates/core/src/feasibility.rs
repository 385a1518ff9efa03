//! Feasible flip-flop analysis: which flip-flops can host a GK (Table I).
//!
//! A flip-flop is *available* for GK encryption when (paper Secs. IV,VI):
//!
//! 1. it is not on the critical path (the flow actively avoids those),
//! 2. the glitch is long enough to cover setup + hold (`L ≥ T_set + T_hold`),
//! 3. Eq. (3) holds: the glitch can be generated and triggered between the
//!    arrival bounds, and
//! 4. the Eq. (5) trigger window is non-empty — with enough width to absorb
//!    composition tolerance — and admits a trigger the KEYGEN can actually
//!    produce (no earlier than clk→q + ADB latency).

use crate::gk::GkDesign;
use crate::windows::{GkTiming, TriggerWindow};
use glitchlock_netlist::{CellId, GateKind, Netlist};
use glitchlock_obs::{self as obs, names};
use glitchlock_sta::{analyze, ClockModel, TimingReport};
use glitchlock_stdcell::{Library, Ps};
use std::collections::{HashMap, HashSet};

/// Why a flip-flop was rejected (or accepted).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// A GK fits.
    Feasible,
    /// On the worst setup path; the flow avoids it (Sec. IV-B).
    OnCriticalPath,
    /// `L_glitch < T_setup + T_hold`: no glitch can latch cleanly.
    GlitchTooShort,
    /// Eq. (3) violated: data arrives too late (or bounds inverted).
    Eq3Violated,
    /// The Eq. (5) window is empty or narrower than the safety margin.
    WindowEmpty,
    /// The window closes before the KEYGEN's earliest producible trigger.
    TriggerTooEarly,
}

/// Per-flip-flop analysis result.
#[derive(Clone, Copy, Debug)]
pub struct FfFeasibility {
    /// The capture flip-flop.
    pub ff: CellId,
    /// The accept/reject verdict.
    pub verdict: Verdict,
    /// The timing context used (arrival from STA, bounds from Eq. (1)).
    pub timing: GkTiming,
    /// The on-glitch trigger window, when one exists (already clipped to
    /// the KEYGEN's earliest producible trigger).
    pub window: Option<TriggerWindow>,
}

impl FfFeasibility {
    /// True when a GK fits here.
    pub fn is_feasible(&self) -> bool {
        self.verdict == Verdict::Feasible
    }
}

/// The full report: one entry per flip-flop, in [`Netlist::dff_cells`]
/// order.
#[derive(Clone, Debug)]
pub struct FeasibilityReport {
    entries: Vec<FfFeasibility>,
    /// Position of each flip-flop's entry in `entries`.
    index: HashMap<CellId, usize>,
    total_ffs: usize,
}

impl FeasibilityReport {
    /// All per-flip-flop entries.
    pub fn entries(&self) -> &[FfFeasibility] {
        &self.entries
    }

    /// The feasible ("available") flip-flops, Table I's `Ava. FF`.
    pub fn available(&self) -> Vec<CellId> {
        self.entries
            .iter()
            .filter(|e| e.is_feasible())
            .map(|e| e.ff)
            .collect()
    }

    /// Number of available flip-flops.
    pub fn available_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_feasible()).count()
    }

    /// Coverage ratio, Table I's `Cov. (%)` (0–100).
    pub fn coverage_pct(&self) -> f64 {
        if self.total_ffs == 0 {
            return 0.0;
        }
        self.available_count() as f64 / self.total_ffs as f64 * 100.0
    }

    /// The entry for one flip-flop.
    pub fn entry_of(&self, ff: CellId) -> Option<&FfFeasibility> {
        self.index.get(&ff).map(|&i| &self.entries[i])
    }
}

/// Minimum usable window width: absorbs delay-chain tolerance on both the
/// GK path delays and the KEYGEN trigger shift, plus fanout-load drift from
/// the insertion itself.
pub const WINDOW_MARGIN: Ps = Ps(120);

/// The earliest trigger a KEYGEN can produce: toggle-FF clk→q plus the ADB
/// MUX latency at its working fanout.
pub fn keygen_trigger_floor(library: &Library) -> Ps {
    let clk_to_q = library
        .cell(library.default_cell(GateKind::Dff))
        .seq()
        .expect("library DFF is sequential")
        .clk_to_q;
    let mux4 = library
        .cell(library.default_cell(GateKind::Mux4))
        .delay_with_fanout(3);
    clk_to_q + mux4
}

/// Analyzes every flip-flop for GK availability under `design`, using a
/// fresh STA run. Pass the same [`ClockModel`] the sign-off used.
pub fn analyze_feasibility(
    netlist: &Netlist,
    library: &Library,
    clock: &ClockModel,
    design: &GkDesign,
) -> FeasibilityReport {
    let report = analyze(netlist, library, clock);
    analyze_feasibility_with(netlist, library, clock, design, &report)
}

/// Same as [`analyze_feasibility`] but reusing an existing STA report.
pub fn analyze_feasibility_with(
    netlist: &Netlist,
    library: &Library,
    clock: &ClockModel,
    design: &GkDesign,
    sta: &TimingReport,
) -> FeasibilityReport {
    let critical: HashSet<CellId> = sta.critical_ffs(netlist).into_iter().collect();
    let d_react = library
        .cell(library.default_cell(GateKind::Mux2))
        .delay_with_fanout(1);
    let floor = keygen_trigger_floor(library);

    let mut entries = Vec::with_capacity(netlist.dff_cells().len());
    for &ff in netlist.dff_cells() {
        let seq = library.ff_timing(netlist, ff);
        let check = sta.check_of(ff).expect("every DFF has a check");
        let timing = GkTiming {
            t_arrival: check.arrival_max,
            t_j: clock.skew_of(ff),
            t_clk: clock.period,
            t_setup: seq.setup,
            t_hold: seq.hold,
            l_glitch: design.l_glitch,
            // Conservative D_ready: the selected branch's whole path delay,
            // which the design targets at L_glitch (paper Sec. IV-A).
            d_ready: design.l_glitch,
            d_react,
        };
        let raw_window = timing.on_glitch_window();
        // Clip to what a KEYGEN can actually trigger.
        let window = raw_window.and_then(|w| {
            let lo = w.lo.max(floor);
            (lo < w.hi).then_some(TriggerWindow { lo, hi: w.hi })
        });
        let verdict = if critical.contains(&ff) {
            Verdict::OnCriticalPath
        } else if design.l_glitch < seq.setup + seq.hold {
            Verdict::GlitchTooShort
        } else if !timing.eq3_ok() {
            Verdict::Eq3Violated
        } else if raw_window.is_none() || raw_window.is_some_and(|w| w.width() < WINDOW_MARGIN) {
            Verdict::WindowEmpty
        } else if window.is_none() || window.is_some_and(|w| w.width() < WINDOW_MARGIN) {
            Verdict::TriggerTooEarly
        } else {
            Verdict::Feasible
        };
        if verdict == Verdict::Feasible {
            obs::incr(names::LOCK_GK_FEASIBLE);
        } else {
            obs::incr(names::LOCK_GK_REJECTED);
        }
        obs::event("placement", netlist.net(netlist.cell(ff).output()).name())
            .str(
                "verdict",
                match verdict {
                    Verdict::OnCriticalPath => "on-critical-path",
                    Verdict::GlitchTooShort => "glitch-too-short",
                    Verdict::Eq3Violated => "eq3-violated",
                    Verdict::WindowEmpty => "window-empty",
                    Verdict::TriggerTooEarly => "trigger-too-early",
                    Verdict::Feasible => "feasible",
                },
            )
            .u64("window_lo_ps", window.map_or(0, |w| w.lo.as_ps()))
            .u64("window_hi_ps", window.map_or(0, |w| w.hi.as_ps()))
            .emit();
        entries.push(FfFeasibility {
            ff,
            verdict,
            timing,
            window,
        });
    }
    FeasibilityReport {
        total_ffs: entries.len(),
        index: entries.iter().enumerate().map(|(i, e)| (e.ff, i)).collect(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::GateKind;

    fn lib() -> Library {
        Library::cl013g_like()
    }

    /// One shallow FF (feasible) and one deep FF (arrival close to UB).
    fn mixed_design(period: Ps) -> (Netlist, CellId, CellId) {
        let lib = lib();
        let mut nl = Netlist::new("m");
        let a = nl.add_input("a");
        let q0 = nl.add_dff_named(a, "src").unwrap();
        // Shallow: one inverter.
        let fast = nl.add_gate(GateKind::Inv, &[q0]).unwrap();
        let qf = nl.add_dff_named(fast, "fast").unwrap();
        // Deep: a long delay-cell chain.
        let mut slow = q0;
        for _ in 0..2 {
            let s = nl.add_gate(GateKind::Buf, &[slow]).unwrap();
            let c = nl.net(s).driver().unwrap();
            nl.bind_lib(c, lib.by_name("DLY4X1").unwrap()).unwrap();
            slow = s;
        }
        let qs = nl.add_dff_named(slow, "slow").unwrap();
        nl.mark_output(qf, "yf");
        nl.mark_output(qs, "ys");
        let ffs = nl.dff_cells().to_vec();
        let _ = period;
        (nl, ffs[1], ffs[2])
    }

    #[test]
    fn shallow_ff_feasible_deep_ff_not() {
        let (nl, fast, slow) = mixed_design(Ps::from_ns(3));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let report = analyze_feasibility(&nl, &lib, &clock, &GkDesign::paper_default());
        let f = report.entry_of(fast).unwrap();
        assert!(f.is_feasible(), "shallow FF: {:?}", f.verdict);
        assert!(f.window.is_some());
        let s = report.entry_of(slow).unwrap();
        assert!(!s.is_feasible());
        // Deep: arrival ~ 160 + 2000 = 2160; UB = 2910; arrival + 2*L > UB.
        assert!(matches!(
            s.verdict,
            Verdict::Eq3Violated | Verdict::WindowEmpty | Verdict::OnCriticalPath
        ));
        assert!(report.coverage_pct() > 0.0 && report.coverage_pct() < 100.0);
    }

    #[test]
    fn too_short_glitch_rejected_everywhere() {
        let (nl, _, _) = mixed_design(Ps::from_ns(3));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let design = GkDesign {
            l_glitch: Ps(100), // < setup(90) + hold(35)
            ..GkDesign::paper_default()
        };
        let report = analyze_feasibility(&nl, &lib, &clock, &design);
        assert_eq!(report.available_count(), 0);
        assert!(report
            .entries()
            .iter()
            .all(|e| e.verdict == Verdict::GlitchTooShort || e.verdict == Verdict::OnCriticalPath));
    }

    #[test]
    fn tight_clock_kills_feasibility() {
        let (nl, fast, _) = mixed_design(Ps::from_ns(3));
        let lib = lib();
        // With a 1.2ns period there is no room for a 1ns glitch flow.
        let clock = ClockModel::new(Ps(1200));
        let report = analyze_feasibility(&nl, &lib, &clock, &GkDesign::paper_default());
        assert!(!report.entry_of(fast).unwrap().is_feasible());
    }

    #[test]
    fn window_respects_keygen_floor() {
        let (nl, fast, _) = mixed_design(Ps::from_ns(3));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let report = analyze_feasibility(&nl, &lib, &clock, &GkDesign::paper_default());
        let w = report.entry_of(fast).unwrap().window.unwrap();
        assert!(w.lo >= keygen_trigger_floor(&lib));
    }

    #[test]
    fn coverage_on_synthetic_profile_is_in_calibrated_range() {
        let profile = glitchlock_circuits::profile_by_name("s5378").unwrap();
        let nl = glitchlock_circuits::generate(&profile);
        let lib = lib();
        let clock = ClockModel::new(profile.clock_period);
        let report = analyze_feasibility(&nl, &lib, &clock, &GkDesign::paper_default());
        let cov = report.coverage_pct();
        // Calibrated toward the paper's 63.8%; wide tolerance—the value is
        // measured, not copied.
        assert!(
            (30.0..95.0).contains(&cov),
            "s5378 coverage {cov:.1}% out of plausible range"
        );
    }
}
