//! Timing-window lints: re-verify Eqs. (1)–(6) for every GK found in the
//! netlist against fresh STA arrival times, and audit setup/hold margins
//! that synthesis passes (`holdfix`, `resize`) may have eroded.
//!
//! Window findings carry the tapped data net's SCOAP testability scores
//! (from the `glitchlock-dataflow` controllability/observability domains)
//! in their suggestions: a hard-to-control tap rarely toggles, so its
//! glitch rarely launches, which changes how urgent a window violation is
//! and where the fix (re-run feasibility vs. retap) should land.

use crate::diagnostic::{
    Diagnostic, Location, Severity, GK_GLITCH_TOO_SHORT, GK_WINDOW_VIOLATED, HOLD_MARGIN_ERODED,
    HOLD_VIOLATED, KEYGEN_TRIGGER_FLOOR, SETUP_MARGIN_ERODED, SETUP_VIOLATED,
};
use crate::locking::scan_gk_motifs;
use crate::{LintContext, LintPass};
use glitchlock_core::feasibility::keygen_trigger_floor;
use glitchlock_core::windows::{GkTiming, TriggerWindow};
use glitchlock_dataflow::{scoap_facts, ScoapFacts, INF};
use glitchlock_netlist::{NetId, Netlist};
use glitchlock_sta::analyze;
use std::collections::HashSet;

/// Lazily computed SCOAP scores: window findings are rare, so the
/// fixpoints only run once a finding actually needs them.
struct ScoapHint<'a> {
    nl: &'a Netlist,
    facts: Option<ScoapFacts>,
}

impl<'a> ScoapHint<'a> {
    fn new(nl: &'a Netlist) -> Self {
        ScoapHint { nl, facts: None }
    }

    /// Renders `net`'s scores as a suggestion fragment.
    fn describe(&mut self, net: NetId) -> String {
        let facts = self.facts.get_or_insert_with(|| scoap_facts(self.nl));
        let cc = *facts.cc.net(net);
        let co = *facts.co.net(net);
        let fmt = |v: u32| {
            if v == INF {
                "inf".to_string()
            } else {
                v.to_string()
            }
        };
        let toggle = if cc.cc0 == INF || cc.cc1 == INF {
            "the tap never toggles"
        } else if cc.cc0.max(cc.cc1) > 20 {
            "the tap toggles rarely"
        } else {
            "the tap toggles readily"
        };
        format!(
            "SCOAP at tap {:?}: CC0 {} / CC1 {} / CO {} — {}",
            self.nl.net(net).name(),
            fmt(cc.cc0),
            fmt(cc.cc1),
            fmt(co),
            toggle
        )
    }
}

/// Post-insertion re-verification of the paper's timing equations plus
/// setup/hold margin auditing.
pub struct TimingPass;

impl LintPass for TimingPass {
    fn name(&self) -> &'static str {
        "timing"
    }

    fn codes(&self) -> &'static [&'static str] {
        &[
            GK_WINDOW_VIOLATED,
            GK_GLITCH_TOO_SHORT,
            KEYGEN_TRIGGER_FLOOR,
            SETUP_VIOLATED,
            HOLD_VIOLATED,
            SETUP_MARGIN_ERODED,
            HOLD_MARGIN_ERODED,
        ]
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let nl = ctx.netlist;
        // STA requires a well-formed, acyclic netlist; the structural pass
        // owns reporting those defects.
        if nl.validate().is_err() {
            return;
        }
        let sta = analyze(nl, ctx.library, &ctx.clock);
        let scan = scan_gk_motifs(nl, ctx.library);
        let floor = keygen_trigger_floor(ctx.library);

        // FFs whose violations the locking structure explains — the same
        // exclusion the insertion flow applies when classifying violations.
        let mut explained: HashSet<_> = HashSet::new();
        for motif in &scan.motifs {
            for &(ff, _) in &motif.capture_ffs {
                explained.insert(ff);
            }
            if let Some(kg) = &motif.keygen {
                explained.insert(kg.toggle_ff);
            }
        }

        let mut scoap = ScoapHint::new(nl);
        for motif in &scan.motifs {
            let mux_name = nl.cell(motif.mux).name().to_string();
            let l_glitch = motif.d_path_min();
            for &(ff, pad) in &motif.capture_ffs {
                let ff_name = nl.cell(ff).name();
                let loc = Location::cell_net(&mux_name, nl.net(motif.y).name());
                let seq = ctx.library.ff_timing(nl, ff);
                let timing = GkTiming {
                    t_arrival: sta.arrival_max(motif.x),
                    t_j: ctx.clock.skew_of(ff),
                    t_clk: ctx.clock.period,
                    t_setup: seq.setup,
                    t_hold: seq.hold,
                    l_glitch,
                    d_ready: motif.d_path_max(),
                    d_react: motif.d_react + pad,
                };
                if l_glitch < seq.setup + seq.hold {
                    out.push(
                        Diagnostic::new(
                            GK_GLITCH_TOO_SHORT,
                            Severity::Error,
                            loc,
                            format!(
                                "GK at {mux_name}: glitch length {l_glitch} cannot cover \
                                 setup {} + hold {} at {ff_name}",
                                seq.setup, seq.hold
                            ),
                        )
                        .with_suggestion(format!(
                            "lengthen the branch delay chains ({})",
                            scoap.describe(motif.x)
                        )),
                    );
                    continue;
                }
                if !timing.eq3_ok() {
                    out.push(
                        Diagnostic::new(
                            GK_WINDOW_VIOLATED,
                            Severity::Error,
                            loc,
                            format!(
                                "GK at {mux_name}: Eq. (3) violated at {ff_name} — arrival {} \
                                 + D_ready {} + D_react {} misses bounds [{}, {}]",
                                timing.t_arrival,
                                timing.d_ready,
                                timing.d_react,
                                timing.lb(),
                                timing.ub()
                            ),
                        )
                        .with_suggestion(format!(
                            "re-run feasibility; the data path grew past the window ({})",
                            scoap.describe(motif.x)
                        )),
                    );
                    continue;
                }
                let Some(w) = timing.on_glitch_window() else {
                    out.push(
                        Diagnostic::new(
                            GK_WINDOW_VIOLATED,
                            Severity::Error,
                            loc,
                            format!(
                                "GK at {mux_name}: the Eq. (5) trigger window at {ff_name} \
                                 is empty"
                            ),
                        )
                        .with_suggestion("re-run feasibility for this flip-flop"),
                    );
                    continue;
                };
                let lo = w.lo.max(floor);
                if lo >= w.hi {
                    out.push(
                        Diagnostic::new(
                            KEYGEN_TRIGGER_FLOOR,
                            Severity::Error,
                            loc,
                            format!(
                                "GK at {mux_name}: the trigger window ({}, {}) at {ff_name} \
                                 closes before the KEYGEN's earliest producible trigger {floor}",
                                w.lo, w.hi
                            ),
                        )
                        .with_suggestion("choose a flip-flop with a later window"),
                    );
                    continue;
                }
                let clipped = TriggerWindow { lo, hi: w.hi };
                if let Some(kg) = &motif.keygen {
                    let hit = clipped.contains(kg.trigger_a) || clipped.contains(kg.trigger_b);
                    if !hit {
                        out.push(
                            Diagnostic::new(
                                GK_WINDOW_VIOLATED,
                                Severity::Error,
                                loc,
                                format!(
                                    "GK at {mux_name}: neither KEYGEN trigger ({} / {}) falls \
                                     inside the trigger window ({}, {}) at {ff_name}",
                                    kg.trigger_a, kg.trigger_b, clipped.lo, clipped.hi
                                ),
                            )
                            .with_suggestion("recompose the KEYGEN delay chains"),
                        );
                    }
                }
            }
        }

        // Setup/hold audit over the remaining (unexplained) flip-flops,
        // worst slack first so reports lead with the most urgent endpoint.
        let margin = ctx.margin.as_ps() as i64;
        for check in sta.worst_endpoints(usize::MAX) {
            if explained.contains(&check.ff) {
                continue;
            }
            let name = nl.cell(check.ff).name();
            let loc = Location::cell(name);
            if check.slack_setup < 0 {
                out.push(
                    Diagnostic::new(
                        SETUP_VIOLATED,
                        Severity::Error,
                        loc,
                        format!(
                            "{name}: setup violated by {}ps (arrival {} > UB {})",
                            -check.slack_setup, check.arrival_max, check.ub
                        ),
                    )
                    .with_suggestion("retime the path or relax the clock"),
                );
            } else if check.slack_setup < margin {
                out.push(Diagnostic::new(
                    SETUP_MARGIN_ERODED,
                    Severity::Warning,
                    loc,
                    format!(
                        "{name}: setup slack {}ps is below the {}ps margin",
                        check.slack_setup, margin
                    ),
                ));
            }
        }
        for check in sta.worst_hold_endpoints(usize::MAX) {
            if explained.contains(&check.ff) {
                continue;
            }
            let name = nl.cell(check.ff).name();
            let loc = Location::cell(name);
            if check.slack_hold < 0 {
                out.push(
                    Diagnostic::new(
                        HOLD_VIOLATED,
                        Severity::Error,
                        loc,
                        format!(
                            "{name}: hold violated by {}ps (arrival {} < LB {})",
                            -check.slack_hold, check.arrival_min, check.lb
                        ),
                    )
                    .with_suggestion("run holdfix to pad the short path"),
                );
            } else if check.slack_hold < margin {
                out.push(Diagnostic::new(
                    HOLD_MARGIN_ERODED,
                    Severity::Warning,
                    loc,
                    format!(
                        "{name}: hold slack {}ps is below the {}ps margin",
                        check.slack_hold, margin
                    ),
                ));
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
    use glitchlock_netlist::{GateKind, Netlist};
    use glitchlock_sta::ClockModel;
    use glitchlock_stdcell::{Library, Ps};

    fn lib() -> Library {
        Library::cl013g_like().with_gk_delay_macros()
    }

    fn gk_fixture(design: &GkDesign) -> Netlist {
        let library = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let key = nl.add_input("gk0_key");
        let gk = build_gk(&mut nl, &library, x, key, design).unwrap();
        let q = nl.add_dff(gk.y).unwrap();
        nl.mark_output(q, "y");
        nl
    }

    fn run(nl: &Netlist, clock: ClockModel, design: GkDesign, margin: Ps) -> crate::LintReport {
        let library = lib();
        let ctx = crate::LintContext::new(nl, &library)
            .with_clock(clock)
            .with_design(design)
            .with_margin(margin);
        LintRunner::empty()
            .with_pass(Box::new(TimingPass))
            .run(&ctx)
    }

    #[test]
    fn healthy_gk_passes_all_window_checks() {
        let design = GkDesign::paper_default();
        let nl = gk_fixture(&design);
        let report = run(&nl, ClockModel::new(Ps::from_ns(3)), design, Ps(0));
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn tight_clock_violates_the_window_not_setup() {
        // The GK path misses Eq. (3) under a 1.2ns clock; the capture FF's
        // own setup violation is explained by the GK and must NOT be
        // reported as setup-violated.
        let design = GkDesign::paper_default();
        let nl = gk_fixture(&design);
        let report = run(&nl, ClockModel::new(Ps(1200)), design, Ps(0));
        let violated = report.with_code(diagnostic::GK_WINDOW_VIOLATED);
        assert!(!violated.is_empty());
        assert!(report.with_code(diagnostic::SETUP_VIOLATED).is_empty());
        // Window findings carry the tap's SCOAP scores in the suggestion.
        assert!(
            violated[0]
                .suggestion
                .as_deref()
                .is_some_and(|s| s.contains("SCOAP at tap")),
            "{:?}",
            violated[0].suggestion
        );
    }

    #[test]
    fn short_glitch_design_is_flagged() {
        // 150ps branches cannot cover setup(90) + hold(35)... they can
        // (125); use 100ps to fall below, leaving only the gate delay.
        let design = GkDesign {
            l_glitch: Ps(100),
            tolerance: Ps(200),
            ..GkDesign::paper_default()
        };
        let nl = gk_fixture(&design);
        let report = run(&nl, ClockModel::new(Ps::from_ns(3)), design, Ps(0));
        assert!(!report.with_code(diagnostic::GK_GLITCH_TOO_SHORT).is_empty());
    }

    #[test]
    fn unlocked_pipeline_reports_true_setup_violation() {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let q1 = nl.add_dff_named(a, "ff1").unwrap();
        let x1 = nl.add_gate(GateKind::Inv, &[q1]).unwrap();
        let x2 = nl.add_gate(GateKind::Inv, &[x1]).unwrap();
        let q2 = nl.add_dff_named(x2, "ff2").unwrap();
        nl.mark_output(q2, "y");
        // 250ps period: arrival 210 > UB 160.
        let report = run(
            &nl,
            ClockModel::new(Ps(250)),
            GkDesign::paper_default(),
            Ps(0),
        );
        assert_eq!(report.with_code(diagnostic::SETUP_VIOLATED).len(), 2);
        assert!(report.with_code(diagnostic::GK_WINDOW_VIOLATED).is_empty());
    }

    #[test]
    fn margin_erosion_is_a_warning_not_an_error() {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let q = nl.add_dff(g).unwrap();
        nl.mark_output(q, "y");
        // Slack is comfortable at 3ns with no margin...
        let clean = run(
            &nl,
            ClockModel::new(Ps::from_ns(3)),
            GkDesign::paper_default(),
            Ps(0),
        );
        assert!(clean.diagnostics.is_empty());
        // ...but a huge margin flags erosion warnings without errors.
        let eroded = run(
            &nl,
            ClockModel::new(Ps::from_ns(3)),
            GkDesign::paper_default(),
            Ps::from_ns(10),
        );
        assert!(!eroded.with_code(diagnostic::SETUP_MARGIN_ERODED).is_empty());
        assert!(!eroded.with_code(diagnostic::HOLD_MARGIN_ERODED).is_empty());
        assert_eq!(eroded.denied(), 0);
    }

    #[test]
    fn cyclic_netlist_is_skipped_silently() {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let placeholder = nl.add_net("w");
        let y = nl.add_gate(GateKind::And, &[a, placeholder]).unwrap();
        let w = nl.add_gate(GateKind::Or, &[y, a]).unwrap();
        nl.replace_uses(placeholder, w).unwrap();
        nl.mark_output(y, "y");
        let report = run(
            &nl,
            ClockModel::new(Ps::from_ns(3)),
            GkDesign::paper_default(),
            Ps(0),
        );
        // The structural pass owns the loop finding; timing must not panic.
        assert!(report.diagnostics.is_empty());
    }
}
