//! Static timing analysis for `glitchlock` (the PrimeTime substitute).
//!
//! Computes per-net earliest/latest arrival times with a forward pass over
//! the combinational logic, then checks every flip-flop's D pin against the
//! paper's Eq. (1) bounds:
//!
//! ```text
//! LB_j = T_j + T_hold(j)                 — earliest a new value may arrive
//! UB_j = T_clk + T_j - T_setup(j)        — latest the value must settle
//! ```
//!
//! where `T_j` is flip-flop `j`'s clock arrival (skew). Launch times are
//! `T_i + clk→q` for flip-flop sources and a configurable arrival for
//! primary inputs. The report carries per-flip-flop setup/hold slack, the
//! worst negative slack, and the critical path, which the GK insertion flow
//! uses both to pick feasible flip-flops (Eqs. (3)–(6)) and to avoid
//! critical-path flip-flops (paper Sec. IV-B).
//!
//! # Example
//!
//! ```rust
//! use glitchlock_netlist::{Netlist, GateKind};
//! use glitchlock_sta::{analyze, ClockModel};
//! use glitchlock_stdcell::{Library, Ps};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::cl013g_like();
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let g = nl.add_gate(GateKind::Inv, &[a])?;
//! let q = nl.add_dff(g)?;
//! nl.mark_output(q, "q");
//! let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
//! assert!(report.all_met());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};
use glitchlock_stdcell::{Library, Ps};
use std::collections::HashMap;

/// Clock description for static analysis: period, per-flip-flop skew, and
/// the arrival time of primary inputs relative to the launching edge.
#[derive(Clone, Debug)]
pub struct ClockModel {
    /// Clock period (`T_clk`).
    pub period: Ps,
    /// Per-flip-flop clock arrival offset (`T_i`).
    pub skew: HashMap<CellId, Ps>,
    /// Arrival time of primary inputs (0 = registered at the edge).
    pub input_arrival: Ps,
}

impl ClockModel {
    /// Zero-skew clock. Primary inputs are assumed launched by upstream
    /// registers, so they default to arriving one typical clk→q (200ps)
    /// after the edge rather than exactly on it (which would flag a
    /// spurious hold violation at every input-fed flip-flop).
    pub fn new(period: Ps) -> Self {
        ClockModel {
            period,
            skew: HashMap::new(),
            input_arrival: Ps(200),
        }
    }

    /// Adds skew for one flip-flop.
    pub fn with_skew(mut self, ff: CellId, skew: Ps) -> Self {
        self.skew.insert(ff, skew);
        self
    }

    /// Sets the primary-input arrival time.
    pub fn with_input_arrival(mut self, t: Ps) -> Self {
        self.input_arrival = t;
        self
    }

    /// Clock arrival offset of a flip-flop.
    pub fn skew_of(&self, ff: CellId) -> Ps {
        self.skew.get(&ff).copied().unwrap_or(Ps::ZERO)
    }
}

/// Timing check result at one flip-flop's D pin.
#[derive(Clone, Copy, Debug)]
pub struct FfCheck {
    /// The capturing flip-flop.
    pub ff: CellId,
    /// Latest data arrival at D (`T_arrival` in the paper's Eq. (3)).
    pub arrival_max: Ps,
    /// Earliest data arrival at D.
    pub arrival_min: Ps,
    /// Latest permitted arrival (`UB_j`).
    pub ub: Ps,
    /// Earliest permitted change (`LB_j`).
    pub lb: Ps,
    /// Setup slack in picoseconds (negative = violated): `UB - arrival_max`.
    pub slack_setup: i64,
    /// Hold slack in picoseconds (negative = violated): `arrival_min - LB`.
    pub slack_hold: i64,
}

impl FfCheck {
    /// True when both setup and hold are met.
    pub fn met(&self) -> bool {
        self.slack_setup >= 0 && self.slack_hold >= 0
    }
}

/// The full timing report.
#[derive(Clone, Debug)]
pub struct TimingReport {
    arrival_max: Vec<Ps>,
    arrival_min: Vec<Ps>,
    checks: Vec<FfCheck>,
    /// Position of each flip-flop's check in `checks`.
    check_index: HashMap<CellId, usize>,
    critical_path: Vec<CellId>,
    wns: i64,
}

impl TimingReport {
    /// Latest arrival time of a net.
    pub fn arrival_max(&self, net: NetId) -> Ps {
        self.arrival_max[net.index()]
    }

    /// Earliest arrival time of a net.
    pub fn arrival_min(&self, net: NetId) -> Ps {
        self.arrival_min[net.index()]
    }

    /// Per-flip-flop checks in [`Netlist::dff_cells`] order.
    pub fn checks(&self) -> &[FfCheck] {
        &self.checks
    }

    /// The check for one flip-flop, if it exists in the design.
    pub fn check_of(&self, ff: CellId) -> Option<&FfCheck> {
        self.check_index.get(&ff).map(|&i| &self.checks[i])
    }

    /// Worst negative slack across all checks (0 when everything meets
    /// timing).
    pub fn wns(&self) -> i64 {
        self.wns
    }

    /// True when every flip-flop meets setup and hold.
    pub fn all_met(&self) -> bool {
        self.checks.iter().all(FfCheck::met)
    }

    /// Cells on the worst setup path, capture flip-flop last.
    pub fn critical_path(&self) -> &[CellId] {
        &self.critical_path
    }

    /// Flip-flops on the worst setup path (the GK insertion flow avoids
    /// these, paper Sec. IV-B).
    pub fn critical_ffs(&self, netlist: &Netlist) -> Vec<CellId> {
        self.critical_path
            .iter()
            .copied()
            .filter(|&c| netlist.cell(c).kind() == GateKind::Dff)
            .collect()
    }

    /// The `k` worst setup endpoints, most negative slack first — the
    /// "report_timing -max_paths k" view of a sign-off run.
    pub fn worst_endpoints(&self, k: usize) -> Vec<&FfCheck> {
        let mut v: Vec<&FfCheck> = self.checks.iter().collect();
        v.sort_by_key(|c| c.slack_setup);
        v.truncate(k);
        v
    }

    /// The `k` worst hold endpoints, most negative hold slack first — the
    /// min-delay counterpart of [`TimingReport::worst_endpoints`], used by
    /// post-`holdfix` audits to rank eroded margins.
    pub fn worst_hold_endpoints(&self, k: usize) -> Vec<&FfCheck> {
        let mut v: Vec<&FfCheck> = self.checks.iter().collect();
        v.sort_by_key(|c| c.slack_hold);
        v.truncate(k);
        v
    }

    /// Traces the max-arrival path ending at `ff`'s D pin (capture
    /// flip-flop last), following worst-arrival predecessors — the per-
    /// endpoint equivalent of [`TimingReport::critical_path`].
    pub fn path_to(&self, netlist: &Netlist, ff: CellId) -> Vec<CellId> {
        let mut path = vec![ff];
        let mut net = netlist.cell(ff).inputs()[0];
        while let Some(driver) = netlist.net(net).driver() {
            path.push(driver);
            let dc = netlist.cell(driver);
            if !dc.kind().is_combinational() || dc.inputs().is_empty() {
                break;
            }
            net = *dc
                .inputs()
                .iter()
                .max_by_key(|n| self.arrival_max[n.index()])
                .expect("combinational cell has inputs");
        }
        path.reverse();
        path
    }
}

/// Runs static timing analysis.
///
/// # Panics
///
/// Panics if the netlist contains a combinational cycle (validate first).
pub fn analyze(netlist: &Netlist, library: &Library, clock: &ClockModel) -> TimingReport {
    let n_nets = netlist.net_count();
    let mut arrival_max = vec![Ps::ZERO; n_nets];
    let mut arrival_min = vec![Ps::ZERO; n_nets];

    // Sources.
    for &pi in netlist.input_nets() {
        arrival_max[pi.index()] = clock.input_arrival;
        arrival_min[pi.index()] = clock.input_arrival;
    }
    for &ff in netlist.dff_cells() {
        let q = netlist.cell(ff).output();
        let t = clock.skew_of(ff) + library.ff_timing(netlist, ff).clk_to_q;
        arrival_max[q.index()] = t;
        arrival_min[q.index()] = t;
    }

    // Forward pass.
    let order = netlist
        .topo_order_cached()
        .expect("netlist must be acyclic");
    for cell in order {
        let c = netlist.cell(*cell);
        let delay = library.cell_delay(netlist, *cell);
        let out = c.output();
        if c.inputs().is_empty() {
            // Constants: available at time zero.
            arrival_max[out.index()] = Ps::ZERO;
            arrival_min[out.index()] = Ps::ZERO;
            continue;
        }
        let max_in = c
            .inputs()
            .iter()
            .map(|n| arrival_max[n.index()])
            .max()
            .unwrap_or(Ps::ZERO);
        let min_in = c
            .inputs()
            .iter()
            .map(|n| arrival_min[n.index()])
            .min()
            .unwrap_or(Ps::ZERO);
        arrival_max[out.index()] = max_in + delay;
        arrival_min[out.index()] = min_in + delay;
    }

    // Checks at every flip-flop D pin.
    let mut checks = Vec::with_capacity(netlist.dff_cells().len());
    let mut worst: Option<(i64, CellId)> = None;
    for &ff in netlist.dff_cells() {
        let d = netlist.cell(ff).inputs()[0];
        let timing = library.ff_timing(netlist, ff);
        let t_j = clock.skew_of(ff);
        let ub = clock.period + t_j - timing.setup;
        let lb = t_j + timing.hold;
        let amax = arrival_max[d.index()];
        let amin = arrival_min[d.index()];
        let slack_setup = ub.as_ps() as i64 - amax.as_ps() as i64;
        let slack_hold = amin.as_ps() as i64 - lb.as_ps() as i64;
        checks.push(FfCheck {
            ff,
            arrival_max: amax,
            arrival_min: amin,
            ub,
            lb,
            slack_setup,
            slack_hold,
        });
        // The critical path is the worst *setup* path, matching how P&R
        // flows report it.
        if worst.map(|(w, _)| slack_setup < w).unwrap_or(true) {
            worst = Some((slack_setup, ff));
        }
    }

    // Critical path: backtrack max-arrival predecessors from the worst FF.
    let mut critical_path = Vec::new();
    if let Some((_, ff)) = worst {
        let mut path = vec![ff];
        let mut net = netlist.cell(ff).inputs()[0];
        while let Some(driver) = netlist.net(net).driver() {
            path.push(driver);
            let dc = netlist.cell(driver);
            if !dc.kind().is_combinational() || dc.inputs().is_empty() {
                break;
            }
            net = *dc
                .inputs()
                .iter()
                .max_by_key(|n| arrival_max[n.index()])
                .expect("combinational cell has inputs");
        }
        path.reverse();
        critical_path = path;
    }

    let wns = checks
        .iter()
        .map(|c| c.slack_setup.min(c.slack_hold))
        .min()
        .unwrap_or(0)
        .min(0);

    let check_index = checks.iter().enumerate().map(|(i, c)| (c.ff, i)).collect();
    TimingReport {
        arrival_max,
        arrival_min,
        checks,
        check_index,
        critical_path,
        wns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::cl013g_like()
    }

    /// FF -> INV -> INV -> FF pipeline.
    fn pipeline() -> (Netlist, CellId, CellId) {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let q1 = nl.add_dff_named(a, "ff1").unwrap();
        let x1 = nl.add_gate(GateKind::Inv, &[q1]).unwrap();
        let x2 = nl.add_gate(GateKind::Inv, &[x1]).unwrap();
        let q2 = nl.add_dff_named(x2, "ff2").unwrap();
        nl.mark_output(q2, "y");
        let ffs = nl.dff_cells().to_vec();
        (nl, ffs[0], ffs[1])
    }

    #[test]
    fn arrival_accumulates_through_gates() {
        let (nl, _ff1, ff2) = pipeline();
        let lib = lib();
        let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
        let check = report.check_of(ff2).unwrap();
        // clk->q (160) + INV (25) + INV (25) = 210ps.
        assert_eq!(check.arrival_max, Ps(210));
        assert_eq!(check.arrival_min, Ps(210));
        // UB = 2000 - 90 = 1910; setup slack = 1700.
        assert_eq!(check.ub, Ps(1910));
        assert_eq!(check.slack_setup, 1700);
        // LB = 35; hold slack = 175.
        assert_eq!(check.lb, Ps(35));
        assert_eq!(check.slack_hold, 175);
        assert!(report.all_met());
        assert_eq!(report.wns(), 0);
    }

    #[test]
    fn tight_clock_creates_setup_violation() {
        let (nl, _, ff2) = pipeline();
        let lib = lib();
        // Period 250ps: UB = 250 - 90 = 160 < 210 arrival.
        let report = analyze(&nl, &lib, &ClockModel::new(Ps(250)));
        let check = report.check_of(ff2).unwrap();
        assert_eq!(check.slack_setup, -50);
        assert!(!report.all_met());
        assert_eq!(report.wns(), -50);
    }

    #[test]
    fn skew_shifts_bounds() {
        let (nl, ff1, ff2) = pipeline();
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(2))
            .with_skew(ff1, Ps(100))
            .with_skew(ff2, Ps(50));
        let report = analyze(&nl, &lib, &clock);
        let check = report.check_of(ff2).unwrap();
        // Launch shifted by +100 -> arrival 310; UB = 2000 + 50 - 90 = 1960.
        assert_eq!(check.arrival_max, Ps(310));
        assert_eq!(check.ub, Ps(1960));
        assert_eq!(check.lb, Ps(85));
    }

    #[test]
    fn hold_violation_with_fast_path_and_late_capture() {
        let (nl, _, ff2) = pipeline();
        let lib = lib();
        // Capture clock arrives 300ps late: LB = 300 + 35 = 335 > 210.
        let clock = ClockModel::new(Ps::from_ns(2)).with_skew(ff2, Ps(300));
        let report = analyze(&nl, &lib, &clock);
        let check = report.check_of(ff2).unwrap();
        assert_eq!(check.slack_hold, 210 - 335);
        assert!(!check.met());
    }

    #[test]
    fn critical_path_reaches_launch_ff() {
        let (nl, ff1, ff2) = pipeline();
        let lib = lib();
        let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
        let path = report.critical_path();
        assert_eq!(*path.last().unwrap(), ff2);
        assert_eq!(*path.first().unwrap(), ff1);
        assert_eq!(path.len(), 4);
        let crit_ffs = report.critical_ffs(&nl);
        assert_eq!(crit_ffs, vec![ff1, ff2]);
    }

    #[test]
    fn diverging_paths_give_min_max_window() {
        let lib = lib();
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        let ff_in = nl.dff_cells()[0];
        let slow1 = nl.add_gate(GateKind::Inv, &[q]).unwrap();
        let slow2 = nl.add_gate(GateKind::Inv, &[slow1]).unwrap();
        let merged = nl.add_gate(GateKind::And, &[q, slow2]).unwrap();
        let q2 = nl.add_dff(merged).unwrap();
        nl.mark_output(q2, "y");
        let ff2 = nl.dff_cells()[1];
        let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
        let check = report.check_of(ff2).unwrap();
        // Fast path: clk->q(160) + AND(60) = 220.
        // Slow path: 160 + 25 + 25 + 60 = 270.
        assert_eq!(check.arrival_min, Ps(220));
        assert_eq!(check.arrival_max, Ps(270));
        let _ = ff_in;
    }

    #[test]
    fn worst_endpoints_sorted_by_slack() {
        let lib = lib();
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        // Fast endpoint.
        let f = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let qf = nl.add_dff(f).unwrap();
        // Slow endpoint through a delay cell.
        let s = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.bind_lib(nl.net(s).driver().unwrap(), lib.by_name("DLY4X1").unwrap())
            .unwrap();
        let qs = nl.add_dff(s).unwrap();
        nl.mark_output(qf, "f");
        nl.mark_output(qs, "s");
        let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
        let worst = report.worst_endpoints(2);
        assert_eq!(worst.len(), 2);
        assert!(worst[0].slack_setup <= worst[1].slack_setup);
        assert_eq!(worst[0].ff, nl.dff_cells()[1], "slow FF is worst");
        let one = report.worst_endpoints(1);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn worst_hold_endpoints_sorted_by_hold_slack() {
        let lib = lib();
        let mut nl = Netlist::new("h");
        let a = nl.add_input("a");
        // Fast endpoint: direct input capture (smallest hold slack).
        let qf = nl.add_dff(a).unwrap();
        // Slower endpoint through a delay cell.
        let s = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        nl.bind_lib(nl.net(s).driver().unwrap(), lib.by_name("DLY4X1").unwrap())
            .unwrap();
        let qs = nl.add_dff(s).unwrap();
        nl.mark_output(qf, "f");
        nl.mark_output(qs, "s");
        let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
        let worst = report.worst_hold_endpoints(2);
        assert_eq!(worst.len(), 2);
        assert!(worst[0].slack_hold <= worst[1].slack_hold);
        assert_eq!(
            worst[0].ff,
            nl.dff_cells()[0],
            "direct-capture FF has least hold slack"
        );
        assert_eq!(report.worst_hold_endpoints(1).len(), 1);
    }

    #[test]
    fn path_to_traces_each_endpoint() {
        let (nl, ff1, ff2) = pipeline();
        let lib = lib();
        let report = analyze(&nl, &lib, &ClockModel::new(Ps::from_ns(2)));
        let path = report.path_to(&nl, ff2);
        assert_eq!(*path.last().unwrap(), ff2);
        assert_eq!(*path.first().unwrap(), ff1);
        // Path to the first FF ends at the primary input marker.
        let path = report.path_to(&nl, ff1);
        assert_eq!(*path.last().unwrap(), ff1);
        assert_eq!(path.len(), 2, "input marker then the flip-flop");
    }

    #[test]
    fn input_arrival_offsets_pi_paths() {
        let lib = lib();
        let mut nl = Netlist::new("pi");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let q = nl.add_dff(g).unwrap();
        nl.mark_output(q, "y");
        let clock = ClockModel::new(Ps::from_ns(2)).with_input_arrival(Ps(500));
        let report = analyze(&nl, &lib, &clock);
        let ff = nl.dff_cells()[0];
        // 500 + BUF(55) = 555.
        assert_eq!(report.check_of(ff).unwrap().arrival_max, Ps(555));
    }
}
