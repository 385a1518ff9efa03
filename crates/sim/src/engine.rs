//! The discrete-event simulation engine.

use crate::{DelayModel, SimConfig, Stimulus, Waveform};
use glitchlock_netlist::{CellId, Logic, NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use glitchlock_stdcell::{Library, Ps};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Which stability window a flip-flop data transition violated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// D changed inside `(T - T_setup, T]`.
    Setup,
    /// D changed inside `(T, T + T_hold)`.
    Hold,
}

/// A recorded setup/hold violation at a flip-flop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated flip-flop.
    pub ff: CellId,
    /// The rising clock edge the violation belongs to.
    pub edge: Ps,
    /// Setup or hold.
    pub kind: ViolationKind,
    /// The offending D-pin transition time.
    pub change_at: Ps,
}

/// The output of a simulation run: one waveform per net, per-flip-flop
/// samples, and all setup/hold violations.
#[derive(Clone, Debug)]
pub struct SimResult {
    waveforms: Vec<Waveform>,
    samples: HashMap<CellId, Vec<(Ps, Logic)>>,
    violations: Vec<Violation>,
    until: Ps,
}

impl SimResult {
    /// The recorded waveform of a net.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range net id.
    pub fn waveform(&self, net: NetId) -> &Waveform {
        &self.waveforms[net.index()]
    }

    /// `(edge-time, sampled-value)` pairs for a flip-flop, in edge order.
    pub fn samples_of(&self, ff: CellId) -> &[(Ps, Logic)] {
        self.samples.get(&ff).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All recorded setup/hold violations, in edge order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Violations at one flip-flop.
    pub fn violations_of(&self, ff: CellId) -> Vec<Violation> {
        self.violations
            .iter()
            .copied()
            .filter(|v| v.ff == ff)
            .collect()
    }

    /// The simulation horizon.
    pub fn until(&self) -> Ps {
        self.until
    }

    /// Final value of a net at the horizon.
    pub fn final_value(&self, net: NetId) -> Logic {
        self.waveform(net).value_at(self.until)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EventKind {
    /// A net takes a new value (generation tag used for inertial
    /// cancellation; input-driven events carry the live generation too).
    NetChange { net: NetId, value: Logic, gen: u64 },
    /// A rising clock edge at one flip-flop.
    ClockEdge { ff: CellId },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Event {
    time: Ps,
    /// Net changes apply before clock edges at the same instant.
    class: u8,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.time, other.class, other.seq).cmp(&(self.time, self.class, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The event-driven timing simulator. See the crate docs for semantics.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator over a validated netlist.
    pub fn new(netlist: &'a Netlist, library: &'a Library, config: SimConfig) -> Self {
        Simulator {
            netlist,
            library,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn gate_delay(&self, cell: CellId) -> Ps {
        let lib = self.library.resolve(self.netlist, cell);
        if self.config.ideal_gates && !lib.is_delay_cell() {
            return Ps::ZERO;
        }
        let fanout = self
            .netlist
            .net(self.netlist.cell(cell).output())
            .fanout()
            .len();
        lib.delay_with_fanout(fanout)
    }

    /// Runs the simulation until `until` (inclusive) and returns the trace.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails validation (combinational cycle,
    /// undriven read net).
    pub fn run(&self, stimulus: &Stimulus, until: Ps) -> SimResult {
        let nl = self.netlist;
        let n_nets = nl.net_count();

        // Settled initial state at t = 0.
        let initial_inputs: Vec<Logic> = nl
            .input_nets()
            .iter()
            .map(|&n| stimulus.initial_of(n))
            .collect();
        let initial_q: Vec<Logic> = nl
            .dff_cells()
            .iter()
            .map(|&ff| stimulus.initial_ff_of(ff))
            .collect();
        let mut values = nl.eval_nets(&initial_inputs, Some(&initial_q));
        let mut projected = values.clone();
        let mut gen = vec![0u64; n_nets];
        let mut waveforms: Vec<Waveform> = values.iter().map(|&v| Waveform::constant(v)).collect();

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |heap: &mut BinaryHeap<Event>, time: Ps, class: u8, kind: EventKind| {
            heap.push(Event {
                time,
                class,
                seq,
                kind,
            });
            seq += 1;
        };

        for (t, net, v) in stimulus.sorted_events() {
            // External stimulus always carries the live generation (bumped
            // lazily below at schedule time for internal nets only).
            push(
                &mut heap,
                t,
                0,
                EventKind::NetChange {
                    net,
                    value: v,
                    gen: u64::MAX,
                },
            );
        }
        for &ff in nl.dff_cells() {
            for edge in self.config.clock.edges_for(ff, until) {
                push(&mut heap, edge, 1, EventKind::ClockEdge { ff });
            }
        }

        let mut samples: HashMap<CellId, Vec<(Ps, Logic)>> = HashMap::new();
        let mut in_buf: Vec<Logic> = Vec::with_capacity(8);
        // Local accumulators, published to the obs registry once per run
        // so the event loop pays zero atomic traffic.
        let mut n_events = 0u64;
        let mut n_cancelled = 0u64;
        let mut n_changes = 0u64;
        let mut n_edges = 0u64;

        while let Some(ev) = heap.pop() {
            if ev.time > until {
                break;
            }
            n_events += 1;
            match ev.kind {
                EventKind::NetChange {
                    net,
                    value,
                    gen: evgen,
                } => {
                    if evgen != u64::MAX && evgen != gen[net.index()] {
                        n_cancelled += 1;
                        continue; // cancelled by inertial replacement
                    }
                    if evgen == u64::MAX {
                        // External drive overrides whatever was projected.
                        projected[net.index()] = value;
                    }
                    if values[net.index()] == value {
                        continue;
                    }
                    values[net.index()] = value;
                    n_changes += 1;
                    waveforms[net.index()].push(ev.time, value);
                    // Propagate to combinational sinks.
                    for &(sink, _) in nl.net(net).fanout() {
                        let cell = nl.cell(sink);
                        if !cell.kind().is_combinational() {
                            continue; // flip-flops sample at clock edges
                        }
                        in_buf.clear();
                        in_buf.extend(cell.inputs().iter().map(|n| values[n.index()]));
                        let new_out = cell.kind().eval(&in_buf);
                        let delay = self.gate_delay(sink);
                        let out = cell.output();
                        self.schedule(
                            &mut heap,
                            &mut seq,
                            &mut projected,
                            &mut gen,
                            out,
                            new_out,
                            ev.time + delay,
                        );
                    }
                }
                EventKind::ClockEdge { ff } => {
                    n_edges += 1;
                    let cell = nl.cell(ff);
                    let d_net = cell.inputs()[0];
                    let d = values[d_net.index()];
                    samples.entry(ff).or_default().push((ev.time, d));
                    let timing = self.library.ff_timing(nl, ff);
                    let q = cell.output();
                    self.schedule(
                        &mut heap,
                        &mut seq,
                        &mut projected,
                        &mut gen,
                        q,
                        d,
                        ev.time + timing.clk_to_q,
                    );
                }
            }
        }

        let violations = self.collect_violations(&waveforms, until);
        let collector = obs::current();
        collector.counter(names::SIM_EVENTS).add(n_events);
        collector.counter(names::SIM_CANCELLED).add(n_cancelled);
        collector.counter(names::SIM_NET_CHANGES).add(n_changes);
        collector.counter(names::SIM_CLOCK_EDGES).add(n_edges);
        collector
            .counter(names::SIM_VIOLATIONS)
            .add(violations.len() as u64);
        collector
            .counter(names::SIM_GLITCHES)
            .add(count_glitch_pulses(&waveforms, OBS_GLITCH_WINDOW));
        SimResult {
            waveforms,
            samples,
            violations,
            until,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn schedule(
        &self,
        heap: &mut BinaryHeap<Event>,
        seq: &mut u64,
        projected: &mut [Logic],
        gen: &mut [u64],
        net: NetId,
        value: Logic,
        time: Ps,
    ) {
        if projected[net.index()] == value {
            return; // the net is already headed to this value
        }
        projected[net.index()] = value;
        let evgen = match self.config.delay_model {
            DelayModel::Transport => gen[net.index()],
            DelayModel::Inertial => {
                // Cancel any pending transition: last write wins, so pulses
                // shorter than the gate delay are swallowed.
                gen[net.index()] += 1;
                gen[net.index()]
            }
        };
        heap.push(Event {
            time,
            class: 0,
            seq: *seq,
            kind: EventKind::NetChange {
                net,
                value,
                gen: evgen,
            },
        });
        *seq += 1;
    }

    fn collect_violations(&self, waveforms: &[Waveform], until: Ps) -> Vec<Violation> {
        let mut out = Vec::new();
        for &ff in self.netlist.dff_cells() {
            let timing = self.library.ff_timing(self.netlist, ff);
            let d_net = self.netlist.cell(ff).inputs()[0];
            let wave = &waveforms[d_net.index()];
            for edge in self.config.clock.edges_for(ff, until) {
                let setup_from = edge.saturating_sub(timing.setup);
                for &(t, _) in wave.changes() {
                    if t > setup_from && t <= edge {
                        out.push(Violation {
                            ff,
                            edge,
                            kind: ViolationKind::Setup,
                            change_at: t,
                        });
                    } else if t > edge && t < edge + timing.hold {
                        out.push(Violation {
                            ff,
                            edge,
                            kind: ViolationKind::Hold,
                            change_at: t,
                        });
                    }
                }
            }
        }
        out.sort_by_key(|v| (v.edge, v.change_at));
        out
    }
}

/// Observation window for glitch counting: two transitions on the same
/// net closer than this count as one glitch pulse. Matches the paper's
/// default glitch length scale (l_glitch ~ 1 ns).
const OBS_GLITCH_WINDOW: Ps = Ps(1000);

/// Counts short pulses (pairs of consecutive transitions within `window`)
/// across all waveforms — the `sim.glitches` probe.
fn count_glitch_pulses(waveforms: &[Waveform], window: Ps) -> u64 {
    let mut pulses = 0u64;
    for wave in waveforms {
        for pair in wave.changes().windows(2) {
            if pair[1].0.saturating_sub(pair[0].0) <= window {
                pulses += 1;
            }
        }
    }
    pulses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use glitchlock_netlist::GateKind;
    use Logic::{One, Zero};

    fn lib() -> Library {
        Library::cl013g_like()
    }

    fn bind_delay(nl: &mut Netlist, net: NetId, lib: &Library, name: &str) {
        let cell = nl.net(net).driver().unwrap();
        nl.bind_lib(cell, lib.by_name(name).unwrap()).unwrap();
    }

    #[test]
    fn inverter_chain_accumulates_delay() {
        let lib = lib();
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let x1 = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let x2 = nl.add_gate(GateKind::Inv, &[x1]).unwrap();
        nl.mark_output(x2, "y");
        let mut stim = Stimulus::new();
        stim.set(a, Zero).rise(Ps(1000), a);
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps(5000));
        // Each INVX1 at fanout 1 contributes 25ps.
        assert_eq!(res.waveform(x2).changes(), &[(Ps(1050), One)]);
        assert_eq!(res.waveform(x1).changes(), &[(Ps(1025), Zero)]);
    }

    #[test]
    fn transport_preserves_narrow_pulse() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        bind_delay(&mut nl, y, &lib, "DLY4X1"); // 1000ps delay
        nl.mark_output(y, "y");
        let mut stim = Stimulus::new();
        stim.set(a, Zero).pulse(Ps(2000), Ps(100), a, One); // 100ps pulse
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps(6000));
        // Transport: pulse survives, shifted by 1000ps.
        assert_eq!(
            res.waveform(y).changes(),
            &[(Ps(3000), One), (Ps(3100), Zero)]
        );
    }

    #[test]
    fn inertial_swallows_narrow_pulse() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        bind_delay(&mut nl, y, &lib, "DLY4X1");
        nl.mark_output(y, "y");
        let mut stim = Stimulus::new();
        stim.set(a, Zero).pulse(Ps(2000), Ps(100), a, One);
        let cfg = SimConfig::new().with_delay_model(DelayModel::Inertial);
        let res = Simulator::new(&nl, &lib, cfg).run(&stim, Ps(6000));
        assert!(
            res.waveform(y).changes().is_empty(),
            "pulse must be swallowed"
        );
    }

    #[test]
    fn inertial_passes_wide_pulse() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        bind_delay(&mut nl, y, &lib, "DLY1X1"); // 250ps
        nl.mark_output(y, "y");
        let mut stim = Stimulus::new();
        stim.set(a, Zero).pulse(Ps(2000), Ps(800), a, One);
        let cfg = SimConfig::new().with_delay_model(DelayModel::Inertial);
        let res = Simulator::new(&nl, &lib, cfg).run(&stim, Ps(6000));
        assert_eq!(
            res.waveform(y).changes(),
            &[(Ps(2250), One), (Ps(3050), Zero)]
        );
    }

    #[test]
    fn dff_samples_on_each_edge_and_drives_q() {
        let lib = lib();
        let mut nl = Netlist::new("ff");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        nl.mark_output(q, "q");
        let ff = nl.dff_cells()[0];
        let mut stim = Stimulus::new();
        stim.set(a, Zero).set_ff(ff, Zero).rise(Ps::from_ns(5), a);
        let cfg = SimConfig::new(); // 10ns clock, first edge at 10ns
        let res = Simulator::new(&nl, &lib, cfg).run(&stim, Ps::from_ns(25));
        assert_eq!(
            res.samples_of(ff),
            &[(Ps::from_ns(10), One), (Ps::from_ns(20), One)]
        );
        // clk->q = 160ps.
        assert_eq!(res.waveform(q).changes(), &[(Ps(10_160), One)]);
        assert!(res.violations().is_empty());
    }

    #[test]
    fn setup_violation_detected() {
        let lib = lib();
        let mut nl = Netlist::new("ff");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        nl.mark_output(q, "q");
        let ff = nl.dff_cells()[0];
        let mut stim = Stimulus::new();
        // Setup time is 90ps: change 50ps before the 10ns edge.
        stim.set(a, Zero).set_ff(ff, Zero).rise(Ps(9950), a);
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps::from_ns(12));
        let v = res.violations_of(ff);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Setup);
        assert_eq!(v[0].change_at, Ps(9950));
        assert_eq!(v[0].edge, Ps::from_ns(10));
    }

    #[test]
    fn hold_violation_detected() {
        let lib = lib();
        let mut nl = Netlist::new("ff");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        nl.mark_output(q, "q");
        let ff = nl.dff_cells()[0];
        let mut stim = Stimulus::new();
        // Hold time is 35ps: change 20ps after the 10ns edge.
        stim.set(a, One).set_ff(ff, Zero).fall(Ps(10_020), a);
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps::from_ns(12));
        let v = res.violations_of(ff);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, ViolationKind::Hold);
    }

    #[test]
    fn stable_data_through_window_is_clean() {
        let lib = lib();
        let mut nl = Netlist::new("ff");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        nl.mark_output(q, "q");
        let ff = nl.dff_cells()[0];
        let mut stim = Stimulus::new();
        // Change well before setup and after hold windows.
        stim.set(a, Zero)
            .set_ff(ff, Zero)
            .rise(Ps(9000), a)
            .fall(Ps(10_500), a);
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps::from_ns(12));
        assert!(res.violations().is_empty());
        assert_eq!(res.samples_of(ff), &[(Ps::from_ns(10), One)]);
    }

    /// Hand-built glitch key-gate (paper Fig. 3(a)) reproducing the Fig. 4
    /// timing diagram under ideal gates: with x = 1 and DA = 2ns, DB = 3ns,
    /// a rising key transition at 3ns yields a glitch of length DB and a
    /// falling transition at 11ns yields a glitch of length DA.
    #[test]
    fn hand_built_gk_reproduces_fig4() {
        let lib = lib();
        let mut nl = Netlist::new("gk");
        let x = nl.add_input("x");
        let key = nl.add_input("key");
        // Delay element A = 2ns (DLY8), B = 3ns (DLY8 + DLY4).
        let key_a = nl.add_gate(GateKind::Buf, &[key]).unwrap();
        bind_delay(&mut nl, key_a, &lib, "DLY8X1");
        let key_b1 = nl.add_gate(GateKind::Buf, &[key]).unwrap();
        bind_delay(&mut nl, key_b1, &lib, "DLY8X1");
        let key_b = nl.add_gate(GateKind::Buf, &[key_b1]).unwrap();
        bind_delay(&mut nl, key_b, &lib, "DLY4X1");
        let a_out = nl.add_gate(GateKind::Xnor, &[x, key_a]).unwrap();
        let b_out = nl.add_gate(GateKind::Xor, &[x, key_b]).unwrap();
        let y = nl.add_gate(GateKind::Mux2, &[a_out, b_out, key]).unwrap();
        nl.mark_output(y, "y");

        let mut stim = Stimulus::new();
        stim.set(x, One).set(key, Zero);
        stim.rise(Ps::from_ns(3), key).fall(Ps::from_ns(11), key);
        let res = Simulator::new(&nl, &lib, SimConfig::ideal()).run(&stim, Ps::from_ns(16));
        let w = res.waveform(y);
        // Steady inverter behaviour: y = x' = 0 outside the glitches.
        assert_eq!(w.initial(), Zero);
        // Glitch 1: (3ns, 6ns) at level 1 (buffer of x).
        // Glitch 2: (11ns, 13ns).
        assert_eq!(
            w.changes(),
            &[
                (Ps::from_ns(3), One),
                (Ps::from_ns(6), Zero),
                (Ps::from_ns(11), One),
                (Ps::from_ns(13), Zero)
            ]
        );
    }

    #[test]
    fn same_time_multi_input_change_settles_to_final_value() {
        let lib = lib();
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        let mut stim = Stimulus::new();
        stim.set(a, Zero).set(b, Zero);
        stim.rise(Ps(1000), a).rise(Ps(1000), b);
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps(3000));
        // Both inputs flip simultaneously: XOR output returns to 0 at the
        // same timestamp, so no transition is recorded.
        assert!(res.waveform(y).changes().is_empty());
    }

    #[test]
    fn x_initial_state_resolves_after_stimulus() {
        let lib = lib();
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        nl.mark_output(y, "y");
        let stim_empty = Stimulus::new();
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim_empty, Ps(1000));
        assert_eq!(res.final_value(y), Logic::X);
        let mut stim = Stimulus::new();
        stim.at(Ps(100), a, One);
        let res = Simulator::new(&nl, &lib, SimConfig::new()).run(&stim, Ps(1000));
        assert_eq!(res.final_value(y), Zero);
    }
}
