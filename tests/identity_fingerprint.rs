//! Structural identity pins for the netlists the lock flow builds.
//!
//! Each fingerprint hashes every net's name, driver and fanout list (in
//! order), every cell's kind, name, inputs and library binding, and the
//! port lists. A rewrite of the parser or of the attack-view rebuild must
//! leave all of them unchanged: equal behaviour is not enough, because net
//! ids and fresh names flow into locked outputs, CNF variable order and
//! every digest downstream.

use glitchlock::circuits::{generate, iwls2005_profiles};
use glitchlock::core::GkEncryptor;
use glitchlock::netlist::{bench_format, Netlist};
use glitchlock::sta::ClockModel;
use glitchlock::stdcell::Library;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over a stream of words and strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fingerprint(nl: &Netlist) -> u64 {
    let mut h = Fnv::new();
    h.str(nl.name());
    h.word(nl.net_count() as u64);
    for (_, net) in nl.nets() {
        h.str(net.name());
        h.word(net.driver().map_or(u64::MAX, |c| c.index() as u64));
        h.word(net.fanout().len() as u64);
        for &(cell, pin) in net.fanout() {
            h.word(cell.index() as u64);
            h.word(pin as u64);
        }
    }
    h.word(nl.cell_count() as u64);
    for (_, cell) in nl.cells() {
        h.str(&cell.kind().to_string());
        h.str(cell.name());
        h.word(cell.output().index() as u64);
        h.word(cell.inputs().len() as u64);
        for n in cell.inputs() {
            h.word(n.index() as u64);
        }
        h.word(cell.lib().map_or(u64::MAX, |l| u64::from(l.0)));
    }
    for n in nl.input_nets() {
        h.word(n.index() as u64);
    }
    for (n, port) in nl.output_ports() {
        h.word(n.index() as u64);
        h.str(port);
    }
    for c in nl.dff_cells() {
        h.word(c.index() as u64);
    }
    h.0
}

/// `parse(emit(generate(p)))` per IWLS profile, in `iwls2005_profiles()`
/// order.
const PARSED: [(&str, u64); 7] = [
    ("s1238", 2192923354149428784),
    ("s5378", 4268478013860154723),
    ("s9234", 11810173040007982534),
    ("s13207", 7766989894317189533),
    ("s15850", 445503049131375311),
    ("s38417", 17912660642556153195),
    ("s38584", 6170903816759270107),
];

/// `GkEncryptor::new(8)` on the parsed profile, seed 7: the locked
/// netlist and the attack view.
const LOCKED: [(&str, u64, u64); 7] = [
    ("s1238", 2328377198574971306, 13257342395675771876),
    ("s5378", 17456180784466632011, 3445120293454076222),
    ("s9234", 2884293994124732689, 15820183990982866349),
    ("s13207", 13696929920149187449, 16398177104398713301),
    ("s15850", 8419786871177237067, 15588407628607589968),
    ("s38417", 3028780628124817256, 6960317161111338995),
    ("s38584", 3776039138009305856, 14695164292402095618),
];

fn parsed(name: &str) -> (Netlist, ClockModel) {
    let profile = iwls2005_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .expect("known profile");
    let text = bench_format::emit(&generate(&profile));
    let nl = bench_format::parse(&text).expect("emitted text parses");
    (nl, ClockModel::new(profile.clock_period))
}

#[test]
fn parsed_iwls_profiles_are_structurally_pinned() {
    let names: Vec<&str> = iwls2005_profiles().iter().map(|p| p.name).collect();
    let pinned: Vec<&str> = PARSED.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "profile list changed");
    let got: Vec<(&str, u64)> = PARSED
        .iter()
        .map(|&(name, _)| (name, fingerprint(&parsed(name).0)))
        .collect();
    assert_eq!(got, PARSED.to_vec(), "parsed netlist identity moved");
}

#[test]
fn gk_locked_netlist_and_attack_view_are_structurally_pinned() {
    let lib = Library::cl013g_like();
    let got: Vec<(&str, u64, u64)> = LOCKED
        .iter()
        .map(|&(name, _, _)| {
            let (original, clock) = parsed(name);
            let mut rng = StdRng::seed_from_u64(7);
            let locked = GkEncryptor::new(8)
                .encrypt(&original, &lib, &clock, &mut rng)
                .expect("8 GKs fit");
            (
                name,
                fingerprint(&locked.netlist),
                fingerprint(&locked.attack_view),
            )
        })
        .collect();
    assert_eq!(got, LOCKED.to_vec(), "locked netlist identity moved");
}
