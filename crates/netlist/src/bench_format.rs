//! ISCAS-85/89 `.bench` format parser and writer.
//!
//! The format used by the classic benchmark suites (and IWLS2005 re-releases):
//!
//! ```text
//! # comment
//! INPUT(G0)
//! OUTPUT(G17)
//! G10 = NAND(G0, G1)
//! G11 = DFF(G10)
//! ```
//!
//! Supported gate names: `AND OR NAND NOR XOR XNOR NOT BUF BUFF DFF MUX`
//! (`MUX(sel, in0, in1)` as in some extended suites) and `CONST0`/`CONST1`.

use crate::netlist::{Sizes, Span};
use crate::{GateKind, LibCellId, NetId, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Range;

/// Parses `.bench` source text into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] with a line number on malformed input, or
/// a structural error if the described circuit is ill-formed.
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    parse_named(src, "bench")
}

/// Parses `.bench` text with an explicit design name.
///
/// # Errors
///
/// See [`parse`].
pub fn parse_named(src: &str, name: &str) -> Result<Netlist, NetlistError> {
    parse_with_bindings(src, name, &|_| None)
}

/// Parses `.bench` text, resolving `# $lib=NAME` binding pragmas (as
/// written by [`emit_with_bindings`]) through `resolve`. Unknown names are
/// reported as parse errors so a mis-matched library is caught loudly.
///
/// Statement errors (a malformed line) are reported first, in line order;
/// then gate errors (unknown function, wrong arity, unknown `$lib`) in gate
/// order; then undefined `OUTPUT`s; then structural errors.
///
/// Net numbering: primary inputs first, then one undriven placeholder net
/// per signal name that is not an input (gate targets in gate order, then
/// names only ever read, in reading order), then one net per gate, driven
/// by that gate. Every reader of a name reads the net of its last
/// definition, so placeholders of defined names stay dangling; fanout lists
/// are in (cell, pin) order.
///
/// # Errors
///
/// See [`parse`]; additionally errors on unresolvable `$lib=` names.
pub fn parse_with_bindings(
    src: &str,
    name: &str,
    resolve: &dyn Fn(&str) -> Option<LibCellId>,
) -> Result<Netlist, NetlistError> {
    let st = Statements::lex(src)?;
    let n_in = st.inputs.len();
    // Each signal's net, by symbol: inputs, then placeholders, then the net
    // of the signal's last definition.
    let mut net_of: Vec<Option<NetId>> = vec![None; st.names.len()];
    for (i, &(_, sym)) in st.inputs.iter().enumerate() {
        net_of[sym] = Some(NetId::from_index(i));
    }
    let mut placeholders: Vec<Sym> = Vec::with_capacity(st.names.len().saturating_sub(n_in));
    let targets = st.gates.iter().map(|g| g.target);
    for sym in targets.chain(st.args.iter().copied()) {
        if net_of[sym].is_none() {
            net_of[sym] = Some(NetId::from_index(n_in + placeholders.len()));
            placeholders.push(sym);
        }
    }
    let first_gate_net = n_in + placeholders.len();
    // The cell-name suffix of each signal's last definition: the arena
    // stores `G10_g` once, and the signal's name is its prefix `G10`.
    let mut suffix_of: Vec<&str> = vec![""; st.names.len()];
    let mut dffs = 0;
    for (i, g) in st.gates.iter().enumerate() {
        net_of[g.target] = Some(NetId::from_index(first_gate_net + i));
        suffix_of[g.target] = cell_suffix(g.func);
        dffs += usize::from(cell_suffix(g.func) == "_ff");
    }
    // Every symbol is an input, a target or an argument, so has a net.
    let net = |sym: Sym| net_of[sym].expect("every symbol has a net");

    let name_bytes = st.names.iter().zip(&suffix_of);
    let mut nl = Netlist::with_capacity(
        name,
        Sizes {
            cells: n_in + st.gates.len(),
            nets: first_gate_net + st.gates.len(),
            pins: st.args.len(),
            names: name_bytes.map(|(n, s)| n.len() + s.len()).sum(),
            inputs: n_in,
            outputs: st.outputs.len(),
            dffs,
        },
    );
    let full: Vec<Span> = st
        .names
        .iter()
        .zip(&suffix_of)
        .map(|(name, suffix)| nl.push_name(&[name, suffix]))
        .collect();
    let span = |sym: Sym| full[sym].prefix(st.names[sym].len());
    for &(_, sym) in &st.inputs {
        nl.add_input_spanned(span(sym));
    }
    for &sym in &placeholders {
        nl.add_net_spanned(span(sym));
    }
    for (i, g) in st.gates.iter().enumerate() {
        let id = NetId::from_index(first_gate_net + i);
        if net(g.target) == id {
            nl.add_net_spanned(span(g.target));
        } else {
            // A target defined again later: its earlier net keeps the name
            // the builder generates for an unnamed gate output.
            let stem = if cell_suffix(g.func) == "_ff" {
                "_ff_q_"
            } else {
                "_g_"
            };
            let generated = nl.push_numbered(&[st.names[g.target], stem], id.index());
            nl.add_net_spanned(generated);
        }
    }

    let mut ins: Vec<NetId> = Vec::new();
    for (i, g) in st.gates.iter().enumerate() {
        let parse_err = |msg: String| NetlistError::Parse { line: g.line, msg };
        let kind = gate_kind(g.func).ok_or_else(|| {
            parse_err(format!(
                "unknown gate function {:?}",
                g.func.to_ascii_uppercase()
            ))
        })?;
        ins.clear();
        ins.extend(st.args[g.args.clone()].iter().map(|&a| net(a)));
        let kind = match kind {
            GateKind::Dff if ins.len() != 1 => {
                return Err(parse_err(format!("DFF takes 1 input, got {}", ins.len())))
            }
            GateKind::Mux2 if ins.len() != 3 => {
                return Err(parse_err(format!("MUX takes 3 inputs, got {}", ins.len())))
            }
            GateKind::Dff => kind,
            GateKind::Mux2 => {
                // .bench MUX argument order is (sel, in0, in1); ours is
                // [in0, in1, sel].
                ins.rotate_left(1);
                kind
            }
            _ => normalize_arity(kind, ins.len()).map_err(parse_err)?,
        };
        let lib = match g.lib {
            Some(lib_name) => Some(resolve(lib_name).ok_or_else(|| {
                parse_err(format!("unknown library cell {lib_name:?} in $lib pragma"))
            })?),
            None => None,
        };
        let suffix = cell_suffix(g.func);
        let cell_name = if suffix == suffix_of[g.target] {
            full[g.target]
        } else {
            nl.push_name(&[st.names[g.target], suffix])
        };
        let output = NetId::from_index(first_gate_net + i);
        nl.push_driver(kind, &ins, output, cell_name, lib);
    }
    nl.index_fanout();

    for &(line, output) in &st.outputs {
        let sym = st.symbols.get(output).ok_or_else(|| NetlistError::Parse {
            line,
            msg: format!("output {output:?} is never defined"),
        })?;
        nl.mark_output_spanned(net(*sym), span(*sym));
    }
    nl.validate()?;
    Ok(nl)
}

/// A signal name's index in [`Statements::names`].
type Sym = usize;

/// One `target = FUNC(args)` line, borrowed from the source text.
struct GateLine<'a> {
    line: usize,
    target: Sym,
    func: &'a str,
    /// Range into [`Statements::args`].
    args: Range<usize>,
    lib: Option<&'a str>,
}

/// The statements of a `.bench` text, in file order per kind, with every
/// signal name that an `INPUT` or a gate line mentions interned once.
struct Statements<'a> {
    inputs: Vec<(usize, Sym)>,
    outputs: Vec<(usize, &'a str)>,
    gates: Vec<GateLine<'a>>,
    /// Every gate's arguments, back to back.
    args: Vec<Sym>,
    /// Signal names by symbol, in order of first mention.
    names: Vec<&'a str>,
    symbols: HashMap<&'a str, Sym>,
}

impl<'a> Statements<'a> {
    /// Splits `src` into statements, failing on the first malformed line.
    fn lex(src: &'a str) -> Result<Self, NetlistError> {
        // Pre-size for the usual one statement per ~40 bytes, two arguments
        // per gate.
        let guess = src.len() / 40 + 8;
        let mut st = Statements {
            inputs: Vec::new(),
            outputs: Vec::new(),
            gates: Vec::with_capacity(guess),
            args: Vec::with_capacity(2 * guess),
            names: Vec::with_capacity(guess),
            symbols: HashMap::with_capacity(guess),
        };
        for (lineno, raw) in src.lines().enumerate() {
            let line = lineno + 1;
            let (code, comment) = match raw.find('#') {
                Some(ix) => (&raw[..ix], &raw[ix + 1..]),
                None => (raw, ""),
            };
            let text = code.trim();
            if text.is_empty() {
                continue;
            }
            if let Some(rest) = strip_call(text, "INPUT") {
                let sym = st.intern(rest);
                st.inputs.push((line, sym));
            } else if let Some(rest) = strip_call(text, "OUTPUT") {
                st.outputs.push((line, rest));
            } else if let Some(eq) = text.find('=') {
                let target = text[..eq].trim();
                let rhs = text[eq + 1..].trim();
                let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                    line,
                    msg: format!("expected FUNC(args) on rhs, got {rhs:?}"),
                })?;
                let close = rhs.rfind(')').ok_or_else(|| NetlistError::Parse {
                    line,
                    msg: "missing closing parenthesis".into(),
                })?;
                if close < open {
                    return Err(NetlistError::Parse {
                        line,
                        msg: format!("closing parenthesis before the opening one in {rhs:?}"),
                    });
                }
                if target.is_empty() {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "missing assignment target".into(),
                    });
                }
                let target = st.intern(target);
                let first = st.args.len();
                for arg in rhs[open + 1..close].split(',').map(str::trim) {
                    if !arg.is_empty() {
                        let sym = st.intern(arg);
                        st.args.push(sym);
                    }
                }
                // Binding pragma: `# $lib=NAME`.
                let lib = comment.trim().strip_prefix("$lib=").map(str::trim);
                st.gates.push(GateLine {
                    line,
                    target,
                    func: rhs[..open].trim(),
                    args: first..st.args.len(),
                    lib,
                });
            } else {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("unrecognized statement {text:?}"),
                });
            }
        }
        Ok(st)
    }

    fn intern(&mut self, name: &'a str) -> Sym {
        let next = self.names.len();
        let sym = *self.symbols.entry(name).or_insert(next);
        if sym == next {
            self.names.push(name);
        }
        sym
    }
}

/// The gate kind a `.bench` function name denotes, ignoring ASCII case.
fn gate_kind(func: &str) -> Option<GateKind> {
    const FUNCS: [(&str, GateKind); 15] = [
        ("AND", GateKind::And),
        ("OR", GateKind::Or),
        ("NAND", GateKind::Nand),
        ("NOR", GateKind::Nor),
        ("XOR", GateKind::Xor),
        ("XNOR", GateKind::Xnor),
        ("NOT", GateKind::Inv),
        ("INV", GateKind::Inv),
        ("BUF", GateKind::Buf),
        ("BUFF", GateKind::Buf),
        ("DFF", GateKind::Dff),
        ("MUX", GateKind::Mux2),
        ("MUX4", GateKind::Mux4),
        ("CONST0", GateKind::Const0),
        ("CONST1", GateKind::Const1),
    ];
    FUNCS
        .iter()
        .find(|(f, _)| f.eq_ignore_ascii_case(func))
        .map(|&(_, kind)| kind)
}

/// The suffix a gate's cell name adds to its target's name: `G5_ff` for
/// a flip-flop, `G10_g` for anything else.
fn cell_suffix(func: &str) -> &'static str {
    if func.eq_ignore_ascii_case("DFF") {
        "_ff"
    } else {
        "_g"
    }
}

/// Single-input AND/OR act as buffers in some benchmark dumps.
fn normalize_arity(kind: GateKind, n: usize) -> Result<GateKind, String> {
    if kind.accepts_arity(n) {
        return Ok(kind);
    }
    match (kind, n) {
        (GateKind::And | GateKind::Or, 1) => Ok(GateKind::Buf),
        (GateKind::Nand | GateKind::Nor, 1) => Ok(GateKind::Inv),
        _ => Err(format!("{kind} does not accept {n} inputs")),
    }
}

fn strip_call<'a>(text: &'a str, func: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(func)?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let rest = rest.strip_suffix(')')?;
    Some(rest.trim())
}

/// Serializes a netlist to `.bench` text.
///
/// Because the arena keeps gates in creation order (a topological order for
/// builder-constructed circuits), emitted files list gates before use except
/// across flip-flop boundaries, which the format allows.
pub fn emit(netlist: &Netlist) -> String {
    emit_with_bindings(netlist, &|_| None)
}

/// Serializes a netlist to `.bench` text, annotating cells that carry a
/// library binding with a `# $lib=NAME` pragma (resolved back by
/// [`parse_with_bindings`]). `name_of` maps a binding to its cell name;
/// returning `None` drops the annotation.
pub fn emit_with_bindings(
    netlist: &Netlist,
    name_of: &dyn Fn(LibCellId) -> Option<String>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", netlist.name());
    for &i in netlist.input_nets() {
        let _ = writeln!(out, "INPUT({})", netlist.net(i).name());
    }
    // A primary output whose port name differs from its net name gets a BUFF
    // alias line so the port name survives a round trip (`.bench` has no
    // separate port-naming construct). Names that would collide with an
    // existing signal fall back to the internal net name.
    let mut alias_lines: Vec<String> = Vec::new();
    let mut used_aliases: Vec<&str> = Vec::new();
    for (net, name) in netlist.output_ports() {
        let src = netlist.net(net).name();
        let collides = name.is_empty()
            || used_aliases.contains(&name)
            || netlist.net_by_name(name).is_some_and(|id| id != net);
        if name == src || collides {
            let _ = writeln!(out, "OUTPUT({src})");
        } else {
            alias_lines.push(format!("{name} = BUFF({src})"));
            used_aliases.push(name);
            let _ = writeln!(out, "OUTPUT({name})");
        }
    }
    for (_, cell) in netlist.cells() {
        let kind = cell.kind();
        if kind == GateKind::Input {
            continue;
        }
        let target = netlist.net(cell.output()).name();
        let func = match kind {
            GateKind::Inv => "NOT".to_string(),
            GateKind::Buf => "BUFF".to_string(),
            GateKind::Mux2 => "MUX".to_string(),
            other => other.to_string(),
        };
        let args: Vec<&str> = if kind == GateKind::Mux2 {
            vec![
                netlist.net(cell.inputs()[2]).name(),
                netlist.net(cell.inputs()[0]).name(),
                netlist.net(cell.inputs()[1]).name(),
            ]
        } else {
            cell.inputs()
                .iter()
                .map(|&n| netlist.net(n).name())
                .collect()
        };
        let pragma = cell
            .lib()
            .and_then(name_of)
            .map(|n| format!(" # $lib={n}"))
            .unwrap_or_default();
        let _ = writeln!(out, "{target} = {func}({}){pragma}", args.join(", "));
    }
    for line in &alias_lines {
        let _ = writeln!(out, "{line}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Logic, SeqState};

    const S27_LIKE: &str = "
# tiny sequential circuit
INPUT(G0)
INPUT(G1)
OUTPUT(G17)
G5 = DFF(G10)
G10 = NAND(G0, G5)
G17 = NOT(G11)
G11 = OR(G10, G1)
";

    #[test]
    fn parses_forward_references_and_dffs() {
        let nl = parse(S27_LIKE).unwrap();
        let st = nl.stats();
        assert_eq!(st.dffs, 1);
        assert_eq!(st.gates, 3);
        assert_eq!(st.inputs, 2);
        assert_eq!(st.outputs, 1);
    }

    #[test]
    fn parsed_circuit_simulates() {
        let nl = parse(S27_LIKE).unwrap();
        let mut st = SeqState::reset(&nl);
        // q=0: G10 = NAND(G0,0) = 1; G11 = OR(1, G1) = 1; G17 = 0.
        let out = st.step(&nl, &[Logic::One, Logic::Zero]);
        assert_eq!(out, vec![Logic::Zero]);
        assert_eq!(st.values(), &[Logic::One]);
        // q=1: G10 = NAND(1,1) = 0; G11 = OR(0,0) = 0; G17 = 1.
        let out = st.step(&nl, &[Logic::One, Logic::Zero]);
        assert_eq!(out, vec![Logic::One]);
    }

    #[test]
    fn round_trip_emit_parse() {
        let nl = parse(S27_LIKE).unwrap();
        let text = emit(&nl);
        let nl2 = parse(&text).unwrap();
        let s1 = nl.stats();
        let s2 = nl2.stats();
        assert_eq!(s1.gates, s2.gates);
        assert_eq!(s1.dffs, s2.dffs);
        // Behavioural equality over a few cycles.
        let mut a = SeqState::reset(&nl);
        let mut b = SeqState::reset(&nl2);
        for pat in [
            [Logic::Zero, Logic::Zero],
            [Logic::One, Logic::Zero],
            [Logic::One, Logic::One],
            [Logic::Zero, Logic::One],
        ] {
            assert_eq!(a.step(&nl, &pat), b.step(&nl2, &pat));
        }
    }

    #[test]
    fn mux_argument_order() {
        let src = "
INPUT(s)
INPUT(a)
INPUT(b)
OUTPUT(y)
y = MUX(s, a, b)
";
        let nl = parse(src).unwrap();
        use Logic::{One, Zero};
        assert_eq!(nl.eval_comb(&[Zero, One, Zero]), vec![One], "sel=0 -> a");
        assert_eq!(nl.eval_comb(&[One, One, Zero]), vec![Zero], "sel=1 -> b");
    }

    #[test]
    fn unknown_function_is_a_parse_error() {
        let err = parse("INPUT(a)\ny = FROB(a)\nOUTPUT(y)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn single_input_and_becomes_buffer() {
        let nl = parse("INPUT(a)\nOUTPUT(y)\ny = AND(a)\n").unwrap();
        assert_eq!(nl.eval_comb(&[Logic::One]), vec![Logic::One]);
    }

    #[test]
    fn lib_binding_pragma_round_trips() {
        use crate::LibCellId;
        let mut nl = Netlist::new("b");
        let a = nl.add_input("a");
        let y = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let cell = nl.net(y).driver().unwrap();
        nl.bind_lib(cell, LibCellId(7)).unwrap();
        nl.mark_output(y, "y");
        let text = emit_with_bindings(&nl, &|id| (id == LibCellId(7)).then(|| "DLY4X1".into()));
        assert!(text.contains("# $lib=DLY4X1"), "{text}");
        let re = parse_with_bindings(&text, "b", &|name| {
            (name == "DLY4X1").then_some(LibCellId(7))
        })
        .unwrap();
        let rb = re
            .cells()
            .find(|(_, c)| c.kind() == GateKind::Buf)
            .map(|(_, c)| c.lib())
            .unwrap();
        assert_eq!(rb, Some(LibCellId(7)));
        // Unknown pragma names are loud errors.
        let err = parse_with_bindings(&text, "b", &|_| None).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
        // The binding-less parser ignores nothing: it resolves nothing and
        // errors too (pragmas demand a resolver).
        assert!(parse(&text).is_err());
    }

    #[test]
    fn mux4_round_trips() {
        let mut nl = Netlist::new("m");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_gate(GateKind::Mux4, &ins).unwrap();
        nl.mark_output(y, "y");
        let text = emit(&nl);
        assert!(text.contains("MUX4("));
        let re = parse(&text).unwrap();
        use Logic::{One, Zero};
        for sel in 0..4u8 {
            let mut iv = vec![Zero; 6];
            iv[sel as usize] = One;
            iv[4] = Logic::from_bool(sel & 1 == 1);
            iv[5] = Logic::from_bool(sel & 2 == 2);
            assert_eq!(nl.eval_comb(&iv), re.eval_comb(&iv), "sel {sel}");
        }
    }

    #[test]
    fn undefined_output_is_an_error() {
        let err = parse("INPUT(a)\nOUTPUT(zz)\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn parse_errors_carry_their_line() {
        // Lines 1-3 are a valid prelude; each case's text starts on line 4.
        const PRELUDE: &str = "# prelude\nINPUT(a)\nINPUT(b)\n";
        let cases: [(&str, &str, usize, &str); 13] = [
            (
                "missing (",
                "y = AND a, b)\nOUTPUT(y)\n",
                4,
                "expected FUNC(args)",
            ),
            ("missing )", "\ny = AND(a, b\n", 5, "missing closing"),
            (
                ") before (",
                "y = AND)a, b(\n",
                4,
                "closing parenthesis before",
            ),
            (
                "missing target",
                "OUTPUT(a)\n = AND(a, b)\n",
                5,
                "missing assignment",
            ),
            (
                "unrecognized",
                "y = AND(a, b)\nFROB a\n",
                5,
                "unrecognized statement",
            ),
            ("DFF arity", "q = DFF(a, b)\n", 4, "DFF takes 1 input"),
            (
                "MUX arity",
                "y = BUFF(a)\nm = MUX(a, b)\n",
                5,
                "MUX takes 3 inputs",
            ),
            (
                "gate arity",
                "y = NOT(a, b)\n",
                4,
                "does not accept 2 inputs",
            ),
            (
                "unknown function",
                "y = BUFF(a)\n\nz = FROB(y)\n",
                6,
                "unknown gate function",
            ),
            (
                "unknown $lib",
                "y = BUFF(a) # $lib=NOPE\n",
                4,
                "unknown library cell",
            ),
            (
                "undefined OUTPUT",
                "y = AND(a, b)\nOUTPUT(y)\nOUTPUT(zz)\n",
                6,
                "never defined",
            ),
            // Statement errors outrank gate errors on earlier lines, and
            // gate errors outrank output errors on earlier lines.
            (
                "statement first",
                "y = FROB(a)\nFROB a\n",
                5,
                "unrecognized statement",
            ),
            (
                "gate first",
                "OUTPUT(zz)\ny = FROB(a)\n",
                5,
                "unknown gate function",
            ),
        ];
        for (what, body, want_line, want_msg) in cases {
            let src = format!("{PRELUDE}{body}");
            match parse(&src) {
                Err(NetlistError::Parse { line, msg }) => {
                    assert_eq!(line, want_line, "{what}: {msg}");
                    assert!(msg.contains(want_msg), "{what}: {msg:?}");
                }
                other => panic!("{what}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// The two-pass parser this module used before the borrowed-slice
    /// rewrite: placeholder nets for every target, gates with generated
    /// names rewired onto each placeholder's readers, then a rename pass.
    /// Kept as the referee for `parser_matches_reference_parser`.
    fn reference_parse(
        src: &str,
        name: &str,
        resolve: &dyn Fn(&str) -> Option<LibCellId>,
    ) -> Result<Netlist, NetlistError> {
        let mut nl = Netlist::new(name);
        // First pass: declare all signals so gates can reference forward.
        struct GateLine {
            line: usize,
            target: String,
            func: String,
            args: Vec<String>,
            lib: Option<String>,
        }
        let mut inputs: Vec<(usize, String)> = Vec::new();
        let mut outputs: Vec<(usize, String)> = Vec::new();
        let mut gates: Vec<GateLine> = Vec::new();

        for (lineno, raw) in src.lines().enumerate() {
            let line = lineno + 1;
            let (code, comment) = match raw.find('#') {
                Some(ix) => (&raw[..ix], &raw[ix + 1..]),
                None => (raw, ""),
            };
            // Binding pragma: `# $lib=NAME`.
            let lib = comment
                .trim()
                .strip_prefix("$lib=")
                .map(|n| n.trim().to_string());
            let text = code.trim();
            if text.is_empty() {
                continue;
            }
            if let Some(rest) = strip_call(text, "INPUT") {
                inputs.push((line, rest.to_string()));
            } else if let Some(rest) = strip_call(text, "OUTPUT") {
                outputs.push((line, rest.to_string()));
            } else if let Some(eq) = text.find('=') {
                let target = text[..eq].trim().to_string();
                let rhs = text[eq + 1..].trim();
                let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                    line,
                    msg: format!("expected FUNC(args) on rhs, got {rhs:?}"),
                })?;
                let close = rhs.rfind(')').ok_or_else(|| NetlistError::Parse {
                    line,
                    msg: "missing closing parenthesis".into(),
                })?;
                if close < open {
                    return Err(NetlistError::Parse {
                        line,
                        msg: format!("closing parenthesis before the opening one in {rhs:?}"),
                    });
                }
                let func = rhs[..open].trim().to_ascii_uppercase();
                let args: Vec<String> = rhs[open + 1..close]
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
                if target.is_empty() {
                    return Err(NetlistError::Parse {
                        line,
                        msg: "missing assignment target".into(),
                    });
                }
                gates.push(GateLine {
                    line,
                    target,
                    func,
                    args,
                    lib,
                });
            } else {
                return Err(NetlistError::Parse {
                    line,
                    msg: format!("unrecognized statement {text:?}"),
                });
            }
        }

        let mut nets: HashMap<String, NetId> = HashMap::new();
        for (_, name) in &inputs {
            let id = nl.add_input(name.clone());
            nets.insert(name.clone(), id);
        }
        // Declare a placeholder net for every gate target not yet present.
        for g in &gates {
            nets.entry(g.target.clone())
                .or_insert_with(|| nl.add_net(g.target.clone()));
        }
        // Any referenced-but-undefined signal becomes an error at validate time;
        // create its net now so parsing can proceed deterministically.
        for g in &gates {
            for a in &g.args {
                if !nets.contains_key(a) {
                    let id = nl.add_net(a.clone());
                    nets.insert(a.clone(), id);
                }
            }
        }

        for g in &gates {
            let target_net = nets[&g.target];
            let arg_nets: Vec<_> = g.args.iter().map(|a| nets[a]).collect();
            let parse_err = |msg: String| NetlistError::Parse { line: g.line, msg };
            let kind = match g.func.as_str() {
                "AND" => GateKind::And,
                "OR" => GateKind::Or,
                "NAND" => GateKind::Nand,
                "NOR" => GateKind::Nor,
                "XOR" => GateKind::Xor,
                "XNOR" => GateKind::Xnor,
                "NOT" | "INV" => GateKind::Inv,
                "BUF" | "BUFF" => GateKind::Buf,
                "DFF" => GateKind::Dff,
                "MUX" => GateKind::Mux2,
                "MUX4" => GateKind::Mux4,
                "CONST0" => GateKind::Const0,
                "CONST1" => GateKind::Const1,
                other => return Err(parse_err(format!("unknown gate function {other:?}"))),
            };
            let produced = if kind == GateKind::Dff {
                if arg_nets.len() != 1 {
                    return Err(parse_err(format!(
                        "DFF takes 1 input, got {}",
                        arg_nets.len()
                    )));
                }
                nl.add_dff_named(arg_nets[0], format!("{}_ff", g.target))
                    .map_err(|e| parse_err(e.to_string()))?
            } else if kind == GateKind::Mux2 {
                // .bench MUX argument order is (sel, in0, in1); ours is
                // [in0, in1, sel].
                if arg_nets.len() != 3 {
                    return Err(parse_err(format!(
                        "MUX takes 3 inputs, got {}",
                        arg_nets.len()
                    )));
                }
                nl.add_gate_named(
                    kind,
                    &[arg_nets[1], arg_nets[2], arg_nets[0]],
                    format!("{}_g", g.target),
                )
                .map_err(|e| parse_err(e.to_string()))?
            } else {
                let kind = normalize_arity(kind, arg_nets.len()).map_err(parse_err)?;
                nl.add_gate_named(kind, &arg_nets, format!("{}_g", g.target))
                    .map_err(|e| parse_err(e.to_string()))?
            };
            // Alias: the produced fresh net replaces the placeholder target net.
            // Rewire every reader of the placeholder onto the produced net.
            let readers: Vec<(crate::CellId, usize)> = nl.net(target_net).fanout().to_vec();
            for (cell, pin) in readers {
                nl.rewire_input(cell, pin, produced)
                    .map_err(|e| NetlistError::Parse {
                        line: g.line,
                        msg: e.to_string(),
                    })?;
            }
            if let Some(lib_name) = &g.lib {
                let id = resolve(lib_name).ok_or_else(|| NetlistError::Parse {
                    line: g.line,
                    msg: format!("unknown library cell {lib_name:?} in $lib pragma"),
                })?;
                let cell = nl.net(produced).driver().expect("gate drives its net");
                nl.bind_lib(cell, id).map_err(|e| NetlistError::Parse {
                    line: g.line,
                    msg: e.to_string(),
                })?;
            }
            nets.insert(g.target.clone(), produced);
        }

        // Restore declared signal names: the placeholder-and-rewire scheme above
        // leaves each produced net with a `<target>_g_<n>`-style fresh name, which
        // would otherwise grow on every emit → parse round trip.
        for g in &gates {
            nl.rename_net(nets[&g.target], g.target.clone());
        }

        for (line, name) in &outputs {
            let net = nets.get(name).ok_or_else(|| NetlistError::Parse {
                line: *line,
                msg: format!("output {name:?} is never defined"),
            })?;
            nl.mark_output(*net, name);
        }
        nl.validate()?;
        Ok(nl)
    }

    /// Every observable part of a netlist, for exact comparison.
    fn structure(nl: &Netlist) -> String {
        let mut out = format!("{}\n", nl.name());
        for (id, net) in nl.nets() {
            let _ = writeln!(
                out,
                "{id:?} {} {:?} {:?}",
                net.name(),
                net.driver(),
                net.fanout()
            );
        }
        for (id, c) in nl.cells() {
            let _ = writeln!(
                out,
                "{id:?} {:?} {} {:?} {:?} {:?}",
                c.kind(),
                c.name(),
                c.inputs(),
                c.output(),
                c.lib()
            );
        }
        let _ = writeln!(
            out,
            "{:?} {:?} {:?}",
            nl.input_nets(),
            nl.output_ports().collect::<Vec<_>>(),
            nl.dff_cells()
        );
        out
    }

    #[test]
    fn parser_matches_reference_parser() {
        // Forward references, a DFF loop, MUX reordering, a target that
        // shadows an input, a target defined twice (once as a DFF), a net
        // read on two pins, a constant, case-folded functions, pragmas and
        // CRLF line ends.
        let awkward = "# awkward\r
INPUT(a)
INPUT(b)
INPUT(s)
OUTPUT(y)
OUTPUT(q)
OUTPUT(b)
y = and(m, q)
m = MUX(s, a, n)
n = NOT(q)
q = DFF(y)
b = BUFF(a) # $lib=DLY
d = XOR(a, a)
d = DFF(d)
d = or(d, b, c1)
c1 = CONST1()
z = AND(a)
";
        let resolve = |name: &str| (name == "DLY").then_some(LibCellId(3));
        let mut cases = vec![awkward.to_string(), S27_LIKE.to_string()];
        let mut rng: u64 = 0x5eed;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        // Random files over a small name space: names get read before,
        // after and without a definition, and get defined more than once.
        for _ in 0..2000 {
            let inputs: Vec<u64> = (0..1 + next(3)).map(|_| next(4)).collect();
            let targets: Vec<u64> = (0..next(12)).map(|_| 2 + next(8)).collect();
            // Mostly declared names; one read in twenty is of a name that
            // may never be defined.
            let signal = |next: &mut dyn FnMut(u64) -> u64| match next(20) {
                0 => next(10),
                k if k % 2 == 0 || targets.is_empty() => inputs[next(inputs.len() as u64) as usize],
                _ => targets[next(targets.len() as u64) as usize],
            };
            let mut text = String::new();
            for &i in &inputs {
                let _ = writeln!(text, "INPUT(n{i})");
            }
            for &t in &targets {
                let func = ["AND", "OR", "XOR", "NOT", "DFF", "DFF", "BUFF"][next(7) as usize];
                let arity = if matches!(func, "AND" | "OR" | "XOR") {
                    1 + next(3)
                } else {
                    1
                };
                let args: Vec<String> = (0..arity)
                    .map(|_| format!("n{}", signal(&mut next)))
                    .collect();
                let _ = writeln!(text, "n{t} = {func}({})", args.join(", "));
            }
            for _ in 0..next(3) {
                let _ = writeln!(text, "OUTPUT(n{})", signal(&mut next));
            }
            cases.push(text);
        }
        let mut parsed = 0;
        for text in &cases {
            let got = parse_with_bindings(text, "t", &resolve);
            let want = reference_parse(text, "t", &resolve);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    assert_eq!(structure(g), structure(w), "{text}");
                    for (_, net) in w.nets() {
                        assert_eq!(
                            g.net_by_name(net.name()),
                            w.net_by_name(net.name()),
                            "{text}"
                        );
                    }
                    parsed += 1;
                }
                (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{text}"),
                _ => panic!("{text}\nparser: {got:?}\nreference: {want:?}"),
            }
        }
        assert!(parsed > 400, "only {parsed} random files parsed");
    }
}
