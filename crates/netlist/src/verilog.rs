//! Structural Verilog subset writer/parser.
//!
//! The dialect is the gate-level structural subset that EDA netlisting flows
//! exchange: a single module, `input`/`output`/`wire` declarations, Verilog
//! gate primitives in positional form (`nand g1 (y, a, b);` — output first),
//! plus `dff name (q, d);` instances and `mux2`/`mux4` helper primitives.
//!
//! ```text
//! module toy (a, b, y);
//!   input a, b;
//!   output y;
//!   wire w0;
//!   nand g0 (w0, a, b);
//!   not g1 (y, w0);
//! endmodule
//! ```

use crate::{GateKind, NetId, Netlist, NetlistError};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Serializes a netlist as structural Verilog.
pub fn emit(netlist: &Netlist) -> String {
    let mut out = String::new();
    let mut ports: Vec<String> = netlist
        .input_nets()
        .iter()
        .map(|&n| netlist.net(n).name().to_string())
        .collect();
    let mut po_decls = Vec::new();
    for (i, (net, name)) in netlist.output_ports().enumerate() {
        // Primary outputs get dedicated port wires driven by buf if the
        // internal net name differs from the port name. A port name that
        // already names a *different* net would make the alias buf a second
        // driver, so such ports fall back to the internal net name.
        let src = netlist.net(net).name();
        let collides = netlist.net_by_name(name).is_some_and(|id| id != net)
            || po_decls.iter().any(|(p, _)| p == name);
        let port = if name.is_empty() {
            format!("po{i}")
        } else if collides {
            src.to_string()
        } else {
            name.to_string()
        };
        ports.push(port.clone());
        po_decls.push((port, net));
    }
    let _ = writeln!(
        out,
        "module {} ({});",
        sanitize(netlist.name()),
        ports.join(", ")
    );
    let input_names: Vec<String> = netlist
        .input_nets()
        .iter()
        .map(|&n| netlist.net(n).name().to_string())
        .collect();
    if !input_names.is_empty() {
        let _ = writeln!(out, "  input {};", input_names.join(", "));
    }
    if !po_decls.is_empty() {
        let names: Vec<&str> = po_decls.iter().map(|(p, _)| p.as_str()).collect();
        let _ = writeln!(out, "  output {};", names.join(", "));
    }
    let mut wires = Vec::new();
    for (_, cell) in netlist.cells() {
        if cell.kind() == GateKind::Input {
            continue;
        }
        wires.push(netlist.net(cell.output()).name().to_string());
    }
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    for (id, cell) in netlist.cells() {
        let kind = cell.kind();
        if kind == GateKind::Input {
            continue;
        }
        let y = netlist.net(cell.output()).name();
        let args: Vec<&str> = cell
            .inputs()
            .iter()
            .map(|&n| netlist.net(n).name())
            .collect();
        let inst = format!("u{}", id.index());
        match kind {
            GateKind::Const0 => {
                let _ = writeln!(out, "  const0 {inst} ({y});");
            }
            GateKind::Const1 => {
                let _ = writeln!(out, "  const1 {inst} ({y});");
            }
            GateKind::Dff => {
                let _ = writeln!(out, "  dff {inst} ({y}, {});", args[0]);
            }
            _ => {
                let prim = match kind {
                    GateKind::And => "and",
                    GateKind::Nand => "nand",
                    GateKind::Or => "or",
                    GateKind::Nor => "nor",
                    GateKind::Xor => "xor",
                    GateKind::Xnor => "xnor",
                    GateKind::Inv => "not",
                    GateKind::Buf => "buf",
                    GateKind::Mux2 => "mux2",
                    GateKind::Mux4 => "mux4",
                    _ => unreachable!("handled above"),
                };
                let _ = writeln!(out, "  {prim} {inst} ({y}, {});", args.join(", "));
            }
        }
    }
    for (port, net) in &po_decls {
        let src = netlist.net(*net).name();
        if port != src {
            let _ = writeln!(out, "  buf po_{port} ({port}, {src});");
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'm');
    }
    s
}

/// Parses the structural Verilog subset emitted by [`emit`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on malformed input.
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    // Strip comments.
    let mut text = String::new();
    for line in src.lines() {
        let line = line.split("//").next().unwrap_or("");
        text.push_str(line);
        text.push('\n');
    }
    let mut name = "top".to_string();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    struct Inst {
        line: usize,
        prim: String,
        args: Vec<String>,
    }
    let mut insts: Vec<Inst> = Vec::new();

    // Statement-split on ';' while tracking line numbers.
    let mut lineno = 1usize;
    for stmt in text.split(';') {
        let start_line = lineno;
        lineno += stmt.matches('\n').count();
        let stmt = stmt.trim();
        if stmt.is_empty() || stmt == "endmodule" {
            continue;
        }
        let stmt = stmt.trim_end_matches("endmodule").trim();
        if stmt.is_empty() {
            continue;
        }
        let mut words = stmt.split_whitespace();
        let head = words.next().unwrap_or("");
        match head {
            "module" => {
                let rest = stmt["module".len()..].trim();
                let open = rest.find('(').unwrap_or(rest.len());
                name = rest[..open].trim().to_string();
            }
            "input" => {
                inputs.extend(split_names(&stmt["input".len()..]));
            }
            "output" => {
                outputs.extend(split_names(&stmt["output".len()..]));
            }
            "wire" => { /* declarations are implicit in our IR */ }
            prim => {
                let rest = stmt[prim.len()..].trim();
                let open = rest.find('(').ok_or_else(|| NetlistError::Parse {
                    line: start_line,
                    msg: format!("expected instance ports after {prim:?}"),
                })?;
                let close = rest.rfind(')').ok_or_else(|| NetlistError::Parse {
                    line: start_line,
                    msg: "missing closing parenthesis".into(),
                })?;
                if close < open {
                    return Err(NetlistError::Parse {
                        line: start_line,
                        msg: format!("closing parenthesis before the opening one in {rest:?}"),
                    });
                }
                let args = split_names(&rest[open + 1..close]);
                insts.push(Inst {
                    line: start_line,
                    prim: prim.to_ascii_lowercase(),
                    args,
                });
            }
        }
    }

    let mut nl = Netlist::new(name);
    let mut nets: HashMap<String, NetId> = HashMap::new();
    for i in &inputs {
        nets.insert(i.clone(), nl.add_input(i.clone()));
    }
    let ensure = |nl: &mut Netlist, nets: &mut HashMap<String, NetId>, n: &str| -> NetId {
        if let Some(&id) = nets.get(n) {
            return id;
        }
        let id = nl.add_net(n);
        nets.insert(n.to_string(), id);
        id
    };
    for inst in &insts {
        if inst.args.is_empty() {
            return Err(NetlistError::Parse {
                line: inst.line,
                msg: "instance with no ports".into(),
            });
        }
        let target = &inst.args[0];
        let target_net = ensure(&mut nl, &mut nets, target);
        let arg_nets: Vec<NetId> = inst.args[1..]
            .iter()
            .map(|a| ensure(&mut nl, &mut nets, a))
            .collect();
        let perr = |msg: String| NetlistError::Parse {
            line: inst.line,
            msg,
        };
        let produced = match inst.prim.as_str() {
            "and" => nl.add_gate(GateKind::And, &arg_nets),
            "nand" => nl.add_gate(GateKind::Nand, &arg_nets),
            "or" => nl.add_gate(GateKind::Or, &arg_nets),
            "nor" => nl.add_gate(GateKind::Nor, &arg_nets),
            "xor" => nl.add_gate(GateKind::Xor, &arg_nets),
            "xnor" => nl.add_gate(GateKind::Xnor, &arg_nets),
            "not" => nl.add_gate(GateKind::Inv, &arg_nets),
            "buf" => nl.add_gate(GateKind::Buf, &arg_nets),
            "mux2" => nl.add_gate(GateKind::Mux2, &arg_nets),
            "mux4" => nl.add_gate(GateKind::Mux4, &arg_nets),
            "const0" => nl.add_gate(GateKind::Const0, &arg_nets),
            "const1" => nl.add_gate(GateKind::Const1, &arg_nets),
            "dff" => {
                if arg_nets.len() != 1 {
                    return Err(perr(format!(
                        "dff takes (q, d), got {} ports",
                        inst.args.len()
                    )));
                }
                nl.add_dff(arg_nets[0])
            }
            other => return Err(perr(format!("unknown primitive {other:?}"))),
        }
        .map_err(|e| perr(e.to_string()))?;
        // Alias placeholder target to the produced net.
        let readers: Vec<(crate::CellId, usize)> = nl.net(target_net).fanout().to_vec();
        for (cell, pin) in readers {
            nl.rewire_input(cell, pin, produced)
                .map_err(|e| perr(e.to_string()))?;
        }
        nets.insert(target.clone(), produced);
    }
    // Restore declared signal names (see `bench_format::parse`): keeps
    // emit → parse → emit name-stable and PO aliases convergent.
    for inst in &insts {
        if let Some(target) = inst.args.first() {
            nl.rename_net(nets[target], target.clone());
        }
    }
    for o in &outputs {
        let net = nets.get(o).copied().ok_or_else(|| NetlistError::Parse {
            line: 0,
            msg: format!("output {o:?} is never driven"),
        })?;
        nl.mark_output(net, o.clone());
    }
    nl.validate()?;
    Ok(nl)
}

fn split_names(s: &str) -> Vec<String> {
    s.split(',')
        .map(|x| x.trim().trim_end_matches(';').trim().to_string())
        .filter(|x| !x.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Logic, SeqState};

    fn toy() -> Netlist {
        let mut nl = Netlist::new("toy");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let q = nl.add_dff(w).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[q, a]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn emit_then_parse_preserves_behaviour() {
        let nl = toy();
        let text = emit(&nl);
        let nl2 = parse(&text).unwrap();
        assert_eq!(nl.stats().dffs, nl2.stats().dffs);
        let mut s1 = SeqState::reset(&nl);
        let mut s2 = SeqState::reset(&nl2);
        for pat in [
            [Logic::Zero, Logic::One],
            [Logic::One, Logic::One],
            [Logic::One, Logic::Zero],
            [Logic::Zero, Logic::Zero],
        ] {
            assert_eq!(s1.step(&nl, &pat), s2.step(&nl2, &pat));
        }
    }

    #[test]
    fn emitted_text_mentions_primitives() {
        let text = emit(&toy());
        assert!(text.contains("module toy"));
        assert!(text.contains("nand "));
        assert!(text.contains("dff "));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn parse_rejects_unknown_primitive() {
        let err = parse("module m (a);\ninput a;\nfrob u0 (a, a);\nendmodule\n").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn module_name_sanitized() {
        assert_eq!(sanitize("9abc-def"), "m9abc_def");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn truncated_statement_before_endmodule_is_an_error() {
        // A malformed fragment ending in `endmodule` must not be silently
        // dropped.
        let err = parse("module m (a);\ninput a;\nx endmodule").unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn parse_handles_multiline_statements() {
        let src =
            "module m (a,\n b, y);\n input a, b;\n output y;\n and u0 (y,\n   a, b);\nendmodule";
        let nl = parse(src).unwrap();
        assert_eq!(nl.eval_comb(&[Logic::One, Logic::One]), vec![Logic::One]);
    }
}
