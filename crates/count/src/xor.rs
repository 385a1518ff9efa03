//! Random XOR parity constraints over a projection, CNF-encoded.
//!
//! A hash round partitions the projected solution space with rows of the
//! random family `H_xor`: each row picks every projection position
//! independently with probability ½ and demands a random parity of the
//! picked bits. Rows are drawn over projection *positions* — indices into
//! the caller's variable list, never solver [`Var`] ids — so identical
//! seeds give identical rows no matter how the CNF underneath was
//! built.
//!
//! Encoding: the XOR chain is lowered through fresh auxiliary variables
//! (`tᵢ ↔ tᵢ₋₁ ⊕ xᵢ`, four clauses each). The chain definitions are
//! unguarded — they only define the aux variables and are inert while the
//! row is inactive — and the final parity demand is a single clause
//! guarded by a selector literal, so a row costs one assumption to switch
//! on and nothing to switch off.

use glitchlock_sat::{CnfSink, Lit, Var};
use rand::rngs::StdRng;
use rand::Rng;

/// One parity row: `⊕ {bit p : p ∈ positions} = parity`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityRow {
    /// Indices into the projection's variable list.
    pub positions: Vec<usize>,
    /// Required parity of the selected bits.
    pub parity: bool,
}

/// Draws `count` independent rows over a projection of width `n`: each
/// position joins a row with probability ½, parities are fair coins.
/// Degenerate rows (empty, single-position) are legal and kept — the
/// encoder handles them — so the family stays exactly `H_xor`.
pub fn draw_rows(n: usize, count: usize, rng: &mut StdRng) -> Vec<ParityRow> {
    (0..count)
        .map(|_| ParityRow {
            positions: (0..n).filter(|_| rng.gen::<bool>()).collect(),
            parity: rng.gen::<bool>(),
        })
        .collect()
}

/// Encodes `row` over `vars` into `sink`. With `sel = Some(s)` the parity
/// demand is guarded by `¬s` (assume `s` to activate the row); with
/// `None` it is a hard unit constraint.
///
/// Degenerate shapes: an empty row with parity 1 emits the bare guard
/// clause (assuming the selector is then contradictory — the row demands
/// odd parity of nothing); an empty row with parity 0 emits nothing; a
/// single-position row needs no auxiliary chain.
///
/// # Panics
///
/// Panics if a row position indexes past `vars`.
pub fn encode_row_into<S: CnfSink>(sink: &mut S, vars: &[Var], row: &ParityRow, sel: Option<Var>) {
    let mut lits = row.positions.iter().map(|&p| Lit::pos(vars[p]));
    let guard = sel.map(Lit::neg);
    let Some(first) = lits.next() else {
        if row.parity {
            match guard {
                Some(g) => sink.clause(&[g]),
                None => sink.clause(&[]),
            }
        }
        return;
    };
    let mut acc = first;
    for lit in lits {
        let y = sink.fresh_var();
        // y <-> acc xor lit.
        sink.clause(&[Lit::neg(y), acc, lit]);
        sink.clause(&[Lit::neg(y), !acc, !lit]);
        sink.clause(&[Lit::pos(y), !acc, lit]);
        sink.clause(&[Lit::pos(y), acc, !lit]);
        acc = Lit::pos(y);
    }
    // Demand acc = parity.
    let demand = if row.parity { acc } else { !acc };
    match guard {
        Some(g) => sink.clause(&[g, demand]),
        None => sink.clause(&[demand]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_sat::{dimacs, Cnf, SatResult, Solver};
    use rand::SeedableRng;

    fn base_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| solver.new_var()).collect()
    }

    /// Assumptions pinning `vars` to the bits of `assignment`.
    fn pin(vars: &[Var], assignment: u32) -> Vec<Lit> {
        vars.iter()
            .enumerate()
            .map(|(i, &v)| Lit::with_sign(v, assignment >> i & 1 == 0))
            .collect()
    }

    fn parity_of(row: &ParityRow, assignment: u32) -> bool {
        row.positions
            .iter()
            .fold(false, |acc, &p| acc ^ (assignment >> p & 1 == 1))
    }

    #[test]
    fn hard_rows_accept_exactly_the_matching_parities() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let rows = draw_rows(4, 2, &mut rng);
            let mut solver = Solver::new();
            let vars = base_vars(&mut solver, 4);
            for row in &rows {
                encode_row_into(&mut solver, &vars, row, None);
            }
            for assignment in 0u32..16 {
                let want = rows.iter().all(|r| parity_of(r, assignment) == r.parity);
                let got = solver.solve_with(&pin(&vars, assignment)) == SatResult::Sat;
                assert_eq!(got, want, "rows {rows:?} assignment {assignment:04b}");
            }
        }
    }

    #[test]
    fn guarded_rows_are_inert_until_assumed() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let rows = draw_rows(4, 3, &mut rng);
            let mut solver = Solver::new();
            let vars = base_vars(&mut solver, 4);
            let sels: Vec<Var> = rows
                .iter()
                .map(|row| {
                    let s = solver.new_var();
                    encode_row_into(&mut solver, &vars, row, Some(s));
                    s
                })
                .collect();
            for assignment in 0u32..16 {
                // No selectors assumed: every assignment extends.
                assert_eq!(solver.solve_with(&pin(&vars, assignment)), SatResult::Sat);
                // Activating a prefix enforces exactly those rows.
                for m in 1..=rows.len() {
                    let mut assum = pin(&vars, assignment);
                    assum.extend(sels[..m].iter().map(|&s| Lit::pos(s)));
                    let want = rows[..m]
                        .iter()
                        .all(|r| parity_of(r, assignment) == r.parity);
                    let got = solver.solve_with(&assum) == SatResult::Sat;
                    assert_eq!(got, want, "m={m} assignment {assignment:04b}");
                }
            }
        }
    }

    #[test]
    fn degenerate_rows_encode_correctly() {
        // Empty row, parity 0: no constraint at all.
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..2).map(|_| cnf.new_var()).collect();
        encode_row_into(
            &mut cnf,
            &vars,
            &ParityRow {
                positions: vec![],
                parity: false,
            },
            None,
        );
        assert_eq!(cnf.num_clauses(), 0);

        // Empty row, parity 1: hard-unsat; guarded form is unsat only
        // under the selector.
        let mut solver = Solver::new();
        let vars = base_vars(&mut solver, 2);
        let s = solver.new_var();
        encode_row_into(
            &mut solver,
            &vars,
            &ParityRow {
                positions: vec![],
                parity: true,
            },
            Some(s),
        );
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.solve_with(&[Lit::pos(s)]), SatResult::Unsat);

        // Single-position row forces that variable, no aux chain.
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..2).map(|_| cnf.new_var()).collect();
        encode_row_into(
            &mut cnf,
            &vars,
            &ParityRow {
                positions: vec![1],
                parity: true,
            },
            None,
        );
        assert_eq!(cnf.num_vars(), 2, "no auxiliaries for one literal");
        assert_eq!(cnf.clauses(), &[vec![Lit::pos(vars[1])]]);
    }

    #[test]
    fn parity_cnf_round_trips_through_the_dimacs_parser() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..6).map(|_| cnf.new_var()).collect();
        for row in draw_rows(6, 4, &mut rng) {
            encode_row_into(&mut cnf, &vars, &row, None);
        }
        let text = dimacs::emit(&cnf);
        let parsed = dimacs::parse(&text).expect("round trip");
        assert_eq!(parsed.num_vars(), cnf.num_vars());
        assert_eq!(parsed.clauses(), cnf.clauses());
    }

    #[test]
    fn draws_are_deterministic_in_the_seed() {
        let a = draw_rows(8, 5, &mut StdRng::seed_from_u64(42));
        let b = draw_rows(8, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }
}
