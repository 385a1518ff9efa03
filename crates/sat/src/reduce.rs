//! Learnt-clause database reduction.
//!
//! The solver periodically deletes a slice of the learnt clauses to keep
//! propagation fast. Victims are ranked by LBD (worst first) with a
//! tie-break on activity; glue clauses (LBD ≤ 2), clauses currently
//! acting as a propagation reason, and clauses protected since their LBD
//! improved in a recent conflict are never touched. Binary clauses are
//! exempt too: they are cheap to keep and expensive to relearn.
//!
//! A deleted clause's watchers are dropped at once, keeping every watch
//! list's order; its words are reclaimed when deleted words pass half of
//! the arena, by a compaction that relocates the survivors in order and
//! rewrites the watchers and reasons that point at them.

use crate::clause::ClauseRef;
use crate::solver::{Solver, UNDEF};

impl Solver {
    /// Is this clause the reason of a currently-assigned literal? Deleting
    /// it would strand conflict analysis, so reduction must skip it. Uses
    /// the invariant that a long reason clause keeps its implied literal
    /// in slot 0.
    pub(crate) fn clause_is_reason(&self, cref: ClauseRef) -> bool {
        let l = self.arena.lit(cref, 0);
        self.lit_value(l) != UNDEF && self.reason[l.var().index()] == Some(cref)
    }

    /// Drops the worst half of the reducible learnt
    /// clauses, ranked by LBD (high first) then activity (low first).
    /// Glue, reason, and protected clauses always survive; protection
    /// lasts exactly one round. Safe at any decision level: reason
    /// clauses are exempt, and compaction relocates them.
    pub(crate) fn reduce_db(&mut self) {
        let arena = &self.arena;
        let mut victims: Vec<ClauseRef> = arena
            .refs()
            .filter(|&c| {
                arena.is_learnt(c)
                    && !arena.is_deleted(c)
                    && arena.len(c) > 2
                    && !arena.is_glue(c)
                    && !arena.is_protected(c)
                    && !self.clause_is_reason(c)
            })
            .collect();
        victims.sort_by(|&a, &b| {
            arena.lbd(b).cmp(&arena.lbd(a)).then(
                arena
                    .activity(a)
                    .partial_cmp(&arena.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        victims.truncate(victims.len() / 2);
        for &cref in &victims {
            debug_assert!(self.arena.is_learnt(cref));
            self.arena.delete(cref);
            self.num_learnt -= 1;
            self.live_clauses -= 1;
        }
        // Protection is a one-round reprieve.
        self.arena.unprotect_all();
        if !victims.is_empty() {
            let arena = &self.arena;
            for ws in &mut self.watches {
                ws.retain(|w| w.is_binary() || !arena.is_deleted(w.cref()));
            }
        }
        if self.arena.needs_compaction() {
            let forwarding = self.arena.compact();
            for ws in &mut self.watches {
                for w in ws.iter_mut() {
                    *w = w.relocated(&forwarding);
                }
            }
            for r in self.reason.iter_mut().flatten() {
                *r = forwarding.forward(*r);
            }
        }
        self.stats.reductions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    /// Builds a solver with `n` free variables and returns them.
    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    /// Attaches a synthetic learnt clause with a given LBD.
    fn learnt(s: &mut Solver, lits: &[Lit], lbd: u32) -> ClauseRef {
        let cref = s.attach_clause(lits, true, lbd);
        s.arena.set_activity(cref, 1.0);
        cref
    }

    #[test]
    fn reduction_never_drops_glue_protected_or_reason_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 12);
        let tern = |a: usize, b: usize, c: usize| [Lit::pos(v[a]), Lit::pos(v[b]), Lit::pos(v[c])];

        let glue = learnt(&mut s, &tern(0, 1, 2), 2);
        let shielded = learnt(&mut s, &tern(3, 4, 5), 9);
        s.arena.protect(shielded);
        // Plenty of plain high-LBD clauses so halving deletes some.
        let plain: Vec<ClauseRef> = (0..6)
            .map(|i| learnt(&mut s, &tern(6 + (i % 3), 9 + (i % 2), 11), 8 + i as u32))
            .collect();
        // Make one clause a reason: assign its slot-0 literal with it.
        let locked = plain[0];
        let implied = s.arena.lit(locked, 0);
        s.enqueue(implied, Some(locked));

        let before = s.num_learnt;
        s.reduce_db();
        assert!(s.num_learnt < before, "reduction must delete something");
        for (cref, what) in [(glue, "glue"), (shielded, "protected"), (locked, "reason")] {
            assert!(!s.arena.is_deleted(cref), "{what} clause was deleted");
        }
        // Protection is consumed by the round.
        assert!(!s.arena.is_protected(shielded));
        assert_eq!(s.stats().reductions, 1);
    }

    #[test]
    fn reduction_prefers_high_lbd_victims() {
        let mut s = Solver::new();
        let v = vars(&mut s, 9);
        let good = learnt(&mut s, &[Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])], 3);
        let bad = learnt(
            &mut s,
            &[Lit::pos(v[3]), Lit::pos(v[4]), Lit::pos(v[5])],
            50,
        );
        let _mid = learnt(
            &mut s,
            &[Lit::pos(v[6]), Lit::pos(v[7]), Lit::pos(v[8])],
            10,
        );
        s.reduce_db();
        assert!(s.arena.is_deleted(bad), "worst LBD goes first");
        assert!(!s.arena.is_deleted(good), "best LBD survives");
    }

    #[test]
    fn compaction_relocates_watchers_and_reasons_in_order() {
        let mut s = Solver::new();
        let v = vars(&mut s, 40);
        // One original binary clause, then learnt ternaries that are all
        // reducible: halving deletes most of the arena's words.
        s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]);
        let crefs: Vec<ClauseRef> = (0..12)
            .map(|i| {
                learnt(
                    &mut s,
                    &[Lit::pos(v[2 + i]), Lit::pos(v[14 + i]), Lit::neg(v[26 + i])],
                    20 - i as u32,
                )
            })
            .collect();
        // The last clause is a reason: it must survive and be relocated.
        let locked = crefs[11];
        let implied = s.arena.lit(locked, 0);
        s.enqueue(implied, Some(locked));
        let watched: Vec<Vec<Lit>> = s
            .watches
            .iter()
            .map(|ws| ws.iter().map(|w| w.blocker).collect())
            .collect();
        // Deleting 5 of the 11 reducible ternaries leaves too little waste…
        s.reduce_db();
        assert_eq!(s.num_clauses(), 13 - 5);
        assert!(s.arena.is_deleted(crefs[0]), "no compaction yet");
        // …the second round passes half the arena and compacts it.
        s.reduce_db();
        assert_eq!(s.num_clauses(), 13 - 5 - 3);
        let moved = s.reason[implied.var().index()].expect("reason kept");
        assert_eq!(s.arena.lit(moved, 0), implied, "reason relocated");
        assert!(moved < locked, "the arena was compacted");
        let live: Vec<ClauseRef> = s.arena.refs().collect();
        assert_eq!(live.len(), s.num_clauses(), "deleted clauses reclaimed");
        for (code, ws) in s.watches.iter().enumerate() {
            let watched_lit = !Lit::from_code(code);
            for w in ws {
                assert!(live.contains(&w.cref()), "watcher of a reclaimed clause");
                assert!(s.arena.lits(w.cref()).any(|l| l == watched_lit));
            }
            // Surviving watchers keep their order.
            let blockers: Vec<Lit> = ws.iter().map(|w| w.blocker).collect();
            let mut old = watched[code].iter();
            assert!(
                blockers.iter().all(|b| old.any(|o| o == b)),
                "order changed"
            );
        }
    }

    #[test]
    fn live_clause_count_tracks_reduction() {
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        for i in 0..2 {
            learnt(
                &mut s,
                &[
                    Lit::pos(v[3 * i]),
                    Lit::pos(v[3 * i + 1]),
                    Lit::pos(v[3 * i + 2]),
                ],
                40,
            );
        }
        assert_eq!(s.num_clauses(), 2);
        s.reduce_db();
        assert_eq!(s.num_clauses(), 1);
    }
}
