//! Clause storage: one flat arena of inline clause records, and the
//! watcher record used by the two-watched-literal scheme.
//!
//! Every clause lives in a single `Vec<u32>`: a [`HEADER`]-word header
//! followed by its literal codes. A [`ClauseRef`] is the offset of the
//! header word, so reaching a clause's literals from a watcher is one
//! indexed load, with no per-clause heap object to chase.
//!
//! | word | contents                                          |
//! |------|---------------------------------------------------|
//! | 0    | `len << 3` \| `DELETED` \| `PROTECTED` \| `LEARNT` |
//! | 1    | LBD (learnt clauses; 0 for original ones)         |
//! | 2    | activity, as `f32` bits                           |
//! | 3..  | the literals' codes                               |
//!
//! Deleted clauses stay in place, counted as wasted words, until
//! [`ClauseArena::compact`] slides the live ones down.

use crate::Lit;

/// Word offset of a clause's header in the [`ClauseArena`].
pub(crate) type ClauseRef = u32;

/// A glue clause (LBD at or below this) is never deleted by reduction:
/// such clauses connect few decision levels and are empirically the ones
/// worth keeping forever (Audemard & Simon 2009).
pub(crate) const GLUE_LBD: u32 = 2;

/// Header words before a clause's literals.
const HEADER: usize = 3;
const LEARNT: u32 = 1;
/// Set when the clause's LBD improved during conflict analysis; the
/// clause survives the next reduction round, then the flag clears.
const PROTECTED: u32 = 2;
const DELETED: u32 = 4;
const LEN_SHIFT: u32 = 3;
/// Header word holding the LBD, and the one holding the activity (which
/// compaction reuses as the forwarding offset of a moved clause).
const LBD: usize = 1;
const ACTIVITY: usize = 2;

/// The clause arena. See the module docs for the record layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClauseArena {
    words: Vec<u32>,
    /// Words held by deleted clauses.
    wasted: usize,
}

impl ClauseArena {
    /// Appends a clause and returns its reference.
    pub(crate) fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let cref = self.words.len();
        assert!(
            cref + HEADER + lits.len() <= BINARY as usize,
            "clause arena exceeds 2^31 words"
        );
        self.words
            .push((lits.len() as u32) << LEN_SHIFT | if learnt { LEARNT } else { 0 });
        self.words.push(lbd);
        self.words.push(0f32.to_bits());
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        cref as ClauseRef
    }

    /// Number of literals.
    pub(crate) fn len(&self, c: ClauseRef) -> usize {
        (self.words[c as usize] >> LEN_SHIFT) as usize
    }

    /// The `k`-th literal.
    pub(crate) fn lit(&self, c: ClauseRef, k: usize) -> Lit {
        Lit::from_code(self.words[c as usize + HEADER + k] as usize)
    }

    /// The literals, in clause order.
    pub(crate) fn lits(&self, c: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let base = c as usize + HEADER;
        self.words[base..base + self.len(c)]
            .iter()
            .map(|&w| Lit::from_code(w as usize))
    }

    /// The literal codes, mutably: propagation reorders them in place.
    pub(crate) fn codes_mut(&mut self, c: ClauseRef) -> &mut [u32] {
        let base = c as usize + HEADER;
        let len = self.len(c);
        &mut self.words[base..base + len]
    }

    pub(crate) fn is_learnt(&self, c: ClauseRef) -> bool {
        self.words[c as usize] & LEARNT != 0
    }

    pub(crate) fn is_deleted(&self, c: ClauseRef) -> bool {
        self.words[c as usize] & DELETED != 0
    }

    pub(crate) fn is_protected(&self, c: ClauseRef) -> bool {
        self.words[c as usize] & PROTECTED != 0
    }

    pub(crate) fn protect(&mut self, c: ClauseRef) {
        self.words[c as usize] |= PROTECTED;
    }

    pub(crate) fn lbd(&self, c: ClauseRef) -> u32 {
        self.words[c as usize + LBD]
    }

    pub(crate) fn set_lbd(&mut self, c: ClauseRef, lbd: u32) {
        self.words[c as usize + LBD] = lbd;
    }

    pub(crate) fn activity(&self, c: ClauseRef) -> f32 {
        f32::from_bits(self.words[c as usize + ACTIVITY])
    }

    pub(crate) fn set_activity(&mut self, c: ClauseRef, a: f32) {
        self.words[c as usize + ACTIVITY] = a.to_bits();
    }

    /// Multiplies every clause's activity by `factor`.
    pub(crate) fn scale_activities(&mut self, factor: f32) {
        let mut c = 0;
        while c < self.words.len() {
            let a = f32::from_bits(self.words[c + ACTIVITY]) * factor;
            self.words[c + ACTIVITY] = a.to_bits();
            c += HEADER + (self.words[c] >> LEN_SHIFT) as usize;
        }
    }

    /// Clears every clause's protection.
    pub(crate) fn unprotect_all(&mut self) {
        let mut c = 0;
        while c < self.words.len() {
            self.words[c] &= !PROTECTED;
            c += HEADER + (self.words[c] >> LEN_SHIFT) as usize;
        }
    }

    /// Glue clauses are exempt from reduction.
    pub(crate) fn is_glue(&self, c: ClauseRef) -> bool {
        let lbd = self.lbd(c);
        self.is_learnt(c) && lbd != 0 && lbd <= GLUE_LBD
    }

    /// Marks a clause deleted. Its words stay until the next compaction;
    /// the caller drops its watchers.
    pub(crate) fn delete(&mut self, c: ClauseRef) {
        debug_assert!(!self.is_deleted(c));
        self.words[c as usize] |= DELETED;
        self.wasted += HEADER + self.len(c);
    }

    /// Every clause reference, deleted ones included, in arena order
    /// (the order clauses were added in).
    pub(crate) fn refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut c = 0;
        std::iter::from_fn(move || {
            (c < self.words.len()).then(|| {
                let cref = c as ClauseRef;
                c += HEADER + self.len(cref);
                cref
            })
        })
    }

    /// True once deleted clauses hold more than half of the arena.
    pub(crate) fn needs_compaction(&self) -> bool {
        self.wasted * 2 > self.words.len()
    }

    /// Slides the live clauses down over the deleted ones, keeping their
    /// order, and returns the forwarding map: `forward(old)` is a live
    /// clause's new reference. Valid until the arena is next changed.
    pub(crate) fn compact(&mut self) -> Forwarding {
        let mut fresh = Vec::with_capacity(self.words.len() - self.wasted);
        let mut c = 0;
        while c < self.words.len() {
            let end = c + HEADER + (self.words[c] >> LEN_SHIFT) as usize;
            if self.words[c] & DELETED == 0 {
                let moved = fresh.len() as u32;
                fresh.extend_from_slice(&self.words[c..end]);
                self.words[c + ACTIVITY] = moved;
            }
            c = end;
        }
        self.wasted = 0;
        Forwarding {
            old: std::mem::replace(&mut self.words, fresh),
        }
    }
}

/// The old arena of a compaction, each live clause's activity word
/// overwritten with its new offset.
pub(crate) struct Forwarding {
    old: Vec<u32>,
}

impl Forwarding {
    /// The new reference of a clause that survived the compaction.
    pub(crate) fn forward(&self, c: ClauseRef) -> ClauseRef {
        debug_assert!(
            self.old[c as usize] & DELETED == 0,
            "forwarding a deleted clause"
        );
        self.old[c as usize + ACTIVITY]
    }
}

/// Tag bit on a watcher's clause reference marking a binary clause.
const BINARY: u32 = 1 << 31;

/// A watch-list entry. For a binary clause the blocker is the clause's
/// other literal, so propagation decides the clause from the watcher
/// alone and never reads the arena.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher {
    /// The clause reference, with [`BINARY`] set for a binary clause.
    tagged: u32,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and needs no inspection.
    pub(crate) blocker: Lit,
}

impl Watcher {
    pub(crate) fn new(cref: ClauseRef, blocker: Lit, binary: bool) -> Watcher {
        Watcher {
            tagged: cref | if binary { BINARY } else { 0 },
            blocker,
        }
    }

    pub(crate) fn cref(self) -> ClauseRef {
        self.tagged & !BINARY
    }

    pub(crate) fn is_binary(self) -> bool {
        self.tagged & BINARY != 0
    }

    /// The same watcher pointing at a clause's new place.
    pub(crate) fn relocated(self, forwarding: &Forwarding) -> Watcher {
        Watcher {
            tagged: forwarding.forward(self.cref()) | self.tagged & BINARY,
            blocker: self.blocker,
        }
    }
}
