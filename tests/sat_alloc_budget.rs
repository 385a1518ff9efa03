//! Allocation budget of `Solver::add_clause`.
//!
//! The solver keeps every clause in one flat arena and normalizes each
//! new clause in a buffer it reuses, so adding a clause makes no heap
//! allocation of its own: the only ones left are the amortized growth of
//! the arena and of the watch lists. This test counts the allocations of
//! adding M clauses over pre-created variables with a counting global
//! allocator and holds them below M. Allocation counts are deterministic,
//! so the bound needs no noise band.
//!
//! `cargo test --test sat_alloc_budget -- --nocapture` also prints the
//! count.

use glitchlock::sat::{Lit, Solver, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations. Other test
/// threads keep their own counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn adding_clauses_makes_fewer_allocations_than_clauses() {
    const VARS: u32 = 100;
    const CLAUSES: usize = 4000;
    let mut rng = StdRng::seed_from_u64(0xa110c);
    // Binary and ternary clauses over distinct variables, the shapes a
    // Tseitin-encoded AND node adds, drawn before counting starts. None
    // is a unit, so every clause is stored.
    let clauses: Vec<Vec<Lit>> = (0..CLAUSES)
        .map(|i| {
            let mut vars: Vec<u32> = Vec::new();
            while vars.len() < 2 + i % 2 {
                let v = rng.gen_range(0..VARS);
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.iter()
                .map(|&v| Lit::with_sign(Var(v), rng.gen()))
                .collect()
        })
        .collect();
    let mut s = Solver::new();
    for _ in 0..VARS {
        s.new_var();
    }
    let before = ALLOCS.with(Cell::get);
    for c in &clauses {
        s.add_clause(c);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(s.num_clauses(), CLAUSES);
    println!("add_clause: {allocs} allocations for {CLAUSES} clauses");
    assert!(
        (allocs as usize) < CLAUSES,
        "{allocs} allocations for {CLAUSES} clauses"
    );
}
