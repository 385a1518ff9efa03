//! Allocation budget of the netlist builders.
//!
//! A netlist keeps its cells, nets, pins, fanout lists and names in a
//! fixed set of flat arrays, so building, copying or locking one makes a
//! number of heap allocations that does not depend on its size. This
//! test counts the allocations of `bench_format::parse`, `Netlist::clone`
//! and a 16-GK `GkEncryptor::encrypt` with a counting global allocator,
//! on a small and a large profile, and holds both to the same bounds.
//! Allocation counts are deterministic, so the bounds need no noise band.
//!
//! `cargo test --test netlist_alloc_budget -- --nocapture` also prints
//! the counts and the heap bytes each parsed cell holds.

use glitchlock::circuits::{generate, profile_by_name};
use glitchlock::core::GkEncryptor;
use glitchlock::netlist::{bench_format, Netlist};
use glitchlock::sta::ClockModel;
use glitchlock::stdcell::Library;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting this thread's allocations and live
/// bytes. Other test threads keep their own counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when there is nothing left to count into.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result, the allocations (reallocations
/// included) it made on this thread, and the heap bytes it left live.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let a0 = ALLOCS.with(Cell::get);
    let l0 = LIVE.with(Cell::get);
    let out = f();
    let allocs = ALLOCS.with(Cell::get) - a0;
    let live = LIVE.with(Cell::get) - l0;
    (out, allocs, live)
}

/// Allocations one `bench_format::parse` may make, whatever the size.
const PARSE_BUDGET: u64 = 48;
/// Allocations one `Netlist::clone` may make.
const CLONE_BUDGET: u64 = 12;
/// Allocations one 16-GK `GkEncryptor::encrypt` may make.
const ENCRYPT_BUDGET: u64 = 1000;

struct Profile {
    name: &'static str,
    text: String,
    clock: ClockModel,
}

fn profile(name: &'static str) -> Profile {
    let p = profile_by_name(name).expect("known profile");
    Profile {
        name,
        text: bench_format::emit(&generate(&p)),
        clock: ClockModel::new(p.clock_period),
    }
}

#[test]
fn builders_allocate_a_fixed_number_of_times() {
    let library = Library::cl013g_like();
    for p in [profile("s1238"), profile("s38584")] {
        let (parsed, parse_allocs, live) = counted(|| bench_format::parse(&p.text));
        let nl: Netlist = parsed.expect("profile parses");
        let cells = nl.cell_count();
        let (copy, clone_allocs, _) = counted(|| nl.clone());
        assert!(
            bench_format::emit(&copy) == bench_format::emit(&nl),
            "{}: the clone emits other text",
            p.name
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (locked, encrypt_allocs, _) =
            counted(|| GkEncryptor::new(16).encrypt(&nl, &library, &p.clock, &mut rng));
        locked.expect("16 GKs fit");
        eprintln!(
            "{}: {cells} cells, {} nets; parse {parse_allocs} allocations, \
             {live} live bytes ({:.1} per cell); clone {clone_allocs}; encrypt {encrypt_allocs}",
            p.name,
            nl.net_count(),
            live as f64 / cells as f64,
        );
        assert!(
            parse_allocs <= PARSE_BUDGET,
            "{}: parse made {parse_allocs} allocations, budget {PARSE_BUDGET}",
            p.name
        );
        assert!(
            clone_allocs <= CLONE_BUDGET,
            "{}: clone made {clone_allocs} allocations, budget {CLONE_BUDGET}",
            p.name
        );
        assert!(
            encrypt_allocs <= ENCRYPT_BUDGET,
            "{}: encrypt made {encrypt_allocs} allocations, budget {ENCRYPT_BUDGET}",
            p.name
        );
    }
}
