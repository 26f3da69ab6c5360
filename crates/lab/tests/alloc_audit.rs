//! Heap-traffic audit of the `Universal` lens.
//!
//! A sweep simulates each vector-consensus execution once and reads every
//! `Universal` column of it through the runner's lens, which evaluates
//! `Λ` once per distinct decided vector and the property once per
//! distinct `Λ` output. So one more `Universal` column over an execution
//! the sweep already runs allocates a constant number of times, however
//! many correct processes decide: at `(16, 5)` with 11 deciders as at
//! `(64, 21)` with 43.
//!
//! Measured in both build profiles: a Strong column allocates 6 times
//! and a Median column 9, at both sizes. The column's record pays 2 of
//! them: its group key, formatted once into a buffer sized for any key,
//! and its key, copied from the group key. The lens pays the rest: the
//! correct processes' actual inputs, the decision string and the two
//! per-process counters of the cloned `NetStats`, plus for Median the
//! boxes of its `Λ` and property and `Λ`'s sorted proposals. Formatting
//! the group key a second time inside the key, the registry name into a
//! `String` of its own, and a copy of the key as the timing's label cost
//! 15 and 18. Reading `Λ` and the property once per correct process, and
//! collecting the sorted proposals without sizing the buffer, allocated
//! 19 and 54 times at `(16, 5)` and 21 and 238 at `(64, 21)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use validity_adversary::BehaviorId;
use validity_lab::{
    CellSpec, Outcome, ProtocolAxis, RunCell, ScheduleSpec, SweepEngine, ValiditySpec,
};
use validity_protocols::find_vector;

struct CountingAlloc;

// Counted over every thread: the sweep runs its cells on worker threads of
// its own. This file holds one test, so nothing else allocates meanwhile
// but the idle harness.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// implementation upholds the `GlobalAlloc` contract; counting touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// An `alg1-auth` cell at `(n, t)` with `t` silent processes in a
/// synchronous run: raw for `None`, under `Universal` otherwise.
fn cell(validity: Option<ValiditySpec>, n: usize, t: usize) -> CellSpec {
    let engine = find_vector("alg1-auth").unwrap();
    CellSpec::Run(RunCell {
        protocol: match validity {
            Some(_) => ProtocolAxis::wrapped(engine),
            None => ProtocolAxis::raw(engine),
        },
        validity,
        behavior: BehaviorId::Silent,
        byz: t,
        fault: t,
        schedule: ScheduleSpec::Synchronous,
        n,
        t,
        seed: 0,
    })
}

/// The allocations a `validity` column adds to a one-worker sweep of the
/// raw column and the `other` column, all three reading one execution at
/// `(n, t)`.
fn marginal_column(validity: ValiditySpec, other: ValiditySpec, n: usize, t: usize) -> u64 {
    let engine = SweepEngine::new(1);
    let base = vec![cell(None, n, t), cell(Some(other), n, t)];
    let mut with = base.clone();
    with.push(cell(Some(validity), n, t));
    let (without, _) = allocations(|| engine.execute_cells(&base, None));
    let (total, (records, ..)) = allocations(|| engine.execute_cells(&with, None));
    let Outcome::Run(r) = &records[2].outcome else {
        panic!("a run cell records a run");
    };
    assert!(
        r.decided && r.agreement && r.validity_ok == Some(true),
        "{r:?}"
    );
    total - without
}

#[test]
fn a_universal_column_allocates_the_same_at_every_n() {
    // Strong, Median.
    const MEASURED: [u64; 2] = [6, 9];
    let [small, large] = [(16, 5), (64, 21)].map(|(n, t)| {
        [
            marginal_column(ValiditySpec::Strong, ValiditySpec::Median, n, t),
            marginal_column(ValiditySpec::Median, ValiditySpec::Strong, n, t),
        ]
    });
    for ((s, l), bound) in small.into_iter().zip(large).zip(MEASURED) {
        assert!(
            l <= s && s <= bound,
            "allocations for strong, median: (16, 5) {small:?}, (64, 21) {large:?}; \
             want at most {MEASURED:?}, and no more at (64, 21)"
        );
    }
}
