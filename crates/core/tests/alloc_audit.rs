//! Heap-traffic audit of the solvability classifier.
//!
//! `classify` walks `sim(c)` for every `c ∈ I_{n−t}` along a plan built once
//! per correct set, answers repeat look-ups from its `val(c)` table, reuses
//! one candidate buffer across the `Λ` walk and evaluates every miss on one
//! scratch configuration rewritten in place. What is left to allocate is
//! what the answer needs: one `InputConfig` per `Λ` entry, and a few
//! buffers (the `Λ` table sized up front, the `val(c)` table, the plan's
//! three, which double while the first plan is built).
//!
//! Strong validity at `(n, t) = (7, 2)` over three values evaluates 35 829
//! `(c, v)` pairs in 19 003 batches over the 12 393 configurations of `I`,
//! and its `Λ` table has 5 103 entries. The classifier allocates 5 136
//! times: 5 103 + 33. Building a fresh configuration per batch of
//! evaluations allocated 24 134 times (19 003 + 5 103 + 28); a `Similar`
//! iterator and a fresh candidate `Vec` per `c` on top of that allocated
//! 44 544 times.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use validity_core::{
    classify, Classification, CountingValidity, Domain, InputConfig, StrongValidity, SystemParams,
    ValidityProperty,
};

struct CountingAlloc;

// Counted per thread: the test harness allocates on its own threads while a
// test runs.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.get();
    let out = f();
    (ALLOCS.get() - before, out)
}

/// Counts the batches of evaluations: runs of consecutive calls on one
/// configuration. Hashing allocates nothing, so the wrapper adds no count.
struct Batches<'a> {
    inner: &'a dyn ValidityProperty<u64>,
    last: AtomicU64,
    batches: AtomicU64,
}

impl ValidityProperty<u64> for Batches<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_admissible(&self, c: &InputConfig<u64>, v: &u64) -> bool {
        let mut hasher = DefaultHasher::new();
        c.hash(&mut hasher);
        let hash = hasher.finish();
        if self.last.swap(hash, Ordering::Relaxed) != hash {
            self.batches.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.is_admissible(c, v)
    }
}

#[test]
fn classify_allocates_per_evaluated_batch_not_per_configuration() {
    let params = SystemParams::new(7, 2).unwrap();
    let domain = Domain::range(3);
    let counted = CountingValidity::new(&StrongValidity);
    let batches = Batches {
        inner: &counted,
        last: AtomicU64::new(0),
        batches: AtomicU64::new(0),
    };
    let (allocs, verdict) = allocations(|| classify(&batches, params, &domain));
    let Classification::SolvableNonTrivial { lambda_table } = verdict else {
        panic!("strong validity is solvable at (7, 2): {verdict}");
    };
    let batches = batches.batches.into_inner();
    let entries = lambda_table.len() as u64;
    assert_eq!((counted.evals(), batches, entries), (35_829, 19_003, 5_103));
    // The space's blocks, the `val(c)`, `Λ` and plan buffers, the scratch
    // configuration and the candidate sets.
    assert!(
        allocs <= entries + 64,
        "{allocs} allocations for {entries} Λ entries ({batches} batches)"
    );
}
