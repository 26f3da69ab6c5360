//! Heap-traffic audit of Algorithm 1's certificates.
//!
//! Algorithm 1 proposes `(vector, Σ)` to Quad, so every value-carrying Quad
//! message holds `Θ(n)` words: a process's lock, every `Decided`
//! rebroadcast, the decision itself, and every per-recipient copy a
//! two-faced adversary fans out. The vector and `Σ` are immutable once
//! assembled, so they travel as `Arc`s and those copies cost a reference
//! count, not a deep copy.
//!
//! A counting global allocator measures one `Universal` Algorithm 1 run at
//! `(n, t) = (31, 10)`, synchronous, with `t` two-faced processes, from the
//! first event until every correct process has decided (1 265 events).
//! With the vector and proof passed by reference it allocates 479 424
//! bytes in 829 allocations; with plain `InputConfig<V>` values and
//! `Vec<SignedProposal<V>>` proofs, deep-copied into every message, the
//! same run allocates 1 129 040 bytes in 1 529 allocations. The bound sits
//! between the two.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use validity_adversary::BehaviorId;
use validity_core::{ProcessId, StrongLambda, SystemParams};
use validity_crypto::{KeyStore, ThresholdScheme};
use validity_protocols::{Universal, VectorAuth};
use validity_simnet::{agreement_holds, RunOutcome, SimBuilder, SyncModel};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` so far.
fn counted() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// The counters are process-wide and the test harness runs tests on
/// parallel threads, so every test holds this lock while it counts.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    // A poisoned lock only means another audit failed; `()` has no state
    // that failure could have left half-updated.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bytes one `(31, 10)` two-faced run may allocate, simulator included.
const BYTE_BUDGET: u64 = 750_000;

#[test]
fn two_faced_universal_run_shares_its_certificates() {
    let _serial = serial();
    let params = SystemParams::new(31, 10).unwrap();
    let ks = KeyStore::new(params.n(), 5);
    let scheme = ThresholdScheme::new(ks.clone(), params.quorum());
    // Face 0 proposes the slot's parity, face 1 the other bit.
    let mk = |p: ProcessId, face: u64| {
        Universal::new(
            VectorAuth::new(
                (p.index() as u64 + face) % 2,
                ks.clone(),
                ks.signer(p),
                scheme.clone(),
                params,
            ),
            StrongLambda,
        )
    };
    let nodes = BehaviorId::TwoFaced.populate(params, params.t(), 0, &mk);
    let mut sim = SimBuilder::new(params)
        .gst(0)
        .net(Arc::new(SyncModel))
        .seed(5)
        .build(nodes)
        .expect("valid configuration");

    let before = counted();
    let outcome = sim.run_until_decided();
    let after = counted();

    assert_eq!(outcome, RunOutcome::AllDecided);
    assert!(agreement_holds(sim.decisions()));
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);
    assert!(
        bytes <= BYTE_BUDGET,
        "a (31, 10) two-faced Universal run allocated {bytes} bytes in {allocs} \
         allocations (budget {BYTE_BUDGET})"
    );
}
