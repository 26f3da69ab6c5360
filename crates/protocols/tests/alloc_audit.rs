//! Heap-traffic audit of Algorithm 1's certificates and the registry's
//! message wrapper.
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
//! With the vector and proof passed by reference it allocates 362 784
//! bytes in 514 allocations; with plain `InputConfig<V>` values and
//! `Vec<SignedProposal<V>>` proofs, deep-copied into every message, the
//! same run allocated 1 129 040 bytes in 1 529 allocations. The byte bound
//! sits between the two. The allocation bound is the count itself: before
//! Quad's digests streamed the encoding into the hash and `Σ` was built in
//! one sized allocation, the run made 829 (432 120 bytes).
//!
//! Hashing an encoding allocates nothing: Quad's value digest and
//! Algorithm 5's `vector_hash` write the vector straight into SHA-256.
//!
//! The registry's `VectorMsg` carries Algorithm 1 and 6 payloads behind an
//! `Arc` and Algorithm 3's inline, so every engine's message is its own
//! size and no wrapper allocates on Algorithm 3's `O(n⁴)` flood. Two audits
//! hold that layout:
//!
//! - An all-correct Algorithm 3 run at `(16, 5)` allocates 272 times
//!   between its 5 000th and 15 000th event, through `VectorMachine` and
//!   built directly alike (570 → 842 and 554 → 826; the 16 extra are the
//!   per-node scratch sinks). The counts are the same with the payloads
//!   inline; with the `NonAuth` variant boxed, the erased run allocates
//!   780 times over the same events (1 095 → 1 875).
//! - Cloning every message a silent Byzantine process receives at `(4, 1)`
//!   allocates nothing: 6 Algorithm 1 and 16 Algorithm 6 messages. With the
//!   payloads inline, the Algorithm 6 clones allocate 142 bytes in 4
//!   allocations (the ADD shares' bytes); Algorithm 1's were already free,
//!   its vector and proof being `Arc`s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use validity_adversary::BehaviorId;
use validity_core::{InputConfig, ProcessId, StrongLambda, SystemParams};
use validity_crypto::{KeyStore, ThresholdScheme};
use validity_protocols::{
    find_vector, hash_encoding, vector_hash, ProtocolContext, Universal, VectorAuth, VectorMsg,
    VectorNonAuth,
};
use validity_simnet::{
    agreement_holds, ByzSink, Byzantine, Env, Machine, NodeKind, RunOutcome, SimBuilder, SyncModel,
};

struct CountingAlloc;

// Counted per thread: the test harness allocates on its own threads while a
// test runs.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` so far on this thread.
fn counted() -> (u64, u64) {
    (ALLOCS.get(), BYTES.get())
}

/// Bytes one `(31, 10)` two-faced run may allocate, simulator included.
const BYTE_BUDGET: u64 = 750_000;

/// Allocations (reallocations included) the same run may make.
const ALLOC_BUDGET: u64 = 514;

#[test]
fn two_faced_universal_run_shares_its_certificates() {
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
        bytes <= BYTE_BUDGET && allocs <= ALLOC_BUDGET,
        "a (31, 10) two-faced Universal run allocated {bytes} bytes in {allocs} \
         allocations (budgets {BYTE_BUDGET} bytes, {ALLOC_BUDGET} allocations)"
    );
}

#[test]
fn hashing_a_vector_allocates_nothing() {
    let params = SystemParams::new(64, 21).unwrap();
    let vector = InputConfig::from_pairs(params, (0..params.n()).map(|i| (i, i as u64 * 7)))
        .expect("a complete configuration");
    // Quad's value digest of Algorithm 1 hashes the shared vector it carries.
    let shared = Arc::new(vector.clone());
    let before = counted();
    let digests = (hash_encoding(&shared), vector_hash(&vector));
    let (allocs, bytes) = (counted().0 - before.0, counted().1 - before.1);
    assert_eq!(digests.0, digests.1);
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "hashing a 64-entry vector twice allocated {bytes} bytes in {allocs} allocations"
    );
}

/// Allocations of one all-correct Algorithm 3 run at `(16, 5)`, seed 0,
/// stopped after `events` events (the run decides after 19 851).
fn nonauth_allocs<M: Machine>(events: u64, mk: &dyn Fn(ProcessId) -> M) -> u64 {
    let params = SystemParams::new(16, 5).unwrap();
    let nodes = (0..params.n())
        .map(|i| NodeKind::Correct(mk(ProcessId::from_index(i))))
        .collect();
    let mut sim = SimBuilder::new(params)
        .seed(0)
        .max_events(events)
        .build(nodes)
        .expect("valid configuration");
    let before = counted();
    let outcome = sim.run_until_decided();
    let after = counted();
    assert_eq!(
        outcome,
        RunOutcome::EventLimit,
        "the run must outlast {events} events"
    );
    after.0 - before.0
}

#[test]
fn registry_wrapper_allocates_nothing_per_algorithm_3_event() {
    let params = SystemParams::new(16, 5).unwrap();
    let ctx = ProtocolContext::new(params, 0);
    let spec = find_vector::<u64>("alg3-nonauth").unwrap();
    let input = |p: ProcessId| p.index() as u64 % 2;
    let erased = |events| nonauth_allocs(events, &|p| spec.machine(&ctx, p, input(p)));
    let direct = |events| nonauth_allocs(events, &|p| VectorNonAuth::new(input(p), params.n()));
    // Two runs that differ only in `max_events` isolate the marginal
    // 10 000 events; the engine's own state growth is the same either way.
    let (short, long) = (5_000, 15_000);
    let (erased_short, erased_long) = (erased(short), erased(long));
    let (direct_short, direct_long) = (direct(short), direct(long));
    assert_eq!(
        erased_long - erased_short,
        direct_long - direct_short,
        "through VectorMachine: {erased_short} → {erased_long} allocations; \
         direct: {direct_short} → {direct_long}"
    );
}

/// A Byzantine process that runs no protocol and keeps every message it
/// receives.
struct Recorder(Arc<Mutex<Vec<VectorMsg<u64>>>>);

impl Byzantine<VectorMsg<u64>> for Recorder {
    fn on_message(
        &mut self,
        _from: ProcessId,
        msg: &VectorMsg<u64>,
        _env: &Env,
        _sink: &mut ByzSink<VectorMsg<u64>>,
    ) {
        self.0.lock().unwrap().push(msg.clone());
    }
}

/// Every message `engine`'s correct processes send at `(4, 1)`, as one
/// silent Byzantine process receives them.
fn recorded(engine: &str) -> Vec<VectorMsg<u64>> {
    let params = SystemParams::new(4, 1).unwrap();
    let ctx = ProtocolContext::new(params, 1);
    let spec = find_vector::<u64>(engine).unwrap();
    let log = Arc::new(Mutex::new(Vec::new()));
    let nodes = (0..params.n())
        .map(|i| {
            let p = ProcessId::from_index(i);
            if i < 3 {
                NodeKind::Correct(spec.machine(&ctx, p, i as u64))
            } else {
                NodeKind::Byzantine(Box::new(Recorder(log.clone())))
            }
        })
        .collect();
    let mut sim = SimBuilder::new(params)
        .seed(1)
        .build(nodes)
        .expect("valid configuration");
    sim.run_until_decided();
    assert!(sim.all_correct_decided());
    drop(sim);
    Arc::try_unwrap(log).unwrap().into_inner().unwrap()
}

#[test]
fn cloning_algorithm_1_and_6_messages_allocates_nothing() {
    for engine in ["alg1-auth", "alg6-fast"] {
        let sent = recorded(engine);
        assert!(sent.len() >= 6, "{engine} sent {} messages", sent.len());
        let mut copies = Vec::with_capacity(sent.len());
        let before = counted();
        copies.extend(sent.iter().cloned());
        let (allocs, bytes) = (counted().0 - before.0, counted().1 - before.1);
        assert_eq!(
            (allocs, bytes),
            (0, 0),
            "cloning {engine}'s {} messages allocated {bytes} bytes in {allocs} \
             allocations",
            sent.len()
        );
    }
}
