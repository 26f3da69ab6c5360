//! Heap-traffic audit of the Reed–Solomon blob codec and the signatures.
//!
//! `decode_blob` inverts the Vandermonde matrix of its first `k` share
//! points once per call and writes every row straight into the output
//! buffer, so a clean decode allocates the inverse and the output, whatever
//! the blob's length: 2 allocations for 16 bytes and for 4 096 bytes alike
//! at `(3, 7)`. Solving a fresh `k × k` system per row took `k + 5`
//! allocations a row, 59 and 10 939. `encode_blob` evaluates each row
//! straight into the share buffers: one buffer per share plus the framed
//! blob and the share vector, `n + 2` allocations. Two `Vec`s per row took
//! 24 and 2 744.
//!
//! A signature tag is a SipHash state on the stack: signing, verifying,
//! their streamed `_parts` forms and the threshold partials allocate
//! nothing, at any message length.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use validity_core::ProcessId;
use validity_crypto::{sha256, KeyStore, ReedSolomon, ThresholdScheme};

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

fn blob(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

#[test]
fn clean_decode_allocates_a_constant_not_per_row() {
    let rs = ReedSolomon::new(3, 7).unwrap();
    let counts: Vec<u64> = [16, 4096]
        .into_iter()
        .map(|len| {
            let blob = blob(len);
            let shares = rs.encode_blob(&blob);
            let (allocs, decoded) = allocations(|| rs.decode_blob(&shares, 2));
            assert_eq!(decoded.as_deref(), Ok(blob.as_slice()));
            allocs
        })
        .collect();
    assert_eq!(
        counts[0], counts[1],
        "a 16-byte and a 4 096-byte decode allocated {counts:?} times"
    );
    assert!(
        counts[0] <= 2,
        "a clean decode allocated {} times",
        counts[0]
    );
}

#[test]
fn encode_allocates_one_buffer_per_share() {
    let rs = ReedSolomon::new(3, 7).unwrap();
    for len in [16, 4096] {
        let blob = blob(len);
        let (allocs, shares) = allocations(|| rs.encode_blob(&blob));
        assert_eq!(shares.len(), 7);
        assert!(
            allocs <= 7 + 2,
            "encoding {len} bytes into 7 shares allocated {allocs} times"
        );
    }
}

#[test]
fn signatures_allocate_nothing() {
    let ks = KeyStore::new(7, 3);
    let signer = ks.signer(ProcessId(2));
    let scheme = ThresholdScheme::new(ks.clone(), 5);
    let digest = sha256(b"vector");
    for len in [0, 8, 47, 130] {
        let msg = blob(len);
        let parts: [&[u8]; 2] = [&msg, b"tail"];
        let ops: [(&str, &dyn Fn() -> bool); 6] = [
            ("sign", &|| signer.sign(&msg).signer() == ProcessId(2)),
            ("verify", &|| ks.verify(&msg, &signer.sign(&msg))),
            ("sign_parts", &|| {
                signer.sign_parts("dom", &parts).signer() == ProcessId(2)
            }),
            ("verify_parts", &|| {
                ks.verify_parts("dom", &parts, &signer.sign_parts("dom", &parts))
            }),
            ("partially_sign", &|| {
                scheme.partially_sign(&signer, &digest).signer() == ProcessId(2)
            }),
            ("verify_partial", &|| {
                scheme.verify_partial(&digest, &scheme.partially_sign(&signer, &digest))
            }),
        ];
        for (name, op) in ops {
            let (allocs, ok) = allocations(op);
            assert!(ok, "{name} over {len} bytes");
            assert_eq!(
                allocs, 0,
                "{name} over {len} bytes allocated {allocs} times"
            );
        }
    }
}
