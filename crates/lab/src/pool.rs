//! The lab's one worker pool.
//!
//! The sweep executor, the service driver and `lab mutate`'s mutant walk
//! fan their enumerated work out over threads, then read the results back
//! **in index order**, so nothing downstream can depend on the worker
//! count or on scheduling noise. Items are deterministic, independent and
//! CPU-bound, so workers simply claim the next index from a shared cursor
//! and park each result in that index's slot.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Resolves a requested worker count: `0` means one worker per core.
pub(crate) fn width(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// Computes `work(i)` for every `i < n` on up to `threads` workers (`0` =
/// one per core, never more than `n`) and yields `(result, wall)` in index
/// order, `wall` being the time that one call took on its worker.
///
/// The results are handed back as a draining iterator rather than a
/// collected `Vec`: callers move each item straight into its final home,
/// so the slot array is the only per-item buffer the pool ever holds (an
/// observed sweep's item is 2.5 KB, and a second copy of the array would
/// show up in peak RSS).
pub(crate) fn ordered_map<T: Send>(
    threads: usize,
    n: usize,
    work: impl Fn(usize) -> T + Sync,
) -> impl Iterator<Item = (T, Duration)> {
    // Relaxed suffices for the cursor: it hands out indices and publishes
    // nothing — results travel through the slot mutexes and the scope join.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..width(threads).min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let started = Instant::now();
                let result = work(i);
                *slots[i].lock().expect("result slot poisoned") = Some((result, started.elapsed()));
            });
        }
    });
    slots.into_iter().map(|slot| {
        slot.into_inner()
            .expect("result slot poisoned")
            .expect("worker pool exited with an unfilled slot")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_every_width() {
        let n = 37;
        for threads in [0, 1, 2, n + 3] {
            let got: Vec<usize> = ordered_map(threads, n, |i| i * i).map(|(v, _)| v).collect();
            let want: Vec<usize> = (0..n).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_runs_once_and_carries_its_own_duration() {
        let calls = AtomicUsize::new(0);
        let out: Vec<(usize, Duration)> = ordered_map(3, 20, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        })
        .collect();
        assert_eq!(out.len(), 20);
        assert_eq!(calls.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn empty_input_yields_nothing() {
        // Workers are capped at `n`, so there is nobody to call `work`.
        let out: Vec<((), Duration)> =
            ordered_map(4, 0, |_| unreachable!("no item to work on")).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_one_worker_per_core() {
        assert!(width(0) >= 1);
        assert_eq!(width(3), 3);
    }
}
