//! The O(1)-dispatch event scheduler: a calendar queue over discrete ticks
//! (Brown, *Calendar Queues*, CACM 1988) whose events live in one
//! free-listed pool of fixed-size blocks.
//!
//! It replaced a `BinaryHeap<Event>` ordered by `(at, seq)`. Almost every
//! event lands within a bounded horizon of the current tick (post-GST
//! delays are `≤ δ`, pre-GST sends are capped at `GST + δ`, protocol
//! timers are short multiples of `δ`), so a power-of-two ring holds one
//! slot per tick of the window `[floor, floor + capacity)`: the
//! `(head, tail)` pair of the tick's chain of blocks. Push appends to the
//! tail block, pop reads the chain at the cursor front to back — both
//! `O(1)`. The rare far-future event (the exponentially staggered timers
//! of slow broadcast, Algorithm 4) waits in a `BTreeMap` tier of chains
//! until its tick enters the window.
//!
//! # Ordering invariant (why FIFO chains reproduce `(at, seq)` order)
//!
//! The heap popped equal-`at` events in push order (`seq` increased
//! strictly). A chain holds one tick's events in push order and is read
//! front to back, so the order is the same with no `seq`; across ticks the
//! cursor visits slots in ascending time. The chain being read is detached
//! from its slot, so a push at the present tick (the simulator makes one
//! only when a deadline saturates at `Time::MAX`) starts a fresh chain,
//! read right after it. A far chain migrates as soon as its tick enters
//! the window, before any ring push can target that tick, so it lands in
//! an empty slot, never behind newer events.
//!
//! # Memory
//!
//! Blocks hold eight events and return to a free list when drained, so a
//! queue allocates only when its pool or ring doubles — `O(log q)` times
//! per simulation however many ticks it touches, never in steady state —
//! and an empty ring slot costs 8 bytes. The simulator's events are 8
//! bytes, so a block is 72; blocks of 7 (64 bytes) and of 16 measured no
//! faster on Algorithm 3's queues or on `chaos_small`. Blocks, because
//! both alternatives measured worse: one pool node per event makes pops
//! chase pointers (Algorithm 3's 100 k-event queues ran 13 % slower), and
//! recycling per-tick `Vec` buckets through a spare stack loses each tick
//! phase's capacity (multiplexed and far-timer runs ran 14–20 % slower).

use std::collections::BTreeMap;

use crate::time::Time;

/// Initial ring size (ticks). Deliberately small: a simulation is built
/// per scenario cell. Grows by doubling when a push lands beyond the
/// window, up to [`MAX_RING`]; farther events use the overflow tier.
const INITIAL_RING: usize = 64;

/// Largest ring the queue will grow to (2¹² ticks ≈ 41 δ at the default
/// δ = 100). Pushes beyond it are rare enough (0.13 % of `chaos_small`'s
/// events, 0.4 % of `subcubic_sweep`'s) that `BTreeMap` cost is irrelevant.
const MAX_RING: usize = 1 << 12;

/// Events per pool block.
const BLOCK: usize = 8;

/// The null block index; `(NIL, NIL)` is the empty chain.
const NIL: u32 = u32::MAX;
const EMPTY: (u32, u32) = (NIL, NIL);

/// A pool block: its first `len` items are queued; `next` links on.
#[derive(Clone, Copy, Debug)]
struct Block<T> {
    items: [T; BLOCK],
    len: u32,
    next: u32,
}

/// A monotone calendar queue: items are pushed with a tick `at` that is
/// `≥` the tick of the last popped item, and popped in ascending tick
/// order, FIFO within a tick.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// The pool every queued item lives in, and its free list's head.
    blocks: Vec<Block<T>>,
    free: u32,
    /// Power-of-two ring; `slots[at % len]` is the chain of tick `at` for
    /// `at ∈ [floor, floor + slots.len())`.
    slots: Vec<(u32, u32)>,
    /// Occupancy bitmap for a `trailing_zeros` scan to the next occupied
    /// slot; sized for [`MAX_RING`] once, so a grow reallocates only the
    /// ring (the first `slots.len() / 64` words are in use).
    occ: Vec<u64>,
    /// Lower edge of the ring window, and the tick being read.
    floor: Time,
    /// Occupied ring slots.
    ring_ticks: usize,
    /// Far-future chains: ticks at or beyond `floor + slots.len()`.
    far: BTreeMap<Time, (u32, u32)>,
    len: usize,
    /// The block being read (of tick `floor`'s detached chain), and where.
    live: u32,
    read: u32,
}

impl<T: Copy> CalendarQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            blocks: Vec::new(),
            free: NIL,
            slots: vec![EMPTY; INITIAL_RING],
            occ: vec![0; MAX_RING / 64],
            floor: 0,
            ring_ticks: 0,
            far: BTreeMap::new(),
            len: 0,
            live: NIL,
            read: 0,
        }
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues `item` at tick `at`, which must not be before the tick of
    /// the last popped item (an earlier push is a caller bug).
    #[inline]
    pub fn push(&mut self, at: Time, item: T) {
        debug_assert!(
            at >= self.floor,
            "push into the past: at = {at}, floor = {}",
            self.floor
        );
        self.len += 1;
        let span = at.saturating_sub(self.floor);
        if span >= self.slots.len() as u64 {
            if span >= MAX_RING as u64 {
                let chain = self.far.get(&at).copied().unwrap_or(EMPTY);
                let chain = self.append(chain, item);
                self.far.insert(at, chain);
                return;
            }
            self.grow(span);
        }
        let idx = at as usize & (self.slots.len() - 1);
        if self.slots[idx].0 == NIL {
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.ring_ticks += 1;
        }
        self.slots[idx] = self.append(self.slots[idx], item);
    }

    /// Appends `item` to the chain `(head, tail)`, linking a fresh block
    /// when the tail block is full, and returns the updated chain.
    #[inline]
    fn append(&mut self, (head, tail): (u32, u32), item: T) -> (u32, u32) {
        if head != NIL {
            let block = &mut self.blocks[tail as usize];
            if (block.len as usize) < BLOCK {
                block.items[block.len as usize] = item;
                block.len += 1;
                return (head, tail);
            }
        }
        let fresh = Block {
            items: [item; BLOCK],
            len: 1,
            next: NIL,
        };
        let b = if self.free == NIL {
            self.blocks.push(fresh);
            u32::try_from(self.blocks.len() - 1).expect("block pool fits u32 indices")
        } else {
            let b = self.free;
            self.free = std::mem::replace(&mut self.blocks[b as usize], fresh).next;
            b
        };
        if head == NIL {
            return (b, b);
        }
        self.blocks[tail as usize].next = b;
        (head, b)
    }

    /// Dequeues the earliest item, FIFO within a tick.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, T)> {
        if self.live == NIL {
            if self.len == 0 {
                return None;
            }
            if self.ring_ticks == 0 {
                // Jump the window straight to the earliest overflow tick.
                self.floor = *self.far.keys().next().expect("items outside the ring");
            } else {
                // Scan the bitmap for the next occupied slot (there is
                // one, so this terminates within one lap).
                let start = self.floor as usize & (self.slots.len() - 1);
                let mut word_i = start >> 6;
                let mut word = self.occ[word_i] & (!0u64 << (start & 63));
                let words = self.slots.len() / 64;
                while word == 0 {
                    word_i = (word_i + 1) % words;
                    word = self.occ[word_i];
                }
                let idx = (word_i << 6) + word.trailing_zeros() as usize;
                // Every queued tick is within one window of `floor`, so
                // the forward ring distance is the true tick delta.
                self.floor += (idx.wrapping_sub(start) & (self.slots.len() - 1)) as u64;
            }
            self.migrate_far();
            let idx = self.floor as usize & (self.slots.len() - 1);
            self.live = std::mem::replace(&mut self.slots[idx], EMPTY).0;
            self.occ[idx >> 6] &= !(1 << (idx & 63));
            self.ring_ticks -= 1;
        }
        let block = &mut self.blocks[self.live as usize];
        let item = block.items[self.read as usize];
        self.read += 1;
        if self.read == block.len {
            // Drained: the block goes back on the free list.
            let next = std::mem::replace(&mut block.next, self.free);
            self.free = std::mem::replace(&mut self.live, next);
            self.read = 0;
        }
        self.len -= 1;
        Some((self.floor, item))
    }

    /// Moves far chains whose tick has entered the window into the ring.
    /// Called whenever `floor` advances or the ring grows, so `far` only
    /// ever holds ticks outside the window and no tick spans both tiers.
    fn migrate_far(&mut self) {
        while let Some(entry) = self.far.first_entry() {
            if entry.key().saturating_sub(self.floor) >= self.slots.len() as u64 {
                break;
            }
            let (k, chain) = entry.remove_entry();
            let idx = k as usize & (self.slots.len() - 1);
            debug_assert_eq!(self.slots[idx], EMPTY, "far tick {k} already in the ring");
            self.slots[idx] = chain;
            self.occ[idx >> 6] |= 1 << (idx & 63);
            self.ring_ticks += 1;
        }
    }

    /// Grows the ring (at least doubling it) to cover `span` ticks past
    /// `floor`, moving resident chains wholesale to their new slots.
    fn grow(&mut self, span: u64) {
        let new_cap = (span + 1).next_power_of_two() as usize;
        debug_assert!(new_cap <= MAX_RING);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        self.occ[..new_cap / 64].fill(0);
        // `floor + offset` cannot overflow: a grow means some tick at or
        // beyond `floor + old.len()` exists.
        for offset in 0..old.len() as u64 {
            let t = self.floor + offset;
            let chain = old[t as usize & (old.len() - 1)];
            if chain.0 != NIL {
                let idx = t as usize & (new_cap - 1);
                self.occ[idx >> 6] |= 1 << (idx & 63);
                self.slots[idx] = chain;
            }
        }
        // The window may now reach ticks previously parked in the far tier.
        self.migrate_far();
    }
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_order_fifo_within_ticks() {
        let mut q = CalendarQueue::new();
        q.push(5, "a");
        q.push(3, "b");
        q.push(5, "c");
        q.push(3, "d");
        q.push(10, "e");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(3, "b"), (3, "d"), (5, "a"), (5, "c"), (10, "e")]
        );
    }

    #[test]
    fn interleaved_push_pop_stays_monotone() {
        let mut q = CalendarQueue::new();
        q.push(1, 1u32);
        q.push(2, 2);
        assert_eq!(q.pop(), Some((1, 1)));
        // Push at the tick currently being drained +1 and far beyond.
        q.push(2, 3);
        q.push(700, 4);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((2, 3)));
        assert_eq!(q.pop(), Some((700, 4)));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn grows_past_initial_ring() {
        let mut q = CalendarQueue::new();
        q.push(0, 0u64);
        q.push(INITIAL_RING as u64 * 3 + 7, 1);
        q.push(2, 2);
        assert_eq!(q.pop(), Some((0, 0)));
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((INITIAL_RING as u64 * 3 + 7, 1)));
    }

    #[test]
    fn far_tier_round_trips_exponential_horizons() {
        // The slow-broadcast shape: timers at δ·nᵏ, far beyond any ring.
        let mut q = CalendarQueue::new();
        let mut expected = Vec::new();
        let mut t: Time = 100;
        for i in 0..12u64 {
            q.push(t, i);
            expected.push((t, i));
            t = t.saturating_mul(4);
        }
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expected);
    }

    /// Regression: a far-tier chain whose tick aliases the last-drained
    /// tick modulo the ring size migrates into that tick's slot, which the
    /// drained chain must have left empty — or the migrated events are
    /// stranded with their occupancy bit cleared (an infinite pop loop in
    /// release builds).
    #[test]
    fn far_bucket_aliasing_drained_tick_survives_recycle() {
        let mut q = CalendarQueue::new();
        // Tick 3 gets more than one block.
        for i in 0..9u64 {
            q.push(3, i);
        }
        // Park an event past the far horizon at a tick ≡ 3 (mod ring size;
        // MAX_RING is a multiple of every ring size the queue can have).
        let far_at = 3 + (MAX_RING as u64) * 2;
        q.push(far_at, 100);
        for i in 0..9u64 {
            assert_eq!(q.pop(), Some((3, i)));
        }
        assert_eq!(q.pop(), Some((far_at, 100)));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_events_entering_the_window_sort_before_later_ring_pushes() {
        let mut q = CalendarQueue::new();
        // Parked far beyond the initial window:
        let far_at = (MAX_RING as u64) + 50;
        q.push(far_at, "far");
        q.push(1, "near");
        assert_eq!(q.pop(), Some((1, "near")));
        // Now the cursor jumps to the far tick; a ring push at a later
        // tick must not overtake it.
        q.push(far_at + 1, "later");
        assert_eq!(q.pop(), Some((far_at, "far")));
        assert_eq!(q.pop(), Some((far_at + 1, "later")));
    }

    /// Differential test against the reference semantics: a max-heap of
    /// `Reverse((at, seq))` — exactly the ordering the simulator's
    /// `BinaryHeap` scheduler used. Besides near and very far pushes, the
    /// workload pushes same-tick bursts longer than a block, pushes at the
    /// tick being drained and at ticks aliasing it modulo the current and
    /// the largest ring, and pushes at `Time::MAX` (every fourth seed
    /// starts just below it, so its far pushes saturate there and the
    /// window reaches the top of time); `len()` is checked after every
    /// operation.
    #[test]
    fn matches_binary_heap_reference_on_random_workloads() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q = CalendarQueue::new();
            let mut heap: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now: Time = if seed % 4 == 3 {
                Time::MAX - 3_000_000
            } else {
                0
            };
            for _ in 0..3000 {
                if heap.is_empty() || rng.gen_range(0..3u32) < 2 {
                    let (delta, burst) = match rng.gen_range(0..100u32) {
                        0 | 1 => (rng.gen_range(1..5_000_000u64), 1),
                        2 => (q.slots.len() as u64 * rng.gen_range(1..3u64), 1),
                        3 => (MAX_RING as u64 * rng.gen_range(1..3u64), 1),
                        4 | 5 => (rng.gen_range(0..=1500u64), rng.gen_range(9..40u64)),
                        6 => (Time::MAX, 1),
                        _ => (rng.gen_range(0..=1500u64), 1),
                    };
                    let at = now.saturating_add(delta);
                    for _ in 0..burst {
                        seq += 1;
                        q.push(at, seq);
                        heap.push(Reverse((at, seq)));
                    }
                } else {
                    let Reverse((at, item)) = heap.pop().expect("non-empty");
                    assert_eq!(q.pop(), Some((at, item)), "seed {seed} item {item}");
                    now = at;
                }
                assert_eq!(q.len(), heap.len(), "seed {seed}");
            }
            // Drain both completely.
            while let Some(Reverse((at, item))) = heap.pop() {
                assert_eq!(q.pop(), Some((at, item)), "seed {seed} item {item}");
                assert_eq!(q.len(), heap.len(), "seed {seed}");
            }
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
    }
}
