//! The indexed configuration space of one `(params, domain)` pair.
//!
//! `I = ⋃_{x ∈ [n−t, n]} I_x` is laid out as one block per correct set `π`,
//! blocks ordered by size and then lexicographically; inside a block a
//! configuration is a number whose digits are domain indices, the smallest
//! process of `π` being digit 0 (the fastest). A configuration's index is
//! therefore its position in [`crate::enumerate_all_configs`], `I_x` is a
//! contiguous range, and a `c′ ∼ c` is reached by arithmetic — the digits of
//! the shared processes pinned, an [`Odometer`] over the others — without
//! building it.

use std::ops::Range;

use crate::config::{subsets_of_size, InputConfig};
use crate::process::{ProcessId, ProcessSet, SystemParams, MAX_PROCESSES};
use crate::value::{Domain, Value};

/// Every correct set `π` with `n − t ≤ |π| ≤ n`, by size and then
/// lexicographically — the order every enumeration of the crate follows.
pub(crate) fn correct_sets(params: SystemParams) -> impl Iterator<Item = ProcessSet> {
    (params.quorum()..=params.n()).flat_map(move |x| subsets_of_size(params.n(), x))
}

/// Counts through the `radix^k` vectors of `k ≤ MAX_PROCESSES` digits,
/// digit 0 fastest — the crate's one odometer. Its digits are a fixed array,
/// so resetting and advancing never allocate.
pub(crate) struct Odometer {
    radix: usize,
    len: usize,
    digits: [usize; MAX_PROCESSES],
}

impl Default for Odometer {
    fn default() -> Self {
        Odometer {
            radix: 0,
            len: 0,
            digits: [0; MAX_PROCESSES],
        }
    }
}

impl Odometer {
    /// Restarts at the all-zero vector of `k` digits.
    ///
    /// # Panics
    ///
    /// Panics if `k > MAX_PROCESSES`.
    pub(crate) fn reset(&mut self, radix: usize, k: usize) {
        self.radix = radix;
        self.len = k;
        self.digits[..k].fill(0);
    }

    /// The current vector.
    pub(crate) fn digits(&self) -> &[usize] {
        &self.digits[..self.len]
    }

    /// Moves to the next vector and returns the position it incremented
    /// (every lower one wrapped to 0), or `None` once all have been seen.
    #[inline]
    pub(crate) fn advance(&mut self) -> Option<usize> {
        for (position, digit) in self.digits[..self.len].iter_mut().enumerate() {
            if *digit + 1 < self.radix {
                *digit += 1;
                return Some(position);
            }
            *digit = 0;
        }
        None
    }
}

/// One correct set and the index of its first configuration.
struct Block {
    pi: ProcessSet,
    base: usize,
}

/// All input configurations over `domain`, addressable by index.
pub(crate) struct ConfigSpace<'d, V> {
    params: SystemParams,
    domain: &'d Domain<V>,
    blocks: Vec<Block>,
    len: usize,
}

impl<'d, V: Value> ConfigSpace<'d, V> {
    /// Lays the space out.
    ///
    /// # Panics
    ///
    /// Panics if `|I|` exceeds `u32::MAX`: the classifier's `val(c)` table
    /// of such a space would outgrow 64 GB, and indices that fit a `u32`
    /// keep digit decoding out of 64-bit division.
    pub(crate) fn new(params: SystemParams, domain: &'d Domain<V>) -> Self {
        let radix = u32::try_from(domain.len()).ok();
        let mut len = 0u32;
        let blocks = correct_sets(params)
            .map(|pi| {
                let base = len as usize;
                len = u32::try_from(pi.len())
                    .ok()
                    .and_then(|x| radix?.checked_pow(x))
                    .and_then(|block| len.checked_add(block))
                    .expect("the configuration space has more than u32::MAX configurations");
                Block { pi, base }
            })
            .collect();
        ConfigSpace {
            params,
            domain,
            blocks,
            len: len as usize,
        }
    }

    /// The system the configurations belong to.
    pub(crate) fn params(&self) -> SystemParams {
        self.params
    }

    /// `|I|`.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The value domain the digits index.
    pub(crate) fn domain(&self) -> &'d Domain<V> {
        self.domain
    }

    /// `|V|`, which fits a `u32` since `|I|` does.
    fn radix(&self) -> u32 {
        self.domain.len() as u32
    }

    /// The indices of `I_x` (empty unless `n − t ≤ x ≤ n`).
    pub(crate) fn of_size(&self, x: usize) -> Range<usize> {
        let first = |size| {
            let at = self.blocks.partition_point(|b| b.pi.len() < size);
            self.blocks.get(at).map_or(self.len, |b| b.base)
        };
        first(x)..first(x + 1)
    }

    /// The block holding configuration `index`.
    fn block_of(&self, index: usize) -> usize {
        debug_assert!(index < self.len);
        self.blocks.partition_point(|b| b.base <= index) - 1
    }

    /// The indices of block `at`.
    fn block_range(&self, at: usize) -> Range<usize> {
        let end = self.blocks.get(at + 1).map_or(self.len, |b| b.base);
        self.blocks[at].base..end
    }

    /// The `(process, digit)` pairs of configuration `index` of block `at`.
    fn pairs(&self, at: usize, index: usize) -> impl Iterator<Item = (ProcessId, usize)> {
        let block = &self.blocks[at];
        let radix = self.radix();
        // `|I|` fits a `u32`, so the decode never divides in 64 bits.
        let mut rest = (index - block.base) as u32;
        block.pi.iter().map(move |p| {
            let digit = rest % radix;
            rest /= radix;
            (p, digit as usize)
        })
    }

    /// Builds configuration `index`.
    pub(crate) fn config(&self, index: usize) -> InputConfig<V> {
        let pairs = self
            .pairs(self.block_of(index), index)
            .map(|(p, digit)| (p, self.domain.values()[digit].clone()));
        InputConfig::from_pairs(self.params, pairs).expect("the layout respects the invariants")
    }

    /// Builds the configurations of an index range, in index order.
    pub(crate) fn configs(
        &self,
        indices: Range<usize>,
    ) -> impl Iterator<Item = InputConfig<V>> + '_ {
        indices.map(|index| self.config(index))
    }

    /// A configuration to [`ConfigSpace::load`] others into.
    pub(crate) fn scratch(&self) -> ScratchConfig<V> {
        ScratchConfig {
            config: self.config(0),
            block: 0,
        }
    }

    /// Rewrites `scratch` into configuration `index` in place and returns
    /// it. The block is searched for only when `index` leaves the one
    /// loaded last.
    pub(crate) fn load<'c>(
        &self,
        scratch: &'c mut ScratchConfig<V>,
        index: usize,
    ) -> &'c InputConfig<V> {
        if !self.block_range(scratch.block).contains(&index) {
            scratch.block = self.block_of(index);
        }
        let values = self.domain.values();
        scratch.config.refill(
            self.pairs(scratch.block, index)
                .map(|(p, digit)| (p, values[digit].clone())),
        );
        &scratch.config
    }

    /// A walker of similarity neighbourhoods, with no plan yet.
    pub(crate) fn similar_walk(&self) -> SimilarWalk<'_, 'd, V> {
        SimilarWalk {
            space: self,
            planned: 0..0,
            planned_digits: 0,
            entries: Vec::new(),
            pins: Vec::new(),
            steps: Vec::new(),
            odometer: Odometer::default(),
        }
    }
}

/// One configuration of a [`ConfigSpace`], rewritten in place by
/// [`ConfigSpace::load`] so that visiting many configurations allocates for
/// one.
pub(crate) struct ScratchConfig<V> {
    config: InputConfig<V>,
    /// The block `config` was last loaded from.
    block: usize,
}

/// The part of `sim(c)` inside one block `π′` meeting `π(c)`: `pinned`
/// digits of `π′` copy `c`'s, an [`Odometer`] runs over the `free` others.
struct PlanEntry {
    base: u32,
    pinned: u32,
    free: u32,
}

/// Walks `sim(c)` for configurations `c` of a [`ConfigSpace`].
///
/// Every `c` of one block shares its correct set `π`, so which blocks meet
/// `π`, where each shared process sits among `c`'s digits and what each
/// odometer increment adds to the index all depend on `π` and the layout
/// only. The walker plans them when a walk enters a block other than the
/// last one's, in a few buffers reused from plan to plan; a walk then
/// decodes `c`'s digits once and adds a `digit × stride` per pinned
/// process.
pub(crate) struct SimilarWalk<'s, 'd, V> {
    space: &'s ConfigSpace<'d, V>,
    /// The indices of the block the plan is for.
    planned: Range<usize>,
    /// `|π|` of that block.
    planned_digits: usize,
    entries: Vec<PlanEntry>,
    /// Entry by entry, each pinned digit: its position among `c`'s digits
    /// and what one unit of it adds to the index.
    pins: Vec<(u32, u32)>,
    /// Entry by entry, what incrementing each odometer position adds to the
    /// index, the wrap of the lower positions to 0 included (modulo `u32`).
    steps: Vec<u32>,
    odometer: Odometer,
}

impl<V: Value> SimilarWalk<'_, '_, V> {
    /// Plans the walks of block `at`'s configurations.
    fn plan(&mut self, at: usize) {
        let space = self.space;
        let radix = space.radix();
        let pi = space.blocks[at].pi;
        let mut position = [0; MAX_PROCESSES];
        for (digit, p) in pi.iter().enumerate() {
            position[p.index()] = digit as u32;
        }
        self.planned = space.block_range(at);
        self.planned_digits = pi.len();
        self.entries.clear();
        self.pins.clear();
        self.steps.clear();
        for block in &space.blocks {
            if block.pi.intersection(pi).is_empty() {
                continue;
            }
            let (pins, steps) = (self.pins.len(), self.steps.len());
            let (mut stride, mut wrap) = (1u32, 0u32);
            for p in block.pi.iter() {
                if pi.contains(p) {
                    self.pins.push((position[p.index()], stride));
                } else {
                    self.steps.push(stride.wrapping_sub(wrap));
                    wrap = wrap.wrapping_add((radix - 1).wrapping_mul(stride));
                }
                stride = stride.wrapping_mul(radix);
            }
            self.entries.push(PlanEntry {
                base: block.base as u32,
                pinned: (self.pins.len() - pins) as u32,
                free: (self.steps.len() - steps) as u32,
            });
        }
    }

    /// Calls `f` on the indices of `sim(c)` for `c` = configuration
    /// `index`, in the order of [`crate::enumerate_similar`], until `f`
    /// returns `false`; returns whether the walk reached the end. Past the
    /// first walk of each block nothing allocates.
    #[inline]
    pub(crate) fn similar_while(&mut self, index: usize, mut f: impl FnMut(usize) -> bool) -> bool {
        if !self.planned.contains(&index) {
            self.plan(self.space.block_of(index));
        }
        let radix = self.space.radix();
        let mut digits = [0; MAX_PROCESSES];
        let mut rest = (index - self.planned.start) as u32;
        for digit in &mut digits[..self.planned_digits] {
            *digit = rest % radix;
            rest /= radix;
        }
        let (mut pins, mut steps) = (&self.pins[..], &self.steps[..]);
        for entry in &self.entries {
            let (entry_pins, rest) = pins.split_at(entry.pinned as usize);
            pins = rest;
            let (entry_steps, rest) = steps.split_at(entry.free as usize);
            steps = rest;
            let mut current = entry_pins
                .iter()
                .fold(entry.base, |at, &(position, stride)| {
                    at.wrapping_add(digits[position as usize].wrapping_mul(stride))
                });
            self.odometer.reset(radix as usize, entry_steps.len());
            loop {
                if !f(current as usize) {
                    return false;
                }
                match self.odometer.advance() {
                    Some(position) => current = current.wrapping_add(entry_steps[position]),
                    None => break,
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{enumerate_all_configs, enumerate_configs_of_size};
    use crate::relations::enumerate_similar;

    fn params(n: usize, t: usize) -> SystemParams {
        SystemParams::new(n, t).unwrap()
    }

    #[test]
    fn odometer_counts_digit_zero_fastest() {
        let mut odometer = Odometer::default();
        odometer.reset(2, 2);
        let mut seen = vec![odometer.digits().to_vec()];
        let mut incremented = Vec::new();
        while let Some(position) = odometer.advance() {
            incremented.push(position);
            seen.push(odometer.digits().to_vec());
        }
        assert_eq!(seen, [[0, 0], [1, 0], [0, 1], [1, 1]]);
        assert_eq!(incremented, [0, 1, 0]);
    }

    #[test]
    fn odometer_without_digits_has_one_vector() {
        let mut odometer = Odometer::default();
        odometer.reset(3, 0);
        assert!(odometer.digits().is_empty());
        assert_eq!(odometer.advance(), None);
    }

    #[test]
    fn an_index_is_the_position_in_enumerate_all_configs() {
        for (n, t, d) in [(3, 1, 2), (4, 1, 3), (4, 2, 2), (5, 1, 2), (6, 2, 1)] {
            let domain = Domain::range(d);
            let space = ConfigSpace::new(params(n, t), &domain);
            let all = enumerate_all_configs(params(n, t), &domain);
            assert_eq!(space.len(), all.len());
            for (index, c) in all.iter().enumerate() {
                assert_eq!(&space.config(index), c, "index {index} at ({n}, {t}, {d})");
            }
        }
    }

    #[test]
    fn sizes_are_contiguous_ranges() {
        let domain = Domain::range(3);
        let p = params(5, 2);
        let space = ConfigSpace::new(p, &domain);
        let mut next = 0;
        for x in 3..=5 {
            let range = space.of_size(x);
            assert_eq!(range.start, next);
            let built: Vec<_> = space.configs(range.clone()).collect();
            assert_eq!(built, enumerate_configs_of_size(p, &domain, x));
            next = range.end;
        }
        assert_eq!(next, space.len());
        assert!(space.of_size(2).is_empty());
        assert!(space.of_size(6).is_empty());
    }

    #[test]
    fn the_space_is_indexed_by_u32() {
        // (28, 1) over two values: 30 · 2^27 = 4 026 531 840 configurations.
        let domain = Domain::binary();
        assert_eq!(
            ConfigSpace::new(params(28, 1), &domain).len(),
            4_026_531_840
        );
    }

    #[test]
    #[should_panic(expected = "more than u32::MAX configurations")]
    fn a_space_past_u32_indices_is_refused() {
        // (29, 1) over two values: 31 · 2^28 ≈ 8.3 · 10^9 configurations.
        ConfigSpace::new(params(29, 1), &Domain::binary());
    }

    /// The indices `0..len` in a seeded random order (SplitMix64 and
    /// Fisher–Yates), so consecutive indices jump between blocks.
    fn shuffled(len: usize, seed: u64) -> Vec<usize> {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        order
    }

    #[test]
    fn a_configuration_loaded_into_the_scratch_one_is_the_built_one() {
        let domain = Domain::range(3);
        let space = ConfigSpace::new(params(5, 2), &domain);
        let mut scratch = space.scratch();
        for index in shuffled(space.len(), 7) {
            assert_eq!(space.load(&mut scratch, index), &space.config(index));
        }
    }

    #[test]
    fn walks_in_shuffled_order_replan_between_blocks() {
        for (n, t, d) in [(4, 1, 3), (5, 2, 2), (7, 2, 2)] {
            let domain = Domain::range(d);
            let space = ConfigSpace::new(params(n, t), &domain);
            let mut walk = space.similar_walk();
            let quorum = space.of_size(n - t);
            let order = shuffled(quorum.len(), (n * 100 + t * 10) as u64 + d);
            for (step, offset) in order.into_iter().enumerate() {
                let index = quorum.start + offset;
                let built = enumerate_similar(&space.config(index), &domain);
                // Every third walk stops early, after about half of `sim(c)`.
                let stop = if step % 3 == 0 {
                    built.len() / 2
                } else {
                    built.len()
                };
                let mut visited = Vec::new();
                let finished = walk.similar_while(index, |i| {
                    visited.push(space.config(i));
                    visited.len() <= stop
                });
                let at = format!("sim of index {index} at ({n}, {t}, {d}), stop {stop}");
                assert_eq!(finished, stop >= built.len(), "{at}");
                assert_eq!(visited, built[..visited.len()], "{at}");
                assert_eq!(visited.len(), built.len().min(stop + 1), "{at}");
            }
        }
    }

    /// Every index the walk visits, in order.
    fn similar(walk: &mut SimilarWalk<'_, '_, u64>, index: usize) -> Vec<usize> {
        let mut visited = Vec::new();
        assert!(walk.similar_while(index, |i| {
            visited.push(i);
            true
        }));
        visited
    }

    #[test]
    fn similar_indices_follow_enumerate_similar() {
        for (n, t, d) in [(3, 1, 2), (4, 1, 3), (4, 2, 2), (5, 2, 2)] {
            let domain = Domain::range(d);
            let space = ConfigSpace::new(params(n, t), &domain);
            let mut walk = space.similar_walk();
            for index in 0..space.len() {
                let by_index: Vec<_> = similar(&mut walk, index)
                    .into_iter()
                    .map(|i| space.config(i))
                    .collect();
                let built = enumerate_similar(&space.config(index), &domain);
                assert_eq!(by_index, built, "sim of index {index} at ({n}, {t}, {d})");
            }
        }
    }

    #[test]
    fn a_walk_stopped_early_visits_a_prefix_of_enumerate_similar() {
        // (2, 1) over 70 values: the classifier tests' domain wider than one word.
        for (n, t, d, every) in [(4, 1, 2, 1), (5, 1, 3, 7), (2, 1, 70, 97)] {
            let domain = Domain::range(d);
            let space = ConfigSpace::new(params(n, t), &domain);
            let mut walk = space.similar_walk();
            for index in (0..space.len()).step_by(every) {
                let built = enumerate_similar(&space.config(index), &domain);
                let stops = [0, 1, built.len() / 2, built.len() - 1, built.len()];
                for stop in stops {
                    let mut visited = Vec::new();
                    let finished = walk.similar_while(index, |i| {
                        visited.push(space.config(i));
                        visited.len() <= stop
                    });
                    let at = format!("sim of index {index} at ({n}, {t}, {d}), stop {stop}");
                    assert_eq!(finished, stop >= built.len(), "{at}");
                    assert_eq!(visited, built[..visited.len()], "{at}");
                    assert_eq!(visited.len(), built.len().min(stop + 1), "{at}");
                }
            }
        }
    }
}
