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
    /// Panics if `|I|` does not fit a `usize`.
    pub(crate) fn new(params: SystemParams, domain: &'d Domain<V>) -> Self {
        let mut len = 0usize;
        let blocks = correct_sets(params)
            .map(|pi| {
                let base = len;
                len = u32::try_from(pi.len())
                    .ok()
                    .and_then(|x| domain.len().checked_pow(x))
                    .and_then(|block| len.checked_add(block))
                    .expect("the configuration space is too large to index");
                Block { pi, base }
            })
            .collect();
        ConfigSpace {
            params,
            domain,
            blocks,
            len,
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

    /// The indices of `I_x` (empty unless `n − t ≤ x ≤ n`).
    pub(crate) fn of_size(&self, x: usize) -> Range<usize> {
        let first = |size| {
            let at = self.blocks.partition_point(|b| b.pi.len() < size);
            self.blocks.get(at).map_or(self.len, |b| b.base)
        };
        first(x)..first(x + 1)
    }

    /// The `(process, digit)` pairs of configuration `index`.
    fn pairs(&self, index: usize) -> impl Iterator<Item = (ProcessId, usize)> + '_ {
        debug_assert!(index < self.len);
        let block = &self.blocks[self.blocks.partition_point(|b| b.base <= index) - 1];
        let radix = self.domain.len();
        let mut rest = index - block.base;
        block.pi.iter().map(move |p| {
            let digit = rest % radix;
            rest /= radix;
            (p, digit)
        })
    }

    /// Builds configuration `index`.
    pub(crate) fn config(&self, index: usize) -> InputConfig<V> {
        let pairs = self
            .pairs(index)
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

    /// Calls `f` on the indices of `sim(c)` for `c` = configuration
    /// `index`, in the order of [`crate::enumerate_similar`], until `f`
    /// returns `false`; returns whether the walk reached the end.
    ///
    /// Per block sharing a process with `π(c)` the shared digits are pinned
    /// to `c`'s and an [`Odometer`] runs over the others, each increment
    /// adding a precomputed step to the index. Every buffer is a fixed
    /// array, so the walk never allocates.
    #[inline]
    pub(crate) fn similar_while(&self, index: usize, mut f: impl FnMut(usize) -> bool) -> bool {
        let radix = self.domain.len();
        let mut pi = ProcessSet::new();
        // `c`'s digit per process index (meaningful on `π(c)` only).
        let mut digit_of = [0; MAX_PROCESSES];
        for (p, digit) in self.pairs(index) {
            pi.insert(p);
            digit_of[p.index()] = digit;
        }
        // What incrementing each odometer position adds to the index, the
        // wrap of the lower positions to 0 included (modulo `usize`).
        let mut steps = [0; MAX_PROCESSES];
        let mut odometer = Odometer::default();
        for block in &self.blocks {
            if block.pi.intersection(pi).is_empty() {
                continue;
            }
            let mut current = block.base;
            let (mut stride, mut wrap, mut free) = (1, 0, 0);
            for p in block.pi.iter() {
                if pi.contains(p) {
                    current += digit_of[p.index()] * stride;
                } else {
                    steps[free] = stride.wrapping_sub(wrap);
                    wrap += (radix - 1) * stride;
                    free += 1;
                }
                stride *= radix;
            }
            odometer.reset(radix, free);
            loop {
                if !f(current) {
                    return false;
                }
                match odometer.advance() {
                    Some(position) => current = current.wrapping_add(steps[position]),
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

    /// Every index the walk visits, in order.
    fn similar(space: &ConfigSpace<'_, u64>, index: usize) -> Vec<usize> {
        let mut visited = Vec::new();
        assert!(space.similar_while(index, |i| {
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
            for index in 0..space.len() {
                let by_index: Vec<_> = similar(&space, index)
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
            for index in (0..space.len()).step_by(every) {
                let built = enumerate_similar(&space.config(index), &domain);
                let stops = [0, 1, built.len() / 2, built.len() - 1, built.len()];
                for stop in stops {
                    let mut visited = Vec::new();
                    let finished = space.similar_while(index, |i| {
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
