//! Input configurations (§3.3).
//!
//! An *input configuration* is a tuple of `x` process–proposal pairs with
//! `n − t ≤ x ≤ n`, each pair naming a distinct process: it records which
//! processes are correct in an execution and what they propose. `I` denotes
//! the set of all input configurations and `I_x ⊂ I` those with exactly `x`
//! pairs.

use std::fmt;

use crate::process::{ProcessId, ProcessSet, SystemParams};
use crate::space::ConfigSpace;
use crate::value::{Domain, Value};

/// An assignment of proposals to correct processes (the paper's input
/// configuration, §3.3).
///
/// Internally a length-`n` vector of `Option<V>`: `slots[i] = Some(v)` iff the
/// pair `(P_{i+1}, v)` belongs to the configuration (`c[i] ≠ ⊥`).
///
/// # Examples
///
/// ```
/// use validity_core::{InputConfig, SystemParams, ProcessId};
///
/// let params = SystemParams::new(4, 1)?;
/// // ⟨(P1, 7), (P2, 7), (P3, 9)⟩ — P4 is faulty.
/// let c = InputConfig::from_pairs(params, [(0usize, 7u64), (1, 7), (2, 9)])?;
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.proposal(ProcessId(0)), Some(&7));
/// assert_eq!(c.proposal(ProcessId(3)), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputConfig<V> {
    params: SystemParams,
    slots: Vec<Option<V>>,
}

/// Error returned when an [`InputConfig`] would violate its invariants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// The number of pairs `x` must satisfy `n − t ≤ x ≤ n`.
    SizeOutOfRange {
        /// The offending pair count.
        x: usize,
        /// System size.
        n: usize,
        /// Fault threshold.
        t: usize,
    },
    /// Two pairs named the same process.
    DuplicateProcess(ProcessId),
    /// A pair named a process outside `Π`.
    UnknownProcess(ProcessId),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::SizeOutOfRange { x, n, t } => write!(
                f,
                "input configuration has {x} pairs, expected between n − t = {} and n = {n}",
                n - t
            ),
            ConfigError::DuplicateProcess(p) => {
                write!(f, "process {p} appears in two process-proposal pairs")
            }
            ConfigError::UnknownProcess(p) => {
                write!(f, "process {p} is outside the system")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl<V: Value> InputConfig<V> {
    /// Builds a configuration from `(process index, proposal)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a process repeats, is out of range, or the
    /// pair count is outside `[n − t, n]`.
    pub fn from_pairs<I, P>(params: SystemParams, pairs: I) -> Result<Self, ConfigError>
    where
        I: IntoIterator<Item = (P, V)>,
        P: Into<ProcessId>,
    {
        let mut slots: Vec<Option<V>> = vec![None; params.n()];
        let mut count = 0usize;
        for (p, v) in pairs {
            let p: ProcessId = p.into();
            if p.index() >= params.n() {
                return Err(ConfigError::UnknownProcess(p));
            }
            if slots[p.index()].is_some() {
                return Err(ConfigError::DuplicateProcess(p));
            }
            slots[p.index()] = Some(v);
            count += 1;
        }
        if count < params.quorum() || count > params.n() {
            return Err(ConfigError::SizeOutOfRange {
                x: count,
                n: params.n(),
                t: params.t(),
            });
        }
        Ok(InputConfig { params, slots })
    }

    /// Builds the configuration in which *all* processes are correct and
    /// process `i` proposes `proposals[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `proposals.len() != n`.
    pub fn complete(params: SystemParams, proposals: Vec<V>) -> Self {
        assert_eq!(
            proposals.len(),
            params.n(),
            "complete configuration needs exactly n proposals"
        );
        InputConfig {
            params,
            slots: proposals.into_iter().map(Some).collect(),
        }
    }

    /// Builds the configuration where every process in `correct` proposes `v`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `|correct|` is outside `[n − t, n]`.
    pub fn unanimous(params: SystemParams, correct: ProcessSet, v: V) -> Result<Self, ConfigError> {
        InputConfig::from_pairs(params, correct.iter().map(|p| (p, v.clone())))
    }

    /// Replaces the pairs with `pairs` in place, keeping the slot buffer.
    /// The caller guarantees what [`InputConfig::from_pairs`] checks:
    /// distinct processes of `Π`, between `n − t` and `n` of them.
    pub(crate) fn refill(&mut self, pairs: impl IntoIterator<Item = (ProcessId, V)>) {
        self.slots.fill(None);
        for (p, v) in pairs {
            debug_assert!(self.slots[p.index()].is_none(), "{p} named twice");
            self.slots[p.index()] = Some(v);
        }
        debug_assert!((self.params.quorum()..=self.params.n()).contains(&self.len()));
    }

    /// The system parameters this configuration was built against.
    pub fn params(&self) -> SystemParams {
        self.params
    }

    /// `π(c)`: the set of processes named by the configuration.
    pub fn pi(&self) -> ProcessSet {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ProcessId::from_index(i)))
            .collect()
    }

    /// Number of process–proposal pairs `x = |π(c)|`.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Whether the configuration is empty (never true: `x ≥ n − t ≥ 1`).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `proposal(c[i])`: the proposal of process `p`, or `None` if `c[i] = ⊥`.
    pub fn proposal(&self, p: ProcessId) -> Option<&V> {
        self.slots.get(p.index()).and_then(|s| s.as_ref())
    }

    /// Iterates over the process–proposal pairs in process order.
    pub fn pairs(&self) -> impl Iterator<Item = (ProcessId, &V)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (ProcessId::from_index(i), v)))
    }

    /// The multiset of proposals, in process order.
    pub fn proposals(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// The proposals sorted ascending (used by rank-based validity
    /// properties such as Median and Interval validity).
    pub fn sorted_proposals(&self) -> Vec<V> {
        // Sized up front: `proposals()` is a filter, so a bare `collect`
        // would regrow the buffer once per doubling of `x`.
        let mut v: Vec<V> = Vec::with_capacity(self.len());
        v.extend(self.proposals().cloned());
        v.sort();
        v
    }

    /// Number of pairs whose proposal equals `v`.
    pub fn multiplicity(&self, v: &V) -> usize {
        self.proposals().filter(|p| *p == v).count()
    }

    /// Whether all named processes propose the same value; returns it if so.
    pub fn unanimous_value(&self) -> Option<&V> {
        let mut iter = self.proposals();
        let first = iter.next()?;
        for v in iter {
            if v != first {
                return None;
            }
        }
        Some(first)
    }

    /// Returns a copy with process `p` removed.
    ///
    /// The result may violate the size invariant (used internally by proof
    /// constructions which immediately re-add a pair); the caller is expected
    /// to restore it. Returns `None` if `p ∉ π(c)`.
    pub fn without(&self, p: ProcessId) -> Option<RawConfig<V>> {
        self.proposal(p)?;
        let mut slots = self.slots.clone();
        slots[p.index()] = None;
        Some(RawConfig {
            params: self.params,
            slots,
        })
    }

    /// Returns a copy extended with the pair `(p, v)`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `p` is already named or out of range, or the
    /// result would exceed `n` pairs.
    pub fn with(&self, p: ProcessId, v: V) -> Result<Self, ConfigError> {
        if p.index() >= self.params.n() {
            return Err(ConfigError::UnknownProcess(p));
        }
        if self.proposal(p).is_some() {
            return Err(ConfigError::DuplicateProcess(p));
        }
        let mut slots = self.slots.clone();
        slots[p.index()] = Some(v);
        Ok(InputConfig {
            params: self.params,
            slots,
        })
    }
}

/// A relaxed input configuration that may temporarily violate the
/// `x ≥ n − t` size invariant; produced by [`InputConfig::without`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawConfig<V> {
    params: SystemParams,
    slots: Vec<Option<V>>,
}

impl<V: Value> RawConfig<V> {
    /// Adds the pair `(p, v)` and re-validates into an [`InputConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on duplicate/unknown process or a final size
    /// outside `[n − t, n]`.
    pub fn with(mut self, p: ProcessId, v: V) -> Result<InputConfig<V>, ConfigError> {
        if p.index() >= self.params.n() {
            return Err(ConfigError::UnknownProcess(p));
        }
        if self.slots[p.index()].is_some() {
            return Err(ConfigError::DuplicateProcess(p));
        }
        self.slots[p.index()] = Some(v);
        self.finish()
    }

    /// Re-validates without adding a pair.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::SizeOutOfRange`] if the size invariant fails.
    pub fn finish(self) -> Result<InputConfig<V>, ConfigError> {
        let count = self.slots.iter().filter(|s| s.is_some()).count();
        if count < self.params.quorum() || count > self.params.n() {
            return Err(ConfigError::SizeOutOfRange {
                x: count,
                n: self.params.n(),
                t: self.params.t(),
            });
        }
        Ok(InputConfig {
            params: self.params,
            slots: self.slots,
        })
    }
}

impl<V: fmt::Debug> fmt::Debug for InputConfig<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        let mut first = true;
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(v) = slot {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "({}, {v:?})", ProcessId::from_index(i))?;
            }
        }
        write!(f, "⟩")
    }
}

/// Enumerates all subsets of `{0..n}` of size `k` as [`ProcessSet`]s, in
/// lexicographic order of member indices.
pub fn subsets_of_size(n: usize, k: usize) -> Vec<ProcessSet> {
    let mut out = Vec::new();
    if k > n {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().copied().collect());
        // advance the combination odometer
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Enumerates `I_x`: all input configurations with exactly `x` pairs whose
/// proposals come from `domain`, correct sets in lexicographic order and,
/// within one, the smallest process's proposal varying fastest.
///
/// The count is `C(n, x) · |domain|^x`, so callers should keep `n` and the
/// domain small: `n = 7`, `t = 2`, `|domain| = 3` already makes `|I|` 12 393.
pub fn enumerate_configs_of_size<V: Value>(
    params: SystemParams,
    domain: &Domain<V>,
    x: usize,
) -> Vec<InputConfig<V>> {
    let space = ConfigSpace::new(params, domain);
    space.configs(space.of_size(x)).collect()
}

/// Enumerates the full set `I = ⋃_{x ∈ [n−t, n]} I_x` over `domain`.
pub fn enumerate_all_configs<V: Value>(
    params: SystemParams,
    domain: &Domain<V>,
) -> Vec<InputConfig<V>> {
    let space = ConfigSpace::new(params, domain);
    space.configs(0..space.len()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: usize, t: usize) -> SystemParams {
        SystemParams::new(n, t).unwrap()
    }

    #[test]
    fn from_pairs_happy_path() {
        let c = InputConfig::from_pairs(params(4, 1), [(0usize, 1u64), (1, 2), (2, 3)]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.pi().len(), 3);
        assert_eq!(c.proposal(ProcessId(1)), Some(&2));
        assert_eq!(c.proposal(ProcessId(3)), None);
    }

    #[test]
    fn from_pairs_rejects_small_and_large() {
        let err = InputConfig::from_pairs(params(4, 1), [(0usize, 1u64), (1, 2)]).unwrap_err();
        assert!(matches!(err, ConfigError::SizeOutOfRange { x: 2, .. }));
        // 5 pairs with n = 4 is impossible to even build distinctly, but a
        // duplicate is the natural error there:
        let err = InputConfig::from_pairs(params(4, 1), [(0usize, 1u64), (0, 2), (1, 3), (2, 4)])
            .unwrap_err();
        assert!(matches!(err, ConfigError::DuplicateProcess(ProcessId(0))));
    }

    #[test]
    fn from_pairs_rejects_unknown_process() {
        let err =
            InputConfig::from_pairs(params(4, 1), [(0usize, 1u64), (1, 1), (9, 1)]).unwrap_err();
        assert!(matches!(err, ConfigError::UnknownProcess(ProcessId(9))));
    }

    #[test]
    fn unanimous_and_complete() {
        let p = params(4, 1);
        let all = InputConfig::complete(p, vec![5u64, 5, 5, 5]);
        assert_eq!(all.len(), 4);
        assert_eq!(all.unanimous_value(), Some(&5));

        let sub = InputConfig::unanimous(p, [0usize, 1, 2].into_iter().collect(), 7u64).unwrap();
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.unanimous_value(), Some(&7));
    }

    #[test]
    fn unanimous_value_detects_disagreement() {
        let c = InputConfig::from_pairs(params(4, 1), [(0usize, 1u64), (1, 1), (2, 2)]).unwrap();
        assert_eq!(c.unanimous_value(), None);
    }

    #[test]
    fn multiplicity_and_sorted() {
        let c = InputConfig::from_pairs(params(5, 1), [(0usize, 3u64), (1, 1), (2, 3), (3, 2)])
            .unwrap();
        assert_eq!(c.multiplicity(&3), 2);
        assert_eq!(c.multiplicity(&9), 0);
        assert_eq!(c.sorted_proposals(), vec![1, 2, 3, 3]);
    }

    #[test]
    fn with_and_without_roundtrip() {
        let p = params(4, 1);
        let c = InputConfig::from_pairs(p, [(0usize, 1u64), (1, 2), (2, 3)]).unwrap();
        let bigger = c.with(ProcessId(3), 4).unwrap();
        assert_eq!(bigger.len(), 4);
        let raw = bigger.without(ProcessId(0)).unwrap();
        let back = raw.finish().unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.proposal(ProcessId(0)), None);
    }

    #[test]
    fn without_then_with_swaps_a_process() {
        // The Lemma 6 construction: remove Q's pair, add (Z, any proposal).
        let p = params(4, 1);
        let c = InputConfig::from_pairs(p, [(0usize, 1u64), (1, 2), (2, 3)]).unwrap();
        let swapped = c
            .without(ProcessId(2))
            .unwrap()
            .with(ProcessId(3), 9)
            .unwrap();
        assert_eq!(swapped.proposal(ProcessId(2)), None);
        assert_eq!(swapped.proposal(ProcessId(3)), Some(&9));
    }

    #[test]
    fn subsets_counts_match_binomials() {
        assert_eq!(subsets_of_size(5, 0).len(), 1);
        assert_eq!(subsets_of_size(5, 2).len(), 10);
        assert_eq!(subsets_of_size(5, 5).len(), 1);
        assert_eq!(subsets_of_size(6, 3).len(), 20);
        assert_eq!(subsets_of_size(3, 4).len(), 0);
    }

    #[test]
    fn subsets_have_right_size_and_are_distinct() {
        let subs = subsets_of_size(7, 3);
        for s in &subs {
            assert_eq!(s.len(), 3);
        }
        let mut dedup = subs.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), subs.len());
    }

    #[test]
    fn enumerate_sizes() {
        let p = params(4, 1);
        let d = Domain::binary();
        // I_3: C(4,3) * 2^3 = 32; I_4: 1 * 16 = 16.
        assert_eq!(enumerate_configs_of_size(p, &d, 3).len(), 32);
        assert_eq!(enumerate_configs_of_size(p, &d, 4).len(), 16);
        assert_eq!(enumerate_all_configs(p, &d).len(), 48);
        assert_eq!(enumerate_configs_of_size(p, &d, 2).len(), 0);
    }

    #[test]
    fn enumerated_configs_are_distinct() {
        let p = params(4, 1);
        let d = Domain::binary();
        let mut all = enumerate_all_configs(p, &d);
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total);
    }

    #[test]
    fn debug_formatting() {
        let c = InputConfig::from_pairs(params(4, 1), [(0usize, 1u64), (1, 0), (2, 1)]).unwrap();
        assert_eq!(format!("{c:?}"), "⟨(P1, 1), (P2, 0), (P3, 1)⟩");
    }
}
