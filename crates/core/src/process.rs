//! Processes, process sets, and system parameters.
//!
//! The paper considers a system `Π = {P_1, ..., P_n}` of `n` processes out of
//! which at most `t` (`0 < t < n`) may be faulty (§3.1). This module provides
//! the identifiers for processes ([`ProcessId`]), compact sets of processes
//! ([`ProcessSet`], a bitset supporting up to 128 processes), and the system
//! parameters ([`SystemParams`]).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Maximum number of processes supported by [`ProcessSet`]'s bitset encoding.
pub const MAX_PROCESSES: usize = 128;

/// Identifier of a process `P_i`.
///
/// Identifiers are zero-based indices into the system `Π`: the paper's `P_1`
/// is `ProcessId(0)`, displayed as `P1`.
///
/// # Examples
///
/// ```
/// use validity_core::ProcessId;
///
/// let p = ProcessId(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "P3");
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct ProcessId(pub u32);

impl ProcessId {
    /// Returns the zero-based index of this process.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a process identifier from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_PROCESSES`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        assert!(
            index < MAX_PROCESSES,
            "process index {index} exceeds MAX_PROCESSES = {MAX_PROCESSES}"
        );
        ProcessId(index as u32)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0 + 1)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId::from_index(index)
    }
}

/// A set of processes, stored as a 128-bit bitmask.
///
/// Supports the set operations the formalism needs: `π(c1) ∩ π(c2)`,
/// `π(c1) \ π(c2)`, cardinalities, and iteration — all O(1) or O(n).
///
/// # Examples
///
/// ```
/// use validity_core::{ProcessId, ProcessSet};
///
/// let a: ProcessSet = [0usize, 1, 2].into_iter().collect();
/// let b: ProcessSet = [2usize, 3].into_iter().collect();
/// assert_eq!(a.intersection(b).len(), 1);
/// assert!(a.intersection(b).contains(ProcessId(2)));
/// assert_eq!(a.difference(b).len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct ProcessSet(u128);

impl ProcessSet {
    /// The empty set.
    pub const EMPTY: ProcessSet = ProcessSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        ProcessSet(0)
    }

    /// The full set `{P_1, ..., P_n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCESSES`.
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_PROCESSES, "n = {n} exceeds MAX_PROCESSES");
        if n == MAX_PROCESSES {
            ProcessSet(u128::MAX)
        } else {
            ProcessSet((1u128 << n) - 1)
        }
    }

    /// Inserts a process; returns `true` if it was absent.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let bit = 1u128 << p.index();
        let was_absent = self.0 & bit == 0;
        self.0 |= bit;
        was_absent
    }

    /// Removes a process; returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let bit = 1u128 << p.index();
        let was_present = self.0 & bit != 0;
        self.0 &= !bit;
        was_present
    }

    /// Tests membership.
    #[inline]
    pub fn contains(self, p: ProcessId) -> bool {
        self.0 & (1u128 << p.index()) != 0
    }

    /// Number of processes in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & other.0)
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 | other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn difference(self, other: ProcessSet) -> ProcessSet {
        ProcessSet(self.0 & !other.0)
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: ProcessSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = ProcessId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let idx = bits.trailing_zeros();
                bits &= bits - 1;
                Some(ProcessId(idx))
            }
        })
    }

    /// The smallest member, if any.
    pub fn first(self) -> Option<ProcessId> {
        if self.0 == 0 {
            None
        } else {
            Some(ProcessId(self.0.trailing_zeros()))
        }
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::new();
        for p in iter {
            s.insert(p);
        }
        s
    }
}

impl FromIterator<usize> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        iter.into_iter().map(ProcessId::from_index).collect()
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// System parameters `(n, t)`: `n` processes, at most `t` faulty, `0 < t < n`.
///
/// The paper's results split on the resilience regime: with `n ≤ 3t` all
/// solvable validity properties are trivial (Theorem 1), while with `n > 3t`
/// the similarity condition `C_S` characterizes solvability (Theorems 3 & 5).
///
/// # Examples
///
/// ```
/// use validity_core::SystemParams;
///
/// let params = SystemParams::new(7, 2)?;
/// assert!(params.supports_non_trivial()); // 7 > 3·2
/// assert_eq!(params.quorum(), 5);         // n − t
/// # Ok::<(), validity_core::ParamError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct SystemParams {
    n: usize,
    t: usize,
}

/// Error returned when constructing invalid [`SystemParams`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParamError {
    /// `t` must satisfy `0 < t < n`.
    ThresholdOutOfRange {
        /// System size.
        n: usize,
        /// Offending fault threshold.
        t: usize,
    },
    /// `n` exceeds [`MAX_PROCESSES`].
    TooManyProcesses {
        /// Offending system size.
        n: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::ThresholdOutOfRange { n, t } => {
                write!(f, "fault threshold t = {t} must satisfy 0 < t < n = {n}")
            }
            ParamError::TooManyProcesses { n } => {
                write!(
                    f,
                    "n = {n} exceeds the supported maximum of {MAX_PROCESSES} processes"
                )
            }
        }
    }
}

impl std::error::Error for ParamError {}

impl SystemParams {
    /// Creates system parameters, validating `0 < t < n ≤ MAX_PROCESSES`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the bounds are violated.
    pub fn new(n: usize, t: usize) -> Result<Self, ParamError> {
        if n > MAX_PROCESSES {
            return Err(ParamError::TooManyProcesses { n });
        }
        if t == 0 || t >= n {
            return Err(ParamError::ThresholdOutOfRange { n, t });
        }
        Ok(SystemParams { n, t })
    }

    /// Total number of processes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Fault threshold `t`.
    #[inline]
    pub fn t(&self) -> usize {
        self.t
    }

    /// `n − t`, the minimum number of correct processes (and the quorum size
    /// used throughout the paper's algorithms).
    #[inline]
    pub fn quorum(&self) -> usize {
        self.n - self.t
    }

    /// Whether `n > 3t`: the regime where non-trivial validity properties can
    /// be solvable (Theorem 1 shows they cannot be when `n ≤ 3t`).
    #[inline]
    pub fn supports_non_trivial(&self) -> bool {
        self.n > 3 * self.t
    }

    /// Iterator over all process identifiers `P_1 ... P_n`.
    pub fn processes(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.n).map(ProcessId::from_index)
    }

    /// The full process set `Π`.
    pub fn all(&self) -> ProcessSet {
        ProcessSet::full(self.n)
    }
}

impl fmt::Display for SystemParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(n = {}, t = {})", self.n, self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_is_one_based() {
        assert_eq!(ProcessId(0).to_string(), "P1");
        assert_eq!(ProcessId(9).to_string(), "P10");
    }

    #[test]
    fn process_id_from_index_roundtrip() {
        for i in 0..MAX_PROCESSES {
            assert_eq!(ProcessId::from_index(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PROCESSES")]
    fn process_id_out_of_range_panics() {
        let _ = ProcessId::from_index(MAX_PROCESSES);
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = ProcessSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ProcessId(3)));
        assert!(!s.insert(ProcessId(3)));
        assert!(s.contains(ProcessId(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(ProcessId(3)));
        assert!(!s.remove(ProcessId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn set_full_has_n_members() {
        for n in [1, 5, 64, 127, 128] {
            let s = ProcessSet::full(n);
            assert_eq!(s.len(), n);
            assert!(s.contains(ProcessId::from_index(n - 1)));
        }
    }

    #[test]
    fn set_operations() {
        let a: ProcessSet = [0usize, 1, 2, 3].into_iter().collect();
        let b: ProcessSet = [2usize, 3, 4].into_iter().collect();
        assert_eq!(a.intersection(b).len(), 2);
        assert_eq!(a.union(b).len(), 5);
        assert_eq!(a.difference(b).len(), 2);
        assert_eq!(b.difference(a).len(), 1);
        assert!(a.intersection(b).is_subset(a));
        assert!(a.intersection(b).is_subset(b));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn set_iter_is_sorted() {
        let s: ProcessSet = [5usize, 1, 3].into_iter().collect();
        let ids: Vec<usize> = s.iter().map(|p| p.index()).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert_eq!(s.first(), Some(ProcessId(1)));
    }

    #[test]
    fn set_display() {
        let s: ProcessSet = [0usize, 2].into_iter().collect();
        assert_eq!(s.to_string(), "{P1, P3}");
        assert_eq!(ProcessSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn params_validation() {
        assert!(SystemParams::new(4, 1).is_ok());
        assert!(SystemParams::new(4, 0).is_err());
        assert!(SystemParams::new(4, 4).is_err());
        assert!(SystemParams::new(300, 1).is_err());
    }

    #[test]
    fn params_resilience_regimes() {
        let weak = SystemParams::new(3, 1).unwrap();
        assert!(!weak.supports_non_trivial());
        let strong = SystemParams::new(4, 1).unwrap();
        assert!(strong.supports_non_trivial());
        assert_eq!(strong.quorum(), 3);
    }

    #[test]
    fn optimal_resilience_picks_largest_t() {
        // t = ⌊(n − 1)/3⌋ is the largest t with n > 3t.
        let p = SystemParams::new(10, (10 - 1) / 3).unwrap();
        assert_eq!(p.t(), 3);
        assert!(p.supports_non_trivial());
        assert!(!SystemParams::new(10, 4).unwrap().supports_non_trivial());
    }

    #[test]
    fn params_processes_iterates_all() {
        let p = SystemParams::new(5, 1).unwrap();
        assert_eq!(p.processes().count(), 5);
        assert_eq!(p.all().len(), 5);
    }
}
