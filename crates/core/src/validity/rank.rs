//! Rank-based validity properties over ordered value domains:
//! Median Validity \[89\], Interval Validity \[71\], Convex-Hull Validity
//! \[2, 48, 49, 72\], and the (unsolvable) Exact-Median Validity used as a
//! C_S-violation witness.

use crate::config::InputConfig;
use crate::validity::ValidityProperty;
use crate::value::Value;

/// 1-indexed lower median rank of `x` items: `⌈x/2⌉`.
fn median_rank(x: usize) -> usize {
    x.div_ceil(2)
}

/// Whether `p_lo ≤ v ≤ p_hi` for the sorted proposals `p_1 ≤ … ≤ p_x` of
/// `c`, with `lo = max(1, r − slack)`, `hi = min(x, r + slack)` and the
/// 1-indexed rank `r = rank(x)`.
///
/// Counted, not sorted: `p_k ≤ v` iff at least `k` proposals are `≤ v`, and
/// `v ≤ p_k` iff fewer than `k` are `< v`.
fn in_rank_window<V: Value>(
    c: &InputConfig<V>,
    rank: impl FnOnce(usize) -> usize,
    slack: usize,
    v: &V,
) -> bool {
    let (mut x, mut below, mut at_most) = (0, 0, 0);
    for p in c.proposals() {
        x += 1;
        below += usize::from(p < v);
        at_most += usize::from(p <= v);
    }
    let rank = rank(x);
    let lo = rank.saturating_sub(slack).max(1);
    let hi = (rank + slack).min(x);
    lo <= at_most && below < hi
}

/// Median Validity (Stolz–Wattenhofer \[89\]).
///
/// Let `p_1 ≤ ... ≤ p_x` be the sorted proposals of the correct processes and
/// `m = ⌈x/2⌉` the (lower) median rank. With slack `s`:
///
/// ```text
/// val(c) = { v | p_{max(1, m−s)} ≤ v ≤ p_{min(x, m+s)} }
/// ```
///
/// With `s = t` (the standard choice — `t` Byzantine processes can shift the
/// perceived median by up to `t` ranks) the property satisfies `C_S` for
/// `n > 3t` and is therefore solvable by `Universal`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MedianValidity {
    slack: usize,
}

impl MedianValidity {
    /// Median validity with the given rank slack (use `t` for the solvable
    /// variant).
    pub fn with_slack(slack: usize) -> Self {
        MedianValidity { slack }
    }

    /// The rank slack.
    pub fn slack(&self) -> usize {
        self.slack
    }
}

impl<V: Value> ValidityProperty<V> for MedianValidity {
    fn name(&self) -> String {
        format!("Median Validity (slack {})", self.slack)
    }

    fn is_admissible(&self, c: &InputConfig<V>, v: &V) -> bool {
        in_rank_window(c, median_rank, self.slack, v)
    }
}

/// Interval Validity (Melnyk–Wattenhofer \[71\]): the decision must be close in
/// rank to the `k`-th smallest correct proposal.
///
/// ```text
/// val(c) = { v | p_{max(1, k'−s)} ≤ v ≤ p_{min(x, k'+s)} }   with k' = min(k, x)
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IntervalValidity {
    k: usize,
    slack: usize,
}

impl IntervalValidity {
    /// Interval validity around the `k`-th smallest proposal (1-indexed) with
    /// the given rank slack.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (ranks are 1-indexed).
    pub fn new(k: usize, slack: usize) -> Self {
        assert!(k >= 1, "ranks are 1-indexed");
        IntervalValidity { k, slack }
    }

    /// The target rank `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The rank slack.
    pub fn slack(&self) -> usize {
        self.slack
    }
}

impl<V: Value> ValidityProperty<V> for IntervalValidity {
    fn name(&self) -> String {
        format!("Interval Validity (k = {}, slack {})", self.k, self.slack)
    }

    fn is_admissible(&self, c: &InputConfig<V>, v: &V) -> bool {
        in_rank_window(c, |x| self.k.min(x), self.slack, v)
    }
}

/// Convex-Hull Validity \[2, 72\]: the decision must lie in the convex hull of
/// the correct proposals — for a totally ordered domain, between the minimum
/// and maximum correct proposal.
///
/// The paper studies this property for *exact* consensus (§2): unlike
/// approximate agreement, correct processes must decide the very same hull
/// point. It satisfies `C_S` for `n > 3t`, with
/// `Λ(c) ∈ [p_{t+1}, p_{n−2t}]` (see `crate::lambda`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConvexHullValidity;

impl<V: Value> ValidityProperty<V> for ConvexHullValidity {
    fn name(&self) -> String {
        "Convex-Hull Validity".to_string()
    }

    fn is_admissible(&self, c: &InputConfig<V>, v: &V) -> bool {
        let min = c.proposals().min().expect("configurations are non-empty");
        let max = c.proposals().max().expect("configurations are non-empty");
        min <= v && v <= max
    }
}

/// Exact-Median Validity: the decision must equal the lower median of the
/// correct proposals — *no slack*.
///
/// This property is well-formed but violates the similarity condition for
/// every `n > 3t` over domains with at least two values: two similar
/// configurations can have disjoint `{median}` singletons, so
/// `∩_{c′ ∼ c} val(c′) = ∅`. It is the canonical *unsolvable non-trivial*
/// witness in the classification experiments (Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ExactMedianValidity;

impl<V: Value> ValidityProperty<V> for ExactMedianValidity {
    fn name(&self) -> String {
        "Exact-Median Validity".to_string()
    }

    fn is_admissible(&self, c: &InputConfig<V>, v: &V) -> bool {
        // A window of one rank: `p_m ≤ v ≤ p_m`.
        in_rank_window(c, median_rank, 0, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::SystemParams;
    use crate::value::Domain;

    fn cfg(n: usize, t: usize, pairs: &[(usize, u64)]) -> InputConfig<u64> {
        InputConfig::from_pairs(SystemParams::new(n, t).unwrap(), pairs.iter().copied()).unwrap()
    }

    #[test]
    fn median_rank_is_lower_median() {
        assert_eq!(median_rank(1), 1);
        assert_eq!(median_rank(2), 1);
        assert_eq!(median_rank(3), 2);
        assert_eq!(median_rank(4), 2);
        assert_eq!(median_rank(5), 3);
    }

    #[test]
    fn median_validity_window() {
        // proposals 10, 20, 30, 40 (x = 4, m = 2); slack 1 ⇒ [p1, p3] = [10, 30].
        let c = cfg(5, 1, &[(0, 10), (1, 20), (2, 30), (3, 40)]);
        let mv = MedianValidity::with_slack(1);
        assert!(mv.is_admissible(&c, &10));
        assert!(mv.is_admissible(&c, &25)); // any domain value inside the window
        assert!(mv.is_admissible(&c, &30));
        assert!(!mv.is_admissible(&c, &40));
        assert!(!mv.is_admissible(&c, &5));
    }

    #[test]
    fn median_validity_zero_slack_is_exact_median() {
        let c = cfg(5, 1, &[(0, 10), (1, 20), (2, 30), (3, 40)]);
        let mv = MedianValidity::with_slack(0);
        let d = Domain::new(vec![10u64, 20, 25, 30, 40]);
        let set: Vec<u64> = mv.admissible_set(&c, &d).into_iter().collect();
        assert_eq!(set, vec![20]);
        assert!(ExactMedianValidity.is_admissible(&c, &20));
        assert!(!ExactMedianValidity.is_admissible(&c, &30));
    }

    #[test]
    fn interval_validity_windows() {
        let c = cfg(5, 1, &[(0, 1), (1, 3), (2, 5), (3, 7)]);
        // k = 1, slack 1 ⇒ [p1, p2] = [1, 3]
        let iv = IntervalValidity::new(1, 1);
        assert!(iv.is_admissible(&c, &1));
        assert!(iv.is_admissible(&c, &2));
        assert!(iv.is_admissible(&c, &3));
        assert!(!iv.is_admissible(&c, &5));
        // k beyond x clamps to x: k = 9 ⇒ k' = 4, window [p3, p4] = [5, 7]
        let iv = IntervalValidity::new(9, 1);
        assert!(iv.is_admissible(&c, &6));
        assert!(!iv.is_admissible(&c, &3));
    }

    #[test]
    #[should_panic(expected = "1-indexed")]
    fn interval_validity_rejects_rank_zero() {
        let _ = IntervalValidity::new(0, 1);
    }

    #[test]
    fn convex_hull_is_min_max_window() {
        let c = cfg(4, 1, &[(0, 4), (1, 9), (2, 6)]);
        assert!(ConvexHullValidity.is_admissible(&c, &4));
        assert!(ConvexHullValidity.is_admissible(&c, &7));
        assert!(ConvexHullValidity.is_admissible(&c, &9));
        assert!(!ConvexHullValidity.is_admissible(&c, &3));
        assert!(!ConvexHullValidity.is_admissible(&c, &10));
    }

    #[test]
    fn exact_median_singleton() {
        let c = cfg(4, 1, &[(0, 2), (1, 8), (2, 5)]);
        let d = Domain::new(vec![2u64, 5, 8]);
        let set: Vec<u64> = ExactMedianValidity
            .admissible_set(&c, &d)
            .into_iter()
            .collect();
        assert_eq!(set, vec![5]);
    }

    #[test]
    fn median_window_always_contains_a_proposal() {
        // Guarantees well-formedness: the window endpoints are proposals.
        for slack in 0..3 {
            let c = cfg(6, 2, &[(0, 1), (1, 1), (2, 9), (3, 9)]);
            let mv = MedianValidity::with_slack(slack);
            assert!(c.proposals().any(|p| mv.is_admissible(&c, p)));
        }
    }

    #[test]
    fn counted_windows_are_the_sorted_windows() {
        // The definition, by sorting: p_lo ≤ v ≤ p_hi around rank r.
        let by_sorting = |c: &InputConfig<u64>, r: usize, slack: usize, v: u64| {
            let sorted = c.sorted_proposals();
            let lo = r.saturating_sub(slack).max(1);
            let hi = (r + slack).min(sorted.len());
            sorted[lo - 1] <= v && v <= sorted[hi - 1]
        };
        // Duplicates, gaps, and values below, between and above the proposals.
        let params = SystemParams::new(5, 2).unwrap();
        for c in crate::config::enumerate_all_configs(params, &Domain::new(vec![1u64, 3, 5])) {
            let m = median_rank(c.len());
            for v in 0..=6 {
                for slack in 0..3 {
                    let median = MedianValidity::with_slack(slack);
                    assert_eq!(
                        median.is_admissible(&c, &v),
                        by_sorting(&c, m, slack, v),
                        "median, slack {slack}, {c:?}, {v}"
                    );
                    for k in 1..=6 {
                        let interval = IntervalValidity::new(k, slack);
                        assert_eq!(
                            interval.is_admissible(&c, &v),
                            by_sorting(&c, k.min(c.len()), slack, v),
                            "interval {k}, slack {slack}, {c:?}, {v}"
                        );
                    }
                }
                assert_eq!(
                    ExactMedianValidity.is_admissible(&c, &v),
                    c.sorted_proposals()[m - 1] == v,
                    "exact median, {c:?}, {v}"
                );
            }
        }
    }
}
