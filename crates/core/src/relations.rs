//! The similarity (`∼`, §3.4) and compatibility (`⋄`, §4.1) relations
//! between input configurations, and enumeration of `sim(c)`.

use crate::config::InputConfig;
use crate::space::{correct_sets, Odometer};
use crate::value::{Domain, Value};

/// Whether `c1 ∼ c2`: the configurations share at least one process, and
/// every shared process has the identical proposal in both.
///
/// The relation is symmetric and reflexive (tested below) but *not*
/// transitive.
///
/// # Examples
///
/// ```
/// use validity_core::{InputConfig, SystemParams, is_similar};
///
/// let p = SystemParams::new(3, 1)?;
/// let c  = InputConfig::from_pairs(p, [(0usize, 0u64), (1, 1)])?;
/// let c1 = InputConfig::from_pairs(p, [(0usize, 0u64), (2, 0)])?;
/// let c2 = InputConfig::from_pairs(p, [(0usize, 0u64), (1, 0)])?;
/// assert!(is_similar(&c, &c1));   // share P1 with equal proposals
/// assert!(!is_similar(&c, &c2));  // P2 proposes 1 vs 0
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn is_similar<V: Value>(c1: &InputConfig<V>, c2: &InputConfig<V>) -> bool {
    let common = c1.pi().intersection(c2.pi());
    if common.is_empty() {
        return false;
    }
    common.iter().all(|p| c1.proposal(p) == c2.proposal(p))
}

/// Whether `c1 ⋄ c2`: at most `t` common processes, and each configuration
/// names a process the other does not.
///
/// The relation is symmetric and irreflexive. It drives the partitioning
/// argument of Theorem 1 (Lemma 2): compatible configurations can be
/// "merged" into a single execution in which the ≤ t common processes act
/// Byzantine, behaving one way towards each side.
pub fn is_compatible<V: Value>(c1: &InputConfig<V>, c2: &InputConfig<V>) -> bool {
    let t = c1.params().t();
    let p1 = c1.pi();
    let p2 = c2.pi();
    p1.intersection(p2).len() <= t && !p1.difference(p2).is_empty() && !p2.difference(p1).is_empty()
}

/// Enumerates `sim(c) = { c' ∈ I | c' ∼ c }` over a finite `domain`.
///
/// Enumeration is direct (not filter-based): for every candidate correct set
/// `π'` intersecting `π(c)`, the shared processes are pinned to `c`'s
/// proposals and only the remaining slots range over the domain. `c` itself
/// is included (similarity is reflexive).
pub fn enumerate_similar<V: Value>(c: &InputConfig<V>, domain: &Domain<V>) -> Vec<InputConfig<V>> {
    let params = c.params();
    let pi_c = c.pi();
    let mut odometer = Odometer::default();
    let mut out = Vec::new();
    for pi in correct_sets(params) {
        let common = pi.intersection(pi_c);
        if common.is_empty() {
            continue;
        }
        let free = pi.difference(pi_c);
        odometer.reset(domain.len(), free.len());
        loop {
            let pinned = common
                .iter()
                .map(|p| (p, c.proposal(p).expect("common ⊆ π(c)").clone()));
            let ranging = free
                .iter()
                .zip(odometer.digits())
                .map(|(p, &digit)| (p, domain.values()[digit].clone()));
            out.push(
                InputConfig::from_pairs(params, pinned.chain(ranging))
                    .expect("enumeration respects invariants"),
            );
            if odometer.advance().is_none() {
                break;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_all_configs;
    use crate::process::SystemParams;

    fn params(n: usize, t: usize) -> SystemParams {
        SystemParams::new(n, t).unwrap()
    }

    fn cfg(p: SystemParams, pairs: &[(usize, u64)]) -> InputConfig<u64> {
        InputConfig::from_pairs(p, pairs.iter().copied()).unwrap()
    }

    #[test]
    fn paper_similarity_examples() {
        // §3.4 example with n = 3, t = 1:
        let p = params(3, 1);
        let c = cfg(p, &[(0, 0), (1, 1), (2, 0)]);
        let sim = cfg(p, &[(0, 0), (2, 0)]);
        let not_sim = cfg(p, &[(0, 0), (1, 0)]);
        assert!(is_similar(&c, &sim));
        assert!(!is_similar(&c, &not_sim));
    }

    #[test]
    fn intro_similarity_example() {
        // §1 technical overview: c = ⟨(P1,0),(P2,1)⟩ ∼ ⟨(P1,0),(P3,0)⟩ but
        // not ∼ ⟨(P1,0),(P2,0)⟩.
        let p = params(3, 1);
        let c = cfg(p, &[(0, 0), (1, 1)]);
        assert!(is_similar(&c, &cfg(p, &[(0, 0), (2, 0)])));
        assert!(!is_similar(&c, &cfg(p, &[(0, 0), (1, 0)])));
    }

    #[test]
    fn similarity_requires_common_process() {
        let p = params(4, 2);
        let a = cfg(p, &[(0, 1), (1, 1)]);
        let b = cfg(p, &[(2, 1), (3, 1)]);
        assert!(!is_similar(&a, &b));
    }

    #[test]
    fn similarity_is_symmetric_and_reflexive() {
        let p = params(4, 1);
        let d = Domain::binary();
        let all = enumerate_all_configs(p, &d);
        for c1 in &all {
            assert!(is_similar(c1, c1), "reflexivity failed for {c1:?}");
            for c2 in &all {
                assert_eq!(
                    is_similar(c1, c2),
                    is_similar(c2, c1),
                    "symmetry failed for {c1:?}, {c2:?}"
                );
            }
        }
    }

    #[test]
    fn paper_compatibility_examples() {
        // §4.1 example with n = 3, t = 1:
        let p = params(3, 1);
        let c = cfg(p, &[(0, 0), (1, 0)]);
        let compat = cfg(p, &[(0, 1), (2, 1)]);
        let not_compat = cfg(p, &[(0, 1), (1, 1), (2, 1)]);
        assert!(is_compatible(&c, &compat));
        assert!(!is_compatible(&c, &not_compat));
    }

    #[test]
    fn compatibility_is_symmetric_and_irreflexive() {
        let p = params(4, 1);
        let d = Domain::binary();
        let all = enumerate_all_configs(p, &d);
        for c1 in &all {
            assert!(!is_compatible(c1, c1), "irreflexivity failed for {c1:?}");
            for c2 in &all {
                assert_eq!(
                    is_compatible(c1, c2),
                    is_compatible(c2, c1),
                    "symmetry failed"
                );
            }
        }
    }

    #[test]
    fn compatibility_ignores_proposals() {
        // Proposals play no role in ⋄ — only the process sets do.
        let p = params(6, 2);
        let a = cfg(p, &[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let b = cfg(p, &[(2, 1), (3, 1), (4, 1), (5, 1)]);
        assert!(is_compatible(&a, &b)); // 2 common ≤ t = 2, both have exclusive members
        let b_same_values = cfg(p, &[(2, 0), (3, 0), (4, 0), (5, 0)]);
        assert!(is_compatible(&a, &b_same_values));
    }

    #[test]
    fn enumerate_similar_matches_filter() {
        let p = params(4, 1);
        let d = Domain::binary();
        let all = enumerate_all_configs(p, &d);
        for c in all.iter().take(12) {
            let mut direct = enumerate_similar(c, &d);
            let mut filtered: Vec<_> = all.iter().filter(|c2| is_similar(c, c2)).cloned().collect();
            direct.sort();
            filtered.sort();
            assert_eq!(direct, filtered, "sim({c:?}) mismatch");
        }
    }

    #[test]
    fn enumerate_similar_contains_self() {
        let p = params(5, 1);
        let d = Domain::binary();
        let c = cfg(p, &[(0, 0), (1, 1), (2, 0), (3, 1)]);
        let sim = enumerate_similar(&c, &d);
        assert!(sim.contains(&c));
    }

    #[test]
    fn enumerate_similar_excludes_disjoint() {
        let p = params(4, 2);
        let d = Domain::binary();
        let c = cfg(p, &[(0, 0), (1, 1)]);
        for c2 in enumerate_similar(&c, &d) {
            assert!(!c2.pi().intersection(c.pi()).is_empty());
        }
    }
}
