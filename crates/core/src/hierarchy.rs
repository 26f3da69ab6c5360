//! The hierarchy of validity properties — the paper's §1 open question
//! *"Is there a hierarchy of validity properties (e.g., a 'strongest'
//! validity property)?"*, made executable.
//!
//! A property `val₁` **refines** `val₂` iff `val₁(c) ⊆ val₂(c)` for every
//! input configuration: any algorithm satisfying `val₁` automatically
//! satisfies `val₂`. Refinement orders the catalog partially:
//!
//! ```text
//! Correct-Proposal ⊑ Strong ⊑ Weak ⊑ Trivial
//! Exact-Median ⊑ Median(slack) ⊑ Convex-Hull ⊑ Trivial
//! ```
//!
//! Two of the paper's findings become visible here:
//!
//! * refinement does **not** preserve solvability in either direction —
//!   Exact-Median refines (is stricter than) the solvable Median-with-slack
//!   yet is unsolvable, while the trivial property is refined by everything
//!   and always solvable;
//! * the paper's actual "strongest" notion is different: *Vector Validity*
//!   is strongest in the sense that a solution to vector consensus yields a
//!   solution to every solvable property at no extra cost (§5.2.2) — a
//!   reduction order, not the pointwise order checked here.

use crate::config::InputConfig;
use crate::process::SystemParams;
use crate::space::ConfigSpace;
use crate::validity::ValidityProperty;
use crate::value::{Domain, Value};

/// The outcome of comparing two validity properties pointwise over a
/// finite domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Comparison<V> {
    /// `val₁(c) = val₂(c)` everywhere (over the domain).
    Equivalent,
    /// `val₁(c) ⊆ val₂(c)` everywhere, strictly somewhere.
    Refines {
        /// A configuration where the inclusion is strict.
        strict_at: InputConfig<V>,
    },
    /// `val₂(c) ⊆ val₁(c)` everywhere, strictly somewhere.
    RefinedBy {
        /// A configuration where the inclusion is strict.
        strict_at: InputConfig<V>,
    },
    /// Neither contains the other.
    Incomparable {
        /// A configuration with `val₁(c) ⊄ val₂(c)`.
        val1_exceeds_at: InputConfig<V>,
        /// A configuration with `val₂(c) ⊄ val₁(c)`.
        val2_exceeds_at: InputConfig<V>,
    },
}

impl<V: Value> Comparison<V> {
    /// Whether the first property refines (or equals) the second.
    pub fn is_refinement(&self) -> bool {
        matches!(self, Comparison::Equivalent | Comparison::Refines { .. })
    }
}

/// Compares two validity properties pointwise over all input
/// configurations of a finite domain.
pub fn compare<V: Value>(
    val1: &impl ValidityProperty<V>,
    val2: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> Comparison<V> {
    let mut val1_exceeds: Option<InputConfig<V>> = None; // val1 admits something val2 doesn't
    let mut val2_exceeds: Option<InputConfig<V>> = None;
    let space = ConfigSpace::new(params, domain);
    for c in space.configs(0..space.len()) {
        for v in domain.iter() {
            let a1 = val1.is_admissible(&c, v);
            let a2 = val2.is_admissible(&c, v);
            if a1 && !a2 && val1_exceeds.is_none() {
                val1_exceeds = Some(c.clone());
            }
            if a2 && !a1 && val2_exceeds.is_none() {
                val2_exceeds = Some(c.clone());
            }
        }
        if val1_exceeds.is_some() && val2_exceeds.is_some() {
            break;
        }
    }
    match (val1_exceeds, val2_exceeds) {
        (None, None) => Comparison::Equivalent,
        (None, Some(strict_at)) => Comparison::Refines { strict_at },
        (Some(strict_at), None) => Comparison::RefinedBy { strict_at },
        (Some(a), Some(b)) => Comparison::Incomparable {
            val1_exceeds_at: a,
            val2_exceeds_at: b,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvability::classify;
    use crate::validity::{
        ConvexHullValidity, CorrectProposalValidity, ExactMedianValidity, MedianValidity,
        ParityValidity, StrongValidity, TrivialValidity, WeakValidity,
    };

    fn params() -> SystemParams {
        SystemParams::new(4, 1).unwrap()
    }

    #[test]
    fn strong_refines_weak() {
        let d = Domain::binary();
        let cmp = compare(&StrongValidity, &WeakValidity, params(), &d);
        assert!(cmp.is_refinement());
        assert!(matches!(cmp, Comparison::Refines { .. }));
    }

    #[test]
    fn correct_proposal_refines_strong() {
        let d = Domain::range(3);
        let cmp = compare(&CorrectProposalValidity, &StrongValidity, params(), &d);
        assert!(cmp.is_refinement());
    }

    #[test]
    fn exact_median_refines_median_refines_hull() {
        let d = Domain::range(3);
        assert!(compare(
            &ExactMedianValidity,
            &MedianValidity::with_slack(1),
            params(),
            &d
        )
        .is_refinement());
        assert!(compare(
            &MedianValidity::with_slack(1),
            &ConvexHullValidity,
            params(),
            &d
        )
        .is_refinement());
    }

    #[test]
    fn everything_refines_trivial() {
        let d = Domain::binary();
        let trivial = TrivialValidity::new(0u64);
        assert!(compare(&StrongValidity, &trivial, params(), &d).is_refinement());
        assert!(compare(&ParityValidity, &trivial, params(), &d).is_refinement());
        assert!(compare(&ExactMedianValidity, &trivial, params(), &d).is_refinement());
    }

    #[test]
    fn parity_and_strong_are_incomparable() {
        let d = Domain::binary();
        let cmp = compare(&ParityValidity, &StrongValidity, params(), &d);
        assert!(matches!(cmp, Comparison::Incomparable { .. }));
    }

    #[test]
    fn comparison_is_reflexively_equivalent() {
        let d = Domain::binary();
        assert_eq!(
            compare(&StrongValidity, &StrongValidity, params(), &d),
            Comparison::Equivalent
        );
    }

    #[test]
    fn comparison_is_antisymmetric_in_direction() {
        let d = Domain::binary();
        let ab = compare(&StrongValidity, &WeakValidity, params(), &d);
        let ba = compare(&WeakValidity, &StrongValidity, params(), &d);
        assert!(matches!(ab, Comparison::Refines { .. }));
        assert!(matches!(ba, Comparison::RefinedBy { .. }));
    }

    /// The paper-level insight: refinement does NOT preserve solvability in
    /// either direction.
    #[test]
    fn refinement_does_not_order_solvability() {
        let p = params();
        let d = Domain::binary();
        // Exact-Median refines Median(slack 1)…
        assert!(
            compare(&ExactMedianValidity, &MedianValidity::with_slack(1), p, &d).is_refinement()
        );
        // …but the finer property is unsolvable while the coarser is solvable.
        assert!(!classify(&ExactMedianValidity, p, &d).is_solvable());
        assert!(classify(&MedianValidity::with_slack(1), p, &d).is_solvable());
    }
}
