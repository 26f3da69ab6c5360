//! Solvability classification of validity properties (§4, §5).
//!
//! The paper's characterization, made executable over finite domains:
//!
//! * **Theorem 1/2** — with `n ≤ 3t`, a validity property is solvable iff it
//!   is *trivial* (some value is admissible for every input configuration),
//!   in which case an `always_admissible` procedure exists.
//! * **Theorem 3** — the *similarity condition* `C_S` (existence of a
//!   computable `Λ`) is necessary for solvability at every resilience.
//! * **Theorem 5** — with `n > 3t`, `C_S` is also sufficient (`Universal`
//!   solves the property).
//!
//! [`classify`] runs the full decision procedure and returns
//! machine-checkable witnesses: the always-admissible value, the full `Λ`
//! table over `I_{n−t}`, or the configuration at which `C_S` fails.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::config::InputConfig;
use crate::process::SystemParams;
use crate::space::ConfigSpace;
use crate::validity::ValidityProperty;
use crate::value::{Domain, Value};

/// The outcome of classifying a validity property at given `(n, t)` over a
/// finite domain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Classification<V> {
    /// The property is trivial: `witness` is admissible for every input
    /// configuration. Solvable at any resilience — decide `witness` with no
    /// communication (Theorem 2's `always_admissible` procedure).
    Trivial {
        /// A value in `∩_{c ∈ I} val(c)`.
        witness: V,
    },
    /// Non-trivial but satisfies `C_S` with `n > 3t`: solvable by
    /// `Universal`, with `Θ(n²)` messages (Theorems 4 + 5).
    SolvableNonTrivial {
        /// `Λ(c)` for every `c ∈ I_{n−t}` (the table Universal consults).
        lambda_table: Vec<(InputConfig<V>, V)>,
    },
    /// Unsolvable, with the reason as a witness.
    Unsolvable(UnsolvableReason<V>),
}

/// Why a validity property is unsolvable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UnsolvableReason<V> {
    /// `n ≤ 3t` and the property is non-trivial (Theorem 1): `witness_pair`
    /// exhibits, for every candidate value, a configuration rejecting it.
    LowResilience {
        /// For each domain value, a configuration where it is inadmissible.
        rejections: Vec<(V, InputConfig<V>)>,
    },
    /// The similarity condition fails (Theorem 3): at `config ∈ I_{n−t}`,
    /// `∩_{c′ ∼ config} val(c′) = ∅`.
    SimilarityViolation {
        /// The configuration whose similarity neighbourhood has no common
        /// admissible value.
        config: InputConfig<V>,
    },
}

impl<V: Value> Classification<V> {
    /// Whether the property was classified as solvable.
    pub fn is_solvable(&self) -> bool {
        !matches!(self, Classification::Unsolvable(_))
    }

    /// Whether the property was classified as trivial.
    pub fn is_trivial(&self) -> bool {
        matches!(self, Classification::Trivial { .. })
    }

    /// Cross-checks this static verdict against the outcome of one
    /// simulated run of the same property: `decided` is whether every
    /// correct process decided, and `validity_ok` whether the decided
    /// values were admissible (`None` when the run never reached a
    /// decision to check).
    ///
    /// A *solvable* classification promises a protocol exists, so a
    /// healthy run of a correct engine must decide admissibly — an
    /// undecided or inadmissible run contradicts the classifier (or
    /// convicts the engine). An *unsolvable* classification is an
    /// ∀-protocol impossibility: a single run that happens to succeed
    /// refutes nothing, so it never conflicts.
    ///
    /// ```
    /// use validity_core::{classify, Domain, StrongValidity, SystemParams};
    ///
    /// let params = SystemParams::new(4, 1)?;
    /// let verdict = classify(&StrongValidity, params, &Domain::binary());
    /// assert!(verdict.consistent_with_run(true, Some(true)));
    /// assert!(!verdict.consistent_with_run(false, None));
    /// # Ok::<(), validity_core::ParamError>(())
    /// ```
    pub fn consistent_with_run(&self, decided: bool, validity_ok: Option<bool>) -> bool {
        if self.is_solvable() {
            decided && validity_ok == Some(true)
        } else {
            true
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            Classification::Trivial { .. } => "trivial (solvable)",
            Classification::SolvableNonTrivial { .. } => "solvable, non-trivial",
            Classification::Unsolvable(UnsolvableReason::LowResilience { .. }) => {
                "unsolvable (n ≤ 3t, non-trivial)"
            }
            Classification::Unsolvable(UnsolvableReason::SimilarityViolation { .. }) => {
                "unsolvable (C_S violated)"
            }
        }
    }
}

impl<V: Value> fmt::Display for Classification<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// `val(c) ∩ domain` for every configuration of a [`ConfigSpace`], filled in
/// as the decision procedure asks for it.
///
/// Per configuration and per 64 domain values there is a `known` word and a
/// `value` word: bit `b` of `known` says `(c, domain[b])` has been evaluated,
/// bit `b` of `value` what the answer was. A pair is evaluated on its first
/// look-up only, so a property pays for each distinct `(c, v)` at most once
/// however often `c` recurs in the similarity neighbourhoods, and never for
/// a pair the procedure's early exits skip.
struct ValTable<'a, V, P> {
    space: &'a ConfigSpace<'a, V>,
    prop: &'a P,
    /// `⌈|V| / 64⌉`.
    words: usize,
    /// `[known, value]` per word, `words` pairs per configuration.
    bits: Vec<u64>,
    /// Look-ups made, evaluated or remembered: the procedure's cost.
    lookups: u64,
}

impl<'a, V: Value, P: ValidityProperty<V>> ValTable<'a, V, P> {
    fn new(space: &'a ConfigSpace<'a, V>, prop: &'a P) -> Self {
        let words = space.domain().len().div_ceil(64);
        let len = space
            .len()
            .checked_mul(words * 2)
            .expect("the configuration space is too large to tabulate");
        ValTable {
            space,
            prop,
            words,
            bits: vec![0; len],
            lookups: 0,
        }
    }

    /// The candidate set holding every domain value.
    fn all_values(&self) -> Vec<u64> {
        let mut set = vec![u64::MAX; self.words];
        let spare = self.words * 64 - self.space.domain().len();
        *set.last_mut().expect("domains are non-empty") >>= spare;
        set
    }

    /// The smallest value of a candidate set.
    fn smallest(&self, set: &[u64]) -> Option<&'a V> {
        let word = set.iter().position(|&w| w != 0)?;
        let bit = set[word].trailing_zeros() as usize;
        Some(&self.space.domain().values()[word * 64 + bit])
    }

    /// `set ∩= val(c)` for configuration `index`, one look-up per member of
    /// `set`; returns whether anything is left.
    fn retain(&mut self, index: usize, set: &mut [u64]) -> bool {
        let slot = &mut self.bits[index * self.words * 2..][..self.words * 2];
        let mut config = None;
        let mut left = 0;
        for (word, (set, slot)) in set.iter_mut().zip(slot.chunks_exact_mut(2)).enumerate() {
            self.lookups += u64::from(set.count_ones());
            let mut unknown = *set & !slot[0];
            slot[0] |= unknown;
            while unknown != 0 {
                let bit = unknown.trailing_zeros() as usize;
                unknown &= unknown - 1;
                let c = config.get_or_insert_with(|| self.space.config(index));
                let v = &self.space.domain().values()[word * 64 + bit];
                if self.prop.is_admissible(c, v) {
                    slot[1] |= 1 << bit;
                }
            }
            *set &= slot[1];
            left |= *set;
        }
        left != 0
    }

    /// The always-admissible walk: `∩_{c ∈ I} val(c)`, smallest member.
    fn always_admissible(&mut self) -> Option<V> {
        let mut candidates = self.all_values();
        for index in 0..self.space.len() {
            if !self.retain(index, &mut candidates) {
                return None;
            }
        }
        self.smallest(&candidates).cloned()
    }

    /// The non-triviality walk: per value, the first configuration
    /// rejecting it.
    fn rejections(&mut self) -> Option<Vec<(V, InputConfig<V>)>> {
        let domain = self.space.domain();
        let mut rejections = Vec::with_capacity(domain.len());
        for (at, v) in domain.iter().enumerate() {
            let mut only_v = vec![0; self.words];
            only_v[at / 64] = 1 << (at % 64);
            let rejecting =
                (0..self.space.len()).find(|&index| !self.retain(index, &mut only_v))?;
            rejections.push((v.clone(), self.space.config(rejecting)));
        }
        Some(rejections)
    }

    /// The `C_S` walk: `Λ(c)` = smallest member of `∩_{c′ ∼ c} val(c′)` for
    /// every `c ∈ I_{n−t}`, or the first `c` where that is empty.
    fn lambda_table(&mut self) -> Result<Vec<(InputConfig<V>, V)>, InputConfig<V>> {
        let space = self.space;
        let mut table = Vec::new();
        for index in space.of_size(space.params().quorum()) {
            let mut candidates = self.all_values();
            // The procedure looks `val(c)` up before it walks `sim(c)`, which
            // holds `c` again: the cost counts both.
            if self.retain(index, &mut candidates) {
                for similar in space.similar(index) {
                    if !self.retain(similar, &mut candidates) {
                        break;
                    }
                }
            }
            match self.smallest(&candidates) {
                Some(v) => table.push((space.config(index), v.clone())),
                None => return Err(space.config(index)),
            }
        }
        Ok(table)
    }
}

/// Searches for an always-admissible value: `v ∈ ∩_{c ∈ I} val(c)`
/// (the triviality witness of Theorem 1, and Theorem 2's
/// `always_admissible` procedure realized by exhaustive search).
///
/// Returns the smallest such domain value, or `None` if the property is
/// non-trivial over this domain.
pub fn always_admissible<V: Value>(
    prop: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> Option<V> {
    let space = ConfigSpace::new(params, domain);
    ValTable::new(&space, prop).always_admissible()
}

/// For each domain value, finds a configuration rejecting it — the
/// non-triviality certificate used in [`UnsolvableReason::LowResilience`].
///
/// Returns `None` if some value is never rejected (i.e. the property is
/// trivial).
pub fn non_triviality_certificate<V: Value>(
    prop: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> Option<Vec<(V, InputConfig<V>)>> {
    let space = ConfigSpace::new(params, domain);
    ValTable::new(&space, prop).rejections()
}

/// Checks the similarity condition `C_S` (Definition 2) over a finite
/// domain: for every `c ∈ I_{n−t}`, `∩_{c′ ∼ c} val(c′)` must be non-empty.
///
/// # Errors
///
/// On success returns the full `Λ` table (smallest member per
/// configuration); on failure, the violating configuration.
pub fn check_similarity_condition<V: Value>(
    prop: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> Result<Vec<(InputConfig<V>, V)>, InputConfig<V>> {
    let space = ConfigSpace::new(params, domain);
    ValTable::new(&space, prop).lambda_table()
}

/// A [`ValidityProperty`] adapter that counts the admissibility evaluations
/// that actually reach the wrapped property.
///
/// Under [`classify`] that is the number of *distinct* `(c, v)` pairs the
/// decision procedure asked about — it evaluates each at most once and
/// remembers the answer — which is at most `|I| · |V|` and at most the
/// look-up count [`classify_with_cost`] reports. The count is deterministic:
/// the classifier walks configurations in a fixed order, so the same
/// `(property, params, domain)` always performs the same evaluations.
pub struct CountingValidity<'a, VI: Value, VO: Value> {
    inner: &'a dyn ValidityProperty<VI, VO>,
    evals: AtomicU64,
}

impl<'a, VI: Value, VO: Value> CountingValidity<'a, VI, VO> {
    /// Wraps a property; evaluations through the wrapper are counted.
    pub fn new(inner: &'a dyn ValidityProperty<VI, VO>) -> Self {
        CountingValidity {
            inner,
            evals: AtomicU64::new(0),
        }
    }

    /// Admissibility evaluations performed through this wrapper so far.
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }
}

impl<VI: Value, VO: Value> ValidityProperty<VI, VO> for CountingValidity<'_, VI, VO> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_admissible(&self, c: &InputConfig<VI>, v: &VO) -> bool {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.is_admissible(c, v)
    }
}

/// [`classify`], additionally reporting the classification's cost: the
/// number of admissibility look-ups the paper's decision procedure makes.
///
/// The procedure asks "is `v ∈ val(c′)`?" once for every candidate `v` still
/// standing at every `c′` it visits — every `c ∈ I` for triviality, then
/// `val(c)` and every `c′ ∼ c` for each `c ∈ I_{n−t}` — stopping a walk as
/// soon as no candidate is left. The cost counts those look-ups. Most of
/// them repeat an earlier `(c′, v)`, and the classifier answers a repeat
/// from memory instead of calling the property again (see
/// [`CountingValidity`] for the number of real evaluations), so the cost
/// measures the procedure, not this implementation's work.
///
/// The count is a deterministic function of the inputs, which lets the lab
/// fit classification cost against the domain size `|V|` the same way it
/// fits message complexity against `n`.
///
/// ```
/// use validity_core::{classify_with_cost, Domain, StrongValidity, SystemParams};
///
/// let params = SystemParams::new(4, 1).unwrap();
/// let (c, cost) = classify_with_cost(&StrongValidity, params, &Domain::binary());
/// assert!(c.is_solvable());
/// assert!(cost > 0);
/// let (_, again) = classify_with_cost(&StrongValidity, params, &Domain::binary());
/// assert_eq!(cost, again);
/// ```
pub fn classify_with_cost<V: Value>(
    prop: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> (Classification<V>, u64) {
    let space = ConfigSpace::new(params, domain);
    let mut val = ValTable::new(&space, prop);
    let classification = if let Some(witness) = val.always_admissible() {
        Classification::Trivial { witness }
    } else if !params.supports_non_trivial() {
        let rejections = val
            .rejections()
            .expect("no value is always admissible, so every value has a rejection");
        Classification::Unsolvable(UnsolvableReason::LowResilience { rejections })
    } else {
        match val.lambda_table() {
            Ok(lambda_table) => Classification::SolvableNonTrivial { lambda_table },
            Err(config) => {
                Classification::Unsolvable(UnsolvableReason::SimilarityViolation { config })
            }
        }
    };
    (classification, val.lookups)
}

/// Full classification per the paper's decision procedure (Theorems 1, 3, 5).
///
/// ```text
/// trivial?            ─ yes → Trivial { witness }
///   │ no
/// n ≤ 3t?             ─ yes → Unsolvable (Theorem 1)
///   │ no
/// C_S holds?          ─ yes → SolvableNonTrivial { Λ table } (Theorem 5)
///   │ no
/// Unsolvable (Theorem 3)
/// ```
pub fn classify<V: Value>(
    prop: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> Classification<V> {
    classify_with_cost(prop, params, domain).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lambda::admissible_intersection;
    use crate::validity::{
        ConstantSetValidity, ConvexHullValidity, CorrectProposalValidity, ExactMedianValidity,
        MedianValidity, ParityValidity, StrongValidity, TrivialValidity, WeakValidity,
    };

    fn params(n: usize, t: usize) -> SystemParams {
        SystemParams::new(n, t).unwrap()
    }

    #[test]
    fn strong_validity_is_nontrivial_solvable_iff_n_gt_3t() {
        let d = Domain::binary();
        let good = classify(&StrongValidity, params(4, 1), &d);
        assert!(matches!(good, Classification::SolvableNonTrivial { .. }));

        let bad = classify(&StrongValidity, params(3, 1), &d);
        assert!(matches!(
            bad,
            Classification::Unsolvable(UnsolvableReason::LowResilience { .. })
        ));
    }

    #[test]
    fn weak_validity_matches_strong_classification() {
        let d = Domain::binary();
        assert!(classify(&WeakValidity, params(4, 1), &d).is_solvable());
        assert!(!classify(&WeakValidity, params(3, 1), &d).is_solvable());
        // n = 6 ≤ 3t with t = 2:
        assert!(!classify(&WeakValidity, params(6, 2), &d).is_solvable());
        // n = 7 > 3t with t = 2:
        assert!(classify(&WeakValidity, params(7, 2), &d).is_solvable());
    }

    #[test]
    fn trivial_validity_is_trivial_everywhere() {
        let d = Domain::binary();
        for (n, t) in [(3, 1), (4, 1), (6, 2), (7, 2)] {
            let c = classify(&TrivialValidity::new(0u64), params(n, t), &d);
            assert!(matches!(c, Classification::Trivial { witness: 0 }));
        }
    }

    #[test]
    fn constant_set_is_trivial() {
        let d = Domain::range(3);
        let prop = ConstantSetValidity::new([1u64, 2]);
        let c = classify(&prop, params(3, 1), &d);
        assert!(matches!(c, Classification::Trivial { witness: 1 }));
    }

    #[test]
    fn consistent_with_run_constrains_solvable_verdicts_only() {
        let d = Domain::binary();
        let solvable = classify(&StrongValidity, params(4, 1), &d);
        assert!(solvable.is_solvable());
        // A solvable verdict demands a healthy run: decided + admissible.
        assert!(solvable.consistent_with_run(true, Some(true)));
        assert!(!solvable.consistent_with_run(true, Some(false)));
        assert!(!solvable.consistent_with_run(true, None));
        assert!(!solvable.consistent_with_run(false, None));

        // An unsolvable verdict is a ∀-protocol claim: no single run
        // outcome can contradict it.
        let unsolvable = classify(&ParityValidity, params(4, 1), &d);
        assert!(!unsolvable.is_solvable());
        for decided in [true, false] {
            for ok in [Some(true), Some(false), None] {
                assert!(unsolvable.consistent_with_run(decided, ok));
            }
        }
    }

    #[test]
    fn parity_is_unsolvable_even_with_high_resilience() {
        let d = Domain::binary();
        let c = classify(&ParityValidity, params(4, 1), &d);
        assert!(matches!(
            c,
            Classification::Unsolvable(UnsolvableReason::SimilarityViolation { .. })
        ));
    }

    #[test]
    fn exact_median_is_unsolvable_for_n_gt_3t() {
        let d = Domain::binary();
        let c = classify(&ExactMedianValidity, params(4, 1), &d);
        assert!(matches!(
            c,
            Classification::Unsolvable(UnsolvableReason::SimilarityViolation { .. })
        ));
    }

    #[test]
    fn median_with_slack_t_is_solvable() {
        let d = Domain::binary();
        let c = classify(&MedianValidity::with_slack(1), params(4, 1), &d);
        assert!(matches!(c, Classification::SolvableNonTrivial { .. }));
    }

    #[test]
    fn convex_hull_is_solvable_for_n_gt_3t() {
        let d = Domain::range(3);
        assert!(classify(&ConvexHullValidity, params(4, 1), &d).is_solvable());
        assert!(!classify(&ConvexHullValidity, params(3, 1), &d).is_solvable());
    }

    #[test]
    fn correct_proposal_solvability_depends_on_domain_size() {
        // Binary domain at (4, 1): every c ∈ I_3 has a value with count ≥ 2 =
        // t + 1, so C_S holds.
        let c = classify(&CorrectProposalValidity, params(4, 1), &Domain::binary());
        assert!(matches!(c, Classification::SolvableNonTrivial { .. }));

        // Ternary domain at (4, 1): ⟨(P1,0),(P2,1),(P3,2)⟩ has no value with
        // multiplicity ≥ 2 — C_S fails.
        let c = classify(&CorrectProposalValidity, params(4, 1), &Domain::range(3));
        assert!(matches!(
            c,
            Classification::Unsolvable(UnsolvableReason::SimilarityViolation { .. })
        ));
    }

    #[test]
    fn lambda_table_entries_are_admissible_for_all_similar() {
        // Certificate check: every table entry must be in the intersection.
        let d = Domain::binary();
        let p = params(4, 1);
        if let Classification::SolvableNonTrivial { lambda_table } =
            classify(&StrongValidity, p, &d)
        {
            assert_eq!(lambda_table.len(), 32); // |I_3| = C(4,3)·2³
            for (c, v) in &lambda_table {
                let truth = admissible_intersection(&StrongValidity, c, &d);
                assert!(truth.contains(v));
            }
        } else {
            panic!("expected solvable classification");
        }
    }

    #[test]
    fn low_resilience_rejections_are_genuine() {
        let d = Domain::binary();
        let p = params(3, 1);
        if let Classification::Unsolvable(UnsolvableReason::LowResilience { rejections }) =
            classify(&StrongValidity, p, &d)
        {
            assert_eq!(rejections.len(), 2);
            for (v, c) in &rejections {
                assert!(!StrongValidity.is_admissible(c, v));
            }
        } else {
            panic!("expected low-resilience unsolvability");
        }
    }

    #[test]
    fn theorem_1_shape_all_catalog_properties() {
        // With n ≤ 3t, solvable ⇒ trivial across the whole catalog.
        let d = Domain::binary();
        for (n, t) in [(3usize, 1usize), (4, 2), (6, 2)] {
            let p = params(n, t);
            let props: Vec<crate::validity::DynValidity<u64>> = vec![
                Box::new(StrongValidity),
                Box::new(WeakValidity),
                Box::new(CorrectProposalValidity),
                Box::new(MedianValidity::with_slack(t)),
                Box::new(ConvexHullValidity),
                Box::new(ParityValidity),
                Box::new(TrivialValidity::new(0u64)),
            ];
            for prop in &props {
                let c = classify(prop, p, &d);
                if c.is_solvable() {
                    assert!(
                        c.is_trivial(),
                        "{} at (n={n}, t={t}): solvable but not trivial, contradicting Theorem 1",
                        prop.name()
                    );
                }
            }
        }
    }
}
