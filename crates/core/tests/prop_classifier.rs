//! The classifier against a brute-force reference of the paper's decision
//! procedure, and the evaluate-once guarantee of its `val(c)` table.
//!
//! The reference below is the procedure spelled out over materialised
//! configurations — every `c ∈ I` for triviality, `∩_{c′ ∼ c} val(c′)` by
//! [`admissible_intersection`] for every `c ∈ I_{n−t}` — under a
//! [`CountingValidity`], so its evaluation count is the procedure's look-up
//! count. `classify_with_cost` must return the same classification, the
//! same certificate and the same number while evaluating far less.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use proptest::prelude::*;
use validity_core::{
    admissible_intersection, check_similarity_condition, classify_with_cost, enumerate_all_configs,
    enumerate_configs_of_size, Classification, ConstantSetValidity, ConvexHullValidity,
    CorrectProposalValidity, CountingValidity, Domain, DynValidity, ExactMedianValidity,
    InputConfig, IntervalValidity, MedianValidity, ParityValidity, StrongValidity, SupportValidity,
    SystemParams, TrivialValidity, UnsolvableReason, ValidityProperty, Value, WeakValidity,
};

/// `C_S` by brute force: `Λ(c)` for every `c ∈ I_{n−t}`, or the first `c`
/// whose similarity neighbourhood has no common admissible value.
fn reference_lambda_table<V: Value>(
    prop: &impl ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> Result<Vec<(InputConfig<V>, V)>, InputConfig<V>> {
    let mut table = Vec::new();
    for c in enumerate_configs_of_size(params, domain, params.quorum()) {
        match admissible_intersection(prop, &c, domain).into_iter().next() {
            Some(v) => table.push((c, v)),
            None => return Err(c),
        }
    }
    Ok(table)
}

/// The paper's decision procedure by brute force, with its look-up count.
fn reference<V: Value>(
    prop: &dyn ValidityProperty<V>,
    params: SystemParams,
    domain: &Domain<V>,
) -> (Classification<V>, u64) {
    let counted = CountingValidity::new(prop);
    let all = enumerate_all_configs(params, domain);
    let mut always: BTreeSet<V> = domain.iter().cloned().collect();
    for c in &all {
        always.retain(|v| counted.is_admissible(c, v));
        if always.is_empty() {
            break;
        }
    }
    let classification = if let Some(witness) = always.into_iter().next() {
        Classification::Trivial { witness }
    } else if !params.supports_non_trivial() {
        let rejections = domain
            .iter()
            .map(|v| {
                let rejecting = all.iter().find(|c| !counted.is_admissible(c, v));
                (v.clone(), rejecting.expect("non-trivial").clone())
            })
            .collect();
        Classification::Unsolvable(UnsolvableReason::LowResilience { rejections })
    } else {
        match reference_lambda_table(&counted, params, domain) {
            Ok(lambda_table) => Classification::SolvableNonTrivial { lambda_table },
            Err(config) => {
                Classification::Unsolvable(UnsolvableReason::SimilarityViolation { config })
            }
        }
    };
    (classification, counted.evals())
}

fn params(n: usize, t: usize) -> SystemParams {
    SystemParams::new(n, t).unwrap()
}

/// The systems every comparison below ranges over: `n > 3t` and `n ≤ 3t`,
/// `t = 1` and `t = 2`.
const SYSTEMS: [(usize, usize); 5] = [(3, 1), (4, 1), (4, 2), (5, 1), (6, 2)];

/// What a [`RandomTable`] admits regardless of its noise.
#[derive(Clone, Copy, Debug)]
enum Floor {
    /// Nothing: `val(c)` may even be empty.
    Nothing,
    /// One value everywhere, which makes the property trivial.
    Witness(usize),
    /// Whatever Strong Validity admits: any such property satisfies `C_S`.
    Strong,
}

/// A property given as a seeded `(config, value) → bool` table: the hash of
/// the triple decides, `density` out of 256 entries being admissible, on
/// top of a [`Floor`].
#[derive(Clone, Debug)]
struct RandomTable<V> {
    seed: u64,
    density: u64,
    floor: Floor,
    domain: Domain<V>,
}

impl<V: Value> ValidityProperty<V> for RandomTable<V> {
    fn name(&self) -> String {
        format!("{self:?}")
    }

    fn is_admissible(&self, c: &InputConfig<V>, v: &V) -> bool {
        let floor = match self.floor {
            Floor::Nothing => false,
            Floor::Witness(at) => &self.domain.values()[at % self.domain.len()] == v,
            Floor::Strong => StrongValidity.is_admissible(c, v),
        };
        let mut hasher = DefaultHasher::new();
        (self.seed, c, v).hash(&mut hasher);
        floor || hasher.finish() % 256 < self.density
    }
}

/// One random classification problem over `{0, .., |V|−1}`.
#[derive(Clone, Debug)]
struct Case {
    params: SystemParams,
    prop: RandomTable<u64>,
}

impl Case {
    fn new(system: usize, values: u64, floor: usize, density: u64, seed: u64) -> Self {
        let (n, t) = SYSTEMS[system];
        let floor = [Floor::Nothing, Floor::Witness(seed as usize), Floor::Strong][floor];
        Case {
            params: params(n, t),
            prop: RandomTable {
                seed,
                density,
                floor,
                domain: Domain::range(values),
            },
        }
    }

    fn assert_matches_reference(&self) -> Classification<u64> {
        let got = classify_with_cost(&self.prop, self.params, &self.prop.domain);
        let want = reference(&self.prop, self.params, &self.prop.domain);
        assert_eq!(got, want, "{self:?}");
        got.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Verdict, witness, `Λ` table, violating configuration, rejection list
    /// and cost of random properties equal the reference's.
    #[test]
    fn random_tables_match_the_reference(
        system in 0usize..SYSTEMS.len(),
        values in 2u64..=4,
        floor in 0usize..3,
        density in 0u64..=256,
        seed in any::<u64>(),
    ) {
        Case::new(system, values, floor, density, seed).assert_matches_reference();
    }
}

/// The random-table generator reaches every branch of the procedure.
#[test]
fn random_tables_reach_all_four_verdicts() {
    let mut seen = BTreeSet::new();
    for system in 0..SYSTEMS.len() {
        for floor in 0..3 {
            for density in [0, 40, 128, 250] {
                let case = Case::new(system, 2, floor, density, 7 * density + system as u64);
                seen.insert(case.assert_matches_reference().label());
            }
        }
    }
    let all_four: BTreeSet<_> = [
        "trivial (solvable)",
        "solvable, non-trivial",
        "unsolvable (n ≤ 3t, non-trivial)",
        "unsolvable (C_S violated)",
    ]
    .into();
    assert_eq!(seen, all_four);
}

/// Every catalog property that is generic in `V`, for fault threshold `t`.
fn generic_catalog<V: Value>(t: usize, smallest: V, largest: V) -> Vec<DynValidity<V>> {
    vec![
        Box::new(StrongValidity),
        Box::new(WeakValidity),
        Box::new(MedianValidity::with_slack(t)),
        Box::new(ConvexHullValidity),
        Box::new(CorrectProposalValidity),
        Box::new(ExactMedianValidity),
        Box::new(TrivialValidity::new(smallest.clone())),
        Box::new(IntervalValidity::new(1, t)),
        Box::new(SupportValidity::new(1)),
        Box::new(SupportValidity::new(t + 1)),
        Box::new(ConstantSetValidity::new([smallest, largest])),
    ]
}

#[test]
fn the_catalog_matches_the_reference() {
    for (n, t) in SYSTEMS {
        for values in 2u64..=4 {
            let domain = Domain::range(values);
            let mut catalog = generic_catalog(t, 0, values - 1);
            catalog.push(Box::new(ParityValidity));
            for prop in &catalog {
                assert_eq!(
                    classify_with_cost(prop, params(n, t), &domain),
                    reference(prop, params(n, t), &domain),
                    "{} at ({n}, {t}), |V| = {values}",
                    prop.name()
                );
            }
        }
    }
}

/// Nothing in the table depends on `V` being an integer.
#[test]
fn string_values_match_the_reference() {
    let domain: Domain<&'static str> = ["ash", "birch", "cedar"].into_iter().collect();
    for (n, t) in SYSTEMS {
        let mut props = generic_catalog(t, "ash", "cedar");
        for (floor, density) in [(Floor::Nothing, 200), (Floor::Strong, 60)] {
            props.push(Box::new(RandomTable {
                seed: n as u64,
                density,
                floor,
                domain: domain.clone(),
            }));
        }
        for prop in &props {
            assert_eq!(
                classify_with_cost(prop, params(n, t), &domain),
                reference(prop, params(n, t), &domain),
                "{} at ({n}, {t})",
                prop.name()
            );
        }
    }
}

/// More than one `u64` of values per configuration. `(2, 1)` keeps `|I|` at
/// 5 040 with 70 values; it is below `n > 3t`, so `C_S` is checked directly.
#[test]
fn a_domain_wider_than_one_word_matches_the_reference() {
    let domain = Domain::range(70);
    let p = params(2, 1);
    let props: [DynValidity<u64>; 4] = [
        Box::new(StrongValidity),
        Box::new(ParityValidity),
        Box::new(TrivialValidity::new(69u64)),
        Box::new(ConstantSetValidity::new([65u64, 66])),
    ];
    for prop in &props {
        assert_eq!(
            classify_with_cost(prop, p, &domain),
            reference(prop, p, &domain),
            "{}",
            prop.name()
        );
        assert_eq!(
            check_similarity_condition(prop, p, &domain),
            reference_lambda_table(prop, p, &domain),
            "{}",
            prop.name()
        );
    }
}

/// One cell of the benchmark's `classify_grid` workload.
struct Cell {
    name: &'static str,
    property: DynValidity<u64>,
    params: SystemParams,
    domain: Domain<u64>,
}

/// The 132 cells of `classify_grid`: the 40 of `fig1`, four properties at
/// `(4, 1)` for `|V| = 2..=8`, all eight at `(5, 1)`, `(6, 1)` and `(7, 2)`.
fn classify_grid() -> Vec<Cell> {
    const ALL: [&str; 8] = [
        "strong",
        "weak",
        "median",
        "convex-hull",
        "correct-proposal",
        "exact-median",
        "parity",
        "trivial",
    ];
    let property = |name: &str, t: usize| -> DynValidity<u64> {
        match name {
            "strong" => Box::new(StrongValidity),
            "weak" => Box::new(WeakValidity),
            "median" => Box::new(MedianValidity::with_slack(t)),
            "convex-hull" => Box::new(ConvexHullValidity),
            "correct-proposal" => Box::new(CorrectProposalValidity),
            "exact-median" => Box::new(ExactMedianValidity),
            "parity" => Box::new(ParityValidity),
            _ => Box::new(TrivialValidity::new(0u64)),
        }
    };
    let mut cells = Vec::new();
    let mut grid = |names: &[&'static str], n, t, domains: std::ops::RangeInclusive<u64>| {
        for &name in names {
            for values in domains.clone() {
                cells.push(Cell {
                    name,
                    property: property(name, t),
                    params: params(n, t),
                    domain: Domain::range(values),
                });
            }
        }
    };
    for (n, t, values) in [(3, 1, 2), (6, 2, 2), (4, 1, 2), (4, 1, 3), (7, 2, 2)] {
        grid(&ALL, n, t, values..=values);
    }
    grid(&ALL[..4], 4, 1, 2..=8);
    grid(&ALL, 5, 1, 2..=5);
    grid(&ALL, 6, 1, 2..=4);
    grid(&ALL, 7, 2, 3..=3);
    assert_eq!(cells.len(), 132);
    cells
}

/// Look-ups the procedure makes over the grid, and the distinct `(c, v)`
/// pairs among them — each of which the classifier evaluates exactly once.
const GRID_LOOKUPS: u64 = 15_037_068;
const GRID_DISTINCT_PAIRS: u64 = 938_271;

#[test]
fn the_grid_evaluates_no_more_than_the_distinct_pairs() {
    let (mut lookups, mut evaluations) = (0, 0);
    for cell in classify_grid() {
        let counted = CountingValidity::new(&cell.property);
        let (_, cost) = classify_with_cost(&counted, cell.params, &cell.domain);
        let pairs = enumerate_all_configs(cell.params, &cell.domain).len() * cell.domain.len();
        assert!(
            counted.evals() <= cost.min(pairs as u64),
            "{} at {}, |V| = {}: {} evaluations, cost {cost}, |I|·|V| = {pairs}",
            cell.name,
            cell.params,
            cell.domain.len(),
            counted.evals()
        );
        lookups += cost;
        evaluations += counted.evals();
    }
    assert_eq!(lookups, GRID_LOOKUPS);
    assert_eq!(evaluations, GRID_DISTINCT_PAIRS);
}

#[test]
fn strong_at_7_2_over_three_values_costs_what_it_always_did() {
    let (_, cost) = classify_with_cost(&StrongValidity, params(7, 2), &Domain::range(3));
    assert_eq!(cost, 1_968_916);
}

/// Panics on the second evaluation of any `(c, v)`.
struct OnceOnly<'a> {
    inner: &'a dyn ValidityProperty<u64>,
    seen: Mutex<HashSet<(InputConfig<u64>, u64)>>,
}

impl ValidityProperty<u64> for OnceOnly<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn is_admissible(&self, c: &InputConfig<u64>, v: &u64) -> bool {
        let first = self.seen.lock().unwrap().insert((c.clone(), *v));
        assert!(first, "{}: ({c:?}, {v}) evaluated twice", self.name());
        self.inner.is_admissible(c, v)
    }
}

#[test]
fn no_pair_is_evaluated_twice() {
    for (n, t) in SYSTEMS {
        let domain = Domain::range(3);
        let mut catalog = generic_catalog(t, 0, 2);
        catalog.push(Box::new(ParityValidity));
        for prop in &catalog {
            let once = OnceOnly {
                inner: prop,
                seen: Mutex::default(),
            };
            classify_with_cost(&once, params(n, t), &domain);
        }
    }
}

/// The whole grid against the reference. Unoptimised, the reference
/// takes a minute; the workspace builds this package at opt-level 2 in the
/// dev profile too, so every test run checks the whole grid in seconds.
#[test]
fn the_whole_grid_matches_the_reference() {
    let mut lookups = 0;
    for cell in classify_grid() {
        let got = classify_with_cost(&cell.property, cell.params, &cell.domain);
        let want = reference(&cell.property, cell.params, &cell.domain);
        assert_eq!(
            got,
            want,
            "{} at {}, |V| = {}",
            cell.name,
            cell.params,
            cell.domain.len()
        );
        lookups += got.1;
    }
    assert_eq!(lookups, GRID_LOOKUPS);
}
