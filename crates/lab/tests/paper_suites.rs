//! The paper's complexity claims, asserted on the built-in suites that
//! carry them: §3.1's message and word growth across algorithms
//! (`complexity`), Theorem 5 (`universal`), Appendix B.2 (`nonauth`),
//! Appendix B.3 (`subcubic`), the schedule-insensitivity of the
//! measurements themselves (`schedules`), and §4–5's classifier as a cost
//! curve over the domain size (`classifier-domain`).

use validity_lab::{suites, FitAxis, FitMeasure, GroupSummary, PowerFit, SweepEngine, SweepReport};

fn fit(report: &SweepReport, key: &str, measure: FitMeasure) -> PowerFit {
    let row = report.fit(key, measure);
    row.and_then(|row| row.fit)
        .unwrap_or_else(|| panic!("{}: no {measure} fit for {key}", report.matrix))
}

/// Appendix B.2: dropping signatures costs at least a polynomial degree.
fn nonauth(report: &SweepReport) {
    let alg1 = fit(
        report,
        "fit/alg1-auth/vector/silentx0/sync",
        FitMeasure::Messages,
    );
    let alg3 = fit(
        report,
        "fit/alg3-nonauth/vector/silentx0/sync",
        FitMeasure::Messages,
    );
    assert!(alg3.exponent > alg1.exponent + 0.8, "{alg3:?} vs {alg1:?}");
}

/// Appendix B.3: Algorithm 6 wins on words and pays in latency, visibly so
/// at the largest size under the full silent load.
fn subcubic(report: &SweepReport) {
    let alg1 = fit(
        report,
        "fit/alg1-auth/vector/silentx0/sync",
        FitMeasure::Words,
    );
    let alg6 = fit(
        report,
        "fit/alg6-fast/vector/silentx0/sync",
        FitMeasure::Words,
    );
    assert!(alg6.exponent < alg1.exponent, "{alg6:?} vs {alg1:?}");
    let loaded_at_largest_n = |engine: &str| -> &GroupSummary {
        let key = format!("fit/{engine}/vector/silentxmax/sync");
        let groups = report.groups.iter().filter(|g| g.fit_key == key);
        groups.max_by_key(|g| g.fit_x).expect("loaded groups")
    };
    let (alg1, alg6) = (
        loaded_at_largest_n("alg1-auth"),
        loaded_at_largest_n("alg6-fast"),
    );
    assert_eq!((alg1.fit_x, alg6.fit_x), (13, 13));
    assert!(alg6.latency.min > alg1.latency.max, "{alg6:?} vs {alg1:?}");
}

/// The complexity tables measure the protocol, not the scheduler: under
/// synchrony a group's post-GST message count is the same at every seed.
fn schedules(report: &SweepReport) {
    let sync: Vec<_> = report
        .groups
        .iter()
        .filter(|g| g.key.contains("/sync/"))
        .collect();
    assert!(!sync.is_empty());
    for g in sync {
        assert_eq!(g.runs, 5, "{}", g.key);
        assert_eq!(
            g.messages_after_gst.min, g.messages_after_gst.max,
            "{}",
            g.key
        );
    }
}

/// `(key, measure)` for every fit row a suite must report, in report
/// order (measure, then fit group): `measures` × the groups `keys` yields.
fn rows(
    measures: &[FitMeasure],
    keys: impl Fn(&str) -> String,
    groups: &[&str],
) -> Vec<(String, FitMeasure)> {
    let mut out = Vec::new();
    for &measure in measures {
        out.extend(groups.iter().map(|g| (keys(g), measure)));
    }
    out
}

/// The fit rows each suite is pinned to. A row that vanishes, or one that
/// appears unbanded, fails the test.
fn pinned_rows(name: &str) -> Vec<(String, FitMeasure)> {
    use FitMeasure::{ClassifyCost, Latency, Messages, Words};
    let vector = |g: &str| format!("fit/{g}/sync");
    match name {
        "complexity" => rows(
            &[Messages, Words],
            vector,
            &[
                "alg1-auth/vector/silentx0",
                "alg1-auth/vector/silentxmax",
                "alg3-nonauth/vector/silentx0",
                "alg3-nonauth/vector/silentxmax",
                "alg6-fast/vector/silentx0",
                "alg6-fast/vector/silentxmax",
            ],
        ),
        "universal" => rows(
            &[Messages, Words],
            |g| format!("fit/universal/alg1-auth/{g}/sync"),
            &[
                "strong/silentx0",
                "strong/silentxmax",
                "median/silentx0",
                "median/silentxmax",
                "convex-hull/silentx0",
                "convex-hull/silentxmax",
                "correct-proposal/silentx0",
                "correct-proposal/silentxmax",
            ],
        ),
        "nonauth" => rows(
            &[Messages, Words],
            vector,
            &["alg1-auth/vector/silentx0", "alg3-nonauth/vector/silentx0"],
        ),
        "subcubic" => rows(
            &[Words, Latency],
            vector,
            &[
                "alg1-auth/vector/silentx0",
                "alg1-auth/vector/silentxmax",
                "alg6-fast/vector/silentx0",
                "alg6-fast/vector/silentxmax",
            ],
        ),
        "classifier-domain" => rows(
            &[ClassifyCost],
            |g| format!("fit/classify/{g}/n4t1"),
            &["strong", "weak", "median", "convex-hull"],
        ),
        _ => Vec::new(),
    }
}

#[test]
fn paper_suites_are_clean_and_their_fits_sit_in_band() {
    type Claim = fn(&SweepReport);
    let suites: [(&str, usize, Claim); 6] = [
        ("complexity", 12, |_| ()),
        ("universal", 16, |_| ()),
        ("nonauth", 4, nonauth),
        ("subcubic", 8, subcubic),
        ("classifier-domain", 4, |_| ()),
        ("schedules", 0, schedules),
    ];
    for (name, fit_rows, claim) in suites {
        let matrix = suites::build(name).expect("built-in suite");
        let (report, _) = SweepEngine::new(2).run(&matrix);
        assert_eq!(report.violations(), 0, "{name}");
        assert!(
            report.quarantined.is_empty(),
            "{name}: {:?}",
            report.quarantined
        );
        assert_eq!(report.fits_out_of_band(), 0, "{name}");
        let reported: Vec<(String, FitMeasure)> = report
            .fits
            .iter()
            .map(|f| (f.key.clone(), f.measure))
            .collect();
        assert_eq!(reported, pinned_rows(name), "{name}");
        assert_eq!(reported.len(), fit_rows, "{name}");
        for row in &report.fits {
            assert!(row.band.is_some(), "{name}: unbanded {row:?}");
            assert_eq!(row.within_band, Some(true), "{name}: {row:?}");
            let fit = row.fit.expect("a row in band has a fit");
            // Algorithm 1's latency is flat (k ≈ 0) and fits at R² ≈ 0.65.
            if row.measure != FitMeasure::Latency {
                assert!(fit.r_squared >= 0.95, "{name}: poor fit {row:?}");
            }
        }
        claim(&report);
    }
}

#[test]
fn classifier_domain_suite_fits_cost_in_band() {
    let m = suites::build("classifier-domain").expect("built-in suite");
    let (report, _) = SweepEngine::new(2).run(&m);
    assert_eq!(report.fit_axis, FitAxis::Domain);
    assert_eq!(report.violations(), 0);
    assert_eq!(report.fits.len(), 4, "{:?}", report.fits);
    for f in &report.fits {
        assert_eq!(f.measure, FitMeasure::ClassifyCost);
        assert_eq!(f.points.len(), 5, "{f:?}");
        assert_eq!(f.within_band, Some(true), "{f:?}");
        let fit = f.fit.expect("five domain sizes fit");
        assert!(fit.r_squared > 0.99, "{fit:?}");
    }
    // The cost counter is visible per cell in both emitters.
    assert!(report.to_json().contains("\"cost\": "));
    assert!(report.to_markdown().contains("| cost |"));
}
