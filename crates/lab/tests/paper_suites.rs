//! The paper's complexity claims, asserted on the built-in suites that
//! carry them: Theorem 5 (`universal`), Appendix B.2 (`nonauth`),
//! Appendix B.3 (`subcubic`) and the schedule-insensitivity of the
//! measurements themselves (`schedules`).

use validity_lab::{suites, FitMeasure, GroupSummary, PowerFit, SweepEngine, SweepReport};

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

#[test]
fn paper_suites_are_clean_and_their_fits_sit_in_band() {
    type Claim = fn(&SweepReport);
    let suites: [(&str, Claim); 4] = [
        ("universal", |_| ()),
        ("nonauth", nonauth),
        ("subcubic", subcubic),
        ("schedules", schedules),
    ];
    for (name, claim) in suites {
        let matrix = suites::build(name).expect("built-in suite");
        let (report, _) = SweepEngine::new(2).run(&matrix);
        assert_eq!(report.violations(), 0, "{name}");
        assert!(
            report.quarantined.is_empty(),
            "{name}: {:?}",
            report.quarantined
        );
        assert_eq!(report.fits_out_of_band(), 0, "{name}");
        let banded: Vec<_> = report.fits.iter().filter(|f| f.band.is_some()).collect();
        assert_eq!(banded.is_empty(), matrix.fit_bands.is_empty(), "{name}");
        for row in banded {
            assert_eq!(row.within_band, Some(true), "{name}: {row:?}");
            let fit = row.fit.expect("a row in band has a fit");
            assert!(fit.r_squared >= 0.95, "{name}: poor fit {row:?}");
        }
        claim(&report);
    }
}
