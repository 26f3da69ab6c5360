//! Power-law fitting: estimating the exponent `k` of `y ≈ c·xᵏ` from
//! measurements, by least squares on the log–log scale.
//!
//! The paper's complexity claims are asymptotic *shapes* (`Θ(n²)` messages,
//! `O(n⁴)` for the non-authenticated variant, ...); the experiments verify
//! them by fitting the measured curves and checking the exponent lands in
//! the expected band; sweep reports carry the fits as a section of their own.

/// Result of a power-law fit `y = c · xᵏ`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerFit {
    /// The fitted exponent `k`.
    pub exponent: f64,
    /// The fitted constant `c`.
    pub constant: f64,
    /// Coefficient of determination on the log–log scale.
    pub r_squared: f64,
}

/// Fits `y ≈ c·xᵏ` to the points by linear regression in log–log space,
/// reporting degenerate inputs as `None` instead of panicking.
///
/// Returns `None` when fewer than two points are supplied, any coordinate
/// is non-positive (logarithms would be undefined), or the x-axis has no
/// variance (every point shares one x — the slope is unconstrained). A
/// sweep whose cells cannot support a fit still renders, with the fit row
/// marked unfittable.
///
/// ```
/// use validity_lab::try_fit_exponent;
///
/// // y = 3·x² measured at three sizes: the fit recovers the shape.
/// let fit = try_fit_exponent(&[(4.0, 48.0), (7.0, 147.0), (10.0, 300.0)]).unwrap();
/// assert!((fit.exponent - 2.0).abs() < 1e-9);
/// assert!((fit.constant - 3.0).abs() < 1e-6);
/// // One size cannot constrain an exponent.
/// assert!(try_fit_exponent(&[(4.0, 48.0)]).is_none());
/// ```
pub fn try_fit_exponent(points: &[(f64, f64)]) -> Option<PowerFit> {
    if points.len() < 2 {
        return None;
    }
    if points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None; // zero x-variance: slope unconstrained
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;

    let mean_y = sy / n;
    let ss_tot: f64 = logs.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = logs
        .iter()
        .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
        .sum();
    // Near-zero y-variance (a flat measurement) makes 1 − ss_res/ss_tot a
    // ratio of float residues; report the constant fit as exact instead.
    let r_squared = if ss_tot < 1e-12 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };

    Some(PowerFit {
        exponent: slope,
        constant: intercept.exp(),
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_quadratic() {
        let pts: Vec<(f64, f64)> = (2..10).map(|x| (x as f64, (x * x) as f64 * 3.0)).collect();
        let fit = try_fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.constant - 3.0).abs() < 1e-6);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn recovers_quartic_with_noise() {
        let pts: Vec<(f64, f64)> = (3..12)
            .map(|x| {
                let x = x as f64;
                (x, x.powi(4) * (1.0 + 0.05 * x.sin()))
            })
            .collect();
        let fit = try_fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 4.0).abs() < 0.2, "{fit:?}");
    }

    #[test]
    fn heavy_noise_lowers_r_squared_but_not_below_zero_shape() {
        // Alternating ±60% noise: the exponent estimate degrades and R²
        // drops visibly below the clean-fit regime, but the machinery stays
        // well-defined.
        let pts: Vec<(f64, f64)> = (2..20)
            .map(|x| {
                let x = x as f64;
                let noise = if (x as u64).is_multiple_of(2) {
                    1.6
                } else {
                    0.4
                };
                (x, x * x * noise)
            })
            .collect();
        let fit = try_fit_exponent(&pts).unwrap();
        assert!((fit.exponent - 2.0).abs() < 0.5, "{fit:?}");
        assert!(fit.r_squared < 0.99, "{fit:?}");
        assert!(fit.r_squared > 0.5, "{fit:?}");
    }

    #[test]
    fn two_point_fit_is_exact_with_unit_r_squared() {
        // Two points determine the line exactly: residuals are zero, so
        // R² must be exactly 1 even though ss_tot is non-zero.
        let fit = try_fit_exponent(&[(2.0, 12.0), (8.0, 192.0)]).unwrap();
        assert!((fit.exponent - 2.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.constant - 3.0).abs() < 1e-9, "{fit:?}");
        assert!((fit.r_squared - 1.0).abs() < 1e-12, "{fit:?}");
    }

    #[test]
    fn near_zero_variance_y_is_a_constant_fit() {
        // A flat measurement (same y everywhere): slope 0, and the ss_tot
        // == 0 branch must report R² = 1, not NaN.
        let pts: Vec<(f64, f64)> = (1..6).map(|x| (x as f64, 7.0)).collect();
        let fit = try_fit_exponent(&pts).unwrap();
        assert!(fit.exponent.abs() < 1e-9, "{fit:?}");
        assert!((fit.constant - 7.0).abs() < 1e-6, "{fit:?}");
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn try_fit_rejects_degenerate_inputs_without_panicking() {
        // Too few points.
        assert_eq!(try_fit_exponent(&[]), None);
        assert_eq!(try_fit_exponent(&[(1.0, 1.0)]), None);
        // Non-positive coordinates.
        assert_eq!(try_fit_exponent(&[(1.0, 0.0), (2.0, 4.0)]), None);
        assert_eq!(try_fit_exponent(&[(-1.0, 2.0), (2.0, 4.0)]), None);
        // Zero x-variance: both observations at the same x.
        assert_eq!(try_fit_exponent(&[(3.0, 5.0), (3.0, 9.0)]), None);
        // A healthy input still fits.
        assert!(try_fit_exponent(&[(1.0, 1.0), (2.0, 4.0)]).is_some());
    }

    #[test]
    fn rejects_single_point() {
        assert_eq!(try_fit_exponent(&[(1.0, 1.0)]), None);
    }

    #[test]
    fn rejects_non_positive() {
        assert_eq!(try_fit_exponent(&[(1.0, 0.0), (2.0, 4.0)]), None);
    }
}
