//! Least-squares calibration of the area/energy model against the paper's
//! published reference points.
//!
//! The paper reports five area points (one standalone controller plus the
//! four Table 2 rows at R = 1.3) and four energy points. We fit a
//! quadratic in the weighted storage bits of one bank controller (see
//! [`Calibration`]) to those points with ordinary least squares. This substitutes for Cacti 3.0 +
//! Synopsys synthesis, which are unavailable; the fit reproduces every
//! published point to within ~10% and preserves the linear
//! resources-vs-area scaling the paper's Figure 7 depends on.

use crate::params::ControllerParams;
use std::sync::LazyLock;

/// Fitted model coefficients `[a, b, c]` for `y = a + b·w + c·w²` where
/// `w = sram_bits + 2·cam_bits` is the weighted storage-bit count of one
/// bank controller (CAM cells cost roughly twice an SRAM cell). All the
/// paper's reference designs keep `K = 2Q`, which makes SRAM and CAM bits
/// collinear — so a single weighted-bits predictor with a quadratic term
/// (wiring/periphery grows superlinearly) is the best-conditioned model
/// the published data supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Area coefficients, mm² per bank controller.
    pub area: [f64; 3],
    /// Energy coefficients, nJ per access for the controller set.
    pub energy: [f64; 3],
}

/// The weighted-bits predictor used by the calibration.
pub fn weighted_bits(params: &ControllerParams) -> f64 {
    params.sram_bits_per_bank() as f64 + 2.0 * params.cam_bits_per_bank() as f64
}

/// The 0.13 µm calibration (paper's technology node), computed on first
/// use.
pub static CALIBRATION_013UM: LazyLock<Calibration> = LazyLock::new(calibrate_013um);

fn bits_of(q: u64, k: u64) -> f64 {
    let p =
        ControllerParams { queue_entries: q, storage_rows: k, ..ControllerParams::paper_default() };
    weighted_bits(&p)
}

fn calibrate_013um() -> Calibration {
    // (Q, K, per-bank area mm²): the 0.15 mm² standalone reference plus
    // Table 2 totals divided by B = 32.
    let area_points: &[(u64, u64, f64)] = &[
        (12, 24, 0.15),
        (24, 48, 13.6 / 32.0),
        (32, 64, 19.4 / 32.0),
        (48, 96, 34.1 / 32.0),
        (64, 128, 53.2 / 32.0),
    ];
    // (Q, K, energy nJ) from Table 2 at R = 1.3.
    let energy_points: &[(u64, u64, f64)] =
        &[(24, 48, 11.09), (32, 64, 13.26), (48, 96, 17.05), (64, 128, 21.51)];

    Calibration { area: fit(area_points), energy: fit(energy_points) }
}

/// Ordinary least squares for `y = a + b·w + c·w²` over `(Q, K, y)`
/// points, via the 3×3 normal equations. Inputs are scaled to unit
/// magnitude before solving to keep the system well conditioned.
fn fit(points: &[(u64, u64, f64)]) -> [f64; 3] {
    let rows: Vec<([f64; 3], f64)> = points
        .iter()
        .map(|&(q, k, y)| {
            let w = bits_of(q, k);
            ([1.0, w, w * w], y)
        })
        .collect();
    let scale = [
        1.0,
        rows.iter().map(|(x, _)| x[1]).fold(f64::MIN, f64::max),
        rows.iter().map(|(x, _)| x[2]).fold(f64::MIN, f64::max),
    ];
    let mut xtx = [[0.0f64; 3]; 3];
    let mut xty = [0.0f64; 3];
    for (x, y) in &rows {
        let xs = [x[0] / scale[0], x[1] / scale[1], x[2] / scale[2]];
        for i in 0..3 {
            for j in 0..3 {
                xtx[i][j] += xs[i] * xs[j];
            }
            xty[i] += xs[i] * y;
        }
    }
    // tiny ridge for numerical safety
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    let beta = solve3(xtx, xty);
    [beta[0] / scale[0], beta[1] / scale[1], beta[2] / scale[2]]
}

/// Gaussian elimination with partial pivoting for a 3×3 system.
fn solve3(mut a: [[f64; 3]; 3], mut b: [f64; 3]) -> [f64; 3] {
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty range");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let p = a[col][col];
        assert!(p.abs() > 1e-30, "singular calibration system");
        for row in 0..3 {
            if row != col {
                let f = a[row][col] / p;
                let pivot_row = a[col];
                for (k, entry) in a[row].iter_mut().enumerate().skip(col) {
                    *entry -= f * pivot_row[k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    [b[0] / a[0][0], b[1] / a[1][1], b[2] / a[2][2]]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve3_identity() {
        let x = solve3([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [3.0, 4.0, 5.0]);
        assert_eq!(x, [3.0, 4.0, 5.0]);
    }

    #[test]
    fn solve3_general() {
        // A·x = b with known x = [1, -2, 3]
        let a = [[2.0, 1.0, 1.0], [1.0, 3.0, 2.0], [1.0, 0.0, 0.0]];
        let x_true = [1.0f64, -2.0, 3.0];
        let b: Vec<f64> =
            a.iter().map(|row| row.iter().zip(&x_true).map(|(c, x)| c * x).sum()).collect();
        let x = solve3(a, [b[0], b[1], b[2]]);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    #[test]
    fn calibration_monotone_over_design_range() {
        // The fitted curves must be increasing across the realistic
        // weighted-bit range (the linear coefficient can trade off against
        // the quadratic one, so check the derivative at range endpoints).
        let cal = &*CALIBRATION_013UM;
        let lo = bits_of(12, 24);
        let hi = bits_of(64, 128);
        for coeff in [cal.area, cal.energy] {
            for w in [lo, hi] {
                let slope = coeff[1] + 2.0 * coeff[2] * w;
                assert!(slope > 0.0, "model must be increasing at w={w}");
            }
        }
    }

    #[test]
    fn fit_residuals_small() {
        // The fit should pass near every published area point.
        let points: &[(u64, u64, f64)] = &[
            (12, 24, 0.15),
            (24, 48, 13.6 / 32.0),
            (32, 64, 19.4 / 32.0),
            (48, 96, 34.1 / 32.0),
            (64, 128, 53.2 / 32.0),
        ];
        let cal = &*CALIBRATION_013UM;
        for &(q, k, y) in points {
            let w = bits_of(q, k);
            let pred = cal.area[0] + cal.area[1] * w + cal.area[2] * w * w;
            assert!((pred - y).abs() / y < 0.15, "Q={q} K={k}: {pred} vs {y}");
        }
    }
}
