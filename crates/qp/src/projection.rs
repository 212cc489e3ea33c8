/// Euclidean projection of `x` onto the capped simplex
/// `{ s : 0 ≤ sᵢ ≤ 1, Σ sᵢ = k }`.
///
/// The projection is `sᵢ = clamp(xᵢ − τ, 0, 1)` for the shift `τ` making
/// the coordinates sum to `k`. That sum is piecewise linear in `τ`, with
/// breakpoints at `xᵢ − 1` (coordinate `i` leaves the cap) and `xᵢ` (it
/// reaches zero); `τ` is found exactly by sorting `x` once and scanning the
/// breakpoints in order for the segment that crosses `k`, in O(n log n).
///
/// # Panics
///
/// Panics when `k` is outside `[0, x.len()]` or not finite.
///
/// ```
/// use hotspot_qp::project_capped_simplex;
/// let p = project_capped_simplex(&[10.0, 0.0, -10.0], 1.0);
/// assert!((p[0] - 1.0).abs() < 1e-9);
/// assert!(p[2].abs() < 1e-9);
/// ```
pub fn project_capped_simplex(x: &[f64], k: f64) -> Vec<f64> {
    let n = x.len();
    assert!(
        k.is_finite() && (0.0..=n as f64).contains(&k),
        "budget {k} outside [0, {n}]"
    );
    let tau = shift(x, k);
    x.iter().map(|&v| (v - tau).clamp(0.0, 1.0)).collect()
}

/// The shift `τ` with `Σ clamp(xᵢ − τ, 0, 1) = k` (any shift for empty `x`).
fn shift(x: &[f64], k: f64) -> f64 {
    let mut sorted = x.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    // The breakpoints ascend as the merge of two sorted streams: at
    // `sorted[u] − 1` coordinate u leaves the cap, at `sorted[z]` z reaches
    // zero. Past u uncaps and z zeros, the sum is
    // `(n − u) + Σ_free xᵢ − (u − z)·τ`, linear up to the next breakpoint.
    let (mut u, mut z) = (0, 0);
    let mut free_sum = 0.0f64;
    let mut left = sorted.first().map_or(0.0, |v| v - 1.0);
    while z < n {
        // A coordinate reaches zero only after it left the cap, so with none
        // free (u == z) the next breakpoint is an uncap, NaN or not.
        let uncaps = u < n && (u == z || sorted[u] - 1.0 <= sorted[z]);
        let at = if uncaps { sorted[u] - 1.0 } else { sorted[z] };
        let (capped, free) = ((n - u) as f64, (u - z) as f64);
        if capped + free_sum - free * at <= k {
            // The sum crosses k on [left, at]. With no free coordinate it
            // is constant there, any τ in the segment projects the same, and
            // the ±∞ or NaN quotient lands on an end of it.
            return ((capped + free_sum - k) / free).max(left).min(at);
        }
        if uncaps {
            free_sum += sorted[u];
            u += 1;
        } else {
            free_sum -= sorted[z];
            z += 1;
        }
        left = at;
    }
    // Only reached when a NaN defeats every crossing test.
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::bisect_capped_simplex;
    use proptest::prelude::*;

    fn assert_feasible(p: &[f64], k: f64) {
        for &v in p {
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&v),
                "coordinate {v} out of box"
            );
        }
        let sum: f64 = p.iter().sum();
        assert!((sum - k).abs() < 1e-6, "sum {sum} != {k}");
    }

    #[test]
    fn already_feasible_is_fixed_point() {
        let x = [0.5, 0.25, 0.25];
        let p = project_capped_simplex(&x, 1.0);
        for (a, b) in x.iter().zip(&p) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn extreme_scores_saturate() {
        let p = project_capped_simplex(&[100.0, 50.0, -100.0, -100.0], 2.0);
        assert!((p[0] - 1.0).abs() < 1e-9);
        assert!((p[1] - 1.0).abs() < 1e-9);
        assert!(p[2].abs() < 1e-9);
    }

    #[test]
    fn budget_zero_gives_zeros() {
        let p = project_capped_simplex(&[3.0, 2.0], 0.0);
        assert!(p.iter().all(|&v| v.abs() < 1e-9));
    }

    #[test]
    fn budget_n_gives_ones() {
        let p = project_capped_simplex(&[-3.0, -2.0], 2.0);
        assert!(p.iter().all(|&v| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn empty_input() {
        assert!(project_capped_simplex(&[], 0.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_excess_budget() {
        let _ = project_capped_simplex(&[0.0], 2.0);
    }

    #[test]
    fn ties_and_repeated_values_project_exactly() {
        let p = project_capped_simplex(&[0.5, 0.5, 0.5, 0.5], 2.0);
        assert_eq!(p, vec![0.5; 4]);
        let p = project_capped_simplex(&[1.0, 1.0, 0.0, 0.0], 2.0);
        assert_eq!(p, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn non_finite_input_does_not_panic() {
        let p = project_capped_simplex(&[1.0, f64::NAN, 0.5], 1.0);
        assert_eq!(p.len(), 3);
        let p = project_capped_simplex(&[f64::INFINITY, 0.0, f64::NEG_INFINITY], 1.0);
        assert_eq!(p.len(), 3);
    }

    proptest! {
        #[test]
        fn prop_matches_bisection_reference(
            x in proptest::collection::vec(-20.0f64..20.0, 1..60),
            frac in 0.0f64..=1.0,
        ) {
            let k = (frac * x.len() as f64).min(x.len() as f64);
            let exact = project_capped_simplex(&x, k);
            let bisected = bisect_capped_simplex(&x, k);
            assert_feasible(&exact, k);
            for (a, b) in exact.iter().zip(&bisected) {
                prop_assert!((a - b).abs() <= 1e-9, "exact {a} vs bisection {b}");
            }
        }

        #[test]
        fn prop_projection_is_feasible(
            x in proptest::collection::vec(-20.0f64..20.0, 1..30),
            frac in 0.0f64..1.0,
        ) {
            let k = (frac * x.len() as f64 * 100.0).round() / 100.0;
            let k = k.min(x.len() as f64);
            let p = project_capped_simplex(&x, k);
            assert_feasible(&p, k);
        }

        #[test]
        fn prop_projection_is_closest_among_perturbations(
            x in proptest::collection::vec(-5.0f64..5.0, 2..10),
        ) {
            // The projection must beat simple feasible alternatives.
            let k = (x.len() / 2) as f64;
            let p = project_capped_simplex(&x, k);
            let d_proj: f64 = x.iter().zip(&p).map(|(a, b)| (a - b).powi(2)).sum();
            // Uniform feasible point.
            let uniform = vec![k / x.len() as f64; x.len()];
            let d_uniform: f64 = x.iter().zip(&uniform).map(|(a, b)| (a - b).powi(2)).sum();
            prop_assert!(d_proj <= d_uniform + 1e-6);
        }

        #[test]
        fn prop_order_preserved(x in proptest::collection::vec(-5.0f64..5.0, 2..12)) {
            // Projection by a common shift preserves the coordinate order.
            let k = 1.0f64.min(x.len() as f64);
            let p = project_capped_simplex(&x, k);
            for i in 0..x.len() {
                for j in 0..x.len() {
                    if x[i] > x[j] {
                        prop_assert!(p[i] + 1e-9 >= p[j]);
                    }
                }
            }
        }
    }
}
