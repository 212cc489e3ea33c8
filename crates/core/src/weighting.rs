/// Min–max normalisation (Eq. 10): scales a score vector to `[0, 1]`.
/// A constant vector normalises to all zeros (no information).
///
/// ```
/// use hotspot_active::normalize_scores;
/// assert_eq!(normalize_scores(&[2.0, 4.0, 3.0]), vec![0.0, 1.0, 0.5]);
/// ```
pub fn normalize_scores(scores: &[f32]) -> Vec<f32> {
    let min = scores.iter().copied().fold(f32::MAX, f32::min);
    let max = scores.iter().copied().fold(f32::MIN, f32::max);
    if scores.is_empty() || (max - min).abs() < 1e-12 {
        return vec![0.0; scores.len()];
    }
    scores.iter().map(|&v| (v - min) / (max - min)).collect()
}

/// Entropy weighting (Eq. 10–13): returns the dynamic weights `(ω₁, ω₂)` of
/// the uncertainty and diversity scores for this iteration.
///
/// For each index, the normalised scores are turned into proportions `q`
/// (Eq. 11) whose entropy `E = −(1/ln n) Σ q ln q` (Eq. 12) measures how
/// *uninformative* that index is: an evenly-spread index carries entropy → 1
/// and is down-weighted, a concentrated index discriminates strongly and is
/// up-weighted (Eq. 13). Degenerate cases (both indices uninformative)
/// fall back to equal weights.
///
/// # Panics
///
/// Panics when the two score vectors differ in length.
///
/// ```
/// use hotspot_active::entropy_weights;
/// // Uncertainty is flat (no information); diversity discriminates.
/// let (w1, w2) = entropy_weights(&[0.5, 0.5, 0.5], &[0.0, 0.0, 1.0]);
/// assert!(w2 > 0.9);
/// assert!((w1 + w2 - 1.0).abs() < 1e-9);
/// ```
pub fn entropy_weights(uncertainty: &[f32], diversity: &[f32]) -> (f64, f64) {
    assert_eq!(
        uncertainty.len(),
        diversity.len(),
        "score vectors differ in length"
    );
    let n = uncertainty.len();
    if n < 2 {
        return (0.5, 0.5);
    }
    let e1 = index_entropy(uncertainty);
    let e2 = index_entropy(diversity);
    let denom = 2.0 - e1 - e2;
    if denom.abs() < 1e-12 {
        return (0.5, 0.5);
    }
    ((1.0 - e1) / denom, (1.0 - e2) / denom)
}

/// Entropy `E_j` of one score index (Eq. 11–12) on its min–max-normalised
/// values. A constant (information-free) index reports entropy 1.
fn index_entropy(scores: &[f32]) -> f64 {
    let n = scores.len();
    let normalized = normalize_scores(scores);
    let total: f64 = normalized.iter().map(|&v| v as f64).sum();
    if total <= 0.0 {
        // All-equal scores: the index cannot rank anything.
        return 1.0;
    }
    let b = 1.0 / (n as f64).ln();
    let mut entropy = 0.0f64;
    for &v in &normalized {
        let q = v as f64 / total;
        if q > 0.0 {
            entropy -= q * q.ln();
        }
    }
    (entropy * b).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn normalize_constant_is_zero() {
        assert_eq!(normalize_scores(&[3.0, 3.0, 3.0]), vec![0.0, 0.0, 0.0]);
        assert!(normalize_scores(&[]).is_empty());
    }

    #[test]
    fn weights_sum_to_one() {
        let (w1, w2) = entropy_weights(&[0.1, 0.9, 0.4], &[0.3, 0.3, 0.9]);
        assert!((w1 + w2 - 1.0).abs() < 1e-9);
        assert!(w1 > 0.0 && w2 > 0.0);
    }

    #[test]
    fn flat_index_gets_zero_weight() {
        let (w1, w2) = entropy_weights(&[0.7, 0.7, 0.7, 0.7], &[0.0, 0.2, 0.9, 0.4]);
        assert!(
            w1 < 1e-9,
            "flat uncertainty should carry no weight, got {w1}"
        );
        assert!((w2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concentrated_index_dominates() {
        // Diversity is nearly one-hot (low entropy), uncertainty spreads
        // evenly over ranks (high entropy): diversity should dominate.
        let uncertainty = [0.0f32, 0.25, 0.5, 0.75, 1.0];
        let diversity = [0.0f32, 0.0, 0.0, 0.01, 1.0];
        let (w1, w2) = entropy_weights(&uncertainty, &diversity);
        assert!(w2 > w1, "w1={w1} w2={w2}");
    }

    #[test]
    fn symmetric_inputs_get_equal_weights() {
        let a = [0.1f32, 0.5, 0.9];
        let (w1, w2) = entropy_weights(&a, &a);
        assert!((w1 - w2).abs() < 1e-9);
    }

    #[test]
    fn both_flat_falls_back_to_half() {
        let (w1, w2) = entropy_weights(&[0.5, 0.5], &[0.2, 0.2]);
        assert_eq!((w1, w2), (0.5, 0.5));
    }

    #[test]
    fn tiny_inputs_fall_back_to_half() {
        assert_eq!(entropy_weights(&[0.3], &[0.9]), (0.5, 0.5));
        assert_eq!(entropy_weights(&[], &[]), (0.5, 0.5));
    }

    /// Eq. 10–13 written out independently in f64: min–max normalise,
    /// `q = v / Σv`, `E = −Σ q ln q / ln n` (a constant index has E = 1),
    /// `ω = (1 − E) / (2 − E₁ − E₂)`, with equal weights for `n < 2` or when
    /// both indices are constant.
    fn reference_weights(uncertainty: &[f32], diversity: &[f32]) -> (f64, f64) {
        let n = uncertainty.len();
        if n < 2 {
            return (0.5, 0.5);
        }
        let entropy = |scores: &[f32]| -> f64 {
            let x: Vec<f64> = scores.iter().map(|&v| f64::from(v)).collect();
            let lo = x.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if hi <= lo {
                return 1.0;
            }
            let v: Vec<f64> = x.iter().map(|&x| (x - lo) / (hi - lo)).collect();
            let sum: f64 = v.iter().sum();
            let plogp: f64 = v
                .iter()
                .filter(|&&v| v > 0.0)
                .map(|&v| (v / sum) * (v / sum).ln())
                .sum();
            -plogp / (n as f64).ln()
        };
        let (e1, e2) = (entropy(uncertainty), entropy(diversity));
        if e1 >= 1.0 && e2 >= 1.0 {
            return (0.5, 0.5);
        }
        ((1.0 - e1) / (2.0 - e1 - e2), (1.0 - e2) / (2.0 - e1 - e2))
    }

    proptest! {
        #[test]
        fn prop_weights_match_f64_reference(
            pairs in proptest::collection::vec((-5.0f32..5.0, -5.0f32..5.0), 0..40),
            flat in 0u8..4,
        ) {
            // `flat` makes neither, the first, the second or both indices
            // constant, so the E = 1 and equal-weight fallbacks are drawn
            // as often as the general case.
            let mut u: Vec<f32> = pairs.iter().map(|p| p.0).collect();
            let mut d: Vec<f32> = pairs.iter().map(|p| p.1).collect();
            if flat & 1 == 1 {
                u.iter_mut().for_each(|v| *v = 0.25);
            }
            if flat & 2 == 2 {
                d.iter_mut().for_each(|v| *v = -1.5);
            }
            let (w1, w2) = entropy_weights(&u, &d);
            let (r1, r2) = reference_weights(&u, &d);
            // The implementation normalises in f32; its relative rounding
            // (~1e-7) reaches the weights amplified by 1 / (2 − E₁ − E₂).
            prop_assert!(
                (w1 - r1).abs() < 1e-5 && (w2 - r2).abs() < 1e-5,
                "n={} flat={flat}: ({w1}, {w2}) vs reference ({r1}, {r2})",
                u.len()
            );
        }

        #[test]
        fn prop_weights_valid(
            u in proptest::collection::vec(0.0f32..1.0, 2..30),
            seed in 0u64..100,
        ) {
            // Pair with a shuffled copy to vary the second index.
            let mut d = u.clone();
            let n = d.len();
            d.rotate_left((seed as usize) % n);
            let (w1, w2) = entropy_weights(&u, &d);
            prop_assert!((0.0..=1.0).contains(&w1));
            prop_assert!((0.0..=1.0).contains(&w2));
            prop_assert!((w1 + w2 - 1.0).abs() < 1e-9);
        }

        #[test]
        fn prop_normalize_bounds(scores in proptest::collection::vec(-100.0f32..100.0, 1..50)) {
            let n = normalize_scores(&scores);
            for &v in &n {
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
