/// Binary Best-versus-Second-Best uncertainty (Eq. 3):
/// `uᵢ = 1 − |σ(z)⁽⁰⁾ − σ(z)⁽¹⁾|` for each row of two-class probabilities.
///
/// # Panics
///
/// Panics when `probabilities.len()` is odd.
///
/// ```
/// use hotspot_active::bvsb_scores;
/// let scores = bvsb_scores(&[0.5, 0.5, 0.9, 0.1]);
/// assert!(scores[0] > scores[1]); // the 50/50 sample is maximally uncertain
/// ```
pub fn bvsb_scores(probabilities: &[f32]) -> Vec<f32> {
    assert_eq!(
        probabilities.len() % 2,
        0,
        "expected two-class probability rows"
    );
    probabilities
        .chunks_exact(2)
        .map(|p| 1.0 - (p[0] - p[1]).abs())
        .collect()
}

/// Hotspot-aware calibrated uncertainty (Eq. 6).
///
/// For each two-class probability row `(σ⁽⁰⁾, σ⁽¹⁾)` (class 1 = hotspot) and
/// decision boundary `h`:
///
/// ```text
///   uᵢ = σ⁽⁰⁾ + h   if σ⁽¹⁾ > h     (hotspot-like: score in (h, 1 + h − …])
///   uᵢ = σ⁽¹⁾       otherwise       (non-hotspot-like: score below h)
/// ```
///
/// The score peaks just above the boundary (maximally uncertain *and*
/// hotspot-like) and ranks every hotspot-like sample above every
/// non-hotspot-like one, matching the paper's intent of preferring samples
/// that are both near the boundary and in hotspot regions.
///
/// `probabilities` should already be temperature-calibrated (Eq. 5);
/// pass raw softmax outputs to reproduce the uncalibrated ablation.
///
/// # Panics
///
/// Panics when `probabilities.len()` is odd or `h` is outside `(0, 1)`.
///
/// ```
/// use hotspot_active::uncertainty_scores;
/// // P(hotspot) = 0.45 (just above h) scores higher than P(hotspot) = 0.95.
/// let scores = uncertainty_scores(&[0.55, 0.45, 0.05, 0.95], 0.4);
/// assert!(scores[0] > scores[1]);
/// ```
pub fn uncertainty_scores(probabilities: &[f32], h: f32) -> Vec<f32> {
    assert_eq!(
        probabilities.len() % 2,
        0,
        "expected two-class probability rows"
    );
    assert!(h > 0.0 && h < 1.0, "boundary h must lie in (0, 1), got {h}");
    probabilities
        .chunks_exact(2)
        .map(|p| if p[1] > h { p[0] + h } else { p[1] })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bvsb_peaks_at_even_split() {
        let s = bvsb_scores(&[0.5, 0.5, 0.7, 0.3, 1.0, 0.0]);
        assert!((s[0] - 1.0).abs() < 1e-6);
        assert!((s[1] - 0.6).abs() < 1e-6);
        assert!(s[2].abs() < 1e-6);
    }

    #[test]
    fn hotspot_like_scores_exceed_non_hotspot_like() {
        // Every sample with P(hs) > h must outrank every sample below h.
        let probs = [
            0.55f32, 0.45, // just above h
            0.05, 0.95, // confident hotspot
            0.61, 0.39, // just below h
            0.99, 0.01, // confident non-hotspot
        ];
        let s = uncertainty_scores(&probs, 0.4);
        assert!(s[0] > s[2] && s[0] > s[3]);
        assert!(s[1] > s[2] && s[1] > s[3]);
    }

    #[test]
    fn score_decreases_with_hotspot_confidence_above_h() {
        let s = uncertainty_scores(&[0.55, 0.45, 0.3, 0.7, 0.05, 0.95], 0.4);
        assert!(s[0] > s[1]);
        assert!(s[1] > s[2]);
    }

    #[test]
    fn score_increases_towards_h_from_below() {
        let s = uncertainty_scores(&[0.9, 0.1, 0.7, 0.3, 0.61, 0.39], 0.4);
        assert!(s[0] < s[1]);
        assert!(s[1] < s[2]);
    }

    #[test]
    fn boundary_value_is_not_hotspot_like() {
        // Eq. 6 uses a strict inequality: σ⁽¹⁾ = h takes the lower branch.
        let s = uncertainty_scores(&[0.6, 0.4], 0.4);
        assert!((s[0] - 0.4).abs() < 1e-6);
    }

    #[test]
    fn eq6_matches_closed_form_at_and_around_h() {
        // Closed form of Eq. 6 in f64 with p₀ = 1 − p₁: u = 1 − p₁ + h when
        // p₁ > h, else u = p₁. Checked at h itself (lower branch), one ulp
        // on each side and a visible step on each side.
        for h in [0.05f32, 0.25, 0.4, 0.5, 0.75, 0.95] {
            let ulp_below = f32::from_bits(h.to_bits() - 1);
            let ulp_above = f32::from_bits(h.to_bits() + 1);
            for p1 in [h - 0.01, ulp_below, h, ulp_above, h + 0.01] {
                let closed = if f64::from(p1) > f64::from(h) {
                    1.0 - f64::from(p1) + f64::from(h)
                } else {
                    f64::from(p1)
                };
                let u = uncertainty_scores(&[1.0 - p1, p1], h)[0];
                assert!(
                    (f64::from(u) - closed).abs() < 1e-6,
                    "h={h} p1={p1}: u={u}, closed form {closed}"
                );
            }
            // The score jumps at the boundary: from h at p₁ = h to its
            // maximum, 1, just above it.
            assert!((uncertainty_scores(&[1.0 - ulp_above, ulp_above], h)[0] - 1.0).abs() < 1e-6);
            assert_eq!(uncertainty_scores(&[1.0 - h, h], h)[0], h);
        }
    }

    #[test]
    #[should_panic(expected = "two-class")]
    fn odd_length_panics() {
        let _ = uncertainty_scores(&[0.5, 0.5, 0.1], 0.4);
    }

    #[test]
    #[should_panic(expected = "boundary h")]
    fn bad_h_panics() {
        let _ = uncertainty_scores(&[0.5, 0.5], 1.0);
    }

    proptest! {
        #[test]
        fn prop_scores_bounded(p1 in 0.0f32..=1.0) {
            let probs = [1.0 - p1, p1];
            let s = uncertainty_scores(&probs, 0.4);
            prop_assert!((0.0..=1.4 + 1e-6).contains(&s[0]));
        }

        #[test]
        fn prop_hotspot_branch_dominates(p_low in 0.0f32..0.4, p_high in 0.4001f32..=1.0) {
            let s = uncertainty_scores(&[1.0 - p_low, p_low, 1.0 - p_high, p_high], 0.4);
            prop_assert!(s[1] > s[0]);
        }

        #[test]
        fn prop_bvsb_symmetric(p in 0.0f32..=1.0) {
            let a = bvsb_scores(&[p, 1.0 - p]);
            let b = bvsb_scores(&[1.0 - p, p]);
            prop_assert!((a[0] - b[0]).abs() < 1e-6);
        }
    }
}
