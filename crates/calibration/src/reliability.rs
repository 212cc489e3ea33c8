use std::fmt;

/// One equal-width confidence bin of a reliability diagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityBin {
    /// Inclusive lower confidence edge.
    pub lower: f64,
    /// Exclusive upper confidence edge (inclusive for the last bin).
    pub upper: f64,
    /// Samples whose top confidence fell in this bin.
    pub count: usize,
    /// Mean predicted confidence of those samples (0 when empty).
    pub mean_confidence: f64,
    /// Empirical accuracy of those samples (0 when empty).
    pub accuracy: f64,
}

impl ReliabilityBin {
    /// The calibration gap `|confidence − accuracy|` of this bin.
    pub fn gap(&self) -> f64 {
        (self.mean_confidence - self.accuracy).abs()
    }
}

/// A reliability diagram: confidence-vs-accuracy over equal-width bins
/// (Fig. 2 of the paper, 10 bins).
///
/// ```
/// use hotspot_calibration::ReliabilityDiagram;
/// // Two predictions at 90% confidence, one right and one wrong.
/// let diagram = ReliabilityDiagram::from_predictions(&[0.9, 0.9], &[true, false], 10);
/// assert!((diagram.ece() - 0.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityDiagram {
    bins: Vec<ReliabilityBin>,
    total: usize,
}

impl ReliabilityDiagram {
    /// Bins `(confidence, correct)` pairs into `n_bins` equal-width bins.
    ///
    /// # Panics
    ///
    /// Panics when `n_bins` is zero, lengths differ, or a confidence is
    /// outside `[0, 1]`.
    pub fn from_predictions(confidences: &[f64], correct: &[bool], n_bins: usize) -> Self {
        assert!(n_bins > 0, "bin count must be positive");
        assert_eq!(
            confidences.len(),
            correct.len(),
            "confidence/correctness length mismatch"
        );
        let mut sums = vec![(0usize, 0.0f64, 0usize); n_bins]; // (count, conf sum, hits)
        for (&c, &ok) in confidences.iter().zip(correct) {
            assert!((0.0..=1.0).contains(&c), "confidence {c} outside [0, 1]");
            let mut bin = (c * n_bins as f64) as usize;
            if bin == n_bins {
                bin -= 1; // c == 1.0 goes in the last bin
            }
            sums[bin].0 += 1;
            sums[bin].1 += c;
            sums[bin].2 += ok as usize;
        }
        let bins = sums
            .into_iter()
            .enumerate()
            .map(|(i, (count, conf_sum, hits))| {
                let lower = i as f64 / n_bins as f64;
                let upper = (i + 1) as f64 / n_bins as f64;
                if count == 0 {
                    ReliabilityBin {
                        lower,
                        upper,
                        count,
                        mean_confidence: 0.0,
                        accuracy: 0.0,
                    }
                } else {
                    ReliabilityBin {
                        lower,
                        upper,
                        count,
                        mean_confidence: conf_sum / count as f64,
                        accuracy: hits as f64 / count as f64,
                    }
                }
            })
            .collect();
        ReliabilityDiagram {
            bins,
            total: confidences.len(),
        }
    }

    /// Bins argmax predictions from row-major `n × 2` class probabilities
    /// against integer truth labels. The confidence of a prediction is its
    /// winning-class probability; non-finite probabilities are treated as a
    /// maximally uncertain `0.5`, and confidences are clamped to `[0, 1]`
    /// so float drift can never trip the range assertion.
    ///
    /// # Panics
    ///
    /// Panics when `n_bins` is zero or `probabilities.len() != 2 * truth.len()`.
    pub fn from_binary_probabilities(
        probabilities: &[f32],
        truth: &[usize],
        n_bins: usize,
    ) -> Self {
        assert_eq!(
            probabilities.len(),
            truth.len() * 2,
            "probability/truth length mismatch"
        );
        let mut confidences = Vec::with_capacity(truth.len());
        let mut correct = Vec::with_capacity(truth.len());
        for (i, &label) in truth.iter().enumerate() {
            let p0 = probabilities[2 * i];
            let p1 = probabilities[2 * i + 1];
            let predicted = usize::from(p1 > p0);
            let raw = f64::from(if predicted == 1 { p1 } else { p0 });
            let confidence = if raw.is_finite() {
                raw.clamp(0.0, 1.0)
            } else {
                0.5
            };
            confidences.push(confidence);
            correct.push(predicted == label);
        }
        Self::from_predictions(&confidences, &correct, n_bins)
    }

    /// The bins, low confidence first.
    pub fn bins(&self) -> &[ReliabilityBin] {
        &self.bins
    }

    /// Total predictions binned.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Expected calibration error: the count-weighted mean bin gap.
    pub fn ece(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.bins
            .iter()
            .map(|b| b.count as f64 / self.total as f64 * b.gap())
            .sum()
    }

    /// Maximum calibration error: the largest gap over non-empty bins.
    pub fn mce(&self) -> f64 {
        self.bins
            .iter()
            .filter(|b| b.count > 0)
            .map(ReliabilityBin::gap)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for ReliabilityDiagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "confidence bin   count   conf    acc    gap")?;
        for b in &self.bins {
            writeln!(
                f,
                "[{:.2}, {:.2})   {:>6}   {:.3}  {:.3}  {:.3}",
                b.lower,
                b.upper,
                b.count,
                b.mean_confidence,
                b.accuracy,
                b.gap()
            )?;
        }
        write!(f, "ECE = {:.4}", self.ece())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfectly_calibrated_has_zero_ece() {
        // 10 samples at 0.75 confidence; exactly 7.5 would be perfect, use 3/4.
        let confidences = vec![0.75; 4];
        let correct = vec![true, true, true, false];
        let d = ReliabilityDiagram::from_predictions(&confidences, &correct, 10);
        assert!(d.ece() < 1e-9);
    }

    #[test]
    fn overconfident_model_has_large_ece() {
        let confidences = vec![0.99; 10];
        let correct: Vec<bool> = (0..10).map(|i| i < 5).collect();
        let d = ReliabilityDiagram::from_predictions(&confidences, &correct, 10);
        assert!((d.ece() - 0.49).abs() < 1e-9);
        assert!((d.mce() - 0.49).abs() < 1e-9);
    }

    #[test]
    fn confidence_one_lands_in_last_bin() {
        let d = ReliabilityDiagram::from_predictions(&[1.0], &[true], 10);
        assert_eq!(d.bins()[9].count, 1);
    }

    #[test]
    fn empty_input_is_zero_ece() {
        let d = ReliabilityDiagram::from_predictions(&[], &[], 10);
        assert_eq!(d.ece(), 0.0);
        assert_eq!(d.total(), 0);
    }

    #[test]
    fn bin_edges_cover_unit_interval() {
        let d = ReliabilityDiagram::from_predictions(&[0.5], &[true], 4);
        assert_eq!(d.bins().len(), 4);
        assert_eq!(d.bins()[0].lower, 0.0);
        assert_eq!(d.bins()[3].upper, 1.0);
    }

    #[test]
    fn display_contains_ece() {
        let d = ReliabilityDiagram::from_predictions(&[0.9], &[true], 10);
        assert!(d.to_string().contains("ECE"));
    }

    #[test]
    fn binary_probabilities_bin_by_winning_class() {
        // Row 0: class 1 wins at 0.95 and is correct; row 1: class 0 wins at
        // 0.65 and is wrong. Mid-bin values keep f32→f64 drift away from the
        // bin edges.
        let probabilities = [0.05, 0.95, 0.65, 0.35];
        let truth = [1, 1];
        let d = ReliabilityDiagram::from_binary_probabilities(&probabilities, &truth, 10);
        assert_eq!(d.total(), 2);
        assert_eq!(d.bins()[9].count, 1);
        assert!((d.bins()[9].accuracy - 1.0).abs() < 1e-9);
        assert_eq!(d.bins()[6].count, 1);
        assert_eq!(d.bins()[6].accuracy, 0.0);
    }

    #[test]
    fn binary_probabilities_absorb_nonfinite() {
        let probabilities = [f32::NAN, f32::NAN, 2.0, -1.0];
        let truth = [0, 0];
        let d = ReliabilityDiagram::from_binary_probabilities(&probabilities, &truth, 10);
        assert_eq!(d.total(), 2);
        for b in d.bins() {
            assert!(b.mean_confidence.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rejects_bad_confidence() {
        let _ = ReliabilityDiagram::from_predictions(&[1.5], &[true], 10);
    }

    proptest! {
        #[test]
        fn prop_ece_bounded_by_one(
            data in proptest::collection::vec((0.0f64..=1.0, any::<bool>()), 1..100),
        ) {
            let confidences: Vec<f64> = data.iter().map(|&(c, _)| c).collect();
            let correct: Vec<bool> = data.iter().map(|&(_, k)| k).collect();
            let d = ReliabilityDiagram::from_predictions(&confidences, &correct, 10);
            prop_assert!((0.0..=1.0).contains(&d.ece()));
            prop_assert!(d.ece() <= d.mce() + 1e-12);
        }

        #[test]
        fn prop_counts_sum_to_total(
            confidences in proptest::collection::vec(0.0f64..=1.0, 1..100),
        ) {
            let correct = vec![true; confidences.len()];
            let d = ReliabilityDiagram::from_predictions(&confidences, &correct, 7);
            let sum: usize = d.bins().iter().map(|b| b.count).sum();
            prop_assert_eq!(sum, confidences.len());
        }
    }
}
