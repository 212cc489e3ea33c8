use std::fmt;

/// Error type for temperature fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CalibrationError {
    /// The logit buffer is not a whole number of `classes`-wide rows.
    BadLogitShape {
        /// Buffer length.
        len: usize,
        /// Class count.
        classes: usize,
    },
    /// Label count differs from the number of logit rows.
    LabelCountMismatch {
        /// Logit rows.
        rows: usize,
        /// Labels provided.
        labels: usize,
    },
    /// A label was out of range.
    LabelOutOfRange {
        /// The offending label.
        label: usize,
        /// Class count.
        classes: usize,
    },
    /// The validation set was empty.
    EmptyValidationSet,
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::BadLogitShape { len, classes } => {
                write!(
                    f,
                    "logit buffer of {len} entries is not a multiple of {classes} classes"
                )
            }
            CalibrationError::LabelCountMismatch { rows, labels } => {
                write!(f, "{rows} logit rows but {labels} labels")
            }
            CalibrationError::LabelOutOfRange { label, classes } => {
                write!(f, "label {label} out of range for {classes} classes")
            }
            CalibrationError::EmptyValidationSet => write!(f, "validation set is empty"),
        }
    }
}

impl std::error::Error for CalibrationError {}

/// A fitted softmax temperature (Eq. 5 of the paper).
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Temperature {
    value: f64,
}

impl Temperature {
    /// The identity temperature `T = 1` (no calibration).
    pub fn identity() -> Self {
        Temperature { value: 1.0 }
    }

    /// Wraps an explicit temperature.
    ///
    /// # Panics
    ///
    /// Panics when `value` is not finite and positive.
    pub fn new(value: f64) -> Self {
        assert!(
            value.is_finite() && value > 0.0,
            "temperature must be positive, got {value}"
        );
        Temperature { value }
    }

    /// Fits `T` by minimising validation NLL with golden-section search over
    /// `ln T ∈ [ln 0.25, ln 10]`. The bounded range keeps a perfectly
    /// separable validation set from driving `T → 0` (which would saturate
    /// every probability to 0/1 and destroy the uncertainty ranking).
    ///
    /// `logits` is row-major with `classes` entries per sample.
    ///
    /// # Errors
    ///
    /// Returns shape errors as described on [`CalibrationError`].
    pub fn fit(logits: &[f32], classes: usize, labels: &[usize]) -> Result<Self, CalibrationError> {
        if classes == 0 || !logits.len().is_multiple_of(classes) {
            return Err(CalibrationError::BadLogitShape {
                len: logits.len(),
                classes: classes.max(1),
            });
        }
        let rows = logits.len() / classes;
        if rows == 0 {
            return Err(CalibrationError::EmptyValidationSet);
        }
        if labels.len() != rows {
            return Err(CalibrationError::LabelCountMismatch {
                rows,
                labels: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(CalibrationError::LabelOutOfRange {
                label: bad,
                classes,
            });
        }

        let _fit_span = hotspot_telemetry::span(hotspot_telemetry::names::SPAN_CALIBRATE)
            .with("rows", rows as u64);
        let nll_at = |ln_t: f64| nll(logits, classes, labels, ln_t.exp());
        // Golden-section search on the (unimodal in practice) NLL curve.
        let phi = (5.0f64.sqrt() - 1.0) / 2.0;
        let mut a = (0.25f64).ln();
        let mut b = (10.0f64).ln();
        let mut c = b - phi * (b - a);
        let mut d = a + phi * (b - a);
        let mut fc = nll_at(c);
        let mut fd = nll_at(d);
        for _ in 0..80 {
            if fc < fd {
                b = d;
                d = c;
                fd = fc;
                c = b - phi * (b - a);
                fc = nll_at(c);
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + phi * (b - a);
                fd = nll_at(d);
            }
        }
        let value = (0.5 * (a + b)).exp();
        hotspot_telemetry::gauge(hotspot_telemetry::names::CALIBRATION_TEMPERATURE).set(value);
        hotspot_telemetry::debug(
            "calibration.temperature",
            "temperature fitted (Eq. 4)",
            &[
                ("temperature", value.into()),
                ("rows", (rows as u64).into()),
            ],
        );
        Ok(Temperature { value })
    }

    /// The scalar temperature.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Temperature-scaled softmax of one logit row (Eq. 5).
    pub fn probabilities(&self, logits: &[f32]) -> Vec<f32> {
        let t = self.value as f32;
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut out: Vec<f32> = logits.iter().map(|&z| ((z - max) / t).exp()).collect();
        let sum: f32 = out.iter().sum();
        for v in &mut out {
            *v /= sum;
        }
        out
    }

    /// One logit row divided by the temperature — the calibrated logits a
    /// scoring service reports alongside the softmax probabilities, so a
    /// downstream consumer can re-derive the probability (or combine
    /// ensembles in logit space) without knowing `T`.
    pub fn scaled_logits(&self, logits: &[f32]) -> Vec<f32> {
        let t = self.value as f32;
        logits.iter().map(|&z| z / t).collect()
    }

    /// Temperature-scaled softmax over a row-major logit buffer.
    ///
    /// # Panics
    ///
    /// Panics when the buffer is not a whole number of rows.
    pub fn probabilities_batch(&self, logits: &[f32], classes: usize) -> Vec<f32> {
        assert!(
            classes > 0 && logits.len().is_multiple_of(classes),
            "bad logit shape"
        );
        let mut out = Vec::with_capacity(logits.len());
        for row in logits.chunks_exact(classes) {
            out.extend(self.probabilities(row));
        }
        out
    }
}

impl Default for Temperature {
    /// Same as [`Temperature::identity`].
    fn default() -> Self {
        Temperature::identity()
    }
}

impl fmt::Display for Temperature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T = {:.4}", self.value)
    }
}

/// Mean negative log-likelihood at temperature `t`.
fn nll(logits: &[f32], classes: usize, labels: &[usize], t: f64) -> f64 {
    let mut total = 0.0f64;
    for (row, &label) in logits.chunks_exact(classes).zip(labels) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let mut sum = 0.0f64;
        for &z in row {
            sum += ((z as f64 - max) / t).exp();
        }
        let log_p = (row[label] as f64 - max) / t - sum.ln();
        total -= log_p;
    }
    total / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logits that are directionally correct but over-confident: the model
    /// is right 75% of the time yet predicts with ~99.7% confidence.
    fn overconfident_set() -> (Vec<f32>, Vec<usize>) {
        let mut logits = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            logits.extend_from_slice(&[6.0, -6.0]);
            labels.push(if i % 4 == 0 { 1 } else { 0 });
        }
        (logits, labels)
    }

    /// Under-confident logits: always right but barely sure.
    fn underconfident_set() -> (Vec<f32>, Vec<usize>) {
        let mut logits = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..40 {
            logits.extend_from_slice(&[0.2, -0.2]);
        }
        labels.extend(std::iter::repeat_n(0, 40));
        (logits, labels)
    }

    #[test]
    fn fit_softens_overconfidence() {
        let (logits, labels) = overconfident_set();
        let t = Temperature::fit(&logits, 2, &labels).unwrap();
        assert!(t.value() > 2.0, "{t}");
        let p = t.probabilities(&logits[..2]);
        assert!(p[0] < 0.9, "still overconfident: {p:?}");
    }

    #[test]
    fn fit_sharpens_underconfidence() {
        let (logits, labels) = underconfident_set();
        let t = Temperature::fit(&logits, 2, &labels).unwrap();
        assert!(t.value() < 1.0, "{t}");
        // …but never below the sanity floor.
        assert!(t.value() >= 0.25 - 1e-9, "{t}");
    }

    #[test]
    fn scaling_preserves_argmax() {
        let (logits, labels) = overconfident_set();
        let t = Temperature::fit(&logits, 2, &labels).unwrap();
        for row in logits.chunks_exact(2) {
            let p = t.probabilities(row);
            let pred_scaled = if p[0] > p[1] { 0 } else { 1 };
            let pred_raw = if row[0] > row[1] { 0 } else { 1 };
            assert_eq!(pred_scaled, pred_raw);
        }
    }

    #[test]
    fn fit_reduces_nll() {
        let (logits, labels) = overconfident_set();
        let t = Temperature::fit(&logits, 2, &labels).unwrap();
        let before = nll(&logits, 2, &labels, 1.0);
        let after = nll(&logits, 2, &labels, t.value());
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn probabilities_sum_to_one() {
        let t = Temperature::new(2.5);
        let p = t.probabilities(&[1.0, -2.0, 0.5]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn batch_matches_rowwise() {
        let t = Temperature::new(1.7);
        let logits = [1.0f32, -1.0, 0.3, 0.6];
        let batch = t.probabilities_batch(&logits, 2);
        let first = t.probabilities(&logits[..2]);
        assert_eq!(&batch[..2], first.as_slice());
    }

    #[test]
    fn error_cases() {
        assert!(matches!(
            Temperature::fit(&[1.0, 2.0, 3.0], 2, &[0]),
            Err(CalibrationError::BadLogitShape { .. })
        ));
        assert!(matches!(
            Temperature::fit(&[1.0, 2.0], 2, &[0, 1]),
            Err(CalibrationError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            Temperature::fit(&[1.0, 2.0], 2, &[7]),
            Err(CalibrationError::LabelOutOfRange { .. })
        ));
        assert!(matches!(
            Temperature::fit(&[], 2, &[]),
            Err(CalibrationError::EmptyValidationSet)
        ));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_non_positive_temperature() {
        let _ = Temperature::new(0.0);
    }

    #[test]
    fn scaled_logits_divide_by_t_and_recover_probabilities() {
        let temperature = Temperature::new(2.0);
        let logits = [1.0f32, -3.0];
        let scaled = temperature.scaled_logits(&logits);
        assert_eq!(scaled, vec![0.5, -1.5]);
        // Softmax of the scaled logits at T = 1 equals the calibrated
        // probabilities at T = 2 — the contract served scores rely on.
        let direct = temperature.probabilities(&logits);
        let via_scaled = Temperature::identity().probabilities(&scaled);
        assert_eq!(direct, via_scaled);
    }
}
