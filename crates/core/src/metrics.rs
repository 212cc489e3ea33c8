use std::fmt;

/// PSHD evaluation metrics (Eq. 1–2 of the paper).
///
/// * `accuracy = (#HS_Train + #HS_Val + #Hits) / #HS_Total` — hotspots that
///   were either paid for during sampling or correctly predicted at
///   detection time, over all hotspots in the benchmark.
/// * `litho = #Tr + #Val + #FA + #Extra` — every simulation that had to be
///   paid for: the training set, the validation set, each false alarm
///   (which a real flow must verify), and any extra billable re-simulations
///   (quorum re-labelling votes under a fault-tolerant oracle; zero in a
///   fault-free run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PshdMetrics {
    /// Detection accuracy in `[0, 1]` (Eq. 1).
    pub accuracy: f64,
    /// Lithography simulation overhead (Eq. 2).
    pub litho: usize,
    /// Hotspots correctly predicted in the unlabeled set.
    pub hits: usize,
    /// Non-hotspots falsely reported in the unlabeled set.
    pub false_alarms: usize,
    /// Hotspots in the final training set.
    pub train_hotspots: usize,
    /// Hotspots in the validation set.
    pub validation_hotspots: usize,
    /// Total hotspots in the benchmark.
    pub total_hotspots: usize,
    /// Final training-set size.
    pub train_size: usize,
    /// Validation-set size.
    pub validation_size: usize,
    /// Extra billable re-simulations beyond the labelled sets and false
    /// alarms (quorum votes under a fault-tolerant oracle).
    pub extra_simulations: usize,
}

impl PshdMetrics {
    /// Computes the metrics from the run's raw counts.
    ///
    /// # Panics
    ///
    /// Panics when the hotspot tallies exceed `total_hotspots` (which would
    /// indicate double counting upstream).
    #[allow(clippy::too_many_arguments)]
    pub fn compute(
        train_size: usize,
        validation_size: usize,
        train_hotspots: usize,
        validation_hotspots: usize,
        hits: usize,
        false_alarms: usize,
        total_hotspots: usize,
    ) -> Self {
        Self::compute_with_extra(
            train_size,
            validation_size,
            train_hotspots,
            validation_hotspots,
            hits,
            false_alarms,
            total_hotspots,
            0,
        )
    }

    /// [`PshdMetrics::compute`] with `extra_simulations` additional billable
    /// re-simulations folded into Eq. 2 (quorum re-labelling votes).
    ///
    /// # Panics
    ///
    /// Same contract as [`PshdMetrics::compute`].
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with_extra(
        train_size: usize,
        validation_size: usize,
        train_hotspots: usize,
        validation_hotspots: usize,
        hits: usize,
        false_alarms: usize,
        total_hotspots: usize,
        extra_simulations: usize,
    ) -> Self {
        let found = train_hotspots + validation_hotspots + hits;
        assert!(
            found <= total_hotspots || total_hotspots == 0,
            "counted {found} hotspots but the benchmark only has {total_hotspots}"
        );
        let accuracy = if total_hotspots == 0 {
            1.0
        } else {
            found as f64 / total_hotspots as f64
        };
        PshdMetrics {
            accuracy,
            litho: train_size + validation_size + false_alarms + extra_simulations,
            hits,
            false_alarms,
            train_hotspots,
            validation_hotspots,
            total_hotspots,
            train_size,
            validation_size,
            extra_simulations,
        }
    }
}

impl fmt::Display for PshdMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "acc {:.2}% litho {} (train {}, val {}, FA {})",
            self.accuracy * 100.0,
            self.litho,
            self.train_size,
            self.validation_size,
            self.false_alarms
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_one_and_two() {
        let m = PshdMetrics::compute(100, 50, 10, 5, 25, 7, 50);
        assert!((m.accuracy - 0.8).abs() < 1e-12);
        assert_eq!(m.litho, 157);
    }

    #[test]
    fn perfect_run() {
        let m = PshdMetrics::compute(10, 5, 3, 1, 6, 0, 10);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.litho, 15);
    }

    #[test]
    fn zero_hotspot_benchmark_counts_as_perfect() {
        let m = PshdMetrics::compute(10, 5, 0, 0, 0, 2, 0);
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.litho, 17);
    }

    #[test]
    #[should_panic(expected = "only has 3")]
    fn overcounting_panics() {
        let _ = PshdMetrics::compute(1, 1, 5, 5, 5, 0, 3);
    }

    #[test]
    fn display_mentions_accuracy_and_litho() {
        let m = PshdMetrics::compute(10, 5, 2, 1, 2, 3, 10);
        let s = m.to_string();
        assert!(s.contains("acc") && s.contains("litho 18"));
    }

    #[test]
    fn quorum_votes_bill_into_litho() {
        let m = PshdMetrics::compute_with_extra(100, 50, 10, 5, 25, 7, 50, 40);
        assert_eq!(m.litho, 197);
        assert_eq!(m.extra_simulations, 40);
        assert_eq!(
            m.accuracy,
            PshdMetrics::compute(100, 50, 10, 5, 25, 7, 50).accuracy
        );
    }
}
