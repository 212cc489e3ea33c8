use hotspot_active::{BatchSelector, EntropySelector, RandomSelector, UncertaintySelector};

use crate::QpSelector;

/// The learning-based sampling methods of Table II (and Fig. 4 / Fig. 6):
/// the one registry from a method name to its batch selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveMethod {
    /// The paper's entropy-based sampler.
    Ours,
    /// Calibrated uncertainty only ("TS").
    Ts,
    /// The QP batch selector of \[14\].
    Qp,
    /// Uniform random batches.
    Random,
}

impl ActiveMethod {
    /// Every method, in Table II column order of the `pshd` baseline.
    pub const ALL: [ActiveMethod; 4] = [
        ActiveMethod::Ours,
        ActiveMethod::Ts,
        ActiveMethod::Qp,
        ActiveMethod::Random,
    ];

    /// Table column label.
    pub fn label(self) -> &'static str {
        match self {
            ActiveMethod::Ours => "Ours",
            ActiveMethod::Ts => "TS",
            ActiveMethod::Qp => "QP",
            ActiveMethod::Random => "Random",
        }
    }

    /// Parses a lowercase method name: `ours`, `ts`, `qp` or `random`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names for an unknown name.
    pub fn from_name(name: &str) -> Result<Self, String> {
        ActiveMethod::ALL
            .into_iter()
            .find(|method| method.label().to_ascii_lowercase() == name)
            .ok_or_else(|| format!("unknown method {name:?}; expected ours, ts, qp, or random"))
    }

    /// Builds the corresponding batch selector.
    pub fn selector(self) -> Box<dyn BatchSelector> {
        match self {
            ActiveMethod::Ours => Box::new(EntropySelector::new()),
            ActiveMethod::Ts => Box::new(UncertaintySelector::new()),
            ActiveMethod::Qp => Box::new(QpSelector::new()),
            ActiveMethod::Random => Box::new(RandomSelector::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_list_the_valid_ones() {
        for method in ActiveMethod::ALL {
            let name = method.label().to_ascii_lowercase();
            assert_eq!(ActiveMethod::from_name(&name), Ok(method));
        }
        assert_eq!(
            ActiveMethod::from_name("ours").unwrap().selector().name(),
            "entropy"
        );
        let err = ActiveMethod::from_name("Ours").unwrap_err();
        assert!(err.contains("ours, ts, qp, or random"), "{err}");
    }
}
