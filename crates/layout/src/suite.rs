use crate::BenchmarkSpec;
use std::fmt;

/// Statistics row of one benchmark, as printed in Table I of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkStats {
    /// Benchmark name.
    pub name: String,
    /// Hotspot clip count.
    pub hotspots: usize,
    /// Non-hotspot clip count.
    pub non_hotspots: usize,
    /// Technology node in nanometres.
    pub tech_nm: u32,
}

impl fmt::Display for BenchmarkStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>8} {:>10} {:>6}",
            self.name, self.hotspots, self.non_hotspots, self.tech_nm
        )
    }
}

/// The full Table I benchmark suite: ICCAD12 and ICCAD16-1..4 specs scaled
/// by `scale` (1.0 reproduces the paper's cardinalities).
///
/// ```
/// use hotspot_layout::bench_suite;
/// let suite = bench_suite(1.0);
/// assert_eq!(suite.len(), 5);
/// assert_eq!(suite[0].hotspots, 3728);
/// ```
pub fn bench_suite(scale: f64) -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::iccad12().scaled(scale),
        BenchmarkSpec::iccad16_1().scaled(scale),
        BenchmarkSpec::iccad16_2().scaled(scale),
        BenchmarkSpec::iccad16_3().scaled(scale),
        BenchmarkSpec::iccad16_4().scaled(scale),
    ]
}

impl From<&BenchmarkSpec> for BenchmarkStats {
    fn from(spec: &BenchmarkSpec) -> Self {
        BenchmarkStats {
            name: spec.name.clone(),
            hotspots: spec.hotspots,
            non_hotspots: spec.non_hotspots,
            tech_nm: spec.tech.node_nm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table_one_at_full_scale() {
        let suite = bench_suite(1.0);
        let stats: Vec<BenchmarkStats> = suite.iter().map(BenchmarkStats::from).collect();
        assert_eq!(stats[0].hotspots, 3728);
        assert_eq!(stats[0].non_hotspots, 159_672);
        assert_eq!(stats[1].hotspots, 0);
        assert_eq!(stats[2].hotspots, 56);
        assert_eq!(stats[3].non_hotspots, 3916);
        assert_eq!(stats[4].hotspots, 157);
        assert_eq!(stats[0].tech_nm, 28);
        assert!(stats[1..].iter().all(|s| s.tech_nm == 7));
    }

    #[test]
    fn display_renders_row() {
        let s = BenchmarkStats::from(&BenchmarkSpec::iccad16_2());
        let row = s.to_string();
        assert!(row.contains("ICCAD16-2") && row.contains("56") && row.contains("967"));
    }
}
