use hotspot_layout::{GeneratedBenchmark, Signature};
use hotspot_litho::{Label, LithoOracle};
use std::collections::BTreeMap;
use std::fmt;

/// Matching mode of the pattern-matching baseline \[2\].
///
/// Fuzzy matching is realised as pooled-and-quantised density keys (an O(n)
/// clustering) rather than pairwise similarity thresholds, which would be
/// quadratic on the 163 k-clip ICCAD12 population; the pooling edge and
/// quantisation level play the role of the paper's similarity thresholds
/// (smaller pools / fewer levels ⇔ lower thresholds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatchMode {
    /// Identical quantised rasters.
    Exact,
    /// Pooled-quantised core-density key.
    Fuzzy {
        /// Pooled grid edge (≤ the 12-cell signature grid).
        pool_edge: usize,
        /// Quantisation levels per pooled cell.
        levels: u16,
    },
}

/// The pattern-matching hotspot detector (Table II baselines).
///
/// See the [crate-level documentation](crate) for semantics and an example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternMatcher {
    mode: MatchMode,
    name: &'static str,
}

/// Result of a pattern-matching run over one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatchOutcome {
    /// Method name (`"PM-exact"`, `"PM-a95"`, …).
    pub name: String,
    /// Detection accuracy: true hotspots whose cluster representative is a
    /// hotspot, over all hotspots.
    pub accuracy: f64,
    /// Lithography overhead: one simulation per cluster representative.
    pub litho: usize,
    /// Number of clusters formed.
    pub clusters: usize,
    /// Benchmark indices of the simulated representatives (the litho-sampled
    /// positions of Fig. 5).
    pub sampled_indices: Vec<usize>,
    /// Benchmark indices predicted hotspot.
    pub predicted_hotspots: Vec<usize>,
}

impl fmt::Display for PatternMatchOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: acc {:.2}% litho {} ({} clusters)",
            self.name,
            self.accuracy * 100.0,
            self.litho,
            self.clusters
        )
    }
}

impl PatternMatcher {
    /// Exact pattern matching (`PM-exact`).
    pub fn exact() -> Self {
        PatternMatcher {
            mode: MatchMode::Exact,
            name: "PM-exact",
        }
    }

    /// Fuzzy matching at the paper's 0.95-similarity operating point
    /// (`PM-a95`): moderate pooling, near-exact accuracy at reduced cost.
    pub fn fuzzy_95() -> Self {
        PatternMatcher {
            mode: MatchMode::Fuzzy {
                pool_edge: 6,
                levels: 4,
            },
            name: "PM-a95",
        }
    }

    /// Fuzzy matching at the paper's 0.90-similarity operating point
    /// (`PM-a90`): aggressive pooling, cheap but lossy.
    pub fn fuzzy_90() -> Self {
        PatternMatcher {
            mode: MatchMode::Fuzzy {
                pool_edge: 4,
                levels: 4,
            },
            name: "PM-a90",
        }
    }

    /// Edge-tolerant matching (`PM-e2`): patterns whose edges moved within a
    /// small tolerance share a cluster key.
    pub fn edge_tolerant() -> Self {
        PatternMatcher {
            mode: MatchMode::Fuzzy {
                pool_edge: 12,
                levels: 16,
            },
            name: "PM-e2",
        }
    }

    /// A custom fuzziness, for sweeps.
    ///
    /// # Panics
    ///
    /// Panics when `pool_edge` is outside `1..=12` or `levels` outside
    /// `1..=256`.
    pub fn fuzzy(pool_edge: usize, levels: u16) -> Self {
        assert!((1..=12).contains(&pool_edge), "pool edge must be in 1..=12");
        assert!((1..=256).contains(&levels), "levels must be in 1..=256");
        PatternMatcher {
            mode: MatchMode::Fuzzy { pool_edge, levels },
            name: "PM-fuzzy",
        }
    }

    /// Method name as printed in Table II.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Runs the detector over a benchmark: cluster, simulate one
    /// representative per cluster, propagate its label.
    pub fn run(&self, bench: &GeneratedBenchmark) -> PatternMatchOutcome {
        let _span = hotspot_telemetry::span(hotspot_telemetry::names::SPAN_PM_RUN)
            .with("method", self.name);
        let mut oracle = bench.oracle();
        let signatures = bench.signatures();
        let cluster_of = self.cluster(signatures);
        let n_clusters = cluster_of.iter().copied().max().map_or(0, |m| m + 1);

        // Simulate the first member (representative) of each cluster.
        let mut rep_of = vec![usize::MAX; n_clusters];
        for (clip, &cluster) in cluster_of.iter().enumerate() {
            if rep_of[cluster] == usize::MAX {
                rep_of[cluster] = clip;
            }
        }
        let rep_labels: Vec<Label> = rep_of.iter().map(|&rep| oracle.query(rep)).collect();

        let mut correct_hotspots = 0usize;
        let mut predicted_hotspots = Vec::new();
        for (clip, &cluster) in cluster_of.iter().enumerate() {
            if rep_labels[cluster] == Label::Hotspot {
                predicted_hotspots.push(clip);
                if bench.labels()[clip] == Label::Hotspot {
                    correct_hotspots += 1;
                }
            }
        }
        let total = bench.hotspot_count();
        let accuracy = if total == 0 {
            1.0
        } else {
            correct_hotspots as f64 / total as f64
        };
        hotspot_telemetry::info(
            "baselines.pattern",
            "pattern matching complete",
            &[
                ("method", self.name.into()),
                ("clusters", (n_clusters as u64).into()),
                ("litho", (oracle.unique_queries() as u64).into()),
                ("accuracy", accuracy.into()),
            ],
        );
        PatternMatchOutcome {
            name: self.name.to_owned(),
            accuracy,
            litho: oracle.unique_queries(),
            clusters: n_clusters,
            sampled_indices: rep_of,
            predicted_hotspots,
        }
    }

    /// Assigns every clip a cluster id.
    fn cluster(&self, signatures: &[Signature]) -> Vec<usize> {
        match self.mode {
            MatchMode::Exact => key_cluster(signatures.iter().map(|s| s.exact_hash)),
            MatchMode::Fuzzy { pool_edge, levels } => {
                key_cluster(signatures.iter().map(|s| s.pooled_hash(pool_edge, levels)))
            }
        }
    }
}

/// Clusters by exact key equality.
fn key_cluster<I: Iterator<Item = u64>>(keys: I) -> Vec<usize> {
    let mut ids: BTreeMap<u64, usize> = BTreeMap::new();
    let mut out = Vec::new();
    for key in keys {
        let next = ids.len();
        out.push(*ids.entry(key).or_insert(next));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_layout::{BenchmarkSpec, Tech};

    fn bench() -> GeneratedBenchmark {
        let spec = BenchmarkSpec {
            name: "pm-test".to_owned(),
            tech: Tech::Euv7,
            hotspots: 20,
            non_hotspots: 180,
            dup_rate: 0.3,
            near_miss_rate: 0.3,
        };
        GeneratedBenchmark::generate(&spec, 21).unwrap()
    }

    #[test]
    fn exact_matching_is_perfectly_accurate() {
        let outcome = PatternMatcher::exact().run(&bench());
        assert_eq!(outcome.accuracy, 1.0);
    }

    #[test]
    fn exact_matching_pays_less_than_one_sim_per_clip() {
        let b = bench();
        let outcome = PatternMatcher::exact().run(&b);
        // Duplicates share clusters, so litho < total clips.
        assert!(outcome.litho < b.len());
        assert!(outcome.litho > b.len() / 2);
        assert_eq!(outcome.litho, outcome.clusters);
    }

    #[test]
    fn fuzzy_matching_is_cheaper_but_lossier() {
        let b = bench();
        let exact = PatternMatcher::exact().run(&b);
        let a95 = PatternMatcher::fuzzy_95().run(&b);
        let a90 = PatternMatcher::fuzzy_90().run(&b);
        assert!(a95.litho <= exact.litho);
        assert!(a90.litho <= a95.litho);
        assert!(a90.accuracy <= a95.accuracy + 1e-9);
        assert!(
            a90.accuracy < 1.0,
            "a90 should miss something: {}",
            a90.accuracy
        );
    }

    #[test]
    fn edge_tolerant_sits_between_exact_and_fuzzy() {
        let b = bench();
        let exact = PatternMatcher::exact().run(&b);
        let e2 = PatternMatcher::edge_tolerant().run(&b);
        assert!(e2.litho <= exact.litho);
        assert!(e2.accuracy > 0.5);
    }

    #[test]
    fn outcome_indices_are_consistent() {
        let b = bench();
        let outcome = PatternMatcher::exact().run(&b);
        assert_eq!(outcome.sampled_indices.len(), outcome.clusters);
        for &rep in &outcome.sampled_indices {
            assert!(rep < b.len());
        }
        // Every predicted hotspot is a real clip index.
        for &p in &outcome.predicted_hotspots {
            assert!(p < b.len());
        }
    }

    #[test]
    fn display_mentions_name_and_litho() {
        let outcome = PatternMatcher::fuzzy_95().run(&bench());
        let s = outcome.to_string();
        assert!(s.contains("PM-a95") && s.contains("litho"));
    }

    #[test]
    #[should_panic(expected = "pool edge")]
    fn rejects_bad_pool_edge() {
        let _ = PatternMatcher::fuzzy(0, 4);
    }

    #[test]
    fn fuzzier_keys_merge_more() {
        let b = bench();
        let tight = PatternMatcher::fuzzy(12, 32).run(&b);
        let loose = PatternMatcher::fuzzy(3, 4).run(&b);
        assert!(loose.clusters < tight.clusters);
    }

    #[test]
    fn key_cluster_assigns_stable_ids() {
        let ids = key_cluster([5u64, 7, 5, 9, 7].into_iter());
        assert_eq!(ids, vec![0, 1, 0, 2, 1]);
    }
}
