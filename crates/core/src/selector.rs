use crate::{
    diversity_scores, entropy_weights, normalize_scores, uncertainty_scores, AblationConfig,
    SamplingConfig, WeightMode,
};
use hotspot_nn::Matrix;
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cell::OnceCell;

/// Everything a batch selector may inspect about the current query set `Q`.
///
/// Rows of `logits` / `probabilities` / `embeddings` correspond 1:1 to query
/// clips; returned indices are positions in this query set, not benchmark
/// indices.
///
/// The context owns the selection's Eq. 6 and Eq. 7 scores, each computed on
/// first use and then shared; its inputs are private, so no score outlives
/// the inputs it was computed from.
#[derive(Debug)]
pub struct SelectionContext<'a> {
    logits: &'a Matrix,
    /// Calibrated two-class probabilities, row-major `n × 2` (Eq. 5).
    probabilities: &'a [f32],
    embeddings: &'a Matrix,
    k: usize,
    /// Decision boundary `h` of Eq. 6.
    boundary_h: f32,
    /// Weighting mode for combining the two scores.
    weight_mode: WeightMode,
    /// Component ablation switches.
    ablation: AblationConfig,
    /// Deterministic seed for stochastic selectors.
    rng_seed: u64,
    uncertainty: OnceCell<Vec<f32>>,
    diversity: OnceCell<Vec<f32>>,
}

impl<'a> SelectionContext<'a> {
    /// The context of one selection over a query set, taking the batch
    /// size, boundary, weighting mode and ablation switches from `config`.
    pub fn new(
        logits: &'a Matrix,
        probabilities: &'a [f32],
        embeddings: &'a Matrix,
        config: &SamplingConfig,
        rng_seed: u64,
    ) -> Self {
        SelectionContext {
            logits,
            probabilities,
            embeddings,
            k: config.batch,
            boundary_h: config.boundary_h,
            weight_mode: config.weight_mode,
            ablation: config.ablation,
            rng_seed,
            uncertainty: OnceCell::new(),
            diversity: OnceCell::new(),
        }
    }

    /// Raw model logits of the query clips (`n × 2`).
    pub fn logits(&self) -> &'a Matrix {
        self.logits
    }

    /// Penultimate-layer embeddings of the query clips.
    pub fn embeddings(&self) -> &'a Matrix {
        self.embeddings
    }

    /// Batch size to select.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of query clips.
    pub fn len(&self) -> usize {
        self.logits.rows()
    }

    /// Whether the query set is empty.
    pub fn is_empty(&self) -> bool {
        self.logits.rows() == 0
    }

    /// Hotspot-aware calibrated uncertainty of every query clip (Eq. 6).
    pub fn uncertainty(&self) -> &[f32] {
        self.uncertainty
            .get_or_init(|| uncertainty_scores(self.probabilities, self.boundary_h))
    }

    /// Min-distance diversity of every query clip (Eq. 7): one
    /// O(n²·dim) pass per context.
    pub fn diversity(&self) -> &[f32] {
        self.diversity
            .get_or_init(|| diversity_scores(self.embeddings))
    }
}

/// A batch-mode selection strategy: picks up to `k` query-set rows to label.
pub trait BatchSelector: std::fmt::Debug {
    /// Selects query-set indices (unique, at most `ctx.k()`).
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize>;

    /// Short name used in experiment tables.
    fn name(&self) -> &'static str;

    /// The `(ω₁, ω₂)` weights of the most recent selection, when the
    /// strategy computes any (only the entropy selector does).
    fn last_weights(&self) -> Option<(f64, f64)> {
        None
    }
}

/// Algorithm 1 of the paper: the entropy-based batch selector combining
/// calibrated hotspot-aware uncertainty with min-distance diversity under
/// dynamic entropy weights.
#[derive(Debug, Default, Clone)]
pub struct EntropySelector {
    last_weights: Option<(f64, f64)>,
}

impl EntropySelector {
    /// Creates the selector.
    pub fn new() -> Self {
        EntropySelector { last_weights: None }
    }
}

impl BatchSelector for EntropySelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        if ctx.is_empty() || ctx.k == 0 {
            return Vec::new();
        }
        let use_u = ctx.ablation.uncertainty;
        let use_d = ctx.ablation.diversity;
        let zeros = vec![0.0; ctx.len()];
        let f = if use_u { ctx.uncertainty() } else { &zeros };
        let d = if use_d { ctx.diversity() } else { &zeros };
        let scores = match (use_u, use_d) {
            (true, false) => normalize_scores(f),
            (false, true) => normalize_scores(d),
            _ => {
                let (w1, w2) = match ctx.weight_mode {
                    WeightMode::Entropy => entropy_weights(f, d),
                    WeightMode::Fixed { omega2 } => (1.0 - omega2, omega2),
                };
                self.last_weights = Some((w1, w2));
                let nf = normalize_scores(f);
                let nd = normalize_scores(d);
                nf.iter()
                    .zip(&nd)
                    .map(|(&a, &b)| (w1 * a as f64 + w2 * b as f64) as f32)
                    .collect()
            }
        };
        top_k(&scores, ctx.k)
    }

    fn name(&self) -> &'static str {
        "entropy"
    }

    fn last_weights(&self) -> Option<(f64, f64)> {
        self.last_weights
    }
}

/// The "TS" baseline of Table II: calibrated uncertainty only (temperature
/// scaling without the diversity term or entropy weighting).
#[derive(Debug, Default, Clone)]
pub struct UncertaintySelector;

impl UncertaintySelector {
    /// Creates the selector.
    pub fn new() -> Self {
        UncertaintySelector
    }
}

impl BatchSelector for UncertaintySelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        if ctx.is_empty() || ctx.k == 0 {
            return Vec::new();
        }
        top_k(ctx.uncertainty(), ctx.k)
    }

    fn name(&self) -> &'static str {
        "ts"
    }
}

/// Uniform random batch selection — the weakest sensible baseline.
#[derive(Debug, Default, Clone)]
pub struct RandomSelector;

impl RandomSelector {
    /// Creates the selector.
    pub fn new() -> Self {
        RandomSelector
    }
}

impl BatchSelector for RandomSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.rng_seed);
        let mut indices: Vec<usize> = (0..ctx.len()).collect();
        indices.shuffle(&mut rng);
        indices.truncate(ctx.k);
        indices
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Records a completed batch selection: accumulates the pool size into the
/// `selector.query.size` counter and emits a debug event. The framework
/// calls this once per [`BatchSelector::select`], whatever the selector, so
/// query volume is comparable across methods.
pub(crate) fn record_selection(name: &'static str, pool: usize, picked: usize) {
    hotspot_telemetry::counter(hotspot_telemetry::names::SELECTOR_QUERY_SIZE).add(pool as u64);
    hotspot_telemetry::counter(hotspot_telemetry::names::SELECTOR_BATCHES).incr();
    hotspot_telemetry::debug(
        "selector",
        "batch selected",
        &[
            ("selector", name.into()),
            ("pool", (pool as u64).into()),
            ("picked", (picked as u64).into()),
        ],
    );
}

/// Indices of the `k` largest scores, ties broken towards lower index.
pub(crate) fn top_k(scores: &[f32], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context<'a>(
        logits: &'a Matrix,
        probabilities: &'a [f32],
        embeddings: &'a Matrix,
        k: usize,
    ) -> SelectionContext<'a> {
        // h = 0.4, entropy weighting, every component switched on.
        let config = SamplingConfig {
            batch: k,
            ..SamplingConfig::for_benchmark(100)
        };
        SelectionContext::new(logits, probabilities, embeddings, &config, 7)
    }

    /// Four query clips: two confident non-hotspots (one a duplicate),
    /// one boundary-hovering hotspot-like sample, one confident hotspot.
    fn fixture() -> (Matrix, Vec<f32>, Matrix) {
        let logits = Matrix::from_rows(&[
            vec![3.0, -3.0],
            vec![3.0, -3.0],
            vec![0.1, -0.1],
            vec![-3.0, 3.0],
        ])
        .unwrap();
        let probabilities = vec![
            0.95, 0.05, //
            0.95, 0.05, //
            0.55, 0.45, //
            0.05, 0.95,
        ];
        let embeddings = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ])
        .unwrap();
        (logits, probabilities, embeddings)
    }

    #[test]
    fn entropy_selector_prefers_uncertain_and_diverse() {
        let (logits, probs, emb) = fixture();
        let ctx = context(&logits, &probs, &emb, 2);
        let picked = EntropySelector::new().select(&ctx);
        assert_eq!(picked.len(), 2);
        // The boundary sample (2) must be picked; the duplicate pair (0, 1)
        // must not be picked together.
        assert!(picked.contains(&2), "{picked:?}");
        assert!(!(picked.contains(&0) && picked.contains(&1)), "{picked:?}");
    }

    #[test]
    fn entropy_selector_records_weights() {
        let (logits, probs, emb) = fixture();
        let ctx = context(&logits, &probs, &emb, 2);
        let mut sel = EntropySelector::new();
        let _ = sel.select(&ctx);
        let (w1, w2) = sel.last_weights().expect("weights recorded");
        assert!((w1 + w2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_without_diversity_ranks_by_uncertainty() {
        let (logits, probs, emb) = fixture();
        let mut ctx = context(&logits, &probs, &emb, 1);
        ctx.ablation.diversity = false;
        let picked = EntropySelector::new().select(&ctx);
        assert_eq!(picked, vec![2]);
    }

    #[test]
    fn ablation_without_uncertainty_ranks_by_diversity() {
        let (logits, probs, emb) = fixture();
        let mut ctx = context(&logits, &probs, &emb, 2);
        ctx.ablation.uncertainty = false;
        let picked = EntropySelector::new().select(&ctx);
        // Duplicates (0, 1) score zero diversity; the two singletons win.
        assert!(picked.contains(&2) && picked.contains(&3), "{picked:?}");
    }

    #[test]
    fn fixed_weights_mode_applies() {
        let (logits, probs, emb) = fixture();
        let mut ctx = context(&logits, &probs, &emb, 2);
        ctx.weight_mode = WeightMode::Fixed { omega2: 1.0 };
        let picked = EntropySelector::new().select(&ctx);
        // ω₂ = 1 is pure diversity.
        assert!(
            picked.contains(&2) && picked.contains(&3) || picked.contains(&3),
            "{picked:?}"
        );
        assert!(!(picked.contains(&0) && picked.contains(&1)));
    }

    #[test]
    fn ts_selector_ignores_diversity() {
        let (logits, probs, emb) = fixture();
        let ctx = context(&logits, &probs, &emb, 2);
        let picked = UncertaintySelector::new().select(&ctx);
        // Top-2 by hotspot-aware uncertainty: boundary sample then the
        // confident hotspot (both take the σ⁽⁰⁾ + h branch).
        assert_eq!(picked, vec![2, 3]);
    }

    #[test]
    fn random_selector_is_deterministic_per_seed() {
        let (logits, probs, emb) = fixture();
        let ctx = context(&logits, &probs, &emb, 2);
        let a = RandomSelector::new().select(&ctx);
        let b = RandomSelector::new().select(&ctx);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn empty_query_set_selects_nothing() {
        let logits = Matrix::zeros(0, 2);
        let emb = Matrix::zeros(0, 3);
        let ctx = context(&logits, &[], &emb, 3);
        assert!(EntropySelector::new().select(&ctx).is_empty());
        assert!(UncertaintySelector::new().select(&ctx).is_empty());
        assert!(RandomSelector::new().select(&ctx).is_empty());
    }

    #[test]
    fn k_larger_than_pool_returns_all() {
        let (logits, probs, emb) = fixture();
        let ctx = context(&logits, &probs, &emb, 99);
        let picked = EntropySelector::new().select(&ctx);
        assert_eq!(picked.len(), 4);
    }

    #[test]
    fn scores_are_computed_once_and_shared() {
        let (logits, probs, emb) = fixture();
        let ctx = context(&logits, &probs, &emb, 2);
        let _ = UncertaintySelector::new().select(&ctx);
        assert!(ctx.uncertainty.get().is_some() && ctx.diversity.get().is_none());
        let _ = EntropySelector::new().select(&ctx);
        let diversity = ctx
            .diversity
            .get()
            .expect("entropy selection scores diversity");
        assert!(std::ptr::eq(ctx.diversity(), diversity.as_slice()));
        assert_eq!(ctx.uncertainty(), uncertainty_scores(&probs, 0.4));
        assert_eq!(ctx.diversity(), diversity_scores(&emb));
    }

    #[test]
    fn top_k_tie_breaks_to_lower_index() {
        assert_eq!(top_k(&[0.5, 0.9, 0.5], 2), vec![1, 0]);
    }
}
