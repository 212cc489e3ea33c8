use crate::{project_capped_simplex, QpProblem};

/// A relaxed solution of a capped-simplex QP.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// The relaxed selection vector, each entry in `[0, 1]`, summing to `k`.
    pub values: Vec<f64>,
    /// Objective at the returned point.
    pub objective: f64,
    /// Iterations actually run.
    pub iterations: usize,
}

impl QpSolution {
    /// Indices of the `k` largest entries — the usual rounding of the
    /// relaxation back to a discrete batch. `k` is the floor of the budget.
    pub fn top_k_indices(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by(|&a, &b| {
            self.values[b]
                .partial_cmp(&self.values[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        order.truncate(k);
        order
    }
}

/// Projected-gradient solver for [`QpProblem`].
///
/// Runs gradient steps of size `1 / L` (with `L` a cheap Lipschitz bound on
/// the quadratic term) followed by Euclidean projection onto the capped
/// simplex, until the iterate moves less than `tol` or `max_iters` is hit.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolver {
    /// Maximum projected-gradient iterations.
    pub max_iters: usize,
    /// Termination threshold on the iterate's infinity-norm movement.
    pub tol: f64,
}

impl Default for QpSolver {
    fn default() -> Self {
        QpSolver {
            max_iters: 300,
            tol: 1e-7,
        }
    }
}

impl QpSolver {
    /// Solves the problem from the uniform feasible start `s = k/n`.
    pub fn solve(&self, problem: &QpProblem) -> QpSolution {
        let n = problem.c.len();
        let k = problem.k;
        let step = 1.0 / problem.lipschitz_bound().max(1.0);
        let mut s = vec![k / n as f64; n];
        let mut grad = vec![0.0f64; n];
        let mut iterations = 0;
        for it in 0..self.max_iters {
            iterations = it + 1;
            problem.gradient(&s, &mut grad);
            for (g, &si) in grad.iter_mut().zip(&s) {
                *g = si - step * *g;
            }
            let next = project_capped_simplex(&grad, k);
            let movement = s
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            s = next;
            if movement < self.tol {
                break;
            }
        }
        let objective = problem.objective(&s);
        QpSolution {
            values: s,
            objective,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{random_embeddings, DenseQp};
    use proptest::prelude::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn linear_problem_picks_cheapest() {
        // λ = 0 leaves only the linear term: pick the 2 most negative costs.
        let c = vec![3.0, -5.0, 1.0, -4.0];
        let p = QpProblem::new(vec![1.0; 4], 1, 0.0, c, 2.0).unwrap();
        let sol = QpSolver::default().solve(&p);
        let picked = sol.top_k_indices(2);
        assert!(picked.contains(&1) && picked.contains(&3), "{picked:?}");
        assert!((sol.values[1] - 1.0).abs() < 1e-5);
        assert!((sol.values[3] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn quadratic_repulsion_spreads_selection() {
        // Items 0 and 1 are identical (similarity 1, so q₀₁ = 2λ = 8), item
        // 2 is orthogonal to both. Budget 2 should pick one of {0,1} plus 2.
        let x = vec![1.0, 0.0, 1.0, 0.0, 0.0, 1.0];
        let c = vec![-1.0, -1.0, -0.5];
        let p = QpProblem::new(x, 2, 4.0, c, 2.0).unwrap();
        let sol = QpSolver::default().solve(&p);
        assert!(sol.values[2] > 0.9, "{:?}", sol.values);
        assert!(
            (sol.values[0] + sol.values[1] - 1.0).abs() < 0.1,
            "{:?}",
            sol.values
        );
    }

    #[test]
    fn solution_is_feasible() {
        let x = random_embeddings(40, 8, 3);
        let c: Vec<f64> = (0..40).map(|i| -((i % 7) as f64) / 7.0).collect();
        let p = QpProblem::new(x, 8, 1.0, c, 6.0).unwrap();
        let sol = QpSolver::default().solve(&p);
        let sum: f64 = sol.values.iter().sum();
        assert!((sum - 6.0).abs() < 1e-5);
        for &v in &sol.values {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }

    #[test]
    fn objective_not_worse_than_start() {
        let n = 12;
        let x = random_embeddings(n, 4, 12);
        let c: Vec<f64> = (0..n).map(|i| -((i % 5) as f64)).collect();
        let p = QpProblem::new(x, 4, 0.15, c, 4.0).unwrap();
        let start = vec![4.0 / n as f64; n];
        let sol = QpSolver::default().solve(&p);
        assert!(sol.objective <= p.objective(&start) + 1e-9);
    }

    #[test]
    fn empty_problem() {
        let p = QpProblem::new(Vec::new(), 32, 1.0, Vec::new(), 0.0).unwrap();
        let sol = QpSolver::default().solve(&p);
        assert!(sol.values.is_empty());
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn top_k_orders_by_value() {
        let sol = QpSolution {
            values: vec![0.2, 0.9, 0.5],
            objective: 0.0,
            iterations: 1,
        };
        assert_eq!(sol.top_k_indices(2), vec![1, 2]);
    }

    /// Brute-force binary optimum of the QP over `{s ∈ {0,1}ⁿ : Σs = k}`.
    fn binary_optimum(problem: &QpProblem, k: usize) -> f64 {
        let n = problem.c.len();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let s: Vec<f64> = (0..n).map(|i| ((mask >> i) & 1) as f64).collect();
            best = best.min(problem.objective(&s));
        }
        best
    }

    #[test]
    fn relaxation_lower_bounds_the_binary_optimum() {
        // The capped simplex contains every feasible binary vector, so the
        // relaxed optimum can never exceed the best binary selection — the
        // property the [14]-style selector's rounding step relies on.
        // Rows `xᵢ = eᵢ − 1/n` (a regular simplex) have every pairwise
        // similarity −1/n, so on `Σs = k` the objective is
        // `(λ/n)‖s‖² + cᵀs` plus a constant: convex, and projected gradient
        // reaches the global relaxed optimum.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for trial in 0..10 {
            let n = 6;
            let k = 2 + trial % 3;
            let x: Vec<f32> = (0..n * n)
                .map(|e| f32::from(u8::from(e / n == e % n)) - 1.0 / n as f32)
                .collect();
            let lambda = rng.gen_range(0.5..4.0);
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..0.0)).collect();
            let problem = QpProblem::new(x, n, lambda, c, k as f64).unwrap();
            let relaxed = QpSolver {
                max_iters: 2000,
                tol: 1e-10,
            }
            .solve(&problem)
            .objective;
            let binary = binary_optimum(&problem, k);
            assert!(
                relaxed <= binary + 1e-6,
                "trial {trial}: relaxed {relaxed} exceeds binary optimum {binary}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_top_k_matches_dense_reference(
            n in 2usize..48,
            dim in 1usize..34,
            lambda in 0.0f64..2.0,
            frac in 0.0f64..1.0,
            seed in any::<u64>(),
        ) {
            let x = random_embeddings(n, dim, seed);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(!seed);
            let c: Vec<f64> = (0..n).map(|_| -rng.gen_range(0.0f64..0.5)).collect();
            let k = ((frac * n as f64) as usize).max(1);
            let solver = QpSolver::default();
            let dense = DenseQp::from_f32_similarities(&x, dim, lambda, c.clone(), k as f64)
                .solve(solver.max_iters, solver.tol);
            // Only a clear gap between the k-th and (k+1)-th dense values
            // defines the top-k set; near-ties may round either way.
            let mut sorted = dense.values.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            prop_assume!(k == n || sorted[k - 1] - sorted[k] > 1e-6);
            let problem = QpProblem::new(x, dim, lambda, c, k as f64).unwrap();
            let low_rank = solver.solve(&problem);
            let mut want = dense.top_k_indices(k);
            let mut got = low_rank.top_k_indices(k);
            want.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
