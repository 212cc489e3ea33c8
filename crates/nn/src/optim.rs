use std::collections::BTreeMap;

/// Adam optimiser (Kingma & Ba 2015) with bias correction.
///
/// Networks call [`Adam::update`] once per parameter buffer per step,
/// identified by a stable `slot` index under which the buffer's moments are
/// kept. Gradients are zeroed by the caller after the step.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    step: u64,
    moments: BTreeMap<usize, (Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Adam with the given learning rate and standard β₁ = 0.9, β₂ = 0.999.
    ///
    /// # Panics
    ///
    /// Panics when `lr` is not finite and positive.
    pub fn new(lr: f64) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            step: 0,
            moments: BTreeMap::new(),
        }
    }

    /// Marks the beginning of an optimisation step: advances the
    /// bias-correction clock.
    pub fn begin_step(&mut self) {
        self.step += 1;
    }

    /// Applies one update to the parameter buffer `weights` in place.
    pub fn update(&mut self, slot: usize, weights: &mut [f32], grads: &[f32]) {
        assert_eq!(weights.len(), grads.len(), "weight/grad length mismatch");
        let t = self.step.max(1);
        let (m, v) = self
            .moments
            .entry(slot)
            .or_insert_with(|| (vec![0.0; weights.len()], vec![0.0; weights.len()]));
        assert_eq!(m.len(), weights.len(), "slot reused with a different size");
        let bc1 = 1.0 - self.beta1.powi(t as i32);
        let bc2 = 1.0 - self.beta2.powi(t as i32);
        for i in 0..weights.len() {
            let g = grads[i] as f64;
            let mi = self.beta1 * m[i] as f64 + (1.0 - self.beta1) * g;
            let vi = self.beta2 * v[i] as f64 + (1.0 - self.beta2) * g * g;
            m[i] = mi as f32;
            v[i] = vi as f32;
            let m_hat = mi / bc1;
            let v_hat = vi / bc2;
            let mut w = weights[i] as f64;
            w -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
            weights[i] = w as f32;
        }
    }

    /// Captures the mutable optimiser state (bias-correction clock and
    /// per-slot moment vectors). Hyper-parameters are not included — they
    /// are rebuilt in code, exactly like network architecture.
    pub fn state(&self) -> AdamState {
        AdamState {
            step: self.step,
            moments: self
                .moments
                .iter()
                .map(|(&slot, (m, v))| (slot, m.clone(), v.clone()))
                .collect(),
        }
    }

    /// Replaces the mutable optimiser state with a capture from
    /// [`Self::state`], resuming training exactly where it left off.
    pub fn restore_state(&mut self, state: &AdamState) {
        self.step = state.step;
        self.moments = state
            .moments
            .iter()
            .map(|(slot, m, v)| (*slot, (m.clone(), v.clone())))
            .collect();
    }
}

/// Mutable [`Adam`] state captured by [`Adam::state`]: the step clock plus
/// `(slot, first moment, second moment)` triples in ascending slot order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdamState {
    /// Bias-correction step count.
    pub step: u64,
    /// Per-slot moment vectors, ascending by slot.
    pub moments: Vec<(usize, Vec<f32>, Vec<f32>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_descent(opt: &mut Adam, steps: usize) -> f32 {
        // Minimise f(w) = (w - 3)², gradient 2(w - 3).
        let mut w = [0.0f32];
        for _ in 0..steps {
            opt.begin_step();
            let g = [2.0 * (w[0] - 3.0)];
            opt.update(0, &mut w, &g);
        }
        w[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.3);
        let w = quadratic_descent(&mut opt, 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step ≈ lr * sign(g).
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        let mut w = [0.0f32];
        opt.update(0, &mut w, &[0.5]);
        assert!((w[0] + 0.1).abs() < 1e-3, "w = {}", w[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        let mut a = [0.0f32];
        let mut b = [0.0f32, 0.0];
        opt.update(0, &mut a, &[1.0]);
        opt.update(1, &mut b, &[1.0, -1.0]);
        assert!(a[0] < 0.0);
        assert!(b[0] < 0.0 && b[1] > 0.0);
    }

    #[test]
    fn adam_state_round_trip_resumes_identically() {
        // Train two optimisers in lock-step, capture/restore one mid-way,
        // and check the trajectories stay identical afterwards.
        let mut reference = Adam::new(0.1);
        let mut w_ref = [1.0f32, -2.0];
        for _ in 0..7 {
            reference.begin_step();
            let g = [w_ref[0] * 0.5, w_ref[1] * 0.5];
            reference.update(0, &mut w_ref, &g);
        }
        let state = reference.state();
        let mut restored = Adam::new(0.1);
        restored.restore_state(&state);
        assert_eq!(restored.state(), state);
        let mut w_restored = w_ref;
        for _ in 0..7 {
            reference.begin_step();
            restored.begin_step();
            let g_ref = [w_ref[0] * 0.5, w_ref[1] * 0.5];
            let g_res = [w_restored[0] * 0.5, w_restored[1] * 0.5];
            reference.update(0, &mut w_ref, &g_ref);
            restored.update(0, &mut w_restored, &g_res);
        }
        assert_eq!(w_ref, w_restored);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn rejects_zero_lr() {
        let _ = Adam::new(0.0);
    }
}
