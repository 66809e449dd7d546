//! First-order optimizers.
//!
//! The paper uses plain SGD with learning rate α = 0.1 for the inner loop
//! (Eq. 5) and Adam-style meta-optimisation with β = 8·10⁻⁴, gradient
//! clipping at 5.0, L2 regularisation 10⁻⁷ and a ×0.9 learning-rate decay
//! every 5000 tasks for the outer loop (§4.1.3). Both optimizers operate on
//! a ([`ParamStore`], [`ParamGrads`]) pair so the same code drives θ, φ and
//! every baseline.

use fewner_util::{Error, FromJson, Json, Result, ToJson};

use crate::array::Array;
use crate::params::{ParamGrads, ParamStore};

/// Serialises a moment buffer (`None` slots become JSON `null`).
fn moments_to_json(moments: &[Option<Array>]) -> Json {
    Json::Arr(
        moments
            .iter()
            .map(|m| m.as_ref().map_or(Json::Null, ToJson::to_json))
            .collect(),
    )
}

fn moments_from_json(json: &Json) -> Result<Vec<Option<Array>>> {
    json.as_arr()?
        .iter()
        .map(|m| match m {
            Json::Null => Ok(None),
            other => Array::from_json(other).map(Some),
        })
        .collect()
}

/// Plain stochastic gradient descent, the inner loops' optimizer (Eq. 5).
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Plain SGD as used for the FEWNER inner loop.
    pub fn new(lr: f32) -> Sgd {
        Sgd { lr }
    }

    /// Applies one update, `p -= lr · g` per parameter slot that has a
    /// gradient. Rejects non-finite gradients rather than poisoning the
    /// parameters, and gradients that do not match the parameters' layout
    /// with [`Error::ShapeMismatch`]; on either error the parameters are
    /// left unchanged.
    pub fn step(&mut self, params: &mut ParamStore, grads: &ParamGrads) -> Result<()> {
        grads.check_matches(params, "Sgd::step")?;
        if !grads.all_finite() {
            return Err(Error::NonFinite {
                context: "SGD gradients".to_string(),
            });
        }
        for i in 0..params.len() {
            if let Some(g) = grads.get_at(i) {
                params.value_mut(i).axpy(-self.lr, g);
            }
        }
        Ok(())
    }
}

/// Adam (Kingma & Ba) with decoupled weight decay and global-norm clipping.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate (β in the paper's outer loop).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
    /// Global-norm gradient clip (∞ disables).
    pub clip_norm: f32,
    t: u64,
    m: Vec<Option<Array>>,
    v: Vec<Option<Array>>,
}

impl Adam {
    /// Adam with standard moment coefficients.
    pub fn new(lr: f32) -> Adam {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            clip_norm: f32::INFINITY,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adds decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Adam {
        self.weight_decay = wd;
        self
    }

    /// Adds global-norm clipping.
    pub fn with_clip(mut self, clip: f32) -> Adam {
        self.clip_norm = clip;
        self
    }

    /// Multiplies the learning rate (used for the ×0.9 / 5000-task decay).
    pub fn decay_lr(&mut self, factor: f32) {
        self.lr *= factor;
    }

    /// Captures the optimizer's mutable state — the (possibly decayed)
    /// learning rate, the step count `t`, and both moment buffers — for a
    /// training snapshot. A resumed run restores this so the bias
    /// correction and moment trajectories continue exactly where the
    /// interrupted run stood; the structural hyper-parameters (β₁, β₂, ε,
    /// weight decay, clip) are configuration, rebuilt by the caller.
    pub fn to_saved(&self) -> SavedAdam {
        SavedAdam {
            lr: self.lr,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restores state captured with [`Adam::to_saved`].
    pub fn load_saved(&mut self, saved: &SavedAdam) {
        self.lr = saved.lr;
        self.t = saved.t;
        self.m = saved.m.clone();
        self.v = saved.v.clone();
    }

    /// Applies one update. Non-finite gradients and gradients that do not
    /// match the parameters' layout ([`Error::ShapeMismatch`]) are rejected
    /// before the parameters or the optimizer state change.
    pub fn step(&mut self, params: &mut ParamStore, grads: &ParamGrads) -> Result<()> {
        grads.check_matches(params, "Adam::step")?;
        if !grads.all_finite() {
            return Err(Error::NonFinite {
                context: "Adam gradients".to_string(),
            });
        }
        let mut grads = grads.clone();
        if self.clip_norm.is_finite() {
            grads.clip_global_norm(self.clip_norm);
        }
        if self.m.len() != params.len() {
            self.m = vec![None; params.len()];
            self.v = vec![None; params.len()];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let Some(g) = grads.get_at(i) else { continue };
            let m = self.m[i].get_or_insert_with(|| Array::zeros(g.rows(), g.cols()));
            let v = self.v[i].get_or_insert_with(|| Array::zeros(g.rows(), g.cols()));
            for ((mv, vv), &gv) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(g.data())
            {
                *mv = self.beta1 * *mv + (1.0 - self.beta1) * gv;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * gv * gv;
            }
            if self.weight_decay > 0.0 {
                let decay = self.weight_decay;
                let current = params.value_at(i).clone();
                params.value_mut(i).axpy(-self.lr * decay, &current);
            }
            let (lr, eps) = (self.lr, self.eps);
            let m_snapshot = self.m[i].as_ref().unwrap().clone();
            let v_snapshot = self.v[i].as_ref().unwrap().clone();
            let target = params.value_mut(i);
            for ((t, &mv), &vv) in target
                .data_mut()
                .iter_mut()
                .zip(m_snapshot.data())
                .zip(v_snapshot.data())
            {
                let m_hat = mv / bc1;
                let v_hat = vv / bc2;
                *t -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
        Ok(())
    }
}

/// Serialisable mutable state of an [`Adam`] optimizer.
#[derive(Debug, Clone)]
pub struct SavedAdam {
    /// Current (decayed) learning rate.
    pub lr: f32,
    /// Step count driving the bias correction.
    pub t: u64,
    /// First moments per parameter slot.
    pub m: Vec<Option<Array>>,
    /// Second moments per parameter slot.
    pub v: Vec<Option<Array>>,
}

impl ToJson for SavedAdam {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("lr".into(), Json::from(self.lr)),
            ("t".into(), Json::from(self.t)),
            ("m".into(), moments_to_json(&self.m)),
            ("v".into(), moments_to_json(&self.v)),
        ])
    }
}

impl FromJson for SavedAdam {
    fn from_json(json: &Json) -> Result<SavedAdam> {
        Ok(SavedAdam {
            lr: json.field("lr")?.as_f32()?,
            t: json.field("t")?.as_u64()?,
            m: moments_from_json(json.field("m")?)?,
            v: moments_from_json(json.field("v")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Exec;
    use crate::graph::Graph;
    use crate::params::ParamStore;

    /// Minimises (w - 3)^2 and checks convergence.
    fn quadratic_converges(mut step: impl FnMut(&mut ParamStore, &ParamGrads)) -> f32 {
        let mut params = ParamStore::new();
        let id = params.add("w", Array::scalar(0.0));
        for _ in 0..300 {
            let g = Graph::new();
            let w = g.param(&params, id);
            let diff = g.add_scalar(w, -3.0);
            let loss = g.sum_all(g.mul(diff, diff));
            let grads = g.backward(loss).unwrap().for_store(&params);
            step(&mut params, &grads);
        }
        params.value_at(0).scalar_value()
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let mut opt = Sgd::new(0.1);
        let w = quadratic_converges(|p, g| opt.step(p, g).unwrap());
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn adam_minimises_quadratic() {
        let mut opt = Adam::new(0.05);
        let w = quadratic_converges(|p, g| opt.step(p, g).unwrap());
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn non_finite_gradients_rejected_and_params_untouched() {
        let mut params = ParamStore::new();
        let id = params.add("w", Array::scalar(1.5));
        let mut grads = ParamGrads::zeros_like(&params);
        grads.accumulate(id.index(), &Array::scalar(f32::NAN));
        let mut sgd = Sgd::new(0.1);
        assert!(sgd.step(&mut params, &grads).is_err());
        assert_eq!(params.value_at(0).scalar_value(), 1.5);
        let mut adam = Adam::new(0.1);
        assert!(adam.step(&mut params, &grads).is_err());
        assert_eq!(params.value_at(0).scalar_value(), 1.5);
    }

    #[test]
    fn mismatched_gradients_are_an_error_and_change_nothing() {
        let mut params = ParamStore::new();
        let id = params.add("w", Array::from_vec(1, 2, vec![1.5, -0.5]));
        let mut good = ParamGrads::zeros_like(&params);
        good.accumulate(id.index(), &Array::from_vec(1, 2, vec![0.25, 1.0]));
        // Gradients of a differently built store: a wrong shape in the
        // one slot, and one slot too many.
        let mut other = ParamStore::new();
        other.add("w", Array::zeros(1, 3));
        let mut wrong_shape = ParamGrads::zeros_like(&other);
        wrong_shape.accumulate(0, &Array::from_vec(1, 3, vec![1.0, 2.0, 3.0]));
        other.add("b", Array::zeros(1, 1));
        let wrong_count = ParamGrads::zeros_like(&other);

        let theta = |p: &ParamStore| -> Vec<u32> {
            p.value_at(0).data().iter().map(|x| x.to_bits()).collect()
        };
        let mut sgd = Sgd::new(0.1);
        let mut adam = Adam::new(0.05).with_clip(2.0);
        sgd.step(&mut params, &good).unwrap();
        adam.step(&mut params, &good).unwrap();
        let (before, adam_state) = (theta(&params), adam.to_saved().to_json().to_string());
        for bad in [&wrong_shape, &wrong_count] {
            let err = sgd.step(&mut params, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::ShapeMismatch {
                        op: "Sgd::step",
                        ..
                    }
                ),
                "{err}"
            );
            let err = adam.step(&mut params, bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::ShapeMismatch {
                        op: "Adam::step",
                        ..
                    }
                ),
                "{err}"
            );
            assert_eq!(theta(&params), before, "θ must be untouched");
            assert_eq!(adam.to_saved().to_json().to_string(), adam_state);
        }
    }

    #[test]
    fn adam_state_round_trip_resumes_bitwise_identically() {
        // Drive two optimizers: one straight through 12 steps, one
        // snapshotted-and-restored (through JSON) after 6. Identical final
        // parameters prove the moments, step count and lr all round-trip.
        let run = |resume_at: Option<usize>| -> f32 {
            let mut params = ParamStore::new();
            let id = params.add("w", Array::scalar(0.0));
            let mut opt = Adam::new(0.05).with_clip(2.0);
            for step in 0..12 {
                if resume_at == Some(step) {
                    let json = opt.to_saved().to_json().to_string();
                    let saved = SavedAdam::from_json(&Json::parse(&json).unwrap()).unwrap();
                    opt = Adam::new(0.05).with_clip(2.0);
                    opt.load_saved(&saved);
                }
                let mut grads = ParamGrads::zeros_like(&params);
                let w = params.value_at(0).scalar_value();
                grads.accumulate(id.index(), &Array::scalar(2.0 * (w - 3.0)));
                opt.step(&mut params, &grads).unwrap();
            }
            params.value_at(0).scalar_value()
        };
        let straight = run(None);
        let resumed = run(Some(6));
        assert_eq!(straight.to_bits(), resumed.to_bits());
    }

    #[test]
    fn adam_lr_decay() {
        let mut opt = Adam::new(8e-4);
        opt.decay_lr(0.9);
        assert!((opt.lr - 7.2e-4).abs() < 1e-9);
    }
}
