//! Meta-learning hyper-parameters (paper §4.1.3).

use fewner_util::{Error, FromJson, Json, Result, ToJson};

/// How the outer-loop meta-gradient treats the inner-loop dependence of
/// φ_k on θ (see `second_order` module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SecondOrder {
    /// First-order approximation: φ_k is treated as a constant w.r.t. θ.
    /// The standard, cheap choice; matches FOMAML.
    FirstOrder,
    /// Adds the curvature terms with central-difference Hessian-vector
    /// products against the low-dimensional φ (two extra passes per inner
    /// step) — the paper's observation that FEWNER needs second-order
    /// derivatives only through φ, made computable without a higher-order
    /// tape.
    FiniteDiffHvp {
        /// Finite-difference step (relative to the direction's norm).
        epsilon: f32,
    },
}

impl ToJson for SecondOrder {
    fn to_json(&self) -> Json {
        match self {
            SecondOrder::FirstOrder => Json::Str("first_order".into()),
            SecondOrder::FiniteDiffHvp { epsilon } => Json::Obj(vec![
                ("mode".into(), Json::Str("finite_diff_hvp".into())),
                ("epsilon".into(), Json::from(*epsilon)),
            ]),
        }
    }
}

impl FromJson for SecondOrder {
    fn from_json(json: &Json) -> Result<SecondOrder> {
        match json {
            Json::Str(s) if s == "first_order" => Ok(SecondOrder::FirstOrder),
            Json::Obj(_)
                if json.get("mode").and_then(|m| m.as_str().ok()) == Some("finite_diff_hvp") =>
            {
                Ok(SecondOrder::FiniteDiffHvp {
                    epsilon: json.field("epsilon")?.as_f32()?,
                })
            }
            other => Err(Error::Serde(format!("unknown SecondOrder: {other:?}"))),
        }
    }
}

/// Hyper-parameters shared by the episodic learners.
#[derive(Debug, Clone)]
pub struct MetaConfig {
    /// Inner-loop learning rate α (paper: 0.1).
    pub inner_lr: f32,
    /// Outer-loop meta learning rate β (paper: 8·10⁻⁴).
    pub meta_lr: f32,
    /// Inner gradient steps during training (paper: 2).
    pub inner_steps_train: usize,
    /// Inner gradient steps at test time (paper: 8).
    pub inner_steps_test: usize,
    /// Meta-batch size |T| (paper: 8).
    pub meta_batch: usize,
    /// Gradient clip (paper: 5.0).
    pub clip: f32,
    /// L2 regularisation (paper: 10⁻⁷).
    pub l2: f32,
    /// Learning-rate decay factor (paper: 0.9 …).
    pub decay: f32,
    /// … applied every this many *tasks* (paper: 5000).
    pub decay_every_tasks: usize,
    /// Second-order treatment of the FEWNER meta-gradient.
    pub second_order: SecondOrder,
    /// Base seed for training-task sampling and dropout.
    pub seed: u64,
    /// Divergence guard: abort training with [`Error::Diverged`] after this
    /// many *consecutive* meta-batches are skipped for non-finite
    /// losses/gradients, instead of silently spinning through the rest of
    /// the schedule with θ frozen. `0` disables the guard.
    ///
    /// [`Error::Diverged`]: fewner_util::Error::Diverged
    pub max_consecutive_skips: usize,
}

impl Default for MetaConfig {
    fn default() -> Self {
        MetaConfig {
            inner_lr: 0.1,
            meta_lr: 8e-4,
            inner_steps_train: 2,
            inner_steps_test: 8,
            meta_batch: 8,
            clip: 5.0,
            l2: 1e-7,
            decay: 0.9,
            decay_every_tasks: 5000,
            second_order: SecondOrder::FirstOrder,
            seed: 0xF3A7,
            max_consecutive_skips: 64,
        }
    }
}

impl ToJson for MetaConfig {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("inner_lr".into(), Json::from(self.inner_lr)),
            ("meta_lr".into(), Json::from(self.meta_lr)),
            (
                "inner_steps_train".into(),
                Json::from(self.inner_steps_train),
            ),
            ("inner_steps_test".into(), Json::from(self.inner_steps_test)),
            ("meta_batch".into(), Json::from(self.meta_batch)),
            ("clip".into(), Json::from(self.clip)),
            ("l2".into(), Json::from(self.l2)),
            ("decay".into(), Json::from(self.decay)),
            (
                "decay_every_tasks".into(),
                Json::from(self.decay_every_tasks),
            ),
            ("second_order".into(), self.second_order.to_json()),
            ("seed".into(), Json::from(self.seed)),
            (
                "max_consecutive_skips".into(),
                Json::from(self.max_consecutive_skips),
            ),
        ])
    }
}

impl FromJson for MetaConfig {
    fn from_json(json: &Json) -> Result<MetaConfig> {
        Ok(MetaConfig {
            inner_lr: json.field("inner_lr")?.as_f32()?,
            meta_lr: json.field("meta_lr")?.as_f32()?,
            inner_steps_train: json.field("inner_steps_train")?.as_usize()?,
            inner_steps_test: json.field("inner_steps_test")?.as_usize()?,
            meta_batch: json.field("meta_batch")?.as_usize()?,
            clip: json.field("clip")?.as_f32()?,
            l2: json.field("l2")?.as_f32()?,
            decay: json.field("decay")?.as_f32()?,
            decay_every_tasks: json.field("decay_every_tasks")?.as_usize()?,
            second_order: SecondOrder::from_json(json.field("second_order")?)?,
            seed: json.field("seed")?.as_u64()?,
            max_consecutive_skips: json.field("max_consecutive_skips")?.as_usize()?,
        })
    }
}

impl MetaConfig {
    /// Validates ranges.
    pub fn validate(&self) -> Result<()> {
        if !(self.inner_lr > 0.0 && self.meta_lr > 0.0) {
            return Err(Error::InvalidConfig("learning rates must be > 0".into()));
        }
        if self.inner_steps_train == 0 || self.inner_steps_test == 0 {
            return Err(Error::InvalidConfig("inner steps must be ≥ 1".into()));
        }
        if self.meta_batch == 0 {
            return Err(Error::InvalidConfig("meta batch must be ≥ 1".into()));
        }
        if !(0.0 < self.decay && self.decay <= 1.0) {
            return Err(Error::InvalidConfig("decay must be in (0, 1]".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = MetaConfig::default();
        assert_eq!(c.inner_lr, 0.1);
        assert_eq!(c.meta_lr, 8e-4);
        assert_eq!(c.inner_steps_train, 2);
        assert_eq!(c.inner_steps_test, 8);
        assert_eq!(c.meta_batch, 8);
        assert_eq!(c.clip, 5.0);
        assert_eq!(c.decay, 0.9);
        assert_eq!(c.decay_every_tasks, 5000);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_nonsense() {
        let zero_lr = MetaConfig {
            inner_lr: 0.0,
            ..MetaConfig::default()
        };
        assert!(zero_lr.validate().is_err());
        let zero_steps = MetaConfig {
            inner_steps_test: 0,
            ..MetaConfig::default()
        };
        assert!(zero_steps.validate().is_err());
        let bad_decay = MetaConfig {
            decay: 1.5,
            ..MetaConfig::default()
        };
        assert!(bad_decay.validate().is_err());
    }

    #[test]
    fn json_round_trip() {
        let c = MetaConfig {
            second_order: SecondOrder::FiniteDiffHvp { epsilon: 1e-2 },
            ..MetaConfig::default()
        };
        let json = c.to_json().to_string();
        let back = MetaConfig::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.second_order, c.second_order);
        assert_eq!(back.meta_lr, c.meta_lr);
        assert_eq!(back.seed, c.seed);
    }
}
