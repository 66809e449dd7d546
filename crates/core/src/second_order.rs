//! Exact FEWNER meta-gradients via finite-difference Hessian-vector
//! products.
//!
//! The outer objective is `L_qry(θ, φ_K(θ))` where
//! `φ_k = φ_{k−1} − α ∇_φ L_spt(θ, φ_{k−1})` (Eq. 5–6). Its exact θ-gradient
//! is the first-order term `∂L_qry/∂θ` *plus* a correction that
//! back-propagates `v_K = ∂L_qry/∂φ_K` through the unrolled inner loop:
//!
//! ```text
//! for k = K .. 1:
//!     correction −= α · H_θφ(θ, φ_{k−1}) · v_k
//!     v_{k−1}     = v_k − α · H_φφ(θ, φ_{k−1}) · v_k
//! ```
//!
//! Both Hessian-vector products act along the *low-dimensional* φ direction
//! — the paper's observation that FEWNER "does not need the second order
//! gradient computation with respect to θ, but only φ". That makes them
//! cheap to obtain without a higher-order tape: a central difference of the
//! *first-order* gradient along `v̂`,
//!
//! ```text
//! H(θ,φ)·v ≈ ‖v‖ · (∇L(φ + ε·v̂) − ∇L(φ − ε·v̂)) / (2ε)
//! ```
//!
//! costs two extra forward/backward passes per inner step and yields both
//! `H_φφ v` (from the φ-gradient) and `H_θφ v` (from the θ-gradient) at
//! once.

use fewner_models::{Backbone, LabeledSentence};
use fewner_tensor::{Array, Graph, ParamGrads, ParamStore};
use fewner_text::TagSet;
use fewner_util::{Result, Rng};

/// Gradients of the support loss w.r.t. (θ, φ) at a given φ value.
fn grads_at(
    backbone: &Backbone,
    theta: &ParamStore,
    support: &[LabeledSentence],
    tags: &TagSet,
    phi_value: &Array,
) -> Result<(ParamGrads, Array)> {
    let (mut phi_store, phi_id) = backbone.new_context();
    phi_store.set(phi_id, phi_value.clone());
    let g = Graph::eval();
    let phi = g.param(&phi_store, phi_id);
    let mut rng = Rng::new(0); // dropout-free, like the inner loop
    let loss = backbone.batch_loss(&g, theta, Some(phi), support, tags, &mut rng);
    let grads = g.backward(loss)?;
    let theta_grads = grads.for_store(theta);
    let phi_grad = grads
        .for_store(&phi_store)
        .get(phi_id)
        .cloned()
        .unwrap_or_else(|| Array::zeros(phi_value.rows(), phi_value.cols()));
    Ok((theta_grads, phi_grad))
}

/// Computes the exact-meta-gradient correction for θ (to be *added* to the
/// first-order term), given the inner-loop φ trajectory and
/// `v = ∂L_qry/∂φ_K`.
#[allow(clippy::too_many_arguments)]
pub fn theta_correction(
    backbone: &Backbone,
    theta: &ParamStore,
    support: &[LabeledSentence],
    tags: &TagSet,
    trajectory: &[Array],
    query_phi_grad: &Array,
    inner_lr: f32,
    epsilon: f32,
) -> Result<ParamGrads> {
    let mut correction = ParamGrads::zeros_like(theta);
    let mut v = query_phi_grad.clone();

    for phi_prev in trajectory.iter().rev() {
        let norm = v.norm_sq().sqrt();
        if norm < 1e-12 {
            break;
        }
        // Unit direction along v.
        let mut dir = v.clone();
        dir.scale_in_place(1.0 / norm);

        let mut phi_plus = phi_prev.clone();
        phi_plus.axpy(epsilon, &dir);
        let mut phi_minus = phi_prev.clone();
        phi_minus.axpy(-epsilon, &dir);

        let (theta_plus, phi_g_plus) = grads_at(backbone, theta, support, tags, &phi_plus)?;
        let (theta_minus, phi_g_minus) = grads_at(backbone, theta, support, tags, &phi_minus)?;

        let scale = norm / (2.0 * epsilon);

        // correction −= α · H_θφ v
        let mut h_theta = theta_plus;
        h_theta.axpy(-1.0, &theta_minus);
        h_theta.scale(scale);
        correction.axpy(-inner_lr, &h_theta);

        // v ← v − α · H_φφ v
        let mut h_phi = phi_g_plus;
        h_phi.axpy(-1.0, &phi_g_minus);
        h_phi.scale_in_place(scale);
        v.axpy(-inner_lr, &h_phi);
    }
    Ok(correction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_models::{BackboneConfig, Conditioning, HeadKind, TokenEncoder};
    use fewner_tensor::Exec;
    use fewner_text::embed::EmbeddingSpec;

    /// On a tiny problem, the FD correction must closely match the exact
    /// correction obtained by differentiating the unrolled inner loop
    /// numerically: d/dθ [L_qry(θ, φ_1(θ))] − ∂L_qry/∂θ |_{φ_1 fixed}.
    #[test]
    fn correction_matches_full_numeric_meta_gradient() {
        let d = fewner_corpus::DatasetProfile::bionlp13cg()
            .generate(0.005)
            .unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 12,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let mut rng = Rng::new(3);
        let mut theta = ParamStore::new();
        let cfg = BackboneConfig {
            word_dim: 12,
            char_dim: 4,
            char_filters: 3,
            char_widths: vec![2],
            hidden: 5,
            phi_dim: 4,
            slot_ctx_dim: 2,
            conditioning: Conditioning::Film,
            dropout: 0.0,
            use_char_cnn: true,
            encoder: fewner_models::backbone::EncoderKind::BiGru,
            head: HeadKind::Dense { n_ways: 2 },
        };
        let backbone = Backbone::new(cfg, &enc, &mut theta, &mut rng).unwrap();
        let tags = fewner_text::TagSet::new(2).unwrap();

        let sent = enc.encode(&["alpha".into(), "beta".into(), "gamma".into()]);
        let support: Vec<LabeledSentence> = vec![(sent.clone(), vec![0, 1, 2])];
        let query: Vec<LabeledSentence> = vec![(sent, vec![1, 2, 0])];

        let alpha = 0.5f32; // large inner LR so curvature terms matter
        let inner_steps = 1usize;

        // Closure: full objective F(θ) = L_qry(θ, φ_1(θ)).
        let objective = |theta: &ParamStore| -> f32 {
            let (mut phi_store, phi_id) = backbone.new_context();
            let mut sgd = fewner_tensor::Sgd::new(alpha);
            for _ in 0..inner_steps {
                let g = Graph::eval();
                let phi = g.param(&phi_store, phi_id);
                let mut r = Rng::new(0);
                let loss = backbone.batch_loss(&g, theta, Some(phi), &support, &tags, &mut r);
                let grads = g.backward(loss).unwrap().for_store(&phi_store);
                sgd.step(&mut phi_store, &grads).unwrap();
            }
            let g = Graph::eval();
            let phi = g.param(&phi_store, phi_id);
            let mut r = Rng::new(0);
            let loss = backbone.batch_loss(&g, theta, Some(phi), &query, &tags, &mut r);
            g.value(loss).scalar_value()
        };

        // Analytic: first-order term + FD correction.
        let (mut phi_store, phi_id) = backbone.new_context();
        let mut trajectory = Vec::new();
        let mut sgd = fewner_tensor::Sgd::new(alpha);
        for _ in 0..inner_steps {
            trajectory.push((**phi_store.value(phi_id)).clone());
            let g = Graph::eval();
            let phi = g.param(&phi_store, phi_id);
            let mut r = Rng::new(0);
            let loss = backbone.batch_loss(&g, &theta, Some(phi), &support, &tags, &mut r);
            let grads = g.backward(loss).unwrap().for_store(&phi_store);
            sgd.step(&mut phi_store, &grads).unwrap();
        }
        let g = Graph::eval();
        let phi = g.param(&phi_store, phi_id);
        let mut r = Rng::new(0);
        let loss = backbone.batch_loss(&g, &theta, Some(phi), &query, &tags, &mut r);
        let grads = g.backward(loss).unwrap();
        let first_order = grads.for_store(&theta);
        let v = grads.for_store(&phi_store).get(phi_id).cloned().unwrap();
        let correction = theta_correction(
            &backbone,
            &theta,
            &support,
            &tags,
            &trajectory,
            &v,
            alpha,
            5e-3,
        )
        .unwrap();

        // Check a handful of scalar parameters (bias entries are cheap and
        // well-conditioned for FD): film generator weight + GRU bias.
        let check_ids = [
            theta.get("film.w").unwrap(),
            theta.get("bigru.fwd.b").unwrap(),
        ];
        let mut checked = 0;
        for id in check_ids {
            let base = (**theta.value(id)).clone();
            for idx in 0..base.len().min(3) {
                let eps = 2e-2f32;
                let mut tp = theta.clone();
                let mut arr = base.clone();
                arr.data_mut()[idx] += eps;
                tp.set(id, arr);
                let fp = objective(&tp);
                let mut tm = theta.clone();
                let mut arr = base.clone();
                arr.data_mut()[idx] -= eps;
                tm.set(id, arr);
                let fm = objective(&tm);
                let numeric = (fp - fm) / (2.0 * eps);

                let fo = first_order.get(id).map(|a| a.data()[idx]).unwrap_or(0.0);
                let corr = correction.get(id).map(|a| a.data()[idx]).unwrap_or(0.0);
                let analytic = fo + corr;
                let tol = 0.05 + 0.12 * numeric.abs().max(analytic.abs());
                assert!(
                    (analytic - numeric).abs() < tol,
                    "param {idx}: analytic {analytic} (fo {fo} + corr {corr}) vs numeric {numeric}"
                );
                checked += 1;
            }
        }
        assert!(checked >= 4);
    }

    #[test]
    fn zero_query_gradient_gives_zero_correction() {
        let d = fewner_corpus::DatasetProfile::bionlp13cg()
            .generate(0.005)
            .unwrap();
        let enc = TokenEncoder::build(
            &[&d],
            &EmbeddingSpec {
                dim: 12,
                ..EmbeddingSpec::default()
            },
            4,
        );
        let mut rng = Rng::new(3);
        let mut theta = ParamStore::new();
        let cfg = BackboneConfig {
            word_dim: 12,
            char_dim: 4,
            char_filters: 3,
            char_widths: vec![2],
            hidden: 5,
            phi_dim: 4,
            slot_ctx_dim: 2,
            conditioning: Conditioning::Film,
            dropout: 0.0,
            use_char_cnn: true,
            encoder: fewner_models::backbone::EncoderKind::BiGru,
            head: HeadKind::Dense { n_ways: 2 },
        };
        let backbone = Backbone::new(cfg, &enc, &mut theta, &mut rng).unwrap();
        let tags = fewner_text::TagSet::new(2).unwrap();
        let sent = enc.encode(&["alpha".into()]);
        let support: Vec<LabeledSentence> = vec![(sent, vec![0])];
        let correction = theta_correction(
            &backbone,
            &theta,
            &support,
            &tags,
            &[Array::zeros(1, 4)],
            &Array::zeros(1, 4),
            0.1,
            1e-2,
        )
        .unwrap();
        assert_eq!(correction.global_norm(), 0.0);
    }
}
