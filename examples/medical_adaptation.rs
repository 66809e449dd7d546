//! Cross-domain cross-type adaptation (paper §4.4): meta-train FEWNER on a
//! GENIA-profile source corpus, then adapt — updating only φ — to the
//! BioNLP13CG target, whose domain annotation scheme *and* entity types are
//! new. Also demonstrates that θ is bit-identical before and after
//! adaptation (the paper's overfitting/efficiency argument).
//!
//! ```text
//! cargo run --release --example medical_adaptation
//! ```

use fewner::prelude::*;

fn main() -> fewner::Result<()> {
    let source = DatasetProfile::genia().generate(0.05)?;
    let target = DatasetProfile::bionlp13cg().generate(0.2)?;
    println!(
        "source {}: {} sentences / {} types; target {}: {} sentences / {} types",
        source.name,
        source.sentences.len(),
        source.types.len(),
        target.name,
        target.sentences.len(),
        target.types.len()
    );

    let train = full_view(&source);
    let (_val, test) = holdout_target(&target, 11)?;
    let spec = EmbeddingSpec {
        dim: 32,
        ..EmbeddingSpec::default()
    };
    // The encoder covers both corpora, like a real pre-trained table.
    let enc = TokenEncoder::build(&[&source, &target], &spec, 4);

    let bb = BackboneConfig {
        word_dim: 32,
        hidden: 24,
        phi_dim: 24,
        slot_ctx_dim: 8,
        ..BackboneConfig::default_for(5)
    };
    let meta = MetaConfig {
        meta_lr: 1e-2,
        inner_lr: 0.25,
        inner_steps_train: 3,
        inner_steps_test: 10,
        meta_batch: 4,
        ..MetaConfig::default()
    };
    let mut fewner = Fewner::new(bb, &enc, meta.clone())?;

    let schedule = TrainConfig::new(5, 1).iterations(150).query_size(6).seed(2);
    println!(
        "meta-training on {} source episodes…",
        schedule.iterations * meta.meta_batch
    );
    fewner_core::Trainer::new().train(&mut fewner, &train, &enc, &meta, &schedule)?;

    // Evaluate on target-domain tasks, verifying θ never changes.
    let sampler = EpisodeSampler::new(&test, 5, 1, 6)?;
    let tasks = sampler.eval_set(0xE7A1, 20)?;
    let theta_before = fewner.theta.snapshot();
    let score = evaluate(&fewner, &tasks, &enc)?;
    assert_eq!(
        theta_before,
        fewner.theta.snapshot(),
        "adaptation must not touch θ"
    );
    println!(
        "GENIA → BioNLP13CG 5-way 1-shot episode F1: {}",
        score.as_percent()
    );
    println!(
        "θ untouched by {} adaptations ✓ (only φ was updated)",
        tasks.len()
    );

    // The serving surface: adapt once, then reuse the context for as many
    // predict calls as traffic brings — this is what `fewner serve` caches.
    let opts = ServeOptions::new();
    let task = &tasks[0];
    let ctx = fewner.adapt(task, &enc, &opts)?;
    let queries: Vec<_> = task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
    let (first, second) = (
        fewner.predict(&ctx, &queries, &opts)?,
        fewner.predict(&ctx, &queries, &opts)?,
    );
    assert_eq!(first, second, "a frozen context decodes deterministically");
    println!(
        "reused one adapted context ({} φ values) across {} query sentences twice",
        ctx.phi_values().len(),
        queries.len()
    );

    // Zero-shot comparison: predictions *without* the inner loop, i.e. φ=0.
    let mut zero_shot = F1Counts::default();
    for task in &tasks {
        let tags = task.tag_set();
        let (phi_store, phi_id) = fewner.backbone.new_context();
        let encoded: Vec<_> = task.query.iter().map(|s| enc.encode(&s.tokens)).collect();
        let paths =
            fewner
                .backbone
                .decode_task(&fewner.theta, Some((&phi_store, phi_id)), &encoded, &tags);
        for (sent, path) in task.query.iter().zip(&paths) {
            let pred: Vec<Tag> = path.iter().map(|&i| tags.tag(i)).collect();
            zero_shot.add_tags(&sent.tags, &pred);
        }
    }
    println!(
        "for reference, φ = 0 (no adaptation) pooled F1: {:.2}%",
        zero_shot.f1() * 100.0
    );
    Ok(())
}
