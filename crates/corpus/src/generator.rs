//! Sentence and dataset synthesis.
//!
//! A sentence is produced by a small stochastic grammar:
//!
//! ```text
//! sentence   := opener (trigger? entity connector)+ "."
//! opener     := 1–3 genre function words
//! trigger    := a type- or family-level trigger word (probability knob)
//! entity     := a surface form from the type's gazetteer, a *fresh* name
//!               (OOV knob), or a *homonym* from a sibling type (ambiguity
//!               knob — forces the model to use context)
//! connector  := 1–3 genre function words
//! ```
//!
//! The knobs — mention density, trigger probability, homonym rate, OOV rate
//! — are what the dataset profiles tune to reproduce the difficulty ordering
//! in the paper's Tables 2–4 (e.g. GENIA's sparser triggers and higher
//! ambiguity make the medical intra-domain setting the hardest).

use std::collections::HashMap;
use std::sync::OnceLock;

use fewner_text::{EntitySpan, Sentence, TypeId};
use fewner_util::{Error, Result, Rng};

use crate::gazetteer::TypeSpec;
use crate::genre::Genre;
use crate::stream::StreamingCorpus;

/// Difficulty and density knobs for sentence generation.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Surface style.
    pub genre: Genre,
    /// Mean entity mentions per sentence (truncated to `1..=6`).
    pub mention_rate: f64,
    /// Probability that an entity is preceded by a trigger word.
    pub trigger_prob: f64,
    /// Given a trigger, probability it is the generic family trigger rather
    /// than the type-specific one.
    pub family_trigger_prob: f64,
    /// Probability an entity's surface form is borrowed from a sibling type
    /// of the same family (gold label stays the generating type).
    pub homonym_prob: f64,
    /// Probability of generating a fresh out-of-gazetteer name.
    pub fresh_prob: f64,
    /// Probability a mention is wrapped in a *nested* outer mention
    /// (ACE2005-style); flattening keeps the innermost (§4.3.1).
    pub nested_prob: f64,
}

impl GenConfig {
    /// Reasonable newswire defaults; profiles override per dataset.
    pub fn newswire() -> GenConfig {
        GenConfig {
            genre: Genre::Newswire,
            mention_rate: 2.5,
            trigger_prob: 0.7,
            family_trigger_prob: 0.3,
            homonym_prob: 0.1,
            fresh_prob: 0.15,
            nested_prob: 0.0,
        }
    }
}

/// A generated corpus with the metadata the rest of the system needs.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name, e.g. `NNE`.
    pub name: String,
    /// Surface genre.
    pub genre: Genre,
    /// The entity-type inventory.
    pub types: Vec<TypeSpec>,
    /// All generated sentences.
    pub sentences: Vec<Sentence>,
    /// Word → embedding-cluster map accumulated during generation.
    clusters: HashMap<String, u64>,
    /// Lazily computed sorted view of `clusters` (see [`Dataset::sorted_clusters`]).
    sorted: OnceLock<Vec<(String, u64)>>,
}

/// Table-1-style statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    /// Number of entity types.
    pub types: usize,
    /// Number of sentences.
    pub sentences: usize,
    /// Number of entity mentions.
    pub mentions: usize,
}

impl Dataset {
    /// Counts types / sentences / mentions (paper Table 1).
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            types: self.types.len(),
            sentences: self.sentences.len(),
            mentions: self.sentences.iter().map(|s| s.spans.len()).sum(),
        }
    }

    /// The semantic cluster recorded for a word during generation, if any.
    pub fn cluster_of(&self, word: &str) -> Option<u64> {
        self.clusters
            .get(word)
            .copied()
            .or_else(|| self.clusters.get(&word.to_lowercase()).copied())
    }

    /// Merges another dataset's cluster map (for experiments whose
    /// vocabulary spans source and target corpora).
    pub fn merged_clusters(&self, other: &Dataset) -> HashMap<String, u64> {
        let mut out = self.clusters.clone();
        for (k, v) in &other.clusters {
            out.entry(k.clone()).or_insert(*v);
        }
        out
    }

    /// Direct access to the cluster map.
    pub fn clusters(&self) -> &HashMap<String, u64> {
        &self.clusters
    }

    /// Cluster entries in sorted key order — the deterministic merge order
    /// token encoding needs. Computed once per dataset and cached: the
    /// encoder previously re-collected and re-sorted the full map on every
    /// build, a fresh allocation per call on the serving path.
    pub fn sorted_clusters(&self) -> &[(String, u64)] {
        self.sorted.get_or_init(|| {
            let mut pairs: Vec<(String, u64)> =
                self.clusters.iter().map(|(k, v)| (k.clone(), *v)).collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        })
    }

    /// Assembles a dataset from already-generated parts (the streaming
    /// materialization path).
    pub(crate) fn assemble(
        name: String,
        genre: Genre,
        types: Vec<TypeSpec>,
        sentences: Vec<Sentence>,
        clusters: HashMap<String, u64>,
    ) -> Dataset {
        Dataset {
            name,
            genre,
            types,
            sentences,
            clusters,
            sorted: OnceLock::new(),
        }
    }

    /// Human-readable name of a type.
    pub fn type_name(&self, id: TypeId) -> &str {
        &self.types[id.0 as usize].name
    }
}

/// Mention count with mean ≈ `rate`, clamped to `1..=6`.
///
/// A Bernoulli-rounded base plus symmetric ±1 jitter keeps the expected
/// value at `rate` (up to clamping) while still varying sentence shapes.
fn sample_mention_count(rate: f64, rng: &mut Rng) -> usize {
    let base = rate.floor();
    let mut m = base as i64 + i64::from(rng.chance(rate - base));
    if rng.chance(0.25) {
        m += 1;
    }
    if rng.chance(0.25) {
        m -= 1;
    }
    m.clamp(1, 6) as usize
}

/// Zipf-ish weights so some types are rarer than others.
fn type_weights(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 / (1.0 + i as f64).powf(0.6)).collect()
}

struct SentenceBuilder<'a> {
    tokens: Vec<String>,
    spans: Vec<EntitySpan>,
    clusters: &'a mut HashMap<String, u64>,
}

impl SentenceBuilder<'_> {
    fn push_word(&mut self, word: &str, cluster: Option<u64>) {
        if let Some(c) = cluster {
            self.clusters.entry(word.to_string()).or_insert(c);
        }
        self.tokens.push(word.to_string());
    }

    fn push_filler(
        &mut self,
        pool: &[&'static str],
        lo: usize,
        hi: usize,
        genre: Genre,
        rng: &mut Rng,
    ) {
        let n = rng.range(lo, hi + 1);
        for _ in 0..n {
            let w = *rng.choose(pool);
            self.push_word(w, Some(genre.cluster()));
        }
    }
}

/// Generates one sentence over `types_in_scope` (indices into `all_types`).
///
/// `all_types` provides sibling gazetteers for homonym sampling and outer
/// types for nesting. Nested mentions are *flattened to the innermost span*
/// before the sentence is returned, exactly as the paper preprocesses
/// ACE2005; the outer span is recorded and discarded.
pub fn generate_sentence(
    all_types: &[TypeSpec],
    types_in_scope: &[usize],
    cfg: &GenConfig,
    clusters: &mut HashMap<String, u64>,
    rng: &mut Rng,
) -> Result<Sentence> {
    if types_in_scope.is_empty() {
        return Err(Error::InvalidConfig("no types in scope".into()));
    }
    let pool = cfg.genre.words();
    let weights: Vec<f64> = {
        let all = type_weights(all_types.len());
        types_in_scope.iter().map(|&i| all[i]).collect()
    };

    let mut b = SentenceBuilder {
        tokens: Vec::with_capacity(24),
        spans: Vec::new(),
        clusters,
    };
    b.push_filler(&pool, 1, 3, cfg.genre, rng);

    let mentions = sample_mention_count(cfg.mention_rate, rng);
    for _ in 0..mentions {
        let spec = &all_types[types_in_scope[rng.weighted(&weights)]];

        // Ambiguity: borrow a sibling's surface but keep this gold type.
        let homonym = cfg.homonym_prob > 0.0 && rng.chance(cfg.homonym_prob);
        let surface_spec = if homonym {
            let siblings: Vec<&TypeSpec> = all_types
                .iter()
                .filter(|t| t.family == spec.family && t.id != spec.id)
                .collect();
            if siblings.is_empty() {
                spec
            } else {
                *rng.choose(&siblings)
            }
        } else {
            spec
        };

        // Context trigger: forced for homonyms (context must disambiguate).
        let effective_trigger = if homonym { 0.95 } else { cfg.trigger_prob };
        if rng.chance(effective_trigger) {
            if rng.chance(cfg.family_trigger_prob) {
                let t = *rng.choose(spec.family.triggers());
                b.push_word(t, Some(spec.family.trigger_cluster()));
            } else {
                let t = rng.choose(&spec.triggers).clone();
                b.push_word(&t, Some(spec.family.trigger_cluster()));
            }
        }

        // Optional nesting: an outer wrapper token before the inner mention,
        // recorded as an outer span of a different type, then flattened.
        let nested = cfg.nested_prob > 0.0 && rng.chance(cfg.nested_prob);
        let outer_start = b.tokens.len();
        if nested {
            // Outer "head" word, e.g. "[... region]" around "[Persian Gulf]".
            let outer_spec = &all_types[types_in_scope[rng.weighted(&weights)]];
            let extra = rng.choose(outer_spec.family.triggers());
            b.push_word(extra, Some(outer_spec.family.trigger_cluster()));
        }

        let start = b.tokens.len();
        let name = surface_spec.sample_name(cfg.fresh_prob, rng);
        for tok in &name {
            b.push_word(tok, Some(surface_spec.family.cluster()));
        }
        let end = b.tokens.len();
        let inner = EntitySpan::new(start, end, spec.id)?;

        if nested {
            // Inner-most flattening: the outer span (outer_start..end) is
            // dropped on the floor; only the inner span survives.
            let _outer = EntitySpan::new(outer_start, end, spec.id)?;
        }
        b.spans.push(inner);

        b.push_filler(&pool, 1, 3, cfg.genre, rng);
    }
    b.push_word(".", None);

    Sentence::new(b.tokens, b.spans)
}

/// Generates a full dataset: `n_sentences` sentences over `types`.
///
/// Forwarding shim over the streaming pipeline: one whole-corpus chunk,
/// materialized. Byte-identical to the historical monolithic loop — the
/// chunked generator threads the same single RNG through the same sentence
/// sequence (see `crate::stream` for the determinism contract).
pub fn generate_dataset(
    name: &str,
    types: Vec<TypeSpec>,
    n_sentences: usize,
    cfg: &GenConfig,
    seed: u64,
) -> Result<Dataset> {
    StreamingCorpus::new(name, types, n_sentences, cfg, seed, n_sentences.max(1))?.materialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::Family;
    use crate::gazetteer::build_inventory;

    fn tiny() -> Dataset {
        let types = build_inventory(6, &Family::NEWSWIRE, 15, 1);
        generate_dataset("tiny", types, 200, &GenConfig::newswire(), 2).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.sentences, b.sentences);
    }

    #[test]
    fn every_sentence_is_well_formed() {
        let d = tiny();
        for s in &d.sentences {
            assert!(!s.is_empty());
            assert!(!s.spans.is_empty(), "grammar always emits ≥1 mention");
            for span in &s.spans {
                assert!(span.end <= s.len());
                assert!((span.type_id.0 as usize) < d.types.len());
            }
            assert_eq!(s.tokens.last().map(String::as_str), Some("."));
        }
    }

    #[test]
    fn mention_rate_is_respected() {
        let types = build_inventory(6, &Family::NEWSWIRE, 15, 1);
        let dense_cfg = GenConfig {
            mention_rate: 4.6,
            ..GenConfig::newswire()
        };
        let dense = generate_dataset("d", types.clone(), 800, &dense_cfg, 3).unwrap();
        let sparse_cfg = GenConfig {
            mention_rate: 1.6,
            ..GenConfig::newswire()
        };
        let sparse = generate_dataset("s", types, 800, &sparse_cfg, 3).unwrap();
        let dd = dense.stats().mentions as f64 / dense.stats().sentences as f64;
        let ss = sparse.stats().mentions as f64 / sparse.stats().sentences as f64;
        assert!(dd > 3.4, "dense density {dd}");
        assert!(ss < 2.2, "sparse density {ss}");
    }

    #[test]
    fn clusters_cover_entity_and_function_words() {
        let d = tiny();
        let mut clustered = 0usize;
        let mut total = 0usize;
        for s in &d.sentences {
            for t in &s.tokens {
                total += 1;
                if d.cluster_of(t).is_some() {
                    clustered += 1;
                }
            }
        }
        let frac = clustered as f64 / total as f64;
        assert!(frac > 0.9, "cluster coverage {frac}");
    }

    #[test]
    fn homonyms_borrow_sibling_surfaces() {
        let types = build_inventory(8, &[Family::Person], 10, 5);
        let cfg = GenConfig {
            homonym_prob: 1.0,
            fresh_prob: 0.0,
            ..GenConfig::newswire()
        };
        let d = generate_dataset("h", types, 300, &cfg, 9).unwrap();
        // With homonym_prob 1 and 8 sibling types, many mentions must use a
        // surface that is absent from their own gazetteer.
        let mut borrowed = 0usize;
        let mut total = 0usize;
        for s in &d.sentences {
            for span in &s.spans {
                total += 1;
                let own = &d.types[span.type_id.0 as usize].gazetteer;
                let surface: Vec<String> = s.tokens[span.start..span.end].to_vec();
                if !own.contains(&surface) {
                    borrowed += 1;
                }
            }
        }
        assert!(
            borrowed as f64 / total as f64 > 0.7,
            "borrowed {borrowed}/{total}"
        );
    }

    #[test]
    fn nested_generation_flattens_to_innermost() {
        let types = build_inventory(6, &Family::NEWSWIRE, 10, 7);
        let cfg = GenConfig {
            nested_prob: 1.0,
            ..GenConfig::newswire()
        };
        let d = generate_dataset("n", types, 100, &cfg, 11).unwrap();
        // All sentences remain flat (validated by Sentence::new) and spans
        // never include the wrapper token (entity tokens never come from
        // trigger pools — surface names are multi-char generated words).
        for s in &d.sentences {
            for pair in s.spans.windows(2) {
                assert!(!pair[0].overlaps(&pair[1]));
            }
        }
    }

    #[test]
    fn empty_scope_is_an_error() {
        let types = build_inventory(2, &[Family::Person], 5, 1);
        let mut clusters = HashMap::new();
        let mut rng = Rng::new(1);
        assert!(
            generate_sentence(&types, &[], &GenConfig::newswire(), &mut clusters, &mut rng)
                .is_err()
        );
    }
}
