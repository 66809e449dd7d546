//! Cross-crate property-based tests on the system's core invariants.

use fewner::prelude::*;
use fewner::text::span::SlotSpan;
use fewner::text::{spans_to_tags, tags_to_spans, validate_tags};
use fewner::util::Rng as FewnerRng;
use proptest::prelude::*;

/// Strategy: a set of non-overlapping spans in a sentence of length `len`
/// over `ways` slots.
fn arb_spans(len: usize, ways: usize) -> impl Strategy<Value = Vec<SlotSpan>> {
    proptest::collection::vec((0..len, 1..4usize, 0..ways), 0..5).prop_map(move |raw| {
        let mut spans: Vec<SlotSpan> = Vec::new();
        for (start, width, slot) in raw {
            let end = (start + width).min(len);
            if start >= end {
                continue;
            }
            let candidate = SlotSpan { start, end, slot };
            if spans
                .iter()
                .all(|s| candidate.end <= s.start || s.end <= candidate.start)
            {
                spans.push(candidate);
            }
        }
        spans.sort();
        spans
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// spans → tags → spans is the identity for valid non-overlapping spans.
    #[test]
    fn span_tag_round_trip(spans in arb_spans(12, 3)) {
        let tags = TagSet::new(3).unwrap();
        let encoded = spans_to_tags(12, &spans, &tags).unwrap();
        validate_tags(&encoded, &tags).unwrap();
        let decoded = tags_to_spans(&encoded);
        prop_assert_eq!(decoded, spans);
    }

    /// Episode construction invariants hold across seeds and (N, K).
    #[test]
    fn episode_invariants(seed in 0u64..500, n in 2usize..4, k in 1usize..3) {
        let data = DatasetProfile::bionlp13cg().generate(0.04).unwrap();
        let split = split_types(&data, (8, 3, 5), 42).unwrap();
        let sampler = EpisodeSampler::new(&split.train, n, k, 4).unwrap();
        let task = sampler.sample(&mut FewnerRng::new(seed)).unwrap();
        task.validate().unwrap();
        // Support counts per slot ≥ K and the tag sets are in range.
        for c in task.support_slot_counts() {
            prop_assert!(c >= k);
        }
        let tags = task.tag_set();
        for s in task.support.iter().chain(&task.query) {
            validate_tags(&s.tags, &tags).unwrap();
        }
    }

    /// F1 is within [0, 1], symmetric in exact matches, and 1 for identity.
    #[test]
    fn f1_bounds(spans_a in arb_spans(10, 3), spans_b in arb_spans(10, 3)) {
        let mut counts = F1Counts::default();
        counts.add_spans(&spans_a, &spans_b);
        let f1 = counts.f1();
        prop_assert!((0.0..=1.0).contains(&f1));

        let mut identity = F1Counts::default();
        identity.add_spans(&spans_a, &spans_a);
        prop_assert_eq!(identity.f1(), 1.0);
    }

    /// Corpus generation is pure in its seed: same profile → same corpus.
    #[test]
    fn corpus_purity(scale_milli in 5u32..20) {
        let scale = scale_milli as f64 / 1000.0;
        let a = DatasetProfile::genia().generate(scale).unwrap();
        let b = DatasetProfile::genia().generate(scale).unwrap();
        prop_assert_eq!(a.sentences.len(), b.sentences.len());
        prop_assert_eq!(&a.sentences[0], &b.sentences[0]);
        let last = a.sentences.len() - 1;
        prop_assert_eq!(&a.sentences[last], &b.sentences[last]);
    }

    /// Viterbi decoding always yields BIO-valid sequences whatever the
    /// (finite) scores.
    #[test]
    fn viterbi_always_valid(seed in 0u64..200, len in 1usize..8) {
        let tags = TagSet::new(2).unwrap();
        let mut rng = FewnerRng::new(seed);
        let emissions = fewner::tensor::Array::uniform(len, 5, -3.0, 3.0, &mut rng);
        let trans = fewner::tensor::Array::uniform(5, 5, -2.0, 2.0, &mut rng);
        let start = fewner::tensor::Array::uniform(1, 5, -2.0, 2.0, &mut rng);
        let path = fewner::models::viterbi(emissions.data(), &trans, &start, &tags);
        let decoded: Vec<Tag> = path.iter().map(|&i| tags.tag(i)).collect();
        validate_tags(&decoded, &tags).unwrap();
    }
}
