//! Window sampling over a streaming corpus.
//!
//! [`EpisodeSampler`] shuffles the full
//! index range of a materialized split — impossible when the corpus streams
//! in chunks. [`StreamSampler`] keeps a *bounded resident window* of routed
//! sentences over a [`CorpusSource`] and runs the paper's greedy-including
//! procedure inside the window, sliding forward as tasks are drawn.
//!
//! # Determinism and resume
//!
//! Window advancement is **RNG-free and draw-driven**: every
//! [`StreamSampler::sample_traced`] call consumes a fixed number of raw
//! sentences (the initial window fill, then one stride per call, plus one
//! stride per non-viable-window retry — a function of generated content
//! only). The whole sampler state is therefore captured by two values:
//!
//! * the monotonic raw-sentence [`StreamCursor`] (chunk index +
//!   intra-chunk position), and
//! * the caller's sampling [`Rng`] (shuffles within the window).
//!
//! [`StreamSampler::cursor`] / [`StreamSampler::seek`] round-trip that
//! cursor through `TrainingSnapshot`, so a killed-and-resumed run replays
//! the same windows and draws the same tasks bitwise, and sharded replicas
//! advancing in lockstep see identical windows at every iteration.

use std::collections::VecDeque;

use fewner_corpus::{CorpusChunk, CorpusSource, SplitView, StreamCursor, TypePartition};
use fewner_obs::Tracer;
use fewner_util::{Error, Result, Rng};

use crate::sampler::EpisodeSampler;
use crate::task::Task;

/// Samples N-way K-shot tasks from a bounded window over a sentence stream.
#[derive(Debug)]
pub struct StreamSampler<S: CorpusSource> {
    source: S,
    partition: TypePartition,
    n_ways: usize,
    k_shots: usize,
    query_size: usize,
    /// Raw sentences spanned by the resident window.
    window: usize,
    /// Raw sentences consumed per task draw once the window is full.
    stride: usize,
    /// Raw sentences consumed since the start of the stream (monotonic;
    /// wraps over the corpus modulo its length for multi-epoch runs).
    consumed: u64,
    /// The resident window: the routed sentences whose raw index is in
    /// `[consumed - window, consumed)`, in stream order, as the view the
    /// greedy sampler draws from. Sentences move in at ingest and leave
    /// from the front at eviction, so a draw borrows the window as it is.
    resident: SplitView,
    /// The raw index of each resident sentence, for eviction.
    raws: VecDeque<u64>,
    /// Most recently generated chunk (sentences are consumed in order, so
    /// one resident chunk suffices).
    chunk: Option<CorpusChunk>,
    high_water: usize,
}

impl<S: CorpusSource> StreamSampler<S> {
    /// A window sampler drawing `n_ways`-way `k_shots`-shot tasks for
    /// `partition` from `source`.
    ///
    /// `window` is the raw-sentence span of the resident window (the memory
    /// bound); `stride` is how many raw sentences each draw slides it.
    pub fn new(
        source: S,
        partition: TypePartition,
        n_ways: usize,
        k_shots: usize,
        query_size: usize,
        window: usize,
        stride: usize,
    ) -> Result<StreamSampler<S>> {
        if n_ways == 0 || k_shots == 0 || query_size == 0 {
            return Err(Error::InvalidConfig(
                "n_ways, k_shots and query_size must be positive".into(),
            ));
        }
        if window == 0 || stride == 0 {
            return Err(Error::InvalidConfig(
                "stream window and stride must be positive".into(),
            ));
        }
        if source.total_sentences() == 0 {
            return Err(Error::InvalidConfig("empty corpus stream".into()));
        }
        if partition.types.len() < n_ways {
            return Err(Error::InvalidConfig(format!(
                "{}-way tasks need {} types; partition has {}",
                n_ways,
                n_ways,
                partition.types.len()
            )));
        }
        Ok(StreamSampler {
            source,
            n_ways,
            k_shots,
            query_size,
            window,
            stride,
            consumed: 0,
            resident: SplitView {
                types: partition.types.clone(),
                sentences: Vec::new(),
            },
            raws: VecDeque::new(),
            chunk: None,
            high_water: 0,
            partition,
        })
    }

    /// The resumable stream position. Persist this next to the sampling RNG
    /// and hand both back to [`seek`](Self::seek) + the same RNG state to
    /// continue a run bitwise-identically.
    pub fn cursor(&self) -> StreamCursor {
        StreamCursor::at(self.consumed, self.source.chunk_size())
    }

    /// Restores the sampler to `cursor`: regenerates the bounded raw range
    /// the window spanned at that position and rebuilds the resident window,
    /// touching only `window / chunk_size + 1` chunks.
    pub fn seek(&mut self, cursor: StreamCursor, tracer: &Tracer) -> Result<()> {
        let consumed = cursor.consumed(self.source.chunk_size());
        self.resident.sentences.clear();
        self.raws.clear();
        self.chunk = None;
        for raw in consumed.saturating_sub(self.window as u64)..consumed {
            self.ingest(raw, tracer)?;
        }
        self.consumed = consumed;
        self.record_residency(tracer);
        Ok(())
    }

    /// Largest number of routed sentences ever resident at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The underlying source (e.g. to read generation statistics).
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Generates and routes raw sentence `raw` into the window.
    fn ingest(&mut self, raw: u64, tracer: &Tracer) -> Result<()> {
        let total = self.source.total_sentences() as u64;
        let idx = (raw % total) as usize;
        let (ci, pos) = (
            idx / self.source.chunk_size(),
            idx % self.source.chunk_size(),
        );
        if self.chunk.as_ref().map(|c| c.index) != Some(ci) {
            self.chunk = Some(self.source.read_chunk(ci)?);
            tracer.incr("corpus/chunks_generated", 1);
        }
        let s = &self.chunk.as_ref().expect("chunk cached above").sentences[pos];
        if let Some(routed) = self.partition.route(s) {
            self.resident.sentences.push(routed);
            self.raws.push_back(raw);
        }
        Ok(())
    }

    /// Consumes `n` raw sentences and evicts entries that fell out of the
    /// window. RNG-free by construction — this is what keeps sharded
    /// replicas and resumed runs in lockstep.
    fn advance(&mut self, n: u64, tracer: &Tracer) -> Result<()> {
        for _ in 0..n {
            self.ingest(self.consumed, tracer)?;
            self.consumed += 1;
        }
        let min = self.consumed.saturating_sub(self.window as u64);
        let evicted = self.raws.iter().take_while(|&&raw| raw < min).count();
        self.raws.drain(..evicted);
        self.resident.sentences.drain(..evicted);
        self.record_residency(tracer);
        Ok(())
    }

    fn record_residency(&mut self, tracer: &Tracer) {
        let resident = self.resident.len();
        self.high_water = self.high_water.max(resident);
        tracer.observe("corpus/window_resident", resident as f64);
    }

    /// Draws one task, sliding the window. Equivalent to
    /// [`sample_traced`](Self::sample_traced) with tracing disabled.
    pub fn sample(&mut self, rng: &mut Rng) -> Result<Task> {
        self.sample_traced(rng, &Tracer::disabled())
    }

    /// Draws one task from the resident window, advancing the stream by one
    /// stride first (the first draw fills the whole window). Windows that
    /// cannot support an N-way K-shot task slide forward and retry a
    /// bounded number of times.
    pub fn sample_traced(&mut self, rng: &mut Rng, tracer: &Tracer) -> Result<Task> {
        const WINDOW_RETRIES: usize = 8;
        let fill = if self.consumed == 0 {
            self.window as u64
        } else {
            self.stride as u64
        };
        self.advance(fill, tracer)?;
        let mut last_err = None;
        for _ in 0..WINDOW_RETRIES {
            match EpisodeSampler::new(&self.resident, self.n_ways, self.k_shots, self.query_size)
                .and_then(|s| s.sample_traced(rng, tracer))
            {
                Ok(task) => return Ok(task),
                Err(e) => last_err = Some(e),
            }
            // Slide to fresher sentences; deterministic (no RNG involved).
            self.advance(self.stride as u64, tracer)?;
        }
        Err(last_err.expect("at least one attempt ran"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_corpus::{partition_type_ids, DatasetProfile};
    use fewner_text::TypeId;

    fn sampler(window: usize, stride: usize) -> StreamSampler<fewner_corpus::StreamingCorpus> {
        let p = DatasetProfile::genia();
        let source = p.stream(0.05, None, 64).unwrap();
        let ids: Vec<TypeId> = source.types().iter().map(|t| t.id).collect();
        let (train, _, _) = partition_type_ids(ids, (18, 8, 10), 42).unwrap();
        StreamSampler::new(source, train, 5, 1, 10, window, stride).unwrap()
    }

    #[test]
    fn stream_tasks_satisfy_episode_invariants() {
        let mut s = sampler(400, 40);
        let mut rng = Rng::new(7);
        for _ in 0..6 {
            let task = s.sample(&mut rng).unwrap();
            task.validate().unwrap();
            assert_eq!(task.n_ways, 5);
        }
        assert!(s.high_water() > 0);
        assert!(
            s.high_water() <= 400,
            "residency {} exceeds window",
            s.high_water()
        );
    }

    #[test]
    fn snapshot_resume_mid_stream_is_bitwise_identical() {
        let mut straight = sampler(300, 30);
        let mut rng = Rng::new(13);
        let mut tasks = Vec::new();
        for _ in 0..4 {
            tasks.push(straight.sample(&mut rng).unwrap());
        }

        // Replay the first two draws, snapshot, resume in a fresh sampler.
        let mut first = sampler(300, 30);
        let mut rng2 = Rng::new(13);
        for _ in 0..2 {
            first.sample(&mut rng2).unwrap();
        }
        let cursor = first.cursor();
        let rng_state = rng2.state();
        drop(first);

        let mut resumed = sampler(300, 30);
        resumed.seek(cursor, &Tracer::disabled()).unwrap();
        let mut rng3 = Rng::from_state(rng_state);
        for expect in &tasks[2..] {
            let task = resumed.sample(&mut rng3).unwrap();
            assert_eq!(task.slot_types, expect.slot_types);
            assert_eq!(task.support, expect.support);
            assert_eq!(task.query, expect.query);
        }
    }

    #[test]
    fn chunk_size_does_not_change_drawn_tasks() {
        let p = DatasetProfile::genia();
        let ids: Vec<TypeId> = p.inventory().iter().map(|t| t.id).collect();
        let mut drawn: Option<Vec<Task>> = None;
        for chunk in [16usize, 64, 1024] {
            let source = p.stream(0.05, None, chunk).unwrap();
            let (train, _, _) = partition_type_ids(ids.clone(), (18, 8, 10), 42).unwrap();
            let mut s = StreamSampler::new(source, train, 5, 1, 10, 300, 30).unwrap();
            let mut rng = Rng::new(21);
            let tasks: Vec<Task> = (0..3).map(|_| s.sample(&mut rng).unwrap()).collect();
            match &drawn {
                None => drawn = Some(tasks),
                Some(prev) => assert_eq!(prev, &tasks, "chunk size {chunk} diverged"),
            }
        }
    }

    #[test]
    fn stream_wraps_for_multi_epoch_runs() {
        let p = DatasetProfile::genia();
        // Small corpus, large appetite: draws must wrap past the end.
        let source = p.stream(0.02, None, 32).unwrap();
        let total = source.total_sentences();
        let ids: Vec<TypeId> = source.types().iter().map(|t| t.id).collect();
        let (train, _, _) = partition_type_ids(ids, (18, 8, 10), 42).unwrap();
        let mut s = StreamSampler::new(source, train, 5, 1, 6, 200, 50).unwrap();
        let mut rng = Rng::new(3);
        let wanted = 2 + total / 50;
        for _ in 0..wanted {
            s.sample(&mut rng).unwrap();
        }
        assert!(
            s.cursor().consumed(32) > total as u64,
            "stream never wrapped"
        );
    }

    /// The drawn tasks are pinned across changes: a CRC of a seeded run of
    /// 20 draws whose small window makes two of them retry (each retry
    /// slides one more stride, so the stream ends 2 strides past the
    /// retry-free 12 + 19 × 4 raw sentences).
    #[test]
    fn seeded_draws_with_window_retries_match_the_pinned_crc() {
        let p = DatasetProfile::genia();
        let source = p.stream(0.05, None, 64).unwrap();
        let ids: Vec<TypeId> = source.types().iter().map(|t| t.id).collect();
        let (train, _, _) = partition_type_ids(ids, (18, 8, 10), 42).unwrap();
        let mut s = StreamSampler::new(source, train, 8, 1, 10, 12, 4).unwrap();
        let mut rng = Rng::new(29);
        let mut bytes = Vec::new();
        for _ in 0..20 {
            let task = s.sample(&mut rng).unwrap();
            bytes.extend(format!("{task:?}").into_bytes());
        }
        assert_eq!(s.cursor().consumed(64), 12 + 19 * 4 + 2 * 4, "two retries");
        assert_eq!(fewner_util::crc32(&bytes), 0x87c6_c848);
    }

    #[test]
    fn invalid_stream_configs_are_rejected() {
        let p = DatasetProfile::genia();
        let ids: Vec<TypeId> = p.inventory().iter().map(|t| t.id).collect();
        let (train, _, _) = partition_type_ids(ids, (18, 8, 10), 42).unwrap();
        let source = p.stream(0.02, None, 32).unwrap();
        assert!(
            StreamSampler::new(source.clone(), train.clone(), 5, 1, 10, 0, 10).is_err(),
            "zero window"
        );
        assert!(
            StreamSampler::new(source.clone(), train.clone(), 5, 1, 10, 100, 0).is_err(),
            "zero stride"
        );
        assert!(
            StreamSampler::new(source, TypePartition::new(vec![]), 5, 1, 10, 100, 10).is_err(),
            "partition smaller than ways"
        );
    }
}
