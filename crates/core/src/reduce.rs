//! The canonical, transport-agnostic gradient reduction.
//!
//! Every execution topology — the serial reference
//! [`serial_meta_step`](crate::serial_meta_step), the trainer's
//! [`ParallelTrainer`](crate::ParallelTrainer), and the multi-process
//! sharded trainer ([`crate::shard`]) — must produce bitwise-identical
//! checkpoints. Floating-point addition is not associative, so "sum the
//! per-task gradients" is only well-defined once the *shape* of the
//! summation is fixed. A left-to-right fold (what a naive serial loop
//! does) cannot be distributed: the sum of per-shard left-folds is a
//! different bracketing than one global left-fold.
//!
//! [`GradReduce`] therefore fixes the reduction as a **binary tree** over
//! task indices: a node covering `len` tasks splits after its first
//! `ceil(len / 2)` tasks, recursively. The tree depends only on the batch
//! size, so
//!
//! * a serial run folds the whole tree on one thread,
//! * a threaded run computes leaves in any order and folds the same tree,
//! * a sharded run assigns each worker a *subtree* ([`GradReduce::
//!   shard_ranges`]), folds it locally into a [`GradPartial`], and the
//!   coordinator folds the remaining top of the tree ([`GradReduce::
//!   merge`]) —
//!
//! and all three perform the identical multiset of f32 additions in the
//! identical bracketing. Losses ride the same tree (as sums, divided by
//! the task count at the root), so reported losses match bitwise too.
//!
//! Elastic resume falls out of the same property: when a shard dies, its
//! subtree is reassigned to a surviving worker, which folds it with the
//! same code over the same leaves — the merged result cannot differ.

use std::ops::Range;

use fewner_tensor::ParamGrads;
use fewner_util::{Error, FromJson, Json, Result, ToJson};

use crate::learner::TaskOutcome;

/// One shard's fold of a reduce-tree node: the gradient and loss sums over
/// tasks `lo..hi` of a meta-batch.
///
/// On the shard wire a partial travels as a JSON header entry
/// `{lo, hi, loss_sum}` plus its gradients in the frame's binary body
/// ([`ParamGrads::encode_into`]); see [`crate::shard`]. The JSON impls
/// below are not used by the wire any more. They stay for tools that
/// replay the exchange as text, and f32 values survive them bit-exactly
/// too (see [`fewner_util::json`](mod@fewner_util::json)).
#[derive(Debug, Clone)]
pub struct GradPartial {
    /// First task index covered (inclusive).
    pub lo: usize,
    /// One past the last task index covered.
    pub hi: usize,
    /// Tree-folded sum of the covered tasks' losses.
    pub loss_sum: f32,
    /// Tree-folded sum of the covered tasks' gradients.
    pub grads: ParamGrads,
}

impl ToJson for GradPartial {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("lo".into(), Json::from(self.lo)),
            ("hi".into(), Json::from(self.hi)),
            ("loss_sum".into(), Json::from(self.loss_sum)),
            ("grads".into(), self.grads.to_json()),
        ])
    }
}

impl FromJson for GradPartial {
    fn from_json(json: &Json) -> Result<GradPartial> {
        Ok(GradPartial {
            lo: json.field("lo")?.as_usize()?,
            hi: json.field("hi")?.as_usize()?,
            loss_sum: json.field("loss_sum")?.as_f32()?,
            grads: ParamGrads::from_json(json.field("grads")?)?,
        })
    }
}

/// The fixed reduce plan for one meta-batch of `n_tasks` tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GradReduce {
    n_tasks: usize,
}

/// Length of the left child of a tree node covering `len` tasks.
fn left_len(len: usize) -> usize {
    len.div_ceil(2)
}

impl GradReduce {
    /// A reduce plan over task indices `0..n_tasks`.
    pub fn new(n_tasks: usize) -> Result<GradReduce> {
        if n_tasks == 0 {
            return Err(Error::InvalidConfig("empty meta batch".into()));
        }
        Ok(GradReduce { n_tasks })
    }

    /// The batch size this plan reduces.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// True when `lo..hi` is a node of the reduce tree (and can therefore
    /// be folded independently and merged back in).
    pub fn is_node(&self, lo: usize, hi: usize) -> bool {
        let (mut a, mut b) = (0, self.n_tasks);
        loop {
            if (a, b) == (lo, hi) {
                return true;
            }
            if b - a <= 1 {
                return false;
            }
            let mid = a + left_len(b - a);
            if hi <= mid {
                b = mid;
            } else if lo >= mid {
                a = mid;
            } else {
                return false;
            }
        }
    }

    /// Partitions the batch into `shards` contiguous ranges, every one a
    /// node of the reduce tree, by repeatedly splitting the widest range
    /// at its canonical point (ties broken toward the lowest index, so the
    /// partition is a pure function of `(n_tasks, shards)`).
    ///
    /// Fails when `shards` exceeds the batch size — a shard with no tasks
    /// would never touch the learner and could not stay in lockstep.
    pub fn shard_ranges(&self, shards: usize) -> Result<Vec<Range<usize>>> {
        if shards == 0 || shards > self.n_tasks {
            return Err(Error::InvalidConfig(format!(
                "cannot split a {}-task meta-batch across {shards} shards \
                 (need 1 ≤ shards ≤ batch size)",
                self.n_tasks
            )));
        }
        // One root node covering the whole batch (a single-element Vec of
        // Range is exactly what we mean here).
        #[allow(clippy::single_range_in_vec_init)]
        let mut ranges = vec![0..self.n_tasks];
        while ranges.len() < shards {
            let mut widest = 0;
            for (i, r) in ranges.iter().enumerate() {
                if r.len() > ranges[widest].len() {
                    widest = i;
                }
            }
            let Range { start, end } = ranges[widest];
            let mid = start + left_len(end - start);
            ranges[widest] = start..mid;
            ranges.insert(widest + 1, mid..end);
        }
        Ok(ranges)
    }

    /// Folds the outcomes of the tree node starting at `lo` (covering
    /// `lo..lo + outcomes.len()`) into a [`GradPartial`].
    pub fn partial(&self, lo: usize, outcomes: Vec<TaskOutcome>) -> Result<GradPartial> {
        let hi = lo + outcomes.len();
        if !self.is_node(lo, hi) {
            return Err(Error::InvalidConfig(format!(
                "{lo}..{hi} is not a node of the {}-task reduce tree",
                self.n_tasks
            )));
        }
        let mut slots: Vec<Option<TaskOutcome>> = outcomes.into_iter().map(Some).collect();
        let (loss_sum, grads) = fold(&mut slots);
        Ok(GradPartial {
            lo,
            hi,
            loss_sum,
            grads,
        })
    }

    /// Folds a full batch: tree-summed gradients plus the mean task loss.
    /// This *is* the canonical reduction — every other entry point
    /// decomposes into [`GradReduce::partial`] + [`GradReduce::merge`]
    /// folds of the same tree.
    pub fn reduce(&self, outcomes: Vec<TaskOutcome>) -> Result<(f32, ParamGrads)> {
        if outcomes.len() != self.n_tasks {
            return Err(Error::InvalidConfig(format!(
                "reduce plan covers {} tasks, got {} outcomes",
                self.n_tasks,
                outcomes.len()
            )));
        }
        let root = self.partial(0, outcomes)?;
        Ok((root.loss_sum / self.n_tasks as f32, root.grads))
    }

    /// Folds per-shard partials (any arrival order) up the remaining tree
    /// levels and returns the mean loss plus the gradient sum — bitwise
    /// identical to [`GradReduce::reduce`] over the same outcomes.
    ///
    /// The partials must tile `0..n_tasks` exactly, each covering a tree
    /// node; gaps, overlaps, or off-tree ranges are an error, never a
    /// silently wrong sum. Their gradients must share one layout (slot
    /// count and shapes); partials from differently built learners are an
    /// [`Error::ShapeMismatch`], not a panic.
    pub fn merge(&self, mut partials: Vec<GradPartial>) -> Result<(f32, ParamGrads)> {
        partials.sort_by_key(|p| p.lo);
        let mut expect = 0;
        for p in &partials {
            if p.lo != expect || p.hi <= p.lo {
                return Err(Error::InvalidConfig(format!(
                    "shard partials leave a gap or overlap at task {expect}"
                )));
            }
            if !self.is_node(p.lo, p.hi) {
                return Err(Error::InvalidConfig(format!(
                    "{}..{} is not a node of the {}-task reduce tree",
                    p.lo, p.hi, self.n_tasks
                )));
            }
            expect = p.hi;
        }
        if expect != self.n_tasks {
            return Err(Error::InvalidConfig(format!(
                "shard partials cover 0..{expect}, batch has {} tasks",
                self.n_tasks
            )));
        }
        ParamGrads::check_same_layout(partials.iter().map(|p| &p.grads), "GradReduce::merge")?;
        // Fold sibling pairs bottom-up. The additions performed are exactly
        // the internal tree nodes above the partial boundaries, each as
        // left + right, so the discovery order cannot change the bits.
        while partials.len() > 1 {
            let mut merged_any = false;
            let mut i = 0;
            while i + 1 < partials.len() {
                if self.is_node(partials[i].lo, partials[i + 1].hi) {
                    let right = partials.remove(i + 1);
                    let left = &mut partials[i];
                    left.loss_sum += right.loss_sum;
                    left.grads.add_assign(&right.grads);
                    left.hi = right.hi;
                    merged_any = true;
                } else {
                    i += 1;
                }
            }
            debug_assert!(merged_any, "a node tiling always admits a sibling merge");
            if !merged_any {
                return Err(Error::InvalidConfig(
                    "shard partials do not tile the reduce tree".into(),
                ));
            }
        }
        let root = partials.pop().expect("validated non-empty cover");
        Ok((root.loss_sum / self.n_tasks as f32, root.grads))
    }
}

/// Tree-folds `slots` (all `Some`, length ≥ 1) into `(loss_sum, grads)`.
fn fold(slots: &mut [Option<TaskOutcome>]) -> (f32, ParamGrads) {
    if slots.len() == 1 {
        let o = slots[0].take().expect("each slot folded once");
        return (o.loss, o.grads);
    }
    let (l, r) = slots.split_at_mut(left_len(slots.len()));
    let (l_loss, mut l_grads) = fold(l);
    let (r_loss, r_grads) = fold(r);
    l_grads.add_assign(&r_grads);
    (l_loss + r_loss, l_grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fewner_tensor::{Array, ParamStore};

    fn outcome(store: &ParamStore, seed: u64) -> TaskOutcome {
        let mut rng = fewner_util::Rng::new(seed);
        let mut grads = ParamGrads::zeros_like(store);
        let (rows, cols) = store.value_at(0).shape();
        let g = Array::from_vec(rows, cols, (0..rows * cols).map(|_| rng.normal()).collect());
        grads.accumulate(0, &g);
        TaskOutcome {
            loss: rng.normal(),
            grads,
        }
    }

    fn batch(store: &ParamStore, n: usize) -> Vec<TaskOutcome> {
        (0..n).map(|i| outcome(store, 1000 + i as u64)).collect()
    }

    fn bits(grads: &ParamGrads) -> Vec<u32> {
        grads
            .get_at(0)
            .unwrap()
            .data()
            .iter()
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn shard_ranges_tile_the_tree() {
        for n in 1..=12usize {
            let plan = GradReduce::new(n).unwrap();
            for shards in 1..=n {
                let ranges = plan.shard_ranges(shards).unwrap();
                assert_eq!(ranges.len(), shards, "n={n} shards={shards}");
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous cover");
                    assert!(plan.is_node(r.start, r.end), "{r:?} not a node, n={n}");
                    expect = r.end;
                }
                assert_eq!(expect, n);
            }
            assert!(plan.shard_ranges(0).is_err());
            assert!(plan.shard_ranges(n + 1).is_err());
        }
        // Pinned examples: the partition is part of the wire contract.
        let plan = GradReduce::new(6).unwrap();
        assert_eq!(plan.shard_ranges(2).unwrap(), vec![0..3, 3..6]);
        assert_eq!(plan.shard_ranges(4).unwrap(), vec![0..2, 2..3, 3..5, 5..6]);
    }

    #[test]
    fn sharded_merge_is_bitwise_identical_to_full_reduce() {
        let mut store = ParamStore::new();
        store.add("w", Array::zeros(1, 3));
        for n in [1usize, 2, 3, 4, 6, 7, 8, 11] {
            let plan = GradReduce::new(n).unwrap();
            let (loss_ref, grads_ref) = plan.reduce(batch(&store, n)).unwrap();
            for shards in 1..=n.min(5) {
                let outcomes = batch(&store, n);
                let mut slots: Vec<Option<TaskOutcome>> = outcomes.into_iter().map(Some).collect();
                let mut partials: Vec<GradPartial> = plan
                    .shard_ranges(shards)
                    .unwrap()
                    .into_iter()
                    .map(|r| {
                        let outs: Vec<TaskOutcome> = slots[r.clone()]
                            .iter_mut()
                            .map(|s| s.take().unwrap())
                            .collect();
                        plan.partial(r.start, outs).unwrap()
                    })
                    .collect();
                // Arrival order must not matter.
                partials.reverse();
                let (loss, grads) = plan.merge(partials).unwrap();
                assert_eq!(loss.to_bits(), loss_ref.to_bits(), "n={n} shards={shards}");
                assert_eq!(bits(&grads), bits(&grads_ref), "n={n} shards={shards}");
            }
        }
    }

    #[test]
    fn partial_survives_json_bit_exactly() {
        let mut store = ParamStore::new();
        store.add("w", Array::zeros(1, 3));
        let plan = GradReduce::new(4).unwrap();
        let p = plan.partial(2, batch(&store, 2)).unwrap();
        let text = p.to_json().to_string();
        let mut back = GradPartial::from_json(&Json::parse(&text).unwrap()).unwrap();
        back.grads.retag(p.grads.store_id());
        assert_eq!((back.lo, back.hi), (p.lo, p.hi));
        assert_eq!(back.loss_sum.to_bits(), p.loss_sum.to_bits());
        assert_eq!(bits(&back.grads), bits(&p.grads));
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_off_tree_ranges() {
        let mut store = ParamStore::new();
        store.add("w", Array::zeros(1, 3));
        let plan = GradReduce::new(4).unwrap();
        let part = |lo: usize, len: usize| plan.partial(lo, batch(&store, len)).unwrap();

        // Gap: 0..2 plus 3..4 misses task 2.
        let err = plan.merge(vec![part(0, 2), part(3, 1)]);
        assert!(err.is_err());
        // Off-tree: 1..3 straddles the root split of a 4-task batch.
        assert!(plan.partial(1, batch(&store, 2)).is_err());
        // Incomplete cover.
        assert!(plan.merge(vec![part(0, 2)]).is_err());
        // Overlap.
        let err = plan.merge(vec![part(0, 2), part(0, 2), part(2, 2)]);
        assert!(err.is_err());
    }

    #[test]
    fn merge_rejects_partials_of_different_layouts() {
        // Workers built with different θ layouts send gradients that
        // cannot be summed: a different shape in one slot, or a different
        // slot count. Both are an error, never the assert inside `axpy`.
        let plan = GradReduce::new(2).unwrap();
        let mut narrow = ParamStore::new();
        narrow.add("w", Array::zeros(1, 3));
        let mut wide = ParamStore::new();
        wide.add("w", Array::zeros(1, 4));
        let mut longer = ParamStore::new();
        longer.add("w", Array::zeros(1, 3));
        longer.add("b", Array::zeros(1, 1));
        for other in [&wide, &longer] {
            let left = plan.partial(0, batch(&narrow, 1)).unwrap();
            let mut right = plan.partial(1, batch(other, 1)).unwrap();
            // Decoded wire gradients all carry the same (zero) store id.
            right.grads.retag(left.grads.store_id());
            let err = plan.merge(vec![left, right]).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::ShapeMismatch {
                        op: "GradReduce::merge",
                        ..
                    }
                ),
                "{err}"
            );
        }
    }
}
