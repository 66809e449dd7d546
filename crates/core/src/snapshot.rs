//! Full training-state snapshots and the rolling snapshot directory.
//!
//! A [`crate::Checkpoint`] holds θ_Meta — enough to *use* a trained model,
//! but not enough to *continue* training it: bitwise-identical resumption
//! also needs the optimizer moments, the task-sampler RNG position, the
//! learner's internal RNG, the iteration counter and the LR-decay schedule
//! position. [`TrainingSnapshot`] captures all of it, and the trainer
//! writes snapshots as a *rolling pair* (`snap-<iteration>.fsnap`, newest
//! two kept): even if a crash lands mid-write and tears the newest file,
//! the verified predecessor is still on disk, so a run is never
//! unresumable.
//!
//! Every snapshot file goes through [`fewner_util::durable`]
//! (versioned header, CRC-32, write-temp/fsync/rename), and
//! [`latest_valid`] walks the directory newest-first, skipping any file
//! that fails verification.

use std::path::{Path, PathBuf};

use fewner_corpus::StreamCursor;
use fewner_util::{durable, Error, FromJson, Json, Result, Rng, ToJson};

/// Snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// File extension of training snapshots.
pub const SNAPSHOT_EXT: &str = "fsnap";

/// How many snapshots [`save_rolling`] keeps on disk.
pub const SNAPSHOTS_KEPT: usize = 2;

/// Identity of a training run; a snapshot refuses to resume under a
/// different schedule (except for the total iteration count, which may
/// legitimately be extended).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFingerprint {
    /// [`crate::EpisodicLearner::name`] of the learner being trained.
    pub learner: String,
    /// N.
    pub n_ways: usize,
    /// K.
    pub k_shots: usize,
    /// Query sentences per training task.
    pub query_size: usize,
    /// Task-sampling seed.
    pub seed: u64,
    /// Meta-batch size.
    pub meta_batch: usize,
    /// Shard topology the run was started with (1 = unsharded). Although
    /// the reduce tree makes any shard count bitwise-equivalent, a resume
    /// under a *different* layout would silently re-home task ranges and
    /// snapshot files mid-run, so it is rejected like any other schedule
    /// change.
    pub shards: usize,
    /// Streaming-corpus geometry of the run (`None` for materialized-corpus
    /// runs). The stream cursor only addresses the same sentence under the
    /// same chunking, so a resume with different geometry is rejected like
    /// any other schedule change.
    pub stream: Option<StreamFingerprint>,
}

/// The streaming-corpus geometry a run was started with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFingerprint {
    /// Total sentences in one pass of the stream.
    pub sentences: usize,
    /// Generator chunk size.
    pub chunk_size: usize,
    /// Resident-window span in raw sentences.
    pub window: usize,
    /// Raw sentences consumed per task draw.
    pub stride: usize,
}

impl ToJson for StreamFingerprint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sentences".into(), Json::from(self.sentences)),
            ("chunk_size".into(), Json::from(self.chunk_size)),
            ("window".into(), Json::from(self.window)),
            ("stride".into(), Json::from(self.stride)),
        ])
    }
}

impl FromJson for StreamFingerprint {
    fn from_json(json: &Json) -> Result<StreamFingerprint> {
        Ok(StreamFingerprint {
            sentences: json.field("sentences")?.as_usize()?,
            chunk_size: json.field("chunk_size")?.as_usize()?,
            window: json.field("window")?.as_usize()?,
            stride: json.field("stride")?.as_usize()?,
        })
    }
}

impl ToJson for RunFingerprint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("learner".into(), Json::from(self.learner.as_str())),
            ("n_ways".into(), Json::from(self.n_ways)),
            ("k_shots".into(), Json::from(self.k_shots)),
            ("query_size".into(), Json::from(self.query_size)),
            // Hex: seeds are full u64s, beyond JSON's exact-integer range.
            ("seed".into(), Json::Str(format!("{:016x}", self.seed))),
            ("meta_batch".into(), Json::from(self.meta_batch)),
            ("shards".into(), Json::from(self.shards)),
            (
                "stream".into(),
                match &self.stream {
                    Some(s) => s.to_json(),
                    None => Json::Null,
                },
            ),
        ])
    }
}

impl FromJson for RunFingerprint {
    fn from_json(json: &Json) -> Result<RunFingerprint> {
        Ok(RunFingerprint {
            learner: json.field("learner")?.as_str()?.to_string(),
            n_ways: json.field("n_ways")?.as_usize()?,
            k_shots: json.field("k_shots")?.as_usize()?,
            query_size: json.field("query_size")?.as_usize()?,
            seed: u64::from_str_radix(json.field("seed")?.as_str()?, 16)
                .map_err(|_| Error::Serde("bad fingerprint seed".into()))?,
            meta_batch: json.field("meta_batch")?.as_usize()?,
            shards: json.field("shards")?.as_usize()?,
            stream: match json.field("stream")? {
                Json::Null => None,
                v => Some(StreamFingerprint::from_json(v)?),
            },
        })
    }
}

/// The complete state of a meta-training run after some number of
/// completed iterations.
#[derive(Debug, Clone)]
pub struct TrainingSnapshot {
    /// Format version.
    pub version: u32,
    /// Completed meta-iterations (the loop resumes at this index).
    pub iteration: usize,
    /// Task-sampler stream position after iteration `iteration`.
    pub sampler_rng: Rng,
    /// Mean meta-batch loss per completed (non-skipped) iteration so far.
    pub losses: Vec<f32>,
    /// Tasks consumed so far.
    pub tasks_seen: usize,
    /// Iterations skipped for non-finite losses/gradients so far.
    pub skipped: usize,
    /// Consecutive skips at snapshot time (divergence-guard state).
    pub consecutive_skips: usize,
    /// Next `tasks_seen` threshold at which the LR decays.
    pub next_decay: usize,
    /// Wall-clock seconds accumulated before the snapshot (informational;
    /// the only non-deterministic field, and not part of the model).
    pub wall_secs: f64,
    /// Which shard wrote this snapshot (`None` for unsharded runs). Purely
    /// a file-naming concern: θ is replicated, so any shard's snapshot can
    /// seed any worker's resume.
    pub shard: Option<usize>,
    /// Stream position of the window sampler after iteration `iteration`
    /// (`None` for materialized-corpus runs). Together with `sampler_rng`
    /// this makes a streaming resume bitwise-identical: the cursor replays
    /// the window, the RNG replays the draws.
    pub stream_cursor: Option<StreamCursor>,
    /// The run identity this snapshot belongs to.
    pub fingerprint: RunFingerprint,
    /// The learner's exported state
    /// ([`crate::EpisodicLearner::export_state`]): parameters, optimizer
    /// moments, internal RNG.
    pub learner: Json,
}

impl ToJson for TrainingSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("version".into(), Json::from(self.version as u64)),
            ("iteration".into(), Json::from(self.iteration)),
            ("sampler_rng".into(), self.sampler_rng.to_json()),
            (
                "losses".into(),
                Json::Arr(self.losses.iter().map(|&l| Json::from(l)).collect()),
            ),
            ("tasks_seen".into(), Json::from(self.tasks_seen)),
            ("skipped".into(), Json::from(self.skipped)),
            (
                "consecutive_skips".into(),
                Json::from(self.consecutive_skips),
            ),
            ("next_decay".into(), Json::from(self.next_decay)),
            ("wall_secs".into(), Json::from(self.wall_secs)),
            (
                "shard".into(),
                match self.shard {
                    Some(s) => Json::from(s),
                    None => Json::Null,
                },
            ),
            (
                "stream_cursor".into(),
                match &self.stream_cursor {
                    Some(c) => c.to_json(),
                    None => Json::Null,
                },
            ),
            ("fingerprint".into(), self.fingerprint.to_json()),
            ("learner".into(), self.learner.clone()),
        ])
    }
}

impl FromJson for TrainingSnapshot {
    fn from_json(json: &Json) -> Result<TrainingSnapshot> {
        Ok(TrainingSnapshot {
            version: json.field("version")?.as_u32()?,
            iteration: json.field("iteration")?.as_usize()?,
            sampler_rng: Rng::from_json(json.field("sampler_rng")?)?,
            losses: json
                .field("losses")?
                .as_arr()?
                .iter()
                .map(Json::as_f32)
                .collect::<Result<Vec<_>>>()?,
            tasks_seen: json.field("tasks_seen")?.as_usize()?,
            skipped: json.field("skipped")?.as_usize()?,
            consecutive_skips: json.field("consecutive_skips")?.as_usize()?,
            next_decay: json.field("next_decay")?.as_usize()?,
            wall_secs: json.field("wall_secs")?.as_f64()?,
            shard: match json.field("shard")? {
                Json::Null => None,
                v => Some(v.as_usize()?),
            },
            stream_cursor: match json.field("stream_cursor")? {
                Json::Null => None,
                v => Some(StreamCursor::from_json(v)?),
            },
            fingerprint: RunFingerprint::from_json(json.field("fingerprint")?)?,
            learner: json.field("learner")?.clone(),
        })
    }
}

impl TrainingSnapshot {
    /// Loads and verifies one snapshot file (header, CRC, format version).
    pub fn load(path: impl AsRef<Path>) -> Result<TrainingSnapshot> {
        let path = path.as_ref();
        let json = durable::read_verified_string(path)?;
        let snap = TrainingSnapshot::from_json(&Json::parse(&json)?)?;
        if snap.version != SNAPSHOT_VERSION {
            return Err(Error::Serde(format!(
                "unsupported snapshot version {} (expected {SNAPSHOT_VERSION})",
                snap.version
            )));
        }
        Ok(snap)
    }

    /// Writes this snapshot durably to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        durable::write_atomic(path, self.to_json().to_string().as_bytes())
    }
}

/// Which snapshot files of a shared checkpoint directory an operation
/// addresses. Sharded runs keep one rolling pair *per shard* under one
/// directory; pruning must only touch the writer's own pair, while resume
/// may pick any shard's snapshot (θ is replicated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardScope {
    /// Files written by an unsharded run (`snap-<iteration>`).
    Unsharded,
    /// Files written by one shard (`snap-s<shard>-<iteration>`).
    Shard(usize),
    /// Every snapshot file in the directory.
    Any,
}

/// One snapshot file of a checkpoint directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotEntry {
    /// The shard that wrote it (`None` for unsharded runs).
    pub shard: Option<usize>,
    /// Completed-iteration count in the file name.
    pub iteration: usize,
    /// Full path.
    pub path: PathBuf,
}

/// The snapshot file name for a given completed-iteration count. `shard`
/// selects between the unsharded (`None`) and per-shard (`Some`) naming.
pub fn snapshot_path(dir: impl AsRef<Path>, shard: Option<usize>, iteration: usize) -> PathBuf {
    let name = match shard {
        None => format!("snap-{iteration:08}.{SNAPSHOT_EXT}"),
        Some(s) => format!("snap-s{s:02}-{iteration:08}.{SNAPSHOT_EXT}"),
    };
    dir.as_ref().join(name)
}

/// Snapshot files in `dir` within `scope`, sorted by `(iteration, shard)`
/// ascending.
pub fn list_snapshots(dir: impl AsRef<Path>, scope: ShardScope) -> Result<Vec<SnapshotEntry>> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| Error::Io {
        path: dir.display().to_string(),
        detail: e.to_string(),
    })?;
    let mut found = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(&format!(".{SNAPSHOT_EXT}")))
        else {
            continue;
        };
        let (shard, iter_part) = match stem.strip_prefix('s') {
            Some(rest) => match rest.split_once('-') {
                Some((s, iter)) => match s.parse::<usize>() {
                    Ok(s) => (Some(s), iter),
                    Err(_) => continue,
                },
                None => continue,
            },
            None => (None, stem),
        };
        let Ok(iteration) = iter_part.parse::<usize>() else {
            continue;
        };
        let in_scope = match scope {
            ShardScope::Any => true,
            ShardScope::Unsharded => shard.is_none(),
            ShardScope::Shard(s) => shard == Some(s),
        };
        if in_scope {
            found.push(SnapshotEntry {
                shard,
                iteration,
                path,
            });
        }
    }
    found.sort_by_key(|e| (e.iteration, e.shard));
    Ok(found)
}

/// Writes `snap` into `dir` (named by `snap.shard` + `snap.iteration`) and
/// prunes old snapshots *of the same shard*, keeping its newest
/// [`SNAPSHOTS_KEPT`]. The write is atomic and the prune runs only after
/// it succeeds, so a crash at any point leaves at least one valid,
/// most-recent-possible snapshot behind — per shard, since each shard of a
/// run rolls its own pair under the shared directory.
pub fn save_rolling(dir: impl AsRef<Path>, snap: &TrainingSnapshot) -> Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(|e| Error::Io {
        path: dir.display().to_string(),
        detail: e.to_string(),
    })?;
    let path = snapshot_path(dir, snap.shard, snap.iteration);
    snap.save(&path)?;
    let scope = match snap.shard {
        Some(s) => ShardScope::Shard(s),
        None => ShardScope::Unsharded,
    };
    let own = list_snapshots(dir, scope)?;
    if own.len() > SNAPSHOTS_KEPT {
        for old in &own[..own.len() - SNAPSHOTS_KEPT] {
            // Best effort: a stale extra snapshot is harmless.
            std::fs::remove_file(&old.path).ok();
        }
    }
    Ok(path)
}

/// The newest snapshot in `dir` that passes verification — and, when
/// `expected` is given, whose [`RunFingerprint`] matches it — walking
/// newest-first past any truncated, corrupted, or foreign-run files (a
/// stale snapshot from another schedule must not shadow a valid older one
/// of *this* run). All shards' files are considered: θ is replicated, so
/// any shard's snapshot resumes any worker.
///
/// `Ok(None)` when the directory holds no snapshot files at all. When
/// snapshots exist but none qualifies: [`Error::InvalidConfig`] if at
/// least one loaded cleanly (they are all foreign runs), otherwise the
/// last load error.
pub fn latest_valid(
    dir: impl AsRef<Path>,
    expected: Option<&RunFingerprint>,
) -> Result<Option<(TrainingSnapshot, PathBuf)>> {
    let mut all = list_snapshots(dir, ShardScope::Any)?;
    if all.is_empty() {
        return Ok(None);
    }
    let mut last_err = None;
    let mut mismatched = 0usize;
    while let Some(entry) = all.pop() {
        match TrainingSnapshot::load(&entry.path) {
            Ok(snap) => match expected {
                Some(fp) if snap.fingerprint != *fp => mismatched += 1,
                _ => return Ok(Some((snap, entry.path))),
            },
            Err(e) => last_err = Some(e),
        }
    }
    if mismatched > 0 {
        return Err(Error::InvalidConfig(format!(
            "checkpoint dir holds {mismatched} snapshot(s) from a different run \
             configuration (learner/schedule/seed/shard layout must match to resume)"
        )));
    }
    Err(last_err.expect("non-empty snapshot list"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(iteration: usize) -> TrainingSnapshot {
        TrainingSnapshot {
            version: SNAPSHOT_VERSION,
            iteration,
            sampler_rng: Rng::new(7),
            losses: vec![1.5, 0.75, 0.5],
            tasks_seen: iteration * 4,
            skipped: 1,
            consecutive_skips: 0,
            next_decay: 5000,
            wall_secs: 12.25,
            shard: None,
            stream_cursor: None,
            fingerprint: RunFingerprint {
                learner: "FewNER".into(),
                n_ways: 5,
                k_shots: 1,
                query_size: 6,
                seed: 0xDEAD_BEEF_DEAD_BEEF,
                meta_batch: 8,
                shards: 1,
                stream: None,
            },
            learner: Json::Obj(vec![("theta".into(), Json::Arr(vec![]))]),
        }
    }

    fn sharded_sample(shard: usize, iteration: usize) -> TrainingSnapshot {
        let mut snap = sample(iteration);
        snap.shard = Some(shard);
        snap.fingerprint.shards = 2;
        snap
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fewner-snap-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn json_round_trip_preserves_all_fields() {
        let snap = sample(12);
        let json = snap.to_json().to_string();
        let back = TrainingSnapshot::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.iteration, 12);
        assert_eq!(back.sampler_rng, snap.sampler_rng);
        assert_eq!(back.losses, snap.losses);
        assert_eq!(back.fingerprint, snap.fingerprint);
        assert_eq!(back.next_decay, 5000);
        assert_eq!(back.wall_secs, 12.25);
    }

    #[test]
    fn rolling_save_keeps_the_newest_two() {
        let dir = tmp_dir("rolling");
        for it in [3, 6, 9, 12] {
            save_rolling(&dir, &sample(it)).unwrap();
        }
        let kept: Vec<usize> = list_snapshots(&dir, ShardScope::Unsharded)
            .unwrap()
            .into_iter()
            .map(|e| e.iteration)
            .collect();
        assert_eq!(kept, vec![9, 12]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn each_shard_rolls_its_own_pair_under_one_dir() {
        let dir = tmp_dir("sharded-rolling");
        for it in [3, 6, 9] {
            save_rolling(&dir, &sharded_sample(0, it)).unwrap();
            save_rolling(&dir, &sharded_sample(1, it)).unwrap();
        }
        // Pruning shard 1 must not touch shard 0's files (and vice versa).
        for shard in [0, 1] {
            let kept: Vec<usize> = list_snapshots(&dir, ShardScope::Shard(shard))
                .unwrap()
                .into_iter()
                .map(|e| e.iteration)
                .collect();
            assert_eq!(kept, vec![6, 9], "shard {shard}");
        }
        let all = list_snapshots(&dir, ShardScope::Any).unwrap();
        assert_eq!(all.len(), 4);
        assert_eq!(all[0].shard, Some(0));
        assert_eq!(
            all[0].path,
            snapshot_path(&dir, Some(0), 6),
            "per-shard naming is part of the on-disk contract"
        );
        assert!(list_snapshots(&dir, ShardScope::Unsharded)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn latest_valid_skips_a_corrupted_newest_file() {
        let dir = tmp_dir("fallback");
        save_rolling(&dir, &sample(6)).unwrap();
        save_rolling(&dir, &sample(9)).unwrap();
        // Tear the newest file in half.
        let newest = snapshot_path(&dir, None, 9);
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            TrainingSnapshot::load(&newest),
            Err(Error::Io { .. })
        ));
        let (snap, path) = latest_valid(&dir, None)
            .unwrap()
            .expect("predecessor survives");
        assert_eq!(snap.iteration, 6);
        assert_eq!(path, snapshot_path(&dir, None, 6));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn latest_valid_skips_a_newer_snapshot_from_a_foreign_run() {
        let dir = tmp_dir("foreign");
        save_rolling(&dir, &sample(6)).unwrap();
        let mut foreign = sample(9);
        foreign.fingerprint.seed ^= 1;
        save_rolling(&dir, &foreign).unwrap();

        // A stale newer snapshot from another schedule must not shadow the
        // valid older one of this run…
        let fp = sample(0).fingerprint;
        let (snap, _) = latest_valid(&dir, Some(&fp))
            .unwrap()
            .expect("own run found");
        assert_eq!(snap.iteration, 6);

        // …but when *nothing* matches, that is a config error, not a
        // silent fresh start.
        let mut other = fp.clone();
        other.seed ^= 2;
        assert!(matches!(
            latest_valid(&dir, Some(&other)),
            Err(Error::InvalidConfig(_))
        ));

        // Without an expected fingerprint the newest valid file wins.
        let (snap, _) = latest_valid(&dir, None).unwrap().unwrap();
        assert_eq!(snap.iteration, 9);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_dir_is_none_and_all_corrupt_is_an_error() {
        let dir = tmp_dir("empty");
        assert!(latest_valid(&dir, None).unwrap().is_none());
        save_rolling(&dir, &sample(3)).unwrap();
        let path = snapshot_path(&dir, None, 3);
        std::fs::write(&path, b"FEWNERD1 deadbeef 4\njunk-extra").unwrap();
        assert!(latest_valid(&dir, None).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fingerprint_shard_topology_round_trips() {
        let snap = sharded_sample(1, 4);
        let json = snap.to_json().to_string();
        let back = TrainingSnapshot::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.shard, Some(1));
        assert_eq!(back.fingerprint.shards, 2);
    }

    #[test]
    fn stream_cursor_and_geometry_round_trip() {
        let mut snap = sample(4);
        snap.stream_cursor = Some(StreamCursor { chunk: 17, pos: 3 });
        snap.fingerprint.stream = Some(StreamFingerprint {
            sentences: 1_000_000,
            chunk_size: 4096,
            window: 8192,
            stride: 64,
        });
        let json = snap.to_json().to_string();
        let back = TrainingSnapshot::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.stream_cursor, snap.stream_cursor);
        assert_eq!(back.fingerprint.stream, snap.fingerprint.stream);
        assert_ne!(back.fingerprint, sample(4).fingerprint);
    }
}
