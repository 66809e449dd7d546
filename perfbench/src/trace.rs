//! The benchmark's own spans, kept in memory and written out at the end of
//! a traced run. No span is recorded inside the program: a span here times
//! one call the benchmark makes into a layer's public API.
//!
//! A span is either *live* (it ran inside its parent's interval, possibly
//! in parallel with siblings) or *replayed* (the benchmark re-ran the same
//! layer call on the same input after the load phase, to attribute a
//! request's time without instrumenting the server). A span's self time is
//! its duration minus the part of its interval covered by live children,
//! minus the summed durations of replayed children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fewner::util::{Json, Result};

use crate::common::io_err;
use crate::stats;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The request or iteration the span belongs to.
    pub id: u64,
    pub parent: Option<usize>,
    /// Milliseconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    pub replayed: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span log.
pub struct Spans {
    epoch: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            list: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e3
    }

    /// Records a span that already happened; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            id,
            parent,
            start: self.at(start),
            end: self.at(end),
            replayed: false,
        };
        self.list.push(span);
        self.list.len() - 1
    }

    /// Opens a span whose children are recorded before it ends; close it
    /// with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, id, parent, now, now)
    }

    pub fn close(&mut self, idx: usize) {
        self.list[idx].end = self.at(Instant::now());
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let idx = self.record(name, id, parent, start, Instant::now());
        (out, idx)
    }

    /// Times `f` as a replayed child of `parent`.
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let (out, idx) = self.time(name, id, Some(parent), f);
        self.list[idx].replayed = true;
        (out, idx)
    }

    /// Appends another log recorded against the same epoch, remapping its
    /// parent indices; returns the offset its first span landed at.
    pub fn absorb(&mut self, other: Spans) -> usize {
        let offset = self.list.len();
        self.list.extend(other.list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        offset
    }

    /// Self time of every span, index-aligned with `list`.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.list.len()];
        for (i, s) in self.list.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.list
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let replayed: f64 = kids
                    .iter()
                    .filter(|&&k| self.list[k].replayed)
                    .map(|&k| self.list[k].ms())
                    .sum();
                let mut live: Vec<(f64, f64)> = kids
                    .iter()
                    .filter(|&&k| !self.list[k].replayed)
                    .map(|&k| {
                        let c = &self.list[k];
                        (c.start.max(span.start), c.end.min(span.end))
                    })
                    .filter(|(a, b)| b > a)
                    .collect();
                live.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for (a, b) in live {
                    let from = a.max(reach);
                    if b > from {
                        covered += b - from;
                    }
                    reach = reach.max(b);
                }
                span.ms() - covered - replayed
            })
            .collect()
    }

    /// Median duration per span name.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let sample: Vec<f64> = self
            .list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        stats::median(&sample)
    }

    /// Sum of durations per span name.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Median self time per span name, over spans accepted by `keep`.
    pub fn self_medians(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let selfs = self.self_ms();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, s) in self.list.iter().zip(selfs) {
            if keep(span) {
                by_name.entry(span.name).or_default().push(s);
            }
        }
        by_name
            .into_iter()
            .filter_map(|(name, v)| Some((name, stats::median(&v)?)))
            .collect()
    }

    /// Writes one JSON object per span (with its self time) to `path`.
    pub fn write_jsonl(&self, path: &Path) -> Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        }
        let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, (span, self_ms)) in self.list.iter().zip(self.self_ms()).enumerate() {
            let line = Json::Obj(vec![
                ("idx".into(), Json::from(i)),
                ("name".into(), Json::from(span.name)),
                ("id".into(), Json::from(span.id)),
                ("parent".into(), span.parent.map_or(Json::Null, Json::from)),
                ("start_ms".into(), Json::from(span.start)),
                ("end_ms".into(), Json::from(span.end)),
                ("self_ms".into(), Json::from(self_ms)),
                ("replayed".into(), Json::from(span.replayed)),
            ]);
            writeln!(out, "{line}").map_err(|e| io_err(path, e))?;
        }
        out.flush().map_err(|e| io_err(path, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        start: f64,
        end: f64,
        replayed: bool,
    ) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start,
            end,
            replayed,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_live_children_and_replayed_durations() {
        let mut spans = Spans::new(Instant::now());
        spans.list = vec![
            span("iteration", None, 0.0, 10.0, false),
            // Two overlapping parallel children cover [1, 6] = 5 ms.
            span("task", Some(0), 1.0, 4.0, false),
            span("task", Some(0), 2.0, 6.0, false),
            // A child running past the parent only counts inside it.
            span("task", Some(0), 9.0, 12.0, false),
            // Replayed children count by duration wherever they ran.
            span("parse", Some(0), 20.0, 20.5, true),
        ];
        let selfs = spans.self_ms();
        assert!(
            (selfs[0] - (10.0 - 5.0 - 1.0 - 0.5)).abs() < 1e-9,
            "{selfs:?}"
        );
        assert!((selfs[1] - 3.0).abs() < 1e-9);
        let med = spans.self_medians(|s| s.name == "task");
        assert_eq!(med.get("task"), Some(&3.0));
    }
}
