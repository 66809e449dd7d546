//! Metrics, run metadata and the result line.

use std::path::Path;

use fewner::util::{Error, Json, Result};

use crate::common::io_err;
use crate::stats::{self, valid_name, valid_unit};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// The metric catalogue of `BENCHMARK.json`: the `(name, unit)` of every
/// end-to-end metric (untraced runs) and every per-layer metric (traced
/// runs). A run must report exactly the catalogue of its kind.
pub struct Catalogue {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Catalogue {
    pub fn load(path: &Path) -> Result<Catalogue> {
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
        let doc = Json::parse(&text)?;
        let list = |key: &str| -> Result<Vec<(String, String)>> {
            doc.field(key)?
                .as_arr()?
                .iter()
                .map(|m| {
                    let name = m.field("name")?.as_str()?;
                    let unit = m.field("unit")?.as_str()?;
                    if !valid_name(name) || !valid_unit(unit) {
                        return Err(Error::Serde(format!(
                            "{}: malformed metric `{name}` [{unit}]",
                            path.display()
                        )));
                    }
                    Ok((name.to_string(), unit.to_string()))
                })
                .collect()
        };
        Ok(Catalogue {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// A workload's collected metrics, in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    list: Vec<Metric>,
    /// Side facts printed on the detail line (tail percentiles, sample
    /// sizes), never gated.
    pub detail: Vec<(String, Json)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, unit: impl Into<String>, value: f64) {
        self.list.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        });
    }

    /// Pushes the nearest-rank median of a chronological `sample` as
    /// `<p50_name>` and its [`stats::block_tail`] as `<tail_name>`,
    /// recording the tail's percentile, block size, block count and the
    /// sample size on the detail line. A sample too small for a tail is an
    /// error: the workloads are sized so that it never happens.
    pub fn push_p50_and_tail(
        &mut self,
        p50_name: &str,
        tail_name: &str,
        sample: &[f64],
    ) -> Result<()> {
        let p50 = stats::percentile(&stats::sorted(sample.to_vec()), 50.0)
            .ok_or_else(|| Error::InvalidConfig(format!("{p50_name}: empty sample")))?;
        let (tail, blocks) = stats::block_tail(sample).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "{tail_name}: {} samples are too few for a tail",
                sample.len()
            ))
        })?;
        self.push(p50_name, "ms", saturate(p50));
        self.push(tail_name, "ms", saturate(tail.value));
        self.detail.push((
            tail_name.to_string(),
            Json::Obj(vec![
                ("percentile".into(), Json::from(tail.percentile)),
                ("block_n".into(), Json::from(tail.n)),
                ("blocks".into(), Json::from(blocks)),
                ("n".into(), Json::from(sample.len())),
            ]),
        ));
        Ok(())
    }

    pub fn into_list(self) -> (Vec<Metric>, Vec<(String, Json)>) {
        (self.list, self.detail)
    }
}

/// A percentile that lands on a failed operation has no latency; it is
/// reported as this sentinel (one hour) so the line stays valid JSON and
/// the regression gate trips.
pub const FAILED_LATENCY_MS: f64 = 3.6e6;

fn saturate(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        FAILED_LATENCY_MS
    }
}

/// Host facts recorded with every result, for explaining noisy runs.
pub struct Host {
    cpu_model: String,
    nproc: usize,
    stat_start: Option<CpuTimes>,
}

#[derive(Clone, Copy)]
struct CpuTimes {
    total: u64,
    steal: u64,
}

fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Some(CpuTimes {
        total,
        steal: *fields.get(7)?,
    })
}

impl Host {
    pub fn start() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            stat_start: cpu_times(),
        }
    }

    /// `{nproc, cpu_model, steal_share}`; the steal share is the fraction
    /// of all CPU time the hypervisor withheld since `start`.
    fn to_json(&self) -> Json {
        let steal = match (self.stat_start, cpu_times()) {
            (Some(a), Some(b)) if b.total > a.total => {
                Json::from(b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64)
            }
            _ => Json::Null,
        };
        Json::Obj(vec![
            ("nproc".into(), Json::from(self.nproc)),
            ("cpu_model".into(), Json::from(self.cpu_model.as_str())),
            ("steal_share".into(), steal),
        ])
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns the free memory of every malloc arena to the system.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Resets this process's resident-set high-water mark (`VmHWM`) to its
/// current resident set (`/proc/self/clear_refs` value 5, Linux 4.0 and
/// later), so that [`peak_rss_mb`] covers only what runs after the call:
/// the measured phase, not the prep training and set-ups before it.
///
/// First the allocator hands back the memory those phases freed but kept,
/// so the mark starts from what is live rather than from how the earlier
/// threads happened to leave the malloc arenas.
pub fn reset_peak_rss() -> Result<()> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointer from the caller; it walks
    // glibc's own arenas under their locks and may be called at any time
    // from any thread.
    unsafe {
        malloc_trim(0);
    }
    let path = Path::new("/proc/self/clear_refs");
    std::fs::write(path, "5").map_err(|e| io_err(path, e))
}

/// Peak resident set size of this process, in MB (`VmHWM`), since the last
/// [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: Metrics,
}

/// Prints the detail line and then the result line (always last), and
/// returns whether the run is correct. Names, units and values are
/// validated here: a malformed metric, or a reported set that differs from
/// `expected` (the catalogue's list for this kind of run), makes the run
/// incorrect rather than producing a line the reader has to second-guess.
pub fn print(
    workload: &str,
    seed: u64,
    host: &Host,
    outcome: Outcome,
    expected: &[(String, String)],
) -> bool {
    let Outcome {
        attempted,
        failed,
        mut problems,
        metrics,
    } = outcome;
    let (list, detail) = metrics.into_list();
    for m in &list {
        if !valid_name(&m.name) || !valid_unit(&m.unit) {
            problems.push(format!("malformed metric `{}` [{}]", m.name, m.unit));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric `{}` is not finite", m.name));
        }
    }
    let mut got: Vec<(&str, &str)> = list
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    got.sort_unstable();
    let mut want: Vec<(&str, &str)> = expected
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    want.sort_unstable();
    if got != want {
        problems.push(format!(
            "reported metrics {got:?} differ from BENCHMARK.json's {want:?}"
        ));
    }
    if attempted == 0 {
        problems.push("no operation was attempted".into());
    }
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty();
    let detail_line = Json::Obj(vec![(
        "detail".into(),
        Json::Obj(
            [
                ("workload".to_string(), Json::from(workload)),
                ("seed".to_string(), Json::from(seed)),
                ("host".to_string(), host.to_json()),
                (
                    "problems".to_string(),
                    Json::Arr(problems.iter().map(|p| Json::from(p.as_str())).collect()),
                ),
            ]
            .into_iter()
            .chain(detail)
            .collect(),
        ),
    )]);
    println!("{detail_line}");
    let metrics = Json::Obj(
        list.iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::from(value)),
                        ("unit".into(), Json::from(m.unit.as_str())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::Obj(vec![
        ("correct".into(), Json::from(correct)),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{result}");
    correct
}
