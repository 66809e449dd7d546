//! Sample statistics and metric-name rules shared by every workload.
//!
//! Percentiles use the nearest-rank definition: the p-th percentile of `n`
//! ascending samples is the sample at 1-based rank ⌈p/100 · n⌉. It always
//! returns a value that was measured, never an interpolation between two.
//!
//! A failed operation enters a latency sample as `f64::INFINITY`: it
//! misses any latency limit, so it is ranked above every completed
//! operation instead of being dropped from the sample.

/// Samples a tail percentile must leave above its rank.
pub const TAIL_BEYOND: usize = 10;

/// Lowest percentile still reported as a tail; fewer samples than
/// `TAIL_BEYOND / (1 - MIN_TAIL_PERCENTILE / 100)` (40) give no tail.
pub const MIN_TAIL_PERCENTILE: f64 = 75.0;

/// Sorts a sample ascending; failures (`INFINITY`) sort last.
pub fn sorted(mut sample: Vec<f64>) -> Vec<f64> {
    sample.sort_by(f64::total_cmp);
    sample
}

/// Nearest-rank percentile of an ascending sample: the value at 1-based rank
/// ⌈p/100 · n⌉. `None` for an empty sample or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let n = sorted.len();
    // The small slack keeps p = 100·r/n, which f64 cannot always represent
    // exactly, on rank r instead of r + 1.
    let rank = ((p / 100.0) * n as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(sample: &[f64]) -> Option<f64> {
    percentile(&sorted(sample.to_vec()), 50.0)
}

/// The highest percentile of a sample that still has `TAIL_BEYOND` samples
/// ranked above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in (0, 100).
    pub percentile: f64,
    /// The sample at that percentile's nearest rank.
    pub value: f64,
    /// Sample size.
    pub n: usize,
}

/// The tail of an ascending sample: rank `n - TAIL_BEYOND`, i.e. percentile
/// `100 · (n - 10) / n`. `None` when that percentile is below
/// `MIN_TAIL_PERCENTILE` — with so few samples the "tail" would sit at or
/// below the median.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r > 0)?;
    let p = 100.0 * rank as f64 / n as f64;
    if p < MIN_TAIL_PERCENTILE {
        return None;
    }
    Some(Tail {
        percentile: p,
        value: sorted[rank - 1],
        n,
    })
}

/// Samples per block of [`block_tail`].
pub const TAIL_BLOCK: usize = 100;

/// The tail of a long sample, made steady: the chronological sample is cut
/// into consecutive blocks of `TAIL_BLOCK` (a remainder joins the last
/// block), each block's [`tail`] is taken, and the nearest-rank median of
/// those block tails is reported. A sample shorter than two blocks is one
/// block. On a shared host a whole-run p99.9 is set by a handful of
/// scheduler stalls and moves by tens of percent between identical runs;
/// the median of per-block tails keeps the "10 samples beyond" rule inside
/// each block and lets one stalled block not decide the run. `percentile`
/// and `n` describe one block (the first); `None` when the sample is too
/// small for any tail.
pub fn block_tail(chronological: &[f64]) -> Option<(Tail, usize)> {
    let blocks = (chronological.len() / TAIL_BLOCK).max(1);
    let mut tails = Vec::with_capacity(blocks);
    let mut first = None;
    for b in 0..blocks {
        let end = if b + 1 == blocks {
            chronological.len()
        } else {
            (b + 1) * TAIL_BLOCK
        };
        let t = tail(&sorted(chronological[b * TAIL_BLOCK..end].to_vec()))?;
        first.get_or_insert(t);
        tails.push(t.value);
    }
    let value = percentile(&sorted(tails), 50.0)?;
    Some((Tail { value, ..first? }, blocks))
}

/// A metric name: 1 to 64 ASCII letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A metric unit: 1 to 16 ASCII letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_returns_measured_values() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 51.0), Some(6.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.5], 50.0), Some(7.5));
        // p = 100·r/n lands on rank r even where the division is inexact.
        let s = ramp(30);
        assert_eq!(percentile(&s, 100.0 * 7.0 / 30.0), Some(7.0));
    }

    #[test]
    fn percentile_rejects_empty_samples_and_bad_ranks() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(3), 0.0), None);
        assert_eq!(percentile(&ramp(3), 100.5), None);
        assert_eq!(percentile(&ramp(3), f64::NAN), None);
    }

    #[test]
    fn failures_rank_above_every_completed_operation() {
        let s = sorted(vec![3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, f64::INFINITY]);
        assert_eq!(percentile(&s, 100.0), Some(f64::INFINITY));
        assert_eq!(median(&[3.0, f64::INFINITY, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        assert_eq!(tail(&ramp(39)), None, "p74.4 is below the tail floor");
        let t = tail(&ramp(40)).unwrap();
        assert_eq!((t.percentile, t.value, t.n), (75.0, 30.0, 40));
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        for n in [40, 57, 333, 4096] {
            let s = ramp(n);
            let t = tail(&s).unwrap();
            let beyond = s.iter().filter(|&&v| v > t.value).count();
            assert_eq!(beyond, TAIL_BEYOND, "n = {n}");
            assert_eq!(percentile(&s, t.percentile), Some(t.value), "n = {n}");
        }
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&ramp(10)), None);
    }

    #[test]
    fn block_tail_is_the_median_of_per_block_tails() {
        // Short samples are one block: the plain tail.
        let (t, blocks) = block_tail(&ramp(150)).unwrap();
        assert_eq!((t.value, t.n, blocks), (140.0, 150, 1));
        assert_eq!(block_tail(&ramp(39)), None);
        // Three blocks of 100; the middle one stalled. Block tails are the
        // 90th values: 90, 1090, 290 → median 290.
        let mut s: Vec<f64> = ramp(100);
        s.extend(ramp(100).iter().map(|v| v + 1000.0));
        s.extend(ramp(100).iter().map(|v| v + 200.0));
        let (t, blocks) = block_tail(&s).unwrap();
        assert_eq!((t.value, t.percentile, t.n, blocks), (290.0, 90.0, 100, 3));
        // A remainder joins the last block.
        let (_, blocks) = block_tail(&ramp(250)).unwrap();
        assert_eq!(blocks, 2);
    }

    #[test]
    fn metric_names_and_units_follow_the_contract() {
        for ok in ["latency_p50_ms", "core.shard_wait_ms", "9lives", "a-b.c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "tab\t",
            "ü",
            &long,
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "milli seconds", "x".repeat(17).as_str(), "ms!"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }
}
