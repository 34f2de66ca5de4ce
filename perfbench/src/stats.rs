//! Order statistics over the benchmark's own samples, and the regression
//! rule that compares two medians against a metric's bound.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// sample such that at least `p`% of the samples are at or below it.
/// `+inf` samples (failed requests) sort last and are returned like any
/// other value.  `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts a copy of `samples` (NaN-free; `+inf` allowed) and returns it.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    v
}

/// Median of `samples` (nearest rank on the lower middle for even
/// counts, so the value is always one that was measured).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(samples), 50.0)
}

/// The highest percentile with at least ten samples beyond it, for a
/// sample of `n`: `100 × (1 − 10 / n)`, or `None` below 20 samples.
pub fn supported_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some(100.0 * (1.0 - 10.0 / n as f64))
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them, the definition the run-to-run spread
/// of a metric is judged by.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return s.first().map(|&v| (v, v, v));
    }
    let at = |i: usize| {
        // Position i/4 × (n + 1), 1-based, linearly interpolated.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((at(1), at(2), at(3)))
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, error).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The `better` field of `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// `true` when `candidate` is worse than `parent` by more than `bound`,
/// a share of `parent` (the rule a later change is judged by).
pub fn regressed(parent: f64, candidate: f64, better: Better, bound: f64) -> bool {
    let worse_by = match better {
        Better::Lower => candidate - parent,
        Better::Higher => parent - candidate,
    };
    worse_by > bound * parent.abs()
}
