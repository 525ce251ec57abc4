//! The few statistics the benchmark reports.

/// Sort ascending; every sample is finite by construction.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The `q`-quantile of an ascending slice, linearly interpolated between the
/// two nearest ranks. 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The highest of p50/p90/p95/p99/p99.9 that still has at least `beyond`
/// samples above it, as (percentile, value).
pub fn highest_supported_percentile(sorted: &[f64], beyond: usize) -> (f64, f64) {
    // per mille, so that "a tenth of 100 samples" is 10 and not 9.999...
    let mut best = 500;
    for per_mille in [900, 950, 990, 999] {
        if sorted.len() * (1000 - per_mille) / 1000 >= beyond {
            best = per_mille;
        }
    }
    (best as f64 / 10.0, quantile(sorted, best as f64 / 1000.0))
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance rule for repeatability is written in.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}
