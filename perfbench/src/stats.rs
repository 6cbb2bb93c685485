//! Percentiles from raw samples (never from telemetry's power-of-two
//! histogram buckets, whose quantiles are bucket bounds).

/// Tail percentiles the benchmark may report, highest first, in parts
/// per ten thousand (integer ranks avoid float rounding at boundaries).
const TAIL_LADDER: [u32; 3] = [9_990, 9_900, 9_000];

/// Samples a tail percentile must leave beyond it to be reported.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (per ten thousand) among `n`
/// samples: the smallest rank with at least `p` of the samples at or
/// below it.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// A tail percentile together with how it was chosen.
#[derive(Debug, PartialEq)]
pub struct Tail {
    /// The percentile, per ten thousand (9900 = p99).
    pub p: u32,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Tail {
    pub fn label(&self) -> String {
        let whole = self.p / 100;
        match self.p % 100 {
            0 => format!("p{whole}"),
            frac => format!("p{whole}.{}", format!("{frac:02}").trim_end_matches('0')),
        }
    }
}

/// The highest ladder percentile with at least ten samples beyond it;
/// the median when the run is too short for any of them.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| n - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(5_000);
    Tail {
        p,
        value: percentile(sorted, p),
        beyond: n - rank(n, p),
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
        let t = tail(&ramp(100));
        assert_eq!((t.p, t.value, t.beyond), (9_000, 90.0, 10));
        assert_eq!(t.label(), "p90");
        // 1000 samples: p99.9 leaves 1, p99 leaves 10.
        let t = tail(&ramp(1000));
        assert_eq!((t.p, t.value, t.beyond), (9_900, 990.0, 10));
        // 10 000 samples: p99.9 leaves 10.
        let t = tail(&ramp(10_000));
        assert_eq!((t.p, t.beyond), (9_990, 10));
        assert_eq!(t.label(), "p99.9");
        // 999 samples: p99 leaves only 9, so p90 is reported.
        assert_eq!(tail(&ramp(999)).p, 9_000);
    }

    #[test]
    fn short_runs_fall_back_to_the_median() {
        let t = tail(&ramp(50));
        assert_eq!((t.p, t.value), (5_000, 25.0));
        assert_eq!(tail(&[3.0]).value, 3.0);
    }

    #[test]
    fn nearest_rank_and_median() {
        let s = ramp(4);
        assert_eq!(percentile(&s, 5_000), 2.0);
        assert_eq!(percentile(&s, 10_000), 4.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
