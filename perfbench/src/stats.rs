//! Order statistics the benchmark reports: medians, quartiles and the
//! highest percentile a sample can support.

/// Percentile `p` (0..=100) of `sorted` by linear interpolation between
/// the closest ranks (the "type 7" estimator). `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted values. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// First, second and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads printed here match the ones a Python check derives from
/// the same values. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Percentile levels a tail is reported at, highest first, in hundredths
/// of a percent (exact integer arithmetic: 0.99 * 1000 is not 990 in f64).
const TAIL_LEVELS: [u64; 9] = [9999, 9990, 9950, 9900, 9800, 9500, 9000, 7500, 5000];

/// Samples at or below level `bp` (hundredths of a percent) of `n`.
fn at_or_below(bp: u64, n: usize) -> usize {
    (bp * n as u64).div_ceil(10_000) as usize
}

/// The highest percentile level with at least ten of `n` samples beyond
/// it: a p99 needs 1,000 samples, a p95 200. `None` below 20 samples.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&bp| n.saturating_sub(at_or_below(bp, n)) >= 10)
        .map(|bp| bp as f64 / 100.0)
}

/// A latency sample summarised for the report: count, median and the
/// highest supported tail percentile (level and value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// First and third quartiles (equal to the value for one sample).
    pub q1_q3: (f64, f64),
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = percentile(&v, 50.0)?;
        let tail = tail_level(v.len()).and_then(|p| percentile(&v, p).map(|x| (p, x)));
        let q1_q3 = quartiles(&v).map_or((p50, p50), |q| (q[0], q[2]));
        Some(Summary {
            count: v.len(),
            p50,
            q1_q3,
            tail,
        })
    }

    /// `n=… p50=… q1..q3=… pXX=…` for a report line.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, x)) => format!(" p{p}={x:.4}{unit} (the highest percentile supported)"),
            None => " (too few samples for a tail percentile)".into(),
        };
        format!(
            "n={} p50={:.4}{unit} q1..q3={:.4}..{:.4}{unit}{tail}",
            self.count, self.p50, self.q1_q3.0, self.q1_q3.1
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(999), Some(98.0));
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(500), Some(98.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(199), Some(90.0));
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(0), None);
        // The claim itself: at least ten samples lie strictly above the
        // chosen level's rank, for every sample size.
        for n in 20..5000 {
            let p = tail_level(n).unwrap();
            let bp = (p * 100.0).round() as u64;
            assert!(n - at_or_below(bp, n) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) -> [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) -> [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(40.0));
        assert_eq!(percentile(&v, 50.0), Some(25.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn summary_reports_supported_tail_only() {
        let small: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(Summary::of(&small).unwrap().tail, None);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&big).unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail.unwrap().0, 99.0);
    }
}
