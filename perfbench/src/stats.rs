//! Order statistics and failure accounting for the benchmark report.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the ones a script recomputes from the same samples.

use std::collections::BTreeMap;

/// The median of `samples` (mean of the two middle values for an even
/// count). Returns `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the exclusive method: cut point
/// `k` sits at position `(n + 1) * k / 4` of the sorted data (1-based),
/// interpolated linearly between the two nearest samples, which are
/// clamped to the first and last pair, so a cut point beyond the data
/// extrapolates as Python's does. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(samples);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let pos = (n + 1) * (k + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - 4.0 * j as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn relative_spread(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2)
}

/// Samples that must lie above a reported tail percentile.
pub const TAIL_MIN_ABOVE: usize = 10;

/// A tail percentile as reported: the value, the percentile it is, the
/// samples strictly above its rank, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The percentile that rank is, 0–100.
    pub percentile: f64,
    /// Samples ranked above it.
    pub above: usize,
    /// Samples in total.
    pub count: usize,
}

/// The `target` percentile (nearest rank), lowered when needed so that
/// at least [`TAIL_MIN_ABOVE`] samples rank above it. With fewer than
/// `TAIL_MIN_ABOVE + 1` samples no rank qualifies and `None` is
/// returned.
pub fn tail(samples: &[f64], target: f64) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_MIN_ABOVE {
        return None;
    }
    // Nearest rank: the smallest 1-based rank r with r / n >= target.
    let nearest = ((target / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = nearest.min(n - TAIL_MIN_ABOVE);
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        above: n - rank,
        count: n,
    })
}

/// Workload instances checked and instances whose output failed a check.
///
/// An instance is one generated input. Running it again re-measures the
/// same operation, so the checks of all its iterations merge into one
/// outcome: the counts depend only on the run's seed, not on how many
/// passes fit in the run's time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Per instance (keyed by its seed): whether any check failed.
    failed_by_instance: BTreeMap<u64, bool>,
}

impl Outcomes {
    /// Counts one iteration of `instance`; `problems` are the checks it
    /// failed. An instance counts once however many iterations ran it
    /// and however many checks they failed.
    pub fn record(&mut self, instance: u64, problems: &[String]) {
        *self.failed_by_instance.entry(instance).or_insert(false) |= !problems.is_empty();
    }

    /// Instances run and checked.
    pub fn attempted(&self) -> u64 {
        self.failed_by_instance.len() as u64
    }

    /// Instances with at least one failed check.
    pub fn failed(&self) -> u64 {
        self.failed_by_instance.values().filter(|&&f| f).count() as u64
    }

    /// `failed / attempted`, 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!(
            close(q[0], 1.0) && close(q[1], 2.0) && close(q[2], 3.0),
            "{q:?}"
        );
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        let q = quartiles(&[7.0, 5.0]).unwrap();
        assert!(
            close(q[0], 4.5) && close(q[1], 6.0) && close(q[2], 7.5),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert!(
            close(q[0], 1.5) && close(q[1], 4.0) && close(q[2], 12.0),
            "{q:?}"
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(relative_spread(&v).unwrap(), (8.25 - 2.75) / 5.5));
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        // 200 samples: the true p90 has 20 above it.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v, 90.0).unwrap();
        assert_eq!((t.value, t.above, t.count), (180.0, 20, 200));
        assert!(close(t.percentile, 90.0));
        // 100 samples: p90 has exactly 10 above.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 90.0).unwrap();
        assert_eq!((t.value, t.above), (90.0, 10));
        // 40 samples: p90 would leave 4 above, so the rank drops to 30.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v, 90.0).unwrap();
        assert_eq!((t.value, t.above), (30.0, 10));
        assert!(close(t.percentile, 75.0));
        // 11 samples is the smallest count with a qualifying rank.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v, 90.0).unwrap().above, 10);
        assert_eq!(tail(&v[..10], 90.0), None);
    }

    #[test]
    fn failed_frac_counts_instances_not_iterations_or_checks() {
        let mut o = Outcomes::default();
        assert_eq!(o.failed_frac(), 0.0);
        o.record(1, &[]);
        o.record(2, &["unsafe".into(), "digest".into()]);
        o.record(3, &[]);
        o.record(4, &["lost job".into()]);
        assert_eq!((o.attempted(), o.failed()), (4, 2));
        assert!(close(o.failed_frac(), 0.5));
        // More passes over the same instances change nothing, and a check
        // that failed once keeps its instance failed.
        for _ in 0..3 {
            for k in 1..=4 {
                o.record(k, &[]);
            }
        }
        assert_eq!((o.attempted(), o.failed()), (4, 2));
        // A later failure of a passing instance counts it once.
        o.record(3, &["digest".into()]);
        o.record(3, &["digest".into()]);
        assert_eq!((o.attempted(), o.failed()), (4, 3));
    }
}
