//! Sample statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(xs, n=4)` (the
//! default "exclusive" method), so the spreads this crate prints match
//! the ones an external check computes from the same values.

/// The median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The first and third quartiles of `xs`, as
/// `statistics.quantiles(xs, n=4)` computes them. A single sample is
/// its own quartiles; no samples give NaN.
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(1), q(3))
}

/// The distance between the quartiles.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// The percentiles a tail is reported at, lowest first.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten
/// of `n` samples beyond it, or `None` when even the median does not
/// (fewer than 20 samples).
fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

/// The `p`-th percentile of `xs` by nearest rank (NaN when empty).
fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    s[rank(s.len(), p).clamp(1, s.len()) - 1]
}

/// The tail of `xs`: the value at [`tail_percentile`], or the maximum
/// when there are too few samples for any percentile of the ladder.
/// Returns the value and the percentile it was taken at (100 for the
/// maximum).
pub fn tail(xs: &[f64]) -> (f64, f64) {
    match tail_percentile(xs.len()) {
        Some(p) => (percentile(xs, p), p),
        None => (sorted(xs).last().copied().unwrap_or(f64::NAN), 100.0),
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (n as f64 * p / 100.0).ceil() as usize
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parses `BENCHMARK.json`'s `"lower"` / `"higher"`.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `x` is strictly better than `y`.
    fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Lower => x < y,
            Better::Higher => x > y,
        }
    }
}

/// The outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is not worse than the parent's by more than
    /// the bound.
    Ok,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Worse,
    /// The runs spread wider than the bound and do not separate, so
    /// the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change`'s median is than `parent`'s, as a share of
/// the parent's median (negative when it is better).
fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (a, b) = (median(parent), median(change));
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict on one (metric, workload) pair. `bound` is the share of
/// the parent's median by which the change may be worse. When either
/// side's quartile spread exceeds the bound, the verdict is
/// [`Verdict::Unresolved`] unless every change run reads better (or
/// every one reads worse) than every parent run.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let spread = (iqr(parent) / median(parent).abs()).max(iqr(change) / median(change).abs());
    let all =
        |f: &dyn Fn(f64, f64) -> bool| change.iter().all(|&b| parent.iter().all(|&a| f(b, a)));
    let separated = all(&|b, a| better.beats(b, a)) || all(&|b, a| better.beats(a, b));
    if (spread.is_nan() || spread > bound) && !separated {
        return Verdict::Unresolved;
    }
    if worsening(parent, change, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(iqr(&xs), 5.5);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0));
    }

    #[test]
    fn verdicts_cover_ok_worse_and_unresolved() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.8, 99.4, 100.1, 99.9];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&parent, &same, Better::Lower, 0.1), Verdict::Ok);
        assert_eq!(
            verdict(&parent, &slower, Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(verdict(&parent, &faster, Better::Lower, 0.1), Verdict::Ok);
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&parent, &faster, Better::Higher, 0.1),
            Verdict::Worse
        );
        // Spread wider than the bound, runs interleaved: cannot tell.
        let noisy = [60.0, 140.0, 90.0, 125.0, 70.0];
        assert_eq!(
            verdict(&parent, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // Wide spread but every change run is better: still a verdict.
        let wide_faster = [40.0, 70.0, 50.0, 65.0, 45.0];
        assert_eq!(
            verdict(&parent, &wide_faster, Better::Lower, 0.1),
            Verdict::Ok
        );
        assert!(worsening(&parent, &slower, Better::Lower) > 0.19);
    }
}
