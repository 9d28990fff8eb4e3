//! Order statistics and the regression verdict.
//!
//! Everything here is pure so it can be unit-tested; the quartile
//! method is the one Python's `statistics.quantiles(values, n=4)`
//! uses, so a spread computed here equals the one the driver computes
//! from the same values.

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond
/// it, or `None` when there are too few samples for any.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    (samples > 20).then(|| 100.0 * (1.0 - 10.0 / samples as f64))
}

/// Median and quartiles of a sample with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a single value (exact metrics, one-shot probes).
    pub fn point(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the exclusive method (`m = n + 1` positions, linear
/// interpolation, clamped to the ends). One value is its own quartiles.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary::point(0.0);
    }
    let cut = |i: usize| {
        // Position i/4 of n + 1, as in CPython's `quantiles`.
        let j = (i * (n + 1) / 4).clamp(1, n.max(2) - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        if n == 1 {
            v[0]
        } else {
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        }
    };
    Summary {
        median: cut(2),
        q1: cut(1),
        q3: cut(3),
        n,
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing one metric of a candidate against a base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the base by more than the bound.
    Worse,
    /// The base's own spread exceeds the bound, so a move of that size
    /// cannot be told from noise.
    Unresolved,
    /// An exact metric moved in the better direction: not a
    /// regression, but a deterministic change that must be declared.
    Changed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// How far `cand` is worse than `base`, as a share of `base` (negative
/// when better).
pub fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// The regression rule. Exact metrics (`exact`) fail on any worsening
/// and report `Changed` on any improvement. Timed metrics fail when the
/// median worsens by more than `bound` *and* by more than `min_abs` in
/// the metric's own unit (only `setup_s` sets one); when the base's
/// spread is wider than the bound the verdict is `Unresolved` unless
/// the candidate is no worse at all.
pub fn verdict(
    base: &Summary,
    cand: &Summary,
    better: Better,
    bound: f64,
    min_abs: f64,
    exact: bool,
) -> Verdict {
    let worse_by = worsening(base.median, cand.median, better);
    if exact {
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Changed,
            _ => Verdict::Ok,
        };
    }
    if worse_by <= 0.0 {
        return Verdict::Ok;
    }
    if base.spread() > bound {
        return Verdict::Unresolved;
    }
    if worse_by > bound && (cand.median - base.median).abs() > min_abs {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(20), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100), Some(90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[4.0]), Summary::point(4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::point(0.0).spread(), 0.0);
    }

    fn tight(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 12,
        }
    }

    #[test]
    fn verdict_for_timed_metrics() {
        let base = tight(100.0);
        // Lower is better: +5 % is inside a 10 % bound, +15 % is not.
        assert_eq!(
            verdict(&base, &tight(105.0), Better::Lower, 0.1, 0.0, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &tight(115.0), Better::Lower, 0.1, 0.0, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &tight(50.0), Better::Lower, 0.1, 0.0, false),
            Verdict::Ok
        );
        // Higher is better: a drop of 15 % is worse, a rise is fine.
        assert_eq!(
            verdict(&base, &tight(85.0), Better::Higher, 0.1, 0.0, false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &tight(130.0), Better::Higher, 0.1, 0.0, false),
            Verdict::Ok
        );
    }

    #[test]
    fn verdict_is_unresolved_when_spread_exceeds_bound() {
        let noisy = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 110.0,
            n: 12,
        };
        assert_eq!(
            verdict(&noisy, &tight(115.0), Better::Lower, 0.1, 0.0, false),
            Verdict::Unresolved
        );
        // A candidate that is no worse is fine however noisy the base.
        assert_eq!(
            verdict(&noisy, &tight(99.0), Better::Lower, 0.1, 0.0, false),
            Verdict::Ok
        );
    }

    #[test]
    fn verdict_respects_absolute_floor() {
        // setup_s: +50 % but only +0.1 s is not a regression.
        assert_eq!(
            verdict(&tight(0.2), &tight(0.3), Better::Lower, 0.2, 0.2, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&tight(2.0), &tight(3.0), Better::Lower, 0.2, 0.2, false),
            Verdict::Worse
        );
    }

    #[test]
    fn verdict_for_exact_metrics() {
        let base = Summary::point(1000.0);
        let same = Summary::point(1000.0);
        let more = Summary::point(1001.0);
        let less = Summary::point(999.0);
        assert_eq!(
            verdict(&base, &same, Better::Lower, 0.0, 0.0, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &more, Better::Lower, 0.0, 0.0, true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &less, Better::Lower, 0.0, 0.0, true),
            Verdict::Changed
        );
    }
}
