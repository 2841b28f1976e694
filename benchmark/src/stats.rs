//! Order statistics, computed the way Python's `statistics` module does
//! (`median`, and `quantiles(data, n=4)` with its default `exclusive`
//! method), so the quartiles printed here are the ones a reader
//! recomputes from the samples.

/// Median, first and third quartile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Summarises `samples`. A single sample is its own median and
/// quartiles.
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut d = samples.to_vec();
    d.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = d.len();
    let median = if n % 2 == 1 {
        d[n / 2]
    } else {
        (d[n / 2 - 1] + d[n / 2]) / 2.0
    };
    if n == 1 {
        return Summary {
            median,
            q1: median,
            q3: median,
            n,
        };
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

impl Summary {
    /// Interquartile distance as a share of the median (0 for a zero
    /// median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(s.spread(), 0.0);
    }
}
