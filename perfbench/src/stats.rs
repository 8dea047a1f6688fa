//! Order statistics, the geometric mean, failure accounting and the seeded
//! shuffle. Everything the benchmark reports goes through these functions,
//! so they carry the benchmark's own self-tests.

/// Samples a tail percentile must have beyond it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the smallest
/// sample with at least a `q` share of the samples at or below it.
/// `None` for an empty slice.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median as the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Samples that lie strictly beyond the nearest-rank `q`-quantile's rank.
pub fn samples_beyond(count: usize, q: f64) -> usize {
    let rank = (q * count as f64).ceil() as usize;
    count.saturating_sub(rank.max(1))
}

/// A tail percentile, defined only when at least [`MIN_SAMPLES_BEYOND`]
/// samples lie beyond it (so p90 needs 100 samples): a tail read off fewer
/// samples is one job's time, not a tail.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples_beyond(samples.len(), q) < MIN_SAMPLES_BEYOND {
        return None;
    }
    nearest_rank(samples, q)
}

/// Geometric mean of strictly positive values. A zero or negative area or
/// delay is a broken result, so it yields `None` instead of being clamped.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| !(v > 0.0 && v.is_finite())) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// How one job ended, as the benchmark accounts for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A result that the program and the benchmark's own check both proved.
    Proved,
    /// A result without a proof: the program said `verified == false`, or
    /// the benchmark's check ran out of budget (`Unknown`).
    Unproved,
    /// No usable result: an `Err`, a job state other than `Completed`, or a
    /// result the benchmark's check refuted (`NotEquivalent`).
    Failed,
}

/// Counts job outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub unproved: usize,
    pub failed: usize,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        match outcome {
            Outcome::Proved => {}
            Outcome::Unproved => self.unproved += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    /// Share of attempted jobs without a proved result (unproved or failed).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.unproved + self.failed) as f64 / self.attempted as f64
    }

    /// Share of attempted jobs with a proved result: `1 - failed_frac`.
    pub fn proved_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed_frac()
    }
}

/// SplitMix64: a tiny seeded generator, so the job order depends only on
/// the seed and not on any crate's stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&samples, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&samples, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&samples, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[3.0], 0.9), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.9), None);
        let full: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&full, 0.9), Some(90.0));
        // p50 is defined from 20 samples on.
        assert_eq!(tail_percentile(&full[..19], 0.5), None);
        assert_eq!(tail_percentile(&full[..20], 0.5), Some(10.0));
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]).unwrap() - 7.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn failed_frac_counts_unproved_and_failed_jobs() {
        let mut tally = Tally::default();
        for outcome in [
            Outcome::Proved,
            Outcome::Proved,
            Outcome::Unproved,
            Outcome::Failed,
            Outcome::Proved,
        ] {
            tally.record(outcome);
        }
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.unproved, 1);
        assert_eq!(tally.failed, 1);
        assert!((tally.failed_frac() - 0.4).abs() < 1e-12);
        assert!((tally.proved_frac() - 0.6).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn shuffle_depends_only_on_the_seed() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        SplitMix64::new(8).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}
