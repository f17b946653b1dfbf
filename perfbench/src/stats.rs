//! The benchmark's own arithmetic: medians, supported percentiles,
//! residuals and failure shares. Kept free of I/O so the unit tests below
//! pin every rule the reported numbers depend on.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count); `None`
/// for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Nearest-rank 1-based rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie beyond percentile `p`'s nearest rank.
pub fn samples_beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// Tail percentile `p` (50 < p < 100) by nearest rank, refused unless at
/// least [`MIN_BEYOND`] samples lie beyond it: a p90 needs 100 samples, a
/// p99 needs 1,000.
pub fn tail_percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(p > 50.0 && p < 100.0) {
        return Err(format!("p{p} is not a tail percentile"));
    }
    let n = samples.len();
    let beyond = samples_beyond(p, n);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} over {n} samples leaves {beyond} beyond it; {MIN_BEYOND} are required"
        ));
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[rank(p, n) - 1])
}

/// What a wall clock leaves after the layers measured inside it.
pub fn residual(wall: f64, layers: &[f64]) -> f64 {
    wall - layers.iter().sum::<f64>()
}

/// Failed operations as a share of those attempted; refused when nothing
/// was attempted or more failed than were tried.
pub fn failed_share(attempted: u64, failed: u64) -> Result<f64, String> {
    if attempted == 0 {
        return Err("no operations attempted".to_string());
    }
    if failed > attempted {
        return Err(format!("{failed} failed of {attempted} attempted"));
    }
    Ok(failed as f64 / attempted as f64)
}

/// Counts every operation the benchmark sends and every one that did not
/// come back as a success: an error reply, a `busy` refusal and a missing
/// reply all count as failed.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

impl OpCount {
    /// Record one operation's outcome.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn share(&self) -> Result<f64, String> {
        failed_share(self.attempted, self.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled so sorting is exercised.
        let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        v.reverse();
        v
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(90.0, 100), 10);
        assert_eq!(tail_percentile(&ramp(100), 90.0), Ok(90.0));
        assert!(tail_percentile(&ramp(99), 90.0).is_err());
        assert!(tail_percentile(&ramp(10), 90.0).is_err());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(&ramp(2000), 99.0), Ok(1980.0));
        assert_eq!(samples_beyond(99.0, 2000), 20);
        assert!(tail_percentile(&ramp(999), 99.0).is_err());
        assert!(tail_percentile(&ramp(1000), 99.0).is_ok());
    }

    #[test]
    fn non_tail_percentiles_are_refused() {
        assert!(tail_percentile(&ramp(5000), 50.0).is_err());
        assert!(tail_percentile(&ramp(5000), 100.0).is_err());
        assert!(tail_percentile(&[], 90.0).is_err());
    }

    #[test]
    fn residual_is_wall_minus_layers() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(1.0, &[]), 1.0);
        // Layers that overrun the wall clock show as a negative residual
        // rather than being clipped away.
        assert_eq!(residual(1.0, &[0.75, 0.5]), -0.25);
    }

    #[test]
    fn failed_share_counts_every_kind_of_failure() {
        let mut c = OpCount::default();
        for ok in [true, true, false, true, false] {
            c.record(ok);
        }
        assert_eq!(
            c,
            OpCount {
                attempted: 5,
                failed: 2
            }
        );
        assert_eq!(c.share(), Ok(0.4));
        assert_eq!(failed_share(3, 0), Ok(0.0));
        assert!(failed_share(0, 0).is_err());
        assert!(failed_share(2, 3).is_err());
    }
}
