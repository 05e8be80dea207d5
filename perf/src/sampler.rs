//! The one sampler every workload uses: a discarded warm-up, fixed-size
//! timed repetitions, order statistics, and a percentile helper that
//! refuses to name a percentile the sample cannot support.
//!
//! Work per repetition is fixed by the workload; only the *number* of
//! repetitions follows the `--seconds` budget, so a faster program gets
//! more samples of the same work, never different work.

use std::time::{Duration, Instant};

/// Order statistics of one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Linear-interpolated quantile of an ascending slice (`p` in `[0, 1]`).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ascending(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median, quartiles, extremes and count. `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let sorted = ascending(samples);
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    })
}

/// Median of a non-empty sample; 0 for an empty one (a metric that does
/// not apply to the workload).
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (`0 < p < 100`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it — a p99 of 300 samples is three
/// points, not a tail.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (100.0 - p) / 100.0).floor() as usize;
    if beyond < MIN_BEYOND {
        return None;
    }
    let sorted = ascending(samples);
    Some(sorted[sorted.len() - 1 - beyond])
}

/// Run timed repetitions of `rep` until `budget` has been spent inside
/// them, and at least `min_reps`. The caller runs (and discards) its
/// reduced-size warm-up repetition first.
pub fn repeat<T>(budget: Duration, min_reps: usize, mut rep: impl FnMut(usize) -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || started.elapsed() < budget {
        out.push(rep(out.len()));
    }
    out
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Set-up is cheap next to a repetition, so it is run many times and its
/// median reported: at least `MIN` times, then until a quarter second is
/// spent or `MAX` samples are taken. A microsecond set-up is thereby
/// sampled for a tenth of a second, not for the first two milliseconds of
/// the process, when the core is still cold (those read 60 % slower in
/// one process out of three).
pub fn sample_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    const MIN: usize = 5;
    const MAX: usize = 20_000;
    let started = Instant::now();
    let (mut last, first) = timed(&mut setup);
    let mut samples = vec![first];
    while samples.len() < MIN
        || (samples.len() < MAX && started.elapsed() < Duration::from_millis(250))
    {
        let (value, secs) = timed(&mut setup);
        last = value;
        samples.push(secs);
    }
    (last, samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(
            s,
            Summary {
                n: 5,
                min: 1.0,
                q1: 2.0,
                median: 3.0,
                q3: 4.0,
                max: 5.0
            }
        );
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sample: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&sample, 99.0), Some(989.0));
        assert_eq!(percentile(&sample[..999], 99.0), None, "9 beyond");
        assert_eq!(percentile(&sample[..100], 90.0), Some(89.0));
        assert_eq!(percentile(&sample[..100], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn repeat_honours_the_floor_and_the_budget() {
        let reps = repeat(Duration::ZERO, 3, |i| i);
        assert_eq!(reps, vec![0, 1, 2]);
        let started = Instant::now();
        let reps = repeat(Duration::from_millis(30), 1, |_| {
            std::thread::sleep(Duration::from_millis(10))
        });
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!((1..=3).contains(&reps.len()), "{}", reps.len());
    }

    #[test]
    fn setup_is_sampled_at_least_five_times() {
        let mut calls = 0;
        let (last, samples) = sample_setup(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(60));
            calls
        });
        assert_eq!(samples.len(), 5);
        assert_eq!(last, 5);
    }
}
