//! Deterministic statistics for judging a series of runs.
//!
//! The CI perf gate's fixed 25% tolerance band is the "magic number"
//! failure mode: the right band depends on how noisy the series actually
//! is. This module supplies the variance-aware replacement that
//! `repro gate --stats` judges its history with:
//!
//! - **Welch's t-test** ([`welch_t`]) for "are these two samples drawn
//!   from the same mean", with the two-sided p-value computed from the
//!   regularized incomplete beta function — no stats crate, everything
//!   hand-rolled and fixture-tested.
//! - **MAD dispersion** ([`mad`], [`scaled_mad`]): the median absolute
//!   deviation is robust to the outliers that performance series always
//!   contain, where a standard deviation would be dragged by them.
//! - **Change-point detection** ([`change_point`], [`detect_shift`]): an
//!   E-divisive-style binary segmentation that scans every split point of
//!   a scalar series for the maximum-|t| split, Bonferroni-corrects the
//!   p-value for having tried every split, and only reports a shift that
//!   is both statistically significant *and* practically large
//!   ([`ShiftPolicy::min_rel_shift`]). The practical-effect floor is what
//!   makes the verdict permutation-sane: pure multiple-testing correction
//!   still false-fires at the family-wise rate, but seed-level noise can
//!   never fake a 5% mean shift.
//!
//! Everything here is plain `f64` arithmetic folded in a fixed order, so
//! results are bitwise reproducible across runs and machines with the same
//! floating-point semantics — the same determinism standard the rest of
//! the repo holds (`f64::to_bits` comparisons in the recovery suites).

/// Arithmetic mean, folded left-to-right (fixed order ⇒ reproducible).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator); 0.0 for fewer than two
/// samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Median (total-order sort, so NaN inputs cannot poison the comparison).
/// `None` on an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Median absolute deviation from the median. `None` on an empty slice.
pub fn mad(xs: &[f64]) -> Option<f64> {
    let m = median(xs)?;
    let devs: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&devs)
}

/// Consistency constant making the MAD estimate the standard deviation of
/// a normal distribution: `σ ≈ 1.4826 × MAD`.
pub const MAD_SCALE: f64 = 1.4826;

/// MAD scaled to be comparable with a normal standard deviation.
pub fn scaled_mad(xs: &[f64]) -> Option<f64> {
    mad(xs).map(|m| m * MAD_SCALE)
}

/// A Welch two-sample t-test result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Welch {
    /// The t statistic (`mean(a) − mean(b)` over the pooled standard
    /// error); `±inf` when both samples are exactly constant but differ.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value under the Student t distribution.
    pub p: f64,
}

/// Welch's unequal-variance t-test between two samples. `None` when either
/// sample has fewer than two points (no variance estimate exists).
pub fn welch_t(a: &[f64], b: &[f64]) -> Option<Welch> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        // Both samples exactly constant: identical means are maximally
        // unsurprising, different means maximally surprising.
        return Some(if ma == mb {
            Welch {
                t: 0.0,
                df: na + nb - 2.0,
                p: 1.0,
            }
        } else {
            Welch {
                t: if ma > mb {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                },
                df: na + nb - 2.0,
                p: 0.0,
            }
        });
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    Some(Welch {
        t,
        df,
        p: student_t_two_sided(t, df),
    })
}

/// Two-sided p-value of a t statistic with `df` degrees of freedom:
/// `p = I_{df/(df+t²)}(df/2, 1/2)` via the regularized incomplete beta.
pub fn student_t_two_sided(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return 0.0;
    }
    if df.is_nan() || df <= 0.0 {
        return 1.0;
    }
    reg_inc_beta(df / 2.0, 0.5, df / (df + t * t)).clamp(0.0, 1.0)
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const PI: f64 = std::f64::consts::PI;
    if x < 0.5 {
        // Reflection formula keeps the half-integer arguments we use exact
        // enough; the beta arguments here are always ≥ 0.5 anyway.
        (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = 0.999_999_999_999_809_9;
        for (i, c) in COEF.iter().enumerate() {
            acc += c / (x + i as f64 + 1.0);
        }
        let t = x + 7.5;
        0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// Continued fraction for the incomplete beta (Lentz's algorithm).
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-14;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let mf = m as f64;
        let m2 = 2.0 * mf;
        let aa = mf * (b - mf) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularized incomplete beta function `I_x(a, b)`.
pub fn reg_inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Continued fraction converges fast for x below the mean a/(a+b);
    // use the symmetry I_x(a,b) = 1 − I_{1−x}(b,a) above it.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// The best split of a series into two mean regimes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChangePoint {
    /// First index of the *after* segment (`series[..index]` vs
    /// `series[index..]`).
    pub index: usize,
    /// Welch t statistic at the split.
    pub t: f64,
    /// Bonferroni-adjusted two-sided p-value (multiplied by the number of
    /// candidate splits tried, clamped to 1) — correcting for having
    /// searched every split for the most extreme one.
    pub p: f64,
    /// Mean of the segment before the split.
    pub before_mean: f64,
    /// Mean of the segment after the split.
    pub after_mean: f64,
}

/// E-divisive-style single change-point scan: the split with the largest
/// |t| between its two segments, with segments shorter than `min_segment`
/// (floored at 2 — a variance needs two points) never considered. `None`
/// when the series is too short to split.
pub fn change_point(series: &[f64], min_segment: usize) -> Option<ChangePoint> {
    let min_seg = min_segment.max(2);
    let n = series.len();
    if n < 2 * min_seg {
        return None;
    }
    let num_splits = (n - 2 * min_seg + 1) as f64;
    let mut best: Option<ChangePoint> = None;
    for k in min_seg..=(n - min_seg) {
        let Some(w) = welch_t(&series[..k], &series[k..]) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| w.t.abs() > b.t.abs()) {
            best = Some(ChangePoint {
                index: k,
                t: w.t,
                p: (w.p * num_splits).min(1.0),
                before_mean: mean(&series[..k]),
                after_mean: mean(&series[k..]),
            });
        }
    }
    best
}

/// When is a change-point a *verdict* rather than a curiosity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ShiftPolicy {
    /// Bonferroni-adjusted p must fall below this.
    pub p_threshold: f64,
    /// The between-segment mean shift must be at least this fraction of
    /// the before-segment mean — the practical-effect floor that keeps
    /// seed-level noise from ever flagging, regardless of p.
    pub min_rel_shift: f64,
    /// Shortest segment a split may produce.
    pub min_segment: usize,
}

impl Default for ShiftPolicy {
    fn default() -> Self {
        ShiftPolicy {
            p_threshold: 0.01,
            min_rel_shift: 0.05,
            min_segment: 2,
        }
    }
}

/// The change-point of `series` if it clears both bars of `policy`
/// (significance *and* practical effect); `None` otherwise.
pub fn detect_shift(series: &[f64], policy: &ShiftPolicy) -> Option<ChangePoint> {
    let cp = change_point(series, policy.min_segment)?;
    if cp.p >= policy.p_threshold {
        return None;
    }
    let base = cp.before_mean.abs().max(f64::MIN_POSITIVE);
    let rel = (cp.after_mean - cp.before_mean).abs() / base;
    (rel >= policy.min_rel_shift).then_some(cp)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64 — the deterministic PRNG the property tests seed.
    struct Rng(u64);

    impl Rng {
        fn new(seed: u64) -> Self {
            Rng(seed.max(1))
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        /// Uniform in [0, 1).
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn shuffle(&mut self, xs: &mut [f64]) {
            for i in (1..xs.len()).rev() {
                let j = (self.next() % (i as u64 + 1)) as usize;
                xs.swap(i, j);
            }
        }
    }

    #[test]
    fn mean_and_variance_fixtures() {
        assert_eq!(mean(&[1.0, 2.0, 3.0, 4.0, 5.0]), 3.0);
        assert_eq!(variance(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.5);
        assert_eq!(variance(&[7.0]), 0.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn median_and_mad_fixtures() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // Hand-computed: median 3, |deviations| = [2,1,0,1,97], MAD = 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
        assert_eq!(scaled_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(MAD_SCALE));
    }

    #[test]
    fn welch_fixture_matches_hand_computation() {
        // Equal variances 2.5, n = 5 each, means 3 vs 4:
        // se = sqrt(2.5/5 + 2.5/5) = 1, t = -1, df = 8 exactly,
        // two-sided p = 0.34659... (table value for |t|=1, df=8).
        let w = welch_t(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert!((w.t + 1.0).abs() < 1e-12, "{w:?}");
        assert!((w.df - 8.0).abs() < 1e-9, "{w:?}");
        assert!((w.p - 0.3466).abs() < 1e-3, "{w:?}");
    }

    #[test]
    fn t_distribution_critical_values() {
        // Classic table entries: t_{0.975, 10} = 2.2281, t_{0.995, 30} = 2.7500.
        assert!((student_t_two_sided(2.2281, 10.0) - 0.05).abs() < 1e-3);
        assert!((student_t_two_sided(2.7500, 30.0) - 0.01).abs() < 1e-3);
        // Symmetry and limits.
        assert_eq!(
            student_t_two_sided(1.5, 12.0),
            student_t_two_sided(-1.5, 12.0)
        );
        assert_eq!(student_t_two_sided(0.0, 5.0), 1.0);
        assert!(student_t_two_sided(50.0, 20.0) < 1e-9);
    }

    #[test]
    fn identical_constant_samples_do_not_reject() {
        let w = welch_t(&[2.0, 2.0, 2.0], &[2.0, 2.0]).unwrap();
        assert_eq!(w.p, 1.0);
        assert_eq!(w.t, 0.0);
        let w = welch_t(&[1.0, 1.0], &[2.0, 2.0]).unwrap();
        assert_eq!(w.p, 0.0);
        assert!(w.t.is_infinite());
    }

    #[test]
    fn change_point_finds_a_clean_step() {
        let series = [1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0];
        let cp = change_point(&series, 2).unwrap();
        assert_eq!(cp.index, 4);
        assert_eq!(cp.before_mean, 1.0);
        assert_eq!(cp.after_mean, 2.0);
        assert!(cp.p < 0.01, "{cp:?}");
    }

    #[test]
    fn change_point_needs_enough_points() {
        assert!(change_point(&[1.0, 2.0, 3.0], 2).is_none());
        assert!(change_point(&[1.0, 2.0, 3.0, 4.0], 3).is_none());
    }

    #[test]
    fn detect_shift_requires_practical_effect() {
        // Statistically unambiguous (zero within-segment variance) but a
        // 1% shift: significance without substance must not flag.
        let series = [1.0, 1.0, 1.0, 1.0, 1.01, 1.01, 1.01, 1.01];
        assert!(change_point(&series, 2).unwrap().p < 0.01);
        assert!(detect_shift(&series, &ShiftPolicy::default()).is_none());
        // A 50% shift with the same shape flags.
        let series = [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5];
        let cp = detect_shift(&series, &ShiftPolicy::default()).unwrap();
        assert_eq!(cp.index, 4);
    }

    /// A noise-only series (±2% around 1.0) never flags at p < 0.01 with
    /// the 5% effect floor, across 1000 seeded shuffles — the verdict is
    /// permutation-sane.
    #[test]
    fn property_no_shift_never_flags_across_1000_shuffles() {
        let mut rng = Rng::new(42);
        let base: Vec<f64> = (0..30).map(|_| 1.0 + 0.04 * (rng.f64() - 0.5)).collect();
        let policy = ShiftPolicy::default();
        for seed in 1..=1000u64 {
            let mut shuffled = base.clone();
            Rng::new(seed).shuffle(&mut shuffled);
            assert!(
                detect_shift(&shuffled, &policy).is_none(),
                "false positive on shuffle seed {seed}: {:?}",
                change_point(&shuffled, policy.min_segment)
            );
        }
    }

    /// An injected 2× step (normalized performance halves after index k)
    /// is detected and localized to within ±2 of k.
    #[test]
    fn property_injected_step_is_localized() {
        let policy = ShiftPolicy::default();
        for &k in &[5usize, 10, 20, 35] {
            for seed in 1..=50u64 {
                let mut rng = Rng::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(k as u64));
                let series: Vec<f64> = (0..40)
                    .map(|i| {
                        let level = if i < k { 1.0 } else { 0.5 };
                        level * (1.0 + 0.04 * (rng.f64() - 0.5))
                    })
                    .collect();
                let cp = detect_shift(&series, &policy)
                    .unwrap_or_else(|| panic!("missed step at {k}, seed {seed}"));
                assert!(
                    cp.index.abs_diff(k) <= 2,
                    "step at {k} localized to {} (seed {seed})",
                    cp.index
                );
                assert!(cp.after_mean < cp.before_mean);
            }
        }
    }
}
