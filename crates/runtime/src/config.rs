//! Runtime configuration knobs.

use crate::error::RuntimeError;
use cluster_sim::time::Duration;

/// Tunables of the dynamic module. Defaults follow the paper where it
/// states them (1000 µs smoothing slice, 200 ms matrix resolution, 0.5
/// white threshold in the matrix figures).
///
/// Fields remain public for struct-literal construction, but prefer the
/// `with_*` builder setters for anything range-sensitive: they validate at
/// construction time, so a zero slice or a zero buffer capacity fails with
/// a [`RuntimeError::InvalidConfig`] instead of corrupting a run midway.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Smoothing time-slice width (§5.1; 1000 µs default).
    pub slice: Duration,
    /// Normalized performance below this is reported as variance (the
    /// matrix figures paint < 0.5 white).
    pub variance_threshold: f64,
    /// Ranks flush their record buffers to the analysis server at this
    /// period (§5.4's batching).
    pub batch_interval: Duration,
    /// Time resolution of the performance matrix (Figure 14 uses 200 ms).
    /// A column spans whole slices: the resolution rounds down to a
    /// multiple of [`Self::slice`], and to one slice at the least.
    pub matrix_resolution: Duration,
    /// Maximum transmission attempts per batch (first send + retries);
    /// exhausted batches are dropped and counted, never blocked on.
    pub retry_budget: u32,
    /// Unsent/unacked batches buffered per rank; overflow drops the
    /// *oldest* batch (fresh telemetry beats stale under backpressure).
    pub buffer_capacity: usize,
    /// How often (in virtual arrival time) the streaming engine runs an
    /// incremental detection pass and emits new [`VarianceAlert`]s.
    ///
    /// [`VarianceAlert`]: crate::engine::VarianceAlert
    pub detect_interval: Duration,
    /// Liveness timeout in detection intervals: a rank that has sent at
    /// least one batch and then stays silent for this many consecutive
    /// [`Self::detect_interval`]s is declared dead (fail-stop) by the
    /// engine. A later arrival from the rank revokes a liveness-based
    /// verdict (transport outages look like silence too).
    pub liveness_intervals: u32,
    /// Instrumentation overhead budget as a fraction of elapsed virtual
    /// time (`0.02` = 2 %). When positive, the engine runs the server→rank
    /// control plane ([`crate::control`]): detect passes compare each
    /// rank's observed sensor cost against this budget and disable the
    /// heaviest sensors of over-budget ranks (re-enabling them once the
    /// rank falls back under half the budget). `0.0` (the default) turns
    /// the control plane off entirely — no controller, no directives, no
    /// polls; runs are bit-identical to builds without the feature.
    pub overhead_budget: f64,
    /// Smoothing slice width a rank drops to when the controller escalates
    /// it (a live [`VarianceAlert`] covered the rank). Must divide
    /// [`Self::slice`] evenly so escalated records still land in the same
    /// coarse slice indexing the server bins by.
    ///
    /// [`VarianceAlert`]: crate::engine::VarianceAlert
    pub escalation_slice: Duration,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            slice: Duration::from_micros(1000),
            variance_threshold: 0.5,
            batch_interval: Duration::from_millis(100),
            matrix_resolution: Duration::from_millis(200),
            retry_budget: 4,
            buffer_capacity: 32,
            detect_interval: Duration::from_millis(200),
            liveness_intervals: 3,
            overhead_budget: 0.0,
            escalation_slice: Duration::from_micros(250),
        }
    }
}

impl RuntimeConfig {
    /// Slice index containing a virtual instant.
    pub(crate) fn slice_index(&self, t: cluster_sim::time::VirtualTime) -> u64 {
        t.as_nanos() / self.slice.as_nanos().max(1)
    }

    /// Matrix column index containing a virtual instant: the column of
    /// the instant's slice. Records are binned by their slice, so an
    /// instant and a record starting in its slice share a column even
    /// when the resolution is not a whole number of slices.
    pub fn matrix_bin(&self, t: cluster_sim::time::VirtualTime) -> u64 {
        self.slice_index(t) / self.slices_per_bin()
    }

    /// Smoothing slices per matrix bin (the resolution rounded down to
    /// whole slices, at least one).
    pub fn slices_per_bin(&self) -> u64 {
        (self.matrix_resolution.as_nanos() / self.slice.as_nanos().max(1)).max(1)
    }

    /// Width of one matrix column: [`Self::slices_per_bin`] slices. Equals
    /// [`Self::matrix_resolution`] when that is a multiple of the slice.
    pub fn matrix_bin_width(&self) -> Duration {
        Duration::from_nanos(self.slices_per_bin() * self.slice.as_nanos())
    }

    /// Whether the server→rank control plane is active.
    pub fn control_enabled(&self) -> bool {
        self.overhead_budget > 0.0
    }

    /// Slice subdivision factor an escalated rank aggregates at: how many
    /// escalation slices fit in one coarse slice. 1 when escalation is
    /// configured as wide as the coarse slice (escalation is a no-op).
    pub fn escalation_subdiv(&self) -> u32 {
        (self.slice.as_nanos() / self.escalation_slice.as_nanos().max(1)).max(1) as u32
    }

    // ----- validating builder setters -----
    //
    // Each setter assigns and then runs the field's one range rule — the
    // same rule [`RuntimeConfig::validate`] runs for struct literals.

    /// Set the variance threshold. Must lie in `(0, 1]`.
    pub fn with_variance_threshold(mut self, threshold: f64) -> Result<Self, RuntimeError> {
        self.variance_threshold = threshold;
        self.check_variance_threshold()?;
        Ok(self)
    }

    /// Set the incremental detection cadence. Must be positive.
    pub fn with_detect_interval(mut self, interval: Duration) -> Result<Self, RuntimeError> {
        self.detect_interval = interval;
        positive("detect_interval", interval)?;
        Ok(self)
    }

    /// Set the rank→server batching period. Must be positive.
    pub fn with_batch_interval(mut self, interval: Duration) -> Result<Self, RuntimeError> {
        self.batch_interval = interval;
        positive("batch_interval", interval)?;
        Ok(self)
    }

    /// Set the per-rank transport buffer capacity. Must be at least 1.
    pub fn with_buffer_capacity(mut self, capacity: usize) -> Result<Self, RuntimeError> {
        self.buffer_capacity = capacity;
        at_least_one("buffer_capacity", capacity as u64)?;
        Ok(self)
    }

    /// Set the liveness timeout in detection intervals. Must be at least 1.
    pub fn with_liveness_intervals(mut self, intervals: u32) -> Result<Self, RuntimeError> {
        self.liveness_intervals = intervals;
        at_least_one("liveness_intervals", intervals as u64)?;
        Ok(self)
    }

    /// Set the instrumentation overhead budget (fraction of elapsed
    /// virtual time). Must lie in `[0, 1)`; `0` disables the control
    /// plane.
    pub fn with_overhead_budget(mut self, budget: f64) -> Result<Self, RuntimeError> {
        self.overhead_budget = budget;
        self.check_overhead_budget()?;
        Ok(self)
    }

    /// Set the escalated (fine) slice width. Must be positive, no wider
    /// than the coarse slice, and divide it evenly — escalated records
    /// keep the coarse slice indexing the server bins by.
    pub fn with_escalation_slice(mut self, fine: Duration) -> Result<Self, RuntimeError> {
        self.escalation_slice = fine;
        self.check_escalation_slice()?;
        Ok(self)
    }

    fn check_variance_threshold(&self) -> Result<(), RuntimeError> {
        if !(self.variance_threshold > 0.0 && self.variance_threshold <= 1.0) {
            return Err(RuntimeError::invalid_config(
                "variance_threshold",
                format!("{} is outside (0, 1]", self.variance_threshold),
            ));
        }
        Ok(())
    }

    fn check_overhead_budget(&self) -> Result<(), RuntimeError> {
        if !(0.0..1.0).contains(&self.overhead_budget) {
            return Err(RuntimeError::invalid_config(
                "overhead_budget",
                format!("{} is outside [0, 1)", self.overhead_budget),
            ));
        }
        Ok(())
    }

    fn check_escalation_slice(&self) -> Result<(), RuntimeError> {
        let (fine, coarse) = (self.escalation_slice.as_nanos(), self.slice.as_nanos());
        positive("escalation_slice", self.escalation_slice)?;
        if fine > coarse || !coarse.is_multiple_of(fine) {
            return Err(RuntimeError::invalid_config(
                "escalation_slice",
                format!("{fine} ns must evenly divide the coarse slice ({coarse} ns)"),
            ));
        }
        Ok(())
    }

    /// Check every range constraint at once; the analysis server runs this
    /// on construction so a hand-built struct literal with a bad value
    /// still fails before the run starts.
    pub fn validate(&self) -> Result<(), RuntimeError> {
        positive("slice", self.slice)?;
        positive("matrix_resolution", self.matrix_resolution)?;
        self.check_variance_threshold()?;
        positive("detect_interval", self.detect_interval)?;
        // The controller divides by the batch interval; the transport
        // needs room for the batch it was just handed and one send of it.
        positive("batch_interval", self.batch_interval)?;
        at_least_one("buffer_capacity", self.buffer_capacity as u64)?;
        at_least_one("retry_budget", self.retry_budget as u64)?;
        at_least_one("liveness_intervals", self.liveness_intervals as u64)?;
        self.check_overhead_budget()?;
        // With the control plane off, escalation can never fire: the
        // knob is inert, and a hand-set coarse slice must not be
        // rejected against a default it never uses.
        if self.control_enabled() {
            self.check_escalation_slice()?;
        }
        Ok(())
    }
}

fn positive(field: &'static str, value: Duration) -> Result<(), RuntimeError> {
    if value.as_nanos() == 0 {
        return Err(RuntimeError::invalid_config(field, "must be > 0"));
    }
    Ok(())
}

fn at_least_one(field: &'static str, value: u64) -> Result<(), RuntimeError> {
    if value == 0 {
        return Err(RuntimeError::invalid_config(field, "must be >= 1"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::time::VirtualTime;

    #[test]
    fn defaults_match_paper_constants() {
        let c = RuntimeConfig::default();
        assert_eq!(c.slice.as_micros(), 1000);
        assert_eq!(c.matrix_resolution.as_nanos(), 200_000_000);
        assert!((c.variance_threshold - 0.5).abs() < 1e-12);
        c.validate().expect("defaults are valid");
    }

    #[test]
    fn slice_indexing() {
        let c = RuntimeConfig::default();
        assert_eq!(c.slice_index(VirtualTime::from_micros(999)), 0);
        assert_eq!(c.slice_index(VirtualTime::from_micros(1000)), 1);
        assert_eq!(c.slice_index(VirtualTime::from_micros(2500)), 2);
    }

    #[test]
    fn matrix_binning() {
        let c = RuntimeConfig::default();
        assert_eq!(c.matrix_bin(VirtualTime::from_millis(199)), 0);
        assert_eq!(c.matrix_bin(VirtualTime::from_millis(200)), 1);
        assert_eq!(c.slices_per_bin(), 200);
    }

    #[test]
    fn builders_accept_valid_values() {
        let c = RuntimeConfig::default()
            .with_variance_threshold(0.7)
            .and_then(|c| c.with_detect_interval(Duration::from_millis(50)))
            .and_then(|c| c.with_batch_interval(Duration::from_millis(20)))
            .and_then(|c| c.with_buffer_capacity(64))
            .expect("all valid");
        assert_eq!(c.variance_threshold, 0.7);
        assert_eq!(c.buffer_capacity, 64);
    }

    #[test]
    fn builders_reject_out_of_range_values() {
        assert!(RuntimeConfig::default()
            .with_variance_threshold(0.0)
            .is_err());
        assert!(RuntimeConfig::default()
            .with_variance_threshold(1.5)
            .is_err());
        assert!(RuntimeConfig::default()
            .with_detect_interval(Duration::ZERO)
            .is_err());
        assert!(RuntimeConfig::default().with_buffer_capacity(0).is_err());
        assert!(RuntimeConfig::default().with_liveness_intervals(0).is_err());
        for c in [
            RuntimeConfig {
                slice: Duration::ZERO,
                ..Default::default()
            },
            RuntimeConfig {
                matrix_resolution: Duration::ZERO,
                ..Default::default()
            },
        ] {
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn failstop_knobs_default_and_build() {
        let c = RuntimeConfig::default();
        assert_eq!(c.liveness_intervals, 3);
        let c = c.with_liveness_intervals(5).expect("valid");
        assert_eq!(c.liveness_intervals, 5);
        c.validate().expect("still valid");
    }

    #[test]
    fn control_knobs_default_to_off_and_build() {
        let c = RuntimeConfig::default();
        assert!(!c.control_enabled(), "zero budget = control plane off");
        assert!((c.overhead_budget - 0.0).abs() < 1e-12);
        assert_eq!(c.escalation_slice.as_micros(), 250);
        assert_eq!(c.escalation_subdiv(), 4, "1000us / 250us");
        c.validate().expect("defaults are valid");

        let c = c
            .with_overhead_budget(0.05)
            .and_then(|c| c.with_escalation_slice(Duration::from_micros(125)))
            .expect("valid control knobs");
        assert!(c.control_enabled());
        assert_eq!(c.escalation_subdiv(), 8);
        c.validate().expect("still valid");
    }

    #[test]
    fn overhead_budget_bounds_are_enforced() {
        // Budget must be a fraction of elapsed time: [0, 1).
        assert!(RuntimeConfig::default().with_overhead_budget(-0.1).is_err());
        assert!(RuntimeConfig::default().with_overhead_budget(1.0).is_err());
        assert!(RuntimeConfig::default().with_overhead_budget(7.5).is_err());
        assert!(RuntimeConfig::default().with_overhead_budget(0.0).is_ok());
        assert!(RuntimeConfig::default().with_overhead_budget(0.999).is_ok());
        let bad = RuntimeConfig {
            overhead_budget: 2.0,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("overhead_budget"), "{err}");
    }

    #[test]
    fn escalation_slice_must_divide_the_coarse_slice() {
        // 300us does not divide 1000us; 1250us is wider than the slice.
        assert!(RuntimeConfig::default()
            .with_escalation_slice(Duration::from_micros(300))
            .is_err());
        assert!(RuntimeConfig::default()
            .with_escalation_slice(Duration::from_micros(1250))
            .is_err());
        assert!(RuntimeConfig::default()
            .with_escalation_slice(Duration::ZERO)
            .is_err());
        // Equal width is legal (escalation becomes a no-op, subdiv 1).
        let c = RuntimeConfig::default()
            .with_escalation_slice(Duration::from_micros(1000))
            .expect("equal width divides");
        assert_eq!(c.escalation_subdiv(), 1);
        // Divisibility is re-checked against the *current* slice.
        let c = RuntimeConfig {
            slice: Duration::from_micros(600),
            ..Default::default()
        }
        .with_escalation_slice(Duration::from_micros(200))
        .expect("200 divides 600");
        assert_eq!(c.escalation_subdiv(), 3);
        let bad = RuntimeConfig {
            escalation_slice: Duration::from_micros(700),
            overhead_budget: 0.02,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("escalation_slice"), "{err}");
        // With the control plane disarmed the knob is inert: a hand-set
        // coarse slice the default escalation width doesn't divide must
        // still validate (the ablation sweeps do exactly this).
        let inert = RuntimeConfig {
            slice: Duration::from_micros(10),
            ..Default::default()
        };
        assert!(inert.validate().is_ok());
    }

    #[test]
    fn validate_catches_hand_built_invalid_configs() {
        // A zero batch interval would reach the controller's budget-rate
        // division; a zero buffer cannot hold the batch just enqueued.
        let bad = RuntimeConfig {
            batch_interval: Duration::ZERO,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("batch_interval"), "{err}");
        let bad = RuntimeConfig {
            buffer_capacity: 0,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("buffer_capacity"), "{err}");
        // A batch needs at least its first send.
        let bad = RuntimeConfig {
            retry_budget: 0,
            ..Default::default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("retry_budget"), "{err}");
    }
}
