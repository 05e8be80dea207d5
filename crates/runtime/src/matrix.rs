//! The performance matrix (§5.5, Figure 14).
//!
//! A time × rank grid of normalized performance per component type. Deep
//! blue (1.0) is the best observed performance; values toward 0.5 and
//! below render white in the paper's figures and mark variance. Cells with
//! no senses hold `NaN` and are rendered as gaps.
//!
//! A fail-stopped rank's cells are *dead* from its death bin onward: masked
//! out of detection and rendering like empty cells, never conflated with
//! 0%-performance variance.

use cluster_sim::time::Duration;

/// A dense time × rank grid of normalized performance values.
#[derive(Clone, Debug)]
pub struct PerformanceMatrix {
    ranks: usize,
    bins: usize,
    resolution: Duration,
    /// Row-major `[rank][bin]`: sum of normalized perf and count, so cells
    /// average incrementally. Both stay empty until the first observation
    /// lands, so a kind with no sensors (most programs do no I/O) costs
    /// no cells in a result.
    sums: Vec<f64>,
    counts: Vec<u32>,
    /// Per rank: first bin from which the rank is dead, if it fail-stopped.
    dead_from: Vec<Option<u64>>,
}

impl PerformanceMatrix {
    /// Create an empty matrix.
    pub fn new(ranks: usize, bins: usize, resolution: Duration) -> Self {
        PerformanceMatrix {
            ranks,
            bins,
            resolution,
            sums: Vec::new(),
            counts: Vec::new(),
            dead_from: vec![None; ranks],
        }
    }

    /// Mark `rank` as fail-stopped from `from_bin` onward: those cells are
    /// masked ([`Self::cell`] returns `None`) so a dead rank can never read
    /// as variance.
    /// Repeated marks keep the earliest bin.
    pub fn mark_dead(&mut self, rank: usize, from_bin: u64) {
        if rank >= self.ranks {
            return;
        }
        let prev = self.dead_from[rank];
        self.dead_from[rank] = Some(prev.map_or(from_bin, |b| b.min(from_bin)));
    }

    /// First bin from which `rank` is dead, if it fail-stopped.
    pub fn dead_from(&self, rank: usize) -> Option<u64> {
        self.dead_from.get(rank).copied().flatten()
    }

    fn is_dead_cell(&self, rank: usize, bin: usize) -> bool {
        self.dead_from[rank].is_some_and(|from| bin as u64 >= from)
    }

    /// Number of ranks (rows).
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Number of time bins (columns).
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Time width of one bin.
    pub fn resolution(&self) -> Duration {
        self.resolution
    }

    /// Accumulate one observation into a cell. Out-of-range bins are
    /// ignored (records can trickle in slightly past the nominal end).
    pub fn add(&mut self, rank: usize, bin: u64, perf: f64) {
        self.add_aggregate(rank, bin, perf, 1);
    }

    /// Accumulate a pre-folded aggregate — `sum` over `count` observations —
    /// into a cell in one step. The streaming engine folds whole cell
    /// accumulators through here at close time; `add(r, b, p)` is the
    /// `count == 1` special case. Out-of-range cells are ignored, matching
    /// [`PerformanceMatrix::add`].
    pub fn add_aggregate(&mut self, rank: usize, bin: u64, sum: f64, count: u32) {
        let bin = bin as usize;
        if rank >= self.ranks || bin >= self.bins || count == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.sums = vec![0.0; self.ranks * self.bins];
            self.counts = vec![0; self.ranks * self.bins];
        }
        let i = rank * self.bins + bin;
        self.sums[i] += sum;
        self.counts[i] += count;
    }

    /// Average normalized performance of a cell; `None` if the cell holds
    /// no data, lies outside the grid, or belongs to a rank's dead region
    /// (masked — see [`Self::mark_dead`]).
    pub fn cell(&self, rank: usize, bin: usize) -> Option<f64> {
        if rank >= self.ranks || bin >= self.bins || self.is_dead_cell(rank, bin) {
            return None;
        }
        let i = rank * self.bins + bin;
        match self.counts.get(i) {
            None | Some(0) => None,
            Some(&n) => Some(self.sums[i] / n as f64),
        }
    }

    /// Raw `(sum, count)` of a cell — what equivalence tests compare, since
    /// it avoids the division. `None` outside the grid. Deliberately *not*
    /// death-masked: bitwise oracles compare the underlying accumulators.
    pub fn cell_raw(&self, rank: usize, bin: usize) -> Option<(f64, u32)> {
        if rank >= self.ranks || bin >= self.bins {
            return None;
        }
        let i = rank * self.bins + bin;
        Some(self.counts.get(i).map_or((0.0, 0), |&n| (self.sums[i], n)))
    }

    /// Mean performance over all populated, non-dead cells (1.0 =
    /// perfectly stable).
    pub fn mean(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0usize;
        for rank in 0..self.ranks {
            for bin in 0..self.bins {
                if let Some(p) = self.cell(rank, bin) {
                    total += p;
                    n += 1;
                }
            }
        }
        if n == 0 {
            1.0
        } else {
            total / n as f64
        }
    }

    /// Fraction of populated, non-dead cells below `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        let mut below = 0usize;
        let mut n = 0usize;
        for rank in 0..self.ranks {
            for bin in 0..self.bins {
                if let Some(p) = self.cell(rank, bin) {
                    n += 1;
                    if p < threshold {
                        below += 1;
                    }
                }
            }
        }
        if n == 0 {
            0.0
        } else {
            below as f64 / n as f64
        }
    }

    /// Export as CSV: `rank,bin,time_s,perf` rows for populated cells.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("rank,bin,time_s,perf\n");
        let bin_s = self.resolution.as_secs_f64();
        for rank in 0..self.ranks {
            for bin in 0..self.bins {
                if let Some(p) = self.cell(rank, bin) {
                    let _ = writeln!(out, "{rank},{bin},{:.4},{p:.4}", bin as f64 * bin_s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_average_observations() {
        let mut m = PerformanceMatrix::new(4, 10, Duration::from_millis(200));
        m.add(1, 3, 0.8);
        m.add(1, 3, 0.4);
        assert!((m.cell(1, 3).unwrap() - 0.6).abs() < 1e-12);
        assert_eq!(m.cell(0, 0), None);
    }

    #[test]
    fn out_of_range_is_ignored() {
        let mut m = PerformanceMatrix::new(2, 2, Duration::from_millis(200));
        m.add(5, 0, 1.0);
        m.add(0, 99, 1.0);
        assert_eq!(m.cell(5, 0), None);
        assert_eq!(m.cell_raw(0, 99), None);
    }

    #[test]
    fn aggregates_fold_like_single_observations() {
        let mut one = PerformanceMatrix::new(2, 4, Duration::from_millis(200));
        one.add(1, 2, 0.8);
        one.add(1, 2, 0.4);
        one.add(1, 2, 0.6);
        let mut agg = PerformanceMatrix::new(2, 4, Duration::from_millis(200));
        agg.add_aggregate(1, 2, 0.8 + 0.4 + 0.6, 3);
        assert_eq!(one.cell_raw(1, 2), agg.cell_raw(1, 2));
        // A zero-count aggregate is a no-op, not a populated empty cell.
        agg.add_aggregate(0, 0, 0.0, 0);
        assert_eq!(agg.cell(0, 0), None);
    }

    #[test]
    fn fraction_below_flags_bad_cells() {
        let mut m = PerformanceMatrix::new(2, 2, Duration::from_millis(200));
        m.add(0, 0, 1.0);
        m.add(0, 1, 0.9);
        m.add(1, 0, 0.3);
        m.add(1, 1, 0.4);
        assert!((m.fraction_below(0.5) - 0.5).abs() < 1e-12);
        assert!((m.mean() - 0.65).abs() < 1e-12);
    }

    #[test]
    fn csv_lists_populated_cells_only() {
        let mut m = PerformanceMatrix::new(2, 3, Duration::from_millis(200));
        m.add(0, 0, 1.0);
        m.add(1, 2, 0.5);
        let csv = m.to_csv();
        assert!(csv.starts_with("rank,bin,time_s,perf\n"));
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv.contains("1,2,0.4000,0.5000"));
    }

    #[test]
    fn dead_cells_are_masked_not_slow() {
        let mut m = PerformanceMatrix::new(2, 4, Duration::from_millis(200));
        for bin in 0..4 {
            m.add(0, bin, 1.0);
            m.add(1, bin, 1.0);
        }
        // Rank 1 dies in bin 2; a residual (reordered) observation that
        // already landed there must not surface as 0%-performance.
        m.mark_dead(1, 2);
        assert_eq!(m.cell(1, 1), Some(1.0), "pre-death cells intact");
        assert_eq!(m.cell(1, 2), None, "dead cells are masked");
        assert!(m.is_dead_cell(1, 2) && m.is_dead_cell(1, 3));
        assert!(!m.is_dead_cell(1, 1) && !m.is_dead_cell(0, 2));
        assert_eq!(m.cell(0, 2), Some(1.0));
        // Raw accumulators stay visible for bitwise oracles.
        assert_eq!(m.cell_raw(1, 2), Some((1.0, 1)));
        // Aggregates skip dead cells.
        assert_eq!(m.fraction_below(0.5), 0.0);
        // Earliest death bin wins on repeated marks.
        m.mark_dead(1, 3);
        assert_eq!(m.dead_from(1), Some(2));
        m.mark_dead(1, 0);
        assert_eq!(m.dead_from(1), Some(0));
        // Out-of-range marks are ignored.
        m.mark_dead(9, 0);
        assert_eq!(m.dead_from(0), None);
    }

    #[test]
    fn empty_matrix_defaults() {
        let m = PerformanceMatrix::new(3, 3, Duration::from_millis(200));
        assert_eq!(m.mean(), 1.0);
        assert_eq!(m.fraction_below(0.5), 0.0);
        assert_eq!(m.cell(1, 1), None);
        assert_eq!(
            m.cell_raw(1, 1),
            Some((0.0, 0)),
            "in-grid cells read as empty"
        );
        assert_eq!(m.cell_raw(3, 0), None);
        assert_eq!(m.to_csv(), "rank,bin,time_s,perf\n");
        assert!(
            m.sums.is_empty() && m.counts.is_empty(),
            "no cells until one is written"
        );
    }
}
