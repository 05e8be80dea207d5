//! Variance-event extraction.
//!
//! Turns a performance matrix into a coarse list of events: contiguous
//! rectangles of cells below the threshold, labelled with their component
//! type, rank range and time range. This is the "white blocks" reading of
//! Figures 20-22: the position tells *when* and *where*, the component
//! tells *what* degraded.

use crate::error::RuntimeError;
use crate::matrix::PerformanceMatrix;
use crate::record::SensorKind;
use std::fmt;

/// One detected variance region.
#[derive(Clone, Debug, PartialEq)]
pub struct VarianceEvent {
    /// Component that degraded.
    pub kind: SensorKind,
    /// First affected rank.
    pub first_rank: usize,
    /// Last affected rank (inclusive).
    pub last_rank: usize,
    /// First affected matrix bin.
    pub start_bin: usize,
    /// Last affected matrix bin (exclusive).
    pub end_bin: usize,
    /// Mean normalized performance inside the region (severity: lower is
    /// worse).
    pub mean_perf: f64,
    /// Number of matrix cells in the region that were below threshold.
    pub cells: usize,
}

impl VarianceEvent {
    /// Whether the event spans (almost) the entire run — the signature of a
    /// bad node rather than a transient problem.
    pub fn is_persistent(&self, total_bins: usize) -> bool {
        (self.end_bin - self.start_bin) * 10 >= total_bins * 8
    }
}

impl fmt::Display for VarianceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] ranks {}..={} bins {}..{} perf {:.2}",
            self.kind.label(),
            self.first_rank,
            self.last_rank,
            self.start_bin,
            self.end_bin,
            self.mean_perf
        )
    }
}

/// Extract variance events from one matrix.
///
/// Algorithm: per rank, find maximal runs of below-threshold cells
/// (tolerating single-cell gaps); then merge runs of adjacent ranks whose
/// time ranges overlap, growing rectangles greedily. Coarse by design — the
/// paper positions vSensor as the always-on detector that tells the user
/// where to point heavier tools.
///
/// A zero-rank or zero-bin matrix is a caller bug (nothing was ever
/// measured), reported as [`RuntimeError::EmptyMatrix`] rather than a
/// silent empty answer.
pub fn detect_events(
    matrix: &PerformanceMatrix,
    kind: SensorKind,
    threshold: f64,
) -> Result<Vec<VarianceEvent>, RuntimeError> {
    if matrix.ranks() == 0 || matrix.bins() == 0 {
        return Err(RuntimeError::EmptyMatrix {
            ranks: matrix.ranks(),
            bins: matrix.bins(),
        });
    }
    // 1. Per-rank runs.
    #[derive(Clone, Debug)]
    struct Run {
        rank: usize,
        start: usize,
        end: usize,
        sum: f64,
        cells: usize,
    }
    let mut runs: Vec<Run> = Vec::new();
    for rank in 0..matrix.ranks() {
        let mut open: Option<Run> = None;
        let mut gap = 0usize;
        for bin in 0..matrix.bins() {
            let below_perf = matrix.cell(rank, bin).filter(|&p| p < threshold);
            if let Some(perf) = below_perf {
                match &mut open {
                    Some(run) => {
                        run.end = bin + 1;
                        run.sum += perf;
                        run.cells += 1;
                    }
                    None => {
                        open = Some(Run {
                            rank,
                            start: bin,
                            end: bin + 1,
                            sum: perf,
                            cells: 1,
                        });
                    }
                }
                gap = 0;
            } else if let Some(run) = &open {
                gap += 1;
                if gap > 1 {
                    runs.push(run.clone());
                    open = None;
                }
            }
        }
        runs.extend(open);
    }

    // 2. Merge overlapping runs across adjacent ranks (union-find-light:
    // greedy sweep by rank).
    let mut events: Vec<VarianceEvent> = Vec::new();
    'runs: for run in runs {
        for ev in &mut events {
            let rank_adjacent =
                run.rank >= ev.first_rank.saturating_sub(1) && run.rank <= ev.last_rank + 1;
            let time_overlap = run.start < ev.end_bin && ev.start_bin < run.end;
            if ev.kind == kind && rank_adjacent && time_overlap {
                ev.first_rank = ev.first_rank.min(run.rank);
                ev.last_rank = ev.last_rank.max(run.rank);
                ev.start_bin = ev.start_bin.min(run.start);
                ev.end_bin = ev.end_bin.max(run.end);
                let total = ev.mean_perf * ev.cells as f64 + run.sum;
                ev.cells += run.cells;
                ev.mean_perf = total / ev.cells as f64;
                continue 'runs;
            }
        }
        events.push(VarianceEvent {
            kind,
            first_rank: run.rank,
            last_rank: run.rank,
            start_bin: run.start,
            end_bin: run.end,
            mean_perf: run.sum / run.cells as f64,
            cells: run.cells,
        });
    }

    // Filter out single-cell speckles: real problems persist (§5.1 set the
    // philosophy: durable variance, not noise).
    events.retain(|e| e.cells >= 2);
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::time::Duration;

    fn matrix_with(ranks: usize, bins: usize, bad: &[(usize, usize)]) -> PerformanceMatrix {
        let mut m = PerformanceMatrix::new(ranks, bins, Duration::from_millis(200));
        for r in 0..ranks {
            for b in 0..bins {
                let perf = if bad.contains(&(r, b)) { 0.3 } else { 1.0 };
                m.add(r, b as u64, perf);
            }
        }
        m
    }

    #[test]
    fn empty_matrix_is_an_error_not_a_panic() {
        let m = PerformanceMatrix::new(0, 10, Duration::from_millis(200));
        let err = detect_events(&m, SensorKind::Computation, 0.5).unwrap_err();
        assert_eq!(err, RuntimeError::EmptyMatrix { ranks: 0, bins: 10 });
    }

    #[test]
    fn clean_matrix_has_no_events() {
        let m = matrix_with(4, 10, &[]);
        assert!(detect_events(&m, SensorKind::Computation, 0.5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_speckle_is_ignored() {
        let m = matrix_with(4, 10, &[(2, 5)]);
        assert!(detect_events(&m, SensorKind::Computation, 0.5)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn rectangular_block_detected_once() {
        // Ranks 1-2, bins 3..7 — a noise-injection block.
        let bad: Vec<(usize, usize)> = (1..=2).flat_map(|r| (3..7).map(move |b| (r, b))).collect();
        let m = matrix_with(4, 10, &bad);
        let events = detect_events(&m, SensorKind::Computation, 0.5).unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert_eq!((e.first_rank, e.last_rank), (1, 2));
        assert_eq!((e.start_bin, e.end_bin), (3, 7));
        assert_eq!(e.cells, 8);
        assert!(e.mean_perf < 0.5);
        assert!(!e.is_persistent(10));
    }

    #[test]
    fn persistent_line_is_flagged_persistent() {
        // One rank slow for the whole run: the bad-node signature.
        let bad: Vec<(usize, usize)> = (0..10).map(|b| (3, b)).collect();
        let m = matrix_with(8, 10, &bad);
        let events = detect_events(&m, SensorKind::Computation, 0.5).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_persistent(10));
        assert_eq!(events[0].first_rank, events[0].last_rank);
    }

    #[test]
    fn disjoint_blocks_stay_separate() {
        let mut bad: Vec<(usize, usize)> = (0..2).map(|b| (0, b)).collect();
        bad.extend((7..9).map(|b| (5, b)));
        let m = matrix_with(8, 10, &bad);
        let events = detect_events(&m, SensorKind::Computation, 0.5).unwrap();
        assert_eq!(events.len(), 2, "{events:?}");
    }

    #[test]
    fn single_gap_is_bridged() {
        // Bins 2,3,5,6 bad (4 good): one event, not two.
        let bad: Vec<(usize, usize)> = [2, 3, 5, 6].iter().map(|&b| (1, b)).collect();
        let m = matrix_with(4, 10, &bad);
        let events = detect_events(&m, SensorKind::Computation, 0.5).unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].start_bin, 2);
        assert_eq!(events[0].end_bin, 7);
    }

    #[test]
    fn cells_at_exactly_the_threshold_are_not_variance() {
        // "Below the threshold" is strict everywhere: the rank-side tock,
        // the event detector and the matrix's below-fraction agree.
        let mut m = PerformanceMatrix::new(4, 10, Duration::from_millis(200));
        for r in 0..4 {
            for b in 0..10u64 {
                let at_threshold = r == 1 && (b == 3 || b == 4);
                m.add(r, b, if at_threshold { 0.5 } else { 1.0 });
            }
        }
        let events = detect_events(&m, SensorKind::Computation, 0.5).unwrap();
        assert!(events.is_empty(), "{events:?}");
        assert_eq!(m.fraction_below(0.5), 0.0);
        // With the threshold a hair higher, the same two cells are one event.
        let events = detect_events(&m, SensorKind::Computation, 0.5 + 1e-9).unwrap();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(m.fraction_below(0.5 + 1e-9), 2.0 / 40.0);
    }

    #[test]
    fn display_is_informative() {
        let e = VarianceEvent {
            kind: SensorKind::Network,
            first_rank: 0,
            last_rank: 1023,
            start_bin: 80,
            end_bin: 335,
            mean_perf: 0.25,
            cells: 1000,
        };
        let s = e.to_string();
        assert!(s.contains("Net"));
        assert!(s.contains("0..=1023"));
        assert!(s.contains("0.25"));
    }
}
