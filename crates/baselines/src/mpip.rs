//! mpiP-style profiler.
//!
//! mpiP reports, per rank, the total time spent in MPI calls versus
//! application (computation) time. The paper's Figures 18-19 show exactly
//! this view for a normal and a noise-injected CG run — and demonstrate its
//! blind spot: injected CPU noise shows up as *longer MPI time* (the noise
//! delays communication partners), misleading users toward the network.
//! The profile has no time axis, so it cannot say when or where the noise
//! happened.

use cluster_sim::time::Duration;
use simmpi::ProcStats;
use std::fmt::Write;

/// A per-rank computation/MPI/IO time profile.
#[derive(Clone, Debug, PartialEq)]
pub struct MpipProfile {
    /// Per-rank (computation, MPI, IO) time.
    pub per_rank: Vec<(Duration, Duration, Duration)>,
}

impl MpipProfile {
    /// Build the profile from the per-rank stats of a finished run.
    pub fn from_stats(stats: &[ProcStats]) -> Self {
        MpipProfile {
            per_rank: stats
                .iter()
                .map(|s| (s.compute_time, s.mpi_time, s.io_time))
                .collect(),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.per_rank.len()
    }

    /// Mean MPI time across ranks.
    pub fn mean_mpi(&self) -> Duration {
        mean(self.per_rank.iter().map(|(_, m, _)| *m))
    }

    /// Mean computation time across ranks.
    pub fn mean_compute(&self) -> Duration {
        mean(self.per_rank.iter().map(|(c, _, _)| *c))
    }

    /// Render the Figure 18/19-style view as text: one line per rank
    /// bucket with computation and MPI seconds.
    pub fn render(&self, title: &str, buckets: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>12}",
            "ranks", "comp (s)", "mpi (s)", "io (s)"
        );
        if self.per_rank.is_empty() {
            return out;
        }
        let n = self.per_rank.len();
        let buckets = buckets.clamp(1, n);
        for b in 0..buckets {
            let lo = b * n / buckets;
            let hi = ((b + 1) * n / buckets).max(lo + 1);
            let slice = &self.per_rank[lo..hi];
            let c = mean(slice.iter().map(|(c, _, _)| *c));
            let m = mean(slice.iter().map(|(_, m, _)| *m));
            let i = mean(slice.iter().map(|(_, _, i)| *i));
            let _ = writeln!(
                out,
                "{:>8} {:>12.2} {:>12.2} {:>12.2}",
                format!("{lo}-{}", hi - 1),
                c.as_secs_f64(),
                m.as_secs_f64(),
                i.as_secs_f64()
            );
        }
        out
    }
}

fn mean(iter: impl Iterator<Item = Duration>) -> Duration {
    let v: Vec<u64> = iter.map(|d| d.as_nanos()).collect();
    if v.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_nanos(v.iter().sum::<u64>() / v.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(comp_s: u64, mpi_s: u64) -> ProcStats {
        ProcStats {
            compute_time: Duration::from_secs(comp_s),
            mpi_time: Duration::from_secs(mpi_s),
            ..Default::default()
        }
    }

    #[test]
    fn means() {
        let p = MpipProfile::from_stats(&[stats(75, 50), stats(75, 50)]);
        assert_eq!(p.mean_compute(), Duration::from_secs(75));
        assert_eq!(p.mean_mpi(), Duration::from_secs(50));
    }

    #[test]
    fn render_has_rank_buckets() {
        let p = MpipProfile::from_stats(&(0..16).map(|_| stats(75, 50)).collect::<Vec<_>>());
        let s = p.render("mpiP profile", 4);
        assert!(s.contains("mpiP profile"));
        assert!(s.contains("0-3"));
        assert!(s.contains("75.00"));
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = MpipProfile::from_stats(&[]);
        assert_eq!(p.mean_mpi(), Duration::ZERO);
        let _ = p.render("empty", 4);
    }
}
