//! Multi-tenant service study: 16 tenant-skewed Figure 21 jobs sharing
//! one always-on analysis service.
//!
//! Three service-level questions, none of which a single-tenant run can
//! ask:
//!
//! 1. **Fairness.** One *hot* tenant flushes batches at ~8× the default
//!    rate and must be the only tenant to trip per-tenant admission
//!    control — every steady tenant sails through with zero
//!    backpressure.
//! 2. **Isolation.** One *faulty* tenant loses a node mid-run and sends
//!    over a lossy transport. Every healthy tenant's server result must
//!    be **bitwise identical** (down to `f64::to_bits` on matrix cells)
//!    to a solo run of the same job against a private server.
//! 3. **Failover.** The middle tenant kills the service primary mid-run;
//!    the hot standby is promoted from per-tenant WAL replay. Every
//!    tenant's result in the crashed run must be bitwise identical to
//!    the same service run without the crash.
//!
//! The study also measures the service's sustained throughput
//! (batches per wall-clock second) and per-tenant p99 virtual-time
//! ingest latency — the `BENCH_service.json` trajectory gated by
//! `repro service --check`.

use std::fmt::Write;
use std::sync::Arc;
use std::time::Instant;

use cluster_sim::FaultPlan;
use vsensor::scenarios::{self, TenantLoad};
use vsensor::{Pipeline, Prepared};
use vsensor_apps::{cg, Params};
use vsensor_interp::{InstrumentedRun, RunConfig};
use vsensor_runtime::{AnalysisService, TenantChannel, TenantId, TenantSpec, TenantStats};

use crate::failstop::first_mismatch;
use crate::perf_gate::{BenchRow, Better, Kind};
use crate::Effort;

/// Result of the multi-tenant service study.
pub struct ServiceBenchResult {
    /// Tenants sharing the service.
    pub tenants: usize,
    /// Ranks per tenant job.
    pub ranks_per_tenant: usize,
    /// Per-tenant runs from the crashed (failover) service run.
    pub runs: Vec<InstrumentedRun>,
    /// Per-tenant front-door stats from the crashed service run.
    pub stats: Vec<TenantStats>,
    /// Roles per tenant (hot, faulty, crashes-primary).
    pub loads: Vec<TenantLoad>,
    /// First difference per tenant between the crashed and the crash-free
    /// service runs (`None` everywhere is the failover invariant).
    pub failover_mismatches: Vec<Option<String>>,
    /// First difference per *healthy* tenant between its service run and
    /// a solo run with a private server (`None` is the isolation
    /// invariant; non-healthy tenants hold `None` trivially).
    pub healthy_mismatches: Vec<Option<String>>,
    /// Batches refused with backpressure, hot tenant.
    pub hot_backpressured: u64,
    /// Largest backpressure count over all non-hot tenants (must be 0).
    pub max_steady_backpressured: u64,
    /// p99 virtual-time ingest latency, hot tenant (ns).
    pub p99_hot_ingest_ns: u64,
    /// Largest p99 virtual-time ingest latency over steady tenants (ns).
    pub p99_steady_ingest_ns: u64,
    /// Batches accepted across all tenants in the crashed run.
    pub batches_total: u64,
    /// Wall clock of the crashed service run (all tenants).
    pub wall: std::time::Duration,
}

impl ServiceBenchResult {
    /// Whether every tenant survived the failover bitwise-identically.
    pub fn failover_equivalent(&self) -> bool {
        self.failover_mismatches.iter().all(Option::is_none)
    }

    /// Whether every healthy tenant matches its solo run bitwise.
    pub fn isolation_holds(&self) -> bool {
        self.healthy_mismatches.iter().all(Option::is_none)
    }

    /// Whether admission control touched the hot tenant and nobody else.
    pub fn backpressure_is_fair(&self) -> bool {
        self.hot_backpressured > 0 && self.max_steady_backpressured == 0
    }

    /// Sustained service throughput over the crashed run.
    pub fn batches_per_wall_sec(&self) -> f64 {
        self.batches_total as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The gated rows of the `service` suite (`BENCH_service.json`). The
    /// p99 ingest latencies are *virtual-time* quantities — deterministic
    /// and machine-independent; the batches-per-wall-second throughput
    /// compares wall clocks across machines. Whether backpressure
    /// engaged is an invariant ([`Self::backpressure_is_fair`]), not a
    /// measurement, so it is not a row.
    pub fn rows(&self) -> Vec<BenchRow> {
        let row = |metric, value, kind, better| {
            let cell = format!("service/{}", self.tenants);
            BenchRow::new("service", cell, metric, value, kind, better)
        };
        let p99 = |metric, ns: u64| row(metric, ns as f64, Kind::Virtual, Better::Lower);
        let throughput = self.batches_per_wall_sec();
        vec![
            p99("p99-hot-ingest", self.p99_hot_ingest_ns),
            p99("p99-steady-ingest", self.p99_steady_ingest_ns),
            row("service-throughput", throughput, Kind::Wall, Better::Higher),
        ]
    }

    /// Render the study.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "multi-tenant service: {} tenants x {} ranks, {} batches in {:.2?} ({:.0} batches/s)",
            self.tenants,
            self.ranks_per_tenant,
            self.batches_total,
            self.wall,
            self.batches_per_wall_sec(),
        );
        for (i, (stats, load)) in self.stats.iter().zip(&self.loads).enumerate() {
            let role = if load.hot {
                "hot x8"
            } else if load.faulty {
                "faulty"
            } else if load.crashes_primary {
                "kills primary"
            } else {
                "steady"
            };
            let _ = writeln!(
                out,
                "  tenant {i:>2} [{role:<13}] accepted {:>5} backpressured {:>4} p99 ingest {:>8} ns",
                stats.accepted,
                stats.backpressured,
                stats.p99_ingest_latency.as_nanos(),
            );
        }
        let _ = writeln!(
            out,
            "backpressure: hot tenant refused {} time(s), steady tenants at most {} — {}",
            self.hot_backpressured,
            self.max_steady_backpressured,
            if self.backpressure_is_fair() {
                "FAIR"
            } else {
                "UNFAIR"
            }
        );
        match self.failover_mismatches.iter().position(Option::is_some) {
            None => {
                let _ = writeln!(
                    out,
                    "failover: all {} tenant results BITWISE IDENTICAL to the crash-free service run",
                    self.tenants
                );
            }
            Some(t) => {
                let _ = writeln!(
                    out,
                    "failover MISMATCH (tenant {t}): {}",
                    self.failover_mismatches[t].as_deref().unwrap_or("")
                );
            }
        }
        match self.healthy_mismatches.iter().position(Option::is_some) {
            None => {
                let _ = writeln!(
                    out,
                    "isolation: every healthy tenant BITWISE IDENTICAL to its solo run"
                );
            }
            Some(t) => {
                let _ = writeln!(
                    out,
                    "isolation MISMATCH (tenant {t}): {}",
                    self.healthy_mismatches[t].as_deref().unwrap_or("")
                );
            }
        }
        out
    }
}

/// Drive every tenant's job through one shared service. Tenants run in
/// id order (the virtual cluster is single-machine — the service sees
/// them as a deterministic sequence of sessions); `with_crash = false`
/// strips the primary-kill from the crash tenant's plan, producing the
/// failover reference run.
fn run_service(
    prepared: &Prepared,
    loads: &[TenantLoad],
    with_crash: bool,
) -> (Arc<AnalysisService>, Vec<InstrumentedRun>, Vec<TenantStats>) {
    let service = Arc::new(AnalysisService::new(scenarios::multi_tenant_service(
        loads.len(),
        loads[0].cluster.ranks,
    )));
    for load in loads {
        service
            .register(
                TenantId(load.tenant),
                TenantSpec {
                    ranks: load.cluster.ranks,
                    sensors: prepared.sensors.clone(),
                    config: load.runtime.clone(),
                },
            )
            .expect("scenario tenants fit the service cap");
    }
    service.attach_standby().expect("service is durable");
    let mut runs = Vec::with_capacity(loads.len());
    for load in loads {
        let cluster = Arc::new(load.cluster.clone().build());
        let plan = if load.crashes_primary && !with_crash {
            FaultPlan::none()
        } else {
            cluster.faults().clone()
        };
        let sink = Arc::new(TenantChannel::new(
            service.clone(),
            TenantId(load.tenant),
            plan,
        ));
        let config = RunConfig {
            runtime: load.runtime.clone(),
            ..Default::default()
        };
        runs.push(prepared.run_sink(cluster, &config, sink));
        // Incremental replication: the standby tails each tenant's WAL
        // between sessions, so promotion replays only a short suffix.
        service.catch_up_standby().expect("standby attached");
    }
    let stats = loads
        .iter()
        .map(|l| {
            service
                .stats(TenantId(l.tenant))
                .expect("registered tenant has stats")
        })
        .collect();
    (service, runs, stats)
}

/// Run the multi-tenant service study.
pub fn run(effort: Effort) -> ServiceBenchResult {
    let tenants = 16;
    // Each hot rank must flush more than its per-rank admission share
    // (5 batches) inside one 100 ms window to trip backpressure, and its
    // bursts land 12.5 ms apart — so runs must stay busy well past 75 ms
    // of virtual time; the failure instants land early enough to leave
    // most of the run post-fault.
    let (ranks_per_tenant, params, death_at_ms, crash_at_ms) = match effort {
        Effort::Smoke => (4, Params::test().with_iters(2400), 8, 10),
        Effort::Paper => (16, Params::bench().with_iters(1200), 12, 16),
    };
    let prepared = Pipeline::new().prepare(cg::generate(params).compile());
    let loads = scenarios::multi_tenant_skewed(tenants, ranks_per_tenant, death_at_ms, crash_at_ms);

    let wall_start = Instant::now();
    let (service, runs, stats) = run_service(&prepared, &loads, true);
    let wall = wall_start.elapsed();
    assert!(
        service.failed_over(),
        "the crash tenant must have promoted the standby"
    );
    let (_, reference, _) = run_service(&prepared, &loads, false);

    // Failover invariant: crashed vs crash-free service runs, per tenant.
    let failover_mismatches = runs
        .iter()
        .zip(&reference)
        .map(|(a, b)| first_mismatch(&a.server, &b.server))
        .collect();

    // Isolation invariant: healthy tenants vs a solo private-server run.
    // All healthy tenants share one job definition, so one solo run
    // serves as the reference for each of them.
    let healthy = loads
        .iter()
        .position(|l| !l.hot && !l.faulty && !l.crashes_primary)
        .expect("scenario has healthy tenants");
    let solo = prepared.run(
        Arc::new(loads[healthy].cluster.clone().build()),
        &RunConfig {
            runtime: loads[healthy].runtime.clone(),
            ..Default::default()
        },
    );
    let healthy_mismatches = loads
        .iter()
        .zip(&runs)
        .map(|(load, run)| {
            if load.hot || load.faulty || load.crashes_primary {
                None
            } else {
                first_mismatch(&run.server, &solo.server)
            }
        })
        .collect();

    let hot = loads.iter().position(|l| l.hot).expect("one hot tenant");
    let steady = |i: &usize| !loads[*i].hot;
    let max_steady_backpressured = (0..loads.len())
        .filter(steady)
        .map(|i| stats[i].backpressured)
        .max()
        .unwrap_or(0);
    let p99_steady_ingest_ns = (0..loads.len())
        .filter(steady)
        .map(|i| stats[i].p99_ingest_latency.as_nanos())
        .max()
        .unwrap_or(0);

    ServiceBenchResult {
        tenants,
        ranks_per_tenant,
        hot_backpressured: stats[hot].backpressured,
        max_steady_backpressured,
        p99_hot_ingest_ns: stats[hot].p99_ingest_latency.as_nanos(),
        p99_steady_ingest_ns,
        batches_total: runs.iter().map(|r| r.server.batches).sum(),
        wall,
        runs,
        stats,
        loads,
        failover_mismatches,
        healthy_mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_rows_and_the_backpressure_invariant() {
        let mut r = ServiceBenchResult {
            tenants: 16,
            ranks_per_tenant: 4,
            runs: Vec::new(),
            stats: Vec::new(),
            loads: Vec::new(),
            failover_mismatches: Vec::new(),
            healthy_mismatches: Vec::new(),
            hot_backpressured: 42,
            max_steady_backpressured: 0,
            p99_hot_ingest_ns: 1_234,
            p99_steady_ingest_ns: 567,
            batches_total: 1_000,
            wall: std::time::Duration::from_secs(2),
        };
        let rows = r.rows();
        let keyed: Vec<(String, f64)> = rows.iter().map(|r| (r.key(), r.value)).collect();
        assert_eq!(
            keyed,
            [
                ("service/16/p99-hot-ingest".to_string(), 1_234.0),
                ("service/16/p99-steady-ingest".to_string(), 567.0),
                ("service/16/service-throughput".to_string(), 500.0),
            ]
        );
        // The gate carries no backpressure row: admission control that
        // stopped engaging on the hot tenant (or touched a steady one) is
        // refused by this invariant before any comparison runs.
        assert!(r.backpressure_is_fair());
        r.max_steady_backpressured = 1;
        assert!(!r.backpressure_is_fair());
        r.max_steady_backpressured = 0;
        r.hot_backpressured = 0;
        assert!(!r.backpressure_is_fair());
    }
}
