//! Canned cluster scenarios for the paper's experiments.
//!
//! Each scenario returns a [`ClusterConfig`] modelling one of the
//! situations the evaluation encounters on Tianhe-2; the `repro` harness
//! and the examples build on these.

use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::{ClusterConfig, FaultConfig, FaultPlan, NetworkConfig, NodeSpec, SlowdownWindow};
use vsensor_runtime::{RuntimeConfig, ServiceConfig};

/// Perfectly quiet cluster: no noise, exact PMU. Baseline for overhead
/// measurements and unit tests.
pub fn quiet(ranks: usize) -> ClusterConfig {
    ClusterConfig::quiet(ranks)
}

/// Default healthy cluster with realistic background OS noise (1 kHz tick,
/// ±2 % jitter) — the "normal run" of Figure 14.
pub fn healthy(ranks: usize) -> ClusterConfig {
    ClusterConfig::healthy(ranks)
}

/// The §6.5 / Figure 21 scenario: one node's memory subsystem at 55 % of
/// nominal performance — the bad node found with CG-256.
pub fn bad_node(ranks: usize, node: usize, mem_perf: f64) -> ClusterConfig {
    ClusterConfig::healthy(ranks).with_node(node, NodeSpec::slow_memory(mem_perf))
}

/// The §6.5 / Figure 22 scenario: interconnect degradation during
/// `[from, to)` seconds slowing network transfers by `factor` — FT-1024's
/// 3.37× slowdown came from such a window (16 s - 67 s).
pub fn network_degradation(ranks: usize, from_s: u64, to_s: u64, factor: f64) -> ClusterConfig {
    let network = NetworkConfig::default().with_degradation(
        VirtualTime::from_secs(from_s),
        VirtualTime::from_secs(to_s),
        factor,
    );
    ClusterConfig::healthy(ranks).with_network(network)
}

/// The §6.4 / Figures 19-20 scenario: a "noiser" program co-runs on the
/// nodes hosting the given rank blocks, stealing CPU during the windows.
/// The paper injects twice for 10 s each: ranks 24-47 at 34 s and ranks
/// 72-96 at 66 s.
pub fn noise_injection(
    ranks: usize,
    ranks_per_node: usize,
    injections: &[(std::ops::Range<usize>, u64, u64, f64)],
) -> ClusterConfig {
    let mut config = ClusterConfig::healthy(ranks).with_ranks_per_node(ranks_per_node);
    for (rank_range, from_s, to_s, factor) in injections {
        let first_node = rank_range.start / ranks_per_node;
        let last_node = (rank_range.end.saturating_sub(1)) / ranks_per_node;
        let nodes: Vec<usize> = (first_node..=last_node).collect();
        config = config.with_injection(SlowdownWindow::on_nodes(
            VirtualTime::from_secs(*from_s),
            VirtualTime::from_secs(*to_s),
            *factor,
            nodes,
        ));
    }
    config
}

/// The paper's standard injection for cg.D.128 (Figures 19-20): noise on
/// ranks 24-47 at 34 s and ranks 72-96 at 66 s, 10 s each.
pub fn paper_noise_injection(total_virtual_secs: u64) -> ClusterConfig {
    // Scale the injection instants to the requested run length, keeping
    // the paper's proportions (34/100 and 66/100 of a 100 s run).
    let s = |frac_num: u64| total_virtual_secs * frac_num / 100;
    noise_injection(
        128,
        24,
        &[(24..48, s(34), s(44), 3.0), (72..97, s(66), s(76), 3.0)],
    )
}

/// The live-alert scenario: the Figure 21 bad node paired with runtime
/// knobs tuned for streaming detection — frequent detection passes and a
/// variance threshold sitting above the bad node's `mem_perf` normalized
/// score, so the detection stream flags the node *while the run is still
/// in flight* instead of waiting for the end-of-run report.
///
/// # Panics
///
/// If `mem_perf <= -0.15` (the threshold `mem_perf + 0.15`, capped at
/// `0.95`, must lie in `(0, 1]`); the scenarios use `0.55`.
pub fn live_bad_node(ranks: usize, node: usize, mem_perf: f64) -> (ClusterConfig, RuntimeConfig) {
    let runtime = RuntimeConfig::default()
        .with_variance_threshold((mem_perf + 0.15).min(0.95))
        .expect("mem_perf > -0.15 keeps the threshold in (0, 1]")
        // Proof: a constant 100 ms interval is positive.
        .with_detect_interval(Duration::from_millis(100))
        .expect("interval is positive");
    (bad_node(ranks, node, mem_perf), runtime)
}

/// A bad-node cluster whose telemetry path is also lossy: each batch send
/// is dropped with probability `drop_rate` (retries roll fresh dice). The
/// robustness question of the fault-transport work: does bad-node
/// localization survive losing a slice of its evidence?
pub fn degraded_transport(
    ranks: usize,
    node: usize,
    mem_perf: f64,
    drop_rate: f64,
    seed: u64,
) -> ClusterConfig {
    bad_node(ranks, node, mem_perf).with_faults(FaultPlan::lossy(drop_rate, seed))
}

/// A bad-node cluster whose analysis server is completely unreachable
/// during `[from, to)` seconds, on top of a light packet-loss floor —
/// the graceful-degradation scenario: the run must terminate cleanly and
/// report the outage in its delivery metadata.
pub fn server_outage(
    ranks: usize,
    node: usize,
    mem_perf: f64,
    from_s: u64,
    to_s: u64,
) -> ClusterConfig {
    let plan = FaultPlan::new(FaultConfig {
        drop_rate: 0.02,
        ..FaultConfig::default()
    })
    .with_outage(VirtualTime::from_secs(from_s), VirtualTime::from_secs(to_s));
    bad_node(ranks, node, mem_perf).with_faults(plan)
}

/// The fail-stop scenario: the Figure 21 bad node, plus a *different*
/// node killed outright partway through the run. Survivors must keep
/// running (collectives shrink), the killed node must be localized as
/// *dead* — never as 0%-performance variance — and the bad node must
/// still be found exactly as in the failure-free run.
pub fn node_death(
    ranks: usize,
    bad_node: usize,
    mem_perf: f64,
    dead_node: usize,
    death_at_ms: u64,
) -> (ClusterConfig, RuntimeConfig) {
    let (cluster, runtime) = live_bad_node(ranks, bad_node, mem_perf);
    let plan = FaultPlan::none().with_node_death(dead_node, VirtualTime::from_millis(death_at_ms));
    (cluster.with_faults(plan), runtime)
}

/// The crash-recovery scenario: the Figure 21 bad node with the analysis
/// server killed and rebuilt from its write-ahead log mid-run. The
/// recovered run's server result must be bitwise identical to the
/// crash-free run's — the invariant the `fail_stop` suite and the
/// `crash_recovery` repro experiment assert.
pub fn server_crash_recovery(
    ranks: usize,
    bad_node: usize,
    mem_perf: f64,
    crash_at_ms: u64,
) -> (ClusterConfig, RuntimeConfig) {
    let (cluster, runtime) = live_bad_node(ranks, bad_node, mem_perf);
    let plan = FaultPlan::none().with_server_crash(VirtualTime::from_millis(crash_at_ms));
    (cluster.with_faults(plan), runtime)
}

/// The overhead-budgeted scenario: the Figure 21 bad node analysed under
/// an explicit instrumentation budget (§5.3 taken to its logical end).
/// The control plane must keep each rank's observed sensor cost below
/// `budget` (a fraction of elapsed virtual time) by switching individual
/// v-sensors dark — while the surviving telemetry still localizes the bad
/// node. `tests/control_loop.rs` asserts both halves of that bargain.
///
/// # Panics
///
/// If `budget` is outside `[0, 1)` (`0` disarms the control plane), and
/// as [`live_bad_node`] does for `mem_perf`.
pub fn overhead_budgeted(
    ranks: usize,
    node: usize,
    mem_perf: f64,
    budget: f64,
) -> (ClusterConfig, RuntimeConfig) {
    let (cluster, runtime) = live_bad_node(ranks, node, mem_perf);
    let runtime = runtime
        .with_overhead_budget(budget)
        .expect("budget lies in [0, 1)");
    (cluster, runtime)
}

/// The zoom-in scenario: the Figure 21 bad node with the control plane
/// armed to *escalate* — when a live [`VarianceAlert`] fires, only the
/// ranks the alert covers drop from the 1000 µs coarse slice to
/// `fine_us` µs slices; everyone else keeps coarse (cheap) aggregation.
/// The budget is set high enough that nothing goes dark: this scenario
/// isolates the escalation half of the control loop.
///
/// # Panics
///
/// If `fine_us` does not evenly divide the 1000 µs coarse slice (`1`,
/// `250` and `500` do; `0` and `300` do not), and as [`live_bad_node`]
/// does for `mem_perf`.
///
/// [`VarianceAlert`]: vsensor_runtime::VarianceAlert
pub fn alert_escalation(
    ranks: usize,
    node: usize,
    mem_perf: f64,
    fine_us: u64,
) -> (ClusterConfig, RuntimeConfig) {
    let (cluster, runtime) = live_bad_node(ranks, node, mem_perf);
    let runtime = runtime
        // Proof: the constant 0.9 lies in [0, 1).
        .with_overhead_budget(0.9)
        .expect("permissive budget arms the control plane without darkening")
        .with_escalation_slice(Duration::from_micros(fine_us))
        .expect("fine_us divides the 1000us coarse slice");
    (cluster, runtime)
}

/// A control-plane scenario whose *directive* path is also hostile: the
/// given base scenario's fault plan is replaced by one that drops,
/// duplicates, delays and corrupts messages (telemetry and control
/// directives roll the same seeded dice, in disjoint sequence
/// namespaces). The robustness question of this layer: does the epoch
/// schedule — and therefore the run — stay bitwise deterministic when
/// 10 % of control traffic is lost?
pub fn lossy_control(
    base: (ClusterConfig, RuntimeConfig),
    drop_rate: f64,
    seed: u64,
) -> (ClusterConfig, RuntimeConfig) {
    let (cluster, runtime) = base;
    let plan = FaultPlan::new(FaultConfig {
        drop_rate,
        duplicate_rate: 0.05,
        corrupt_rate: 0.02,
        delay_rate: 0.05,
        seed,
        ..FaultConfig::default()
    });
    (cluster.with_faults(plan), runtime)
}

/// One tenant's slice of the multi-tenant skewed-load scenario: a fully
/// independent job (own cluster, fault plan and runtime knobs) that joins
/// the shared [`ServiceConfig`]-governed analysis service.
pub struct TenantLoad {
    /// Dense, 0-based tenant id.
    pub tenant: u32,
    /// This tenant's cluster — fault plan (rank deaths, lossy transport,
    /// server crash) included.
    pub cluster: ClusterConfig,
    /// This tenant's runtime knobs.
    pub runtime: RuntimeConfig,
    /// Ranks per node for this tenant's job.
    pub ranks_per_node: usize,
    /// Flushes batches at ~8× the default rate — the tenant expected to
    /// trip per-tenant admission control.
    pub hot: bool,
    /// This tenant's fault plan kills the service primary mid-run — the
    /// standby-promotion point.
    pub crashes_primary: bool,
    /// Loses a node mid-run *and* sends over a lossy transport — the
    /// cross-tenant fault-isolation subject.
    pub faulty: bool,
}

/// Hot tenants flush at this multiple of the default batch rate.
pub const HOT_TENANT_RATE: u32 = 8;

/// The tenant-skewed service load: `tenants` independent Figure 21 jobs
/// (each localizing its own bad node) sharing one analysis service.
/// Tenant 0 is *hot* (~[`HOT_TENANT_RATE`]× batch rate — the admission
/// budget of [`multi_tenant_service`] is tuned so only it trips
/// backpressure); tenant 1 is *faulty* (a node dies at `death_at_ms` and
/// its telemetry path drops batches); the middle tenant kills the service
/// primary at `crash_at_ms` into *its own* run, forcing a hot-standby
/// promotion. Every other tenant is healthy and must come out bitwise
/// identical to a solo run. Trace lanes are disjoint per tenant
/// (`tenant × 4096`) so one merged trace stays attributable.
pub fn multi_tenant_skewed(
    tenants: usize,
    ranks_per_tenant: usize,
    death_at_ms: u64,
    crash_at_ms: u64,
) -> Vec<TenantLoad> {
    assert!(
        tenants >= 4,
        "need hot, faulty, crashing and healthy tenants"
    );
    let ranks_per_node = 2;
    let nodes = ranks_per_tenant / ranks_per_node;
    let bad = nodes / 2;
    let dead = nodes - 1;
    let crash_tenant = tenants / 2;
    (0..tenants)
        .map(|t| {
            let (mut cluster, mut runtime) = live_bad_node(ranks_per_tenant, bad, 0.55);
            let hot = t == 0;
            let faulty = t == 1;
            let crashes_primary = t == crash_tenant;
            if hot {
                let base = runtime.batch_interval;
                runtime = runtime
                    // Proof: the default 100 ms interval over a constant
                    // rate of 8 stays positive.
                    .with_batch_interval(Duration::from_nanos(
                        base.as_nanos() / HOT_TENANT_RATE as u64,
                    ))
                    .expect("hot interval stays positive")
                    // Backpressure delays the hot tenant's batches rather
                    // than dropping them, so its senders must hold a full
                    // admission backlog: overflow shedding would discard
                    // whichever batches lost the cross-rank admission
                    // race, making the surviving record set — and the
                    // final matrix bits — interleaving-dependent. Proof:
                    // the constant 256 is at least 1.
                    .with_buffer_capacity(256)
                    .expect("capacity is positive");
            }
            if faulty {
                let plan = FaultPlan::lossy(0.05, 0x5eed + t as u64)
                    .with_node_death(dead, VirtualTime::from_millis(death_at_ms));
                cluster = cluster.with_faults(plan);
            }
            if crashes_primary {
                cluster = cluster.with_faults(
                    FaultPlan::none().with_server_crash(VirtualTime::from_millis(crash_at_ms)),
                );
            }
            TenantLoad {
                tenant: t as u32,
                cluster: cluster
                    .with_ranks_per_node(ranks_per_node)
                    .with_trace_lane_base(t as u32 * 4096),
                runtime,
                ranks_per_node,
                hot,
                crashes_primary,
                faulty,
            }
        })
        .collect()
}

/// Service knobs matching [`multi_tenant_skewed`]: durable (standby
/// failover needs per-tenant WALs), admission budget of
/// `5 × ranks_per_tenant` batches per 100 ms admission window (the
/// service's `BUDGET_WINDOW`). The service splits a tenant's budget
/// evenly per rank (5 each here), so a 1× tenant's rank — one periodic
/// flush per window, plus the end-of-run flush and the occasional
/// lossy-transport resend landing in the same window — never exhausts
/// its share, while each of the [`HOT_TENANT_RATE`]× hot
/// tenant's ranks flushes 8 per window and gets
/// `IngestError::Backpressure` for the overshoot.
pub fn multi_tenant_service(tenants: usize, ranks_per_tenant: usize) -> ServiceConfig {
    ServiceConfig::default()
        .with_max_tenants(tenants)
        .with_batch_budget(5 * ranks_per_tenant as u32)
        .durable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_sim::node::Work;

    #[test]
    fn bad_node_slows_only_its_ranks() {
        let c = bad_node(48, 1, 0.55).build();
        let good = c.compute_elapsed(0, VirtualTime::ZERO, Work::mem(100_000), 0.0, 1);
        let bad = c.compute_elapsed(24, VirtualTime::ZERO, Work::mem(100_000), 0.0, 1);
        assert!(bad.as_nanos() as f64 > good.as_nanos() as f64 * 1.5);
    }

    #[test]
    fn degradation_scales_network_costs_inside_window() {
        let c = network_degradation(64, 16, 67, 8.0).build();
        let before = c.p2p_cost(0, 30, 1 << 20, VirtualTime::from_secs(5));
        let during = c.p2p_cost(0, 30, 1 << 20, VirtualTime::from_secs(30));
        assert_eq!(during.as_nanos(), before.as_nanos() * 8);
    }

    #[test]
    fn degraded_transport_carries_the_fault_plan() {
        let c = degraded_transport(8, 1, 0.55, 0.1, 7)
            .with_ranks_per_node(2)
            .build();
        assert!(c.faults().is_active());
        assert!((c.faults().config().drop_rate - 0.1).abs() < 1e-12);
    }

    #[test]
    fn server_outage_window_is_unreachable() {
        use cluster_sim::fault::SendFate;
        let c = server_outage(8, 1, 0.55, 10, 20)
            .with_ranks_per_node(2)
            .build();
        assert!(matches!(
            c.faults().fate(0, 0, 0, VirtualTime::from_secs(15)),
            SendFate::Unreachable
        ));
        assert!(!matches!(
            c.faults().fate(0, 0, 0, VirtualTime::from_secs(25)),
            SendFate::Unreachable
        ));
    }

    #[test]
    fn live_bad_node_tunes_the_runtime_for_streaming() {
        let (cluster, runtime) = live_bad_node(48, 1, 0.55);
        let c = cluster.build();
        let good = c.compute_elapsed(0, VirtualTime::ZERO, Work::mem(100_000), 0.0, 1);
        let bad = c.compute_elapsed(24, VirtualTime::ZERO, Work::mem(100_000), 0.0, 1);
        assert!(bad.as_nanos() > good.as_nanos());
        // Threshold must clear the node's ~0.55 score; passes must be more
        // frequent than the default 200 ms cadence.
        assert!(runtime.variance_threshold > 0.55);
        assert!(runtime.detect_interval < RuntimeConfig::default().detect_interval);
    }

    #[test]
    fn node_death_kills_only_the_planned_node() {
        let (cluster, _) = node_death(8, 1, 0.55, 2, 50);
        let c = cluster.with_ranks_per_node(2).build();
        assert!(c.faults().is_active());
        assert_eq!(c.death_of(4), Some(VirtualTime::from_millis(50)));
        assert_eq!(c.death_of(5), Some(VirtualTime::from_millis(50)));
        assert_eq!(c.death_of(0), None, "the bad node stays alive");
    }

    #[test]
    fn server_crash_recovery_plans_the_crash() {
        let (cluster, _) = server_crash_recovery(8, 1, 0.55, 80);
        let c = cluster.with_ranks_per_node(2).build();
        assert_eq!(
            c.faults().server_crash(),
            Some(VirtualTime::from_millis(80))
        );
        assert!(c.faults().rank_deaths().is_empty() && !c.has_deaths());
    }

    #[test]
    fn skewed_tenants_have_disjoint_roles_and_lanes() {
        let loads = multi_tenant_skewed(16, 8, 8, 10);
        assert_eq!(loads.len(), 16);
        assert!(loads[0].hot && !loads[0].faulty && !loads[0].crashes_primary);
        assert!(loads[1].faulty && !loads[1].hot);
        assert!(loads[8].crashes_primary, "crash lands mid-list");
        assert_eq!(loads.iter().filter(|l| l.hot).count(), 1);
        assert_eq!(loads.iter().filter(|l| l.faulty).count(), 1);
        assert_eq!(loads.iter().filter(|l| l.crashes_primary).count(), 1);
        // The hot tenant flushes 8x as often as everyone else.
        let base = loads[3].runtime.batch_interval.as_nanos();
        assert_eq!(
            loads[0].runtime.batch_interval.as_nanos() * HOT_TENANT_RATE as u64,
            base
        );
        // Only the planned tenants carry fault plans.
        for l in &loads {
            let c = l.cluster.clone().build();
            assert_eq!(
                c.faults().server_crash().is_some(),
                l.crashes_primary,
                "tenant {}",
                l.tenant
            );
            assert_eq!(c.has_deaths(), l.faulty, "tenant {}", l.tenant);
            assert_eq!(c.trace_lane(0), l.tenant * 4096, "disjoint lanes");
        }
    }

    #[test]
    fn service_budget_admits_steady_and_trips_hot() {
        let cfg = multi_tenant_service(16, 8);
        assert!(cfg.durable, "standby failover needs WALs");
        assert_eq!(cfg.max_tenants, 16);
        // The budget is split evenly per rank: one flush per rank per
        // window fits with slack; the hot tenant's 8 per rank per window
        // trips.
        let share = cfg.tenant_batch_budget / 8;
        assert!(share >= 2, "steady ranks need headroom beyond 1/window");
        assert!(
            share < HOT_TENANT_RATE,
            "the hot tenant's ranks must overshoot their share"
        );
    }

    #[test]
    fn overhead_budgeted_arms_the_control_plane() {
        let (cluster, runtime) = overhead_budgeted(16, 2, 0.55, 0.02);
        assert!(runtime.control_enabled());
        assert!((runtime.overhead_budget - 0.02).abs() < 1e-12);
        // Same cluster shape as the live bad-node scenario.
        let c = cluster.with_ranks_per_node(2).build();
        let good = c.compute_elapsed(0, VirtualTime::ZERO, Work::mem(100_000), 0.0, 1);
        let bad = c.compute_elapsed(4, VirtualTime::ZERO, Work::mem(100_000), 0.0, 1);
        assert!(bad.as_nanos() > good.as_nanos());
    }

    #[test]
    fn alert_escalation_sets_a_dividing_fine_slice() {
        let (_, runtime) = alert_escalation(16, 2, 0.55, 250);
        assert!(runtime.control_enabled(), "escalation rides the controller");
        assert_eq!(runtime.escalation_subdiv(), 4, "1000us / 250us");
        // The permissive budget exists to arm the loop, not to darken.
        assert!(runtime.overhead_budget > 0.5);
    }

    #[test]
    #[should_panic(expected = "fine_us divides the 1000us coarse slice")]
    fn alert_escalation_panics_on_a_non_dividing_fine_slice() {
        alert_escalation(16, 2, 0.55, 300);
    }

    #[test]
    #[should_panic(expected = "budget lies in [0, 1)")]
    fn overhead_budgeted_panics_outside_the_budget_range() {
        overhead_budgeted(16, 2, 0.55, 1.0);
    }

    #[test]
    fn lossy_control_replaces_the_fault_plan() {
        let (cluster, runtime) = lossy_control(overhead_budgeted(8, 1, 0.55, 0.02), 0.1, 42);
        assert!(runtime.control_enabled());
        let c = cluster.with_ranks_per_node(2).build();
        assert!(c.faults().is_active());
        let fc = c.faults().config();
        assert!((fc.drop_rate - 0.1).abs() < 1e-12);
        assert!(fc.duplicate_rate > 0.0 && fc.corrupt_rate > 0.0 && fc.delay_rate > 0.0);
    }

    #[test]
    fn injections_map_rank_ranges_to_nodes() {
        let c = paper_noise_injection(100).build();
        let w = Work::cpu(1_000_000);
        // Rank 30 (node 1) is hit at 38s; rank 0 (node 0) is not.
        let hit = c.compute_elapsed(30, VirtualTime::from_secs(38), w, 0.0, 1);
        let clean = c.compute_elapsed(0, VirtualTime::from_secs(38), w, 0.0, 1);
        assert!(hit.as_nanos() as f64 > clean.as_nanos() as f64 * 2.0);
    }
}
