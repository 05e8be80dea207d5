//! Property-based tests over cross-crate invariants.

use proptest::prelude::*;
use std::sync::Arc;
use vsensor_oracle::host::run_hosted;
use vsensor_repro::cluster_sim::node::Work;
use vsensor_repro::cluster_sim::time::{Duration, VirtualTime};
use vsensor_repro::cluster_sim::{ClusterConfig, NoiseConfig, SlowdownWindow};
use vsensor_repro::lang::SensorId;
use vsensor_repro::lang::{compile, printer};
use vsensor_repro::runtime::dynrules::Bucket;
use vsensor_repro::runtime::history::History;
use vsensor_repro::runtime::record::SliceRecord;
use vsensor_repro::runtime::smoothing::SliceAggregator;
use vsensor_repro::runtime::RuntimeConfig;
use vsensor_repro::simmpi::World;

// ---------------------------------------------------------------------
// Front-end: printing a lowered program re-parses to the same print
// (printer fixed point) for arbitrary generated programs.
// ---------------------------------------------------------------------

/// Generate small random-but-valid MiniHPC programs.
fn arb_program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        Just("int t0 = 1;".to_string()),
        (1u32..50).prop_map(|n| format!("for (a = 0; a < {n}; a = a + 1) {{ compute({n}); }}")),
        (1u32..20).prop_map(|n| format!("if (x > {n}) {{ x = x - 1; }} else {{ x = x + 2; }}")),
        (1u32..9).prop_map(|n| format!("mpi_allreduce({});", n * 8)),
        Just("x = x * 2 + 1;".to_string()),
        (1u32..6).prop_map(|n| {
            format!("for (b = 0; b < {n}; b = b + 1) {{ for (c = 0; c < 3; c = c + 1) {{ x = x + c; }} }}")
        }),
    ];
    proptest::collection::vec(stmt, 1..8)
        .prop_map(|stmts| format!("fn main() {{ int x = 0;\n{}\n}}", stmts.join("\n")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn printer_is_a_fixed_point(src in arb_program()) {
        let p1 = compile(&src).unwrap();
        let printed = printer::print_program(&p1);
        let p2 = compile(&printed).unwrap();
        prop_assert_eq!(printed, printer::print_program(&p2));
        prop_assert_eq!(p1.loop_count, p2.loop_count);
        prop_assert_eq!(p1.call_count, p2.call_count);
    }

    // -------------------------------------------------------------------
    // Noise model: stretching is monotone (more work never takes less
    // time) and never shrinks below the noise-free duration for factor>=1
    // windows.
    // -------------------------------------------------------------------
    #[test]
    fn noise_stretch_is_monotone_and_never_speeds_up(
        start_us in 0u64..100_000,
        base_us in 1u64..10_000,
        win_start_us in 0u64..100_000,
        win_len_us in 1u64..100_000,
        factor in 1.0f64..8.0,
    ) {
        let cluster = ClusterConfig::quiet(1)
            .with_injection(SlowdownWindow::global(
                VirtualTime::from_micros(win_start_us),
                VirtualTime::from_micros(win_start_us + win_len_us),
                factor,
            ))
            .build();
        let start = VirtualTime::from_micros(start_us);
        let small = cluster.compute_elapsed(0, start, Work::cpu(base_us * 1000), 0.0, 7);
        let large = cluster.compute_elapsed(0, start, Work::cpu(base_us * 2000), 0.0, 7);
        prop_assert!(small.as_nanos() >= base_us * 1000, "never faster than noise-free");
        prop_assert!(large >= small, "monotone in work");
    }

    // -------------------------------------------------------------------
    // History: normalized performance is always in (0, 1] and equals 1
    // for the fastest record of a group.
    // -------------------------------------------------------------------
    #[test]
    fn history_normalization_bounds(avgs in proptest::collection::vec(1u64..1_000_000, 1..50)) {
        let mut h = History::new();
        let mut min_seen = u64::MAX;
        for (i, avg) in avgs.iter().enumerate() {
            let rec = SliceRecord {
                sensor: SensorId(0),
                slice: i as u64,
                avg: Duration::from_micros(*avg),
                count: 1,
                bucket: Bucket(0),
            };
            let perf = h.observe(&rec);
            prop_assert!(perf > 0.0 && perf <= 1.0, "perf {perf}");
            min_seen = min_seen.min(*avg);
            if *avg == min_seen {
                prop_assert!((perf - 1.0).abs() < 1e-12, "fastest-so-far scores 1.0");
            }
        }
        prop_assert_eq!(h.standard(SensorId(0), Bucket(0)).unwrap(), Duration::from_micros(min_seen));
    }

    // -------------------------------------------------------------------
    // Smoothing: aggregation conserves sense counts and the slice average
    // sits between the min and max sense durations.
    // -------------------------------------------------------------------
    #[test]
    fn smoothing_conserves_counts_and_bounds_averages(
        durations_us in proptest::collection::vec(1u64..5_000, 1..200),
    ) {
        let config = RuntimeConfig::default();
        let mut agg = SliceAggregator::new(SensorId(0));
        let mut t = VirtualTime::ZERO;
        let mut records = Vec::new();
        let lo = *durations_us.iter().min().unwrap();
        let hi = *durations_us.iter().max().unwrap();
        for d in &durations_us {
            let dur = Duration::from_micros(*d);
            if let Some(r) = agg.add(&config, t, dur, Bucket(0)) {
                records.push(r);
            }
            t += dur;
        }
        records.extend(agg.finish());
        let total: u32 = records.iter().map(|r| r.count).sum();
        prop_assert_eq!(total as usize, durations_us.len());
        for r in &records {
            prop_assert!(r.avg.as_micros() >= lo.saturating_sub(1));
            prop_assert!(r.avg.as_micros() <= hi);
        }
    }
}

// ---------------------------------------------------------------------
// simmpi: allreduce agrees with a sequential fold for arbitrary inputs,
// and virtual completion times are deterministic across repeated runs
// (closure-style rank programs on the oracle's lock-step host).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_matches_sequential_fold(values in proptest::collection::vec(-1000i64..1000, 2..9)) {
        let n = values.len();
        let cluster = Arc::new(ClusterConfig::quiet(n).build());
        let values = Arc::new(values);
        let expected: i64 = values.iter().sum();
        let sums = run_hosted(
            &World::new(cluster),
            move |mut h| h.wait(|p| p.allreduce(8, values[p.rank()])),
            |_, _| unreachable!("no deaths planned"),
        );
        prop_assert!(sums.iter().all(|&s| s == expected));
    }

    #[test]
    fn virtual_times_deterministic_under_noise(seed in 0u64..1000) {
        let mk = || {
            let mut cfg = ClusterConfig::healthy(4);
            cfg.noise = NoiseConfig { seed, ..NoiseConfig::default() };
            Arc::new(cfg.build())
        };
        let run = |cluster: Arc<vsensor_repro::cluster_sim::Cluster>| {
            run_hosted(
                &World::new(cluster),
                |mut h| {
                    for i in 0..20 {
                        h.compute(Work::cpu(500 + i * 37), 0.0);
                        h.wait(|p| p.barrier());
                    }
                    h.now()
                },
                |_, _| unreachable!("no deaths planned"),
            )
        };
        prop_assert_eq!(run(mk()), run(mk()));
    }
}
