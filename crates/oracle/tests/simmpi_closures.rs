//! simmpi's MPI semantics, tested through closure-style rank programs on
//! the lock-step host: point-to-point and collectives on the world, and
//! fail-stop survivors.
//! Blocking operations go through `h.wait`, e.g. `h.wait(|p| p.recv(prev, 7))`.

use cluster_sim::node::Work;
use cluster_sim::time::VirtualTime;
use cluster_sim::{ClusterConfig, NodeSpec};
use simmpi::{World, ANY_SOURCE, ANY_TAG};
use std::sync::Arc;
use vsensor_oracle::host::{run_hosted, Lockstep};

fn quiet_world(ranks: usize) -> World {
    World::new(Arc::new(ClusterConfig::quiet(ranks).build()))
}

/// [`run_hosted`] for a run with no planned death.
fn hosted<R, F>(world: &World, program: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Lockstep<'_>) -> R + Send + Sync + 'static,
{
    run_hosted(world, program, |_, _| unreachable!("no deaths planned"))
}

// ---------------------------------------------------------------------
// The world: point-to-point, collectives, stats and fail-stop survivors.
// ---------------------------------------------------------------------

#[test]
fn ring_pass_accumulates_latency() {
    // Rank r sends to (r+1) % n after receiving from (r-1); rank 0
    // seeds the ring. Virtual completion times must strictly grow.
    let w = quiet_world(4);
    let finals = hosted(&w, |mut h| {
        let n = h.size();
        let next = (h.rank() + 1) % n;
        let prev = (h.rank() + n - 1) % n;
        if h.rank() == 0 {
            h.send(next, 1024, 7, 100);
            h.wait(|p| p.recv(prev, 7));
        } else {
            let got = h.wait(|p| p.recv(prev, 7));
            h.send(next, 1024, 7, got.value + 1);
        }
        h.now()
    });
    // Rank 3 finished sending before rank 0's final recv completes.
    assert!(finals[0] > finals[3]);
    // Every rank made progress.
    assert!(finals.iter().all(|t| *t > VirtualTime::ZERO));
}

#[test]
fn values_flow_through_the_ring() {
    let w = quiet_world(3);
    let got = hosted(&w, |mut h| {
        let n = h.size();
        let next = (h.rank() + 1) % n;
        let prev = (h.rank() + n - 1) % n;
        if h.rank() == 0 {
            h.send(next, 8, 0, 5);
            h.wait(|p| p.recv(prev, 0)).value
        } else {
            let v = h.wait(|p| p.recv(prev, 0)).value;
            h.send(next, 8, 0, v * 2);
            v
        }
    });
    assert_eq!(got, vec![20, 5, 10]);
}

#[test]
fn barrier_equalizes_clocks() {
    let w = quiet_world(8);
    let finals = hosted(&w, |mut h| {
        // Unequal work before the barrier.
        let work = Work::cpu(1000 * (h.rank() as u64 + 1));
        h.compute(work, 0.0);
        h.wait(|p| p.barrier());
        h.now()
    });
    assert!(finals.iter().all(|t| *t == finals[0]));
}

#[test]
fn allreduce_results_agree() {
    let w = quiet_world(5);
    let sums = hosted(&w, |mut h| h.wait(|p| p.allreduce(8, p.rank() as i64)));
    assert_eq!(sums, vec![10; 5]);
}

#[test]
fn deterministic_across_repeated_runs() {
    let run_once = || {
        let w = quiet_world(6);
        hosted(&w, |mut h| {
            for _ in 0..20 {
                h.compute(Work::cpu(500), 0.0);
                h.wait(|p| p.alltoall(256));
            }
            h.now()
        })
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn wildcard_recv_collects_all_senders() {
    let w = quiet_world(4);
    let totals = hosted(&w, |mut h| {
        if h.rank() == 0 {
            let mut total = 0;
            for _ in 0..3 {
                total += h.wait(|p| p.recv(ANY_SOURCE, ANY_TAG)).value;
            }
            total
        } else {
            let me = h.rank() as i64;
            h.send(0, 64, me, me * 10);
            0
        }
    });
    assert_eq!(totals[0], 60);
}

#[test]
fn stats_split_compute_and_mpi() {
    let w = quiet_world(2);
    let stats = hosted(&w, |mut h| {
        h.compute(Work::cpu(10_000), 0.0);
        if h.rank() == 0 {
            h.send(1, 1 << 20, 0, 0);
        } else {
            h.wait(|p| p.recv(0, 0));
        }
        h.stats()
    });
    assert_eq!(stats[0].compute_time.as_nanos(), 10_000);
    assert_eq!(stats[0].msgs_sent, 1);
    assert_eq!(stats[0].bytes_sent, 1 << 20);
    // The receiver's MPI time includes the 1 MB transfer (~100 us).
    assert!(stats[1].mpi_time.as_micros() >= 100);
}

#[test]
fn bad_node_shows_up_in_compute_times() {
    let cluster = ClusterConfig::quiet(4)
        .with_ranks_per_node(2)
        .with_node(1, NodeSpec::slow_memory(0.5))
        .build();
    let w = World::new(Arc::new(cluster));
    let times = hosted(&w, |mut h| {
        h.compute(Work::mem(100_000), 0.0);
        h.stats().compute_time
    });
    assert_eq!(times[0], times[1]);
    assert_eq!(times[2], times[3]);
    assert_eq!(times[2].as_nanos(), times[0].as_nanos() * 2);
}

#[test]
fn recv_completes_no_earlier_than_arrival() {
    let w = quiet_world(2);
    let infos = hosted(&w, |mut h| {
        if h.rank() == 0 {
            h.compute(Work::cpu(50_000), 0.0); // sender is late
            h.send(1, 4096, 1, 0);
            None
        } else {
            Some(h.wait(|p| p.recv(0, 1))) // receiver posts immediately
        }
    });
    let info = infos[1].unwrap();
    assert!(info.completed_at.as_nanos() >= 50_000);
}

#[test]
fn survivors_outlive_a_dead_rank() {
    // Rank 3 dies mid-run; ranks 0-2 keep iterating compute+barrier
    // rounds over the shrunk membership, deterministically.
    let run_once = || {
        let cluster = ClusterConfig::quiet(4)
            .with_faults(
                cluster_sim::FaultPlan::none().with_rank_death(3, VirtualTime::from_micros(50)),
            )
            .build();
        let w = World::new(Arc::new(cluster));
        run_hosted(
            &w,
            |mut h| {
                for _ in 0..10 {
                    h.compute(Work::cpu(10_000), 0.0);
                    h.wait(|p| p.barrier());
                }
                (None, h.now(), h.stats())
            },
            |death, p| (Some(death), p.now(), p.stats()),
        )
    };
    let outs = run_once();
    let (death, _, dead_stats) = &outs[3];
    let death = death.expect("rank 3 died");
    assert_eq!(death.rank, 3);
    assert_eq!(death.at, VirtualTime::from_micros(50));
    assert_eq!(dead_stats.died_at, Some(VirtualTime::from_micros(50)));
    for (err, end, stats) in &outs[..3] {
        assert!(err.is_none(), "survivors complete");
        assert!(end.as_nanos() > 0);
        assert!(stats.shrunk_collectives > 0, "barriers shrank");
        assert!(stats.died_at.is_none());
    }
    assert_eq!(outs, run_once(), "fail-stop runs are deterministic");
}

#[test]
fn recv_from_dead_peer_degrades() {
    let cluster = ClusterConfig::quiet(2)
        .with_faults(cluster_sim::FaultPlan::none().with_rank_death(0, VirtualTime::from_micros(1)))
        .build();
    let w = World::new(Arc::new(cluster));
    let outs = run_hosted(
        &w,
        |mut h| {
            if h.rank() == 0 {
                // Dies before it ever sends.
                h.compute(Work::cpu(10_000), 0.0);
                h.compute(Work::cpu(10_000), 0.0);
                None
            } else {
                let info = h.wait(|p| p.recv(0, 7));
                Some((info, h.stats()))
            }
        },
        |_death, _p| None,
    );
    let (info, stats) = outs[1].expect("rank 1 survives and receives");
    assert_eq!(info.bytes, 0, "degraded recv carries no payload");
    assert_eq!(stats.peer_dead_recvs, 1);
    assert_eq!(stats.msgs_received, 0, "no real message was received");
    // Completion pays the death-detection timeout past the death.
    let plan_timeout = cluster_sim::FaultPlan::none().death_timeout();
    assert!(info.completed_at >= VirtualTime::from_micros(1) + plan_timeout);
}

#[test]
fn predeath_sends_still_deliver() {
    // Rank 0 sends, *then* dies; rank 1 must still get the message.
    let cluster = ClusterConfig::quiet(2)
        .with_faults(
            cluster_sim::FaultPlan::none().with_rank_death(0, VirtualTime::from_micros(500)),
        )
        .build();
    let w = World::new(Arc::new(cluster));
    let outs = run_hosted(
        &w,
        |mut h| {
            if h.rank() == 0 {
                h.send(1, 64, 3, 42);
                h.compute(Work::cpu(1_000_000), 0.0);
                h.compute(Work::cpu(1_000_000), 0.0);
                0
            } else {
                h.wait(|p| p.recv(0, 3)).value
            }
        },
        |_death, _p| -1,
    );
    assert_eq!(outs, vec![-1, 42]);
}
