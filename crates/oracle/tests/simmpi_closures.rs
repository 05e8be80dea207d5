//! simmpi's MPI semantics, tested through closure-style rank programs on
//! the lock-step host: point-to-point and collectives on the world,
//! fail-stop survivors, sub-communicators and nonblocking operations.
//! Blocking operations go through `h.wait`, e.g. `h.wait(|p| p.recv(prev, 7))`.

use cluster_sim::node::Work;
use cluster_sim::time::VirtualTime;
use cluster_sim::{ClusterConfig, NodeSpec};
use simmpi::{ReduceOp, World, ANY_SOURCE, ANY_TAG};
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
    let sums = hosted(&w, |mut h| {
        h.wait(|p| p.allreduce(8, p.rank() as i64, ReduceOp::Sum))
    });
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

// ---------------------------------------------------------------------
// Sub-communicators (`MPI_Comm_split`).
// ---------------------------------------------------------------------

#[test]
fn split_forms_expected_groups() {
    let w = quiet_world(6);
    let infos = hosted(&w, |mut h| {
        let comm = h.wait(|p| p.split((p.rank() % 2) as i64));
        (comm.size(), comm.rank(), comm.members().to_vec())
    });
    // Even ranks form {0,2,4}, odd {1,3,5}.
    assert_eq!(infos[0], (3, 0, vec![0, 2, 4]));
    assert_eq!(infos[2], (3, 1, vec![0, 2, 4]));
    assert_eq!(infos[1], (3, 0, vec![1, 3, 5]));
    assert_eq!(infos[5], (3, 2, vec![1, 3, 5]));
}

#[test]
fn subcomm_allreduce_sums_only_members() {
    let w = quiet_world(6);
    let sums = hosted(&w, |mut h| {
        let comm = h.wait(|p| p.split((p.rank() % 2) as i64));
        h.wait(|p| p.comm_allreduce(&comm, 8, p.rank() as i64, ReduceOp::Sum))
    });
    assert_eq!(sums, vec![6, 9, 6, 9, 6, 9]); // 0+2+4 and 1+3+5
}

#[test]
fn subcomm_barrier_synchronizes_members_only() {
    let w = quiet_world(4);
    let ends = hosted(&w, |mut h| {
        let comm = h.wait(|p| p.split((p.rank() / 2) as i64));
        // One member of each group computes longer.
        if h.rank() % 2 == 0 {
            h.compute(Work::cpu(100_000), 0.0);
        }
        h.wait(|p| p.comm_barrier(&comm));
        h.now()
    });
    assert_eq!(ends[0], ends[1], "group {{0,1}} aligned");
    assert_eq!(ends[2], ends[3], "group {{2,3}} aligned");
}

#[test]
fn repeated_splits_get_distinct_ids() {
    let w = quiet_world(4);
    let ids = hosted(&w, |mut h| {
        let a = h.wait(|p| p.split(0)); // everyone together
        let b = h.wait(|p| p.split((p.rank() % 2) as i64));
        let c = h.wait(|p| p.split(0));
        (a.id(), b.id(), c.id())
    });
    // All ranks agree on each split's IDs, and IDs never repeat.
    assert!(ids.iter().all(|&(a, _, _)| a == ids[0].0));
    assert!(ids.iter().all(|&(_, _, c)| c == ids[0].2));
    assert_ne!(ids[0].0, ids[0].2);
    assert_ne!(ids[0].1, ids[1].1, "different colors → different comms");
}

#[test]
fn subcomm_alltoall_uses_member_count() {
    // An alltoall over half the ranks must cost less than over all.
    let w = quiet_world(8);
    let t_sub = hosted(&w, |mut h| {
        let comm = h.wait(|p| p.split((p.rank() % 2) as i64));
        h.wait(|p| p.comm_alltoall(&comm, 1 << 16));
        h.now()
    });
    let w2 = quiet_world(8);
    let t_world = hosted(&w2, |mut h| {
        h.wait(|p| p.alltoall(1 << 16));
        h.now()
    });
    assert!(t_sub[0] < t_world[0], "{} vs {}", t_sub[0], t_world[0]);
}

#[test]
fn fts_row_column_transpose_pattern() {
    // The FT pattern: a 2D grid of ranks, alltoall within rows, then
    // within columns.
    let w = quiet_world(4); // 2x2 grid
    let ends = hosted(&w, |mut h| {
        let row = h.wait(|p| p.split((p.rank() / 2) as i64));
        let col = h.wait(|p| p.split((p.rank() % 2) as i64));
        for _ in 0..10 {
            h.wait(|p| p.comm_alltoall(&row, 4096));
            h.compute(Work::cpu(5_000), 0.0);
            h.wait(|p| p.comm_alltoall(&col, 4096));
        }
        h.now()
    });
    assert!(ends.iter().all(|e| e.as_nanos() > 0));
}

// ---------------------------------------------------------------------
// Nonblocking point-to-point.
// ---------------------------------------------------------------------

#[test]
fn overlap_hides_transfer_time() {
    // Receiver posts early, computes while the (large) message is in
    // flight, then waits: the wait is cheaper than a blocking recv
    // issued after the compute.
    let w = quiet_world(2);
    let ends = hosted(&w, |mut h| {
        if h.rank() == 0 {
            h.send(1, 10 << 20, 5, 0); // ~1 MB/ms at 10 B/ns => ~1 ms
            h.now()
        } else {
            let req = h.irecv(0, 5);
            h.compute(Work::cpu(2_000_000), 0.0); // 2 ms of useful work
            let info = h.wait(|p| p.wait(req));
            assert_eq!(info.src, 0);
            h.now()
        }
    });
    // The transfer (≈1 ms) is fully hidden behind the 2 ms compute.
    let receiver_end = ends[1].as_nanos();
    assert!(
        receiver_end < 2_200_000,
        "transfer should overlap compute: {receiver_end}ns"
    );
}

#[test]
fn nonblocking_matches_blocking_modulo_call_overhead() {
    // Under the eager protocol the transfer starts at send time either
    // way, so early posting and late blocking receive complete at the
    // same virtual instant — the nonblocking version pays only one
    // extra library-call overhead for the separate post.
    let w = quiet_world(2);
    let ends = hosted(&w, |mut h| {
        if h.rank() == 0 {
            h.send(1, 10 << 20, 5, 0);
        } else {
            h.compute(Work::cpu(2_000_000), 0.0);
            h.wait(|p| p.recv(0, 5));
        }
        h.now()
    });
    let w2 = quiet_world(2);
    let ends_nb = hosted(&w2, |mut h| {
        if h.rank() == 0 {
            h.send(1, 10 << 20, 5, 0);
        } else {
            let req = h.irecv(0, 5);
            h.compute(Work::cpu(2_000_000), 0.0);
            h.wait(|p| p.wait(req));
        }
        h.now()
    });
    let slack = simmpi::proc::MPI_CALL_OVERHEAD.as_nanos() * 2;
    assert!(
        ends_nb[1].as_nanos() <= ends[1].as_nanos() + slack,
        "{} vs {}",
        ends_nb[1],
        ends[1]
    );
}

#[test]
fn waitall_completes_in_post_order() {
    let w = quiet_world(3);
    let sums = hosted(&w, |mut h| {
        if h.rank() == 0 {
            let r1 = h.irecv(1, 1);
            let r2 = h.irecv(2, 2);
            let infos = h.wait(|p| p.waitall(&[r1, r2]));
            infos.iter().map(|i| i.value).sum::<i64>()
        } else {
            let me = h.rank() as i64;
            h.send(0, 64, me, me * 100);
            0
        }
    });
    assert_eq!(sums[0], 300);
}

#[test]
fn isend_handle_reports_injection_time() {
    let w = quiet_world(2);
    hosted(&w, |mut h| {
        if h.rank() == 0 {
            h.compute(Work::cpu(500), 0.0);
            let req = h.isend(1, 128, 9, 7);
            assert!(req.injected_at().as_nanos() >= 500);
            h.wait_send(req);
        } else {
            assert_eq!(h.wait(|p| p.recv(0, 9)).value, 7);
        }
    });
}
