//! The event backend's per-operation host-cost contract, as a test: once
//! the first iterations have grown every buffer, a simulated operation
//! allocates nothing.
//!
//! A hand-written [`RankTask`] runs the `simmpi_scale` skeleton — `compute`,
//! a 4 KiB `sendrecv` ring, `allreduce(256)`, `barrier` — at 256 ranks on
//! the serial event scheduler, without sensors (telemetry legitimately
//! grows with run length), for `n` and for `4n` iterations. A counting
//! global allocator (legal here because an integration test is its own
//! binary) must see the same number of allocations both times: every
//! allocation belongs to set-up or to the first iterations' buffer growth,
//! and the other `3n` iterations × 256 ranks × 4 operations make none.
//!
//! This file holds one test on purpose: the counter is process-global, so
//! a second test running on another thread would be counted too.

use cluster_sim::node::Work;
use cluster_sim::time::VirtualTime;
use cluster_sim::ClusterConfig;
use simmpi::{Poll, Proc, RankTask, TaskPoll, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Calls into the allocator that can obtain memory: `alloc`,
/// `alloc_zeroed` and `realloc`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System` under
        // the counter, with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const RANKS: usize = 256;

/// One skeleton iteration as a resumable state machine; `step` is the
/// operation to poll next.
struct SkeletonTask {
    proc: Proc,
    iterations_left: u32,
    step: u8,
}

impl RankTask for SkeletonTask {
    type Output = VirtualTime;

    fn resume(&mut self) -> TaskPoll<VirtualTime> {
        let p = &mut self.proc;
        let right = (p.rank() + 1) % p.size();
        let left = (p.rank() + p.size() - 1) % p.size();
        while self.iterations_left > 0 {
            let polled = match self.step {
                0 => {
                    p.compute(Work::cpu(1500), 0.0);
                    Poll::Ready(())
                }
                1 => p.sendrecv(right, 4096, left, 7, 0).map(|_| ()),
                2 => p.allreduce(256, 1).map(|_| ()),
                _ => p.barrier(),
            };
            if matches!(polled, Poll::Pending) {
                return TaskPoll::Yielded;
            }
            self.step = (self.step + 1) % 4;
            if self.step == 0 {
                self.iterations_left -= 1;
            }
        }
        TaskPoll::Ready(p.now())
    }

    fn proc_mut(&mut self) -> &mut Proc {
        &mut self.proc
    }
}

/// Allocations of one whole run — cluster, world, tasks, scheduler and
/// the collected outputs — at `iterations` per rank, plus the common end
/// instant.
fn allocations_of_a_run(iterations: u32) -> (u64, VirtualTime) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let world = World::new(Arc::new(ClusterConfig::quiet(RANKS).build()));
    let ends = world.run_event_workers(
        1,
        |_, proc| SkeletonTask {
            proc,
            iterations_left: iterations,
            step: 0,
        },
        |_, _| unreachable!("no deaths planned"),
    );
    let end = ends[0];
    assert!(
        ends.iter().all(|&e| e == end),
        "the barrier aligns all ranks"
    );
    drop((ends, world));
    (ALLOCATIONS.load(Ordering::Relaxed) - before, end)
}

#[test]
fn steady_state_operations_allocate_nothing() {
    const N: u32 = 24;
    // Warm-up outside the comparison: lazily initialised process state is
    // paid here, not by whichever run goes first.
    allocations_of_a_run(2);

    let (short, short_end) = allocations_of_a_run(N);
    let (long, long_end) = allocations_of_a_run(4 * N);
    assert!(short_end < long_end, "the long run really ran longer");
    assert_eq!(
        long,
        short,
        "{} allocations in the {} extra iterations x {RANKS} ranks: a simulated \
         operation on the event backend must allocate nothing in steady state",
        long.abs_diff(short),
        3 * N,
    );
}
