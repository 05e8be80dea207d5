//! Bytes per delivered telemetry copy, as a test: the rank → engine hop
//! allocates a batch's records once, in the sender's outbox, however many
//! copies the fabric delivers, and a rank keeps no record buffer once its
//! batches are acknowledged.
//!
//! 64 ranks stream 400-record batches (4 sensors × 100 slices) through a
//! one-tenant service route, once under a lossless plan and once under a
//! plan that duplicates every batch. A counting global allocator (legal
//! here because an integration test is its own binary) sums the bytes each
//! stream allocates. Duplicates are rejected before they touch the
//! engine's accumulators, so the two streams do the same engine work and
//! the difference between them is what the extra copies cost: it must not
//! include a record payload. After the stream, dropping every rank's
//! transport must free less than one payload per rank.
//!
//! This file holds one test on purpose: the counters are process-global,
//! so a second test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vsensor_repro::cluster_sim::time::{Duration, VirtualTime};
use vsensor_repro::cluster_sim::{FaultConfig, FaultPlan};
use vsensor_repro::lang::SensorId;
use vsensor_repro::runtime::{
    AnalysisServer, Bucket, FaultyChannel, RankTransport, RuntimeConfig, SensorInfo, SensorKind,
    SliceRecord, TransportConfig,
};

/// Heap bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Heap bytes ever allocated (a `realloc` counts its new size).
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
    ALLOCATED.fetch_add(bytes, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only additions are relaxed
// counter updates, which neither allocate nor unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as they are.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System` under
        // the counters, with this `layout`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const RANKS: usize = 64;
const SENSORS: u32 = 4;
const SLICES_PER_BATCH: u64 = 100;
const ROUNDS: u64 = 12;
/// Bytes of one batch's records in memory.
const PAYLOAD: usize = (SENSORS as usize) * (SLICES_PER_BATCH as usize) * size_of::<SliceRecord>();

/// What one stream cost and what its server saw.
struct Stream {
    /// Heap bytes allocated from the first flush to the last acknowledgement.
    allocated: usize,
    /// Batches the ranks sent.
    batches: u64,
    /// Copies the server received: accepted plus discarded duplicates.
    copies: u64,
    /// Heap bytes freed by dropping every rank's transport afterwards.
    held_by_ranks: usize,
}

/// Stream `ROUNDS` batches per rank into a fresh one-tenant route under
/// `plan`. Each rank fills the buffer its transport hands out, as the
/// sensor runtime does.
fn stream(plan: FaultPlan) -> Stream {
    let sensors = (0..SENSORS)
        .map(|s| SensorInfo {
            sensor: SensorId(s),
            kind: SensorKind::Computation,
            process_invariant: true,
            location: format!("footprint:{s}"),
        })
        .collect();
    let server = Arc::new(
        AnalysisServer::try_new(RANKS, sensors, RuntimeConfig::default()).expect("valid config"),
    );
    let route = Arc::new(FaultyChannel::new(server.clone(), plan));
    let mut transports: Vec<RankTransport> = (0..RANKS)
        .map(|rank| RankTransport::new(rank, route.clone(), TransportConfig::default()))
        .collect();
    let before = ALLOCATED.load(Ordering::Relaxed);
    let mut now = VirtualTime::ZERO;
    for round in 0..ROUNDS {
        now += Duration::from_millis(SLICES_PER_BATCH);
        for (rank, transport) in transports.iter_mut().enumerate() {
            let mut records = transport.recycled_buffer();
            for slice in round * SLICES_PER_BATCH..(round + 1) * SLICES_PER_BATCH {
                for sensor in 0..SENSORS {
                    records.push(SliceRecord {
                        sensor: SensorId(sensor),
                        slice,
                        avg: Duration::from_nanos(10_000 + 7 * (rank as u64 + slice) % 200),
                        count: 10,
                        bucket: Bucket(0),
                    });
                }
            }
            transport.enqueue(records, now);
        }
    }
    for transport in &mut transports {
        transport.finish(Vec::new(), now);
    }
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    let batches = transports.iter().map(|t| t.stats().acked).sum();
    let delivery = server.interim(now).delivery;
    let copies = delivery.iter().map(|d| d.accepted + d.duplicates).sum();
    let live = LIVE.load(Ordering::Relaxed);
    drop(transports);
    let held_by_ranks = live - LIVE.load(Ordering::Relaxed);
    Stream {
        allocated,
        batches,
        copies,
        held_by_ranks,
    }
}

#[test]
fn a_delivered_copy_allocates_no_record_payload() {
    let duplicating = || {
        FaultPlan::new(FaultConfig {
            duplicate_rate: 1.0,
            ..FaultConfig::default()
        })
    };
    // Lazily initialised process state is paid here, not by a measured
    // stream.
    stream(duplicating());

    let single = stream(FaultPlan::none());
    let doubled = stream(duplicating());
    let sent = RANKS as u64 * ROUNDS;
    assert_eq!((single.batches, single.copies), (sent, sent));
    assert_eq!((doubled.batches, doubled.copies), (sent, 2 * sent));

    let per_extra_copy = doubled.allocated.saturating_sub(single.allocated) / sent as usize;
    let per_batch = single.allocated / sent as usize;
    eprintln!(
        "heap bytes: {per_batch} per batch, {per_extra_copy} per extra delivered copy, \
         {} held by all ranks after the stream ({PAYLOAD} B payload)",
        doubled.held_by_ranks
    );
    assert!(
        per_batch >= PAYLOAD,
        "a batch allocates {per_batch} B, less than its own {PAYLOAD} B outbox: \
         the counter misses allocations"
    );
    assert!(
        per_extra_copy < PAYLOAD / 8,
        "a duplicated copy allocates {per_extra_copy} B: the {PAYLOAD} B record payload \
         is copied per delivery, not borrowed"
    );
    for s in [&single, &doubled] {
        assert!(
            s.held_by_ranks / RANKS < PAYLOAD,
            "dropping the ranks' transports freed {} B: ranks keep record buffers \
             after their batches are acknowledged",
            s.held_by_ranks
        );
    }
}
