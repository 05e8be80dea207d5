//! Bytes per simulated rank, as a test: each rank holds only the bytes it
//! uses, and a finished rank gives its sensor machinery back.
//!
//! The benchmark's ring skeleton — `compute`, a 4 KiB `sendrecv` ring,
//! `allreduce(256)`, `barrier`, × 96 iterations — runs at 2,048 ranks on
//! the serial event scheduler, plain (`run_plain_on`) and instrumented
//! (`Prepared::run`). A counting global allocator (legal here because an
//! integration test is its own binary) tracks live and peak heap bytes;
//! the peak is reset before each run, and the run's peak above what was
//! live before it, divided by the rank count, must stay under a ceiling.
//! A third, short instrumented run goes through the same channel wrapped
//! in a counter of the handles every rank's harness holds on it: once a
//! rank has finished, none of its harness may still be live.
//!
//! This file holds one test on purpose: the counters are process-global,
//! so a second test running on another thread would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use vsensor_repro::cluster_sim::time::VirtualTime;
use vsensor_repro::cluster_sim::Cluster;
use vsensor_repro::interp::run::server_sink;
use vsensor_repro::interp::RunConfig;
use vsensor_repro::runtime::{
    AnalysisServer, AnalysisSink, BatchChannel, ControlDirective, SendOutcome, TelemetryBatch,
};
use vsensor_repro::simmpi::SimBackend;
use vsensor_repro::{scenarios, Pipeline, Prepared};

/// Heap bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` since [`peak_per_rank`] last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
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

const RANKS: usize = 2_048;

/// Ceilings on peak heap bytes per rank over one run, measured here plus
/// 10 % (1,515 and 3,405 bytes). Before ranks were sized to use, the same
/// runs peaked at 4,427 (plain) and 6,317 (instrumented) bytes per rank:
/// the VM reserved 2 KiB of stack, locals and frames per rank, a plain
/// rank carried an unused inline sensor harness, every finished rank kept
/// its harness until the last rank ended, and the last phase held each
/// rank's output twice.
const PLAIN_CEILING: usize = 1_667;
const INSTRUMENTED_CEILING: usize = 3_746;

/// The benchmark's ring skeleton at `iters` iterations.
fn ring_source(iters: u32) -> String {
    format!(
        r#"
        fn main() {{
            int p = mpi_comm_size();
            int r = mpi_comm_rank();
            int right = (r + 1) % p;
            int left = (r + p - 1) % p;
            for (it = 0; it < {iters}; it = it + 1) {{
                compute(1500);
                mpi_sendrecv(right, 4096, left, 7);
                mpi_allreduce(256);
                mpi_barrier();
            }}
        }}
        "#
    )
}

/// Peak heap bytes per rank that `run` allocates above what was live
/// before it; everything it returns is dropped before the count is read.
fn peak_per_rank<R>(run: impl FnOnce() -> R) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(run());
    (PEAK.load(Ordering::Relaxed) - before) / RANKS
}

/// The run's own channel, counting the handles on itself at every send.
/// Every rank's harness holds one handle, so the count at the run's last
/// send tells how many harnesses were still live then.
struct HandleCounter {
    inner: Arc<dyn AnalysisSink>,
    me: Weak<HandleCounter>,
    first_send: AtomicUsize,
    last_send: AtomicUsize,
}

impl BatchChannel for HandleCounter {
    fn send(&self, batch: &TelemetryBatch, now: VirtualTime, attempt: u32) -> SendOutcome {
        let handles = self.me.strong_count();
        let _ = self
            .first_send
            .compare_exchange(0, handles, Ordering::Relaxed, Ordering::Relaxed);
        self.last_send.store(handles, Ordering::Relaxed);
        self.inner.send(batch, now, attempt)
    }

    fn poll_control(&self, rank: usize, now: VirtualTime) -> Vec<ControlDirective> {
        self.inner.poll_control(rank, now)
    }

    fn ack_control(&self, rank: usize, epoch: u64, now: VirtualTime) {
        self.inner.ack_control(rank, epoch, now);
    }
}

impl AnalysisSink for HandleCounter {
    fn server(&self) -> Arc<AnalysisServer> {
        self.inner.server()
    }
}

/// Harnesses still live at the last send of a short instrumented run
/// through `Prepared::run`'s own channel. Every harness is built before
/// any rank runs, so the first send sees all of them.
fn harnesses_at_last_send(
    prepared: &Prepared,
    cluster: &Arc<Cluster>,
    config: &RunConfig,
) -> usize {
    let sink = Arc::new_cyclic(|me| HandleCounter {
        inner: server_sink(&prepared.sensors, cluster, config),
        me: me.clone(),
        first_send: AtomicUsize::new(0),
        last_send: AtomicUsize::new(0),
    });
    drop(prepared.run_sink(cluster.clone(), config, sink.clone()));
    assert_eq!(
        Arc::strong_count(&sink),
        1,
        "a handle on the channel outlived the run"
    );
    let (first, last) = (
        sink.first_send.load(Ordering::Relaxed),
        sink.last_send.load(Ordering::Relaxed),
    );
    assert!(first > RANKS, "the first send saw every rank's harness");
    last - (first - RANKS)
}

#[test]
fn ranks_hold_only_what_they_use() {
    let prepared = Pipeline::new()
        .compile(&ring_source(96))
        .expect("the ring skeleton compiles");
    let cluster = Arc::new(scenarios::quiet(RANKS).build());
    let config = RunConfig {
        sim: SimBackend::event(),
        ..RunConfig::default()
    };
    // Lazily initialised process state is paid here, not by the first
    // measured run.
    drop(prepared.run_plain_on(Arc::new(scenarios::quiet(4).build()), config.sim));

    let plain = peak_per_rank(|| prepared.run_plain_on(cluster.clone(), config.sim));
    let instrumented = peak_per_rank(|| prepared.run(cluster.clone(), &config));
    eprintln!("peak heap per rank: plain {plain} B, instrumented {instrumented} B");
    assert!(
        plain <= PLAIN_CEILING,
        "a plain rank peaks at {plain} B of heap, over the {PLAIN_CEILING} B ceiling"
    );
    assert!(
        instrumented <= INSTRUMENTED_CEILING,
        "an instrumented rank peaks at {instrumented} B of heap, over the \
         {INSTRUMENTED_CEILING} B ceiling"
    );

    let short = Pipeline::new()
        .compile(&ring_source(4))
        .expect("the ring skeleton compiles");
    let live = harnesses_at_last_send(&short, &cluster, &config);
    assert_eq!(
        live, 1,
        "{live} sensor harnesses were live at the run's last send: only the \
         sender's may be, every finished rank drops its own"
    );
}
