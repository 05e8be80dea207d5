//! Virtual-time tracing core: categories, events, per-thread buffers.
//!
//! The paper's premise is low-overhead always-on visibility; this module
//! gives the *reproduction stack itself* the same discipline. Every
//! execution layer (simmpi, the interpreter backends, the telemetry
//! transport, the streaming engine) carries tiny hooks that record
//! [`TraceEvent`]s keyed by **virtual** time into bounded per-thread
//! single-producer buffers — but only while a [`TraceSession`] is active
//! and the event's [`Category`] is enabled.
//!
//! Cost discipline (the Kreutzer-style selective-instrumentation
//! argument):
//!
//! * **Disabled** — every hook is `if trace::enabled(CAT) { … }` where
//!   [`enabled`] is a single relaxed atomic load of a process-global
//!   bitmask. No allocation, no branch beyond the load-and-test, nothing
//!   else.
//! * **Enabled** — the recording path writes one fixed-size `Copy` struct
//!   into a pre-allocated per-thread ring (one atomic load + one atomic
//!   store, no locks), or bumps a drop counter when the ring is full.
//! * **Virtual time is never touched.** Hooks read clocks but charge
//!   nothing, so simulated timelines, `ProcStats` and reports are
//!   bit-identical whether tracing is on, off, or partially on. The
//!   zero-overhead integration test pins this with golden fingerprints.
//!
//! Sessions are process-global and exclusive: [`TraceSession::start`]
//! holds a lock for the session's lifetime so concurrent tests cannot
//! interleave their event streams.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A bitmask of trace categories. Combine with `|`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Category(pub u32);

impl Category {
    /// Sensor Tick/Tock spans (the instrumented probes themselves).
    pub const SENSOR: Category = Category(1 << 0);
    /// MPI point-to-point and collective calls, plus I/O calls.
    pub const MPI: Category = Category(1 << 1);
    /// Computation segments (calls into the cluster's compute model).
    pub const COMPUTE: Category = Category(1 << 2);
    /// Telemetry-transport sends, acks, retries and drops.
    pub const TRANSPORT: Category = Category(1 << 3);
    /// Analysis-engine shard ingest and detection passes.
    pub const ENGINE: Category = Category(1 << 4);
    /// Bytecode-VM run segments.
    pub const VM: Category = Category(1 << 5);
    /// Event-scheduler phase accounting (queue ops, task execution,
    /// collective completion) — aggregate wall-time events recorded once
    /// per run by the event backend, read by the benchmark's
    /// `ring8k-sched` workload (`perf/`, the `simmpi.*_ms` layers).
    pub const SCHED: Category = Category(1 << 6);
    /// Every category.
    pub const ALL: Category = Category(0x7f);

    /// The raw bits.
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Whether `self` includes every bit of `other`.
    pub fn contains(self, other: Category) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether `self` and `other` share any bit. This is the right test
    /// for filtering single-bit events against a possibly-compound mask
    /// (`contains` would require the event to carry *every* queried bit).
    pub fn overlaps(self, other: Category) -> bool {
        self.0 & other.0 != 0
    }

    /// The single-bit categories, with display labels.
    pub fn all_labeled() -> [(Category, &'static str); 7] {
        [
            (Category::SENSOR, "sensor"),
            (Category::MPI, "mpi"),
            (Category::COMPUTE, "compute"),
            (Category::TRANSPORT, "transport"),
            (Category::ENGINE, "engine"),
            (Category::VM, "vm"),
            (Category::SCHED, "sched"),
        ]
    }

    /// Display label for a single-bit category (`"?"` for compounds).
    pub fn label(self) -> &'static str {
        Category::all_labeled()
            .iter()
            .find(|(c, _)| *c == self)
            .map(|(_, l)| *l)
            .unwrap_or("?")
    }
}

impl std::ops::BitOr for Category {
    type Output = Category;
    fn bitor(self, rhs: Category) -> Category {
        Category(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for Category {
    fn bitor_assign(&mut self, rhs: Category) {
        self.0 |= rhs.0;
    }
}

/// Chrome-trace-style event phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span open (`ph: "B"`); must be closed by an [`EventKind::End`] on
    /// the same lane, stack-ordered.
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// Complete span with a duration (`ph: "X"`).
    Complete,
    /// Point event (`ph: "i"`).
    Instant,
}

/// The `pid` lane used for server-side (non-rank) events in exports.
pub const SERVER_LANE: u32 = 1_000_000;

/// One trace record. Fixed-size and `Copy` so the hot recording path is a
/// plain memcpy into a pre-allocated slot.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Category bit (exactly one).
    pub cat: Category,
    /// Static event name (`"allreduce"`, `"sense"`, `"retry"`, …).
    pub name: &'static str,
    /// Phase.
    pub kind: EventKind,
    /// Virtual timestamp, nanoseconds.
    pub ts: u64,
    /// Virtual duration, nanoseconds (`Complete` events only; else 0).
    pub dur: u64,
    /// Export lane: the rank, or [`SERVER_LANE`] for server-side events.
    pub pid: u32,
    /// Sub-lane: engine shard index, 0 elsewhere.
    pub tid: u32,
    /// First event argument (bytes, sensor id, sequence number, …).
    pub a: u64,
    /// Second event argument (peer rank, attempt number, record count, …).
    pub b: u64,
}

impl TraceEvent {
    /// A complete (`X`) span covering `[ts, ts + dur)`.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        cat: Category,
        name: &'static str,
        pid: u32,
        tid: u32,
        ts: u64,
        dur: u64,
        a: u64,
        b: u64,
    ) -> Self {
        TraceEvent {
            cat,
            name,
            kind: EventKind::Complete,
            ts,
            dur,
            pid,
            tid,
            a,
            b,
        }
    }

    /// A span-open (`B`) event.
    pub fn begin(cat: Category, name: &'static str, pid: u32, ts: u64, a: u64, b: u64) -> Self {
        TraceEvent {
            cat,
            name,
            kind: EventKind::Begin,
            ts,
            dur: 0,
            pid,
            tid: 0,
            a,
            b,
        }
    }

    /// A span-close (`E`) event.
    pub fn end(cat: Category, name: &'static str, pid: u32, ts: u64, a: u64, b: u64) -> Self {
        TraceEvent {
            cat,
            name,
            kind: EventKind::End,
            ts,
            dur: 0,
            pid,
            tid: 0,
            a,
            b,
        }
    }

    /// An instant (`i`) event.
    pub fn instant(cat: Category, name: &'static str, pid: u32, ts: u64, a: u64, b: u64) -> Self {
        TraceEvent {
            cat,
            name,
            kind: EventKind::Instant,
            ts,
            dur: 0,
            pid,
            tid: 0,
            a,
            b,
        }
    }
}

/// Bounded single-producer event buffer owned by one thread. The owning
/// thread appends lock-free; the session drains it only after the
/// producing threads have quiesced (worker threads are joined before
/// [`TraceSession::finish`] runs).
struct ThreadBuf {
    len: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[std::cell::UnsafeCell<std::mem::MaybeUninit<TraceEvent>>]>,
}

// SAFETY: `slots[i]` is written at most once, by the single producing
// thread, strictly before it publishes `len = i + 1` with Release; readers
// only touch `slots[..len]` after an Acquire load of `len`. Slots are never
// rewritten, so no reader can observe a torn event.
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || {
            std::cell::UnsafeCell::new(std::mem::MaybeUninit::uninit())
        });
        ThreadBuf {
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        }
    }

    fn push(&self, ev: TraceEvent) {
        let len = self.len.load(Ordering::Relaxed);
        if len >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owning thread pushes (see the `Sync` comment).
        unsafe { (*self.slots[len].get()).write(ev) };
        self.len.store(len + 1, Ordering::Release);
    }

    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let len = self.len.load(Ordering::Acquire);
        for slot in self.slots.iter().take(len) {
            // SAFETY: slots below `len` are initialized (Release/Acquire
            // pairing on `len`).
            out.push(unsafe { (*slot.get()).assume_init() });
        }
    }
}

/// Global enabled-category bitmask: THE off-path cost. Zero when no
/// session is active, so every hook reduces to one relaxed load + test.
static MASK: AtomicU32 = AtomicU32::new(0);

/// Monotonic session counter; thread-local buffers re-register when their
/// cached id goes stale. 0 = no session ever.
static SESSION_ID: AtomicU64 = AtomicU64::new(0);

/// Per-session buffer capacity, set by [`TraceSession::start_with_capacity`].
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);

/// Default per-thread event capacity.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 16;

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: std::sync::OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn session_lock() -> &'static Mutex<()> {
    static LOCK: std::sync::OnceLock<Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

thread_local! {
    /// (session id this buffer belongs to, the buffer).
    static LOCAL: RefCell<(u64, Option<Arc<ThreadBuf>>)> = const { RefCell::new((0, None)) };
}

/// Whether any category in `cat` is currently enabled. This is the whole
/// disabled-path cost: one relaxed atomic load and a mask test.
#[inline(always)]
pub fn enabled(cat: Category) -> bool {
    MASK.load(Ordering::Relaxed) & cat.0 != 0
}

/// The currently enabled categories.
pub fn mask() -> Category {
    Category(MASK.load(Ordering::Relaxed))
}

/// Record one event into the calling thread's buffer. Callers gate on
/// [`enabled`] first; events recorded while no session is active are
/// silently discarded.
///
/// Outlined and marked cold on purpose: hooks sit inside the simulator's
/// hottest functions (`Proc::compute`, the MPI entry points, the VM
/// dispatch loop), and inlining the thread-local/registry machinery there
/// measurably slows the *disabled* path by blowing those functions'
/// inlining budgets and I-cache footprint. With the body outlined, a
/// disabled hook is one relaxed load, a test, and a never-taken branch
/// into a cold section.
#[cold]
#[inline(never)]
pub fn record(ev: TraceEvent) {
    let sid = SESSION_ID.load(Ordering::Relaxed);
    if sid == 0 {
        return;
    }
    LOCAL.with(|local| {
        let (owner, buf) = &mut *local.borrow_mut();
        if *owner != sid {
            *owner = sid;
            *buf = None;
        }
        let buf = buf.get_or_insert_with(|| {
            let buf = Arc::new(ThreadBuf::new(CAPACITY.load(Ordering::Relaxed)));
            registry().lock().push(Arc::clone(&buf));
            buf
        });
        buf.push(ev);
    });
}

/// A drained trace: every event recorded during one session.
#[derive(Clone, Debug)]
pub struct Trace {
    /// All events, grouped per producing thread (within one thread the
    /// order is program order); exporters stable-sort by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to full per-thread buffers.
    pub dropped: u64,
    /// The category mask the session ran with.
    pub mask: Category,
}

impl Trace {
    /// Events of any category in `cat` (which may be a compound mask like
    /// [`Category::ALL`]), in drain order.
    pub fn of(&self, cat: Category) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.cat.overlaps(cat))
    }

    /// Number of events of any category in `cat`.
    pub fn count(&self, cat: Category) -> usize {
        self.of(cat).count()
    }

    /// Distinct rank lanes (pids below [`SERVER_LANE`]) that emitted
    /// events.
    pub fn rank_lanes(&self) -> Vec<u32> {
        let mut lanes: Vec<u32> = self
            .events
            .iter()
            .filter(|e| e.pid < SERVER_LANE)
            .map(|e| e.pid)
            .collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
    }
}

/// An exclusive process-wide tracing session. Starting one clears all
/// buffers and sets the category mask; [`TraceSession::finish`] zeroes the
/// mask and drains every registered buffer.
pub struct TraceSession {
    mask: Category,
    _guard: parking_lot::MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Begin a session with the default per-thread capacity.
    pub fn start(mask: Category) -> TraceSession {
        TraceSession::start_with_capacity(mask, DEFAULT_CAPACITY)
    }

    /// Begin a session with an explicit per-thread event capacity.
    pub(crate) fn start_with_capacity(mask: Category, capacity: usize) -> TraceSession {
        let guard = session_lock().lock();
        registry().lock().clear();
        CAPACITY.store(capacity.max(1), Ordering::Relaxed);
        SESSION_ID.fetch_add(1, Ordering::Relaxed);
        MASK.store(mask.0, Ordering::Relaxed);
        TraceSession {
            mask,
            _guard: guard,
        }
    }

    /// End the session and drain every thread's events. Call only after
    /// the traced workload's threads have quiesced (e.g. the simulated
    /// world's worker threads are joined).
    pub fn finish(self) -> Trace {
        MASK.store(0, Ordering::Relaxed);
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for buf in registry().lock().drain(..) {
            buf.drain_into(&mut events);
            dropped += buf.dropped.load(Ordering::Relaxed);
        }
        Trace {
            events,
            dropped,
            mask: self.mask,
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        // `finish` consumes `self` without running Drop logic twice: the
        // mask store is idempotent. A session dropped without `finish`
        // (test panic) still turns tracing off before releasing the lock.
        MASK.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_mask_gates() {
        // Holding the session lock serializes against sibling tests, so
        // the enabled/disabled observations here are race-free.
        let s = TraceSession::start(Category::MPI | Category::ENGINE);
        assert!(enabled(Category::MPI));
        assert!(enabled(Category::ENGINE));
        assert!(!enabled(Category::SENSOR));
        let t = s.finish();
        assert_eq!(t.events.len(), 0);
    }

    #[test]
    fn events_round_trip_in_order() {
        let s = TraceSession::start(Category::ALL);
        for i in 0..100u64 {
            record(TraceEvent::instant(Category::MPI, "tick", 3, i, i, 0));
        }
        record(TraceEvent::complete(
            Category::ENGINE,
            "ingest",
            SERVER_LANE,
            2,
            50,
            10,
            1,
            2,
        ));
        let t = s.finish();
        assert_eq!(t.count(Category::MPI), 100);
        assert_eq!(t.count(Category::ENGINE), 1);
        assert_eq!(t.dropped, 0);
        let mpi: Vec<u64> = t.of(Category::MPI).map(|e| e.ts).collect();
        assert_eq!(mpi, (0..100).collect::<Vec<_>>(), "program order kept");
        assert_eq!(t.rank_lanes(), vec![3]);
    }

    #[test]
    fn bounded_buffers_drop_and_count() {
        let s = TraceSession::start_with_capacity(Category::ALL, 16);
        for i in 0..40u64 {
            record(TraceEvent::instant(Category::VM, "seg", 0, i, 0, 0));
        }
        let t = s.finish();
        assert_eq!(t.events.len(), 16);
        assert_eq!(t.dropped, 24);
    }

    #[test]
    fn threads_get_their_own_buffers() {
        let s = TraceSession::start(Category::ALL);
        std::thread::scope(|scope| {
            for pid in 0..4u32 {
                scope.spawn(move || {
                    for i in 0..10u64 {
                        record(TraceEvent::instant(Category::COMPUTE, "c", pid, i, 0, 0));
                    }
                });
            }
        });
        let t = s.finish();
        assert_eq!(t.count(Category::COMPUTE), 40);
        assert_eq!(t.rank_lanes(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn stale_sessions_discard_nothing_into_new_ones() {
        let s1 = TraceSession::start(Category::ALL);
        record(TraceEvent::instant(Category::MPI, "a", 0, 1, 0, 0));
        let t1 = s1.finish();
        assert_eq!(t1.events.len(), 1);
        // A second session must see a clean slate: the thread-local buffer
        // from s1 is stale and gets transparently re-registered.
        let s2 = TraceSession::start(Category::ALL);
        record(TraceEvent::instant(Category::MPI, "b", 0, 3, 0, 0));
        let t2 = s2.finish();
        assert_eq!(t2.events.len(), 1, "no leakage across sessions");
        assert_eq!(t2.events[0].name, "b");
    }

    #[test]
    fn category_labels_and_ops() {
        assert_eq!(Category::MPI.label(), "mpi");
        assert_eq!(Category::SCHED.label(), "sched");
        assert_eq!(Category::ALL.bits(), 0x7f);
        assert!(Category::ALL.contains(Category::VM));
        let mut c = Category::SENSOR;
        c |= Category::VM;
        assert!(c.contains(Category::VM) && c.contains(Category::SENSOR));
        assert!(!c.contains(Category::MPI));
        assert!(c.overlaps(Category::VM) && Category::VM.overlaps(c));
        assert!(!c.overlaps(Category::MPI));
    }

    #[test]
    fn compound_masks_filter_any_of() {
        // Events carry a single bit; querying with a compound mask must
        // match "any of", not require every queried bit.
        let s = TraceSession::start(Category::ALL);
        record(TraceEvent::instant(Category::MPI, "send", 0, 1, 0, 0));
        record(TraceEvent::instant(Category::SENSOR, "sense", 0, 2, 0, 0));
        record(TraceEvent::instant(Category::VM, "vm_run", 0, 3, 0, 0));
        let t = s.finish();
        assert_eq!(t.count(Category::ALL), 3);
        assert_eq!(t.count(Category::SENSOR | Category::MPI), 2);
        let sense = t
            .of(Category::SENSOR | Category::MPI)
            .filter(|e| e.name == "sense");
        assert_eq!(sense.count(), 1);
        assert_eq!(t.count(Category::TRANSPORT | Category::ENGINE), 0);
    }
}
