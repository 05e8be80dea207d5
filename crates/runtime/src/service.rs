//! Multi-tenant always-on analysis service.
//!
//! The single-run [`AnalysisServer`] analyses one job and stops; the
//! ROADMAP north-star is a long-lived service ingesting hundreds of
//! concurrent jobs. This module is that front door: an [`AnalysisService`]
//! multiplexes N independent per-tenant servers behind one tenant-routed
//! API, with
//!
//! - **tenant routing and lazy admission** — a tenant registers a
//!   [`TenantSpec`] (rank count, sensor table, [`RuntimeConfig`]) up
//!   front, but its engine (and WAL, when the service is durable) is only
//!   built on first ingest;
//! - **admission control and backpressure** — each tenant gets a bounded
//!   batch budget per admission window, split evenly across its ranks so
//!   refusal is a pure function of the refusing rank's own timeline; an
//!   over-budget ingest is refused with the retryable
//!   [`IngestError::Backpressure`], carrying how long until the window
//!   rolls over, which the transport honors as [`SendOutcome::Busy`] —
//!   a delay, never a drop;
//! - **fair drain** — fairness is structural: every tenant has its own
//!   engine with its own lock, and the service front door never holds a
//!   cross-tenant lock across an engine ingest, so a hot tenant saturates
//!   only its own engine and its own budget;
//! - **per-tenant WAL isolation** — one [`WriteAheadLog`] per tenant, so
//!   recovering tenant A never replays a byte of tenant B;
//! - **hot-standby failover** — a standby replica set follows each
//!   tenant's WAL by checkpoint: a catch-up restores the newest checkpoint
//!   the replica has not passed and re-ingests the batches behind it, at
//!   most one detection interval (`AnalysisServer::catch_up`, the same read
//!   [`AnalysisServer::recover`] does); killing the primary promotes the
//!   replicas (`AnalysisServer::into_primary`), and because replay is a
//!   faithful re-execution of the journaled ingest order, every promoted
//!   tenant's [`ServerResult`] is bitwise-identical to the crash-free
//!   run's;
//! - **one crash story** — a run with a private server is a one-tenant
//!   service around it (`AnalysisService::solo`, what
//!   [`crate::transport::FaultyChannel::new`] routes into), so a planned
//!   server crash is always [`AnalysisService::fail_over`]: a standby that
//!   was never caught up replays the whole log, a cold recovery.
//!
//! # What survives a failover
//!
//! Engine state is rebuilt from the WAL. The *admission ledger* (window
//! counters, latency samples) lives in the service front door, which in a
//! real deployment is the replicated routing tier — it survives the
//! engine-process crash by construction. Because the budget is split per
//! rank and a refused batch is delayed (retried after the window) rather
//! than dropped, admission decisions are a deterministic function of each
//! rank's own virtual timeline: even a tenant deep in backpressure
//! produces the same journaled ingest stream on every run, so crash /
//! crash-free equivalence holds bitwise for hot tenants too.
//!
//! [`SendOutcome::Busy`]: crate::transport::SendOutcome::Busy

use crate::config::RuntimeConfig;
use crate::control::ControlDirective;
use crate::engine::{AnalysisServer, IngestReceipt, VarianceAlert, SERVER_RECORD_COST};
use crate::error::{IngestError, RuntimeError};
use crate::record::SensorInfo;
use crate::server::ServerResult;
use crate::transport::{self, AnalysisSink, BatchChannel, SendOutcome, TelemetryBatch};
use crate::wal::WriteAheadLog;
use cluster_sim::fault::FaultPlan;
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::trace::{self, Category, TraceEvent, SERVER_LANE};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Opaque tenant identity; routing key for every service operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What one tenant's analysis needs: its own rank count, sensor table and
/// runtime configuration — tenants are fully independent runs.
#[derive(Clone)]
pub struct TenantSpec {
    /// MPI ranks in this tenant's job.
    pub ranks: usize,
    /// The tenant's sensor table.
    pub sensors: Vec<SensorInfo>,
    /// The tenant's runtime configuration.
    pub config: RuntimeConfig,
}

/// Length of the admission window a tenant's batch budget applies to.
pub(crate) const BUDGET_WINDOW: Duration = Duration::from_millis(100);

/// Service-level tunables.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum tenants admitted; registration past this is refused.
    pub max_tenants: usize,
    /// Batches each tenant may ingest per 100 ms admission window
    /// (`BUDGET_WINDOW`); 0 disables admission control (unlimited).
    pub tenant_batch_budget: u32,
    /// Whether each tenant journals to its own write-ahead log. Required
    /// for standby failover.
    pub durable: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_tenants: 64,
            tenant_batch_budget: 0,
            durable: false,
        }
    }
}

impl ServiceConfig {
    /// Cap the tenant count (builder style).
    pub fn with_max_tenants(mut self, max: usize) -> Self {
        self.max_tenants = max;
        self
    }

    /// Set the per-tenant batch budget per window (builder style).
    pub fn with_batch_budget(mut self, budget: u32) -> Self {
        self.tenant_batch_budget = budget;
        self
    }

    /// Journal every tenant to its own WAL (builder style).
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

/// Why a service-level operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The tenant cap is reached.
    AdmissionDenied {
        /// Tenants currently registered.
        tenants: usize,
        /// The configured cap.
        max: usize,
    },
    /// The tenant id is already registered.
    DuplicateTenant(TenantId),
    /// No tenant with this id is registered.
    UnknownTenant(TenantId),
    /// The tenant's [`RuntimeConfig`] failed validation.
    InvalidTenantConfig {
        /// The offending tenant.
        tenant: TenantId,
        /// What was wrong.
        source: RuntimeError,
    },
    /// Standby failover needs a durable service.
    NotDurable,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::AdmissionDenied { tenants, max } => {
                write!(
                    f,
                    "admission denied: {tenants} tenants registered, cap {max}"
                )
            }
            ServiceError::DuplicateTenant(t) => write!(f, "tenant {t} is already registered"),
            ServiceError::UnknownTenant(t) => write!(f, "no tenant {t} is registered"),
            ServiceError::InvalidTenantConfig { tenant, source } => {
                write!(f, "tenant {tenant} config invalid: {source}")
            }
            ServiceError::NotDurable => {
                write!(f, "standby failover requires a durable service")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Front-door admission and observability counters for one tenant.
#[derive(Default)]
struct Ledger {
    /// Per-rank admission windows: `(window index, batches admitted in
    /// it)`, indexed by sending rank. The tenant's budget is divided
    /// evenly among its ranks so that refusal is a pure function of the
    /// refusing rank's *own* arrival timeline — a shared tenant-wide
    /// counter would make "which rank's batch gets refused" depend on the
    /// cross-rank arrival race, and (because refusals feed back into the
    /// sender's virtual clock) would make degraded runs
    /// non-reproducible.
    rank_windows: Vec<(u64, u32)>,
    accepted: u64,
    backpressured: u64,
    /// The instant the tenant's ingest front door is busy until — the
    /// queueing model behind the latency samples.
    free_at: VirtualTime,
    /// Virtual ingest latency samples (arrival → front-door completion).
    latencies: Vec<u64>,
}

/// One tenant's slot in the service: its live engine (if admitted — the
/// engine holds the tenant's WAL handle) and its admission ledger, two
/// locks in all. The ledger lock is never held across an engine ingest,
/// and no lock spans two tenants.
struct TenantShard {
    id: TenantId,
    spec: TenantSpec,
    /// Live server, built lazily on first ingest; swapped on failover.
    /// An ingest holds this *shared* for the whole engine call and
    /// promotion takes it *exclusively* from the replica's final catch-up
    /// to the swap, so no batch can be journaled by the dying primary
    /// after the replica stopped reading the journal. Ingests of one
    /// tenant share this lock and serialize inside the engine, on its
    /// state lock; tenants never share either.
    live: RwLock<Option<Arc<AnalysisServer>>>,
    ledger: Mutex<Ledger>,
}

impl TenantShard {
    fn new(id: TenantId, spec: TenantSpec, live: Option<Arc<AnalysisServer>>) -> Arc<Self> {
        Arc::new(TenantShard {
            id,
            spec,
            live: RwLock::new(live),
            ledger: Mutex::new(Ledger::default()),
        })
    }

    /// The tenant's own journal: the live engine's (durable services only,
    /// once admitted). A promoted replica journals to the same log.
    fn wal(&self) -> Option<Arc<WriteAheadLog>> {
        self.live.read().as_ref()?.wal().cloned()
    }
}

/// A standby replica of one tenant, kept caught up by WAL replay.
struct Replica {
    server: AnalysisServer,
    /// Frames of the tenant's WAL already applied.
    cursor: usize,
}

impl Replica {
    /// `prior` caught up with `wal` — or, for a tenant with no replica
    /// yet, [`AnalysisServer::replay_from`] the start of the log (a cold
    /// standby). The one place a replica is built.
    fn caught_up(
        prior: Option<Replica>,
        wal: &Arc<WriteAheadLog>,
        tenant: TenantId,
    ) -> Result<Replica, ServiceError> {
        let (server, cursor) = match prior {
            Some(Replica { mut server, cursor }) => {
                let cursor = server.catch_up(wal, cursor);
                (server, cursor)
            }
            None => AnalysisServer::replay_from(wal)
                .map_err(|source| ServiceError::InvalidTenantConfig { tenant, source })?,
        };
        Ok(Replica { server, cursor })
    }
}

/// The standby side of the service, under one lock: the replicas (present
/// once [`AnalysisService::attach_standby`] ran) and whether
/// [`AnalysisService::fail_over`] has promoted them.
#[derive(Default)]
struct Standby {
    replicas: Option<BTreeMap<TenantId, Replica>>,
    promoted: bool,
}

/// Observable per-tenant service counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Batches admitted past the front door.
    pub accepted: u64,
    /// Batches refused with [`IngestError::Backpressure`].
    pub backpressured: u64,
    /// 99th-percentile virtual ingest latency (arrival → front-door
    /// completion), zero until samples exist.
    pub p99_ingest_latency: Duration,
}

/// The multi-tenant analysis service. Shared across rank threads with an
/// `Arc`; every operation routes by [`TenantId`].
pub struct AnalysisService {
    config: ServiceConfig,
    tenants: Mutex<BTreeMap<TenantId, Arc<TenantShard>>>,
    standby: Mutex<Standby>,
}

impl AnalysisService {
    /// Create a service.
    pub fn new(config: ServiceConfig) -> Self {
        AnalysisService {
            config,
            tenants: Mutex::new(BTreeMap::new()),
            standby: Mutex::new(Standby::default()),
        }
    }

    /// A one-tenant service around a private server: tenant 0, spec'd from
    /// the server's own ranks, sensors and config, with `server` itself
    /// live (the route ingests into this instance, not a rebuilt copy) and
    /// no admission budget. Durable iff the server journals, and then with an
    /// empty standby attached, so a planned crash promotes a replica that
    /// replays the server's log from the start: a cold recovery.
    pub(crate) fn solo(server: Arc<AnalysisServer>) -> Self {
        let durable = server.wal().is_some();
        let spec = TenantSpec {
            ranks: server.ranks(),
            sensors: server.sensors().to_vec(),
            config: server.config().clone(),
        };
        let id = TenantId(0);
        AnalysisService {
            config: ServiceConfig {
                durable,
                ..ServiceConfig::default()
            },
            tenants: Mutex::new(BTreeMap::from([(
                id,
                TenantShard::new(id, spec, Some(server)),
            )])),
            standby: Mutex::new(Standby {
                replicas: durable.then(BTreeMap::new),
                promoted: false,
            }),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Register a tenant. Admission control happens here: past
    /// `max_tenants` the service refuses, and an invalid tenant config is
    /// rejected up front so the lazy engine build cannot fail later.
    pub fn register(&self, id: TenantId, spec: TenantSpec) -> Result<(), ServiceError> {
        spec.config
            .validate()
            .map_err(|source| ServiceError::InvalidTenantConfig { tenant: id, source })?;
        let mut tenants = self.tenants.lock();
        if tenants.contains_key(&id) {
            return Err(ServiceError::DuplicateTenant(id));
        }
        if tenants.len() >= self.config.max_tenants {
            return Err(ServiceError::AdmissionDenied {
                tenants: tenants.len(),
                max: self.config.max_tenants,
            });
        }
        tenants.insert(id, TenantShard::new(id, spec, None));
        Ok(())
    }

    /// Registered tenants, in id order.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.lock().keys().copied().collect()
    }

    /// Remove a tenant and evict everything it owned: its live engine,
    /// its write-ahead log handle, its admission ledger and its standby
    /// replica all drop with the shard, so a later [`register`] under the
    /// same id starts from a clean slate. Subsequent ingests get
    /// [`IngestError::UnknownTenant`], exactly like an unregistered
    /// tenant.
    ///
    /// [`register`]: AnalysisService::register
    pub fn deregister_tenant(&self, tenant: TenantId) -> Result<(), ServiceError> {
        self.tenants
            .lock()
            .remove(&tenant)
            .ok_or(ServiceError::UnknownTenant(tenant))?;
        // The standby map is keyed separately; evict the replica too.
        if let Some(replicas) = self.standby.lock().replicas.as_mut() {
            replicas.remove(&tenant);
        }
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::instant(
                Category::ENGINE,
                "tenant_deregister",
                SERVER_LANE,
                0,
                tenant.0 as u64,
                0,
            ));
        }
        Ok(())
    }

    fn shard(&self, id: TenantId) -> Option<Arc<TenantShard>> {
        self.tenants.lock().get(&id).cloned()
    }

    /// The tenant's live server (post-failover: the promoted one), built
    /// on demand — reading results forces admission just like ingest does.
    pub fn server(&self, id: TenantId) -> Option<Arc<AnalysisServer>> {
        let shard = self.shard(id)?;
        Some(self.live_server(&shard))
    }

    /// The tenant's WAL handle, if the service is durable and the tenant
    /// has been admitted.
    pub fn wal(&self, id: TenantId) -> Option<Arc<WriteAheadLog>> {
        self.shard(id)?.wal()
    }

    /// Get or lazily build the tenant's engine (and WAL when durable).
    fn live_server(&self, shard: &TenantShard) -> Arc<AnalysisServer> {
        if let Some(server) = shard.live.read().as_ref() {
            return server.clone();
        }
        let mut live = shard.live.write();
        if let Some(server) = live.as_ref() {
            return server.clone(); // another rank built it meanwhile
        }
        let spec = shard.spec.clone();
        let server = if self.config.durable {
            AnalysisServer::try_new_durable(spec.ranks, spec.sensors, spec.config)
                .map(|(server, _wal)| server)
        } else {
            AnalysisServer::try_new(spec.ranks, spec.sensors, spec.config)
        };
        // Proof: `register` rejects a spec whose config fails `validate`,
        // the only error either constructor returns.
        let server = Arc::new(server.expect("tenant config validated at register"));
        *live = Some(server.clone());
        server
    }

    /// Ingest one batch for `tenant`. The admission window is checked
    /// first — an over-budget rank (the tenant's budget is split evenly
    /// per rank, each with its own window cursor) gets the retryable
    /// [`IngestError::Backpressure`] with the time until its window rolls
    /// over, and the batch never reaches (or is journaled by) its engine.
    /// An unregistered tenant gets the typed
    /// [`IngestError::UnknownTenant`] — a misrouted job, not a finished
    /// session.
    pub fn ingest(
        &self,
        tenant: TenantId,
        batch: &TelemetryBatch,
        arrival: VirtualTime,
    ) -> Result<IngestReceipt, IngestError> {
        let Some(shard) = self.shard(tenant) else {
            return Err(IngestError::UnknownTenant(tenant));
        };
        let budget = self.config.tenant_batch_budget;
        if budget > 0 {
            let window_ns = BUDGET_WINDOW.as_nanos();
            // Each rank gets an even share of the tenant's window budget
            // and its own window cursor; see [`Ledger::rank_windows`].
            let share = (budget / shard.spec.ranks.max(1) as u32).max(1);
            let mut ledger = shard.ledger.lock();
            let rank = batch.rank;
            if ledger.rank_windows.len() <= rank {
                ledger.rank_windows.resize(rank + 1, (0, 0));
            }
            let window = arrival.as_nanos() / window_ns;
            let slot = &mut ledger.rank_windows[rank];
            if window > slot.0 {
                *slot = (window, 0);
            }
            if slot.1 >= share {
                let window_end = (slot.0 + 1) * window_ns;
                ledger.backpressured += 1;
                let retry_after =
                    Duration::from_nanos(window_end.saturating_sub(arrival.as_nanos()).max(1));
                return Err(IngestError::Backpressure {
                    tenant,
                    retry_after,
                });
            }
            slot.1 += 1;
        }
        // Ledger lock released: the engine ingest below runs under this
        // tenant's shared `live` lock, so tenants never serialize on each
        // other; one tenant's ingests serialize inside its engine, and only
        // a promotion of this tenant waits for (and holds off) them.
        let receipt = {
            let mut live = shard.live.read();
            if live.is_none() {
                drop(live);
                self.live_server(&shard);
                live = shard.live.read();
            }
            // Proof: `live_server` just filled the slot, and only a
            // promotion writes it again — with another server.
            let server = live.as_ref().expect("built above; never cleared");
            server.ingest(batch, arrival)?
        };
        let cost = SERVER_RECORD_COST.mul_f64(receipt.records.max(1) as f64);
        let mut ledger = shard.ledger.lock();
        let start = ledger.free_at.max(arrival);
        let done = start + cost;
        ledger.free_at = done;
        ledger.accepted += 1;
        ledger.latencies.push((done - arrival).as_nanos());
        Ok(receipt)
    }

    /// Drain one tenant's detection-stream alerts.
    pub fn poll_events(&self, tenant: TenantId) -> Vec<VarianceAlert> {
        self.server(tenant)
            .map(|s| s.poll_events())
            .unwrap_or_default()
    }

    /// Acknowledge a control epoch applied by one of `tenant`'s ranks.
    /// Rejected with [`ServiceError::UnknownTenant`] when no such tenant
    /// is registered.
    pub fn control_ack(
        &self,
        tenant: TenantId,
        rank: usize,
        epoch: u64,
    ) -> Result<(), ServiceError> {
        let shard = self
            .shard(tenant)
            .ok_or(ServiceError::UnknownTenant(tenant))?;
        self.live_server(&shard).control_ack(rank, epoch);
        Ok(())
    }

    /// Seal one tenant's engine and read its final result. Other tenants
    /// are untouched — closing is per-tenant, the service stays up.
    pub fn close_tenant(
        &self,
        tenant: TenantId,
        run_end: VirtualTime,
    ) -> Result<ServerResult, ServiceError> {
        let server = self
            .server(tenant)
            .ok_or(ServiceError::UnknownTenant(tenant))?;
        Ok(server.session().close(run_end))
    }

    /// Front-door counters for one tenant.
    pub fn stats(&self, tenant: TenantId) -> Option<TenantStats> {
        let shard = self.shard(tenant)?;
        let ledger = shard.ledger.lock();
        let p99 = if ledger.latencies.is_empty() {
            Duration::ZERO
        } else {
            let mut sorted = ledger.latencies.clone();
            sorted.sort_unstable();
            let idx = (sorted.len() - 1) * 99 / 100;
            Duration::from_nanos(sorted[idx])
        };
        Some(TenantStats {
            accepted: ledger.accepted,
            backpressured: ledger.backpressured,
            p99_ingest_latency: p99,
        })
    }

    /// Attach a hot standby: from now on the service keeps (or can build)
    /// a WAL-replay replica per tenant, and [`AnalysisService::fail_over`]
    /// promotes them. Requires a durable service — there is nothing to
    /// replay otherwise.
    pub fn attach_standby(&self) -> Result<(), ServiceError> {
        if !self.config.durable {
            return Err(ServiceError::NotDurable);
        }
        self.standby
            .lock()
            .replicas
            .get_or_insert_with(BTreeMap::new);
        Ok(())
    }

    /// Catch the standby up. Replicas follow checkpoints: each admitted
    /// tenant's replica (built on its first catch-up) restores the newest
    /// checkpoint journaled since its cursor and re-ingests the batches
    /// behind it — at most one detection interval, however long ago the
    /// last call was; a caught-up tenant applies nothing.
    pub fn catch_up_standby(&self) -> Result<(), ServiceError> {
        let mut standby = self.standby.lock();
        let replicas = standby.replicas.as_mut().ok_or(ServiceError::NotDurable)?;
        let shards: Vec<Arc<TenantShard>> = self.tenants.lock().values().cloned().collect();
        for shard in shards {
            let Some(wal) = shard.wal() else {
                continue; // not admitted yet: nothing journaled
            };
            let replica = Replica::caught_up(replicas.remove(&shard.id), &wal, shard.id)?;
            replicas.insert(shard.id, replica);
        }
        Ok(())
    }

    /// Whether the primary has been killed and the standby promoted.
    pub fn failed_over(&self) -> bool {
        self.standby.lock().promoted
    }

    /// Kill the primary and promote the standby, once — the one code path
    /// that replaces a crashed server. Every admitted tenant's live engine
    /// is discarded wholesale (in-memory state dies with the process); its
    /// replica does a final catch-up from the tenant's own WAL (a tenant
    /// with no replica yet replays the whole log), is promoted
    /// (`AnalysisServer::into_primary`) and starts journaling. Per-tenant
    /// WAL isolation means promoting tenant A replays zero bytes of tenant
    /// B. Admission ledgers live in the front door and survive. With no
    /// standby attached this is refused ([`ServiceError::NotDurable`]) and
    /// marks nothing failed over.
    pub fn fail_over(&self, now: VirtualTime) -> Result<(), ServiceError> {
        let mut standby = self.standby.lock();
        let Standby { replicas, promoted } = &mut *standby;
        let replicas = replicas.as_mut().ok_or(ServiceError::NotDurable)?;
        if std::mem::replace(promoted, true) {
            return Ok(()); // already promoted
        }
        if trace::enabled(Category::ENGINE) {
            trace::record(TraceEvent::instant(
                Category::ENGINE,
                "service_failover",
                SERVER_LANE,
                now.as_nanos(),
                self.tenants.lock().len() as u64,
                0,
            ));
        }
        let shards: Vec<Arc<TenantShard>> = self.tenants.lock().values().cloned().collect();
        for shard in shards {
            // Exclusive from here to the swap: in-flight ingests of this
            // tenant finish (and journal) first, later ones see the
            // promoted engine.
            let mut live = shard.live.write();
            let Some(wal) = live.as_ref().and_then(|s| s.wal().cloned()) else {
                continue; // never admitted: nothing to lose or promote
            };
            let replica = Replica::caught_up(replicas.remove(&shard.id), &wal, shard.id)?;
            *live = Some(Arc::new(replica.server.into_primary(&wal)));
            if trace::enabled(Category::ENGINE) {
                trace::record(TraceEvent::instant(
                    Category::ENGINE,
                    "tenant_promote",
                    SERVER_LANE,
                    now.as_nanos(),
                    shard.id.0 as u64,
                    wal.frames() as u64,
                ));
            }
        }
        Ok(())
    }
}

/// The transport-facing route from one tenant's ranks into the service,
/// and the only [`BatchChannel`] the product builds (a run with a private
/// server is a one-tenant service: [`crate::transport::FaultyChannel::new`]).
/// It consults a [`FaultPlan`] per attempt — drops, duplicates, delays,
/// corruption, outages, through the fate translation of
/// [`crate::transport`] — maps admission refusals to
/// [`SendOutcome::Busy`], and fires [`AnalysisService::fail_over`] when the
/// plan kills the primary.
pub struct TenantChannel {
    service: Arc<AnalysisService>,
    tenant: TenantId,
    plan: FaultPlan,
}

impl TenantChannel {
    /// Route `tenant`'s batches into `service` under `plan`.
    pub fn new(service: Arc<AnalysisService>, tenant: TenantId, plan: FaultPlan) -> Self {
        TenantChannel {
            service,
            tenant,
            plan,
        }
    }

    /// The service behind this route.
    pub fn service(&self) -> Arc<AnalysisService> {
        self.service.clone()
    }

    /// The primary dies at its planned instant; the first operation to
    /// observe that — a send, a control poll or a control ack — promotes
    /// the standby. A service with no standby (around a server that does
    /// not journal) has nothing to promote, and the crash passes unseen.
    fn fail_over_if_due(&self, now: VirtualTime) {
        if let Some(crash_at) = self.plan.server_crash().filter(|&at| now >= at) {
            let _ = self.service.fail_over(crash_at);
        }
    }
}

impl BatchChannel for TenantChannel {
    fn send(&self, batch: &TelemetryBatch, now: VirtualTime, attempt: u32) -> SendOutcome {
        self.fail_over_if_due(now);
        transport::deliver(&self.plan, batch, now, attempt, |b, arrival| {
            match self.service.ingest(self.tenant, b, arrival) {
                Err(IngestError::Backpressure { retry_after, .. }) => {
                    SendOutcome::Busy { retry_after }
                }
                result => transport::ack_of(result),
            }
        })
    }

    fn poll_control(&self, rank: usize, now: VirtualTime) -> Vec<ControlDirective> {
        self.fail_over_if_due(now);
        // A deregistered tenant has no control plane; the rank's poll
        // comes back empty instead of panicking on the routing lookup.
        let Some(server) = self.service.server(self.tenant) else {
            return Vec::new();
        };
        transport::faulty_poll_control(&server, &self.plan, rank, now)
    }

    fn ack_control(&self, rank: usize, epoch: u64, now: VirtualTime) {
        self.fail_over_if_due(now);
        // Acks ride the poll exchange and are reliable; an unknown tenant
        // surfaces as the typed ServiceError, swallowed here because the
        // channel contract is fire-and-forget.
        let _ = self.service.control_ack(self.tenant, rank, epoch);
    }
}

impl AnalysisSink for TenantChannel {
    /// The tenant's live server — after a promotion, the promoted one.
    ///
    /// # Panics
    ///
    /// If the tenant was deregistered: a sink has no error path, and
    /// reading a run's results through a route to a tenant its caller
    /// evicted is a caller bug.
    fn server(&self) -> Arc<AnalysisServer> {
        // Proof: see `# Panics` — only `deregister_tenant` unregisters.
        self.service
            .server(self.tenant)
            .expect("TenantChannel implies a registered tenant")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynrules::Bucket;
    use crate::record::{SensorKind, SliceRecord};
    use vsensor_lang::SensorId;

    fn spec(ranks: usize) -> TenantSpec {
        TenantSpec {
            ranks,
            sensors: vec![SensorInfo {
                sensor: SensorId(0),
                kind: SensorKind::Computation,
                process_invariant: true,
                location: "test:0".into(),
            }],
            config: RuntimeConfig::default(),
        }
    }

    fn batch(rank: usize, seq: u64, t: VirtualTime) -> TelemetryBatch {
        TelemetryBatch::new(
            rank,
            seq,
            t,
            vec![SliceRecord {
                sensor: SensorId(0),
                slice: seq,
                avg: Duration::from_micros(10 + seq),
                count: 1,
                bucket: Bucket(0),
            }],
        )
    }

    #[test]
    fn admission_cap_and_duplicates_are_refused() {
        let svc = AnalysisService::new(ServiceConfig::default().with_max_tenants(2));
        svc.register(TenantId(0), spec(1)).unwrap();
        svc.register(TenantId(1), spec(1)).unwrap();
        assert_eq!(
            svc.register(TenantId(1), spec(1)),
            Err(ServiceError::DuplicateTenant(TenantId(1)))
        );
        assert_eq!(
            svc.register(TenantId(2), spec(1)),
            Err(ServiceError::AdmissionDenied { tenants: 2, max: 2 })
        );
        assert_eq!(svc.tenants(), vec![TenantId(0), TenantId(1)]);
    }

    #[test]
    fn unknown_tenant_ingest_is_a_typed_permanent_error() {
        let svc = AnalysisService::new(ServiceConfig::default());
        let err = svc
            .ingest(
                TenantId(9),
                &batch(0, 0, VirtualTime::ZERO),
                VirtualTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err, IngestError::UnknownTenant(TenantId(9)));
        assert!(!err.is_retryable(), "resending cannot register a tenant");
    }

    #[test]
    fn unknown_tenant_control_traffic_is_rejected_typed() {
        let svc = AnalysisService::new(ServiceConfig::default());
        assert_eq!(
            svc.control_ack(TenantId(4), 0, 1),
            Err(ServiceError::UnknownTenant(TenantId(4)))
        );
        // The channel-shaped route swallows the rejection (fire-and-forget
        // contract) but must not panic on the routing lookup.
        let channel = TenantChannel::new(Arc::new(svc), TenantId(4), FaultPlan::none());
        assert!(channel.poll_control(0, VirtualTime::ZERO).is_empty());
        channel.ack_control(0, 1, VirtualTime::ZERO);
    }

    #[test]
    fn service_error_contract_is_exhaustive() {
        // One representative of every variant, classified through an
        // exhaustive match: adding a variant without deciding whether it
        // names a tenant (routable blame) fails to compile here.
        let every = [
            ServiceError::AdmissionDenied { tenants: 4, max: 4 },
            ServiceError::DuplicateTenant(TenantId(1)),
            ServiceError::UnknownTenant(TenantId(2)),
            ServiceError::InvalidTenantConfig {
                tenant: TenantId(4),
                source: crate::error::RuntimeError::invalid_config("slice", "must be positive"),
            },
            ServiceError::NotDurable,
        ];
        for e in every {
            let blamed: Option<TenantId> = match &e {
                // Service-wide refusals: no single tenant to blame.
                ServiceError::AdmissionDenied { .. } | ServiceError::NotDurable => None,
                // Tenant-scoped refusals must name the tenant...
                ServiceError::DuplicateTenant(t) | ServiceError::UnknownTenant(t) => Some(*t),
                ServiceError::InvalidTenantConfig { tenant, .. } => Some(*tenant),
            };
            // ...and the rendered message must carry it for operators.
            if let Some(t) = blamed {
                assert!(
                    e.to_string().contains(&t.to_string()),
                    "{e} does not name tenant {t}"
                );
            }
        }
    }

    #[test]
    fn over_budget_tenant_gets_retryable_backpressure_with_rollover_hint() {
        let svc = AnalysisService::new(ServiceConfig::default().with_batch_budget(2));
        let t = TenantId(0);
        svc.register(t, spec(1)).unwrap();
        let at = VirtualTime::from_micros(10);
        svc.ingest(t, &batch(0, 0, at), at).unwrap();
        svc.ingest(t, &batch(0, 1, at), at).unwrap();
        let err = svc.ingest(t, &batch(0, 2, at), at).unwrap_err();
        assert!(err.is_retryable(), "backpressure must be retryable");
        let IngestError::Backpressure {
            tenant,
            retry_after,
        } = err
        else {
            panic!("expected backpressure, got {err}");
        };
        assert_eq!(tenant, t);
        // Window is [0, BUDGET_WINDOW); arrival at 10us → rolls over
        // 10us before its end.
        assert_eq!(retry_after, BUDGET_WINDOW - Duration::from_micros(10));
        // After the window rolls over, the same tenant is admitted again.
        let later = at + retry_after;
        svc.ingest(t, &batch(0, 2, later), later).unwrap();
        let stats = svc.stats(t).unwrap();
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.backpressured, 1);
    }

    #[test]
    fn hot_tenant_budget_does_not_touch_its_neighbor() {
        let svc = AnalysisService::new(ServiceConfig::default().with_batch_budget(1));
        let hot = TenantId(0);
        let calm = TenantId(1);
        svc.register(hot, spec(1)).unwrap();
        svc.register(calm, spec(1)).unwrap();
        let at = VirtualTime::from_micros(1);
        svc.ingest(hot, &batch(0, 0, at), at).unwrap();
        for seq in 1..5 {
            assert!(svc.ingest(hot, &batch(0, seq, at), at).is_err());
        }
        // The neighbor's budget is its own.
        svc.ingest(calm, &batch(0, 0, at), at).unwrap();
        assert_eq!(svc.stats(calm).unwrap().backpressured, 0);
        assert_eq!(svc.stats(hot).unwrap().backpressured, 4);
    }

    #[test]
    fn tenant_wals_are_isolated() {
        let svc = AnalysisService::new(ServiceConfig::default().durable());
        let a = TenantId(0);
        let b = TenantId(1);
        svc.register(a, spec(1)).unwrap();
        svc.register(b, spec(1)).unwrap();
        let at = VirtualTime::from_micros(5);
        svc.ingest(a, &batch(0, 0, at), at).unwrap();
        svc.ingest(a, &batch(0, 1, at), at).unwrap();
        svc.ingest(b, &batch(0, 0, at), at).unwrap();
        // One journal per tenant, each holding only its own batches.
        assert_eq!(svc.wal(a).unwrap().batch_entries(), 2);
        assert_eq!(svc.wal(b).unwrap().batch_entries(), 1);
        // Recovering A replays A's log only; B's journal is untouched.
        let recovered = AnalysisServer::recover(&svc.wal(a).unwrap()).unwrap();
        let result = recovered.session().close(VirtualTime::from_millis(1));
        assert_eq!(result.batches, 2);
    }

    #[test]
    fn failover_promotes_standby_bitwise_identically() {
        let run = |crash: bool| -> ServerResult {
            let svc = Arc::new(AnalysisService::new(ServiceConfig::default().durable()));
            let t = TenantId(0);
            svc.register(t, spec(2)).unwrap();
            svc.attach_standby().unwrap();
            let end = VirtualTime::from_millis(10);
            for seq in 0..20u64 {
                let at = VirtualTime::from_micros(50 * (seq + 1));
                for rank in 0..2 {
                    svc.ingest(t, &batch(rank, seq, at), at).unwrap();
                }
                if seq == 7 {
                    svc.catch_up_standby().unwrap();
                }
                if crash && seq == 13 {
                    svc.fail_over(at).unwrap();
                }
            }
            svc.close_tenant(t, end).unwrap()
        };
        let plain = run(false);
        let failed = run(true);
        assert_eq!(plain.batches, failed.batches);
        assert_eq!(plain.records, failed.records);
        assert_eq!(plain.bytes_received, failed.bytes_received);
        for (kind, matrix) in &plain.matrices {
            let other = &failed.matrices[kind];
            assert_eq!(matrix.ranks(), other.ranks());
            assert_eq!(matrix.bins(), other.bins());
            for rank in 0..matrix.ranks() {
                for bin in 0..matrix.bins() {
                    let a = matrix.cell_raw(rank, bin).map(|(p, n)| (p.to_bits(), n));
                    let b = other.cell_raw(rank, bin).map(|(p, n)| (p.to_bits(), n));
                    assert_eq!(a, b, "cell ({rank}, {bin}) of {kind:?} diverged");
                }
            }
        }
    }

    #[test]
    fn cold_and_hot_standbys_promote_to_the_crash_free_engine() {
        // `None` never crashes; `Some(hot)` crashes mid-stream, with the
        // standby caught up after every wave (hot) or never (cold, which is
        // what a private server's planned crash is). Three detection passes
        // checkpoint, so both standbys restore a checkpoint on the way.
        let fingerprint = |crash: Option<bool>| {
            let svc = AnalysisService::new(ServiceConfig::default().durable());
            let t = TenantId(0);
            svc.register(t, spec(2)).unwrap();
            svc.attach_standby().unwrap();
            for seq in 0..600u64 {
                let at = VirtualTime::from_millis(seq + 1);
                for rank in 0..2 {
                    svc.ingest(t, &batch(rank, seq, at), at).unwrap();
                }
                if crash == Some(true) {
                    svc.catch_up_standby().unwrap();
                }
                if crash.is_some() && seq == 450 {
                    svc.fail_over(at).unwrap();
                }
            }
            assert!(svc.wal(t).unwrap().snapshot_entries() >= 2);
            assert_eq!(svc.failed_over(), crash.is_some());
            svc.server(t).unwrap().snapshot_for_tests().fingerprint()
        };
        let plain = fingerprint(None);
        assert_eq!(fingerprint(Some(false)), plain, "cold standby");
        assert_eq!(fingerprint(Some(true)), plain, "hot standby");
    }

    #[test]
    fn the_first_operation_past_the_planned_crash_promotes_poll_or_ack() {
        // Three sensors, one rank, a budget the stream blows through: the
        // controller darkens the two heaviest sensors, one epoch each.
        let config = RuntimeConfig {
            overhead_budget: 0.01,
            ..RuntimeConfig::default()
        };
        let sensors = (0..3)
            .map(|id| SensorInfo {
                sensor: SensorId(id),
                ..spec(1).sensors.remove(0)
            })
            .collect();
        let spec = TenantSpec {
            ranks: 1,
            sensors,
            config,
        };
        // Every 100 ms the rank exchanges control — poll then ack what it
        // got, or ack what it got last time then poll — and flushes, on a
        // durable tenant route whose standby is never caught up. Returns
        // the live server's schedule and stats, and whether the exchange's
        // first operation at 300 ms promoted the standby.
        let drive = |plan: FaultPlan, ack_first: bool| {
            let service = Arc::new(AnalysisService::new(ServiceConfig::default().durable()));
            service.register(TenantId(0), spec.clone()).unwrap();
            service.attach_standby().unwrap();
            let channel = TenantChannel::new(service.clone(), TenantId(0), plan);
            let (mut received, mut promoted_by_first) = (0, false);
            for k in 1..=12u64 {
                let now = VirtualTime::from_millis(100 * k);
                let before = service.failed_over();
                let directives = if ack_first {
                    channel.ack_control(0, received, now);
                    promoted_by_first |= k == 3 && !before && service.failed_over();
                    channel.poll_control(0, now)
                } else {
                    let directives = channel.poll_control(0, now);
                    promoted_by_first |= k == 3 && !before && service.failed_over();
                    directives
                };
                for d in directives {
                    received = received.max(d.epoch);
                    if !ack_first {
                        channel.ack_control(0, d.epoch, now);
                    }
                }
                let records = (0..3u32)
                    .map(|sensor| SliceRecord {
                        sensor: SensorId(sensor),
                        slice: k,
                        avg: Duration::from_micros(10),
                        count: 4_000 * (3 - sensor),
                        bucket: Bucket(0),
                    })
                    .collect();
                let batch = TelemetryBatch::new(0, k, now, records);
                assert_eq!(channel.send(&batch, now, 0), SendOutcome::Acked);
            }
            let live = channel.server();
            (live.control_schedule(), live.stats(), promoted_by_first)
        };
        // The crash lands between the flush at 200 ms and the exchange at
        // 300 ms, before the first directive (issued by the pass at
        // 400 ms): every epoch is decided by the promoted server.
        let crash = FaultPlan::none().with_server_crash(VirtualTime::from_millis(250));
        for ack_first in [false, true] {
            let (crashed_schedule, crashed_stats, promoted) = drive(crash.clone(), ack_first);
            let (schedule, stats, never_promoted) = drive(FaultPlan::none(), ack_first);
            let first = if ack_first { "ack" } else { "poll" };
            assert!(promoted, "the {first} at 300 ms must fire the crash");
            assert!(!never_promoted);
            assert_eq!(schedule.len(), 2, "{first}: {schedule:?}");
            assert_eq!(crashed_schedule, schedule, "{first}");
            assert_eq!(crashed_stats, stats, "{first}");
        }
    }

    #[test]
    fn deregister_refuses_unknown_tenants() {
        let svc = AnalysisService::new(ServiceConfig::default());
        assert_eq!(
            svc.deregister_tenant(TenantId(3)),
            Err(ServiceError::UnknownTenant(TenantId(3)))
        );
        let t = TenantId(0);
        svc.register(t, spec(1)).unwrap();
        svc.deregister_tenant(t).unwrap();
        assert!(svc.tenants().is_empty());
    }

    #[test]
    fn deregister_evicts_engine_and_wal() {
        let svc = AnalysisService::new(ServiceConfig::default().durable());
        let t = TenantId(0);
        svc.register(t, spec(1)).unwrap();
        let at = VirtualTime::from_micros(5);
        svc.ingest(t, &batch(0, 0, at), at).unwrap();
        assert_eq!(svc.wal(t).unwrap().batch_entries(), 1);
        svc.deregister_tenant(t).unwrap();
        // The engine and journal are gone; ingest sees no tenant at all.
        assert!(svc.server(t).is_none());
        assert!(svc.wal(t).is_none());
        assert_eq!(
            svc.ingest(t, &batch(0, 1, at), at).unwrap_err(),
            IngestError::UnknownTenant(t)
        );
        // Re-registering the same id starts from a clean slate.
        svc.register(t, spec(1)).unwrap();
        svc.ingest(t, &batch(0, 0, at), at).unwrap();
        assert_eq!(svc.wal(t).unwrap().batch_entries(), 1);
    }

    #[test]
    fn deregister_evicts_the_standby_replica() {
        let svc = AnalysisService::new(ServiceConfig::default().durable());
        let a = TenantId(0);
        let b = TenantId(1);
        svc.register(a, spec(1)).unwrap();
        svc.register(b, spec(1)).unwrap();
        svc.attach_standby().unwrap();
        let at = VirtualTime::from_micros(5);
        svc.ingest(a, &batch(0, 0, at), at).unwrap();
        svc.ingest(b, &batch(0, 0, at), at).unwrap();
        svc.catch_up_standby().unwrap();
        svc.deregister_tenant(a).unwrap();
        // Promotion after the eviction only touches the surviving tenant.
        svc.fail_over(at).unwrap();
        assert!(svc.server(a).is_none());
        let result = svc.close_tenant(b, VirtualTime::from_millis(1)).unwrap();
        assert_eq!(result.batches, 1);
    }

    #[test]
    fn standby_requires_durability() {
        let svc = AnalysisService::new(ServiceConfig::default());
        assert_eq!(svc.attach_standby(), Err(ServiceError::NotDurable));
    }

    #[test]
    fn refused_promotion_does_not_mark_the_service_failed_over() {
        // Durable, but no standby attached: nothing can be promoted, however
        // often it is asked for.
        let svc = AnalysisService::new(ServiceConfig::default().durable());
        svc.register(TenantId(0), spec(1)).unwrap();
        let at = VirtualTime::from_micros(5);
        svc.ingest(TenantId(0), &batch(0, 0, at), at).unwrap();
        for _ in 0..2 {
            assert_eq!(svc.fail_over(at), Err(ServiceError::NotDurable));
            assert!(!svc.failed_over());
        }
        // Once a standby exists the promotion goes through, once.
        svc.attach_standby().unwrap();
        assert_eq!(svc.fail_over(at), Ok(()));
        assert!(svc.failed_over());
        assert_eq!(svc.fail_over(at), Ok(()));
        let result = svc.close_tenant(TenantId(0), at).unwrap();
        assert_eq!(result.batches, 1);
    }
}
