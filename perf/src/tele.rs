//! The two telemetry workloads: no simulated program, a seeded generator
//! feeds one `RankTransport` per (tenant, rank) → `TenantChannel` →
//! `AnalysisService`, closed loop on one thread (the next batch is handed
//! over when the previous `enqueue` returns).
//!
//! 16 tenants × 64 ranks. A round is 100 ms of virtual time: every steady
//! rank flushes one 400-record batch (4 sensors × 100 one-ms slices, the
//! shape `fig21-lossy` produces); tenant 0 is hot — 8 flushes of ~50
//! records per round against an admission share of 5 per rank per 100 ms,
//! so it is refused (`Busy`), retries, and carries a growing backlog that
//! its final flush drains; tenant 3's ranks 24..=31 run their Computation
//! sensors at 55 % speed from round 4 on.
//!
//! - `tele-steady`: 20 rounds into a non-durable service.
//! - `tele-durable`: 12 rounds into a durable service with a standby
//!   (caught up every 4,096 batches), then `fail_over`, one more round into
//!   the promoted servers, close.

use crate::catalog::TELE_DURABLE;
use crate::harness::{splitmix64, Ctx, Fingerprint, Outcome};
use crate::sampler;
use crate::spans::{self, Recorder, Request};
use cluster_sim::time::{Duration, VirtualTime};
use cluster_sim::FaultPlan;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use vsensor::scenarios;
use vsensor_bench::failstop::first_mismatch;
use vsensor_lang::SensorId;
use vsensor_runtime::{
    AnalysisServer, AnalysisService, BatchChannel, Bucket, ControlDirective, RankTransport,
    RuntimeConfig, SendOutcome, SensorInfo, SensorKind, ServerResult, SliceRecord, TelemetryBatch,
    TenantChannel, TenantId, TenantSpec, TransportConfig,
};

const TENANTS: usize = 16;
const RANKS: usize = 64;
const HOT_TENANT: usize = 0;
const BAD_TENANT: usize = 3;
const BAD_RANKS: std::ops::RangeInclusive<usize> = 24..=31;
const BAD_FROM_ROUND: u64 = 4;
const BAD_PERF: f64 = 0.55;
const SLICES_PER_ROUND: u64 = 100;
const ROUND_MS: u64 = 100;
const ROUND: Duration = Duration(ROUND_MS * 1_000_000);
/// The hot tenant's flushes per round (`scenarios::HOT_TENANT_RATE`).
const HOT_BURSTS: u64 = scenarios::HOT_TENANT_RATE as u64;
const STEADY_ROUNDS: u64 = 20;
const DURABLE_ROUNDS: u64 = 12;
const WARM_UP_ROUNDS: u64 = 2;
const CATCH_UP_EVERY: u64 = 4_096;

/// Healthy sense durations per sensor, in nanoseconds.
const BASE_NS: [u64; 4] = [40_000, 12_000, 25_000, 8_000];

fn sensors() -> Vec<SensorInfo> {
    let table = [
        (SensorKind::Computation, "gen:spmv"),
        (SensorKind::Computation, "gen:axpy"),
        (SensorKind::Network, "gen:halo"),
        (SensorKind::Network, "gen:allreduce"),
    ];
    table
        .iter()
        .enumerate()
        .map(|(i, (kind, location))| SensorInfo {
            sensor: SensorId(i as u32),
            kind: *kind,
            process_invariant: true,
            location: (*location).to_string(),
        })
        .collect()
}

/// The runtime every tenant registers: the live-detection knobs of the
/// Figure 21 scenario (0.70 threshold, a detection pass per 100 ms).
fn tenant_runtime(tenant: usize) -> RuntimeConfig {
    let (_, runtime) = scenarios::live_bad_node(RANKS, 3, BAD_PERF);
    if tenant == HOT_TENANT {
        // As in `scenarios::multi_tenant_skewed`: a refused batch is
        // delayed, never dropped, so the hot senders hold their backlog.
        runtime
            .with_buffer_capacity(256)
            .expect("capacity is positive")
    } else {
        runtime
    }
}

/// One flush the generator hands to a transport.
struct Flush {
    tenant: usize,
    rank: usize,
    now: VirtualTime,
    slices: Range<u64>,
}

/// The seeded generator. Every value is a pure function of the seed and
/// the record's coordinates, so the twins of a traced run can replay the
/// stream in any order and see the same bytes.
struct Generator {
    seed: u64,
}

impl Generator {
    fn mix(&self, a: u64, b: u64, c: u64) -> u64 {
        splitmix64(self.seed ^ a.rotate_left(48) ^ b.rotate_left(24) ^ c)
    }

    /// The flushes of one round in virtual-time order: the hot tenant's
    /// bursts every 12.5 ms, then every steady rank at the round's end
    /// (plus up to 50 µs of seeded jitter).
    fn round(&self, round: u64) -> Vec<Flush> {
        let start = VirtualTime::from_millis(round * ROUND_MS);
        let first_slice = round * SLICES_PER_ROUND;
        let mut flushes = Vec::with_capacity(RANKS * (HOT_BURSTS as usize + TENANTS - 1));
        for burst in 0..HOT_BURSTS {
            let lo = first_slice + burst * SLICES_PER_ROUND / HOT_BURSTS;
            let hi = first_slice + (burst + 1) * SLICES_PER_ROUND / HOT_BURSTS;
            let at = start + Duration::from_micros(12_000 + burst * 12_500);
            for rank in 0..RANKS {
                flushes.push(Flush {
                    tenant: HOT_TENANT,
                    rank,
                    now: at + Duration::from_nanos(rank as u64),
                    slices: lo..hi,
                });
            }
        }
        for tenant in (0..TENANTS).filter(|t| *t != HOT_TENANT) {
            for rank in 0..RANKS {
                let jitter = self.mix(tenant as u64, rank as u64, round) % 50_000;
                flushes.push(Flush {
                    tenant,
                    rank,
                    now: start + ROUND + Duration::from_nanos(jitter),
                    slices: first_slice..first_slice + SLICES_PER_ROUND,
                });
            }
        }
        flushes
    }

    /// Fill `buf` with the flush's records: every sensor in every slice,
    /// up to 2 % slower than its base, the bad ranks' Computation sensors
    /// at 55 % speed once the fault is on.
    fn fill(&self, flush: &Flush, buf: &mut Vec<SliceRecord>) {
        let degraded = flush.tenant == BAD_TENANT && BAD_RANKS.contains(&flush.rank);
        let lane = (flush.tenant * RANKS + flush.rank) as u64;
        for slice in flush.slices.clone() {
            let faulty = degraded && slice >= BAD_FROM_ROUND * SLICES_PER_ROUND;
            for (sensor, base) in BASE_NS.iter().enumerate() {
                let mut avg = base + self.mix(lane, slice, sensor as u64) % (base / 50);
                if faulty && sensor < 2 {
                    avg = (avg as f64 / BAD_PERF) as u64;
                }
                buf.push(SliceRecord {
                    sensor: SensorId(sensor as u32),
                    slice,
                    avg: Duration::from_nanos(avg),
                    count: 10,
                    bucket: Bucket(0),
                });
            }
        }
    }
}

/// `TenantChannel` with a span around `send`, nested under the `enqueue`
/// (or final flush) that caused it.
struct RecordingChannel {
    inner: TenantChannel,
    tenant: u32,
    rec: Arc<Recorder>,
}

impl BatchChannel for RecordingChannel {
    fn send(&self, batch: &TelemetryBatch, now: VirtualTime, attempt: u32) -> SendOutcome {
        let request = Request::Batch {
            tenant: self.tenant,
            rank: batch.rank as u32,
            seq: batch.seq,
        };
        self.rec.span("service.send", request, || {
            self.inner.send(batch, now, attempt)
        })
    }

    fn poll_control(&self, rank: usize, now: VirtualTime) -> Vec<ControlDirective> {
        self.inner.poll_control(rank, now)
    }

    fn ack_control(&self, rank: usize, epoch: u64, now: VirtualTime) {
        self.inner.ack_control(rank, epoch, now);
    }
}

/// The service with its tenants registered and one transport per
/// (tenant, rank): the product of set-up, consumed by one repetition.
struct Rig {
    service: Arc<AnalysisService>,
    transports: Vec<Vec<RankTransport>>,
}

fn setup(durable: bool, rec: Option<&Arc<Recorder>>) -> Rig {
    let mut config = scenarios::multi_tenant_service(TENANTS, RANKS);
    config.durable = durable;
    let service = Arc::new(AnalysisService::new(config));
    let sensors = sensors();
    let transports = (0..TENANTS)
        .map(|tenant| {
            let runtime = tenant_runtime(tenant);
            let id = TenantId(tenant as u32);
            service
                .register(
                    id,
                    TenantSpec {
                        ranks: RANKS,
                        sensors: sensors.clone(),
                        config: runtime.clone(),
                    },
                )
                .expect("16 valid tenants fit the service cap");
            let route = TenantChannel::new(service.clone(), id, FaultPlan::none());
            let channel: Arc<dyn BatchChannel> = match rec {
                Some(rec) => Arc::new(RecordingChannel {
                    inner: route,
                    tenant: id.0,
                    rec: rec.clone(),
                }),
                None => Arc::new(route),
            };
            let cfg = TransportConfig::from_runtime(&runtime);
            (0..RANKS)
                .map(|rank| RankTransport::new(rank, channel.clone(), cfg.clone()))
                .collect()
        })
        .collect();
    if durable {
        service.attach_standby().expect("the service is durable");
    }
    Rig {
        service,
        transports,
    }
}

/// What one repetition measured and produced.
#[derive(Default)]
struct RepOutput {
    wall: f64,
    /// Wall nanoseconds of every `enqueue` call.
    enqueue_ns: Vec<f64>,
    catch_up_ms: Vec<f64>,
    recover_s: f64,
    batches: u64,
    records: u64,
    undelivered: u64,
    attempts: u64,
    retries: u64,
    accepted: u64,
    refused: Vec<u64>,
    results: Vec<ServerResult>,
    /// Virtual instant of the first live alert naming only the bad ranks.
    first_alert: Option<VirtualTime>,
}

/// One repetition: the timed region is first flush → every session closed.
fn rep(ctx: &Ctx, mut rig: Rig, rounds: u64, rec: Option<(&Recorder, Request)>) -> RepOutput {
    let durable = ctx.workload == TELE_DURABLE;
    let generator = Generator {
        seed: ctx.seed_for("generator"),
    };
    let mut out = RepOutput::default();
    macro_rules! span {
        ($name:literal, $request:expr, $call:expr) => {
            match rec {
                Some((rec, _)) => rec.span($name, $request, || $call),
                None => $call,
            }
        };
    }
    let rep_request = rec.map_or(Request::Repetition(0), |(_, r)| r);
    let started = Instant::now();
    let drive = |rig: &mut Rig, out: &mut RepOutput, round: u64| {
        for flush in generator.round(round) {
            let transport = &mut rig.transports[flush.tenant][flush.rank];
            let request = Request::Batch {
                tenant: flush.tenant as u32,
                rank: flush.rank as u32,
                seq: transport.stats().batches_enqueued,
            };
            let mut records = transport.recycled_buffer();
            span!(
                "generator.fill",
                request,
                generator.fill(&flush, &mut records)
            );
            out.records += records.len() as u64;
            out.batches += 1;
            let before = Instant::now();
            span!(
                "transport.enqueue",
                request,
                transport.enqueue(records, flush.now)
            );
            out.enqueue_ns.push(before.elapsed().as_nanos() as f64);
            if durable && out.batches.is_multiple_of(CATCH_UP_EVERY) {
                let before = Instant::now();
                span!("wal.catch_up", rep_request, rig.service.catch_up_standby())
                    .expect("a standby is attached");
                out.catch_up_ms.push(before.elapsed().as_secs_f64() * 1e3);
            }
        }
    };
    for round in 0..rounds {
        drive(&mut rig, &mut out, round);
    }
    let mut end = VirtualTime::from_millis(rounds * ROUND_MS);
    if durable {
        let before = Instant::now();
        span!("service.fail_over", rep_request, rig.service.fail_over(end))
            .expect("a standby is attached");
        out.recover_s = before.elapsed().as_secs_f64();
        drive(&mut rig, &mut out, rounds);
        end += ROUND;
    }
    for (tenant, transports) in rig.transports.iter_mut().enumerate() {
        for transport in transports {
            let request = Request::Batch {
                tenant: tenant as u32,
                rank: 0,
                seq: transport.stats().batches_enqueued,
            };
            span!(
                "transport.finish",
                request,
                transport.finish(Vec::new(), end)
            );
        }
    }
    let mut alerts = rig.service.poll_events(TenantId(BAD_TENANT as u32));
    for tenant in 0..TENANTS {
        let id = TenantId(tenant as u32);
        let result = span!(
            "engine.close",
            rep_request,
            rig.service.close_tenant(id, end)
        )
        .expect("the tenant is registered");
        out.results.push(result);
    }
    out.wall = started.elapsed().as_secs_f64();

    alerts.extend(rig.service.poll_events(TenantId(BAD_TENANT as u32)));
    out.first_alert = alerts
        .iter()
        .find(|a| {
            a.event().is_some_and(|e| {
                e.kind == SensorKind::Computation
                    && BAD_RANKS.contains(&e.first_rank)
                    && BAD_RANKS.contains(&e.last_rank)
            })
        })
        .map(|a| a.at);
    for (tenant, transports) in rig.transports.iter().enumerate() {
        for transport in transports {
            let stats = transport.stats();
            out.undelivered += stats.batches_enqueued - stats.acked;
            out.attempts += stats.send_attempts;
            out.retries += stats.retries;
        }
        let stats = rig
            .service
            .stats(TenantId(tenant as u32))
            .expect("the tenant is registered");
        out.accepted += stats.accepted;
        out.refused.push(stats.backpressured);
    }
    out
}

fn fingerprint(results: &[ServerResult]) -> u64 {
    let mut h = Fingerprint::default();
    for result in results {
        h.add(&format!("{:?}", result.events));
        h.add(&(result.records, result.batches, result.bytes_received));
        for kind in SensorKind::ALL {
            let matrix = result.matrix(kind).expect("every kind has a matrix");
            for rank in 0..matrix.ranks() {
                for bin in 0..matrix.bins() {
                    h.add(
                        &matrix
                            .cell_raw(rank, bin)
                            .map(|(sum, n)| (sum.to_bits(), n)),
                    );
                }
            }
        }
    }
    h.finish()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let durable = ctx.workload == TELE_DURABLE;
    let rounds = if durable {
        DURABLE_ROUNDS
    } else {
        STEADY_ROUNDS
    };

    drop(rep(ctx, setup(durable, None), WARM_UP_ROUNDS, None));
    let (_, mut setup_samples) = sampler::sample_setup(|| setup(durable, None));
    let (budget, min_reps) = ctx.untraced_plan();
    let reps = sampler::repeat(budget, min_reps, |_| {
        let (rig, setup_s) = sampler::timed(|| setup(durable, None));
        setup_samples.push(setup_s);
        rep(ctx, rig, rounds, None)
    });
    out.set_median("setup_s", &setup_samples);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    out.set_median("wall_s", &walls);
    let enqueue_us: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.enqueue_ns.iter().map(|ns| ns / 1e3))
        .collect();
    match sampler::percentile(&enqueue_us, 99.0) {
        Some(p99) => out.set("ingest_us_p99", p99),
        None => out.note(format!(
            "ingest_us_p99 withheld: {} enqueues leave fewer than 10 beyond the p99",
            enqueue_us.len()
        )),
    }
    if let Some(s) = sampler::summarize(&enqueue_us) {
        out.summaries.push(("ingest_us_p99", s));
    }
    if durable {
        let recover: Vec<f64> = reps.iter().map(|r| r.recover_s).collect();
        out.set_median("recover_s", &recover);
    }

    let first = &reps[0];
    for r in &reps {
        let steady_refused: u64 = (0..TENANTS)
            .filter(|t| *t != HOT_TENANT)
            .map(|t| r.refused[t])
            .sum();
        out.count(
            r.batches,
            r.undelivered + steady_refused,
            "batches never delivered, or refused on a steady tenant",
        );
    }
    let reference = fingerprint(&first.results);
    out.check(
        reps.iter().all(|r| fingerprint(&r.results) == reference),
        || "repetitions are not bit-identical in events, volume and matrix cells".into(),
    );
    ground_truth(first, &mut out);
    out.set(
        "telemetry_bytes_per_rank",
        first.results.iter().map(|r| r.bytes_received).sum::<u64>() as f64
            / (TENANTS * RANKS) as f64,
    );
    if durable {
        // The same 13 rounds with no WAL, no standby and no fail-over must
        // produce the same analysis, tenant by tenant, bit for bit.
        let plain = Ctx {
            workload: crate::catalog::TELE_STEADY,
            ..*ctx
        };
        let reference = rep(&plain, setup(false, None), rounds + 1, None);
        for (tenant, (got, want)) in first.results.iter().zip(&reference.results).enumerate() {
            let mismatch = first_mismatch(got, want);
            out.check(mismatch.is_none(), || {
                format!(
                    "tenant {tenant} differs from the non-durable run: {}",
                    mismatch.unwrap_or_default()
                )
            });
        }
    }

    if ctx.traced {
        traced(ctx, durable, rounds, first, &mut out);
    }
    out
}

/// What the service must have found in the generated stream.
fn ground_truth(rep: &RepOutput, out: &mut Outcome) {
    let onset = VirtualTime::from_millis(BAD_FROM_ROUND * ROUND_MS);
    for (tenant, result) in rep.results.iter().enumerate() {
        if tenant == BAD_TENANT {
            let exact = matches!(
                result.events.as_slice(),
                [e] if e.kind == SensorKind::Computation
                    && e.first_rank == *BAD_RANKS.start()
                    && e.last_rank == *BAD_RANKS.end()
            );
            out.check(exact, || {
                format!(
                    "tenant {tenant} must show one Computation event on ranks {BAD_RANKS:?}: {:?}",
                    result.events
                )
            });
        } else {
            out.check(result.events.is_empty(), || {
                format!(
                    "tenant {tenant} shows variance it was not given: {:?}",
                    result.events
                )
            });
        }
    }
    out.check(rep.refused[HOT_TENANT] > 0, || {
        "the hot tenant was never refused: admission control is not exercised".into()
    });
    let absorbed: u64 = rep.results.iter().map(|r| r.records as u64).sum();
    out.check(absorbed == rep.records, || {
        format!("{absorbed} records accepted of {} generated", rep.records)
    });
    out.check(rep.first_alert.is_some(), || {
        "no live alert named the degraded ranks".into()
    });
    if let Some(at) = rep.first_alert {
        out.set(
            "alert_latency_virt_ms",
            at.since(onset).as_nanos() as f64 / 1e6,
        );
    }
}

/// Engine and WAL cost on the same stream with nothing else in the way:
/// every batch goes straight into a bare `AnalysisServer` per tenant (and,
/// for `tele-durable`, a durable one beside it), one timed `ingest` each.
/// The twins see the hot tenant unthrottled — same records, no refusals.
struct Twin {
    /// Ingest wall (µs) split by whether the call ran a detection pass.
    quiet_us: Vec<f64>,
    detect_us: Vec<f64>,
    records: u64,
}

/// The durable twins' side of [`twin_pass`].
struct DurableTwin {
    twin: Twin,
    frames: f64,
    snapshots: f64,
    /// Cold `AnalysisServer::recover` of one tenant's log.
    recover_ms: f64,
}

fn twin_pass(ctx: &Ctx, rounds: u64, durable: bool) -> (Twin, Option<DurableTwin>) {
    let generator = Generator {
        seed: ctx.seed_for("generator"),
    };
    let sensors = sensors();
    let new_twin = || Twin {
        quiet_us: Vec::new(),
        detect_us: Vec::new(),
        records: 0,
    };
    let plain: Vec<AnalysisServer> = (0..TENANTS)
        .map(|t| AnalysisServer::try_new(RANKS, sensors.clone(), tenant_runtime(t)).expect("valid"))
        .collect();
    let logged: Vec<_> = (0..TENANTS)
        .filter(|_| durable)
        .map(|t| {
            AnalysisServer::try_new_durable(RANKS, sensors.clone(), tenant_runtime(t))
                .expect("valid")
        })
        .collect();
    let (mut plain_twin, mut logged_twin) = (new_twin(), new_twin());
    let mut passes = vec![(0u64, 0u64); TENANTS];
    let mut seqs = vec![0u64; TENANTS * RANKS];
    let ingest =
        |server: &AnalysisServer, batch: TelemetryBatch, now, seen: &mut u64, twin: &mut Twin| {
            twin.records += batch.records.len() as u64;
            let before = Instant::now();
            server
                .session()
                .ingest(batch, now)
                .expect("a generated batch is valid");
            let us = before.elapsed().as_nanos() as f64 / 1e3;
            let now_passes = server.load().detect_passes;
            if now_passes > *seen {
                twin.detect_us.push(us);
            } else {
                twin.quiet_us.push(us);
            }
            *seen = now_passes;
        };
    for round in 0..rounds {
        for flush in generator.round(round) {
            let mut records = Vec::new();
            generator.fill(&flush, &mut records);
            let seq = &mut seqs[flush.tenant * RANKS + flush.rank];
            let batch = TelemetryBatch::new(flush.rank, *seq, flush.now, records);
            *seq += 1;
            if let Some((server, _)) = logged.get(flush.tenant) {
                let seen = &mut passes[flush.tenant].1;
                ingest(server, batch.clone(), flush.now, seen, &mut logged_twin);
            }
            let seen = &mut passes[flush.tenant].0;
            ingest(
                &plain[flush.tenant],
                batch,
                flush.now,
                seen,
                &mut plain_twin,
            );
        }
    }
    let durable_side = durable.then(|| {
        let (frames, snapshots) = logged.iter().fold((0, 0), |(f, s), (_, wal)| {
            (f + wal.frames(), s + wal.snapshot_entries())
        });
        let (_, recover_s) = sampler::timed(|| {
            AnalysisServer::recover(&logged[1].1).expect("the log's header is valid")
        });
        DurableTwin {
            twin: logged_twin,
            frames: frames as f64,
            snapshots: snapshots as f64,
            recover_ms: recover_s * 1e3,
        }
    });
    (plain_twin, durable_side)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn traced(ctx: &Ctx, durable: bool, rounds: u64, untraced: &RepOutput, out: &mut Outcome) {
    let untraced_wall = out.get("wall_s");
    let rec = Arc::new(Recorder::default());
    let (budget, min_reps) = ctx.traced_plan();
    let mut walls = Vec::new();
    let mut last = None;
    sampler::repeat(budget, min_reps, |i| {
        let rig = setup(durable, Some(&rec));
        let request = Request::Repetition(i as u32);
        let span = rec.begin("harness.rep", request);
        let output = rep(ctx, rig, rounds, Some((&rec, request)));
        walls.push(rec.end(span) as f64 / 1e9);
        last = Some((output, rec.drain()));
    });
    out.set_median("traced_wall_s", &walls);
    out.set(
        "trace_overhead_pct",
        (out.get("traced_wall_s") - untraced_wall) / untraced_wall * 100.0,
    );
    let (output, spans) = last.expect("at least one traced repetition");
    let own = spans::self_times(&spans);
    let totals = spans::self_time_by_name(&spans, &own);
    let self_ns = |name: &str| spans::total_of(&totals, name);
    let rep_wall = spans::inclusive_ns(&spans, "harness.rep");
    let enqueue_self_us: Vec<f64> = (spans.iter().zip(&own))
        .filter(|(s, _)| s.name == "transport.enqueue")
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    out.set(
        "transport.enqueue_self_us_p50",
        sampler::median(&enqueue_self_us),
    );
    out.set("transport.attempts", output.attempts as f64);
    out.set("transport.retries", output.retries as f64);
    out.set("transport.dropped", output.undelivered as f64);
    out.set("service.accepted", output.accepted as f64);
    out.set(
        "service.admission_refused",
        output.refused.iter().sum::<u64>() as f64,
    );
    out.set(
        "service.batches_per_s",
        untraced.accepted as f64 / untraced_wall,
    );
    let passes = output.results.iter().map(|r| r.load.detect_passes);
    out.set("engine.detect_passes", passes.sum::<u64>() as f64);
    out.set("engine.close_ms", self_ns("engine.close") / 1e6);
    out.set("residual_pct", self_ns("harness.rep") / rep_wall * 100.0);

    let twin_rounds = if durable { rounds + 1 } else { rounds };
    let (plain, logged) = twin_pass(ctx, twin_rounds, durable);
    let all_us: Vec<f64> = plain
        .quiet_us
        .iter()
        .chain(&plain.detect_us)
        .copied()
        .collect();
    out.set("engine.ingest_us_p50", sampler::median(&all_us));
    if let Some(p99) = sampler::percentile(&all_us, 99.0) {
        out.set("engine.ingest_us_p99", p99);
    }
    let engine_ns = all_us.iter().sum::<f64>() * 1e3;
    out.set("engine.ns_per_record", engine_ns / plain.records as f64);
    out.set(
        "engine.detect_pass_us_p50",
        sampler::median(&plain.detect_us),
    );
    // Front door = what a send through the service costs beyond the bare
    // (for `tele-durable`: the journaling) ingest of the same batches:
    // routing, the admission ledger, the tenant channel's dice, refusals.
    let send_ns = self_ns("service.send");
    let twin_ns = match &logged {
        Some(d) => (d.twin.quiet_us.iter().chain(&d.twin.detect_us)).sum::<f64>() * 1e3,
        None => engine_ns,
    };
    let accepted = output.accepted.max(1) as f64;
    let (front_door_ns, inside_ns) = ((send_ns - twin_ns) / accepted, twin_ns / accepted);
    out.set("service.front_door_ns", front_door_ns);
    let verdict = if front_door_ns < 0.05 * inside_ns {
        "too small to resolve at 400-record batches"
    } else {
        "resolved"
    };
    out.note(format!(
        "service front door: {front_door_ns:+.0} ns per batch against {inside_ns:.0} ns inside \
         the engine: {verdict}"
    ));
    if let Some(d) = logged {
        out.set(
            "wal.append_ns_per_batch",
            (mean(&d.twin.quiet_us) - mean(&plain.quiet_us)) * 1e3,
        );
        out.set(
            "wal.snapshot_us_p50",
            sampler::median(&d.twin.detect_us) - sampler::median(&plain.detect_us),
        );
        out.set("wal.frames", d.frames);
        out.set("wal.snapshots", d.snapshots);
        out.set("wal.recover_ms", d.recover_ms);
        out.set("wal.catch_up_ms_p50", sampler::median(&output.catch_up_ms));
        out.set(
            "wal.catch_up_ms_last",
            output.catch_up_ms.last().copied().unwrap_or(0.0),
        );
    }
    let share = |name: &str| self_ns(name) / rep_wall * 100.0;
    out.note(format!(
        "where the traced wall goes: generator {:.1}%, transport self {:.1}%, inside send \
         (service + engine{}) {:.1}%, catch-up {:.1}%, fail-over {:.1}%, final flush {:.1}%, \
         close {:.1}%",
        share("generator.fill"),
        share("transport.enqueue"),
        if durable { " + WAL" } else { "" },
        share("service.send"),
        share("wal.catch_up"),
        share("service.fail_over"),
        share("transport.finish"),
        share("engine.close"),
    ));
    out.spans = spans;
}
