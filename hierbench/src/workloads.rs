//! The three workloads and the rounds that drive them.
//!
//! Every workload runs the shipped defaults: the default
//! `AlgorithmPolicy` and `TenantConfig` (BatchEquivalent scoring, one
//! shard, group commit 64) over in-memory storage. The benchmark targets
//! a 2-core machine, so each workload uses one client (one connection,
//! or one in-process caller) and one server worker.
//!
//! A round is one complete plant lifetime on a fresh store: set-up,
//! drive, `finish`, then a restart that reopens the store image with
//! `RegistryService::open` and runs one full-range `backfill`. A run
//! repeats rounds on the same generated input until its time is up.
//!
//! # Why each workload exists
//!
//! * `firehose` — a few machines with long phases (thousands of samples
//!   per sensor and phase), sent over TCP as unacknowledged frames on one
//!   connection, then one `finish`. It loads the ingest path: wire
//!   decode, service, WAL append and commit, watermark, scorer, and
//!   phase-close scoring. Tick assembly runs once, inside `finish`.
//!   After each control that closes a phase, the client polls
//!   `QueryLaneStats` once: phase close is when the server scores the
//!   phase, and the poll is how an operator checks that the phase's data
//!   arrived. The reply waits behind every frame sent before it, so its
//!   round trip is the ingest lag. That is 20 polls per round against
//!   442k pipelined samples. In six paired 30 s runs (2 cores) the
//!   ingest rate with the polls was 0.97× that without them at the
//!   median (0.89–1.08×), inside the runs' own spread (interquartile
//!   range 7–14% of the median). The store never rotates: recovery is
//!   WAL replay.
//! * `long_history` — many machines × many short jobs (tens of samples
//!   per phase) over TCP, with a synchronous `Tick` + `QueryScores` round
//!   trip after every completed job. Each tick carries little ingest, so
//!   it loads tick assembly (materialize, emit, upper levels, Algorithm 1,
//!   reply encode), whose cost grows with the completed jobs.
//! * `history_query` — an in-process `RegistryService` driven through
//!   the `PlantService` trait, because `rotate` and `compact` have no wire
//!   frame: it bypasses server and wire. It rotates after every job and
//!   compacts every `COMPACT_EVERY` jobs, so recovery restores sealed
//!   segments. Dashboard `range_scan`s of the most recent 2% of the
//!   sealed range are interleaved *mid-job*, while an unsealed WAL tail
//!   exists. It loads the store and history layers, reads beside writes.
//!
//! # Layers each workload loads
//!
//! | layer   | firehose          | long_history      | history_query      |
//! |---------|-------------------|-------------------|--------------------|
//! | server  | ingest, polls     | tick round trips  | bypassed           |
//! | wire    | frame decode      | report encode     | bypassed           |
//! | service | ingest            | little ingest     | ingest, scans      |
//! | stream  | ingest, closes    | tick assembly     | ingest, rotate     |
//! | detect  | phase scoring     | short series      | phase scoring      |
//! | core    | once, in finish   | every tick        | once, in finish    |
//! | store   | WAL, WAL replay   | WAL               | rotate, segments   |
//! | history | backfill only     | backfill only     | compact, scan      |
//!
//! In the traced run every layer is also driven directly with the
//! workload's own inputs (see `direct.rs`), so a layer a workload
//! bypasses still reports what it would cost there. Those figures feed
//! none of the workload's end-to-end metrics; an optimisation of that
//! layer is predicted to leave the workload flat.
//!
//! # Why scans run mid-job
//!
//! `history::snapshot` (`crates/history/src/reader.rs`) re-reads and
//! CRC-scans the whole active WAL on every `range_scan`, although scans
//! serve sealed data only. In a probe with 3.53M samples in an unrotated
//! WAL (release build, 2 cores), a scan returning 0 samples took 240 ms
//! at p50. Scans are placed mid-job so an unsealed WAL tail exists, and
//! the traced run reports `history.snapshot_ms` apart from
//! `history.scan_decode_ms`. Making the snapshot skip the WAL is left to
//! a later performance change.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hierod_core::AlgorithmPolicy;
use hierod_history::{
    diff_reports, snapshot, CompactionOptions, HistoryReader, LaneSeries, RangeQuery,
};
use hierod_server::{Client, Server, ServerConfig};
use hierod_service::{PlantService, RegistryService};
use hierod_store::{Storage, Store};
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneId, Sample, StreamReport};
use hierod_wire::decode_report;

use crate::check::Reference;
use crate::input::{Event, Input, OpenPhases, Workload};
use crate::sockbytes::connection_bytes;
use crate::storage::{BenchFactory, BenchStorage, StoreProbe};
use crate::trace::Tracer;

/// The plant every round drives.
pub const PLANT: &str = "plant-0";

/// `history_query`: jobs between two compactions.
pub const COMPACT_EVERY: usize = 4;

/// `history_query`: mid-job scans per job (after the first rotation).
pub const SCANS_PER_JOB: u64 = 4;

/// Width of a dashboard scan, as a share of the sealed range.
pub const SCAN_SHARE: u64 = 50;

/// What a round does besides ingesting.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Poll `QueryLaneStats` after every control that closes a phase.
    pub poll_per_phase: bool,
    /// `Tick` + `QueryScores` after every completed job.
    pub tick_per_job: bool,
    /// Drive in process (rotate, compact, mid-job scans) instead of TCP.
    pub in_process: bool,
}

impl Plan {
    /// The plan of `workload`.
    pub fn of(workload: Workload) -> Plan {
        match workload {
            Workload::Firehose => Plan {
                poll_per_phase: true,
                tick_per_job: false,
                in_process: false,
            },
            Workload::LongHistory => Plan {
                poll_per_phase: false,
                tick_per_job: true,
                in_process: false,
            },
            Workload::HistoryQuery => Plan {
                poll_per_phase: false,
                tick_per_job: false,
                in_process: true,
            },
        }
    }
}

/// A round stopped early; the cause is in [`Ops`].
#[derive(Debug)]
pub struct Abort;

/// Every client or service call attempted and failed, plus failed
/// output checks. A failure is recorded here instead of panicking.
#[derive(Debug, Default)]
pub struct Ops {
    /// Calls attempted.
    pub attempted: u64,
    /// Calls that returned an error.
    pub failed: u64,
    /// Failed calls and checks, first ones first.
    pub errors: Vec<String>,
}

impl Ops {
    /// Counts one call and unwraps its result, recording a failure.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Result<T, Abort> {
        self.attempted += 1;
        result.map_err(|e| {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
            Abort
        })
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> Result<(), Abort> {
        if ok {
            Ok(())
        } else {
            self.errors.push(format!("check failed: {}", what()));
            Err(Abort)
        }
    }
}

/// Per-layer observations of a traced round.
#[derive(Debug, Default)]
pub struct Observed {
    /// Seconds the client spent inside `Client::sample`.
    pub send_wait_s: f64,
    /// Frames the server handled.
    pub frames: u64,
    /// Payload bytes the client connection sent, connect to final report.
    pub sent_bytes: u64,
    /// Payload bytes it received over the same span.
    pub received_bytes: u64,
    /// `Tick` + `QueryScores` round trips (ms), in order.
    pub tick_rtt_ms: Vec<f64>,
    /// `finish` round trip (ms).
    pub finish_rtt_ms: f64,
    /// WAL records appended.
    pub wal_records: u64,
    /// WAL bytes appended.
    pub wal_bytes: u64,
    /// WAL syncs.
    pub commits: u64,
    /// `PlantService::rotate` durations (ms).
    pub rotate_ms: Vec<f64>,
    /// `PlantService::compact` durations (ms).
    pub compact_ms: Vec<f64>,
    /// Bytes compaction wrote.
    pub compact_bytes_out: u64,
    /// Bytes of the files compaction replaced.
    pub compact_bytes_in: u64,
    /// `history::snapshot` durations (ms).
    pub snapshot_ms: Vec<f64>,
    /// `HistoryReader::new` + `scan` durations (ms).
    pub scan_decode_ms: Vec<f64>,
    /// Chunks decoded over every direct scan.
    pub chunks_decoded: u64,
    /// Chunks pruned over every direct scan.
    pub chunks_pruned: u64,
    /// Scans made directly.
    pub scans: u64,
    /// `Store::open` on the round's final image (ms).
    pub store_open_ms: f64,
    /// WAL records that `Store::open` replayed.
    pub recover_wal_records: u64,
    /// Files `Store::open` read: sealed segments, history files and the
    /// active WAL, which every recovery replays (`firehose` recovers from
    /// the WAL alone, so a count of segments would read 0 there).
    pub recover_files: u64,
    /// `hierod_history::backfill` on the final image (ms).
    pub backfill_ms: f64,
    /// The store's journal, for the direct append drive.
    pub journal: Vec<hierod_store::WalRecord>,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Service open, server bind, admit and stand-up.
    pub setup_s: f64,
    /// First sample sent → final report received.
    pub ingest_s: f64,
    /// Last sample sent → final report received.
    pub finish_s: f64,
    /// The workload's synchronous requests (ms).
    pub requests_ms: Vec<f64>,
    /// `RegistryService::open` on the store image.
    pub recover_s: f64,
    /// Full-range `backfill` on the reopened service.
    pub backfill_s: f64,
    /// The whole round.
    pub wall_s: f64,
    /// Peak resident memory over the round (MiB).
    pub peak_rss_mb: f64,
    /// Traced rounds only.
    pub observed: Option<Observed>,
}

fn policy() -> AlgorithmPolicy {
    AlgorithmPolicy::default()
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Runs one round of `plan` on `input`.
pub fn round(
    input: &Input,
    plan: Plan,
    reference: &Reference,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<Round, Abort> {
    let start = Instant::now();
    let span = tr.begin("round");
    let probe = tr.on().then(|| Arc::new(StoreProbe::default()));
    let factory = BenchFactory::new(probe.clone());
    let mut round = Round {
        observed: tr.on().then(Observed::default),
        ..Round::default()
    };
    let report = if plan.in_process {
        local_drive(input, &factory, &mut round, tr, ops)?
    } else {
        wire_drive(input, plan, &factory, &mut round, tr, ops)?
    };
    finish_checks(input, reference, &report, ops)?;
    if let (Some(obs), Some(probe)) = (round.observed.as_mut(), &probe) {
        obs.wal_records = probe.records();
        obs.wal_bytes = probe.bytes();
        obs.commits = probe.commits();
        obs.journal = probe.journal();
    }
    let svc = recover_and_backfill(input, &factory, &report, &mut round, tr, ops)?;
    tr.end(span);
    round.wall_s = start.elapsed().as_secs_f64();
    if tr.on() {
        traced_store_and_history(input, svc, &factory, !plan.in_process, &mut round, ops)?;
    }
    Ok(round)
}

/// Serves `factory` over TCP and drives the input through one client;
/// returns the decoded final report.
fn wire_drive(
    input: &Input,
    plan: Plan,
    factory: &BenchFactory,
    round: &mut Round,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<StreamReport, Abort> {
    let t0 = Instant::now();
    let setup = tr.begin("setup");
    let svc = ops.call(
        "RegistryService::open",
        RegistryService::open(factory.clone(), policy(), TenantConfig::default()),
    )?;
    let server = ops.call(
        "Server::bind",
        Server::bind(
            svc,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        ),
    )?;
    let handle = server.handle();
    let serving = thread::spawn(move || server.serve());
    // The server thread is stopped and joined whatever the client does.
    let driven = wire_client(input, plan, handle.local_addr(), t0, setup, round, tr, ops);
    handle.shutdown();
    let served = match serving.join() {
        Ok(result) => ops.call("Server::serve", result),
        Err(_) => ops.call("Server::serve", Err("server thread panicked")),
    };
    let bytes = driven?;
    let stats = served?;
    if let Some(obs) = round.observed.as_mut() {
        obs.frames = stats.frames;
    }
    ops.call(
        "decode_report",
        decode_report(&bytes).ok_or("undecodable finish report"),
    )
}

#[allow(clippy::too_many_arguments)]
fn wire_client(
    input: &Input,
    plan: Plan,
    addr: std::net::SocketAddr,
    t0: Instant,
    setup: crate::trace::SpanId,
    round: &mut Round,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<Vec<u8>, Abort> {
    let traced = tr.on();
    let mut client = ops.call("Client::connect", Client::connect(addr))?;
    ops.call("Client::admit", client.admit(PLANT, true))?;
    for (i, lane) in input.lanes.iter().enumerate() {
        ops.call("Client::lane_def", client.lane_def(i as u32 + 1, lane))?;
    }
    for event in &input.stand_up {
        ops.call("Client::control", client.control(event))?;
    }
    // Controls are unacknowledged: a synchronous request makes set-up
    // include their application, and surfaces any parked error.
    ops.call("Client::query_lane_stats", client.query_lane_stats())?;
    tr.end(setup);
    round.setup_s = t0.elapsed().as_secs_f64();

    let drive = tr.begin("drive");
    let first = Instant::now();
    let mut sent = 0_u64;
    let mut version = 0_u64;
    let mut wait = Duration::ZERO;
    let mut tick_rtt_ms = Vec::new();
    let mut open = OpenPhases::default();
    for event in &input.events {
        match event {
            Event::Sample {
                lane,
                timestamp,
                value,
            } => {
                let result = if traced {
                    let t = Instant::now();
                    let r = client.sample(lane + 1, *timestamp, *value);
                    wait += t.elapsed();
                    r
                } else {
                    client.sample(lane + 1, *timestamp, *value)
                };
                ops.call("Client::sample", result)?;
                sent += 1;
            }
            Event::Control(control) => {
                ops.call("Client::control", client.control(control))?;
                if plan.poll_per_phase && open.closes(control) {
                    tr.next_request();
                    let span = tr.begin("poll");
                    let t = Instant::now();
                    let (stats, _) =
                        ops.call("Client::query_lane_stats", client.query_lane_stats())?;
                    round.requests_ms.push(ms(t));
                    tr.end(span);
                    ops.check(stats.samples_ingested == sent, || {
                        format!(
                            "poll saw {} samples ingested, {sent} sent",
                            stats.samples_ingested
                        )
                    })?;
                }
                if plan.tick_per_job && event.closes_job() {
                    tr.next_request();
                    let span = tr.begin("tick_query");
                    let t = Instant::now();
                    let (v, count) = ops.call("Client::tick", client.tick())?;
                    let (v2, outliers) =
                        ops.call("Client::query_scores", client.query_scores(None))?;
                    let rtt = ms(t);
                    round.requests_ms.push(rtt);
                    tr.end(span);
                    ops.check(
                        v == version + 1 && v2 == v && outliers.len() as u64 == count,
                        || format!("tick {v} (scores {v2}) after tick {version}"),
                    )?;
                    version = v;
                    tick_rtt_ms.push(rtt);
                }
            }
        }
    }
    let last = Instant::now();
    tr.next_request();
    let span = tr.begin("finish");
    let (v, bytes) = ops.call("Client::finish", client.finish())?;
    let end = Instant::now();
    tr.end(span);
    tr.end(drive);
    round.finish_s = (end - last).as_secs_f64();
    round.ingest_s = (end - first).as_secs_f64();
    ops.check(v == version + 1, || {
        format!("finish version {v} after tick {version}")
    })?;
    if let Some(obs) = round.observed.as_mut() {
        let (sent, received) = ops.call(
            "TCP_INFO",
            connection_bytes(addr).ok_or("no byte counters for the client connection"),
        )?;
        obs.sent_bytes = sent;
        obs.received_bytes = received;
        obs.send_wait_s = wait.as_secs_f64();
        obs.finish_rtt_ms = (end - last).as_secs_f64() * 1e3;
        obs.tick_rtt_ms = tick_rtt_ms;
    }
    Ok(bytes)
}

fn finish_checks(
    input: &Input,
    reference: &Reference,
    report: &StreamReport,
    ops: &mut Ops,
) -> Result<(), Abort> {
    let verdict = reference.check(&report.report);
    ops.check(verdict.is_ok(), || {
        format!("finish report vs batch: {}", verdict.unwrap_err())
    })?;
    ops.check(report.stats.samples_ingested == input.samples, || {
        format!(
            "finish report counts {} samples ingested, {} sent",
            report.stats.samples_ingested, input.samples
        )
    })
}

/// Per-lane samples sent so far, and how many of them are sealed.
struct Sealed {
    sent: Vec<Vec<(u64, f64)>>,
    sealed: Vec<usize>,
    high: Option<u64>,
}

impl Sealed {
    fn new(lanes: usize) -> Self {
        Sealed {
            sent: vec![Vec::new(); lanes],
            sealed: vec![0; lanes],
            high: None,
        }
    }

    fn push(&mut self, lane: usize, timestamp: u64, value: f64) {
        if let Some(samples) = self.sent.get_mut(lane) {
            samples.push((timestamp, value));
        }
    }

    /// A rotation sealed everything sent so far.
    fn seal(&mut self) {
        for (sealed, sent) in self.sealed.iter_mut().zip(&self.sent) {
            *sealed = sent.len();
            if let Some(&(t, _)) = sent.last() {
                self.high = Some(self.high.map_or(t, |h| h.max(t)));
            }
        }
    }

    /// The most recent `1/SCAN_SHARE` of the sealed range.
    fn window(&self) -> Option<RangeQuery> {
        let high = self.high?;
        Some(RangeQuery::range(high - high / SCAN_SHARE, high))
    }

    /// Whether `found` holds exactly the sealed samples in `query`.
    fn matches(&self, lanes: &[LaneId], query: &RangeQuery, found: &[LaneSeries]) -> bool {
        let mut expected: BTreeMap<&LaneId, &[(u64, f64)]> = BTreeMap::new();
        for (i, id) in lanes.iter().enumerate() {
            let sealed = &self.sent[i][..self.sealed[i]];
            let lo = sealed.partition_point(|&(t, _)| t < query.start);
            let hi = sealed.partition_point(|&(t, _)| t <= query.end);
            if hi > lo {
                expected.insert(id, &sealed[lo..hi]);
            }
        }
        let mut got = 0;
        for lane in found {
            if lane.series.is_empty() {
                continue;
            }
            got += 1;
            let Some(want) = expected.get(&lane.id) else {
                return false;
            };
            let ts = lane.series.timestamps();
            let vs = lane.series.values();
            if ts.len() != want.len()
                || want
                    .iter()
                    .zip(ts.iter().zip(vs))
                    .any(|(&(t, v), (&t2, v2))| t != t2 || v.to_bits() != v2.to_bits())
            {
                return false;
            }
        }
        got == expected.len()
    }
}

/// Drives the input in process: rotate after every job, compact every
/// `COMPACT_EVERY` jobs, `SCANS_PER_JOB` dashboard scans per job;
/// returns the final report.
fn local_drive(
    input: &Input,
    factory: &BenchFactory,
    round: &mut Round,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<StreamReport, Abort> {
    let t0 = Instant::now();
    let setup = tr.begin("setup");
    let mut svc = ops.call(
        "RegistryService::open",
        RegistryService::open(factory.clone(), policy(), TenantConfig::default()),
    )?;
    ops.call("PlantService::admit", svc.admit(PLANT, true))?;
    for event in &input.stand_up {
        ops.call("PlantService::control", svc.control(PLANT, event))?;
    }
    tr.end(setup);
    round.setup_s = t0.elapsed().as_secs_f64();
    let mut obs = round.observed.take();

    let samples_per_job = input.samples / input.jobs.max(1) as u64;
    let scan_every = (samples_per_job / (SCANS_PER_JOB + 1)).max(1);
    let mut sealed = Sealed::new(input.lanes.len());
    let mut jobs_done = 0;
    let mut since_scan = 0;
    let drive = tr.begin("drive");
    let first = Instant::now();
    for event in &input.events {
        match event {
            Event::Sample {
                lane,
                timestamp,
                value,
            } => {
                let id = &input.lanes[*lane as usize];
                let sample = Sample {
                    timestamp: *timestamp,
                    value: *value,
                };
                ops.call("PlantService::ingest", svc.ingest(PLANT, id, sample))?;
                sealed.push(*lane as usize, *timestamp, *value);
                since_scan += 1;
                if since_scan >= scan_every && sealed.high.is_some() {
                    since_scan = 0;
                    scan(input, &svc, &sealed, round, obs.as_mut(), tr, ops)?;
                }
            }
            Event::Control(control) => {
                ops.call("PlantService::control", svc.control(PLANT, control))?;
                if let ControlEvent::JobStart { .. } = **control {
                    since_scan = 0;
                }
                if !event.closes_job() {
                    continue;
                }
                jobs_done += 1;
                let span = tr.begin("rotate");
                let t = Instant::now();
                ops.call("PlantService::rotate", svc.rotate(PLANT))?;
                let rotate_ms = ms(t);
                tr.end(span);
                sealed.seal();
                if let Some(obs) = obs.as_mut() {
                    obs.rotate_ms.push(rotate_ms);
                }
                if jobs_done % COMPACT_EVERY == 0 {
                    let span = tr.begin("compact");
                    timed_compact(&mut svc, obs.as_mut(), ops)?;
                    tr.end(span);
                }
            }
        }
    }
    let last = Instant::now();
    tr.next_request();
    let span = tr.begin("finish");
    let report = ops.call("PlantService::finish", svc.finish(PLANT))?;
    let end = Instant::now();
    tr.end(span);
    tr.end(drive);
    round.finish_s = (end - last).as_secs_f64();
    round.ingest_s = (end - first).as_secs_f64();
    round.observed = obs;
    Ok(report)
}

fn shard_storage(
    svc: &RegistryService<BenchFactory>,
    ops: &mut Ops,
) -> Result<BenchStorage, Abort> {
    let tenant = ops.call(
        "PlantRegistry::tenant",
        svc.registry().tenant(PLANT).ok_or("plant is not live"),
    )?;
    let shard = ops.call(
        "Tenant::shards",
        tenant.shards().first().ok_or("plant has no shard"),
    )?;
    Ok(shard.sealed_storage().0.clone())
}

fn file_sizes(
    svc: &RegistryService<BenchFactory>,
    ops: &mut Ops,
) -> Result<BTreeMap<String, u64>, Abort> {
    let storage = shard_storage(svc, ops)?;
    let mut sizes = BTreeMap::new();
    for name in ops.call("Storage::list", storage.list())? {
        let size = ops.call("Storage::read", storage.read(&name))?.len() as u64;
        sizes.insert(name, size);
    }
    Ok(sizes)
}

/// `PlantService::compact` with the default options. With `obs`, also
/// records its duration, the bytes it wrote, and the bytes of the files
/// it replaced (listed before and after, outside the timed call).
fn timed_compact(
    svc: &mut RegistryService<BenchFactory>,
    obs: Option<&mut Observed>,
    ops: &mut Ops,
) -> Result<(), Abort> {
    let before = obs.is_some().then(|| file_sizes(svc, ops)).transpose()?;
    let t = Instant::now();
    let stats = ops.call(
        "PlantService::compact",
        svc.compact(PLANT, &CompactionOptions::default()),
    )?;
    let compact_ms = ms(t);
    if let (Some(obs), Some(before)) = (obs, before) {
        let after = file_sizes(svc, ops)?;
        obs.compact_ms.push(compact_ms);
        obs.compact_bytes_out += stats.iter().map(|s| s.bytes_written).sum::<u64>();
        obs.compact_bytes_in += before
            .iter()
            .filter(|(name, _)| !after.contains_key(*name))
            .map(|(_, size)| size)
            .sum::<u64>();
    }
    Ok(())
}

/// One dashboard scan through the service; in traced rounds, the same
/// query also goes straight to `snapshot` and `HistoryReader::scan`.
fn scan(
    input: &Input,
    svc: &RegistryService<BenchFactory>,
    sealed: &Sealed,
    round: &mut Round,
    obs: Option<&mut Observed>,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<(), Abort> {
    let Some(query) = sealed.window() else {
        return Ok(());
    };
    tr.next_request();
    let span = tr.begin("scan");
    let t = Instant::now();
    let (found, _) = ops.call("PlantService::range_scan", svc.range_scan(PLANT, &query))?;
    round.requests_ms.push(ms(t));
    tr.end(span);
    ops.check(sealed.matches(&input.lanes, &query, &found), || {
        format!(
            "range_scan [{}, {}] did not return exactly the sealed samples",
            query.start, query.end
        )
    })?;
    if let Some(obs) = obs {
        let storage = shard_storage(svc, ops)?;
        direct_scan(&storage, &query, obs, ops)?;
    }
    Ok(())
}

/// `snapshot` then `HistoryReader::new` + `scan`, timed apart.
fn direct_scan(
    storage: &BenchStorage,
    query: &RangeQuery,
    obs: &mut Observed,
    ops: &mut Ops,
) -> Result<Vec<LaneSeries>, Abort> {
    let t = Instant::now();
    let snap = ops.call("history::snapshot", snapshot(storage))?;
    obs.snapshot_ms.push(ms(t));
    let t = Instant::now();
    let reader = ops.call("HistoryReader::new", HistoryReader::new(snap))?;
    let (found, stats) = ops.call("HistoryReader::scan", reader.scan(query))?;
    obs.scan_decode_ms.push(ms(t));
    obs.chunks_decoded += stats.chunks_decoded as u64;
    obs.chunks_pruned += stats.chunks_pruned as u64;
    obs.scans += 1;
    Ok(found)
}

/// Reopens the store image as a restarted process would, checks what it
/// recovered, and re-detects the full range from storage.
fn recover_and_backfill(
    input: &Input,
    factory: &BenchFactory,
    finished: &StreamReport,
    round: &mut Round,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Result<RegistryService<BenchFactory>, Abort> {
    let span = tr.begin("recover");
    let t = Instant::now();
    let svc = ops.call(
        "RegistryService::open (recover)",
        RegistryService::open(factory.reopen(), policy(), TenantConfig::default()),
    )?;
    round.recover_s = t.elapsed().as_secs_f64();
    tr.end(span);
    ops.check(svc.health().ready(), || {
        "recovered service is not ready".into()
    })?;
    let stats = ops.call("PlantService::stats", svc.stats(PLANT))?;
    ops.check(stats.samples_ingested == input.samples, || {
        format!(
            "recovered {} samples ingested, {} generated",
            stats.samples_ingested, input.samples
        )
    })?;
    tr.next_request();
    let span = tr.begin("backfill");
    let t = Instant::now();
    let outcome = ops.call(
        "PlantService::backfill",
        svc.backfill(PLANT, 0, u64::MAX, None),
    )?;
    round.backfill_s = t.elapsed().as_secs_f64();
    tr.end(span);
    let identical = diff_reports(&finished.report, &outcome.report.report).identical();
    ops.check(identical, || {
        "backfill is not identical to the finish report".into()
    })?;
    Ok(svc)
}

/// Traced rounds only, after the round's clock stopped: the store and
/// history layers driven directly on the round's final image.
fn traced_store_and_history(
    input: &Input,
    mut svc: RegistryService<BenchFactory>,
    factory: &BenchFactory,
    archive: bool,
    round: &mut Round,
    ops: &mut Ops,
) -> Result<(), Abort> {
    let Some(mut obs) = round.observed.take() else {
        return Ok(());
    };
    let raw = ops.call(
        "MemFactory::storage",
        factory.storage(PLANT, 0).ok_or("no storage for the plant"),
    )?;
    let t = Instant::now();
    let (store, recovered) = ops.call(
        "Store::open",
        Store::open(raw, TenantConfig::default().store),
    )?;
    obs.store_open_ms = ms(t);
    drop(store);
    obs.recover_wal_records = recovered.stats.wal_records as u64;
    obs.recover_files = (recovered.stats.segments_loaded + recovered.stats.hist_loaded) as u64 + 1;

    let storage = shard_storage(&svc, ops)?;
    let t = Instant::now();
    let outcome = ops.call(
        "history::backfill",
        hierod_history::backfill(
            &[&storage],
            &policy(),
            TenantConfig::default().stream,
            0,
            u64::MAX,
            None,
        ),
    )?;
    obs.backfill_ms = ms(t);
    ops.check(outcome.samples_replayed == input.samples, || {
        "direct backfill replayed another sample count".into()
    })?;

    if archive {
        // Workloads that never rotate: what sealing, compacting and
        // scanning their history costs.
        let t = Instant::now();
        ops.call("PlantService::rotate", svc.rotate(PLANT))?;
        obs.rotate_ms.push(ms(t));
        timed_compact(&mut svc, Some(&mut obs), ops)?;
        let mut sealed = Sealed::new(input.lanes.len());
        for event in &input.events {
            if let Event::Sample {
                lane,
                timestamp,
                value,
            } = event
            {
                sealed.push(*lane as usize, *timestamp, *value);
            }
        }
        sealed.seal();
        let storage = shard_storage(&svc, ops)?;
        if let Some(query) = sealed.window() {
            for _ in 0..ARCHIVE_SCANS {
                let found = direct_scan(&storage, &query, &mut obs, ops)?;
                ops.check(sealed.matches(&input.lanes, &query, &found), || {
                    "scan of the archived store missed sealed samples".into()
                })?;
            }
        }
    }
    round.observed = Some(obs);
    Ok(())
}

/// Scans of the archived store in the traced run of workloads that
/// never rotate.
const ARCHIVE_SCANS: usize = 20;
