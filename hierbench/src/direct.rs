//! Direct drives of the lower layers, traced run only.
//!
//! Where one entry point calls the next layer internally (service →
//! stream → store; stream tick → core), the traced run also calls the
//! lower layer's public entry point itself with the same inputs. The
//! upper layer's self time is the difference. Each layer runs in its own
//! pass over the events, so one layer's working set does not evict
//! another's between calls.

use std::collections::BTreeMap;
use std::time::Instant;

use hierod_core::detect_level::detect_level;
use hierod_core::pipeline::build_report;
use hierod_core::{AlgorithmPolicy, PhaseChoice};
use hierod_detect::engine;
use hierod_hierarchy::{
    CaqResult, Environment, Job, JobConfig, Level, Phase, PhaseKind, Plant, ProductionLine,
    RedundancyGroup, Sensor,
};
use hierod_service::{PlantService, RegistryService};
use hierod_store::{MemStorage, Store, WalRecord};
use hierod_stream::tenant::TenantConfig;
use hierod_stream::{ControlEvent, LaneKind, Sample, StreamConfig, StreamDetector};
use hierod_timeseries::TimeSeries;
use hierod_wire::{encode_report, Frame};

use crate::check::Reference;
use crate::input::{Event, Input};
use crate::storage::BenchFactory;
use crate::workloads::{Abort, Ops, PLANT};

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The service layer alone (`PlantService` in process, which calls
/// stream and store inside).
#[derive(Debug, Default)]
pub struct ServicePass {
    /// Nanoseconds inside `PlantService::ingest`.
    pub ingest_ns: f64,
    /// `PlantService::tick` at every tick point (ms).
    pub tick_ms: Vec<f64>,
    /// `PlantService::finish` (ms).
    pub finish_ms: f64,
}

/// Drives `PlantService` in process, ticking where `tick_after_job`
/// says (after every job) or once at the end.
pub fn service_pass(
    input: &Input,
    tick_after_job: bool,
    ops: &mut Ops,
) -> Result<ServicePass, Abort> {
    let mut svc = ops.call(
        "RegistryService::open",
        RegistryService::open(
            BenchFactory::new(None),
            AlgorithmPolicy::default(),
            TenantConfig::default(),
        ),
    )?;
    ops.call("PlantService::admit", svc.admit(PLANT, true))?;
    for event in &input.stand_up {
        ops.call("PlantService::control", svc.control(PLANT, event))?;
    }
    let mut pass = ServicePass::default();
    let mut ingest_ns = 0_u128;
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
                let t = Instant::now();
                let r = svc.ingest(PLANT, id, sample);
                ingest_ns += t.elapsed().as_nanos();
                ops.call("PlantService::ingest", r)?;
            }
            Event::Control(control) => {
                ops.call("PlantService::control", svc.control(PLANT, control))?;
                if tick_after_job && event.closes_job() {
                    let t = Instant::now();
                    ops.call("PlantService::tick", svc.tick(PLANT))?;
                    pass.tick_ms.push(ms(t));
                }
            }
        }
    }
    if !tick_after_job {
        let t = Instant::now();
        ops.call("PlantService::tick", svc.tick(PLANT))?;
        pass.tick_ms.push(ms(t));
    }
    let t = Instant::now();
    ops.call("PlantService::finish", svc.finish(PLANT))?;
    pass.finish_ms = ms(t);
    pass.ingest_ns = ingest_ns as f64;
    Ok(pass)
}

/// The stream layer alone, and core driven on the same tick inputs.
#[derive(Debug, Default)]
pub struct StreamPass {
    /// Nanoseconds inside `StreamDetector::ingest`.
    pub ingest_ns: f64,
    /// `StreamDetector::apply` time of the controls that close a phase
    /// (ms), and how many phases they closed.
    pub phase_close_ms: f64,
    /// Phases closed.
    pub phase_closes: u64,
    /// `StreamDetector::tick` at every tick point (ms).
    pub tick_ms: Vec<f64>,
    /// Tick self time: tick minus the core calls on the same inputs.
    pub tick_self_ms: Vec<f64>,
    /// Completed jobs materialized at every tick point.
    pub tick_jobs: Vec<f64>,
    /// Jobs closed since the previous tick point, summed.
    pub fresh_jobs: f64,
    /// `StreamDetector::finish` (ms).
    pub finish_ms: f64,
    /// `detect_level` on job, line and production levels, per tick (ms).
    pub core_detect_ms: Vec<f64>,
    /// `build_report` per tick (ms).
    pub core_report_ms: Vec<f64>,
    /// `encode_report` of every tick report and the final one (ms).
    pub encode_ms: Vec<f64>,
    /// Outliers in the final report.
    pub outliers: f64,
    /// Phase series in the final plant.
    pub phase_series: f64,
}

/// Drives `StreamDetector` directly; at every tick point, also calls
/// `detect_level` and `build_report` on the plant the tick materialized
/// (rebuilt from the events sent so far) and checks they agree with it.
pub fn stream_pass(
    input: &Input,
    tick_after_job: bool,
    reference: &Reference,
    ops: &mut Ops,
) -> Result<StreamPass, Abort> {
    let policy = AlgorithmPolicy::default();
    let mut det = ops.call(
        "StreamDetector::new",
        StreamDetector::new(policy.clone(), StreamConfig::default()),
    )?;
    let mut mirror = Mirror::new(input);
    for event in &input.stand_up {
        ops.call("StreamDetector::apply", det.apply(event))?;
        mirror.apply(event);
    }
    let mut pass = StreamPass::default();
    let mut ingest_ns = 0_u128;
    let mut close_ns = 0_u128;
    let mut last_jobs = 0;
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
                let t = Instant::now();
                let r = det.ingest(id, sample);
                ingest_ns += t.elapsed().as_nanos();
                ops.call("StreamDetector::ingest", r)?;
                mirror.sample(*lane as usize, *timestamp, *value);
            }
            Event::Control(control) => {
                let closes = mirror.closes_phase(control);
                let t = Instant::now();
                let r = det.apply(control);
                if closes {
                    close_ns += t.elapsed().as_nanos();
                    pass.phase_closes += 1;
                }
                ops.call("StreamDetector::apply", r)?;
                mirror.apply(control);
                if tick_after_job && event.closes_job() {
                    tick_point(&det, &mirror, &policy, &mut last_jobs, &mut pass, ops)?;
                }
            }
        }
    }
    if !tick_after_job {
        tick_point(&det, &mirror, &policy, &mut last_jobs, &mut pass, ops)?;
    }
    let t = Instant::now();
    let report = ops.call("StreamDetector::finish", det.finish())?;
    pass.finish_ms = ms(t);
    let verdict = reference.check(&report.report);
    ops.check(verdict.is_ok(), || {
        format!("direct stream report vs batch: {}", verdict.unwrap_err())
    })?;
    let t = Instant::now();
    std::hint::black_box(encode_report(&report));
    pass.encode_ms.push(ms(t));
    pass.outliers = report.report.outliers.len() as f64;
    pass.phase_series = mirror
        .plant()
        .lines
        .iter()
        .flat_map(|l| &l.jobs)
        .flat_map(|j| &j.phases)
        .map(|p| p.series.len())
        .sum::<usize>() as f64;
    pass.ingest_ns = ingest_ns as f64;
    pass.phase_close_ms = close_ns as f64 / 1e6;
    Ok(pass)
}

fn tick_point(
    det: &StreamDetector,
    mirror: &Mirror,
    policy: &AlgorithmPolicy,
    last_jobs: &mut usize,
    pass: &mut StreamPass,
    ops: &mut Ops,
) -> Result<(), Abort> {
    let t = Instant::now();
    let tick = ops.call("StreamDetector::tick", det.tick())?;
    let tick_ms = ms(t);
    let plant = mirror.plant();
    let mut detections = BTreeMap::new();
    for level in [Level::Phase, Level::Environment] {
        if let Some(d) = tick.detections.get(&level) {
            detections.insert(level, d.clone());
        }
    }
    let t = Instant::now();
    for level in [Level::Job, Level::ProductionLine, Level::Production] {
        let d = ops.call("core::detect_level", detect_level(&plant, level, policy))?;
        detections.insert(level, d);
    }
    let detect_ms = ms(t);
    let t = Instant::now();
    let report = ops.call(
        "core::build_report",
        build_report(&plant, Level::Phase, &detections, policy),
    )?;
    let report_ms = ms(t);
    ops.check(
        detections == tick.detections && report == tick.report,
        || "core on the rebuilt plant disagrees with the stream tick".into(),
    )?;
    let t = Instant::now();
    std::hint::black_box(encode_report(&tick));
    pass.encode_ms.push(ms(t));
    let jobs = mirror.completed_jobs();
    pass.tick_ms.push(tick_ms);
    pass.tick_self_ms.push(tick_ms - detect_ms - report_ms);
    pass.core_detect_ms.push(detect_ms);
    pass.core_report_ms.push(report_ms);
    pass.tick_jobs.push(jobs as f64);
    pass.fresh_jobs += (jobs - *last_jobs) as f64;
    *last_jobs = jobs;
    Ok(())
}

/// The plant as a tick materializes it: completed jobs only, every
/// series built from the samples released so far (all of them, at
/// lateness 0).
struct Mirror {
    lines: Vec<MirrorLine>,
    /// Per lane: line index, kind, sensor.
    routes: Vec<(usize, LaneKind, String)>,
}

struct MirrorLine {
    machine: String,
    sensors: Vec<Sensor>,
    redundancy: Vec<RedundancyGroup>,
    env: Vec<Column>,
    jobs: Vec<Job>,
    open: Option<OpenJob>,
}

struct OpenJob {
    id: String,
    start: u64,
    config: JobConfig,
    phases: Vec<(PhaseKind, Vec<Column>)>,
}

struct Column {
    name: String,
    timestamps: Vec<u64>,
    values: Vec<f64>,
}

impl Column {
    fn new(name: &str) -> Self {
        Column {
            name: name.to_string(),
            timestamps: Vec::new(),
            values: Vec::new(),
        }
    }

    fn series(&self) -> Option<TimeSeries> {
        TimeSeries::new(&self.name, self.timestamps.clone(), self.values.clone()).ok()
    }
}

impl Mirror {
    fn new(input: &Input) -> Self {
        let machines: Vec<&str> = input
            .stand_up
            .iter()
            .filter_map(|c| match c {
                ControlEvent::MachineUp { machine, .. } => Some(machine.as_str()),
                _ => None,
            })
            .collect();
        let routes = input
            .lanes
            .iter()
            .map(|l| {
                let line = machines
                    .iter()
                    .position(|m| *m == l.machine)
                    .unwrap_or(usize::MAX);
                (line, l.kind, l.sensor.clone())
            })
            .collect();
        Mirror {
            lines: Vec::new(),
            routes,
        }
    }

    fn line(&mut self, machine: &str) -> Option<&mut MirrorLine> {
        self.lines.iter_mut().find(|l| l.machine == machine)
    }

    /// Whether `control` finalizes an open phase's pipelines.
    fn closes_phase(&self, control: &ControlEvent) -> bool {
        let machine = match control {
            ControlEvent::PhaseStart { machine, .. }
            | ControlEvent::JobComplete { machine, .. } => machine,
            _ => return false,
        };
        self.lines
            .iter()
            .find(|l| &l.machine == machine)
            .and_then(|l| l.open.as_ref())
            .is_some_and(|j| !j.phases.is_empty())
    }

    fn apply(&mut self, control: &ControlEvent) {
        match control {
            ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => self.lines.push(MirrorLine {
                machine: machine.clone(),
                sensors: sensors.clone(),
                redundancy: redundancy.clone(),
                env: env_sensors.iter().map(|s| Column::new(s)).collect(),
                jobs: Vec::new(),
                open: None,
            }),
            ControlEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => {
                if let Some(line) = self.line(machine) {
                    line.open = Some(OpenJob {
                        id: job.clone(),
                        start: *start,
                        config: config.clone(),
                        phases: Vec::new(),
                    });
                }
            }
            ControlEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => {
                if let Some(job) = self.line(machine).and_then(|l| l.open.as_mut()) {
                    job.phases
                        .push((*kind, sensors.iter().map(|s| Column::new(s)).collect()));
                }
            }
            ControlEvent::JobComplete { machine, caq } => {
                if let Some(line) = self.line(machine) {
                    if let Some(job) = line.open.take() {
                        line.jobs.push(close(job, caq));
                    }
                }
            }
        }
    }

    fn sample(&mut self, lane: usize, timestamp: u64, value: f64) {
        let Some((line, kind, sensor)) = self.routes.get(lane) else {
            return;
        };
        let Some(line) = self.lines.get_mut(*line) else {
            return;
        };
        let columns = match kind {
            LaneKind::Environment => &mut line.env,
            LaneKind::Phase => match line.open.as_mut().and_then(|j| j.phases.last_mut()) {
                Some((_, columns)) => columns,
                None => return,
            },
        };
        if let Some(c) = columns.iter_mut().find(|c| &c.name == sensor) {
            c.timestamps.push(timestamp);
            c.values.push(value);
        }
    }

    fn completed_jobs(&self) -> usize {
        self.lines.iter().map(|l| l.jobs.len()).sum()
    }

    fn plant(&self) -> Plant {
        let lines = self
            .lines
            .iter()
            .map(|l| ProductionLine {
                machine_id: l.machine.clone(),
                sensors: l.sensors.clone(),
                redundancy: l.redundancy.clone(),
                jobs: l.jobs.clone(),
                environment: Environment::new(l.env.iter().filter_map(Column::series).collect()),
            })
            .collect();
        Plant::new("streamed-plant", lines)
    }
}

fn close(job: OpenJob, caq: &CaqResult) -> Job {
    Job {
        id: job.id,
        start: job.start,
        config: job.config,
        phases: job
            .phases
            .iter()
            .map(|(kind, columns)| {
                Phase::new(
                    *kind,
                    columns.iter().filter_map(Column::series).collect(),
                    Vec::new(),
                )
            })
            .collect(),
        caq: caq.clone(),
    }
}

/// `engine::build` + `score_points` of the policy's phase and
/// environment algorithms on every series of `plant`; ns per sample.
pub fn detect_pass(plant: &Plant, ops: &mut Ops) -> Result<f64, Abort> {
    let policy = AlgorithmPolicy::default();
    let PhaseChoice::PerSeries(phase) = policy.phase else {
        return ops
            .check(false, || "default phase policy is not per-series".into())
            .map(|_| 0.0);
    };
    let mut work: Vec<(hierod_detect::engine::AlgoSpec, &TimeSeries)> = Vec::new();
    for line in &plant.lines {
        for series in &line.environment.series {
            work.push((policy.environment.spec(), series));
        }
        for job in &line.jobs {
            for p in &job.phases {
                for series in &p.series {
                    work.push((phase.spec(), series));
                }
            }
        }
    }
    let samples: usize = work.iter().map(|(_, s)| s.len()).sum();
    let t = Instant::now();
    for (spec, series) in &work {
        let scorer = ops.call("engine::build", engine::build(spec))?;
        // Series too short for the scorer are skipped, as batch does.
        let _ = std::hint::black_box(scorer.score_points(series.values()));
    }
    ops.attempted += work.len() as u64;
    Ok(t.elapsed().as_nanos() as f64 / samples.max(1) as f64)
}

/// `Store::append` of `records` into a fresh in-memory store with the
/// default group commit; ns per record.
pub fn store_pass(records: &[WalRecord], ops: &mut Ops) -> Result<f64, Abort> {
    let (mut store, _) = ops.call(
        "Store::open",
        Store::open(MemStorage::new(), TenantConfig::default().store),
    )?;
    let t = Instant::now();
    for record in records {
        let r = store.append(record);
        ops.call("Store::append", r)?;
    }
    ops.call("Store::commit", store.commit())?;
    Ok(t.elapsed().as_nanos() as f64 / records.len().max(1) as f64)
}

/// `Frame::decode_payload` over every framed frame in `bytes`; returns
/// (frames, ns per frame).
pub fn wire_pass(bytes: &[u8], ops: &mut Ops) -> Result<(u64, f64), Abort> {
    let mut payloads = Vec::new();
    let mut rest = bytes;
    while rest.len() >= 8 {
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let Some(payload) = rest.get(8..8 + len) else {
            break;
        };
        payloads.push(payload);
        rest = &rest[8 + len..];
    }
    ops.check(rest.is_empty(), || {
        "generated frames do not split cleanly".into()
    })?;
    let t = Instant::now();
    let mut decoded = 0_u64;
    for payload in &payloads {
        if std::hint::black_box(Frame::decode_payload(payload)).is_some() {
            decoded += 1;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    ops.attempted += payloads.len() as u64;
    ops.check(decoded == payloads.len() as u64, || {
        "a generated frame failed to decode".into()
    })?;
    Ok((decoded, ns / decoded.max(1) as f64))
}
