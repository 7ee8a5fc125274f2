//! [`StreamDetector`]: online hierarchical detection over ingested samples.
//!
//! The detector is the innermost [`Driver`]: it consumes two interleaved
//! inputs:
//!
//! * **Control events** — machine/job/phase lifecycle events
//!   ([`ControlEvent`], applied through [`StreamDetector::apply`] or the
//!   typed [`Driver`] calls such as [`Driver::machine_up`]) that mirror
//!   the production process structure of the paper's Fig. 2.
//! * **Samples** — per-sensor readings arriving through
//!   [`IngestRouter`](crate::IngestRouter) lanes ([`Driver::drain`]) or
//!   directly ([`StreamDetector::ingest`]).
//!
//! Each open (machine, job, phase, sensor) series and each environment
//! sensor gets its own **pipeline**: a [`Watermark`] reorder stage feeding
//! an [`OnlineScorer`]. Control events apply to samples ingested *after*
//! the call, so callers must drain the router at phase boundaries (the
//! synth replay and the equivalence test follow this contract).
//!
//! On a [`StreamDetector::tick`] or at [`StreamDetector::finish`], the
//! detector materializes a [`Plant`] from everything released so far,
//! turns the pipelines' per-sample scores into phase/environment
//! [`LevelDetections`] through the *same* `emit_series` thresholding path
//! the batch engine uses, runs the upper levels (job, production line,
//! production) on the materialized plant, and propagates everything
//! through Algorithm 1's `CalcGlobalScore` — yielding the same
//! ⟨global score, outlierness, support⟩ triples as a batch run.
//!
//! ## Scorer modes
//!
//! * [`ScorerMode::BatchEquivalent`] wraps the policy's engine scorer in a
//!   full-history [`WindowedBatch`]: per-series raw scores are
//!   bit-identical to batch, at O(series) memory. Scores appear when a
//!   series closes (phase boundary / finish).
//! * [`ScorerMode::Incremental`] uses true per-sample scorers
//!   ([`IncrementalAr`], [`RollingRobustZ`], hopping [`WindowedBatch`]
//!   fallback): bounded memory and immediate scores, approximating batch.
//!
//! In either mode, a scorer wrapper installed with
//! [`StreamDetector::set_scorer_wrapper`] (the `hierod-adapt` drift
//! monitor) wraps every pipeline opened afterwards; without one, scorers
//! run bare.

use std::collections::BTreeMap;
use std::ops::AddAssign;

use hierod_core::detect_level::{detect_level, emit_series, LevelDetections};
use hierod_core::pipeline::build_report;
use hierod_core::{AlgorithmPolicy, HierReport, PhaseChoice, PointAlgo};
use hierod_detect::engine;
use hierod_detect::online::{
    IncrementalAr, OnlineScorer, RollingRobustZ, ScoredPoint, WindowedBatch,
};
use hierod_detect::{DetectError, Result};
use hierod_hierarchy::{
    CaqResult, Environment, Job, JobConfig, Level, LevelView, Phase, PhaseKind, Plant,
    ProductionLine, RedundancyGroup, Sensor, SeriesAt,
};
use hierod_timeseries::TimeSeries;
use std::sync::Arc;

use crate::driver::{sum_lane_stats, sum_stats, Driver};
use crate::router::{LaneId, LaneKind, Sample};
use crate::watermark::{LatenessStats, Watermark};

/// How phase/environment series are scored online.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScorerMode {
    /// Full-history [`WindowedBatch`] around the policy's engine scorer:
    /// raw scores bit-identical to the batch pipeline (the equivalence
    /// test pins this), O(series) memory per open series.
    BatchEquivalent,
    /// True incremental scorers with bounded memory: AR choices run
    /// [`IncrementalAr`], sliding/robust z-choices run [`RollingRobustZ`],
    /// everything else falls back to a hopping [`WindowedBatch`].
    Incremental,
}

/// Configuration of a [`StreamDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Allowed lateness (ticks) per sensor watermark; `0` means in-order
    /// streams release immediately and any out-of-order sample is dropped.
    pub lateness: u64,
    /// Online scoring mode.
    pub mode: ScorerMode,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            lateness: 0,
            mode: ScorerMode::BatchEquivalent,
        }
    }
}

/// Ingestion counters of a [`StreamDetector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Samples accepted by [`StreamDetector::ingest`].
    pub samples_ingested: u64,
    /// Samples released by watermarks into scorers.
    pub samples_released: u64,
    /// Samples dropped as late (behind a passed watermark).
    pub late_dropped: u64,
    /// Samples dropped as duplicate timestamps.
    pub duplicates_dropped: u64,
    /// Series whose scorer failed (skipped in detections, like batch skips
    /// unscorable series).
    pub series_failed: u64,
    /// WAL records rejected as corrupt during recovery (always 0 for a
    /// purely in-memory detector; the durable wrapper fills it in).
    pub corrupt_records: u64,
    /// Drift events emitted by adaptive scorer wrappers (always 0 with
    /// no wrapper installed).
    pub drift_events: u64,
    /// Scorer refits performed by adaptive scorer wrappers (always 0
    /// with no wrapper installed).
    pub refits: u64,
}

impl AddAssign for StreamStats {
    fn add_assign(&mut self, o: Self) {
        self.samples_ingested += o.samples_ingested;
        self.samples_released += o.samples_released;
        self.late_dropped += o.late_dropped;
        self.duplicates_dropped += o.duplicates_dropped;
        self.series_failed += o.series_failed;
        self.corrupt_records += o.corrupt_records;
        self.drift_events += o.drift_events;
        self.refits += o.refits;
    }
}

/// Per-lane ingestion counters, keyed by [`LaneId`] in [`StreamReport`].
/// Unlike the aggregate [`StreamStats`], these survive recovery
/// round-trips individually — the crash-equivalence tests assert them
/// lane by lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Samples released by this lane's watermarks into scorers.
    pub released: u64,
    /// Samples dropped as late on this lane.
    pub late_dropped: u64,
    /// Samples dropped as duplicates on this lane.
    pub duplicates_dropped: u64,
    /// WAL records for this lane rejected as corrupt during recovery.
    pub corrupt_records: u64,
    /// Drift events emitted on this lane by adaptive scorer wrappers.
    pub drift_events: u64,
    /// Scorer refits performed on this lane by adaptive scorer wrappers.
    pub refits: u64,
}

impl AddAssign for LaneStats {
    fn add_assign(&mut self, o: Self) {
        self.released += o.released;
        self.late_dropped += o.late_dropped;
        self.duplicates_dropped += o.duplicates_dropped;
        self.corrupt_records += o.corrupt_records;
        self.drift_events += o.drift_events;
        self.refits += o.refits;
    }
}

/// The output of a tick or finish: per-level detections plus the
/// Algorithm-1 report with ⟨global score, outlierness, support⟩ triples.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Detections per level, same shape as the batch
    /// [`detect_all_levels`](hierod_core::detect_all_levels).
    pub detections: BTreeMap<Level, LevelDetections>,
    /// The hierarchical report (triples + measurement-error warnings).
    pub report: HierReport,
    /// Ingestion counters at assembly time.
    pub stats: StreamStats,
    /// Per-lane release/drop counters at assembly time. A lane appears
    /// once any pipeline has opened for it; counters aggregate across all
    /// phases and jobs the lane fed.
    pub lane_stats: BTreeMap<LaneId, LaneStats>,
}

/// One machine/job/phase lifecycle event in value form — the common
/// currency of the durability WAL, the shard runtime (controls are
/// broadcast to every shard so all shard detectors hold congruent
/// skeletons), and the tenant registry.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlEvent {
    /// A machine comes online with its sensor inventory.
    MachineUp {
        /// Machine identifier.
        machine: String,
        /// Full sensor inventory.
        sensors: Vec<Sensor>,
        /// Redundancy groups over those sensors.
        redundancy: Vec<RedundancyGroup>,
        /// Ambient sensors sampled outside any job.
        env_sensors: Vec<String>,
    },
    /// A job starts with its configuration vector.
    JobStart {
        /// Machine identifier.
        machine: String,
        /// Job identifier.
        job: String,
        /// First tick of the job.
        start: u64,
        /// Configuration the operator submitted.
        config: JobConfig,
    },
    /// A phase begins; subsequent phase samples belong to it.
    PhaseStart {
        /// Machine identifier.
        machine: String,
        /// Which of the five phases.
        kind: PhaseKind,
        /// The sensors that will report during this phase.
        sensors: Vec<String>,
    },
    /// The machine's open job is closed with its CAQ result.
    JobComplete {
        /// Machine identifier.
        machine: String,
        /// Computer-aided quality result for the finished part.
        caq: CaqResult,
    },
}

/// A mutable view of one open pipeline with its lane coordinates —
/// the durability layer walks these to seal chunks and tag pipelines
/// with the control sequence that opened them.
pub(crate) struct PipeSlot<'a> {
    pub(crate) machine: &'a str,
    pub(crate) sensor: &'a str,
    pub(crate) kind: LaneKind,
    pub(crate) pipe: &'a mut Pipeline,
}

/// One sensor stream's online scoring state: watermark reorder buffer,
/// the scorer, and the released/scored history.
pub(crate) struct Pipeline {
    pub(crate) watermark: Watermark,
    scorer: Box<dyn OnlineScorer>,
    pub(crate) timestamps: Vec<u64>,
    pub(crate) values: Vec<f64>,
    scored: Vec<ScoredPoint>,
    failed: bool,
    finished: bool,
    /// How many released samples have already been sealed into a segment
    /// (durability layer); samples beyond this index still live only in
    /// the WAL and must be re-emitted on the next rotation.
    pub(crate) sealed: usize,
    /// Drop counters at the last seal — a rotation emits a chunk whenever
    /// the live counters moved past these, even with no new releases.
    pub(crate) sealed_stats: LatenessStats,
    /// Sequence number of the control event that opened this pipeline
    /// (`None` until the durability layer tags it). Recovery matches
    /// restored chunks to pipelines through this tag.
    pub(crate) opened_seq: Option<u64>,
}

impl Pipeline {
    fn new(lateness: u64, scorer: Box<dyn OnlineScorer>) -> Self {
        Self {
            watermark: Watermark::new(lateness),
            scorer,
            timestamps: Vec::new(),
            values: Vec::new(),
            scored: Vec::new(),
            failed: false,
            finished: false,
            sealed: 0,
            sealed_stats: LatenessStats::default(),
            opened_seq: None,
        }
    }

    /// Restores a sealed chunk of released history: the samples flow into
    /// the history and scorer exactly as their original releases did, then
    /// the watermark rewinds to the recovered frontier (`floor = max
    /// restored timestamp`) with the chunk's absolute drop counters.
    /// Re-offering the journalled carry-over samples afterwards (ascending
    /// timestamps, all above the floor) rebuilds the pre-crash watermark
    /// state exactly. Only valid on a fresh pipeline or directly after a
    /// previous `restore_chunk`.
    pub(crate) fn restore_chunk(
        &mut self,
        timestamps: &[u64],
        values: &[f64],
        late: u64,
        dups: u64,
    ) {
        for (&t, &v) in timestamps.iter().zip(values.iter()) {
            self.timestamps.push(t);
            self.values.push(v);
            if !self.failed && self.scorer.push(t, v, &mut self.scored).is_err() {
                self.failed = true;
            }
        }
        let stats = LatenessStats {
            late_dropped: late as usize,
            duplicates_dropped: dups as usize,
        };
        self.watermark
            .restore_state(self.timestamps.last().copied(), stats);
        self.sealed = self.timestamps.len();
        self.sealed_stats = stats;
    }

    /// Offers one sample; everything the watermark releases flows into the
    /// history and the scorer. A scorer error poisons the series (it will
    /// be skipped at assembly, mirroring the batch skip of unscorable
    /// series).
    fn offer(&mut self, ts: u64, value: f64, scratch: &mut Vec<(u64, f64)>) {
        scratch.clear();
        self.watermark.offer(ts, value, scratch);
        self.absorb_released(scratch);
    }

    /// Flushes the watermark and finishes the scorer (phase boundary or
    /// end of stream).
    fn finish(&mut self, scratch: &mut Vec<(u64, f64)>) {
        if self.finished {
            return;
        }
        scratch.clear();
        self.watermark.flush(scratch);
        self.absorb_released(scratch);
        if !self.failed && self.scorer.finish(&mut self.scored).is_err() {
            self.failed = true;
        }
        self.finished = true;
    }

    fn absorb_released(&mut self, released: &[(u64, f64)]) {
        for &(t, v) in released {
            self.timestamps.push(t);
            self.values.push(v);
            if !self.failed && self.scorer.push(t, v, &mut self.scored).is_err() {
                self.failed = true;
            }
        }
    }

    /// This pipeline's share of its lane's counters.
    fn lane_stats(&self) -> LaneStats {
        let w = self.watermark.stats();
        LaneStats {
            released: self.timestamps.len() as u64,
            late_dropped: w.late_dropped as u64,
            duplicates_dropped: w.duplicates_dropped as u64,
            corrupt_records: 0,
            drift_events: self.scorer.drift_events(),
            refits: self.scorer.refits(),
        }
    }

    /// The released history as a series, when non-degenerate.
    fn series(&self, name: &str) -> Option<TimeSeries> {
        TimeSeries::new(name, self.timestamps.clone(), self.values.clone()).ok()
    }
}

/// One executed (or executing) phase: its kind and per-sensor pipeline
/// slots in declaration order (which is the plant's series order, so the
/// materialized view ordering matches batch). A slot is `None` when the
/// sensor's lane hashes to a different shard: every shard keeps the full
/// declaration skeleton — same machines, jobs, phases, and slot order —
/// and owns only the pipelines of its own lanes, which is what makes the
/// fixed-order shard merge structurally trivial and deterministic.
struct PhaseState {
    kind: PhaseKind,
    pipes: Vec<(String, Option<Pipeline>)>,
}

/// One job's event-sourced state; `caq: None` marks it still open.
struct JobState {
    id: String,
    start: u64,
    config: JobConfig,
    phases: Vec<PhaseState>,
    caq: Option<CaqResult>,
}

/// One machine's event-sourced state.
struct MachineState {
    sensors: Vec<Sensor>,
    redundancy: Vec<RedundancyGroup>,
    jobs: Vec<JobState>,
    /// Environment pipeline slots, continuous across jobs, in declaration
    /// order; `None` for lanes owned by a different shard.
    env: Vec<(String, Option<Pipeline>)>,
}

impl MachineState {
    fn open_job_mut(&mut self) -> Option<&mut JobState> {
        self.jobs.last_mut().filter(|j| j.caq.is_none())
    }
}

/// The streaming counterpart of
/// [`find_hierarchical_outliers`](hierod_core::find_hierarchical_outliers):
/// event-sourced plant state plus per-sensor online scoring pipelines.
/// See the module docs for the driving contract.
pub struct StreamDetector {
    policy: AlgorithmPolicy,
    config: StreamConfig,
    phase_algo: PointAlgo,
    /// `Some((index, count))` when this detector is one shard of a set:
    /// it applies every control event (keeping the skeleton congruent
    /// with its siblings) but opens pipelines only for lanes whose
    /// machine×sensor hash lands on `index`.
    shard: Option<(usize, usize)>,
    /// Machines in arrival order (plant line order).
    machines: Vec<(String, MachineState)>,
    scratch: Vec<(u64, f64)>,
    samples_ingested: u64,
    /// Wrapper applied to every scorer built while installed (e.g. the
    /// `hierod-adapt` drift monitor); `None` runs scorers bare. Lives
    /// outside [`StreamConfig`] so the config stays `Copy`.
    scorer_wrapper: Option<Arc<ScorerWrapper>>,
}

/// A hook turning a freshly built incremental scorer into its adaptive
/// wrapper. Receives the lane kind so environment and phase lanes can be
/// wrapped differently.
pub type ScorerWrapper =
    dyn Fn(LaneKind, Box<dyn OnlineScorer>) -> Box<dyn OnlineScorer> + Send + Sync;

/// The visitor for [`StreamDetector::visit_scorers`]: machine, sensor,
/// lane kind, and the replaceable scorer slot.
pub type ScorerVisitor<'a> = dyn FnMut(&str, &str, LaneKind, &mut Box<dyn OnlineScorer>) + 'a;

impl StreamDetector {
    /// Creates a detector for the given policy.
    ///
    /// # Errors
    /// Rejects [`PhaseChoice::ProfileAcrossJobs`] — profiles are learned
    /// across completed jobs and have no per-sample online form; use the
    /// batch pipeline for profile mode.
    pub fn new(policy: AlgorithmPolicy, config: StreamConfig) -> Result<Self> {
        Self::with_shard(policy, config, None)
    }

    /// Creates shard `index` of a set of `count` detectors: structurally
    /// identical to [`StreamDetector::new`] but only lanes with
    /// [`shard_of(machine, sensor, count)`](crate::shard::shard_of)` ==
    /// index` get pipelines. Control events must be broadcast to every
    /// shard of the set, in the same order.
    ///
    /// # Errors
    /// As [`StreamDetector::new`], plus `index >= count`.
    pub fn new_shard(
        policy: AlgorithmPolicy,
        config: StreamConfig,
        index: usize,
        count: usize,
    ) -> Result<Self> {
        if index >= count {
            return Err(DetectError::invalid(
                "shard",
                format!("shard index {index} out of range for {count} shards"),
            ));
        }
        Self::with_shard(policy, config, Some((index, count)))
    }

    fn with_shard(
        policy: AlgorithmPolicy,
        config: StreamConfig,
        shard: Option<(usize, usize)>,
    ) -> Result<Self> {
        let PhaseChoice::PerSeries(phase_algo) = policy.phase else {
            return Err(DetectError::invalid(
                "policy.phase",
                "ProfileAcrossJobs is not streamable per-series; use batch detection",
            ));
        };
        Ok(Self {
            policy,
            config,
            phase_algo,
            shard,
            machines: Vec::new(),
            scratch: Vec::new(),
            samples_ingested: 0,
            scorer_wrapper: None,
        })
    }

    /// Installs the wrapper applied to every scorer built from now on, in
    /// either [`ScorerMode`]. Only pipelines opened *after* the call
    /// are wrapped — install before driving control events (the adapt
    /// layer re-wraps existing pipelines through
    /// [`visit_scorers`](Self::visit_scorers) when attaching late).
    pub fn set_scorer_wrapper(&mut self, wrapper: Arc<ScorerWrapper>) {
        self.scorer_wrapper = Some(wrapper);
    }

    /// Visits every open pipeline's scorer with its lane coordinates, in
    /// plant order — the adapt layer's swap point for store-driven refits.
    /// Replacing the scorer box mid-stream changes future scores only;
    /// already-emitted points are kept (the commit-point rules in
    /// DESIGN.md §4.19 restrict swaps to tick boundaries).
    pub fn visit_scorers(&mut self, f: &mut ScorerVisitor<'_>) {
        for slot in self.pipelines_mut() {
            if !slot.pipe.finished && !slot.pipe.failed {
                f(slot.machine, slot.sensor, slot.kind, &mut slot.pipe.scorer);
            }
        }
    }

    /// Builds a fresh (unwrapped) scorer for a lane of the given kind
    /// under the configured mode — what a refit uses to rebuild a
    /// pipeline's model through the registry before re-warming it from
    /// history.
    ///
    /// # Errors
    /// Propagates registry construction failures.
    pub fn build_lane_scorer(&self, kind: LaneKind) -> Result<Box<dyn OnlineScorer>> {
        let algo = match kind {
            LaneKind::Environment => self.policy.environment,
            LaneKind::Phase => self.phase_algo,
        };
        self.build_bare_scorer(algo)
    }

    /// Whether this detector owns the pipeline of `machine`×`sensor`
    /// (always true for an unsharded detector).
    fn owns(&self, machine: &str, sensor: &str) -> bool {
        match self.shard {
            None => true,
            Some((index, count)) => crate::shard::shard_of(machine, sensor, count) == index,
        }
    }

    /// Applies one lifecycle event in value form — the dispatch used by
    /// the durability WAL replay, the shard broadcast path, the tenant
    /// registry, and the typed [`Driver`] calls.
    ///
    /// * [`ControlEvent::MachineUp`] registers a machine: its sensor
    ///   inventory, redundancy groups (the support computation needs
    ///   them), and environment sensors, whose pipelines open immediately
    ///   and stay open until finish.
    /// * [`ControlEvent::JobStart`] opens a job on a machine whose
    ///   previous job was completed.
    /// * [`ControlEvent::PhaseStart`] opens a phase within the machine's
    ///   open job, finalizing the previous phase's pipelines (their
    ///   watermarks flush and their scorers finish — drain the router
    ///   first so no sample of the old phase is still in flight).
    /// * [`ControlEvent::JobComplete`] completes the machine's open job
    ///   with its CAQ result, finalizing the last phase's pipelines.
    ///
    /// # Errors
    /// A machine id registered twice; a job start on a machine with an
    /// open job; [`DetectError::Missing`] for an unregistered machine or,
    /// for phase start and job complete, a machine without an open job;
    /// scorer construction failures for newly opened pipelines.
    pub fn apply(&mut self, event: &ControlEvent) -> Result<()> {
        match event {
            ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => self.up_machine(machine, sensors, redundancy, env_sensors),
            ControlEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => self.start_job(machine, job, *start, config),
            ControlEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => self.start_phase(machine, *kind, sensors),
            ControlEvent::JobComplete { machine, caq } => self.complete_job(machine, caq),
        }
    }

    fn up_machine(
        &mut self,
        machine: &str,
        sensors: &[Sensor],
        redundancy: &[RedundancyGroup],
        env_sensors: &[String],
    ) -> Result<()> {
        if self.machines.iter().any(|(id, _)| id == machine) {
            return Err(DetectError::invalid(
                "machine",
                format!("machine {machine} already registered"),
            ));
        }
        let mut env = Vec::with_capacity(env_sensors.len());
        for name in env_sensors {
            let pipe = if self.owns(machine, name) {
                let scorer = self.build_scorer(self.policy.environment, LaneKind::Environment)?;
                Some(Pipeline::new(self.config.lateness, scorer))
            } else {
                None
            };
            env.push((name.clone(), pipe));
        }
        self.machines.push((
            machine.to_string(),
            MachineState {
                sensors: sensors.to_vec(),
                redundancy: redundancy.to_vec(),
                jobs: Vec::new(),
                env,
            },
        ));
        Ok(())
    }

    fn start_job(
        &mut self,
        machine: &str,
        job: &str,
        start: u64,
        config: &JobConfig,
    ) -> Result<()> {
        let m = self.machine_mut(machine)?;
        if m.open_job_mut().is_some() {
            return Err(DetectError::invalid(
                "job",
                format!("machine {machine} already has an open job"),
            ));
        }
        m.jobs.push(JobState {
            id: job.to_string(),
            start,
            config: config.clone(),
            phases: Vec::new(),
            caq: None,
        });
        Ok(())
    }

    fn start_phase(&mut self, machine: &str, kind: PhaseKind, sensors: &[String]) -> Result<()> {
        let mut pipes = Vec::with_capacity(sensors.len());
        for name in sensors {
            let pipe = if self.owns(machine, name) {
                let scorer = self.build_scorer(self.phase_algo, LaneKind::Phase)?;
                Some(Pipeline::new(self.config.lateness, scorer))
            } else {
                None
            };
            pipes.push((name.clone(), pipe));
        }
        self.close_last_phase(machine)?
            .phases
            .push(PhaseState { kind, pipes });
        Ok(())
    }

    fn complete_job(&mut self, machine: &str, caq: &CaqResult) -> Result<()> {
        self.close_last_phase(machine)?.caq = Some(caq.clone());
        Ok(())
    }

    /// Finalizes the last phase of `machine`'s open job (its watermarks
    /// flush, its scorers finish) and returns that job.
    fn close_last_phase(&mut self, machine: &str) -> Result<&mut JobState> {
        let Some((_, m)) = self.machines.iter_mut().find(|(id, _)| id == machine) else {
            return Err(DetectError::Missing {
                what: format!("machine {machine}"),
            });
        };
        let Some(job) = m.open_job_mut() else {
            return Err(DetectError::Missing {
                what: format!("open job on machine {machine}"),
            });
        };
        if let Some(last) = job.phases.last_mut() {
            for pipe in last.pipes.iter_mut().filter_map(|(_, p)| p.as_mut()) {
                pipe.finish(&mut self.scratch);
            }
        }
        Ok(job)
    }

    /// Routes one sample into its pipeline: phase lanes go to the current
    /// open phase of the machine's open job, environment lanes to the
    /// machine's continuous environment pipeline.
    ///
    /// # Errors
    /// [`DetectError::Missing`] when no pipeline is open for the lane.
    pub fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.ingest_inner(lane, sample, &mut scratch);
        self.scratch = scratch;
        result
    }

    fn ingest_inner(
        &mut self,
        lane: &LaneId,
        sample: Sample,
        scratch: &mut Vec<(u64, f64)>,
    ) -> Result<()> {
        let Some(m) = self
            .machines
            .iter_mut()
            .find(|(id, _)| *id == lane.machine)
            .map(|(_, m)| m)
        else {
            return Err(DetectError::Missing {
                what: format!("machine {} for lane {}", lane.machine, lane.sensor),
            });
        };
        let pipe = match lane.kind {
            LaneKind::Environment => m
                .env
                .iter_mut()
                .find(|(n, _)| *n == lane.sensor)
                .and_then(|(_, p)| p.as_mut()),
            LaneKind::Phase => m
                .open_job_mut()
                .and_then(|j| j.phases.last_mut())
                .and_then(|p| {
                    p.pipes
                        .iter_mut()
                        .find(|(n, _)| *n == lane.sensor)
                        .and_then(|(_, p)| p.as_mut())
                }),
        };
        let Some(pipe) = pipe else {
            return Err(DetectError::Missing {
                what: format!("open pipeline for lane {}", lane.sensor),
            });
        };
        pipe.offer(sample.timestamp, sample.value, scratch);
        self.samples_ingested += 1;
        Ok(())
    }

    /// Every open-or-closed pipeline with its lane coordinates, in plant
    /// order: each machine's environment pipelines first, then its jobs'
    /// phases in execution order. The durability layer iterates this to
    /// seal rotation chunks and to tag/restore pipelines.
    pub(crate) fn pipelines_mut(&mut self) -> Vec<PipeSlot<'_>> {
        let mut slots = Vec::new();
        for (machine, m) in self.machines.iter_mut() {
            for (name, pipe) in m.env.iter_mut().filter_map(|(n, p)| Some((n, p.as_mut()?))) {
                slots.push(PipeSlot {
                    machine,
                    sensor: name,
                    kind: LaneKind::Environment,
                    pipe,
                });
            }
            for job in m.jobs.iter_mut() {
                for phase in job.phases.iter_mut() {
                    for (name, pipe) in phase
                        .pipes
                        .iter_mut()
                        .filter_map(|(n, p)| Some((n, p.as_mut()?)))
                    {
                        slots.push(PipeSlot {
                            machine,
                            sensor: name,
                            kind: LaneKind::Phase,
                            pipe,
                        });
                    }
                }
            }
        }
        slots
    }

    /// Read-only [`pipelines_mut`](Self::pipelines_mut): every pipeline as
    /// (machine, sensor, lane kind, pipeline), in the same plant order.
    fn pipelines(&self) -> impl Iterator<Item = (&str, &str, LaneKind, &Pipeline)> {
        self.machines.iter().flat_map(|(machine, m)| {
            let env = m.env.iter().filter_map(move |(name, p)| {
                Some((
                    machine.as_str(),
                    name.as_str(),
                    LaneKind::Environment,
                    p.as_ref()?,
                ))
            });
            let phases = m.jobs.iter().flat_map(|j| &j.phases).flat_map(|p| &p.pipes);
            env.chain(phases.filter_map(move |(name, p)| {
                Some((
                    machine.as_str(),
                    name.as_str(),
                    LaneKind::Phase,
                    p.as_ref()?,
                ))
            }))
        })
    }

    /// Credits samples that were ingested before a crash and restored from
    /// sealed segments (their releases and drops are rebuilt by
    /// [`Pipeline::restore_chunk`], but the offer-time counter lives here).
    pub(crate) fn add_recovered_ingested(&mut self, n: u64) {
        self.samples_ingested += n;
    }

    /// Assembles an interim report from everything released so far:
    /// completed jobs are materialized, their phase scores thresholded,
    /// the upper levels re-evaluated, and Algorithm 1's propagation run.
    /// In [`ScorerMode::BatchEquivalent`], a series' scores exist only
    /// once its phase closed; [`ScorerMode::Incremental`] scores appear
    /// per sample.
    ///
    /// # Errors
    /// Propagates upper-level detector failures.
    pub fn tick(&self) -> Result<StreamReport> {
        self.assemble()
    }

    /// Flushes every watermark, finishes every scorer, and assembles the
    /// final report. Environment pipelines and any still-open phases are
    /// finalized here.
    ///
    /// # Errors
    /// Propagates upper-level detector failures.
    pub fn finish(mut self) -> Result<StreamReport> {
        self.finalize_pipelines();
        self.assemble()
    }

    /// Flushes every watermark and finishes every scorer without
    /// assembling. The shard runtime runs this per shard (through the
    /// detect `TaskPool`) before the merged assembly.
    pub(crate) fn finalize_pipelines(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        for slot in self.pipelines_mut() {
            slot.pipe.finish(&mut scratch);
        }
        self.scratch = scratch;
    }

    fn assemble(&self) -> Result<StreamReport> {
        assemble_multi(&[self])
    }

    fn pipeline_for(&self, at: &SeriesAt) -> Option<&Pipeline> {
        let m = self
            .machines
            .iter()
            .find(|(id, _)| *id == at.machine)
            .map(|(_, m)| m)?;
        match (at.job.as_deref(), at.phase) {
            (Some(job), Some(kind)) => m
                .jobs
                .iter()
                .find(|j| j.id == job)?
                .phases
                .iter()
                .find(|p| p.kind == kind)?
                .pipes
                .iter()
                .find(|(n, _)| n == at.series.name())
                .and_then(|(_, p)| p.as_ref()),
            _ => m
                .env
                .iter()
                .find(|(n, _)| n == at.series.name())
                .and_then(|(_, p)| p.as_ref()),
        }
    }

    fn machine_mut(&mut self, machine: &str) -> Result<&mut MachineState> {
        self.machines
            .iter_mut()
            .find(|(id, _)| id == machine)
            .map(|(_, m)| m)
            .ok_or_else(|| DetectError::Missing {
                what: format!("machine {machine}"),
            })
    }

    /// Builds the online scorer for a point algorithm under the configured
    /// mode, applying the scorer wrapper when one is installed.
    fn build_scorer(&self, algo: PointAlgo, kind: LaneKind) -> Result<Box<dyn OnlineScorer>> {
        let scorer = self.build_bare_scorer(algo)?;
        Ok(match &self.scorer_wrapper {
            Some(wrap) => wrap(kind, scorer),
            None => scorer,
        })
    }

    /// Builds the online scorer without the wrapper.
    fn build_bare_scorer(&self, algo: PointAlgo) -> Result<Box<dyn OnlineScorer>> {
        match self.config.mode {
            ScorerMode::BatchEquivalent => Ok(Box::new(WindowedBatch::full_history(
                engine::build(&algo.spec())?,
            ))),
            ScorerMode::Incremental => match algo {
                PointAlgo::Autoregressive { order } => Ok(Box::new(IncrementalAr::new(order, 32)?)),
                PointAlgo::SlidingZ { window } => Ok(Box::new(RollingRobustZ::new(window.max(3))?)),
                PointAlgo::RobustZ | PointAlgo::GlobalZ => Ok(Box::new(RollingRobustZ::new(256)?)),
                PointAlgo::Iqr | PointAlgo::Deviants { .. } => Ok(Box::new(
                    WindowedBatch::hopping(engine::build(&algo.spec())?, 256, 64)?,
                )),
            },
        }
    }
}

/// Forwards to the inherent methods, which stay inherent so callers that
/// drive a bare detector need no trait import (and can tick through a
/// shared reference).
impl Driver for StreamDetector {
    fn apply(&mut self, event: &ControlEvent) -> Result<()> {
        StreamDetector::apply(self, event)
    }

    fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()> {
        StreamDetector::ingest(self, lane, sample)
    }

    fn tick(&mut self) -> Result<StreamReport> {
        StreamDetector::tick(self)
    }

    fn finish(self) -> Result<StreamReport> {
        StreamDetector::finish(self)
    }

    fn stats(&self) -> StreamStats {
        let mut stats = StreamStats {
            samples_ingested: self.samples_ingested,
            ..StreamStats::default()
        };
        for (_, _, _, pipe) in self.pipelines() {
            let lane = pipe.lane_stats();
            stats.samples_released += lane.released;
            stats.late_dropped += lane.late_dropped;
            stats.duplicates_dropped += lane.duplicates_dropped;
            stats.series_failed += u64::from(pipe.failed);
            stats.drift_events += lane.drift_events;
            stats.refits += lane.refits;
        }
        stats
    }

    fn lane_stats(&self) -> BTreeMap<LaneId, LaneStats> {
        let mut out: BTreeMap<LaneId, LaneStats> = BTreeMap::new();
        for (machine, sensor, kind, pipe) in self.pipelines() {
            let id = LaneId {
                machine: machine.to_string(),
                sensor: sensor.to_string(),
                kind,
            };
            *out.entry(id).or_default() += pipe.lane_stats();
        }
        out
    }
}

/// Assembles one merged [`StreamReport`] from a fixed-order slice of
/// shard detectors (a single unsharded detector is the 1-shard case).
///
/// Determinism and equivalence argument: every shard received the same
/// control sequence, so all skeletons are congruent — same machines,
/// jobs, phases, and pipeline slots in the same order — and each slot is
/// `Some` in exactly one shard (the lane's hash owner). The merge
/// therefore walks the first shard's skeleton and fills each slot from
/// its unique owner: no ordering decision depends on thread timing, and
/// the materialized plant, detections, and Algorithm-1 report are
/// byte-identical to the unsharded run, whose pipelines saw the exact
/// same per-lane sample sequences.
///
/// # Errors
/// Invalid when the shard skeletons diverge (control events were not
/// broadcast identically); propagates upper-level detector failures.
pub(crate) fn assemble_multi(shards: &[&StreamDetector]) -> Result<StreamReport> {
    let Some(first) = shards.first() else {
        return Err(DetectError::invalid("shards", "empty shard set"));
    };
    for (i, other) in shards.iter().enumerate().skip(1) {
        if !skeletons_congruent(first, other) {
            return Err(DetectError::invalid(
                "shards",
                format!("shard {i} skeleton diverges from shard 0"),
            ));
        }
    }
    let plant = materialize_multi(shards);
    let policy = &first.policy;
    let mut detections = BTreeMap::new();
    detections.insert(Level::Phase, emit_level_multi(shards, &plant, Level::Phase));
    detections.insert(
        Level::Environment,
        emit_level_multi(shards, &plant, Level::Environment),
    );
    for level in [Level::Job, Level::ProductionLine, Level::Production] {
        detections.insert(level, detect_level(&plant, level, policy)?);
    }
    let report = build_report(&plant, Level::Phase, &detections, policy)?;
    Ok(StreamReport {
        detections,
        report,
        stats: sum_stats(shards.iter().copied()),
        lane_stats: sum_lane_stats(shards.iter().copied()),
    })
}

/// Structural congruence of two shard skeletons: same machines, jobs,
/// phases, and pipeline slot names in the same order. Pipeline contents
/// are deliberately not compared — slots differ by ownership.
fn skeletons_congruent(a: &StreamDetector, b: &StreamDetector) -> bool {
    a.machines.len() == b.machines.len()
        && a.machines
            .iter()
            .zip(&b.machines)
            .all(|((ida, ma), (idb, mb))| {
                ida == idb
                    && ma.env.len() == mb.env.len()
                    && ma
                        .env
                        .iter()
                        .zip(&mb.env)
                        .all(|((na, _), (nb, _))| na == nb)
                    && ma.jobs.len() == mb.jobs.len()
                    && ma.jobs.iter().zip(&mb.jobs).all(|(ja, jb)| {
                        ja.id == jb.id
                            && ja.caq.is_some() == jb.caq.is_some()
                            && ja.phases.len() == jb.phases.len()
                            && ja.phases.iter().zip(&jb.phases).all(|(pa, pb)| {
                                pa.kind == pb.kind
                                    && pa.pipes.len() == pb.pipes.len()
                                    && pa
                                        .pipes
                                        .iter()
                                        .zip(&pb.pipes)
                                        .all(|((na, _), (nb, _))| na == nb)
                            })
                    })
            })
}

/// The pipeline owning phase slot `(machine, job, phase, pipe)` across the
/// shard set — `None` when no shard released anything into it yet.
fn phase_pipe_at<'a>(
    shards: &[&'a StreamDetector],
    mi: usize,
    ji: usize,
    pi: usize,
    ki: usize,
) -> Option<&'a Pipeline> {
    shards.iter().find_map(|d| {
        d.machines
            .get(mi)?
            .1
            .jobs
            .get(ji)?
            .phases
            .get(pi)?
            .pipes
            .get(ki)?
            .1
            .as_ref()
    })
}

/// The pipeline owning environment slot `(machine, pipe)` across the set.
fn env_pipe_at<'a>(shards: &[&'a StreamDetector], mi: usize, ki: usize) -> Option<&'a Pipeline> {
    shards
        .iter()
        .find_map(|d| d.machines.get(mi)?.1.env.get(ki)?.1.as_ref())
}

/// Materializes the released state of a shard set as a [`Plant`], walking
/// the first shard's skeleton and filling every slot from its owner. Only
/// completed jobs (CAQ present) are included — their feature vectors would
/// otherwise change dimension mid-job and poison the line-level series.
fn materialize_multi(shards: &[&StreamDetector]) -> Plant {
    let Some(first) = shards.first() else {
        return Plant::new("streamed-plant", Vec::new());
    };
    let mut lines = Vec::with_capacity(first.machines.len());
    for (mi, (machine_id, m)) in first.machines.iter().enumerate() {
        let mut jobs = Vec::new();
        for (ji, j) in m.jobs.iter().enumerate() {
            let Some(caq) = &j.caq else { continue };
            let mut phases = Vec::with_capacity(j.phases.len());
            for (pi, p) in j.phases.iter().enumerate() {
                let series = p
                    .pipes
                    .iter()
                    .enumerate()
                    .filter_map(|(ki, (name, _))| {
                        phase_pipe_at(shards, mi, ji, pi, ki).and_then(|pipe| pipe.series(name))
                    })
                    .collect();
                phases.push(Phase::new(p.kind, series, Vec::new()));
            }
            jobs.push(Job {
                id: j.id.clone(),
                start: j.start,
                config: j.config.clone(),
                phases,
                caq: caq.clone(),
            });
        }
        let env_series = m
            .env
            .iter()
            .enumerate()
            .filter_map(|(ki, (name, _))| {
                env_pipe_at(shards, mi, ki).and_then(|pipe| pipe.series(name))
            })
            .collect();
        lines.push(ProductionLine {
            machine_id: machine_id.clone(),
            sensors: m.sensors.clone(),
            redundancy: m.redundancy.clone(),
            jobs,
            environment: Environment::new(env_series),
        });
    }
    Plant::new("streamed-plant", lines)
}

/// Builds the phase or environment detections from pipeline scores,
/// iterating the materialized plant's level view so the result order is
/// exactly the batch order. Each series' pipeline lives in exactly one
/// shard; series whose scorer failed or whose scores are not yet complete
/// (open phase in batch-equivalent mode) are skipped — the batch path
/// skips unscorable series the same way.
fn emit_level_multi(shards: &[&StreamDetector], plant: &Plant, level: Level) -> LevelDetections {
    let view = LevelView::extract(plant, level);
    let mut det = LevelDetections::empty(level);
    let Some(threshold) = shards.first().map(|d| d.policy.threshold(level)) else {
        return det;
    };
    for at in &view.series {
        let Some(pipe) = shards.iter().find_map(|d| d.pipeline_for(at)) else {
            continue;
        };
        if pipe.failed || pipe.scored.len() != at.series.len() {
            continue;
        }
        let raw: Vec<f64> = pipe.scored.iter().map(|p| p.score).collect();
        emit_series(plant, level, threshold, at, &raw, false, &mut det);
    }
    det
}

#[cfg(test)]
mod tests {
    use super::*;
    use hierod_hierarchy::SensorKind;

    fn detector(mode: ScorerMode) -> StreamDetector {
        StreamDetector::new(
            AlgorithmPolicy::default(),
            StreamConfig { lateness: 0, mode },
        )
        .expect("default policy is streamable")
    }

    fn bring_up(det: &mut StreamDetector) {
        let sensors = vec![Sensor::new("m0.bed.0", SensorKind::BedTemperature)];
        let groups = vec![RedundancyGroup::new(
            SensorKind::BedTemperature,
            vec!["m0.bed.0".into()],
        )];
        det.machine_up("m0", sensors, groups, &["m0.room_temp".into()])
            .expect("machine_up");
    }

    #[test]
    fn rejects_profile_mode() {
        let policy = AlgorithmPolicy {
            phase: PhaseChoice::ProfileAcrossJobs,
            ..AlgorithmPolicy::default()
        };
        assert!(StreamDetector::new(policy, StreamConfig::default()).is_err());
    }

    #[test]
    fn lifecycle_is_enforced() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        // No machine yet.
        assert!(det
            .job_start("m0", "j0", 0, JobConfig::new(vec![], vec![]))
            .is_err());
        bring_up(&mut det);
        // Phase before job.
        assert!(det
            .phase_start("m0", PhaseKind::WarmUp, &["m0.bed.0".into()])
            .is_err());
        det.job_start("m0", "j0", 0, JobConfig::new(vec![], vec![]))
            .expect("job_start");
        // Double job open.
        assert!(det
            .job_start("m0", "j1", 1, JobConfig::new(vec![], vec![]))
            .is_err());
        // Duplicate machine.
        assert!(det.machine_up("m0", vec![], vec![], &[]).is_err());
    }

    #[test]
    fn ingest_requires_an_open_pipeline() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        let phase_lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        let sample = Sample {
            timestamp: 0,
            value: 1.0,
        };
        // Phase sample with no open phase.
        assert!(det.ingest(&phase_lane, sample).is_err());
        // Environment lanes are open from machine_up.
        let env_lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.room_temp".into(),
            kind: LaneKind::Environment,
        };
        det.ingest(&env_lane, sample).expect("env ingest");
        assert_eq!(det.stats().samples_ingested, 1);
    }

    #[test]
    fn end_to_end_single_job_produces_a_report() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        det.job_start("m0", "j0", 0, JobConfig::new(vec!["p".into()], vec![1.0]))
            .expect("job_start");
        det.phase_start("m0", PhaseKind::WarmUp, &["m0.bed.0".into()])
            .expect("phase_start");
        let lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        for t in 0..64_u64 {
            let v = if t == 40 {
                90.0
            } else {
                (t as f64 * 0.4).sin()
            };
            det.ingest(
                &lane,
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .expect("ingest");
        }
        det.job_complete("m0", CaqResult::new(vec!["q".into()], vec![0.98], true))
            .expect("job_complete");
        let report = det.finish().expect("finish");
        assert_eq!(report.stats.samples_ingested, 64);
        assert_eq!(report.stats.samples_released, 64);
        let phase = report
            .detections
            .get(&Level::Phase)
            .expect("phase detections");
        assert!(
            phase.outliers.iter().any(|o| o.index == Some(40)),
            "the spike must be detected: {:?}",
            phase.outliers
        );
        for o in &report.report.outliers {
            assert!((1..=5).contains(&o.global_score));
        }
    }

    #[test]
    fn incremental_mode_scores_before_finish() {
        let mut det = detector(ScorerMode::Incremental);
        bring_up(&mut det);
        det.job_start("m0", "j0", 0, JobConfig::new(vec!["p".into()], vec![1.0]))
            .expect("job_start");
        det.phase_start("m0", PhaseKind::WarmUp, &["m0.bed.0".into()])
            .expect("phase_start");
        let lane = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        // A noiseless sinusoid is degenerate for AR fitting (zero
        // innovation variance), so jitter it with deterministic noise.
        let mut state = 0x9e37_79b9_u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        for t in 0..200_u64 {
            let v = if t == 150 {
                60.0
            } else {
                (t as f64 * 0.3).sin() + 0.2 * noise()
            };
            det.ingest(
                &lane,
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .expect("ingest");
        }
        det.job_complete("m0", CaqResult::new(vec!["q".into()], vec![0.98], true))
            .expect("job_complete");
        // tick() after job completion sees per-sample scores without any
        // finish() — incremental scorers emit as samples arrive.
        let report = det.tick().expect("tick");
        let phase = report
            .detections
            .get(&Level::Phase)
            .expect("phase detections");
        assert!(
            phase.outliers.iter().any(|o| o.index == Some(150)),
            "incremental scorers must flag the spike: {:?}",
            phase.outliers
        );
    }

    #[test]
    fn reports_carry_per_lane_drop_counters() {
        let mut det = StreamDetector::new(
            AlgorithmPolicy::default(),
            StreamConfig {
                lateness: 1,
                mode: ScorerMode::BatchEquivalent,
            },
        )
        .expect("streamable policy");
        bring_up(&mut det);
        det.job_start("m0", "j0", 0, JobConfig::new(vec!["p".into()], vec![1.0]))
            .expect("job_start");
        det.phase_start("m0", PhaseKind::WarmUp, &["m0.bed.0".into()])
            .expect("phase_start");
        let bed = LaneId {
            machine: "m0".into(),
            sensor: "m0.bed.0".into(),
            kind: LaneKind::Phase,
        };
        let room = LaneId {
            machine: "m0".into(),
            sensor: "m0.room_temp".into(),
            kind: LaneKind::Environment,
        };
        let push = |det: &mut StreamDetector, lane: &LaneId, ts: u64| {
            det.ingest(
                lane,
                Sample {
                    timestamp: ts,
                    value: ts as f64,
                },
            )
            .expect("ingest");
        };
        // Bed lane: a duplicate and a late sample. Room lane: clean.
        for ts in [0_u64, 1, 2, 2, 10, 3] {
            push(&mut det, &bed, ts);
        }
        for ts in 0..4_u64 {
            push(&mut det, &room, ts);
        }
        det.job_complete("m0", CaqResult::new(vec!["q".into()], vec![0.98], true))
            .expect("job_complete");
        let report = det.finish().expect("finish");
        let bed_stats = report.lane_stats.get(&bed).expect("bed lane tracked");
        assert_eq!(bed_stats.duplicates_dropped, 1);
        assert_eq!(bed_stats.late_dropped, 1);
        assert_eq!(bed_stats.released, 4);
        let room_stats = report.lane_stats.get(&room).expect("room lane tracked");
        assert_eq!(room_stats.late_dropped, 0);
        assert_eq!(room_stats.duplicates_dropped, 0);
        assert_eq!(room_stats.released, 4);
        // The aggregate view is the sum of the per-lane views.
        let agg: u64 = report.lane_stats.values().map(|l| l.released).sum();
        assert_eq!(agg, report.stats.samples_released);
    }

    #[test]
    fn tick_before_any_completed_job_is_empty_but_valid() {
        let mut det = detector(ScorerMode::BatchEquivalent);
        bring_up(&mut det);
        let report = det.tick().expect("tick");
        assert!(report.report.is_empty());
        assert_eq!(report.stats.samples_ingested, 0);
    }
}
