//! [`Driver`]: the one plant-driving surface of the in-process drivers.
//!
//! Algorithm 1 consumes one event stream over the production hierarchy:
//! machine up, job start, phase start, samples, job complete. Every
//! in-process driver ([`StreamDetector`](crate::StreamDetector),
//! [`DurableStream`](crate::DurableStream), [`ShardSet`](crate::ShardSet),
//! [`Tenant`](crate::Tenant), `hierod-adapt`'s `AdaptiveStream`)
//! implements the value-form entry points, report assembly and live
//! counters; the typed lifecycle calls and router draining are provided
//! methods lowering onto them. Dispatch is static (generics, never
//! `dyn Driver`).

use std::collections::BTreeMap;

use hierod_detect::{DetectError, Result};
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor};

use crate::detector::{ControlEvent, LaneStats, StreamReport, StreamStats};
use crate::router::{IngestRouter, LaneId, Sample};
use crate::shard::shard_of;

/// An in-process plant driver: consumes lifecycle controls and samples,
/// assembles ⟨global score, outlierness, support⟩ reports on demand.
///
/// Controls apply to samples ingested *after* the call, so callers drain
/// their routers at phase boundaries.
pub trait Driver {
    /// Applies one lifecycle event in value form.
    ///
    /// # Errors
    /// Lifecycle violations (unknown machine, double-open job, …) and,
    /// for durable drivers, storage failures.
    fn apply(&mut self, event: &ControlEvent) -> Result<()>;

    /// Routes one sample into its lane's open pipeline.
    ///
    /// # Errors
    /// [`DetectError::Missing`] when no pipeline is open for the lane;
    /// storage failures for durable drivers.
    fn ingest(&mut self, lane: &LaneId, sample: Sample) -> Result<()>;

    /// Assembles an interim report from everything released so far.
    ///
    /// # Errors
    /// Upper-level detector failures; storage failures for durable
    /// drivers.
    fn tick(&mut self) -> Result<StreamReport>;

    /// Flushes every watermark, finishes every scorer, and assembles the
    /// final report.
    ///
    /// # Errors
    /// As [`Driver::tick`].
    fn finish(self) -> Result<StreamReport>;

    /// Current ingestion counters — the totals a [`Driver::tick`] report
    /// would carry, without assembling one.
    fn stats(&self) -> StreamStats;

    /// Per-lane counters — the `lane_stats` a [`Driver::tick`] report
    /// would carry, without assembling one.
    fn lane_stats(&self) -> BTreeMap<LaneId, LaneStats>;

    /// Registers a machine: its sensor inventory, redundancy groups (the
    /// support computation needs them), and environment sensors, whose
    /// pipelines open immediately and stay open until finish.
    ///
    /// # Errors
    /// As [`Driver::apply`]; a machine id registered twice is rejected.
    fn machine_up(
        &mut self,
        machine: &str,
        sensors: Vec<Sensor>,
        redundancy: Vec<RedundancyGroup>,
        env_sensors: &[String],
    ) -> Result<()> {
        self.apply(&ControlEvent::MachineUp {
            machine: machine.to_string(),
            sensors,
            redundancy,
            env_sensors: env_sensors.to_vec(),
        })
    }

    /// Opens a job on a machine. The previous job must have been
    /// completed.
    ///
    /// # Errors
    /// As [`Driver::apply`].
    fn job_start(&mut self, machine: &str, job: &str, start: u64, config: JobConfig) -> Result<()> {
        self.apply(&ControlEvent::JobStart {
            machine: machine.to_string(),
            job: job.to_string(),
            start,
            config,
        })
    }

    /// Opens a phase within the machine's open job, finalizing the
    /// previous phase's pipelines.
    ///
    /// # Errors
    /// As [`Driver::apply`].
    fn phase_start(&mut self, machine: &str, kind: PhaseKind, sensors: &[String]) -> Result<()> {
        self.apply(&ControlEvent::PhaseStart {
            machine: machine.to_string(),
            kind,
            sensors: sensors.to_vec(),
        })
    }

    /// Completes the machine's open job with its CAQ result, finalizing
    /// the last phase's pipelines.
    ///
    /// # Errors
    /// As [`Driver::apply`].
    fn job_complete(&mut self, machine: &str, caq: CaqResult) -> Result<()> {
        self.apply(&ControlEvent::JobComplete {
            machine: machine.to_string(),
            caq,
        })
    }

    /// Drains every lane of the router into the driver, returning how
    /// many samples were routed.
    ///
    /// # Errors
    /// The first ingest error (remaining samples of that drain pass are
    /// still consumed from the rings, so producers are never wedged).
    fn drain(&mut self, router: &mut IngestRouter) -> Result<usize> {
        let mut first_err = None;
        let n = router.drain(|lane, sample| {
            if let Err(e) = self.ingest(lane, sample) {
                first_err.get_or_insert(e);
            }
        });
        first_err.map_or(Ok(n), Err)
    }
}

/// Collapses per-shard results into the first error, after every result
/// has been produced — shard sets keep driving later shards past an
/// earlier failure so their skeletons never diverge.
pub(crate) fn first_error(results: impl Iterator<Item = Result<()>>) -> Result<()> {
    let mut first_err = None;
    for result in results {
        if let Err(e) = result {
            first_err.get_or_insert(e);
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Applies a control to every shard, in shard order.
///
/// # Errors
/// The first shard's error; later shards still receive the event.
pub(crate) fn broadcast<D: Driver>(shards: &mut [D], event: &ControlEvent) -> Result<()> {
    first_error(shards.iter_mut().map(|shard| shard.apply(event)))
}

/// Ingests a sample on the shard owning its lane ([`shard_of`]).
///
/// # Errors
/// The owning shard's ingest error; [`DetectError::Missing`] for an
/// empty shard set.
pub(crate) fn route<D: Driver>(shards: &mut [D], lane: &LaneId, sample: Sample) -> Result<()> {
    let count = shards.len();
    match shards.get_mut(shard_of(&lane.machine, &lane.sensor, count)) {
        Some(shard) => shard.ingest(lane, sample),
        None => Err(DetectError::Missing {
            what: format!("owning shard of lane {} among {count}", lane.sensor),
        }),
    }
}

/// Counters merged across shards, each lane counted on its one owner.
pub(crate) fn sum_stats<'a, D: Driver + 'a>(
    shards: impl IntoIterator<Item = &'a D>,
) -> StreamStats {
    let mut out = StreamStats::default();
    for shard in shards {
        out += shard.stats();
    }
    out
}

/// Per-lane counters merged across shards (a disjoint union: each lane
/// lives on exactly one shard).
pub(crate) fn sum_lane_stats<'a, D: Driver + 'a>(
    shards: impl IntoIterator<Item = &'a D>,
) -> BTreeMap<LaneId, LaneStats> {
    let mut out: BTreeMap<LaneId, LaneStats> = BTreeMap::new();
    for shard in shards {
        for (lane, stats) in shard.lane_stats() {
            *out.entry(lane).or_default() += stats;
        }
    }
    out
}
