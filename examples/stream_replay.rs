//! Streaming ingestion end to end: replay a synthetic plant as a live
//! event stream through per-sensor ring lanes into a [`StreamDetector`],
//! and print the same ⟨global score, outlierness, support⟩ triples the
//! batch pipeline would produce. A second leg replays the same scenario
//! through a [`DurableStream`], kills the process mid-stream with an
//! injected write budget, recovers from the crash image, resumes from
//! the store's cursors, and shows the recovered report is identical.
//!
//! ```sh
//! cargo run --release --example stream_replay
//! ```
//!
//! [`StreamDetector`]: hierod::stream::StreamDetector
//! [`DurableStream`]: hierod::stream::DurableStream

use std::collections::{BTreeMap, HashMap};

use hierod::core::{AlgorithmPolicy, FusionRule};
use hierod::store::{MemStorage, StoreOptions};
use hierod::stream::{
    Driver, DurableStream, IngestRouter, LaneId, LaneKind, Producer, Sample, ScorerMode,
    StreamConfig, StreamDetector, StreamReport,
};
use hierod::synth::{ReplayEvent, Scenario, ScenarioBuilder};

const LANE_CAPACITY: usize = 1024;

fn main() {
    // A small plant whose jobs carry injected anomalies, then flattened
    // into a time-ordered event stream (control events + samples).
    let scenario = ScenarioBuilder::new(42)
        .machines(2)
        .jobs_per_machine(3)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(0.8)
        .build();
    let events = scenario.replay();
    println!(
        "replaying plant `{}` as {} stream events\n",
        scenario.plant.name,
        events.len()
    );

    let config = StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    };
    let mut detector =
        StreamDetector::new(AlgorithmPolicy::default(), config).expect("stream detector");
    let mut router = IngestRouter::new();
    let mut lanes: HashMap<LaneId, Producer<Sample>> = HashMap::new();
    let lane =
        |router: &mut IngestRouter, lanes: &mut HashMap<LaneId, Producer<Sample>>, id: LaneId| {
            if !lanes.contains_key(&id) {
                let producer = router.add_lane(id.clone(), LANE_CAPACITY);
                lanes.insert(id.clone(), producer);
            }
        };

    // Drive the detector exactly as a live collector would: control
    // events open machines/jobs/phases, samples flow through ring lanes,
    // and the router is drained before each control event so lane
    // contents always belong to the still-open phase.
    for event in events {
        match event {
            ReplayEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => {
                detector
                    .machine_up(&machine, sensors, redundancy, &env_sensors)
                    .expect("machine_up");
                for sensor in env_sensors {
                    let id = LaneId {
                        machine: machine.clone(),
                        sensor,
                        kind: LaneKind::Environment,
                    };
                    lane(&mut router, &mut lanes, id);
                }
            }
            ReplayEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => {
                detector.drain(&mut router).expect("drain");
                detector
                    .job_start(&machine, &job, start, config)
                    .expect("job_start");
            }
            ReplayEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => {
                detector.drain(&mut router).expect("drain");
                for sensor in &sensors {
                    let id = LaneId {
                        machine: machine.clone(),
                        sensor: sensor.clone(),
                        kind: LaneKind::Phase,
                    };
                    lane(&mut router, &mut lanes, id);
                }
                detector
                    .phase_start(&machine, kind, &sensors)
                    .expect("phase_start");
            }
            ReplayEvent::PhaseSample {
                machine,
                sensor,
                timestamp,
                value,
            } => {
                let id = LaneId {
                    machine,
                    sensor,
                    kind: LaneKind::Phase,
                };
                lanes
                    .get_mut(&id)
                    .expect("phase lane")
                    .push(Sample { timestamp, value })
                    .expect("lane open");
            }
            ReplayEvent::EnvSample {
                machine,
                sensor,
                timestamp,
                value,
            } => {
                let id = LaneId {
                    machine,
                    sensor,
                    kind: LaneKind::Environment,
                };
                lanes
                    .get_mut(&id)
                    .expect("env lane")
                    .push(Sample { timestamp, value })
                    .expect("lane open");
            }
            ReplayEvent::JobComplete { machine, caq, .. } => {
                detector.drain(&mut router).expect("drain");
                detector.job_complete(&machine, caq).expect("job_complete");
            }
        }
    }
    detector.drain(&mut router).expect("final drain");
    let out = detector.finish().expect("finish");

    println!(
        "ingested {} samples ({} released, {} late, {} duplicate)\n",
        out.stats.samples_ingested,
        out.stats.samples_released,
        out.stats.late_dropped,
        out.stats.duplicates_dropped
    );
    let fusion = FusionRule::default_weighted();
    println!("top streaming outliers by fused triple score:");
    for outlier in out
        .report
        .ranked_by(|o| fusion.score(o))
        .into_iter()
        .take(8)
    {
        println!("  {}", outlier.summary());
    }
    println!(
        "\n{} outliers total, {} suspected measurement errors — identical \
         to the batch pipeline on the finished plant (pinned by \
         crates/stream/tests/stream_batch_equivalence.rs)",
        out.report.len(),
        out.report.warnings.len()
    );

    durable_leg(&scenario, &out);
}

/// Replays `events` into a durable detector, skipping the prefix the
/// store already holds (the resume contract after a crash). Returns
/// `false` if the injected crash fired mid-replay.
fn run_durable(
    d: &mut DurableStream<MemStorage>,
    events: &[ReplayEvent],
    skip_controls: u64,
    delivered: &BTreeMap<LaneId, u64>,
) -> bool {
    let mut control_no = 0_u64;
    let mut lane_counts: BTreeMap<LaneId, u64> = BTreeMap::new();
    for event in events {
        let result = match event {
            ReplayEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => {
                control_no += 1;
                if control_no <= skip_controls {
                    continue;
                }
                d.machine_up(machine, sensors.clone(), redundancy.clone(), env_sensors)
            }
            ReplayEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => {
                control_no += 1;
                if control_no <= skip_controls {
                    continue;
                }
                d.job_start(machine, job, *start, config.clone())
            }
            ReplayEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => {
                control_no += 1;
                if control_no <= skip_controls {
                    continue;
                }
                d.phase_start(machine, *kind, sensors)
            }
            ReplayEvent::JobComplete { machine, caq, .. } => {
                control_no += 1;
                if control_no <= skip_controls {
                    continue;
                }
                // Seal released history into a columnar segment per job.
                d.job_complete(machine, caq.clone())
                    .and_then(|()| d.rotate())
            }
            ReplayEvent::PhaseSample {
                machine,
                sensor,
                timestamp,
                value,
            }
            | ReplayEvent::EnvSample {
                machine,
                sensor,
                timestamp,
                value,
            } => {
                let kind = match event {
                    ReplayEvent::PhaseSample { .. } => LaneKind::Phase,
                    _ => LaneKind::Environment,
                };
                let id = LaneId {
                    machine: machine.clone(),
                    sensor: sensor.clone(),
                    kind,
                };
                let count = lane_counts.entry(id.clone()).or_insert(0);
                *count += 1;
                if *count <= delivered.get(&id).copied().unwrap_or(0) {
                    continue;
                }
                d.ingest(
                    &id,
                    Sample {
                        timestamp: *timestamp,
                        value: *value,
                    },
                )
            }
        };
        if result.is_err() {
            assert!(
                d.store().storage().killed(),
                "only the injected crash may fail the replay"
            );
            return false;
        }
    }
    true
}

/// Persist → kill → recover → resume, then check the recovered report
/// against the in-memory run.
fn durable_leg(scenario: &Scenario, baseline: &StreamReport) {
    println!("\n--- durable leg: persist, kill mid-stream, recover, resume ---\n");
    let events = scenario.replay();
    let config = StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    };
    let options = StoreOptions { group_commit: 32 };

    // Dry run to learn the scenario's total write volume, so the crash
    // can land deterministically a bit past the halfway point.
    let probe = MemStorage::new();
    let (mut d, _) =
        DurableStream::open(AlgorithmPolicy::default(), config, probe.clone(), options)
            .expect("open probe");
    assert!(run_durable(&mut d, &events, 0, &BTreeMap::new()));
    drop(d);
    let budget = probe.bytes_written() * 55 / 100;

    let storage = MemStorage::new();
    storage.set_write_budget(Some(budget));
    let (mut d, _) =
        DurableStream::open(AlgorithmPolicy::default(), config, storage.clone(), options)
            .expect("open durable");
    let crashed = !run_durable(&mut d, &events, 0, &BTreeMap::new());
    drop(d);
    println!(
        "killed the writer after {budget} bytes (crashed mid-stream: {crashed}); \
         taking a crash image without the page cache"
    );

    // Everything unsynced is lost — only fsynced bytes survive.
    let image = storage.crash_image(false);
    let (mut d, recovery) = DurableStream::open(AlgorithmPolicy::default(), config, image, options)
        .expect("recovery always succeeds");
    println!(
        "recovered: {} segments, {} samples restored from segments, {} replayed \
         from the WAL tail, {} control events applied",
        recovery.store.segments_loaded,
        recovery.restored_samples,
        recovery.replayed_samples,
        recovery.controls_applied
    );

    let skip = d.controls_applied();
    let delivered = d.delivered().clone();
    assert!(
        run_durable(&mut d, &events, skip, &delivered),
        "resume runs on healthy storage"
    );
    let recovered = d.finish().expect("finish after recovery");

    assert_eq!(
        recovered.stats, baseline.stats,
        "stats must survive the crash"
    );
    assert_eq!(
        format!("{:?}", recovered.report),
        format!("{:?}", baseline.report),
        "Algorithm-1 report must survive the crash"
    );
    println!(
        "\nresumed and finished: {} samples ingested, {} outliers — the report \
         is identical to the never-crashed run (write-crash-recover ≡ no-crash, \
         pinned by crates/stream/tests/store_recovery.rs)",
        recovered.stats.samples_ingested,
        recovered.report.len()
    );
}
