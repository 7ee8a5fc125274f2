//! Pins the sharding tentpole guarantee: a single plant streamed
//! through N shards — whether driven inline ([`ShardSet`]) or across
//! real worker threads ([`ShardedStream`]) — produces a
//! [`StreamReport`] **byte-identical** (same `Debug` rendering, which
//! covers every score bit) to the unsharded [`StreamDetector`] run in
//! `BatchEquivalent` mode.
//!
//! The argument, verified here end-to-end: controls are broadcast, so
//! every shard holds a congruent skeleton; each machine×sensor lane is
//! owned by exactly one shard, so its sample sequence and scorer state
//! are exactly those of the unsharded run; the merge walks the
//! skeleton in fixed order filling each slot from its owner.

use std::collections::HashMap;

use hierod_core::AlgorithmPolicy;
use hierod_stream::{
    ControlEvent, Driver, LaneId, LaneKind, Sample, ScorerMode, ShardSet, ShardedStream,
    StreamConfig, StreamDetector, StreamReport,
};
use hierod_synth::{ReplayEvent, Scenario, ScenarioBuilder};

fn scenario() -> Scenario {
    ScenarioBuilder::new(42)
        .machines(3)
        .jobs_per_machine(3)
        .redundancy(2)
        .phase_samples(40)
        .anomaly_rate(0.8)
        .environment_anomalies(0.5, 6.0)
        .build()
}

fn config() -> StreamConfig {
    StreamConfig {
        lateness: 0,
        mode: ScorerMode::BatchEquivalent,
    }
}

/// The replay, lowered to (control | sample) steps in stream order.
enum Step {
    Control(ControlEvent),
    Sample(LaneId, Sample),
}

fn steps(scenario: &Scenario) -> Vec<Step> {
    scenario
        .replay()
        .into_iter()
        .map(|event| match event {
            ReplayEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            } => Step::Control(ControlEvent::MachineUp {
                machine,
                sensors,
                redundancy,
                env_sensors,
            }),
            ReplayEvent::JobStart {
                machine,
                job,
                start,
                config,
            } => Step::Control(ControlEvent::JobStart {
                machine,
                job,
                start,
                config,
            }),
            ReplayEvent::PhaseStart {
                machine,
                kind,
                sensors,
            } => Step::Control(ControlEvent::PhaseStart {
                machine,
                kind,
                sensors,
            }),
            ReplayEvent::PhaseSample {
                machine,
                sensor,
                timestamp,
                value,
            } => Step::Sample(
                LaneId {
                    machine,
                    sensor,
                    kind: LaneKind::Phase,
                },
                Sample { timestamp, value },
            ),
            ReplayEvent::EnvSample {
                machine,
                sensor,
                timestamp,
                value,
            } => Step::Sample(
                LaneId {
                    machine,
                    sensor,
                    kind: LaneKind::Environment,
                },
                Sample { timestamp, value },
            ),
            ReplayEvent::JobComplete { machine, caq, .. } => {
                Step::Control(ControlEvent::JobComplete { machine, caq })
            }
        })
        .collect()
}

fn run_unsharded(scenario: &Scenario) -> StreamReport {
    let mut det = StreamDetector::new(AlgorithmPolicy::default(), config()).expect("detector");
    for step in steps(scenario) {
        match step {
            Step::Control(event) => det.apply(&event).expect("control"),
            Step::Sample(lane, sample) => det.ingest(&lane, sample).expect("ingest"),
        }
    }
    det.finish().expect("finish")
}

fn run_shard_set(scenario: &Scenario, shards: usize) -> StreamReport {
    let mut set = ShardSet::new(&AlgorithmPolicy::default(), config(), shards).expect("shard set");
    for step in steps(scenario) {
        match step {
            Step::Control(event) => set.apply(&event).expect("control"),
            Step::Sample(lane, sample) => set.ingest(&lane, sample).expect("ingest"),
        }
    }
    set.finish().expect("finish")
}

fn run_sharded_stream(scenario: &Scenario, shards: usize) -> StreamReport {
    let mut stream = ShardedStream::spawn(&AlgorithmPolicy::default(), config(), shards, 64)
        .expect("sharded stream");
    let mut lanes: HashMap<LaneId, u32> = HashMap::new();
    for step in steps(scenario) {
        match step {
            Step::Control(event) => stream.control(&event).expect("control"),
            Step::Sample(lane, sample) => {
                let n = match lanes.get(&lane) {
                    Some(&n) => n,
                    None => {
                        let n = stream.lane(lane.clone()).expect("lane");
                        lanes.insert(lane, n);
                        n
                    }
                };
                stream.send(n, sample).expect("send");
            }
        }
    }
    stream.finish().expect("finish")
}

#[test]
fn sharded_report_is_byte_identical_to_unsharded() {
    let scenario = scenario();
    let baseline = run_unsharded(&scenario);
    assert!(
        baseline.stats.samples_ingested > 0,
        "scenario produced no samples"
    );
    assert!(
        !baseline.report.outliers.is_empty(),
        "scenario produced no outliers — the comparison would be weak"
    );
    let want = format!("{baseline:?}");
    for shards in [1, 2, 4] {
        let got = format!("{:?}", run_shard_set(&scenario, shards));
        assert_eq!(got, want, "ShardSet({shards}) diverged from unsharded");
    }
}

#[test]
fn worker_thread_sharding_is_byte_identical_to_unsharded() {
    let scenario = scenario();
    let want = format!("{:?}", run_unsharded(&scenario));
    let got = format!("{:?}", run_sharded_stream(&scenario, 4));
    assert_eq!(got, want, "ShardedStream(4) diverged from unsharded");
}

#[test]
fn shard_counts_agree_with_each_other_across_modes() {
    let scenario = scenario();
    let a = format!("{:?}", run_shard_set(&scenario, 3));
    let b = format!("{:?}", run_sharded_stream(&scenario, 3));
    assert_eq!(a, b, "inline and threaded sharding diverged");
}
