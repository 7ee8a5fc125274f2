//! [`AdaptiveStream::attach`] wraps every pipeline opened after the
//! attach, whatever the stream's [`ScorerMode`]: whether a scorer wrapper
//! is installed is the only switch. A stream opened with the default
//! (batch-equivalent) config must keep drift monitoring across phase and
//! job boundaries.

use hierod_adapt::{AdaptiveStream, DriftingScorer, MonitorSpec, RefitPolicy};
use hierod_core::AlgorithmPolicy;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_store::store::StoreOptions;
use hierod_store::MemStorage;
use hierod_stream::{Driver, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig};

#[test]
fn attach_wraps_pipelines_opened_later_on_a_batch_equivalent_stream() {
    let config = StreamConfig::default();
    assert_eq!(config.mode, ScorerMode::BatchEquivalent);
    let (mut plain, _) = DurableStream::open(
        AlgorithmPolicy::default(),
        config,
        MemStorage::new(),
        StoreOptions::default(),
    )
    .expect("open");
    let bed = "m0.bed.0".to_string();
    plain
        .machine_up(
            "m0",
            vec![Sensor::new(&bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.clone()],
            )],
            &["m0.room".to_string()],
        )
        .expect("machine up");

    let mut adaptive =
        AdaptiveStream::attach(plain, MonitorSpec::page_hinkley(), RefitPolicy::default());
    // A new job after the attach: its phase pipelines are opened by the
    // detector, not re-wrapped by the attach itself.
    adaptive
        .job_start("m0", "j0", 0, JobConfig::new(vec!["p".into()], vec![1.0]))
        .expect("job start");
    for kind in [PhaseKind::WarmUp, PhaseKind::Printing] {
        adaptive
            .phase_start("m0", kind, std::slice::from_ref(&bed))
            .expect("phase start");
        let lane = LaneId {
            machine: "m0".into(),
            sensor: bed.clone(),
            kind: LaneKind::Phase,
        };
        for t in 0..16_u64 {
            adaptive
                .ingest(
                    &lane,
                    Sample {
                        timestamp: t,
                        value: (t as f64 * 0.3).sin(),
                    },
                )
                .expect("ingest");
        }
    }

    let mut durable = adaptive.into_inner();
    let mut seen = Vec::new();
    durable
        .detector_mut()
        .visit_scorers(&mut |machine, sensor, kind, scorer| {
            let wrapped = scorer
                .as_any_mut()
                .is_some_and(|any| any.is::<DriftingScorer>());
            assert!(wrapped, "{machine}/{sensor} ({kind:?}) is not monitored");
            seen.push(kind);
        });
    assert!(
        seen.contains(&LaneKind::Phase),
        "the open phase pipeline was visited: {seen:?}"
    );
    assert!(seen.contains(&LaneKind::Environment));
    durable
        .job_complete("m0", CaqResult::new(vec!["q".into()], vec![0.9], true))
        .expect("job complete");
}
