//! The history tier's equivalence suite.
//!
//! * **Scan ≡ replay** — a range scan over compacted, Gorilla-compressed
//!   history files returns bit-identical samples to a forward replay of
//!   the uncompacted rotation segments.
//! * **Crash equivalence** — compaction is interrupted at every 97th
//!   written byte (× page cache kept/lost); recovery plus a re-run always
//!   converges to the same scan results and the same detector report.
//!   Rotation is interrupted at every written byte; snapshots of the
//!   crashed directory, before and after recovery, scan exactly the
//!   segments sealed before or after the rotation.
//! * **Backfill** — replaying the stored record through a fresh
//!   detector with the original policy reproduces the original report
//!   byte-for-byte, before and after compaction; replaying under a
//!   different phase algorithm diffs cleanly.

use std::collections::BTreeMap;

use hierod_core::AlgorithmPolicy;
use hierod_detect::engine::AlgoSpec;
use hierod_hierarchy::{CaqResult, JobConfig, PhaseKind, RedundancyGroup, Sensor, SensorKind};
use hierod_history::backfill::{backfill, diff_reports};
use hierod_history::compact::{compact, parse_level, CompactionOptions};
use hierod_history::reader::{snapshot, HistoryReader, RangeQuery};
use hierod_store::store::{parse_hist_name, read_floor, StoreOptions};
use hierod_store::{segment, MemStorage, Storage};
use hierod_stream::codec::decode_lane;
use hierod_stream::{
    Driver, DurableStream, LaneId, LaneKind, Sample, ScorerMode, StreamConfig, StreamReport,
};

fn lane(machine: &str, sensor: &str, kind: LaneKind) -> LaneId {
    LaneId {
        machine: machine.into(),
        sensor: sensor.into(),
        kind,
    }
}

fn policy_and_config() -> (AlgorithmPolicy, StreamConfig) {
    (
        AlgorithmPolicy::default(),
        StreamConfig {
            lateness: 3,
            mode: ScorerMode::BatchEquivalent,
        },
    )
}

fn open(storage: MemStorage) -> DurableStream<MemStorage> {
    let (policy, config) = policy_and_config();
    // group_commit = 1: every journalled byte is synced, so the suite's
    // compaction crashes are the only source of lost bytes.
    let (d, _) = DurableStream::open(policy, config, storage, StoreOptions { group_commit: 1 })
        .expect("open");
    d
}

/// Drives a two-machine, three-job scenario with out-of-order samples,
/// a duplicate, a late straggler, and rotations after every job.
fn run_scenario(d: &mut DurableStream<MemStorage>) {
    for m in ["m0", "m1"] {
        let bed = format!("{m}.bed.0");
        let room = format!("{m}.room");
        d.machine_up(
            m,
            vec![Sensor::new(&bed, SensorKind::BedTemperature)],
            vec![RedundancyGroup::new(
                SensorKind::BedTemperature,
                vec![bed.clone()],
            )],
            &[room],
        )
        .expect("machine up");
    }
    let jobs: [(&str, &str, u64); 3] = [("m0", "j0", 0), ("m1", "j0", 5), ("m0", "j1", 500)];
    for (slot, (m, j, start)) in jobs.iter().enumerate() {
        let bed = format!("{m}.bed.0");
        let room = format!("{m}.room");
        d.job_start(
            m,
            j,
            *start,
            JobConfig::new(vec!["speed".into()], vec![1.0 + slot as f64]),
        )
        .expect("job start");
        d.phase_start(m, PhaseKind::WarmUp, std::slice::from_ref(&bed))
            .expect("phase start");
        let base = *start;
        for i in 0..40_u64 {
            let t = base + (i ^ 1); // mild out-of-order jitter
            let v = if i == 25 {
                80.0 + slot as f64
            } else {
                (t as f64 * 0.37).sin() + slot as f64 * 0.1
            };
            d.ingest(
                &lane(m, &bed, LaneKind::Phase),
                Sample {
                    timestamp: t,
                    value: v,
                },
            )
            .expect("ingest");
            if i % 4 == 0 {
                d.ingest(
                    &lane(m, &room, LaneKind::Environment),
                    Sample {
                        timestamp: t + 1,
                        value: 21.0 + (t as f64 * 0.05).cos(),
                    },
                )
                .expect("ingest env");
            }
        }
        // A duplicate and a far-behind straggler: journalled, rejected.
        let _ = d.ingest(
            &lane(m, &bed, LaneKind::Phase),
            Sample {
                timestamp: base + 38,
                value: -1.0,
            },
        );
        let _ = d.ingest(
            &lane(m, &bed, LaneKind::Phase),
            Sample {
                timestamp: base + 1,
                value: -1.0,
            },
        );
        d.phase_start(m, PhaseKind::Printing, std::slice::from_ref(&bed))
            .expect("phase start");
        for i in 0..24_u64 {
            let t = base + 100 + i;
            d.ingest(
                &lane(m, &bed, LaneKind::Phase),
                Sample {
                    timestamp: t,
                    value: (t as f64 * 0.21).cos(),
                },
            )
            .expect("ingest");
        }
        d.job_complete(
            m,
            CaqResult::new(vec!["q".into()], vec![0.9 + slot as f64 * 0.01], true),
        )
        .expect("job complete");
        d.rotate().expect("rotate");
    }
}

/// A populated store directory: the scenario's segments plus a WAL tail,
/// with the stream dropped (not finished).
fn populated_store() -> (MemStorage, u64) {
    let storage = MemStorage::new();
    let mut d = open(storage.clone());
    run_scenario(&mut d);
    let sealed_end = d.store().wal_index();
    drop(d);
    (storage, sealed_end)
}

/// Brute-force ground truth: every sealed sample per lane, decoded
/// straight from the raw rotation segments in file order.
fn sealed_samples(storage: &MemStorage) -> BTreeMap<LaneId, Vec<(u64, u64)>> {
    let mut lanes: BTreeMap<u32, LaneId> = BTreeMap::new();
    let mut out: BTreeMap<LaneId, Vec<(u64, u64)>> = BTreeMap::new();
    let mut names: Vec<(u64, String)> = storage
        .list()
        .expect("list")
        .into_iter()
        .filter_map(|n| {
            let i: u64 = n.strip_prefix("seg-")?.strip_suffix(".seg")?.parse().ok()?;
            Some((i, n))
        })
        .collect();
    names.sort();
    for (_, name) in names {
        let data = segment::decode(&storage.read(&name).expect("read")).expect("decode");
        for def in &data.lane_defs {
            lanes.insert(def.lane, decode_lane(&def.meta).expect("lane id"));
        }
        for chunk in &data.chunks {
            let id = lanes.get(&chunk.lane).expect("declared lane").clone();
            let samples = out.entry(id).or_default();
            for (&t, &v) in chunk.timestamps.iter().zip(chunk.values.iter()) {
                samples.push((t, v.to_bits()));
            }
        }
    }
    out
}

/// Scans `[start, end]` and returns per-lane `(ts, value bits)` pairs.
fn scan_samples(storage: &MemStorage, start: u64, end: u64) -> BTreeMap<LaneId, Vec<(u64, u64)>> {
    let reader = HistoryReader::new(snapshot(storage).expect("snapshot")).expect("reader");
    let (series, _) = reader.scan(&RangeQuery::range(start, end)).expect("scan");
    series
        .into_iter()
        .map(|ls| {
            let pairs = ls
                .series
                .timestamps()
                .iter()
                .zip(ls.series.values().iter())
                .map(|(&t, &v)| (t, v.to_bits()))
                .collect();
            (ls.id, pairs)
        })
        .collect()
}

#[test]
fn compacted_scan_equals_uncompacted_replay() {
    let (storage, sealed_end) = populated_store();
    let expected = sealed_samples(&storage);
    assert!(expected.values().map(Vec::len).sum::<usize>() > 150);

    let stats = compact(
        &storage,
        sealed_end,
        &CompactionOptions {
            l0_batch: 2,
            partition_ticks: 64,
            ..CompactionOptions::default()
        },
    )
    .expect("compact");
    assert_eq!(stats.floor, sealed_end);
    assert!(stats.l0_files >= 2, "batched into multiple files");

    // Rotation segments below the floor are gone; hist files tile 0..floor.
    let names = storage.list().expect("list");
    assert!(!names.iter().any(|n| n.starts_with("seg-")));
    assert!(names.iter().any(|n| parse_hist_name(n).is_some()));
    assert_eq!(read_floor(&storage).expect("floor"), sealed_end);

    let got = scan_samples(&storage, 0, u64::MAX);
    assert_eq!(got, expected, "full-range scan ≡ raw segment replay");
}

#[test]
fn tier_merges_preserve_scans_and_levels() {
    let (storage, sealed_end) = populated_store();
    let expected = sealed_samples(&storage);
    let stats = compact(
        &storage,
        sealed_end,
        &CompactionOptions {
            l0_batch: 1,
            fanout: 2,
            partition_ticks: 0,
            max_level: 3,
        },
    )
    .expect("compact");
    assert!(stats.tier_merges >= 1, "fanout 2 over 3 files tier-merges");

    // Exactly one covering run, with levels recorded in the footers.
    let snap = snapshot(&storage).expect("snapshot");
    for file in &snap.files {
        let level = parse_level(&file.index.extra).expect("level tag");
        assert!((1..=3).contains(&level));
    }
    assert_eq!(scan_samples(&storage, 0, u64::MAX), expected);
}

#[test]
fn range_scans_prune_and_filter_exactly() {
    let (storage, sealed_end) = populated_store();
    let expected = sealed_samples(&storage);
    compact(
        &storage,
        sealed_end,
        &CompactionOptions {
            partition_ticks: 32,
            ..CompactionOptions::default()
        },
    )
    .expect("compact");

    let reader = HistoryReader::new(snapshot(&storage).expect("snapshot")).expect("reader");
    for (start, end) in [
        (0_u64, 50_u64),
        (100, 140),
        (500, 560),
        (90, 505),
        (600, 700),
    ] {
        let want: BTreeMap<LaneId, Vec<(u64, u64)>> = expected
            .iter()
            .filter_map(|(id, samples)| {
                let inside: Vec<(u64, u64)> = samples
                    .iter()
                    .copied()
                    .filter(|&(t, _)| start <= t && t <= end)
                    .collect();
                (!inside.is_empty()).then(|| (id.clone(), inside))
            })
            .collect();
        let (series, stats) = reader.scan(&RangeQuery::range(start, end)).expect("scan");
        let got: BTreeMap<LaneId, Vec<(u64, u64)>> = series
            .into_iter()
            .map(|ls| {
                (
                    ls.id,
                    ls.series
                        .timestamps()
                        .iter()
                        .zip(ls.series.values().iter())
                        .map(|(&t, &v)| (t, v.to_bits()))
                        .collect(),
                )
            })
            .collect();
        assert_eq!(got, want, "range [{start}, {end}]");
        assert!(
            stats.chunks_pruned > 0,
            "narrow range [{start}, {end}] prunes chunks on footer bounds"
        );
        assert_eq!(
            stats.chunks_total,
            stats.chunks_pruned + stats.chunks_decoded
        );
    }

    // Lane filters restrict without losing samples.
    let (series, _) = reader
        .scan(&RangeQuery {
            start: 0,
            end: u64::MAX,
            machine: Some("m0".into()),
            sensor: None,
        })
        .expect("scan");
    assert!(!series.is_empty());
    assert!(series.iter().all(|ls| ls.id.machine == "m0"));
}

fn finish_report(storage: MemStorage) -> StreamReport {
    let (policy, config) = policy_and_config();
    let (d, _) = DurableStream::open(policy, config, storage, StoreOptions { group_commit: 1 })
        .expect("recover");
    d.finish().expect("finish")
}

/// Crashes one operation at every `step`-th byte of its write volume ×
/// page cache {lost, kept}. `prepare` readies the operation on a fresh
/// image of `pristine` (its own writes are not budgeted) and `run`
/// performs it; `check` receives each crashed directory, as a
/// restarted process would read it, plus a label for messages.
///
/// Asserts that every swept offset below the write volume crashed, and
/// returns how many points did.
fn crash_sweep<T, E: std::fmt::Debug>(
    pristine: &MemStorage,
    step: usize,
    prepare: impl Fn(&MemStorage) -> T,
    run: impl Fn(T) -> Result<(), E>,
    mut check: impl FnMut(MemStorage, &str),
) -> usize {
    let probe = pristine.crash_image(true);
    let armed = prepare(&probe);
    let before = probe.bytes_written();
    run(armed).expect("uninterrupted run");
    let total = probe.bytes_written() - before;

    let mut killed = 0;
    for offset in (0..=total).step_by(step) {
        for keep_unsynced in [false, true] {
            let image = pristine.crash_image(true);
            let armed = prepare(&image);
            // The budget counts from here, not from the image's lifetime
            // `bytes_written`.
            image.set_write_budget(Some(offset));
            if run(armed).is_err() {
                assert!(image.killed(), "only the injected crash may fail");
            }
            killed += usize::from(image.killed());
            check(
                image.crash_image(keep_unsynced),
                &format!("offset={offset} keep_unsynced={keep_unsynced}"),
            );
        }
    }
    let below_total = 2 * (0..total).step_by(step).count();
    assert_eq!(
        killed, below_total,
        "every swept offset below the {total} bytes written crashes"
    );
    killed
}

#[test]
fn compaction_crash_points_recover_equivalently() {
    let (pristine, sealed_end) = populated_store();
    let expected = sealed_samples(&pristine);
    let options = CompactionOptions {
        l0_batch: 1,
        fanout: 2,
        partition_ticks: 128,
        max_level: 3,
    };

    // The detector report an uninterrupted recovery-and-finish reaches.
    let baseline = finish_report(pristine.crash_image(true));

    let killed = crash_sweep(
        &pristine,
        97,
        |image| image.clone(),
        |image| compact(&image, sealed_end, &options).map(drop),
        |recovered, at| {
            // Recovery (the store's own rules) + a re-run converge.
            let report = finish_report(recovered.crash_image(true));
            assert_eq!(
                format!("{:?}", report.report),
                format!("{:?}", baseline.report),
                "{at}"
            );
            compact(&recovered, sealed_end, &options).expect("re-run compact");
            assert_eq!(scan_samples(&recovered, 0, u64::MAX), expected, "{at}");
            assert_eq!(read_floor(&recovered).expect("floor"), sealed_end);
        },
    );
    assert!(killed >= 20, "sweep crashed compaction at {killed} points");
}

/// Opens a stream on `storage` and journals one more job, so the next
/// rotation seals new samples and controls.
fn stream_with_open_job(storage: &MemStorage) -> DurableStream<MemStorage> {
    let mut d = open(storage.clone());
    let bed = "m1.bed.0".to_string();
    d.job_start(
        "m1",
        "j1",
        900,
        JobConfig::new(vec!["speed".into()], vec![4.0]),
    )
    .expect("job start");
    d.phase_start("m1", PhaseKind::WarmUp, std::slice::from_ref(&bed))
        .expect("phase start");
    for t in 900..920_u64 {
        let sample = Sample {
            timestamp: t,
            value: (t as f64 * 0.3).sin(),
        };
        d.ingest(&lane("m1", &bed, LaneKind::Phase), sample)
            .expect("ingest");
    }
    d
}

#[test]
fn rotation_crash_points_keep_snapshots_readable() {
    let (pristine, _) = populated_store();
    let before = sealed_samples(&pristine);
    let after = {
        let image = pristine.crash_image(true);
        stream_with_open_job(&image).rotate().expect("rotate");
        sealed_samples(&image)
    };
    assert_ne!(before, after, "the rotation seals new samples");

    let killed = crash_sweep(
        &pristine,
        1,
        stream_with_open_job,
        |mut d| d.rotate(),
        |crashed, at| {
            // Read-only, as beside a live store whose rotation failed;
            // then again after recovery.
            for phase in ["crashed", "recovered"] {
                if phase == "recovered" {
                    drop(open(crashed.clone()));
                }
                let got = scan_samples(&crashed, 0, u64::MAX);
                assert!(got == before || got == after, "{phase} {at}");
            }
        },
    );
    assert!(killed >= 100, "sweep crashed rotation at {killed} points");
}

#[test]
fn backfill_with_original_policy_reproduces_the_report() {
    let (storage, sealed_end) = populated_store();
    let (policy, config) = policy_and_config();
    let original = finish_report(storage.crash_image(true));

    let outcome = backfill(&[&storage], &policy, config, 0, u64::MAX, None).expect("backfill");
    assert_eq!(
        format!("{:?}", outcome.report.report),
        format!("{:?}", original.report),
        "backfill under the original policy is byte-identical"
    );
    assert!(outcome.samples_replayed > 0);
    assert!(diff_reports(&original.report, &outcome.report.report).identical());

    // Compaction is invisible to backfill.
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let after = backfill(&[&storage], &policy, config, 0, u64::MAX, None).expect("backfill");
    assert_eq!(
        format!("{:?}", after.report.report),
        format!("{:?}", original.report),
        "backfill over compacted history is byte-identical"
    );
}

#[test]
fn backfill_with_updated_spec_rescored_range() {
    let (storage, sealed_end) = populated_store();
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let (policy, config) = policy_and_config();
    let original =
        backfill(&[&storage], &policy, config, 0, u64::MAX, None).expect("original backfill");

    // Re-detect under a different phase algorithm.
    let spec = AlgoSpec::new("sliding-z").with("window", 8);
    let rescored = backfill(&[&storage], &policy, config, 0, u64::MAX, Some(&spec))
        .expect("rescored backfill");
    let diff = diff_reports(&original.report.report, &rescored.report.report);
    assert_eq!(
        diff.added.len() + original.report.report.outliers.len() - diff.removed.len(),
        rescored.report.report.outliers.len(),
        "diff accounts for every outlier"
    );

    // A restricted range replays fewer samples but all controls.
    let windowed = backfill(&[&storage], &policy, config, 500, u64::MAX, Some(&spec))
        .expect("windowed backfill");
    assert_eq!(windowed.controls_replayed, original.controls_replayed);
    assert!(windowed.samples_replayed < original.samples_replayed);
    assert!(windowed.samples_skipped > 0);
}

#[test]
fn compaction_shrinks_the_stored_bytes() {
    let (storage, sealed_end) = populated_store();
    let seg_bytes: usize = storage
        .list()
        .expect("list")
        .iter()
        .filter(|n| n.starts_with("seg-"))
        .map(|n| storage.read(n).expect("read").len())
        .sum();
    compact(&storage, sealed_end, &CompactionOptions::default()).expect("compact");
    let hist_bytes: usize = storage
        .list()
        .expect("list")
        .iter()
        .filter(|n| parse_hist_name(n).is_some())
        .map(|n| storage.read(n).expect("read").len())
        .sum();
    assert!(
        hist_bytes < seg_bytes,
        "compressed history is smaller: {hist_bytes} vs {seg_bytes}"
    );
}
