//! Seeded input generation: `hierod-synth`'s `ScenarioBuilder` →
//! `replay()`, flattened into the event stream a client sends.
//!
//! The program under test only ever sees these events. The scenario's
//! finished `Plant` stays on the benchmark side as the input of the batch
//! reference the outputs are checked against.
//!
//! Stand-up (every lane definition and every machine's `MachineUp`) is
//! split off, so it can be timed as set-up. The remaining events keep
//! each machine's own order from `replay()`, but whole jobs of different
//! machines are interleaved round-robin, the way concurrently running
//! machines report. Each job block ends with its `JobComplete`, so no job
//! of any machine is open at a job boundary.

use std::collections::HashSet;

use hierod_hierarchy::Plant;
use hierod_store::wal::WalRecord;
use hierod_stream::codec::{encode_control, encode_lane};
use hierod_stream::{ControlEvent, LaneId, LaneKind};
use hierod_synth::{ReplayEvent, ScenarioBuilder};
use hierod_wire::Frame;

/// The benchmark's workloads. See `workloads.rs` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long phases pipelined over TCP, no ticks.
    Firehose,
    /// Many short jobs over TCP, a tick after every job.
    LongHistory,
    /// In-process, rotate/compact with scans mid-job.
    HistoryQuery,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::Firehose,
        Workload::LongHistory,
        Workload::HistoryQuery,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Firehose => "firehose",
            Workload::LongHistory => "long_history",
            Workload::HistoryQuery => "history_query",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's own name for a request metric: the request is the
    /// ingest poll, the tick round trip, or the range scan.
    pub fn request_name(self, metric: &str) -> Option<&'static str> {
        let p90 = match metric {
            "request_p50_ms" => false,
            "request_p90_ms" => true,
            _ => return None,
        };
        Some(match (self, p90) {
            (Workload::Firehose, false) => "poll_p50_ms",
            (Workload::Firehose, true) => "poll_p90_ms",
            (Workload::LongHistory, false) => "tick_p50_ms",
            (Workload::LongHistory, true) => "tick_p90_ms",
            (Workload::HistoryQuery, false) => "scan_p50_ms",
            (Workload::HistoryQuery, true) => "scan_p90_ms",
        })
    }

    /// The scenario shape this workload generates.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Firehose => Shape {
                machines: 2,
                jobs_per_machine: 2,
                phase_samples: 2000,
                redundancy: 3,
            },
            Workload::LongHistory => Shape {
                machines: 4,
                jobs_per_machine: 16,
                phase_samples: 16,
                redundancy: 3,
            },
            Workload::HistoryQuery => Shape {
                machines: 2,
                jobs_per_machine: 12,
                phase_samples: 600,
                redundancy: 3,
            },
        }
    }
}

/// Scenario dimensions handed to `ScenarioBuilder`; everything else
/// stays at the builder's defaults.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Machines (production lines).
    pub machines: usize,
    /// Jobs per machine.
    pub jobs_per_machine: usize,
    /// Base samples per phase and sensor (printing runs twice as long).
    pub phase_samples: usize,
    /// Redundant temperature sensors per group.
    pub redundancy: usize,
}

/// One event after stand-up.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A lifecycle control (`JobStart`, `PhaseStart`, `JobComplete`),
    /// boxed to keep the far more frequent samples small.
    Control(Box<ControlEvent>),
    /// One sample on lane `lane` (an index into [`Input::lanes`]).
    Sample {
        /// Lane index.
        lane: u32,
        /// Plant tick.
        timestamp: u64,
        /// Measured value.
        value: f64,
    },
}

impl Event {
    /// Whether this event closes a job.
    pub fn closes_job(&self) -> bool {
        matches!(self, Event::Control(c) if matches!(**c, ControlEvent::JobComplete { .. }))
    }
}

/// The machines with an open phase, to tell which controls close one.
#[derive(Debug, Default)]
pub struct OpenPhases(HashSet<String>);

impl OpenPhases {
    /// Feeds `event` in stream order; returns whether it closes a phase.
    /// As in `StreamDetector::apply`, a `PhaseStart` closes the machine's
    /// open phase and a `JobComplete` closes the job's last one.
    pub fn closes(&mut self, event: &ControlEvent) -> bool {
        match event {
            ControlEvent::PhaseStart { machine, .. } => !self.0.insert(machine.clone()),
            ControlEvent::JobComplete { machine, .. } => self.0.remove(machine),
            ControlEvent::MachineUp { .. } | ControlEvent::JobStart { .. } => false,
        }
    }
}

/// A generated workload input.
pub struct Input {
    /// Every lane, in first-appearance order; wire lane numbers are the
    /// index plus one.
    pub lanes: Vec<LaneId>,
    /// `MachineUp` for every machine, in plant order.
    pub stand_up: Vec<ControlEvent>,
    /// Everything after stand-up.
    pub events: Vec<Event>,
    /// Samples in `events`.
    pub samples: u64,
    /// Jobs in `events`.
    pub jobs: usize,
    /// Phases in `events`.
    pub phases: usize,
    /// The finished plant, input of the batch reference.
    pub plant: Plant,
}

impl Input {
    /// Generates the input of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Input {
        Input::from_shape(workload.shape(), seed)
    }

    /// Generates an input of the given shape from `seed`.
    pub fn from_shape(shape: Shape, seed: u64) -> Input {
        let scenario = ScenarioBuilder::new(seed)
            .machines(shape.machines)
            .jobs_per_machine(shape.jobs_per_machine)
            .phase_samples(shape.phase_samples)
            .redundancy(shape.redundancy)
            .build();
        let mut lanes: Vec<LaneId> = Vec::new();
        let mut lane_index = std::collections::HashMap::new();
        let mut stand_up = Vec::new();
        // Per machine: job blocks, each ending with its JobComplete, plus
        // a trailing block of environment samples after the last job.
        let mut blocks: Vec<Vec<Vec<Event>>> = Vec::new();
        let (mut samples, mut jobs, mut phases) = (0, 0, 0);
        for event in scenario.replay() {
            let (machine, sensor, kind, timestamp, value) = match event {
                ReplayEvent::MachineUp {
                    machine,
                    sensors,
                    redundancy,
                    env_sensors,
                } => {
                    stand_up.push(ControlEvent::MachineUp {
                        machine,
                        sensors,
                        redundancy,
                        env_sensors,
                    });
                    blocks.push(vec![Vec::new()]);
                    continue;
                }
                ReplayEvent::JobStart {
                    machine,
                    job,
                    start,
                    config,
                } => {
                    push(
                        &mut blocks,
                        Event::Control(Box::new(ControlEvent::JobStart {
                            machine,
                            job,
                            start,
                            config,
                        })),
                    );
                    continue;
                }
                ReplayEvent::PhaseStart {
                    machine,
                    kind,
                    sensors,
                } => {
                    phases += 1;
                    push(
                        &mut blocks,
                        Event::Control(Box::new(ControlEvent::PhaseStart {
                            machine,
                            kind,
                            sensors,
                        })),
                    );
                    continue;
                }
                ReplayEvent::JobComplete { machine, caq, .. } => {
                    jobs += 1;
                    push(
                        &mut blocks,
                        Event::Control(Box::new(ControlEvent::JobComplete { machine, caq })),
                    );
                    if let Some(machine_blocks) = blocks.last_mut() {
                        machine_blocks.push(Vec::new());
                    }
                    continue;
                }
                ReplayEvent::PhaseSample {
                    machine,
                    sensor,
                    timestamp,
                    value,
                } => (machine, sensor, LaneKind::Phase, timestamp, value),
                ReplayEvent::EnvSample {
                    machine,
                    sensor,
                    timestamp,
                    value,
                } => (machine, sensor, LaneKind::Environment, timestamp, value),
            };
            let id = LaneId {
                machine,
                sensor,
                kind,
            };
            let lane = *lane_index.entry(id.clone()).or_insert_with(|| {
                lanes.push(id);
                lanes.len() as u32 - 1
            });
            samples += 1;
            push(
                &mut blocks,
                Event::Sample {
                    lane,
                    timestamp,
                    value,
                },
            );
        }
        let rounds = blocks.iter().map(Vec::len).max().unwrap_or(0);
        let mut events = Vec::with_capacity(samples as usize + 4 * jobs + phases);
        for round in 0..rounds {
            for machine_blocks in &mut blocks {
                if let Some(block) = machine_blocks.get_mut(round) {
                    events.append(block);
                }
            }
        }
        Input {
            lanes,
            stand_up,
            events,
            samples,
            jobs,
            phases,
            plant: scenario.plant,
        }
    }

    /// The framed wire bytes of every generated event, stand-up first —
    /// the exact byte stream a client sends before any request.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, lane) in self.lanes.iter().enumerate() {
            Frame::Ingest(WalRecord::LaneDef {
                lane: i as u32 + 1,
                meta: encode_lane(lane),
            })
            .encode(&mut out);
        }
        let controls = self
            .stand_up
            .iter()
            .chain(self.events.iter().filter_map(|e| match e {
                Event::Control(c) => Some(&**c),
                Event::Sample { .. } => None,
            }));
        for (seq, control) in (1..).zip(controls) {
            Frame::Ingest(WalRecord::Control {
                seq,
                payload: encode_control(control),
            })
            .encode(&mut out);
        }
        for event in &self.events {
            if let Event::Sample {
                lane,
                timestamp,
                value,
            } = event
            {
                Frame::Ingest(WalRecord::Sample {
                    lane: lane + 1,
                    timestamp: *timestamp,
                    value: *value,
                })
                .encode(&mut out);
            }
        }
        out
    }
}

/// Appends `event` to the open block of the last machine brought up
/// (`replay()` emits machines one after another).
fn push(blocks: &mut [Vec<Vec<Event>>], event: Event) {
    if let Some(block) = blocks.last_mut().and_then(|m| m.last_mut()) {
        block.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Shape {
        Shape {
            machines: 2,
            jobs_per_machine: 2,
            phase_samples: 16,
            redundancy: 2,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_events() {
        let a = Input::from_shape(tiny(), 5).wire_bytes();
        let b = Input::from_shape(tiny(), 5).wire_bytes();
        assert!(!a.is_empty());
        assert_eq!(a, b);
        let c = Input::from_shape(tiny(), 6).wire_bytes();
        assert_ne!(a, c, "another seed must give other events");
    }

    #[test]
    fn every_phase_is_closed_once() {
        let input = Input::from_shape(tiny(), 5);
        let mut open = OpenPhases::default();
        let closes = input
            .events
            .iter()
            .filter(|e| matches!(e, Event::Control(c) if open.closes(c)))
            .count();
        assert!(input.phases > 0);
        assert_eq!(closes, input.phases);
    }

    #[test]
    fn interleaving_keeps_every_event_and_each_machine_order() {
        let input = Input::from_shape(tiny(), 5);
        let flat = ScenarioBuilder::new(5)
            .machines(2)
            .jobs_per_machine(2)
            .phase_samples(16)
            .redundancy(2)
            .build()
            .replay();
        let sample_count = flat
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ReplayEvent::PhaseSample { .. } | ReplayEvent::EnvSample { .. }
                )
            })
            .count();
        assert_eq!(input.samples as usize, sample_count);
        assert_eq!(input.jobs, 4);
        assert_eq!(input.stand_up.len(), 2);
        // Machines alternate job by job.
        let order: Vec<&str> = input
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Control(c) => match &**c {
                    ControlEvent::JobStart { machine, .. } => Some(machine.as_str()),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        assert_eq!(order, ["m0", "m1", "m0", "m1"]);
        // Per lane, timestamps still rise.
        let mut last = vec![None; input.lanes.len()];
        for e in &input.events {
            if let Event::Sample {
                lane, timestamp, ..
            } = e
            {
                let prev = &mut last[*lane as usize];
                assert!(prev.is_none_or(|p| p < *timestamp));
                *prev = Some(*timestamp);
            }
        }
    }
}
