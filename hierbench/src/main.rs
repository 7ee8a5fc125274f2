//! `hierbench` — the end-to-end and per-layer benchmark of the hierod
//! serving path.
//!
//! ```text
//! cargo run --release --manifest-path hierbench/Cargo.toml -- \
//!     --workload <firehose|long_history|history_query|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed drives `hierod-synth`; the program sees only the generated
//! events. A run repeats rounds (see `workloads.rs`) until `--seconds`
//! have passed and the request percentiles are supported, then prints
//! its environment, one line per metric, and as its last line one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run alternates untraced and traced rounds, drives each lower
//! layer directly (`direct.rs`), and reports the per-layer metrics,
//! the tracing overhead, and each layer sum beside the end-to-end figure
//! it feeds. Spans are written to `.hierbench/` when a traced run ends.
//!
//! End-to-end metrics (medians over a run's rounds unless noted):
//!
//! | metric                 | meaning                                          |
//! |------------------------|--------------------------------------------------|
//! | `setup_s`              | service open, server bind, admit, stand-up       |
//! | `ingest_samples_per_s` | samples ÷ (first sample sent → final report)     |
//! | `finish_s`             | last sample sent → final report received         |
//! | `request_p50_ms`       | the workload's synchronous request, pooled p50   |
//! | `request_p90_ms`       | the same, p90 (≥ 10 samples beyond it)           |
//! | `recover_s`            | `RegistryService::open` on the store image       |
//! | `backfill_s`           | one full-range `backfill` after recovery         |
//! | `peak_rss_mb`          | VmHWM of a round, reset before it (`memory.rs`)  |
//!
//! The request is each workload's operator query: the `QueryLaneStats`
//! ingest poll on `firehose`, the `Tick` + `QueryScores` round trip on
//! `long_history` (`tick_p50_ms`/`tick_p90_ms`), and the dashboard
//! `range_scan` on `history_query` (`scan_p50_ms`/`scan_p90_ms`).

mod check;
mod direct;
mod input;
mod memory;
mod sockbytes;
mod stats;
mod storage;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fs;
use std::process::{Command, ExitCode};
use std::time::Instant;

use check::Reference;
use input::{Input, Workload};
use stats::{median, percentile, samples_needed, Ratio};
use trace::Tracer;
use workloads::{Observed, Ops, Plan, Round};

/// Rounds a run makes at least, so every median has a middle.
const MIN_ROUNDS: usize = 3;

/// No round starts after this many seconds, so a run ends within the
/// time its caller allows even on a slow machine.
const LAST_START_S: f64 = 120.0;

/// Where traced runs write their spans, relative to the working
/// directory.
const SPAN_DIR: &str = ".hierbench";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// The outcome of one workload run.
struct Outcome {
    ops: Ops,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = Command::new(program);
    command.args(args);
    // Never report the revision of a repository around the working
    // directory: git stops searching at its parent.
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            command.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(args: &Args, workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"git_rev\":\"{}\",\"rustc\":\"{}\",\"profile\":\"{profile}\",\"seed\":{},\"workload\":\"{workload}\",\"seconds\":{},\"trace\":{}}}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn run(workload: Workload, args: &Args) -> Outcome {
    let mut ops = Ops::default();
    let mut notes = Vec::new();
    let started = Instant::now();
    let input = Input::generate(workload, args.seed);
    let reference = match Reference::batch(&input.plant) {
        Ok(r) => r,
        Err(e) => {
            ops.errors.push(e);
            return Outcome {
                ops,
                metrics: Vec::new(),
                notes,
            };
        }
    };
    notes.push(format!(
        "input: {} samples, {} jobs, {} phases, {} lanes; batch reference has {} outliers",
        input.samples,
        input.jobs,
        input.phases,
        input.lanes.len(),
        reference.len()
    ));
    let plan = Plan::of(workload);
    let measure_start = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let needed = samples_needed(0.9);
    loop {
        let requests: usize = plain.iter().map(|r| r.requests_ms.len()).sum();
        let elapsed = measure_start.elapsed().as_secs_f64();
        let done = elapsed >= args.seconds && plain.len() >= MIN_ROUNDS;
        let supported = args.trace || requests >= needed;
        if (done && supported) || started.elapsed().as_secs_f64() > LAST_START_S {
            break;
        }
        memory::reset_peak();
        match workloads::round(&input, plan, &reference, &mut quiet, &mut ops) {
            Ok(r) => plain.push(Round {
                peak_rss_mb: memory::peak_mb().unwrap_or(0.0),
                ..r
            }),
            Err(_) => break,
        }
        if args.trace {
            match workloads::round(&input, plan, &reference, &mut tracer, &mut ops) {
                Ok(r) => {
                    // Only the latest journal feeds the append drive.
                    if let Some(prev) = traced.last_mut().and_then(|r| r.observed.as_mut()) {
                        prev.journal = Vec::new();
                    }
                    traced.push(r)
                }
                Err(_) => break,
            }
        }
    }
    if !ops.errors.is_empty() {
        return Outcome {
            ops,
            metrics: Vec::new(),
            notes,
        };
    }
    let metrics = if args.trace {
        per_layer(
            workload, &input, &reference, &plain, &traced, &tracer, &mut ops, &mut notes,
        )
        .unwrap_or_default()
    } else {
        end_to_end(&input, &plain, &mut ops, &mut notes)
    };
    if args.trace {
        write_spans(workload, args.seed, &tracer, &mut notes);
    }
    Outcome {
        ops,
        metrics,
        notes,
    }
}

fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).unwrap_or(0.0)
}

fn end_to_end(
    input: &Input,
    rounds: &[Round],
    ops: &mut Ops,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let requests: Vec<f64> = rounds.iter().flat_map(|r| r.requests_ms.clone()).collect();
    let (Some(p50), Some(p90)) = (percentile(&requests, 0.5), percentile(&requests, 0.9)) else {
        ops.errors.push(format!(
            "{} requests do not support p90 (need {})",
            requests.len(),
            samples_needed(0.9)
        ));
        return Vec::new();
    };
    let beyond = requests.iter().filter(|&&r| r > p90).count();
    notes.push(format!(
        "{} rounds; {} requests, {beyond} beyond p90",
        rounds.len(),
        requests.len()
    ));
    vec![
        metric("setup_s", med(rounds.iter().map(|r| r.setup_s)), "s"),
        metric(
            "ingest_samples_per_s",
            med(rounds.iter().map(|r| input.samples as f64 / r.ingest_s)),
            "1/s",
        ),
        metric("finish_s", med(rounds.iter().map(|r| r.finish_s)), "s"),
        metric("request_p50_ms", p50, "ms"),
        metric("request_p90_ms", p90, "ms"),
        metric("recover_s", med(rounds.iter().map(|r| r.recover_s)), "s"),
        metric("backfill_s", med(rounds.iter().map(|r| r.backfill_s)), "s"),
        metric(
            "peak_rss_mb",
            med(rounds.iter().map(|r| r.peak_rss_mb)),
            "MB",
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: Workload,
    input: &Input,
    reference: &Reference,
    plain: &[Round],
    traced: &[Round],
    tracer: &Tracer,
    ops: &mut Ops,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, workloads::Abort> {
    let main: Vec<&Observed> = traced.iter().filter_map(|r| r.observed.as_ref()).collect();
    // history_query bypasses server and wire; a traced-only replay of
    // its events over TCP measures those layers on its inputs.
    let replay;
    let wire: Vec<&Observed> = if workload == Workload::HistoryQuery {
        let plan = Plan {
            poll_per_phase: false,
            tick_per_job: true,
            in_process: false,
        };
        replay = workloads::round(input, plan, reference, &mut Tracer::new(true), ops)?;
        replay.observed.iter().collect()
    } else {
        main.clone()
    };
    let tick_after_job = workload != Workload::Firehose;
    let service = direct::service_pass(input, tick_after_job, ops)?;
    let stream = direct::stream_pass(input, tick_after_job, reference, ops)?;
    let detect_ns = direct::detect_pass(&input.plant, ops)?;
    let journal = main
        .last()
        .map(|o| o.journal.as_slice())
        .unwrap_or_default();
    let append_ns = direct::store_pass(journal, ops)?;
    let (_, decode_ns) = direct::wire_pass(&input.wire_bytes(), ops)?;

    let samples = input.samples as f64;
    let over = |f: &dyn Fn(&Observed) -> f64, set: &[&Observed]| med(set.iter().map(|o| f(o)));
    let pooled = |f: &dyn Fn(&Observed) -> &Vec<f64>| -> Vec<f64> {
        main.iter().flat_map(|o| f(o).clone()).collect()
    };
    let tick_rtts: Vec<(usize, f64)> = wire
        .iter()
        .flat_map(|o| o.tick_rtt_ms.iter().copied().enumerate())
        .collect();
    let overhead = if tick_rtts.is_empty() {
        over(&|o| o.finish_rtt_ms, &wire) - service.finish_ms
    } else {
        med(tick_rtts
            .iter()
            .filter_map(|&(i, rtt)| Some(rtt - service.tick_ms.get(i)?)))
    };
    let stream_ingest_ns = stream.ingest_ns / samples;
    let service_ingest_ns = service.ingest_ns / samples;
    let scans: f64 = main.iter().map(|o| o.scans as f64).sum::<f64>().max(1.0);
    let fresh = Ratio {
        part: stream.fresh_jobs,
        base: stream.tick_jobs.iter().sum(),
    };
    let compact = Ratio {
        part: main.iter().map(|o| o.compact_bytes_out as f64).sum(),
        base: main.iter().map(|o| o.compact_bytes_in as f64).sum(),
    };
    let untraced_s = med(plain.iter().map(|r| r.wall_s));
    let overhead_ratio = Ratio {
        part: med(traced.iter().map(|r| r.wall_s)),
        base: untraced_s,
    };

    let mut metrics = vec![
        metric("server.send_wait_s", over(&|o| o.send_wait_s, &wire), "s"),
        metric("server.tick_overhead_ms", overhead, "ms"),
        metric("wire.frames", over(&|o| o.frames as f64, &wire), "count"),
        metric(
            "wire.bytes_in",
            over(&|o| o.sent_bytes as f64, &wire),
            "bytes",
        ),
        metric("wire.decode_ns_per_frame", decode_ns, "ns"),
        metric(
            "wire.reply_bytes",
            over(&|o| o.received_bytes as f64, &wire),
            "bytes",
        ),
        metric("wire.report_encode_ms", med(stream.encode_ms.clone()), "ms"),
        metric(
            "service.ingest_ns_per_sample",
            service_ingest_ns - stream_ingest_ns - append_ns,
            "ns",
        ),
        metric("stream.ingest_ns_per_sample", stream_ingest_ns, "ns"),
        metric(
            "stream.phase_close_ms",
            stream.phase_close_ms / stream.phase_closes.max(1) as f64,
            "ms",
        ),
        metric("stream.tick_ms", med(stream.tick_self_ms.clone()), "ms"),
        metric("stream.tick_jobs", med(stream.tick_jobs.clone()), "count"),
        metric("stream.finish_ms", stream.finish_ms, "ms"),
        metric("detect.score_ns_per_sample", detect_ns, "ns"),
        metric(
            "core.detect_level_ms",
            med(stream.core_detect_ms.clone()),
            "ms",
        ),
        metric(
            "core.build_report_ms",
            med(stream.core_report_ms.clone()),
            "ms",
        ),
        metric("core.outliers", stream.outliers, "count"),
        metric("core.phase_series", stream.phase_series, "count"),
        metric(
            "store.wal_records",
            over(&|o| o.wal_records as f64, &main),
            "count",
        ),
        metric(
            "store.wal_bytes",
            over(&|o| o.wal_bytes as f64, &main),
            "bytes",
        ),
        metric("store.append_ns_per_record", append_ns, "ns"),
        metric("store.commits", over(&|o| o.commits as f64, &main), "count"),
        metric("store.rotate_ms", med(pooled(&|o| &o.rotate_ms)), "ms"),
        metric("store.recover_ms", over(&|o| o.store_open_ms, &main), "ms"),
        metric(
            "store.recover_wal_records",
            over(&|o| o.recover_wal_records as f64, &main),
            "count",
        ),
        metric(
            "store.recover_files",
            over(&|o| o.recover_files as f64, &main),
            "count",
        ),
        metric("history.compact_ms", med(pooled(&|o| &o.compact_ms)), "ms"),
        metric(
            "history.snapshot_ms",
            med(pooled(&|o| &o.snapshot_ms)),
            "ms",
        ),
        metric(
            "history.scan_decode_ms",
            med(pooled(&|o| &o.scan_decode_ms)),
            "ms",
        ),
        metric(
            "history.chunks_decoded",
            main.iter().map(|o| o.chunks_decoded as f64).sum::<f64>() / scans,
            "count",
        ),
        metric(
            "history.chunks_pruned",
            main.iter().map(|o| o.chunks_pruned as f64).sum::<f64>() / scans,
            "count",
        ),
        metric("history.backfill_ms", over(&|o| o.backfill_ms, &main), "ms"),
    ];
    for (name, ratio, unit) in [
        ("stream.tick_fresh_ratio", fresh, "count"),
        ("history.compact_ratio", compact, "bytes"),
        ("trace.overhead_ratio", overhead_ratio, "s"),
    ] {
        for (n, v, u) in ratio.metrics(name, unit) {
            metrics.push(metric(&n, v, &u));
        }
    }

    // Layer sums beside the end-to-end figures they feed.
    let ingest_s = med(plain.iter().map(|r| r.ingest_s));
    let mut parts = vec![
        (
            "service self",
            (service_ingest_ns - stream_ingest_ns - append_ns) * samples / 1e9,
        ),
        ("stream ingest", stream.ingest_ns / 1e9),
        ("store append", append_ns * samples / 1e9),
        ("stream phase close", stream.phase_close_ms / 1e3),
        ("service finish", service.finish_ms / 1e3),
    ];
    let rest = match workload {
        Workload::Firehose => "server, wire, TCP and polls",
        Workload::LongHistory => {
            let ticks = med(plain
                .iter()
                .map(|r| r.requests_ms.iter().sum::<f64>() / 1e3));
            parts.push(("tick round trips", ticks));
            "server, wire and TCP"
        }
        Workload::HistoryQuery => {
            let per_round = |f: &dyn Fn(&Observed) -> f64| med(main.iter().map(|o| f(o)));
            parts.push((
                "store rotate",
                per_round(&|o| o.rotate_ms.iter().sum::<f64>() / 1e3),
            ));
            parts.push((
                "history compact",
                per_round(&|o| o.compact_ms.iter().sum::<f64>() / 1e3),
            ));
            let scans = med(plain
                .iter()
                .map(|r| r.requests_ms.iter().sum::<f64>() / 1e3));
            parts.push(("range scans", scans));
            "service calls around them"
        }
    };
    notes.push(format!(
        "{} ({rest}); client blocked in Client::sample {:.4} s, overlapping the server",
        layer_sum(
            "ingest_s per round",
            "ingest_samples_per_s",
            "s",
            ingest_s,
            &parts
        ),
        over(&|o| o.send_wait_s, &wire),
    ));
    let request_p50 = med(plain.iter().flat_map(|r| r.requests_ms.clone()));
    match workload {
        Workload::LongHistory => {
            // The server's tick handler encodes the report, so the
            // round-trip overhead holds the wire encode; the service tick
            // holds the stream tick, which holds core.
            let encode = med(stream.encode_ms.clone());
            let parts = [
                ("server and TCP", overhead - encode),
                ("wire report encode", encode),
                (
                    "service self",
                    med(service.tick_ms.clone()) - med(stream.tick_ms.clone()),
                ),
                ("stream tick self", med(stream.tick_self_ms.clone())),
                ("core detect_level", med(stream.core_detect_ms.clone())),
                ("core build_report", med(stream.core_report_ms.clone())),
            ];
            notes.push(layer_sum(
                "tick round trip p50",
                "request_p50_ms",
                "ms",
                request_p50,
                &parts,
            ));
        }
        Workload::HistoryQuery => {
            let parts = [
                ("history snapshot", med(pooled(&|o| &o.snapshot_ms))),
                ("history scan decode", med(pooled(&|o| &o.scan_decode_ms))),
            ];
            notes.push(layer_sum(
                "range_scan p50",
                "request_p50_ms",
                "ms",
                request_p50,
                &parts,
            ));
        }
        Workload::Firehose => {}
    }
    notes.push(format!(
        "tracing overhead: traced round {:.4} s vs untraced {untraced_s:.4} s over {} pairs; {} spans",
        overhead_ratio.part,
        traced.len(),
        tracer.spans().len()
    ));
    if let Some(round) = tracer.self_times("round").first() {
        notes.push(format!(
            "first traced round: {round:.3} ms outside its child spans (benchmark bookkeeping)"
        ));
    }
    Ok(metrics)
}

/// One line: an end-to-end figure, the layer figures that feed it, and
/// what they leave unaccounted.
fn layer_sum(what: &str, metric: &str, unit: &str, total: f64, parts: &[(&str, f64)]) -> String {
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let listed: Vec<String> = parts
        .iter()
        .map(|(name, v)| format!("{name} {v:.4}"))
        .collect();
    format!(
        "{what} {total:.4} {unit} (→ {metric}) beside: {} = {sum:.4} {unit}; unaccounted {:.4} {unit}",
        listed.join(" + "),
        total - sum
    )
}

fn write_spans(workload: Workload, seed: u64, tracer: &Tracer, notes: &mut Vec<String>) {
    let path = format!("{SPAN_DIR}/spans-{}-seed{seed}.jsonl", workload.name());
    let written = fs::create_dir_all(SPAN_DIR).and_then(|_| {
        let mut file = std::io::BufWriter::new(fs::File::create(&path)?);
        tracer.write(&mut file)?;
        std::io::Write::flush(&mut file)
    });
    match written {
        Ok(()) => notes.push(format!("spans written to {path}")),
        Err(e) => notes.push(format!("spans not written ({path}): {e}")),
    }
}

fn json_line(outcomes: &[(Workload, Outcome)], prefix: bool) -> String {
    let correct = outcomes.iter().all(|(_, o)| o.ops.errors.is_empty())
        && outcomes
            .iter()
            .all(|(_, o)| o.metrics.iter().all(|m| m.value.is_finite()));
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.ops.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.ops.failed).sum();
    let mut metrics = BTreeMap::new();
    if correct {
        for (w, o) in outcomes {
            for m in &o.metrics {
                let name = if prefix {
                    format!("{}.{}", w.name(), m.name)
                } else {
                    m.name.clone()
                };
                metrics.insert(
                    name,
                    format!("{{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit),
                );
            }
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    memory::fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hierbench: {e}");
            eprintln!(
                "usage: hierbench --workload <firehose|long_history|history_query|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut outcomes = Vec::new();
    for workload in workloads {
        println!("# env {}", environment(&args, workload.name()));
        let outcome = run(workload, &args);
        for note in &outcome.notes {
            println!("# {}: {note}", workload.name());
        }
        for error in outcome.ops.errors.iter().take(5) {
            println!("# {}: FAILED {error}", workload.name());
        }
        for m in &outcome.metrics {
            let name = match workload.request_name(&m.name) {
                Some(alias) => format!("{alias} ({})", m.name),
                None => m.name.clone(),
            };
            println!(
                "{:<14} {:<40} {:>16.6} {}",
                workload.name(),
                name,
                m.value,
                m.unit
            );
        }
        outcomes.push((workload, outcome));
    }
    println!("{}", json_line(&outcomes, outcomes.len() > 1));
    ExitCode::SUCCESS
}
