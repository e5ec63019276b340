//! The EFES service benchmark: one closed-loop workload against an
//! in-process `efes-serve` server over loopback HTTP.
//!
//! ```text
//! efes-servicebench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same loop with `/metrics` probes and then the in-process traced
//! replay, and reports the per-layer metrics. Every answer is checked
//! against the library; the run exits 1 if any is wrong or missing.
//! End-to-end times are scaled to a reference host speed (see `calib`);
//! run the process pinned to one CPU (`taskset -c 0`), as
//! `BENCHMARK.json` does. The last line of standard output is the JSON
//! result. See README.md.

mod calib;
mod client;
mod inputs;
mod replay;
mod stats;
mod workload;

use client::Scrape;
use efes_serve::ServerHandle;
use inputs::Scale;
use inputs::Version;
use replay::Replay;
use std::time::Instant;
use workload::{Answers, Phase, Session, Workload};

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 20150323;
/// A second seed, kept out of day-to-day tuning, for re-checking a
/// claimed gain on inputs the change was not written against.
const RECHECK_SEED: u64 = 8128;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: efes-servicebench --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--smoke]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: Workload::TallCold,
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name:?}"))),
                );
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("bad --seconds"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

/// The commit the benchmark was built from, when run inside a git
/// checkout; `unknown` elsewhere.
fn commit() -> String {
    let head = |dir: &std::path::Path| -> Option<String> {
        let git = dir.join(".git");
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
            return Some(sha.trim().to_owned());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            l.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_owned)
        })
    };
    let cwd = std::env::current_dir().unwrap_or_default();
    cwd.ancestors()
        .find_map(head)
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let scale = if args.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "servicebench workload={} seed={} (default {DEFAULT_SEED}, recheck {RECHECK_SEED}) seconds={} trace={} scale={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { "smoke" } else { "full" },
    );
    println!(
        "host threads={threads} (cpus online {}) workers={threads} clients=1 commit={}",
        std::fs::read_to_string("/sys/devices/system/cpu/online")
            .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned()),
        commit()
    );
    if threads > 1 {
        eprintln!(
            "warning: not pinned to one CPU; the host-speed calibration may run on another core than the server"
        );
    }

    let answers = Answers::default();
    let (server, versions, seconds) = set_up(args, &scale, threads, &answers)?;
    let mut setup_seconds = vec![seconds];
    let addr = server.addr();

    // The HTTP phase. Counters are read around it only: the replay below
    // runs in this process, and some counters are process-global.
    let before = if args.trace {
        Some(Scrape::fetch(addr)?)
    } else {
        None
    };
    let session = Session {
        workload: args.workload,
        addr,
        versions: &versions,
        answers: &answers,
    };
    // The traced run skips the warm-up: its counter deltas then cover
    // exactly the requests whose samples it keeps.
    let warmup = if args.trace { 0.0 } else { scale.warmup_seconds };
    let phase = session.run_loop(warmup, args.seconds, scale.max_ops, args.trace);
    let peak_rss_mb = stats::peak_rss_mb();
    let after = if args.trace {
        Some(Scrape::fetch(addr)?)
    } else {
        None
    };
    server.shutdown();

    // The other set-up repetitions run after the loop, so the loop starts
    // from one set-up's heap: peak RSS would otherwise also carry what
    // earlier repetitions left behind in the allocator.
    if !args.trace {
        for _ in 1..scale.setup_reps {
            let (server, _, seconds) = set_up(args, &scale, threads, &answers)?;
            server.shutdown();
            setup_seconds.push(seconds);
        }
    }

    let metrics = match (before, after) {
        (Some(before), Some(after)) => {
            let replay = Replay::run(args.workload, &versions, scale.replay_rounds);
            per_layer(&phase, &before, &after, &replay)
        }
        _ => end_to_end(&phase, &setup_seconds, peak_rss_mb),
    };

    let wrong = answers.check(&versions);
    let setup_ok = !wrong.contains(&None);
    let mut failed = phase.failed;
    failed.extend(wrong.into_iter().filter(Option::is_some));
    println!(
        "samples estimate={} match={} upload={} ready={} ops={} measured_s={:.3}",
        phase.samples.estimate.len(),
        phase.samples.matching.len(),
        phase.samples.upload.len(),
        phase.samples.ready.len(),
        phase.attempted,
        phase.seconds,
    );
    Ok(Outcome {
        metrics,
        attempted: phase.attempted,
        failed: failed.len(),
        correct: setup_ok && failed.is_empty(),
    })
}

/// One set-up repetition: generate and serialise the inputs, start the
/// server and warm it up. Returns the live server, its inputs and the
/// repetition's seconds.
fn set_up(
    args: &Args,
    scale: &Scale,
    threads: usize,
    answers: &Answers,
) -> Result<(ServerHandle, Vec<Version>, f64), String> {
    let started = Instant::now();
    let versions = args.workload.inputs(scale, args.seed);
    let server = workload::start_server(threads)?;
    Session {
        workload: args.workload,
        addr: server.addr(),
        versions: &versions,
        answers,
    }
    .warm_up()
    .map_err(|e| format!("set-up failed: {e}"))?;
    Ok((server, versions, started.elapsed().as_secs_f64()))
}

fn end_to_end(phase: &Phase, setup_seconds: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let s = &phase.samples;
    let (tail, percentile) = stats::tail(&s.estimate);
    println!(
        "estimate_tail_ms is p{percentile:.1} of {} estimates",
        s.estimate.len()
    );
    let wall = [
        metric("setup_s", stats::median(setup_seconds), "s"),
        metric("estimate_p50_ms", stats::median(&s.estimate), "ms"),
        metric("estimate_tail_ms", tail, "ms"),
        metric("upload_p50_ms", stats::median(&s.upload), "ms"),
        metric("ready_p50_ms", stats::median(&s.ready), "ms"),
        metric("match_p50_ms", stats::median(&s.matching), "ms"),
        metric("ops_per_s", phase.completed as f64 / phase.seconds, "1/s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let factor = calib::factor(&s.calibration);
    println!(
        "host speed: median calibration slice {} ms over {} slices, reference {} ms, factor {factor}",
        stats::median(&s.calibration),
        s.calibration.len(),
        calib::REFERENCE_MS,
    );
    // Times scale by the factor, rates by its inverse; sizes stay.
    wall.into_iter()
        .map(|m| {
            println!("wall {} = {} {}", m.name, m.value, m.unit);
            let value = match m.unit {
                "s" | "ms" => m.value * factor,
                "1/s" => m.value / factor,
                _ => m.value,
            };
            metric(m.name, value, m.unit)
        })
        .collect()
}

/// Estimate pipeline stages the server times into
/// `efes_stage_latency_ms` (the `matching` stage there is `POST /match`).
const ESTIMATE_STAGES: [&str; 3] = ["mapping", "structure", "values"];

fn per_layer(phase: &Phase, before: &Scrape, after: &Scrape, replay: &Replay) -> Vec<Metric> {
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let per = |total: f64, count: usize| ratio(total, count as f64);
    let delta = |series: &str| after.get(series) - before.get(series);
    let spans = &replay.spans;
    let per_estimate = |span: &str| per(spans.total(span), replay.estimates);

    // From the HTTP phase's counters.
    let probe = &phase.probe;
    let hits = delta("efes_profile_cache_hits_total") + probe.retired_hits;
    let misses = delta("efes_profile_cache_misses_total") + probe.retired_misses;
    let served = &phase.samples;
    let estimates = served.estimate.len() + served.untimed_estimate.len();
    let round_trips: f64 =
        served.estimate.iter().sum::<f64>() + served.untimed_estimate.iter().sum::<f64>();
    let stage_ms: f64 = ESTIMATE_STAGES
        .iter()
        .map(|stage| delta(&format!("efes_stage_latency_ms_sum{{stage=\"{stage}\"}}")))
        .sum();
    let resident = probe
        .max_resident_bytes
        .max(before.get("efes_ingest_resident_bytes"))
        .max(after.get("efes_ingest_resident_bytes"));

    // From the replay.
    let convert = per_estimate("csg.convert") + per_estimate("csg.convert.free");
    let csg = convert
        + ["csg.match", "csg.detect", "csg.plan"]
            .map(per_estimate)
            .iter()
            .sum::<f64>();
    let values = per_estimate("core.values");
    let profile = per_estimate("profiling.profile");
    let mapping = per_estimate("core.mapping");
    let wall = per_estimate("trace.estimate");
    let covered = csg + values + mapping;

    vec![
        metric(
            "ingest.parse_ms",
            per(spans.total("ingest.parse"), replay.uploads),
            "ms",
        ),
        metric(
            "ingest.insert_ms",
            per(spans.total("ingest.insert"), replay.uploads),
            "ms",
        ),
        metric("ingest.resident_mb", resident / (1u64 << 20) as f64, "MiB"),
        metric("core.mapping_ms", mapping, "ms"),
        metric("core.structure_ms", per_estimate("core.structure"), "ms"),
        metric("core.values_ms", values, "ms"),
        metric("core.values_rest_ms", values - profile, "ms"),
        metric("csg.convert_ms", convert, "ms"),
        metric(
            "csg.convert_calls",
            per(spans.calls("csg.convert") as f64, replay.estimates),
            "count",
        ),
        metric("csg.match_ms", per_estimate("csg.match"), "ms"),
        metric("csg.detect_ms", per_estimate("csg.detect"), "ms"),
        metric("csg.plan_ms", per_estimate("csg.plan"), "ms"),
        metric("profiling.profile_ms", profile, "ms"),
        metric(
            "profiling.cache_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric(
            "profiling.delta_rows",
            per(delta("efes_profile_delta_rows_total"), served.upload.len()),
            "count",
        ),
        metric(
            "profiling.shard_chunks",
            per(delta("efes_profile_shard_chunks_total"), estimates),
            "count",
        ),
        metric(
            "matching.propose_ms",
            per(spans.total("matching.propose"), replay.matches),
            "ms",
        ),
        metric(
            "matching.pruned_ratio",
            ratio(
                spans.total("matching.pairs_pruned"),
                spans.total("matching.pairs_total"),
            ),
            "ratio",
        ),
        metric(
            "serve.overhead_ms",
            per(round_trips - stage_ms, estimates),
            "ms",
        ),
        metric("serve.encode_ms", per_estimate("serve.encode"), "ms"),
        metric("trace.estimate_ms", wall, "ms"),
        metric("trace.coverage", ratio(covered, wall), "ratio"),
        metric("trace.residual_ms", wall - covered, "ms"),
    ]
}

fn main() {
    let args = parse_args();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "error_rate = {error_rate} ratio ({} failed of {} attempted)",
        outcome.failed, outcome.attempted
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
