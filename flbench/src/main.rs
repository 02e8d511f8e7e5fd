//! The repository benchmark: live plain and SecAgg rounds, a
//! multi-tenant check-in storm, and the multi-tenant DES.
//!
//! ```text
//! cargo run --release --manifest-path flbench/Cargo.toml -- \
//!     --workload plain_rounds --seed 1 --seconds 12 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is the JSON result
//! with every end-to-end metric; with `--trace 1` it carries every
//! per-layer metric, derived from the span trace of a traced run and an
//! in-process replay of the same inputs. Both runs check the program's
//! outputs and exit non-zero when a check fails. `WORKLOADS.md` records
//! why each workload exists and what it loads.

mod gen;
mod replay;
mod rounds;
mod sim;
mod stats;
mod storm;
mod trace;

use stats::{median, result_line, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Every end-to-end metric, with its unit, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rounds_per_s", "1/s"),
    ("round_p50_ms", "ms"),
    ("round_tail_ms", "ms"),
    ("checkin_max_rate", "1/s"),
    ("sim_device_hours_per_s", "1/s"),
];

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.frames", "count"),
    ("wire.bytes", "B"),
    ("wire.encode_ms", "ms"),
    ("wire.decode_ms", "ms"),
    ("wire.checkin_frame_us", "us"),
    ("selector.checkin_ns", "ns"),
    ("selector.accepts", "count"),
    ("selector.sheds", "count"),
    ("selector.held_checkin_ns", "ns"),
    ("coordinator.checkin_ns", "ns"),
    ("coordinator.report_us", "us"),
    ("coordinator.begin_round_us", "us"),
    ("coordinator.reports_accepted", "count"),
    ("coordinator.reports_rejected", "count"),
    ("telemetry.record_ns", "ns"),
    ("telemetry.events", "count"),
    ("codec.decode_us", "us"),
    ("aggregator.accept_us", "us"),
    ("aggregator.merge_ms", "ms"),
    ("aggregator.shards", "count"),
    ("secagg.close_ms", "ms"),
    ("secagg.recoveries", "count"),
    ("secagg.aborts", "count"),
    ("storage.commit_us", "us"),
    ("storage.writes", "count"),
    ("device.execute_ms", "ms"),
    ("device.update_bytes", "B"),
    ("live.config_wait_ms", "ms"),
    ("live.ack_wait_ms", "ms"),
    ("live.complete_ms", "ms"),
    ("live.unexplained_ms", "ms"),
    ("live.checkin_p50_us", "us"),
    ("live.checkin_tail_ms", "ms"),
    ("sim.wall_s", "s"),
    ("sim.checkins_per_s", "1/s"),
    ("sim.rounds_committed", "count"),
    ("gen.lateness_max_ms", "ms"),
    ("gen.busy_frac", "ratio"),
    ("gen.unanswered", "count"),
    ("storm.top_rung_fails", "count"),
    ("trace.overhead_frac", "ratio"),
    ("setup.execute_s", "s"),
    ("setup.frames_s", "s"),
    ("setup.spawn_s", "s"),
];

/// A run sets up at least `SETUPS` times, and keeps repeating a cheap
/// set-up until `SETUP_BUDGET_S` is spent (at most `SETUPS_MAX` times);
/// `setup_s` is the median.
pub const SETUPS: usize = 3;
/// See [`SETUPS`].
pub const SETUPS_MAX: usize = 15;
/// See [`SETUPS`].
pub const SETUP_BUDGET_S: f64 = 1.0;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "plain_rounds",
    "secagg_rounds",
    "checkin_storm",
    "sim_multi_tenant",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric measured (end-to-end and per-layer).
    pub metrics: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output-check failures; empty when correct.
    pub problems: Vec<String>,
    /// Span dump and self-time table, for traced runs.
    pub trace: Option<(String, String)>,
}

/// Times repeated set-ups (see [`SETUPS`]), keeps the last, and reports
/// the median total and the median of each part of the split.
pub fn repeat_setup<T>(
    mut once: impl FnMut() -> (T, [f64; 3]),
    mut discard: impl FnMut(T),
    metrics: &mut Metrics,
) -> T {
    let started = Instant::now();
    let mut totals = Vec::new();
    let mut splits = Vec::new();
    let kept = loop {
        let t = Instant::now();
        let (value, split) = once();
        totals.push(t.elapsed().as_secs_f64());
        splits.push(split);
        let more = totals.len() < SETUPS
            || (totals.len() < SETUPS_MAX && started.elapsed().as_secs_f64() < SETUP_BUDGET_S);
        if !more {
            break value;
        }
        discard(value);
    };
    metrics.put("setup_s", median(&totals), "s");
    let part = |k: usize| median(&splits.iter().map(|s| s[k]).collect::<Vec<_>>());
    metrics.put("setup.execute_s", part(0), "s");
    metrics.put("setup.frames_s", part(1), "s");
    metrics.put("setup.spawn_s", part(2), "s");
    kept
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("flbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "flbench: workload {} seed {} for {} s (trace {}) on {} cpus",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut outcome = match args.workload.as_str() {
        "plain_rounds" => rounds::workload(rounds::Kind::Plain, &args),
        "secagg_rounds" => rounds::workload(rounds::Kind::SecAgg, &args),
        "checkin_storm" => storm::workload(&args),
        _ => sim::workload(&args),
    };
    if !args.trace {
        outcome
            .metrics
            .put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }
    if let Some((spans, table)) = &outcome.trace {
        let dir = PathBuf::from(".bench_out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.jsonl")), spans))
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.layers.txt")), table));
        match written {
            Ok(()) => {
                eprintln!("flbench: spans and self-time table written to .bench_out/{stem}.*")
            }
            Err(e) => outcome
                .problems
                .push(format!("writing the trace failed: {e}")),
        }
        eprintln!("{table}");
    }
    eprint!("{}", outcome.metrics.render());
    for p in &outcome.problems {
        eprintln!("flbench: check failed: {p}");
    }
    let shown = if args.trace {
        outcome.metrics.select(PER_LAYER)
    } else {
        outcome.metrics.select(END_TO_END)
    };
    let correct = outcome.problems.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, &shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
