//! `ugc-perfbench`: the UGC performance benchmark.
//!
//! ```text
//! ugc-perfbench --workload <cpu-suite|serve-mix|sim-zoo> --seed N --seconds S --trace <0|1>
//!               [--repro PATH] [--trace-dir DIR]
//! ```
//!
//! Each workload builds its inputs from the seed, measures for the given
//! seconds, checks every output, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics (from spans the benchmark records around its calls
//! into each layer) with `--trace 1`. The exit code is non-zero when any
//! output was wrong. `perfbench/run.sh` builds everything and runs this.

mod metrics;
mod serve_mix;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{Metrics, SPAN_LAYERS};
use trace::Tracer;

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: an error, a missing reply, or a wrong answer.
    pub failed: u64,
    /// Wrong answers, described; any entry makes the run incorrect.
    pub wrong: Vec<String>,
    /// Every metric the workload measured, end-to-end and per layer.
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repro: PathBuf::from(".bench_build/release/repro"),
        trace_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--repro" => args.repro = PathBuf::from(value),
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// The program's environment knobs are fixed by the benchmark, not
/// inherited: no injected faults, budgets or fallbacks, telemetry on.
fn pin_environment(workload: &str) {
    for var in [
        "UGC_FAULTS",
        "UGC_BUDGET_MS",
        "UGC_BUDGET_CYCLES",
        "UGC_FALLBACK",
        "UGC_CACHE_BYTES",
        "UGC_THREADS",
    ] {
        std::env::remove_var(var);
    }
    std::env::set_var("UGC_TELEMETRY", "1");
    // The in-process workloads measure one thread against the sequential
    // reference; serve-mix leaves the daemon's pool at its default.
    if workload != "serve-mix" {
        std::env::set_var("UGC_THREADS", "1");
    }
}

/// This process's peak resident set in MB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ugc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment(&args.workload);
    let mut tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "cpu-suite" => suite::run(&suite::CPU_SUITE, args.seed, args.seconds, &mut tracer),
        "sim-zoo" => suite::run(&suite::SIM_ZOO, args.seed, args.seconds, &mut tracer),
        "serve-mix" => match serve_mix::run(&args.repro, args.seed, args.seconds, &mut tracer) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("ugc-perfbench: serve-mix: {e}");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("ugc-perfbench: unknown workload `{other}` (cpu-suite, serve-mix, sim-zoo)");
            return ExitCode::from(2);
        }
    };
    let m = &mut outcome.metrics;
    if !m.contains_key("peak_rss_mb") {
        m.insert("peak_rss_mb".into(), peak_rss_mb("self").unwrap_or(0.0));
    }
    m.insert(
        "fail_frac".into(),
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    if args.trace {
        for (layer, v) in tracer.mean_self_ms() {
            if SPAN_LAYERS.contains(&layer) {
                m.insert(format!("self_ms.{layer}"), v);
            }
        }
        let path = args
            .trace_dir
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
        }
    }
    for w in &outcome.wrong {
        eprintln!("WRONG: {w}");
    }
    let declared = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    for (name, unit) in &declared {
        eprintln!(
            "{name:<32} {:>14.4} {unit}",
            m.get(name).copied().unwrap_or(0.0)
        );
    }
    let correct = outcome.wrong.is_empty();
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, outcome.failed, &declared, m)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
