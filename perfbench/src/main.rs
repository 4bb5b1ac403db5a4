//! The SUNMAP benchmark: four workloads against the release build, each
//! output checked, end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one.
//!
//! ```text
//! sunmap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                  [--sunmap <path>] [--capture <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; everything else goes
//! to standard error. A wrong output exits with code 1. See
//! `perfbench/README.md` for the workloads and metric definitions.

mod expected;
mod explore;
mod serve;
mod sim;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::expected::Checker;
use crate::util::Outcome;

const WORKLOADS: [&str; 4] = [
    "explore-strict",
    "explore-relaxed",
    "serve-mixed",
    "sim-ladder",
];

/// End-to-end metrics: every workload reports each of them untraced.
const END_TO_END: [&str; 4] = ["setup_s", "wall_s", "latency_ms", "peak_rss_mb"];

/// Per-layer metrics: every workload reports each of them traced, with
/// 0 for a layer the workload does not reach (its prediction is "no
/// change" there).
const PER_LAYER: [(&str, &str); 31] = [
    ("table.build_ms", "ms"),
    ("table.pairs_materialized", "count"),
    ("request.execute_ms", "ms"),
    ("request.route_table_ms", "ms"),
    ("request.cache_hit_ratio", "ratio"),
    ("mapping.greedy_ms", "ms"),
    ("mapping.search_ms", "ms"),
    ("mapping.evaluated", "count"),
    ("mapping.evals_per_s", "1/s"),
    ("mapping.infeasible_ms", "ms"),
    ("mapping.infeasible_share", "ratio"),
    ("mapping.evaluated_infeasible", "count"),
    ("floorplan.ms", "ms"),
    ("floorplan.share", "ratio"),
    ("serve.ping_rtt_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.errors", "count"),
    ("serve.write_timeouts", "count"),
    ("sim.plan_ms", "ms"),
    ("sim.cycles_per_s", "1/s"),
    ("sim.low.cycles_per_s", "1/s"),
    ("sim.high.cycles_per_s", "1/s"),
    ("sim.measured_cycles", "count"),
    ("sim.packets_delivered", "count"),
    ("sim.event_share", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sunmap: PathBuf,
    capture: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sunmap: PathBuf::from("target/release/sunmap"),
        capture: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--sunmap" => args.sunmap = PathBuf::from(value()?),
            "--capture" => args.capture = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu_before = util::cpu_ticks();
    let mut checker = Checker::new(&args.workload, args.seed, args.capture.clone());
    let mut out = match args.workload.as_str() {
        "explore-strict" | "explore-relaxed" => explore::run(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &mut checker,
        ),
        "serve-mixed" => serve::run(
            &args.sunmap,
            args.seed,
            args.seconds,
            args.trace,
            &mut checker,
        ),
        _ => sim::run(args.seed, args.seconds, args.trace, &mut checker),
    };
    if let Err(e) = checker.finish() {
        out.mismatch(e);
    }
    // A virtual machine's host may run other guests on its CPUs; time
    // stolen that way slows every timing in the run.
    if let (Some((busy0, steal0)), Some((busy1, steal1))) = (cpu_before, util::cpu_ticks()) {
        let stolen = steal1.saturating_sub(steal0);
        let total = busy1.saturating_sub(busy0) + stolen;
        if total > 0 {
            eprintln!(
                "cpu time stolen by the host during the run: {:.1}%",
                100.0 * stolen as f64 / total as f64
            );
        }
    }
    eprintln!(
        "{}: seed {} ({}), {} attempted, {} failed",
        args.workload,
        args.seed,
        if checker.seed_captured() {
            "checked against captured outputs"
        } else {
            "no captured outputs for this seed; cross-checks only"
        },
        out.attempted,
        out.failed
    );
    if args.trace {
        eprint!("{}", out.summary);
        let dir = PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
        )
        .join("perfbench");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &out.spans)) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    print_result(&args, &mut out)
}

fn print_result(args: &Args, out: &mut Outcome) -> ExitCode {
    let mut fields = Vec::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = out
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            fields.push((name, value, unit));
        }
    } else {
        for name in END_TO_END {
            match out.metrics.iter().find(|m| m.name == name) {
                Some(m) => fields.push((name, m.value, m.unit)),
                None => out.mismatch(format!("the workload did not measure {name}")),
            }
        }
    }
    for (name, value, unit) in &fields {
        eprintln!("  {name:<30} {value:>16.6} {unit}");
        if !value.is_finite() {
            out.mismatch(format!("{name} is not a finite number"));
        }
    }
    let metrics: Vec<String> = fields
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    for m in out.mismatches.iter().take(20) {
        eprintln!("MISMATCH {m}");
    }
    let correct = out.mismatches.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
