//! Benchmark entry point: one workload per process.
//!
//! ```text
//! jqos-perfbench --workload <crwan-paths|caching-fanin|relay-paced>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `host` line, a few informational lines, and as its last line
//! the result object.  Traced runs also write their per-layer numbers to
//! `perfbench/out/` under the current directory, which must be the
//! repository root.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use jqos_perfbench::host::HostInfo;
use jqos_perfbench::relay::{self, RelaySize};
use jqos_perfbench::report::RunReport;
use jqos_perfbench::sim::{self, SimKind, SimSize};
use jqos_perfbench::traced;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<RunReport, String> {
    let sim_kind = match args.workload.as_str() {
        "crwan-paths" => Some(SimKind::CrwanPaths),
        "caching-fanin" => Some(SimKind::CachingFanin),
        "relay-paced" => None,
        other => return Err(format!("unknown workload {other}")),
    };
    let start = Instant::now();
    let report = match (sim_kind, args.trace) {
        (Some(kind), false) => sim::run_untraced(kind, args.seed, args.seconds, SimSize::FULL),
        (Some(kind), true) => {
            let (report, untraced_s, traced_s) = traced::run_traced(kind, args.seed, SimSize::FULL);
            println!(
                "trace_overhead {{\"untraced_round_s\": {untraced_s:.4}, \"traced_round_s\": {traced_s:.4}, \"overhead_s\": {:.4}}}",
                traced_s - untraced_s
            );
            report
        }
        (None, trace) => relay::run(args.seed, args.seconds, RelaySize::FULL, trace)
            .map_err(|e| format!("relay-paced: {e}"))?,
    };
    println!(
        "run {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"wall_s\": {:.3}}}",
        args.workload,
        args.seed,
        args.trace,
        start.elapsed().as_secs_f64()
    );
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| ".".into());
    println!("host {}", HostInfo::probe(&root).to_json());
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    if args.trace {
        let dir = Path::new("perfbench").join("out");
        let file = dir.join(format!("{}-seed{}-trace.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&file, report.to_json()))
        {
            eprintln!("warning: could not write {}: {e}", file.display());
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
