//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from a single process and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics, or per-layer metrics with
//! `--trace 1`). Scratch stores and the span log go under
//! `.perfbench-run/` in the working directory.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::stats::result_json;
use perfbench::trace::SpanLog;
use perfbench::workloads::{self, Env, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench-run");
    let dir = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    let mut env = Env {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: dir.clone(),
        spans: SpanLog::new(false, origin),
    };
    let outcome = workloads::run(&args.workload, &mut env);
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.verdict.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} checks, {} failed; {} cores",
        args.workload,
        args.seed,
        outcome.verdict.checked,
        outcome.verdict.failed,
        workloads::cores()
    );
    let metrics = if args.trace {
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, env.spans.to_json_lines()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
            eprintln!("perfbench:   {:<48} {:>14.4} {}", m.name, m.value, m.unit);
        }
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    println!(
        "{}",
        result_json(
            outcome.verdict.ok(),
            outcome.attempted.max(1),
            outcome.failed,
            metrics
        )
    );
    ExitCode::SUCCESS
}
