//! Harness support for the experiment binaries: aligned-table printing,
//! timing (re-exported from `td-obs`), JSONL result records, the
//! [`BenchReport`] emitter that writes machine-readable `BENCH_<exp>.json`
//! telemetry alongside each experiment's stdout table, the report
//! binaries' `--flag value` parser ([`parse_flags`]), and the
//! nearest-rank [`quantile`] of a sorted sample.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

use std::io::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

pub use td_obs::{time, ScopedTimer, Timer};

use serde_json::Value;

/// Print an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    // td-lint: allow(TD004) the harness's job is printing human-readable tables
    println!("\n{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("  ");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        // td-lint: allow(TD004) the harness's job is printing human-readable tables
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|h| (*h).to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Milliseconds with two decimals.
#[must_use]
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// A command-line flag's destination: parsing its value overwrites the
/// default already stored there.
pub trait FlagValue {
    /// Parse `raw` into `self`; `false` leaves `self` unchanged.
    fn set(&mut self, raw: &str) -> bool;
}

impl<T: FromStr> FlagValue for T {
    fn set(&mut self, raw: &str) -> bool {
        raw.parse().map(|v| *self = v).is_ok()
    }
}

/// Apply `--name value` pairs from `argv` (program name excluded) to
/// `flags`, each a flag name and the field holding its default.
///
/// # Errors
/// Names the offending argument: an unknown flag, a flag without a
/// value, or a value that does not parse.
pub fn parse_flags_from(
    argv: &[String],
    flags: &mut [(&str, &mut dyn FlagValue)],
) -> Result<(), String> {
    let mut args = argv.iter();
    while let Some(name) = args.next() {
        let Some((_, slot)) = flags.iter_mut().find(|(n, _)| n == name) else {
            return Err(format!("unknown flag '{name}'"));
        };
        let Some(raw) = args.next() else {
            return Err(format!("flag '{name}' needs a value"));
        };
        if !slot.set(raw) {
            return Err(format!("bad value '{raw}' for flag '{name}'"));
        }
    }
    Ok(())
}

/// [`parse_flags_from`] over the process arguments; on a bad argument,
/// print the error and the accepted flags to stderr and exit with code 2.
pub fn parse_flags(flags: &mut [(&str, &mut dyn FlagValue)]) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = parse_flags_from(&argv, flags) {
        let names: Vec<&str> = flags.iter().map(|(n, _)| *n).collect();
        // td-lint: allow(TD004) a command-line error goes to the binary's stderr
        eprintln!("error: {e}\nflags: {}", names.join(" "));
        std::process::exit(2);
    }
}

/// The `q`-quantile of an ascending sample: the element at rank
/// `round((len - 1) * q)`, or `T::default()` for an empty sample.
#[must_use]
pub fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Append a JSON result record to `target/experiments.jsonl` (best-effort;
/// printing remains the primary output).
pub fn record(experiment: &str, payload: &Value) {
    let rec = serde_json::json!({ "experiment": experiment, "payload": payload });
    if let Ok(json) = serde_json::to_string(&rec) {
        let path = std::path::Path::new("target");
        // td-lint: allow(TD011) best-effort: if the dir cannot be made the OpenOptions below reports the real error
        let _ = std::fs::create_dir_all(path);
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.join("experiments.jsonl"))
        {
            let _ = writeln!(f, "{json}");
        }
    }
}

/// Accumulates one experiment's telemetry — wall time, named stage
/// timings, scalar result fields, and the `td-obs` global metrics
/// snapshot (span histograms, query counters) — and writes it as
/// `BENCH_<experiment>.json` in the working directory.
///
/// ```no_run
/// let mut report = td_bench::BenchReport::new("e99_demo");
/// let sum = report.measure("build", || (0..1000u64).sum::<u64>());
/// report.field("sum", &sum);
/// report.finish();
/// ```
pub struct BenchReport {
    experiment: String,
    wall: Timer,
    stages: Vec<(String, f64)>,
    fields: Vec<(String, Value)>,
}

impl BenchReport {
    /// Start a report; wall-clock measurement begins now.
    #[must_use]
    pub fn new(experiment: &str) -> Self {
        BenchReport {
            experiment: experiment.to_string(),
            wall: Timer::start(),
            stages: Vec::new(),
            fields: Vec::new(),
        }
    }

    /// Record a named stage duration (milliseconds in the report).
    pub fn stage(&mut self, name: &str, d: Duration) -> &mut Self {
        self.stages.push((name.to_string(), d.as_secs_f64() * 1e3));
        self
    }

    /// Run `f`, record its duration as a stage, and return its result.
    pub fn measure<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let (out, d) = time(f);
        self.stage(name, d);
        out
    }

    /// Attach a scalar or structured result field (P@k, MAP, sizes, …).
    pub fn field<T: serde::Serialize + ?Sized>(&mut self, key: &str, value: &T) -> &mut Self {
        self.fields
            .push((key.to_string(), serde_json::to_value(value)));
        self
    }

    /// Merge every key of a `json!({...})` object into the result fields.
    pub fn merge(&mut self, payload: &Value) -> &mut Self {
        if let Some(map) = payload.as_map() {
            for (k, v) in map {
                if let Some(key) = k.as_str() {
                    self.fields.push((key.to_string(), v.clone()));
                }
            }
        }
        self
    }

    /// The report as a JSON value: `experiment`, `wall_ms`, `stages`,
    /// `fields`, and the `td-obs` global registry snapshot under
    /// `metrics`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let stages = Value::Map(
            self.stages
                .iter()
                .map(|(k, v)| (Value::Str(k.clone()), serde_json::to_value(v)))
                .collect(),
        );
        let fields = Value::Map(
            self.fields
                .iter()
                .map(|(k, v)| (Value::Str(k.clone()), v.clone()))
                .collect(),
        );
        let metrics = serde_json::from_str(&td_obs::global().export_json()).unwrap_or(Value::Null);
        serde_json::json!({
            "experiment": self.experiment,
            "wall_ms": self.wall.elapsed_ms(),
            "stages": stages,
            "fields": fields,
            "metrics": metrics,
        })
    }

    /// Write `BENCH_<experiment>.json` (pretty-printed) in the working
    /// directory, returning the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.experiment));
        let json = serde_json::to_string_pretty(&self.to_json())
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }

    /// Write the report, logging the path (or the error) to stdout.
    pub fn finish(&self) {
        match self.write() {
            // td-lint: allow(TD004) finish() reports to the experiment's stdout by contract
            Ok(path) => println!("\nwrote {}", path.display()),
            // td-lint: allow(TD004) finish() reports to the experiment's stdout by contract
            Err(e) => eprintln!("\nfailed to write bench report: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_formats() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
    }

    #[test]
    fn time_returns_value() {
        let (v, d) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < u128::from(u64::MAX));
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn flags_overwrite_defaults_and_keep_the_rest() {
        let (mut tables, mut budget, mut out) =
            (10_000usize, 250.0f64, "BENCHMARKS.md".to_string());
        parse_flags_from(
            &argv(&["--tables", "32", "--out", "target/B.md"]),
            &mut [
                ("--tables", &mut tables),
                ("--budget", &mut budget),
                ("--out", &mut out),
            ],
        )
        .expect("valid flags");
        assert_eq!((tables, budget, out.as_str()), (32, 250.0, "target/B.md"));
        parse_flags_from(&[], &mut [("--tables", &mut tables)]).expect("no flags");
        assert_eq!(tables, 32);
    }

    #[test]
    fn bad_flags_are_named_not_ignored() {
        let mut tables = 10_000usize;
        let mut run = |args: &[&str]| {
            parse_flags_from(&argv(args), &mut [("--tables", &mut tables)]).unwrap_err()
        };
        assert_eq!(run(&["--tabels", "32"]), "unknown flag '--tabels'");
        assert_eq!(
            run(&["--tables", "3x"]),
            "bad value '3x' for flag '--tables'"
        );
        assert_eq!(run(&["--tables"]), "flag '--tables' needs a value");
        assert_eq!(run(&["32"]), "unknown flag '32'");
        assert_eq!(tables, 10_000, "a bad value leaves the default");
    }

    #[test]
    fn quantile_takes_the_nearest_rank() {
        let sample: Vec<u64> = (1..=10).collect();
        assert_eq!(quantile(&sample, 0.0), 1);
        // (10 - 1) * 0.5 = 4.5 rounds to rank 5.
        assert_eq!(quantile(&sample, 0.50), 6);
        // (10 - 1) * 0.95 = 8.55 rounds to rank 9.
        assert_eq!(quantile(&sample, 0.95), 10);
        assert_eq!(quantile(&sample, 1.0), 10);
        assert_eq!(quantile(&[7u128], 0.5), 7);
        assert_eq!(quantile::<u128>(&[], 0.5), 0);
    }

    #[test]
    fn report_round_trips_through_serde_json() {
        let mut report = BenchReport::new("unit_test");
        report.stage("build", Duration::from_millis(12));
        report.field("tables", &30u64);
        report.merge(&serde_json::json!({ "p_at_10": 0.75 }));
        let text = serde_json::to_string_pretty(&report.to_json()).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        let map = back.as_map().expect("report is an object");
        let get = |key: &str| {
            map.iter()
                .find(|(k, _)| k.as_str() == Some(key))
                .map(|(_, v)| v.clone())
        };
        assert!(get("experiment").is_some());
        assert!(get("wall_ms").is_some());
        assert!(get("stages").is_some());
        let fields = get("fields").unwrap();
        let fields = fields.as_map().unwrap();
        assert!(fields.iter().any(|(k, _)| k.as_str() == Some("p_at_10")));
        assert!(fields.iter().any(|(k, _)| k.as_str() == Some("tables")));
    }
}
