//! benchmarks_md — render the committed `benches/BENCH_*.json`
//! snapshots into a criterion-table-style `BENCHMARKS.md`.
//!
//! The bench report binaries each write one JSON snapshot; this bin is
//! the presentation layer, turning those snapshots into the familiar
//! comparison-table format (first column of every row is the 1.00x
//! baseline, later columns annotated faster/slower). It never runs a
//! benchmark itself, so regenerating the markdown is instant and
//! byte-deterministic for a given set of snapshots.
//!
//! Flags: `--benches <dir>` (default `benches`), `--out <file>`
//! (default `BENCHMARKS.md`).

use serde::content_get;
use serde_json::Value;
use std::fmt::Write as _;

/// One comparison table: a header row of column labels plus rows of
/// `(label, values-in-nanoseconds)`. The first value in each row is
/// that row's 1.00x baseline.
struct Table {
    title: String,
    note: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

fn fmt_time(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

fn cell(base: f64, v: f64) -> String {
    let ratio = if base > 0.0 { v / base } else { 1.0 };
    let t = fmt_time(v);
    if (ratio - 1.0).abs() <= 0.05 {
        format!("`{t}` (✅ **{ratio:.2}x**)")
    } else if ratio > 1.0 {
        format!("`{t}` (❌ *{ratio:.2}x slower*)")
    } else {
        format!("`{t}` (🚀 **{:.2}x faster**)", 1.0 / ratio)
    }
}

fn render_table(out: &mut String, t: &Table) {
    let _ = writeln!(out, "#### {}\n", t.title);
    if !t.note.is_empty() {
        let _ = writeln!(out, "{}\n", t.note);
    }
    let mut header = String::from("|        |");
    let mut rule = String::from("|:-------|");
    for c in &t.columns {
        let _ = write!(header, " `{c}` |");
        rule.push_str(":---|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for (label, vals) in &t.rows {
        let base = vals.first().copied().unwrap_or(0.0);
        let mut row = if label.is_empty() {
            String::from("|        |")
        } else {
            format!("| `{label}` |")
        };
        for &v in vals {
            let _ = write!(row, " {} |", cell(base, v));
        }
        let _ = writeln!(out, "{row}");
    }
    out.push('\n');
}

// --- snapshot access helpers over the vendored Value tree ------------

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    content_get(v.as_map()?, key)
}

fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::I64(n) => Some(n as f64),
        Value::U64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

fn numf(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(num)
}

fn field<'a>(report: &'a Value, key: &str) -> Option<&'a Value> {
    get(report, "fields").and_then(|f| get(f, key))
}

fn fieldf(report: &Value, key: &str) -> Option<f64> {
    field(report, key).and_then(num)
}

/// The per-experiment stage timings, in file order.
fn stages_table(report: &Value) -> Option<Table> {
    let stages = get(report, "stages")?.as_map()?;
    let mut columns = Vec::new();
    let mut vals = Vec::new();
    for (k, v) in stages {
        columns.push(k.as_str()?.to_string());
        vals.push(num(v)? * 1e6); // stages are milliseconds
    }
    if columns.is_empty() {
        return None;
    }
    Some(Table {
        title: "build stages".into(),
        note: "Wall time of each build/prepare stage; the first stage is the baseline.".into(),
        columns,
        rows: vec![(String::new(), vals)],
    })
}

/// Tables for one experiment: the generic stages table plus any
/// report-specific sweeps we know how to read.
fn tables_for(name: &str, report: &Value) -> Vec<Table> {
    let mut out = Vec::new();
    match name {
        "batch" => {
            // Batched vs one-at-a-time serving: per-query service time
            // at each batch size, sequential singles as the baseline.
            if let (Some(seq_rps), Some(Value::Seq(sweep))) =
                (fieldf(report, "sequential_rps"), field(report, "sweep"))
            {
                let mut columns = vec!["one-at-a-time".to_string()];
                let mut vals = vec![1e9 / seq_rps];
                for point in sweep {
                    let (Some(b), Some(rps)) =
                        (numf(point, "batch_size"), numf(point, "throughput_rps"))
                    else {
                        continue;
                    };
                    columns.push(format!("batch of {b}"));
                    vals.push(1e9 / rps);
                }
                out.push(Table {
                    title: "batched vs one-at-a-time serving".into(),
                    note: format!(
                        "Per-query service time over a real socket, {} queries across all \
                         eight search families on a {}-table lake; every sub-reply is \
                         asserted byte-equal to the in-process oracle before timing counts.",
                        fieldf(report, "total_queries").unwrap_or(0.0),
                        fieldf(report, "tables").unwrap_or(0.0),
                    ),
                    columns,
                    rows: vec![(String::new(), vals)],
                });
            }
            if let Some(Value::Seq(fams)) = field(report, "families") {
                let rows = fams
                    .iter()
                    .filter_map(|f| {
                        let name = get(f, "family")?.as_str()?.to_string();
                        let seq = numf(f, "sequential_rps")?;
                        let b16 = numf(f, "batch16_rps")?;
                        Some((name, vec![1e9 / seq, 1e9 / b16]))
                    })
                    .collect::<Vec<_>>();
                if !rows.is_empty() {
                    out.push(Table {
                        title: "per-family speedup at batch=16".into(),
                        note: "Families dominated by per-request overhead batch best; \
                               compute-bound families (fuzzy join) batch least."
                            .into(),
                        columns: vec!["one-at-a-time".into(), "batch of 16".into()],
                        rows,
                    });
                }
            }
        }
        "shard" => {
            if let Some(Value::Seq(sweep)) = field(report, "sweep") {
                let mut columns = Vec::new();
                let mut per_req = Vec::new();
                let mut p95 = Vec::new();
                for point in sweep {
                    let (Some(s), Some(rps), Some(p)) = (
                        numf(point, "shards"),
                        numf(point, "throughput_rps"),
                        numf(point, "p95_ms"),
                    ) else {
                        continue;
                    };
                    columns.push(format!("{s} shard(s)"));
                    per_req.push(1e9 / rps);
                    p95.push(p * 1e6);
                }
                if !columns.is_empty() {
                    out.push(Table {
                        title: "scatter-gather vs shard count".into(),
                        note: "Per-request service time and p95 latency as the lake is \
                               partitioned; every reply is asserted byte-equal to the \
                               single-pipeline oracle."
                            .into(),
                        columns,
                        rows: vec![("per-request".into(), per_req), ("p95".into(), p95)],
                    });
                }
            }
        }
        "ingest" => {
            if let Some(Value::Seq(knee)) = field(report, "segment_knee") {
                let mut columns = Vec::new();
                let mut snap = Vec::new();
                let mut mix = Vec::new();
                for point in knee {
                    let (Some(s), Some(sm), Some(qm)) = (
                        numf(point, "segments"),
                        numf(point, "snapshot_ms"),
                        numf(point, "query_mix_ms"),
                    ) else {
                        continue;
                    };
                    columns.push(format!("{s} segment(s)"));
                    snap.push(sm * 1e6);
                    mix.push(qm * 1e6);
                }
                if !columns.is_empty() {
                    out.push(Table {
                        title: "segmented ingest knee".into(),
                        note: "Snapshot cost and query-mix latency as live segments \
                               accumulate before compaction."
                            .into(),
                        columns,
                        rows: vec![("snapshot".into(), snap), ("query mix".into(), mix)],
                    });
                }
            }
        }
        "store" => {
            if let (Some(rebuild), Some(restore)) =
                (fieldf(report, "rebuild_ms"), fieldf(report, "restore_ms"))
            {
                out.push(Table {
                    title: "cold start: rebuild vs restore".into(),
                    note: "Booting the pipeline from raw tables vs from a td-store \
                           snapshot + WAL."
                        .into(),
                    columns: vec!["full rebuild".into(), "snapshot restore".into()],
                    rows: vec![(String::new(), vec![rebuild * 1e6, restore * 1e6])],
                });
            }
        }
        "trace" => {
            if let Some(Value::Seq(rounds)) = field(report, "overhead_rounds") {
                let rows = rounds
                    .iter()
                    .filter_map(|r| {
                        let round = numf(r, "round")?;
                        let off = numf(r, "off_p95_ns")?;
                        let on = numf(r, "on_p95_ns")?;
                        Some((format!("round {round} p95"), vec![off, on]))
                    })
                    .collect::<Vec<_>>();
                if !rows.is_empty() {
                    out.push(Table {
                        title: "tracing overhead".into(),
                        note: "p95 request latency with td-trace off (baseline) vs on; \
                               the trace_report binary asserts the overhead budget."
                            .into(),
                        columns: vec!["tracing off".into(), "tracing on".into()],
                        rows,
                    });
                }
            }
        }
        "serve" => {
            if let Some(Value::Seq(endpoints)) = field(report, "endpoints") {
                let rows = endpoints
                    .iter()
                    .filter_map(|e| {
                        let name = get(e, "endpoint")?.as_str()?.to_string();
                        let p50 = numf(e, "p50_ns")?;
                        let p95 = numf(e, "p95_ns")?;
                        let p99 = numf(e, "p99_ns")?;
                        Some((name, vec![p50, p95, p99]))
                    })
                    .collect::<Vec<_>>();
                if !rows.is_empty() {
                    out.push(Table {
                        title: "per-endpoint service latency".into(),
                        note: "p50 is each endpoint's baseline; the slower markers show \
                               tail amplification, not a regression."
                            .into(),
                        columns: vec!["p50".into(), "p95".into(), "p99".into()],
                        rows,
                    });
                }
            }
        }
        "lint" => {
            let mut columns = Vec::new();
            let mut vals = Vec::new();
            for rule in [
                "rule_ns_parse",
                "rule_ns_graph",
                "rule_ns_TD007",
                "rule_ns_TD008",
                "rule_ns_TD009",
                "rule_ns_TD010",
                "rule_ns_TD011",
                "rule_ns_TD012",
            ] {
                if let Some(ns) = fieldf(report, rule) {
                    columns.push(rule.trim_start_matches("rule_ns_").to_string());
                    vals.push(ns);
                }
            }
            if !columns.is_empty() {
                out.push(Table {
                    title: "lint pass timings".into(),
                    note: format!(
                        "Full-workspace scan over {} files; parse is the baseline.",
                        fieldf(report, "files_scanned").unwrap_or(0.0)
                    ),
                    columns,
                    rows: vec![(String::new(), vals)],
                });
            }
        }
        _ => {}
    }
    if let Some(t) = stages_table(report) {
        out.push(t);
    }
    out
}

/// One-line summary under each experiment heading.
fn headline(name: &str, report: &Value) -> String {
    let wall = numf(report, "wall_ms").map_or_else(String::new, |w| {
        format!(" Snapshot wall time {}.", fmt_time(w * 1e6))
    });
    let extra = match name {
        "batch" => fieldf(report, "speedup_batch16_vs_sequential").map(|s| {
            format!(
                " Batch-of-16 frames serve {s:.2}x the one-at-a-time throughput \
                 on the snapshot machine ({} core(s)).",
                fieldf(report, "cores").unwrap_or(0.0)
            )
        }),
        "shard" => fieldf(report, "speedup_4shard_vs_1shard").map(|s| {
            format!(
                " 4 shards serve {s:.2}x the 1-shard throughput on the snapshot \
                 machine ({} core(s)).",
                fieldf(report, "cores").unwrap_or(0.0)
            )
        }),
        "store" => fieldf(report, "speedup_vs_rebuild")
            .map(|s| format!(" Restore is {s:.2}x cheaper than a full rebuild.")),
        "lint" => fieldf(report, "unwaived_total")
            .map(|n| format!(" {n} unwaived diagnostics (asserted zero).")),
        _ => None,
    };
    format!("{}{}", extra.unwrap_or_default(), wall)
}

fn main() {
    let mut benches_dir = "benches".to_string();
    let mut out_path = "BENCHMARKS.md".to_string();
    td_bench::parse_flags(&mut [("--benches", &mut benches_dir), ("--out", &mut out_path)]);

    let mut snapshots: Vec<(String, Value)> = Vec::new();
    let entries = std::fs::read_dir(&benches_dir).expect("read benches dir");
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("read snapshot");
        let v = serde_json::parse_value(&text).expect("parse snapshot");
        let name = get(&v, "experiment")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        snapshots.push((name, v));
    }
    assert!(
        !snapshots.is_empty(),
        "no BENCH_*.json snapshots under {benches_dir}"
    );

    let mut md = String::new();
    md.push_str("# Benchmarks\n\n## Table of Contents\n\n");
    md.push_str("- [Overview](#overview)\n- [Benchmark Results](#benchmark-results)\n");
    for (name, _) in &snapshots {
        let _ = writeln!(md, "    - [{name}](#{name})");
    }
    md.push_str(
        "\n## Overview\n\n\
         Comparison tables rendered from the committed `benches/BENCH_*.json`\n\
         snapshots. The first column of every row is that row's `1.00x`\n\
         baseline; later columns are annotated relative to it. Absolute\n\
         numbers are one machine's datapoint — the *relations* are the\n\
         contract, asserted by the report binaries themselves (a snapshot\n\
         violating them cannot be regenerated, because the generator aborts\n\
         instead of writing it). Regenerate this file with\n\
         `cargo run --release -p td-bench --bin benchmarks_md` after\n\
         refreshing any snapshot.\n\n\
         ## Benchmark Results\n\n",
    );
    for (name, report) in &snapshots {
        let _ = writeln!(md, "### {name}\n");
        let line = headline(name, report);
        if !line.is_empty() {
            let _ = writeln!(md, "{}\n", line.trim_start());
        }
        for t in tables_for(name, report) {
            render_table(&mut md, &t);
        }
    }
    md.push_str("---\nGenerated by `td-bench --bin benchmarks_md` from `benches/BENCH_*.json`.\n");

    std::fs::write(&out_path, &md).expect("write BENCHMARKS.md");
    println!(
        "wrote {out_path} from {} snapshot(s) under {benches_dir}",
        snapshots.len()
    );
}
