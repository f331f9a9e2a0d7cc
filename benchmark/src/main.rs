//! `adaptagg-benchmark`: the repo's benchmark (see `BENCHMARK.json` at
//! the root and `benchmark/README.md`).
//!
//! Driver mode runs one pass of one workload and prints one JSON object
//! as the last line of standard output:
//!
//! ```text
//! adaptagg-benchmark --workload scan_lowcard --seed 7 --seconds 8 --trace 0
//! ```
//!
//! Without `--workload` it runs every workload, both passes, and prints
//! every metric by name with its unit.

mod host;
mod layers;
mod run;
mod spans;
mod spec;
mod speed;
mod stats;
mod workloads;

use run::Report;
use spec::{MetricDef, WorkloadSpec, END_TO_END, PER_LAYER, RUN_SECONDS};
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage: adaptagg-benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--quick] [--out FILE]
       adaptagg-benchmark --emit-benchmark-json

  --workload NAME   run one pass of one workload and print a JSON result line
                    (omit to run every workload, both passes)
  --trace 0|1       0: end-to-end metrics, tracing off (default); 1: per-layer metrics
  --seed N          workload seed (default 7)
  --seconds S       seconds one pass measures (default: run_seconds of BENCHMARK.json)
  --quick           every relation / 20, 1 s passes: a smoke run, numbers not comparable
  --out FILE        also write every metric as tab-separated lines to FILE
";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    trace: bool,
    seed: u64,
    seconds: Option<f64>,
    quick: bool,
    out: Option<String>,
    /// Private to the all-workloads mode: write this pass's metric rows
    /// here and print neither the host stamp nor the result line.
    part: Option<String>,
    emit_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 7,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed must be a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds must be a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(value()?.clone()),
            "--part" => args.part = Some(value()?.clone()),
            "--emit-benchmark-json" => args.emit_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    spec::metric(name).map_or("", |d| d.unit)
}

/// The contract's result line.
fn result_line(report: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

fn describe_workload(w: &WorkloadSpec) -> String {
    format!(
        "{} node(s) x {} thread(s), {}, {} tuples, {} groups, M = {} entries, {}{}",
        w.nodes,
        w.threads,
        w.algo.label(),
        w.tuples,
        w.groups,
        w.memory,
        w.transport,
        if w.serve {
            ", served over the line protocol"
        } else {
            ""
        }
    )
}

fn print_report(report: &Report, defs: &[MetricDef]) {
    println!(
        "  {} ({} attempted, {} failed):",
        if report.traced {
            "per-layer, traced pass"
        } else {
            "end-to-end, tracing off"
        },
        report.attempted,
        report.failed
    );
    for d in defs {
        if let Some(v) = report.value(d.name) {
            println!("    {:38} {:>16.4} {}", d.name, v, d.unit);
        }
    }
    for note in &report.notes {
        println!("    # {note}");
    }
    for e in &report.errors {
        println!("    ! {e}");
    }
}

/// Write the traced pass's span log beside the benchmark, if the
/// benchmark's directory is where the command runs from.
fn write_spans(report: &Report) {
    let Some(json) = &report.spans_json else {
        return;
    };
    let dir = std::path::Path::new("benchmark/out");
    let path = dir.join(format!("trace-{}.json", report.workload));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        println!("    # span log not written ({}): {e}", path.display());
    }
}

fn run_pass(spec: &WorkloadSpec, args: &Args, seconds: f64) -> Report {
    if args.trace {
        let sample = if args.quick {
            layers::SAMPLE_TUPLES / 20
        } else {
            layers::SAMPLE_TUPLES
        };
        run::traced(spec, args.seed, seconds, sample)
    } else {
        run::end_to_end(spec, args.seed, seconds)
    }
}

const TSV_HEADER: &str = "workload\tkind\tmetric\tvalue\tunit\tbetter\tbound\n";

/// One tab-separated line per reported metric.
fn tsv_rows(report: &Report) -> String {
    let mut rows = String::new();
    for (name, value) in &report.metrics {
        let d = spec::metric(name).expect("reported metrics are defined");
        let _ = writeln!(
            rows,
            "{}\t{}\t{name}\t{value}\t{}\t{}\t{}",
            report.workload,
            if report.traced { "layer" } else { "e2e" },
            d.unit,
            d.better.as_str(),
            d.bound.map_or("-".to_string(), |b| b.to_string()),
        );
    }
    rows
}

/// Run one pass in a process of its own, exactly as the driver does, so
/// that `peak_rss_mb` and lazy first-use costs belong to that pass
/// alone. Returns the pass's metric rows and whether it was correct.
fn run_pass_in_child(
    spec: &WorkloadSpec,
    args: &Args,
    traced: bool,
    seconds: f64,
) -> Result<(String, bool), String> {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let part = dir.join("pass.tsv");
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        spec.name,
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args([
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .arg("--part")
    .arg(&part);
    if args.quick {
        cmd.arg("--quick");
    }
    let status = cmd.status().map_err(|e| format!("starting a pass: {e}"))?;
    let rows = std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
    let _ = std::fs::remove_file(&part);
    Ok((rows, status.success()))
}

fn main() -> ExitCode {
    let scrubbed = host::scrub_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let seconds = args
        .seconds
        .unwrap_or(if args.quick { 1.0 } else { RUN_SECONDS as f64 });
    let scale = |w: WorkloadSpec| if args.quick { w.quick() } else { w };
    let selected: Vec<WorkloadSpec> = match &args.workload {
        None => spec::workloads().into_iter().map(scale).collect(),
        Some(name) => match spec::workload(name) {
            Some(w) => vec![scale(w)],
            None => {
                let names: Vec<&str> = spec::workloads().iter().map(|w| w.name).collect();
                eprintln!(
                    "error: unknown workload '{name}' (known: {})",
                    names.join(", ")
                );
                return ExitCode::from(2);
            }
        },
    };

    if args.part.is_none() {
        let stamp = host::HostStamp::read();
        println!(
            "adaptagg-benchmark: nproc {} | {} | {} | commit {} | seed {} | {} s per pass{}",
            stamp.nproc,
            stamp.cpu_model,
            stamp.rustc,
            stamp.commit,
            args.seed,
            seconds,
            if args.quick {
                " | QUICK: relations / 20, numbers not comparable with full runs"
            } else {
                ""
            }
        );
        if !scrubbed.is_empty() {
            println!("removed from the environment: {}", scrubbed.join(", "));
        }
    }

    let mut all_correct = true;
    let mut tsv = String::from(TSV_HEADER);
    if args.workload.is_some() {
        // One pass of one workload, in this process.
        let spec = &selected[0];
        if args.part.is_none() {
            println!("== {}: {} ==", spec.name, describe_workload(spec));
        }
        let report = run_pass(spec, &args, seconds);
        print_report(&report, if report.traced { PER_LAYER } else { END_TO_END });
        write_spans(&report);
        all_correct = report.correct();
        let rows = tsv_rows(&report);
        tsv.push_str(&rows);
        match &args.part {
            Some(part) => {
                if let Err(e) = std::fs::write(part, rows) {
                    eprintln!("error: writing {part}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => println!("{}", result_line(&report)),
        }
    } else {
        for spec in &selected {
            println!("== {}: {} ==", spec.name, describe_workload(spec));
            for traced in [false, true] {
                match run_pass_in_child(spec, &args, traced, seconds) {
                    Ok((rows, correct)) => {
                        tsv.push_str(&rows);
                        all_correct &= correct;
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!(
            "{}",
            if all_correct {
                "all answers matched the reference"
            } else {
                "SOME ANSWERS WERE WRONG"
            }
        );
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &tsv) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv("--workload hit --seed 11 --seconds 8 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("hit"), 11, Some(8.0), true)
        );
        let a = parse_args(&[]).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.trace, a.quick),
            (None, 7, false, false)
        );
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: "w",
            traced: false,
            attempted: 12,
            failed: 0,
            errors: vec![],
            metrics: vec![("setup_s", 0.8127), ("serve.qps", 3.5)],
            notes: vec![],
            spans_json: None,
        };
        assert_eq!(
            result_line(&report),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \"serve.qps\": {\"value\": 3.5, \"unit\": \"1/s\"}}}"
        );
    }
}
