//! `toolbench` — the toolchain benchmark's command line.
//!
//! ```text
//! toolbench --workload <test_corners|paper_corners|mesh_paper> --seed <n>
//!           --seconds <s> --trace <0|1> [--points <k>] [--out <dir>]
//! toolbench --manifest
//! ```
//!
//! Prints each point's host time (wall, and at the reference host speed
//! of [`toolbench::calib`]) and every metric, then, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). Exits
//! non-zero when any point fails. A traced run writes its spans to
//! `<dir>/<workload>.spans.json` and `<dir>/<workload>.perfetto.json`
//! (default `<dir>`: `.bench_out`). `--manifest` prints `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::ExitCode;
use toolbench::setup::Kind;
use toolbench::{spec, RunOptions};

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let seconds = value("--seconds").map_or(Ok(spec::RUN_SECONDS as f64), |s| {
        s.parse::<f64>().map_err(|e| format!("--seconds: {e}"))
    })?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds takes a non-negative number, not `{seconds}`"
        ));
    }
    let limit = value("--points")
        .map(|k| k.parse::<usize>().map_err(|e| format!("--points: {e}")))
        .transpose()?;
    Ok(RunOptions {
        kind,
        seed: value("--seed")
            .unwrap_or("0")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
        limit,
        out_dir: Some(PathBuf::from(value("--out").unwrap_or(".bench_out"))),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match toolbench::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>12}",
        "point", "median ms", "min ms", "max ms", "ref ms"
    );
    for ((label, ms), ref_ms) in report.point_ms.iter().zip(&report.point_ref_ms) {
        let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ms.iter().copied().fold(0.0, f64::max);
        let median = toolbench::median(ms);
        let at_reference = toolbench::median(ref_ms);
        println!("{label:<20} {median:>12.2} {min:>12.2} {max:>12.2} {at_reference:>12.2}");
    }
    println!(
        "calibration kernel: median {:.3} ms over {} runs (reference {} ms); \
         ref ms = wall ms at the reference host speed",
        toolbench::median(&report.calib_ms),
        report.calib_ms.len(),
        toolbench::calib::REFERENCE_MS
    );
    for (name, value) in &report.metrics {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        println!("{name:<32} {value:>16.4} {unit}");
    }
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
