//! Self-tests of the benchmark. Run them on the benchmark's own build:
//!
//! ```text
//! cargo test --release --offline --manifest-path toolbench/Cargo.toml
//! ```

use std::process::Command;
use toolbench::setup::Kind;
use toolbench::{run, spec, Report, RunOptions};

fn one_pass(kind: Kind, seed: u64, trace: bool, points: usize) -> Report {
    let report = run(&RunOptions {
        kind,
        seed,
        seconds: 0.0,
        trace,
        limit: Some(points),
        out_dir: trace.then(|| std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))),
    })
    .expect("benchmark runs");
    assert!(report.correct, "{}: {report:?}", kind.name());
    assert_eq!(report.failed, 0);
    report
}

/// Whether a declared metric is a deterministic count rather than a
/// host time or a ratio of host times.
fn is_deterministic(m: &spec::Metric) -> bool {
    matches!(m.unit, "count" | "cycles")
}

#[test]
fn one_point_smoke_run_per_workload() {
    for workload in &spec::WORKLOADS {
        let kind = Kind::parse(workload.name).expect("every declared workload runs");
        let report = one_pass(kind, 7, false, 1);
        assert_eq!(report.attempted, 1);
        for m in &spec::END_TO_END {
            let value = report.metric(m.name).expect("every metric reported");
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {} = {value}",
                kind.name(),
                m.name
            );
        }
        let traced = one_pass(kind, 7, true, 1);
        // One untraced pass for the overhead base, one traced pass.
        assert_eq!(traced.attempted, 2);
        assert!(traced
            .metric("trace.coverage")
            .is_some_and(|c| c > 0.5 && c < 2.0));
    }
}

#[test]
fn the_command_prints_every_declared_metric_with_its_unit() {
    for (trace, metrics) in [("0", &spec::END_TO_END[..]), ("1", &spec::PER_LAYER[..])] {
        let out_dir = format!("{}/cli", env!("CARGO_TARGET_TMPDIR"));
        let output = Command::new(env!("CARGO_BIN_EXE_toolbench"))
            .args([
                "--workload",
                "test_corners",
                "--seed",
                "3",
                "--seconds",
                "0",
            ])
            .args(["--trace", trace, "--points", "1", "--out", &out_dir])
            .output()
            .expect("benchmark binary runs");
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
        let last = stdout.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
        for m in metrics {
            let key = format!("\"{}\": {{\"value\": ", m.name);
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            let rest = &last[at + key.len()..];
            let (value, unit) = rest.split_once(", \"unit\": ").expect("value, then unit");
            assert!(value.parse::<f64>().is_ok(), "{}: `{value}`", m.name);
            assert!(unit.starts_with(&format!("\"{}\"}}", m.unit)), "{}", m.name);
        }
        assert_eq!(
            last.matches("\"unit\": ").count(),
            metrics.len(),
            "only declared metrics"
        );
    }
}

#[test]
fn deterministic_metrics_repeat_under_another_seed() {
    for trace in [false, true] {
        let a = one_pass(Kind::TestCorners, 1, trace, 4);
        let b = one_pass(Kind::TestCorners, 2, trace, 4);
        let declared: &[spec::Metric] = if trace {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        for m in declared.iter().filter(|m| is_deterministic(m)) {
            assert_eq!(a.metric(m.name), b.metric(m.name), "{}", m.name);
        }
    }
}

#[test]
fn the_committed_manifest_is_current() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::manifest_json(),
        "regenerate with `toolbench --manifest > BENCHMARK.json`"
    );
}

#[test]
fn the_ledger_maps_every_layer_metric() {
    let ledger = include_str!("../LEDGER.json");
    for m in &spec::PER_LAYER {
        assert!(ledger.contains(&format!("\"{}\"", m.name)), "{}", m.name);
    }
    for w in &spec::WORKLOADS {
        assert!(ledger.contains(&format!("\"{}\"", w.name)), "{}", w.name);
    }
}
