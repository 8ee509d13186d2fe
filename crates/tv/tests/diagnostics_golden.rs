//! Diagnostic-identity corpus: the full `epic_verify::check` report and
//! the full `epic_tv::validate_trace` report of every built-in workload,
//! pinned across the ALU (1–4) × issue-width (1–4) grid at Test scale.
//!
//! Every diagnostic — errors and warnings alike — is recorded with its
//! code, severity, bundle, slot, source line and message, in report
//! order. The verifier and the validator may get faster, but any change
//! that adds, drops, reorders or rewords a single diagnostic anywhere in
//! the design space fails this test with a line-level diff. To accept a
//! deliberate change, regenerate the corpus with
//!
//! ```text
//! EPIC_BLESS=1 cargo test --release -p epic-tv --test diagnostics_golden
//! ```
//!
//! and commit the updated `tests/golden/diagnostics.txt` alongside the
//! change that caused it.
//!
//! Honest compiles verify and validate clean, so each point is also
//! re-checked in two stressed forms that give the checkers something to
//! say: the same program and trace against a slower single-ALU machine
//! without forwarding (scoreboard, divider-shadow and unit warnings from
//! the verifier; flow-latency shortfalls and structural errors from the
//! validator), and, on the grid's diagonal, the same bundles verified
//! from every label instead of `_start` (reads of registers the skipped
//! code would have written — the `VER013` path, including reads whose
//! guard the value analysis proves false). Stressed
//! reports are large, so they are pinned by per-code counts, a digest
//! of every diagnostic in order and the first few diagnostics verbatim.

use epic_asm::Diagnostic;
use epic_compiler::{Compiler, Options};
use epic_config::Config;
use epic_workloads::{self as workloads, Scale};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/diagnostics.txt")
}

fn location(value: Option<usize>) -> String {
    value.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

fn line(d: &Diagnostic) -> String {
    format!(
        "{} {:?} bundle={} slot={} line={} {}",
        d.code,
        d.severity,
        location(d.bundle),
        location(d.slot),
        d.line,
        d.message
    )
}

/// Records a report diagnostic by diagnostic.
fn record(out: &mut String, point: &str, checker: &str, diagnostics: &[Diagnostic]) {
    let _ = writeln!(
        out,
        "{point} {checker}: {} diagnostic(s)",
        diagnostics.len()
    );
    for d in diagnostics {
        let _ = writeln!(out, "  {}", line(d));
    }
}

/// Records a (large) stressed report compactly: per-code counts, an
/// FNV-1a digest over every rendered diagnostic in order, and the first
/// few diagnostics verbatim. Any added, dropped, reordered or reworded
/// diagnostic changes the digest.
fn record_digest(out: &mut String, point: &str, checker: &str, diagnostics: &[Diagnostic]) {
    const SHOWN: usize = 3;
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut codes: Vec<(&str, usize)> = Vec::new();
    for d in diagnostics {
        for byte in line(d).bytes().chain([b'\n']) {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
        match codes.iter_mut().find(|(c, _)| *c == d.code) {
            Some((_, n)) => *n += 1,
            None => codes.push((d.code, 1)),
        }
    }
    let codes: Vec<String> = codes.iter().map(|(c, n)| format!("{c}x{n}")).collect();
    let _ = writeln!(
        out,
        "{point} {checker}: {} diagnostic(s) [{}] digest={digest:016x}",
        diagnostics.len(),
        codes.join(" ")
    );
    for d in diagnostics.iter().take(SHOWN) {
        let _ = writeln!(out, "  {}", line(d));
    }
}

/// `config` with one ALU, no forwarding and longer load, multiply and
/// divide latencies: a machine the program was not scheduled for.
fn slow_machine(config: &Config) -> Config {
    Config::builder()
        .num_alus(1)
        .issue_width(config.issue_width())
        .forwarding(false)
        .load_latency(config.load_latency() + 3)
        .mul_latency(config.mul_latency() + 3)
        .div_latency(config.div_latency() + 4)
        .build()
        .expect("valid slow configuration")
}

fn corpus() -> String {
    let mut out = String::from(
        "# Golden verifier + translation-validation diagnostics (Test scale).\n\
         # Regenerate with\n\
         # EPIC_BLESS=1 cargo test --release -p epic-tv --test diagnostics_golden\n",
    );
    for workload in workloads::all(Scale::Test) {
        let module = epic_ir::lower::lower(&workload.program).expect("workload lowers");
        for alus in 1..=4usize {
            for width in 1..=4usize {
                let config = Config::builder()
                    .num_alus(alus)
                    .issue_width(width)
                    .build()
                    .expect("valid grid configuration");
                let options = Options {
                    entry: workload.entry.clone(),
                    inline_hints: workload.inline_hints(),
                    verify: true, // also enables pipeline trace collection
                    ..Options::default()
                };
                let point = format!("{} alus={alus} iw={width}", workload.name);
                let compiled = Compiler::new(config.clone())
                    .compile_with(&module, &options)
                    .unwrap_or_else(|e| panic!("{point}: compile failed: {e}"));
                let program = epic_asm::assemble(compiled.assembly(), &config)
                    .unwrap_or_else(|e| panic!("{point}: assembly rejected: {e}"));
                let verify = epic_verify::check(&program, &config);
                record(&mut out, &point, "verify", verify.diagnostics());
                let trace = compiled.trace().expect("verified compiles carry a trace");
                let tv = epic_tv::validate_trace(trace, &program, &config);
                record(&mut out, &point, "tv", tv.diagnostics());

                let slow = slow_machine(&config);
                let verify = epic_verify::check(&program, &slow);
                record_digest(&mut out, &point, "verify@slow", verify.diagnostics());
                let tv = epic_tv::validate_trace(trace, &program, &slow);
                record_digest(&mut out, &point, "tv@slow", tv.diagnostics());

                // Every label as the entry is many whole-program checks;
                // the diagonal of the grid covers each schedule width.
                if alus != width {
                    continue;
                }
                let mut labels: Vec<(&String, &u32)> = program.labels().iter().collect();
                labels.sort();
                for (name, &entry) in labels {
                    let verify = epic_verify::check_program(program.bundles(), entry, &config);
                    record_digest(
                        &mut out,
                        &point,
                        &format!("verify@{name}"),
                        verify.diagnostics(),
                    );
                }
            }
        }
    }
    out
}

#[test]
fn diagnostics_match_golden_file() {
    let path = golden_path();
    let current = corpus();
    if std::env::var_os("EPIC_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden directory"))
            .expect("create golden directory");
        std::fs::write(&path, &current).expect("write golden corpus");
        eprintln!(
            "blessed {} ({} lines)",
            path.display(),
            current.lines().count()
        );
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `EPIC_BLESS=1 cargo test --release -p epic-tv --test \
             diagnostics_golden` to create it",
            path.display()
        )
    });
    if golden == current {
        return;
    }
    let mut diff = String::new();
    for (want, got) in golden.lines().zip(current.lines()) {
        if want != got {
            let _ = writeln!(diff, "- {want}\n+ {got}");
        }
    }
    let (w, g) = (golden.lines().count(), current.lines().count());
    if w != g {
        let _ = writeln!(diff, "line count changed: golden {w}, current {g}");
    }
    panic!(
        "diagnostics drifted from {}:\n{diff}\
         If the change is intentional, regenerate with `EPIC_BLESS=1 cargo test \
         --release -p epic-tv --test diagnostics_golden` and commit the diff.",
        path.display()
    );
}
