//! Toolchain benchmark: host time per design point from AST to a
//! golden-checked result, with a traced per-layer ledger.
//!
//! One run takes one workload ([`setup::Kind`]) through repeated
//! *passes*; a pass runs every design point of the workload once, in an
//! order shuffled by the seed. Untraced runs ([`run`] with `trace`
//! off) go through the library's public default path and report the
//! end-to-end metrics of [`spec::END_TO_END`]. Traced runs alternate an
//! untraced pass with a traced replay ([`trace`]) and report the
//! per-layer metrics of [`spec::PER_LAYER`].
//!
//! Every point is checked: golden model, committed cycles at Test
//! scale, and in the traced run engine agreement and agreement between
//! the replay and the composite library call. A failed point counts in
//! [`Report::failed`] and makes the report incorrect.
//!
//! The programs' input data are fixed by the `SEED` constants of
//! `epic-workloads`; the benchmark seed only orders the points.
//!
//! End-to-end times are reported at a reference host speed: a fixed
//! kernel is timed around every measured interval ([`calib`]), which
//! takes the shared host's drifting speed out of run-to-run spread.

#![forbid(unsafe_code)]

pub mod calib;
pub mod run;
pub mod setup;
pub mod spec;
pub mod trace;

use calib::Calibration;
use setup::{Kind, Setup};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{Counts, Tracer};

/// Times the set-up is built in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;

/// What one run does.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload.
    pub kind: Kind,
    /// Orders the points within each pass.
    pub seed: u64,
    /// Measurement budget: passes continue while another fits.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Keep only the first points of the canonical order.
    pub limit: Option<usize>,
    /// Where a traced run writes its span files (`None`: nowhere).
    pub out_dir: Option<PathBuf>,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// No point failed.
    pub correct: bool,
    /// Point executions attempted.
    pub attempted: u64,
    /// Point executions that failed.
    pub failed: u64,
    /// Metric name and value, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Each point's label and untraced host ms, one entry per pass.
    pub point_ms: Vec<(String, Vec<f64>)>,
    /// The same at the reference host speed ([`calib`]).
    pub point_ref_ms: Vec<Vec<f64>>,
    /// Every calibration kernel time of the run, in ms.
    pub calib_ms: Vec<f64>,
}

impl Report {
    /// The value of a metric, if reported.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = spec::metric(name).map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// SplitMix64: a small, seedable generator for the point order.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `0..n`.
    fn order(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

/// The median of a non-empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// The process's resident-set high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Runs `f` inside the workload's rayon pool, if it has one.
fn in_pool<R: Send>(setup: &Setup, f: impl FnOnce() -> R + Send) -> R {
    match &setup.pool {
        Some(pool) => pool.install(f),
        None => f(),
    }
}

/// Tallies across a run's passes.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wall seconds of each untraced pass, calibration excluded.
    sweeps: Vec<f64>,
    /// Host ms of each point, by canonical index, one entry per pass.
    point_ms: Vec<Vec<f64>>,
    /// The same at the reference host speed.
    point_ref_ms: Vec<Vec<f64>>,
    /// The calibration kernel's times.
    calibration: Calibration,
    /// Each point's `(cycles, bundles)`, identical in every pass.
    results: Vec<Option<run::PointResult>>,
}

impl Tally {
    fn fail(&mut self, label: &str, message: &str) {
        self.failed += 1;
        eprintln!("FAIL {label}: {message}");
    }

    /// One untraced pass over every point, each timed between two runs
    /// of the calibration kernel.
    fn untraced_pass(&mut self, setup: &Setup, order: &[usize]) {
        let mut sweep = 0.0;
        for (k, &i) in order.iter().enumerate() {
            let point = &setup.points[i];
            let (outcome, wall, scaled) = self
                .calibration
                .scale(k == 0, || in_pool(setup, || run::run_point(setup, point)));
            self.point_ms[i].push(wall);
            self.point_ref_ms[i].push(scaled);
            sweep += wall / 1e3;
            self.attempted += 1;
            match outcome {
                Ok(result) => match self.results[i] {
                    Some(first) if first != result => {
                        self.fail(&point.label, "results differ between passes");
                    }
                    _ => self.results[i] = Some(result),
                },
                Err(e) => self.fail(&point.label, &e),
            }
        }
        eprintln!("pass {}: {sweep:.3} s", self.sweeps.len() + 1);
        self.sweeps.push(sweep);
    }
}

/// One traced pass's span sums and counters.
#[derive(Debug, Default)]
struct TracedPass {
    /// Summed span ms by layer name.
    ms: HashMap<&'static str, f64>,
    /// Summed ms of the replay spans' direct children.
    chain_ms: f64,
    counts: Counts,
}

/// Runs the benchmark.
///
/// # Errors
///
/// Returns a message if the set-up cannot be built or a span file
/// cannot be written.
pub fn run(opts: &RunOptions) -> Result<Report, String> {
    let mut calibration = Calibration::default();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        let (built, _, scaled) =
            calibration.scale(rep == 0, || setup::build(opts.kind, opts.limit));
        setup_times.push(scaled / 1e3);
        setup = Some(built?);
    }
    let setup = setup.expect("SETUP_REPS > 0");
    let n = setup.points.len();
    let mut rng = Rng(opts.seed);
    let mut tally = Tally {
        point_ms: vec![Vec::new(); n],
        point_ref_ms: vec![Vec::new(); n],
        results: vec![None; n],
        calibration,
        ..Tally::default()
    };
    let mut tracer = Tracer::default();
    let mut traced: Vec<TracedPass> = Vec::new();

    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    for round in 1.. {
        tally.untraced_pass(&setup, &rng.order(n));
        if opts.trace {
            let pass = traced_pass(&setup, &mut tracer, &rng.order(n), &mut tally, traced.len());
            traced.push(pass);
        }
        let elapsed = start.elapsed();
        if elapsed + elapsed / round > budget {
            break;
        }
    }

    let metrics = if opts.trace {
        if let Some(dir) = &opts.out_dir {
            write_trace(dir, opts, &tracer)?;
        }
        let first = traced.first().map(|p| p.counts).unwrap_or_default();
        if traced.iter().any(|p| p.counts != first) {
            tally.fail("traced pass", "counters differ between passes");
        }
        layer_metrics(&traced, &tally, first)
    } else {
        end_to_end_metrics(&tally, &setup_times)
    };
    Ok(Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        point_ms: setup
            .points
            .iter()
            .map(|p| p.label.clone())
            .zip(tally.point_ms)
            .collect(),
        point_ref_ms: tally.point_ref_ms,
        calib_ms: tally.calibration.times,
    })
}

fn traced_pass(
    setup: &Setup,
    tracer: &mut Tracer,
    order: &[usize],
    tally: &mut Tally,
    pass: usize,
) -> TracedPass {
    let first_span = tracer.spans().len();
    let mut counts = Counts::default();
    for &i in order {
        let point = &setup.points[i];
        tally.attempted += 1;
        match in_pool(setup, || tracer.trace_point(setup, point, pass)) {
            Ok(c) => counts += c,
            Err(e) => tally.fail(&point.label, &e),
        }
    }
    let spans = &tracer.spans()[first_span..];
    let mut ms: HashMap<&'static str, f64> = HashMap::new();
    let mut chain_ms = 0.0;
    for span in spans {
        *ms.entry(span.name).or_default() += span.ms();
        if span
            .parent
            .is_some_and(|p| tracer.spans()[p].name == "replay")
        {
            chain_ms += span.ms();
        }
    }
    TracedPass {
        ms,
        chain_ms,
        counts,
    }
}

fn write_trace(dir: &std::path::Path, opts: &RunOptions, tracer: &Tracer) -> Result<(), String> {
    let name = opts.kind.name();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let spans = dir.join(format!("{name}.spans.json"));
    std::fs::write(&spans, tracer.spans_json(name, opts.seed))
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let chrome = dir.join(format!("{name}.perfetto.json"));
    std::fs::write(&chrome, tracer.chrome_json(name))
        .map_err(|e| format!("{}: {e}", chrome.display()))?;
    eprintln!("wrote {} and {}", spans.display(), chrome.display());
    Ok(())
}

fn end_to_end_metrics(tally: &Tally, setup_times: &[f64]) -> Vec<(&'static str, f64)> {
    let done: Vec<run::PointResult> = tally.results.iter().flatten().copied().collect();
    // Each point's median over the passes at the reference host speed;
    // the sweep is their sum.
    let point_ms: Vec<f64> = tally.point_ref_ms.iter().map(|ms| median(ms)).collect();
    vec![
        ("sweep_s", point_ms.iter().sum::<f64>() / 1e3),
        ("point_ms.geomean", geomean(point_ms.iter().copied())),
        (
            "sim_cycles.geomean",
            geomean(done.iter().map(|r| r.cycles as f64)),
        ),
        ("code_bundles", done.iter().map(|r| r.bundles as f64).sum()),
        (
            "point_pass_ratio",
            (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
        ),
        ("setup_s", median(setup_times)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

fn layer_metrics(traced: &[TracedPass], tally: &Tally, c: Counts) -> Vec<(&'static str, f64)> {
    // Median over traced passes of a per-pass figure.
    let per_pass =
        |f: &dyn Fn(&TracedPass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let ms = |name: &'static str| per_pass(&|p| p.ms.get(name).copied().unwrap_or(0.0));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mcycles = |cycles: u64, run: &'static str| {
        per_pass(&|p| ratio(cycles as f64 / 1e3, p.ms.get(run).copied().unwrap_or(0.0)))
    };
    let untraced_sweep_ms = median(&tally.sweeps) * 1e3;
    vec![
        ("verify.check_ms", ms("verify.check")),
        ("tv.validate_ms", ms("tv.validate")),
        (
            "compiler.verified_compile_ms",
            ms("compiler.verified_compile"),
        ),
        (
            "compiler.verify_ratio",
            per_pass(&|p| {
                ratio(
                    p.ms.get("compiler.verified_compile")
                        .copied()
                        .unwrap_or(0.0),
                    p.ms.get("compiler.compile").copied().unwrap_or(0.0),
                )
            }),
        ),
        ("verify.warnings", c.verify_warnings as f64),
        ("core.train_ms", ms("core.train")),
        (
            "core.train_share",
            per_pass(&|p| {
                ratio(
                    p.ms.get("core.train").copied().unwrap_or(0.0),
                    p.ms.get("replay").copied().unwrap_or(0.0),
                )
            }),
        ),
        ("sim.decoded.run_ms", ms("sim.decoded.run")),
        ("sim.threaded.run_ms", ms("sim.threaded.run")),
        (
            "sim.decoded.mcycles_per_s",
            mcycles(c.sim_cycles, "sim.decoded.run"),
        ),
        (
            "sim.threaded.mcycles_per_s",
            mcycles(c.sim_cycles, "sim.threaded.run"),
        ),
        ("sim.decoded.new_ms", ms("sim.decoded.new")),
        ("sim.threaded.new_ms", ms("sim.threaded.new")),
        ("sim.threaded.translated_blocks", c.translated_blocks as f64),
        ("sim.threaded.fast_block_execs", c.fast_block_execs as f64),
        ("sim.threaded.chained_execs", c.chained_execs as f64),
        ("sim.threaded.linked_execs", c.linked_execs as f64),
        (
            "sim.threaded.chain_ratio",
            ratio(c.chained_execs as f64, c.fast_block_execs as f64),
        ),
        ("compiler.compile_ms", ms("compiler.compile")),
        ("asm.assemble_ms", ms("asm.assemble")),
        ("ir.lower_ms", ms("ir.lower")),
        ("compiler.spilled", c.spilled as f64),
        ("compiler.superblock_traces", c.superblock_traces as f64),
        ("array.prepare_ms", ms("array.prepare")),
        ("array.instantiate_ms", ms("array.instantiate")),
        ("array.run_ms", ms("array.run")),
        (
            "array.core_mcycles_per_s",
            mcycles(c.array_core_cycles, "array.run"),
        ),
        ("array.core_cycles", c.array_core_cycles as f64),
        ("array.noc.messages", c.noc_messages as f64),
        ("array.noc.hops", c.noc_hops as f64),
        ("array.noc.latency_cycles", c.noc_latency_cycles as f64),
        (
            "array.noc.max_link_transfers",
            c.noc_max_link_transfers as f64,
        ),
        ("sim.cycles", c.sim_cycles as f64),
        ("sim.instructions", c.sim_instructions as f64),
        ("sim.stall_cycles", c.sim_stall_cycles as f64),
        ("trace.point_ms", ms("replay")),
        ("host.calib_ms", median(&tally.calibration.times)),
        ("host.sweep_wall_s", untraced_sweep_ms / 1e3),
        (
            "trace.coverage",
            per_pass(&|p| {
                let composite =
                    p.ms.get("experiments.run_epic_workload_observed")
                        .copied()
                        .unwrap_or(0.0)
                        + p.ms
                            .get("experiments.run_mesh_workload")
                            .copied()
                            .unwrap_or(0.0);
                ratio(p.chain_ms, composite)
            }),
        ),
        (
            "trace.overhead_ratio",
            ratio(ms("replay"), untraced_sweep_ms),
        ),
    ]
}
