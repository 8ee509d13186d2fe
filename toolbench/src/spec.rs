//! What the benchmark measures: its workloads and metrics, declared once.
//!
//! `BENCHMARK.json` at the repository root is rendered from these tables
//! ([`manifest_json`]); a self-test holds the committed file to them.

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes).
    Lower,
    /// Larger values are better (throughputs, pass ratios).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// One named workload and why it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// One-line reason.
    pub why: &'static str,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [WorkloadSpec; 3] = [
    WorkloadSpec {
        name: "test_corners",
        why: "Test-scale edit-compile-simulate loop, 16 corners: verify and TV take most of a point and run() under 3%, so a verifier, solver or TV change shows here",
    },
    WorkloadSpec {
        name: "paper_corners",
        why: "Paper-scale 1x1 and 4x4 corners: profile training and long decoded runs dominate, so an engine or training change shows here and a verify change barely does",
    },
    WorkloadSpec {
        name: "mesh_paper",
        why: "Paper-scale 2x2 and 4x4 meshes: lockstep per-cycle stepping with NoC and mailbox traffic, array.run is most of the sweep; the core workloads never reach it",
    },
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 40;

/// Metrics a user of the toolchain sees, printed with tracing off.
pub const END_TO_END: [Metric; 7] = [
    e2e("sweep_s", "s", Better::Lower, 0.25),
    e2e("point_ms.geomean", "ms", Better::Lower, 0.25),
    e2e("sim_cycles.geomean", "cycles", Better::Lower, 0.01),
    e2e("code_bundles", "count", Better::Lower, 0.05),
    e2e("point_pass_ratio", "ratio", Better::Higher, 0.01),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.1),
];

/// Metrics of single layers, derived from the traced run's spans and
/// the counters the public API returns.
pub const PER_LAYER: [Metric; 40] = [
    layer("verify.check_ms", "ms", Better::Lower),
    layer("tv.validate_ms", "ms", Better::Lower),
    layer("compiler.verified_compile_ms", "ms", Better::Lower),
    layer("compiler.verify_ratio", "ratio", Better::Lower),
    layer("verify.warnings", "count", Better::Lower),
    layer("core.train_ms", "ms", Better::Lower),
    layer("core.train_share", "ratio", Better::Lower),
    layer("sim.decoded.run_ms", "ms", Better::Lower),
    layer("sim.threaded.run_ms", "ms", Better::Lower),
    layer("sim.decoded.mcycles_per_s", "Mcycles/s", Better::Higher),
    layer("sim.threaded.mcycles_per_s", "Mcycles/s", Better::Higher),
    layer("sim.decoded.new_ms", "ms", Better::Lower),
    layer("sim.threaded.new_ms", "ms", Better::Lower),
    layer("sim.threaded.translated_blocks", "count", Better::Lower),
    layer("sim.threaded.fast_block_execs", "count", Better::Higher),
    layer("sim.threaded.chained_execs", "count", Better::Higher),
    layer("sim.threaded.linked_execs", "count", Better::Higher),
    layer("sim.threaded.chain_ratio", "ratio", Better::Higher),
    layer("compiler.compile_ms", "ms", Better::Lower),
    layer("asm.assemble_ms", "ms", Better::Lower),
    layer("ir.lower_ms", "ms", Better::Lower),
    layer("compiler.spilled", "count", Better::Lower),
    layer("compiler.superblock_traces", "count", Better::Higher),
    layer("array.prepare_ms", "ms", Better::Lower),
    layer("array.instantiate_ms", "ms", Better::Lower),
    layer("array.run_ms", "ms", Better::Lower),
    layer("array.core_mcycles_per_s", "Mcycles/s", Better::Higher),
    layer("array.core_cycles", "cycles", Better::Lower),
    layer("array.noc.messages", "count", Better::Lower),
    layer("array.noc.hops", "count", Better::Lower),
    layer("array.noc.latency_cycles", "cycles", Better::Lower),
    layer("array.noc.max_link_transfers", "count", Better::Lower),
    layer("sim.cycles", "cycles", Better::Lower),
    layer("sim.instructions", "count", Better::Lower),
    layer("sim.stall_cycles", "cycles", Better::Lower),
    layer("trace.point_ms", "ms", Better::Lower),
    layer("host.calib_ms", "ms", Better::Lower),
    layer("host.sweep_wall_s", "s", Better::Lower),
    layer("trace.coverage", "ratio", Better::Higher),
    layer("trace.overhead_ratio", "ratio", Better::Lower),
];

/// Looks up a declared metric (end-to-end or per-layer) by name.
#[must_use]
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Renders `BENCHMARK.json`, the benchmark's manifest.
#[must_use]
pub fn manifest_json() -> String {
    let metric_line = |m: &Metric| match m.bound {
        Some(bound) => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
            m.name,
            m.unit,
            m.better.as_str()
        ),
        None => format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.as_str()
        ),
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let e2e: Vec<String> = END_TO_END.iter().map(metric_line).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(metric_line).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"toolbench/Cargo.toml\", \"--\"],\n  \
         \"paths\": [\"toolbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
