//! The traced run: each point replayed as the chain of public calls the
//! default path makes, with a span around every call.
//!
//! Spans live in memory ([`Tracer`]) and are written when the run ends,
//! as a span list ([`Tracer::spans_json`]) and as a Chrome trace-event
//! document in the `epic-obs` Perfetto writer's format
//! ([`Tracer::chrome_json`]).
//!
//! Each point's spans hang off one `point` span. Under it, the `replay`
//! span holds exactly the default path's calls; after it come the
//! measurements the default path does not make (an unverified compile,
//! a standalone `epic_verify::check`, the threaded engine). Beside the
//! replay, the composite library call — `run_epic_workload_observed`
//! or `run_mesh_workload` — is timed whole; the replay must agree with it,
//! and `trace.coverage` is the replayed calls' time over its time.

use crate::run::{check_committed, check_golden};
use crate::setup::{Point, Setup};
use epic_core::array::{mailbox, ArrayOutcome, MeshSpec};
use epic_core::compiler::superblock::ProfileData;
use epic_core::compiler::{CompiledProgram, Compiler, Options};
use epic_core::config::Config;
use epic_core::experiments::{
    instantiate_mesh, run_epic_workload_observed, run_mesh_workload, PreparedMesh,
};
use epic_core::ir::{lower, Module};
use epic_core::sim::{Memory, NopSink, ProfileSink, SimStats, Simulator, ThreadedSimulator};
use epic_core::workloads::Workload;
use epic_core::{PreparedProgram, Toolchain};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed host-time span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`ir.lower`, `sim.decoded.run`, ...).
    pub name: &'static str,
    /// The point the span belongs to (an index into [`Tracer::points`]).
    pub point: usize,
    /// Index of the enclosing span, `None` for a `point` span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A traced point: which pass it ran in and what it was.
#[derive(Debug, Clone)]
pub struct PointInfo {
    /// Traced pass index.
    pub pass: usize,
    /// Point label, e.g. `dct 4x4`.
    pub label: String,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    points: Vec<PointInfo>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            points: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        point: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            point,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        result
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the span list as JSON.
    #[must_use]
    pub fn spans_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"schema\": \"toolbench-spans/v1\", \"workload\": \"{workload}\", \"seed\": {seed},\n\"points\": ["
        );
        for (id, p) in self.points.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {id}, \"pass\": {}, \"label\": \"{}\"}}",
                p.pass, p.label
            );
        }
        out.push_str("\n],\n\"spans\": [");
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n  {{\"id\": {id}, \"name\": \"{}\", \"point\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name,
                s.point,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Renders the spans as a Chrome trace-event document (the format
    /// `epic_obs::PerfettoSink` writes: metadata, then matched `B`/`E`
    /// pairs), one host-time track, timestamps in microseconds.
    #[must_use]
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"toolbench\"}}",
        );
        let _ = write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{workload}\"}}}}"
        );
        let end = |out: &mut String, s: &Span| {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"E\",\"ts\":{:.3},\"pid\":1,\"tid\":1}}",
                s.name,
                s.end_ns as f64 / 1e3
            );
        };
        // Spans are recorded in start order and nest, so a stack of open
        // spans turns the list into properly paired events.
        let mut open: Vec<usize> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                if Some(top) == s.parent {
                    break;
                }
                end(&mut out, &self.spans[top]);
                open.pop();
            }
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"B\",\"ts\":{:.3},\"pid\":1,\"tid\":1,\
                 \"args\":{{\"point\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.point
            );
            open.push(id);
        }
        while let Some(top) = open.pop() {
            end(&mut out, &self.spans[top]);
        }
        out.push_str("\n]}\n");
        out
    }

    /// Replays one point under a fresh `point` span, returning its
    /// counters.
    ///
    /// # Errors
    ///
    /// Returns a message for any pipeline error, golden or committed
    /// cycle mismatch, engine disagreement, or disagreement between the
    /// replay and the composite library call.
    pub fn trace_point(
        &mut self,
        setup: &Setup,
        point: &Point,
        pass: usize,
    ) -> Result<Counts, String> {
        let id = self.points.len();
        self.points.push(PointInfo {
            pass,
            label: point.label.clone(),
        });
        self.span("point", id, |t| match &point.mesh {
            None => t.core_point(setup, point, id),
            Some(_) => t.mesh_point(setup, point, id),
        })
    }

    fn core_point(&mut self, setup: &Setup, point: &Point, id: usize) -> Result<Counts, String> {
        let workload = &setup.workloads[point.workload];
        let config = &point.config;
        let composite = |t: &mut Tracer| {
            t.span("experiments.run_epic_workload_observed", id, |_| {
                run_epic_workload_observed(workload, config, &mut NopSink).map(|run| *run.stats())
            })
            .map_err(|e| e.to_string())
        };
        // The replay's artefacts are dropped before the composite call
        // runs, and the two take turns going first, so heap and cache
        // state favour neither in `trace.coverage`.
        let (composite, (stats, counts)) = if id.is_multiple_of(2) {
            (composite(self)?, self.core_replay(workload, config, id)?)
        } else {
            let replay = self.core_replay(workload, config, id)?;
            (composite(self)?, replay)
        };
        if composite != stats {
            return Err(
                "the replayed call chain disagrees with run_epic_workload_observed".to_owned(),
            );
        }
        check_committed(point, stats.cycles)?;
        Ok(counts)
    }

    /// The default path's calls, then the engine cross-check and the
    /// side measurements.
    fn core_replay(
        &mut self,
        workload: &Workload,
        config: &Config,
        id: usize,
    ) -> Result<(SimStats, Counts), String> {
        let toolchain = Toolchain::new(config.clone());
        let compiler = Compiler::new(config.clone());
        let (module, options, compiled, program, decoded) =
            self.span("replay", id, |t| -> Result<_, String> {
                let (module, mut options) = t.span("ir.lower", id, |_| lower_workload(workload))?;
                if config.issue_width() >= 2 {
                    options.profile = t.span("core.train", id, |_| {
                        train_profile(&toolchain, &module, &options)
                    })?;
                }
                let (compiled, program) =
                    t.compile_chain(&compiler, &module, &options, config, id)?;
                let image = t.span("ir.layout", id, |_| initial_memory(&module))?;
                let mut sim = t.span("sim.decoded.new", id, |_| {
                    let mut sim =
                        Simulator::try_new(config, program.bundles().to_vec(), program.entry())
                            .map_err(|e| e.to_string())?;
                    sim.set_memory(Memory::from_image(image));
                    Ok::<_, String>(sim)
                })?;
                t.span("sim.decoded.run", id, |_| {
                    sim.run_with_sink(&mut NopSink).map(|_| ())
                })
                .map_err(|e| e.to_string())?;
                t.span("workload.verify_memory", id, |_| {
                    check_golden(workload, sim.memory().bytes())
                })?;
                Ok((module, options, compiled, program, sim))
            })?;
        let stats = *decoded.stats();
        let mut counts = self.side_compiles(
            &compiler, &module, &options, &compiled, &program, config, id,
        )?;

        let image = initial_memory(&module)?;
        let mut threaded = self.span("sim.threaded.new", id, |_| {
            let mut sim =
                ThreadedSimulator::try_new(config, program.bundles().to_vec(), program.entry())
                    .map_err(|e| e.to_string())?;
            sim.set_memory(Memory::from_image(image));
            Ok::<_, String>(sim)
        })?;
        self.span("sim.threaded.run", id, |_| threaded.run().map(|_| ()))
            .map_err(|e| e.to_string())?;
        if *threaded.stats() != stats
            || threaded.gpr(1) != decoded.gpr(1)
            || threaded.memory().bytes() != decoded.memory().bytes()
        {
            return Err("the threaded engine disagrees with the decoded engine".to_owned());
        }

        counts.translated_blocks = threaded.translated_blocks() as u64;
        counts.fast_block_execs = threaded.fast_block_execs();
        counts.chained_execs = threaded.chained_execs();
        counts.linked_execs = threaded.linked_execs();
        counts.sim_cycles = stats.cycles;
        counts.sim_instructions = stats.instructions;
        counts.sim_stall_cycles = stats.stalls.total();
        Ok((stats, counts))
    }

    fn mesh_point(&mut self, setup: &Setup, point: &Point, id: usize) -> Result<Counts, String> {
        let workload = &setup.workloads[point.workload];
        let config = &point.config;
        let spec = point.mesh.as_ref().expect("mesh point");
        let composite = |t: &mut Tracer| {
            t.span("experiments.run_mesh_workload", id, |_| {
                run_mesh_workload(workload, config, spec)
            })
            .map_err(|e| e.to_string())
        };
        let (composite, (outcome, counts)) = if id.is_multiple_of(2) {
            (
                composite(self)?,
                self.mesh_replay(workload, config, spec, id)?,
            )
        } else {
            let replay = self.mesh_replay(workload, config, spec, id)?;
            (composite(self)?, replay)
        };
        if composite.outcome.cycles != outcome.cycles
            || composite.outcome.per_core != outcome.per_core
        {
            return Err("the replayed call chain disagrees with run_mesh_workload".to_owned());
        }
        Ok(counts)
    }

    /// `prepare_mesh_workload`'s calls, instantiation, the lockstep run
    /// and the golden check, then the side measurements.
    fn mesh_replay(
        &mut self,
        workload: &Workload,
        config: &Config,
        spec: &MeshSpec,
        id: usize,
    ) -> Result<(ArrayOutcome, Counts), String> {
        let compiler = Compiler::new(config.clone());
        let (module, options, mesh, outcome) =
            self.span("replay", id, |t| -> Result<_, String> {
                let (module, options, mesh) =
                    t.span("array.prepare", id, |t| -> Result<_, String> {
                        let (module, options) =
                            t.span("ir.lower", id, |_| lower_workload(workload))?;
                        let mailbox_base = t.span("ir.layout", id, |_| {
                            let layout = module.layout().map_err(|e| e.to_string())?;
                            layout.address_of(mailbox::GLOBAL).ok_or_else(|| {
                                format!("{}: no `{}` global", workload.name, mailbox::GLOBAL)
                            })
                        })?;
                        let (compiled, program) =
                            t.compile_chain(&compiler, &module, &options, config, id)?;
                        let initial_memory =
                            t.span("ir.layout", id, |_| initial_memory(&module))?;
                        let mesh = PreparedMesh {
                            prepared: PreparedProgram {
                                compiled,
                                program,
                                initial_memory,
                            },
                            mailbox_base,
                        };
                        Ok((module, options, mesh))
                    })?;
                let mut array = t
                    .span("array.instantiate", id, |_| {
                        instantiate_mesh(&mesh, config, spec)
                    })
                    .map_err(|e| e.to_string())?;
                let outcome = t
                    .span("array.run", id, |_| array.run())
                    .map_err(|e| e.to_string())?;
                t.span("workload.verify_memory", id, |_| {
                    check_golden(workload, array.core(0).memory().bytes())
                })?;
                Ok((module, options, mesh, outcome))
            })?;
        let prepared = &mesh.prepared;
        let mut counts = self.side_compiles(
            &compiler,
            &module,
            &options,
            &prepared.compiled,
            &prepared.program,
            config,
            id,
        )?;
        let noc = &outcome.noc;
        counts.sim_cycles = outcome.cycles;
        counts.sim_instructions = outcome.per_core.iter().map(|s| s.instructions).sum();
        counts.sim_stall_cycles = outcome.per_core.iter().map(|s| s.stalls.total()).sum();
        counts.array_core_cycles = outcome.aggregate_core_cycles();
        counts.noc_messages = noc.messages_delivered;
        counts.noc_hops = noc.total_hops;
        counts.noc_latency_cycles = noc.total_latency;
        counts.noc_max_link_transfers = noc.max_link_transfers();
        Ok((outcome, counts))
    }

    /// `Toolchain::prepare`'s compile side: verified compile, assembly,
    /// translation validation.
    fn compile_chain(
        &mut self,
        compiler: &Compiler,
        module: &Module,
        options: &Options,
        config: &Config,
        id: usize,
    ) -> Result<(CompiledProgram, epic_core::asm::Program), String> {
        let compiled = self
            .span("compiler.verified_compile", id, |_| {
                compiler.compile_with(module, options)
            })
            .map_err(|e| e.to_string())?;
        let program = self
            .span("asm.assemble", id, |_| {
                epic_core::asm::assemble(compiled.assembly(), config)
            })
            .map_err(|e| e.to_string())?;
        self.span("tv.validate", id, |_| match compiled.trace() {
            Some(trace) => {
                let report = epic_tv::validate_trace(trace, &program, config);
                if report.has_errors() {
                    Err(report.render("<pipeline>", None))
                } else {
                    Ok(())
                }
            }
            None => Ok(()),
        })?;
        Ok((compiled, program))
    }

    /// The measurements beside the default path: the same compile with
    /// the verifier off, and `epic_verify::check` on its own.
    #[allow(clippy::too_many_arguments)]
    fn side_compiles(
        &mut self,
        compiler: &Compiler,
        module: &Module,
        options: &Options,
        compiled: &CompiledProgram,
        program: &epic_core::asm::Program,
        config: &Config,
        id: usize,
    ) -> Result<Counts, String> {
        let unverified = Options {
            verify: false,
            ..options.clone()
        };
        self.span("compiler.compile", id, |_| {
            compiler.compile_with(module, &unverified)
        })
        .map_err(|e| e.to_string())?;
        let report = self.span("verify.check", id, |_| epic_verify::check(program, config));
        if report.has_errors() {
            return Err(format!(
                "epic-verify reports {} errors",
                report.error_count()
            ));
        }
        let stats = compiled.stats();
        Ok(Counts {
            verify_warnings: report.warning_count() as u64,
            spilled: stats.regalloc.spilled as u64,
            superblock_traces: stats.superblock.traces as u64,
            ..Counts::default()
        })
    }
}

/// Deterministic counters of one point (summed over a pass's points).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `epic_verify::check` warnings.
    pub verify_warnings: u64,
    /// Virtual registers the allocator spilled.
    pub spilled: u64,
    /// Superblocks formed.
    pub superblock_traces: u64,
    /// Blocks the threaded engine translated.
    pub translated_blocks: u64,
    /// Threaded fast-path block executions.
    pub fast_block_execs: u64,
    /// Threaded executions entered by chaining.
    pub chained_execs: u64,
    /// Threaded executions admitted by trace linking.
    pub linked_execs: u64,
    /// Simulated cycles: the core's, or the mesh's lockstep cycles.
    pub sim_cycles: u64,
    /// Instructions issued (summed over cores on a mesh).
    pub sim_instructions: u64,
    /// Stall cycles (summed over cores on a mesh).
    pub sim_stall_cycles: u64,
    /// Cycles summed over a mesh's cores.
    pub array_core_cycles: u64,
    /// NoC messages delivered.
    pub noc_messages: u64,
    /// NoC link hops.
    pub noc_hops: u64,
    /// NoC inject-to-deliver latency, summed over messages.
    pub noc_latency_cycles: u64,
    /// Transfers over the busiest NoC link.
    pub noc_max_link_transfers: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.verify_warnings += o.verify_warnings;
        self.spilled += o.spilled;
        self.superblock_traces += o.superblock_traces;
        self.translated_blocks += o.translated_blocks;
        self.fast_block_execs += o.fast_block_execs;
        self.chained_execs += o.chained_execs;
        self.linked_execs += o.linked_execs;
        self.sim_cycles += o.sim_cycles;
        self.sim_instructions += o.sim_instructions;
        self.sim_stall_cycles += o.sim_stall_cycles;
        self.array_core_cycles += o.array_core_cycles;
        self.noc_messages += o.noc_messages;
        self.noc_hops += o.noc_hops;
        self.noc_latency_cycles += o.noc_latency_cycles;
        self.noc_max_link_transfers += o.noc_max_link_transfers;
    }
}

/// Lowers a workload and builds the compiler options the default path
/// uses for it.
fn lower_workload(workload: &Workload) -> Result<(Module, Options), String> {
    let module = lower::lower(&workload.program).map_err(|e| e.to_string())?;
    let options = Options {
        entry: workload.entry.clone(),
        inline_hints: workload.inline_hints(),
        ..Options::default()
    };
    Ok((module, options))
}

fn initial_memory(module: &Module) -> Result<Vec<u8>, String> {
    let layout = module.layout().map_err(|e| e.to_string())?;
    Ok(module.initial_memory(&layout))
}

/// Profile training as the default path does it at issue width ≥ 2:
/// compile with superblock formation off, run under a `ProfileSink`,
/// fold per-address issue counts into per-label entry counts.
fn train_profile(
    toolchain: &Toolchain,
    module: &Module,
    options: &Options,
) -> Result<Option<ProfileData>, String> {
    let train_options = Options {
        superblock: false,
        ..options.clone()
    };
    let mut sink = ProfileSink::default();
    let run = toolchain
        .run_module_observed(module, &train_options, &mut sink)
        .map_err(|e| e.to_string())?;
    let issues_at: HashMap<u32, u64> = sink.per_pc().map(|(pc, c)| (pc, c.issues)).collect();
    let mut profile = ProfileData::new();
    for (label, &addr) in run.program.labels() {
        profile.record(label.clone(), issues_at.get(&addr).copied().unwrap_or(0));
    }
    Ok((!profile.is_empty()).then_some(profile))
}
