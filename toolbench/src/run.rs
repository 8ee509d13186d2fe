//! The untraced path: each point through the library's public default
//! entry points, exactly as a user of the toolchain calls them.

use crate::setup::{Point, Setup};
use epic_core::experiments::{instantiate_mesh, prepare_mesh_workload, run_epic_workload_observed};
use epic_core::sim::NopSink;
use epic_core::workloads::Workload;

/// What one point produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointResult {
    /// Simulated cycles (lockstep array cycles on a mesh).
    pub cycles: u64,
    /// Issue bundles in the emitted program.
    pub bundles: u64,
}

/// Runs one point from AST to a golden-checked result.
///
/// Core points go through `run_epic_workload_observed` with the no-op
/// sink — the call `run_epic_workload` makes, which also returns the
/// emitted program — and the traced replay instantiates the same sink,
/// so both time the same monomorphised engine loop; mesh points through `prepare_mesh_workload`,
/// `instantiate_mesh` and `ArraySimulator::run`, with core 0's memory
/// checked against the golden model.
///
/// # Errors
///
/// Returns a message for any pipeline error, golden mismatch or
/// committed-cycle mismatch.
pub fn run_point(setup: &Setup, point: &Point) -> Result<PointResult, String> {
    let workload = &setup.workloads[point.workload];
    let result = match &point.mesh {
        None => {
            let run = run_epic_workload_observed(workload, &point.config, &mut NopSink)
                .map_err(|e| e.to_string())?;
            PointResult {
                cycles: run.stats().cycles,
                bundles: run.program.bundles().len() as u64,
            }
        }
        Some(spec) => {
            let mesh = prepare_mesh_workload(workload, &point.config).map_err(|e| e.to_string())?;
            let mut array =
                instantiate_mesh(&mesh, &point.config, spec).map_err(|e| e.to_string())?;
            let outcome = array.run().map_err(|e| e.to_string())?;
            check_golden(workload, array.core(0).memory().bytes())?;
            PointResult {
                cycles: outcome.cycles,
                bundles: mesh.prepared.program.bundles().len() as u64,
            }
        }
    };
    check_committed(point, result.cycles)?;
    Ok(result)
}

/// Checks final data memory against the workload's golden model.
///
/// # Errors
///
/// Returns the mismatch description.
pub fn check_golden(workload: &Workload, bytes: &[u8]) -> Result<(), String> {
    workload.verify_memory(|addr, len| {
        let (start, end) = (addr as usize, (addr + len) as usize);
        bytes
            .get(start..end)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| format!("global at {addr:#x} overruns memory"))
    })
}

/// Checks a point's simulated cycles against its committed row.
///
/// # Errors
///
/// Returns a message naming both counts on a mismatch.
pub fn check_committed(point: &Point, cycles: u64) -> Result<(), String> {
    match point.committed_cycles {
        Some(committed) if committed != cycles => Err(format!(
            "{cycles} cycles, but BENCH_cycles.json commits {committed}"
        )),
        _ => Ok(()),
    }
}
