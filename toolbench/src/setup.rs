//! Per-workload set-up: the workloads with their golden models, the
//! design points, the committed cycle corpus and the mesh thread pool.

use epic_core::array::MeshSpec;
use epic_core::config::Config;
use epic_core::workloads::{self, mesh, Scale, Workload};
use std::collections::HashMap;

/// Threads the mesh workload's rayon pool may use. One: on a 2-CPU
/// host two workers spend more time in the per-cycle lockstep barrier
/// than they save (the mesh sweep took 13.7 s on 2 threads against
/// 6.7 s on 1), and the spinning made run-to-run times unsteady.
pub const MESH_THREADS: usize = 1;

/// The committed Test-scale cycle corpus every `test_corners` point is
/// checked against.
const BENCH_CYCLES: &str = include_str!("../../BENCH_cycles.json");

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The four programs × ALUs {1,4} × issue width {1,4}, Test scale.
    TestCorners,
    /// The four programs × {1×1, 4×4}, Paper scale.
    PaperCorners,
    /// The three mesh programs × meshes {2×2, 4×4}, Paper scale.
    MeshPaper,
}

impl Kind {
    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "test_corners" => Some(Kind::TestCorners),
            "paper_corners" => Some(Kind::PaperCorners),
            "mesh_paper" => Some(Kind::MeshPaper),
            _ => None,
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::TestCorners => "test_corners",
            Kind::PaperCorners => "paper_corners",
            Kind::MeshPaper => "mesh_paper",
        }
    }
}

/// One design point: a program on one machine configuration, and for
/// the mesh workload one array geometry.
#[derive(Debug, Clone)]
pub struct Point {
    /// Index into [`Setup::workloads`].
    pub workload: usize,
    /// The core configuration.
    pub config: Config,
    /// The array geometry (mesh workload only).
    pub mesh: Option<MeshSpec>,
    /// The committed cycle count the point must reproduce, if any.
    pub committed_cycles: Option<u64>,
    /// Human-readable name, e.g. `dct 4x1` (ALUs × issue width) or
    /// `mesh_bfs 4x4` (mesh geometry).
    pub label: String,
}

/// Everything a workload needs before its first point runs.
#[derive(Debug)]
pub struct Setup {
    /// Which workload this is.
    pub kind: Kind,
    /// The programs, golden models included.
    pub workloads: Vec<Workload>,
    /// The design points, in canonical order.
    pub points: Vec<Point>,
    /// The rayon pool the mesh runs in (mesh workload only).
    pub pool: Option<rayon::ThreadPool>,
}

fn config(alus: usize, width: usize) -> Config {
    Config::builder()
        .num_alus(alus)
        .issue_width(width)
        .build()
        .expect("valid corner configuration")
}

/// Builds a workload's set-up. `limit` keeps only the first points of
/// the canonical order (the self-tests' one-point smoke runs).
///
/// # Errors
///
/// Returns a message when a `test_corners` point has no row in the
/// committed cycle corpus.
pub fn build(kind: Kind, limit: Option<usize>) -> Result<Setup, String> {
    let (workloads, mut points, pool) = match kind {
        Kind::TestCorners | Kind::PaperCorners => {
            let (scale, corners): (Scale, &[(usize, usize)]) = if kind == Kind::TestCorners {
                (Scale::Test, &[(1, 1), (1, 4), (4, 1), (4, 4)])
            } else {
                (Scale::Paper, &[(1, 1), (4, 4)])
            };
            let committed = if kind == Kind::TestCorners {
                committed_cycles()
            } else {
                HashMap::new()
            };
            let workloads = workloads::all(scale);
            let mut points = Vec::new();
            for (index, workload) in workloads.iter().enumerate() {
                for &(alus, width) in corners {
                    let key = (workload.name.clone(), alus, width);
                    let committed_cycles = committed.get(&key).copied();
                    if kind == Kind::TestCorners && committed_cycles.is_none() {
                        return Err(format!(
                            "BENCH_cycles.json has no row for {} {alus}x{width}",
                            workload.name
                        ));
                    }
                    points.push(Point {
                        workload: index,
                        config: config(alus, width),
                        mesh: None,
                        committed_cycles,
                        label: format!("{} {alus}x{width}", workload.name),
                    });
                }
            }
            (workloads, points, None)
        }
        Kind::MeshPaper => {
            let workloads = mesh::all(Scale::Paper);
            let mut points = Vec::new();
            for (index, workload) in workloads.iter().enumerate() {
                for (width, height) in [(2, 2), (4, 4)] {
                    points.push(Point {
                        workload: index,
                        config: Config::builder()
                            .num_alus(2)
                            .build()
                            .expect("valid mesh core configuration"),
                        mesh: Some(MeshSpec::new(width, height)),
                        committed_cycles: None,
                        label: format!("{} {width}x{height}", workload.name),
                    });
                }
            }
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(MESH_THREADS)
                .build()
                .map_err(|e| e.to_string())?;
            (workloads, points, Some(pool))
        }
    };
    if let Some(limit) = limit {
        points.truncate(limit.max(1));
    }
    Ok(Setup {
        kind,
        workloads,
        points,
        pool,
    })
}

/// Parses the committed cycle corpus into `(workload, ALUs, issue
/// width) → cycles`. Every point is one line of the file.
fn committed_cycles() -> HashMap<(String, usize, usize), u64> {
    BENCH_CYCLES
        .lines()
        .filter_map(|line| {
            let workload = string_field(line, "workload")?;
            let alus = number_field(line, "alus")?;
            let width = number_field(line, "issue_width")?;
            let cycles = number_field(line, "cycles")?;
            Some(((workload.to_owned(), alus as usize, width as usize), cycles))
        })
        .collect()
}

fn field_start<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": "))?;
    Some(&line[at + key.len() + 4..])
}

fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field_start(line, key)?.strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

fn number_field(line: &str, key: &str) -> Option<u64> {
    let rest = field_start(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_parses() {
        let corpus = committed_cycles();
        assert_eq!(corpus.len(), 64);
        assert!(corpus.values().all(|&c| c > 0));
    }
}
