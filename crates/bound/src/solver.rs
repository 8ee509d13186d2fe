//! Worklist fixpoint solver over the bundle CFG.
//!
//! One solver serves every analysis in the crate: an [`Analysis`]
//! supplies the lattice state, the per-bundle transfer function, the
//! propagation [`Direction`] and (for forward, timing-relative analyses)
//! an edge aging hook; the solver iterates to the least fixpoint with a
//! plain LIFO worklist (membership is a per-bundle flag). Analyses whose
//! lattices have unbounded ascending chains (value intervals) opt into
//! widening after a visit budget.

use crate::cfg::Cfg;
use crate::lattice::Lattice;
use epic_isa::Instruction;

/// Propagation direction of an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along control-flow edges.
    Forward,
    /// Facts flow from exits against control-flow edges.
    Backward,
}

/// One dataflow analysis: state lattice, boundary condition and
/// transfer function.
pub trait Analysis {
    /// The per-bundle dataflow state.
    type State: Clone + Lattice;

    /// Which way facts propagate.
    fn direction(&self) -> Direction;

    /// The state at the boundary: the entry bundle's input state
    /// (forward) or the state past every program exit (backward).
    fn boundary(&self) -> Self::State;

    /// The least lattice element — the identity of join. Backward
    /// solving requires it (successor facts accumulate into it);
    /// forward solving never calls it.
    fn bottom(&self) -> Self::State {
        self.boundary()
    }

    /// Applies one bundle to the state: input→output for forward
    /// analyses, output→input for backward ones.
    fn transfer(&self, bi: usize, bundle: &[Instruction], state: &Self::State) -> Self::State;

    /// Ages a state across an edge of `delta` cycles (forward,
    /// timing-relative analyses only; default is a no-op).
    fn age(&self, _state: &mut Self::State, _delta: u32) {}

    /// After how many joins into one node widening kicks in (`None`
    /// disables widening; finite lattices terminate without it).
    fn widen_after(&self) -> Option<u32> {
        None
    }

    /// Coarsens a state to force convergence (called on a node's input
    /// once its visit count exceeds [`Analysis::widen_after`]).
    fn widen(&self, _state: &mut Self::State) {}
}

/// The fixpoint of a forward analysis: each bundle's input state, in
/// bundle-address order (`None` = unreachable from the entry).
pub fn solve_forward<A: Analysis>(
    analysis: &A,
    cfg: &Cfg,
    bundles: &[Vec<Instruction>],
    entry: usize,
) -> Vec<Option<A::State>> {
    debug_assert_eq!(analysis.direction(), Direction::Forward);
    let mut flow_in: Vec<Option<A::State>> = vec![None; bundles.len()];
    if entry >= bundles.len() {
        return flow_in;
    }
    let mut visits = vec![0u32; bundles.len()];
    flow_in[entry] = Some(analysis.boundary());
    let mut worklist = vec![entry];
    let mut in_worklist = vec![false; bundles.len()];
    in_worklist[entry] = true;
    while let Some(bi) = worklist.pop() {
        in_worklist[bi] = false;
        let input = flow_in[bi].as_ref().expect("worklist entries have state");
        let output = analysis.transfer(bi, &bundles[bi], input);
        for edge in cfg.succs(bi) {
            let mut candidate = output.clone();
            analysis.age(&mut candidate, edge.delta);
            let slot = &mut flow_in[edge.to];
            let changed = match slot {
                Some(existing) => existing.join(&candidate),
                None => {
                    *slot = Some(candidate);
                    true
                }
            };
            if changed {
                visits[edge.to] += 1;
                if let Some(budget) = analysis.widen_after() {
                    if visits[edge.to] > budget {
                        if let Some(state) = slot.as_mut() {
                            analysis.widen(state);
                        }
                    }
                }
                if !in_worklist[edge.to] {
                    in_worklist[edge.to] = true;
                    worklist.push(edge.to);
                }
            }
        }
    }
    flow_in
}

/// The fixpoint of a backward analysis.
#[derive(Debug, Clone)]
pub struct BackwardSolution<S> {
    /// Each bundle's input state (facts live *before* the bundle).
    pub flow_in: Vec<S>,
    /// Each bundle's output state (facts live *after* the bundle).
    pub flow_out: Vec<S>,
}

/// Solves a backward analysis over every bundle.
///
/// The boundary state applies past every program exit: bundles with no
/// successors and bundles containing a `HALT`. A *guarded* `HALT` may
/// stop the machine even though fall-through successors exist, so its
/// bundle joins the boundary *and* its successors' facts.
pub fn solve_backward<A: Analysis>(
    analysis: &A,
    cfg: &Cfg,
    bundles: &[Vec<Instruction>],
) -> BackwardSolution<A::State> {
    debug_assert_eq!(analysis.direction(), Direction::Backward);
    let n = bundles.len();
    let boundary = analysis.boundary();
    let mut is_exit = vec![false; n];
    for &h in cfg.halt_bundles() {
        is_exit[h] = true;
    }
    for (bi, exit) in is_exit.iter_mut().enumerate() {
        if cfg.succs(bi).is_empty() {
            *exit = true;
        }
    }

    let mut flow_in: Vec<A::State> = (0..n).map(|_| analysis.bottom()).collect();
    let mut flow_out: Vec<A::State> = (0..n).map(|_| analysis.bottom()).collect();

    let mut worklist: Vec<usize> = (0..n).collect();
    let mut in_worklist = vec![true; n];
    while let Some(bi) = worklist.pop() {
        in_worklist[bi] = false;
        let mut out = analysis.bottom();
        if is_exit[bi] {
            out.join(&boundary);
        }
        for edge in cfg.succs(bi) {
            out.join(&flow_in[edge.to]);
        }
        let input = analysis.transfer(bi, &bundles[bi], &out);
        flow_out[bi] = out;
        if flow_in[bi].join(&input) {
            for edge in cfg.preds(bi) {
                if !in_worklist[edge.to] {
                    in_worklist[edge.to] = true;
                    worklist.push(edge.to);
                }
            }
        }
    }

    BackwardSolution { flow_in, flow_out }
}
