//! Correctness checks on every output the benchmark receives. Each check
//! recomputes what it verifies from the inputs, never from the program's
//! own summary of itself.

use hyperpraw::core::metrics::partitioning_communication_cost;
use hyperpraw::core::CostMatrix;
use hyperpraw::hypergraph::{Hypergraph, Partition};

/// Every vertex of a `num_vertices`-vertex graph holds a part in `[0, p)`.
pub fn check_assignment(assignment: &[u32], num_vertices: usize, p: u32) -> Result<(), String> {
    if assignment.len() != num_vertices {
        return Err(format!(
            "assignment covers {} vertices, the graph has {num_vertices}",
            assignment.len()
        ));
    }
    match assignment.iter().position(|&part| part >= p) {
        Some(v) => Err(format!(
            "vertex {v} is assigned part {} outside [0, {p})",
            assignment[v]
        )),
        None => Ok(()),
    }
}

/// `max load / average load` over `p` parts, with each vertex weighing
/// `weight(v)`.
pub fn imbalance(assignment: &[u32], p: u32, weight: impl Fn(usize) -> f64) -> f64 {
    let mut loads = vec![0.0f64; p as usize];
    for (v, &part) in assignment.iter().enumerate() {
        loads[part as usize] += weight(v);
    }
    let total: f64 = loads.iter().sum();
    let max = loads.iter().copied().fold(0.0, f64::max);
    if total == 0.0 {
        1.0
    } else {
        max / (total / f64::from(p))
    }
}

/// The imbalance is within the job's tolerance.
pub fn check_imbalance(imbalance: f64, tolerance: f64) -> Result<(), String> {
    if imbalance <= tolerance {
        Ok(())
    } else {
        Err(format!(
            "imbalance {imbalance} exceeds the tolerance {tolerance}"
        ))
    }
}

/// The communication cost of `assignment`, recomputed from scratch.
pub fn comm_cost(hg: &Hypergraph, assignment: &[u32], p: u32, cost: &CostMatrix) -> f64 {
    let partition =
        Partition::from_assignment(assignment.to_vec(), p).expect("assignment checked in range");
    partitioning_communication_cost(hg, &partition, cost)
}

/// A finished partition of `hg`: parts in range, imbalance within
/// `tolerance` (vertex weights), and — when the run reported one — the
/// reported communication cost equal to the recomputed one. Returns the
/// recomputed cost.
pub fn check_partition(
    hg: &Hypergraph,
    assignment: &[u32],
    p: u32,
    cost: &CostMatrix,
    tolerance: f64,
    reported_cost: Option<f64>,
) -> Result<f64, String> {
    check_assignment(assignment, hg.num_vertices(), p)?;
    check_imbalance(
        imbalance(assignment, p, |v| hg.vertex_weight(v as u32)),
        tolerance,
    )?;
    let recomputed = comm_cost(hg, assignment, p, cost);
    match reported_cost {
        Some(reported) if reported != recomputed => Err(format!(
            "reported comm cost {reported} differs from the recomputed {recomputed}"
        )),
        _ => Ok(recomputed),
    }
}
