//! Architecture-aware partition quality metrics.
//!
//! The cut-based metrics (hyperedge cut, SOED) live in
//! [`hyperpraw_hypergraph::metrics`]; this module adds the paper's
//! *partitioning communication cost* (equation 5), which combines the cut
//! structure with the physical cost of communication between the compute
//! units hosting each partition, and a [`QualityReport`] bundling everything
//! reported in Figure 4.

use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{
    metrics as cut_metrics, Hypergraph, NeighborAdjacency, Partition, VertexId,
};
use hyperpraw_topology::CostMatrix;

use crate::engine::{CommCostModel, ExactCommCost};

/// The communication cost `T_i(v)` of hosting vertex `v` on partition `i`
/// (equation 4): the number of neighbours of `v` in every other partition
/// `j`, weighted by the cost `C(i, j)` of the link between the two compute
/// units.
///
/// `counts` must hold the neighbour-partition counts `X_j(v)` (as produced
/// by [`NeighborScratch::neighbor_partition_counts`]).
#[inline]
pub fn vertex_comm_cost(counts: &[u32], candidate: u32, cost: &CostMatrix) -> f64 {
    let row = cost.row(candidate as usize);
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(j, &c)| c as f64 * row[j])
        .sum()
}

/// The partitioning communication cost `PC(P)` (equation 5): the sum of
/// `T_i(v)` over every vertex `v`, evaluated at the partition `i` the vertex
/// is assigned to. This is the metric monitored during the refinement phase
/// and reported in Figure 4C.
pub fn partitioning_communication_cost(
    hg: &Hypergraph,
    partition: &Partition,
    cost: &CostMatrix,
) -> f64 {
    assert_eq!(
        partition.num_parts() as usize,
        cost.num_units(),
        "cost matrix size must match the partition count"
    );
    assert_eq!(
        partition.num_vertices(),
        hg.num_vertices(),
        "partition must cover the hypergraph"
    );
    let mut scratch = NeighborScratch::new(hg.num_vertices());
    let mut counts: Vec<u32> = Vec::new();
    let mut total = 0.0;
    for v in hg.vertices() {
        scratch.neighbor_partition_counts(hg, partition, v, &mut counts);
        total += vertex_comm_cost(&counts, partition.part_of(v), cost);
    }
    total
}

/// [`partitioning_communication_cost`] answered through a precomputed
/// [`NeighborAdjacency`]: every vertex's `X_j(v)` comes from a flat scan
/// of its deduplicated neighbour list (hubs fall back to epoch traversal)
/// instead of re-deduplicating the neighbourhood per vertex. Counts are
/// identical exact integers accumulated in the same vertex order, so the
/// result is **bit-identical** to the traversal-based evaluation — this is
/// what lets the refinement stopping rule run on the adjacency without
/// perturbing the engine-equivalence guarantees. This is the engine's
/// [`ExactCommCost`] on one thread.
pub fn partitioning_communication_cost_with(
    hg: &Hypergraph,
    adj: &NeighborAdjacency,
    partition: &Partition,
    cost: &CostMatrix,
) -> f64 {
    ExactCommCost::with_adjacency(hg, adj)
        .comm_cost(partition, cost)
        .expect("exact evaluation always yields a cost")
}

/// All quality metrics the paper reports for one partitioning (Figure 4
/// A/B/C plus the imbalance the tolerance is checked against).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityReport {
    /// Hyperedge cut (Figure 4A).
    pub hyperedge_cut: u64,
    /// Sum of external degrees (Figure 4B).
    pub soed: u64,
    /// Partitioning communication cost (Figure 4C).
    pub comm_cost: f64,
    /// Total imbalance `max W(k) / avg W(k)`.
    pub imbalance: f64,
}

impl QualityReport {
    /// Computes the full report.
    pub fn compute(hg: &Hypergraph, partition: &Partition, cost: &CostMatrix) -> Self {
        Self {
            hyperedge_cut: cut_metrics::hyperedge_cut(hg, partition),
            soed: cut_metrics::soed(hg, partition),
            comm_cost: partitioning_communication_cost(hg, partition, cost),
            imbalance: partition.imbalance(hg).unwrap_or(f64::NAN),
        }
    }

    /// CSV header matching [`QualityReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "hyperedge_cut,soed,comm_cost,imbalance"
    }

    /// Comma-separated row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{:.4},{:.4}",
            self.hyperedge_cut, self.soed, self.comm_cost, self.imbalance
        )
    }
}

/// Convenience: the communication cost of a single vertex in its assigned
/// partition, recomputed from scratch (allocates; prefer batching via
/// [`partitioning_communication_cost`] in hot code).
pub fn vertex_cost_in_place(
    hg: &Hypergraph,
    partition: &Partition,
    cost: &CostMatrix,
    v: VertexId,
) -> f64 {
    let mut scratch = NeighborScratch::new(hg.num_vertices());
    let mut counts = Vec::new();
    scratch.neighbor_partition_counts(hg, partition, v, &mut counts);
    vertex_comm_cost(&counts, partition.part_of(v), cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::HypergraphBuilder;
    use hyperpraw_topology::{BandwidthMatrix, MachineModel};

    /// Two hyperedges: {0,1,2} and {2,3}.
    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3]);
        b.build()
    }

    #[test]
    fn uncut_partition_has_zero_comm_cost() {
        let hg = sample();
        let part = Partition::all_in_one(4, 2);
        let cost = CostMatrix::uniform(2);
        assert_eq!(partitioning_communication_cost(&hg, &part, &cost), 0.0);
    }

    #[test]
    fn uniform_cost_counts_remote_neighbour_pairs() {
        let hg = sample();
        // {0,1} vs {2,3}: vertex 0 has remote neighbour {2}; 1 has {2};
        // 2 has {0,1}; 3 has none (3's only neighbour 2 is with it). Wait:
        // pins of edge {2,3} are split, so 3's neighbour 2 is remote.
        let part = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let cost = CostMatrix::uniform(2);
        // Remote neighbour counts: v0->1, v1->1, v2->2, v3->0 (2 is local to 3).
        // Actually 2 and 3 are both in part 1, so v3 has no remote neighbours
        // and v2 has remote {0,1}. Total = 1 + 1 + 2 + 0 = 4.
        let pc = partitioning_communication_cost(&hg, &part, &cost);
        assert_eq!(pc, 4.0);
    }

    #[test]
    fn comm_cost_scales_with_link_cost() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let cheap = CostMatrix::from_raw(2, vec![0.0, 1.0, 1.0, 0.0]);
        let pricey = CostMatrix::from_raw(2, vec![0.0, 2.0, 2.0, 0.0]);
        let a = partitioning_communication_cost(&hg, &part, &cheap);
        let b = partitioning_communication_cost(&hg, &part, &pricey);
        assert!((b - 2.0 * a).abs() < 1e-12);
    }

    #[test]
    fn placing_cut_on_fast_links_is_cheaper() {
        let hg = sample();
        let machine = MachineModel::archer_like(48);
        let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.0, 1));
        // Same logical split, but once across a socket (fast) and once across
        // blades (slow).
        let fast = Partition::from_fn(4, 48, |v| if v < 2 { 0 } else { 1 });
        let slow = Partition::from_fn(4, 48, |v| if v < 2 { 0 } else { 40 });
        let pc_fast = partitioning_communication_cost(&hg, &fast, &cost);
        let pc_slow = partitioning_communication_cost(&hg, &slow, &cost);
        assert!(pc_fast < pc_slow);
    }

    #[test]
    fn vertex_comm_cost_ignores_own_partition() {
        let cost = CostMatrix::uniform(3);
        // Neighbour counts: 2 in part 0, 5 in part 1, 1 in part 2.
        let counts = vec![2u32, 5, 1];
        // Hosted on part 1: own partition contributes nothing.
        let c = vertex_comm_cost(&counts, 1, &cost);
        assert_eq!(c, 3.0);
    }

    #[test]
    fn quality_report_is_consistent_with_individual_metrics() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let cost = CostMatrix::uniform(2);
        let report = QualityReport::compute(&hg, &part, &cost);
        assert_eq!(report.hyperedge_cut, cut_metrics::hyperedge_cut(&hg, &part));
        assert_eq!(report.soed, cut_metrics::soed(&hg, &part));
        assert_eq!(
            report.comm_cost,
            partitioning_communication_cost(&hg, &part, &cost)
        );
        assert_eq!(
            report.csv_row().split(',').count(),
            QualityReport::csv_header().split(',').count()
        );
    }

    #[test]
    fn vertex_cost_in_place_matches_total() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let cost = CostMatrix::uniform(2);
        let total: f64 = hg
            .vertices()
            .map(|v| vertex_cost_in_place(&hg, &part, &cost, v))
            .sum();
        assert!((total - partitioning_communication_cost(&hg, &part, &cost)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cost matrix size must match")]
    fn mismatched_cost_matrix_is_rejected() {
        let hg = sample();
        let part = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let cost = CostMatrix::uniform(3);
        partitioning_communication_cost(&hg, &part, &cost);
    }
}
