//! Race-hunting stress test for the work-stealing execution strategy.
//!
//! A small hypergraph keeps each individual run cheap, eight workers on few
//! vertices maximises contention on the shared cursor / atomic assignment /
//! fixed-point load counters, and many repetitions with fresh seeds give
//! interleavings plenty of chances to go wrong. CI runs this with
//! `RUST_BACKTRACE=1`, several times over, so a torn invariant names its
//! culprit.

use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig, ParallelConfig};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw_hypergraph::{Hypergraph, HypergraphBuilder};
use hyperpraw_topology::{BandwidthMatrix, MachineModel};

/// Runs 40 seeded eight-worker stealing partitions of `hg` under `cost`
/// and checks the bookkeeping of each against the returned assignment.
fn hammer(hg: &Hypergraph, cost: &CostMatrix, label: &str) {
    let p = cost.num_units() as u32;
    for seed in 0..40u64 {
        let config = HyperPrawConfig {
            max_iterations: 12,
            ..HyperPrawConfig::default().with_seed(seed)
        };
        let result = HyperPraw::new(config, cost.clone())
            .with_parallel(ParallelConfig::stealing(8))
            .partition(hg);

        assert_eq!(result.partition.num_vertices(), hg.num_vertices());
        assert!(
            result.partition.assignment().iter().all(|&x| x < p),
            "{label} seed {seed}: part id out of range"
        );
        let mut recount = vec![0usize; p as usize];
        for &x in result.partition.assignment() {
            recount[x as usize] += 1;
        }
        assert_eq!(
            result.partition.part_sizes(),
            recount,
            "{label} seed {seed}: part-size bookkeeping drifted from the assignment"
        );
        let imbalance = result.partition.imbalance(hg).unwrap();
        assert!(
            (result.imbalance - imbalance).abs() < 1e-9,
            "{label} seed {seed}: reported imbalance {} vs recomputed {}",
            result.imbalance,
            imbalance
        );
    }
}

#[test]
fn hammer_the_work_stealing_strategy_with_eight_threads() {
    // Unit-uniform costs take the scorer's integer shortcut.
    let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
    hammer(&hg, &CostMatrix::uniform(5), "uniform");

    // An architecture-aware matrix drives the column accumulation and the
    // balance terms through the chunk-local load views; dyadic non-unit
    // vertex weights keep the recomputed imbalance exact.
    let mesh = mesh_hypergraph(&MeshConfig::new(400, 6));
    let mut builder = HypergraphBuilder::new(mesh.num_vertices());
    for e in mesh.hyperedges() {
        builder.add_hyperedge(mesh.pins(e).iter().copied());
    }
    for v in 0..mesh.num_vertices() as u32 {
        builder.set_vertex_weight(v, [0.5, 1.0, 1.5, 2.0, 3.0][v as usize % 5]);
    }
    let weighted = builder.build();
    let p = 24;
    let machine = MachineModel::archer_like(p);
    let archer = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1));
    assert!(!archer.is_unit_uniform());
    hammer(&weighted, &archer, "archer");
}
