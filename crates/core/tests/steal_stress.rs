//! Race-hunting stress test for the work-stealing execution strategy.
//!
//! A small hypergraph keeps each individual run cheap, eight workers on few
//! vertices maximises contention on the shared cursor / atomic assignment /
//! fixed-point load counters, and many repetitions with fresh seeds give
//! interleavings plenty of chances to go wrong. CI runs this with
//! `RUST_BACKTRACE=1` so a torn invariant names its culprit.

use hyperpraw_core::{CostMatrix, HyperPraw, HyperPrawConfig, ParallelConfig};
use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};

#[test]
fn hammer_the_work_stealing_strategy_with_eight_threads() {
    let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
    let p = 5u32;
    for seed in 0..40u64 {
        let config = HyperPrawConfig {
            max_iterations: 12,
            ..HyperPrawConfig::default().with_seed(seed)
        };
        let result = HyperPraw::new(config, CostMatrix::uniform(p as usize))
            .with_parallel(ParallelConfig::stealing(8))
            .partition(&hg);

        assert_eq!(result.partition.num_vertices(), hg.num_vertices());
        assert!(
            result.partition.assignment().iter().all(|&x| x < p),
            "seed {seed}: part id out of range"
        );
        let mut recount = vec![0usize; p as usize];
        for &x in result.partition.assignment() {
            recount[x as usize] += 1;
        }
        assert_eq!(
            result.partition.part_sizes(),
            recount,
            "seed {seed}: part-size bookkeeping drifted from the assignment"
        );
        let imbalance = result.partition.imbalance(&hg).unwrap();
        assert!(
            (result.imbalance - imbalance).abs() < 1e-9,
            "seed {seed}: reported imbalance {} vs recomputed {}",
            result.imbalance,
            imbalance
        );
    }
}
