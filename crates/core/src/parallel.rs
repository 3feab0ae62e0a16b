//! Parallel (multi-stream) restreaming — the paper's future-work extension.
//!
//! The paper notes (§8.2) that sequential restreaming limits scalability and
//! points to Battaglino et al.'s GraSP as evidence that *parallel* streaming
//! with periodic synchronisation loses little quality. Parallelism changes
//! only how each stream is executed, so it is not a second driver: a
//! [`ParallelConfig`] handed to [`crate::HyperPraw::with_parallel`] selects
//! one of the engine's multi-worker strategies, and the restreaming loop
//! (α tempering, tolerance check, refinement on the partitioning
//! communication cost) stays the engine's, identical to the sequential run.
//!
//! * [`ParallelMode::Bsp`] — bulk-synchronous windows
//!   ([`ExecutionStrategy::Chunked`]): within a window, worker threads
//!   re-assign the vertices of their chunks against a frozen snapshot of
//!   the global assignment, tracking their own load deltas (so each sees
//!   its *local* moves immediately but other workers' moves only at the
//!   next synchronisation); at the window boundary all proposals are
//!   applied and the global workloads updated — GraSP's "periodically
//!   synchronising workload and partition assignments" step.
//!   Deterministic at any thread count.
//! * [`ParallelMode::WorkStealing`] — lock-free chunk claiming against a
//!   live atomic assignment and load views synced every few placements
//!   ([`ExecutionStrategy::WorkStealing`]): no barriers, bounded
//!   staleness, not bit-reproducible above one worker.
//!
//! The trade-off is the classic one: wall-clock time per stream drops with
//! the number of workers while the partition quality degrades slightly
//! because decisions are made against stale information. The
//! `partitioners` bench quantifies this. With a single worker no
//! information is stale and either mode degenerates to the sequential
//! strategy, so `num_threads = 1` reproduces the sequential run exactly.

use crate::engine::{ExecutionStrategy, DEFAULT_STEAL_CHUNK};

/// How a parallel run schedules its worker threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelMode {
    /// Bulk-synchronous windows against frozen snapshots
    /// ([`ExecutionStrategy::Chunked`]): deterministic for any thread
    /// count, the reproducibility mode.
    #[default]
    Bsp,
    /// Lock-free chunk claiming against a live atomic assignment and
    /// frequently synced load views
    /// ([`ExecutionStrategy::WorkStealing`]): valid at any thread count,
    /// but not bit-reproducible above one worker — the throughput mode.
    WorkStealing,
}

impl ParallelMode {
    /// Name as written on the command line and in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ParallelMode::Bsp => "bsp",
            ParallelMode::WorkStealing => "steal",
        }
    }

    /// Parses a command-line spelling (`bsp` | `steal`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "bsp" => Some(ParallelMode::Bsp),
            "steal" | "work-stealing" | "worksteal" => Some(ParallelMode::WorkStealing),
            _ => None,
        }
    }

    /// The engine strategy this mode selects at `num_threads` workers
    /// synchronising every `sync_interval` vertices (BSP only; the
    /// stealing strategy claims [`DEFAULT_STEAL_CHUNK`]-vertex chunks).
    pub fn strategy(&self, num_threads: usize, sync_interval: usize) -> ExecutionStrategy {
        match self {
            ParallelMode::Bsp => ExecutionStrategy::Chunked {
                num_threads,
                sync_interval,
            },
            ParallelMode::WorkStealing => ExecutionStrategy::WorkStealing {
                num_threads,
                chunk: DEFAULT_STEAL_CHUNK,
            },
        }
    }
}

/// Configuration of a parallel run ([`crate::HyperPraw::with_parallel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of worker threads (streams). 1 reproduces the sequential
    /// run exactly.
    pub num_threads: usize,
    /// How many vertices are processed between global synchronisations.
    /// Smaller intervals give fresher information (quality closer to the
    /// sequential stream) at the price of more synchronisation overhead —
    /// the knob GraSP calls the synchronisation period. Ignored by
    /// [`ParallelMode::WorkStealing`], which has no synchronisation
    /// windows.
    pub sync_interval: usize,
    /// Worker scheduling: deterministic bulk-synchronous windows or
    /// lock-free work stealing.
    pub mode: ParallelMode,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            num_threads: 4,
            sync_interval: 512,
            mode: ParallelMode::Bsp,
        }
    }
}

impl ParallelConfig {
    /// Convenience constructor with the default synchronisation period.
    pub fn with_threads(num_threads: usize) -> Self {
        Self {
            num_threads,
            ..Self::default()
        }
    }

    /// Convenience constructor for the work-stealing mode.
    pub fn stealing(num_threads: usize) -> Self {
        Self {
            num_threads,
            mode: ParallelMode::WorkStealing,
            ..Self::default()
        }
    }

    /// Validates parameter ranges, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_threads == 0 {
            return Err("need at least one worker thread".into());
        }
        if self.sync_interval == 0 {
            return Err("synchronisation interval must be at least 1 vertex".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::partitioning_communication_cost;
    use crate::{CostMatrix, HyperPraw, HyperPrawConfig};
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};
    use hyperpraw_hypergraph::{metrics, Partition};
    use hyperpraw_topology::{BandwidthMatrix, MachineModel};

    fn archer_cost(p: usize) -> CostMatrix {
        let machine = MachineModel::archer_like(p);
        CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 1))
    }

    #[test]
    fn parallel_partition_is_valid_and_balanced() {
        let hg = mesh_hypergraph(&MeshConfig::new(900, 8));
        let praw = HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(8))
            .with_parallel(ParallelConfig::with_threads(4));
        let result = praw.partition(&hg);
        assert_eq!(result.partition.num_parts(), 8);
        assert_eq!(result.partition.num_vertices(), 900);
        assert!(
            result.imbalance <= 1.1 + 1e-9,
            "imbalance {}",
            result.imbalance
        );
    }

    #[test]
    fn parallel_quality_is_close_to_sequential() {
        let hg = mesh_hypergraph(&MeshConfig::new(1000, 8));
        let p = 8u32;
        let seq = HyperPraw::basic(HyperPrawConfig::default(), p).partition(&hg);
        let par = HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(p as usize))
            .with_parallel(ParallelConfig::with_threads(4))
            .partition(&hg);
        let seq_soed = metrics::soed(&hg, &seq.partition) as f64;
        let par_soed = metrics::soed(&hg, &par.partition) as f64;
        // GraSP-style result: parallel streaming should stay within ~2x of the
        // sequential quality (it is usually much closer).
        assert!(
            par_soed <= 2.0 * seq_soed.max(1.0),
            "parallel SOED {par_soed} too far from sequential {seq_soed}"
        );
        // And it must still beat round robin comfortably.
        let rr = metrics::soed(&hg, &Partition::round_robin(1000, p)) as f64;
        assert!(par_soed < rr);
    }

    #[test]
    fn single_worker_reproduces_the_sequential_driver_exactly() {
        // One worker has nothing to race: the engine decides with live
        // information, so the run is bit-identical to HyperPraw.
        let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
        let praw = HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(4))
            .with_parallel(ParallelConfig::with_threads(1));
        let a = praw.partition(&hg);
        let b = praw.partition(&hg);
        assert_eq!(a.partition, b.partition);
        let seq = HyperPraw::basic(HyperPrawConfig::default(), 4).partition(&hg);
        assert_eq!(a.partition, seq.partition);
        assert_eq!(a.iterations, seq.iterations);
        assert_eq!(a.history, seq.history);
    }

    #[test]
    fn final_partial_window_publishes_its_load_deltas() {
        // 901 vertices with a 300-vertex window leaves a trailing window of
        // one vertex: its assignment and load delta must land in the global
        // state before the pass-end metrics are computed.
        let hg = mesh_hypergraph(&MeshConfig::new(901, 8));
        let praw = HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(6))
            .with_parallel(ParallelConfig {
                num_threads: 4,
                sync_interval: 300,
                mode: ParallelMode::Bsp,
            });
        let result = praw.partition(&hg);
        assert_eq!(result.partition.num_vertices(), 901);
        // The loads-based imbalance the stopping rule saw must agree with a
        // recomputation from the final assignment.
        let recomputed = result.partition.imbalance(&hg).unwrap();
        assert!(
            (result.imbalance - recomputed).abs() < 1e-9,
            "tracked imbalance {} diverged from recomputed {recomputed}",
            result.imbalance
        );
        assert!(result.imbalance <= 1.1 + 1e-9);
    }

    #[test]
    fn aware_parallel_still_beats_basic_parallel_on_comm_cost() {
        let hg = mesh_hypergraph(&MeshConfig::new(1600, 10));
        let p = 24usize;
        let cost = archer_cost(p);
        // Start with a small α so the early streams are communication-driven
        // (the FENNEL default is so balance-heavy for p=24 on a small mesh
        // that the first couple of bulk-synchronous streams are identical for
        // any cost matrix, and a parallel run may converge before the
        // refinement phase has relaxed α enough to tell them apart).
        let config = HyperPrawConfig {
            initial_alpha: Some(2.0),
            ..HyperPrawConfig::default()
        };
        let aware = HyperPraw::new(config, cost.clone())
            .with_parallel(ParallelConfig::with_threads(2))
            .partition(&hg);
        let basic = HyperPraw::new(config, CostMatrix::uniform(p))
            .with_parallel(ParallelConfig::with_threads(2))
            .partition(&hg);
        let aware_pc = partitioning_communication_cost(&hg, &aware.partition, &cost);
        let basic_pc = partitioning_communication_cost(&hg, &basic.partition, &cost);
        assert!(
            aware_pc < basic_pc,
            "aware {aware_pc} should beat basic {basic_pc}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(4))
            .with_parallel(ParallelConfig::with_threads(0));
    }

    #[test]
    fn single_stealing_worker_reproduces_the_sequential_driver_exactly() {
        // The work-stealing strategy at one worker runs the live
        // sequential loop: bit-identical partitions, iterations and
        // history against HyperPraw — the determinism anchor of the
        // three-strategy split.
        let hg = mesh_hypergraph(&MeshConfig::new(400, 8));
        let praw = HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(4))
            .with_parallel(ParallelConfig::stealing(1));
        let a = praw.partition(&hg);
        let seq = HyperPraw::basic(HyperPrawConfig::default(), 4).partition(&hg);
        assert_eq!(a.partition, seq.partition);
        assert_eq!(a.iterations, seq.iterations);
        assert_eq!(a.history, seq.history);
    }

    #[test]
    fn stealing_partition_is_valid_and_balanced_at_any_thread_count() {
        let hg = mesh_hypergraph(&MeshConfig::new(900, 8));
        for threads in [2usize, 4, 8] {
            let praw = HyperPraw::new(HyperPrawConfig::default(), CostMatrix::uniform(8))
                .with_parallel(ParallelConfig::stealing(threads));
            let result = praw.partition(&hg);
            assert_eq!(result.partition.num_parts(), 8);
            assert_eq!(result.partition.num_vertices(), 900);
            assert!(
                result.imbalance <= 1.1 + 1e-9,
                "threads {threads}: imbalance {}",
                result.imbalance
            );
            // The loads the stopping rule tracked must agree exactly with
            // a recount from the returned assignment.
            let recomputed = result.partition.imbalance(&hg).unwrap();
            assert!(
                (result.imbalance - recomputed).abs() < 1e-9,
                "threads {threads}: tracked {} vs recomputed {recomputed}",
                result.imbalance
            );
        }
    }

    #[test]
    fn parallel_mode_round_trips_names() {
        for mode in [ParallelMode::Bsp, ParallelMode::WorkStealing] {
            assert_eq!(ParallelMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(
            ParallelMode::parse("work-stealing"),
            Some(ParallelMode::WorkStealing)
        );
        assert_eq!(ParallelMode::parse("nope"), None);
    }
}
