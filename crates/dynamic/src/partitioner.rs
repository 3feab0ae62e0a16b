//! The resident incremental repartitioner.

use std::collections::BTreeSet;

use hyperpraw_core::engine::{AdjProvider, Engine, EngineConfig, ExactCommCost, WarmStart};
use hyperpraw_core::metrics::partitioning_communication_cost_with;
use hyperpraw_core::{CostMatrix, HyperPrawConfig, PartitionHistory, StopReason};
use hyperpraw_hypergraph::io::stream::InMemoryVertexStream;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{
    AdjacencyBudget, Hypergraph, MutableHypergraph, NeighborAdjacency, Partition, VertexId,
};

use crate::{DynamicError, GraphUpdate};

/// Configuration of a [`DynamicPartitioner`].
#[derive(Clone, Debug)]
pub struct DynamicConfig {
    /// The restreaming parameters every dirty-set repair runs under —
    /// identical semantics to a cold run (α tempering, tolerance,
    /// refinement with comm-cost rollback).
    pub config: HyperPrawConfig,
    /// Rebuild the adjacency from scratch once the fraction of vertices
    /// answered through overlay patches would exceed this after a batch.
    /// Patching is O(touched); the rebuild amortises patch memory and
    /// lookup indirection back to the flat CSR.
    pub staleness_threshold: f64,
    /// Memory policy for the adjacency (re)builds.
    pub budget: AdjacencyBudget,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        Self {
            config: HyperPrawConfig::default(),
            staleness_threshold: 0.25,
            budget: AdjacencyBudget::Auto,
        }
    }
}

/// What one update batch physically moved, in the paper's
/// architecture-aware terms: migrating a vertex between parts costs its
/// weight times the cost-matrix entry of the link it crosses.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MigrationStats {
    /// Pre-existing vertices whose assignment changed.
    pub vertices_moved: usize,
    /// `vertices_moved` over the live vertex count.
    pub moved_fraction: f64,
    /// Σ weight(v) · cost(old part, new part) over the moved vertices.
    pub bytes_moved: f64,
}

/// The outcome of one [`DynamicPartitioner::apply`] batch.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Ids assigned to `AddVertex` updates, in batch order.
    pub new_vertices: Vec<VertexId>,
    /// Size of the dirty set that was restreamed (touched vertices plus
    /// their distinct-neighbour ring).
    pub dirty_vertices: usize,
    /// Whether this batch crossed the staleness threshold and rebuilt the
    /// adjacency instead of patching it.
    pub rebuilt_adjacency: bool,
    /// Restreaming passes executed over the dirty set (`0` when the batch
    /// was empty or touched nothing live).
    pub iterations: usize,
    /// Why the restream stopped, when one ran.
    pub stop_reason: Option<StopReason>,
    /// The α in effect when the restream stopped, when one ran.
    pub final_alpha: Option<f64>,
    /// Doubt-buffer moves during the restream's final revisit.
    pub moved_in_restream: usize,
    /// Load imbalance of the resulting assignment (max/avg).
    pub imbalance: f64,
    /// Per-pass history of the restream (empty when tracking is off or no
    /// restream ran).
    pub history: PartitionHistory,
    /// Migration cost of this batch.
    pub migration: MigrationStats,
}

/// A resident partitioner that absorbs [`GraphUpdate`] batches by
/// restreaming only the dirty region. See the [crate docs](crate) for the
/// full flow.
#[derive(Clone, Debug)]
pub struct DynamicPartitioner {
    graph: MutableHypergraph,
    /// CSR snapshot of `graph`, re-materialised after every batch — what
    /// the engine, adjacency and metrics read.
    snapshot: Hypergraph,
    adj: NeighborAdjacency,
    partition: Partition,
    loads: Vec<f64>,
    cost: CostMatrix,
    cfg: DynamicConfig,
    metrics: DynMetrics,
}

/// Batch instrumentation bound by [`DynamicPartitioner::set_registry`]
/// (all no-ops by default). Recording is observation-only: outcomes are
/// computed first, then mirrored here.
#[derive(Clone, Debug, Default)]
struct DynMetrics {
    /// Update batches applied.
    batches: hyperpraw_telemetry::Counter,
    /// Dirty-set size of each batch (touched vertices + neighbour ring).
    dirty_set_size: hyperpraw_telemetry::Histogram,
    /// Pre-existing vertices migrated across batches.
    migrated_vertices: hyperpraw_telemetry::Counter,
    /// Σ weight · link-cost of migrations, rounded to whole units.
    migrated_bytes: hyperpraw_telemetry::Counter,
    /// Kept so each batch's restream engine can bind its own `engine.*`
    /// metrics (pass timings, vertices scored, doubt occupancy).
    registry: hyperpraw_telemetry::Registry,
}

impl DynamicPartitioner {
    /// Adopts an already-partitioned hypergraph: `partition` becomes the
    /// live assignment (typically the output of a cold run over `hg`) and
    /// the adjacency is built once up front.
    pub fn new(
        hg: &Hypergraph,
        partition: Partition,
        cost: CostMatrix,
        cfg: DynamicConfig,
    ) -> Result<Self, DynamicError> {
        if partition.num_vertices() != hg.num_vertices() {
            return Err(DynamicError::Invalid(format!(
                "partition covers {} vertices but the hypergraph has {}",
                partition.num_vertices(),
                hg.num_vertices()
            )));
        }
        if partition.num_parts() as usize != cost.num_units() {
            return Err(DynamicError::Invalid(format!(
                "partition has {} parts but the cost matrix covers {} units",
                partition.num_parts(),
                cost.num_units()
            )));
        }
        if !cfg.staleness_threshold.is_finite() || cfg.staleness_threshold < 0.0 {
            return Err(DynamicError::Invalid(format!(
                "staleness threshold must be finite and non-negative, got {}",
                cfg.staleness_threshold
            )));
        }
        let loads = partition
            .part_loads(hg)
            .map_err(|e| DynamicError::Invalid(e.to_string()))?;
        Ok(Self {
            graph: MutableHypergraph::from_hypergraph(hg),
            snapshot: hg.clone(),
            adj: NeighborAdjacency::build(hg, cfg.budget),
            partition,
            loads,
            cost,
            cfg,
            metrics: DynMetrics::default(),
        })
    }

    /// Rebuilds a partitioner from persisted state: the mutable
    /// hypergraph (tombstones included) and the assignment it had
    /// reached, plus the cost matrix and configuration it ran under —
    /// the recovery path of [`crate::journal`]. The CSR snapshot,
    /// adjacency and per-part loads are rematerialised deterministically,
    /// so the resumed instance answers every query and absorbs every
    /// subsequent batch bit-identically to the instance that was
    /// serialised.
    pub fn resume(
        graph: MutableHypergraph,
        partition: Partition,
        cost: CostMatrix,
        cfg: DynamicConfig,
    ) -> Result<Self, DynamicError> {
        let snapshot = graph.to_hypergraph();
        if partition.num_vertices() != snapshot.num_vertices() {
            return Err(DynamicError::Invalid(format!(
                "partition covers {} vertices but the hypergraph has {}",
                partition.num_vertices(),
                snapshot.num_vertices()
            )));
        }
        if partition.num_parts() as usize != cost.num_units() {
            return Err(DynamicError::Invalid(format!(
                "partition has {} parts but the cost matrix covers {} units",
                partition.num_parts(),
                cost.num_units()
            )));
        }
        if !cfg.staleness_threshold.is_finite() || cfg.staleness_threshold < 0.0 {
            return Err(DynamicError::Invalid(format!(
                "staleness threshold must be finite and non-negative, got {}",
                cfg.staleness_threshold
            )));
        }
        let loads = partition
            .part_loads(&snapshot)
            .map_err(|e| DynamicError::Invalid(e.to_string()))?;
        Ok(Self {
            adj: NeighborAdjacency::build(&snapshot, cfg.budget),
            graph,
            snapshot,
            partition,
            loads,
            cost,
            cfg,
            metrics: DynMetrics::default(),
        })
    }

    /// Binds batch instrumentation to `registry` (metrics under the
    /// `dynamic.` prefix): batches applied, dirty-set sizes, and migrated
    /// vertices/bytes.
    pub fn set_registry(&mut self, registry: &hyperpraw_telemetry::Registry) {
        self.metrics = DynMetrics {
            batches: registry.counter("dynamic.batches_applied"),
            dirty_set_size: registry.histogram("dynamic.dirty_set_size"),
            migrated_vertices: registry.counter("dynamic.migrated_vertices"),
            migrated_bytes: registry.counter("dynamic.migrated_bytes"),
            registry: registry.clone(),
        };
    }

    /// The resident mutable hypergraph — the state
    /// [`crate::journal`] snapshots serialise (liveness flags included).
    pub fn graph(&self) -> &MutableHypergraph {
        &self.graph
    }

    /// The current CSR snapshot (tombstones included as weight-0 /
    /// empty-pin ids).
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.snapshot
    }

    /// The current assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Per-part vertex-weight loads of the current assignment.
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// The cost matrix migrations and restreams are scored against.
    pub fn cost(&self) -> &CostMatrix {
        &self.cost
    }

    /// The configuration in use.
    pub fn config(&self) -> &DynamicConfig {
        &self.cfg
    }

    /// The part of `v`, or `None` when `v` is unknown or tombstoned —
    /// the serve protocol's `lookup`.
    pub fn lookup(&self, v: VertexId) -> Option<u32> {
        if self.graph.is_vertex_alive(v) {
            Some(self.partition.part_of(v))
        } else {
            None
        }
    }

    /// Load imbalance (max/avg) of the current assignment.
    pub fn imbalance(&self) -> f64 {
        imbalance_of(&self.loads)
    }

    /// Architecture-aware communication cost of the current assignment.
    pub fn comm_cost(&self) -> f64 {
        partitioning_communication_cost_with(&self.snapshot, &self.adj, &self.partition, &self.cost)
    }

    /// Applies one batch of updates: mutate, patch (or rebuild) the
    /// adjacency, restream the dirty set warm-started from the current
    /// assignment, and account the migration. The batch is atomic — on
    /// error nothing changed; an empty batch returns a zero outcome and
    /// leaves the assignment bit-identical.
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<UpdateOutcome, DynamicError> {
        if updates.is_empty() {
            return Ok(UpdateOutcome {
                new_vertices: Vec::new(),
                dirty_vertices: 0,
                rebuilt_adjacency: false,
                iterations: 0,
                stop_reason: None,
                final_alpha: None,
                moved_in_restream: 0,
                imbalance: self.imbalance(),
                history: PartitionHistory::new(),
                migration: MigrationStats::default(),
            });
        }

        // Phase 1 — mutate a working copy so a mid-batch error leaves the
        // partitioner untouched, collecting the core touched set: every
        // vertex named in an update plus the pre/post pins of every
        // touched hyperedge (their connectivity changed too).
        let mut graph = self.graph.clone();
        let mut core: BTreeSet<VertexId> = BTreeSet::new();
        let mut new_vertices = Vec::new();
        for update in updates {
            match update {
                GraphUpdate::AddVertex { weight } => {
                    let v = graph.add_vertex(*weight);
                    new_vertices.push(v);
                    core.insert(v);
                }
                GraphUpdate::RemoveVertex { vertex } => {
                    if (*vertex as usize) < graph.num_vertices() {
                        for &e in graph.incident_edges(*vertex) {
                            core.extend(graph.pins(e).iter().copied());
                        }
                    }
                    graph.remove_vertex(*vertex)?;
                    core.insert(*vertex);
                }
                GraphUpdate::AddHyperedge { pins, weight } => {
                    let e = graph.add_hyperedge(pins.iter().copied(), *weight)?;
                    core.extend(graph.pins(e).iter().copied());
                }
                GraphUpdate::RemoveHyperedge { edge } => {
                    if (*edge as usize) < graph.num_hyperedges() {
                        core.extend(graph.pins(*edge).iter().copied());
                    }
                    graph.remove_hyperedge(*edge)?;
                }
                GraphUpdate::AddPin { edge, vertex } => {
                    graph.add_pin(*edge, *vertex)?;
                    core.extend(graph.pins(*edge).iter().copied());
                }
                GraphUpdate::RemovePin { edge, vertex } => {
                    if (*edge as usize) < graph.num_hyperedges() {
                        core.extend(graph.pins(*edge).iter().copied());
                    }
                    graph.remove_pin(*edge, *vertex)?;
                    core.insert(*vertex);
                }
            }
        }

        // Phase 2 — commit the mutation, extend the assignment over any
        // appended ids (seeded round-robin, exactly like a cold start
        // seeds unknown vertices), and refresh the snapshot and loads.
        self.graph = graph;
        let pre_partition = self.partition.clone();
        let pre_n = pre_partition.num_vertices();
        let n = self.graph.num_vertices();
        let p = self.cost.num_units() as u32;
        if n > pre_n {
            let mut assignment = pre_partition.assignment().to_vec();
            assignment.extend((pre_n..n).map(|v| v as u32 % p));
            self.partition = Partition::from_assignment(assignment, p)
                .expect("extended assignment stays within the part count");
        }
        self.snapshot = self.graph.to_hypergraph();
        self.loads = self
            .partition
            .part_loads(&self.snapshot)
            .expect("partition covers every snapshot vertex");

        // Phase 3 — adjacency maintenance: patch the touched vertices in
        // place, or rebuild once the overlay would pass the staleness
        // threshold.
        self.adj.ensure_vertices(n);
        let stale_fraction = (self.adj.patched_count() + core.len()) as f64 / n.max(1) as f64;
        let rebuilt_adjacency = stale_fraction > self.cfg.staleness_threshold;
        if rebuilt_adjacency {
            self.adj = NeighborAdjacency::build(&self.snapshot, self.cfg.budget);
        } else {
            let mut scratch = NeighborScratch::new(n);
            for &v in &core {
                self.adj
                    .patch_vertex(v, scratch.neighbors(&self.snapshot, v).to_vec());
            }
        }

        // Phase 4 — dirty closure: the live touched vertices plus one
        // distinct-neighbour ring around them (their value function
        // changed even though their own incidence did not).
        let graph = &self.graph;
        let adj = &self.adj;
        let mut dirty: BTreeSet<VertexId> = core
            .iter()
            .copied()
            .filter(|&v| graph.is_vertex_alive(v))
            .collect();
        let mut ring_fallback: Option<NeighborScratch> = None;
        for &v in &core {
            let ring: &[VertexId] = match adj.neighbors(v) {
                Some(list) => list,
                None => ring_fallback
                    .get_or_insert_with(|| NeighborScratch::new(n))
                    .neighbors(&self.snapshot, v),
            };
            dirty.extend(ring.iter().copied().filter(|&u| graph.is_vertex_alive(u)));
        }
        let dirty: Vec<VertexId> = dirty.into_iter().collect();

        // Phase 5 — restream only the dirty set, warm-started from the
        // current assignment, under the cold-run stopping rules.
        let mut iterations = 0;
        let mut stop_reason = None;
        let mut final_alpha = None;
        let mut moved_in_restream = 0;
        let mut history = PartitionHistory::new();
        if !dirty.is_empty() {
            let engine = Engine::new(EngineConfig::restreaming(&self.cfg.config))
                .with_registry(&self.metrics.registry);
            let mut source = InMemoryVertexStream::with_order(&self.snapshot, dirty.clone());
            let mut provider = AdjProvider::from_adjacency(&self.snapshot, &self.adj)
                .with_registry(&self.metrics.registry);
            let mut model = ExactCommCost::with_adjacency(&self.snapshot, &self.adj);
            let warm = WarmStart {
                partition: self.partition.clone(),
                loads: self.loads.clone(),
            };
            let run = engine
                .run_warm(&self.cost, &mut source, &mut provider, &mut model, warm)
                .expect("in-memory sources cannot fail");
            self.partition = run.partition;
            self.loads = self
                .partition
                .part_loads(&self.snapshot)
                .expect("restreamed partition covers every snapshot vertex");
            iterations = run.iterations;
            stop_reason = Some(run.stop_reason);
            final_alpha = Some(run.final_alpha);
            moved_in_restream = run.moved_in_restream;
            history = run.history;
        }

        // Phase 6 — migration accounting over the pre-existing id space.
        let mut vertices_moved = 0usize;
        let mut bytes_moved = 0.0f64;
        for v in 0..pre_n as VertexId {
            if !self.graph.is_vertex_alive(v) {
                continue;
            }
            let old = pre_partition.part_of(v);
            let new = self.partition.part_of(v);
            if old != new {
                vertices_moved += 1;
                bytes_moved +=
                    self.snapshot.vertex_weight(v) * self.cost.get(old as usize, new as usize);
            }
        }
        let live = self.graph.num_live_vertices();
        let migration = MigrationStats {
            vertices_moved,
            moved_fraction: if live == 0 {
                0.0
            } else {
                vertices_moved as f64 / live as f64
            },
            bytes_moved,
        };

        self.metrics.batches.inc();
        self.metrics.dirty_set_size.record(dirty.len() as u64);
        self.metrics
            .migrated_vertices
            .add(migration.vertices_moved as u64);
        self.metrics
            .migrated_bytes
            .add(migration.bytes_moved.round().max(0.0) as u64);

        Ok(UpdateOutcome {
            new_vertices,
            dirty_vertices: dirty.len(),
            rebuilt_adjacency,
            iterations,
            stop_reason,
            final_alpha,
            moved_in_restream,
            imbalance: self.imbalance(),
            history,
            migration,
        })
    }
}

/// Max-over-average load imbalance, `0` for an empty instance.
fn imbalance_of(loads: &[f64]) -> f64 {
    let total: f64 = loads.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let avg = total / loads.len() as f64;
    loads.iter().cloned().fold(f64::MIN, f64::max) / avg
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_core::HyperPraw;
    use hyperpraw_hypergraph::generators::{mesh_hypergraph, MeshConfig};

    fn seeded(n: usize, p: usize) -> DynamicPartitioner {
        let hg = mesh_hypergraph(&MeshConfig::new(n, 8));
        let cost = CostMatrix::uniform(p);
        let cold = HyperPraw::new(HyperPrawConfig::default(), cost.clone()).partition(&hg);
        DynamicPartitioner::new(&hg, cold.partition, cost, DynamicConfig::default()).unwrap()
    }

    #[test]
    fn empty_batch_is_bit_identical_and_free() {
        let mut dp = seeded(300, 4);
        let before = dp.partition().assignment().to_vec();
        let outcome = dp.apply(&[]).unwrap();
        assert_eq!(dp.partition().assignment(), &before[..]);
        assert_eq!(outcome.dirty_vertices, 0);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.migration, MigrationStats::default());
    }

    #[test]
    fn additions_extend_the_assignment_and_restream_the_neighbourhood() {
        let mut dp = seeded(300, 4);
        let outcome = dp
            .apply(&[
                GraphUpdate::AddVertex { weight: 1.0 },
                GraphUpdate::AddVertex { weight: 2.0 },
                GraphUpdate::AddHyperedge {
                    pins: vec![0, 1, 300, 301],
                    weight: 1.0,
                },
            ])
            .unwrap();
        assert_eq!(outcome.new_vertices, vec![300, 301]);
        assert!(outcome.dirty_vertices >= 4);
        assert!(outcome.iterations >= 1);
        assert_eq!(dp.partition().num_vertices(), 302);
        assert_eq!(dp.hypergraph().num_vertices(), 302);
        assert!(dp.lookup(301).is_some());
        // Loads stay exact against the snapshot.
        let expected = dp.partition().part_loads(dp.hypergraph()).unwrap();
        assert_eq!(dp.loads(), &expected[..]);
    }

    #[test]
    fn removals_tombstone_and_lookups_reflect_it() {
        let mut dp = seeded(300, 4);
        assert!(dp.lookup(7).is_some());
        let outcome = dp
            .apply(&[GraphUpdate::RemoveVertex { vertex: 7 }])
            .unwrap();
        assert!(dp.lookup(7).is_none());
        assert_eq!(dp.hypergraph().vertex_weight(7), 0.0);
        assert!(outcome.dirty_vertices >= 1);
    }

    #[test]
    fn rejected_batches_change_nothing() {
        let mut dp = seeded(200, 4);
        let before = dp.clone();
        let err = dp
            .apply(&[
                GraphUpdate::AddVertex { weight: 1.0 },
                GraphUpdate::AddPin {
                    edge: 9_999,
                    vertex: 0,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, DynamicError::Mutation(_)));
        assert_eq!(dp.partition().assignment(), before.partition().assignment());
        assert_eq!(dp.hypergraph(), before.hypergraph());
        assert_eq!(dp.loads(), before.loads());
    }

    #[test]
    fn staleness_threshold_forces_a_rebuild() {
        let hg = mesh_hypergraph(&MeshConfig::new(100, 6));
        let cost = CostMatrix::uniform(2);
        let cold = HyperPraw::new(HyperPrawConfig::default(), cost.clone()).partition(&hg);
        let cfg = DynamicConfig {
            staleness_threshold: 0.0,
            ..DynamicConfig::default()
        };
        let mut dp = DynamicPartitioner::new(&hg, cold.partition, cost, cfg).unwrap();
        let outcome = dp
            .apply(&[GraphUpdate::AddHyperedge {
                pins: vec![0, 50],
                weight: 1.0,
            }])
            .unwrap();
        assert!(outcome.rebuilt_adjacency);
    }

    #[test]
    fn mismatched_inputs_are_rejected_up_front() {
        let hg = mesh_hypergraph(&MeshConfig::new(50, 6));
        let part = Partition::round_robin(49, 4);
        assert!(matches!(
            DynamicPartitioner::new(&hg, part, CostMatrix::uniform(4), DynamicConfig::default()),
            Err(DynamicError::Invalid(_))
        ));
        let part = Partition::round_robin(50, 4);
        assert!(matches!(
            DynamicPartitioner::new(&hg, part, CostMatrix::uniform(8), DynamicConfig::default()),
            Err(DynamicError::Invalid(_))
        ));
    }
}
