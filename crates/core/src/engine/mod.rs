//! The generic restreaming engine — one implementation of the paper's
//! Algorithm 1 shared by every partitioning driver in the workspace.
//!
//! HyperPRAW's restreaming loop is a single algorithm: visit every vertex,
//! score each candidate partition with the value function of
//! [`crate::value`], assign greedily, temper the balance weight `α` until
//! the imbalance tolerance holds, then refine while the partitioning
//! communication cost improves. What varies between deployment scenarios
//! is *where the vertices come from*, *where the connectivity state
//! lives*, and *how many workers run the stream*. The engine reads the
//! first axis through the one stream contract of the hypergraph crate
//! ([`VertexStream`]), the second through [`ConnectivityProvider`], and
//! the third as a worker count ([`EngineConfig::threads`]), and keeps the
//! loop itself in one place:
//!
//! ```text
//!                       ┌──────────────────────────────┐
//!                       │          Engine::run         │
//!                       │  stream order · α tempering  │
//!                       │  tolerance / comm-cost stop  │
//!                       │  PartitionHistory · doubts   │
//!                       └──────┬───────┬───────┬───────┘
//!            ┌─────────────────┘       │       └──────────────────┐
//!            ▼                         ▼                          ▼
//!   VertexStream             ConnectivityProvider        threads
//!   "which vertex next?"     "who are its neighbours?"   "how many decide?"
//!   ├ InMemoryVertexStream   ├ AdjProvider (in-memory:   ├ 1: sequential
//!   │  (natural, shuffled,   │   precomputed dedup CSR,  │   (fresh info per
//!   │   degree order, or a   │   flat scan; budgeted,    │    vertex,
//!   │   dirty set)           │   hubs fall back to       │    deterministic)
//!   ├ DiskVertexStream       │   epoch traversal)        └ n > 1: work stealing
//!   │  (on-disk transpose)   ├ lowmem ExactIndex             (atomic cursor,
//!   └ storage .hpz reader    │   (hash maps, exact,           live assignment,
//!                            │    reversible)                 synced loads,
//!                            └ lowmem SketchIndex             fast)
//!                                (Bloom + MinHash,
//!                                 budget-bounded)
//! ```
//!
//! The worker count trades information freshness against wall-clock. One
//! worker runs the paper's sequential Algorithm 1, the determinism anchor.
//! More workers run **work stealing**: one thread team per batch claims
//! fixed-size vertex chunks off a shared atomic cursor
//! ([`hyperpraw_hypergraph::ChunkCursor`]) and scores against shared state
//! at two freshness levels: peers' placements are visible per vertex
//! through the atomic assignment, and peers' loads every few placements,
//! because each worker scores against a local copy of the fixed-point load
//! counters and syncs it (publishing its own deltas, taking in its peers')
//! every 8 placements and at chunk ends. It accepts that bounded staleness
//! in exchange for scaling without barriers or per-vertex traffic on
//! shared cache lines, and it is not bit-reproducible above one worker.
//!
//! Every combination is valid: [`crate::HyperPraw`] is
//! `InMemoryVertexStream × AdjProvider` on one worker by default and on
//! more when given [`crate::HyperPraw::with_threads`]; `hyperpraw-lowmem`
//! runs any on-disk or compressed stream `× IndexProvider` at any worker
//! count — which is how parallel *out-of-core* partitioning (a scenario
//! none of the original drivers supported) falls out for free.
//!
//! `AdjProvider` answers the distinct-neighbour query with exact integer
//! counts: it pays one parallel dedup up front, scans a flat list per
//! visit, and needs only O(1) worker scratch until a budget-capped *hub*
//! vertex falls back to traversal. The engine-equivalence and
//! provider-equivalence suites pin it bit for bit (f64 history equality)
//! against an epoch-traversal oracle that re-deduplicates
//! `O(Σ_{e∋v}|e|)` pins per visit — the seed driver's cost model.
//!
//! The engine also owns the two cross-cutting quality devices the drivers
//! used to duplicate: the bounded **doubt buffer** (the `k`
//! lowest-confidence placements are revisited once against the final
//! state) and **sketch rebuilding** (providers that cannot forget are
//! reset between restreaming passes to shed staleness).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicI64, AtomicU32, Ordering as AtomicOrdering};
use std::sync::Mutex;
use std::thread;

use hyperpraw_hypergraph::io::stream::{VertexRecord, VertexStream};
use hyperpraw_hypergraph::io::IoResult;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{
    run_on_workers, AssignmentRef, ChunkCursor, HyperedgeId, Hypergraph, NeighborAdjacency,
    Partition, VertexId,
};
use hyperpraw_telemetry::{Counter, Gauge, Histogram, Registry};
use hyperpraw_topology::CostMatrix;

use crate::history::{IterationRecord, PartitionHistory, StreamPhase};
use crate::metrics::vertex_comm_cost;
use crate::value::{balance_term, best_partition_in, ScoredPartition, ValueScratch};
use crate::{HyperPrawConfig, RefinementPolicy};

mod provider;
mod source;

pub use provider::{AdjProvider, AdjScratch, ConnectivityProvider};
pub use source::stream_order;

/// Why the restreaming loop stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The imbalance tolerance was reached and the configuration requested
    /// no refinement (the GraSP-style stopping rule).
    ToleranceReached,
    /// The refinement phase stopped because the partitioning communication
    /// cost ceased to improve; the previous (better) partition is returned.
    CommCostConverged,
    /// The iteration limit `N` was exhausted.
    MaxIterations,
}

impl StopReason {
    /// Name as printed in reports.
    pub fn name(&self) -> &'static str {
        match self {
            StopReason::ToleranceReached => "tolerance-reached",
            StopReason::CommCostConverged => "comm-cost-converged",
            StopReason::MaxIterations => "max-iterations",
        }
    }
}

/// Vertices per chunk a work-stealing worker claims off the shared cursor:
/// small enough to self-balance across heterogeneous vertex degrees, large
/// enough that the claim `fetch_add` never shows up in a profile. For
/// index-backed providers nothing finer than the batch is fresh; the
/// assignment is shared per vertex and the loads every few placements
/// whatever the chunk.
pub const STEAL_CHUNK: usize = 64;

/// Placements a work-stealing worker makes between syncs with the shared
/// load counters (publishing its own deltas, taking in its peers'). Syncing once per chunk instead let peers' loads go stale
/// for up to a whole chunk, and on small instances a third of the runs
/// then stopped refining after a handful of passes; every 8 placements
/// matched the per-vertex quality at a fraction of the traffic.
const LOAD_SYNC_VERTICES: usize = 8;

/// How the partition is initialised before the first stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitialAssignment {
    /// Algorithm 1's round-robin start: every vertex begins on partition
    /// `v mod p` and the first stream already *re*-assigns. Requires one
    /// seeding pass over the source (to push the prior into index-backed
    /// providers and accumulate the initial loads).
    RoundRobin,
    /// True one-pass streaming: vertices are unassigned until first
    /// visited, contribute no load, and unseen vertices contribute no
    /// connectivity.
    Unassigned,
}

/// The bounded buffer of lowest-confidence placements revisited after the
/// final stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoubtConfig {
    /// Maximum number of buffered placements (`0` disables the buffer).
    pub capacity: usize,
    /// Byte bound on the buffer: whatever the entry count, high-degree
    /// entries cannot hold more than this many heap bytes.
    pub byte_bound: usize,
}

impl Default for DoubtConfig {
    fn default() -> Self {
        Self {
            capacity: 0,
            byte_bound: usize::MAX,
        }
    }
}

/// Configuration of the generic restreaming engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Initial `α`; `None` uses the FENNEL-derived starting point.
    pub initial_alpha: Option<f64>,
    /// Multiplicative `α` update while the imbalance is above tolerance.
    pub tempering_factor: f64,
    /// Behaviour once the imbalance tolerance has been reached.
    pub refinement: RefinementPolicy,
    /// Maximum allowed total imbalance `max_k W(k) / avg_k W(k)`.
    pub imbalance_tolerance: f64,
    /// Maximum number of streams.
    pub max_iterations: usize,
    /// Record per-iteration history.
    pub track_history: bool,
    /// Worker threads per stream: `1` runs the paper's sequential loop,
    /// more run the work-stealing schedule (see the [module docs](self)).
    pub threads: usize,
    /// Round-robin restreaming start or one-pass streaming start.
    pub initial: InitialAssignment,
    /// Ask the provider to drop irreversible connectivity state at the
    /// start of every pass after the first, shedding sketch staleness at
    /// the price of a cold start for the early vertices of the pass.
    /// Providers with exact, reversible state ignore this.
    pub rebuild_between_passes: bool,
    /// Bounded low-confidence revisit buffer.
    pub doubts: DoubtConfig,
}

impl EngineConfig {
    /// The classic in-memory restreaming configuration of
    /// [`crate::HyperPraw`], derived from a [`HyperPrawConfig`] (stream
    /// order and seed are consumed by the in-memory stream's
    /// [`stream_order`] instead).
    pub fn restreaming(config: &HyperPrawConfig) -> Self {
        Self {
            initial_alpha: config.initial_alpha,
            tempering_factor: config.tempering_factor,
            refinement: config.refinement,
            imbalance_tolerance: config.imbalance_tolerance,
            max_iterations: config.max_iterations,
            track_history: config.track_history,
            threads: 1,
            initial: InitialAssignment::RoundRobin,
            rebuild_between_passes: false,
            doubts: DoubtConfig::default(),
        }
    }

    /// A one-pass streaming configuration with a frozen `α` (the
    /// `hyperpraw-lowmem` regime): no tolerance gate, `passes` streams,
    /// refinement-style stopping when a pass moves nothing.
    pub fn streaming(alpha: Option<f64>, passes: usize) -> Self {
        Self {
            initial_alpha: alpha,
            tempering_factor: 1.7,
            refinement: if passes > 1 {
                RefinementPolicy::Factor(1.0)
            } else {
                RefinementPolicy::None
            },
            imbalance_tolerance: f64::INFINITY,
            max_iterations: passes.max(1),
            track_history: false,
            threads: 1,
            initial: InitialAssignment::Unassigned,
            rebuild_between_passes: false,
            doubts: DoubtConfig::default(),
        }
    }

    /// Validates parameter ranges, returning the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.tempering_factor.is_finite() && self.tempering_factor > 1.0) {
            return Err(format!(
                "tempering factor must be finite and exceed 1.0 (got {})",
                self.tempering_factor
            ));
        }
        if self.imbalance_tolerance < 1.0 {
            return Err("imbalance tolerance below 1.0 is unsatisfiable".into());
        }
        if self.max_iterations == 0 {
            return Err("max_iterations must be at least 1".into());
        }
        if let RefinementPolicy::Factor(f) = self.refinement {
            if !(f > 0.0 && f <= 1.5) {
                return Err(format!("refinement factor {f} out of (0, 1.5]"));
            }
        }
        if self.threads == 0 {
            return Err("need at least one worker thread".into());
        }
        Ok(())
    }
}

/// How the engine evaluates the partitioning communication cost after each
/// pass — the refinement phase's stopping signal. Out-of-core runs cannot
/// afford the evaluation and return `None`, which disables cost-based
/// rollback (the loop then stops on fixed points or the iteration limit).
pub trait CommCostModel {
    /// Cost of `partition` under `cost`, when computable.
    fn comm_cost(&mut self, partition: &Partition, cost: &CostMatrix) -> Option<f64>;
}

/// Cost model for out-of-core runs: never evaluates.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoCommCost;

impl CommCostModel for NoCommCost {
    fn comm_cost(&mut self, _partition: &Partition, _cost: &CostMatrix) -> Option<f64> {
        None
    }
}

/// Exact evaluation over an in-memory hypergraph: the partitioning
/// communication cost of equation 5, bit-identical to
/// [`partitioning_communication_cost`](crate::metrics::partitioning_communication_cost)
/// at any thread count.
///
/// With [`ExactCommCost::with_threads`] the per-vertex terms `T_{P(v)}(v)`
/// are computed by up to that many workers over contiguous vertex ranges
/// into a buffer reused across passes; the engine thread then sums them
/// serially in vertex order. Each term is a pure function of the vertex
/// and the partition, and the sum adds the terms from `0.0` in vertex
/// order exactly as the serial metric does, so the result does not depend
/// on the thread count. When a precomputed [`NeighborAdjacency`] is supplied — the
/// in-memory drivers share the provider's — each term scans a flat
/// neighbour list instead of re-deduplicating the neighbourhood, with
/// identical integer counts.
#[derive(Clone, Debug)]
pub struct ExactCommCost<'a> {
    hg: &'a Hypergraph,
    adj: Option<&'a NeighborAdjacency>,
    threads: usize,
    terms: Vec<f64>,
}

/// Fewest vertices one [`ExactCommCost`] worker evaluates.
const COST_RANGE_MIN: usize = 1024;

impl<'a> ExactCommCost<'a> {
    /// Creates a single-threaded model evaluating against `hg` by
    /// neighbourhood traversal.
    pub fn new(hg: &'a Hypergraph) -> Self {
        Self {
            hg,
            adj: None,
            threads: 1,
            terms: Vec::new(),
        }
    }

    /// Creates a single-threaded model answering from a precomputed
    /// adjacency.
    pub fn with_adjacency(hg: &'a Hypergraph, adj: &'a NeighborAdjacency) -> Self {
        Self {
            adj: Some(adj),
            ..Self::new(hg)
        }
    }

    /// Computes the per-vertex terms on up to `threads` workers (`1`, the
    /// default, spawns none). The result is the same for every count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl CommCostModel for ExactCommCost<'_> {
    fn comm_cost(&mut self, partition: &Partition, cost: &CostMatrix) -> Option<f64> {
        let (hg, adj) = (self.hg, self.adj);
        let n = hg.num_vertices();
        assert_eq!(
            partition.num_parts() as usize,
            cost.num_units(),
            "cost matrix size must match the partition count"
        );
        assert_eq!(
            partition.num_vertices(),
            n,
            "partition must cover the hypergraph"
        );
        self.terms.clear();
        self.terms.resize(n, 0.0);
        // However many threads were asked for, each worker gets at least
        // COST_RANGE_MIN vertices: a thread per handful of vertices costs
        // more to spawn than its terms take to compute.
        let range_len = n.div_ceil(self.threads).max(COST_RANGE_MIN);
        let ranges: Vec<Mutex<(usize, &mut [f64])>> = self
            .terms
            .chunks_mut(range_len)
            .enumerate()
            .map(|(k, terms)| Mutex::new((k * range_len, terms)))
            .collect();
        run_on_workers(ranges.len(), |id| {
            // An empty graph has no range, but worker 0 still runs.
            let Some(range) = ranges.get(id) else { return };
            let mut range = range.lock().expect("comm-cost range lock");
            let (start, ref mut terms) = *range;
            let mut fallback: Option<NeighborScratch> = None;
            let mut counts: Vec<u32> = Vec::new();
            for (term, v) in terms.iter_mut().zip(start as VertexId..) {
                match adj {
                    Some(adj) => {
                        adj.neighbor_partition_counts(hg, partition, v, &mut fallback, &mut counts)
                    }
                    None => fallback
                        .get_or_insert_with(|| NeighborScratch::new(n))
                        .neighbor_partition_counts(hg, partition, v, &mut counts),
                }
                *term = vertex_comm_cost(&counts, partition.part_of(v), cost);
            }
        });
        drop(ranges);
        Some(self.terms.iter().fold(0.0, |total, &term| total + term))
    }
}

/// The outcome of an [`Engine::run`].
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// The selected vertex-to-partition assignment.
    pub partition: Partition,
    /// Per-stream history (empty unless tracking is enabled).
    pub history: PartitionHistory,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Number of streams executed.
    pub iterations: usize,
    /// The `α` in effect when the run stopped.
    pub final_alpha: f64,
    /// Communication cost of the returned partition (`NaN` when the cost
    /// model cannot evaluate).
    pub comm_cost: f64,
    /// Imbalance of the returned partition, taken from the engine's
    /// incrementally tracked workloads — the same value the stopping rule
    /// compared against the tolerance. Out-of-core sources cannot afford
    /// an exact recomputation; in-memory callers that need one can always
    /// evaluate `partition.imbalance(hg)` on the result.
    pub imbalance: f64,
    /// Number of buffered low-confidence placements revisited at the end.
    pub restreamed: usize,
    /// How many revisited placements changed partition.
    pub moved_in_restream: usize,
}

/// A buffered low-confidence placement awaiting the revisit pass.
#[derive(Clone, Debug)]
struct Doubt {
    confidence: f64,
    vertex: VertexId,
    weight: f64,
    nets: Vec<HyperedgeId>,
}

impl PartialEq for Doubt {
    fn eq(&self, other: &Self) -> bool {
        self.confidence == other.confidence && self.vertex == other.vertex
    }
}

impl Eq for Doubt {}

impl PartialOrd for Doubt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Doubt {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by confidence: the most confident buffered entry is
        // evicted first, keeping the k *least* confident. Vertex id breaks
        // ties deterministically.
        self.confidence
            .total_cmp(&other.confidence)
            .then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl Doubt {
    /// Approximate heap bytes held by one buffered entry.
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nets.capacity() * std::mem::size_of::<HyperedgeId>()
    }
}

/// The byte-bounded max-heap of doubts collected during a pass.
#[derive(Debug, Default)]
struct DoubtBuffer {
    heap: BinaryHeap<Doubt>,
    bytes: usize,
}

impl DoubtBuffer {
    fn clear(&mut self) {
        self.heap.clear();
        self.bytes = 0;
    }

    /// Records a placement unless its confidence floor already exceeds the
    /// buffer's current maximum (in which case it would be evicted right
    /// back out — skip the net-list clone entirely).
    fn offer<P: ConnectivityProvider>(
        &mut self,
        config: &DoubtConfig,
        provider: &P,
        record: &VertexRecord,
        part: u32,
        margin: f64,
    ) {
        if config.capacity == 0 {
            return;
        }
        // The provider's confidence stays within [margin / 2, margin].
        let hopeless = self.heap.len() >= config.capacity
            && self
                .heap
                .peek()
                .is_some_and(|max| 0.5 * margin > max.confidence);
        if hopeless {
            return;
        }
        let doubt = Doubt {
            confidence: provider.confidence(record, part, margin),
            vertex: record.vertex,
            weight: record.weight,
            nets: record.nets.clone(),
        };
        self.bytes += doubt.heap_bytes();
        self.heap.push(doubt);
        while self.heap.len() > config.capacity
            || (self.bytes > config.byte_bound && self.heap.len() > 1)
        {
            if let Some(evicted) = self.heap.pop() {
                self.bytes -= evicted.heap_bytes();
            }
        }
    }
}

/// Mutable state shared by both schedules: the assignment, the workloads
/// `W(k)`, the expected workloads `E(k)` and the balance terms
/// `α · W(k) / E(k)` the scorer reads, kept in step with the loads.
#[derive(Clone, Debug)]
struct EngineState {
    partition: Partition,
    loads: Vec<f64>,
    expected: Vec<f64>,
    /// `balance[k] = balance_term(alpha, loads[k], expected[k])`, patched
    /// for the touched parts on every placement and rewritten whole when
    /// `alpha` changes.
    balance: Vec<f64>,
    alpha: f64,
}

impl EngineState {
    /// A state with no `α` yet: [`EngineState::set_alpha`] must run before
    /// the first score.
    fn new(partition: Partition, loads: Vec<f64>, expected_load: f64) -> Self {
        let p = loads.len();
        Self {
            partition,
            loads,
            expected: vec![expected_load; p],
            balance: vec![0.0; p],
            alpha: 0.0,
        }
    }

    /// Switches to a new `α`, rewriting every balance term.
    fn set_alpha(&mut self, alpha: f64) {
        self.alpha = alpha;
        for ((b, &w), &e) in self.balance.iter_mut().zip(&self.loads).zip(&self.expected) {
            *b = balance_term(alpha, w, e);
        }
    }

    /// Adds `w` to part `part`'s load.
    fn add_load(&mut self, part: u32, w: f64) {
        let k = part as usize;
        self.loads[k] += w;
        self.balance[k] = balance_term(self.alpha, self.loads[k], self.expected[k]);
    }

    /// Takes `w` off part `part`'s load.
    fn remove_load(&mut self, part: u32, w: f64) {
        let k = part as usize;
        self.loads[k] -= w;
        self.balance[k] = balance_term(self.alpha, self.loads[k], self.expected[k]);
    }

    /// Whether every cached balance term equals its re-derivation, bit for
    /// bit (checked at pass end in debug builds).
    fn balance_is_current(&self) -> bool {
        self.balance
            .iter()
            .zip(&self.loads)
            .zip(&self.expected)
            .all(|((&b, &w), &e)| b.to_bits() == balance_term(self.alpha, w, e).to_bits())
    }

    /// Total imbalance `max_k W(k) / avg_k W(k)` from the tracked loads.
    fn imbalance(&self) -> f64 {
        let total: f64 = self.loads.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let avg = total / self.loads.len() as f64;
        self.loads.iter().cloned().fold(f64::MIN, f64::max) / avg
    }
}

/// Per-worker scratch buffers of the work-stealing schedule, created on
/// first use and reused across batches and passes.
struct WorkerSlot<T> {
    scratch: T,
    counts: Vec<u32>,
    value: ValueScratch,
    /// The worker's view of the loads and their balance terms: the last
    /// sync with the shared counters plus the worker's own placements.
    loads_view: Vec<f64>,
    balance_view: Vec<f64>,
    /// The fixed-point load view, and the worker's fixed-point deltas not
    /// yet published to the shared counters.
    fixed_view: Vec<i64>,
    fixed_delta: Vec<i64>,
}

impl<T> WorkerSlot<T> {
    fn new(scratch: T, p: usize) -> Self {
        Self {
            scratch,
            counts: Vec::with_capacity(p),
            value: ValueScratch::new(),
            loads_view: Vec::with_capacity(p),
            balance_view: Vec::with_capacity(p),
            fixed_view: Vec::with_capacity(p),
            fixed_delta: vec![0; p],
        }
    }

    /// Copies the shared fixed-point loads into the local views at the
    /// start of a batch.
    fn load_shared(&mut self, shared: &[AtomicI64], alpha: f64, expected: &[f64]) {
        self.fixed_view.clear();
        self.fixed_view
            .extend(shared.iter().map(|c| c.load(AtomicOrdering::Relaxed)));
        self.loads_view.clear();
        self.loads_view
            .extend(self.fixed_view.iter().map(|&f| from_fixed(f)));
        self.balance_view.clear();
        self.balance_view.extend(
            self.loads_view
                .iter()
                .zip(expected)
                .map(|(&w, &e)| balance_term(alpha, w, e)),
        );
    }

    /// Applies one of the worker's own load changes to the local views and
    /// records it for publishing.
    fn shift_local(&mut self, part: usize, d: i64, alpha: f64, expected: &[f64]) {
        self.fixed_view[part] += d;
        self.fixed_delta[part] += d;
        self.loads_view[part] = from_fixed(self.fixed_view[part]);
        self.balance_view[part] = balance_term(alpha, self.loads_view[part], expected[part]);
    }

    /// Publishes the pending deltas, one `fetch_add` per touched part.
    fn publish(&mut self, shared: &[AtomicI64]) {
        for (counter, d) in shared.iter().zip(&mut self.fixed_delta) {
            if *d != 0 {
                counter.fetch_add(*d, AtomicOrdering::Relaxed);
                *d = 0;
            }
        }
    }

    /// Publishes the pending deltas, then takes in the peers' published
    /// loads. Only parts a peer changed since the last sync are re-derived,
    /// so the balance divisions stay proportional to the placements made,
    /// not to `p`.
    fn sync(&mut self, shared: &[AtomicI64], alpha: f64, expected: &[f64]) {
        self.publish(shared);
        for (k, counter) in shared.iter().enumerate() {
            let fixed = counter.load(AtomicOrdering::Relaxed);
            if fixed != self.fixed_view[k] {
                self.fixed_view[k] = fixed;
                self.loads_view[k] = from_fixed(fixed);
                self.balance_view[k] = balance_term(alpha, self.loads_view[k], expected[k]);
            }
        }
    }
}

/// One live (fresh-information) placement — the shared inner step of the
/// sequential schedule and the doubt revisit: detach `record` from
/// `current`, count against the live assignment, score, assign, attach.
/// The caller handles move accounting and doubt collection.
#[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
fn place_live<P: ConnectivityProvider>(
    cost: &CostMatrix,
    provider: &mut P,
    state: &mut EngineState,
    record: &VertexRecord,
    current: Option<u32>,
    scratch: &mut P::Scratch,
    counts: &mut Vec<u32>,
    value: &mut ValueScratch,
) -> ScoredPartition {
    let w = record.weight;
    if let Some(cur) = current {
        state.remove_load(cur, w);
        provider.detach(record, cur);
    }
    provider.count(record, &state.partition, scratch, counts);
    let scored = best_partition_in(counts, cost, &state.loads, &state.balance, value);
    state.partition.set(record.vertex, scored.part);
    state.add_load(scored.part, w);
    provider.attach(record, scored.part);
    scored
}

/// A prior assignment handed to [`Engine::run_warm`]: the engine refines
/// it in place instead of seeding round-robin, so incremental callers can
/// restream only a dirty subset of vertices against full-graph state.
#[derive(Clone, Debug)]
pub struct WarmStart {
    /// The full-graph assignment to refine. Its part count must match the
    /// cost matrix and its vertex count must cover every vertex any
    /// connectivity query can reach.
    pub partition: Partition,
    /// Per-part vertex weight of `partition` (one entry per part) — the
    /// balance state the value function scores against from pass one.
    pub loads: Vec<f64>,
}

/// The generic restreaming engine. See the [module docs](self) for the
/// architecture; [`Engine::run`] is the single implementation of the
/// restreaming loop every driver delegates to.
#[derive(Clone, Debug)]
pub struct Engine {
    config: EngineConfig,
    metrics: EngineMetrics,
}

/// Telemetry handles bound by [`Engine::with_registry`]. The default
/// (disabled) handles make every recording below a no-op branch, and all
/// recording happens at pass or batch granularity — never per vertex — so
/// instrumentation cannot perturb placement decisions or determinism.
#[derive(Clone, Debug, Default)]
struct EngineMetrics {
    /// Wall-clock of each streaming pass, microseconds.
    pass_time_us: Histogram,
    /// Wall-clock of each communication-cost evaluation (one per pass,
    /// plus one for a run that ends without a rollback), microseconds.
    comm_cost_us: Histogram,
    /// Vertices scored across all passes (each pass streams the source once).
    vertices_scored: Counter,
    /// Doubt-buffer entries at the end of the latest pass.
    doubt_entries: Gauge,
    /// Doubt-buffer payload bytes at the end of the latest pass.
    doubt_bytes: Gauge,
    /// Chunks claimed off the shared cursor (work-stealing schedule).
    steal_chunk_claims: Counter,
    /// Batch-boundary applies (work-stealing schedule).
    steal_batch_applies: Counter,
}

impl EngineMetrics {
    fn bind(registry: &Registry) -> Self {
        EngineMetrics {
            pass_time_us: registry.histogram("engine.pass_time_us"),
            comm_cost_us: registry.histogram("engine.comm_cost_us"),
            vertices_scored: registry.counter("engine.vertices_scored"),
            doubt_entries: registry.gauge("engine.doubt.entries"),
            doubt_bytes: registry.gauge("engine.doubt.bytes"),
            steal_chunk_claims: registry.counter("engine.steal.chunk_claims"),
            steal_batch_applies: registry.counter("engine.steal.batch_applies"),
        }
    }
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: EngineConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid engine configuration: {e}"));
        Self {
            config,
            metrics: EngineMetrics::default(),
        }
    }

    /// Binds this engine's instrumentation to `registry` (metrics under
    /// the `engine.` prefix). Engines record nothing until bound.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.metrics = EngineMetrics::bind(registry);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the restreaming loop: `source × provider × threads` under the
    /// communication-cost matrix `cost`, with per-pass costs evaluated by
    /// `cost_model`.
    pub fn run<S, P, C>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        cost_model: &mut C,
    ) -> IoResult<EngineRun>
    where
        S: VertexStream,
        P: ConnectivityProvider,
        C: CommCostModel,
    {
        let p = cost.num_units();
        assert!(p > 0, "cost matrix must cover at least one compute unit");
        let config = &self.config;
        let n = source.num_vertices();
        let e = source.num_nets();
        source.set_nets_enabled(provider.needs_nets() || config.doubts.capacity > 0);

        let total_weight = source.total_vertex_weight().unwrap_or(n as f64);
        let expected_load = (total_weight / p as f64).max(f64::MIN_POSITIVE);
        let mut state = EngineState::new(
            Partition::round_robin(n, p as u32),
            vec![0.0f64; p],
            expected_load,
        );
        let assigned = match config.initial {
            InitialAssignment::RoundRobin => {
                self.seed_round_robin(source, provider, &mut state)?;
                true
            }
            InitialAssignment::Unassigned => false,
        };
        self.run_loop(cost, source, provider, cost_model, state, assigned, n, e)
    }

    /// Runs the restreaming loop warm-started from an existing assignment
    /// instead of a fresh seed pass — the entry point of the dynamic
    /// repartitioning layer. `source` supplies the vertex stream to
    /// revisit, which may cover only part of the graph (a dirty set);
    /// `warm.partition` must still cover the *full* graph so connectivity
    /// counts against untouched vertices stay exact, and `warm.loads` must
    /// be that full assignment's per-part vertex weights. No seed pass
    /// runs, so providers must already answer for the current graph (the
    /// precomputed-adjacency and CSR providers both do).
    ///
    /// # Panics
    ///
    /// Panics when the cost matrix is empty or `warm`'s part count or load
    /// vector length disagree with it.
    pub fn run_warm<S, P, C>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        cost_model: &mut C,
        warm: WarmStart,
    ) -> IoResult<EngineRun>
    where
        S: VertexStream,
        P: ConnectivityProvider,
        C: CommCostModel,
    {
        let p = cost.num_units();
        assert!(p > 0, "cost matrix must cover at least one compute unit");
        assert_eq!(
            warm.partition.num_parts() as usize,
            p,
            "warm-start partition must match the cost matrix"
        );
        assert_eq!(
            warm.loads.len(),
            p,
            "warm-start loads must cover every part"
        );
        source.set_nets_enabled(provider.needs_nets() || self.config.doubts.capacity > 0);

        // α is sized from the full graph, not the dirty subset: the value
        // function balances against full-graph loads, so the tempering
        // scale must match what a cold run over the whole instance uses.
        let n = warm.partition.num_vertices();
        let e = source.num_nets();
        let total_weight: f64 = warm.loads.iter().sum();
        let expected_load = (total_weight / p as f64).max(f64::MIN_POSITIVE);
        let state = EngineState::new(warm.partition, warm.loads, expected_load);
        self.run_loop(cost, source, provider, cost_model, state, true, n, e)
    }

    /// The shared restreaming loop behind [`Engine::run`] and
    /// [`Engine::run_warm`]: α tempering until the tolerance is met, then
    /// refinement with comm-cost rollback, then the doubt revisit.
    #[allow(clippy::too_many_arguments)] // one state bundle, two public entries
    fn run_loop<S, P, C>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        cost_model: &mut C,
        mut state: EngineState,
        mut assigned: bool,
        n: usize,
        e: usize,
    ) -> IoResult<EngineRun>
    where
        S: VertexStream,
        P: ConnectivityProvider,
        C: CommCostModel,
    {
        let p = state.loads.len();
        let config = &self.config;

        let mut alpha = config
            .initial_alpha
            .unwrap_or_else(|| HyperPrawConfig::fennel_alpha(p as u32, n, e));
        state.set_alpha(alpha);

        let mut history = PartitionHistory::new();
        // Best feasible (within-tolerance) partition seen so far, with its
        // cost and imbalance. Only tracked when the cost model can
        // evaluate — without costs there is nothing to roll back to.
        let mut previous_feasible: Option<(Partition, f64, f64)> = None;
        let mut stop_reason = StopReason::MaxIterations;
        let mut iterations = 0usize;
        let mut doubts = DoubtBuffer::default();
        let mut slots: Vec<WorkerSlot<P::Scratch>> = Vec::new();
        let mut batch: Vec<VertexRecord> = Vec::new();
        let mut record = VertexRecord::default();

        for pass in 1..=config.max_iterations {
            iterations = pass;
            provider.begin_pass(pass, config.rebuild_between_passes && pass > 1);
            doubts.clear();
            source.reset()?;
            let pass_span = self.metrics.pass_time_us.span();
            // A single worker has nobody to race: it runs the live
            // sequential loop, the determinism anchor.
            let moved = if config.threads == 1 {
                self.sequential_pass(
                    cost,
                    source,
                    provider,
                    &mut state,
                    assigned,
                    &mut doubts,
                    &mut record,
                )?
            } else {
                self.steal_pass(
                    cost,
                    source,
                    provider,
                    &mut state,
                    assigned,
                    config.threads,
                    &mut doubts,
                    &mut slots,
                    &mut batch,
                )?
            };
            pass_span.finish();
            debug_assert!(state.balance_is_current(), "stale balance cache");
            self.metrics.doubt_entries.set(doubts.heap.len() as i64);
            self.metrics.doubt_bytes.set(doubts.bytes as i64);
            assigned = true;

            let imbalance = state.imbalance();
            let cost_span = self.metrics.comm_cost_us.span();
            let comm_cost = cost_model.comm_cost(&state.partition, cost);
            cost_span.finish();
            let feasible = imbalance <= config.imbalance_tolerance + 1e-12;
            if config.track_history {
                history.push(IterationRecord {
                    iteration: pass,
                    phase: if feasible {
                        StreamPhase::Refinement
                    } else {
                        StreamPhase::Tempering
                    },
                    alpha,
                    imbalance,
                    comm_cost: comm_cost.unwrap_or(f64::NAN),
                    moved_vertices: moved,
                });
            }

            if !feasible {
                // Still outside tolerance: temper α upwards and re-stream.
                alpha *= config.tempering_factor;
                state.set_alpha(alpha);
                continue;
            }

            match config.refinement {
                RefinementPolicy::None => {
                    // GraSP-style: stop as soon as the tolerance is met.
                    stop_reason = StopReason::ToleranceReached;
                    if let Some(c) = comm_cost {
                        previous_feasible = Some((state.partition.clone(), c, imbalance));
                    }
                    break;
                }
                RefinementPolicy::Factor(factor) => {
                    // Refinement phase: keep streaming while the
                    // partitioning communication cost improves; roll back
                    // to the previous feasible partition when it gets
                    // worse (Algorithm 1's `Cost of Pⁿ > Cost of Pⁿ⁻¹`
                    // test). A stream that moved no vertex is a fixed
                    // point: further streams would repeat it verbatim, so
                    // stop there too. Without a cost model only the
                    // fixed-point and iteration-limit rules apply.
                    if let (Some(c), Some((_, previous_cost, _))) = (comm_cost, &previous_feasible)
                    {
                        if c > *previous_cost {
                            stop_reason = StopReason::CommCostConverged;
                            break;
                        }
                    }
                    if let Some(c) = comm_cost {
                        previous_feasible = Some((state.partition.clone(), c, imbalance));
                    }
                    if moved == 0 {
                        stop_reason = StopReason::CommCostConverged;
                        break;
                    }
                    alpha *= factor;
                    state.set_alpha(alpha);
                }
            }
        }

        // Revisit the buffered low-confidence placements against the final
        // state, in vertex order for determinism. Only meaningful when the
        // live state is what will be returned — a cost-based rollback
        // discards the state the doubts were collected on.
        let mut restreamed = 0usize;
        let mut moved_in_restream = 0usize;
        if previous_feasible.is_none() && !doubts.heap.is_empty() {
            let mut revisit: Vec<Doubt> = std::mem::take(&mut doubts.heap).into_vec();
            revisit.sort_unstable_by_key(|d| d.vertex);
            restreamed = revisit.len();
            let mut scratch = provider.new_scratch();
            let mut counts: Vec<u32> = Vec::with_capacity(p);
            let mut value = ValueScratch::new();
            for doubt in revisit {
                record.vertex = doubt.vertex;
                record.weight = doubt.weight;
                record.nets.clear();
                record.nets.extend_from_slice(&doubt.nets);
                let old = state.partition.part_of(doubt.vertex);
                let scored = place_live(
                    cost,
                    provider,
                    &mut state,
                    &record,
                    Some(old),
                    &mut scratch,
                    &mut counts,
                    &mut value,
                );
                if scored.part != old {
                    moved_in_restream += 1;
                }
            }
        }

        // Select the partition to return: the best feasible snapshot if
        // one exists, otherwise whatever the final stream produced.
        let (partition, comm_cost, imbalance) = match previous_feasible {
            Some((partition, c, imb)) => (partition, c, imb),
            None => {
                let cost_span = self.metrics.comm_cost_us.span();
                let c = cost_model
                    .comm_cost(&state.partition, cost)
                    .unwrap_or(f64::NAN);
                cost_span.finish();
                let imb = state.imbalance();
                (state.partition, c, imb)
            }
        };

        Ok(EngineRun {
            partition,
            history,
            stop_reason,
            iterations,
            final_alpha: alpha,
            comm_cost,
            imbalance,
            restreamed,
            moved_in_restream,
        })
    }

    /// Pushes Algorithm 1's round-robin initial assignment into the
    /// provider and the workload accounting with one pass over the source.
    fn seed_round_robin<S, P>(
        &self,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
    ) -> IoResult<()>
    where
        S: VertexStream,
        P: ConnectivityProvider,
    {
        let p = state.loads.len() as u32;
        let mut record = VertexRecord::default();
        while source.next_into(&mut record)? {
            let part = record.vertex % p;
            state.loads[part as usize] += record.weight;
            provider.attach(&record, part);
        }
        source.reset()
    }

    /// One sequential stream: every vertex is detached from its current
    /// partition and re-assigned with fully fresh information (Algorithm
    /// 1's inner loop). Returns the number of moved vertices.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn sequential_pass<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
        assigned: bool,
        doubts: &mut DoubtBuffer,
        record: &mut VertexRecord,
    ) -> IoResult<usize>
    where
        S: VertexStream,
        P: ConnectivityProvider,
    {
        let mut moved = 0usize;
        let mut scored_n = 0u64;
        let mut scratch = provider.new_scratch();
        let mut counts: Vec<u32> = Vec::with_capacity(state.loads.len());
        let mut value = ValueScratch::new();
        while source.next_into(record)? {
            scored_n += 1;
            let current = assigned.then(|| state.partition.part_of(record.vertex));
            let scored = place_live(
                cost,
                provider,
                state,
                record,
                current,
                &mut scratch,
                &mut counts,
                &mut value,
            );
            if current != Some(scored.part) {
                moved += 1;
            }
            doubts.offer(
                &self.config.doubts,
                provider,
                record,
                scored.part,
                scored.margin,
            );
        }
        self.metrics.vertices_scored.add(scored_n);
        Ok(moved)
    }

    /// One lock-free work-stealing stream: the engine thread fills a large
    /// batch of records, a thread team spawned **once per batch** claims
    /// fixed-size chunks of it off a shared [`ChunkCursor`], and every
    /// worker scores against shared state with two freshness levels. The
    /// full assignment is an atomic slice that placements update per
    /// vertex. The per-part loads are fixed-point atomics that a worker
    /// copies into local views; it applies its own placements to those
    /// views and syncs them every [`LOAD_SYNC_VERTICES`] placements and at
    /// chunk end, publishing its accumulated deltas with one `fetch_add`
    /// per touched part and re-reading its peers'. Provider mutation,
    /// authoritative `f64` load accounting, move counting and doubt
    /// collection happen on the engine thread at the batch boundary (the
    /// bounded-staleness window for index-backed providers). Returns the
    /// number of moved vertices.
    #[allow(clippy::too_many_arguments)] // the engine's hot path shares one state bundle
    fn steal_pass<S, P>(
        &self,
        cost: &CostMatrix,
        source: &mut S,
        provider: &mut P,
        state: &mut EngineState,
        assigned: bool,
        num_threads: usize,
        doubts: &mut DoubtBuffer,
        slots: &mut Vec<WorkerSlot<P::Scratch>>,
        batch: &mut Vec<VertexRecord>,
    ) -> IoResult<usize>
    where
        S: VertexStream,
        P: ConnectivityProvider,
    {
        let p = state.loads.len();
        // The live assignment view covers the *full* graph — connectivity
        // counts read arbitrary neighbours, not just batch members.
        let view = AtomicAssignment::from_partition(&state.partition);
        let shared_loads: Vec<AtomicI64> = state
            .loads
            .iter()
            .map(|&load| AtomicI64::new(to_fixed(load)))
            .collect();
        // Stream sources stay memory-bounded: a batch holds at most this
        // many records. Providers whose counts track the live atomic
        // assignment can take huge batches — in-memory sources usually fit
        // in one, so the thread team is spawned once per pass. Providers
        // answering from internal state only mutated at batch boundaries
        // (the lowmem indices) get small batches instead, bounding how far
        // their counts lag behind the stream.
        let batch_cap = if provider.live_counts() {
            STEAL_CHUNK
                .saturating_mul(num_threads)
                .saturating_mul(16)
                .max(8192)
        } else {
            STEAL_CHUNK.saturating_mul(num_threads).max(256)
        };
        let mut moved = 0usize;
        let mut proposals: Vec<(u32, f64)> = Vec::new();

        loop {
            // Fill the batch on the engine thread (reusing allocations) so
            // IO errors surface before any worker is spawned.
            let mut len = 0usize;
            while len < batch_cap {
                if batch.len() == len {
                    batch.push(VertexRecord::default());
                }
                if !source.next_into(&mut batch[len])? {
                    break;
                }
                len += 1;
            }
            if len == 0 {
                break;
            }
            let records = &batch[..len];
            self.metrics.vertices_scored.add(len as u64);
            // Only the workers that can claim a chunk get a slot (and a
            // provider scratch), however many threads were requested.
            let workers = num_threads.min(len.div_ceil(STEAL_CHUNK)).max(1);
            while slots.len() < workers {
                slots.push(WorkerSlot::new(provider.new_scratch(), p));
            }

            // Re-sync the fixed-point counters from the authoritative f64
            // loads so rounding drift cannot accumulate across batches.
            for (shared, &load) in shared_loads.iter().zip(&state.loads) {
                shared.store(to_fixed(load), AtomicOrdering::Relaxed);
            }

            {
                let cursor = ChunkCursor::new(len, STEAL_CHUNK);
                let cursor = &cursor;
                let view = &view;
                let shared = &shared_loads[..];
                let expected = &state.expected[..];
                let alpha = state.alpha;
                let provider_ref: &P = provider;
                let chunk_claims = &self.metrics.steal_chunk_claims;

                let run_worker =
                    |slot: &mut WorkerSlot<P::Scratch>, out: &mut Vec<(usize, u32, f64)>| {
                        slot.load_shared(shared, alpha, expected);
                        while let Some(range) = cursor.claim() {
                            chunk_claims.inc();
                            out.reserve(range.len());
                            for (k, i) in range.enumerate() {
                                if k % LOAD_SYNC_VERTICES == 0 {
                                    slot.sync(shared, alpha, expected);
                                }
                                let record = &records[i];
                                let w = to_fixed(record.weight);
                                if assigned {
                                    let old = view.part_of(record.vertex) as usize;
                                    slot.shift_local(old, -w, alpha, expected);
                                }
                                provider_ref.count(
                                    record,
                                    view,
                                    &mut slot.scratch,
                                    &mut slot.counts,
                                );
                                let scored = best_partition_in(
                                    &slot.counts,
                                    cost,
                                    &slot.loads_view,
                                    &slot.balance_view,
                                    &mut slot.value,
                                );
                                slot.shift_local(scored.part as usize, w, alpha, expected);
                                view.set(record.vertex, scored.part);
                                out.push((i, scored.part, scored.margin));
                            }
                            slot.publish(shared);
                        }
                    };

                // Spawn the team once per batch: workers 1.. on scoped
                // threads, worker 0 on the engine thread itself.
                let mut outs: Vec<Vec<(usize, u32, f64)>> =
                    (0..workers).map(|_| Vec::new()).collect();
                if workers == 1 {
                    run_worker(&mut slots[0], &mut outs[0]);
                } else {
                    let (first_slot, rest_slots) = slots.split_at_mut(1);
                    let (first_out, rest_outs) = outs.split_at_mut(1);
                    thread::scope(|scope| {
                        let handles: Vec<_> = rest_slots
                            .iter_mut()
                            .take(workers - 1)
                            .zip(rest_outs.iter_mut())
                            .map(|(slot, out)| {
                                let run_worker = &run_worker;
                                scope.spawn(move || run_worker(slot, out))
                            })
                            .collect();
                        run_worker(&mut first_slot[0], &mut first_out[0]);
                        handles
                            .into_iter()
                            .for_each(|h| h.join().expect("engine worker panicked"));
                    });
                }

                // Merge the per-worker proposals back into batch order —
                // every index was claimed exactly once, so this is a
                // scatter, not a sort.
                proposals.clear();
                proposals.resize(len, (0u32, 0.0));
                for out in &outs {
                    for &(i, part, margin) in out {
                        proposals[i] = (part, margin);
                    }
                }
            }

            // Apply at the batch boundary, in batch order: provider
            // detach/attach, authoritative f64 loads, move accounting and
            // doubt collection all run on the engine thread.
            for (record, &(target, margin)) in records.iter().zip(&proposals) {
                moved += apply_proposal(state, provider, record, assigned, target);
                doubts.offer(&self.config.doubts, provider, record, target, margin);
            }
            self.metrics.steal_batch_applies.inc();
        }
        Ok(moved)
    }
}

/// Applies one worker's proposal at a steal batch boundary:
/// detach `record` from its current part, assign it to `target` and attach.
/// Returns 1 when the vertex moved, 0 otherwise.
fn apply_proposal<P: ConnectivityProvider>(
    state: &mut EngineState,
    provider: &mut P,
    record: &VertexRecord,
    assigned: bool,
    target: u32,
) -> usize {
    let w = record.weight;
    let current = assigned.then(|| state.partition.part_of(record.vertex));
    if let Some(cur) = current {
        state.remove_load(cur, w);
        provider.detach(record, cur);
    }
    state.partition.set(record.vertex, target);
    state.add_load(target, w);
    provider.attach(record, target);
    usize::from(current != Some(target))
}

/// The work-stealing schedule's live shared assignment: one `AtomicU32`
/// per vertex, read by worker-side connectivity counts (through
/// [`AssignmentRef`]) and updated per placement with relaxed ordering —
/// workers tolerate reading a peer's placement a few instructions late,
/// which is exactly the bounded staleness the schedule trades for the
/// missing barrier.
struct AtomicAssignment {
    parts: Vec<AtomicU32>,
    num_parts: u32,
}

impl AtomicAssignment {
    fn from_partition(partition: &Partition) -> Self {
        Self {
            parts: partition
                .assignment()
                .iter()
                .map(|&part| AtomicU32::new(part))
                .collect(),
            num_parts: Partition::num_parts(partition),
        }
    }

    fn set(&self, v: VertexId, part: u32) {
        self.parts[v as usize].store(part, AtomicOrdering::Relaxed);
    }
}

impl AssignmentRef for AtomicAssignment {
    fn part_of(&self, v: VertexId) -> u32 {
        self.parts[v as usize].load(AtomicOrdering::Relaxed)
    }

    fn num_parts(&self) -> u32 {
        self.num_parts
    }
}

/// Fractional bits of the shared fixed-point load counters: resolution
/// `2^-24` is far below any weight difference the value function can
/// distinguish, while the `2^39` integer range is far above any total
/// weight that fits in memory.
const LOAD_FRACTION_BITS: u32 = 24;

fn to_fixed(load: f64) -> i64 {
    (load * (1i64 << LOAD_FRACTION_BITS) as f64).round() as i64
}

fn from_fixed(load: i64) -> f64 {
    load as f64 / (1i64 << LOAD_FRACTION_BITS) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::partitioning_communication_cost;
    use hyperpraw_hypergraph::generators::{
        mesh_hypergraph, powerlaw_hypergraph, MeshConfig, PowerLawConfig,
    };
    use hyperpraw_hypergraph::io::stream::InMemoryVertexStream;
    use hyperpraw_hypergraph::AdjacencyBudget;
    use hyperpraw_topology::{BandwidthMatrix, MachineModel};

    #[test]
    fn non_finite_tempering_and_refinement_factors_fail_engine_validation() {
        let base = EngineConfig::restreaming(&HyperPrawConfig::default());
        assert!(base.validate().is_ok());
        for factor in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let tempering = EngineConfig {
                tempering_factor: factor,
                ..base
            };
            assert!(tempering.validate().is_err(), "tempering {factor}");
            let refinement = EngineConfig {
                refinement: RefinementPolicy::Factor(factor),
                ..base
            };
            assert!(refinement.validate().is_err(), "refinement {factor}");
        }
    }

    /// An [`AdjProvider`] that counts the worker scratches it hands out.
    struct ScratchCounting<'a> {
        inner: AdjProvider<'a>,
        scratches: std::sync::atomic::AtomicUsize,
    }

    impl ConnectivityProvider for ScratchCounting<'_> {
        type Scratch = AdjScratch;

        fn new_scratch(&self) -> AdjScratch {
            self.scratches.fetch_add(1, AtomicOrdering::Relaxed);
            self.inner.new_scratch()
        }

        fn needs_nets(&self) -> bool {
            self.inner.needs_nets()
        }

        fn count<A: AssignmentRef>(
            &self,
            record: &VertexRecord,
            assignment: &A,
            scratch: &mut AdjScratch,
            counts: &mut Vec<u32>,
        ) {
            self.inner.count(record, assignment, scratch, counts);
        }
    }

    #[test]
    fn worker_slots_are_bounded_by_the_workers_that_can_run() {
        // A batch of 300 vertices splits into at most ⌈300 / STEAL_CHUNK⌉
        // chunks, so no more workers can claim one, however many threads
        // were requested: only those get a slot and a provider scratch.
        let hg = mesh_hypergraph(&MeshConfig::new(300, 8));
        let config = HyperPrawConfig {
            max_iterations: 3,
            ..HyperPrawConfig::default()
        };
        let engine = Engine::new(EngineConfig {
            threads: 1_000_000,
            ..EngineConfig::restreaming(&config)
        });
        let mut provider = ScratchCounting {
            inner: AdjProvider::new(&hg, AdjacencyBudget::Auto),
            scratches: Default::default(),
        };
        let run = engine
            .run(
                &CostMatrix::uniform(4),
                &mut InMemoryVertexStream::with_order(
                    &hg,
                    stream_order(&hg, config.stream_order, config.seed),
                ),
                &mut provider,
                &mut ExactCommCost::new(&hg),
            )
            .unwrap();
        assert_eq!(run.partition.num_vertices(), 300);
        let made = provider.scratches.load(AtomicOrdering::Relaxed);
        assert!(
            made <= 300usize.div_ceil(STEAL_CHUNK),
            "{made} scratches for at most 5 runnable workers"
        );
    }

    #[test]
    fn threaded_comm_cost_is_bit_identical_to_the_serial_metric() {
        let p = 24;
        let machine = MachineModel::archer_like(p);
        let cost = CostMatrix::from_bandwidth(&BandwidthMatrix::from_machine(&machine, 0.05, 3));
        let mesh = mesh_hypergraph(&MeshConfig::new(1500, 8));
        let web = powerlaw_hypergraph(&PowerLawConfig {
            num_vertices: 1200,
            num_hyperedges: 900,
            seed: 11,
            ..PowerLawConfig::default()
        });
        // Fewer vertices than the largest thread count.
        let tiny = mesh_hypergraph(&MeshConfig::new(5, 3));
        for hg in [&mesh, &web, &tiny] {
            let partition = Partition::from_assignment(
                (0..hg.num_vertices() as u32)
                    .map(|v| v.wrapping_mul(2_654_435_761) % p as u32)
                    .collect(),
                p as u32,
            )
            .unwrap();
            let reference = partitioning_communication_cost(hg, &partition, &cost);
            // Auto keeps every list; a degree cutoff of 3 makes most
            // vertices hubs, which fall back to per-worker traversal.
            let auto = NeighborAdjacency::build(hg, AdjacencyBudget::Auto);
            let cutoff = NeighborAdjacency::build(hg, AdjacencyBudget::DegreeCutoff(3));
            assert!(hg.num_vertices() < 8 || cutoff.num_hubs() > 0);
            for threads in [1, 2, 3, 8] {
                let models = [
                    ExactCommCost::new(hg),
                    ExactCommCost::with_adjacency(hg, &auto),
                    ExactCommCost::with_adjacency(hg, &cutoff),
                ];
                for (k, model) in models.into_iter().enumerate() {
                    let mut model = model.with_threads(threads);
                    // Twice: the term buffer is reused across passes.
                    for _ in 0..2 {
                        let got = model.comm_cost(&partition, &cost).unwrap();
                        assert_eq!(
                            got.to_bits(),
                            reference.to_bits(),
                            "{} vertices, model {k}, {threads} threads: {got} vs {reference}",
                            hg.num_vertices()
                        );
                    }
                }
            }
        }
    }
}
