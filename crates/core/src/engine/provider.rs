//! How neighbour-partition counts are obtained — the engine's state axis.
//!
//! For each visited vertex the engine needs the counts `X_j(v)` consumed by
//! the value function ([`crate::value`]). A [`ConnectivityProvider`]
//! answers that query and absorbs assignment updates; implementations
//! differ only in *where the connectivity state lives*:
//!
//! * [`AdjProvider`] — the in-memory provider: counts **distinct
//!   neighbour vertices** per partition against the assignment the engine
//!   passes in, with one flat, cache-linear scan of a precomputed
//!   deduplicated neighbour adjacency ([`NeighborAdjacency`]) per visit.
//!   Budget-aware and hybrid — hub vertices above the adjacency's degree
//!   cutover fall back to epoch traversal of the CSR [`Hypergraph`] — and
//!   exact on both paths: the test suites pin it bit for bit against a
//!   plain epoch-traversal oracle. Holds no assignment state of its own,
//!   so detach/attach are no-ops.
//! * `hyperpraw-lowmem`'s `IndexProvider` — answers from a budgeted
//!   `ConnectivityIndex` (exact hash maps, or Bloom/MinHash sketches),
//!   counting **connected nets** per partition; attach/detach record and
//!   (when supported) forget net incidences.
//!
//! Scoring reads take `&self` plus a worker-local
//! [`ConnectivityProvider::Scratch`], so the parallel execution
//! strategies can fan the same provider out across worker threads; all
//! mutation happens on the engine thread at synchronisation points.
//! [`AdjProvider`]'s scratch is O(1) until a hub is met (the traversal
//! scratch materialises lazily), which keeps per-worker memory flat as
//! the parallel strategies scale out.

use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{AdjacencyBudget, AssignmentRef, Hypergraph, NeighborAdjacency};

/// Supplies neighbour-partition counts to the restreaming engine and
/// tracks assignment changes, when the implementation keeps its own
/// connectivity state.
pub trait ConnectivityProvider: Sync {
    /// Worker-local scratch handed to every [`ConnectivityProvider::count`]
    /// call; one instance per worker thread, reused across windows and
    /// passes.
    type Scratch: Send;

    /// Creates one worker's scratch space.
    fn new_scratch(&self) -> Self::Scratch;

    /// Whether the provider reads [`VertexRecord::nets`]. The adjacency
    /// provider does not, which lets in-memory sources skip copying incidence
    /// lists into each record.
    fn needs_nets(&self) -> bool {
        true
    }

    /// Whether [`ConnectivityProvider::count`] reads the `assignment`
    /// argument (true for the in-memory providers, whose counts therefore
    /// track the work-stealing strategy's live atomic view), or answers
    /// from internal state that only changes at
    /// [`ConnectivityProvider::attach`]/[`ConnectivityProvider::detach`]
    /// (the index providers). The work-stealing strategy keeps its batches
    /// small for non-live providers so that state never falls more than a
    /// bounded window behind the stream.
    fn live_counts(&self) -> bool {
        true
    }

    /// Called once at the start of every stream. `rebuild` asks the
    /// provider to drop accumulated state it cannot forget incrementally
    /// (sketch staleness shedding); providers with exact, reversible state
    /// ignore it.
    fn begin_pass(&mut self, pass: usize, rebuild: bool) {
        let _ = (pass, rebuild);
    }

    /// Writes the neighbour-partition counts `X_j(v)` for `record` into
    /// `counts` (cleared and resized), evaluated against `assignment` —
    /// the live assignment in sequential execution, a frozen snapshot in
    /// bulk-synchronous execution, or a live atomic view (with bounded
    /// staleness) in work-stealing execution, which is why the parameter
    /// is any [`AssignmentRef`] rather than a concrete `Partition`. The
    /// vertex's own contribution must be excluded when the provider can
    /// tell (the adjacency provider excludes the vertex itself; index
    /// providers rely on the engine detaching first).
    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    );

    /// Removes `record`'s contribution to `part` from the provider's own
    /// state, where supported (sketches cannot forget and accept the
    /// staleness). Stateless providers do nothing.
    fn detach(&mut self, record: &VertexRecord, part: u32) {
        let _ = (record, part);
    }

    /// Records that `record` is now assigned to `part` in the provider's
    /// own state. Stateless providers do nothing.
    fn attach(&mut self, record: &VertexRecord, part: u32) {
        let _ = (record, part);
    }

    /// Confidence in a decision with the given value `margin`, in
    /// `[margin / 2, margin]`. Providers that can estimate how similar the
    /// vertex's nets are to the chosen partition discount near-ties whose
    /// connectivity evidence is weak; the default trusts the margin.
    fn confidence(&self, record: &VertexRecord, part: u32, margin: f64) -> f64 {
        let _ = (record, part);
        margin
    }
}

/// [`ConnectivityProvider`] over a precomputed [`NeighborAdjacency`]:
/// distinct-neighbour partition counts answered by one flat scan of the
/// vertex's deduplicated neighbour list — no epoch array, no nested pin
/// loop. Hub vertices above the adjacency's degree cutover traverse the
/// hypergraph through a lazily created per-worker [`NeighborScratch`]
/// instead, so dense instances degrade gracefully rather than exploding
/// the adjacency quadratically.
///
/// Counts are exact integers on both paths, so the provider answers
/// exactly what a full epoch traversal of the hypergraph would — the
/// engine's equivalence guarantees (f64 history bit-equality against the
/// frozen seed loop) rest on this.
///
/// The adjacency is either owned ([`AdjProvider::new`] builds it) or
/// borrowed ([`AdjProvider::from_adjacency`]), so one precomputation can
/// be shared with other consumers — the in-memory driver reuses it for
/// the per-pass comm-cost evaluation
/// ([`crate::engine::ExactCommCost::with_adjacency`]).
#[derive(Clone, Debug)]
pub struct AdjProvider<'a> {
    hg: &'a Hypergraph,
    adj: std::borrow::Cow<'a, NeighborAdjacency>,
    /// Counts hub vertices answered through the traversal fallback; a
    /// no-op unless bound via [`AdjProvider::with_registry`]. Shared by
    /// clones, so worker threads all bump the same cell.
    hub_fallbacks: hyperpraw_telemetry::Counter,
}

/// Worker-local scratch of [`AdjProvider`]: empty (O(1)) until the worker
/// meets a hub vertex, at which point the `O(|V|)` epoch scratch for the
/// traversal fallback is created once and reused.
#[derive(Debug, Default)]
pub struct AdjScratch {
    fallback: Option<NeighborScratch>,
}

impl<'a> AdjProvider<'a> {
    /// Builds the adjacency for `hg` under `budget` and owns it.
    pub fn new(hg: &'a Hypergraph, budget: AdjacencyBudget) -> Self {
        Self {
            hg,
            adj: std::borrow::Cow::Owned(NeighborAdjacency::build(hg, budget)),
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Borrows an adjacency built elsewhere (shared across consumers).
    pub fn from_adjacency(hg: &'a Hypergraph, adj: &'a NeighborAdjacency) -> Self {
        Self {
            hg,
            adj: std::borrow::Cow::Borrowed(adj),
            hub_fallbacks: hyperpraw_telemetry::Counter::noop(),
        }
    }

    /// Binds the `engine.hub_fallbacks` counter to `registry`: every
    /// connectivity count answered through the hub traversal fallback
    /// (rather than the flat adjacency list) increments it.
    pub fn with_registry(mut self, registry: &hyperpraw_telemetry::Registry) -> Self {
        self.hub_fallbacks = registry.counter("engine.hub_fallbacks");
        self
    }

    /// The precomputed adjacency in use.
    pub fn adjacency(&self) -> &NeighborAdjacency {
        &self.adj
    }
}

impl ConnectivityProvider for AdjProvider<'_> {
    type Scratch = AdjScratch;

    fn new_scratch(&self) -> Self::Scratch {
        AdjScratch::default()
    }

    fn needs_nets(&self) -> bool {
        false
    }

    fn count<A: AssignmentRef>(
        &self,
        record: &VertexRecord,
        assignment: &A,
        scratch: &mut Self::Scratch,
        counts: &mut Vec<u32>,
    ) {
        if self.hub_fallbacks.is_enabled() && self.adj.is_hub(record.vertex) {
            self.hub_fallbacks.inc();
        }
        self.adj.neighbor_partition_counts(
            self.hg,
            assignment,
            record.vertex,
            &mut scratch.fallback,
            counts,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::{HypergraphBuilder, Partition};

    fn three_net_chain() -> Hypergraph {
        let mut b = HypergraphBuilder::new(6);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3, 4]);
        b.add_hyperedge([4u32, 5]);
        b.build()
    }

    #[test]
    fn adj_provider_counts_distinct_neighbours_excluding_self() {
        let hg = three_net_chain();
        let provider = AdjProvider::new(&hg, AdjacencyBudget::Auto);
        assert!(!provider.needs_nets());
        let part = Partition::round_robin(6, 3);
        let mut scratch = provider.new_scratch();
        let mut counts = Vec::new();
        let record = VertexRecord {
            vertex: 2,
            weight: 1.0,
            nets: vec![],
        };
        provider.count(&record, &part, &mut scratch, &mut counts);
        // Neighbours of 2 are {0,1,3,4} in parts {0,1,0,1}.
        assert_eq!(counts, vec![2, 2, 0]);
        // Confidence defaults to the margin.
        assert_eq!(provider.confidence(&record, 0, 0.25), 0.25);
    }

    #[test]
    fn adj_provider_matches_epoch_traversal_counts() {
        let hg = three_net_chain();
        let part = Partition::round_robin(6, 3);
        let mut traversal = NeighborScratch::new(hg.num_vertices());
        let mut expected = Vec::new();
        let mut got = Vec::new();
        for budget in [
            AdjacencyBudget::Unbounded,
            AdjacencyBudget::Auto,
            AdjacencyBudget::DegreeCutoff(2), // forces hubs onto the fallback
            AdjacencyBudget::DegreeCutoff(0), // every connected vertex is a hub
        ] {
            let adj = AdjProvider::new(&hg, budget);
            assert!(!adj.needs_nets());
            let mut adj_scratch = adj.new_scratch();
            for v in hg.vertices() {
                let record = VertexRecord {
                    vertex: v,
                    weight: 1.0,
                    nets: vec![],
                };
                traversal.neighbor_partition_counts(&hg, &part, v, &mut expected);
                adj.count(&record, &part, &mut adj_scratch, &mut got);
                assert_eq!(got, expected, "budget {budget:?}, vertex {v}");
            }
            // The O(|V|) fallback scratch only exists when hubs exist.
            assert_eq!(
                adj_scratch.fallback.is_some(),
                adj.adjacency().num_hubs() > 0,
                "budget {budget:?}"
            );
        }
    }

    #[test]
    fn adj_provider_reuses_an_external_adjacency() {
        let mut b = HypergraphBuilder::new(4);
        b.add_hyperedge([0u32, 1, 2, 3]);
        let hg = b.build();
        let adj = NeighborAdjacency::build(&hg, AdjacencyBudget::Unbounded);
        let provider = AdjProvider::from_adjacency(&hg, &adj);
        assert_eq!(provider.adjacency().num_vertices(), 4);
        assert_eq!(provider.adjacency().distinct_degree(0), 3);
    }
}
