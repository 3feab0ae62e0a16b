//! Shared test support: the epoch-traversal connectivity oracle.
//!
//! [`CsrProvider`] answers the engine's `X_j(v)` query the way the seed
//! driver did — by re-deduplicating the vertex's neighbourhood through an
//! `O(|V|)` epoch scratch on every visit, with no precomputation. It is
//! slower than the production `AdjProvider` but trivially correct, which
//! makes it the reference the provider- and engine-equivalence suites pin
//! the adjacency provider against.

use hyperpraw_core::engine::{
    ConnectivityProvider, Engine, EngineConfig, EngineRun, ExactCommCost, InMemorySource,
};
use hyperpraw_core::{CostMatrix, HyperPrawConfig};
use hyperpraw_hypergraph::io::stream::VertexRecord;
use hyperpraw_hypergraph::traversal::NeighborScratch;
use hyperpraw_hypergraph::{AssignmentRef, Hypergraph};

/// [`ConnectivityProvider`] over an in-memory CSR hypergraph: counts
/// distinct neighbour vertices per partition, the exact `X_j(v)` of the
/// paper. All state is the assignment itself, so the provider is free to
/// share across worker threads.
#[derive(Clone, Copy, Debug)]
pub struct CsrProvider<'a> {
    hg: &'a Hypergraph,
}

impl<'a> CsrProvider<'a> {
    /// Creates a provider traversing `hg`.
    pub fn new(hg: &'a Hypergraph) -> Self {
        Self { hg }
    }
}

impl ConnectivityProvider for CsrProvider<'_> {
    type Scratch = NeighborScratch;

    fn new_scratch(&self) -> Self::Scratch {
        NeighborScratch::new(self.hg.num_vertices())
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
        scratch.neighbor_partition_counts(self.hg, assignment, record.vertex, counts);
    }
}

/// Runs the sequential restreaming engine over `hg` with the
/// epoch-traversal oracle as its connectivity provider — what the
/// in-memory driver did before the adjacency provider existed.
pub fn csr_restream(hg: &Hypergraph, config: &HyperPrawConfig, cost: &CostMatrix) -> EngineRun {
    Engine::new(EngineConfig::restreaming(config))
        .run(
            cost,
            &mut InMemorySource::new(hg, config.stream_order, config.seed),
            &mut CsrProvider::new(hg),
            &mut ExactCommCost::new(hg),
        )
        .expect("in-memory sources cannot fail")
}
