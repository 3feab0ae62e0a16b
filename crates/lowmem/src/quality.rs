//! Streaming partition-quality evaluation.
//!
//! The cut metrics in [`hyperpraw_hypergraph::metrics`] walk an in-memory
//! CSR hypergraph. For out-of-core workloads this module recomputes the
//! same quantities with one **edge-major** pass over the original file:
//! only one net's pins and the assignment vector are resident at a time.

use std::path::Path;

use hyperpraw_hypergraph::io::stream::{visit_edgelist_nets, visit_hgr_nets};
use hyperpraw_hypergraph::io::{IoError, IoResult};
use hyperpraw_hypergraph::Partition;

/// Partition quality computed by streaming the input file edge-major.
///
/// Matches [`hyperpraw_hypergraph::metrics`] on unweighted hypergraphs:
/// `hyperedge_cut`, `soed` and `connectivity_minus_one` use unit net
/// weights (the streaming readers treat nets uniformly). `imbalance` uses
/// the file's vertex weights when it carries them (hMETIS fmt 10/11 — the
/// quantity the partitioner actually balanced), unit weights otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamedQuality {
    /// Number of nets spanning more than one partition.
    pub hyperedge_cut: u64,
    /// Sum of `λ(e)` over cut nets.
    pub soed: u64,
    /// `Σ_e (λ(e) − 1)`.
    pub connectivity_minus_one: f64,
    /// `max_k |V_k| / avg_k |V_k|`.
    pub imbalance: f64,
}

fn evaluate_with<V>(partition: &Partition, visit: V) -> IoResult<StreamedQuality>
where
    V: FnOnce(&mut dyn FnMut(u32, &[u32], f64) -> IoResult<()>) -> IoResult<()>,
{
    let mut cut = 0u64;
    let mut soed = 0u64;
    let mut conn = 0f64;
    let mut parts_scratch: Vec<u32> = Vec::new();
    visit(&mut |_net, pins, _weight| {
        parts_scratch.clear();
        for &v in pins {
            if (v as usize) >= partition.num_vertices() {
                return Err(IoError::parse(
                    0,
                    format!(
                        "pin {v} outside the partition's {} vertices",
                        partition.num_vertices()
                    ),
                ));
            }
            parts_scratch.push(partition.part_of(v));
        }
        parts_scratch.sort_unstable();
        parts_scratch.dedup();
        let lambda = parts_scratch.len() as u64;
        if lambda > 1 {
            cut += 1;
            soed += lambda;
        }
        conn += lambda.saturating_sub(1) as f64;
        Ok(())
    })?;
    Ok(StreamedQuality {
        hyperedge_cut: cut,
        soed,
        connectivity_minus_one: conn,
        imbalance: unweighted_imbalance(partition),
    })
}

/// `max_k |V_k| / avg_k |V_k|` from the partition's part sizes — the only
/// imbalance a pure stream consumer can compute after the fact, without
/// per-vertex weights (1.0 for an empty partition).
pub fn unweighted_imbalance(partition: &Partition) -> f64 {
    let sizes = partition.part_sizes();
    let total: usize = sizes.iter().sum();
    if total == 0 || sizes.is_empty() {
        return 1.0;
    }
    let avg = total as f64 / sizes.len() as f64;
    sizes.iter().copied().max().unwrap_or(0) as f64 / avg
}

fn weighted_imbalance(partition: &Partition, weights: &[f64]) -> f64 {
    if weights.len() != partition.num_vertices() {
        return unweighted_imbalance(partition);
    }
    let mut loads = vec![0.0f64; partition.num_parts() as usize];
    for v in 0..partition.num_vertices() as u32 {
        loads[partition.part_of(v) as usize] += weights[v as usize];
    }
    let total: f64 = loads.iter().sum();
    if total <= 0.0 {
        return 1.0;
    }
    let avg = total / loads.len() as f64;
    loads.iter().cloned().fold(0.0, f64::max) / avg
}

/// Evaluates `partition` against the hMETIS file at `path` in one
/// edge-major pass.
pub fn evaluate_hgr_file(
    path: impl AsRef<Path>,
    partition: &Partition,
) -> IoResult<StreamedQuality> {
    let reader = std::io::BufReader::new(std::fs::File::open(path.as_ref())?);
    let mut vertex_weights: Option<Vec<f64>> = None;
    let mut quality = evaluate_with(partition, |sink| {
        let summary = visit_hgr_nets(reader, sink)?;
        vertex_weights = summary.vertex_weights;
        Ok(())
    })?;
    if let Some(weights) = vertex_weights {
        quality.imbalance = weighted_imbalance(partition, &weights);
    }
    Ok(quality)
}

/// Evaluates `partition` against the edge-list file at `path` in one
/// edge-major pass.
pub fn evaluate_edgelist_file(
    path: impl AsRef<Path>,
    partition: &Partition,
) -> IoResult<StreamedQuality> {
    let reader = std::io::BufReader::new(std::fs::File::open(path.as_ref())?);
    evaluate_with(partition, |sink| {
        visit_edgelist_nets(reader, sink).map(|_| ())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperpraw_hypergraph::io::hmetis;
    use hyperpraw_hypergraph::{metrics, HypergraphBuilder};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A temp-dir path unique per call, so parallel tests never share it.
    fn scratch_path(prefix: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("{prefix}{}-{n}.hgr", std::process::id()))
    }

    #[test]
    fn streamed_quality_matches_in_memory_metrics() {
        let mut b = HypergraphBuilder::new(8);
        b.add_hyperedge([0u32, 1, 2]);
        b.add_hyperedge([2u32, 3, 4]);
        b.add_hyperedge([4u32, 5, 6, 7]);
        b.add_hyperedge([0u32, 7]);
        let hg = b.build();
        let part = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 0, 1], 3).unwrap();

        let path = scratch_path("hyperpraw_lowmem_quality_");
        hmetis::write_hgr_file(&hg, &path).unwrap();
        let quality = evaluate_hgr_file(&path, &part).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(quality.hyperedge_cut, metrics::hyperedge_cut(&hg, &part));
        assert_eq!(quality.soed, metrics::soed(&hg, &part));
        assert!(
            (quality.connectivity_minus_one - metrics::connectivity_minus_one(&hg, &part)).abs()
                < 1e-12
        );
        assert!((quality.imbalance - part.imbalance(&hg).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn weighted_files_report_weighted_imbalance() {
        // fmt=10: 2 nets, 4 vertices with weights 9, 1, 1, 9. Partition
        // [0, 1, 1, 1]: weighted loads are (9, 11) → imbalance 1.1, while
        // unit-weight counts (1, 3) would report 1.5.
        let path = scratch_path("hyperpraw_lowmem_quality_weighted_");
        std::fs::write(&path, "2 4 10\n1 2\n3 4\n9\n1\n1\n9\n").unwrap();
        let part = Partition::from_assignment(vec![0, 1, 1, 1], 2).unwrap();
        let quality = evaluate_hgr_file(&path, &part).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            (quality.imbalance - 1.1).abs() < 1e-12,
            "expected weighted imbalance 1.1, got {}",
            quality.imbalance
        );
    }

    #[test]
    fn out_of_range_pins_are_reported() {
        let path = scratch_path("hyperpraw_lowmem_quality_bad_");
        std::fs::write(&path, "1 9\n8 9\n").unwrap();
        let small = Partition::round_robin(3, 2);
        let err = evaluate_hgr_file(&path, &small).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(format!("{err}").contains("outside the partition"));
    }
}
