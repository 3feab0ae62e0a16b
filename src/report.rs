//! The common result shape returned by every partitioning algorithm.
//!
//! Every [`crate::api::PartitionJob`] run — whatever driver it dispatches
//! to — produces one [`PartitionReport`]: the assignment, the per-stream
//! history, the quality metrics, the per-phase wall-clock timings and the
//! resolved effective configuration. The report serialises itself to
//! single-line JSON through the workspace's one writer ([`crate::json`],
//! no external dependencies), so bench sweeps, the serve daemon and the
//! CLI `--json` flag emit machine-readable results.

use hyperpraw_core::{PartitionHistory, StopReason};
use hyperpraw_hypergraph::Partition;
use hyperpraw_lowmem::StreamedQuality;

use crate::api::Algorithm;
use crate::json::{self, ToJson};

/// Where a report's quality metrics stand. Stream runs cannot afford an
/// in-memory evaluation, so their cut metrics start out deferred rather
/// than silently absent; the JSON carries this status explicitly so
/// consumers can tell "not evaluated yet" from "evaluated to null".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QualityStatus {
    /// The metrics were computed in memory as part of the run.
    Evaluated,
    /// The run skipped evaluation (out-of-core stream); the cut metrics
    /// are `null` until back-filled through
    /// [`PartitionReport::attach_streamed_quality`].
    Deferred,
    /// Deferred metrics were back-filled by a streamed (edge-major
    /// re-read) evaluation.
    Streamed,
}

impl QualityStatus {
    /// Stable lowercase identifier used in JSON.
    pub fn name(&self) -> &'static str {
        match self {
            QualityStatus::Evaluated => "evaluated",
            QualityStatus::Deferred => "deferred",
            QualityStatus::Streamed => "streamed",
        }
    }
}

/// Wall-clock seconds spent in each phase of a job run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Time spent inside the partitioning driver (including any
    /// precomputation the driver performs, e.g. the adjacency build).
    pub partition_secs: f64,
    /// Time spent evaluating the quality metrics of the result
    /// (zero when the run could not afford an evaluation).
    pub evaluate_secs: f64,
}

/// Extra statistics reported by the memory-bounded streaming drivers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LowMemStats {
    /// The `α` the value function actually used (resolved from the FENNEL
    /// formula when the configuration left it unset).
    pub alpha: f64,
    /// Streaming passes executed (may stop early on a fixed point).
    pub passes: usize,
    /// Buffered low-confidence assignments revisited after the final pass.
    pub restreamed: usize,
    /// How many revisited assignments changed partition.
    pub moved_in_restream: usize,
    /// Heap bytes held by the connectivity index at the end of the run.
    pub index_memory_bytes: usize,
}

/// The resolved configuration a job ran with. Fields that do not apply to
/// the dispatched algorithm are `None`.
#[derive(Clone, Debug, PartialEq)]
pub struct EffectiveConfig {
    /// Number of partitions (compute units).
    pub partitions: u32,
    /// RNG seed.
    pub seed: u64,
    /// Whether the driver saw a profiled (non-uniform) cost matrix.
    pub architecture_aware: bool,
    /// Imbalance tolerance (restreaming and multilevel drivers).
    pub imbalance_tolerance: Option<f64>,
    /// Maximum number of streams/passes.
    pub max_iterations: Option<usize>,
    /// The `α` tempering factor (restreaming drivers).
    pub tempering_factor: Option<f64>,
    /// Refinement factor; `None` for "no refinement" or non-restreaming
    /// drivers.
    pub refinement_factor: Option<f64>,
    /// Explicit initial `α` (when the configuration pinned one).
    pub initial_alpha: Option<f64>,
    /// Stream order name (in-memory HyperPRAW drivers).
    pub stream_order: Option<&'static str>,
    /// Worker threads (1 = sequential, more = work stealing); a
    /// `threads(0)` auto-detect request is resolved to the real machine
    /// parallelism before it lands here.
    pub threads: usize,
    /// Connectivity index kind (lowmem drivers).
    pub index: Option<&'static str>,
    /// Memory budget in bytes (lowmem drivers).
    pub budget_bytes: Option<usize>,
    /// Sketch rebuilds between passes (lowmem drivers).
    pub rebuild_sketches: Option<bool>,
}

/// The common result of a [`crate::api::PartitionJob`] run.
///
/// The `partition` is bit-identical to what the underlying driver returns
/// for the same configuration (pinned by `tests/api_equivalence.rs`); the
/// report only adds the uniform metadata around it.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// The algorithm that produced the partition.
    pub algorithm: Algorithm,
    /// The vertex-to-partition assignment.
    pub partition: Partition,
    /// Per-stream history (empty unless the driver tracks one).
    pub history: PartitionHistory,
    /// Why the run stopped (`None` for one-shot drivers).
    pub stop_reason: Option<StopReason>,
    /// Streams/passes executed (1 for the one-shot baselines).
    pub iterations: usize,
    /// The `α` in effect when the run stopped (`None` for drivers without
    /// a value function).
    pub final_alpha: Option<f64>,
    /// Total imbalance `max_k W(k) / avg_k W(k)` of the returned
    /// partition. Stream runs cannot recover per-vertex weights after the
    /// fact and report the unweighted (vertex-count) imbalance.
    pub imbalance: f64,
    /// Partitioning communication cost under the evaluation cost matrix
    /// (`None` when the run could not afford the evaluation, e.g. a pure
    /// stream run).
    pub comm_cost: Option<f64>,
    /// Number of hyperedges spanning more than one partition.
    pub hyperedge_cut: Option<u64>,
    /// Sum of external degrees over cut hyperedges.
    pub soed: Option<u64>,
    /// Whether the quality metrics were evaluated, deferred, or
    /// back-filled by a streamed evaluation.
    pub quality: QualityStatus,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// The registry the job ran with. Disabled (the default) unless the
    /// job was built with [`crate::api::PartitionJob::registry`]; the JSON
    /// `telemetry` section embeds its metric snapshot when live.
    pub telemetry: hyperpraw_telemetry::Registry,
    /// The resolved effective configuration.
    pub config: EffectiveConfig,
    /// Extra statistics from the lowmem drivers.
    pub lowmem: Option<LowMemStats>,
}

impl PartitionReport {
    /// Fills the cut metrics from a streamed quality evaluation (the
    /// edge-major re-read of the input file that out-of-core runs use
    /// instead of an in-memory [`hyperpraw_core::metrics::QualityReport`]).
    pub fn attach_streamed_quality(&mut self, quality: &StreamedQuality) {
        self.hyperedge_cut = Some(quality.hyperedge_cut);
        self.soed = Some(quality.soed);
        self.imbalance = quality.imbalance;
        self.quality = QualityStatus::Streamed;
    }

    /// Serialises the report as a single-line JSON object (without the
    /// per-vertex assignment, which the CLI writes through `--output`).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// A human-readable multi-line summary (the CLI's text output).
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<17}: {v}\n"));
        };
        line("algorithm", self.algorithm.name().to_string());
        line("partitions", self.partition.num_parts().to_string());
        line("iterations", self.iterations.to_string());
        if let Some(r) = self.stop_reason {
            line("stop reason", r.name().to_string());
        }
        if let Some(cut) = self.hyperedge_cut {
            line("hyperedge cut", cut.to_string());
        }
        if let Some(soed) = self.soed {
            line("SOED", soed.to_string());
        }
        if let Some(cc) = self.comm_cost {
            line("comm cost", format!("{cc:.1}"));
        }
        line("imbalance", format!("{:.4}", self.imbalance));
        line(
            "partition time",
            format!("{:.3} s", self.timings.partition_secs),
        );
        if let Some(s) = &self.lowmem {
            line("passes run", s.passes.to_string());
            line(
                "restreamed",
                format!("{} ({} moved)", s.restreamed, s.moved_in_restream),
            );
            line("index memory", format!("{} B", s.index_memory_bytes));
        }
        out
    }
}

/// Migration cost of one dynamic update batch, in the paper's
/// architecture-aware terms (moving a vertex costs its weight times the
/// cost-matrix entry of the link it crosses).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MigrationReport {
    /// Pre-existing vertices whose assignment changed.
    pub vertices_moved: usize,
    /// `vertices_moved` over the live vertex count.
    pub moved_fraction: f64,
    /// Σ weight(v) · cost(old part, new part) over the moved vertices.
    pub bytes_moved: f64,
}

/// What recovery from a serve state directory found and did — surfaced
/// by the daemon's `report` op so operators can see that (and how) a
/// session survived a restart. Mirrors
/// [`hyperpraw_dynamic::RecoveryStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Size of the snapshot file the session was loaded from.
    pub snapshot_bytes: u64,
    /// Journal batches replayed on top of the snapshot.
    pub batches_replayed: usize,
    /// Journal bytes dropped because they were torn or corrupt.
    pub truncated_bytes: u64,
    /// Whether a torn/corrupt journal tail was detected (and dropped).
    pub torn_tail: bool,
}

impl RecoveryReport {
    /// Serialises the recovery stats as a single-line JSON object.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

impl From<hyperpraw_dynamic::RecoveryStats> for RecoveryReport {
    fn from(s: hyperpraw_dynamic::RecoveryStats) -> Self {
        Self {
            snapshot_bytes: s.snapshot_bytes,
            batches_replayed: s.batches_replayed,
            truncated_bytes: s.truncated_bytes,
            torn_tail: s.torn_tail,
        }
    }
}

/// The result of one dynamic update batch: a full [`PartitionReport`] for
/// the post-update assignment, extended with what the batch touched and
/// what migrating to the new assignment costs.
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// The post-update partition report (quality re-evaluated in memory).
    pub report: PartitionReport,
    /// Ids assigned to `add_vertex` updates, in batch order.
    pub new_vertices: Vec<u32>,
    /// Size of the restreamed dirty set (touched vertices plus their
    /// distinct-neighbour ring).
    pub dirty_vertices: usize,
    /// Whether the batch crossed the staleness threshold and rebuilt the
    /// adjacency instead of patching it.
    pub rebuilt_adjacency: bool,
    /// Migration cost of this batch.
    pub migration: MigrationReport,
}

impl UpdateReport {
    /// Serialises the update report as a single-line JSON object with the
    /// underlying [`PartitionReport`] embedded under `"report"`.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }

    /// A human-readable multi-line summary.
    pub fn text_summary(&self) -> String {
        let mut out = String::new();
        let mut line = |k: &str, v: String| {
            out.push_str(&format!("{k:<17}: {v}\n"));
        };
        line("dirty vertices", self.dirty_vertices.to_string());
        line("adjacency", {
            if self.rebuilt_adjacency {
                "rebuilt".to_string()
            } else {
                "patched".to_string()
            }
        });
        if !self.new_vertices.is_empty() {
            line("new vertices", format!("{:?}", self.new_vertices));
        }
        line(
            "migrated",
            format!(
                "{} vertices ({:.2}%, {:.1} cost-bytes)",
                self.migration.vertices_moved,
                self.migration.moved_fraction * 100.0,
                self.migration.bytes_moved
            ),
        );
        out.push_str(&self.report.text_summary());
        out
    }
}

impl ToJson for PartitionReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("algorithm", self.algorithm.name())
                .field("partitions", self.partition.num_parts())
                .field("num_vertices", self.partition.num_vertices())
                .field("iterations", self.iterations)
                .field("stop_reason", self.stop_reason.map(|r| r.name()))
                .field("final_alpha", self.final_alpha)
                .object("metrics", |m| {
                    m.field("quality", self.quality.name())
                        .field("imbalance", self.imbalance)
                        .field("comm_cost", self.comm_cost)
                        .field("hyperedge_cut", self.hyperedge_cut)
                        .field("soed", self.soed);
                })
                // The telemetry section subsumes the per-phase timings and,
                // when the job ran with a live registry, embeds its metric
                // snapshot (counters, gauges, histogram percentiles).
                .object("telemetry", |t| {
                    t.field("partition_secs", self.timings.partition_secs)
                        .field("evaluate_secs", self.timings.evaluate_secs)
                        .field(
                            "metrics",
                            self.telemetry
                                .is_enabled()
                                .then(|| self.telemetry.snapshot()),
                        );
                })
                .field("config", &self.config)
                .field("lowmem", self.lowmem.as_ref())
                .objects("history", self.history.records(), |e, r| {
                    e.field("iteration", r.iteration)
                        .field("phase", r.phase.name())
                        .field("alpha", r.alpha)
                        .field("imbalance", r.imbalance)
                        .field("comm_cost", r.comm_cost)
                        .field("moved_vertices", r.moved_vertices);
                });
        });
    }
}

impl ToJson for EffectiveConfig {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("partitions", self.partitions)
                .field("seed", self.seed)
                .field("architecture_aware", self.architecture_aware)
                .field("imbalance_tolerance", self.imbalance_tolerance)
                .field("max_iterations", self.max_iterations)
                .field("tempering_factor", self.tempering_factor)
                .field("refinement_factor", self.refinement_factor)
                .field("initial_alpha", self.initial_alpha)
                .field("stream_order", self.stream_order)
                .field("threads", self.threads)
                .field("index", self.index)
                .field("budget_bytes", self.budget_bytes)
                .field("rebuild_sketches", self.rebuild_sketches);
        });
    }
}

impl ToJson for LowMemStats {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("alpha", self.alpha)
                .field("passes", self.passes)
                .field("restreamed", self.restreamed)
                .field("moved_in_restream", self.moved_in_restream)
                .field("index_memory_bytes", self.index_memory_bytes);
        });
    }
}

impl ToJson for RecoveryReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("snapshot_bytes", self.snapshot_bytes)
                .field("batches_replayed", self.batches_replayed)
                .field("truncated_bytes", self.truncated_bytes)
                .field("torn_tail", self.torn_tail);
        });
    }
}

impl ToJson for UpdateReport {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.object("update", |u| {
                u.field("dirty_vertices", self.dirty_vertices)
                    .field("rebuilt_adjacency", self.rebuilt_adjacency)
                    .field("new_vertices", self.new_vertices.as_slice());
            })
            .object("migration", |m| {
                m.field("vertices_moved", self.migration.vertices_moved)
                    .field("moved_fraction", self.migration.moved_fraction)
                    .field("bytes_moved", self.migration.bytes_moved);
            })
            .field("report", &self.report);
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_report() -> PartitionReport {
        PartitionReport {
            algorithm: Algorithm::RoundRobin,
            partition: Partition::round_robin(6, 2),
            history: PartitionHistory::new(),
            stop_reason: None,
            iterations: 1,
            final_alpha: None,
            imbalance: 1.0,
            comm_cost: Some(12.5),
            hyperedge_cut: Some(3),
            soed: Some(7),
            quality: QualityStatus::Evaluated,
            timings: PhaseTimings::default(),
            telemetry: hyperpraw_telemetry::Registry::disabled(),
            config: EffectiveConfig {
                partitions: 2,
                seed: 0,
                architecture_aware: false,
                imbalance_tolerance: None,
                max_iterations: None,
                tempering_factor: None,
                refinement_factor: None,
                initial_alpha: None,
                stream_order: None,
                threads: 1,
                index: None,
                budget_bytes: None,
                rebuild_sketches: None,
            },
            lowmem: None,
        }
    }

    #[test]
    fn json_contains_the_headline_fields_and_balanced_braces() {
        let json = sample_report().to_json();
        for needle in [
            "\"algorithm\": \"round-robin\"",
            "\"metrics\"",
            "\"comm_cost\": 12.5",
            "\"hyperedge_cut\": 3",
            "\"telemetry\"",
            "\"partition_secs\"",
            "\"config\"",
            "\"history\": []",
        ] {
            assert!(json.contains(needle), "missing {needle} in\n{json}");
        }
        assert!(!json.contains("assignment"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn live_registry_metrics_land_in_the_telemetry_section() {
        assert!(sample_report().to_json().contains("\"metrics\": null"));
        let mut report = sample_report();
        let registry = hyperpraw_telemetry::Registry::new();
        registry.counter("engine.vertices_scored").add(42);
        report.telemetry = registry;
        let json = report.to_json();
        assert!(
            json.contains("\"metrics\": {"),
            "missing snapshot in\n{json}"
        );
        assert!(json.contains("engine.vertices_scored"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
    }

    #[test]
    fn streamed_quality_fills_the_cut_metrics() {
        let mut report = sample_report();
        report.hyperedge_cut = None;
        report.soed = None;
        report.attach_streamed_quality(&StreamedQuality {
            hyperedge_cut: 9,
            soed: 21,
            connectivity_minus_one: 12.0,
            imbalance: 1.25,
        });
        assert_eq!(report.hyperedge_cut, Some(9));
        assert_eq!(report.soed, Some(21));
        assert_eq!(report.imbalance, 1.25);
        assert_eq!(report.quality, QualityStatus::Streamed);
    }

    #[test]
    fn deferred_quality_is_explicit_and_backfill_round_trips_through_json() {
        // Regression: a stream run's JSON must say its metrics are
        // deferred rather than leaving bare nulls to interpretation, and
        // the streamed back-fill must round-trip through to_json.
        let mut report = sample_report();
        report.comm_cost = None;
        report.hyperedge_cut = None;
        report.soed = None;
        report.quality = QualityStatus::Deferred;
        let deferred = report.to_json();
        assert!(deferred.contains("\"quality\": \"deferred\""));
        assert!(deferred.contains("\"hyperedge_cut\": null"));

        report.attach_streamed_quality(&StreamedQuality {
            hyperedge_cut: 9,
            soed: 21,
            connectivity_minus_one: 12.0,
            imbalance: 1.25,
        });
        let streamed = report.to_json();
        assert!(streamed.contains("\"quality\": \"streamed\""));
        assert!(streamed.contains("\"hyperedge_cut\": 9"));
        assert!(streamed.contains("\"soed\": 21"));
        assert!(streamed.contains("\"imbalance\": 1.25"));
        assert!(!streamed.contains("\"hyperedge_cut\": null"));
    }

    #[test]
    fn update_report_embeds_the_partition_report() {
        let update = UpdateReport {
            report: sample_report(),
            new_vertices: vec![6, 7],
            dirty_vertices: 11,
            rebuilt_adjacency: false,
            migration: MigrationReport {
                vertices_moved: 3,
                moved_fraction: 0.5,
                bytes_moved: 4.25,
            },
        };
        let json = update.to_json();
        for needle in [
            "\"update\"",
            "\"dirty_vertices\": 11",
            "\"rebuilt_adjacency\": false",
            "\"new_vertices\": [6,7]",
            "\"migration\"",
            "\"vertices_moved\": 3",
            "\"bytes_moved\": 4.25",
            "\"report\": {",
            "\"algorithm\": \"round-robin\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in\n{json}");
        }
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        let text = update.text_summary();
        assert!(text.contains("dirty vertices"));
        assert!(text.contains("algorithm"));
    }
}
