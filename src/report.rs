//! The common result shape returned by every partitioning algorithm.
//!
//! Every [`crate::api::PartitionJob`] run — whatever driver it dispatches
//! to — produces one [`PartitionReport`]: the assignment, the per-stream
//! history, the quality metrics, the per-phase wall-clock timings and the
//! resolved effective configuration. The report serialises itself to JSON
//! with a hand-rolled writer (no external dependencies), so bench sweeps
//! and the CLI `--json` flag can emit machine-readable results.

use hyperpraw_core::{PartitionHistory, StopReason};
use hyperpraw_hypergraph::Partition;
use hyperpraw_lowmem::StreamedQuality;

use crate::api::Algorithm;

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
    /// Worker threads (1 = sequential); a `threads(0)` auto-detect request
    /// is resolved to the real machine parallelism before it lands here.
    pub threads: usize,
    /// Worker scheduling of the parallel drivers: `"bsp"` (deterministic
    /// bulk-synchronous windows) or `"steal"` (lock-free work stealing).
    /// `None` for single-threaded and non-parallel drivers.
    pub parallel_mode: Option<&'static str>,
    /// Vertices per synchronisation window (bulk-synchronous mode only —
    /// work stealing has no windows).
    pub sync_interval: Option<usize>,
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

    /// Serialises the report as a JSON object, without the per-vertex
    /// assignment (use [`PartitionReport::to_json_with_assignment`] when
    /// the consumer needs it inline).
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Serialises the report as a JSON object including the `assignment`
    /// array (one partition id per vertex).
    pub fn to_json_with_assignment(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, with_assignment: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        field(&mut out, "algorithm", json_str(self.algorithm.name()));
        field(
            &mut out,
            "partitions",
            self.partition.num_parts().to_string(),
        );
        field(
            &mut out,
            "num_vertices",
            self.partition.num_vertices().to_string(),
        );
        field(&mut out, "iterations", self.iterations.to_string());
        field(
            &mut out,
            "stop_reason",
            match self.stop_reason {
                Some(r) => json_str(r.name()),
                None => "null".into(),
            },
        );
        field(&mut out, "final_alpha", json_opt_f64(self.final_alpha));

        out.push_str("  \"metrics\": {\n");
        subfield(&mut out, "quality", json_str(self.quality.name()));
        subfield(&mut out, "imbalance", json_f64(self.imbalance));
        subfield(&mut out, "comm_cost", json_opt_f64(self.comm_cost));
        subfield(&mut out, "hyperedge_cut", json_opt_u64(self.hyperedge_cut));
        last_subfield(&mut out, "soed", json_opt_u64(self.soed));
        out.push_str("  },\n");

        // The telemetry section subsumes the per-phase timings and, when
        // the job ran with a live registry, embeds its metric snapshot
        // (counters, gauges, histogram percentiles).
        out.push_str("  \"telemetry\": {\n");
        subfield(
            &mut out,
            "partition_secs",
            json_f64(self.timings.partition_secs),
        );
        subfield(
            &mut out,
            "evaluate_secs",
            json_f64(self.timings.evaluate_secs),
        );
        last_subfield(
            &mut out,
            "metrics",
            if self.telemetry.is_enabled() {
                self.telemetry.render_json()
            } else {
                "null".into()
            },
        );
        out.push_str("  },\n");

        let c = &self.config;
        out.push_str("  \"config\": {\n");
        subfield(&mut out, "partitions", c.partitions.to_string());
        subfield(&mut out, "seed", c.seed.to_string());
        subfield(
            &mut out,
            "architecture_aware",
            c.architecture_aware.to_string(),
        );
        subfield(
            &mut out,
            "imbalance_tolerance",
            json_opt_f64(c.imbalance_tolerance),
        );
        subfield(&mut out, "max_iterations", json_opt_usize(c.max_iterations));
        subfield(
            &mut out,
            "tempering_factor",
            json_opt_f64(c.tempering_factor),
        );
        subfield(
            &mut out,
            "refinement_factor",
            json_opt_f64(c.refinement_factor),
        );
        subfield(&mut out, "initial_alpha", json_opt_f64(c.initial_alpha));
        subfield(&mut out, "stream_order", json_opt_str(c.stream_order));
        subfield(&mut out, "threads", c.threads.to_string());
        subfield(&mut out, "parallel_mode", json_opt_str(c.parallel_mode));
        subfield(&mut out, "sync_interval", json_opt_usize(c.sync_interval));
        subfield(&mut out, "index", json_opt_str(c.index));
        subfield(&mut out, "budget_bytes", json_opt_usize(c.budget_bytes));
        last_subfield(
            &mut out,
            "rebuild_sketches",
            match c.rebuild_sketches {
                Some(b) => b.to_string(),
                None => "null".into(),
            },
        );
        out.push_str("  },\n");

        match &self.lowmem {
            None => field(&mut out, "lowmem", "null".into()),
            Some(s) => {
                out.push_str("  \"lowmem\": {\n");
                subfield(&mut out, "alpha", json_f64(s.alpha));
                subfield(&mut out, "passes", s.passes.to_string());
                subfield(&mut out, "restreamed", s.restreamed.to_string());
                subfield(
                    &mut out,
                    "moved_in_restream",
                    s.moved_in_restream.to_string(),
                );
                last_subfield(
                    &mut out,
                    "index_memory_bytes",
                    s.index_memory_bytes.to_string(),
                );
                out.push_str("  },\n");
            }
        }

        out.push_str("  \"history\": [");
        for (i, r) in self.history.records().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!(
                "\"iteration\": {}, \"phase\": {}, \"alpha\": {}, \"imbalance\": {}, \
                 \"comm_cost\": {}, \"moved_vertices\": {}",
                r.iteration,
                json_str(r.phase.name()),
                json_f64(r.alpha),
                json_f64(r.imbalance),
                json_f64(r.comm_cost),
                r.moved_vertices
            ));
            out.push('}');
        }
        if self.history.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }

        if with_assignment {
            out.push_str(",\n  \"assignment\": [");
            for (i, &p) in self.partition.assignment().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&p.to_string());
            }
            out.push(']');
        }
        out.push_str("\n}\n");
        out
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
    /// Serialises the recovery stats as a compact JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"snapshot_bytes\": {}, \"batches_replayed\": {}, \"truncated_bytes\": {}, \"torn_tail\": {}}}",
            self.snapshot_bytes, self.batches_replayed, self.truncated_bytes, self.torn_tail
        )
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
    /// Serialises the update report as a JSON object with the underlying
    /// [`PartitionReport`] embedded under `"report"`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1536);
        out.push_str("{\n");
        out.push_str("  \"update\": {\n");
        subfield(&mut out, "dirty_vertices", self.dirty_vertices.to_string());
        subfield(
            &mut out,
            "rebuilt_adjacency",
            self.rebuilt_adjacency.to_string(),
        );
        let ids: Vec<String> = self.new_vertices.iter().map(|v| v.to_string()).collect();
        last_subfield(&mut out, "new_vertices", format!("[{}]", ids.join(",")));
        out.push_str("  },\n");
        out.push_str("  \"migration\": {\n");
        subfield(
            &mut out,
            "vertices_moved",
            self.migration.vertices_moved.to_string(),
        );
        subfield(
            &mut out,
            "moved_fraction",
            json_f64(self.migration.moved_fraction),
        );
        last_subfield(
            &mut out,
            "bytes_moved",
            json_f64(self.migration.bytes_moved),
        );
        out.push_str("  },\n");
        // Embed the report, re-indented two spaces. Safe to do per line:
        // the writer escapes newlines inside strings, so every literal
        // '\n' in the JSON is structural.
        out.push_str("  \"report\": ");
        for (i, line) in self.report.to_json().trim_end().lines().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(line);
            out.push('\n');
        }
        out.push_str("}\n");
        out
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

fn field(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("  \"{key}\": {value},\n"));
}

fn subfield(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("    \"{key}\": {value},\n"));
}

fn last_subfield(out: &mut String, key: &str, value: String) {
    out.push_str(&format!("    \"{key}\": {value}\n"));
}

/// Escapes a string as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number (finite) or `null` — JSON has no NaN/Infinity literals.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".into())
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

fn json_opt_usize(v: Option<usize>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "null".into())
}

fn json_opt_str(v: Option<&'static str>) -> String {
    v.map(json_str).unwrap_or_else(|| "null".into())
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
                parallel_mode: None,
                sync_interval: None,
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
    fn assignment_variant_lists_every_vertex() {
        let json = sample_report().to_json_with_assignment();
        assert!(json.contains("\"assignment\": [0,1,0,1,0,1]"));
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        let mut report = sample_report();
        report.imbalance = f64::NAN;
        report.comm_cost = Some(f64::INFINITY);
        let json = report.to_json();
        assert!(json.contains("\"imbalance\": null"));
        assert!(json.contains("\"comm_cost\": null"));
    }

    #[test]
    fn string_escaping_is_json_safe() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
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
