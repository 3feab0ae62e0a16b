//! The metric names and units the benchmark reports, and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! the smoke test keeps the two in step.

use std::collections::BTreeMap;

use crate::util::{json_str, Tally};

/// One reported metric: its name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Metric name, unique across both lists.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Metrics a user of the system sees, measured with tracing off. Every
/// workload reports every one of them.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("partition_s", "s"),
    spec("comm_cost", "cost"),
    spec("sim_app_ms", "ms"),
    spec("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, measured in the traced run. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: &[Spec] = &[
    // hypergraph
    spec("hypergraph.read_s", "s"),
    spec("hypergraph.adjacency_build_s", "s"),
    spec("hypergraph.adjacency_bytes", "bytes"),
    spec("hypergraph.adjacency_hubs", "count"),
    // topology
    spec("topology.cost_matrix_s", "s"),
    // engine
    spec("engine.passes", "count"),
    spec("engine.pass_time_sum_s", "s"),
    spec("engine.pass_time_p50_ms", "ms"),
    spec("engine.vertices_scored", "count"),
    spec("engine.scored_per_s", "1/s"),
    spec("engine.steal.chunk_claims", "count"),
    spec("engine.steal.batch_applies", "count"),
    spec("engine.hub_fallbacks", "count"),
    spec("engine.comm_cost_eval_s", "s"),
    // facade
    spec("facade.evaluate_s", "s"),
    spec("facade.unattributed_frac", "frac"),
    // lowmem
    spec("lowmem.passes", "count"),
    spec("lowmem.index_bytes", "bytes"),
    spec("lowmem.restreamed", "count"),
    spec("lowmem.moved_frac", "frac"),
    // storage
    spec("storage.convert_s", "s"),
    spec("storage.decode_pass_s", "s"),
    spec("storage.bytes_decoded", "bytes"),
    spec("storage.cache_hit_frac", "frac"),
    spec("storage.prefetch_stall_s", "s"),
    // dynamic
    spec("dynamic.update_p50_ms", "ms"),
    spec("dynamic.dirty_set_p50", "count"),
    spec("dynamic.migrated_frac", "frac"),
    spec("dynamic.rebuilt_adjacency_count", "count"),
    spec("dynamic.passes_per_update", "count"),
    spec("dynamic.journal_fsync_p50_us", "us"),
    spec("dynamic.snapshot_fold_p50_ms", "ms"),
    // serve: the daemon's own histograms
    spec("serve.update_handle_p50_ms", "ms"),
    spec("serve.lookup_handle_p50_us", "us"),
    spec("serve.queue_wait_p99_us", "us"),
    spec("serve.lookup_idle_rtt_p50_us", "us"),
    spec("serve.lookup_lock_wait_p99_ms", "ms"),
    // serve: what its clients see, timed from when each request was due
    spec("serve.update_p50_ms", "ms"),
    spec("serve.update_p90_ms", "ms"),
    spec("serve.lookup_p50_ms", "ms"),
    spec("serve.lookup_p99_ms", "ms"),
    spec("serve.lookup_slo_miss_frac", "frac"),
    // netsim
    spec("netsim.remote_bytes", "bytes"),
    spec("netsim.remote_messages", "count"),
    // load generator and tracing
    spec("gen.late_p99_ms", "ms"),
    spec("trace.overhead_frac", "frac"),
];

/// Values measured by one run, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be a known metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// the selected list. End-to-end metrics must all have been measured;
/// per-layer metrics of idle layers default to 0. A non-finite value is a
/// failed operation, reported as 0.
pub fn result_line(tally: &mut Tally, values: &Values, traced: bool) -> String {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut body = Vec::with_capacity(list.len());
    for s in list {
        let value = match values.get(s.name) {
            Some(v) => v,
            None if traced => 0.0,
            None => panic!("end-to-end metric {} was not measured", s.name),
        };
        let value = if value.is_finite() {
            value
        } else {
            tally.op(Err(format!("{} is not finite", s.name)));
            0.0
        };
        body.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(s.name),
            json_str(s.unit)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}
