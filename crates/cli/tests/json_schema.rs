//! Schema pin for every JSON document the program emits: the partition,
//! update and recovery reports, the CLI's `--json` / `--metrics-out`
//! output, and one reply per serve op. Each document is parsed back with
//! [`hyperpraw::json::parse`] and its keys are compared, object by
//! object and in order, against the schema the perf harness and serve
//! clients read (`report.metrics.comm_cost`,
//! `report.telemetry.evaluate_secs`,
//! `update.update.{rebuilt_adjacency,new_vertices}`,
//! `metrics.{counters,histograms}`, `vertex`/`part`,
//! `error.{message,offset}`).

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::dynamic::GraphUpdate;
use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw::json::{parse, JsonValue};
use hyperpraw::report::{LowMemStats, RecoveryReport};
use hyperpraw::telemetry::Registry;

const REPORT_KEYS: [&str; 11] = [
    "algorithm",
    "partitions",
    "num_vertices",
    "iterations",
    "stop_reason",
    "final_alpha",
    "metrics",
    "telemetry",
    "config",
    "lowmem",
    "history",
];
const QUALITY_KEYS: [&str; 5] = ["quality", "imbalance", "comm_cost", "hyperedge_cut", "soed"];
const TELEMETRY_KEYS: [&str; 3] = ["partition_secs", "evaluate_secs", "metrics"];
const CONFIG_KEYS: [&str; 13] = [
    "partitions",
    "seed",
    "architecture_aware",
    "imbalance_tolerance",
    "max_iterations",
    "tempering_factor",
    "refinement_factor",
    "initial_alpha",
    "stream_order",
    "threads",
    "index",
    "budget_bytes",
    "rebuild_sketches",
];
const LOWMEM_KEYS: [&str; 5] = [
    "alpha",
    "passes",
    "restreamed",
    "moved_in_restream",
    "index_memory_bytes",
];
const HISTORY_KEYS: [&str; 6] = [
    "iteration",
    "phase",
    "alpha",
    "imbalance",
    "comm_cost",
    "moved_vertices",
];
const REGISTRY_KEYS: [&str; 3] = ["counters", "gauges", "histograms"];
const HISTOGRAM_KEYS: [&str; 8] = ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"];
const RECOVERY_KEYS: [&str; 4] = [
    "snapshot_bytes",
    "batches_replayed",
    "truncated_bytes",
    "torn_tail",
];

fn keys(value: &JsonValue) -> Vec<&str> {
    match value {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

fn field<'a>(value: &'a JsonValue, key: &str) -> &'a JsonValue {
    value
        .get(key)
        .unwrap_or_else(|| panic!("missing key {key:?} in {value:?}"))
}

fn number(value: &JsonValue, key: &str) -> f64 {
    field(value, key)
        .as_f64()
        .unwrap_or_else(|| panic!("{key:?} is not a number in {value:?}"))
}

fn number_or_null(value: &JsonValue, key: &str) {
    let v = field(value, key);
    assert!(
        matches!(v, JsonValue::Number(_) | JsonValue::Null),
        "{key:?} is neither a number nor null: {v:?}"
    );
}

/// `counters`/`gauges` map names to numbers; every histogram carries the
/// same eight statistics.
fn assert_registry_schema(registry: &JsonValue) {
    assert_eq!(keys(registry), REGISTRY_KEYS);
    for section in ["counters", "gauges"] {
        for (_, v) in match field(registry, section) {
            JsonValue::Object(fields) => fields,
            other => panic!("{section} is not an object: {other:?}"),
        } {
            assert!(v.as_f64().is_some(), "{section} value {v:?}");
        }
    }
    let JsonValue::Object(histograms) = field(registry, "histograms") else {
        panic!("histograms is not an object");
    };
    for (name, hist) in histograms {
        assert_eq!(keys(hist), HISTOGRAM_KEYS, "histogram {name}");
        for key in HISTOGRAM_KEYS {
            number(hist, key);
        }
    }
}

/// The full `PartitionReport` schema. `live_registry` says whether
/// `telemetry.metrics` must hold a snapshot or `null`.
fn assert_report_schema(report: &JsonValue, live_registry: bool) {
    assert_eq!(keys(report), REPORT_KEYS);
    assert!(field(report, "algorithm").as_str().is_some());
    for key in ["partitions", "num_vertices", "iterations"] {
        assert!(field(report, key).as_u64().is_some(), "{key}");
    }
    let stop = field(report, "stop_reason");
    assert!(matches!(stop, JsonValue::String(_) | JsonValue::Null));
    number_or_null(report, "final_alpha");

    let quality = field(report, "metrics");
    assert_eq!(keys(quality), QUALITY_KEYS);
    assert!(field(quality, "quality").as_str().is_some());
    number(quality, "imbalance");
    for key in ["comm_cost", "hyperedge_cut", "soed"] {
        number_or_null(quality, key);
    }

    let telemetry = field(report, "telemetry");
    assert_eq!(keys(telemetry), TELEMETRY_KEYS);
    number(telemetry, "partition_secs");
    number(telemetry, "evaluate_secs");
    match field(telemetry, "metrics") {
        JsonValue::Null => assert!(!live_registry, "live registry rendered as null"),
        registry => {
            assert!(live_registry, "disabled registry rendered a snapshot");
            assert_registry_schema(registry);
        }
    }

    assert_eq!(keys(field(report, "config")), CONFIG_KEYS);

    match field(report, "lowmem") {
        JsonValue::Null => {}
        lowmem => {
            assert_eq!(keys(lowmem), LOWMEM_KEYS);
            for key in LOWMEM_KEYS {
                number(lowmem, key);
            }
        }
    }

    let history = field(report, "history")
        .as_array()
        .expect("history is an array");
    for record in history {
        assert_eq!(keys(record), HISTORY_KEYS);
        assert!(field(record, "phase").as_str().is_some());
    }
}

fn assert_update_schema(update: &JsonValue, live_registry: bool) {
    assert_eq!(keys(update), ["update", "migration", "report"]);
    let touched = field(update, "update");
    assert_eq!(
        keys(touched),
        ["dirty_vertices", "rebuilt_adjacency", "new_vertices"]
    );
    assert!(field(touched, "rebuilt_adjacency").as_bool().is_some());
    for id in field(touched, "new_vertices").as_array().unwrap() {
        assert!(id.as_u64().is_some());
    }
    let migration = field(update, "migration");
    assert_eq!(
        keys(migration),
        ["vertices_moved", "moved_fraction", "bytes_moved"]
    );
    assert_report_schema(field(update, "report"), live_registry);
}

fn parse_doc(text: &str) -> JsonValue {
    parse(text).unwrap_or_else(|e| panic!("{e}: {text}"))
}

#[test]
fn partition_update_and_recovery_reports_keep_their_schema() {
    let hg = mesh_hypergraph(&MeshConfig::new(200, 6));
    let registry = Registry::new();
    let job = PartitionJob::new(Algorithm::HyperPrawBasic)
        .partitions(4)
        .seed(5)
        .registry(&registry);

    let mut report = job.run(&hg).unwrap();
    assert!(!report.history.is_empty(), "the run records its streams");
    let doc = parse_doc(&report.to_json());
    assert_report_schema(&doc, true);
    assert!(field(&doc, "lowmem") == &JsonValue::Null);
    assert_eq!(
        field(&doc, "history").as_array().unwrap().len(),
        report.history.len()
    );
    assert!(number(field(&doc, "metrics"), "comm_cost") > 0.0);

    report.lowmem = Some(LowMemStats {
        alpha: 1.5,
        passes: 3,
        restreamed: 10,
        moved_in_restream: 2,
        index_memory_bytes: 4096,
    });
    let doc = parse_doc(&report.to_json());
    assert_report_schema(&doc, true);
    assert_eq!(number(field(&doc, "lowmem"), "index_memory_bytes"), 4096.0);

    let disabled = PartitionJob::new(Algorithm::RoundRobin)
        .partitions(4)
        .run(&hg)
        .unwrap();
    assert_report_schema(&parse_doc(&disabled.to_json()), false);

    let mut session = job.run_dynamic(&hg).unwrap();
    let update = session
        .update(&[
            GraphUpdate::AddVertex { weight: 1.0 },
            GraphUpdate::AddHyperedge {
                pins: vec![200, 0, 1],
                weight: 1.0,
            },
        ])
        .unwrap();
    let doc = parse_doc(&update.to_json());
    assert_update_schema(&doc, true);
    let ids = field(field(&doc, "update"), "new_vertices");
    assert_eq!(ids.as_array().unwrap()[0].as_u64(), Some(200));

    let recovery = RecoveryReport {
        snapshot_bytes: 1234,
        batches_replayed: 3,
        truncated_bytes: 17,
        torn_tail: true,
    };
    let doc = parse_doc(&recovery.to_json());
    assert_eq!(keys(&doc), RECOVERY_KEYS);
    assert_eq!(field(&doc, "truncated_bytes").as_u64(), Some(17));
    assert_eq!(field(&doc, "torn_tail").as_bool(), Some(true));
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hyperpraw_schema_{}_{tag}", std::process::id()))
}

#[test]
fn cli_json_and_metrics_out_keep_their_schema() {
    let input = scratch("in.hgr");
    let metrics_out = scratch("metrics.json");
    std::fs::write(&input, "4 6\n1 2 3\n3 4 5\n5 6 1\n2 4 6\n").unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["partition", input.to_str().unwrap()])
        .args([
            "--parts",
            "2",
            "--algorithm",
            "basic",
            "--seed",
            "7",
            "--json",
        ])
        .args(["--metrics-out", metrics_out.to_str().unwrap()])
        .output()
        .expect("spawn hyperpraw partition");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert_report_schema(&parse_doc(&stdout), true);
    assert_registry_schema(&parse_doc(&std::fs::read_to_string(&metrics_out).unwrap()));
    for p in [&input, &metrics_out] {
        std::fs::remove_file(p).ok();
    }
}

/// Sends `requests` to a `serve --stdio` daemon and returns its raw
/// stdout, so the test can check line structure as well as content.
fn serve(requests: &[&str], extra: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hyperpraw"))
        .args(["serve", "--stdio"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn hyperpraw serve --stdio");
    let mut stdin = child.stdin.take().unwrap();
    for request in requests {
        writeln!(stdin, "{request}").unwrap();
    }
    drop(stdin);
    let mut out = String::new();
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    while reader.read_line(&mut out).unwrap() > 0 {}
    assert!(child.wait().unwrap().success());
    out
}

/// Splits the daemon's output into replies, asserting each is exactly one
/// line holding one JSON document.
fn replies(out: &str, expected: usize) -> Vec<JsonValue> {
    assert!(out.ends_with('\n'), "every reply ends its line: {out:?}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), expected, "one line per request:\n{out}");
    lines.iter().map(|l| parse_doc(l)).collect()
}

const PARTITION: &str = concat!(
    "{\"op\": \"partition\", \"parts\": 2, \"seed\": 7, ",
    "\"edges\": [[0,1,2],[2,3],[3,4,5],[5,0],[1,4]], \"vertices\": 6}"
);
const UPDATE: &str = concat!(
    "{\"op\": \"update\", \"updates\": [{\"op\": \"add_vertex\"}, ",
    "{\"op\": \"add_edge\", \"pins\": [6, 2, 3]}]}"
);

#[test]
fn every_serve_reply_is_one_line_with_a_pinned_schema() {
    // The op name carries a quote, a backslash and a U+0001 control
    // character, escaped for the request line.
    let odd_op = "a\"b\\c\u{1}";
    let out = serve(
        &[
            PARTITION,
            UPDATE,
            "{\"op\": \"lookup\", \"vertex\": 6}",
            "{\"op\": \"report\"}",
            "{\"op\": \"metrics\"}",
            "{\"op\": \"a\\\"b\\\\c\\u0001\"}",
            "[true, fals]",
            "{\"op\": \"shutdown\"}",
        ],
        &[],
    );
    let r = replies(&out, 8);
    for reply in &r[..6] {
        assert!(field(reply, "ok").as_bool().is_some());
    }

    assert_eq!(keys(&r[0]), ["ok", "report"]);
    assert_report_schema(field(&r[0], "report"), true);

    assert_eq!(keys(&r[1]), ["ok", "update"]);
    assert_update_schema(field(&r[1], "update"), true);

    assert_eq!(keys(&r[2]), ["ok", "vertex", "part"]);
    assert_eq!(field(&r[2], "vertex").as_u64(), Some(6));
    assert!(field(&r[2], "part").as_u64().is_some());

    assert_eq!(keys(&r[3]), ["ok", "report", "uptime_secs", "requests"]);
    assert_report_schema(field(&r[3], "report"), true);
    number(&r[3], "uptime_secs");
    assert_eq!(
        keys(field(&r[3], "requests")),
        [
            "partition",
            "update",
            "lookup",
            "report",
            "metrics",
            "shutdown"
        ]
    );

    assert_eq!(keys(&r[4]), ["ok", "metrics"]);
    assert_registry_schema(field(&r[4], "metrics"));

    assert_eq!(keys(&r[5]), ["ok", "error"]);
    assert_eq!(field(&r[5], "ok").as_bool(), Some(false));
    let error = field(&r[5], "error");
    assert_eq!(keys(error), ["message"], "semantic errors carry no offset");
    let message = field(error, "message").as_str().unwrap();
    assert!(
        message.contains(&format!("'{odd_op}'")),
        "the op name round-trips: {message:?}"
    );

    assert_eq!(keys(&r[6]), ["ok", "error"]);
    assert_eq!(keys(field(&r[6], "error")), ["message", "offset"]);
    assert!(field(field(&r[6], "error"), "offset").as_u64().is_some());

    assert_eq!(keys(&r[7]), ["ok", "bye"]);
}

#[test]
fn recovered_serve_reports_keep_their_schema() {
    let dir = scratch("state");
    let _ = std::fs::remove_dir_all(&dir);
    let state = ["--state-dir", dir.to_str().unwrap()];
    let first = serve(&[PARTITION, UPDATE, "{\"op\": \"shutdown\"}"], &state);
    replies(&first, 3);

    let out = serve(&["{\"op\": \"report\"}"], &state);
    let r = replies(&out, 1);
    assert_eq!(
        keys(&r[0]),
        [
            "ok",
            "report",
            "recovery",
            "uptime_secs",
            "requests",
            "batches_since_snapshot"
        ]
    );
    assert_report_schema(field(&r[0], "report"), true);
    assert_eq!(keys(field(&r[0], "recovery")), RECOVERY_KEYS);
    assert!(field(&r[0], "batches_since_snapshot").as_u64().is_some());
    std::fs::remove_dir_all(&dir).ok();
}
