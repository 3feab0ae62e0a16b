//! The benchmark's own tests: a smoke run of every workload at tiny size,
//! and a tampered assignment that the correctness check must catch.

use std::path::Path;
use std::process::Command;

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::hypergraph::generators::suite::{PaperInstance, SuiteConfig};
use hyperpraw::json::{self, JsonValue};
use hyperpraw_bench::Testbed;
use perfbench::checks::check_partition;
use perfbench::metrics::{Spec, END_TO_END, PER_LAYER};
use perfbench::Workload;

/// `(name, unit)` pairs of one list in `BENCHMARK.json`.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(specs: &[Spec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_the_contract() {
    assert_eq!(pairs(END_TO_END), contract("end_to_end"));
    assert_eq!(pairs(PER_LAYER), contract("per_layer"));
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    let dir = tempdir();
    for workload in Workload::ALL {
        for (trace, expected) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload.name(), "--seed", "7"])
                .args(["--seconds", "0.5", "--trace", trace, "--smoke"])
                .current_dir(&dir)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{} trace {trace} failed: {}",
                workload.name(),
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let metrics = result.get("metrics").expect("metrics");
            for spec in expected {
                let m = metrics
                    .get(spec.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", workload.name(), spec.name));
                assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some(spec.unit));
                let value = m.get("value").and_then(JsonValue::as_f64).expect("value");
                if trace == "0" {
                    assert!(value > 0.0, "{} {} is {value}", workload.name(), spec.name);
                }
            }
            assert!(stdout.contains("\"stamp\""), "no host and build stamp");
        }
    }
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a run left files behind"
    );
    std::fs::remove_dir(&dir).unwrap();
}

#[test]
fn a_tampered_assignment_trips_the_check() {
    let hg = PaperInstance::TwoCubesSphere.generate(&SuiteConfig {
        scale: 0.01,
        seed: 3,
        min_vertices: 32,
    });
    let p = 8;
    let testbed = Testbed::archer(p as usize, 0, 3);
    let report = PartitionJob::new(Algorithm::HyperPrawAware)
        .cost(testbed.cost.clone())
        .seed(3)
        .run(&hg)
        .expect("partition");
    let check = |assignment: &[u32]| {
        check_partition(&hg, assignment, p, &testbed.cost, 1.1, report.comm_cost)
    };
    let good = report.partition.assignment().to_vec();
    assert!(check(&good).is_ok());

    let mut out_of_range = good.clone();
    out_of_range[5] = p;
    assert!(check(&out_of_range).unwrap_err().contains("outside"));

    let mut moved = good.clone();
    moved[5] = (moved[5] + 1) % p;
    assert!(check(&moved).unwrap_err().contains("comm cost"));

    let mut piled = good.clone();
    piled
        .iter_mut()
        .take(hg.num_vertices() / 2)
        .for_each(|a| *a = 0);
    assert!(check(&piled).unwrap_err().contains("imbalance"));

    assert!(check(&good[1..]).is_err());
}

/// A fresh directory under the build's temporary area.
fn tempdir() -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
