//! Quickstart: partition a hypergraph for a heterogeneous machine through
//! the unified job API and see why architecture-awareness matters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks the full HyperPRAW pipeline on a small FEM-style
//! hypergraph and a 48-core ARCHER-like machine:
//!
//! 1. profile the machine's peer-to-peer bandwidth (mpiGraph substitute),
//! 2. partition with several strategies through the **one front door** —
//!    `PartitionJob::new(algorithm) … .run(&hg)` — from the Zoltan-like
//!    multilevel baseline to HyperPRAW-aware (profiled costs),
//! 3. compare the common `PartitionReport` each run returns (hyperedge
//!    cut, SOED, partitioning communication cost, imbalance, wall-clock)
//!    and the simulated runtime of the paper's synthetic
//!    communication-bound benchmark.

use hyperpraw::hypergraph::generators::{sat_hypergraph, SatConfig};
use hyperpraw::prelude::*;

fn main() {
    let cores = 48;
    println!("== HyperPRAW quickstart ==\n");

    // A communication-bound application modelled as a hypergraph: the dual
    // hypergraph of a SAT instance (clauses are vertices, every variable's
    // occurrence list is a hyperedge) — the same family as the paper's
    // `sat14_itox_vc1130 dual` benchmark, on which restreaming shines.
    let hg = sat_hypergraph(&SatConfig::dual(3_000, 9_000, 2.6));
    println!("application hypergraph : {hg}");

    // The machine: 48 cores (2 ARCHER nodes), profiled through the simulated
    // ring benchmark. HyperPRAW only ever sees the profiled matrix.
    let machine = MachineModel::archer_like(cores);
    println!("machine                : {machine}");
    let link = LinkModel::from_machine(&machine, 0.05, 42);
    let bandwidth = RingProfiler::default().profile(&link);
    let cost = CostMatrix::from_bandwidth(&bandwidth);
    println!(
        "profiled bandwidth     : {:.0} .. {:.0} MB/s\n",
        bandwidth.min_off_diagonal(),
        bandwidth.max_off_diagonal()
    );

    // Every strategy is one PartitionJob away: same builder, same report.
    // The oblivious algorithms ignore the cost matrix for partitioning but
    // are evaluated against it, exactly as the paper scores Figure 4C.
    let strategies = [
        Algorithm::MultilevelBaseline,
        Algorithm::HyperPrawBasic,
        Algorithm::HyperPrawAware,
    ];
    let reports: Vec<PartitionReport> = strategies
        .iter()
        .map(|&algorithm| {
            PartitionJob::new(algorithm)
                .cost(cost.clone())
                .seed(42)
                .run(&hg)
                .expect("valid quickstart configuration")
        })
        .collect();

    // The synthetic benchmark: every cut hyperedge exchanges messages between
    // its pins each superstep.
    let bench = SyntheticBenchmark::new(link, BenchmarkConfig::default());

    println!(
        "{:<18} {:>10} {:>10} {:>14} {:>10} {:>14}",
        "strategy", "cut", "SOED", "comm cost", "imbalance", "sim time (ms)"
    );
    let mut baseline_time = None;
    for report in &reports {
        let runtime = bench.run(&hg, &report.partition);
        let ms = runtime.total_time_us / 1e3;
        let speedup = match baseline_time {
            None => {
                baseline_time = Some(ms);
                String::from("1.00x")
            }
            Some(base) => format!("{:.2}x", base / ms),
        };
        println!(
            "{:<18} {:>10} {:>10} {:>14.1} {:>10.3} {:>10.2} ({})",
            report.algorithm.name(),
            report.hyperedge_cut.unwrap_or(0),
            report.soed.unwrap_or(0),
            report.comm_cost.unwrap_or(f64::NAN),
            report.imbalance,
            ms,
            speedup
        );
    }

    // Machine-readable results fall out of the same report.
    let aware = reports.last().expect("three strategies ran");
    let json = aware.to_json();
    let head: String = json.chars().take(240).collect();
    println!("\nJSON report of the aware run (one line, first 240 chars):\n{head} ...");

    println!(
        "\nHyperPRAW's restreaming finds placements whose traffic matches the machine: the aware\n\
         variant routes cut hyperedges over fast intra-node links, which lowers the partitioning\n\
         communication cost and the simulated runtime even when the raw cut is comparable.\n\
         Run the fig4/fig5 binaries in crates/bench to reproduce the full paper comparison."
    );
}
