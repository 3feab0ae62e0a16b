//! End-to-end out-of-core pipeline: write a suite instance to disk as
//! hMETIS, transpose it into a vertex stream, partition it under a tight
//! memory budget through `PartitionJob::run_stream`, and evaluate the
//! result by streaming the file again — the CSR hypergraph is only ever
//! built to cross-check the answers.

use hyperpraw::hypergraph::generators::suite::{PaperInstance, SuiteConfig};
use hyperpraw::hypergraph::io::hmetis;
use hyperpraw::hypergraph::io::stream::{stream_hgr_file, StreamOptions, VertexStream};
use hyperpraw::hypergraph::metrics;
use hyperpraw::lowmem::evaluate_hgr_file;
use hyperpraw::prelude::*;

#[test]
fn disk_stream_partitioning_respects_the_budget_and_beats_round_robin() {
    let hg = PaperInstance::TwoCubesSphere.generate(&SuiteConfig::scaled(0.02));
    let path = std::env::temp_dir().join(format!(
        "hyperpraw_lowmem_pipeline_{}.hgr",
        std::process::id()
    ));
    hmetis::write_hgr_file(&hg, &path).unwrap();

    let p = 8u32;
    let budget = MemoryBudget::bytes(256 << 10);
    let plan = budget.plan(p as usize, hg.num_hyperedges());
    let options = StreamOptions {
        buffer_bytes: plan.transpose_buffer_bytes,
        spill_dir: None,
    };
    let mut stream = stream_hgr_file(&path, &options).unwrap();
    assert_eq!(stream.num_vertices(), hg.num_vertices());
    assert_eq!(stream.num_nets(), hg.num_hyperedges());

    let mut report = PartitionJob::new(Algorithm::LowMemSketched)
        .partitions(p)
        .memory_budget(budget)
        .run_stream(&mut stream)
        .unwrap();

    // Peak memory is bounded by the budget on both sides of the pipeline.
    assert!(
        stream.peak_loaded_bytes() <= plan.transpose_buffer_bytes,
        "transpose peak {} exceeds planned buffer {}",
        stream.peak_loaded_bytes(),
        plan.transpose_buffer_bytes
    );
    let stats = report.lowmem.expect("stream runs report lowmem stats");
    assert!(
        stats.index_memory_bytes <= budget.bytes,
        "index memory {} exceeds budget {}",
        stats.index_memory_bytes,
        budget.bytes
    );

    // The streamed quality evaluation agrees with the in-memory metrics,
    // and back-fills the report's cut fields.
    assert_eq!(report.hyperedge_cut, None);
    let streamed = evaluate_hgr_file(&path, &report.partition).unwrap();
    report.attach_streamed_quality(&streamed);
    assert_eq!(
        report.hyperedge_cut,
        Some(metrics::hyperedge_cut(&hg, &report.partition))
    );
    assert_eq!(report.soed, Some(metrics::soed(&hg, &report.partition)));

    // One bounded-memory pass still beats the naive baseline.
    let rr = Partition::round_robin(hg.num_vertices(), p);
    assert!(
        streamed.soed < metrics::soed(&hg, &rr),
        "streaming SOED {} should beat round robin {}",
        streamed.soed,
        metrics::soed(&hg, &rr)
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn threaded_multi_pass_out_of_core_restreaming_runs_from_a_disk_stream() {
    // The engine combination none of the pre-refactor drivers could
    // express: work-stealing worker threads scoring a shared sketched
    // connectivity index over an on-disk vertex stream, restreamed for
    // several passes with the sketches rebuilt in between — one job away.
    let hg = PaperInstance::TwoCubesSphere.generate(&SuiteConfig::scaled(0.02));
    let path = std::env::temp_dir().join(format!(
        "hyperpraw_lowmem_threaded_pipeline_{}.hgr",
        std::process::id()
    ));
    hmetis::write_hgr_file(&hg, &path).unwrap();

    let p = 8u32;
    let budget = MemoryBudget::bytes(512 << 10);
    let options = StreamOptions {
        buffer_bytes: budget
            .plan(p as usize, hg.num_hyperedges())
            .transpose_buffer_bytes,
        spill_dir: None,
    };
    let mut stream = stream_hgr_file(&path, &options).unwrap();
    let report = PartitionJob::new(Algorithm::LowMemSketched)
        .partitions(p)
        .memory_budget(budget)
        .passes(2)
        .rebuild_sketches(true)
        .threads(4)
        .run_stream(&mut stream)
        .unwrap();

    assert_eq!(report.partition.num_vertices(), hg.num_vertices());
    let stats = report.lowmem.unwrap();
    assert!(stats.passes >= 1 && stats.passes <= 2);
    assert_eq!(report.iterations, stats.passes);
    // The double-buffered index pair still fits the budget.
    assert!(
        stats.index_memory_bytes <= budget.bytes,
        "index pair {} exceeds budget {}",
        stats.index_memory_bytes,
        budget.bytes
    );
    let streamed = evaluate_hgr_file(&path, &report.partition).unwrap();
    let rr = Partition::round_robin(hg.num_vertices(), p);
    assert!(
        streamed.soed < metrics::soed(&hg, &rr),
        "threaded out-of-core SOED {} should beat round robin {}",
        streamed.soed,
        metrics::soed(&hg, &rr)
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn prior_mode_tracks_in_memory_hyperpraw_on_a_single_stream() {
    // With the round-robin prior and the exact index, the streaming
    // partitioner implements the same restreaming semantics as core's
    // first stream; on a general hypergraph the counts differ (nets vs.
    // distinct neighbours) but the outcome must stay in the same quality
    // class as one in-memory stream.
    let hg = PaperInstance::AbacusShellHd.generate(&SuiteConfig::scaled(0.02));
    let p = 6u32;
    let alpha = HyperPrawConfig::fennel_alpha(p, hg.num_vertices(), hg.num_hyperedges());

    let core = PartitionJob::new(Algorithm::HyperPrawBasic)
        .partitions(p)
        .hyperpraw_config(HyperPrawConfig {
            initial_alpha: Some(alpha),
            max_iterations: 1,
            refinement: RefinementPolicy::None,
            imbalance_tolerance: f64::from(u32::MAX),
            ..HyperPrawConfig::default()
        })
        .run(&hg)
        .unwrap();

    let lowmem = PartitionJob::new(Algorithm::LowMemExact)
        .partitions(p)
        .lowmem_config(LowMemConfig {
            index: IndexKind::Exact,
            alpha: Some(alpha),
            round_robin_prior: true,
            ..LowMemConfig::default()
        })
        .run(&hg)
        .unwrap();

    let core_soed = metrics::soed(&hg, &core.partition) as f64;
    let lowmem_soed = metrics::soed(&hg, &lowmem.partition) as f64;
    assert!(
        lowmem_soed <= core_soed * 1.5 + 10.0,
        "lowmem SOED {lowmem_soed} too far from core's single stream {core_soed}"
    );
}
