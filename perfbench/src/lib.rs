//! End-to-end and per-layer benchmark of the HyperPRAW workspace.
//!
//! One binary generates a seeded paper instance, stages it in a per-run
//! directory, drives it through the public API of one layer stack, checks
//! every output and prints the metrics listed in [`metrics`]. See
//! `README.md` beside this crate for the workloads and the metric map.

#![warn(rust_2018_idioms)]

pub mod batch;
pub mod checks;
pub mod metrics;
pub mod serve;
pub mod trace;
pub mod util;

use std::path::Path;

use hyperpraw::hypergraph::generators::suite::{PaperInstance, SuiteConfig};
use hyperpraw::hypergraph::io::hmetis::write_hgr_file;
use hyperpraw::hypergraph::io::stream::StreamOptions;

/// Seed of the simulated machine (link model, profile and cost matrix)
/// wherever the input graphs or the traffic already vary with `--seed`: a
/// machine does not change between runs.
pub const TESTBED_SEED: u64 = 2019;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `2cubes_sphere` stand-in, sequential architecture-aware HyperPRAW.
    CubesSeq,
    /// The same job under the work-stealing execution strategy.
    CubesSteal,
    /// `webbase-1M` stand-in, partitioned out of core from `.hpz`.
    WebLowmem,
    /// A resident serve session under open-loop updates and lookups.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CubesSeq,
        Workload::CubesSteal,
        Workload::WebLowmem,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CubesSeq => "cubes_seq",
            Workload::CubesSteal => "cubes_steal",
            Workload::WebLowmem => "web_lowmem",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and load of one run. [`Sizes::full`] is what the benchmark
/// measures; [`Sizes::smoke`] runs every code path in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Linear scale of the `2cubes_sphere` stand-in.
    pub cubes_scale: f64,
    /// Parts of the `cubes_*` jobs (compute units of the testbed).
    pub cubes_parts: u32,
    /// Linear scale of the `webbase-1M` stand-in.
    pub web_scale: f64,
    /// Parts of the `web_lowmem` job.
    pub web_parts: u32,
    /// Seeded instances `web_lowmem` stages and partitions per run.
    pub web_instances: usize,
    /// Memory budget of the `web_lowmem` job, MiB.
    pub web_budget_mib: usize,
    /// Parts of the serve session.
    pub serve_parts: u32,
    /// Set-ups of `cubes_*` before the measured loop (more follow each
    /// call); `setup_s` is the median of all of them.
    pub setup_reps: usize,
    /// Daemon boots per `serve_mixed` run (each partitions the input).
    pub serve_setup_reps: usize,
    /// Update batches per second sent to the daemon.
    pub update_rate: f64,
    /// Lookups per second sent to the daemon.
    pub lookup_rate: f64,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Self {
        Self {
            cubes_scale: 0.15,
            cubes_parts: 96,
            web_scale: 0.5,
            web_parts: 24,
            web_instances: 5,
            web_budget_mib: 4,
            serve_parts: 24,
            setup_reps: 11,
            serve_setup_reps: 7,
            update_rate: 5.0,
            lookup_rate: 200.0,
        }
    }

    /// Tiny inputs for the smoke test.
    pub fn smoke() -> Self {
        Self {
            cubes_scale: 0.01,
            cubes_parts: 8,
            web_scale: 0.005,
            web_parts: 8,
            web_instances: 2,
            web_budget_mib: 1,
            serve_parts: 8,
            setup_reps: 2,
            serve_setup_reps: 2,
            update_rate: 20.0,
            lookup_rate: 100.0,
        }
    }
}

/// One run's settings, from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// The seed of a run's `k`-th instance (the run seed itself for `k = 0`).
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Stages the inputs of `workload` in `dir`: `input-<k>.hgr` for each
/// instance. Runs in a child process so the measuring process never holds
/// the generator's memory.
pub fn stage(workload: Workload, seed: u64, sizes: &Sizes, dir: &Path) -> std::io::Result<()> {
    let (instance, scale, parts, count) = match workload {
        Workload::WebLowmem => (
            PaperInstance::Webbase1M,
            sizes.web_scale,
            sizes.web_parts,
            sizes.web_instances,
        ),
        _ => (
            PaperInstance::TwoCubesSphere,
            sizes.cubes_scale,
            sizes.cubes_parts,
            1,
        ),
    };
    for k in 0..count {
        let hg = instance.generate(&SuiteConfig {
            scale,
            seed: instance_seed(seed, k),
            min_vertices: 4 * parts as usize,
        });
        write_hgr_file(&hg, dir.join(format!("input-{k}.hgr"))).map_err(std::io::Error::other)?;
    }
    Ok(())
}

/// Converts an `.hgr` file to the block-compressed `.hpz` format with the
/// storage layer's out-of-core converter.
pub fn convert(hgr: &Path, hpz: &Path) -> std::io::Result<()> {
    hyperpraw::storage::convert_file(
        hgr,
        hpz,
        hyperpraw::storage::DEFAULT_BLOCK_TARGET_BYTES,
        &StreamOptions::default(),
    )
    .map(|_| ())
    .map_err(std::io::Error::other)
}
