//! The partitioning workloads: `cubes_seq`, `cubes_steal` and `web_lowmem`.
//!
//! Each run sets up several times (`setup_s` is the median), then calls
//! the partitioner back to back until `--seconds` have passed and reports
//! medians over the calls. `web_lowmem` stages several seeded instances
//! and partitions each at least once: one power-law instance's hubs swing
//! its communication cost too far for a single instance to be steady. A
//! traced run alternates traced calls (live registry, spans) with untraced
//! ones on the same instance, so the two sit side by side and their
//! difference is the tracing overhead.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::core::metrics::partitioning_communication_cost_with;
use hyperpraw::core::ParallelMode;
use hyperpraw::hypergraph::io::hmetis::read_hgr_file;
use hyperpraw::hypergraph::io::stream::{VertexRecord, VertexStream};
use hyperpraw::hypergraph::{AdjacencyBudget, Hypergraph, NeighborAdjacency};
use hyperpraw::lowmem::MemoryBudget;
use hyperpraw::report::PartitionReport;
use hyperpraw::storage::{CompressedReader, ReadMode};
use hyperpraw::telemetry::Registry;
use hyperpraw_bench::{ExperimentConfig, Testbed};

use crate::checks::check_partition;
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::util::{mean, median, nproc, peak_rss_mib, ratio, RunDir, Tally};
use crate::{Config, Workload, TESTBED_SEED};

/// Imbalance tolerance of every partitioning job (the engine's default,
/// set explicitly so the check and the job agree).
pub const TOLERANCE: f64 = 1.1;

/// Untimed set-ups before the timed ones: on a 2-CPU box the first ten or
/// so set-ups of every run were up to 1.4x slower than the rest.
const SETUP_WARMUP: usize = 10;

/// Timed set-ups of `cubes_*` after each partition call (`web_lowmem`
/// converts one instance again).
const SETUP_PER_CALL: usize = 6;

/// What one set-up needs to know.
struct SetupCtx<'a> {
    web: bool,
    parts: u32,
    testbed_seed: u64,
    dir: &'a RunDir,
    tracer: &'a Tracer,
}

/// Set-up samples of one run, in seconds.
#[derive(Default)]
struct SetupLog {
    setup: Vec<f64>,
    read: Vec<f64>,
    convert: Vec<f64>,
    topo: Vec<f64>,
    tally: Tally,
}

impl SetupCtx<'_> {
    /// One set-up of instance `k`: what a user pays before the partition
    /// call. `cubes_*` read the input; `web_lowmem` converts the text input
    /// to `.hpz` out of core (in a child process, so the conversion's
    /// memory stays out of this process's peak) and opens it. Both then
    /// profile the testbed into a cost matrix. Untimed set-ups record
    /// nothing.
    fn set_up(
        &self,
        k: usize,
        rep: usize,
        timed: bool,
        log: &mut SetupLog,
    ) -> (Option<Hypergraph>, Testbed) {
        let tracer = self.tracer;
        let (hgr, hpz) = (input(self.dir, k, "hgr"), input(self.dir, k, "hpz"));
        let ((hg, read_s, convert_s, topo_s, testbed), secs) =
            tracer.time("setup", None, rep as u64, |span| {
                let (hg, read_s, convert_s) = if self.web {
                    let (converted, secs) = tracer.time("storage.convert", span, k as u64, |_| {
                        convert_in_child(&hgr, &hpz)
                    });
                    log.tally.op(converted);
                    let (reader, _) = tracer.time("storage.open", span, k as u64, |_| {
                        CompressedReader::open_file(&hpz)
                    });
                    log.tally.op(reader.map(|_| ()).map_err(|e| e.to_string()));
                    (None, None, Some(secs))
                } else {
                    let (hg, secs) = tracer.time("hypergraph.read_hgr", span, rep as u64, |_| {
                        read_hgr_file(&hgr)
                    });
                    (Some(hg.expect("read the staged .hgr")), Some(secs), None)
                };
                let (testbed, topo_s) =
                    tracer.time("topology.cost_matrix", span, rep as u64, |_| {
                        Testbed::archer(self.parts as usize, 0, self.testbed_seed)
                    });
                (hg, read_s, convert_s, topo_s, testbed)
            });
        if timed {
            log.setup.push(secs);
            log.read.extend(read_s);
            log.convert.extend(convert_s);
            log.topo.push(topo_s);
        }
        (hg, testbed)
    }
}

/// The path of instance `k`'s staged input with extension `ext`.
fn input(dir: &RunDir, k: usize, ext: &str) -> std::path::PathBuf {
    dir.file(&format!("input-{k}.{ext}"))
}

/// One partition call of the measured loop.
struct Call {
    instance: usize,
    traced: bool,
    secs: f64,
    report: PartitionReport,
    registry: Registry,
}

/// Runs one partitioning workload and returns its tally and metrics.
pub fn run(cfg: &Config, dir: &RunDir, tracer: &Tracer) -> (Tally, Values) {
    let sizes = &cfg.sizes;
    let web = cfg.workload == Workload::WebLowmem;
    let (parts, instances) = if web {
        (sizes.web_parts, sizes.web_instances)
    } else {
        (sizes.cubes_parts, 1)
    };
    let hgr = |k: usize| input(dir, k, "hgr");
    let hpz = |k: usize| input(dir, k, "hpz");
    // The `2cubes_sphere` stand-in is a jitter-free mesh, the same graph
    // for every seed, so the seed varies the machine's link noise instead.
    // The web instances vary with the seed; a seeded machine on top of
    // them left `sim_app_ms` too unsteady, so their machine is fixed.
    let testbed_seed = if web { TESTBED_SEED } else { cfg.seed };
    let mut tally = Tally::default();
    let mut values = Values::default();

    // Set-up samples are taken before the loop and again after every call:
    // the box's speed shifts for seconds at a time, and samples spread over
    // the run are steadier than a burst at its start.
    let ctx = SetupCtx {
        web,
        parts,
        testbed_seed,
        dir,
        tracer,
    };
    let mut log = SetupLog::default();
    let (warmup, reps) = if web {
        (0, instances)
    } else {
        (SETUP_WARMUP, sizes.setup_reps)
    };
    let mut loaded = None;
    for rep in 0..warmup + reps {
        loaded = Some(ctx.set_up(rep % instances, rep, rep >= warmup, &mut log));
    }
    let (hg, testbed) = loaded.expect("at least one set-up");
    let mut next_rep = warmup + reps;

    let job = |registry: &Registry| {
        let job = match cfg.workload {
            Workload::CubesSeq => PartitionJob::new(Algorithm::HyperPrawAware),
            Workload::CubesSteal => PartitionJob::new(Algorithm::ParallelAware)
                .threads(nproc())
                .parallel_mode(ParallelMode::WorkStealing),
            _ => PartitionJob::new(Algorithm::LowMemSketched)
                .memory_budget(MemoryBudget::mebibytes(sizes.web_budget_mib))
                .prefetch(true),
        };
        job.cost(testbed.cost.clone())
            .seed(cfg.seed)
            .imbalance_tolerance(TOLERANCE)
            .registry(registry)
    };

    // The measured loop. An untraced run cycles through the instances
    // until the time is up and each has been partitioned; a traced run
    // partitions each instance twice in a row, traced then untraced.
    let untraced_tracer = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut calls: Vec<Call> = Vec::new();
    let mut peak_rss = 0.0;
    for i in 0usize.. {
        let (instance, traced) = if cfg.trace {
            ((i / 2) % instances, i % 2 == 0)
        } else {
            (i % instances, false)
        };
        let registry = if traced {
            Registry::new()
        } else {
            Registry::disabled()
        };
        let job = job(&registry);
        let t = if traced { tracer } else { &untraced_tracer };
        let (result, secs) = t.time("facade.partition", None, 1000 + i as u64, |_| match &hg {
            Some(hg) => job.run(hg),
            None => job.run_compressed_file(hpz(instance)),
        });
        match result {
            Ok(report) => calls.push(Call {
                instance,
                traced,
                secs,
                report,
                registry,
            }),
            Err(e) => tally.op(Err(format!("partition call failed: {e}"))),
        }
        if i == 0 {
            // The peak of one call; later calls' results stay resident.
            peak_rss = peak_rss_mib();
        }
        for _ in 0..if web { 1 } else { SETUP_PER_CALL } {
            ctx.set_up(next_rep % instances, next_rep, true, &mut log);
            next_rep += 1;
        }
        let done = if cfg.trace {
            i % 2 == 1
        } else {
            i + 1 >= instances
        };
        if done && Instant::now() >= deadline {
            break;
        }
    }

    // Check every call against its instance, loaded one at a time. The
    // out-of-core runs never held a graph before this point.
    let bench = testbed.benchmark(&ExperimentConfig::default());
    let mut comm = vec![Vec::new(); instances];
    let mut sim_ms = vec![Vec::new(); instances];
    let mut sim = None;
    let mut probe_graph = None;
    for k in 0..instances {
        if !calls.iter().any(|c| c.instance == k) {
            continue;
        }
        let graph = match &hg {
            Some(hg) => hg.clone(),
            None => {
                let (g, secs) = tracer.time("hypergraph.read_hgr", None, k as u64, |_| {
                    read_hgr_file(hgr(k))
                });
                if k == 0 {
                    log.read = vec![secs];
                }
                g.expect("read the staged .hgr")
            }
        };
        for call in calls.iter().filter(|c| c.instance == k) {
            let checked = check_partition(
                &graph,
                call.report.partition.assignment(),
                parts,
                &testbed.cost,
                TOLERANCE,
                call.report.comm_cost,
            );
            if let Ok(cost) = checked {
                comm[k].push(cost);
                let (result, _) = tracer.time("netsim.run", None, k as u64, |_| {
                    bench.run(&graph, &call.report.partition)
                });
                sim_ms[k].push(result.total_time_us / 1e3);
                sim.get_or_insert(result);
            }
            tally.op(checked.map(|_| ()));
        }
        println!(
            "instance {k}: {} vertices, {} pins, max cardinality {}; partition_s {:?}, comm_cost {:?}, sim_app_ms {:?}",
            graph.num_vertices(),
            graph.num_pins(),
            graph.max_cardinality(),
            calls.iter().filter(|c| c.instance == k).map(|c| c.secs).collect::<Vec<_>>(),
            comm[k],
            sim_ms[k],
        );
        if k == 0 {
            probe_graph = Some(graph);
        }
    }
    tally.merge(std::mem::take(&mut log.tally));
    if calls.is_empty() {
        tally.op(Err("no partition call completed".into()));
        return (tally, values);
    }

    // Each instance is its own input: a metric is its median over the
    // instance's calls, then the mean over the instances.
    let per_instance = |v: &[Vec<f64>]| {
        mean(
            &v.iter()
                .filter(|x| !x.is_empty())
                .map(|x| median(x))
                .collect::<Vec<_>>(),
        )
    };
    let untraced: Vec<f64> = calls.iter().filter(|c| !c.traced).map(|c| c.secs).collect();
    let mut secs = vec![Vec::new(); instances];
    for c in calls.iter().filter(|c| !c.traced) {
        secs[c.instance].push(c.secs);
    }
    values.set("setup_s", median(&log.setup));
    values.set("partition_s", per_instance(&secs));
    values.set("comm_cost", per_instance(&comm));
    values.set("sim_app_ms", per_instance(&sim_ms));
    values.set("peak_rss_mib", peak_rss);
    if !cfg.trace {
        return (tally, values);
    }

    // Per-layer metrics, from the traced calls.
    let traced: Vec<&Call> = calls.iter().filter(|c| c.traced).collect();
    let traced_secs: Vec<f64> = traced.iter().map(|c| c.secs).collect();
    let partition_s = median(&traced_secs);
    println!(
        "side by side: partition_s untraced {:.4} s ({} calls), traced {:.4} s ({} calls)",
        median(&untraced),
        untraced.len(),
        partition_s,
        traced.len()
    );
    values.set("trace.overhead_frac", partition_s / median(&untraced) - 1.0);
    if cfg.workload != Workload::CubesSteal {
        // Deterministic jobs: tracing must not change a single assignment.
        for pair in calls.chunks(2) {
            let first = pair[0].report.partition.assignment();
            let same = pair
                .iter()
                .all(|c| c.report.partition.assignment() == first);
            tally.op(if same {
                Ok(())
            } else {
                Err("traced and untraced assignments differ".into())
            });
        }
    }

    values.set("hypergraph.read_s", median(&log.read));
    values.set("storage.convert_s", median(&log.convert));
    values.set("topology.cost_matrix_s", median(&log.topo));
    let per_call = |f: &dyn Fn(&Call) -> f64| per_call(&traced, f);
    let evaluate_s = per_call(&|c| c.report.timings.evaluate_secs);
    values.set("facade.evaluate_s", evaluate_s);
    let pass_sum = engine_values(&mut values, &traced);
    if let Some(lm) = traced[0].report.lowmem {
        values.set("lowmem.passes", lm.passes as f64);
        values.set("lowmem.index_bytes", lm.index_memory_bytes as f64);
        values.set("lowmem.restreamed", lm.restreamed as f64);
        values.set(
            "lowmem.moved_frac",
            ratio(lm.moved_in_restream as f64, lm.restreamed as f64),
        );
    }
    let counter = |c: &Call, name: &str| c.registry.counter_value(name).unwrap_or(0) as f64;
    values.set(
        "storage.bytes_decoded",
        per_call(&|c| counter(c, "storage.bytes_decoded")),
    );
    values.set(
        "storage.cache_hit_frac",
        per_call(&|c| {
            let hits = counter(c, "storage.cache.hits");
            ratio(hits, hits + counter(c, "storage.cache.misses"))
        }),
    );
    values.set(
        "storage.prefetch_stall_s",
        per_call(&|c| {
            c.registry
                .histogram_snapshot("storage.prefetch.stall_us")
                .map_or(0.0, |h| h.sum as f64 / 1e6)
        }),
    );
    if web {
        let (drained, secs) = tracer.time("storage.decode_pass", None, 0, |_| drain(&hpz(0)));
        if let Err(e) = drained {
            tally.op(Err(format!("decode pass failed: {e}")));
        }
        values.set("storage.decode_pass_s", secs);
    }

    // Standalone layer probes on the first instance.
    let graph = probe_graph.expect("instance 0 was loaded");
    let (adj, adj_s) = tracer.time("hypergraph.adjacency_build", None, 0, |_| {
        NeighborAdjacency::build(&graph, AdjacencyBudget::Auto)
    });
    values.set("hypergraph.adjacency_build_s", adj_s);
    values.set("hypergraph.adjacency_bytes", adj.memory_bytes() as f64);
    values.set("hypergraph.adjacency_hubs", adj.num_hubs() as f64);
    let (_, eval_s) = tracer.time("engine.comm_cost_eval", None, 0, |_| {
        partitioning_communication_cost_with(
            &graph,
            &adj,
            &traced[0].report.partition,
            &testbed.cost,
        )
    });
    values.set("engine.comm_cost_eval_s", eval_s);
    values.set(
        "facade.unattributed_frac",
        1.0 - (pass_sum + adj_s + evaluate_s) / partition_s,
    );
    if let Some(sim) = sim {
        values.set("netsim.remote_bytes", sim.remote_bytes as f64);
        values.set("netsim.remote_messages", sim.remote_messages as f64);
    }
    (tally, values)
}

/// The median of `f` over `calls`.
fn per_call(calls: &[&Call], f: &dyn Fn(&Call) -> f64) -> f64 {
    median(&calls.iter().map(|c| f(c)).collect::<Vec<_>>())
}

/// Sets the `engine.*` metrics from the traced calls' registries and
/// returns the median summed pass time in seconds.
fn engine_values(values: &mut Values, traced: &[&Call]) -> f64 {
    let per_call = |f: &dyn Fn(&Call) -> f64| per_call(traced, f);
    let hist = |c: &Call| c.registry.histogram_snapshot("engine.pass_time_us");
    let counter = |c: &Call, name: &str| c.registry.counter_value(name).unwrap_or(0) as f64;
    let pass_sum = per_call(&|c| hist(c).map_or(0.0, |h| h.sum as f64 / 1e6));
    values.set(
        "engine.passes",
        per_call(&|c| hist(c).map_or(0.0, |h| h.count as f64)),
    );
    values.set("engine.pass_time_sum_s", pass_sum);
    values.set(
        "engine.pass_time_p50_ms",
        per_call(&|c| hist(c).map_or(0.0, |h| h.quantile(0.5) as f64 / 1e3)),
    );
    values.set(
        "engine.vertices_scored",
        per_call(&|c| counter(c, "engine.vertices_scored")),
    );
    values.set(
        "engine.scored_per_s",
        per_call(&|c| {
            ratio(
                counter(c, "engine.vertices_scored"),
                hist(c).map_or(0.0, |h| h.sum as f64 / 1e6),
            )
        }),
    );
    for name in [
        "engine.steal.chunk_claims",
        "engine.steal.batch_applies",
        "engine.hub_fallbacks",
    ] {
        values.set(name, per_call(&|c| counter(c, name)));
    }
    pass_sum
}

/// Converts a staged `.hgr` to `.hpz` with `perfbench convert`, the
/// storage layer's out-of-core converter run in a child process.
fn convert_in_child(hgr: &Path, hpz: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .arg("convert")
        .arg(hgr)
        .arg(hpz)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("converting {} failed: {status}", hgr.display()))
    }
}

/// One prefetching pass over every vertex record of a `.hpz` file.
fn drain(path: &Path) -> Result<usize, String> {
    let reader = CompressedReader::open_file(path).map_err(|e| e.to_string())?;
    let mut stream = reader.stream(ReadMode::Prefetch);
    let mut record = VertexRecord::default();
    let mut pins = 0usize;
    while stream.next_into(&mut record).map_err(|e| e.to_string())? {
        pins += record.nets.len();
    }
    Ok(std::hint::black_box(pins))
}
