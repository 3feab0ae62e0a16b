//! The `serve_mixed` workload: an in-process `hyperpraw serve` daemon with
//! a state directory, holding an architecture-aware session on the staged
//! `2cubes_sphere` stand-in, driven open loop by one writer (update
//! batches) and one reader (lookups) over two connections.
//!
//! Every request is timed from when it was due, so a stall also counts
//! against the requests queued behind it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hyperpraw::api::{Algorithm, PartitionJob};
use hyperpraw::core::metrics::partitioning_communication_cost_with;
use hyperpraw::core::CostMatrix;
use hyperpraw::dynamic::GraphUpdate;
use hyperpraw::hypergraph::io::hmetis::read_hgr_file;
use hyperpraw::hypergraph::{
    AdjacencyBudget, Hypergraph, MutableHypergraph, NeighborAdjacency, Partition,
};
use hyperpraw::json::{self, JsonValue};
use hyperpraw::netsim::{BenchmarkConfig, LinkModel, RingProfiler, SyntheticBenchmark};
use hyperpraw_cli::commands::build_machine;
use hyperpraw_cli::serve::{serve_on, ServeOptions};
use hyperpraw_cli::MachinePreset;

use crate::batch::TOLERANCE;
use crate::checks::{check_assignment, check_imbalance, comm_cost, imbalance};
use crate::metrics::Values;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib, quantile, ratio, RunDir, Tally};
use crate::{Config, TESTBED_SEED};

/// Lookups slower than this miss the service-level objective.
pub const LOOKUP_SLO_MS: f64 = 10.0;

/// Idle round trips measured before the writer starts.
const IDLE_LOOKUPS: usize = 200;

/// A deterministic PRNG (SplitMix64) for the load generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One NDJSON connection to the daemon.
struct Conn {
    out: TcpStream,
    input: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Self> {
        let out = TcpStream::connect(addr)?;
        out.set_nodelay(true)?;
        let input = BufReader::new(out.try_clone()?);
        Ok(Self { out, input })
    }

    /// Sends one request and returns the parsed response, or why the
    /// request failed (transport error, unparsable line, `"ok": false`).
    fn call(&mut self, line: &str) -> Result<JsonValue, String> {
        writeln!(self.out, "{line}").map_err(|e| e.to_string())?;
        self.out.flush().map_err(|e| e.to_string())?;
        self.read()
    }

    fn read(&mut self) -> Result<JsonValue, String> {
        let mut response = String::new();
        self.input
            .read_line(&mut response)
            .map_err(|e| e.to_string())?;
        let value =
            json::parse(response.trim()).map_err(|e| format!("bad response: {}", e.message))?;
        match value.get("ok").and_then(JsonValue::as_bool) {
            Some(true) => Ok(value),
            _ => Err(format!("request refused: {}", response.trim())),
        }
    }
}

/// A daemon running on its own thread.
struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<Result<(), String>>,
}

impl Daemon {
    fn boot(state_dir: std::path::PathBuf) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let opts = ServeOptions {
            state_dir: Some(state_dir),
            read_timeout_secs: 1,
            ..ServeOptions::default()
        };
        let thread =
            std::thread::spawn(move || serve_on(listener, &opts).map_err(|e| e.to_string()));
        Ok(Self { addr, thread })
    }

    /// Sends `shutdown` and waits for the daemon thread to end.
    fn stop(self) -> Result<(), String> {
        let reply = Conn::open(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call("{\"op\": \"shutdown\"}"));
        let joined = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())
            .and_then(|r| r);
        reply.and(joined)
    }
}

/// The update batches of one run and the ids they create, generated
/// before they are sent so the reference graph can replay them.
struct Batches {
    rng: Rng,
    base_vertices: usize,
    next_vertex: u32,
    added_pins: std::collections::VecDeque<(u32, u32)>,
}

impl Batches {
    fn new(seed: u64, hg: &Hypergraph) -> Self {
        Self {
            rng: Rng(seed ^ 0x5EED_BA7C),
            base_vertices: hg.num_vertices(),
            next_vertex: hg.num_vertices() as u32,
            added_pins: Default::default(),
        }
    }

    /// One AMR-like batch around a random region: five new vertices each
    /// wired into a new hyperedge over nearby ids, ten pins added to
    /// hyperedges of the region, and up to ten earlier additions removed.
    fn next(&mut self) -> Vec<GraphUpdate> {
        const WINDOW: usize = 64;
        let n = self.base_vertices;
        let center = self.rng.below(n.saturating_sub(WINDOW).max(1));
        let near = |rng: &mut Rng| (center + rng.below(WINDOW.min(n))) as u32;
        let mut batch = Vec::with_capacity(32);
        for _ in 0..5 {
            batch.push(GraphUpdate::AddVertex { weight: 1.0 });
            let v = self.next_vertex;
            self.next_vertex += 1;
            let pins = vec![
                v,
                near(&mut self.rng),
                near(&mut self.rng),
                near(&mut self.rng),
            ];
            batch.push(GraphUpdate::AddHyperedge { pins, weight: 1.0 });
        }
        for _ in 0..10 {
            // Row-net meshes number hyperedge i after vertex i, so edge
            // ids near the centre are local too.
            let edge = near(&mut self.rng);
            let vertex = near(&mut self.rng);
            batch.push(GraphUpdate::AddPin { edge, vertex });
            self.added_pins.push_back((edge, vertex));
        }
        for _ in 0..10 {
            if self.added_pins.len() <= 10 {
                break;
            }
            let (edge, vertex) = self.added_pins.pop_front().expect("non-empty");
            batch.push(GraphUpdate::RemovePin { edge, vertex });
        }
        batch
    }
}

/// The `update` request line for `batch`.
fn update_line(batch: &[GraphUpdate]) -> String {
    let ops: Vec<String> = batch
        .iter()
        .map(|u| match u {
            GraphUpdate::AddVertex { weight } => {
                format!("{{\"op\": \"add_vertex\", \"weight\": {weight}}}")
            }
            GraphUpdate::AddHyperedge { pins, weight } => {
                format!("{{\"op\": \"add_edge\", \"pins\": {pins:?}, \"weight\": {weight}}}")
            }
            GraphUpdate::AddPin { edge, vertex } => {
                format!("{{\"op\": \"add_pin\", \"edge\": {edge}, \"vertex\": {vertex}}}")
            }
            GraphUpdate::RemovePin { edge, vertex } => {
                format!("{{\"op\": \"remove_pin\", \"edge\": {edge}, \"vertex\": {vertex}}}")
            }
            other => unreachable!("the generator never emits {other:?}"),
        })
        .collect();
    format!("{{\"op\": \"update\", \"updates\": [{}]}}", ops.join(", "))
}

/// Applies `batch` to the reference graph, as the daemon's session does.
fn apply(graph: &mut MutableHypergraph, batch: &[GraphUpdate]) -> Result<(), String> {
    for u in batch {
        let r = match u {
            GraphUpdate::AddVertex { weight } => {
                graph.add_vertex(*weight);
                Ok(())
            }
            GraphUpdate::AddHyperedge { pins, weight } => graph
                .add_hyperedge(pins.iter().copied(), *weight)
                .map(|_| ()),
            GraphUpdate::AddPin { edge, vertex } => graph.add_pin(*edge, *vertex).map(|_| ()),
            GraphUpdate::RemovePin { edge, vertex } => graph.remove_pin(*edge, *vertex).map(|_| ()),
            other => unreachable!("the generator never emits {other:?}"),
        };
        r.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The cost matrix and link model the daemon derives for its `"machine":
/// "archer"` sessions: the ARCHER-like machine, ring-profiled with the
/// session seed.
fn archer_profile(parts: usize, seed: u64) -> (LinkModel, CostMatrix) {
    let link = LinkModel::from_machine(&build_machine(MachinePreset::Archer, parts), 0.05, seed);
    let bandwidth = RingProfiler {
        seed,
        ..RingProfiler::default()
    }
    .profile(&link);
    (link, CostMatrix::from_bandwidth(&bandwidth))
}

/// Client-side timings of one open-loop stream.
#[derive(Default)]
struct StreamLog {
    /// Due-to-response latency, ms.
    latency_ms: Vec<f64>,
    /// Send-to-response round trip, ms.
    rtt_ms: Vec<f64>,
    /// How late each request was sent, ms.
    late_ms: Vec<f64>,
    tally: Tally,
}

/// When an open-loop stream sends: `rate` requests per second from
/// `start` until `end`.
#[derive(Clone, Copy)]
struct Schedule {
    rate: f64,
    start: Instant,
    end: Instant,
}

/// Sends requests on `schedule`, timing each from when it was due.
/// `request(i)` gives the i-th line; `check` validates its response.
fn open_loop(
    conn: &mut Conn,
    schedule: Schedule,
    tracer: &Tracer,
    name: &str,
    mut request: impl FnMut(usize) -> String,
    mut check: impl FnMut(usize, &JsonValue) -> Result<(), String>,
) -> StreamLog {
    let mut log = StreamLog::default();
    for i in 0.. {
        let due = schedule.start + Duration::from_secs_f64(i as f64 / schedule.rate);
        if due >= schedule.end {
            break;
        }
        let line = request(i);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let (reply, _) = tracer.time(name, None, i as u64, |_| conn.call(&line));
        let done = Instant::now();
        log.latency_ms
            .push(done.duration_since(due).as_secs_f64() * 1e3);
        log.rtt_ms
            .push(done.duration_since(sent).as_secs_f64() * 1e3);
        log.late_ms
            .push(sent.duration_since(due).as_secs_f64() * 1e3);
        let checked = reply.and_then(|r| check(i, &r));
        if checked.is_err() {
            // A failed request misses every latency limit.
            *log.latency_ms.last_mut().expect("just pushed") = f64::INFINITY;
        }
        log.tally.op(checked);
    }
    log
}

/// A histogram's quantile (`p50`, `p99`) or `sum`/`count` from a `metrics`
/// op response, 0 when the daemon has not registered it.
fn hist(metrics: &JsonValue, name: &str, key: &str) -> f64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn counter(metrics: &JsonValue, name: &str) -> f64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

fn scrape(conn: &mut Conn) -> Result<JsonValue, String> {
    let reply = conn.call("{\"op\": \"metrics\"}")?;
    reply
        .get("metrics")
        .cloned()
        .ok_or_else(|| "metrics reply without metrics".to_string())
}

/// Runs the workload and returns its tally and metrics.
pub fn run(cfg: &Config, dir: &RunDir, tracer: &Tracer) -> (Tally, Values) {
    let sizes = &cfg.sizes;
    let parts = sizes.serve_parts;
    let hgr = dir.file("input-0.hgr");
    let mut tally = Tally::default();
    let mut values = Values::default();
    let partition_line = format!(
        "{{\"op\": \"partition\", \"path\": {}, \"parts\": {parts}, \"algorithm\": \"{}\", \
         \"machine\": \"archer\", \"seed\": {}}}",
        crate::util::json_str(&hgr.to_string_lossy()),
        Algorithm::HyperPrawAware.name(),
        TESTBED_SEED
    );

    // Set-up: daemon boot until the first `partition` is acknowledged
    // (its snapshot written to the state directory). The first boot serves
    // the load; the others run after it, so the memory peak covers one
    // daemon, and only add set-up samples.
    let boot = |rep: usize| {
        let state = dir.file(&format!("state-{rep}"));
        let (booted, secs) = tracer.time("setup", None, rep as u64, |span| -> Result<_, String> {
            std::fs::create_dir(&state).map_err(|e| e.to_string())?;
            let d = Daemon::boot(state).map_err(|e| e.to_string())?;
            let mut conn = Conn::open(d.addr).map_err(|e| e.to_string())?;
            let (reply, rtt) = tracer.time("serve.partition", span, rep as u64, |_| {
                conn.call(&partition_line)
            });
            match reply {
                Ok(reply) => Ok((d, conn, reply, rtt)),
                Err(e) => {
                    drop(conn);
                    let _ = d.stop();
                    Err(e)
                }
            }
        });
        booted
            .map(|(d, conn, reply, rtt)| (d, conn, reply, secs, rtt))
            .map_err(|e| format!("boot {rep}: {e}"))
    };
    let (daemon, mut conn, initial, setup0, rtt0) = match boot(0) {
        Ok(b) => b,
        Err(e) => {
            tally.op(Err(e));
            return (tally, values);
        }
    };
    tally.op(Ok(()));
    let mut setup = vec![setup0];
    let mut partition_rtt = vec![rtt0];
    let report = initial.get("report");
    let num =
        |v: Option<&JsonValue>, key: &str| v.and_then(|r| r.get(key)).and_then(JsonValue::as_f64);
    let metrics0 = report.and_then(|r| r.get("metrics"));
    tally.op(check_imbalance(
        num(metrics0, "imbalance").unwrap_or(f64::INFINITY),
        TOLERANCE,
    ));
    let evaluate_s = num(report.and_then(|r| r.get("telemetry")), "evaluate_secs").unwrap_or(0.0);
    let after_partition = scrape(&mut conn);

    // The reference graph: the staged input plus every acknowledged batch.
    let (hg, read_s) = tracer.time("hypergraph.read_hgr", None, 0, |_| read_hgr_file(&hgr));
    let hg = hg.expect("read the staged .hgr");
    let n0 = hg.num_vertices();

    // Idle round trips, before any write traffic.
    let mut rng = Rng(cfg.seed ^ 0x100C_0B5E);
    let mut idle_us = Vec::with_capacity(IDLE_LOOKUPS);
    for i in 0..IDLE_LOOKUPS {
        let line = format!("{{\"op\": \"lookup\", \"vertex\": {}}}", rng.below(n0));
        let (reply, secs) = tracer.time("serve.lookup_idle", None, i as u64, |_| conn.call(&line));
        tally.op(reply.map(|_| ()));
        idle_us.push(secs * 1e6);
    }

    // The open-loop load: one writer, one reader.
    let mut gen = Batches::new(cfg.seed, &hg);
    let batches_due = (cfg.seconds * sizes.update_rate).ceil() as usize;
    let batches: Vec<Vec<GraphUpdate>> = (0..batches_due).map(|_| gen.next()).collect();
    let expected_ids: Vec<Vec<u64>> = {
        let mut next = n0 as u64;
        batches
            .iter()
            .map(|b| {
                let k = b
                    .iter()
                    .filter(|u| matches!(u, GraphUpdate::AddVertex { .. }))
                    .count() as u64;
                next += k;
                (next - k..next).collect()
            })
            .collect()
    };
    let lines: Vec<String> = batches.iter().map(|b| update_line(b)).collect();
    let start = Instant::now() + Duration::from_millis(50);
    let end = start + Duration::from_secs_f64(cfg.seconds);
    drop(conn);
    let mut rebuilt = 0usize;
    let addr = daemon.addr;
    let (writes, reads) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = Conn::open(addr).expect("connect the writer");
            open_loop(
                &mut w,
                Schedule {
                    rate: sizes.update_rate,
                    start,
                    end,
                },
                tracer,
                "serve.update",
                |i| lines[i.min(lines.len() - 1)].clone(),
                |i, r| {
                    let update = r.get("update").and_then(|u| u.get("update"));
                    if update
                        .and_then(|u| u.get("rebuilt_adjacency"))
                        .and_then(JsonValue::as_bool)
                        == Some(true)
                    {
                        rebuilt += 1;
                    }
                    let ids: Option<Vec<u64>> = update
                        .and_then(|u| u.get("new_vertices"))
                        .and_then(JsonValue::as_array)
                        .map(|a| a.iter().filter_map(JsonValue::as_u64).collect());
                    if ids.as_ref() == expected_ids.get(i) {
                        Ok(())
                    } else {
                        Err(format!(
                            "batch {i}: new vertex ids {ids:?}, expected {:?}",
                            expected_ids.get(i)
                        ))
                    }
                },
            )
        });
        let reader = s.spawn(|| {
            let mut r = Conn::open(addr).expect("connect the reader");
            let mut rng = Rng(cfg.seed ^ 0x0010_0C0B);
            let due = (cfg.seconds * sizes.lookup_rate).ceil() as usize;
            let asked: Vec<u64> = (0..due).map(|_| rng.below(n0) as u64).collect();
            open_loop(
                &mut r,
                Schedule {
                    rate: sizes.lookup_rate,
                    start,
                    end,
                },
                tracer,
                "serve.lookup",
                |i| {
                    format!(
                        "{{\"op\": \"lookup\", \"vertex\": {}}}",
                        asked[i.min(due - 1)]
                    )
                },
                |i, reply| {
                    let vertex = reply.get("vertex").and_then(JsonValue::as_u64);
                    let part = reply.get("part").and_then(JsonValue::as_u64);
                    match (vertex, part) {
                        (Some(v), Some(p)) if Some(&v) == asked.get(i) && p < u64::from(parts) => {
                            Ok(())
                        }
                        _ => Err(format!("lookup {i}: bad answer {vertex:?} -> {part:?}")),
                    }
                },
            )
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let peak_rss = peak_rss_mib();
    let sent = writes.latency_ms.len();
    // The daemon drops connections that stay silent for a few seconds, as
    // the set-up connection did during the load: open a fresh one.
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.op(Err(format!("reconnect after the load: {e}")));
            return (tally, values);
        }
    };

    // The final state: the daemon's report and its whole assignment.
    let final_metrics = scrape(&mut conn);
    let final_report = conn.call("{\"op\": \"report\"}");
    let mut reference = MutableHypergraph::from_hypergraph(&hg);
    for batch in &batches[..sent] {
        if let Err(e) = apply(&mut reference, batch) {
            tally.op(Err(format!("reference graph rejected a batch: {e}")));
        }
    }
    let final_hg = reference.to_hypergraph();
    let assignment = sweep(&mut conn, final_hg.num_vertices());
    let ((link, cost), topo_s) = tracer.time("topology.cost_matrix", None, 0, |_| {
        archer_profile(parts as usize, TESTBED_SEED)
    });
    let reported = final_report
        .as_ref()
        .ok()
        .and_then(|r| num(r.get("report").and_then(|r| r.get("metrics")), "comm_cost"));
    let checked = assignment.and_then(|a| {
        check_assignment(&a, final_hg.num_vertices(), parts)?;
        let recomputed = comm_cost(&final_hg, &a, parts, &cost);
        match reported {
            Some(r) if r == recomputed => Ok((a, recomputed)),
            _ => Err(format!(
                "reported final comm cost {reported:?} differs from the recomputed {recomputed}"
            )),
        }
    });
    tally.op(checked.as_ref().map(|_| ()).map_err(Clone::clone));
    tally.merge(writes.tally);
    tally.merge(reads.tally);
    let Ok((assignment, final_cost)) = checked else {
        let _ = daemon.stop();
        return (tally, values);
    };
    let partition = Partition::from_assignment(assignment, parts).expect("checked in range");
    let bench = SyntheticBenchmark::new(link, BenchmarkConfig::default());
    let (sim, _) = tracer.time("netsim.run", None, 0, |_| bench.run(&final_hg, &partition));

    values.set("comm_cost", final_cost);
    values.set("sim_app_ms", sim.total_time_us / 1e3);
    values.set("peak_rss_mib", peak_rss);
    let imbalance_now = imbalance(partition.assignment(), parts, |v| {
        final_hg.vertex_weight(v as u32)
    });
    println!(
        "serve_mixed: {sent} update batches at {}/s, {} lookups at {}/s; update p50 {:.2} ms p90 {:.2} ms, \
         lookup p50 {:.3} ms p99 {:.3} ms; final imbalance {imbalance_now:.4}; \
         first partition op {rtt0:.3} s over {} passes",
        sizes.update_rate,
        reads.latency_ms.len(),
        sizes.lookup_rate,
        quantile(&writes.latency_ms, 0.5),
        quantile(&writes.latency_ms, 0.9),
        quantile(&reads.latency_ms, 0.5),
        quantile(&reads.latency_ms, 0.99),
        after_partition.as_ref().map_or(0.0, |m| hist(m, "engine.pass_time_us", "count")),
    );

    if cfg.trace {
        let lookup_p99 = quantile(&reads.latency_ms, 0.99);
        values.set("serve.update_p50_ms", quantile(&writes.latency_ms, 0.5));
        values.set("serve.update_p90_ms", quantile(&writes.latency_ms, 0.9));
        values.set("serve.lookup_p50_ms", quantile(&reads.latency_ms, 0.5));
        values.set("serve.lookup_p99_ms", lookup_p99);
        let misses = reads
            .latency_ms
            .iter()
            .filter(|&&ms| ms > LOOKUP_SLO_MS)
            .count();
        values.set(
            "serve.lookup_slo_miss_frac",
            ratio(misses as f64, reads.latency_ms.len() as f64),
        );
        let idle_p50_us = median(&idle_us);
        values.set("serve.lookup_idle_rtt_p50_us", idle_p50_us);
        values.set(
            "serve.lookup_lock_wait_p99_ms",
            quantile(&reads.rtt_ms, 0.99) - idle_p50_us / 1e3,
        );
        let late: Vec<f64> = writes
            .late_ms
            .iter()
            .chain(&reads.late_ms)
            .copied()
            .collect();
        values.set("gen.late_p99_ms", quantile(&late, 0.99));
        values.set("hypergraph.read_s", read_s);
        values.set("topology.cost_matrix_s", topo_s);
        values.set("facade.evaluate_s", evaluate_s);
        values.set("dynamic.rebuilt_adjacency_count", rebuilt as f64);
        values.set("netsim.remote_bytes", sim.remote_bytes as f64);
        values.set("netsim.remote_messages", sim.remote_messages as f64);

        let (adj, adj_s) = tracer.time("hypergraph.adjacency_build", None, 0, |_| {
            NeighborAdjacency::build(&hg, AdjacencyBudget::Auto)
        });
        values.set("hypergraph.adjacency_build_s", adj_s);
        values.set("hypergraph.adjacency_bytes", adj.memory_bytes() as f64);
        values.set("hypergraph.adjacency_hubs", adj.num_hubs() as f64);
        let final_adj = NeighborAdjacency::build(&final_hg, AdjacencyBudget::Auto);
        let (_, eval_s) = tracer.time("engine.comm_cost_eval", None, 0, |_| {
            partitioning_communication_cost_with(&final_hg, &final_adj, &partition, &cost)
        });
        values.set("engine.comm_cost_eval_s", eval_s);

        match (&after_partition, &final_metrics) {
            (Ok(m0), Ok(m)) => {
                let passes0 = hist(m0, "engine.pass_time_us", "count");
                let pass_sum0 = hist(m0, "engine.pass_time_us", "sum") / 1e6;
                values.set(
                    "facade.unattributed_frac",
                    1.0 - (pass_sum0 + adj_s + evaluate_s) / rtt0,
                );
                serve_registry_values(&mut values, m, passes0, sent);
            }
            (Err(e), _) | (_, Err(e)) => tally.op(Err(format!("metrics scrape failed: {e}"))),
        }

        // Benchmark-side tracing cost: the spans recorded during the load,
        // priced by timing the same number of empty spans.
        let probe = Tracer::new(true);
        let n_spans = writes.rtt_ms.len() + reads.rtt_ms.len();
        let (_, span_s) = Tracer::new(false).time("probe", None, 0, |_| {
            for i in 0..n_spans {
                probe.time("probe", None, i as u64, |_| ());
            }
        });
        values.set("trace.overhead_frac", span_s / cfg.seconds);

        // A replica session fed the same batches in-process: the dynamic
        // layer's own update time, and a cross-check of the daemon.
        let replica = replica(&hg, parts, TESTBED_SEED, &cost, &batches[..sent], tracer);
        match replica {
            Ok((update_ms, replica_assignment)) => {
                values.set("dynamic.update_p50_ms", median(&update_ms));
                tally.op(if replica_assignment == partition.assignment() {
                    Ok(())
                } else {
                    Err("the in-process replica's assignment differs from the daemon's".into())
                });
            }
            Err(e) => tally.op(Err(e)),
        }
    }
    drop(conn);
    tally.op(daemon.stop());
    for rep in 1..sizes.serve_setup_reps {
        let booted = boot(rep).and_then(|(d, conn, _, secs, rtt)| {
            setup.push(secs);
            partition_rtt.push(rtt);
            drop(conn);
            d.stop()
        });
        tally.op(booted);
    }
    values.set("setup_s", median(&setup));
    values.set("partition_s", median(&partition_rtt));
    (tally, values)
}

/// Looks up every vertex over one connection, pipelined, and returns the
/// daemon's whole assignment.
fn sweep(conn: &mut Conn, n: usize) -> Result<Vec<u32>, String> {
    let mut assignment = Vec::with_capacity(n);
    for chunk in (0..n).collect::<Vec<_>>().chunks(256) {
        let mut lines = String::new();
        for v in chunk {
            lines.push_str(&format!("{{\"op\": \"lookup\", \"vertex\": {v}}}\n"));
        }
        conn.out
            .write_all(lines.as_bytes())
            .map_err(|e| e.to_string())?;
        conn.out.flush().map_err(|e| e.to_string())?;
        for &v in chunk {
            let reply = conn.read()?;
            let got = reply.get("vertex").and_then(JsonValue::as_u64);
            let part = reply.get("part").and_then(JsonValue::as_u64);
            match (got, part) {
                (Some(g), Some(p)) if g == v as u64 && p <= u64::from(u32::MAX) => {
                    assignment.push(p as u32)
                }
                _ => return Err(format!("sweep: bad answer for vertex {v}")),
            }
        }
    }
    Ok(assignment)
}

/// Sets the per-layer metrics read from the daemon's registry.
/// `passes0` is the engine pass count after the initial partition.
fn serve_registry_values(values: &mut Values, m: &JsonValue, passes0: f64, updates: usize) {
    values.set(
        "serve.update_handle_p50_ms",
        hist(m, "serve.request.update_us", "p50") / 1e3,
    );
    values.set(
        "serve.lookup_handle_p50_us",
        hist(m, "serve.request.lookup_us", "p50"),
    );
    values.set(
        "serve.queue_wait_p99_us",
        hist(m, "serve.queue.wait_us", "p99"),
    );
    values.set(
        "dynamic.dirty_set_p50",
        hist(m, "dynamic.dirty_set_size", "p50"),
    );
    values.set(
        "dynamic.migrated_frac",
        ratio(
            counter(m, "dynamic.migrated_vertices"),
            hist(m, "dynamic.dirty_set_size", "sum"),
        ),
    );
    let passes = hist(m, "engine.pass_time_us", "count");
    values.set(
        "dynamic.passes_per_update",
        ratio(passes - passes0, updates as f64),
    );
    values.set(
        "dynamic.journal_fsync_p50_us",
        hist(m, "dynamic.journal.fsync_us", "p50"),
    );
    values.set(
        "dynamic.snapshot_fold_p50_ms",
        hist(m, "dynamic.snapshot.fold_us", "p50") / 1e3,
    );
    let pass_sum = hist(m, "engine.pass_time_us", "sum") / 1e6;
    values.set("engine.passes", passes);
    values.set("engine.pass_time_sum_s", pass_sum);
    values.set(
        "engine.pass_time_p50_ms",
        hist(m, "engine.pass_time_us", "p50") / 1e3,
    );
    let scored = counter(m, "engine.vertices_scored");
    values.set("engine.vertices_scored", scored);
    values.set("engine.scored_per_s", ratio(scored, pass_sum));
    for name in [
        "engine.steal.chunk_claims",
        "engine.steal.batch_applies",
        "engine.hub_fallbacks",
    ] {
        values.set(name, counter(m, name));
    }
}

/// Replays `batches` through an in-process session built like the
/// daemon's and returns each update's time (ms) and the final assignment.
fn replica(
    hg: &Hypergraph,
    parts: u32,
    seed: u64,
    cost: &CostMatrix,
    batches: &[Vec<GraphUpdate>],
    tracer: &Tracer,
) -> Result<(Vec<f64>, Vec<u32>), String> {
    let job = PartitionJob::new(Algorithm::HyperPrawAware)
        .partitions(parts)
        .seed(seed)
        .cost(cost.clone());
    let mut session = job.run_dynamic(hg).map_err(|e| format!("replica: {e}"))?;
    let mut update_ms = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let (result, secs) =
            tracer.time("dynamic.update", None, i as u64, |_| session.update(batch));
        result.map_err(|e| format!("replica update {i}: {e}"))?;
        update_ms.push(secs * 1e3);
    }
    Ok((update_ms, session.partition().assignment().to_vec()))
}
