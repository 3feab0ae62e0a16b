//! Implementations of the `hyperpraw` subcommands.
//!
//! Both partitioning subcommands (`partition`, `lowmem`) dispatch through
//! the facade's unified [`PartitionJob`] API — the CLI contains no
//! per-driver wiring of its own — and can emit the common
//! [`hyperpraw::report::PartitionReport`] as JSON (`--json` /
//! `--json-out`).

use std::fmt;
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use hyperpraw::api::{Algorithm, PartitionError, PartitionJob};
use hyperpraw::core::metrics::QualityReport;
use hyperpraw::core::CostMatrix;
use hyperpraw::hypergraph::generators::{mesh_hypergraph, MeshConfig};
use hyperpraw::hypergraph::io::stream::{
    read_hgr_header, stream_edgelist_file, stream_hgr_file, StreamOptions, VertexStream,
};
use hyperpraw::hypergraph::io::{edgelist, hmetis, matrix_market, IoError};
use hyperpraw::hypergraph::{Hypergraph, HypergraphStats, Partition};
use hyperpraw::lowmem::{quality, MemoryBudget};
use hyperpraw::netsim::{BenchmarkConfig, LinkModel, RingProfiler, SyntheticBenchmark};
use hyperpraw::report::PartitionReport;
use hyperpraw::storage;
use hyperpraw::telemetry;
use hyperpraw::topology::MachineModel;

use crate::args::{Cli, Command, JobArgs, LowMemArgs, MachinePreset, StreamFormat};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CommandError {
    /// Problem reading or parsing an input file.
    Io(String),
    /// Problem with the provided inputs (sizes, ids, ...).
    Invalid(String),
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(m) | Self::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<IoError> for CommandError {
    fn from(e: IoError) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<PartitionError> for CommandError {
    fn from(e: PartitionError) -> Self {
        match e {
            PartitionError::Io(m) => Self::Io(m),
            other => Self::Invalid(other.to_string()),
        }
    }
}

/// A file created exclusively under a fresh name and removed when the
/// guard drops — so a scratch file never clobbers another run's and never
/// outlives the command, whichever way it exits.
#[derive(Debug)]
struct TempFile(PathBuf);

impl TempFile {
    /// Creates an empty `{prefix}-{pid}-{n}.{ext}` file in `dir`, where `n`
    /// counts up past names already taken.
    fn create(dir: &Path, prefix: &str, ext: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("{prefix}-{}-{n}.{ext}", std::process::id()));
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(_) => return Ok(Self(path)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        fs::remove_file(&self.0).ok();
    }
}

/// Converts an `.hgr` / edge-list `input` into a temporary `.hpz` in `dir`;
/// the file is gone again once the returned guard drops, or at once when
/// the conversion fails.
fn convert_to_temp_hpz(
    input: &Path,
    dir: &Path,
    options: &StreamOptions,
) -> Result<TempFile, CommandError> {
    let hpz = TempFile::create(dir, "hyperpraw-lowmem", "hpz")?;
    storage::convert_file(
        input,
        hpz.path(),
        storage::DEFAULT_BLOCK_TARGET_BYTES,
        options,
    )?;
    Ok(hpz)
}

/// The lower-cased extension of `path`; empty when it has none.
fn extension(path: &Path) -> String {
    path.extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase()
}

/// Loads a hypergraph, dispatching on the file extension: `.hgr` (hMetis),
/// `.mtx` (MatrixMarket row-net model), anything else as an edge list.
pub fn load_hypergraph(path: &Path) -> Result<Hypergraph, CommandError> {
    let hg = match extension(path).as_str() {
        "hgr" => hmetis::read_hgr_file(path)?,
        "mtx" => matrix_market::read_mtx_file(path, matrix_market::SparseMatrixModel::RowNet)?,
        _ => edgelist::read_edgelist_file(path)?,
    };
    Ok(hg)
}

/// Builds the machine preset at the requested size.
pub fn build_machine(preset: MachinePreset, procs: usize) -> MachineModel {
    match preset {
        MachinePreset::Archer => MachineModel::archer_like(procs),
        MachinePreset::Cluster => MachineModel::dual_socket_cluster(procs, 12),
        MachinePreset::Cloud => MachineModel::cloud_like(procs, 8),
        MachinePreset::Flat => MachineModel::flat(procs, 1_000.0, 1.5),
    }
}

/// Profiles a machine preset: link model plus measured bandwidth/cost.
pub(crate) fn profile(preset: MachinePreset, procs: usize, seed: u64) -> (LinkModel, CostMatrix) {
    let machine = build_machine(preset, procs);
    let link = LinkModel::from_machine(&machine, 0.05, seed);
    let bandwidth = RingProfiler {
        seed,
        ..RingProfiler::default()
    }
    .profile(&link);
    (link, CostMatrix::from_bandwidth(&bandwidth))
}

/// Reads an assignment file: one partition id per line, `#` comments.
pub fn read_assignment(path: &Path, num_vertices: usize) -> Result<Partition, CommandError> {
    let text = fs::read_to_string(path)?;
    let mut assignment = Vec::with_capacity(num_vertices);
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let part: u32 = t.parse().map_err(|_| {
            CommandError::Invalid(format!(
                "assignment line {}: '{t}' is not a partition id",
                i + 1
            ))
        })?;
        assignment.push(part);
    }
    if assignment.len() != num_vertices {
        return Err(CommandError::Invalid(format!(
            "assignment has {} entries but the hypergraph has {num_vertices} vertices",
            assignment.len()
        )));
    }
    let parts = assignment.iter().copied().max().unwrap_or(0) + 1;
    Partition::from_assignment(assignment, parts).map_err(|e| CommandError::Invalid(e.to_string()))
}

/// Writes an assignment file (one partition id per line).
pub fn write_assignment(path: &Path, partition: &Partition) -> Result<(), CommandError> {
    let mut out = String::with_capacity(partition.num_vertices() * 3);
    out.push_str(&format!(
        "# hyperpraw assignment: {} vertices, {} parts\n",
        partition.num_vertices(),
        partition.num_parts()
    ));
    for &p in partition.assignment() {
        out.push_str(&p.to_string());
        out.push('\n');
    }
    fs::write(path, out)?;
    Ok(())
}

/// The shared tail of `partition` and `lowmem`: profiles the machine into
/// a cost matrix, finishes configuring `job` from the shared arguments and
/// lets `run` produce the report and its text-summary header. Then prints
/// the report (JSON with `--json`, the text summary otherwise) and writes
/// the requested JSON report, assignment and telemetry files.
fn run_job(
    args: &JobArgs,
    job: PartitionJob,
    run: impl FnOnce(
        &PartitionJob,
        &telemetry::Registry,
    ) -> Result<(PartitionReport, String), CommandError>,
) -> Result<(), CommandError> {
    if args.parts < 2 {
        return Err(CommandError::Invalid("--parts must be at least 2".into()));
    }
    let (_, cost) = profile(args.machine, args.parts as usize, args.seed);
    let metrics = telemetry::Registry::new();
    let mut job = job
        .partitions(args.parts)
        .cost(cost)
        .seed(args.seed)
        .registry(&metrics);
    if let Some(t) = args.threads {
        if !job.algorithm().supports_threads() {
            return Err(CommandError::Invalid(format!(
                "--threads does not apply to {}; pick a parallel or lowmem algorithm",
                job.algorithm().name()
            )));
        }
        job = job.threads(t);
    }
    let (report, header) = run(&job, &metrics)?;
    if args.json {
        println!("{}", report.to_json());
    } else {
        println!("{header}");
        print!("{}", report.text_summary());
    }
    let note = |label: &str, path: &Path| {
        if !args.json {
            println!("{label:<17}: {}", path.display());
        }
    };
    if let Some(path) = &args.json_out {
        fs::write(path, report.to_json() + "\n")?;
        note("json report", path);
    }
    if let Some(path) = &args.output {
        write_assignment(path, &report.partition)?;
        note("assignment", path);
    }
    if let Some(path) = &args.metrics_out {
        fs::write(path, metrics.render_json())?;
        note("metrics", path);
    }
    Ok(())
}

/// Back-fills the cut metrics of a streamed run's report by streaming the
/// edge-major input file once more.
fn attach_streamed_quality(
    report: &mut PartitionReport,
    input: &Path,
    is_hgr: bool,
) -> Result<(), CommandError> {
    let streamed = if is_hgr {
        quality::evaluate_hgr_file(input, &report.partition)?
    } else {
        quality::evaluate_edgelist_file(input, &report.partition)?
    };
    report.attach_streamed_quality(&streamed);
    Ok(())
}

/// Runs `lowmem`: streams the input (transpose or compressed CSR) under
/// the memory budget without loading it into RAM.
fn lowmem(args: &LowMemArgs) -> Result<(), CommandError> {
    let input = &args.job.input;
    let parts = args.job.parts;
    if args.rebuild_sketches && args.exact {
        return Err(CommandError::Invalid(
            "--rebuild-sketches only applies to the sketched index; drop --exact".into(),
        ));
    }
    let input_is_compressed = storage::is_compressed_file(input);
    let use_compressed = match args.format {
        StreamFormat::Transpose => {
            if input_is_compressed {
                return Err(CommandError::Invalid(
                    "input is a compressed .hpz file; drop --format transpose".into(),
                ));
            }
            false
        }
        StreamFormat::Compressed => true,
        StreamFormat::Auto => input_is_compressed,
    };
    let ext = extension(input);
    if ext == "mtx" && !input_is_compressed {
        return Err(CommandError::Invalid(
            "MatrixMarket files are not streamable; convert to .hgr first".into(),
        ));
    }
    let is_hgr = ext == "hgr" && !input_is_compressed;
    let algorithm = if args.exact {
        Algorithm::LowMemExact
    } else {
        Algorithm::LowMemSketched
    };
    let budget = MemoryBudget::mebibytes(args.budget_mib.max(1));
    let job = PartitionJob::new(algorithm)
        .memory_budget(budget)
        .restream_capacity(args.restream)
        .passes(args.passes)
        .rebuild_sketches(args.rebuild_sketches)
        .prefetch(!args.no_prefetch);
    run_job(&args.job, job, |job, metrics| {
        job.validate()?;
        let options = StreamOptions {
            buffer_bytes: budget.plan(parts as usize, 0).transpose_buffer_bytes,
            spill_dir: None,
        };
        if is_hgr {
            // The header carries the vertex count; reject an oversized
            // --parts before paying for the on-disk transpose.
            let header = read_hgr_header(input)?;
            if (parts as usize) > header.num_vertices {
                return Err(CommandError::Invalid(format!(
                    "cannot split {} vertices into {parts} parts",
                    header.num_vertices
                )));
            }
        }
        if use_compressed {
            // Run over the block-compressed CSR, converting first when the
            // input is still an .hgr / edge list. The temporary .hpz is
            // removed when `temp_hpz` drops, on every path.
            let temp_hpz = if input_is_compressed {
                None
            } else {
                Some(convert_to_temp_hpz(input, &std::env::temp_dir(), &options)?)
            };
            let hpz_path = temp_hpz.as_ref().map_or(input.as_path(), TempFile::path);
            let reader = storage::CompressedReader::open_file(hpz_path)
                .map_err(|e| CommandError::Io(e.to_string()))?;
            let meta = *reader.meta();
            if (parts as u64) > meta.num_vertices {
                return Err(CommandError::Invalid(format!(
                    "cannot split {} vertices into {parts} parts",
                    meta.num_vertices
                )));
            }
            let mut report = job.run_compressed_file(hpz_path)?;
            // The original edge-major file (when we have one) back-fills
            // the cut metrics; a bare .hpz leaves quality deferred.
            if !input_is_compressed {
                attach_streamed_quality(&mut report, input, is_hgr)?;
            }
            let header = format!(
                "hypergraph       : {} (|V|={}, |E|={}, pins={})\n\
                 memory budget    : {budget}\n\
                 stream           : compressed CSR, {} block(s), prefetch {}\n\
                 block cache      : {} hit(s), {} miss(es)",
                input.display(),
                meta.num_vertices,
                meta.num_nets,
                meta.num_pins,
                meta.num_blocks,
                if args.no_prefetch { "off" } else { "on" },
                metrics.counter("storage.cache.hits").get(),
                metrics.counter("storage.cache.misses").get(),
            );
            return Ok((report, header));
        }
        let mut stream = if is_hgr {
            stream_hgr_file(input, &options)?
        } else {
            stream_edgelist_file(input, &options)?
        };
        let mut report = job.run_stream(&mut stream)?;
        attach_streamed_quality(&mut report, input, is_hgr)?;
        let header = format!(
            "hypergraph       : {} (|V|={}, |E|={}, pins={})\n\
             memory budget    : {budget}\n\
             transpose peak   : {} B",
            input.display(),
            stream.num_vertices(),
            stream.num_nets(),
            stream.num_pins(),
            stream.peak_loaded_bytes()
        );
        Ok((report, header))
    })
}

/// Executes a parsed invocation.
pub fn execute(cli: &Cli) -> Result<(), CommandError> {
    match &cli.command {
        Command::Stats(a) => {
            let hg = load_hypergraph(&a.input)?;
            let stats = HypergraphStats::compute(&hg);
            println!("{}", HypergraphStats::csv_header());
            println!("{}", stats.csv_row());
            println!("\n{stats}");
            Ok(())
        }
        Command::Serve(options) => crate::serve::serve(options),
        Command::Partition(a) => {
            let hg = load_hypergraph(&a.job.input)?;
            let job = PartitionJob::new(a.algorithm).imbalance_tolerance(a.imbalance);
            run_job(&a.job, job, |job, _| {
                Ok((job.run(&hg)?, format!("hypergraph       : {hg}")))
            })
        }
        Command::LowMem(args) => lowmem(args),
        Command::Convert(a) => {
            if extension(&a.input) == "mtx" {
                return Err(CommandError::Invalid(
                    "MatrixMarket files are not streamable; convert to .hgr first".into(),
                ));
            }
            if storage::is_compressed_file(&a.input) {
                return Err(CommandError::Invalid(
                    "input is already in the compressed format".into(),
                ));
            }
            let meta = storage::convert_file(
                &a.input,
                &a.output,
                a.block_bytes,
                &StreamOptions::default(),
            )?;
            let in_bytes = fs::metadata(&a.input)?.len();
            let out_bytes = fs::metadata(&a.output)?.len();
            println!(
                "converted {} -> {}\n\
                 |V|={}, |E|={}, pins={}, {} block(s) of ~{} B\n\
                 {} B -> {} B ({:.2}x)",
                a.input.display(),
                a.output.display(),
                meta.num_vertices,
                meta.num_nets,
                meta.num_pins,
                meta.num_blocks,
                meta.block_target_bytes,
                in_bytes,
                out_bytes,
                in_bytes as f64 / out_bytes.max(1) as f64,
            );
            Ok(())
        }
        Command::Generate(a) => {
            if a.vertices == 0 || a.cardinality == 0 {
                return Err(CommandError::Invalid(
                    "--vertices and --cardinality must be positive".into(),
                ));
            }
            let mut config = MeshConfig::new(a.vertices, a.cardinality);
            config.seed = a.seed;
            let hg = mesh_hypergraph(&config);
            hmetis::write_hgr_file(&hg, &a.output)?;
            println!(
                "wrote {} (|V|={}, |E|={}, pins={})",
                a.output.display(),
                hg.num_vertices(),
                hg.num_hyperedges(),
                hg.num_pins()
            );
            Ok(())
        }
        Command::Profile(a) => {
            if a.procs < 2 {
                return Err(CommandError::Invalid(
                    "profiling needs at least two compute units".into(),
                ));
            }
            let (link, cost) = profile(a.machine, a.procs, 2019);
            let csv = link.bandwidth().to_csv();
            match &a.output {
                Some(path) => {
                    fs::write(path, &csv)?;
                    println!("wrote {}", path.display());
                }
                None => print!("{csv}"),
            }
            println!(
                "# {} units, bandwidth {:.0}..{:.0} MB/s, cost {:.2}..{:.2}",
                a.procs,
                link.bandwidth().min_off_diagonal(),
                link.bandwidth().max_off_diagonal(),
                cost.min_off_diagonal(),
                cost.max_off_diagonal()
            );
            // Cost centrality: the precomputed row sums bound what each
            // unit pays to reach every peer — the spread flags poorly
            // connected units worth keeping off chatty partitions.
            let sums: Vec<f64> = (0..a.procs).map(|i| cost.row_sum(i)).collect();
            let most = sums.iter().cloned().fold(f64::INFINITY, f64::min);
            let least = sums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "# per-unit total reach cost (row sums): {most:.1} (best) .. {least:.1} (worst)"
            );
            Ok(())
        }
        Command::Benchmark(a) => {
            let hg = load_hypergraph(&a.input)?;
            let partition = read_assignment(&a.assignment, hg.num_vertices())?;
            let procs = partition.num_parts() as usize;
            if procs < 2 {
                return Err(CommandError::Invalid(
                    "the assignment uses a single partition; nothing to benchmark".into(),
                ));
            }
            let (link, cost) = profile(a.machine, procs, 2019);
            let bench = SyntheticBenchmark::new(
                link,
                BenchmarkConfig {
                    message_bytes: a.message_bytes,
                    supersteps: a.supersteps,
                    ..BenchmarkConfig::default()
                },
            );
            let result = bench.run(&hg, &partition);
            let quality = QualityReport::compute(&hg, &partition, &cost);
            println!("hypergraph       : {hg}");
            println!("partitions       : {procs}");
            println!("remote messages  : {}", result.remote_messages);
            println!("remote bytes     : {}", result.remote_bytes);
            println!("comm cost        : {:.1}", quality.comm_cost);
            println!("simulated time   : {:.3} ms", result.total_time_us / 1e3);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{BenchmarkArgs, ConvertArgs, PartitionArgs, ProfileArgs, StatsArgs};
    use hyperpraw::core::{HyperPraw, HyperPrawConfig};
    use hyperpraw::hypergraph::HypergraphBuilder;

    /// A per-test scratch directory: unique per call (an atomic counter
    /// plus the test name), removed with everything in it on drop — so
    /// tests running in parallel never share a file.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(test: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("hyperpraw_cli_{}_{n}_{test}", std::process::id()));
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }

        fn sample_hgr(&self) -> PathBuf {
            let path = self.path("sample.hgr");
            let mut b = HypergraphBuilder::new(8);
            b.add_hyperedge([0u32, 1, 2]);
            b.add_hyperedge([2u32, 3, 4]);
            b.add_hyperedge([4u32, 5, 6, 7]);
            b.add_hyperedge([0u32, 7]);
            hmetis::write_hgr_file(&b.build(), &path).unwrap();
            path
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    /// The shared arguments of the command tests: the flat machine, the
    /// driver's default threads, and no output files.
    fn job(input: PathBuf, parts: u32, seed: u64) -> JobArgs {
        JobArgs {
            input,
            parts,
            machine: MachinePreset::Flat,
            threads: None,
            seed,
            output: None,
            json: false,
            json_out: None,
            metrics_out: None,
        }
    }

    /// `partition` with basic HyperPRAW at tolerance 1.2.
    fn partition(job: JobArgs) -> Cli {
        Cli {
            command: Command::Partition(PartitionArgs {
                job,
                algorithm: Algorithm::HyperPrawBasic,
                imbalance: 1.2,
            }),
        }
    }

    /// `lowmem` on one thread under a 1 MiB budget, otherwise at the
    /// command-line defaults.
    fn lowmem(input: PathBuf, parts: u32, seed: u64) -> LowMemArgs {
        LowMemArgs {
            job: JobArgs {
                threads: Some(1),
                ..job(input, parts, seed)
            },
            budget_mib: 1,
            exact: false,
            restream: None,
            passes: 1,
            rebuild_sketches: false,
            format: StreamFormat::Auto,
            no_prefetch: false,
        }
    }

    fn run(args: LowMemArgs) -> Result<(), CommandError> {
        execute(&Cli {
            command: Command::LowMem(args),
        })
    }

    #[test]
    fn load_dispatches_on_extension() {
        let dir = TempDir::new("load_dispatches_on_extension");
        let path = dir.sample_hgr();
        let hg = load_hypergraph(&path).unwrap();
        assert_eq!(hg.num_vertices(), 8);
        assert_eq!(hg.num_hyperedges(), 4);
    }

    #[test]
    fn assignment_round_trips() {
        let dir = TempDir::new("assignment_round_trips");
        let part = Partition::round_robin(10, 3);
        let path = dir.path("assignment.txt");
        write_assignment(&path, &part).unwrap();
        let back = read_assignment(&path, 10).unwrap();
        assert_eq!(back.assignment(), part.assignment());
    }

    #[test]
    fn assignment_length_mismatch_is_reported() {
        let dir = TempDir::new("assignment_length_mismatch_is_reported");
        let part = Partition::round_robin(5, 2);
        let path = dir.path("short.txt");
        write_assignment(&path, &part).unwrap();
        let err = read_assignment(&path, 10).unwrap_err();
        assert!(err.to_string().contains("10 vertices"));
    }

    #[test]
    fn partition_command_writes_an_assignment_file() {
        let dir = TempDir::new("partition_command_writes_an_assignment_file");
        let input = dir.sample_hgr();
        let output = dir.path("out_assignment.txt");
        execute(&partition(JobArgs {
            output: Some(output.clone()),
            ..job(input.clone(), 2, 1)
        }))
        .unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let part = read_assignment(&output, hg.num_vertices()).unwrap();
        assert!(part.num_parts() <= 2);
    }

    #[test]
    fn every_algorithm_dispatches_through_the_partition_command() {
        let dir = TempDir::new("every_algorithm_dispatches_through_the_partition_command");
        let input = dir.sample_hgr();
        for algorithm in Algorithm::all() {
            execute(&Cli {
                command: Command::Partition(PartitionArgs {
                    job: job(input.clone(), 2, 1),
                    algorithm,
                    imbalance: 1.2,
                }),
            })
            .unwrap_or_else(|e| panic!("{}: {e}", algorithm.name()));
        }
    }

    #[test]
    fn json_out_writes_a_partition_report() {
        let dir = TempDir::new("json_out_writes_a_partition_report");
        let input = dir.sample_hgr();
        let json_out = dir.path("report.json");
        execute(&partition(JobArgs {
            json_out: Some(json_out.clone()),
            ..job(input.clone(), 2, 1)
        }))
        .unwrap();
        let json = fs::read_to_string(&json_out).unwrap();
        assert!(json.contains("\"algorithm\": \"hyperpraw-basic\""));
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"config\""));
    }

    #[test]
    fn partition_command_matches_the_direct_driver() {
        // The CLI adds no partitioning logic of its own: the assignment it
        // writes is the one the in-memory driver returns for the same
        // configuration.
        let dir = TempDir::new("partition_command_matches_the_direct_driver");
        let input = dir.sample_hgr();
        let output = dir.path("direct.txt");
        execute(&partition(JobArgs {
            output: Some(output.clone()),
            ..job(input.clone(), 2, 3)
        }))
        .unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let direct = HyperPraw::basic(
            HyperPrawConfig::default()
                .with_seed(3)
                .with_imbalance_tolerance(1.2),
            2,
        )
        .partition(&hg);
        let written = read_assignment(&output, hg.num_vertices()).unwrap();
        assert_eq!(written.assignment(), direct.partition.assignment());
    }

    #[test]
    fn lowmem_command_partitions_in_one_pass_and_writes_an_assignment() {
        let dir = TempDir::new("lowmem_command_partitions_in_one_pass_and_writes_an_assignment");
        let input = dir.sample_hgr();
        let output = dir.path("lowmem_assignment.txt");
        for exact in [false, true] {
            let mut args = LowMemArgs {
                exact,
                restream: Some(4),
                ..lowmem(input.clone(), 2, 1)
            };
            args.job.output = Some(output.clone());
            run(args).unwrap();
            let hg = load_hypergraph(&input).unwrap();
            let part = read_assignment(&output, hg.num_vertices()).unwrap();
            assert!(part.num_parts() <= 2);
        }
    }

    #[test]
    fn convert_then_compressed_lowmem_matches_the_transpose_path() {
        // The CI pipeline scenario: generate -> convert -> partition the
        // compressed file, diff against the uncompressed stream path.
        let dir = TempDir::new("convert_then_compressed_lowmem_matches_the_transpose_path");
        let input = dir.sample_hgr();
        let hpz = dir.path("sample.hpz");
        execute(&Cli {
            command: Command::Convert(ConvertArgs {
                input: input.clone(),
                output: hpz.clone(),
                block_bytes: 128,
            }),
        })
        .unwrap();
        assert!(storage::is_compressed_file(&hpz));

        let from_transpose = dir.path("assignment_transpose.txt");
        let from_compressed = dir.path("assignment_compressed.txt");
        let from_hpz = dir.path("assignment_hpz.txt");
        let writing_to = |input: &Path, output: &Path| {
            let mut args = lowmem(input.to_path_buf(), 2, 5);
            args.job.output = Some(output.to_path_buf());
            args
        };
        // Uncompressed baseline.
        run(LowMemArgs {
            format: StreamFormat::Transpose,
            ..writing_to(&input, &from_transpose)
        })
        .unwrap();
        // Same .hgr forced through the compressed reader (converted to a
        // temporary .hpz internally).
        run(LowMemArgs {
            format: StreamFormat::Compressed,
            ..writing_to(&input, &from_compressed)
        })
        .unwrap();
        // The pre-converted .hpz picked up by the auto sniff, prefetch off.
        run(LowMemArgs {
            no_prefetch: true,
            ..writing_to(&hpz, &from_hpz)
        })
        .unwrap();

        let baseline = fs::read_to_string(&from_transpose).unwrap();
        assert_eq!(baseline, fs::read_to_string(&from_compressed).unwrap());
        assert_eq!(baseline, fs::read_to_string(&from_hpz).unwrap());
    }

    #[test]
    fn temp_hpz_is_removed_on_a_failed_conversion_and_when_dropped() {
        let dir = TempDir::new("temp_hpz_is_removed_on_a_failed_conversion_and_when_dropped");
        let scratch = dir.path("scratch");
        fs::create_dir(&scratch).unwrap();
        let is_empty = || fs::read_dir(&scratch).unwrap().next().is_none();
        let options = StreamOptions::default();

        // Error path: the guard's file exists before the conversion reads
        // its input, so a failure must not leave it behind.
        let missing = dir.path("missing.hgr");
        assert!(convert_to_temp_hpz(&missing, &scratch, &options).is_err());
        assert!(is_empty(), "failed conversion leaked its temp file");

        // Success path: concurrent conversions get distinct files, each
        // gone once its guard drops.
        let input = dir.sample_hgr();
        let a = convert_to_temp_hpz(&input, &scratch, &options).unwrap();
        let b = convert_to_temp_hpz(&input, &scratch, &options).unwrap();
        assert_ne!(a.path(), b.path());
        assert!(storage::is_compressed_file(a.path()));
        drop(a);
        drop(b);
        assert!(is_empty(), "dropped guards left their temp files");
    }

    #[test]
    fn lowmem_command_runs_threaded_sketched_restreaming_end_to_end() {
        let dir = TempDir::new("lowmem_command_runs_threaded_sketched_restreaming_end_to_end");
        // The acceptance scenario of the engine refactor: work-stealing
        // workers over the sketched connectivity provider, with multi-pass
        // restreaming and sketch rebuilds, straight from the CLI.
        let input = dir.sample_hgr();
        let output = dir.path("lowmem_threaded_assignment.txt");
        let json_out = dir.path("lowmem_threaded_report.json");
        let mut args = LowMemArgs {
            passes: 2,
            rebuild_sketches: true,
            ..lowmem(input.clone(), 2, 7)
        };
        args.job.threads = Some(3);
        args.job.output = Some(output.clone());
        args.job.json_out = Some(json_out.clone());
        run(args).unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let part = read_assignment(&output, hg.num_vertices()).unwrap();
        assert!(part.num_parts() <= 2);
        let json = fs::read_to_string(&json_out).unwrap();
        assert!(json.contains("\"algorithm\": \"lowmem-sketched\""));
        assert!(json.contains("\"lowmem\": {"));
        // The streamed quality evaluation back-fills the cut metrics.
        assert!(!json.contains("\"hyperedge_cut\": null"));
    }

    #[test]
    fn lowmem_command_rejects_mtx_too_many_parts_and_exact_rebuilds() {
        let dir = TempDir::new("lowmem_command_rejects_mtx_too_many_parts_and_exact_rebuilds");
        let err = run(lowmem(PathBuf::from("matrix.mtx"), 4, 0)).unwrap_err();
        assert!(err.to_string().contains("not streamable"));

        let input = dir.sample_hgr();
        let err = run(lowmem(input.clone(), 1000, 0)).unwrap_err();
        assert!(err.to_string().contains("cannot split"));

        let err = run(LowMemArgs {
            exact: true,
            rebuild_sketches: true,
            ..lowmem(input.clone(), 2, 0)
        })
        .unwrap_err();
        assert!(err.to_string().contains("rebuild-sketches"));
    }

    #[test]
    fn invalid_job_configs_surface_as_errors_not_panics() {
        let dir = TempDir::new("invalid_job_configs_surface_as_errors_not_panics");
        let input = dir.sample_hgr();
        // Zero lowmem passes reach the job API and come back as
        // InvalidConfig, not a panic or an infinite loop.
        let err = run(LowMemArgs {
            passes: 0,
            ..lowmem(input.clone(), 2, 0)
        })
        .unwrap_err();
        assert!(err.to_string().contains("streaming pass"));
    }

    #[test]
    fn zero_threads_auto_detects_instead_of_erroring() {
        let dir = TempDir::new("zero_threads_auto_detects_instead_of_erroring");
        // `--threads 0` used to be an InvalidConfig; it now resolves to
        // the machine's available parallelism inside the job API.
        let input = dir.sample_hgr();
        let output = dir.path("lowmem_auto_threads.txt");
        let mut args = lowmem(input.clone(), 2, 0);
        args.job.threads = Some(0);
        args.job.output = Some(output.clone());
        run(args).unwrap();
        let hg = load_hypergraph(&input).unwrap();
        let part = read_assignment(&output, hg.num_vertices()).unwrap();
        assert!(part.num_parts() <= 2);
    }

    #[test]
    fn partition_command_runs_the_work_stealing_mode_end_to_end() {
        let dir = TempDir::new("partition_command_runs_the_work_stealing_mode_end_to_end");
        let input = dir.sample_hgr();
        let json_out = dir.path("steal_report.json");
        execute(&Cli {
            command: Command::Partition(PartitionArgs {
                job: JobArgs {
                    threads: Some(4),
                    json_out: Some(json_out.clone()),
                    ..job(input.clone(), 2, 1)
                },
                algorithm: Algorithm::ParallelBasic,
                imbalance: 1.2,
            }),
        })
        .unwrap();
        let json = fs::read_to_string(&json_out).unwrap();
        assert!(json.contains("\"threads\": 4"));
    }

    #[test]
    fn stats_and_profile_commands_run() {
        let dir = TempDir::new("stats_and_profile_commands_run");
        let input = dir.sample_hgr();
        execute(&Cli {
            command: Command::Stats(StatsArgs {
                input: input.clone(),
            }),
        })
        .unwrap();
        let out = dir.path("bw.csv");
        execute(&Cli {
            command: Command::Profile(ProfileArgs {
                machine: MachinePreset::Archer,
                procs: 12,
                output: Some(out.clone()),
            }),
        })
        .unwrap();
        assert!(fs::read_to_string(&out).unwrap().lines().count() == 12);
    }

    #[test]
    fn benchmark_command_uses_an_existing_assignment() {
        let dir = TempDir::new("benchmark_command_uses_an_existing_assignment");
        let input = dir.sample_hgr();
        let hg = load_hypergraph(&input).unwrap();
        let assignment = dir.path("bench_assignment.txt");
        write_assignment(&assignment, &Partition::round_robin(hg.num_vertices(), 4)).unwrap();
        execute(&Cli {
            command: Command::Benchmark(BenchmarkArgs {
                input: input.clone(),
                assignment: assignment.clone(),
                machine: MachinePreset::Cluster,
                message_bytes: 128,
                supersteps: 2,
            }),
        })
        .unwrap();
    }

    #[test]
    fn invalid_inputs_produce_errors_not_panics() {
        let dir = TempDir::new("invalid_inputs_produce_errors_not_panics");
        let missing = execute(&Cli {
            command: Command::Stats(StatsArgs {
                input: dir.path("does_not_exist.hgr"),
            }),
        });
        assert!(missing.is_err());
        let too_many_parts = execute(&Cli {
            command: Command::Partition(PartitionArgs {
                job: job(dir.sample_hgr(), 1000, 1),
                algorithm: Algorithm::RoundRobin,
                imbalance: 1.2,
            }),
        });
        assert!(too_many_parts.is_err());
        let bad_profile = execute(&Cli {
            command: Command::Profile(ProfileArgs {
                machine: MachinePreset::Flat,
                procs: 1,
                output: None,
            }),
        });
        assert!(bad_profile.is_err());
    }
}
