//! Hand-rolled command-line argument parsing for the `hyperpraw` tool.
//!
//! Algorithm and parallel-mode selection parse straight into the facade's
//! [`Algorithm`] and [`ParallelMode`] types — the CLI owns no partitioner
//! enums of its own.

use std::fmt;
use std::path::PathBuf;

use hyperpraw::api::Algorithm;
use hyperpraw::core::ParallelMode;

/// Machine model preset selectable from the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MachinePreset {
    /// ARCHER-like Cray hierarchy (the paper's testbed).
    Archer,
    /// Dual-socket commodity cluster.
    Cluster,
    /// Cloud-like oversubscribed tiers.
    Cloud,
    /// Homogeneous (flat) network.
    Flat,
}

impl MachinePreset {
    pub(crate) fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "archer" => Ok(Self::Archer),
            "cluster" => Ok(Self::Cluster),
            "cloud" => Ok(Self::Cloud),
            "flat" => Ok(Self::Flat),
            other => Err(ParseError::InvalidValue {
                option: "--machine".into(),
                value: other.into(),
                expected: "archer | cluster | cloud | flat".into(),
            }),
        }
    }
}

/// How the `lowmem` subcommand reads its input stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFormat {
    /// Sniff the file: compressed when it carries the `.hpz` magic,
    /// the on-disk transpose reader otherwise.
    Auto,
    /// Force the uncompressed transpose reader (`.hgr` / edge list).
    Transpose,
    /// Force the block-compressed CSR reader; `.hgr` / edge-list inputs
    /// are converted to a temporary compressed file first.
    Compressed,
}

impl StreamFormat {
    pub(crate) fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "auto" => Ok(Self::Auto),
            "transpose" => Ok(Self::Transpose),
            "compressed" => Ok(Self::Compressed),
            other => Err(ParseError::InvalidValue {
                option: "--format".into(),
                value: other.into(),
                expected: "auto | transpose | compressed".into(),
            }),
        }
    }
}

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// Subcommands of the tool.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print the statistics of a hypergraph file (Table 1 style).
    Stats {
        /// Input file (`.hgr`, `.mtx` or edge list).
        input: PathBuf,
    },
    /// Partition a hypergraph file in streaming passes under a memory
    /// budget (`hyperpraw-lowmem`), without loading it into RAM.
    LowMem {
        /// Input file (`.hgr` or edge list; `.mtx` is not streamable).
        input: PathBuf,
        /// Number of partitions (compute units).
        parts: u32,
        /// Sketch/buffer memory budget in mebibytes.
        budget_mib: usize,
        /// Use the exact (unbounded-memory) connectivity index instead of
        /// the Bloom/MinHash sketches.
        exact: bool,
        /// Number of lowest-confidence assignments to revisit; `None`
        /// derives it from the budget.
        restream: Option<usize>,
        /// Number of streaming passes over the input (out-of-core
        /// restreaming when above 1).
        passes: usize,
        /// Rebuild the sketches between passes to shed staleness.
        rebuild_sketches: bool,
        /// Worker threads for parallel streaming (1 = sequential, 0 =
        /// auto-detect the machine parallelism).
        threads: usize,
        /// Worker scheduling: deterministic BSP windows or lock-free work
        /// stealing.
        parallel_mode: ParallelMode,
        /// Machine preset used to derive the cost matrix.
        machine: MachinePreset,
        /// RNG seed.
        seed: u64,
        /// Where to write the assignment (one partition id per line).
        output: Option<PathBuf>,
        /// Emit the `PartitionReport` as JSON on stdout instead of the
        /// text summary.
        json: bool,
        /// Also write the JSON report to this path.
        json_out: Option<PathBuf>,
        /// How to read the input stream (transpose vs compressed CSR).
        format: StreamFormat,
        /// Disable background block prefetch on the compressed path.
        no_prefetch: bool,
        /// Dump the run's telemetry registry (engine/storage metrics) as
        /// JSON to this path.
        metrics_out: Option<PathBuf>,
    },
    /// Convert a hypergraph file to the block-compressed CSR format.
    Convert {
        /// Input file (`.hgr` or edge list).
        input: PathBuf,
        /// Output `.hpz` path.
        output: PathBuf,
        /// Target encoded bytes per block.
        block_bytes: u32,
    },
    /// Generate a synthetic mesh hypergraph and write it as `.hgr`.
    Generate {
        /// Output `.hgr` path.
        output: PathBuf,
        /// Number of vertices.
        vertices: usize,
        /// Target hyperedge cardinality.
        cardinality: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Partition a hypergraph file.
    Partition {
        /// Input file (`.hgr`, `.mtx` or edge list).
        input: PathBuf,
        /// Number of partitions (compute units).
        parts: u32,
        /// Algorithm to use (any facade [`Algorithm`]).
        algorithm: Algorithm,
        /// Machine preset used to derive the cost matrix (aware) and the
        /// benchmark link model.
        machine: MachinePreset,
        /// Imbalance tolerance.
        imbalance: f64,
        /// Worker threads for the parallel algorithms (`None` keeps each
        /// driver's default; `0` auto-detects the machine parallelism).
        threads: Option<usize>,
        /// Worker scheduling of the parallel algorithms: deterministic BSP
        /// windows or lock-free work stealing.
        parallel_mode: ParallelMode,
        /// RNG seed.
        seed: u64,
        /// Where to write the assignment (one partition id per line); stdout
        /// summary only when absent.
        output: Option<PathBuf>,
        /// Emit the `PartitionReport` as JSON on stdout instead of the
        /// text summary.
        json: bool,
        /// Also write the JSON report to this path.
        json_out: Option<PathBuf>,
        /// Dump the run's telemetry registry (engine metrics) as JSON to
        /// this path.
        metrics_out: Option<PathBuf>,
    },
    /// Profile a machine preset and write its bandwidth matrix as CSV.
    Profile {
        /// Machine preset.
        machine: MachinePreset,
        /// Number of compute units.
        procs: usize,
        /// Output CSV path (stdout when absent).
        output: Option<PathBuf>,
    },
    /// Run a long-lived partitioning daemon speaking newline-delimited
    /// JSON: `partition`, `update`, `lookup`, `report` and `shutdown`
    /// requests against a resident dynamic session.
    Serve {
        /// TCP address to listen on.
        bind: String,
        /// Serve a single session over stdin/stdout instead of TCP.
        stdio: bool,
        /// Snapshot + write-ahead-journal directory for crash-safe
        /// sessions (in-memory only when absent).
        state_dir: Option<PathBuf>,
        /// Maximum accepted request-line size in bytes.
        max_line_bytes: usize,
        /// Per-connection read timeout in seconds.
        read_timeout_secs: u64,
        /// Fold the journal into a fresh snapshot every N batches.
        snapshot_every: u64,
        /// Serve a Prometheus-style plain-text metrics exposition on this
        /// address (`None` disables the endpoint).
        metrics_addr: Option<String>,
    },
    /// Run the synthetic benchmark for an existing assignment.
    Benchmark {
        /// Input hypergraph file.
        input: PathBuf,
        /// Assignment file (one partition id per line).
        assignment: PathBuf,
        /// Machine preset.
        machine: MachinePreset,
        /// Message payload in bytes.
        message_bytes: u64,
        /// Number of supersteps.
        supersteps: usize,
    },
}

/// Errors produced while parsing the command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// `--help` / `-h` was requested.
    HelpRequested,
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// A required positional argument is missing.
    MissingArgument(String),
    /// An option was given without a value.
    MissingValue(String),
    /// An option value could not be parsed.
    InvalidValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: String,
    },
    /// An unknown option was encountered.
    UnknownOption(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::HelpRequested => write!(f, "help requested"),
            Self::MissingCommand => write!(f, "missing subcommand"),
            Self::UnknownCommand(c) => write!(f, "unknown subcommand '{c}'"),
            Self::MissingArgument(a) => write!(f, "missing required argument <{a}>"),
            Self::MissingValue(o) => write!(f, "option {o} requires a value"),
            Self::InvalidValue {
                option,
                value,
                expected,
            } => write!(
                f,
                "invalid value '{value}' for {option} (expected {expected})"
            ),
            Self::UnknownOption(o) => write!(f, "unknown option '{o}'"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The usage string printed by `--help` and on parse errors.
pub fn usage() -> String {
    "hyperpraw — architecture-aware hypergraph partitioning (ICPP 2019 reproduction)\n\
     \n\
     USAGE:\n\
       hyperpraw stats     <input>\n\
       hyperpraw partition <input> --parts N\n\
                           [--algorithm aware|basic|parallel|parallel-basic|lowmem|lowmem-exact|multilevel|round-robin]\n\
                           [--machine archer|cluster|cloud|flat] [--imbalance 1.1]\n\
                           [--threads N|0=auto] [--parallel-mode bsp|steal] [--seed N]\n\
                           [--output assignment.txt] [--json] [--json-out report.json]\n\
                           [--metrics-out metrics.json]\n\
       hyperpraw lowmem    <input> --parts N [--budget-mib 64] [--exact] [--restream K]\n\
                           [--passes N] [--rebuild-sketches] [--threads N|0=auto]\n\
                           [--parallel-mode bsp|steal]\n\
                           [--machine archer|cluster|cloud|flat] [--seed N]\n\
                           [--format auto|transpose|compressed] [--no-prefetch]\n\
                           [--output assignment.txt] [--json] [--json-out report.json]\n\
                           [--metrics-out metrics.json]\n\
       hyperpraw convert   <input> <output.hpz> [--block-bytes 65536]\n\
       hyperpraw generate  <output.hgr> [--vertices 10000] [--cardinality 16] [--seed N]\n\
       hyperpraw profile   --machine archer|cluster|cloud|flat --procs N [--output bw.csv]\n\
       hyperpraw benchmark <input> <assignment> [--machine archer|...] [--bytes 1024] [--supersteps 1]\n\
       hyperpraw serve     [--bind 127.0.0.1:7700] [--stdio] [--state-dir DIR]\n\
                           [--max-line-bytes N] [--read-timeout-secs N] [--snapshot-every N]\n\
                           [--metrics-addr 127.0.0.1:9100]\n\
     \n\
     All algorithms dispatch through the facade's unified PartitionJob API; --json emits the\n\
     common PartitionReport as machine-readable JSON.\n\
     serve keeps a dynamic session resident and answers one JSON request per line:\n\
       {\"op\":\"partition\",...} {\"op\":\"update\",...} {\"op\":\"lookup\",...} {\"op\":\"report\"} {\"op\":\"shutdown\"}\n\
     With --state-dir every accepted update batch is journaled (fsynced) before it is\n\
     acknowledged and snapshots fold the journal in; on restart the daemon recovers the\n\
     session bit-identically, truncating any torn journal tail.\n\
     Input formats: hMetis .hgr, MatrixMarket .mtx (row-net model), anything else is read\n\
     as a whitespace edge list (one hyperedge per line, 0-based vertex ids).\n\
     convert writes the block-compressed vertex-major CSR (.hpz); lowmem streams it directly\n\
     (--format auto sniffs the magic) with a background prefetch thread decoding the next\n\
     block while the engine consumes the current one."
        .to_string()
}

/// Numeric option parsing helper.
fn parse_number<T: std::str::FromStr>(option: &str, value: &str) -> Result<T, ParseError> {
    value.parse().map_err(|_| ParseError::InvalidValue {
        option: option.into(),
        value: value.into(),
        expected: "a number".into(),
    })
}

fn parse_algorithm(value: &str) -> Result<Algorithm, ParseError> {
    Algorithm::parse(value).map_err(|_| ParseError::InvalidValue {
        option: "--algorithm".into(),
        value: value.into(),
        expected: Algorithm::expected_names().into(),
    })
}

fn parse_parallel_mode(value: &str) -> Result<ParallelMode, ParseError> {
    ParallelMode::parse(value).ok_or_else(|| ParseError::InvalidValue {
        option: "--parallel-mode".into(),
        value: value.into(),
        expected: "bsp | steal".into(),
    })
}

impl Cli {
    /// Parses an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ParseError> {
        let args: Vec<String> = argv.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(ParseError::HelpRequested);
        }
        let mut it = args.into_iter();
        let command = it.next().ok_or(ParseError::MissingCommand)?;
        let rest: Vec<String> = it.collect();
        match command.as_str() {
            "stats" => {
                let input = positional(&rest, 0, "input")?;
                Ok(Self {
                    command: Command::Stats {
                        input: PathBuf::from(input),
                    },
                })
            }
            "partition" => {
                let input = positional(&rest, 0, "input")?;
                let mut parts: Option<u32> = None;
                let mut algorithm = Algorithm::HyperPrawAware;
                let mut machine = MachinePreset::Archer;
                let mut imbalance = 1.1f64;
                let mut threads: Option<usize> = None;
                let mut parallel_mode = ParallelMode::Bsp;
                let mut seed = 2019u64;
                let mut output = None;
                let mut json = false;
                let mut json_out = None;
                let mut metrics_out = None;
                let mut i = 1;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--parts" | "-p" => {
                            parts = Some(parse_number(opt, value(&rest, &mut i)?)?);
                        }
                        "--algorithm" | "-a" => {
                            algorithm = parse_algorithm(value(&rest, &mut i)?)?;
                        }
                        "--machine" | "-m" => {
                            machine = MachinePreset::parse(value(&rest, &mut i)?)?;
                        }
                        "--imbalance" => {
                            imbalance = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--threads" | "-t" => {
                            threads = Some(parse_number(opt, value(&rest, &mut i)?)?);
                        }
                        "--parallel-mode" => {
                            parallel_mode = parse_parallel_mode(value(&rest, &mut i)?)?;
                        }
                        "--seed" => {
                            seed = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--output" | "-o" => {
                            output = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        "--json" => {
                            json = true;
                        }
                        "--json-out" => {
                            json_out = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        "--metrics-out" => {
                            metrics_out = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::Partition {
                        input: PathBuf::from(input),
                        parts: parts.ok_or_else(|| ParseError::MissingValue("--parts".into()))?,
                        algorithm,
                        machine,
                        imbalance,
                        threads,
                        parallel_mode,
                        seed,
                        output,
                        json,
                        json_out,
                        metrics_out,
                    },
                })
            }
            "lowmem" => {
                let input = positional(&rest, 0, "input")?;
                let mut parts: Option<u32> = None;
                let mut budget_mib = 64usize;
                let mut exact = false;
                let mut restream = None;
                let mut passes = 1usize;
                let mut rebuild_sketches = false;
                let mut threads = 1usize;
                let mut parallel_mode = ParallelMode::Bsp;
                let mut machine = MachinePreset::Archer;
                let mut seed = 2019u64;
                let mut output = None;
                let mut json = false;
                let mut json_out = None;
                let mut metrics_out = None;
                let mut format = StreamFormat::Auto;
                let mut no_prefetch = false;
                let mut i = 1;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--parts" | "-p" => {
                            parts = Some(parse_number(opt, value(&rest, &mut i)?)?);
                        }
                        "--format" | "-f" => {
                            format = StreamFormat::parse(value(&rest, &mut i)?)?;
                        }
                        "--no-prefetch" => {
                            no_prefetch = true;
                        }
                        "--budget-mib" | "-b" => {
                            budget_mib = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--exact" => {
                            exact = true;
                        }
                        "--restream" => {
                            restream = Some(parse_number(opt, value(&rest, &mut i)?)?);
                        }
                        "--passes" => {
                            passes = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--rebuild-sketches" => {
                            rebuild_sketches = true;
                        }
                        "--threads" | "-t" => {
                            threads = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--parallel-mode" => {
                            parallel_mode = parse_parallel_mode(value(&rest, &mut i)?)?;
                        }
                        "--machine" | "-m" => {
                            machine = MachinePreset::parse(value(&rest, &mut i)?)?;
                        }
                        "--seed" => {
                            seed = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--output" | "-o" => {
                            output = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        "--json" => {
                            json = true;
                        }
                        "--json-out" => {
                            json_out = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        "--metrics-out" => {
                            metrics_out = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::LowMem {
                        input: PathBuf::from(input),
                        parts: parts.ok_or_else(|| ParseError::MissingValue("--parts".into()))?,
                        budget_mib,
                        exact,
                        restream,
                        passes,
                        rebuild_sketches,
                        threads,
                        parallel_mode,
                        machine,
                        seed,
                        output,
                        json,
                        json_out,
                        format,
                        no_prefetch,
                        metrics_out,
                    },
                })
            }
            "convert" => {
                let input = positional(&rest, 0, "input")?;
                let output = positional(&rest, 1, "output")?;
                let mut block_bytes = 64 * 1024u32;
                let mut i = 2;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--block-bytes" => {
                            block_bytes = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::Convert {
                        input: PathBuf::from(input),
                        output: PathBuf::from(output),
                        block_bytes,
                    },
                })
            }
            "generate" => {
                let output = positional(&rest, 0, "output")?;
                let mut vertices = 10_000usize;
                let mut cardinality = 16usize;
                let mut seed = 2019u64;
                let mut i = 1;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--vertices" | "-n" => {
                            vertices = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--cardinality" | "-c" => {
                            cardinality = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--seed" => {
                            seed = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::Generate {
                        output: PathBuf::from(output),
                        vertices,
                        cardinality,
                        seed,
                    },
                })
            }
            "profile" => {
                let mut machine = MachinePreset::Archer;
                let mut procs: Option<usize> = None;
                let mut output = None;
                let mut i = 0;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--machine" | "-m" => {
                            machine = MachinePreset::parse(value(&rest, &mut i)?)?;
                        }
                        "--procs" | "-n" => {
                            procs = Some(parse_number(opt, value(&rest, &mut i)?)?);
                        }
                        "--output" | "-o" => {
                            output = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::Profile {
                        machine,
                        procs: procs.ok_or_else(|| ParseError::MissingValue("--procs".into()))?,
                        output,
                    },
                })
            }
            "serve" => {
                let mut bind = String::from("127.0.0.1:7700");
                let mut stdio = false;
                let mut state_dir = None;
                let mut max_line_bytes = 16 * 1024 * 1024;
                let mut read_timeout_secs = 30;
                let mut snapshot_every = 64;
                let mut metrics_addr = None;
                let mut i = 0;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--bind" => {
                            bind = value(&rest, &mut i)?.to_string();
                        }
                        "--stdio" => {
                            stdio = true;
                        }
                        "--state-dir" => {
                            state_dir = Some(PathBuf::from(value(&rest, &mut i)?));
                        }
                        "--max-line-bytes" => {
                            max_line_bytes =
                                parse_number("--max-line-bytes", value(&rest, &mut i)?)?;
                        }
                        "--read-timeout-secs" => {
                            read_timeout_secs =
                                parse_number("--read-timeout-secs", value(&rest, &mut i)?)?;
                        }
                        "--snapshot-every" => {
                            snapshot_every =
                                parse_number("--snapshot-every", value(&rest, &mut i)?)?;
                        }
                        "--metrics-addr" => {
                            metrics_addr = Some(value(&rest, &mut i)?.to_string());
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::Serve {
                        bind,
                        stdio,
                        state_dir,
                        max_line_bytes,
                        read_timeout_secs,
                        snapshot_every,
                        metrics_addr,
                    },
                })
            }
            "benchmark" => {
                let input = positional(&rest, 0, "input")?;
                let assignment = positional(&rest, 1, "assignment")?;
                let mut machine = MachinePreset::Archer;
                let mut message_bytes = 1024u64;
                let mut supersteps = 1usize;
                let mut i = 2;
                while i < rest.len() {
                    let opt = rest[i].as_str();
                    match opt {
                        "--machine" | "-m" => {
                            machine = MachinePreset::parse(value(&rest, &mut i)?)?;
                        }
                        "--bytes" => {
                            message_bytes = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        "--supersteps" => {
                            supersteps = parse_number(opt, value(&rest, &mut i)?)?;
                        }
                        other => return Err(ParseError::UnknownOption(other.into())),
                    }
                    i += 1;
                }
                Ok(Self {
                    command: Command::Benchmark {
                        input: PathBuf::from(input),
                        assignment: PathBuf::from(assignment),
                        machine,
                        message_bytes,
                        supersteps,
                    },
                })
            }
            other => Err(ParseError::UnknownCommand(other.into())),
        }
    }
}

fn positional<'a>(rest: &'a [String], index: usize, name: &str) -> Result<&'a str, ParseError> {
    rest.get(index)
        .map(|s| s.as_str())
        .filter(|s| !s.starts_with('-'))
        .ok_or_else(|| ParseError::MissingArgument(name.into()))
}

fn value<'a>(rest: &'a [String], i: &mut usize) -> Result<&'a str, ParseError> {
    let opt = rest[*i].clone();
    *i += 1;
    rest.get(*i)
        .map(|s| s.as_str())
        .ok_or(ParseError::MissingValue(opt))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(|x| x.to_string())
    }

    #[test]
    fn parses_stats() {
        let cli = Cli::parse(argv("stats graph.hgr")).unwrap();
        assert_eq!(
            cli.command,
            Command::Stats {
                input: PathBuf::from("graph.hgr")
            }
        );
    }

    #[test]
    fn parses_partition_with_defaults_and_overrides() {
        let cli = Cli::parse(argv(
            "partition app.hgr --parts 96 -a multilevel -m cloud --imbalance 1.05 \
             --threads 3 --seed 7 -o out.txt --json --json-out r.json \
             --metrics-out m.json",
        ))
        .unwrap();
        match cli.command {
            Command::Partition {
                input,
                parts,
                algorithm,
                machine,
                imbalance,
                threads,
                parallel_mode,
                seed,
                output,
                json,
                json_out,
                metrics_out,
            } => {
                assert_eq!(input, PathBuf::from("app.hgr"));
                assert_eq!(parts, 96);
                assert_eq!(algorithm, Algorithm::MultilevelBaseline);
                assert_eq!(machine, MachinePreset::Cloud);
                assert!((imbalance - 1.05).abs() < 1e-12);
                assert_eq!(threads, Some(3));
                assert_eq!(parallel_mode, ParallelMode::Bsp);
                assert_eq!(seed, 7);
                assert_eq!(output, Some(PathBuf::from("out.txt")));
                assert!(json);
                assert_eq!(json_out, Some(PathBuf::from("r.json")));
                assert_eq!(metrics_out, Some(PathBuf::from("m.json")));
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn every_facade_algorithm_is_reachable_from_the_command_line() {
        for algorithm in Algorithm::all() {
            let line = format!("partition app.hgr --parts 8 -a {}", algorithm.name());
            match Cli::parse(argv(&line)).unwrap().command {
                Command::Partition { algorithm: got, .. } => assert_eq!(got, algorithm),
                other => panic!("wrong command {other:?}"),
            }
        }
    }

    #[test]
    fn partition_defaults_and_rejects_the_retired_connectivity_flag() {
        let cli = Cli::parse(argv("partition app.hgr --parts 8")).unwrap();
        match cli.command {
            Command::Partition {
                algorithm, json, ..
            } => {
                assert_eq!(algorithm, Algorithm::HyperPrawAware);
                assert!(!json);
            }
            other => panic!("wrong command {other:?}"),
        }
        for retired in ["--connectivity csr", "-c adj"] {
            let line = format!("partition app.hgr --parts 8 {retired}");
            assert!(matches!(
                Cli::parse(argv(&line)).unwrap_err(),
                ParseError::UnknownOption(_)
            ));
        }
    }

    #[test]
    fn parses_parallel_mode_on_partition_and_lowmem() {
        match Cli::parse(argv(
            "partition app.hgr --parts 8 -a parallel-basic --threads 4 --parallel-mode steal",
        ))
        .unwrap()
        .command
        {
            Command::Partition { parallel_mode, .. } => {
                assert_eq!(parallel_mode, ParallelMode::WorkStealing);
            }
            other => panic!("wrong command {other:?}"),
        }
        match Cli::parse(argv(
            "lowmem big.hgr --parts 8 --threads 0 --parallel-mode steal",
        ))
        .unwrap()
        .command
        {
            Command::LowMem {
                parallel_mode,
                threads,
                ..
            } => {
                assert_eq!(parallel_mode, ParallelMode::WorkStealing);
                assert_eq!(threads, 0, "0 reaches the facade's auto-detect");
            }
            other => panic!("wrong command {other:?}"),
        }
        match Cli::parse(argv("lowmem big.hgr --parts 8"))
            .unwrap()
            .command
        {
            Command::LowMem { parallel_mode, .. } => {
                assert_eq!(parallel_mode, ParallelMode::Bsp);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Cli::parse(argv("partition app.hgr --parts 8 --parallel-mode chaotic")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn partition_requires_parts() {
        let err = Cli::parse(argv("partition app.hgr")).unwrap_err();
        assert!(matches!(err, ParseError::MissingValue(_)));
    }

    #[test]
    fn parses_lowmem_with_defaults_and_overrides() {
        let cli = Cli::parse(argv("lowmem big.hgr --parts 32")).unwrap();
        match cli.command {
            Command::LowMem {
                parts,
                budget_mib,
                exact,
                restream,
                passes,
                rebuild_sketches,
                threads,
                json,
                ..
            } => {
                assert_eq!(parts, 32);
                assert_eq!(budget_mib, 64);
                assert!(!exact);
                assert_eq!(restream, None);
                assert_eq!(passes, 1);
                assert!(!rebuild_sketches);
                assert_eq!(threads, 1);
                assert!(!json);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = Cli::parse(argv(
            "lowmem big.hgr -p 8 -b 16 --exact --restream 500 --passes 3 --rebuild-sketches \
             --threads 4 -m flat --seed 3 -o out.txt --json",
        ))
        .unwrap();
        match cli.command {
            Command::LowMem {
                budget_mib,
                exact,
                restream,
                passes,
                rebuild_sketches,
                threads,
                machine,
                seed,
                output,
                json,
                ..
            } => {
                assert_eq!(budget_mib, 16);
                assert!(exact);
                assert_eq!(restream, Some(500));
                assert_eq!(passes, 3);
                assert!(rebuild_sketches);
                assert_eq!(threads, 4);
                assert_eq!(machine, MachinePreset::Flat);
                assert_eq!(seed, 3);
                assert_eq!(output, Some(PathBuf::from("out.txt")));
                assert!(json);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Cli::parse(argv("lowmem big.hgr")).unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn parses_lowmem_format_and_prefetch_flags() {
        match Cli::parse(argv("lowmem big.hpz --parts 8"))
            .unwrap()
            .command
        {
            Command::LowMem {
                format,
                no_prefetch,
                ..
            } => {
                assert_eq!(format, StreamFormat::Auto);
                assert!(!no_prefetch);
            }
            other => panic!("wrong command {other:?}"),
        }
        match Cli::parse(argv(
            "lowmem big.hgr -p 8 --format compressed --no-prefetch",
        ))
        .unwrap()
        .command
        {
            Command::LowMem {
                format,
                no_prefetch,
                ..
            } => {
                assert_eq!(format, StreamFormat::Compressed);
                assert!(no_prefetch);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Cli::parse(argv("lowmem big.hgr -p 8 --format zip")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn parses_convert_and_generate() {
        assert_eq!(
            Cli::parse(argv("convert in.hgr out.hpz")).unwrap().command,
            Command::Convert {
                input: PathBuf::from("in.hgr"),
                output: PathBuf::from("out.hpz"),
                block_bytes: 64 * 1024,
            }
        );
        assert_eq!(
            Cli::parse(argv("convert in.hgr out.hpz --block-bytes 4096"))
                .unwrap()
                .command,
            Command::Convert {
                input: PathBuf::from("in.hgr"),
                output: PathBuf::from("out.hpz"),
                block_bytes: 4096,
            }
        );
        assert!(matches!(
            Cli::parse(argv("convert in.hgr")).unwrap_err(),
            ParseError::MissingArgument(_)
        ));
        assert_eq!(
            Cli::parse(argv(
                "generate mesh.hgr --vertices 500 --cardinality 8 --seed 3"
            ))
            .unwrap()
            .command,
            Command::Generate {
                output: PathBuf::from("mesh.hgr"),
                vertices: 500,
                cardinality: 8,
                seed: 3,
            }
        );
    }

    #[test]
    fn parses_profile_and_benchmark() {
        let cli = Cli::parse(argv("profile --machine flat --procs 32")).unwrap();
        assert!(matches!(
            cli.command,
            Command::Profile {
                machine: MachinePreset::Flat,
                procs: 32,
                output: None
            }
        ));
        let cli = Cli::parse(argv("benchmark a.hgr parts.txt --bytes 64 --supersteps 5")).unwrap();
        match cli.command {
            Command::Benchmark {
                message_bytes,
                supersteps,
                ..
            } => {
                assert_eq!(message_bytes, 64);
                assert_eq!(supersteps, 5);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn parses_serve() {
        let cli = Cli::parse(argv("serve")).unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                bind: "127.0.0.1:7700".into(),
                stdio: false,
                state_dir: None,
                max_line_bytes: 16 * 1024 * 1024,
                read_timeout_secs: 30,
                snapshot_every: 64,
                metrics_addr: None,
            }
        );
        let cli = Cli::parse(argv(
            "serve --bind 0.0.0.0:9000 --stdio --state-dir /tmp/hp-state \
             --max-line-bytes 1024 --read-timeout-secs 5 --snapshot-every 8 \
             --metrics-addr 127.0.0.1:9100",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve {
                bind: "0.0.0.0:9000".into(),
                stdio: true,
                state_dir: Some(PathBuf::from("/tmp/hp-state")),
                max_line_bytes: 1024,
                read_timeout_secs: 5,
                snapshot_every: 8,
                metrics_addr: Some("127.0.0.1:9100".into()),
            }
        );
        assert!(matches!(
            Cli::parse(argv("serve --port 1")).unwrap_err(),
            ParseError::UnknownOption(_)
        ));
        assert!(matches!(
            Cli::parse(argv("serve --max-line-bytes lots")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn rejects_unknown_commands_options_and_values() {
        assert!(matches!(
            Cli::parse(argv("frobnicate x")).unwrap_err(),
            ParseError::UnknownCommand(_)
        ));
        assert!(matches!(
            Cli::parse(argv("partition a.hgr --parts 4 --bogus 1")).unwrap_err(),
            ParseError::UnknownOption(_)
        ));
        assert!(matches!(
            Cli::parse(argv("partition a.hgr --parts four")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        assert!(matches!(
            Cli::parse(argv("partition a.hgr --parts 4 -a quantum")).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        assert_eq!(
            Cli::parse(std::iter::empty()).unwrap_err(),
            ParseError::MissingCommand
        );
    }

    #[test]
    fn help_flag_short_circuits() {
        assert_eq!(
            Cli::parse(argv("partition --help")).unwrap_err(),
            ParseError::HelpRequested
        );
        assert!(usage().contains("USAGE"));
        assert!(usage().contains("--json"));
    }
}
