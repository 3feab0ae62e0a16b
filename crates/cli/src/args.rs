//! Command-line parsing for the `hyperpraw` tool, driven by one
//! declarative table per subcommand.
//!
//! Each subcommand is one `Spec` entry in the `SPECS` table: its
//! positionals and its flags, each flag declared once as a `Flag` (long
//! name, optional short alias, value placeholder or switch). One generic loop parses argv
//! against the spec and [`usage`] renders `--help` from the same table, so
//! the two cannot drift apart. The table holds syntax only; checks that
//! depend on the values live in [`crate::commands`].
//!
//! Algorithm selection parses straight into the facade's [`Algorithm`]
//! type — the CLI owns no partitioner enums of its own.

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

use hyperpraw::api::Algorithm;

use crate::serve::ServeOptions;

/// Machine model preset selectable from the command line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MachinePreset {
    /// ARCHER-like Cray hierarchy (the paper's testbed).
    #[default]
    Archer,
    /// Dual-socket commodity cluster.
    Cluster,
    /// Cloud-like oversubscribed tiers.
    Cloud,
    /// Homogeneous (flat) network.
    Flat,
}

impl MachinePreset {
    pub(crate) fn parse(s: &str) -> Option<Self> {
        match s {
            "archer" => Some(Self::Archer),
            "cluster" => Some(Self::Cluster),
            "cloud" => Some(Self::Cloud),
            "flat" => Some(Self::Flat),
            _ => None,
        }
    }
}

/// How the `lowmem` subcommand reads its input stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StreamFormat {
    /// Sniff the file: compressed when it carries the `.hpz` magic,
    /// the on-disk transpose reader otherwise.
    #[default]
    Auto,
    /// Force the uncompressed transpose reader (`.hgr` / edge list).
    Transpose,
    /// Force the block-compressed CSR reader; `.hgr` / edge-list inputs
    /// are converted to a temporary compressed file first.
    Compressed,
}

impl StreamFormat {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(Self::Auto),
            "transpose" => Some(Self::Transpose),
            "compressed" => Some(Self::Compressed),
            _ => None,
        }
    }
}

/// The seed every seeded subcommand defaults to.
const DEFAULT_SEED: u64 = 2019;

/// A parsed invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct Cli {
    /// The subcommand to execute.
    pub command: Command,
}

/// Subcommands of the tool, each carrying its parsed arguments.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print the statistics of a hypergraph file (Table 1 style).
    Stats(StatsArgs),
    /// Partition a hypergraph file.
    Partition(PartitionArgs),
    /// Partition a hypergraph file in streaming passes under a memory
    /// budget (`hyperpraw-lowmem`), without loading it into RAM.
    LowMem(LowMemArgs),
    /// Convert a hypergraph file to the block-compressed CSR format.
    Convert(ConvertArgs),
    /// Generate a synthetic mesh hypergraph and write it as `.hgr`.
    Generate(GenerateArgs),
    /// Profile a machine preset and write its bandwidth matrix as CSV.
    Profile(ProfileArgs),
    /// Run a long-lived partitioning daemon speaking newline-delimited
    /// JSON: `partition`, `update`, `lookup`, `report` and `shutdown`
    /// requests against a resident dynamic session.
    Serve(ServeOptions),
    /// Run the synthetic benchmark for an existing assignment.
    Benchmark(BenchmarkArgs),
}

/// Arguments of `stats`.
#[derive(Clone, Debug, PartialEq)]
pub struct StatsArgs {
    /// Input file (`.hgr`, `.mtx` or edge list).
    pub input: PathBuf,
}

/// The arguments `partition` and `lowmem` share: the job every
/// partitioning run configures, and where its report goes.
#[derive(Clone, Debug, PartialEq)]
pub struct JobArgs {
    /// Input file (`.hgr`, `.mtx` or edge list; `lowmem` cannot stream
    /// `.mtx`).
    pub input: PathBuf,
    /// Number of partitions (compute units).
    pub parts: u32,
    /// Machine preset used to derive the cost matrix.
    pub machine: MachinePreset,
    /// Worker threads (`None` keeps the driver's default; `0`
    /// auto-detects the machine parallelism). `lowmem` defaults to 1.
    pub threads: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Where to write the assignment (one partition id per line).
    pub output: Option<PathBuf>,
    /// Emit the `PartitionReport` as JSON on stdout instead of the text
    /// summary.
    pub json: bool,
    /// Also write the JSON report to this path.
    pub json_out: Option<PathBuf>,
    /// Dump the run's telemetry registry as JSON to this path.
    pub metrics_out: Option<PathBuf>,
}

/// Arguments of `partition`.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionArgs {
    /// The shared job arguments.
    pub job: JobArgs,
    /// Algorithm to use (any facade [`Algorithm`]).
    pub algorithm: Algorithm,
    /// Imbalance tolerance.
    pub imbalance: f64,
}

/// Arguments of `lowmem`.
#[derive(Clone, Debug, PartialEq)]
pub struct LowMemArgs {
    /// The shared job arguments.
    pub job: JobArgs,
    /// Sketch/buffer memory budget in mebibytes.
    pub budget_mib: usize,
    /// Use the exact (unbounded-memory) connectivity index instead of the
    /// Bloom/MinHash sketches.
    pub exact: bool,
    /// Number of lowest-confidence assignments to revisit; `None` derives
    /// it from the budget.
    pub restream: Option<usize>,
    /// Number of streaming passes over the input (out-of-core restreaming
    /// when above 1).
    pub passes: usize,
    /// Rebuild the sketches between passes to shed staleness.
    pub rebuild_sketches: bool,
    /// How to read the input stream (transpose vs compressed CSR).
    pub format: StreamFormat,
    /// Disable background block prefetch on the compressed path.
    pub no_prefetch: bool,
}

/// Arguments of `convert`.
#[derive(Clone, Debug, PartialEq)]
pub struct ConvertArgs {
    /// Input file (`.hgr` or edge list).
    pub input: PathBuf,
    /// Output `.hpz` path.
    pub output: PathBuf,
    /// Target encoded bytes per block.
    pub block_bytes: u32,
}

/// Arguments of `generate`.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateArgs {
    /// Output `.hgr` path.
    pub output: PathBuf,
    /// Number of vertices.
    pub vertices: usize,
    /// Target hyperedge cardinality.
    pub cardinality: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Arguments of `profile`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileArgs {
    /// Machine preset.
    pub machine: MachinePreset,
    /// Number of compute units.
    pub procs: usize,
    /// Output CSV path (stdout when absent).
    pub output: Option<PathBuf>,
}

/// Arguments of `benchmark`.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkArgs {
    /// Input hypergraph file.
    pub input: PathBuf,
    /// Assignment file (one partition id per line).
    pub assignment: PathBuf,
    /// Machine preset.
    pub machine: MachinePreset,
    /// Message payload in bytes.
    pub message_bytes: u64,
    /// Number of supersteps.
    pub supersteps: usize,
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

/// One flag of a subcommand: its `--long` name, its `-s` alias (`""` for
/// none) and the value placeholder `--help` shows (`""` for a switch). A
/// choice's placeholder lists its values as `a | b`; its parse errors name
/// that list.
#[derive(Debug)]
struct Flag {
    long: &'static str,
    short: &'static str,
    value: &'static str,
}

const fn flag(long: &'static str, short: &'static str, value: &'static str) -> Flag {
    Flag { long, short, value }
}

impl Flag {
    /// `--long|-s VALUE`, bracketed unless `required`.
    fn synopsis(&self, required: bool) -> String {
        let short = if self.short.is_empty() {
            String::new()
        } else {
            format!("|{}", self.short)
        };
        let word = format!("{}{short} {}", self.long, self.value.replace(" | ", "|"));
        if required {
            word.trim_end().to_string()
        } else {
            format!("[{}]", word.trim_end())
        }
    }
}

/// One subcommand: its positionals (which precede every flag), the flag
/// that must be given (`""` for none), its flag groups, and the function
/// turning its parsed tokens into a [`Command`].
struct Spec {
    name: &'static str,
    positionals: &'static [&'static str],
    required: &'static str,
    flags: &'static [&'static [Flag]],
    build: fn(&Matches<'_>) -> Result<Command, ParseError>,
}

const MACHINE: Flag = flag("--machine", "-m", "archer | cluster | cloud | flat");

/// The flags `partition` and `lowmem` share, parsed into [`JobArgs`].
const JOB_FLAGS: &[Flag] = &[
    flag("--parts", "-p", "N"),
    MACHINE,
    flag("--threads", "-t", "N|0=auto"),
    flag("--seed", "", "N"),
    flag("--output", "-o", "PATH"),
    flag("--json", "", ""),
    flag("--json-out", "", "PATH"),
    flag("--metrics-out", "", "PATH"),
];

/// Every subcommand, in `--help` order. Each `build` reads the flags its
/// spec declares, with their defaults.
static SPECS: [Spec; 8] = [
    Spec {
        name: "stats",
        positionals: &["input"],
        required: "",
        flags: &[],
        build: |m| {
            Ok(Command::Stats(StatsArgs {
                input: m.positional(0),
            }))
        },
    },
    Spec {
        name: "partition",
        positionals: &["input"],
        required: "--parts",
        flags: &[
            JOB_FLAGS,
            &[
                flag("--algorithm", "-a", Algorithm::expected_names()),
                flag("--imbalance", "", "X"),
            ],
        ],
        build: |m| {
            Ok(Command::Partition(PartitionArgs {
                job: m.job(None)?,
                algorithm: m
                    .parse("--algorithm", |s| Algorithm::parse(s).ok())?
                    .unwrap_or(Algorithm::HyperPrawAware),
                imbalance: m.get("--imbalance")?.unwrap_or(1.1),
            }))
        },
    },
    Spec {
        name: "lowmem",
        positionals: &["input"],
        required: "--parts",
        flags: &[
            JOB_FLAGS,
            &[
                flag("--budget-mib", "-b", "MIB"),
                flag("--exact", "", ""),
                flag("--restream", "", "K"),
                flag("--passes", "", "N"),
                flag("--rebuild-sketches", "", ""),
                flag("--format", "-f", "auto | transpose | compressed"),
                flag("--no-prefetch", "", ""),
            ],
        ],
        build: |m| {
            Ok(Command::LowMem(LowMemArgs {
                job: m.job(Some(1))?,
                budget_mib: m.get("--budget-mib")?.unwrap_or(64),
                exact: m.switch("--exact"),
                restream: m.get("--restream")?,
                passes: m.get("--passes")?.unwrap_or(1),
                rebuild_sketches: m.switch("--rebuild-sketches"),
                format: m
                    .parse("--format", StreamFormat::parse)?
                    .unwrap_or_default(),
                no_prefetch: m.switch("--no-prefetch"),
            }))
        },
    },
    Spec {
        name: "convert",
        positionals: &["input", "output.hpz"],
        required: "",
        flags: &[&[flag("--block-bytes", "", "N")]],
        build: |m| {
            Ok(Command::Convert(ConvertArgs {
                input: m.positional(0),
                output: m.positional(1),
                block_bytes: m.get("--block-bytes")?.unwrap_or(64 * 1024),
            }))
        },
    },
    Spec {
        name: "generate",
        positionals: &["output.hgr"],
        required: "",
        flags: &[&[
            flag("--vertices", "-n", "N"),
            flag("--cardinality", "-c", "N"),
            flag("--seed", "", "N"),
        ]],
        build: |m| {
            Ok(Command::Generate(GenerateArgs {
                output: m.positional(0),
                vertices: m.get("--vertices")?.unwrap_or(10_000),
                cardinality: m.get("--cardinality")?.unwrap_or(16),
                seed: m.get("--seed")?.unwrap_or(DEFAULT_SEED),
            }))
        },
    },
    Spec {
        name: "profile",
        positionals: &[],
        required: "--procs",
        flags: &[&[
            MACHINE,
            flag("--procs", "-n", "N"),
            flag("--output", "-o", "PATH"),
        ]],
        build: |m| {
            Ok(Command::Profile(ProfileArgs {
                machine: m.machine()?,
                procs: m.get("--procs")?.unwrap_or_default(),
                output: m.get("--output")?,
            }))
        },
    },
    Spec {
        name: "benchmark",
        positionals: &["input", "assignment"],
        required: "",
        flags: &[&[
            MACHINE,
            flag("--bytes", "", "N"),
            flag("--supersteps", "", "N"),
        ]],
        build: |m| {
            Ok(Command::Benchmark(BenchmarkArgs {
                input: m.positional(0),
                assignment: m.positional(1),
                machine: m.machine()?,
                message_bytes: m.get("--bytes")?.unwrap_or(1024),
                supersteps: m.get("--supersteps")?.unwrap_or(1),
            }))
        },
    },
    Spec {
        name: "serve",
        positionals: &[],
        required: "",
        flags: &[&[
            flag("--bind", "", "ADDR"),
            flag("--stdio", "", ""),
            flag("--state-dir", "", "DIR"),
            flag("--max-line-bytes", "", "N"),
            flag("--read-timeout-secs", "", "N"),
            flag("--snapshot-every", "", "N"),
            flag("--metrics-addr", "", "ADDR"),
        ]],
        build: |m| {
            let d = ServeOptions::default();
            Ok(Command::Serve(ServeOptions {
                bind: m.get("--bind")?.unwrap_or(d.bind),
                stdio: d.stdio || m.switch("--stdio"),
                state_dir: m.get("--state-dir")?.or(d.state_dir),
                max_line_bytes: m.get("--max-line-bytes")?.unwrap_or(d.max_line_bytes),
                read_timeout_secs: m.get("--read-timeout-secs")?.unwrap_or(d.read_timeout_secs),
                snapshot_every: m.get("--snapshot-every")?.unwrap_or(d.snapshot_every),
                metrics_addr: m.get("--metrics-addr")?.or(d.metrics_addr),
            }))
        },
    },
];

/// The prose after the generated synopsis of `--help`.
const ABOUT: &str = "\
All algorithms dispatch through the facade's unified PartitionJob API; --json emits the
common PartitionReport as machine-readable JSON on one line.
serve keeps a dynamic session resident and answers one JSON request per line:
  {\"op\":\"partition\",...} {\"op\":\"update\",...} {\"op\":\"lookup\",...} {\"op\":\"report\"} {\"op\":\"shutdown\"}
With --state-dir every accepted update batch is journaled (fsynced) before it is
acknowledged and snapshots fold the journal in; on restart the daemon recovers the
session bit-identically, truncating any torn journal tail.
Input formats: hMetis .hgr, MatrixMarket .mtx (row-net model), anything else is read
as a whitespace edge list (one hyperedge per line, 0-based vertex ids).
convert writes the block-compressed vertex-major CSR (.hpz); lowmem streams it directly
(--format auto sniffs the magic) with a background prefetch thread decoding the next
block while the engine consumes the current one.";

/// The usage text printed by `--help` and on parse errors: one synopsis
/// per subcommand rendered from the `SPECS` table, then the prose.
pub fn usage() -> String {
    let indent = " ".repeat("  hyperpraw benchmark".len());
    let mut out = String::from(
        "hyperpraw — architecture-aware hypergraph partitioning (ICPP 2019 reproduction)\n\n\
         USAGE:\n",
    );
    for spec in &SPECS {
        let positionals = spec.positionals.iter().map(|p| format!("<{p}>"));
        let flags = spec.flags().map(|f| f.synopsis(f.long == spec.required));
        let mut line = format!("  hyperpraw {:<9}", spec.name);
        for word in positionals.chain(flags) {
            if line.len() > indent.len() && line.len() + 1 + word.len() > 92 {
                out += &line;
                out.push('\n');
                line = indent.clone();
            }
            line += " ";
            line += &word;
        }
        out += &line;
        out.push('\n');
    }
    out + "\n" + ABOUT
}

impl Spec {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        let groups: &'static [&'static [Flag]] = self.flags;
        groups.iter().flat_map(|group| group.iter())
    }

    fn flag(&self, token: &str) -> Option<&'static Flag> {
        self.flags()
            .find(|f| f.long == token || (!f.short.is_empty() && f.short == token))
    }

    /// Sorts `rest` (the tokens after the subcommand) into positionals
    /// and flags, checking syntax only: the positionals come first, every
    /// flag is declared, every value flag has a value that is not itself
    /// a flag, and the required flag is present.
    fn matches<'a>(&'static self, rest: &'a [String]) -> Result<Matches<'a>, ParseError> {
        let mut positionals = Vec::new();
        for (i, name) in self.positionals.iter().enumerate() {
            match rest.get(i) {
                Some(arg) if !arg.starts_with('-') => positionals.push(arg.as_str()),
                _ => return Err(ParseError::MissingArgument(name.to_string())),
            }
        }
        let mut options = Vec::new();
        let mut tokens = rest[positionals.len()..].iter();
        while let Some(token) = tokens.next() {
            let flag = self
                .flag(token)
                .ok_or_else(|| ParseError::UnknownOption(token.clone()))?;
            let value = if flag.value.is_empty() {
                ""
            } else {
                match tokens.next() {
                    Some(v) if !v.starts_with("--") && self.flag(v).is_none() => v.as_str(),
                    _ => return Err(ParseError::MissingValue(token.clone())),
                }
            };
            options.push((flag, token.as_str(), value));
        }
        let matches = Matches {
            spec: self,
            positionals,
            options,
        };
        if !self.required.is_empty() && !matches.switch(self.required) {
            return Err(ParseError::MissingValue(self.required.into()));
        }
        Ok(matches)
    }
}

/// The tokens of one invocation sorted against its [`Spec`]: the
/// positionals in order, and each flag occurrence with its spelling and
/// value (empty for a switch).
struct Matches<'a> {
    spec: &'static Spec,
    positionals: Vec<&'a str>,
    options: Vec<(&'static Flag, &'a str, &'a str)>,
}

impl Matches<'_> {
    fn positional(&self, i: usize) -> PathBuf {
        PathBuf::from(self.positionals[i])
    }

    /// Whether `long` was given.
    fn switch(&self, long: &str) -> bool {
        self.options.iter().any(|(f, ..)| f.long == long)
    }

    /// The last value given for `long`, read with `parse`; every
    /// occurrence must parse.
    fn parse<T>(
        &self,
        long: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, ParseError> {
        debug_assert!(self.spec.flag(long).is_some(), "{long} is undeclared");
        let mut last = None;
        for (flag, spelled, value) in self.options.iter().filter(|(f, ..)| f.long == long) {
            let expected = if flag.value.contains(" | ") {
                flag.value
            } else {
                "a number"
            };
            last = Some(parse(value).ok_or_else(|| ParseError::InvalidValue {
                option: spelled.to_string(),
                value: value.to_string(),
                expected: expected.into(),
            })?);
        }
        Ok(last)
    }

    /// A number, path or string value.
    fn get<T: FromStr>(&self, long: &str) -> Result<Option<T>, ParseError> {
        self.parse(long, |v| v.parse().ok())
    }

    fn machine(&self) -> Result<MachinePreset, ParseError> {
        Ok(self
            .parse("--machine", MachinePreset::parse)?
            .unwrap_or_default())
    }

    /// The [`JOB_FLAGS`], with `threads` as the `--threads` default.
    fn job(&self, threads: Option<usize>) -> Result<JobArgs, ParseError> {
        Ok(JobArgs {
            input: self.positional(0),
            parts: self.get("--parts")?.unwrap_or_default(),
            machine: self.machine()?,
            threads: self.get("--threads")?.or(threads),
            seed: self.get("--seed")?.unwrap_or(DEFAULT_SEED),
            output: self.get("--output")?,
            json: self.switch("--json"),
            json_out: self.get("--json-out")?,
            metrics_out: self.get("--metrics-out")?,
        })
    }
}

impl Cli {
    /// Parses an argument vector (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Self, ParseError> {
        let args: Vec<String> = argv.into_iter().collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            return Err(ParseError::HelpRequested);
        }
        let (name, rest) = args.split_first().ok_or(ParseError::MissingCommand)?;
        let spec = SPECS
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| ParseError::UnknownCommand(name.clone()))?;
        let command = (spec.build)(&spec.matches(rest)?)?;
        Ok(Self { command })
    }
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
            Command::Stats(StatsArgs {
                input: PathBuf::from("graph.hgr")
            })
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
            Command::Partition(PartitionArgs {
                job:
                    JobArgs {
                        input,
                        parts,
                        machine,
                        threads,
                        seed,
                        output,
                        json,
                        json_out,
                        metrics_out,
                    },
                algorithm,
                imbalance,
            }) => {
                assert_eq!(input, PathBuf::from("app.hgr"));
                assert_eq!(parts, 96);
                assert_eq!(algorithm, Algorithm::MultilevelBaseline);
                assert_eq!(machine, MachinePreset::Cloud);
                assert!((imbalance - 1.05).abs() < 1e-12);
                assert_eq!(threads, Some(3));
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
                Command::Partition(PartitionArgs { algorithm: got, .. }) => {
                    assert_eq!(got, algorithm)
                }
                other => panic!("wrong command {other:?}"),
            }
        }
    }

    #[test]
    fn partition_defaults_and_rejects_the_retired_connectivity_flag() {
        let cli = Cli::parse(argv("partition app.hgr --parts 8")).unwrap();
        match cli.command {
            Command::Partition(PartitionArgs { algorithm, job, .. }) => {
                assert_eq!(algorithm, Algorithm::HyperPrawAware);
                assert!(!job.json);
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
    fn parses_threads_on_partition_and_lowmem() {
        match Cli::parse(argv(
            "partition app.hgr --parts 8 -a parallel-basic --threads 4",
        ))
        .unwrap()
        .command
        {
            Command::Partition(PartitionArgs { job, .. }) => {
                assert_eq!(job.threads, Some(4));
            }
            other => panic!("wrong command {other:?}"),
        }
        match Cli::parse(argv("lowmem big.hgr --parts 8 --threads 0"))
            .unwrap()
            .command
        {
            Command::LowMem(LowMemArgs { job, .. }) => {
                assert_eq!(job.threads, Some(0), "0 reaches the facade's auto-detect");
            }
            other => panic!("wrong command {other:?}"),
        }
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
            Command::LowMem(LowMemArgs {
                job,
                budget_mib,
                exact,
                restream,
                passes,
                rebuild_sketches,
                ..
            }) => {
                assert_eq!(job.parts, 32);
                assert_eq!(budget_mib, 64);
                assert!(!exact);
                assert_eq!(restream, None);
                assert_eq!(passes, 1);
                assert!(!rebuild_sketches);
                assert_eq!(job.threads, Some(1));
                assert!(!job.json);
            }
            other => panic!("wrong command {other:?}"),
        }
        let cli = Cli::parse(argv(
            "lowmem big.hgr -p 8 -b 16 --exact --restream 500 --passes 3 --rebuild-sketches \
             --threads 4 -m flat --seed 3 -o out.txt --json",
        ))
        .unwrap();
        match cli.command {
            Command::LowMem(LowMemArgs {
                job,
                budget_mib,
                exact,
                restream,
                passes,
                rebuild_sketches,
                ..
            }) => {
                assert_eq!(budget_mib, 16);
                assert!(exact);
                assert_eq!(restream, Some(500));
                assert_eq!(passes, 3);
                assert!(rebuild_sketches);
                assert_eq!(job.threads, Some(4));
                assert_eq!(job.machine, MachinePreset::Flat);
                assert_eq!(job.seed, 3);
                assert_eq!(job.output, Some(PathBuf::from("out.txt")));
                assert!(job.json);
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
            Command::LowMem(LowMemArgs {
                format,
                no_prefetch,
                ..
            }) => {
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
            Command::LowMem(LowMemArgs {
                format,
                no_prefetch,
                ..
            }) => {
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
            Command::Convert(ConvertArgs {
                input: PathBuf::from("in.hgr"),
                output: PathBuf::from("out.hpz"),
                block_bytes: 64 * 1024,
            })
        );
        assert_eq!(
            Cli::parse(argv("convert in.hgr out.hpz --block-bytes 4096"))
                .unwrap()
                .command,
            Command::Convert(ConvertArgs {
                input: PathBuf::from("in.hgr"),
                output: PathBuf::from("out.hpz"),
                block_bytes: 4096,
            })
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
            Command::Generate(GenerateArgs {
                output: PathBuf::from("mesh.hgr"),
                vertices: 500,
                cardinality: 8,
                seed: 3,
            })
        );
    }

    #[test]
    fn parses_profile_and_benchmark() {
        let cli = Cli::parse(argv("profile --machine flat --procs 32")).unwrap();
        assert!(matches!(
            cli.command,
            Command::Profile(ProfileArgs {
                machine: MachinePreset::Flat,
                procs: 32,
                output: None
            })
        ));
        let cli = Cli::parse(argv("benchmark a.hgr parts.txt --bytes 64 --supersteps 5")).unwrap();
        match cli.command {
            Command::Benchmark(BenchmarkArgs {
                message_bytes,
                supersteps,
                ..
            }) => {
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
            Command::Serve(ServeOptions {
                bind: "127.0.0.1:7700".into(),
                stdio: false,
                state_dir: None,
                max_line_bytes: 16 * 1024 * 1024,
                read_timeout_secs: 30,
                snapshot_every: 64,
                metrics_addr: None,
            })
        );
        let cli = Cli::parse(argv(
            "serve --bind 0.0.0.0:9000 --stdio --state-dir /tmp/hp-state \
             --max-line-bytes 1024 --read-timeout-secs 5 --snapshot-every 8 \
             --metrics-addr 127.0.0.1:9100",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Serve(ServeOptions {
                bind: "0.0.0.0:9000".into(),
                stdio: true,
                state_dir: Some(PathBuf::from("/tmp/hp-state")),
                max_line_bytes: 1024,
                read_timeout_secs: 5,
                snapshot_every: 8,
                metrics_addr: Some("127.0.0.1:9100".into()),
            })
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

    /// Parity pin: holds whatever shape `Command` takes, built only from
    /// `Cli::parse(a) == Cli::parse(b)` equalities.
    #[test]
    fn spellings_defaults_and_option_order_parse_identically() {
        let same = |a: &str, b: &str| {
            let (pa, pb) = (Cli::parse(argv(a)), Cli::parse(argv(b)));
            assert!(pa.is_ok(), "{a}: {pa:?}");
            assert_eq!(pa, pb, "\n  {a}\n  {b}");
        };
        // Every short alias equals its long spelling.
        let partition = "partition a.hgr --parts 4";
        for (short, long) in [
            ("-p 4", "--parts 4"),
            ("-a basic", "--algorithm basic"),
            ("-m flat", "--machine flat"),
            ("-t 2", "--threads 2"),
            ("-o out.txt", "--output out.txt"),
        ] {
            same(
                &format!("{partition} {short}"),
                &format!("{partition} {long}"),
            );
        }
        let lowmem = "lowmem a.hgr --parts 4";
        for (short, long) in [
            ("-p 4", "--parts 4"),
            ("-f compressed", "--format compressed"),
            ("-b 8", "--budget-mib 8"),
            ("-t 2", "--threads 2"),
            ("-m cloud", "--machine cloud"),
            ("-o out.txt", "--output out.txt"),
        ] {
            same(&format!("{lowmem} {short}"), &format!("{lowmem} {long}"));
        }
        same(
            "generate m.hgr -n 50 -c 4",
            "generate m.hgr --vertices 50 --cardinality 4",
        );
        same(
            "profile -m flat -n 8 -o bw.csv",
            "profile --machine flat --procs 8 --output bw.csv",
        );
        same(
            "benchmark a.hgr p.txt -m cloud",
            "benchmark a.hgr p.txt --machine cloud",
        );

        // Omitted defaults equal the same defaults spelled out.
        same(
            partition,
            "partition a.hgr --parts 4 --algorithm aware --machine archer --imbalance 1.1 \
             --seed 2019",
        );
        same(
            lowmem,
            "lowmem a.hgr --parts 4 --budget-mib 64 --passes 1 --threads 1 \
             --machine archer --seed 2019 --format auto",
        );
        same(
            "convert a.hgr a.hpz",
            "convert a.hgr a.hpz --block-bytes 65536",
        );
        same(
            "generate m.hgr",
            "generate m.hgr --vertices 10000 --cardinality 16 --seed 2019",
        );
        same("profile --procs 8", "profile --procs 8 --machine archer");
        same(
            "serve",
            "serve --bind 127.0.0.1:7700 --max-line-bytes 16777216 --read-timeout-secs 30 \
             --snapshot-every 64",
        );
        same(
            "benchmark a.hgr p.txt",
            "benchmark a.hgr p.txt --machine archer --bytes 1024 --supersteps 1",
        );

        // Option order does not matter.
        same(
            "partition a.hgr --parts 4 -a parallel -t 2 --json --json-out r.json -o o.txt \
             --metrics-out m.json --seed 5 --imbalance 1.05 -m cluster",
            "partition a.hgr -m cluster --imbalance 1.05 --seed 5 \
             --metrics-out m.json -o o.txt --json-out r.json --json -t 2 -a parallel --parts 4",
        );
        same(
            "lowmem a.hgr --parts 4 --exact --restream 9 --passes 2 --no-prefetch -f transpose \
             --json -o o.txt --json-out r.json --metrics-out m.json --seed 3 -t 0 -b 2",
            "lowmem a.hgr -b 2 -t 0 --seed 3 --metrics-out m.json --json-out r.json -o o.txt \
             --json -f transpose --no-prefetch --passes 2 --restream 9 --exact --parts 4",
        );
        same(
            "lowmem a.hgr --parts 4 --rebuild-sketches -m flat",
            "lowmem a.hgr -m flat --rebuild-sketches --parts 4",
        );
        same(
            "generate m.hgr --seed 4 -n 9 -c 3",
            "generate m.hgr -c 3 -n 9 --seed 4",
        );
        same(
            "serve --stdio --state-dir s --bind 0.0.0.0:1 --metrics-addr 127.0.0.1:2 \
             --snapshot-every 3 --read-timeout-secs 4 --max-line-bytes 5",
            "serve --max-line-bytes 5 --read-timeout-secs 4 --snapshot-every 3 \
             --metrics-addr 127.0.0.1:2 --bind 0.0.0.0:1 --state-dir s --stdio",
        );
        same(
            "benchmark a.hgr p.txt --bytes 8 --supersteps 2 -m flat",
            "benchmark a.hgr p.txt -m flat --supersteps 2 --bytes 8",
        );
        same(
            "profile --procs 8 -o x.csv -m cloud",
            "profile -m cloud -o x.csv --procs 8",
        );
    }

    #[test]
    fn an_option_never_takes_the_next_flag_as_its_value() {
        for line in [
            "partition s.hgr --parts 2 --json-out --json",
            "partition s.hgr --parts 2 -o --json",
        ] {
            let option = line.split_whitespace().nth(4).unwrap();
            assert_eq!(
                Cli::parse(argv(line)).unwrap_err(),
                ParseError::MissingValue(option.into()),
                "{line}"
            );
        }
    }

    #[test]
    fn stats_rejects_trailing_arguments() {
        assert_eq!(
            Cli::parse(argv("stats s.hgr --bogus extra")).unwrap_err(),
            ParseError::UnknownOption("--bogus".into())
        );
    }

    /// `--help` and the parser read the same table: every declared flag
    /// shows in its subcommand's synopsis, and every `--flag` a synopsis
    /// shows is one its subcommand accepts.
    #[test]
    fn usage_and_parser_agree_on_every_flag() {
        let text = usage();
        let synopsis = text.split("\n\n").nth(1).unwrap();
        let mut blocks: Vec<(&str, String)> = Vec::new();
        for line in synopsis.lines().skip(1) {
            match line.trim_start().strip_prefix("hyperpraw ") {
                Some(rest) => blocks.push((rest.split(' ').next().unwrap(), rest.to_string())),
                None => blocks.last_mut().unwrap().1.push_str(line),
            }
        }
        let names: Vec<&str> = blocks.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, SPECS.iter().map(|s| s.name).collect::<Vec<_>>());
        let mut pairs = 0;
        for ((name, block), spec) in blocks.iter().zip(&SPECS) {
            let words: Vec<&str> = block
                .split(|c: char| c.is_whitespace() || "[]|".contains(c))
                .collect();
            for flag in spec.flags() {
                pairs += 1;
                assert!(words.contains(&flag.long), "{name}: {}", flag.long);
                if !flag.short.is_empty() {
                    assert!(words.contains(&flag.short), "{name}: {}", flag.short);
                }
            }
            let positionals = spec.positionals.iter().map(|p| format!("{p}.x"));
            for word in words.iter().filter(|w| w.starts_with("--")) {
                let line: Vec<String> = std::iter::once(name.to_string())
                    .chain(positionals.clone())
                    .chain(std::iter::once(word.to_string()))
                    .collect();
                let parsed = Cli::parse(line.clone());
                assert!(
                    !matches!(parsed, Err(ParseError::UnknownOption(_))),
                    "{line:?}: {parsed:?}"
                );
            }
        }
        assert_eq!(pairs, 42, "(subcommand, flag) pairs");
        assert!(matches!(
            Cli::parse(argv("stats a.hgr --nope")),
            Err(ParseError::UnknownOption(_))
        ));
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
