//! Library backing the `hyperpraw` command-line tool.
//!
//! The CLI wraps the workspace crates so a hypergraph file can be
//! partitioned, inspected and benchmarked without writing Rust:
//!
//! ```text
//! hyperpraw stats      matrix.mtx
//! hyperpraw partition  app.hgr --parts 96 --algorithm aware --machine archer -o assignment.txt
//! hyperpraw profile    --machine archer --procs 144 -o bandwidth.csv
//! hyperpraw benchmark  app.hgr assignment.txt --machine archer
//! hyperpraw serve      --stdio
//! ```
//!
//! Argument parsing lives in [`args`]: one declarative flag table per
//! subcommand, read by both the generic parser and `--help`, with no
//! external dependency. The subcommand implementations live in
//! [`commands`]. Every partitioning invocation dispatches through the
//! facade's unified [`hyperpraw::api::PartitionJob`] — no per-driver wiring.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod args;
pub mod commands;
pub mod serve;

pub use args::{Cli, Command, MachinePreset, ParseError};
pub use hyperpraw::api::Algorithm;

/// Entry point shared by the binary and the integration tests: parses the
/// arguments and runs the selected subcommand, returning a process exit
/// code.
pub fn run<I: IntoIterator<Item = String>>(argv: I) -> i32 {
    match args::Cli::parse(argv) {
        Ok(cli) => match commands::execute(&cli) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(ParseError::HelpRequested) => {
            println!("{}", args::usage());
            0
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::usage());
            2
        }
    }
}
