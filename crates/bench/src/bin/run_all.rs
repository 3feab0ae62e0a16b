//! Runs every experiment binary in sequence with a shared configuration.
//!
//! ```text
//! cargo run --release -p hyperpraw-bench --bin run_all
//! ```
//!
//! This is the one-command reproduction entry point referenced by
//! EXPERIMENTS.md. Set `HYPERPRAW_SCALE` / `HYPERPRAW_PROCS` to trade
//! fidelity against runtime.
//!
//! Besides the per-experiment CSV artefacts, the wall-clock time of every
//! *prebuilt* binary is recorded in `BENCH_run_all.json` (binary →
//! seconds) under the experiment output directory, so the end-to-end
//! reproduction cost is tracked across PRs the same way `cargo bench`
//! medians are tracked in `target/BENCH_<bench>.json`. Binaries launched
//! through the `cargo run` fallback are excluded — their wall clock would
//! include an unbounded compile step.

use std::process::Command;
use std::time::Instant;

use hyperpraw::json::{self, ToJson};
use hyperpraw_bench::ExperimentConfig;

fn main() {
    let bins = [
        "table1",
        "fig1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "ablation",
        "lowmem_compare",
    ];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()));
    let mut timings: Vec<(&str, f64)> = Vec::new();
    for bin in bins {
        println!("\n================================================================");
        println!("== running {bin}");
        println!("================================================================\n");
        let started = Instant::now();
        // Prefer the sibling binary (already built); fall back to cargo run.
        // Only prebuilt runs are recorded in the timing artefact — the
        // fallback's wall clock includes an unbounded compile step, which
        // would make the seconds incomparable across PRs.
        let prebuilt = exe_dir.as_ref().map(|d| d.join(bin)).filter(|p| p.exists());
        let timed = prebuilt.is_some();
        let status = match prebuilt {
            Some(path) => Command::new(path).status(),
            None => Command::new("cargo")
                .args(["run", "--release", "-p", "hyperpraw-bench", "--bin", bin])
                .status(),
        };
        match status {
            Ok(s) if s.success() => {
                if timed {
                    timings.push((bin, started.elapsed().as_secs_f64()));
                }
            }
            Ok(s) => {
                eprintln!("{bin} exited with {s}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("failed to launch {bin}: {e}");
                std::process::exit(1);
            }
        }
    }

    let out_dir = ExperimentConfig::from_env().output_dir;
    // Nothing timed (every bin went through the cargo-run fallback): keep
    // whatever a previous prebuilt run recorded instead of clobbering it
    // with an empty object.
    if timings.is_empty() {
        println!("\nno prebuilt binaries were timed; BENCH_run_all.json left untouched");
    } else {
        let mut doc = String::from("{\n");
        for (i, (bin, secs)) in timings.iter().enumerate() {
            doc.push_str(if i == 0 { "  " } else { ",\n  " });
            bin.write_json(&mut doc);
            doc.push_str(": ");
            json::round3(*secs).write_json(&mut doc);
        }
        doc.push_str("\n}\n");
        let path = out_dir.join("BENCH_run_all.json");
        match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, doc)) {
            Ok(()) => println!("\nper-experiment timings written to {}", path.display()),
            Err(e) => eprintln!("\nwarning: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "all experiments completed; CSV artefacts are under {}",
        out_dir.display()
    );
}
