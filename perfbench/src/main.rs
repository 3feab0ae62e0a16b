//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//!
//! Prints the host and build stamp, a human-readable summary and, as the
//! last line, the result JSON. With `--trace 1` the spans are written to
//! standard error. `perfbench stage ...` is the child process that
//! generates a run's inputs, and `perfbench convert IN.hgr OUT.hpz` the one
//! that converts them for `web_lowmem`.

use std::process::{Command, ExitCode, Stdio};

use perfbench::metrics::{result_line, END_TO_END};
use perfbench::trace::Tracer;
use perfbench::util::{stamp_json, RunDir, Tally};
use perfbench::{batch, convert, serve, stage, Config, Sizes, Workload};

struct Args {
    stage_dir: Option<String>,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        stage_dir: None,
        workload: Workload::CubesSeq,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    if argv.first().map(String::as_str) == Some("stage") {
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--dir" => args.stage_dir = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, hgr, hpz] = argv.as_slice() {
        if cmd == "convert" {
            return match convert(hgr.as_ref(), hpz.as_ref()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench convert: {e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.smoke {
        Sizes::smoke()
    } else {
        Sizes::full()
    };
    if let Some(dir) = &args.stage_dir {
        return match stage(args.workload, args.seed, &sizes, dir.as_ref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench stage: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizes,
    };
    println!(
        "{{\"stamp\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        stamp_json(),
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace
    );

    let dir = match RunDir::create(&format!("{}-{}", cfg.workload.name(), cfg.seed)) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: cannot create the staging directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The inputs are generated by a child process; the measuring process
    // sees only the staged files.
    let mut child = Command::new(std::env::current_exe().expect("own executable path"));
    child
        .args(["stage", "--workload", cfg.workload.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .arg("--dir")
        .arg(dir.path())
        .stdout(Stdio::null());
    if args.smoke {
        child.arg("--smoke");
    }
    match child.status() {
        Ok(status) if status.success() => {}
        other => {
            eprintln!("perfbench: staging the inputs failed: {other:?}");
            return ExitCode::FAILURE;
        }
    }

    let tracer = Tracer::new(cfg.trace);
    let (mut tally, values): (Tally, _) = match cfg.workload {
        Workload::ServeMixed => serve::run(&cfg, &dir, &tracer),
        _ => batch::run(&cfg, &dir, &tracer),
    };
    drop(dir);
    if tally.attempted == 0 {
        tally.op(Err("no operation ran".into()));
    }
    for msg in &tally.failures {
        eprintln!("perfbench: check failed: {msg}");
    }
    if cfg.trace {
        let _ = tracer.dump(&mut std::io::stderr().lock());
    }
    if !cfg.trace && END_TO_END.iter().any(|s| values.get(s.name).is_none()) {
        // The run broke before it measured everything: no result line.
        eprintln!("perfbench: the run stopped before it measured every metric");
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&mut tally, &values, cfg.trace));
    ExitCode::SUCCESS
}
