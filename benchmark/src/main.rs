//! Command line of the repo benchmark. See `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use drom_benchmark::manifest::{self, DEFAULT_SEED, END_TO_END, RUN_SECONDS, WORKLOADS};
use drom_benchmark::run::{run, RunOptions, RunResult};
use drom_benchmark::stats::tail_percentile;
use drom_benchmark::suite::{self, SetOptions};

const USAGE: &str = "\
usage: drom-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--quick] [--out DIR]
       drom-benchmark --check-repeat | --sets N | --print-manifest

  --workload NAME   run one workload and end with its result line; without it,
                    run every workload, untraced then traced, one child each
  --seed N          seed of the trace generators (default 2018)
  --seconds S       seconds one run measures (default 10; 1 with --quick)
  --trace 0|1       0: end-to-end metrics (default); 1: per-layer metrics
  --quick           small traces for smoke tests; numbers are not comparable
  --out DIR         where a traced run writes <workload>.spans.csv
                    (default benchmark/out)
  --check-repeat    two sets back to back, compared against the bounds
  --sets N          N sets on N seeds; prints quartiles and baseline.json
  --print-manifest  print BENCHMARK.json";

enum Mode {
    One(String),
    All,
    CheckRepeat,
    Sets(usize),
    PrintManifest,
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => cli.mode = Mode::One(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out_dir = PathBuf::from(value("a directory")?),
            "--check-repeat" => cli.mode = Mode::CheckRepeat,
            "--sets" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if !(2..=100).contains(&n) {
                    return Err("--sets takes 2 to 100".into());
                }
                cli.mode = Mode::Sets(n);
            }
            "--print-manifest" => cli.mode = Mode::PrintManifest,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// The human-readable report of one run; the result line follows it.
fn print_report(opts: &RunOptions, result: &RunResult) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {}  seed {}  seconds {}  trace {}  nproc {}{}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        nproc,
        if opts.quick {
            "  QUICK: sizes reduced, numbers not comparable with full runs"
        } else {
            ""
        }
    );
    for m in &result.metrics {
        let bound = END_TO_END
            .iter()
            .find(|e| e.name == m.name)
            .map(|e| format!("  bound {:.0}%", e.bound * 100.0))
            .unwrap_or_default();
        // A tail metric says which percentile its sample count supports.
        let tail = if m.name.contains("_p99_") {
            match tail_percentile(m.samples) {
                Some(p) if p < 99.0 => format!("  (at p{p}: too few samples for p99)"),
                None => "  (at p50: too few samples for a tail)".to_string(),
                _ => String::new(),
            }
        } else {
            String::new()
        };
        println!(
            "  {:<36} {:>16.4} {:<6} n={}{bound}{tail}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  ops_attempted {}  ops_failed {}  correct {}",
        result.attempted, result.failed, result.correct
    );
    for err in &result.errors {
        println!("  ERROR: {err}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(err) => {
            if !err.is_empty() {
                eprintln!("error: {err}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = cli.seconds.unwrap_or(if cli.quick {
        1.0
    } else {
        f64::from(RUN_SECONDS)
    });
    let set_opts = SetOptions {
        seconds,
        quick: cli.quick,
        out_dir: cli.out_dir.clone(),
    };
    let outcome = match cli.mode {
        Mode::PrintManifest => {
            print!("{}", manifest::manifest_json());
            Ok(())
        }
        Mode::One(name) => {
            let Some(workload) = manifest::workload(&name) else {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("error: no workload {name}; there are {}", names.join(", "));
                return ExitCode::from(2);
            };
            let opts = RunOptions {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
                out_dir: cli.out_dir,
            };
            let result = run(&opts);
            print_report(&opts, &result);
            println!("{}", result.json_line());
            if result.correct {
                Ok(())
            } else {
                Err(format!("{name}: outputs are not correct"))
            }
        }
        Mode::All => suite::run_set(cli.seed, &set_opts, true).map(|_| ()),
        Mode::CheckRepeat => match suite::check_repeat(cli.seed, &set_opts) {
            Ok(0) => Ok(()),
            Ok(n) => Err(format!("{n} metrics differ by more than their bound")),
            Err(err) => Err(err),
        },
        Mode::Sets(n) => suite::baseline(cli.seed, n, &set_opts).map(|json| {
            println!("--- baseline.json ---");
            print!("{json}");
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}
