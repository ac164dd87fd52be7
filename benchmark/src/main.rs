//! `sharperbench`: the repo benchmark. It drives the system through public
//! functions only and claims no gain; see `README.md` beside this package.
//!
//! ```text
//! sharperbench --workload W --seed N --seconds S --trace 0|1   the driver's form: one JSON line last
//! sharperbench all     [--seed N] [--seconds S] [--out DIR]    every workload (a process each) + layers
//! sharperbench run     --workload W [--seed N] [--seconds S] [--out DIR]
//! sharperbench trace   --workload W [--seed N] [--out DIR]     the traced pass and the replays only
//! sharperbench layers                                          the per-layer timings only
//! sharperbench compare A/results.json B/results.json
//! ```

mod deploy;
mod json;
mod layers;
mod nullsim;
mod replay;
mod report;
mod run;
mod simmetrics;
mod spans;
mod spec;
mod stats;
mod workloads;

use json::Json;
use layers::Timing;
use run::{run_workload, WorkloadRun};
use spec::Spec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;
use workloads::Workload;

const DEFAULT_OUT: &str = "benchmark/out";
/// Fewest timed passes of a run that reports end-to-end metrics, however
/// short `--seconds` is; the traced run times two, to compare against.
const MIN_TIMED_PASSES: usize = 3;

struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut parsed = Args {
            positional: Vec::new(),
            flags: BTreeMap::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    parsed.flags.insert(flag.to_string(), value.clone());
                }
                None => parsed.positional.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: `{v}` is not a number")),
        }
    }

    fn workload(&self) -> Result<Workload, String> {
        let name = self.flags.get("workload").ok_or("--workload is required")?;
        workloads::find(name).ok_or_else(|| {
            let known: Vec<_> = workloads::workloads().iter().map(|w| w.name).collect();
            format!(
                "unknown workload `{name}`; the workloads are {}",
                known.join(", ")
            )
        })
    }

    fn out(&self) -> PathBuf {
        PathBuf::from(self.flags.get("out").map_or(DEFAULT_OUT, String::as_str))
    }
}

fn write(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_trace(out: &Path, run: &WorkloadRun) -> Result<(), String> {
    write(
        &out.join(format!("trace_{}.jsonl", run.workload)),
        &run.spans.to_jsonl(),
    )
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's form: the metrics of one kind as one JSON line, last.
fn driver(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec.run_seconds as f64)?;
    let line = match args.flags.get("trace").map(String::as_str) {
        Some("0") => {
            let run = run_workload(&w, seed, seconds, MIN_TIMED_PASSES, false);
            report::driver_line(spec, &run, &run.end_to_end)
        }
        Some("1") => {
            // The run's seconds are split between the passes the trace
            // overhead is measured against and the layer timings.
            let run = run_workload(&w, seed, 0.0, 2, true);
            write_trace(&args.out(), &run)?;
            let mut metrics = layers::run_all(Timing {
                batch: Duration::from_secs_f64(seconds / 1_200.0),
                batches: 9,
            });
            metrics.extend(run.per_layer.iter().copied());
            report::driver_line(spec, &run, &metrics)
        }
        _ => return Err("--trace must be 0 or 1".into()),
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn run_one(spec: &Spec, args: &Args, seconds: f64, min_passes: usize) -> Result<ExitCode, String> {
    let w = args.workload()?;
    let run = run_workload(&w, args.number("seed", 1)?, seconds, min_passes, true);
    println!("{}", report::preamble());
    report::print_run(spec, &w, &run);
    let out = args.out();
    write_trace(&out, &run)?;
    write(
        &out.join(format!("run_{}.json", run.workload)),
        &report::run_json(spec, &w, &run).render(),
    )?;
    Ok(if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn all(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", 1)?;
    let seconds: f64 = args.number("seconds", spec.run_seconds as f64)?;
    let out = args.out();
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = BTreeMap::new();
    let mut correct = true;
    // One process per workload: peak memory is a process-wide high-water
    // mark, and the first repetition in a process runs slower.
    for w in workloads::workloads() {
        let status = Command::new(&exe)
            .arg("run")
            .args(["--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .arg("--out")
            .arg(&out)
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        correct &= status.success();
        runs.insert(
            w.name.to_string(),
            read_json(&out.join(format!("run_{}.json", w.name)))?,
        );
    }
    let layers = layers::run_all(Timing::full());
    report::print_layers(spec, &layers);
    let results = out.join("results.json");
    write(
        &results,
        &report::results_json(spec, seed, runs, &layers).render(),
    )?;
    println!("\nwrote {}", results.display());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn dispatch(spec: &Spec, raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(raw)?;
    match args.positional.first().map(String::as_str) {
        None => driver(spec, &args),
        Some("all") => all(spec, &args),
        Some("run") => run_one(
            spec,
            &args,
            args.number("seconds", spec.run_seconds as f64)?,
            MIN_TIMED_PASSES,
        ),
        Some("trace") => run_one(spec, &args, 0.0, 2),
        Some("layers") => {
            println!("{}", report::preamble());
            report::print_layers(spec, &layers::run_all(Timing::full()));
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = args.positional.as_slice() else {
                return Err("compare takes two results.json files".into());
            };
            let (rows, bad) =
                report::compare(spec, &read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
            print!("{rows}");
            println!("{bad} row(s) worse or unresolved");
            Ok(if bad == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&Spec::load(), &raw).unwrap_or_else(|message| {
        eprintln!("sharperbench: {message}");
        ExitCode::from(2)
    })
}
