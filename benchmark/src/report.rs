//! What the harness prints and writes: the metric tables, `results.json`, the
//! driver's result line, and the comparison of two result sets.

use crate::json::Json;
use crate::run::WorkloadRun;
use crate::spec::{glossary, Kind, MetricSpec, Spec};
use crate::stats::Sample;
use crate::workloads::{Workload, LATENCY_LIMIT_MS};
use sharper_common::{CostModel, LatencyModel};
use std::collections::BTreeMap;
use std::process::Command;

/// The preamble every human-readable report starts with: which kinds of
/// number follow, under which model, on which host.
pub fn preamble() -> String {
    let l = LatencyModel::default();
    let c = CostModel::default();
    format!(
        "kinds: `modelled` = simulated time or a count under CostModel::default() \
         (handling {} / digest {} / sign {} / verify {} / execute {} / client {} us) and \
         LatencyModel::default() (intra-cluster {} ms, cross-cluster {} ms, client {} ms, jitter {} ms); \
         it repeats exactly for a seed.\n\
         The model is UNVALIDATED: the repo holds no reference results from a real deployment, \
         so no error figure is given.\n\
         `measured` = host wall clock or memory on this machine: {}\n\
         latency limit L = {} sim-ms; every workload runs ThreadMode::Sequential, tracing off \
         except in the traced pass.",
        c.message_handling_us,
        c.digest_us,
        c.sign_us,
        c.verify_us,
        c.execute_us,
        c.client_us,
        l.intra_cluster_us as f64 / 1e3,
        l.cross_cluster_us as f64 / 1e3,
        l.client_to_node_us as f64 / 1e3,
        l.jitter_us as f64 / 1e3,
        host().render(),
        LATENCY_LIMIT_MS,
    )
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and build a measured number belongs to.
pub fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// What `BENCHMARK.json` and the glossary say about a metric the harness
/// reports; a name neither knows is a bug in the harness.
fn declared<'a>(spec: &'a Spec, name: &str) -> (&'a MetricSpec, Kind) {
    let metric = spec
        .metric(name)
        .unwrap_or_else(|| panic!("{name} is not declared in BENCHMARK.json"));
    let (kind, _) = glossary(name).unwrap_or_else(|| panic!("{name} has no glossary entry"));
    (metric, kind)
}

fn metric_json(spec: &Spec, name: &str, sample: Sample) -> Json {
    let (declared, kind) = declared(spec, name);
    let mut json = sample.to_json();
    if let Json::Obj(map) = &mut json {
        map.insert("unit".into(), Json::str(declared.unit.as_str()));
        map.insert("kind".into(), Json::str(kind.label()));
    }
    json
}

fn metrics_json(spec: &Spec, metrics: &[(&'static str, Sample)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, sample)| (name.to_string(), metric_json(spec, name, *sample)))
            .collect(),
    )
}

fn table(spec: &Spec, metrics: &[(&'static str, Sample)]) -> String {
    let mut out = String::new();
    for (name, s) in metrics {
        let (declared, kind) = declared(spec, name);
        let bound = declared.bound.map_or(String::new(), |b| {
            format!(
                "  bound {}{}%",
                if declared.higher_is_better { "-" } else { "+" },
                b * 100.0
            )
        });
        out.push_str(&format!(
            "  {name:<42} {:>14.4} {:<9} {:<8} n={:<3} q1={:<12.4} q3={:<12.4}{bound}\n",
            s.median,
            declared.unit,
            kind.label(),
            s.n,
            s.q1,
            s.q3
        ));
    }
    out
}

/// Every metric of one workload run by name, with unit, kind, sample count
/// and quartiles.
pub fn print_run(spec: &Spec, w: &Workload, run: &WorkloadRun) {
    println!("\n== {} (seed {}) ==", run.workload, run.seed);
    println!("  {}", w.describe());
    println!(
        "  {} timed passes, {:.2} s and {} simulator events per pass; attempted {} requests, failed {}",
        run.timed_passes, run.pass_s, run.pass_events, run.attempted, run.failed
    );
    for problem in &run.problems {
        println!("  PROBLEM {problem}");
    }
    println!(" end to end:");
    print!("{}", table(spec, &run.end_to_end));
    if !run.per_layer.is_empty() {
        println!(" per layer, from the traced pass:");
        print!("{}", table(spec, &run.per_layer));
    }
}

pub fn print_layers(spec: &Spec, layers: &[(&'static str, Sample)]) {
    println!("\n== layers (host ns per operation, median of the batches) ==");
    print!("{}", table(spec, layers));
}

pub fn run_json(spec: &Spec, w: &Workload, run: &WorkloadRun) -> Json {
    Json::obj([
        ("config", Json::Str(w.describe())),
        ("seed", Json::Num(run.seed as f64)),
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        (
            "problems",
            Json::Arr(run.problems.iter().map(Json::str).collect()),
        ),
        ("timed_passes", Json::Num(run.timed_passes as f64)),
        ("pass_s", Json::Num(run.pass_s)),
        ("pass_events", Json::Num(run.pass_events as f64)),
        ("end_to_end", metrics_json(spec, &run.end_to_end)),
        ("per_layer", metrics_json(spec, &run.per_layer)),
    ])
}

/// The whole result set: what `all` writes as `results.json`.
pub fn results_json(
    spec: &Spec,
    seed: u64,
    workloads: BTreeMap<String, Json>,
    layers: &[(&'static str, Sample)],
) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(seed as f64)),
        ("host", host()),
        (
            "model",
            Json::obj([
                ("validated", Json::Bool(false)),
                (
                    "note",
                    Json::str("modelled numbers are simulated under CostModel::default() and LatencyModel::default(); no reference results exist, so no error figure is given"),
                ),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
        ("layers", metrics_json(spec, layers)),
    ])
}

/// The one line the driver reads: `correct`, `attempted`, `failed` and the
/// metrics of the asked-for kind.
pub fn driver_line(spec: &Spec, run: &WorkloadRun, metrics: &[(&'static str, Sample)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, sample)| {
            let unit = &declared(spec, name).0.unit;
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(sample.median)),
                    ("unit", Json::str(unit.as_str())),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(run.correct)),
        ("attempted", Json::Num(run.attempted.max(1) as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// The verdict on one end-to-end metric of one workload between a baseline
/// and a candidate result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `spread` is the wider of the two sets' own run-to-run spreads; a modelled
/// metric repeats exactly and has none.
pub fn verdict(
    baseline: f64,
    candidate: f64,
    spread: f64,
    bound: f64,
    higher_is_better: bool,
) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let worsening = if higher_is_better {
        baseline - candidate
    } else {
        candidate - baseline
    };
    let limit = bound * baseline.abs();
    if worsening > limit {
        Verdict::Worse
    } else if -worsening > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn sample_of(metric: &Json) -> Option<(Sample, Kind)> {
    let num = |key: &str| metric.get(key).and_then(Json::as_f64);
    let kind = match metric.get("kind").and_then(Json::as_str)? {
        "modelled" => Kind::Modelled,
        _ => Kind::Measured,
    };
    Some((
        Sample {
            n: num("n")? as usize,
            q1: num("q1")?,
            median: num("value")?,
            q3: num("q3")?,
        },
        kind,
    ))
}

/// One row per workload × end-to-end metric, then how many modelled values
/// differ at all: a change to host code only leaves every one of them equal.
/// Returns the text and how many rows are `worse` or `unresolved`.
pub fn compare(spec: &Spec, baseline: &Json, candidate: &Json) -> Result<(String, usize), String> {
    let mut out = format!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "baseline", "candidate", "change", "spread", "bound"
    );
    let (mut bad, mut modelled_differ) = (0, 0);
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let find = |set: &Json| {
                set.get("workloads")
                    .and_then(|w| w.get(workload))
                    .and_then(|w| w.get("end_to_end"))
                    .and_then(|e| e.get(&m.name))
                    .and_then(sample_of)
                    .ok_or_else(|| format!("{workload} / {} is missing from a result set", m.name))
            };
            let ((a, kind), (b, _)) = (find(baseline)?, find(candidate)?);
            let spread = match kind {
                Kind::Modelled => 0.0,
                Kind::Measured => a.spread().max(b.spread()),
            };
            if kind == Kind::Modelled && a.median != b.median {
                modelled_differ += 1;
            }
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let v = verdict(a.median, b.median, spread, bound, m.higher_is_better);
            if matches!(v, Verdict::Worse | Verdict::Unresolved) {
                bad += 1;
            }
            let change = if a.median == 0.0 {
                0.0
            } else {
                (b.median - a.median) / a.median.abs()
            };
            out.push_str(&format!(
                "{workload:<20} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>6.1}%  {}\n",
                m.name,
                a.median,
                b.median,
                change * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.label()
            ));
        }
    }
    out.push_str(&format!(
        "{modelled_differ} modelled value(s) differ between the two sets\n"
    ));
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        // Lower is better, bound 10 %.
        assert_eq!(verdict(100.0, 109.9, 0.02, 0.10, false), Verdict::Same);
        assert_eq!(verdict(100.0, 110.1, 0.02, 0.10, false), Verdict::Worse);
        assert_eq!(verdict(100.0, 89.0, 0.02, 0.10, false), Verdict::Better);
        // Higher is better, bound 3 %.
        assert_eq!(verdict(1000.0, 969.0, 0.0, 0.03, true), Verdict::Worse);
        assert_eq!(verdict(1000.0, 1031.0, 0.0, 0.03, true), Verdict::Better);
        assert_eq!(verdict(1000.0, 1000.0, 0.0, 0.03, true), Verdict::Same);
        // A spread wider than the bound decides nothing, whatever the medians.
        assert_eq!(
            verdict(100.0, 150.0, 0.11, 0.10, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_reads_two_result_sets_and_counts_the_bad_rows() {
        let spec = Spec::load();
        let set = |us_per_commit: f64| {
            let metrics: BTreeMap<String, Json> = spec
                .end_to_end
                .iter()
                .map(|m| {
                    let value = if m.name == "host_us_per_commit" {
                        us_per_commit
                    } else {
                        1.0
                    };
                    (
                        m.name.clone(),
                        metric_json(&spec, &m.name, Sample::single(value)),
                    )
                })
                .collect();
            let workloads = spec
                .workloads
                .iter()
                .map(|(name, _)| {
                    (
                        name.clone(),
                        Json::obj([("end_to_end", Json::Obj(metrics.clone()))]),
                    )
                })
                .collect();
            Json::obj([("workloads", Json::Obj(workloads))])
        };
        let (rows, bad) = compare(&spec, &set(30.0), &set(30.0)).expect("complete sets");
        assert_eq!(bad, 0);
        assert_eq!(
            rows.lines().count(),
            2 + spec.workloads.len() * spec.end_to_end.len()
        );
        assert!(rows.ends_with("0 modelled value(s) differ between the two sets\n"));
        let (rows, bad) = compare(&spec, &set(30.0), &set(40.0)).expect("complete sets");
        assert_eq!(bad, spec.workloads.len());
        assert!(rows.contains("worse"));
        assert!(compare(&spec, &set(30.0), &Json::obj([("workloads", Json::Null)])).is_err());
    }
}
