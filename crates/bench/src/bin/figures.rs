//! Regenerates every figure of the SharPer evaluation on the simulator.
//!
//! Usage:
//!   cargo run -p sharper-bench --release --bin figures            # all figures
//!   cargo run -p sharper-bench --release --bin figures -- --fig 6a --quick
//!   cargo run -p sharper-bench --release --bin figures -- --fig parallel
//!   cargo run -p sharper-bench --release --bin figures -- --fig ablation --quick
//!   cargo run -p sharper-bench --release --bin figures -- --threads per-cluster
//!   cargo run -p sharper-bench --release --bin figures -- --out results/
//!
//! `--threads` selects the simulator execution strategy (`sequential`,
//! `per-cluster` or a worker count) for every SharPer sweep; by the engine's
//! determinism guarantee it changes wall-clock time only, never the curves.
//! `--fig parallel` runs the speedup sweep that measures exactly that
//! trade-off: the same fig8-style deployments executed sequentially and in
//! parallel, with both wall-clock times recorded. `--fig ablation` runs the
//! super-primary and group-aware-clustering ablations (see
//! [`figure_ablation`]).
//!
//! Output: one text table per figure (system, clients, throughput, latency),
//! plus a machine-readable `BENCH_<figure>.json` file per figure so the
//! performance trajectory of the reproduction can be tracked commit over
//! commit.

use sharper_bench::{
    batching_to_json, cli_flag_value, cli_thread_mode, exec_to_json, fig8xl_to_json,
    figure_ablation, figure_batching, figure_cross_shard_sweep, figure_exec, figure_fig8xl,
    figure_parallel, figure_reshard, figure_scalability, figure_to_json, parallel_to_json,
    reshard_fairness_markdown, reshard_to_json, BatchSeries, ExecSweep, Fig8xlSweep, ParallelSweep,
    ReshardSweep, Series,
};
use sharper_common::{FailureModel, SimTime, ThreadMode};
use std::path::Path;

fn print_series(title: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    println!(
        "{:<12} {:>8} {:>16} {:>14}",
        "system", "clients", "throughput(tps)", "latency(ms)"
    );
    for s in series {
        for p in &s.points {
            println!(
                "{:<12} {:>8} {:>16.0} {:>14.1}",
                s.system, p.clients, p.throughput_tps, p.latency_ms
            );
        }
    }
}

fn emit(out_dir: &Path, name: &str, title: &str, series: &[Series]) {
    print_series(title, series);
    let json = figure_to_json(name, series);
    write_json(out_dir, name, &json);
}

fn write_json(out_dir: &Path, name: &str, json: &str) {
    let path = out_dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, json) {
        Ok(()) => println!("BENCH_JSON {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only = cli_flag_value(&args, "--fig");
    let out_dir =
        std::path::PathBuf::from(cli_flag_value(&args, "--out").unwrap_or_else(|| ".".into()));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("failed to create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let threads = cli_thread_mode(&args);

    let duration = if quick {
        SimTime::from_secs(2)
    } else {
        SimTime::from_secs(5)
    };
    let clients: Vec<usize> = if quick {
        vec![8, 48, 128]
    } else {
        vec![8, 24, 64, 128, 224, 320]
    };

    let known = [
        "6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d", "8a", "8b", "fig8xl", "batching",
        "parallel", "exec", "reshard", "ablation",
    ];
    if let Some(f) = only.as_deref() {
        if !known.iter().any(|k| k.eq_ignore_ascii_case(f)) {
            eprintln!("unknown figure {f:?}; known figures: {}", known.join(", "));
            std::process::exit(2);
        }
    }
    let wants = |name: &str| only.as_deref().is_none_or(|f| f.eq_ignore_ascii_case(name));

    let cross_figs = [
        ("6a", FailureModel::Crash, 0.0),
        ("6b", FailureModel::Crash, 0.2),
        ("6c", FailureModel::Crash, 0.8),
        ("6d", FailureModel::Crash, 1.0),
        ("7a", FailureModel::Byzantine, 0.0),
        ("7b", FailureModel::Byzantine, 0.2),
        ("7c", FailureModel::Byzantine, 0.8),
        ("7d", FailureModel::Byzantine, 1.0),
    ];
    for (name, model, ratio) in cross_figs {
        if wants(name) {
            let series = figure_cross_shard_sweep(model, ratio, &clients, threads, duration);
            emit(
                &out_dir,
                &format!("fig{name}"),
                &format!(
                    "Figure {name}: {model} nodes, {:.0}% cross-shard",
                    ratio * 100.0
                ),
                &series,
            );
        }
    }
    if wants("8a") {
        let series = figure_scalability(FailureModel::Crash, &[2, 3, 4, 5], 12, threads, duration);
        emit(
            &out_dir,
            "fig8a",
            "Figure 8a: SharPer scalability, crash-only, 10% cross-shard",
            &series,
        );
    }
    if wants("8b") {
        let series = figure_scalability(
            FailureModel::Byzantine,
            &[2, 3, 4, 5],
            12,
            threads,
            duration,
        );
        emit(
            &out_dir,
            "fig8b",
            "Figure 8b: SharPer scalability, Byzantine, 10% cross-shard",
            &series,
        );
    }
    if wants("ablation") {
        let series = figure_ablation(threads, duration);
        emit(
            &out_dir,
            "ablation",
            "Ablations: super-primary initiation (crash, 4 clusters) and \
             group-aware clustering (Byzantine, 10% cross-shard)",
            &series,
        );
    }
    if wants("fig8xl") {
        // The bounded-memory scaling sweep is much heavier than the paper
        // figures (384 replicas, ≥100k clients at the top point), so it only
        // runs when requested explicitly — never as part of "all figures".
        if only
            .as_deref()
            .is_some_and(|f| f.eq_ignore_ascii_case("fig8xl"))
        {
            let duration = if quick {
                SimTime::from_millis(700)
            } else {
                SimTime::from_secs(2)
            };
            let sweep = figure_fig8xl(&[32, 64, 128], 800, threads, duration);
            print_fig8xl(&sweep);
            write_json(&out_dir, "fig8xl", &fig8xl_to_json(&sweep));
            for p in &sweep.points {
                if p.retained_blocks >= p.logical_blocks {
                    eprintln!(
                        "fig8xl: truncation never pruned at {} clusters \
                         ({} retained of {} logical blocks)",
                        p.clusters, p.retained_blocks, p.logical_blocks
                    );
                    std::process::exit(1);
                }
            }
            if let Some(ceiling) =
                cli_flag_value(&args, "--assert-peak-rss-mb").and_then(|v| v.parse::<f64>().ok())
            {
                let peak = sweep
                    .points
                    .iter()
                    .fold(0.0f64, |m, p| m.max(p.peak_rss_mb));
                if peak > ceiling {
                    eprintln!(
                        "fig8xl: peak RSS {peak:.0} MiB exceeds the {ceiling:.0} MiB ceiling"
                    );
                    std::process::exit(1);
                }
                println!("fig8xl: peak RSS {peak:.0} MiB within the {ceiling:.0} MiB ceiling");
            }
        }
    }
    if wants("batching") {
        let (batch_sizes, clients): (Vec<usize>, usize) = if quick {
            (vec![1, 4, 16], 32)
        } else {
            (vec![1, 2, 4, 8, 16, 32], 64)
        };
        let series = figure_batching(&batch_sizes, clients, threads, duration);
        print_batching("Batching: throughput vs max_batch_size", &series);
        write_json(&out_dir, "batching", &batching_to_json(&series));
    }
    if wants("parallel") {
        let cluster_counts: Vec<usize> = if quick {
            vec![2, 4, 8]
        } else {
            vec![2, 4, 8, 12]
        };
        let mode = if threads.is_parallel() {
            threads
        } else {
            ThreadMode::PerCluster
        };
        let sweep = figure_parallel(&cluster_counts, 8, mode, duration);
        print_parallel(&sweep);
        write_json(&out_dir, "parallel", &parallel_to_json(&sweep));
        if sweep.points.iter().any(|p| !p.identical) {
            eprintln!("parallel run diverged from sequential run — determinism bug");
            std::process::exit(1);
        }
    }
    if wants("reshard") {
        // Enough closed-loop clients to saturate the hot cluster's primary —
        // below saturation a static map serves the skew at base latency and
        // migrating load cannot pay off.
        let (reshard_clients, reshard_duration) = if quick {
            (256, SimTime::from_secs(4))
        } else {
            (320, SimTime::from_secs(10))
        };
        let sweep = figure_reshard(reshard_clients, threads, reshard_duration);
        print_reshard(&sweep);
        write_json(&out_dir, "reshard", &reshard_to_json(&sweep));
        let fairness_md = reshard_fairness_markdown(&sweep);
        let md_path = out_dir.join("reshard-fairness.md");
        match std::fs::write(&md_path, &fairness_md) {
            Ok(()) => println!("FAIRNESS_TABLE {}", md_path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", md_path.display()),
        }
        if sweep.dynamic_speedup < 1.3 {
            eprintln!(
                "reshard: dynamic resharding is only {:.2}x static under hot-key drift \
                 (claim: >= 1.3x)",
                sweep.dynamic_speedup
            );
            std::process::exit(1);
        }
        if sweep.fairness_spread > 1.5 {
            eprintln!(
                "reshard: per-initiator-cluster completion spread {:.2}x exceeds the 1.5x \
                 fairness gate",
                sweep.fairness_spread
            );
            std::process::exit(1);
        }
    }
    if wants("exec") {
        let sweep = figure_exec(0x5EED, quick);
        print_exec(&sweep);
        write_json(&out_dir, "exec", &exec_to_json(&sweep));
        if sweep.points.iter().any(|p| !p.identical_to_serial) {
            eprintln!("partitioned apply diverged from serial apply — determinism bug");
            std::process::exit(1);
        }
    }
}

fn print_reshard(sweep: &ReshardSweep) {
    println!(
        "\n=== Dynamic resharding under hot-key drift ({} clusters, Zipf s = {:.1}, \
         {}-account window drifting every {} txs) ===",
        sweep.clusters, sweep.zipf_s, sweep.span, sweep.drift_every
    );
    println!(
        "{:<10} {:>8} {:>16} {:>14} {:>10} {:>10}",
        "system", "clients", "throughput(tps)", "latency(ms)", "reshards", "redirects"
    );
    for p in &sweep.points {
        println!(
            "{:<10} {:>8} {:>16.0} {:>14.1} {:>10} {:>10}",
            p.system,
            p.clients,
            p.throughput_tps,
            p.latency_ms,
            p.reshards_applied,
            p.client_redirects
        );
    }
    println!("dynamic/static speedup: {:.2}x", sweep.dynamic_speedup);
    println!("fairness at 100% cross-shard (per initiator cluster):");
    for f in &sweep.fairness {
        println!("  cluster {:>2}: {:>8} completed", f.cluster, f.completed);
    }
    println!("fairness spread (max/min): {:.3}", sweep.fairness_spread);
}

fn print_fig8xl(sweep: &Fig8xlSweep) {
    println!(
        "\n=== Figure 8xl: bounded-memory scaling sweep ({} workers, {} host cpus) ===",
        sweep.threads, sweep.host_cpus
    );
    println!(
        "{:>8} {:>9} {:>8} {:>16} {:>12} {:>10} {:>10} {:>9} {:>10}",
        "clusters",
        "replicas",
        "clients",
        "throughput(tps)",
        "latency(ms)",
        "retained",
        "logical",
        "rss(MiB)",
        "wall(ms)"
    );
    for p in &sweep.points {
        println!(
            "{:>8} {:>9} {:>8} {:>16.0} {:>12.1} {:>10} {:>10} {:>9.0} {:>10.0}",
            p.clusters,
            p.replicas,
            p.clients,
            p.throughput_tps,
            p.latency_ms,
            p.retained_blocks,
            p.logical_blocks,
            p.peak_rss_mb,
            p.wall_ms
        );
    }
    println!(
        "fig8xl: max simulated throughput {:.0} tps",
        sweep.max_throughput_tps
    );
}

fn print_exec(sweep: &ExecSweep) {
    println!(
        "\n=== Partitioned executor: modelled apply-path throughput ({} host cpus) ===",
        sweep.host_cpus
    );
    println!(
        "{:>10} {:>8} {:>6} {:>6} {:>9} {:>16} {:>12} {:>9} {:>10}",
        "partitions",
        "threads",
        "batch",
        "txs",
        "modelled",
        "throughput(tps)",
        "serial(tps)",
        "wall(ms)",
        "identical"
    );
    for p in &sweep.points {
        println!(
            "{:>10} {:>8} {:>6} {:>6} {:>8.2}x {:>16.0} {:>12.0} {:>9.1} {:>10}",
            p.partitions,
            p.exec_threads,
            p.batch_size,
            p.txs,
            p.speedup_modeled,
            p.throughput_tps,
            p.serial_tps,
            p.wall_ms,
            p.identical_to_serial
        );
    }
}

fn print_parallel(sweep: &ParallelSweep) {
    println!(
        "\n=== Parallel simulation speedup ({} workers, {} host cpus) ===",
        sweep.threads, sweep.host_cpus
    );
    println!(
        "{:>8} {:>9} {:>8} {:>16} {:>12} {:>12} {:>8} {:>10}",
        "clusters",
        "replicas",
        "clients",
        "throughput(tps)",
        "seq(ms)",
        "par(ms)",
        "speedup",
        "identical"
    );
    for p in &sweep.points {
        println!(
            "{:>8} {:>9} {:>8} {:>16.0} {:>12.1} {:>12.1} {:>7.2}x {:>10}",
            p.clusters,
            p.replicas,
            p.clients,
            p.throughput_tps,
            p.wall_ms_sequential,
            p.wall_ms_parallel,
            p.speedup,
            p.identical
        );
    }
}

fn print_batching(title: &str, series: &[BatchSeries]) {
    println!("\n=== {title} ===");
    println!(
        "{:<36} {:>6} {:>8} {:>16} {:>14}",
        "system", "batch", "clients", "throughput(tps)", "latency(ms)"
    );
    for s in series {
        for p in &s.points {
            println!(
                "{:<36} {:>6} {:>8} {:>16.0} {:>14.1}",
                s.system, p.batch_size, p.clients, p.throughput_tps, p.latency_ms
            );
        }
        println!(
            "{:<36} speedup at largest batch vs unbatched: {:.2}x",
            s.system, s.speedup_vs_unbatched
        );
    }
}
