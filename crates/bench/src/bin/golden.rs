//! The determinism gate: runs every golden deployment
//! ([`sharper_bench::gate::golden_rows`]) under every engine, executor and
//! ledger-retention mode and checks that each mode reproduces the
//! deployment's reference line bit for bit.
//!
//! Usage:
//!   cargo run -p sharper-bench --release --bin golden -- --out golden-sequential.txt
//!
//! Each run yields one line `<config> <ledger-digest> <committed>
//! <delivered> <dropped>` (reshard deployments append `reshards=<n>`). The
//! reference is the sequential engine with the serial executor and a
//! retain-all ledger. The static deployments also run under the per-cluster
//! and fixed two-worker engines, the partitioned executor at 2 and 4
//! partitions (two worker threads each) and a truncating ledger (checkpoint
//! every 8 blocks, retain 64); the reshard deployments under the three
//! engines and the truncating ledger, since reconfiguration rides the
//! ordinary consensus path. None of the modes may change a byte. The binary
//! exits 1 naming the first (config, mode) that differs. `--out` receives
//! the six reference lines, which CI diffs against the pinned
//! `bench/baselines/golden.txt` and `cargo test` checks too.

use sharper_bench::gate::golden_rows;
use sharper_bench::{cli_flag_value, golden_divergence, GoldenRun};
use sharper_common::{ExecutorConfig, LedgerConfig, ThreadMode};

/// One mode of the matrix: how the simulator, the executor and the ledger
/// run a deployment.
struct Mode {
    name: &'static str,
    threads: ThreadMode,
    exec: ExecutorConfig,
    ledger: LedgerConfig,
    /// Whether the reshard deployments run under this mode too.
    reshard: bool,
}

/// The modes of the matrix, the reference first.
fn modes() -> [Mode; 6] {
    use ThreadMode::{Fixed, PerCluster, Sequential};
    let mode = |name, threads, exec, ledger, reshard| Mode {
        name,
        threads,
        exec,
        ledger,
        reshard,
    };
    let (serial, partitioned) = (ExecutorConfig::default(), ExecutorConfig::partitioned);
    let (all, truncated) = (
        LedgerConfig::retain_all(),
        LedgerConfig::checkpointed(8, 64),
    );
    [
        mode("sequential", Sequential, serial, all, true),
        mode("per-cluster", PerCluster, serial, all, true),
        mode("fixed-2", Fixed(2), serial, all, true),
        mode("exec-2", Sequential, partitioned(2, 2), all, false),
        mode("exec-4", Sequential, partitioned(4, 2), all, false),
        mode("retain-8,64", Sequential, serial, truncated, true),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if !(args.len() == 1 || args.len() == 3 && args[1] == "--out") {
        eprintln!("usage: golden [--out FILE]");
        std::process::exit(2);
    }
    let out = cli_flag_value(&args, "--out");
    let modes = modes();
    let mut runs = Vec::new();
    for row in golden_rows() {
        for mode in modes.iter().filter(|m| m.reshard || row.reshard.is_none()) {
            let params = row.params().with_threads(mode.threads);
            let line = row.golden_line(params.with_executor(mode.exec).with_ledger(mode.ledger));
            println!("[{}] {line}", mode.name);
            let (config, mode) = (row.name, mode.name);
            runs.push(GoldenRun { config, mode, line });
        }
    }

    let reference = modes[0].name;
    if let Some(path) = out {
        let body: String = runs
            .iter()
            .filter(|r| r.mode == reference)
            .map(|r| format!("{}\n", r.line))
            .collect();
        match std::fs::write(&path, body) {
            Ok(()) => println!("GOLDEN {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some((config, mode)) = golden_divergence(&runs) {
        eprintln!("golden: {config} under {mode} differs from its {reference} run");
        std::process::exit(1);
    }
    println!(
        "golden: all {} runs are bit-identical to their {reference} run",
        runs.len()
    );
}
