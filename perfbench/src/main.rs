//! The repository benchmark: three workloads against the PV-index.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pnnq_s500 --seed 1 --seconds 5 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a separate traced run. Every run is one process with one
//! client thread and `build_threads = 1`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod churn;
mod read;
mod trace;

use pv_core::params::PvParams;
use pv_uncertain::UncertainDb;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// Objects per database (Table I synthetic generator, d = 3, |u| ≤ 60).
pub const OBJECTS: usize = 6_000;
/// Dimensionality.
pub const DIM: usize = 3;
/// Maximum side of an uncertainty region.
pub const MAX_SIDE: f64 = 60.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Queries checked against `LinearScan` per run.
pub const CHECK_QUERIES: usize = 200;

/// End-to-end metrics of the `pnnq_*` workloads (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "1/s"),
    ("index_mib", "MiB"),
];

/// End-to-end metrics of `churn_durable` (`--trace 0`).
pub const CHURN_END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("commit_qps", "1/s"),
    ("recovery_s", "s"),
    ("index_mib", "MiB"),
];

/// Per-layer metrics of the query path (`--trace 1` on `pnnq_*`).
pub const QUERY_LAYERS: &[(&str, &str)] = &[
    ("octree.step1_us", "us"),
    ("octree.records_per_query", "count"),
    ("octree.pages_per_query", "count"),
    ("query.step1_survivor_ratio", "ratio"),
    ("exthash.fetch_us", "us"),
    ("exthash.pages_per_query", "count"),
    ("query.payloads_fetched", "count"),
    ("query.payloads_skipped", "count"),
    ("query.payload_useful_ratio", "ratio"),
    ("prob.sweep_us", "us"),
    ("prob.instances_per_query", "count"),
    ("query.driver_self_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_share", "ratio"),
];

/// Per-layer metrics of the write path, storage, recovery and build
/// (`--trace 1` on every workload).
pub const WRITE_LAYERS: &[(&str, &str)] = &[
    ("index.remove_ms", "ms"),
    ("index.insert_ms", "ms"),
    ("se.ms_per_commit", "ms"),
    ("index.nonse_ms_per_commit", "ms"),
    ("index.affected_per_commit", "count"),
    ("index.scanned_per_commit", "count"),
    ("index.stale_backlog", "count"),
    ("octree.records_growth", "ratio"),
    ("octree.leaves", "count"),
    ("octree.depth", "count"),
    ("storage.live_pages", "count"),
    ("storage.cow_copies_per_commit", "count"),
    ("db.fork_ms", "ms"),
    ("durable.log_ms", "ms"),
    ("wal.bytes_per_commit", "bytes"),
    ("durable.compactions", "count"),
    ("durable.compaction_ms", "ms"),
    ("guard.tripped", "count"),
    ("guard.preflight_s", "s"),
    ("snapshot.decode_s", "s"),
    ("recovery.replay_s", "s"),
    ("recovery.replayed_commits", "count"),
    ("build.phase1_s", "s"),
    ("se.cset_s", "s"),
    ("se.refine_s", "s"),
    ("se.avg_cset_size", "count"),
    ("build.phase2_s", "s"),
    ("durable.create_s", "s"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries or planned commits, plus checks).
    pub attempted: u64,
    /// Failed operations: errors, wrong answers, commits the growth guard
    /// left unissued.
    pub failed: u64,
    /// Every correctness check passed.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check without stopping the run.
    pub fn fail(&mut self, what: &str) {
        eprintln!("check failed: {what}");
        self.failed += 1;
        self.correct = false;
    }
}

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured duration of the run.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The Table-I synthetic database for a seed and sample count.
pub fn dataset(seed: u64, samples: u32) -> UncertainDb {
    pv_workload::synthetic(&pv_workload::SyntheticConfig {
        n: OBJECTS,
        dim: DIM,
        max_side: MAX_SIDE,
        samples,
        seed,
    })
}

/// Index parameters: Table-I defaults, one build thread.
pub fn params() -> PvParams {
    let p = PvParams::default();
    assert_eq!(p.build_threads, 1, "the benchmark builds on one thread");
    p
}

/// Derives an independent stream seed from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    (seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(stream)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <pnnq_s500|pnnq_s16|churn_durable> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "pnnq_s500" => read::run(&args, 500),
        "pnnq_s16" => read::run(&args, 16),
        "churn_durable" => churn::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let churn = args.workload == "churn_durable";
    let wanted: Vec<(&str, &str)> = match (args.trace, churn) {
        (false, false) => END_TO_END.to_vec(),
        (false, true) => CHURN_END_TO_END.to_vec(),
        (true, false) => [QUERY_LAYERS, WRITE_LAYERS].concat(),
        (true, true) => WRITE_LAYERS.to_vec(),
    };
    let mut json = String::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let Some(&value) = outcome.metrics.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            return ExitCode::FAILURE;
        }
        println!("{name:<30} {value:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    ExitCode::SUCCESS
}
