//! The layered benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <clean-hosp|clean-dblp-sim|serve-hosp> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every run generates its inputs from `--seed`, measures, checks the
//! program's outputs, prints one `metric` line per measured value, and
//! ends with one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Any failed output check exits with code 1.
//! See `perfbench/README.md` for the metric definitions.
//!
//! `perfbench serve …` is the daemon process the served workload spawns:
//! the same `Daemon::bind` + `run` that `uniclean serve` wraps.

mod clean;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use uniclean_model::Json;

/// Every end-to-end metric, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("repair_precision", "ratio"),
    ("repair_recall", "ratio"),
    ("repair_f1", "ratio"),
];

/// Every per-layer metric, reported by every workload with `--trace 1`.
/// A layer a workload never calls did no work there and reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.session.build_s", "s"),
    ("core.master_index.build_s", "s"),
    ("core.master_index.candidate_s", "s"),
    ("core.master_index.verify_s", "s"),
    ("core.master_index.candidates", "count"),
    ("core.master_index.verified", "count"),
    ("core.master_index.useful_ratio", "ratio"),
    ("core.crepair.s", "s"),
    ("core.crepair.fixes", "count"),
    ("core.two_in_one.build_s", "s"),
    ("core.erepair.s", "s"),
    ("core.erepair.fixes", "count"),
    ("core.hrepair.s", "s"),
    ("core.hrepair.fixes", "count"),
    ("rules.satisfaction.s", "s"),
    ("rules.satisfaction.pairs", "count"),
    ("model.cost.s", "s"),
    ("core.pipeline.residual_s", "s"),
    ("core.pipeline.residual_share", "ratio"),
    ("model.json.decode_us", "us"),
    ("model.json.encode_us", "us"),
    ("model.json.request_bytes", "bytes"),
    ("server.protocol.parse_us", "us"),
    ("core.incremental.clean_delta_p50_ms", "ms"),
    ("core.incremental.clean_delta_p90_ms", "ms"),
    ("core.incremental.crepair_ms", "ms"),
    ("core.incremental.erepair_ms", "ms"),
    ("core.incremental.hrepair_ms", "ms"),
    ("core.incremental.other_ms", "ms"),
    ("core.incremental.escalations", "count"),
    ("core.incremental.check_us", "us"),
    ("server.wal.append_us", "us"),
    ("server.wal.fsync_us", "us"),
    ("server.wal.bytes_per_tuple", "bytes"),
    ("server.snapshot.write_ms", "ms"),
    ("server.snapshot.bytes", "bytes"),
    ("server.recovery.total_s", "s"),
    ("server.recovery.snapshot_load_ms", "ms"),
    ("server.recovery.wal_read_ms", "ms"),
    ("server.recovery.replay_ms", "ms"),
    ("server.recovery.replayed_batches", "count"),
    ("server.recovery.wal_bytes", "bytes"),
    ("server.replication.catchup_s", "s"),
    ("server.replication.frames_applied", "count"),
    ("server.replication.lag_bytes_start", "bytes"),
    ("server.ingest.p90_ms", "ms"),
    ("server.ingest.residual_ms", "ms"),
    ("server.ingest.residual_share", "ratio"),
    ("server.check.p50_us", "us"),
    ("server.check.p99_us", "us"),
    ("server.check.residual_us", "us"),
    ("server.check.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Run-wide settings every workload shares.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    /// Scratch space for daemon data directories and the traced WAL,
    /// inside the current directory and removed when the run ends.
    pub work: PathBuf,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub ops: stats::OpCount,
    pub failures: Vec<String>,
    pub values: BTreeMap<String, f64>,
    pub info: Vec<(String, Json)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// An output check: a `false` condition fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn info(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn jobj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.0
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| *a == format!("--{key}"))
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.get(key).ok_or(format!("--{key} is required"))?;
        raw.parse()
            .map_err(|_| format!("--{key} {raw:?} is not a valid number"))
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.0.first().map(String::as_str) == Some("serve") {
        return match serve::daemon_main(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    if !["clean-hosp", "clean-dblp-sim", "serve-hosp"].contains(&workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace: u8 = args.num("trace")?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let cfg = RunCfg {
        seed: args.num("seed")?,
        seconds: args.num("seconds")?,
        traced: trace == 1,
        smoke: args.flag("smoke"),
        work,
    };
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    std::fs::create_dir_all(&cfg.work).map_err(|e| format!("cannot create work dir: {e}"))?;

    let mut report = Report::default();
    report.info("workload", Json::str(workload));
    report.info("seed", Json::Num(cfg.seed as f64));
    report.info("seconds", Json::Num(cfg.seconds));
    report.info("trace", Json::Num(trace as f64));
    report.info("smoke", Json::Bool(cfg.smoke));
    report.info(
        "nproc",
        Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
    );
    report.info(
        "kernels",
        Json::str(uniclean_similarity::simd::dispatch_info().to_string()),
    );
    report.info("engine_threads", Json::Num(1.0));
    let outcome = match workload {
        "clean-hosp" => clean::run(clean::HOSP, &cfg, &mut report),
        "clean-dblp-sim" => clean::run(clean::DBLP_SIM, &cfg, &mut report),
        _ => serve::run(&cfg, &mut report),
    };
    let _ = std::fs::remove_dir_all(&cfg.work);
    let _ = std::fs::remove_dir(".perfbench_work"); // only if no other run uses it
    if let Err(e) = outcome {
        report.check(false, || e);
    }
    Ok(emit(&report, cfg.traced))
}

/// Print the run record, one `metric` line per measured value, and the
/// result object as the last line.
fn emit(report: &Report, traced: bool) -> ExitCode {
    let info = Json::Obj(report.info.clone());
    println!("run {info}");
    for (name, value) in &report.values {
        println!("metric {name} = {value} {}", unit_of(name));
    }
    let mut failures = report.failures.clone();
    match report.ops.share() {
        Ok(share) => println!("metric failed_share = {share} ratio"),
        Err(e) => failures.push(format!("failed_share: {e}")),
    }
    if report.ops.failed > 0 {
        failures.push(format!(
            "{} of {} operations failed",
            report.ops.failed, report.ops.attempted
        ));
    }
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in wanted {
        let value = match report.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                failures.push(format!("{name} is not finite ({v})"));
                0.0
            }
            // A layer this workload never calls did no work.
            None if traced => 0.0,
            None => {
                failures.push(format!("{name} was not measured"));
                0.0
            }
        };
        metrics.push((
            name.to_string(),
            jobj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    let correct = failures.is_empty();
    for f in &failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    let result = jobj(vec![
        ("correct", Json::Bool(correct)),
        // A run that failed before its first operation still reports a
        // well-formed line; `correct` is already false then.
        ("attempted", Json::Num(report.ops.attempted.max(1) as f64)),
        ("failed", Json::Num(report.ops.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the benchmark's manifest name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn metric_tables_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn every_metric_name_is_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
