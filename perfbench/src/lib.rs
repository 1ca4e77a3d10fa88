//! The repository benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bash perfbench/run.sh compare <first.out> <second.out>
//! ```
//!
//! A run generates the workload's inputs from the seed, sets the
//! workload up, computes its reference output with the unoptimized
//! full-scan path, and then runs jobs in a closed loop for the given
//! number of seconds, checking every output byte for byte against the
//! reference. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of `BENCHMARK.json` ([`spec`]) untraced, its per-layer
//! metrics traced. The line before it records the environment.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions; nothing is read from the environment. All files
//! live under `.perfbench-work/` in the current directory (`run.sh`
//! points the engine's spill directory there too); a run deletes its
//! inputs when it ends and keeps only its trace.
//!
//! End-to-end metrics, per workload:
//!
//! - `job_p50_s`, `job_tail_s`: median and tail wall time of one
//!   optimized job. The tail is
//!   the highest percentile of [`stats::TAIL_LADDER`] with at least ten
//!   samples beyond it; the environment line names it.
//! - `records_per_s`: records of the original input files per second of
//!   `job_p50_s`, so work skipped through an index counts.
//! - `baseline_p50_s`, `speedup`: the unoptimized full-scan job on the
//!   same input, interleaved with the optimized ones, and the ratio of
//!   the two medians.
//! - `setup_s`: median of repeated set-ups (submit and index builds).
//! - `index_bytes_ratio`: index artifact bytes over input bytes.
//! - `peak_rss_mb`: `VmHWM` of the process that ran the workload, set-up
//!   included.
//!
//! Failed jobs are the `failed` count of the result line (out of
//! `attempted`); any failure makes the run exit non-zero.
//!
//! A traced run first runs the untraced binary on the same workload and
//! seed; `trace.overhead_frac` is how much slower its own traced jobs
//! (spans and allocation counting) are than that run's `job_p50_s`.

pub mod compare;
pub mod env;
pub mod jobs;
pub mod layers;
pub mod spec;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mr_json::Json;

use crate::trace::Tracer;

/// Per-layer metrics shared by every workload that must show work
/// (non-zero) in a traced run.
const LAYERS_ALL: &[&str] = &[
    "analysis.analyze_s",
    "indexgen.build_s",
    "indexgen.index_bytes",
    "optimizer.plan_s",
    "input.decode_s",
    "input.records",
    "input.bytes_read",
    "input.baseline_decode_s",
    "interp.map_s",
    "interp.instructions_per_record",
    "engine.job_s",
    "engine.map_phase_s",
    "engine.reduce_phase_s",
    "engine.map_output_records",
    "engine.reduce_groups",
    "engine.allocs_per_record",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pavlo B2 over near-distinct source IPs, shuffle spilling.
    AggDistinct,
    /// Pavlo B2 over a few hundred source IPs.
    AggGrouped,
    /// Pavlo B3: B+Tree date selection joined with Rankings.
    SelectJoin,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AggDistinct,
        Workload::AggGrouped,
        Workload::SelectJoin,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AggDistinct => "agg-distinct",
            Workload::AggGrouped => "agg-grouped",
            Workload::SelectJoin => "select-join",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Per-layer metrics a traced run of this workload must report as
    /// non-zero: the layers it is meant to exercise.
    pub fn required_layers(self) -> Vec<&'static str> {
        let own: &[&str] = match self {
            Workload::AggDistinct => &[
                "engine.shuffle_cpu_s",
                "engine.shuffle_bytes",
                "engine.spill_count",
                "engine.spill_bytes_written",
                "engine.combine_in",
                "engine.combine_out",
                "engine.combine_yield",
            ],
            Workload::AggGrouped => &[
                "engine.shuffle_bytes",
                "engine.combine_in",
                "engine.combine_out",
                "engine.combine_yield",
            ],
            Workload::SelectJoin => &[
                "storage.btree_pages_read",
                "join.execute_s",
                "join.build_bytes",
                "join.rows",
            ],
        };
        LAYERS_ALL.iter().chain(own).copied().collect()
    }
}

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s >= 1)
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run hands back to be printed.
#[derive(Debug, Default)]
pub struct Report {
    /// Jobs (or requests) attempted in the measured loop.
    pub attempted: u64,
    /// Of those, jobs that errored, were rejected, or returned output
    /// that differs from the reference.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload facts recorded with the result.
    pub env: Vec<(String, Json)>,
    /// Wall times of the traced run's jobs.
    pub traced_job_s: Vec<f64>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a workload fact.
    pub fn note(&mut self, key: &str, value: Json) {
        self.env.push((key.to_string(), value));
    }
}

/// Log a phase boundary on stderr with the time since the run started.
pub fn phase(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(std::time::Instant::now).elapsed();
    let hwm = env::peak_rss_mb().unwrap_or(0.0);
    eprintln!("[{:>7.3}s] {what} (peak rss {hwm:.1} MB)", t.as_secs_f64());
}

/// A per-run work directory under `.perfbench-work/`, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<WorkDir> {
        let path = Path::new(".perfbench-work").join(format!(
            "{}-s{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn metrics_json(report: &Report, specs: &[spec::Metric]) -> Result<Json, String> {
    let mut members = Vec::with_capacity(specs.len());
    for spec::Metric { name, unit, .. } in specs {
        let value = *report
            .metrics
            .get(name.as_str())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        members.push((
            name.to_string(),
            Json::obj([("value", Json::Float(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::Obj(members))
}

/// Check a traced run: every layer the workload exercises reported work,
/// and the trace file is well formed and holds spans of those layers.
fn check_trace_complete(
    workload: Workload,
    report: &Report,
    trace_path: &Path,
) -> Result<(), String> {
    let missing: Vec<&str> = workload
        .required_layers()
        .into_iter()
        .filter(|name| report.metrics.get(name).is_none_or(|v| *v <= 0.0))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "traced run incomplete: no work reported for {}",
            missing.join(", ")
        ));
    }
    let names = trace::validate(trace_path)?;
    let needed: &[&str] = match workload {
        Workload::SelectJoin => &["job", "optimizer.plan", "join.execute", "input.decode"],
        _ => &["job", "optimizer.plan", "engine.execute", "input.decode"],
    };
    for n in needed {
        if !names.iter().any(|x| x == n) {
            return Err(format!("trace holds no {n} span"));
        }
    }
    Ok(())
}

/// `job_p50_s` of an untraced run of the same workload and seed, for
/// half as long: the `perfbench` binary next to this one, run as a child
/// process and waited for. Its standard error passes through.
fn untraced_p50_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate binary: {e}"))?;
    let plain = exe.with_file_name("perfbench");
    let out = std::process::Command::new(&plain)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.div_ceil(2).to_string()])
        .args(["--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("run {}: {e}", plain.display()))?;
    if !out.status.success() {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| mr_json::parse(l).ok())
        .and_then(|doc| doc.get("metrics")?.get("job_p50_s")?.get("value")?.as_f64())
        .ok_or_else(|| "untraced run printed no job_p50_s".into())
}

fn run_measure(args: &Args) -> Result<(Report, Option<PathBuf>), String> {
    phase("start");
    let untraced_p50 = if args.trace {
        let p50 = untraced_p50_s(args)?;
        phase("untraced reference run done");
        Some(p50)
    } else {
        None
    };
    let steal_at_start = env::steal_s();
    let work = WorkDir::create(args).map_err(|e| format!("create work dir: {e}"))?;
    let tracer = Tracer::new(args.trace);
    let mut report = match args.workload {
        Workload::AggDistinct | Workload::AggGrouped => jobs::aggregation(args, &work, &tracer)?,
        Workload::SelectJoin => jobs::select_join(args, &work, &tracer)?,
    };
    report.set("peak_rss_mb", env::peak_rss_mb().unwrap_or(0.0));
    if let (Some(a), Some(b)) = (steal_at_start, env::steal_s()) {
        report.note("steal_s", Json::Float(b - a));
    }
    let Some(untraced_p50) = untraced_p50 else {
        return Ok((report, None));
    };
    report.note("untraced_job_p50_s", Json::Float(untraced_p50));
    layers::overhead(&mut report, untraced_p50);
    let traces = Path::new(".perfbench-work").join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| format!("create trace dir: {e}"))?;
    let path = traces.join(format!(
        "{}-s{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let spans = tracer.spans();
    trace::write(&path, &spans).map_err(|e| format!("write trace: {e}"))?;
    eprintln!("trace: {} spans -> {}", spans.len(), path.display());
    for (name, self_us, total_us, n) in layers::self_time_summary(&spans) {
        eprintln!(
            "  {name:<28} n={n:<6} total {:>9.3} ms  self {:>9.3} ms",
            total_us / 1e3,
            self_us / 1e3
        );
    }
    check_trace_complete(args.workload, &report, &path)?;
    Ok((report, Some(path)))
}

/// The benchmark's entry point; returns the process exit code.
pub fn main_entry() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                2
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let (report, trace_path) = match run_measure(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return 1;
        }
    };
    let spec = spec::spec();
    let specs = if args.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let metrics = match metrics_json(&report, specs) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let mut env_doc = env::environment(&args);
    env_doc.extend(report.env.iter().cloned());
    if let Some(p) = &trace_path {
        env_doc.push(("trace_file".into(), Json::str(p.display().to_string())));
    }
    println!(
        "{}",
        Json::obj([("env", Json::Obj(env_doc))]).to_string_compact()
    );
    let correct = report.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        0
    } else {
        eprintln!(
            "perfbench: {} of {} jobs failed or differed from the reference",
            report.failed, report.attempted
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload agg-grouped --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::AggGrouped);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload agg-grouped --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload agg-grouped --seed 1")).is_err());
        assert!(parse_args(&argv("--workload agg-grouped --seed 1 --seconds 1 --x 1")).is_err());
    }

    /// Every workload of `BENCHMARK.json` runs, and every layer a
    /// workload must show work in is a declared per-layer metric.
    #[test]
    fn workloads_and_layers_are_declared() {
        let spec = spec::spec();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, ours);
        for w in Workload::ALL {
            for name in w.required_layers() {
                assert!(
                    spec.per_layer.iter().any(|m| m.name == name),
                    "{}: {name} is not a per-layer metric",
                    w.name()
                );
            }
        }
    }
}
