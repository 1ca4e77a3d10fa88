//! The environment recorded with every result.

use mr_json::Json;

use crate::Args;

/// `VmHWM` (peak resident set) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests, summed over all CPUs
/// since boot, in seconds (the `steal` column of `/proc/stat`, in
/// 1/100 s ticks). A run's share of it explains wall-time noise that no
/// code change caused.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Machine and run facts: CPUs, job parallelism, compiler, CPU model,
/// workload and seed.
pub fn environment(args: &Args) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), Json::str(args.workload.name())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Int(args.seconds as i64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Int(nproc as i64)),
        (
            "job_parallelism".into(),
            Json::Int(mr_engine::job::available_parallelism() as i64),
        ),
        ("rustc".into(), Json::str(env!("PERFBENCH_RUSTC_VERSION"))),
        ("cpu_model".into(), Json::str(cpu_model())),
        (
            "alloc_counting".into(),
            Json::Bool(mr_engine::allocstats::enabled()),
        ),
    ]
}
