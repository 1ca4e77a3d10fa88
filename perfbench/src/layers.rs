//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions from outside, inside a span of its own.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use mr_engine::{InputSpec, JobResult, SplitReader};
use mr_ir::function::{Function, Program};
use mr_ir::interp::Interpreter;
use mr_ir::value::Value;

use crate::stats::median;
use crate::trace::{self_times_us, Span, Tracer};
use crate::Report;

/// Repetitions of the analyzer probe; the median is reported.
const ANALYZE_REPS: usize = 5;

/// Records decoded ahead of each timed interpreter pass, bounding the
/// memory the interpreter probe holds.
const INTERP_CHUNK: usize = 50_000;

/// Time `f` in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// `mr-analysis`: the analyzer on the workload's program.
pub fn probe_analysis(tracer: &Tracer, report: &mut Report, program: &Program) {
    let times: Vec<f64> = (0..ANALYZE_REPS)
        .map(|_| {
            tracer.span("analysis.analyze", 0, None, |_| {
                timed(|| black_box(manimal::analyze(black_box(program)))).0
            })
        })
        .collect();
    report.set(
        "analysis.analyze_s",
        median(&times).expect("ANALYZE_REPS > 0"),
    );
}

/// What draining inputs on one thread cost and read.
#[derive(Debug, Default, Clone, Copy)]
pub struct Decode {
    /// Wall time.
    pub secs: f64,
    /// Records produced.
    pub records: u64,
    /// Bytes the readers consumed.
    pub bytes: u64,
    /// B+Tree pages fetched.
    pub btree_pages: u64,
}

fn open_one(spec: &InputSpec) -> Result<Vec<SplitReader>, String> {
    spec.open(1).map_err(|e| format!("open input: {e}"))
}

/// Drain every split of every input in turn on the calling thread.
pub fn drain(specs: &[&InputSpec]) -> Result<Decode, String> {
    let mut d = Decode::default();
    let start = Instant::now();
    for spec in specs {
        for mut split in open_one(spec)? {
            for item in split.by_ref() {
                black_box(item.map_err(|e| format!("decode: {e}"))?);
                d.records += 1;
            }
            d.bytes += split.bytes_read();
            if let SplitReader::BTree { scanner } = &split {
                d.btree_pages += scanner.pages_read();
            }
        }
    }
    d.secs = start.elapsed().as_secs_f64();
    Ok(d)
}

/// `mr-engine::input` + `mr-storage` readers: drain the plan's inputs
/// and the full-scan inputs.
pub fn probe_decode(
    tracer: &Tracer,
    report: &mut Report,
    planned: &[&InputSpec],
    baseline: &[&InputSpec],
) -> Result<(), String> {
    let d = tracer.span("input.decode", 0, None, |_| drain(planned))?;
    let b = tracer.span("input.baseline_decode", 0, None, |_| drain(baseline))?;
    report.set("input.decode_s", d.secs);
    report.set("input.records", d.records as f64);
    report.set("input.bytes_read", d.bytes as f64);
    report.set("storage.btree_pages_read", d.btree_pages as f64);
    report.set("input.baseline_decode_s", b.secs);
    Ok(())
}

/// `mr-ir::interp`: `invoke_map` over the plan's records, decoded ahead
/// of time in chunks so only the interpreter is timed.
pub fn probe_interp(
    tracer: &Tracer,
    report: &mut Report,
    spec: &InputSpec,
    mapper: &Function,
) -> Result<(), String> {
    let mut interp = Interpreter::new(mapper);
    let (mut secs, mut records, mut instructions) = (0.0, 0u64, 0u64);
    let mut chunk: Vec<(Value, Value)> = Vec::with_capacity(INTERP_CHUNK);
    let mut run_chunk = |chunk: &mut Vec<(Value, Value)>| -> Result<(), String> {
        let (s, n) = tracer.span("interp.map", 0, None, |_| {
            timed(|| {
                let mut n = 0u64;
                for (k, v) in chunk.iter() {
                    let out = interp
                        .invoke_map(mapper, k, v)
                        .map_err(|e| format!("interp: {e}"))?;
                    n += out.instructions_executed;
                    black_box(out);
                }
                Ok::<u64, String>(n)
            })
        });
        secs += s;
        instructions += n?;
        records += chunk.len() as u64;
        chunk.clear();
        Ok(())
    };
    for split in open_one(spec)? {
        for item in split {
            chunk.push(item.map_err(|e| format!("decode: {e}"))?);
            if chunk.len() == INTERP_CHUNK {
                run_chunk(&mut chunk)?;
            }
        }
    }
    run_chunk(&mut chunk)?;
    report.set("interp.map_s", secs);
    report.set(
        "interp.instructions_per_record",
        instructions as f64 / records.max(1) as f64,
    );
    Ok(())
}

/// `mr-engine::runner`: phase timings and volumes of the traced jobs'
/// results (medians across jobs).
pub fn engine_metrics(report: &mut Report, results: &[JobResult]) {
    let med = |f: &dyn Fn(&JobResult) -> f64| -> f64 {
        median(&results.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    report.set("engine.job_s", med(&|r| r.elapsed.as_secs_f64()));
    report.set("engine.map_phase_s", med(&|r| r.phases.map.as_secs_f64()));
    report.set(
        "engine.shuffle_cpu_s",
        med(&|r| r.phases.shuffle.as_secs_f64()),
    );
    report.set(
        "engine.reduce_phase_s",
        med(&|r| r.phases.reduce.as_secs_f64()),
    );
    let c = |f: fn(&mr_engine::CounterSnapshot) -> u64| med(&|r| f(&r.counters) as f64);
    report.set("engine.map_output_records", c(|s| s.map_output_records));
    report.set("engine.shuffle_bytes", c(|s| s.shuffle_bytes));
    report.set("engine.spill_count", c(|s| s.spill_count));
    report.set("engine.spill_bytes_written", c(|s| s.spill_bytes_written));
    report.set("engine.combine_in", c(|s| s.combine_in));
    report.set("engine.combine_out", c(|s| s.combine_out));
    // Pairs the combiner let through per pair it took in; 1.0 (nothing
    // saved) when no combining was attempted.
    report.set(
        "engine.combine_yield",
        med(&|r| match r.counters.combine_in {
            0 => 1.0,
            n => r.counters.combine_out as f64 / n as f64,
        }),
    );
    report.set("engine.reduce_groups", c(|s| s.reduce_input_groups));
    report.set(
        "engine.allocs_per_record",
        med(&|r| r.counters.alloc_count as f64 / r.counters.map_input_records.max(1) as f64),
    );
    report.set("engine.task_retries", c(|s| s.task_retries));
    report.set(
        "engine.task_failures",
        c(|s| s.map_task_failures + s.reduce_task_failures),
    );
}

/// Set every per-layer metric of a layer the workload does not use to 0.
pub fn zero_unused(report: &mut Report) {
    for m in &crate::spec::spec().per_layer {
        report.metrics.entry(m.name.as_str()).or_insert(0.0);
    }
}

/// Per span name: `(name, self µs, total µs, count)`, by total time.
pub fn self_time_summary(spans: &[Span]) -> Vec<(&'static str, f64, f64, usize)> {
    let self_us = self_times_us(spans);
    let mut by_name: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_us) {
        let e = by_name.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.end_us - s.start_us;
        e.2 += 1;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (own, total, count))| (n, own, total, count))
        .collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

/// Tracing overhead: how much slower the traced jobs' median is than
/// `job_p50_s` of an untraced run of the same workload and seed. The
/// traced binary counts allocations and records spans; both costs are
/// in the difference.
pub fn overhead(report: &mut Report, untraced_p50_s: f64) {
    let traced = median(&report.traced_job_s).unwrap_or(0.0);
    report.set("trace.overhead_frac", traced / untraced_p50_s - 1.0);
}

/// `min p10 p25 p50 p75 p90 max` of a sample, for the stderr summary.
pub fn deciles(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return "no samples".into();
    }
    [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|q| format!("{:.4}", v[((v.len() - 1) as f64 * q).round() as usize]))
        .collect::<Vec<_>>()
        .join(" ")
        + &format!(" (n={})", v.len())
}
