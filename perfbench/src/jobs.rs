//! The single-job workloads: `agg-distinct`, `agg-grouped` and
//! `select-join`. One client runs jobs in a closed loop, optimized and
//! full-scan baseline jobs interleaved, at the engine's default
//! parallelism.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use manimal::{
    choose_join_plan, Builtin, CatalogEntry, JoinJob, JoinPlan, Manimal, Submission,
    DEFAULT_BROADCAST_BUDGET,
};
use mr_engine::{InputSpec, JobResult};
use mr_ir::function::Program;
use mr_ir::value::Value;
use mr_json::Json;
use mr_workloads::data::{generate_rankings, generate_uservisits, UserVisitsConfig};
use mr_workloads::pavlo;

use crate::layers::{self, timed};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{phase, Args, Report, WorkDir, Workload};

/// UserVisits records of the aggregation workloads.
const AGG_VISITS: usize = 50_000;
/// Shuffle budget of the aggregation workloads: well below the
/// near-distinct workload's shuffle volume, so its jobs spill.
const AGG_SHUFFLE_BUDGET: usize = 512 << 10;
/// Distinct source IPs of `agg-grouped`.
const GROUPED_SOURCE_IPS: usize = 400;
/// UserVisits records of `select-join`.
const JOIN_VISITS: usize = 150_000;
/// Rankings records (and distinct pages) of `select-join`.
const JOIN_RANKINGS: usize = 30_000;
/// Share of the visit date range the `select-join` window keeps.
const JOIN_DATE_FRACTION: f64 = 0.01;
/// Optimized jobs a run measures at least, whatever `--seconds` says:
/// enough that the tail is p90 (ten samples beyond it) in every run,
/// not p75 in a run that happened to be slow.
const MIN_JOBS: usize = 120;
/// Set-up is repeated at least this often per run; the median is reported.
const SETUP_MIN_REPS: usize = 3;
/// ... and until the repetitions took this long together (cheap set-ups
/// get more repetitions, so their median is as steady as a costly one's,
/// and a slow spell of a second or so on a shared machine is outvoted) ...
const SETUP_TARGET_S: f64 = 3.0;
/// ... but never more often than this.
const SETUP_MAX_REPS: usize = 75;

/// Whether a run has repeated its set-up often enough.
fn setup_done(times: &[f64]) -> bool {
    times.len() >= SETUP_MAX_REPS
        || (times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_TARGET_S)
}

/// Encode a job's output pairs with the storage row codec, so outputs
/// compare byte for byte.
pub fn encode_output(pairs: &[(Value, Value)]) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    for (k, v) in pairs {
        mr_storage::rowcodec::encode_value(k, &mut buf).map_err(|e| format!("encode: {e}"))?;
        mr_storage::rowcodec::encode_value(v, &mut buf).map_err(|e| format!("encode: {e}"))?;
    }
    Ok(buf)
}

/// A measured job: `Some(result)` when it ran and its output matches
/// the reference, `None` (reported on stderr) otherwise.
fn checked(outcome: Result<JobResult, String>, reference: &[u8], what: &str) -> Option<JobResult> {
    match outcome.and_then(|r| Ok((encode_output(&r.output)?, r))) {
        Ok((bytes, r)) if bytes == reference => Some(r),
        Ok(_) => {
            eprintln!("{what}: output differs from the reference");
            None
        }
        Err(e) => {
            eprintln!("{what}: {e}");
            None
        }
    }
}

type JobFn<'a> = Box<dyn FnMut(&Tracer, u64) -> Result<JobResult, String> + 'a>;

/// What a closed loop measured.
#[derive(Default)]
struct Samples {
    opt_s: Vec<f64>,
    base_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Untraced closed loop: optimized and baseline jobs interleaved, the
/// order flipping every round, for `seconds` (and, unless a job failed,
/// at least [`MIN_JOBS`] optimized jobs). One untimed warm-up round
/// first.
fn closed_loop<'a>(
    seconds: u64,
    reference: &[u8],
    mut opt: JobFn<'a>,
    mut base: JobFn<'a>,
) -> Samples {
    let off = Tracer::new(false);
    let mut s = Samples::default();
    for (f, what) in [(&mut opt, "warm-up job"), (&mut base, "warm-up baseline")] {
        s.attempted += 1;
        if checked(f(&off, 0), reference, what).is_none() {
            s.failed += 1;
        }
    }
    phase("warmed up");
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline || (s.opt_s.len() < MIN_JOBS && s.failed == 0) {
        round += 1;
        for opt_turn in [round.is_multiple_of(2), !round.is_multiple_of(2)] {
            let (f, times, what) = if opt_turn {
                (&mut opt, &mut s.opt_s, "job")
            } else {
                (&mut base, &mut s.base_s, "baseline job")
            };
            s.attempted += 1;
            let (secs, out) = timed(|| f(&off, round));
            match checked(out, reference, what) {
                Some(_) => times.push(secs),
                None => s.failed += 1,
            }
        }
    }
    phase("measured");
    s
}

/// Traced closed loop: optimized jobs with spans, for `seconds` (and at
/// least a fifth of [`MIN_JOBS`]). Returns the jobs' results and times.
fn traced_loop(
    seconds: u64,
    reference: &[u8],
    tracer: &Tracer,
    mut opt: JobFn<'_>,
) -> (Vec<JobResult>, Samples) {
    let mut results = Vec::new();
    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut job = 0u64;
    while Instant::now() < deadline || (s.opt_s.len() < MIN_JOBS / 5 && s.failed == 0) {
        job += 1;
        s.attempted += 1;
        let (secs, out) = timed(|| opt(tracer, job));
        match checked(out, reference, "traced job") {
            Some(r) => {
                s.opt_s.push(secs);
                results.push(r);
            }
            None => s.failed += 1,
        }
    }
    (results, s)
}

/// A set-up instance, its submission and registered indexes, and the
/// set-up and index-build times of every repetition.
type SetUp = (Manimal, Submission, Vec<CatalogEntry>, Vec<f64>, Vec<f64>);

/// Submit + build indexes until [`setup_done`], each time on a fresh
/// work directory; keep the last instance. Returns it, its submission, the
/// registered entries, and the set-up times.
fn set_up(
    work: &WorkDir,
    tracer: &Tracer,
    program: &Program,
    input: &Path,
    shuffle_budget: Option<usize>,
) -> Result<SetUp, String> {
    let mut kept = None;
    let (mut setup_s, mut build_s) = (Vec::new(), Vec::new());
    for rep in 0.. {
        let dir = work.path().join(format!("manimal-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Manimal::new(&dir).map_err(|e| format!("manimal: {e}"))?;
        m.shuffle_buffer_bytes = shuffle_budget;
        let start = Instant::now();
        let (sub, (b, entries)) = tracer.span("setup", 0, None, |root| {
            let sub = tracer.span("manimal.submit", 0, root, |_| m.submit(program, input));
            let built = tracer.span("indexgen.build_indexes", 0, root, |_| {
                timed(|| m.build_indexes(&sub))
            });
            (sub, built)
        });
        setup_s.push(start.elapsed().as_secs_f64());
        build_s.push(b);
        let entries = entries.map_err(|e| format!("build indexes: {e}"))?;
        if let Some((_, _, _, old_dir)) = kept.replace((m, sub, entries, dir)) {
            let _ = std::fs::remove_dir_all(old_dir);
        }
        if setup_done(&setup_s) {
            break;
        }
    }
    let (m, sub, entries, _) = kept.expect("set-up ran");
    Ok((m, sub, entries, setup_s, build_s))
}

fn file_bytes(p: &Path) -> Result<u64, String> {
    std::fs::metadata(p)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", p.display()))
}

/// Median duration in seconds of the spans named `name`.
fn span_median_s(tracer: &Tracer, name: &str) -> f64 {
    let d: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_us - s.start_us) / 1e6)
        .collect();
    median(&d).unwrap_or(0.0)
}

/// Fill the end-to-end metrics of an untraced loop.
fn end_to_end(
    report: &mut Report,
    s: &Samples,
    records: u64,
    setup_s: &[f64],
    index_bytes: u64,
    input_bytes: u64,
) -> Result<(), String> {
    for (what, v) in [
        ("job", &s.opt_s[..]),
        ("baseline", &s.base_s),
        ("set-up", setup_s),
    ] {
        eprintln!("{what:>9} s: {}", layers::deciles(v));
    }
    let p50 = median(&s.opt_s).ok_or("no optimized job completed")?;
    let base = median(&s.base_s).ok_or("no baseline job completed")?;
    let (pct, tail_s) = tail(&s.opt_s).ok_or("too few jobs for a tail percentile")?;
    report.set("job_p50_s", p50);
    report.set("job_tail_s", tail_s);
    report.set("records_per_s", records as f64 / p50);
    report.set("baseline_p50_s", base);
    report.set("speedup", base / p50);
    report.set("setup_s", median(setup_s).expect("set-up ran"));
    report.set("index_bytes_ratio", index_bytes as f64 / input_bytes as f64);
    report.note("tail_percentile", Json::Float(pct));
    report.note("jobs", Json::Int(s.opt_s.len() as i64));
    report.note("baseline_jobs", Json::Int(s.base_s.len() as i64));
    Ok(())
}

/// `agg-distinct` / `agg-grouped`: Pavlo Benchmark 2,
/// `SUM(adRevenue) GROUP BY sourceIP`, over UserVisits.
pub fn aggregation(args: &Args, work: &WorkDir, tracer: &Tracer) -> Result<Report, String> {
    let grouped = args.workload == Workload::AggGrouped;
    let visits = work.path().join("uservisits.seq");
    let cfg = UserVisitsConfig {
        visits: AGG_VISITS,
        seed: args.seed,
        source_ips: if grouped { GROUPED_SOURCE_IPS } else { 0 },
        ..UserVisitsConfig::default()
    };
    let records = generate_uservisits(&visits, &cfg).map_err(|e| format!("generate: {e}"))?;
    let input_bytes = file_bytes(&visits)?;
    phase("inputs generated");
    let program = pavlo::benchmark2();
    let budget = AGG_SHUFFLE_BUDGET;
    let (manimal, sub, entries, setup_s, build_s) =
        set_up(work, tracer, &program, &visits, Some(budget))?;
    let reducer = || -> Arc<dyn mr_engine::ReducerFactory> { Arc::new(Builtin::Sum) };

    phase("set up");
    // Reference: the full-scan baseline, once.
    let reference_run = manimal
        .execute_baseline(&sub, reducer())
        .map_err(|e| format!("reference: {e}"))?;
    let reference = encode_output(&reference_run.result.output)?;
    let groups = reference_run.result.output.len() as u64;
    let shuffle_volume = reference_run.result.counters.shuffle_bytes;

    phase("reference computed");
    // Input self-checks: the workload is what its name says.
    let groups_per_record = groups as f64 / records as f64;
    if grouped && groups_per_record > 0.01 {
        return Err(format!(
            "agg-grouped has {groups_per_record:.4} groups per record (> 0.01)"
        ));
    }
    if !grouped && groups_per_record < 0.9 {
        return Err(format!(
            "agg-distinct has {groups_per_record:.4} groups per record (< 0.9)"
        ));
    }
    if !grouped && shuffle_volume <= budget as u64 {
        return Err(format!(
            "agg-distinct shuffle volume {shuffle_volume} B does not exceed the {budget} B budget"
        ));
    }

    let mut report = Report::default();
    report.note("records", Json::Int(records as i64));
    report.note("file_bytes", Json::Int(input_bytes as i64));
    report.note("shuffle_budget", Json::Int(budget as i64));
    report.note("groups", Json::Int(groups as i64));
    report.note("reference_shuffle_bytes", Json::Int(shuffle_volume as i64));
    let index_bytes: u64 = entries.iter().map(|e| e.index_bytes).sum();

    let opt: JobFn<'_> = Box::new(|tr: &Tracer, job| {
        tr.span("job", job, None, |root| {
            let plan = tr
                .span("optimizer.plan", job, root, |_| manimal.plan(&sub))
                .map_err(|e| format!("plan: {e}"))?;
            tr.span("engine.execute", job, root, |_| {
                manimal.execute_plan(&sub, plan, reducer())
            })
            .map(|e| e.result)
            .map_err(|e| format!("execute: {e}"))
        })
    });

    if !args.trace {
        let base: JobFn<'_> = Box::new(|_, _| {
            manimal
                .execute_baseline(&sub, reducer())
                .map(|e| e.result)
                .map_err(|e| format!("baseline: {e}"))
        });
        let s = closed_loop(args.seconds, &reference, opt, base);
        report.attempted = s.attempted;
        report.failed = s.failed;
        end_to_end(&mut report, &s, records, &setup_s, index_bytes, input_bytes)?;
        return Ok(report);
    }

    let plan = manimal.plan(&sub).map_err(|e| format!("plan: {e}"))?;
    report.note("plan", Json::str(plan.to_string()));
    layers::probe_analysis(tracer, &mut report, &program);
    let full = InputSpec::SeqFile {
        path: visits.clone(),
    };
    layers::probe_decode(tracer, &mut report, &[&plan.input], &[&full])?;
    layers::probe_interp(tracer, &mut report, &plan.input, &plan.mapper)?;
    let (results, s) = traced_loop(args.seconds, &reference, tracer, opt);
    report.attempted = s.attempted;
    report.failed = s.failed;
    report.traced_job_s = s.opt_s;
    report.set("indexgen.build_s", median(&build_s).expect("set-up ran"));
    report.set("indexgen.index_bytes", index_bytes as f64);
    report.set("optimizer.plan_s", span_median_s(tracer, "optimizer.plan"));
    layers::engine_metrics(&mut report, &results);
    layers::zero_unused(&mut report);
    Ok(report)
}

/// `select-join`: Pavlo Benchmark 3. The visits side is planned onto
/// the analyzer's date-window B+Tree, then joined with Rankings through
/// `execute_join` under the automatic (size-based) join plan.
pub fn select_join(args: &Args, work: &WorkDir, tracer: &Tracer) -> Result<Report, String> {
    let rankings: PathBuf = work.path().join("rankings.seq");
    let visits: PathBuf = work.path().join("uservisits.seq");
    let n_rankings = generate_rankings(&rankings, JOIN_RANKINGS, false, args.seed ^ 0x5eed)
        .map_err(|e| format!("generate rankings: {e}"))?;
    let cfg = UserVisitsConfig {
        visits: JOIN_VISITS,
        pages: JOIN_RANKINGS,
        seed: args.seed,
        ..UserVisitsConfig::default()
    };
    let n_visits = generate_uservisits(&visits, &cfg).map_err(|e| format!("generate: {e}"))?;
    let (visits_bytes, rankings_bytes) = (file_bytes(&visits)?, file_bytes(&rankings)?);
    let (lo, hi) = pavlo::benchmark3_date_window(&cfg, JOIN_DATE_FRACTION);
    let visits_prog = pavlo::benchmark3_visits_mapper(lo, hi);
    let rankings_prog = pavlo::benchmark3_rankings_mapper();
    let (manimal, sub, entries, setup_s, build_s) =
        set_up(work, tracer, &visits_prog, &visits, None)?;

    // Input self-checks: the plan selects through the index and the
    // automatic join decision is broadcast.
    let plan = manimal.plan(&sub).map_err(|e| format!("plan: {e}"))?;
    if !plan.applied.iter().any(|a| a.starts_with("selection")) {
        return Err(format!("select-join plan applies no selection: {plan}"));
    }
    let decision = choose_join_plan(&rankings, DEFAULT_BROADCAST_BUDGET, None)
        .map_err(|e| format!("join decision: {e}"))?;
    if decision.plan != JoinPlan::Broadcast {
        return Err(format!(
            "select-join join decision is not broadcast: {decision}"
        ));
    }

    let join_job = |probe: InputSpec, probe_mapper, plan| JoinJob {
        name: "select-join".into(),
        build: InputSpec::SeqFile {
            path: rankings.clone(),
        },
        build_mapper: rankings_prog.mapper.clone(),
        probe,
        probe_mapper,
        plan,
    };
    let baseline_job = join_job(
        InputSpec::SeqFile {
            path: visits.clone(),
        },
        visits_prog.mapper.clone(),
        decision.plan,
    );
    let reference_run = manimal
        .execute_join(&baseline_job)
        .map_err(|e| format!("reference: {e}"))?;
    let reference = encode_output(&reference_run.result.output)?;
    let join_rows = reference_run.result.output.len() as u64;
    if join_rows == 0 {
        return Err("select-join reference join is empty".into());
    }

    let mut report = Report::default();
    report.note("records", Json::Int((n_visits + n_rankings) as i64));
    report.note("visits", Json::Int(n_visits as i64));
    report.note("rankings", Json::Int(n_rankings as i64));
    report.note(
        "file_bytes",
        Json::Int((visits_bytes + rankings_bytes) as i64),
    );
    report.note("shuffle_budget", Json::Null);
    report.note("join_rows", Json::Int(join_rows as i64));
    report.note("plan", Json::str(plan.to_string()));
    report.note("join_decision", Json::str(decision.to_string()));
    let index_bytes: u64 = entries.iter().map(|e| e.index_bytes).sum();

    let opt: JobFn<'_> = Box::new(|tr: &Tracer, job| {
        tr.span("job", job, None, |root| {
            let plan = tr
                .span("optimizer.plan", job, root, |_| manimal.plan(&sub))
                .map_err(|e| format!("plan: {e}"))?;
            let decision = tr
                .span("optimizer.join_plan", job, root, |_| {
                    choose_join_plan(&rankings, DEFAULT_BROADCAST_BUDGET, None)
                })
                .map_err(|e| format!("join decision: {e}"))?;
            let jj = join_job(plan.input, plan.mapper, decision.plan);
            tr.span("join.execute", job, root, |_| manimal.execute_join(&jj))
                .map(|e| e.result)
                .map_err(|e| format!("join: {e}"))
        })
    });

    if !args.trace {
        let base: JobFn<'_> = Box::new(|_, _| {
            manimal
                .execute_join(&baseline_job)
                .map(|e| e.result)
                .map_err(|e| format!("baseline join: {e}"))
        });
        let s = closed_loop(args.seconds, &reference, opt, base);
        report.attempted = s.attempted;
        report.failed = s.failed;
        let records = n_visits + n_rankings;
        end_to_end(
            &mut report,
            &s,
            records,
            &setup_s,
            index_bytes,
            visits_bytes,
        )?;
        return Ok(report);
    }

    layers::probe_analysis(tracer, &mut report, &visits_prog);
    let rankings_in = InputSpec::SeqFile {
        path: rankings.clone(),
    };
    let full = InputSpec::SeqFile {
        path: visits.clone(),
    };
    layers::probe_decode(
        tracer,
        &mut report,
        &[&plan.input, &rankings_in],
        &[&full, &rankings_in],
    )?;
    layers::probe_interp(tracer, &mut report, &plan.input, &plan.mapper)?;
    let (results, s) = traced_loop(args.seconds, &reference, tracer, opt);
    report.attempted = s.attempted;
    report.failed = s.failed;
    report.traced_job_s = s.opt_s;
    report.set("indexgen.build_s", median(&build_s).expect("set-up ran"));
    report.set("indexgen.index_bytes", index_bytes as f64);
    report.set("optimizer.plan_s", span_median_s(tracer, "optimizer.plan"));
    report.set("join.execute_s", span_median_s(tracer, "join.execute"));
    report.set("join.build_bytes", decision.build_bytes as f64);
    report.set("join.rows", join_rows as f64);
    layers::engine_metrics(&mut report, &results);
    layers::zero_unused(&mut report);
    Ok(report)
}
