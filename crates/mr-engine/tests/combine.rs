//! The map-side combining contract: with a combiner plugged in, a job —
//! spilling or not — produces output byte-identical to the combiner-free
//! run, while the spill counters collapse on low-cardinality group-bys
//! and `combine_in > combine_out` proves pairs were folded. On
//! near-distinct keys map attempts bypass the combiner, on both
//! backends, without changing the output.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use mr_engine::{run_job, BackendSpec, Builtin, InputSpec, JobConfig, JobResult, ProcessCfg};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::rowcodec::encode_value;
use mr_storage::seqfile::write_seqfile;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-combine-tests");
    std::fs::create_dir_all(&dir).unwrap();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}", std::process::id()))
}

fn schema() -> Arc<Schema> {
    Schema::new("T", vec![("k", FieldType::Str), ("v", FieldType::Int)]).into_arc()
}

fn emit_kv_mapper() -> mr_ir::function::Function {
    parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.k
          r2 = field r0.v
          emit r1, r2
          ret
        }
        "#,
    )
    .unwrap()
}

fn write_pairs(name: &str, pairs: &[(String, i64)]) -> PathBuf {
    let s = schema();
    let records: Vec<Record> = pairs
        .iter()
        .map(|(k, v)| record(&s, vec![k.as_str().into(), Value::Int(*v)]))
        .collect();
    let path = tmp(name);
    write_seqfile(&path, s, records).unwrap();
    path
}

fn run(path: &Path, reducer: Builtin, budget: Option<usize>, combining: bool) -> JobResult {
    run_on(path, reducer, budget, combining, BackendSpec::Local)
}

fn run_on(
    path: &Path,
    reducer: Builtin,
    budget: Option<usize>,
    combining: bool,
    backend: BackendSpec,
) -> JobResult {
    let mut j = JobConfig::ir_job(
        "combine-contract",
        InputSpec::SeqFile {
            path: path.to_path_buf(),
        },
        emit_kv_mapper(),
        reducer,
    )
    .with_reducers(2)
    // Pin the worker count so each worker's staging share is large
    // enough to hold many pairs — the regime combiners exist for (a
    // share of a few bytes flushes pairs one at a time and leaves
    // nothing to fold).
    .with_parallelism(2)
    .with_backend(backend);
    j.shuffle_buffer_bytes = budget;
    if combining {
        j = j.with_declared_combiner();
        assert!(j.combiner.is_some(), "{reducer:?} declares a combiner");
    }
    run_job(&j).unwrap()
}

/// Both execution backends; the process one runs the dedicated worker
/// binary (the default re-exec would re-run this test executable).
fn backends() -> [BackendSpec; 2] {
    [
        BackendSpec::Local,
        BackendSpec::Process(ProcessCfg {
            workers: 2,
            worker_cmd: Some(vec![env!("CARGO_BIN_EXE_mr_worker").to_string()]),
            speculate: false,
        }),
    ]
}

/// Output pairs in the storage row encoding, so equal-comparing values
/// of different kinds (`Int(2)` vs `Double(2.0)`) still differ.
fn output_bytes(r: &JobResult) -> Vec<u8> {
    let mut out = Vec::new();
    for (k, v) in &r.output {
        encode_value(k, &mut out).unwrap();
        encode_value(v, &mut out).unwrap();
    }
    out
}

/// Budget of the bypass tests: a 64 KiB staging share per map worker
/// holds ~3,000 pairs, so the first capped fold sees enough pairs to
/// judge the combiner.
const BYPASS_BUDGET: usize = 256 << 10;

/// Run `pairs` plain and combined on both backends; return the combined
/// runs after checking each against the plain run of its backend.
fn plain_vs_combined(name: &str, pairs: &[(String, i64)], reducer: Builtin) -> Vec<JobResult> {
    let path = write_pairs(name, pairs);
    backends()
        .into_iter()
        .map(|backend| {
            let plain = run_on(&path, reducer, Some(BYPASS_BUDGET), false, backend.clone());
            let combined = run_on(&path, reducer, Some(BYPASS_BUDGET), true, backend.clone());
            assert_eq!(
                output_bytes(&plain),
                output_bytes(&combined),
                "{reducer:?} on {backend:?}"
            );
            assert!(
                combined.counters.spilled_records <= plain.counters.spilled_records,
                "{reducer:?} on {backend:?}: spilled {} vs {}",
                combined.counters.spilled_records,
                plain.counters.spilled_records
            );
            assert_eq!(plain.counters.combine_bypassed, 0);
            combined
        })
        .collect()
}

/// Near-distinct keys: each map attempt's first judged fold keeps
/// nearly every pair, so both attempts stop folding, and the output is
/// still byte-identical to the combiner-free run.
#[test]
fn near_distinct_sum_bypasses_the_combiner() {
    let pairs: Vec<(String, i64)> = (0..20_000)
        .map(|i| (format!("ip-{}", i % 15_000), i % 101))
        .collect();
    for combined in plain_vs_combined("distinct-sum", &pairs, Builtin::Sum) {
        let c = combined.counters;
        assert_eq!(c.combine_bypassed, 2, "both map attempts bypass");
        // Only the judging folds and the shared-bucket spills folded;
        // always-on folding counts every pair at least twice.
        assert!(
            c.combine_in < c.map_output_records,
            "combine_in {} of {} pairs",
            c.combine_in,
            c.map_output_records
        );
    }
}

/// Count's `inject` maps every value to 1, so a bypassed attempt that
/// failed to inject its pairs would sum raw values instead of counting.
#[test]
fn near_distinct_count_bypasses_and_still_injects() {
    let pairs: Vec<(String, i64)> = (0..20_000)
        .map(|i| (format!("ip-{}", i % 15_000), 7 + i % 101))
        .collect();
    for combined in plain_vs_combined("distinct-count", &pairs, Builtin::Count) {
        assert_eq!(combined.counters.combine_bypassed, 2);
        assert!(combined
            .output
            .iter()
            .all(|(_, n)| matches!(n, Value::Int(1 | 2))));
    }
}

/// 400 keys repeat within every staging window: folding pays, so no
/// attempt bypasses and the combine counters show the folding.
#[test]
fn four_hundred_keys_never_bypass() {
    let pairs: Vec<(String, i64)> = (0..20_000)
        .map(|i| (format!("ip-{}", (i * 7) % 400), i % 101))
        .collect();
    for combined in plain_vs_combined("grouped-sum", &pairs, Builtin::Sum) {
        let c = combined.counters;
        assert_eq!(c.combine_bypassed, 0);
        assert!(2 * c.combine_out < c.combine_in, "{c:?}");
    }
}

/// The acceptance-criteria test: a low-cardinality group-by forced
/// through ≥3 spills per reducer produces byte-identical output with
/// the combiner active, while spilled records and bytes drop ≥5× and
/// the combine counters prove the folding.
#[test]
fn spilling_combined_sum_is_byte_identical_and_5x_smaller() {
    let num_reducers = 2u64;
    // 6000 pairs over 8 distinct keys: the shape combiners exist for.
    let pairs: Vec<(String, i64)> = (0..6000)
        .map(|i| (format!("key-{}", i % 8), i % 101))
        .collect();
    let path = write_pairs("accept", &pairs);

    // 2 KiB across 2 workers + 2 reducers: each worker stages ~40 pairs
    // per flush (folded to ≤8 partials) and each bucket spills ~40
    // resident pairs per run — ≥3 spills per reducer either way.
    let plain = run(&path, Builtin::Sum, Some(2048), false);
    let combined = run(&path, Builtin::Sum, Some(2048), true);

    assert!(
        plain.counters.spill_count >= 3 * num_reducers,
        "baseline must spill ≥3 times per reducer, got {}",
        plain.counters.spill_count
    );
    assert_eq!(plain.output, combined.output, "output must be identical");

    // The whole point: the shuffle's disk traffic collapses.
    assert!(
        plain.counters.spilled_records >= 5 * combined.counters.spilled_records.max(1),
        "spilled records {} vs {}",
        plain.counters.spilled_records,
        combined.counters.spilled_records
    );
    assert!(
        plain.counters.spill_bytes_written >= 5 * combined.counters.spill_bytes_written.max(1),
        "spill bytes {} vs {}",
        plain.counters.spill_bytes_written,
        combined.counters.spill_bytes_written
    );

    // Counter hygiene: folding happened, and only on the combining run.
    assert!(combined.counters.combine_in > combined.counters.combine_out);
    assert_eq!(plain.counters.combine_in, 0);
    assert_eq!(plain.counters.combine_out, 0);
    // Emission-side counters are pre-combine, so they agree across runs.
    assert_eq!(
        plain.counters.map_output_records,
        combined.counters.map_output_records
    );
    assert_eq!(
        plain.counters.reduce_input_groups,
        combined.counters.reduce_input_groups
    );
}

/// Text-file output is byte-for-byte identical too (the same check the
/// spill suite applies to the external shuffle).
#[test]
fn combined_text_output_files_byte_identical() {
    let pairs: Vec<(String, i64)> = (0..3000).map(|i| (format!("k{}", i % 5), i % 47)).collect();
    let path = write_pairs("textout", &pairs);
    let outdirs = (tmp("plain-out"), tmp("combined-out"));
    let job = |outdir: &PathBuf, combining: bool| {
        let mut j = JobConfig::ir_job(
            "text",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            Builtin::Sum,
        )
        .with_reducers(3)
        .with_shuffle_buffer(200)
        .with_text_output(outdir);
        if combining {
            j = j.with_declared_combiner();
        }
        j
    };
    let plain = run_job(&job(&outdirs.0, false)).unwrap();
    let combined = run_job(&job(&outdirs.1, true)).unwrap();
    assert_eq!(plain.output_files.len(), combined.output_files.len());
    for (a, b) in plain.output_files.iter().zip(&combined.output_files) {
        let pa = std::fs::read(a).unwrap();
        let pb = std::fs::read(b).unwrap();
        assert!(!pa.is_empty());
        assert_eq!(pa, pb, "{} != {}", a.display(), b.display());
    }
}

/// Every builtin that declares a combiner matches its combiner-free
/// output, spilling and resident alike.
#[test]
fn all_declared_combiners_match_raw_reducers() {
    let pairs: Vec<(String, i64)> = (0..2500)
        .map(|i| (format!("key-{}", (i * 7) % 11), (i % 201) - 100))
        .collect();
    let path = write_pairs("builtins", &pairs);
    for reducer in [
        Builtin::Sum,
        Builtin::Count,
        Builtin::Max,
        Builtin::Min,
        Builtin::SumDropKey,
    ] {
        for budget in [None, Some(128), Some(2048)] {
            let plain = run(&path, reducer, budget, false);
            let combined = run(&path, reducer, budget, true);
            assert_eq!(
                plain.output, combined.output,
                "{reducer:?} with budget {budget:?}"
            );
        }
    }
}

/// Reducers without a declared combiner run the plain pipeline even
/// when asked — `with_declared_combiner` is a no-op for them.
#[test]
fn undeclared_combiners_fall_back_cleanly() {
    let pairs: Vec<(String, i64)> = (0..500).map(|i| (format!("k{}", i % 3), i)).collect();
    let path = write_pairs("fallback", &pairs);
    for reducer in [Builtin::Identity, Builtin::First] {
        let j = JobConfig::ir_job(
            "fallback",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            reducer,
        )
        .with_shuffle_buffer(128)
        .with_declared_combiner();
        assert!(j.combiner.is_none());
        let result = run_job(&j).unwrap();
        assert_eq!(result.counters.combine_in, 0);
        assert!(result.counters.spill_count > 0);
    }
}

/// A combiner error (non-numeric value under Sum) surfaces as a job
/// error instead of corrupting output.
#[test]
fn combiner_error_propagates() {
    let s = Schema::new("S", vec![("k", FieldType::Str), ("v", FieldType::Str)]).into_arc();
    let records: Vec<Record> = (0..10)
        .map(|i| record(&s, vec!["k".into(), format!("s{i}").into()]))
        .collect();
    let path = tmp("badsum");
    write_seqfile(&path, s, records).unwrap();
    let j = JobConfig::ir_job(
        "badsum",
        InputSpec::SeqFile { path },
        emit_kv_mapper(),
        Builtin::Sum,
    )
    .with_declared_combiner();
    // The combiner fails inside a map attempt, so the job surfaces an
    // exhausted task whose cause is the combiner error.
    match run_job(&j) {
        Err(mr_engine::EngineError::TaskFailed { cause, .. }) => {
            assert!(
                matches!(*cause, mr_engine::EngineError::Combine(_)),
                "{cause}"
            );
        }
        other => panic!("expected TaskFailed(Combine), got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary key distributions, reducers, parallelism, and
    /// budgets, the combining pipeline equals the combiner-free one.
    #[test]
    fn combined_output_equals_plain_output(
        pairs in proptest::collection::vec(("[a-e]{1,2}", -500i64..500), 0..300),
        reducer_pick in 0usize..4,
        budget in prop_oneof![Just(None), (64usize..2048).prop_map(Some)],
        parallelism in 1usize..5,
    ) {
        let reducer = [Builtin::Sum, Builtin::Count, Builtin::Max, Builtin::Min][reducer_pick];
        let path = write_pairs("prop", &pairs);
        let run = |combining: bool| {
            let mut j = JobConfig::ir_job(
                "prop",
                InputSpec::SeqFile { path: path.clone() },
                emit_kv_mapper(),
                reducer,
            )
            .with_reducers(3)
            .with_parallelism(parallelism);
            j.shuffle_buffer_bytes = budget;
            if combining {
                j = j.with_declared_combiner();
            }
            run_job(&j).unwrap()
        };
        let plain = run(false);
        let combined = run(true);
        prop_assert_eq!(&plain.output, &combined.output);
        prop_assert_eq!(
            plain.counters.reduce_input_groups,
            combined.counters.reduce_input_groups
        );
        // A combiner can only shrink the spill, never grow it.
        prop_assert!(
            combined.counters.spilled_records <= plain.counters.spilled_records
        );
        std::fs::remove_file(&path).ok();
    }
}
