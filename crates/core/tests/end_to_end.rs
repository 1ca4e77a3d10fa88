//! End-to-end integration: analyzer → index generation → optimizer →
//! execution fabric, asserting the paper's core safety contract: "the
//! final program output should be the same as what would have been
//! generated by a conventional MapReduce system" — while doing less
//! work.

use std::path::PathBuf;
use std::sync::Arc;

use manimal::{Builtin, Manimal};
use mr_engine::{InputSpec, JobConfig};
use mr_ir::asm::parse_function;
use mr_ir::interp::Interpreter;
use mr_ir::{Program, SideEffectKind, Value};
use mr_storage::colfile::write_projected;
use mr_storage::seqfile::SeqFileMeta;
use mr_workloads::data::{
    generate_uservisits, generate_webpages, webpages_schema, UserVisitsConfig, WebPagesConfig,
};
use mr_workloads::queries::{
    duration_sum_query, projection_query, selection_query, threshold_for_selectivity,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-e2e")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_webpages(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("webpages.seq");
    generate_webpages(
        &path,
        &WebPagesConfig {
            pages: 3000,
            content_size: 300,
            ..WebPagesConfig::default()
        },
    )
    .unwrap();
    path
}

fn small_uservisits(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("uservisits.seq");
    generate_uservisits(
        &path,
        &UserVisitsConfig {
            visits: 4000,
            pages: 500,
            ..UserVisitsConfig::default()
        },
    )
    .unwrap();
    path
}

#[test]
fn selection_plan_matches_baseline_and_skips_work() {
    let dir = tmpdir("selection");
    let input = small_webpages(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    // 10% selectivity: rank > 89.
    let program = selection_query(threshold_for_selectivity(10));
    let submission = manimal.submit(&program, &input);

    // The analyzer found the selection and recommends a B+Tree.
    assert!(submission
        .report
        .selection
        .descriptor()
        .is_some_and(|d| d.index_useful()));
    assert_eq!(submission.index_programs.len(), 1);

    // Before indexes exist, the plan is a full scan.
    let pre = manimal.plan(&submission).unwrap();
    assert!(pre.applied.is_empty());

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Count))
        .unwrap();

    manimal.build_indexes(&submission).unwrap();
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::Count))
        .unwrap();
    assert!(
        optimized.applied.iter().any(|a| a.contains("selection")),
        "applied: {:?}",
        optimized.applied
    );

    // Identical output…
    assert_eq!(optimized.result.output, baseline.result.output);
    assert!(!baseline.result.output.is_empty());

    // …with far less work: ~10% of map invocations and fewer bytes.
    let base_maps = baseline.result.counters.map_invocations;
    let opt_maps = optimized.result.counters.map_invocations;
    assert!(
        opt_maps * 5 < base_maps,
        "index should skip ~90% of invocations: {opt_maps} vs {base_maps}"
    );
    assert!(optimized.result.counters.input_bytes < baseline.result.counters.input_bytes);
}

#[test]
fn selection_with_projection_uses_combined_index() {
    let dir = tmpdir("sel-proj");
    let input = small_webpages(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    // projection_query never reads `content`, so the recommended index
    // is a combined selection+projection B+Tree.
    let program = projection_query(threshold_for_selectivity(20));
    let submission = manimal.submit(&program, &input);
    let combined = &submission.index_programs[0];
    match &combined.kind {
        manimal::IndexKind::Selection {
            projected_fields: Some(fields),
            ..
        } => {
            assert_eq!(fields, &vec!["url".to_string(), "rank".to_string()]);
        }
        other => panic!("expected combined selection+projection, got {other:?}"),
    }

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::First))
        .unwrap();
    let entries = manimal.build_indexes(&submission).unwrap();
    // The combined index is much smaller than the input: content gone.
    assert!(
        entries[0].space_overhead() < 0.5,
        "overhead {}",
        entries[0].space_overhead()
    );

    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::First))
        .unwrap();
    assert_eq!(optimized.result.output, baseline.result.output);
    assert_eq!(optimized.applied.len(), 2, "selection + projection");
}

#[test]
fn projection_delta_plan_for_aggregation() {
    let dir = tmpdir("proj-delta");
    let input = small_uservisits(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    let program = mr_workloads::pavlo::benchmark2();
    let submission = manimal.submit(&program, &input);

    // No selection (always emits); combined projection+delta artifact.
    assert!(matches!(
        submission.report.selection,
        mr_analysis::SelectOutcome::AlwaysEmits
    ));
    match &submission.index_programs[0].kind {
        manimal::IndexKind::Delta {
            projected: Some(kept),
            fields,
        } => {
            assert_eq!(kept, &vec!["sourceIP".to_string(), "adRevenue".to_string()]);
            assert_eq!(fields, &vec!["adRevenue".to_string()]);
        }
        other => panic!("expected projected delta, got {other:?}"),
    }

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Sum))
        .unwrap();
    let entries = manimal.build_indexes(&submission).unwrap();
    assert!(
        entries[0].space_overhead() < 0.5,
        "dropping 7 of 9 fields must shrink the file: {}",
        entries[0].space_overhead()
    );
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::Sum))
        .unwrap();
    assert_eq!(optimized.result.output, baseline.result.output);
    assert!(optimized.result.counters.input_bytes < baseline.result.counters.input_bytes / 2);
}

#[test]
fn direct_operation_plan_preserves_group_sums() {
    let dir = tmpdir("direct");
    let input = small_uservisits(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    let program = duration_sum_query();
    let submission = manimal.submit(&program, &input);
    assert!(submission.report.direct.descriptor().is_some());

    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::SumDropKey))
        .unwrap();
    // Build only the dictionary artifact: the optimizer would otherwise
    // prefer the (also applicable, higher-ranked) projection+delta
    // plan; Table 6 isolates direct-operation.
    let dict_prog = submission
        .index_programs
        .iter()
        .find(|p| matches!(p.kind, manimal::IndexKind::Dict { .. }))
        .expect("dict program recommended");
    manimal.build_index(dict_prog).unwrap();
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::SumDropKey))
        .unwrap();
    assert!(
        optimized
            .applied
            .iter()
            .any(|a| a.contains("direct-operation")),
        "applied: {:?}",
        optimized.applied
    );
    // The URL never reaches the output, so the multiset of per-URL sums
    // must be identical even though the map saw integer codes.
    assert_eq!(optimized.result.output, baseline.result.output);
    assert!(optimized.result.counters.input_bytes < baseline.result.counters.input_bytes);
}

#[test]
fn unoptimizable_program_runs_as_full_scan() {
    let dir = tmpdir("unopt");
    let input = small_webpages(&dir);
    let manimal = Manimal::new(dir.join("work")).unwrap();

    // The Fig. 2 program: member-dependent emit decision.
    let mapper = mr_ir::asm::parse_function(
        r#"
        func map(key, value) {
          member numMapsRun = 0
          r0 = member numMapsRun
          r1 = const 1
          r2 = add r0, r1
          member numMapsRun = r2
          r3 = param value
          r4 = field r3.rank
          r5 = cmp gt r4, r1
          r6 = const 200
          r7 = cmp gt r2, r6
          r8 = or r5, r7
          br r8, t, e
        t:
          emit r4, r1
        e:
          ret
        }
        "#,
    )
    .unwrap();
    let program = mr_ir::Program::new("fig2", mapper, mr_workloads::data::webpages_schema());
    let submission = manimal.submit(&program, &input);
    assert!(matches!(
        submission.report.selection,
        mr_analysis::SelectOutcome::Unknown(_)
    ));
    // No selection index is recommended; projection may still apply
    // (safe: it does not change invocation counts).
    assert!(!submission
        .index_programs
        .iter()
        .any(|p| matches!(p.kind, manimal::IndexKind::Selection { .. })));
    // It still runs correctly as a full scan or projected plan.
    manimal.build_indexes(&submission).unwrap();
    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Count))
        .unwrap();
    let optimized = manimal
        .execute(&submission, Arc::new(Builtin::Count))
        .unwrap();
    assert_eq!(optimized.result.output, baseline.result.output);
}

#[test]
fn safe_mode_refuses_selection_over_side_effects() {
    let dir = tmpdir("safe-mode");
    let input = small_webpages(&dir);
    let mut manimal = Manimal::new(dir.join("work")).unwrap();

    let mapper = mr_ir::asm::parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.rank
          effect log(r1)
          r2 = const 89
          r3 = cmp gt r1, r2
          br r3, t, e
        t:
          emit r1, r2
        e:
          ret
        }
        "#,
    )
    .unwrap();
    let program = mr_ir::Program::new(
        "logging-select",
        mapper,
        mr_workloads::data::webpages_schema(),
    );
    let submission = manimal.submit(&program, &input);
    manimal.build_indexes(&submission).unwrap();

    // Default mode: selection applies (side effects are fair game, §2.2).
    let plan = manimal.plan(&submission).unwrap();
    assert!(plan.applied.iter().any(|a| a.contains("selection")));

    // Safe mode: the index would change how often the log statement
    // runs, so the optimizer declines.
    manimal.optimizer.safe_mode = true;
    let plan = manimal.plan(&submission).unwrap();
    assert!(
        !plan.applied.iter().any(|a| a.contains("selection")),
        "safe mode must refuse: {:?}",
        plan.applied
    );
}

#[test]
fn catalog_survives_reopen() {
    let dir = tmpdir("catalog-reopen");
    let input = small_webpages(&dir);
    let workdir = dir.join("work");
    let program = selection_query(threshold_for_selectivity(10));

    {
        let manimal = Manimal::new(&workdir).unwrap();
        let submission = manimal.submit(&program, &input);
        manimal.build_indexes(&submission).unwrap();
    }
    // A fresh instance sees the registered index and plans with it.
    let manimal = Manimal::new(&workdir).unwrap();
    let submission = manimal.submit(&program, &input);
    let plan = manimal.plan(&submission).unwrap();
    assert!(plan.applied.iter().any(|a| a.contains("selection")));
}

/// `findProject` optimizes reads that only feed a log message away, so
/// a field read just for a log is dropped from the projected layout.
/// The mapper still runs that read on the projected and the
/// projected+delta inputs; it must see the field's type default there,
/// and both inputs must still give the full scan's output.
#[test]
fn dropped_field_read_only_for_a_log_reads_as_its_default() {
    let dir = tmpdir("dropped-log");
    let input = small_webpages(&dir);
    let mapper = parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.content
          effect log(r1)
          r2 = field r0.url
          r3 = field r0.rank
          emit r2, r3
          ret
        }
        "#,
    )
    .unwrap();
    let schema = webpages_schema();
    let program = Program::new("log-dropped-field", mapper.clone(), Arc::clone(&schema));
    let manimal = Manimal::new(dir.join("work")).unwrap();
    let submission = manimal.submit(&program, &input);
    let projection = submission
        .report
        .projection
        .descriptor()
        .expect("a field read only for a log is droppable");
    assert_eq!(projection.dropped_fields, vec!["content".to_string()]);

    // The projected+delta input comes from the optimizer's plan, the
    // projected-only one from the same projection written directly.
    manimal.build_indexes(&submission).unwrap();
    let plan = manimal.plan(&submission).unwrap();
    assert!(
        matches!(
            plan.input,
            InputSpec::Delta {
                widen_to: Some(_),
                ..
            }
        ),
        "{:?}",
        plan.applied
    );
    let projected = dir.join("projected.seq");
    let records = SeqFileMeta::open(&input)
        .unwrap()
        .read_all()
        .unwrap()
        .map(Result::unwrap);
    write_projected(&projected, &schema, &projection.used_fields, records).unwrap();
    let inputs = [
        ("projected+delta", plan.input),
        (
            "projected",
            InputSpec::Projected {
                path: projected,
                source_schema: Arc::clone(&schema),
            },
        ),
    ];

    let job = |input: InputSpec| {
        let j = JobConfig::ir_job("log", input, mapper.clone(), Builtin::Identity);
        mr_engine::run_job(&j).unwrap().output
    };
    let full_scan = job(InputSpec::SeqFile { path: input });
    for (kind, input) in inputs {
        let mut interp = Interpreter::new(&mapper);
        let mut records = 0;
        for split in input.open(2).unwrap() {
            for item in split {
                let (k, v) = item.unwrap();
                let out = interp.invoke_map(&mapper, &k, &v).unwrap();
                assert_eq!(
                    out.effects,
                    vec![(SideEffectKind::Log, vec![Value::str("")])],
                    "{kind}"
                );
                records += 1;
            }
        }
        assert_eq!(records, 3000, "{kind}");
        assert_eq!(job(input), full_scan, "{kind}");
    }
}
