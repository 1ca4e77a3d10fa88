//! Scale table — map-side combining across key cardinality × shuffle
//! budget.
//!
//! Not a paper table: this prices the PR's analysis-proven combiners on
//! the Pavlo aggregation task (`SELECT sourceIP, SUM(adRevenue) FROM
//! UserVisits GROUP BY sourceIP`), with the generator's `source_ips`
//! knob setting the group-by cardinality. On low-cardinality group-bys
//! the combiner folds nearly every emitted pair before it travels the
//! shuffle — spill bytes collapse — while near-distinct keys leave it
//! nothing to fold (the regime `scale_shuffle` measures) — there map
//! attempts bypass the combiner once their first judged staging fold
//! shows it, and the `Bypassed` column counts those attempts. Every
//! combined run's output is asserted byte-identical to its
//! combiner-free twin.

use mr_engine::{run_job, Builtin, InputSpec, JobConfig, JobResult};
use mr_json::Json;
use mr_workloads::data::{generate_uservisits, UserVisitsConfig};
use mr_workloads::pavlo::benchmark2;

fn main() {
    bench::worker_guard();
    bench::banner(
        "Scale — map-side combining vs. key cardinality × shuffle budget",
        "SELECT sourceIP, SUM(adRevenue) FROM UserVisits GROUP BY sourceIP.\n\
         Rows sweep the number of distinct sourceIPs and the shuffle\n\
         budget; each row runs the spill pipeline with combining off,\n\
         then on. Outputs are asserted identical; `combine in→out` is\n\
         the folding the three combine sites did; `bypassed` counts map\n\
         attempts that stopped folding because folding did not shrink.",
    );
    let dir = bench::bench_dir("scale-combine");
    let visits = bench::scaled(60_000);
    let program = benchmark2();
    if let (Some(plan), attempts) = bench::fault_env() {
        println!("fault drill: {plan} (max {attempts} attempts per task)\n");
    }

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<Json> = Vec::new();

    // 0 = the generator's fully-random IPs (near-distinct keys).
    for cardinality in [16usize, 1024, 0] {
        let input = dir.join(format!("uservisits-{cardinality}.seq"));
        generate_uservisits(
            &input,
            &UserVisitsConfig {
                visits,
                source_ips: cardinality,
                ..UserVisitsConfig::default()
            },
        )
        .expect("generate uservisits");

        let job = |budget: Option<usize>, combining: bool| {
            let mut j = JobConfig::ir_job(
                "revenue-by-ip",
                InputSpec::SeqFile {
                    path: input.clone(),
                },
                program.mapper.clone(),
                Builtin::Sum,
            )
            .with_reducers(4)
            .with_spill_dir(&dir);
            j.shuffle_buffer_bytes = budget;
            if combining {
                j = j.with_declared_combiner();
            }
            bench::apply_fault_env(&mut j);
            j
        };

        // Size budgets off the real shuffle volume, like scale_shuffle.
        let resident = run_job(&job(None, false)).expect("resident run");
        let shuffle_size = resident.counters.shuffle_bytes as usize;
        let card_label = if cardinality == 0 {
            "random".to_string()
        } else {
            cardinality.to_string()
        };

        for (budget_label, divisor) in [("shuffle/4", 4usize), ("shuffle/16", 16)] {
            let budget = (shuffle_size / divisor).max(64);
            let (plain_time, plain) =
                bench::time_runs(|| run_job(&job(Some(budget), false)).expect("plain run"));
            let (combined_time, combined) =
                bench::time_runs(|| run_job(&job(Some(budget), true)).expect("combined run"));
            assert_eq!(
                combined.output, plain.output,
                "cardinality {card_label}, {budget_label}: combined output must be identical"
            );
            assert!(
                combined.counters.spilled_records <= plain.counters.spilled_records,
                "combining must not grow the spill"
            );

            let ratio = |r: &JobResult| {
                if combined.counters.spill_bytes_written == 0 {
                    "∞".to_string()
                } else {
                    format!(
                        "{:.1}x",
                        r.counters.spill_bytes_written as f64
                            / combined.counters.spill_bytes_written as f64
                    )
                }
            };
            rows.push(vec![
                card_label.clone(),
                format!("{budget_label} ({})", bench::fmt_bytes(budget as u64)),
                bench::fmt_bytes(plain.counters.spill_bytes_written),
                bench::fmt_bytes(combined.counters.spill_bytes_written),
                ratio(&plain),
                format!(
                    "{}→{}",
                    combined.counters.combine_in, combined.counters.combine_out
                ),
                combined.counters.combine_bypassed.to_string(),
                bench::fmt_secs(plain_time),
                bench::fmt_secs(combined_time),
            ]);
            json_rows.push(Json::obj([
                (
                    "cardinality",
                    if cardinality == 0 {
                        Json::Null
                    } else {
                        Json::Int(cardinality as i64)
                    },
                ),
                ("budget", Json::str(budget_label)),
                ("budget_bytes", Json::Int(budget as i64)),
                ("shuffle_bytes", Json::Int(shuffle_size as i64)),
                (
                    "plain_spill_bytes",
                    Json::Int(plain.counters.spill_bytes_written as i64),
                ),
                (
                    "combined_spill_bytes",
                    Json::Int(combined.counters.spill_bytes_written as i64),
                ),
                (
                    "plain_spilled_records",
                    Json::Int(plain.counters.spilled_records as i64),
                ),
                (
                    "combined_spilled_records",
                    Json::Int(combined.counters.spilled_records as i64),
                ),
                ("combine_in", Json::Int(combined.counters.combine_in as i64)),
                (
                    "combine_out",
                    Json::Int(combined.counters.combine_out as i64),
                ),
                (
                    "combine_bypassed",
                    Json::Int(combined.counters.combine_bypassed as i64),
                ),
                ("plain_secs", bench::json_secs(plain_time)),
                ("combined_secs", bench::json_secs(combined_time)),
            ]));
        }
    }

    println!("input: {visits} visits per cardinality\n");
    bench::print_table(
        &[
            "Keys",
            "Budget",
            "Spill (plain)",
            "Spill (combined)",
            "Reduction",
            "Combine in→out",
            "Bypassed",
            "Plain",
            "Combined",
        ],
        &rows,
    );
    bench::write_bench_json(
        "combine",
        Json::obj([
            ("visits", Json::Int(visits as i64)),
            ("rows", Json::Arr(json_rows)),
        ]),
    );
}
