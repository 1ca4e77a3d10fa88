//! `compare`: apply the benchmark's bounds to two sets of runs.
//!
//! Each input file is the standard output of untraced runs of one
//! workload, concatenated: per run an environment line, then a result
//! line. Every run must have been correct, and both files must hold the
//! same workload. For every end-to-end metric of `BENCHMARK.json` the
//! verdict is [`crate::stats::check_bound`]: each set's spread within
//! the bound and the second median no worse than the first by more than
//! the bound.

use mr_json::Json;

use crate::spec::spec;
use crate::stats::check_bound;

/// The runs of one file: their workload and their result lines.
fn read_runs(path: &str) -> Result<(String, Vec<Json>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut workload: Option<String> = None;
    let mut env: Option<Json> = None;
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let at = format!("{path}:{}", i + 1);
        if line.trim().is_empty() {
            continue;
        }
        let doc = mr_json::parse(line).map_err(|e| format!("{at}: not JSON: {e}"))?;
        if let Some(e) = doc.get("env") {
            env = Some(e.clone());
            continue;
        }
        let e = env
            .take()
            .ok_or_else(|| format!("{at}: result line without an environment line"))?;
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{at}: run was not correct"));
        }
        if e.get("trace").and_then(Json::as_bool) != Some(false) {
            return Err(format!("{at}: not an untraced run"));
        }
        let w = e
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}: environment names no workload"))?;
        match &workload {
            None => workload = Some(w.to_string()),
            Some(first) if first != w => {
                return Err(format!("{at}: workload {w}, earlier runs {first}"))
            }
            Some(_) => {}
        }
        runs.push(doc);
    }
    if runs.len() < 2 {
        return Err(format!("{path}: need at least two runs"));
    }
    Ok((workload.expect("runs were read"), runs))
}

fn values(runs: &[Json], metric: &str) -> Result<Vec<f64>, String> {
    runs.iter()
        .enumerate()
        .map(|(i, r)| {
            r.get("metrics")
                .and_then(|m| m.get(metric)?.get("value")?.as_f64())
                .ok_or_else(|| format!("run {} has no {metric}", i + 1))
        })
        .collect()
}

/// Run the comparison; `Ok(true)` when every metric is within bounds.
pub fn run(argv: &[String]) -> Result<bool, String> {
    let [first, second] = argv else {
        return Err("usage: compare <first.out> <second.out>".into());
    };
    let (wa, a) = read_runs(first)?;
    let (wb, b) = read_runs(second)?;
    if wa != wb {
        return Err(format!("{first} holds {wa}, {second} holds {wb}"));
    }
    println!("workload {wa}: {} and {} runs", a.len(), b.len());
    println!(
        "{:<18} {:>12} {:>12} {:>8} {:>8} {:>9} {:>6}  verdict",
        "metric", "median 1", "median 2", "spread1", "spread2", "worse by", "bound"
    );
    let mut all_ok = true;
    for m in &spec().end_to_end {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        let check = check_bound(
            &values(&a, &m.name).map_err(|e| format!("{first}: {e}"))?,
            &values(&b, &m.name).map_err(|e| format!("{second}: {e}"))?,
            bound,
            m.better,
        )
        .ok_or_else(|| format!("{}: too few values", m.name))?;
        // A spread above a third of the bound leaves little headroom.
        let verdict = match (
            check.ok,
            check.first_spread.max(check.second_spread) < bound / 3.0,
        ) {
            (false, _) => "FAIL",
            (true, true) => "ok",
            (true, false) => "ok (spread > bound/3)",
        };
        all_ok &= check.ok;
        println!(
            "{:<18} {:>12.6} {:>12.6} {:>8.4} {:>8.4} {:>9.4} {:>6.3}  {verdict}",
            m.name,
            check.first_median,
            check.second_median,
            check.first_spread,
            check.second_spread,
            check.worsening,
            bound
        );
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(name: &str, text: &str) -> String {
        let dir = std::env::temp_dir().join(format!("perfbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        std::fs::write(&p, text).unwrap();
        p.display().to_string()
    }

    const ENV: &str = r#"{"env":{"workload":"agg-grouped","trace":false}}"#;
    const OK: &str = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"job_p50_s":{"value":1.0,"unit":"s"}}}"#;

    #[test]
    fn reads_runs_of_one_workload() {
        let p = file("ok.out", &format!("{ENV}\n{OK}\n{ENV}\n{OK}\n"));
        let (w, runs) = read_runs(&p).unwrap();
        assert_eq!((w.as_str(), runs.len()), ("agg-grouped", 2));
        assert_eq!(values(&runs, "job_p50_s").unwrap(), vec![1.0, 1.0]);
        assert!(values(&runs, "setup_s").unwrap_err().contains("no setup_s"));
    }

    #[test]
    fn rejects_failed_mixed_traced_and_garbled_runs() {
        let failed = OK.replace("true", "false");
        let other = ENV.replace("agg-grouped", "select-join");
        let traced = ENV.replace("false", "true");
        for (name, text, why) in [
            (
                "failed.out",
                format!("{ENV}\n{OK}\n{ENV}\n{failed}\n"),
                "not correct",
            ),
            (
                "mixed.out",
                format!("{ENV}\n{OK}\n{other}\n{OK}\n"),
                "workload",
            ),
            (
                "traced.out",
                format!("{traced}\n{OK}\n{traced}\n{OK}\n"),
                "untraced",
            ),
            (
                "garbled.out",
                format!("{ENV}\n{OK}\nbuild log\n"),
                "not JSON",
            ),
            ("bare.out", format!("{OK}\n{OK}\n"), "environment"),
        ] {
            let err = read_runs(&file(name, &text)).unwrap_err();
            assert!(err.contains(why), "{name}: {err}");
        }
    }
}
