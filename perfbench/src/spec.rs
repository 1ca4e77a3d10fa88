//! The benchmark's description, `BENCHMARK.json` at the root of the
//! repository: the one list of workloads and metrics the runs print and
//! `compare` checks.

use std::sync::OnceLock;

use mr_json::Json;

use crate::stats::Better;

/// One metric of the description.
#[derive(Debug)]
pub struct Metric {
    /// Name, as printed in a result line.
    pub name: String,
    /// Unit, as printed in a result line.
    pub unit: String,
    /// Which way is an improvement.
    pub better: Better,
    /// Share of the first median by which the metric may get worse (and
    /// the largest spread a set of runs may show); end-to-end only.
    pub bound: Option<f64>,
}

/// The parsed description.
#[derive(Debug)]
pub struct Spec {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// Metrics of untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of traced runs.
    pub per_layer: Vec<Metric>,
}

const TEXT: &str = include_str!("../../BENCHMARK.json");

fn parse(text: &str) -> Result<Spec, String> {
    let doc = mr_json::parse(text).map_err(|e| format!("parse: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("no {key} list"))
    };
    let field = |m: &Json, key: &str| -> Result<String, String> {
        m.get(key)
            .and_then(Json::as_str)
            .map(String::from)
            .ok_or_else(|| format!("an entry has no {key}"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = field(m, "better")?;
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    better: Better::parse(&better).ok_or_else(|| format!("bad better {better}"))?,
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let end_to_end = metrics("end_to_end")?;
    if let Some(m) = end_to_end.iter().find(|m| m.bound.is_none()) {
        return Err(format!("end-to-end metric {} has no bound", m.name));
    }
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end,
        per_layer: metrics("per_layer")?,
    })
}

/// The description the benchmark was built with.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(TEXT).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn description_parses() {
        let s = spec();
        assert!(!s.workloads.is_empty() && !s.per_layer.is_empty());
        assert!(s.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn end_to_end_metrics_need_a_bound() {
        let text = r#"{"workloads": [], "per_layer": [],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower"}]}"#;
        assert!(parse(text).unwrap_err().contains("no bound"));
    }
}
