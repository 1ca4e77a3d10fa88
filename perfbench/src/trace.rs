//! In-memory spans around the benchmark's calls into each layer,
//! written once at exit as Chrome trace-event JSON.
//!
//! A span has a name, a start and an end, the span that caused it and
//! the id of the job it belongs to. A disabled tracer records nothing
//! and costs one branch per call, so the same workload code serves the
//! untraced and the traced run.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use mr_json::Json;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are microseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `engine.job`.
    pub name: &'static str,
    /// Start, in microseconds.
    pub start_us: f64,
    /// End, in microseconds (equal to `start_us` while open).
    pub end_us: f64,
    /// The span this one ran inside, if any.
    pub parent: Option<SpanId>,
    /// Job the span belongs to; 0 for set-up and probes.
    pub job: u64,
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name`. `f` gets the new span's id
    /// (`None` when not recording) to hand to child spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let start_us = self.now_us();
        let id = {
            let mut spans = self.spans.lock().expect("tracer lock poisoned");
            spans.push(Span {
                name,
                start_us,
                end_us: start_us,
                parent,
                job,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_us = self.now_us();
        self.spans.lock().expect("tracer lock poisoned")[id].end_us = end_us;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its child spans (overlapping children count once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

/// The spans as a Chrome trace-event document (`ph: "X"` complete
/// events; `args` carry id, parent, job and self time).
pub fn to_chrome_json(spans: &[Span]) -> Json {
    let self_us = self_times_us(spans);
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Float(s.start_us)),
                ("dur", Json::Float(s.end_us - s.start_us)),
                ("pid", Json::Int(1)),
                ("tid", Json::Int(0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Int(id as i64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("job", Json::Int(s.job as i64)),
                        ("self_us", Json::Float(self_us[id])),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// Write the trace to `path`.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    std::fs::write(path, to_chrome_json(spans).to_string_compact())
}

/// Re-read a written trace and check it is a well-formed trace-event
/// document: every event a complete span with a name, a non-negative
/// duration, and a parent that is an earlier event. Returns the event
/// names.
pub fn validate(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read trace: {e}"))?;
    let doc = mr_json::parse(&text).map_err(|e| format!("parse trace: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace has no traceEvents array")?;
    let mut names = Vec::with_capacity(events.len());
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("event without name")?;
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("event {i} ({name}) is not a complete span"));
        }
        let ts = ev.get("ts").and_then(Json::as_f64);
        let dur = ev.get("dur").and_then(Json::as_f64);
        if !matches!((ts, dur), (Some(t), Some(d)) if t >= 0.0 && d >= 0.0) {
            return Err(format!("event {i} ({name}) has a bad ts/dur"));
        }
        let args = ev.get("args").ok_or("event without args")?;
        if args.get("id").and_then(Json::as_u64) != Some(i as u64) {
            return Err(format!("event {i} ({name}) has a wrong id"));
        }
        match args.get("parent") {
            Some(Json::Null) => {}
            Some(p) if p.as_u64().is_some_and(|p| (p as usize) < i) => {}
            _ => return Err(format!("event {i} ({name}) has a bad parent")),
        }
        args.get("job")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} ({name}) has no job id"))?;
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("job", 0.0, 100.0, None),
            span("a", 10.0, 40.0, Some(0)),
            span("b", 30.0, 50.0, Some(0)),  // overlaps a by 10
            span("c", 90.0, 120.0, Some(0)), // runs past its parent's end
        ];
        let st = self_times_us(&spans);
        assert_eq!(st[0], 100.0 - 40.0 - 10.0);
        assert_eq!(st[1], 30.0);
        assert_eq!(st[3], 30.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", 0, None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn written_trace_round_trips_through_validation() {
        let t = Tracer::new(true);
        t.span("outer", 3, None, |id| {
            t.span("inner", 3, id, |_| ());
        });
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        write(&path, &t.spans()).unwrap();
        assert_eq!(validate(&path).unwrap(), vec!["outer", "inner"]);
        std::fs::write(&path, "{\"traceEvents\": [{\"name\": \"x\"}]}").unwrap();
        assert!(validate(&path).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
