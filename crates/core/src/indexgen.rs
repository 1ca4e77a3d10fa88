//! Index-generation programs (paper §2.2 Step 1).
//!
//! "This component also creates an index generation program that runs on
//! the same input data as the user's program. … This program is itself a
//! MapReduce program, and when executed generates an indexed version of
//! the submitted job's input data."
//!
//! [`plan_index_programs`] applies the paper's combination policy — "the
//! current analyzer always chooses the index program that exploits as
//! many optimizations as possible", with the one stated conflict, "we
//! currently favor selection over delta-compression" (§2.2 fn. 3):
//!
//! * selection (+ projection if also present) → clustered B+Tree;
//! * else projection (+ delta if also present) → projected or
//!   projected-delta file;
//! * else delta → delta file;
//! * direct-operation → dictionary file (orthogonal artifact).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_analysis::expr::Expr;
use mr_analysis::{AnalysisReport, SelectOutcome};
use mr_engine::mapper::{MapStats, Mapper, MapperFactory};
use mr_engine::{run_job, InputBinding, InputSpec, JobConfig, OutputSpec};
use mr_ir::record::{FieldMap, Record};
use mr_ir::value::Value;
use mr_storage::btree::BTreeWriter;
use mr_storage::delta::DeltaFileWriter;
use mr_storage::dict::DictFileWriter;
use mr_storage::seqfile::SeqFileMeta;

use mr_storage::btree::ScanBound;

use crate::catalog::{CatalogEntry, IndexKind, RangeRepr};
use crate::error::{ManimalError, Result};
use crate::optimizer::range_to_bounds;

/// An executable index-generation program.
pub struct IndexGenProgram {
    /// What artifact this builds.
    pub kind: IndexKind,
    /// The input file it reads.
    pub input: PathBuf,
    /// Where the artifact lands.
    pub output: PathBuf,
    /// The index-key expression (selection programs only).
    pub key_expr: Option<Expr>,
    /// Key ranges the selection view materializes (selection only).
    pub view_ranges: Vec<(ScanBound, ScanBound)>,
}

impl std::fmt::Display for IndexGenProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            IndexKind::Selection {
                key,
                projected_fields,
                ..
            } => {
                write!(f, "build B+Tree on {key}")?;
                if let Some(fields) = projected_fields {
                    write!(f, " storing only [{}]", fields.join(", "))?;
                }
            }
            IndexKind::Projection { fields } => {
                write!(f, "build projected file keeping [{}]", fields.join(", "))?
            }
            IndexKind::Delta { fields, projected } => {
                write!(f, "build delta file on [{}]", fields.join(", "))?;
                if let Some(kept) = projected {
                    write!(f, " keeping only [{}]", kept.join(", "))?;
                }
            }
            IndexKind::Dict { fields } => {
                write!(f, "build dictionary file on [{}]", fields.join(", "))?
            }
        }
        write!(f, ": {} -> {}", self.input.display(), self.output.display())
    }
}

/// Derive the index programs the analyzer recommends for this report.
pub fn plan_index_programs(
    report: &AnalysisReport,
    input: &Path,
    workdir: &Path,
) -> Vec<IndexGenProgram> {
    let mut programs = Vec::new();
    let stem = input
        .file_name()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "input".to_string());
    let out = |suffix: &str| workdir.join(format!("{stem}.{suffix}"));

    let selection = match &report.selection {
        SelectOutcome::Selection(d) if d.index_useful() => Some(d),
        _ => None,
    };
    let projection = report.projection.descriptor();
    let delta = report.delta.descriptor();
    let direct = report.direct.descriptor();

    if let Some(sel) = selection {
        let plan = sel.plan.as_ref().expect("index_useful implies plan");
        let view_ranges: Vec<(ScanBound, ScanBound)> =
            plan.ranges.iter().map(range_to_bounds).collect();
        let covered: Vec<RangeRepr> = view_ranges
            .iter()
            .filter_map(|(lo, hi)| RangeRepr::from_bounds(lo, hi).ok())
            .collect();
        programs.push(IndexGenProgram {
            kind: IndexKind::Selection {
                key: plan.key.to_string(),
                covered,
                projected_fields: projection.map(|p| p.used_fields.clone()),
            },
            input: input.to_path_buf(),
            output: out("select.idx"),
            key_expr: Some(plan.key.clone()),
            view_ranges,
        });
    } else if let Some(proj) = projection {
        if let Some(d) = delta {
            // Combined projection + delta: delta-encode the numeric
            // fields that survive the projection.
            let kept_numeric: Vec<String> = d
                .fields
                .iter()
                .filter(|f| proj.used_fields.contains(f))
                .cloned()
                .collect();
            if kept_numeric.is_empty() {
                programs.push(IndexGenProgram {
                    kind: IndexKind::Projection {
                        fields: proj.used_fields.clone(),
                    },
                    input: input.to_path_buf(),
                    output: out("proj.idx"),
                    key_expr: None,
                    view_ranges: vec![],
                });
            } else {
                programs.push(IndexGenProgram {
                    kind: IndexKind::Delta {
                        fields: kept_numeric,
                        projected: Some(proj.used_fields.clone()),
                    },
                    input: input.to_path_buf(),
                    output: out("projdelta.idx"),
                    key_expr: None,
                    view_ranges: vec![],
                });
            }
        } else {
            programs.push(IndexGenProgram {
                kind: IndexKind::Projection {
                    fields: proj.used_fields.clone(),
                },
                input: input.to_path_buf(),
                output: out("proj.idx"),
                key_expr: None,
                view_ranges: vec![],
            });
        }
    } else if let Some(d) = delta {
        programs.push(IndexGenProgram {
            kind: IndexKind::Delta {
                fields: d.fields.clone(),
                projected: None,
            },
            input: input.to_path_buf(),
            output: out("delta.idx"),
            key_expr: None,
            view_ranges: vec![],
        });
    }

    if let Some(dd) = direct {
        programs.push(IndexGenProgram {
            kind: IndexKind::Dict {
                fields: dd.fields.clone(),
            },
            input: input.to_path_buf(),
            output: out("dict.idx"),
            key_expr: None,
            view_ranges: vec![],
        });
    }
    programs
}

impl IndexGenProgram {
    /// Execute the program, producing the artifact and a catalog entry.
    /// Index-build jobs run with an unbounded shuffle; use
    /// [`run_with_shuffle_budget`](Self::run_with_shuffle_budget) to
    /// bound it.
    pub fn run(&self) -> Result<CatalogEntry> {
        self.run_with_shuffle_budget(None)
    }

    /// Execute the program with the fabric's shuffle memory bounded by
    /// `shuffle_buffer_bytes` — selection builds are a full-input
    /// MapReduce job into a single reducer, exactly the shape that
    /// outgrows RAM first. Map-side combining stays on (a no-op for the
    /// order-preserving `Identity` reducer these jobs use today).
    pub fn run_with_shuffle_budget(
        &self,
        shuffle_buffer_bytes: Option<usize>,
    ) -> Result<CatalogEntry> {
        self.run_tuned(shuffle_buffer_bytes, true, Default::default())
    }

    /// [`run_with_shuffle_budget`](Self::run_with_shuffle_budget) with
    /// the optimizer's combiner decision plumbed through (`combine:
    /// false` — the `--no-combine` escape hatch — keeps the build
    /// job's pipeline plain even if its reducer declares a combiner)
    /// and the instance's spill codec
    /// ([`mr_engine::JobConfig::shuffle_compression`]).
    pub fn run_tuned(
        &self,
        shuffle_buffer_bytes: Option<usize>,
        combine: bool,
        shuffle_compression: mr_engine::ShuffleCompression,
    ) -> Result<CatalogEntry> {
        let input_bytes = std::fs::metadata(&self.input)?.len();
        match &self.kind {
            IndexKind::Selection {
                projected_fields, ..
            } => self.build_selection(
                projected_fields.as_deref(),
                input_bytes,
                shuffle_buffer_bytes,
                combine,
                shuffle_compression,
            ),
            IndexKind::Projection { fields } => self.build_projection(fields, input_bytes),
            IndexKind::Delta { fields, projected } => {
                self.build_delta(fields, projected.as_deref(), input_bytes)
            }
            IndexKind::Dict { fields } => self.build_dict(fields, input_bytes),
        }
    }

    /// Selection indexes are built by an actual MapReduce job: map
    /// evaluates the index-key expression per record, the shuffle sorts
    /// by that key, and the (single) reduce output streams into the
    /// B+Tree bulk loader.
    fn build_selection(
        &self,
        projected_fields: Option<&[String]>,
        input_bytes: u64,
        shuffle_buffer_bytes: Option<usize>,
        combine: bool,
        shuffle_compression: mr_engine::ShuffleCompression,
    ) -> Result<CatalogEntry> {
        let expr = self
            .key_expr
            .clone()
            .ok_or_else(|| ManimalError::IndexGen("selection program without key".into()))?;
        let meta = SeqFileMeta::open(&self.input)?;
        let source_schema = Arc::clone(&meta.schema);
        let stored_schema = match projected_fields {
            Some(fields) => Arc::new(source_schema.project(fields)),
            None => Arc::clone(&source_schema),
        };

        let mut job = JobConfig {
            name: format!("index-gen {}", self.output.display()),
            inputs: vec![InputBinding {
                input: InputSpec::SeqFile {
                    path: self.input.clone(),
                },
                mapper: Arc::new(ExprKeyMapperFactory { expr }),
                join: None,
            }],
            num_reducers: 1,
            reducer: Arc::new(mr_engine::Builtin::Identity),
            output: OutputSpec::InMemory,
            map_parallelism: mr_engine::job::available_parallelism(),
            sort_output: true,
            shuffle_buffer_bytes,
            shuffle_compression,
            spill_dir: None,
            dict_store: None,
            combiner: None,
            max_task_attempts: 1,
            fault_plan: None,
            spill_writer_threads: 1,
            buffer_pool: None,
            backend: Default::default(),
        };
        if combine {
            job = job.with_declared_combiner();
        }
        let result = run_job(&job)?;

        let in_view = |key: &Value| -> bool {
            if self.view_ranges.is_empty() {
                return true; // no restriction: full clustered index
            }
            self.view_ranges.iter().any(|(lo, hi)| {
                let low_ok = match lo {
                    ScanBound::Unbounded => true,
                    ScanBound::Incl(b) => key >= b,
                    ScanBound::Excl(b) => key > b,
                };
                let high_ok = match hi {
                    ScanBound::Unbounded => true,
                    ScanBound::Incl(b) => key <= b,
                    ScanBound::Excl(b) => key < b,
                };
                low_ok && high_ok
            })
        };
        let mut writer = BTreeWriter::create(&self.output, Arc::clone(&stored_schema))?;
        for (index_key, packed) in &result.output {
            if !in_view(index_key) {
                // Outside the materialized view (paper §2.2): the index
                // is a view on the records the predicate can ever
                // select, which is what keeps its space overhead at the
                // selectivity level rather than 100%.
                continue;
            }
            let Value::List(kv) = packed else {
                return Err(ManimalError::IndexGen("malformed index-gen pair".into()));
            };
            let orig_key = &kv[0];
            let Some(record) = kv[1].as_record() else {
                return Err(ManimalError::IndexGen("malformed index-gen record".into()));
            };
            let stored = if projected_fields.is_some() {
                record.project_to(Arc::clone(&stored_schema))
            } else {
                record.clone()
            };
            writer.append(index_key, orig_key, &stored)?;
        }
        let stats = writer.finish()?;
        Ok(CatalogEntry {
            input_path: self.input.clone(),
            index_path: self.output.clone(),
            kind: self.kind.clone(),
            index_bytes: stats.file_size,
            input_bytes,
        })
    }

    fn build_projection(&self, fields: &[String], input_bytes: u64) -> Result<CatalogEntry> {
        let meta = SeqFileMeta::open(&self.input)?;
        let records = meta
            .read_all()?
            .collect::<mr_storage::Result<Vec<Record>>>()?;
        mr_storage::colfile::write_projected(&self.output, &meta.schema, fields, records)?;
        Ok(CatalogEntry {
            input_path: self.input.clone(),
            index_path: self.output.clone(),
            kind: self.kind.clone(),
            index_bytes: std::fs::metadata(&self.output)?.len(),
            input_bytes,
        })
    }

    fn build_delta(
        &self,
        fields: &[String],
        projected: Option<&[String]>,
        input_bytes: u64,
    ) -> Result<CatalogEntry> {
        let meta = SeqFileMeta::open(&self.input)?;
        let schema = match projected {
            Some(kept) => Arc::new(meta.schema.project(kept)),
            None => Arc::clone(&meta.schema),
        };
        let mut writer = DeltaFileWriter::create(&self.output, Arc::clone(&schema), fields)?;
        let narrow = projected.map(|_| FieldMap::new(&meta.schema, Arc::clone(&schema)));
        for rec in meta.read_all()? {
            let rec = rec?;
            let stored = match &narrow {
                Some(map) => map.apply(rec),
                None => rec,
            };
            writer.append(&stored)?;
        }
        writer.finish()?;
        Ok(CatalogEntry {
            input_path: self.input.clone(),
            index_path: self.output.clone(),
            kind: self.kind.clone(),
            index_bytes: std::fs::metadata(&self.output)?.len(),
            input_bytes,
        })
    }

    fn build_dict(&self, fields: &[String], input_bytes: u64) -> Result<CatalogEntry> {
        let meta = SeqFileMeta::open(&self.input)?;
        let mut writer = DictFileWriter::create(&self.output, Arc::clone(&meta.schema), fields)?;
        for rec in meta.read_all()? {
            writer.append(&rec?)?;
        }
        writer.finish()?;
        Ok(CatalogEntry {
            input_path: self.input.clone(),
            index_path: self.output.clone(),
            kind: self.kind.clone(),
            index_bytes: std::fs::metadata(&self.output)?.len(),
            input_bytes,
        })
    }
}

/// The map side of the selection index-generation job: emit
/// `(key_expr(record), [orig_key, record])`.
struct ExprKeyMapper {
    expr: Expr,
}

impl Mapper for ExprKeyMapper {
    fn map(
        &mut self,
        key: &Value,
        value: &Value,
        out: &mut Vec<(Value, Value)>,
    ) -> mr_engine::Result<MapStats> {
        let index_key = self
            .expr
            .eval(key, value)
            .map_err(mr_engine::EngineError::Map)?;
        out.push((index_key, Value::list(vec![key.clone(), value.clone()])));
        Ok(MapStats::default())
    }
}

struct ExprKeyMapperFactory {
    expr: Expr,
}

impl MapperFactory for ExprKeyMapperFactory {
    fn create(&self) -> Box<dyn Mapper> {
        Box::new(ExprKeyMapper {
            expr: self.expr.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_analysis::analyze;
    use mr_ir::asm::parse_function;
    use mr_ir::function::Program;
    use mr_ir::schema::{FieldType, Schema};

    fn webpages() -> Arc<Schema> {
        Schema::new(
            "WebPages",
            vec![
                ("url", FieldType::Str),
                ("rank", FieldType::Int),
                ("content", FieldType::Str),
            ],
        )
        .into_arc()
    }

    fn plan_for(src: &str, schema: Arc<Schema>) -> Vec<IndexGenProgram> {
        let program = Program::new("t", parse_function(src).unwrap(), schema);
        let report = analyze(&program);
        plan_index_programs(&report, Path::new("/data/in.seq"), Path::new("/work"))
    }

    /// "The current analyzer always chooses the index program that
    /// exploits as many optimizations as possible": selection absorbs
    /// projection into one combined B+Tree.
    #[test]
    fn selection_absorbs_projection() {
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.rank
              r2 = const 10
              r3 = cmp gt r1, r2
              br r3, t, e
            t:
              r4 = field r0.url
              emit r4, r1
            e:
              ret
            }
            "#,
            webpages(),
        );
        assert_eq!(programs.len(), 1);
        match &programs[0].kind {
            IndexKind::Selection {
                key,
                projected_fields: Some(fields),
                covered,
            } => {
                assert_eq!(key, "value.rank");
                assert_eq!(fields, &vec!["url".to_string(), "rank".to_string()]);
                assert_eq!(covered.len(), 1);
            }
            other => panic!("expected combined selection, got {other:?}"),
        }
        assert!(programs[0].key_expr.is_some());
        assert_eq!(programs[0].view_ranges.len(), 1);
    }

    /// Without a selection, projection and delta merge into a projected
    /// delta file when a numeric field survives the projection.
    #[test]
    fn projection_and_delta_combine() {
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.url
              r2 = field r0.rank
              emit r1, r2
              ret
            }
            "#,
            webpages(),
        );
        assert_eq!(programs.len(), 1);
        match &programs[0].kind {
            IndexKind::Delta { fields, projected } => {
                assert_eq!(fields, &vec!["rank".to_string()]);
                assert_eq!(
                    projected.as_ref().unwrap(),
                    &vec!["url".to_string(), "rank".to_string()]
                );
            }
            other => panic!("expected projected delta, got {other:?}"),
        }
    }

    /// Projection whose kept fields have no numerics falls back to a
    /// plain projected file even though the schema has numeric fields.
    #[test]
    fn projection_without_surviving_numerics() {
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.url
              r2 = const 1
              emit r1, r2
              ret
            }
            "#,
            webpages(),
        );
        assert_eq!(programs.len(), 1);
        match &programs[0].kind {
            IndexKind::Projection { fields } => {
                assert_eq!(fields, &vec!["url".to_string()]);
            }
            other => panic!("expected plain projection, got {other:?}"),
        }
    }

    /// The dictionary artifact is orthogonal: recommended alongside
    /// whatever the main combination produced.
    #[test]
    fn dict_is_orthogonal() {
        let schema = Schema::new(
            "V",
            vec![("destURL", FieldType::Str), ("duration", FieldType::Int)],
        )
        .into_arc();
        let program = Program::new(
            "t",
            parse_function(
                r#"
                func map(key, value) {
                  r0 = param value
                  r1 = field r0.destURL
                  r2 = field r0.duration
                  emit r1, r2
                  ret
                }
                "#,
            )
            .unwrap(),
            schema,
        )
        .with_key_dropped_from_output();
        let report = analyze(&program);
        let programs = plan_index_programs(&report, Path::new("/data/in.seq"), Path::new("/work"));
        assert_eq!(programs.len(), 2, "main combo + dict");
        assert!(programs
            .iter()
            .any(|p| matches!(&p.kind, IndexKind::Delta { .. })));
        assert!(programs
            .iter()
            .any(|p| matches!(&p.kind, IndexKind::Dict { fields } if fields == &vec!["destURL".to_string()])));
    }

    /// Nothing detected → nothing recommended.
    #[test]
    fn nothing_to_recommend() {
        let schema = Schema::new("D", vec![("content", FieldType::Str)]).into_arc();
        let programs = plan_for(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = param key
              emit r1, r0
              ret
            }
            "#,
            schema,
        );
        assert!(programs.is_empty());
    }
}
