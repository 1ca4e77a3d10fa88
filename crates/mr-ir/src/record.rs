//! Records: schema-typed tuples flowing through map and reduce.

use std::fmt;
use std::sync::Arc;

use crate::schema::Schema;
use crate::value::Value;

/// A record is an ordered tuple of values conforming to a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    schema: Arc<Schema>,
    values: Vec<Value>,
}

/// Errors raised when building or accessing records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Value count does not match the schema's field count.
    ArityMismatch {
        /// Fields declared by the schema.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// No field with this name exists in the schema.
    NoSuchField(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "record arity mismatch: schema has {expected} fields, got {got} values"
                )
            }
            RecordError::NoSuchField(name) => write!(f, "no such field: {name}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl Record {
    /// Build a record, checking arity against the schema.
    pub fn new(schema: Arc<Schema>, values: Vec<Value>) -> Result<Self, RecordError> {
        if values.len() != schema.len() {
            return Err(RecordError::ArityMismatch {
                expected: schema.len(),
                got: values.len(),
            });
        }
        Ok(Record { schema, values })
    }

    /// The record's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// All field values in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value of the named field.
    pub fn get(&self, field: &str) -> Result<&Value, RecordError> {
        self.schema
            .index_of(field)
            .map(|i| &self.values[i])
            .ok_or_else(|| RecordError::NoSuchField(field.to_string()))
    }

    /// Value by positional index.
    pub fn get_index(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Consume the record, returning its values in schema order.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Project this record onto the fields of `target` (which must be a
    /// sub-schema produced by [`Schema::project`]). Fields absent from
    /// this record's schema get their type's default value. For a
    /// stream of records, build one [`FieldMap`] instead.
    pub fn project_to(&self, target: Arc<Schema>) -> Record {
        FieldMap::new(&self.schema, target).apply(self.clone())
    }

    /// Approximate in-memory payload size; used by engine counters.
    pub fn payload_size(&self) -> usize {
        self.values.iter().map(Value::payload_size).sum()
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.schema.name())?;
        for (i, (fd, v)) in self.schema.fields().iter().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", fd.name, v)?;
        }
        write!(f, "}}")
    }
}

/// A precomputed rewrite of records from one schema to another, built
/// once per input split and applied to every record. Each target field
/// either moves a source value or clones a cached type default — for
/// strings and byte arrays only a refcount bump — so widening a record
/// costs no field-name lookups and no per-field allocation.
///
/// Fields of the target that the source lacks read as their type's
/// default, exactly as [`Record::project_to`] fills them; source fields
/// the target lacks are dropped.
#[derive(Debug, Clone)]
pub struct FieldMap {
    target: Arc<Schema>,
    source_len: usize,
    slots: Vec<Slot>,
}

#[derive(Debug, Clone)]
enum Slot {
    /// Move the source value at this index.
    Move(usize),
    /// Clone this cached default (the source has no such field).
    Default(Value),
}

impl FieldMap {
    /// Map records of `source` onto `target`, matching fields by name.
    pub fn new(source: &Schema, target: Arc<Schema>) -> FieldMap {
        let slots = target
            .fields()
            .iter()
            .map(|fd| match source.index_of(&fd.name) {
                Some(i) => Slot::Move(i),
                None => Slot::Default(fd.ty.default_value()),
            })
            .collect();
        FieldMap {
            target,
            source_len: source.len(),
            slots,
        }
    }

    /// Rewrite one record of the source schema.
    pub fn apply(&self, record: Record) -> Record {
        self.apply_values(record.values)
    }

    /// Rewrite one record given as its values in source-schema order.
    ///
    /// # Panics
    /// Panics if `values` does not have the source schema's arity.
    pub fn apply_values(&self, mut values: Vec<Value>) -> Record {
        assert_eq!(values.len(), self.source_len, "source arity");
        let values = self
            .slots
            .iter()
            .map(|slot| match slot {
                Slot::Move(i) => std::mem::take(&mut values[*i]),
                Slot::Default(v) => v.clone(),
            })
            .collect();
        Record {
            schema: Arc::clone(&self.target),
            values,
        }
    }
}

/// Convenience constructor used pervasively in tests and generators.
pub fn record(schema: &Arc<Schema>, values: Vec<Value>) -> Record {
    Record::new(Arc::clone(schema), values).expect("record arity matches schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::FieldType;

    fn webpage() -> Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![
                ("url", FieldType::Str),
                ("rank", FieldType::Int),
                ("content", FieldType::Str),
            ],
        )
        .into_arc()
    }

    #[test]
    fn build_and_access() {
        let s = webpage();
        let r = record(&s, vec!["http://a".into(), 7.into(), "body".into()]);
        assert_eq!(r.get("rank").unwrap(), &Value::Int(7));
        assert!(matches!(r.get("nope"), Err(RecordError::NoSuchField(_))));
    }

    #[test]
    fn arity_checked() {
        let s = webpage();
        let err = Record::new(s, vec![Value::Int(1)]).unwrap_err();
        assert_eq!(
            err,
            RecordError::ArityMismatch {
                expected: 3,
                got: 1
            }
        );
    }

    #[test]
    fn projection_drops_and_defaults() {
        let s = webpage();
        let r = record(&s, vec!["http://a".into(), 7.into(), "body".into()]);
        let proj = Arc::new(s.project(&["rank".into()]));
        let p = r.project_to(Arc::clone(&proj));
        assert_eq!(p.values(), &[Value::Int(7)]);
        // Projecting to a wider schema back-fills defaults.
        let q = p.project_to(s.clone());
        assert_eq!(q.get("url").unwrap(), &Value::str(""));
        assert_eq!(q.get("rank").unwrap(), &Value::Int(7));
    }

    fn reordered() -> Arc<Schema> {
        // The same fields as `webpage`, serialized in another order.
        Schema::new(
            "WebPage",
            vec![
                ("content", FieldType::Str),
                ("url", FieldType::Str),
                ("rank", FieldType::Int),
            ],
        )
        .into_arc()
    }

    #[test]
    fn field_map_reorders_fields() {
        let r = record(
            &reordered(),
            vec!["body".into(), "http://a".into(), 7.into()],
        );
        let map = FieldMap::new(&reordered(), webpage());
        let w = map.apply(r.clone());
        assert_eq!(w.schema(), &webpage());
        assert_eq!(
            w.values(),
            &[Value::str("http://a"), Value::Int(7), Value::str("body")]
        );
        assert_eq!(w, r.project_to(webpage()));
    }

    #[test]
    fn field_map_defaults_dropped_fields() {
        let s = webpage();
        let proj = Arc::new(s.project(&["rank".into()]));
        let map = FieldMap::new(&proj, Arc::clone(&s));
        for rank in [3, 9] {
            let p = record(&proj, vec![Value::Int(rank)]);
            let w = map.apply(p.clone());
            assert_eq!(
                w.values(),
                &[Value::str(""), Value::Int(rank), Value::str("")]
            );
            assert_eq!(w, p.project_to(Arc::clone(&s)));
        }
        // The cached default is shared, not reallocated per record.
        let a = map.apply(record(&proj, vec![1.into()]));
        let b = map.apply(record(&proj, vec![2.into()]));
        match (a.get("url").unwrap(), b.get("url").unwrap()) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected strings, got {other:?}"),
        }
    }

    #[test]
    fn field_map_keeping_all_fields_keeps_every_value() {
        let s = webpage();
        let renamed = Schema::new(
            "Page",
            s.fields().iter().map(|f| (f.name.as_str(), f.ty)).collect(),
        )
        .into_arc();
        let r = record(&s, vec!["u".into(), 1.into(), "c".into()]);
        let w = FieldMap::new(&s, Arc::clone(&renamed)).apply(r.clone());
        assert_eq!(w.schema(), &renamed);
        assert_eq!(w.values(), r.values());
    }

    #[test]
    #[should_panic(expected = "source arity")]
    fn field_map_rejects_wrong_arity() {
        FieldMap::new(&webpage(), webpage()).apply_values(vec![Value::Int(1)]);
    }

    #[test]
    fn display_shows_fields() {
        let s = webpage();
        let r = record(&s, vec!["u".into(), 1.into(), "c".into()]);
        assert_eq!(
            r.to_string(),
            "WebPage{url: \"u\", rank: 1, content: \"c\"}"
        );
    }
}
