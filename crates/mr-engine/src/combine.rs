//! Map-side combining: the pluggable aggregation pipeline.
//!
//! The paper's fabric shuffles every emitted pair to reduce; for
//! algebraic aggregates (sum, count, max …) that is wasted traffic —
//! duplicates of a key can be folded *at the map side* without changing
//! the final output, which is exactly Hadoop's combiner. Here the
//! combiner is not programmer-supplied but **declared or proven**: the
//! builtin reducers declare their combiners directly
//! ([`Builtin::combiner`]) and `mr-analysis::combine` proves IR reduce
//! programs combiner-safe, in the Manimal spirit of analysis-selected
//! optimizations.
//!
//! A [`Combiner`] splits a reducer into the classic algebraic triple:
//! *inject* lifts one raw map-output value into a partial-aggregate
//! domain, *merge* folds two partials (and must be associative and
//! commutative), and *finish* turns a key's total into the final output
//! pairs — chosen so that `finish(key, merge-fold(inject(vs)))` equals
//! the original `reduce(key, vs)` byte for byte.
//!
//! [`CombineStrategy`] is the pipeline object the runner threads through
//! every shuffle stage; with no combiner it is a pass-through and the
//! engine behaves exactly like the seed. With a combiner, folding fires
//! at three sites:
//!
//! 1. **Staging flush** ([`CombineStrategy::combine_staged`]): a map
//!    worker's task-local buffer is folded to one partial per key
//!    before it is absorbed into the shared bucket — after this point
//!    every pair in the shuffle is a partial.
//! 2. **Spill time** ([`CombineStrategy::combine_sorted`]): a detached
//!    bucket buffer is folded again after its stable sort, so runs
//!    shrink before they hit disk (also applied when compaction
//!    rewrites runs).
//! 3. **The merge grouping loop** ([`CombineStrategy::make_reducer`]):
//!    reduce streams each key's surviving partials through the same
//!    grouping loop as always, but the "reducer" folds them with
//!    *merge* and emits via *finish*.
//!
//! **Adaptive bypass.** Folding only pays when keys repeat: on
//! near-distinct keys every fold sorts and re-sorts the staged pairs to
//! remove almost none of them. A map attempt therefore judges the
//! combiner on its first capped staging fold that saw at least
//! [`BYPASS_MIN_SAMPLE`] pairs (smaller windows fold little even on
//! repetitive keys). If that fold kept more than half of the pairs, the
//! attempt *bypasses* for its remaining records: its staging folds and
//! its spill-time folds stop, and it only injects each raw value into
//! the partial domain. Every pair still reaches site 3 as a partial, so
//! the reduce side is unchanged and the output stays byte-identical.
//! The decision lives in the runner's `Staging`, which both backends'
//! map loops share; folds over shared buckets at commit time and
//! compaction rewrites still fold, as they mix partials of many
//! attempts. Nothing configures the rule; `--no-combine` (no combiner
//! at all) stays the only switch.
//!
//! The `combine_in` / `combine_out` counters record pairs entering and
//! leaving sites 1 and 2 (plus compaction) where they actually fold —
//! and only those, so `combine_in - combine_out` is exactly the shuffle
//! traffic the combiner removed. The reduce-side fold of site 3 and a
//! bypassed attempt's inject-only staging remove none and are
//! deliberately not counted. `combine_bypassed` counts the committed
//! map attempts that bypassed.

use std::sync::Arc;

use mr_ir::value::Value;

use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::reducer::{Builtin, Reducer, ReducerFactory};

/// An algebraic map-side combiner for one reducer.
///
/// Correctness contract: `merge` must be associative and commutative
/// over the partial domain, and for every group
/// `finish(key, fold(merge, inject(values)))` must equal what the
/// original reducer produces on the raw `values`. (For floating-point
/// sums "equal" holds only up to addition reassociation — the same
/// caveat Hadoop combiners carry; integer aggregates are exact.)
pub trait Combiner: Send + Sync {
    /// Lift one raw map-output value into the partial-aggregate domain.
    fn inject(&self, key: &Value, value: &Value) -> Result<Value>;

    /// Fold another partial into the accumulator. Associative and
    /// commutative.
    fn merge(&self, key: &Value, acc: Value, other: &Value) -> Result<Value>;

    /// Turn a key's total partial into the final output pairs — must
    /// match the original reducer's output on the raw values.
    fn finish(&self, key: &Value, total: Value, out: &mut Vec<(Value, Value)>) -> Result<()>;

    /// Short name for plan summaries and counters displays.
    fn name(&self) -> &'static str {
        "combiner"
    }
}

/// Pairs a capped staging fold must have seen before its yield may
/// decide the bypass.
pub(crate) const BYPASS_MIN_SAMPLE: usize = 1024;

/// The bypass rule: a staging fold that turned `before` staged pairs
/// into `after` partials shows folding does not pay when it kept more
/// than half of them. `None` while the sample is too small to judge.
pub(crate) fn should_bypass(before: usize, after: usize) -> Option<bool> {
    (before >= BYPASS_MIN_SAMPLE).then_some(after * 2 > before)
}

/// Approximate serialized size of one pair — the same estimate the
/// `shuffle_bytes` counter and the shuffle budget accounting use.
pub(crate) fn pair_bytes(k: &Value, v: &Value) -> usize {
    k.payload_size() + v.payload_size() + 2
}

/// The pluggable aggregation pipeline handed to every shuffle stage.
///
/// Wraps `Option<Arc<dyn Combiner>>`: with `None` every method is a
/// pass-through and the emit→spill→merge pipeline behaves exactly like
/// the combiner-free seed path.
#[derive(Clone, Default)]
pub struct CombineStrategy {
    combiner: Option<Arc<dyn Combiner>>,
}

impl CombineStrategy {
    /// A strategy around an optional combiner.
    pub fn new(combiner: Option<Arc<dyn Combiner>>) -> CombineStrategy {
        CombineStrategy { combiner }
    }

    /// The pass-through strategy (no combining).
    pub fn passthrough() -> CombineStrategy {
        CombineStrategy::default()
    }

    /// Whether a combiner is plugged in.
    pub fn is_active(&self) -> bool {
        self.combiner.is_some()
    }

    /// The plugged-in combiner, for stages that fold streamingly.
    pub fn active(&self) -> Option<&dyn Combiner> {
        self.combiner.as_deref()
    }

    /// The combiner's display name, when active.
    pub fn name(&self) -> Option<&'static str> {
        self.combiner.as_deref().map(Combiner::name)
    }

    /// Site 1 — fold a map worker's staged pairs for one partition down
    /// to one partial per key. `bytes` is the caller's byte accounting
    /// for `pairs`; the returned value replaces it (recomputed after
    /// folding, unchanged when inactive).
    ///
    /// The buffer is stably sorted by key so equal keys fold in
    /// emission order; since `merge` is commutative the grouping is
    /// semantically free, and the sort is work the spill path would
    /// have done anyway.
    pub fn combine_staged(
        &self,
        pairs: &mut Vec<(Value, Value)>,
        bytes: usize,
        counters: &Counters,
    ) -> Result<usize> {
        let Some(combiner) = &self.combiner else {
            return Ok(bytes);
        };
        if pairs.len() < 2 {
            // Nothing foldable, but the lone pair still needs injecting
            // so everything downstream is uniformly in partial domain.
            if let Some((k, v)) = pairs.first_mut() {
                *v = combiner.inject(k, v)?;
            }
            return Ok(pairs.iter().map(|(k, v)| pair_bytes(k, v)).sum());
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Counters::add(&counters.combine_in, pairs.len() as u64);
        fold_sorted(pairs, |k, v| combiner.inject(k, &v), combiner.as_ref())?;
        Counters::add(&counters.combine_out, pairs.len() as u64);
        Ok(pairs.iter().map(|(k, v)| pair_bytes(k, v)).sum())
    }

    /// Sites 2 (spill write) and the compaction rewrite — fold an
    /// already-sorted buffer of *partials*, merging adjacent equal keys.
    pub fn combine_sorted(
        &self,
        pairs: &mut Vec<(Value, Value)>,
        counters: &Counters,
    ) -> Result<()> {
        let Some(combiner) = &self.combiner else {
            return Ok(());
        };
        if pairs.len() < 2 {
            return Ok(());
        }
        Counters::add(&counters.combine_in, pairs.len() as u64);
        fold_sorted(pairs, |_, v| Ok(v), combiner.as_ref())?;
        Counters::add(&counters.combine_out, pairs.len() as u64);
        Ok(())
    }

    /// Site 3 — the reducer the merge grouping loop should run. Without
    /// a combiner this is the job's own reducer; with one, it is a
    /// [`Reducer`] that merges each group's partials and emits via
    /// `finish`, so the grouping loop itself is reused unchanged. This
    /// site does not touch the combine counters: the reduce-side fold
    /// removes no shuffle traffic, and keeping it out preserves the
    /// `combine_in - combine_out = pairs the shuffle never carried`
    /// reading.
    pub fn make_reducer(&self, fallback: &Arc<dyn ReducerFactory>) -> Box<dyn Reducer> {
        match &self.combiner {
            None => fallback.create(),
            Some(c) => Box::new(CombiningReducer {
                combiner: Arc::clone(c),
            }),
        }
    }
}

impl std::fmt::Debug for CombineStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.name() {
            Some(n) => write!(f, "CombineStrategy({n})"),
            None => write!(f, "CombineStrategy(passthrough)"),
        }
    }
}

/// Fold a key-sorted buffer in place: `lift` maps each value into the
/// partial domain (inject for raw map output, identity for
/// already-partial runs), and adjacent equal keys merge into one pair.
/// On error the buffer is left half-folded; callers abandon it.
fn fold_sorted(
    pairs: &mut Vec<(Value, Value)>,
    lift: impl Fn(&Value, Value) -> Result<Value>,
    combiner: &dyn Combiner,
) -> Result<()> {
    let mut kept = 0;
    for i in 0..pairs.len() {
        let (k, v) = std::mem::take(&mut pairs[i]);
        let lifted = lift(&k, v)?;
        if kept > 0 && pairs[kept - 1].0 == k {
            let acc = &mut pairs[kept - 1].1;
            let prev = std::mem::take(acc);
            *acc = combiner.merge(&k, prev, &lifted)?;
        } else {
            pairs[kept] = (k, lifted);
            kept += 1;
        }
    }
    pairs.truncate(kept);
    Ok(())
}

/// The reduce-side half of an active combiner: each key group arriving
/// from the merge holds that key's surviving partials (one per
/// staging-flush/spill that saw the key); fold them and finish.
struct CombiningReducer {
    combiner: Arc<dyn Combiner>,
}

impl Reducer for CombiningReducer {
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        let (first, rest) = values
            .split_first()
            .ok_or_else(|| EngineError::Combine("empty group".into()))?;
        let mut acc = first.clone();
        for v in rest {
            acc = self.combiner.merge(key, acc, v)?;
        }
        self.combiner.finish(key, acc, out)
    }
}

/// The combiner a builtin reducer declares for itself (its algebraic
/// decomposition), or `None` when the reducer is not an associative,
/// commutative aggregate (`Identity` passes everything through; `First`
/// is order-dependent — associative but not commutative).
impl Builtin {
    /// The declared combiner, if this reducer has one.
    pub fn combiner(&self) -> Option<Arc<dyn Combiner>> {
        match self {
            Builtin::Sum | Builtin::Count | Builtin::Max | Builtin::Min | Builtin::SumDropKey => {
                Some(Arc::new(BuiltinCombiner { kind: *self }))
            }
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => None,
        }
    }
}

/// Look a builtin combiner up by its [`Combiner::name`]. The process
/// backend ships combiners to worker processes by name; only the
/// builtin library is addressable this way.
pub fn combiner_by_name(name: &str) -> Option<Arc<dyn Combiner>> {
    Builtin::ALL
        .into_iter()
        .filter_map(|b| b.combiner())
        .find(|c| c.name() == name)
}

/// The declared combiners of the builtin reducer library.
struct BuiltinCombiner {
    kind: Builtin,
}

/// The `Sum` partial domain mirrors the raw reducer's *split*
/// accumulator exactly: `Builtin::Sum` keeps an `i64` wrapping int sum
/// and an `f64` float sum separately, converting once at the end — so
/// a partial is either `Int(int_sum)` (no float seen) or
/// `List([Int(int_sum), Double(float_sum)])` (a float was seen).
/// Folding in `i64` until `finish` keeps int overflow wrapping exactly
/// like the raw path; eagerly promoting to `f64` would not (a wrapped
/// `i64::MAX + 1` flips sign, an `f64` just loses precision).
fn sum_merge(key: &Value, acc: Value, other: &Value) -> Result<Value> {
    // Decompose a partial into (int_sum, Option<float_sum>).
    let parts = |v: &Value| -> Result<(i64, Option<f64>)> {
        match v {
            Value::Int(i) => Ok((*i, None)),
            Value::Double(d) => Ok((0, Some(*d))),
            Value::List(kv) => match &kv[..] {
                [Value::Int(i), Value::Double(f)] => Ok((*i, Some(*f))),
                _ => Err(EngineError::Combine(format!(
                    "sum: malformed partial {v} for key {key}"
                ))),
            },
            other => Err(EngineError::Combine(format!(
                "sum: non-numeric value {other} for key {key}"
            ))),
        }
    };
    let (ai, af) = parts(&acc)?;
    let (bi, bf) = parts(other)?;
    let int_sum = ai.wrapping_add(bi);
    Ok(match (af, bf) {
        (None, None) => Value::Int(int_sum),
        (af, bf) => Value::list(vec![
            Value::Int(int_sum),
            Value::Double(af.unwrap_or(0.0) + bf.unwrap_or(0.0)),
        ]),
    })
}

impl Combiner for BuiltinCombiner {
    fn inject(&self, key: &Value, value: &Value) -> Result<Value> {
        match self.kind {
            Builtin::Sum => match value {
                Value::Int(_) | Value::Double(_) => Ok(value.clone()),
                other => Err(EngineError::Combine(format!(
                    "Sum: non-numeric value {other} for key {key}"
                ))),
            },
            Builtin::Count => Ok(Value::Int(1)),
            Builtin::Max | Builtin::Min => Ok(value.clone()),
            Builtin::SumDropKey => match value.as_int() {
                Some(i) => Ok(Value::Int(i)),
                None => Err(EngineError::Combine(format!(
                    "SumDropKey: non-integer value {value}"
                ))),
            },
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => {
                Err(EngineError::Combine("reducer declares no combiner".into()))
            }
        }
    }

    fn merge(&self, key: &Value, acc: Value, other: &Value) -> Result<Value> {
        match self.kind {
            Builtin::Sum => sum_merge(key, acc, other),
            Builtin::Count | Builtin::SumDropKey => match (&acc, other) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                _ => Err(EngineError::Combine(format!(
                    "count: non-integer partial for key {key}"
                ))),
            },
            // `>=` / `<` mirror `Iterator::max` (last of equals) and
            // `Iterator::min` (first of equals) over the stable merged
            // order, keeping byte-identity when equal values differ in
            // representation (e.g. Int(2) vs Double(2.0)).
            Builtin::Max => Ok(if *other >= acc { other.clone() } else { acc }),
            Builtin::Min => Ok(if *other < acc { other.clone() } else { acc }),
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => {
                Err(EngineError::Combine("reducer declares no combiner".into()))
            }
        }
    }

    fn finish(&self, key: &Value, total: Value, out: &mut Vec<(Value, Value)>) -> Result<()> {
        match self.kind {
            Builtin::SumDropKey => out.push((Value::Null, total)),
            Builtin::Sum => {
                // Convert the split partial the way the raw reducer
                // converts its accumulators: int sum stays Int, a seen
                // float makes the total Double(float_sum + int_sum).
                let total = match total {
                    Value::List(kv) => match &kv[..] {
                        [Value::Int(i), Value::Double(f)] => Value::Double(f + *i as f64),
                        _ => {
                            return Err(EngineError::Combine(format!(
                                "sum: malformed partial for key {key}"
                            )))
                        }
                    },
                    Value::Double(d) => Value::Double(d),
                    other => other,
                };
                out.push((key.clone(), total));
            }
            _ => out.push((key.clone(), total)),
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        match self.kind {
            Builtin::Sum => "sum",
            Builtin::Count => "count",
            Builtin::Max => "max",
            Builtin::Min => "min",
            Builtin::SumDropKey => "sum-drop-key",
            Builtin::Identity | Builtin::First | Builtin::JoinTagged => "none",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strategy(b: Builtin) -> CombineStrategy {
        CombineStrategy::new(b.combiner())
    }

    #[test]
    fn builtins_declare_expected_combiners() {
        for b in [
            Builtin::Sum,
            Builtin::Count,
            Builtin::Max,
            Builtin::Min,
            Builtin::SumDropKey,
        ] {
            assert!(b.combiner().is_some(), "{b:?} should declare a combiner");
        }
        assert!(Builtin::Identity.combiner().is_none());
        assert!(Builtin::First.combiner().is_none());
        assert!(
            Builtin::JoinTagged.combiner().is_none(),
            "folding tagged-union join values would corrupt them"
        );
    }

    #[test]
    fn staged_combine_folds_duplicates_and_recounts_bytes() {
        let counters = Counters::new();
        let mut pairs = vec![
            (Value::str("b"), Value::Int(1)),
            (Value::str("a"), Value::Int(2)),
            (Value::str("b"), Value::Int(3)),
            (Value::str("a"), Value::Int(4)),
            (Value::str("a"), Value::Int(6)),
        ];
        let bytes = strategy(Builtin::Sum)
            .combine_staged(&mut pairs, 999, &counters)
            .unwrap();
        assert_eq!(
            pairs,
            vec![
                (Value::str("a"), Value::Int(12)),
                (Value::str("b"), Value::Int(4)),
            ]
        );
        let expect: usize = pairs.iter().map(|(k, v)| pair_bytes(k, v)).sum();
        assert_eq!(bytes, expect);
        let snap = counters.snapshot();
        assert_eq!(snap.combine_in, 5);
        assert_eq!(snap.combine_out, 2);
    }

    #[test]
    fn bypass_rule_needs_a_sample_and_a_poor_yield() {
        assert_eq!(
            should_bypass(BYPASS_MIN_SAMPLE - 1, BYPASS_MIN_SAMPLE - 1),
            None
        );
        assert_eq!(should_bypass(2000, 2000), Some(true));
        assert_eq!(should_bypass(2000, 1001), Some(true));
        assert_eq!(should_bypass(2000, 1000), Some(false));
        assert_eq!(should_bypass(2000, 16), Some(false));
    }

    #[test]
    fn passthrough_changes_nothing() {
        let counters = Counters::new();
        let mut pairs = vec![
            (Value::str("b"), Value::Int(1)),
            (Value::str("b"), Value::Int(3)),
        ];
        let orig = pairs.clone();
        let s = CombineStrategy::passthrough();
        assert!(!s.is_active());
        let bytes = s.combine_staged(&mut pairs, 77, &counters).unwrap();
        assert_eq!(bytes, 77);
        s.combine_sorted(&mut pairs, &counters).unwrap();
        assert_eq!(pairs, orig);
        assert_eq!(counters.snapshot().combine_in, 0);
    }

    #[test]
    fn count_injects_ones_then_sums() {
        let counters = Counters::new();
        let mut pairs = vec![
            (Value::str("k"), Value::str("anything")),
            (Value::str("k"), Value::Null),
            (Value::str("k"), Value::Int(42)),
        ];
        strategy(Builtin::Count)
            .combine_staged(&mut pairs, 0, &counters)
            .unwrap();
        assert_eq!(pairs, vec![(Value::str("k"), Value::Int(3))]);
    }

    #[test]
    fn combining_reducer_finishes_like_the_raw_reducer() {
        for (b, raw_values, key) in [
            (
                Builtin::Sum,
                vec![Value::Int(5), Value::Int(-2), Value::Int(10)],
                Value::str("k"),
            ),
            (
                Builtin::Max,
                vec![Value::Int(5), Value::Int(99), Value::Int(10)],
                Value::str("k"),
            ),
            (
                Builtin::Min,
                vec![Value::Int(5), Value::Int(-2)],
                Value::str("k"),
            ),
            (
                Builtin::SumDropKey,
                vec![Value::Int(3), Value::Int(4)],
                Value::str("url"),
            ),
        ] {
            let mut raw_out = Vec::new();
            b.create().reduce(&key, &raw_values, &mut raw_out).unwrap();

            let combiner = b.combiner().unwrap();
            let partials: Vec<Value> = raw_values
                .iter()
                .map(|v| combiner.inject(&key, v).unwrap())
                .collect();
            let s = CombineStrategy::new(Some(combiner));
            let factory: Arc<dyn ReducerFactory> = Arc::new(b);
            let mut reducer = s.make_reducer(&factory);
            let mut out = Vec::new();
            reducer.reduce(&key, &partials, &mut out).unwrap();
            assert_eq!(out, raw_out, "{b:?}");
        }
    }

    #[test]
    fn sum_partial_keeps_int_overflow_wrapping_like_the_raw_reducer() {
        // Mixed group where eager f64 promotion would flip the sign of
        // the wrapped int sum: the partial must keep ints in i64.
        let key = Value::str("k");
        let values = vec![Value::Int(i64::MAX), Value::Double(0.0), Value::Int(1)];
        let mut raw_out = Vec::new();
        Builtin::Sum
            .create()
            .reduce(&key, &values, &mut raw_out)
            .unwrap();

        let c = Builtin::Sum.combiner().unwrap();
        // Fold in every grouping order; all must match the raw output.
        for order in [[0usize, 1, 2], [1, 0, 2], [2, 1, 0], [0, 2, 1]] {
            let mut acc = c.inject(&key, &values[order[0]]).unwrap();
            for &i in &order[1..] {
                let p = c.inject(&key, &values[i]).unwrap();
                acc = c.merge(&key, acc, &p).unwrap();
            }
            let mut out = Vec::new();
            c.finish(&key, acc, &mut out).unwrap();
            assert_eq!(out, raw_out, "order {order:?}");
        }
    }

    #[test]
    fn sum_mixed_int_float_matches_raw_reducer() {
        let key = Value::str("k");
        let values = vec![Value::Int(3), Value::Double(0.25), Value::Int(4)];
        let mut raw_out = Vec::new();
        Builtin::Sum
            .create()
            .reduce(&key, &values, &mut raw_out)
            .unwrap();
        let c = Builtin::Sum.combiner().unwrap();
        let mut acc = c.inject(&key, &values[0]).unwrap();
        for v in &values[1..] {
            let p = c.inject(&key, v).unwrap();
            acc = c.merge(&key, acc, &p).unwrap();
        }
        let mut out = Vec::new();
        c.finish(&key, acc, &mut out).unwrap();
        assert_eq!(out, raw_out);
    }

    #[test]
    fn sum_rejects_non_numeric_on_inject() {
        let c = Builtin::Sum.combiner().unwrap();
        assert!(c.inject(&Value::str("k"), &Value::str("oops")).is_err());
    }

    #[test]
    fn max_keeps_last_of_equal_values_like_iter_max() {
        // Int(2) and Double(2.0) compare equal; Iterator::max keeps the
        // last one seen, so merge must too.
        let c = Builtin::Max.combiner().unwrap();
        let k = Value::Null;
        let merged = c.merge(&k, Value::Int(2), &Value::Double(2.0)).unwrap();
        assert_eq!(format!("{merged:?}"), format!("{:?}", Value::Double(2.0)));
        let c = Builtin::Min.combiner().unwrap();
        let merged = c.merge(&k, Value::Int(2), &Value::Double(2.0)).unwrap();
        assert_eq!(format!("{merged:?}"), format!("{:?}", Value::Int(2)));
    }
}
