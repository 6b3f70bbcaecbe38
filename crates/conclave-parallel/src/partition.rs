//! Partitions: the unit of parallelism.
//!
//! A partition of a relation is a *range of its rows*. [`row_ranges`] cuts
//! `0..num_rows` into near-equal, non-empty ranges, and a task reads a slice
//! of every typed column (a `memcpy` of primitives). Owned partitions exist
//! only where rows really have to move: `shuffle_columns` fills the buckets
//! of a join's co-partitioning shuffle. Aggregations and `Distinct` never
//! shuffle: they combine per range first (see [`crate::exec`]).

use conclave_engine::ColumnarRelation;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Cuts `0..num_rows` into at most `n` contiguous ranges of near-equal size,
/// in order. Every range is non-empty, so fewer rows than `n` give fewer
/// ranges and no rows give none: a task never sees an empty partition (whose
/// scalar `MIN` would be a `NULL` that poisons the combined result).
pub fn row_ranges(num_rows: usize, n: usize) -> Vec<Range<usize>> {
    let chunk = num_rows.div_ceil(n.max(1)).max(1);
    (0..num_rows)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(num_rows))
        .collect()
}

/// Hash-partitions `rel` by the given key columns into `buckets` buckets, so
/// that all rows with equal keys land in the same bucket, in their input
/// order (the shuffle before a join). Keys are hashed as `Value`s, so an
/// `Int` key and an equal `Float` key share a bucket. One gather index list
/// is built per bucket, then every column is gathered once: a join task runs
/// the vectorized engine with no row materialized.
pub(crate) fn shuffle_columns(
    rel: &ColumnarRelation,
    key_cols: &[usize],
    buckets: usize,
) -> Vec<ColumnarRelation> {
    let buckets = buckets.max(1);
    let seed = DefaultHasher::new();
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    for i in 0..rel.num_rows() {
        let mut hasher = seed.clone();
        for &c in key_cols {
            rel.value(i, c).hash(&mut hasher);
        }
        indices[(hasher.finish() % buckets as u64) as usize].push(i);
    }
    indices.iter().map(|idx| rel.gather(idx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use conclave_engine::Relation;
    use conclave_ir::schema::{ColumnDef, Schema};
    use conclave_ir::types::{DataType, Value};

    fn rel(n: i64) -> Relation {
        Relation::from_ints(
            &["k", "v"],
            &(0..n).map(|i| vec![i % 7, i]).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn row_ranges_cover_every_row_once_in_order_and_are_never_empty() {
        for (rows, n) in [
            (100, 8),
            (100, 12),
            (12, 12),
            (5, 12),
            (1, 4),
            (0, 4),
            (7, 0),
        ] {
            let ranges = row_ranges(rows, n);
            assert!(ranges.len() <= n.max(1), "{rows} rows / {n}");
            assert!(ranges.iter().all(|r| !r.is_empty()), "{rows} rows / {n}");
            let covered: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(covered, (0..rows).collect::<Vec<_>>(), "{rows} rows / {n}");
        }
        assert_eq!(row_ranges(100, 8).len(), 8);
        assert_eq!(row_ranges(5, 12).len(), 5);
    }

    #[test]
    fn shuffle_by_key_groups_equal_keys_together_in_input_order() {
        let r = rel(200);
        let shuffled = shuffle_columns(&ColumnarRelation::from_rows(&r), &[0], 5);
        assert_eq!(shuffled.len(), 5);
        assert_eq!(shuffled.iter().map(|p| p.num_rows()).sum::<usize>(), 200);
        // Every distinct key must appear in exactly one partition.
        for key in 0..7i64 {
            let holders = shuffled
                .iter()
                .filter(|part| (0..part.num_rows()).any(|i| part.value(i, 0) == Value::Int(key)))
                .count();
            assert_eq!(holders, 1, "key {key} appears in {holders} partitions");
        }
        // A bucket keeps its rows in input order (`v` counts up).
        for part in &shuffled {
            let v: Vec<Value> = part.column(1).values();
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
        // All rows survive the shuffle.
        let collected = ColumnarRelation::concat(&shuffled).unwrap();
        assert!(collected.to_rows().same_rows_unordered(&r));
    }

    #[test]
    fn shuffle_with_zero_partitions_is_clamped() {
        let columnar = ColumnarRelation::from_rows(&rel(10));
        let shuffled = shuffle_columns(&columnar, &[0], 0);
        assert_eq!(shuffled.len(), 1);
        assert_eq!(shuffled[0].to_rows(), rel(10));
    }

    #[test]
    fn equal_int_and_float_keys_share_a_bucket() {
        let ints = Relation::from_ints(&["k"], &(0..50).map(|i| vec![i]).collect::<Vec<_>>());
        let floats = Relation::new(
            Schema::new(vec![ColumnDef::new("k", DataType::Float)]),
            (0..50).map(|i| vec![Value::Float(i as f64)]).collect(),
        )
        .unwrap();
        let by_int = shuffle_columns(&ColumnarRelation::from_rows(&ints), &[0], 7);
        let by_float = shuffle_columns(&ColumnarRelation::from_rows(&floats), &[0], 7);
        for (i, f) in by_int.iter().zip(&by_float) {
            assert_eq!(i.column(0).values(), f.column(0).values());
        }
    }
}
