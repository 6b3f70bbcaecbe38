//! Partitions: the unit of parallelism.
//!
//! A partition of a relation is a *range of its rows*. [`row_ranges`] cuts
//! `0..num_rows` into near-equal, non-empty ranges; a row task reads
//! `&input.rows[range]` under the input's schema — nothing is copied to make
//! it — and a columnar task reads a slice of every typed column (a `memcpy`
//! of primitives). Owned partitions exist only where rows really have to
//! move: `shuffle_rows` and `shuffle_columns` fill the buckets of a join's
//! co-partitioning shuffle, one per layout and the same buckets in both.
//! Aggregations and `Distinct` never shuffle: they combine per range first
//! (see [`crate::exec`]).

use conclave_engine::{ColumnarRelation, Relation};
use conclave_ir::types::Value;
use std::borrow::Borrow;
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

/// The bucket a row's key lands in. Both layouts hash `Value`s into a copy of
/// one seed state, so they agree on every row's bucket.
fn bucket_of<V: Borrow<Value>>(
    seed: &DefaultHasher,
    key: impl Iterator<Item = V>,
    buckets: usize,
) -> usize {
    let mut hasher = seed.clone();
    for v in key {
        v.borrow().hash(&mut hasher);
    }
    (hasher.finish() % buckets as u64) as usize
}

/// Hash-partitions `rel` by the given key columns, so that all rows with
/// equal keys land in the same bucket, in their input order (the shuffle
/// before a join). This is the one place a row is copied to be partitioned.
pub(crate) fn shuffle_rows(rel: &Relation, key_cols: &[usize], buckets: usize) -> Vec<Relation> {
    let buckets = buckets.max(1);
    let seed = DefaultHasher::new();
    let mut rows: Vec<Vec<Vec<Value>>> = vec![Vec::new(); buckets];
    for row in &rel.rows {
        let bucket = bucket_of(&seed, key_cols.iter().map(|&c| &row[c]), buckets);
        rows[bucket].push(row.clone());
    }
    rows.into_iter()
        .map(|rows| Relation {
            schema: rel.schema.clone(),
            rows,
        })
        .collect()
}

/// [`shuffle_rows`] over typed columns, into the same buckets: one gather
/// index list per bucket, then every column is gathered once, so a join task
/// runs the vectorized engine with no row materialized.
pub(crate) fn shuffle_columns(
    rel: &ColumnarRelation,
    key_cols: &[usize],
    buckets: usize,
) -> Vec<ColumnarRelation> {
    let buckets = buckets.max(1);
    let seed = DefaultHasher::new();
    let mut indices: Vec<Vec<usize>> = vec![Vec::new(); buckets];
    for i in 0..rel.num_rows() {
        let key = key_cols.iter().map(|&c| rel.value(i, c));
        indices[bucket_of(&seed, key, buckets)].push(i);
    }
    indices.iter().map(|idx| rel.gather(idx)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn shuffle_by_key_groups_equal_keys_together() {
        let r = rel(200);
        let shuffled = shuffle_rows(&r, &[0], 5);
        assert_eq!(shuffled.iter().map(Relation::num_rows).sum::<usize>(), 200);
        assert_eq!(shuffled.len(), 5);
        // Every distinct key must appear in exactly one partition.
        for key in 0..7i64 {
            let holders = shuffled
                .iter()
                .filter(|part| part.rows.iter().any(|row| row[0] == Value::Int(key)))
                .count();
            assert_eq!(holders, 1, "key {key} appears in {holders} partitions");
        }
        // All rows survive the shuffle.
        let collected = Relation::concat_owned(shuffled).unwrap();
        assert!(collected.same_rows_unordered(&r));
    }

    #[test]
    fn shuffle_with_zero_partitions_is_clamped() {
        let shuffled = shuffle_rows(&rel(10), &[0], 0);
        assert_eq!(shuffled, [rel(10)]);
    }

    #[test]
    fn columnar_shuffle_matches_row_shuffle_semantics() {
        let r = rel(200);
        let row_part = shuffle_rows(&r, &[0], 5);
        let columnar = ColumnarRelation::from_rows(&r);
        let col_part = shuffle_columns(&columnar, &[0], 5);
        assert_eq!(col_part.len(), 5);
        assert_eq!(col_part.iter().map(|p| p.num_rows()).sum::<usize>(), 200);
        // Same bucketing (both hash `Value`s with the same hasher), and every
        // key lands in exactly one partition.
        for (rp, cp) in row_part.iter().zip(&col_part) {
            assert_eq!(cp.to_rows().rows, rp.rows);
        }
        for key in 0..7i64 {
            let holders = col_part
                .iter()
                .filter(|part| (0..part.num_rows()).any(|i| part.value(i, 0) == Value::Int(key)))
                .count();
            assert_eq!(holders, 1, "key {key} appears in {holders} partitions");
        }
        let collected = ColumnarRelation::concat(&col_part).unwrap();
        assert!(collected.to_rows().same_rows_unordered(&r));
        // Zero-partition shuffles clamp.
        assert_eq!(shuffle_columns(&columnar, &[0], 0).len(), 1);
    }
}
