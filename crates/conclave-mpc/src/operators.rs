//! The oblivious relational operators, written once over [`Engine`].
//!
//! These are the building blocks §5.3–§5.4 of the paper reason about:
//! oblivious shuffles, Batcher sorting networks, odd-even merges, Laud-style
//! oblivious indexing (`select`), Cartesian-product joins, the sorting-based
//! aggregation of Jónsson et al., filters and column arithmetic — plus
//! [`execute_op`], the one dispatcher from an IR [`Operator`] to them. Two of
//! them have no IR operator, so `execute_op` never reaches them: callers use
//! [`oblivious_select`] (the hybrid join's step) and [`merge_sorted`]
//! directly. Every body is generic: the in-process
//! [`crate::protocol::Protocol`] and the per-party
//! [`crate::runtime::StepCtx`] run the same code, so they charge the same
//! primitive counts, open the same values and leak the same sizes.
//!
//! Non-linear work is issued in batches (one `eq_batch_groups` for all key
//! columns of a join or aggregation, one `mul_batch` per extra factor of a
//! multiply; per sorting-network layer, one `lt_batch` + one `mux_batch` over
//! all of its disjoint comparators, and for a lexicographic order over m keys
//! one `eq_batch_groups` and m − 1 `mul_batch` folds between them), so an
//! engine that communicates pays rounds per *batch* — a sort per layer, not
//! per comparator — except in the grouped aggregate's scan, which is still
//! one row per batch (ROADMAP item 1, Stage C). That scan carries k output
//! lanes ([`aggregate_sorted_lanes`]), so sibling aggregations of one
//! relation by the same keys pay its rounds, its equality batch and its
//! shuffle once.

use crate::cost::PrimitiveCounts;
use crate::engine::{CmpArg, Engine, EngineResult, OpError};
use crate::relation::Rel;
use conclave_ir::expr::{BinOp, Expr};
use conclave_ir::ops::{aggregate_schema, join_schema, AggFunc, Operand, Operator};
use conclave_ir::schema::{ColumnDef, Schema};
use conclave_ir::types::{DataType, Value};

/// `schema` plus one integer column `name`.
fn with_int_column(schema: &Schema, name: &str) -> Result<Schema, OpError> {
    let mut schema = schema.clone();
    schema
        .push(ColumnDef::new(name, DataType::Int))
        .map_err(|e| OpError::Invalid(e.to_string()))?;
    Ok(schema)
}

/// The integer a literal operand stands for.
fn literal(v: &Value) -> Result<i64, OpError> {
    v.as_int()
        .ok_or_else(|| OpError::Unsupported("non-integer literal under MPC".into()))
}

/// The single result of a one-element batch.
fn only<S>(mut batch: Vec<S>) -> S {
    batch.pop().expect("one result per batch element")
}

/// Obliviously shuffles the rows of a shared relation.
///
/// The permutation is chosen inside the engine (standing in for a
/// resharing-based shuffle); the cost charged is proportional to the number
/// of shared elements moved.
pub fn shuffle<E: Engine>(eng: &mut E, rel: &Rel<E::Share>) -> Rel<E::Share> {
    eng.charge_shuffle(rel.num_elems());
    let perm = eng.random_permutation(rel.num_rows());
    rel.clone().permute(&perm)
}

/// A compare-exchange between two row positions: afterwards the key at the
/// first precedes the key at the second in the requested order.
type Comparator = (usize, usize);

/// One depth level of a comparator network: comparators over pairwise
/// distinct positions, so they commute and can share their round trips.
type Layer = Vec<Comparator>;

/// Oblivious compare-exchanges of pairwise-disjoint comparators, across all
/// columns and in place, ordering rows lexicographically by `keys`: one
/// comparison batch over keys × comparators; for m > 1 keys one equality
/// batch over the first m − 1 keys and m − 1 multiplication folds; then one
/// multiplexer batch over every (comparator × column × 2) selector.
fn compare_exchange<E: Engine>(
    eng: &mut E,
    rows: &mut [Vec<E::Share>],
    layer: &[Comparator],
    keys: &[usize],
    ascending: bool,
) -> EngineResult<E, ()> {
    // swap = 1 iff row `lt` precedes row `than`, i.e. the pair is out of
    // order: lt₀ + eq₀·(lt₁ + eq₁·(…)) over the keys.
    let sides: Vec<_> = layer
        .iter()
        .map(|&(i, j)| if ascending { (j, i) } else { (i, j) })
        .collect();
    let key_pairs = |k: usize| -> Vec<_> {
        sides
            .iter()
            .map(|&(lt, than)| (rows[lt][k], rows[than][k]))
            .collect()
    };
    let lts = eng.lt_batch(&keys.iter().flat_map(|&k| key_pairs(k)).collect::<Vec<_>>())?;
    let leading = &keys[..keys.len().saturating_sub(1)];
    let eqs = if leading.is_empty() {
        Vec::new()
    } else {
        let groups: Vec<_> = leading.iter().map(|&k| key_pairs(k)).collect();
        eng.eq_batch_groups(&groups)?
    };
    // Fold from the last key outwards.
    let mut per_key = lts.chunks(layer.len()).rev();
    let mut swaps = per_key.next().expect("at least one sort key").to_vec();
    for (lt, eq) in per_key.zip(eqs.into_iter().rev()) {
        let tied: Vec<_> = eq.into_iter().zip(swaps).collect();
        let later = eng.mul_batch(&tied)?;
        swaps = lt.iter().zip(later).map(|(&l, t)| eng.add(l, t)).collect();
    }
    let selectors: Vec<_> = layer
        .iter()
        .zip(swaps)
        .flat_map(|(&(i, j), swap)| {
            rows[i]
                .iter()
                .zip(&rows[j])
                .flat_map(move |(&x, &y)| [(swap, y, x), (swap, x, y)]) // new row i, new row j
        })
        .collect();
    let mut muxed = eng.mux_batch(&selectors)?.into_iter();
    for &(i, j) in layer {
        for c in 0..rows[i].len() {
            rows[i][c] = muxed.next().expect("two results per column");
            rows[j][c] = muxed.next().expect("two results per column");
        }
    }
    Ok(())
}

/// Generates the layers of a Batcher odd-even merge sort for `n` elements,
/// one per `(p, k)` step (indices `>= n` are skipped, which is the standard
/// way to handle non-power-of-two sizes, and so is a step they leave empty).
fn batcher_layers(n: usize) -> Vec<Layer> {
    let mut layers = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            let mut layer = Layer::new();
            let mut j = k % p;
            while j + k < n {
                for i in 0..k {
                    let a = i + j;
                    let b = i + j + k;
                    if b < n && (a / (p * 2)) == (b / (p * 2)) {
                        layer.push((a, b));
                    }
                }
                j += k * 2;
            }
            if !layer.is_empty() {
                layers.push(layer);
            }
            k /= 2;
        }
        p *= 2;
    }
    layers
}

/// Runs a comparator network over `rows` in place, ordering by `keys`
/// lexicographically: each layer is one compare-exchange batch.
fn run_network<E: Engine>(
    eng: &mut E,
    rows: &mut [Vec<E::Share>],
    layers: Vec<Layer>,
    keys: &[usize],
    ascending: bool,
) -> EngineResult<E, ()> {
    for layer in layers {
        compare_exchange(eng, rows, &layer, keys, ascending)?;
    }
    Ok(())
}

/// Obliviously sorts the relation by the named column using a Batcher
/// odd-even merge sorting network (`𝒪(n·log²n)` compare-exchanges in
/// `𝒪(log²n)` layers).
pub fn sort_by<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    column: &str,
    ascending: bool,
) -> EngineResult<E, Rel<E::Share>> {
    let key = rel.require(column)?;
    sort_by_keys(eng, rel, &[key], ascending)
}

/// [`sort_by`] over the column positions `keys`, lexicographically (at least
/// one key).
fn sort_by_keys<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    keys: &[usize],
    ascending: bool,
) -> EngineResult<E, Rel<E::Share>> {
    let mut rows = rel.rows.clone();
    let layers = batcher_layers(rows.len());
    run_network(eng, &mut rows, layers, keys, ascending)?;
    Ok(Rel {
        schema: rel.schema.clone(),
        rows,
    })
}

/// Lays the network `other` beside `layers`: the two touch disjoint
/// positions, so layer `i` of one runs with layer `i` of the other.
fn lay_beside(layers: &mut Vec<Layer>, other: Vec<Layer>) {
    if layers.len() < other.len() {
        layers.resize_with(other.len(), Layer::new);
    }
    for (layer, more) in layers.iter_mut().zip(other) {
        layer.extend(more);
    }
}

/// Batcher's odd-even merge of two sorted runs of *any* lengths, given as
/// the row positions holding each run in order. Returns the positions that
/// hold the merged run in order — the network leaves the result at a public
/// permutation of the positions, which the caller undoes for free — and the
/// network's layers.
fn merge_layers(a: Vec<usize>, b: Vec<usize>) -> (Vec<usize>, Vec<Layer>) {
    if a.is_empty() {
        return (b, Vec::new());
    }
    if b.is_empty() {
        return (a, Vec::new());
    }
    if a.len() == 1 && b.len() == 1 {
        return (vec![a[0], b[0]], vec![vec![(a[0], b[0])]]);
    }
    let half = |run: &[usize], skip: usize| -> Vec<usize> {
        run.iter().skip(skip).step_by(2).copied().collect()
    };
    // Merge the 1st, 3rd, … and the 2nd, 4th, … elements of both runs — on
    // disjoint positions, so side by side — then fix up neighbours in one
    // last layer: v₁, (w₁,v₂), (w₂,v₃), …
    let (v, mut layers) = merge_layers(half(&a, 0), half(&b, 0));
    let (w, beside) = merge_layers(half(&a, 1), half(&b, 1));
    lay_beside(&mut layers, beside);
    let mut fix_up = Layer::new();
    let mut merged = vec![v[0]];
    for i in 0..w.len().max(v.len() - 1) {
        match (w.get(i), v.get(i + 1)) {
            (Some(&lo), Some(&hi)) => {
                fix_up.push((lo, hi));
                merged.extend([lo, hi]);
            }
            (Some(&last), None) | (None, Some(&last)) => merged.push(last),
            (None, None) => unreachable!("loop bound covers both tails"),
        }
    }
    layers.push(fix_up);
    (merged, layers)
}

/// Obliviously merges relations that are each sorted by `column`. A full
/// sorting network is not needed: runs are merged pairwise with odd-even
/// merge networks, `𝒪(n·log n)` compare-exchanges per level, the independent
/// merges of a level side by side.
pub fn merge_sorted<E: Engine>(
    eng: &mut E,
    parts: &[&Rel<E::Share>],
    column: &str,
    ascending: bool,
) -> EngineResult<E, Rel<E::Share>> {
    let cat = Rel::concat(parts)?;
    let key = cat.require(column)?;
    let mut start = 0;
    let mut runs: Vec<Vec<usize>> = parts
        .iter()
        .map(|p| {
            start += p.num_rows();
            (start - p.num_rows()..start).collect()
        })
        .collect();
    let mut layers = Vec::new();
    while runs.len() > 1 {
        let mut level = Vec::with_capacity(runs.len().div_ceil(2));
        let mut level_layers = Vec::new();
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            let (merged, beside) = merge_layers(a, it.next().unwrap_or_default());
            level.push(merged);
            lay_beside(&mut level_layers, beside);
        }
        runs = level;
        layers.extend(level_layers);
    }
    let mut rows = cat.rows;
    run_network(eng, &mut rows, layers, &[key], ascending)?;
    // `order` is a permutation of the positions, so each row moves once.
    let order = runs.pop().unwrap_or_default();
    Ok(Rel {
        schema: cat.schema,
        rows: order
            .into_iter()
            .map(|i| std::mem::take(&mut rows[i]))
            .collect(),
    })
}

/// Laud-style oblivious indexing (`select`): given a data relation and a
/// relation of secret row indexes, returns the data rows at those positions,
/// in index order, still secret-shared.
///
/// The real protocol costs `𝒪((n+m)·log(n+m))` non-linear operations; that
/// cost is charged while the index column is opened (standing in for the
/// oblivious-indexing sub-protocol) and the addressed rows are picked.
pub fn oblivious_select<E: Engine>(
    eng: &mut E,
    data: &Rel<E::Share>,
    indexes: &Rel<E::Share>,
    index_column: &str,
) -> EngineResult<E, Rel<E::Share>> {
    let idx_col = indexes.require(index_column)?;
    let total = (data.num_rows() as u64 + indexes.num_rows() as u64).max(2);
    let log = 64 - total.leading_zeros() as u64;
    eng.charge(&PrimitiveCounts {
        mults: total * log * data.num_cols() as u64,
        ..Default::default()
    });
    let rows = eng
        .open_column(&indexes.column(idx_col))?
        .into_iter()
        .map(|i| {
            usize::try_from(i)
                .ok()
                .and_then(|i| data.rows.get(i))
                .cloned()
                .ok_or_else(|| OpError::Invalid(format!("oblivious index {i} out of bounds")))
        })
        .collect::<Result<_, _>>()?;
    Ok(Rel {
        schema: data.schema.clone(),
        rows,
    })
}

/// AND-folds per-column equality flags into one flag per row pair: all
/// columns' equality tests run as one coalesced batch, then one batched
/// multiplication per extra column.
fn all_equal<E: Engine>(
    eng: &mut E,
    groups: &[Vec<(E::Share, E::Share)>],
) -> EngineResult<E, Vec<E::Share>> {
    let mut per_col = eng.eq_batch_groups(groups)?.into_iter();
    let mut all = per_col.next().unwrap_or_default();
    for flags in per_col {
        let products: Vec<_> = all.into_iter().zip(flags).collect();
        all = eng.mul_batch(&products)?;
    }
    Ok(all)
}

/// Obliviously shuffles `flagged` (as [`shuffle`] does), opens its trailing
/// 0/1 flag column and keeps the flagged rows (without the flag) under
/// `schema` — revealing only the output size. The rows are moved, not
/// copied, into their shuffled places.
fn shuffle_keep_flagged<E: Engine>(
    eng: &mut E,
    flagged: Rel<E::Share>,
    schema: Schema,
) -> EngineResult<E, Rel<E::Share>> {
    eng.charge_shuffle(flagged.num_elems());
    let order = eng.random_permutation(flagged.num_rows());
    let flag_col = flagged.num_cols() - 1;
    let flags: Vec<E::Share> = order.iter().map(|&i| flagged.rows[i][flag_col]).collect();
    let opened = eng.open_column(&flags)?;
    let mut rows = flagged.rows;
    let kept = order
        .into_iter()
        .zip(opened)
        .filter(|(_, flag)| *flag == 1)
        .map(|(i, _)| {
            let mut row = std::mem::take(&mut rows[i]);
            row.truncate(flag_col);
            row
        })
        .collect();
    Ok(Rel { schema, rows: kept })
}

/// Standard MPC join: a Cartesian-product comparison of all row pairs
/// (`𝒪(n·m)` oblivious equality tests), as implemented by the paper's
/// prototype for both Sharemind and Obliv-C (§6). All pair flags of all key
/// columns are computed in one coalesced batch, then opened together — the
/// paper's non-padded join reveals the output size and match structure.
pub fn cartesian_join<E: Engine>(
    eng: &mut E,
    left: &Rel<E::Share>,
    right: &Rel<E::Share>,
    left_keys: &[String],
    right_keys: &[String],
) -> EngineResult<E, Rel<E::Share>> {
    let lk = left.require_all(left_keys)?;
    let rk = right.require_all(right_keys)?;
    let schema = join_schema(&left.schema, &right.schema, left_keys, right_keys)
        .map_err(|e| OpError::Invalid(e.to_string()))?;
    if left.num_rows() == 0 || right.num_rows() == 0 {
        return Ok(Rel::empty(schema));
    }
    let right_keep: Vec<usize> = (0..right.num_cols()).filter(|i| !rk.contains(i)).collect();
    let row_pairs = || {
        left.rows
            .iter()
            .flat_map(|l| right.rows.iter().map(move |r| (l, r)))
    };
    let groups: Vec<Vec<_>> = lk
        .iter()
        .zip(&rk)
        .map(|(&lc, &rc)| row_pairs().map(|(l, r)| (l[lc], r[rc])).collect())
        .collect();
    let matched = all_equal(eng, &groups)?;
    let opened = eng.open_column(&matched)?;
    let rows = row_pairs()
        .zip(opened)
        .filter(|(_, flag)| *flag == 1)
        .map(|((l, r), _)| {
            l.iter()
                .copied()
                .chain(right_keep.iter().map(|&c| r[c]))
                .collect()
        })
        .collect();
    Ok(Rel { schema, rows })
}

/// One output lane of a sorting-based aggregation: `func` over the column
/// `over` (none for COUNT), written to the column `out`. Sibling
/// aggregations of one relation by the same keys are one scan of several
/// lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggLane<'a> {
    /// The aggregate function.
    pub func: AggFunc,
    /// The column aggregated over (`None` only for COUNT).
    pub over: Option<&'a str>,
    /// The output column's name.
    pub out: &'a str,
}

impl<'a> AggLane<'a> {
    /// The lane of an `Aggregate` or `HybridAggregate` operator.
    pub fn of(op: &'a Operator) -> Option<Self> {
        match op {
            Operator::Aggregate {
                func, over, out, ..
            }
            | Operator::HybridAggregate {
                func, over, out, ..
            } => Some(AggLane {
                func: *func,
                over: over.as_deref(),
                out,
            }),
            _ => None,
        }
    }

    /// Whether the lane selects (MIN/MAX) rather than adds (SUM/COUNT).
    fn selects(&self) -> bool {
        matches!(self.func, AggFunc::Min | AggFunc::Max)
    }
}

/// The schema of a k-output aggregation: the group-by columns, then one
/// column per lane, each typed as [`aggregate_schema`] types it alone. Lanes
/// are positional: like a single output, a lane's name is not checked
/// against the others'.
fn lanes_schema(input: &Schema, group_by: &[String], lanes: &[AggLane]) -> Result<Schema, OpError> {
    let lane_schema = |lane: &AggLane| {
        aggregate_schema(input, group_by, lane.func, lane.over, lane.out)
            .map_err(|e| OpError::Invalid(e.to_string()))
    };
    let Some((first, rest)) = lanes.split_first() else {
        return Err(OpError::Invalid(
            "an aggregation needs at least one output".into(),
        ));
    };
    let mut schema = lane_schema(first)?;
    for lane in rest {
        let out = lane_schema(lane)?.columns.pop();
        schema.columns.extend(out);
    }
    Ok(schema)
}

/// The columns k-output aggregation `lanes` read: the group-by columns, then
/// every other column a lane aggregates over, once, in lane order.
pub fn lanes_read<'a>(group_by: &'a [String], lanes: &[AggLane<'a>]) -> Vec<&'a str> {
    let mut read: Vec<&str> = group_by.iter().map(String::as_str).collect();
    for over in lanes.iter().filter_map(|lane| lane.over) {
        if !read.contains(&over) {
            read.push(over);
        }
    }
    read
}

/// [`aggregate_sorted_lanes`] with one lane: the single-output aggregation.
pub fn aggregate_sorted<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
) -> EngineResult<E, Rel<E::Share>> {
    aggregate_sorted_lanes(eng, rel, group_by, &[AggLane { func, over, out }])
}

/// Sorting-based oblivious aggregation (Jónsson et al.), as used by the
/// paper's prototype, with k output lanes: the input must already be sorted
/// (or grouped) by the group-by columns; the scan accumulates each group into
/// its last row and the non-final rows are discarded after a
/// shuffle-and-reveal of the group-boundary flags. The lanes share the one
/// equality batch over adjacent keys, the one shuffle and the one flag
/// reveal; per row, SUM/COUNT lanes add locally, the MIN/MAX lanes share one
/// comparison batch and one multiplexer batch, and one multiplexer batch
/// carries every lane into the next row. The output is the group-by columns
/// followed by one column per lane, each typed as that lane's aggregation
/// alone would type it.
pub fn aggregate_sorted_lanes<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    group_by: &[String],
    lanes: &[AggLane],
) -> EngineResult<E, Rel<E::Share>> {
    let key_cols = rel.require_all(group_by)?;
    let schema = lanes_schema(&rel.schema, group_by, lanes)?;
    // The column each lane takes in per row; COUNT takes in a one.
    let reads = lanes
        .iter()
        .map(|lane| {
            let col = lane.over.map(|o| rel.require(o)).transpose()?;
            Ok((lane.func != AggFunc::Count).then_some(col).flatten())
        })
        .collect::<Result<Vec<Option<usize>>, OpError>>()?;
    let selecting: Vec<usize> = (0..lanes.len()).filter(|&l| lanes[l].selects()).collect();
    let n = rel.num_rows();
    if n == 0 {
        // Like the cleartext engines, a scalar SUM/COUNT over nothing is one
        // row holding the additive identity. (MIN/MAX would be NULL, which no
        // share can represent: they yield no row, so they cannot share one
        // with a SUM/COUNT.)
        let mut rows = Vec::new();
        if key_cols.is_empty() && selecting.len() < lanes.len() {
            if !selecting.is_empty() {
                return Err(OpError::Invalid(
                    "a scalar MIN/MAX over no rows has no value to share a row with SUM/COUNT"
                        .into(),
                )
                .into());
            }
            rows.push(vec![eng.constant(0); lanes.len()]);
        }
        return Ok(Rel { schema, rows });
    }
    // A row's own contribution to every lane, into `current`.
    let take_in = |eng: &E, row: &[E::Share], current: &mut Vec<E::Share>| {
        current.clear();
        current.extend(
            reads
                .iter()
                .map(|read| read.map_or_else(|| eng.constant(1), |c| row[c])),
        );
    };
    // Every lane's running aggregate after taking in `current`, into
    // `combined`.
    let combine = |eng: &mut E,
                   acc: &[E::Share],
                   current: &[E::Share],
                   combined: &mut Vec<E::Share>|
     -> EngineResult<E, ()> {
        combined.clear();
        combined.extend((0..lanes.len()).map(|l| match lanes[l].selects() {
            true => current[l],
            false => eng.add(acc[l], current[l]),
        }));
        if !selecting.is_empty() {
            let pairs: Vec<_> = selecting
                .iter()
                .map(|&l| match lanes[l].func {
                    AggFunc::Min => (acc[l], current[l]),
                    _ => (current[l], acc[l]),
                })
                .collect();
            let keep_acc = eng.lt_batch(&pairs)?;
            let selectors: Vec<_> = selecting
                .iter()
                .zip(keep_acc)
                .map(|(&l, keep)| (keep, acc[l], current[l]))
                .collect();
            for (&l, chosen) in selecting.iter().zip(eng.mux_batch(&selectors)?) {
                combined[l] = chosen;
            }
        }
        Ok(())
    };
    let (mut current, mut combined) = (Vec::new(), Vec::new());

    // Scalar aggregation: a linear scan of local additions (SUM) or
    // oblivious min/max selection; COUNT is the public row count.
    if key_cols.is_empty() {
        let mut acc = Vec::new();
        take_in(eng, &rel.rows[0], &mut acc);
        if reads.iter().any(Option::is_some) {
            for row in &rel.rows[1..] {
                take_in(eng, row, &mut current);
                combine(eng, &acc, &current, &mut combined)?;
                std::mem::swap(&mut acc, &mut combined);
            }
        }
        for (value, read) in acc.iter_mut().zip(&reads) {
            if read.is_none() {
                *value = eng.constant(n as i64);
            }
        }
        return Ok(Rel {
            schema,
            rows: vec![acc],
        });
    }

    // same_group[i-1] = 1 iff row i belongs to the group of row i-1.
    let groups: Vec<Vec<_>> = key_cols
        .iter()
        .map(|&k| rel.rows.windows(2).map(|w| (w[1][k], w[0][k])).collect())
        .collect();
    let same_group = all_equal(eng, &groups)?;

    // Candidate output rows: group keys + every lane's running aggregate + a
    // flag that is 1 on the last row of each group (the final row always is).
    let one = eng.constant(1);
    let mut acc = Vec::new();
    take_in(eng, &rel.rows[0], &mut acc);
    let mut carries = Vec::new();
    let mut candidates = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<E::Share> = Vec::with_capacity(schema.len() + 1);
        row.extend(key_cols.iter().map(|&k| rel.rows[i][k]));
        row.extend_from_slice(&acc);
        match same_group.get(i) {
            Some(&same) => {
                row.push(eng.sub(one, same));
                // If the next row continues the group, carry the combined
                // aggregates into it; otherwise they restart.
                take_in(eng, &rel.rows[i + 1], &mut current);
                combine(eng, &acc, &current, &mut combined)?;
                carries.clear();
                carries.extend(
                    combined
                        .iter()
                        .zip(&current)
                        .map(|(&combined, &current)| (same, combined, current)),
                );
                acc = eng.mux_batch(&carries)?;
            }
            None => row.push(one),
        }
        candidates.push(row);
    }
    // Shuffle the candidates with their flags, reveal the flags and discard
    // non-final rows — revealing only the (already public, §5.3) result
    // cardinality.
    let flagged = Rel {
        schema: with_int_column(&schema, "__last_of_group")?,
        rows: candidates,
    };
    shuffle_keep_flagged(eng, flagged, schema)
}

/// Evaluates a (restricted) predicate over every row at once, producing a
/// shared 0/1 flag per row: comparisons between columns and integer literals
/// and boolean combinations thereof. Each expression node is one batch.
fn eval_predicate<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    expr: &Expr,
) -> EngineResult<E, Vec<E::Share>> {
    let one = eng.constant(1);
    let negate = |eng: &E, bits: Vec<E::Share>| bits.iter().map(|&b| eng.sub(one, b)).collect();
    match expr {
        Expr::Bin { op, left, right } => match op {
            BinOp::And | BinOp::Or => {
                let l = eval_predicate(eng, rel, left)?;
                let r = eval_predicate(eng, rel, right)?;
                let pairs: Vec<_> = l.into_iter().zip(r).collect();
                let prod = eng.mul_batch(&pairs)?;
                if *op == BinOp::And {
                    return Ok(prod);
                }
                // a OR b = a + b − a·b
                Ok(pairs
                    .into_iter()
                    .zip(prod)
                    .map(|((a, b), ab)| eng.sub(eng.add(a, b), ab))
                    .collect())
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let l = eval_operand(rel, left)?;
                let r = eval_operand(rel, right)?;
                let pairs: Vec<_> = match op {
                    BinOp::Gt | BinOp::Le => r.into_iter().zip(l).collect(),
                    _ => l.into_iter().zip(r).collect(),
                };
                let raw = match op {
                    BinOp::Eq | BinOp::Ne => {
                        let share = |a| match a {
                            CmpArg::Shared(s) => s,
                            CmpArg::Public(v) => eng.constant(v),
                        };
                        let pairs = pairs.into_iter().map(|(x, y)| (share(x), share(y)));
                        only(eng.eq_batch_groups(&[pairs.collect()])?)
                    }
                    _ => eng.lt_batch(&pairs)?,
                };
                Ok(match op {
                    BinOp::Ne | BinOp::Le | BinOp::Ge => negate(eng, raw),
                    _ => raw,
                })
            }
            _ => Err(OpError::Unsupported(format!(
                "arithmetic operator {op} in an MPC filter predicate"
            ))
            .into()),
        },
        Expr::Not(inner) => {
            let bits = eval_predicate(eng, rel, inner)?;
            Ok(negate(eng, bits))
        }
        other => Err(OpError::Unsupported(format!("predicate form `{other}` under MPC")).into()),
    }
}

/// One comparison operand per row: a column's shares or a public literal.
fn eval_operand<S: Copy>(rel: &Rel<S>, expr: &Expr) -> Result<Vec<CmpArg<S>>, OpError> {
    match expr {
        Expr::Col(name) => {
            let idx = rel.require(name)?;
            Ok(rel
                .rows
                .iter()
                .map(|row| CmpArg::Shared(row[idx]))
                .collect())
        }
        Expr::Const(v) => Ok(vec![CmpArg::Public(literal(v)?); rel.num_rows()]),
        other => Err(OpError::Unsupported(format!(
            "operand form `{other}` under MPC"
        ))),
    }
}

/// Oblivious filter: computes the predicate flag per row, shuffles, reveals
/// the flags and keeps the selected rows (leaking only the output size, like
/// the paper's non-padded operators).
pub fn filter<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    predicate: &Expr,
) -> EngineResult<E, Rel<E::Share>> {
    // On an empty input this still validates the predicate's shape.
    let flags = eval_predicate(eng, rel, predicate)?;
    if rel.num_rows() == 0 {
        return Ok(rel.clone());
    }
    let flagged = Rel {
        schema: with_int_column(&rel.schema, "__filter_flag")?,
        rows: rel
            .rows
            .iter()
            .zip(flags)
            .map(|(row, flag)| row.iter().copied().chain([flag]).collect())
            .collect(),
    };
    shuffle_keep_flagged(eng, flagged, rel.schema.clone())
}

/// Column arithmetic: multiplies operand columns/literals into a new (or
/// replaced) column `out` — one multiplication batch per extra column
/// factor, literals are local.
pub fn multiply_columns<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    out: &str,
    operands: &[Operand],
) -> EngineResult<E, Rel<E::Share>> {
    let replace = rel.col_index(out);
    let schema = match replace {
        Some(_) => rel.schema.clone(),
        None => with_int_column(&rel.schema, out)?,
    };
    let mut acc: Option<Vec<E::Share>> = None;
    for o in operands {
        acc = Some(match o {
            Operand::Col(c) => {
                let col = rel.column(rel.require(c)?);
                match &acc {
                    None => col,
                    Some(acc) => {
                        eng.mul_batch(&acc.iter().copied().zip(col).collect::<Vec<_>>())?
                    }
                }
            }
            Operand::Lit(v) => {
                let i = literal(v)?;
                match &acc {
                    None => vec![eng.constant(i); rel.num_rows()],
                    Some(acc) => acc.iter().map(|&a| eng.mul_public(a, i)).collect(),
                }
            }
        });
    }
    let acc = acc.unwrap_or_else(|| vec![eng.constant(1); rel.num_rows()]);
    let rows = rel
        .rows
        .iter()
        .zip(acc)
        .map(|(row, a)| {
            let mut new_row = row.clone();
            match replace {
                Some(i) => new_row[i] = a,
                None => new_row.push(a),
            }
            new_row
        })
        .collect();
    Ok(Rel { schema, rows })
}

/// Removes duplicate adjacent rows (over all columns) from a key-sorted
/// relation, the core of the MPC `distinct` operator: adjacent all-column
/// equality flags, opened directly.
fn distinct_sorted<E: Engine>(eng: &mut E, rel: &Rel<E::Share>) -> EngineResult<E, Rel<E::Share>> {
    if rel.num_rows() == 0 {
        return Ok(rel.clone());
    }
    let groups: Vec<Vec<_>> = (0..rel.num_cols())
        .map(|c| rel.rows.windows(2).map(|w| (w[1][c], w[0][c])).collect())
        .collect();
    let duplicate = all_equal(eng, &groups)?;
    let one = eng.constant(1);
    let keep: Vec<E::Share> = std::iter::once(one)
        .chain(duplicate.iter().map(|&d| eng.sub(one, d)))
        .collect();
    let opened = eng.open_column(&keep)?;
    let rows = rel
        .rows
        .iter()
        .zip(opened)
        .filter(|(_, flag)| *flag == 1)
        .map(|(row, _)| row.clone())
        .collect();
    Ok(Rel {
        schema: rel.schema.clone(),
        rows,
    })
}

/// Executes one relational operator over already-shared relations — the one
/// execution dispatcher of the crate, whichever engine runs it. `presorted`
/// skips the oblivious sort in front of a grouped aggregation whose input is
/// already sorted by its group-by keys (the §5.4 sort-elimination pay-off).
pub fn execute_op<E: Engine>(
    eng: &mut E,
    op: &Operator,
    inputs: &[&Rel<E::Share>],
    presorted: bool,
) -> EngineResult<E, Rel<E::Share>> {
    let arity = match op {
        Operator::Join { .. } => 2,
        // Variadic, or rejected below whatever it is given.
        Operator::Concat
        | Operator::Divide { .. }
        | Operator::Input { .. }
        | Operator::HybridJoin { .. }
        | Operator::PublicJoin { .. }
        | Operator::HybridAggregate { .. } => inputs.len(),
        _ => 1,
    };
    if inputs.len() != arity {
        return Err(OpError::Invalid(format!(
            "{} expects {arity} inputs, got {}",
            op.name(),
            inputs.len()
        ))
        .into());
    }
    match op {
        Operator::Project { columns } => Ok(inputs[0].project(columns)?),
        Operator::Concat => Ok(Rel::concat(inputs)?),
        Operator::Filter { predicate } => filter(eng, inputs[0], predicate),
        Operator::Join {
            left_keys,
            right_keys,
            ..
        } => cartesian_join(eng, inputs[0], inputs[1], left_keys, right_keys),
        Operator::Aggregate {
            group_by,
            func,
            over,
            out,
        } => {
            let sorted;
            let input = if group_by.is_empty() || presorted {
                inputs[0]
            } else {
                sorted = sort_by_keys(eng, inputs[0], &inputs[0].require_all(group_by)?, true)?;
                &sorted
            };
            aggregate_sorted(eng, input, group_by, *func, over.as_deref(), out)
        }
        Operator::Multiply { out, operands } => multiply_columns(eng, inputs[0], out, operands),
        Operator::SortBy { column, ascending } => sort_by(eng, inputs[0], column, *ascending),
        Operator::Limit { n } => {
            let mut rel = inputs[0].clone();
            rel.rows.truncate(*n);
            Ok(rel)
        }
        Operator::Enumerate { out } => {
            let mut rel = inputs[0].clone();
            rel.schema = with_int_column(&rel.schema, out)?;
            for (i, row) in rel.rows.iter_mut().enumerate() {
                row.push(eng.constant(i as i64));
            }
            Ok(rel)
        }
        Operator::Distinct { columns } => {
            if columns.is_empty() {
                return Err(OpError::Invalid("distinct needs columns".into()).into());
            }
            // Sorting by every column makes equal rows adjacent.
            let proj = inputs[0].project(columns)?;
            let all: Vec<usize> = (0..proj.num_cols()).collect();
            let sorted = sort_by_keys(eng, &proj, &all, true)?;
            distinct_sorted(eng, &sorted)
        }
        Operator::DistinctCount { column, out } => {
            let proj = inputs[0].project(std::slice::from_ref(column))?;
            let sorted = sort_by(eng, &proj, column, true)?;
            let n = distinct_sorted(eng, &sorted)?.num_rows() as i64;
            Ok(Rel {
                schema: Schema::new(vec![ColumnDef::new(out, DataType::Int)]),
                rows: vec![vec![eng.constant(n)]],
            })
        }
        Operator::Collect { .. } => Ok(inputs[0].clone()),
        Operator::Divide { .. } => Err(OpError::Unsupported(
            "division under MPC; Conclave pushes divisions out of the MPC frontier".into(),
        )
        .into()),
        Operator::Input { .. } => Err(OpError::Unsupported("input binding".into()).into()),
        Operator::HybridJoin { .. }
        | Operator::PublicJoin { .. }
        | Operator::HybridAggregate { .. } => Err(OpError::Unsupported(format!(
            "{} is a multi-site protocol orchestrated by the driver",
            op.name()
        ))
        .into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;
    use crate::relation::SharedRelation;
    use crate::runtime::{open_relation, run_parties, share_relation};
    use conclave_engine::{execute, Relation};

    fn share(rel: &Relation, proto: &mut Protocol) -> SharedRelation {
        SharedRelation::from_relation(rel, proto).unwrap()
    }

    fn names(cols: &[&str]) -> Vec<String> {
        cols.iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn shuffle_preserves_multiset_and_charges_cost() {
        let mut p = Protocol::new(3, 1);
        let rel = Relation::from_ints(
            &["k", "v"],
            &(0..20).map(|i| vec![i, i * 10]).collect::<Vec<_>>(),
        );
        let shared = share(&rel, &mut p);
        let shuffled = shuffle(&mut p, &shared);
        assert!(shuffled.open(&mut p).to_rows().same_rows_unordered(&rel));
        assert_eq!(p.counts().shuffled_elems, 40);
    }

    /// Runs a comparator network over cleartext values, taking each layer's
    /// comparators front to back or back to front: layers are disjoint, so
    /// the order inside one must not matter.
    fn apply<T: Ord>(vals: &mut [T], layers: &[Layer], reversed: bool) {
        for layer in layers {
            let mut layer = layer.clone();
            if reversed {
                layer.reverse();
            }
            for (i, j) in layer {
                if vals[i] > vals[j] {
                    vals.swap(i, j);
                }
            }
        }
    }

    /// No comparator of a layer touches a position another one does.
    fn assert_disjoint(layers: &[Layer], n: usize, what: &str) {
        for layer in layers {
            assert!(!layer.is_empty(), "{what}: no empty layers");
            let mut seen = vec![false; n];
            for &(i, j) in layer {
                assert!(i != j && i < n && j < n, "{what}: ({i}, {j})");
                assert!(!seen[i] && !seen[j], "{what}: ({i}, {j}) shares a row");
                (seen[i], seen[j]) = (true, true);
            }
        }
    }

    /// (comparators, layers); a layer is one round-trip batch.
    fn shape(layers: &[Layer]) -> (usize, usize) {
        (layers.iter().map(Vec::len).sum(), layers.len())
    }

    #[test]
    fn batcher_layers_sort_correctly_for_various_sizes() {
        for n in [1usize, 2, 3, 5, 8, 13, 16, 31, 100, 120, 128, 1000] {
            let layers = batcher_layers(n);
            assert_disjoint(&layers, n, &format!("n={n}"));
            // Apply the network on cleartext values to validate the pair set.
            for reversed in [false, true] {
                let mut vals: Vec<i64> = (0..n as i64).rev().collect();
                apply(&mut vals, &layers, reversed);
                assert_eq!(vals, (0..n as i64).collect::<Vec<_>>(), "n={n}");
            }
        }
    }

    /// Comparator and layer counts are pinned; each layer is one batch (10
    /// rounds on a mesh for one key).
    #[test]
    fn network_shapes_are_pinned() {
        let sort = |n| shape(&batcher_layers(n));
        assert_eq!(sort(16), (63, 10));
        assert_eq!(sort(80), (849, 28));
        assert_eq!(sort(120), (1372, 28));
        assert_eq!(sort(128), (1471, 28));
        assert_eq!(sort(1000), (23521, 55));
        let merge = |m: usize, n: usize| {
            let layers = merge_layers((0..m).collect(), (m..m + n).collect()).1;
            assert_disjoint(&layers, m + n, &format!("m={m} n={n}"));
            shape(&layers)
        };
        assert_eq!(merge(8, 8), (25, 4));
        assert_eq!(merge(40, 40), (217, 7));
        assert_eq!(merge(50, 70), (373, 8));
    }

    /// Batcher's depth bound: k·(k+1)/2 layers at most for k = ⌈log₂n⌉. A
    /// layer is one 9-round batch on a mesh, so a one-key sort of n rows
    /// takes at most 9·k·(k+1)/2 rounds.
    #[test]
    fn batcher_depth_is_at_most_the_triangle_of_log_n() {
        for n in 1..=1000usize {
            let log = n.next_power_of_two().trailing_zeros() as usize;
            assert!(batcher_layers(n).len() <= log * (log + 1) / 2, "n={n}");
        }
    }

    /// The 0–1 principle: a comparator network that merges every pair of
    /// sorted 0/1 runs merges every pair of sorted runs.
    #[test]
    fn merge_layers_merge_every_pair_of_zero_one_runs() {
        for m in 0..=9usize {
            for n in 0..=9usize {
                let (order, layers) = merge_layers((0..m).collect(), (m..m + n).collect());
                assert_disjoint(&layers, m + n, &format!("m={m} n={n}"));
                let mut positions = order.clone();
                positions.sort_unstable();
                assert_eq!(positions, (0..m + n).collect::<Vec<_>>(), "a permutation");
                for zeros_a in 0..=m {
                    for zeros_b in 0..=n {
                        for reversed in [false, true] {
                            let mut vals: Vec<u8> = (0..m)
                                .map(|i| u8::from(i >= zeros_a))
                                .chain((0..n).map(|i| u8::from(i >= zeros_b)))
                                .collect();
                            apply(&mut vals, &layers, reversed);
                            let merged: Vec<u8> = order.iter().map(|&i| vals[i]).collect();
                            assert!(merged.windows(2).all(|w| w[0] <= w[1]), "m={m} n={n}");
                        }
                    }
                }
                if m == n && m >= 4 {
                    let sort = batcher_layers(m + n);
                    assert!(shape(&layers).0 < shape(&sort).0, "merge beats sort");
                }
            }
        }
    }

    #[test]
    fn oblivious_sort_matches_cleartext_sort() {
        let mut p = Protocol::new(3, 2);
        let rel = Relation::from_ints(
            &["k", "v"],
            &[
                vec![5, 50],
                vec![1, 10],
                vec![4, 40],
                vec![2, 20],
                vec![3, 30],
            ],
        );
        let shared = share(&rel, &mut p);
        let back = sort_by(&mut p, &shared, "k", true)
            .unwrap()
            .open(&mut p)
            .to_rows();
        assert!(back.is_sorted_by("k", true));
        assert!(back.same_rows_unordered(&rel));
        assert!(p.counts().comparisons > 0);
        let desc = sort_by(&mut p, &shared, "k", false).unwrap();
        assert!(desc.open(&mut p).to_rows().is_sorted_by("k", false));
        assert!(sort_by(&mut p, &shared, "zzz", true).is_err());
    }

    #[test]
    fn merge_of_sorted_runs_is_sorted_in_fewer_comparisons_than_a_sort() {
        let mut p = Protocol::new(3, 3);
        let runs = [
            Relation::from_ints(&["k"], &[vec![1], vec![4], vec![7], vec![8]]),
            Relation::from_ints(&["k"], &[vec![2], vec![3], vec![9]]),
            Relation::from_ints(&["k"], &[vec![0], vec![7]]),
        ];
        let shared: Vec<SharedRelation> = runs.iter().map(|r| share(r, &mut p)).collect();
        for parts in [&shared[..2], &shared[..]] {
            let parts: Vec<&SharedRelation> = parts.iter().collect();
            p.reset_counts();
            let merged = merge_sorted(&mut p, &parts, "k", true).unwrap();
            let merge_comparisons = p.counts().comparisons;
            let back = merged.open(&mut p).to_rows();
            assert!(back.is_sorted_by("k", true));
            let cat = SharedRelation::concat(&parts).unwrap();
            assert!(back.same_rows_unordered(&cat.open(&mut p).to_rows()));
            p.reset_counts();
            sort_by(&mut p, &cat, "k", true).unwrap();
            assert!(merge_comparisons < p.counts().comparisons);
        }
        // Descending runs merge descending.
        let desc = [
            share(&Relation::from_ints(&["k"], &[vec![9], vec![5]]), &mut p),
            share(
                &Relation::from_ints(&["k"], &[vec![7], vec![6], vec![1]]),
                &mut p,
            ),
        ];
        let merged = merge_sorted(&mut p, &[&desc[0], &desc[1]], "k", false).unwrap();
        assert!(merged.open(&mut p).to_rows().is_sorted_by("k", false));
        assert!(merge_sorted(&mut p, &[], "k", true).is_err());
    }

    #[test]
    fn oblivious_select_matches_cleartext_select_and_charges_its_opens() {
        let mut p = Protocol::new(3, 4);
        let data = Relation::from_ints(
            &["a", "b"],
            &[vec![0, 0], vec![1, 10], vec![2, 20], vec![3, 30]],
        );
        let idx = Relation::from_ints(&["idx"], &[vec![3], vec![1]]);
        let sdata = share(&data, &mut p);
        let sidx = share(&idx, &mut p);
        p.reset_counts();
        let selected = oblivious_select(&mut p, &sdata, &sidx, "idx").unwrap();
        assert!(p.counts().mults > 0, "select must charge its cost");
        assert_eq!(p.counts().opened_elems, 2, "the index opens are accounted");
        let expected = vec![data.rows[3].clone(), data.rows[1].clone()];
        assert_eq!(selected.open(&mut p).to_rows().rows, expected);
        // Errors.
        for bad in [99, -1] {
            let sbad = share(&Relation::from_ints(&["idx"], &[vec![bad]]), &mut p);
            assert!(oblivious_select(&mut p, &sdata, &sbad, "idx").is_err());
        }
        assert!(oblivious_select(&mut p, &sdata, &sidx, "nope").is_err());
    }

    /// A building block run by name, so one generic body serves both
    /// engines of [`on_both_engines`].
    #[derive(Debug, Clone, Copy)]
    enum Block {
        /// `merge_sorted` of every input by `v`.
        Merge(bool),
        /// An ascending `sort_by` of the one input by `v`.
        Sort,
        /// `oblivious_select` of input 0's rows at input 1's `i`.
        Select,
    }

    impl Block {
        fn run<E: Engine>(
            self,
            eng: &mut E,
            parts: &[&Rel<E::Share>],
        ) -> EngineResult<E, Rel<E::Share>> {
            match self {
                Block::Merge(ascending) => merge_sorted(eng, parts, "v", ascending),
                Block::Sort => sort_by(eng, parts[0], "v", true),
                Block::Select => oblivious_select(eng, parts[0], parts[1], "i"),
            }
        }
    }

    /// Runs `block` over shares of `inputs` on the in-process `Protocol` and
    /// on every party of a three-party channel mesh, and requires them to
    /// open the same rows and to charge the same engine-independent counts
    /// (all but the circuit tallies and MAC checks only a mesh has). Returns
    /// the opened relation and the rounds the mesh took, its open included.
    fn on_both_engines(block: Block, inputs: &[Relation], seed: u64) -> (Relation, u64) {
        let independent = |c: PrimitiveCounts| PrimitiveCounts {
            bit_ands: 0,
            circuit_rounds: 0,
            mac_checks: 0,
            ..c
        };
        let mut p = Protocol::new(3, seed);
        let shared: Vec<SharedRelation> = inputs.iter().map(|r| share(r, &mut p)).collect();
        let before = p.counts();
        let out = block
            .run(&mut p, &shared.iter().collect::<Vec<_>>())
            .unwrap();
        let counts = independent(p.counts().since(&before));
        let expected = out.open(&mut p).to_rows();
        let parties = run_parties(3, seed, |ctx| {
            let mut shared = Vec::new();
            for (owner, rel) in (0..3).cycle().zip(inputs) {
                let data = (ctx.party() == owner).then_some(rel);
                shared.push(share_relation(
                    ctx,
                    owner,
                    data,
                    &rel.schema,
                    rel.num_rows(),
                )?);
            }
            let before = ctx.counts();
            let out = block.run(ctx, &shared.iter().collect::<Vec<_>>())?;
            let counts = independent(ctx.counts().since(&before));
            let opened = open_relation(ctx, &out)?;
            Ok((opened, counts, ctx.session().net().stats().rounds))
        });
        let rounds = parties[0].2;
        for (opened, mesh_counts, mesh_rounds) in parties {
            assert_eq!(opened.rows, expected.rows, "{block:?}: mesh vs Protocol");
            assert_eq!(mesh_counts, counts, "{block:?}: mesh vs Protocol counts");
            assert_eq!(mesh_rounds, rounds, "{block:?}: every party's rounds");
        }
        (expected, rounds)
    }

    /// One column `v` holding `vals`.
    fn column_v(vals: &[i64]) -> Relation {
        Relation::from_ints(&["v"], &vals.iter().map(|&v| vec![v]).collect::<Vec<_>>())
    }

    /// `merge_sorted` and `oblivious_select` on both engines against the
    /// cleartext reference: a sort of the concatenation for the merge, direct
    /// indexing for the select.
    #[test]
    fn merge_and_select_match_cleartext_on_both_engines() {
        for ascending in [true, false] {
            let mut runs = vec![
                column_v(&[-4, 1, 1, 6, 9]),
                column_v(&[0, 1, 7]),
                column_v(&[]),
                column_v(&[-9, 8]),
            ];
            if !ascending {
                for r in &mut runs {
                    r.rows.reverse();
                }
            }
            for (seed, parts) in [(4, &runs[..2]), (5, &runs[..]), (6, &runs[1..2])] {
                let (merged, _) = on_both_engines(Block::Merge(ascending), parts, seed);
                let cat = execute(&Operator::Concat, &parts.iter().collect::<Vec<_>>()).unwrap();
                let sort = Operator::SortBy {
                    column: "v".into(),
                    ascending,
                };
                assert_eq!(merged.rows, execute(&sort, &[&cat]).unwrap().rows);
            }
        }
        let data = Relation::from_ints(
            &["k", "a", "b"],
            &(0..7)
                .map(|i| vec![i % 3, i * 5 - 9, -i])
                .collect::<Vec<_>>(),
        );
        for (seed, picks) in [(7, vec![6, 0, 0, 3]), (8, vec![])] {
            let idx =
                Relation::from_ints(&["i"], &picks.iter().map(|&i| vec![i]).collect::<Vec<_>>());
            let (selected, _) = on_both_engines(Block::Select, &[data.clone(), idx], seed);
            let expected: Vec<_> = picks
                .iter()
                .map(|&i| data.rows[i as usize].clone())
                .collect();
            assert_eq!(selected.rows, expected);
        }
    }

    /// A mesh merges sorted runs with one merge network instead of
    /// re-sorting their concatenation. 16 rows: a (8, 8) odd-even merge is 25
    /// comparators in 4 layers, the Batcher sort 63 in 10. Every layer is one
    /// batch, an 8-round comparison plus a 1-round multiplexer, and the open
    /// adds 1 reveal and 2 MAC-check rounds.
    #[test]
    fn mesh_merge_takes_fewer_rounds_than_sort() {
        let evens = column_v(&(0..8).map(|i| 2 * i).collect::<Vec<_>>());
        let odds = column_v(&(0..8).map(|i| 2 * i + 1).collect::<Vec<_>>());
        let cat = execute(&Operator::Concat, &[&evens, &odds]).unwrap();
        let (merged, merge_rounds) = on_both_engines(Block::Merge(true), &[evens, odds], 21);
        let (sorted, sort_rounds) = on_both_engines(Block::Sort, &[cat], 21);
        assert_eq!(merged.rows, sorted.rows);
        assert!(merged.is_sorted_by("v", true));
        assert_eq!(merge_rounds, 4 * 9 + 3);
        assert_eq!(sort_rounds, 10 * 9 + 3);
    }

    /// A layer is one batch however wide it is: a (40, 40) merge (7 layers of
    /// up to 40 comparators) matches the cleartext sort of its rows on a
    /// channel mesh and pays 9 × layers + 3 rounds.
    #[test]
    fn mesh_merge_issues_one_batch_per_layer() {
        let run = |range: std::ops::Range<i64>| {
            let mut vals: Vec<i64> = range.map(|i| (i * 37) % 101 - 50).collect();
            vals.sort_unstable();
            let rows: Vec<Vec<i64>> = vals.iter().map(|&v| vec![v, -v]).collect();
            Relation::from_ints(&["v", "w"], &rows)
        };
        let runs = [run(0..40), run(40..80)];
        let (merged, rounds) = on_both_engines(Block::Merge(true), &runs, 31);
        let cat = execute(&Operator::Concat, &[&runs[0], &runs[1]]).unwrap();
        assert!(merged.same_rows_unordered(&cat));
        assert!(merged.is_sorted_by("v", true));
        assert_eq!(rounds, 9 * 7 + 3);
    }

    #[test]
    fn cartesian_join_matches_cleartext_join_and_costs_n_squared() {
        let mut p = Protocol::new(3, 5);
        let left =
            Relation::from_ints(&["ssn", "zip"], &[vec![1, 100], vec![2, 200], vec![3, 300]]);
        let right =
            Relation::from_ints(&["ssn", "score"], &[vec![2, 70], vec![3, 65], vec![3, 66]]);
        let (sl, sr) = (share(&left, &mut p), share(&right, &mut p));
        p.reset_counts();
        let keys = names(&["ssn"]);
        let joined = cartesian_join(&mut p, &sl, &sr, &keys, &keys).unwrap();
        assert_eq!(p.counts().equalities, 9, "3x3 Cartesian comparisons");
        assert_eq!(p.counts().opened_elems, 9, "every match flag is opened");
        let expected = execute(
            &Operator::Join {
                left_keys: keys.clone(),
                right_keys: keys.clone(),
            },
            &[&left, &right],
        )
        .unwrap();
        assert!(joined.open(&mut p).to_rows().same_rows_unordered(&expected));
        assert!(cartesian_join(&mut p, &sl, &sr, &names(&["zzz"]), &keys).is_err());
    }

    #[test]
    fn sorted_aggregation_matches_cleartext_grouped_and_scalar() {
        let mut p = Protocol::new(3, 6);
        let rel = Relation::from_ints(
            &["zip", "score"],
            &[
                vec![1, 700],
                vec![1, 650],
                vec![2, 600],
                vec![3, 720],
                vec![3, -680],
            ],
        );
        let shared = share(&rel, &mut p);
        for group_by in [names(&["zip"]), Vec::new()] {
            for (func, over) in [
                (AggFunc::Sum, Some("score")),
                (AggFunc::Count, None),
                (AggFunc::Min, Some("score")),
                (AggFunc::Max, Some("score")),
            ] {
                let agg = aggregate_sorted(&mut p, &shared, &group_by, func, over, "out").unwrap();
                let expected = execute(
                    &Operator::Aggregate {
                        group_by: group_by.clone(),
                        func,
                        over: over.map(str::to_string),
                        out: "out".into(),
                    },
                    &[&rel],
                )
                .unwrap();
                let back = agg.open(&mut p).to_rows();
                assert!(
                    back.same_rows_unordered(&expected),
                    "{func} by {group_by:?}:\n{back}\nvs\n{expected}"
                );
            }
        }
        // Missing or unknown over column.
        assert!(aggregate_sorted(&mut p, &shared, &[], AggFunc::Sum, None, "t").is_err());
        assert!(aggregate_sorted(&mut p, &shared, &[], AggFunc::Sum, Some("zzz"), "t").is_err());
    }

    #[test]
    fn lanes_share_one_scan_and_refuse_what_no_row_can_hold() {
        let mut p = Protocol::new(3, 24);
        let (sum, min, count) = (
            AggLane {
                func: AggFunc::Sum,
                over: Some("v"),
                out: "s",
            },
            AggLane {
                func: AggFunc::Min,
                over: Some("v"),
                out: "m",
            },
            AggLane {
                func: AggFunc::Count,
                over: None,
                out: "n",
            },
        );
        let rel = Relation::from_ints(&["k", "v"], &[vec![1, 4], vec![2, -3], vec![9, 7]]);
        let shared = share(&rel, &mut p);
        let scalar = aggregate_sorted_lanes(&mut p, &shared, &[], &[sum, min, count]).unwrap();
        let ints = |vs: &[i64]| vs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
        assert_eq!(scalar.open(&mut p).to_rows().rows, vec![ints(&[8, -3, 3])]);
        assert_eq!(
            lanes_read(&names(&["k"]), &[sum, min, count]),
            vec!["k", "v"]
        );

        let empty = SharedRelation::empty(Schema::ints(&["k", "v"]));
        let keys = names(&["k"]);
        assert!(aggregate_sorted_lanes(&mut p, &empty, &keys, &[]).is_err());
        // A scalar MIN over nothing is no row; a scalar SUM is one: they
        // cannot share a result.
        assert!(aggregate_sorted_lanes(&mut p, &empty, &[], &[sum, min]).is_err());
        let zeros = aggregate_sorted_lanes(&mut p, &empty, &[], &[sum, count]).unwrap();
        assert_eq!(zeros.open(&mut p).to_rows().rows, vec![ints(&[0, 0])]);
        let grouped = aggregate_sorted_lanes(&mut p, &empty, &keys, &[sum, min]).unwrap();
        assert_eq!(grouped.num_rows(), 0);
        assert_eq!(grouped.schema.names(), vec!["k", "s", "m"]);
    }

    #[test]
    fn empty_relations_flow_through_every_oblivious_operator() {
        let mut p = Protocol::new(3, 21);
        let empty = SharedRelation::empty(Schema::ints(&["k", "v"]));
        let keys = names(&["k"]);
        assert_eq!(shuffle(&mut p, &empty).num_rows(), 0);
        assert_eq!(sort_by(&mut p, &empty, "k", true).unwrap().num_rows(), 0);
        let merged = merge_sorted(&mut p, &[&empty, &empty], "k", true).unwrap();
        assert_eq!(merged.num_rows(), 0);
        let agg = aggregate_sorted(&mut p, &empty, &keys, AggFunc::Sum, Some("v"), "s").unwrap();
        assert_eq!(agg.num_rows(), 0);
        assert_eq!(agg.schema.names(), vec!["k", "s"]);
        // A scalar SUM over nothing is one zero, a scalar MIN no row at all.
        let sum = aggregate_sorted(&mut p, &empty, &[], AggFunc::Sum, Some("v"), "s").unwrap();
        assert_eq!(sum.open(&mut p).to_rows().rows, vec![vec![Value::Int(0)]]);
        let min = aggregate_sorted(&mut p, &empty, &[], AggFunc::Min, Some("v"), "s").unwrap();
        assert_eq!(min.num_rows(), 0);
        // Joining with an empty side yields no rows and no equality tests.
        let some = share(&Relation::from_ints(&["k", "v"], &[vec![1, 2]]), &mut p);
        p.reset_counts();
        let joined = cartesian_join(&mut p, &empty, &some, &keys, &keys).unwrap();
        assert_eq!(joined.num_rows(), 0);
        assert_eq!(p.counts().equalities, 0);
        // Selecting with an empty index relation selects nothing; selecting
        // from empty data is out of bounds.
        let empty_idx = SharedRelation::empty(Schema::ints(&["i"]));
        let selected = oblivious_select(&mut p, &some, &empty_idx, "i").unwrap();
        assert_eq!(selected.num_rows(), 0);
        let idx = share(&Relation::from_ints(&["i"], &[vec![0]]), &mut p);
        assert!(oblivious_select(&mut p, &empty, &idx, "i").is_err());
    }

    #[test]
    fn all_duplicate_join_keys_produce_the_full_cross_product_obliviously() {
        let mut p = Protocol::new(3, 22);
        let rows: Vec<Vec<i64>> = (0..4).map(|i| vec![7, i]).collect();
        let rel = Relation::from_ints(&["k", "v"], &rows);
        let (sl, sr) = (share(&rel, &mut p), share(&rel, &mut p));
        let keys = names(&["k"]);
        p.reset_counts();
        let joined = cartesian_join(&mut p, &sl, &sr, &keys, &keys).unwrap();
        assert_eq!(joined.num_rows(), 16, "4x4 all-match cross product");
        assert_eq!(p.counts().equalities, 16, "one equality test per pair");
        // And an all-duplicate sort/aggregate collapses to a single group.
        let sorted = sort_by(&mut p, &sl, "k", true).unwrap();
        let agg = aggregate_sorted(&mut p, &sorted, &keys, AggFunc::Sum, Some("v"), "s").unwrap();
        assert_eq!(
            agg.open(&mut p).to_rows().rows,
            vec![vec![Value::Int(7), Value::Int(6)]]
        );
    }

    /// A sort by the first column alone would leave `(2,5) (2,3) (2,5)` as
    /// it found them, and dropping adjacent duplicates would then keep both
    /// `(2,5)`s; the lexicographic sort makes every duplicate adjacent.
    #[test]
    fn multi_column_distinct_matches_cleartext() {
        let mut p = Protocol::new(3, 24);
        let rows = [
            [2, 5],
            [1, 9],
            [2, 3],
            [2, 5],
            [1, 3],
            [2, 3],
            [1, 9],
            [2, 5],
        ];
        let rel = Relation::from_ints(&["k", "a"], &rows.map(Vec::from));
        let shared = share(&rel, &mut p);
        for columns in [names(&["k", "a"]), names(&["a", "k"]), names(&["k"])] {
            let op = Operator::Distinct { columns };
            let out = execute_op(&mut p, &op, &[&shared], false).unwrap();
            let expected = execute(&op, &[&rel]).unwrap();
            assert!(out.open(&mut p).to_rows().same_rows_unordered(&expected));
        }
        let both = Operator::Distinct {
            columns: names(&["k", "a"]),
        };
        let out = execute_op(&mut p, &both, &[&shared], false).unwrap();
        assert_eq!(out.num_rows(), 4);
        let none = Operator::Distinct { columns: vec![] };
        assert!(execute_op(&mut p, &none, &[&shared], false).is_err());
    }

    /// Rows order by their first key, ties by the next, and so on, in both
    /// directions; rows equal in every key may land in either order.
    #[test]
    fn lexicographic_sort_matches_cleartext() {
        let mut p = Protocol::new(3, 25);
        let rows: Vec<Vec<i64>> = (0..37)
            .map(|i| vec![(i * 7) % 3, (i * 5) % 4 - 2, (i * 11) % 5, i])
            .collect();
        let rel = Relation::from_ints(&["a", "b", "c", "id"], &rows);
        let shared = share(&rel, &mut p);
        for keys in [vec![0], vec![0, 1], vec![1, 0, 2], vec![2, 1, 0, 3]] {
            for ascending in [true, false] {
                let back = sort_by_keys(&mut p, &shared, &keys, ascending)
                    .unwrap()
                    .open(&mut p)
                    .to_rows();
                assert!(back.same_rows_unordered(&rel));
                let key_of = |row: &Vec<Value>| -> Vec<i64> {
                    keys.iter().map(|&k| row[k].as_int().unwrap()).collect()
                };
                assert!(
                    back.rows.windows(2).all(|w| {
                        let order = key_of(&w[0]).cmp(&key_of(&w[1]));
                        order.is_eq() || order.is_lt() == ascending
                    }),
                    "keys {keys:?} ascending={ascending}:\n{back}"
                );
            }
        }
    }

    /// Per comparator, m keys cost m comparisons, m − 1 equalities and
    /// m − 1 multiplications on top of the multiplexers; one key costs
    /// exactly the comparison and the multiplexers.
    #[test]
    fn lexicographic_comparator_counts_scale_with_the_keys() {
        let mut p = Protocol::new(3, 26);
        let rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i % 3, i % 7, -i]).collect();
        let shared = share(&Relation::from_ints(&["a", "b", "c"], &rows), &mut p);
        let comparators = shape(&batcher_layers(40)).0 as u64;
        let muxes = 2 * 3 * comparators;
        for m in 1..=3u64 {
            p.reset_counts();
            let keys: Vec<usize> = (0..m as usize).collect();
            sort_by_keys(&mut p, &shared, &keys, true).unwrap();
            let c = p.counts();
            assert_eq!(
                (c.comparisons, c.equalities, c.mults),
                (
                    m * comparators,
                    (m - 1) * comparators,
                    muxes + (m - 1) * comparators
                ),
                "m={m}"
            );
        }
    }

    #[test]
    fn single_row_inputs_are_fixed_points_of_oblivious_operators() {
        let mut p = Protocol::new(3, 23);
        let rel = Relation::from_ints(&["k", "v"], &[vec![3, 4]]);
        let shared = share(&rel, &mut p);
        let keys = names(&["k"]);
        assert_eq!(
            shuffle(&mut p, &shared).open(&mut p).to_rows().rows,
            rel.rows
        );
        let sorted = sort_by(&mut p, &shared, "k", true).unwrap();
        assert_eq!(sorted.open(&mut p).to_rows().rows, rel.rows);
        let agg = aggregate_sorted(&mut p, &shared, &keys, AggFunc::Min, Some("v"), "m").unwrap();
        assert_eq!(agg.open(&mut p).to_rows().rows, rel.rows);
        let joined = cartesian_join(&mut p, &shared, &shared, &keys, &keys).unwrap();
        assert_eq!(joined.num_rows(), 1);
    }

    #[test]
    fn multiply_columns_matches_cleartext() {
        let mut p = Protocol::new(3, 10);
        let rel = Relation::from_ints(&["a", "b"], &[vec![2, 3], vec![-4, 5]]);
        let shared = share(&rel, &mut p);
        p.reset_counts();
        let operands = [Operand::col("a"), Operand::lit(3), Operand::col("b")];
        let out = multiply_columns(&mut p, &shared, "ab", &operands).unwrap();
        assert_eq!(p.counts().mults, 2, "literals are free");
        assert_eq!(
            out.open(&mut p).to_rows().column_values("ab").unwrap(),
            vec![Value::Int(18), Value::Int(-60)]
        );
        // Replacing an existing column; literal-only and empty products.
        let squared = multiply_columns(
            &mut p,
            &shared,
            "a",
            &[Operand::col("a"), Operand::col("a")],
        )
        .unwrap();
        assert_eq!(squared.num_cols(), 2);
        let lit = multiply_columns(&mut p, &shared, "c", &[Operand::lit(7)]).unwrap();
        assert_eq!(
            lit.open(&mut p).to_rows().column_values("c").unwrap(),
            vec![Value::Int(7); 2]
        );
        assert!(multiply_columns(&mut p, &shared, "x", &[Operand::col("zzz")]).is_err());
    }
}
