//! The oblivious relational operators, written once over [`Engine`].
//!
//! These are the building blocks §5.3–§5.4 of the paper reason about:
//! oblivious shuffles, Batcher sorting networks, odd-even merges, Laud-style
//! oblivious indexing (`select`), Cartesian-product joins, the sorting-based
//! aggregation of Jónsson et al., filters and column arithmetic — plus
//! [`execute_op`], the one dispatcher from an IR [`Operator`] to them. Every
//! body is generic: the in-process [`crate::protocol::Protocol`] and the
//! per-party [`crate::runtime::StepCtx`] run the same code, so they charge
//! the same primitive counts, open the same values and leak the same sizes.
//!
//! Non-linear work is issued in batches (one `eq_batch_groups` for all key
//! columns of a join or aggregation, one `mul_batch` per extra factor of a
//! multiply, one `lt_batch` + one `mux_batch` per batch of ≤ `LAYER_CHUNK`
//! disjoint comparators of a sorting-network layer), so an engine that
//! communicates pays rounds per *batch* — except in the grouped aggregate's
//! scan, which is still one row per batch (ROADMAP item 1, Stage C).

use crate::cost::PrimitiveCounts;
use crate::engine::{Engine, EngineResult, OpError};
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
    rel.permute(&perm)
}

/// A compare-exchange between two row positions: afterwards the key at the
/// first precedes the key at the second in the requested order.
type Comparator = (usize, usize);

/// One depth level of a comparator network: comparators over pairwise
/// distinct positions, so they commute and can share their round trips.
type Layer = Vec<Comparator>;

/// How many comparators of a layer share one `lt_batch` + `mux_batch`.
///
/// Staging debt of ROADMAP item 1, not a tuning knob: a whole layer is one
/// vector operation (Stage B), and this constant exists only so that the step
/// from one comparator per batch lands in a size the benchmark gate can
/// resolve. Stage B deletes it and issues `layer` where Stage A issues
/// `layer.chunks(LAYER_CHUNK)`.
const LAYER_CHUNK: usize = 3;

/// Oblivious compare-exchanges of pairwise-disjoint comparators, across all
/// columns and in place: one comparison batch over the key pairs, then one
/// multiplexer batch over every (comparator × column × 2) selector.
fn compare_exchange<E: Engine>(
    eng: &mut E,
    rows: &mut [Vec<E::Share>],
    batch: &[Comparator],
    key: usize,
    ascending: bool,
) -> EngineResult<E, ()> {
    // swap = 1 iff the pair is out of order.
    let keys: Vec<_> = batch
        .iter()
        .map(|&(i, j)| {
            let (lt, than) = if ascending { (j, i) } else { (i, j) };
            (rows[lt][key], rows[than][key])
        })
        .collect();
    let swaps = eng.lt_batch(&keys)?;
    let selectors: Vec<_> = batch
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
    for &(i, j) in batch {
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
    let mut rows = rel.rows.clone();
    for layer in batcher_layers(rows.len()) {
        for batch in layer.chunks(LAYER_CHUNK) {
            compare_exchange(eng, &mut rows, batch, key, ascending)?;
        }
    }
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
    for layer in layers {
        for batch in layer.chunks(LAYER_CHUNK) {
            compare_exchange(eng, &mut rows, batch, key, ascending)?;
        }
    }
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

/// Opens the trailing 0/1 flag column of `flagged` and keeps the flagged
/// rows (without the flag) under `schema` — revealing only the output size.
fn keep_flagged<E: Engine>(
    eng: &mut E,
    flagged: Rel<E::Share>,
    schema: Schema,
) -> EngineResult<E, Rel<E::Share>> {
    let flag_col = flagged.num_cols() - 1;
    let opened = eng.open_column(&flagged.column(flag_col))?;
    let rows = flagged
        .rows
        .into_iter()
        .zip(opened)
        .filter(|(_, flag)| *flag == 1)
        .map(|(mut row, _)| {
            row.truncate(flag_col);
            row
        })
        .collect();
    Ok(Rel { schema, rows })
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

/// Sorting-based oblivious aggregation (Jónsson et al.), as used by the
/// paper's prototype: the input must already be sorted (or grouped) by the
/// group-by column; the scan accumulates each group into its last row and the
/// non-final rows are discarded after a shuffle-and-reveal of the
/// group-boundary flags.
pub fn aggregate_sorted<E: Engine>(
    eng: &mut E,
    rel: &Rel<E::Share>,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
) -> EngineResult<E, Rel<E::Share>> {
    let key_cols = rel.require_all(group_by)?;
    let over_col = over.map(|o| rel.require(o)).transpose()?;
    if func.needs_over() && over_col.is_none() {
        return Err(OpError::Invalid(format!("{func} requires an over column")).into());
    }
    let schema = aggregate_schema(&rel.schema, group_by, func, over, out)
        .map_err(|e| OpError::Invalid(e.to_string()))?;
    let n = rel.num_rows();
    if n == 0 {
        // Like the cleartext engines, a scalar SUM/COUNT over nothing is one
        // row holding the additive identity. (MIN/MAX would be NULL, which no
        // share can represent: they yield no row.)
        let identity = key_cols.is_empty() && matches!(func, AggFunc::Sum | AggFunc::Count);
        let rows = Vec::from_iter(identity.then(|| vec![eng.constant(0)]));
        return Ok(Rel { schema, rows });
    }
    // A row's own contribution, and the running aggregate after taking it in.
    let init = |eng: &E, row: &[E::Share]| match func {
        AggFunc::Count => eng.constant(1),
        _ => row[over_col.expect("checked above")],
    };
    let combine = |eng: &mut E, acc: E::Share, current: E::Share| -> EngineResult<E, _> {
        match func {
            AggFunc::Count | AggFunc::Sum => Ok(eng.add(acc, current)),
            AggFunc::Min | AggFunc::Max => {
                let pair = if func == AggFunc::Min {
                    (acc, current)
                } else {
                    (current, acc)
                };
                let keep_acc = only(eng.lt_batch(&[pair])?);
                eng.mux_batch(&[(keep_acc, acc, current)]).map(only)
            }
        }
    };

    // Scalar aggregation: a linear scan of local additions (SUM/COUNT) or
    // oblivious min/max selection.
    if key_cols.is_empty() {
        let value = if func == AggFunc::Count {
            eng.constant(n as i64)
        } else {
            let mut acc = init(eng, &rel.rows[0]);
            for row in &rel.rows[1..] {
                let current = init(eng, row);
                acc = combine(eng, acc, current)?;
            }
            acc
        };
        return Ok(Rel {
            schema,
            rows: vec![vec![value]],
        });
    }

    // same_group[i-1] = 1 iff row i belongs to the group of row i-1.
    let groups: Vec<Vec<_>> = key_cols
        .iter()
        .map(|&k| rel.rows.windows(2).map(|w| (w[1][k], w[0][k])).collect())
        .collect();
    let same_group = all_equal(eng, &groups)?;

    // Candidate output rows: group keys + running aggregate + a flag that is
    // 1 on the last row of each group (the final row always is).
    let one = eng.constant(1);
    let mut acc = init(eng, &rel.rows[0]);
    let mut candidates = Vec::with_capacity(n);
    for i in 0..n {
        let mut row: Vec<E::Share> = key_cols.iter().map(|&k| rel.rows[i][k]).collect();
        row.push(acc);
        match same_group.get(i) {
            Some(&same) => {
                row.push(eng.sub(one, same));
                // If the next row continues the group, carry the combined
                // aggregate into it; otherwise it restarts.
                let current = init(eng, &rel.rows[i + 1]);
                let combined = combine(eng, acc, current)?;
                acc = only(eng.mux_batch(&[(same, combined, current)])?);
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
    let shuffled = shuffle(eng, &flagged);
    keep_flagged(eng, shuffled, schema)
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
                let l = eval_operand(eng, rel, left)?;
                let r = eval_operand(eng, rel, right)?;
                let pairs: Vec<_> = match op {
                    BinOp::Gt | BinOp::Le => r.into_iter().zip(l).collect(),
                    _ => l.into_iter().zip(r).collect(),
                };
                let raw = match op {
                    BinOp::Eq | BinOp::Ne => only(eng.eq_batch_groups(&[pairs])?),
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

/// One comparison operand per row: a column's shares or a literal constant.
fn eval_operand<E: Engine>(
    eng: &E,
    rel: &Rel<E::Share>,
    expr: &Expr,
) -> Result<Vec<E::Share>, OpError> {
    match expr {
        Expr::Col(name) => {
            let idx = rel.require(name)?;
            Ok(rel.column(idx))
        }
        Expr::Const(v) => Ok(vec![eng.constant(literal(v)?); rel.num_rows()]),
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
    let shuffled = shuffle(eng, &flagged);
    keep_flagged(eng, shuffled, rel.schema.clone())
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
/// already sorted by its key (the §5.4 sort-elimination pay-off).
pub fn execute_op<E: Engine>(
    eng: &mut E,
    op: &Operator,
    inputs: &[&Rel<E::Share>],
    presorted: bool,
) -> EngineResult<E, Rel<E::Share>> {
    let arity = match op {
        Operator::Join { .. } | Operator::ObliviousSelect { .. } => 2,
        // Variadic, or rejected below whatever it is given.
        Operator::Concat
        | Operator::Merge { .. }
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
            let input = match group_by.as_slice() {
                [] => inputs[0],
                [_] if presorted => inputs[0],
                [key] => {
                    sorted = sort_by(eng, inputs[0], key, true)?;
                    &sorted
                }
                _ => {
                    return Err(
                        OpError::Unsupported("multi-column group-by under MPC".into()).into(),
                    )
                }
            };
            aggregate_sorted(eng, input, group_by, *func, over.as_deref(), out)
        }
        Operator::Multiply { out, operands } => multiply_columns(eng, inputs[0], out, operands),
        Operator::SortBy { column, ascending } => sort_by(eng, inputs[0], column, *ascending),
        Operator::Merge { column, ascending } => merge_sorted(eng, inputs, column, *ascending),
        Operator::Limit { n } => {
            let mut rel = inputs[0].clone();
            rel.rows.truncate(*n);
            Ok(rel)
        }
        Operator::Shuffle => Ok(shuffle(eng, inputs[0])),
        Operator::Enumerate { out } => {
            let mut rel = inputs[0].clone();
            rel.schema = with_int_column(&rel.schema, out)?;
            for (i, row) in rel.rows.iter_mut().enumerate() {
                row.push(eng.constant(i as i64));
            }
            Ok(rel)
        }
        Operator::ObliviousSelect { index_column } => {
            oblivious_select(eng, inputs[0], inputs[1], index_column)
        }
        Operator::Distinct { columns } => {
            // Sorting by one key only makes rows equal in *that* key
            // adjacent, so `distinct_sorted` would keep duplicates.
            let key = match columns.as_slice() {
                [key] => key,
                [] => return Err(OpError::Invalid("distinct needs columns".into()).into()),
                _ => {
                    return Err(
                        OpError::Unsupported("multi-column distinct under MPC".into()).into(),
                    )
                }
            };
            let sorted = sort_by(eng, &inputs[0].project(columns)?, key, true)?;
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
        Operator::RevealTo { .. }
        | Operator::Open { .. }
        | Operator::CloseTo
        | Operator::Collect { .. } => Ok(inputs[0].clone()),
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
    use conclave_engine::{execute, Relation};
    use conclave_ir::ops::JoinKind;

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
        assert!(shuffled.reconstruct(&mut p).same_rows_unordered(&rel));
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

    /// (comparators, layers, round-trip batches at the current `LAYER_CHUNK`).
    fn shape(layers: &[Layer]) -> (usize, usize, usize) {
        (
            layers.iter().map(Vec::len).sum(),
            layers.len(),
            layers.iter().map(|l| l.len().div_ceil(LAYER_CHUNK)).sum(),
        )
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

    /// The network is the one-comparator-per-batch network of before, cut
    /// into layers: comparator and layer counts are pinned, and so is the
    /// number of batches (10 rounds each on a mesh) as a function of
    /// `LAYER_CHUNK`. Stage B's batch count is the layer count.
    #[test]
    fn network_shapes_are_pinned() {
        let sort = |n| shape(&batcher_layers(n));
        assert_eq!(sort(16), (63, 10, 25));
        assert_eq!(sort(120), (1372, 28, 466));
        assert_eq!(sort(128), (1471, 28, 499));
        assert_eq!(sort(1000), (23521, 55, 7862));
        let merge = |m: usize, n: usize| {
            let layers = merge_layers((0..m).collect(), (m..m + n).collect()).1;
            assert_disjoint(&layers, m + n, &format!("m={m} n={n}"));
            shape(&layers)
        };
        assert_eq!(merge(8, 8), (25, 4, 10));
        assert_eq!(merge(50, 70), (373, 8, 127));
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
            .reconstruct(&mut p);
        assert!(back.is_sorted_by("k", true));
        assert!(back.same_rows_unordered(&rel));
        assert!(p.counts().comparisons > 0);
        let desc = sort_by(&mut p, &shared, "k", false).unwrap();
        assert!(desc.reconstruct(&mut p).is_sorted_by("k", false));
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
            let back = merged.reconstruct(&mut p);
            assert!(back.is_sorted_by("k", true));
            let cat = SharedRelation::concat(&parts).unwrap();
            assert!(back.same_rows_unordered(&cat.reconstruct(&mut p)));
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
        assert!(merged.reconstruct(&mut p).is_sorted_by("k", false));
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
        let expected = execute(
            &Operator::ObliviousSelect {
                index_column: "idx".into(),
            },
            &[&data, &idx],
        )
        .unwrap();
        assert_eq!(selected.reconstruct(&mut p).rows, expected.rows);
        // Errors.
        for bad in [99, -1] {
            let sbad = share(&Relation::from_ints(&["idx"], &[vec![bad]]), &mut p);
            assert!(oblivious_select(&mut p, &sdata, &sbad, "idx").is_err());
        }
        assert!(oblivious_select(&mut p, &sdata, &sidx, "nope").is_err());
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
                kind: JoinKind::Inner,
            },
            &[&left, &right],
        )
        .unwrap();
        assert!(joined.reconstruct(&mut p).same_rows_unordered(&expected));
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
                let back = agg.reconstruct(&mut p);
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
        assert_eq!(sum.reconstruct(&mut p).rows, vec![vec![Value::Int(0)]]);
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
            agg.reconstruct(&mut p).rows,
            vec![vec![Value::Int(7), Value::Int(6)]]
        );
    }

    /// A sort by the first column leaves `(2,5) (2,3) (2,5)` as it found
    /// them, and dropping adjacent duplicates then keeps both `(2,5)`s: the
    /// dispatcher refuses rather than answer wrong.
    #[test]
    fn multi_column_distinct_is_refused_and_single_column_distinct_is_right() {
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
        let both = Operator::Distinct {
            columns: names(&["k", "a"]),
        };
        assert_eq!(
            execute_op(&mut p, &both, &[&shared], false).unwrap_err(),
            OpError::Unsupported("multi-column distinct under MPC".into())
        );
        let one = Operator::Distinct {
            columns: names(&["k"]),
        };
        let out = execute_op(&mut p, &one, &[&shared], false).unwrap();
        let expected = execute(&one, &[&rel]).unwrap();
        assert!(out.reconstruct(&mut p).same_rows_unordered(&expected));
    }

    #[test]
    fn single_row_inputs_are_fixed_points_of_oblivious_operators() {
        let mut p = Protocol::new(3, 23);
        let rel = Relation::from_ints(&["k", "v"], &[vec![3, 4]]);
        let shared = share(&rel, &mut p);
        let keys = names(&["k"]);
        assert_eq!(shuffle(&mut p, &shared).reconstruct(&mut p).rows, rel.rows);
        let sorted = sort_by(&mut p, &shared, "k", true).unwrap();
        assert_eq!(sorted.reconstruct(&mut p).rows, rel.rows);
        let agg = aggregate_sorted(&mut p, &shared, &keys, AggFunc::Min, Some("v"), "m").unwrap();
        assert_eq!(agg.reconstruct(&mut p).rows, rel.rows);
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
            out.reconstruct(&mut p).column_values("ab").unwrap(),
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
            lit.reconstruct(&mut p).column_values("c").unwrap(),
            vec![Value::Int(7); 2]
        );
        assert!(multiply_columns(&mut p, &shared, "x", &[Operand::col("zzz")]).is_err());
    }
}
