//! The oblivious sub-protocols on the in-process [`Protocol`] engine.
//!
//! The operator bodies live in [`crate::operators`], generic over
//! [`crate::engine::Engine`]; these are the same functions pinned to the
//! in-process engine, in the argument order (`&mut Protocol` last) the hybrid
//! protocols and the benchmark harness call them with.

use crate::engine::OpError;
use crate::operators;
use crate::protocol::Protocol;
use crate::relation::SharedRelation;
use conclave_ir::ops::AggFunc;

/// [`operators::shuffle`] on the in-process engine.
pub fn shuffle(rel: &SharedRelation, proto: &mut Protocol) -> SharedRelation {
    operators::shuffle(proto, rel)
}

/// [`operators::sort_by`] on the in-process engine.
pub fn sort_by(
    rel: &SharedRelation,
    column: &str,
    ascending: bool,
    proto: &mut Protocol,
) -> Result<SharedRelation, OpError> {
    operators::sort_by(proto, rel, column, ascending)
}

/// [`operators::oblivious_select`] on the in-process engine.
pub fn oblivious_select(
    data: &SharedRelation,
    indexes: &SharedRelation,
    index_column: &str,
    proto: &mut Protocol,
) -> Result<SharedRelation, OpError> {
    operators::oblivious_select(proto, data, indexes, index_column)
}

/// [`operators::aggregate_sorted`] on the in-process engine.
pub fn aggregate_sorted(
    rel: &SharedRelation,
    group_by: &[String],
    func: AggFunc,
    over: Option<&str>,
    out: &str,
    proto: &mut Protocol,
) -> Result<SharedRelation, OpError> {
    operators::aggregate_sorted(proto, rel, group_by, func, over, out)
}
