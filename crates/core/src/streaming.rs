//! Extent-at-a-time execution over cold (unhydrated) tables.
//!
//! A table recovered through the buffer pool keeps its main store on disk
//! as checkpoint extents. Hydrating it wholesale would defeat the pool —
//! a table 4× the budget would fault everything in just to answer one
//! scan. Instead, for the plan shapes whose output is a row-local function
//! of the input partitioning (scans, selections, projections, and global
//! aggregates with mergeable accumulators), this module runs the *chosen
//! engine unchanged* over one extent at a time:
//!
//! * each extent materializes as a self-contained mini table with the
//!   delta's tombstone slice overlaid (no tail), holding its pool frames
//!   pinned only while the engine is on it;
//! * zone-refuted extents are skipped without faulting a byte — for
//!   *every* engine, since refutation proves no main row of the extent
//!   can pass the scan's predicate;
//! * the live delta tail runs as one final partial over a zero-row
//!   skeleton table carrying the full tail overlay — exactly the
//!   main-order-then-tail sequence a resident scan produces;
//! * row outputs concatenate; aggregate outputs merge with the same
//!   null-skipping, first-wins semantics as `Accumulator::merge`.
//!
//! Byte-identity with the resident path is the contract (the pooled twin
//! proptest in `tests/pool` enforces it), which is why float sums and
//! averages are *not* streamed: merging their finalized partials would
//! reassociate floating-point addition. Those shapes — like joins, sorts,
//! grouped aggregates and limits — fall back to hydration.

use crate::database::{Database, DbError};
use pdsm_exec::engine::{Engine, Overlay, TableProvider};
use pdsm_exec::{zone_preds, QueryResult};
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
use pdsm_storage::types::cmp_values;
use pdsm_storage::{DataType, Row, Table, Value, ZonePred};
use pdsm_txn::ColdScan;

/// One extent (or the tail) presented to an engine as a whole table.
struct ExtentProvider<'a> {
    name: &'a str,
    table: &'a Table,
    dead: &'a [bool],
    tail: &'a [Row],
    tail_alive: &'a [bool],
}

impl TableProvider for ExtentProvider<'_> {
    fn table(&self, name: &str) -> Option<&Table> {
        (name == self.name).then_some(self.table)
    }

    fn overlay(&self, name: &str) -> Option<Overlay<'_>> {
        if name != self.name || (self.dead.is_empty() && self.tail.is_empty()) {
            return None;
        }
        Some(Overlay {
            dead: self.dead,
            tail: self.tail,
            tail_alive: self.tail_alive,
        })
    }
}

/// The streamable plan shape `[Aggregate(no group)] [Project] [Select]
/// Scan`, decomposed: the global aggregates (if the root is one) and the
/// predicate sitting directly over the scan (for zone refutation).
fn stream_shape(plan: &LogicalPlan) -> Option<(Option<&[AggExpr]>, Option<&Expr>)> {
    let (aggs, inner) = match plan {
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } if group_by.is_empty() => (Some(aggs.as_slice()), input.as_ref()),
        other => (None, other),
    };
    let inner = match inner {
        LogicalPlan::Project { input, .. } => input.as_ref(),
        other => other,
    };
    let (pred, inner) = match inner {
        LogicalPlan::Select { input, pred, .. } => (Some(pred), input.as_ref()),
        other => (None, other),
    };
    matches!(inner, LogicalPlan::Scan { .. }).then_some((aggs, pred))
}

/// Can these global aggregates be rebuilt from per-extent *finalized*
/// outputs without changing a byte? Count always (`Int64` addition);
/// min/max always (picking one of the partial values never retypes it);
/// sum only over an integer column (no float reassociation); avg never
/// (its division does not distribute over the partitioning).
fn aggs_mergeable(aggs: &[AggExpr], schema: &pdsm_storage::Schema) -> bool {
    aggs.iter().all(|a| match a.func {
        AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        AggFunc::Avg => false,
        AggFunc::Sum => match &a.arg {
            Some(Expr::Col(c)) => matches!(
                schema.columns().get(*c).map(|col| col.ty),
                Some(DataType::Int32 | DataType::Int64)
            ),
            _ => false,
        },
    })
}

/// Fold one partial's finalized aggregate row into the running one, with
/// exactly `Accumulator::merge`'s semantics over finished values: counts
/// add, int sums null-skip and add, extremes replace only on a *strict*
/// win (so earlier extents keep ties, as the sequential fold does).
fn merge_agg_row(acc: &mut [Value], next: &[Value], aggs: &[AggExpr]) {
    for (i, a) in aggs.iter().enumerate() {
        acc[i] = match a.func {
            AggFunc::Count => {
                Value::Int64(acc[i].as_i64().unwrap_or(0) + next[i].as_i64().unwrap_or(0))
            }
            AggFunc::Sum => match (acc[i].is_null(), next[i].is_null()) {
                (true, _) => next[i].clone(),
                (_, true) => acc[i].clone(),
                _ => Value::Int64(
                    acc[i].as_i64().expect("int sum") + next[i].as_i64().expect("int sum"),
                ),
            },
            AggFunc::Min | AggFunc::Max => {
                let replace = match (&acc[i], &next[i]) {
                    (_, Value::Null) => false,
                    (Value::Null, _) => true,
                    (ours, theirs) => {
                        if a.func == AggFunc::Min {
                            cmp_values(theirs, ours).is_lt()
                        } else {
                            cmp_values(theirs, ours).is_gt()
                        }
                    }
                };
                if replace {
                    next[i].clone()
                } else {
                    acc[i].clone()
                }
            }
            AggFunc::Avg => unreachable!("avg is never streamed"),
        };
    }
}

/// Run `plan` extent-at-a-time over its (single, cold) table, or return
/// `Ok(None)` when the plan is multi-table, the table is resident, or the
/// shape/aggregates are not streamable — the caller then takes the
/// ordinary (hydrating) snapshot path.
pub(crate) fn run_cold_streaming(
    db: &Database,
    plan: &LogicalPlan,
    eng: &dyn Engine,
) -> Result<Option<QueryResult>, DbError> {
    let tables = plan.tables();
    let [table] = tables.as_slice() else {
        return Ok(None);
    };
    let Some((aggs, pred)) = stream_shape(plan) else {
        return Ok(None);
    };
    let Some(scan) = db.with_table(table, |vt| vt.cold_scan())? else {
        return Ok(None);
    };
    let ColdScan { cold, overlay, .. } = &scan;
    if let Some(aggs) = aggs {
        if !aggs_mergeable(aggs, &cold.header().schema) {
            return Ok(None);
        }
    }
    let skeleton = cold.skeleton();
    let zps: Vec<ZonePred> = pred
        .map(|p| zone_preds(&skeleton, std::slice::from_ref(p)))
        .unwrap_or_default();
    let dead: &[bool] = overlay.as_ref().map(|o| o.dead.as_slice()).unwrap_or(&[]);

    let mut agg_row: Option<Vec<Value>> = None;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for e in 0..cold.n_extents() {
        if !zps.is_empty() && cold.extent_refuted(e, &zps) {
            // No main row of this extent can pass the predicate, and
            // tombstones only remove rows — skipping is sound for every
            // engine and every streamable shape.
            cold.pool().note_skipped_fault();
            continue;
        }
        let (lo, hi) = cold.header().extent_row_range(e);
        let (mini, _pins) = cold.extent_table(e)?;
        let dslice = &dead[lo.min(dead.len())..hi.min(dead.len())];
        let provider = ExtentProvider {
            name: table,
            table: &mini,
            dead: dslice,
            tail: &[],
            tail_alive: &[],
        };
        let out = eng.execute(plan, &provider)?;
        match (aggs, &mut agg_row) {
            (Some(_), None) => agg_row = Some(out.rows.into_iter().next().expect("agg row")),
            (Some(aggs), Some(acc)) => merge_agg_row(acc, &out.rows[0], aggs),
            (None, _) => rows.extend(out.rows),
        }
        // _pins drop here: the next extent may evict this one.
    }

    // The delta tail, last — a zero-row main table carrying the full tail
    // overlay reproduces the resident scan's main-order-then-tail output.
    // This partial always runs, so even a zero-extent (empty or fully
    // pruned) scan yields a genuine engine output to return or seed from.
    let (tail, tail_alive) = overlay
        .as_ref()
        .map(|o| (o.tail.as_slice(), o.tail_alive.as_slice()))
        .unwrap_or((&[], &[]));
    let provider = ExtentProvider {
        name: table,
        table: &skeleton,
        dead: &[],
        tail,
        tail_alive,
    };
    let out = eng.execute(plan, &provider)?;
    let output = match (aggs, agg_row) {
        (Some(aggs), Some(mut acc)) => {
            merge_agg_row(&mut acc, &out.rows[0], aggs);
            pdsm_exec::QueryOutput { rows: vec![acc] }
        }
        _ => {
            // Row shape, or an aggregate with no extent partials: the
            // tail partial already is the whole answer for the aggregate;
            // for rows, append it after the main-order outputs.
            rows.extend(out.rows);
            pdsm_exec::QueryOutput { rows }
        }
    };
    Ok(Some(QueryResult::new(db.names_for(plan), output)))
}
