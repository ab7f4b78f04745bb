//! The compiled engine: data-centric fused pipelines (§III-B, Fig. 2c).
//!
//! HyPer JiT-compiles each query with LLVM; the property that matters for
//! the paper's argument is what the *generated loops look like*: all
//! operators of a pipeline fused into one loop, predicates evaluated on
//! typed in-place data, values staying in registers, and **no per-tuple
//! indirect calls**. This engine reproduces those loops ahead of time:
//!
//! * a query is "compiled" once: predicates lower to typed
//!   [`PredKernel`]s bound directly to partition readers (string predicates
//!   become dictionary-code tests via a one-pass dictionary prescan),
//! * each pipeline runs as a single loop over its scan; survivors flow
//!   through join probes and projections into a sink (aggregation state,
//!   join hash table, or the result buffer),
//! * the hottest shape — scan → conjunctive filter → scalar aggregation,
//!   the paper's Fig. 2c — runs a fully typed loop with no row
//!   materialization at all.
//!
//! Enum-match dispatch inside the loop compiles to direct, predictable
//! branches (the same target every iteration), which is the microarchitectural
//! property the paper contrasts against Volcano's function pointers.
//!
//! ## Threads
//!
//! Morsel-driven parallelism (Leis et al., SIGMOD 2014) schedules these
//! pipelines; it does not replace them. Every scan pipeline runs its fused
//! loop over a row range, and one driver ([`crate::pool::drive`]) runs that
//! loop over `0..n` on the caller's thread or over whole-zone-block
//! morsels on [`CompiledEngine::with_threads`] scoped workers. Collected
//! rows are stitched back in morsel order, so output order never depends
//! on the thread count. An aggregation pipeline is split across workers
//! only when every aggregate merges exactly ([`float_sensitive`] is false
//! for all of them); partials then merge through [`Accumulator::merge`]
//! or the raw-key map. Any other aggregation runs on one thread. Every
//! output bit is therefore identical at any thread count, and one thread
//! is the sequential engine by construction.

use crate::engine::{
    agg_tail_update, fig2c_tail_fold, masked_tail_row, tail_defeats_raw_keys, tail_raw_key,
    tail_row_passes, Accumulator, Engine, ExecError, Overlay, TableProvider,
};
use crate::keys::GroupKey;
use crate::morsel::rows_per_morsel;
use crate::pool::drive;
use crate::result::QueryOutput;
use crate::simd;
use pdsm_plan::expr::{CmpOp, Expr};
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
use pdsm_storage::dictionary::like_match;
use pdsm_storage::partition::{F64Col, I32Col, I64Col, U32Col};
use pdsm_storage::types::cmp_values;
use pdsm_storage::{
    ColId, DataType, Schema, Table, Value, ZoneMap, ZoneOp, ZonePred, ZONE_BLOCK_ROWS,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The compiled engine, running each scan pipeline on up to `threads`
/// workers (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct CompiledEngine {
    threads: usize,
}

impl CompiledEngine {
    /// The single-threaded engine.
    pub const fn new() -> Self {
        CompiledEngine { threads: 1 }
    }

    /// The engine with up to `threads` workers per pipeline (0 counts as 1).
    pub const fn with_threads(threads: usize) -> Self {
        CompiledEngine {
            threads: if threads == 0 { 1 } else { threads },
        }
    }

    /// Workers per pipeline.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for CompiledEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine for CompiledEngine {
    fn name(&self) -> &'static str {
        "compiled"
    }

    fn execute(
        &self,
        plan: &LogicalPlan,
        db: &dyn TableProvider,
    ) -> Result<QueryOutput, ExecError> {
        let width = |t: &str| db.table(t).map(|tb| tb.schema().len()).unwrap_or(0);
        let required = plan.required_columns(&width);
        let rows = exec(plan, db, &required, self.threads)?;
        Ok(QueryOutput { rows })
    }
}

// ---------------------------------------------------------------------------
// predicate kernels
// ---------------------------------------------------------------------------

/// A typed, pre-bound predicate over one scan. `test(row)` is an inlined
/// match with direct loads — the compiled counterpart of Fig. 2c line 6.
pub enum PredKernel<'t> {
    I32Cmp {
        r: I32Col<'t>,
        op: CmpOp,
        v: i64,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    I64Cmp {
        r: I64Col<'t>,
        op: CmpOp,
        v: i64,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    F64Cmp {
        r: F64Col<'t>,
        op: CmpOp,
        v: f64,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    CodeEq {
        r: U32Col<'t>,
        code: u32,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    /// Dictionary-code membership (LIKE and other string predicates).
    CodeIn {
        r: U32Col<'t>,
        hits: Vec<bool>,
        null_col: Option<ColId>,
        t: &'t Table,
    },
    /// Matches nothing (e.g. equality with a string absent from the dict).
    Never,
    /// `IS [NOT] NULL`.
    Null {
        col: ColId,
        negate: bool,
        t: &'t Table,
    },
    /// Short-circuit disjunction of two kernels (e.g. Q1's two LIKEs).
    Or(Box<PredKernel<'t>>, Box<PredKernel<'t>>),
    /// Short-circuit conjunction (inside an Or branch).
    And(Box<PredKernel<'t>>, Box<PredKernel<'t>>),
    /// Negation of a kernel.
    Not(Box<PredKernel<'t>>),
    /// Interpreter fallback for predicates outside the kernel vocabulary
    /// (disjunctions, cross-column compares). Reads only its columns.
    Interp {
        expr: Expr,
        cols: Vec<ColId>,
        width: usize,
        t: &'t Table,
    },
}

impl PredKernel<'_> {
    #[inline(always)]
    pub fn test(&self, i: usize) -> bool {
        match self {
            PredKernel::I32Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                op.matches((r.get(i) as i64).cmp(v))
            }
            PredKernel::I64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                op.matches(r.get(i).cmp(v))
            }
            PredKernel::F64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                r.get(i)
                    .partial_cmp(v)
                    .map(|o| op.matches(o))
                    .unwrap_or(false)
            }
            PredKernel::CodeEq {
                r,
                code,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                r.get(i) == *code
            }
            PredKernel::CodeIn {
                r,
                hits,
                null_col,
                t,
            } => {
                if let Some(c) = null_col {
                    if !t.is_valid(i, *c) {
                        return false;
                    }
                }
                hits[r.get(i) as usize]
            }
            PredKernel::Never => false,
            PredKernel::Null { col, negate, t } => t.is_valid(i, *col) == *negate,
            PredKernel::Or(a, b) => a.test(i) || b.test(i),
            PredKernel::And(a, b) => a.test(i) && b.test(i),
            PredKernel::Not(a) => !a.test(i),
            PredKernel::Interp {
                expr,
                cols,
                width,
                t,
            } => {
                let mut row = vec![Value::Null; *width];
                for &c in cols {
                    row[c] = t.get(i, c).expect("in-range");
                }
                expr.eval_bool(&row[..])
            }
        }
    }
}

/// Lower one conjunct to a kernel.
pub fn compile_pred<'t>(t: &'t Table, e: &Expr) -> PredKernel<'t> {
    let null_of = |c: ColId| t.schema().columns()[c].nullable.then_some(c);
    if let Expr::Cmp { op, left, right } = e {
        let sides = match (left.as_ref(), right.as_ref()) {
            (Expr::Col(c), Expr::Lit(v)) => Some((*c, *op, v)),
            (Expr::Lit(v), Expr::Col(c)) => {
                let flip = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    o => *o,
                };
                Some((*c, flip, v))
            }
            _ => None,
        };
        if let Some((c, op, lit)) = sides {
            match t.schema().columns()[c].ty {
                DataType::Int32 => {
                    if let Some(v) = lit.as_i64() {
                        return PredKernel::I32Cmp {
                            r: t.i32_reader(c),
                            op,
                            v,
                            null_col: null_of(c),
                            t,
                        };
                    }
                }
                DataType::Int64 => {
                    if let Some(v) = lit.as_i64() {
                        return PredKernel::I64Cmp {
                            r: t.i64_reader(c),
                            op,
                            v,
                            null_col: null_of(c),
                            t,
                        };
                    }
                }
                DataType::Float64 => {
                    if let Some(v) = lit.as_f64() {
                        return PredKernel::F64Cmp {
                            r: t.f64_reader(c),
                            op,
                            v,
                            null_col: null_of(c),
                            t,
                        };
                    }
                }
                DataType::Str => {
                    if let (CmpOp::Eq, Some(s)) = (op, lit.as_str()) {
                        return match t.dict(c).and_then(|d| d.code_of(s)) {
                            Some(code) => PredKernel::CodeEq {
                                r: t.str_code_reader(c),
                                code,
                                null_col: null_of(c),
                                t,
                            },
                            None => PredKernel::Never,
                        };
                    }
                }
            }
        }
    }
    if let Expr::Like { expr, pattern } = e {
        if let Expr::Col(c) = expr.as_ref() {
            if t.schema().columns()[*c].ty == DataType::Str {
                let dict = t.dict(*c).expect("str col");
                let mut hits = vec![false; dict.len()];
                for (code, s) in dict.iter() {
                    hits[code as usize] = like_match(pattern, s);
                }
                return PredKernel::CodeIn {
                    r: t.str_code_reader(*c),
                    hits,
                    null_col: null_of(*c),
                    t,
                };
            }
        }
    }
    if let Expr::IsNull(inner) = e {
        if let Expr::Col(c) = inner.as_ref() {
            return PredKernel::Null {
                col: *c,
                negate: false,
                t,
            };
        }
    }
    if let Expr::Not(inner) = e {
        if let Expr::IsNull(inner2) = inner.as_ref() {
            if let Expr::Col(c) = inner2.as_ref() {
                return PredKernel::Null {
                    col: *c,
                    negate: true,
                    t,
                };
            }
        }
        let k = compile_pred(t, inner);
        if !matches!(k, PredKernel::Interp { .. }) {
            return PredKernel::Not(Box::new(k));
        }
    }
    // Boolean composition stays in kernel space when both sides lower to
    // kernels; interpreting one leaf would interpret the whole thing anyway.
    if let Expr::Or(a, b) = e {
        let (ka, kb) = (compile_pred(t, a), compile_pred(t, b));
        if !matches!(ka, PredKernel::Interp { .. }) && !matches!(kb, PredKernel::Interp { .. }) {
            return PredKernel::Or(Box::new(ka), Box::new(kb));
        }
    }
    if let Expr::And(a, b) = e {
        let (ka, kb) = (compile_pred(t, a), compile_pred(t, b));
        if !matches!(ka, PredKernel::Interp { .. }) && !matches!(kb, PredKernel::Interp { .. }) {
            return PredKernel::And(Box::new(ka), Box::new(kb));
        }
    }
    PredKernel::Interp {
        expr: e.clone(),
        cols: e.columns(),
        width: t.schema().len(),
        t,
    }
}

pub fn conjuncts(pred: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        match e {
            Expr::And(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            other => out.push(other),
        }
    }
    walk(pred, &mut out);
    out
}

// ---------------------------------------------------------------------------
// zone-map pruning
// ---------------------------------------------------------------------------

/// Extract the zone-map-refutable conjuncts of `preds` (each element is
/// itself a conjunct of the scan). Mirrors [`compile_pred`]'s literal
/// handling, so a zone refutation is exactly "no row in this block can pass
/// the corresponding kernel": comparisons against literals on numeric
/// columns (in the kernel's widened domain), `IS [NOT] NULL` on plain
/// columns. `OR`s, string predicates, and anything interpreted contribute
/// nothing — pruning stays sound by simply knowing less.
pub fn zone_preds(t: &Table, preds: &[Expr]) -> Vec<ZonePred> {
    let mut out = Vec::new();
    for p in preds {
        for c in conjuncts(p) {
            collect_zone_pred(t, c, &mut out);
        }
    }
    out
}

fn collect_zone_pred(t: &Table, e: &Expr, out: &mut Vec<ZonePred>) {
    let zop = |op: CmpOp| match op {
        CmpOp::Eq => ZoneOp::Eq,
        CmpOp::Ne => ZoneOp::Ne,
        CmpOp::Lt => ZoneOp::Lt,
        CmpOp::Le => ZoneOp::Le,
        CmpOp::Gt => ZoneOp::Gt,
        CmpOp::Ge => ZoneOp::Ge,
    };
    match e {
        Expr::Cmp { op, left, right } => {
            let sides = match (left.as_ref(), right.as_ref()) {
                (Expr::Col(c), Expr::Lit(v)) => Some((*c, *op, v)),
                (Expr::Lit(v), Expr::Col(c)) => {
                    let flip = match op {
                        CmpOp::Lt => CmpOp::Gt,
                        CmpOp::Le => CmpOp::Ge,
                        CmpOp::Gt => CmpOp::Lt,
                        CmpOp::Ge => CmpOp::Le,
                        o => *o,
                    };
                    Some((*c, flip, v))
                }
                _ => None,
            };
            if let Some((col, op, lit)) = sides {
                match t.schema().columns()[col].ty {
                    DataType::Int32 | DataType::Int64 => {
                        if let Some(v) = lit.as_i64() {
                            out.push(ZonePred::I64Cmp {
                                col,
                                op: zop(op),
                                v,
                            });
                        }
                    }
                    DataType::Float64 => {
                        if let Some(v) = lit.as_f64() {
                            out.push(ZonePred::F64Cmp {
                                col,
                                op: zop(op),
                                v,
                            });
                        }
                    }
                    DataType::Str => {}
                }
            }
        }
        Expr::IsNull(inner) => {
            if let Expr::Col(c) = inner.as_ref() {
                out.push(ZonePred::IsNull {
                    col: *c,
                    negate: false,
                });
            }
        }
        Expr::Not(inner) => {
            if let Expr::IsNull(inner2) = inner.as_ref() {
                if let Expr::Col(c) = inner2.as_ref() {
                    out.push(ZonePred::IsNull {
                        col: *c,
                        negate: true,
                    });
                }
            }
        }
        _ => {}
    }
}

/// The zone map of `table` when any conjunct can refute blocks; `None`
/// avoids even the (one-time) zone-map build for unprunable scans.
fn prunable_zones(table: &Table, zpreds: &[ZonePred]) -> Option<Arc<ZoneMap>> {
    if zpreds.is_empty() || table.is_empty() {
        return None;
    }
    Some(table.zone_map().clone())
}

/// Per-row validity of `c` over `len (≤ 64)` rows from `start`, as a bitmask.
fn valid_mask(t: &Table, c: ColId, start: usize, len: usize) -> u64 {
    let mut m = 0u64;
    for j in 0..len {
        m |= (t.is_valid(start + j, c) as u64) << j;
    }
    m
}

impl<'t> PredKernel<'t> {
    /// Evaluate this kernel over `len (≤ 64)` consecutive main-store rows
    /// starting at `start`; bit `j` of the result is `self.test(start + j)`.
    /// Densely packed integer comparisons go through the wide kernels of
    /// [`crate::simd`]; everything else falls back to a scalar loop, so the
    /// mask is always exactly the row-at-a-time verdicts.
    pub fn block_mask(
        &self,
        start: usize,
        len: usize,
        wide: bool,
        stats: &mut simd::ChunkStats,
    ) -> u64 {
        debug_assert!(len <= 64);
        match self {
            PredKernel::I32Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                let mut m = match r.as_slice() {
                    Some(s) => simd::mask_i32(&s[start..start + len], *op, *v, wide, stats),
                    None => {
                        stats.scalar += 1;
                        let mut m = 0u64;
                        for j in 0..len {
                            let x = r.get(start + j) as i64;
                            m |= (op.matches(x.cmp(v)) as u64) << j;
                        }
                        m
                    }
                };
                if let Some(c) = null_col {
                    m &= valid_mask(t, *c, start, len);
                }
                m
            }
            PredKernel::I64Cmp {
                r,
                op,
                v,
                null_col,
                t,
            } => {
                let mut m = match r.as_slice() {
                    Some(s) => simd::mask_i64(&s[start..start + len], *op, *v, wide, stats),
                    None => {
                        stats.scalar += 1;
                        let mut m = 0u64;
                        for j in 0..len {
                            m |= (op.matches(r.get(start + j).cmp(v)) as u64) << j;
                        }
                        m
                    }
                };
                if let Some(c) = null_col {
                    m &= valid_mask(t, *c, start, len);
                }
                m
            }
            PredKernel::Never => 0,
            PredKernel::Null { col, negate, t } => {
                let vm = valid_mask(t, *col, start, len);
                if *negate {
                    vm
                } else {
                    !vm & simd::ones(len)
                }
            }
            PredKernel::And(a, b) => {
                let ma = a.block_mask(start, len, wide, stats);
                if ma == 0 {
                    return 0;
                }
                ma & b.block_mask(start, len, wide, stats)
            }
            PredKernel::Or(a, b) => {
                a.block_mask(start, len, wide, stats) | b.block_mask(start, len, wide, stats)
            }
            PredKernel::Not(a) => !a.block_mask(start, len, wide, stats) & simd::ones(len),
            // Float comparisons, dictionary-code tests, and interpreted
            // predicates stay scalar (floats deliberately so: see the
            // module docs of `crate::simd`).
            _ => {
                stats.scalar += 1;
                let mut m = 0u64;
                for j in 0..len {
                    m |= (self.test(start + j) as u64) << j;
                }
                m
            }
        }
    }
}

// ---------------------------------------------------------------------------
// merge exactness
// ---------------------------------------------------------------------------

/// True when merging partials of `agg` could reassociate float addition
/// and so change output bits: float inputs, or `avg` (which always finishes
/// through the float running sum, where partial int sums beyond 2^53 round
/// order-dependently). Count never inspects magnitudes and integer sums
/// finish through the exact integer sum, so those merge freely. `floats`
/// flags the float columns of the rows `agg` reads.
pub fn float_sensitive(agg: &AggExpr, floats: &[bool]) -> bool {
    match agg.func {
        AggFunc::Count => false,
        AggFunc::Avg => true,
        _ => agg.arg.as_ref().is_some_and(|e| touches_float(e, floats)),
    }
}

/// True when every aggregate in `plan` merges exactly across workers — the
/// condition under which the compiled engine splits an aggregation
/// pipeline over more than one thread. `table_floats(name)` flags the
/// `Float64` columns of table `name`.
pub fn merges_exactly(plan: &LogicalPlan, table_floats: &dyn Fn(&str) -> Vec<bool>) -> bool {
    match plan {
        LogicalPlan::Scan { .. } => true,
        LogicalPlan::Aggregate { input, aggs, .. } => {
            aggs_merge_exactly(input, aggs, table_floats) && merges_exactly(input, table_floats)
        }
        LogicalPlan::Join { left, right, .. } => {
            merges_exactly(left, table_floats) && merges_exactly(right, table_floats)
        }
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => merges_exactly(input, table_floats),
    }
}

fn aggs_merge_exactly(
    input: &LogicalPlan,
    aggs: &[AggExpr],
    table_floats: &dyn Fn(&str) -> Vec<bool>,
) -> bool {
    let floats = float_columns(input, table_floats);
    !aggs.iter().any(|a| float_sensitive(a, &floats))
}

/// Which output columns of `plan` may carry a float.
fn float_columns(plan: &LogicalPlan, table_floats: &dyn Fn(&str) -> Vec<bool>) -> Vec<bool> {
    match plan {
        LogicalPlan::Scan { table } => table_floats(table),
        LogicalPlan::Select { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. } => float_columns(input, table_floats),
        LogicalPlan::Project { input, exprs } => {
            let floats = float_columns(input, table_floats);
            exprs.iter().map(|e| touches_float(e, &floats)).collect()
        }
        LogicalPlan::Join { left, right, .. } => {
            let mut floats = float_columns(left, table_floats);
            floats.extend(float_columns(right, table_floats));
            floats
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let floats = float_columns(input, table_floats);
            group_by
                .iter()
                .map(|g| touches_float(g, &floats))
                .chain(aggs.iter().map(|a| float_sensitive(a, &floats)))
                .collect()
        }
    }
}

/// Does `e` read a float column or a float literal?
fn touches_float(e: &Expr, floats: &[bool]) -> bool {
    match e {
        Expr::Col(c) => floats.get(*c).copied().unwrap_or(true),
        Expr::Lit(v) => matches!(v, Value::Float64(_)),
        Expr::Cmp { left, right, .. }
        | Expr::Arith { left, right, .. }
        | Expr::And(left, right)
        | Expr::Or(left, right) => touches_float(left, floats) || touches_float(right, floats),
        Expr::Not(a) | Expr::IsNull(a) | Expr::Like { expr: a, .. } => touches_float(a, floats),
    }
}

/// The `Float64` flags of a schema's columns: what [`merges_exactly`]
/// asks of each table.
pub fn float_flags(schema: &Schema) -> Vec<bool> {
    schema
        .columns()
        .iter()
        .map(|c| c.ty == DataType::Float64)
        .collect()
}

/// The `Float64` flags of a provider's table (empty when it is missing;
/// the scan reports the unknown table).
fn table_floats(db: &dyn TableProvider, name: &str) -> Vec<bool> {
    db.table(name)
        .map(|t| float_flags(t.schema()))
        .unwrap_or_default()
}

// ---------------------------------------------------------------------------
// pipelines
// ---------------------------------------------------------------------------

/// Steps applied to rows that survive the scan predicates.
enum Step {
    /// Replace the row with the projected expressions.
    Project(Vec<Expr>),
    /// Probe a build-side hash table; fan out to `build_row ++ row`.
    Probe {
        ht: HashMap<GroupKey, Vec<Vec<Value>>>,
        key: Expr,
    },
    /// Post-join filter (interpreted; rare in the workloads).
    Filter(Expr),
}

/// A compiled query fragment: either an open scan pipeline or materialized
/// rows (output of a pipeline breaker).
enum Fragment {
    Pipe {
        table: String,
        preds: Vec<Expr>,
        steps: Vec<Step>,
    },
    Rows(Vec<Vec<Value>>),
}

/// Sinks consume survivor rows.
enum Sink<'p> {
    Collect(Vec<Vec<Value>>),
    Agg {
        group_by: &'p [Expr],
        aggs: &'p [AggExpr],
        groups: HashMap<GroupKey, (Vec<Value>, Vec<Accumulator>)>,
    },
}

fn fresh_accs(aggs: &[AggExpr]) -> Vec<Accumulator> {
    aggs.iter().map(|a| Accumulator::new(a.func)).collect()
}

fn merge_accs(into: &mut [Accumulator], from: &[Accumulator]) {
    for (mine, theirs) in into.iter_mut().zip(from) {
        mine.merge(theirs);
    }
}

impl<'p> Sink<'p> {
    fn agg(group_by: &'p [Expr], aggs: &'p [AggExpr]) -> Self {
        Sink::Agg {
            group_by,
            aggs,
            groups: HashMap::new(),
        }
    }

    fn consume(&mut self, row: Vec<Value>) {
        match self {
            Sink::Collect(rows) => rows.push(row),
            Sink::Agg {
                group_by,
                aggs,
                groups,
            } => {
                let key_vals: Vec<Value> = group_by.iter().map(|g| g.eval(&row[..])).collect();
                let key = GroupKey::of(&key_vals);
                let entry = groups
                    .entry(key)
                    .or_insert_with(|| (key_vals.clone(), fresh_accs(aggs)));
                for (acc, spec) in entry.1.iter_mut().zip(aggs.iter()) {
                    match &spec.arg {
                        Some(e) => acc.update(&e.eval(&row[..])),
                        None => acc.update(&Value::Int32(1)),
                    }
                }
            }
        }
    }

    /// An empty sink of the same kind: one morsel's or worker's partial.
    fn fresh(&self) -> Sink<'p> {
        match self {
            Sink::Collect(_) => Sink::Collect(Vec::new()),
            Sink::Agg { group_by, aggs, .. } => Sink::agg(group_by, aggs),
        }
    }

    /// Fold in a partial covering later rows. Collected rows append;
    /// aggregate states merge through [`Accumulator::merge`], which is
    /// exact only for aggregates [`float_sensitive`] clears — callers run
    /// any other aggregation on one thread, with a single partial.
    fn absorb(&mut self, part: Sink<'p>) {
        match (self, part) {
            (Sink::Collect(rows), Sink::Collect(mut more)) => {
                if rows.is_empty() {
                    *rows = more;
                } else {
                    rows.append(&mut more);
                }
            }
            (Sink::Agg { groups, .. }, Sink::Agg { groups: more, .. }) => {
                if groups.is_empty() {
                    *groups = more;
                    return;
                }
                for (key, (key_vals, accs)) in more {
                    match groups.entry(key) {
                        Entry::Vacant(v) => {
                            v.insert((key_vals, accs));
                        }
                        Entry::Occupied(mut o) => merge_accs(&mut o.get_mut().1, &accs),
                    }
                }
            }
            _ => unreachable!("a partial is always fresh() from the sink it folds into"),
        }
    }

    fn finish(self) -> Vec<Vec<Value>> {
        match self {
            Sink::Collect(rows) => rows,
            Sink::Agg {
                group_by,
                aggs,
                groups,
            } => {
                if groups.is_empty() && group_by.is_empty() {
                    return vec![fresh_accs(aggs).iter().map(|a| a.finish()).collect()];
                }
                groups
                    .into_values()
                    .map(|(mut k, accs)| {
                        k.extend(accs.iter().map(|a| a.finish()));
                        k
                    })
                    .collect()
            }
        }
    }
}

/// Recursively push `row` through `steps[step_idx..]` into the sink.
fn push_row(row: Vec<Value>, steps: &[Step], sink: &mut Sink<'_>) {
    match steps.first() {
        None => sink.consume(row),
        Some(Step::Project(exprs)) => {
            let projected: Vec<Value> = exprs.iter().map(|e| e.eval(&row[..])).collect();
            push_row(projected, &steps[1..], sink);
        }
        Some(Step::Filter(pred)) => {
            if pred.eval_bool(&row[..]) {
                push_row(row, &steps[1..], sink);
            }
        }
        Some(Step::Probe { ht, key }) => {
            let k = key.eval(&row[..]);
            if k.is_null() {
                return;
            }
            if let Some(matches) = ht.get(&GroupKey::single(&k)) {
                for m in matches {
                    let mut joined = m.clone();
                    joined.extend(row.iter().cloned());
                    push_row(joined, &steps[1..], sink);
                }
            }
        }
    }
}

/// One table scan, compiled once and shared by every worker: typed
/// predicate kernels, the snapshot's tombstones, and zone-map pruning.
struct Scan<'t> {
    table: &'t Table,
    dead: &'t [bool],
    kernels: Vec<PredKernel<'t>>,
    zpreds: Vec<ZonePred>,
    zones: Option<Arc<ZoneMap>>,
    wide: bool,
}

impl<'t> Scan<'t> {
    fn new(table: &'t Table, overlay: Option<&Overlay<'t>>, preds: &[Expr]) -> Self {
        let zpreds = zone_preds(table, preds);
        Scan {
            table,
            dead: overlay.map(|o| o.dead).unwrap_or(&[]),
            kernels: preds.iter().map(|p| compile_pred(table, p)).collect(),
            zones: prunable_zones(table, &zpreds),
            zpreds,
            wide: simd::wide_enabled(simd::mode()),
        }
    }

    /// True when some predicate fell back to the interpreter — the typed
    /// aggregation fast paths would gain nothing over the generic sink.
    fn interpreted(&self) -> bool {
        self.kernels
            .iter()
            .any(|k| matches!(k, PredKernel::Interp { .. }))
    }

    /// Call `f(start, end)` for each maximal run of zone blocks of `rows`
    /// (which start on a block boundary) that the zone map does not
    /// refute — the whole range when nothing prunes.
    fn blocks(&self, rows: Range<usize>, mut f: impl FnMut(usize, usize)) {
        debug_assert_eq!(
            rows.start % ZONE_BLOCK_ROWS,
            0,
            "morsels are whole zone blocks"
        );
        let mut run = rows.start;
        if let Some(z) = &self.zones {
            let (mut scanned, mut pruned) = (0u64, 0u64);
            for b in rows.start / ZONE_BLOCK_ROWS..rows.end.div_ceil(ZONE_BLOCK_ROWS) {
                if !z.block_refuted(b, &self.zpreds) {
                    scanned += 1;
                    continue;
                }
                pruned += 1;
                if run < b * ZONE_BLOCK_ROWS {
                    f(run, b * ZONE_BLOCK_ROWS);
                }
                run = (b + 1) * ZONE_BLOCK_ROWS;
            }
            simd::note_blocks(scanned, pruned);
        }
        if run < rows.end {
            f(run, rows.end);
        }
    }

    /// Call `f(i)`, in row order, for every live row of `rows` that passes
    /// every kernel. Kernels evaluate 64-row sub-blocks to bitmasks.
    #[inline(always)]
    fn survivors(&self, rows: Range<usize>, mut f: impl FnMut(usize)) {
        let mut stats = simd::ChunkStats::default();
        self.blocks(rows, |bs, be| {
            let mut sub = bs;
            while sub < be {
                let len = (be - sub).min(64);
                let mut mask = simd::ones(len);
                if !self.dead.is_empty() {
                    for (j, &d) in self.dead[sub..sub + len].iter().enumerate() {
                        mask &= !((d as u64) << j);
                    }
                }
                for k in &self.kernels {
                    if mask == 0 {
                        break;
                    }
                    mask &= k.block_mask(sub, len, self.wide, &mut stats);
                }
                while mask != 0 {
                    f(sub + mask.trailing_zeros() as usize);
                    mask &= mask - 1;
                }
                sub += len;
            }
        });
        stats.flush();
    }
}

/// Run a fused pipeline: one loop over the scan, kernels first, survivors
/// through the steps into the sink, driven over `threads` workers. Collect
/// sinks buffer each morsel apart and stitch in morsel order; aggregate
/// sinks fold each worker's morsels into one partial (callers pass one
/// thread unless the aggregates merge exactly). With an [`Overlay`],
/// tombstoned rows are skipped and the live tail rows run through the same
/// steps after the main rows (predicates interpreted: tail rows are
/// decoded, not dictionary-coded).
fn run_pipeline<'p>(
    scan: &Scan<'_>,
    overlay: Option<&Overlay<'_>>,
    preds: &[Expr],
    steps: &[Step],
    needed: &[ColId],
    mut sink: Sink<'p>,
    threads: usize,
) -> Vec<Vec<Value>> {
    let table = scan.table;
    let width = table.schema().len();
    let per_worker = drive(
        table.len(),
        rows_per_morsel(table),
        threads,
        Vec::new,
        |parts: &mut Vec<(usize, Sink<'p>)>, m| {
            if parts.is_empty() || matches!(sink, Sink::Collect(_)) {
                parts.push((m.index, sink.fresh()));
            }
            let part = &mut parts.last_mut().expect("a partial was just ensured").1;
            scan.survivors(m.rows(), |i| {
                let mut row = vec![Value::Null; width];
                for &c in needed {
                    row[c] = table.get(i, c).expect("in-range");
                }
                push_row(row, steps, part);
            });
        },
    );
    let mut parts: Vec<(usize, Sink<'p>)> = per_worker.into_iter().flatten().collect();
    parts.sort_unstable_by_key(|(index, _)| *index);
    for (_, part) in parts {
        sink.absorb(part);
    }
    if let Some(o) = overlay {
        for r in o.live_tail() {
            if !tail_row_passes(preds, r) {
                continue;
            }
            push_row(masked_tail_row(r, needed, width), steps, &mut sink);
        }
    }
    sink.finish()
}

/// The literal Fig. 2c kernel: one `i32` comparison predicate, scalar `sum`s
/// over non-nullable `i32` columns. Compiles to a single branch + a handful
/// of adds per tuple — the code HyPer's LLVM backend would emit. With an
/// overlay, the typed loop additionally skips tombstones and the (decoded)
/// tail rows fold into the same running sums afterwards. Integer partials
/// merge by addition, which is exact at any thread count.
fn fig2c_kernel(
    scan: &Scan<'_>,
    overlay: Option<&Overlay<'_>>,
    preds: &[Expr],
    aggs: &[AggExpr],
    threads: usize,
) -> Option<Vec<Vec<Value>>> {
    let [PredKernel::I32Cmp {
        r: pr,
        op,
        v: pv,
        null_col: None,
        ..
    }] = scan.kernels.as_slice()
    else {
        return None;
    };
    let (op, pv) = (*op, *pv);
    let table = scan.table;
    let mut readers = Vec::with_capacity(aggs.len());
    let mut agg_cols = Vec::with_capacity(aggs.len());
    for a in aggs {
        match &a.arg {
            Some(Expr::Col(c)) if a.func == AggFunc::Sum => {
                let def = &table.schema().columns()[*c];
                if def.ty != DataType::Int32 || def.nullable {
                    return None;
                }
                readers.push(table.i32_reader(*c));
                agg_cols.push(*c);
            }
            _ => return None,
        }
    }
    // Dense slices exist when each column lives alone in its partition
    // (column / suitable hybrid layouts) — that is where the fused wide
    // kernel applies. Tombstoned scans keep the scalar path.
    let pred_slice = pr.as_slice();
    let agg_slices: Option<Vec<&[i32]>> = readers.iter().map(|r| r.as_slice()).collect();
    let partials = drive(
        table.len(),
        rows_per_morsel(table),
        threads,
        || (0u64, vec![0i64; readers.len()]),
        |(hits, sums), m| {
            let mut stats = simd::ChunkStats::default();
            scan.blocks(m.rows(), |bs, be| {
                if scan.dead.is_empty() {
                    if let (Some(ps), Some(ags)) = (pred_slice, agg_slices.as_ref()) {
                        let tails: Vec<&[i32]> = ags.iter().map(|a| &a[bs..be]).collect();
                        *hits += simd::fused_filter_sum_i32(
                            &ps[bs..be],
                            op,
                            pv,
                            &tails,
                            sums,
                            scan.wide,
                            &mut stats,
                        );
                        return;
                    }
                }
                stats.scalar += (be - bs).div_ceil(simd::CHUNK_ROWS) as u64;
                fig2c_scan_rows(pr, op, pv, &readers, scan.dead, bs, be, sums, hits);
            });
            stats.flush();
        },
    );
    let mut partials = partials.into_iter();
    let (mut hits, mut sums) = partials.next().expect("the driver yields a partial");
    for (h, part) in partials {
        hits += h;
        for (s, p) in sums.iter_mut().zip(part) {
            *s += p;
        }
    }
    fig2c_tail_fold(overlay, preds, &agg_cols, &mut sums, &mut hits);
    let row: Vec<Value> = sums
        .into_iter()
        .map(|s| {
            if hits == 0 {
                Value::Null
            } else {
                Value::Int64(s)
            }
        })
        .collect();
    Some(vec![row])
}

/// The row-at-a-time Fig.-2c loop, for strided columns and tombstoned
/// regions (the pre-SIMD kernel, kept verbatim as the fallback).
#[allow(clippy::too_many_arguments)]
fn fig2c_scan_rows(
    pr: &I32Col<'_>,
    op: CmpOp,
    pv: i64,
    readers: &[I32Col<'_>],
    dead: &[bool],
    start: usize,
    end: usize,
    sums: &mut [i64],
    hits: &mut u64,
) {
    match op {
        CmpOp::Eq => {
            for i in start..end {
                if (dead.is_empty() || !dead[i]) && pr.get(i) as i64 == pv {
                    *hits += 1;
                    for (s, r) in sums.iter_mut().zip(readers.iter()) {
                        *s += r.get(i) as i64;
                    }
                }
            }
        }
        _ => {
            for i in start..end {
                if (dead.is_empty() || !dead[i]) && op.matches((pr.get(i) as i64).cmp(&pv)) {
                    *hits += 1;
                    for (s, r) in sums.iter_mut().zip(readers.iter()) {
                        *s += r.get(i) as i64;
                    }
                }
            }
        }
    }
}

/// Typed reader feeding one accumulator straight from a partition — zero
/// per-survivor heap allocation.
enum AggReader<'t> {
    I32(I32Col<'t>, Option<ColId>),
    I64(I64Col<'t>, Option<ColId>),
    F64(F64Col<'t>, Option<ColId>),
    CountStar,
}

impl AggReader<'_> {
    /// Feed main row `i` into `acc`, skipping NULLs.
    #[inline(always)]
    fn update(&self, table: &Table, i: usize, acc: &mut Accumulator) {
        match self {
            AggReader::CountStar => acc.update_i64(1),
            AggReader::I32(r, nc) => {
                if nc.map(|c| table.is_valid(i, c)).unwrap_or(true) {
                    acc.update_i32(r.get(i));
                }
            }
            AggReader::I64(r, nc) => {
                if nc.map(|c| table.is_valid(i, c)).unwrap_or(true) {
                    acc.update_i64(r.get(i));
                }
            }
            AggReader::F64(r, nc) => {
                if nc.map(|c| table.is_valid(i, c)).unwrap_or(true) {
                    acc.update_f64(r.get(i));
                }
            }
        }
    }
}

/// Typed readers for aggregates over plain non-string columns (or
/// `count(*)`); `None` when any aggregate needs the generic sink.
fn agg_readers<'t>(table: &'t Table, aggs: &[AggExpr]) -> Option<Vec<AggReader<'t>>> {
    aggs.iter()
        .map(|a| match &a.arg {
            None => Some(AggReader::CountStar),
            Some(Expr::Col(c)) => {
                let def = &table.schema().columns()[*c];
                let nc = def.nullable.then_some(*c);
                match def.ty {
                    DataType::Int32 => Some(AggReader::I32(table.i32_reader(*c), nc)),
                    DataType::Int64 => Some(AggReader::I64(table.i64_reader(*c), nc)),
                    DataType::Float64 => Some(AggReader::F64(table.f64_reader(*c), nc)),
                    DataType::Str => None,
                }
            }
            Some(_) => None,
        })
        .collect()
}

/// Typed reader over a single-column group key.
enum KeyReader<'t> {
    I32(I32Col<'t>),
    I64(I64Col<'t>),
    Code(U32Col<'t>, ColId),
}

impl KeyReader<'_> {
    /// Reader over non-nullable integer or string key column `c`.
    fn open(table: &Table, c: ColId) -> Option<KeyReader<'_>> {
        let def = &table.schema().columns()[c];
        if def.nullable {
            return None;
        }
        match def.ty {
            DataType::Int32 => Some(KeyReader::I32(table.i32_reader(c))),
            DataType::Int64 => Some(KeyReader::I64(table.i64_reader(c))),
            DataType::Str => Some(KeyReader::Code(table.str_code_reader(c), c)),
            DataType::Float64 => None,
        }
    }

    #[inline(always)]
    fn raw(&self, i: usize) -> u64 {
        match self {
            KeyReader::I32(r) => r.get(i) as i64 as u64,
            KeyReader::I64(r) => r.get(i) as u64,
            KeyReader::Code(r, _) => r.get(i) as u64,
        }
    }

    fn decode(&self, table: &Table, raw: u64) -> Value {
        match self {
            // Int32 keys must decode as Int32 to match the generic path.
            KeyReader::I32(_) => Value::Int32(raw as i64 as i32),
            KeyReader::I64(_) => Value::Int64(raw as i64),
            KeyReader::Code(_, c) => Value::Str(
                table
                    .dict(*c)
                    .expect("str col has dict")
                    .decode(raw as u32)
                    .to_owned(),
            ),
        }
    }
}

/// Grouped-aggregation fast path: a single plain-column group key and
/// plain-column aggregate arguments. Keys hash as raw `u64`s (no per-row
/// `Value` allocation, no byte-key serialization) — the compiled engine's
/// group-by loop, as HyPer's generated code would do it. Worker partials
/// merge by raw key. Overlay tombstones are skipped in the typed loop and
/// tail rows fold in afterwards; if a tail row carries a group-key string
/// the main dictionary has never seen, there is no raw code for it and the
/// caller falls back to the generic path.
fn grouped_agg_fast_path(
    scan: &Scan<'_>,
    overlay: Option<&Overlay<'_>>,
    preds: &[Expr],
    group_by: &[Expr],
    aggs: &[AggExpr],
    threads: usize,
) -> Option<Vec<Vec<Value>>> {
    let table = scan.table;
    let [Expr::Col(key_col)] = group_by else {
        return None;
    };
    let key = KeyReader::open(table, *key_col)?;
    if tail_defeats_raw_keys(table, *key_col, overlay) {
        return None;
    }
    let readers = agg_readers(table, aggs)?;
    if scan.interpreted() {
        return None;
    }
    let partials = drive(
        table.len(),
        rows_per_morsel(table),
        threads,
        HashMap::new,
        |groups: &mut HashMap<u64, Vec<Accumulator>>, m| {
            scan.survivors(m.rows(), |i| {
                let accs = groups.entry(key.raw(i)).or_insert_with(|| fresh_accs(aggs));
                for (acc, rd) in accs.iter_mut().zip(readers.iter()) {
                    rd.update(table, i, acc);
                }
            });
        },
    );
    let mut partials = partials.into_iter();
    let mut groups = partials.next().expect("the driver yields a partial");
    for part in partials {
        for (raw, accs) in part {
            match groups.entry(raw) {
                Entry::Vacant(v) => {
                    v.insert(accs);
                }
                Entry::Occupied(mut o) => merge_accs(o.get_mut(), &accs),
            }
        }
    }
    if let Some(o) = overlay {
        for r in o.live_tail() {
            if !tail_row_passes(preds, r) {
                continue;
            }
            let raw_key = tail_raw_key(table, *key_col, &r.values()[*key_col])
                .expect("tail keys checked before entering the fast path");
            let accs = groups.entry(raw_key).or_insert_with(|| fresh_accs(aggs));
            agg_tail_update(aggs, r, accs);
        }
    }
    Some(
        groups
            .into_iter()
            .map(|(raw, accs)| {
                let mut row = vec![key.decode(table, raw)];
                row.extend(accs.iter().map(|a| a.finish()));
                row
            })
            .collect(),
    )
}

/// Scalar aggregation over plain columns: the Fig. 2c kernel when the shape
/// allows, otherwise typed readers straight into per-worker accumulators.
fn scalar_agg_fast_path(
    scan: &Scan<'_>,
    overlay: Option<&Overlay<'_>>,
    preds: &[Expr],
    aggs: &[AggExpr],
    threads: usize,
) -> Option<Vec<Vec<Value>>> {
    if let Some(rows) = fig2c_kernel(scan, overlay, preds, aggs, threads) {
        return Some(rows);
    }
    let table = scan.table;
    let readers = agg_readers(table, aggs)?;
    if scan.interpreted() {
        return None;
    }
    let partials = drive(
        table.len(),
        rows_per_morsel(table),
        threads,
        || fresh_accs(aggs),
        |accs, m| {
            scan.survivors(m.rows(), |i| {
                for (acc, rd) in accs.iter_mut().zip(readers.iter()) {
                    rd.update(table, i, acc);
                }
            });
        },
    );
    let mut partials = partials.into_iter();
    let mut accs = partials.next().expect("the driver yields a partial");
    for part in partials {
        merge_accs(&mut accs, &part);
    }
    if let Some(o) = overlay {
        for r in o.live_tail() {
            if !tail_row_passes(preds, r) {
                continue;
            }
            agg_tail_update(aggs, r, &mut accs);
        }
    }
    Some(vec![accs.iter().map(|a| a.finish()).collect()])
}

// ---------------------------------------------------------------------------
// compilation / execution
// ---------------------------------------------------------------------------

fn exec(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    required: &[(String, Vec<ColId>)],
    threads: usize,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let frag = lower(plan, db, required, threads)?;
    Ok(match frag {
        Fragment::Rows(rows) => rows,
        Fragment::Pipe {
            table,
            preds,
            steps,
        } => {
            let t = db
                .table(&table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            let overlay = db.overlay(&table);
            let needed = needed_cols(&table, t, required);
            run_pipeline(
                &Scan::new(t, overlay.as_ref(), &preds),
                overlay.as_ref(),
                &preds,
                &steps,
                &needed,
                Sink::Collect(Vec::new()),
                threads,
            )
        }
    })
}

fn needed_cols(name: &str, t: &Table, required: &[(String, Vec<ColId>)]) -> Vec<ColId> {
    required
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, c)| c.clone())
        .unwrap_or_else(|| (0..t.schema().len()).collect())
}

/// Lower a plan into a fragment, executing pipeline breakers on the way.
fn lower(
    plan: &LogicalPlan,
    db: &dyn TableProvider,
    required: &[(String, Vec<ColId>)],
    threads: usize,
) -> Result<Fragment, ExecError> {
    match plan {
        LogicalPlan::Scan { table } => {
            db.table(table)
                .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
            Ok(Fragment::Pipe {
                table: table.clone(),
                preds: Vec::new(),
                steps: Vec::new(),
            })
        }
        LogicalPlan::Select { input, pred, .. } => {
            let frag = lower(input, db, required, threads)?;
            Ok(match frag {
                Fragment::Pipe {
                    table,
                    mut preds,
                    mut steps,
                } => {
                    if steps.is_empty() {
                        preds.extend(conjuncts(pred).into_iter().cloned());
                    } else {
                        steps.push(Step::Filter(pred.clone()));
                    }
                    Fragment::Pipe {
                        table,
                        preds,
                        steps,
                    }
                }
                Fragment::Rows(rows) => Fragment::Rows(
                    rows.into_iter()
                        .filter(|r| pred.eval_bool(&r[..]))
                        .collect(),
                ),
            })
        }
        LogicalPlan::Project { input, exprs } => {
            let frag = lower(input, db, required, threads)?;
            Ok(match frag {
                Fragment::Pipe {
                    table,
                    preds,
                    mut steps,
                } => {
                    steps.push(Step::Project(exprs.clone()));
                    Fragment::Pipe {
                        table,
                        preds,
                        steps,
                    }
                }
                Fragment::Rows(rows) => Fragment::Rows(
                    rows.into_iter()
                        .map(|r| exprs.iter().map(|e| e.eval(&r[..])).collect())
                        .collect(),
                ),
            })
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let frag = lower(input, db, required, threads)?;
            let rows = match frag {
                Fragment::Pipe {
                    table,
                    preds,
                    steps,
                } => {
                    let t = db
                        .table(&table)
                        .ok_or_else(|| ExecError::UnknownTable(table.clone()))?;
                    let overlay = db.overlay(&table);
                    let scan = Scan::new(t, overlay.as_ref(), &preds);
                    let threads = if aggs_merge_exactly(input, aggs, &|n| table_floats(db, n)) {
                        threads
                    } else {
                        1
                    };
                    // Fig. 2c fast path: no steps, scalar column aggregates.
                    if steps.is_empty() && group_by.is_empty() {
                        if let Some(rows) =
                            scalar_agg_fast_path(&scan, overlay.as_ref(), &preds, aggs, threads)
                        {
                            return Ok(Fragment::Rows(rows));
                        }
                    }
                    // Grouped fast path: single plain-column key.
                    if steps.is_empty() && !group_by.is_empty() {
                        if let Some(rows) = grouped_agg_fast_path(
                            &scan,
                            overlay.as_ref(),
                            &preds,
                            group_by,
                            aggs,
                            threads,
                        ) {
                            return Ok(Fragment::Rows(rows));
                        }
                    }
                    let needed = needed_cols(&table, t, required);
                    run_pipeline(
                        &scan,
                        overlay.as_ref(),
                        &preds,
                        &steps,
                        &needed,
                        Sink::agg(group_by, aggs),
                        threads,
                    )
                }
                Fragment::Rows(rows) => {
                    let mut sink = Sink::agg(group_by, aggs);
                    for r in rows {
                        sink.consume(r);
                    }
                    sink.finish()
                }
            };
            Ok(Fragment::Rows(rows))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            // Build side is always materialized (pipeline breaker), in row
            // order, so probe fan-out order is the same at any thread count.
            let build_rows = exec(left, db, required, threads)?;
            let mut ht: HashMap<GroupKey, Vec<Vec<Value>>> = HashMap::new();
            for r in build_rows {
                let k = left_key.eval(&r[..]);
                if k.is_null() {
                    continue;
                }
                ht.entry(GroupKey::single(&k)).or_default().push(r);
            }
            let frag = lower(right, db, required, threads)?;
            Ok(match frag {
                Fragment::Pipe {
                    table,
                    preds,
                    mut steps,
                } => {
                    // Probe key is evaluated against the probe-side row; the
                    // produced row is build ++ probe, so later steps see the
                    // concatenated space. The probe-side row arrives in its
                    // base space, so the key needs no shifting — but steps
                    // after the probe do (they already operate positionally).
                    steps.push(Step::Probe {
                        ht,
                        key: right_key.clone(),
                    });
                    Fragment::Pipe {
                        table,
                        preds,
                        steps,
                    }
                }
                Fragment::Rows(rows) => {
                    let mut out = Vec::new();
                    for r in rows {
                        let k = right_key.eval(&r[..]);
                        if k.is_null() {
                            continue;
                        }
                        if let Some(ms) = ht.get(&GroupKey::single(&k)) {
                            for m in ms {
                                let mut j = m.clone();
                                j.extend(r.iter().cloned());
                                out.push(j);
                            }
                        }
                    }
                    Fragment::Rows(out)
                }
            })
        }
        LogicalPlan::Sort { input, keys } => {
            let mut rows = exec(input, db, required, threads)?;
            rows.sort_by(|a, b| {
                for k in keys {
                    let ord = cmp_values(&k.expr.eval(&a[..]), &k.expr.eval(&b[..]));
                    let ord = if k.asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(Fragment::Rows(rows))
        }
        LogicalPlan::Limit { input, n } => {
            let mut rows = exec(input, db, required, threads)?;
            rows.truncate(*n);
            Ok(Fragment::Rows(rows))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::BulkEngine;
    use crate::volcano::VolcanoEngine;
    use pdsm_plan::builder::QueryBuilder;
    use pdsm_storage::{ColumnDef, Schema};

    fn db() -> HashMap<String, Table> {
        db_of(200)
    }

    /// Large enough to span many morsels at every thread count.
    fn big_db() -> HashMap<String, Table> {
        db_of(20_000)
    }

    fn db_of(n: i32) -> HashMap<String, Table> {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("a", DataType::Int32),
                ColumnDef::new("b", DataType::Int32),
                ColumnDef::new("s", DataType::Str),
                ColumnDef::nullable("f", DataType::Float64),
            ]),
        );
        for i in 0..n {
            t.insert(&[
                Value::Int32(i),
                Value::Int32(i % 10),
                Value::Str(format!("name-{}", i % 5)),
                if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Float64(i as f64 / 2.0)
                },
            ])
            .unwrap();
        }
        let mut m = HashMap::new();
        m.insert("t".to_string(), t);
        m
    }

    #[test]
    fn fig2c_fast_path_sums() {
        // select sum(a), count(*) from t where b = 3 — the Fig. 2c loop
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(3)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                    AggExpr::count_star(),
                ],
            )
            .build();
        let out = CompiledEngine::new().execute(&plan, &db()).unwrap();
        let expect: i64 = (0..200).filter(|i| i % 10 == 3).sum::<i64>();
        assert_eq!(out.rows[0][0], Value::Int64(expect));
        assert_eq!(out.rows[0][1], Value::Int64(20));
    }

    #[test]
    fn fast_path_skips_nulls() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(5)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Count, Expr::col(3))])
            .build();
        let d = db();
        let a = CompiledEngine::new().execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "null handling in fast path");
    }

    #[test]
    fn string_predicates_via_codes() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).like("name-2").or(Expr::col(2).like("name-3")))
            .aggregate(vec![], vec![AggExpr::count_star()])
            .build();
        let d = db();
        let a = CompiledEngine::new().execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "disjunctive LIKE");
        assert_eq!(a.rows[0][0], Value::Int64(80));
    }

    #[test]
    fn str_eq_absent_matches_nothing() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(2).eq(Expr::lit("no-such-name")))
            .project(vec![Expr::col(0)])
            .build();
        let out = CompiledEngine::new().execute(&plan, &db()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn differential_group_by() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(0).ge(Expr::lit(40)))
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                ],
            )
            .build();
        let d = db();
        let a = CompiledEngine::new().execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        let c = BulkEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "compiled vs volcano");
        a.assert_same(&c, "compiled vs bulk");
    }

    #[test]
    fn fused_join_probe() {
        // self join: filtered build side, full probe side
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(7)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .project(vec![Expr::col(0), Expr::col(4 + 2)])
            .build();
        let d = db();
        let a = CompiledEngine::new().execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "fused join");
        assert_eq!(a.len(), 20);
    }

    #[test]
    fn join_then_aggregate_pipeline() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).le(Expr::lit(2)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .aggregate(
                vec![Expr::col(4 + 1)],
                vec![AggExpr::new(AggFunc::Sum, Expr::col(0))],
            )
            .build();
        let d = db();
        let a = CompiledEngine::new().execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        a.assert_same(&b, "join+agg");
    }

    #[test]
    fn sort_limit_exact_order() {
        let plan = QueryBuilder::scan("t")
            .project(vec![Expr::col(1), Expr::col(0)])
            .sort(vec![(Expr::col(0), true), (Expr::col(1), false)])
            .limit(11)
            .build();
        let d = db();
        let a = CompiledEngine::new().execute(&plan, &d).unwrap();
        let b = VolcanoEngine.execute(&plan, &d).unwrap();
        assert_eq!(a.rows, b.rows);
    }

    const THREADS: [usize; 4] = [1, 2, 4, 8];

    /// `plan` at every thread count, as `Debug` strings (so float bits
    /// count), in output order.
    fn outputs(plan: &LogicalPlan, d: &HashMap<String, Table>) -> Vec<Vec<String>> {
        THREADS
            .iter()
            .map(|&n| {
                let out = CompiledEngine::with_threads(n).execute(plan, d).unwrap();
                out.rows.iter().map(|r| format!("{r:?}")).collect()
            })
            .collect()
    }

    /// Exact output order at every thread count (row-returning plans).
    fn assert_identical(plan: &LogicalPlan, d: &HashMap<String, Table>, ctx: &str) {
        let outs = outputs(plan, d);
        for (out, n) in outs.iter().zip(THREADS) {
            assert_eq!(out, &outs[0], "{ctx}: threads={n}");
        }
    }

    /// Bit-identical rows at every thread count, in any order (group order
    /// is hash order at one thread too).
    fn assert_identical_unordered(plan: &LogicalPlan, d: &HashMap<String, Table>, ctx: &str) {
        let mut outs = outputs(plan, d);
        outs.iter_mut().for_each(|o| o.sort());
        for (out, n) in outs.iter().zip(THREADS) {
            assert_eq!(out, &outs[0], "{ctx}: threads={n}");
        }
    }

    #[test]
    fn filter_project_keeps_scan_order_at_any_thread_count() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(3)))
            .project(vec![Expr::col(0), Expr::col(2)])
            .build();
        let d = big_db();
        assert_identical(&plan, &d, "filter+project");
        assert_eq!(outputs(&plan, &d)[0].len(), 6_000);
    }

    #[test]
    fn merge_exact_aggregates_match_at_any_thread_count() {
        let d = big_db();
        let fig2c = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(7)))
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(0))])
            .build();
        assert_identical(&fig2c, &d, "fig2c");
        let scalar = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(7)))
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                    AggExpr::new(AggFunc::Min, Expr::col(0)),
                    AggExpr::new(AggFunc::Max, Expr::col(0)),
                ],
            )
            .build();
        assert_identical(&scalar, &d, "scalar agg");
        let grouped = QueryBuilder::scan("t")
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(1)),
                ],
            )
            .build();
        assert_identical_unordered(&grouped, &d, "grouped agg");
        // an expression key takes the generic sink, merged per worker
        let expr_key = QueryBuilder::scan("t")
            .aggregate(
                vec![Expr::col(1).add(Expr::lit(1))],
                vec![AggExpr::new(AggFunc::Max, Expr::col(2))],
            )
            .build();
        assert_identical_unordered(&expr_key, &d, "expression key");
        // an interpreted predicate over a grouped count, against volcano
        let interpreted = QueryBuilder::scan("t")
            .filter(Expr::col(2).like("name-1").or(Expr::col(3).is_null()))
            .aggregate(vec![Expr::col(1)], vec![AggExpr::count_star()])
            .build();
        assert_identical_unordered(&interpreted, &d, "interpreted predicate");
        VolcanoEngine
            .execute(&interpreted, &d)
            .unwrap()
            .assert_same(
                &CompiledEngine::with_threads(4)
                    .execute(&interpreted, &d)
                    .unwrap(),
                "volcano vs compiled at 4 threads",
            );
    }

    #[test]
    fn float_aggregates_bit_identical_at_any_thread_count() {
        let plan = QueryBuilder::scan("t")
            .filter(Expr::col(1).lt(Expr::lit(8)))
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::new(AggFunc::Sum, Expr::col(3)),
                    AggExpr::new(AggFunc::Avg, Expr::col(3)),
                ],
            )
            .build();
        assert_identical_unordered(&plan, &big_db(), "float grouped sum/avg");
        let scalar = QueryBuilder::scan("t")
            .aggregate(vec![], vec![AggExpr::new(AggFunc::Sum, Expr::col(3))])
            .build();
        assert_identical(&scalar, &big_db(), "float scalar sum");
    }

    #[test]
    fn join_aggregate_and_sort_limit_at_any_thread_count() {
        let d = big_db();
        let join = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(2)))
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .aggregate(
                vec![Expr::col(4 + 1)],
                vec![AggExpr::new(AggFunc::Sum, Expr::col(0))],
            )
            .build();
        assert_identical_unordered(&join, &d, "join+agg");
        let reference = VolcanoEngine.execute(&join, &d).unwrap();
        reference.assert_same(
            &CompiledEngine::with_threads(4).execute(&join, &d).unwrap(),
            "join+agg vs volcano",
        );
        let sort = QueryBuilder::scan("t")
            .project(vec![Expr::col(1), Expr::col(0)])
            .sort(vec![(Expr::col(0), true), (Expr::col(1), false)])
            .limit(37)
            .build();
        assert_identical(&sort, &d, "sort+limit");
    }

    #[test]
    fn overlay_tombstones_and_tail_in_order_at_any_thread_count() {
        use pdsm_storage::row::Row;
        struct WithOverlay<'a> {
            db: &'a HashMap<String, Table>,
            overlay: Overlay<'a>,
        }
        impl TableProvider for WithOverlay<'_> {
            fn table(&self, name: &str) -> Option<&Table> {
                self.db.get(name)
            }
            fn overlay(&self, _: &str) -> Option<Overlay<'_>> {
                Some(self.overlay)
            }
        }
        let d = big_db();
        let mut dead = vec![false; 20_000];
        dead[3] = true;
        dead[19_993] = true;
        let row = |a: i32| {
            Row(vec![
                Value::Int32(a),
                Value::Int32(3),
                Value::Str("name-new".into()),
                Value::Float64(0.25),
            ])
        };
        let tail = vec![row(50_000), row(50_001)];
        let p = WithOverlay {
            db: &d,
            overlay: Overlay {
                dead: &dead,
                tail: &tail,
                tail_alive: &[true, false],
            },
        };
        let scan = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(3)))
            .build();
        let agg = QueryBuilder::scan("t")
            .filter(Expr::col(1).eq(Expr::lit(3)))
            .aggregate(
                vec![Expr::col(2)],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build();
        let one = CompiledEngine::new().execute(&scan, &p).unwrap();
        for n in THREADS {
            let many = CompiledEngine::with_threads(n).execute(&scan, &p).unwrap();
            assert_eq!(one.rows, many.rows, "threads={n}");
            VolcanoEngine.execute(&agg, &p).unwrap().assert_same(
                &CompiledEngine::with_threads(n).execute(&agg, &p).unwrap(),
                "agg",
            );
        }
        // tombstoned rows are gone; the live tail row comes last
        assert!(!one.rows.iter().any(|r| r[0] == Value::Int32(3)));
        assert_eq!(one.rows.last().unwrap()[0], Value::Int32(50_000));
    }

    #[test]
    fn empty_scan_yields_null_row_at_any_thread_count() {
        let d = db_of(0);
        let plan = QueryBuilder::scan("t")
            .aggregate(
                vec![],
                vec![
                    AggExpr::count_star(),
                    AggExpr::new(AggFunc::Sum, Expr::col(0)),
                ],
            )
            .build();
        for n in THREADS {
            let out = CompiledEngine::with_threads(n).execute(&plan, &d).unwrap();
            assert_eq!(
                out.rows,
                vec![vec![Value::Int64(0), Value::Null]],
                "threads={n}"
            );
        }
    }

    #[test]
    fn unknown_table_error_at_any_thread_count() {
        let d: HashMap<String, Table> = HashMap::new();
        let plan = QueryBuilder::scan("missing").build();
        for n in THREADS {
            let err = CompiledEngine::with_threads(n)
                .execute(&plan, &d)
                .unwrap_err();
            assert_eq!(err, ExecError::UnknownTable("missing".into()));
        }
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(CompiledEngine::new().threads(), 1);
        assert_eq!(CompiledEngine::default().threads(), 1);
        assert_eq!(CompiledEngine::with_threads(0).threads(), 1);
        assert_eq!(CompiledEngine::with_threads(3).threads(), 3);
    }

    #[test]
    fn float_sensitivity_detection() {
        // k: Int32, v: Int64, f: Float64
        let floats = [false, false, true];
        let sum = |e: Expr| AggExpr::new(AggFunc::Sum, e);
        assert!(float_sensitive(&sum(Expr::col(2)), &floats));
        assert!(float_sensitive(
            &sum(Expr::col(1).mul(Expr::lit(0.5))),
            &floats
        ));
        assert!(!float_sensitive(&sum(Expr::col(1)), &floats));
        assert!(!float_sensitive(
            &AggExpr::new(AggFunc::Count, Expr::col(2)),
            &floats
        ));
        assert!(!float_sensitive(&AggExpr::count_star(), &floats));
        // avg always finishes through the float running sum, even over ints
        assert!(float_sensitive(
            &AggExpr::new(AggFunc::Avg, Expr::col(1)),
            &floats
        ));
        // through projections and joins, columns keep their float flags
        let d = db();
        let tf = |n: &str| table_floats(&d, n);
        let over = |input: LogicalPlan, arg: Expr| {
            QueryBuilder::from_plan(input)
                .aggregate(vec![], vec![AggExpr::new(AggFunc::Max, arg)])
                .build()
        };
        let projected = QueryBuilder::scan("t")
            .project(vec![Expr::col(3), Expr::col(0)])
            .build();
        assert!(!merges_exactly(&over(projected.clone(), Expr::col(0)), &tf));
        assert!(merges_exactly(&over(projected, Expr::col(1)), &tf));
        let joined = QueryBuilder::scan("t")
            .join(QueryBuilder::scan("t").build(), Expr::col(0), Expr::col(0))
            .build();
        assert!(merges_exactly(&over(joined.clone(), Expr::col(4)), &tf));
        assert!(!merges_exactly(&over(joined, Expr::col(7)), &tf));
    }
}
