//! The traced run: the same statements replayed in-process against a
//! `Database` opened the way `pdsm-server` opens it, with a span recorded
//! around each public call a statement makes on its way through the
//! layers.
//!
//! Spans live in memory until the replay ends. Nothing here feeds an
//! end-to-end metric.

use crate::stats::Span;
use crate::streams::{Expect, Stmt};
use pdsm_core::Database;
use pdsm_sql::{Response, Statement};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the planner chose for one read, with the cycles its execution
/// took.
#[derive(Debug, Clone)]
pub struct ReadInfo {
    pub engine: &'static str,
    pub indexed: bool,
    pub model_cost: f64,
    pub exec_cycles: u64,
    /// True unless the shared result-cache hit counters moved during the
    /// call. With two replay threads a concurrent hit on the other thread
    /// also counts, so this undercounts misses, never overcounts them.
    pub cache_miss: bool,
}

/// Everything one replay thread recorded.
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub reads: Vec<ReadInfo>,
    /// Statements whose in-process response broke their expectation.
    pub failed: usize,
    pub statements: usize,
}

/// Time-stamp counter, for cycle counts comparable with the cost model.
#[cfg(target_arch = "x86_64")]
fn cycles() -> u64 {
    // SAFETY: RDTSC reads a counter; it has no memory-safety preconditions
    // and every x86_64 CPU implements it.
    unsafe { std::arch::x86_64::_rdtsc() }
}

/// Without a time-stamp counter, nanoseconds stand in for cycles.
#[cfg(not(target_arch = "x86_64"))]
fn cycles() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Recorder<'a> {
    epoch: Instant,
    next_id: u64,
    out: &'a mut Trace,
}

impl Recorder<'_> {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent`.
    fn span<R>(
        &mut self,
        name: &'static str,
        stmt: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        let r = f();
        let end = self.now();
        self.out.spans.push(Span {
            id,
            parent,
            stmt,
            name,
            start,
            end,
        });
        r
    }
}

fn result_hits(db: &Database) -> u64 {
    let s = db.cache_stats().result;
    s.hits + s.fragment_hits
}

/// Replay `stmts` as connection `conn`, starting each no earlier than its
/// offset in `sent_at` from `epoch`, so the two connections interleave as
/// they did over the wire (the time the wire took becomes idle time).
/// Span ids and statement ids are unique across connections.
pub fn replay(
    db: &Arc<Database>,
    conn: usize,
    stmts: &[Stmt],
    sent_at: &[f64],
    epoch: Instant,
) -> Trace {
    let mut out = Trace::default();
    let base_id = (conn as u64) << 40;
    let mut rec = Recorder {
        epoch,
        next_id: base_id,
        out: &mut out,
    };
    for (i, (s, &due)) in stmts.iter().zip(sent_at).enumerate() {
        let due = epoch + Duration::from_secs_f64(due);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let stmt_id = base_id + i as u64;
        let root = rec.next_id;
        rec.next_id += 1;
        let start = rec.now();
        let resp = run_one(db, &mut rec, stmt_id, root, &s.sql);
        let mut wire = Vec::new();
        rec.span("sql.serialize", stmt_id, Some(root), || {
            pdsm_sql::write_response(&mut wire, &resp).expect("writing to memory")
        });
        let end = rec.now();
        rec.out.spans.push(Span {
            id: root,
            parent: None,
            stmt: stmt_id,
            name: s.class,
            start,
            end,
        });
        rec.out.statements += 1;
        let ok = match (&s.expect, &resp) {
            (Expect::Rows(n), Response::Rows { rows, .. }) => rows.len() == *n,
            (Expect::AnyRows, Response::Rows { .. }) => true,
            (Expect::Count(n), Response::Count(m)) => n == m,
            _ => false,
        };
        if !ok {
            rec.out.failed += 1;
        }
    }
    out
}

/// Parse, bind, plan and execute one statement the way a server session
/// does, with a span around each step.
fn run_one(db: &Arc<Database>, rec: &mut Recorder, stmt: u64, root: u64, sql: &str) -> Response {
    let err = |e: &dyn std::fmt::Display| Response::Error(e.to_string());
    let ast = match rec.span("sql.parse", stmt, Some(root), || pdsm_sql::parse(sql)) {
        Ok(a) => a,
        Err(e) => return err(&e),
    };
    let bound = match rec.span("sql.bind", stmt, Some(root), || pdsm_sql::bind(&ast, &**db)) {
        Ok(b) => b,
        Err(e) => return err(&e),
    };
    match bound {
        Statement::Query(plan) => {
            let phys = match rec.span("core.plan", stmt, Some(root), || db.plan_query(&plan)) {
                Ok(p) => p,
                Err(e) => return err(&e),
            };
            let hits = result_hits(db);
            let c0 = cycles();
            let result = rec.span("core.execute", stmt, Some(root), || db.execute(&plan));
            let exec_cycles = cycles().saturating_sub(c0);
            rec.out.reads.push(ReadInfo {
                engine: phys.engine.name(),
                indexed: phys.access().is_indexed(),
                model_cost: phys.cost.total(),
                exec_cycles,
                cache_miss: result_hits(db) == hits,
            });
            match result {
                Ok(r) => Response::Rows {
                    columns: r.columns.clone(),
                    rows: r.into_output().rows,
                },
                Err(e) => err(&e),
            }
        }
        Statement::Insert { table, rows } => {
            match rec.span("txn.insert", stmt, Some(root), || {
                db.insert_batch(&table, &rows)
            }) {
                Ok(ids) => Response::Count(ids.len()),
                Err(e) => err(&e),
            }
        }
        Statement::Update { table, sets, pred } => {
            match rec.span("txn.update", stmt, Some(root), || {
                db.update_where(&table, &sets, pred.as_ref())
            }) {
                Ok(n) => Response::Count(n),
                Err(e) => err(&e),
            }
        }
        Statement::Delete { table, pred } => {
            match rec.span("txn.delete", stmt, Some(root), || {
                db.delete_where(&table, pred.as_ref())
            }) {
                Ok(n) => Response::Count(n),
                Err(e) => err(&e),
            }
        }
        other => Response::Error(format!("the benchmark does not replay {other:?}")),
    }
}
