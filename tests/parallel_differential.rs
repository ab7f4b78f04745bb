//! Differential testing of the compiled engine across thread counts: on
//! the microbenchmark and CH workloads, `CompiledEngine::with_threads`
//! must produce results identical to every single-threaded engine, across
//! worker counts (1/2/4/8), storage layouts (row / column / advised
//! hybrid), and after relayouts. Thread count must never leak into query
//! results.

use mrdb::core::Planner;
use mrdb::prelude::*;
use mrdb::workloads::{ch, microbench};

mod common;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run `plan` on every registered engine plus the compiled engine at
/// pinned thread counts, asserting all outputs match the first engine's.
fn assert_all_engines_agree(db: &Database, plan: &mrdb::plan::logical::LogicalPlan, ctx: &str) {
    // Engines consume a TableProvider; under the shared-handle API that is
    // a snapshot pinned at the current version, not the database itself.
    let snap = db.snapshot();
    let base = common::assert_engines_agree(plan, &snap, ctx);
    for threads in THREAD_COUNTS {
        let engine = CompiledEngine::with_threads(threads);
        let out = engine
            .execute(plan, &snap)
            .unwrap_or_else(|e| panic!("{ctx}: compiled({threads}) failed: {e}"));
        base.assert_same(&out, &format!("{ctx}: compiled threads={threads}"));
    }
}

#[test]
fn microbench_all_layouts_all_threads() {
    let base = microbench::generate(40_000, 0.05, Layout::row(microbench::N_COLS), 11);
    for (layout_name, layout) in microbench::layouts() {
        let db = Database::new();
        db.register(base.relayout(layout).unwrap());
        for sel in [0.0, 0.01, 0.5] {
            let plan = microbench::query(sel);
            assert_all_engines_agree(&db, &plan, &format!("microbench {layout_name} sel={sel}"));
        }
    }
}

#[test]
fn microbench_exact_sums_survive_threading() {
    // Deterministic expectation, computed independently of any engine.
    let n = 30_000;
    let t = microbench::generate(n, 0.1, microbench::pdsm_layout(), 5);
    let mut expect = [0i64; 4];
    for r in 0..t.len() {
        if t.get(r, 0).unwrap() == Value::Int32(0) {
            for (slot, e) in expect.iter_mut().enumerate() {
                *e += t.get(r, slot + 1).unwrap().as_i64().unwrap();
            }
        }
    }
    let db = Database::new();
    db.register(t);
    let plan = microbench::query(0.1);
    let snap = db.snapshot();
    for threads in THREAD_COUNTS {
        let out = CompiledEngine::with_threads(threads)
            .execute(&plan, &snap)
            .unwrap();
        for (slot, e) in expect.iter().enumerate() {
            assert_eq!(
                out.rows[0][slot],
                Value::Int64(*e),
                "sum({}) at threads={threads}",
                slot + 1
            );
        }
    }
}

#[test]
fn ch_workload_row_layout() {
    let db = Database::new();
    for t in ch::tables(1, 13) {
        db.register(t);
    }
    for q in ch::queries() {
        let Some(plan) = q.as_plan() else { continue };
        assert_all_engines_agree(&db, plan, &format!("CH {} (row)", q.name));
    }
}

#[test]
fn ch_workload_columnar_layout() {
    let db = Database::new();
    for t in ch::tables(1, 13) {
        db.register(t);
    }
    for name in db.table_names() {
        let w = db.get_table(&name).unwrap().schema().len();
        db.relayout(&name, Layout::column(w)).unwrap();
    }
    for q in ch::queries() {
        let Some(plan) = q.as_plan() else { continue };
        assert_all_engines_agree(&db, plan, &format!("CH {} (columnar)", q.name));
    }
}

#[test]
fn ch_workload_advised_layout() {
    let db = Database::new();
    for t in ch::tables(1, 13) {
        db.register(t);
    }
    let mut workload = Workload::new();
    for q in ch::queries() {
        if let Some(p) = q.as_plan() {
            workload.push(WorkloadQuery::new(q.name.clone(), p.clone()));
        }
    }
    LayoutAdvisor::default().apply(&db, &workload).unwrap();
    for q in ch::queries() {
        let Some(plan) = q.as_plan() else { continue };
        assert_all_engines_agree(&db, plan, &format!("CH {} (advised)", q.name));
    }
}

#[test]
fn parallel_scan_order_is_byte_identical_to_compiled() {
    // Non-aggregating plans promise *exact* row order, not just set
    // equality: per-morsel buffers must stitch back into scan order.
    let t = microbench::generate(25_000, 0.2, microbench::pdsm_layout(), 3);
    let db = Database::new();
    db.register(t);
    let plan = mrdb::plan::builder::QueryBuilder::scan("R")
        .filter(mrdb::plan::expr::Expr::col(0).eq(mrdb::plan::expr::Expr::lit(0)))
        .project(vec![
            mrdb::plan::expr::Expr::col(1),
            mrdb::plan::expr::Expr::col(15),
        ])
        .build();
    let compiled = db.run(&plan, EngineKind::Compiled).unwrap();
    assert!(!compiled.is_empty());
    let snap = db.snapshot();
    for threads in THREAD_COUNTS {
        let par = CompiledEngine::with_threads(threads)
            .execute(&plan, &snap)
            .unwrap();
        assert_eq!(compiled.rows, par.rows, "threads={threads}");
    }
}

/// The multi-core CI target, asserted rather than just recorded: the
/// compiled scan ≥2× faster at 4 threads than at 1. Opt-in via
/// `PDSM_ASSERT_SCALING=1` (the `multicore` CI job sets it) so laptop
/// `cargo test` runs never flake on timing; self-skips with a logged
/// notice when the host has fewer than 4 cores (hosted runners vary).
#[test]
fn parallel_scan_scaling_asserted_on_multicore() {
    if std::env::var("PDSM_ASSERT_SCALING").is_err() {
        eprintln!("notice: PDSM_ASSERT_SCALING unset; skipping the ≥2x @ 4-thread assertion");
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("notice: only {cores} core(s) available; skipping the ≥2x @ 4-thread assertion");
        return;
    }
    let db = Database::new();
    db.register(microbench::generate(
        2_000_000,
        0.05,
        microbench::pdsm_layout(),
        17,
    ));
    let plan = microbench::query(0.05);
    let snap = db.snapshot();
    let best_of = |threads: usize| -> f64 {
        let engine = CompiledEngine::with_threads(threads);
        // warm-up, then best of 5 (scaling is about capacity, not noise)
        let _ = engine.execute(&plan, &snap).unwrap();
        (0..5)
            .map(|_| {
                let t0 = std::time::Instant::now();
                std::hint::black_box(engine.execute(&plan, &snap).unwrap());
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let t1 = best_of(1);
    let t4 = best_of(4);
    let speedup = t1 / t4;
    eprintln!("compiled scan scaling: 1t {t1:.4}s, 4t {t4:.4}s -> {speedup:.2}x");
    assert!(
        speedup >= 2.0,
        "the compiled scan must scale ≥2x at 4 threads on a ≥4-core host \
         (got {speedup:.2}x: 1t {t1:.4}s vs 4t {t4:.4}s)"
    );
}

#[test]
fn thread_knob_resolution() {
    // An explicit count wins, zero means one, and the database default is
    // always at least one worker. The PDSM_THREADS environment path is
    // exercised out of process (the CI thread-count matrix): mutating the
    // environment from inside this multi-threaded test binary would race
    // with sibling tests reading it.
    assert_eq!(CompiledEngine::with_threads(5).threads(), 5);
    assert_eq!(CompiledEngine::with_threads(0).threads(), 1);
    assert_eq!(CompiledEngine::new().threads(), 1);
    assert!(mrdb::exec::default_threads() >= 1);
}

#[test]
fn float_grouped_sum_plans_on_one_thread_and_is_bit_identical() {
    let db = Database::new();
    db.create_table(
        "F",
        Schema::new(vec![
            ColumnDef::new("k", DataType::Int32),
            ColumnDef::new("x", DataType::Float64),
        ]),
    )
    .unwrap();
    // Magnitudes spread over many binades, so a reassociated sum would
    // change low-order bits.
    for i in 0..60_000i32 {
        let x = (i as f64 * 0.37).sin() * 10f64.powi(i % 9);
        db.insert("F", &[Value::Int32(i % 13), Value::Float64(x)])
            .unwrap();
    }
    let plan = QueryBuilder::scan("F")
        .aggregate(
            vec![Expr::col(0)],
            vec![AggExpr::new(AggFunc::Sum, Expr::col(1))],
        )
        .build();
    let phys = Planner {
        threads: 8,
        ..Default::default()
    }
    .plan(&db, &plan)
    .unwrap();
    assert_eq!(phys.threads, 1, "{}", phys.explain());
    assert!(phys.explain().contains("engine: compiled (threads 1)"));
    let bits = |threads: usize| {
        let out = db
            .run_with(&plan, &CompiledEngine::with_threads(threads))
            .unwrap();
        let mut rows: Vec<(i32, u64)> = out
            .rows
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Int32(k), Value::Float64(x)) => (*k, x.to_bits()),
                other => panic!("unexpected row {other:?}"),
            })
            .collect();
        rows.sort_unstable();
        rows
    };
    let one = bits(1);
    assert_eq!(one.len(), 13);
    assert_eq!(one, bits(8));
}
