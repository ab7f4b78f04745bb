//! The compiled engine on N threads from the public API: same query,
//! every engine, plus pinned worker counts — all results must agree.
//!
//! Run: `cargo run --release --example parallel_scan`

use mrdb::prelude::*;

fn main() {
    let db = Database::new();
    let t = mrdb::workloads::microbench::generate(
        500_000,
        0.03,
        mrdb::workloads::microbench::pdsm_layout(),
        42,
    );
    db.register(t);
    let plan = mrdb::workloads::microbench::query(0.03);

    println!("engines on `select sum(B),sum(C),sum(D),sum(E) from R where A = 0`:");
    let mut reference: Option<QueryOutput> = None;
    for kind in EngineKind::all() {
        let start = std::time::Instant::now();
        let out = db.run(&plan, kind).expect("query runs");
        let elapsed = start.elapsed();
        println!("  {kind:<10?} {:>9.1?}  {:?}", elapsed, out.rows[0]);
        if let Some(r) = &reference {
            r.assert_same(&out, &format!("{kind:?} vs reference"));
        } else {
            reference = Some(out.into_output());
        }
    }

    println!("\npinned worker counts (CompiledEngine::with_threads):");
    let reference = reference.expect("ran at least one engine");
    for threads in [1, 2, 4, 8] {
        let engine = CompiledEngine::with_threads(threads);
        let start = std::time::Instant::now();
        let out = db.run_with(&plan, &engine).expect("query runs");
        reference.assert_same(&out, "pinned threads");
        println!(
            "  {threads} thread(s): {:>9.1?}  (results identical)",
            start.elapsed()
        );
    }
    let phys = db.plan_query(&plan).expect("plans");
    println!(
        "\nplanned: {} on {} thread(s) (PDSM_THREADS or all cores: {} here)",
        phys.engine,
        phys.threads,
        mrdb::exec::default_threads()
    );
}
