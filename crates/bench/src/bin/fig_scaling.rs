//! **Thread scaling** — rows/sec of the compiled engine on a scan-heavy
//! query, swept over worker counts (`CompiledEngine::with_threads`), with
//! one thread as the 1x reference.
//!
//! Query: the Fig.-3 microbenchmark (`select sum(B),sum(C),sum(D),sum(E)
//! from R where A = 0`) — one fused scan-filter-aggregate pipeline, the
//! shape where morsel parallelism should approach linear scaling until the
//! memory bus saturates.
//!
//! Expected shape (on a multi-core box): ≥2x at 4 threads over 1 thread;
//! the hybrid PDSM layout scales best because each morsel's working set is
//! smallest. On a single-core container every row collapses to ~1x — the
//! fixture still validates the machinery (morsel claiming, merging) and
//! result equality. Each thread count's result is asserted identical to
//! the one-thread result.
//!
//! Usage: `cargo run -p pdsm-bench --release --bin fig_scaling
//!         [--rows 2000000] [--sel 0.02] [--reps 3] [--threads 1,2,4,8,16]`

use pdsm_bench::{fmt_num, measure, print_table, Args};
use pdsm_exec::engine::{CompiledEngine, Engine};
use pdsm_storage::Table;
use pdsm_workloads::microbench;
use std::collections::HashMap;

fn main() {
    let args = Args::parse();
    let rows: usize = args.get("rows", 2_000_000);
    let sel: f64 = args.get("sel", 0.02);
    let reps: usize = args.get("reps", 3);
    let threads_arg: String = args.get("threads", String::from("1,2,4,8"));
    let thread_counts: Vec<usize> = threads_arg
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();

    println!(
        "Thread scaling — {} rows, selectivity {}, {} hardware threads available\n",
        rows,
        sel,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    let plan = microbench::query(sel);
    let mut out_rows = Vec::new();
    for (lname, layout) in microbench::layouts() {
        let t: Table = microbench::generate(rows, sel, layout, 42);
        let mut db = HashMap::new();
        db.insert("R".to_string(), t);

        // Always measure a true 1-thread baseline so the "vs 1 thread"
        // column is meaningful even when 1 is absent from --threads.
        let baseline = CompiledEngine::new();
        let reference = baseline.execute(&plan, &db).expect("run");
        let (_, base_ns) = measure(reps, || baseline.execute(&plan, &db).expect("run"));
        for &n in &thread_counts {
            let engine = CompiledEngine::with_threads(n);
            let out = engine.execute(&plan, &db).expect("run");
            assert_eq!(reference.rows, out.rows, "{n} threads must match 1 thread");
            let ns = if n == 1 {
                base_ns
            } else {
                measure(reps, || engine.execute(&plan, &db).expect("run")).1
            };
            let rps = rows as f64 / (ns as f64 / 1e9);
            out_rows.push(vec![
                lname.to_string(),
                format!("compiled/{n}t"),
                fmt_num(ns as f64),
                fmt_num(rps),
                format!("{:.2}", base_ns as f64 / ns as f64),
            ]);
        }
    }
    print_table(
        &["layout", "engine", "ns/query", "rows/sec", "vs 1 thread"],
        &out_rows,
    );
    println!("\nExpected shape: rows/sec grows with threads until cores or memory");
    println!("bandwidth run out; >=2x at 4 threads on a >=4-core machine. Results are");
    println!("asserted identical to the one-thread result at every thread count.");
}
