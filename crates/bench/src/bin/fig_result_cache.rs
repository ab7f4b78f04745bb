//! **fig_result_cache** — what the mid-query result cache is worth, and
//! what it costs when it cannot help.
//!
//! Four experiments over the microbench table `R`:
//!
//! * **steady state** — one admitted scan-heavy aggregate executed
//!   repeatedly with the cache on vs. a cache-off twin database: p50/p99
//!   latency, hit rate, and the headline p50 speedup (target ≥ 5×, hit
//!   rate ≥ 90%).
//! * **off overhead** — cache disabled, `execute` vs. the emulated
//!   pre-cache path (`plan_query` + `run`): the cache machinery must cost
//!   ≤ 2% when it is off.
//! * **repeat rate** — round-robin pools of 1 / 4 / 16 distinct queries:
//!   hit rate and mean latency as reuse gets rarer.
//! * **invalidation churn** — a 95/5 read/write mix: every write moves the
//!   table's `(generation, delta_ops)` token and kills the resident
//!   entries, so the hit rate is bounded by the run length between writes.
//!
//! Emits `BENCH_result_cache.json`.
//!
//! Usage: `cargo run -p pdsm-bench --release --bin fig_result_cache
//!         [--rows 200000] [--reps 200] [--json BENCH_result_cache.json]`

use pdsm_bench::{fmt_num, percentile, print_table, Args, Json};
use pdsm_core::{Database, EngineKind, ResultCacheConfig};
use pdsm_plan::builder::QueryBuilder;
use pdsm_plan::expr::Expr;
use pdsm_plan::logical::{AggExpr, AggFunc, LogicalPlan};
use pdsm_storage::{Layout, Value};
use pdsm_workloads::microbench;
use std::time::Instant;

/// The `i`-th distinct admitted query: a filtered four-column sum whose
/// predicate touches a *data* column (values 0..1000), so zone maps can
/// never prune the scan to a free plan.
fn query(i: usize) -> LogicalPlan {
    let col = 1 + (i % 15);
    let bound = 100 + 50 * (i % 13) as i64;
    QueryBuilder::scan("R")
        .filter(Expr::col(col).lt(Expr::lit(bound)))
        .aggregate(
            vec![],
            (1..=4)
                .map(|c| AggExpr::new(AggFunc::Sum, Expr::col(c)))
                .collect(),
        )
        .build()
}

fn fresh_db(rows: usize, cfg: Option<ResultCacheConfig>) -> Database {
    let db = Database::new();
    db.register(microbench::generate(rows, 0.01, Layout::row(16), 7));
    if let Some(cfg) = cfg {
        db.set_result_cache(cfg);
    }
    db
}

/// Per-iteration wall latencies of `f` over `reps` runs (no warm-up: the
/// cold first iteration is the miss we want to see; steady-state numbers
/// slice it off).
fn sample(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_nanos() as f64);
    }
    out
}

fn main() {
    let args = Args::parse();
    let rows: usize = args.get("rows", 200_000);
    let reps: usize = args.get("reps", 200);
    let json_path: String = args.get("json", "BENCH_result_cache.json".into());

    // --- steady state: one admitted query, on vs off -------------------
    let on = fresh_db(rows, None);
    let off = fresh_db(
        rows,
        Some(ResultCacheConfig {
            enabled: false,
            ..Default::default()
        }),
    );
    let plan = query(0);
    assert_eq!(
        on.execute(&plan).unwrap().rows,
        off.execute(&plan).unwrap().rows,
        "cache-on and cache-off must agree before any timing matters"
    );
    let on_lat = sample(reps, || {
        on.execute(&plan).unwrap();
    });
    let off_lat = sample(reps, || {
        off.execute(&plan).unwrap();
    });
    // Steady state starts after the first (miss) iteration.
    let steady = &on_lat[1..];
    let on_p50 = percentile(steady, 0.50);
    let on_p99 = percentile(steady, 0.99);
    let off_p50 = percentile(&off_lat, 0.50);
    let off_p99 = percentile(&off_lat, 0.99);
    let speedup = off_p50 / on_p50.max(1.0);
    let hit_rate = on.cache_stats().result.hit_rate();

    // --- off overhead: execute vs the emulated pre-cache path ----------
    let pre = fresh_db(
        rows,
        Some(ResultCacheConfig {
            enabled: false,
            ..Default::default()
        }),
    );
    let q = query(1);
    let exec_lat = sample(reps, || {
        pre.execute(&q).unwrap();
    });
    let emu_lat = sample(reps, || {
        // What `execute` did before the result cache existed: plan-cache
        // lookup, then dispatch.
        let p = pre.plan_query(&q).unwrap();
        pre.run(&p.logical, EngineKind::Compiled).unwrap();
    });
    let exec_p50 = percentile(&exec_lat, 0.50);
    let emu_p50 = percentile(&emu_lat, 0.50);
    let off_overhead_pct = (exec_p50 - emu_p50) / emu_p50 * 100.0;

    // --- repeat rate: pools of distinct queries ------------------------
    let mut pool_rows: Vec<(usize, f64, f64)> = Vec::new(); // (pool, hit_rate, mean_ns)
    for pool in [1usize, 4, 16] {
        let db = fresh_db(rows, None);
        let plans: Vec<LogicalPlan> = (0..pool).map(query).collect();
        let iters = reps.max(pool * 4);
        let t0 = Instant::now();
        for i in 0..iters {
            db.execute(&plans[i % pool]).unwrap();
        }
        let mean = t0.elapsed().as_nanos() as f64 / iters as f64;
        pool_rows.push((pool, db.cache_stats().result.hit_rate(), mean));
    }

    // --- budgets: a 16-query pool under shrinking budgets --------------
    let mut budget_rows: Vec<(usize, f64, u64)> = Vec::new(); // (budget, hit_rate, evictions)
    for budget in [64usize << 20, 4 << 10, 1 << 10] {
        let db = fresh_db(
            rows,
            Some(ResultCacheConfig {
                enabled: true,
                budget_bytes: budget,
            }),
        );
        let plans: Vec<LogicalPlan> = (0..16).map(query).collect();
        for i in 0..reps.max(64) {
            db.execute(&plans[i % 16]).unwrap();
        }
        let s = db.cache_stats().result;
        budget_rows.push((budget, s.hit_rate(), s.evictions));
    }

    // --- invalidation churn: 95/5 read/write mix -----------------------
    let db = fresh_db(rows, None);
    let plans: Vec<LogicalPlan> = (0..4).map(query).collect();
    let iters = reps.max(100);
    let mut writes = 0u64;
    let mut row = vec![Value::Int32(0); 16];
    for i in 0..iters {
        // deterministic 95/5 mix
        if i % 20 == 19 {
            row[0] = Value::Int32(-(i as i32) - 1);
            db.insert("R", &row).unwrap();
            writes += 1;
        } else {
            db.execute(&plans[i % 4]).unwrap();
        }
    }
    let churn = db.cache_stats().result;

    // --- report --------------------------------------------------------
    print_table(
        &["experiment", "p50 ns", "p99 ns", "hit rate", "note"],
        &[
            vec![
                "steady cache-on".into(),
                fmt_num(on_p50),
                fmt_num(on_p99),
                format!("{:.1}%", hit_rate * 100.0),
                format!("{speedup:.1}x vs off"),
            ],
            vec![
                "steady cache-off".into(),
                fmt_num(off_p50),
                fmt_num(off_p99),
                "-".into(),
                "baseline".into(),
            ],
            vec![
                "cache-off overhead".into(),
                fmt_num(exec_p50),
                "-".into(),
                "-".into(),
                format!("{off_overhead_pct:+.2}% vs pre-cache path"),
            ],
        ],
    );
    println!();
    print_table(
        &["pool", "hit rate", "mean ns/query"],
        &pool_rows
            .iter()
            .map(|(p, h, m)| vec![format!("{p}"), format!("{:.1}%", h * 100.0), fmt_num(*m)])
            .collect::<Vec<_>>(),
    );
    println!();
    print_table(
        &["budget", "hit rate", "evictions"],
        &budget_rows
            .iter()
            .map(|(b, h, e)| vec![format!("{b}"), format!("{:.1}%", h * 100.0), format!("{e}")])
            .collect::<Vec<_>>(),
    );
    println!(
        "\n95/5 churn: {} writes, hit rate {:.1}%, {} invalidations, {} insertions",
        writes,
        churn.hit_rate() * 100.0,
        churn.invalidations,
        churn.insertions
    );
    println!(
        "\nsteady p50 speedup: {speedup:.1}x (target >= 5x), hit rate {:.1}% (target >= 90%), \
         off overhead {off_overhead_pct:+.2}% (target <= 2%)",
        hit_rate * 100.0
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("fig_result_cache".into())),
        ("rows", Json::Int(rows as i64)),
        ("reps", Json::Int(reps as i64)),
        ("steady_on_p50_ns", Json::Num(on_p50)),
        ("steady_on_p99_ns", Json::Num(on_p99)),
        ("steady_off_p50_ns", Json::Num(off_p50)),
        ("steady_off_p99_ns", Json::Num(off_p99)),
        ("steady_speedup_p50", Json::Num(speedup)),
        ("steady_hit_rate", Json::Num(hit_rate)),
        ("off_overhead_pct", Json::Num(off_overhead_pct)),
        (
            "repeat_pools",
            Json::Arr(
                pool_rows
                    .iter()
                    .map(|(p, h, m)| {
                        Json::obj(vec![
                            ("pool", Json::Int(*p as i64)),
                            ("hit_rate", Json::Num(*h)),
                            ("mean_ns", Json::Num(*m)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "budgets",
            Json::Arr(
                budget_rows
                    .iter()
                    .map(|(b, h, e)| {
                        Json::obj(vec![
                            ("budget_bytes", Json::Int(*b as i64)),
                            ("hit_rate", Json::Num(*h)),
                            ("evictions", Json::Int(*e as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "churn_95_5",
            Json::obj(vec![
                ("writes", Json::Int(writes as i64)),
                ("hit_rate", Json::Num(churn.hit_rate())),
                ("invalidations", Json::Int(churn.invalidations as i64)),
                ("insertions", Json::Int(churn.insertions as i64)),
            ]),
        ),
    ]);
    match std::fs::write(&json_path, json.render() + "\n") {
        Ok(()) => println!("wrote {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
}
