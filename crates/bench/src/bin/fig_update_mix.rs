//! **fig_update_mix** — the delta-store trade-off the versioned write path
//! (`pdsm-txn`) introduces, *before and after* decoupling maintenance from
//! the write path: read/write mixes (100/0, 95/5, 50/50) swept across
//! merge thresholds, in both merge modes:
//!
//! * `sync` — the pre-scheduler behavior: the writer's thread pays the
//!   whole O(table) fold whenever the delta crosses the threshold. Small
//!   thresholds ⇒ the 50/50 mix falls off a cliff (the p99 write latency
//!   *is* a full merge).
//! * `background` — the three-phase pipeline: the writer runs
//!   `begin_merge` (O(delta) cut) and later `finish_merge` (O(ops since
//!   cut) replay + swap); the fold itself runs on a worker thread. The
//!   writer never blocks on a full merge, so p99 write latency stays
//!   bounded at every threshold.
//!
//! Background mode applies the same **backpressure** rule the
//! `Database` write path uses (`PDSM_MERGE_MAX_LAG`-style): when the
//! delta outruns the in-flight build by `8 ×` the threshold, the writer
//! merges inline and the stale build is discarded — so `maxΔ` is bounded
//! at `8 × threshold` instead of growing with however far a 1-core
//! builder lags.
//!
//! A second scenario exercises the shared-handle API itself: N writer
//! threads ingesting into N **disjoint** tables through one
//! `Arc<Database>`, background scheduler merging under them — recording
//! cross-table write throughput per writer count (flat per-writer rows/s
//! on multi-core hosts = cross-table scaling).
//!
//! Besides the tables, the run emits a machine-readable
//! `BENCH_update_mix.json` (throughput + p99 write latency per
//! mix × threshold × mode, plus the multi-table scaling runs) so the
//! perf trajectory is recorded run over run.
//!
//! Usage: `cargo run -p pdsm-bench --release --bin fig_update_mix
//!         [--rows 200000] [--ops 4000] [--sel 0.05] [--engine compiled]
//!         [--threads 1] [--json BENCH_update_mix.json]`
//!
//! `--threads` sets the compiled engine's workers per pipeline.

use pdsm_bench::{fmt_num, percentile, print_table, Args, Json};
use pdsm_core::{Database, MaintenanceConfig, MaintenanceMode};
use pdsm_exec::engine::{CompiledEngine, Engine};
use pdsm_storage::{Layout, Value};
use pdsm_txn::{BuiltMain, MergeTicket, VersionedTable};
use pdsm_workloads::microbench;
use pdsm_workloads::mixed::{self, MixedOp, MIXES};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Backpressure factor the background mode applies (mirrors the
/// `Database` write path's `PDSM_MERGE_MAX_LAG` default).
const MAX_LAG: usize = 8;

/// The read engine: volcano, bulk, or (any other name) the compiled
/// engine at `threads` workers.
fn engine_of(name: &str, threads: usize) -> Box<dyn Engine> {
    match name {
        "volcano" => Box::new(pdsm_exec::engine::VolcanoEngine),
        "bulk" => Box::new(pdsm_exec::engine::BulkEngine),
        _ => Box::new(CompiledEngine::with_threads(threads)),
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Sync,
    Background,
}

impl Mode {
    fn name(&self) -> &'static str {
        match self {
            Mode::Sync => "sync",
            Mode::Background => "background",
        }
    }
}

struct MixResult {
    mix: &'static str,
    threshold: usize,
    mode: Mode,
    reads: u64,
    writes: u64,
    merges: u64,
    read_qps: f64,
    write_ops: f64,
    /// 99th-percentile single-write-op latency, microseconds. In sync
    /// mode this includes inline merges; in background mode it includes
    /// begin (cut) and finish (replay + swap) but never the fold.
    p99_write_us: f64,
    max_delta: usize,
}

/// The off-thread fold worker a background-mode run uses.
struct Builder {
    tx: Sender<(MergeTicket, Layout)>,
    rx: Receiver<pdsm_storage::Result<BuiltMain>>,
    _handle: std::thread::JoinHandle<()>,
}

impl Builder {
    fn spawn() -> Builder {
        let (tx, job_rx) = channel::<(MergeTicket, Layout)>();
        let (done_tx, rx) = channel();
        let handle = std::thread::spawn(move || {
            while let Ok((ticket, layout)) = job_rx.recv() {
                if done_tx.send(ticket.build(layout)).is_err() {
                    break;
                }
            }
        });
        Builder {
            tx,
            rx,
            _handle: handle,
        }
    }
}

fn run_mix(
    rows: usize,
    ops: usize,
    sel: f64,
    mix: (&'static str, f64),
    threshold: usize,
    engine: &dyn Engine,
    mode: Mode,
) -> MixResult {
    let base = microbench::generate(rows, sel, microbench::pdsm_layout(), 42);
    let mut t = VersionedTable::from_table(base);
    let mut live = mixed::live_ids(&t);
    let w = mixed::microbench_mix(ops, mix.1, sel, 7);
    let builder = match mode {
        Mode::Background => Some(Builder::spawn()),
        Mode::Sync => None,
    };
    let mut in_flight = false;

    let mut read_time = 0f64;
    let mut write_time = 0f64;
    let mut write_lats: Vec<f64> = Vec::new();
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut max_delta = 0usize;
    for op in &w.ops {
        match op {
            MixedOp::Read { plan } => {
                let t0 = Instant::now();
                let out = engine.execute(&w.plans[*plan].1, &t).expect("read");
                read_time += t0.elapsed().as_secs_f64();
                std::hint::black_box(out);
                reads += 1;
            }
            _ => {
                let gen_before = t.generation();
                let t0 = Instant::now();
                mixed::apply_write(&mut t, &mut live, op).expect("write");
                match (&builder, mode) {
                    (_, Mode::Sync) => {
                        if t.delta_rows() >= threshold {
                            t.merge().expect("merge");
                        }
                    }
                    (Some(b), Mode::Background) => {
                        // catch up a finished fold: replay + swap only
                        // (tolerating staleness — a backpressure merge may
                        // have preempted the build)
                        if in_flight {
                            if let Ok(built) = b.rx.try_recv() {
                                match t.finish_merge(built.expect("build")) {
                                    Ok(_) | Err(pdsm_storage::Error::StaleMergeBuild) => {}
                                    Err(e) => panic!("finish: {e}"),
                                }
                                in_flight = false;
                            }
                        }
                        // backpressure: the delta outran the builder by
                        // MAX_LAG thresholds — merge inline, stale the build
                        if in_flight && t.delta_rows() >= threshold.saturating_mul(MAX_LAG) {
                            t.merge().expect("backpressure merge");
                        }
                        if !in_flight && t.delta_rows() >= threshold {
                            let ticket = t.begin_merge().expect("begin");
                            let layout = ticket.snapshot().main().layout().clone();
                            b.tx.send((ticket, layout)).expect("send job");
                            in_flight = true;
                        }
                    }
                    (None, Mode::Background) => unreachable!(),
                }
                let dt = t0.elapsed().as_secs_f64();
                write_time += dt;
                write_lats.push(dt);
                writes += 1;
                // bookkeeping outside the timed section: a completed merge
                // renumbers ids, so the driver's live set must refresh
                if t.generation() != gen_before {
                    live = mixed::live_ids(&t);
                }
            }
        }
        max_delta = max_delta.max(t.delta_rows());
    }
    // quiesce: land any straggling fold before reading the counters
    // (stale if a backpressure merge preempted it)
    if in_flight {
        if let Some(b) = &builder {
            let built = b.rx.recv().expect("final build").expect("build");
            match t.finish_merge(built) {
                Ok(_) | Err(pdsm_storage::Error::StaleMergeBuild) => {}
                Err(e) => panic!("final finish: {e}"),
            }
        }
    }
    MixResult {
        mix: mix.0,
        threshold,
        mode,
        reads,
        writes,
        merges: t.write_stats().merges,
        read_qps: if read_time > 0.0 {
            reads as f64 / read_time
        } else {
            0.0
        },
        write_ops: if write_time > 0.0 {
            writes as f64 / write_time
        } else {
            0.0
        },
        p99_write_us: percentile(&write_lats, 0.99) * 1e6,
        max_delta,
    }
}

/// One multi-table scaling run: `writers` threads, each ingesting
/// `rows_each` rows into its own table through one shared
/// `Arc<Database>`, background scheduler merging under them.
struct MtResult {
    writers: usize,
    rows_each: usize,
    elapsed_s: f64,
    write_ops: f64,
    merges_applied: u64,
}

fn run_multi_table(writers: usize, rows_each: usize, threshold: usize) -> MtResult {
    let db = Arc::new(Database::with_maintenance(MaintenanceConfig {
        mode: MaintenanceMode::Background,
        merge_threshold: threshold as u64,
        advise_on_merge: false,
        ..Default::default()
    }));
    for w in 0..writers {
        db.create_table(
            &format!("t{w}"),
            pdsm_storage::Schema::new(vec![
                pdsm_storage::ColumnDef::new("k", pdsm_storage::DataType::Int32),
                pdsm_storage::ColumnDef::new("v", pdsm_storage::DataType::Int64),
            ]),
        )
        .expect("create");
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for w in 0..writers {
            let db = Arc::clone(&db);
            s.spawn(move || {
                let table = format!("t{w}");
                for i in 0..rows_each {
                    db.insert(
                        &table,
                        &[
                            Value::Int32(i as i32),
                            Value::Int64((w * rows_each + i) as i64),
                        ],
                    )
                    .expect("insert");
                }
            });
        }
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    db.flush_maintenance().expect("flush");
    let stats = db.maintenance_stats();
    MtResult {
        writers,
        rows_each,
        elapsed_s,
        write_ops: (writers * rows_each) as f64 / elapsed_s,
        merges_applied: stats.builds_applied + stats.sync_merges,
    }
}

fn main() {
    let args = Args::parse();
    let rows: usize = args.get("rows", 200_000);
    let ops: usize = args.get("ops", 4_000);
    let sel: f64 = args.get("sel", 0.05);
    let threads: usize = args.get("threads", 1);
    let engine = engine_of(&args.get::<String>("engine", "compiled".into()), threads);
    let json_path: String = args.get("json", "BENCH_update_mix.json".into());

    println!(
        "fig_update_mix — {rows} base rows, {ops} ops, sel {sel}, engine {} ({threads} thread(s))\n",
        engine.name()
    );
    println!("read/write mixes x merge thresholds x merge mode (sync = fold on the writer's");
    println!("thread; background = three-phase pipeline, fold on a worker):\n");

    let thresholds = [64usize, 1_024, 16_384, usize::MAX];
    let mut results = Vec::new();
    let mut out_rows = Vec::new();
    for mix in MIXES {
        for &threshold in &thresholds {
            // pure-read mix never merges; one threshold/mode row suffices
            if mix.1 >= 1.0 && threshold != thresholds[0] {
                continue;
            }
            for mode in [Mode::Sync, Mode::Background] {
                if mix.1 >= 1.0 && mode == Mode::Background {
                    continue;
                }
                let r = run_mix(rows, ops, sel, mix, threshold, engine.as_ref(), mode);
                out_rows.push(vec![
                    r.mix.to_string(),
                    if mix.1 >= 1.0 {
                        "-".into()
                    } else if r.threshold == usize::MAX {
                        "never".into()
                    } else {
                        r.threshold.to_string()
                    },
                    if mix.1 >= 1.0 {
                        "-".into()
                    } else {
                        r.mode.name().into()
                    },
                    r.reads.to_string(),
                    r.writes.to_string(),
                    r.merges.to_string(),
                    r.max_delta.to_string(),
                    fmt_num(r.read_qps),
                    if r.writes == 0 {
                        "-".into()
                    } else {
                        fmt_num(r.write_ops)
                    },
                    if r.writes == 0 {
                        "-".into()
                    } else {
                        format!("{:.0}", r.p99_write_us)
                    },
                ]);
                results.push(r);
            }
        }
    }
    print_table(
        &[
            "mix",
            "merge@",
            "mode",
            "reads",
            "writes",
            "merges",
            "maxΔ",
            "read/s",
            "write/s",
            "p99wr(µs)",
        ],
        &out_rows,
    );
    println!(
        "\n(read/s excludes write+merge time and vice versa; maxΔ = largest delta a scan saw;"
    );
    println!("p99wr = 99th-pct write-op latency — sync mode pays whole folds inline, background");
    println!("mode pays only cut + replay + swap)");

    // --- multi-table cross-table write scaling (shared Database handle) ---
    let rows_each = (rows / 4).max(10_000);
    println!("\nmulti-table ingest: N writers x N disjoint tables through one Arc<Database>");
    println!("(background merges @16384; flat per-writer rows/s = cross-table scaling):\n");
    let mut mt_results = Vec::new();
    let mut mt_rows = Vec::new();
    for writers in [1usize, 2, 4] {
        let r = run_multi_table(writers, rows_each, 16_384);
        mt_rows.push(vec![
            r.writers.to_string(),
            r.rows_each.to_string(),
            format!("{:.0}", r.elapsed_s * 1e3),
            fmt_num(r.write_ops),
            fmt_num(r.write_ops / r.writers as f64),
            r.merges_applied.to_string(),
        ]);
        mt_results.push(r);
    }
    print_table(
        &[
            "writers",
            "rows/writer",
            "ms",
            "write/s",
            "write/s/writer",
            "merges",
        ],
        &mt_rows,
    );

    let json = Json::obj(vec![
        ("bench", Json::Str("fig_update_mix".into())),
        ("rows", Json::Int(rows as i64)),
        ("ops", Json::Int(ops as i64)),
        ("sel", Json::Num(sel)),
        ("engine", Json::Str(engine.name().into())),
        ("threads", Json::Int(threads as i64)),
        (
            "results",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("mix", Json::Str(r.mix.into())),
                            (
                                "threshold",
                                if r.threshold == usize::MAX {
                                    Json::Str("never".into())
                                } else {
                                    Json::Int(r.threshold as i64)
                                },
                            ),
                            ("mode", Json::Str(r.mode.name().into())),
                            ("reads", Json::Int(r.reads as i64)),
                            ("writes", Json::Int(r.writes as i64)),
                            ("merges", Json::Int(r.merges as i64)),
                            ("read_per_s", Json::Num(r.read_qps)),
                            ("write_per_s", Json::Num(r.write_ops)),
                            ("p99_write_us", Json::Num(r.p99_write_us)),
                            ("max_delta", Json::Int(r.max_delta as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "multi_table",
            Json::Arr(
                mt_results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("writers", Json::Int(r.writers as i64)),
                            ("rows_per_writer", Json::Int(r.rows_each as i64)),
                            ("elapsed_s", Json::Num(r.elapsed_s)),
                            ("write_per_s", Json::Num(r.write_ops)),
                            (
                                "write_per_s_per_writer",
                                Json::Num(r.write_ops / r.writers as f64),
                            ),
                            ("merges_applied", Json::Int(r.merges_applied as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    match std::fs::write(&json_path, json.render() + "\n") {
        Ok(()) => println!("\nwrote {json_path}"),
        Err(e) => eprintln!("\ncould not write {json_path}: {e}"),
    }
}
