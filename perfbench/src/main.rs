//! `perfbench` — SAP-SD over TCP through `pdsm-server`, end to end and
//! layer by layer.
//!
//! ```text
//! perfbench --server PATH --workload oltp-keyed|olap-fresh|htap-cold
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! One run starts the release server as a child process, loads SAP-SD
//! through its `--seed sapsd:SCALE:SEED` loader, and drives two closed-loop
//! connections for `S` seconds. It then checks the outputs, shuts the
//! server down, and prints a report line and, last, the result line.
//! With `--trace 1` it also replays the same statements in-process with a
//! span around each layer and prints the per-layer metrics instead of the
//! end-to-end ones. `README.md` beside this file describes the workloads
//! and metrics; `run.py` builds both binaries and runs this one.

mod json;
mod stats;
mod streams;
mod traced;
mod wire;

use json::J;
use pdsm_core::{BufferPool, Database, DurabilityConfig, EngineKind, MaintenanceConfig};
use pdsm_sql::{normalize_line, render_value, Fnv1a, Statement, WireResponse};
use pdsm_storage::{Table, Value};
use stats::{mean, median, percentile, ratio, self_times, Pct};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use streams::{Base, Expect, Stmt, Stream, Workload, CONNECTIONS};
use wire::{dir_bytes, Conn, Server};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const MB: f64 = 1024.0 * 1024.0;

/// Progress on stderr, stamped with seconds since the run started.
macro_rules! progress {
    ($t0:expr, $($arg:tt)*) => {
        eprintln!("perfbench [{:7.2}s] {}", $t0.elapsed().as_secs_f64(), format_args!($($arg)*))
    };
}

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(&value)),
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Removes the run's working directory however the run ends.
struct RunDir(PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Ops attempted and failed, over the timed statements and every check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }
}

/// The workload's fixed `PDSM_*` settings. They replace every inherited
/// one in this process (so the in-process traced and verification
/// databases see them) and are passed to each server it starts.
fn pin_env(w: Workload) -> Vec<(String, String)> {
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("PDSM_") {
            std::env::remove_var(k);
        }
    }
    let env: Vec<(String, String)> = w
        .env()
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    for (k, v) in &env {
        std::env::set_var(k, v);
    }
    env
}

/// A server that has finished set-up, and what set-up measured.
struct Ready {
    server: Server,
    secs: f64,
    checkpoint_bytes: u64,
    pool_budget: u64,
    data_dir: Option<PathBuf>,
}

/// Start a server for `w` in `dir` and bring it to ready: load, build
/// indexes, and for `htap-cold` checkpoint, stop and restart it cold with
/// a pool of half the checkpoint bytes.
fn set_up(args: &Args, env: &[(String, String)], dir: &Path) -> Result<Ready, String> {
    let w = args.workload;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let seed_arg = format!("sapsd:{}:{}", w.scale(), args.seed);
    let data_dir = w.durable().then(|| dir.join("data"));
    let mut spawn_args = vec!["--seed".to_string(), seed_arg];
    if let Some(d) = &data_dir {
        spawn_args.extend(["--data-dir".to_string(), d.display().to_string()]);
    }
    let t0 = Instant::now();
    let mut server =
        Server::spawn(&args.server, &spawn_args, env, dir).map_err(|e| e.to_string())?;
    let (mut checkpoint_bytes, mut pool_budget) = (0, 0);
    if w == Workload::HtapCold {
        server
            .shutdown()
            .map_err(|e| format!("seeding shutdown: {e}"))?;
        let d = data_dir.as_ref().expect("htap-cold is durable");
        checkpoint_bytes = dir_bytes(d);
        pool_budget = checkpoint_bytes / 2;
        let mut env = env.to_vec();
        env.push(("PDSM_POOL_BYTES".into(), pool_budget.to_string()));
        let restart = ["--data-dir".to_string(), d.display().to_string()];
        server = Server::spawn(&args.server, &restart, &env, dir).map_err(|e| e.to_string())?;
    }
    let mut conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
    for sql in w.setup_sql() {
        match conn.request(sql) {
            Ok(WireResponse::Count(0)) => {}
            other => return Err(format!("set-up {sql:?} answered {other:?}")),
        }
    }
    Ok(Ready {
        server,
        secs: t0.elapsed().as_secs_f64(),
        checkpoint_bytes,
        pool_budget,
        data_dir,
    })
}

/// One timed statement.
struct Sample {
    class: &'static str,
    read: bool,
    ms: f64,
    ok: bool,
}

/// What one connection did in the timed window.
struct ConnRun {
    stmts: Vec<Stmt>,
    samples: Vec<Sample>,
    /// Normalized result hash per statement (reads with unchecked content).
    hashes: Vec<Option<u64>>,
    /// Seconds from the common start to each statement's first byte.
    sent_at: Vec<f64>,
    /// Seconds from the common start to this connection's last reply.
    elapsed: f64,
}

/// The order-independent hash of a result, over the same text the wire
/// carries: header, then the float-normalized rows, sorted.
fn result_hash(header: &str, rows: impl Iterator<Item = String>) -> u64 {
    let mut lines: Vec<String> = rows.map(|l| normalize_line(&l)).collect();
    lines.sort();
    let mut h = Fnv1a::new();
    h.line(header);
    for l in &lines {
        h.line(l);
    }
    h.finish()
}

fn render_row(row: &[Value]) -> String {
    row.iter().map(render_value).collect::<Vec<_>>().join("\t")
}

/// Drive every connection in a closed loop until `seconds` have passed;
/// each connection finishes its statement in flight.
fn measure(args: &Args, base: &Base, addr: std::net::SocketAddr) -> Vec<ConnRun> {
    let start = Barrier::new(CONNECTIONS);
    let window = Duration::from_secs(args.seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let start = &start;
                s.spawn(move || {
                    let mut stream = Stream::new(args.workload, base, args.seed, conn);
                    let mut run = ConnRun {
                        stmts: Vec::new(),
                        samples: Vec::new(),
                        hashes: Vec::new(),
                        sent_at: Vec::new(),
                        elapsed: 0.0,
                    };
                    let client = Conn::connect(addr);
                    start.wait();
                    let t0 = Instant::now();
                    let Ok(mut client) = client else {
                        eprintln!("perfbench: connection {conn} could not connect");
                        return run;
                    };
                    while t0.elapsed() < window {
                        let stmt = stream.next().expect("streams are infinite");
                        let sent = Instant::now();
                        run.sent_at.push((sent - t0).as_secs_f64());
                        let resp = client.request(&stmt.sql);
                        let ms = sent.elapsed().as_secs_f64() * 1e3;
                        run.elapsed = t0.elapsed().as_secs_f64();
                        let (ok, hash) = match (&stmt.expect, &resp) {
                            (Expect::Rows(n), Ok(WireResponse::Rows { data, .. })) => {
                                (data.len() == *n, None)
                            }
                            (Expect::AnyRows, Ok(WireResponse::Rows { header, data })) => {
                                (true, Some(result_hash(header, data.iter().cloned())))
                            }
                            (Expect::Count(n), Ok(WireResponse::Count(m))) => (n == m, None),
                            _ => (false, None),
                        };
                        if !ok {
                            eprintln!("perfbench: conn {conn}: {:?} answered {resp:?}", stmt.sql);
                        }
                        run.samples.push(Sample {
                            class: stmt.class,
                            read: stmt.read,
                            ms,
                            ok,
                        });
                        run.hashes.push(hash);
                        run.stmts.push(stmt);
                        if resp.is_err() {
                            break;
                        }
                    }
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Compare each read's result with the same statement run in-process on
/// the compiled engine, which bypasses the planner and both caches.
/// Returns the compiled engine's milliseconds per statement class.
fn verify_reads(
    db: &Database,
    runs: &[ConnRun],
    tally: &mut Tally,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_sql: HashMap<&str, (&'static str, Vec<u64>)> = HashMap::new();
    for r in runs {
        for (s, h) in r.stmts.iter().zip(&r.hashes) {
            if let Some(h) = h {
                by_sql
                    .entry(s.sql.as_str())
                    .or_insert((s.class, Vec::new()))
                    .1
                    .push(*h);
            }
        }
    }
    let work: Vec<(&str, (&'static str, Vec<u64>))> = by_sql.into_iter().collect();
    let chunk = work.len().div_ceil(CONNECTIONS).max(1);
    let checked: Vec<(&str, &'static str, f64, Vec<bool>)> = std::thread::scope(|s| {
        let handles: Vec<_> = work
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|(sql, (class, hashes))| {
                            let t = Instant::now();
                            let want = reference_hash(db, sql);
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            (
                                *sql,
                                *class,
                                ms,
                                hashes.iter().map(|h| want == Ok(*h)).collect(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier panicked"))
            .collect()
    });
    let mut compiled_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (sql, class, ms, oks) in checked {
        compiled_ms.entry(class).or_default().push(ms);
        for ok in oks {
            tally.check(ok, || {
                format!("{sql:?} differs from the compiled engine's result")
            });
        }
    }
    compiled_ms
}

fn reference_hash(db: &Database, sql: &str) -> Result<u64, String> {
    let Statement::Query(plan) = pdsm_sql::compile(sql, db).map_err(|e| e.to_string())? else {
        return Err("not a query".into());
    };
    let r = db
        .run(&plan, EngineKind::Compiled)
        .map_err(|e| e.to_string())?;
    let header = r
        .columns
        .iter()
        .map(|c| render_value(&Value::Str(c.clone())))
        .collect::<Vec<_>>();
    Ok(result_hash(
        &header.join("\t"),
        r.output.rows.iter().map(|row| render_row(row)),
    ))
}

/// Read every table's final state over the wire and compare it with the
/// state the acknowledged writes imply.
fn verify_state(addr: std::net::SocketAddr, base: &Base, runs: &[ConnRun], tally: &mut Tally) {
    let deltas: Vec<_> = runs
        .iter()
        .flat_map(|r| r.stmts.iter().zip(&r.samples))
        .filter(|(_, s)| s.ok)
        .filter_map(|(st, _)| st.delta)
        .collect();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => return tally.check(false, || format!("verification connect: {e}")),
    };
    for (table, rows) in &base.rows {
        let (sql, want): (String, Vec<i64>) = if table == "VBAP" || table == "VBEP" {
            (
                streams::checksum_sql(table),
                streams::expected_checksum(base, table, &deltas).to_vec(),
            )
        } else {
            (format!("SELECT count(*) FROM {table}"), vec![*rows as i64])
        };
        let got: Option<Vec<i64>> = match conn.request(&sql) {
            Ok(WireResponse::Rows { data, .. }) if data.len() == 1 => data[0]
                .split('\t')
                .map(|f| f.parse::<f64>().ok().map(|x| x as i64))
                .collect(),
            _ => None,
        };
        tally.check(got.as_deref() == Some(&want[..]), || {
            format!("{table}: {sql:?} gave {got:?}, acknowledged writes imply {want:?}")
        });
    }
}

/// Name, unit and value of one reported metric, with its percentile
/// support when it is one.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// `Some` for a percentile: its support, or `None` without samples.
    pct: Option<Option<Pct>>,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        pct: None,
    }
}

fn pct_metric(name: &str, values: &[f64], q: f64, scale: f64, unit: &'static str) -> Metric {
    let pct = percentile(values, q);
    Metric {
        name: name.to_string(),
        unit,
        value: pct.map_or(0.0, |p| p.value * scale),
        pct: Some(pct),
    }
}

fn detail(m: &Metric) -> J {
    let mut f = vec![
        ("value".to_string(), J::Num(m.value)),
        ("unit".to_string(), J::str(m.unit)),
    ];
    match m.pct {
        Some(Some(p)) => {
            f.push(("samples".into(), J::Int(p.samples as i64)));
            f.push(("beyond".into(), J::Int(p.beyond as i64)));
            f.push(("supported".into(), J::Bool(p.supported())));
        }
        // A percentile without samples reads 0.
        Some(None) => f.push(("samples".into(), J::Int(0))),
        None => {}
    }
    J::Obj(f)
}

/// `(steal, total)` CPU time of the host so far, in jiffies, from the
/// first line of `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The checkout's revision: git's when it is a git checkout, and always a
/// digest of the sources, which identifies a checkout that is not.
fn revision() -> J {
    let git = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates"), PathBuf::from("src")];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else {
                files.push(p);
            }
        }
    }
    files.extend([PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")]);
    files.sort();
    let mut h = Fnv1a::new();
    for f in &files {
        h.line(&f.display().to_string());
        h.line(&String::from_utf8_lossy(
            &std::fs::read(f).unwrap_or_default(),
        ));
    }
    J::obj([
        ("git", git.map_or(J::str("none"), J::Str)),
        ("source_fnv64", J::str(format!("{:016x}", h.finish()))),
    ])
}

fn run(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    let w = args.workload;
    let env = pin_env(w);
    let run_dir = RunDir(PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&run_dir.0).map_err(|e| format!("run dir: {e}"))?;

    let tables = pdsm_workloads::sapsd::tables(w.scale(), args.seed);
    let base = Base::from_tables(w.scale(), &tables);
    // Loaded into the in-process database of the traced run or the read
    // check, whichever comes first.
    let mut tables = Some(tables);
    progress!(t0, "generated SAP-SD scale {}", w.scale());

    // Set up several times and keep the last server; set-up time is the
    // median. The traced run does not report set-up time.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup_secs = Vec::new();
    let mut ready = None;
    for rep in 0..reps {
        let dir = run_dir.0.join(format!("setup{rep}"));
        let r = set_up(args, &env, &dir)?;
        setup_secs.push(r.secs);
        progress!(t0, "set-up {}/{reps} ready in {:.3}s", rep + 1, r.secs);
        if rep + 1 < reps {
            r.server
                .shutdown()
                .map_err(|e| format!("set-up shutdown: {e}"))?;
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            ready = Some(r);
        }
    }
    let ready = ready.expect("at least one set-up");

    let cpu_before = cpu_jiffies();
    let runs = measure(args, &base, ready.server.addr);
    progress!(t0, "measured {}s", args.seconds);
    // Share of the window's CPU time the hypervisor gave to other guests;
    // it slows every CPU-bound metric of the run.
    let steal = cpu_before
        .zip(cpu_jiffies())
        .map(|((s0, t0), (s1, t1))| ratio((s1 - s0) as f64, (t1 - t0) as f64));

    // Counters and sizes at the end of the timed window.
    let stats: HashMap<String, i64> = Conn::connect(ready.server.addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("STATS: {e}"))?
        .into_iter()
        .collect();
    let peak_rss = ready.server.peak_rss_bytes().map_err(|e| e.to_string())?;
    let disk = ready.data_dir.as_deref().map(dir_bytes);

    // Failed statements were reported as they happened.
    let mut tally = Tally::default();
    for s in runs.iter().flat_map(|r| &r.samples) {
        tally.attempted += 1;
        tally.failed += u64::from(!s.ok);
    }
    if w.durable() {
        verify_state(ready.server.addr, &base, &runs, &mut tally);
    }
    let addr = ready.server.addr;
    tally.check(ready.server.shutdown().is_ok(), || {
        format!("server at {addr} did not shut down cleanly")
    });
    progress!(t0, "checked final state and shut down");

    // In-process database for the traced replay and the read check.
    let traced = if args.trace {
        let tables = tables.take().expect("tables are loaded once");
        let t = trace_run(args, tables, &runs, &run_dir.0.join("traced"))?;
        progress!(t0, "traced replay of {} statements", t.statements);
        Some(t)
    } else {
        None
    };
    let mut compiled_ms = BTreeMap::new();
    if w == Workload::OlapFresh {
        let db = match &traced {
            Some(t) => Arc::clone(&t.db),
            None => {
                let db = Database::new();
                for t in tables.take().expect("tables are loaded once") {
                    db.register(t);
                }
                Arc::new(db)
            }
        };
        compiled_ms = verify_reads(&db, &runs, &mut tally);
        progress!(t0, "checked reads against the compiled engine");
    }

    // End-to-end metrics.
    let ok: Vec<&Sample> = runs
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| s.ok)
        .collect();
    let lat =
        |read: bool| -> Vec<f64> { ok.iter().filter(|s| s.read == read).map(|s| s.ms).collect() };
    let (reads, writes) = (lat(true), lat(false));
    let window = runs.iter().map(|r| r.elapsed).fold(0.0, f64::max);
    let e2e = vec![
        metric("throughput_sps", "1/s", ratio(ok.len() as f64, window)),
        pct_metric("read_p50_ms", &reads, 0.50, 1.0, "ms"),
        metric("setup_s", "s", median(&setup_secs)),
        metric("peak_rss_mb", "MB", peak_rss as f64 / MB),
    ];
    // Reported, not gated: the read tail moves by more than the bounds
    // between runs of the same code, and the write and disk metrics do not
    // apply to every workload.
    let mut extra = vec![
        pct_metric("read_p90_ms", &reads, 0.90, 1.0, "ms"),
        pct_metric("read_p95_ms", &reads, 0.95, 1.0, "ms"),
        pct_metric("read_p99_ms", &reads, 0.99, 1.0, "ms"),
    ];
    if !writes.is_empty() {
        extra.push(pct_metric("write_p50_ms", &writes, 0.50, 1.0, "ms"));
        extra.push(pct_metric("write_p99_ms", &writes, 0.99, 1.0, "ms"));
    }
    if let Some(d) = disk {
        extra.push(metric("disk_mb", "MB", d as f64 / MB));
    }

    let mut classes: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in runs.iter().flat_map(|r| &r.samples) {
        classes.entry(s.class).or_default().push(s.ms);
    }
    let executed_ms = traced.as_ref().map(execute_ms_by_class).unwrap_or_default();
    let layer = traced.as_ref().map(|t| per_layer(t, &runs, &stats));
    let class_detail = |c: &str, v: &[f64]| {
        let mut f = vec![
            ("count", J::Int(v.len() as i64)),
            ("p50_ms", J::Num(median(v))),
        ];
        // The planner's choice in the traced run against the compiled
        // engine alone, both in-process on two threads.
        if let Some(e) = executed_ms.get(c) {
            f.push(("traced_execute_p50_ms", J::Num(median(e))));
        }
        if let Some(e) = compiled_ms.get(c) {
            f.push(("compiled_run_p50_ms", J::Num(median(e))));
        }
        J::obj(f)
    };
    let all_sql = || runs.iter().flat_map(|r| r.stmts.iter());
    let report = J::obj([
        ("workload", J::str(w.name())),
        ("seed", J::Int(args.seed as i64)),
        ("seconds", J::Int(args.seconds as i64)),
        ("trace", J::Bool(args.trace)),
        (
            "host",
            J::obj([
                (
                    "nproc",
                    J::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
                ),
                ("arch", J::str(std::env::consts::ARCH)),
                ("revision", revision()),
                ("cpu_steal_share", steal.map_or(J::str("unknown"), J::Num)),
            ]),
        ),
        (
            "settings",
            J::obj([
                (
                    "pinned_env",
                    J::Obj(env.iter().map(|(k, v)| (k.clone(), J::str(v))).collect()),
                ),
                ("other_pdsm_env", J::str("unset (program defaults)")),
                ("connections", J::Int(CONNECTIONS as i64)),
                ("client_threads", J::Int(CONNECTIONS as i64)),
                ("loop", J::str("closed")),
                ("scale", J::Int(w.scale() as i64)),
                ("durable", J::Bool(w.durable())),
            ]),
        ),
        (
            "sizes",
            J::obj([
                (
                    "rows",
                    J::Obj(
                        base.rows
                            .iter()
                            .map(|(t, n)| (t.clone(), J::Int(*n as i64)))
                            .collect(),
                    ),
                ),
                ("checkpoint_bytes", J::Int(ready.checkpoint_bytes as i64)),
                ("pool_budget_bytes", J::Int(ready.pool_budget as i64)),
            ]),
        ),
        (
            "setup_s_reps",
            J::Arr(setup_secs.iter().map(|&s| J::Num(s)).collect()),
        ),
        (
            "classes",
            J::Obj(
                classes
                    .iter()
                    .map(|(c, v)| (c.to_string(), class_detail(c, v)))
                    .collect(),
            ),
        ),
        (
            "repeat_share",
            J::obj([
                (
                    "all",
                    J::Num(stats::repeat_share(all_sql().map(|s| s.sql.as_str()))),
                ),
                (
                    "reads",
                    J::Num(stats::repeat_share(
                        all_sql().filter(|s| s.read).map(|s| s.sql.as_str()),
                    )),
                ),
            ]),
        ),
        (
            "end_to_end",
            J::Obj(
                e2e.iter()
                    .chain(&extra)
                    .map(|m| (m.name.clone(), detail(m)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            J::Obj(
                layer
                    .iter()
                    .flatten()
                    .map(|m| (m.name.clone(), detail(m)))
                    .collect(),
            ),
        ),
        (
            "stats",
            J::Obj(
                stats
                    .iter()
                    .collect::<BTreeMap<_, _>>()
                    .into_iter()
                    .map(|(k, v)| (k.clone(), J::Int(*v)))
                    .collect(),
            ),
        ),
        ("attempted", J::Int(tally.attempted as i64)),
        ("failed", J::Int(tally.failed as i64)),
    ]);
    println!("{}", J::obj([("report", report)]));

    if let Some(t) = &traced {
        tally.attempted += t.statements as u64;
        tally.failed += t.failed as u64;
    }
    let shown = layer.unwrap_or(e2e);
    let result = J::obj([
        ("correct", J::Bool(tally.failed == 0)),
        ("attempted", J::Int(tally.attempted as i64)),
        ("failed", J::Int(tally.failed as i64)),
        (
            "metrics",
            J::Obj(
                shown
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            J::obj([("value", J::Num(m.value)), ("unit", J::str(m.unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(())
}

/// The traced replay's outputs.
struct Traced {
    db: Arc<Database>,
    spans: Vec<stats::Span>,
    reads: Vec<traced::ReadInfo>,
    statements: usize,
    failed: usize,
    scan: pdsm_core::ScanCounters,
    storage: (pdsm_core::StorageStats, pdsm_core::StorageStats),
    merges: u64,
}

/// Open an in-process database the way `pdsm-server` does for `w`, then
/// replay each connection's executed statements on its own thread.
fn trace_run(
    args: &Args,
    tables: Vec<Table>,
    runs: &[ConnRun],
    dir: &Path,
) -> Result<Traced, String> {
    let w = args.workload;
    let e = |e: pdsm_core::DbError| e.to_string();
    let data = dir.join("data");
    let db = if !w.durable() {
        let db = Database::new();
        for t in tables {
            db.register(t);
        }
        db
    } else {
        let db = Database::open(&data).map_err(e)?;
        for t in tables {
            db.register(t);
        }
        if w == Workload::HtapCold {
            db.checkpoint_all().map_err(e)?;
            drop(db);
            let budget = dir_bytes(&data) / 2;
            Database::open_with_pool(
                DurabilityConfig::new(&data),
                MaintenanceConfig::from_env(),
                Some(BufferPool::new(budget as usize)),
            )
            .map_err(e)?
        } else {
            db
        }
    };
    let db = Arc::new(db);
    let session = pdsm_sql::Session::new(Arc::clone(&db));
    for sql in w.setup_sql() {
        if let pdsm_sql::Response::Error(m) = session.statement(sql) {
            return Err(format!("traced set-up {sql:?}: {m}"));
        }
    }

    db.reset_scan_stats();
    let storage_before = db.storage_stats();
    let merges = |db: &Database| {
        let m = db.maintenance_stats();
        m.builds_applied + m.sync_merges
    };
    let merges_before = merges(&db);
    let epoch = Instant::now();
    let traces: Vec<traced::Trace> = std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter()
            .enumerate()
            .map(|(conn, r)| {
                let db = &db;
                s.spawn(move || traced::replay(db, conn, &r.stmts, &r.sent_at, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let scan = db.scan_stats();
    let storage_after = db.storage_stats();
    let merges = merges(&db) - merges_before;

    let mut out = Traced {
        db,
        spans: Vec::new(),
        reads: Vec::new(),
        statements: 0,
        failed: 0,
        scan,
        storage: (storage_before, storage_after),
        merges,
    };
    for t in traces {
        out.spans.extend(t.spans);
        out.reads.extend(t.reads);
        out.statements += t.statements;
        out.failed += t.failed;
    }
    write_spans(w, args.seed, &out.spans);
    Ok(out)
}

/// Write the spans as TSV under `.bench_out/`, one file per workload and
/// seed.
fn write_spans(w: Workload, seed: u64, spans: &[stats::Span]) {
    let dir = Path::new(".bench_out");
    let mut text = String::from("stmt\tid\tparent\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{}\t{}\t{parent}\t{}\t{}\t{}\n",
            s.stmt, s.id, s.name, s.start, s.end
        ));
    }
    let path = dir.join(format!("spans-{}-{seed}.tsv", w.name()));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, text)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

/// Milliseconds of `core.execute` per statement class in the traced run.
fn execute_ms_by_class(t: &Traced) -> BTreeMap<&'static str, Vec<f64>> {
    let class: HashMap<u64, &'static str> = t
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.id, s.name))
        .collect();
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in t.spans.iter().filter(|s| s.name == "core.execute") {
        if let Some(c) = s.parent.and_then(|p| class.get(&p)) {
            out.entry(c).or_default().push(s.duration() as f64 / 1e6);
        }
    }
    out
}

/// Every per-layer metric, from the traced replay's spans and counters and
/// the untraced run's `STATS`.
fn per_layer(t: &Traced, runs: &[ConnRun], stats: &HashMap<String, i64>) -> Vec<Metric> {
    let selfs = self_times(&t.spans);
    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut stmt_ms = Vec::new();
    for (s, &st) in t.spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            stmt_ms.push(s.duration() as f64 / 1e6);
        } else {
            by_name.entry(s.name).or_default().push(st as f64);
        }
    }
    let span = |name: &str| by_name.get(name).map_or(&[][..], |v| &v[..]);
    let (us, ms) = (1e-3, 1e-6);
    let stat = |k: &str| *stats.get(k).unwrap_or(&0) as f64;

    let wire_ms: Vec<f64> = runs.iter().flat_map(|r| &r.samples).map(|s| s.ms).collect();
    let reads = t.reads.len() as f64;
    let share = |f: &dyn Fn(&traced::ReadInfo) -> bool| {
        ratio(t.reads.iter().filter(|r| f(r)).count() as f64, reads)
    };
    let cost_ratios: Vec<f64> = t
        .reads
        .iter()
        .filter(|r| r.cache_miss && r.model_cost > 0.0)
        .map(|r| r.exec_cycles as f64 / r.model_cost)
        .collect();
    let probes = stat("result_cache_hits")
        + stat("result_cache_fragment_hits")
        + stat("result_cache_misses")
        + stat("result_cache_bypasses");
    let (s0, s1) = &t.storage;
    let writes = runs
        .iter()
        .flat_map(|r| &r.stmts)
        .filter(|s| !s.read)
        .count() as f64;
    let fsyncs = (s1.wal_fsyncs - s0.wal_fsyncs) as f64;

    let mut m = vec![
        pct_metric("sql.parse_us", span("sql.parse"), 0.5, us, "us"),
        pct_metric("sql.bind_us", span("sql.bind"), 0.5, us, "us"),
        pct_metric("sql.serialize_us", span("sql.serialize"), 0.5, us, "us"),
        metric("sql.wire_ms", "ms", mean(&wire_ms) - mean(&stmt_ms)),
        pct_metric("core.plan_us", span("core.plan"), 0.5, us, "us"),
        metric(
            "core.plan_cache.hit_ratio",
            "ratio",
            ratio(
                stat("plan_cache_hits"),
                stat("plan_cache_hits") + stat("plan_cache_misses"),
            ),
        ),
    ];
    for engine in ["compiled", "parallel", "vectorized", "bulk", "volcano"] {
        m.push(metric(
            &format!("core.engine_share.{engine}"),
            "ratio",
            share(&|r| !r.indexed && r.engine == engine),
        ));
    }
    m.push(metric(
        "core.engine_share.index",
        "ratio",
        share(&|r| r.indexed),
    ));
    m.extend([
        metric("core.cost_ratio", "ratio", median(&cost_ratios)),
        metric(
            "core.result_cache.hit_ratio",
            "ratio",
            ratio(
                stat("result_cache_hits") + stat("result_cache_fragment_hits"),
                probes,
            ),
        ),
        metric(
            "core.result_cache.bypass_ratio",
            "ratio",
            ratio(stat("result_cache_bypasses"), probes),
        ),
        metric(
            "core.result_cache.insertions",
            "count",
            stat("result_cache_insertions"),
        ),
        metric(
            "core.result_cache.invalidations",
            "count",
            stat("result_cache_invalidations"),
        ),
        pct_metric("core.execute_ms", span("core.execute"), 0.5, ms, "ms"),
        metric(
            "exec.zone_pruned_ratio",
            "ratio",
            ratio(
                t.scan.partitions_pruned as f64,
                (t.scan.partitions_pruned + t.scan.partitions_scanned) as f64,
            ),
        ),
        metric(
            "exec.simd_chunk_ratio",
            "ratio",
            ratio(
                t.scan.simd_chunks as f64,
                (t.scan.simd_chunks + t.scan.scalar_chunks) as f64,
            ),
        ),
        metric(
            "exec.blocks_scanned",
            "count",
            t.scan.partitions_scanned as f64,
        ),
        metric("index.probe_share", "ratio", share(&|r| r.indexed)),
    ]);
    for kind in ["insert", "update", "delete"] {
        let v = span(&format!("txn.{kind}"));
        m.push(pct_metric(&format!("txn.{kind}_us"), v, 0.5, us, "us"));
        m.push(pct_metric(&format!("txn.{kind}_p99_us"), v, 0.99, us, "us"));
    }
    m.extend([
        metric("txn.merges", "count", t.merges as f64),
        metric(
            "store.wal_bytes_per_write",
            "B",
            ratio(
                (s1.wal_bytes_appended - s0.wal_bytes_appended) as f64,
                writes,
            ),
        ),
        metric("store.fsyncs", "count", fsyncs),
        metric(
            "store.group_size",
            "count",
            ratio(
                (s1.wal_appends_synced - s0.wal_appends_synced) as f64,
                fsyncs,
            ),
        ),
        metric(
            "store.checkpoints",
            "count",
            (s1.checkpoints - s0.checkpoints) as f64,
        ),
        metric(
            "pool.hit_ratio",
            "ratio",
            ratio(stat("pool_hits"), stat("pool_hits") + stat("pool_misses")),
        ),
        metric("pool.evictions", "count", stat("pool_evictions")),
        metric("pool.fault_ms", "ms", stat("pool_fault_ns_total") / 1e6),
        metric("pool.skipped_faults", "count", stat("pool_skipped_faults")),
        metric(
            "pool.peak_resident_mb",
            "MB",
            stat("pool_peak_resident_bytes") / MB,
        ),
    ]);
    m
}
