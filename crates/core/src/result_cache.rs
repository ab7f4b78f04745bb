//! The mid-query result cache (and the bounded plan cache living beside
//! it): materialized pipeline results keyed by canonical plan fingerprints
//! plus each input table's `(generation, delta_ops)` token.
//!
//! The cheapest scan is the one never re-run. [`ResultCache`] stores the
//! [`QueryResult`] of an admitted plan under
//! [`pdsm_plan::plan_fingerprint`], tagged with the catalog epoch and the
//! token `(generation, delta_ops)` of every input table — exactly the
//! invalidation fingerprint the plan cache already re-reads on every
//! lookup. Both components of the token are monotonic (a merge bumps the
//! generation, DML bumps `delta_ops` within one), so a merge or any DML
//! batch invalidates entries *for free*: the next probe re-reads the live
//! tokens, sees a mismatch, and drops the entry. A stale entry can never
//! re-validate, which makes a cached hit provably equal to re-execution at
//! that fingerprint. Replaced tables can reset tokens, so the catalog
//! epoch (bumped by every shape change) is part of validity too.
//!
//! Admission is the planner's job ([`PhysicalPlan`]`::cache_admit`): a
//! plan is cacheable only when its predicted re-execution work (its
//! one-thread cost, so the decision never depends on the core count)
//! exceeds the priced copy-out (`pdsm_cost::copy_out_cycles`) by
//! `crate::planner::CACHE_ADMIT_FACTOR`. Eviction is byte-budgeted LRU
//! with cost-weighted benefit ([`PhysicalPlan::cache_benefit`]): when over
//! budget, the entry with the lowest `benefit-density × observed-reuse /
//! recency` score goes first.
//!
//! Entries whose plan was a full-schema filtered scan (`Select(Scan)`)
//! additionally serve *fragment reuse*: a later aggregate over the same
//! filtered scan executes against the materialized rows (lazily rebuilt
//! into a [`Table`] once) instead of rescanning the base table — reuse of
//! pipeline results, not just whole answers.
//!
//! Knobs: `PDSM_RESULT_CACHE=off|on` (default on) and
//! `PDSM_RESULT_CACHE_BYTES=<bytes>` (default 64 MiB).

use pdsm_exec::QueryResult;
use pdsm_plan::physical::PhysicalPlan;
use pdsm_storage::{Schema, Table, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Per-table invalidation tokens: `(table, generation, delta_ops)` of
/// every table a plan reads, in first-reference order.
pub type DepTokens = Vec<(String, u64, u64)>;

/// Synthetic table name cached fragments are scanned under when a
/// consuming plan is rewritten over a materialized fragment.
pub const FRAGMENT_TABLE: &str = "#cached-fragment";

/// Result-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultCacheConfig {
    /// Master switch (`PDSM_RESULT_CACHE`). When off, `execute` pays a
    /// single atomic load and nothing else.
    pub enabled: bool,
    /// Byte budget across all entries (`PDSM_RESULT_CACHE_BYTES`). A
    /// single result larger than a quarter of the budget is never
    /// admitted (it would evict everything for one entry).
    pub budget_bytes: usize,
}

impl Default for ResultCacheConfig {
    fn default() -> Self {
        ResultCacheConfig {
            enabled: true,
            budget_bytes: 64 << 20,
        }
    }
}

impl ResultCacheConfig {
    /// Configuration from `PDSM_RESULT_CACHE` (`off`/`0`/`false` disable;
    /// default on) and `PDSM_RESULT_CACHE_BYTES` (plain byte count).
    pub fn from_env() -> Self {
        let mut cfg = ResultCacheConfig::default();
        if let Ok(v) = std::env::var("PDSM_RESULT_CACHE") {
            cfg.enabled = !matches!(
                v.trim().to_ascii_lowercase().as_str(),
                "off" | "0" | "false" | "no"
            );
        }
        if let Ok(v) = std::env::var("PDSM_RESULT_CACHE_BYTES") {
            if let Ok(b) = v.trim().parse::<usize>() {
                cfg.budget_bytes = b;
            }
        }
        cfg
    }
}

/// One cached result: the materialized rows plus everything needed to
/// prove them current (`epoch`, `deps`) and to rank them for eviction
/// (`bytes`, `benefit`, recency, observed reuse).
pub struct CachedResult {
    /// Catalog epoch at execution.
    pub epoch: u64,
    /// Input-table tokens at execution (validated against live tokens on
    /// every probe).
    pub deps: DepTokens,
    /// The materialized result.
    pub result: Arc<QueryResult>,
    /// Estimated resident bytes (rows + column names).
    pub bytes: usize,
    /// Model-predicted cycles one hit saves (re-execution minus copy-out).
    pub benefit: f64,
    /// Base-table schema when the plan was a full-schema `Select(Scan)` —
    /// the shape eligible for fragment reuse.
    frag_schema: Option<Schema>,
    /// The fragment rows rebuilt as a scannable [`Table`], built at most
    /// once, on first fragment reuse (`None` inside = a row failed to
    /// insert; give up on fragment service, whole-result hits still work).
    frag_table: OnceLock<Option<Arc<Table>>>,
    /// Logical-clock tick of the last hit (LRU recency).
    last_used: AtomicU64,
    /// Hits served (whole-result or fragment) — the reuse weight.
    hits: AtomicU64,
}

impl CachedResult {
    /// The fragment rows as a scannable table named [`FRAGMENT_TABLE`],
    /// when this entry is fragment-eligible. Built once, lazily.
    pub fn fragment_table(&self) -> Option<Arc<Table>> {
        let schema = self.frag_schema.as_ref()?;
        self.frag_table
            .get_or_init(|| {
                let mut t = Table::new(FRAGMENT_TABLE, schema.clone());
                for row in &self.result.rows {
                    if t.insert(row).is_err() {
                        return None;
                    }
                }
                Some(Arc::new(t))
            })
            .clone()
    }
}

/// Point-in-time counters of the result cache layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultCacheStats {
    /// Whether the cache is currently enabled.
    pub enabled: bool,
    /// Configured byte budget.
    pub budget_bytes: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Whole-result hits (the probe returned a materialized answer).
    pub hits: u64,
    /// Fragment hits: a cached filtered-scan served a *different* plan
    /// over the same fragment (these also count one whole-result miss).
    pub fragment_hits: u64,
    /// Probes that found nothing current.
    pub misses: u64,
    /// Executions that skipped the cache: planner admission said the
    /// result is cheaper to recompute than to copy, or caching is off.
    pub bypasses: u64,
    /// Entries dropped by the byte-budget eviction.
    pub evictions: u64,
    /// Entries dropped because a probe saw moved tokens (DML/merge/shape).
    pub invalidations: u64,
    /// Results admitted since creation.
    pub insertions: u64,
}

impl ResultCacheStats {
    /// Whole-result hit rate over all counted probes.
    pub fn hit_rate(&self) -> f64 {
        let n = self.hits + self.misses;
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }
}

/// The bounded, concurrent result cache. All methods take `&self`; lookups
/// touch the map under a read lock only.
pub struct ResultCache {
    map: RwLock<HashMap<String, Arc<CachedResult>>>,
    enabled: AtomicBool,
    budget: AtomicUsize,
    /// Estimated resident bytes; mutated only under the map's write lock.
    bytes: AtomicUsize,
    /// Logical clock: one tick per probe, for LRU recency.
    clock: AtomicU64,
    hits: AtomicU64,
    fragment_hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
}

impl ResultCache {
    pub fn new(cfg: ResultCacheConfig) -> Self {
        ResultCache {
            map: RwLock::new(HashMap::new()),
            enabled: AtomicBool::new(cfg.enabled),
            budget: AtomicUsize::new(cfg.budget_bytes),
            bytes: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            fragment_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// The one check the cache-off fast path pays.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Current configuration.
    pub fn config(&self) -> ResultCacheConfig {
        ResultCacheConfig {
            enabled: self.enabled.load(Ordering::Relaxed),
            budget_bytes: self.budget.load(Ordering::Relaxed),
        }
    }

    /// Reconfigure (tests, embedders). Drops every entry; counters keep
    /// accumulating.
    pub fn set_config(&self, cfg: ResultCacheConfig) {
        let mut m = self.write_map();
        m.clear();
        self.bytes.store(0, Ordering::Relaxed);
        self.enabled.store(cfg.enabled, Ordering::Relaxed);
        self.budget.store(cfg.budget_bytes, Ordering::Relaxed);
    }

    fn read_map(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, Arc<CachedResult>>> {
        self.map.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_map(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, Arc<CachedResult>>> {
        self.map.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one execution that never consulted the cache (admission said
    /// recompute, or the cache is off for this probe).
    pub fn note_bypass(&self) {
        self.bypasses.fetch_add(1, Ordering::Relaxed);
    }

    /// A validated entry for `key`, or `None`. `count` selects the
    /// stats-bearing probe (`execute`) vs. the silent peek (`explain`).
    /// A stale entry (tokens moved) is removed — and counted as an
    /// invalidation — on the counting path.
    pub fn probe(
        &self,
        key: &str,
        epoch: u64,
        deps: &DepTokens,
        count: bool,
    ) -> Option<Arc<CachedResult>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = self.read_map().get(key).cloned();
        match entry {
            Some(e) if e.epoch == epoch && e.deps == *deps => {
                if count {
                    e.last_used.store(tick, Ordering::Relaxed);
                    e.hits.fetch_add(1, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                Some(e)
            }
            Some(stale) => {
                if count {
                    let mut m = self.write_map();
                    // Only remove the entry we validated: a racing insert
                    // may have refreshed the key in between.
                    if let Some(cur) = m.get(key) {
                        if Arc::ptr_eq(cur, &stale) {
                            self.bytes.fetch_sub(cur.bytes, Ordering::Relaxed);
                            m.remove(key);
                            self.invalidations.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
            None => {
                if count {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Count one fragment-served execution against entry `e` (the probe
    /// that missed the whole result already counted the miss), bumping the
    /// entry's recency and reuse weight so fragment service keeps it warm.
    pub fn note_fragment_hit(&self, e: &CachedResult) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        e.last_used.store(tick, Ordering::Relaxed);
        e.hits.fetch_add(1, Ordering::Relaxed);
        self.fragment_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Admit one materialized result. `frag_schema` marks full-schema
    /// `Select(Scan)` results as fragment-eligible. The caller must have
    /// re-validated `deps` against the live tables *after* executing —
    /// monotonic tokens then guarantee the rows match the tag. Oversized
    /// results (> budget/4) are not admitted.
    pub fn admit(
        &self,
        key: String,
        epoch: u64,
        deps: DepTokens,
        result: Arc<QueryResult>,
        benefit: f64,
        frag_schema: Option<Schema>,
    ) {
        let bytes = result_bytes(&result);
        let budget = self.budget.load(Ordering::Relaxed);
        if bytes > budget / 4 {
            return;
        }
        let tick = self.clock.load(Ordering::Relaxed);
        let entry = Arc::new(CachedResult {
            epoch,
            deps,
            result,
            bytes,
            benefit,
            frag_schema,
            frag_table: OnceLock::new(),
            last_used: AtomicU64::new(tick),
            hits: AtomicU64::new(0),
        });
        let mut m = self.write_map();
        if let Some(old) = m.insert(key, entry) {
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.evict_over_budget(&mut m, budget, tick);
    }

    /// Byte-budgeted eviction with cost-weighted benefit: while over
    /// budget, drop the entry with the lowest
    /// `benefit/byte × (1 + hits) / (1 + age)` score — low predicted
    /// savings, little observed reuse and long idleness all push an entry
    /// toward the door.
    fn evict_over_budget(
        &self,
        m: &mut HashMap<String, Arc<CachedResult>>,
        budget: usize,
        now: u64,
    ) {
        while self.bytes.load(Ordering::Relaxed) > budget && !m.is_empty() {
            let victim = m
                .iter()
                .map(|(k, e)| {
                    let density = e.benefit / e.bytes.max(1) as f64;
                    let reuse = 1.0 + e.hits.load(Ordering::Relaxed) as f64;
                    let age = 1.0 + now.saturating_sub(e.last_used.load(Ordering::Relaxed)) as f64;
                    (k.clone(), density * reuse / age)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(k, _)| k);
            match victim {
                Some(k) => {
                    if let Some(e) = m.remove(&k) {
                        self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            enabled: self.enabled.load(Ordering::Relaxed),
            budget_bytes: self.budget.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.read_map().len(),
            hits: self.hits.load(Ordering::Relaxed),
            fragment_hits: self.fragment_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
        }
    }
}

/// Estimated resident bytes of a materialized result: per-value enum
/// footprint plus string payloads plus the column-name header.
fn result_bytes(r: &QueryResult) -> usize {
    let mut b: usize = r.columns.iter().map(|c| c.len() + 24).sum();
    for row in &r.rows {
        b += 24; // Vec header
        for v in row {
            b += std::mem::size_of::<Value>();
            if let Value::Str(s) = v {
                b += s.len();
            }
        }
    }
    b
}

// ---------------------------------------------------------------------------
// Plan cache: bounded, sharded, LRU.
// ---------------------------------------------------------------------------

/// Point-in-time counters of the plan cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that returned a still-valid lowering.
    pub hits: u64,
    /// Lookups that found nothing current (the caller re-planned).
    pub misses: u64,
    /// Entries displaced by the per-shard LRU capacity bound.
    pub evictions: u64,
    /// Entries dropped because their tokens had moved.
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// Combined [`PlanCacheStats`] + [`ResultCacheStats`] —
/// `Database::cache_stats()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    pub plan: PlanCacheStats,
    pub result: ResultCacheStats,
}

struct PlanEntry {
    epoch: u64,
    deps: DepTokens,
    phys: Arc<PhysicalPlan>,
    last_used: AtomicU64,
}

/// Cached physical plans behind sharded `RwLock`s: concurrent executes of
/// *different* plans take different shards, repeat executes of the *same*
/// plan take only a read lock — the de-serialized fast path the old
/// whole-cache `Mutex` could not give. Each shard holds at most
/// `cap / SHARDS` entries; inserting past that evicts the shard's
/// least-recently-used entry (no more wholesale clears).
pub(crate) struct PlanCache {
    shards: Vec<RwLock<HashMap<String, PlanEntry>>>,
    cap_per_shard: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

const PLAN_CACHE_SHARDS: usize = 8;

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: (0..PLAN_CACHE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            cap_per_shard: capacity.div_ceil(PLAN_CACHE_SHARDS).max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &str) -> &RwLock<HashMap<String, PlanEntry>> {
        // FNV-1a over the key bytes picks the shard.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[(h % PLAN_CACHE_SHARDS as u64) as usize]
    }

    /// A still-valid lowering for `key`, bumping its recency — or `None`
    /// (stale entries are removed and counted).
    pub fn lookup(&self, key: &str, epoch: u64, deps: &DepTokens) -> Option<Arc<PhysicalPlan>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = self.shard(key);
        {
            let m = shard.read().unwrap_or_else(|e| e.into_inner());
            match m.get(key) {
                Some(e) if e.epoch == epoch && e.deps == *deps => {
                    e.last_used.store(tick, Ordering::Relaxed);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(e.phys.clone());
                }
                Some(_) => {}
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
        // Stale under the read lock; re-check and remove under the write
        // lock (a racing execute may have refreshed it meanwhile).
        let mut m = shard.write().unwrap_or_else(|e| e.into_inner());
        if let Some(e) = m.get(key) {
            if e.epoch == epoch && e.deps == *deps {
                e.last_used.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(e.phys.clone());
            }
            m.remove(key);
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Insert a fresh lowering, LRU-evicting within the shard at capacity.
    pub fn insert(&self, key: String, epoch: u64, deps: DepTokens, phys: Arc<PhysicalPlan>) {
        let tick = self.clock.load(Ordering::Relaxed);
        let shard = self.shard(&key);
        let mut m = shard.write().unwrap_or_else(|e| e.into_inner());
        if !m.contains_key(&key) && m.len() >= self.cap_per_shard {
            let lru = m
                .iter()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone());
            if let Some(k) = lru {
                m.remove(&k);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        m.insert(
            key,
            PlanEntry {
                epoch,
                deps,
                phys,
                last_used: AtomicU64::new(tick),
            },
        );
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsm_exec::QueryOutput;

    fn result(rows: usize) -> Arc<QueryResult> {
        let mut out = QueryOutput::new();
        for i in 0..rows {
            out.rows.push(vec![Value::Int64(i as i64)]);
        }
        Arc::new(QueryResult::new(vec!["c".into()], out))
    }

    fn deps(generation: u64, ops: u64) -> DepTokens {
        vec![("t".to_string(), generation, ops)]
    }

    #[test]
    fn probe_validates_tokens_and_epoch() {
        let c = ResultCache::new(ResultCacheConfig::default());
        c.admit("k".into(), 1, deps(0, 5), result(3), 1e6, None);
        assert!(c.probe("k", 1, &deps(0, 5), true).is_some());
        // delta advanced → invalidated
        assert!(c.probe("k", 1, &deps(0, 6), true).is_none());
        // entry is gone now, even for the original tokens
        assert!(c.probe("k", 1, &deps(0, 5), true).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 2);
        // epoch mismatch invalidates too (replaced tables reset tokens)
        c.admit("k".into(), 1, deps(0, 5), result(3), 1e6, None);
        assert!(c.probe("k", 2, &deps(0, 5), true).is_none());
    }

    #[test]
    fn silent_peek_counts_nothing() {
        let c = ResultCache::new(ResultCacheConfig::default());
        c.admit("k".into(), 0, deps(0, 0), result(1), 1e6, None);
        assert!(c.probe("k", 0, &deps(0, 0), false).is_some());
        assert!(c.probe("absent", 0, &deps(0, 0), false).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn byte_budget_evicts_and_bounds() {
        let small = ResultCacheConfig {
            enabled: true,
            budget_bytes: 4096,
        };
        let c = ResultCache::new(small);
        for i in 0..64 {
            c.admit(format!("k{i}"), 0, deps(0, 0), result(8), 1e6, None);
        }
        let s = c.stats();
        assert!(s.evictions > 0, "{s:?}");
        assert!(s.bytes <= 4096, "{s:?}");
        assert!(s.entries < 64);
    }

    #[test]
    fn oversized_results_never_admitted() {
        let c = ResultCache::new(ResultCacheConfig {
            enabled: true,
            budget_bytes: 1024,
        });
        c.admit("big".into(), 0, deps(0, 0), result(1000), 1e6, None);
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn plan_cache_bounds_and_counts() {
        let pc = PlanCache::new(16);
        let phys = || {
            Arc::new(PhysicalPlan {
                logical: pdsm_plan::builder::QueryBuilder::scan("t").build(),
                engine: pdsm_plan::physical::EngineChoice::Compiled,
                threads: 1,
                pipelines: vec![],
                cost: Default::default(),
                work_cycles: 0.0,
                alternatives: vec![],
                est_out_rows: 0.0,
                cache_admit: false,
                copy_out_cycles: 0.0,
            })
        };
        for i in 0..100 {
            let key = format!("plan-{i}");
            assert!(pc.lookup(&key, 0, &deps(0, 0)).is_none());
            pc.insert(key, 0, deps(0, 0), phys());
        }
        let s = pc.stats();
        assert!(s.entries <= 16 + PLAN_CACHE_SHARDS, "{s:?}");
        assert!(
            s.evictions >= 100 - (16 + PLAN_CACHE_SHARDS) as u64,
            "{s:?}"
        );
        // hit, then invalidate
        assert!(pc.lookup("plan-99", 0, &deps(0, 0)).is_some());
        assert!(pc.lookup("plan-99", 0, &deps(1, 0)).is_none());
        let s = pc.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.invalidations, 1);
    }
}
